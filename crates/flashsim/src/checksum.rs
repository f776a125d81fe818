//! The one frame checksum of everything written to (or framed like) flash.

/// FNV-1a over `bytes`: the payload checksum of LSS parts, TC WAL frames
/// and wire frames. One definition, so the three formats cannot drift.
/// `#[inline]` keeps the per-frame loop inlinable in the crates that used
/// to carry private copies.
#[inline]
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::fnv64;

    /// Golden vectors from the FNV reference test suite: changing the
    /// function invalidates every stored LSS part and WAL frame.
    #[test]
    fn golden_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
