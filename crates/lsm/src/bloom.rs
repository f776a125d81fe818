//! A standard Bloom filter with double hashing.

/// Bloom filter sized at construction for an expected key count and
/// bits-per-key budget (RocksDB's default is 10 bits/key ≈ 1 % FPR).
#[derive(Debug, Clone)]
pub struct BloomFilter {
    bits: Vec<u64>,
    nbits: usize,
    k: u32,
}

fn hash2(key: &[u8]) -> (u64, u64) {
    // Two independent FNV-1a variants; double hashing g_i = h1 + i*h2.
    let (mut h1, mut h2) = (0xCBF2_9CE4_8422_2325u64, 0x9E37_79B9_7F4A_7C15u64);
    for &b in key {
        h1 = (h1 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        h2 = (h2 ^ b as u64).wrapping_mul(0x0000_0100_0000_0193);
    }
    (h1, h2 | 1)
}

impl BloomFilter {
    /// A filter for about `expected` keys at `bits_per_key` bits each.
    pub fn new(expected: usize, bits_per_key: usize) -> Self {
        let nbits = (expected.max(1) * bits_per_key).max(64);
        let k = ((bits_per_key as f64) * 0.69).round().clamp(1.0, 30.0) as u32;
        BloomFilter {
            bits: vec![0u64; nbits.div_ceil(64)],
            nbits,
            k,
        }
    }

    /// Add a key.
    pub fn insert(&mut self, key: &[u8]) {
        let (h1, h2) = hash2(key);
        for i in 0..self.k {
            let bit = (h1.wrapping_add(h2.wrapping_mul(i as u64)) % self.nbits as u64) as usize;
            self.bits[bit / 64] |= 1 << (bit % 64);
        }
    }

    /// Whether the key *may* be present (false = definitely absent).
    pub fn may_contain(&self, key: &[u8]) -> bool {
        let (h1, h2) = hash2(key);
        (0..self.k).all(|i| {
            let bit = (h1.wrapping_add(h2.wrapping_mul(i as u64)) % self.nbits as u64) as usize;
            self.bits[bit / 64] & (1 << (bit % 64)) != 0
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::new(1000, 10);
        for i in 0..1000u32 {
            f.insert(format!("key{i}").as_bytes());
        }
        for i in 0..1000u32 {
            assert!(f.may_contain(format!("key{i}").as_bytes()), "fn on {i}");
        }
    }

    #[test]
    fn false_positive_rate_is_low() {
        let mut f = BloomFilter::new(10_000, 10);
        for i in 0..10_000u32 {
            f.insert(format!("present{i}").as_bytes());
        }
        let fps = (0..10_000u32)
            .filter(|i| f.may_contain(format!("absent{i}").as_bytes()))
            .count();
        let rate = fps as f64 / 10_000.0;
        assert!(rate < 0.03, "FPR {rate} too high for 10 bits/key");
    }

    #[test]
    fn empty_filter_rejects() {
        let f = BloomFilter::new(100, 10);
        assert!(!f.may_contain(b"anything"));
    }

    #[test]
    fn tiny_expected_count_works() {
        let mut f = BloomFilter::new(0, 10);
        f.insert(b"x");
        assert!(f.may_contain(b"x"));
    }
}
