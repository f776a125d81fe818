//! Fixture: the same call as `panic_wire.rs`, in a file without the
//! wire-path header — so it is not wire-path, and nothing fires.

pub fn decode(buf: &[u8]) -> u8 {
    let first = buf.first().copied().unwrap_or(0);
    first + dcs_util::parse_len(buf)
}
