//! Fixture: known-bad wire-path code — the header below makes this file
//! wire-path, and `decode` calls out to `dcs_util::parse_len`, which
//! unwraps (the call on line 17 is asserted by the test).

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub fn decode(buf: &[u8]) -> u8 {
    let first = buf.first().copied().unwrap_or(0);
    first + dcs_util::parse_len(buf)
}
