//! Fixture (crate `util`): the helper the panic fixtures call. It sits
//! outside every wire-path file, so only the call graph sees its unwrap.

pub fn parse_len(buf: &[u8]) -> u8 {
    buf.get(1).copied().unwrap()
}
