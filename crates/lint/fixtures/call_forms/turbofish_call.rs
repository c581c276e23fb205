//! The only path from the root to the subscript is a turbofish call.

// arc-lint: decode-root
pub fn decode_turbofish_call(bytes: &[u8]) -> u8 {
    nth::<2>(bytes)
}

fn nth<const N: usize>(bytes: &[u8]) -> u8 {
    bytes[N]
}
