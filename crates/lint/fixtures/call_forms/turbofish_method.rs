//! The only path from the root to the subscript is a turbofish method call.

pub struct Cursor<'a> {
    bytes: &'a [u8],
}

impl Cursor<'_> {
    fn byte_at<const N: usize>(&self) -> u8 {
        self.bytes[N]
    }
}

// arc-lint: decode-root
pub fn decode_turbofish_method(bytes: &[u8]) -> u8 {
    Cursor { bytes }.byte_at::<1>()
}
