//! The subscript sits in a function whose return type is an array: the `;`
//! in `[usize; 2]` does not end the item, so the body is still read.

// arc-lint: decode-root
pub fn decode_array_return(bytes: &[u8]) -> usize {
    let [a, b] = split(bytes);
    a + b
}

fn split(bytes: &[u8]) -> [usize; 2] {
    [usize::from(bytes[0]), bytes.len()]
}
