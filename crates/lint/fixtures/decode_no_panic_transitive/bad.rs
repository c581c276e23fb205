//! The panics are two calls below the root: only a transitive analysis
//! catches them. An `assert!` aborts a release build like `.expect()` does.

// arc-lint: decode-root
pub fn decode(bytes: &[u8]) -> Vec<u8> {
    inner(bytes)
}

fn inner(bytes: &[u8]) -> Vec<u8> {
    helper(bytes).expect("valid input")
}

fn helper(bytes: &[u8]) -> Option<Vec<u8>> {
    assert!(bytes.len() < 1 << 20, "input too large");
    if bytes.is_empty() {
        None
    } else {
        Some(bytes.to_vec())
    }
}
