//! Fixture: never walked, so this unproven index is never reported.

// arc-lint: decode-root
pub fn first(v: &[u8]) -> u8 {
    v[0]
}
