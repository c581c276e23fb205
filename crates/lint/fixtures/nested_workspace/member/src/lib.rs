//! Fixture: walked, so this unproven index below a decode root is reported.

// arc-lint: decode-root
pub fn first(v: &[u8]) -> u8 {
    v[0]
}
