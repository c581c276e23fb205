//! Fixture: walked, so this unproven `unsafe` is reported.

pub fn first(v: &[u8]) -> u8 {
    unsafe { *v.get_unchecked(0) }
}
