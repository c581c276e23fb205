//! Fixture: never walked, so this unproven `unsafe` is never reported.

pub fn first(v: &[u8]) -> u8 {
    unsafe { *v.get_unchecked(0) }
}
