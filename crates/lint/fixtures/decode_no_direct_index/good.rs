//! Every subscript in the cone is either `.get()`-based, carries a written
//! bounds proof, or is waived; outside the cone the rule stays quiet.

// arc-lint: decode-root
pub fn decode(bytes: &[u8]) -> u8 {
    pick(bytes).wrapping_add(checked(bytes)).wrapping_add(waived(bytes))
}

fn pick(bytes: &[u8]) -> u8 {
    bytes.first().copied().unwrap_or(0)
}

fn checked(bytes: &[u8]) -> u8 {
    if bytes.len() > 1 {
        // arc-lint: bounded(len > 1 checked above)
        bytes[1]
    } else {
        0
    }
}

fn waived(bytes: &[u8]) -> u8 {
    // arc-lint: allow(decode-no-direct-index, fixture exercising the waiver path)
    bytes[2]
}

/// Unreachable from the root: direct indexing here is the caller's problem.
pub fn offline_tool_path(v: &[u8]) -> u8 {
    v[0]
}
