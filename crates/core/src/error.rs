//! The ARC core's one error type.

use std::fmt;

use arc_ecc::EccError;

/// Failures surfaced by the ARC interface and engine.
#[derive(Debug, Clone, PartialEq)]
pub enum ArcError {
    /// A user constraint failed validation.
    InvalidRequest(String),
    /// The resiliency constraint admits no configuration.
    NoCandidates(String),
    /// The training table has no measurements for any candidate; call
    /// `ArcContext::init` (or `train`) first.
    NotTrained,
    /// An ECC-layer failure, including detected-but-uncorrectable damage —
    /// the error `arc_decode()` raises in Figure 7b.
    Ecc(EccError),
    /// The container itself is damaged beyond even the header's protection.
    Corrupted(String),
    /// Cache-file I/O failure.
    Io(String),
}

impl fmt::Display for ArcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArcError::InvalidRequest(d) => write!(f, "invalid request: {d}"),
            ArcError::NoCandidates(d) => write!(f, "no ECC configuration admitted: {d}"),
            ArcError::NotTrained => write!(f, "ARC has not been trained; run arc_init first"),
            ArcError::Ecc(e) => write!(f, "ECC failure: {e}"),
            ArcError::Corrupted(d) => write!(f, "container corrupted: {d}"),
            ArcError::Io(d) => write!(f, "cache I/O: {d}"),
        }
    }
}

impl std::error::Error for ArcError {}

impl From<EccError> for ArcError {
    fn from(e: EccError) -> Self {
        ArcError::Ecc(e)
    }
}
