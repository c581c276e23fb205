//! ARC's three user constraints (§5.1): storage, throughput, resiliency.
//!
//! * the **memory constraint** caps added storage as a fraction of the
//!   input (`0.25` → at most +25%); `MemoryConstraint::Any` is
//!   `ARC_ANY_SIZE`;
//! * the **throughput constraint** is a lower bound on encode throughput
//!   in MB/s; `ThroughputConstraint::Any` is `ARC_ANY_BW`;
//! * the **resiliency constraint** filters the candidate ECC methods by
//!   method flags (`ARC_PARITY`…`ARC_RS`), by error-response flags
//!   (`ARC_DET_SPARSE`, `ARC_COR_SPARSE`, `ARC_COR_BURST`), or by an
//!   expected uniformly-distributed soft-error rate per MB.

use arc_ecc::{EccConfig, EccMethod, EccScheme};

/// Upper bound on storage overhead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MemoryConstraint {
    /// `ARC_ANY_SIZE` — no storage restriction.
    Any,
    /// Added bytes must stay below `fraction · input_len`.
    Fraction(f64),
}

impl MemoryConstraint {
    /// Validate user input.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            MemoryConstraint::Any => Ok(()),
            MemoryConstraint::Fraction(f) if f.is_finite() && f > 0.0 => Ok(()),
            MemoryConstraint::Fraction(f) => Err(format!("memory constraint {f} must be > 0")),
        }
    }
}

/// Lower bound on encoding throughput.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ThroughputConstraint {
    /// `ARC_ANY_BW` — no throughput restriction.
    Any,
    /// Encoding must sustain at least this many MB/s.
    MbPerS(f64),
}

impl ThroughputConstraint {
    /// Validate user input.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            ThroughputConstraint::Any => Ok(()),
            ThroughputConstraint::MbPerS(v) if v.is_finite() && v > 0.0 => Ok(()),
            ThroughputConstraint::MbPerS(v) => {
                Err(format!("throughput constraint {v} must be > 0"))
            }
        }
    }
}

/// Error-response capability flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorResponse {
    /// `ARC_DET_SPARSE` — detect sparse uniformly distributed errors.
    DetectSparse,
    /// `ARC_COR_SPARSE` — correct sparse uniformly distributed errors.
    CorrectSparse,
    /// `ARC_COR_BURST` — correct densely packed burst errors.
    CorrectBurst,
}

/// The resiliency constraint.
#[derive(Debug, Clone, PartialEq)]
pub enum ResiliencyConstraint {
    /// `ARC_ANY_ECC` — every method is a candidate.
    Any,
    /// Restrict to the listed method families.
    Methods(Vec<EccMethod>),
    /// Restrict to methods with all the listed capabilities.
    Responses(Vec<ErrorResponse>),
    /// Expected uniformly distributed soft errors per MB of data; ARC keeps
    /// only methods able to correct that rate. Once every sixteenth of a MB
    /// is expected to see an error (≥16 errors/MB), the burst likelihood
    /// pushes ARC to Reed-Solomon alone (§5.1).
    ErrorsPerMb(f64),
}

/// The rate threshold above which only Reed-Solomon is considered — §5.1's
/// "over a sixteenth of each MB of data will encounter a soft error",
/// i.e. 16 errors per MB.
pub const BURST_RATE_THRESHOLD: f64 = 16.0;

impl ResiliencyConstraint {
    /// Validate user input.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            ResiliencyConstraint::Any => Ok(()),
            ResiliencyConstraint::Methods(m) if !m.is_empty() => Ok(()),
            ResiliencyConstraint::Methods(_) => Err("empty method list".into()),
            ResiliencyConstraint::Responses(r) if !r.is_empty() => Ok(()),
            ResiliencyConstraint::Responses(_) => Err("empty response list".into()),
            ResiliencyConstraint::ErrorsPerMb(e) if e.is_finite() && *e >= 0.0 => Ok(()),
            ResiliencyConstraint::ErrorsPerMb(e) => Err(format!("error rate {e} must be >= 0")),
        }
    }

    /// True when `config` satisfies this constraint.
    pub fn admits(&self, config: &EccConfig) -> bool {
        match self {
            ResiliencyConstraint::Any => true,
            ResiliencyConstraint::Methods(methods) => methods.contains(&config.method()),
            ResiliencyConstraint::Responses(responses) => {
                let cap = config.capability();
                responses.iter().all(|r| match r {
                    ErrorResponse::DetectSparse => cap.detects_sparse,
                    ErrorResponse::CorrectSparse => cap.corrects_sparse,
                    ErrorResponse::CorrectBurst => cap.corrects_burst,
                })
            }
            ResiliencyConstraint::ErrorsPerMb(rate) => {
                if *rate == 0.0 {
                    return true;
                }
                // §5.1: above the burst threshold "ARC only uses
                // Reed-Solomon"; at lower rates "ARC uses SEC-DED or
                // Reed-Solomon" — plain Hamming is excluded because its
                // miscorrected double errors would be silent.
                let method_ok = if *rate > BURST_RATE_THRESHOLD {
                    config.method() == EccMethod::Rs
                } else {
                    matches!(config.method(), EccMethod::SecDed | EccMethod::Rs)
                };
                let cap = config.capability();
                method_ok && cap.corrects_sparse && cap.correctable_per_mb >= *rate
            }
        }
    }

    /// Filter a configuration space down to the admitted set.
    pub fn filter(&self, space: &[EccConfig]) -> Vec<EccConfig> {
        space.iter().filter(|c| self.admits(c)).copied().collect()
    }
}

/// Bundle of the three constraints, as passed to `arc_encode()`.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodeRequest {
    /// Storage cap.
    pub memory: MemoryConstraint,
    /// Throughput floor.
    pub throughput: ThroughputConstraint,
    /// ECC filter.
    pub resiliency: ResiliencyConstraint,
}

impl Default for EncodeRequest {
    /// `ARC_ANY_MEM, ARC_ANY_BW, ARC_ANY_ECC` — Algorithm 1's defaults.
    fn default() -> Self {
        EncodeRequest {
            memory: MemoryConstraint::Any,
            throughput: ThroughputConstraint::Any,
            resiliency: ResiliencyConstraint::Any,
        }
    }
}

impl EncodeRequest {
    /// Validate every constraint.
    pub fn validate(&self) -> Result<(), String> {
        self.memory.validate()?;
        self.throughput.validate()?;
        self.resiliency.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(MemoryConstraint::Fraction(0.25).validate().is_ok());
        assert!(MemoryConstraint::Fraction(-1.0).validate().is_err());
        assert!(ThroughputConstraint::MbPerS(200.0).validate().is_ok());
        assert!(ThroughputConstraint::MbPerS(f64::NAN).validate().is_err());
        assert!(ResiliencyConstraint::ErrorsPerMb(1.0).validate().is_ok());
        assert!(ResiliencyConstraint::Methods(vec![]).validate().is_err());
        assert!(EncodeRequest::default().validate().is_ok());
    }

    #[test]
    fn method_filter() {
        let space = EccConfig::standard_space();
        let rs_only = ResiliencyConstraint::Methods(vec![EccMethod::Rs]).filter(&space);
        assert!(!rs_only.is_empty());
        assert!(rs_only.iter().all(|c| c.method() == EccMethod::Rs));
        let two = ResiliencyConstraint::Methods(vec![EccMethod::Parity, EccMethod::SecDed])
            .filter(&space);
        assert!(two.iter().all(|c| matches!(c.method(), EccMethod::Parity | EccMethod::SecDed)));
    }

    #[test]
    fn response_filter_matches_paper_semantics() {
        let space = EccConfig::standard_space();
        // DET_SPARSE: everything detects sparse errors.
        let det = ResiliencyConstraint::Responses(vec![ErrorResponse::DetectSparse]).filter(&space);
        assert_eq!(det.len(), space.len());
        // COR_SPARSE: excludes parity.
        let cor =
            ResiliencyConstraint::Responses(vec![ErrorResponse::CorrectSparse]).filter(&space);
        assert!(cor.iter().all(|c| c.method() != EccMethod::Parity));
        assert!(!cor.is_empty());
        // COR_BURST: Reed-Solomon only.
        let burst =
            ResiliencyConstraint::Responses(vec![ErrorResponse::CorrectBurst]).filter(&space);
        assert!(burst.iter().all(|c| c.method() == EccMethod::Rs));
    }

    #[test]
    fn error_rate_filter() {
        let space = EccConfig::standard_space();
        // §6.3's case: 1 error per MB admits SEC-DED and RS only (§5.1
        // names "SEC-DED or Reed-Solomon" at low rates).
        let one = ResiliencyConstraint::ErrorsPerMb(1.0).filter(&space);
        assert!(one.iter().any(|c| c.method() == EccMethod::SecDed));
        assert!(one.iter().all(|c| matches!(c.method(), EccMethod::SecDed | EccMethod::Rs)));
        // §5.1's case: above one error per sixteenth-MB → Reed-Solomon only.
        let heavy = ResiliencyConstraint::ErrorsPerMb(20.0).filter(&space);
        assert!(!heavy.is_empty());
        assert!(heavy.iter().all(|c| c.method() == EccMethod::Rs));
        // Very heavy rates prune weak RS configs too.
        let extreme = ResiliencyConstraint::ErrorsPerMb(100.0).filter(&space);
        assert!(extreme.iter().all(|c| match c {
            EccConfig::Rs(rs) => rs.m >= 100,
            _ => false,
        }));
        // Zero rate admits everything.
        assert_eq!(ResiliencyConstraint::ErrorsPerMb(0.0).filter(&space).len(), space.len());
    }
}
