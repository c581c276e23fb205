//! # arc-faultsim — soft-error fault-injection harness
//!
//! The reproduction of the paper's fault-injection methodology (§4):
//! uniform sampling of target bits in a compressed buffer, single-bit flip
//! injection, trial execution with the four-way return-status taxonomy
//! (*Completed / Compressor Exception / Terminated / Timeout*), and
//! campaign-level aggregation of the §4.1.3 integrity metrics.
//!
//! ```
//! use arc_faultsim::{run_campaign, sample_bits};
//! use arc_pressio::{CompressorSpec, Dataset};
//!
//! let data: Vec<f32> = (0..32 * 32).map(|i| (i as f32 * 0.03).sin()).collect();
//! let comp = CompressorSpec::SzAbs(0.01).build();
//! let packed = comp.compress(&Dataset { data: &data, dims: &[32, 32] }).unwrap();
//! let bits = sample_bits(packed.len() as u64 * 8, 50, 42);
//! let report = run_campaign(comp.as_ref(), &data, &packed, &bits);
//! assert_eq!(report.trials.len(), 50);
//! ```

#![warn(missing_docs)]

pub mod campaign;
pub mod hostile;
pub mod inject;
pub mod storm;
pub mod trial;

pub use campaign::{run_campaign, run_campaign_with_bound, CampaignReport};
pub use hostile::{
    builtin_targets, mutations, run_case, sweep, CaseFailure, CaseStatus, DecodeTarget,
    GoldenStream, HostileConfig, HostileReport,
};
pub use inject::{burst_byte_run, flip_bit, sample_bits, stride_bits};
pub use storm::{apply_events, draw_events, storm, FaultEvent, FaultMix, StormSummary};
pub use trial::{ReturnStatus, TrialContext, TrialMetrics, TrialOutcome};
