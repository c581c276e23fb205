//! # arc-faultsim — soft-error fault-injection harness
//!
//! The reproduction of the paper's fault-injection methodology (§4), with
//! one of each thing a fault study needs:
//!
//! * one fault type, [`FaultEvent`] (a single bit flip or a byte burst),
//!   with one applier; targets drawn by uniform sampling ([`sample_bits`])
//!   or from a machine's fault mix ([`draw_events`] over a
//!   [`arc_core::SystemProfile`]);
//! * one outcome class, [`ReturnStatus`] — the paper's *Completed /
//!   Compressor Exception / Terminated / Timeout* — spoken by every study
//!   and by the hostile-input sweep;
//! * one trial driver, [`run_trials`]: strike a copy of the buffer, run a
//!   subject under `catch_unwind` on seeded, ordered `par_map`, classify.
//!   [`run_campaign`] is the §4 single-flip study on it, aggregated into the
//!   §4.1.3 integrity metrics.
//!
//! ```
//! use arc_faultsim::{run_campaign, sample_bits};
//! use arc_pressio::{Compressor, CompressorSpec, Dataset};
//!
//! let data: Vec<f32> = (0..32 * 32).map(|i| (i as f32 * 0.03).sin()).collect();
//! let comp = CompressorSpec::SzAbs(0.01);
//! let packed = comp.compress(&Dataset { data: &data, dims: &[32, 32] }).unwrap();
//! let bits = sample_bits(packed.len() as u64 * 8, 50, 42);
//! let report = run_campaign(&data, &packed, &bits, comp.bound_spec());
//! assert_eq!(report.trials.len(), 50);
//! ```

#![warn(missing_docs)]
// Library code never aborts on the data it protects. Lib targets only (a bin
// may exit on a CLI error); clippy.toml exempts `#[cfg(test)]` code.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod campaign;
pub mod hostile;
pub mod inject;
pub mod storm;
pub mod trial;

pub use campaign::{run_campaign, run_trials, CampaignReport};
pub use hostile::{
    builtin_targets, mutations, run_case, sweep, CaseFailure, DecodeTarget, GoldenStream,
    HostileConfig, HostileReport,
};
pub use inject::{apply_events, burst_byte_run, flip_bit, sample_bits, stride_bits, FaultEvent};
pub use storm::{draw_events, storm, StormSummary};
pub use trial::{decompress_trial, ReturnStatus, TrialMetrics, TrialOutcome};
