//! Single fault-injection trials and their return-status taxonomy.
//!
//! §4.2 groups every trial's outcome into four classes, and every fault
//! study here — campaigns, storms, the hostile sweep — reports in them:
//!
//! * **Completed** — decompression "succeeds" with the error present: the
//!   dangerous class, since the corrupt data flows on (error propagation /
//!   silent data corruption);
//! * **Compressor Exception** — the codec noticed and raised an error;
//! * **Terminated** — the process crashed (captured here as a panic);
//! * **Timeout** — decompression demanded implausible work (corrupted
//!   loop-controlling metadata).

use std::time::Instant;

use arc_pressio::{BoundSpec, PressioError};

/// The paper's four return-status classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReturnStatus {
    /// Decompression returned data despite the corruption.
    Completed,
    /// The decoder raised an exception: a typed error.
    CompressorException,
    /// The decode crashed (panicked).
    Terminated,
    /// The decode exceeded its work budget: it demanded too much output,
    /// or ran past a wall-clock guard.
    Timeout,
}

impl ReturnStatus {
    /// All four classes in the paper's order.
    pub const ALL: [ReturnStatus; 4] = [
        ReturnStatus::Completed,
        ReturnStatus::CompressorException,
        ReturnStatus::Terminated,
        ReturnStatus::Timeout,
    ];

    /// Display label matching the paper's figure legend.
    pub fn label(&self) -> &'static str {
        match self {
            ReturnStatus::Completed => "Completed",
            ReturnStatus::CompressorException => "Compressor Exception",
            ReturnStatus::Terminated => "Terminated",
            ReturnStatus::Timeout => "Timeout",
        }
    }
}

/// Integrity metrics recorded for a Completed trial (§4.1.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialMetrics {
    /// Percent of elements violating the evaluation bound (None when the
    /// mode has no per-value bound, e.g. SZ-PSNR).
    pub percent_incorrect: Option<f64>,
    /// Count of violating elements.
    pub incorrect_elements: Option<usize>,
    /// Maximum absolute difference against the original data.
    pub max_abs_diff: f64,
    /// PSNR against the original data (dB).
    pub psnr: f64,
    /// Wall-clock decompression time in seconds.
    pub decompress_seconds: f64,
    /// Decompression bandwidth over the compressed size, MB/s.
    pub bandwidth_mb_s: f64,
}

/// One trial's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialOutcome {
    /// The flipped bit's index (bit 0 = LSB of byte 0), or `None` for
    /// control trials.
    pub bit: Option<u64>,
    /// Status class.
    pub status: ReturnStatus,
    /// Metrics for Completed trials.
    pub metrics: Option<TrialMetrics>,
}

/// The §4 trial as a subject for [`crate::campaign::run_trials`]:
/// decompress the struck stream ([`arc_pressio::decompress`], which needs
/// nothing but the bytes) under a work budget of 4× the true element
/// count (the paper's "3× the average decompression time"), then score the
/// output against `original`. A stream that decodes to a different element
/// count is a Compressor Exception: any consumer holding the real dims would
/// reject it. `eval_bound` counts incorrect elements (usually the
/// compressor's own bound; Fig 3d evaluates ZFP-Rate, which has none,
/// against the study's ε).
pub fn decompress_trial<'a>(
    original: &'a [f32],
    eval_bound: Option<BoundSpec>,
) -> impl Fn(&[u8]) -> Result<TrialMetrics, ReturnStatus> + Sync + 'a {
    let work_budget = (original.len() as u64).saturating_mul(4).max(1024);
    move |buf| {
        let t0 = Instant::now();
        let decoded = arc_pressio::decompress(buf, work_budget);
        let seconds = t0.elapsed().as_secs_f64();
        let d = match decoded {
            Ok(d) if d.data.len() == original.len() => d,
            Err(PressioError::Timeout { .. }) => return Err(ReturnStatus::Timeout),
            _ => return Err(ReturnStatus::CompressorException),
        };
        let incorrect = eval_bound.map(|b| arc_pressio::incorrect_elements(original, &d.data, b));
        Ok(TrialMetrics {
            percent_incorrect: incorrect.map(|c| 100.0 * c as f64 / original.len().max(1) as f64),
            incorrect_elements: incorrect,
            max_abs_diff: arc_pressio::max_abs_diff(original, &d.data),
            psnr: arc_pressio::psnr(original, &d.data),
            decompress_seconds: seconds,
            bandwidth_mb_s: if seconds > 0.0 {
                buf.len() as f64 / 1e6 / seconds
            } else {
                f64::INFINITY
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_campaign;
    use arc_pressio::{Compressor, CompressorSpec, Dataset};

    fn setup() -> (Vec<f32>, Vec<u8>, CompressorSpec) {
        let dims = [32usize, 32];
        let data: Vec<f32> = (0..1024).map(|i| (i as f32 * 0.02).sin() * 5.0).collect();
        let comp = CompressorSpec::SzAbs(0.01);
        let packed = comp.compress(&Dataset { data: &data, dims: &dims }).unwrap();
        (data, packed, comp)
    }

    #[test]
    fn control_trial_is_clean_completed() {
        let (data, packed, comp) = setup();
        let m = decompress_trial(&data, comp.bound_spec())(&packed).unwrap();
        assert_eq!(m.percent_incorrect, Some(0.0));
        assert!(m.max_abs_diff <= 0.01);
        assert!(m.psnr > 40.0);
        assert!(m.bandwidth_mb_s > 0.0);
    }

    #[test]
    fn flip_trials_classify_without_panicking_through() {
        let (data, packed, comp) = setup();
        let bits: Vec<u64> = (0..packed.len() as u64 * 8).step_by(193).collect();
        let report = run_campaign(&data, &packed, &bits, comp.bound_spec());
        for out in &report.trials {
            assert_eq!(out.status == ReturnStatus::Completed, out.metrics.is_some());
        }
        // Some trials must decode "successfully" despite corruption —
        // that's the paper's whole point.
        assert!(report.percent(ReturnStatus::Completed) > 0.0, "{:?}", report.status_counts());
    }

    #[test]
    fn corrupted_completed_trials_show_damage() {
        let (data, packed, comp) = setup();
        let bits: Vec<u64> = (64..packed.len() as u64 * 8).step_by(57).collect();
        let report = run_campaign(&data, &packed, &bits, comp.bound_spec());
        assert!(
            report
                .trials
                .iter()
                .any(|t| t.metrics.is_some_and(|m| m.percent_incorrect.unwrap_or(0.0) > 0.0)),
            "no flip propagated to decoded values"
        );
    }

    #[test]
    fn status_labels_match_paper() {
        assert_eq!(ReturnStatus::Completed.label(), "Completed");
        assert_eq!(ReturnStatus::CompressorException.label(), "Compressor Exception");
        assert_eq!(ReturnStatus::ALL.len(), 4);
    }
}
