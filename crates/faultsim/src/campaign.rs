//! The one trial driver, and the paper's single-flip campaigns on it.
//!
//! Every fault study runs through [`run_trials`]: copy the pristine
//! buffer, strike it with one trial's [`FaultEvent`]s, hand it to a subject
//! under `catch_unwind`, and sort the result into the paper's four
//! [`ReturnStatus`] classes. (The hostile sweep reports in the same classes
//! but runs each case through `hostile::run_case`, the one path that needs
//! a wall-clock guard.) [`run_campaign`] is the §4 study on it: one
//! bit flip per trial into a compressor stream, aggregated the way the
//! paper's figures need them.

use std::panic::{catch_unwind, AssertUnwindSafe};

use arc_ecc::parallel::{par_map, resolve_threads, ANY_THREADS};
use arc_pressio::{BoundSpec, RunningStats};

use crate::inject::{apply_events, FaultEvent};
use crate::trial::{decompress_trial, ReturnStatus, TrialMetrics, TrialOutcome};

/// Run one trial per entry of `trials` on `threads` workers ([`par_map`]):
/// each gets its own copy of `pristine` struck by its events, and `subject`
/// decides its class. `Ok` is *Completed* with the subject's value, `Err`
/// the status the subject names, and a panic *Terminated*. Results come
/// back in input order, whatever the thread count.
pub fn run_trials<T: Send>(
    pristine: &[u8],
    trials: &[Vec<FaultEvent>],
    threads: usize,
    subject: impl Fn(&[u8]) -> Result<T, ReturnStatus> + Sync,
) -> Vec<(ReturnStatus, Option<T>)> {
    let mut trials: Vec<&[FaultEvent]> = trials.iter().map(Vec::as_slice).collect();
    par_map(threads, &mut trials, |events| {
        let mut buf = pristine.to_vec();
        apply_events(&mut buf, events);
        match catch_unwind(AssertUnwindSafe(|| subject(&buf))) {
            Ok(Ok(value)) => (ReturnStatus::Completed, Some(value)),
            Ok(Err(status)) => (status, None),
            Err(_) => (ReturnStatus::Terminated, None),
        }
    })
}

/// Aggregated results of a campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Every trial outcome, in the order of the bits asked for.
    pub trials: Vec<TrialOutcome>,
    /// The control (no-flip) trial for baseline comparison.
    pub control: TrialOutcome,
    /// Total bits in the compressed buffer.
    pub total_bits: u64,
}

impl CampaignReport {
    /// Count of trials per status class.
    pub fn status_counts(&self) -> [(ReturnStatus, usize); 4] {
        ReturnStatus::ALL.map(|s| (s, self.trials.iter().filter(|t| t.status == s).count()))
    }

    /// Percentage of trials in a class.
    pub fn percent(&self, status: ReturnStatus) -> f64 {
        if self.trials.is_empty() {
            return 0.0;
        }
        let c = self.trials.iter().filter(|t| t.status == status).count();
        100.0 * c as f64 / self.trials.len() as f64
    }

    /// Running statistics of `f` over the Completed trials it is defined on.
    fn stats(&self, f: impl Fn(&TrialMetrics) -> Option<f64>) -> RunningStats {
        let mut stats = RunningStats::new();
        for v in self.trials.iter().filter_map(|t| t.metrics.as_ref().and_then(&f)) {
            stats.push(v);
        }
        stats
    }

    /// Mean percent-incorrect over Completed trials (Fig 3's headline
    /// number — ~10% for the serial modes).
    pub fn avg_percent_incorrect(&self) -> Option<f64> {
        let stats = self.stats(|m| m.percent_incorrect);
        (stats.count() > 0).then(|| stats.mean())
    }

    /// Mean incorrect-*elements* over Completed trials (Fig 3d reports
    /// ZFP-Rate in elements, not percent).
    pub fn avg_incorrect_elements(&self) -> Option<f64> {
        let stats = self.stats(|m| m.incorrect_elements.map(|c| c as f64));
        (stats.count() > 0).then(|| stats.mean())
    }

    /// (mean, std-dev) of a Completed-trial metric selected by `f`.
    pub fn metric_stats(&self, f: impl Fn(&TrialMetrics) -> f64) -> (f64, f64) {
        let stats = self.stats(|m| Some(f(m)));
        (stats.mean(), stats.std_dev())
    }

    /// Range (min, max) of percent-incorrect across Completed trials.
    pub fn percent_incorrect_range(&self) -> Option<(f64, f64)> {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for t in &self.trials {
            if let Some(p) = t.metrics.as_ref().and_then(|m| m.percent_incorrect) {
                lo = lo.min(p);
                hi = hi.max(p);
            }
        }
        lo.is_finite().then_some((lo, hi))
    }
}

/// The §4 campaign: one trial per bit in `bits`, each flipping that bit of
/// `compressed` and decompressing it ([`decompress_trial`], incorrect
/// elements counted against `eval_bound`), over every available hardware
/// thread; the control trial runs first, on its own.
pub fn run_campaign(
    original: &[f32],
    compressed: &[u8],
    bits: &[u64],
    eval_bound: Option<BoundSpec>,
) -> CampaignReport {
    let subject = decompress_trial(original, eval_bound);
    let (status, metrics) = run_trials(compressed, &[Vec::new()], 1, &subject).remove(0);
    let control = TrialOutcome { bit: None, status, metrics };
    let flips: Vec<Vec<FaultEvent>> =
        bits.iter().map(|&bit| vec![FaultEvent::SingleBit { bit }]).collect();
    let trials = run_trials(compressed, &flips, resolve_threads(ANY_THREADS), &subject)
        .into_iter()
        .zip(bits)
        .map(|((status, metrics), &bit)| TrialOutcome { bit: Some(bit), status, metrics })
        .collect();
    CampaignReport { trials, control, total_bits: compressed.len() as u64 * 8 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::sample_bits;
    use arc_pressio::{Compressor, CompressorSpec, Dataset};

    fn smooth(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.017).sin() * 3.0 + (i as f32 * 0.003).cos()).collect()
    }

    #[test]
    fn driver_strikes_copies_and_classifies_in_input_order() {
        let pristine = [0u8; 4];
        let trials = vec![
            vec![FaultEvent::SingleBit { bit: 9 }],
            vec![],
            vec![FaultEvent::Burst { start: 3, len: 8 }],
            vec![FaultEvent::SingleBit { bit: 0 }, FaultEvent::SingleBit { bit: 31 }],
        ];
        let subject = |b: &[u8]| match b {
            [0, 0, 0, 0] => Err(ReturnStatus::CompressorException),
            [1, ..] => panic!("bit 0 is fatal"),
            _ => Ok(b.to_vec()),
        };
        for threads in [1, 2, 4] {
            assert_eq!(
                run_trials(&pristine, &trials, threads, subject),
                vec![
                    (ReturnStatus::Completed, Some(vec![0, 2, 0, 0])),
                    (ReturnStatus::CompressorException, None),
                    (ReturnStatus::Completed, Some(vec![0, 0, 0, 0xFF])),
                    (ReturnStatus::Terminated, None),
                ],
                "{threads} threads"
            );
        }
    }

    #[test]
    fn campaign_aggregates_statuses() {
        let dims = [24usize, 24];
        let data = smooth(24 * 24);
        let comp = CompressorSpec::SzAbs(0.01);
        let packed = comp.compress(&Dataset { data: &data, dims: &dims }).unwrap();
        let bits = sample_bits(packed.len() as u64 * 8, 120, 11);
        let report = run_campaign(&data, &packed, &bits, comp.bound_spec());
        assert_eq!(report.trials.len(), 120);
        let total: usize = report.status_counts().iter().map(|(_, c)| c).sum();
        assert_eq!(total, 120);
        assert_eq!(report.control.status, ReturnStatus::Completed);
        let pct_sum: f64 = ReturnStatus::ALL.iter().map(|&s| report.percent(s)).sum();
        assert!((pct_sum - 100.0).abs() < 1e-9);
    }

    #[test]
    fn zfp_rate_localizes_errors_vs_sz() {
        // The paper's central §4.3 contrast: ZFP-Rate confines a flip to a
        // handful of elements, while SZ's serial stream propagates widely.
        let dims = [32usize, 32];
        let data = smooth(32 * 32);
        let eval = Some(BoundSpec::Abs(0.05));

        let zfp = CompressorSpec::ZfpRate(8.0);
        let zpacked = zfp.compress(&Dataset { data: &data, dims: &dims }).unwrap();
        let zbits = sample_bits(zpacked.len() as u64 * 8, 150, 3);
        let zreport = run_campaign(&data, &zpacked, &zbits, eval);
        let z_avg = zreport.avg_incorrect_elements().unwrap_or(0.0);

        let sz = CompressorSpec::SzAbs(0.05);
        let spacked = sz.compress(&Dataset { data: &data, dims: &dims }).unwrap();
        let sbits = sample_bits(spacked.len() as u64 * 8, 150, 3);
        let sreport = run_campaign(&data, &spacked, &sbits, sz.bound_spec());
        let s_avg = sreport.avg_incorrect_elements().unwrap_or(0.0);

        assert!(
            z_avg < 40.0,
            "ZFP-Rate average incorrect elements {z_avg} should stay near one block"
        );
        assert!(s_avg > z_avg, "SZ propagation ({s_avg}) should exceed ZFP-Rate ({z_avg})");
    }

    #[test]
    fn zfp_acc_never_raises_and_mostly_completes() {
        // §4.2: 100% of ZFP trials Completed.
        let dims = [24usize, 24];
        let data = smooth(24 * 24);
        let comp = CompressorSpec::ZfpRate(8.0);
        let packed = comp.compress(&Dataset { data: &data, dims: &dims }).unwrap();
        // Skip the stream header (first 16 bytes): the paper injects into
        // compressed *data* held in memory; the tiny header is ARC's to
        // protect separately.
        let bits: Vec<u64> = sample_bits(packed.len() as u64 * 8 - 128, 200, 5)
            .into_iter()
            .map(|b| b + 128)
            .collect();
        let report = run_campaign(&data, &packed, &bits, Some(BoundSpec::Abs(0.05)));
        assert!(
            report.percent(ReturnStatus::Completed) > 95.0,
            "ZFP-Rate completed only {:.1}%",
            report.percent(ReturnStatus::Completed)
        );
    }

    #[test]
    fn metric_stats_and_ranges() {
        let dims = [16usize, 16];
        let data = smooth(256);
        let comp = CompressorSpec::SzAbs(0.01);
        let packed = comp.compress(&Dataset { data: &data, dims: &dims }).unwrap();
        let bits = sample_bits(packed.len() as u64 * 8, 60, 2);
        let report = run_campaign(&data, &packed, &bits, comp.bound_spec());
        let (mean_bw, _sd) = report.metric_stats(|m| m.bandwidth_mb_s);
        assert!(mean_bw >= 0.0);
        if let Some((lo, hi)) = report.percent_incorrect_range() {
            assert!(lo <= hi);
        }
    }
}
