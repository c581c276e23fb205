//! Fault-injection campaigns: many trials, run in parallel, aggregated the
//! way the paper's figures need them.

use arc_ecc::parallel::{par_map, resolve_threads, ANY_THREADS};
use arc_pressio::{BoundSpec, Compressor, RunningStats};

use crate::trial::{ReturnStatus, TrialContext, TrialOutcome};

/// Aggregated results of a campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Every trial outcome, in target-bit order.
    pub trials: Vec<TrialOutcome>,
    /// The control (no-flip) trial for baseline comparison.
    pub control: TrialOutcome,
    /// Total bits in the compressed buffer.
    pub total_bits: u64,
}

impl CampaignReport {
    /// Count of trials per status class.
    pub fn status_counts(&self) -> [(ReturnStatus, usize); 4] {
        let mut counts = [0usize; 4];
        for t in &self.trials {
            if let Some(idx) = ReturnStatus::ALL.iter().position(|s| *s == t.status) {
                counts[idx] += 1;
            }
        }
        [
            (ReturnStatus::ALL[0], counts[0]),
            (ReturnStatus::ALL[1], counts[1]),
            (ReturnStatus::ALL[2], counts[2]),
            (ReturnStatus::ALL[3], counts[3]),
        ]
    }

    /// Percentage of trials in a class.
    pub fn percent(&self, status: ReturnStatus) -> f64 {
        if self.trials.is_empty() {
            return 0.0;
        }
        let c = self.trials.iter().filter(|t| t.status == status).count();
        100.0 * c as f64 / self.trials.len() as f64
    }

    /// Mean percent-incorrect over Completed trials (Fig 3's headline
    /// number — ~10% for the serial modes).
    pub fn avg_percent_incorrect(&self) -> Option<f64> {
        let mut stats = RunningStats::new();
        for t in &self.trials {
            if let Some(m) = &t.metrics {
                if let Some(p) = m.percent_incorrect {
                    stats.push(p);
                }
            }
        }
        (stats.count() > 0).then(|| stats.mean())
    }

    /// Mean incorrect-*elements* over Completed trials (Fig 3d reports
    /// ZFP-Rate in elements, not percent).
    pub fn avg_incorrect_elements(&self) -> Option<f64> {
        let mut stats = RunningStats::new();
        for t in &self.trials {
            if let Some(m) = &t.metrics {
                if let Some(c) = m.incorrect_elements {
                    stats.push(c as f64);
                }
            }
        }
        (stats.count() > 0).then(|| stats.mean())
    }

    /// (mean, std-dev) of a Completed-trial metric selected by `f`.
    pub fn metric_stats(&self, f: impl Fn(&crate::trial::TrialMetrics) -> f64) -> (f64, f64) {
        let mut stats = RunningStats::new();
        for t in &self.trials {
            if let Some(m) = &t.metrics {
                stats.push(f(m));
            }
        }
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

/// Run one trial per bit in `bits`, in parallel over every available
/// hardware thread.
pub fn run_campaign(
    compressor: &dyn Compressor,
    original: &[f32],
    compressed: &[u8],
    bits: &[u64],
) -> CampaignReport {
    run_campaign_with_bound(compressor, original, compressed, bits, compressor.bound_spec())
}

/// As [`run_campaign`] with an explicit evaluation bound (Fig 3d evaluates
/// ZFP-Rate, which has no bound of its own, against the study's ε).
pub fn run_campaign_with_bound(
    compressor: &dyn Compressor,
    original: &[f32],
    compressed: &[u8],
    bits: &[u64],
    eval_bound: Option<BoundSpec>,
) -> CampaignReport {
    let mut ctx = TrialContext::new(compressor, original, compressed);
    ctx.eval_bound = eval_bound;
    let control = ctx.run_control();
    let trials =
        par_map(resolve_threads(ANY_THREADS), &mut bits.to_vec(), |&mut b| ctx.run_flip(b));
    CampaignReport { trials, control, total_bits: compressed.len() as u64 * 8 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::sample_bits;
    use arc_pressio::{CompressorSpec, Dataset};

    fn smooth(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.017).sin() * 3.0 + (i as f32 * 0.003).cos()).collect()
    }

    #[test]
    fn campaign_aggregates_statuses() {
        let dims = [24usize, 24];
        let data = smooth(24 * 24);
        let comp = CompressorSpec::SzAbs(0.01).build();
        let packed = comp.compress(&Dataset { data: &data, dims: &dims }).unwrap();
        let bits = sample_bits(packed.len() as u64 * 8, 120, 11);
        let report = run_campaign(comp.as_ref(), &data, &packed, &bits);
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

        let zfp = CompressorSpec::ZfpRate(8.0).build();
        let zpacked = zfp.compress(&Dataset { data: &data, dims: &dims }).unwrap();
        let zbits = sample_bits(zpacked.len() as u64 * 8, 150, 3);
        let zreport = run_campaign_with_bound(zfp.as_ref(), &data, &zpacked, &zbits, eval);
        let z_avg = zreport.avg_incorrect_elements().unwrap_or(0.0);

        let sz = CompressorSpec::SzAbs(0.05).build();
        let spacked = sz.compress(&Dataset { data: &data, dims: &dims }).unwrap();
        let sbits = sample_bits(spacked.len() as u64 * 8, 150, 3);
        let sreport = run_campaign(sz.as_ref(), &data, &spacked, &sbits);
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
        let comp = CompressorSpec::ZfpRate(8.0).build();
        let packed = comp.compress(&Dataset { data: &data, dims: &dims }).unwrap();
        // Skip the stream header (first 16 bytes): the paper injects into
        // compressed *data* held in memory; the tiny header is ARC's to
        // protect separately.
        let bits: Vec<u64> = sample_bits(packed.len() as u64 * 8 - 128, 200, 5)
            .into_iter()
            .map(|b| b + 128)
            .collect();
        let report = run_campaign_with_bound(
            comp.as_ref(),
            &data,
            &packed,
            &bits,
            Some(BoundSpec::Abs(0.05)),
        );
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
        let comp = CompressorSpec::SzAbs(0.01).build();
        let packed = comp.compress(&Dataset { data: &data, dims: &dims }).unwrap();
        let bits = sample_bits(packed.len() as u64 * 8, 60, 2);
        let report = run_campaign(comp.as_ref(), &data, &packed, &bits);
        let (mean_bw, _sd) = report.metric_stats(|m| m.bandwidth_mb_s);
        assert!(mean_bw >= 0.0);
        if let Some((lo, hi)) = report.percent_incorrect_range() {
            assert!(lo <= hi);
        }
    }
}
