//! Error-bound tuning: find the mode parameter that hits a target
//! compression ratio.
//!
//! §4.4 of the paper adjusts each mode's error bound to reach compression
//! ratios of 50×, 25×, 13×, and 7×. Compression ratio is monotone (noisily)
//! in the bound, so a bisection over `log₁₀(param)` converges in a couple of
//! dozen compress calls.

use crate::compressors::{CompressorSpec, Dataset};

/// Result of a tuning run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TunedBound {
    /// The parameter value found.
    pub param: f64,
    /// The ratio it achieves on the probe data.
    pub achieved_ratio: f64,
}

/// Search for the parameter of `spec` whose compression ratio on `ds` is
/// closest to `target_ratio`. `lo`/`hi` bracket the parameter in its natural
/// units (e.g. 1e-9..1e4 for absolute bounds, 20..110 for PSNR).
///
/// `lo`, `hi` and `target_ratio` are positive, with `lo < hi`.
///
/// Returns the best parameter seen; never fails, but the achieved ratio can
/// be far from the target when the bracket cannot reach it (e.g. ZFP-Rate's
/// ratio is pinned at 32/rate).
pub fn tune_for_ratio(
    spec: CompressorSpec,
    ds: &Dataset<'_>,
    target_ratio: f64,
    lo: f64,
    hi: f64,
    iterations: usize,
) -> TunedBound {
    let ratio_of = |param: f64| -> f64 {
        let c = spec.with_param(param).build();
        match c.compress(ds) {
            Ok(bytes) => crate::metrics::compression_ratio(ds.data.len(), bytes.len()),
            Err(_) => 0.0,
        }
    };
    // Direction: does the ratio increase with the parameter? (True for
    // error bounds, false for PSNR targets and rates.)
    let r_lo = ratio_of(lo);
    let r_hi = ratio_of(hi);
    let increasing = r_hi >= r_lo;
    let (mut llo, mut lhi) = (lo.log10(), hi.log10());
    let mut best = if (r_lo - target_ratio).abs() <= (r_hi - target_ratio).abs() {
        TunedBound { param: lo, achieved_ratio: r_lo }
    } else {
        TunedBound { param: hi, achieved_ratio: r_hi }
    };
    for _ in 0..iterations {
        let mid = 10f64.powf(0.5 * (llo + lhi));
        let r = ratio_of(mid);
        if (r - target_ratio).abs() < (best.achieved_ratio - target_ratio).abs() {
            best = TunedBound { param: mid, achieved_ratio: r };
        }
        let too_high = r > target_ratio;
        if too_high == increasing {
            lhi = mid.log10();
        } else {
            llo = mid.log10();
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe() -> (Vec<f32>, Vec<usize>) {
        let dims = vec![96usize, 96];
        let data: Vec<f32> = (0..dims[0] * dims[1])
            .map(|i| {
                let r = (i / 96) as f32;
                let c = (i % 96) as f32;
                (r * 0.07).sin() * 12.0 + (c * 0.05).cos() * 8.0 + 0.3 * (r * c * 0.001).sin()
            })
            .collect();
        (data, dims)
    }

    #[test]
    fn tunes_sz_abs_to_target_ratio() {
        let (data, dims) = probe();
        let ds = Dataset { data: &data, dims: &dims };
        for target in [25.0, 13.0, 7.0] {
            let t = tune_for_ratio(CompressorSpec::SzAbs(0.1), &ds, target, 1e-8, 1e3, 24);
            assert!(
                (t.achieved_ratio - target).abs() / target < 0.35,
                "target {target}: got {:?}",
                t
            );
        }
    }

    #[test]
    fn tunes_zfp_acc() {
        let (data, dims) = probe();
        let ds = Dataset { data: &data, dims: &dims };
        let t = tune_for_ratio(CompressorSpec::ZfpAcc(0.1), &ds, 10.0, 1e-8, 1e3, 24);
        assert!((t.achieved_ratio - 10.0).abs() < 5.0, "{t:?}");
    }

    #[test]
    fn tunes_decreasing_direction_for_psnr() {
        // Higher PSNR target ⇒ lower ratio: the search must handle the
        // decreasing direction.
        let (data, dims) = probe();
        let ds = Dataset { data: &data, dims: &dims };
        let t = tune_for_ratio(CompressorSpec::SzPsnr(80.0), &ds, 10.0, 20.0, 140.0, 24);
        assert!(t.achieved_ratio > 4.0 && t.achieved_ratio < 40.0, "{t:?}");
    }
}
