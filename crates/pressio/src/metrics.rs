//! Data-integrity metrics used throughout the paper's evaluation (§4.1.3).
//!
//! * **percent incorrect elements** — values whose error violates the set
//!   bound (Fig 1, Fig 3, Fig 4);
//! * **maximum absolute difference** (Fig 5);
//! * **RMSE / PSNR** per Equations 1–2 (Fig 5);
//! * **compression ratio**.

/// How "incorrect element" is judged against the original data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BoundSpec {
    /// |x̂ − x| ≤ ε.
    Abs(f64),
    /// |x̂ − x| ≤ ε·|x|.
    PwRel(f64),
}

impl BoundSpec {
    /// True when the pair satisfies the bound.
    #[inline]
    pub fn holds(&self, original: f32, decoded: f32) -> bool {
        let (x, y) = (original as f64, decoded as f64);
        if !x.is_finite() || !y.is_finite() {
            // Non-finite originals count as correct only on exact bit match.
            return original.to_bits() == decoded.to_bits();
        }
        match *self {
            BoundSpec::Abs(e) => (y - x).abs() <= e,
            BoundSpec::PwRel(e) => (y - x).abs() <= e * x.abs(),
        }
    }
}

/// Root-mean-squared error (Equation 1).
pub fn rmse(original: &[f32], decoded: &[f32]) -> f64 {
    assert_eq!(original.len(), decoded.len());
    if original.is_empty() {
        return 0.0;
    }
    let sum: f64 = original
        .iter()
        .zip(decoded)
        .map(|(a, b)| {
            let d = *a as f64 - *b as f64;
            d * d
        })
        .sum();
    (sum / original.len() as f64).sqrt()
}

/// Value range (max − min) of the finite values of the original data, 0
/// when it has none; used by PSNR. The range is [`arc_sz::finite_range`],
/// the one an SZ-PSNR bound resolves against.
pub fn value_range(data: &[f32]) -> f64 {
    let (lo, hi) = arc_sz::finite_range(data);
    hi - lo
}

/// Peak signal-to-noise ratio in dB (Equation 2). Returns `f64::INFINITY`
/// for identical data, and `f64::NAN` itself when a NaN enters the error
/// sum.
pub fn psnr(original: &[f32], decoded: &[f32]) -> f64 {
    let e = rmse(original, decoded);
    if e.is_nan() {
        // The NaN's sign and payload depend on which operand the FPU
        // propagated, which differs between optimised and unoptimised
        // builds; one canonical NaN keeps the result reproducible.
        return f64::NAN;
    }
    if e == 0.0 {
        return f64::INFINITY;
    }
    let range = value_range(original);
    if range == 0.0 {
        return f64::NEG_INFINITY;
    }
    20.0 * (range / e).log10()
}

/// Maximum absolute difference between pairs (NaN pairs contribute only if
/// exactly one side is NaN, in which case the result is infinite).
pub fn max_abs_diff(original: &[f32], decoded: &[f32]) -> f64 {
    assert_eq!(original.len(), decoded.len());
    let mut m = 0.0f64;
    for (a, b) in original.iter().zip(decoded) {
        if a.is_nan() && b.is_nan() {
            continue;
        }
        let d = (*a as f64 - *b as f64).abs();
        if d.is_nan() {
            return f64::INFINITY;
        }
        m = m.max(d);
    }
    m
}

/// Count of elements violating the bound.
pub fn incorrect_elements(original: &[f32], decoded: &[f32], bound: BoundSpec) -> usize {
    assert_eq!(original.len(), decoded.len());
    original.iter().zip(decoded).filter(|(a, b)| !bound.holds(**a, **b)).count()
}

/// Percentage (0–100) of elements violating the bound.
pub fn percent_incorrect(original: &[f32], decoded: &[f32], bound: BoundSpec) -> f64 {
    if original.is_empty() {
        return 0.0;
    }
    100.0 * incorrect_elements(original, decoded, bound) as f64 / original.len() as f64
}

/// Compression ratio of f32 data against its compressed size.
pub fn compression_ratio(elements: usize, compressed_len: usize) -> f64 {
    if compressed_len == 0 {
        return f64::INFINITY;
    }
    (elements * 4) as f64 / compressed_len as f64
}

/// Simple running mean/standard-deviation accumulator for trial aggregation
/// (Fig 5 reports averages and variances across thousands of trials).
#[derive(Debug, Clone, Copy, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
}

impl RunningStats {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an observation (Welford's algorithm).
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return; // infinities tracked separately by callers if needed
        }
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of finite observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean of observations (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population standard deviation (0 when fewer than two observations).
    pub fn std_dev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / self.n as f64).sqrt()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmse_and_psnr_basics() {
        let a = [0.0f32, 1.0, 2.0, 3.0];
        assert_eq!(rmse(&a, &a), 0.0);
        assert_eq!(psnr(&a, &a), f64::INFINITY);
        let b = [0.5f32, 1.5, 2.5, 3.5];
        assert!((rmse(&a, &b) - 0.5).abs() < 1e-12);
        // PSNR = 20·log10(3 / 0.5) ≈ 15.563
        assert!((psnr(&a, &b) - 20.0 * (6.0f64).log10()).abs() < 1e-9);
    }

    #[test]
    fn psnr_of_constant_data_is_degenerate() {
        let a = [5.0f32; 8];
        let b = [5.1f32; 8];
        assert_eq!(psnr(&a, &b), f64::NEG_INFINITY);
    }

    #[test]
    fn psnr_of_a_nan_decode_is_the_canonical_nan() {
        let a = [0.0f32, 1.0, f32::INFINITY];
        for b in [[f32::NAN, 1.0, 2.0], [-f32::NAN, 1.0, 2.0], [0.0, 1.0, f32::INFINITY]] {
            assert_eq!(psnr(&a, &b).to_bits(), f64::NAN.to_bits(), "{b:?}");
        }
    }

    #[test]
    fn max_abs_diff_handles_nan() {
        let a = [1.0f32, f32::NAN, 3.0];
        let b = [1.0f32, f32::NAN, 4.5];
        assert!((max_abs_diff(&a, &b) - 1.5).abs() < 1e-12);
        let c = [1.0f32, 2.0, 3.0];
        assert_eq!(max_abs_diff(&a, &c), f64::INFINITY);
    }

    #[test]
    fn incorrect_elements_abs_and_rel() {
        let a = [1.0f32, 10.0, 100.0];
        let b = [1.05f32, 10.5, 105.0];
        assert_eq!(incorrect_elements(&a, &b, BoundSpec::Abs(0.1)), 2);
        assert_eq!(incorrect_elements(&a, &b, BoundSpec::PwRel(0.06)), 0);
        assert_eq!(incorrect_elements(&a, &b, BoundSpec::PwRel(0.04)), 3);
        assert!((percent_incorrect(&a, &b, BoundSpec::Abs(0.1)) - 66.6667).abs() < 0.01);
    }

    #[test]
    fn nonfinite_originals_require_bit_equality() {
        let a = [f32::NAN, f32::INFINITY];
        let b = [f32::NAN, f32::INFINITY];
        assert_eq!(incorrect_elements(&a, &b, BoundSpec::Abs(1.0)), 0);
        let c = [0.0f32, 1.0];
        assert_eq!(incorrect_elements(&a, &c, BoundSpec::Abs(1.0)), 2);
    }

    #[test]
    fn compression_ratio_math() {
        assert!((compression_ratio(1000, 400) - 10.0).abs() < 1e-12);
        assert_eq!(compression_ratio(10, 0), f64::INFINITY);
    }

    #[test]
    fn running_stats_matches_naive() {
        let xs = [3.0f64, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut s = RunningStats::new();
        for &x in &xs {
            s.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.std_dev() - var.sqrt()).abs() < 1e-12);
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn running_stats_skips_nonfinite() {
        let mut s = RunningStats::new();
        s.push(1.0);
        s.push(f64::INFINITY);
        s.push(f64::NAN);
        s.push(3.0);
        assert_eq!(s.count(), 2);
        assert!((s.mean() - 2.0).abs() < 1e-12);
    }
}
