//! Order statistics over exact samples, and the geometric mean used to
//! fold per-cell numbers into one workload-level number.

/// Five-number summary of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` (the exclusive
/// method) gives them, so `compare` judges spread the way the driver does.
/// One sample is its own quartiles.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "summarize needs at least one sample");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let quartile = |i: usize| {
        if n == 1 {
            return s[0];
        }
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    let median = if n % 2 == 1 { s[n / 2] } else { (s[n / 2 - 1] + s[n / 2]) / 2.0 };
    Summary { n, min: s[0], q1: quartile(1), median, q3: quartile(3), max: s[n - 1] }
}

/// Median; NaN for no samples, which the caller reports as a failed metric.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    summarize(samples).median
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` of the samples at or below it. With fewer than `1/(1-p)`
/// samples this is the maximum.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile needs at least one sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail percentile `n` samples support: the highest one, up to p95, that
/// still has ten samples beyond it, and the median when none has. The slowest
/// of a handful of ops is noise, not a tail; and on a shared two-core box so
/// is p99, which catches the hypervisor's preemptions rather than the code.
pub fn tail_percentile(n: usize) -> f64 {
    if n < 20 {
        return 0.5;
    }
    (1.0 - 10.0 / n as f64).min(0.95)
}

/// Geometric mean: every cell weighs the same, so neither a 10 MiB/s cell
/// nor a 1000 MiB/s one drowns the rest. Empty input gives 0.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// MiB/s for `bytes` moved in `ns` nanoseconds.
pub fn mib_s(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / crate::inputs::MIB as f64 / (ns / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.min, s.q1, s.median, s.q3, s.max), (1.0, 1.0, 2.0, 3.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        let s = summarize(&[7.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (1, 7.0, 7.0, 7.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        // Too few samples for a p99: the maximum.
        assert_eq!(percentile(&[5, 9, 30], 0.99), 30);
        assert_eq!(percentile(&[5, 9, 30], 0.5), 9);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(5), 0.5);
        assert_eq!(tail_percentile(19), 0.5);
        assert_eq!(tail_percentile(20), 0.5);
        assert_eq!(tail_percentile(100), 0.9);
        assert_eq!(tail_percentile(200), 0.95);
        assert_eq!(tail_percentile(24_000), 0.95);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, tail_percentile(v.len())), 90);
    }

    #[test]
    fn geomean_weighs_cells_equally() {
        assert!((geomean(&[10.0, 1000.0]) - 100.0).abs() < 1e-9);
        assert!((geomean(&[4.0, 4.0, 4.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        // Halving one of two cells moves the mean by sqrt(2), whichever it is.
        let a = geomean(&[5.0, 1000.0]) / geomean(&[10.0, 1000.0]);
        let b = geomean(&[10.0, 500.0]) / geomean(&[10.0, 1000.0]);
        assert!((a - b).abs() < 1e-12);
    }
}
