//! # arc-bench — evaluation harness
//!
//! One binary per table and figure of the paper's evaluation (see
//! DESIGN.md §4 for the index), plus `ablations` and the `hostile_corpus`
//! sweep. Throughput claims are `arcbench`'s (`BENCHMARK.json`), not this
//! crate's. This library holds the shared plumbing: run-scale flags, table
//! printing, dataset preparation, and scheme-aware *correctable* error
//! injection for the Fig 10 study.

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

use arc_datasets::{Field, SdrDataset};
use arc_ecc::{EccConfig, EccScheme};
use arc_pressio::{Compressor, CompressorSpec, Dataset};

/// How big a run to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunScale {
    /// Seconds-scale smoke run (`--quick`).
    Quick,
    /// Default: minutes-scale, laptop-friendly.
    Standard,
    /// Paper-scale dimensions where feasible (`--full`).
    Full,
}

impl RunScale {
    /// Parse from process arguments (`--quick` / `--full`) or the
    /// `ARC_BENCH_SCALE` environment variable (`quick|standard|full`).
    pub fn from_env() -> RunScale {
        let args: Vec<String> = std::env::args().collect();
        if args.iter().any(|a| a == "--quick") {
            return RunScale::Quick;
        }
        if args.iter().any(|a| a == "--full") {
            return RunScale::Full;
        }
        match std::env::var("ARC_BENCH_SCALE").as_deref() {
            Ok("quick") => RunScale::Quick,
            Ok("full") => RunScale::Full,
            _ => RunScale::Standard,
        }
    }

    /// Scale a trial count.
    pub fn trials(&self, quick: usize, standard: usize, full: usize) -> usize {
        match self {
            RunScale::Quick => quick,
            RunScale::Standard => standard,
            RunScale::Full => full,
        }
    }

    /// Dataset dims for a given dataset at this scale.
    pub fn dims(&self, ds: SdrDataset) -> Vec<usize> {
        match self {
            RunScale::Quick => ds.test_dims(),
            RunScale::Standard => match ds {
                SdrDataset::CesmCldlow => vec![450, 900],
                SdrDataset::IsabelPressure => vec![25, 125, 125],
                SdrDataset::NyxTemperature => vec![96, 96, 96],
            },
            RunScale::Full => ds.paper_dims(),
        }
    }
}

/// Generate a dataset at the run scale with the default harness seed.
pub fn dataset_at(scale: RunScale, ds: SdrDataset) -> Field {
    ds.generate(&scale.dims(ds), 0x5EED)
}

/// The five compressor configurations of the fault study (§4.1.1): ε = 0.1
/// for SZ-ABS, SZ-PWREL and ZFP-ACC, PSNR 90 for SZ-PSNR, rate 8 for
/// ZFP-Rate.
pub fn paper_modes() -> Vec<CompressorSpec> {
    vec![
        CompressorSpec::SzAbs(0.1),
        CompressorSpec::SzPwRel(0.1),
        CompressorSpec::SzPsnr(90.0),
        CompressorSpec::ZfpAcc(0.1),
        CompressorSpec::ZfpRate(8.0),
    ]
}

/// Compress a field under a spec.
///
/// Errors carry the spec and field names so binaries can simply `expect`
/// the result with context intact.
pub fn compress_field(spec: CompressorSpec, field: &Field) -> Result<Vec<u8>, String> {
    spec.compress(&Dataset { data: &field.data, dims: &field.dims })
        .map_err(|e| format!("{} failed on {}: {e}", spec.name(), field.name))
}

/// Render an aligned text table to stdout.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:<w$}  ", c, w = widths.get(i).copied().unwrap_or(8)));
        }
        println!("{}", s.trim_end());
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Format a float compactly for tables.
pub fn fmt(v: f64) -> String {
    if !v.is_finite() {
        return format!("{v}");
    }
    let a = v.abs();
    if a == 0.0 {
        "0".into()
    } else if !(1e-3..1e6).contains(&a) {
        format!("{v:.3e}")
    } else if a >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

/// The four ECC configurations the scalability figures run (Figures 8–10):
/// parity per 8 bytes, Hamming(71,64), SEC-DED(72,64), RS(223,32).
pub fn scaling_schemes() -> Vec<(&'static str, EccConfig)> {
    // The fallible constructors only reject out-of-range parameters; these
    // values are in range, so the `if let` arms always push. The unit test
    // below pins the length at four in case the constructors ever tighten.
    let mut schemes = Vec::with_capacity(4);
    if let Ok(parity) = EccConfig::parity(8) {
        schemes.push(("Parity", parity));
    }
    schemes.push(("Hamming", EccConfig::hamming(true)));
    schemes.push(("SEC-DED", EccConfig::secded(true)));
    if let Ok(rs) = EccConfig::rs(223, 32) {
        schemes.push(("Reed-Solomon", rs));
    }
    schemes
}

/// Inject `count` soft errors into an **encoded** buffer such that the
/// scheme is guaranteed to be able to correct all of them (the Fig 10
/// methodology: "randomly inject the soft errors into the encoded data but
/// also ensure the soft errors are correctable").
///
/// * Hamming / SEC-DED: at most one flipped bit per codeword — flips land
///   in distinct 8-byte blocks of the data region.
/// * Reed-Solomon: flips confined to at most `m/2` devices per chunk (the
///   CRC-erasure decoder tolerates `m`, so this leaves slack).
///
/// Returns the number of flips actually injected (capped by capacity).
pub fn inject_correctable(
    encoded: &mut [u8],
    config: &EccConfig,
    chunk_size: usize,
    data_len: usize,
    count: usize,
    seed: u64,
) -> usize {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    match config {
        EccConfig::Hamming(_) | EccConfig::SecDed(_) => {
            // Distinct 8-byte blocks within the data region.
            let blocks = data_len / 8;
            let n = count.min(blocks);
            let mut chosen = std::collections::HashSet::with_capacity(n * 2);
            while chosen.len() < n {
                chosen.insert(rng.random_range(0..blocks as u64));
            }
            for &b in &chosen {
                let bit = b * 64 + rng.random_range(0..64u64);
                encoded[(bit / 8) as usize] ^= 1 << (bit % 8);
            }
            n
        }
        EccConfig::Rs(rs) => {
            // Spread across chunks; within a chunk damage ≤ m/2 devices.
            let chunks = data_len.div_ceil(chunk_size).max(1);
            let per_chunk_devices = (rs.m / 2).max(1);
            let mut injected = 0usize;
            'outer: for c in 0..chunks {
                let chunk_start = c * chunk_size;
                let chunk_len = chunk_size.min(data_len - chunk_start);
                let device = rs.device_size(chunk_len);
                for d in 0..per_chunk_devices {
                    if injected >= count {
                        break 'outer;
                    }
                    // Pick a device index deterministically spread out.
                    let dev = (d * rs.k / per_chunk_devices) % rs.k;
                    let dev_start = chunk_start + dev * device;
                    let dev_len =
                        device.min(chunk_start + chunk_len).saturating_sub(dev_start).min(device);
                    if dev_len == 0 || dev_start >= data_len {
                        continue;
                    }
                    // Many flips inside one device still cost one erasure.
                    let flips = ((count - injected) / (chunks * per_chunk_devices)).max(1);
                    for _ in 0..flips.min(dev_len * 8) {
                        if injected >= count {
                            break;
                        }
                        let bit =
                            (dev_start as u64) * 8 + rng.random_range(0..(dev_len as u64) * 8);
                        encoded[(bit / 8) as usize] ^= 1 << (bit % 8);
                        injected += 1;
                    }
                }
            }
            injected
        }
        EccConfig::Parity(_) => 0, // detection-only: nothing is correctable
    }
}

/// Probe bytes reused by throughput binaries (CESM-sized by default).
pub fn ecc_probe_bytes(scale: RunScale) -> Vec<u8> {
    let field = dataset_at(scale, SdrDataset::CesmCldlow);
    field.data.iter().flat_map(|x| x.to_le_bytes()).collect()
}

/// Length of the Figs 8–10 probe for `config` on a thread ladder topping
/// out at `max_threads`: at least one bytes-per-thread floor
/// ([`EccScheme::min_bytes_per_thread`]) per thread, so that
/// `effective_workers` equals the thread count in every column and the
/// figure can show scaling at every run scale.
pub fn scaling_probe_len(base_len: usize, config: &EccConfig, max_threads: usize) -> usize {
    base_len.max(max_threads * config.min_bytes_per_thread())
}

/// The Figs 8–10 probe: `base` (the CESM bytes of [`ecc_probe_bytes`])
/// tiled out to [`scaling_probe_len`].
pub fn scaling_probe(base: &[u8], config: &EccConfig, max_threads: usize) -> Vec<u8> {
    let len = scaling_probe_len(base.len(), config, max_threads);
    base.iter().copied().cycle().take(len).collect()
}

/// One cell of a thread column: throughput, and the workers that ran it.
pub fn thread_cell(mb_s: f64, workers: usize) -> String {
    format!("{} ({workers}w)", fmt(mb_s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use arc_ecc::ParallelCodec;

    #[test]
    fn scale_trials_pick_by_variant() {
        assert_eq!(RunScale::Quick.trials(1, 2, 3), 1);
        assert_eq!(RunScale::Standard.trials(1, 2, 3), 2);
        assert_eq!(RunScale::Full.trials(1, 2, 3), 3);
    }

    #[test]
    fn paper_modes_are_the_five() {
        let names: Vec<_> = paper_modes().iter().map(|m| m.family()).collect();
        assert_eq!(names, vec!["SZ-ABS", "SZ-PWREL", "SZ-PSNR", "ZFP-ACC", "ZFP-Rate"]);
    }

    #[test]
    fn correctable_injection_is_actually_correctable() {
        let data: Vec<u8> = (0..256 * 1024).map(|i| (i % 251) as u8).collect();
        let chunk = 64 * 1024;
        for (name, config) in scaling_schemes() {
            if matches!(config, EccConfig::Parity(_)) {
                continue;
            }
            let codec = ParallelCodec::with_chunk_size(config, 2, chunk).unwrap();
            let mut enc = codec.encode(&data);
            let injected = inject_correctable(&mut enc, &config, chunk, data.len(), 500, 7);
            assert!(injected > 0, "{name}");
            let (out, report) = codec
                .decode(&enc, data.len())
                .unwrap_or_else(|e| panic!("{name}: injected errors uncorrectable: {e}"));
            assert_eq!(out, data, "{name}");
            assert!(!report.is_clean(), "{name} should have repaired something");
        }
    }

    /// Every (scheme, thread count) Figs 8–10 run gets the workers it asks
    /// for, whatever the host's core count and the run scale's field size.
    #[test]
    fn scaling_probe_clears_the_floor_in_every_thread_column() {
        let quick_cesm_bytes = 4 * SdrDataset::CesmCldlow.test_dims().iter().product::<usize>();
        for max_threads in [1usize, 2, 6, 40] {
            for (name, config) in scaling_schemes() {
                let len = scaling_probe_len(quick_cesm_bytes, &config, max_threads);
                for t in arc_core::thread_ladder(max_threads) {
                    let codec = ParallelCodec::new(config, t).unwrap();
                    assert_eq!(codec.effective_workers(len), t, "{name} at {t}/{max_threads}");
                }
            }
        }
        assert_eq!(scaling_probe(&[1, 2, 3], &EccConfig::secded(true), 1).len(), 4 << 20);
    }

    #[test]
    fn table_printer_and_fmt() {
        print_table(
            "demo",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(1_234_567.0), "1.235e6");
        assert_eq!(fmt(f64::INFINITY), "inf");
    }

    #[test]
    fn scaling_schemes_are_the_four_paper_methods() {
        let schemes = scaling_schemes();
        assert_eq!(schemes.len(), 4);
        for (_, c) in &schemes {
            assert!(c.storage_overhead() > 0.0 && c.storage_overhead() < 1.0);
        }
    }
}
