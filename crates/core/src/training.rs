//! ARC's configuration training phase (§5.1).
//!
//! At `arc_init()` ARC measures the encode and decode throughput of every
//! ECC configuration at an increasing ladder of thread counts, then caches
//! the results on disk. The cache is consulted first on later runs; only
//! missing (configuration, threads) pairs are re-measured, so "ARC's
//! training phase represents a decreasing amount of ARC's total uptime as
//! it is used more on a system". `arc_close()` writes refreshed numbers
//! back (§5.1's `arc_save()`).

use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::path::Path;

use arc_ecc::parallel::{timed_decode, timed_encode};
use arc_ecc::{EccConfig, ParallelCodec};

use crate::error::ArcError;

/// One measured point: a configuration at a thread count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Encoding throughput in MB/s.
    pub encode_mb_s: f64,
    /// Error-free decoding throughput in MB/s.
    pub decode_mb_s: f64,
    /// Number of runs folded into this measurement.
    pub samples: u32,
}

impl Measurement {
    /// Fold a new observation in (running average, §5.1's cache refresh).
    pub fn merge(&mut self, encode_mb_s: f64, decode_mb_s: f64) {
        let n = self.samples as f64;
        self.encode_mb_s = (self.encode_mb_s * n + encode_mb_s) / (n + 1.0);
        self.decode_mb_s = (self.decode_mb_s * n + decode_mb_s) / (n + 1.0);
        self.samples += 1;
    }
}

/// The trained throughput table: (configuration id, threads) → measurement.
#[derive(Debug, Clone, Default)]
pub struct TrainingTable {
    entries: BTreeMap<(String, usize), Measurement>,
}

/// Cache file header line. The version is part of the cost-model contract:
/// v2 coincides with the GFNI / slice-by-16-CRC ECC kernels
/// (DESIGN.md §13), whose throughput differs from v1-era measurements by
/// integer factors — loading a v1 cache would feed the §4 optimizer a stale
/// cost model, so caches with any other version line are discarded and the
/// trainer re-measures. v3 coincides with the carry-less-multiply CRC-32
/// fold kernels and device-RS shard CRCs combined from the device CRCs
/// (DESIGN.md §22): every device-RS throughput moved by an integer factor
/// again.
const CACHE_HEADER: &str = "# arc training cache v3";

/// Prefix every versioned cache header starts with.
const CACHE_HEADER_PREFIX: &str = "# arc training cache v";

impl TrainingTable {
    /// Empty table.
    pub fn new() -> TrainingTable {
        TrainingTable::default()
    }

    /// Number of measured points.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been measured.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookup a measurement.
    pub fn get(&self, config: &EccConfig, threads: usize) -> Option<Measurement> {
        self.entries.get(&(config.id(), threads)).copied()
    }

    /// Record (or merge) an observation.
    pub fn record(
        &mut self,
        config: &EccConfig,
        threads: usize,
        encode_mb_s: f64,
        decode_mb_s: f64,
    ) {
        self.entries
            .entry((config.id(), threads))
            .and_modify(|m| m.merge(encode_mb_s, decode_mb_s))
            .or_insert(Measurement { encode_mb_s, decode_mb_s, samples: 1 });
    }

    /// Thread counts measured for a configuration, ascending.
    pub fn thread_counts(&self, config: &EccConfig) -> Vec<usize> {
        let id = config.id();
        self.entries.keys().filter(|(cid, _)| *cid == id).map(|(_, t)| *t).collect()
    }

    /// The (configuration, threads) pairs still missing for a full grid.
    pub fn missing(&self, space: &[EccConfig], ladder: &[usize]) -> Vec<(EccConfig, usize)> {
        let mut out = Vec::new();
        for cfg in space {
            for &t in ladder {
                if self.get(cfg, t).is_none() {
                    out.push((*cfg, t));
                }
            }
        }
        out
    }

    /// Serialize to the on-disk cache format (plain text, one line per
    /// point; a resilience library keeps its own metadata greppable).
    pub fn save(&self, path: &Path) -> Result<(), ArcError> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)
                .map_err(|e| ArcError::Io(format!("create {parent:?}: {e}")))?;
        }
        let mut f = std::io::BufWriter::new(
            std::fs::File::create(path)
                .map_err(|e| ArcError::Io(format!("create {path:?}: {e}")))?,
        );
        writeln!(f, "{CACHE_HEADER}").map_err(|e| ArcError::Io(e.to_string()))?;
        for ((id, threads), m) in &self.entries {
            writeln!(
                f,
                "{id}\t{threads}\t{:.6}\t{:.6}\t{}",
                m.encode_mb_s, m.decode_mb_s, m.samples
            )
            .map_err(|e| ArcError::Io(e.to_string()))?;
        }
        Ok(())
    }

    /// Load a cache file, tolerating (and skipping) corrupt lines — the
    /// cache itself lives on the same failure-prone storage ARC protects.
    pub fn load(path: &Path) -> Result<TrainingTable, ArcError> {
        let f =
            std::fs::File::open(path).map_err(|e| ArcError::Io(format!("open {path:?}: {e}")))?;
        let reader = std::io::BufReader::new(f);
        let mut table = TrainingTable::new();
        for line in reader.lines() {
            let line = match line {
                Ok(l) => l,
                Err(_) => continue,
            };
            // A version header other than the current one means the file was
            // measured against older kernels: drop everything read so far
            // and ignore the rest — the caller re-trains from scratch.
            if line.starts_with(CACHE_HEADER_PREFIX) && line.trim_end() != CACHE_HEADER {
                return Ok(TrainingTable::new());
            }
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let mut parts = line.split('\t');
            let (Some(id), Some(t), Some(enc), Some(dec), Some(n)) =
                (parts.next(), parts.next(), parts.next(), parts.next(), parts.next())
            else {
                continue;
            };
            let Ok(config) = EccConfig::parse_id(id) else { continue };
            let (Ok(t), Ok(enc), Ok(dec), Ok(n)) =
                (t.parse::<usize>(), enc.parse::<f64>(), dec.parse::<f64>(), n.parse::<u32>())
            else {
                continue;
            };
            if !enc.is_finite() || !dec.is_finite() || enc < 0.0 || dec < 0.0 || t == 0 {
                continue;
            }
            table.entries.insert(
                (config.id(), t),
                Measurement { encode_mb_s: enc, decode_mb_s: dec, samples: n.max(1) },
            );
        }
        Ok(table)
    }

    /// Load if the file exists, otherwise an empty table.
    pub fn load_or_default(path: &Path) -> TrainingTable {
        if path.exists() {
            TrainingTable::load(path).unwrap_or_default()
        } else {
            TrainingTable::new()
        }
    }
}

/// The thread ladder ARC trains: powers of two up to and including the
/// maximum (§5.1 "an increasing number of threads up to the maximum").
pub fn thread_ladder(max_threads: usize) -> Vec<usize> {
    let max = max_threads.max(1);
    let mut ladder = Vec::new();
    let mut t = 1usize;
    while t < max {
        ladder.push(t);
        t *= 2;
    }
    ladder.push(max);
    ladder
}

/// Tuning for the training phase.
#[derive(Debug, Clone)]
pub struct TrainingOptions {
    /// Probe buffer size for parity/Hamming/SEC-DED.
    pub sample_bytes: usize,
    /// Probe buffer size for Reed-Solomon (its O(m·n) encode makes the
    /// standard probe needlessly slow; throughput is size-invariant).
    pub rs_sample_bytes: usize,
    /// The configuration space to train.
    pub space: Vec<EccConfig>,
}

impl Default for TrainingOptions {
    fn default() -> Self {
        TrainingOptions {
            sample_bytes: 4 << 20,
            rs_sample_bytes: 1 << 20,
            space: EccConfig::standard_space(),
        }
    }
}

/// Summary of one training run (Fig 6's axes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingStats {
    /// (configuration, threads) points measured in this run.
    pub points_measured: usize,
    /// Configurations now fully trained.
    pub configs_trained: usize,
    /// Wall-clock seconds spent training.
    pub seconds: f64,
}

/// Synthetic probe buffer: mildly compressible byte noise, deterministic.
pub fn probe_buffer(len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| {
            let x = (i as u64).wrapping_mul(0x9E3779B97F4A7C15);
            ((x >> 29) as u8) ^ ((i / 64) as u8)
        })
        .collect()
}

/// Train every missing point in the grid, merging into `table`.
pub fn train(
    table: &mut TrainingTable,
    max_threads: usize,
    opts: &TrainingOptions,
) -> Result<TrainingStats, ArcError> {
    let ladder = thread_ladder(max_threads);
    let missing = table.missing(&opts.space, &ladder);
    let t0 = std::time::Instant::now();
    let big = probe_buffer(opts.sample_bytes);
    let small = probe_buffer(opts.rs_sample_bytes);
    for (config, threads) in &missing {
        let data: &[u8] = if matches!(config, EccConfig::Rs(_)) { &small } else { &big };
        let codec = ParallelCodec::new(*config, *threads).map_err(ArcError::Ecc)?;
        let (encoded, enc_sample) = timed_encode(&codec, data);
        let (_, _, dec_sample) =
            timed_decode(&codec, &encoded, data.len()).map_err(ArcError::Ecc)?;
        table.record(config, *threads, enc_sample.mb_per_s(), dec_sample.mb_per_s());
    }
    Ok(TrainingStats {
        points_measured: missing.len(),
        configs_trained: opts.space.len(),
        seconds: t0.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> TrainingOptions {
        TrainingOptions {
            sample_bytes: 32 << 10,
            rs_sample_bytes: 16 << 10,
            space: vec![
                EccConfig::parity(8).unwrap(),
                EccConfig::secded(true),
                EccConfig::rs(32, 8).unwrap(),
            ],
        }
    }

    #[test]
    fn ladder_is_powers_of_two_plus_max() {
        assert_eq!(thread_ladder(1), vec![1]);
        assert_eq!(thread_ladder(2), vec![1, 2]);
        assert_eq!(thread_ladder(8), vec![1, 2, 4, 8]);
        assert_eq!(thread_ladder(40), vec![1, 2, 4, 8, 16, 32, 40]);
        assert_eq!(thread_ladder(0), vec![1]);
    }

    #[test]
    fn training_fills_the_grid() {
        let mut table = TrainingTable::new();
        let opts = tiny_opts();
        let stats = train(&mut table, 2, &opts).unwrap();
        assert_eq!(stats.points_measured, 3 * 2);
        assert!(table.missing(&opts.space, &thread_ladder(2)).is_empty());
        for cfg in &opts.space {
            let m = table.get(cfg, 1).unwrap();
            assert!(m.encode_mb_s > 0.0 && m.decode_mb_s > 0.0, "{cfg}");
        }
    }

    #[test]
    fn retraining_only_measures_missing_points() {
        let mut table = TrainingTable::new();
        let opts = tiny_opts();
        train(&mut table, 1, &opts).unwrap();
        // Raising the thread cap trains only the new column.
        let stats = train(&mut table, 2, &opts).unwrap();
        assert_eq!(stats.points_measured, 3);
        let stats = train(&mut table, 2, &opts).unwrap();
        assert_eq!(stats.points_measured, 0, "fully cached run measures nothing");
    }

    #[test]
    fn cache_round_trips_via_disk() {
        let mut table = TrainingTable::new();
        let opts = tiny_opts();
        train(&mut table, 2, &opts).unwrap();
        let dir = std::env::temp_dir().join(format!("arc-cache-test-{}", std::process::id()));
        let path = dir.join("training.tsv");
        table.save(&path).unwrap();
        let loaded = TrainingTable::load(&path).unwrap();
        assert_eq!(loaded.len(), table.len());
        for cfg in &opts.space {
            assert_eq!(loaded.get(cfg, 2).unwrap().samples, table.get(cfg, 2).unwrap().samples);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_cache_lines_are_skipped() {
        let dir = std::env::temp_dir().join(format!("arc-cache-corrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("training.tsv");
        std::fs::write(
            &path,
            "# arc training cache v3\n\
             secded:64\t4\t100.0\t200.0\t3\n\
             garbage line without tabs\n\
             rs:999:999\t2\t1.0\t1.0\t1\n\
             parity:8\tNaN\t5.0\t5.0\t1\n\
             parity:8\t2\tinf\t5.0\t1\n\
             hamming:64\t2\t50.0\t60.0\t2\n",
        )
        .unwrap();
        let table = TrainingTable::load(&path).unwrap();
        assert_eq!(table.len(), 2, "only the two valid lines survive");
        assert!(table.get(&EccConfig::secded(true), 4).is_some());
        assert!(table.get(&EccConfig::hamming(true), 2).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_cache_version_is_discarded() {
        let dir = std::env::temp_dir().join(format!("arc-cache-stale-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("training.tsv");
        // A v2-era cache measured the slice-by-16 CRC; its numbers would
        // poison the optimizer's cost model, so nothing loads.
        std::fs::write(
            &path,
            "# arc training cache v2\n\
             secded:64\t4\t100.0\t200.0\t3\n\
             hamming:64\t2\t50.0\t60.0\t2\n",
        )
        .unwrap();
        let table = TrainingTable::load(&path).unwrap();
        assert!(table.is_empty(), "v2 cache must be discarded, got {} entries", table.len());
        // Saving writes the current version, which round-trips.
        let mut fresh = TrainingTable::new();
        fresh.record(&EccConfig::secded(true), 4, 100.0, 200.0);
        fresh.save(&path).unwrap();
        let header = std::fs::read_to_string(&path).unwrap();
        assert!(header.starts_with(CACHE_HEADER));
        assert_eq!(TrainingTable::load(&path).unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_averages_observations() {
        let mut m = Measurement { encode_mb_s: 100.0, decode_mb_s: 200.0, samples: 1 };
        m.merge(200.0, 400.0);
        assert_eq!(m.samples, 2);
        assert!((m.encode_mb_s - 150.0).abs() < 1e-12);
        assert!((m.decode_mb_s - 300.0).abs() < 1e-12);
    }

    #[test]
    fn load_or_default_handles_missing_file() {
        let table = TrainingTable::load_or_default(Path::new("/definitely/not/here.tsv"));
        assert!(table.is_empty());
    }
}
