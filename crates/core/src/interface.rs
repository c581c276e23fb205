//! The ARC Interface (§5.1): `arc_init` → `arc_encode`/`arc_decode` →
//! `arc_close`, in idiomatic Rust clothing.
//!
//! [`ArcContext::init`] is `arc_init()`: it loads the cached training
//! table, measures any missing configuration × thread points, and leaves
//! the context ready to encode any `&[u8]`. [`ArcContext::encode`] is
//! `arc_encode()` with the three optional constraints, writing a v2
//! container; [`ArcContext::decode`] is `arc_decode()`, returning the repaired bytes
//! or raising when damage exceeds the chosen code's ability.
//! [`ArcContext::close`] is `arc_close()`, persisting refreshed throughput
//! estimates. Dropping the context saves too, so forgetting `close` costs
//! nothing but determinism of the save timing.

use std::path::PathBuf;
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use arc_ecc::bits::copy_prefix;
use arc_ecc::codec::CorrectionReport;
use arc_ecc::EccConfig;

use crate::constraints::EncodeRequest;
use crate::container::{self, Shards, DEFAULT_SHARD_SIZE};
use crate::error::ArcError;
use crate::extension::{builtin_scheme, ExtensionRegistry};
use crate::optimizer::{joint_optimizer, Selection};
use crate::stream;
use crate::training::{train, TrainingOptions, TrainingStats, TrainingTable};

/// Pass as `max_threads` (or any `threads` argument) to let ARC use every
/// available core (`ARC_ANY_THREADS`). Re-exported from
/// [`arc_ecc::parallel`], where the sentinel is resolved exactly once at
/// codec construction.
pub use arc_ecc::parallel::ANY_THREADS;

/// Options for [`ArcContext::init`].
#[derive(Debug, Clone)]
pub struct ArcOptions {
    /// Resource cap on worker threads; [`ANY_THREADS`] removes the cap.
    pub max_threads: usize,
    /// Training-cache location; `None` disables persistence.
    pub cache_path: Option<PathBuf>,
    /// Training probe sizes and configuration space.
    pub training: TrainingOptions,
}

impl Default for ArcOptions {
    fn default() -> Self {
        ArcOptions {
            max_threads: ANY_THREADS,
            cache_path: default_cache_path(),
            training: TrainingOptions::default(),
        }
    }
}

/// Default cache location: `$ARC_CACHE_DIR/training.tsv`, else
/// `~/.cache/arc-rs/training.tsv` ("ARC checks its installation directory
/// for a cache of previously saved configurations", §5.1).
pub(crate) fn default_cache_path() -> Option<PathBuf> {
    if let Ok(dir) = std::env::var("ARC_CACHE_DIR") {
        return Some(PathBuf::from(dir).join("training.tsv"));
    }
    std::env::var_os("HOME")
        .map(|home| PathBuf::from(home).join(".cache").join("arc-rs").join("training.tsv"))
}

/// What every whole-container decode — [`ArcContext::decode`], the engine
/// and registry entry points — reports alongside the repaired data.
#[derive(Debug, Clone, PartialEq)]
pub struct ArcDecodeReport {
    /// Identifier of the scheme that had protected the data.
    pub scheme_id: String,
    /// The built-in configuration, when the id names one (None for custom
    /// extension schemes).
    pub config: Option<EccConfig>,
    /// Original data length reproduced.
    pub data_len: usize,
    /// Shards decoded (0 for monolithic v1 containers).
    pub shards: usize,
    /// Repairs performed on the payload.
    pub correction: CorrectionReport,
    /// True when the primary header copy was unusable.
    pub used_backup_header: bool,
    /// Header bytes the RS codeword repaired.
    pub header_symbols_corrected: usize,
    /// How the shard index was recovered (v2 sharded containers only).
    pub index_repair: Option<container::IndexRepair>,
}

impl ArcDecodeReport {
    /// True when nothing anywhere in the container needed repair: no payload
    /// bit or device, the primary header copy with no symbol corrected, and
    /// (v2) the first index copy with no symbol corrected and no vote.
    pub fn is_clean(&self) -> bool {
        self.correction.is_clean()
            && !self.used_backup_header
            && self.header_symbols_corrected == 0
            && self.index_repair.is_none_or(|r| r == container::IndexRepair::default())
    }
}

/// An initialized ARC instance.
pub struct ArcContext {
    max_threads: usize,
    space: Vec<EccConfig>,
    table: RwLock<TrainingTable>,
    cache_path: Option<PathBuf>,
    training_stats: TrainingStats,
    closed: bool,
}

impl std::fmt::Debug for ArcContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArcContext")
            .field("max_threads", &self.max_threads)
            .field("configs", &self.space.len())
            .field("trained_points", &self.table().len())
            .finish()
    }
}

impl ArcContext {
    /// `arc_init()`: load the cache, train missing configurations, return a
    /// ready context.
    pub fn init(options: ArcOptions) -> Result<ArcContext, ArcError> {
        let max_threads = arc_ecc::parallel::resolve_threads(options.max_threads);
        let mut table = match &options.cache_path {
            Some(p) => TrainingTable::load_or_default(p),
            None => TrainingTable::new(),
        };
        let stats = train(&mut table, max_threads, &options.training)?;
        let ctx = ArcContext {
            max_threads,
            space: options.training.space.clone(),
            table: RwLock::new(table),
            cache_path: options.cache_path,
            training_stats: stats,
            closed: false,
        };
        ctx.save_cache()?;
        Ok(ctx)
    }

    /// The resolved thread cap.
    pub fn max_threads(&self) -> usize {
        self.max_threads
    }

    /// Statistics from this init's training run (Fig 6's axes).
    pub fn training_stats(&self) -> TrainingStats {
        self.training_stats
    }

    /// Run the optimizer without encoding (`arc_joint_optimizer()` and
    /// friends; "the user can ignore these suggestions for any reason").
    pub fn select(&self, request: &EncodeRequest) -> Result<Selection, ArcError> {
        joint_optimizer(&self.table(), &self.space, request, self.max_threads)
    }

    /// `arc_encode()`: choose a configuration under the constraints and
    /// protect `data`, returning the container and the selection made.
    pub fn encode(
        &self,
        data: &[u8],
        request: &EncodeRequest,
    ) -> Result<(Vec<u8>, Selection), ArcError> {
        let selection = self.select(request)?;
        let out = self.encode_with(data, selection.config, selection.threads)?;
        Ok((out, selection))
    }

    /// [`ANY_THREADS`] (0) means "up to the context's thread cap"; explicit
    /// counts are likewise capped at `max_threads`.
    fn capped(&self, threads: usize) -> usize {
        let cap = self.max_threads.max(1);
        if threads == ANY_THREADS {
            cap
        } else {
            threads.min(cap)
        }
    }

    /// Engine-level encode with an explicit configuration and thread count
    /// (§5.2: "the user can ignore these suggestions"); `threads` is capped
    /// at the context's `max_threads`, which [`ANY_THREADS`] (0) selects.
    ///
    /// The container is [`crate::arc_engine_encode_sharded`]'s at 4 MiB
    /// shards; its ECC passes are timed on their own so the throughput fed
    /// back into the training table measures what training itself measures.
    pub fn encode_with(
        &self,
        data: &[u8],
        config: EccConfig,
        threads: usize,
    ) -> Result<Vec<u8>, ArcError> {
        let threads = self.capped(threads);
        let (out, seconds) =
            stream::encode_oneshot(data, builtin_scheme(config), threads, DEFAULT_SHARD_SIZE)?;
        // Fold the observed throughput back into the table so estimates
        // stay current (§5.1: arc_close "update[s] all cached
        // configurations with up-to-date versions gathered during normal
        // ARC operations"). Skip degenerate timings; an empty input has none.
        if seconds > 1e-4 {
            let mbs = data.len() as f64 / 1e6 / seconds;
            let dec = self.table().get(&config, threads).map(|m| m.decode_mb_s);
            if let Some(dec) = dec {
                self.table_mut().record(&config, threads, mbs, dec);
            }
        }
        Ok(out)
    }

    /// `arc_decode()`: verify, repair if needed, and return the original
    /// byte array — or raise when the damage is uncorrectable (Fig 7b).
    pub fn decode(&self, bytes: &[u8]) -> Result<(Vec<u8>, ArcDecodeReport), ArcError> {
        decode_container(bytes, self.max_threads, None)
    }

    // A poisoned lock is recovered, not propagated: the table is a map of
    // independent throughput measurements, valid after any partial update.
    fn table(&self) -> RwLockReadGuard<'_, TrainingTable> {
        self.table.read().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn table_mut(&self) -> RwLockWriteGuard<'_, TrainingTable> {
        self.table.write().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn save_cache(&self) -> Result<(), ArcError> {
        if let Some(path) = &self.cache_path {
            self.table().save(path)?;
        }
        Ok(())
    }

    /// `arc_close()`: persist refreshed estimates and consume the context.
    pub fn close(mut self) -> Result<(), ArcError> {
        self.closed = true;
        self.save_cache()
    }
}

impl Drop for ArcContext {
    fn drop(&mut self) {
        if !self.closed {
            let _ = self.save_cache();
        }
    }
}

/// The one-shot decode body; every whole-container entry point — borrowing,
/// registry-aware, batched, the engine's and Table 1's — wraps it. A driver
/// over [`Shards`]: each shard is copied out of the borrowed container to the
/// current end of the decoded data (each payload byte copied exactly once),
/// repaired and CRC-checked there by the one shard step, and its parity
/// overwritten by the next shard; then the end-to-end CRC, then the report.
pub(crate) fn decode_container(
    bytes: &[u8],
    threads: usize,
    registry: Option<&ExtensionRegistry>,
) -> Result<(Vec<u8>, ArcDecodeReport), ArcError> {
    let (shards, payload) = Shards::open(bytes, threads, registry)?;
    // The most the work area ever holds: the decoded data plus the parity of
    // the shard under repair at its end.
    let parity = |e: &container::ShardEntry| e.encoded_len.saturating_sub(e.decoded_len);
    let room = shards.meta.data_len + shards.entries.iter().map(parity).max().unwrap_or(0);
    // Bounded: at most payload_len, which unpack held to the bytes actually present.
    let mut work = vec![0u8; room.min(shards.meta.payload_len)];
    let mut correction = CorrectionReport::default();
    let mut at = 0usize;
    for (i, e) in shards.entries.iter().enumerate() {
        let stored = Shards::stored(payload, i, e)?;
        let region = work.get_mut(at..at + stored.len()).ok_or_else(|| {
            ArcError::Corrupted(format!("shard {i}: decoded lengths exceed the data length"))
        })?;
        copy_prefix(region, stored);
        correction.merge(&shards.decode_shard(i, e.decoded_len, e.crc, region)?);
        at += e.decoded_len;
    }
    work.truncate(shards.meta.data_len);
    shards.check_whole()?;
    if shards.meta.sharding.is_some() {
        // Hand back the data alone, without the last shard's parity room. A
        // payload whose one shard CRC was the end-to-end check (v1) keeps its
        // slack: that decode is held to one payload-sized allocation and
        // nothing else (tests/alloc_count.rs).
        work.shrink_to_fit();
    }
    Ok((work, shards.report(correction)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::{MemoryConstraint, ResiliencyConstraint, ThroughputConstraint};
    use arc_ecc::EccMethod;

    fn test_options(tag: &str) -> ArcOptions {
        let dir = std::env::temp_dir().join(format!("arc-iface-{}-{}", tag, std::process::id()));
        ArcOptions {
            max_threads: 2,
            cache_path: Some(dir.join("training.tsv")),
            training: TrainingOptions {
                sample_bytes: 32 << 10,
                rs_sample_bytes: 16 << 10,
                space: vec![
                    EccConfig::parity(8).unwrap(),
                    EccConfig::hamming(true),
                    EccConfig::secded(true),
                    EccConfig::rs(32, 8).unwrap(),
                ],
            },
        }
    }

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| ((i * 131) ^ (i >> 3)) as u8).collect()
    }

    #[test]
    fn init_encode_decode_close_lifecycle() {
        let ctx = ArcContext::init(test_options("lifecycle")).unwrap();
        assert!(ctx.training_stats().points_measured > 0);
        let data = payload(100_000);
        let (encoded, selection) = ctx.encode(&data, &EncodeRequest::default()).unwrap();
        assert!(encoded.len() > data.len());
        assert_eq!(selection.config.method(), EccMethod::Rs, "most robust by default");
        let (decoded, report) = ctx.decode(&encoded).unwrap();
        assert_eq!(decoded, data);
        assert!(report.correction.is_clean());
        ctx.close().unwrap();
    }

    #[test]
    fn second_init_reuses_cache() {
        let opts = test_options("cache-reuse");
        let ctx = ArcContext::init(opts.clone()).unwrap();
        let first_points = ctx.training_stats().points_measured;
        assert!(first_points > 0);
        ctx.close().unwrap();
        let ctx2 = ArcContext::init(opts).unwrap();
        assert_eq!(ctx2.training_stats().points_measured, 0, "fully cached");
        ctx2.close().unwrap();
    }

    #[test]
    fn encode_respects_memory_constraint() {
        let ctx = ArcContext::init(test_options("memcap")).unwrap();
        let data = payload(200_000);
        let req = EncodeRequest {
            memory: MemoryConstraint::Fraction(0.15),
            throughput: ThroughputConstraint::Any,
            resiliency: ResiliencyConstraint::Any,
        };
        let (encoded, selection) = ctx.encode(&data, &req).unwrap();
        assert!(selection.overhead <= 0.15);
        // Whole-container overhead stays near the configured rate (header
        // and CRC tables add a small constant).
        let actual = (encoded.len() - data.len()) as f64 / data.len() as f64;
        assert!(actual <= 0.17, "actual container overhead {actual}");
    }

    #[test]
    fn corrupted_container_is_repaired_end_to_end() {
        let ctx = ArcContext::init(test_options("repair")).unwrap();
        let data = payload(50_000);
        let req = EncodeRequest {
            memory: MemoryConstraint::Any,
            throughput: ThroughputConstraint::Any,
            resiliency: ResiliencyConstraint::ErrorsPerMb(1.0),
        };
        let (mut encoded, _) = ctx.encode(&data, &req).unwrap();
        // A scattered handful of single-bit soft errors.
        for bit in [999u64, 40_001, 200_003, 399_990] {
            let idx = (bit / 8) as usize % encoded.len();
            encoded[idx] ^= 1 << (bit % 8);
        }
        let (decoded, report) = ctx.decode(&encoded).unwrap();
        assert_eq!(decoded, data);
        assert!(!report.correction.is_clean());
    }

    #[test]
    fn detection_only_scheme_raises_on_damage() {
        let ctx = ArcContext::init(test_options("raise")).unwrap();
        let data = payload(20_000);
        let encoded = ctx.encode_with(&data, EccConfig::parity(8).unwrap(), 1).unwrap();
        let mut bad = encoded.clone();
        let target = bad.len() / 2;
        bad[target] ^= 0x01;
        match ctx.decode(&bad) {
            Err(ArcError::Ecc(_)) | Err(ArcError::Corrupted(_)) => {}
            other => panic!("expected raised error, got {other:?}"),
        }
    }

    #[test]
    fn decode_needs_no_context() {
        let ctx = ArcContext::init(test_options("ctxfree")).unwrap();
        let data = payload(10_000);
        let (encoded, _) = ctx.encode(&data, &EncodeRequest::default()).unwrap();
        drop(ctx);
        let (decoded, _) = crate::engine::arc_engine_decode(&encoded, 2).unwrap();
        assert_eq!(decoded, data);
    }

    #[test]
    fn empty_input_round_trips() {
        let ctx = ArcContext::init(test_options("empty")).unwrap();
        let (encoded, _) = ctx.encode(&[], &EncodeRequest::default()).unwrap();
        let (decoded, _) = ctx.decode(&encoded).unwrap();
        assert!(decoded.is_empty());
    }

    #[test]
    fn encode_with_is_the_one_shot_v2_writer() {
        let ctx = ArcContext::init(test_options("one-writer")).unwrap();
        let shard = 4 << 20;
        for config in [EccConfig::secded(true), EccConfig::rs(32, 8).unwrap()] {
            for len in [0, 100_000, 2 * shard + 12_345] {
                let data = payload(len);
                for threads in [1, 2] {
                    let sharded =
                        crate::engine::arc_engine_encode_sharded(&data, config, threads, shard)
                            .unwrap();
                    let got = ctx.encode_with(&data, config, threads).unwrap();
                    assert!(got == sharded, "{config} len={len} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn encode_output_serves_range_reads() {
        let ctx = ArcContext::init(test_options("range")).unwrap();
        let data = payload((4 << 20) + 100_000);
        let (encoded, _) = ctx.encode(&data, &EncodeRequest::default()).unwrap();
        let mut reader = crate::reader::ArcReader::open(&encoded, 1).unwrap();
        assert_eq!(reader.shard_count(), 2);
        let (range, _) = reader.decode_range((4 << 20) - 10, 50).unwrap();
        assert_eq!(range, data[(4 << 20) - 10..(4 << 20) + 40]);
    }

    #[test]
    fn encode_with_feeds_back_one_sample() {
        let ctx = ArcContext::init(test_options("feedback")).unwrap();
        let config = EccConfig::secded(true);
        let samples = || ctx.table().get(&config, 2).unwrap().samples;
        let before = samples();
        ctx.encode_with(&payload(4 << 20), config, 2).unwrap();
        assert_eq!(samples(), before + 1);
    }

    #[test]
    fn four_line_integration_matches_algorithm_1() {
        // Algorithm 1's shape: init → encode → decode → close.
        let data = payload(4_096);
        let ctx = ArcContext::init(test_options("algo1")).unwrap(); // arc_init
        let (encoded, _) = ctx.encode(&data, &EncodeRequest::default()).unwrap(); // arc_encode
        let (decoded, _) = ctx.decode(&encoded).unwrap(); // arc_decode
        ctx.close().unwrap(); // arc_close
        assert_eq!(decoded, data);
    }
}
