//! The ARC Interface (§5.1): `arc_init` → `arc_encode`/`arc_decode` →
//! `arc_close`, in idiomatic Rust clothing.
//!
//! [`ArcContext::init`] is `arc_init()`: it loads the cached training
//! table, measures any missing configuration × thread points, and leaves
//! the context ready to encode any `&[u8]`. [`ArcContext::encode`] is
//! `arc_encode()` with the three optional constraints;
//! [`ArcContext::decode`] is `arc_decode()`, returning the repaired bytes
//! or raising when damage exceeds the chosen code's ability.
//! [`ArcContext::close`] is `arc_close()`, persisting refreshed throughput
//! estimates. Dropping the context saves too, so forgetting `close` costs
//! nothing but determinism of the save timing.

use std::ops::Range;
use std::path::PathBuf;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use arc_ecc::codec::CorrectionReport;
use arc_ecc::parallel::DEFAULT_CHUNK_SIZE;
use arc_ecc::{EccConfig, EccScheme, ParallelCodec};

use crate::constraints::EncodeRequest;
use crate::container::{self, Unpacked};
use crate::error::ArcError;
use crate::extension::{builtin_scheme, resolve_scheme, ExtensionRegistry};
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
    /// Chunk granularity for the parallel codecs.
    pub chunk_size: usize,
}

impl Default for ArcOptions {
    fn default() -> Self {
        ArcOptions {
            max_threads: ANY_THREADS,
            cache_path: default_cache_path(),
            training: TrainingOptions::default(),
            chunk_size: DEFAULT_CHUNK_SIZE,
        }
    }
}

/// Default cache location: `$ARC_CACHE_DIR/training.tsv`, else
/// `~/.cache/arc-rs/training.tsv` ("ARC checks its installation directory
/// for a cache of previously saved configurations", §5.1).
pub fn default_cache_path() -> Option<PathBuf> {
    if let Ok(dir) = std::env::var("ARC_CACHE_DIR") {
        return Some(PathBuf::from(dir).join("training.tsv"));
    }
    std::env::var_os("HOME")
        .map(|home| PathBuf::from(home).join(".cache").join("arc-rs").join("training.tsv"))
}

/// What every whole-container decode — [`ArcContext::decode`], the engine
/// and registry entry points, [`crate::stream::StreamDecoder::finish`] —
/// reports alongside the repaired data.
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
    chunk_size: usize,
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
            .field("chunk_size", &self.chunk_size)
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
            chunk_size: options.chunk_size,
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
    /// The container comes from the v1 writer's single allocation
    /// (`container::mono_frame`); the ECC pass into it is timed on its
    /// own so the throughput fed back into the training table measures what
    /// training itself measures.
    pub fn encode_with(
        &self,
        data: &[u8],
        config: EccConfig,
        threads: usize,
    ) -> Result<Vec<u8>, ArcError> {
        let threads = self.capped(threads);
        let (scheme_id, scheme) = builtin_scheme(config);
        let codec = ParallelCodec::with_chunk_size(scheme, threads, self.chunk_size)?;
        let (mut out, hlen) = container::mono_frame(data, &codec, &scheme_id)?;
        let t0 = std::time::Instant::now();
        // arc-lint: bounded(hlen is the header length of the frame mono_frame just allocated)
        codec.encode_into(data, &mut out[hlen..]);
        let seconds = t0.elapsed().as_secs_f64();
        // Fold the observed throughput back into the table so estimates
        // stay current (§5.1: arc_close "update[s] all cached
        // configurations with up-to-date versions gathered during normal
        // ARC operations"). Skip degenerate timings.
        if seconds > 1e-4 && !data.is_empty() {
            let mbs = data.len() as f64 / 1e6 / seconds;
            let dec = self.table().get(&config, threads).map(|m| m.decode_mb_s);
            if let Some(dec) = dec {
                self.table_mut().record(&config, threads, mbs, dec);
            }
        }
        Ok(out)
    }

    /// Engine-level sharded encode with an explicit configuration, thread
    /// count, and shard size, producing a v2 container that supports random
    /// access via [`crate::reader::ArcReader`]. `threads` follows the same
    /// cap rules as [`ArcContext::encode_with`].
    pub fn encode_sharded_with(
        &self,
        data: &[u8],
        config: EccConfig,
        threads: usize,
        shard_size: usize,
    ) -> Result<Vec<u8>, ArcError> {
        let threads = self.capped(threads);
        stream::encode_oneshot(data, builtin_scheme(config), threads, self.chunk_size, shard_size)
    }

    /// `arc_decode()`: verify, repair if needed, and return the original
    /// byte array — or raise when the damage is uncorrectable (Fig 7b).
    pub fn decode(&self, bytes: &[u8]) -> Result<(Vec<u8>, ArcDecodeReport), ArcError> {
        decode_with_threads(bytes, self.max_threads)
    }

    /// Zero-copy `arc_decode()`: repair the container's payload where it
    /// lies inside `bytes` and return the range holding the original data.
    /// See [`decode_in_place_with_threads`].
    pub fn decode_in_place(
        &self,
        bytes: &mut [u8],
    ) -> Result<(Range<usize>, ArcDecodeReport), ArcError> {
        decode_in_place_with_threads(bytes, self.max_threads)
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

/// A chunk-parallel codec over a resolved scheme — the only codec type the
/// container paths run.
pub(crate) type Codec = ParallelCodec<Arc<dyn EccScheme>>;

/// The front half every whole-container reader shares: recover header and
/// index, resolve the scheme id (against `registry` for `x:` ids), bound the
/// declared data length, and build the codec the header describes.
pub(crate) fn open_container<'a>(
    bytes: &'a [u8],
    threads: usize,
    registry: Option<&ExtensionRegistry>,
) -> Result<(Unpacked<'a>, Codec), ArcError> {
    let unpacked = container::unpack(bytes)?;
    let meta = &unpacked.meta;
    let scheme = resolve_scheme(&meta.scheme_id, registry)?;
    // The original data is a subset of the ECC-encoded payload; a corrupt
    // data_len that slipped past the header codeword must not reach the
    // codec's length arithmetic.
    if meta.data_len > unpacked.payload.len() {
        return Err(ArcError::Corrupted(format!(
            "declared data length {} exceeds payload length {}",
            meta.data_len,
            unpacked.payload.len()
        )));
    }
    let codec = ParallelCodec::with_chunk_size(scheme, threads, meta.chunk_size)?;
    Ok((unpacked, codec))
}

/// Container bytes as a one-shot decode entry point received them.
pub(crate) enum Input<'a> {
    /// Leave the container untouched; the repaired data comes back in a
    /// fresh buffer, each payload byte copied exactly once.
    Borrowed(&'a [u8]),
    /// Repair the payload where it lies; the data ends up contiguous right
    /// after the header.
    InPlace(&'a mut [u8]),
}

/// Bring payload bytes `src` — one shard's `data ‖ parity`, or a whole v1
/// payload — to offset `at` of the work area and hand them out for repair.
/// With a separate `payload` they are copied in; without one the work area
/// *is* the payload and they move left over spent parity (`at ≤ src.start`
/// since decoded ≤ encoded bytes, cumulatively, so a move never touches a
/// shard not yet repaired). `None` when a range falls outside its buffer.
fn stage<'w>(
    work: &'w mut [u8],
    payload: Option<&[u8]>,
    src: Range<usize>,
    at: usize,
) -> Option<&'w mut [u8]> {
    let staged = at..at.checked_add(src.len())?;
    match payload {
        Some(payload) => work.get_mut(staged.clone())?.copy_from_slice(payload.get(src)?),
        None if at > src.start || src.end > work.len() => return None,
        None if at < src.start => work.copy_within(src, at),
        // Already in place (a v1 payload, a first shard): nothing moves.
        None => {}
    }
    work.get_mut(staged)
}

/// The one decode body; every one-shot entry point — borrowing, in-place,
/// registry-aware, batched — wraps it: [`open_container`], then the shard
/// walk (geometry cross-check, ECC repair, per-shard CRC) or the single v1
/// payload, then the end-to-end CRC of the reassembled data, then the report.
///
/// Decoded data is built up from offset 0 of a work area: each shard is
/// staged at the current end of the decoded data, repaired there, and its
/// parity overwritten by the next. For [`Input::InPlace`] the work area is
/// the container's own payload region and the returned range says where the
/// data now lies (the buffer comes back empty); for [`Input::Borrowed`] it
/// is the returned buffer.
pub(crate) fn decode_container(
    input: Input<'_>,
    threads: usize,
    registry: Option<&ExtensionRegistry>,
) -> Result<(Vec<u8>, Range<usize>, ArcDecodeReport), ArcError> {
    let bytes: &[u8] = match &input {
        Input::Borrowed(bytes) => bytes,
        Input::InPlace(bytes) => bytes,
    };
    let (unpacked, codec) = open_container(bytes, threads, registry)?;
    let Unpacked {
        meta,
        payload_offset,
        used_backup_header,
        header_symbols_corrected,
        index,
        index_repair,
        ..
    } = unpacked;
    let outside = |what: &str| ArcError::Corrupted(format!("{what}: region exceeds payload"));
    let mut copy = Vec::new();
    let (work, payload): (&mut [u8], Option<&[u8]>) = match input {
        Input::InPlace(bytes) => {
            (bytes.get_mut(payload_offset..).ok_or_else(|| outside("payload"))?, None)
        }
        Input::Borrowed(bytes) => {
            // The most the work area ever holds: a whole v1 payload, or
            // the decoded data plus the parity of the shard under repair
            // at its end.
            let room = match &index {
                Some(index) => {
                    let parity =
                        |e: &container::ShardEntry| e.encoded_len.saturating_sub(e.decoded_len);
                    meta.data_len + index.entries.iter().map(parity).max().unwrap_or(0)
                }
                None => meta.payload_len,
            };
            // arc-lint: bounded(at most payload_len, which unpack held to the bytes actually present)
            copy = vec![0u8; room.min(meta.payload_len)];
            let payload = bytes.get(payload_offset..).ok_or_else(|| outside("payload"))?;
            (copy.as_mut_slice(), Some(payload))
        }
    };
    let correction = match &index {
        Some(index) => {
            // The index has been RS-verified, but each entry's geometry is
            // still cross-checked against the codec so a forged index can
            // never drive out-of-contract length arithmetic.
            let mut merged = CorrectionReport::default();
            let mut at = 0usize;
            for (i, e) in index.entries.iter().enumerate() {
                check_shard_geometry(&codec, e, i)?;
                let region = stage(work, payload, e.offset..e.offset + e.encoded_len, at)
                    .ok_or_else(|| outside(&format!("shard {i}")))?;
                merged.merge(&codec.decode_in_place(region, e.decoded_len)?);
                let decoded =
                    region.get(..e.decoded_len).ok_or_else(|| outside(&format!("shard {i}")))?;
                verify_shard_crc(&codec, decoded, e.crc, i)?;
                at += e.decoded_len;
            }
            merged
        }
        None => {
            let region =
                stage(work, payload, 0..meta.payload_len, 0).ok_or_else(|| outside("payload"))?;
            codec.decode_in_place(region, meta.data_len)?
        }
    };
    let data = work.get(..meta.data_len).ok_or_else(|| outside("decoded data"))?;
    if container::data_crc(data) != meta.data_crc {
        return Err(ArcError::Ecc(arc_ecc::EccError::Uncorrectable {
            scheme: codec.config().name(),
            detail: "end-to-end CRC mismatch after ECC decode".into(),
        }));
    }
    copy.truncate(meta.data_len);
    if index.is_some() {
        // Hand back the data alone, without the last shard's parity room.
        // A v1 buffer keeps its slack: that decode is held to one
        // payload-sized allocation and nothing else (tests/alloc_count.rs).
        copy.shrink_to_fit();
    }
    let report = ArcDecodeReport {
        config: EccConfig::parse_id(&meta.scheme_id).ok(),
        scheme_id: meta.scheme_id,
        data_len: meta.data_len,
        shards: index.as_ref().map_or(0, container::ShardIndex::shard_count),
        correction,
        used_backup_header,
        header_symbols_corrected,
        index_repair: index.map(|_| index_repair),
    };
    Ok((copy, payload_offset..payload_offset + meta.data_len, report))
}

/// A shard entry whose encoded length disagrees with the scheme's own
/// arithmetic is corrupt (the index is CRC+RS protected, so this is
/// defense in depth, not a hot path).
pub(crate) fn check_shard_geometry(
    codec: &Codec,
    e: &container::ShardEntry,
    shard: usize,
) -> Result<(), ArcError> {
    if e.encoded_len != codec.encoded_len(e.decoded_len) {
        return Err(ArcError::Corrupted(format!(
            "shard {shard}: encoded length {} inconsistent with scheme (expected {})",
            e.encoded_len,
            codec.encoded_len(e.decoded_len)
        )));
    }
    Ok(())
}

/// Per-shard end-to-end check, the sharded analogue of the whole-data CRC.
pub(crate) fn verify_shard_crc(
    codec: &Codec,
    decoded: &[u8],
    expect: u32,
    shard: usize,
) -> Result<(), ArcError> {
    if container::data_crc(decoded) != expect {
        return Err(ArcError::Ecc(arc_ecc::EccError::Uncorrectable {
            scheme: codec.config().name(),
            detail: format!("shard {shard}: end-to-end CRC mismatch after ECC decode"),
        }));
    }
    Ok(())
}

/// Standalone decode (the container is self-describing, so decoding needs
/// no trained context — only a thread budget; [`ANY_THREADS`] uses every
/// core). Extension-tagged containers need
/// [`crate::extension::decode_with_registry`].
///
/// Copies each payload byte out of the borrowed container exactly once; use
/// [`decode_in_place_with_threads`] to skip even that copy when the
/// container buffer is owned and expendable.
pub fn decode_with_threads(
    bytes: &[u8],
    threads: usize,
) -> Result<(Vec<u8>, ArcDecodeReport), ArcError> {
    let (data, _, report) = decode_container(Input::Borrowed(bytes), threads, None)?;
    Ok((data, report))
}

/// Zero-copy standalone decode: verify and repair the container's payload
/// where it lies inside `bytes`, returning the range of `bytes` that holds
/// the repaired original data alongside the usual report.
///
/// On a v1 container nothing is copied or moved — the data bytes are
/// exactly where the encoder scatter-wrote them; v2 shards are compacted
/// left over their predecessors' parity so the data ends up contiguous. On
/// error the payload region's contents are unspecified.
pub fn decode_in_place_with_threads(
    bytes: &mut [u8],
    threads: usize,
) -> Result<(Range<usize>, ArcDecodeReport), ArcError> {
    let (_, range, report) = decode_container(Input::InPlace(bytes), threads, None)?;
    Ok((range, report))
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
            chunk_size: 16 << 10,
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
    fn decode_in_place_returns_data_range() {
        let ctx = ArcContext::init(test_options("inplace")).unwrap();
        let data = payload(30_000);
        let (mut encoded, _) = ctx.encode(&data, &EncodeRequest::default()).unwrap();
        let (range, report) = ctx.decode_in_place(&mut encoded).unwrap();
        assert!(report.correction.is_clean());
        assert_eq!(&encoded[range], &data[..]);
    }

    #[test]
    fn decode_in_place_repairs_damage() {
        let ctx = ArcContext::init(test_options("inplace-repair")).unwrap();
        let data = payload(30_000);
        let mut encoded = ctx.encode_with(&data, EccConfig::secded(true), 2).unwrap();
        let mid = encoded.len() / 2;
        encoded[mid] ^= 0x10;
        let (range, report) = decode_in_place_with_threads(&mut encoded, 2).unwrap();
        assert!(!report.correction.is_clean());
        assert_eq!(&encoded[range], &data[..]);
    }

    #[test]
    fn decode_needs_no_context() {
        let ctx = ArcContext::init(test_options("ctxfree")).unwrap();
        let data = payload(10_000);
        let (encoded, _) = ctx.encode(&data, &EncodeRequest::default()).unwrap();
        drop(ctx);
        let (decoded, _) = decode_with_threads(&encoded, 2).unwrap();
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
