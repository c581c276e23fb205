//! Chunk-parallel ECC encoding/decoding with explicit thread counts.
//!
//! The paper parallelizes every ECC method with an OpenMP `parallel for`
//! over chunks and caps resource use at the thread count given to
//! `arc_init()` (§5.1). [`par_map`] is the Rust equivalent and the
//! workspace's one way to run work on N threads: a fork-join over
//! `std::thread::scope` with a static contiguous split, no pool and no
//! state between calls. [`ParallelCodec`] splits its input into fixed-size
//! chunks, encodes or verifies each chunk independently through it, and
//! merges the per-chunk correction reports.
//!
//! Encoded layout: `data ‖ parity₀ ‖ parity₁ ‖ …` — chunk parity regions
//! follow the (unmodified) data in order. Because every scheme's parity
//! length is a pure function of the chunk length, offsets are computable on
//! both sides without per-chunk headers, keeping overhead at exactly the
//! scheme's own rate.
//!
//! The data path is zero-copy scatter-write: [`ParallelCodec::encode_into`]
//! carves a caller-provided buffer into disjoint `&mut [u8]` regions (one
//! data chunk and one parity region per chunk) and each worker writes its
//! regions in place via [`EccScheme::encode_parity_into`] — no per-chunk
//! allocation and no concatenation pass. [`ParallelCodec::encode`] is a thin
//! wrapper that makes exactly one heap allocation for the whole container.
//! On the read side [`ParallelCodec::decode_in_place`] verifies and repairs
//! the payload where it lies; a clean decode copies nothing.

use crate::codec::{CorrectionReport, EccError, EccScheme};
use crate::config::EccConfig;
use crate::crc::crc32_combine;

/// Default chunk size (1 MiB): large enough to amortize dispatch, small
/// enough that a 26 MB CESM buffer spreads across 26+ threads.
pub const DEFAULT_CHUNK_SIZE: usize = 1 << 20;

/// Thread-count sentinel: `0` means "use every available hardware thread".
///
/// Every ARC entry point that takes a `threads: usize` accepts this value;
/// it is resolved exactly once, in [`ParallelCodec::with_chunk_size`], via
/// [`std::thread::available_parallelism`]. Passing an explicit `n >= 1`
/// always means exactly `n` workers.
pub const ANY_THREADS: usize = 0;

/// Resolve a caller-supplied thread count: [`ANY_THREADS`] becomes the
/// machine's available parallelism (or 1 if that cannot be determined).
pub fn resolve_threads(threads: usize) -> usize {
    if threads == ANY_THREADS {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        threads
    }
}

/// Apply `f` to every item on up to `workers` threads; results come back in
/// input order.
///
/// Each worker takes one contiguous run of `items`; the first run executes on
/// the calling thread, so `n` workers cost `n - 1` scoped spawns. One worker
/// (or at most one item) runs in-line with no spawn at all. A panic in `f`
/// propagates to the caller when the scope joins.
pub fn par_map<T, R, F>(workers: usize, items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(&mut T) -> R + Sync,
{
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.iter_mut().map(f).collect();
    }
    let run_len = items.len().div_ceil(workers);
    let mut results: Vec<Option<R>> = Vec::new();
    // arc-lint: bounded(one slot per item of a slice already held in memory)
    results.resize_with(items.len(), || None);
    let fill = |(run, slots): (&mut [T], &mut [Option<R>])| {
        for (item, slot) in run.iter_mut().zip(slots) {
            *slot = Some(f(item));
        }
    };
    let mut runs = items.chunks_mut(run_len).zip(results.chunks_mut(run_len));
    let first = runs.next();
    std::thread::scope(|s| {
        for r in runs {
            s.spawn(|| fill(r));
        }
        if let Some(r) = first {
            fill(r);
        }
    });
    // Every slot is filled: the scope joined every worker, and a worker
    // that panicked has re-raised here already.
    results.into_iter().flatten().collect()
}

/// A chunk-parallel codec for one ECC scheme at a fixed thread count.
///
/// Generic over the scheme so both the built-in [`EccConfig`] space and
/// custom schemes registered through ARC's extension API (boxed
/// `Arc<dyn EccScheme>`) get identical chunking and thread semantics.
#[derive(Debug)]
pub struct ParallelCodec<S: EccScheme = EccConfig> {
    config: S,
    chunk_size: usize,
    threads: usize,
}

impl<S: EccScheme> ParallelCodec<S> {
    /// Create a codec running on `threads` worker threads (1 = in-line
    /// sequential execution, nothing is ever spawned; [`ANY_THREADS`] = all
    /// available hardware threads).
    pub fn new(config: S, threads: usize) -> Result<ParallelCodec<S>, EccError> {
        Self::with_chunk_size(config, threads, DEFAULT_CHUNK_SIZE)
    }

    /// As [`ParallelCodec::new`] with an explicit chunk size.
    ///
    /// This is the single choke point where [`ANY_THREADS`] is resolved to a
    /// concrete worker count; [`ParallelCodec::threads`] always reports the
    /// resolved value.
    pub fn with_chunk_size(
        config: S,
        threads: usize,
        chunk_size: usize,
    ) -> Result<ParallelCodec<S>, EccError> {
        let threads = resolve_threads(threads);
        if chunk_size == 0 {
            return Err(EccError::InvalidConfig("chunk size must be >= 1".into()));
        }
        // Build the lazily-initialized GF lookup tables before any worker
        // touches them: keeps the one-time build out of the timed hot loops
        // and out of the per-chunk allocation budget.
        crate::gf256::warm_tables();
        Ok(ParallelCodec { config, chunk_size, threads })
    }

    /// The configuration this codec runs.
    pub fn config(&self) -> &S {
        &self.config
    }

    /// Worker threads in use (always ≥ 1; [`ANY_THREADS`] has been resolved).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Chunk granularity in bytes.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// Workers actually worth dispatching for `data_len` input bytes.
    ///
    /// The minimum-bytes-per-thread floor ([`EccScheme::min_bytes_per_thread`])
    /// clamps the configured thread count so each worker gets enough work to
    /// amortize its scoped spawn; small jobs collapse to 1 and run in-line.
    /// This is what fixed the measured 2-thread throughput *regression* for
    /// the fast schemes (see DESIGN.md §13).
    pub fn effective_workers(&self, data_len: usize) -> usize {
        if self.threads <= 1 {
            return 1;
        }
        let floor = self.config.min_bytes_per_thread().max(1);
        self.threads.min(data_len / floor).max(1)
    }

    /// Carve an encoded region — `data ‖ parity₀ ‖ parity₁ ‖ …`, already
    /// checked to be [`ParallelCodec::encoded_len`]`(data_len)` bytes — into
    /// one disjoint `(data chunk, parity region)` pair per chunk.
    fn carve<'a>(
        &'a self,
        encoded: &'a mut [u8],
        data_len: usize,
    ) -> impl Iterator<Item = (&'a mut [u8], &'a mut [u8])> {
        let (data, mut parity_rest) = encoded.split_at_mut(data_len);
        data.chunks_mut(self.chunk_size).map(move |chunk| {
            let (parity, rest) =
                std::mem::take(&mut parity_rest).split_at_mut(self.config.parity_len(chunk.len()));
            parity_rest = rest;
            (chunk, parity)
        })
    }

    /// Total encoded length for `data_len` input bytes.
    pub fn encoded_len(&self, data_len: usize) -> usize {
        data_len + self.total_parity_len(data_len)
    }

    fn total_parity_len(&self, data_len: usize) -> usize {
        let full = data_len / self.chunk_size;
        let tail = data_len % self.chunk_size;
        let mut total = full * self.config.parity_len(self.chunk_size);
        if tail > 0 {
            total += self.config.parity_len(tail);
        }
        total
    }

    /// Scatter-write `data ‖ parity regions` into `out`, which must be
    /// exactly [`ParallelCodec::encoded_len`] bytes. `out` may hold
    /// arbitrary garbage; every byte is overwritten.
    ///
    /// On the sequential path (1 effective worker) this performs no heap
    /// allocation; otherwise workers write their disjoint regions
    /// concurrently and only the job list itself is allocated.
    pub fn encode_into(&self, data: &[u8], out: &mut [u8]) {
        self.encode_many_into(&mut [(data, out)]);
    }

    /// [`ParallelCodec::encode_into`] for every `(data, out)` pair, as one
    /// flat chunk list: the worker count comes from the pairs' *aggregate*
    /// size, so requests individually below the scheme's bytes-per-thread
    /// floor still fill every worker together.
    pub fn encode_many_into(&self, pairs: &mut [(&[u8], &mut [u8])]) {
        let total: usize = pairs.iter().map(|(data, _)| data.len()).sum();
        let jobs = pairs.iter_mut().flat_map(|(data, out)| {
            let expected = self.encoded_len(data.len());
            // arc-lint: allow(decode-no-panic-transitive, encode-side contract check: every caller sizes out with encoded_len, as encode_into requires)
            assert_eq!(out.len(), expected, "encode_into: output buffer size mismatch");
            data.chunks(self.chunk_size).zip(self.carve(out, data.len()))
        });
        let encode_chunk = |src: &[u8], dst: &mut [u8], parity: &mut [u8]| {
            dst.copy_from_slice(src);
            self.config.encode_parity_into(src, parity);
        };
        let workers = self.effective_workers(total);
        if workers > 1 {
            let mut jobs: Vec<_> = jobs.collect();
            par_map(workers, &mut jobs, |(src, (dst, parity))| encode_chunk(src, dst, parity));
        } else {
            jobs.for_each(|(src, (dst, parity))| encode_chunk(src, dst, parity));
        }
    }

    /// Encode `data`, returning `data ‖ parity regions`.
    ///
    /// Makes exactly one heap allocation — the returned container — and
    /// scatter-writes into it via [`ParallelCodec::encode_into`].
    pub fn encode(&self, data: &[u8]) -> Vec<u8> {
        let mut out = vec![0u8; self.encoded_len(data.len())];
        self.encode_into(data, &mut out);
        out
    }

    /// Total encoded length when `data_len` input bytes are split into
    /// independently encoded `shard_size`-byte shards: the sum of
    /// [`ParallelCodec::encoded_len`] over every shard, each shard being
    /// encoded exactly as [`ParallelCodec::encode_into`] would encode it
    /// alone. A `shard_size` of 0 yields 0 (the sharded encode entry points
    /// reject it properly).
    pub fn sharded_encoded_len(&self, data_len: usize, shard_size: usize) -> usize {
        if shard_size == 0 {
            return 0;
        }
        let full = data_len / shard_size;
        let tail = data_len % shard_size;
        let mut total = full * self.encoded_len(shard_size);
        if tail > 0 {
            total += self.encoded_len(tail);
        }
        total
    }

    /// Verify and repair an encoded buffer in place.
    ///
    /// `data_len` is the original input length (persisted by ARC's
    /// container). On success the first `data_len` bytes of `encoded` are
    /// the repaired data; a clean pass leaves the buffer untouched and, on
    /// the sequential path, performs no full-buffer copy and no allocation
    /// for the schemes whose verify paths are allocation-free.
    ///
    /// On error the buffer contents are unspecified (chunks preceding the
    /// failed one may already have been repaired).
    ///
    /// This is also the random-access primitive: handed ONE shard's region
    /// (exactly what [`ParallelCodec::encode_into`] wrote for that shard
    /// alone), the cost is proportional to the shard, never the container.
    pub fn decode_in_place(
        &self,
        encoded: &mut [u8],
        data_len: usize,
    ) -> Result<CorrectionReport, EccError> {
        let expected = self.encoded_len(data_len);
        if encoded.len() != expected {
            return Err(EccError::Malformed {
                detail: format!(
                    "parallel codec: encoded length {} != expected {expected}",
                    encoded.len()
                ),
            });
        }
        let mut jobs = self.carve(encoded, data_len);
        let mut merged = CorrectionReport::default();
        let workers = self.effective_workers(data_len);
        if workers > 1 {
            let mut jobs: Vec<_> = jobs.collect();
            for r in par_map(workers, &mut jobs, |(chunk, parity)| {
                self.config.verify_and_correct(chunk, parity)
            }) {
                merged.merge(&r?);
            }
        } else {
            jobs.try_for_each(|(chunk, parity)| {
                merged.merge(&self.config.verify_and_correct(chunk, parity)?);
                Ok::<(), EccError>(())
            })?;
        }
        Ok(merged)
    }

    /// CRC-32 of the `data_len` data bytes of `encoded`, read from the
    /// checksums its parity stores ([`EccScheme::data_crc`]) and combined
    /// across chunks, without a pass over the data; `None` when the scheme
    /// stores none (the caller hashes the data itself).
    ///
    /// Only meaningful right after [`ParallelCodec::encode_into`] wrote
    /// `encoded` or [`ParallelCodec::decode_in_place`] accepted it: then every
    /// stored checksum matches the data it covers.
    pub fn data_crc(&self, encoded: &[u8], data_len: usize) -> Option<u32> {
        let mut parity = encoded.get(data_len..)?;
        let mut lens =
            (0..data_len).step_by(self.chunk_size).map(|at| self.chunk_size.min(data_len - at));
        lens.try_fold(0, |crc, len| {
            let (chunk, rest) = parity.split_at_checked(self.config.parity_len(len))?;
            parity = rest;
            Some(crc32_combine(crc, self.config.data_crc(len, chunk)?, len))
        })
    }

    /// Decode an encoded buffer, verifying and repairing every chunk.
    ///
    /// Borrowing convenience wrapper over
    /// [`ParallelCodec::decode_in_place`]: copies `encoded` once into the
    /// returned buffer, repairs it in place, and truncates to the data.
    /// Returns the repaired data and a merged report, or the first
    /// uncorrectable chunk's error.
    pub fn decode(
        &self,
        encoded: &[u8],
        data_len: usize,
    ) -> Result<(Vec<u8>, CorrectionReport), EccError> {
        let mut buf = encoded.to_vec();
        let report = self.decode_in_place(&mut buf, data_len)?;
        buf.truncate(data_len);
        Ok((buf, report))
    }
}

/// Measured throughput of one encode or decode run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputSample {
    /// Input bytes processed.
    pub bytes: usize,
    /// Wall-clock seconds elapsed.
    pub seconds: f64,
}

impl ThroughputSample {
    /// Throughput in MB/s (decimal MB, as the paper reports).
    pub fn mb_per_s(&self) -> f64 {
        if self.seconds <= 0.0 {
            return f64::INFINITY;
        }
        self.bytes as f64 / 1e6 / self.seconds
    }
}

/// Encode while timing; used by ARC's training phase and the Fig 8 harness.
///
/// Times the real single-allocation scatter-write path, so TrainingTable
/// throughput reflects what [`ParallelCodec::encode`] actually does.
pub fn timed_encode<S: EccScheme>(
    codec: &ParallelCodec<S>,
    data: &[u8],
) -> (Vec<u8>, ThroughputSample) {
    let t0 = std::time::Instant::now();
    let out = codec.encode(data);
    let sample = ThroughputSample { bytes: data.len(), seconds: t0.elapsed().as_secs_f64() };
    (out, sample)
}

/// Decode while timing; used by ARC's training phase and the Fig 9 harness.
pub fn timed_decode<S: EccScheme>(
    codec: &ParallelCodec<S>,
    encoded: &[u8],
    data_len: usize,
) -> Result<(Vec<u8>, CorrectionReport, ThroughputSample), EccError> {
    let t0 = std::time::Instant::now();
    let (out, report) = codec.decode(encoded, data_len)?;
    let sample = ThroughputSample { bytes: data_len, seconds: t0.elapsed().as_secs_f64() };
    Ok((out, report, sample))
}

#[cfg(test)]
#[allow(clippy::cast_possible_truncation, reason = "test data")]
mod tests {
    use super::*;
    use crate::bits::flip_bit;

    fn sample(n: usize) -> Vec<u8> {
        (0..n).map(|i| ((i * 31 + i / 7) % 256) as u8).collect()
    }

    #[test]
    fn par_map_visits_every_item_once_in_order() {
        for len in [0usize, 1, 2, 7, 64] {
            for workers in [1usize, 2, 3, 8, len + 5] {
                let mut items: Vec<(usize, u32)> = (0..len).map(|i| (i, 0)).collect();
                let out = par_map(workers, &mut items, |(i, visits)| {
                    *visits += 1;
                    *i * 3
                });
                assert_eq!(out, (0..len).map(|i| i * 3).collect::<Vec<_>>(), "{workers}/{len}");
                assert!(items.iter().all(|&(_, visits)| visits == 1), "{workers}/{len}");
            }
        }
    }

    #[test]
    fn par_map_with_one_worker_stays_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ids = par_map(1, &mut [(); 4], |_| std::thread::current().id());
        assert_eq!(ids, [caller; 4]);
        // More workers: the first run still belongs to the caller, the
        // second to a spawned thread.
        let ids = par_map(2, &mut [(); 4], |_| std::thread::current().id());
        assert_eq!(ids[..2], [caller; 2]);
        assert!(ids[2] != caller && ids[2] == ids[3]);
    }

    #[test]
    #[should_panic(expected = "a scoped thread panicked")]
    fn par_map_propagates_a_worker_panic() {
        // Item 5 of 8 over 4 workers lands on a spawned thread; the scope
        // re-raises its panic on the caller.
        let mut items: Vec<usize> = (0..8).collect();
        par_map(4, &mut items, |&mut i| assert!(i != 5, "item {i} failed"));
    }

    #[test]
    fn rejects_bad_parameters() {
        let cfg = EccConfig::hamming(true);
        assert!(ParallelCodec::with_chunk_size(cfg, 1, 0).is_err());
    }

    #[test]
    fn any_threads_resolves_to_available_parallelism() {
        let cfg = EccConfig::hamming(true);
        let codec = ParallelCodec::new(cfg, ANY_THREADS).unwrap();
        assert!(codec.threads() >= 1);
        let expect = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        assert_eq!(codec.threads(), expect);
        // And the codec actually works at the resolved count.
        let data = sample(10_000);
        let enc = codec.encode(&data);
        let (out, _) = codec.decode(&enc, data.len()).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn encode_into_overwrites_garbage_and_matches_encode() {
        let data = sample(70_000);
        for cfg in
            [EccConfig::parity(4).unwrap(), EccConfig::secded(true), EccConfig::rs(16, 4).unwrap()]
        {
            for threads in [1usize, 4] {
                let codec = ParallelCodec::with_chunk_size(cfg, threads, 16 * 1024).unwrap();
                let reference = codec.encode(&data);
                let mut out = vec![0xA5u8; codec.encoded_len(data.len())];
                codec.encode_into(&data, &mut out);
                assert_eq!(out, reference, "{cfg} threads={threads}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "output buffer size mismatch")]
    fn encode_into_rejects_wrong_buffer_size() {
        let codec = ParallelCodec::new(EccConfig::hamming(false), 1).unwrap();
        let data = sample(100);
        let mut out = vec![0u8; codec.encoded_len(data.len()) - 1];
        codec.encode_into(&data, &mut out);
    }

    #[test]
    fn decode_in_place_repairs_without_moving_data() {
        let cfg = EccConfig::secded(true);
        let codec = ParallelCodec::with_chunk_size(cfg, 2, 8 * 1024).unwrap();
        let data = sample(50_000);
        let mut enc = codec.encode(&data);
        flip_bit(&mut enc, 4242);
        let report = codec.decode_in_place(&mut enc, data.len()).unwrap();
        assert_eq!(report.corrected_bits, 1);
        assert_eq!(&enc[..data.len()], &data[..]);
    }

    #[test]
    fn round_trip_all_schemes_sequential_and_parallel() {
        let configs = [
            EccConfig::parity(8).unwrap(),
            EccConfig::hamming(false),
            EccConfig::hamming(true),
            EccConfig::secded(false),
            EccConfig::secded(true),
            EccConfig::rs(16, 4).unwrap(),
        ];
        let data = sample(300_000);
        for cfg in configs {
            for threads in [1usize, 4] {
                let codec = ParallelCodec::with_chunk_size(cfg, threads, 64 * 1024).unwrap();
                let enc = codec.encode(&data);
                assert_eq!(enc.len(), codec.encoded_len(data.len()));
                let (out, report) = codec.decode(&enc, data.len()).unwrap();
                assert_eq!(out, data, "{cfg} threads={threads}");
                assert!(report.is_clean());
            }
        }
    }

    #[test]
    fn data_crc_comes_from_the_parity_only_where_it_stores_one() {
        let data = sample(2_500_001);
        let crc = crate::crc::crc32(&data);
        for threads in [1, 2] {
            let rs = EccConfig::rs(32, 8).unwrap();
            let codec = ParallelCodec::with_chunk_size(rs, threads, 100_000).unwrap();
            let mut encoded = vec![0u8; codec.encoded_len(data.len())];
            codec.encode_into(&data, &mut encoded);
            assert_eq!(codec.data_crc(&encoded, data.len()), Some(crc), "threads={threads}");
            encoded[123_457] ^= 0x40;
            let report = codec.decode_in_place(&mut encoded, data.len()).unwrap();
            assert_eq!(report.corrected_devices, 1, "threads={threads}");
            assert_eq!(codec.data_crc(&encoded, data.len()), Some(crc), "threads={threads}");
            assert_eq!(codec.data_crc(&encoded[..data.len() - 1], data.len()), None);

            let sec = ParallelCodec::with_chunk_size(EccConfig::secded(true), threads, 100_000);
            let sec = sec.unwrap();
            let mut encoded = vec![0u8; sec.encoded_len(data.len())];
            sec.encode_into(&data, &mut encoded);
            assert_eq!(sec.data_crc(&encoded, data.len()), None, "threads={threads}");
        }
    }

    #[test]
    fn parallel_output_is_identical_to_sequential() {
        let data = sample(500_000);
        for cfg in [EccConfig::secded(true), EccConfig::rs(32, 8).unwrap()] {
            let seq = ParallelCodec::with_chunk_size(cfg, 1, 100_000).unwrap();
            let par = ParallelCodec::with_chunk_size(cfg, 8, 100_000).unwrap();
            assert_eq!(seq.encode(&data), par.encode(&data), "{cfg}");
        }
    }

    #[test]
    fn corrects_one_flip_per_chunk() {
        let cfg = EccConfig::secded(true);
        let codec = ParallelCodec::with_chunk_size(cfg, 4, 10_000).unwrap();
        let data = sample(100_000);
        let mut enc = codec.encode(&data);
        for i in 0..10u64 {
            flip_bit(&mut enc, i * 10_000 * 8 + i * 64);
        }
        let (out, report) = codec.decode(&enc, data.len()).unwrap();
        assert_eq!(out, data);
        assert_eq!(report.corrected_bits, 10);
    }

    #[test]
    fn uncorrectable_chunk_fails_whole_decode() {
        let cfg = EccConfig::parity(8).unwrap();
        let codec = ParallelCodec::with_chunk_size(cfg, 2, 1000).unwrap();
        let data = sample(5000);
        let mut enc = codec.encode(&data);
        flip_bit(&mut enc, 12345);
        assert!(matches!(codec.decode(&enc, data.len()), Err(EccError::Uncorrectable { .. })));
    }

    #[test]
    fn length_mismatch_is_malformed() {
        let cfg = EccConfig::hamming(true);
        let codec = ParallelCodec::new(cfg, 1).unwrap();
        let data = sample(1000);
        let enc = codec.encode(&data);
        assert!(matches!(
            codec.decode(&enc[..enc.len() - 1], data.len()),
            Err(EccError::Malformed { .. })
        ));
    }

    #[test]
    fn rs_chunk_independence_bounds_burst_damage() {
        // A burst confined to one chunk never affects other chunks.
        let cfg = EccConfig::rs(16, 4).unwrap();
        let codec = ParallelCodec::with_chunk_size(cfg, 2, 4096).unwrap();
        let data = sample(16 * 4096);
        let mut enc = codec.encode(&data);
        // Destroy 1/5 of chunk 3's data (within m/k tolerance of that chunk).
        let start = 3 * 4096;
        for b in &mut enc[start..start + 4096 / 5] {
            *b = 0xDD;
        }
        let (out, report) = codec.decode(&enc, data.len()).unwrap();
        assert_eq!(out, data);
        assert!(report.corrected_devices >= 1);
    }

    #[test]
    fn empty_input_round_trips() {
        let codec = ParallelCodec::new(EccConfig::secded(true), 2).unwrap();
        let enc = codec.encode(&[]);
        assert!(enc.is_empty());
        let (out, _) = codec.decode(&enc, 0).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn tail_chunk_smaller_than_chunk_size() {
        let cfg = EccConfig::hamming(false);
        let codec = ParallelCodec::with_chunk_size(cfg, 3, 999).unwrap();
        let data = sample(999 * 4 + 123);
        let enc = codec.encode(&data);
        let (out, _) = codec.decode(&enc, data.len()).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn decode_in_place_repairs_one_shard() {
        let cfg = EccConfig::secded(true);
        let codec = ParallelCodec::with_chunk_size(cfg, 1, 4 * 1024).unwrap();
        let data = sample(40_000);
        let shard_size = 10_000;
        // A sharded payload is each shard's own encoding, back to back.
        let mut enc: Vec<u8> = data.chunks(shard_size).flat_map(|s| codec.encode(s)).collect();
        assert_eq!(enc.len(), codec.sharded_encoded_len(data.len(), shard_size));
        // Corrupt and repair shard 2 only.
        let elen = codec.encoded_len(shard_size);
        let region = &mut enc[2 * elen..3 * elen];
        flip_bit(region, 999);
        let report = codec.decode_in_place(region, shard_size).unwrap();
        assert_eq!(report.corrected_bits, 1);
        assert_eq!(&region[..shard_size], &data[2 * shard_size..3 * shard_size]);
    }

    #[test]
    fn sharded_encoded_len_of_empty_or_unsharded_input_is_zero() {
        let codec = ParallelCodec::new(EccConfig::secded(true), 1).unwrap();
        assert_eq!(codec.sharded_encoded_len(0, 4096), 0);
        assert_eq!(codec.sharded_encoded_len(1000, 0), 0);
    }

    #[test]
    fn effective_workers_respects_min_bytes_floor() {
        // RS floor is 1 MiB/worker; light schemes 4 MiB/worker.
        let rs = ParallelCodec::new(EccConfig::rs(16, 4).unwrap(), 4).unwrap();
        assert_eq!(rs.effective_workers(100_000), 1, "small job collapses to in-line");
        assert_eq!(rs.effective_workers(1 << 20), 1, "exactly one floor's worth");
        assert_eq!(rs.effective_workers(2 << 20), 2);
        assert_eq!(rs.effective_workers(100 << 20), 4, "clamped at configured threads");
        let ham = ParallelCodec::new(EccConfig::hamming(true), 2).unwrap();
        assert_eq!(ham.effective_workers(4 << 20), 1);
        assert_eq!(ham.effective_workers(8 << 20), 2);
        // Sequential codecs are unaffected.
        let seq = ParallelCodec::new(EccConfig::hamming(true), 1).unwrap();
        assert_eq!(seq.effective_workers(100 << 20), 1);
    }

    #[test]
    fn threaded_path_round_trips_above_the_floor() {
        // Large enough that threads are genuinely spawned (3 MiB / 1 MiB
        // floor = 3 workers for RS): the parallel output must match
        // sequential and repairs must still work chunk-locally.
        let cfg = EccConfig::rs(16, 4).unwrap();
        let par = ParallelCodec::with_chunk_size(cfg, 4, 256 * 1024).unwrap();
        assert_eq!(par.effective_workers(3 << 20), 3);
        let seq = ParallelCodec::with_chunk_size(cfg, 1, 256 * 1024).unwrap();
        let data = sample(3 << 20);
        let enc = par.encode(&data);
        assert_eq!(enc, seq.encode(&data));
        let mut bad = enc.clone();
        for b in &mut bad[5000..5000 + 2048] {
            *b = 0xEE;
        }
        let (out, report) = par.decode(&bad, data.len()).unwrap();
        assert_eq!(out, data);
        assert!(report.corrected_devices >= 1);
    }

    #[test]
    fn throughput_sample_math() {
        let s = ThroughputSample { bytes: 2_000_000, seconds: 0.5 };
        assert!((s.mb_per_s() - 4.0).abs() < 1e-9);
        let z = ThroughputSample { bytes: 1, seconds: 0.0 };
        assert!(z.mb_per_s().is_infinite());
    }
}
