//! Property tests for the chunk-parallel zero-copy pipeline: every built-in
//! scheme × chunk sizes {1 KiB, 64 KiB, 1 MiB} × lengths that are not
//! multiples of the chunk size (empty input included) must round-trip
//! through encode → corrupt-k-bits → decode, and the merged
//! `CorrectionReport::blocks_checked` must equal the sum over chunks.

use std::sync::Arc;

use arc_ecc::bits::flip_bit;
use arc_ecc::{
    Capability, CorrectionReport, EccConfig, EccError, EccScheme, Interleaved, ParallelCodec,
    Replication,
};
use proptest::prelude::*;

/// The three chunk granularities the issue calls out.
fn chunk_sizes() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize << 10), Just(1usize << 16), Just(1usize << 20)]
}

/// Built-in configurations that can *correct* (parity is detect-only and
/// gets its own clean-path test below).
fn correcting_configs() -> impl Strategy<Value = EccConfig> {
    prop_oneof![
        Just(EccConfig::hamming(false)),
        Just(EccConfig::hamming(true)),
        Just(EccConfig::secded(false)),
        Just(EccConfig::secded(true)),
        Just(EccConfig::rs(223, 32).unwrap()),
        Just(EccConfig::rs(16, 4).unwrap()),
    ]
}

fn all_configs() -> impl Strategy<Value = EccConfig> {
    prop_oneof![
        Just(EccConfig::parity(1).unwrap()),
        Just(EccConfig::parity(8).unwrap()),
        correcting_configs(),
    ]
}

fn sample(len: usize, seed: u64) -> Vec<u8> {
    (0..len)
        .map(|i| ((i as u64).wrapping_mul(seed | 1).wrapping_add(seed >> 32) >> 24) as u8)
        .collect()
}

/// One deterministic in-data bit position per chunk, derived from `seed`.
fn one_flip_per_chunk(data_len: usize, chunk_size: usize, seed: u64) -> Vec<u64> {
    let mut flips = Vec::new();
    let mut start = 0usize;
    let mut i = 0u64;
    while start < data_len {
        let len = (data_len - start).min(chunk_size);
        let bit_in_chunk = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(i) % (len as u64 * 8);
        flips.push(start as u64 * 8 + bit_in_chunk);
        start += len;
        i += 1;
    }
    flips
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// encode → flip one bit per chunk → decode returns the original data.
    #[test]
    fn corrupted_roundtrip_all_correcting_schemes(
        config in correcting_configs(),
        chunk_size in chunk_sizes(),
        data_len in 0usize..150_000,
        threads in prop_oneof![Just(1usize), Just(4usize)],
        seed in any::<u64>(),
    ) {
        let data = sample(data_len, seed);
        let codec = ParallelCodec::with_chunk_size(config, threads, chunk_size).unwrap();
        let mut encoded = codec.encode(&data);
        prop_assert_eq!(encoded.len(), codec.encoded_len(data.len()));
        let flips = one_flip_per_chunk(data.len(), chunk_size, seed);
        for &bit in &flips {
            flip_bit(&mut encoded, bit);
        }
        let (out, report) = codec.decode(&encoded, data.len()).unwrap();
        prop_assert_eq!(out, data);
        if !flips.is_empty() {
            prop_assert!(!report.is_clean(), "{} flips went unreported", flips.len());
        }
    }

    /// Detect-only parity round-trips cleanly at every geometry.
    #[test]
    fn clean_roundtrip_all_schemes(
        config in all_configs(),
        chunk_size in chunk_sizes(),
        data_len in 0usize..150_000,
        seed in any::<u64>(),
    ) {
        let data = sample(data_len, seed);
        let codec = ParallelCodec::with_chunk_size(config, 2, chunk_size).unwrap();
        let encoded = codec.encode(&data);
        let (out, report) = codec.decode(&encoded, data.len()).unwrap();
        prop_assert_eq!(out, data);
        prop_assert!(report.is_clean());
    }

    /// The merged report's `blocks_checked` equals the sum of per-chunk
    /// single-shot decodes.
    #[test]
    fn blocks_checked_sums_across_chunks(
        config in all_configs(),
        chunk_size in prop_oneof![Just(1usize << 10), Just(1usize << 16)],
        data_len in 1usize..80_000,
        seed in any::<u64>(),
    ) {
        let data = sample(data_len, seed);
        let codec = ParallelCodec::with_chunk_size(config, 2, chunk_size).unwrap();
        let encoded = codec.encode(&data);
        let (_, merged) = codec.decode(&encoded, data.len()).unwrap();
        let mut expected = 0u64;
        for chunk in data.chunks(chunk_size) {
            let single = config.encode(chunk);
            let (_, r) = config.decode(&single, chunk.len()).unwrap();
            expected += r.blocks_checked;
        }
        prop_assert_eq!(merged.blocks_checked, expected, "{}", config);
    }

    /// `encode_into` over a garbage-prefilled buffer is byte-identical to
    /// `encode` (the `_into` contract: every output byte is overwritten).
    #[test]
    fn encode_into_ignores_prior_buffer_contents(
        config in all_configs(),
        chunk_size in chunk_sizes(),
        data_len in 0usize..100_000,
        fill in any::<u8>(),
        seed in any::<u64>(),
    ) {
        let data = sample(data_len, seed);
        let codec = ParallelCodec::with_chunk_size(config, 2, chunk_size).unwrap();
        let reference = codec.encode(&data);
        let mut out = vec![fill; codec.encoded_len(data.len())];
        codec.encode_into(&data, &mut out);
        prop_assert_eq!(out, reference);
    }

    /// Extension-API schemes (boxed trait objects) get the same guarantees.
    #[test]
    fn extension_schemes_roundtrip_with_damage(
        tmr in prop_oneof![Just(true), Just(false)],
        chunk_size in prop_oneof![Just(1usize << 10), Just(1usize << 16)],
        data_len in 1usize..40_000,
        seed in any::<u64>(),
    ) {
        let scheme: Arc<dyn EccScheme> = if tmr {
            Arc::new(Replication::tmr())
        } else {
            Arc::new(Interleaved::new(8, 4).unwrap())
        };
        let data = sample(data_len, seed);
        let codec = ParallelCodec::with_chunk_size(scheme, 2, chunk_size).unwrap();
        let mut encoded = codec.encode(&data);
        for &bit in &one_flip_per_chunk(data.len(), chunk_size, seed) {
            flip_bit(&mut encoded, bit);
        }
        let (out, report) = codec.decode(&encoded, data.len()).unwrap();
        prop_assert_eq!(out, data);
        prop_assert!(!report.is_clean());
    }
}

/// `EccConfig` with the thread floor removed, so a 100 KB buffer really is
/// split across every pool worker instead of collapsing to the in-line path.
struct NoFloor(EccConfig);

impl EccScheme for NoFloor {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn parity_len(&self, data_len: usize) -> usize {
        self.0.parity_len(data_len)
    }
    fn storage_overhead(&self) -> f64 {
        self.0.storage_overhead()
    }
    fn encode_parity_into(&self, data: &[u8], parity: &mut [u8]) {
        self.0.encode_parity_into(data, parity)
    }
    fn verify_and_correct(
        &self,
        data: &mut [u8],
        parity: &mut [u8],
    ) -> Result<CorrectionReport, EccError> {
        self.0.verify_and_correct(data, parity)
    }
    fn capability(&self) -> Capability {
        self.0.capability()
    }
    fn min_bytes_per_thread(&self) -> usize {
        1
    }
}

/// A pool of 4× the machine's cores loses no chunk and merges none twice,
/// however the workers interleave: every pass returns the input bytes and a
/// `blocks_checked` equal to the exact per-chunk sum.
#[test]
fn oversubscribed_pool_reports_every_chunk_exactly_once() {
    const CHUNK: usize = 4096;
    const DATA_LEN: usize = 100_000;
    let config = EccConfig::secded(true);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = cores * 4;
    let codec = ParallelCodec::with_chunk_size(NoFloor(config), threads, CHUNK).unwrap();
    assert_eq!(codec.threads(), threads);
    assert_eq!(codec.effective_workers(DATA_LEN), threads, "the pool must not be bypassed");

    let data: Vec<u8> = (0..DATA_LEN).map(|i| (i * 31 % 251) as u8).collect();
    let expected_blocks: u64 = data
        .chunks(CHUNK)
        .map(|chunk| config.decode(&config.encode(chunk), chunk.len()).unwrap().1.blocks_checked)
        .sum();
    for pass in 0..3 {
        let mut encoded = codec.encode(&data);
        let report = codec.decode_in_place(&mut encoded, data.len()).unwrap();
        assert_eq!(&encoded[..data.len()], &data[..], "pass {pass}");
        assert_eq!(
            report.blocks_checked, expected_blocks,
            "pass {pass}: chunk lost or merged twice"
        );
        assert_eq!(report.corrected_bits, 0, "pass {pass}: clean decode corrected something");
    }
}
