//! Property tests for the chunk-parallel zero-copy pipeline: every built-in
//! scheme × chunk sizes {1 KiB, 64 KiB, 1 MiB} × lengths that are not
//! multiples of the chunk size (empty input included) must round-trip
//! through encode → corrupt-k-bits → decode, and the merged
//! `CorrectionReport::blocks_checked` must equal the sum over chunks.

use std::sync::Arc;

use arc_ecc::bits::flip_bit;
use arc_ecc::{EccConfig, EccScheme, Interleaved, ParallelCodec, Replication, RsBlock};
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
            Arc::new(Interleaved::new(RsBlock::new(8).unwrap(), 4).unwrap())
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
