//! The streaming invariants that guard the wire format (DESIGN.md §14):
//! `StreamEncoder` is the only v2 writer, so its output must depend on
//! nothing but the input bytes, the scheme, the shard size and the chunk
//! size. For ANY push-size partition of ANY input and ANY thread count
//! the container is byte-identical to the single-push inline one (the
//! committed `GOLDEN_V2` snapshots in `golden_container.rs` pin
//! what those bytes are), and `arc_engine_decode` of it reproduces the
//! input — across every built-in ECC family.

use proptest::prelude::*;

use arc_core::stream::{StreamEncoder, StreamOptions};
use arc_core::{arc_engine_decode, arc_engine_encode, arc_engine_encode_sharded, encode_batch};
use arc_ecc::EccConfig;

fn arb_config() -> impl Strategy<Value = EccConfig> {
    prop_oneof![
        (1usize..32).prop_map(|b| EccConfig::parity(b).unwrap()),
        any::<bool>().prop_map(EccConfig::hamming),
        any::<bool>().prop_map(EccConfig::secded),
        (2usize..24, 1usize..8).prop_map(|(k, m)| EccConfig::rs(k, m).unwrap()),
    ]
}

fn payload(len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 181) ^ (i >> 3) ^ 0xC3) as u8).collect()
}

/// Feed `data` to `enc` in pieces whose sizes cycle through `sizes`
/// (empty `sizes` = one whole-buffer push).
fn push_partitioned(
    enc: &mut StreamEncoder<Vec<u8>>,
    data: &[u8],
    sizes: &[usize],
) -> Result<(), arc_core::ArcError> {
    if sizes.is_empty() {
        return enc.push(data);
    }
    let mut pos = 0usize;
    let mut i = 0usize;
    while pos < data.len() {
        let take = sizes[i % sizes.len()].max(1).min(data.len() - pos);
        enc.push(&data[pos..pos + take])?;
        pos += take;
        i += 1;
    }
    Ok(())
}

/// The reference container: one push, inline (one thread).
fn single_push(data: &[u8], config: EccConfig, shard_size: usize) -> Vec<u8> {
    let opts = StreamOptions { shard_size, ..StreamOptions::default() };
    let mut enc = StreamEncoder::new(Vec::new(), config, opts).unwrap();
    enc.push(data).unwrap();
    enc.finish().unwrap().0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The container is a function of the input alone: any partition of
    /// the input into pushes, any thread count and the one-shot encode,
    /// which stages nothing, give the single-push inline bytes, which
    /// decode to the input.
    #[test]
    fn stream_encode_is_independent_of_partition_and_threads(
        config in arb_config(),
        data_len in 0usize..20_000,
        shard_size in 1usize..6_000,
        sizes in proptest::collection::vec(1usize..4096, 0..12),
        threads in 1usize..5,
    ) {
        let data = payload(data_len);
        let reference = single_push(&data, config, shard_size);
        let opts = StreamOptions { shard_size, threads };
        let mut enc = StreamEncoder::new(Vec::new(), config, opts).unwrap();
        push_partitioned(&mut enc, &data, &sizes).unwrap();
        let (got, stats) = enc.finish().unwrap();
        prop_assert_eq!(&got, &reference);
        prop_assert_eq!(stats.data_len, data_len);
        prop_assert_eq!(stats.container_len, reference.len());
        prop_assert_eq!(stats.shards, data_len.div_ceil(shard_size));
        let oneshot = arc_engine_encode_sharded(&data, config, threads, shard_size).unwrap();
        prop_assert_eq!(&oneshot, &reference);

        let (decoded, report) = arc_engine_decode(&reference, 1).unwrap();
        prop_assert_eq!(&decoded, &data);
        prop_assert!(report.correction.is_clean());
        prop_assert_eq!(report.shards, stats.shards);
        prop_assert_eq!(report.scheme_id, config.id());
    }

    /// The batch front-end changes scheduling, never bytes: every batch
    /// element equals the singleton engine encode and round-trips.
    #[test]
    fn batch_matches_singletons(
        config in arb_config(),
        lens in proptest::collection::vec(0usize..4_000, 1..6),
        threads in 1usize..4,
    ) {
        let reqs: Vec<Vec<u8>> = lens.iter().map(|l| payload(*l)).collect();
        let refs: Vec<&[u8]> = reqs.iter().map(|r| r.as_slice()).collect();
        let batch = encode_batch(&refs, config, threads).unwrap();
        for (req, got) in reqs.iter().zip(&batch) {
            let single = arc_engine_encode(req, config, 1).unwrap();
            prop_assert_eq!(got, &single);
            let (decoded, report) = arc_engine_decode(got, threads).unwrap();
            prop_assert_eq!(&decoded, req);
            prop_assert!(report.correction.is_clean());
        }
    }
}

/// Deterministic sweep over the full built-in configuration space — the
/// acceptance criterion names "all built-in ECC schemes" explicitly, so
/// don't leave it to sampling.
#[test]
fn every_builtin_scheme_streams_identically() {
    let data = payload(10_240);
    for config in EccConfig::standard_space() {
        let shard_size = 3 << 10;
        let reference = single_push(&data, config, shard_size);
        let opts = StreamOptions { shard_size, threads: 2 };
        let mut enc = StreamEncoder::new(Vec::new(), config, opts).unwrap();
        push_partitioned(&mut enc, &data, &[1, 977, 4096]).unwrap();
        let (got, _) = enc.finish().unwrap();
        assert_eq!(got, reference, "{}", config.id());
        let (decoded, report) = arc_engine_decode(&got, 2).unwrap();
        assert_eq!(decoded, data, "{}", config.id());
        assert_eq!(report.shards, data.len().div_ceil(shard_size), "{}", config.id());
    }
}

/// The one ordering hazard of group-of-`threads` encoding: whole shards
/// staged in the pending buffer precede, in stream order, whole shards that
/// a later push offers straight from the caller's slice. Two half-shard
/// pushes stage one whole shard (threads = 3, so the group is not yet
/// full); the next slice holds 2½ shards and must top that group up
/// *behind* the staged shard, not overtake it.
#[test]
fn parked_shards_are_flushed_before_whole_shards_from_a_later_push() {
    // Not a divisor of `payload`'s 2048-byte period: every shard differs.
    let shard_size = 3_000;
    let data = payload(shard_size * 7 / 2);
    let config = EccConfig::rs(8, 2).unwrap();
    let reference = single_push(&data, config, shard_size);
    let opts = StreamOptions { shard_size, threads: 3 };
    let mut enc = StreamEncoder::new(Vec::new(), config, opts).unwrap();
    push_partitioned(&mut enc, &data, &[shard_size / 2, shard_size / 2, shard_size * 5 / 2])
        .unwrap();
    let (got, stats) = enc.finish().unwrap();
    assert_eq!(got, reference);
    assert_eq!((stats.shards, stats.workers), (4, 3));
    assert_eq!(arc_engine_decode(&got, 1).unwrap().0, data);
}
