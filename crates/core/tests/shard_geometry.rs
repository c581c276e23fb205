//! Property tests for the v2 sharded container: shard-index geometry
//! invariants and the `decode_range` ≡ full-decode-slice contract, over
//! arbitrary data sizes, shard sizes, schemes, and ranges (including
//! off-by-one shard boundaries and the empty range).

use proptest::prelude::*;

use arc_core::container::unpack;
use arc_core::{arc_engine_decode, arc_engine_encode_sharded, ArcReader};
use arc_ecc::{EccConfig, ParallelCodec};

fn arb_config() -> impl Strategy<Value = EccConfig> {
    prop_oneof![
        (1usize..32).prop_map(|b| EccConfig::parity(b).unwrap()),
        any::<bool>().prop_map(EccConfig::hamming),
        any::<bool>().prop_map(EccConfig::secded),
        (2usize..24, 1usize..8).prop_map(|(k, m)| EccConfig::rs(k, m).unwrap()),
    ]
}

fn payload(len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 149) ^ (i >> 5) ^ 0x5A) as u8).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The shard index the v2 writer emits always describes a
    /// contiguous, exhaustive, geometry-consistent partition of the data.
    #[test]
    fn shard_index_geometry_is_consistent(
        config in arb_config(),
        data_len in 0usize..20_000,
        shard_size in 1usize..6_000,
    ) {
        let data = payload(data_len);
        let encoded = arc_engine_encode_sharded(&data, config, 1, shard_size).unwrap();
        let u = unpack(&encoded).unwrap();
        let index = u.index.expect("v2 container must carry an index");
        let codec = ParallelCodec::with_chunk_size(config, 1, u.meta.chunk_size).unwrap();

        let expected_shards = if data_len == 0 { 0 } else { data_len.div_ceil(shard_size) };
        prop_assert_eq!(index.entries.len(), expected_shards);

        let mut enc_pos = 0usize;
        let mut dec_total = 0usize;
        for (i, e) in index.entries.iter().enumerate() {
            prop_assert_eq!(e.offset, enc_pos, "shard {} not contiguous", i);
            let want_dec =
                if i + 1 < index.entries.len() { shard_size } else { data_len - dec_total };
            prop_assert_eq!(e.decoded_len, want_dec, "shard {} decoded_len", i);
            prop_assert_eq!(
                e.encoded_len,
                codec.encoded_len(e.decoded_len),
                "shard {} geometry vs codec",
                i
            );
            enc_pos += e.encoded_len;
            dec_total += e.decoded_len;
        }
        prop_assert_eq!(enc_pos, u.meta.payload_len);
        prop_assert_eq!(dec_total, u.meta.data_len);
    }

    /// `decode_range(off, len)` returns exactly `full_decode[off..off+len]`
    /// for arbitrary ranges, and a v2 container's full decode round-trips.
    #[test]
    fn decode_range_equals_full_decode_slice(
        config in arb_config(),
        data_len in 1usize..16_000,
        shard_size in 1usize..4_000,
        off_sel in any::<proptest::sample::Index>(),
        len_sel in any::<proptest::sample::Index>(),
    ) {
        let data = payload(data_len);
        let encoded = arc_engine_encode_sharded(&data, config, 1, shard_size).unwrap();
        let (full, _) = arc_engine_decode(&encoded, 1).unwrap();
        prop_assert_eq!(&full, &data, "v2 full decode must round-trip");

        let offset = off_sel.index(data_len + 1); // 0..=data_len
        let len = len_sel.index(data_len - offset + 1); // 0..=remaining
        let mut reader = ArcReader::open(&encoded, 1).unwrap();
        let (out, report) = reader.decode_range(offset, len).unwrap();
        prop_assert_eq!(&out[..], &data[offset..offset + len]);
        // A range never touches more shards than could cover it.
        let max_shards = len / shard_size + 2;
        prop_assert!(report.shards_touched <= max_shards);
    }

    /// Off-by-one probes around every shard boundary: one byte before, at,
    /// and after each boundary, plus the empty range at the boundary.
    #[test]
    fn shard_boundary_off_by_ones(
        config in arb_config(),
        shards in 2usize..6,
        shard_size in 1usize..512,
        tail in 0usize..2,
    ) {
        // `tail` = 1 gives a ragged final shard (one extra byte).
        let data_len = (shards - 1) * shard_size + 1 + tail * (shard_size.saturating_sub(1));
        let data = payload(data_len);
        let encoded = arc_engine_encode_sharded(&data, config, 1, shard_size).unwrap();
        let mut reader = ArcReader::open(&encoded, 1).unwrap();
        for b in 1..shards {
            let boundary = b * shard_size;
            if boundary > data_len {
                break;
            }
            for start in boundary.saturating_sub(1)..=(boundary + 1).min(data_len) {
                for len in 0..=2usize.min(data_len - start) {
                    let (out, _) = reader.decode_range(start, len).unwrap();
                    prop_assert_eq!(&out[..], &data[start..start + len],
                        "boundary {} start {} len {}", boundary, start, len);
                }
            }
        }
        // Empty range at both extremes, and a full-span read.
        prop_assert!(reader.decode_range(0, 0).unwrap().0.is_empty());
        prop_assert!(reader.decode_range(data_len, 0).unwrap().0.is_empty());
        let (all, _) = reader.decode_range(0, data_len).unwrap();
        prop_assert_eq!(&all[..], &data[..]);
        // One past the end must be rejected, never mis-served.
        prop_assert!(reader.decode_range(data_len, 1).is_err());
    }
}
