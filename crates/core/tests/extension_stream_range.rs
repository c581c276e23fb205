//! Regression: extension-registry schemes are first-class citizens of the
//! v2 container. For every stock extension family the same data must
//!
//! 1. stream through `StreamEncoder::with_registry_scheme` into the same
//!    bytes whatever the push partition and thread count (the
//!    one-shot `encode_sharded_with_scheme` is one such push),
//! 2. stream-decode through `StreamDecoder::with_registry`,
//! 3. serve `ArcReader::decode_range` slices through
//!    `open_with_registry`, and
//! 4. full-decode through `decode_with_registry`
//!
//! all reproducing the original bytes. Before the fix, (1)–(3) rejected
//! extension ids outright ("supports built-ins only").

use arc_core::extension::{decode_with_registry, encode_sharded_with_scheme, standard_extensions};
use arc_core::stream::{StreamDecoder, StreamEncoder, StreamOptions};
use arc_core::ArcReader;

fn sample(n: usize) -> Vec<u8> {
    (0..n).map(|i| ((i * 37) ^ (i >> 7) ^ (i >> 13)) as u8).collect()
}

const SHARD: usize = 32 << 10;

#[test]
fn every_extension_family_streams_and_range_decodes_byte_identically() {
    let registry = standard_extensions().expect("stock registry");
    let data = sample(200_000);
    for name in registry.ids() {
        // (1) One container, however it is produced: inline in odd pushes,
        // on two threads in one push, or through the one-shot wrapper.
        let opts = StreamOptions { shard_size: SHARD, ..StreamOptions::default() };
        let mut enc = StreamEncoder::with_registry_scheme(Vec::new(), &registry, &name, opts)
            .expect("stream encoder");
        for piece in data.chunks(4_099) {
            enc.push(piece).expect("push");
        }
        let (streamed, stats) = enc.finish().expect("finish");
        assert_eq!(stats.shards, data.len().div_ceil(SHARD), "{name}");
        assert_eq!(stats.container_len, streamed.len(), "{name}");
        let threaded = StreamOptions { threads: 2, ..opts };
        let mut enc = StreamEncoder::with_registry_scheme(Vec::new(), &registry, &name, threaded)
            .expect("threaded stream encoder");
        enc.push(&data).expect("push");
        assert_eq!(enc.finish().expect("finish").0, streamed, "{name}: threads changed the bytes");
        let one_shot = encode_sharded_with_scheme(&data, &registry, &name, 2, SHARD)
            .expect("one-shot sharded encode");
        assert_eq!(one_shot, streamed, "{name}: one-shot wrapper changed the bytes");

        // (2) Streaming decode reproduces the data.
        let mut dec = StreamDecoder::with_registry(registry.clone());
        let mut out = Vec::new();
        for piece in streamed.chunks(1_777) {
            dec.push(piece, &mut out).expect("stream decode push");
        }
        let dstats = dec.finish().expect("stream decode finish");
        assert_eq!(out, data, "{name}: stream decode mismatch");
        assert_eq!(dstats.scheme_id, format!("x:{name}"));

        // (3) Random access serves arbitrary ranges.
        let mut reader =
            ArcReader::open_with_registry(&streamed, 1, &registry).expect("reader open");
        assert!(reader.meta().sharding.is_some(), "{name}");
        for (off, len) in [(0usize, 1usize), (SHARD - 10, 20), (123_456, 45_678), (199_999, 1)] {
            let (slice, _) = reader.decode_range(off, len).expect("range");
            assert_eq!(slice, &data[off..off + len], "{name}: range {off}+{len}");
        }

        // (4) One-shot registry decode agrees too.
        let (full, report) = decode_with_registry(&streamed, 1, &registry).expect("full decode");
        assert_eq!(full, data, "{name}");
        assert!(report.correction.is_clean(), "{name}");
    }
}
