//! Streaming ingest: bounded-memory protection of an unbounded feed.
//!
//! One-shot `arc_encode` needs the whole input in memory. A long-running
//! ingest service (sensor telemetry, checkpoint streams) cannot afford
//! that, so this example pushes an "endless" feed of odd-sized packets
//! through [`arc::StreamEncoder`]: bytes are sharded as they arrive, full
//! shards are ECC-encoded `threads` at a time (each group is written out
//! before the next starts, which caps peak memory at O(threads × shard)
//! however long the feed runs), and v2 container bytes are emitted
//! incrementally. The
//! bytes depend on the input alone: the one-shot sharded encode is a single
//! push through this same encoder, so every golden snapshot and reader
//! applies to both.
//!
//! The container then decodes like any other, through
//! [`arc::arc_engine_decode`], and finally the batch front-end
//! ([`arc::encode_batch`]) shows how many *small* requests coalesce into
//! one flat parallel pass. Run with:
//!
//! ```text
//! cargo run --release --example stream_ingest
//! ```

use arc::{arc_engine_decode, encode_batch, EccConfig, StreamEncoder, StreamOptions};

const FEED_BYTES: usize = 24 << 20; // how much the "sensor" emits
const SHARD: usize = 1 << 20; // 1 MiB shards -> 24 shards

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- 1. Streaming encode ------------------------------------------
    // Packets arrive in irregular sizes; the encoder neither knows nor
    // cares about the total length in advance.
    let config = EccConfig::secded(true);
    let opts = StreamOptions { shard_size: SHARD, threads: 2 };
    let mut encoder = StreamEncoder::new(Vec::new(), config, opts)?;

    let mut feed = Vec::with_capacity(FEED_BYTES); // kept only to verify below
    let mut rng = 0x1D872B41_u64;
    while feed.len() < FEED_BYTES {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        // A 1..=64 KiB packet of "sensor readings".
        let packet: Vec<u8> =
            (0..(rng as usize % (64 << 10)) + 1).map(|i| (rng as usize + i * 131) as u8).collect();
        encoder.push(&packet)?;
        feed.extend_from_slice(&packet);
    }
    let (container, stats) = encoder.finish()?;
    println!(
        "ingested {} B in shards of {} B -> container {} B \
         ({} shards, {} threads)",
        stats.data_len, SHARD, stats.container_len, stats.shards, stats.workers
    );

    // However the feed was cut into packets, the bytes are those of one
    // push — which is all the one-shot sharded encode is. The stream_equiv
    // property suite pins this across every built-in scheme.
    let oneshot = arc::core::arc_engine_encode_sharded(&feed, config, 1, SHARD)?;
    assert_eq!(container, oneshot, "container bytes must not depend on the push partition");

    // ---- 2. Decode ----------------------------------------------------
    // Shards are repaired and CRC-checked on two threads, then the whole
    // data is held to the header's end-to-end CRC before it is returned.
    let (recovered, report) = arc_engine_decode(&container, 2)?;
    assert_eq!(recovered, feed);
    println!(
        "decoded {} B back ({} shards, scheme {}, clean: {})",
        recovered.len(),
        report.shards,
        report.scheme_id,
        report.correction.is_clean()
    );

    // ---- 3. Batch front-end -------------------------------------------
    // A thousand tiny requests would each fall below the bytes-per-thread
    // floor; the batch API coalesces them into one flat parallel pass (the
    // floor applies to the aggregate) while returning per-request
    // containers identical to singleton encodes.
    let requests: Vec<Vec<u8>> =
        (0..1000).map(|i| feed[i * 4096..(i + 1) * 4096].to_vec()).collect();
    let refs: Vec<&[u8]> = requests.iter().map(|r| r.as_slice()).collect();
    let encoded = encode_batch(&refs, config, 0)?;
    let total: usize = encoded.iter().map(|e| e.len()).sum();
    println!("batch-encoded {} requests -> {} B total", encoded.len(), total);
    Ok(())
}
