//! Tile server over a sharded ARC container: random access without full
//! decode.
//!
//! A 512×512 field is compressed with ZFP fixed rate (every 4×4 block gets
//! the same bit budget, so tiles map to byte ranges), wrapped in a **v2
//! sharded container** of 4 KiB shards, and then served tile-by-tile
//! through [`arc::ArcReader::decode_range`] — each request ECC-verifies
//! only the shards covering the tile, and the reader's LRU shard cache
//! absorbs the locality of a panning client.
//!
//! Run with `cargo run --release --example tile_server`; the workload ends
//! by printing what the calls returned (`RangeReport` sums, `CacheStats`).

use arc::{ArcReader, EccConfig};

const DIM: usize = 512; // field is DIM × DIM f32
const TILE: usize = 32; // tile edge, in values (multiple of the 4×4 blocks)
const RATE: f64 = 8.0; // bits per value
const REQUESTS: usize = 400;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A smooth synthetic field, compressed at a fixed rate.
    let field: Vec<f32> = (0..DIM * DIM)
        .map(|i| {
            let (r, c) = ((i / DIM) as f32, (i % DIM) as f32);
            (r * 0.021).sin() * 8.0 + (c * 0.017).cos() * 5.0
        })
        .collect();
    let stream = arc::zfp::compress(&field, &[DIM, DIM], arc::zfp::ZfpMode::FixedRate(RATE))?;

    // Wrap it in a sharded container. Tiles are located by rate arithmetic
    // at read time, so the shard size need not line up with blocks.
    let shard_size = 4 << 10;
    let container =
        arc::core::arc_engine_encode_sharded(&stream, EccConfig::secded(true), 1, shard_size)?;
    println!(
        "field {DIM}x{DIM} -> zfp-rate stream {} B -> v2 container {} B ({} B shards)",
        stream.len(),
        container.len(),
        shard_size
    );

    // Tile (tr, tc) covers TILE rows of TILE values; with fixed rate each
    // 4-value-wide block row of the tile is a contiguous bit run. For
    // simplicity serve the whole span from the tile's first to last block.
    let payload_offset = arc::zfp::stream_info(&stream).ok_or("not a ZFP stream")?.payload_offset;
    let block_bits = arc::zfp::shard::rate_block_bits(RATE, 2).ok_or("bad rate")?;
    let blocks_per_row = DIM / 4;
    let tile_span = |tr: usize, tc: usize| -> (usize, usize) {
        let first_block = (tr * TILE / 4) * blocks_per_row + tc * TILE / 4;
        let last_block = ((tr + 1) * TILE / 4 - 1) * blocks_per_row + (tc + 1) * TILE / 4;
        let start = payload_offset + (first_block as u64 * block_bits / 8) as usize;
        let end = payload_offset + ((last_block + 1) as u64 * block_bits).div_ceil(8) as usize;
        (start, end - start)
    };

    // A panning client: mostly-local walk over the tile grid (seeded LCG —
    // deterministic run-to-run).
    let tiles = DIM / TILE;
    let mut reader = ArcReader::open(&container, 1)?;
    let (mut tr, mut tc, mut seed) = (tiles / 2, tiles / 2, 0x2545_F491u64);
    let mut rng = move || {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (seed >> 33) as usize
    };
    let mut bytes_served = 0usize;
    let mut encoded_decoded = 0usize;
    for _ in 0..REQUESTS {
        match rng() % 8 {
            0 => tr = rng() % tiles, // occasional jump
            1 => tc = rng() % tiles,
            2 | 3 => tr = (tr + 1).min(tiles - 1),
            4 | 5 => tc = (tc + 1).min(tiles - 1),
            6 => tr = tr.saturating_sub(1),
            _ => tc = tc.saturating_sub(1),
        }
        let (off, len) = tile_span(tr, tc);
        let (bytes, report) = reader.decode_range(off, len)?;
        bytes_served += bytes.len();
        encoded_decoded += report.encoded_bytes_decoded;
    }

    let stats = reader.cache_stats();
    let lookups = stats.hits + stats.misses;
    println!(
        "{REQUESTS} tile requests: {} B served, {} B ECC-decoded ({}x the \
         container payload would cost {} B per full decode)",
        bytes_served,
        encoded_decoded,
        REQUESTS,
        container.len()
    );
    println!(
        "shard cache: {} hits / {} lookups ({:.1}% hit rate), {} evictions, \
         {} B resident of {} B capacity",
        stats.hits,
        lookups,
        100.0 * stats.hits as f64 / lookups.max(1) as f64,
        stats.evictions,
        stats.resident_bytes,
        stats.capacity
    );

    // Bit flips in a shard are corrected on the fly — re-read a tile
    // through a corrupted copy of the container.
    let mut damaged = container.clone();
    let mid = damaged.len() / 2;
    damaged[mid] ^= 0x10;
    let mut reader2 = ArcReader::open(&damaged, 1)?;
    let (off, len) = tile_span(tiles / 2, tiles / 2);
    let (_, report) = reader2.decode_range(off, len)?;
    println!(
        "after a mid-container bit flip: tile read corrected {} bit(s) in-line",
        report.correction.corrected_bits
    );
    Ok(())
}
