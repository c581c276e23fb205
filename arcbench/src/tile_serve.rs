//! `tile_serve`: one large v2 container behind a reader whose cache holds a
//! quarter of it. A closed loop of one client issues small range reads, most
//! of them to a hot set that fits the cache, interleaved with batch writes
//! of new tiles. Latency-bound where `ecc_bulk` is throughput-bound.

use std::time::Instant;

use arc_core::{ArcReader, CacheStats};
use arc_ecc::EccConfig;

use crate::alloc;
use crate::cells::{EndToEnd, Outcome, Passes};
use crate::ecc_bulk;
use crate::inputs::{Rng, Scale, Scheme, KIB};
use crate::probes::{self, PathCell};
use crate::stats::{median, mib_s};
use crate::trace::{Layer, Tracer};
use crate::Run;

const SHARD: usize = 256 * KIB;
const READ_BYTES: usize = 64 * KIB;
const WRITE_TILES: usize = 4;
const WRITE_TILE_BYTES: usize = 256 * KIB;
/// Offsets are multiples of this, so reads straddle shard boundaries.
const ALIGN: usize = 4 * KIB;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `decode_range(offset, READ_BYTES)`.
    Read(usize),
    /// `encode_batch` of tiles copied from these payload offsets.
    Write([usize; WRITE_TILES]),
}

/// A seeded offset, a multiple of [`ALIGN`], of `len` bytes inside
/// `start..start + span`.
fn aligned(rng: &mut Rng, start: usize, span: usize, len: usize) -> usize {
    start + rng.below(((span - len) / ALIGN + 1) as u64) as usize * ALIGN
}

/// The seeded op mix of one round: 80 % reads, of which 80 % fall in the
/// hot set and 20 % anywhere; 20 % writes.
pub fn gen_ops(seed: u64, count: usize, data_len: usize, hot: std::ops::Range<usize>) -> Vec<Op> {
    let mut rng = Rng::new(seed);
    (0..count)
        .map(|_| {
            if rng.below(100) >= 80 {
                Op::Write(
                    [(); WRITE_TILES].map(|()| aligned(&mut rng, 0, data_len, WRITE_TILE_BYTES)),
                )
            } else if rng.below(100) < 80 {
                Op::Read(aligned(&mut rng, hot.start, hot.len(), READ_BYTES))
            } else {
                Op::Read(aligned(&mut rng, 0, data_len, READ_BYTES))
            }
        })
        .collect()
}

struct Setup {
    base: ecc_bulk::Setup,
    container: Vec<u8>,
    stream_encode_ns: f64,
}

fn setup(scale: Scale, seed: u64, config: EccConfig) -> Result<Setup, String> {
    let base = ecc_bulk::setup(scale, seed, scale.bulk_bytes())?;
    let (container, stream_encode_ns) =
        probes::timed(|| Scheme::Builtin(config).stream_encode(&base.payload, SHARD));
    Ok(Setup { base, container: container?, stream_encode_ns })
}

#[derive(Default)]
struct Samples {
    read_ns: Vec<u64>,
    write_ns: Vec<u64>,
    hit_ns: Vec<f64>,
    miss_ns: Vec<f64>,
    shards_touched: u64,
}

/// Run one round of ops against the reader, checking every result outside
/// its timed section.
fn round(
    ops: &[Op],
    reader: &mut ArcReader,
    payload: &[u8],
    config: EccConfig,
    tr: &mut Tracer,
    s: &mut Samples,
    out: &mut Outcome,
) {
    for op in ops {
        match *op {
            Op::Read(offset) => {
                let t0 = Instant::now();
                let span = tr.begin("read", Layer::Bench);
                let got = tr.leaf("core.decode_range", Layer::Core, || {
                    reader.decode_range(offset, READ_BYTES)
                });
                tr.end(span);
                let ns = t0.elapsed().as_nanos() as u64;
                out.op(
                    "read",
                    match got {
                        Ok((data, report)) if data == payload[offset..offset + READ_BYTES] => {
                            s.read_ns.push(ns);
                            s.shards_touched += report.shards_touched as u64;
                            if report.cache_hits == report.shards_touched {
                                &mut s.hit_ns
                            } else {
                                &mut s.miss_ns
                            }
                            .push(ns as f64);
                            None
                        }
                        Ok(_) => Some(format!("range at {offset} differs from the plaintext")),
                        Err(e) => Some(format!("decode_range at {offset}: {e}")),
                    },
                );
            }
            Op::Write(offsets) => {
                let tiles = offsets.map(|o| &payload[o..o + WRITE_TILE_BYTES]);
                let t0 = Instant::now();
                let span = tr.begin("write", Layer::Bench);
                let got = tr.leaf("core.encode_batch", Layer::Core, || {
                    arc_core::encode_batch(&tiles, config, 1)
                });
                tr.end(span);
                let ns = t0.elapsed().as_nanos() as u64;
                out.op(
                    "write",
                    match got {
                        Ok(containers) if containers.len() != tiles.len() => {
                            Some("wrong number of containers".into())
                        }
                        Ok(containers) => {
                            s.write_ns.push(ns);
                            containers.iter().zip(&tiles).find_map(|(c, tile)| {
                                match arc_core::arc_engine_decode(c, 1) {
                                    Ok((data, _)) if data == *tile => None,
                                    Ok(_) => {
                                        Some("batch container does not round-trip".to_string())
                                    }
                                    Err(e) => Some(format!("batch container decode: {e}")),
                                }
                            })
                        }
                        Err(e) => Some(format!("encode_batch: {e}")),
                    },
                );
            }
        }
    }
}

pub fn run(run: &Run, tr: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let config = EccConfig::secded(true);
    let (setup, setup_s) = crate::timed_setups(run, || setup(run.scale, run.seed, config))?;
    let payload = &setup.base.payload;
    let mut rng = Rng::new(run.seed ^ 0x407);
    let hot_len = run.scale.tile_hot_bytes();
    let hot_start = rng.below(((payload.len() - hot_len) / SHARD + 1) as u64) as usize * SHARD;
    let hot = hot_start..hot_start + hot_len;
    let ops_of = |round: u64| {
        gen_ops(
            run.seed.wrapping_add(round),
            run.scale.tile_round_ops(),
            payload.len(),
            hot.clone(),
        )
    };

    let base = alloc::reset_peak();
    let mut reader =
        ArcReader::with_cache_capacity(&setup.container, 1, run.scale.tile_cache_bytes())
            .map_err(|e| format!("reader open: {e}"))?;

    // Round 0 fills the cache from cold and is discarded; its cache counts
    // are a pure function of the seed and are pinned.
    round(&ops_of(0), &mut reader, payload, config, tr, &mut Samples::default(), out);
    let warm: CacheStats = reader.cache_stats();
    out.pin("warmup.cache_hits", warm.hits);
    out.pin("warmup.cache_misses", warm.misses);
    out.pin("warmup.cache_evictions", warm.evictions);
    out.pin("stored_bytes", setup.container.len());

    // Throughput is taken round by round and the median reported, so a
    // stall in one round does not move it.
    let sum = |v: &[u64]| v.iter().sum::<u64>();
    let mut samples = Samples::default();
    let mut passes = Passes::default();
    let (mut write_rates, mut read_rates) = (Vec::new(), Vec::new());
    let min_rounds = if run.traced { 4 } else { 2 };
    let started = Instant::now();
    let mut n = 1u64;
    while n <= min_rounds || started.elapsed().as_secs_f64() < run.seconds {
        let tracing = run.traced && n % 2 == 1;
        tr.set_enabled(tracing);
        let before = (samples.read_ns.len(), samples.write_ns.len());
        round(&ops_of(n), &mut reader, payload, config, tr, &mut samples, out);
        let (reads, writes) = (&samples.read_ns[before.0..], &samples.write_ns[before.1..]);
        if !reads.is_empty() && !writes.is_empty() {
            read_rates.push(mib_s(reads.len() * READ_BYTES, sum(reads) as f64));
            write_rates
                .push(mib_s(writes.len() * WRITE_TILES * WRITE_TILE_BYTES, sum(writes) as f64));
            passes.push(tracing, reads.len() + writes.len(), sum(reads) + sum(writes));
        }
        n += 1;
    }
    tr.set_enabled(false);
    let peak = alloc::peak().saturating_sub(base);
    let stats = reader.cache_stats();
    drop(reader);

    let reads = samples.read_ns.len() as f64;
    EndToEnd {
        setup_s,
        protect_mib_s: &[median(&write_rates)],
        recover_mib_s: &[median(&read_rates)],
        ops_s: &passes.ops_s,
        write_ns: vec![std::mem::take(&mut samples.write_ns)],
        read_ns: vec![std::mem::take(&mut samples.read_ns)],
        stored_frac: setup.container.len() as f64 / payload.len() as f64,
        peak_live_frac: peak as f64 / payload.len() as f64,
    }
    .record(out);

    if run.traced {
        out.set("datasets.generate_s", setup.base.generate_s);
        out.set("core.train_s", setup.base.train_s);
        // Whole-container numbers from set-up and one full decode; the
        // reader numbers from the op stream itself.
        let scheme = Scheme::Builtin(config);
        let (decoded, decode_ns) = probes::timed(|| scheme.decode(&setup.container));
        out.op("container", decoded.err());
        let path = PathCell {
            name: "container",
            scheme: &scheme,
            payload,
            container: &setup.container,
            stream_encode_ns: setup.stream_encode_ns,
            decode_ns,
        };
        probes::core_micro(&path, &setup.base.ctx, run.seed, out);
        probes::record_core(&[path], SHARD, run.seed, out);
        if !samples.hit_ns.is_empty() && !samples.miss_ns.is_empty() {
            out.set("core.range_hit_us", median(&samples.hit_ns) / 1e3);
            out.set("core.range_miss_us", median(&samples.miss_ns) / 1e3);
        }
        let lookups = (stats.hits - warm.hits + stats.misses - warm.misses).max(1);
        out.set("core.cache_hit_frac", (stats.hits - warm.hits) as f64 / lookups as f64);
        out.set("core.cache_evictions", (stats.evictions - warm.evictions) as f64);
        out.set("core.shards_touched_per_read", samples.shards_touched as f64 / reads.max(1.0));
        crate::record_ledger(tr, &passes, out);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::MIB;

    #[test]
    fn op_mix_is_a_function_of_the_seed() {
        let hot = 8 * MIB..20 * MIB;
        let a = gen_ops(0x5EED, 5000, 64 * MIB, hot.clone());
        assert_eq!(a, gen_ops(0x5EED, 5000, 64 * MIB, hot.clone()));
        assert_ne!(a, gen_ops(7, 5000, 64 * MIB, hot.clone()));
        // A second seed changes the ops, not the shape of the mix.
        for ops in [&a, &gen_ops(7, 5000, 64 * MIB, hot.clone())] {
            let writes = ops.iter().filter(|o| matches!(o, Op::Write(_))).count();
            let hot_reads =
                ops.iter().filter(|o| matches!(o, Op::Read(at) if hot.contains(at))).count();
            assert!((900..1100).contains(&writes), "{writes} writes of 5000");
            assert!((3100..3500).contains(&hot_reads), "{hot_reads} hot reads of 5000");
            for op in ops.iter() {
                match *op {
                    Op::Read(at) => assert!(at % ALIGN == 0 && at + READ_BYTES <= 64 * MIB),
                    Op::Write(at) => assert!(at
                        .iter()
                        .all(|o| o % ALIGN == 0 && o + WRITE_TILE_BYTES <= 64 * MIB)),
                }
            }
        }
    }
}
