//! `traffic_sim` — multi-client traffic harness over the streaming
//! service layer (DESIGN.md §14).
//!
//! Three phases, all with a fixed seed so the workload is reproducible:
//!
//! 1. **Streaming acceptance** — encodes a ≥256 MiB input (default; see
//!    `--mib`) through [`StreamEncoder`] into a discarding sink and
//!    compares against the one-shot `arc_engine_encode_sharded` wall
//!    time at the same thread count (the same encoder, one push into an
//!    exactly-sized `Vec`). A process-global counting allocator
//!    (peak *live* bytes, not cumulative) proves the streaming path's
//!    footprint stays below 25% of the input — the O(ring × shard)
//!    contract — while throughput stays within 10% of one-shot
//!    (`MIN_STREAM_RATIO`, default 0.9).
//! 2. **Closed-loop traffic** — two client threads issue a seeded
//!    60/25/15 mix of shard-cache tile reads ([`ArcReader`]), streaming
//!    writes, and batch encodes back-to-back, recording per-op latency
//!    through the `arc-telemetry` facade.
//! 3. **Open-loop traffic** — the same mix issued on a fixed arrival
//!    schedule at half the closed-loop rate; latency is measured from
//!    the *scheduled* arrival, so queueing delay counts.
//!
//! p50/p99 latencies come from `HistogramSnapshot::percentile_estimate`
//! over the facade's log₂ buckets, which is why the bin requires the
//! `telemetry` feature (it exits early otherwise). Output is a JSON
//! document in the `BENCH_ecc.json` house style; `--smoke` shrinks every
//! phase for CI and keeps the sanity assertions. Record the committed
//! baseline with:
//!
//! ```text
//! cargo run -p arc-bench --release --features telemetry --bin traffic_sim \
//!     > BENCH_traffic.json
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::time::{Duration, Instant};

use arc_core::{
    arc_engine_encode_sharded, encode_batch, ArcError, ArcReader, StreamEncoder, StreamOptions,
    StreamSink,
};
use arc_ecc::{EccConfig, ParallelCodec};
use arc_telemetry::Snapshot;

// ---------------------------------------------------------------------------
// Peak-live counting allocator (the RSS proxy for the 25% gate)
// ---------------------------------------------------------------------------

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

struct PeakAlloc;

fn on_alloc(size: usize) {
    let live = LIVE.fetch_add(size as isize, Ordering::SeqCst) + size as isize;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

fn on_dealloc(size: usize) {
    LIVE.fetch_sub(size as isize, Ordering::SeqCst);
}

// SAFETY: a pure forwarding allocator — every method delegates to `System`
// with unchanged arguments, so `System`'s allocation guarantees carry over;
// the side counters are atomics with no effect on the returned memory.
unsafe impl GlobalAlloc for PeakAlloc {
    // SAFETY: contract inherited from `GlobalAlloc::alloc`; discharged below
    // by forwarding to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: same layout the caller passed, under the same contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: contract inherited from `GlobalAlloc::alloc_zeroed`; discharged
    // below by forwarding to `System`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: same layout the caller passed, under the same contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: contract inherited from `GlobalAlloc::dealloc`; discharged
    // below by forwarding to `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_dealloc(layout.size());
        // SAFETY: `ptr` was produced by `System` in `alloc`/`alloc_zeroed`/
        // `realloc` above with this same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: contract inherited from `GlobalAlloc::realloc`; discharged
    // below by forwarding to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        on_dealloc(layout.size());
        on_alloc(new_size);
        // SAFETY: `ptr`/`layout` come from a prior `System` allocation and
        // `new_size` is forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: PeakAlloc = PeakAlloc;

/// Run `f` and return its result plus the peak heap growth (bytes above
/// the live level at entry) observed anywhere in the process while it ran.
fn peak_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let live0 = LIVE.load(Ordering::SeqCst);
    PEAK.store(live0, Ordering::SeqCst);
    let r = f();
    let peak = PEAK.load(Ordering::SeqCst) - live0;
    (r, peak.max(0) as usize)
}

// ---------------------------------------------------------------------------
// Workload plumbing
// ---------------------------------------------------------------------------

const SEED: u64 = 0x7AFF_1C5E_D00D_F00Du64;

/// xorshift64 — deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

fn fill(len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    let mut x = 0x243F_6A88_85A3_08D3u64;
    for chunk in v.chunks_exact_mut(8) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        chunk.copy_from_slice(&x.to_le_bytes());
    }
    v
}

/// Byte sink that discards payload bytes (models a socket or file): the
/// measured footprint is the encoder's own buffering.
#[derive(Default)]
struct Discard {
    high_water: usize,
}

impl StreamSink for Discard {
    fn write_at(&mut self, offset: usize, bytes: &[u8]) -> Result<(), ArcError> {
        self.high_water = self.high_water.max(offset + bytes.len());
        Ok(())
    }
}

const CLASSES: [&str; 3] = ["tile_read", "stream_write", "batch_encode"];

fn hist_name(open: bool, class: usize) -> &'static str {
    match (open, class) {
        (false, 0) => "traffic.closed.tile_read.ns",
        (false, 1) => "traffic.closed.stream_write.ns",
        (false, _) => "traffic.closed.batch_encode.ns",
        (true, 0) => "traffic.open.tile_read.ns",
        (true, 1) => "traffic.open.stream_write.ns",
        (true, _) => "traffic.open.batch_encode.ns",
    }
}

fn bytes_name(open: bool, class: usize) -> &'static str {
    match (open, class) {
        (false, 0) => "traffic.closed.tile_read.bytes",
        (false, 1) => "traffic.closed.stream_write.bytes",
        (false, _) => "traffic.closed.batch_encode.bytes",
        (true, 0) => "traffic.open.tile_read.bytes",
        (true, 1) => "traffic.open.stream_write.bytes",
        (true, _) => "traffic.open.batch_encode.bytes",
    }
}

/// 60% tile reads, 25% streaming writes, 15% batch encodes.
fn pick_class(rng: &mut Rng) -> usize {
    match rng.below(100) {
        0..=59 => 0,
        60..=84 => 1,
        _ => 2,
    }
}

/// Shared, read-only traffic fixture: one sharded container for reads
/// plus a scratch pool the write classes slice payloads from.
struct Workload {
    container: Vec<u8>,
    data_len: usize,
    tile: usize,
    scratch: Vec<u8>,
    write_min: usize,
    write_max: usize,
    write_shard: usize,
    batch_reqs: usize,
    batch_min: usize,
    batch_max: usize,
    config: EccConfig,
}

/// Run one request of `class`; returns the bytes it processed.
fn run_op(class: usize, rng: &mut Rng, w: &Workload, reader: &mut ArcReader) -> usize {
    match class {
        0 => {
            let off = rng.below(w.data_len.saturating_sub(w.tile).max(1) as u64) as usize;
            let len = w.tile.min(w.data_len - off);
            let (bytes, _report) = reader.decode_range(off, len).expect("tile read");
            bytes.len()
        }
        1 => {
            let len = w.write_min + rng.below((w.write_max - w.write_min) as u64) as usize;
            let start = rng.below((w.scratch.len() - len) as u64) as usize;
            let payload = &w.scratch[start..start + len];
            let opts =
                StreamOptions { threads: 1, shard_size: w.write_shard, ..StreamOptions::default() };
            let mut enc = StreamEncoder::new(Vec::new(), w.config, opts).expect("stream encoder");
            for piece in payload.chunks(32 << 10) {
                enc.push(piece).expect("stream push");
            }
            let (sink, _stats) = enc.finish().expect("stream finish");
            sink.len()
        }
        _ => {
            let mut lens = Vec::with_capacity(w.batch_reqs);
            for _ in 0..w.batch_reqs {
                let len = w.batch_min + rng.below((w.batch_max - w.batch_min) as u64) as usize;
                let start = rng.below((w.scratch.len() - len) as u64) as usize;
                lens.push((start, len));
            }
            let reqs: Vec<&[u8]> = lens.iter().map(|&(s, l)| &w.scratch[s..s + l]).collect();
            let encoded = encode_batch(&reqs, w.config, 1).expect("batch encode");
            encoded.iter().map(|e| e.len()).sum()
        }
    }
}

/// Closed loop: each client issues requests back-to-back. Returns
/// (wall seconds, total ops).
fn closed_loop(w: &Workload, clients: usize, ops_per_client: usize) -> (f64, usize) {
    let t = Instant::now();
    std::thread::scope(|s| {
        for c in 0..clients {
            s.spawn(move || {
                let mut rng = Rng::new(SEED ^ (0x9E37_79B9 * (c as u64 + 1)));
                let mut reader = ArcReader::open(&w.container, 1).expect("reader");
                for _ in 0..ops_per_client {
                    let class = pick_class(&mut rng);
                    let t0 = Instant::now();
                    let bytes = run_op(class, &mut rng, w, &mut reader);
                    arc_telemetry::histogram_record(
                        hist_name(false, class),
                        t0.elapsed().as_nanos() as u64,
                    );
                    arc_telemetry::counter_add(bytes_name(false, class), bytes as u64);
                }
            });
        }
    });
    (t.elapsed().as_secs_f64(), clients * ops_per_client)
}

/// Open loop: requests issued on a fixed schedule of `rate_ops_s`;
/// latency is completion minus *scheduled* arrival (queueing included).
/// Returns (wall seconds, ops).
fn open_loop(w: &Workload, ops: usize, rate_ops_s: f64) -> (f64, usize) {
    let mut rng = Rng::new(SEED ^ 0x0505_0505);
    let mut reader = ArcReader::open(&w.container, 1).expect("reader");
    let start = Instant::now();
    for i in 0..ops {
        let due = Duration::from_secs_f64(i as f64 / rate_ops_s);
        let elapsed = start.elapsed();
        if elapsed < due {
            std::thread::sleep(due - elapsed);
        }
        let class = pick_class(&mut rng);
        let bytes = run_op(class, &mut rng, w, &mut reader);
        let latency = start.elapsed().saturating_sub(due);
        arc_telemetry::histogram_record(hist_name(true, class), (latency.as_nanos() as u64).max(1));
        arc_telemetry::counter_add(bytes_name(true, class), bytes as u64);
    }
    (start.elapsed().as_secs_f64(), ops)
}

struct ClassReport {
    name: &'static str,
    count: u64,
    p50_us: f64,
    p99_us: f64,
    mib_s: f64,
}

fn class_reports(snap: &Snapshot, open: bool, wall_s: f64) -> Vec<ClassReport> {
    (0..CLASSES.len())
        .map(|class| {
            let (count, p50, p99) = snap
                .histograms
                .iter()
                .find(|h| h.name == hist_name(open, class))
                .map(|h| (h.count, h.percentile_estimate(0.50), h.percentile_estimate(0.99)))
                .unwrap_or((0, 0, 0));
            let bytes = snap.counter(bytes_name(open, class));
            ClassReport {
                name: CLASSES[class],
                count,
                p50_us: p50 as f64 / 1e3,
                p99_us: p99 as f64 / 1e3,
                mib_s: bytes as f64 / wall_s.max(1e-9) / (1 << 20) as f64,
            }
        })
        .collect()
}

fn classes_json(reports: &[ClassReport]) -> String {
    let rows: Vec<String> = reports
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "      {{\"class\": \"{}\", \"count\": {}, \"p50_us\": {:.1}, ",
                    "\"p99_us\": {:.1}, \"mib_s\": {:.1}}}"
                ),
                r.name, r.count, r.p50_us, r.p99_us, r.mib_s
            )
        })
        .collect();
    rows.join(",\n")
}

fn fail(msg: &str) -> ! {
    eprintln!("traffic_sim: FAIL: {msg}");
    std::process::exit(1);
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn main() {
    if !arc_telemetry::enabled() {
        eprintln!(
            "traffic_sim: the latency histograms are recorded through the \
             arc-telemetry facade, which is a no-op in the default build; rerun with\n  \
             cargo run -p arc-bench --release --features telemetry --bin traffic_sim"
        );
        std::process::exit(2);
    }

    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let mib_override = args
        .iter()
        .position(|a| a == "--mib")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok());
    if let Some(bad) = args.iter().find(|a| a.starts_with("--") && *a != "--smoke" && *a != "--mib")
    {
        fail(&format!("unknown argument {bad} (expected --smoke and/or --mib <N>)"));
    }

    let max_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    // ---- Phase 1: streaming acceptance -------------------------------
    let stream_mib = mib_override.unwrap_or(if smoke { 64 } else { 256 });
    let input_len = stream_mib << 20;
    let shard_size = 4 << 20;
    let ring = 4;
    // Smoke pins threads=1 (inline path) so the CI footprint is flat; the
    // recorded run uses every core, matching the one-shot side.
    let threads = if smoke { 1 } else { max_threads };
    let config = EccConfig::secded(true);
    let effective_workers =
        ParallelCodec::new(config, threads).expect("codec").effective_workers(input_len);
    let reps = 2;

    eprintln!("traffic_sim: streaming phase ({stream_mib} MiB, threads={threads})");
    let data = fill(input_len);
    let warm = (4 << 20).min(input_len);
    drop(arc_engine_encode_sharded(&data[..warm], config, threads, shard_size));

    let mut oneshot_s = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        let container =
            arc_engine_encode_sharded(&data, config, threads, shard_size).expect("one-shot");
        oneshot_s = oneshot_s.min(t.elapsed().as_secs_f64());
        std::hint::black_box(&container);
    }

    let opts = StreamOptions { threads, shard_size, ring, ..StreamOptions::default() };
    {
        // Warm the streaming path (thread spawn, lazy tables) off the clock.
        let mut enc = StreamEncoder::new(Discard::default(), config, opts).expect("encoder");
        enc.push(&data[..warm]).expect("push");
        let _ = enc.finish().expect("finish");
    }
    let mut stream_s = f64::INFINITY;
    let mut peak_bytes = 0usize;
    let mut container_len = 0usize;
    let mut backpressure_waits = 0u64;
    for _ in 0..reps {
        let (result, peak) = peak_during(|| {
            let t = Instant::now();
            let mut enc = StreamEncoder::new(Discard::default(), config, opts).expect("encoder");
            for piece in data.chunks(8 << 20) {
                enc.push(piece).expect("push");
            }
            let (sink, stats) = enc.finish().expect("finish");
            (t.elapsed().as_secs_f64(), sink, stats)
        });
        let (secs, sink, stats) = result;
        if sink.high_water != stats.container_len {
            fail("streaming sink was not fully written");
        }
        stream_s = stream_s.min(secs);
        peak_bytes = peak_bytes.max(peak);
        container_len = stats.container_len;
        backpressure_waits = stats.backpressure_waits;
    }
    drop(data);

    let mib = |secs: f64| input_len as f64 / secs / (1 << 20) as f64;
    let oneshot_mib_s = mib(oneshot_s);
    let stream_mib_s = mib(stream_s);
    let ratio = stream_mib_s / oneshot_mib_s;
    let peak_frac = peak_bytes as f64 / input_len as f64;

    if !smoke && mib_override.is_none() && input_len < 256 << 20 {
        fail("recorded runs must stream at least 256 MiB");
    }
    if peak_frac >= env_f64("MAX_PEAK_FRAC", 0.25) {
        fail(&format!(
            "streaming peak allocation {peak_bytes} bytes is {:.1}% of the \
             {input_len}-byte input (gate: <25%)",
            peak_frac * 100.0
        ));
    }
    let min_ratio = env_f64("MIN_STREAM_RATIO", if smoke { 0.5 } else { 0.9 });
    if ratio < min_ratio {
        fail(&format!(
            "streaming encode {stream_mib_s:.1} MiB/s is {:.0}% of one-shot \
             {oneshot_mib_s:.1} MiB/s (gate: >={:.0}%)",
            ratio * 100.0,
            min_ratio * 100.0
        ));
    }

    // ---- Phase 2/3: traffic ------------------------------------------
    let w = if smoke {
        Workload {
            container: Vec::new(),
            data_len: 4 << 20,
            tile: 64 << 10,
            scratch: fill(1 << 20),
            write_min: 32 << 10,
            write_max: 128 << 10,
            write_shard: 64 << 10,
            batch_reqs: 4,
            batch_min: 2 << 10,
            batch_max: 8 << 10,
            config,
        }
    } else {
        Workload {
            container: Vec::new(),
            data_len: 32 << 20,
            tile: 256 << 10,
            scratch: fill(2 << 20),
            write_min: 128 << 10,
            write_max: 512 << 10,
            write_shard: 128 << 10,
            batch_reqs: 8,
            batch_min: 4 << 10,
            batch_max: 32 << 10,
            config,
        }
    };
    let read_shard = if smoke { 256 << 10 } else { 1 << 20 };
    let w = Workload {
        container: arc_engine_encode_sharded(&fill(w.data_len), config, 1, read_shard)
            .expect("traffic container"),
        ..w
    };

    let clients = 2;
    let ops_per_client = if smoke { 40 } else { 150 };
    eprintln!("traffic_sim: closed loop ({clients} clients x {ops_per_client} ops)");
    arc_telemetry::reset();
    let (closed_wall, closed_ops) = closed_loop(&w, clients, ops_per_client);

    let rate_ops_s = (closed_ops as f64 / closed_wall * 0.5).clamp(10.0, 5000.0);
    let open_ops = if smoke { 30 } else { 100 };
    eprintln!("traffic_sim: open loop ({open_ops} ops at {rate_ops_s:.0} ops/s)");
    let (open_wall, open_ops) = open_loop(&w, open_ops, rate_ops_s);

    let snap = arc_telemetry::snapshot();
    let closed = class_reports(&snap, false, closed_wall);
    let open = class_reports(&snap, true, open_wall);
    for (loop_name, reports) in [("closed", &closed), ("open", &open)] {
        for r in reports.iter() {
            if r.count == 0 {
                fail(&format!("{loop_name} loop issued no {} ops", r.name));
            }
            if r.p50_us <= 0.0 || r.p99_us < r.p50_us {
                fail(&format!(
                    "{loop_name} {} latencies are not sane (p50={:.1}us p99={:.1}us)",
                    r.name, r.p50_us, r.p99_us
                ));
            }
        }
    }

    // ---- Report -------------------------------------------------------
    println!("{{");
    println!("  \"bench\": \"traffic_sim\",");
    println!("  \"mode\": \"{}\",", if smoke { "smoke" } else { "full" });
    println!("  \"seed\": {SEED},");
    println!("  \"max_threads\": {max_threads},");
    // Core count of the recording machine: scripts/bench_traffic.sh refuses
    // to compare throughput recorded on different hardware.
    println!("  \"recorded_cores\": {max_threads},");
    println!(
        concat!(
            "  \"streaming\": {{\"input_bytes\": {}, \"shard_size\": {}, \"ring\": {}, ",
            "\"threads\": {}, \"effective_workers\": {}, \"container_len\": {}, ",
            "\"oneshot_mib_s\": {:.1}, \"stream_mib_s\": {:.1}, ",
            "\"stream_vs_oneshot\": {:.3}, \"peak_bytes\": {}, \"peak_frac\": {:.4}, ",
            "\"backpressure_waits\": {}}},"
        ),
        input_len,
        shard_size,
        ring,
        threads,
        effective_workers,
        container_len,
        oneshot_mib_s,
        stream_mib_s,
        ratio,
        peak_bytes,
        peak_frac,
        backpressure_waits
    );
    println!(
        concat!(
            "  \"closed_loop\": {{\"clients\": {}, \"ops\": {}, \"wall_s\": {:.3}, ",
            "\"ops_s\": {:.1}, \"classes\": [\n{}\n  ]}},"
        ),
        clients,
        closed_ops,
        closed_wall,
        closed_ops as f64 / closed_wall,
        classes_json(&closed)
    );
    println!(
        concat!(
            "  \"open_loop\": {{\"target_ops_s\": {:.1}, \"ops\": {}, \"wall_s\": {:.3}, ",
            "\"achieved_ops_s\": {:.1}, \"classes\": [\n{}\n  ]}}"
        ),
        rate_ops_s,
        open_ops,
        open_wall,
        open_ops as f64 / open_wall,
        classes_json(&open)
    );
    println!("}}");
}
