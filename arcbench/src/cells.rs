//! The pass loop shared by the three bulk workloads: every pass runs one
//! *protect* op and one *recover* op on every cell, times each op from
//! outside, and checks its output outside the timed section.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::alloc;
use crate::json::Json;
use crate::stats::{geomean, median, mib_s, percentile, summarize, tail_percentile, Summary};
use crate::trace::{Layer, Tracer};

/// What a workload hands back: metric values by name, the counts that must
/// repeat exactly for a seed, per-cell rows, and the failures.
#[derive(Default)]
pub struct Outcome {
    pub values: BTreeMap<String, f64>,
    pub exact: Vec<(String, Json)>,
    pub cells: Vec<Json>,
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed op, naming its cell.
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Record a count that must repeat exactly for a seed.
    pub fn pin(&mut self, name: &str, value: impl Into<Json>) {
        self.exact.push((name.to_string(), value.into()));
    }

    /// Count one op; a `Some` is its failure.
    pub fn op(&mut self, cell: &str, failure: Option<String>) {
        self.attempted += 1;
        if let Some(why) = failure {
            self.failed += 1;
            self.failures.push(format!("{cell}: {why}"));
        }
    }
}

/// One (input, configuration) pair of a bulk workload.
pub trait Cell {
    fn name(&self) -> &str;

    /// Bytes of user data one op moves: the field, or the payload.
    fn input_bytes(&self) -> usize;

    /// The timed write op; returns the container.
    fn protect(&mut self, tr: &mut Tracer) -> Result<Vec<u8>, String>;

    /// The timed read op; keeps its output for [`Cell::check`].
    fn recover(&mut self, tr: &mut Tracer, container: &[u8]) -> Result<(), String>;

    /// Untimed. The first call checks both ops in depth and keeps their
    /// outputs as the reference; later calls require equality with it.
    /// Returns the failure of the protect op and of the recover op.
    fn check(&mut self, container: &[u8]) -> (Option<String>, Option<String>);
}

#[derive(Default)]
pub struct CellSamples {
    pub protect_ns: Vec<u64>,
    pub recover_ns: Vec<u64>,
    pub peak_frac: Vec<f64>,
    pub stored_bytes: usize,
}

#[derive(Default)]
pub struct Passes {
    pub samples: Vec<CellSamples>,
    /// Ops completed per second of op time, one value per timed pass.
    pub ops_s: Vec<f64>,
    /// Op time of the passes that ran with tracing on, and off.
    pub traced_pass_ns: Vec<f64>,
    pub untraced_pass_ns: Vec<f64>,
}

impl Passes {
    /// Record a timed pass of `ops` ops that took `ns` of op time.
    pub fn push(&mut self, tracing: bool, ops: usize, ns: u64) {
        self.ops_s.push(ops as f64 / (ns as f64 / 1e9));
        if tracing { &mut self.traced_pass_ns } else { &mut self.untraced_pass_ns }.push(ns as f64);
    }
}

/// One warm-up pass, checked in depth and discarded, then timed passes
/// until `seconds` have gone by (at least two; in a traced run at least two
/// of each kind, alternating tracing on and off to price the tracing).
pub fn run_passes<C: Cell>(
    cells: &mut [C],
    tr: &mut Tracer,
    seconds: f64,
    traced: bool,
    out: &mut Outcome,
) -> Passes {
    let mut passes = Passes::default();
    passes.samples.resize_with(cells.len(), CellSamples::default);
    let min_passes = if traced { 4 } else { 2 };
    let mut started = Instant::now();
    let mut pass = 0usize;
    loop {
        let warm_up = pass == 0;
        if pass == 1 {
            started = Instant::now();
        }
        if pass > min_passes && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let tracing = traced && !warm_up && pass % 2 == 1;
        tr.set_enabled(tracing);
        let (mut pass_ops, mut pass_ns) = (0usize, 0u64);
        for (i, cell) in cells.iter_mut().enumerate() {
            tr.cell = i as u32;
            let base = alloc::reset_peak();
            let t0 = Instant::now();
            let span = tr.begin("protect", Layer::Bench);
            let protected = cell.protect(tr);
            tr.end(span);
            let protect_ns = t0.elapsed().as_nanos() as u64;
            let container = match protected {
                Ok(c) => c,
                Err(why) => {
                    out.op(cell.name(), Some(format!("protect: {why}")));
                    continue;
                }
            };
            let t0 = Instant::now();
            let span = tr.begin("recover", Layer::Bench);
            let recovered = cell.recover(tr, &container);
            tr.end(span);
            let recover_ns = t0.elapsed().as_nanos() as u64;
            let peak = alloc::peak().saturating_sub(base);
            let (protect_failure, recover_failure) = match recovered {
                Ok(()) => cell.check(&container),
                Err(why) => (None, Some(why)),
            };
            out.op(cell.name(), protect_failure.map(|w| format!("protect: {w}")));
            out.op(cell.name(), recover_failure.map(|w| format!("recover: {w}")));
            pass_ops += 2;
            pass_ns += protect_ns + recover_ns;
            if !warm_up {
                let s = &mut passes.samples[i];
                s.protect_ns.push(protect_ns);
                s.recover_ns.push(recover_ns);
                s.peak_frac.push(peak as f64 / cell.input_bytes() as f64);
                s.stored_bytes = container.len();
            }
        }
        if !warm_up && pass_ops > 0 {
            passes.push(tracing, pass_ops, pass_ns);
        }
        pass += 1;
    }
    tr.set_enabled(false);
    passes
}

/// The end-to-end metrics every workload reports, from per-cell throughputs
/// and per-cell op latencies in nanoseconds.
pub struct EndToEnd<'a> {
    pub setup_s: f64,
    pub protect_mib_s: &'a [f64],
    pub recover_mib_s: &'a [f64],
    /// One value per timed pass; the median is reported.
    pub ops_s: &'a [f64],
    pub write_ns: Vec<Vec<u64>>,
    pub read_ns: Vec<Vec<u64>>,
    pub stored_frac: f64,
    pub peak_live_frac: f64,
}

/// Geometric mean over cells of each cell's nearest-rank percentile, in µs:
/// the median, or with `tail` the highest percentile up to p95 the cell's
/// sample count supports. Pooling the cells instead would report whichever
/// cell sits at that rank.
fn percentile_us(cells: &mut [Vec<u64>], tail: bool) -> f64 {
    let per_cell: Vec<f64> = cells
        .iter_mut()
        .map(|ns| {
            ns.sort_unstable();
            let p = if tail { tail_percentile(ns.len()) } else { 0.5 };
            percentile(ns, p) as f64 / 1e3
        })
        .collect();
    geomean(&per_cell)
}

impl EndToEnd<'_> {
    pub fn record(mut self, out: &mut Outcome) {
        self.write_ns.retain(|c| !c.is_empty());
        self.read_ns.retain(|c| !c.is_empty());
        if self.write_ns.is_empty() || self.read_ns.is_empty() {
            return; // every op failed; the run is reported incorrect
        }
        out.set("setup_s", self.setup_s);
        out.set("protect_mib_s", geomean(self.protect_mib_s));
        out.set("recover_mib_s", geomean(self.recover_mib_s));
        out.set("ops_s", median(self.ops_s));
        out.set("write_p50_us", percentile_us(&mut self.write_ns, false));
        out.set("write_p95_us", percentile_us(&mut self.write_ns, true));
        out.set("read_p50_us", percentile_us(&mut self.read_ns, false));
        out.set("read_p95_us", percentile_us(&mut self.read_ns, true));
        out.set("stored_frac", self.stored_frac);
        out.set("peak_live_frac", self.peak_live_frac);
    }
}

fn summary_json(s: &Summary) -> Json {
    Json::obj(vec![
        ("n", Json::Num(s.n as f64)),
        ("min", Json::Num(s.min)),
        ("q1", Json::Num(s.q1)),
        ("median", Json::Num(s.median)),
        ("q3", Json::Num(s.q3)),
        ("max", Json::Num(s.max)),
    ])
}

/// Fold the pass samples of a bulk workload into its end-to-end metrics,
/// per-cell rows and exact stored sizes. A cell's throughput is its input
/// size over the median op time.
pub fn record_bulk<C: Cell>(cells: &[C], passes: &Passes, setup_s: f64, out: &mut Outcome) {
    let (mut protect, mut recover, mut peaks) = (Vec::new(), Vec::new(), Vec::new());
    let (mut write_ns, mut read_ns) = (Vec::new(), Vec::new());
    let (mut stored, mut input) = (0usize, 0usize);
    for (cell, s) in cells.iter().zip(&passes.samples) {
        if s.protect_ns.is_empty() {
            continue;
        }
        let as_f64 = |v: &[u64]| v.iter().map(|&x| x as f64).collect::<Vec<_>>();
        let (p, r) = (summarize(&as_f64(&s.protect_ns)), summarize(&as_f64(&s.recover_ns)));
        let (p_rate, r_rate) =
            (mib_s(cell.input_bytes(), p.median), mib_s(cell.input_bytes(), r.median));
        protect.push(p_rate);
        recover.push(r_rate);
        peaks.push(median(&s.peak_frac));
        write_ns.push(s.protect_ns.clone());
        read_ns.push(s.recover_ns.clone());
        stored += s.stored_bytes;
        input += cell.input_bytes();
        out.pin(&format!("{}.stored_bytes", cell.name()), s.stored_bytes);
        out.cells.push(Json::obj(vec![
            ("cell", Json::Str(cell.name().to_string())),
            ("input_bytes", Json::Num(cell.input_bytes() as f64)),
            ("stored_bytes", Json::Num(s.stored_bytes as f64)),
            ("protect_mib_s", Json::Num(p_rate)),
            ("recover_mib_s", Json::Num(r_rate)),
            ("protect_ns", summary_json(&p)),
            ("recover_ns", summary_json(&r)),
            ("peak_live_frac", Json::Num(median(&s.peak_frac))),
        ]));
    }
    EndToEnd {
        setup_s,
        protect_mib_s: &protect,
        recover_mib_s: &recover,
        ops_s: &passes.ops_s,
        write_ns,
        read_ns,
        stored_frac: stored as f64 / input.max(1) as f64,
        peak_live_frac: geomean(&peaks),
    }
    .record(out);
}
