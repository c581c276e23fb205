//! # arc-telemetry — zero-dependency instrumentation facade
//!
//! Stage-level visibility for the ARC pipeline (ROADMAP: "fast as the
//! hardware allows" needs to know *where* time goes, not just whole
//! encode/decode walls). The facade offers four primitives behind one
//! global registry:
//!
//! * **Spans** — RAII wall-clock timers aggregated per hierarchical
//!   dotted path (`span("ecc.encode")` nested inside `span("core")`
//!   records under `core.ecc.encode`; a fresh thread starts a fresh
//!   path, so worker-side spans use absolute names).
//! * **Counters** — monotonic `u64` sums (`counter_add`).
//! * **Histograms** — log₂-bucketed value distributions
//!   (`histogram_record`).
//! * **Events** — counted, last-value-retained structured strings whose
//!   formatting closure only runs when the feature is on (`event`).
//!
//! Two auxiliary types keep hot loops cheap: [`Stopwatch`] (manual
//! start/elapsed) and [`StageAccumulator`] (local count+ns accumulation,
//! flushed to the registry once on drop — used by the per-block ZFP
//! pipeline so the registry is touched once per *call*, not per block).
//!
//! ## Zero cost when off
//!
//! Everything is compiled twice: a live implementation under
//! `#[cfg(feature = "telemetry")]` and a no-op twin otherwise. The no-op
//! twin has the same signatures but empty `#[inline(always)]` bodies and
//! zero-sized guard types, so call sites carry **no** `cfg()` guards and
//! the optimizer erases the instrumentation entirely — there is no
//! registry, no atomics, no `Instant::now()` in the off build. `arcbench`
//! builds with default features, so every `BENCHMARK.json` end-to-end
//! metric is measured on the off build.
//!
//! ## Reading the data
//!
//! [`snapshot()`] returns an owned, sorted [`Snapshot`] that renders to
//! Prometheus text exposition ([`Snapshot::to_prometheus_text`]) or JSON
//! ([`Snapshot::to_json`]); `arc --metrics[=path]` in `arc-cli` wires
//! this to stdout or a file. [`reset()`] clears the registry (tests).

#![warn(missing_docs)]

// ---------------------------------------------------------------------------
// Snapshot model + exporters (shared by the live and no-op builds)
// ---------------------------------------------------------------------------

/// Aggregated totals for one span path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Full dotted path (`"ecc.encode.chunk"`).
    pub path: String,
    /// Number of completed span guards.
    pub count: u64,
    /// Total wall-clock nanoseconds across all completions.
    pub total_ns: u64,
}

/// Value of one monotonic counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Counter name.
    pub name: String,
    /// Accumulated value.
    pub value: u64,
}

/// One log₂ histogram: bucket `i` holds values `v` with
/// `floor(log2(v)) + 1 == i` (bucket 0 holds zeros), so the exported
/// upper bound of bucket `i` is `2^i - 1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Histogram name.
    pub name: String,
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values (saturating).
    pub sum: u64,
    /// `(inclusive upper bound, count)` for each non-empty bucket,
    /// ascending.
    pub buckets: Vec<(u64, u64)>,
}

/// One named event stream: how many times it fired and the most recent
/// rendered detail string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventSnapshot {
    /// Event name.
    pub name: String,
    /// Number of occurrences.
    pub count: u64,
    /// Detail string of the most recent occurrence.
    pub last: String,
}

/// An owned, deterministic (name-sorted) copy of the registry contents.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// All span aggregates.
    pub spans: Vec<SpanSnapshot>,
    /// All counters.
    pub counters: Vec<CounterSnapshot>,
    /// All histograms.
    pub histograms: Vec<HistogramSnapshot>,
    /// All events.
    pub events: Vec<EventSnapshot>,
}

impl Snapshot {
    /// True when nothing has been recorded (or the feature is off).
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
            && self.counters.is_empty()
            && self.histograms.is_empty()
            && self.events.is_empty()
    }

    /// Look up a span aggregate by exact path.
    pub fn span(&self, path: &str) -> Option<&SpanSnapshot> {
        self.spans.iter().find(|s| s.path == path)
    }

    /// Look up a counter value by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|c| c.name == name).map_or(0, |c| c.value)
    }

    /// Render as Prometheus text exposition format (metric families
    /// `arc_span_seconds_total`, `arc_span_calls_total`,
    /// `arc_counter_total`, `arc_histogram`, `arc_event_total`).
    pub fn to_prometheus_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if !self.spans.is_empty() {
            out.push_str("# TYPE arc_span_seconds_total counter\n");
            for s in &self.spans {
                let _ = writeln!(
                    out,
                    "arc_span_seconds_total{{span=\"{}\"}} {:.9}",
                    prom_escape(&s.path),
                    s.total_ns as f64 / 1e9
                );
            }
            out.push_str("# TYPE arc_span_calls_total counter\n");
            for s in &self.spans {
                let _ = writeln!(
                    out,
                    "arc_span_calls_total{{span=\"{}\"}} {}",
                    prom_escape(&s.path),
                    s.count
                );
            }
        }
        if !self.counters.is_empty() {
            out.push_str("# TYPE arc_counter_total counter\n");
            for c in &self.counters {
                let _ = writeln!(
                    out,
                    "arc_counter_total{{name=\"{}\"}} {}",
                    prom_escape(&c.name),
                    c.value
                );
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("# TYPE arc_histogram histogram\n");
            for h in &self.histograms {
                let name = prom_escape(&h.name);
                let mut cumulative = 0u64;
                for &(le, n) in &h.buckets {
                    cumulative += n;
                    let _ = writeln!(
                        out,
                        "arc_histogram_bucket{{name=\"{name}\",le=\"{le}\"}} {cumulative}"
                    );
                }
                let _ = writeln!(
                    out,
                    "arc_histogram_bucket{{name=\"{name}\",le=\"+Inf\"}} {}",
                    h.count
                );
                let _ = writeln!(out, "arc_histogram_sum{{name=\"{name}\"}} {}", h.sum);
                let _ = writeln!(out, "arc_histogram_count{{name=\"{name}\"}} {}", h.count);
            }
        }
        if !self.events.is_empty() {
            out.push_str("# TYPE arc_event_total counter\n");
            for e in &self.events {
                let _ = writeln!(
                    out,
                    "arc_event_total{{name=\"{}\"}} {}",
                    prom_escape(&e.name),
                    e.count
                );
            }
        }
        out
    }

    /// Render as a JSON document (hand-rolled — the repo takes no serde
    /// dependency).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\n  \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    {{\"path\": \"{}\", \"count\": {}, \"total_ns\": {}}}",
                if i == 0 { "" } else { "," },
                json_escape(&s.path),
                s.count,
                s.total_ns
            );
        }
        if !self.spans.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"counters\": [");
        for (i, c) in self.counters.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    {{\"name\": \"{}\", \"value\": {}}}",
                if i == 0 { "" } else { "," },
                json_escape(&c.name),
                c.value
            );
        }
        if !self.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"histograms\": [");
        for (i, h) in self.histograms.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    {{\"name\": \"{}\", \"count\": {}, \"sum\": {}, \"buckets\": [",
                if i == 0 { "" } else { "," },
                json_escape(&h.name),
                h.count,
                h.sum
            );
            for (j, &(le, n)) in h.buckets.iter().enumerate() {
                let _ = write!(
                    out,
                    "{}{{\"le\": {le}, \"count\": {n}}}",
                    if j == 0 { "" } else { ", " }
                );
            }
            out.push_str("]}");
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"events\": [");
        for (i, e) in self.events.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    {{\"name\": \"{}\", \"count\": {}, \"last\": \"{}\"}}",
                if i == 0 { "" } else { "," },
                json_escape(&e.name),
                e.count,
                json_escape(&e.last)
            );
        }
        if !self.events.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

fn prom_escape(s: &str) -> String {
    // Label values escape backslash, double quote, and newline.
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Live implementation
// ---------------------------------------------------------------------------

#[cfg(feature = "telemetry")]
mod imp {
    use std::cell::RefCell;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex, OnceLock, RwLock};
    use std::time::Instant;

    use super::{CounterSnapshot, EventSnapshot, HistogramSnapshot, Snapshot, SpanSnapshot};

    #[derive(Default)]
    struct SpanStat {
        count: AtomicU64,
        total_ns: AtomicU64,
    }

    struct HistStat {
        count: AtomicU64,
        sum: AtomicU64,
        // Bucket i: values v with floor(log2(v)) + 1 == i; bucket 0: v == 0.
        buckets: [AtomicU64; 65],
    }

    impl Default for HistStat {
        fn default() -> Self {
            Self {
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            }
        }
    }

    #[derive(Default)]
    struct EventStat {
        count: AtomicU64,
        last: Mutex<String>,
    }

    /// The single process-wide registry. Maps are name→Arc so the hot
    /// path holds the `RwLock` read guard only for the lookup, then
    /// updates lock-free atomics.
    #[derive(Default)]
    struct Registry {
        spans: RwLock<HashMap<String, Arc<SpanStat>>>,
        counters: RwLock<HashMap<String, Arc<AtomicU64>>>,
        histograms: RwLock<HashMap<String, Arc<HistStat>>>,
        events: RwLock<HashMap<String, Arc<EventStat>>>,
    }

    fn registry() -> &'static Registry {
        static REGISTRY: OnceLock<Registry> = OnceLock::new();
        REGISTRY.get_or_init(Registry::default)
    }

    /// Fetch-or-insert an entry in one of the registry maps.
    fn stat_for<T: Default>(map: &RwLock<HashMap<String, Arc<T>>>, name: &str) -> Arc<T> {
        if let Some(s) = map.read().unwrap_or_else(std::sync::PoisonError::into_inner).get(name) {
            return Arc::clone(s);
        }
        let mut w = map.write().unwrap_or_else(std::sync::PoisonError::into_inner);
        Arc::clone(w.entry(name.to_string()).or_default())
    }

    thread_local! {
        /// The current dotted span path on this thread. Fresh threads
        /// start empty, so spans opened on pool workers record under
        /// their own (absolute) names.
        static SPAN_PATH: RefCell<String> = const { RefCell::new(String::new()) };
    }

    /// Whether the `telemetry` feature is compiled in.
    #[inline]
    pub fn enabled() -> bool {
        true
    }

    /// RAII guard returned by [`span`]; records elapsed wall time under
    /// the hierarchical path on drop.
    pub struct SpanGuard {
        truncate_to: usize,
        start: Instant,
    }

    /// Open a timed span. The name is appended to the thread's current
    /// dotted path; the segment (and its time) is recorded when the
    /// returned guard drops.
    #[inline]
    pub fn span(name: &'static str) -> SpanGuard {
        let truncate_to = SPAN_PATH.with(|p| {
            let mut p = p.borrow_mut();
            let at = p.len();
            if !p.is_empty() {
                p.push('.');
            }
            p.push_str(name);
            at
        });
        SpanGuard { truncate_to, start: Instant::now() }
    }

    impl Drop for SpanGuard {
        fn drop(&mut self) {
            let ns = self.start.elapsed().as_nanos() as u64;
            SPAN_PATH.with(|p| {
                let mut p = p.borrow_mut();
                record_span(&p, 1, ns);
                p.truncate(self.truncate_to);
            });
        }
    }

    fn record_span(path: &str, count: u64, ns: u64) {
        let stat = stat_for(&registry().spans, path);
        // relaxed: independent monotonic counters; nothing synchronizes on them.
        stat.count.fetch_add(count, Ordering::Relaxed);
        stat.total_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Add `delta` to the named monotonic counter.
    #[inline]
    pub fn counter_add(name: &'static str, delta: u64) {
        let stat = stat_for(&registry().counters, name);
        // relaxed: monotonic counter; readers tolerate any interleaving.
        stat.fetch_add(delta, Ordering::Relaxed);
    }

    /// Record one value into the named log₂ histogram.
    #[inline]
    pub fn histogram_record(name: &'static str, value: u64) {
        let stat = stat_for(&registry().histograms, name);
        // relaxed: count/sum/bucket cells are independent; a snapshot racing
        // this update may be off by one entry, which reporting tolerates.
        stat.count.fetch_add(1, Ordering::Relaxed);
        stat.sum.fetch_add(value, Ordering::Relaxed);
        let bucket = if value == 0 { 0 } else { 64 - value.leading_zeros() as usize };
        // relaxed: same single-cell increment as count/sum above.
        stat.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Record a structured event. `detail` only runs when telemetry is
    /// compiled in, so formatting costs nothing in the off build.
    #[inline]
    pub fn event<F: FnOnce() -> String>(name: &'static str, detail: F) {
        let stat = stat_for(&registry().events, name);
        // relaxed: the count is advisory; `last` is guarded by its own mutex.
        stat.count.fetch_add(1, Ordering::Relaxed);
        *stat.last.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = detail();
    }

    /// Manual wall-clock timer for sites where an RAII guard is awkward
    /// (multiple exits, `?` inside the timed region).
    pub struct Stopwatch(Instant);

    impl Stopwatch {
        /// Start timing.
        #[inline]
        pub fn start() -> Self {
            Stopwatch(Instant::now())
        }

        /// Nanoseconds since [`Stopwatch::start`].
        #[inline]
        pub fn elapsed_ns(&self) -> u64 {
            self.0.elapsed().as_nanos() as u64
        }
    }

    /// Local span accumulator for per-item hot loops: `add_ns`/`time`
    /// touch only plain fields; the registry sees one update when the
    /// accumulator drops. Records under the absolute `path`, ignoring
    /// the thread's span stack (accumulators typically outlive many
    /// nested iterations).
    pub struct StageAccumulator {
        path: &'static str,
        count: u64,
        total_ns: u64,
    }

    impl StageAccumulator {
        /// New empty accumulator for `path`.
        #[inline]
        pub fn new(path: &'static str) -> Self {
            StageAccumulator { path, count: 0, total_ns: 0 }
        }

        /// Fold in one timed occurrence of `ns` nanoseconds.
        #[inline]
        pub fn add_ns(&mut self, ns: u64) {
            self.count += 1;
            self.total_ns += ns;
        }

        /// Time the closure and fold the elapsed wall time in.
        #[inline]
        pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
            let t = Instant::now();
            let r = f();
            self.add_ns(t.elapsed().as_nanos() as u64);
            r
        }
    }

    impl Drop for StageAccumulator {
        fn drop(&mut self) {
            if self.count > 0 {
                record_span(self.path, self.count, self.total_ns);
            }
        }
    }

    /// Copy the registry out into a name-sorted [`Snapshot`].
    pub fn snapshot() -> Snapshot {
        let reg = registry();
        let mut spans: Vec<SpanSnapshot> = reg
            .spans
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .map(|(path, s)| SpanSnapshot {
                path: path.clone(),
                // relaxed: snapshots race live writers by design; per-cell
                // atomicity is all the report needs.
                count: s.count.load(Ordering::Relaxed),
                total_ns: s.total_ns.load(Ordering::Relaxed),
            })
            .collect();
        spans.sort_by(|a, b| a.path.cmp(&b.path));
        let mut counters: Vec<CounterSnapshot> = reg
            .counters
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .map(|(name, v)| CounterSnapshot {
                name: name.clone(),
                // relaxed: snapshot read of an advisory counter.
                value: v.load(Ordering::Relaxed),
            })
            .collect();
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        let mut histograms: Vec<HistogramSnapshot> = reg
            .histograms
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .map(|(name, h)| {
                let buckets = h
                    .buckets
                    .iter()
                    .enumerate()
                    .filter_map(|(i, b)| {
                        // relaxed: snapshot read of an advisory bucket count.
                        let n = b.load(Ordering::Relaxed);
                        (n > 0).then(|| {
                            let le = if i >= 64 { u64::MAX } else { (1u64 << i) - 1 };
                            (le, n)
                        })
                    })
                    .collect();
                HistogramSnapshot {
                    name: name.clone(),
                    // relaxed: snapshot reads race live writers by design.
                    count: h.count.load(Ordering::Relaxed),
                    sum: h.sum.load(Ordering::Relaxed),
                    buckets,
                }
            })
            .collect();
        histograms.sort_by(|a, b| a.name.cmp(&b.name));
        let mut events: Vec<EventSnapshot> = reg
            .events
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .map(|(name, e)| EventSnapshot {
                name: name.clone(),
                // relaxed: snapshot read of an advisory event count.
                count: e.count.load(Ordering::Relaxed),
                last: e.last.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone(),
            })
            .collect();
        events.sort_by(|a, b| a.name.cmp(&b.name));
        Snapshot { spans, counters, histograms, events }
    }

    /// Clear every registered span, counter, histogram, and event.
    pub fn reset() {
        let reg = registry();
        reg.spans.write().unwrap_or_else(std::sync::PoisonError::into_inner).clear();
        reg.counters.write().unwrap_or_else(std::sync::PoisonError::into_inner).clear();
        reg.histograms.write().unwrap_or_else(std::sync::PoisonError::into_inner).clear();
        reg.events.write().unwrap_or_else(std::sync::PoisonError::into_inner).clear();
    }
}

// ---------------------------------------------------------------------------
// No-op twin (feature off): identical signatures, empty bodies, ZST guards
// ---------------------------------------------------------------------------

#[cfg(not(feature = "telemetry"))]
mod imp {
    use super::Snapshot;

    /// Whether the `telemetry` feature is compiled in.
    #[inline(always)]
    pub fn enabled() -> bool {
        false
    }

    /// Zero-sized stand-in for the live span guard.
    #[must_use]
    pub struct SpanGuard;

    /// No-op: returns a zero-sized guard.
    #[inline(always)]
    pub fn span(_name: &'static str) -> SpanGuard {
        SpanGuard
    }

    /// No-op.
    #[inline(always)]
    pub fn counter_add(_name: &'static str, _delta: u64) {}

    /// No-op.
    #[inline(always)]
    pub fn histogram_record(_name: &'static str, _value: u64) {}

    /// No-op: `detail` is never invoked.
    #[inline(always)]
    pub fn event<F: FnOnce() -> String>(_name: &'static str, _detail: F) {}

    /// Zero-sized stand-in for the live stopwatch.
    pub struct Stopwatch;

    impl Stopwatch {
        /// No-op.
        #[inline(always)]
        pub fn start() -> Self {
            Stopwatch
        }

        /// Always 0.
        #[inline(always)]
        pub fn elapsed_ns(&self) -> u64 {
            0
        }
    }

    /// Zero-sized stand-in for the live stage accumulator.
    pub struct StageAccumulator;

    impl StageAccumulator {
        /// No-op.
        #[inline(always)]
        pub fn new(_path: &'static str) -> Self {
            StageAccumulator
        }

        /// No-op.
        #[inline(always)]
        pub fn add_ns(&mut self, _ns: u64) {}

        /// Runs the closure untimed.
        #[inline(always)]
        pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
            f()
        }
    }

    /// Always empty.
    #[inline(always)]
    pub fn snapshot() -> Snapshot {
        Snapshot::default()
    }

    /// No-op.
    #[inline(always)]
    pub fn reset() {}
}

pub use imp::{
    counter_add, enabled, event, histogram_record, reset, snapshot, span, SpanGuard,
    StageAccumulator, Stopwatch,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(feature = "telemetry")]
    mod live {
        use super::super::*;

        /// The registry is global, so every assertion lives in this one
        /// test fn; `cargo test` may run other *binaries* concurrently
        /// but never other fns in this module.
        #[test]
        fn facade_end_to_end() {
            reset();

            // Spans: nesting builds dotted paths; siblings aggregate.
            {
                let _a = span("outer");
                {
                    let _b = span("inner");
                }
                {
                    let _b = span("inner");
                }
            }
            {
                let _a = span("outer");
            }
            let snap = snapshot();
            assert_eq!(snap.span("outer").unwrap().count, 2);
            assert_eq!(snap.span("outer.inner").unwrap().count, 2);
            assert!(
                snap.span("outer").unwrap().total_ns >= snap.span("outer.inner").unwrap().total_ns
            );
            assert!(snap.span("inner").is_none());

            // Counters: exact sums across threads.
            let threads: Vec<_> = (0..8)
                .map(|_| {
                    std::thread::spawn(|| {
                        for _ in 0..1000 {
                            counter_add("t.count", 3);
                        }
                    })
                })
                .collect();
            for t in threads {
                t.join().unwrap();
            }
            assert_eq!(snapshot().counter("t.count"), 8 * 1000 * 3);

            // Histogram: log2 buckets with exact count/sum.
            for v in [0u64, 1, 2, 3, 4, 1000] {
                histogram_record("t.hist", v);
            }
            let snap = snapshot();
            let h = snap.histograms.iter().find(|h| h.name == "t.hist").unwrap();
            assert_eq!(h.count, 6);
            assert_eq!(h.sum, 1010);
            // 0 → le 0; 1 → le 1; 2,3 → le 3; 4 → le 7; 1000 → le 1023.
            assert_eq!(h.buckets, vec![(0, 1), (1, 1), (3, 2), (7, 1), (1023, 1)]);

            // Events: count + last detail; closure runs.
            event("t.event", || "first".to_string());
            event("t.event", || format!("n={}", 2));
            let snap = snapshot();
            let e = snap.events.iter().find(|e| e.name == "t.event").unwrap();
            assert_eq!((e.count, e.last.as_str()), (2, "n=2"));

            // Stage accumulator: one registry entry, N local adds.
            {
                let mut acc = StageAccumulator::new("t.stage");
                for _ in 0..5 {
                    acc.time(|| std::hint::black_box(2 + 2));
                }
                acc.add_ns(7);
            }
            let snap = snapshot();
            let s = snap.span("t.stage").unwrap();
            assert_eq!(s.count, 6);
            assert!(s.total_ns >= 7);

            // Stopwatch advances.
            let sw = Stopwatch::start();
            std::hint::black_box(vec![0u8; 4096]);
            let _ = sw.elapsed_ns();

            // Exporters mention everything and stay parseable-ish.
            let prom = snap.to_prometheus_text();
            assert!(prom.contains("arc_span_seconds_total{span=\"outer.inner\"}"));
            assert!(prom.contains("arc_counter_total{name=\"t.count\"} 24000"));
            assert!(prom.contains("arc_histogram_bucket{name=\"t.hist\",le=\"+Inf\"} 6"));
            assert!(prom.contains("arc_event_total{name=\"t.event\"} 2"));
            let json = snap.to_json();
            assert!(json.contains("\"path\": \"outer.inner\""));
            assert!(json.contains("\"value\": 24000"));
            assert!(json.contains("\"last\": \"n=2\""));

            // Reset empties the registry.
            reset();
            assert!(snapshot().is_empty());

            // Worker threads start fresh paths (absolute naming).
            {
                let _outer = span("main");
                std::thread::spawn(|| {
                    let _w = span("worker.item");
                })
                .join()
                .unwrap();
            }
            let snap = snapshot();
            assert!(snap.span("worker.item").is_some());
            assert!(snap.span("main.worker.item").is_none());
            reset();
        }
    }

    #[cfg(not(feature = "telemetry"))]
    mod off {
        use super::super::*;

        #[test]
        fn everything_is_inert() {
            assert!(!enabled());
            let _g = span("x");
            counter_add("c", 5);
            histogram_record("h", 9);
            event("e", || unreachable!("detail closure must not run when off"));
            let mut acc = StageAccumulator::new("s");
            assert_eq!(acc.time(|| 41 + 1), 42);
            acc.add_ns(5);
            let sw = Stopwatch::start();
            assert_eq!(sw.elapsed_ns(), 0);
            reset();
            let snap = snapshot();
            assert!(snap.is_empty());
            assert_eq!(snap.counter("c"), 0);
            // Exporters render valid empty documents.
            assert_eq!(snap.to_prometheus_text(), "");
            assert!(snap.to_json().contains("\"spans\": []"));
        }
    }

    #[test]
    fn exporter_escaping() {
        let snap = Snapshot {
            spans: vec![SpanSnapshot { path: "a\"b\\c\nd".into(), count: 1, total_ns: 5 }],
            counters: vec![],
            histograms: vec![],
            events: vec![EventSnapshot {
                name: "e".into(),
                count: 1,
                last: "tab\there \"q\"".into(),
            }],
        };
        let prom = snap.to_prometheus_text();
        assert!(prom.contains("span=\"a\\\"b\\\\c\\nd\""));
        let json = snap.to_json();
        assert!(json.contains("a\\\"b\\\\c\\nd"));
        assert!(json.contains("tab\\there \\\"q\\\""));
    }
}
