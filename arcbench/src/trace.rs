//! The benchmark's own spans, recorded around each call into a layer.
//!
//! The layers are measured from outside: a span names the public function
//! called and the crate it belongs to. Spans are held in memory and written
//! out when the run ends. A disabled tracer records nothing, which is how
//! the untraced passes run.

use std::time::Instant;

/// A crate of the repository, or the benchmark itself for op-level spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Bench,
    Pressio,
    Core,
}

impl Layer {
    fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Pressio => "pressio",
            Layer::Core => "core",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    /// Index of the span that caused this one; `None` for an op.
    pub parent: Option<usize>,
    /// Spans of one op share this identifier.
    pub op: u32,
    /// The workload cell the op ran on, from [`Tracer::cell`].
    pub cell: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    /// Stamped on every span; the runner sets it before a cell's ops.
    pub cell: u32,
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    ops: u32,
}

/// Handle returned by [`Tracer::begin`]; `None` while tracing is off.
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            cell: 0,
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            ops: 0,
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.open.is_empty(), "tracing toggled inside a span");
        self.enabled = on;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one. A span with no parent
    /// starts a new op.
    pub fn begin(&mut self, name: &'static str, layer: Layer) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let parent = self.open.last().copied();
        if parent.is_none() {
            self.ops += 1;
        }
        let now = self.now_ns();
        let (op, cell) = (self.ops, self.cell);
        self.spans.push(Span { name, layer, parent, op, cell, start_ns: now, end_ns: now });
        self.open.push(self.spans.len() - 1);
        Open(Some(self.spans.len() - 1))
    }

    pub fn end(&mut self, span: Open) {
        if let Some(i) = span.0 {
            assert_eq!(self.open.pop(), Some(i), "spans must close innermost first");
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Span around one call that opens no spans of its own.
    pub fn leaf<R>(&mut self, name: &'static str, layer: Layer, call: impl FnOnce() -> R) -> R {
        let span = self.begin(name, layer);
        let out = call();
        self.end(span);
        out
    }
}

/// Durations, in nanoseconds, of the spans called `name` on `cell`.
pub fn durations(spans: &[Span], name: &str, cell: u32) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name && s.cell == cell).map(|s| s.dur_ns() as f64).collect()
}

/// Self time of each span: its duration minus what its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Where the time of the ops named `op_name` went.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Ledger {
    /// Wall time of the ops.
    pub wall_ns: u64,
    /// Part of it covered by child spans; the rest is the benchmark's own.
    pub covered_ns: u64,
    /// Self time of the spans below the ops that belong to `Layer::Pressio`
    /// and to `Layer::Core`.
    pub pressio_ns: u64,
    pub core_ns: u64,
}

impl Ledger {
    pub fn coverage(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.covered_ns as f64 / self.wall_ns as f64
    }
}

pub fn ledger(spans: &[Span], op_names: &[&str]) -> Ledger {
    let own = self_times(spans);
    // The op a span belongs to is the root of its parent chain; parents
    // precede children, so one forward pass resolves every root.
    let mut root: Vec<usize> = Vec::with_capacity(spans.len());
    for (i, s) in spans.iter().enumerate() {
        root.push(s.parent.map_or(i, |p| root[p]));
    }
    let mut l = Ledger::default();
    for (i, s) in spans.iter().enumerate() {
        if !op_names.contains(&spans[root[i]].name) {
            continue;
        }
        match (s.parent, s.layer) {
            (None, _) => {
                l.wall_ns += s.dur_ns();
                l.covered_ns += s.dur_ns() - own[i];
            }
            (Some(_), Layer::Pressio) => l.pressio_ns += own[i],
            (Some(_), Layer::Core) => l.core_ns += own[i],
            (Some(_), Layer::Bench) => {}
        }
    }
    l
}

/// One JSON object per span, in start order.
pub fn to_json(spans: &[Span]) -> String {
    let own = self_times(spans);
    let mut out = String::from("{\"spans\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\": {i}, \"name\": \"{}\", \"layer\": \"{}\", \"parent\": {parent}, \"op\": {}, \
             \"cell\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}{}\n",
            s.name,
            s.layer.name(),
            s.op,
            s.cell,
            s.start_ns,
            s.end_ns,
            own[i],
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, layer: Layer, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span { name, layer, parent, op: 1, cell: 0, start_ns: start, end_ns: end }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span("protect", Layer::Bench, None, 0, 100),
            span("compress", Layer::Pressio, Some(0), 5, 65), // sibling 1, with a child
            span("inner", Layer::Core, Some(1), 10, 30),
            span("encode", Layer::Core, Some(0), 70, 95), // sibling 2
        ];
        assert_eq!(self_times(&spans), vec![100 - 60 - 25, 60 - 20, 20, 25]);
        let l = ledger(&spans, &["protect"]);
        assert_eq!((l.wall_ns, l.covered_ns), (100, 85));
        assert_eq!((l.pressio_ns, l.core_ns), (40, 45));
        assert!((l.coverage() - 0.85).abs() < 1e-12);
        assert_eq!(ledger(&spans, &["recover"]), Ledger::default());
    }

    #[test]
    fn tracer_nests_numbers_ops_and_goes_quiet_when_off() {
        let mut t = Tracer::new();
        let off = t.begin("ignored", Layer::Bench);
        t.end(off);
        assert!(t.spans().is_empty());
        t.set_enabled(true);
        for _ in 0..2 {
            let op = t.begin("read", Layer::Bench);
            let got = t.leaf("core.decode_range", Layer::Core, || 7);
            assert_eq!(got, 7);
            t.end(op);
        }
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent, s[3].parent),
            (None, Some(0), None, Some(2))
        );
        assert_eq!((s[0].op, s[1].op, s[2].op, s[3].op), (1, 1, 2, 2));
        assert!(s[1].start_ns >= s[0].start_ns && s[1].end_ns <= s[0].end_ns);
        assert!(to_json(s).contains("\"name\": \"core.decode_range\""));
    }
}
