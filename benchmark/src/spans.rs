//! In-memory spans recorded by the harness around each call into a
//! layer. A span carries a name (`<layer>.<what>`), start and end in
//! nanoseconds since the tracer was created, and the span it was opened
//! under. Nothing is written until the run ends.
//!
//! Some costs are known only as totals, never as intervals: the
//! engine's `PhaseProfiler` sums each phase over a run, and the campaign
//! workload measures the layers inside `run_campaign_with` by replaying
//! them from outside. Those become *attributed* spans: children of the
//! span they happened in, laid end to end from its start, flagged
//! `attributed` in the span file.
//!
//! A layer's self time is its span's duration minus the part of that
//! interval its children cover ([`self_times`]).

use serde::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `<layer>.<what>`, e.g. `sim.run`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Known as a total only; placed end to end inside its parent.
    pub attributed: bool,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer: the name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans when enabled; every call is a no-op otherwise, so the
/// untraced run carries no tracing cost beyond a branch.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Per attributed parent: ns already laid out inside it.
    attributed_fill: BTreeMap<usize, u64>,
}

/// Handle of an open span (meaningless when tracing is off).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

impl Tracer {
    /// A tracer; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Self::with_origin(enabled, Instant::now())
    }

    /// A tracer sharing another tracer's time origin (one per thread).
    pub fn with_origin(enabled: bool, origin: Instant) -> Self {
        Self {
            enabled,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
            attributed_fill: BTreeMap::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            attributed: false,
        });
        self.stack.push(id);
        SpanId(id)
    }

    /// Close a span opened by [`enter`](Self::enter). Spans close in
    /// reverse order of opening.
    pub fn exit(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let top = self.stack.pop();
        assert_eq!(top, Some(id.0), "spans must close innermost first");
        self.spans[id.0].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    /// Record `dur_ns` of `name` inside the closed span `parent`, as an
    /// attributed child laid out after the children attributed before
    /// it. Clipped to the parent's remaining room; nothing is recorded
    /// for a zero duration.
    pub fn attribute(&mut self, parent: SpanId, name: &'static str, dur_ns: u64) -> SpanId {
        if !self.enabled || dur_ns == 0 || parent.0 >= self.spans.len() {
            return SpanId(usize::MAX);
        }
        let p = &self.spans[parent.0];
        let fill = self.attributed_fill.entry(parent.0).or_insert(0);
        let start_ns = (p.start_ns + *fill).min(p.end_ns);
        let end_ns = (start_ns + dur_ns).min(p.end_ns);
        *fill += end_ns - start_ns;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent.0),
            attributed: true,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Every recorded span named `name`.
    pub fn named(&self, name: &str) -> Vec<SpanId> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(SpanId)
            .collect()
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Take the recorded spans, leaving the tracer empty.
    pub fn take(&mut self) -> Vec<Span> {
        assert!(self.stack.is_empty(), "spans still open");
        self.attributed_fill.clear();
        std::mem::take(&mut self.spans)
    }
}

/// Append `more` (one thread's spans) to `all`, re-basing parent links.
pub fn append(all: &mut Vec<Span>, more: Vec<Span>) {
    let base = all.len();
    all.extend(more.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Length of the union of `intervals`, each clipped to `[lo, hi)`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Self time of every span: its duration minus the part of its interval
/// its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.dur_ns() - covered_ns(kids, s.start_ns, s.end_ns))
        .collect()
}

/// Self time summed per layer.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by_layer = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *by_layer.entry(s.layer()).or_insert(0) += own;
    }
    by_layer
}

/// Total duration of the spans named `name`.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .sum()
}

/// The span file: a JSON array with one span object per line.
pub fn to_json(spans: &[Span]) -> String {
    let lines: Vec<String> = spans
        .iter()
        .map(|s| {
            let v = Value::Object(vec![
                ("name".into(), Value::Str(s.name.into())),
                ("start_ns".into(), Value::UInt(s.start_ns)),
                ("end_ns".into(), Value::UInt(s.end_ns)),
                (
                    "parent".into(),
                    s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                ),
                ("attributed".into(), Value::Bool(s.attributed)),
            ]);
            serde_json::to_string(&v).expect("span serializes")
        })
        .collect();
    format!("[\n{}\n]\n", lines.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            attributed: false,
        }
    }

    #[test]
    fn self_times_of_nested_spans_partition_the_root() {
        let spans = vec![
            span("harness.iteration", 0, 100, None),
            span("sim.run", 10, 60, Some(0)),
            span("protocols.propose", 10, 30, Some(1)),
            span("analysis.forensics", 60, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![20, 30, 20, 30]);
        let layers = layer_self_ns(&spans);
        assert_eq!(layers["harness"], 20);
        assert_eq!(layers["sim"], 30);
        assert_eq!(layers["protocols"], 20);
        assert_eq!(layers["analysis"], 30);
        assert_eq!(layers.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_subtracted_once() {
        let spans = vec![
            span("service.job", 0, 100, None),
            span("service.a", 10, 60, Some(0)),
            span("service.b", 50, 80, Some(0)),
        ];
        // Union of the children is [10, 80).
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![span("a.x", 10, 20, None), span("b.y", 0, 15, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 15]);
    }

    #[test]
    fn attributed_children_fill_the_parent_end_to_end() {
        let mut t = Tracer::new(true);
        let root = t.enter("sim.run");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(root);
        let dur = t.spans()[0].dur_ns();
        t.attribute(root, "protocols.propose", dur / 2);
        t.attribute(root, "faults.faults", dur); // clipped to the rest
        let spans = t.take();
        assert_eq!(spans[1].start_ns, spans[0].start_ns);
        assert_eq!(spans[2].start_ns, spans[1].end_ns);
        assert_eq!(spans[2].end_ns, spans[0].end_ns);
        assert!(spans[1].attributed && spans[2].attributed);
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.enter("sim.run");
        t.attribute(id, "protocols.propose", 5);
        t.exit(id);
        assert!(t.take().is_empty());
    }

    #[test]
    fn span_file_is_a_json_array_of_one_span_per_line() {
        let spans = vec![span("a.x", 0, 10, None), span("b.y", 2, 5, Some(0))];
        let text = to_json(&spans);
        assert_eq!(text.lines().count(), 4);
        let v: Value = serde_json::from_str(&text).unwrap();
        let Value::Array(items) = v else { panic!() };
        assert_eq!(items[1].get("parent").and_then(Value::as_u64), Some(0));
        assert_eq!(items[0].get("name").and_then(Value::as_str), Some("a.x"));
    }

    #[test]
    fn nesting_and_append_rebase_parents() {
        let origin = Instant::now();
        let mut t = Tracer::with_origin(true, origin);
        t.span("harness.iteration", || ());
        let mut a = t.take();
        let mut u = Tracer::with_origin(true, origin);
        let outer = u.enter("service.job");
        u.span("service.submit", || ());
        u.exit(outer);
        append(&mut a, u.take());
        assert_eq!(a.len(), 3);
        assert_eq!(a[1].parent, None);
        assert_eq!(a[2].parent, Some(1));
        assert_eq!(a[2].layer(), "service");
    }
}
