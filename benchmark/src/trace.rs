//! Spans recorded from outside the program: one around every call the
//! benchmark makes into a layer. Spans stay in memory until the run ends;
//! then they become a Chrome trace-event file and a per-layer table of self
//! time (a span's duration minus the part its children cover).

use crate::json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Position of the span in its tracer.
    pub id: u32,
    /// The span that was open on the same thread when this one began.
    pub parent: Option<u32>,
    /// Shared by all spans of one batch offer or one query.
    pub op: u64,
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// The benchmark thread that made the call (0 = main).
    pub tid: u32,
    /// Start, in ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, in ns since the tracer's epoch.
    pub end_ns: u64,
    /// Byte and record counts at the boundary.
    pub args: Vec<(&'static str, u64)>,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer the call went into: the part of the name before the dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Handle returned by [`Tracer::begin`]; give it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

/// A per-thread span recorder. Switched off it records nothing and costs
/// one branch per call, so the same workload code serves the untraced run
/// that the end-to-end metrics come from.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    tid: u32,
    epoch: Instant,
    op: u64,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer::new(false)
    }

    /// A recording tracer for the main thread; its creation is time zero.
    pub fn on() -> Self {
        Tracer::new(true)
    }

    fn new(on: bool) -> Self {
        Tracer {
            on,
            tid: 0,
            epoch: Instant::now(),
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer for another benchmark thread, on the same clock. Hand it
    /// back with [`Tracer::absorb`] once the thread has been joined.
    pub fn fork(&self, tid: u32) -> Tracer {
        Tracer {
            on: self.on,
            tid,
            epoch: self.epoch,
            // Keep operation ids of different threads apart.
            op: u64::from(tid) << 40,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Take over the spans a forked tracer recorded.
    pub fn absorb(&mut self, other: Tracer) {
        append(&mut self.spans, other.spans);
    }

    /// Start a new operation: the spans that follow belong to one batch
    /// offer or one query.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Open a span; spans begun before it is closed become its children.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            op: self.op,
            name,
            tid: self.tid,
            start_ns: now,
            end_ns: now,
            args: Vec::new(),
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Close a span, attaching the counts measured at its boundary.
    pub fn end(&mut self, open: Open, args: &[(&'static str, u64)]) {
        let Some(id) = open.0 else { return };
        let now = self.epoch.elapsed().as_nanos() as u64;
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.args.extend_from_slice(args);
        // Spans close innermost first; anything else is a harness bug.
        assert_eq!(
            self.open.pop(),
            Some(id),
            "span {} closed out of order",
            span.name
        );
    }

    /// Time one leaf call.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open, &[]);
        out
    }

    /// Add a count to the span closed last (the output size of a call is
    /// only known once it has returned).
    pub fn arg(&mut self, key: &'static str, value: u64) {
        if self.on {
            if let Some(s) = self.spans.last_mut() {
                s.args.push((key, value));
            }
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Give up the recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Append `more` to `spans`, renumbering so that a span's id stays its
/// position and parents keep pointing at the same spans.
pub fn append(spans: &mut Vec<Span>, more: Vec<Span>) {
    let base = spans.len() as u32;
    spans.extend(more.into_iter().map(|mut s| {
        s.id += base;
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Self time of every span, in ns, in span order: its duration minus the
/// union of its children's intervals (clipped to the span, so a child that
/// overruns its parent cannot make the self time negative, and overlapping
/// children are not subtracted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    // A span's id is its position (`Tracer::begin`, `append`).
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        let Some(p) = s.parent.map(|p| p as usize) else {
            continue;
        };
        let lo = s.start_ns.max(spans[p].start_ns);
        let hi = s.end_ns.min(spans[p].end_ns);
        if hi > lo {
            children[p].push((lo, hi));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Totals of all spans with one name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameTotals {
    /// Calls.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self times, ns.
    pub self_ns: u64,
    /// Every call's duration, ns, in call order.
    pub durs_ns: Vec<u64>,
}

/// Fold spans by name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += self_ns;
        t.durs_ns.push(s.dur_ns());
    }
    out
}

/// Summed self time per layer, ns.
pub fn self_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer()).or_default() += self_ns;
    }
    out
}

/// The spans as a Chrome trace-event document (loadable in Perfetto): one
/// complete (`"ph":"X"`) event per span, time in µs, with `id`, `parent`,
/// `op` and the boundary counts under `args`.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n{\"name\":");
        json::write_str(&mut out, s.name);
        out.push_str(",\"cat\":");
        json::write_str(&mut out, s.layer());
        let _ = write!(
            out,
            ",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"op\":{}",
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            s.op,
        );
        if let Some(p) = s.parent {
            let _ = write!(out, ",\"parent\":{p}");
        }
        for (k, v) in &s.args {
            out.push(',');
            json::write_str(&mut out, k);
            let _ = write!(out, ":{v}");
        }
        out.push_str("}}");
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// The per-layer table of a traced run, as text: one row per span name with
/// calls, total and self time, then one row per layer with its share of
/// `wall_ns`.
pub fn layer_table(spans: &[Span], wall_ns: u64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<32} {:>8} {:>12} {:>12} {:>7}",
        "span", "calls", "total_ms", "self_ms", "share"
    );
    let share = |ns: u64| ns as f64 / wall_ns.max(1) as f64;
    for (name, t) in totals_by_name(spans) {
        let _ = writeln!(
            out,
            "{:<32} {:>8} {:>12.3} {:>12.3} {:>7.4}",
            name,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            share(t.self_ns),
        );
    }
    for (layer, ns) in self_by_layer(spans) {
        let _ = writeln!(
            out,
            "{:<32} {:>8} {:>12} {:>12.3} {:>7.4}",
            format!("[{layer}]"),
            "",
            "",
            ns as f64 / 1e6,
            share(ns),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name: "store.query",
            tid: 0,
            start_ns,
            end_ns,
            args: Vec::new(),
        }
    }

    #[test]
    fn self_time_of_back_to_back_children() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 30, 60),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 30]);
    }

    #[test]
    fn self_time_of_nested_children_counts_each_level_once() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 20, 80),
            span(2, Some(1), 30, 50),
        ];
        // The grandchild is inside the child: the root loses 60, not 80.
        assert_eq!(self_times(&spans), vec![40, 40, 20]);
    }

    #[test]
    fn self_time_of_overlapping_children_subtracts_the_union() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 50),
            span(2, Some(0), 40, 70),
            span(3, Some(0), 45, 60),
        ];
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn a_child_overrunning_its_parent_is_clipped() {
        let spans = [span(0, None, 10, 50), span(1, Some(0), 0, 200)];
        assert_eq!(self_times(&spans), vec![0, 200]);
    }

    #[test]
    fn tracer_records_nesting_ops_and_args() {
        let mut tr = Tracer::on();
        tr.next_op();
        let outer = tr.begin("client.tables");
        let got = tr.span("client.query", || 7);
        tr.arg("bytes", 42);
        tr.end(outer, &[("queries", 1)]);
        tr.next_op();
        tr.span("stream.offer", || ());
        assert_eq!(got, 7);
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), None)
        );
        assert_eq!((s[0].op, s[1].op, s[2].op), (1, 1, 2));
        assert_eq!(s[1].args, vec![("bytes", 42)]);
        assert_eq!(s[0].args, vec![("queries", 1)]);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(s[2].layer(), "stream");
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut tr = Tracer::off();
        let open = tr.begin("stream.offer");
        assert_eq!(tr.span("stream.view", || 3), 3);
        tr.arg("bytes", 1);
        tr.end(open, &[("records", 2)]);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn forked_spans_are_renumbered_when_absorbed() {
        let mut main = Tracer::on();
        main.span("stream.offer", || ());
        let mut worker = main.fork(2);
        worker.next_op();
        let outer = worker.begin("client.tables");
        worker.span("client.query", || ());
        worker.end(outer, &[]);
        main.absorb(worker);
        let s = main.spans();
        assert_eq!(s.iter().map(|s| s.id).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(s[2].parent, Some(1));
        assert_eq!(s[1].tid, 2);
        assert_ne!(s[1].op, s[0].op);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_event_per_span() {
        let mut tr = Tracer::on();
        let outer = tr.begin("client.tables");
        tr.span("client.query", || ());
        tr.arg("bytes", 9);
        tr.end(outer, &[]);
        let doc = json::parse(&chrome_trace(tr.spans())).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1].get("name").unwrap().as_str(),
            Some("client.query")
        );
        assert_eq!(events[1].get("ph").unwrap().as_str(), Some("X"));
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(args.get("bytes").unwrap().as_f64(), Some(9.0));
    }
}
