//! Deterministic observability: sim-time metrics, spans, and Chrome-trace
//! export.
//!
//! Every subsystem in the workspace measures itself — the paper's study *is*
//! a measurement of the telephony stack — yet counters and timings used to
//! be hand-rolled per crate. This module is the single instrumentation API:
//!
//! * [`MetricsRegistry`] — named counters, gauges and sim-time duration
//!   histograms. Histograms are [`QuantileSketch`]es (the log-bucketed
//!   rank histogram the ingest pipeline uses), so per-shard registries
//!   merge exactly: bucket counts add like integers and any merge tree
//!   yields the same bytes.
//! * [`Telemetry`] — a cheap-to-clone handle the instrumented code holds.
//!   The default handle is *disabled* and every operation on it is a single
//!   `Option` branch, so always-on instrumentation in hot paths costs
//!   nothing measurable when metrics are off.
//! * [`SpanGuard`] / [`span!`](crate::span!) — sim-time spans. A discrete-event
//!   simulation has no ambient clock, so spans carry explicit [`SimTime`]s:
//!   begin at one event, end at a later one (stall detected → stall
//!   healed), record the duration under the span's label.
//! * [`TraceSink`] — completed spans and instant events rendered as Chrome
//!   trace-event JSON, loadable in `chrome://tracing` or Perfetto.
//! * [`MetricsSnapshot`] — the mergeable, digestible view of a registry.
//!   [`Merge`] on snapshots is commutative and associative (property-tested
//!   in `tests/parallel_invariance.rs`), so fleet-level metrics folded from
//!   per-shard registries are bit-identical at any thread count.
//!
//! Everything is keyed to sim-time and `&'static str` labels: no wall
//! clock, no allocation per sample, no iteration-order nondeterminism
//! (`BTreeMap` keys, canonically sorted trace events).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

use cellrel_types::{SimDuration, SimTime};

use crate::campaign::Digest64;
use crate::par::Merge;
use crate::sketch::QuantileSketch;

/// The phase of a Chrome trace event: a completed span or an instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TracePhase {
    /// A completed span (`"ph": "X"`), with a duration.
    Complete,
    /// An instant event (`"ph": "i"`).
    Instant,
}

/// One trace event, in Chrome trace-event terms. Timestamps and durations
/// are sim-time microseconds (the trace viewer's native unit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceEvent {
    /// Event timestamp in sim-time microseconds.
    pub ts_us: u64,
    /// Track id — by convention the device id, 0 for global events.
    pub tid: u64,
    /// Label, e.g. `"stall.recover"`.
    pub name: &'static str,
    /// Span length in microseconds (0 for instants).
    pub dur_us: u64,
    /// Complete span or instant.
    pub ph: TracePhase,
}

/// Collects completed spans/events and renders them as Chrome trace-event
/// JSON. Events are kept in arrival order and sorted canonically (by
/// timestamp, then track, then label) at render time, so the emitted file
/// does not depend on shard layout.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSink {
    events: Vec<TraceEvent>,
}

/// Canonical event order: the derived `Ord` on [`TraceEvent`] leads with
/// `ts_us`, making sorted output monotone in time (the validity test's
/// invariant) and merge order irrelevant.
fn canonicalize(events: &mut [TraceEvent]) {
    events.sort_unstable();
}

fn escape_json_str(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

impl TraceSink {
    /// An empty sink.
    pub fn new() -> Self {
        TraceSink::default()
    }

    /// Record a completed span.
    pub fn record_complete(&mut self, name: &'static str, start: SimTime, end: SimTime, tid: u64) {
        self.events.push(TraceEvent {
            ts_us: start.as_millis() * 1000,
            tid,
            name,
            dur_us: end.since(start).as_millis() * 1000,
            ph: TracePhase::Complete,
        });
    }

    /// Record an instant event.
    pub fn record_instant(&mut self, name: &'static str, at: SimTime, tid: u64) {
        self.events.push(TraceEvent {
            ts_us: at.as_millis() * 1000,
            tid,
            name,
            dur_us: 0,
            ph: TracePhase::Instant,
        });
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The recorded events.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Render the sink as Chrome trace-event JSON (the object form with a
    /// `traceEvents` array, as `chrome://tracing` and Perfetto load it).
    /// Events are emitted in canonical order; all spans are `"X"` complete
    /// events, instants are `"i"` with `"s": "t"` (thread scope).
    pub fn to_chrome_json(&self) -> String {
        let mut events = self.events.clone();
        canonicalize(&mut events);
        let mut out = String::with_capacity(64 + events.len() * 96);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":\"");
            escape_json_str(&mut out, e.name);
            let _ = match e.ph {
                TracePhase::Complete => write!(
                    out,
                    "\",\"ph\":\"X\",\"cat\":\"sim\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{}}}",
                    e.tid, e.ts_us, e.dur_us
                ),
                TracePhase::Instant => write!(
                    out,
                    "\",\"ph\":\"i\",\"cat\":\"sim\",\"s\":\"t\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":0}}",
                    e.tid, e.ts_us
                ),
            };
        }
        out.push_str("]}");
        out
    }
}

impl Merge for TraceSink {
    fn merge(&mut self, other: Self) {
        self.events.extend(other.events);
    }
}

/// Named counters, gauges and sim-time duration histograms.
///
/// Plain owned data — `Send`, mergeable — so parallel drivers build one
/// registry per shard and fold them. Instrumented code normally holds a
/// [`Telemetry`] handle rather than the registry itself.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, i64>,
    histograms: BTreeMap<&'static str, QuantileSketch>,
    trace: Option<TraceSink>,
}

impl MetricsRegistry {
    /// An empty registry without a trace sink.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Attach an (empty) trace sink; spans recorded after this also become
    /// Chrome trace events.
    pub fn enable_trace(&mut self) {
        self.trace.get_or_insert_with(TraceSink::new);
    }

    /// Increment a counter by `n`.
    pub fn add(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// Increment a counter by one.
    pub fn inc(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Add a (possibly negative) delta to a gauge. Gauges are shard-additive
    /// so they merge like counters; use them for net quantities (current
    /// open connections), not for high-water marks.
    pub fn gauge_add(&mut self, name: &'static str, delta: i64) {
        *self.gauges.entry(name).or_insert(0) += delta;
    }

    /// Record one value into a histogram (the workspace convention is
    /// integer milliseconds for durations).
    pub fn observe(&mut self, name: &'static str, value: u64) {
        self.histograms.entry(name).or_default().push(value);
    }

    /// Record a sim-time duration into a histogram, in milliseconds.
    pub fn observe_duration(&mut self, name: &'static str, d: SimDuration) {
        self.observe(name, d.as_millis());
    }

    /// Fold a whole pre-built sketch into a histogram — the bridge for
    /// subsystems (like the ingest aggregate) that already summarise their
    /// streams with [`QuantileSketch`]es.
    pub fn merge_histogram(&mut self, name: &'static str, sketch: QuantileSketch) {
        match self.histograms.get_mut(name) {
            Some(h) => h.merge(sketch),
            None => {
                self.histograms.insert(name, sketch);
            }
        }
    }

    /// The trace sink, if tracing is enabled.
    pub fn trace(&self) -> Option<&TraceSink> {
        self.trace.as_ref()
    }

    /// Mutable trace sink access, if tracing is enabled.
    pub fn trace_mut(&mut self) -> Option<&mut TraceSink> {
        self.trace.as_mut()
    }

    /// Copy the registry into its mergeable, digestible snapshot form.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut trace = self
            .trace
            .as_ref()
            .map(|t| t.events.clone())
            .unwrap_or_default();
        canonicalize(&mut trace);
        MetricsSnapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: self.histograms.clone(),
            trace,
        }
    }
}

impl Merge for MetricsRegistry {
    /// Fold another registry in: counters and gauges add, histograms merge
    /// bucket-wise, trace events append in merge order (shard order in the
    /// parallel drivers, which equals single-thread emission order).
    fn merge(&mut self, other: Self) {
        for (k, v) in other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        for (k, v) in other.gauges {
            *self.gauges.entry(k).or_insert(0) += v;
        }
        for (k, v) in other.histograms {
            match self.histograms.get_mut(k) {
                Some(h) => h.merge(v),
                None => {
                    self.histograms.insert(k, v);
                }
            }
        }
        match (&mut self.trace, other.trace) {
            (Some(a), Some(b)) => a.merge(b),
            (t @ None, Some(b)) => *t = Some(b),
            _ => {}
        }
    }
}

/// The frozen, order-canonical view of a [`MetricsRegistry`]: what golden
/// snapshots assert against, what shards exchange, what the fleet digest
/// covers. [`Merge`] here is commutative *and* associative — trace events
/// are re-sorted canonically after every merge — so any merge tree over any
/// shard layout produces identical bytes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, i64>,
    histograms: BTreeMap<&'static str, QuantileSketch>,
    trace: Vec<TraceEvent>,
}

impl MetricsSnapshot {
    /// Counter `(name, value)` pairs in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    /// Gauge `(name, value)` pairs in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, i64)> + '_ {
        self.gauges.iter().map(|(&k, &v)| (k, v))
    }

    /// Histogram `(name, sketch)` pairs in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &QuantileSketch)> + '_ {
        self.histograms.iter().map(|(&k, v)| (k, v))
    }

    /// One counter's value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// One histogram, when present.
    pub fn histogram(&self, name: &str) -> Option<&QuantileSketch> {
        self.histograms.get(name)
    }

    /// Canonically ordered trace events.
    pub fn trace(&self) -> &[TraceEvent] {
        &self.trace
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.trace.is_empty()
    }

    /// Content digest over every name, value, histogram bucket and trace
    /// event — the fleet-level determinism witness (bit-identical at 1, 2
    /// and 8 threads; test-asserted).
    pub fn digest(&self) -> u64 {
        let mut d = Digest64::new();
        d.write_u64(self.counters.len() as u64);
        for (k, v) in &self.counters {
            d.write_str(k);
            d.write_u64(*v);
        }
        d.write_u64(self.gauges.len() as u64);
        for (k, v) in &self.gauges {
            d.write_str(k);
            d.write_u64(*v as u64);
        }
        d.write_u64(self.histograms.len() as u64);
        for (k, h) in &self.histograms {
            d.write_str(k);
            h.absorb_into(&mut d);
        }
        d.write_u64(self.trace.len() as u64);
        for e in &self.trace {
            d.write_u64(e.ts_us);
            d.write_u64(e.tid);
            d.write_str(e.name);
            d.write_u64(e.dur_us);
            d.write_u64(matches!(e.ph, TracePhase::Complete) as u64);
        }
        d.finish()
    }

    /// Rebuild a [`TraceSink`] from the snapshot's events (for JSON export
    /// after a merged run).
    pub fn trace_sink(&self) -> TraceSink {
        TraceSink {
            events: self.trace.clone(),
        }
    }
}

impl Merge for MetricsSnapshot {
    fn merge(&mut self, other: Self) {
        for (k, v) in other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        for (k, v) in other.gauges {
            *self.gauges.entry(k).or_insert(0) += v;
        }
        for (k, v) in other.histograms {
            match self.histograms.get_mut(k) {
                Some(h) => h.merge(v),
                None => {
                    self.histograms.insert(k, v);
                }
            }
        }
        self.trace.extend(other.trace);
        canonicalize(&mut self.trace);
    }
}

/// The handle instrumented code holds: a shared, cheap-to-clone reference
/// to one registry, or nothing at all.
///
/// The disabled handle (the [`Default`]) makes every operation a single
/// branch on a `None`, so subsystems can be instrumented unconditionally —
/// the `par_macro_study` bench gates the claim that this costs nothing
/// measurable. Handles are `Rc`-based and deliberately **not** `Send`:
/// parallel drivers give each shard its own enabled handle and fold the
/// [`MetricsSnapshot`]s.
#[derive(Debug, Clone, Default)]
pub struct Telemetry(Option<Rc<RefCell<MetricsRegistry>>>);

impl Telemetry {
    /// The no-op handle.
    pub fn disabled() -> Self {
        Telemetry(None)
    }

    /// A handle to a fresh metrics-only registry.
    pub fn enabled() -> Self {
        Telemetry(Some(Rc::new(RefCell::new(MetricsRegistry::new()))))
    }

    /// A handle to a fresh registry with span → Chrome-trace recording on.
    pub fn with_trace() -> Self {
        let mut reg = MetricsRegistry::new();
        reg.enable_trace();
        Telemetry(Some(Rc::new(RefCell::new(reg))))
    }

    /// Build a handle from flags: `metrics` turns the registry on, `trace`
    /// additionally records spans as trace events (implies `metrics`).
    pub fn from_flags(metrics: bool, trace: bool) -> Self {
        match (metrics || trace, trace) {
            (false, _) => Telemetry::disabled(),
            (true, false) => Telemetry::enabled(),
            (true, true) => Telemetry::with_trace(),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Run `f` against the registry; no-op (returns `None`) when disabled.
    pub fn with<R>(&self, f: impl FnOnce(&mut MetricsRegistry) -> R) -> Option<R> {
        self.0.as_ref().map(|r| f(&mut r.borrow_mut()))
    }

    /// Increment a counter by one.
    #[inline]
    pub fn inc(&self, name: &'static str) {
        if let Some(r) = &self.0 {
            r.borrow_mut().inc(name);
        }
    }

    /// Increment a counter by `n`.
    #[inline]
    pub fn add(&self, name: &'static str, n: u64) {
        if let Some(r) = &self.0 {
            r.borrow_mut().add(name, n);
        }
    }

    /// Add a delta to a shard-additive gauge.
    #[inline]
    pub fn gauge_add(&self, name: &'static str, delta: i64) {
        if let Some(r) = &self.0 {
            r.borrow_mut().gauge_add(name, delta);
        }
    }

    /// Record one value into a histogram.
    #[inline]
    pub fn observe(&self, name: &'static str, value: u64) {
        if let Some(r) = &self.0 {
            r.borrow_mut().observe(name, value);
        }
    }

    /// Record a sim-time duration into a histogram (milliseconds).
    #[inline]
    pub fn observe_duration(&self, name: &'static str, d: SimDuration) {
        if let Some(r) = &self.0 {
            r.borrow_mut().observe_duration(name, d);
        }
    }

    /// Fold a pre-built sketch into a histogram.
    pub fn merge_histogram(&self, name: &'static str, sketch: QuantileSketch) {
        if let Some(r) = &self.0 {
            r.borrow_mut().merge_histogram(name, sketch);
        }
    }

    /// Record an instant trace event (no-op unless tracing is enabled).
    #[inline]
    pub fn instant(&self, name: &'static str, at: SimTime, tid: u64) {
        if let Some(r) = &self.0 {
            if let Some(t) = r.borrow_mut().trace_mut() {
                t.record_instant(name, at, tid);
            }
        }
    }

    /// Open a sim-time span starting at `start` on track `tid`. Close it
    /// with [`SpanGuard::end`]; an unclosed guard records nothing.
    #[must_use = "a span records nothing until `end` is called"]
    pub fn span(&self, name: &'static str, start: SimTime, tid: u64) -> SpanGuard {
        SpanGuard {
            tele: self.clone(),
            name,
            start,
            tid,
        }
    }

    /// Snapshot the registry (empty snapshot when disabled).
    pub fn snapshot(&self) -> MetricsSnapshot {
        match &self.0 {
            Some(r) => r.borrow().snapshot(),
            None => MetricsSnapshot::default(),
        }
    }
}

/// An open sim-time span: label + start instant + track. Produced by
/// [`Telemetry::span`] or the [`span!`](crate::span!) macro; closing it records the
/// duration under the label's histogram and, when tracing is on, a Chrome
/// `"X"` event.
#[derive(Debug, Clone)]
pub struct SpanGuard {
    tele: Telemetry,
    name: &'static str,
    start: SimTime,
    tid: u64,
}

impl SpanGuard {
    /// The span's label.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The span's start instant.
    pub fn start(&self) -> SimTime {
        self.start
    }

    /// Close the span at `end`, recording its duration.
    pub fn end(self, end: SimTime) {
        if let Some(r) = &self.tele.0 {
            let mut reg = r.borrow_mut();
            reg.observe_duration(self.name, end.since(self.start));
            if let Some(t) = reg.trace_mut() {
                t.record_complete(self.name, self.start, end, self.tid);
            }
        }
    }
}

/// Open a sim-time span on a [`Telemetry`] handle:
/// `span!(tele, "dc.setup", now)` (track 0) or
/// `span!(tele, "dc.setup", now, device_id)`.
#[macro_export]
macro_rules! span {
    ($tele:expr, $name:expr, $start:expr) => {
        $tele.span($name, $start, 0)
    };
    ($tele:expr, $name:expr, $start:expr, $tid:expr) => {
        $tele.span($name, $start, $tid)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_a_no_op() {
        let tele = Telemetry::disabled();
        tele.inc("a");
        tele.observe("b", 5);
        tele.gauge_add("c", -1);
        let sp = span!(tele, "d", SimTime::from_secs(1));
        sp.end(SimTime::from_secs(2));
        assert!(!tele.is_enabled());
        assert!(tele.snapshot().is_empty());
    }

    #[test]
    fn counters_gauges_histograms_round_trip() {
        let tele = Telemetry::enabled();
        tele.inc("setup.ok");
        tele.add("setup.ok", 2);
        tele.gauge_add("open", 3);
        tele.gauge_add("open", -1);
        for ms in [10u64, 20, 30] {
            tele.observe("lat", ms);
        }
        let s = tele.snapshot();
        assert_eq!(s.counter("setup.ok"), 3);
        assert_eq!(s.gauges().collect::<Vec<_>>(), vec![("open", 2)]);
        let h = s.histogram("lat").unwrap();
        assert_eq!(h.count(), 3);
        assert_eq!(h.quantile(0.5), Some(20));
    }

    #[test]
    fn spans_record_durations_and_trace_events() {
        let tele = Telemetry::with_trace();
        let sp = span!(tele, "stall.recover", SimTime::from_secs(10), 7);
        sp.end(SimTime::from_secs(25));
        tele.instant("stall.suspected", SimTime::from_secs(10), 7);
        let s = tele.snapshot();
        let h = s.histogram("stall.recover").unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(1.0), Some(15_000));
        assert_eq!(s.trace().len(), 2);
        // Canonical order leads with ts, so the instant and span (same ts)
        // sort deterministically; both sit at ts = 10 s.
        assert!(s.trace().iter().all(|e| e.ts_us == 10_000_000));
    }

    #[test]
    fn clones_share_one_registry() {
        let tele = Telemetry::enabled();
        let other = tele.clone();
        tele.inc("x");
        other.inc("x");
        assert_eq!(tele.snapshot().counter("x"), 2);
    }

    #[test]
    fn snapshot_merge_adds_and_digest_is_stable() {
        let a = Telemetry::enabled();
        a.inc("n");
        a.observe("h", 100);
        let b = Telemetry::enabled();
        b.add("n", 4);
        b.observe("h", 200);
        let mut ab = a.snapshot();
        ab.merge(b.snapshot());
        let mut ba = b.snapshot();
        ba.merge(a.snapshot());
        assert_eq!(ab, ba);
        assert_eq!(ab.digest(), ba.digest());
        assert_eq!(ab.counter("n"), 5);
        assert_eq!(ab.histogram("h").unwrap().count(), 2);
    }

    #[test]
    fn chrome_json_shape_is_sane() {
        let tele = Telemetry::with_trace();
        span!(tele, "a\"quoted\"", SimTime::from_millis(2), 1).end(SimTime::from_millis(5));
        tele.instant("tick", SimTime::from_millis(1), 1);
        let json = tele.snapshot().trace_sink().to_chrome_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("a\\\"quoted\\\""));
        // Canonical order: the instant at 1 ms precedes the span at 2 ms.
        assert!(json.find("tick").unwrap() < json.find("quoted").unwrap());
    }

    #[test]
    fn registry_merge_matches_single_registry() {
        let whole = Telemetry::enabled();
        let pa = Telemetry::enabled();
        let pb = Telemetry::enabled();
        for i in 0..100u64 {
            whole.observe("d", i * 37 % 501);
            let part = if i < 40 { &pa } else { &pb };
            part.observe("d", i * 37 % 501);
            whole.inc("n");
            part.inc("n");
        }
        let merged = pa
            .with(|r| {
                let mut r = r.clone();
                pb.with(|o| r.merge(o.clone()));
                r
            })
            .unwrap();
        assert_eq!(merged.snapshot(), whole.snapshot());
        assert_eq!(merged.snapshot().digest(), whole.snapshot().digest());
    }
}
