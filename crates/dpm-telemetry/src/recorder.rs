//! The [`Recorder`]: a cloneable, thread-safe handle to one telemetry
//! scope.
//!
//! A recorder is either *enabled* (an `Arc` around mutex-protected state)
//! or *disabled* (no allocation at all); every recording method on a
//! disabled handle returns after a single `Option` check. Clones share
//! the same state, which is how one recorder threads through a governor,
//! its safety wrapper, and the simulation that drives them both.
//!
//! Parallel harnesses must not share one recorder across worker threads
//! when trace determinism matters — interleaving would depend on the
//! schedule. The contract (DESIGN.md §10) is: give each job a
//! [`Recorder::sibling`], run, then [`Recorder::absorb`] the siblings
//! into the parent **in job-index order** on the calling thread.

use crate::histogram::Histogram;
use crate::trace::{
    CounterLine, Event, GaugeLine, HistogramLine, SpanLine, SpanNodeLine, TraceLine, TraceMeta,
    SCHEMA_VERSION,
};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

thread_local! {
    /// Active span frames on this thread: `(recorder identity, collapsed
    /// path)`. A new span's parent is the innermost frame opened by the
    /// *same* recorder on the *same* thread, so hierarchy follows the
    /// code path (deterministic across `--jobs` — each job's sibling
    /// recorder has its own identity and worker threads their own
    /// stacks) and two recorders interleaved on one thread never adopt
    /// each other's frames.
    static SPAN_FRAMES: RefCell<Vec<(usize, String)>> = const { RefCell::new(Vec::new()) };
}

/// Default event-ring capacity per recorder. Long harness runs overflow
/// it by design — the ring keeps the newest events and counts the drops
/// deterministically in [`TraceMeta::dropped`].
pub const DEFAULT_EVENT_CAPACITY: usize = 16_384;

/// Wall-clock aggregate of one span-tree node.
#[derive(Debug, Clone, Default)]
struct SpanStats {
    count: u64,
    total: f64,
    max: f64,
}

impl SpanStats {
    fn add(&mut self, count: u64, total: f64, max: f64) {
        self.count += count;
        self.total += total;
        self.max = self.max.max(max);
    }
}

/// Everything a recorder accumulates.
#[derive(Debug)]
struct Inner {
    source: String,
    capacity: usize,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    /// The one span store: aggregates keyed by `(scope, path)`, where
    /// `path` is the collapsed stack (`"sim.run;core.decide"`) and
    /// `scope` the absorption prefix (`""` for spans recorded here). The
    /// scope stays a separate field because client-chosen scopes may
    /// contain `;` or `/`. The `.profile` document writes each node as a
    /// [`SpanNodeLine`]; the trace carries only counts derived from it.
    spans: BTreeMap<(String, String), SpanStats>,
    events: VecDeque<Event>,
    dropped: u64,
    next_seq: u64,
    /// Per-scope sequence counters for *absorbed* events: when a child's
    /// events land under a scope, they are re-stamped from this map so
    /// that `(scope, seq)` stays unique and monotonic even when two
    /// siblings are absorbed under the same scope string. Directly
    /// recorded events (scope `""`) keep using `next_seq`.
    seq_by_scope: BTreeMap<String, u64>,
}

#[derive(Debug)]
struct Shared {
    inner: Mutex<Inner>,
}

/// A telemetry recorder handle; see the module docs for the sharing and
/// determinism contract.
#[derive(Clone)]
pub struct Recorder {
    shared: Option<Arc<Shared>>,
}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::disabled()
    }
}

impl Recorder {
    /// A no-op recorder: no allocation, every method an early return.
    pub fn disabled() -> Self {
        Self { shared: None }
    }

    /// An enabled recorder with the [`DEFAULT_EVENT_CAPACITY`].
    pub fn enabled(source: &str) -> Self {
        Self::with_capacity(source, DEFAULT_EVENT_CAPACITY)
    }

    /// An enabled recorder whose event ring keeps at most `capacity`
    /// events (at least 1).
    pub fn with_capacity(source: &str, capacity: usize) -> Self {
        Self {
            shared: Some(Arc::new(Shared {
                inner: Mutex::new(Inner {
                    source: source.to_string(),
                    capacity: capacity.max(1),
                    counters: BTreeMap::new(),
                    gauges: BTreeMap::new(),
                    histograms: BTreeMap::new(),
                    spans: BTreeMap::new(),
                    events: VecDeque::new(),
                    dropped: 0,
                    next_seq: 0,
                    seq_by_scope: BTreeMap::new(),
                }),
            })),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// A fresh, empty recorder that is enabled (with the same source and
    /// capacity) exactly when `self` is — the per-job half of the
    /// sibling/absorb determinism contract.
    pub fn sibling(&self) -> Recorder {
        match self.lock() {
            None => Recorder::disabled(),
            Some(inner) => Recorder::with_capacity(&inner.source, inner.capacity),
        }
    }

    /// A poisoned mutex only means some thread panicked mid-record; the
    /// maps stay coherent, so telemetry keeps serving (same policy as the
    /// dpm-bench `AllocCache`).
    fn lock(&self) -> Option<MutexGuard<'_, Inner>> {
        self.shared
            .as_ref()
            .map(|s| s.inner.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Add `by` to counter `name` (created at zero).
    pub fn incr(&self, name: &str, by: u64) {
        if let Some(mut inner) = self.lock() {
            let slot = inner.counters.entry(name.to_string()).or_insert(0);
            *slot = slot.saturating_add(by);
        }
    }

    /// Set gauge `name` (last write wins).
    pub fn gauge(&self, name: &str, value: f64) {
        if let Some(mut inner) = self.lock() {
            inner.gauges.insert(name.to_string(), value);
        }
    }

    /// Record `value` into histogram `name`, creating it over
    /// [`crate::histogram::DEFAULT_BOUNDS`] on first use.
    pub fn observe(&self, name: &str, value: f64) {
        if let Some(mut inner) = self.lock() {
            inner
                .histograms
                .entry(name.to_string())
                .or_insert_with(Histogram::with_default_bounds)
                .record(value);
        }
    }

    /// Record `value` into histogram `name`, creating it over `bounds` on
    /// first use (later calls reuse whatever bounds the name already has).
    pub fn observe_with(&self, name: &str, bounds: &[f64], value: f64) {
        if let Some(mut inner) = self.lock() {
            inner
                .histograms
                .entry(name.to_string())
                .or_insert_with(|| Histogram::new(bounds))
                .record(value);
        }
    }

    /// Record a structured event at simulated time `time` (s).
    pub fn event(&self, name: &str, slot: Option<u64>, time: f64, fields: &[(&str, f64)]) {
        self.push_event(name, slot, time, fields, None);
    }

    /// [`Recorder::event`] with a free-form annotation.
    pub fn event_with_detail(
        &self,
        name: &str,
        slot: Option<u64>,
        time: f64,
        fields: &[(&str, f64)],
        detail: &str,
    ) {
        self.push_event(name, slot, time, fields, Some(detail));
    }

    fn push_event(
        &self,
        name: &str,
        slot: Option<u64>,
        time: f64,
        fields: &[(&str, f64)],
        detail: Option<&str>,
    ) {
        if let Some(mut inner) = self.lock() {
            let seq = inner.next_seq;
            inner.next_seq += 1;
            let event = Event {
                seq,
                scope: String::new(),
                name: name.to_string(),
                slot,
                time,
                fields: fields.iter().map(|(k, v)| ((*k).to_string(), *v)).collect(),
                detail: detail.map(str::to_string),
            };
            push_capped(&mut inner, event);
        }
    }

    /// Fold an externally measured wall-clock duration (s) into the
    /// span tree at collapsed-stack `path` — for harness layers that
    /// time work themselves (the runner's per-job timings, the
    /// simulator's whole-run span). Like a [`SpanGuard`], the timing
    /// lands in the `.profile` document under `path` and its count in
    /// the trace under the path's leaf frame.
    pub fn record_span_path(&self, path: &str, wall_s: f64) {
        if let Some(mut inner) = self.lock() {
            inner
                .spans
                .entry((String::new(), path.to_string()))
                .or_default()
                .add(1, wall_s, wall_s);
        }
    }

    /// Start timing span `name`; the elapsed wall clock is recorded when
    /// the guard drops, into the span tree at a path nested under the
    /// innermost span this recorder currently has open on this thread.
    /// On a disabled recorder the guard is inert and the clock is never
    /// read.
    #[must_use = "the span is timed until the guard drops"]
    pub fn span(&self, name: &str) -> SpanGuard {
        let Some(shared) = self.shared.as_ref() else {
            return SpanGuard {
                target: None,
                path: String::new(),
                framed: false,
                start: None,
            };
        };
        let id = Arc::as_ptr(shared) as usize;
        let mut framed = false;
        let path = SPAN_FRAMES.with(|frames| {
            // A failed borrow means a `Drop` re-entered `span()` on this
            // thread — degrade to an unparented frame instead of
            // panicking (the observability layer must never abort the
            // system it observes).
            match frames.try_borrow_mut() {
                Ok(mut frames) => {
                    let path = match frames.iter().rev().find(|(fid, _)| *fid == id) {
                        Some((_, parent)) => format!("{parent};{name}"),
                        None => name.to_string(),
                    };
                    frames.push((id, path.clone()));
                    framed = true;
                    path
                }
                Err(_) => name.to_string(),
            }
        });
        SpanGuard {
            target: Some(Arc::clone(shared)),
            path,
            framed,
            start: Some(Instant::now()),
        }
    }

    /// Merge everything `child` recorded into `self` under `scope`,
    /// draining the child. Metric names gain a `scope/` prefix; event
    /// scopes are prepended with `scope`; counters and histograms merge,
    /// gauges take the child's (newer) value. Call on the main thread in
    /// job-index order — absorption order is part of the byte layout.
    pub fn absorb(&self, scope: &str, child: &Recorder) {
        let Some(child_shared) = child.shared.as_ref() else {
            return;
        };
        if let Some(own) = self.shared.as_ref() {
            if Arc::ptr_eq(own, child_shared) {
                return;
            }
        }
        // Drain the child first (child lock, then parent lock — never
        // both ways round, so no deadlock ordering exists).
        let (counters, gauges, histograms, spans, events, dropped) = {
            let mut c = child_shared.inner.lock().unwrap_or_else(|e| e.into_inner());
            let drained = (
                std::mem::take(&mut c.counters),
                std::mem::take(&mut c.gauges),
                std::mem::take(&mut c.histograms),
                std::mem::take(&mut c.spans),
                std::mem::take(&mut c.events),
                c.dropped,
            );
            c.dropped = 0;
            c.next_seq = 0;
            c.seq_by_scope.clear();
            drained
        };
        let Some(mut inner) = self.lock() else {
            return;
        };
        for (name, value) in counters {
            let slot = inner.counters.entry(join(scope, &name)).or_insert(0);
            *slot = slot.saturating_add(value);
        }
        for (name, value) in gauges {
            inner.gauges.insert(join(scope, &name), value);
        }
        for (name, h) in histograms {
            match inner.histograms.entry(join(scope, &name)) {
                std::collections::btree_map::Entry::Occupied(mut e) => e.get_mut().merge(&h),
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(h);
                }
            }
        }
        for ((child_scope, path), s) in spans {
            inner
                .spans
                .entry((join(scope, &child_scope), path))
                .or_default()
                .add(s.count, s.total, s.max);
        }
        for mut event in events {
            event.scope = join(scope, &event.scope);
            // Re-stamp the sequence from the parent's per-scope counter:
            // the child numbered from 0, and a second sibling absorbed
            // under the same scope would otherwise restart the numbering
            // and interleave duplicate `(scope, seq)` pairs.
            let seq = {
                let next = inner.seq_by_scope.entry(event.scope.clone()).or_insert(0);
                let seq = *next;
                *next += 1;
                seq
            };
            event.seq = seq;
            push_capped(&mut inner, event);
        }
        inner.dropped += dropped;
    }

    /// The deterministic trace: meta, events in record/absorb order, then
    /// counters, gauges, histograms and span counts in sorted name order.
    /// A span's traced name is its scope joined to its leaf frame
    /// (`"table1/proposed/0/core.decide"`), its count summed over every
    /// path ending in that frame. Empty for a disabled recorder.
    pub fn snapshot(&self) -> Vec<TraceLine> {
        let Some(inner) = self.lock() else {
            return Vec::new();
        };
        let spans = by_leaf(&inner);
        let mut out = Vec::with_capacity(
            1 + inner.events.len()
                + inner.counters.len()
                + inner.gauges.len()
                + inner.histograms.len()
                + spans.len(),
        );
        out.push(TraceLine::Meta(TraceMeta {
            schema: SCHEMA_VERSION,
            source: inner.source.clone(),
            events: inner.events.len() as u64,
            dropped: inner.dropped,
        }));
        out.extend(inner.events.iter().cloned().map(TraceLine::Event));
        out.extend(inner.counters.iter().map(|(name, &value)| {
            TraceLine::Counter(CounterLine {
                name: name.clone(),
                value,
            })
        }));
        out.extend(inner.gauges.iter().map(|(name, &value)| {
            TraceLine::Gauge(GaugeLine {
                name: name.clone(),
                value,
            })
        }));
        out.extend(inner.histograms.iter().map(|(name, h)| {
            TraceLine::Histogram(HistogramLine {
                name: name.clone(),
                bounds: h.bounds().to_vec(),
                counts: h.counts().to_vec(),
                count: h.count(),
                sum: h.sum(),
                min: h.min(),
                max: h.max(),
            })
        }));
        out.extend(spans.into_iter().map(|(name, s)| {
            TraceLine::Span(SpanLine {
                name,
                count: s.count,
            })
        }));
        out
    }

    /// The deterministic trace as JSONL (one [`TraceLine`] per line).
    /// Empty for a disabled recorder.
    pub fn to_jsonl(&self) -> String {
        lines_to_jsonl(self.snapshot().iter())
    }

    /// The wall-clock span tree, one node per scope-joined
    /// collapsed-stack path (`"table1/proposed/0/sim.run;core.decide"`),
    /// sorted by path — the explicitly non-deterministic sibling of the
    /// trace. Empty when no [`SpanGuard`] or
    /// [`Recorder::record_span_path`] timing landed.
    pub fn span_node_lines(&self) -> Vec<SpanNodeLine> {
        let Some(inner) = self.lock() else {
            return Vec::new();
        };
        fold_spans(&inner, join)
            .into_iter()
            .map(|(path, s)| SpanNodeLine {
                path,
                count: s.count,
                total_s: s.total,
                max_s: s.max,
            })
            .collect()
    }

    /// The wall-clock profile as JSONL, one [`SpanNodeLine`] per line
    /// (parse it back with [`crate::trace::parse_profile_jsonl`]).
    pub fn profile_jsonl(&self) -> String {
        lines_to_jsonl(self.span_node_lines().iter())
    }

    /// Drain-free tail cursor over the event ring for live streaming:
    /// returns every event whose **absolute** index (counting evicted
    /// events) is `>= cursor`, plus the cursor to pass next time. The
    /// ring is untouched, so `snapshot()` at close still serializes the
    /// complete document. When the ring overran the cursor (events were
    /// evicted before being streamed), the skipped ones are simply gone —
    /// exactly the batch `dropped` semantics. Disabled recorders return
    /// `(cursor, [])`.
    pub fn events_from(&self, cursor: u64) -> (u64, Vec<Event>) {
        let Some(inner) = self.lock() else {
            return (cursor, Vec::new());
        };
        // The event at ring position i has absolute index dropped + i.
        let start = cursor.saturating_sub(inner.dropped) as usize;
        let events: Vec<Event> = inner.events.iter().skip(start).cloned().collect();
        (inner.dropped + inner.events.len() as u64, events)
    }

    /// The current gauge map as serialized lines, in sorted name order —
    /// how a live session streams its config gauges ahead of the first
    /// event so an online auditor can check windows as slots arrive.
    pub fn gauge_lines(&self) -> Vec<GaugeLine> {
        let Some(inner) = self.lock() else {
            return Vec::new();
        };
        inner
            .gauges
            .iter()
            .map(|(name, &value)| GaugeLine {
                name: name.clone(),
                value,
            })
            .collect()
    }

    /// Current value of counter `name` (0 when absent or disabled).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock()
            .and_then(|inner| inner.counters.get(name).copied())
            .unwrap_or(0)
    }

    /// Events currently held in the ring.
    pub fn event_count(&self) -> usize {
        self.lock().map_or(0, |inner| inner.events.len())
    }

    /// Events dropped at the ring capacity so far.
    pub fn dropped(&self) -> u64 {
        self.lock().map_or(0, |inner| inner.dropped)
    }

    /// Human-readable digest for stderr: top counters, histogram
    /// quantiles, and the span profile under an explicit wall-clock
    /// banner. The deterministic trace is untouched by this.
    pub fn summary(&self) -> String {
        let Some(inner) = self.lock() else {
            return "telemetry: disabled".to_string();
        };
        let spans = by_leaf(&inner);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "telemetry[{}]: {} events ({} dropped), {} counters, {} gauges, {} histograms, {} spans",
            inner.source,
            inner.events.len(),
            inner.dropped,
            inner.counters.len(),
            inner.gauges.len(),
            inner.histograms.len(),
            spans.len(),
        );
        if !inner.counters.is_empty() {
            let mut top: Vec<(&String, u64)> =
                inner.counters.iter().map(|(k, &v)| (k, v)).collect();
            top.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
            let _ = writeln!(out, "  top counters:");
            for (name, value) in top.into_iter().take(10) {
                let _ = writeln!(out, "    {value:>12}  {name}");
            }
        }
        if !inner.histograms.is_empty() {
            let _ = writeln!(out, "  histograms (count / p50 / p90 / max):");
            for (name, h) in &inner.histograms {
                let _ = writeln!(
                    out,
                    "    {:>8} / {:>9.3} / {:>9.3} / {:>9.3}  {name}",
                    h.count(),
                    h.quantile(0.5),
                    h.quantile(0.9),
                    h.max(),
                );
            }
        }
        if !spans.is_empty() {
            let _ = writeln!(
                out,
                "  span profile (WALL CLOCK — non-deterministic, excluded from the trace):"
            );
            for (name, s) in &spans {
                let mean = if s.count == 0 {
                    0.0
                } else {
                    s.total / s.count as f64
                };
                let _ = writeln!(
                    out,
                    "    {:>8}x  total {:>9.4}s  mean {:>9.6}s  max {:>9.6}s  {name}",
                    s.count, s.total, mean, s.max,
                );
            }
        }
        out
    }
}

/// Push an event into the ring, evicting the oldest at capacity.
fn push_capped(inner: &mut Inner, event: Event) {
    if inner.events.len() >= inner.capacity {
        inner.events.pop_front();
        inner.dropped += 1;
    }
    inner.events.push_back(event);
}

/// Sum the span store into one aggregate per `key(scope, path)`,
/// sorted by key.
fn fold_spans(inner: &Inner, key: fn(&str, &str) -> String) -> BTreeMap<String, SpanStats> {
    let mut out: BTreeMap<String, SpanStats> = BTreeMap::new();
    for ((scope, path), s) in &inner.spans {
        out.entry(key(scope, path))
            .or_default()
            .add(s.count, s.total, s.max);
    }
    out
}

/// The span store by traced name: scope joined to the path's leaf frame.
fn by_leaf(inner: &Inner) -> BTreeMap<String, SpanStats> {
    fold_spans(inner, |scope, path| {
        join(scope, path.rsplit(';').next().unwrap_or(path))
    })
}

/// Prefix `name` with `scope/`; either side may be empty.
fn join(scope: &str, name: &str) -> String {
    if scope.is_empty() {
        name.to_string()
    } else if name.is_empty() {
        scope.to_string()
    } else {
        format!("{scope}/{name}")
    }
}

fn lines_to_jsonl<'a, L: serde::Serialize + 'a>(lines: impl Iterator<Item = &'a L>) -> String {
    let mut out = String::new();
    for line in lines {
        // The line types serialize infallibly; a hypothetical failure
        // drops the line rather than panicking in a telemetry path.
        if let Ok(json) = serde_json::to_string(line) {
            out.push_str(&json);
            out.push('\n');
        }
    }
    out
}

/// RAII wall-clock timer returned by [`Recorder::span`]; records into
/// the span tree on drop.
#[must_use = "the span is timed until the guard drops"]
#[derive(Debug)]
pub struct SpanGuard {
    target: Option<Arc<Shared>>,
    /// Collapsed-stack path computed at open time.
    path: String,
    /// Whether a frame was pushed onto this thread's stack (and must be
    /// popped on drop).
    framed: bool,
    start: Option<Instant>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let (Some(shared), Some(start)) = (self.target.take(), self.start.take()) {
            let wall = start.elapsed().as_secs_f64();
            if self.framed {
                let id = Arc::as_ptr(&shared) as usize;
                SPAN_FRAMES.with(|frames| {
                    if let Ok(mut frames) = frames.try_borrow_mut() {
                        // Usually the top frame; a guard dropped out of
                        // order still removes *its own* frame, not a
                        // sibling's.
                        if let Some(pos) = frames
                            .iter()
                            .rposition(|(fid, p)| *fid == id && *p == self.path)
                        {
                            frames.remove(pos);
                        }
                    }
                });
            }
            let mut inner = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
            inner
                .spans
                .entry((String::new(), std::mem::take(&mut self.path)))
                .or_default()
                .add(1, wall, wall);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The trace's `Span` lines as `(name, count)`.
    fn span_counts(rec: &Recorder) -> Vec<(String, u64)> {
        rec.snapshot()
            .into_iter()
            .filter_map(|l| match l {
                TraceLine::Span(s) => Some((s.name, s.count)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn disabled_recorder_is_inert_and_empty() {
        let rec = Recorder::disabled();
        rec.incr("a", 1);
        rec.gauge("b", 2.0);
        rec.observe("c", 3.0);
        rec.event("d", None, 0.0, &[]);
        rec.record_span_path("e", 0.5);
        drop(rec.span("f"));
        assert!(!rec.is_enabled());
        assert_eq!(rec.to_jsonl(), "");
        assert!(rec.snapshot().is_empty());
        assert!(rec.span_node_lines().is_empty());
        assert_eq!(rec.counter("a"), 0);
        assert_eq!(rec.summary(), "telemetry: disabled");
        assert!(!rec.sibling().is_enabled());
    }

    #[test]
    fn clones_share_state() {
        let rec = Recorder::enabled("t");
        let clone = rec.clone();
        clone.incr("hits", 2);
        rec.incr("hits", 3);
        assert_eq!(rec.counter("hits"), 5);
    }

    #[test]
    fn event_ring_is_bounded_with_deterministic_drops() {
        let rec = Recorder::with_capacity("t", 3);
        for i in 0..5u64 {
            rec.event("e", Some(i), i as f64, &[]);
        }
        assert_eq!(rec.event_count(), 3);
        assert_eq!(rec.dropped(), 2);
        let lines = rec.snapshot();
        // Meta reports the retained/dropped split.
        match &lines[0] {
            TraceLine::Meta(m) => {
                assert_eq!(m.events, 3);
                assert_eq!(m.dropped, 2);
                assert_eq!(m.schema, SCHEMA_VERSION);
            }
            other => unreachable!("first line must be meta, got {other:?}"),
        }
        // The oldest events were evicted; seq numbers stay monotonic.
        let seqs: Vec<u64> = lines
            .iter()
            .filter_map(|l| match l {
                TraceLine::Event(e) => Some(e.seq),
                _ => None,
            })
            .collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    #[test]
    fn absorb_prefixes_scopes_and_merges_metrics() {
        let root = Recorder::enabled("root");
        root.incr("shared", 1);
        let child = root.sibling();
        child.incr("shared", 10);
        child.gauge("level", 4.5);
        child.observe("iters", 3.0);
        child.record_span_path("job", 0.25);
        child.event("sim.slot", Some(0), 0.0, &[("battery_j", 8.0)]);

        let grandchild = child.sibling();
        grandchild.event("core.replan", Some(1), 4.8, &[]);
        child.absorb("proposed", &grandchild);
        root.absorb("table1/0", &child);

        assert_eq!(root.counter("shared"), 1);
        assert_eq!(root.counter("table1/0/shared"), 10);
        let jsonl = root.to_jsonl();
        assert!(jsonl.contains("\"table1/0/level\""), "{jsonl}");
        assert!(jsonl.contains("\"table1/0/iters\""), "{jsonl}");
        assert!(jsonl.contains("\"table1/0/job\""), "{jsonl}");
        // Event scopes compose through nested absorption.
        let scopes: Vec<String> = root
            .snapshot()
            .into_iter()
            .filter_map(|l| match l {
                TraceLine::Event(e) => Some(e.scope),
                _ => None,
            })
            .collect();
        assert_eq!(scopes, vec!["table1/0", "table1/0/proposed"]);
        // The child was drained.
        assert_eq!(child.event_count(), 0);
        assert_eq!(child.counter("shared"), 0);
    }

    #[test]
    fn siblings_absorbed_under_the_same_scope_do_not_interleave_seqs() {
        let root = Recorder::enabled("root");
        let a = root.sibling();
        let b = root.sibling();
        for i in 0..3u64 {
            a.event("e", Some(i), i as f64, &[("side", 0.0)]);
            b.event("e", Some(i), i as f64, &[("side", 1.0)]);
        }
        // Both children land under the *same* scope string — a collision
        // the per-scope renumbering must absorb without duplicate or
        // non-monotonic `(scope, seq)` pairs.
        root.absorb("shared", &a);
        root.absorb("shared", &b);
        let seqs: Vec<u64> = root
            .snapshot()
            .into_iter()
            .filter_map(|l| match l {
                TraceLine::Event(e) => {
                    assert_eq!(e.scope, "shared");
                    Some(e.seq)
                }
                _ => None,
            })
            .collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn colliding_scopes_keep_distinct_nested_paths_separate() {
        let root = Recorder::enabled("root");
        let a = root.sibling();
        let inner_a = a.sibling();
        inner_a.event("nested", None, 0.0, &[]);
        a.event("direct", None, 0.0, &[]);
        a.absorb("leaf", &inner_a);
        let b = root.sibling();
        b.event("direct", None, 1.0, &[]);
        root.absorb("job", &a);
        root.absorb("job", &b);
        // Scope "job" holds a's direct event then b's (seqs 0, 1);
        // "job/leaf" numbers independently from 0.
        let got: Vec<(String, u64, String)> = root
            .snapshot()
            .into_iter()
            .filter_map(|l| match l {
                TraceLine::Event(e) => Some((e.scope, e.seq, e.name)),
                _ => None,
            })
            .collect();
        assert_eq!(
            got,
            vec![
                ("job".into(), 0, "direct".into()),
                ("job/leaf".into(), 0, "nested".into()),
                ("job".into(), 1, "direct".into()),
            ]
        );
    }

    #[test]
    fn absorb_into_self_is_a_no_op() {
        let rec = Recorder::enabled("t");
        rec.incr("n", 1);
        let alias = rec.clone();
        rec.absorb("loop", &alias);
        assert_eq!(rec.counter("n"), 1);
        assert_eq!(rec.counter("loop/n"), 0);
    }

    #[test]
    fn events_from_streams_the_tail_without_draining() {
        let rec = Recorder::enabled("t");
        rec.event("a", Some(0), 0.0, &[]);
        rec.event("b", Some(1), 1.0, &[]);
        let (cursor, tail) = rec.events_from(0);
        assert_eq!(cursor, 2);
        assert_eq!(
            tail.iter().map(|e| e.name.as_str()).collect::<Vec<_>>(),
            vec!["a", "b"]
        );
        // Nothing new: same cursor, empty tail.
        let (cursor, tail) = rec.events_from(cursor);
        assert_eq!((cursor, tail.len()), (2, 0));
        rec.event("c", Some(2), 2.0, &[]);
        let (cursor, tail) = rec.events_from(cursor);
        assert_eq!((cursor, tail.len()), (3, 1));
        assert_eq!(tail[0].name, "c");
        // The ring still serializes in full.
        assert_eq!(rec.event_count(), 3);
    }

    #[test]
    fn events_from_skips_evicted_events_like_dropped() {
        let rec = Recorder::with_capacity("t", 2);
        for i in 0..5u64 {
            rec.event("e", Some(i), i as f64, &[]);
        }
        // Cursor 0 but three events were evicted: only the retained tail
        // comes back, and the cursor lands past the whole stream.
        let (cursor, tail) = rec.events_from(0);
        assert_eq!(cursor, 5);
        let slots: Vec<Option<u64>> = tail.iter().map(|e| e.slot).collect();
        assert_eq!(slots, vec![Some(3), Some(4)]);
        let disabled = Recorder::disabled();
        assert_eq!(disabled.events_from(7), (7, Vec::new()));
    }

    #[test]
    fn gauge_lines_snapshot_the_current_map_in_sorted_order() {
        let rec = Recorder::enabled("t");
        rec.gauge("z", 1.0);
        rec.gauge("a", 2.0);
        let names: Vec<String> = rec.gauge_lines().into_iter().map(|g| g.name).collect();
        assert_eq!(names, vec!["a", "z"]);
        assert!(Recorder::disabled().gauge_lines().is_empty());
    }

    #[test]
    fn jsonl_round_trips_line_by_line() {
        let rec = Recorder::enabled("rt");
        rec.incr("calls", 7);
        rec.gauge("battery_j", 6.25);
        rec.observe_with("horizon", &[1.0, 2.0, 4.0, 8.0], 3.0);
        rec.record_span_path("decide", 1e-6);
        rec.event_with_detail(
            "sim.fault",
            None,
            9.6,
            &[("factor", 0.0)],
            "ChargingDropout",
        );
        let jsonl = rec.to_jsonl();
        for line in jsonl.lines() {
            let parsed: TraceLine = serde_json::from_str(line).expect(line);
            assert_eq!(serde_json::to_string(&parsed).unwrap(), line);
        }
        // Spans surface only their deterministic count in the trace …
        assert!(jsonl.contains("\"Span\""));
        assert!(!jsonl.contains("total_s"), "{jsonl}");
        // … while the profile carries the wall clock.
        let profile = rec.profile_jsonl();
        assert!(profile.contains("total_s"), "{profile}");
    }

    #[test]
    fn identical_recordings_serialize_identically() {
        let record = |rec: &Recorder| {
            rec.incr("z.last", 1);
            rec.incr("a.first", 2);
            rec.gauge("g", 0.1 + 0.2); // deterministic f64 bits
            rec.observe("h", 42.0);
            rec.event("e", Some(3), 14.4, &[("x", -0.0)]);
        };
        let a = Recorder::enabled("same");
        let b = Recorder::enabled("same");
        record(&a);
        record(&b);
        assert_eq!(a.to_jsonl(), b.to_jsonl());
    }

    #[test]
    fn span_guard_times_on_drop() {
        let rec = Recorder::enabled("t");
        {
            let _g = rec.span("work");
        }
        let profile = rec.span_node_lines();
        assert_eq!(profile.len(), 1);
        assert_eq!(profile[0].path, "work");
        assert_eq!(profile[0].count, 1);
        assert!(profile[0].total_s >= 0.0);
    }

    #[test]
    fn nested_spans_build_collapsed_stack_paths() {
        let rec = Recorder::enabled("t");
        {
            let _outer = rec.span("sim.run");
            {
                let _mid = rec.span("core.decide");
                let _inner = rec.span("core.replan");
            }
            let _mid2 = rec.span("core.decide");
        }
        {
            let _solo = rec.span("core.decide");
        }
        let nodes = rec.span_node_lines();
        let paths: Vec<(&str, u64)> = nodes.iter().map(|n| (n.path.as_str(), n.count)).collect();
        assert_eq!(
            paths,
            vec![
                ("core.decide", 1),
                ("sim.run", 1),
                ("sim.run;core.decide", 2),
                ("sim.run;core.decide;core.replan", 1),
            ]
        );
        // The trace counts leaf frames, summed over every path.
        assert_eq!(
            span_counts(&rec),
            vec![
                ("core.decide".to_string(), 3),
                ("core.replan".to_string(), 1),
                ("sim.run".to_string(), 1),
            ]
        );
    }

    #[test]
    fn interleaved_recorders_do_not_adopt_each_others_frames() {
        let a = Recorder::enabled("a");
        let b = Recorder::enabled("b");
        let _outer_a = a.span("outer");
        {
            let _inner_b = b.span("inner");
        }
        drop(_outer_a);
        assert_eq!(b.span_node_lines()[0].path, "inner");
        assert_eq!(a.span_node_lines()[0].path, "outer");
    }

    #[test]
    fn absorb_prefixes_tree_paths_at_the_root_frame() {
        let root = Recorder::enabled("root");
        let child = root.sibling();
        {
            let _outer = child.span("job");
            let _inner = child.span("step");
        }
        child.record_span_path("job;ext", 0.125);
        root.absorb("table1/0", &child);
        let paths: Vec<String> = root.span_node_lines().into_iter().map(|n| n.path).collect();
        assert_eq!(
            paths,
            vec!["table1/0/job", "table1/0/job;ext", "table1/0/job;step"]
        );
        assert!(child.span_node_lines().is_empty(), "child was drained");
    }

    #[test]
    fn record_span_path_feeds_the_tree_only() {
        let rec = Recorder::enabled("t");
        rec.record_span_path("run;job", 0.5);
        rec.record_span_path("run;job", 0.25);
        assert_eq!(span_counts(&rec), vec![("job".to_string(), 2)]);
        let nodes = rec.span_node_lines();
        assert_eq!(nodes.len(), 1);
        assert_eq!(nodes[0].path, "run;job");
        assert_eq!(nodes[0].count, 2);
        assert!((nodes[0].total_s - 0.75).abs() < 1e-12);
        assert!((nodes[0].max_s - 0.5).abs() < 1e-12);
    }

    #[test]
    fn profile_document_round_trips_span_tree_lines() {
        let rec = Recorder::enabled("t");
        {
            let _outer = rec.span("run");
            let _inner = rec.span("step");
        }
        let doc = rec.profile_jsonl();
        let tree = crate::trace::parse_profile_jsonl(&doc).expect("parses");
        assert_eq!(tree, rec.span_node_lines());
        assert_eq!(tree.len(), 2);
        assert_eq!(tree[1].path, "run;step");
        // The trace still carries only the deterministic span counts.
        assert!(!rec.to_jsonl().contains("total_s"));
    }

    #[test]
    fn span_keys_are_scope_proof() {
        let root = Recorder::enabled("root");
        let record = || {
            let child = root.sibling();
            {
                let _a = child.span("a");
                let _b = child.span("b");
            }
            child.record_span_path("run;job", 0.5);
            child.record_span_path("run", 0.75);
            child
        };
        // Scopes that themselves contain the path and scope separators.
        root.absorb("x;y", &record());
        root.absorb("s/t@1", &record());
        // The trace names are scope joined to leaf frame.
        let names = |scope: &str| ["a", "b", "job", "run"].map(|n| (format!("{scope}/{n}"), 1));
        let mut want: Vec<(String, u64)> = names("s/t@1").into();
        want.extend(names("x;y"));
        assert_eq!(span_counts(&root), want);
        // The profile paths are scope joined to the full path.
        let paths: Vec<String> = root.span_node_lines().into_iter().map(|n| n.path).collect();
        let tree = |scope: &str| ["a", "a;b", "run", "run;job"].map(|p| format!("{scope}/{p}"));
        let mut want: Vec<String> = tree("s/t@1").into();
        want.extend(tree("x;y"));
        assert_eq!(paths, want);
    }

    #[test]
    fn summary_mentions_the_sections() {
        let rec = Recorder::enabled("sum");
        rec.incr("calls", 3);
        rec.observe("iters", 5.0);
        rec.record_span_path("job", 0.01);
        let s = rec.summary();
        assert!(s.contains("telemetry[sum]"), "{s}");
        assert!(s.contains("top counters"), "{s}");
        assert!(s.contains("histograms"), "{s}");
        assert!(s.contains("WALL CLOCK"), "{s}");
    }
}
