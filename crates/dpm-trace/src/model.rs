//! The parsed, indexed form of a schema-v1 trace.
//!
//! [`Trace::parse`] validates the document's shape (meta header first,
//! schema version understood) and splits the line soup into the event
//! stream and the metric maps the analyses consume. Deeper semantic
//! checks — sequence monotonicity, meta consistency, physical invariants
//! — are the [`crate::audit`] module's job, so that a *violating* trace
//! still parses and can be pinpointed rather than rejected wholesale.

use crate::error::TraceError;
use dpm_telemetry::{
    trace_jsonl_lines, Event, HistogramLine, SpanLine, TraceLine, TraceMeta, SCHEMA_VERSION,
};
use std::collections::BTreeMap;

/// A fully parsed trace document.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// The header line.
    pub meta: TraceMeta,
    /// Structured events in ring (record/absorb) order.
    pub events: Vec<Event>,
    /// Final counter values by scope-qualified name.
    pub counters: BTreeMap<String, u64>,
    /// Final gauge values by scope-qualified name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram snapshots by scope-qualified name.
    pub histograms: BTreeMap<String, HistogramLine>,
    /// Span call counts by scope-qualified name.
    pub spans: Vec<SpanLine>,
}

/// Split a scope-qualified metric name into `(scope, metric)`.
///
/// [`dpm_telemetry::Recorder::absorb`] joins scopes with `/` while metric
/// base names only ever contain dots (`sim.c_min_j`), so the metric is
/// everything after the last slash: `"table1/0/sim.c_min_j"` →
/// `("table1/0", "sim.c_min_j")`, and an unscoped name has scope `""`.
pub fn split_scoped(name: &str) -> (&str, &str) {
    match name.rsplit_once('/') {
        Some((scope, metric)) => (scope, metric),
        None => ("", name),
    }
}

/// Look up `name` under `scope` in a scope-qualified final-value map.
pub(crate) fn metric_of<V: Copy>(map: &BTreeMap<String, V>, scope: &str, name: &str) -> Option<V> {
    if scope.is_empty() {
        map.get(name).copied()
    } else {
        map.get(&format!("{scope}/{name}")).copied()
    }
}

impl Trace {
    /// Parse a JSONL trace document line by line, straight into the trace.
    ///
    /// # Errors
    /// [`TraceError::Parse`] on a malformed line anywhere in the document
    /// (ahead of any header error), [`TraceError::MissingMeta`] when the
    /// first line is not the header or a second header follows, and
    /// [`TraceError::SchemaMismatch`] on a schema version this analyzer
    /// does not understand.
    pub fn parse(input: &str) -> Result<Self, TraceError> {
        // `None` until the header, `Some(Err)` once rejected; later lines
        // are still decoded so a malformed one wins over a header error.
        let mut state: Option<Result<Self, TraceError>> = None;
        for line in trace_jsonl_lines(input) {
            match (&mut state, line?) {
                (Some(Err(_)), _) => {}
                (None, TraceLine::Meta(meta)) if meta.schema != SCHEMA_VERSION => {
                    state = Some(Err(TraceError::SchemaMismatch {
                        found: meta.schema,
                        expected: SCHEMA_VERSION,
                    }));
                }
                (None, TraceLine::Meta(meta)) => {
                    state = Some(Ok(Self {
                        meta,
                        events: Vec::new(),
                        counters: BTreeMap::new(),
                        gauges: BTreeMap::new(),
                        histograms: BTreeMap::new(),
                        spans: Vec::new(),
                    }));
                }
                // A second meta line is the header of a concatenated trace:
                // reject it so `audit a+b` fails instead of merging two runs.
                (None, _) | (Some(Ok(_)), TraceLine::Meta(_)) => {
                    state = Some(Err(TraceError::MissingMeta));
                }
                (Some(Ok(trace)), TraceLine::Event(e)) => trace.events.push(e),
                (Some(Ok(trace)), TraceLine::Counter(c)) => {
                    trace.counters.insert(c.name, c.value);
                }
                (Some(Ok(trace)), TraceLine::Gauge(g)) => {
                    trace.gauges.insert(g.name, g.value);
                }
                (Some(Ok(trace)), TraceLine::Histogram(h)) => {
                    trace.histograms.insert(h.name.clone(), h);
                }
                (Some(Ok(trace)), TraceLine::Span(s)) => trace.spans.push(s),
            }
        }
        state.unwrap_or(Err(TraceError::MissingMeta))
    }

    /// Events grouped by scope, preserving ring order within each scope.
    /// Scopes iterate in sorted order (`BTreeMap`), so analyses over the
    /// groups are deterministic.
    pub fn events_by_scope(&self) -> BTreeMap<&str, Vec<&Event>> {
        let mut by_scope: BTreeMap<&str, Vec<&Event>> = BTreeMap::new();
        for e in &self.events {
            by_scope.entry(e.scope.as_str()).or_default().push(e);
        }
        by_scope
    }

    /// The gauge `metric` recorded under `scope` (exact scope match).
    pub fn scoped_gauge(&self, scope: &str, metric: &str) -> Option<f64> {
        metric_of(&self.gauges, scope, metric)
    }

    /// The counter `metric` recorded under `scope` (exact scope match).
    pub fn scoped_counter(&self, scope: &str, metric: &str) -> Option<u64> {
        metric_of(&self.counters, scope, metric)
    }

    /// Look up a numeric field of an event by key.
    pub fn field(event: &Event, key: &str) -> Option<f64> {
        event
            .fields
            .iter()
            .find_map(|(k, v)| if k == key { Some(*v) } else { None })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_telemetry::Recorder;

    fn sample_jsonl() -> String {
        let rec = Recorder::enabled("unit");
        rec.incr("core.replan.count", 3);
        rec.gauge("sim.c_min_j", 0.5);
        rec.observe("sim.battery_j", 4.0);
        rec.event("sim.slot", Some(0), 0.0, &[("battery_j", 4.0)]);
        let child = rec.sibling();
        child.gauge("sim.c_min_j", 0.5);
        child.event("sim.slot", Some(0), 0.0, &[("battery_j", 5.0)]);
        rec.absorb("job/0", &child);
        rec.to_jsonl()
    }

    #[test]
    fn parses_and_indexes_a_recorder_snapshot() {
        let trace = Trace::parse(&sample_jsonl()).unwrap();
        assert_eq!(trace.meta.source, "unit");
        assert_eq!(trace.events.len(), 2);
        assert_eq!(trace.counters.get("core.replan.count"), Some(&3));
        assert_eq!(trace.scoped_gauge("", "sim.c_min_j"), Some(0.5));
        assert_eq!(trace.scoped_gauge("job/0", "sim.c_min_j"), Some(0.5));
        assert_eq!(trace.scoped_gauge("job/1", "sim.c_min_j"), None);
        assert_eq!(trace.scoped_counter("", "core.replan.count"), Some(3));
        let by_scope = trace.events_by_scope();
        assert_eq!(by_scope[""].len(), 1);
        assert_eq!(by_scope["job/0"].len(), 1);
        assert_eq!(Trace::field(by_scope["job/0"][0], "battery_j"), Some(5.0));
        assert_eq!(Trace::field(by_scope["job/0"][0], "missing"), None);
    }

    #[test]
    fn rejects_headerless_and_double_headed_documents() {
        let jsonl = sample_jsonl();
        let headless: String = jsonl.lines().skip(1).fold(String::new(), |mut acc, l| {
            acc.push_str(l);
            acc.push('\n');
            acc
        });
        assert_eq!(Trace::parse(&headless), Err(TraceError::MissingMeta));
        let doubled = format!("{jsonl}{jsonl}");
        assert_eq!(Trace::parse(&doubled), Err(TraceError::MissingMeta));
        assert!(matches!(
            Trace::parse("garbage\n"),
            Err(TraceError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn rejects_future_schema_versions() {
        let jsonl = sample_jsonl();
        let bumped = jsonl.replacen("\"schema\":1", "\"schema\":999", 1);
        assert_ne!(jsonl, bumped, "meta line must contain the schema stamp");
        assert_eq!(
            Trace::parse(&bumped),
            Err(TraceError::SchemaMismatch {
                found: 999,
                expected: SCHEMA_VERSION
            })
        );
    }

    #[test]
    fn a_malformed_line_anywhere_wins_over_header_errors() {
        let jsonl = sample_jsonl();
        let n = jsonl.lines().count();
        let headless: String = jsonl.lines().skip(1).map(|l| format!("{l}\n")).collect();
        let bumped = jsonl.replacen("\"schema\":1", "\"schema\":999", 1);
        // Each document is rejected at an earlier line, yet the parse error
        // of its trailing garbage line is what surfaces.
        for (doc, garbage_line) in [
            (format!("{jsonl}{jsonl}"), 2 * n + 1),
            (headless, n),
            (bumped, n + 1),
        ] {
            match Trace::parse(&format!("{doc}garbage\n")) {
                Err(TraceError::Parse { line, .. }) => assert_eq!(line, garbage_line),
                other => panic!("expected a parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn blank_lines_are_skipped_but_counted_and_empty_documents_lack_a_header() {
        let jsonl = sample_jsonl();
        let padded = format!("\n{}\n\n", jsonl.replace('\n', "\n  \n"));
        assert_eq!(
            Trace::parse(&padded).unwrap(),
            Trace::parse(&jsonl).unwrap()
        );
        let n = padded.lines().count();
        assert!(matches!(
            Trace::parse(&format!("{padded}garbage\n")),
            Err(TraceError::Parse { line, .. }) if line == n + 1
        ));
        assert_eq!(Trace::parse(""), Err(TraceError::MissingMeta));
        assert_eq!(Trace::parse("\n \n"), Err(TraceError::MissingMeta));
    }

    #[test]
    fn split_scoped_handles_all_shapes() {
        assert_eq!(split_scoped("sim.c_min_j"), ("", "sim.c_min_j"));
        assert_eq!(
            split_scoped("table1/0/sim.c_min_j"),
            ("table1/0", "sim.c_min_j")
        );
        assert_eq!(
            split_scoped("campaign/proposed+safe/3/safety.degradations"),
            ("campaign/proposed+safe/3", "safety.degradations")
        );
    }
}
