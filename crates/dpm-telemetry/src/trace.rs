//! The serialized trace schema: one [`TraceLine`] per JSONL line.
//!
//! Schema stability matters more here than ergonomics — CI compares
//! traces byte-for-byte — so every type is a plain non-generic struct
//! with explicit field names, and the deterministic trace and the
//! wall-clock profile are **separate documents**: [`TraceLine`] never
//! carries a wall-clock field, [`SpanNodeLine`] carries nothing else.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Version stamp written into [`TraceMeta`]; bump on any schema change.
pub const SCHEMA_VERSION: u32 = 1;

/// One structured event, stamped with simulated time and a sequence
/// number that is monotonic within its scope.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Monotonic sequence number within `scope` (assigned at record time
    /// by the recorder that first saw the event).
    pub seq: u64,
    /// Absorption path of the recorder that recorded the event (empty for
    /// the root recorder; `"sweep/load/3/proposed"`-style after
    /// [`crate::Recorder::absorb`]).
    pub scope: String,
    /// Event name (`"sim.slot"`, `"core.replan"`, `"safety.shed"`, …).
    pub name: String,
    /// Governor slot the event belongs to, when it has one.
    pub slot: Option<u64>,
    /// Simulated time of the event (s) — never wall clock.
    pub time: f64,
    /// Numeric payload, in the order the instrumentation site listed it.
    pub fields: Vec<(String, f64)>,
    /// Free-form annotation (a disturbance kind, an error message).
    pub detail: Option<String>,
}

/// The header line of a trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceMeta {
    /// [`SCHEMA_VERSION`] at write time.
    pub schema: u32,
    /// The root recorder's source label (`"repro"`, `"sweep"`, …).
    pub source: String,
    /// Events retained in the trace.
    pub events: u64,
    /// Events dropped at the ring-buffer capacity (oldest first).
    pub dropped: u64,
}

/// A named monotonic counter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterLine {
    /// Scope-qualified counter name.
    pub name: String,
    /// Final value.
    pub value: u64,
}

/// A named last-write-wins gauge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeLine {
    /// Scope-qualified gauge name.
    pub name: String,
    /// Final value.
    pub value: f64,
}

/// A histogram snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramLine {
    /// Scope-qualified histogram name.
    pub name: String,
    /// Bucket upper bounds.
    pub bounds: Vec<f64>,
    /// Per-bucket counts (`bounds.len() + 1`; last is overflow).
    pub counts: Vec<u64>,
    /// Observations recorded.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation (`0.0` when empty).
    pub min: f64,
    /// Largest observation (`0.0` when empty).
    pub max: f64,
}

/// The deterministic face of a span timer: how many times it ran. The
/// wall-clock side lives in [`SpanNodeLine`], outside the trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanLine {
    /// Scope-qualified span name.
    pub name: String,
    /// Number of completed span executions.
    pub count: u64,
}

/// One line of the deterministic JSONL trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceLine {
    /// Trace header (always the first line).
    Meta(TraceMeta),
    /// A structured event.
    Event(Event),
    /// A counter's final value.
    Counter(CounterLine),
    /// A gauge's final value.
    Gauge(GaugeLine),
    /// A histogram snapshot.
    Histogram(HistogramLine),
    /// A span's deterministic call count.
    Span(SpanLine),
}

/// One node of the **hierarchical wall-clock span tree** — the one line
/// kind of the `.profile` document written next to the trace
/// (`<path>.profile`). `path` is a collapsed-stack path (`;`-separated
/// frames, root first), so the document doubles as flamegraph input.
/// Never part of the trace itself.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanNodeLine {
    /// Collapsed-stack path: `;`-joined span names from the root frame
    /// down (`"sim.run;core.decide;core.replan"`). Absorption prefixes
    /// the root frame with its scope (`"table1/proposed/0/sim.run;…"`).
    pub path: String,
    /// Completed executions of exactly this path.
    pub count: u64,
    /// Total wall-clock seconds across executions (children included).
    pub total_s: f64,
    /// Longest single execution (s).
    pub max_s: f64,
}

/// Failure to parse one line of a JSONL trace or profile document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong, from the serde layer.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Decode a JSONL document lazily: one `L` per non-blank line, a failure
/// naming its 1-based line number.
fn jsonl_lines<L: Deserialize>(input: &str) -> impl Iterator<Item = Result<L, ParseError>> + '_ {
    input
        .lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            serde_json::from_str::<L>(line).map_err(|e| ParseError {
                line: i + 1,
                message: e.to_string(),
            })
        })
}

/// Decode a deterministic trace document one [`TraceLine`] at a time, for
/// consumers that index lines as they arrive instead of holding them all.
/// Blank lines are skipped; each item is the next non-blank line or the
/// [`ParseError`] naming it.
pub fn trace_jsonl_lines(input: &str) -> impl Iterator<Item = Result<TraceLine, ParseError>> + '_ {
    jsonl_lines(input)
}

/// Parse a deterministic trace document (one [`TraceLine`] per non-blank
/// line) — the inverse of [`crate::Recorder::to_jsonl`]. Blank lines are
/// skipped; the first malformed line aborts with its 1-based line number.
///
/// # Errors
/// [`ParseError`] naming the first line that does not deserialize.
pub fn parse_trace_jsonl(input: &str) -> Result<Vec<TraceLine>, ParseError> {
    trace_jsonl_lines(input).collect()
}

/// Parse a wall-clock profile document (one [`SpanNodeLine`] per
/// non-blank line) — the inverse of [`crate::Recorder::profile_jsonl`].
///
/// # Errors
/// [`ParseError`] naming the first line that does not deserialize —
/// line 1 of a profile written in the older flat per-name format.
pub fn parse_profile_jsonl(input: &str) -> Result<Vec<SpanNodeLine>, ParseError> {
    jsonl_lines(input).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event() -> Event {
        Event {
            seq: 7,
            scope: "sweep/load/3/proposed".into(),
            name: "sim.slot".into(),
            slot: Some(11),
            time: 52.8,
            fields: vec![("battery_j".into(), 7.25), ("used_j".into(), 0.5)],
            detail: None,
        }
    }

    #[test]
    fn every_variant_round_trips() {
        let lines = vec![
            TraceLine::Meta(TraceMeta {
                schema: SCHEMA_VERSION,
                source: "repro".into(),
                events: 2,
                dropped: 0,
            }),
            TraceLine::Event(event()),
            TraceLine::Event(Event {
                slot: None,
                detail: Some("ChargingDropout".into()),
                ..event()
            }),
            TraceLine::Counter(CounterLine {
                name: "core.replan.count".into(),
                value: 42,
            }),
            TraceLine::Gauge(GaugeLine {
                name: "sim.battery_j".into(),
                value: 6.125,
            }),
            TraceLine::Histogram(HistogramLine {
                name: "alloc.iterations".into(),
                bounds: vec![1.0, 2.0, 4.0],
                counts: vec![0, 1, 2, 0],
                count: 3,
                sum: 9.0,
                min: 2.0,
                max: 4.0,
            }),
            TraceLine::Span(SpanLine {
                name: "core.decide".into(),
                count: 24,
            }),
        ];
        for line in lines {
            let json = serde_json::to_string(&line).unwrap();
            let back: TraceLine = serde_json::from_str(&json).unwrap();
            assert_eq!(back, line, "{json}");
            // Re-serialization is byte-stable (the determinism contract).
            assert_eq!(serde_json::to_string(&back).unwrap(), json);
        }
    }

    #[test]
    fn parse_trace_jsonl_round_trips_and_skips_blanks() {
        let lines = vec![
            TraceLine::Meta(TraceMeta {
                schema: SCHEMA_VERSION,
                source: "t".into(),
                events: 1,
                dropped: 0,
            }),
            TraceLine::Event(event()),
        ];
        let mut doc = String::new();
        for l in &lines {
            doc.push_str(&serde_json::to_string(l).unwrap());
            doc.push('\n');
        }
        doc.push('\n'); // trailing blank line is tolerated
        let parsed = parse_trace_jsonl(&doc).unwrap();
        assert_eq!(parsed, lines);
        assert!(parse_trace_jsonl("").unwrap().is_empty());
    }

    #[test]
    fn parse_errors_carry_the_line_number() {
        let meta = serde_json::to_string(&TraceLine::Meta(TraceMeta {
            schema: SCHEMA_VERSION,
            source: "t".into(),
            events: 0,
            dropped: 0,
        }))
        .unwrap();
        let doc = format!("{meta}\nnot json\n");
        let err = parse_trace_jsonl(&doc).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(!err.to_string().is_empty());
        // A profile document is not a trace document.
        let profile = serde_json::to_string(&SpanNodeLine {
            path: "run;job".into(),
            count: 1,
            total_s: 0.5,
            max_s: 0.5,
        })
        .unwrap();
        assert!(parse_trace_jsonl(&profile).is_err());
        let parsed = parse_profile_jsonl(&profile).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].path, "run;job");
    }

    #[test]
    fn span_node_lines_round_trip_and_stay_out_of_the_trace() {
        let node = SpanNodeLine {
            path: "table1/proposed/0/sim.run;core.decide;core.replan".into(),
            count: 7,
            total_s: 0.25,
            max_s: 0.1,
        };
        let json = serde_json::to_string(&node).unwrap();
        let back: SpanNodeLine = serde_json::from_str(&json).unwrap();
        assert_eq!(back, node);
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        // A span-tree line is not a trace line: the two documents stay
        // mutually unambiguous.
        assert!(serde_json::from_str::<TraceLine>(&json).is_err());
    }

    #[test]
    fn parse_profile_jsonl_rejects_the_flat_per_name_format() {
        let node = SpanNodeLine {
            path: "sim.run;core.decide".into(),
            count: 24,
            total_s: 1.0,
            max_s: 0.25,
        };
        let doc = format!("{}\n\n", serde_json::to_string(&node).unwrap());
        assert_eq!(parse_profile_jsonl(&doc).unwrap(), vec![node]);
        assert!(parse_profile_jsonl("").unwrap().is_empty());
        // An older profile opens with flat `name`-keyed lines: rejected at
        // line 1 rather than read as an empty tree.
        let flat = "{\"name\":\"core.decide\",\"count\":24,\"total_s\":1.0,\"mean_s\":0.04,\"max_s\":0.25}\n";
        let err = parse_profile_jsonl(&format!("{flat}{doc}")).unwrap_err();
        assert_eq!(err.line, 1);
    }
}
