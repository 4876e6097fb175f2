//! The incremental-audit equivalence gate: feeding a real trace through
//! [`AuditState`] line by line — in *any* chunking — must produce
//! exactly the whole-file [`audit`] verdict, on clean traces and on
//! traces that genuinely violate invariants (the topology campaign's
//! flat arm). Plus the latency half of the contract: a corrupted stream
//! is flagged by the push of the offending line, not at finish.

use dpm_bench::{campaign, topology};
use dpm_telemetry::{parse_trace_jsonl, Recorder, TraceLine};
use dpm_trace::{audit, AuditConfig, AuditState, Trace};
use proptest::prelude::*;
use std::sync::OnceLock;

/// One campaign trace (all four governor arms under seeded faults) and
/// one topology trace (whose flat arm genuinely fails the audit),
/// generated once and shared across proptest cases.
fn corpus() -> &'static [String] {
    static CORPUS: OnceLock<Vec<String>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let mut docs = Vec::new();
        let rec = Recorder::enabled("campaign");
        campaign::run_with(2, 1, 1, &rec).expect("campaign runs");
        docs.push(rec.to_jsonl());
        let rec = Recorder::enabled("topology");
        topology::run_with(1, 1, 1, &rec).expect("topology runs");
        docs.push(rec.to_jsonl());
        docs
    })
}

/// Replay `lines` into a fresh auditor in chunks drawn from `chunks`
/// (cycled), returning the canonical end-of-stream report.
fn replay_chunked(lines: &[TraceLine], chunks: &[usize]) -> dpm_trace::AuditReport {
    let mut state = AuditState::new(AuditConfig::default());
    let mut i = 0;
    let mut c = 0;
    while i < lines.len() {
        let take = chunks.get(c % chunks.len()).copied().unwrap_or(1).max(1);
        for line in lines.iter().skip(i).take(take) {
            let _ = state.push(line);
        }
        i += take;
        c += 1;
    }
    state.finish()
}

proptest! {
    /// Chunking invariance over real traces: any split of the stream
    /// yields the whole-file verdict — violations, notes, and check
    /// accounting included. The corpus covers a clean campaign trace
    /// and a topology trace whose flat arm carries real violations.
    #[test]
    fn incremental_audit_equals_batch_audit_for_any_chunking(
        chunks in prop::collection::vec(1usize..97, 1..24),
        doc_index in 0usize..2,
    ) {
        let doc = &corpus()[doc_index];
        let trace = Trace::parse(doc).expect("corpus parses");
        let batch = audit(&trace, &AuditConfig::default());
        let lines = parse_trace_jsonl(doc).expect("corpus lines parse");
        let incremental = replay_chunked(&lines, &chunks);
        prop_assert_eq!(incremental, batch);
    }
}

/// Batch `audit` and a live `AuditState` reach the canonical pass by
/// separate paths (batch borrows the parsed trace and skips the online
/// pass), so a line-by-line replay must reproduce the whole batch report
/// on both corpus traces: the governed campaign and the violating
/// topology run.
#[test]
fn batch_audit_equals_a_line_by_line_replay() {
    for doc in corpus() {
        let batch = audit(&Trace::parse(doc).expect("parses"), &AuditConfig::default());
        let lines = parse_trace_jsonl(doc).expect("parses");
        assert!(!batch.notes.is_empty() && batch.checks > 0);
        assert_eq!(replay_chunked(&lines, &[1]), batch);
    }
}

#[test]
fn the_topology_corpus_actually_carries_violations() {
    let doc = &corpus()[1];
    let trace = Trace::parse(doc).expect("parses");
    let report = audit(&trace, &AuditConfig::default());
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.scope.starts_with("topology/flat/")),
        "the flat arm must fail the audit for the corpus to prove \
         equivalence on violating traces"
    );
}

/// A corrupted stream is flagged by the very push that carries the
/// offending line — the "within one slot" guarantee a live server
/// relies on to kill a session before it advances again.
#[test]
fn corruption_is_flagged_on_the_offending_push() {
    let doc = &corpus()[0];
    let lines = parse_trace_jsonl(doc).expect("parses");
    // Find a sim.slot event and forge an out-of-window battery level.
    let victim = lines
        .iter()
        .position(|l| matches!(l, TraceLine::Event(e) if e.name == "sim.slot"))
        .expect("campaign trace has slot events");

    let mut state = AuditState::new(AuditConfig::default());
    // Gauges first, as a live emitter streams them — the window check
    // needs sim.c_min_j/sim.c_max_j before the first event.
    for line in &lines {
        if matches!(line, TraceLine::Gauge(_)) {
            let fresh = state.push(line);
            assert!(fresh.is_empty(), "gauges alone cannot violate");
        }
    }
    for (i, line) in lines.iter().enumerate() {
        if matches!(line, TraceLine::Gauge(_)) {
            continue;
        }
        if i == victim {
            let TraceLine::Event(event) = line else {
                unreachable!("victim is an event");
            };
            let mut forged = event.clone();
            for (name, value) in &mut forged.fields {
                if name == "battery_j" {
                    *value = -1e9;
                }
            }
            let fresh = state.push(&TraceLine::Event(forged));
            assert!(
                fresh.iter().any(|v| v.invariant == "battery.window"),
                "the forged line must be flagged by its own push, got {fresh:?}"
            );
            return;
        }
        let fresh = state.push(line);
        assert!(
            fresh.is_empty(),
            "the clean prefix must not raise violations: {fresh:?}"
        );
    }
    unreachable!("victim line was never reached");
}
