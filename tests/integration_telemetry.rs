//! End-to-end telemetry contract: the trace a harness run records must be
//! (a) byte-identical for any worker count and across repeated runs,
//! (b) valid JSONL that round-trips through serde, and (c) actually carry
//! the signals the paper's experiments care about — replan counters from
//! the Algorithm 3 path, per-slot battery gauges from the simulator, and
//! `safety.*` degradation events from the fault campaigns. A disabled
//! recorder must record nothing at all.

use dpm_bench::{campaign, experiments, sweeps};
use dpm_core::platform::Platform;
use dpm_telemetry::{Recorder, TraceLine};
use dpm_workloads::scenarios;

/// Record one Table 1 matrix run into a fresh recorder.
fn table1_trace(jobs: usize) -> String {
    let telemetry = Recorder::enabled("repro");
    let platform = Platform::pama();
    let scenarios = [scenarios::scenario_one(), scenarios::scenario_two()];
    experiments::table1_jobs_with(&platform, &scenarios, 2, jobs, &telemetry).unwrap();
    telemetry.to_jsonl()
}

#[test]
fn table1_trace_is_byte_identical_across_worker_counts() {
    let serial = table1_trace(1);
    let parallel = table1_trace(4);
    assert!(!serial.is_empty());
    assert_eq!(serial, parallel);
    // And across repeated runs at the same worker count.
    assert_eq!(parallel, table1_trace(4));
}

#[test]
fn sweep_trace_is_byte_identical_across_worker_counts() {
    let trace = |jobs: usize| {
        let telemetry = Recorder::enabled("sweep");
        sweeps::run_with(&["load".to_string()], jobs, 1, &telemetry).unwrap();
        telemetry.to_jsonl()
    };
    let serial = trace(1);
    let parallel = trace(4);
    assert!(!serial.is_empty());
    assert_eq!(serial, parallel);
}

#[test]
fn profiler_activity_never_leaks_into_the_trace() {
    // The hierarchical profiler is live during these runs — the span-tree
    // lines below prove it — yet the deterministic trace must stay
    // byte-identical across worker counts: wall clock is confined to the
    // `.profile` document.
    let run = |jobs: usize| {
        let telemetry = Recorder::enabled("repro");
        let platform = Platform::pama();
        let scenarios = [scenarios::scenario_one(), scenarios::scenario_two()];
        experiments::table1_jobs_with(&platform, &scenarios, 2, jobs, &telemetry).unwrap();
        (telemetry.to_jsonl(), telemetry.profile_jsonl())
    };
    let (trace_1, profile_1) = run(1);
    let (trace_4, profile_4) = run(4);
    assert_eq!(trace_1, trace_4);

    let tree_1 = dpm_telemetry::parse_profile_jsonl(&profile_1).unwrap();
    let tree_4 = dpm_telemetry::parse_profile_jsonl(&profile_4).unwrap();
    assert!(!tree_1.is_empty(), "profiler recorded no span-tree nodes");
    assert!(
        tree_1.iter().any(|n| n.path.contains("params.plan")),
        "§4.2 parameter scheduler span missing from the tree"
    );
    assert!(
        tree_1.iter().any(|n| n.path.contains("sim.run")),
        "whole-run span missing from the tree"
    );
    // The tree's *structure* (paths and counts) is deterministic even
    // though its wall-clock payload is not.
    let shape = |tree: &[dpm_telemetry::SpanNodeLine]| {
        tree.iter()
            .map(|n| (n.path.clone(), n.count))
            .collect::<std::collections::BTreeSet<_>>()
    };
    assert_eq!(shape(&tree_1), shape(&tree_4));

    // Every profile line round-trips through serde untouched.
    for (i, line) in profile_1.lines().enumerate() {
        let node: dpm_telemetry::SpanNodeLine = serde_json::from_str(line).unwrap();
        let again = serde_json::to_string(&node).unwrap();
        assert_eq!(line, again, "profile line {i} did not round-trip");
    }
}

#[test]
fn trace_span_counts_sum_the_profile_tree_per_scope_and_leaf() {
    // One span store feeds both documents: every trace `Span` count must
    // equal the sum of the `.profile` tree counts whose path has that
    // scope and leaf frame.
    let telemetry = Recorder::enabled("repro");
    let platform = Platform::pama();
    let scenarios = [scenarios::scenario_one(), scenarios::scenario_two()];
    experiments::table1_jobs_with(&platform, &scenarios, 2, 2, &telemetry).unwrap();
    let rec = telemetry.sibling();
    experiments::table3_5_with(&platform, &scenarios[0], 2, &rec).unwrap();
    telemetry.absorb("table3", &rec);

    let traced: std::collections::BTreeMap<String, u64> = telemetry
        .snapshot()
        .into_iter()
        .filter_map(|line| match line {
            TraceLine::Span(s) => Some((s.name, s.count)),
            _ => None,
        })
        .collect();
    let mut derived = std::collections::BTreeMap::<String, u64>::new();
    for node in dpm_telemetry::parse_profile_jsonl(&telemetry.profile_jsonl()).unwrap() {
        // The scope prefixes the root frame; the leaf is the last frame.
        let root = node.path.split(';').next().unwrap();
        let (scope, stack) = match root.rfind('/') {
            Some(i) => (&node.path[..i], &node.path[i + 1..]),
            None => ("", node.path.as_str()),
        };
        let leaf = stack.rsplit(';').next().unwrap();
        let name = if scope.is_empty() {
            leaf.to_string()
        } else {
            format!("{scope}/{leaf}")
        };
        *derived.entry(name).or_default() += node.count;
    }
    assert!(traced.keys().any(|name| name.starts_with("table3/")));
    assert!(traced.len() > 10, "suspiciously few spans: {traced:?}");
    assert_eq!(traced, derived);
}

#[test]
fn trace_round_trips_through_serde_line_by_line() {
    let jsonl = table1_trace(2);
    let mut lines = 0usize;
    for line in jsonl.lines() {
        let parsed: TraceLine = serde_json::from_str(line).unwrap();
        let again = serde_json::to_string(&parsed).unwrap();
        assert_eq!(line, again, "line {lines} did not round-trip");
        lines += 1;
    }
    assert!(lines > 10, "suspiciously small trace: {lines} lines");
    // The first line is the meta header with the schema version.
    match serde_json::from_str::<TraceLine>(jsonl.lines().next().unwrap()).unwrap() {
        TraceLine::Meta(meta) => {
            assert_eq!(meta.schema, dpm_telemetry::SCHEMA_VERSION);
            assert_eq!(meta.source, "repro");
        }
        other => panic!("first line is not meta: {other:?}"),
    }
}

#[test]
fn table3_trace_carries_controller_and_simulator_signals() {
    let telemetry = Recorder::enabled("test");
    let platform = Platform::pama();
    let s1 = scenarios::scenario_one();
    experiments::table3_5_with(&platform, &s1, experiments::DEFAULT_PERIODS, &telemetry).unwrap();

    assert!(telemetry.counter("core.decide.calls") > 0);
    assert!(telemetry.counter("core.replan.count") > 0);
    assert!(telemetry.counter("alloc.compute.calls") >= 1);
    assert!(telemetry.counter("sim.slots") > 0);

    let jsonl = telemetry.to_jsonl();
    let mut slot_events = 0usize;
    let mut battery_hist = false;
    for line in jsonl.lines() {
        match serde_json::from_str::<TraceLine>(line).unwrap() {
            TraceLine::Event(e) if e.name == "sim.slot" => {
                assert!(e.slot.is_some());
                assert!(e.fields.iter().any(|(k, _)| k == "battery_j"));
                slot_events += 1;
            }
            TraceLine::Histogram(h) if h.name == "sim.battery_j" => {
                assert!(h.count > 0);
                battery_hist = true;
            }
            _ => {}
        }
    }
    assert!(slot_events > 0, "no per-slot simulator events in trace");
    assert!(battery_hist, "no sim.battery_j histogram in trace");
}

#[test]
fn campaign_trace_carries_safety_degradation_events() {
    let telemetry = Recorder::enabled("campaign");
    campaign::run_with(3, 2, 4, &telemetry).unwrap();
    // Point recorders are absorbed under `campaign/{governor}/{seed}`
    // scopes, so campaign counters carry prefixed names in the trace.
    let lines: Vec<TraceLine> = telemetry
        .to_jsonl()
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    let counter_sum = |suffix: &str| -> u64 {
        lines
            .iter()
            .filter_map(|l| match l {
                TraceLine::Counter(c) if c.name.ends_with(suffix) => Some(c.value),
                _ => None,
            })
            .sum()
    };
    assert!(
        counter_sum("safety.degradations") > 0,
        "standard fault mix should trigger the safety wrapper"
    );
    assert!(counter_sum("sim.disturbances") > 0);
    let safety_events = lines
        .iter()
        .filter(|l| matches!(l, TraceLine::Event(e) if e.name.starts_with("safety.")))
        .count();
    assert!(safety_events > 0, "no safety.* events in campaign trace");
}

#[test]
fn disabled_recorder_records_nothing() {
    let telemetry = Recorder::disabled();
    let platform = Platform::pama();
    let s1 = scenarios::scenario_one();
    experiments::table3_5_with(&platform, &s1, 4, &telemetry).unwrap();
    assert!(!telemetry.is_enabled());
    assert_eq!(telemetry.event_count(), 0);
    assert_eq!(telemetry.counter("core.decide.calls"), 0);
    assert!(telemetry.to_jsonl().is_empty());
    assert!(telemetry.profile_jsonl().is_empty());
}
