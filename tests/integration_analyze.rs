//! End-to-end contract for the trace analyzer: `dpm-analyze audit` must
//! pass on clean traces produced by the real harnesses, fail with a
//! pinpointed `(scope, seq, slot)` on deliberately corrupted ones, the
//! diff must report the first diverging line, and the profile gate must
//! round-trip a baseline and gate regressions — both through the library
//! API and through the installed binary (exit codes included).

use dpm_bench::{campaign, experiments, telemetry_out};
use dpm_core::platform::Platform;
use dpm_telemetry::{Recorder, TraceLine};
use dpm_trace::{audit, AuditConfig, BenchBaseline, Trace};
use dpm_workloads::scenarios;
use std::process::Command;

/// Record a Table 3 run (controller + simulator + allocator signals).
fn table3_trace() -> String {
    let telemetry = Recorder::enabled("repro");
    let rec = telemetry.sibling();
    let platform = Platform::pama();
    let s1 = scenarios::scenario_one();
    experiments::table3_5_with(&platform, &s1, experiments::DEFAULT_PERIODS, &rec).unwrap();
    telemetry.absorb("table3", &rec);
    telemetry.to_jsonl()
}

/// Record a fault campaign (safety governor transitions under faults).
fn campaign_trace() -> String {
    let telemetry = Recorder::enabled("campaign");
    campaign::run_with(3, 2, 4, &telemetry).unwrap();
    telemetry.to_jsonl()
}

fn audit_str(jsonl: &str) -> dpm_trace::AuditReport {
    let trace = Trace::parse(jsonl).expect("trace parses");
    audit(&trace, &AuditConfig::default())
}

#[test]
fn audit_passes_on_clean_experiment_traces() {
    let report = audit_str(&table3_trace());
    assert!(report.ok(), "table3 violations: {:?}", report.violations);
    assert!(
        report.checks > 100,
        "suspiciously few checks: {}",
        report.checks
    );

    let report = audit_str(&campaign_trace());
    assert!(report.ok(), "campaign violations: {:?}", report.violations);
    assert!(report.scopes > 1);
}

/// Mutate the first `sim.slot` event of a trace with the given function
/// and return the re-serialized document.
fn corrupt_first<F>(jsonl: &str, name: &str, mut mutate: F) -> (String, dpm_telemetry::Event)
where
    F: FnMut(&mut dpm_telemetry::Event),
{
    let mut corrupted = None;
    let lines: Vec<String> = jsonl
        .lines()
        .map(|l| {
            let mut parsed: TraceLine = serde_json::from_str(l).unwrap();
            if let TraceLine::Event(e) = &mut parsed {
                if e.name == name && corrupted.is_none() {
                    mutate(e);
                    corrupted = Some(e.clone());
                }
            }
            serde_json::to_string(&parsed).unwrap()
        })
        .collect();
    (
        lines.join("\n") + "\n",
        corrupted.expect("trace carries the event to corrupt"),
    )
}

#[test]
fn audit_pinpoints_a_battery_level_pushed_past_c_max() {
    let clean = table3_trace();
    let (corrupted, event) = corrupt_first(&clean, "sim.slot", |e| {
        for (k, v) in &mut e.fields {
            if k == "battery_j" {
                *v = 1e9; // far past any C_max
            }
        }
    });
    let report = audit_str(&corrupted);
    let v = report
        .violations
        .iter()
        .find(|v| v.invariant == "battery.window")
        .expect("battery.window violation");
    assert_eq!(v.scope, event.scope);
    assert_eq!(v.seq, Some(event.seq));
    assert_eq!(v.slot, event.slot);
    assert!(v.message.contains("outside"), "{}", v.message);
}

#[test]
fn audit_pinpoints_an_out_of_order_safety_transition() {
    let clean = campaign_trace();
    // Swap the first shed's direction: to < from is illegal whatever the
    // configured step size, and the next transition's chain breaks too.
    let (corrupted, event) = corrupt_first(&clean, "safety.shed", |e| {
        e.fields = vec![("from_level".into(), 3.0), ("to_level".into(), 2.0)];
    });
    let report = audit_str(&corrupted);
    let v = report
        .violations
        .iter()
        .find(|v| v.invariant.starts_with("safety."))
        .expect("safety violation");
    assert_eq!(v.scope, event.scope);
    assert!(!report.ok());
}

#[test]
fn audit_flags_non_monotonic_undersupply() {
    let clean = campaign_trace();
    let trace = Trace::parse(&clean).unwrap();
    // Find a scope whose final undersupply is positive, then zero out its
    // last slot event's cumulative field so the stream runs backwards.
    let target = trace
        .events
        .iter()
        .rev()
        .find(|e| {
            e.name == "sim.slot"
                && Trace::field(e, "undersupplied_j").map(|u| u > 0.0) == Some(true)
        })
        .map(|e| (e.scope.clone(), e.seq));
    let Some((scope, seq)) = target else {
        // The standard campaign mix always undersupplies somewhere; if it
        // ever stops doing so this test must be rebuilt on a harsher mix.
        panic!("campaign trace carries no undersupply to corrupt");
    };
    let lines: Vec<String> = clean
        .lines()
        .map(|l| {
            let mut parsed: TraceLine = serde_json::from_str(l).unwrap();
            if let TraceLine::Event(e) = &mut parsed {
                if e.scope == scope && e.seq == seq {
                    for (k, v) in &mut e.fields {
                        if k == "undersupplied_j" {
                            *v = 0.0;
                        }
                    }
                }
            }
            serde_json::to_string(&parsed).unwrap()
        })
        .collect();
    let report = audit_str(&(lines.join("\n") + "\n"));
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.invariant.starts_with("undersupply.")),
        "{:?}",
        report.violations
    );
}

#[test]
fn ring_overflow_warns_loudly_and_default_capacity_does_not() {
    let tiny = Recorder::with_capacity("repro", 4);
    for i in 0..32u64 {
        tiny.event("sim.slot", Some(i), i as f64, &[("battery_j", 1.0)]);
    }
    let warning = telemetry_out::ring_warning(&tiny).expect("tiny ring must warn");
    assert!(warning.contains("WARNING"), "{warning}");
    assert!(warning.contains("dropped 28"), "{warning}");

    let telemetry = Recorder::enabled("repro");
    let rec = telemetry.sibling();
    let platform = Platform::pama();
    let s1 = scenarios::scenario_one();
    experiments::table3_5_with(&platform, &s1, experiments::DEFAULT_PERIODS, &rec).unwrap();
    telemetry.absorb("table3", &rec);
    assert_eq!(telemetry.dropped(), 0);
    assert_eq!(telemetry_out::ring_warning(&telemetry), None);
    // A disabled recorder never warns.
    assert_eq!(telemetry_out::ring_warning(&Recorder::disabled()), None);
}

/// Unique temp path for binary-level tests.
fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("dpm-analyze-test-{}-{tag}", std::process::id()))
}

fn analyze(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dpm-analyze"))
        .args(args)
        .output()
        .expect("dpm-analyze runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn analyze_binary_audits_diffs_and_summarizes() {
    let clean = table3_trace();
    let (corrupted, event) = corrupt_first(&clean, "sim.slot", |e| {
        for (k, v) in &mut e.fields {
            if k == "battery_j" {
                *v = -1e9;
            }
        }
    });
    let clean_path = temp_path("clean.jsonl");
    let bad_path = temp_path("bad.jsonl");
    std::fs::write(&clean_path, &clean).unwrap();
    std::fs::write(&bad_path, &corrupted).unwrap();

    let (code, stdout, _) = analyze(&["audit", clean_path.to_str().unwrap()]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("audit OK"), "{stdout}");

    let (code, _, stderr) = analyze(&["audit", bad_path.to_str().unwrap()]);
    assert_eq!(code, 1);
    assert!(stderr.contains("battery.window"), "{stderr}");
    assert!(
        stderr.contains(&format!("seq={}", event.seq))
            && stderr.contains(&format!("scope=\"{}\"", event.scope)),
        "violation must pinpoint (scope, seq, slot): {stderr}"
    );

    let (code, stdout, _) = analyze(&[
        "diff",
        clean_path.to_str().unwrap(),
        clean_path.to_str().unwrap(),
    ]);
    assert_eq!(code, 0);
    assert!(stdout.contains("identical"), "{stdout}");

    let (code, _, stderr) = analyze(&[
        "diff",
        clean_path.to_str().unwrap(),
        bad_path.to_str().unwrap(),
        "--context",
        "2",
    ]);
    assert_eq!(code, 1);
    assert!(stderr.contains("first divergence at line"), "{stderr}");
    assert!(stderr.contains("event sim.slot"), "{stderr}");

    let (code, stdout, _) = analyze(&["summary", clean_path.to_str().unwrap()]);
    assert_eq!(code, 0);
    assert!(stdout.contains("battery trajectory"), "{stdout}");
    assert!(stdout.contains("core.replan.count"), "{stdout}");

    // Usage errors exit 2; unreadable input exits 1.
    let (code, _, _) = analyze(&["frobnicate"]);
    assert_eq!(code, 2);
    let (code, _, _) = analyze(&["audit"]);
    assert_eq!(code, 2);
    let (code, _, _) = analyze(&["audit", "/nonexistent/trace.jsonl"]);
    assert_eq!(code, 1);

    let _ = std::fs::remove_file(clean_path);
    let _ = std::fs::remove_file(bad_path);
}

#[test]
fn profile_subcommand_renders_the_span_tree_and_gates_regressions() {
    // A real Table 1 run: the Oracle baseline exercises the §4.2
    // parameter scheduler (`params.plan`), the proposed controller the
    // replan path (`sim.run` → `core.decide` → `core.replan`). A Table 3
    // run absorbed under a scope joins it in the same profile.
    let telemetry = Recorder::enabled("repro");
    let platform = Platform::pama();
    let scenarios = [scenarios::scenario_one(), scenarios::scenario_two()];
    experiments::table1_jobs_with(
        &platform,
        &scenarios,
        experiments::DEFAULT_PERIODS,
        2,
        &telemetry,
    )
    .unwrap();
    let rec = telemetry.sibling();
    experiments::table3_5_with(&platform, &scenarios[0], experiments::DEFAULT_PERIODS, &rec)
        .unwrap();
    telemetry.absorb("table3", &rec);
    let profile_jsonl = telemetry.profile_jsonl();
    assert!(
        profile_jsonl.contains("\"path\":\"table3/"),
        "absorbed scope missing from the profile"
    );
    let profile_path = temp_path("tree.profile");
    std::fs::write(&profile_path, &profile_jsonl).unwrap();

    // Tree rendering: header, the scheduler span, and a self-time ranking
    // that the acceptance criteria key on.
    let (code, stdout, _) = analyze(&["profile", profile_path.to_str().unwrap()]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("span tree"), "{stdout}");
    assert!(stdout.contains("self-time ranking:"), "{stdout}");
    assert!(stdout.contains("params.plan"), "{stdout}");
    assert!(stdout.contains("core.decide"), "{stdout}");
    assert!(stdout.contains("hottest self-time:"), "{stdout}");

    // Collapsed stacks: every line is `path self_µs`.
    let (code, stdout, _) = analyze(&["profile", profile_path.to_str().unwrap(), "--collapse"]);
    assert_eq!(code, 0, "{stdout}");
    assert!(!stdout.is_empty());
    for line in stdout.lines() {
        let (path, micros) = line.rsplit_once(' ').expect("collapsed line has two parts");
        assert!(!path.is_empty(), "{line}");
        micros.parse::<u64>().expect("self-time in whole µs");
    }

    // Baseline round-trip and regression gate over the span tree.
    let baseline_path = temp_path("BENCH_tree.json");
    let (code, stdout, _) = analyze(&[
        "profile",
        profile_path.to_str().unwrap(),
        "--name",
        "tree",
        "--out",
        baseline_path.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{stdout}");
    let baseline = BenchBaseline::parse(&std::fs::read_to_string(&baseline_path).unwrap()).unwrap();
    assert!(baseline.spans.iter().any(|s| s.name.starts_with("table3/")));
    let (code, stdout, _) = analyze(&[
        "profile",
        profile_path.to_str().unwrap(),
        "--check",
        baseline_path.to_str().unwrap(),
        "--tolerance",
        "5",
    ]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("profile OK"), "{stdout}");

    // Slow every tree node 10x; the gate must trip.
    let slow: String = dpm_telemetry::parse_profile_jsonl(&profile_jsonl)
        .unwrap()
        .into_iter()
        .map(|mut n| {
            n.total_s *= 10.0;
            serde_json::to_string(&n).unwrap() + "\n"
        })
        .collect();
    let slow_path = temp_path("slow_tree.profile");
    std::fs::write(&slow_path, &slow).unwrap();
    let (code, _, stderr) = analyze(&[
        "profile",
        slow_path.to_str().unwrap(),
        "--check",
        baseline_path.to_str().unwrap(),
        "--tolerance",
        "25",
    ]);
    assert_eq!(code, 1);
    assert!(stderr.contains("regression"), "{stderr}");
    assert!(stderr.contains("exceeds baseline"), "{stderr}");

    let _ = std::fs::remove_file(profile_path);
    let _ = std::fs::remove_file(baseline_path);
    let _ = std::fs::remove_file(slow_path);
}

#[test]
fn old_profile_format_and_retired_bench_command_are_rejected() {
    // A profile in the older format opens with flat per-name lines; the
    // gate must refuse it at line 1 rather than check half a document.
    let old =
        "{\"name\":\"table1.job\",\"count\":12,\"total_s\":0.24,\"mean_s\":0.02,\"max_s\":0.05}\n\
               {\"path\":\"table1.run;table1.job\",\"count\":12,\"total_s\":0.24,\"max_s\":0.05}\n";
    let old_path = temp_path("old.profile");
    std::fs::write(&old_path, old).unwrap();
    let (code, _, stderr) = analyze(&[
        "profile",
        old_path.to_str().unwrap(),
        "--check",
        "BENCH_repro.json",
    ]);
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("line 1:"), "{stderr}");

    let (code, _, stderr) = analyze(&["bench", old_path.to_str().unwrap()]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("unknown command `bench`"), "{stderr}");

    let _ = std::fs::remove_file(old_path);
}
