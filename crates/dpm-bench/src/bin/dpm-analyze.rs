//! `dpm-analyze` — trace analysis over the telemetry layer's schema-v1
//! documents (see docs/TRACE_SCHEMA.md).
//!
//! ```text
//! dpm-analyze audit <trace> [--tolerance <J>]
//! dpm-analyze diff <left> <right> [--context <N>]
//! dpm-analyze summary <trace>
//! dpm-analyze fleet <trace>
//! dpm-analyze profile <profile> [--collapse]
//! dpm-analyze profile <profile> --name <name> [--out <path>]
//! dpm-analyze profile <profile> --check <baseline> [--tolerance <pct>]
//! ```
//!
//! - `audit` replays a trace against the machine-checked invariants
//!   (battery window, energy conservation, safety-transition legality,
//!   undersupply monotonicity) and exits 1 on the first violation,
//!   pinpointed as `(scope, seq, slot)`.
//! - `diff` compares two traces and reports the first diverging line
//!   with context and a decoded hint — the CI determinism gate.
//! - `summary` renders a per-run report: activity counters, safety
//!   transition census, histogram quantiles, ASCII battery trajectories.
//! - `fleet` aggregates the per-shard `fleet.*` metrics of a
//!   `campaign --fleet` trace into one population report — survival
//!   fraction, battery-floor percentiles (p1/p10/p50), shed census —
//!   and exits 1 when the trace carries no fleet metrics.
//! - `profile` reads the span-tree lines of a wall-clock `.profile`
//!   document and renders the call tree with per-node self-time
//!   (total minus direct children) plus a self-time ranking.
//!   `--collapse` emits collapsed-stack lines (`path self_µs`) for
//!   flamegraph tools. `--name` condenses the profile into a
//!   `BENCH_<name>.json` baseline; `--check` is the perf gate: it
//!   checks the profile against a committed baseline and exits 1 on
//!   regression.
//!
//! A `<trace>` argument of `-` reads the document from stdin, so a live
//! `dpm-serve` session trace pipes straight into `audit -`/`summary -`.
//!
//! Exit codes: 0 success, 1 violation/divergence/regression or
//! unreadable input, 2 usage error.

use dpm_telemetry::{parse_profile_jsonl, SpanNodeLine};
use dpm_trace::{audit, first_divergence, render_fleet, render_summary};
use dpm_trace::{profile, summarize_fleet, AuditConfig, BenchBaseline, Trace};

const USAGE: &str = "usage:
  dpm-analyze audit <trace> [--tolerance <J>]
  dpm-analyze diff <left> <right> [--context <N>]
  dpm-analyze summary <trace>
  dpm-analyze fleet <trace>
  dpm-analyze profile <profile> [--collapse]
  dpm-analyze profile <profile> --name <name> [--out <path>]
  dpm-analyze profile <profile> --check <baseline> [--tolerance <pct>]

<trace> may be `-` to read the document from stdin (e.g. piping a
dpm-serve session trace into `audit -` or `summary -`).";

fn usage_exit(message: &str) -> ! {
    eprintln!("dpm-analyze: {message}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// Read a document from a path, or from stdin when the path is `-` —
/// so live streams pipe straight in (`dpm-serve ... | dpm-analyze
/// audit -`).
fn read_file(path: &str) -> String {
    if path == "-" {
        let mut body = String::new();
        match std::io::Read::read_to_string(&mut std::io::stdin().lock(), &mut body) {
            Ok(_) => return body,
            Err(e) => {
                eprintln!("dpm-analyze: cannot read stdin: {e}");
                std::process::exit(1);
            }
        }
    }
    match std::fs::read_to_string(path) {
        Ok(body) => body,
        Err(e) => {
            eprintln!("dpm-analyze: cannot read {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn parse_trace(path: &str) -> Trace {
    match Trace::parse(&read_file(path)) {
        Ok(trace) => trace,
        Err(e) => {
            eprintln!("dpm-analyze: {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn parse_flag<T: std::str::FromStr>(args: &mut std::vec::IntoIter<String>, flag: &str) -> T {
    match args.next().and_then(|v| v.parse::<T>().ok()) {
        Some(v) => v,
        None => usage_exit(&format!("{flag} requires a value")),
    }
}

fn cmd_audit(mut args: std::vec::IntoIter<String>) -> i32 {
    let mut path: Option<String> = None;
    let mut cfg = AuditConfig::default();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--tolerance" => cfg.tolerance_j = parse_flag(&mut args, "--tolerance"),
            _ if path.is_none() => path = Some(a),
            _ => usage_exit(&format!("unexpected argument `{a}`")),
        }
    }
    let Some(path) = path else {
        usage_exit("audit requires a trace path");
    };
    let trace = parse_trace(&path);
    let report = audit(&trace, &cfg);
    for note in &report.notes {
        eprintln!("note: {note}");
    }
    if report.ok() {
        println!(
            "audit OK: {} checks across {} scopes, {} events, 0 violations",
            report.checks,
            report.scopes,
            trace.events.len()
        );
        0
    } else {
        for v in &report.violations {
            eprintln!("violation: {v}");
        }
        eprintln!(
            "audit FAILED: {} violation(s) in {} checks across {} scopes",
            report.violations.len(),
            report.checks,
            report.scopes
        );
        1
    }
}

fn cmd_diff(mut args: std::vec::IntoIter<String>) -> i32 {
    let mut paths: Vec<String> = Vec::new();
    let mut context = 3usize;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--context" => context = parse_flag(&mut args, "--context"),
            _ if paths.len() < 2 => paths.push(a),
            _ => usage_exit(&format!("unexpected argument `{a}`")),
        }
    }
    let [left_path, right_path] = &paths[..] else {
        usage_exit("diff requires two trace paths");
    };
    let left = read_file(left_path);
    let right = read_file(right_path);
    match first_divergence(&left, &right, context) {
        None => {
            println!("traces are identical ({} lines)", left.lines().count());
            0
        }
        Some(d) => {
            eprintln!("traces differ: {left_path} (<) vs {right_path} (>)");
            eprint!("{d}");
            1
        }
    }
}

fn cmd_summary(mut args: std::vec::IntoIter<String>) -> i32 {
    let Some(path) = args.next() else {
        usage_exit("summary requires a trace path");
    };
    if let Some(extra) = args.next() {
        usage_exit(&format!("unexpected argument `{extra}`"));
    }
    print!("{}", render_summary(&parse_trace(&path)));
    0
}

fn cmd_fleet(mut args: std::vec::IntoIter<String>) -> i32 {
    let Some(path) = args.next() else {
        usage_exit("fleet requires a trace path");
    };
    if let Some(extra) = args.next() {
        usage_exit(&format!("unexpected argument `{extra}`"));
    }
    match summarize_fleet(&parse_trace(&path)) {
        Some(summary) => {
            print!("{}", render_fleet(&summary));
            0
        }
        None => {
            eprintln!("dpm-analyze: {path}: no fleet.* metrics (not a fleet-campaign trace)");
            1
        }
    }
}

/// Read and parse a `.profile` document, exiting 1 with a pinpointed
/// message on malformed input (including the older flat per-name
/// format, which fails at line 1).
fn parse_profile(path: &str) -> Vec<SpanNodeLine> {
    match parse_profile_jsonl(&read_file(path)) {
        Ok(tree) => tree,
        Err(e) => {
            eprintln!("dpm-analyze: {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn cmd_profile(mut args: std::vec::IntoIter<String>) -> i32 {
    let mut profile_path: Option<String> = None;
    let mut collapse = false;
    let mut name: Option<String> = None;
    let mut out: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut tolerance_pct = 25.0f64;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--collapse" => collapse = true,
            "--name" => name = Some(parse_flag(&mut args, "--name")),
            "--out" => out = Some(parse_flag(&mut args, "--out")),
            "--check" => check_path = Some(parse_flag(&mut args, "--check")),
            "--tolerance" => tolerance_pct = parse_flag(&mut args, "--tolerance"),
            _ if profile_path.is_none() => profile_path = Some(a),
            _ => usage_exit(&format!("unexpected argument `{a}`")),
        }
    }
    let Some(profile_path) = profile_path else {
        usage_exit("profile requires a profile path");
    };
    let tree = parse_profile(&profile_path);

    if let Some(check_path) = check_path {
        let baseline = match BenchBaseline::parse(&read_file(&check_path)) {
            Ok(baseline) => baseline,
            Err(e) => {
                eprintln!("dpm-analyze: {check_path}: {e}");
                return 1;
            }
        };
        let regressions = profile::check(&baseline, &tree, tolerance_pct);
        if regressions.is_empty() {
            println!(
                "profile OK: {} span-tree node(s) within {tolerance_pct}% of baseline \"{}\"",
                baseline.spans.len(),
                baseline.name
            );
            return 0;
        }
        for r in &regressions {
            eprintln!("regression: {}: {}", r.span, r.message);
        }
        eprintln!(
            "profile FAILED: {} regression(s) against baseline \"{}\" at {tolerance_pct}% tolerance",
            regressions.len(),
            baseline.name
        );
        return 1;
    }

    if let Some(name) = name {
        let baseline = BenchBaseline::from_profile(&name, &tree);
        let out = out.unwrap_or_else(|| format!("BENCH_{name}.json"));
        if let Err(e) = std::fs::write(&out, baseline.to_json()) {
            eprintln!("dpm-analyze: cannot write {out}: {e}");
            return 1;
        }
        println!(
            "wrote span-tree baseline \"{name}\" ({} spans) to {out}",
            baseline.spans.len()
        );
        return 0;
    }

    if collapse {
        print!("{}", profile::collapse(&tree));
    } else {
        print!("{}", profile::render(&tree));
    }
    if tree.is_empty() && collapse {
        eprintln!("dpm-analyze: {profile_path}: no span-tree lines to collapse");
        return 1;
    }
    0
}

fn main() {
    let mut args = std::env::args().skip(1).collect::<Vec<_>>().into_iter();
    let code = match args.next().as_deref() {
        Some("audit") => cmd_audit(args),
        Some("diff") => cmd_diff(args),
        Some("summary") => cmd_summary(args),
        Some("fleet") => cmd_fleet(args),
        Some("profile") => cmd_profile(args),
        Some(other) => usage_exit(&format!("unknown command `{other}`")),
        None => usage_exit("a command is required"),
    };
    std::process::exit(code);
}
