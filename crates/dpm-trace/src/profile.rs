//! Hierarchical span-tree analysis over `.profile` documents, and the
//! perf gate built on them.
//!
//! The profiler ([`dpm_telemetry::Recorder::span`]) writes one
//! collapsed-stack [`SpanNodeLine`] per span-tree node. This module
//! derives parent/child attribution from those paths: **self time**
//! (a node's total minus its direct children's totals) versus **total
//! time**, a DFS tree rendering, and a collapsed-stack flamegraph export.
//!
//! A profile is non-reproducible by design — wall clock varies run to
//! run — but its *shape* is stable: the same paths run the same number
//! of times, and their mean durations drift only when the code
//! regresses. [`BenchBaseline`] condenses a profile into a committed
//! `BENCH_<name>.json` and [`check`] gates fresh profiles against it
//! within a tolerance band, so the hot layers (§4.1 `alloc.compute`,
//! §4.2 `params.plan`, §4.3 `core.decide;core.replan`) are CI-tracked
//! numbers rather than guesses.

use crate::error::TraceError;
use dpm_telemetry::SpanNodeLine;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Version stamp of the baseline document format.
pub const BENCH_SCHEMA: u32 = 1;

/// One span-tree node's condensed timing in a baseline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchSpan {
    /// Collapsed-stack path of the node.
    pub name: String,
    /// Completed executions.
    pub count: u64,
    /// Total wall-clock seconds.
    pub total_s: f64,
    /// Mean wall-clock seconds per execution.
    pub mean_s: f64,
    /// Longest single execution (s).
    pub max_s: f64,
}

/// A committed performance baseline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchBaseline {
    /// [`BENCH_SCHEMA`] at write time.
    pub schema: u32,
    /// Baseline name (`"repro"`, …).
    pub name: String,
    /// Spans sorted by path.
    pub spans: Vec<BenchSpan>,
}

/// One span that regressed against the baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// The offending span path.
    pub span: String,
    /// What regressed and by how much.
    pub message: String,
}

/// Mean wall-clock seconds per execution (`0.0` for an unexecuted node).
fn mean_s(line: &SpanNodeLine) -> f64 {
    if line.count == 0 {
        0.0
    } else {
        line.total_s / line.count as f64
    }
}

impl BenchBaseline {
    /// Condense a parsed profile into a named baseline, spans sorted by
    /// path so the JSON is deterministic up to the timing values.
    pub fn from_profile(name: &str, profile: &[SpanNodeLine]) -> Self {
        let mut spans: Vec<BenchSpan> = profile
            .iter()
            .map(|n| BenchSpan {
                name: n.path.clone(),
                count: n.count,
                total_s: n.total_s,
                mean_s: mean_s(n),
                max_s: n.max_s,
            })
            .collect();
        spans.sort_by(|a, b| a.name.cmp(&b.name));
        Self {
            schema: BENCH_SCHEMA,
            name: name.to_string(),
            spans,
        }
    }

    /// Serialize to the committed JSON form (pretty, trailing newline).
    pub fn to_json(&self) -> String {
        let mut json = serde_json::to_string_pretty(self).unwrap_or_default();
        json.push('\n');
        json
    }

    /// Parse a committed baseline document.
    ///
    /// # Errors
    /// [`TraceError::InvalidBaseline`] when the document does not
    /// deserialize or advertises an unknown schema.
    pub fn parse(input: &str) -> Result<Self, TraceError> {
        let baseline: Self =
            serde_json::from_str(input).map_err(|e| TraceError::InvalidBaseline(e.to_string()))?;
        if baseline.schema != BENCH_SCHEMA {
            return Err(TraceError::InvalidBaseline(format!(
                "baseline schema v{} is not the v{BENCH_SCHEMA} this analyzer understands",
                baseline.schema
            )));
        }
        Ok(baseline)
    }
}

/// Check a fresh profile against a committed baseline.
///
/// A span regresses when it vanished, its deterministic call count
/// changed (that is a behavior change, not noise), or its mean duration
/// exceeds the baseline's by more than `tolerance_pct` percent. Spans
/// present in the candidate but not the baseline are reported too — new
/// hot paths should enter the baseline deliberately. Returns the empty
/// vector when the profile is within the band.
pub fn check(
    baseline: &BenchBaseline,
    candidate: &[SpanNodeLine],
    tolerance_pct: f64,
) -> Vec<Regression> {
    let mut regressions = Vec::new();
    let factor = 1.0 + tolerance_pct / 100.0;
    for base in &baseline.spans {
        let Some(cur) = candidate.iter().find(|n| n.path == base.name) else {
            regressions.push(Regression {
                span: base.name.clone(),
                message: "span missing from the candidate profile".into(),
            });
            continue;
        };
        if cur.count != base.count {
            regressions.push(Regression {
                span: base.name.clone(),
                message: format!(
                    "call count changed: baseline {}, candidate {} (deterministic counts must match)",
                    base.count, cur.count
                ),
            });
        }
        // Allow an absolute noise floor so short spans do not flap on
        // scheduler noise. Two components: 1 µs of timer jitter per
        // measurement, plus a 100 µs preemption budget amortized over
        // the call count — a one-shot 50 µs span doubles when the
        // scheduler steals its core once, but the same spike divided
        // across thousands of calls is invisible in the mean, so the
        // slack shrinks as 1/count and stays negligible on hot paths.
        let noise_floor = 1e-6 + 1e-4 / base.count.max(1) as f64;
        let limit = base.mean_s * factor + noise_floor;
        let cur_mean = mean_s(cur);
        if cur_mean > limit {
            regressions.push(Regression {
                span: base.name.clone(),
                message: format!(
                    "mean {cur_mean:.6}s exceeds baseline {:.6}s by more than {tolerance_pct}%",
                    base.mean_s
                ),
            });
        }
    }
    for cur in candidate {
        if !baseline.spans.iter().any(|s| s.name == cur.path) {
            regressions.push(Regression {
                span: cur.path.clone(),
                message: "span absent from the baseline (re-generate it to admit new spans)".into(),
            });
        }
    }
    regressions
}

/// One analyzed span-tree node.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// Collapsed-stack path (`;`-separated frames, root first).
    pub path: String,
    /// The leaf frame (last path segment).
    pub name: String,
    /// Nesting depth (0 for a root frame).
    pub depth: usize,
    /// Completed executions of exactly this path.
    pub count: u64,
    /// Total wall-clock seconds, children included.
    pub total_s: f64,
    /// Longest single execution (s).
    pub max_s: f64,
    /// Wall-clock seconds spent in this frame itself: total minus the
    /// direct children's totals, floored at zero (timer noise can make
    /// children sum marginally past their parent).
    pub self_s: f64,
}

/// The parent path of a collapsed-stack path (`"a;b;c"` → `"a;b"`).
fn parent_of(path: &str) -> Option<&str> {
    path.rfind(';').map(|i| &path[..i])
}

/// Whether `child` is a *direct* child path of `parent`.
fn is_direct_child(parent: &str, child: &str) -> bool {
    child.len() > parent.len()
        && child.starts_with(parent)
        && child.as_bytes().get(parent.len()) == Some(&b';')
        && !child[parent.len() + 1..].contains(';')
}

/// Derive self-time attribution from raw span-tree lines; the result is
/// sorted by path. Duplicate paths (possible after concatenating
/// documents) are merged.
pub fn analyze(lines: &[SpanNodeLine]) -> Vec<SpanNode> {
    let mut nodes: Vec<SpanNode> = Vec::with_capacity(lines.len());
    for line in lines {
        match nodes.iter_mut().find(|n| n.path == line.path) {
            Some(n) => {
                n.count += line.count;
                n.total_s += line.total_s;
                n.max_s = n.max_s.max(line.max_s);
            }
            None => {
                let name = line
                    .path
                    .rsplit(';')
                    .next()
                    .unwrap_or(line.path.as_str())
                    .to_string();
                nodes.push(SpanNode {
                    path: line.path.clone(),
                    name,
                    depth: line.path.matches(';').count(),
                    count: line.count,
                    total_s: line.total_s,
                    max_s: line.max_s,
                    self_s: 0.0,
                });
            }
        }
    }
    nodes.sort_by(|a, b| a.path.cmp(&b.path));
    for i in 0..nodes.len() {
        let children_total: f64 = nodes
            .iter()
            .filter(|c| is_direct_child(&nodes[i].path, &c.path))
            .map(|c| c.total_s)
            .sum();
        nodes[i].self_s = (nodes[i].total_s - children_total).max(0.0);
    }
    nodes
}

fn render_subtree(out: &mut String, nodes: &[SpanNode], path: &str, indent: usize) {
    for node in nodes.iter().filter(|n| n.path == path) {
        let _ = writeln!(
            out,
            "  {:>8}x  total {:>10.6}s  self {:>10.6}s  max {:>10.6}s  {:indent$}{}",
            node.count,
            node.total_s,
            node.self_s,
            node.max_s,
            "",
            node.name,
            indent = indent * 2,
        );
    }
    let children: Vec<&SpanNode> = nodes
        .iter()
        .filter(|c| is_direct_child(path, &c.path))
        .collect();
    for child in children {
        render_subtree(out, nodes, &child.path, indent + 1);
    }
}

/// Render the span tree (DFS, indented by depth) followed by a
/// self-time ranking, hottest first. The header carries the same
/// wall-clock disclaimer as the stderr summary: none of this is a
/// determinism surface.
pub fn render(lines: &[SpanNodeLine]) -> String {
    let nodes = analyze(lines);
    let mut out = String::new();
    if nodes.is_empty() {
        let _ = writeln!(out, "profile: no span-tree lines (profiler not wired?)");
        return out;
    }
    let _ = writeln!(
        out,
        "span tree ({} nodes, WALL CLOCK — non-deterministic, excluded from the trace):",
        nodes.len()
    );
    let roots: Vec<String> = nodes
        .iter()
        .filter(|n| parent_of(&n.path).is_none_or(|p| !nodes.iter().any(|other| other.path == p)))
        .map(|n| n.path.clone())
        .collect();
    for root in roots {
        render_subtree(&mut out, &nodes, &root, 0);
    }

    let mut ranked: Vec<&SpanNode> = nodes.iter().collect();
    ranked.sort_by(|a, b| b.self_s.total_cmp(&a.self_s).then(a.path.cmp(&b.path)));
    let _ = writeln!(out, "\nself-time ranking:");
    for node in &ranked {
        let _ = writeln!(
            out,
            "  self {:>10.6}s  total {:>10.6}s  {:>8}x  {}",
            node.self_s, node.total_s, node.count, node.path,
        );
    }
    if let Some(hottest) = ranked.first() {
        let _ = writeln!(
            out,
            "\nhottest self-time: {} ({:.6}s across {} calls)",
            hottest.path, hottest.self_s, hottest.count,
        );
    }
    out
}

/// Collapsed-stack flamegraph export: one `path value` line per node,
/// where the value is the node's **self** time in whole microseconds
/// (flamegraph tooling sums children itself). Pipe into any
/// `flamegraph.pl`-compatible renderer.
pub fn collapse(lines: &[SpanNodeLine]) -> String {
    let mut out = String::new();
    for node in analyze(lines) {
        let _ = writeln!(out, "{} {}", node.path, (node.self_s * 1e6).round() as u64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(path: &str, count: u64, total_s: f64) -> SpanNodeLine {
        SpanNodeLine {
            path: path.into(),
            count,
            total_s,
            max_s: total_s,
        }
    }

    fn sample() -> Vec<SpanNodeLine> {
        vec![
            node("sim.run", 1, 1.0),
            node("sim.run;core.decide", 24, 0.6),
            node("sim.run;core.decide;core.replan", 7, 0.2),
            node("params.plan", 2, 0.5),
        ]
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let nodes = analyze(&sample());
        let by_path = |p: &str| nodes.iter().find(|n| n.path == p).expect(p);
        assert!((by_path("sim.run").self_s - 0.4).abs() < 1e-12);
        assert!((by_path("sim.run;core.decide").self_s - 0.4).abs() < 1e-12);
        assert!((by_path("sim.run;core.decide;core.replan").self_s - 0.2).abs() < 1e-12);
        assert!((by_path("params.plan").self_s - 0.5).abs() < 1e-12);
        assert_eq!(by_path("sim.run;core.decide").depth, 1);
        assert_eq!(by_path("sim.run;core.decide").name, "core.decide");
    }

    #[test]
    fn children_summing_past_their_parent_floor_at_zero() {
        let nodes = analyze(&[node("a", 1, 0.1), node("a;b", 1, 0.11)]);
        let a = nodes.iter().find(|n| n.path == "a").expect("a");
        assert_eq!(a.self_s, 0.0);
    }

    #[test]
    fn sibling_prefixes_are_not_children() {
        // "a;bc" must not be mistaken for a child of "a;b".
        let nodes = analyze(&[node("a;b", 1, 0.5), node("a;bc", 1, 0.2)]);
        let b = nodes.iter().find(|n| n.path == "a;b").expect("a;b");
        assert!((b.self_s - 0.5).abs() < 1e-12);
        assert!(!is_direct_child("a;b", "a;bc"));
        assert!(!is_direct_child("a", "a;b;c"), "grandchild is not direct");
        assert!(is_direct_child("a;b", "a;b;c"));
    }

    #[test]
    fn duplicate_paths_merge() {
        let nodes = analyze(&[node("a", 1, 0.1), node("a", 2, 0.3)]);
        assert_eq!(nodes.len(), 1);
        assert_eq!(nodes[0].count, 3);
        assert!((nodes[0].total_s - 0.4).abs() < 1e-12);
    }

    #[test]
    fn render_ranks_by_self_time_and_names_the_hottest() {
        let report = render(&sample());
        assert!(report.contains("span tree"), "{report}");
        assert!(report.contains("WALL CLOCK"), "{report}");
        assert!(report.contains("self-time ranking"), "{report}");
        // params.plan (0.5 self) outranks everything else.
        assert!(
            report.contains("hottest self-time: params.plan"),
            "{report}"
        );
        // The tree view indents children under their parents.
        let decide_row = report
            .lines()
            .find(|l| l.ends_with("  core.decide"))
            .expect("indented child row");
        assert!(decide_row.contains("    core.decide"), "{decide_row}");
        assert!(render(&[]).contains("no span-tree lines"));
    }

    #[test]
    fn collapse_emits_flamegraph_lines_with_self_time_values() {
        let collapsed = collapse(&sample());
        let lines: Vec<&str> = collapsed.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines.contains(&"params.plan 500000"), "{collapsed}");
        assert!(
            lines.contains(&"sim.run;core.decide;core.replan 200000"),
            "{collapsed}"
        );
        // Every line is `path value` with an integer value.
        for line in lines {
            let value = line.rsplit(' ').next().unwrap_or("");
            assert!(value.parse::<u64>().is_ok(), "{line}");
        }
    }

    #[test]
    fn baseline_round_trips_and_sorts_spans() {
        let base = BenchBaseline::from_profile("repro", &sample());
        assert_eq!(base.schema, BENCH_SCHEMA);
        let names: Vec<&str> = base.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "params.plan",
                "sim.run",
                "sim.run;core.decide",
                "sim.run;core.decide;core.replan"
            ]
        );
        assert!((base.spans[2].mean_s - 0.025).abs() < 1e-12);
        let json = base.to_json();
        assert!(json.ends_with('\n'));
        let back = BenchBaseline::parse(&json).expect("parses");
        assert_eq!(back, base);
    }

    #[test]
    fn malformed_and_future_baselines_are_rejected() {
        assert!(matches!(
            BenchBaseline::parse("not json"),
            Err(TraceError::InvalidBaseline(_))
        ));
        let base = BenchBaseline::from_profile("repro", &sample());
        let bumped = base.to_json().replacen("1", "9", 1);
        assert!(matches!(
            BenchBaseline::parse(&bumped),
            Err(TraceError::InvalidBaseline(_))
        ));
    }

    #[test]
    fn identical_profile_is_within_band() {
        let base = BenchBaseline::from_profile("repro", &sample());
        assert!(check(&base, &sample(), 10.0).is_empty());
    }

    #[test]
    fn slow_span_regresses_but_tolerance_absorbs_noise() {
        let base = BenchBaseline::from_profile("repro", &sample());
        let mut cur = sample();
        cur[1].total_s = 0.63; // +5% on sim.run;core.decide
        assert!(check(&base, &cur, 10.0).is_empty());
        cur[1].total_s = 0.9; // +50%
        let regs = check(&base, &cur, 10.0);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].span, "sim.run;core.decide");
        assert!(regs[0].message.contains("exceeds baseline"));
    }

    #[test]
    fn count_changes_and_missing_or_new_spans_are_regressions() {
        let base = BenchBaseline::from_profile("repro", &sample());
        let mut cur = sample();
        cur[1].count = 25;
        let regs = check(&base, &cur, 50.0);
        assert!(regs.iter().any(|r| r.message.contains("call count")));

        let removed: Vec<SpanNodeLine> = sample().into_iter().skip(1).collect();
        let regs = check(&base, &removed, 50.0);
        assert!(regs
            .iter()
            .any(|r| r.span == "sim.run" && r.message.contains("missing")));

        let mut added = sample();
        added.push(node("sim.run;new.span", 1, 0.0));
        let regs = check(&base, &added, 50.0);
        assert!(regs.iter().any(|r| r.span == "sim.run;new.span"));
    }

    #[test]
    fn baseline_check_round_trips_and_flags_count_changes() {
        let base = BenchBaseline::from_profile("profile", &sample());
        assert!(check(&base, &sample(), 50.0).is_empty());
        let mut changed = sample();
        changed[1].count = 25;
        let regs = check(&base, &changed, 50.0);
        assert!(regs.iter().any(|r| r.message.contains("call count")));
        let fewer: Vec<SpanNodeLine> = sample().into_iter().skip(1).collect();
        let regs = check(&base, &fewer, 50.0);
        assert!(regs.iter().any(|r| r.message.contains("missing")));
    }

    #[test]
    fn orphaned_subtrees_still_render_as_roots() {
        // A document trimmed to a subtree (no "a" line) must not lose
        // the "a;b" node from the tree view.
        let report = render(&[node("a;b", 1, 0.1)]);
        assert!(report.contains("b"), "{report}");
        assert!(report.contains("1x"), "{report}");
    }
}
