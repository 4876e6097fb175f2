//! Metric catalogue, summary statistics and the result line.
//!
//! Every workload reports the same end-to-end set (untraced run) and the
//! same per-layer set (traced run), so parent and change always compare
//! like with like. A layer a workload never enters reports `0`.

use std::fmt::Write as _;
use std::time::Duration;

/// End-to-end metrics: `(name, unit)`, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`, printed by every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("runner.busy_share", "share"),
    ("runner.max_job_ms", "ms"),
    ("runner.speedup", "ratio"),
    ("core.decide_us.proposed", "us"),
    ("core.decide_us.proposed_safe", "us"),
    ("core.decide_us.static", "us"),
    ("core.decide_us.static_safe", "us"),
    ("core.decide_calls", "count"),
    ("core.decide_share", "share"),
    ("core.alloc_compute_us", "us"),
    ("core.pareto_build_us", "us"),
    ("core.plan_us", "us"),
    ("sim.step_self_us", "us"),
    ("sim.finish_us", "us"),
    ("sim.fleet_step_ns", "ns"),
    ("sim.fleet_report_us", "us"),
    ("workloads.fault_plan_us", "us"),
    ("workloads.board_spec_us", "us"),
    ("telemetry.overhead_share", "share"),
    ("telemetry.to_jsonl_us_per_line", "us"),
    ("telemetry.events_recorded", "count"),
    ("telemetry.events_dropped", "count"),
    ("trace.parse_us_per_line", "us"),
    ("trace.audit_us_per_line", "us"),
    ("trace.push_us_per_line", "us"),
    ("serve.handle_us.open", "us"),
    ("serve.handle_us.advance", "us"),
    ("serve.handle_us.query", "us"),
    ("serve.handle_us.metrics", "us"),
    ("serve.handle_us.close", "us"),
    ("serve.codec_us", "us"),
    ("serve.audit_share", "share"),
    ("serve.wait_ms", "ms"),
    ("unattributed_share", "share"),
    ("tracing.overhead_share", "share"),
];

/// Everything one run measured, ready to print.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (points, shards, requests, audit passes).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// `(name, value)` pairs; units come from the catalogue.
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines printed ahead of the result line.
    pub notes: Vec<String>,
    /// Output checks that failed, one line each.
    pub problems: Vec<String>,
    /// Digest of the workload's CSV, where it writes one.
    pub digest: Option<String>,
}

impl Report {
    /// Record a metric; its unit is looked up in the catalogue.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    /// Record a failed output check.
    pub fn problem(&mut self, msg: impl Into<String>) {
        self.problems.push(msg.into());
    }

    /// Record a human-readable line.
    pub fn note(&mut self, msg: impl Into<String>) {
        self.notes.push(msg.into());
    }

    /// Keep exactly the catalogue's metrics: drop the others and fill
    /// the entries this run did not measure with `0` (the layer is idle
    /// on this workload), so every run of a mode prints the same set.
    pub fn complete(&mut self, catalogue: &[(&'static str, &'static str)]) {
        self.metrics
            .retain(|(n, _)| catalogue.iter().any(|(c, _)| c == n));
        for (name, _) in catalogue {
            if !self.metrics.iter().any(|(n, _)| n == name) {
                self.metrics.push((name, 0.0));
            }
        }
    }

    /// The result line: one JSON object, metrics in catalogue order.
    pub fn json(&self, catalogue: &[(&'static str, &'static str)]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.problems.is_empty(),
            self.attempted.max(1),
            self.failed
        );
        let mut first = true;
        for (name, unit) in catalogue {
            let value = self
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, v)| *v);
            let value = if value.is_finite() { value } else { 0.0 };
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// `q`-quantile of `samples` (linear interpolation between order
/// statistics); `0` for an empty set.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Microseconds in `d`.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `num / den`, or `0` when the denominator is empty.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or `0` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a 64-bit digest of `bytes`, as 16 hex digits.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for name in &all {
            assert!(valid_name(name), "bad metric name {name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
    }

    #[test]
    fn the_catalogue_matches_benchmark_json() {
        let manifest = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = manifest.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn the_result_line_carries_every_metric_with_its_unit() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.set("setup_s", 0.25);
        let line = r.json(END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"peak_rss_mb\": {\"value\": 0.0, \"unit\": \"MB\"}"));
    }
}
