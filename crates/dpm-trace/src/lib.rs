//! Trace analysis over the deterministic telemetry layer.
//!
//! [`dpm_telemetry`] writes schema-v1 JSONL traces; this crate reads
//! them back and turns them into actionable checks (see DESIGN.md §10
//! and docs/TRACE_SCHEMA.md):
//!
//! - [`model::Trace`] — parse + index a trace document;
//! - [`audit`] — replay a trace against the battery-window, energy-
//!   conservation, safety-legality, and undersupply-monotonicity
//!   invariants, pinpointing the first violation as `(scope, seq, slot)`;
//!   since PR 9 the engine is incremental ([`AuditState`]) so the same
//!   invariants gate live `dpm-serve` sessions line-by-line;
//! - [`diff`] — first-divergence comparison between two traces with
//!   decoded context (the determinism gate);
//! - [`summary`] — per-run report: activity counters, safety transition
//!   census, histogram quantiles, ASCII battery trajectories;
//! - [`fleet`] — aggregate the per-shard `fleet.*` metrics of a
//!   `campaign --fleet` trace into one population report: survival
//!   fraction, interpolated battery-floor percentiles, shed census;
//! - [`rollup`] — streaming fold of a line stream into windowed
//!   time-series (counter rates, gauge last-values, histogram
//!   quantiles per N-slot window), deterministic in sim-time — the
//!   engine behind the `dpm-serve` metrics snapshot;
//! - [`profile`] — hierarchical span-tree analysis of `.profile`
//!   documents: self-time vs total-time attribution, flamegraph
//!   collapse, and the one perf gate — condense a profile into a
//!   committed `BENCH_<name>.json` baseline and check fresh profiles
//!   against it.
//!
//! The `dpm-analyze` binary in `dpm-bench` fronts these as commands.
//!
//! Like the telemetry layer it reads, this crate must never take down a
//! caller on hostile input: non-test code is panic-free (enforced by
//! `ci/forbid_panics.sh`) and every failure is a typed [`TraceError`].

#![warn(missing_docs)]

pub mod audit;
pub mod diff;
mod error;
pub mod fleet;
pub mod model;
pub mod profile;
pub mod rollup;
pub mod summary;

pub use audit::{audit, AuditConfig, AuditReport, AuditState, Violation};
pub use diff::{first_divergence, Divergence};
pub use error::TraceError;
pub use fleet::{render as render_fleet, summarize as summarize_fleet, FleetSummary};
pub use model::{split_scoped, Trace};
pub use profile::{
    render as render_profile, BenchBaseline, BenchSpan, Regression, SpanNode, BENCH_SCHEMA,
};
pub use rollup::{Rollup, RollupWindow};
pub use summary::{quantile, render as render_summary};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Trace>();
        assert_send_sync::<AuditReport>();
        assert_send_sync::<TraceError>();
        assert_send_sync::<BenchBaseline>();
        assert_send_sync::<Divergence>();
    }
}
