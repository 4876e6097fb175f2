//! # dpm-telemetry
//!
//! Deterministic observability for the DPM stack (DESIGN.md §10): a
//! [`Recorder`] that collects counters, gauges, fixed-bucket histograms,
//! span timers, and a bounded ring of structured events, and emits them
//! as JSONL.
//!
//! ## Determinism contract
//!
//! Everything that reaches the JSONL trace is **deterministic by
//! construction**: events are stamped with *simulated* time and a
//! monotonic per-scope sequence number, metric maps iterate in sorted
//! (`BTreeMap`) order, and parallel harnesses give each job its own
//! [`Recorder::sibling`] which the main thread [`Recorder::absorb`]s in
//! job-index order. The trace for a given workload is therefore
//! byte-identical across repeated runs and across `--jobs` settings.
//!
//! Wall-clock measurements ([`Recorder::span`]/[`Recorder::record_span_path`])
//! are the one intentional exception; they never enter the trace. Both
//! land in one span store keyed by `(scope, path)`. Only a span's
//! deterministic *call count* is traced, summed per scope and leaf frame;
//! the timings live in the explicitly separate span-tree profile
//! ([`Recorder::profile_jsonl`] and the stderr summary), clearly labeled
//! as non-reproducible.
//!
//! ## Cost when disabled
//!
//! A [`Recorder::disabled`] handle holds no allocation and every method
//! returns after one `Option` check, so instrumented hot paths cost a
//! branch when telemetry is off (benchmarked in `dpm-bench/benches/
//! telemetry.rs`).
//!
//! ```
//! use dpm_telemetry::Recorder;
//!
//! let rec = Recorder::enabled("example");
//! rec.incr("jobs.completed", 3);
//! rec.event("slot", Some(0), 4.8, &[("battery_j", 7.25)]);
//! let jsonl = rec.to_jsonl();
//! assert!(jsonl.lines().count() >= 2);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod histogram;
pub mod recorder;
pub mod trace;

pub use histogram::Histogram;
pub use recorder::{Recorder, SpanGuard, DEFAULT_EVENT_CAPACITY};
pub use trace::{
    parse_profile_jsonl, parse_trace_jsonl, trace_jsonl_lines, CounterLine, Event, GaugeLine,
    HistogramLine, ParseError, SpanLine, SpanNodeLine, TraceLine, TraceMeta, SCHEMA_VERSION,
};

// Compile-time thread-safety audit: recorders are shared across the
// scoped worker threads of the dpm-bench runner (one sibling per job) and
// cloned into governors and simulations that move across the job
// boundary, so the handle must be `Send + Sync`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Recorder>();
    assert_send_sync::<TraceLine>();
};

/// One-stop imports.
pub mod prelude {
    pub use crate::histogram::Histogram;
    pub use crate::recorder::{Recorder, SpanGuard};
    pub use crate::trace::{Event, TraceLine};
}
