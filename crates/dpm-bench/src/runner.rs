//! Scoped-thread experiment runner: fan independent jobs across cores with
//! deterministic result ordering.
//!
//! The sweep and repro harnesses execute many *independent* simulation
//! jobs (sweep points × governors). This module partitions a job list into
//! contiguous blocks — the same `crossbeam::scope` block-partition pattern
//! proven in `dpm-fft`'s fork-join FFT (`crates/dpm-fft/src/parallel.rs`)
//! — and runs one scoped worker thread per block.
//!
//! ## Contract
//!
//! * **Determinism** — results are collected *by job index*, never by
//!   completion order, so the output of `run_indexed` is byte-for-byte
//!   independent of the worker count. `jobs = 1` degrades to a plain
//!   sequential loop on the calling thread.
//! * **Failure isolation** — one failing job cannot abort its siblings.
//!   Jobs return their own `Result`s as ordinary values, and a *panic*
//!   inside a job is caught at the job boundary and surfaced as a
//!   structured [`JobPanic`] in that job's result slot while every other
//!   job completes normally.
//! * **Timing** — every job's wall-clock time is recorded ([`JobTiming`]),
//!   along with the run's overall wall time, so harnesses can report
//!   speedup and per-job cost without instrumenting their closures.
//!
//! Worker-count resolution for binaries lives in [`resolve_jobs`]:
//! an explicit `--jobs N` beats the `DPM_JOBS` environment variable,
//! which beats the machine's available parallelism.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Environment variable consulted by [`resolve_jobs`] when no explicit
/// `--jobs` override is given.
pub const JOBS_ENV: &str = "DPM_JOBS";

/// A worker panic captured at the job boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// Index of the job whose closure panicked.
    pub job: usize,
    /// The panic payload, when it was a string (the common case for
    /// `panic!`/`assert!`); a placeholder otherwise.
    pub message: String,
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job {} panicked: {}", self.job, self.message)
    }
}

impl std::error::Error for JobPanic {}

/// Wall-clock cost of one job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobTiming {
    /// Job index (position in the input slice).
    pub index: usize,
    /// Wall-clock seconds the job's closure ran for.
    pub wall: f64,
}

/// Aggregate statistics for one [`run_indexed`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Number of jobs executed.
    pub jobs: usize,
    /// Worker threads actually used (≤ requested, ≤ job count).
    pub threads: usize,
    /// Wall-clock seconds for the whole run.
    pub wall: f64,
    /// Per-job wall-clock timings, in job order.
    pub timings: Vec<JobTiming>,
}

impl RunStats {
    /// Sum of per-job wall times — what a serial run would have cost.
    pub fn serial_equivalent(&self) -> f64 {
        self.timings.iter().map(|t| t.wall).sum()
    }

    /// The most expensive single job, `0.0` for an empty run.
    pub fn max_job_wall(&self) -> f64 {
        self.timings.iter().map(|t| t.wall).fold(0.0, f64::max)
    }

    /// Fold this run's timings into `telemetry` under `label`: the whole
    /// run lands in the span tree at `{label}.run`, each job beneath it
    /// at `{label}.run;{label}.job`, and the job count in the
    /// `{label}.jobs` counter. Only the counts reach the deterministic
    /// trace (as the `{label}.run` and `{label}.job` spans) — the
    /// wall-clock side stays in the profile, so traces remain
    /// byte-identical across `--jobs` settings, and `dpm-analyze profile`
    /// can attribute fan-out overhead (run self-time) separately from the
    /// jobs themselves. (Thread count is deliberately not recorded: it
    /// varies with `--jobs`.)
    pub fn record_into(&self, telemetry: &dpm_telemetry::Recorder, label: &str) {
        if !telemetry.is_enabled() {
            return;
        }
        telemetry.incr(&format!("{label}.jobs"), self.jobs as u64);
        let job_path = format!("{label}.run;{label}.job");
        for timing in &self.timings {
            telemetry.record_span_path(&job_path, timing.wall);
        }
        telemetry.record_span_path(&format!("{label}.run"), self.wall);
    }

    /// One-line human summary for a harness's stderr diagnostics.
    pub fn summary(&self) -> String {
        format!(
            "{} jobs on {} thread{} in {:.3} s (serial-equivalent {:.3} s, max job {:.3} s)",
            self.jobs,
            self.threads,
            if self.threads == 1 { "" } else { "s" },
            self.wall,
            self.serial_equivalent(),
            self.max_job_wall(),
        )
    }
}

/// Resolve the worker count for a harness binary.
///
/// Priority: an explicit CLI value (`--jobs N`), then the `DPM_JOBS`
/// environment variable, then the machine's available parallelism. Zero or
/// unparsable values are ignored at each stage, so the result is always
/// ≥ 1.
pub fn resolve_jobs(cli: Option<usize>) -> usize {
    cli.filter(|&n| n >= 1)
        .or_else(|| {
            std::env::var(JOBS_ENV)
                .ok()
                .and_then(|s| s.trim().parse().ok())
                .filter(|&n: &usize| n >= 1)
        })
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Run `f` over every item on up to `jobs` scoped worker threads and
/// return the per-job results *in input order* plus timing statistics.
///
/// Each result slot holds `Ok(R)` from the closure or `Err(JobPanic)` if
/// that particular job panicked; sibling jobs are unaffected either way.
/// The closure receives `(job_index, &item)`.
pub fn run_indexed<T, R, F>(items: &[T], jobs: usize, f: F) -> (Vec<Result<R, JobPanic>>, RunStats)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let started = Instant::now();
    let threads = jobs.clamp(1, items.len().max(1));

    let mut slots: Vec<Option<(Result<R, JobPanic>, f64)>> =
        (0..items.len()).map(|_| None).collect();

    if threads == 1 {
        for (i, (item, slot)) in items.iter().zip(slots.iter_mut()).enumerate() {
            *slot = Some(run_one(i, item, &f));
        }
    } else {
        let chunk = items.len().div_ceil(threads);
        // A panic inside a job is caught in `run_one`; only a panic in the
        // bookkeeping itself could escape a worker, in which case the
        // affected slots stay `None` and are reported as panics below.
        let _ = crossbeam::scope(|scope| {
            for (w, (item_block, slot_block)) in
                items.chunks(chunk).zip(slots.chunks_mut(chunk)).enumerate()
            {
                let f = &f;
                scope.spawn(move |_| {
                    for (i, (item, slot)) in
                        item_block.iter().zip(slot_block.iter_mut()).enumerate()
                    {
                        *slot = Some(run_one(w * chunk + i, item, f));
                    }
                });
            }
        });
    }

    let mut results = Vec::with_capacity(slots.len());
    let mut timings = Vec::with_capacity(slots.len());
    for (i, slot) in slots.into_iter().enumerate() {
        let (result, wall) = slot.unwrap_or_else(|| {
            (
                Err(JobPanic {
                    job: i,
                    message: "worker thread died before running this job".into(),
                }),
                0.0,
            )
        });
        results.push(result);
        timings.push(JobTiming { index: i, wall });
    }

    let stats = RunStats {
        jobs: results.len(),
        threads,
        wall: started.elapsed().as_secs_f64(),
        timings,
    };
    (results, stats)
}

/// Execute one job under a panic guard, timing it.
fn run_one<T, R>(
    index: usize,
    item: &T,
    f: &(impl Fn(usize, &T) -> R + Sync),
) -> (Result<R, JobPanic>, f64) {
    let t0 = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| f(index, item)));
    let wall = t0.elapsed().as_secs_f64();
    let result = outcome.map_err(|payload| JobPanic {
        job: index,
        message: panic_message(payload.as_ref()),
    });
    (result, wall)
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

// Compile-time thread-safety audit for the simulation types every worker
// moves across its job boundary (companion to the dpm-core audit block).
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<dpm_core::platform::Platform>();
    assert_send_sync::<dpm_workloads::Scenario>();
    assert_send::<dpm_sim::prelude::SimReport>();
    assert_send::<dpm_sim::prelude::SimError>();
    // Per-job sibling recorders are shared into the worker closures by
    // reference and absorbed on the main thread afterwards.
    assert_send_sync::<dpm_telemetry::Recorder>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_input_order_regardless_of_thread_count() {
        let items: Vec<usize> = (0..37).collect();
        let (serial, _) = run_indexed(&items, 1, |i, &x| (i, x * x));
        for jobs in [2, 3, 4, 8, 64] {
            let (parallel, stats) = run_indexed(&items, jobs, |i, &x| (i, x * x));
            assert_eq!(serial, parallel, "jobs = {jobs}");
            assert_eq!(stats.jobs, items.len());
            assert!(stats.threads <= jobs);
        }
        for (i, r) in serial.iter().enumerate() {
            assert_eq!(*r.as_ref().unwrap(), (i, i * i));
        }
    }

    #[test]
    fn a_panicking_job_is_isolated() {
        let items: Vec<usize> = (0..10).collect();
        let (results, _) = run_indexed(&items, 4, |_, &x| {
            assert!(x != 5, "job five exploded");
            x + 1
        });
        for (i, r) in results.iter().enumerate() {
            if i == 5 {
                let p = r.as_ref().unwrap_err();
                assert_eq!(p.job, 5);
                assert!(p.message.contains("job five exploded"), "{}", p.message);
            } else {
                assert_eq!(*r.as_ref().unwrap(), i + 1);
            }
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let items: Vec<u8> = Vec::new();
        let (results, stats) = run_indexed(&items, 4, |_, &x| x);
        assert!(results.is_empty());
        assert_eq!(stats.jobs, 0);
        assert_eq!(stats.serial_equivalent(), 0.0);
        assert_eq!(stats.max_job_wall(), 0.0);
    }

    #[test]
    fn timings_cover_every_job() {
        let items = [1u64, 2, 3];
        let (_, stats) = run_indexed(&items, 2, |_, &x| x);
        assert_eq!(stats.timings.len(), 3);
        assert!(stats.timings.iter().all(|t| t.wall >= 0.0));
        assert!(stats.wall >= 0.0);
        assert!(!stats.summary().is_empty());
    }

    #[test]
    fn resolve_jobs_prefers_cli_over_env() {
        // No env manipulation (tests run in parallel): the CLI path alone.
        assert_eq!(resolve_jobs(Some(3)), 3);
        assert!(resolve_jobs(None) >= 1);
        // Zero is treated as "unset", falling through to a machine default.
        assert!(resolve_jobs(Some(0)) >= 1);
    }
}
