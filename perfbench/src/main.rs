//! End-to-end and per-layer benchmark of the DPM workspace.
//!
//! ```text
//! dpm-perfbench --workload campaign|fleet|serve|audit --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` a run measures the workload with no timing inside
//! its passes and prints the end-to-end metrics; with `--trace 1` it
//! also times calls into each crate's public functions and prints the
//! per-layer metrics instead. Either way the last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (name → value and unit). See `README.md` for the workloads
//! and what each metric should move.

mod audit;
mod campaign;
mod fleet;
mod report;
mod serve;

use dpm_bench::runner::RunStats;
use report::{Report, END_TO_END, PER_LAYER};
use std::time::Instant;

/// The seed whose output digests are pinned below.
pub const DEFAULT_SEED: u64 = 1;

/// FNV-1a digests of the `jobs`-worker CSVs for `DEFAULT_SEED` at full
/// size. The program's outputs must not change under a speed change.
const EXPECTED_DIGESTS: [(&str, &str); 2] = [
    ("campaign", "74e98cfe2169b041"),
    ("fleet", "8254ea3e8ff60fa3"),
];

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["campaign", "fleet", "serve", "audit"];

/// Input sizes of every workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    pub campaign: campaign::Size,
    pub fleet: fleet::Size,
    pub serve: serve::Size,
    pub audit: campaign::Size,
}

impl Sizes {
    /// The sizes the benchmark measures.
    pub const FULL: Sizes = Sizes {
        campaign: campaign::Size {
            plans: 256,
            periods: 64,
        },
        fleet: fleet::Size {
            boards: 32_768,
            periods: 4,
        },
        serve: serve::Size {
            population: 512,
            periods: 1,
        },
        audit: campaign::Size {
            plans: 64,
            periods: 8,
        },
    };
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    /// Seconds the timed passes run for.
    pub seconds: f64,
    pub trace: bool,
    /// The machine's parallelism: serve connections, audit recording
    /// workers, and the fan-out of the CSV check and the runner layer.
    pub jobs: usize,
}

/// Run `f(false)` repeatedly for `opts.seconds` — alternating with
/// `f(true)` in the traced run — and return the untraced and traced
/// results. Each list holds at least one pass. `between` runs after
/// every pass, outside the passes' own timing.
pub fn timed_passes<P>(
    opts: &Options,
    mut f: impl FnMut(bool) -> P,
    mut between: impl FnMut() -> Result<(), String>,
) -> Result<(Vec<P>, Vec<P>), String> {
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    loop {
        plain.push(f(false));
        if opts.trace {
            traced.push(f(true));
        }
        between()?;
        if start.elapsed().as_secs_f64() >= opts.seconds {
            return Ok((plain, traced));
        }
    }
}

/// Each job's fastest wall time (s) over passes of the same jobs. The
/// 2-vCPU host this benchmark was built on slows its vCPUs by up to 1.6×
/// in phases lasting from a tenth of a second to seconds; a job's best
/// time over a whole run stays comparable from run to run, while its
/// median follows the share of slow phases. Latency percentiles of the
/// batch workloads are taken over their distinct jobs at these times.
pub fn fastest_jobs<'a>(passes: impl Iterator<Item = &'a RunStats>) -> Vec<f64> {
    let mut fastest: Vec<f64> = Vec::new();
    for stats in passes {
        for t in &stats.timings {
            match fastest.get_mut(t.index) {
                Some(best) => *best = best.min(t.wall),
                None => fastest.push(t.wall),
            }
        }
    }
    fastest
}

/// Set-ups at the start of a run: at least this many, and for at least
/// `MIN_SETUP_S` seconds.
const MIN_SETUPS: usize = 5;
const MIN_SETUP_S: f64 = 0.3;

/// Most set-ups in one batch.
const MAX_SETUPS: usize = 101;

/// Build a workload's inputs repeatedly (disposing of each previous
/// build first); return the last build and the batch's fastest set-up.
pub fn repeated_setup<T>(
    mut make: impl FnMut() -> Result<T, String>,
    mut dispose: impl FnMut(T) -> Result<(), String>,
) -> Result<(T, f64), String> {
    let begun = Instant::now();
    let (mut count, mut fastest) = (0, f64::INFINITY);
    let mut last = None;
    while count < MIN_SETUPS || (begun.elapsed().as_secs_f64() < MIN_SETUP_S && count < MAX_SETUPS)
    {
        if let Some(previous) = last.take() {
            dispose(previous)?;
        }
        let start = Instant::now();
        last = Some(make()?);
        fastest = fastest.min(start.elapsed().as_secs_f64());
        count += 1;
    }
    let built = last.ok_or("no set-up ran")?;
    Ok((built, fastest))
}

/// Set up again between timed passes — at least once, and until 10 ms
/// have passed — and push the batch's fastest set-up onto `best`.
/// `setup_s` is the median of the batches' fastest set-ups, so it
/// samples the host over the whole run, each batch at its best moment
/// (see `fastest_jobs` for why).
pub fn set_up_again<T>(
    best: &mut Vec<f64>,
    mut make: impl FnMut() -> Result<T, String>,
) -> Result<(), String> {
    let begun = Instant::now();
    let mut fastest = f64::INFINITY;
    for _ in 0..MAX_SETUPS {
        let start = Instant::now();
        drop(make()?);
        fastest = fastest.min(start.elapsed().as_secs_f64());
        if begun.elapsed().as_secs_f64() >= 0.01 {
            break;
        }
    }
    best.push(fastest);
    Ok(())
}

/// `tracing.overhead_share`: traced pass time over untraced, minus one.
pub fn set_tracing_overhead(report: &mut Report, untraced_s: f64, traced_s: f64) {
    report.set(
        "tracing.overhead_share",
        report::ratio(traced_s - untraced_s, untraced_s),
    );
}

/// The runner layer, from passes on `opts.jobs` workers: busy share
/// (serial-equivalent job time over workers × wall), the slowest job,
/// and the speed-up over the mean one-worker pass of `serial_s`.
pub fn set_runner_layer(report: &mut Report, fanned: &[RunStats], serial_s: f64) {
    let busy: f64 = fanned.iter().map(RunStats::serial_equivalent).sum();
    let capacity: f64 = fanned.iter().map(|s| s.threads as f64 * s.wall).sum();
    let wall: f64 = fanned.iter().map(|s| s.wall).sum();
    let max_job = fanned
        .iter()
        .map(RunStats::max_job_wall)
        .fold(0.0, f64::max);
    report.set("runner.busy_share", report::ratio(busy, capacity));
    report.set("runner.max_job_ms", max_job * 1e3);
    report.set(
        "runner.speedup",
        report::ratio(serial_s * fanned.len() as f64, wall),
    );
}

/// Record the digest of a `jobs`-worker CSV.
pub fn record_digest(workload: &str, csv: &str, report: &mut Report) {
    let digest = report::digest(csv.as_bytes());
    report.note(format!(
        "{workload}: CSV digest {digest} ({} rows)",
        csv.lines().count() - 1
    ));
    report.digest = Some(digest);
}

/// Run one workload and return its report (metrics not yet completed).
pub fn run(opts: &Options, sizes: &Sizes) -> Result<Report, String> {
    let mut report = Report::default();
    match opts.workload.as_str() {
        "campaign" => campaign::run(opts, sizes.campaign, &mut report)?,
        "fleet" => fleet::run(opts, sizes.fleet, &mut report)?,
        "serve" => serve::run(opts, sizes.serve, &mut report)?,
        "audit" => audit::run(opts, sizes.audit, &mut report)?,
        other => return Err(format!("unknown workload `{other}`")),
    }
    let pinned = EXPECTED_DIGESTS.iter().find(|(w, _)| *w == opts.workload);
    if let (Some((_, want)), Some(got)) = (pinned, &report.digest) {
        if opts.seed == DEFAULT_SEED && sizes == &Sizes::FULL && want != got {
            report.problem(format!(
                "{}: CSV digest {got} differs from the pinned {want}",
                opts.workload
            ));
        }
    }
    if !opts.trace {
        report.set("peak_rss_mb", report::peak_rss_mb());
    }
    report.complete(if opts.trace { PER_LAYER } else { END_TO_END });
    Ok(report)
}

const USAGE: &str = "usage: dpm-perfbench --workload campaign|fleet|serve|audit \
                     --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Options {
        workload,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds,
        trace: trace.unwrap_or(false),
        jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
    })
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&opts, &Sizes::FULL) {
        Ok(report) => {
            println!(
                "# {} seed={} seconds={} trace={} workers={}",
                opts.workload,
                opts.seed,
                opts.seconds,
                u8::from(opts.trace),
                opts.jobs
            );
            for line in &report.notes {
                println!("# {line}");
            }
            for line in &report.problems {
                println!("# check failed: {line}");
            }
            let catalogue = if opts.trace { PER_LAYER } else { END_TO_END };
            for (name, unit) in catalogue {
                let value = report
                    .metrics
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or(0.0, |m| m.1);
                println!("# {name} = {value} {unit}");
            }
            println!("{}", report.json(catalogue));
        }
        Err(e) => {
            eprintln!("dpm-perfbench: {}: {e}", opts.workload);
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inputs small enough for a debug build.
    const TINY: Sizes = Sizes {
        campaign: campaign::Size {
            plans: 2,
            periods: 1,
        },
        fleet: fleet::Size {
            boards: 300,
            periods: 1,
        },
        serve: serve::Size {
            population: 4,
            periods: 1,
        },
        audit: campaign::Size {
            plans: 2,
            periods: 1,
        },
    };

    fn options(workload: &str, seed: u64, trace: bool) -> Options {
        Options {
            workload: workload.to_string(),
            seed,
            seconds: 0.01,
            trace,
            jobs: 2,
        }
    }

    fn names(report: &Report) -> Vec<&'static str> {
        let mut names: Vec<&str> = report.metrics.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names
    }

    fn catalogue_names(catalogue: &[(&'static str, &'static str)]) -> Vec<&'static str> {
        let mut names: Vec<&str> = catalogue.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names
    }

    #[test]
    fn every_workload_emits_each_declared_metric_with_a_unit() {
        for workload in WORKLOADS {
            for (trace, catalogue) in [(false, END_TO_END), (true, PER_LAYER)] {
                let report = run(&options(workload, 7, trace), &TINY).expect("workload runs");
                assert!(
                    report.problems.is_empty(),
                    "{workload}: {:?}",
                    report.problems
                );
                assert!(report.attempted > 0 && report.failed == 0);
                assert_eq!(names(&report), catalogue_names(catalogue), "{workload}");
                let line = report.json(catalogue);
                for (name, unit) in catalogue {
                    let entry = format!("\"{name}\": {{\"value\": ");
                    assert!(line.contains(&entry), "{workload} lacks {name}");
                    assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
                }
                if !trace {
                    for (name, value) in &report.metrics {
                        assert!(*value > 0.0, "{workload}: end-to-end {name} is {value}");
                    }
                }
            }
        }
    }

    fn digest_note(report: &Report) -> String {
        report
            .notes
            .iter()
            .find(|n| n.contains("CSV digest"))
            .cloned()
            .expect("a CSV digest note")
    }

    #[test]
    fn another_seed_changes_the_inputs_but_not_the_metric_set() {
        for workload in ["campaign", "fleet"] {
            let a = run(&options(workload, 1, false), &TINY).expect("seed 1 runs");
            let b = run(&options(workload, 2, false), &TINY).expect("seed 2 runs");
            let again = run(&options(workload, 1, false), &TINY).expect("seed 1 reruns");
            assert_ne!(digest_note(&a), digest_note(&b), "{workload}: seed ignored");
            assert_eq!(
                digest_note(&a),
                digest_note(&again),
                "{workload}: not reproducible"
            );
            assert_eq!(names(&a), names(&b));
        }
    }

    #[test]
    fn the_serve_client_keeps_within_its_connection_cap() {
        let mut report = Report::default();
        let cap = 2;
        let mut opts = options("serve", 3, false);
        opts.jobs = cap;
        serve::run(&opts, TINY.serve, &mut report).expect("serve runs");
        assert!(report.problems.is_empty(), "{:?}", report.problems);
        let load = report
            .notes
            .iter()
            .find(|n| n.contains("connections"))
            .expect("a load note");
        let used: usize = load
            .split(" on ")
            .nth(1)
            .and_then(|s| s.split_whitespace().next())
            .and_then(|n| n.parse().ok())
            .expect("a connection count");
        assert!(
            (1..=cap).contains(&used),
            "{used} connections for a cap of {cap}"
        );
    }

    #[test]
    fn the_audit_trace_overflows_the_shipped_event_ring() {
        // The measured trace must stay larger than the ring, so the
        // drops the recorder makes today stay visible.
        let mut report = Report::default();
        let mut opts = options("audit", DEFAULT_SEED, true);
        opts.jobs = 1;
        audit::run(&opts, Sizes::FULL.audit, &mut report).expect("audit runs");
        let recorded = report
            .metrics
            .iter()
            .find(|(n, _)| *n == "telemetry.events_recorded")
            .map_or(0.0, |m| m.1);
        assert!(
            recorded > dpm_telemetry::DEFAULT_EVENT_CAPACITY as f64,
            "{recorded}"
        );
    }
}
