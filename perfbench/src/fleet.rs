//! The `fleet` workload: an open-loop struct-of-arrays fleet.
//!
//! Set-up samples a board population from the seed
//! (`dpm_workloads::board_spec`) and computes the paper's open-loop plan
//! once (§4.1 allocation → §4.2 operating points). Each timed pass cuts
//! the population into 256-board `FleetState` shards and steps them with
//! `step_slot` on `jobs` workers through `dpm_bench::runner`. No governor
//! runs per slot.

use crate::report::{median, quantile, ratio, us, Report};
use crate::Options;
use dpm_bench::experiments::initial_allocation;
use dpm_bench::fleet::SHARD_BOARDS;
use dpm_bench::runner::{self, RunStats};
use dpm_core::params::ParameterScheduler;
use dpm_core::platform::Platform;
use dpm_core::units::seconds;
use dpm_sim::prelude::*;
use dpm_workloads::{board_spec, scenarios, FleetScenarioConfig};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fleet size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Size {
    /// Boards in the population.
    pub boards: usize,
    /// Charging periods each board simulates.
    pub periods: usize,
}

/// The fleet's shared configuration and its population, cut in shards.
pub struct Inputs {
    config: FleetConfig,
    shards: Vec<Vec<BoardSpec>>,
}

/// Set-up wall clock per layer, for the traced run.
#[derive(Debug, Default, Clone, Copy)]
struct SetupTiming {
    alloc: Duration,
    pareto: Duration,
    plan: Duration,
    specs: Duration,
    boards: usize,
}

fn setup(seed: u64, size: Size) -> Result<(Inputs, SetupTiming), String> {
    let mut t = SetupTiming::default();
    let platform = Arc::new(Platform::pama());
    let scenario = scenarios::scenario_one();
    let slots = scenario.charging.len();
    let horizon = seconds(size.periods as f64 * slots as f64 * platform.tau.value());

    let start = Instant::now();
    let alloc = initial_allocation(&platform, &scenario).map_err(|e| e.to_string())?;
    t.alloc = start.elapsed();

    let start = Instant::now();
    let scheduler =
        ParameterScheduler::new(platform.as_ref().clone()).map_err(|e| e.to_string())?;
    t.pareto = start.elapsed();

    let start = Instant::now();
    let schedule = scheduler
        .plan(
            &alloc.allocation,
            &scenario.charging,
            scenario.initial_charge,
        )
        .map_err(|e| e.to_string())?;
    t.plan = start.elapsed();

    let start = Instant::now();
    let population = FleetScenarioConfig::standard(horizon);
    let shards = (0..size.boards.div_ceil(SHARD_BOARDS))
        .map(|s| {
            (s * SHARD_BOARDS..size.boards.min((s + 1) * SHARD_BOARDS))
                .map(|b| board_spec(&scenario, seed, b, &population))
                .collect()
        })
        .collect();
    t.specs = start.elapsed();
    t.boards = size.boards;

    // The same hysteretic shed guard as the program's fleet campaigns.
    let limits = platform.battery;
    let mut config = FleetConfig::new(
        Arc::clone(&platform),
        scenario.charging.clone(),
        scenario.event_rates(&platform),
        schedule.slots.iter().map(|s| s.point).collect(),
    );
    config.periods = size.periods;
    config.slots_per_period = slots;
    config.substeps = 8;
    config.guard = Some(ShedGuard {
        shed_below: limits.c_min + limits.window() * 0.15,
        recover_above: limits.c_min + limits.window() * 0.30,
        max_degradation: platform.workers() as u32,
    });
    config.trace = false;
    Ok((Inputs { config, shards }, t))
}

/// Layer timings of one shard in the traced run.
#[derive(Debug, Default, Clone, Copy)]
struct ShardTiming {
    step: Duration,
    report: Duration,
}

/// Step one shard to the horizon; timed per `step_slot` when traced.
fn run_shard(
    inputs: &Inputs,
    specs: &[BoardSpec],
    traced: bool,
) -> Result<(FleetReport, ShardTiming), String> {
    let mut t = ShardTiming::default();
    let mut state = FleetState::new(inputs.config.clone(), specs).map_err(|e| e.to_string())?;
    if !traced {
        return Ok((state.run(), t));
    }
    while state.slots_done() < state.total_slots() {
        let start = Instant::now();
        state.step_slot();
        t.step += start.elapsed();
    }
    let start = Instant::now();
    let report = state.into_report();
    t.report = start.elapsed();
    Ok((report, t))
}

struct Pass {
    csv: String,
    failures: u64,
    board_slots: u64,
    stats: RunStats,
    timing: ShardTiming,
}

fn pass(inputs: &Inputs, jobs: usize, traced: bool) -> Pass {
    let (results, stats) = runner::run_indexed(&inputs.shards, jobs, |_, specs| {
        run_shard(inputs, specs, traced)
    });
    let mut csv = String::from(
        "shard,boards,survived,sheds,jobs_done,dropped,undersupplied_j,final_battery_j\n",
    );
    let (mut failures, mut board_slots) = (0, 0);
    let mut timing = ShardTiming::default();
    for (i, slot) in results.into_iter().enumerate() {
        match slot.map_err(|p| p.to_string()).and_then(|r| r) {
            Ok((r, t)) => {
                timing.step += t.step;
                timing.report += t.report;
                board_slots += r.board_slots;
                let _ = writeln!(
                    csv,
                    "{i},{},{},{},{},{},{:.4},{:.4}",
                    r.boards,
                    r.survived_count(),
                    r.total_sheds(),
                    r.jobs_done.iter().sum::<u64>(),
                    r.dropped.iter().sum::<u64>(),
                    r.undersupplied.iter().sum::<f64>(),
                    r.final_battery.iter().sum::<f64>(),
                );
            }
            Err(e) => {
                failures += 1;
                let _ = writeln!(csv, "{i},error,{},,,,,", e.replace(',', ";"));
            }
        }
    }
    Pass {
        csv,
        failures,
        board_slots,
        stats,
        timing,
    }
}

/// The fleet workload.
pub fn run(opts: &Options, size: Size, report: &mut Report) -> Result<(), String> {
    let ((inputs, setup_t), first) = crate::repeated_setup(|| setup(opts.seed, size), |_| Ok(()))?;
    let mut setup_best = vec![first];

    // Output check, outside the timed passes: the `jobs`-worker CSV
    // must equal the CSV of every one-worker pass.
    let fanned = pass(&inputs, opts.jobs, false);
    crate::record_digest("fleet", &fanned.csv, report);

    let (untraced, traced) = crate::timed_passes(
        opts,
        |t| pass(&inputs, 1, t),
        || crate::set_up_again(&mut setup_best, || setup(opts.seed, size)),
    )?;
    report.set("setup_s", median(&setup_best));
    for p in untraced.iter().chain(&traced) {
        if p.csv != fanned.csv {
            report.problem(format!(
                "fleet: a one-worker pass and the {}-worker pass wrote different CSVs",
                opts.jobs
            ));
        }
    }
    let mut wall = 0.0;
    for p in &untraced {
        report.attempted += p.stats.jobs as u64;
        report.failed += p.failures;
        wall += p.stats.wall;
    }
    let fastest = crate::fastest_jobs(untraced.iter().map(|p| &p.stats));
    let shard_ms: Vec<f64> = fastest.iter().map(|s| s * 1e3).collect();
    let throughput = ratio(fanned.board_slots as f64, fastest.iter().sum());
    report.set("throughput_per_s", throughput);
    report.set("latency_p50_ms", median(&shard_ms));
    report.set("latency_p90_ms", quantile(&shard_ms, 0.9));
    report.note(format!(
        "fleet: {} boards x {} periods in {} shards, {} one-worker passes: \
         slots_per_s={throughput:.0} 1/s (board-slots), shard latency from {} samples",
        size.boards,
        size.periods,
        inputs.shards.len(),
        untraced.len(),
        shard_ms.len()
    ));

    if opts.trace {
        let mut t = ShardTiming::default();
        let (mut traced_wall, mut traced_slots) = (0.0, 0u64);
        for p in &traced {
            t.step += p.timing.step;
            t.report += p.timing.report;
            traced_wall += p.stats.wall;
            traced_slots += p.board_slots;
        }
        report.set(
            "sim.fleet_step_ns",
            ratio(t.step.as_secs_f64() * 1e9, traced_slots as f64),
        );
        let shards = (inputs.shards.len() * traced.len()) as f64;
        report.set("sim.fleet_report_us", ratio(us(t.report), shards));
        report.set(
            "unattributed_share",
            1.0 - ratio((t.step + t.report).as_secs_f64(), traced_wall),
        );
        let untraced_s = wall / untraced.len() as f64;
        crate::set_tracing_overhead(report, untraced_s, traced_wall / traced.len() as f64);
        let stats: Vec<RunStats> = (0..traced.len())
            .map(|_| pass(&inputs, opts.jobs, false).stats)
            .collect();
        crate::set_runner_layer(report, &stats, untraced_s);
        report.set("core.alloc_compute_us", us(setup_t.alloc));
        report.set("core.pareto_build_us", us(setup_t.pareto));
        report.set("core.plan_us", us(setup_t.plan));
        report.set(
            "workloads.board_spec_us",
            ratio(us(setup_t.specs), setup_t.boards as f64),
        );
    }
    Ok(())
}
