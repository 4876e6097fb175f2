//! The `campaign` workload: a governed survival matrix on scenario-1.
//!
//! Fault plans are drawn from the workload seed, crossed with the four
//! campaign arms, and fanned out by `dpm_bench::runner` on `jobs`
//! workers — the same point recipe as `dpm_bench::campaign`, rebuilt
//! from public calls so the traced run can time each layer from here.
//! The `audit` workload records its trace with the same points.

use crate::report::{median, quantile, ratio, us, Report};
use crate::Options;
use dpm_baselines::StaticGovernor;
use dpm_bench::experiments::initial_allocation;
use dpm_bench::runner::{self, RunStats};
use dpm_core::alloc::InitialAllocation;
use dpm_core::error::DpmError;
use dpm_core::governor::{Governor, SlotObservation};
use dpm_core::params::{OperatingPoint, ParetoTable};
use dpm_core::platform::Platform;
use dpm_core::runtime::{DpmController, SafetyConfig, SafetyGovernor};
use dpm_core::units::seconds;
use dpm_sim::prelude::*;
use dpm_workloads::{board_seed, faults, scenarios, FaultPlan, FaultPlanConfig, Scenario};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The governor arms, in output order, with their metric suffixes.
pub const ARMS: [(&str, &str); 4] = [
    ("proposed", "core.decide_us.proposed"),
    ("proposed+safe", "core.decide_us.proposed_safe"),
    ("static", "core.decide_us.static"),
    ("static+safe", "core.decide_us.static_safe"),
];

/// Campaign size: fault plans × arms, and periods per point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Size {
    /// Fault plans drawn from the seed.
    pub plans: usize,
    /// Charging periods each point simulates.
    pub periods: usize,
}

/// Read-only inputs every point shares, built in set-up.
pub struct Inputs {
    platform: Arc<Platform>,
    scenario: Arc<Scenario>,
    alloc: Arc<InitialAllocation>,
    pareto: Arc<ParetoTable>,
    plan_seeds: Vec<u64>,
    plans: Vec<FaultPlan>,
    periods: usize,
}

/// Set-up wall clock per layer, for the traced run.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTiming {
    pub alloc: Duration,
    pub pareto: Duration,
    pub fault_plans: Duration,
    pub fault_plan_count: usize,
}

/// Build the shared inputs: platform, Pareto table, §4.1 allocation and
/// one fault plan per seed-derived plan seed.
pub fn setup(seed: u64, size: Size) -> Result<(Inputs, SetupTiming), String> {
    let mut t = SetupTiming::default();
    let platform = Arc::new(Platform::pama());
    let scenario = Arc::new(scenarios::scenario_one());

    let start = Instant::now();
    let alloc = Arc::new(initial_allocation(&platform, &scenario).map_err(|e| e.to_string())?);
    t.alloc = start.elapsed();

    let start = Instant::now();
    let pareto = Arc::new(ParetoTable::build(&platform).map_err(|e| e.to_string())?);
    t.pareto = start.elapsed();

    let slots = scenario.charging.len();
    let horizon = seconds(size.periods as f64 * slots as f64 * platform.tau.value());
    let config = FaultPlanConfig::standard(horizon);
    let plan_seeds: Vec<u64> = (0..size.plans as u64)
        .map(|i| board_seed(seed, i))
        .collect();
    let start = Instant::now();
    let plans = plan_seeds
        .iter()
        .map(|&s| faults::generate(s, &config))
        .collect();
    t.fault_plans = start.elapsed();
    t.fault_plan_count = size.plans;

    Ok((
        Inputs {
            platform,
            scenario,
            alloc,
            pareto,
            plan_seeds,
            plans,
            periods: size.periods,
        },
        t,
    ))
}

impl Inputs {
    /// Points in output order: plan-major, arms within a plan.
    pub fn points(&self) -> Vec<(usize, usize)> {
        (0..self.plans.len())
            .flat_map(|p| (0..ARMS.len()).map(move |a| (p, a)))
            .collect()
    }

    /// Simulated slots per point.
    pub fn slots_per_point(&self) -> u64 {
        (self.periods * self.scenario.charging.len()) as u64
    }

    /// The CSV header plus one row per point result.
    fn csv(&self, points: &[(usize, usize)], rows: &[Result<SurvivalReport, String>]) -> String {
        let mut csv = String::from(
            "scenario,seed,governor,survived,deepest_j,below_guard_s,undersupplied_j,\
             missed,recovery_s,degradations,jobs_done\n",
        );
        for (&(p, a), row) in points.iter().zip(rows) {
            let (name, seed) = (&self.scenario.name, self.plan_seeds[p]);
            let arm = ARMS[a].0;
            let _ = match row {
                Ok(s) => writeln!(
                    csv,
                    "{name},{seed},{arm},{},{:.4},{:.1},{:.4},{},{:.1},{},{}",
                    u8::from(s.survived),
                    s.deepest_charge,
                    s.time_below_guard,
                    s.undersupplied,
                    s.missed_events,
                    s.recovery_latency,
                    s.degradations,
                    s.jobs_done,
                ),
                Err(e) => writeln!(
                    csv,
                    "{name},{seed},{arm},error,{},,,,,,",
                    e.replace(',', ";")
                ),
            };
        }
        csv
    }
}

/// Per-point layer timings, summed over a pass in the traced run.
#[derive(Debug, Default, Clone, Copy)]
pub struct PointTiming {
    pub decide: [Duration; 4],
    pub decide_calls: [u64; 4],
    pub step: Duration,
    pub slots: u64,
    pub finish: Duration,
}

impl PointTiming {
    fn add(&mut self, o: &PointTiming) {
        for a in 0..4 {
            self.decide[a] += o.decide[a];
            self.decide_calls[a] += o.decide_calls[a];
        }
        self.step += o.step;
        self.slots += o.slots;
        self.finish += o.finish;
    }
}

/// A governor wrapper that times every `decide`.
struct Timed<'a> {
    inner: &'a mut dyn Governor,
    spent: Duration,
    calls: u64,
}

impl Governor for Timed<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, obs: &SlotObservation) -> Result<OperatingPoint, DpmError> {
        let start = Instant::now();
        let point = self.inner.decide(obs);
        self.spent += start.elapsed();
        self.calls += 1;
        point
    }

    fn uses_surplus_energy(&self) -> bool {
        self.inner.uses_surplus_energy()
    }

    fn exhausted(&self) -> bool {
        self.inner.exhausted()
    }
}

/// Run `sim` under `g`: the batch loop when untimed, else a stepped loop
/// timing `decide`, `ActiveRun::step` and `ActiveRun::finish`.
fn drive(
    sim: Simulation,
    g: &mut dyn Governor,
    arm: usize,
    timing: Option<&mut PointTiming>,
) -> Result<SimReport, SimError> {
    let Some(t) = timing else {
        return sim.run(g);
    };
    let mut timed = Timed {
        inner: g,
        spent: Duration::ZERO,
        calls: 0,
    };
    let mut run = sim.begin();
    loop {
        let start = Instant::now();
        let more = run.step(&mut timed)?;
        t.step += start.elapsed();
        t.slots += 1;
        if !more {
            break;
        }
    }
    let start = Instant::now();
    let report = run.finish(timed.name());
    t.finish += start.elapsed();
    t.decide[arm] += timed.spent;
    t.decide_calls[arm] += timed.calls;
    Ok(report)
}

/// One campaign point: arm `arm` against fault plan `plan`, recording
/// into `telemetry` (disabled in the campaign workload).
pub fn run_point(
    inputs: &Inputs,
    (plan, arm): (usize, usize),
    telemetry: &Recorder,
    timing: Option<&mut PointTiming>,
) -> Result<SurvivalReport, SimError> {
    let platform = inputs.platform.as_ref();
    let scenario = inputs.scenario.as_ref();
    let slots = scenario.charging.len();
    let mut sim = Simulation::new(
        Arc::clone(&inputs.platform),
        Box::new(TraceSource::new(scenario.charging.clone())),
        Box::new(ScheduleGenerator::new(scenario.event_rates(platform))),
        scenario.initial_charge,
        SimConfig {
            periods: inputs.periods,
            slots_per_period: slots,
            substeps: 8,
            trace: true,
        },
    )?;
    inputs.plans[plan].schedule(&mut sim);
    let sim = sim.with_telemetry(telemetry.clone());

    let safety = SafetyConfig::default_for(platform);
    let c_min = platform.battery.c_min.value();
    let guard = safety.guard_band.value();
    let controller = || -> Result<DpmController, DpmError> {
        Ok(DpmController::with_table(
            Arc::clone(&inputs.platform),
            &inputs.alloc,
            scenario.charging.clone(),
            Arc::clone(&inputs.pareto),
        )?
        .without_trace()
        .with_telemetry(telemetry.clone()))
    };
    let (report, degradations) = match arm {
        0 => (drive(sim, &mut controller()?, arm, timing)?, 0),
        1 => {
            let mut g = SafetyGovernor::with_table(
                controller()?,
                platform,
                safety,
                Arc::clone(&inputs.pareto),
            )?
            .with_telemetry(telemetry.clone());
            let r = drive(sim, &mut g, arm, timing)?;
            (r, g.degradation_count())
        }
        2 => (
            drive(sim, &mut StaticGovernor::full_power(platform)?, arm, timing)?,
            0,
        ),
        _ => {
            let mut g = SafetyGovernor::with_table(
                StaticGovernor::full_power(platform)?,
                platform,
                safety,
                Arc::clone(&inputs.pareto),
            )?
            .with_telemetry(telemetry.clone());
            let r = drive(sim, &mut g, arm, timing)?;
            (r, g.degradation_count())
        }
    };
    Ok(SurvivalReport::from_report(
        &report,
        c_min,
        guard,
        degradations,
    ))
}

/// One pass over every point on `jobs` workers.
pub struct Pass {
    pub csv: String,
    pub failures: u64,
    pub stats: RunStats,
    pub timing: PointTiming,
}

/// Run every point once. Each point records into a sibling of
/// `telemetry`, absorbed in point order as `campaign/{arm}/{seed}`.
pub fn pass(inputs: &Inputs, jobs: usize, telemetry: &Recorder, traced: bool) -> Pass {
    let points = inputs.points();
    let siblings: Vec<Recorder> = points.iter().map(|_| telemetry.sibling()).collect();
    let (results, stats) = runner::run_indexed(&points, jobs, |i, &point| {
        let mut t = PointTiming::default();
        let r = run_point(inputs, point, &siblings[i], traced.then_some(&mut t));
        (r.map_err(|e| e.to_string()), t)
    });
    for (&(p, a), sibling) in points.iter().zip(&siblings) {
        telemetry.absorb(
            &format!("campaign/{}/{}", ARMS[a].0, inputs.plan_seeds[p]),
            sibling,
        );
    }
    stats.record_into(telemetry, "campaign");
    let mut timing = PointTiming::default();
    let rows: Vec<Result<SurvivalReport, String>> = results
        .into_iter()
        .map(|slot| match slot {
            Ok((r, t)) => {
                timing.add(&t);
                r
            }
            Err(panic) => Err(panic.to_string()),
        })
        .collect();
    let failures = rows.iter().filter(|r| r.is_err()).count() as u64;
    Pass {
        csv: inputs.csv(&points, &rows),
        failures,
        stats,
        timing,
    }
}

/// The campaign workload.
pub fn run(opts: &Options, size: Size, report: &mut Report) -> Result<(), String> {
    let ((inputs, setup_t), first) = crate::repeated_setup(|| setup(opts.seed, size), |_| Ok(()))?;
    let mut setup_best = vec![first];

    // Output check, outside the timed passes: the `jobs`-worker CSV
    // must equal the CSV of every one-worker pass.
    let off = Recorder::disabled();
    let fanned = pass(&inputs, opts.jobs, &off, false);
    crate::record_digest("campaign", &fanned.csv, report);

    let (untraced, traced) = crate::timed_passes(
        opts,
        |t| pass(&inputs, 1, &off, t),
        || crate::set_up_again(&mut setup_best, || setup(opts.seed, size)),
    )?;
    report.set("setup_s", median(&setup_best));
    let slots_per_pass = inputs.slots_per_point() * inputs.points().len() as u64;
    for p in untraced.iter().chain(&traced) {
        if p.csv != fanned.csv {
            report.problem(format!(
                "campaign: a one-worker pass and the {}-worker pass wrote different CSVs",
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
    // A plan's latency: its four arms, run back to back.
    let plan_ms: Vec<f64> = fastest
        .chunks(ARMS.len())
        .map(|arms| arms.iter().sum::<f64>() * 1e3)
        .collect();
    let throughput = ratio(slots_per_pass as f64, fastest.iter().sum());
    report.set("throughput_per_s", throughput);
    report.set("latency_p50_ms", median(&plan_ms));
    report.set("latency_p90_ms", quantile(&plan_ms, 0.9));
    report.note(format!(
        "campaign: {} plans x 4 arms x {} periods, {} one-worker passes: \
         slots_per_s={throughput:.0} 1/s, plan latency (four arms) from {} samples",
        size.plans,
        size.periods,
        untraced.len(),
        plan_ms.len()
    ));

    if opts.trace {
        let mut t = PointTiming::default();
        let mut traced_wall = 0.0;
        for p in &traced {
            t.add(&p.timing);
            traced_wall += p.stats.wall;
        }
        let decide: Duration = t.decide.iter().sum();
        for (a, (_, metric)) in ARMS.iter().enumerate() {
            report.set(metric, ratio(us(t.decide[a]), t.decide_calls[a] as f64));
        }
        report.set(
            "core.decide_calls",
            t.decide_calls.iter().sum::<u64>() as f64,
        );
        report.set(
            "core.decide_share",
            ratio(decide.as_secs_f64(), t.step.as_secs_f64()),
        );
        report.set(
            "sim.step_self_us",
            ratio(us(t.step - decide), t.slots as f64),
        );
        let points = (inputs.points().len() * traced.len()) as f64;
        report.set("sim.finish_us", ratio(us(t.finish), points));
        report.set(
            "unattributed_share",
            1.0 - ratio((t.step + t.finish).as_secs_f64(), traced_wall),
        );
        let untraced_s = wall / untraced.len() as f64;
        crate::set_tracing_overhead(report, untraced_s, traced_wall / traced.len() as f64);
        let stats: Vec<RunStats> = (0..traced.len())
            .map(|_| pass(&inputs, opts.jobs, &off, false).stats)
            .collect();
        crate::set_runner_layer(report, &stats, untraced_s);
        set_setup_layers(report, &setup_t);
    }
    Ok(())
}

/// Per-layer set-up metrics shared by the campaign and audit workloads.
pub fn set_setup_layers(report: &mut Report, t: &SetupTiming) {
    report.set("core.alloc_compute_us", us(t.alloc));
    report.set("core.pareto_build_us", us(t.pareto));
    report.set(
        "workloads.fault_plan_us",
        ratio(us(t.fault_plans), t.fault_plan_count as f64),
    );
}
