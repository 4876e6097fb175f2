//! Property-based tests for the simulator substrate: battery accounting,
//! source determinism, and event-generator statistics.

use dpm_core::platform::BatteryLimits;
use dpm_core::prelude::*;
use dpm_core::series::PowerSeries;
use dpm_core::units::{joules, seconds};
use dpm_sim::battery::kernel;
use dpm_sim::prelude::*;
use proptest::prelude::*;

fn limits() -> BatteryLimits {
    BatteryLimits::new(joules(0.5), joules(16.0)).unwrap()
}

fn window() -> (f64, f64) {
    (limits().c_min.value(), limits().c_max.value())
}

proptest! {
    /// Battery conservation: offered = stored delta + wasted + (losses),
    /// and delivered = demanded − undersupplied, for any op sequence run
    /// through the engine's charge/draw kernels.
    #[test]
    fn battery_accounting_balances(
        ops in prop::collection::vec((any::<bool>(), 0.0f64..6.0), 1..64),
        initial in 0.5f64..16.0,
    ) {
        let (c_min, c_max) = window();
        let mut level = limits().clamp(joules(initial)).value();
        let start = level;
        let (mut offered, mut wasted, mut undersupplied, mut delivered) = (0.0, 0.0, 0.0, 0.0);
        let mut demanded = 0.0;
        for (is_charge, amount) in ops {
            if is_charge {
                kernel::charge(&mut level, &mut offered, &mut wasted, c_max, 1.0, amount);
            } else {
                demanded += amount;
                kernel::draw(&mut level, &mut undersupplied, &mut delivered, c_min, amount);
            }
        }
        let stored_delta = level - start;
        // offered = stored gain + wasted + delivered-from-offer… with an
        // ideal battery: offered − wasted = stored_delta + delivered.
        let lhs = offered - wasted;
        let rhs = stored_delta + delivered;
        prop_assert!((lhs - rhs).abs() < 1e-9, "{lhs} vs {rhs}");
        // Undersupplied is exactly the unmet demand.
        prop_assert!((delivered + undersupplied - demanded).abs() < 1e-9);
        // Level always inside [0, C_max].
        prop_assert!((0.0..=c_max).contains(&level));
    }

    /// Battery level never leaves [C_min-floor, C_max] under draw, and
    /// never exceeds C_max under charge.
    #[test]
    fn battery_window_is_invariant(
        charges in prop::collection::vec(0.0f64..10.0, 1..32),
    ) {
        let (c_min, c_max) = window();
        let mut level = 8.0;
        let (mut offered, mut wasted, mut undersupplied, mut delivered) = (0.0, 0.0, 0.0, 0.0);
        for c in charges {
            kernel::charge(&mut level, &mut offered, &mut wasted, c_max, 1.0, c);
            prop_assert!(level <= c_max);
            kernel::draw(&mut level, &mut undersupplied, &mut delivered, c_min, c * 0.7);
            prop_assert!(level >= c_min - 1e-12);
        }
    }

    /// Trace sources integrate exactly: mean power over any window equals
    /// the series integral over that window.
    #[test]
    fn trace_source_mean_power_is_exact(
        values in prop::collection::vec(0.0f64..4.0, 12..=12),
        a in 0.0f64..57.6,
        w in 0.1f64..10.0,
    ) {
        let series = PowerSeries::new(seconds(4.8), values).unwrap();
        let src = TraceSource::new(series.clone());
        let mean = src.mean_power(seconds(a), seconds(w)).value();
        let expect = series
            .integral_wrapping(seconds(a % 57.6), seconds((a % 57.6) + w))
            .value() / w;
        prop_assert!((mean - expect).abs() < 1e-9, "{mean} vs {expect}");
    }

    /// Schedule generators hit the expected count over whole periods
    /// within one event (fractional carry).
    #[test]
    fn schedule_generator_counts_exact(
        rates in prop::collection::vec(0.0f64..1.0, 12..=12),
        periods in 1usize..6,
    ) {
        let series = PowerSeries::new(seconds(4.8), rates).unwrap();
        let expect = series.integral().value() * periods as f64;
        let mut g = ScheduleGenerator::new(series);
        let mut total = 0usize;
        for i in 0..(12 * periods) {
            total += g.arrivals(seconds(i as f64 * 4.8), seconds(4.8));
        }
        prop_assert!((total as f64 - expect).abs() <= 1.0, "{total} vs {expect}");
    }

    /// Poisson generators are seed-deterministic and mean-consistent for
    /// moderate rates.
    #[test]
    fn poisson_deterministic(seed in any::<u64>(), rate in 0.0f64..0.8) {
        let series = PowerSeries::constant(seconds(4.8), 12, rate).unwrap();
        let mut a = PoissonGenerator::new(series.clone(), seed);
        let mut b = PoissonGenerator::new(series, seed);
        for i in 0..12 {
            let t = seconds(i as f64 * 4.8);
            prop_assert_eq!(a.arrivals(t, seconds(4.8)), b.arrivals(t, seconds(4.8)));
        }
    }

    /// The noisy source never goes negative and stays within its band.
    #[test]
    fn noisy_source_bounded(seed in any::<u64>(), amp in 0.0f64..0.9) {
        let series = PowerSeries::constant(seconds(4.8), 12, 2.0).unwrap();
        let src = NoisySource::new(TraceSource::new(series), amp, seconds(4.8), seed);
        for i in 0..24 {
            let p = src.power(seconds(i as f64 * 2.4)).value();
            prop_assert!(p >= 0.0);
            prop_assert!(p <= 2.0 * (1.0 + amp) + 1e-9);
            prop_assert!(p >= 2.0 * (1.0 - amp) - 1e-9);
        }
    }

    /// Ring hop counts: src→dst→src always totals the full ring (or zero).
    #[test]
    fn ring_hops_complement(src in 0usize..8, dst in 0usize..8) {
        let ring = RingNetwork::new(RingConfig::pama());
        let there = ring.hops(src, dst);
        let back = ring.hops(dst, src);
        if src == dst {
            prop_assert_eq!(there + back, 0);
        } else {
            prop_assert_eq!(there + back, 8);
        }
    }
}

/// A governor that always asks for the same point (test fixture).
struct Pinned(OperatingPoint);

impl Governor for Pinned {
    fn name(&self) -> &str {
        "pinned"
    }

    fn decide(&mut self, _obs: &SlotObservation) -> Result<OperatingPoint, DpmError> {
        Ok(self.0)
    }
}

/// Drive the full proposed-controller pipeline — series construction,
/// demand model, initial allocation, controller, simulation — mapping
/// every failure to its `Display` text. The no-panic properties below
/// only care that this function *returns*.
fn run_pipeline(slots: usize, sun: f64, rate: f64, battery0: f64) -> Result<(), String> {
    let platform = Platform::pama();
    let tau = platform.tau;
    let charging = PowerSeries::constant(tau, slots, sun).map_err(|e| e.to_string())?;
    let events = PowerSeries::constant(tau, slots, rate).map_err(|e| e.to_string())?;
    let demand = DemandModel::unweighted(events.clone()).map_err(|e| e.to_string())?;
    let problem = AllocationProblem {
        charging: charging.clone(),
        demand: demand.wpuf(),
        initial_charge: joules(battery0),
        limits: platform.battery,
        p_floor: platform.power.all_standby(),
        p_ceiling: platform.board_power(7, platform.f_max()),
    };
    let allocation = InitialAllocator::new(problem)
        .map_err(|e| e.to_string())?
        .compute()
        .map_err(|e| e.to_string())?;
    let mut governor = DpmController::new(platform.clone(), &allocation, charging.clone())
        .map_err(|e| e.to_string())?;
    let config = SimConfig {
        periods: 1,
        slots_per_period: slots,
        substeps: 2,
        trace: false,
    };
    let sim = Simulation::new(
        platform,
        Box::new(TraceSource::new(charging)),
        Box::new(ScheduleGenerator::new(events)),
        joules(battery0),
        config,
    )
    .map_err(|e| e.to_string())?;
    sim.run(&mut governor).map_err(|e| e.to_string())?;
    Ok(())
}

proptest! {
    /// Fallible-core contract, end to end: the whole pipeline either
    /// succeeds or reports a structured error with a human-readable
    /// message — it never panics. Degenerate scenarios (empty schedules,
    /// eclipse-only charging, battery levels outside the window) are
    /// exercised explicitly.
    #[test]
    fn pipeline_never_panics_on_degenerate_inputs(
        slots in 0usize..16,
        sun in 0.0f64..4.0,
        rate in 0.0f64..2.0,
        battery0 in 0.0f64..24.0,
        dark in any::<bool>(),
    ) {
        let sun = if dark { 0.0 } else { sun };
        if let Err(msg) = run_pipeline(slots, sun, rate, battery0) {
            prop_assert!(!msg.is_empty());
        }
        // The empty schedule in particular must be a structured rejection.
        if slots == 0 {
            prop_assert!(run_pipeline(slots, sun, rate, battery0).is_err());
        }
    }

    /// Cumulative undersupply in the per-slot trace is monotone
    /// non-decreasing under *any* sequence of charging dropouts (possibly
    /// overlapping, possibly past the horizon), and the last slot's value
    /// equals the report total — the invariant the survival metrics in
    /// `SurvivalReport` rely on.
    #[test]
    fn undersupply_monotone_under_random_dropouts(
        dropouts in prop::collection::vec((0.0f64..110.0, 1.0f64..60.0), 0..6),
        burst in 0usize..40,
    ) {
        let platform = Platform::pama();
        let tau = platform.tau;
        let charging = PowerSeries::constant(tau, 12, 1.5).unwrap();
        let events = PowerSeries::constant(tau, 12, 0.4).unwrap();
        let config = SimConfig {
            periods: 2,
            slots_per_period: 12,
            substeps: 4,
            trace: true,
        };
        let peak = ParetoTable::build(&platform).unwrap().peak().point;
        let mut pinned = Pinned(peak);
        let mut sim = Simulation::new(
            platform,
            Box::new(TraceSource::new(charging)),
            Box::new(ScheduleGenerator::new(events)),
            joules(8.0),
            config,
        ).unwrap();
        for &(at, dur) in &dropouts {
            sim.schedule(seconds(at), Disturbance::ChargingDropout { duration: seconds(dur) });
        }
        sim.schedule(seconds(0.0), Disturbance::EventBurst { count: burst });
        let report = sim.run(&mut pinned).unwrap();
        prop_assert_eq!(report.slots.len(), 24);
        let mut prev = 0.0f64;
        for s in &report.slots {
            prop_assert!(
                s.undersupplied + 1e-9 >= prev,
                "undersupply regressed at slot {}: {} < {prev}",
                s.slot,
                s.undersupplied,
            );
            prev = s.undersupplied;
        }
        prop_assert!((prev - report.undersupplied).abs() < 1e-9,
            "trace tail {prev} vs report {}", report.undersupplied);
    }

    /// The simulator itself stays total even when the governor is a
    /// trivial fixed-point policy: arbitrary finite charging traces
    /// (including all-zero and single-slot) produce a report or a
    /// structured `SimError`, never a panic.
    #[test]
    fn simulation_never_panics_on_arbitrary_schedules(
        values in prop::collection::vec(0.0f64..5.0, 1..16),
        rate in 0.0f64..2.0,
        battery0 in 0.0f64..24.0,
    ) {
        let platform = Platform::pama();
        let tau = platform.tau;
        let slots = values.len();
        let charging = PowerSeries::new(tau, values).unwrap();
        let events = PowerSeries::constant(tau, slots, rate).unwrap();
        let config = SimConfig {
            periods: 2,
            slots_per_period: slots,
            substeps: 3,
            trace: false,
        };
        let peak = ParetoTable::build(&platform).unwrap().peak().point;
        let mut pinned = Pinned(peak);
        let sim = Simulation::new(
            platform,
            Box::new(TraceSource::new(charging)),
            Box::new(ScheduleGenerator::new(events)),
            joules(battery0),
            config,
        );
        match sim {
            Ok(sim) => match sim.run(&mut pinned) {
                Ok(report) => prop_assert!(report.duration > 0.0),
                Err(e) => prop_assert!(!e.to_string().is_empty()),
            },
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }
}

/// Compute energy per completed job, and the jobs completed, on the
/// fixed-3.3 V PAMA board pinned at `workers` × `mhz` for `periods`, with
/// ample supply (10 W against a 4.37 W peak draw) and a queue that never
/// drains (a full backlog at t = 0, then 20 events/s).
fn energy_per_job(workers: usize, mhz: f64, periods: usize) -> (f64, u64) {
    let platform = Platform::pama();
    let constant = |v| PowerSeries::constant(platform.tau, 12, v).unwrap();
    let source = TraceSource::new(constant(10.0));
    let events = ScheduleGenerator::new(constant(20.0));
    let config = SimConfig {
        periods,
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(
        platform.clone(),
        Box::new(source),
        Box::new(events),
        joules(16.0),
        config,
    )
    .unwrap();
    sim.schedule(seconds(0.0), Disturbance::EventBurst { count: 256 });
    let point = OperatingPoint::new(workers, Hertz::from_mhz(mhz), volts(3.3));
    let report = sim.run(&mut Pinned(point)).unwrap();
    assert_eq!(report.undersupplied, 0.0, "supply must be ample");
    assert!(report.slots.iter().all(|s| s.backlog > 0), "queue drained");
    (
        report.compute_energy / report.jobs_done as f64,
        report.jobs_done,
    )
}

/// Snippet 3 on the simulator (Eq. 5 at fixed V): with every chip active,
/// board power and throughput are both linear in f, so compute energy per
/// job does not depend on f. The only slack is the head job's partial
/// progress, which `jobs_done` does not count: `1/jobs_done` relative.
#[test]
fn compute_energy_per_job_is_frequency_independent_with_every_worker_on() {
    let runs = [20.0, 40.0, 80.0].map(|f| energy_per_job(7, f, 4));
    for (a, a_jobs) in runs {
        for (b, b_jobs) in runs {
            let slack = a.max(b) / a_jobs.min(b_jobs) as f64;
            assert!((a - b).abs() <= slack + 1e-12, "{a} vs {b} J/job");
        }
    }
}

/// With fewer workers on, the standby chips' floor is static energy,
/// which Snippet 3 says does not cancel: spread over more jobs per second,
/// it makes energy per job fall as f rises, by more than the head job's
/// partial progress can blur.
#[test]
fn compute_energy_per_job_falls_with_frequency_when_chips_idle() {
    for workers in 1..7 {
        let runs = [20.0, 40.0, 80.0].map(|f| energy_per_job(workers, f, 20));
        for pair in runs.windows(2) {
            let ((slow, slow_jobs), (fast, fast_jobs)) = (pair[0], pair[1]);
            let blur = slow / slow_jobs as f64 + fast / fast_jobs as f64;
            assert!(
                slow - fast > blur,
                "{workers} workers: {slow} vs {fast} J/job"
            );
        }
    }
}
