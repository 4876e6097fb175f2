//! Golden corpus for what the one-board fleet equivalence proptest does
//! not reach: elastic governors, the non-ideal battery, topology rails
//! with mid-slot element faults, gauge faults, a stepped session with
//! live updates, and a burst past the backlog cap. Each run's full
//! [`SimReport`] is one JSONL line of `tests/data/sim_golden.jsonl`,
//! produced by these same runs on an earlier engine and compared byte for
//! byte, so any drift in the stepping arithmetic shows up as a diff.

use dpm_baselines::greedy::GreedyGovernor;
use dpm_bench::experiments;
use dpm_core::prelude::*;
use dpm_sim::prelude::*;
use dpm_sim::topo::{EL_RING_A, EL_SENSOR_BUS};
use dpm_workloads::scenarios;
use dpm_workloads::{generate_faults as generate, FaultPlanConfig};

/// A governor pinned to one operating point.
struct Pinned(OperatingPoint);

impl Governor for Pinned {
    fn name(&self) -> &str {
        "pinned"
    }

    fn decide(&mut self, _obs: &SlotObservation) -> Result<OperatingPoint, DpmError> {
        Ok(self.0)
    }
}

fn pinned(workers: usize, mhz: f64) -> Pinned {
    Pinned(OperatingPoint::new(
        workers,
        Hertz::from_mhz(mhz),
        volts(3.3),
    ))
}

fn scenario_sim(periods: usize) -> Simulation {
    let platform = Platform::pama();
    experiments::simulation(&platform, &scenarios::scenario_one(), periods).unwrap()
}

fn proposed_safe() -> SafetyGovernor<DpmController> {
    let platform = Platform::pama();
    let inner = experiments::proposed_controller(&platform, &scenarios::scenario_one()).unwrap();
    SafetyGovernor::new(inner, &platform, SafetyConfig::default_for(&platform)).unwrap()
}

/// Schedule `faults` (absolute times in seconds) in order.
fn schedule(sim: &mut Simulation, faults: &[(f64, Disturbance)]) {
    for &(at, d) in faults {
        sim.schedule(seconds(at), d);
    }
}

/// Every golden run, labelled, in fixture order.
fn runs() -> Vec<(&'static str, SimReport)> {
    use Disturbance::*;
    let platform = Platform::pama();
    let mut out = Vec::new();

    // Elastic governor under the standard fault mix.
    let mut sim = scenario_sim(3);
    let horizon = seconds(36.0 * platform.tau.value());
    generate(11, &FaultPlanConfig::standard(horizon)).schedule(&mut sim);
    let mut greedy = GreedyGovernor::new(platform.clone(), 3.0).unwrap();
    out.push(("greedy", sim.run(&mut greedy).unwrap()));

    // Non-ideal battery: lossy charging, self-discharge and Peukert draw.
    let peukert = Some(PeukertModel {
        reference_power: watts(1.2),
        exponent: 1.15,
    });
    let config = BatteryConfig {
        charge_efficiency: 0.85,
        self_discharge_per_s: 2e-4,
        peukert,
        ..BatteryConfig::ideal(platform.battery)
    };
    let mut sim = scenario_sim(3).with_battery(config, joules(9.0)).unwrap();
    schedule(&mut sim, &[(20.0, BatteryFade { factor: 0.8 })]);
    let mut g = experiments::proposed_controller(&platform, &scenarios::scenario_one()).unwrap();
    out.push(("peukert-proposed", sim.run(&mut g).unwrap()));
    let sim = scenario_sim(2).with_battery(config, joules(12.0)).unwrap();
    let report = sim.run(&mut pinned(7, 80.0)).unwrap();
    out.push(("peukert-pinned", report));

    // Both topology arms, with element faults and recoveries mid-slot.
    let (ring, sensor_bus) = (EL_RING_A, EL_SENSOR_BUS);
    for (label, mode) in [
        ("topology-broker", TopologyMode::Broker),
        ("topology-flat", TopologyMode::Flat),
    ] {
        let mut sim = scenario_sim(3).with_topology(mode).unwrap();
        #[rustfmt::skip]
        schedule(&mut sim, &[
            (10.3, ElementFault { element: ring }),
            (12.0, EventBurst { count: 40 }),
            (30.1, ProcessorFault { index: 6 }),
            (41.7, ElementRecover { element: ring }),
            (60.2, ElementFault { element: sensor_bus }),
            (75.0, ProcessorRecover { index: 6 }),
            (90.5, ElementRecover { element: sensor_bus }),
        ]);
        out.push((label, sim.run(&mut proposed_safe()).unwrap()));
    }

    // Gauge faults under the safety-wrapped controller.
    let mut sim = scenario_sim(3);
    #[rustfmt::skip]
    schedule(&mut sim, &[
        (5.0, SensorNoise { amplitude: 0.3, duration: seconds(50.0), seed: 17 }),
        (70.0, SensorStuck { duration: seconds(40.0) }),
        (72.0, ChargingDropout { duration: seconds(30.0) }),
    ]);
    out.push((
        "sensor-proposed-safe",
        sim.run(&mut proposed_safe()).unwrap(),
    ));

    // A stepped session with live disturbances and a rate change.
    let mut g = proposed_safe();
    let mut run = scenario_sim(3).begin();
    for _ in 0..7 {
        run.step(&mut g).unwrap();
    }
    let now = run.slot() as f64 * run.tau_s();
    #[rustfmt::skip]
    let live = [
        (now + 1.3, EventBurst { count: 25 }),
        (now + 2.0, ProcessorFault { index: 1 }),
        (now + 3.0, SupplyScale { factor: 0.4, duration: seconds(20.0) }),
    ];
    for (at, d) in live {
        run.schedule(seconds(at), d);
    }
    let rates = PowerSeries::constant(platform.tau, 12, 0.9).unwrap();
    run.set_events(Box::new(PoissonGenerator::new(rates, 5)));
    for _ in 0..9 {
        run.step(&mut g).unwrap();
    }
    run.schedule(seconds(now), ProcessorRecover { index: 1 });
    while run.step(&mut g).unwrap() {}
    out.push(("stepped-session", run.finish(g.name())));

    // A burst far past the 256-job backlog cap.
    let mut sim = scenario_sim(2);
    let bursts = [
        (3.3, EventBurst { count: 1000 }),
        (50.0, EventBurst { count: 300 }),
    ];
    schedule(&mut sim, &bursts);
    let report = sim.run(&mut pinned(2, 40.0)).unwrap();
    out.push(("burst-past-cap", report));
    out
}

#[test]
fn reports_match_the_golden_corpus() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/data/sim_golden.jsonl"
    );
    let golden = std::fs::read_to_string(path).unwrap();
    let fresh = runs();
    assert_eq!(golden.lines().count(), fresh.len());
    for (want, (label, report)) in golden.lines().zip(fresh) {
        let got = serde_json::to_string(&(label, report)).unwrap();
        assert_eq!(want, got, "golden run {label} diverged");
    }
}
