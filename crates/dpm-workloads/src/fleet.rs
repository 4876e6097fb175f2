//! Seeded fleet-scenario generation: heterogeneous board populations
//! derived from one master seed.
//!
//! A fleet campaign needs each board to be *different* (otherwise a
//! million boards tell you nothing a single run would not) yet fully
//! reproducible and **shard-independent**: board `i`'s spec must depend
//! only on `(master_seed, i)`, never on which worker thread or shard
//! range happens to build it — that is what lets `dpm-bench` split a
//! fleet across any `--jobs` setting and still produce byte-identical
//! results.
//!
//! Per board, [`board_spec`] derives a private seed with [`board_seed`]
//! (a splitmix-style golden-ratio stride, so neighbouring indices get
//! uncorrelated streams) and draws, in a fixed documented order:
//!
//! 1. an initial-charge jitter factor (uniform in
//!    [`FleetScenarioConfig::charge_jitter`]),
//! 2. an event-rate phase offset in whole slots (uniform over the
//!    scenario's schedule length; drawn even when
//!    [`FleetScenarioConfig::phase_offsets`] is off, so toggling the knob
//!    never reshuffles the other draws),
//! 3. a fault-plan seed fed to [`crate::faults::generate`] when
//!    [`FleetScenarioConfig::faults`] is set.

use crate::{faults, FaultPlanConfig, Scenario};
use dpm_core::units::Seconds;
use dpm_sim::fleet::BoardSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Default initial-charge jitter band: boards start between half and
/// 1.25× the scenario's nominal charge (the fleet core clamps into the
/// battery window, exactly as a governed run does).
pub const CHARGE_JITTER: (f64, f64) = (0.5, 1.25);

/// Population-diversity knobs for [`fleet_specs`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetScenarioConfig {
    /// Uniform multiplier band applied to the scenario's initial charge.
    /// A degenerate band (`hi <= lo`) pins the factor at `lo`.
    pub charge_jitter: (f64, f64),
    /// Rotate each board's event-rate schedule by its drawn slot offset.
    /// Off, every board sees the base schedule in phase (offset 0).
    pub phase_offsets: bool,
    /// Draw a per-board fault plan with this shape; `None` builds a
    /// quiescent fleet.
    pub faults: Option<FaultPlanConfig>,
}

impl FleetScenarioConfig {
    /// The representative campaign population: jittered charge, phased
    /// arrivals, and one [`FaultPlanConfig::standard`] plan per board
    /// over `horizon`.
    pub fn standard(horizon: Seconds) -> Self {
        Self {
            charge_jitter: CHARGE_JITTER,
            phase_offsets: true,
            faults: Some(FaultPlanConfig::standard(horizon)),
        }
    }

    /// Jittered and phased but fault-free — the control arm.
    pub fn quiescent() -> Self {
        Self {
            charge_jitter: CHARGE_JITTER,
            phase_offsets: true,
            faults: None,
        }
    }
}

/// The private seed of board `board` under `master_seed`. A fixed
/// golden-ratio stride (the splitmix64 increment) keeps neighbouring
/// boards' `StdRng` streams uncorrelated while depending on nothing but
/// the pair — the shard-independence contract in one line.
#[inline]
pub fn board_seed(master_seed: u64, board: u64) -> u64 {
    master_seed.wrapping_add(board.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Build the spec of global board `index` for `scenario`. Depends only
/// on `(scenario, master_seed, index, config)` — see the module docs for
/// the draw order.
pub fn board_spec(
    scenario: &Scenario,
    master_seed: u64,
    index: usize,
    config: &FleetScenarioConfig,
) -> BoardSpec {
    let mut rng = StdRng::seed_from_u64(board_seed(master_seed, index as u64));

    let (lo, hi) = config.charge_jitter;
    let jitter = if hi > lo { rng.gen_range(lo..hi) } else { lo };

    let slots = scenario.charging.len();
    let phase_draw = if slots > 1 {
        rng.gen_range(0..slots)
    } else {
        0
    };

    let fault_seed = rng.gen::<u64>();
    let faults = match &config.faults {
        Some(shape) => faults::generate(fault_seed, shape)
            .events
            .into_iter()
            .map(|e| (e.at, e.disturbance))
            .collect(),
        None => Vec::new(),
    };

    BoardSpec {
        initial_charge: scenario.initial_charge * jitter,
        phase_slots: if config.phase_offsets { phase_draw } else { 0 },
        faults,
    }
}

/// Specs for the global board range `boards` — typically one shard of a
/// larger fleet. `fleet_specs(s, m, 256..512, c)` is exactly the
/// `[256, 512)` slice of `fleet_specs(s, m, 0..n, c)` for any `n ≥ 512`.
pub fn fleet_specs(
    scenario: &Scenario,
    master_seed: u64,
    boards: std::ops::Range<usize>,
    config: &FleetScenarioConfig,
) -> Vec<BoardSpec> {
    boards
        .map(|i| board_spec(scenario, master_seed, i, config))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::scenario_one;
    use dpm_core::units::seconds;

    fn horizon() -> Seconds {
        seconds(115.2)
    }

    #[test]
    fn generation_is_deterministic() {
        let s = scenario_one();
        let cfg = FleetScenarioConfig::standard(horizon());
        let a = fleet_specs(&s, 7, 0..16, &cfg);
        let b = fleet_specs(&s, 7, 0..16, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn specs_are_shard_independent() {
        let s = scenario_one();
        let cfg = FleetScenarioConfig::standard(horizon());
        let whole = fleet_specs(&s, 42, 0..24, &cfg);
        let shard = fleet_specs(&s, 42, 8..16, &cfg);
        assert_eq!(&whole[8..16], &shard[..]);
    }

    #[test]
    fn master_seed_changes_the_population() {
        let s = scenario_one();
        let cfg = FleetScenarioConfig::standard(horizon());
        assert_ne!(
            fleet_specs(&s, 1, 0..8, &cfg),
            fleet_specs(&s, 2, 0..8, &cfg)
        );
    }

    #[test]
    fn boards_are_heterogeneous() {
        let s = scenario_one();
        let cfg = FleetScenarioConfig::standard(horizon());
        let specs = fleet_specs(&s, 3, 0..32, &cfg);
        let charges: std::collections::BTreeSet<u64> = specs
            .iter()
            .map(|b| b.initial_charge.value().to_bits())
            .collect();
        assert!(
            charges.len() > 16,
            "jitter barely varies: {}",
            charges.len()
        );
        assert!(
            specs.iter().any(|b| b.phase_slots != specs[0].phase_slots),
            "phases never vary"
        );
        assert!(
            specs
                .iter()
                .any(|b| b.faults != specs[0].faults && !b.faults.is_empty()),
            "fault plans never vary"
        );
    }

    #[test]
    fn jitter_respects_the_band_and_clamping_is_left_to_the_core() {
        let s = scenario_one();
        let cfg = FleetScenarioConfig::standard(horizon());
        let nominal = s.initial_charge.value();
        for spec in fleet_specs(&s, 11, 0..64, &cfg) {
            let f = spec.initial_charge.value() / nominal;
            assert!((CHARGE_JITTER.0..CHARGE_JITTER.1).contains(&f), "{f}");
        }
    }

    #[test]
    fn quiescent_fleet_has_no_faults_but_same_other_draws() {
        let s = scenario_one();
        let noisy = fleet_specs(&s, 5, 0..8, &FleetScenarioConfig::standard(horizon()));
        let quiet = fleet_specs(&s, 5, 0..8, &FleetScenarioConfig::quiescent());
        for (n, q) in noisy.iter().zip(&quiet) {
            assert!(q.faults.is_empty());
            // Fault toggling never reshuffles the other draws.
            assert_eq!(n.initial_charge, q.initial_charge);
            assert_eq!(n.phase_slots, q.phase_slots);
        }
    }

    #[test]
    fn phase_offsets_off_pins_phase_zero_only() {
        let s = scenario_one();
        let mut cfg = FleetScenarioConfig::standard(horizon());
        cfg.phase_offsets = false;
        let specs = fleet_specs(&s, 9, 0..8, &cfg);
        let phased = fleet_specs(&s, 9, 0..8, &FleetScenarioConfig::standard(horizon()));
        for (p, z) in phased.iter().zip(&specs) {
            assert_eq!(z.phase_slots, 0);
            assert_eq!(p.initial_charge, z.initial_charge);
            assert_eq!(p.faults, z.faults);
        }
    }
}
