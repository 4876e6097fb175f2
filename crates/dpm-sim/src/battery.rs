//! The rechargeable battery: the §2 capacity window plus the
//! waste/shortfall accounting the paper's Table 1 metrics are built
//! from, as pure kernels over raw `f64` state. The board engine
//! ([`crate::fleet::FleetState`]) keeps every board's charge and
//! accumulators in packed slices and steps them through [`kernel`];
//! [`BatteryConfig`] describes the cell those kernels model.

use crate::error::SimError;
use dpm_core::platform::BatteryLimits;
use dpm_core::units::{Joules, Watts};
use serde::{Deserialize, Serialize};

/// Peukert-style rate dependence: drawing faster than the reference power
/// consumes disproportionately more charge,
/// `consumed = demanded · (P/P_ref)^(k−1)` for `P > P_ref`.
///
/// The satellite NiCd packs of the paper's era show `k ≈ 1.1–1.3`; the
/// paper's ideal model is `k = 1` (no rate dependence), which is what
/// [`BatteryConfig::ideal`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PeukertModel {
    /// Draw rate at which the pack delivers its rated capacity.
    pub reference_power: Watts,
    /// Peukert exponent `k ≥ 1`.
    pub exponent: f64,
}

impl PeukertModel {
    /// Charge consumed to deliver `energy` over `dt` seconds.
    pub fn charge_consumed(&self, energy: Joules, dt: f64) -> Joules {
        debug_assert!(
            self.exponent >= 1.0,
            "BatteryConfig::validate checks the exponent"
        );
        if dt <= 0.0 || energy.value() <= 0.0 {
            return energy;
        }
        let rate = energy.value() / dt;
        if rate <= self.reference_power.value() {
            energy
        } else {
            energy * (rate / self.reference_power.value()).powf(self.exponent - 1.0)
        }
    }
}

/// Pure per-board battery kernels over raw `f64` state.
///
/// These are the single implementation of the battery arithmetic: the
/// board engine calls each of them from exactly one place in its slot
/// body, on its contiguous per-board slices. Keep the operation order
/// here exactly as documented — the golden reports and the committed
/// CSV/trace digests pin it to the bit.
pub mod kernel {
    use super::PeukertModel;
    use dpm_core::units::Joules;

    /// Offer `energy` joules to a store at `level` with ceiling `c_max`.
    /// Mutates the level and the offered/wasted accumulators; returns the
    /// energy stored. Non-positive (or NaN) offers are ignored. Both
    /// conversion loss and overflow are energy the mission never uses;
    /// the paper's "wasted" metric is the overflow only.
    #[inline]
    pub fn charge(
        level: &mut f64,
        offered: &mut f64,
        wasted: &mut f64,
        c_max: f64,
        charge_efficiency: f64,
        energy: f64,
    ) -> f64 {
        if !(energy > 0.0) {
            return 0.0;
        }
        *offered += energy;
        let storable = energy * charge_efficiency;
        let headroom = c_max - *level;
        let stored = storable.min(headroom).max(0.0);
        *level += stored;
        *wasted += storable - stored;
        stored
    }

    /// Demand `energy` joules from a store at `level` with floor `c_min`.
    /// Mutates the level and the undersupplied/delivered accumulators;
    /// returns the energy delivered. Non-positive demands are ignored.
    /// Rate-agnostic (the paper's ideal model); see [`draw_over`] for
    /// the Peukert-aware path.
    #[inline]
    pub fn draw(
        level: &mut f64,
        undersupplied: &mut f64,
        delivered_total: &mut f64,
        c_min: f64,
        energy: f64,
    ) -> f64 {
        if !(energy > 0.0) {
            return 0.0;
        }
        let available = (*level - c_min).max(0.0);
        let delivered = energy.min(available);
        *level -= delivered;
        *undersupplied += energy - delivered;
        *delivered_total += delivered;
        delivered
    }

    /// Rate-aware draw: deliver `energy` joules over `dt` seconds,
    /// consuming extra charge per `model`. When the charge above `c_min`
    /// cannot cover the request at this rate, delivers what it supports.
    /// Returns `(delivered, consumed)`; `consumed − delivered` is the
    /// rate loss. Non-positive demands are ignored.
    #[inline]
    pub fn draw_over(
        level: &mut f64,
        undersupplied: &mut f64,
        delivered_total: &mut f64,
        c_min: f64,
        model: &PeukertModel,
        energy: f64,
        dt: f64,
    ) -> (f64, f64) {
        if !(energy > 0.0) {
            return (0.0, 0.0);
        }
        let consumed_per_delivered = model.charge_consumed(Joules(energy), dt).value() / energy;
        let available = (*level - c_min).max(0.0);
        // Charge needed to deliver the full request.
        let needed = energy * consumed_per_delivered;
        let (delivered, consumed) = if needed <= available {
            (energy, needed)
        } else {
            (available * (1.0 / consumed_per_delivered), available)
        };
        *level -= consumed;
        *undersupplied += energy - delivered;
        *delivered_total += delivered;
        (delivered, consumed)
    }

    /// Derate the window (cell ageing, a cold eclipse, a failed string in
    /// the pack): `c_max ← c_min + factor·(c_max − c_min)` with `factor`
    /// clamped into `[0, 1]` (non-finite treated as 1, i.e. no fade).
    /// Charge above the new ceiling is spilled into `wasted`; `c_min` is
    /// untouched — the reserve floor is a mission constraint, not a cell
    /// property. Returns the loss. Fades compose: two `fade(0.5)` calls
    /// leave a quarter of the original window.
    #[inline]
    pub fn fade(
        level: &mut f64,
        wasted: &mut f64,
        c_max: &mut f64,
        c_min: f64,
        factor: f64,
    ) -> f64 {
        let f = if factor.is_finite() {
            factor.clamp(0.0, 1.0)
        } else {
            1.0
        };
        let new_max = c_min + (*c_max - c_min) * f;
        *c_max = new_max;
        let lost = (*level - new_max).max(0.0);
        *level -= lost;
        *wasted += lost;
        lost
    }

    /// Advance self-discharge over `dt` seconds. A no-op when the leak
    /// rate is zero (the paper's ideal battery).
    #[inline]
    pub fn tick(level: &mut f64, self_discharge_per_s: f64, dt: f64) {
        if self_discharge_per_s > 0.0 {
            let leak = *level * (self_discharge_per_s * dt).min(1.0);
            *level = (*level - leak).max(0.0);
        }
    }
}

/// Battery configuration beyond the capacity window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BatteryConfig {
    /// Capacity window `[C_min, C_max]`.
    pub limits: BatteryLimits,
    /// Fraction of offered charge actually stored (coulombic efficiency).
    pub charge_efficiency: f64,
    /// Self-discharge per second as a fraction of current charge (NiCd
    /// cells of the era leaked ~1%/day ≈ 1.2e−7/s; default 0).
    pub self_discharge_per_s: f64,
    /// Optional rate-dependent capacity model; `None` = the paper's ideal
    /// battery.
    pub peukert: Option<PeukertModel>,
}

impl BatteryConfig {
    /// Ideal battery with the given window (the paper's model).
    pub fn ideal(limits: BatteryLimits) -> Self {
        Self {
            limits,
            charge_efficiency: 1.0,
            self_discharge_per_s: 0.0,
            peukert: None,
        }
    }

    /// Check that the cell is physically meaningful.
    ///
    /// # Errors
    /// [`SimError::BatteryMisconfigured`] on an efficiency outside
    /// `[0, 1]`, a negative self-discharge rate, or a Peukert exponent
    /// below 1; [`SimError::Core`] on an inverted capacity window.
    pub fn validate(&self) -> Result<(), SimError> {
        BatteryLimits::new(self.limits.c_min, self.limits.c_max)?;
        if !(0.0..=1.0).contains(&self.charge_efficiency) {
            return Err(SimError::BatteryMisconfigured(format!(
                "charge efficiency must lie in [0, 1], got {}",
                self.charge_efficiency
            )));
        }
        if !(self.self_discharge_per_s >= 0.0) {
            return Err(SimError::BatteryMisconfigured(format!(
                "self-discharge rate must be non-negative, got {}",
                self.self_discharge_per_s
            )));
        }
        if let Some(p) = self.peukert {
            if !(p.exponent >= 1.0) || !(p.reference_power.value() > 0.0) {
                return Err(SimError::BatteryMisconfigured(format!(
                    "Peukert model needs exponent >= 1 and positive reference power, \
                     got k = {}, P_ref = {}",
                    p.exponent, p.reference_power
                )));
            }
        }
        Ok(())
    }

    /// Whether this cell's accounting closes exactly: with perfect
    /// coulombic efficiency and no self-discharge, every offered joule is
    /// found again in `wasted + rate_loss + delivered + Δlevel`. Trace
    /// auditors use this to decide whether the energy-conservation
    /// invariant applies to a run (Peukert overhead is fine — it is
    /// itemized as rate loss — but conversion and leakage losses are
    /// not).
    pub fn conserves_energy(&self) -> bool {
        self.charge_efficiency == 1.0 && self.self_discharge_per_s == 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::board::Timed;
    use crate::fleet::FleetState;
    use dpm_core::units::{joules, watts};

    fn limits() -> BatteryLimits {
        BatteryLimits::new(joules(0.5), joules(16.0)).unwrap()
    }

    /// A one-board PAMA engine (0.6 s sub-steps) on `cell`, seeded at
    /// `initial`.
    fn engine(cell: BatteryConfig, initial: f64) -> Result<FleetState<Timed>, SimError> {
        let pama = std::sync::Arc::new(dpm_core::platform::Platform::pama());
        FleetState::single(pama, 2, 12, 8, cell, joules(initial))
    }

    fn board(cell: BatteryConfig, initial: f64) -> FleetState<Timed> {
        engine(cell, initial).unwrap()
    }

    fn battery(initial: f64) -> FleetState<Timed> {
        board(BatteryConfig::ideal(limits()), initial)
    }

    fn peukert(reference_w: f64, exponent: f64) -> BatteryConfig {
        BatteryConfig {
            peukert: Some(PeukertModel {
                reference_power: watts(reference_w),
                exponent,
            }),
            ..BatteryConfig::ideal(limits())
        }
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn initial_level_is_clamped() {
        assert_eq!(battery(100.0).level(0), 16.0);
        assert_eq!(battery(0.0).level(0), 0.5);
        assert_eq!(battery(8.0).level(0), 8.0);
    }

    #[test]
    fn charge_stores_up_to_cmax() {
        let mut b = battery(15.0);
        assert_eq!(b.charge(0, 3.0), 1.0);
        let books = b.totals(0);
        assert_eq!((books.level, books.wasted, books.offered), (16.0, 2.0, 3.0));
    }

    #[test]
    fn draw_stops_at_cmin() {
        let mut b = battery(2.0);
        assert_eq!(b.draw(0, 3.0), 1.5);
        assert_eq!((b.level(0), b.totals(0).undersupplied), (0.5, 1.5));
    }

    #[test]
    fn normal_cycle_has_no_waste_or_shortfall() {
        let mut b = battery(8.0);
        b.charge(0, 2.0);
        b.draw(0, 3.0);
        let books = b.totals(0);
        assert_eq!(books.level, 7.0);
        assert_eq!((books.wasted, books.undersupplied), (0.0, 0.0));
        assert_eq!(books.delivered, 3.0);
    }

    #[test]
    fn charge_efficiency_reduces_stored_energy() {
        let cell = BatteryConfig {
            charge_efficiency: 0.8,
            ..BatteryConfig::ideal(limits())
        };
        let mut b = board(cell, 8.0);
        assert!(close(b.charge(0, 1.0), 0.8));
        assert!(close(b.level(0), 8.8));
        assert!(!cell.conserves_energy());
    }

    #[test]
    fn self_discharge_leaks() {
        let mut level = 10.0;
        kernel::tick(&mut level, 0.01, 1.0);
        assert!((level - 9.9).abs() < 1e-9);
        kernel::tick(&mut level, 0.01, 0.0);
        assert!((level - 9.9).abs() < 1e-9);
        let leaky = BatteryConfig {
            self_discharge_per_s: 0.01,
            ..BatteryConfig::ideal(limits())
        };
        assert!(!leaky.conserves_energy());
        assert!(BatteryConfig::ideal(limits()).conserves_energy());
    }

    #[test]
    fn reset_accounting_keeps_level() {
        // Each slot's flows restart from zero while the level carries
        // over, and the per-slot books add up to the run's totals.
        use crate::sim::tests::{sim, Pinned};
        use dpm_core::params::OperatingPoint;
        let report = sim(0.2).run(&mut Pinned(OperatingPoint::OFF)).unwrap();
        let (sunlit, eclipse) = (&report.slots[0], &report.slots[6]);
        assert!(sunlit.supplied > 0.0 && eclipse.supplied == 0.0);
        assert!(eclipse.used > 0.0 && eclipse.battery < sunlit.battery + 12.0);
        let used: f64 = report.slots.iter().map(|s| s.used).sum();
        let supplied: f64 = report.slots.iter().map(|s| s.supplied).sum();
        assert!((used - report.delivered).abs() < 1e-9);
        assert!((supplied - report.offered).abs() < 1e-9);
    }

    #[test]
    fn peukert_ideal_rate_is_free() {
        // 0.6 J over a 0.6 s sub-step = 1 W ≤ 2 W reference: no overhead.
        let mut b = board(peukert(2.0, 1.2), 8.0);
        assert_eq!(b.draw(0, 0.6), 0.6);
        assert_eq!(b.totals(0).rate_loss, 0.0);
        assert!(close(b.level(0), 7.4));
    }

    #[test]
    fn peukert_fast_draw_costs_extra_charge() {
        // 2.4 J over 0.6 s = 4 W = 4x reference: overhead 4^0.2 ≈ 1.32.
        let mut b = board(peukert(1.0, 1.2), 8.0);
        assert_eq!(b.draw(0, 2.4), 2.4);
        let expect_consumed = 2.4 * 4.0_f64.powf(0.2);
        assert!((b.level(0) - (8.0 - expect_consumed)).abs() < 1e-9);
        assert!(b.totals(0).rate_loss > 0.6);
    }

    #[test]
    fn peukert_shortfall_respects_cmin() {
        // Huge fast demand: deliverable limited by the 1.5 J above C_min,
        // shrunk further by the rate penalty.
        let mut b = board(peukert(1.0, 1.3), 2.0);
        assert!(b.draw(0, 10.0) < 1.5);
        assert!((b.level(0) - 0.5).abs() < 1e-9);
        assert!(b.totals(0).undersupplied > 8.5);
    }

    #[test]
    fn draw_over_without_model_matches_draw() {
        // A model that never bites delivers exactly what the ideal draw
        // does, through the rate-aware kernel.
        let mut ideal = battery(8.0);
        let mut slow = board(peukert(1e9, 1.3), 8.0);
        assert_eq!(ideal.draw(0, 3.0), slow.draw(0, 3.0));
        assert_eq!(ideal.level(0), slow.level(0));
        assert_eq!(slow.totals(0).rate_loss, 0.0);
    }

    #[test]
    fn fade_shrinks_the_window_and_spills_excess_charge() {
        let mut b = battery(12.0);
        // Window 0.5..16 → fade 0.5 → 0.5 + 0.5·15.5 = 8.25 J ceiling.
        b.fade(0, 0.5);
        assert!(close(b.window(0).1, 8.25));
        assert_eq!(b.window(0).0, 0.5);
        assert!(close(b.level(0), 8.25));
        assert!(close(b.totals(0).wasted, 12.0 - 8.25));
        // Charging now tops out at the derated ceiling.
        b.charge(0, 5.0);
        assert!(close(b.level(0), 8.25));
    }

    #[test]
    fn fades_compose_and_bad_factors_are_ignored() {
        let mut b = battery(4.0);
        b.fade(0, 0.5);
        b.fade(0, 0.5);
        // 0.5 + 0.25·15.5 = 4.375 J ceiling; 4 J level is below it.
        assert!(close(b.window(0).1, 4.375));
        assert_eq!(b.level(0), 4.0);
        let before = b.window(0);
        b.fade(0, f64::NAN);
        b.fade(0, 1.7); // clamped to 1: no further shrink
        assert_eq!(b.window(0), before);
    }

    #[test]
    fn misconfiguration_is_rejected() {
        let bad_eff = BatteryConfig {
            charge_efficiency: 1.5,
            ..BatteryConfig::ideal(limits())
        };
        let bad_leak = BatteryConfig {
            self_discharge_per_s: -1.0,
            ..BatteryConfig::ideal(limits())
        };
        for bad in [bad_eff, bad_leak, peukert(1.0, 0.5), peukert(0.0, 1.2)] {
            assert!(matches!(
                bad.validate(),
                Err(SimError::BatteryMisconfigured(_))
            ));
            assert!(engine(bad, 8.0).is_err());
        }
        let inverted = BatteryConfig::ideal(BatteryLimits {
            c_min: joules(5.0),
            c_max: joules(1.0),
        });
        assert!(matches!(inverted.validate(), Err(SimError::Core(_))));
        assert!(BatteryConfig::ideal(limits()).validate().is_ok());
    }
}
