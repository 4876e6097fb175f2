//! Power models: Eq. 4–6, extended with the PAMA mode powers.
//!
//! The paper's dynamic-power law is `Power ∝ f·v²` per processor (Eq. 4),
//! summed over active processors (Eq. 5), giving `c2·n·f·v²` for the
//! homogeneous case (Eq. 6). The evaluation platform additionally has a
//! *standby* floor (6.6 mW/chip: only the interrupt monitor runs) and a
//! *sleep* mode (393 mW: DRAM retained); inactive processors sit in standby
//! during the simulations ("the sleep mode is not used"), so total board
//! power is
//!
//! ```text
//! P(n, f, v) = n · (c2·f·v² + P_leak) + (N − n) · P_standby
//! ```
//!
//! where `P_leak` is the frequency-independent share of active power. We
//! calibrate `c2` and `P_leak` from the M32R/D datasheet point the paper
//! quotes: 546 mW typical in active mode at 80 MHz / 3.3 V.

use crate::error::DpmError;
use crate::units::{watts, Hertz, Volts, Watts};
use serde::{Deserialize, Serialize};

/// Power drawn in each processor mode (datasheet constants).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModePower {
    /// Full-circuit active power at the calibration point.
    pub active: Watts,
    /// Sleep mode: only on-chip memory refreshed.
    pub sleep: Watts,
    /// Standby mode: everything stopped but the interrupt monitor.
    pub standby: Watts,
}

impl ModePower {
    /// The M32R/D numbers quoted in §5.
    pub const M32RD: Self = Self {
        active: Watts(0.546),
        sleep: Watts(0.393),
        standby: Watts(0.0066),
    };
}

/// Eq. 5/6 power model with a standby floor for inactive processors.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    /// Switching-capacitance constant `c2` (W per Hz·V²).
    pub c2: f64,
    /// Frequency-independent active power per chip (leakage, I/O, DRAM
    /// refresh while active). Zero in the paper's idealized Eq. 6; non-zero
    /// when calibrated against the real datasheet floor.
    pub active_floor: Watts,
    /// Per-chip mode powers.
    pub modes: ModePower,
    /// Total processors on the board (active + inactive), `N`.
    pub total_processors: usize,
}

impl PowerModel {
    /// Pure Eq. 6 model: `P = c2·n·f·v²`, no floors, inactive chips draw
    /// nothing. Used by the analytic §4.2 derivations and their tests.
    pub fn ideal(c2: f64, total_processors: usize) -> Self {
        Self {
            c2,
            active_floor: Watts::ZERO,
            modes: ModePower {
                active: Watts::ZERO,
                sleep: Watts::ZERO,
                standby: Watts::ZERO,
            },
            total_processors,
        }
    }

    /// Calibrate `c2` so that one chip at `(f_cal, v_cal)` draws exactly
    /// `modes.active`, splitting `floor_fraction` of that draw into the
    /// frequency-independent floor.
    ///
    /// # Errors
    /// [`DpmError::InvalidParameter`] unless `0 ≤ floor_fraction < 1` and
    /// the calibration point is positive.
    pub fn calibrated(
        modes: ModePower,
        f_cal: Hertz,
        v_cal: Volts,
        floor_fraction: f64,
        total_processors: usize,
    ) -> Result<Self, DpmError> {
        if !(0.0..1.0).contains(&floor_fraction) {
            return Err(DpmError::InvalidParameter {
                name: "floor_fraction",
                reason: format!("must lie in [0, 1), got {floor_fraction}"),
            });
        }
        if !(f_cal.value() > 0.0) || !(v_cal.value() > 0.0) {
            return Err(DpmError::InvalidParameter {
                name: "calibration point",
                reason: format!("needs positive f and v, got ({f_cal}, {v_cal})"),
            });
        }
        Ok(Self::calibrated_unchecked(
            modes,
            f_cal,
            v_cal,
            floor_fraction,
            total_processors,
        ))
    }

    /// The calibration arithmetic without the input checks, for constructing
    /// platforms from compile-time constants (e.g. [`crate::platform::Platform::pama`]).
    pub(crate) fn calibrated_unchecked(
        modes: ModePower,
        f_cal: Hertz,
        v_cal: Volts,
        floor_fraction: f64,
        total_processors: usize,
    ) -> Self {
        debug_assert!((0.0..1.0).contains(&floor_fraction));
        debug_assert!(f_cal.value() > 0.0 && v_cal.value() > 0.0);
        let dynamic = modes.active.value() * (1.0 - floor_fraction);
        let c2 = dynamic / (f_cal.value() * v_cal.value() * v_cal.value());
        Self {
            c2,
            active_floor: watts(modes.active.value() * floor_fraction),
            modes,
            total_processors,
        }
    }

    /// Dynamic power of one active chip at `(f, v)`: `c2·f·v² + floor`
    /// (Eq. 4 plus the calibrated floor).
    pub fn chip_active_power(&self, f: Hertz, v: Volts) -> Watts {
        watts(self.c2 * f.value() * v.value() * v.value()) + self.active_floor
    }

    /// Eq. 6 board power: `n` chips active at a common `(f, v)`, the
    /// remaining `N − n` in standby. Asking for more chips than the board
    /// has is a scheduler bug (`debug_assert!`); release builds clamp `n`
    /// to the processor count.
    pub fn board_power(&self, n: usize, f: Hertz, v: Volts) -> Watts {
        debug_assert!(
            n <= self.total_processors,
            "cannot activate {n} of {} processors",
            self.total_processors
        );
        let n = n.min(self.total_processors);
        let idle = (self.total_processors - n) as f64 * self.modes.standby.value();
        watts(n as f64 * self.chip_active_power(f, v).value() + idle)
    }

    /// Eq. 5 heterogeneous board power: per-chip `(fᵢ, vᵢ)` pairs; a chip
    /// with `f = 0` is counted as standby. Chips beyond the supplied list
    /// (up to `N`) are standby too; a list longer than the board clamps,
    /// like [`PowerModel::board_power`].
    pub fn board_power_hetero(&self, points: &[(Hertz, Volts)]) -> Watts {
        debug_assert!(points.len() <= self.total_processors);
        let mut total = 0.0;
        let mut active = 0usize;
        for &(f, v) in points {
            if f.value() > 0.0 {
                total += self.chip_active_power(f, v).value();
                active += 1;
            }
        }
        let standby = self.total_processors.saturating_sub(active);
        watts(total + standby as f64 * self.modes.standby.value())
    }

    /// Power with every chip in standby (the "system off" floor the static
    /// baseline pays while idle).
    pub fn all_standby(&self) -> Watts {
        watts(self.total_processors as f64 * self.modes.standby.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::{volts, Hertz};

    fn pama_model() -> PowerModel {
        PowerModel::calibrated(ModePower::M32RD, Hertz::from_mhz(80.0), volts(3.3), 0.0, 8).unwrap()
    }

    #[test]
    fn calibration_point_reproduces_active_power() {
        let m = pama_model();
        let p = m.chip_active_power(Hertz::from_mhz(80.0), volts(3.3));
        assert!((p.value() - 0.546).abs() < 1e-12);
    }

    #[test]
    fn power_scales_linearly_with_frequency() {
        let m = pama_model();
        let p80 = m.chip_active_power(Hertz::from_mhz(80.0), volts(3.3));
        let p20 = m.chip_active_power(Hertz::from_mhz(20.0), volts(3.3));
        assert!((p80.value() / p20.value() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn power_scales_quadratically_with_voltage() {
        let m = PowerModel::ideal(1e-9, 4);
        let p2 = m.chip_active_power(Hertz::from_mhz(10.0), volts(2.0));
        let p1 = m.chip_active_power(Hertz::from_mhz(10.0), volts(1.0));
        assert!((p2.value() / p1.value() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn board_power_adds_standby_floor() {
        let m = pama_model();
        let p = m.board_power(3, Hertz::from_mhz(40.0), volts(3.3));
        let expected = 3.0 * 0.546 / 2.0 + 5.0 * 0.0066;
        assert!((p.value() - expected).abs() < 1e-9, "{p}");
    }

    #[test]
    fn zero_active_is_all_standby() {
        let m = pama_model();
        assert!(m
            .board_power(0, Hertz::ZERO, volts(3.3))
            .approx_eq(m.all_standby(), 1e-12));
        assert!((m.all_standby().value() - 8.0 * 0.0066).abs() < 1e-12);
    }

    #[test]
    fn hetero_matches_homogeneous_when_uniform() {
        let m = pama_model();
        let pts = vec![(Hertz::from_mhz(40.0), volts(3.3)); 5];
        let hetero = m.board_power_hetero(&pts);
        let homo = m.board_power(5, Hertz::from_mhz(40.0), volts(3.3));
        assert!(hetero.approx_eq(homo, 1e-12));
    }

    #[test]
    fn hetero_counts_zero_frequency_as_standby() {
        let m = pama_model();
        let pts = vec![
            (Hertz::from_mhz(80.0), volts(3.3)),
            (Hertz::ZERO, volts(3.3)),
        ];
        let p = m.board_power_hetero(&pts);
        let expected = 0.546 + 7.0 * 0.0066;
        assert!((p.value() - expected).abs() < 1e-12);
    }

    #[test]
    fn floor_fraction_splits_active_power() {
        let m =
            PowerModel::calibrated(ModePower::M32RD, Hertz::from_mhz(80.0), volts(3.3), 0.25, 8)
                .unwrap();
        // At the calibration point, total is still 546 mW...
        let p = m.chip_active_power(Hertz::from_mhz(80.0), volts(3.3));
        assert!((p.value() - 0.546).abs() < 1e-12);
        // ...but at zero frequency the floor remains.
        let p0 = m.chip_active_power(Hertz::ZERO, volts(3.3));
        assert!((p0.value() - 0.25 * 0.546).abs() < 1e-12);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "cannot activate")]
    fn board_power_rejects_too_many_processors() {
        pama_model().board_power(9, Hertz::from_mhz(20.0), volts(3.3));
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn board_power_clamps_too_many_processors_in_release() {
        let m = pama_model();
        let (f, v) = (Hertz::from_mhz(20.0), volts(3.3));
        assert_eq!(m.board_power(9, f, v), m.board_power(8, f, v));
    }

    #[test]
    fn calibration_rejects_bad_inputs() {
        assert!(matches!(
            PowerModel::calibrated(ModePower::M32RD, Hertz::from_mhz(80.0), volts(3.3), 1.5, 8),
            Err(DpmError::InvalidParameter { .. })
        ));
        assert!(matches!(
            PowerModel::calibrated(ModePower::M32RD, Hertz::ZERO, volts(3.3), 0.0, 8),
            Err(DpmError::InvalidParameter { .. })
        ));
    }
}
