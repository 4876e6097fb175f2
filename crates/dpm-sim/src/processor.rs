//! The M32R/D PIM processor model: power modes, frequency switching, and
//! the FPGA-assisted wake sequence of §5. The board engine
//! ([`crate::fleet::FleetState`]) keeps each chip's mode and clock in
//! packed form and prices them with [`chip_power`] and
//! [`TransitionLatency`].
//!
//! Modes (datasheet numbers the paper quotes):
//! * **Active** — full circuit, 546 mW typical at 80 MHz/3.3 V.
//! * **Sleep** — only on-chip DRAM refreshed, 393 mW ("not used" in the
//!   paper's simulation, but modelled for completeness).
//! * **Standby** — interrupt monitor only, 6.6 mW.
//!
//! Transitions have latencies: a frequency change writes the divisor to
//! the adjacent FPGA, drops to standby, and is woken automatically after
//! 10 cycles of the *new* clock; a standby→active wake is an interrupt
//! plus pipeline refill. The paper notes frequency changes therefore cost
//! more than mode changes.

use dpm_core::model::ModePower;
use dpm_core::units::{seconds, Hertz, Seconds, Watts};
use serde::{Deserialize, Serialize};

/// Pure chip-power kernel: instantaneous draw of one chip in `mode` at
/// `frequency`, with active power scaled linearly against the
/// calibration frequency.
#[inline]
pub fn chip_power(
    mode: Mode,
    frequency: Hertz,
    mode_power: &ModePower,
    calibration_f: Hertz,
) -> Watts {
    match mode {
        Mode::Active => {
            // Linear-in-frequency share of the calibrated active power.
            mode_power.active * (frequency.value() / calibration_f.value())
        }
        Mode::Sleep => mode_power.sleep,
        Mode::Standby => mode_power.standby,
    }
}

/// Processor power mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Mode {
    /// Full circuit active at the current frequency.
    Active,
    /// DRAM retained, core stopped.
    Sleep,
    /// Everything stopped but the interrupt monitor.
    Standby,
}

/// Transition latency model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransitionLatency {
    /// Standby/sleep → active wake time.
    pub wake: Seconds,
    /// Cycles of the new clock the FPGA waits before re-waking after a
    /// frequency write (10 on PAMA).
    pub freq_change_cycles: u32,
}

impl TransitionLatency {
    /// PAMA values: a ~100 µs wake, 10-cycle frequency relock.
    pub fn pama() -> Self {
        Self {
            wake: seconds(100e-6),
            freq_change_cycles: 10,
        }
    }

    /// Time for a frequency change to `new_f`: FPGA write + standby dwell
    /// of `freq_change_cycles` at the new clock + wake. Callers guard
    /// `new_f > 0`: a stopped clock is standby, not a frequency.
    pub fn frequency_change(&self, new_f: Hertz) -> Seconds {
        debug_assert!(new_f.value() > 0.0, "use standby to stop the clock");
        seconds(self.freq_change_cycles as f64 / new_f.value()) + self.wake
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::tests::one_board;
    use dpm_core::params::OperatingPoint;
    use dpm_core::units::volts;

    /// One chip's draw, calibrated at 80 MHz.
    fn power(mode: Mode, mhz: f64) -> f64 {
        let (f, cal) = (Hertz::from_mhz(mhz), Hertz::from_mhz(80.0));
        chip_power(mode, f, &ModePower::M32RD, cal).value()
    }

    fn point(workers: usize, mhz: f64) -> OperatingPoint {
        OperatingPoint::new(workers, Hertz::from_mhz(mhz), volts(3.3))
    }

    fn wake() -> f64 {
        TransitionLatency::pama().wake.value()
    }

    fn relock(mhz: f64) -> f64 {
        TransitionLatency::pama()
            .frequency_change(Hertz::from_mhz(mhz))
            .value()
    }

    #[test]
    fn starts_in_standby() {
        let bench = one_board(8.0);
        assert_eq!(bench.chip_active(0), 0, "every chip starts in standby");
        assert!((power(Mode::Standby, 20.0) - 0.0066).abs() < 1e-12);
        assert!((bench.chip_freq(0, 3) - 20e6).abs() < 1e-6);
    }

    #[test]
    fn active_power_scales_with_frequency() {
        assert!((power(Mode::Active, 20.0) - 0.546 / 4.0).abs() < 1e-9);
        assert!((power(Mode::Active, 80.0) - 0.546).abs() < 1e-9);
    }

    #[test]
    fn sleep_power_matches_datasheet() {
        assert!((power(Mode::Sleep, 80.0) - 0.393).abs() < 1e-12);
    }

    #[test]
    fn wake_has_latency_but_gating_does_not() {
        let mut board = one_board(8.0);
        // Waking at the chips' current clock costs the wake alone.
        assert_eq!(board.apply(0, point(7, 20.0)), wake());
        assert_eq!(board.chip_active(0), 0xff);
        // Clock-gating back to standby is immediate.
        assert_eq!(board.apply(0, OperatingPoint::OFF), 0.0);
        assert_eq!(board.chip_active(0), 0);
    }

    #[test]
    fn frequency_change_costs_more_than_wake() {
        let lat = TransitionLatency::pama();
        let fc = lat.frequency_change(Hertz::from_mhz(20.0));
        assert!(fc.value() > lat.wake.value());
        // 10 cycles at 20 MHz = 0.5 µs on top of the wake.
        assert!((fc.value() - (100e-6 + 0.5e-6)).abs() < 1e-9);
    }

    #[test]
    fn same_state_commands_are_free() {
        let mut board = one_board(8.0);
        assert_eq!(board.apply(0, OperatingPoint::OFF), 0.0);
        board.apply(0, point(3, 40.0));
        assert_eq!(board.apply(0, point(3, 40.0)), 0.0);
    }

    #[test]
    fn fault_forces_standby_and_blocks_commands() {
        let mut board = one_board(8.0);
        board.apply(0, point(7, 20.0));
        board.set_chip_fault(0, 3, true);
        assert_eq!(board.chip_active(0) >> 3 & 1, 0, "the watchdog gates it");
        // Commands pass a faulted chip by: no wake, no clock change.
        board.apply(0, point(7, 80.0));
        assert_eq!(board.chip_active(0) >> 3 & 1, 0);
        assert!((board.chip_freq(0, 3) - 20e6).abs() < 1e-6);
        assert!((board.chip_freq(0, 4) - 80e6).abs() < 1e-6);
    }

    #[test]
    fn recovery_leaves_standby_until_commanded() {
        let mut board = one_board(8.0);
        board.apply(0, point(7, 20.0));
        board.set_chip_fault(0, 3, true);
        board.set_chip_fault(0, 3, false);
        assert_eq!(board.chip_active(0) >> 3 & 1, 0, "recovery wakes nothing");
        // The next command wakes it through the normal sequence, even at
        // an unchanged point.
        assert_eq!(board.apply(0, point(7, 20.0)), wake());
        assert_eq!(board.chip_active(0) >> 3 & 1, 1);
    }

    #[test]
    fn counters_track_commands() {
        // Each command costs exactly what it changes: a wake, a relock,
        // both (the slower wins), or nothing.
        let mut board = one_board(8.0);
        assert_eq!(board.apply(0, point(7, 20.0)), wake());
        assert_eq!(board.apply(0, point(7, 40.0)), relock(40.0));
        assert_eq!(board.apply(0, point(7, 40.0)), 0.0);
        assert_eq!(board.apply(0, OperatingPoint::OFF), 0.0);
        assert_eq!(board.apply(0, point(7, 80.0)), relock(80.0).max(wake()));
    }
}
