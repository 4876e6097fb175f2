//! The power-measurement board ("A power measurement board is used to
//! measure real-time power consumption", §5). Its per-slot energies reach
//! the controller's Algorithm 3 feedback loop as the governed run's
//! `used_last`/`supplied_last` observations.
//!
//! The same board carries the battery gauge, modelled here as
//! [`ChargeSensor`]: the charge value a governor *observes* each slot,
//! which fault injection ([`crate::sim::Disturbance::SensorNoise`] /
//! [`crate::sim::Disturbance::SensorStuck`]) can corrupt while the
//! physical battery keeps its true level.

use dpm_core::units::{joules, Joules, Seconds};
use serde::{Deserialize, Serialize};

/// The battery gauge: maps the battery's true charge to the value the
/// governor observes. Fault-free it is the identity; a
/// [`crate::sim::Disturbance::SensorNoise`] injection multiplies readings
/// by a seeded relative error, and a
/// [`crate::sim::Disturbance::SensorStuck`] injection freezes the reading
/// at the value held when the fault hit.
///
/// Noise is a pure hash of `(seed, read index)` — no RNG state — so a run
/// is reproducible regardless of how the campaign is parallelized, the
/// same SplitMix64 idiom as [`crate::source::NoisySource`].
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ChargeSensor {
    reads: u64,
    /// Active noise fault: (relative amplitude, expiry time s, seed).
    noise: Option<(f64, f64, u64)>,
    /// Active stuck fault: (held reading in J if captured, expiry time s).
    stuck: Option<(Option<f64>, f64)>,
}

impl ChargeSensor {
    /// A healthy gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inject relative noise of ±`amplitude` on readings until `until`.
    /// Non-finite or negative amplitudes are ignored (a glitched plan must
    /// not corrupt the gauge model itself).
    pub fn inject_noise(&mut self, amplitude: f64, until: Seconds, seed: u64) {
        if amplitude.is_finite() && amplitude >= 0.0 {
            self.noise = Some((amplitude, until.value(), seed));
        }
    }

    /// Freeze readings at the next observed value until `until`.
    pub fn inject_stuck(&mut self, until: Seconds) {
        self.stuck = Some((None, until.value()));
    }

    /// Whether a fault is active at time `t`.
    pub fn is_faulty(&self, t: Seconds) -> bool {
        self.noise.is_some_and(|(_, until, _)| t.value() < until)
            || self.stuck.is_some_and(|(_, until)| t.value() < until)
    }

    /// Read the gauge at time `t` given the battery's true charge.
    /// Expired faults clear themselves; a stuck fault captures the first
    /// reading after injection and repeats it; noise multiplies the true
    /// value by `1 + ε` with `ε` hashed from `(seed, read index)`.
    /// Readings are clamped non-negative.
    pub fn read(&mut self, t: Seconds, actual: Joules) -> Joules {
        self.reads += 1;
        if let Some((held, until)) = self.stuck {
            if t.value() < until {
                let value = held.unwrap_or(actual.value());
                self.stuck = Some((Some(value), until));
                return joules(value.max(0.0));
            }
            self.stuck = None;
        }
        if let Some((amplitude, until, seed)) = self.noise {
            if t.value() < until {
                // SplitMix64 over (seed, read index).
                let mut z = seed ^ self.reads.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                let u = (z >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
                let eps = (2.0 * u - 1.0) * amplitude;
                return joules((actual.value() * (1.0 + eps)).max(0.0));
            }
            self.noise = None;
        }
        actual
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_core::units::seconds;

    #[test]
    fn healthy_sensor_is_identity() {
        let mut s = ChargeSensor::new();
        assert_eq!(s.read(seconds(0.0), joules(8.0)), joules(8.0));
        assert!(!s.is_faulty(seconds(0.0)));
    }

    #[test]
    fn stuck_sensor_repeats_the_captured_reading_until_expiry() {
        let mut s = ChargeSensor::new();
        s.inject_stuck(seconds(10.0));
        assert!(s.is_faulty(seconds(0.0)));
        assert_eq!(s.read(seconds(1.0), joules(7.0)), joules(7.0));
        assert_eq!(s.read(seconds(5.0), joules(3.0)), joules(7.0));
        // After expiry the gauge heals and tracks the true level again.
        assert_eq!(s.read(seconds(11.0), joules(2.0)), joules(2.0));
        assert!(!s.is_faulty(seconds(11.0)));
    }

    #[test]
    fn noisy_sensor_is_bounded_and_deterministic() {
        let mut a = ChargeSensor::new();
        let mut b = ChargeSensor::new();
        a.inject_noise(0.2, seconds(100.0), 7);
        b.inject_noise(0.2, seconds(100.0), 7);
        let mut saw_error = false;
        for i in 0..32 {
            let t = seconds(i as f64);
            let ra = a.read(t, joules(8.0));
            let rb = b.read(t, joules(8.0));
            assert_eq!(ra, rb, "same seed, same readings");
            assert!(ra.value() >= 8.0 * 0.8 - 1e-9 && ra.value() <= 8.0 * 1.2 + 1e-9);
            if (ra.value() - 8.0).abs() > 1e-6 {
                saw_error = true;
            }
        }
        assert!(saw_error, "noise should actually perturb readings");
    }

    #[test]
    fn noise_seeds_differ() {
        let mut a = ChargeSensor::new();
        let mut b = ChargeSensor::new();
        a.inject_noise(0.2, seconds(100.0), 1);
        b.inject_noise(0.2, seconds(100.0), 2);
        let differs = (0..16).any(|i| {
            a.read(seconds(i as f64), joules(8.0)) != b.read(seconds(i as f64), joules(8.0))
        });
        assert!(differs);
    }

    #[test]
    fn invalid_noise_amplitude_is_ignored() {
        let mut s = ChargeSensor::new();
        s.inject_noise(f64::NAN, seconds(100.0), 1);
        s.inject_noise(-0.5, seconds(100.0), 1);
        assert!(!s.is_faulty(seconds(0.0)));
        assert_eq!(s.read(seconds(0.0), joules(4.0)), joules(4.0));
    }
}
