//! RF-event arrival generators — realizations of the expected event-rate
//! schedule `u(t)`.
//!
//! The paper estimates `u(t)` from history/forecasts and lets reality
//! deviate; the simulator therefore separates the *forecast* (a
//! [`PowerSeries`] of rates fed to §4.1) from the *realization* (these
//! generators), so Algorithm 3's correction path is actually exercised.

use dpm_core::series::PowerSeries;
use dpm_core::units::Seconds;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Pure arrival-accumulation kernel shared by [`ScheduleGenerator`] and
/// the open-loop fleet's arrival tables ([`crate::fleet`]): add the
/// expected arrivals for an interval to the fractional carry and emit
/// the whole events. Keeping the floor/carry arithmetic in one place
/// keeps a governed run's and a fleet's event streams bit-identical.
#[inline]
pub fn accumulate_arrivals(expected: f64, carry: &mut f64) -> usize {
    let total = expected + *carry;
    let n = total.floor();
    *carry = total - n;
    n as usize
}

/// Produces event arrivals over simulation intervals.
pub trait EventGenerator: Send {
    /// Number of events arriving in `[t, t + dt)`.
    fn arrivals(&mut self, t: Seconds, dt: Seconds) -> usize;

    /// The expected rate at `t` (events/s), for governors that forecast.
    fn expected_rate(&self, t: Seconds) -> f64;
}

/// Deterministic generator: arrivals exactly follow the rate schedule,
/// with fractional events carried between intervals so long-run counts are
/// exact.
#[derive(Debug, Clone)]
pub struct ScheduleGenerator {
    rates: PowerSeries,
    carry: f64,
}

impl ScheduleGenerator {
    /// Wrap a rate schedule (events/s per slot).
    pub fn new(rates: PowerSeries) -> Self {
        Self { rates, carry: 0.0 }
    }
}

impl EventGenerator for ScheduleGenerator {
    fn arrivals(&mut self, t: Seconds, dt: Seconds) -> usize {
        let period = self.rates.period().value();
        let a = t.value().rem_euclid(period);
        let expected = self
            .rates
            .integral_wrapping(Seconds(a), Seconds(a + dt.value()))
            .value();
        accumulate_arrivals(expected, &mut self.carry)
    }

    fn expected_rate(&self, t: Seconds) -> f64 {
        self.rates.value_at(t).value()
    }
}

/// Poisson arrivals with the schedule as the (piecewise-constant) intensity.
#[derive(Debug)]
pub struct PoissonGenerator {
    rates: PowerSeries,
    rng: StdRng,
}

impl PoissonGenerator {
    /// Seeded Poisson process over the rate schedule.
    pub fn new(rates: PowerSeries, seed: u64) -> Self {
        Self {
            rates,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Knuth's algorithm; fine for the λ·dt ≤ ~30 this simulator sees.
    fn poisson(&mut self, lambda: f64) -> usize {
        if lambda <= 0.0 {
            return 0;
        }
        let l = (-lambda).exp();
        let mut k = 0usize;
        let mut p = 1.0;
        loop {
            p *= self.rng.gen::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
            if k > 10_000 {
                return k; // guard against pathological λ
            }
        }
    }
}

impl EventGenerator for PoissonGenerator {
    fn arrivals(&mut self, t: Seconds, dt: Seconds) -> usize {
        let period = self.rates.period().value();
        let a = t.value().rem_euclid(period);
        let lambda = self
            .rates
            .integral_wrapping(Seconds(a), Seconds(a + dt.value()))
            .value();
        self.poisson(lambda)
    }

    fn expected_rate(&self, t: Seconds) -> f64 {
        self.rates.value_at(t).value()
    }
}

/// A burst injector layered over another generator: adds `burst_size`
/// extra events the first time `t` crosses each trigger time. Models the
/// storm-passage surprises §4.3 is designed to absorb.
#[derive(Debug)]
pub struct BurstGenerator<G> {
    inner: G,
    bursts: Vec<(Seconds, usize)>,
    fired: Vec<bool>,
}

impl<G: EventGenerator> BurstGenerator<G> {
    /// Wrap `inner`, adding the given `(time, size)` bursts.
    pub fn new(inner: G, bursts: Vec<(Seconds, usize)>) -> Self {
        let fired = vec![false; bursts.len()];
        Self {
            inner,
            bursts,
            fired,
        }
    }
}

impl<G: EventGenerator> EventGenerator for BurstGenerator<G> {
    fn arrivals(&mut self, t: Seconds, dt: Seconds) -> usize {
        let mut n = self.inner.arrivals(t, dt);
        for (i, &(bt, size)) in self.bursts.iter().enumerate() {
            if !self.fired[i] && bt.value() >= t.value() && bt.value() < t.value() + dt.value() {
                self.fired[i] = true;
                n += size;
            }
        }
        n
    }

    fn expected_rate(&self, t: Seconds) -> f64 {
        self.inner.expected_rate(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_core::units::seconds;

    fn rates() -> PowerSeries {
        PowerSeries::new(
            seconds(4.8),
            vec![0.5, 0.1, 0.0, 0.3, 0.5, 0.2, 0.5, 0.1, 0.0, 0.3, 0.5, 0.2],
        )
        .unwrap()
    }

    #[test]
    fn schedule_generator_matches_integral_long_run() {
        let mut g = ScheduleGenerator::new(rates());
        let mut total = 0usize;
        let steps = 240; // 10 periods at dt = 2.4 s
        for i in 0..steps {
            total += g.arrivals(seconds(i as f64 * 2.4), seconds(2.4));
        }
        let expected = rates().integral().value() * 10.0;
        assert!(
            (total as f64 - expected).abs() <= 1.0,
            "{total} vs {expected}"
        );
    }

    #[test]
    fn schedule_generator_zero_rate_is_silent() {
        let mut g = ScheduleGenerator::new(PowerSeries::new(seconds(1.0), vec![0.0; 4]).unwrap());
        for i in 0..8 {
            assert_eq!(g.arrivals(seconds(i as f64), seconds(1.0)), 0);
        }
    }

    #[test]
    fn poisson_generator_mean_tracks_rate() {
        let mut g = PoissonGenerator::new(rates(), 11);
        let mut total = 0usize;
        let periods = 200;
        for p in 0..periods {
            for s in 0..12 {
                total += g.arrivals(seconds((p * 12 + s) as f64 * 4.8), seconds(4.8));
            }
        }
        let expected = rates().integral().value() * periods as f64;
        let rel = (total as f64 - expected).abs() / expected;
        assert!(rel < 0.1, "total {total}, expected {expected}");
    }

    #[test]
    fn poisson_is_seed_deterministic() {
        let mut a = PoissonGenerator::new(rates(), 5);
        let mut b = PoissonGenerator::new(rates(), 5);
        for i in 0..24 {
            let t = seconds(i as f64 * 4.8);
            assert_eq!(a.arrivals(t, seconds(4.8)), b.arrivals(t, seconds(4.8)));
        }
    }

    #[test]
    fn burst_fires_exactly_once() {
        let inner = ScheduleGenerator::new(PowerSeries::new(seconds(1.0), vec![0.0; 60]).unwrap());
        let mut g = BurstGenerator::new(inner, vec![(seconds(10.5), 7)]);
        let mut total = 0;
        for i in 0..60 {
            total += g.arrivals(seconds(i as f64), seconds(1.0));
        }
        assert_eq!(total, 7);
        // Second pass over the same times: already fired.
        for i in 0..60 {
            assert_eq!(g.arrivals(seconds(i as f64), seconds(1.0)), 0);
        }
    }

    #[test]
    fn expected_rate_passthrough() {
        let g = ScheduleGenerator::new(rates());
        assert_eq!(g.expected_rate(seconds(0.1)), 0.5);
        let b = BurstGenerator::new(ScheduleGenerator::new(rates()), vec![]);
        assert_eq!(b.expected_rate(seconds(0.1)), 0.5);
    }
}
