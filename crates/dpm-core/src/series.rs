//! Time-series calculus for periodic power schedules.
//!
//! The paper manipulates three kinds of functions of time over one charging
//! period `T`:
//!
//! * the expected charging schedule `c(t)`, the event-rate schedule `u(t)`,
//!   the weight function `w(t)` and the power allocation `P_init(t)` — all
//!   modelled here as **piecewise-constant** [`PowerSeries`] with a uniform
//!   slot width `τ` (the paper updates parameters every `τ = 4.8 s`, giving
//!   12 slots per `T = 57.6 s` period);
//! * the battery-energy trajectory `P_original(t) = ∫ (c − u_new) dv`
//!   (Eq. 10) — the integral of a piecewise-constant function, i.e. a
//!   **piecewise-linear** [`EnergyTrajectory`] whose breakpoints sit on slot
//!   boundaries.
//!
//! Algorithm 1 needs the *stationary points* of the trajectory (times where
//! `dP/dt = 0`, lines 1–2); for a piecewise-linear function those are the
//! slot boundaries where the slope changes sign, which
//! [`EnergyTrajectory::stationary_points`] enumerates exactly.
//!
//! ## Fallibility
//!
//! Constructors that accept external data ([`PowerSeries::new`],
//! [`PowerSeries::resample`], [`EnergyTrajectory::from_points`], …) validate
//! it and return a [`DpmError`]. Combinators that only recombine
//! already-validated series (`scale`, `map`, `zip_with`, `cumulative`,
//! `derivative`) stay infallible: the constructor established the invariants,
//! so alignment inside a pipeline is checked with `debug_assert!` only.

use crate::error::DpmError;
use crate::units::{joules, seconds, watts, Joules, Seconds, Watts};
use serde::{Deserialize, Serialize};

/// A piecewise-constant function of time on `[0, T)` with uniform slots.
///
/// Values are powers in watts; the same container also represents event
/// rates and weights (dimensionless), in which case the watt interpretation
/// is ignored by callers — see [`crate::alloc`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerSeries {
    slot: Seconds,
    values: Vec<f64>,
}

impl PowerSeries {
    /// Build from raw per-slot values.
    ///
    /// # Errors
    /// Returns [`DpmError::InvalidSeries`] when `slot` is non-positive or
    /// `values` is empty, and [`DpmError::NonFinite`] when any value is NaN
    /// or infinite.
    pub fn new(slot: Seconds, values: Vec<f64>) -> Result<Self, DpmError> {
        if !(slot.value() > 0.0) {
            return Err(DpmError::InvalidSeries(format!(
                "slot width must be positive (got {} s)",
                slot.value()
            )));
        }
        if values.is_empty() {
            return Err(DpmError::InvalidSeries(
                "a series needs at least one slot".into(),
            ));
        }
        if let Some(i) = values.iter().position(|v| !v.is_finite()) {
            return Err(DpmError::NonFinite(format!("series value at slot {i}")));
        }
        Ok(Self { slot, values })
    }

    /// Build from values the caller has already validated.
    ///
    /// Internal combinators use this to recombine series without re-running
    /// (or being able to fail) the public validation. Invariants are only
    /// `debug_assert!`ed.
    pub(crate) fn assemble(slot: Seconds, values: Vec<f64>) -> Self {
        debug_assert!(slot.value() > 0.0, "slot width must be positive");
        debug_assert!(!values.is_empty(), "a series needs at least one slot");
        Self { slot, values }
    }

    /// Build a constant series covering `slots` slots.
    ///
    /// # Errors
    /// Same conditions as [`PowerSeries::new`].
    pub fn constant(slot: Seconds, slots: usize, value: f64) -> Result<Self, DpmError> {
        Self::new(slot, vec![value; slots])
    }

    /// Sample a closure at the midpoint of each slot.
    ///
    /// # Errors
    /// Same conditions as [`PowerSeries::new`] (a closure returning NaN is
    /// reported as [`DpmError::NonFinite`]).
    pub fn from_fn(
        slot: Seconds,
        slots: usize,
        mut f: impl FnMut(Seconds) -> f64,
    ) -> Result<Self, DpmError> {
        let values = (0..slots)
            .map(|i| f(seconds((i as f64 + 0.5) * slot.value())))
            .collect();
        Self::new(slot, values)
    }

    /// Slot width `τ`.
    #[inline]
    pub fn slot_width(&self) -> Seconds {
        self.slot
    }

    /// Number of slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Always false by construction; present for API completeness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The period `T = len × τ` covered by the series.
    #[inline]
    pub fn period(&self) -> Seconds {
        seconds(self.slot.value() * self.values.len() as f64)
    }

    /// Raw slot values.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable raw slot values.
    #[inline]
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Value of slot `i`.
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        self.values[i]
    }

    /// Set the value of slot `i`. Finiteness is the caller's responsibility
    /// (checked under `debug_assert!` only, like [`Self::values_mut`]).
    #[inline]
    pub fn set(&mut self, i: usize, v: f64) {
        debug_assert!(v.is_finite());
        self.values[i] = v;
    }

    /// Index of the slot containing time `t` (periodic: `t` is wrapped into
    /// `[0, T)`).
    pub fn slot_index(&self, t: Seconds) -> usize {
        let period = self.period().value();
        let wrapped = t.value().rem_euclid(period);
        // Guard the boundary case wrapped == period after rounding.
        ((wrapped / self.slot.value()) as usize).min(self.values.len() - 1)
    }

    /// Value at time `t` (periodic extension).
    pub fn value_at(&self, t: Seconds) -> Watts {
        watts(self.values[self.slot_index(t)])
    }

    /// Start time of slot `i`.
    #[inline]
    pub fn slot_start(&self, i: usize) -> Seconds {
        seconds(self.slot.value() * i as f64)
    }

    /// Integral over the whole period, `∫₀ᵀ s(t) dt`.
    pub fn integral(&self) -> Joules {
        joules(self.values.iter().sum::<f64>() * self.slot.value())
    }

    /// Integral over `[a, b)` within one period (`a ≤ b`, both clamped to
    /// `[0, T]`). Handles partial slots at either end.
    pub fn integral_range(&self, a: Seconds, b: Seconds) -> Joules {
        let period = self.period().value();
        let (a, b) = (a.value().clamp(0.0, period), b.value().clamp(0.0, period));
        if b <= a {
            return Joules::ZERO;
        }
        let slot = self.slot.value();
        let mut total = 0.0;
        let first = (a / slot) as usize;
        let last = ((b / slot).ceil() as usize).min(self.values.len());
        for i in first..last {
            let lo = (i as f64 * slot).max(a);
            let hi = ((i + 1) as f64 * slot).min(b);
            if hi > lo {
                total += self.values[i] * (hi - lo);
            }
        }
        joules(total)
    }

    /// Integral over `[a, b)` with periodic wrap-around, so `b` may exceed
    /// `T` or precede `a` (meaning "wrap past the period end"). Algorithm 3
    /// redistributes energy over a horizon that may cross the boundary.
    ///
    /// The empty interval (`b == a`, e.g. a zero-length sub-step in the
    /// simulator) integrates to zero; an interval of exactly one period
    /// (`b == a + T`) integrates to the full-period value. The two are
    /// indistinguishable after both ends are wrapped onto `[0, T)`, so the
    /// raw endpoints are compared before wrapping.
    pub fn integral_wrapping(&self, a: Seconds, b: Seconds) -> Joules {
        if a.value() == b.value() {
            return Joules::ZERO;
        }
        let period = self.period();
        let a = seconds(a.value().rem_euclid(period.value()));
        let b = seconds(b.value().rem_euclid(period.value()));
        if b.value() > a.value() {
            self.integral_range(a, b)
        } else {
            self.integral_range(a, period) + self.integral_range(Seconds::ZERO, b)
        }
    }

    /// Mean value over the period.
    pub fn mean(&self) -> Watts {
        watts(self.values.iter().sum::<f64>() / self.values.len() as f64)
    }

    /// Largest slot value.
    pub fn max_value(&self) -> Watts {
        watts(
            self.values
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max),
        )
    }

    /// Smallest slot value.
    pub fn min_value(&self) -> Watts {
        watts(self.values.iter().copied().fold(f64::INFINITY, f64::min))
    }

    /// Multiply every slot by a scalar (used by the Eq. 8 normalization and
    /// Algorithm 3's proportional redistribution).
    pub fn scale(&self, k: f64) -> Self {
        Self::assemble(self.slot, self.values.iter().map(|v| v * k).collect())
    }

    /// Apply a function to every slot value.
    pub fn map(&self, mut f: impl FnMut(f64) -> f64) -> Self {
        Self::assemble(self.slot, self.values.iter().map(|&v| f(v)).collect())
    }

    /// Pointwise product (the WPUF of Eq. 7 is `u(t)·w(t)`).
    pub fn pointwise_mul(&self, other: &Self) -> Self {
        self.zip_with(other, |a, b| a * b)
    }

    /// Pointwise difference (`c(t) − u_new(t)`, Eq. 9).
    pub fn pointwise_sub(&self, other: &Self) -> Self {
        self.zip_with(other, |a, b| a - b)
    }

    /// Pointwise sum.
    pub fn pointwise_add(&self, other: &Self) -> Self {
        self.zip_with(other, |a, b| a + b)
    }

    /// Combine two aligned series slot-by-slot.
    ///
    /// Alignment (same length and slot width) is an entry-point invariant:
    /// every pipeline validates it once at construction (e.g.
    /// [`crate::alloc::InitialAllocator::new`]), so here it is checked under
    /// `debug_assert!` only. In release builds a mismatched pair truncates
    /// to the shorter series.
    pub fn zip_with(&self, other: &Self, mut f: impl FnMut(f64, f64) -> f64) -> Self {
        debug_assert_eq!(
            self.values.len(),
            other.values.len(),
            "series length mismatch"
        );
        debug_assert!(
            self.slot.approx_eq(other.slot, 1e-12),
            "series slot width mismatch"
        );
        Self::assemble(
            self.slot,
            self.values
                .iter()
                .zip(&other.values)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        )
    }

    /// Check that `other` shares this series' slotting, for use by entry
    /// points that subsequently rely on the infallible combinators.
    ///
    /// # Errors
    /// [`DpmError::SeriesMismatch`] on a length difference,
    /// [`DpmError::InvalidSeries`] on a slot-width difference.
    pub fn check_aligned(&self, other: &Self) -> Result<(), DpmError> {
        if self.values.len() != other.values.len() {
            return Err(DpmError::SeriesMismatch {
                expected: self.values.len(),
                got: other.values.len(),
            });
        }
        if !self.slot.approx_eq(other.slot, 1e-12) {
            return Err(DpmError::InvalidSeries(format!(
                "slot width mismatch: {} s vs {} s",
                self.slot.value(),
                other.slot.value()
            )));
        }
        Ok(())
    }

    /// Running integral: the piecewise-linear trajectory
    /// `E(t) = E₀ + ∫₀ᵗ s(v) dv` evaluated at every slot boundary
    /// (`len + 1` breakpoints). This is Eq. 10 with an initial battery
    /// charge `E₀`.
    pub fn cumulative(&self, initial: Joules) -> EnergyTrajectory {
        let mut points = Vec::with_capacity(self.values.len() + 1);
        let mut acc = initial.value();
        points.push(acc);
        for &v in &self.values {
            acc += v * self.slot.value();
            points.push(acc);
        }
        EnergyTrajectory::assemble(self.slot, points)
    }

    /// Fused Eq. 10 kernel: the running integral of `self − other` written
    /// into a caller-owned breakpoint buffer, i.e.
    /// `self.pointwise_sub(other).cumulative(initial)` without the
    /// intermediate series allocation.
    ///
    /// Bit-identity contract: each breakpoint is produced by exactly the
    /// same two floating-point operations in the same order as the unfused
    /// pipeline (`acc += (c − a) × τ`), so the results agree to the last
    /// ULP. The single pass over the two contiguous value slices is also
    /// what lets the optimizer keep everything in registers — true SIMD
    /// reassociation of the prefix sum would change rounding and is
    /// deliberately *not* done.
    ///
    /// `out` is cleared and refilled with `len + 1` breakpoints; callers
    /// reuse the buffer across convergence iterations and replans.
    pub fn net_cumulative_into(&self, other: &Self, initial: Joules, out: &mut Vec<f64>) {
        debug_assert_eq!(
            self.values.len(),
            other.values.len(),
            "series length mismatch"
        );
        debug_assert!(
            self.slot.approx_eq(other.slot, 1e-12),
            "series slot width mismatch"
        );
        out.clear();
        out.reserve(self.values.len() + 1);
        let slot = self.slot.value();
        let mut acc = initial.value();
        out.push(acc);
        for (&c, &a) in self.values.iter().zip(&other.values) {
            acc += (c - a) * slot;
            out.push(acc);
        }
    }

    /// Concatenate `k` copies of the series (multi-period simulations).
    /// `k = 0` is treated as `k = 1`.
    pub fn repeat(&self, k: usize) -> Self {
        let k = k.max(1);
        let mut values = Vec::with_capacity(self.values.len() * k);
        for _ in 0..k {
            values.extend_from_slice(&self.values);
        }
        Self::assemble(self.slot, values)
    }

    /// Resample to a different slot width by averaging (downsampling) or
    /// replicating (upsampling). The new width must divide, or be divided
    /// by, the current width to an integer factor.
    ///
    /// # Errors
    /// [`DpmError::InvalidSeries`] when the widths are not integer multiples
    /// of each other or the coarser width does not divide the period.
    pub fn resample(&self, new_slot: Seconds) -> Result<Self, DpmError> {
        if !(new_slot.value() > 0.0) {
            return Err(DpmError::InvalidSeries(format!(
                "slot width must be positive (got {} s)",
                new_slot.value()
            )));
        }
        let ratio = self.slot.value() / new_slot.value();
        if (ratio - ratio.round()).abs() < 1e-9 && ratio >= 1.0 {
            // Upsample: replicate each slot `ratio` times.
            let k = ratio.round() as usize;
            let values = self
                .values
                .iter()
                .flat_map(|&v| std::iter::repeat_n(v, k))
                .collect();
            Ok(Self::assemble(new_slot, values))
        } else {
            let inv = new_slot.value() / self.slot.value();
            if (inv - inv.round()).abs() >= 1e-9 || inv < 1.0 {
                return Err(DpmError::InvalidSeries(format!(
                    "resample requires an integer slot ratio ({} s to {} s)",
                    self.slot.value(),
                    new_slot.value()
                )));
            }
            let k = inv.round() as usize;
            if !self.values.len().is_multiple_of(k) {
                return Err(DpmError::InvalidSeries(format!(
                    "resampling {} slots by a factor of {k} would not keep the period intact",
                    self.values.len()
                )));
            }
            let values = self
                .values
                .chunks(k)
                .map(|c| c.iter().sum::<f64>() / k as f64)
                .collect();
            Ok(Self::assemble(new_slot, values))
        }
    }
}

/// Kind of constraint violation at a stationary point of the battery
/// trajectory (Algorithm 1, line 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExtremumKind {
    /// Local maximum of the trajectory.
    Maximum,
    /// Local minimum of the trajectory.
    Minimum,
}

/// A stationary point of the energy trajectory.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Extremum {
    /// Breakpoint index (slot boundary) where the slope changes sign.
    pub index: usize,
    /// Time of the breakpoint.
    pub time: Seconds,
    /// Trajectory value at the breakpoint.
    pub energy: Joules,
    /// Whether this is a peak or a trough.
    pub kind: ExtremumKind,
}

/// A piecewise-linear energy trajectory with breakpoints on slot boundaries.
///
/// Produced by [`PowerSeries::cumulative`]; consumed by Algorithm 1 (capacity
/// reshaping) and Algorithm 3 (horizon search).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyTrajectory {
    slot: Seconds,
    /// `len + 1` energies at slot boundaries.
    points: Vec<f64>,
}

impl EnergyTrajectory {
    /// Build from explicit breakpoint energies.
    ///
    /// # Errors
    /// Returns [`DpmError::InvalidSeries`] when `slot ≤ 0` or fewer than two
    /// breakpoints are given, and [`DpmError::NonFinite`] on NaN/infinite
    /// energies.
    pub fn from_points(slot: Seconds, points: Vec<f64>) -> Result<Self, DpmError> {
        if !(slot.value() > 0.0) {
            return Err(DpmError::InvalidSeries(format!(
                "slot width must be positive (got {} s)",
                slot.value()
            )));
        }
        if points.len() < 2 {
            return Err(DpmError::InvalidSeries(
                "a trajectory needs at least one segment".into(),
            ));
        }
        if let Some(i) = points.iter().position(|p| !p.is_finite()) {
            return Err(DpmError::NonFinite(format!(
                "trajectory energy at breakpoint {i}"
            )));
        }
        Ok(Self { slot, points })
    }

    /// Build from breakpoints the caller has already validated (internal
    /// reshaping helpers); invariants are only `debug_assert!`ed.
    pub(crate) fn assemble(slot: Seconds, points: Vec<f64>) -> Self {
        debug_assert!(slot.value() > 0.0);
        debug_assert!(points.len() >= 2, "a trajectory needs at least one segment");
        Self { slot, points }
    }

    /// Take the breakpoint buffer back out of a trajectory so callers can
    /// recycle it as scratch (the allocator's convergence loop round-trips
    /// one buffer through `assemble`/`into_points` instead of reallocating
    /// per iteration).
    pub(crate) fn into_points(self) -> Vec<f64> {
        self.points
    }

    /// Slot width.
    #[inline]
    pub fn slot_width(&self) -> Seconds {
        self.slot
    }

    /// Breakpoint energies (`segments + 1` of them).
    #[inline]
    pub fn points(&self) -> &[f64] {
        &self.points
    }

    /// Number of linear segments.
    #[inline]
    pub fn segments(&self) -> usize {
        self.points.len() - 1
    }

    /// Total time span.
    #[inline]
    pub fn span(&self) -> Seconds {
        seconds(self.slot.value() * self.segments() as f64)
    }

    /// Energy at breakpoint `i`.
    #[inline]
    pub fn point(&self, i: usize) -> Joules {
        joules(self.points[i])
    }

    /// Linear interpolation at time `t ∈ [0, span]`.
    pub fn value_at(&self, t: Seconds) -> Joules {
        let t = t.value().clamp(0.0, self.span().value());
        let x = t / self.slot.value();
        let i = (x as usize).min(self.segments() - 1);
        let frac = x - i as f64;
        joules(self.points[i] + (self.points[i + 1] - self.points[i]) * frac)
    }

    /// Slope of segment `i` — the net power during slot `i`.
    pub fn slope(&self, i: usize) -> Watts {
        watts((self.points[i + 1] - self.points[i]) / self.slot.value())
    }

    /// Recover the net-power series whose cumulative this trajectory is.
    pub fn derivative(&self) -> PowerSeries {
        PowerSeries::assemble(
            self.slot,
            (0..self.segments())
                .map(|i| self.slope(i).value())
                .collect(),
        )
    }

    /// Minimum breakpoint energy. Because the trajectory is piecewise
    /// linear, the global extrema over continuous time are attained at
    /// breakpoints.
    pub fn min_energy(&self) -> Joules {
        joules(self.points.iter().copied().fold(f64::INFINITY, f64::min))
    }

    /// Maximum breakpoint energy.
    pub fn max_energy(&self) -> Joules {
        joules(
            self.points
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max),
        )
    }

    /// All interior stationary points: breakpoints where the slope changes
    /// sign (zero-slope plateaus report their first boundary). The two
    /// endpoints are treated as stationary as well — the paper's Algorithm 1
    /// wraps the period around (lines 19–20), so endpoint extrema matter.
    pub fn stationary_points(&self) -> Vec<Extremum> {
        let mut out = Vec::new();
        let n = self.points.len();
        let slope_sign = |i: usize| -> i8 {
            let s = self.points[i + 1] - self.points[i];
            if s > 1e-12 {
                1
            } else if s < -1e-12 {
                -1
            } else {
                0
            }
        };
        for i in 0..n {
            let before = if i == 0 { 0 } else { slope_sign(i - 1) };
            let after = if i + 1 == n { 0 } else { slope_sign(i) };
            let kind = match (before, after) {
                (1, -1) | (0, -1) | (1, 0) => Some(ExtremumKind::Maximum),
                (-1, 1) | (0, 1) | (-1, 0) => Some(ExtremumKind::Minimum),
                _ => None,
            };
            if let Some(kind) = kind {
                out.push(Extremum {
                    index: i,
                    time: seconds(i as f64 * self.slot.value()),
                    energy: joules(self.points[i]),
                    kind,
                });
            }
        }
        out
    }

    /// First breakpoint index `≥ from` at which the trajectory has reached
    /// `level`, or `None`. Algorithm 3 searches forward for the time the
    /// allocation pins at `C_max`/`C_min`.
    ///
    /// A breakpoint within `tol` of `level` matches directly. Because the
    /// trajectory is piecewise linear, it can also cross `level` *strictly
    /// between* two breakpoints (the sign of `p − level` flips across a
    /// segment without either endpoint landing within `tol`); such a
    /// crossing reports the segment's end breakpoint — the first breakpoint
    /// by which the level has been reached.
    pub fn first_reaching(&self, from: usize, level: Joules, tol: f64) -> Option<usize> {
        let pts = self.points.get(from..).unwrap_or(&[]);
        let lv = level.value();
        let mut prev = *pts.first()?;
        if (prev - lv).abs() <= tol {
            return Some(from);
        }
        for (off, &p) in pts.iter().enumerate().skip(1) {
            if (p - lv).abs() <= tol || (prev - lv) * (p - lv) < 0.0 {
                return Some(from + off);
            }
            prev = p;
        }
        None
    }

    /// Exact time `≥ from`'s breakpoint at which the trajectory first
    /// reaches `level`, linearly interpolated inside the crossing segment;
    /// `None` when the level is never reached. Companion to
    /// [`Self::first_reaching`] for callers that need the pin *time* rather
    /// than a breakpoint index.
    pub fn first_reaching_time(&self, from: usize, level: Joules, tol: f64) -> Option<Seconds> {
        let i = self.first_reaching(from, level, tol)?;
        let lv = level.value();
        let t_i = i as f64 * self.slot.value();
        if (self.points[i] - lv).abs() <= tol || i == from {
            return Some(seconds(t_i));
        }
        // Reached by an interior crossing of segment [i-1, i]: interpolate.
        let (p0, p1) = (self.points[i - 1], self.points[i]);
        let denom = p1 - p0;
        if denom.abs() <= f64::EPSILON * p0.abs().max(p1.abs()).max(1.0) {
            return Some(seconds(t_i));
        }
        let frac = ((lv - p0) / denom).clamp(0.0, 1.0);
        Some(seconds((i as f64 - 1.0 + frac) * self.slot.value()))
    }

    /// Fused Algorithm 1 back-substitution kernel: the clamped allocation
    /// implied by this (reshaped) trajectory under charging schedule `c`,
    /// written into a caller-owned buffer. Equivalent to
    /// `c.pointwise_sub(&self.derivative()).map(|v| v.clamp(floor, ceil))`
    /// without the two intermediate series.
    ///
    /// Bit-identity contract: per slot the operations are exactly
    /// `(c − (p₁ − p₀) / τ).clamp(floor, ceil)` — the same ops in the same
    /// order as the unfused pipeline, so results agree to the last ULP.
    pub fn residual_allocation_into(
        &self,
        charging: &PowerSeries,
        floor: f64,
        ceil: f64,
        out: &mut Vec<f64>,
    ) {
        debug_assert_eq!(self.segments(), charging.len(), "series length mismatch");
        debug_assert!(
            self.slot.approx_eq(charging.slot_width(), 1e-12),
            "series slot width mismatch"
        );
        out.clear();
        out.reserve(self.segments());
        let slot = self.slot.value();
        for (i, &c) in charging.values().iter().enumerate() {
            let d = (self.points[i + 1] - self.points[i]) / slot;
            out.push((c - d).clamp(floor, ceil));
        }
    }

    /// True when every breakpoint lies inside `[lo, hi]` (with tolerance).
    pub fn within(&self, lo: Joules, hi: Joules, tol: f64) -> bool {
        self.points
            .iter()
            .all(|&p| p >= lo.value() - tol && p <= hi.value() + tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(values: &[f64]) -> PowerSeries {
        PowerSeries::new(seconds(1.0), values.to_vec()).unwrap()
    }

    #[test]
    fn basic_accessors() {
        let s = series(&[1.0, 2.0, 3.0]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.period(), seconds(3.0));
        assert_eq!(s.value_at(seconds(1.5)), watts(2.0));
        assert_eq!(s.get(2), 3.0);
        assert_eq!(s.mean(), watts(2.0));
        assert_eq!(s.max_value(), watts(3.0));
        assert_eq!(s.min_value(), watts(1.0));
    }

    #[test]
    fn constructor_rejects_malformed_input() {
        assert!(matches!(
            PowerSeries::new(seconds(0.0), vec![1.0]),
            Err(DpmError::InvalidSeries(_))
        ));
        assert!(matches!(
            PowerSeries::new(seconds(1.0), vec![]),
            Err(DpmError::InvalidSeries(_))
        ));
        assert!(matches!(
            PowerSeries::new(seconds(1.0), vec![1.0, f64::NAN]),
            Err(DpmError::NonFinite(_))
        ));
        assert!(matches!(
            EnergyTrajectory::from_points(seconds(1.0), vec![1.0]),
            Err(DpmError::InvalidSeries(_))
        ));
        assert!(matches!(
            EnergyTrajectory::from_points(seconds(1.0), vec![1.0, f64::INFINITY]),
            Err(DpmError::NonFinite(_))
        ));
    }

    #[test]
    fn periodic_lookup_wraps() {
        let s = series(&[1.0, 2.0]);
        assert_eq!(s.value_at(seconds(2.5)), watts(1.0));
        assert_eq!(s.value_at(seconds(-0.5)), watts(2.0));
        assert_eq!(s.value_at(seconds(4.0)), watts(1.0));
    }

    #[test]
    fn integral_full_period() {
        let s = PowerSeries::new(
            seconds(4.8),
            vec![2.36; 6].into_iter().chain(vec![0.0; 6]).collect(),
        )
        .unwrap();
        // Scenario-I-like charging: 2.36 W for half the 57.6 s period.
        assert!(s.integral().approx_eq(joules(2.36 * 6.0 * 4.8), 1e-9));
    }

    #[test]
    fn integral_partial_slots() {
        let s = series(&[1.0, 2.0, 3.0]);
        // [0.5, 2.5): 0.5·1 + 1·2 + 0.5·3 = 4.0
        assert!(s
            .integral_range(seconds(0.5), seconds(2.5))
            .approx_eq(joules(4.0), 1e-12));
        assert_eq!(s.integral_range(seconds(2.0), seconds(1.0)), Joules::ZERO);
    }

    #[test]
    fn integral_wrapping_crosses_boundary() {
        let s = series(&[1.0, 2.0, 3.0]);
        // [2.0 .. 1.0 wrapped): slot2 (3.0) + slot0 (1.0) = 4.0
        assert!(s
            .integral_wrapping(seconds(2.0), seconds(1.0))
            .approx_eq(joules(4.0), 1e-12));
    }

    #[test]
    fn integral_wrapping_empty_interval_is_zero() {
        // Regression: `b == a` used to fall into the wrap branch and return
        // the *full-period* integral (a zero-length sub-step in the
        // simulator then double-counted a whole period of supply).
        let s = series(&[1.0, 2.0, 3.0]);
        for a in [0.0, 0.4, 1.0, 2.999, 3.0, -1.5, 7.2] {
            assert_eq!(
                s.integral_wrapping(seconds(a), seconds(a)),
                Joules::ZERO,
                "a = {a}"
            );
        }
    }

    #[test]
    fn integral_wrapping_full_period_is_total() {
        let s = series(&[1.0, 2.0, 3.0]);
        // Exactly one period still integrates to the full total (0.75 and
        // 3.75 are exactly representable, so the wrap is exact) …
        assert!(s
            .integral_wrapping(seconds(0.75), seconds(3.75))
            .approx_eq(s.integral(), 1e-12));
        // … and matches the two integral_range pieces it is built from.
        let pieces = s.integral_range(seconds(0.75), seconds(3.0))
            + s.integral_range(seconds(0.0), seconds(0.75));
        assert!(s
            .integral_wrapping(seconds(0.75), seconds(3.75))
            .approx_eq(pieces, 1e-12));
    }

    #[test]
    fn pointwise_ops() {
        let a = series(&[1.0, 2.0]);
        let b = series(&[3.0, 4.0]);
        assert_eq!(a.pointwise_mul(&b).values(), &[3.0, 8.0]);
        assert_eq!(b.pointwise_sub(&a).values(), &[2.0, 2.0]);
        assert_eq!(a.pointwise_add(&b).values(), &[4.0, 6.0]);
        assert_eq!(a.scale(2.0).values(), &[2.0, 4.0]);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "length mismatch")]
    fn zip_rejects_mismatched_lengths() {
        // `zip_with` guards alignment with debug_assert!, so the guard is
        // active under `cargo test` (debug profile).
        series(&[1.0]).pointwise_add(&series(&[1.0, 2.0]));
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn zip_truncates_mismatched_lengths_in_release() {
        let sum = series(&[1.0]).pointwise_add(&series(&[1.0, 2.0]));
        assert_eq!(sum, series(&[2.0]));
    }

    #[test]
    fn check_aligned_reports_mismatch() {
        let a = series(&[1.0]);
        let b = series(&[1.0, 2.0]);
        assert_eq!(
            a.check_aligned(&b),
            Err(DpmError::SeriesMismatch {
                expected: 1,
                got: 2
            })
        );
        let c = PowerSeries::new(seconds(2.0), vec![1.0]).unwrap();
        assert!(matches!(
            a.check_aligned(&c),
            Err(DpmError::InvalidSeries(_))
        ));
        assert_eq!(a.check_aligned(&series(&[5.0])), Ok(()));
    }

    #[test]
    fn cumulative_matches_manual_integration() {
        let s = series(&[1.0, -2.0, 0.5]);
        let t = s.cumulative(joules(10.0));
        assert_eq!(t.points(), &[10.0, 11.0, 9.0, 9.5]);
        assert_eq!(t.value_at(seconds(0.5)), joules(10.5));
        assert_eq!(t.slope(1), watts(-2.0));
    }

    #[test]
    fn derivative_inverts_cumulative() {
        let s = series(&[0.3, -1.2, 2.0, 0.0]);
        let d = s.cumulative(joules(5.0)).derivative();
        for (a, b) in s.values().iter().zip(d.values()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn stationary_points_detects_peak_and_trough() {
        // Up, up, down, down, up: peak at index 2, trough at index 4.
        let s = series(&[1.0, 1.0, -1.0, -1.0, 1.0]);
        let t = s.cumulative(Joules::ZERO);
        let ex = t.stationary_points();
        let peak = ex
            .iter()
            .find(|e| e.kind == ExtremumKind::Maximum && e.index == 2);
        let trough = ex
            .iter()
            .find(|e| e.kind == ExtremumKind::Minimum && e.index == 4);
        assert!(peak.is_some(), "missing peak: {ex:?}");
        assert!(trough.is_some(), "missing trough: {ex:?}");
        assert_eq!(peak.unwrap().energy, joules(2.0));
        assert_eq!(trough.unwrap().energy, joules(0.0));
    }

    #[test]
    fn stationary_points_include_endpoints() {
        let s = series(&[1.0, 1.0]); // monotone rise
        let t = s.cumulative(Joules::ZERO);
        let ex = t.stationary_points();
        assert!(ex
            .iter()
            .any(|e| e.index == 0 && e.kind == ExtremumKind::Minimum));
        assert!(ex
            .iter()
            .any(|e| e.index == 2 && e.kind == ExtremumKind::Maximum));
    }

    #[test]
    fn within_bounds_check() {
        let t = EnergyTrajectory::from_points(seconds(1.0), vec![0.0, 1.0, 0.5]).unwrap();
        assert!(t.within(joules(0.0), joules(1.0), 1e-9));
        assert!(!t.within(joules(0.2), joules(1.0), 1e-9));
    }

    #[test]
    fn first_reaching_searches_forward() {
        let t = EnergyTrajectory::from_points(seconds(1.0), vec![0.0, 1.0, 2.0, 1.0]).unwrap();
        assert_eq!(t.first_reaching(0, joules(2.0), 1e-9), Some(2));
        assert_eq!(t.first_reaching(3, joules(2.0), 1e-9), None);
        assert_eq!(t.first_reaching(9, joules(2.0), 1e-9), None);
    }

    #[test]
    fn first_reaching_detects_interior_crossing() {
        // Regression: the level 2.0 is crossed strictly inside the segment
        // [0, 3] without either breakpoint lying within tol, so the old
        // breakpoint-only scan returned None and Algorithm 3's horizon
        // search skipped the true pin time.
        let t = EnergyTrajectory::from_points(seconds(1.0), vec![0.0, 3.0, 3.5]).unwrap();
        assert_eq!(t.first_reaching(0, joules(2.0), 1e-9), Some(1));
        // Downward crossings count too.
        let d = EnergyTrajectory::from_points(seconds(1.0), vec![5.0, 1.0, 0.5]).unwrap();
        assert_eq!(d.first_reaching(0, joules(2.0), 1e-9), Some(1));
        // A segment that merely touches from above without sign change
        // still requires the tol match.
        let g = EnergyTrajectory::from_points(seconds(1.0), vec![3.0, 2.5, 3.0]).unwrap();
        assert_eq!(g.first_reaching(0, joules(2.0), 1e-9), None);
    }

    #[test]
    fn first_reaching_time_interpolates_crossing() {
        let t = EnergyTrajectory::from_points(seconds(2.0), vec![0.0, 4.0, 4.5]).unwrap();
        // Level 1.0 is reached a quarter of the way through segment 0,
        // i.e. at t = 0.5 s of the 2 s slot.
        let at = t.first_reaching_time(0, joules(1.0), 1e-9).unwrap();
        assert!(at.approx_eq(seconds(0.5), 1e-12), "{at:?}");
        // A breakpoint hit reports the breakpoint's own time.
        let bp = t.first_reaching_time(0, joules(4.0), 1e-9).unwrap();
        assert!(bp.approx_eq(seconds(2.0), 1e-12), "{bp:?}");
        assert_eq!(t.first_reaching_time(0, joules(9.0), 1e-9), None);
    }

    #[test]
    fn repeat_concatenates_periods() {
        let s = series(&[1.0, 2.0]);
        let r = s.repeat(3);
        assert_eq!(r.len(), 6);
        assert_eq!(r.values(), &[1.0, 2.0, 1.0, 2.0, 1.0, 2.0]);
        // k = 0 degrades to the identity instead of producing an empty series.
        assert_eq!(s.repeat(0).values(), s.values());
    }

    #[test]
    fn resample_up_and_down() {
        let s = series(&[1.0, 3.0]);
        let up = s.resample(seconds(0.5)).unwrap();
        assert_eq!(up.values(), &[1.0, 1.0, 3.0, 3.0]);
        let down = up.resample(seconds(1.0)).unwrap();
        assert_eq!(down.values(), s.values());
        // Integral is preserved by both directions.
        assert!(up.integral().approx_eq(s.integral(), 1e-12));
    }

    #[test]
    fn resample_rejects_non_integer_ratio() {
        let s = series(&[1.0, 3.0]);
        assert!(matches!(
            s.resample(seconds(0.7)),
            Err(DpmError::InvalidSeries(_))
        ));
        // 2 slots cannot be averaged down by a factor that splits the period.
        let three = series(&[1.0, 2.0, 3.0]);
        assert!(matches!(
            three.resample(seconds(2.0)),
            Err(DpmError::InvalidSeries(_))
        ));
    }

    #[test]
    fn from_fn_samples_midpoints() {
        let s = PowerSeries::from_fn(seconds(2.0), 3, |t| t.value()).unwrap();
        assert_eq!(s.values(), &[1.0, 3.0, 5.0]);
    }

    #[test]
    fn net_cumulative_into_is_bit_identical_to_unfused_pipeline() {
        let c = series(&[2.36, 0.7, 0.0, 1.9, 0.33]);
        let a = series(&[1.1, 0.9, 0.4, 2.0, 0.0]);
        let reference = c.pointwise_sub(&a).cumulative(joules(14.849));
        let mut out = vec![999.0; 2]; // stale scratch must be cleared
        c.net_cumulative_into(&a, joules(14.849), &mut out);
        assert_eq!(out.len(), reference.points().len());
        for (f, r) in out.iter().zip(reference.points()) {
            assert_eq!(f.to_bits(), r.to_bits());
        }
    }

    #[test]
    fn residual_allocation_into_is_bit_identical_to_unfused_pipeline() {
        let c = series(&[2.36, 0.7, 0.0, 1.9]);
        let t =
            EnergyTrajectory::from_points(seconds(1.0), vec![10.0, 11.3, 9.05, 9.5, 12.0]).unwrap();
        let (floor, ceil) = (0.2, 1.5);
        let reference = c
            .pointwise_sub(&t.derivative())
            .map(|v| v.clamp(floor, ceil));
        let mut out = vec![999.0; 9];
        t.residual_allocation_into(&c, floor, ceil, &mut out);
        assert_eq!(out.len(), reference.len());
        for (f, r) in out.iter().zip(reference.values()) {
            assert_eq!(f.to_bits(), r.to_bits());
        }
    }

    #[test]
    fn slot_index_boundary() {
        let s = series(&[1.0, 2.0, 3.0]);
        assert_eq!(s.slot_index(seconds(0.0)), 0);
        assert_eq!(s.slot_index(seconds(2.999)), 2);
        assert_eq!(s.slot_index(seconds(3.0)), 0); // wraps
    }
}
