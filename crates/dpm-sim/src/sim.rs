//! The governed simulation: environment + battery + board + governor,
//! advanced slot by slot — exactly the §4.3 feedback loop.
//!
//! Each `τ` the governor is shown what actually happened (energy used,
//! energy supplied, battery level, backlog) and commands an operating
//! point. The board itself is a one-board [`crate::fleet::FleetState`]:
//! the same slot body the open-loop fleet runs, fed here by the live
//! charging source, event generator and disturbance queue, and
//! integrating supply and demand over `substeps` sub-intervals so
//! charging edges and brown-outs land at the right times. Around that
//! body [`ActiveRun::step`] runs the per-slot adapters: the gauge reading,
//! the governor's decision, the topology's grant, telemetry and the
//! [`SlotRecord`].
//!
//! ## Fault injection
//!
//! [`Disturbance`]s scheduled through [`Simulation::schedule`] perturb a
//! run mid-flight: supply scaling and total charging dropouts, event
//! storms, fail-stop processor faults (and their recoveries), permanent
//! battery capacity fades, and battery-gauge sensor faults. The sensor
//! faults corrupt only what the governor *observes*
//! ([`SlotObservation::battery`] comes from the [`ChargeSensor`] gauge);
//! the physical battery keeps its true level, so a governor that trusts a
//! lying gauge mismanages a perfectly healthy pack — exactly the failure
//! class a `SafetyGovernor` guard band is designed to bound.

use crate::battery::BatteryConfig;
use crate::board::Timed;
use crate::engine::EventQueue;
use crate::error::SimError;
use crate::events::EventGenerator;
use crate::fleet::{FleetState, SlotFeed};
use crate::meter::ChargeSensor;
use crate::source::ChargingSource;
use crate::stats::{SimReport, SlotRecord};
use crate::topo::{Rails, TopologyMode, TopologyRuntime};
use dpm_core::governor::{Governor, SlotObservation};
use dpm_core::params::OperatingPoint;
use dpm_core::platform::Platform;
use dpm_core::units::{joules, seconds, Joules, Seconds};
use dpm_telemetry::Recorder;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Punctual mid-run disturbances (failure injection).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Disturbance {
    /// Scale the supply by `factor` for `duration` (cloud cover, panel
    /// fault, attitude excursion).
    SupplyScale {
        /// Multiplier applied to the source output.
        factor: f64,
        /// How long the scaling lasts.
        duration: Seconds,
    },
    /// Inject `count` extra events at once (a storm passage).
    EventBurst {
        /// Number of events injected.
        count: usize,
    },
    /// The charging path delivers nothing for `duration` (harness
    /// disconnect, eclipse excursion, blown charge regulator). Unlike
    /// `SupplyScale { factor: 0.0, .. }` it composes with an active scale
    /// — a later scale event does not cancel the dropout.
    ChargingDropout {
        /// How long the supply is fully cut.
        duration: Seconds,
    },
    /// Fail-stop fault on processor `index`: the chip drops to its standby
    /// floor, contributes no throughput, and ignores governor commands
    /// until a matching [`Disturbance::ProcessorRecover`].
    ProcessorFault {
        /// Board index of the chip (0 is the controller).
        index: usize,
    },
    /// Clear a fail-stop fault on processor `index`; the chip rejoins in
    /// standby and wakes at the next governor command.
    ProcessorRecover {
        /// Board index of the chip.
        index: usize,
    },
    /// Permanently derate the battery's usable window:
    /// `C_max ← C_min + factor·(C_max − C_min)` (see
    /// [`crate::battery::kernel::fade`]). Fades compose multiplicatively.
    BatteryFade {
        /// Remaining fraction of the capacity window, clamped to `[0, 1]`.
        factor: f64,
    },
    /// The battery gauge reads with ±`amplitude` relative error for
    /// `duration`, deterministically seeded — physics is untouched.
    SensorNoise {
        /// Relative error bound (0.2 = ±20%).
        amplitude: f64,
        /// How long the gauge stays noisy.
        duration: Seconds,
        /// Seed for the per-reading error hash.
        seed: u64,
    },
    /// The battery gauge freezes at its next reading for `duration`.
    SensorStuck {
        /// How long the gauge stays frozen.
        duration: Seconds,
    },
    /// Fail-stop fault on power element `element` of the attached
    /// topology (see [`crate::topo`]); a no-op when the run has none.
    /// Broker governance cascades dependents to a legal degraded
    /// configuration; flat governance keeps dependents powered (and
    /// impaired) above the dead provider.
    ElementFault {
        /// Element index in [`crate::topo::pama_topology`] order.
        element: usize,
    },
    /// Clear an element fault; the broker restores in dependency order
    /// after dwell hysteresis, flat governance repowers at the next slot.
    ElementRecover {
        /// Element index in [`crate::topo::pama_topology`] order.
        element: usize,
    },
}

impl Disturbance {
    /// Check that every real-valued parameter is finite. A service that
    /// accepts disturbances from clients calls this at its boundary: a
    /// non-finite factor or duration would otherwise reach the trace as
    /// a value no JSON reader can parse back.
    ///
    /// # Errors
    /// [`SimError::InvalidConfig`] naming the first non-finite parameter.
    pub fn validate(&self) -> Result<(), SimError> {
        match self.traced().1.into_iter().find(|(_, v)| !v.is_finite()) {
            Some((name, v)) => Err(SimError::InvalidConfig(format!(
                "disturbance {name} must be finite, got {v}"
            ))),
            None => Ok(()),
        }
    }

    /// The kind and the parameters a `sim.disturbance` event carries.
    fn traced(&self) -> (&'static str, Vec<(&'static str, f64)>) {
        match *self {
            Self::SupplyScale { factor, duration } => (
                "SupplyScale",
                vec![("factor", factor), ("duration_s", duration.value())],
            ),
            Self::EventBurst { count } => ("EventBurst", vec![("count", count as f64)]),
            Self::ChargingDropout { duration } => {
                ("ChargingDropout", vec![("duration_s", duration.value())])
            }
            Self::ProcessorFault { index } => ("ProcessorFault", vec![("index", index as f64)]),
            Self::ProcessorRecover { index } => ("ProcessorRecover", vec![("index", index as f64)]),
            Self::BatteryFade { factor } => ("BatteryFade", vec![("factor", factor)]),
            Self::SensorNoise {
                amplitude,
                duration,
                ..
            } => (
                "SensorNoise",
                vec![("amplitude", amplitude), ("duration_s", duration.value())],
            ),
            Self::SensorStuck { duration } => {
                ("SensorStuck", vec![("duration_s", duration.value())])
            }
            Self::ElementFault { element } => ("ElementFault", vec![("element", element as f64)]),
            Self::ElementRecover { element } => {
                ("ElementRecover", vec![("element", element as f64)])
            }
        }
    }
}

/// Run configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Charging periods to simulate.
    pub periods: usize,
    /// Governor slots per period (the paper: 12).
    pub slots_per_period: usize,
    /// Integration sub-steps per slot.
    pub substeps: usize,
    /// Keep the per-slot trace in the report.
    pub trace: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            periods: 2,
            slots_per_period: 12,
            substeps: 8,
            trace: true,
        }
    }
}

/// The assembled simulation.
pub struct Simulation {
    platform: Arc<Platform>,
    source: Box<dyn ChargingSource>,
    events: Box<dyn EventGenerator>,
    /// The board: a one-board engine that keeps job arrival times.
    board: FleetState<Timed>,
    sensor: ChargeSensor,
    disturbances: EventQueue<Disturbance>,
    config: SimConfig,
    /// Power-topology governance (none by default — the classic flat
    /// board with no element structure at all).
    topology: Option<TopologyRuntime>,
    /// Last battery reading the governor saw; re-served while the gauge's
    /// power-element chain is dark (stale-gauge semantics).
    last_gauge: Joules,
    /// Telemetry sink (disabled by default): per-slot battery/energy
    /// events, disturbance events, end-of-run gauges.
    telemetry: Recorder,
}

impl Simulation {
    /// Assemble a simulation with an ideal battery at `initial_charge`.
    ///
    /// # Errors
    /// [`SimError::InvalidConfig`] on a degenerate run configuration or a
    /// platform with more than 32 chips, [`SimError::Core`] on an invalid
    /// platform.
    pub fn new(
        platform: impl Into<Arc<Platform>>,
        source: Box<dyn ChargingSource>,
        events: Box<dyn EventGenerator>,
        initial_charge: Joules,
        config: SimConfig,
    ) -> Result<Self, SimError> {
        let platform = platform.into();
        let board = FleetState::single(
            Arc::clone(&platform),
            config.periods,
            config.slots_per_period,
            config.substeps,
            BatteryConfig::ideal(platform.battery),
            initial_charge,
        )?;
        Ok(Self {
            platform,
            source,
            events,
            board,
            sensor: ChargeSensor::new(),
            disturbances: EventQueue::new(),
            config,
            topology: None,
            last_gauge: initial_charge,
            telemetry: Recorder::disabled(),
        })
    }

    /// Attach a telemetry recorder. Every slot emits a `sim.slot` event
    /// (battery, energy flows, backlog, at simulated time), disturbances
    /// emit `sim.disturbance` events as they fire, and the run's closing
    /// balances land as `sim.*` gauges. All of it is stamped with
    /// simulated time only, so the trace stays deterministic.
    #[must_use = "builders return a new simulation rather than mutating in place"]
    pub fn with_telemetry(mut self, telemetry: Recorder) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Attach a power-element topology (see [`crate::topo`]). Worker
    /// commands are reconciled against element faults every slot; in
    /// [`TopologyMode::Broker`] a governor whose fallback budget is
    /// exhausted triggers an orderly terminal shutdown. Call *after*
    /// [`with_telemetry`](Self::with_telemetry) so the `broker.*` stream
    /// lands in the same trace.
    ///
    /// # Errors
    /// Propagates topology construction errors as [`SimError::Broker`].
    #[must_use = "builders return a new simulation rather than mutating in place"]
    pub fn with_topology(mut self, mode: TopologyMode) -> Result<Self, SimError> {
        self.topology = Some(TopologyRuntime::new(mode, self.telemetry.clone())?);
        Ok(self)
    }

    /// Use a non-ideal battery.
    ///
    /// # Errors
    /// [`SimError::BatteryMisconfigured`] or [`SimError::Core`] when
    /// [`BatteryConfig::validate`] rejects the cell.
    #[must_use = "builders return a new simulation rather than mutating in place"]
    pub fn with_battery(
        mut self,
        config: BatteryConfig,
        initial: Joules,
    ) -> Result<Self, SimError> {
        self.board = FleetState::single(
            Arc::clone(&self.platform),
            self.config.periods,
            self.config.slots_per_period,
            self.config.substeps,
            config,
            initial,
        )?;
        Ok(self)
    }

    /// Schedule a disturbance at absolute time `t`.
    pub fn schedule(&mut self, t: Seconds, d: Disturbance) {
        self.disturbances.schedule(t, d);
    }

    /// Start the run: emit the run-config gauges (the audit anchors) and
    /// hand back an [`ActiveRun`] that steps one τ slot at a time. The
    /// batch [`Simulation::run`] is a thin loop over this, so a stepped
    /// run produces a byte-identical trace and the same report.
    pub fn begin(self) -> ActiveRun {
        let initial_battery = self.board.level(0);
        if self.telemetry.is_enabled() {
            // The audit anchors: the capacity window the trajectory must
            // stay inside (fades only ever *shrink* C_max below this), the
            // starting level the energy balance is taken from, and whether
            // this battery's accounting closes exactly (see
            // `BatteryConfig::conserves_energy`).
            let (c_min, c_max) = self.board.window(0);
            self.telemetry.gauge("sim.c_min_j", c_min);
            self.telemetry.gauge("sim.c_max_j", c_max);
            self.telemetry
                .gauge("sim.initial_battery_j", initial_battery);
            self.telemetry.gauge(
                "sim.energy_conserving",
                if self.board.conserves_energy() {
                    1.0
                } else {
                    0.0
                },
            );
        }
        ActiveRun {
            sim: self,
            initial_battery,
            used_last: Joules::ZERO,
            supplied_last: Joules::ZERO,
            slots: Vec::new(),
            next_slot: 0,
            started: std::time::Instant::now(),
        }
    }

    /// Run to completion under `governor`.
    ///
    /// # Errors
    /// Propagates the governor's [`dpm_core::error::DpmError`] as
    /// [`SimError::Core`]; the report of the slots already simulated is
    /// lost (a failed run has no meaningful metrics).
    pub fn run(self, governor: &mut dyn Governor) -> Result<SimReport, SimError> {
        let mut run = self.begin();
        while run.step(governor)? {}
        Ok(run.finish(governor.name()))
    }
}

/// Trace a disturbance as it fires, stamped with its scheduled time and
/// its kind as the event detail.
fn emit_disturbance(telemetry: &Recorder, at: Seconds, d: &Disturbance) {
    if !telemetry.is_enabled() {
        return;
    }
    let (kind, fields) = d.traced();
    telemetry.event_with_detail("sim.disturbance", None, at.value(), &fields, kind);
    telemetry.incr("sim.disturbances", 1);
}

/// A governed run's sub-step inputs: the live charging source and event
/// generator, and the disturbance queue, whose gauge and element faults
/// land on the run's [`ChargeSensor`] and [`TopologyRuntime`]. Every
/// disturbance is traced as it fires, before it takes effect.
struct LiveFeed<'a> {
    source: &'a dyn ChargingSource,
    events: &'a mut Box<dyn EventGenerator>,
    disturbances: &'a mut EventQueue<Disturbance>,
    sensor: &'a mut ChargeSensor,
    topology: Option<&'a mut TopologyRuntime>,
    telemetry: &'a Recorder,
}

impl SlotFeed for LiveFeed<'_> {
    fn supply_j(&mut self, _b: usize, _g: usize, t: f64, dt: f64) -> f64 {
        (self.source.mean_power(seconds(t), seconds(dt)) * seconds(dt)).value()
    }

    fn arrivals(&mut self, _b: usize, _g: usize, t: f64, dt: f64) -> usize {
        self.events.arrivals(seconds(t), seconds(dt))
    }

    fn next_due(&mut self, _b: usize, bound: f64) -> Option<(f64, Disturbance)> {
        let (at, d) = self.disturbances.pop_before(seconds(bound))?;
        emit_disturbance(self.telemetry, at, &d);
        Some((at.value(), d))
    }

    fn edge(&mut self, _b: usize, at: f64, d: Disturbance) -> Option<Rails> {
        match d {
            Disturbance::SensorNoise {
                amplitude,
                duration,
                seed,
            } => self
                .sensor
                .inject_noise(amplitude, seconds(at + duration.value()), seed),
            Disturbance::SensorStuck { duration } => {
                self.sensor.inject_stuck(seconds(at + duration.value()));
            }
            Disturbance::ElementFault { element } => {
                let topology = self.topology.as_deref_mut()?;
                topology.fault(element, seconds(at));
                return Some(topology.rails());
            }
            Disturbance::ElementRecover { element } => {
                if let Some(topology) = self.topology.as_deref_mut() {
                    topology.recover(element, seconds(at));
                }
            }
            _ => {}
        }
        None
    }
}

/// A simulation in flight: [`Simulation::begin`] emits the run-config
/// gauges and returns this handle, [`ActiveRun::step`] advances exactly
/// one τ slot under a governor, and [`ActiveRun::finish`] closes the
/// books (end-of-run counters, gauges, [`SimReport`]).
///
/// This is the session-service face of the simulator (`dpm-serve`): a
/// long-running session holds an `ActiveRun`, advances it as requests
/// arrive, injects disturbances and event-rate changes mid-flight, and
/// answers queries from the accessors. Driving `step` to completion and
/// then `finish` is byte-identical — same trace, same report — to the
/// batch [`Simulation::run`], which is itself just this loop.
pub struct ActiveRun {
    sim: Simulation,
    initial_battery: f64,
    used_last: Joules,
    supplied_last: Joules,
    slots: Vec<SlotRecord>,
    next_slot: u64,
    /// Wall clock at `begin`, closing the `sim.run` profiler span in
    /// `finish`. Never reaches the trace — only the span *count* does,
    /// which is identical however the run is driven.
    started: std::time::Instant,
}

impl ActiveRun {
    /// Advance one τ slot under `governor`. Returns `Ok(false)` once the
    /// configured horizon is exhausted (the call is then a no-op).
    ///
    /// Around the board engine's slot body run the gauge reading, the
    /// governor's decision, the topology's grant, telemetry and the
    /// [`SlotRecord`].
    ///
    /// # Errors
    /// Propagates the governor's [`dpm_core::error::DpmError`] as
    /// [`SimError::Core`] and topology errors as [`SimError::Broker`].
    pub fn step(&mut self, governor: &mut dyn Governor) -> Result<bool, SimError> {
        if self.is_done() {
            return Ok(false);
        }
        let slot = self.next_slot;
        let sim = &mut self.sim;
        let t_slot = seconds(slot as f64 * sim.platform.tau.value());
        // The governor sees the *gauge* reading, not ground truth —
        // sensor faults corrupt the observation while the battery's
        // physical level (and the report metrics) stay honest. A dark
        // gauge power-element chain is worse still: the reading
        // freezes at the last value that got through.
        let gauge_live = sim
            .topology
            .as_ref()
            .is_none_or(TopologyRuntime::gauge_powered);
        let reading = if gauge_live {
            sim.sensor.read(t_slot, joules(sim.board.level(0)))
        } else {
            sim.last_gauge
        };
        sim.last_gauge = reading;
        let obs = SlotObservation {
            slot,
            time: t_slot,
            battery: reading,
            used_last: self.used_last,
            supplied_last: self.supplied_last,
            backlog: sim.board.backlog(0),
        };
        let mut point = governor.decide(&obs)?;
        if let Some(topo) = sim.topology.as_mut() {
            let granted = topo.begin_slot(slot, t_slot, point.workers, governor.exhausted())?;
            sim.board.set_rails(0, topo.rails());
            if granted < point.workers {
                // The topology could not power the full command: run
                // what was granted (OFF when nothing was).
                point = if granted == 0 {
                    OperatingPoint::OFF
                } else {
                    OperatingPoint::new(granted, point.frequency, point.voltage)
                };
            }
        }

        let mut feed = LiveFeed {
            source: sim.source.as_ref(),
            events: &mut sim.events,
            disturbances: &mut sim.disturbances,
            sensor: &mut sim.sensor,
            topology: sim.topology.as_mut(),
            telemetry: &sim.telemetry,
        };
        let flows = sim.board.step_board(
            0,
            slot as usize,
            point,
            governor.uses_surplus_energy(),
            &mut feed,
        );

        self.used_last = joules(flows.used);
        self.supplied_last = joules(flows.supplied);
        let books = sim.board.totals(0);
        let (battery, undersupplied) = (books.level, books.undersupplied);
        let backlog = sim.board.backlog(0);
        if sim.telemetry.is_enabled() {
            sim.telemetry.event(
                "sim.slot",
                Some(slot),
                t_slot.value(),
                &[
                    ("battery_j", battery),
                    ("used_j", flows.used),
                    ("supplied_j", flows.supplied),
                    ("undersupplied_j", undersupplied),
                    ("jobs", flows.jobs as f64),
                    ("backlog", backlog as f64),
                ],
            );
            sim.telemetry.observe("sim.battery_j", battery);
            sim.telemetry.observe("sim.slot.used_j", flows.used);
        }
        if sim.config.trace {
            self.slots.push(SlotRecord {
                slot,
                time: t_slot.value(),
                workers: point.workers,
                freq_mhz: point.frequency.mhz(),
                used: flows.used,
                supplied: flows.supplied,
                battery,
                undersupplied,
                jobs: flows.jobs,
                backlog,
            });
        }
        self.next_slot += 1;
        Ok(!self.is_done())
    }

    /// Close the books: end-of-run counters and gauges into the trace,
    /// and the [`SimReport`] over however many slots actually ran (a
    /// session may close early; the accounting covers what happened).
    pub fn finish(self, governor_name: &str) -> SimReport {
        let sim = &self.sim;
        let duration = self.next_slot as f64 * sim.platform.tau.value();
        let books = sim.board.totals(0);
        if sim.telemetry.is_enabled() {
            // Whole-run profiler span, recorded here rather than as an
            // RAII guard in `Simulation::run` so a stepped session run
            // (`begin`/`step`/`finish`) emits the byte-identical trace
            // line. The wall-clock side lands in the `.profile` only.
            let run_wall = self.started.elapsed().as_secs_f64();
            sim.telemetry.record_span_path("sim.run", run_wall);
            sim.telemetry.incr("sim.slots", self.next_slot);
            sim.telemetry.incr("sim.jobs_done", books.jobs_done);
            sim.telemetry.incr("sim.jobs_dropped", books.dropped);
            sim.telemetry.gauge("sim.final_battery_j", books.level);
            sim.telemetry.gauge("sim.wasted_j", books.wasted);
            sim.telemetry
                .gauge("sim.undersupplied_j", books.undersupplied);
            sim.telemetry.gauge("sim.delivered_j", books.delivered);
            sim.telemetry.gauge("sim.offered_j", books.offered);
            sim.telemetry.gauge("sim.rate_loss_j", books.rate_loss);
        }
        let latency = sim.board.latency(0);
        SimReport {
            governor: governor_name.to_string(),
            duration,
            offered: books.offered,
            wasted: books.wasted,
            undersupplied: books.undersupplied,
            delivered: books.delivered,
            compute_energy: books.compute_energy,
            jobs_done: books.jobs_done,
            dropped: books.dropped,
            mean_latency: latency.mean(),
            max_latency: latency.max,
            initial_battery: self.initial_battery,
            final_battery: books.level,
            broker: sim.topology.as_ref().map(TopologyRuntime::stats),
            slots: self.slots,
        }
    }

    /// The next slot to simulate (equals slots completed so far).
    pub fn slot(&self) -> u64 {
        self.next_slot
    }

    /// The configured horizon in slots.
    pub fn total_slots(&self) -> u64 {
        self.sim.board.total_slots() as u64
    }

    /// Whether the configured horizon is exhausted.
    pub fn is_done(&self) -> bool {
        self.next_slot >= self.total_slots()
    }

    /// The slot length τ (s).
    pub fn tau_s(&self) -> f64 {
        self.sim.platform.tau.value()
    }

    /// The battery's true level (J) — ground truth, not the gauge.
    pub fn battery_level_j(&self) -> f64 {
        self.sim.board.level(0)
    }

    /// The battery's current usable window `(C_min, C_max)` in J
    /// (fades shrink `C_max` mid-run).
    pub fn battery_limits_j(&self) -> (f64, f64) {
        self.sim.board.window(0)
    }

    /// Jobs currently queued on the board.
    pub fn backlog(&self) -> usize {
        self.sim.board.backlog(0)
    }

    /// Energy delivered to the board in the last completed slot (J).
    pub fn last_used_j(&self) -> f64 {
        self.used_last.value()
    }

    /// Energy offered by the source in the last completed slot (J).
    pub fn last_supplied_j(&self) -> f64 {
        self.supplied_last.value()
    }

    /// Per-slot records so far (empty when `SimConfig::trace` is off).
    pub fn slot_records(&self) -> &[SlotRecord] {
        &self.slots
    }

    /// Schedule a disturbance mid-run at absolute time `t` — the live
    /// face of [`Simulation::schedule`]. Times already in the past fire
    /// on the next sub-step.
    pub fn schedule(&mut self, t: Seconds, d: Disturbance) {
        self.sim.disturbances.schedule(t, d);
    }

    /// Replace the event generator mid-run (a pushed event-rate update);
    /// takes effect from the next sub-step.
    pub fn set_events(&mut self, events: Box<dyn EventGenerator>) {
        self.sim.events = events;
    }

    /// Deterministic battery forecast: project the level forward
    /// `horizon` slots assuming the source keeps its nominal output (no
    /// future disturbances) and the board keeps drawing what it drew in
    /// the last completed slot, clamped to the usable window. Returns one
    /// projected level per future slot.
    pub fn forecast_battery_j(&self, horizon: u64) -> Vec<f64> {
        let tau = self.sim.platform.tau;
        let (c_min, c_max) = self.battery_limits_j();
        let draw = self.used_last.value();
        let mut level = self.sim.board.level(0);
        let mut out = Vec::with_capacity(horizon as usize);
        for ahead in 0..horizon {
            let t = seconds((self.next_slot + ahead) as f64 * tau.value());
            let offered = (self.sim.source.mean_power(t, tau) * tau)
                .max(Joules::ZERO)
                .value();
            level = (level + offered - draw).clamp(c_min, c_max);
            out.push(level);
        }
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::events::ScheduleGenerator;
    use crate::source::TraceSource;
    use dpm_core::params::OperatingPoint;
    use dpm_core::series::PowerSeries;
    use dpm_core::units::{joules, volts, Hertz};

    /// Always-on governor at a fixed point.
    pub(crate) struct Pinned(pub(crate) OperatingPoint);
    impl Governor for Pinned {
        fn name(&self) -> &str {
            "pinned"
        }
        fn decide(
            &mut self,
            _o: &SlotObservation,
        ) -> Result<OperatingPoint, dpm_core::error::DpmError> {
            Ok(self.0)
        }
    }

    fn charging() -> PowerSeries {
        PowerSeries::new(
            seconds(4.8),
            vec![
                2.36, 2.36, 2.36, 2.36, 2.36, 2.36, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
            ],
        )
        .unwrap()
    }

    fn rates(v: f64) -> PowerSeries {
        PowerSeries::constant(seconds(4.8), 12, v).unwrap()
    }

    /// PAMA under the half-sunlit orbit, `rate` events/s, 8 J to start.
    pub(crate) fn sim(rate: f64) -> Simulation {
        Simulation::new(
            Platform::pama(),
            Box::new(TraceSource::new(charging())),
            Box::new(ScheduleGenerator::new(rates(rate))),
            joules(8.0),
            SimConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn degenerate_config_is_rejected() {
        let cfg = SimConfig {
            periods: 0,
            ..SimConfig::default()
        };
        assert!(matches!(
            Simulation::new(
                Platform::pama(),
                Box::new(TraceSource::new(charging())),
                Box::new(ScheduleGenerator::new(rates(0.2))),
                joules(8.0),
                cfg,
            ),
            Err(SimError::InvalidConfig(_))
        ));
    }

    #[test]
    fn degenerate_config_message_renders_cleanly() {
        let cfg = SimConfig {
            periods: 0,
            ..SimConfig::default()
        };
        let err = Simulation::new(
            Platform::pama(),
            Box::new(TraceSource::new(charging())),
            Box::new(ScheduleGenerator::new(rates(0.2))),
            joules(8.0),
            cfg,
        )
        .err()
        .unwrap();
        // The wrapped literal must not leak its source indentation into
        // the rendered message (a previous version embedded ~17 spaces).
        assert_eq!(
            err.to_string(),
            "invalid simulation config: periods, slots_per_period and substeps \
             must all be >= 1, got 0 / 12 / 8"
        );
    }

    #[test]
    fn broker_topology_sheds_legally_while_flat_burns_power_for_nothing() {
        use crate::topo::EL_RING_A;
        let point = OperatingPoint::new(7, Hertz::from_mhz(80.0), volts(3.3));
        let run = |mode: TopologyMode| {
            let mut s = sim(2.0).with_topology(mode).unwrap();
            s.schedule(
                seconds(10.0),
                Disturbance::ElementFault { element: EL_RING_A },
            );
            s.run(&mut Pinned(point)).unwrap()
        };
        let broker = run(TopologyMode::Broker);
        let flat = run(TopologyMode::Flat);

        let bs = broker.broker.as_ref().unwrap();
        assert_eq!(bs.mode, "broker");
        assert!(bs.cascades >= 1 && bs.revocations >= 4);
        assert_eq!(flat.broker.as_ref().unwrap().mode, "flat");

        // Both arms lose ring-A throughput and drain the same supply, but
        // the flat arm splits its energy across four orphaned chips that
        // draw active power for zero work — far fewer jobs per joule.
        assert!(broker.jobs_done > 0 && flat.jobs_done > 0);
        assert!(
            flat.jobs_done < broker.jobs_done,
            "flat {} jobs vs broker {}",
            flat.jobs_done,
            broker.jobs_done
        );
        assert!(flat.jobs_per_joule() < 0.8 * broker.jobs_per_joule());
    }

    #[test]
    fn element_recovery_restores_the_granted_workers() {
        use crate::topo::EL_RING_A;
        let point = OperatingPoint::new(7, Hertz::from_mhz(80.0), volts(3.3));
        let mut s = sim(2.0).with_topology(TopologyMode::Broker).unwrap();
        s.schedule(
            seconds(10.0),
            Disturbance::ElementFault { element: EL_RING_A },
        );
        s.schedule(
            seconds(40.0),
            Disturbance::ElementRecover { element: EL_RING_A },
        );
        let report = s.run(&mut Pinned(point)).unwrap();
        let bs = report.broker.as_ref().unwrap();
        assert!(bs.restores >= bs.revocations, "{bs:?}");
        assert_eq!(bs.terminal_shutdowns, 0);
        // Late slots run the full 7-worker command again.
        assert_eq!(report.slots.last().unwrap().workers, 7);
    }

    #[test]
    fn off_governor_wastes_most_supply() {
        let report = sim(0.2).run(&mut Pinned(OperatingPoint::OFF)).unwrap();
        // Standby floor ≈ 0.053 W barely dents the 2.36 W supply: the
        // battery fills and most of the rest is wasted.
        assert_eq!(report.jobs_done, 0);
        assert!(report.wasted > 0.5 * report.offered, "{}", report.summary());
    }

    #[test]
    fn full_power_governor_drains_battery() {
        let point = OperatingPoint::new(7, Hertz::from_mhz(80.0), volts(3.3));
        let report = sim(2.0).run(&mut Pinned(point)).unwrap();
        // 4.37 W demand vs ≤2.36 W supply: undersupply is inevitable.
        assert!(report.undersupplied > 0.0, "{}", report.summary());
        assert!(report.jobs_done > 0);
    }

    #[test]
    fn moderate_governor_processes_all_events() {
        let point = OperatingPoint::new(3, Hertz::from_mhz(40.0), volts(3.3));
        // 0.2 events/s·4.8 s·24 slots ≈ 23 events over 2 periods. With
        // race-to-idle the mean draw is only ~0.25 W, well under supply,
        // so everything completes without brown-outs or drops.
        let report = sim(0.2).run(&mut Pinned(point)).unwrap();
        assert!(report.jobs_done >= 20, "{}", report.jobs_done);
        assert_eq!(report.undersupplied, 0.0);
        assert_eq!(report.dropped, 0);
    }

    #[test]
    fn energy_conservation_holds() {
        let point = OperatingPoint::new(3, Hertz::from_mhz(40.0), volts(3.3));
        let report = sim(0.5).run(&mut Pinned(point)).unwrap();
        // offered = wasted + stored_delta + delivered (ideal battery).
        let stored_delta = report.final_battery - 8.0;
        let balance = report.offered - report.wasted - report.delivered - stored_delta;
        assert!(balance.abs() < 1e-6, "imbalance {balance}");
    }

    #[test]
    fn trace_has_one_record_per_slot() {
        let report = sim(0.2).run(&mut Pinned(OperatingPoint::OFF)).unwrap();
        assert_eq!(report.slots.len(), 24);
        assert_eq!(report.slots[5].slot, 5);
        assert!((report.slots[5].time - 24.0).abs() < 1e-9);
    }

    #[test]
    fn supply_disturbance_cuts_offered_energy() {
        let mut with = sim(0.2);
        with.schedule(
            seconds(0.0),
            Disturbance::SupplyScale {
                factor: 0.0,
                duration: seconds(28.8),
            },
        );
        let r_with = with.run(&mut Pinned(OperatingPoint::OFF)).unwrap();
        let r_without = sim(0.2).run(&mut Pinned(OperatingPoint::OFF)).unwrap();
        assert!(
            r_with.offered < 0.8 * r_without.offered,
            "{} vs {}",
            r_with.offered,
            r_without.offered
        );
    }

    #[test]
    fn event_burst_creates_backlog() {
        let mut s = sim(0.0);
        s.schedule(seconds(10.0), Disturbance::EventBurst { count: 40 });
        let report = s
            .run(&mut Pinned(OperatingPoint::new(
                1,
                Hertz::from_mhz(20.0),
                volts(3.3),
            )))
            .unwrap();
        // 40 jobs at ~1 job/4.8 s with ~19 slots remaining: backlog left.
        assert!(report.jobs_done >= 15, "{}", report.jobs_done);
        let last = report.slots.last().unwrap();
        assert!(last.backlog > 0);
    }

    #[test]
    fn charging_dropout_overrides_supply_scaling() {
        let mut s = sim(0.2);
        // A generous scale-up arrives first, then a dropout cuts supply
        // entirely for the rest of the first charging phase.
        s.schedule(
            seconds(0.0),
            Disturbance::SupplyScale {
                factor: 2.0,
                duration: seconds(28.8),
            },
        );
        s.schedule(
            seconds(4.8),
            Disturbance::ChargingDropout {
                duration: seconds(24.0),
            },
        );
        let r = s.run(&mut Pinned(OperatingPoint::OFF)).unwrap();
        // The same scale-up with no dropout: both charging phases at 2×.
        let mut only_scale = sim(0.2);
        only_scale.schedule(
            seconds(0.0),
            Disturbance::SupplyScale {
                factor: 2.0,
                duration: seconds(28.8),
            },
        );
        let r_scale = only_scale.run(&mut Pinned(OperatingPoint::OFF)).unwrap();
        let baseline = sim(0.2).run(&mut Pinned(OperatingPoint::OFF)).unwrap();
        // One doubled slot, five dropped slots, one untouched period:
        // below even the undisturbed supply, and far below scale-only —
        // the dropout beat the concurrent 2× scale.
        assert!(
            r.offered < baseline.offered && r.offered < 0.5 * r_scale.offered,
            "{} vs baseline {} and scale-only {}",
            r.offered,
            baseline.offered,
            r_scale.offered
        );
    }

    #[test]
    fn processor_fault_and_recovery_change_throughput() {
        // A deep backlog keeps the board capacity-limited, and commanding
        // all 7 workers leaves no healthy spares to route around faults.
        let point = OperatingPoint::new(7, Hertz::from_mhz(20.0), volts(3.3));
        let burst = Disturbance::EventBurst { count: 500 };
        let mut s = sim(0.0);
        s.schedule(seconds(0.0), burst);
        let healthy = s.run(&mut Pinned(point)).unwrap();
        // Kill every worker chip for the whole run: zero throughput.
        let mut s = sim(0.0);
        s.schedule(seconds(0.0), burst);
        for index in 1..8 {
            s.schedule(seconds(0.0), Disturbance::ProcessorFault { index });
        }
        let faulted = s.run(&mut Pinned(point)).unwrap();
        assert!(healthy.jobs_done > 0);
        assert_eq!(faulted.jobs_done, 0, "no healthy workers, no jobs");
        // Recovery part-way through restores some capacity.
        let mut s = sim(0.0);
        s.schedule(seconds(0.0), burst);
        for index in 1..8 {
            s.schedule(seconds(0.0), Disturbance::ProcessorFault { index });
            s.schedule(seconds(57.6), Disturbance::ProcessorRecover { index });
        }
        let recovered = s.run(&mut Pinned(point)).unwrap();
        assert!(
            recovered.jobs_done > faulted.jobs_done && recovered.jobs_done < healthy.jobs_done,
            "{} / {} / {}",
            faulted.jobs_done,
            recovered.jobs_done,
            healthy.jobs_done
        );
    }

    #[test]
    fn battery_fade_spills_charge_as_waste() {
        let mut s = sim(0.2);
        // Halve the window while the battery holds 8 J: the excess above
        // the new C_max spills immediately and later charging tops out low.
        s.schedule(seconds(0.1), Disturbance::BatteryFade { factor: 0.25 });
        let r = s.run(&mut Pinned(OperatingPoint::OFF)).unwrap();
        let limits = Platform::pama().battery;
        let faded_cmax = limits.c_min.value() + 0.25 * limits.window().value();
        assert!(
            r.final_battery <= faded_cmax + 1e-9,
            "{} > {}",
            r.final_battery,
            faded_cmax
        );
        let baseline = sim(0.2).run(&mut Pinned(OperatingPoint::OFF)).unwrap();
        assert!(r.wasted > baseline.wasted);
    }

    #[test]
    fn stuck_sensor_lies_to_the_governor_not_the_report() {
        /// Records what it was told about the battery each slot.
        struct Recorder(Vec<f64>);
        impl Governor for Recorder {
            fn name(&self) -> &str {
                "recorder"
            }
            fn decide(
                &mut self,
                o: &SlotObservation,
            ) -> Result<OperatingPoint, dpm_core::error::DpmError> {
                self.0.push(o.battery.value());
                Ok(OperatingPoint::OFF)
            }
        }
        let mut s = sim(0.2);
        s.schedule(
            seconds(0.0),
            Disturbance::SensorStuck {
                duration: seconds(1e9),
            },
        );
        let mut g = Recorder(Vec::new());
        let r = s.run(&mut g).unwrap();
        // Slot 0's observation is taken before the event fires (the slot
        // decision precedes the sub-step loop); the stuck gauge captures
        // its next reading, so slot 1 onward repeats slot 1's value.
        let frozen = g.0[1];
        assert!(
            g.0[2..].iter().all(|b| (b - frozen).abs() < 1e-12),
            "{:?}",
            g.0
        );
        // Physics was untouched: the reported trajectory matches a run
        // with a healthy gauge, even though the governor saw a flat line.
        let clean = sim(0.2).run(&mut Pinned(OperatingPoint::OFF)).unwrap();
        assert!((r.final_battery - clean.final_battery).abs() < 1e-9);
        assert!((r.final_battery - frozen).abs() > 0.1, "gauge really lied");
    }

    #[test]
    fn sensor_noise_is_bounded_and_report_stays_honest() {
        let mut s = sim(0.2);
        s.schedule(
            seconds(0.0),
            Disturbance::SensorNoise {
                amplitude: 0.2,
                duration: seconds(1e9),
                seed: 7,
            },
        );
        let noisy = s.run(&mut Pinned(OperatingPoint::OFF)).unwrap();
        let clean = sim(0.2).run(&mut Pinned(OperatingPoint::OFF)).unwrap();
        // The gauge only affects observations; a pinned governor ignores
        // them, so the physical outcome is identical.
        assert!((noisy.final_battery - clean.final_battery).abs() < 1e-9);
        assert!((noisy.offered - clean.offered).abs() < 1e-9);
    }

    #[test]
    fn trace_undersupply_is_cumulative_and_matches_report() {
        let point = OperatingPoint::new(7, Hertz::from_mhz(80.0), volts(3.3));
        let report = sim(2.0).run(&mut Pinned(point)).unwrap();
        assert!(report.undersupplied > 0.0);
        let mut prev = 0.0;
        for s in &report.slots {
            assert!(
                s.undersupplied + 1e-12 >= prev,
                "undersupply went backwards: {} < {}",
                s.undersupplied,
                prev
            );
            prev = s.undersupplied;
        }
        assert!((prev - report.undersupplied).abs() < 1e-12);
    }

    #[test]
    fn stepped_run_is_byte_identical_to_batch_run() {
        let point = OperatingPoint::new(3, Hertz::from_mhz(40.0), volts(3.3));
        let assemble = || {
            let rec = dpm_telemetry::Recorder::enabled("step-eq");
            let mut s = sim(0.5).with_telemetry(rec.clone());
            s.schedule(
                seconds(10.0),
                Disturbance::SupplyScale {
                    factor: 0.5,
                    duration: seconds(20.0),
                },
            );
            (s, rec)
        };
        let (batch_sim, batch_rec) = assemble();
        let batch_report = batch_sim.run(&mut Pinned(point)).unwrap();

        let (step_sim, step_rec) = assemble();
        let mut g = Pinned(point);
        let mut run = step_sim.begin();
        let mut steps = 0u64;
        while run.step(&mut g).unwrap() {
            steps += 1;
        }
        assert_eq!(steps + 1, run.total_slots());
        assert!(run.is_done());
        // A step past the horizon is a no-op.
        assert!(!run.step(&mut g).unwrap());
        let step_report = run.finish(g.name());

        assert_eq!(batch_rec.to_jsonl(), step_rec.to_jsonl());
        assert_eq!(batch_report.final_battery, step_report.final_battery);
        assert_eq!(batch_report.jobs_done, step_report.jobs_done);
        assert_eq!(batch_report.duration, step_report.duration);
        assert_eq!(batch_report.slots.len(), step_report.slots.len());
    }

    #[test]
    fn active_run_accepts_mid_flight_disturbances_and_rate_changes() {
        let point = OperatingPoint::new(3, Hertz::from_mhz(40.0), volts(3.3));
        let mut g = Pinned(point);
        let mut run = sim(0.0).begin();
        assert_eq!(run.slot(), 0);
        assert!((run.tau_s() - 4.8).abs() < 1e-12);
        for _ in 0..6 {
            run.step(&mut g).unwrap();
        }
        assert_eq!(run.slot(), 6);
        assert_eq!(run.backlog(), 0, "zero-rate generator queued nothing");
        // Live updates: a burst now and a faster arrival schedule.
        run.schedule(
            seconds(run.slot() as f64 * 4.8),
            Disturbance::EventBurst { count: 10 },
        );
        run.set_events(Box::new(ScheduleGenerator::new(rates(2.0))));
        run.step(&mut g).unwrap();
        assert!(run.backlog() > 0, "burst + new rate left a queue");
        assert!(run.last_used_j() > 0.0);
        let (c_min, c_max) = run.battery_limits_j();
        assert!(c_min < c_max);
        let forecast = run.forecast_battery_j(12);
        assert_eq!(forecast.len(), 12);
        assert!(
            forecast.iter().all(|b| (c_min..=c_max).contains(b)),
            "{forecast:?}"
        );
        // Early finish: the books cover the slots that actually ran.
        let completed = run.slot();
        let report = run.finish("pinned");
        assert_eq!(report.slots.len(), completed as usize);
        assert!((report.duration - completed as f64 * 4.8).abs() < 1e-9);
    }

    #[test]
    fn utilization_is_higher_when_sized_to_supply() {
        // A point whose draw roughly matches mean supply (≈1.18 W): 2
        // workers at 80 MHz + controller ≈ 1.64 W, vs a hugely oversized
        // point that browns out, vs off.
        let sized = sim(2.0)
            .run(&mut Pinned(OperatingPoint::new(
                2,
                Hertz::from_mhz(80.0),
                volts(3.3),
            )))
            .unwrap();
        let off = sim(2.0).run(&mut Pinned(OperatingPoint::OFF)).unwrap();
        assert!(sized.utilization() > off.utilization());
        assert!(sized.utilization() > 0.3, "{}", sized.utilization());
    }
}
