//! One live session: a governed [`ActiveRun`] plus its private recorder
//! and (optionally) an incremental auditor over its own stream.
//!
//! The telemetry contract a session keeps with its client mirrors the
//! live-emitter contract of [`AuditState`]: config gauges first (at
//! open), the event tail after every advance (drained once per stepped
//! slot, so the auditor is never more than one slot behind the run), and
//! the closing counter/gauge lines at close — after which the canonical
//! [`AuditState::finish`] verdict is available immediately.

use dpm_baselines::StaticGovernor;
use dpm_core::alloc::InitialAllocator;
use dpm_core::governor::Governor;
use dpm_core::params::ParetoTable;
use dpm_core::platform::Platform;
use dpm_core::runtime::{DpmController, SafetyConfig, SafetyGovernor};
use dpm_core::series::PowerSeries;
use dpm_core::units::{joules, seconds};
use dpm_sim::prelude::{
    ActiveRun, Disturbance, Recorder, ScheduleGenerator, SimConfig, SimError, Simulation,
    TraceSource,
};
use dpm_telemetry::TraceLine;
use dpm_trace::{quantile, AuditConfig, AuditState, Rollup};
use dpm_workloads::{scenarios, Scenario};
use std::sync::Arc;

use crate::error::ServeError;
use crate::metrics::{SessionMetrics, QUANTILES};
use crate::protocol::SessionSpec;

/// Events a single slot can plausibly emit (sim + controller + safety +
/// broker + disturbances), used to size the session ring so a full-length
/// run keeps every event — the batch document must be complete for the
/// end-of-stream audit's event-count check to stay meaningful.
const EVENTS_PER_SLOT_BUDGET: usize = 8;

/// Ring headroom beyond the per-slot budget (open/close markers, config
/// bursts).
const EVENT_HEADROOM: usize = 64;

/// One of the four campaign governor arms, owned by value so a session
/// is self-contained.
enum SessionArm {
    /// The paper's controller, bare.
    Proposed(Box<DpmController>),
    /// The controller wrapped in the safety governor.
    ProposedSafe(Box<SafetyGovernor<DpmController>>),
    /// Full-power static baseline, bare.
    Static(StaticGovernor),
    /// The static baseline wrapped in the safety governor.
    StaticSafe(Box<SafetyGovernor<StaticGovernor>>),
}

impl SessionArm {
    fn as_governor(&mut self) -> &mut dyn Governor {
        match self {
            Self::Proposed(g) => g.as_mut(),
            Self::ProposedSafe(g) => g.as_mut(),
            Self::Static(g) => g,
            Self::StaticSafe(g) => g.as_mut(),
        }
    }

    fn name(&self) -> String {
        match self {
            Self::Proposed(g) => g.name().to_string(),
            Self::ProposedSafe(g) => g.name().to_string(),
            Self::Static(g) => g.name().to_string(),
            Self::StaticSafe(g) => g.name().to_string(),
        }
    }

    /// `(degradations, shed level, fallback engaged)` — zeros for the
    /// unwrapped arms, which cannot degrade.
    fn degradation(&self) -> (u64, usize, bool) {
        match self {
            Self::ProposedSafe(g) => (g.degradation_count(), g.shed_level(), g.fallback_engaged()),
            Self::StaticSafe(g) => (g.degradation_count(), g.shed_level(), g.fallback_engaged()),
            _ => (0, 0, false),
        }
    }
}

/// What one `advance` produced: progress, the fresh slice of the live
/// stream, and any violations the online auditor flagged while it ran.
pub struct AdvanceOutcome {
    /// Next slot to run (== slots completed).
    pub slot: u64,
    /// Whether the horizon is exhausted.
    pub done: bool,
    /// Fresh event lines, schema-v1 JSONL.
    pub telemetry: Vec<String>,
    /// Rendered online violations (empty when clean or unaudited).
    pub violations: Vec<String>,
}

/// What `close` produced: the canonical audit verdict and the complete
/// batch trace document.
pub struct CloseOutcome {
    /// No violations in the canonical end-of-stream audit (vacuously
    /// true when auditing is off).
    pub audit_ok: bool,
    /// Rendered violations from the canonical audit.
    pub violations: Vec<String>,
    /// Checks the canonical audit performed.
    pub checks: u64,
    /// Jobs the run completed.
    pub jobs_done: u64,
    /// Energy demanded but unavailable (J).
    pub undersupplied_j: f64,
    /// The batch trace document, one JSONL line per entry, meta first.
    pub trace: Vec<String>,
}

/// A live governed run with its own recorder and online auditor.
pub struct Session {
    name: String,
    run: Option<ActiveRun>,
    arm: SessionArm,
    telemetry: Recorder,
    auditor: Option<AuditState>,
    /// Absolute event cursor into the session recorder's ring.
    cursor: u64,
    period_slots: usize,
    /// Streaming rollup over the session's own line stream (window =
    /// one charging period), the source of the metrics-plane quantiles.
    rollup: Rollup,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("name", &self.name)
            .field("open", &self.run.is_some())
            .field("audited", &self.auditor.is_some())
            .field("cursor", &self.cursor)
            .finish()
    }
}

/// Serialize one trace line exactly as `Recorder::to_jsonl` does. The
/// schema types serialize infallibly; the fallback line keeps the
/// stream parseable if that ever changes.
fn encode_line(line: &TraceLine) -> String {
    serde_json::to_string(line).unwrap_or_else(|e| {
        format!("{{\"Gauge\":{{\"name\":\"serve.encode_error:{e}\",\"value\":0.0}}}}")
    })
}

fn find_scenario(name: &str) -> Result<Scenario, ServeError> {
    scenarios::all()
        .into_iter()
        .find(|s| s.name == name)
        .ok_or_else(|| ServeError::UnknownScenario(name.to_string()))
}

/// The scenario's event-rate schedule rotated left by `phase_slots`, so
/// this session's slot `s` carries the base schedule's slot
/// `s + phase_slots` (mod length) — the same convention as the fleet
/// core's phase offsets.
fn rotated_rates(
    scenario: &Scenario,
    platform: &Platform,
    phase_slots: usize,
) -> Result<PowerSeries, ServeError> {
    let base = scenario.event_rates(platform);
    if phase_slots == 0 {
        return Ok(base);
    }
    let values = base.values();
    let n = values.len();
    let rotated: Vec<f64> = (0..n).map(|i| values[(i + phase_slots) % n]).collect();
    PowerSeries::new(platform.tau, rotated).map_err(ServeError::from)
}

fn build_arm(
    spec: &SessionSpec,
    scenario: &Scenario,
    platform: &Arc<Platform>,
    telemetry: &Recorder,
) -> Result<SessionArm, ServeError> {
    match spec.governor.as_str() {
        "proposed" => {
            let alloc = InitialAllocator::new(scenario.allocation_problem(platform))?.compute()?;
            let pareto = Arc::new(ParetoTable::build(platform)?);
            let g = DpmController::with_table(
                Arc::clone(platform),
                &alloc,
                scenario.charging.clone(),
                pareto,
            )?
            .without_trace()
            .with_telemetry(telemetry.clone());
            Ok(SessionArm::Proposed(Box::new(g)))
        }
        "proposed+safe" => {
            let alloc = InitialAllocator::new(scenario.allocation_problem(platform))?.compute()?;
            let pareto = Arc::new(ParetoTable::build(platform)?);
            let inner = DpmController::with_table(
                Arc::clone(platform),
                &alloc,
                scenario.charging.clone(),
                Arc::clone(&pareto),
            )?
            .without_trace()
            .with_telemetry(telemetry.clone());
            let g = SafetyGovernor::with_table(
                inner,
                platform,
                SafetyConfig::default_for(platform),
                pareto,
            )?
            .with_telemetry(telemetry.clone());
            Ok(SessionArm::ProposedSafe(Box::new(g)))
        }
        "static" => Ok(SessionArm::Static(StaticGovernor::full_power(platform)?)),
        "static+safe" => {
            let inner = StaticGovernor::full_power(platform)?;
            let pareto = Arc::new(ParetoTable::build(platform)?);
            let g = SafetyGovernor::with_table(
                inner,
                platform,
                SafetyConfig::default_for(platform),
                pareto,
            )?
            .with_telemetry(telemetry.clone());
            Ok(SessionArm::StaticSafe(Box::new(g)))
        }
        other => Err(ServeError::UnknownGovernor(other.to_string())),
    }
}

/// A client-supplied disturbance must be finite in its time and in every
/// parameter: a non-finite value would otherwise reach the session's
/// trace as a number no JSON reader can parse back.
///
/// # Errors
/// [`SimError::InvalidConfig`] naming the first non-finite value.
pub fn check_disturbance(at_s: f64, disturbance: &Disturbance) -> Result<(), SimError> {
    if !at_s.is_finite() {
        return Err(SimError::InvalidConfig(format!(
            "disturbance time must be finite, got {at_s}"
        )));
    }
    disturbance.validate()
}

impl Session {
    /// Open a session on the PAMA platform: build the governor arm,
    /// schedule the spec's faults, start the run (which emits the config
    /// gauges), and — when `audit` is on — seed the online auditor with
    /// those gauges so window and safety legality are checkable from the
    /// first event.
    ///
    /// # Errors
    /// [`ServeError::UnknownScenario`] / [`ServeError::UnknownGovernor`]
    /// on a bad spec; [`SimError::InvalidConfig`] on a non-finite initial
    /// charge, fault time or fault parameter; construction errors from
    /// the core and simulator layers otherwise.
    pub fn open(name: &str, spec: &SessionSpec, audit: bool) -> Result<Self, ServeError> {
        let scenario = find_scenario(&spec.scenario)?;
        if let Some(j) = spec.initial_charge_j.filter(|j| !j.is_finite()) {
            let msg = format!("initial charge must be finite, got {j}");
            return Err(SimError::InvalidConfig(msg).into());
        }
        for (at_s, disturbance) in &spec.faults {
            check_disturbance(*at_s, disturbance)?;
        }
        let platform = Arc::new(Platform::pama());
        let period_slots = scenario.charging.len();
        let total_slots = spec.periods.saturating_mul(period_slots);
        let capacity = total_slots
            .saturating_mul(EVENTS_PER_SLOT_BUDGET)
            .saturating_add(EVENT_HEADROOM);
        let telemetry = Recorder::with_capacity("serve", capacity);

        let rates = rotated_rates(&scenario, &platform, spec.phase_slots)?;
        let initial_charge = match spec.initial_charge_j {
            Some(j) => joules(j),
            None => scenario.initial_charge,
        };
        let mut sim = Simulation::new(
            Arc::clone(&platform),
            Box::new(TraceSource::new(scenario.charging.clone())),
            Box::new(ScheduleGenerator::new(rates)),
            initial_charge,
            SimConfig {
                periods: spec.periods,
                slots_per_period: period_slots,
                substeps: 8,
                trace: true,
            },
        )?;
        for (at_s, disturbance) in &spec.faults {
            sim.schedule(seconds(*at_s), *disturbance);
        }
        let sim = sim.with_telemetry(telemetry.clone());

        let arm = build_arm(spec, &scenario, &platform, &telemetry)?;
        let run = sim.begin();
        telemetry.event_with_detail(
            "serve.open",
            Some(0),
            0.0,
            &[("total_slots", run.total_slots() as f64)],
            &spec.governor,
        );

        let auditor = if audit {
            let mut state = AuditState::new(AuditConfig::default());
            for gauge in telemetry.gauge_lines() {
                // Config gauges precede all events; fresh violations are
                // impossible here (gauges anchor no online check).
                let _ = state.push(&TraceLine::Gauge(gauge));
            }
            Some(state)
        } else {
            None
        };

        // The rollup windows by charging period and starts from the same
        // config gauges the auditor saw (C_min anchors battery slack).
        let mut rollup = Rollup::new(period_slots as u64);
        for gauge in telemetry.gauge_lines() {
            rollup.push(&TraceLine::Gauge(gauge));
        }

        Ok(Self {
            name: name.to_string(),
            run: Some(run),
            arm,
            telemetry,
            auditor,
            cursor: 0,
            period_slots,
            rollup,
        })
    }

    /// The session name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Horizon in slots.
    pub fn total_slots(&self) -> u64 {
        self.run.as_ref().map_or(0, ActiveRun::total_slots)
    }

    /// Slot width (s).
    pub fn tau_s(&self) -> f64 {
        self.run.as_ref().map_or(0.0, ActiveRun::tau_s)
    }

    /// The config gauge lines recorded so far, schema-v1 JSONL — the
    /// head of the live stream a client should pipe to stream tooling.
    pub fn gauge_telemetry(&self) -> Vec<String> {
        self.telemetry
            .gauge_lines()
            .into_iter()
            .map(|g| encode_line(&TraceLine::Gauge(g)))
            .collect()
    }

    /// The session's recorder (absorbed into the server root at close).
    pub fn recorder(&self) -> &Recorder {
        &self.telemetry
    }

    /// Feed freshly recorded events to the online auditor and render
    /// them for the live stream. Returns `(lines, fresh violations)`.
    fn drain_events(&mut self) -> (Vec<String>, Vec<String>) {
        let (cursor, events) = self.telemetry.events_from(self.cursor);
        self.cursor = cursor;
        let mut lines = Vec::with_capacity(events.len());
        let mut fresh = Vec::new();
        for event in events {
            self.rollup.push_event(&event);
            let line = TraceLine::Event(event);
            if let Some(auditor) = self.auditor.as_mut() {
                for v in auditor.push(&line) {
                    fresh.push(v.to_string());
                }
            }
            lines.push(encode_line(&line));
        }
        if !fresh.is_empty() {
            self.telemetry.incr("serve.violations", fresh.len() as u64);
        }
        (lines, fresh)
    }

    /// Step up to `slots` slots, draining telemetry to the auditor after
    /// every slot so violations surface within one slot of emission.
    ///
    /// # Errors
    /// Propagates simulator step failures; the session stays open.
    pub fn advance(&mut self, slots: u64) -> Result<AdvanceOutcome, ServeError> {
        self.telemetry.incr("serve.advances", 1);
        let mut telemetry = Vec::new();
        let mut violations = Vec::new();
        let mut stepped = 0u64;
        loop {
            let more = match self.run.as_mut() {
                Some(run) if stepped < slots && !run.is_done() => {
                    let more = run.step(self.arm.as_governor())?;
                    stepped += 1;
                    more
                }
                _ => false,
            };
            let (mut lines, mut fresh) = self.drain_events();
            telemetry.append(&mut lines);
            violations.append(&mut fresh);
            if !more || stepped >= slots {
                break;
            }
        }
        self.telemetry.incr("serve.slots_stepped", stepped);
        let (slot, done) = self
            .run
            .as_ref()
            .map_or((0, true), |r| (r.slot(), r.is_done()));
        Ok(AdvanceOutcome {
            slot,
            done,
            telemetry,
            violations,
        })
    }

    /// Replace the event-rate schedule from the next slot on.
    ///
    /// # Errors
    /// Series validation errors for empty or non-finite rates.
    pub fn set_rates(&mut self, rates: Vec<f64>) -> Result<(), ServeError> {
        let tau = seconds(self.tau_s());
        let series = PowerSeries::new(tau, rates)?;
        if let Some(run) = self.run.as_mut() {
            run.set_events(Box::new(ScheduleGenerator::new(series)));
        }
        self.telemetry.incr("serve.rate_updates", 1);
        Ok(())
    }

    /// Queue a disturbance at absolute sim time `at_s`. The server checks
    /// it with [`check_disturbance`] first.
    pub fn disturb(&mut self, at_s: f64, disturbance: Disturbance) {
        if let Some(run) = self.run.as_mut() {
            run.schedule(seconds(at_s), disturbance);
        }
        self.telemetry.incr("serve.disturbances", 1);
    }

    /// `(next slot, workers, freq MHz, backlog)` from the last completed
    /// slot (zeros before the first).
    pub fn plan(&self) -> (u64, u64, f64, u64) {
        let Some(run) = self.run.as_ref() else {
            return (0, 0, 0.0, 0);
        };
        let (workers, freq) = run
            .slot_records()
            .last()
            .map_or((0, 0.0), |r| (r.workers as u64, r.freq_mhz));
        (run.slot(), workers, freq, run.backlog() as u64)
    }

    /// `(level, c_min, c_max, forecast over one charging period)`.
    pub fn battery(&self) -> (f64, f64, f64, Vec<f64>) {
        let Some(run) = self.run.as_ref() else {
            return (0.0, 0.0, 0.0, Vec::new());
        };
        let (c_min, c_max) = run.battery_limits_j();
        (
            run.battery_level_j(),
            c_min,
            c_max,
            run.forecast_battery_j(self.period_slots as u64),
        )
    }

    /// `(degradations, shed level, fallback engaged)`.
    pub fn degradation(&self) -> (u64, usize, bool) {
        self.arm.degradation()
    }

    /// Snapshot this session's metrics-plane row. All values derive
    /// from the deterministic recorder and the sim-time rollup, so the
    /// same request sequence yields a byte-identical row.
    pub fn metrics(&self) -> SessionMetrics {
        let c_min = self.rollup.gauge("sim.c_min_j").unwrap_or(0.0);
        let battery_slack_j = self
            .rollup
            .latest()
            .and_then(|(_, w)| w.histogram("sim.slot.battery_j"))
            .map(|h| {
                QUANTILES
                    .iter()
                    .map(|&(label, q)| (label, quantile(&h, q) - c_min))
                    .collect()
            })
            .unwrap_or_default();
        let replan_horizon_slots = self
            .rollup
            .totals()
            .histogram("core.replan.horizon_slots")
            .map(|h| {
                QUANTILES
                    .iter()
                    .map(|&(label, q)| (label, quantile(&h, q)))
                    .collect()
            })
            .unwrap_or_default();
        SessionMetrics {
            name: self.name.clone(),
            slot: self.run.as_ref().map_or(0, ActiveRun::slot),
            total_slots: self.total_slots(),
            advances: self.telemetry.counter("serve.advances"),
            slots_stepped: self.telemetry.counter("serve.slots_stepped"),
            violations: self.telemetry.counter("serve.violations"),
            rate_updates: self.telemetry.counter("serve.rate_updates"),
            disturbances: self.telemetry.counter("serve.disturbances"),
            replans: self.rollup.totals().count("core.replan"),
            windows: self.rollup.windows().count() as u64,
            battery_j: self.rollup.totals().last("sim.slot.battery_j"),
            battery_slack_j,
            replan_horizon_slots,
        }
    }

    /// Feed one raw trace line to the **auditor only**; the recorder is
    /// untouched, so the session's own trace stays exactly what the run
    /// emitted. Returns fresh violations the line triggered.
    ///
    /// # Errors
    /// [`ServeError::BadRequest`] when the line is not schema-v1 JSONL.
    pub fn inject(&mut self, line: &str) -> Result<Vec<String>, ServeError> {
        let parsed: TraceLine = serde_json::from_str(line)
            .map_err(|e| ServeError::BadRequest(format!("inject: {e}")))?;
        let mut fresh = Vec::new();
        if let Some(auditor) = self.auditor.as_mut() {
            for v in auditor.push(&parsed) {
                fresh.push(v.to_string());
            }
        }
        if !fresh.is_empty() {
            self.telemetry.incr("serve.violations", fresh.len() as u64);
        }
        Ok(fresh)
    }

    /// Close the session: finish the run (emitting the closing counters
    /// and gauges), stream the remaining lines into the auditor, take
    /// the canonical end-of-stream verdict, and return the complete
    /// batch document.
    pub fn close(&mut self) -> CloseOutcome {
        let governor = self.arm.name();
        let report = self.run.take().map(|run| {
            self.telemetry.event_with_detail(
                "serve.close",
                Some(run.slot()),
                run.slot() as f64 * run.tau_s(),
                &[],
                &governor,
            );
            run.finish(&governor)
        });

        // Tail events (serve.close, any finish-time emissions) reach the
        // auditor before the closing counter/gauge lines, preserving the
        // live-emitter ordering contract.
        let (_, mut violations) = self.drain_events();

        let snapshot = self.telemetry.snapshot();
        let mut trace = Vec::with_capacity(snapshot.len());
        for line in &snapshot {
            // Events were already pushed incrementally; pushing them
            // again would double the auditor's body count (and the
            // rollup's).
            if !matches!(line, TraceLine::Event(_)) {
                if let Some(auditor) = self.auditor.as_mut() {
                    for v in auditor.push(line) {
                        violations.push(v.to_string());
                    }
                }
                self.rollup.push(line);
            }
            trace.push(encode_line(line));
        }

        let (audit_ok, checks) = match self.auditor.as_ref() {
            Some(auditor) => {
                let verdict = auditor.finish();
                for v in &verdict.violations {
                    let rendered = v.to_string();
                    if !violations.contains(&rendered) {
                        violations.push(rendered);
                    }
                }
                (verdict.violations.is_empty(), verdict.checks as u64)
            }
            None => (true, 0),
        };

        let (jobs_done, undersupplied_j) =
            report.map_or((0, 0.0), |r| (r.jobs_done, r.undersupplied));
        CloseOutcome {
            audit_ok,
            violations,
            checks,
            jobs_done,
            undersupplied_j,
            trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::SessionSpec;
    use dpm_trace::{audit, Trace};

    fn spec(governor: &str, periods: usize) -> SessionSpec {
        SessionSpec::plain("scenario-1", governor, periods)
    }

    #[test]
    fn a_session_runs_to_the_horizon_and_audits_green() {
        let mut s = Session::open("t0", &spec("proposed+safe", 1), true).expect("open");
        let total = s.total_slots();
        assert!(total > 0);
        let out = s.advance(total + 5).expect("advance");
        assert!(out.done);
        assert_eq!(out.slot, total);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(!out.telemetry.is_empty());
        let closed = s.close();
        assert!(closed.audit_ok, "{:?}", closed.violations);
        assert!(closed.checks > 0);

        // The returned document is a complete, parseable batch trace
        // whose whole-file audit agrees with the live verdict.
        let doc = closed.trace.join("\n");
        let trace = Trace::parse(&doc).expect("batch document parses");
        let report = audit(&trace, &AuditConfig::default());
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn every_governor_arm_opens() {
        for g in ["proposed", "proposed+safe", "static", "static+safe"] {
            let mut s = Session::open("t", &spec(g, 1), true).expect(g);
            let out = s.advance(2).expect("advance");
            assert_eq!(out.slot, 2, "{g}");
            assert!(out.violations.is_empty(), "{g}: {:?}", out.violations);
        }
    }

    #[test]
    fn unknown_names_are_typed_errors() {
        let err = Session::open("t", &SessionSpec::plain("no-such", "static", 1), false)
            .expect_err("scenario");
        assert!(matches!(err, ServeError::UnknownScenario(_)));
        let err = Session::open("t", &SessionSpec::plain("scenario-1", "turbo", 1), false)
            .expect_err("governor");
        assert!(matches!(err, ServeError::UnknownGovernor(_)));
    }

    #[test]
    fn queries_reflect_the_live_run() {
        let mut s = Session::open("t", &spec("proposed+safe", 1), false).expect("open");
        s.advance(3).expect("advance");
        let (slot, _workers, freq, _backlog) = s.plan();
        assert_eq!(slot, 3);
        assert!(freq >= 0.0);
        let (level, c_min, c_max, forecast) = s.battery();
        assert!(level >= c_min && level <= c_max);
        assert_eq!(forecast.len(), s.period_slots);
        let (degradations, shed, fallback) = s.degradation();
        assert!(
            shed == 0 || degradations > 0,
            "a nonzero shed level requires a recorded transition"
        );
        assert!(
            !fallback || degradations > 0,
            "engaging the fallback is itself a transition"
        );
    }

    #[test]
    fn injected_corruption_is_flagged_within_the_push() {
        let mut s = Session::open("t", &spec("static", 1), true).expect("open");
        s.advance(2).expect("advance");
        // A sequence regression in the session scope: seq 0 again.
        let bad = "{\"Event\":{\"seq\":0,\"scope\":\"\",\"name\":\"inject.corrupt\",\
                   \"slot\":null,\"time\":0.0,\"fields\":[],\"detail\":null}}";
        let fresh = s.inject(bad).expect("inject parses");
        assert!(
            !fresh.is_empty(),
            "seq regression must be flagged immediately"
        );
    }

    #[test]
    fn mid_run_rate_updates_and_disturbances_apply() {
        let mut s = Session::open("t", &spec("proposed+safe", 1), true).expect("open");
        s.advance(2).expect("advance");
        s.set_rates(vec![0.5; 4]).expect("rates");
        s.disturb(s.tau_s() * 4.0, Disturbance::EventBurst { count: 3 });
        let total = s.total_slots();
        let out = s.advance(total).expect("advance");
        assert!(out.done);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        let closed = s.close();
        assert!(closed.audit_ok, "{:?}", closed.violations);
    }

    #[test]
    fn phase_rotation_changes_the_rate_schedule_not_its_mass() {
        let scenario = find_scenario("scenario-1").expect("scenario");
        let platform = Platform::pama();
        let base = rotated_rates(&scenario, &platform, 0).expect("base");
        let shifted = rotated_rates(&scenario, &platform, 3).expect("shifted");
        let sum = |s: &PowerSeries| s.values().iter().sum::<f64>();
        assert!((sum(&base) - sum(&shifted)).abs() < 1e-12);
        let n = base.values().len();
        assert_eq!(base.values()[3 % n], shifted.values()[0]);
    }
}
