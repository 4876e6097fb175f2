//! The invariant engine: replay a trace against everything the paper
//! (and DESIGN.md §9–10) guarantees about a run, and pinpoint the first
//! line that breaks a guarantee as a `(scope, seq, slot)` triple.
//!
//! [`AuditState`] consumes [`TraceLine`]s one at a time (the live
//! `dpm-serve` path), flagging event-anchored violations on the very push
//! that carries them. One canonical pass produces both verdicts: the live
//! one in [`AuditState::finish`] and the batch one in [`audit`], which
//! borrows a parsed [`Trace`], copies no event and skips the online pass.
//!
//! Five invariant families:
//!
//! 1. **Well-formedness** — the meta header's event count matches the
//!    body, and sequence numbers are strictly monotonic within each scope
//!    (the absorb contract).
//! 2. **Battery envelope** — every `sim.slot` event's battery level stays
//!    inside the `[C_min, C_max]` window the run advertised in its
//!    `sim.c_min_j`/`sim.c_max_j` gauges (Algorithm 1's reshape
//!    guarantee), with the remaining slack computed per slot.
//! 3. **Energy conservation** — the per-slot supplied/used streams must
//!    re-add to the end-of-run gauges, and for a battery that advertises
//!    exact accounting (`sim.energy_conserving` = 1) the closing balance
//!    `offered − wasted − rate_loss − delivered − ΔE` must vanish (Eq. 8's
//!    supply/dissipation balance over the period).
//! 4. **Safety-machine legality** — `safety.*` transitions may only move
//!    the degradation level one hysteresis step at a time, retries must
//!    respect the configured backoff dwell, the failure counter must count
//!    consecutively, and an engaged static fallback is terminal.
//!    Cumulative undersupply may never decrease.
//! 5. **Topology legality** — traces that declare a power-element
//!    topology (`broker.element` / `broker.edge`) are replayed level
//!    change by level change: after *every* `broker.level` event no
//!    element may sit powered above what its providers support (which is
//!    also the ordering invariant — a revocation applied provider-first
//!    or a restore applied child-first leaves an illegal intermediate
//!    state and is flagged at that exact event), each change must chain
//!    from the previous level, terminal shutdown must be monotone
//!    (levels only fall) and final (no level events after
//!    `broker.shutdown_complete`), and the `broker.revocations` /
//!    `broker.restores` counters must agree with the event stream.
//!
//! ## Online vs canonical verdicts
//!
//! [`AuditState::push`] returns the violations *newly observable* at that
//! line using everything seen so far; the canonical pass walks each
//! scope's events against the **final** gauge/counter maps and assembles
//! the [`AuditReport`] that [`audit`] and [`AuditState::finish`] both
//! return. The split exists because a batch document serializes gauges
//! *after* events: the online pass can only use config gauges that have
//! already streamed (the live emitter sends them before the first slot),
//! while the canonical pass always sees the final maps. Gauge-anchored
//! checks (stream sums, Eq. 8 closing balance, event censuses) need the
//! end-of-run gauges by construction, so they land in `finish()` — which
//! a live server calls immediately after the closing gauges arrive, still
//! within one slot of their emission.
//!
//! Slot-sum checks are skipped (with a note) when the trace reports
//! dropped events: a saturated ring truncates the per-slot streams, and a
//! sum over a truncated stream would report phantom violations.

use crate::model::{metric_of, split_scoped, Trace};
use dpm_telemetry::{Event, TraceLine, TraceMeta};
use std::collections::BTreeMap;
use std::fmt;

/// Tunables for an audit pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuditConfig {
    /// Absolute tolerance (J) for every energy comparison.
    pub tolerance_j: f64,
}

impl Default for AuditConfig {
    fn default() -> Self {
        Self { tolerance_j: 1e-6 }
    }
}

/// One broken invariant, pinpointed to where it was observed.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Invariant family identifier (`"battery.window"`, …).
    pub invariant: &'static str,
    /// Scope of the offending line (empty for the root scope).
    pub scope: String,
    /// Sequence number of the offending event, when the violation is
    /// anchored to one.
    pub seq: Option<u64>,
    /// Slot of the offending event, when it has one.
    pub slot: Option<u64>,
    /// Human-readable account of what was expected and what was found.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] scope=\"{}\"", self.invariant, self.scope)?;
        match self.seq {
            Some(seq) => write!(f, " seq={seq}")?,
            None => write!(f, " seq=-")?,
        }
        match self.slot {
            Some(slot) => write!(f, " slot={slot}")?,
            None => write!(f, " slot=-")?,
        }
        write!(f, ": {}", self.message)
    }
}

/// The outcome of an audit pass.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AuditReport {
    /// Broken invariants in deterministic discovery order (meta first,
    /// then scopes in sorted order, events in ring order within a scope).
    pub violations: Vec<Violation>,
    /// Non-fatal observations: checks that were skipped and why, minimum
    /// battery slack seen, etc.
    pub notes: Vec<String>,
    /// Scopes that carried at least one auditable signal.
    pub scopes: usize,
    /// Individual comparisons performed.
    pub checks: usize,
}

impl AuditReport {
    /// Whether every invariant held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// The first violation in discovery order, if any.
    pub fn first(&self) -> Option<&Violation> {
        self.violations.first()
    }
}

/// Running minimum battery slack: `(slack, scope, slot)`.
type MinSlack = Option<(f64, String, u64)>;

/// Sequence numbers must be strictly increasing within a scope.
#[derive(Default)]
struct SeqPass {
    prev: Option<u64>,
}

impl SeqPass {
    fn step(&mut self, scope: &str, e: &Event, report: &mut AuditReport) {
        report.checks += 1;
        if let Some(p) = self.prev {
            if e.seq <= p {
                report.violations.push(Violation {
                    invariant: "seq.monotonic",
                    scope: scope.to_string(),
                    seq: Some(e.seq),
                    slot: e.slot,
                    message: format!("sequence number {} follows {} in the same scope", e.seq, p),
                });
            }
        }
        self.prev = Some(e.seq);
    }
}

/// Battery-envelope, slot-order, and undersupply machine over `sim.slot`
/// events of one scope.
#[derive(Default)]
struct SlotPass {
    last_slot: Option<u64>,
    last_under: Option<f64>,
    sum_used: f64,
    sum_supplied: f64,
    last_battery: Option<f64>,
    anchor_seq: Option<u64>,
    anchor_slot: Option<u64>,
}

impl SlotPass {
    /// One `sim.slot` event against the capacity `window` known so far.
    fn step(
        &mut self,
        scope: &str,
        e: &Event,
        window: (Option<f64>, Option<f64>),
        tol: f64,
        report: &mut AuditReport,
        min_slack: &mut MinSlack,
    ) {
        let slot = e.slot;
        self.anchor_seq = Some(e.seq);
        self.anchor_slot = slot;
        // Slot numbers must advance.
        report.checks += 1;
        if let (Some(prev), Some(cur)) = (self.last_slot, slot) {
            if cur <= prev {
                report.violations.push(Violation {
                    invariant: "slot.order",
                    scope: scope.to_string(),
                    seq: Some(e.seq),
                    slot,
                    message: format!("slot {cur} follows slot {prev}"),
                });
            }
        }
        self.last_slot = slot.or(self.last_slot);

        let battery = Trace::field(e, "battery_j");
        match battery {
            None => report.violations.push(Violation {
                invariant: "slot.fields",
                scope: scope.to_string(),
                seq: Some(e.seq),
                slot,
                message: "sim.slot event carries no battery_j field".into(),
            }),
            Some(b) => {
                self.last_battery = Some(b);
                if let (Some(c_min), Some(c_max)) = window {
                    report.checks += 1;
                    let slack = (b - c_min).min(c_max - b);
                    let is_tighter = match min_slack {
                        Some((s, _, _)) => slack < *s,
                        None => true,
                    };
                    if is_tighter {
                        *min_slack = Some((slack, scope.to_string(), slot.unwrap_or(u64::MAX)));
                    }
                    if b < c_min - tol || b > c_max + tol {
                        report.violations.push(Violation {
                            invariant: "battery.window",
                            scope: scope.to_string(),
                            seq: Some(e.seq),
                            slot,
                            message: format!(
                                "battery {b} J outside [{c_min}, {c_max}] J (slack {slack:.6} J)"
                            ),
                        });
                    }
                }
            }
        }

        self.sum_used += Trace::field(e, "used_j").unwrap_or(0.0);
        self.sum_supplied += Trace::field(e, "supplied_j").unwrap_or(0.0);

        if let Some(u) = Trace::field(e, "undersupplied_j") {
            report.checks += 1;
            if let Some(prev) = self.last_under {
                if u + tol < prev {
                    report.violations.push(Violation {
                        invariant: "undersupply.monotonic",
                        scope: scope.to_string(),
                        seq: Some(e.seq),
                        slot,
                        message: format!("cumulative undersupply fell from {prev} J to {u} J"),
                    });
                }
            }
            self.last_under = Some(u);
        }
    }

    /// Slot-stream sums against the end-of-run gauges — only meaningful
    /// when no event was dropped from the ring.
    fn finish(
        &self,
        scope: &str,
        gauges: &BTreeMap<String, f64>,
        tol: f64,
        dropped: u64,
        report: &mut AuditReport,
    ) {
        if dropped > 0 {
            return;
        }
        let anchor_seq = self.anchor_seq;
        let anchor_slot = self.anchor_slot;
        let mut check_sum = |metric: &str, sum: f64, invariant: &'static str| {
            if let Some(gauge) = metric_of(gauges, scope, metric) {
                report.checks += 1;
                if (sum - gauge).abs() > tol {
                    report.violations.push(Violation {
                        invariant,
                        scope: scope.to_string(),
                        seq: anchor_seq,
                        slot: anchor_slot,
                        message: format!(
                            "slot stream sums to {sum} J but the {metric} gauge reads {gauge} J"
                        ),
                    });
                }
            }
        };
        check_sum("sim.delivered_j", self.sum_used, "energy.delivered");
        check_sum("sim.offered_j", self.sum_supplied, "energy.offered");
        if let (Some(last), Some(gauge)) = (
            self.last_battery,
            metric_of(gauges, scope, "sim.final_battery_j"),
        ) {
            report.checks += 1;
            if (last - gauge).abs() > tol {
                report.violations.push(Violation {
                    invariant: "battery.final",
                    scope: scope.to_string(),
                    seq: anchor_seq,
                    slot: anchor_slot,
                    message: format!(
                        "last slot battery {last} J disagrees with sim.final_battery_j {gauge} J"
                    ),
                });
            }
        }
        if let (Some(last), Some(gauge)) = (
            self.last_under,
            metric_of(gauges, scope, "sim.undersupplied_j"),
        ) {
            report.checks += 1;
            if (last - gauge).abs() > tol {
                report.violations.push(Violation {
                    invariant: "undersupply.final",
                    scope: scope.to_string(),
                    seq: anchor_seq,
                    slot: anchor_slot,
                    message: format!(
                        "last slot undersupply {last} J disagrees with sim.undersupplied_j {gauge} J"
                    ),
                });
            }
        }
    }
}

/// Safety-machine state while walking one scope's `safety.*` events.
#[derive(Default)]
struct SafetyPass {
    last_level: Option<f64>,
    consecutive_failures: f64,
    /// `(slot, failures)` of the most recent failure, for the dwell check.
    last_failure: Option<(u64, f64)>,
    fallback_engaged: bool,
    last_slot: Option<u64>,
    events_seen: u64,
}

impl SafetyPass {
    /// One `safety.*` event against the config gauges known so far:
    /// `(shed_step, backoff_slots, max_replan_failures)`.
    fn step(
        &mut self,
        scope: &str,
        e: &Event,
        config: (Option<f64>, Option<f64>, Option<f64>),
        report: &mut AuditReport,
    ) {
        let (shed_step, backoff, max_failures) = config;
        self.events_seen += 1;
        report.checks += 1;

        let fail = |invariant: &'static str, message: String, report: &mut AuditReport| {
            report.violations.push(Violation {
                invariant,
                scope: scope.to_string(),
                seq: Some(e.seq),
                slot: e.slot,
                message,
            });
        };

        // Safety transitions happen at governor decision points; their
        // slots may repeat (several transitions in one slot) but never
        // run backwards.
        if let (Some(prev), Some(cur)) = (self.last_slot, e.slot) {
            if cur < prev {
                fail(
                    "safety.slot_order",
                    format!("transition at slot {cur} follows one at slot {prev}"),
                    report,
                );
            }
        }
        self.last_slot = e.slot.or(self.last_slot);

        let replan_kind = matches!(
            e.name.as_str(),
            "safety.replan_failed" | "safety.replan_recovered" | "safety.fallback_engaged"
        );
        if self.fallback_engaged && replan_kind {
            fail(
                "safety.fallback_terminal",
                format!("{} after the static fallback engaged", e.name),
                report,
            );
        }

        match e.name.as_str() {
            "safety.shed" | "safety.recover" => {
                let (Some(from), Some(to)) =
                    (Trace::field(e, "from_level"), Trace::field(e, "to_level"))
                else {
                    fail(
                        "safety.fields",
                        format!("{} event lacks from_level/to_level", e.name),
                        report,
                    );
                    return;
                };
                if let Some(last) = self.last_level {
                    if from != last {
                        fail(
                            "safety.level_chain",
                            format!("transition starts at level {from} but the previous one ended at {last}"),
                            report,
                        );
                    }
                }
                if e.name == "safety.shed" {
                    let step_cap = shed_step.unwrap_or(f64::INFINITY);
                    if to <= from || to - from > step_cap {
                        fail(
                            "safety.shed_step",
                            format!(
                                "shed moved {from} → {to}; must rise by 1..={step_cap} ranks per slot"
                            ),
                            report,
                        );
                    }
                } else if to != from - 1.0 {
                    fail(
                        "safety.recover_step",
                        format!("recovery moved {from} → {to}; hysteresis relaxes exactly one rank per slot"),
                        report,
                    );
                }
                self.last_level = Some(to);
            }
            "safety.replan_failed" => {
                let Some(failures) = Trace::field(e, "failures") else {
                    fail(
                        "safety.fields",
                        "replan_failed event lacks a failures field".into(),
                        report,
                    );
                    return;
                };
                let expected = self.consecutive_failures + 1.0;
                if failures != expected {
                    fail(
                        "safety.failure_count",
                        format!(
                            "failure counter reads {failures}, expected {expected} (consecutive)"
                        ),
                        report,
                    );
                }
                if let (Some((prev_slot, prev_failures)), Some(b), Some(cur)) =
                    (self.last_failure, backoff, e.slot)
                {
                    let earliest = prev_slot as f64 + 1.0 + b * prev_failures;
                    if (cur as f64) < earliest {
                        fail(
                            "safety.retry_dwell",
                            format!(
                                "inner governor consulted at slot {cur}, before the backoff dwell ends at slot {earliest}"
                            ),
                            report,
                        );
                    }
                }
                self.consecutive_failures = failures;
                if let Some(cur) = e.slot {
                    self.last_failure = Some((cur, failures));
                }
            }
            "safety.replan_recovered" => {
                let after = Trace::field(e, "after").unwrap_or(-1.0);
                if self.consecutive_failures < 1.0 {
                    fail(
                        "safety.recovered_without_failure",
                        "replan recovery with no preceding failure".into(),
                        report,
                    );
                } else if after != self.consecutive_failures {
                    fail(
                        "safety.failure_count",
                        format!(
                            "recovery reports {after} preceding failures, the stream shows {}",
                            self.consecutive_failures
                        ),
                        report,
                    );
                }
                self.consecutive_failures = 0.0;
                self.last_failure = None;
            }
            "safety.fallback_engaged" => {
                let failures = Trace::field(e, "failures").unwrap_or(-1.0);
                if let Some(budget) = max_failures {
                    if failures != budget {
                        fail(
                            "safety.fallback_budget",
                            format!(
                                "fallback engaged after {failures} failures; the configured budget is {budget}"
                            ),
                            report,
                        );
                    }
                }
                self.fallback_engaged = true;
            }
            _ => {}
        }
    }

    /// The degradation counter must agree with the event stream (only
    /// provable when the ring dropped nothing).
    fn finish(
        &self,
        scope: &str,
        counters: &BTreeMap<String, u64>,
        dropped: u64,
        report: &mut AuditReport,
    ) {
        if dropped != 0 {
            return;
        }
        if let Some(counted) = metric_of(counters, scope, "safety.degradations") {
            report.checks += 1;
            if counted != self.events_seen {
                report.violations.push(Violation {
                    invariant: "safety.event_count",
                    scope: scope.to_string(),
                    seq: None,
                    slot: None,
                    message: format!(
                        "safety.degradations counter reads {counted} but {} safety.* events are in the trace",
                        self.events_seen
                    ),
                });
            }
        }
    }
}

/// Power-topology machine for one scope: replay `broker.level` events
/// against the declared `broker.element`/`broker.edge` structure.
#[derive(Default)]
struct BrokerPass {
    /// element index → (max_level, name).
    elements: BTreeMap<u64, (f64, String)>,
    edges: Vec<(u64, u64, f64)>,
    level: BTreeMap<u64, f64>,
    shutdown_started: bool,
    shutdown_complete: bool,
    shutdowns: u64,
    downs: u64,
    ups: u64,
}

impl BrokerPass {
    /// Absorb a `broker.element` / `broker.edge` declaration; other
    /// events are ignored. Declarations make the trace self-describing.
    fn declare(&mut self, e: &Event) {
        match e.name.as_str() {
            "broker.element" => {
                if let Some(idx) = Trace::field(e, "element") {
                    let max = Trace::field(e, "max_level").unwrap_or(1.0);
                    let name = e.detail.clone().unwrap_or_default();
                    self.elements.insert(idx as u64, (max, name));
                    self.level.entry(idx as u64).or_insert(0.0);
                }
            }
            "broker.edge" => {
                if let (Some(c), Some(p)) = (Trace::field(e, "child"), Trace::field(e, "provider"))
                {
                    let req = Trace::field(e, "min_provider_level").unwrap_or(1.0);
                    self.edges.push((c as u64, p as u64, req));
                }
            }
            _ => {}
        }
    }

    /// Replay one `broker.shutdown_*` / `broker.level` event; declaration
    /// events are no-ops here.
    fn replay(&mut self, scope: &str, e: &Event, report: &mut AuditReport) {
        let fail = |invariant: &'static str, message: String, report: &mut AuditReport| {
            report.violations.push(Violation {
                invariant,
                scope: scope.to_string(),
                seq: Some(e.seq),
                slot: e.slot,
                message,
            });
        };
        match e.name.as_str() {
            "broker.shutdown_start" => {
                self.shutdowns += 1;
                report.checks += 1;
                if self.shutdowns > 1 {
                    fail(
                        "broker.shutdown_once",
                        "a second terminal shutdown started; the walk is final".into(),
                        report,
                    );
                }
                self.shutdown_started = true;
            }
            "broker.shutdown_complete" => self.shutdown_complete = true,
            "broker.level" => {
                report.checks += 1;
                let (Some(el), Some(from), Some(to)) = (
                    Trace::field(e, "element"),
                    Trace::field(e, "from"),
                    Trace::field(e, "to"),
                ) else {
                    fail(
                        "broker.fields",
                        "broker.level event lacks element/from/to".into(),
                        report,
                    );
                    return;
                };
                let el = el as u64;
                if self.shutdown_complete {
                    fail(
                        "broker.shutdown_final",
                        "level change after broker.shutdown_complete".into(),
                        report,
                    );
                }
                if self.shutdown_started && to > from {
                    fail(
                        "broker.shutdown_monotone",
                        format!("element {el} rose {from} → {to} during terminal shutdown"),
                        report,
                    );
                }
                match self.elements.get(&el) {
                    None => fail(
                        "broker.unknown_element",
                        format!("level change on undeclared element {el}"),
                        report,
                    ),
                    Some((max, name)) => {
                        if to > *max {
                            fail(
                                "broker.level_range",
                                format!("element {el} ({name}) raised to {to}, above max {max}"),
                                report,
                            );
                        }
                    }
                }
                if let Some(cur) = self.level.get(&el) {
                    if from != *cur {
                        fail(
                            "broker.level_chain",
                            format!(
                                "element {el} change starts at {from} but the replayed level is {cur}"
                            ),
                            report,
                        );
                    }
                }
                if to < from {
                    self.downs += 1;
                } else if to > from {
                    self.ups += 1;
                }
                self.level.insert(el, to);
                // The core invariant, holding after *every* change: no
                // powered element above an under-level provider. This
                // doubles as the ordering check — any provider-first
                // drop or child-first raise trips it mid-reconciliation.
                report.checks += 1;
                for &(child, provider, req) in &self.edges {
                    let cl = self.level.get(&child).copied().unwrap_or(0.0);
                    let pl = self.level.get(&provider).copied().unwrap_or(0.0);
                    if cl >= 1.0 && pl < req {
                        fail(
                            "broker.legality",
                            format!(
                                "element {child} powered at {cl} while provider {provider} sits at {pl} (needs {req})"
                            ),
                            report,
                        );
                    }
                }
            }
            _ => {}
        }
    }

    /// Census: the counters must agree with the replayed stream (only
    /// provable when the ring dropped nothing).
    fn finish(
        &self,
        scope: &str,
        counters: &BTreeMap<String, u64>,
        dropped: u64,
        report: &mut AuditReport,
    ) {
        if dropped != 0 {
            return;
        }
        let mut check = |counter: &str, seen: u64| {
            if let Some(counted) = metric_of(counters, scope, counter) {
                report.checks += 1;
                if counted != seen {
                    report.violations.push(Violation {
                        invariant: "broker.census",
                        scope: scope.to_string(),
                        seq: None,
                        slot: None,
                        message: format!(
                            "{counter} counter reads {counted} but the stream replays {seen}"
                        ),
                    });
                }
            }
        };
        check("broker.revocations", self.downs);
        check("broker.restores", self.ups);
        check("broker.terminal_shutdowns", self.shutdowns);
    }
}

/// Online invariant machines for one scope, fed as lines arrive.
#[derive(Default)]
struct OnlineScope {
    seq: SeqPass,
    slots: SlotPass,
    safety: SafetyPass,
    broker: BrokerPass,
}

/// Everything retained about one scope: the event buffer for the
/// canonical finish pass, plus the live machines.
#[derive(Default)]
struct ScopeState {
    events: Vec<Event>,
    online: OnlineScope,
}

/// Incremental audit engine: push [`TraceLine`]s as they arrive, collect
/// immediate (event-anchored) violations from each push, and call
/// [`AuditState::finish`] for the canonical whole-stream report.
///
/// See the module docs for the online-vs-canonical contract. The online
/// pass uses only the gauges already streamed, so emitters that want live
/// battery-window and safety-config checks must send their config gauges
/// before the first event — which the simulator and `dpm-serve` both do.
pub struct AuditState {
    cfg: AuditConfig,
    /// The advertised header, when one was pushed (batch documents always
    /// carry one first; live streams may append it at close).
    meta: Option<TraceMeta>,
    /// Number of meta lines pushed — a second one is itself a violation.
    meta_lines: u64,
    /// Events pushed so far (the body count the meta must match).
    body_events: u64,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    scopes: BTreeMap<String, ScopeState>,
    /// Every violation the online pass has flagged, in push order.
    online: Vec<Violation>,
    /// Scratch min-slack for the online slot machines (the canonical one
    /// is recomputed in `finish` over sorted scopes).
    online_min_slack: MinSlack,
}

impl AuditState {
    /// A fresh auditor.
    pub fn new(cfg: AuditConfig) -> Self {
        Self {
            cfg,
            meta: None,
            meta_lines: 0,
            body_events: 0,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            scopes: BTreeMap::new(),
            online: Vec::new(),
            online_min_slack: None,
        }
    }

    /// Consume one line; returns the violations that became observable at
    /// exactly this line (empty for a healthy stream). Gauge-anchored
    /// end-of-run checks are deferred to [`AuditState::finish`].
    pub fn push(&mut self, line: &TraceLine) -> Vec<Violation> {
        let mut fresh = AuditReport::default();
        match line {
            TraceLine::Meta(m) => {
                self.meta_lines += 1;
                if self.meta.is_some() {
                    fresh.violations.push(Violation {
                        invariant: "meta.duplicate",
                        scope: String::new(),
                        seq: None,
                        slot: None,
                        message: "a second meta header arrived mid-stream".into(),
                    });
                } else {
                    self.meta = Some(m.clone());
                }
            }
            TraceLine::Event(e) => {
                self.body_events += 1;
                let tol = self.cfg.tolerance_j;
                let window = (
                    metric_of(&self.gauges, &e.scope, "sim.c_min_j"),
                    metric_of(&self.gauges, &e.scope, "sim.c_max_j"),
                );
                let safety_cfg = (
                    metric_of(&self.gauges, &e.scope, "safety.shed_step"),
                    metric_of(&self.gauges, &e.scope, "safety.backoff_slots"),
                    metric_of(&self.gauges, &e.scope, "safety.max_replan_failures"),
                );
                let state = self.scopes.entry(e.scope.clone()).or_default();
                state.online.seq.step(&e.scope, e, &mut fresh);
                if e.name == "sim.slot" {
                    state.online.slots.step(
                        &e.scope,
                        e,
                        window,
                        tol,
                        &mut fresh,
                        &mut self.online_min_slack,
                    );
                } else if e.name.starts_with("safety.") {
                    state
                        .online
                        .safety
                        .step(&e.scope, e, safety_cfg, &mut fresh);
                } else if e.name.starts_with("broker.") {
                    state.online.broker.declare(e);
                    // The replay needs the declared structure; until the
                    // first declaration arrives level events are held for
                    // the canonical pass (which sees the whole buffer).
                    if !state.online.broker.elements.is_empty() {
                        state.online.broker.replay(&e.scope, e, &mut fresh);
                    }
                }
                state.events.push(e.clone());
            }
            TraceLine::Counter(c) => {
                self.counters.insert(c.name.clone(), c.value);
            }
            TraceLine::Gauge(g) => {
                self.gauges.insert(g.name.clone(), g.value);
            }
            TraceLine::Histogram(_) | TraceLine::Span(_) => {}
        }
        self.online.extend(fresh.violations.iter().cloned());
        fresh.violations
    }

    /// Whether the online pass has flagged anything so far.
    pub fn ok_so_far(&self) -> bool {
        self.online.is_empty()
    }

    /// Every violation the online pass has flagged, in push order.
    pub fn online_violations(&self) -> &[Violation] {
        &self.online
    }

    /// Assemble the canonical report: re-walk the retained buffers against
    /// the final gauge/counter maps. Identical to `audit(&trace, &cfg)`
    /// when the pushed lines came from a parsed trace, in any chunking.
    pub fn finish(&self) -> AuditReport {
        let scopes: Vec<(&str, Vec<&Event>)> = self
            .scopes
            .iter()
            .map(|(scope, state)| (scope.as_str(), state.events.iter().collect()))
            .collect();
        canonical_pass(
            self.cfg.tolerance_j,
            &scopes,
            &self.gauges,
            &self.counters,
            self.meta.as_ref(),
            self.meta_lines,
            self.body_events,
        )
    }
}

/// Audit `trace` against every invariant family: the canonical pass run
/// directly over the parsed trace, borrowing its events. Batch mode skips
/// the online pass, whose per-line verdicts are never part of the report.
pub fn audit(trace: &Trace, cfg: &AuditConfig) -> AuditReport {
    let scopes: Vec<(&str, Vec<&Event>)> = trace.events_by_scope().into_iter().collect();
    canonical_pass(
        cfg.tolerance_j,
        &scopes,
        &trace.gauges,
        &trace.counters,
        Some(&trace.meta),
        1,
        trace.events.len() as u64,
    )
}

/// The canonical pass behind [`audit`] and [`AuditState::finish`] over
/// each scope's events in ring order (scopes sorted), the final metric
/// maps, and the header and event line counts of the stream.
fn canonical_pass(
    tol: f64,
    scopes: &[(&str, Vec<&Event>)],
    gauges: &BTreeMap<String, f64>,
    counters: &BTreeMap<String, u64>,
    meta: Option<&TraceMeta>,
    meta_lines: u64,
    body_events: u64,
) -> AuditReport {
    let mut report = AuditReport::default();

    // 1. Meta consistency.
    match meta {
        Some(meta) => {
            report.checks += 1;
            if meta.events != body_events {
                report.violations.push(Violation {
                    invariant: "meta.events",
                    scope: String::new(),
                    seq: None,
                    slot: None,
                    message: format!(
                        "meta advertises {} events but the body holds {body_events}",
                        meta.events
                    ),
                });
            }
        }
        None => report
            .notes
            .push("no meta header seen — event-count check skipped".to_string()),
    }
    if meta_lines > 1 {
        report.violations.push(Violation {
            invariant: "meta.duplicate",
            scope: String::new(),
            seq: None,
            slot: None,
            message: format!("{meta_lines} meta headers in one stream"),
        });
    }
    let dropped = meta.map_or(0, |m| m.dropped);
    if dropped > 0 {
        report.notes.push(format!(
            "{dropped} events were dropped at the ring capacity: slot-sum and event-count checks skipped"
        ));
    }

    report.scopes = scopes.len();
    let mut min_slack: MinSlack = None;

    for (scope, events) in scopes {
        // Sequence monotonicity over every event.
        let mut seq = SeqPass::default();
        for e in events {
            seq.step(scope, e, &mut report);
        }

        // Battery envelope / slot order / undersupply.
        if events.iter().any(|e| e.name == "sim.slot") {
            let window = (
                metric_of(gauges, scope, "sim.c_min_j"),
                metric_of(gauges, scope, "sim.c_max_j"),
            );
            if window.0.is_none() || window.1.is_none() {
                report.notes.push(format!(
                    "scope \"{scope}\": no sim.c_min_j/sim.c_max_j gauges — battery-window check skipped"
                ));
            }
            let mut slots = SlotPass::default();
            for e in events.iter().filter(|e| e.name == "sim.slot") {
                slots.step(scope, e, window, tol, &mut report, &mut min_slack);
            }
            slots.finish(scope, gauges, tol, dropped, &mut report);
        }

        // Safety-machine legality.
        let safety_cfg = (
            metric_of(gauges, scope, "safety.shed_step"),
            metric_of(gauges, scope, "safety.backoff_slots"),
            metric_of(gauges, scope, "safety.max_replan_failures"),
        );
        let mut safety = SafetyPass::default();
        for e in events.iter().filter(|e| e.name.starts_with("safety.")) {
            safety.step(scope, e, safety_cfg, &mut report);
        }
        safety.finish(scope, counters, dropped, &mut report);

        // Topology legality: collect every declaration first (the batch
        // contract — declarations anywhere in the stream apply to the
        // whole replay), then walk the level changes.
        let broker_events: Vec<&Event> = events
            .iter()
            .copied()
            .filter(|e| e.name.starts_with("broker."))
            .collect();
        let mut broker = BrokerPass::default();
        for e in &broker_events {
            broker.declare(e);
        }
        if !broker.elements.is_empty() {
            for e in &broker_events {
                broker.replay(scope, e, &mut report);
            }
            broker.finish(scope, counters, dropped, &mut report);
        } else if broker_events.iter().any(|e| e.name == "broker.level") {
            report.notes.push(format!(
                "scope \"{scope}\": broker.level events without broker.element declarations — legality replay skipped"
            ));
        }
    }

    // Gauge-only closing balance, independent of the event ring.
    audit_energy_balance(gauges, tol, &mut report);

    if let Some((slack, scope, slot)) = min_slack {
        report.notes.push(format!(
            "minimum battery slack to the window edge: {slack:.6} J (scope \"{scope}\", slot {slot})"
        ));
    }
    report
}

/// Closing energy balance from gauges alone (Eq. 8 over the whole run):
/// `offered − wasted − rate_loss − delivered − (final − initial) ≈ 0`,
/// for every scope that advertises exact accounting.
fn audit_energy_balance(gauges: &BTreeMap<String, f64>, tol: f64, report: &mut AuditReport) {
    // Enumerate scopes from the gauge map so the check also covers scopes
    // whose events were dropped from the ring.
    let mut scopes: BTreeMap<&str, ()> = BTreeMap::new();
    for name in gauges.keys() {
        let (scope, metric) = split_scoped(name);
        if metric == "sim.final_battery_j" {
            scopes.insert(scope, ());
        }
    }
    for (scope, ()) in scopes {
        let conserving = metric_of(gauges, scope, "sim.energy_conserving");
        if conserving != Some(1.0) {
            if conserving == Some(0.0) {
                report.notes.push(format!(
                    "scope \"{scope}\": battery does not conserve energy exactly — balance check skipped"
                ));
            }
            continue;
        }
        let needed = [
            metric_of(gauges, scope, "sim.offered_j"),
            metric_of(gauges, scope, "sim.wasted_j"),
            metric_of(gauges, scope, "sim.rate_loss_j"),
            metric_of(gauges, scope, "sim.delivered_j"),
            metric_of(gauges, scope, "sim.initial_battery_j"),
            metric_of(gauges, scope, "sim.final_battery_j"),
        ];
        let [Some(offered), Some(wasted), Some(rate_loss), Some(delivered), Some(initial), Some(fin)] =
            needed
        else {
            report.notes.push(format!(
                "scope \"{scope}\": incomplete sim.* gauges — balance check skipped"
            ));
            continue;
        };
        report.checks += 1;
        let residual = offered - wasted - rate_loss - delivered - (fin - initial);
        if residual.abs() > tol {
            report.violations.push(Violation {
                invariant: "energy.balance",
                scope: scope.to_string(),
                seq: None,
                slot: None,
                message: format!(
                    "offered {offered} − wasted {wasted} − rate_loss {rate_loss} − delivered {delivered} − ΔE {} leaves {residual} J unaccounted",
                    fin - initial
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_telemetry::{parse_trace_jsonl, Recorder};

    /// A minimal healthy single-scope run: 3 slots, window [0.5, 16].
    fn healthy_recorder() -> Recorder {
        let rec = Recorder::enabled("unit");
        rec.gauge("sim.c_min_j", 0.5);
        rec.gauge("sim.c_max_j", 16.0);
        rec.gauge("sim.initial_battery_j", 8.0);
        rec.gauge("sim.energy_conserving", 1.0);
        // Start at 8 J; each slot nets +0.5 J (supplied 1.0, used 0.5),
        // so Eq. 8 closes exactly: 3 − 0 − 0 − 1.5 − 1.5 = 0.
        let levels = [8.5, 9.0, 9.5];
        let supplied = 1.0; // per slot
        let used = 0.5; // per slot
        for (i, level) in levels.iter().enumerate() {
            rec.event(
                "sim.slot",
                Some(i as u64),
                i as f64 * 4.8,
                &[
                    ("battery_j", *level),
                    ("used_j", used),
                    ("supplied_j", supplied),
                    ("undersupplied_j", 0.0),
                    ("jobs", 1.0),
                    ("backlog", 0.0),
                ],
            );
        }
        rec.gauge("sim.final_battery_j", 9.5);
        rec.gauge("sim.delivered_j", 1.5);
        rec.gauge("sim.offered_j", 3.0);
        rec.gauge("sim.wasted_j", 0.0);
        rec.gauge("sim.rate_loss_j", 0.0);
        rec.gauge("sim.undersupplied_j", 0.0);
        rec
    }

    /// Batch-audit `jsonl`, pinning the report equal to a line-by-line
    /// [`AuditState`] replay: batch and live are separate entry points
    /// into the canonical pass, so every trace a test here builds doubles
    /// as an equivalence case (violations, note order, checks, scopes).
    fn audit_str(jsonl: &str) -> AuditReport {
        let trace = Trace::parse(jsonl).unwrap();
        let batch = audit(&trace, &AuditConfig::default());
        assert_eq!(batch, replay_lines(jsonl).finish(), "batch and live differ");
        batch
    }

    #[test]
    fn healthy_trace_passes_with_slack_note() {
        let report = audit_str(&healthy_recorder().to_jsonl());
        assert!(report.ok(), "{:?}", report.violations);
        assert!(report.checks > 5);
        assert!(
            report.notes.iter().any(|n| n.contains("slack")),
            "{:?}",
            report.notes
        );
    }

    #[test]
    fn battery_outside_the_window_is_pinpointed() {
        let rec = healthy_recorder();
        rec.event(
            "sim.slot",
            Some(3),
            14.4,
            &[
                ("battery_j", 21.0), // past C_max = 16
                ("used_j", 0.0),
                ("supplied_j", 0.0),
                ("undersupplied_j", 0.0),
            ],
        );
        let report = audit_str(&rec.to_jsonl());
        let v = report
            .violations
            .iter()
            .find(|v| v.invariant == "battery.window")
            .expect("window violation");
        assert_eq!(v.slot, Some(3));
        assert_eq!(v.seq, Some(3));
        assert_eq!(v.scope, "");
        // The late extra slot also breaks the stream-vs-gauge anchors.
        assert!(!report.ok());
    }

    #[test]
    fn undersupply_must_not_decrease() {
        let rec = Recorder::enabled("unit");
        rec.event(
            "sim.slot",
            Some(0),
            0.0,
            &[("battery_j", 1.0), ("undersupplied_j", 2.0)],
        );
        rec.event(
            "sim.slot",
            Some(1),
            4.8,
            &[("battery_j", 1.0), ("undersupplied_j", 1.0)],
        );
        let report = audit_str(&rec.to_jsonl());
        let v = report
            .violations
            .iter()
            .find(|v| v.invariant == "undersupply.monotonic")
            .expect("monotonicity violation");
        assert_eq!(v.slot, Some(1));
    }

    #[test]
    fn sum_mismatch_against_gauges_is_flagged() {
        let rec = healthy_recorder();
        rec.gauge("sim.delivered_j", 99.0); // stream sums to 1.5
        let report = audit_str(&rec.to_jsonl());
        assert!(report
            .violations
            .iter()
            .any(|v| v.invariant == "energy.delivered"));
    }

    #[test]
    fn closing_balance_catches_unaccounted_energy() {
        let rec = healthy_recorder();
        rec.gauge("sim.offered_j", 5.0); // breaks both the sum and Eq. 8
        let report = audit_str(&rec.to_jsonl());
        assert!(report
            .violations
            .iter()
            .any(|v| v.invariant == "energy.offered"));
        assert!(report
            .violations
            .iter()
            .any(|v| v.invariant == "energy.balance"));
    }

    #[test]
    fn non_conserving_batteries_skip_the_balance() {
        let rec = healthy_recorder();
        rec.gauge("sim.energy_conserving", 0.0);
        rec.gauge("sim.offered_j", 5.0); // would break Eq. 8
        let report = audit_str(&rec.to_jsonl());
        assert!(!report
            .violations
            .iter()
            .any(|v| v.invariant == "energy.balance"));
        assert!(report
            .notes
            .iter()
            .any(|n| n.contains("balance check skipped")));
    }

    fn safety_config(rec: &Recorder) {
        rec.gauge("safety.shed_step", 1.0);
        rec.gauge("safety.backoff_slots", 1.0);
        rec.gauge("safety.max_replan_failures", 3.0);
    }

    #[test]
    fn legal_safety_stream_passes() {
        let rec = Recorder::enabled("unit");
        safety_config(&rec);
        rec.event(
            "safety.shed",
            Some(0),
            0.0,
            &[("from_level", 0.0), ("to_level", 1.0)],
        );
        rec.event(
            "safety.shed",
            Some(1),
            4.8,
            &[("from_level", 1.0), ("to_level", 2.0)],
        );
        rec.event(
            "safety.recover",
            Some(3),
            14.4,
            &[("from_level", 2.0), ("to_level", 1.0)],
        );
        rec.event("safety.replan_failed", Some(4), 19.2, &[("failures", 1.0)]);
        rec.event("safety.replan_recovered", Some(6), 28.8, &[("after", 1.0)]);
        rec.incr("safety.degradations", 5);
        let report = audit_str(&rec.to_jsonl());
        assert!(report.ok(), "{:?}", report.violations);
    }

    #[test]
    fn out_of_order_shed_levels_are_pinpointed() {
        let rec = Recorder::enabled("unit");
        safety_config(&rec);
        rec.event(
            "safety.shed",
            Some(0),
            0.0,
            &[("from_level", 0.0), ("to_level", 1.0)],
        );
        // Chain break: previous transition ended at 1, this one starts at 3.
        rec.event(
            "safety.shed",
            Some(1),
            4.8,
            &[("from_level", 3.0), ("to_level", 4.0)],
        );
        rec.incr("safety.degradations", 2);
        let report = audit_str(&rec.to_jsonl());
        let v = report
            .violations
            .iter()
            .find(|v| v.invariant == "safety.level_chain")
            .expect("chain violation");
        assert_eq!((v.seq, v.slot), (Some(1), Some(1)));
    }

    #[test]
    fn oversized_shed_and_multi_rank_recovery_are_illegal() {
        let rec = Recorder::enabled("unit");
        safety_config(&rec); // shed_step = 1
        rec.event(
            "safety.shed",
            Some(0),
            0.0,
            &[("from_level", 0.0), ("to_level", 2.0)],
        );
        rec.event(
            "safety.recover",
            Some(1),
            4.8,
            &[("from_level", 2.0), ("to_level", 0.0)],
        );
        rec.incr("safety.degradations", 2);
        let report = audit_str(&rec.to_jsonl());
        assert!(report
            .violations
            .iter()
            .any(|v| v.invariant == "safety.shed_step"));
        assert!(report
            .violations
            .iter()
            .any(|v| v.invariant == "safety.recover_step"));
    }

    #[test]
    fn fallback_is_terminal_and_respects_the_budget() {
        let rec = Recorder::enabled("unit");
        safety_config(&rec);
        rec.event("safety.replan_failed", Some(0), 0.0, &[("failures", 1.0)]);
        rec.event("safety.replan_failed", Some(3), 14.4, &[("failures", 2.0)]);
        rec.event("safety.replan_failed", Some(7), 33.6, &[("failures", 3.0)]);
        rec.event(
            "safety.fallback_engaged",
            Some(7),
            33.6,
            &[("failures", 3.0)],
        );
        // Illegal: the inner governor must never be consulted again.
        rec.event("safety.replan_failed", Some(9), 43.2, &[("failures", 4.0)]);
        rec.incr("safety.degradations", 5);
        let report = audit_str(&rec.to_jsonl());
        let v = report
            .violations
            .iter()
            .find(|v| v.invariant == "safety.fallback_terminal")
            .expect("terminal violation");
        assert_eq!(v.slot, Some(9));
    }

    #[test]
    fn retry_before_the_dwell_is_illegal() {
        let rec = Recorder::enabled("unit");
        safety_config(&rec); // backoff_slots = 1
        rec.event("safety.replan_failed", Some(4), 19.2, &[("failures", 1.0)]);
        // Earliest legal retry: slot 4 + 1 + 1·1 = 6. Slot 5 is too soon.
        rec.event("safety.replan_failed", Some(5), 24.0, &[("failures", 2.0)]);
        rec.incr("safety.degradations", 2);
        let report = audit_str(&rec.to_jsonl());
        assert!(report
            .violations
            .iter()
            .any(|v| v.invariant == "safety.retry_dwell"));
    }

    #[test]
    fn degradation_counter_must_match_the_event_stream() {
        let rec = Recorder::enabled("unit");
        rec.event(
            "safety.shed",
            Some(0),
            0.0,
            &[("from_level", 0.0), ("to_level", 1.0)],
        );
        rec.incr("safety.degradations", 7);
        let report = audit_str(&rec.to_jsonl());
        assert!(report
            .violations
            .iter()
            .any(|v| v.invariant == "safety.event_count"));
    }

    /// Declare a bus → ring → chip chain and optionally some activity.
    fn broker_recorder() -> Recorder {
        let rec = Recorder::enabled("unit");
        for (i, name) in ["bus", "ring", "chip"].iter().enumerate() {
            rec.event_with_detail(
                "broker.element",
                None,
                0.0,
                &[("element", i as f64), ("max_level", 1.0), ("floor", 0.0)],
                name,
            );
        }
        for (child, provider) in [(1.0, 0.0), (2.0, 1.0)] {
            rec.event(
                "broker.edge",
                None,
                0.0,
                &[
                    ("child", child),
                    ("provider", provider),
                    ("min_provider_level", 1.0),
                ],
            );
        }
        rec
    }

    fn level(rec: &Recorder, slot: u64, element: f64, from: f64, to: f64, cause: &str) {
        rec.event_with_detail(
            "broker.level",
            Some(slot),
            slot as f64 * 4.8,
            &[("element", element), ("from", from), ("to", to)],
            cause,
        );
        if to < from {
            rec.incr("broker.revocations", 1);
        } else {
            rec.incr("broker.restores", 1);
        }
    }

    #[test]
    fn legal_broker_stream_passes() {
        let rec = broker_recorder();
        // Providers-first raise, leaves-first revoke: legal throughout.
        level(&rec, 0, 0.0, 0.0, 1.0, "grant");
        level(&rec, 0, 1.0, 0.0, 1.0, "grant");
        level(&rec, 0, 2.0, 0.0, 1.0, "grant");
        level(&rec, 3, 2.0, 1.0, 0.0, "revoke");
        level(&rec, 3, 1.0, 1.0, 0.0, "revoke");
        level(&rec, 3, 0.0, 1.0, 0.0, "revoke");
        let report = audit_str(&rec.to_jsonl());
        assert!(report.ok(), "{:?}", report.violations);
    }

    #[test]
    fn child_powered_above_a_dead_provider_is_flagged() {
        let rec = broker_recorder();
        level(&rec, 0, 0.0, 0.0, 1.0, "grant");
        level(&rec, 0, 1.0, 0.0, 1.0, "grant");
        level(&rec, 0, 2.0, 0.0, 1.0, "grant");
        // Flat-style fault: the ring dies, the chip stays at level 1.
        level(&rec, 2, 1.0, 1.0, 0.0, "cascade");
        let report = audit_str(&rec.to_jsonl());
        let v = report
            .violations
            .iter()
            .find(|v| v.invariant == "broker.legality")
            .expect("legality violation");
        assert_eq!(v.slot, Some(2));
        assert!(v.message.contains("element 2"), "{}", v.message);
    }

    #[test]
    fn provider_first_drop_order_is_flagged_mid_reconciliation() {
        let rec = broker_recorder();
        level(&rec, 0, 0.0, 0.0, 1.0, "grant");
        level(&rec, 0, 1.0, 0.0, 1.0, "grant");
        level(&rec, 0, 2.0, 0.0, 1.0, "grant");
        // Wrong order: the ring drops before its dependent chip.
        level(&rec, 1, 1.0, 1.0, 0.0, "revoke");
        level(&rec, 1, 2.0, 1.0, 0.0, "revoke");
        let report = audit_str(&rec.to_jsonl());
        let v = report
            .violations
            .iter()
            .find(|v| v.invariant == "broker.legality")
            .expect("ordering flagged via legality");
        // Anchored to the provider's drop, the first illegal state.
        assert_eq!(v.slot, Some(1));
    }

    #[test]
    fn level_chain_breaks_and_range_overruns_are_flagged() {
        let rec = broker_recorder();
        level(&rec, 0, 0.0, 0.0, 1.0, "grant");
        // Chain break: bus is at 1 but this change claims from = 0.
        level(&rec, 1, 0.0, 0.0, 2.0, "grant");
        let report = audit_str(&rec.to_jsonl());
        assert!(report
            .violations
            .iter()
            .any(|v| v.invariant == "broker.level_chain"));
        assert!(report
            .violations
            .iter()
            .any(|v| v.invariant == "broker.level_range"));
    }

    #[test]
    fn terminal_shutdown_must_be_monotone_and_final() {
        let rec = broker_recorder();
        level(&rec, 0, 0.0, 0.0, 1.0, "grant");
        level(&rec, 0, 1.0, 0.0, 1.0, "grant");
        rec.event("broker.shutdown_start", Some(2), 9.6, &[("elements", 3.0)]);
        rec.incr("broker.terminal_shutdowns", 1);
        level(&rec, 2, 1.0, 1.0, 0.0, "shutdown");
        // Illegal: a rise mid-shutdown.
        level(&rec, 2, 2.0, 0.0, 1.0, "shutdown");
        rec.event(
            "broker.shutdown_complete",
            Some(2),
            9.6,
            &[("changes", 2.0)],
        );
        // Illegal: any level change after the walk completes.
        level(&rec, 3, 0.0, 1.0, 0.0, "revoke");
        let report = audit_str(&rec.to_jsonl());
        assert!(report
            .violations
            .iter()
            .any(|v| v.invariant == "broker.shutdown_monotone"));
        assert!(report
            .violations
            .iter()
            .any(|v| v.invariant == "broker.shutdown_final"));
    }

    #[test]
    fn broker_census_must_match_the_stream() {
        let rec = broker_recorder();
        level(&rec, 0, 0.0, 0.0, 1.0, "grant");
        rec.incr("broker.restores", 5); // stream shows 1, counter 6
        let report = audit_str(&rec.to_jsonl());
        let v = report
            .violations
            .iter()
            .find(|v| v.invariant == "broker.census")
            .expect("census violation");
        assert!(v.message.contains("broker.restores"), "{}", v.message);
    }

    #[test]
    fn undeclared_topology_skips_replay_with_a_note() {
        let rec = Recorder::enabled("unit");
        rec.event_with_detail(
            "broker.level",
            Some(0),
            0.0,
            &[("element", 0.0), ("from", 0.0), ("to", 1.0)],
            "grant",
        );
        let report = audit_str(&rec.to_jsonl());
        assert!(report.ok(), "{:?}", report.violations);
        assert!(report
            .notes
            .iter()
            .any(|n| n.contains("legality replay skipped")));
    }

    #[test]
    fn non_monotonic_seq_is_caught() {
        // Hand-build a trace with a rewound sequence number.
        let rec = Recorder::enabled("unit");
        rec.event("a", Some(0), 0.0, &[]);
        rec.event("b", Some(1), 1.0, &[]);
        let mut jsonl = rec.to_jsonl();
        jsonl = jsonl.replace("\"seq\":1", "\"seq\":0");
        let report = audit_str(&jsonl);
        assert!(report
            .violations
            .iter()
            .any(|v| v.invariant == "seq.monotonic"));
    }

    #[test]
    fn meta_event_count_mismatch_is_caught() {
        let rec = Recorder::enabled("unit");
        rec.event("a", Some(0), 0.0, &[]);
        let jsonl = rec.to_jsonl().replace("\"events\":1", "\"events\":5");
        let report = audit_str(&jsonl);
        assert_eq!(report.first().map(|v| v.invariant), Some("meta.events"));
    }

    #[test]
    fn dropped_events_skip_sum_checks_with_a_note() {
        let rec = Recorder::with_capacity("unit", 2);
        rec.gauge("sim.delivered_j", 99.0); // would fail the sum check
        for i in 0..5u64 {
            rec.event(
                "sim.slot",
                Some(i),
                i as f64,
                &[("battery_j", 1.0), ("used_j", 0.1), ("supplied_j", 0.1)],
            );
        }
        let report = audit_str(&rec.to_jsonl());
        assert!(!report
            .violations
            .iter()
            .any(|v| v.invariant == "energy.delivered"));
        assert!(report.notes.iter().any(|n| n.contains("dropped")));
    }

    #[test]
    fn violations_render_with_their_anchor() {
        let v = Violation {
            invariant: "battery.window",
            scope: "table1/0".into(),
            seq: Some(12),
            slot: Some(4),
            message: "out of window".into(),
        };
        let s = v.to_string();
        assert!(
            s.contains("battery.window") && s.contains("table1/0"),
            "{s}"
        );
        assert!(s.contains("seq=12") && s.contains("slot=4"), "{s}");
    }

    // ---- incremental engine -------------------------------------------

    /// Feed a JSONL document line-by-line through an [`AuditState`].
    fn replay_lines(jsonl: &str) -> AuditState {
        let mut state = AuditState::new(AuditConfig::default());
        for line in parse_trace_jsonl(jsonl).unwrap() {
            state.push(&line);
        }
        state
    }

    #[test]
    fn incremental_replay_equals_batch_audit() {
        // A trace exercising every family at once: slots + safety +
        // broker + a deliberate window violation and census mismatch.
        let rec = healthy_recorder();
        safety_config(&rec);
        rec.event(
            "safety.shed",
            Some(0),
            0.0,
            &[("from_level", 0.0), ("to_level", 1.0)],
        );
        rec.incr("safety.degradations", 3); // census mismatch
        rec.event(
            "sim.slot",
            Some(9),
            43.2,
            &[("battery_j", 99.0), ("used_j", 0.0), ("supplied_j", 0.0)],
        );
        let jsonl = rec.to_jsonl();
        let batch = audit_str(&jsonl);
        let incremental = replay_lines(&jsonl).finish();
        assert_eq!(batch, incremental);
        assert!(!batch.ok());
    }

    #[test]
    fn incremental_replay_is_chunking_invariant() {
        let jsonl = healthy_recorder().to_jsonl();
        let lines = parse_trace_jsonl(&jsonl).unwrap();
        let whole = audit_str(&jsonl);
        // Any split point yields the same canonical report.
        for split in 0..=lines.len() {
            let mut state = AuditState::new(AuditConfig::default());
            for line in &lines[..split] {
                state.push(line);
            }
            for line in &lines[split..] {
                state.push(line);
            }
            assert_eq!(state.finish(), whole, "split at {split}");
        }
    }

    #[test]
    fn online_window_violation_is_flagged_on_the_offending_push() {
        // Live order: config gauges first, then events — the emitter
        // contract that makes the online window check possible.
        let mut state = AuditState::new(AuditConfig::default());
        state.push(&TraceLine::Gauge(dpm_telemetry::GaugeLine {
            name: "sim.c_min_j".into(),
            value: 0.5,
        }));
        state.push(&TraceLine::Gauge(dpm_telemetry::GaugeLine {
            name: "sim.c_max_j".into(),
            value: 16.0,
        }));
        let healthy = Event {
            seq: 0,
            scope: String::new(),
            name: "sim.slot".into(),
            slot: Some(0),
            time: 0.0,
            fields: vec![("battery_j".into(), 8.0)],
            detail: None,
        };
        assert!(state.push(&TraceLine::Event(healthy.clone())).is_empty());
        assert!(state.ok_so_far());
        let mut bad = healthy;
        bad.seq = 1;
        bad.slot = Some(1);
        bad.fields = vec![("battery_j".into(), 21.0)];
        let fresh = state.push(&TraceLine::Event(bad));
        assert_eq!(fresh.len(), 1, "{fresh:?}");
        assert_eq!(fresh[0].invariant, "battery.window");
        assert_eq!(fresh[0].slot, Some(1));
        assert!(!state.ok_so_far());
        assert_eq!(state.online_violations().len(), 1);
    }

    #[test]
    fn online_safety_and_seq_violations_fire_immediately() {
        let mut state = AuditState::new(AuditConfig::default());
        let shed = |seq: u64, slot: u64, from: f64, to: f64| {
            TraceLine::Event(Event {
                seq,
                scope: String::new(),
                name: "safety.shed".into(),
                slot: Some(slot),
                time: slot as f64 * 4.8,
                fields: vec![("from_level".into(), from), ("to_level".into(), to)],
                detail: None,
            })
        };
        assert!(state.push(&shed(0, 0, 0.0, 1.0)).is_empty());
        // Chain break flagged on this very push.
        let fresh = state.push(&shed(1, 1, 3.0, 4.0));
        assert!(
            fresh.iter().any(|v| v.invariant == "safety.level_chain"),
            "{fresh:?}"
        );
        // A rewound seq too.
        let fresh = state.push(&shed(0, 2, 4.0, 5.0));
        assert!(
            fresh.iter().any(|v| v.invariant == "seq.monotonic"),
            "{fresh:?}"
        );
    }

    #[test]
    fn duplicate_meta_is_flagged_online_and_in_the_report() {
        let meta = TraceLine::Meta(TraceMeta {
            schema: dpm_telemetry::SCHEMA_VERSION,
            source: "unit".into(),
            events: 0,
            dropped: 0,
        });
        let mut state = AuditState::new(AuditConfig::default());
        assert!(state.push(&meta).is_empty());
        let fresh = state.push(&meta);
        assert_eq!(fresh.len(), 1);
        assert_eq!(fresh[0].invariant, "meta.duplicate");
        let report = state.finish();
        assert!(report
            .violations
            .iter()
            .any(|v| v.invariant == "meta.duplicate"));
    }

    #[test]
    fn metaless_stream_skips_the_count_check_with_a_note() {
        let mut state = AuditState::new(AuditConfig::default());
        state.push(&TraceLine::Event(Event {
            seq: 0,
            scope: String::new(),
            name: "a".into(),
            slot: None,
            time: 0.0,
            fields: Vec::new(),
            detail: None,
        }));
        let report = state.finish();
        assert!(report.ok(), "{:?}", report.violations);
        assert!(
            report.notes.iter().any(|n| n.contains("no meta header")),
            "{:?}",
            report.notes
        );
    }

    #[test]
    fn trailing_meta_still_anchors_the_count_check() {
        // Live sessions append the header at close; the count check must
        // work no matter where the meta line sat in the stream.
        let rec = Recorder::enabled("unit");
        rec.event("a", Some(0), 0.0, &[]);
        let lines = parse_trace_jsonl(&rec.to_jsonl()).unwrap();
        let mut state = AuditState::new(AuditConfig::default());
        for line in lines.iter().skip(1) {
            state.push(line);
        }
        state.push(&lines[0]);
        let report = state.finish();
        assert!(report.ok(), "{:?}", report.violations);

        // And a lying trailing header is still caught.
        let mut state = AuditState::new(AuditConfig::default());
        state.push(&TraceLine::Meta(TraceMeta {
            schema: dpm_telemetry::SCHEMA_VERSION,
            source: "unit".into(),
            events: 5,
            dropped: 0,
        }));
        let report = state.finish();
        assert_eq!(report.first().map(|v| v.invariant), Some("meta.events"));
    }
}
