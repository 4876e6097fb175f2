//! Power-topology governance for the PAMA board: maps broker decisions
//! (or their deliberate absence) onto chip power rails.
//!
//! The PAMA platform is not a flat pool of eight identical chips: worker
//! PIMs hang off two ring-interconnect power domains, the charge gauge
//! hangs off a sensor bus, and everything hangs off the board bus. This
//! module declares that structure as a `dpm-broker` [`Topology`]
//! ([`pama_topology`]) and runs it in one of two modes:
//!
//! - [`TopologyMode::Broker`] — the robustness kernel. Worker demand is
//!   expressed as leases; the broker reconciles it against element faults
//!   in dependency order, cascades provider faults to a legal degraded
//!   configuration, and walks the board down to its minimum legal state
//!   when the governor's fallback budget is exhausted. Chips whose rail
//!   element is down are physically unpowered ([`Rails::powered`]).
//! - [`TopologyMode::Flat`] — the pre-broker strawman: topology-blind
//!   positional activation. A faulted provider takes only *itself* dark;
//!   dependent chips keep drawing power while serving nothing
//!   ([`Rails::impaired`]), and the emitted `broker.level` trace
//!   shows children powered above a dead provider — exactly the
//!   topology-legality violation `dpm-trace`'s audit flags.
//!
//! Both modes emit the same self-describing `broker.*` telemetry, so the
//! campaign's flat and broker arms are audit-comparable. The governed run
//! imposes the resulting [`Rails`] on the board at each slot's
//! reconciliation and at each mid-slot element fault.

use crate::error::SimError;
use crate::stats::BrokerStats;
use dpm_broker::BrokerError;
use dpm_broker::{Broker, BrokerConfig, BrokerCounts, Cause, Topology, TopologyBuilder};
use dpm_core::units::Seconds;
use dpm_telemetry::Recorder;

/// Board bus: the root power element everything depends on.
pub const EL_BUS: usize = 0;
/// Controller PIM power (chip 0; held up whenever the board runs).
pub const EL_CTRL: usize = 1;
/// Ring interconnect domain A (feeds worker chips 1–4).
pub const EL_RING_A: usize = 2;
/// Ring interconnect domain B (feeds worker chips 5–7).
pub const EL_RING_B: usize = 3;
/// Sensor bus (feeds the charge gauge).
pub const EL_SENSOR_BUS: usize = 4;
/// Battery charge gauge; when dark, governor observations go stale.
pub const EL_GAUGE: usize = 5;
/// Worker-chip rail elements, index `i` powering board chip `i + 1`.
pub const EL_WORKERS: [usize; 7] = [6, 7, 8, 9, 10, 11, 12];
/// Elements other elements depend on — the fault-injection targets that
/// distinguish broker-ordered shedding from flat governance.
pub const PROVIDER_ELEMENTS: [usize; 3] = [EL_RING_A, EL_RING_B, EL_SENSOR_BUS];
/// Total element count of [`pama_topology`].
pub const ELEMENTS: usize = 13;

/// The PAMA power-element topology (all elements binary, floor 0):
///
/// ```text
/// bus ─┬─ ctrl
///      ├─ ring-a ─┬─ worker-1 … worker-4
///      ├─ ring-b ─┬─ worker-5 … worker-7
///      └─ sensor-bus ── gauge
/// ```
///
/// # Errors
/// Never fails for this fixed shape; the `Result` is the builder's.
pub fn pama_topology() -> Result<Topology, BrokerError> {
    let mut b = TopologyBuilder::new();
    let bus = b.element("bus", 1, 0);
    let ctrl = b.element("ctrl", 1, 0);
    let ring_a = b.element("ring-a", 1, 0);
    let ring_b = b.element("ring-b", 1, 0);
    let sensor_bus = b.element("sensor-bus", 1, 0);
    let gauge = b.element("gauge", 1, 0);
    b.edge(ctrl, bus, 1);
    b.edge(ring_a, bus, 1);
    b.edge(ring_b, bus, 1);
    b.edge(sensor_bus, bus, 1);
    b.edge(gauge, sensor_bus, 1);
    for (i, &el) in EL_WORKERS.iter().enumerate() {
        let w = b.element(&format!("worker-{}", i + 1), 1, 0);
        debug_assert_eq!(w, el);
        let ring = if i < 4 { ring_a } else { ring_b };
        b.edge(el, ring, 1);
    }
    debug_assert_eq!(
        [bus, ctrl, ring_a, ring_b, sensor_bus, gauge],
        [
            EL_BUS,
            EL_CTRL,
            EL_RING_A,
            EL_RING_B,
            EL_SENSOR_BUS,
            EL_GAUGE
        ]
    );
    b.build()
}

/// How element faults are governed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyMode {
    /// Topology-blind positional activation (the pre-broker strawman).
    Flat,
    /// Lease-based dependency-ordered governance (the robustness kernel).
    Broker,
}

impl TopologyMode {
    /// Stable string for reports and telemetry.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Flat => "flat",
            Self::Broker => "broker",
        }
    }
}

/// Per-chip rail state a topology imposes on the board, one bit per chip
/// (bits past the board's chip count are ignored).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rails {
    /// Chips with supply-rail power.
    pub powered: u32,
    /// Chips that draw their commanded power but serve nothing (flat
    /// governance above a dead provider).
    pub impaired: u32,
}

impl Rails {
    /// Every rail up, nothing impaired: a board without a topology.
    pub const NOMINAL: Self = Self {
        powered: u32::MAX,
        impaired: 0,
    };
}

/// Set or clear bit `chip` of `word` (chips past 32 do not exist).
fn set_bit(word: &mut u32, chip: usize, on: bool) {
    if chip < 32 {
        *word = (*word & !(1 << chip)) | (u32::from(on) << chip);
    }
}

/// Per-slot bridge between a [`Broker`] (or flat strawman) and the
/// board's chip [`Rails`]. Owned by `Simulation` when a topology is
/// attached ([`crate::sim::Simulation::with_topology`]).
#[derive(Debug, Clone)]
pub struct TopologyRuntime {
    mode: TopologyMode,
    topo: Topology,
    broker: Option<Broker>,
    worker_leases: [usize; 7],
    /// Flat-mode levels: what the blind policy *claims* each element runs
    /// at — emitted as `broker.level` truth for the audit to judge.
    flat_level: Vec<u8>,
    /// Physical fault state, mode-independent (the broker keeps its own
    /// copy; this one also drives gauge staleness and flat impairment).
    faulted: Vec<bool>,
    flat_counts: BrokerCounts,
    /// Rail state mirrored from the element levels.
    rails: Rails,
    telemetry: Recorder,
    slot: u64,
    time: f64,
}

impl TopologyRuntime {
    /// Build a runtime in `mode`, declaring the topology into `telemetry`
    /// (`broker.element` / `broker.edge` events plus a `broker.mode`
    /// gauge: 0 = flat, 1 = broker) so traces are self-describing.
    ///
    /// # Errors
    /// Propagates topology-construction or lease errors (none for the
    /// fixed PAMA shape, but the plumbing is honest).
    pub fn new(mode: TopologyMode, telemetry: Recorder) -> Result<Self, SimError> {
        let topo = pama_topology().map_err(SimError::from)?;
        let mut worker_leases = [0usize; 7];
        let broker = match mode {
            TopologyMode::Broker => {
                let mut br = Broker::new(topo.clone(), BrokerConfig::default())
                    .with_telemetry(telemetry.clone());
                // Infrastructure leases: controller and gauge are demanded
                // for the life of the run (they pull bus/sensor-bus up).
                for el in [EL_CTRL, EL_GAUGE] {
                    let l = br.lease(el, 1).map_err(SimError::from)?;
                    br.set_active(l, true).map_err(SimError::from)?;
                }
                for (i, &el) in EL_WORKERS.iter().enumerate() {
                    worker_leases[i] = br.lease(el, 1).map_err(SimError::from)?;
                }
                Some(br)
            }
            TopologyMode::Flat => {
                declare(&topo, &telemetry);
                None
            }
        };
        telemetry.gauge(
            "broker.mode",
            match mode {
                TopologyMode::Flat => 0.0,
                TopologyMode::Broker => 1.0,
            },
        );
        let n = topo.len();
        Ok(Self {
            mode,
            topo,
            broker,
            worker_leases,
            flat_level: vec![0; n],
            faulted: vec![false; n],
            flat_counts: BrokerCounts::default(),
            rails: Rails::NOMINAL,
            telemetry,
            slot: 0,
            time: 0.0,
        })
    }

    /// The governance mode.
    #[must_use]
    pub fn mode(&self) -> TopologyMode {
        self.mode
    }

    /// Whether terminal shutdown has executed (broker mode only; flat
    /// governance has no shutdown path — it limps forever).
    #[must_use]
    pub fn is_terminal(&self) -> bool {
        self.broker.as_ref().is_some_and(Broker::is_terminal)
    }

    /// The chip rail state the board must run under.
    #[must_use]
    pub fn rails(&self) -> Rails {
        self.rails
    }

    /// Current element levels (broker truth, or the flat policy's claim).
    #[must_use]
    pub fn levels(&self) -> &[u8] {
        match &self.broker {
            Some(br) => br.levels(),
            None => &self.flat_level,
        }
    }

    /// Whether the charge gauge can produce a fresh reading. In broker
    /// mode that is "the gauge element is powered" (legality guarantees
    /// its providers then are too); in flat mode the gauge may *claim*
    /// power above a dead sensor bus, but physics still wins: any fault
    /// on the gauge's provider chain makes readings stale.
    #[must_use]
    pub fn gauge_powered(&self) -> bool {
        match &self.broker {
            Some(br) => br.level(EL_GAUGE).unwrap_or(0) >= 1,
            None => !self.chain_faulted(EL_GAUGE),
        }
    }

    /// Govern one slot: reconcile worker demand (`commanded` workers)
    /// against element faults, mirror the element levels into
    /// [`Self::rails`], and return how many worker chips actually have
    /// power. `exhausted`
    /// (the governor's fallback budget is spent) triggers the one-time
    /// terminal-shutdown walk in broker mode.
    ///
    /// # Errors
    /// Propagates broker lease errors (unreachable for the fixed PAMA
    /// wiring, but surfaced rather than swallowed).
    pub fn begin_slot(
        &mut self,
        slot: u64,
        time: Seconds,
        commanded: usize,
        exhausted: bool,
    ) -> Result<usize, SimError> {
        self.slot = slot;
        self.time = time.value();
        match self.mode {
            TopologyMode::Broker => self.broker_slot(slot, time, commanded, exhausted),
            TopologyMode::Flat => Ok(self.flat_slot(commanded)),
        }
    }

    fn broker_slot(
        &mut self,
        slot: u64,
        time: Seconds,
        commanded: usize,
        exhausted: bool,
    ) -> Result<usize, SimError> {
        let Some(br) = self.broker.as_mut() else {
            return Ok(0);
        };
        br.begin_slot(slot, time.value());
        if exhausted && !br.is_terminal() {
            // The governor has no path back to planned operation: walk the
            // topology down to its minimum legal state instead of burning
            // the battery on a frozen fallback point.
            br.shutdown();
        }
        if !br.is_terminal() {
            // Demand the first `commanded` servable worker elements; any
            // remaining demand lands on unavailable ones so a persistent
            // fault exercises the bounded retry/abandon path.
            let n = commanded.min(EL_WORKERS.len());
            let mut chosen = [false; 7];
            let mut picked = 0usize;
            for (i, &el) in EL_WORKERS.iter().enumerate() {
                if picked < n && br.is_available(el) {
                    chosen[i] = true;
                    picked += 1;
                }
            }
            for slot_choice in chosen.iter_mut() {
                if picked >= n {
                    break;
                }
                if !*slot_choice {
                    *slot_choice = true;
                    picked += 1;
                }
            }
            for (i, &demand) in chosen.iter().enumerate() {
                br.set_active(self.worker_leases[i], demand)
                    .map_err(SimError::from)?;
            }
            br.sync();
        }
        // Mirror rail truth onto the board's rails.
        let mut granted = 0usize;
        for (i, &el) in EL_WORKERS.iter().enumerate() {
            let up = br.level(el).unwrap_or(0) >= 1;
            set_bit(&mut self.rails.powered, i + 1, up);
            if up {
                granted += 1;
            }
        }
        Ok(granted.min(commanded))
    }

    fn flat_slot(&mut self, commanded: usize) -> usize {
        // Topology-blind: infrastructure runs whenever its own element is
        // healthy; the command activates the first n worker slots
        // positionally, never consulting providers.
        let n = commanded.min(EL_WORKERS.len());
        let mut want = vec![0u8; self.topo.len()];
        for e in [
            EL_BUS,
            EL_CTRL,
            EL_RING_A,
            EL_RING_B,
            EL_SENSOR_BUS,
            EL_GAUGE,
        ] {
            if !self.faulted[e] {
                want[e] = 1;
            }
        }
        for (i, &el) in EL_WORKERS.iter().enumerate() {
            if i < n && !self.faulted[el] {
                want[el] = 1;
            }
        }
        // Drops leaves-first, raises providers-first: the *ordering* stays
        // clean even in flat mode — the audit violation flat produces is
        // about levels (children above a dead provider), not sequencing.
        let order: Vec<usize> = self.topo.order().to_vec();
        for &e in order.iter().rev() {
            if want[e] < self.flat_level[e] {
                self.flat_apply(e, want[e], Cause::Revoke);
            }
        }
        for &e in &order {
            if want[e] > self.flat_level[e] {
                self.flat_apply(e, want[e], Cause::Grant);
            }
        }
        self.flat_rails_sync()
    }

    /// Mirror flat levels onto the rails: dead worker rails are unpowered;
    /// powered chips above a broken provider chain are impaired — they
    /// draw active power and serve nothing. Returns powered worker count.
    fn flat_rails_sync(&mut self) -> usize {
        let mut granted = 0usize;
        for (i, &el) in EL_WORKERS.iter().enumerate() {
            let chip = i + 1;
            let up = self.flat_level[el] >= 1;
            let impaired = up && self.chain_faulted(el);
            set_bit(&mut self.rails.powered, chip, up);
            set_bit(&mut self.rails.impaired, chip, impaired);
            if up {
                granted += 1;
            }
        }
        granted
    }

    /// Inject a fail-stop fault on `element` (out-of-range is ignored —
    /// fault plans are data, not code). Broker mode cascades dependents
    /// to a legal configuration immediately; flat mode takes only the
    /// element itself dark and leaves dependents drawing power. Either
    /// way [`Self::rails`] reflects the fault at once.
    pub fn fault(&mut self, element: usize, at: Seconds) {
        if element >= self.topo.len() {
            return;
        }
        self.time = at.value();
        self.faulted[element] = true;
        match self.mode {
            TopologyMode::Broker => {
                if let Some(br) = self.broker.as_mut() {
                    // Unknown-element is screened above; terminal faults
                    // are accepted no-ops — both make this infallible.
                    let _ = br.fault(element, at.value());
                    for (i, &el) in EL_WORKERS.iter().enumerate() {
                        if br.level(el).unwrap_or(0) == 0 {
                            set_bit(&mut self.rails.powered, i + 1, false);
                        }
                    }
                }
            }
            TopologyMode::Flat => {
                if self.flat_level[element] > 0 {
                    self.flat_apply(element, 0, Cause::Cascade);
                }
                self.flat_counts.cascades += 1;
                self.telemetry.incr("broker.cascades", 1);
                if self.telemetry.is_enabled() {
                    self.telemetry.event(
                        "broker.cascade",
                        Some(self.slot),
                        self.time,
                        &[("element", element as f64), ("dropped", 1.0)],
                    );
                }
                self.flat_rails_sync();
            }
        }
    }

    /// Clear a fault (out-of-range ignored). Levels recover at the next
    /// slot's reconciliation in both modes — broker restores wait out
    /// dwell hysteresis, flat restores are immediate next slot.
    pub fn recover(&mut self, element: usize, at: Seconds) {
        if element >= self.topo.len() {
            return;
        }
        self.time = at.value();
        self.faulted[element] = false;
        if let Some(br) = self.broker.as_mut() {
            let _ = br.recover(element, at.value());
        }
    }

    /// Activity census for the run report.
    #[must_use]
    pub fn stats(&self) -> BrokerStats {
        let c = match &self.broker {
            Some(br) => br.counts(),
            None => self.flat_counts,
        };
        BrokerStats {
            mode: self.mode.as_str().to_string(),
            revocations: c.revocations,
            restores: c.restores,
            cascades: c.cascades,
            terminal_shutdowns: c.terminal_shutdowns,
            retries: c.retries,
            abandoned: c.abandoned,
        }
    }

    /// Whether `element` or anything on its provider chain is faulted.
    fn chain_faulted(&self, element: usize) -> bool {
        if self.faulted.get(element).copied().unwrap_or(false) {
            return true;
        }
        self.topo
            .providers_of(element)
            .iter()
            .any(|&(p, _)| self.chain_faulted(p))
    }

    /// Flat-mode level change: counters + the same `broker.level` event
    /// shape the broker emits, so both arms replay through one audit.
    fn flat_apply(&mut self, element: usize, to: u8, cause: Cause) {
        let from = self.flat_level[element];
        if from == to {
            return;
        }
        self.flat_level[element] = to;
        if to < from {
            self.flat_counts.revocations += 1;
            self.telemetry.incr("broker.revocations", 1);
        } else {
            self.flat_counts.restores += 1;
            self.telemetry.incr("broker.restores", 1);
        }
        if self.telemetry.is_enabled() {
            self.telemetry.event_with_detail(
                "broker.level",
                Some(self.slot),
                self.time,
                &[
                    ("element", element as f64),
                    ("from", f64::from(from)),
                    ("to", f64::from(to)),
                ],
                cause.as_str(),
            );
        }
    }
}

/// Declare a topology into a trace without a broker (flat mode): the same
/// `broker.element` / `broker.edge` events [`Broker::with_telemetry`]
/// emits, so the audit can replay legality for either arm.
fn declare(topo: &Topology, telemetry: &Recorder) {
    if !telemetry.is_enabled() {
        return;
    }
    for i in 0..topo.len() {
        if let Some(spec) = topo.spec(i) {
            telemetry.event_with_detail(
                "broker.element",
                None,
                0.0,
                &[
                    ("element", i as f64),
                    ("max_level", f64::from(spec.max_level)),
                    ("floor", f64::from(spec.floor)),
                ],
                &spec.name,
            );
        }
    }
    for e in topo.edges() {
        telemetry.event(
            "broker.edge",
            None,
            0.0,
            &[
                ("child", e.child as f64),
                ("provider", e.provider as f64),
                ("min_provider_level", f64::from(e.min_provider_level)),
            ],
        );
    }
    telemetry.gauge("broker.elements", topo.len() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_core::units::seconds;

    /// Rail bits of the worker chips on each ring domain.
    const RING_A: u32 = 0b0001_1110;
    const RING_B: u32 = 0b1110_0000;
    const WORKERS: u32 = RING_A | RING_B;

    #[test]
    fn pama_topology_matches_the_element_constants() {
        let t = pama_topology().unwrap();
        assert_eq!(t.len(), ELEMENTS);
        assert_eq!(t.spec(EL_BUS).unwrap().name, "bus");
        assert_eq!(t.spec(EL_GAUGE).unwrap().name, "gauge");
        assert_eq!(t.spec(EL_WORKERS[0]).unwrap().name, "worker-1");
        assert_eq!(t.spec(EL_WORKERS[6]).unwrap().name, "worker-7");
        // Workers 1–4 hang off ring A, 5–7 off ring B.
        assert_eq!(t.providers_of(EL_WORKERS[3]), &[(EL_RING_A, 1)]);
        assert_eq!(t.providers_of(EL_WORKERS[4]), &[(EL_RING_B, 1)]);
        assert_eq!(t.providers_of(EL_GAUGE), &[(EL_SENSOR_BUS, 1)]);
    }

    #[test]
    fn broker_mode_cuts_dependent_rails_on_a_provider_fault() {
        let mut rt = TopologyRuntime::new(TopologyMode::Broker, Recorder::disabled()).unwrap();
        let granted = rt.begin_slot(0, seconds(0.0), 7, false).unwrap();
        assert_eq!(granted, 7);
        assert_eq!(rt.rails().powered & WORKERS, WORKERS);

        rt.fault(EL_RING_A, seconds(0.5));
        // Chips 1–4 (ring A) lose their rails immediately and legally.
        assert_eq!(rt.rails().powered & RING_A, 0);
        assert_eq!(rt.rails().powered & RING_B, RING_B);
        let t = pama_topology().unwrap();
        assert!(t.violation(rt.levels()).is_none());

        let granted = rt.begin_slot(1, seconds(3.6), 7, false).unwrap();
        assert_eq!(granted, 3, "only ring-B workers are servable");
        assert!(rt.stats().cascades >= 1);
        assert_eq!(rt.stats().mode, "broker");
    }

    #[test]
    fn flat_mode_keeps_children_powered_above_a_dead_provider() {
        let mut rt = TopologyRuntime::new(TopologyMode::Flat, Recorder::disabled()).unwrap();
        let granted = rt.begin_slot(0, seconds(0.0), 7, false).unwrap();
        assert_eq!(granted, 7);

        rt.fault(EL_RING_A, seconds(0.5));
        // The blind policy leaves chips 1–4 on their (dead) ring: powered,
        // drawing, serving nothing — and the level trace is illegal.
        let rails = rt.rails();
        assert_eq!(rails.powered & rails.impaired & RING_A, RING_A);
        assert_eq!(
            (rails.powered & RING_B, rails.impaired & RING_B),
            (RING_B, 0)
        );
        let t = pama_topology().unwrap();
        let (child, provider) = t.violation(rt.levels()).expect("flat violates legality");
        assert_eq!(provider, EL_RING_A);
        assert!(EL_WORKERS[..4].contains(&child));

        // Recovery clears the impairment at the next slot.
        rt.recover(EL_RING_A, seconds(3.0));
        rt.begin_slot(1, seconds(3.6), 7, false).unwrap();
        assert_eq!(rt.rails().impaired & WORKERS, 0);
        assert!(t.violation(rt.levels()).is_none());
    }

    #[test]
    fn exhausted_governor_triggers_terminal_shutdown_once() {
        let mut rt = TopologyRuntime::new(TopologyMode::Broker, Recorder::disabled()).unwrap();
        rt.begin_slot(0, seconds(0.0), 5, false).unwrap();
        let granted = rt.begin_slot(1, seconds(3.6), 5, true).unwrap();
        assert_eq!(granted, 0);
        assert!(rt.is_terminal());
        assert_eq!(rt.rails().powered & WORKERS, 0);
        assert_eq!(rt.stats().terminal_shutdowns, 1);
        // Final: later slots change nothing.
        let granted = rt.begin_slot(2, seconds(7.2), 5, true).unwrap();
        assert_eq!(granted, 0);
        assert_eq!(rt.stats().terminal_shutdowns, 1);
    }

    #[test]
    fn gauge_goes_stale_when_its_provider_chain_faults() {
        for mode in [TopologyMode::Flat, TopologyMode::Broker] {
            let mut rt = TopologyRuntime::new(mode, Recorder::disabled()).unwrap();
            rt.begin_slot(0, seconds(0.0), 3, false).unwrap();
            assert!(rt.gauge_powered(), "{mode:?}");
            rt.fault(EL_SENSOR_BUS, seconds(0.5));
            assert!(!rt.gauge_powered(), "{mode:?}");
            rt.recover(EL_SENSOR_BUS, seconds(1.0));
            // Broker restores wait out dwell (1 slot); flat is back at the
            // next reconciliation.
            rt.begin_slot(1, seconds(3.6), 3, false).unwrap();
            rt.begin_slot(2, seconds(7.2), 3, false).unwrap();
            assert!(rt.gauge_powered(), "{mode:?}");
        }
    }

    #[test]
    fn blocked_demand_burns_the_bounded_retry_budget() {
        let mut rt = TopologyRuntime::new(TopologyMode::Broker, Recorder::disabled()).unwrap();
        rt.begin_slot(0, seconds(0.0), 7, false).unwrap();
        rt.fault(EL_RING_A, seconds(0.5));
        // Demand 7 with only 3 servable: overflow lands on ring-A workers
        // and retries until abandoned.
        for s in 1..32 {
            rt.begin_slot(s, seconds(3.6 * s as f64), 7, false).unwrap();
        }
        let stats = rt.stats();
        assert!(stats.retries > 0);
        assert!(stats.abandoned > 0);
        // Abandonment is bounded: traffic stopped well before 31 slots of
        // 5 blocked elements each.
        assert!(stats.retries < 60, "{}", stats.retries);
    }
}
