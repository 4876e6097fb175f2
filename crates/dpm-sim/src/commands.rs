//! The controller→worker command protocol of §5.
//!
//! On PAMA the controller PIM "sends frequency and active/stand-by mode
//! change commands to other processors. Each processor checks the command
//! from the controller processor after each computation." Commands travel
//! the unidirectional ring, so a worker's command latency depends on its
//! hop distance, and a frequency change additionally passes through the
//! FPGA write → standby → 10-cycle wake sequence modelled in
//! [`crate::processor`].
//!
//! [`CommandBus`] models the delivery leg: per-command ring latency plus a
//! polling alignment (workers only look for commands between
//! computations). No run path uses it: the board engine applies commands
//! at the slot boundary with the chip transition latencies alone, and the
//! bus shows that delivery adds far less than τ.

use crate::network::RingNetwork;
use dpm_core::units::{seconds, Hertz, Seconds};
use std::collections::VecDeque;

/// A command the controller can issue to one worker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Command {
    /// Enter active mode (wake from standby).
    Wake,
    /// Enter standby.
    Standby,
    /// Change the clock via the FPGA sequence.
    SetFrequency(Hertz),
}

/// A command in flight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InFlight {
    /// Destination processor id.
    pub dst: usize,
    /// When the worker will act on it.
    pub effective_at: Seconds,
    /// The command.
    pub command: Command,
}

/// The delivery model.
#[derive(Debug, Clone)]
pub struct CommandBus {
    /// Command payload size on the ring (a register write: address +
    /// data).
    payload_bytes: usize,
    /// Worst-case polling delay before a busy worker notices a delivered
    /// command (it checks "after each computation").
    poll_interval: Seconds,
    in_flight: VecDeque<InFlight>,
    sent: u64,
}

impl CommandBus {
    /// PAMA-like bus: 8-byte commands, workers poll every `poll_interval`.
    pub fn new(payload_bytes: usize, poll_interval: Seconds) -> Self {
        assert!(payload_bytes >= 1);
        assert!(poll_interval.value() >= 0.0);
        Self {
            payload_bytes,
            poll_interval,
            in_flight: VecDeque::new(),
            sent: 0,
        }
    }

    /// Default PAMA parameters: 8-byte command, 1 ms polling (a worker
    /// mid-FFT checks between butterfly blocks).
    pub fn pama() -> Self {
        Self::new(8, seconds(1e-3))
    }

    /// Commands issued so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Commands still awaiting their effective time.
    pub fn pending(&self) -> usize {
        self.in_flight.len()
    }

    /// Issue `command` from the controller (node 0) to `dst` at time `t`.
    /// Returns the time the worker will act on it.
    pub fn send(
        &mut self,
        ring: &mut RingNetwork,
        dst: usize,
        command: Command,
        t: Seconds,
    ) -> Seconds {
        let transfer = ring.transfer_time(0, dst, self.payload_bytes);
        // Worst-case: the command lands just after the worker's check.
        let effective_at = seconds(t.value() + transfer.value() + self.poll_interval.value());
        self.in_flight.push_back(InFlight {
            dst,
            effective_at,
            command,
        });
        self.sent += 1;
        effective_at
    }

    /// Pop every command that has become effective by time `t`, in
    /// effective-time order.
    pub fn take_effective(&mut self, t: Seconds) -> Vec<InFlight> {
        let mut ready: Vec<InFlight> = Vec::new();
        self.in_flight.retain(|c| {
            if c.effective_at.value() <= t.value() {
                ready.push(*c);
                false
            } else {
                true
            }
        });
        ready.sort_by(|a, b| a.effective_at.value().total_cmp(&b.effective_at.value()));
        ready
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::RingConfig;

    fn ring() -> RingNetwork {
        RingNetwork::new(RingConfig::pama())
    }

    #[test]
    fn delivery_latency_grows_with_hop_distance() {
        let mut r = ring();
        let mut bus = CommandBus::pama();
        let near = bus.send(&mut r, 1, Command::Wake, Seconds::ZERO);
        let far = bus.send(&mut r, 7, Command::Wake, Seconds::ZERO);
        assert!(far.value() > near.value(), "{far} vs {near}");
        assert_eq!(bus.sent(), 2);
    }

    #[test]
    fn poll_interval_dominates_short_transfers() {
        let mut r = ring();
        let mut bus = CommandBus::new(8, seconds(1e-3));
        let eff = bus.send(&mut r, 1, Command::Standby, Seconds::ZERO);
        // Ring transfer of 8 bytes over 1 hop ≈ 150 ns ≪ 1 ms poll.
        assert!(eff.value() > 1e-3 && eff.value() < 1.1e-3, "{eff}");
    }

    #[test]
    fn take_effective_respects_time_and_order() {
        let mut r = ring();
        let mut bus = CommandBus::new(8, seconds(0.0));
        bus.send(&mut r, 7, Command::Wake, Seconds::ZERO); // 7 hops: slowest
        bus.send(&mut r, 1, Command::Standby, Seconds::ZERO); // fastest
        assert_eq!(bus.pending(), 2);
        // Nothing effective immediately before any transfer completes.
        assert!(bus.take_effective(Seconds::ZERO).is_empty());
        let ready = bus.take_effective(seconds(1.0));
        assert_eq!(ready.len(), 2);
        assert_eq!(ready[0].dst, 1, "nearest worker acts first");
        assert_eq!(ready[1].dst, 7);
        assert_eq!(bus.pending(), 0);
    }

    #[test]
    fn partial_drain_keeps_later_commands() {
        let mut r = ring();
        let mut bus = CommandBus::new(1024 * 1024, seconds(0.0)); // slow: ~13 ms/hop
        bus.send(&mut r, 1, Command::Wake, Seconds::ZERO);
        bus.send(&mut r, 7, Command::Wake, Seconds::ZERO);
        let early = bus.take_effective(seconds(0.02));
        assert_eq!(early.len(), 1);
        assert_eq!(early[0].dst, 1);
        assert_eq!(bus.pending(), 1);
    }

    #[test]
    fn frequency_command_carries_its_target() {
        let mut r = ring();
        let mut bus = CommandBus::pama();
        bus.send(
            &mut r,
            3,
            Command::SetFrequency(Hertz::from_mhz(40.0)),
            Seconds::ZERO,
        );
        let ready = bus.take_effective(seconds(1.0));
        match ready[0].command {
            Command::SetFrequency(f) => assert_eq!(f, Hertz::from_mhz(40.0)),
            other => panic!("wrong command {other:?}"),
        }
    }
}
