//! The PAMA board: eight PIMs, the ring interconnect, and the job pipeline.
//!
//! Processor 0 is the controller (it runs the governor and never takes
//! jobs); processors 1–7 are workers. Each slot the board takes an
//! [`dpm_core::params::OperatingPoint`] command, drives the per-chip mode
//! and frequency transitions, and processes the FFT job queue at the
//! Eq. 3 throughput of the active configuration. The board engine
//! ([`crate::fleet::FleetState`]) holds that state for any number of
//! boards; this module holds its arithmetic ([`kernel`]) and the two ways
//! it keeps queued jobs ([`Counts`], [`Timed`]).

use std::collections::VecDeque;

/// Pure per-board kernels: the board arithmetic the engine
/// ([`crate::fleet::FleetState`]) applies to its packed state. As with
/// [`crate::battery::kernel`], the operation order is load-bearing.
pub mod kernel {
    use dpm_core::params::OperatingPoint;
    use dpm_core::platform::Platform;

    /// The chip-activation predicate of a slot-boundary apply: the
    /// controller always runs when the board is on; unblocked worker
    /// chips run until `workers` of them have been activated.
    #[inline]
    pub fn chip_should_run(
        point: &OperatingPoint,
        faulted: bool,
        is_controller: bool,
        activated: usize,
        workers: usize,
    ) -> bool {
        !point.is_off() && !faulted && (is_controller || activated < workers)
    }

    /// Throughput of `point` on `platform` with `healthy_workers` healthy
    /// worker chips, jobs/s (0 when off or no workers).
    pub fn service_rate(
        platform: &Platform,
        point: &OperatingPoint,
        healthy_workers: usize,
    ) -> f64 {
        if point.is_off() {
            return 0.0;
        }
        let workers = point.workers.min(platform.workers()).min(healthy_workers);
        if workers == 0 {
            return 0.0;
        }
        platform
            .perf_model()
            .throughput(workers, point.frequency, point.voltage)
            .value()
    }

    /// Backlog-limited busy-fraction target for an interval of `dt`
    /// seconds at `rate` jobs/s with `pending` job-units outstanding.
    #[inline]
    pub fn work_fraction(rate: f64, dt: f64, pending: f64, elastic: bool) -> f64 {
        let capacity = rate * dt;
        if capacity <= 0.0 {
            0.0
        } else if elastic {
            1.0
        } else {
            (pending / capacity).clamp(0.0, 1.0)
        }
    }

    /// Outstanding work in job units: `backlog` queued jobs minus the
    /// progress already made on the head job.
    #[inline]
    pub fn pending_work(backlog: usize, progress: f64) -> f64 {
        if backlog == 0 {
            0.0
        } else {
            backlog as f64 - progress
        }
    }

    /// Drain up to `capacity` job-units from a queue of `backlog` jobs
    /// with fractional head-job `progress`. Calls `on_complete(consumed)`
    /// once per finished job with the job-units consumed so far (the job
    /// store pops the job and, when it keeps arrival times, interpolates
    /// the completion time). Returns `(jobs_completed, capacity_left)`.
    #[inline]
    pub fn drain_queue(
        capacity: f64,
        progress: &mut f64,
        backlog: usize,
        mut on_complete: impl FnMut(f64),
    ) -> (u64, f64) {
        let mut remaining = capacity;
        let mut completed = 0u64;
        let mut left = backlog;
        while remaining > 0.0 && left > 0 {
            let need = 1.0 - *progress;
            if remaining >= need {
                remaining -= need;
                *progress = 0.0;
                left -= 1;
                completed += 1;
                on_complete(capacity - remaining);
            } else {
                *progress += remaining;
                remaining = 0.0;
            }
        }
        (completed, remaining)
    }

    /// Busy fraction of the interval given the capacity left over.
    #[inline]
    pub fn busy_fraction(capacity: f64, remaining: f64, rate: f64, dt: f64) -> f64 {
        let busy = (capacity - remaining) / (rate * dt).max(1e-12);
        busy.clamp(0.0, 1.0)
    }
}

/// Job-latency statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencyStats {
    /// Completed jobs measured.
    pub count: u64,
    /// Sum of queue+service latencies (s).
    pub sum: f64,
    /// Worst observed latency (s).
    pub max: f64,
}

impl LatencyStats {
    /// Mean latency, or 0 with no samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// How the board engine keeps each board's queued jobs: [`Counts`] for
/// the open-loop fleet, [`Timed`] for a governed run.
pub trait JobStore {
    /// Empty queues for `boards` boards.
    fn for_boards(boards: usize) -> Self;
    /// Jobs queued on board `b`.
    fn backlog(&self, b: usize) -> usize;
    /// Queue `n` jobs arriving at board `b` at time `at` (the caller has
    /// already applied the backlog cap).
    fn push(&mut self, b: usize, n: usize, at: f64);
    /// Board `b`'s head job finished; `done_at` yields its completion
    /// time for stores that measure latency.
    fn complete(&mut self, b: usize, done_at: impl FnOnce() -> f64);
}

/// Queued jobs as per-board counts: the open-loop fleet's store. Memory
/// is one word per board, whatever the backlog.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    backlog: Vec<u32>,
}

impl JobStore for Counts {
    fn for_boards(boards: usize) -> Self {
        Self {
            backlog: vec![0; boards],
        }
    }

    fn backlog(&self, b: usize) -> usize {
        self.backlog[b] as usize
    }

    fn push(&mut self, b: usize, n: usize, _at: f64) {
        // `n` fits the backlog cap, which is far below `u32::MAX`.
        self.backlog[b] += n as u32;
    }

    fn complete(&mut self, b: usize, _done_at: impl FnOnce() -> f64) {
        self.backlog[b] -= 1;
    }
}

/// Queued jobs with their arrival times, oldest first, and the latency
/// of every completed job: a governed run's store.
#[derive(Debug, Clone, Default)]
pub struct Timed {
    queue: Vec<VecDeque<f64>>,
    pub(crate) latency: Vec<LatencyStats>,
}

impl JobStore for Timed {
    fn for_boards(boards: usize) -> Self {
        Self {
            queue: vec![VecDeque::new(); boards],
            latency: vec![LatencyStats::default(); boards],
        }
    }

    fn backlog(&self, b: usize) -> usize {
        self.queue[b].len()
    }

    fn push(&mut self, b: usize, n: usize, at: f64) {
        self.queue[b].extend(std::iter::repeat_n(at, n));
    }

    fn complete(&mut self, b: usize, done_at: impl FnOnce() -> f64) {
        if let Some(arrival) = self.queue[b].pop_front() {
            let lat = (done_at() - arrival).max(0.0);
            let stats = &mut self.latency[b];
            stats.count += 1;
            stats.sum += lat;
            stats.max = stats.max.max(lat);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::tests::one_board;
    use crate::fleet::FleetState;
    use crate::topo::Rails;
    use dpm_core::params::OperatingPoint;
    use dpm_core::units::{volts, Hertz};

    fn board() -> FleetState<Timed> {
        one_board(8.0)
    }

    fn point(workers: usize, mhz: f64) -> OperatingPoint {
        OperatingPoint::new(workers, Hertz::from_mhz(mhz), volts(3.3))
    }

    /// Rails with chips `cut` unpowered and chips `impaired` impaired.
    fn rails(cut: &[usize], impaired: &[usize]) -> Rails {
        let mut r = Rails::NOMINAL;
        for &c in cut {
            r.powered &= !(1 << c);
        }
        for &c in impaired {
            r.impaired |= 1 << c;
        }
        r
    }

    fn jobs_done(b: &FleetState<Timed>) -> u64 {
        b.totals(0).jobs_done
    }

    #[test]
    fn off_board_draws_standby_floor() {
        let mut b = board();
        b.apply(0, OperatingPoint::OFF);
        assert!((b.power(0) - 8.0 * 0.0066).abs() < 1e-9);
    }

    #[test]
    fn full_board_draws_active_power() {
        let mut b = board();
        b.apply(0, point(7, 80.0));
        assert!((b.power(0) - 8.0 * 0.546).abs() < 1e-6, "{}", b.power(0));
    }

    #[test]
    fn partial_activation_mixes_modes() {
        let mut b = board();
        b.apply(0, point(3, 40.0));
        // Controller + 3 workers at 40 MHz (half of 546 mW), 4 standby.
        let expect = 4.0 * 0.273 + 4.0 * 0.0066;
        assert!((b.power(0) - expect).abs() < 1e-6, "{}", b.power(0));
    }

    #[test]
    fn jobs_complete_at_modelled_rate() {
        let mut b = board();
        b.apply(0, point(1, 20.0));
        b.enqueue(0, 3, 0.0);
        // One worker at 20 MHz: one 4.8 s job per 4.8 s.
        let (done, busy) = b.serve(0, 0.0, 4.8, 1.0, false);
        assert_eq!(done, 1);
        assert!(busy > 0.99);
        assert_eq!(b.backlog(0), 2);
        let (done, _) = b.serve(0, 4.8, 9.6, 1.0, false);
        assert_eq!(done, 2);
        assert_eq!(b.backlog(0), 0);
        assert_eq!(jobs_done(&b), 3);
    }

    #[test]
    fn empty_queue_means_idle() {
        let mut b = board();
        b.apply(0, point(7, 80.0));
        let (done, busy) = b.serve(0, 0.0, 4.8, 1.0, false);
        assert_eq!(done, 0);
        assert_eq!(busy, 0.0);
        // Elastic work keeps an empty board busy all the same.
        let (done, busy) = b.serve(0, 0.0, 4.8, 1.0, true);
        assert_eq!(done, 0);
        assert_eq!(busy, 1.0);
    }

    #[test]
    fn brownout_scales_progress() {
        let mut b = board();
        b.apply(0, point(1, 20.0));
        b.enqueue(0, 1, 0.0);
        let (done, _) = b.serve(0, 0.0, 4.8, 0.5, false);
        assert_eq!(done, 0, "half availability: job half done");
        let (done, _) = b.serve(0, 4.8, 4.8, 0.5, false);
        assert_eq!(done, 1);
    }

    #[test]
    fn backlog_cap_drops_events() {
        let mut b = board();
        b.enqueue(0, 200, 0.0);
        b.enqueue(0, 100, 1.0);
        assert_eq!(b.backlog(0), 256);
        assert_eq!(b.totals(0).dropped, 44);
        // A burst of any size is one admission step, and the drop count
        // saturates instead of overflowing.
        b.enqueue(0, usize::MAX, 2.0);
        b.enqueue(0, usize::MAX, 3.0);
        assert_eq!(b.backlog(0), 256);
        assert_eq!(b.totals(0).dropped, u64::MAX);
    }

    #[test]
    fn latency_accounts_queueing() {
        let mut b = board();
        b.apply(0, point(1, 20.0));
        b.enqueue(0, 2, 0.0);
        b.serve(0, 0.0, 9.6, 1.0, false);
        let stats = b.latency(0);
        assert_eq!(stats.count, 2);
        // First job ≈ 4.8 s, second ≈ 9.6 s.
        assert!((stats.mean() - 7.2).abs() < 0.2, "{}", stats.mean());
        assert!((stats.max - 9.6).abs() < 0.2);
    }

    #[test]
    fn faster_point_completes_more_jobs() {
        let mut slow = board();
        slow.apply(0, point(1, 20.0));
        slow.enqueue(0, 50, 0.0);
        slow.serve(0, 0.0, 48.0, 1.0, false);

        let mut fast = board();
        fast.apply(0, point(7, 80.0));
        fast.enqueue(0, 50, 0.0);
        fast.serve(0, 0.0, 48.0, 1.0, false);

        assert!(jobs_done(&fast) > 3 * jobs_done(&slow));
    }

    #[test]
    fn faulted_worker_reduces_throughput_and_power() {
        let mut healthy = board();
        healthy.apply(0, point(7, 80.0));

        let mut degraded = board();
        degraded.set_chip_fault(0, 3, true);
        degraded.set_chip_fault(0, 5, true);
        degraded.apply(0, point(7, 80.0));
        assert_eq!(degraded.service_workers(0), 5);
        assert!(degraded.service_rate(0) < healthy.service_rate(0));
        assert!(degraded.power(0) < healthy.power(0));
        // The 5 healthy workers all run: rate matches a 5-worker command.
        let mut five = board();
        five.apply(0, point(5, 80.0));
        assert!((degraded.service_rate(0) - five.service_rate(0)).abs() < 1e-12);
    }

    #[test]
    fn spare_capacity_routes_around_a_fault() {
        // Command 3 workers with one chip down: 3 healthy chips still run.
        let mut b = board();
        b.set_chip_fault(0, 1, true);
        b.apply(0, point(3, 80.0));
        assert_eq!(b.chip_active(0).count_ones(), 4, "controller + 3 workers");
        assert_eq!(b.chip_active(0) >> 1 & 1, 0);
        let mut clean = board();
        clean.apply(0, point(3, 80.0));
        assert!((b.service_rate(0) - clean.service_rate(0)).abs() < 1e-12);
    }

    #[test]
    fn recovery_restores_capacity_after_reapply() {
        let mut b = board();
        for idx in 1..8 {
            b.set_chip_fault(0, idx, true);
        }
        b.apply(0, point(7, 80.0));
        assert_eq!(b.service_rate(0), 0.0, "no healthy workers, no service");
        for idx in 1..8 {
            b.set_chip_fault(0, idx, false);
        }
        // Recovery alone does not wake anyone…
        assert_eq!(
            b.chip_active(0),
            1,
            "only the controller is up until the next command"
        );
        // …the next governor command does.
        b.apply(0, point(7, 80.0));
        assert!(b.service_rate(0) > 0.0);
        assert_eq!(b.chip_active(0), 0xff);
    }

    #[test]
    fn out_of_range_fault_index_is_ignored() {
        let mut b = board();
        b.set_chip_fault(0, 99, true);
        b.set_chip_fault(0, 8, true);
        b.apply(0, point(7, 80.0));
        assert_eq!(b.service_workers(0), 7);
    }

    #[test]
    fn rail_cut_behaves_like_a_fault_for_routing_and_power() {
        let mut cut = board();
        cut.set_rails(0, rails(&[3, 5], &[]));
        cut.apply(0, point(7, 80.0));

        let mut faulted = board();
        faulted.set_chip_fault(0, 3, true);
        faulted.set_chip_fault(0, 5, true);
        faulted.apply(0, point(7, 80.0));

        assert_eq!(cut.service_workers(0), 5);
        assert!((cut.service_rate(0) - faulted.service_rate(0)).abs() < 1e-12);
        assert!((cut.power(0) - faulted.power(0)).abs() < 1e-9);

        // Restoring the rail is live (mirrors mid-slot fault recovery):
        // the serviceable count rises before the next command re-applies.
        cut.set_rails(0, Rails::NOMINAL);
        assert_eq!(cut.service_workers(0), 7);
        cut.apply(0, point(7, 80.0));
        assert_eq!(cut.service_workers(0), 7);
        // A cut mid-slot drops the chip to standby at once.
        cut.set_rails(0, rails(&[2], &[]));
        assert_eq!(cut.chip_active(0) >> 2 & 1, 0);
        assert!((cut.power(0) - faulted.power(0) - 0.546 + 0.0066).abs() < 1e-9);
    }

    #[test]
    fn impaired_chip_draws_power_but_serves_nothing() {
        let mut b = board();
        b.set_rails(0, rails(&[], &[1, 2]));
        b.apply(0, point(3, 80.0));

        let mut clean = board();
        clean.apply(0, point(3, 80.0));

        // Same activation and draw — chips 1 and 2 burn active power —
        // but only chip 3 actually computes.
        assert!((b.power(0) - clean.power(0)).abs() < 1e-9);
        assert_eq!(b.service_workers(0), 1);
        assert_eq!(clean.service_workers(0), 3);
        let one = {
            let mut w = board();
            w.apply(0, point(1, 80.0));
            w.service_rate(0)
        };
        assert!((b.service_rate(0) - one).abs() < 1e-12);
    }

    #[test]
    fn transition_latency_reported_on_wake() {
        let mut b = board();
        let lat = b.apply(0, point(7, 80.0));
        assert!(lat > 0.0);
        // Re-applying the same point is free.
        assert_eq!(b.apply(0, point(7, 80.0)), 0.0);
    }
}
