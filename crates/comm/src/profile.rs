//! Per-rank time-breakdown profiling in the paper's categories.
//!
//! The paper's performance-characterization figures (Figs. 7–10) break the
//! end-to-end allreduce time into: `ComDecom` (compression and
//! decompression), `Allgather` (allgather-stage transfer), `Memcpy`
//! (local copies in the reduce-scatter stage), `Wait` (non-overlapped
//! transfer time in the reduce-scatter stage), `Reduction` (reduce
//! operations) and `Others` (allocation and miscellaneous work). The
//! profiler here accumulates exactly those buckets per rank, for both the
//! real-time and virtual-time backends.

use std::fmt;
use std::time::Duration;

use crate::chaos::CommError;

/// The paper's breakdown categories (Fig. 7 legend).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Compression and decompression kernels.
    ComDecom,
    /// Transfer time in the allgather stage (and generally in collective
    /// data-movement phases).
    Allgather,
    /// Local buffer copies.
    Memcpy,
    /// Non-overlapped time blocked in waits during collective computation.
    Wait,
    /// Reduction arithmetic.
    Reduction,
    /// Everything else (allocation, size exchanges, bookkeeping).
    Others,
}

impl Category {
    /// All categories, in the paper's legend order.
    pub const ALL: [Category; 6] = [
        Category::ComDecom,
        Category::Allgather,
        Category::Memcpy,
        Category::Wait,
        Category::Reduction,
        Category::Others,
    ];

    /// Label as printed in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            Category::ComDecom => "ComDecom",
            Category::Allgather => "Allgather",
            Category::Memcpy => "Memcpy",
            Category::Wait => "Wait",
            Category::Reduction => "Reduction",
            Category::Others => "Others",
        }
    }

    fn index(&self) -> usize {
        match self {
            Category::ComDecom => 0,
            Category::Allgather => 1,
            Category::Memcpy => 2,
            Category::Wait => 3,
            Category::Reduction => 4,
            Category::Others => 5,
        }
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Accumulated per-category durations for one rank.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TimeBreakdown {
    nanos: [u64; 6],
}

impl TimeBreakdown {
    /// Zeroed breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulated time in `cat`.
    pub fn get(&self, cat: Category) -> Duration {
        Duration::from_nanos(self.nanos[cat.index()])
    }

    /// Add `d` to `cat`.
    pub fn add(&mut self, cat: Category, d: Duration) {
        self.nanos[cat.index()] = self.nanos[cat.index()].saturating_add(d.as_nanos() as u64);
    }

    /// Sum over all categories.
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.nanos.iter().sum())
    }

    /// Element-wise maximum — useful to summarize "slowest rank" behaviour
    /// across a communicator, which is what determines collective latency.
    pub fn max_with(&mut self, other: &TimeBreakdown) {
        for (a, b) in self.nanos.iter_mut().zip(&other.nanos) {
            *a = (*a).max(*b);
        }
    }

    /// Render as a one-line summary.
    pub fn summary(&self) -> String {
        let mut parts = Vec::new();
        for cat in Category::ALL {
            let d = self.get(cat);
            if d > Duration::ZERO {
                parts.push(format!("{}={:.3}ms", cat.label(), d.as_secs_f64() * 1e3));
            }
        }
        if parts.is_empty() {
            "(empty)".to_string()
        } else {
            parts.join(" ")
        }
    }
}

/// Message-volume counters for one rank. The ring allreduce's
/// bandwidth-optimality claim (`2(N−1)/N · D` bytes per process, paper
/// §III-E) is verified against these in the integration tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Number of point-to-point sends issued.
    pub messages_sent: u64,
    /// Total payload bytes sent.
    pub bytes_sent: u64,
}

/// Per-rank fault-tolerance counters: how often a fault-aware wait
/// timed out, how many of those timeouts were absorbed by a re-armed
/// retry, and how many operations gave up and aborted. Accumulated by
/// the fault-aware `Comm` methods (`wait_recv_retry_in`) and folded
/// into the collective layer's `PlanStats`/`SessionStats` after every
/// execution — the observability trail of the chaos subsystem.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Timed-out waits that were re-armed (the transient-loss path).
    pub retries: u64,
    /// Total wait timeouts observed (retried or fatal).
    pub timeouts: u64,
    /// Operations that exhausted their budget and aborted.
    pub aborts: u64,
}

impl FaultCounters {
    /// Element-wise difference since an earlier snapshot (counters are
    /// monotonic within a run).
    pub fn since(&self, earlier: FaultCounters) -> FaultCounters {
        FaultCounters {
            retries: self.retries.saturating_sub(earlier.retries),
            timeouts: self.timeouts.saturating_sub(earlier.timeouts),
            aborts: self.aborts.saturating_sub(earlier.aborts),
        }
    }
}

/// A per-rank profiler: a [`TimeBreakdown`] plus message-volume counters
/// and scoped-measurement helpers.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    breakdown: TimeBreakdown,
    traffic: TrafficStats,
    faults: FaultCounters,
    /// The unrecoverable fault that most recently aborted a collective
    /// operation, parked here for the plan layer to collect (the
    /// resumable state machines signal "suspended" through their
    /// normal `Poll` path and leave the reason here).
    pending_error: Option<CommError>,
}

impl Profiler {
    /// A fresh profiler (every profiler records).
    pub fn enabled() -> Self {
        Profiler::default()
    }

    /// Record `d` under `cat`.
    pub fn add(&mut self, cat: Category, d: Duration) {
        self.breakdown.add(cat, d);
    }

    /// Snapshot of the accumulated breakdown.
    pub fn breakdown(&self) -> &TimeBreakdown {
        &self.breakdown
    }

    /// Record one outgoing message of `bytes` payload bytes.
    pub fn record_send(&mut self, bytes: usize) {
        self.traffic.messages_sent += 1;
        self.traffic.bytes_sent += bytes as u64;
    }

    /// Message-volume counters.
    pub fn traffic(&self) -> TrafficStats {
        self.traffic
    }

    /// Fault-tolerance counters (monotonic within a run).
    pub fn fault_counters(&self) -> FaultCounters {
        self.faults
    }

    /// Record one re-armed (retried) wait timeout.
    pub fn note_retry(&mut self) {
        self.faults.retries += 1;
    }

    /// Record one wait timeout.
    pub fn note_timeout(&mut self) {
        self.faults.timeouts += 1;
    }

    /// Record an unrecoverable fault that aborts the current
    /// collective operation; [`Profiler::take_error`] collects it.
    pub fn note_abort(&mut self, err: CommError) {
        self.faults.aborts += 1;
        self.pending_error = Some(err);
    }

    /// Collect (and clear) the most recent abort reason, if any.
    pub fn take_error(&mut self) -> Option<CommError> {
        self.pending_error.take()
    }

    /// Reset all counters (e.g. after a warm-up stage, mirroring the
    /// paper's warm-up/execution two-stage measurement protocol §IV-A).
    pub fn reset(&mut self) {
        self.breakdown = TimeBreakdown::new();
        self.traffic = TrafficStats::default();
        self.faults = FaultCounters::default();
        self.pending_error = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_total() {
        let mut b = TimeBreakdown::new();
        b.add(Category::Wait, Duration::from_millis(3));
        b.add(Category::Wait, Duration::from_millis(2));
        b.add(Category::ComDecom, Duration::from_millis(1));
        assert_eq!(b.get(Category::Wait), Duration::from_millis(5));
        assert_eq!(b.total(), Duration::from_millis(6));
    }

    #[test]
    fn max_with_keeps_each_category_maximum() {
        let mut a = TimeBreakdown::new();
        a.add(Category::Memcpy, Duration::from_millis(4));
        let mut b = TimeBreakdown::new();
        b.add(Category::Memcpy, Duration::from_millis(6));
        b.add(Category::Reduction, Duration::from_millis(1));
        a.max_with(&b);
        assert_eq!(a.get(Category::Memcpy), Duration::from_millis(6));
        assert_eq!(a.get(Category::Reduction), Duration::from_millis(1));
    }

    #[test]
    fn reset_clears_what_was_recorded() {
        let mut q = Profiler::enabled();
        q.add(Category::Wait, Duration::from_secs(1));
        assert_eq!(q.breakdown().total(), Duration::from_secs(1));
        q.reset();
        assert_eq!(q.breakdown().total(), Duration::ZERO);
    }

    #[test]
    fn summary_formatting() {
        let mut b = TimeBreakdown::new();
        assert_eq!(b.summary(), "(empty)");
        b.add(Category::Allgather, Duration::from_micros(1500));
        assert!(b.summary().contains("Allgather=1.500ms"));
    }
}
