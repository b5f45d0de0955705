//! Measured-performance state: what a session and its plans record about
//! the executions they ran, and what `Algorithm::Auto` reads back.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use ccoll_comm::FaultCounters;

#[cfg(doc)]
use crate::{Algorithm, AllreducePlan, CCollSession};

/// Session-owned measured-performance state, shared by every plan the
/// session (and its clones) creates. Plans drain the compression-ratio
/// sample their workspace pool accumulated during each execution and
/// fold it in here; [`Algorithm::Auto`] consults the running average —
/// at plan-creation time for new plans, and through a one-shot post-
/// warm-up re-rank on existing `Auto` plans — so schedule selection
/// tracks the *measured* ratio of the live workload instead of the
/// codec's nominal planning figure.
#[derive(Debug, Default)]
pub(crate) struct SessionFeedback {
    /// EWMA of observed compression ratios, stored as `f64` bits.
    /// Zero (the bits of `0.0`, never a valid ratio) means "no sample
    /// yet". Plain relaxed atomics: ranks own distinct sessions, and a
    /// lost update between clones only delays convergence of the EWMA.
    ratio_bits: AtomicU64,
    /// Completed plan executions across every plan this session (and its
    /// clones) created.
    pub(super) executions: AtomicU64,
    /// EWMA of per-execution makespans in nanoseconds (0 = no sample).
    pub(super) makespan_ewma_nanos: AtomicU64,
    /// Wait timeouts absorbed by a re-armed retry, across all plans.
    pub(super) retries: AtomicU64,
    /// Total wait timeouts observed, across all plans.
    pub(super) timeouts: AtomicU64,
    /// Executions that aborted on an unrecoverable fault.
    pub(super) aborts: AtomicU64,
    /// Operations currently in flight across every plan this session
    /// (and its clones) created: incremented by each plan `start()`,
    /// decremented when the operation's handle is dropped (whether it
    /// completed, aborted, or was abandoned mid-operation).
    pub(crate) live_ops: AtomicU64,
    /// Communicator shrinks performed through [`CCollSession::recover`]
    /// (each successful survivor agreement counts once, even when the
    /// agreed dead-set turned out empty — the epoch still advanced).
    pub(super) shrinks: AtomicU64,
    /// Survivor-agreement coordinator rounds summed across shrinks (one
    /// round per coordinator tried; >1 means a coordinator died
    /// mid-agreement).
    pub(super) agreement_rounds: AtomicU64,
    /// Dead-epoch messages and stale posted receives discarded when a
    /// shrunk communicator purged pre-shrink traffic.
    pub(super) stale_discarded: AtomicU64,
    /// Online α–β calibration corrections, stored as `f64` bits (the
    /// zero bit-pattern — never a valid scale — means "uncalibrated"
    /// and decodes to 1.0). Written only with values derived from a
    /// communicator-agreed measurement ratio, and always *stored* (not
    /// read-modify-written) so ranks sharing one feedback through
    /// session clones apply a round's identical correction idempotently.
    alpha_scale_bits: AtomicU64,
    /// β counterpart of `alpha_scale_bits`: the model bandwidth is
    /// divided by this scale.
    beta_scale_bits: AtomicU64,
}

impl SessionFeedback {
    pub(crate) fn record_ratio(&self, sample: f64) {
        if !(sample.is_finite() && sample > 0.0) {
            return;
        }
        let next = match self.ratio() {
            Some(prev) => 0.5 * prev + 0.5 * sample,
            None => sample,
        };
        self.ratio_bits.store(next.to_bits(), Ordering::Relaxed);
    }

    pub(crate) fn ratio(&self) -> Option<f64> {
        let bits = self.ratio_bits.load(Ordering::Relaxed);
        if bits == 0 {
            None
        } else {
            Some(f64::from_bits(bits))
        }
    }

    pub(crate) fn record_execution(&self, makespan: Duration) {
        self.executions.fetch_add(1, Ordering::Relaxed);
        let ns = (makespan.as_nanos() as u64).max(1);
        let prev = self.makespan_ewma_nanos.load(Ordering::Relaxed);
        let next = if prev == 0 { ns } else { prev / 2 + ns / 2 };
        self.makespan_ewma_nanos.store(next, Ordering::Relaxed);
    }

    pub(crate) fn net_scales(&self) -> (f64, f64) {
        let decode = |bits: u64| if bits == 0 { 1.0 } else { f64::from_bits(bits) };
        (
            decode(self.alpha_scale_bits.load(Ordering::Relaxed)),
            decode(self.beta_scale_bits.load(Ordering::Relaxed)),
        )
    }

    pub(crate) fn store_net_scales(&self, alpha: f64, beta: f64) {
        self.alpha_scale_bits
            .store(alpha.to_bits(), Ordering::Relaxed);
        self.beta_scale_bits
            .store(beta.to_bits(), Ordering::Relaxed);
    }

    pub(crate) fn record_faults(&self, delta: FaultCounters) {
        if delta.retries > 0 {
            self.retries.fetch_add(delta.retries, Ordering::Relaxed);
        }
        if delta.timeouts > 0 {
            self.timeouts.fetch_add(delta.timeouts, Ordering::Relaxed);
        }
        if delta.aborts > 0 {
            self.aborts.fetch_add(delta.aborts, Ordering::Relaxed);
        }
    }
}

/// Aggregate measured-performance state of one session (see
/// [`CCollSession::stats`]): every plan the session created feeds its
/// per-execution sample in here on completion, so this is the
/// session-wide companion of the per-plan [`PlanStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SessionStats {
    /// Completed plan executions across all of this session's plans.
    pub executions: u64,
    /// Exponentially weighted running average of per-execution makespans
    /// on the backend clock ([`Duration::ZERO`] until the first sample).
    pub ewma_makespan: Duration,
    /// The session's measured compression-ratio EWMA (the same value
    /// [`CCollSession::measured_ratio`] reports).
    pub measured_ratio: Option<f64>,
    /// Wait timeouts absorbed by re-armed retries across all plans
    /// (zero unless a fault policy is active).
    pub retries: u64,
    /// Total wait timeouts observed across all plans.
    pub timeouts: u64,
    /// Executions that aborted on an unrecoverable fault.
    pub aborts: u64,
    /// Communicator shrinks performed through [`CCollSession::recover`]
    /// (zero on any fault-free session — recovery costs nothing unless
    /// entered).
    pub shrinks: u64,
    /// Survivor-agreement coordinator rounds summed across shrinks.
    pub agreement_rounds: u64,
    /// Dead-epoch messages and stale posted receives discarded when
    /// shrunk communicators purged pre-shrink traffic.
    pub stale_discarded: u64,
}

/// Measured per-execution statistics a plan accumulates (see
/// [`AllreducePlan::stats`] — every plan type exposes the same `stats`
/// accessor): how often it ran, how long the last execution took end to
/// end on its backend's clock (virtual time on the simulator, wall time
/// on threads), a running average of those makespans, and the
/// compression ratio its codec achieved on the live data. Nonblocking
/// executions measure `start` → completion, so overlapped caller compute
/// is included — the number an overlap study wants.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PlanStats {
    /// Completed executions (blocking `execute_into` calls plus
    /// completed `start`/`progress`/`complete` cycles).
    pub executions: u64,
    /// End-to-end duration of the most recent execution.
    pub last_makespan: Duration,
    /// Exponentially weighted running average of execution makespans
    /// ([`Duration::ZERO`] until the first execution).
    pub ewma_makespan: Duration,
    /// Compression ratio measured during the most recent execution, if
    /// the plan's codec compressed anything.
    pub observed_ratio: Option<f64>,
    /// Wait timeouts this plan's executions absorbed with a re-armed
    /// retry (zero unless a fault policy is active on the `Comm`).
    pub retries: u64,
    /// Total wait timeouts this plan's executions observed.
    pub timeouts: u64,
    /// Executions of this plan that aborted on an unrecoverable fault.
    pub aborts: u64,
    /// Communicator shrinks this plan has been re-planned through (see
    /// the plan's `recover` method).
    pub shrinks: u64,
}

impl PlanStats {
    /// Fold one completed execution into the stats.
    pub(crate) fn record(&mut self, makespan: Duration) {
        self.executions += 1;
        self.last_makespan = makespan;
        self.ewma_makespan = if self.executions == 1 {
            makespan
        } else {
            self.ewma_makespan / 2 + makespan / 2
        };
    }

    /// Fold the fault counters one execution accrued into the stats.
    pub(crate) fn fold_faults(&mut self, delta: FaultCounters) {
        self.retries += delta.retries;
        self.timeouts += delta.timeouts;
        self.aborts += delta.aborts;
    }
}
