//! Deterministic fault injection: the seeded [`FaultPlan`] and the
//! fallible-communication vocabulary ([`CommError`], [`FaultPolicy`]).
//!
//! A fault plan is a *pure function* from a single RNG seed to a
//! schedule of network and process faults. Nothing is sampled at run
//! time: every per-message decision is a hash of
//! `(seed, src, dst, tag, per-edge message index)` and every per-rank
//! stall decision a hash of `(seed, rank, charge index)`, so the same
//! seed produces the byte-identical fault schedule on every run — the
//! property that lets a failing chaos-sweep seed be checked in as a
//! regression test and replayed forever (see `ccoll-bench`'s
//! `chaos_sweep` harness).
//!
//! ## Fault model
//!
//! The simulator models a *reliable transport over a lossy network*
//! (the MPI view: `MPI_Send` never silently drops data, the fabric
//! underneath retries):
//!
//! * **Transient drop** ([`MsgFault::Retransmit`]) — the payload is
//!   redelivered by the transport after a deterministic number of
//!   retransmission timeouts ([`FaultPlan::rto`]). The receiver just
//!   sees a late message; a collective hop with a
//!   [`FaultPolicy`] timeout re-arms its wait and survives.
//! * **Permanent loss** ([`MsgFault::Lose`]) — the retransmission
//!   budget is modeled as exhausted; the payload never arrives. The
//!   receiving collective times out, exhausts its retry budget and
//!   aborts cleanly with [`CommError::Timeout`].
//! * **Delay / duplicate** — extra in-network latency, and ghost
//!   copies that burn ingress-port time without being matched
//!   (duplicate suppression happens below the matching layer, so MPI's
//!   non-overtaking guarantee is preserved). Cross-source *reordering*
//!   emerges from per-edge delays; per-`(src, dst, tag)` FIFO is kept,
//!   as MPI matching semantics require.
//! * **Rank stalls** — a compute charge occasionally takes longer
//!   (straggler / OS-jitter model).
//! * **Rank crash** ([`KillSpec`]) — at the N-th communicator
//!   operation the rank dies mid-collective. Peers observe
//!   [`CommError::PeerDead`] on their next fault-aware wait.
//!
//! Faults are injected in `SimWorld`'s delivery path only when a plan
//! is attached via `SimConfig::with_faults`; the default plan is
//! inert and the simulator's behavior is bit-for-bit unchanged.

use std::fmt;
use std::time::Duration;

use crate::comm::{Ctx, Tag};

/// SplitMix64: the tiny, high-quality mixer every fault decision is
/// derived from. Public so harnesses can derive auxiliary per-case
/// parameters (kill ranks, workload seeds) from the same stream.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fold a sequence of words into one hash, seeded.
fn mix(seed: u64, words: &[u64]) -> u64 {
    let mut h = splitmix64(seed);
    for &w in words {
        h = splitmix64(h ^ w);
    }
    h
}

/// Uniform in `[0, 1)` from a hash.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Crash one rank after its N-th communicator operation (sends,
/// receive posts, waits, barriers and compute charges all count).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillSpec {
    /// The rank that dies.
    pub rank: usize,
    /// Number of communicator operations the rank completes first —
    /// this is what places the crash *mid-collective*.
    pub after_ops: u64,
}

/// The fate of one message, decided deterministically from the plan
/// seed and the message's `(src, dst, tag, edge sequence)` identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgFault {
    /// Delivered normally.
    Deliver,
    /// Delivered after extra in-network delay.
    Delay(Duration),
    /// Dropped, then redelivered by the transport after `attempts`
    /// retransmission timeouts.
    Retransmit {
        /// Number of RTO periods consumed before redelivery.
        attempts: u32,
    },
    /// Permanently lost: the retransmission budget is exhausted and
    /// the payload never arrives.
    Lose,
    /// Delivered, plus a ghost copy that burns ingress-port time but
    /// is suppressed below the matching layer.
    Duplicate,
}

/// A seeded, deterministic schedule of injected faults. See the
/// module docs for the fault model and the reproducibility contract.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// The single seed the entire schedule is derived from.
    pub seed: u64,
    /// Probability a message is transiently dropped (then
    /// retransmitted).
    pub drop: f64,
    /// Probability a message is permanently lost.
    pub loss: f64,
    /// Probability a message suffers extra delay.
    pub delay: f64,
    /// Maximum injected extra delay (uniform in `[0, max_delay)`).
    pub max_delay: Duration,
    /// Probability a message is duplicated in the network.
    pub duplicate: f64,
    /// Probability a compute charge stalls.
    pub stall: f64,
    /// Maximum injected stall (uniform in `[0, max_stall)`).
    pub max_stall: Duration,
    /// Transport retransmission timeout: each consumed retransmission
    /// attempt delays redelivery by one RTO.
    pub rto: Duration,
    /// Maximum retransmission attempts a transient drop can consume.
    pub max_retransmits: u32,
    /// Optional rank crash.
    pub kill: Option<KillSpec>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultPlan {
    /// The inert plan: no faults, simulator behavior unchanged.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            drop: 0.0,
            loss: 0.0,
            delay: 0.0,
            max_delay: Duration::ZERO,
            duplicate: 0.0,
            stall: 0.0,
            max_stall: Duration::ZERO,
            rto: Duration::from_micros(200),
            max_retransmits: 3,
            kill: None,
        }
    }

    /// An inert plan carrying `seed`; enable fault classes with the
    /// `with_*` builders.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..Self::none()
        }
    }

    /// Enable transient drops: probability `p`, redelivered after
    /// 1..=`max_retransmits` periods of `rto`.
    #[must_use]
    pub fn with_drops(mut self, p: f64, rto: Duration, max_retransmits: u32) -> Self {
        self.drop = p;
        self.rto = rto;
        self.max_retransmits = max_retransmits.max(1);
        self
    }

    /// Enable permanent message loss with probability `p`.
    #[must_use]
    pub fn with_loss(mut self, p: f64) -> Self {
        self.loss = p;
        self
    }

    /// Enable extra per-message delay: probability `p`, uniform in
    /// `[0, max)`.
    #[must_use]
    pub fn with_delays(mut self, p: f64, max: Duration) -> Self {
        self.delay = p;
        self.max_delay = max;
        self
    }

    /// Enable network duplicates with probability `p`.
    #[must_use]
    pub fn with_duplicates(mut self, p: f64) -> Self {
        self.duplicate = p;
        self
    }

    /// Enable per-rank compute stalls: probability `p` per charge,
    /// uniform extra time in `[0, max)`.
    #[must_use]
    pub fn with_stalls(mut self, p: f64, max: Duration) -> Self {
        self.stall = p;
        self.max_stall = max;
        self
    }

    /// Crash `rank` after its `after_ops`-th communicator operation.
    #[must_use]
    pub fn with_kill(mut self, rank: usize, after_ops: u64) -> Self {
        self.kill = Some(KillSpec { rank, after_ops });
        self
    }

    /// Whether any fault class is enabled (an inert plan costs the
    /// simulator nothing).
    pub fn is_active(&self) -> bool {
        self.drop > 0.0
            || self.loss > 0.0
            || self.delay > 0.0
            || self.duplicate > 0.0
            || self.stall > 0.0
            || self.kill.is_some()
    }

    /// The fate of the `seq`-th message on edge `(src, dst, ctx, tag)`
    /// — a pure function of the plan, so the schedule replays exactly.
    ///
    /// The draw hashes context and tag as one word laid out as they
    /// once shared a 32-bit tag — generation bit 16, epoch from bit 17,
    /// slot + 1 from bit 22 — so the seeded schedules pinned in the
    /// chaos corpus replay unchanged.
    pub fn message_fault(&self, src: usize, dst: usize, ctx: Ctx, tag: Tag, seq: u64) -> MsgFault {
        if self.loss <= 0.0 && self.drop <= 0.0 && self.delay <= 0.0 && self.duplicate <= 0.0 {
            return MsgFault::Deliver;
        }
        let op = u64::from(ctx.op);
        let key = u64::from(tag) | (op & 1) << 16 | u64::from(ctx.epoch) << 17 | (op >> 1) << 22;
        let h = mix(self.seed, &[0x004D_5347, src as u64, dst as u64, key, seq]);
        let u = unit(h);
        let aux = splitmix64(h ^ 0xD1B5_4A32_D192_ED03);
        let mut band = self.loss;
        if u < band {
            return MsgFault::Lose;
        }
        band += self.drop;
        if u < band {
            let attempts = 1 + (aux % self.max_retransmits.max(1) as u64) as u32;
            return MsgFault::Retransmit { attempts };
        }
        band += self.delay;
        if u < band {
            let extra = Duration::from_nanos((unit(aux) * self.max_delay.as_nanos() as f64) as u64);
            return MsgFault::Delay(extra);
        }
        band += self.duplicate;
        if u < band {
            return MsgFault::Duplicate;
        }
        MsgFault::Deliver
    }

    /// Extra stall injected into `rank`'s `idx`-th compute charge, if
    /// any — a pure function of the plan.
    pub fn stall_fault(&self, rank: usize, idx: u64) -> Option<Duration> {
        if self.stall <= 0.0 {
            return None;
        }
        let h = mix(self.seed, &[0x0053_5441, rank as u64, idx]);
        if unit(h) < self.stall {
            let aux = splitmix64(h ^ 0x94D0_49BB_1331_11EB);
            Some(Duration::from_nanos(
                (unit(aux) * self.max_stall.as_nanos() as f64) as u64,
            ))
        } else {
            None
        }
    }

    /// Hash the first `msgs` message decisions of every directed edge
    /// of an `n`-rank world (default context, `tag` 0..4) plus the
    /// first stall decisions into one fingerprint. Two plans with the same seed
    /// and knobs produce the identical fingerprint — the replay test
    /// pins "same seed → byte-identical fault schedule" with this.
    pub fn fingerprint(&self, n: usize, msgs: u64) -> u64 {
        let mut h = splitmix64(self.seed);
        for src in 0..n {
            for dst in 0..n {
                for tag in 0..4 {
                    for seq in 0..msgs {
                        let f = self.message_fault(src, dst, Ctx::default(), tag, seq);
                        let code = match f {
                            MsgFault::Deliver => 0,
                            MsgFault::Delay(d) => 1 ^ (d.as_nanos() as u64) << 3,
                            MsgFault::Retransmit { attempts } => 2 ^ (attempts as u64) << 3,
                            MsgFault::Lose => 3,
                            MsgFault::Duplicate => 4,
                        };
                        h = splitmix64(h ^ code);
                    }
                }
            }
            for idx in 0..msgs {
                let s = self
                    .stall_fault(src, idx)
                    .map_or(0, |d| d.as_nanos() as u64 | 1);
                h = splitmix64(h ^ s);
            }
        }
        h
    }
}

/// Why a fault-aware communicator operation failed. The structured,
/// non-panicking counterpart of the simulator's deadlock dump: the
/// collective layer converts these into a clean poisoned-plan abort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommError {
    /// A receive exceeded its deadline (and, at the collective layer,
    /// its bounded retry budget).
    Timeout {
        /// Source rank the receive was matching.
        src: usize,
        /// Tag the receive was matching.
        tag: Tag,
        /// Time spent blocked before giving up.
        waited: Duration,
    },
    /// The peer rank is dead (crashed mid-collective) and no
    /// deliverable message from it remains.
    PeerDead {
        /// The dead rank.
        peer: usize,
    },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::Timeout { src, tag, waited } => write!(
                f,
                "receive from rank {src} tag {tag} timed out after {:.3}ms",
                waited.as_secs_f64() * 1e3
            ),
            CommError::PeerDead { peer } => write!(f, "peer rank {peer} is dead"),
        }
    }
}

impl std::error::Error for CommError {}

/// Per-hop fault tolerance of the collective layer: how long one
/// blocking wait may take before it times out, and how many times a
/// timed-out wait is re-armed (the transport redelivers transient
/// drops, so a retry is simply waiting longer — bounded) before the
/// operation aborts. [`FaultPolicy::NONE`] (the default everywhere)
/// means infinite patience: behavior is bit-for-bit the pre-chaos
/// library.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPolicy {
    /// Deadline for one blocking receive; `None` = wait forever.
    pub hop_timeout: Option<Duration>,
    /// How many times a timed-out receive is re-armed before the
    /// collective gives up and aborts.
    pub max_retries: u32,
}

impl FaultPolicy {
    /// Infinite patience: no timeouts, no retries, no aborts.
    pub const NONE: FaultPolicy = FaultPolicy {
        hop_timeout: None,
        max_retries: 0,
    };

    /// Time out each blocking receive after `hop_timeout`, re-arming
    /// up to `max_retries` times before aborting.
    pub fn with_timeout(hop_timeout: Duration, max_retries: u32) -> Self {
        FaultPolicy {
            hop_timeout: Some(hop_timeout),
            max_retries,
        }
    }

    /// Whether timeouts are armed.
    pub fn is_active(&self) -> bool {
        self.hop_timeout.is_some()
    }
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy::NONE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_plan_delivers_everything() {
        let p = FaultPlan::none();
        assert!(!p.is_active());
        for seq in 0..100 {
            assert_eq!(
                p.message_fault(0, 1, Ctx::default(), 7, seq),
                MsgFault::Deliver
            );
            assert_eq!(p.stall_fault(0, seq), None);
        }
    }

    #[test]
    fn decisions_are_deterministic() {
        let a = FaultPlan::seeded(42)
            .with_drops(0.3, Duration::from_micros(100), 4)
            .with_delays(0.2, Duration::from_micros(50))
            .with_loss(0.05)
            .with_stalls(0.1, Duration::from_micros(80));
        let b = a;
        for seq in 0..200 {
            assert_eq!(
                a.message_fault(1, 2, Ctx::default(), 9, seq),
                b.message_fault(1, 2, Ctx::default(), 9, seq)
            );
            assert_eq!(a.stall_fault(3, seq), b.stall_fault(3, seq));
        }
        assert_eq!(a.fingerprint(4, 16), b.fingerprint(4, 16));
    }

    #[test]
    fn different_seeds_differ() {
        let mk = |seed| {
            FaultPlan::seeded(seed)
                .with_drops(0.5, Duration::from_micros(100), 4)
                .fingerprint(4, 32)
        };
        assert_ne!(mk(1), mk(2));
    }

    #[test]
    fn probabilities_roughly_respected() {
        let p = FaultPlan::seeded(7).with_drops(0.25, Duration::from_micros(100), 3);
        let n = 4000;
        let dropped = (0..n)
            .filter(|&s| {
                matches!(
                    p.message_fault(0, 1, Ctx::default(), 3, s),
                    MsgFault::Retransmit { .. }
                )
            })
            .count();
        let frac = dropped as f64 / n as f64;
        assert!((0.2..0.3).contains(&frac), "drop fraction {frac}");
    }

    #[test]
    fn retransmit_attempts_bounded() {
        let p = FaultPlan::seeded(3).with_drops(1.0, Duration::from_micros(100), 4);
        for seq in 0..500 {
            match p.message_fault(0, 1, Ctx::default(), 0, seq) {
                MsgFault::Retransmit { attempts } => {
                    assert!((1..=4).contains(&attempts), "attempts {attempts}")
                }
                other => panic!("expected retransmit, got {other:?}"),
            }
        }
    }

    #[test]
    fn policy_defaults_inert() {
        assert!(!FaultPolicy::default().is_active());
        assert!(FaultPolicy::with_timeout(Duration::from_millis(1), 2).is_active());
    }

    #[test]
    fn comm_error_displays() {
        let t = CommError::Timeout {
            src: 3,
            tag: 9,
            waited: Duration::from_millis(2),
        };
        assert!(t.to_string().contains("rank 3 tag 9"));
        assert!(CommError::PeerDead { peer: 5 }
            .to_string()
            .contains("rank 5"));
    }
}
