//! ULFM-style recovery primitives: survivor agreement and communicator
//! shrink.
//!
//! When a rank dies mid-collective (a seeded [`crate::KillSpec`] on the
//! simulator, a crashed thread on the threaded backend), PR 7's fault
//! layer turns the hang into a structured
//! [`CommError::PeerDead`]/[`CommError::Timeout`] abort. This module is
//! the next step: the survivors *continue*.
//!
//! * [`agree_on_failures`] — a fault-tolerant agreement vote by which
//!   every live rank converges on an **identical** [`DeadSet`] (and a
//!   shared restart flag), even when ranks enter with different local
//!   suspicions and even when further ranks die *during* the vote.
//! * [`CommView::shrunk`](crate::CommView::shrunk) — the communicator view that re-forms the
//!   world over the survivors with **dense re-ranking** and puts every
//!   message in the shrink **epoch**'s context, so stale pre-shrink
//!   messages can never match post-shrink traffic.
//!
//! ## The agreement protocol
//!
//! A coordinator-based two-phase vote (the shape of Open MPI's ULFM
//! agreement, radically simplified by this codebase's failure model —
//! fail-stop rank death, eventually-accurate [`Comm::peer_alive`]):
//!
//! 1. Every rank seeds its local dead-set from the caller's suspicions
//!    plus a `peer_alive` scan, then elects the **lowest believed-live
//!    rank** as coordinator.
//! 2. Non-coordinators send their vote (dead-set mask + restart flag)
//!    to the coordinator and await its decision. The coordinator
//!    gathers one vote from every rank it believes live, OR-folding the
//!    masks; a vote that never arrives within the (generous) timeout
//!    budget marks that rank dead. It then broadcasts the decision.
//! 3. If the coordinator itself dies (observed as `PeerDead`/timeout on
//!    the decision wait), the waiter marks it dead and re-runs the
//!    round — the next-lowest survivor coordinates. Each restart
//!    strictly grows the dead-set, so the protocol terminates in at
//!    most `size` rounds.
//!
//! The decision is whatever mask the deciding coordinator broadcasts,
//! so every rank that returns `Ok` holds a bit-identical dead-set. A
//! rank that finds *itself* in the decided set (it was silent past the
//! budget — the ULFM "you were excluded" case) gets
//! `Err(CommError::PeerDead { peer: self })` and must not enter the
//! shrunk world.
//!
//! ## Contexts under shrink
//!
//! A message matches on `(source, ctx, tag)` ([`crate::Ctx`]); the tag
//! is the schedule's own. A plan operation's messages carry `ctx.op`
//! (plan slot and start generation), control traffic — agreement votes
//! and decisions, the shrunk barrier — carries `op == 0`, and every
//! message posted through a shrunk view carries its `ctx.epoch` (0 =
//! never shrunk; a nested shrink's epoch replaces the one it wraps).
//! The agreement runs in the context of the communicator it is handed,
//! i.e. the epoch it leaves.
//!
//! The epoch is what makes "discard stale messages" free: a pre-shrink
//! payload still in flight carries the old epoch and simply never
//! matches a post-shrink receive.
//! [`CommView::shrunk`](crate::CommView::shrunk) additionally purges what is already queued for this rank *from
//! other epochs* — and only from them: survivors cross the shrink at
//! different times, so new-epoch messages from faster peers may already
//! be queued and must survive ([`Comm::purge_stale`]).

use std::fmt;
use std::time::Duration;

use bytes::Bytes;

use crate::chaos::{CommError, FaultPolicy};
use crate::comm::{Comm, RecvReq, Tag};
use crate::profile::Category;

/// Largest world the recovery layer supports (the dead-set is a
/// fixed-width 128-bit mask — the paper's full node count).
pub const MAX_RECOVERY_WORLD: usize = 128;

/// The agreement's vote and decision tags: control traffic, so never
/// in a plan operation's context.
const VOTE_TAG: Tag = 0xE000;
const DECIDE_TAG: Tag = 0xE001;
/// Reserved schedule-tag base for the point-to-point check-in of a
/// rank-mapped [`crate::CommView`]'s barrier.
pub(crate) const BARRIER_TAG_BASE: Tag = 0xE800;

/// A set of dead ranks, in the rank space of the communicator the
/// agreement ran on. Fixed-width bitmask; worlds up to
/// [`MAX_RECOVERY_WORLD`] ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct DeadSet(u128);

impl DeadSet {
    /// The empty set.
    pub const EMPTY: DeadSet = DeadSet(0);

    /// Build a set from an iterator of dead ranks.
    ///
    /// # Panics
    /// Panics if a rank is ≥ [`MAX_RECOVERY_WORLD`].
    pub fn from_ranks<I: IntoIterator<Item = usize>>(ranks: I) -> Self {
        let mut s = DeadSet::EMPTY;
        for r in ranks {
            s.insert(r);
        }
        s
    }

    /// Mark `rank` dead.
    ///
    /// # Panics
    /// Panics if `rank` is ≥ [`MAX_RECOVERY_WORLD`].
    pub fn insert(&mut self, rank: usize) {
        assert!(rank < MAX_RECOVERY_WORLD, "rank {rank} out of range");
        self.0 |= 1u128 << rank;
    }

    /// Whether `rank` is in the set.
    pub fn contains(&self, rank: usize) -> bool {
        rank < MAX_RECOVERY_WORLD && self.0 & (1u128 << rank) != 0
    }

    /// Number of dead ranks.
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether no rank is dead.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Union with another set.
    fn union(self, other: DeadSet) -> DeadSet {
        DeadSet(self.0 | other.0)
    }

    /// Iterate the dead ranks in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let bits = self.0;
        (0..MAX_RECOVERY_WORLD).filter(move |r| bits & (1u128 << r) != 0)
    }

    fn to_le_bytes(self) -> [u8; 16] {
        self.0.to_le_bytes()
    }

    fn from_le_bytes(b: [u8; 16]) -> Self {
        DeadSet(u128::from_le_bytes(b))
    }
}

impl fmt::Display for DeadSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, r) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, "}}")
    }
}

/// The outcome of a successful [`agree_on_failures`] vote: identical on
/// every rank that returns `Ok`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Agreement {
    /// The agreed set of dead ranks (in the voting communicator's rank
    /// space).
    pub dead: DeadSet,
    /// How many coordinator rounds this rank needed (1 unless a
    /// coordinator died mid-vote).
    pub rounds: u32,
    /// Whether any voter requested a restart (its collective aborted
    /// mid-flight, so survivors must re-run it even if their own copy
    /// completed).
    pub restart: bool,
}

/// Vote payload: 16-byte dead mask + 1 flag byte (bit 0 = restart).
fn encode_vote(dead: DeadSet, restart: bool) -> Bytes {
    let mut buf = [0u8; 17];
    buf[..16].copy_from_slice(&dead.to_le_bytes());
    buf[16] = u8::from(restart);
    Bytes::copy_from_slice(&buf)
}

fn decode_vote(payload: &[u8]) -> Option<(DeadSet, bool)> {
    let mask: [u8; 16] = payload.get(..16)?.try_into().ok()?;
    Some((DeadSet::from_le_bytes(mask), *payload.get(16)? & 1 != 0))
}

/// The per-hop patience the agreement uses when the communicator has no
/// active [`FaultPolicy`] of its own: without *some* deadline the vote
/// could hang on a rank that died before the protocol started.
fn effective_policy<C: Comm>(comm: &C) -> FaultPolicy {
    let p = comm.fault_policy();
    if p.is_active() {
        p
    } else {
        FaultPolicy::with_timeout(Duration::from_millis(2), 8)
    }
}

/// Wait for one protocol message with a bounded number of re-armed
/// timeouts. Unlike [`Comm::wait_recv_retry_in`], the attempt budget is
/// a parameter (the decision wait must outlast a coordinator that is
/// itself spending its timeout budget on dead voters), and exhaustion
/// cancels the posted receive.
fn wait_vote<C: Comm>(
    comm: &mut C,
    req: RecvReq,
    per_hop: Duration,
    attempts: u32,
) -> Result<Bytes, CommError> {
    let mut req = req;
    let mut tries = 0u32;
    loop {
        match comm.wait_recv_timeout_in(req, Some(per_hop), Category::Others) {
            Ok(payload) => return Ok(payload),
            Err((r, CommError::Timeout { .. })) if tries + 1 < attempts => {
                tries += 1;
                comm.profiler().note_timeout();
                comm.profiler().note_retry();
                req = r;
            }
            Err((r, err)) => {
                if matches!(err, CommError::Timeout { .. }) {
                    comm.profiler().note_timeout();
                }
                comm.cancel_recv(r);
                return Err(err);
            }
        }
    }
}

/// Fault-tolerant survivor agreement (see the module docs for the
/// protocol). Collective over every live rank of `comm`: each passes
/// its locally suspected dead ranks (`suspects` — ranks it *knows*
/// dead, e.g. from a [`CommError::PeerDead`]; do **not** pass mere
/// timeout sources) and whether its own collective aborted
/// (`restart`). Every rank that returns `Ok` holds an identical
/// [`Agreement`].
///
/// The votes travel in `comm`'s own context, the epoch the agreement
/// leaves: the shrink that follows purges whatever of them is left, and
/// the next recovery runs on the shrunk communicator, in the next.
///
/// # Errors
/// `Err(CommError::PeerDead { peer: my_rank })` when the vote decided
/// this rank is dead (it was silent past every budget — it must not
/// join the shrunk world), and `Err(CommError::Timeout { .. })` when
/// every candidate coordinator was exhausted without a decision.
///
/// # Panics
/// Panics if the world exceeds [`MAX_RECOVERY_WORLD`] ranks.
pub fn agree_on_failures<C: Comm>(
    comm: &mut C,
    suspects: DeadSet,
    restart: bool,
) -> Result<Agreement, CommError> {
    let n = comm.size();
    let me = comm.rank();
    assert!(
        n <= MAX_RECOVERY_WORLD,
        "agreement supports at most {MAX_RECOVERY_WORLD} ranks"
    );
    let policy = effective_policy(comm);
    let per_hop = policy.hop_timeout.expect("effective policy is active");
    // A silent *live* rank is at worst stuck in a prior collective's
    // blocking wait, which the policy bounds at (retries+1) hops —
    // give voters twice that before presuming death.
    let vote_attempts = (policy.max_retries + 1) * 2;
    // The coordinator may spend its full vote budget on every dead
    // rank before deciding; the decision wait must outlast all of it.
    let decide_attempts = vote_attempts * n as u32;

    let mut dead = suspects;
    for r in 0..n {
        if r != me && !comm.peer_alive(r) {
            dead.insert(r);
        }
    }
    let mut restart = restart;
    if n == 1 {
        return Ok(Agreement {
            dead,
            rounds: 0,
            restart,
        });
    }

    let mut rounds = 0u32;
    let mut last_err = None;
    while rounds < n as u32 {
        rounds += 1;
        let Some(coord) = (0..n).find(|r| !dead.contains(*r)) else {
            break;
        };
        if coord == me {
            // Gather one vote from every rank I believe live; silence
            // past the budget marks the voter dead. Votes are eager
            // sends, so gathering sequentially loses nothing.
            for r in (0..n).filter(|&r| r != me) {
                if dead.contains(r) {
                    continue;
                }
                let req = comm.irecv(r, VOTE_TAG);
                match wait_vote(comm, req, per_hop, vote_attempts) {
                    Ok(payload) => {
                        if let Some((mask, rs)) = decode_vote(&payload) {
                            dead = dead.union(mask);
                            restart |= rs;
                        }
                    }
                    Err(CommError::PeerDead { peer }) => dead.insert(peer),
                    Err(_) => dead.insert(r),
                }
            }
            // An aborted collective is implied whenever someone died.
            restart |= !dead.is_empty();
            let decision = encode_vote(dead, restart);
            for r in (0..n).filter(|&r| r != me && !dead.contains(r)) {
                comm.isend(r, DECIDE_TAG, decision.clone());
            }
            return Ok(Agreement {
                dead,
                rounds,
                restart,
            });
        }
        // Voter: send my state to the coordinator, await its decision.
        comm.isend(coord, VOTE_TAG, encode_vote(dead, restart));
        let req = comm.irecv(coord, DECIDE_TAG);
        match wait_vote(comm, req, per_hop, decide_attempts) {
            Ok(payload) => {
                let Some((mask, rs)) = decode_vote(&payload) else {
                    return Err(CommError::Timeout {
                        src: coord,
                        tag: DECIDE_TAG,
                        waited: Duration::ZERO,
                    });
                };
                if mask.contains(me) {
                    // The vote decided *I* am dead: excluded.
                    return Err(CommError::PeerDead { peer: me });
                }
                return Ok(Agreement {
                    dead: mask,
                    rounds,
                    restart: rs,
                });
            }
            Err(err) => {
                // Coordinator died (or was silent past the full
                // budget): mark it and re-run with the next survivor.
                dead.insert(coord);
                last_err = Some(err);
            }
        }
    }
    Err(last_err.unwrap_or(CommError::Timeout {
        src: me,
        tag: DECIDE_TAG,
        waited: Duration::ZERO,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dead_set_basics() {
        let mut s = DeadSet::EMPTY;
        assert!(s.is_empty());
        s.insert(3);
        s.insert(127);
        assert!(s.contains(3) && s.contains(127) && !s.contains(4));
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 127]);
        assert_eq!(s.to_string(), "{3,127}");
        let t = DeadSet::from_ranks([4]);
        assert_eq!(s.union(t).len(), 3);
        assert_eq!(DeadSet::from_le_bytes(s.to_le_bytes()), s);
    }

    #[test]
    fn vote_payload_round_trips() {
        let s = DeadSet::from_ranks([0, 9, 64]);
        for restart in [false, true] {
            let enc = encode_vote(s, restart);
            assert_eq!(decode_vote(&enc), Some((s, restart)));
        }
        assert_eq!(decode_vote(&[0u8; 3]), None);
    }

    #[test]
    #[should_panic(expected = "epoch 0")]
    fn epoch_zero_rejected() {
        crate::SimWorld::with_ranks(1).run(|c| {
            let _ = crate::CommView::shrunk(c, DeadSet::EMPTY, 0);
        });
    }
}
