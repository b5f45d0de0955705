//! Communicator shrink: the survivor agreement a session runs after a
//! rank died, and the [`Recovery`] that re-plans and re-ranks for the
//! survivors.

use std::cell::Cell;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use ccoll_comm::{agree_on_failures, Comm, CommError, CommView, DeadSet};

use super::{CCollSession, CollectiveError};
use crate::plan::check_world;

impl CCollSession {
    /// Recover from rank death: run the survivor agreement over `comm`,
    /// converge with every live rank on an identical dead-set, and
    /// return a [`Recovery`] describing the shrunk world — a new
    /// session planned for the survivors (sharing this session's
    /// measured-performance feedback, so statistics carry across the
    /// shrink) plus the dead-set/epoch needed to build the
    /// [`CommView::shrunk`] view every post-recovery operation runs on.
    ///
    /// `suspects` seeds the agreement with the ranks this rank already
    /// observed dead (the peers named by [`CommError::PeerDead`] from
    /// the aborted operation — **not** mere timeouts, which may be
    /// congestion). `restart` declares that this rank's last operation
    /// aborted; the agreement ORs it across survivors so ranks whose
    /// operation completed before the failure still learn they must
    /// re-run it on the shrunk world (restart-on-survivors semantics —
    /// see the [`ccoll_comm::recover`] module docs).
    ///
    /// Every surviving rank must call `recover` with the same epoch
    /// history (i.e. the same number of prior recoveries), like any
    /// collective. The poisoned plans themselves are revived afterwards
    /// with their `recover(&Recovery)` methods. Any abort reason still
    /// parked on the communicator's profiler is drained first, so a
    /// post-recovery operation cannot spuriously observe a pre-shrink
    /// failure.
    ///
    /// Returns the structured error when this rank itself is in the
    /// agreed dead-set (it must stop participating) or when the
    /// agreement could not complete inside its timeout budget.
    pub fn recover<C: Comm>(
        &self,
        comm: &mut C,
        suspects: &[usize],
        restart: bool,
    ) -> Result<Recovery, CollectiveError> {
        check_world(comm, self.world_size);
        let _ = comm.profiler().take_error();
        let epoch = self.epoch + 1;
        let mut suspect_set = DeadSet::EMPTY;
        for &s in suspects {
            if s < self.world_size {
                suspect_set.insert(s);
            }
        }
        let agreement =
            agree_on_failures(comm, suspect_set, restart).map_err(CollectiveError::Comm)?;
        let members: Vec<usize> = (0..self.world_size)
            .filter(|&r| !agreement.dead.contains(r))
            .collect();
        let session = CCollSession {
            spec: self.spec,
            pipe_values: self.pipe_values,
            world_size: members.len(),
            cpr: self.cpr.clone(),
            cost: self.cost.clone(),
            net: self.net,
            // The rank→node map is stale after a shrink (dead ranks
            // leave holes in the node blocks), so the recovered session
            // plans flat; re-attach a survivor topology with
            // `with_topology` if one is known.
            cluster: None,
            feedback: Arc::clone(&self.feedback),
            // Carrying the slot counter forward keeps post-recovery
            // plan creation consistent across survivors that allocated
            // the same plans pre-shrink.
            next_slot: Cell::new(self.next_slot.get()),
            epoch,
        };
        self.feedback.shrinks.fetch_add(1, Ordering::Relaxed);
        self.feedback
            .agreement_rounds
            .fetch_add(u64::from(agreement.rounds), Ordering::Relaxed);
        Ok(Recovery {
            session,
            dead: agreement.dead,
            members,
            epoch,
            rounds: agreement.rounds,
            restart: agreement.restart,
        })
    }
}

/// The outcome of one communicator shrink (see [`CCollSession::recover`]):
/// the agreed dead-set, the new shrink epoch, and a session re-planned
/// for the dense survivor world. Hand each poisoned plan to its
/// `recover(&Recovery)` method to re-plan it, and wrap the underlying
/// communicator with [`Recovery::comm`] for every post-shrink operation.
#[derive(Debug)]
pub struct Recovery {
    session: CCollSession,
    dead: DeadSet,
    /// Survivors' pre-shrink ranks in ascending order; index = new rank.
    members: Vec<usize>,
    epoch: u32,
    rounds: u32,
    restart: bool,
}

impl Recovery {
    /// The session planned for the shrunk world. It shares the original
    /// session's measured-performance feedback (statistics carry across
    /// the shrink) and carries the new epoch.
    pub fn session(&self) -> &CCollSession {
        &self.session
    }

    /// The agreed dead-set, in pre-shrink rank numbering.
    pub fn dead(&self) -> DeadSet {
        self.dead
    }

    /// The shrink epoch survivors now operate under.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Coordinator rounds the survivor agreement needed (1 unless a
    /// coordinator died mid-agreement).
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// Whether any survivor's pre-shrink operation aborted, i.e. the
    /// operation must be re-run on the shrunk world even by ranks whose
    /// own execution completed.
    pub fn restart(&self) -> bool {
        self.restart
    }

    /// Number of surviving ranks (the shrunk world size).
    pub fn survivors(&self) -> usize {
        self.members.len()
    }

    /// Translate a pre-shrink rank to its dense post-shrink rank
    /// (`None` for dead ranks).
    pub fn new_rank_of(&self, old: usize) -> Option<usize> {
        self.members.binary_search(&old).ok()
    }

    /// Project per-rank counts (indexed by pre-shrink rank) onto the
    /// survivors, in post-shrink rank order — how an allgatherv's
    /// layout shrinks when dead ranks' contributions are dropped.
    ///
    /// # Panics
    /// Panics if `counts` is shorter than the pre-shrink world.
    pub fn surviving_counts(&self, counts: &[usize]) -> Vec<usize> {
        self.members.iter().map(|&old| counts[old]).collect()
    }

    /// A rooted plan's root in post-shrink numbering, or the error its
    /// recovery reports when the root died — a rooted collective cannot
    /// outlive its root.
    pub(crate) fn surviving_root(&self, root: usize) -> Result<usize, CollectiveError> {
        self.new_rank_of(root)
            .ok_or(CollectiveError::Comm(CommError::PeerDead { peer: root }))
    }

    /// Wrap the pre-shrink communicator as the shrunk world: survivors
    /// get dense ranks, every message travels in the new epoch, and all
    /// stale pre-shrink traffic is purged (counted into the session's
    /// recovery statistics). Build one wrapper per recovery and run all
    /// post-shrink operations through it.
    ///
    /// Returns [`CollectiveError::Comm`] with
    /// [`CommError::PeerDead`] naming this rank if it is in the agreed
    /// dead-set.
    pub fn comm<'a, C: Comm>(&self, inner: &'a mut C) -> Result<CommView<'a, C>, CollectiveError> {
        let sc = CommView::shrunk(inner, self.dead, self.epoch).map_err(CollectiveError::Comm)?;
        self.session
            .feedback
            .stale_discarded
            .fetch_add(sc.stale_discarded(), Ordering::Relaxed);
        Ok(sc)
    }
}
