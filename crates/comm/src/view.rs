//! [`CommView`]: the one communicator wrapper — a rank map plus a tag
//! stamp over any [`Comm`].
//!
//! Which operation, which group and which shrink epoch a message
//! belongs to is a property of the communicator a schedule is handed,
//! not of the schedule. A schedule posts bare schedule tags
//! (`< 0x10000`) to ranks `0..size()`; the view it runs on maps the rank
//! and ORs its stamp into the tag. Three constructors cover every use:
//!
//! * [`CommView::stamped`] — identity ranks, every tag stamped: the
//!   per-operation view a plan handle steps its machine through (the
//!   stamp is the operation's tag base — plan slot and start
//!   generation).
//! * [`CommView::group`] — a borrowed member table, no stamp: the
//!   node-local / lane-owner groups of the hierarchical schedules.
//!   Groups need no tag bits: concurrent groups of one phase have
//!   disjoint member sets and distinct phases use distinct tag families.
//! * [`CommView::shrunk`] — the survivors of a [`DeadSet`], densely
//!   re-ranked, every tag stamped with the shrink epoch (layout in
//!   [`crate::recover`]), dead-epoch traffic purged at construction.
//!
//! Views nest (`group(stamped(shrunk(c)))` is what a hierarchical leg
//! of a post-recovery operation runs on) and compose in either order:
//! stamps are OR'd and rank maps chain. What every view keeps:
//!
//! 1. **Stamps are OR'd.** Operation bits (16, 22..32), epoch bits
//!    (17..22) and schedule tags (0..16) are disjoint, so OR is `+`. On
//!    an identity-map view a tag that overlaps the stamp is a layout
//!    bug and fails a debug assertion; a mapped view does not check,
//!    because nested shrinks legitimately overlap in the epoch field.
//! 2. **Errors come back in view terms, per shape.** A mapped view
//!    translates the ranks of a [`CommError`]; a shrunk view also
//!    strips [`EPOCH_FIELD`] from a reported tag; a stamped view passes
//!    errors through, so a timeout names the full wire tag.
//! 3. **[`Comm::purge_stale`] composes**: the inner communicator sees
//!    `keep | stamp`.
//! 4. **[`Comm::barrier`]** is the inner barrier on an identity map and
//!    a point-to-point check-in with view rank 0 on a mapped one — the
//!    inner barrier would wait on non-members (or the dead) forever.
//! 5. **Building a view allocates nothing** except `shrunk`'s member
//!    table (once per recovery), so schedules build them per `step`.

use std::borrow::Cow;
use std::time::Duration;

use bytes::Bytes;

use crate::chaos::{CommError, FaultPolicy};
use crate::comm::{Comm, RecvReq, SendReq, Tag};
use crate::cost::Kernel;
use crate::profile::{Category, Profiler};
use crate::recover::{epoch_stamp, DeadSet, BARRIER_TAG_BASE, EPOCH_FIELD};
use crate::time::SimTime;

/// A rank-mapped, tag-stamped view of another communicator (see the
/// [module docs](self) for the three shapes and what they guarantee).
/// Wraps by mutable borrow; all [`Comm`] methods speak view ranks.
pub struct CommView<'a, C: Comm> {
    inner: &'a mut C,
    /// View rank → inner rank, ascending; `None` is the identity map.
    members: Option<Cow<'a, [usize]>>,
    /// My rank in the view.
    rank: usize,
    /// OR'd into every tag the view posts.
    stamp: Tag,
    /// The shrink epoch (0 unless built by [`CommView::shrunk`]).
    epoch: u32,
    /// Dead-epoch messages discarded by [`CommView::shrunk`].
    purged: u64,
}

impl<'a, C: Comm> CommView<'a, C> {
    fn new(inner: &'a mut C, members: Option<Cow<'a, [usize]>>, stamp: Tag) -> Self {
        let me = inner.rank();
        let rank = members.as_deref().map_or(me, |m| {
            m.binary_search(&me).expect("calling rank must be a member")
        });
        CommView {
            inner,
            members,
            rank,
            stamp,
            epoch: 0,
            purged: 0,
        }
    }

    /// `inner` with `stamp` OR'd into every tag; ranks unchanged.
    pub fn stamped(inner: &'a mut C, stamp: Tag) -> Self {
        Self::new(inner, None, stamp)
    }

    /// The group `members` (inner ranks, strictly ascending) of `inner`;
    /// tags pass through unstamped.
    ///
    /// # Panics
    /// Panics when the calling rank is not in `members`.
    pub fn group(inner: &'a mut C, members: &'a [usize]) -> Self {
        Self::new(inner, Some(Cow::Borrowed(members)), 0)
    }

    /// Re-form `inner`'s world over the survivors of `dead` (survivor
    /// `i` in ascending inner-rank order becomes rank `i`), entering
    /// shrink epoch `epoch` — 1 for a first shrink; a nested shrink of
    /// an epoch-`e` world passes `e + 1`. Purges this rank's
    /// *dead-epoch* traffic (entries whose epoch field differs from the
    /// new stamp; what a faster survivor already sent into the new
    /// epoch is kept) and records the count
    /// ([`CommView::stale_discarded`]).
    ///
    /// # Errors
    /// `Err(CommError::PeerDead { peer })` when this rank is itself in
    /// `dead` (an excluded rank must not enter the shrunk world).
    pub fn shrunk(inner: &'a mut C, dead: DeadSet, epoch: u32) -> Result<Self, CommError> {
        let me = inner.rank();
        if dead.contains(me) {
            return Err(CommError::PeerDead { peer: me });
        }
        let members = (0..inner.size()).filter(|r| !dead.contains(*r)).collect();
        let stamp = epoch_stamp(epoch);
        let purged = inner.purge_stale(stamp);
        Ok(CommView {
            epoch,
            purged,
            ..Self::new(inner, Some(Cow::Owned(members)), stamp)
        })
    }

    /// The shrink epoch this view stamps into tags (0 for a view not
    /// built by [`CommView::shrunk`]).
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// How many stale pre-shrink messages (posted receives and queued
    /// undelivered payloads) were discarded when this rank crossed the
    /// epoch.
    pub fn stale_discarded(&self) -> u64 {
        self.purged
    }

    /// The inner communicator (inner rank space, unstamped). The
    /// recovery layer runs a *nested* agreement on it when another rank
    /// dies after a shrink.
    pub fn inner_mut(&mut self) -> &mut C {
        self.inner
    }

    /// The inner rank and wire tag of view `rank` and schedule `tag`.
    fn wire(&self, rank: usize, tag: Tag) -> (usize, Tag) {
        let inner = match &self.members {
            Some(members) => members[rank],
            None => {
                let stamp = self.stamp;
                debug_assert_eq!(tag & stamp, 0, "tag {tag:#x} overlaps stamp {stamp:#x}");
                rank
            }
        };
        (inner, tag | self.stamp)
    }

    fn translate_err(&self, err: CommError) -> CommError {
        let Some(members) = &self.members else {
            return err;
        };
        let view = |inner: usize| members.binary_search(&inner).unwrap_or(inner);
        let strip = if self.epoch > 0 { EPOCH_FIELD } else { 0 };
        match err {
            CommError::Timeout { src, tag, waited } => CommError::Timeout {
                src: view(src),
                tag: tag & !strip,
                waited,
            },
            CommError::PeerDead { peer } => CommError::PeerDead { peer: view(peer) },
            exhausted @ CommError::EpochsExhausted { .. } => exhausted,
        }
    }
}

impl<C: Comm> Comm for CommView<'_, C> {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        match &self.members {
            Some(members) => members.len(),
            None => self.inner.size(),
        }
    }

    fn isend(&mut self, dst: usize, tag: Tag, payload: Bytes) -> SendReq {
        let (dst, tag) = self.wire(dst, tag);
        self.inner.isend(dst, tag, payload)
    }

    fn irecv(&mut self, src: usize, tag: Tag) -> RecvReq {
        let (src, tag) = self.wire(src, tag);
        self.inner.irecv(src, tag)
    }

    fn wait_send_in(&mut self, req: SendReq, cat: Category) {
        self.inner.wait_send_in(req, cat);
    }

    fn wait_recv_in(&mut self, req: RecvReq, cat: Category) -> Bytes {
        self.inner.wait_recv_in(req, cat)
    }

    fn test_recv(&mut self, req: &RecvReq) -> bool {
        self.inner.test_recv(req)
    }

    fn test_send(&mut self, req: &SendReq) -> bool {
        self.inner.test_send(req)
    }

    /// The inner rank's idle: its next event, whichever view posted it.
    fn idle(&mut self) -> bool {
        self.inner.idle()
    }

    /// Synchronize the view's members only: everyone checks in with
    /// view rank 0, which then releases everyone (an identity-map view
    /// has every inner rank as a member and uses the inner barrier).
    fn barrier(&mut self) {
        if self.members.is_none() {
            return self.inner.barrier();
        }
        let n = self.size();
        let token = Bytes::from_static(&[0xB7]);
        if self.rank == 0 {
            for r in 1..n {
                self.recv(r, BARRIER_TAG_BASE);
            }
            for r in 1..n {
                self.send(r, BARRIER_TAG_BASE + 1, token.clone());
            }
        } else {
            self.send(0, BARRIER_TAG_BASE, token);
            self.recv(0, BARRIER_TAG_BASE + 1);
        }
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn charge_duration(&mut self, d: Duration, cat: Category) {
        self.inner.charge_duration(d, cat);
    }

    fn kernel_cost(&self, kernel: Kernel, bytes: usize) -> Duration {
        self.inner.kernel_cost(kernel, bytes)
    }

    fn profiler(&mut self) -> &mut Profiler {
        self.inner.profiler()
    }

    fn wait_recv_timeout_in(
        &mut self,
        req: RecvReq,
        timeout: Option<Duration>,
        cat: Category,
    ) -> Result<Bytes, (RecvReq, CommError)> {
        self.inner
            .wait_recv_timeout_in(req, timeout, cat)
            .map_err(|(r, e)| (r, self.translate_err(e)))
    }

    fn peer_alive(&mut self, rank: usize) -> bool {
        let (inner, _) = self.wire(rank, 0);
        self.inner.peer_alive(inner)
    }

    fn fault_policy(&self) -> FaultPolicy {
        self.inner.fault_policy()
    }

    fn cancel_recv(&mut self, req: RecvReq) {
        self.inner.cancel_recv(req);
    }

    fn abort_cleanup(&mut self) {
        self.inner.abort_cleanup();
    }

    fn purge_stale(&mut self, keep: Tag) -> u64 {
        self.inner.purge_stale(keep | self.stamp)
    }
}
