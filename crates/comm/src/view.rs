//! [`CommView`]: the one communicator wrapper — a rank map plus a
//! message context over any [`Comm`].
//!
//! Which operation, which group and which shrink epoch a message
//! belongs to is a property of the communicator a schedule is handed,
//! not of the schedule. A schedule posts bare schedule tags to ranks
//! `0..size()`; the view it runs on maps the rank and fills in the
//! message's [`Ctx`]. Three constructors cover every use:
//!
//! * [`CommView::stamped`] — identity ranks, every message in one
//!   operation's context (`ctx.op`, plan slot and start generation): the
//!   per-operation view a plan handle steps its machine through.
//! * [`CommView::group`] — a borrowed member table, context untouched:
//!   the node-local / lane-owner groups of the hierarchical schedules.
//!   Groups need no context of their own: concurrent groups of one phase
//!   have disjoint member sets and distinct phases use distinct tag
//!   families.
//! * [`CommView::shrunk`] — the survivors of a [`DeadSet`], densely
//!   re-ranked, every message in the shrink epoch (`ctx.epoch`),
//!   other epochs' traffic purged at construction.
//!
//! Views nest (`group(stamped(shrunk(c)))` is what a hierarchical leg
//! of a post-recovery operation runs on) and compose in either order:
//! contexts compose field by field and rank maps chain. What every view
//! keeps:
//!
//! 1. **The outer view's context wins.** A view fills in the context
//!    fields it owns that an outer view (or the caller) left 0: a nested
//!    shrink's epoch replaces the one it wraps, and the tag is never
//!    touched.
//! 2. **Errors come back in view ranks.** A mapped view translates the
//!    ranks of a [`CommError`]; the tag it reports is the schedule tag.
//! 3. **[`Comm::purge_stale`] composes** like a message: an epoch the
//!    caller left 0 is the view's.
//! 4. **[`Comm::barrier`]** is the inner barrier on an identity map and
//!    a point-to-point check-in with view rank 0 on a mapped one — the
//!    inner barrier would wait on non-members (or the dead) forever.
//! 5. **Building a view allocates nothing** except `shrunk`'s member
//!    table (once per recovery), so schedules build them per `step`.

use std::borrow::Cow;
use std::time::Duration;

use bytes::Bytes;

use crate::chaos::{CommError, FaultPolicy};
use crate::comm::{Comm, Ctx, RecvReq, SendReq, Tag};
use crate::cost::Kernel;
use crate::profile::{Category, Profiler};
use crate::recover::{DeadSet, BARRIER_TAG_BASE};
use crate::time::SimTime;

/// A rank-mapped, context-filling view of another communicator (see the
/// [module docs](self) for the three shapes and what they guarantee).
/// Wraps by mutable borrow; all [`Comm`] methods speak view ranks.
pub struct CommView<'a, C: Comm> {
    inner: &'a mut C,
    /// View rank → inner rank, ascending; `None` is the identity map.
    members: Option<Cow<'a, [usize]>>,
    /// My rank in the view.
    rank: usize,
    /// Fills the fields of every message's context left 0.
    ctx: Ctx,
    /// Other epochs' messages discarded by [`CommView::shrunk`].
    purged: u64,
}

impl<'a, C: Comm> CommView<'a, C> {
    fn new(inner: &'a mut C, members: Option<Cow<'a, [usize]>>, ctx: Ctx) -> Self {
        let me = inner.rank();
        let rank = members.as_deref().map_or(me, |m| {
            m.binary_search(&me).expect("calling rank must be a member")
        });
        CommView {
            inner,
            members,
            rank,
            ctx,
            purged: 0,
        }
    }

    /// `inner` with every message in operation `op`'s context
    /// ([`Ctx::op`]); ranks unchanged.
    pub fn stamped(inner: &'a mut C, op: u32) -> Self {
        Self::new(inner, None, Ctx { op, epoch: 0 })
    }

    /// The group `members` (inner ranks, strictly ascending) of `inner`;
    /// contexts pass through untouched.
    ///
    /// # Panics
    /// Panics when the calling rank is not in `members`.
    pub fn group(inner: &'a mut C, members: &'a [usize]) -> Self {
        Self::new(inner, Some(Cow::Borrowed(members)), Ctx::default())
    }

    /// Re-form `inner`'s world over the survivors of `dead` (survivor
    /// `i` in ascending inner-rank order becomes rank `i`), entering
    /// shrink epoch `epoch` — 1 for a first shrink; a nested shrink of
    /// an epoch-`e` world passes `e + 1`. Purges this rank's traffic of
    /// every other epoch (what a faster survivor already sent into the
    /// new epoch is kept) and records the count
    /// ([`CommView::stale_discarded`]).
    ///
    /// # Errors
    /// `Err(CommError::PeerDead { peer })` when this rank is itself in
    /// `dead` (an excluded rank must not enter the shrunk world).
    ///
    /// # Panics
    /// Panics on epoch 0, the never-shrunk world's.
    pub fn shrunk(inner: &'a mut C, dead: DeadSet, epoch: u32) -> Result<Self, CommError> {
        assert!(epoch >= 1, "epoch 0 is the never-shrunk world");
        let me = inner.rank();
        if dead.contains(me) {
            return Err(CommError::PeerDead { peer: me });
        }
        let members = (0..inner.size()).filter(|r| !dead.contains(*r)).collect();
        let purged = inner.purge_stale(epoch);
        Ok(CommView {
            purged,
            ..Self::new(inner, Some(Cow::Owned(members)), Ctx { op: 0, epoch })
        })
    }

    /// The shrink epoch this view puts its messages in (0 for a view
    /// not built by [`CommView::shrunk`]).
    pub fn epoch(&self) -> u32 {
        self.ctx.epoch
    }

    /// How many stale messages of other epochs (posted receives and
    /// queued undelivered payloads) were discarded when this rank
    /// crossed into the epoch.
    pub fn stale_discarded(&self) -> u64 {
        self.purged
    }

    /// The inner communicator (inner rank space, its own context). The
    /// recovery layer runs a *nested* agreement on it when another rank
    /// dies after a shrink.
    pub fn inner_mut(&mut self) -> &mut C {
        self.inner
    }

    /// The inner rank of view `rank`.
    fn inner_rank(&self, rank: usize) -> usize {
        self.members.as_ref().map_or(rank, |members| members[rank])
    }

    /// `ctx` with the fields it left 0 filled in from the view's.
    fn fill(&self, ctx: Ctx) -> Ctx {
        let or = |mine: u32, outer: u32| if outer != 0 { outer } else { mine };
        Ctx {
            op: or(self.ctx.op, ctx.op),
            epoch: or(self.ctx.epoch, ctx.epoch),
        }
    }

    fn translate_err(&self, err: CommError) -> CommError {
        let Some(members) = &self.members else {
            return err;
        };
        let view = |inner: usize| members.binary_search(&inner).unwrap_or(inner);
        match err {
            CommError::Timeout { src, tag, waited } => CommError::Timeout {
                src: view(src),
                tag,
                waited,
            },
            CommError::PeerDead { peer } => CommError::PeerDead { peer: view(peer) },
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

    fn isend_ctx(&mut self, dst: usize, ctx: Ctx, tag: Tag, payload: Bytes) -> SendReq {
        let (dst, ctx) = (self.inner_rank(dst), self.fill(ctx));
        self.inner.isend_ctx(dst, ctx, tag, payload)
    }

    fn irecv_ctx(&mut self, src: usize, ctx: Ctx, tag: Tag) -> RecvReq {
        let (src, ctx) = (self.inner_rank(src), self.fill(ctx));
        self.inner.irecv_ctx(src, ctx, tag)
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
        let inner = self.inner_rank(rank);
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

    fn purge_stale(&mut self, keep: u32) -> u64 {
        let keep = self.fill(Ctx { op: 0, epoch: keep }).epoch;
        self.inner.purge_stale(keep)
    }
}
