//! Session-level progress engine: drive many in-flight nonblocking
//! collectives from one place, with bounded work per call.
//!
//! PR 5's nonblocking handles made a *single* operation overlappable;
//! real training steps have many (one allreduce per gradient bucket,
//! plus the occasional bcast or gather), and driving each handle by
//! hand both serialises them and tangles application code with
//! completion bookkeeping. A [`ProgressEngine`] owns the in-flight
//! handles — any mix of the eight collective types, type-erased behind
//! [`AnyHandle`] — and each [`ProgressEngine::progress`] call performs
//! one bounded, fair pass over every live operation: one nonblocking
//! `try_progress` slice each, starting from a slot that rotates every
//! pass (round-robin), so no operation is permanently first or last.
//! Completions are observable by polling ([`ProgressEngine::is_done`]).
//!
//! The draining calls ([`ProgressEngine::wait_all`],
//! [`ProgressEngine::progress_until`], [`ProgressEngine::quiesce`]) run
//! passes back to back while any operation does anything. After a pass
//! in which none did — each is waiting on a transfer — the rank parks in
//! [`Comm::idle`] until its next arrival or send egress, whichever
//! operation it belongs to, and passes again; the operations overlap on
//! the wire instead of finishing one after another. Only when that idle
//! gives up under the fault policy (hop timeout, dead peer) does the
//! engine drive the oldest operation to completion with fault-aware
//! blocking waits. Nor is the oldest operation finished first: a small
//! one beside a large one waits one step of it per round and queues
//! behind its messages, so it takes a fraction of the large one's time
//! rather than its own. An operation that must finish first is driven
//! alone.
//!
//! Concurrency is sound because every operation's messages travel in a
//! context of their own (plan slot + start generation, see
//! [`ccoll_comm::Ctx::op`]) set by the `CommView::stamped` view its
//! handle steps it through, so two live operations on the same
//! communicator can never capture each other's messages — as long as
//! every rank creates its plans, and starts operations on them, in the
//! same order (the usual collective-call discipline, now applied to
//! `plan_*` and `start` instead of the collective itself).
//!
//! The engine stores handles in a fixed inline arena of
//! [`MAX_LIVE_OPS`] slots: submitting and completing operations
//! allocates nothing, keeping the session's zero-allocation steady
//! state intact with N operations in flight.
//!
//! ```
//! use c_coll::engine::ProgressEngine;
//! use c_coll::{CCollSession, CodecSpec, ReduceOp};
//! use ccoll_comm::{Comm, SimConfig, SimWorld};
//!
//! let n = 4;
//! let world = SimWorld::new(SimConfig::new(n));
//! let out = world.run(move |comm| {
//!     let session = CCollSession::new(CodecSpec::None, n);
//!     // Two gradient buckets, allreduced concurrently.
//!     let mut bucket_a = session.plan_allreduce(2000, ReduceOp::Sum);
//!     let mut bucket_b = session.plan_allreduce(1000, ReduceOp::Sum);
//!     let ga = vec![comm.rank() as f32; 2000];
//!     let gb = vec![1.0f32; 1000];
//!     let (mut ra, mut rb) = (vec![0.0f32; 2000], vec![0.0f32; 1000]);
//!     let mut engine = ProgressEngine::new();
//!     let a = engine.submit(bucket_a.start(comm, &ga, &mut ra));
//!     let b = engine.submit(bucket_b.start(comm, &gb, &mut rb));
//!     engine.wait_all(comm);
//!     assert!(engine.is_done(a) && engine.is_done(b));
//!     drop(engine); // releases the buffer borrows
//!     (ra[0], rb[0])
//! });
//! assert!(out.results.iter().all(|&(a, b)| a == 6.0 && b == 4.0));
//! ```

use std::time::Duration;

use ccoll_comm::{Comm, SimTime, TrafficStats};

use crate::nonblocking::Poll;
use crate::session::{
    AllgatherHandle, AllreduceHandle, AlltoallHandle, BcastHandle, CollectiveError, GatherHandle,
    ReduceHandle, ReduceScatterHandle, ScatterHandle,
};

/// Most operations a [`ProgressEngine`] can hold at once. The arena is
/// inline (no allocation on submit/complete), so the bound is a
/// compile-time constant; it comfortably covers gradient-bucket counts
/// seen in practice.
pub const MAX_LIVE_OPS: usize = 32;

/// Identifier of an operation submitted to a [`ProgressEngine`].
///
/// Ids are handed out in submission order and never reused by the same
/// engine, so they double as an age: a smaller id is an older
/// operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpId(u64);

impl OpId {
    /// The submission index this id encodes (0 for the first
    /// operation submitted to the engine, 1 for the second, …).
    #[must_use]
    pub fn index(self) -> u64 {
        self.0
    }
}

/// A type-erased in-flight nonblocking collective: any of the eight
/// handle types, submittable to a [`ProgressEngine`]. Built via the
/// `From` impls — `engine.submit(plan.start(comm, ..))` just works.
pub enum AnyHandle<'p, 'b> {
    /// An in-flight allreduce.
    Allreduce(AllreduceHandle<'p, 'b>),
    /// An in-flight allgather.
    Allgather(AllgatherHandle<'p, 'b>),
    /// An in-flight reduce-scatter.
    ReduceScatter(ReduceScatterHandle<'p, 'b>),
    /// An in-flight broadcast.
    Bcast(BcastHandle<'p, 'b>),
    /// An in-flight scatter.
    Scatter(ScatterHandle<'p, 'b>),
    /// An in-flight gather.
    Gather(GatherHandle<'p, 'b>),
    /// An in-flight all-to-all.
    Alltoall(AlltoallHandle<'p, 'b>),
    /// An in-flight rooted reduce.
    Reduce(ReduceHandle<'p, 'b>),
}

macro_rules! impl_from_handle {
    ($($variant:ident => $handle:ident),* $(,)?) => {
        $(impl<'p, 'b> From<$handle<'p, 'b>> for AnyHandle<'p, 'b> {
            fn from(h: $handle<'p, 'b>) -> Self {
                AnyHandle::$variant(h)
            }
        })*
    };
}

impl_from_handle! {
    Allreduce => AllreduceHandle,
    Allgather => AllgatherHandle,
    ReduceScatter => ReduceScatterHandle,
    Bcast => BcastHandle,
    Scatter => ScatterHandle,
    Gather => GatherHandle,
    Alltoall => AlltoallHandle,
    Reduce => ReduceHandle,
}

impl AnyHandle<'_, '_> {
    fn drive<C: Comm>(&mut self, comm: &mut C, block: bool) -> Result<Poll, CollectiveError> {
        match self {
            AnyHandle::Allreduce(h) => h.drive(comm, block),
            AnyHandle::Allgather(h) => h.drive(comm, block),
            AnyHandle::ReduceScatter(h) => h.drive(comm, block),
            AnyHandle::Bcast(h) => h.drive(comm, block),
            AnyHandle::Scatter(h) => h.drive(comm, block),
            AnyHandle::Gather(h) => h.drive(comm, block),
            AnyHandle::Alltoall(h) => h.drive(comm, block),
            AnyHandle::Reduce(h) => h.drive(comm, block),
        }
    }
}

struct Op<'p, 'b> {
    id: OpId,
    handle: AnyHandle<'p, 'b>,
}

/// What a rank has done so far, as its profiler sees it: messages and
/// bytes sent, and the time charged or waited in every category. A pass
/// that leaves it unchanged did nothing — it sent nothing, ran no kernel
/// and waited for nothing — whatever the backend's clock did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Activity {
    sent: TrafficStats,
    busy: Duration,
}

impl Activity {
    fn of<C: Comm>(comm: &mut C) -> Self {
        let p = comm.profiler();
        Activity {
            sent: p.traffic(),
            busy: p.breakdown().total(),
        }
    }
}

/// Drives every live nonblocking operation with bounded work per call.
///
/// See the [module docs](self) for the concurrency model and a worked
/// example. The engine borrows each submitted handle's plan for its
/// own lifetime (`'p`), so plans outlive the engine; dropping the
/// engine with operations still live abandons them — each abandoned
/// operation poisons *its own plan only* (see
/// [`CollectiveError::Abandoned`]).
pub struct ProgressEngine<'p, 'b> {
    slots: [Option<Op<'p, 'b>>; MAX_LIVE_OPS],
    next_id: u64,
    /// The slot the next pass starts from (rotates every pass).
    cursor: usize,
    live: usize,
}

impl Default for ProgressEngine<'_, '_> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'p, 'b> ProgressEngine<'p, 'b> {
    /// An empty engine.
    #[must_use]
    pub fn new() -> Self {
        ProgressEngine {
            slots: std::array::from_fn(|_| None),
            next_id: 0,
            cursor: 0,
            live: 0,
        }
    }

    /// Register an in-flight operation (any handle type, via `Into`).
    /// The returned id identifies it in [`Self::is_done`] and the
    /// completion callbacks.
    ///
    /// # Panics
    /// Panics if [`MAX_LIVE_OPS`] operations are already live.
    pub fn submit(&mut self, handle: impl Into<AnyHandle<'p, 'b>>) -> OpId {
        let id = OpId(self.next_id);
        self.next_id += 1;
        let slot = self
            .slots
            .iter_mut()
            .find(|s| s.is_none())
            .unwrap_or_else(|| panic!("more than {MAX_LIVE_OPS} operations in flight"));
        *slot = Some(Op {
            id,
            handle: handle.into(),
        });
        self.live += 1;
        id
    }

    /// Number of operations still in flight.
    #[must_use]
    pub fn live_ops(&self) -> usize {
        self.live
    }

    /// True once the operation identified by `id` has retired — it
    /// completed, or it aborted and was reported through
    /// [`Self::try_progress`]. False for ids never submitted here.
    #[must_use]
    pub fn is_done(&self, id: OpId) -> bool {
        id.0 < self.next_id && !self.slots.iter().flatten().any(|op| op.id == id)
    }

    /// One bounded, fair pass: each live operation gets exactly one
    /// nonblocking work slice. Returns how many operations completed
    /// during the pass.
    ///
    /// # Panics
    /// Panics if an operation aborts on an unrecoverable fault (use
    /// [`Self::try_progress`] under a fault policy).
    pub fn progress<C: Comm>(&mut self, comm: &mut C) -> usize {
        self.try_progress(comm)
            .unwrap_or_else(|(id, e)| aborted(id, e))
    }

    /// Fallible [`Self::progress`]: if an operation aborts on an
    /// unrecoverable fault, it is retired from the engine, *its* plan
    /// is poisoned, and the error is returned — sibling operations
    /// stay live and the engine keeps working; call again to keep
    /// driving them.
    pub fn try_progress<C: Comm>(
        &mut self,
        comm: &mut C,
    ) -> Result<usize, (OpId, CollectiveError)> {
        let origin = self.cursor;
        self.cursor = (self.cursor + 1) % MAX_LIVE_OPS;
        let mut completed = 0;
        for k in 0..MAX_LIVE_OPS {
            let idx = (origin + k) % MAX_LIVE_OPS;
            let Some(op) = self.slots[idx].as_mut() else {
                continue;
            };
            match op.handle.drive(comm, false) {
                Ok(Poll::Pending) => {}
                Ok(Poll::Ready) => {
                    self.slots[idx] = None;
                    self.live -= 1;
                    completed += 1;
                }
                Err(e) => {
                    let id = op.id;
                    self.slots[idx] = None;
                    self.live -= 1;
                    return Err((id, e));
                }
            }
        }
        Ok(completed)
    }

    /// Drive until every live operation has completed. Returns how
    /// many completed.
    ///
    /// Runs nonblocking passes. After a pass in which no operation did
    /// anything — nothing completed, sent, computed or waited — every
    /// operation is waiting on a transfer, so the rank parks until its
    /// next event ([`Comm::idle`]: the earliest arrival on a posted
    /// receive or egress of a send) and passes again. A pass that did
    /// work, even if it only hit a stream's drain budget, is followed by
    /// another pass straight away: arrivals it left may land now. Only
    /// when the idle times out under the fault policy does the engine
    /// fall back to finishing the oldest live operation with blocking,
    /// fault-aware waits (ids are submission-ordered and every rank
    /// submits in the same order, so all ranks block on the same
    /// operation — no cross-rank deadlock).
    ///
    /// # Panics
    /// Panics if an operation aborts on an unrecoverable fault (use
    /// [`Self::try_wait_all`] under a fault policy).
    pub fn wait_all<C: Comm>(&mut self, comm: &mut C) -> usize {
        self.try_wait_all(comm)
            .unwrap_or_else(|(id, e)| aborted(id, e))
    }

    /// Fallible [`Self::wait_all`]: stops at the first operation that
    /// aborts (retiring it and poisoning its plan) and returns the
    /// error; siblings stay live, so calling again resumes the drain.
    pub fn try_wait_all<C: Comm>(
        &mut self,
        comm: &mut C,
    ) -> Result<usize, (OpId, CollectiveError)> {
        self.drain(comm, None, Err)
    }

    /// Drive until `comm`'s clock reaches `deadline` or every live
    /// operation has completed, whichever comes first. Returns how many
    /// operations completed. The application's overlap loop calls this
    /// with "the moment my next compute slice must start": the engine
    /// soaks up exactly the idle window, no more.
    ///
    /// Runs nonblocking passes like [`Self::wait_all`], idling between
    /// them the same way (so time advances even on a backend whose clock
    /// only moves inside waits); the deadline is checked between passes,
    /// so the call can overrun by at most one idle.
    ///
    /// # Panics
    /// Panics if an operation aborts on an unrecoverable fault (use
    /// [`Self::try_progress`]/[`Self::quiesce`] under a fault policy).
    pub fn progress_until<C: Comm>(&mut self, comm: &mut C, deadline: SimTime) -> usize {
        self.drain(comm, Some(deadline), Err)
            .unwrap_or_else(|(id, e)| aborted(id, e))
    }

    /// Drain *every* live operation, collecting per-operation failures
    /// instead of stopping at the first: completions are counted,
    /// aborted operations are retired with their error (each poisons
    /// its own plan, like [`Self::try_progress`]). This is the
    /// recovery-path companion of [`Self::try_wait_all`] — after a rank
    /// death, every operation whose traffic involved the dead rank
    /// aborts, and the caller wants all of them retired (and all the
    /// survivors' completions banked) before running the survivor
    /// agreement and resubmitting on the shrunk world.
    ///
    /// The returned `Vec` allocates; quiesce is a recovery action, not
    /// a steady-state one.
    pub fn quiesce<C: Comm>(&mut self, comm: &mut C) -> (usize, Vec<(OpId, CollectiveError)>) {
        let mut failures = Vec::new();
        let collect = |f| {
            failures.push(f);
            Ok(())
        };
        let completed = self
            .drain(comm, None, collect)
            .expect("every failure is collected");
        (completed, failures)
    }

    /// The drain loop behind [`Self::try_wait_all`],
    /// [`Self::progress_until`] and [`Self::quiesce`]: nonblocking passes
    /// until no operation is live (or `comm`'s clock reaches `deadline`),
    /// settling after every pass that completed nothing. Each aborted
    /// operation goes to `failed`, which either ends the drain with it
    /// (`Err`) or lets it go on.
    fn drain<C: Comm>(
        &mut self,
        comm: &mut C,
        deadline: Option<SimTime>,
        mut failed: impl FnMut((OpId, CollectiveError)) -> Result<(), (OpId, CollectiveError)>,
    ) -> Result<usize, (OpId, CollectiveError)> {
        let open = |live: usize, comm: &C| live > 0 && deadline.is_none_or(|d| comm.now() < d);
        let mut completed = 0;
        while open(self.live, comm) {
            let before = Activity::of(comm);
            match self.try_progress(comm) {
                Ok(0) if open(self.live, comm) => match self.settle(comm, before) {
                    Ok(n) => completed += n,
                    Err(f) => failed(f)?,
                },
                Ok(n) => completed += n,
                Err(f) => failed(f)?,
            }
        }
        Ok(completed)
    }

    /// After a pass that completed nothing: pass again at once if some
    /// operation did anything, else park until the rank's next event;
    /// when that idle gives up (the fault policy's hop timeout, a dead
    /// peer), drive the oldest live operation with blocking, fault-aware
    /// waits. Returns 1 if that completed it.
    fn settle<C: Comm>(
        &mut self,
        comm: &mut C,
        before: Activity,
    ) -> Result<usize, (OpId, CollectiveError)> {
        if Activity::of(comm) != before || comm.idle() {
            return Ok(0);
        }
        self.block_oldest(comm)
    }

    /// Drive the oldest live operation *to completion* with blocking
    /// waits — the fault path of [`Self::settle`]: its waits carry the
    /// per-hop retry budget and abort cleanly when it runs out. Returns
    /// 1 if it completed.
    fn block_oldest<C: Comm>(&mut self, comm: &mut C) -> Result<usize, (OpId, CollectiveError)> {
        let Some(idx) = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|op| (op.id, i)))
            .min()
            .map(|(_, i)| i)
        else {
            return Ok(0);
        };
        let op = self.slots[idx].as_mut().expect("slot just found live");
        match op.handle.drive(comm, true) {
            Ok(Poll::Pending) => Ok(0),
            Ok(Poll::Ready) => {
                self.slots[idx] = None;
                self.live -= 1;
                Ok(1)
            }
            Err(e) => {
                let id = op.id;
                self.slots[idx] = None;
                self.live -= 1;
                Err((id, e))
            }
        }
    }
}

/// The panic of the infallible progress and drain calls when an operation
/// aborts.
fn aborted(id: OpId, e: CollectiveError) -> ! {
    panic!("operation {id:?} aborted: {e}; its plan is poisoned (reset() to reuse)")
}
