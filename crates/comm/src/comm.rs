//! The [`Comm`] trait: the rank-local communication handle every
//! collective algorithm is written against.
//!
//! The API mirrors the MPI subset the paper's algorithms need —
//! non-blocking point-to-point with `(source, context, tag)` matching,
//! waits, tests, a barrier — plus two reproduction-specific extensions:
//!
//! * **virtual compute charges** ([`Comm::charge`]): on the simulator
//!   backend, kernels advance the virtual clock by a modeled duration; on
//!   the threaded backend the call is free because real time already
//!   passed inside the kernel.
//! * **categorized profiling** ([`Comm::profiler`], the `*_in` wait
//!   variants): every blocking operation and kernel attributes its elapsed
//!   time to one of the paper's breakdown categories.
//!
//! One wait belongs to no single request: [`Comm::idle`] parks the rank
//! until its next communication event — the earliest future arrival on
//! any posted receive or egress of any send — which is how a progress
//! engine driving several operations waits without picking one of them.

use std::time::Duration;

use bytes::Bytes;

use crate::chaos::{CommError, FaultPolicy};
use crate::cost::Kernel;
use crate::profile::{Category, Profiler};
use crate::time::SimTime;

/// Message tag. Collectives use distinct tags per logical stream so that
/// rounds cannot cross-match.
pub type Tag = u32;

/// The context a message travels in beside its tag — which operation
/// and which shrink epoch it belongs to, as an MPI communicator's
/// context id keeps its traffic apart. A receive matches on
/// `(source, ctx, tag)`. [`crate::CommView`] composes it; bare
/// [`Comm::isend`] / [`Comm::irecv`] use [`Ctx::default`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ctx {
    /// The plan operation ([`Ctx::op`]); 0 for control and user
    /// traffic. [`Comm::abort_cleanup`] purges every nonzero one.
    pub op: u32,
    /// The shrink epoch; 0 for the never-shrunk world.
    pub epoch: u32,
}

impl Ctx {
    /// The `op` of a plan operation: the plan's session slot + 1 (so
    /// never 0) above its start `generation` (bit 0).
    ///
    /// # Panics
    /// Panics on a slot of 2³¹ − 1 or more, whose `op` would wrap.
    pub const fn op(slot: u32, generation: u32) -> u32 {
        assert!(slot < u32::MAX >> 1, "plan slots end at 2^31 - 2");
        ((slot + 1) << 1) | (generation & 1)
    }
}

/// Handle for an outstanding non-blocking send.
#[derive(Debug)]
pub struct SendReq {
    pub(crate) id: u64,
}

/// Handle for an outstanding non-blocking receive.
#[derive(Debug)]
pub struct RecvReq {
    pub(crate) id: u64,
}

/// Rank-local communicator handle.
///
/// One value of an implementing type exists per rank; methods take
/// `&mut self` because a rank is single-threaded (as an MPI process is).
pub trait Comm {
    /// This process's rank in `0..size()`.
    fn rank(&self) -> usize;

    /// Number of ranks in the communicator.
    fn size(&self) -> usize;

    /// Start a non-blocking send of `payload` to `dst` in context `ctx`.
    fn isend_ctx(&mut self, dst: usize, ctx: Ctx, tag: Tag, payload: Bytes) -> SendReq;

    /// Post a non-blocking receive matching `(src, ctx, tag)`.
    fn irecv_ctx(&mut self, src: usize, ctx: Ctx, tag: Tag) -> RecvReq;

    /// Start a non-blocking send of `payload` to `dst` in the default
    /// context.
    fn isend(&mut self, dst: usize, tag: Tag, payload: Bytes) -> SendReq {
        self.isend_ctx(dst, Ctx::default(), tag, payload)
    }

    /// Post a non-blocking receive matching `(src, tag)` in the default
    /// context.
    fn irecv(&mut self, src: usize, tag: Tag) -> RecvReq {
        self.irecv_ctx(src, Ctx::default(), tag)
    }

    /// Block until the send has left this rank, attributing the blocked
    /// time to `cat`.
    fn wait_send_in(&mut self, req: SendReq, cat: Category);

    /// Block until the receive completes, attributing the blocked time to
    /// `cat`. Returns the message payload.
    fn wait_recv_in(&mut self, req: RecvReq, cat: Category) -> Bytes;

    /// Non-blocking completion test for a receive (MPI_Test semantics: a
    /// `true` result means a subsequent wait returns without blocking).
    fn test_recv(&mut self, req: &RecvReq) -> bool;

    /// Non-blocking completion test for a send.
    fn test_send(&mut self, req: &SendReq) -> bool;

    /// Park this rank until its next communication event: the earliest
    /// arrival *after now* on one of its posted receives (a receive no
    /// message has matched yet wakes it when the matching `isend` is
    /// posted), or the earliest egress after now of one of its sends.
    /// What has already arrived or left is not waited for: the caller
    /// has looked at it — unless it is all there is, in which case the
    /// call returns at once rather than wait for nothing. The blocked
    /// time lands in [`Category::Wait`].
    ///
    /// Waits at most the [`Comm::fault_policy`]'s `hop_timeout`. Returns
    /// `false` when that expired first, or when a posted receive's peer
    /// is dead and nothing has matched it — the event may never come,
    /// and the caller falls back to its fault-aware blocking waits.
    fn idle(&mut self) -> bool;

    /// Synchronize all ranks.
    fn barrier(&mut self);

    /// Current (virtual or real) time.
    fn now(&self) -> SimTime;

    /// Advance the virtual clock by `d`, attributed to `cat`. No-op on
    /// real-time backends (where time passes by itself).
    fn charge_duration(&mut self, d: Duration, cat: Category);

    /// Modeled duration of running `kernel` over `bytes` bytes. Returns
    /// zero on real-time backends.
    fn kernel_cost(&self, kernel: Kernel, bytes: usize) -> Duration;

    /// The per-rank profiler.
    fn profiler(&mut self) -> &mut Profiler;

    // ------------------------------------------------------------------
    // Fallible (fault-aware) surface. Every method defaults to the
    // infallible happy path, so backends without fault injection (the
    // threaded runtime, a fault-free simulator) are untouched; the
    // simulator overrides them when a `FaultPlan` is attached.
    // ------------------------------------------------------------------

    /// Blocking receive with an optional deadline. On success the
    /// blocked time lands in `cat` (like [`Comm::wait_recv_in`]); on
    /// failure the request is handed back (still posted — a
    /// transport-retransmitted message can complete it later) together
    /// with the structured reason. The default implementation ignores
    /// the deadline and never fails.
    fn wait_recv_timeout_in(
        &mut self,
        req: RecvReq,
        timeout: Option<Duration>,
        cat: Category,
    ) -> Result<Bytes, (RecvReq, CommError)>
    where
        Self: Sized,
    {
        let _ = timeout;
        Ok(self.wait_recv_in(req, cat))
    }

    /// Whether `rank` is believed alive. Backends with crash injection
    /// override this; the default world has no notion of rank death.
    fn peer_alive(&mut self, _rank: usize) -> bool {
        true
    }

    /// The world's configured per-hop fault policy (timeout + bounded
    /// retry budget the collective layer honors on its blocking
    /// waits). Defaults to [`FaultPolicy::NONE`] — infinite patience,
    /// bit-for-bit the pre-chaos behavior.
    fn fault_policy(&self) -> FaultPolicy {
        FaultPolicy::NONE
    }

    /// Cancel a posted receive that will never be waited again (the
    /// abort path). The default leaks the request, which is harmless
    /// on backends that cannot abort.
    fn cancel_recv(&mut self, req: RecvReq) {
        let _ = req;
    }

    /// Drop this rank's posted receives and pending inbound messages of
    /// plan operations (`ctx.op != 0`) — called once by the collective
    /// layer when an operation aborts, so a later operation on the same
    /// communicator cannot match the aborted operation's stale traffic.
    /// Control traffic (`op == 0`: survivor-agreement votes and
    /// decisions, shrunk-world barriers) survives: a coordinator whose
    /// own collective aborts *after* its voters' must not wipe the votes
    /// already in its mailbox. Default: nothing to clean.
    fn abort_cleanup(&mut self) {}

    /// Discard this rank's posted receives and undelivered inbound
    /// messages whose `ctx.epoch` differs from `keep`, and report how
    /// many were discarded. The recovery layer calls this when it
    /// crosses into shrink epoch `keep`: pre-shrink traffic is purged,
    /// while post-shrink messages that faster survivors already sent are
    /// kept. Default: purges nothing and reports zero — correct (another
    /// epoch's message never matches a receive of this one), just less
    /// tidy than a real purge.
    fn purge_stale(&mut self, keep: u32) -> u64 {
        let _ = keep;
        0
    }

    /// Blocking receive under the world's [`Comm::fault_policy`]: wait
    /// with the per-hop deadline, re-arm a timed-out wait up to
    /// `max_retries` times (the transport redelivers transient drops,
    /// so retrying is just waiting longer — bounded), and give up with
    /// a structured error once the budget is exhausted or the peer is
    /// known dead. Retries and timeouts are counted on the profiler's
    /// [`crate::FaultCounters`]. With [`FaultPolicy::NONE`] this is
    /// exactly [`Comm::wait_recv_in`].
    fn wait_recv_retry_in(&mut self, req: RecvReq, cat: Category) -> Result<Bytes, CommError>
    where
        Self: Sized,
    {
        let policy = self.fault_policy();
        if !policy.is_active() {
            return Ok(self.wait_recv_in(req, cat));
        }
        let mut req = req;
        let mut attempts = 0u32;
        loop {
            match self.wait_recv_timeout_in(req, policy.hop_timeout, cat) {
                Ok(payload) => return Ok(payload),
                Err((r, CommError::Timeout { .. })) if attempts < policy.max_retries => {
                    attempts += 1;
                    self.profiler().note_timeout();
                    self.profiler().note_retry();
                    req = r;
                }
                Err((r, err)) => {
                    if matches!(err, CommError::Timeout { .. }) {
                        self.profiler().note_timeout();
                    }
                    self.cancel_recv(r);
                    return Err(err);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Provided conveniences.
    // ------------------------------------------------------------------

    /// Blocking send (`isend` + wait, attributed to `Others`).
    fn send(&mut self, dst: usize, tag: Tag, payload: Bytes)
    where
        Self: Sized,
    {
        let r = self.isend(dst, tag, payload);
        self.wait_send_in(r, Category::Others);
    }

    /// Blocking receive (attributed to `Others`).
    fn recv(&mut self, src: usize, tag: Tag) -> Bytes
    where
        Self: Sized,
    {
        let r = self.irecv(src, tag);
        self.wait_recv_in(r, Category::Others)
    }

    /// Wait for a send, attributing blocked time to `Wait`.
    fn wait_send(&mut self, req: SendReq)
    where
        Self: Sized,
    {
        self.wait_send_in(req, Category::Wait);
    }

    /// Wait for a receive, attributing blocked time to `Wait`.
    fn wait_recv(&mut self, req: RecvReq) -> Bytes
    where
        Self: Sized,
    {
        self.wait_recv_in(req, Category::Wait)
    }

    /// Non-blocking completion attempt for a receive (the progress-engine
    /// primitive behind `CollHandle::progress`): if the message has
    /// arrived, consume the request and return the payload immediately;
    /// otherwise hand the request back untouched. Never blocks — a
    /// `test_recv`-gated wait completes without waiting on both backends
    /// (MPI_Test semantics).
    fn try_recv(&mut self, req: RecvReq, cat: Category) -> Result<Bytes, RecvReq>
    where
        Self: Sized,
    {
        if self.test_recv(&req) {
            Ok(self.wait_recv_in(req, cat))
        } else {
            Err(req)
        }
    }

    /// Non-blocking completion attempt for a send: consume the request if
    /// the payload has left this rank, hand it back otherwise. Never
    /// blocks.
    fn try_send(&mut self, req: SendReq, cat: Category) -> Result<(), SendReq>
    where
        Self: Sized,
    {
        if self.test_send(&req) {
            self.wait_send_in(req, cat);
            Ok(())
        } else {
            Err(req)
        }
    }

    /// Charge the modeled cost of `kernel` over `bytes` to `cat`.
    fn charge(&mut self, kernel: Kernel, bytes: usize, cat: Category)
    where
        Self: Sized,
    {
        let d = self.kernel_cost(kernel, bytes);
        self.charge_duration(d, cat);
    }

    /// Run a compute kernel with unified accounting: on a real-time
    /// backend the kernel's actual elapsed time lands in `cat`; on the
    /// simulator the modeled `kernel` cost over `bytes` advances the
    /// virtual clock and lands in `cat`.
    fn run_kernel<R>(
        &mut self,
        kernel: Kernel,
        bytes: usize,
        cat: Category,
        f: impl FnOnce() -> R,
    ) -> R
    where
        Self: Sized,
    {
        let t0 = self.now();
        let out = f();
        let real = self.now() - t0;
        if real > Duration::ZERO {
            self.profiler().add(cat, real);
        }
        self.charge(kernel, bytes, cat);
        out
    }

    /// Exchange payloads with two peers simultaneously (the ring step):
    /// send to `dst` while receiving from `src`. Waits are attributed to
    /// `cat`.
    fn sendrecv(&mut self, dst: usize, src: usize, tag: Tag, payload: Bytes, cat: Category) -> Bytes
    where
        Self: Sized,
    {
        let rr = self.irecv(src, tag);
        let sr = self.isend(dst, tag, payload);
        let data = self.wait_recv_in(rr, cat);
        self.wait_send_in(sr, cat);
        data
    }
}

#[cfg(test)]
mod tests {
    // The trait itself is exercised through the backend tests in
    // `threaded` and `sim`; here we only pin the request handle types.
    use super::*;

    #[test]
    fn request_handles_are_small() {
        assert_eq!(std::mem::size_of::<SendReq>(), 8);
        assert_eq!(std::mem::size_of::<RecvReq>(), 8);
    }
}
