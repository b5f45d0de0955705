//! Resumable collective state machines: the one implementation of every
//! schedule, behind both `execute_into` and the nonblocking
//! `start`/`progress`/`complete` plan API.
//!
//! Every schedule a plan can dispatch (ring reduce-scatter and
//! allgather, Bruck, recursive doubling, Rabenseifner, binomial
//! bcast/scatter/gather/reduce, pairwise all-to-all — in raw,
//! CPR-P2P-compressed and compress-once/pipelined form) is an
//! explicit-phase state machine over the plan's [`CollWorkspace`]. One
//! `step(.., block)` function drives each machine:
//!
//! * `block = true` runs the machine to completion in one call, waiting
//!   out each transfer in the schedule's own order and wait category —
//!   this is what `execute_into` drives, and what all eight ablation
//!   baselines ([`crate::collectives::cpr_p2p`],
//!   [`crate::frameworks::data_movement`]) are: one such call each;
//! * `block = false` performs a bounded amount of work and suspends
//!   ([`Poll::Pending`]) at the first not-yet-complete receive or send
//!   (the posted-receive boundaries of the pipeline engine, the
//!   per-round exchanges of the monolithic schedules), which is what
//!   `CollHandle::progress` calls so application compute can run while
//!   transfers are in flight.
//!
//! *Where compression sits* is not spelled out per hop: every machine
//! is built from one `Placement` (refusing in `new` the ones it has no
//! shape for) and binds it to the session codec once per `step`
//! (`Placement::link`). Every reducing hop (ring reduce-scatter rounds,
//! the butterfly fold and halving, recursive doubling's rounds,
//! tree-reduce edges), every raw tree and every CPR-P2P bcast edge steps
//! one `pipeline::StreamCursor` over a `Route`, whatever the placement:
//! `Placement::stream` gives the hop PIPE-SZx sub-chunks when piped, the
//! session's pipe when raw and the whole message as one sub-chunk at
//! CPR-P2P. The remaining monolithic rounds `pack` / `unpack` / `land`
//! through the `Link` (as a route does: the only way a machine reaches
//! the codec) and wait their requests out of the workspace queues with
//! the same two helpers the streaming engine uses (`next_arrival`,
//! `retire_sends`). Under
//! `Placement::Once` the one `pack` happens at the data's origin and the
//! one `unpack` at each consumer, straight into the block's place in the
//! output. The ring allgather (`RingAg`) relays: compress-once in the
//! session's pipe sub-chunks, never below the default pipe — round 0
//! sends each as soon as it is packed, every later round forwards the
//! last one's and lands them while they are on the wire, with no size
//! step — and raw in whole blocks. Rabenseifner's allgather and unfold
//! run at the pooled link whenever the placement is piped or
//! compress-once, and on a flat network relay each range's one blob in
//! framed containers, decoding the last round's while the next is in
//! flight (`CCollSession::relays`). The
//! ordering rules that keep virtual time bit-identical are listed in
//! `placement.rs`.
//!
//! *Where a reduction accumulates* (rule 5 there): in the caller's
//! output, born from the first fold. No reducing machine copies its
//! input in — a range's first send reads `input` and its first fold is
//! `out[range] = fold(input[range], received)` — and where the caller
//! has a full-length `out` nothing is copied out either. Only the
//! callers without one (the reduce-scatter plan, a tree's non-root
//! interior ranks) borrow `ws.acc`, `mem::take`n around the step and
//! put back; the hierarchical allreduce's rows accumulate in `out` (a
//! partial row's partner reduce-scatters in place there). After an
//! aborted operation `out` is unspecified.
//!
//! *Which operation* a message belongs to is not spelled out either: a
//! machine posts bare schedule tags (`tags::` family + placement band +
//! round, all below `0x10000`) to ranks `0..size()` of whatever it is
//! stepped on. The operation's context, the hierarchical groups and
//! the shrink epoch are [`CommView`](ccoll_comm::CommView)s around the communicator: a plan
//! handle steps its machine through `CommView::stamped(comm, op)`,
//! a two-level machine steps each leg through `CommView::group`, and a
//! machine driven bare (ablation baselines, tests) runs in the default
//! context.
//!
//! The machines hold **no heap data**: phase tags, round counters and
//! stream cursors only; requests wait in the workspace's queues. All buffers are borrowed from the caller and the
//! plan's workspace at every step, so the zero-allocation steady state of the
//! persistent-plan API extends to the full
//! start → progress* → complete cycle (pinned by
//! `tests/collective_alloc.rs`).
//!
//! One file per schedule family: `ring` (`RingRs`, `RingAg`),
//! `butterfly` (recursive doubling, Rabenseifner), `tree`
//! (`TreeReduce`), `binomial` (`Bcast`, `Scatter`, `Gather`),
//! `alltoall`, `bruck` (`BruckAg`, `BruckA2a`) and `hier` (the
//! two-level schedules).

mod alltoall;
mod binomial;
mod bruck;
mod butterfly;
mod hier;
mod ring;
mod tree;

use std::collections::VecDeque;

use bytes::Bytes;
use ccoll_comm::{Category, Comm, RecvReq, SendReq, Tag};

use crate::workspace::CollWorkspace;

pub(crate) use alltoall::Alltoall;
pub(crate) use binomial::{Bcast, Gather, Scatter};
pub(crate) use bruck::{BruckA2a, BruckAg};
pub(crate) use butterfly::Butterfly;
pub(crate) use hier::{HierAg, HierAr, HierBc, HierGroups};
pub(crate) use ring::{RingAg, RingRs};
pub(crate) use tree::TreeReduce;

/// The result of polling a nonblocking collective.
///
/// Returned by every `CollHandle::progress` call: [`Poll::Pending`]
/// means the operation is waiting on at least one transfer and the
/// caller should interleave useful compute before polling again;
/// [`Poll::Ready`] means the collective has fully completed and the
/// output buffer holds the result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Poll {
    /// The collective is still in flight; call `progress` again later.
    Pending,
    /// The collective has completed; `complete` will not block.
    Ready,
}

impl Poll {
    /// True when the operation has completed.
    pub fn is_ready(self) -> bool {
        matches!(self, Poll::Ready)
    }
}

// ---------------------------------------------------------------------------
// The wait decision, shared by every monolithic round and the streaming
// engine.
// ---------------------------------------------------------------------------

/// Complete the front posted receive of `rreqs`, charging blocked time
/// to `cat`: `None` when a nonblocking caller finds it not yet arrived,
/// or when a blocking wait under an active [`Comm::fault_policy`]
/// exhausted its per-hop deadline and retry budget — the abort reason is
/// then parked on the profiler (where the handle layer collects it) and
/// the caller suspends, never touching a corrupted buffer.
pub(crate) fn next_arrival<C: Comm>(
    comm: &mut C,
    rreqs: &mut VecDeque<RecvReq>,
    block: bool,
    cat: Category,
) -> Option<Bytes> {
    let ready = rreqs.front().is_some_and(|r| comm.test_recv(r));
    if !ready && !block {
        return None;
    }
    let req = rreqs.pop_front().expect("outstanding receive");
    if !ready && comm.fault_policy().is_active() {
        return match comm.wait_recv_retry_in(req, cat) {
            Ok(payload) => Some(payload),
            Err(err) => {
                comm.profiler().note_abort(err);
                None
            }
        };
    }
    Some(comm.wait_recv_in(req, cat))
}

/// Retire the outstanding sends of `sreqs` FIFO, charging blocked time
/// to `cat`: every one when `block`, else only those whose payload has
/// already left this rank. Returns whether the queue is empty.
pub(crate) fn retire_sends<C: Comm>(
    comm: &mut C,
    sreqs: &mut VecDeque<SendReq>,
    block: bool,
    cat: Category,
) -> bool {
    while let Some(req) = sreqs.pop_front() {
        if block {
            comm.wait_send_in(req, cat);
        } else if let Err(req) = comm.try_send(req, cat) {
            sreqs.push_front(req);
            return false;
        }
    }
    true
}

/// Post one monolithic round on the workspace queues: the receive from
/// `from`, then the send of `payload` to its peer, both on `tag`.
fn post<C: Comm>(
    comm: &mut C,
    ws: &mut CollWorkspace,
    tag: Tag,
    from: Option<usize>,
    send: Option<(usize, Bytes)>,
) {
    ws.rreqs.clear();
    ws.sreqs.clear();
    ws.rreqs.extend(from.map(|from| comm.irecv(from, tag)));
    ws.sreqs
        .extend(send.map(|(to, payload)| comm.isend(to, tag, payload)));
}

/// A posted full-duplex round's wait pair: complete the receive (under
/// `recv_cat`) into `got`, then retire the send (under `send_cat`), and
/// hand the received payload over once both are done. `None` suspends
/// the machine, as in [`next_arrival`].
fn exchange<C: Comm>(
    comm: &mut C,
    ws: &mut CollWorkspace,
    got: &mut Option<Bytes>,
    block: bool,
    (recv_cat, send_cat): (Category, Category),
) -> Option<Bytes> {
    if got.is_none() {
        *got = Some(next_arrival(comm, &mut ws.rreqs, block, recv_cat)?);
    }
    if !retire_sends(comm, &mut ws.sreqs, block, send_cat) {
        return None;
    }
    got.take()
}
