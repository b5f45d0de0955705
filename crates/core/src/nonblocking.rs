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
//! tree-reduce edges) and every raw tree steps one
//! `pipeline::StreamCursor` over a `Route`, whatever the placement:
//! `Placement::stream` gives the hop PIPE-SZx sub-chunks when piped, the
//! session's pipe when raw and the whole message as one sub-chunk at
//! CPR-P2P. The remaining monolithic rounds `pack` / `unpack` / `land`
//! through the `Link` (as a route does: the only way a machine reaches
//! the codec) and wait their requests out in a `Wire`. Under
//! `Placement::Once` the one `pack` happens at the data's origin and the
//! one `unpack` at each consumer, straight into the block's place in the
//! output. The ring allgather (`RingAg`) relays: compress-once in the
//! session's pipe sub-chunks, never below the default pipe — round 0
//! sends each as soon as it is packed, every later round forwards the
//! last one's and lands them while they are on the wire, with no size
//! step — and raw in whole blocks. The
//! ordering rules that keep virtual time bit-identical are listed in
//! `placement.rs`.
//!
//! *Where a reduction accumulates* (rule 5 there): in the caller's
//! output, born from the first fold. No reducing machine copies its
//! input in — a range's first send reads `input` and its first fold is
//! `out[range] = fold(input[range], received)` — and where the caller
//! has a full-length `out` nothing is copied out either. Only the
//! callers without one (the reduce-scatter plan, a tree's non-root
//! interior ranks, the hierarchical node-local reduce-scatter) borrow
//! `ws.acc`, `mem::take`n around the step and put back. After an
//! aborted operation `out` is unspecified.
//!
//! *Which operation* a message belongs to is not spelled out either: a
//! machine posts bare schedule tags (`tags::` family + placement band +
//! round, all below `0x10000`) to ranks `0..size()` of whatever it is
//! stepped on. The per-operation tag base, the hierarchical groups and
//! the shrink epoch are [`CommView`]s around the communicator: a plan
//! handle steps its machine through `CommView::stamped(comm, op_base)`,
//! a two-level machine steps each leg through `CommView::group`, and a
//! machine driven bare (ablation baselines, tests) runs at base 0.
//!
//! The machines hold **no heap data**: phase tags, round counters and
//! request slots only. All buffers are borrowed from the caller and the
//! plan's workspace at every step, so the zero-allocation steady state of the
//! persistent-plan API extends to the full
//! start → progress* → complete cycle (pinned by
//! `tests/collective_alloc.rs`).

use std::ops::Range;

use bytes::Bytes;
use ccoll_comm::{Category, Comm, CommView, RecvReq, SendReq, Tag};

use crate::collectives::baseline::{butterfly_fold, butterfly_pos_to_rank};
use crate::collectives::cpr_p2p::CprCodec;
use crate::collectives::{memcpy_in, tags};
use crate::frameworks::computation::DEFAULT_PIPE_VALUES;
use crate::partition::chunk_range;
use crate::pipeline::{
    abort_stream, split_src_dst, Land, Route, StreamCursor, NONBLOCKING_DRAIN_BUDGET, WHOLE,
};
use crate::placement::{Link, Placement};
use crate::reduce::ReduceOp;
use crate::workspace::CollWorkspace;

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
// Request-slot helpers.
// ---------------------------------------------------------------------------

/// One outstanding exchange's request slots. Plain-old-data: the
/// payloads live in the transport / payload pool.
#[derive(Debug, Default)]
struct Wire {
    rreq: Option<RecvReq>,
    sreq: Option<SendReq>,
    /// A received payload held while [`Wire::exchange`] waits out the
    /// send.
    stash: Option<Bytes>,
}

impl Wire {
    /// Complete the posted receive: blocking when `block`, else only if
    /// the message has arrived.
    ///
    /// Under an active [`Comm::fault_policy`] the blocking path waits
    /// with the per-hop deadline and bounded retry budget; exhausting
    /// it notes the abort on the profiler (where the handle layer
    /// collects it) and returns `None` — the machine sees an ordinary
    /// "not ready" and suspends, never touching a corrupted buffer.
    fn recv<C: Comm>(&mut self, comm: &mut C, block: bool, cat: Category) -> Option<Bytes> {
        let req = self.rreq.take().expect("receive must be posted");
        if block {
            if comm.fault_policy().is_active() {
                return match comm.wait_recv_retry_in(req, cat) {
                    Ok(payload) => Some(payload),
                    Err(err) => {
                        comm.profiler().note_abort(err);
                        None
                    }
                };
            }
            return Some(comm.wait_recv_in(req, cat));
        }
        match comm.try_recv(req, cat) {
            Ok(payload) => Some(payload),
            Err(req) => {
                self.rreq = Some(req);
                None
            }
        }
    }

    /// Retire the posted send (if any): blocking when `block`, else only
    /// if the payload has left this rank. Returns completion.
    fn send_done<C: Comm>(&mut self, comm: &mut C, block: bool, cat: Category) -> bool {
        let Some(req) = self.sreq.take() else {
            return true;
        };
        if block {
            comm.wait_send_in(req, cat);
            return true;
        }
        match comm.try_send(req, cat) {
            Ok(()) => true,
            Err(req) => {
                self.sreq = Some(req);
                false
            }
        }
    }

    /// A full-duplex round's wait pair: complete the posted receive
    /// (under `recv_cat`), then retire the posted send (under
    /// `send_cat`), and hand the received payload over once both are
    /// done. `None` suspends the machine, as in [`Wire::recv`].
    fn exchange<C: Comm>(
        &mut self,
        comm: &mut C,
        block: bool,
        recv_cat: Category,
        send_cat: Category,
    ) -> Option<Bytes> {
        if self.stash.is_none() {
            self.stash = Some(self.recv(comm, block, recv_cat)?);
        }
        if !self.send_done(comm, block, send_cat) {
            return None;
        }
        self.stash.take()
    }
}

// ---------------------------------------------------------------------------
// Ring reduce-scatter.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum RsPhase {
    Init,
    Round,
    Finish,
    Done,
}

/// Resumable ring reduce-scatter: `n−1` hop rounds over a full-length
/// accumulator, each one [`Route::hop`] stream — `pipe`-value raw
/// sub-chunks, PIPE-SZx sub-chunks (piped) or one whole-message
/// sub-chunk (CPR-P2P) — folding each arrival while the later ones are
/// still on the wire, and suspending at its first not-yet-ready receive
/// or send.
///
/// The accumulator is never initialized: every chunk is folded exactly
/// once on this rank, so each fold is the first touch of its chunk
/// (`chunk = fold(input chunk, received)`), round 0 ships the input
/// itself and round `k > 0` the chunk round `k − 1` folded.
#[derive(Debug)]
pub(crate) struct RingRs {
    place: Placement,
    /// Raw sub-chunk size (see [`Placement::stream`]).
    pipe: usize,
    phase: RsPhase,
    k: usize,
    hop: StreamCursor,
}

impl RingRs {
    pub(crate) fn new(place: Placement, pipe: usize) -> Self {
        RingRs {
            place,
            pipe,
            phase: RsPhase::Init,
            k: 0,
            hop: StreamCursor::default(),
        }
    }

    /// Drive the reduce-scatter over `acc`, a full-length accumulator
    /// whose contents on entry do not matter (an allreduce passes its
    /// output). On `Ready` this rank's chunk of the balanced partition
    /// is reduced and finalized in place in `acc`; the rest of `acc` is
    /// unspecified.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn step<C: Comm>(
        &mut self,
        comm: &mut C,
        cpr: Option<&CprCodec>,
        op: ReduceOp,
        input: &[f32],
        acc: &mut [f32],
        ws: &mut CollWorkspace,
        block: bool,
    ) -> Poll {
        let n = comm.size();
        let me = comm.rank();
        let right = (me + 1) % n;
        let left = (me + n - 1) % n;
        let stream = self.place.stream(cpr, self.pipe);
        loop {
            match self.phase {
                RsPhase::Init => {
                    ws.set_partition(input.len(), n);
                    assert_eq!(acc.len(), input.len(), "accumulator size mismatch");
                    self.k = 0;
                    self.phase = if n > 1 {
                        RsPhase::Round
                    } else {
                        // One rank: no fold to be born from.
                        memcpy_in(comm, acc, input);
                        RsPhase::Finish
                    };
                }
                RsPhase::Round => {
                    if self.k == n - 1 {
                        self.phase = RsPhase::Finish;
                        continue;
                    }
                    // Piped rounds have their own tag family.
                    let tag = match self.place {
                        Placement::Piped(_) => tags::PIPELINE,
                        place => tags::REDUCE_SCATTER + place.band(),
                    } + self.k as Tag;
                    let send = ws.chunk((me + 2 * n - self.k - 1) % n);
                    let recv = ws.chunk((me + 2 * n - self.k - 2) % n);
                    let land = Land::Fold(op, Some(&input[recv.clone()]));
                    let (src, dst) = if self.k == 0 {
                        (&input[send], &mut acc[recv])
                    } else {
                        split_src_dst(acc, send, recv)
                    };
                    let route = Route::hop(stream, tag, Some((src, right)), Some((left, land)));
                    let poll = self.hop.step(comm, route, dst, &mut ws.pipe(), block);
                    if poll == Poll::Pending {
                        return Poll::Pending;
                    }
                    self.k += 1;
                }
                RsPhase::Finish => {
                    op.finalize(&mut acc[ws.chunk(me)], n);
                    self.phase = RsPhase::Done;
                }
                RsPhase::Done => return Poll::Ready,
            }
        }
    }

    /// [`RingRs::step`] for a caller with room for its own chunk only:
    /// the accumulator is the workspace's, lent for the call, and the
    /// chunk is copied out of it once.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn step_chunk<C: Comm>(
        &mut self,
        comm: &mut C,
        cpr: Option<&CprCodec>,
        op: ReduceOp,
        input: &[f32],
        out_chunk: &mut [f32],
        ws: &mut CollWorkspace,
        block: bool,
    ) -> Poll {
        let mine = chunk_range(input.len(), comm.size(), comm.rank());
        assert_eq!(out_chunk.len(), mine.len(), "output must hold my chunk");
        let mut acc = std::mem::take(&mut ws.acc);
        acc.resize(input.len(), 0.0);
        let poll = self.step(comm, cpr, op, input, &mut acc, ws, block);
        if poll.is_ready() {
            out_chunk.copy_from_slice(&acc[mine]);
        }
        ws.acc = acc;
        poll
    }
}

// ---------------------------------------------------------------------------
// Ring allgather.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum AgPhase {
    Init,
    /// A relaying placement's round `k`, streamed.
    Relay,
    /// A CPR-P2P round: re-pack, post, send.
    Round,
    /// A CPR-P2P round's wait pair.
    Exchange,
    Sweep,
    Done,
}

/// Resumable ring allgather over the caller's output buffer.
///
/// Raw and compress-once (the data-movement framework) relay: every
/// block travels as `⌈block / pipe⌉` sub-chunks (one for an empty
/// block), `pipe` being the session's pipe at compress-once, never below
/// [`DEFAULT_PIPE_VALUES`], and the whole block raw. Round 0 packs the own block one sub-chunk at a time
/// and sends each as soon as it is packed; round `k ≥ 1` forwards,
/// untouched, every payload received in round `k − 1`, one message per
/// sub-chunk, and lands that block sub-chunk by sub-chunk while the
/// payloads are on the wire. So the own block's encode hides all of its
/// transfer but the last sub-chunk's, and only the last block's decode
/// is exposed. Every message carries its own length: there is no size
/// step. CPR-P2P re-packs every round's block from `out` and unpacks
/// what it receives.
///
/// The own block either comes from `mine` (standalone allgather plan)
/// or is already in place in `out` (the allreduce composition, `mine =
/// None`). The partition must be cached in the workspace before the
/// first step. A round's receives are posted up front and waited out
/// (with the fault policy's retries) before the next round forwards
/// them; its sends retire before the round ends. So a lost sub-chunk
/// starves its round's last receive and aborts the operation before
/// anything of that block moves on; a payload that does not fit its
/// slot aborts it too, never panicking.
#[derive(Debug)]
pub(crate) struct RingAg {
    place: Placement,
    /// Values per relayed sub-chunk.
    pipe: usize,
    /// Relay slots in all, and the first slots of the blocks this
    /// round forwards and receives (see [`RingAg::slot`]).
    slots: usize,
    fwd: usize,
    into: usize,
    /// Relaying placements: land a block while its onward relay is on
    /// the wire (plans) rather than in one sweep after the last round
    /// (the monolithic compress-once ablation baseline).
    overlap: bool,
    phase: AgPhase,
    k: usize,
    /// This relay round's progress: receives posted, sub-chunks sent,
    /// forwarded sub-chunks landed, inbound ones received.
    posted: bool,
    sent: usize,
    landed: usize,
    got: usize,
    wire: Wire,
}

impl RingAg {
    /// `pipe` is the session's pipe (values): compress-once relays in
    /// sub-chunks of it, but of no fewer than [`DEFAULT_PIPE_VALUES`] —
    /// every relayed sub-chunk pays a message's latency in each of the
    /// `n − 2` relay rounds, so a pipe tuned smaller for the codec
    /// overlap of the reduce-scatter must not multiply them. Raw relays
    /// whole blocks and CPR-P2P re-packs them.
    pub(crate) fn new(place: Placement, pipe: usize, overlap: bool) -> Self {
        let place = place.movement(true, "ring allgather");
        RingAg {
            place,
            pipe: if matches!(place, Placement::Once) {
                pipe.max(DEFAULT_PIPE_VALUES)
            } else {
                WHOLE
            },
            slots: 0,
            fwd: 0,
            into: 0,
            overlap,
            phase: AgPhase::Init,
            k: 0,
            posted: false,
            sent: 0,
            landed: 0,
            got: 0,
            wire: Wire::default(),
        }
    }

    /// Land the own block. In the allreduce composition (`mine = None`)
    /// the reduce-scatter stage reduced it in place: nothing moves and
    /// nothing is charged.
    fn land_own<C: Comm>(comm: &mut C, mine: Option<&[f32]>, own: &mut [f32]) {
        if let Some(m) = mine {
            memcpy_in(comm, own, m);
        }
    }

    /// Sub-chunks a `len`-value block travels as.
    fn subs(&self, len: usize) -> usize {
        len.div_ceil(self.pipe).max(1)
    }

    /// The first relay slot of block `b`: slots are laid out block after
    /// block, one per sub-chunk. Summed once per operation, at `Init`;
    /// the rounds then step their bases back one block at a time
    /// ([`RingAg::prev_slot`]).
    fn slot(&self, ws: &CollWorkspace, b: usize) -> usize {
        ws.counts[..b].iter().map(|&c| self.subs(c)).sum()
    }

    /// The first relay slot of the block before `b` (ring order), given
    /// `base`, block `b`'s.
    fn prev_slot(&self, ws: &CollWorkspace, b: usize, base: usize) -> usize {
        let n = ws.counts.len();
        let prev = (b + n - 1) % n;
        let end = if b == 0 { self.slots } else { base };
        end - self.subs(ws.counts[prev])
    }

    /// The values of sub-chunk `j` of a `len`-value block.
    fn sub(&self, j: usize, len: usize) -> Range<usize> {
        let lo = j.saturating_mul(self.pipe).min(len);
        lo..len.min(lo.saturating_add(self.pipe))
    }

    /// Land sub-chunk `j` of block `b`, whose first relay slot is
    /// `base`, from its slot, if held; `false` (the operation aborted)
    /// when the payload does not fit.
    fn land<C: Comm>(
        &self,
        comm: &mut C,
        link: Link<'_>,
        out: &mut [f32],
        ws: &mut CollWorkspace,
        (b, base): (usize, usize),
        j: usize,
    ) -> bool {
        let Some(blob) = ws.blobs[base + j].take() else {
            return true;
        };
        let (at, sub) = (ws.chunk(b), self.sub(j, ws.counts[b]));
        let dst = &mut out[at.start + sub.start..at.start + sub.end];
        if link.try_unpack(comm, &blob, dst, &mut ws.scratch).is_ok() {
            return true;
        }
        let (n, me) = (comm.size(), comm.rank());
        let round = (me + n - 1 - b) % n;
        let tag = tags::ALLGATHER + self.place.band() + round as Tag;
        abort_stream(comm, (me + n - 1) % n, tag);
        false
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn step<C: Comm>(
        &mut self,
        comm: &mut C,
        cpr: Option<&CprCodec>,
        mine: Option<&[f32]>,
        out: &mut [f32],
        ws: &mut CollWorkspace,
        block: bool,
    ) -> Poll {
        let n = comm.size();
        let me = comm.rank();
        let right = (me + 1) % n;
        let left = (me + n - 1) % n;
        let link = self.place.link(cpr);
        let cat = Category::Allgather;
        loop {
            match self.phase {
                AgPhase::Init => {
                    self.k = 0;
                    if matches!(link, Link::Cpr(_)) {
                        Self::land_own(comm, mine, &mut out[ws.chunk(me)]);
                        self.phase = if n > 1 { AgPhase::Round } else { AgPhase::Done };
                    } else {
                        // One relay slot per sub-chunk of every block.
                        self.slots = self.slot(ws, n);
                        self.fwd = self.slot(ws, me);
                        self.into = self.prev_slot(ws, me, self.fwd);
                        ws.blobs.clear();
                        ws.blobs.resize(self.slots, None);
                        self.phase = AgPhase::Relay;
                    }
                }
                AgPhase::Relay => {
                    if self.k == n - 1 {
                        Self::land_own(comm, mine, &mut out[ws.chunk(me)]);
                        self.phase = AgPhase::Sweep;
                        continue;
                    }
                    let send_idx = (me + n - self.k) % n;
                    let recv_idx = (me + n - 1 - self.k) % n;
                    let tag = tags::ALLGATHER + self.place.band() + self.k as Tag;
                    let own = self.subs(ws.counts[send_idx]);
                    let inbound = self.subs(ws.counts[recv_idx]);
                    let (fwd, into) = (self.fwd, self.into);
                    let own_block = ws.chunk(me);
                    if !self.posted {
                        ws.sreqs.clear();
                        ws.rreqs.clear();
                        ws.rreqs.extend((0..inbound).map(|_| comm.irecv(left, tag)));
                        self.posted = true;
                    }
                    // Round 0 packs its own sub-chunks into their slots,
                    // one charged encode per nonblocking step; later rounds
                    // forward what the last one received, uncharged. The
                    // own slots hold their payloads until the next call's
                    // `Init` releases them, so the pools recycle the same
                    // buffers for the same sizes every call.
                    let charged = self.k == 0 && !matches!(link, Link::Raw);
                    let mut encodes = if block || !charged { own } else { 1 };
                    while self.sent < own && encodes > 0 {
                        if self.k == 0 {
                            let vals = mine.unwrap_or(&out[own_block.clone()]);
                            let at = self.sub(self.sent, vals.len());
                            let blob = link.pack(comm, &vals[at], &mut ws.pool);
                            ws.blobs[fwd + self.sent] = Some(blob);
                        }
                        let blob = ws.blobs[fwd + self.sent].clone();
                        let blob = blob.expect("a relayed sub-chunk is held until it lands");
                        ws.sreqs.push_back(comm.isend(right, tag, blob));
                        self.sent += 1;
                        encodes -= 1;
                    }
                    // Land the forwarded block while it is on the wire.
                    let relayed = if self.k > 0 && self.overlap { own } else { 0 };
                    let mut budget = if block {
                        relayed
                    } else {
                        NONBLOCKING_DRAIN_BUDGET
                    };
                    while self.landed < relayed && budget > 0 {
                        if !self.land(comm, link, out, ws, (send_idx, fwd), self.landed) {
                            return Poll::Pending;
                        }
                        self.landed += 1;
                        budget -= 1;
                    }
                    // Take what has arrived; a blocking step, which has
                    // sent and landed everything by now, waits the rest
                    // out.
                    while self.got < inbound {
                        self.wire.rreq = ws.rreqs.pop_front();
                        let Some(got) = self.wire.recv(comm, block, cat) else {
                            // Not here yet (nonblocking), or aborted.
                            if let Some(req) = self.wire.rreq.take() {
                                ws.rreqs.push_front(req);
                            }
                            break;
                        };
                        ws.blobs[into + self.got] = Some(got);
                        self.got += 1;
                    }
                    if self.sent < own || self.landed < relayed || self.got < inbound {
                        return Poll::Pending;
                    }
                    while let Some(req) = ws.sreqs.pop_front() {
                        self.wire.sreq = Some(req);
                        if !self.wire.send_done(comm, block, cat) {
                            ws.sreqs.push_front(self.wire.sreq.take().expect("kept"));
                            return Poll::Pending;
                        }
                    }
                    (self.posted, self.sent, self.landed, self.got) = (false, 0, 0, 0);
                    // The next round forwards the block this one received.
                    (self.fwd, self.into) = (into, self.prev_slot(ws, recv_idx, into));
                    self.k += 1;
                }
                AgPhase::Round => {
                    if self.k == n - 1 {
                        self.phase = AgPhase::Done;
                        continue;
                    }
                    let send_idx = (me + n - self.k) % n;
                    let tag = tags::ALLGATHER + self.place.band() + self.k as Tag;
                    let payload = link.pack(comm, &out[ws.chunk(send_idx)], &mut ws.pool);
                    self.wire.rreq = Some(comm.irecv(left, tag));
                    self.wire.sreq = Some(comm.isend(right, tag, payload));
                    self.phase = AgPhase::Exchange;
                }
                AgPhase::Exchange => {
                    let Some(got) = self.wire.exchange(comm, block, cat, cat) else {
                        return Poll::Pending;
                    };
                    let at = ws.chunk((me + n - 1 - self.k) % n);
                    link.unpack(comm, &got, &mut out[at], &mut ws.scratch);
                    self.k += 1;
                    self.phase = AgPhase::Round;
                }
                // Relay epilogue: whatever the rounds did not land.
                AgPhase::Sweep => {
                    let mut budget = if block {
                        usize::MAX
                    } else {
                        NONBLOCKING_DRAIN_BUDGET
                    };
                    let mut base = 0;
                    for b in 0..n {
                        let subs = self.subs(ws.counts[b]);
                        for j in (0..subs).filter(|_| b != me) {
                            if ws.blobs[base + j].is_none() {
                                continue;
                            }
                            if budget == 0 {
                                return Poll::Pending;
                            }
                            if !self.land(comm, link, out, ws, (b, base), j) {
                                return Poll::Pending;
                            }
                            budget -= 1;
                        }
                        base += subs;
                    }
                    self.phase = AgPhase::Done;
                }
                AgPhase::Done => return Poll::Ready,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Butterfly allreduces: recursive doubling and Rabenseifner.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum BflyPhase {
    Init,
    FoldSend,
    FoldRecv,
    Halving,
    Exchange,
    Doubling,
    DoublingExchange,
    Unfold,
    UnfoldSendWait,
    UnfoldRecvWait,
    Final,
    Done,
}

/// Resumable butterfly allreduce: serves both recursive doubling
/// (`halving = false`, full-payload rounds) and Rabenseifner
/// (`halving = true`, recursive-halving reduce-scatter +
/// recursive-doubling allgather), in raw / CPR / pipelined placements.
/// The fold and halving legs are [`Route::hop`] streams and recursive
/// doubling's rounds [`Route::exchange`]s (`pipe`-value sub-chunks raw,
/// PIPE-SZx sub-chunks piped, one whole message at CPR-P2P);
/// Rabenseifner's doubling and the unfold move finalized data and stay
/// monolithic `Wire` exchanges.
///
/// The accumulator is the caller's `out`, *born* from this rank's first
/// fold (`out[range] = fold(input[range], received)`); until then sends
/// read `input`. A rank the non-power-of-two fold folds away never
/// accumulates: it ships `input` and lands the unfold in `out`.
#[derive(Debug)]
pub(crate) struct Butterfly {
    place: Placement,
    /// Raw sub-chunk size (see [`Placement::stream`]).
    pipe: usize,
    /// Rabenseifner when true, recursive doubling when false.
    halving: bool,
    /// `out` holds this rank's live accumulator range.
    born: bool,
    phase: BflyPhase,
    pos: usize,
    lo: usize,
    hi: usize,
    mask: usize,
    round: Tag,
    pow2: usize,
    rem: usize,
    tag: Tag,
    hop: StreamCursor,
    wire: Wire,
}

impl Butterfly {
    pub(crate) fn recursive_doubling(place: Placement, pipe: usize) -> Self {
        Self::new(place, pipe, false)
    }

    pub(crate) fn rabenseifner(place: Placement, pipe: usize) -> Self {
        Self::new(place, pipe, true)
    }

    fn new(place: Placement, pipe: usize, halving: bool) -> Self {
        Butterfly {
            place,
            pipe,
            halving,
            born: false,
            phase: BflyPhase::Init,
            pos: 0,
            lo: 0,
            hi: 0,
            mask: 0,
            round: 0,
            pow2: 1,
            rem: 0,
            tag: 0,
            hop: StreamCursor::default(),
            wire: Wire::default(),
        }
    }

    /// Value range covered by butterfly chunk indices `[lo, hi)`.
    fn range(ws: &CollWorkspace, lo: usize, hi: usize) -> Range<usize> {
        ws.offsets[lo]..ws.chunk(hi - 1).end
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn step<C: Comm>(
        &mut self,
        comm: &mut C,
        cpr: Option<&CprCodec>,
        op: ReduceOp,
        input: &[f32],
        out: &mut [f32],
        ws: &mut CollWorkspace,
        block: bool,
    ) -> Poll {
        let n = comm.size();
        let me = comm.rank();
        let link = self.place.link(cpr);
        let stream = self.place.stream(cpr, self.pipe);
        loop {
            match self.phase {
                BflyPhase::Init => {
                    assert_eq!(out.len(), input.len(), "output buffer size mismatch");
                    let (pow2, rem) = butterfly_fold(n);
                    self.pow2 = pow2;
                    self.rem = rem;
                    let family = if self.halving {
                        tags::RABENSEIFNER
                    } else {
                        tags::RECURSIVE_DOUBLING
                    };
                    self.tag = family + self.place.band();
                    if self.halving {
                        ws.set_partition(input.len(), pow2);
                    }
                    // One rank: no round to be born from.
                    self.born = pow2 == 1;
                    if self.born {
                        memcpy_in(comm, out, input);
                    }
                    if me < 2 * rem {
                        if me.is_multiple_of(2) {
                            self.phase = BflyPhase::FoldSend;
                        } else {
                            self.pos = me / 2;
                            self.phase = BflyPhase::FoldRecv;
                        }
                    } else {
                        self.pos = me - rem;
                        self.enter_rounds();
                    }
                }
                // Fold: the contributing even rank ships its whole input.
                BflyPhase::FoldSend => {
                    let route = Route::hop(stream, self.tag, Some((input, me + 1)), None);
                    let poll = self.hop.step(comm, route, &mut [], &mut ws.pipe(), block);
                    if poll == Poll::Pending {
                        return Poll::Pending;
                    }
                    self.phase = BflyPhase::Unfold;
                }
                // Fold: the surviving odd rank reduces what arrives —
                // its first touch of `out`.
                BflyPhase::FoldRecv => {
                    let land = Land::Fold(op, Some(input));
                    let route = Route::hop(stream, self.tag, None, Some((me - 1, land)));
                    let poll = self.hop.step(comm, route, out, &mut ws.pipe(), block);
                    if poll == Poll::Pending {
                        return Poll::Pending;
                    }
                    self.born = true;
                    self.enter_rounds();
                }
                // Rabenseifner recursive-halving reduce-scatter rounds.
                BflyPhase::Halving => {
                    if self.mask < 1 {
                        self.mask = 1;
                        self.round = 0x100;
                        self.phase = BflyPhase::Doubling;
                        continue;
                    }
                    let peer = butterfly_pos_to_rank(self.pos ^ self.mask, self.rem);
                    let (keep, send) = self.halving_ranges(ws);
                    let (first, src, dst) = if self.born {
                        let (src, dst) = split_src_dst(out, send, keep);
                        (None, src, dst)
                    } else {
                        (Some(&input[keep.clone()]), &input[send], &mut out[keep])
                    };
                    let (tag, land) = (self.tag + self.round, Land::Fold(op, first));
                    let route = Route::hop(stream, tag, Some((src, peer)), Some((peer, land)));
                    let poll = self.hop.step(comm, route, dst, &mut ws.pipe(), block);
                    if poll == Poll::Pending {
                        return Poll::Pending;
                    }
                    self.born = true;
                    self.advance_halving();
                }
                // Recursive doubling: every round folds the partner's
                // whole accumulator into this rank's, in place.
                BflyPhase::Exchange => {
                    if self.mask >= self.pow2 {
                        self.phase = BflyPhase::Unfold;
                        continue;
                    }
                    let peer = butterfly_pos_to_rank(self.pos ^ self.mask, self.rem);
                    let first = (!self.born).then_some(input);
                    let route = Route::exchange(stream, self.tag + self.round, peer, op, first);
                    let poll = self.hop.step(comm, route, out, &mut ws.pipe(), block);
                    if poll == Poll::Pending {
                        return Poll::Pending;
                    }
                    self.born = true;
                    self.mask <<= 1;
                    self.round += 1;
                }
                // Rabenseifner's recursive-doubling allgather: finalized
                // aligned ranges move, monolithic in every placement.
                BflyPhase::Doubling => {
                    if self.mask >= self.pow2 {
                        self.phase = BflyPhase::Unfold;
                        continue;
                    }
                    let peer = butterfly_pos_to_rank(self.pos ^ self.mask, self.rem);
                    let tag = self.tag + self.round;
                    let (send, _) = self.doubling_ranges(ws);
                    let payload = link.pack(comm, &out[send], &mut ws.pool);
                    self.wire.rreq = Some(comm.irecv(peer, tag));
                    self.wire.sreq = Some(comm.isend(peer, tag, payload));
                    self.phase = BflyPhase::DoublingExchange;
                }
                BflyPhase::DoublingExchange => {
                    let cat = Category::Wait;
                    let Some(got) = self.wire.exchange(comm, block, cat, cat) else {
                        return Poll::Pending;
                    };
                    let (_, peer) = self.doubling_ranges(ws);
                    link.unpack(comm, &got, &mut out[peer], &mut ws.scratch);
                    self.mask <<= 1;
                    self.round += 1;
                    self.phase = BflyPhase::Doubling;
                }
                // Unfold: ship the final buffer back to the folded-away
                // rank.
                BflyPhase::Unfold => {
                    if me >= 2 * self.rem {
                        self.phase = BflyPhase::Final;
                        continue;
                    }
                    if me % 2 == 1 {
                        let payload = link.pack(comm, out, &mut ws.pool);
                        self.wire.sreq = Some(comm.isend(me - 1, self.tag + 999, payload));
                        self.phase = BflyPhase::UnfoldSendWait;
                    } else {
                        self.wire.rreq = Some(comm.irecv(me + 1, self.tag + 999));
                        self.phase = BflyPhase::UnfoldRecvWait;
                    }
                }
                BflyPhase::UnfoldSendWait => {
                    if !self.wire.send_done(comm, block, Category::Wait) {
                        return Poll::Pending;
                    }
                    self.phase = BflyPhase::Final;
                }
                BflyPhase::UnfoldRecvWait => {
                    let Some(got) = self.wire.recv(comm, block, Category::Others) else {
                        return Poll::Pending;
                    };
                    link.unpack(comm, &got, out, &mut ws.scratch);
                    self.phase = BflyPhase::Final;
                }
                BflyPhase::Final => {
                    op.finalize(out, n);
                    self.phase = BflyPhase::Done;
                }
                BflyPhase::Done => return Poll::Ready,
            }
        }
    }

    /// Enter the exchange rounds after the fold resolved this rank's
    /// butterfly position.
    fn enter_rounds(&mut self) {
        if self.halving {
            self.lo = 0;
            self.hi = self.pow2;
            self.mask = self.pow2 / 2;
            self.round = 1;
            self.phase = BflyPhase::Halving;
        } else {
            self.mask = 1;
            self.round = 1;
            self.phase = BflyPhase::Exchange;
        }
    }

    /// `(keep, send)` value ranges of the current halving round.
    fn halving_ranges(&self, ws: &CollWorkspace) -> (Range<usize>, Range<usize>) {
        let mid = self.lo + (self.hi - self.lo) / 2;
        let (low, high) = (Self::range(ws, self.lo, mid), Self::range(ws, mid, self.hi));
        if self.pos & self.mask == 0 {
            (low, high)
        } else {
            (high, low)
        }
    }

    /// Advance the halving cursor to the next round.
    fn advance_halving(&mut self) {
        let mid = self.lo + (self.hi - self.lo) / 2;
        if self.pos & self.mask == 0 {
            self.hi = mid;
        } else {
            self.lo = mid;
        }
        self.mask /= 2;
        self.round += 1;
        self.phase = BflyPhase::Halving;
    }

    /// `(send, peer)` value ranges of the current Rabenseifner doubling
    /// round.
    fn doubling_ranges(&self, ws: &CollWorkspace) -> (Range<usize>, Range<usize>) {
        let base = self.pos & !(2 * self.mask - 1);
        let (low, high) = (
            Self::range(ws, base, base + self.mask),
            Self::range(ws, base + self.mask, base + 2 * self.mask),
        );
        if self.pos & self.mask == 0 {
            (low, high)
        } else {
            (high, low)
        }
    }
}

// ---------------------------------------------------------------------------
// Binomial-tree rooted reduce.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum TreePhase {
    Init,
    Loop,
    SendParent,
    RecvChild,
    Final,
    DoneRoot,
    DoneLeaf,
}

/// Resumable binomial-tree rooted reduce. `step` returns
/// `Poll::Ready`; whether this rank is the root comes from
/// [`TreeReduce::is_root`] after completion. Every tree edge is one
/// [`Route::hop`] stream: `pipe`-value sub-chunks raw, PIPE-SZx
/// sub-chunks piped, one whole message at CPR-P2P.
///
/// A rank's accumulator is born from its first child's fold
/// (`acc = fold(input, received)`) and a rank without children sends
/// `input` itself. The root accumulates in its `out`; an interior rank
/// has no output and borrows the workspace accumulator.
#[derive(Debug)]
pub(crate) struct TreeReduce {
    place: Placement,
    /// Raw sub-chunk size (see [`Placement::stream`]).
    pipe: usize,
    root: usize,
    phase: TreePhase,
    mask: usize,
    /// The accumulator holds a fold (else this rank's value is `input`).
    born: bool,
    hop: StreamCursor,
}

impl TreeReduce {
    pub(crate) fn new(place: Placement, pipe: usize, root: usize) -> Self {
        TreeReduce {
            place,
            pipe,
            root,
            phase: TreePhase::Init,
            mask: 1,
            born: false,
            hop: StreamCursor::default(),
        }
    }

    /// True when this rank ended up holding the reduced result. Only
    /// meaningful after `step` returned `Poll::Ready`.
    pub(crate) fn is_root(&self) -> bool {
        matches!(self.phase, TreePhase::DoneRoot)
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn step<C: Comm>(
        &mut self,
        comm: &mut C,
        cpr: Option<&CprCodec>,
        op: ReduceOp,
        input: &[f32],
        out: &mut [f32],
        ws: &mut CollWorkspace,
        block: bool,
    ) -> Poll {
        let n = comm.size();
        assert!(self.root < n, "root {} out of range", self.root);
        let relative = (comm.rank() + n - self.root) % n;
        if relative == 0 {
            assert_eq!(out.len(), input.len(), "root output must hold the result");
            return self.run(comm, cpr, op, input, out, ws, block);
        }
        let mut acc = std::mem::take(&mut ws.acc);
        // A rank's first child, if it has any, is the next rank up.
        if relative.is_multiple_of(2) && relative + 1 < n {
            acc.resize(input.len(), 0.0);
        }
        let poll = self.run(comm, cpr, op, input, &mut acc, ws, block);
        ws.acc = acc;
        poll
    }

    /// [`TreeReduce::step`] over this rank's accumulator (untouched, and
    /// possibly empty, on a rank without children).
    #[allow(clippy::too_many_arguments)]
    fn run<C: Comm>(
        &mut self,
        comm: &mut C,
        cpr: Option<&CprCodec>,
        op: ReduceOp,
        input: &[f32],
        acc: &mut [f32],
        ws: &mut CollWorkspace,
        block: bool,
    ) -> Poll {
        let n = comm.size();
        let me = comm.rank();
        let relative = (me + n - self.root) % n;
        let tag = tags::TREE_REDUCE + self.place.band();
        let stream = self.place.stream(cpr, self.pipe);
        loop {
            match self.phase {
                TreePhase::Init => {
                    self.mask = 1;
                    self.born = false;
                    self.phase = TreePhase::Loop;
                }
                TreePhase::Loop => {
                    if self.mask >= n {
                        self.phase = TreePhase::Final;
                    } else if relative & self.mask != 0 {
                        self.phase = TreePhase::SendParent;
                    } else if relative + self.mask < n {
                        self.phase = TreePhase::RecvChild;
                    } else {
                        self.mask <<= 1;
                    }
                }
                TreePhase::SendParent => {
                    let to = (relative - self.mask + self.root) % n;
                    let src = if self.born { &*acc } else { input };
                    let route = Route::hop(stream, tag, Some((src, to)), None);
                    let poll = self.hop.step(comm, route, &mut [], &mut ws.pipe(), block);
                    if poll == Poll::Pending {
                        return Poll::Pending;
                    }
                    self.phase = TreePhase::DoneLeaf;
                }
                TreePhase::RecvChild => {
                    let from = (relative + self.mask + self.root) % n;
                    let land = Land::Fold(op, (!self.born).then_some(input));
                    let route = Route::hop(stream, tag, None, Some((from, land)));
                    let poll = self.hop.step(comm, route, acc, &mut ws.pipe(), block);
                    if poll == Poll::Pending {
                        return Poll::Pending;
                    }
                    self.born = true;
                    self.mask <<= 1;
                    self.phase = TreePhase::Loop;
                }
                // Only the root gets here; its accumulator is `out`.
                TreePhase::Final => {
                    if !self.born {
                        // One rank: no fold to be born from.
                        memcpy_in(comm, acc, input);
                    }
                    op.finalize(acc, n);
                    self.phase = TreePhase::DoneRoot;
                }
                TreePhase::DoneRoot | TreePhase::DoneLeaf => return Poll::Ready,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Binomial-tree broadcast.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum BcPhase {
    Init,
    HeaderWait,
    RecvWait,
    Sends,
    HeaderSent,
    SendWait,
    Done,
}

/// Resumable binomial-tree broadcast, in one of three shapes:
///
/// * **streamed** (`Placement::Once`) — the compress-once C-Bcast. The
///   payload travels as independent `pipe`-value sub-chunk streams
///   along one [`Route::tree`] (root: encode ∥ fan-out; interior:
///   relay, then decode; leaf: decode as chunks arrive), all on one
///   tag. A payload of at most one sub-chunk is a single whole-payload
///   message.
/// * **raw** — the same [`Route::tree`] with the whole payload as one
///   uncompressed sub-chunk: one message per tree edge, relayed before
///   it lands. Deliberately not cut into sub-chunks: its root is
///   egress-bound either way.
/// * **CPR-P2P** — one message per tree edge with every hop
///   decompressing what it received and re-compressing it for *each*
///   child: `log₂N · (T_comp + T_decomp)` on the critical path (the
///   Fig. 3 left-hand timeline). The length travels ahead of every
///   payload in a 4-byte header on `tag + 1`, as eager decompression
///   needs.
#[derive(Debug)]
pub(crate) struct Bcast {
    place: Placement,
    /// Sub-chunk size of the streamed shape (the others ignore it).
    pipe: usize,
    root: usize,
    stream: StreamCursor,
    // The CPR-P2P shape's state.
    phase: BcPhase,
    mask: usize,
    wire: Wire,
    payload: Option<Bytes>,
}

impl Bcast {
    pub(crate) fn new(place: Placement, pipe: usize, root: usize) -> Self {
        Bcast {
            place: place.movement(true, "binomial bcast"),
            pipe,
            root,
            stream: StreamCursor::default(),
            phase: BcPhase::Init,
            mask: 1,
            wire: Wire::default(),
            payload: None,
        }
    }

    /// Drive the broadcast. On the root an empty `data` means `out` is
    /// already the source; otherwise `data` is copied in.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn step<C: Comm>(
        &mut self,
        comm: &mut C,
        cpr: Option<&CprCodec>,
        data: &[f32],
        out: &mut [f32],
        ws: &mut CollWorkspace,
        block: bool,
    ) -> Poll {
        let tag = tags::BCAST + self.place.band();
        let link = self.place.link(cpr);
        if !matches!(link, Link::Cpr(_)) {
            // The root streams `data` and takes its bits once it is out.
            let copy = comm.rank() == self.root && !data.is_empty();
            assert!(
                !copy || data.len() == out.len(),
                "root data disagrees with plan length"
            );
            let pipe = if matches!(link, Link::Once(_)) {
                self.pipe
            } else {
                WHOLE
            };
            let route = Route::tree(comm, (link, pipe), tag, self.root, data);
            let poll = self.stream.step(comm, route, out, &mut ws.pipe(), block);
            if copy && poll.is_ready() {
                out.copy_from_slice(data);
            }
            return poll;
        }
        let n = comm.size();
        let me = comm.rank();
        let relative = (me + n - self.root) % n;
        loop {
            match self.phase {
                BcPhase::Init => {
                    assert!(self.root < n, "root {} out of range", self.root);
                    self.mask = 1;
                    if me == self.root {
                        if !data.is_empty() {
                            assert_eq!(
                                data.len(),
                                out.len(),
                                "root data disagrees with plan length"
                            );
                            out.copy_from_slice(data);
                        }
                        // The root never matches a parent bit: walk the
                        // mask to the forwarding start.
                        while self.mask < n {
                            self.mask <<= 1;
                        }
                        self.mask >>= 1;
                        self.phase = BcPhase::Sends;
                    } else {
                        // Find my parent bit and post its header receive.
                        while self.mask < n && relative & self.mask == 0 {
                            self.mask <<= 1;
                        }
                        let src = (relative - self.mask + self.root) % n;
                        self.wire.rreq = Some(comm.irecv(src, tag + 1));
                        self.phase = BcPhase::HeaderWait;
                    }
                }
                BcPhase::HeaderWait => {
                    let Some(header) = self.wire.recv(comm, block, Category::Others) else {
                        return Poll::Pending;
                    };
                    let len = u32::from_le_bytes(header[0..4].try_into().expect("4-byte header"));
                    assert_eq!(len as usize, out.len(), "bcast length disagrees with plan");
                    let src = (relative - self.mask + self.root) % n;
                    self.wire.rreq = Some(comm.irecv(src, tag));
                    self.phase = BcPhase::RecvWait;
                }
                BcPhase::RecvWait => {
                    let Some(got) = self.wire.recv(comm, block, Category::Others) else {
                        return Poll::Pending;
                    };
                    link.land(comm, &got, out, &mut ws.scratch);
                    self.mask >>= 1;
                    self.phase = BcPhase::Sends;
                }
                BcPhase::Sends => {
                    if self.mask == 0 {
                        self.phase = BcPhase::Done;
                        continue;
                    }
                    if relative + self.mask < n {
                        let dst = (relative + self.mask + self.root) % n;
                        // Re-compressed for every child (the per-hop
                        // waste).
                        self.payload = Some(link.pack(comm, out, &mut ws.pool));
                        let header = ws.pool.write(&(out.len() as u32).to_le_bytes());
                        self.wire.sreq = Some(comm.isend(dst, tag + 1, header));
                        self.phase = BcPhase::HeaderSent;
                        continue;
                    }
                    self.mask >>= 1;
                }
                BcPhase::HeaderSent => {
                    if !self.wire.send_done(comm, block, Category::Others) {
                        return Poll::Pending;
                    }
                    let dst = (relative + self.mask + self.root) % n;
                    let payload = self.payload.take().expect("child payload compressed");
                    self.wire.sreq = Some(comm.isend(dst, tag, payload));
                    self.phase = BcPhase::SendWait;
                }
                BcPhase::SendWait => {
                    if !self.wire.send_done(comm, block, Category::Wait) {
                        return Poll::Pending;
                    }
                    self.mask >>= 1;
                    self.phase = BcPhase::Sends;
                }
                BcPhase::Done => return Poll::Ready,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Binomial-tree scatter.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum ScPhase {
    Init,
    RecvWait,
    Forward,
    ForwardWait,
    Final,
    Done,
}

/// Resumable binomial-tree scatter of the balanced partition. Raw and
/// CPR-P2P ranks hold their subtree's values and pack each child's
/// portion as they forward it (CPR-P2P decompressing the received block
/// and re-compressing every portion); compress-once forwards framed
/// segment sets the root compressed one by one.
#[derive(Debug)]
pub(crate) struct Scatter {
    place: Placement,
    root: usize,
    total_len: usize,
    phase: ScPhase,
    span: usize,
    m: usize,
    wire: Wire,
}

impl Scatter {
    pub(crate) fn new(place: Placement, root: usize, total_len: usize) -> Self {
        Scatter {
            place: place.movement(true, "binomial scatter"),
            root,
            total_len,
            phase: ScPhase::Init,
            span: 0,
            m: 0,
            wire: Wire::default(),
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn step<C: Comm>(
        &mut self,
        comm: &mut C,
        cpr: Option<&CprCodec>,
        data: &[f32],
        out: &mut [f32],
        ws: &mut CollWorkspace,
        block: bool,
    ) -> Poll {
        let n = comm.size();
        let me = comm.rank();
        let relative = (me + n - self.root) % n;
        let link = self.place.link(cpr);
        let once = matches!(link, Link::Once(_));
        let tag = tags::SCATTER + self.place.band();
        loop {
            match self.phase {
                ScPhase::Init => {
                    assert!(self.root < n, "root {} out of range", self.root);
                    ws.set_partition(self.total_len, n);
                    assert_eq!(out.len(), ws.counts[me], "output must hold my chunk");
                    if me == self.root {
                        assert_eq!(
                            data.len(),
                            self.total_len,
                            "root buffer must hold all chunks"
                        );
                        ws.blob_list.clear();
                        ws.stage.clear();
                        for a in (0..n).map(|i| (self.root + i) % n) {
                            let seg = &data[ws.chunk(a)];
                            if once {
                                let blob = link.pack(comm, seg, &mut ws.pool);
                                ws.blob_list.push(blob);
                            } else {
                                ws.stage.extend_from_slice(seg);
                            }
                        }
                        self.span = n;
                        self.m = n.next_power_of_two() / 2;
                        self.phase = ScPhase::Forward;
                    } else {
                        let lowbit = relative & relative.wrapping_neg();
                        let src = (relative - lowbit + self.root) % n;
                        self.span = lowbit.min(n - relative);
                        self.m = lowbit / 2;
                        self.wire.rreq = Some(comm.irecv(src, tag));
                        self.phase = ScPhase::RecvWait;
                    }
                }
                ScPhase::RecvWait => {
                    let Some(got) = self.wire.recv(comm, block, Category::Others) else {
                        return Poll::Pending;
                    };
                    if once {
                        let held = &mut ws.blob_list;
                        crate::wire::unframe_blobs_into(&got, held)
                            .expect("well-formed scatter container");
                        assert_eq!(
                            held.len(),
                            self.span,
                            "scatter container segment count mismatch"
                        );
                    } else {
                        // The whole subtree block, staged for the
                        // forward phase.
                        let expect: usize = (relative..relative + self.span)
                            .map(|i| ws.counts[(self.root + i) % n])
                            .sum();
                        ws.stage.resize(expect, 0.0);
                        link.land(comm, &got, &mut ws.stage, &mut ws.scratch);
                    }
                    self.phase = ScPhase::Forward;
                }
                ScPhase::Forward => {
                    if self.m == 0 {
                        self.phase = ScPhase::Final;
                        continue;
                    }
                    if self.m < self.span {
                        let child_rel = relative + self.m;
                        let dst = (child_rel + self.root) % n;
                        let payload = if once {
                            let CollWorkspace {
                                pool,
                                blob_list: held,
                                ..
                            } = ws;
                            let container = crate::wire::frame_blobs_pooled(pool, &held[self.m..]);
                            held.truncate(self.m);
                            container
                        } else {
                            let keep_vals: usize = (relative..child_rel)
                                .map(|i| ws.counts[(self.root + i) % n])
                                .sum();
                            let payload = link.pack(comm, &ws.stage[keep_vals..], &mut ws.pool);
                            ws.stage.truncate(keep_vals);
                            payload
                        };
                        self.wire.sreq = Some(comm.isend(dst, tag, payload));
                        self.span = self.m;
                        self.phase = ScPhase::ForwardWait;
                        continue;
                    }
                    self.m /= 2;
                }
                ScPhase::ForwardWait => {
                    if !self.wire.send_done(comm, block, Category::Wait) {
                        return Poll::Pending;
                    }
                    self.m /= 2;
                    self.phase = ScPhase::Forward;
                }
                ScPhase::Final => {
                    if !once {
                        out.copy_from_slice(&ws.stage[..ws.counts[me]]);
                    } else if me == self.root {
                        // The root never lost precision, and has
                        // nothing to decode.
                        out.copy_from_slice(&data[ws.chunk(me)]);
                    } else {
                        link.unpack(comm, &ws.blob_list[0], out, &mut ws.scratch);
                    }
                    self.phase = ScPhase::Done;
                }
                ScPhase::Done => return Poll::Ready,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Binomial-tree gather.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum GaPhase {
    Init,
    Loop,
    RecvWait,
    SendWait,
    Final,
    DoneRoot,
    DoneLeaf,
}

/// Resumable binomial-tree gather of the balanced partition, raw or
/// compress-once (relaying framed segments each rank compressed once).
#[derive(Debug)]
pub(crate) struct Gather {
    place: Placement,
    root: usize,
    total_len: usize,
    phase: GaPhase,
    mask: usize,
    wire: Wire,
}

impl Gather {
    pub(crate) fn new(place: Placement, root: usize, total_len: usize) -> Self {
        Gather {
            place: place.movement(false, "binomial gather"),
            root,
            total_len,
            phase: GaPhase::Init,
            mask: 1,
            wire: Wire::default(),
        }
    }

    /// True when this rank holds the gathered buffer (root only).
    pub(crate) fn is_root(&self) -> bool {
        matches!(self.phase, GaPhase::DoneRoot)
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn step<C: Comm>(
        &mut self,
        comm: &mut C,
        cpr: Option<&CprCodec>,
        mine: &[f32],
        out: &mut [f32],
        ws: &mut CollWorkspace,
        block: bool,
    ) -> Poll {
        let n = comm.size();
        let me = comm.rank();
        let relative = (me + n - self.root) % n;
        let link = self.place.link(cpr);
        let once = matches!(link, Link::Once(_));
        let tag = tags::GATHER + self.place.band();
        loop {
            match self.phase {
                GaPhase::Init => {
                    assert!(self.root < n, "root {} out of range", self.root);
                    ws.set_partition(self.total_len, n);
                    assert_eq!(
                        mine.len(),
                        ws.counts[me],
                        "my chunk disagrees with partition"
                    );
                    if once {
                        ws.blob_list.clear();
                        let blob = link.pack(comm, mine, &mut ws.pool);
                        ws.blob_list.push(blob);
                    } else {
                        let held = &mut ws.stage;
                        held.clear();
                        held.extend_from_slice(mine);
                    }
                    self.mask = 1;
                    self.phase = GaPhase::Loop;
                }
                GaPhase::Loop => {
                    if self.mask >= n {
                        self.phase = GaPhase::Final;
                        continue;
                    }
                    if relative & self.mask != 0 {
                        let parent = (relative - self.mask + self.root) % n;
                        let payload = if once {
                            crate::wire::frame_blobs_pooled(&mut ws.pool, &ws.blob_list)
                        } else {
                            link.pack(comm, &ws.stage, &mut ws.pool)
                        };
                        self.wire.sreq = Some(comm.isend(parent, tag, payload));
                        self.phase = GaPhase::SendWait;
                        continue;
                    }
                    let child_rel = relative + self.mask;
                    if child_rel < n {
                        self.wire.rreq = Some(comm.irecv((child_rel + self.root) % n, tag));
                        self.phase = GaPhase::RecvWait;
                        continue;
                    }
                    self.mask <<= 1;
                }
                GaPhase::RecvWait => {
                    let Some(got) = self.wire.recv(comm, block, Category::Others) else {
                        return Poll::Pending;
                    };
                    let child_rel = relative + self.mask;
                    let child_span = self.mask.min(n - child_rel);
                    if once {
                        let blobs =
                            crate::wire::unframe_blobs(&got).expect("well-formed gather container");
                        ws.blob_list.extend(blobs);
                    } else {
                        let expect: usize = (child_rel..child_rel + child_span)
                            .map(|i| ws.counts[(self.root + i) % n])
                            .sum();
                        let at = ws.stage.len();
                        ws.stage.resize(at + expect, 0.0);
                        link.land(comm, &got, &mut ws.stage[at..], &mut ws.scratch);
                    }
                    self.mask <<= 1;
                    self.phase = GaPhase::Loop;
                }
                GaPhase::SendWait => {
                    if !self.wire.send_done(comm, block, Category::Wait) {
                        return Poll::Pending;
                    }
                    self.phase = GaPhase::DoneLeaf;
                }
                GaPhase::Final => {
                    assert_eq!(
                        out.len(),
                        self.total_len,
                        "root output must hold all chunks"
                    );
                    if once {
                        for i in 0..ws.blob_list.len() {
                            let a = (self.root + i) % n;
                            let dst = &mut out[ws.chunk(a)];
                            if a == me {
                                dst.copy_from_slice(mine); // the root's own chunk stays lossless
                            } else {
                                link.unpack(comm, &ws.blob_list[i], dst, &mut ws.scratch);
                            }
                        }
                    } else {
                        let mut from = 0;
                        for i in 0..n {
                            let at = ws.chunk((self.root + i) % n);
                            out[at.clone()].copy_from_slice(&ws.stage[from..from + at.len()]);
                            from += at.len();
                        }
                    }
                    self.phase = GaPhase::DoneRoot;
                }
                GaPhase::DoneRoot | GaPhase::DoneLeaf => return Poll::Ready,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Pairwise all-to-all.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum A2aPhase {
    Init,
    OwnCopy,
    Round,
    Exchange,
    Done,
}

/// Resumable pairwise all-to-all. Raw and CPR-P2P pack each outgoing
/// block in its round and unpack each incoming one (blocks travel a
/// single hop, so CPR-P2P's deficiencies here are the per-call buffer
/// overhead); compress-once compresses every outgoing block up front, so
/// its rounds only move payloads, each carrying its own length.
#[derive(Debug)]
pub(crate) struct Alltoall {
    place: Placement,
    phase: A2aPhase,
    i: usize,
    wire: Wire,
}

impl Alltoall {
    pub(crate) fn new(place: Placement) -> Self {
        Alltoall {
            place: place.movement(true, "pairwise all-to-all"),
            phase: A2aPhase::Init,
            i: 1,
            wire: Wire::default(),
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn step<C: Comm>(
        &mut self,
        comm: &mut C,
        cpr: Option<&CprCodec>,
        send: &[f32],
        out: &mut [f32],
        ws: &mut CollWorkspace,
        block: bool,
    ) -> Poll {
        let n = comm.size();
        let me = comm.rank();
        let block_len = send.len() / n;
        let blk = |r: usize| r * block_len..(r + 1) * block_len;
        let link = self.place.link(cpr);
        let once = matches!(link, Link::Once(_));
        // Compress-once rounds are the allgather-like relay share.
        let cat = if once {
            Category::Allgather
        } else {
            Category::Wait
        };
        loop {
            match self.phase {
                A2aPhase::Init => {
                    assert!(
                        send.len().is_multiple_of(n),
                        "all-to-all buffer ({}) must divide evenly across {n} ranks",
                        send.len()
                    );
                    assert_eq!(out.len(), send.len(), "output buffer size mismatch");
                    self.i = 1;
                    self.phase = A2aPhase::OwnCopy;
                    if once {
                        ws.blob_list.clear();
                        for to in 0..n {
                            let blob = if to == me {
                                Bytes::new()
                            } else {
                                link.pack(comm, &send[blk(to)], &mut ws.pool)
                            };
                            ws.blob_list.push(blob);
                        }
                    }
                }
                A2aPhase::OwnCopy => {
                    memcpy_in(comm, &mut out[blk(me)], &send[blk(me)]);
                    self.phase = A2aPhase::Round;
                }
                A2aPhase::Round => {
                    if self.i == n || n == 1 {
                        self.phase = A2aPhase::Done;
                        continue;
                    }
                    let to = (me + self.i) % n;
                    let from = (me + n - self.i) % n;
                    let tag = tags::ALLTOALL + self.place.band() + self.i as Tag;
                    let payload = if once {
                        ws.blob_list[to].clone()
                    } else {
                        link.pack(comm, &send[blk(to)], &mut ws.pool)
                    };
                    self.wire.rreq = Some(comm.irecv(from, tag));
                    self.wire.sreq = Some(comm.isend(to, tag, payload));
                    self.phase = A2aPhase::Exchange;
                }
                A2aPhase::Exchange => {
                    let Some(got) = self.wire.exchange(comm, block, cat, cat) else {
                        return Poll::Pending;
                    };
                    let from = (me + n - self.i) % n;
                    link.unpack(comm, &got, &mut out[blk(from)], &mut ws.scratch);
                    self.i += 1;
                    self.phase = A2aPhase::Round;
                }
                A2aPhase::Done => return Poll::Ready,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Bruck allgather.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum BkPhase {
    Init,
    Round,
    Exchange,
    Tail,
    Done,
}

/// Resumable Bruck allgather, raw or compress-once (relaying framed
/// block sets with the PR-4 decode-while-in-flight overlap).
#[derive(Debug)]
pub(crate) struct BruckAg {
    place: Placement,
    phase: BkPhase,
    /// Blocks held so far, in relative order.
    held: usize,
    /// Decode cursor (compress-once overlap).
    decoded: usize,
    step_no: Tag,
    wire: Wire,
}

impl BruckAg {
    pub(crate) fn new(place: Placement) -> Self {
        BruckAg {
            place: place.movement(false, "Bruck allgather"),
            phase: BkPhase::Init,
            held: 1,
            decoded: 1,
            step_no: 0,
            wire: Wire::default(),
        }
    }

    /// Decode every held block not yet landed in `out` (compress-once).
    fn decode_held<C: Comm>(
        &mut self,
        comm: &mut C,
        link: Link<'_>,
        out: &mut [f32],
        ws: &mut CollWorkspace,
    ) {
        let (n, me) = (comm.size(), comm.rank());
        while self.decoded < ws.blob_list.len() {
            let at = ws.chunk((me + self.decoded) % n);
            let blob = &ws.blob_list[self.decoded];
            link.unpack(comm, blob, &mut out[at], &mut ws.scratch);
            self.decoded += 1;
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn step<C: Comm>(
        &mut self,
        comm: &mut C,
        cpr: Option<&CprCodec>,
        mine: &[f32],
        counts_in: &[usize],
        out: &mut [f32],
        ws: &mut CollWorkspace,
        block: bool,
    ) -> Poll {
        let n = comm.size();
        let me = comm.rank();
        let link = self.place.link(cpr);
        let once = matches!(link, Link::Once(_));
        loop {
            match self.phase {
                BkPhase::Init => {
                    ws.set_partition_from_counts(counts_in);
                    self.held = 1;
                    self.decoded = 1;
                    self.step_no = 0;
                    if once {
                        ws.blob_list.clear();
                        let blob = link.pack(comm, mine, &mut ws.pool);
                        ws.blob_list.push(blob);
                        memcpy_in(comm, &mut out[ws.chunk(me)], mine);
                    } else {
                        let hold = &mut ws.acc;
                        hold.clear();
                        hold.extend_from_slice(mine);
                    }
                    self.phase = BkPhase::Round;
                }
                BkPhase::Round => {
                    if self.held >= n {
                        self.phase = BkPhase::Tail;
                        continue;
                    }
                    let dist = self.held; // always a power of two
                    let send_cnt = dist.min(n - dist);
                    let to = (me + n - dist) % n;
                    let from = (me + dist) % n;
                    let tag = tags::BRUCK + self.place.band() + self.step_no;
                    let payload = if once {
                        crate::wire::frame_blobs_pooled(&mut ws.pool, &ws.blob_list[..send_cnt])
                    } else {
                        let send_vals: usize = (0..send_cnt).map(|i| ws.counts[(me + i) % n]).sum();
                        link.pack(comm, &ws.acc[..send_vals], &mut ws.pool)
                    };
                    self.wire.rreq = Some(comm.irecv(from, tag));
                    self.wire.sreq = Some(comm.isend(to, tag, payload));
                    // Decompress blocks gathered in earlier steps while
                    // this step's containers are in flight.
                    if once {
                        self.decode_held(comm, link, out, ws);
                    }
                    self.phase = BkPhase::Exchange;
                }
                BkPhase::Exchange => {
                    let cat = Category::Allgather;
                    let Some(got) = self.wire.exchange(comm, block, cat, cat) else {
                        return Poll::Pending;
                    };
                    let dist = self.held;
                    let send_cnt = dist.min(n - dist);
                    if once {
                        let held = &mut ws.blob_list;
                        crate::wire::unframe_blobs_append(&got, held)
                            .expect("well-formed Bruck container");
                        assert_eq!(
                            held.len(),
                            dist + send_cnt,
                            "Bruck step block count mismatch"
                        );
                    } else {
                        let src = (me + dist) % n;
                        let recv_vals: usize =
                            (0..send_cnt).map(|i| ws.counts[(src + i) % n]).sum();
                        let at = ws.acc.len();
                        ws.acc.resize(at + recv_vals, 0.0);
                        link.unpack(comm, &got, &mut ws.acc[at..], &mut ws.scratch);
                    }
                    self.held += send_cnt;
                    self.step_no += 1;
                    self.phase = BkPhase::Round;
                }
                BkPhase::Tail => {
                    if once {
                        self.decode_held(comm, link, out, ws);
                        // Release the containers before the next call
                        // reuses the pool.
                        ws.blob_list.clear();
                    } else {
                        let mut from = 0;
                        for i in 0..n {
                            let at = ws.chunk((me + i) % n);
                            let hold = &ws.acc[from..from + at.len()];
                            from += at.len();
                            memcpy_in(comm, &mut out[at], hold);
                        }
                    }
                    self.phase = BkPhase::Done;
                }
                BkPhase::Done => return Poll::Ready,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Two-level (hierarchical) schedules.
// ---------------------------------------------------------------------------

/// The communicator split a hierarchical plan runs over. Built once,
/// at the plan's first `start`, from the session's
/// [`ccoll_comm::Topology`]; every phase borrows these member tables to
/// form ephemeral [`CommView::group`] views, so steady-state steps never
/// allocate.
///
/// Each node's ranks are cut into `lanes` contiguous *groups* (the
/// balanced partition of the node's rank range); the first rank of a
/// group is its *owner*. The allgather and bcast schedules run one
/// lane: the group is the whole node and its owner the node leader.
#[derive(Debug, Clone)]
pub(crate) struct HierGroups {
    /// World ranks of my group, ascending (its owner is the first entry).
    pub(crate) group: Vec<usize>,
    /// The owners of my node's groups, ascending by lane.
    pub(crate) owners: Vec<usize>,
    /// My lane's owner on every node, ascending by node.
    pub(crate) lane_peers: Vec<usize>,
    /// Per-node *value* counts of the allgather result layout (empty
    /// for allreduce / bcast plans, which move full-length buffers).
    pub(crate) node_counts: Vec<usize>,
    /// My node's index (`lane_peers[node]` is my owner).
    pub(crate) node: usize,
    /// My group's lane (`owners[lane]` is my owner).
    lane: usize,
}

impl HierGroups {
    /// Build the split for `rank` under `topo` with `lanes` groups per
    /// node, with `values_per_rank` driving the per-node block sizes (0
    /// for full-length schedules).
    ///
    /// # Panics
    /// Panics when a node has fewer than `lanes` ranks.
    pub(crate) fn build(
        topo: &ccoll_comm::Topology,
        rank: usize,
        values_per_rank: usize,
        lanes: usize,
    ) -> Self {
        assert!(
            (1..=topo.min_node_size()).contains(&lanes),
            "{lanes} lanes need that many ranks on every node"
        );
        let group_of = |node: usize, lane: usize| {
            let members = topo.members_of(node);
            let at = chunk_range(members.len(), lanes, lane);
            members.start + at.start..members.start + at.end
        };
        let node = topo.node_of(rank);
        let lane = (0..lanes)
            .find(|&l| group_of(node, l).contains(&rank))
            .expect("the groups tile the node");
        HierGroups {
            group: group_of(node, lane).collect(),
            owners: (0..lanes).map(|l| group_of(node, l).start).collect(),
            lane_peers: (0..topo.nodes()).map(|a| group_of(a, lane).start).collect(),
            node_counts: if values_per_rank == 0 {
                Vec::new()
            } else {
                (0..topo.nodes())
                    .map(|a| topo.node_size(a) * values_per_rank)
                    .collect()
            },
            node,
            lane,
        }
    }

    fn is_owner(&self, rank: usize) -> bool {
        self.group[0] == rank
    }
}

/// The inner reduce op for hierarchical phases: `Avg` sums through
/// every leg so the single ÷n finalize happens exactly once at the end,
/// with the full world count.
fn hier_inner(op: ReduceOp) -> ReduceOp {
    match op {
        ReduceOp::Avg => ReduceOp::Sum,
        other => other,
    }
}

#[derive(Debug, Clone, Copy)]
enum HierPhase {
    Local,
    Inter,
    Fanout,
    Final,
    Done,
}

/// Step the raw fan-out that ends every hierarchical schedule: the
/// group owner's `out` into every other member's, as a `pipe`-value
/// sub-chunk [`Route::chain_relay`] when `chain` gives one, else as the
/// whole-message binomial [`Route::tree`]. A one-member group has
/// nothing to fan out.
fn fan_out<C: Comm>(
    cursor: &mut StreamCursor,
    comm: &mut C,
    group: &[usize],
    chain: Option<usize>,
    out: &mut [f32],
    ws: &mut CollWorkspace,
    block: bool,
) -> Poll {
    if group.len() == 1 {
        return Poll::Ready;
    }
    let mut sub = CommView::group(comm, group);
    let route = match chain {
        Some(pipe) => Route::chain_relay(&sub, pipe, tags::BCAST),
        None => Route::tree(&sub, (Link::Raw, WHOLE), tags::BCAST, 0, &[]),
    };
    cursor.step(&mut sub, route, out, &mut ws.pipe(), block)
}

/// The leg a laned allreduce is in, with that leg's machine: one runs
/// at a time, built when its leg begins.
#[derive(Debug)]
enum LaneLeg {
    GroupReduce(GroupReduce),
    NodeRs(RingRs),
    Inter(Butterfly),
    NodeAg(RingAg),
    GroupBcast(StreamCursor),
    Final,
    Done,
}

/// The group reduce's machine: the binomial tree, or the sub-chunk
/// chain.
#[derive(Debug)]
enum GroupReduce {
    Tree(TreeReduce),
    Chain(StreamCursor),
}

/// Laned two-level allreduce over `L = groups.owners.len()` lanes:
///
/// 1. raw reduce of the whole vector inside each group, to its owner;
/// 2. raw ring reduce-scatter over the node's `L` owners — owner `l`
///    ends with lane `l` (d/L values) of the node's sum;
/// 3. a Rabenseifner allreduce of lane `l` over the lane-`l` owners of
///    every node (where the codec terms and the shared inter-node NIC
///    live), straight into lane `l` of `out`;
/// 4. raw ring allgather of the lanes over the node's owners, relaying
///    each received lane untouched and landing it while the onward copy
///    is on the wire;
/// 5. raw fan-out of the result inside each group.
///
/// Every raw reducing hop (phase 2's rounds, phase 1's tree edges, phase
/// 3's halving when the session is raw) streams `pipe`-value sub-chunks
/// and folds each while the next is on the wire. Phases 1 and 5 are
/// binomial trees ([`TreeReduce`], then the whole-message raw
/// [`Route::tree`]) or, when the plan's cost model prices it cheaper
/// (`streamed`: payloads of several sub-chunks), streams along the
/// group ([`Route::chain_fold`] toward the owner, [`Route::chain_relay`]
/// away from it). Non-owners fold into `out`, which the fan-out
/// overwrites.
///
/// `L = 1` is the single-leader schedule (phases 2 and 4 have one
/// member and are skipped); `L =` node size is reduce-scatter-first
/// (phases 1 and 5 are skipped); every `L` and either group shape moves
/// the same bytes. Every leg is an existing machine over a
/// [`CommView::group`] view; tag families stay disjoint (`TREE_REDUCE` /
/// `REDUCE_SCATTER` / `RABENSEIFNER` / `ALLGATHER` / `BCAST`, a group
/// leg's chain on its tree's tag) and concurrent groups of one phase
/// have disjoint member sets.
#[derive(Debug)]
pub(crate) struct HierAr {
    place: Placement,
    /// Sub-chunk size of the raw hops and the streamed group legs.
    pipe: usize,
    streamed: bool,
    leg: LaneLeg,
}

impl HierAr {
    /// `place` is the inter-node leg's placement; the intra-node legs
    /// are always raw, their hops stream `pipe`-value sub-chunks, and
    /// the group legs are sub-chunk chains when `streamed`.
    pub(crate) fn new(place: Placement, pipe: usize, streamed: bool) -> Self {
        HierAr {
            place,
            pipe,
            streamed,
            leg: LaneLeg::GroupReduce(if streamed {
                GroupReduce::Chain(StreamCursor::default())
            } else {
                GroupReduce::Tree(TreeReduce::new(Placement::Raw, pipe, 0))
            }),
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn step<C: Comm>(
        &mut self,
        comm: &mut C,
        cpr: Option<&CprCodec>,
        op: ReduceOp,
        groups: &HierGroups,
        input: &[f32],
        out: &mut [f32],
        ws: &mut CollWorkspace,
        block: bool,
    ) -> Poll {
        let world = comm.size();
        let me = comm.rank();
        let inner = hier_inner(op);
        let d = input.len();
        let lanes = groups.owners.len();
        let grouped = groups.group.len() > 1;
        // My lane of `out` (all of it at one lane), and the layout of an
        // owner's `ws.hier`: the group tree's result when there was a
        // group to reduce, then the reduce-scatter's chunk when the
        // node has other lanes. Non-owners keep it empty.
        let lane = chunk_range(d, lanes, groups.lane);
        let tree_len = if grouped { d } else { 0 };
        let chunk_len = if lanes > 1 { lane.len() } else { 0 };
        loop {
            match &mut self.leg {
                LaneLeg::GroupReduce(leg) => {
                    let owner = groups.is_owner(me);
                    if owner {
                        ws.hier.resize(tree_len + chunk_len, 0.0);
                    }
                    if grouped {
                        let mut hier = std::mem::take(&mut ws.hier);
                        let mut sub = CommView::group(comm, &groups.group);
                        let r = match leg {
                            GroupReduce::Tree(tree) => {
                                let result = if owner { &mut hier[..d] } else { &mut [][..] };
                                tree.step(&mut sub, None, inner, input, result, ws, block)
                            }
                            GroupReduce::Chain(chain) => {
                                let acc = if owner { &mut hier[..d] } else { &mut *out };
                                let tag = tags::TREE_REDUCE;
                                let route = Route::chain_fold(&sub, self.pipe, tag, inner, input);
                                chain.step(&mut sub, route, acc, &mut ws.pipe(), block)
                            }
                        };
                        ws.hier = hier;
                        if r == Poll::Pending {
                            return Poll::Pending;
                        }
                    }
                    self.leg = if owner {
                        LaneLeg::NodeRs(RingRs::new(Placement::Raw, self.pipe))
                    } else {
                        LaneLeg::GroupBcast(StreamCursor::default())
                    };
                }
                LaneLeg::NodeRs(scatter) => {
                    if lanes > 1 {
                        let mut hier = std::mem::take(&mut ws.hier);
                        let (tree, chunk) = hier.split_at_mut(tree_len);
                        let src = if grouped { &*tree } else { input };
                        let mut sub = CommView::group(comm, &groups.owners);
                        let r = scatter.step_chunk(&mut sub, None, inner, src, chunk, ws, block);
                        ws.hier = hier;
                        if r == Poll::Pending {
                            return Poll::Pending;
                        }
                    }
                    self.leg = LaneLeg::Inter(Butterfly::rabenseifner(self.place, self.pipe));
                }
                LaneLeg::Inter(inter) => {
                    let hier = std::mem::take(&mut ws.hier);
                    // The last intra-node leg that ran holds the source.
                    let src = if lanes > 1 {
                        &hier[tree_len..]
                    } else if grouped {
                        &hier[..]
                    } else {
                        input
                    };
                    let mut sub = CommView::group(comm, &groups.lane_peers);
                    let dst = &mut out[lane.clone()];
                    let r = inter.step(&mut sub, cpr, inner, src, dst, ws, block);
                    ws.hier = hier;
                    if r == Poll::Pending {
                        return Poll::Pending;
                    }
                    self.leg = LaneLeg::NodeAg(RingAg::new(Placement::Raw, self.pipe, true));
                }
                LaneLeg::NodeAg(gather) => {
                    if lanes > 1 {
                        // The butterfly cached its own partition; the
                        // allgather reads the lanes' back out.
                        ws.set_partition(d, lanes);
                        let mut sub = CommView::group(comm, &groups.owners);
                        if gather.step(&mut sub, None, None, out, ws, block) == Poll::Pending {
                            return Poll::Pending;
                        }
                    }
                    self.leg = LaneLeg::GroupBcast(StreamCursor::default());
                }
                LaneLeg::GroupBcast(cursor) => {
                    let chain = self.streamed.then_some(self.pipe);
                    let r = fan_out(cursor, comm, &groups.group, chain, out, ws, block);
                    if r == Poll::Pending {
                        return Poll::Pending;
                    }
                    self.leg = LaneLeg::Final;
                }
                LaneLeg::Final => {
                    // The inner legs reduced with the fused kind; the
                    // one real finalize (Avg's ÷n) uses the full world.
                    op.finalize(out, world);
                    self.leg = LaneLeg::Done;
                }
                LaneLeg::Done => return Poll::Ready,
            }
        }
    }
}

/// Two-level allgather: raw binomial gather of member chunks into the
/// node leader, ring allgather of whole node blocks over the leaders
/// (compress-once on the inter-node leg), raw fan-out of the assembled
/// buffer down the node's whole-message binomial tree.
#[derive(Debug)]
pub(crate) struct HierAg {
    phase: HierPhase,
    local: Gather,
    inter: RingAg,
    fanout: StreamCursor,
}

impl HierAg {
    /// `place` is the leader leg's placement; `node_block_len` is *my*
    /// node's total value count (`groups.node_counts[groups.node]`).
    pub(crate) fn new(place: Placement, pipe: usize, node_block_len: usize) -> Self {
        HierAg {
            phase: HierPhase::Local,
            local: Gather::new(Placement::Raw, 0, node_block_len),
            inter: RingAg::new(place, pipe, true),
            fanout: StreamCursor::default(),
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn step<C: Comm>(
        &mut self,
        comm: &mut C,
        cpr: Option<&CprCodec>,
        groups: &HierGroups,
        mine: &[f32],
        out: &mut [f32],
        ws: &mut CollWorkspace,
        block: bool,
    ) -> Poll {
        let me = comm.rank();
        loop {
            match self.phase {
                HierPhase::Local => {
                    let mut hier = std::mem::take(&mut ws.hier);
                    hier.resize(groups.node_counts[groups.node], 0.0);
                    let mut sub = CommView::group(comm, &groups.group);
                    let r = self.local.step(&mut sub, None, mine, &mut hier, ws, block);
                    ws.hier = hier;
                    match r {
                        Poll::Pending => return Poll::Pending,
                        Poll::Ready => {
                            if groups.is_owner(me) {
                                // The leader ring reads the *node block*
                                // partition out of the workspace.
                                ws.set_partition_from_counts(&groups.node_counts);
                                self.phase = HierPhase::Inter;
                            } else {
                                self.phase = HierPhase::Fanout;
                            }
                        }
                    }
                }
                HierPhase::Inter => {
                    let hier = std::mem::take(&mut ws.hier);
                    let mut sub = CommView::group(comm, &groups.lane_peers);
                    let r = self.inter.step(&mut sub, cpr, Some(&hier), out, ws, block);
                    ws.hier = hier;
                    match r {
                        Poll::Pending => return Poll::Pending,
                        Poll::Ready => self.phase = HierPhase::Fanout,
                    }
                }
                HierPhase::Fanout => {
                    let r = fan_out(&mut self.fanout, comm, &groups.group, None, out, ws, block);
                    if r == Poll::Pending {
                        return Poll::Pending;
                    }
                    self.phase = HierPhase::Final;
                }
                HierPhase::Final => self.phase = HierPhase::Done,
                HierPhase::Done => return Poll::Ready,
            }
        }
    }
}

/// Two-level broadcast: an intra-node hand-off from the root to its
/// node leader (a one-hop raw [`Route::hop`], skipped when the root
/// *is* a leader), a binomial bcast over the leaders (compress-once,
/// streamed in sub-chunks like the flat one — it *is* a [`Bcast`]), and
/// a raw fan-out down every node's whole-message binomial tree. The
/// root's buffer stays bitwise-exact; all other ranks see one identical
/// decode of the single inter-node blob.
#[derive(Debug)]
pub(crate) struct HierBc {
    phase: HierPhase,
    place: Placement,
    /// World rank of the broadcast root.
    root: usize,
    /// Leader-group index of the root's node.
    root_node: usize,
    inter: Bcast,
    /// The hand-off's stream, then the fan-out's.
    stream: StreamCursor,
}

impl HierBc {
    /// `place` is the leader leg's placement; at compress-once the leg
    /// is a [`Bcast`] streamed in `pipe`-value sub-chunks.
    pub(crate) fn new(place: Placement, pipe: usize, root: usize, root_node: usize) -> Self {
        HierBc {
            phase: HierPhase::Local,
            place,
            root,
            root_node,
            inter: Bcast::new(place, pipe, root_node),
            stream: StreamCursor::default(),
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn step<C: Comm>(
        &mut self,
        comm: &mut C,
        cpr: Option<&CprCodec>,
        groups: &HierGroups,
        data: &[f32],
        out: &mut [f32],
        ws: &mut CollWorkspace,
        block: bool,
    ) -> Poll {
        let me = comm.rank();
        let root_leader = groups.lane_peers[self.root_node];
        let root_is_leader = root_leader == self.root;
        let my_leader = groups.group[0];
        loop {
            match self.phase {
                // Root→leader hand-off (raw, intra-node): a one-hop route
                // between the two, empty on every other rank.
                HierPhase::Local => {
                    let (mut send, mut recv) = (None, None);
                    if me == self.root && !root_is_leader {
                        send = Some((data, root_leader));
                    } else if me == root_leader && !root_is_leader {
                        ws.hier.resize(out.len(), 0.0);
                        recv = Some((self.root, Land::Store));
                    }
                    let mut hier = std::mem::take(&mut ws.hier);
                    let route = Route::hop((Link::Raw, WHOLE), tags::HIER, send, recv);
                    let r = self
                        .stream
                        .step(comm, route, &mut hier, &mut ws.pipe(), block);
                    ws.hier = hier;
                    if r == Poll::Pending {
                        return Poll::Pending;
                    }
                    self.phase = HierPhase::Inter;
                }
                // Leader-group broadcast of the (compress-once) buffer.
                HierPhase::Inter => {
                    if !groups.is_owner(me) {
                        self.phase = HierPhase::Fanout;
                        continue;
                    }
                    let hier = std::mem::take(&mut ws.hier);
                    let src: &[f32] = if me != root_leader {
                        &[]
                    } else if root_is_leader {
                        data
                    } else {
                        &hier
                    };
                    let mut sub = CommView::group(comm, &groups.lane_peers);
                    let r = self.inter.step(&mut sub, cpr, src, out, ws, block);
                    ws.hier = hier;
                    match r {
                        Poll::Pending => return Poll::Pending,
                        Poll::Ready => self.phase = HierPhase::Fanout,
                    }
                }
                // Raw fan-out within the node; the leader's `out` is
                // pre-filled.
                HierPhase::Fanout => {
                    let r = fan_out(&mut self.stream, comm, &groups.group, None, out, ws, block);
                    if r == Poll::Pending {
                        return Poll::Pending;
                    }
                    self.phase = HierPhase::Final;
                }
                HierPhase::Final => {
                    // A non-leader root received its node's relayed
                    // decode; restore the exact source bits, as the
                    // flat compressed bcast guarantees for the root.
                    let lossy = !matches!(self.place, Placement::Raw);
                    if lossy && me == self.root && my_leader != self.root {
                        memcpy_in(comm, out, data);
                    }
                    self.phase = HierPhase::Done;
                }
                HierPhase::Done => return Poll::Ready,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Bruck all-to-all.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum BkA2aPhase {
    Init,
    Round,
    Exchange,
    Tail,
    Done,
}

/// Resumable Bruck all-to-all: a local rotation, ⌈log₂n⌉ doubling
/// rounds each forwarding the blocks whose index has the round bit set
/// (to `me + 2ᵏ`, from `me − 2ᵏ`), and an inverse rotation into `out`.
/// Compress-once compresses every outgoing block once up front; blocks
/// are *re-forwarded as blobs* without recoding (framed containers), and
/// decoded exactly once at the tail.
#[derive(Debug)]
pub(crate) struct BruckA2a {
    place: Placement,
    phase: BkA2aPhase,
    /// Current round's bit value (1, 2, 4, …).
    v: usize,
    /// Round ordinal, for per-round tags.
    round_no: Tag,
    wire: Wire,
}

impl BruckA2a {
    pub(crate) fn new(place: Placement) -> Self {
        BruckA2a {
            place: place.movement(false, "Bruck all-to-all"),
            phase: BkA2aPhase::Init,
            v: 1,
            round_no: 0,
            wire: Wire::default(),
        }
    }

    /// Round tags live in the `BRUCK + 0x400` (raw) / `+ 0x600`
    /// (compress-once) sub-bands, disjoint from the Bruck allgather's
    /// `+ step` and `+ 0xC00 + step` bands.
    fn tag(&self) -> Tag {
        let once = matches!(self.place, Placement::Once);
        tags::BRUCK + if once { 0x600 } else { 0x400 } + self.round_no
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn step<C: Comm>(
        &mut self,
        comm: &mut C,
        cpr: Option<&CprCodec>,
        send: &[f32],
        out: &mut [f32],
        ws: &mut CollWorkspace,
        block: bool,
    ) -> Poll {
        let n = comm.size();
        let me = comm.rank();
        let b = send.len() / n;
        let link = self.place.link(cpr);
        let once = matches!(link, Link::Once(_));
        loop {
            match self.phase {
                BkA2aPhase::Init => {
                    assert_eq!(out.len(), send.len(), "output buffer size mismatch");
                    self.v = 1;
                    self.round_no = 0;
                    // Rotation: staged slot `i` holds the block destined
                    // for rank `(me + i) % n`.
                    ws.stage.resize(n * b, 0.0);
                    for i in 0..n {
                        let src = ((me + i) % n) * b;
                        let CollWorkspace { stage, .. } = ws;
                        memcpy_in(comm, &mut stage[i * b..(i + 1) * b], &send[src..src + b]);
                    }
                    if once {
                        ws.blobs.clear();
                        ws.blobs.resize(n, None);
                        let CollWorkspace {
                            pool, blobs, stage, ..
                        } = ws;
                        for (i, slot) in blobs.iter_mut().enumerate().skip(1) {
                            *slot = Some(link.pack(comm, &stage[i * b..(i + 1) * b], pool));
                        }
                    }
                    self.phase = if n > 1 {
                        BkA2aPhase::Round
                    } else {
                        BkA2aPhase::Tail
                    };
                }
                BkA2aPhase::Round => {
                    if self.v >= n {
                        self.phase = BkA2aPhase::Tail;
                        continue;
                    }
                    let to = (me + self.v) % n;
                    let from = (me + n - self.v) % n;
                    let payload = if once {
                        let CollWorkspace {
                            pool,
                            blobs,
                            blob_list,
                            ..
                        } = ws;
                        blob_list.clear();
                        for (i, slot) in blobs.iter().enumerate() {
                            if i & self.v != 0 {
                                blob_list.push(slot.clone().expect("forwarded slot holds a blob"));
                            }
                        }
                        crate::wire::frame_blobs_pooled(pool, blob_list)
                    } else {
                        let m: usize = (0..n).filter(|i| i & self.v != 0).count();
                        ws.acc.resize(m * b, 0.0);
                        let CollWorkspace { acc, stage, .. } = ws;
                        let mut at = 0;
                        for i in 0..n {
                            if i & self.v != 0 {
                                memcpy_in(comm, &mut acc[at..at + b], &stage[i * b..(i + 1) * b]);
                                at += b;
                            }
                        }
                        link.pack(comm, &ws.acc, &mut ws.pool)
                    };
                    self.wire.rreq = Some(comm.irecv(from, self.tag()));
                    self.wire.sreq = Some(comm.isend(to, self.tag(), payload));
                    self.phase = BkA2aPhase::Exchange;
                }
                BkA2aPhase::Exchange => {
                    let (recv_cat, send_cat) = (Category::Allgather, Category::Wait);
                    let Some(got) = self.wire.exchange(comm, block, recv_cat, send_cat) else {
                        return Poll::Pending;
                    };
                    if once {
                        crate::wire::unframe_blobs_into(&got, &mut ws.blob_list)
                            .expect("well-formed Bruck container");
                        let CollWorkspace {
                            blobs, blob_list, ..
                        } = ws;
                        let mut at = 0;
                        for (i, slot) in blobs.iter_mut().enumerate() {
                            if i & self.v != 0 {
                                *slot = Some(blob_list[at].clone());
                                at += 1;
                            }
                        }
                        assert_eq!(at, blob_list.len(), "Bruck container block count");
                    } else {
                        let m: usize = (0..n).filter(|i| i & self.v != 0).count();
                        ws.acc.resize(m * b, 0.0);
                        link.unpack(comm, &got, &mut ws.acc, &mut ws.scratch);
                        let CollWorkspace { acc, stage, .. } = ws;
                        let mut at = 0;
                        for i in 0..n {
                            if i & self.v != 0 {
                                memcpy_in(comm, &mut stage[i * b..(i + 1) * b], &acc[at..at + b]);
                                at += b;
                            }
                        }
                    }
                    self.v <<= 1;
                    self.round_no += 1;
                    self.phase = BkA2aPhase::Round;
                }
                // Inverse rotation: slot `i` holds the block *from*
                // rank `(me − i) % n`.
                BkA2aPhase::Tail => {
                    for i in 0..n {
                        let src = (me + n - i) % n;
                        let dst = &mut out[src * b..(src + 1) * b];
                        if once && i != 0 {
                            let blob = ws.blobs[i].take().expect("tail slot holds a blob");
                            link.unpack(comm, &blob, dst, &mut ws.scratch);
                        } else {
                            memcpy_in(comm, dst, &ws.stage[i * b..(i + 1) * b]);
                        }
                    }
                    self.phase = BkA2aPhase::Done;
                }
                BkA2aPhase::Done => return Poll::Ready,
            }
        }
    }
}
