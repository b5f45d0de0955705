//! The ring schedules: the reduce-scatter (the computation framework's
//! hop rounds) and the allgather (the data-movement framework's relay).

use std::ops::Range;

use bytes::Bytes;
use ccoll_comm::{Category, Comm, Tag};

use super::{exchange, next_arrival, post, retire_sends, Poll};
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
    /// A CPR-P2P round's payload, held while its send retires.
    stash: Option<Bytes>,
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
            stash: None,
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
                        // Not here yet (nonblocking), or aborted.
                        let Some(got) = next_arrival(comm, &mut ws.rreqs, block, cat) else {
                            break;
                        };
                        ws.blobs[into + self.got] = Some(got);
                        self.got += 1;
                    }
                    if self.sent < own || self.landed < relayed || self.got < inbound {
                        return Poll::Pending;
                    }
                    if !retire_sends(comm, &mut ws.sreqs, block, cat) {
                        return Poll::Pending;
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
                    post(comm, ws, tag, Some(left), Some((right, payload)));
                    self.phase = AgPhase::Exchange;
                }
                AgPhase::Exchange => {
                    let Some(got) = exchange(comm, ws, &mut self.stash, block, (cat, cat)) else {
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
