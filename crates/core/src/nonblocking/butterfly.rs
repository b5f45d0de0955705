//! The butterfly allreduces, recursive doubling and Rabenseifner, with
//! the fold geometry of a non-power-of-two world they share.

use std::ops::Range;

use bytes::Bytes;
use ccoll_comm::{Category, Comm, Cut, Tag};

use super::{exchange, next_arrival, post, retire_sends, Poll};
use crate::collectives::cpr_p2p::CprCodec;
use crate::collectives::{memcpy_in, tags};
use crate::pipeline::{split_src_dst, Land, Route, StreamCursor};
use crate::placement::{Link, Placement};
use crate::reduce::ReduceOp;
use crate::wire::{frame_blobs_pooled, unframe_blobs_into};
use crate::workspace::CollWorkspace;

/// The fold geometry every butterfly schedule shares: non-power-of-two
/// worlds pre-reduce the first `2·rem` ranks pairwise (even → odd) so a
/// power-of-two subset runs the butterfly, then unfold the result back.
///
/// Returns `(pow2, rem)` where `pow2` is the largest power of two not
/// exceeding `n` and `rem = n - pow2`.
fn butterfly_fold(n: usize) -> (usize, usize) {
    let pow2 = if n.is_power_of_two() {
        n
    } else {
        n.next_power_of_two() / 2
    };
    (pow2, n - pow2)
}

/// The rank holding butterfly position `p` after the fold (odd folded
/// ranks take positions `0..rem`; unpaired ranks shift down by `rem`).
fn butterfly_pos_to_rank(p: usize, rem: usize) -> usize {
    if p < rem {
        2 * p + 1
    } else {
        p + rem
    }
}

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
/// doubling's rounds [`Route::exchange`]s, in the machine's cut (raw
/// pieces, PIPE-SZx sub-chunks piped, one whole message at CPR-P2P).
///
/// Rabenseifner's doubling and the unfold move finalized data in
/// monolithic rounds through [`Placement::link`]: raw, CPR-P2P, or —
/// piped and compress-once — the pooled link, which decodes straight
/// into `out` with no buffer management and no copy. A machine that
/// `relay`s (`CCollSession::relays`: a pooled placement on a flat
/// network) encodes only its own reduced chunk, once; every doubling
/// round sends the blobs it holds as one framed container (held per
/// chunk in `ws.blobs`) and decodes the last round's while it is in
/// flight, and the unfold relays the whole blob set. So no value is
/// encoded twice, and every rank but a range's owner holds the same
/// bits of it. Otherwise each round re-encodes the range it sends.
///
/// The accumulator is the caller's `out`, *born* from this rank's first
/// fold (`out[range] = fold(input[range], received)`); until then sends
/// read `input`. A rank the non-power-of-two fold folds away never
/// accumulates: it ships `input` and lands the unfold in `out`.
#[derive(Debug)]
pub(crate) struct Butterfly {
    place: Placement,
    /// How its streamed legs are cut (`CCollSession::cut`).
    cut: Cut,
    /// Rabenseifner when true, recursive doubling when false.
    halving: bool,
    /// Rabenseifner's finalized legs relay each range's one blob.
    relay: bool,
    /// `out` holds this rank's live accumulator range.
    born: bool,
    phase: BflyPhase,
    pos: usize,
    /// Halving: the chunk indices `[lo, hi)` still being reduced.
    /// Relayed doubling and unfold: the held blobs not yet decoded.
    lo: usize,
    hi: usize,
    mask: usize,
    round: Tag,
    pow2: usize,
    rem: usize,
    tag: Tag,
    hop: StreamCursor,
    /// A monolithic round's payload, held while its send retires.
    stash: Option<Bytes>,
}

impl Butterfly {
    pub(crate) fn recursive_doubling(place: Placement, cut: Cut) -> Self {
        Self::new(place, cut, false, false)
    }

    /// `relay`: the finalized legs relay each range's one blob
    /// (`CCollSession::relays`).
    pub(crate) fn rabenseifner(place: Placement, cut: Cut, relay: bool) -> Self {
        Self::new(place, cut, true, relay)
    }

    fn new(place: Placement, cut: Cut, halving: bool, relay: bool) -> Self {
        Butterfly {
            place,
            cut,
            halving,
            relay,
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
            stash: None,
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
        let stream = (self.place.stream(cpr), self.cut);
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
                        (self.lo, self.hi) = (self.pos, self.pos);
                        if self.relay && self.pow2 > 1 {
                            // The one encode of this rank's reduced chunk.
                            assert!(matches!(link, Link::Once(_)), "relayed blobs are pooled");
                            ws.blobs.clear();
                            ws.blobs.resize(self.pow2, None);
                            let own = Self::range(ws, self.pos, self.pos + 1);
                            let blob = link.pack(comm, &out[own], &mut ws.pool);
                            ws.blobs[self.pos] = Some(blob);
                        }
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
                // aligned ranges move, one monolithic exchange a round —
                // re-encoded from `out`, or the blobs held, relayed.
                BflyPhase::Doubling => {
                    if self.mask >= self.pow2 {
                        self.phase = BflyPhase::Unfold;
                        continue;
                    }
                    let peer = butterfly_pos_to_rank(self.pos ^ self.mask, self.rem);
                    let tag = self.tag + self.round;
                    let payload = if self.relay {
                        frame_held(ws, self.doubling_chunks().0)
                    } else {
                        let (send, _) = self.doubling_ranges(ws);
                        link.pack(comm, &out[send], &mut ws.pool)
                    };
                    post(comm, ws, tag, Some(peer), Some((peer, payload)));
                    // Decode the last round's blobs while this round's
                    // container is in flight.
                    self.decode_held(comm, link, out, ws);
                    self.phase = BflyPhase::DoublingExchange;
                }
                BflyPhase::DoublingExchange => {
                    let cats = (Category::Wait, Category::Wait);
                    let Some(got) = exchange(comm, ws, &mut self.stash, block, cats) else {
                        return Poll::Pending;
                    };
                    if self.relay {
                        let (_, theirs) = self.doubling_chunks();
                        hold(ws, &got, theirs.clone());
                        (self.lo, self.hi) = (theirs.start, theirs.end);
                    } else {
                        let (_, peer) = self.doubling_ranges(ws);
                        link.unpack(comm, &got, &mut out[peer], &mut ws.scratch);
                    }
                    self.mask <<= 1;
                    self.round += 1;
                    self.phase = BflyPhase::Doubling;
                }
                // Unfold: ship the final buffer — or every range's blob —
                // back to the folded-away rank.
                BflyPhase::Unfold => {
                    if me >= 2 * self.rem {
                        self.decode_held(comm, link, out, ws);
                        self.phase = BflyPhase::Final;
                        continue;
                    }
                    if me % 2 == 1 {
                        let payload = if self.relay {
                            frame_held(ws, 0..self.pow2)
                        } else {
                            link.pack(comm, out, &mut ws.pool)
                        };
                        post(comm, ws, self.tag + 999, None, Some((me - 1, payload)));
                        self.decode_held(comm, link, out, ws);
                        self.phase = BflyPhase::UnfoldSendWait;
                    } else {
                        post(comm, ws, self.tag + 999, Some(me + 1), None);
                        self.phase = BflyPhase::UnfoldRecvWait;
                    }
                }
                BflyPhase::UnfoldSendWait => {
                    if !retire_sends(comm, &mut ws.sreqs, block, Category::Wait) {
                        return Poll::Pending;
                    }
                    self.phase = BflyPhase::Final;
                }
                BflyPhase::UnfoldRecvWait => {
                    let Some(got) = next_arrival(comm, &mut ws.rreqs, block, Category::Wait) else {
                        return Poll::Pending;
                    };
                    if self.relay {
                        ws.blobs.clear();
                        ws.blobs.resize(self.pow2, None);
                        hold(ws, &got, 0..self.pow2);
                        (self.lo, self.hi) = (0, self.pow2);
                        self.decode_held(comm, link, out, ws);
                    } else {
                        link.unpack(comm, &got, out, &mut ws.scratch);
                    }
                    self.phase = BflyPhase::Final;
                }
                BflyPhase::Final => {
                    if self.relay {
                        // Let go of the peers' containers before their
                        // next call reuses the pool slots.
                        ws.blobs.clear();
                    }
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

    /// `(send, peer)` chunk indices of the current Rabenseifner doubling
    /// round.
    fn doubling_chunks(&self) -> (Range<usize>, Range<usize>) {
        let base = self.pos & !(2 * self.mask - 1);
        let (low, high) = (
            base..base + self.mask,
            base + self.mask..base + 2 * self.mask,
        );
        if self.pos & self.mask == 0 {
            (low, high)
        } else {
            (high, low)
        }
    }

    /// `(send, peer)` value ranges of the current Rabenseifner doubling
    /// round.
    fn doubling_ranges(&self, ws: &CollWorkspace) -> (Range<usize>, Range<usize>) {
        let (send, peer) = self.doubling_chunks();
        (
            Self::range(ws, send.start, send.end),
            Self::range(ws, peer.start, peer.end),
        )
    }

    /// Decode the held blobs not yet landed (`[lo, hi)`) straight into
    /// their ranges of `out`.
    fn decode_held<C: Comm>(
        &mut self,
        comm: &mut C,
        link: Link<'_>,
        out: &mut [f32],
        ws: &mut CollWorkspace,
    ) {
        for i in self.lo..self.hi {
            let at = Self::range(ws, i, i + 1);
            let CollWorkspace { blobs, scratch, .. } = ws;
            let blob = blobs[i].as_ref().expect("a held chunk has its blob");
            link.land(comm, blob, &mut out[at], scratch);
        }
        self.lo = self.hi;
    }
}

/// One container of the held blobs of `chunks`, in chunk order.
fn frame_held(ws: &mut CollWorkspace, chunks: Range<usize>) -> Bytes {
    let CollWorkspace {
        pool,
        blobs,
        blob_list,
        ..
    } = ws;
    blob_list.clear();
    let held = blobs[chunks].iter().map(|b| b.clone().expect("held blob"));
    blob_list.extend(held);
    let container = frame_blobs_pooled(pool, blob_list);
    blob_list.clear();
    container
}

/// Hold the blobs of a received container as those of `chunks`.
///
/// # Panics
/// Panics on a container that is malformed or holds another count.
fn hold(ws: &mut CollWorkspace, got: &Bytes, chunks: Range<usize>) {
    let CollWorkspace {
        blobs, blob_list, ..
    } = ws;
    unframe_blobs_into(got, blob_list).expect("well-formed Rabenseifner container");
    assert_eq!(
        blob_list.len(),
        chunks.len(),
        "Rabenseifner container count"
    );
    for (slot, blob) in blobs[chunks].iter_mut().zip(blob_list.drain(..)) {
        *slot = Some(blob);
    }
}
