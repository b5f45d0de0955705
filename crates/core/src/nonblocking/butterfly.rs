//! The butterfly allreduces, recursive doubling and Rabenseifner, with
//! the fold geometry of a non-power-of-two world they share.

use std::ops::Range;

use bytes::Bytes;
use ccoll_comm::{Category, Comm, Tag};

use super::{exchange, next_arrival, post, retire_sends, Poll};
use crate::collectives::cpr_p2p::CprCodec;
use crate::collectives::{memcpy_in, tags};
use crate::pipeline::{split_src_dst, Land, Route, StreamCursor};
use crate::placement::Placement;
use crate::reduce::ReduceOp;
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
/// doubling's rounds [`Route::exchange`]s (`pipe`-value sub-chunks raw,
/// PIPE-SZx sub-chunks piped, one whole message at CPR-P2P);
/// Rabenseifner's doubling and the unfold move finalized data and stay
/// monolithic rounds.
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
    /// A monolithic round's payload, held while its send retires.
    stash: Option<Bytes>,
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
                    post(comm, ws, tag, Some(peer), Some((peer, payload)));
                    self.phase = BflyPhase::DoublingExchange;
                }
                BflyPhase::DoublingExchange => {
                    let cats = (Category::Wait, Category::Wait);
                    let Some(got) = exchange(comm, ws, &mut self.stash, block, cats) else {
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
                        post(comm, ws, self.tag + 999, None, Some((me - 1, payload)));
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
                    let Some(got) = next_arrival(comm, &mut ws.rreqs, block, Category::Others)
                    else {
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
