//! The sub-chunk streaming engine (paper §III-A2/§III-E2, made
//! schedule-agnostic and resumable): one [`StreamCursor`], stepped over a
//! [`Route`], moves one logical buffer in sub-chunks for every streamed
//! schedule, and for every CPR-P2P hop and raw tree as a stream of
//! **one** unbounded sub-chunk. A stream travels on **one tag matched
//! FIFO**, with every inbound receive posted up front, sends retired
//! lazily, and only the tail that could not be overlapped showing up as
//! `Wait` time — the quantity Fig. 9 shows shrinking by 73–80 %.
//!
//! Per sub-chunk `j` every rank *obtains* `j` (encodes it from its own
//! buffer, or receives it from one peer), *forwards* it to a set of peers
//! and *lands* it. Only the route and the land action differ:
//!
//! | route | cut: `CCollSession::cut` role | obtain `j` | forward to | land |
//! |---|---|---|---|---|
//! | [`Route::hop`] (`RingRs`, `Butterfly` fold / halving, `TreeReduce`; `HierBc` hand-off) | `Hop` (hand-off: `Tree`) | encode `send[j]` (its own stream); receive from `from` | `to` | fold into `dst` (first touch: from `input`); the hand-off stores |
//! | [`Route::exchange`] (recursive doubling's rounds) | `Exchange` | encode `input[j]` before the first fold, then `dst[j]`; receive from the peer | the peer | fold into `dst`: first touch from `input`, else in place once `dst[j]` is encoded |
//! | [`Route::tree`] (`Bcast` at `Once` and raw; hierarchical fan-outs), root / others | `Tree` | encode `out[j]` / receive from the parent | binomial children, *before* landing | — / decode in place |
//! | [`Route::chain_fold`] (`HierAr`), far end / others | raw `Hop` | pack `input[j]` / receive from `i + 1` | `i − 1`, *after* folding | fold, first touch from `input[j]` |
//! | [`Route::chain_relay`] (`HierAr`), member 0 / others | raw `Hop` | pack `out[j]` / receive from `i − 1` | `i + 1`, *before* landing | — / store |
//!
//! The [`Cut`] is the machine's, which the session decided for the
//! stream's placement and role (`CCollSession::cut`, the one place):
//! PIPE-SZx sub-chunks (5120 values by default) on a piped hop, the
//! plan's exchange sub-chunk on recursive doubling's rounds; on a raw
//! hop the plan's pipe or, on a flat plan whose link is slower than its
//! fold, largest-first pieces down to a short tail (a
//! [`ccoll_comm::Taper`]); the plan's pipe on the compress-once tree and
//! the hierarchical chains; and the whole message ([`Cut::WHOLE`]) on a
//! CPR-P2P hop and the raw trees, sent even when empty. So a hop
//! encodes `j + 1` while `j` is on the wire and folds arrivals through the
//! **fused decompress-reduce** kernel while later ones are in flight, a
//! tree root is `max(encode, fan-out)`-bound, and every codec call goes
//! through the route's [`Link`](crate::placement::Link).
//!
//! **The `block` contract.** With `block = true` a step runs the stream
//! to completion (what `execute_into` drives). With `block = false` it
//! encodes at most one charged sub-chunk and lands at most
//! [`NONBLOCKING_DRAIN_BUDGET`] arrived ones, and returns
//! [`Poll::Pending`] at the first not-yet-ready receive or send; resuming
//! continues the identical sub-chunk sequence, so results and bytes sent
//! are independent of where it suspended. A raw source end sends its
//! whole stream in its first step (packing is uncharged). On `Ready` the
//! cursor is back at its start, for the owner's next stream.
//!
//! **Faults.** A permanently lost sub-chunk closes the FIFO stream up
//! behind it: the last receive starves, or the short tail lands in a
//! full slot. Every route aborts on either, never panicking.
//!
//! The engine owns **no** buffers: callers lend the workspace's through
//! [`PipeBufs`], which keeps the zero-allocation steady state intact.

use std::collections::VecDeque;
use std::ops::Range;
use std::time::Duration;

use bytes::Bytes;
use ccoll_comm::{Category, Comm, CommError, Cut, PayloadPool, RecvReq, SendReq, Tag};
use ccoll_compress::CodecScratch;

use crate::nonblocking::{next_arrival, retire_sends, Poll};
use crate::placement::Link;
use crate::reduce::ReduceOp;

/// Most arrived sub-chunks a *nonblocking* step lands (and a blocking hop
/// between two encodes): one fat stream must not fold an unbounded
/// backlog in one `progress()` call and starve its siblings on a progress
/// engine, and four still drain faster than one encode per call fills.
pub(crate) const NONBLOCKING_DRAIN_BUDGET: usize = 4;

/// The workspace buffers a cursor borrows: payload pool, codec scratch
/// and the two request queues.
pub(crate) struct PipeBufs<'a> {
    /// Payload pool for sub-chunk payloads.
    pub pool: &'a mut PayloadPool,
    /// Codec scratch, for a codec without a native in-place decode.
    pub scratch: &'a mut CodecScratch,
    /// Outstanding sub-chunk sends, retired FIFO.
    pub sreqs: &'a mut VecDeque<SendReq>,
    /// Outstanding sub-chunk receives, drained FIFO.
    pub rreqs: &'a mut VecDeque<RecvReq>,
}

/// Split one buffer into a read-only `src` range and a mutable `dst`
/// range, which must be disjoint: a hop compresses straight out of the
/// accumulator while the drain reduces into another chunk of it.
///
/// # Panics
/// Panics if the ranges overlap.
pub(crate) fn split_src_dst(
    buf: &mut [f32],
    src: Range<usize>,
    dst: Range<usize>,
) -> (&[f32], &mut [f32]) {
    if src.end <= dst.start {
        let (head, tail) = buf.split_at_mut(dst.start);
        (&head[src.start..src.end], &mut tail[..dst.end - dst.start])
    } else {
        assert!(
            dst.end <= src.start,
            "source and destination ranges overlap"
        );
        let (head, tail) = buf.split_at_mut(src.start);
        (&tail[..src.end - src.start], &mut head[dst.start..dst.end])
    }
}

/// Where a rank's own sub-chunks come from.
#[derive(Debug, Clone, Copy)]
enum Source<'r> {
    /// It has none: it sends only what it receives.
    None,
    /// This buffer.
    Own(&'r [f32]),
    /// The step's `dst` (a relay's source end, an in-place exchange).
    Dst,
}

/// How an inbound sub-chunk lands in its slot of the step's `dst`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Land<'r> {
    /// Decoded into it.
    Store,
    /// Folded into it with the op — as the first touch `slot =
    /// fold(from[slot], sub-chunk)` when `from` is given.
    Fold(ReduceOp, Option<&'r [f32]>),
}

/// The peers a rank sends to.
#[derive(Debug, Clone, Copy)]
enum Fan {
    None,
    One(usize),
    /// Its children in the binomial tree rooted at the given rank.
    Tree(usize),
}

impl Fan {
    fn send<C: Comm>(self, comm: &mut C, tag: Tag, blob: &Bytes, sreqs: &mut VecDeque<SendReq>) {
        match self {
            Fan::None => {}
            Fan::One(to) => sreqs.push_back(comm.isend(to, tag, blob.clone())),
            Fan::Tree(root) => {
                let (n, relative, span) = tree_pos(comm, root);
                let bits = (0..span.trailing_zeros()).rev();
                for child in bits.map(|b| relative + (1 << b)).filter(|&c| c < n) {
                    sreqs.push_back(comm.isend((child + root) % n, tag, blob.clone()));
                }
            }
        }
    }
}

/// `(n, relative rank, span)` in the binomial tree rooted at `root`: the
/// span is a rank's parent bit — its lowest set bit, or the tree's
/// power-of-two size at the root — and its children sit at `relative + m`
/// for every power of two `m` below it, largest first.
pub(crate) fn tree_pos<C: Comm>(comm: &C, root: usize) -> (usize, usize, usize) {
    let n = comm.size();
    assert!(root < n, "root {root} out of range");
    let relative = (comm.rank() + n - root) % n;
    let span = 1 << (relative | n.next_power_of_two()).trailing_zeros();
    (n, relative, span)
}

/// This rank's `(previous, next)` member on the path a chain runs along:
/// the communicator's ranks in order.
///
/// # Panics
/// Panics on a path of one member (there is nothing to stream).
fn neighbours<C: Comm>(comm: &C) -> (Option<usize>, Option<usize>) {
    let (me, n) = (comm.rank(), comm.size());
    assert!(n > 1, "a chain needs two members");
    (me.checked_sub(1), Some(me + 1).filter(|&next| next < n))
}

/// One rank's part in one stream, a row of the module docs' table. Built
/// for every step (it only borrows), so the [`StreamCursor`] stays POD.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Route<'r> {
    link: Link<'r>,
    /// How the buffers are cut into sub-chunks.
    cut: Cut,
    tag: Tag,
    source: Source<'r>,
    /// The rank the inbound stream comes from, and how it lands.
    sink: Option<(usize, Land<'r>)>,
    /// Where this rank sends its own stream — or, without one, what it
    /// receives: as received (before landing) when it stores it, as
    /// folded (after folding) when it folds it.
    fan: Fan,
}

impl<'r> Route<'r> {
    /// A two-rank hop over `stream` (a `(link, cut)`: a placement's
    /// [`Placement::stream`](crate::placement::Placement::stream) and the
    /// machine's cut): this
    /// rank's `send` values go to their peer, and what comes from the
    /// `recv` peer lands in the step's `dst`; either side may be absent.
    pub(crate) fn hop(
        (link, cut): (Link<'r>, Cut),
        tag: Tag,
        send: Option<(&'r [f32], usize)>,
        recv: Option<(usize, Land<'r>)>,
    ) -> Self {
        let source = send.map_or(Source::None, |(vals, _)| Source::Own(vals));
        let fan = send.map_or(Fan::None, |(_, to)| Fan::One(to));
        Self::new(link, cut, tag, source, recv, fan)
    }

    /// This rank's half of a symmetric exchange with `peer` over `stream`,
    /// folding the peer's values into `dst` with `op`: it sends `first`
    /// and folds as the first touch `dst = fold(first, ·)`, or — without
    /// `first` — sends `dst` itself and folds in place.
    pub(crate) fn exchange(
        (link, cut): (Link<'r>, Cut),
        tag: Tag,
        peer: usize,
        op: ReduceOp,
        first: Option<&'r [f32]>,
    ) -> Self {
        let (source, fan) = (first.map_or(Source::Dst, Source::Own), Fan::One(peer));
        let sink = Some((peer, Land::Fold(op, first)));
        Self::new(link, cut, tag, source, sink, fan)
    }

    /// The broadcast down the binomial tree rooted at `root`, every
    /// sub-chunk encoded once by `link`: the root streams `data` (its
    /// `dst`, when `data` is empty) to its children; every other rank
    /// ignores `data`, relays what its parent sends to its own children
    /// and lands it in `dst`.
    pub(crate) fn tree<C: Comm>(
        comm: &C,
        (link, cut): (Link<'r>, Cut),
        tag: Tag,
        root: usize,
        data: &'r [f32],
    ) -> Self {
        let (n, relative, span) = tree_pos(comm, root);
        let (source, sink) = match relative {
            0 if data.is_empty() => (Source::Dst, None),
            0 => (Source::Own(data), None),
            _ => (Source::None, Some((relative - span + root) % n)),
        };
        let sink = sink.map(|parent| (parent, Land::Store));
        Self::new(link, cut, tag, source, sink, Fan::Tree(root))
    }

    /// Member `i`'s part in a raw reduction of `input` along the path of
    /// the communicator's ranks toward member 0, whose `dst` holds the
    /// (unfinalized) result on `Ready`. Every `dst` is as long as
    /// `input`; it ends unspecified anywhere but at member 0, and the far
    /// end never touches its own.
    pub(crate) fn chain_fold<C: Comm>(
        comm: &C,
        cut: Cut,
        tag: Tag,
        op: ReduceOp,
        input: &'r [f32],
    ) -> Self {
        let (prev, next) = neighbours(comm);
        let (source, sink) = match next {
            None => (Source::Own(input), None),
            Some(next) => (Source::None, Some((next, Land::Fold(op, Some(input))))),
        };
        let fan = prev.map_or(Fan::None, Fan::One);
        Self::new(Link::Raw, cut, tag, source, sink, fan)
    }

    /// Member 0's `dst` relayed along the path into every other member's
    /// `dst`.
    pub(crate) fn chain_relay<C: Comm>(comm: &C, cut: Cut, tag: Tag) -> Self {
        let (prev, next) = neighbours(comm);
        let (source, sink) = match prev {
            None => (Source::Dst, None),
            Some(prev) => (Source::None, Some((prev, Land::Store))),
        };
        let fan = next.map_or(Fan::None, Fan::One);
        Self::new(Link::Raw, cut, tag, source, sink, fan)
    }

    /// A route, field by field.
    fn new(
        link: Link<'r>,
        cut: Cut,
        tag: Tag,
        source: Source<'r>,
        sink: Option<(usize, Land<'r>)>,
        fan: Fan,
    ) -> Self {
        Route {
            link,
            cut,
            tag,
            source,
            sink,
            fan,
        }
    }

    /// How many sub-chunks this rank sends of its own stream and receives
    /// of its inbound one, over a `dst_len`-value `dst`. An empty buffer
    /// still travels as one empty sub-chunk — the one message of the
    /// whole-payload schedule a stream replaces — except on a PIPE-SZx
    /// hop, which sends nothing of it.
    fn counts(&self, dst_len: usize) -> (usize, usize) {
        let least = usize::from(!matches!(self.link, Link::Piped(_)));
        let count = |len: usize| self.cut.count(len).max(least);
        let own = match self.source {
            Source::None => 0,
            Source::Own(vals) => count(vals.len()),
            Source::Dst => count(dst_len),
        };
        (own, self.sink.map_or(0, |_| count(dst_len)))
    }

    /// Whether this rank passes on what it receives (the `fan` rule).
    fn forwards(&self) -> bool {
        matches!(self.source, Source::None) && !matches!(self.fan, Fan::None)
    }
}

/// Resumable state of one stream on one rank: receives posted, own
/// sub-chunks sent, inbound ones landed. The request handles live in the
/// lent [`PipeBufs`] queues, so the cursor is plain-old-data and a
/// suspended stream costs nothing to hold.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct StreamCursor {
    posted: bool,
    sent: usize,
    landed: usize,
}

impl StreamCursor {
    /// Drive `route` over `dst`. See the module docs for the `block`
    /// contract; the route must be the same on every step of one stream.
    pub(crate) fn step<C: Comm>(
        &mut self,
        comm: &mut C,
        route: Route<'_>,
        dst: &mut [f32],
        bufs: &mut PipeBufs<'_>,
        block: bool,
    ) -> Poll {
        let Route { link, tag, .. } = route;
        let (own, inbound) = route.counts(dst.len());
        if !self.posted {
            // The paper's early Irecv: the whole inbound stream up front.
            bufs.sreqs.clear();
            bufs.rreqs.clear();
            if let Some((from, _)) = route.sink {
                bufs.rreqs
                    .extend((0..inbound).map(|_| comm.irecv(from, tag)));
            }
            self.posted = true;
        }
        let mut budget = NONBLOCKING_DRAIN_BUDGET;
        loop {
            if self.sent < own {
                let vals = match route.source {
                    Source::Own(vals) => vals,
                    _ => &*dst,
                };
                let at = route.cut.range(self.sent, vals.len());
                let blob = link.pack(comm, &vals[at], bufs.pool);
                route.fan.send(comm, tag, &blob, bufs.sreqs);
                self.sent += 1;
                if matches!(link, Link::Raw) {
                    continue;
                }
                budget = NONBLOCKING_DRAIN_BUDGET;
                if self.sent < own {
                    // Between two sub-chunks (the paper's progress poll):
                    // retire the sends that have left. Waiting each out
                    // before the next encode would re-serialize encode and
                    // egress.
                    retire_sends(comm, bufs.sreqs, false, Category::Wait);
                }
            }
            // Arrivals: only those already here (at most `budget`) while
            // own sub-chunks remain to encode or the step must not block;
            // the tail is waited out otherwise. A stream sent from `dst`
            // folds no sub-chunk it has yet to encode.
            let wait = block && self.sent == own;
            let landable = match route.source {
                Source::Dst => self.sent.min(inbound),
                _ => inbound,
            };
            while self.landed < landable && (wait || budget > 0) {
                let Some(got) = next_arrival(comm, bufs.rreqs, wait, Category::Wait) else {
                    break;
                };
                let at = route.cut.range(self.landed, dst.len());
                let (from, land) = route.sink.expect("an inbound stream has a sink");
                if route.forwards() && matches!(land, Land::Store) {
                    route.fan.send(comm, tag, &got, bufs.sreqs);
                }
                let slot = &mut dst[at.clone()];
                let landed = match land {
                    Land::Store => link.try_land(comm, &got, slot, bufs.scratch),
                    Land::Fold(op, first) => {
                        let first = first.map(|vals| &vals[at.clone()]);
                        link.try_reduce(comm, &got, op, first, slot, bufs.scratch)
                    }
                };
                if landed.is_err() {
                    abort_stream(comm, from, tag);
                    return Poll::Pending;
                }
                if route.forwards() && matches!(land, Land::Fold(..)) {
                    let fold = link.pack(comm, &dst[at], bufs.pool);
                    route.fan.send(comm, tag, &fold, bufs.sreqs);
                }
                self.landed += 1;
                budget = budget.saturating_sub(1);
                if self.landed < inbound {
                    retire_sends(comm, bufs.sreqs, false, Category::Wait);
                }
            }
            if self.sent == own && self.landed == inbound {
                break;
            }
            if !block || self.sent == own {
                return Poll::Pending;
            }
        }
        if !retire_sends(comm, bufs.sreqs, block, Category::Wait) {
            return Poll::Pending;
        }
        *self = Self::default();
        Poll::Ready
    }
}

/// Abort a stream from `src` whose next sub-chunk does not fit its slot,
/// as its starved tail receive would have (noted on the profiler; the
/// caller suspends). Without an active fault policy no sub-chunk can go
/// missing, so that is a bug.
pub(crate) fn abort_stream<C: Comm>(comm: &mut C, src: usize, tag: Tag) {
    let faulty = comm.fault_policy().is_active();
    assert!(faulty, "a sub-chunk does not fit its slot without a fault");
    let waited = Duration::ZERO;
    comm.profiler()
        .note_abort(CommError::Timeout { src, tag, waited });
}

#[cfg(test)]
mod tests {
    use ccoll_comm::{SimConfig, SimWorld};

    use super::*;
    use crate::codec::CodecSpec;
    use crate::collectives::cpr_p2p::CprCodec;
    use crate::placement::Placement;
    use crate::workspace::CollWorkspace;

    const PIPE: usize = 16;
    const LEN: usize = 11 * PIPE + 5;
    /// The in-place exchange's buffer: three sub-chunks and a ragged tail.
    const IN_PLACE: usize = 3 * PIPE + 5;

    /// The route shapes of the module docs' table, at a placement.
    #[derive(Debug, Clone, Copy)]
    enum Shape {
        /// A two-rank exchange, folding as a first touch: eleven
        /// sub-chunks and a ragged tail (raw, piped), or one message.
        Exchange(Placement),
        /// The same exchange in place: each rank sends its `dst` and
        /// folds the peer's into it, over [`IN_PLACE`] values.
        InPlace(Placement),
        /// Rank 0's send-only hop of the first `len` values into rank
        /// 1's receive-only one.
        OneWay(Placement, usize),
        /// The tree from rank 0 (root, interiors, leaves): compress-once
        /// in sub-chunks, or raw as one whole message.
        Tree(Placement),
        ChainFold,
        ChainRelay,
    }

    /// What one rank saw driving a shape to `Ready`.
    #[derive(Debug, PartialEq)]
    struct Drive {
        bits: Vec<u32>,
        /// Most own sub-chunks sent in one step.
        most_sent: usize,
        /// Most inbound sub-chunks landed in one step.
        most_landed: usize,
        /// Inbound sub-chunks landed in all.
        landed: usize,
        /// Messages this rank sent.
        messages: u64,
    }

    /// The cut a `place` hop streams in: [`PIPE`], or one whole message
    /// at CPR-P2P.
    fn hop_cut(place: Placement) -> Cut {
        match place {
            Placement::Cpr => Cut::WHOLE,
            _ => Cut::pipe(PIPE),
        }
    }

    /// Drive `shape` to `Ready` on this rank. Between nonblocking steps a
    /// rank idles — the odd ranks eight times longer, so arrivals back up
    /// against the drain budget.
    fn drive<C: Comm>(c: &mut C, shape: Shape, block: bool) -> Drive {
        let me = c.rank();
        let cpr = CprCodec::from_spec(CodecSpec::Szx { error_bound: 1e-3 }).expect("a codec");
        let input: Vec<f32> = (0..LEN)
            .map(|i| ((i * 31 + me * 17) % 97) as f32 * 0.25)
            .collect();
        let mut dst = vec![0.0f32; LEN];
        if matches!(shape, Shape::ChainRelay) && me == 0 || matches!(shape, Shape::InPlace(_)) {
            dst.copy_from_slice(&input);
        }
        let tag = if block { 1 } else { 2 };
        let (mut ws, mut cursor) = (CollWorkspace::new(), StreamCursor::default());
        let (mut most_sent, mut most_landed, mut landed_all) = (0, 0, 0);
        let messages = c.profiler().traffic().messages_sent;
        loop {
            let sum = ReduceOp::Sum;
            let route = match shape {
                Shape::Exchange(place) => {
                    let stream = (place.stream(Some(&cpr)), hop_cut(place));
                    Route::exchange(stream, tag, 1 - me, sum, Some(&input))
                }
                Shape::InPlace(place) => {
                    let stream = (place.stream(Some(&cpr)), hop_cut(place));
                    Route::exchange(stream, tag, 1 - me, sum, None)
                }
                Shape::OneWay(place, len) => {
                    let stream = (place.stream(Some(&cpr)), hop_cut(place));
                    match me {
                        0 => Route::hop(stream, tag, Some((&input[..len], 1)), None),
                        _ => Route::hop(stream, tag, None, Some((0, Land::Fold(sum, None)))),
                    }
                }
                Shape::Tree(place) => {
                    let data: &[f32] = if me == 0 { &input } else { &[] };
                    let cut = if matches!(place, Placement::Once) {
                        Cut::pipe(PIPE)
                    } else {
                        Cut::WHOLE
                    };
                    Route::tree(c, (place.link(Some(&cpr)), cut), tag, 0, data)
                }
                Shape::ChainFold => Route::chain_fold(c, Cut::pipe(PIPE), tag, sum, &input),
                Shape::ChainRelay => Route::chain_relay(c, Cut::pipe(PIPE), tag),
            };
            let slot = match shape {
                Shape::OneWay(..) if me == 0 => &mut [][..],
                Shape::OneWay(_, len) => &mut dst[..len],
                Shape::InPlace(_) => &mut dst[..IN_PLACE],
                _ => &mut dst[..],
            };
            let totals = route.counts(slot.len());
            let before = cursor;
            let poll = cursor.step(c, route, slot, &mut ws.pipe(), block);
            let (sent, landed) = match poll {
                Poll::Ready => totals,
                Poll::Pending => (cursor.sent, cursor.landed),
            };
            most_sent = most_sent.max(sent - before.sent);
            most_landed = most_landed.max(landed - before.landed);
            landed_all += landed - before.landed;
            if poll.is_ready() {
                break;
            }
            assert!(!block, "a blocking step runs to completion");
            let idle = Duration::from_micros(if me % 2 == 1 { 40 } else { 5 });
            c.charge_duration(idle, Category::Others);
        }
        Drive {
            bits: dst.iter().map(|v| v.to_bits()).collect(),
            most_sent,
            most_landed,
            landed: landed_all,
            messages: c.profiler().traffic().messages_sent - messages,
        }
    }

    #[test]
    fn every_route_steps_within_the_work_bound_to_the_blocking_result() {
        let piped = Placement::Piped(1e-3);
        let (raw, cpr) = (Placement::Raw, Placement::Cpr);
        // (shape, ranks, whether encoding a sub-chunk is charged, whether
        // the stream is one whole-message sub-chunk)
        let shapes = [
            (Shape::Exchange(piped), 2, true, false),
            (Shape::Exchange(raw), 2, false, false),
            (Shape::Exchange(cpr), 2, true, true),
            (Shape::InPlace(piped), 2, true, false),
            (Shape::InPlace(raw), 2, false, false),
            (Shape::InPlace(cpr), 2, true, true),
            (Shape::OneWay(piped, LEN), 2, true, false),
            (Shape::OneWay(raw, 0), 2, false, true),
            (Shape::OneWay(cpr, 0), 2, true, true),
            (Shape::Tree(Placement::Once), 6, true, false),
            (Shape::Tree(raw), 6, false, true),
            (Shape::ChainFold, 4, false, false),
            (Shape::ChainRelay, 4, false, false),
        ];
        for (shape, n, charged, whole) in shapes {
            let out = SimWorld::new(SimConfig::new(n))
                .run(move |c| (drive(c, shape, true), drive(c, shape, false)));
            for (rank, (blocking, stepped)) in out.results.iter().enumerate() {
                assert_eq!(
                    stepped.bits, blocking.bits,
                    "{shape:?} rank {rank}: stepped result"
                );
                assert!(
                    !charged || stepped.most_sent <= 1,
                    "{shape:?} rank {rank}: {} charged encodes in one step",
                    stepped.most_sent
                );
                assert!(
                    stepped.most_landed <= NONBLOCKING_DRAIN_BUDGET,
                    "{shape:?} rank {rank}: {} sub-chunks landed in one step",
                    stepped.most_landed
                );
                for run in [blocking, stepped] {
                    assert!(!whole || run.landed <= 1, "{shape:?} rank {rank}: {run:?}");
                    if let Shape::OneWay(_, 0) = shape {
                        // An empty whole-message hop is still one message.
                        let sides = [(1, 0), (0, 1)];
                        assert_eq!((run.messages, run.landed), sides[rank], "{shape:?}");
                    }
                }
            }
            // An in-place stream lands no sub-chunk before it has sent
            // its own copy: with four in all it never has a backlog of
            // the budget's size.
            let full = out
                .results
                .iter()
                .any(|r| r.1.most_landed == NONBLOCKING_DRAIN_BUDGET);
            let in_place = matches!(shape, Shape::InPlace(_));
            assert!(
                whole || in_place || full,
                "{shape:?}: no step used the whole drain budget"
            );
        }
    }

    /// Every length from empty to four pipes (ragged ones included), on
    /// a link-bound net (the default: both a fold and a copy outrun the
    /// link) and a fold-bound one (a link faster than a fold, slower than
    /// a copy). A raw hop's cut (the fold's) and a ring relay's (a copy's,
    /// its latencies paid in seven rounds) tile `[0, len)` in order on
    /// both ends of a stream, keep at most one pipe whole, and compute
    /// each piece without allocating. A cut that tapers hides every
    /// piece's work under the next piece's transfer (`α + bytes·β`); a
    /// fold-bound hop keeps the uniform pipe, whose fold the link never
    /// waits on.
    #[test]
    fn cuts_tile_in_order_and_hide_each_piece_under_the_next() {
        use ccoll_comm::{CostModel, Kernel, NetModel, Taper};

        use crate::frameworks::computation::DEFAULT_PIPE_VALUES as PIPE;
        use crate::testing::allocations;

        let cost = CostModel::default();
        let link_bound = NetModel::default();
        let fold_bound = NetModel {
            bandwidth: 4e9,
            ..link_bound
        };
        let link = |cut: Cut| Route::exchange((Link::Raw, cut), 0, 1, ReduceOp::Sum, None);
        for (net, kernel, rounds) in [
            (link_bound, Kernel::Reduce, 1),
            (link_bound, Kernel::Memcpy, 7),
            (fold_bound, Kernel::Reduce, 1),
            (fold_bound, Kernel::Memcpy, 7),
        ] {
            let work = cost.throughput(kernel);
            let taper = Taper::new(&net, work, rounds);
            assert_eq!(
                taper.is_some(),
                work > net.bandwidth,
                "{kernel:?} at {net:?}"
            );
            let cut = Cut::tapered(PIPE, taper);
            let (alpha, secs) = (net.latency.as_secs_f64(), |values: usize, rate: f64| {
                values as f64 * 4.0 / rate
            });
            let before = allocations();
            for len in 0..=4 * PIPE {
                let (own, inbound) = link(cut).counts(len);
                assert_eq!(own, inbound, "{kernel:?} {len}: both ends cut alike");
                assert_eq!(
                    own,
                    cut.count(len).max(1),
                    "{kernel:?} {len}: an empty message"
                );
                if len <= PIPE {
                    assert_eq!(cut.count(len), usize::from(len > 0), "{kernel:?} {len}");
                }
                if taper.is_none() {
                    assert_eq!(cut.count(len), len.div_ceil(PIPE), "{kernel:?} {len}");
                }
                let (mut end, mut prev) = (0, 0);
                for j in 0..cut.count(len) {
                    let at = cut.range(j, len);
                    assert!(
                        at.start == end && at.end > end,
                        "{kernel:?} {len}: {j} {at:?}"
                    );
                    let lands = alpha + secs(at.len(), net.bandwidth);
                    if j > 0 && taper.is_some() {
                        let done = secs(prev, work);
                        assert!(done <= lands, "{kernel:?} {len}: piece {j} lands first");
                    }
                    if j > 0 && taper.is_none() {
                        let folds = secs(prev, work);
                        assert!(folds >= lands, "{kernel:?} {len}: the fold waits");
                    }
                    (end, prev) = (at.end, at.len());
                }
                assert_eq!(end, len, "{kernel:?} {len}: the pieces cover the buffer");
            }
            assert_eq!(
                allocations(),
                before,
                "{kernel:?}: computing a piece allocates"
            );
        }
    }

    #[test]
    fn split_src_dst_handles_both_orders() {
        let mut buf: Vec<f32> = (0..10).map(|i| i as f32).collect();
        let (src, dst) = split_src_dst(&mut buf, 0..3, 5..10);
        assert_eq!(src, &[0.0, 1.0, 2.0]);
        assert_eq!(dst.len(), 5);
        dst[0] = 99.0;
        assert_eq!(buf[5], 99.0);
        let (src, dst) = split_src_dst(&mut buf, 7..10, 2..5);
        assert_eq!(src, &[7.0, 8.0, 9.0]);
        assert_eq!(dst.len(), 3);
    }

    #[test]
    #[should_panic(expected = "ranges overlap")]
    fn split_src_dst_rejects_overlap() {
        let mut buf = vec![0.0f32; 10];
        let _ = split_src_dst(&mut buf, 2..6, 4..8);
    }

    #[test]
    fn cursor_is_pod() {
        // A suspended stream must cost nothing to hold in a plan handle.
        assert!(std::mem::size_of::<StreamCursor>() <= 24);
    }
}
