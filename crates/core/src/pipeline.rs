//! The three sub-chunk pipeline engines (paper §III-A2/§III-E2, made
//! schedule-agnostic and resumable): [`HopCursor`] for the *computation*
//! framework, [`RelayCursor`] for the *data-movement* framework, and
//! [`ChainCursor`] for the raw intra-node legs of the laned hierarchical
//! allreduce.
//!
//! All three move one logical buffer in PIPE sub-chunks (5120 values by
//! default), all on **one tag matched FIFO** (so none needs per-chunk
//! sequence numbers), with every incoming sub-chunk receive posted up
//! front, sends queued and retired lazily, and only the residual tail
//! that could not be overlapped showing up as `Wait` time — the quantity
//! Fig. 9 shows shrinking by 73–80 %.
//!
//! **[`HopCursor`] — one hop between two ranks, re-encoded every hop.**
//!
//! * the sender compresses sub-chunk `j+1` while sub-chunk `j` is on the
//!   wire — the paper's "actively pull communication progress within the
//!   compression phase";
//! * the receiver drains arrived sub-chunks opportunistically and runs
//!   the **fused decompress-reduce kernel**
//!   (`Compressor::decompress_reduce_into`) straight into its
//!   accumulator range, so decoded values never take a detour through a
//!   scratch buffer;
//! * when the hop is the *first touch* of that accumulator range the
//!   caller passes `recv_from = Some(&input[range])` and every sub-chunk
//!   lands as `recv_dst = fold(recv_from, decoded)`
//!   (`Compressor::decompress_reduce_from`): the accumulator is born
//!   from the fold, never from a copy of the input. `send_buf` may just
//!   as well be a range of the caller's input — the cursor only reads it.
//!
//! A hop with an empty `send_buf` is receive-only and one with an empty
//! `recv_dst` send-only. `HopCursor::step(comm, cfg, op, send_buf, to,
//! recv_from, recv_dst, from, tag, bufs, block)` takes the
//! `PipelineConfig` itself:
//! sub-chunks are `cfg.chunk_values` values of SZx at `cfg.error_bound`
//! whatever the session codec is, and the cursor resets itself when the
//! hop is `Ready`. Drivers, all in [`crate::nonblocking`]: the
//! ring reduce-scatter round (`RingRs`), the Rabenseifner
//! recursive-halving phase plus its non-power-of-two fold (`Butterfly`),
//! and the binomial-tree rooted reduce (`TreeReduce`).
//!
//! **[`RelayCursor`] — one compress-once payload down a whole binomial
//! tree, never re-encoded.** The root encodes sub-chunk `j+1` while
//! sub-chunk `j` fans out to all its children; an interior rank relays
//! each arrival to its own children *before* decoding it, so the
//! subtree below never waits on this rank's decode; a leaf decodes as
//! chunks arrive. Encode ∥ relay ∥ decode: the root is
//! `max(encode, fan-out)`-bound instead of `encode + fan-out`-bound and
//! only the last sub-chunk's hops and decode stay exposed. Driver: the
//! compressed binomial broadcast (`nonblocking::Bcast`, also the leader
//! leg of the hierarchical broadcast).
//!
//! **[`ChainCursor`] — one raw buffer along a path of ranks, folded or
//! relayed at every member.** Toward the path's first member each rank
//! folds sub-chunk `j` from its upstream neighbour with its own input
//! and passes the fold on while `j + 1` is still arriving; away from it
//! each rank relays an arrival before landing it. A `g`-rank path costs
//! `g − 1` sub-chunk hops plus the stream behind the first, not
//! ⌈log₂g⌉ whole-vector hops with every fold on one root. Driver: the
//! group reduce and group fan-out of `nonblocking::HierAr`, where the
//! cost model prices the chain below the binomial tree.
//!
//! Every posted-receive boundary of any cursor is a suspension
//! point, so the nonblocking plan handles
//! (`start`/`progress`/`complete`) can hand control back to application
//! compute mid-stream and resume exactly where they left off;
//! `execute_into` is the same cursor stepped with `block = true`, which
//! never suspends.
//!
//! Buffer discipline: the engines own **no** buffers. Callers lend the
//! workspace's payload pool, codec scratch and request queues through
//! [`PipeBufs`] (`CollWorkspace::pipe` hands them out; the accumulator
//! is the machine's own business — usually the caller's output), which
//! keeps the zero-allocation steady state intact —
//! plans pre-size the pool for the worst number of concurrently
//! in-flight sub-chunk payloads.

use std::collections::VecDeque;
use std::ops::Range;
use std::time::Duration;

use bytes::Bytes;
use ccoll_comm::{Category, Comm, CommError, Kernel, PayloadPool, RecvReq, SendReq, Tag};
use ccoll_compress::{CodecScratch, SzxCodec};

use crate::collectives::cpr_p2p::CprCodec;
use crate::collectives::{compress_in, decompress_reduce_in};
use crate::frameworks::computation::PipelineConfig;
use crate::nonblocking::Poll;
use crate::placement::Link;
use crate::reduce::ReduceOp;

/// Most arrived sub-chunks a *nonblocking* drain consumes per call
/// (fuse-reduces in a hop, relays-and-decodes in a relay).
/// Without a budget one fat hop could decompress-and-reduce an
/// arbitrarily long backlog inside a single `progress()` call and
/// starve sibling operations sharing a progress engine; four sub-chunks
/// (~20k values at the default PIPE-SZx granularity) keeps per-call
/// compute bounded while still draining faster than the one-per-call
/// compression fills. Blocking drives ignore the budget, so blocking
/// results — and their wire traffic — are unchanged.
const NONBLOCKING_DRAIN_BUDGET: usize = 4;

/// The workspace buffers a cursor borrows: payload pool, codec
/// scratch and the two request queues. Grouped so hop signatures stay
/// readable.
pub(crate) struct PipeBufs<'a> {
    /// Payload pool for compressed sub-chunk buffers.
    pub pool: &'a mut PayloadPool,
    /// Codec scratch (both cursors decode in place; only a codec
    /// without a native slice decode detours through it).
    pub scratch: &'a mut CodecScratch,
    /// Outstanding sub-chunk sends, retired FIFO.
    pub sreqs: &'a mut VecDeque<SendReq>,
    /// Outstanding sub-chunk receives, drained FIFO.
    pub rreqs: &'a mut VecDeque<RecvReq>,
}

/// Split one buffer into a read-only `src` range and a mutable `dst`
/// range, which must be disjoint. This is what lets a pipelined hop
/// compress straight out of the accumulator while the drain reduces into
/// a different chunk of the same accumulator — the snapshot copy the
/// pre-engine implementation paid per round is gone.
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

/// Resumable state of one pipelined hop: how many sub-chunks have been
/// compressed-and-sent, how many arrived sub-chunks have been
/// fuse-reduced, and whether the receives are posted. The request
/// handles themselves live in the lent [`PipeBufs`] queues, so the
/// cursor is plain-old-data and a suspended hop costs nothing to hold.
///
/// [`HopCursor::step`] drives the hop: with `block = true` it runs to
/// completion in one call; with `block = false` it performs a bounded amount of
/// work — at most one sub-chunk compression plus whatever arrived input
/// can be drained without waiting — and returns [`Poll::Pending`] at the
/// first not-yet-ready receive or send. Resuming later continues the
/// identical sub-chunk sequence, so the results are bitwise independent
/// of where the hop suspended.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct HopCursor {
    /// Receives posted / counters reset for this hop.
    posted: bool,
    /// Next outgoing sub-chunk to compress-and-send.
    j: usize,
    /// Next incoming sub-chunk to fuse-reduce.
    next_in: usize,
}

impl HopCursor {
    /// A cursor at the start of a hop.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// FIFO drain of arrived sub-chunks: each one is decompressed and
    /// reduced into its slice of `recv_dst` through the fused kernel
    /// (seeded from the same slice of `recv_from` on a first touch).
    /// With `block = false` the drain stops at the first not-yet-arrived
    /// sub-chunk (the opportunistic poll between compressions); with
    /// `block = true` it waits out the tail. Returns whether every
    /// incoming sub-chunk has been consumed.
    #[allow(clippy::too_many_arguments)]
    fn drain<C: Comm>(
        &mut self,
        comm: &mut C,
        codec: &SzxCodec,
        pipe: usize,
        op: ReduceOp,
        recv_from: Option<&[f32]>,
        recv_dst: &mut [f32],
        rreqs: &mut VecDeque<RecvReq>,
        scratch: &mut CodecScratch,
        block: bool,
    ) -> bool {
        let n_in = recv_dst.len().div_ceil(pipe);
        let mut drained = 0;
        while self.next_in < n_in {
            if !block && drained == NONBLOCKING_DRAIN_BUDGET {
                // Budget exhausted: suspend with work still arrived so
                // the next progress call resumes the drain (bounded
                // compute per call; see the constant's docs).
                return false;
            }
            let Some(blob) = next_arrival(comm, rreqs, block) else {
                return false;
            };
            let lo = self.next_in * pipe;
            let hi = (lo + pipe).min(recv_dst.len());
            decompress_reduce_in(
                comm,
                codec,
                Kernel::SzxDecompress,
                &blob,
                op,
                recv_from.map(|src| &src[lo..hi]),
                &mut recv_dst[lo..hi],
                true,
                scratch,
            );
            self.next_in += 1;
            drained += 1;
        }
        true
    }

    /// Drive the hop. See the type docs for the `block` contract.
    ///
    /// `send_buf` may be empty (receive-only hop: the binomial-tree
    /// parent leg) and `recv_dst` may be empty (send-only hop: the child
    /// leg); both sides of a full-duplex exchange must agree on the
    /// sub-chunk size and the buffer lengths, as ring rounds and
    /// butterfly halving rounds guarantee through their shared
    /// partitions. `recv_from` is `Some` (and as long as `recv_dst`) when
    /// this hop is the first touch of `recv_dst`; it must be the same on
    /// every step of one hop. All sub-chunks travel on `tag`, each one
    /// `cfg.chunk_values` values encoded by SZx at `cfg.error_bound`
    /// (whatever the session codec is). On `Ready` the cursor has reset
    /// itself for the owner's next hop.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn step<C: Comm>(
        &mut self,
        comm: &mut C,
        cfg: PipelineConfig,
        op: ReduceOp,
        send_buf: &[f32],
        to: usize,
        recv_from: Option<&[f32]>,
        recv_dst: &mut [f32],
        from: usize,
        tag: Tag,
        bufs: &mut PipeBufs<'_>,
        block: bool,
    ) -> Poll {
        let codec = &SzxCodec::new(cfg.error_bound);
        let pipe = cfg.chunk_values;
        let n_out = send_buf.len().div_ceil(pipe);

        // Post all incoming sub-chunk receives up front (the paper's
        // early Irecv), matched FIFO on one tag. The request queues live
        // in the workspace and keep their capacity across rounds and
        // calls.
        if !self.posted {
            let n_in = recv_dst.len().div_ceil(pipe);
            bufs.rreqs.clear();
            bufs.rreqs.extend((0..n_in).map(|_| comm.irecv(from, tag)));
            bufs.sreqs.clear();
            self.posted = true;
        }

        // Compress-and-send loop with opportunistic draining between
        // sub-chunks (the PIPE-SZx progress poll). A nonblocking step
        // retires one sub-chunk per call so application compute between
        // `progress` calls stays interleaved at sub-chunk granularity.
        while self.j < n_out {
            let lo = self.j * pipe;
            let hi = (lo + pipe).min(send_buf.len());
            let blob = compress_in(
                comm,
                codec,
                Kernel::SzxCompress,
                &send_buf[lo..hi],
                true,
                bufs.pool,
            );
            bufs.sreqs.push_back(comm.isend(to, tag, blob));
            self.j += 1;
            comm.poll();
            self.drain(
                comm,
                codec,
                pipe,
                op,
                recv_from,
                recv_dst,
                bufs.rreqs,
                bufs.scratch,
                false,
            );
            if !block && self.j < n_out {
                return Poll::Pending;
            }
        }

        // Drain of whatever could not be overlapped (blocking only when
        // driven to completion).
        if !self.drain(
            comm,
            codec,
            pipe,
            op,
            recv_from,
            recv_dst,
            bufs.rreqs,
            bufs.scratch,
            block,
        ) {
            return Poll::Pending;
        }

        if !retire_sends(comm, bufs.sreqs, block) {
            return Poll::Pending;
        }
        *self = HopCursor::new();
        Poll::Ready
    }
}

/// Complete the front posted sub-chunk receive of `rreqs`: `None` when a
/// nonblocking caller finds it not yet arrived, or when a blocking wait
/// under an active fault policy exhausted its retry budget (the abort
/// reason is then parked on the profiler and the caller suspends).
/// Blocked time is the pipeline's exposed tail: `Category::Wait`.
fn next_arrival<C: Comm>(
    comm: &mut C,
    rreqs: &mut VecDeque<RecvReq>,
    block: bool,
) -> Option<Bytes> {
    let ready = rreqs.front().map(|r| comm.test_recv(r)).unwrap_or(false);
    if !ready && !block {
        return None;
    }
    let req = rreqs.pop_front().expect("outstanding receive");
    if !ready && comm.fault_policy().is_active() {
        // Fault-aware tail wait: bounded retry, then a clean suspend —
        // the caller's machine observes Pending with the abort reason
        // parked on the profiler.
        return match comm.wait_recv_retry_in(req, Category::Wait) {
            Ok(blob) => Some(blob),
            Err(err) => {
                comm.profiler().note_abort(err);
                None
            }
        };
    }
    Some(comm.wait_recv_in(req, Category::Wait))
}

/// Retire the outstanding sends FIFO: every one when `block`, else only
/// those whose payload has already left this rank. Returns whether the
/// queue is empty.
fn retire_sends<C: Comm>(comm: &mut C, sreqs: &mut VecDeque<SendReq>, block: bool) -> bool {
    while let Some(req) = sreqs.pop_front() {
        if block {
            comm.wait_send_in(req, Category::Wait);
        } else if let Err(req) = comm.try_send(req, Category::Wait) {
            sreqs.push_front(req);
            return false;
        }
    }
    true
}

/// Resumable state of one streamed compress-once broadcast down the
/// binomial tree rooted at `root`: whether the receives are posted and
/// how many sub-chunks this rank has finished (encoded-and-fanned-out at
/// the root, relayed-and-decoded everywhere else). Like [`HopCursor`]
/// it is plain-old-data — the request handles live in the lent
/// [`PipeBufs`] queues.
///
/// Each `pipe`-value sub-chunk is an independent stream of the codec,
/// so the sub-chunk count follows from `out.len()` alone (no size
/// exchange) and a payload of at most one sub-chunk is exactly one
/// whole-payload message. Two orderings carry the overlap:
///
/// * **relay before decode** — an interior rank hands an arrival to its
///   children first, so its subtree's wire time runs under its decode;
/// * **lazy send retirement** — sends are queued and retired only once
///   they have left (drained non-blockingly between sub-chunks, fully at
///   the end). Waiting out each `isend` before the next encode would
///   re-serialize encode and egress and forfeit the whole gain.
///
/// [`RelayCursor::step`] has [`HopCursor::step`]'s `block` contract: a
/// nonblocking step encodes at most one sub-chunk (root) or consumes at
/// most [`NONBLOCKING_DRAIN_BUDGET`] arrived ones, and the sub-chunk
/// sequence — hence the result and the bytes sent — is independent of
/// where it suspended.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct RelayCursor {
    /// Receives posted / queues reset for this broadcast.
    posted: bool,
    /// Next sub-chunk to encode (root) or relay-and-decode (others).
    j: usize,
}

impl RelayCursor {
    /// A cursor at the start of a broadcast.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Drive the broadcast of `out.len()` values, each sub-chunk
    /// encoded once by `cpr` (the codec of the machine's `Link::Once`).
    /// On the root an empty `data` means `out` already holds the source;
    /// otherwise `data` is the source and `out` receives its exact
    /// bits. Every other rank ignores `data` and decodes into `out`.
    /// All sub-chunks travel on `tag`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn step<C: Comm>(
        &mut self,
        comm: &mut C,
        cpr: &CprCodec,
        pipe: usize,
        root: usize,
        data: &[f32],
        out: &mut [f32],
        tag: Tag,
        bufs: &mut PipeBufs<'_>,
        block: bool,
    ) -> Poll {
        let n = comm.size();
        assert!(root < n, "root {root} out of range");
        let relative = (comm.rank() + n - root) % n;
        let is_root = relative == 0;
        // My parent bit (one past the tree's top bit at the root); my
        // children sit at `relative + m` for every power of two below.
        let span = if is_root {
            n.next_power_of_two()
        } else {
            1 << relative.trailing_zeros()
        };
        // Non-root only (the root's `relative - span` underflows).
        let parent = || (relative - span + root) % n;
        let chunks = Chunks::new(out.len(), pipe);

        if !self.posted {
            bufs.sreqs.clear();
            bufs.rreqs.clear();
            if is_root {
                assert!(
                    data.is_empty() || data.len() == out.len(),
                    "root data disagrees with plan length"
                );
            } else {
                // Early Irecv of the whole stream, matched FIFO.
                bufs.rreqs
                    .extend((0..chunks.count).map(|_| comm.irecv(parent(), tag)));
            }
            self.posted = true;
        }

        let mut consumed = 0;
        while self.j < chunks.count {
            let at = chunks.range(self.j);
            let blob = if is_root {
                if !data.is_empty() {
                    out[at.clone()].copy_from_slice(&data[at.clone()]);
                }
                compress_in(
                    comm,
                    cpr.codec.as_ref(),
                    cpr.ck,
                    &out[at.clone()],
                    true,
                    bufs.pool,
                )
            } else {
                if !block && consumed == NONBLOCKING_DRAIN_BUDGET {
                    return Poll::Pending;
                }
                match next_arrival(comm, bufs.rreqs, block) {
                    Some(blob) => blob,
                    None => return Poll::Pending,
                }
            };
            let mut m = span >> 1;
            while m > 0 {
                if relative + m < n {
                    let child = (relative + m + root) % n;
                    bufs.sreqs.push_back(comm.isend(child, tag, blob.clone()));
                }
                m >>= 1;
            }
            if !is_root
                && cpr
                    .try_decompress_once_to(comm, &blob, &mut out[at], bufs.scratch)
                    .is_err()
            {
                // Only a permanently lost sub-chunk can do this: the
                // FIFO stream closed up behind it and the short tail
                // landed in a full slot.
                abort_stream(comm, parent(), tag, "C-Bcast sub-chunk does not decode");
                return Poll::Pending;
            }
            self.j += 1;
            consumed += 1;
            if self.j < chunks.count {
                comm.poll();
                retire_sends(comm, bufs.sreqs, false);
                if !block && is_root {
                    return Poll::Pending;
                }
            }
        }

        finish(comm, bufs.sreqs, block)
    }
}

/// Resumable state of one raw buffer streamed along a *path* — member
/// `i` of the communicator next to `i ± 1` — in `pipe`-value sub-chunks,
/// all on one tag matched FIFO: the group legs of the laned hierarchical
/// allreduce. Like the other two cursors it is plain-old-data; the
/// request handles live in the lent [`PipeBufs`] queues.
///
/// * [`ChainCursor::fold`] runs toward member 0. The far end sends its
///   input's sub-chunks straight away; every other member folds each
///   arrival from `i + 1` into its accumulator — the first touch of that
///   range, `acc = fold(input, arrival)` — and passes the fold on to
///   `i − 1`. Member 0 ends with the reduction.
/// * [`ChainCursor::relay`] runs away from member 0. Member 0 sends its
///   buffer's sub-chunks straight away; every other member hands each
///   arrival on to `i + 1` *before* landing it.
///
/// Sub-chunk `j` crosses one hop while `j + 1` crosses the hop behind
/// it, so a `g`-member path costs `g − 1` sub-chunk hops plus the stream
/// behind the first — where a binomial tree costs ⌈log₂g⌉ whole-vector
/// hops and folds all of them at its root. Both have
/// [`HopCursor::step`]'s `block` contract: a nonblocking step consumes at
/// most [`NONBLOCKING_DRAIN_BUDGET`] arrivals (the source end packs its
/// whole stream in its first step: raw packing is uncharged), and the
/// sub-chunk sequence is independent of where it suspended. A sub-chunk
/// of the wrong length — only a permanently lost one ahead of it in the
/// FIFO can cause that — aborts like a starved receive.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct ChainCursor {
    /// Receives posted / queues reset for this stream.
    posted: bool,
    /// Next sub-chunk to fold or relay (all of them, once the source
    /// end has sent its stream).
    j: usize,
}

impl ChainCursor {
    /// A cursor at the start of a stream.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Reduce `input` across the path to member 0, whose `acc` holds the
    /// (unfinalized) result on `Ready`. Every member's `acc` is as long
    /// as `input`, its contents on entry do not matter, and it is
    /// unspecified afterwards anywhere but at member 0; the far end never
    /// touches its own.
    ///
    /// # Panics
    /// Panics on a path of one member (there is nothing to stream).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn fold<C: Comm>(
        &mut self,
        comm: &mut C,
        pipe: usize,
        op: ReduceOp,
        input: &[f32],
        acc: &mut [f32],
        tag: Tag,
        bufs: &mut PipeBufs<'_>,
        block: bool,
    ) -> Poll {
        let (me, n) = (comm.rank(), comm.size());
        assert!(n > 1, "a chain needs two members");
        let chunks = Chunks::new(input.len(), pipe);
        let far_end = me + 1 == n;
        self.post(comm, (!far_end).then_some(me + 1), chunks.count, tag, bufs);
        if far_end {
            self.send_all(comm, input, me - 1, chunks, tag, bufs);
        }
        let mut consumed = 0;
        while self.j < chunks.count {
            if !block && consumed == NONBLOCKING_DRAIN_BUDGET {
                return Poll::Pending;
            }
            let at = chunks.range(self.j);
            let Some(got) = arrival(comm, me + 1, tag, at.len(), bufs.rreqs, block) else {
                return Poll::Pending;
            };
            let (from, dst) = (Some(&input[at.clone()]), &mut acc[at.clone()]);
            Link::Raw.reduce(comm, &got, op, from, dst, bufs.scratch, "chain fold");
            if me > 0 {
                let payload = Link::Raw.pack(comm, &acc[at], bufs.pool);
                bufs.sreqs.push_back(comm.isend(me - 1, tag, payload));
            }
            self.j += 1;
            consumed += 1;
            comm.poll();
            retire_sends(comm, bufs.sreqs, false);
        }
        finish(comm, bufs.sreqs, block)
    }

    /// Broadcast member 0's `out` along the path into every other
    /// member's `out`.
    ///
    /// # Panics
    /// Panics on a path of one member (there is nothing to stream).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn relay<C: Comm>(
        &mut self,
        comm: &mut C,
        pipe: usize,
        out: &mut [f32],
        tag: Tag,
        bufs: &mut PipeBufs<'_>,
        block: bool,
    ) -> Poll {
        let (me, n) = (comm.rank(), comm.size());
        assert!(n > 1, "a chain needs two members");
        let chunks = Chunks::new(out.len(), pipe);
        self.post(comm, me.checked_sub(1), chunks.count, tag, bufs);
        if me == 0 {
            self.send_all(comm, out, 1, chunks, tag, bufs);
        }
        let mut consumed = 0;
        while self.j < chunks.count {
            if !block && consumed == NONBLOCKING_DRAIN_BUDGET {
                return Poll::Pending;
            }
            let at = chunks.range(self.j);
            let Some(got) = arrival(comm, me - 1, tag, at.len(), bufs.rreqs, block) else {
                return Poll::Pending;
            };
            if me + 1 < n {
                bufs.sreqs.push_back(comm.isend(me + 1, tag, got.clone()));
            }
            Link::Raw.land(comm, &got, &mut out[at], bufs.scratch);
            self.j += 1;
            consumed += 1;
            comm.poll();
            retire_sends(comm, bufs.sreqs, false);
        }
        finish(comm, bufs.sreqs, block)
    }

    /// First step only: reset the queues and post every sub-chunk
    /// receive from `src` up front (none at the source end).
    fn post<C: Comm>(
        &mut self,
        comm: &mut C,
        src: Option<usize>,
        count: usize,
        tag: Tag,
        bufs: &mut PipeBufs<'_>,
    ) {
        if self.posted {
            return;
        }
        bufs.sreqs.clear();
        bufs.rreqs.clear();
        if let Some(src) = src {
            bufs.rreqs.extend((0..count).map(|_| comm.irecv(src, tag)));
        }
        self.posted = true;
    }

    /// The source end's whole stream: every sub-chunk of `vals` packed
    /// and sent to `to`, once.
    fn send_all<C: Comm>(
        &mut self,
        comm: &mut C,
        vals: &[f32],
        to: usize,
        chunks: Chunks,
        tag: Tag,
        bufs: &mut PipeBufs<'_>,
    ) {
        while self.j < chunks.count {
            let payload = Link::Raw.pack(comm, &vals[chunks.range(self.j)], bufs.pool);
            bufs.sreqs.push_back(comm.isend(to, tag, payload));
            self.j += 1;
        }
    }
}

/// The `pipe`-value sub-chunks of a `len`-value buffer (an empty buffer
/// still travels, as one empty sub-chunk).
#[derive(Debug, Clone, Copy)]
struct Chunks {
    len: usize,
    pipe: usize,
    count: usize,
}

impl Chunks {
    fn new(len: usize, pipe: usize) -> Self {
        let count = len.div_ceil(pipe).max(1);
        Chunks { len, pipe, count }
    }

    fn range(&self, j: usize) -> Range<usize> {
        let lo = j * self.pipe;
        lo..(lo + self.pipe).min(self.len)
    }
}

/// [`next_arrival`] for a raw stream from `src` whose next sub-chunk
/// holds `len` values. A payload of another length aborts (noted on the
/// profiler, `None`): only a permanently lost sub-chunk — the FIFO
/// stream closing up behind it — lands a short tail in a full slot.
fn arrival<C: Comm>(
    comm: &mut C,
    src: usize,
    tag: Tag,
    len: usize,
    rreqs: &mut VecDeque<RecvReq>,
    block: bool,
) -> Option<Bytes> {
    let got = next_arrival(comm, rreqs, block)?;
    if got.len() == 4 * len {
        return Some(got);
    }
    abort_stream(comm, src, tag, "chain sub-chunk does not fill its slot");
    None
}

/// Abort a stream from `src` whose next sub-chunk does not fit its slot,
/// as its starved tail receive would have (noted on the profiler; the
/// caller suspends). `what` names the broken condition — without an
/// active fault policy no sub-chunk can go missing, so it is a bug.
fn abort_stream<C: Comm>(comm: &mut C, src: usize, tag: Tag, what: &str) {
    assert!(comm.fault_policy().is_active(), "{what} without a fault");
    comm.profiler().note_abort(CommError::Timeout {
        src,
        tag,
        waited: Duration::ZERO,
    });
}

/// Retire a stream's sends: `Ready` once all have left.
fn finish<C: Comm>(comm: &mut C, sreqs: &mut VecDeque<SendReq>, block: bool) -> Poll {
    if retire_sends(comm, sreqs, block) {
        Poll::Ready
    } else {
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // A suspended hop must cost nothing to hold in a plan handle.
        assert!(std::mem::size_of::<HopCursor>() <= 24);
        assert!(std::mem::size_of::<RelayCursor>() <= 16);
        assert!(std::mem::size_of::<ChainCursor>() <= 16);
    }
}
