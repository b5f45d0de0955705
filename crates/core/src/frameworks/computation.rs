//! The collective computation framework (paper §III-A2, §III-E2).
//!
//! Reduce-scatter rounds *modify* the data (each hop reduces the received
//! chunk into its accumulator), so the compress-once trick of the
//! data-movement framework does not apply. Instead, C-Coll hides the
//! communication inside the compression and decompression kernels:
//!
//! * the outgoing chunk is compressed **in PIPE-SZx sub-chunks** (5120
//!   values by default); each sub-chunk is handed to the network the
//!   moment it is encoded, so the transfer of sub-chunk `j` overlaps the
//!   compression of sub-chunk `j+1` — this is the paper's "actively pull
//!   communication progress within the compression phase" realized in
//!   message-passing form;
//! * between sub-chunk compressions the receiver side is drained
//!   opportunistically (`test_recv` — the paper's progress poll): arrived
//!   sub-chunks are decompressed and reduced while later sub-chunks are
//!   still being compressed, overlapping decompression with the tail of
//!   the incoming transfer;
//! * only the residual tail that could not be overlapped shows up as
//!   `Wait` time — which is exactly the quantity Fig. 9 shows shrinking
//!   by 73–80 %.
//!
//! Since PR 4 the sub-chunk machinery lives in the schedule-agnostic
//! `crate::pipeline` engine, and this module drives it from
//! **every** computation schedule, not just the ring: the Rabenseifner
//! recursive-halving phase ([`c_rabenseifner_allreduce_into`]) and the
//! binomial-tree rooted reduce ([`c_binomial_reduce_into`]) stream their
//! hops through the same engine, with fused decompress-reduce kernels on
//! every receive path.

use ccoll_comm::{Category, Comm, Tag};
use ccoll_compress::SzxCodec;

use crate::collectives::cpr_p2p::CprCodec;
use crate::collectives::{baseline, memcpy_in, tags};
use crate::partition::chunk_lengths;
use crate::pipeline::{hop_exchange, hop_recv_reduce, hop_send, split_src_dst, PipeBufs};
use crate::reduce::ReduceOp;
use crate::workspace::CollWorkspace;

/// Default pipeline sub-chunk in values (the paper's 5120 data points) —
/// the same unit the cost model prices streamed schedules in.
pub const DEFAULT_PIPE_VALUES: usize = ccoll_comm::PIPE_CHUNK_BYTES / 4;

/// Configuration of the pipelined computation framework.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Absolute error bound for the per-sub-chunk SZx compression.
    pub error_bound: f32,
    /// Sub-chunk size in values.
    pub chunk_values: usize,
}

impl PipelineConfig {
    /// Config with the paper's 5120-value sub-chunks.
    pub fn new(error_bound: f32) -> Self {
        PipelineConfig {
            error_bound,
            chunk_values: DEFAULT_PIPE_VALUES,
        }
    }

    /// Override the sub-chunk size (used by the chunk-size ablation).
    pub fn with_chunk_values(mut self, chunk_values: usize) -> Self {
        assert!(chunk_values > 0, "sub-chunk size must be positive");
        self.chunk_values = chunk_values;
        self
    }
}

/// C-Reduce-scatter: ring reduce-scatter with pipelined SZx compression
/// overlapping communication (the "Overlap" variant of Table V). Rank
/// `r` returns the fully reduced chunk `r` (with `Avg` finalization).
pub fn c_ring_reduce_scatter<C: Comm>(
    comm: &mut C,
    cfg: PipelineConfig,
    input: &[f32],
    op: ReduceOp,
) -> Vec<f32> {
    let lengths = chunk_lengths(input.len(), comm.size());
    let mut out = vec![0.0f32; lengths[comm.rank()]];
    let mut ws = CollWorkspace::with_value_capacity(cfg.chunk_values.min(input.len().max(1)));
    c_ring_reduce_scatter_into(comm, cfg, input, op, &mut out, &mut ws);
    out
}

/// [`c_ring_reduce_scatter`] writing rank `r`'s reduced chunk into a
/// caller-provided buffer through a reusable workspace: the
/// persistent-plan fast path (zero steady-state allocations).
///
/// # Panics
/// Panics if `out.len()` differs from this rank's chunk length.
pub fn c_ring_reduce_scatter_into<C: Comm>(
    comm: &mut C,
    cfg: PipelineConfig,
    input: &[f32],
    op: ReduceOp,
    out: &mut [f32],
    ws: &mut CollWorkspace,
) {
    let n = comm.size();
    let me = comm.rank();
    let codec = SzxCodec::new(cfg.error_bound);
    let pipe = cfg.chunk_values;
    ws.set_partition(input.len(), n);
    ws.acc.resize(input.len(), 0.0);
    let CollWorkspace {
        pool,
        scratch,
        acc,
        counts,
        offsets,
        sreqs,
        rreqs,
        ..
    } = ws;
    assert_eq!(out.len(), counts[me], "output must hold my chunk");
    memcpy_in(comm, acc, input);

    if n > 1 {
        let right = (me + 1) % n;
        let left = (me + n - 1) % n;
        let mut bufs = PipeBufs {
            pool,
            scratch,
            sreqs,
            rreqs,
        };
        for k in 0..n - 1 {
            let send_idx = (me + 2 * n - k - 1) % n;
            let recv_idx = (me + 2 * n - k - 2) % n;
            let tag = tags::PIPELINE + k as Tag;
            // Send and receive chunks are disjoint ranges of the
            // accumulator, so the hop compresses straight out of it
            // while the drain fuse-reduces into it — no snapshot copy.
            let (send_buf, recv_dst) = split_src_dst(
                acc,
                offsets[send_idx]..offsets[send_idx] + counts[send_idx],
                offsets[recv_idx]..offsets[recv_idx] + counts[recv_idx],
            );
            hop_exchange(
                comm, &codec, pipe, op, send_buf, right, recv_dst, left, tag, &mut bufs,
            );
        }
    }
    out.copy_from_slice(&acc[offsets[me]..offsets[me] + counts[me]]);
    op.finalize(out, n);
}

/// The non-pipelined ("ND") reduce-scatter round structure: monolithic
/// compress → exchange → decompress → reduce, but — unlike CPR-P2P — it
/// is exposed here so the step-wise benchmarks can isolate the pipeline's
/// contribution (ND vs Overlap, paper Fig. 9).
pub fn nd_ring_reduce_scatter<C: Comm>(
    comm: &mut C,
    cpr: &CprCodec,
    input: &[f32],
    op: ReduceOp,
) -> Vec<f32> {
    crate::collectives::cpr_p2p::cpr_ring_reduce_scatter(comm, cpr, input, op)
}

/// C-Allreduce: pipelined C-Reduce-scatter followed by C-Allgather on the
/// reduced chunks — the composition the paper evaluates end to end.
pub fn c_ring_allreduce<C: Comm>(
    comm: &mut C,
    cfg: PipelineConfig,
    cpr: &CprCodec,
    input: &[f32],
    op: ReduceOp,
) -> Vec<f32> {
    let mut out = vec![0.0f32; input.len()];
    let mut ws = CollWorkspace::with_value_capacity(cfg.chunk_values.min(input.len().max(1)));
    c_ring_allreduce_into(comm, cfg, cpr, input, op, &mut out, &mut ws);
    out
}

/// [`c_ring_allreduce`] writing into a caller-provided buffer through a
/// reusable workspace: the persistent-plan fast path (zero steady-state
/// allocations from the codec through the collective schedule).
///
/// # Panics
/// Panics if `out.len() != input.len()`.
pub fn c_ring_allreduce_into<C: Comm>(
    comm: &mut C,
    cfg: PipelineConfig,
    cpr: &CprCodec,
    input: &[f32],
    op: ReduceOp,
    out: &mut [f32],
    ws: &mut CollWorkspace,
) {
    let n = comm.size();
    let me = comm.rank();
    assert_eq!(out.len(), input.len(), "output buffer size mismatch");
    // The reduce-scatter stage caches the same partition the allgather
    // stage reads back out of the workspace.
    ws.set_partition(input.len(), n);
    let (at, len) = (ws.offsets[me], ws.counts[me]);
    c_ring_reduce_scatter_into(comm, cfg, input, op, &mut out[at..at + len], ws);
    crate::frameworks::data_movement::c_ring_allgather_core(comm, cpr, None, out, ws, true);
}

/// Pipelined Rabenseifner allreduce: the recursive-halving
/// reduce-scatter phase (and the non-power-of-two fold) streams every
/// hop through the sub-chunk pipeline engine — compress overlaps
/// transfer, and arriving sub-chunks are fuse-reduced while later ones
/// are in flight — while the recursive-doubling allgather phase keeps
/// its monolithic per-hop compression (it only *moves* finalized
/// ranges). Ring-equivalent bytes at tree latency, now with the ring's
/// compression/transfer overlap on the halving half.
///
/// As with the ring schedule, the pipeline runs SZx at the session's
/// error bound; the monolithic phases use the session codec `cpr`.
pub fn c_rabenseifner_allreduce_into<C: Comm>(
    comm: &mut C,
    cfg: PipelineConfig,
    cpr: &CprCodec,
    input: &[f32],
    op: ReduceOp,
    out: &mut [f32],
    ws: &mut CollWorkspace,
) {
    rabenseifner_allreduce_core(comm, cpr, Some(cfg), input, op, out, ws);
}

/// The shared Rabenseifner skeleton: one copy of the butterfly
/// fold/halving/doubling/unfold index math, parameterized over how the
/// *reducing* legs (fold + recursive halving) move data — through the
/// sub-chunk pipeline engine (`pipe_cfg = Some`, the C-Coll schedule)
/// or monolithically per hop (`None`, the CPR-P2P baseline, which also
/// keeps CPR's per-call buffer-management charges). The allgather and
/// unfold legs are identical in both modes: finalized data moves, it is
/// not recombined.
pub(crate) fn rabenseifner_allreduce_core<C: Comm>(
    comm: &mut C,
    cpr: &CprCodec,
    pipe_cfg: Option<PipelineConfig>,
    input: &[f32],
    op: ReduceOp,
    out: &mut [f32],
    ws: &mut CollWorkspace,
) {
    let n = comm.size();
    let me = comm.rank();
    assert_eq!(out.len(), input.len(), "output buffer size mismatch");
    let pipeline = pipe_cfg.map(|cfg| (SzxCodec::new(cfg.error_bound), cfg.chunk_values));
    let (pow2, rem) = baseline::butterfly_fold(n);
    ws.set_partition(input.len(), pow2);
    ws.acc.resize(input.len(), 0.0);
    let CollWorkspace {
        pool,
        scratch,
        acc,
        counts,
        offsets,
        sreqs,
        rreqs,
        ..
    } = ws;
    memcpy_in(comm, acc, input);
    // Distinct tag spaces preserve the pre-refactor wire layout: 0x800
    // for the CPR-P2P baseline, 0xC00 for the pipelined schedule.
    let tag = tags::RABENSEIFNER + if pipeline.is_some() { 0xC00 } else { 0x800 };
    let len = input.len();
    let range = |lo: usize, hi: usize| -> (usize, usize) {
        (offsets[lo], offsets[hi - 1] + counts[hi - 1])
    };

    // Fold (non-power-of-two): the contributing even rank ships its
    // whole buffer (streamed through the pipeline when enabled); the
    // surviving odd rank fuse-reduces what arrives.
    let my_pos: Option<usize> = if me < 2 * rem {
        if me.is_multiple_of(2) {
            match &pipeline {
                Some((codec, pipe)) => {
                    let mut bufs = PipeBufs {
                        pool: &mut *pool,
                        scratch: &mut *scratch,
                        sreqs: &mut *sreqs,
                        rreqs: &mut *rreqs,
                    };
                    hop_send(comm, codec, *pipe, acc, me + 1, tag, &mut bufs);
                }
                None => {
                    let payload = cpr.compress(comm, acc, pool);
                    let req = comm.isend(me + 1, tag, payload);
                    comm.wait_send_in(req, Category::Wait);
                }
            }
            None
        } else {
            match &pipeline {
                Some((codec, pipe)) => {
                    let mut bufs = PipeBufs {
                        pool: &mut *pool,
                        scratch: &mut *scratch,
                        sreqs: &mut *sreqs,
                        rreqs: &mut *rreqs,
                    };
                    hop_recv_reduce(comm, codec, *pipe, op, acc, me - 1, tag, &mut bufs);
                }
                None => {
                    let got = comm.recv(me - 1, tag);
                    cpr.decompress_reduce(comm, &got, op, acc, scratch);
                }
            }
            Some(me / 2)
        }
    } else {
        Some(me - rem)
    };

    if let Some(pos) = my_pos {
        // Recursive-halving reduce-scatter: each round exchanges one
        // half. Send and keep halves are disjoint ranges of the
        // accumulator, so the pipelined hop borrows them apart and
        // fuses the reduction into the keep half with zero staging
        // copies; the monolithic hop compresses the send half per hop.
        let (mut lo, mut hi) = (0usize, pow2);
        let mut mask = pow2 / 2;
        let mut round: Tag = 1;
        while mask >= 1 {
            let peer = baseline::butterfly_pos_to_rank(pos ^ mask, rem);
            let mid = lo + (hi - lo) / 2;
            let (keep_lo, keep_hi, send_lo, send_hi) = if pos & mask == 0 {
                (lo, mid, mid, hi)
            } else {
                (mid, hi, lo, mid)
            };
            let (sb, se) = range(send_lo, send_hi);
            let (kb, ke) = range(keep_lo, keep_hi);
            match &pipeline {
                Some((codec, pipe)) => {
                    let (send_buf, recv_dst) = split_src_dst(acc, sb..se, kb..ke);
                    let mut bufs = PipeBufs {
                        pool: &mut *pool,
                        scratch: &mut *scratch,
                        sreqs: &mut *sreqs,
                        rreqs: &mut *rreqs,
                    };
                    hop_exchange(
                        comm,
                        codec,
                        *pipe,
                        op,
                        send_buf,
                        peer,
                        recv_dst,
                        peer,
                        tag + round,
                        &mut bufs,
                    );
                }
                None => {
                    let payload = cpr.compress(comm, &acc[sb..se], pool);
                    let got = comm.sendrecv(peer, peer, tag + round, payload, Category::Wait);
                    cpr.decompress_reduce(comm, &got, op, &mut acc[kb..ke], scratch);
                }
            }
            lo = keep_lo;
            hi = keep_hi;
            mask /= 2;
            round += 1;
        }

        // Recursive-doubling allgather over compressed ranges
        // (monolithic in both modes: finalized data moves).
        let mut mask = 1usize;
        let mut round: Tag = 0x100;
        while mask < pow2 {
            let peer = baseline::butterfly_pos_to_rank(pos ^ mask, rem);
            let base = pos & !(2 * mask - 1);
            let (cur_lo, cur_hi, peer_lo, peer_hi) = if pos & mask == 0 {
                (base, base + mask, base + mask, base + 2 * mask)
            } else {
                (base + mask, base + 2 * mask, base, base + mask)
            };
            let (sb, se) = range(cur_lo, cur_hi);
            let (pb, pe) = range(peer_lo, peer_hi);
            let payload = cpr.compress(comm, &acc[sb..se], pool);
            let got = comm.sendrecv(peer, peer, tag + round, payload, Category::Wait);
            let vals = cpr.decompress(comm, &got, pe - pb, scratch);
            memcpy_in(comm, &mut acc[pb..pe], vals);
            mask <<= 1;
            round += 1;
        }
    }

    // Unfold: ship the final buffer back to the folded-away rank
    // (pure data movement, one compression).
    if me < 2 * rem {
        if me % 2 == 1 {
            let payload = cpr.compress(comm, acc, pool);
            let req = comm.isend(me - 1, tag + 999, payload);
            comm.wait_send_in(req, Category::Wait);
        } else {
            let got = comm.recv(me + 1, tag + 999);
            let vals = cpr.decompress(comm, &got, len, scratch);
            memcpy_in(comm, acc, vals);
        }
    }
    memcpy_in(comm, out, acc);
    op.finalize(out, n);
}

/// Pipelined binomial-tree rooted reduce: each child streams its
/// accumulated subtree to its parent in sub-chunks (compression overlaps
/// the transfer), and the parent fuse-reduces arriving sub-chunks into
/// its accumulator while later ones are still being compressed and
/// shipped. The tree shape and error accumulation (≤ `⌈log₂n⌉` bounded
/// errors on the root's path) match the monolithic
/// [`cpr_binomial_reduce_into`](crate::collectives::cpr_p2p::cpr_binomial_reduce_into).
/// Returns `true` on the root, `false` elsewhere.
pub fn c_binomial_reduce_into<C: Comm>(
    comm: &mut C,
    cfg: PipelineConfig,
    root: usize,
    input: &[f32],
    op: ReduceOp,
    out: &mut [f32],
    ws: &mut CollWorkspace,
) -> bool {
    let n = comm.size();
    let me = comm.rank();
    assert!(root < n, "root {root} out of range");
    let codec = SzxCodec::new(cfg.error_bound);
    let pipe = cfg.chunk_values;
    ws.acc.resize(input.len(), 0.0);
    let CollWorkspace {
        pool,
        scratch,
        acc,
        sreqs,
        rreqs,
        ..
    } = ws;
    memcpy_in(comm, acc, input);
    let relative = (me + n - root) % n;
    let tag = tags::TREE_REDUCE + 0xC00;
    let mut mask = 1usize;
    while mask < n {
        if relative & mask != 0 {
            let parent = (relative - mask + root) % n;
            let mut bufs = PipeBufs {
                pool,
                scratch,
                sreqs,
                rreqs,
            };
            hop_send(comm, &codec, pipe, acc, parent, tag, &mut bufs);
            return false;
        }
        let child_rel = relative + mask;
        if child_rel < n {
            let child = (child_rel + root) % n;
            let mut bufs = PipeBufs {
                pool: &mut *pool,
                scratch: &mut *scratch,
                sreqs: &mut *sreqs,
                rreqs: &mut *rreqs,
            };
            hop_recv_reduce(comm, &codec, pipe, op, acc, child, tag, &mut bufs);
        }
        mask <<= 1;
    }
    assert_eq!(out.len(), input.len(), "root output must hold the result");
    memcpy_in(comm, out, acc);
    op.finalize(out, n);
    true
}

/// Error budget of a C-Allreduce sum result, per the paper's theory: one
/// compression error per contributing rank accumulated through the
/// reduction (worst case `(n−1)·eb`), plus one more from the allgather
/// stage. The *probabilistic* bound is far tighter (see
/// [`crate::theory`]); this deterministic envelope is what tests assert.
pub fn allreduce_worst_case_error(n: usize, eb: f32) -> f32 {
    (n as f32) * eb
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::chunk_offsets;
    use ccoll_comm::{Kernel, SimConfig, SimWorld, ThreadWorld};
    use ccoll_compress::SzxCodec;
    use std::sync::Arc;

    fn szx(eb: f32) -> CprCodec {
        CprCodec::new(
            Arc::new(SzxCodec::new(eb)),
            Kernel::SzxCompress,
            Kernel::SzxDecompress,
        )
    }

    fn rank_data(rank: usize, len: usize) -> Vec<f32> {
        (0..len)
            .map(|i| ((i * 7 + rank * 131) as f32 * 1e-3).sin() * 2.0)
            .collect()
    }

    #[test]
    fn pipelined_reduce_scatter_accuracy() {
        let n = 6;
        let len = 30_000; // several sub-chunks per round with pipe=5120
        let eb = 1e-3f32;
        let world = SimWorld::new(SimConfig::new(n));
        let cfg = PipelineConfig::new(eb);
        let out = world
            .run(move |c| c_ring_reduce_scatter(c, cfg, &rank_data(c.rank(), len), ReduceOp::Sum));
        let inputs: Vec<Vec<f32>> = (0..n).map(|r| rank_data(r, len)).collect();
        let full = ReduceOp::Sum.oracle(&inputs);
        let lengths = chunk_lengths(len, n);
        let offsets = chunk_offsets(&lengths);
        let tol = allreduce_worst_case_error(n, eb);
        for r in 0..n {
            let expect = &full[offsets[r]..offsets[r] + lengths[r]];
            for (a, b) in out.results[r].iter().zip(expect) {
                assert!((a - b).abs() <= tol, "rank {r}: {a} vs {b} (tol {tol})");
            }
        }
    }

    #[test]
    fn all_ops_supported() {
        let n = 4;
        let len = 8000;
        for op in ReduceOp::ALL {
            let world = SimWorld::new(SimConfig::new(n));
            let cfg = PipelineConfig::new(1e-4);
            let out =
                world.run(move |c| c_ring_reduce_scatter(c, cfg, &rank_data(c.rank(), len), op));
            let inputs: Vec<Vec<f32>> = (0..n).map(|r| rank_data(r, len)).collect();
            let full = op.oracle(&inputs);
            let lengths = chunk_lengths(len, n);
            let offsets = chunk_offsets(&lengths);
            for r in 0..n {
                let expect = &full[offsets[r]..offsets[r] + lengths[r]];
                for (a, b) in out.results[r].iter().zip(expect) {
                    assert!((a - b).abs() <= 1e-3, "{op:?} rank {r}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn tiny_inputs_and_small_chunks() {
        // Inputs smaller than one sub-chunk, and sub-chunks of one value.
        for (len, chunk) in [(5usize, 5120usize), (64, 7), (3, 1)] {
            let n = 3;
            let world = SimWorld::new(SimConfig::new(n));
            let cfg = PipelineConfig::new(1e-4).with_chunk_values(chunk);
            let out = world.run(move |c| {
                c_ring_reduce_scatter(c, cfg, &rank_data(c.rank(), len), ReduceOp::Sum)
            });
            let inputs: Vec<Vec<f32>> = (0..n).map(|r| rank_data(r, len)).collect();
            let full = ReduceOp::Sum.oracle(&inputs);
            let lengths = chunk_lengths(len, n);
            let offsets = chunk_offsets(&lengths);
            for r in 0..n {
                let expect = &full[offsets[r]..offsets[r] + lengths[r]];
                for (a, b) in out.results[r].iter().zip(expect) {
                    assert!((a - b).abs() <= 1e-3, "len={len} chunk={chunk} rank {r}");
                }
            }
        }
    }

    #[test]
    fn c_allreduce_end_to_end() {
        let n = 5;
        let len = 20_000;
        let eb = 1e-3f32;
        let world = SimWorld::new(SimConfig::new(n));
        let cfg = PipelineConfig::new(eb);
        let cpr = szx(eb);
        let out = world
            .run(move |c| c_ring_allreduce(c, cfg, &cpr, &rank_data(c.rank(), len), ReduceOp::Sum));
        let inputs: Vec<Vec<f32>> = (0..n).map(|r| rank_data(r, len)).collect();
        let expect = ReduceOp::Sum.oracle(&inputs);
        let tol = allreduce_worst_case_error(n + 1, eb);
        for r in 0..n {
            for (a, b) in out.results[r].iter().zip(&expect) {
                assert!((a - b).abs() <= tol, "rank {r}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn overlap_reduces_wait_vs_nd() {
        // The Fig. 9 property: with pipelined sub-chunk sends, the Wait
        // share of the reduce-scatter shrinks substantially vs the
        // monolithic (ND) schedule on the same virtual cluster.
        let n = 8;
        let len = 400_000;
        let eb = 1e-3f32;

        let world = SimWorld::new(SimConfig::new(n));
        let cpr = szx(eb);
        let nd = world.run(move |c| {
            nd_ring_reduce_scatter(c, &cpr, &rank_data(c.rank(), len), ReduceOp::Sum);
        });
        let nd_wait = nd.max_breakdown().get(Category::Wait);

        let world = SimWorld::new(SimConfig::new(n));
        let cfg = PipelineConfig::new(eb);
        let ov = world.run(move |c| {
            c_ring_reduce_scatter(c, cfg, &rank_data(c.rank(), len), ReduceOp::Sum);
        });
        let ov_wait = ov.max_breakdown().get(Category::Wait);

        assert!(
            ov_wait < nd_wait,
            "pipelined wait {ov_wait:?} should undercut monolithic wait {nd_wait:?}"
        );
    }

    #[test]
    fn pipelined_rabenseifner_within_envelope_all_worlds() {
        // Powers of two and non-powers (which exercise the pipelined
        // fold/unfold legs).
        for n in [2usize, 4, 6, 9] {
            let len = 20_000;
            let eb = 1e-3f32;
            let world = SimWorld::new(SimConfig::new(n));
            let cfg = PipelineConfig::new(eb);
            let cpr = szx(eb);
            let out = world.run(move |c| {
                let mut out = vec![0.0f32; len];
                let mut ws = CollWorkspace::new();
                c_rabenseifner_allreduce_into(
                    c,
                    cfg,
                    &cpr,
                    &rank_data(c.rank(), len),
                    ReduceOp::Sum,
                    &mut out,
                    &mut ws,
                );
                out
            });
            let inputs: Vec<Vec<f32>> = (0..n).map(|r| rank_data(r, len)).collect();
            let expect = ReduceOp::Sum.oracle(&inputs);
            let tol = 4.0 * (n as f32) * eb;
            for r in 0..n {
                for (a, b) in out.results[r].iter().zip(&expect) {
                    assert!((a - b).abs() <= tol, "n={n} rank {r}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn pipelined_binomial_reduce_within_envelope_all_roots() {
        let n = 7;
        let len = 17_000;
        let eb = 1e-3f32;
        for root in [0usize, 3, 6] {
            let world = SimWorld::new(SimConfig::new(n));
            let cfg = PipelineConfig::new(eb);
            let out = world.run(move |c| {
                let me = c.rank();
                let mut out = vec![0.0f32; if me == root { len } else { 0 }];
                let mut ws = CollWorkspace::new();
                c_binomial_reduce_into(
                    c,
                    cfg,
                    root,
                    &rank_data(me, len),
                    ReduceOp::Sum,
                    &mut out,
                    &mut ws,
                )
                .then_some(out)
            });
            let inputs: Vec<Vec<f32>> = (0..n).map(|r| rank_data(r, len)).collect();
            let expect = ReduceOp::Sum.oracle(&inputs);
            let tol = 4.0 * (n as f32) * eb;
            for (r, res) in out.results.iter().enumerate() {
                if r == root {
                    for (a, b) in res.as_ref().unwrap().iter().zip(&expect) {
                        assert!((a - b).abs() <= tol, "root {root}: {a} vs {b}");
                    }
                } else {
                    assert!(res.is_none(), "non-root {r} must return None");
                }
            }
        }
    }

    #[test]
    fn pipelined_rabenseifner_reduces_wait_vs_monolithic() {
        // The Fig. 9 property extended to the halving phase: streaming
        // each round in sub-chunks must undercut the monolithic CPR
        // butterfly's Wait share on the same virtual cluster.
        let n = 8;
        let len = 400_000;
        let eb = 1e-3f32;

        let world = SimWorld::new(SimConfig::new(n));
        let cpr = szx(eb);
        let mono = world.run(move |c| {
            crate::collectives::cpr_p2p::cpr_rabenseifner_allreduce(
                c,
                &cpr,
                &rank_data(c.rank(), len),
                ReduceOp::Sum,
            );
        });
        let mono_wait = mono.max_breakdown().get(Category::Wait);

        let world = SimWorld::new(SimConfig::new(n));
        let cfg = PipelineConfig::new(eb);
        let cpr = szx(eb);
        let piped = world.run(move |c| {
            let mut out = vec![0.0f32; len];
            let mut ws = CollWorkspace::new();
            c_rabenseifner_allreduce_into(
                c,
                cfg,
                &cpr,
                &rank_data(c.rank(), len),
                ReduceOp::Sum,
                &mut out,
                &mut ws,
            );
        });
        let piped_wait = piped.max_breakdown().get(Category::Wait);

        assert!(
            piped_wait < mono_wait,
            "pipelined wait {piped_wait:?} should undercut monolithic wait {mono_wait:?}"
        );
        assert!(
            piped.makespan < mono.makespan,
            "pipelined makespan {:?} should undercut monolithic {:?}",
            piped.makespan,
            mono.makespan
        );
    }

    #[test]
    fn pipelined_tree_reduce_beats_monolithic_makespan() {
        let n = 8;
        let len = 400_000;
        let eb = 1e-3f32;

        let world = SimWorld::new(SimConfig::new(n));
        let cpr = szx(eb);
        let mono = world.run(move |c| {
            crate::collectives::cpr_p2p::cpr_binomial_reduce(
                c,
                &cpr,
                0,
                &rank_data(c.rank(), len),
                ReduceOp::Sum,
            );
        });

        let world = SimWorld::new(SimConfig::new(n));
        let cfg = PipelineConfig::new(eb);
        let piped = world.run(move |c| {
            let me = c.rank();
            let mut out = vec![0.0f32; if me == 0 { len } else { 0 }];
            let mut ws = CollWorkspace::new();
            c_binomial_reduce_into(
                c,
                cfg,
                0,
                &rank_data(me, len),
                ReduceOp::Sum,
                &mut out,
                &mut ws,
            );
        });

        assert!(
            piped.makespan < mono.makespan,
            "pipelined tree reduce {:?} should undercut monolithic {:?}",
            piped.makespan,
            mono.makespan
        );
    }

    #[test]
    fn runs_on_threaded_backend() {
        let n = 4;
        let len = 15_000;
        let world = ThreadWorld::new(n);
        let cfg = PipelineConfig::new(1e-3);
        let out = world
            .run(move |c| c_ring_reduce_scatter(c, cfg, &rank_data(c.rank(), len), ReduceOp::Sum));
        let inputs: Vec<Vec<f32>> = (0..n).map(|r| rank_data(r, len)).collect();
        let full = ReduceOp::Sum.oracle(&inputs);
        let lengths = chunk_lengths(len, n);
        let offsets = chunk_offsets(&lengths);
        for r in 0..n {
            let expect = &full[offsets[r]..offsets[r] + lengths[r]];
            for (a, b) in out.results[r].iter().zip(expect) {
                assert!((a - b).abs() <= 1e-2, "rank {r}");
            }
        }
    }
}
