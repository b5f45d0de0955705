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

use ccoll_comm::Comm;

use crate::collectives::cpr_p2p::CprCodec;
use crate::nonblocking::{
    AgMode, ArMachine, BflyMode, Butterfly, RingRs, RsMode, TreeMode, TreeReduce,
};
use crate::partition::chunk_lengths;
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
    let done = RingRs::new(RsMode::Piped(cfg)).step(comm, None, op, input, out, ws, true);
    debug_assert!(done.is_ready());
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
    let done = ArMachine::ring(RsMode::Piped(cfg), AgMode::Compressed { overlap: true }).step(
        comm,
        Some(cpr),
        op,
        None,
        input,
        out,
        ws,
        true,
    );
    debug_assert!(done.is_ready());
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
    let done = Butterfly::rabenseifner(BflyMode::Piped(cfg)).step(
        comm,
        Some(cpr),
        op,
        input,
        out,
        ws,
        true,
    );
    debug_assert!(done.is_ready());
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
    let mut machine = TreeReduce::new(TreeMode::Piped(cfg), root);
    let done = machine.step(comm, None, op, input, out, ws, true);
    debug_assert!(done.is_ready());
    machine.is_root()
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
    use ccoll_comm::{Category, Kernel, SimConfig, SimWorld, ThreadWorld};
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
