//! CPR-P2P baselines: compression-enabled point-to-point collectives.
//!
//! This is the prior-work approach the paper criticizes (§I, §II-C) and
//! benchmarks against ("Direct Integration"/DI in Table V, and the
//! SZx/ZFP(ABS)/ZFP(FXR) baselines of §IV-C): *every* send compresses and
//! *every* receive decompresses, so
//!
//! * a ring allgather performs `N−1` compressions per rank instead of 1,
//! * a binomial bcast performs `log₂N` compress+decompress pairs along
//!   each root-to-leaf path instead of one pair total,
//! * repeated re-compression accumulates error (each hop adds a fresh
//!   bounded perturbation — the error-propagation issue §III-A1 fixes),
//! * per-hop compressed sizes differ across ranks, unbalancing the ring.
//!
//! CPR-P2P is `Placement::Cpr` of a schedule's machine in
//! [`crate::nonblocking`], and a plan runs it whenever that is the
//! placement it selects (the DI variant of `plan_allreduce_variant`,
//! every reducing schedule of a codec without an error bound). The free
//! functions here are the placements **no plan selects** on an
//! error-bounded codec, kept for the ablation benches — among them the
//! three data-movement baselines of the paper's Fig. 16 (bcast, scatter,
//! all-to-all): every one is one blocking drive of its machine.

use std::sync::Arc;

use ccoll_comm::{Comm, Kernel};
use ccoll_compress::Compressor;

use crate::codec::CodecSpec;
use crate::nonblocking::{Alltoall, Bcast, Butterfly, RingAg, RingRs, Scatter, TreeReduce};
use crate::placement::Placement;
use crate::reduce::ReduceOp;
use crate::workspace::CollWorkspace;
use ccoll_comm::Cut;

/// Codec handle plus its cost-model kernels, shared by all CPR-P2P
/// collectives.
#[derive(Clone)]
pub struct CprCodec {
    /// The compressor.
    pub codec: Arc<dyn Compressor>,
    /// Cost-model kernel for compression.
    pub ck: Kernel,
    /// Cost-model kernel for decompression.
    pub dk: Kernel,
}

impl std::fmt::Debug for CprCodec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CprCodec")
            .field("codec", &self.codec.kind())
            .field("ck", &self.ck)
            .field("dk", &self.dk)
            .finish()
    }
}

impl CprCodec {
    /// Bundle a codec with its cost kernels.
    pub fn new(codec: Arc<dyn Compressor>, ck: Kernel, dk: Kernel) -> Self {
        CprCodec { codec, ck, dk }
    }

    /// The codec `spec` names with its cost kernels — the one place a
    /// spec becomes a codec. `None` for [`CodecSpec::None`].
    pub fn from_spec(spec: CodecSpec) -> Option<Self> {
        let (ck, dk) = spec.kernels();
        Some(CprCodec::new(spec.build()?, ck, dk))
    }
}

/// CPR-P2P ring allgather with per-rank value counts: compress before
/// each hop, decompress after each hop, re-compress what gets forwarded.
/// The *forwarded* data is the hop's decompressed output, so errors
/// accumulate along the ring — the amplification the data-movement
/// framework eliminates. `out` receives the concatenation in rank order.
///
/// # Panics
/// Panics if `mine.len() != counts[rank]` or `out.len()` is not the sum
/// of `counts`.
pub fn cpr_ring_allgatherv_into<C: Comm>(
    comm: &mut C,
    cpr: &CprCodec,
    mine: &[f32],
    counts: &[usize],
    out: &mut [f32],
    ws: &mut CollWorkspace,
) {
    ws.set_partition_from_counts(counts);
    let done = RingAg::new(Placement::Cpr, Cut::WHOLE, true).step(
        comm,
        Some(cpr),
        Some(mine),
        out,
        ws,
        true,
    );
    debug_assert!(done.is_ready());
}

/// CPR-P2P ring reduce-scatter: per round compress → send/recv →
/// decompress → reduce (the Fig. 4 "CPR-P2P" timeline, and the "ND"
/// reduce-scatter stage of Table V). `out` receives rank `r`'s fully
/// reduced chunk `r` of the balanced partition.
///
/// # Panics
/// Panics if `out.len()` differs from this rank's chunk length.
pub fn cpr_ring_reduce_scatter_into<C: Comm>(
    comm: &mut C,
    cpr: &CprCodec,
    input: &[f32],
    op: ReduceOp,
    out: &mut [f32],
    ws: &mut CollWorkspace,
) {
    let done = RingRs::new(Placement::Cpr, Cut::WHOLE).step_chunk(
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

/// Compressed Rabenseifner allreduce: recursive-halving reduce-scatter +
/// recursive-doubling allgather with CPR-P2P compression placement (each
/// hop compresses the moved range). Ring-equivalent bytes at tree
/// latency; every value passes through at most `⌈log₂n⌉ + 1` compression
/// stages on either phase.
///
/// # Panics
/// Panics if `out.len() != input.len()`.
pub fn cpr_rabenseifner_allreduce_into<C: Comm>(
    comm: &mut C,
    cpr: &CprCodec,
    input: &[f32],
    op: ReduceOp,
    out: &mut [f32],
    ws: &mut CollWorkspace,
) {
    let done = Butterfly::rabenseifner(Placement::Cpr, Cut::WHOLE, false).step(
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

/// Compressed binomial-tree rooted reduce: every tree hop compresses the
/// sender's accumulated subtree and decompresses + reduces at the parent
/// (CPR-P2P placement — reduction modifies the data, so compress-once
/// cannot apply; at most `⌈log₂n⌉` bounded errors accumulate on the
/// root's path). The root must size `out` to the input length; other
/// ranks may pass an empty buffer. Returns `true` on the root, `false`
/// elsewhere.
pub fn cpr_binomial_reduce_into<C: Comm>(
    comm: &mut C,
    cpr: &CprCodec,
    root: usize,
    input: &[f32],
    op: ReduceOp,
    out: &mut [f32],
    ws: &mut CollWorkspace,
) -> bool {
    let mut machine = TreeReduce::new(Placement::Cpr, Cut::WHOLE, root);
    let done = machine.step(comm, Some(cpr), op, input, out, ws, true);
    debug_assert!(done.is_ready());
    machine.is_root()
}

/// CPR-P2P binomial broadcast: each hop decompresses on receive and
/// re-compresses to forward — `log₂N · (T_comp + T_decomp)` on the
/// critical path (the Fig. 3 left-hand timeline). Every rank must size
/// `out` to the broadcast length; `data` is read on the root only.
pub fn cpr_binomial_bcast_into<C: Comm>(
    comm: &mut C,
    cpr: &CprCodec,
    root: usize,
    data: &[f32],
    out: &mut [f32],
    ws: &mut CollWorkspace,
) {
    let done =
        Bcast::new(Placement::Cpr, Cut::WHOLE, root).step(comm, Some(cpr), data, out, ws, true);
    debug_assert!(done.is_ready());
}

/// CPR-P2P binomial scatter: each forwarding hop decompresses the
/// received subtree block and re-compresses each child's portion. `out`
/// receives rank `r`'s chunk of the balanced partition of `total_len`.
///
/// # Panics
/// Panics if `out.len()` differs from this rank's chunk length.
pub fn cpr_binomial_scatter_into<C: Comm>(
    comm: &mut C,
    cpr: &CprCodec,
    root: usize,
    data: &[f32],
    total_len: usize,
    out: &mut [f32],
    ws: &mut CollWorkspace,
) {
    let mut machine = Scatter::new(Placement::Cpr, root, total_len);
    let done = machine.step(comm, Some(cpr), data, out, ws, true);
    debug_assert!(done.is_ready());
}

/// CPR-P2P pairwise all-to-all: every outgoing block is compressed and
/// every incoming block decompressed. (All-to-all blocks travel a single
/// hop, so unlike ring/tree collectives there is no re-compression waste
/// — the remaining CPR-P2P deficiencies here are the per-call buffer
/// overhead and the unbalanced, size-unaware schedule.)
///
/// # Panics
/// Panics if `send.len()` is not divisible by the rank count or
/// `out.len() != send.len()`.
pub fn cpr_pairwise_alltoall_into<C: Comm>(
    comm: &mut C,
    cpr: &CprCodec,
    send: &[f32],
    out: &mut [f32],
    ws: &mut CollWorkspace,
) {
    let done = Alltoall::new(Placement::Cpr).step(comm, Some(cpr), send, out, ws, true);
    debug_assert!(done.is_ready());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::chunk_lengths;
    use crate::testing::{
        assert_all_within, assert_blocks_within, assert_chunks_within, assert_root_within, on_root,
        oracle, pin, szx,
    };
    use crate::{Algorithm, AllreduceVariant, CCollSession};
    use ccoll_comm::{SimConfig, SimWorld};

    /// Equal-count CPR-P2P ring allgather of `mine`.
    fn allgather<C: Comm>(c: &mut C, cpr: &CprCodec, mine: &[f32]) -> Vec<f32> {
        let counts = vec![mine.len(); c.size()];
        let mut out = vec![0.0f32; mine.len() * c.size()];
        cpr_ring_allgatherv_into(c, cpr, mine, &counts, &mut out, &mut CollWorkspace::new());
        out
    }

    /// The DI allreduce (CPR-P2P in both ring stages) through its plan.
    fn di_allreduce<C: Comm>(c: &mut C, eb: f32, len: usize) -> Vec<f32> {
        CCollSession::new(CodecSpec::Szx { error_bound: eb }, c.size())
            .plan_allreduce_variant(len, ReduceOp::Sum, AllreduceVariant::DirectIntegration)
            .execute(c, &rank_data(c.rank(), len))
    }

    fn rank_data(rank: usize, len: usize) -> Vec<f32> {
        (0..len)
            .map(|i| ((i as f32) * 3e-3).sin() * 5.0 + rank as f32 * 0.125)
            .collect()
    }

    #[test]
    fn allgather_within_accumulated_bound() {
        let n = 6;
        let eb = 1e-3f32;
        let cpr = szx(eb);
        let out = SimWorld::new(SimConfig::new(n))
            .run(move |c| allgather(c, &cpr, &rank_data(c.rank(), 300)));
        // A block forwarded over up to n-1 hops is recompressed each hop:
        // worst-case error (n-1)·eb (the amplification §III-A1 removes).
        let worst = (n - 1) as f32 * eb + 1e-6;
        assert_blocks_within(&out.results, |src| rank_data(src, 300), worst, false, "di");
    }

    #[test]
    fn error_actually_accumulates_beyond_single_bound() {
        // With a coarse bound on smooth data, multi-hop recompression must
        // (at least sometimes) exceed the single-compression error — the
        // motivation for the compress-once framework. We check the error
        // of the farthest-travelled block exceeds the nearest's.
        let n = 8;
        let cpr = szx(1e-2);
        let out = SimWorld::new(SimConfig::new(n))
            .run(move |c| allgather(c, &cpr, &rank_data(c.rank(), 4000)));
        // On rank 0: block from rank 1 travelled n-1 hops; block from
        // rank n-1 travelled 1 hop.
        let err = |src: usize| {
            let expect = rank_data(src, 4000);
            out.results[0][src * 4000..(src + 1) * 4000]
                .iter()
                .zip(&expect)
                .map(|(a, b)| (a - b).abs() as f64)
                .fold(0.0, f64::max)
        };
        let far = err(1);
        let near = err(n - 1);
        assert!(
            far >= near,
            "farther block should accumulate at least as much error: {far} vs {near}"
        );
    }

    #[test]
    fn reduce_scatter_bounded() {
        let n = 5;
        let len = 250;
        let eb = 1e-3f32;
        let cpr = szx(eb);
        let out = SimWorld::new(SimConfig::new(n)).run(move |c| {
            let mut out = vec![0.0f32; chunk_lengths(len, n)[c.rank()]];
            let mut ws = CollWorkspace::new();
            let data = rank_data(c.rank(), len);
            cpr_ring_reduce_scatter_into(c, &cpr, &data, ReduceOp::Sum, &mut out, &mut ws);
            out
        });
        let expect = oracle(n, ReduceOp::Sum, |r| rank_data(r, len));
        // Each partial sum passes through ≤ n-1 compression stages.
        assert_chunks_within(&out.results, &expect, (n as f32) * eb * 2.0, "rs");
    }

    #[test]
    fn allreduce_close_to_exact() {
        let n = 4;
        let len = 600;
        let out = SimWorld::new(SimConfig::new(n)).run(move |c| di_allreduce(c, 1e-4, len));
        let expect = oracle(n, ReduceOp::Sum, |r| rank_data(r, len));
        assert_all_within(&out.results, &expect, 5e-3, "di");
    }

    #[test]
    fn bcast_all_roots_bounded() {
        let n = 7;
        let eb = 1e-3f32;
        for root in [0usize, 3, 6] {
            let cpr = szx(eb);
            let out = SimWorld::new(SimConfig::new(n)).run(move |c| {
                let data = on_root(c.rank(), root, rank_data(root, 500));
                let mut out = vec![0.0f32; 500];
                cpr_binomial_bcast_into(c, &cpr, root, &data, &mut out, &mut CollWorkspace::new());
                out
            });
            // log2(7)+1 hops worst case.
            let what = format!("root {root}");
            assert_all_within(&out.results, &rank_data(root, 500), 4.0 * eb, &what);
        }
    }

    #[test]
    fn scatter_bounded() {
        let n = 8;
        let total = 800;
        let eb = 1e-3f32;
        let cpr = szx(eb);
        let out = SimWorld::new(SimConfig::new(n)).run(move |c| {
            let data = on_root(c.rank(), 0, rank_data(42, total));
            let mut out = vec![0.0f32; chunk_lengths(total, n)[c.rank()]];
            let mut ws = CollWorkspace::new();
            cpr_binomial_scatter_into(c, &cpr, 0, &data, total, &mut out, &mut ws);
            out
        });
        // ≤ log2(8) hops
        assert_chunks_within(&out.results, &rank_data(42, total), 4.0 * eb, "scatter");
    }

    #[test]
    fn recursive_doubling_bounded_all_sizes() {
        let eb = 1e-3f32;
        for n in [2usize, 3, 5, 8] {
            let len = 500;
            // A plan selects this placement: the butterfly re-compresses
            // the accumulator every round whatever the codec.
            let out = SimWorld::new(SimConfig::new(n)).run(move |c| {
                CCollSession::new(CodecSpec::Szx { error_bound: eb }, n)
                    .plan_allreduce_with(len, ReduceOp::Sum, pin(Algorithm::RecursiveDoubling))
                    .execute(c, &rank_data(c.rank(), len))
            });
            let expect = oracle(n, ReduceOp::Sum, |r| rank_data(r, len));
            // Each of ≤ log2(n)+2 rounds adds one bounded error, scaled
            // by the partial-sum magnitudes it rides on.
            assert_all_within(
                &out.results,
                &expect,
                4.0 * (n as f32) * eb,
                &format!("n={n}"),
            );
        }
    }

    #[test]
    fn rabenseifner_bounded_all_sizes() {
        let eb = 1e-3f32;
        for n in [2usize, 4, 6, 9] {
            let len = 700;
            let cpr = szx(eb);
            let out = SimWorld::new(SimConfig::new(n)).run(move |c| {
                let mut out = vec![0.0f32; len];
                let mut ws = CollWorkspace::new();
                let data = rank_data(c.rank(), len);
                cpr_rabenseifner_allreduce_into(c, &cpr, &data, ReduceOp::Sum, &mut out, &mut ws);
                out
            });
            let expect = oracle(n, ReduceOp::Sum, |r| rank_data(r, len));
            assert_all_within(
                &out.results,
                &expect,
                4.0 * (n as f32) * eb,
                &format!("n={n}"),
            );
        }
    }

    #[test]
    fn binomial_reduce_bounded_all_roots() {
        let n = 7;
        let len = 400;
        let eb = 1e-3f32;
        for root in [0usize, 3, 6] {
            let cpr = szx(eb);
            let out = SimWorld::new(SimConfig::new(n)).run(move |c| {
                let mut out = vec![0.0f32; if c.rank() == root { len } else { 0 }];
                let mut ws = CollWorkspace::new();
                let data = rank_data(c.rank(), len);
                cpr_binomial_reduce_into(c, &cpr, root, &data, ReduceOp::Sum, &mut out, &mut ws)
                    .then_some(out)
            });
            let expect = oracle(n, ReduceOp::Sum, |r| rank_data(r, len));
            assert_root_within(&out.results, root, &expect, 4.0 * (n as f32) * eb, "tree");
        }
    }

    #[test]
    fn di_is_slower_than_uncompressed_on_fast_network() {
        // The paper's headline observation (Fig. 11): with a fast network,
        // CPR-P2P's compression overhead makes it *slower* than the
        // uncompressed allreduce. Reproduce on a 16-rank virtual cluster.
        let n = 16;
        let len = 200_000;
        let t_plain = SimWorld::new(SimConfig::new(n))
            .run(move |c| {
                CCollSession::new(CodecSpec::None, n)
                    .plan_allreduce(len, ReduceOp::Sum)
                    .execute(c, &rank_data(c.rank(), len))
            })
            .makespan;
        let t_di = SimWorld::new(SimConfig::new(n))
            .run(move |c| di_allreduce(c, 1e-3, len))
            .makespan;
        assert!(
            t_di > t_plain,
            "DI should lose to plain allreduce on a 100 Gb/s network: {t_di:?} vs {t_plain:?}"
        );
    }
}
