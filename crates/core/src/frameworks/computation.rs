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
//! The sub-chunk machinery is the hop route of the streaming engine in
//! `crate::pipeline`, and **every** computation schedule drives it, not
//! just the ring: in `Placement::Piped` the ring reduce-scatter, the
//! Rabenseifner recursive-halving phase and the binomial-tree rooted
//! reduce machines in [`crate::nonblocking`] stream their hops through
//! it, with fused decompress-reduce kernels on every receive path. A
//! session whose codec has an error bound selects that placement
//! (`plan_reduce_scatter`, `plan_allreduce*`, `plan_reduce*`) and the
//! sub-chunks are SZx at that bound whatever the codec — a `zfp-abs`
//! session runs ZFP only on its data-movement hops. How many values a
//! sub-chunk holds is the session's to decide (`CCollSession::cut`;
//! [`crate::CCollSession::with_pipeline_values`] sets the pipe). This
//! module holds the default pipe and the framework's tests.

/// Default pipeline sub-chunk in values (the paper's 5120 data points) —
/// the same unit the cost model prices streamed schedules in.
pub const DEFAULT_PIPE_VALUES: usize = ccoll_comm::PIPE_CHUNK_BYTES / 4;

#[cfg(test)]
mod tests {
    use ccoll_comm::{Category, Comm, SimConfig, SimWorld, ThreadWorld};

    use crate::collectives::cpr_p2p::{
        cpr_binomial_reduce_into, cpr_rabenseifner_allreduce_into, cpr_ring_reduce_scatter_into,
    };
    use crate::partition::chunk_lengths;
    use crate::testing::{
        assert_all_within, assert_chunks_within, assert_root_within, oracle, pin, szx,
    };
    use crate::theory::sum_error_worst_case;
    use crate::{Algorithm, CCollSession, CodecSpec, CollWorkspace, ReduceOp};

    fn session(eb: f32, n: usize) -> CCollSession {
        CCollSession::new(CodecSpec::Szx { error_bound: eb }, n)
    }

    fn rank_data(rank: usize, len: usize) -> Vec<f32> {
        (0..len)
            .map(|i| ((i * 7 + rank * 131) as f32 * 1e-3).sin() * 2.0)
            .collect()
    }

    /// Every rank's chunk of a reduce-scatter of `rank_data` against the
    /// oracle.
    fn assert_reduce_scatter(results: &[Vec<f32>], op: ReduceOp, len: usize, tol: f32, what: &str) {
        let expect = oracle(results.len(), op, |r| rank_data(r, len));
        assert_chunks_within(results, &expect, tol, what);
    }

    #[test]
    fn pipelined_reduce_scatter_accuracy() {
        let n = 6;
        let len = 30_000; // several sub-chunks per round with pipe=5120
        let eb = 1e-3f32;
        let out = SimWorld::new(SimConfig::new(n)).run(move |c| {
            session(eb, n)
                .plan_reduce_scatter(len, ReduceOp::Sum)
                .execute(c, &rank_data(c.rank(), len))
        });
        let tol = sum_error_worst_case(n, eb as f64) as f32;
        assert_reduce_scatter(&out.results, ReduceOp::Sum, len, tol, "sum");
    }

    #[test]
    fn all_ops_supported() {
        let n = 4;
        let len = 8000;
        for op in ReduceOp::ALL {
            let out = SimWorld::new(SimConfig::new(n)).run(move |c| {
                session(1e-4, n)
                    .plan_reduce_scatter(len, op)
                    .execute(c, &rank_data(c.rank(), len))
            });
            assert_reduce_scatter(&out.results, op, len, 1e-3, &format!("{op:?}"));
        }
    }

    #[test]
    fn tiny_inputs_and_small_chunks() {
        // Inputs smaller than one sub-chunk, and sub-chunks of one value.
        for (len, chunk) in [(5usize, 5120usize), (64, 7), (3, 1)] {
            let n = 3;
            let out = SimWorld::new(SimConfig::new(n)).run(move |c| {
                session(1e-4, n)
                    .with_pipeline_values(chunk)
                    .plan_reduce_scatter(len, ReduceOp::Sum)
                    .execute(c, &rank_data(c.rank(), len))
            });
            let what = format!("len={len} chunk={chunk}");
            assert_reduce_scatter(&out.results, ReduceOp::Sum, len, 1e-3, &what);
        }
    }

    #[test]
    fn c_allreduce_end_to_end() {
        let n = 5;
        let len = 20_000;
        let eb = 1e-3f32;
        let out = SimWorld::new(SimConfig::new(n)).run(move |c| {
            session(eb, n)
                .plan_allreduce(len, ReduceOp::Sum)
                .execute(c, &rank_data(c.rank(), len))
        });
        let expect = oracle(n, ReduceOp::Sum, |r| rank_data(r, len));
        let tol = sum_error_worst_case(n + 1, eb as f64) as f32;
        assert_all_within(&out.results, &expect, tol, "allreduce");
    }

    #[test]
    fn overlap_reduces_wait_vs_nd() {
        // The Fig. 9 property: with pipelined sub-chunk sends, the Wait
        // share of the reduce-scatter shrinks substantially vs the
        // monolithic (ND) schedule on the same virtual cluster.
        let n = 8;
        let len = 400_000;
        let eb = 1e-3f32;

        let cpr = szx(eb);
        let nd = SimWorld::new(SimConfig::new(n)).run(move |c| {
            let mut out = vec![0.0f32; chunk_lengths(len, n)[c.rank()]];
            let mut ws = CollWorkspace::new();
            let data = rank_data(c.rank(), len);
            cpr_ring_reduce_scatter_into(c, &cpr, &data, ReduceOp::Sum, &mut out, &mut ws);
        });
        let nd_wait = nd.max_breakdown().get(Category::Wait);

        let ov = SimWorld::new(SimConfig::new(n)).run(move |c| {
            let mut plan = session(eb, n).plan_reduce_scatter(len, ReduceOp::Sum);
            let _ = plan.execute(c, &rank_data(c.rank(), len));
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
            let out = SimWorld::new(SimConfig::new(n)).run(move |c| {
                session(eb, n)
                    .plan_allreduce_with(len, ReduceOp::Sum, pin(Algorithm::Rabenseifner))
                    .execute(c, &rank_data(c.rank(), len))
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
    fn pipelined_binomial_reduce_within_envelope_all_roots() {
        let n = 7;
        let len = 17_000;
        let eb = 1e-3f32;
        for root in [0usize, 3, 6] {
            let out = SimWorld::new(SimConfig::new(n)).run(move |c| {
                session(eb, n)
                    .plan_reduce_with(root, len, ReduceOp::Sum, pin(Algorithm::Binomial))
                    .execute(c, &rank_data(c.rank(), len))
            });
            let expect = oracle(n, ReduceOp::Sum, |r| rank_data(r, len));
            assert_root_within(&out.results, root, &expect, 4.0 * (n as f32) * eb, "tree");
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

        let cpr = szx(eb);
        let mono = SimWorld::new(SimConfig::new(n)).run(move |c| {
            let mut out = vec![0.0f32; len];
            let mut ws = CollWorkspace::new();
            let data = rank_data(c.rank(), len);
            cpr_rabenseifner_allreduce_into(c, &cpr, &data, ReduceOp::Sum, &mut out, &mut ws);
        });
        let mono_wait = mono.max_breakdown().get(Category::Wait);

        let piped = SimWorld::new(SimConfig::new(n)).run(move |c| {
            let mut plan = session(eb, n).plan_allreduce_with(
                len,
                ReduceOp::Sum,
                pin(Algorithm::Rabenseifner),
            );
            let _ = plan.execute(c, &rank_data(c.rank(), len));
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

        let cpr = szx(eb);
        let mono = SimWorld::new(SimConfig::new(n)).run(move |c| {
            let mut out = vec![0.0f32; if c.rank() == 0 { len } else { 0 }];
            let mut ws = CollWorkspace::new();
            let data = rank_data(c.rank(), len);
            cpr_binomial_reduce_into(c, &cpr, 0, &data, ReduceOp::Sum, &mut out, &mut ws);
        });

        let piped = SimWorld::new(SimConfig::new(n)).run(move |c| {
            let mut plan =
                session(eb, n).plan_reduce_with(0, len, ReduceOp::Sum, pin(Algorithm::Binomial));
            let _ = plan.execute(c, &rank_data(c.rank(), len));
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
        let out = ThreadWorld::new(n).run(move |c| {
            session(1e-3, n)
                .plan_reduce_scatter(len, ReduceOp::Sum)
                .execute(c, &rank_data(c.rank(), len))
        });
        assert_reduce_scatter(&out.results, ReduceOp::Sum, len, 1e-2, "threaded");
    }
}
