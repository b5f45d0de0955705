//! The uncompressed baselines: the paper's "original MPI_Allreduce /
//! MPI_Scatter / MPI_Bcast" (Table V's "AD").
//!
//! Algorithms follow the standard MPICH choices the paper builds on:
//!
//! * ring allgather and ring reduce-scatter (and their composition, the
//!   bandwidth-optimal ring allreduce, which moves `2(N−1)/N · D` bytes
//!   per process — the figure quoted in §III-E);
//! * binomial-tree broadcast and scatter (§IV-D: "C-Bcast and C-Scatter
//!   … utilize the ubiquitous binomial tree algorithm adopted by MPICH");
//! * recursive-doubling allreduce and pairwise all-to-all for
//!   completeness of the collective families discussed in §II-A.
//!
//! Each is the `Raw` mode of its schedule machine in
//! [`crate::nonblocking`], which is what the plans of a
//! [`CodecSpec::None`](crate::CodecSpec::None) session run — there is no
//! second, blocking copy. What lives here is the butterfly fold geometry
//! the machines share, and the tests of the raw placements.

/// The fold geometry every butterfly schedule shares: non-power-of-two
/// worlds pre-reduce the first `2·rem` ranks pairwise (even → odd) so a
/// power-of-two subset runs the butterfly, then unfold the result back.
///
/// Returns `(pow2, rem)` where `pow2` is the largest power of two not
/// exceeding `n` and `rem = n - pow2`.
pub(crate) fn butterfly_fold(n: usize) -> (usize, usize) {
    let pow2 = if n.is_power_of_two() {
        n
    } else {
        n.next_power_of_two() / 2
    };
    (pow2, n - pow2)
}

/// The rank holding butterfly position `p` after the fold (odd folded
/// ranks take positions `0..rem`; unpaired ranks shift down by `rem`).
pub(crate) fn butterfly_pos_to_rank(p: usize, rem: usize) -> usize {
    if p < rem {
        2 * p + 1
    } else {
        p + rem
    }
}

#[cfg(test)]
mod tests {
    use crate::partition::chunk_range;
    use crate::testing::{
        assert_all_within, assert_chunks_within, assert_root_within, assert_within, on_root,
        oracle, pin,
    };
    use crate::{Algorithm, CCollSession, CodecSpec, ReduceOp};
    use ccoll_comm::{Comm, SimConfig, SimWorld, ThreadWorld};

    fn raw(n: usize) -> CCollSession {
        CCollSession::new(CodecSpec::None, n)
    }

    fn rank_data(rank: usize, len: usize) -> Vec<f32> {
        (0..len)
            .map(|i| ((i * 31 + rank * 977) % 1000) as f32 * 0.25 - 100.0)
            .collect()
    }

    /// An allreduce of `rank_data` on the raw schedule `algorithm`,
    /// against the oracle.
    fn check_allreduce(n: usize, len: usize, algorithm: Algorithm) {
        let out = SimWorld::new(SimConfig::new(n)).run(move |c| {
            raw(n)
                .plan_allreduce_with(len, ReduceOp::Sum, pin(algorithm))
                .execute(c, &rank_data(c.rank(), len))
        });
        let expect = oracle(n, ReduceOp::Sum, |r| rank_data(r, len));
        assert_all_within(&out.results, &expect, 1e-3, &format!("n={n}"));
    }

    #[test]
    fn allgather_all_sizes() {
        for n in [1usize, 2, 3, 5, 8] {
            let out = SimWorld::new(SimConfig::new(n)).run(move |c| {
                raw(n)
                    .plan_allgather(40)
                    .execute(c, &rank_data(c.rank(), 40))
            });
            let expect: Vec<f32> = (0..n).flat_map(|r| rank_data(r, 40)).collect();
            assert_all_within(&out.results, &expect, 0.0, &format!("n={n}"));
        }
    }

    #[test]
    fn allgatherv_unequal() {
        let n = 4;
        let counts = [7usize, 0, 13, 2];
        let out = SimWorld::new(SimConfig::new(n)).run(move |c| {
            let mine = rank_data(c.rank(), counts[c.rank()]);
            raw(n).plan_allgatherv(&counts).execute(c, &mine)
        });
        let expect: Vec<f32> = (0..n).flat_map(|r| rank_data(r, counts[r])).collect();
        assert_all_within(&out.results, &expect, 0.0, "unequal");
    }

    #[test]
    fn reduce_scatter_matches_oracle() {
        for n in [2usize, 3, 6] {
            for op in [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min, ReduceOp::Avg] {
                let len = 50;
                let out = SimWorld::new(SimConfig::new(n)).run(move |c| {
                    raw(n)
                        .plan_reduce_scatter(len, op)
                        .execute(c, &rank_data(c.rank(), len))
                });
                let expect = oracle(n, op, |r| rank_data(r, len));
                assert_chunks_within(&out.results, &expect, 1e-3, &format!("n={n} {op:?}"));
            }
        }
    }

    #[test]
    fn allreduce_matches_oracle() {
        for n in [1usize, 2, 4, 7] {
            check_allreduce(n, 33, Algorithm::Ring);
        }
    }

    #[test]
    fn bcast_all_roots() {
        let n = 6;
        for root in 0..n {
            let out = SimWorld::new(SimConfig::new(n)).run(move |c| {
                let data = on_root(c.rank(), root, rank_data(root, 77));
                raw(n).plan_bcast(root, 77).execute(c, &data)
            });
            assert_all_within(
                &out.results,
                &rank_data(root, 77),
                0.0,
                &format!("root {root}"),
            );
        }
    }

    #[test]
    fn scatter_all_roots_and_sizes() {
        for n in [2usize, 3, 4, 7, 8] {
            for root in [0, n - 1] {
                let total = 10 * n + 3; // uneven partition
                let out = SimWorld::new(SimConfig::new(n)).run(move |c| {
                    let data = on_root(c.rank(), root, rank_data(99, total));
                    raw(n).plan_scatter(root, total).execute(c, &data)
                });
                let what = format!("n={n} root={root}");
                assert_chunks_within(&out.results, &rank_data(99, total), 0.0, &what);
            }
        }
    }

    #[test]
    fn gather_inverts_scatter() {
        let n = 5;
        let total = 41;
        let out = SimWorld::new(SimConfig::new(n)).run(move |c| {
            let mine = &rank_data(7, total)[chunk_range(total, n, c.rank())];
            raw(n).plan_gather(2, total).execute(c, mine)
        });
        assert_root_within(&out.results, 2, &rank_data(7, total), 0.0, "gather");
    }

    #[test]
    fn recursive_doubling_all_sizes() {
        for n in [1usize, 2, 3, 4, 5, 6, 8] {
            check_allreduce(n, 20, Algorithm::RecursiveDoubling);
        }
    }

    #[test]
    fn rabenseifner_all_sizes() {
        for n in [1usize, 2, 3, 4, 5, 6, 7, 8, 9] {
            check_allreduce(n, 37, Algorithm::Rabenseifner); // uneven across every pow2 partition
        }
    }

    #[test]
    fn bruck_allgather_all_sizes() {
        for n in [1usize, 2, 3, 5, 7, 8] {
            let count = |r: usize| 10 + 7 * (r % 3);
            let out = SimWorld::new(SimConfig::new(n)).run(move |c| {
                let counts: Vec<usize> = (0..n).map(count).collect();
                raw(n)
                    .plan_allgatherv_with(&counts, pin(Algorithm::Bruck))
                    .execute(c, &rank_data(c.rank(), count(c.rank())))
            });
            let expect: Vec<f32> = (0..n).flat_map(|r| rank_data(r, count(r))).collect();
            assert_all_within(&out.results, &expect, 0.0, &format!("n={n}"));
        }
    }

    #[test]
    fn binomial_reduce_all_roots() {
        let n = 6;
        let len = 45;
        for root in 0..n {
            let out = SimWorld::new(SimConfig::new(n)).run(move |c| {
                raw(n)
                    .plan_reduce_with(root, len, ReduceOp::Sum, pin(Algorithm::Binomial))
                    .execute(c, &rank_data(c.rank(), len))
            });
            let expect = oracle(n, ReduceOp::Sum, |r| rank_data(r, len));
            assert_root_within(&out.results, root, &expect, 1e-3, "tree reduce");
        }
    }

    #[test]
    fn binomial_reduce_avg_finalizes_once() {
        let n = 5;
        let len = 30;
        let out = SimWorld::new(SimConfig::new(n)).run(move |c| {
            raw(n)
                .plan_reduce_with(0, len, ReduceOp::Avg, pin(Algorithm::Binomial))
                .execute(c, &rank_data(c.rank(), len))
        });
        let expect = oracle(n, ReduceOp::Avg, |r| rank_data(r, len));
        assert_root_within(&out.results, 0, &expect, 1e-3, "avg");
    }

    #[test]
    fn alltoall_permutes_blocks() {
        let n = 4;
        let block = 3;
        // Block `to` of rank `from` carries the value 100*from + to.
        let tagged = |from: usize, to: usize| (100 * from + to) as f32;
        let out = SimWorld::new(SimConfig::new(n)).run(move |c| {
            let send: Vec<f32> = (0..n * block)
                .map(|j| tagged(c.rank(), j / block))
                .collect();
            raw(n).plan_alltoall(n * block).execute(c, &send)
        });
        for (r, got) in out.results.iter().enumerate() {
            let expect: Vec<f32> = (0..n * block).map(|j| tagged(j / block, r)).collect();
            assert_within(got, &expect, 0.0, &format!("rank {r}"));
        }
    }

    #[test]
    fn works_on_threaded_backend_too() {
        let n = 4;
        let out = ThreadWorld::new(n).run(move |c| {
            raw(n)
                .plan_allreduce(100, ReduceOp::Sum)
                .execute(c, &rank_data(c.rank(), 100))
        });
        let expect = oracle(n, ReduceOp::Sum, |r| rank_data(r, 100));
        assert_all_within(&out.results, &expect, 1e-3, "threaded");
    }
}
