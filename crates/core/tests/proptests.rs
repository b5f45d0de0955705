//! Property-based tests for collective correctness and error bounds,
//! driven across random rank counts, buffer lengths and datasets.

use std::time::Duration;

use c_coll::partition::{chunk_lengths, chunk_offsets};
use c_coll::theory;
use c_coll::{Algorithm, AllreduceVariant, CCollSession, CodecSpec, PlanOptions, ReduceOp};
use ccoll_comm::{Comm, HierNet, NetModel, SimConfig, SimWorld, Topology};
use proptest::prelude::*;

fn rank_data(rank: usize, len: usize, seed: u64) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let x = (i as u64)
                .wrapping_mul(0x9E37_79B9)
                .wrapping_add(rank as u64 * 7919)
                .wrapping_add(seed);
            ((x % 10_000) as f32 / 10_000.0 - 0.5) * 4.0
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn baseline_allreduce_matches_oracle(
        n in 1usize..=9,
        len in 1usize..300,
        seed in any::<u64>(),
    ) {
        let world = SimWorld::new(SimConfig::new(n));
        let out = world.run(move |c| {
            CCollSession::new(CodecSpec::None, n)
                .plan_allreduce(len, ReduceOp::Sum)
                .execute(c, &rank_data(c.rank(), len, seed))
        });
        let inputs: Vec<Vec<f32>> = (0..n).map(|r| rank_data(r, len, seed)).collect();
        let expect = ReduceOp::Sum.oracle(&inputs);
        for r in 0..n {
            for (a, b) in out.results[r].iter().zip(&expect) {
                prop_assert!((a - b).abs() < 1e-3, "rank {}: {} vs {}", r, a, b);
            }
        }
    }

    #[test]
    fn baseline_scatter_gather_inverse(
        n in 2usize..=10,
        total in 1usize..500,
        root in 0usize..10,
        seed in any::<u64>(),
    ) {
        let root = root % n;
        let world = SimWorld::new(SimConfig::new(n));
        let out = world.run(move |c| {
            let data = if c.rank() == root {
                rank_data(root, total, seed)
            } else {
                Vec::new()
            };
            let session = CCollSession::new(CodecSpec::None, n);
            let mine = session.plan_scatter(root, total).execute(c, &data);
            session.plan_gather(root, total).execute(c, &mine)
        });
        let expect = rank_data(root, total, seed);
        prop_assert_eq!(out.results[root].as_ref().expect("root gathers"), &expect);
    }

    #[test]
    fn c_allreduce_error_bounded_prop(
        n in 2usize..=8,
        len in 10usize..2000,
        seed in any::<u64>(),
        variant_idx in 0usize..4,
    ) {
        let eb = 1e-3f32;
        let variant = AllreduceVariant::ALL[variant_idx];
        let world = SimWorld::new(SimConfig::new(n));
        let out = world.run(move |c| {
            CCollSession::new(CodecSpec::Szx { error_bound: eb }, n)
                .plan_allreduce_variant(len, ReduceOp::Sum, variant)
                .execute(c, &rank_data(c.rank(), len, seed))
        });
        let inputs: Vec<Vec<f32>> = (0..n).map(|r| rank_data(r, len, seed)).collect();
        let expect = ReduceOp::Sum.oracle(&inputs);
        // DI can touch each value ~2(n-1) times in the worst case.
        let tol = (2 * n) as f32 * eb;
        for r in 0..n {
            for (a, b) in out.results[r].iter().zip(&expect) {
                prop_assert!((a - b).abs() <= tol,
                    "{} n={} rank {}: {} vs {}", variant.label(), n, r, a, b);
            }
        }
    }

    #[test]
    fn partition_is_exhaustive_and_balanced(len in 0usize..10_000, n in 1usize..=64) {
        let lengths = chunk_lengths(len, n);
        prop_assert_eq!(lengths.len(), n);
        prop_assert_eq!(lengths.iter().sum::<usize>(), len);
        let min = lengths.iter().min().copied().unwrap_or(0);
        let max = lengths.iter().max().copied().unwrap_or(0);
        prop_assert!(max - min <= 1, "balanced partition: {:?}", (min, max));
        let offsets = chunk_offsets(&lengths);
        for i in 1..n {
            prop_assert_eq!(offsets[i], offsets[i - 1] + lengths[i - 1]);
        }
    }

    #[test]
    fn theorem1_interval_grows_like_sqrt_n(n in 1usize..5000, eb in 1e-6f64..1e-1) {
        let half = theory::sum_error_halfwidth_from_bound(n, eb);
        let expect = 2.0 / 3.0 * (n as f64).sqrt() * eb;
        prop_assert!((half - expect).abs() < 1e-12 * expect.max(1.0));
        // Always no worse than the deterministic bound for n ≥ 1
        // (at n ≤ 4 the two coincide in order of magnitude).
        if n >= 5 {
            prop_assert!(half < theory::sum_error_worst_case(n, eb));
        }
    }

    #[test]
    fn maxmin_variance_bounded_by_2_sigma_sq(n in 1usize..200, sigma in 1e-6f64..10.0) {
        let v = theory::maxmin_error_variance(n, sigma);
        prop_assert!(v <= 2.0 * sigma * sigma + 1e-12);
        prop_assert!(v >= 0.0);
    }
}

/// Small-integer values whose cross-rank sums are exactly representable
/// in `f32`: any reduction tree (flat ring, node-local-then-leader)
/// produces bit-identical results, so lossless differentials can assert
/// equality rather than an envelope.
fn int_data(rank: usize, len: usize, seed: u64) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let x = (i as u64)
                .wrapping_mul(0x9E37_79B9)
                .wrapping_add(rank as u64 * 7919)
                .wrapping_add(seed);
            ((x % 31) as f32) - 15.0
        })
        .collect()
}

/// Values in one PIPE sub-chunk at the session default.
const CHUNK: usize = 5120;

/// Body of [`hierarchical_allreduce_matches_flat_ring_bitwise`]: plain
/// functions keep the `proptest!` macro input small (its tt-muncher
/// expansion hits the compiler recursion limit on large inline bodies).
/// Past one sub-chunk on nodes of three ranks or more, the plan must
/// stream its group legs.
fn check_hier_allreduce_bitwise(
    sizes: &[usize],
    len: usize,
    seed: u64,
) -> Result<(), TestCaseError> {
    let n: usize = sizes.iter().sum();
    let world = SimWorld::new(SimConfig::new(n));
    let sizes_in = sizes.to_vec();
    let out = world.run(move |c| {
        let session = CCollSession::new(CodecSpec::None, n).with_topology(
            Topology::from_node_sizes(&sizes_in),
            HierNet::cluster_default(),
        );
        let mut hier = session.plan_allreduce_with(
            len,
            ReduceOp::Sum,
            PlanOptions::new().algorithm(Algorithm::Hierarchical),
        );
        let mut ring = session.plan_allreduce_with(
            len,
            ReduceOp::Sum,
            PlanOptions::new().algorithm(Algorithm::Ring),
        );
        let input = int_data(c.rank(), len, seed);
        let shape = (hier.hier_lanes(), hier.hier_streamed());
        (hier.execute(c, &input), ring.execute(c, &input), shape)
    });
    // Past one sub-chunk a group of three or more streams its legs as
    // chains; a group of two keeps the binomial legs, whose one edge
    // streams as well.
    if let (Some(lanes), streamed) = out.results[0].2 {
        let largest = sizes.iter().max().expect("nodes").div_ceil(lanes);
        if len > CHUNK && largest >= 3 {
            prop_assert_eq!(streamed, Some(true), "topology {:?}", sizes);
        }
    }
    for r in 0..n {
        let (h, flat, _) = &out.results[r];
        prop_assert_eq!(h, flat, "rank {} of topology {:?}", r, sizes);
    }
    Ok(())
}

/// Body of [`hierarchical_allreduce_error_bounded_szx`].
fn check_hier_allreduce_szx(sizes: &[usize], len: usize, seed: u64) -> Result<(), TestCaseError> {
    let n: usize = sizes.iter().sum();
    let eb = 1e-3f32;
    let world = SimWorld::new(SimConfig::new(n));
    let sizes_in = sizes.to_vec();
    let out = world.run(move |c| {
        let session = CCollSession::new(CodecSpec::Szx { error_bound: eb }, n).with_topology(
            Topology::from_node_sizes(&sizes_in),
            HierNet::cluster_default(),
        );
        let mut plan = session.plan_allreduce_with(
            len,
            ReduceOp::Sum,
            PlanOptions::new().algorithm(Algorithm::Hierarchical),
        );
        plan.execute(c, &rank_data(c.rank(), len, seed))
    });
    let inputs: Vec<Vec<f32>> = (0..n).map(|r| rank_data(r, len, seed)).collect();
    let expect = ReduceOp::Sum.oracle(&inputs);
    let tol = 4.0 * (n as f32) * eb;
    for r in 0..n {
        for (a, b) in out.results[r].iter().zip(&expect) {
            prop_assert!(
                (a - b).abs() <= tol,
                "topology {:?} rank {}: {} vs {}",
                sizes,
                r,
                a,
                b
            );
        }
    }
    Ok(())
}

/// Body of [`hierarchical_allgather_matches_sources_bitwise`].
fn check_hier_allgather_bitwise(
    sizes: &[usize],
    len: usize,
    seed: u64,
) -> Result<(), TestCaseError> {
    let n: usize = sizes.iter().sum();
    let world = SimWorld::new(SimConfig::new(n));
    let sizes_in = sizes.to_vec();
    let out = world.run(move |c| {
        let session = CCollSession::new(CodecSpec::None, n).with_topology(
            Topology::from_node_sizes(&sizes_in),
            HierNet::cluster_default(),
        );
        let mut plan =
            session.plan_allgather_with(len, PlanOptions::new().algorithm(Algorithm::Hierarchical));
        plan.execute(c, &int_data(c.rank(), len, seed))
    });
    for r in 0..n {
        for src in 0..n {
            let expect = int_data(src, len, seed);
            let got = &out.results[r][src * len..(src + 1) * len];
            prop_assert_eq!(
                expect.as_slice(),
                got,
                "topology {:?} rank {} src {}",
                sizes,
                r,
                src
            );
        }
    }
    Ok(())
}

/// Body of [`bruck_alltoall_matches_pairwise_prop`].
fn check_bruck_alltoall(n: usize, block: usize, seed: u64) -> Result<(), TestCaseError> {
    let len = n * block;
    let world = SimWorld::new(SimConfig::new(n));
    let out = world.run(move |c| {
        let session = CCollSession::new(CodecSpec::None, n);
        let mut pairwise = session.plan_alltoall(len);
        let mut bruck =
            session.plan_alltoall_with(len, PlanOptions::new().algorithm(Algorithm::Bruck));
        let input = rank_data(c.rank(), len, seed);
        (pairwise.execute(c, &input), bruck.execute(c, &input))
    });
    for r in 0..n {
        let (p, b) = &out.results[r];
        prop_assert_eq!(p, b, "rank {}", r);
    }
    Ok(())
}

/// Body of [`calibration_converges_against_optimistic_models`].
fn check_calibration_convergence(n: usize, len: usize, speedup: f64) -> Result<(), TestCaseError> {
    let world = SimWorld::new(SimConfig::new(n));
    let out = world.run(move |c| {
        let session = CCollSession::new(CodecSpec::None, n).with_net_model(NetModel {
            latency: Duration::from_nanos(1),
            bandwidth: 0.5e9 * speedup,
        });
        let mut plan = session.plan_allreduce_with(len, ReduceOp::Sum, PlanOptions::new());
        let input = int_data(c.rank(), len, 7);
        let mut out = vec![0.0f32; len];
        for _ in 0..10 {
            plan.execute_into(c, &input, &mut out);
        }
        session.net_calibration()
    });
    let first = out.results[0];
    for (r, &(alpha, beta)) in out.results.iter().enumerate() {
        prop_assert!(
            alpha > 1.0 || beta > 1.0,
            "rank {}: scales never corrected upward: ({}, {})",
            r,
            alpha,
            beta
        );
        prop_assert!(
            (1.0 / 64.0..=64.0).contains(&alpha) && (1.0 / 64.0..=64.0).contains(&beta),
            "rank {}: scales escaped the clamp: ({}, {})",
            r,
            alpha,
            beta
        );
        prop_assert_eq!(
            first,
            (alpha, beta),
            "rank {}: calibration diverged across ranks",
            r
        );
    }
    Ok(())
}

proptest! {
    // Session-level sims spin one thread per rank; keep the case count
    // below the kernel-level tests'.
    #![proptest_config(ProptestConfig::with_cases(10))]

    // Across random asymmetric topologies (node sizes 1..=5, including
    // non-power-of-two leader counts), the two-level lossless allreduce
    // is bit-identical to the flat ring — at one sub-chunk, and in three
    // sub-chunks and a ragged fourth (nodes of 3..=5 ranks: streamed
    // group legs, or binomial ones whose raw edges stream).
    #[test]
    fn hierarchical_allreduce_matches_flat_ring_bitwise(
        shape in prop_oneof![
            (prop::collection::vec(1usize..=5, 2..=4), 64usize..600),
            (prop::collection::vec(3usize..=5, 2..=3), 3 * CHUNK + 1..4 * CHUNK),
        ],
        seed in any::<u64>(),
    ) {
        let (sizes, len) = shape;
        check_hier_allreduce_bitwise(&sizes, len, seed)?;
    }

    // The compressed two-level allreduce stays inside the linear error
    // envelope on every asymmetric topology.
    #[test]
    fn hierarchical_allreduce_error_bounded_szx(
        sizes in prop::collection::vec(1usize..=5, 2..=4),
        len in 100usize..1500,
        seed in any::<u64>(),
    ) {
        check_hier_allreduce_szx(&sizes, len, seed)?;
    }

    // The hierarchical allgather reproduces every rank's block exactly
    // (lossless) on asymmetric topologies with uniform counts.
    #[test]
    fn hierarchical_allgather_matches_sources_bitwise(
        sizes in prop::collection::vec(1usize..=5, 2..=4),
        len in 32usize..400,
        seed in any::<u64>(),
    ) {
        check_hier_allgather_bitwise(&sizes, len, seed)?;
    }

    // Bruck and pairwise all-to-all are pure data movement: their
    // outputs must be bit-identical for any world size and block.
    #[test]
    fn bruck_alltoall_matches_pairwise_prop(
        n in 2usize..=9,
        block in 1usize..200,
        seed in any::<u64>(),
    ) {
        check_bruck_alltoall(n, block, seed)?;
    }

    // Online calibration converges in the correcting direction: under
    // a model that is too optimistic by a random factor, the agreed
    // α–β scales move above 1 within a few calibration periods, stay
    // inside the clamp, and agree across every rank.
    #[test]
    fn calibration_converges_against_optimistic_models(
        n in 2usize..=5,
        len in 4000usize..16_000,
        speedup in 1e3f64..1e8,
    ) {
        check_calibration_convergence(n, len, speedup)?;
    }
}
