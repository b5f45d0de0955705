//! Differential tests for the algorithm layer: every alternative
//! schedule must compute the *same collective* as the ring reference.
//!
//! Two regimes, matching the codec taxonomy:
//!
//! * **Lossless codecs** (`CodecSpec::None`, `CodecSpec::Lossless`):
//!   byte-exact transport, so any cross-schedule difference can only
//!   come from floating-point reduction order. The tests drive
//!   *integer-valued* inputs whose sums stay exactly representable in
//!   f32 (magnitudes ≪ 2²⁴), where +,max,min are associative — so every
//!   schedule must be **bitwise identical** to the ring result, across
//!   worlds 2–9 including non-powers-of-two (which exercise the
//!   butterfly fold/unfold and the partial Bruck step). The five
//!   placements no plan selects (the CPR-P2P ring stages, butterfly and
//!   tree, and the monolithic compress-once allgather) join this regime
//!   through their free functions.
//! * **Lossy codecs** (SZx): each schedule must stay within its
//!   compression-error envelope of the exact oracle — `k·eb` where `k`
//!   counts the compression stages on the schedule's critical path.
//!
//! Property-based: rank counts, lengths and seeds are drawn by proptest.

// The proptest shim's macro expands recursively per body token.
#![recursion_limit = "4096"]

use c_coll::collectives::cpr_p2p::{
    cpr_binomial_bcast_into, cpr_binomial_reduce_into, cpr_binomial_scatter_into,
    cpr_pairwise_alltoall_into, cpr_rabenseifner_allreduce_into, cpr_ring_allgatherv_into,
    cpr_ring_reduce_scatter_into, CprCodec,
};
use c_coll::frameworks::data_movement::c_ring_allgatherv_monolithic_into;
use c_coll::partition::chunk_lengths;
use c_coll::{Algorithm, CCollSession, CodecSpec, CollWorkspace, PlanOptions, ReduceOp};
use ccoll_comm::{Comm, SimConfig, SimWorld};
use ccoll_compress::{Compressor, SzxCodec};
use proptest::prelude::*;

/// The codec of `spec` as the free-function baselines take it.
fn cpr(spec: CodecSpec) -> CprCodec {
    CprCodec::from_spec(spec).expect("compressed spec")
}

/// Integer-valued rank data: f32 arithmetic on these is exact for sums
/// of up to thousands of terms, so reduction order cannot matter.
fn integer_data(rank: usize, len: usize, seed: u64) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let x = (i as u64)
                .wrapping_mul(0x9E37_79B9)
                .wrapping_add(rank as u64 * 2654435761)
                .wrapping_add(seed);
            ((x % 201) as f32) - 100.0 // integers in [-100, 100]
        })
        .collect()
}

/// Smooth lossy-codec test data.
fn smooth_data(rank: usize, len: usize, seed: u64) -> Vec<f32> {
    (0..len)
        .map(|i| ((i as f32) * 2e-3 + (seed % 97) as f32 + rank as f32 * 0.37).sin() * 3.0)
        .collect()
}

/// Run one allreduce plan per rank and return every rank's result.
fn run_allreduce(
    n: usize,
    len: usize,
    seed: u64,
    spec: CodecSpec,
    algorithm: Algorithm,
    op: ReduceOp,
    integer: bool,
) -> Vec<Vec<f32>> {
    let world = SimWorld::new(SimConfig::new(n));
    let out = world.run(move |c| {
        let session = CCollSession::new(spec, n);
        let mut plan =
            session.plan_allreduce_with(len, op, PlanOptions::new().algorithm(algorithm));
        let data = if integer {
            integer_data(c.rank(), len, seed)
        } else {
            smooth_data(c.rank(), len, seed)
        };
        plan.execute(c, &data)
    });
    out.results
}

/// The allreduce (or, for `Reduce`, rank 0's rooted reduce) of integer
/// data through the placements no plan selects, on the lossless codec.
#[derive(Debug, Clone, Copy)]
enum Driven {
    /// CPR-P2P reduce-scatter + CPR-P2P allgather (DI).
    RingCpr,
    /// CPR-P2P reduce-scatter + monolithic compress-once allgather (ND).
    RingMonolithic,
    /// CPR-P2P Rabenseifner butterfly.
    Rabenseifner,
    /// CPR-P2P binomial tree to root 0.
    Reduce,
}

fn run_driven(n: usize, len: usize, seed: u64, op: ReduceOp, which: Driven) -> Vec<Vec<f32>> {
    let world = SimWorld::new(SimConfig::new(n));
    let out = world.run(move |c| {
        let me = c.rank();
        let cpr = cpr(CodecSpec::Lossless);
        let data = integer_data(me, len, seed);
        let counts = chunk_lengths(len, n);
        let mut mine = vec![0.0f32; counts[me]];
        let mut out = vec![0.0f32; len];
        let mut ws = CollWorkspace::new();
        match which {
            Driven::RingCpr | Driven::RingMonolithic => {
                cpr_ring_reduce_scatter_into(c, &cpr, &data, op, &mut mine, &mut ws);
                if let Driven::RingCpr = which {
                    cpr_ring_allgatherv_into(c, &cpr, &mine, &counts, &mut out, &mut ws);
                } else {
                    c_ring_allgatherv_monolithic_into(c, &cpr, &mine, &counts, &mut out, &mut ws);
                }
            }
            Driven::Rabenseifner => {
                cpr_rabenseifner_allreduce_into(c, &cpr, &data, op, &mut out, &mut ws)
            }
            Driven::Reduce => {
                let root = cpr_binomial_reduce_into(c, &cpr, 0, &data, op, &mut out, &mut ws);
                assert_eq!(root, me == 0);
            }
        }
        out
    });
    out.results
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Bitwise ring-equivalence of every allreduce schedule under
    // byte-exact transport and exact arithmetic.
    #[test]
    fn allreduce_schedules_bitwise_match_ring_when_lossless(
        n in 2usize..=9,
        len in 1usize..400,
        seed in any::<u64>(),
        op_idx in 0usize..3,
    ) {
        let op = [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min][op_idx];
        for spec in [CodecSpec::None, CodecSpec::Lossless] {
            let ring = run_allreduce(n, len, seed, spec, Algorithm::Ring, op, true);
            for algorithm in [Algorithm::RecursiveDoubling, Algorithm::Rabenseifner] {
                let alt = run_allreduce(n, len, seed, spec, algorithm, op, true);
                for r in 0..n {
                    prop_assert_eq!(
                        &alt[r], &ring[r],
                        "{:?}/{:?} diverged from ring on rank {} (n={}, len={})",
                        algorithm, spec, r, n, len
                    );
                }
            }
        }
        let ring = run_allreduce(n, len, seed, CodecSpec::Lossless, Algorithm::Ring, op, true);
        for which in [
            Driven::RingCpr,
            Driven::RingMonolithic,
            Driven::Rabenseifner,
            Driven::Reduce,
        ] {
            let alt = run_driven(n, len, seed, op, which);
            // The rooted reduce leaves its result on rank 0 only.
            let holders = if let Driven::Reduce = which { 1 } else { n };
            for r in 0..holders {
                prop_assert_eq!(
                    &alt[r], &ring[r],
                    "{:?} diverged from ring on rank {} (n={}, len={})", which, r, n, len
                );
            }
        }
    }

    // Every lossy allreduce schedule stays inside its error envelope of
    // the exact oracle.
    #[test]
    fn allreduce_schedules_bounded_when_lossy(
        n in 2usize..=9,
        len in 1usize..400,
        seed in any::<u64>(),
    ) {
        let eb = 1e-3f32;
        let spec = CodecSpec::Szx { error_bound: eb };
        let inputs: Vec<Vec<f32>> = (0..n).map(|r| smooth_data(r, len, seed)).collect();
        let expect = ReduceOp::Sum.oracle(&inputs);
        for algorithm in [
            Algorithm::Ring,
            Algorithm::RecursiveDoubling,
            Algorithm::Rabenseifner,
        ] {
            let got = run_allreduce(n, len, seed, spec, algorithm, ReduceOp::Sum, false);
            // Worst case: one bounded perturbation per compression stage
            // on the critical path, ≤ one per rank plus the allgather
            // hop(s); butterflies re-compress per round (≤ log₂n + 2).
            let tol = 4.0 * (n as f32) * eb;
            for (r, rank_out) in got.iter().enumerate() {
                for (a, b) in rank_out.iter().zip(&expect) {
                    prop_assert!(
                        (a - b).abs() <= tol,
                        "{:?} rank {} out of envelope: {} vs {} (n={}, len={})",
                        algorithm, r, a, b, n, len
                    );
                }
            }
        }
    }

    // Bruck allgather is bitwise identical to the ring allgather under
    // byte-exact transport (no arithmetic happens at all), and inside
    // the single-compression bound under SZx.
    #[test]
    fn allgather_bruck_matches_ring(
        n in 2usize..=9,
        len in 1usize..300,
        seed in any::<u64>(),
    ) {
        for spec in [CodecSpec::None, CodecSpec::Lossless] {
            let run = |algorithm: Algorithm| {
                let world = SimWorld::new(SimConfig::new(n));
                world
                    .run(move |c| {
                        let session = CCollSession::new(spec, n);
                        let mut plan = session
                            .plan_allgather_with(len, PlanOptions::new().algorithm(algorithm));
                        plan.execute(c, &integer_data(c.rank(), len, seed))
                    })
                    .results
            };
            let ring = run(Algorithm::Ring);
            let bruck = run(Algorithm::Bruck);
            for r in 0..n {
                prop_assert_eq!(
                    &bruck[r], &ring[r],
                    "Bruck/{:?} diverged on rank {} (n={}, len={})", spec, r, n, len
                );
            }
        }
        // Lossy: single-compression error bound (the compress-once
        // property survives the Bruck relay).
        let eb = 1e-3f32;
        let world = SimWorld::new(SimConfig::new(n));
        let out = world.run(move |c| {
            let session = CCollSession::new(CodecSpec::Szx { error_bound: eb }, n);
            let mut plan =
                session.plan_allgather_with(len, PlanOptions::new().algorithm(Algorithm::Bruck));
            plan.execute(c, &smooth_data(c.rank(), len, seed))
        });
        for r in 0..n {
            for src in 0..n {
                let expect = smooth_data(src, len, seed);
                let got = &out.results[r][src * len..(src + 1) * len];
                for (a, b) in expect.iter().zip(got) {
                    prop_assert!(
                        (a - b).abs() <= eb + 1e-6,
                        "rank {} block {} beyond single bound (n={}, len={})", r, src, n, len
                    );
                }
            }
        }
    }

    // The PR-4 pipelined allgather relay (decompress arrived blocks
    // while later relays are in flight) is a pure reordering: bitwise
    // identical to the monolithic relay-then-sweep schedule for every
    // codec, lossless AND lossy — the same compress-once blocks decode
    // to the same values regardless of interleaving.
    #[test]
    fn pipelined_allgather_relay_bitwise_matches_monolithic(
        n in 2usize..=9,
        len in 1usize..300,
        seed in any::<u64>(),
    ) {
        for spec in [CodecSpec::Lossless, CodecSpec::Szx { error_bound: 1e-3 }] {
            let run = |overlap: bool| {
                let world = SimWorld::new(SimConfig::new(n));
                world
                    .run(move |c| {
                        let mine = smooth_data(c.rank(), len, seed);
                        if overlap {
                            return CCollSession::new(spec, n).plan_allgather(len).execute(c, &mine);
                        }
                        let counts = vec![len; n];
                        let mut out = vec![0.0f32; len * n];
                        let mut ws = CollWorkspace::new();
                        c_ring_allgatherv_monolithic_into(
                            c, &cpr(spec), &mine, &counts, &mut out, &mut ws,
                        );
                        out
                    })
                    .results
            };
            let mono = run(false);
            let piped = run(true);
            for r in 0..n {
                prop_assert_eq!(
                    &piped[r], &mono[r],
                    "overlapped relay diverged on rank {} (n={}, len={})", r, n, len
                );
            }
        }
    }

    // The pipelined binomial-tree reduce (sub-chunked hops with fused
    // decompress-reduce) stays within the same accumulated error
    // envelope as its monolithic CPR form, on every root and world size.
    #[test]
    fn pipelined_tree_reduce_bounded_against_oracle(
        n in 2usize..=9,
        len in 1usize..400,
        root in 0usize..9,
        seed in any::<u64>(),
    ) {
        let root = root % n;
        let eb = 1e-3f32;
        let inputs: Vec<Vec<f32>> = (0..n).map(|r| smooth_data(r, len, seed)).collect();
        let expect = ReduceOp::Sum.oracle(&inputs);
        let tol = 4.0 * (n as f32) * eb;

        let spec = CodecSpec::Szx { error_bound: eb };
        let world = SimWorld::new(SimConfig::new(n));
        let piped = world.run(move |c| {
            CCollSession::new(spec, n)
                .plan_reduce_with(
                    root,
                    len,
                    ReduceOp::Sum,
                    PlanOptions::new().algorithm(Algorithm::Binomial),
                )
                .execute(c, &smooth_data(c.rank(), len, seed))
        });
        let world = SimWorld::new(SimConfig::new(n));
        let mono = world.run(move |c| {
            let me = c.rank();
            let mut out = vec![0.0f32; if me == root { len } else { 0 }];
            let mut ws = CollWorkspace::new();
            let data = smooth_data(me, len, seed);
            cpr_binomial_reduce_into(c, &cpr(spec), root, &data, ReduceOp::Sum, &mut out, &mut ws)
                .then_some(out)
        });
        for (r, (p, m)) in piped.results.iter().zip(&mono.results).enumerate() {
            prop_assert_eq!(p.is_some(), r == root, "root presence mismatch on rank {}", r);
            prop_assert_eq!(m.is_some(), r == root);
            if r == root {
                for ((a, b), e) in p.as_ref().unwrap().iter()
                    .zip(m.as_ref().unwrap())
                    .zip(&expect)
                {
                    prop_assert!(
                        (a - e).abs() <= tol,
                        "pipelined out of envelope on root {}: {} vs {} (n={}, len={})",
                        root, a, e, n, len
                    );
                    prop_assert!(
                        (b - e).abs() <= tol,
                        "monolithic out of envelope on root {}: {} vs {}", root, b, e
                    );
                }
            }
        }
    }

    // The binomial-tree rooted reduce is bitwise identical to the
    // reduce-scatter + gather composition under exact arithmetic and
    // byte-exact transport.
    #[test]
    fn reduce_schedules_bitwise_match_when_lossless(
        n in 2usize..=9,
        len in 1usize..300,
        root in 0usize..9,
        seed in any::<u64>(),
    ) {
        let root = root % n;
        for spec in [CodecSpec::None, CodecSpec::Lossless] {
            let run = |algorithm: Algorithm| {
                let world = SimWorld::new(SimConfig::new(n));
                world
                    .run(move |c| {
                        let session = CCollSession::new(spec, n);
                        let mut plan = session.plan_reduce_with(
                            root,
                            len,
                            ReduceOp::Sum,
                            PlanOptions::new().algorithm(algorithm),
                        );
                        plan.execute(c, &integer_data(c.rank(), len, seed))
                    })
                    .results
            };
            let composed = run(Algorithm::Rabenseifner);
            let tree = run(Algorithm::Binomial);
            for r in 0..n {
                prop_assert_eq!(composed[r].is_some(), r == root);
                prop_assert_eq!(
                    &tree[r], &composed[r],
                    "binomial/{:?} diverged on rank {} (n={}, root={})", spec, r, n, root
                );
            }
        }
    }
}

/// Steady-state determinism: repeated executions of an algorithm plan at
/// the same inputs are bit-stable (buffers fully reset between calls).
#[test]
fn algorithm_plans_are_bit_stable_across_calls() {
    let n = 5;
    let len = 3000;
    for algorithm in [
        Algorithm::RecursiveDoubling,
        Algorithm::Rabenseifner,
        Algorithm::Bruck,
    ] {
        let world = SimWorld::new(SimConfig::new(n));
        let out = world.run(move |c| {
            let session = CCollSession::new(CodecSpec::Szx { error_bound: 1e-3 }, n);
            if algorithm == Algorithm::Bruck {
                let mut plan =
                    session.plan_allgather_with(len, PlanOptions::new().algorithm(algorithm));
                let data = smooth_data(c.rank(), len, 7);
                let first = plan.execute(c, &data);
                let second = plan.execute(c, &data);
                first == second
            } else {
                let mut plan = session.plan_allreduce_with(
                    len,
                    ReduceOp::Sum,
                    PlanOptions::new().algorithm(algorithm),
                );
                let data = smooth_data(c.rank(), len, 7);
                let first = plan.execute(c, &data);
                let second = plan.execute(c, &data);
                first == second
            }
        });
        for (r, &stable) in out.results.iter().enumerate() {
            assert!(stable, "{algorithm:?} rank {r}: repeat call diverged");
        }
    }
}

/// Recursive doubling under two pipes streams each round (and the fold)
/// as two halves cut on SZx block boundaries, and returns exactly the
/// bits of an oracle that round-trips each round's whole vector through
/// SZx and folds it: the fold, every round and the CPR-P2P unfold, on a
/// power-of-two world and one that folds.
#[test]
fn short_recursive_doubling_halves_return_whole_vector_bits() {
    let eb = 1e-3;
    let szx = SzxCodec::new(eb);
    let round_trip = |v: &[f32]| {
        let stream = szx.compress(v).expect("compresses");
        szx.decompress(&stream).expect("decompresses")
    };
    let fold = |acc: &[f32], got: &[f32]| -> Vec<f32> {
        acc.iter().zip(got).map(|(a, b)| a + b).collect()
    };
    for n in [8, 5] {
        for len in [2048, 3000] {
            let input: Vec<Vec<f32>> = (0..n).map(|r| smooth_data(r, len, 11)).collect();
            let pow2 = 1 << n.ilog2();
            let rem = n - pow2;
            let mut acc: Vec<Vec<f32>> = (0..pow2)
                .map(|pos| match pos < rem {
                    true => fold(&input[2 * pos + 1], &round_trip(&input[2 * pos])),
                    false => input[pos + rem].clone(),
                })
                .collect();
            let mut mask = 1;
            while mask < pow2 {
                let sent: Vec<Vec<f32>> = acc.iter().map(|a| round_trip(a)).collect();
                acc = (0..pow2)
                    .map(|pos| fold(&acc[pos], &sent[pos ^ mask]))
                    .collect();
                mask <<= 1;
            }
            let want: Vec<Vec<f32>> = (0..n)
                .map(|r| match (r < 2 * rem, r % 2) {
                    (true, 0) => round_trip(&acc[r / 2]),
                    (true, _) => acc[r / 2].clone(),
                    (false, _) => acc[r - rem].clone(),
                })
                .collect();

            let world = SimWorld::new(SimConfig::new(n));
            let out = world.run(move |c| {
                let session = CCollSession::new(CodecSpec::Szx { error_bound: eb }, n);
                let rd = PlanOptions::new().algorithm(Algorithm::RecursiveDoubling);
                let mut plan = session.plan_allreduce_with(len, ReduceOp::Sum, rd);
                let got = plan.execute(c, &smooth_data(c.rank(), len, 11));
                (plan.exchange_values(), got)
            });
            // Halves end on SZx's 128-value block boundaries.
            let half = len.div_ceil(2).next_multiple_of(128);
            for (r, (chunk, got)) in out.results.iter().enumerate() {
                assert_eq!(
                    *chunk,
                    Some(half),
                    "{n} ranks, {len} values: the case under test"
                );
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert!(
                    bits(got) == bits(&want[r]),
                    "{n} ranks, {len} values: rank {r} diverged from the oracle"
                );
            }
        }
    }
}

/// The three CPR-P2P data-movement baselines appear in no `BENCH_*.json`,
/// so `--check` cannot see them move: pin their makespan, message count
/// and wire bytes (summed over ranks) on a 7-rank world, root 3.
#[test]
fn cpr_data_movement_baselines_keep_their_virtual_time_and_traffic() {
    const N: usize = 7;
    const ROOT: usize = 3;
    fn data(seed: usize, len: usize) -> Vec<f32> {
        (0..len)
            .map(|i| ((i as f32) * 3e-3).sin() * 5.0 + seed as f32 * 0.125)
            .collect()
    }
    fn assert_pinned(out: ccoll_comm::SimRunOutput<()>, want: (u128, u64, u64), what: &str) {
        let messages: u64 = out.traffics.iter().map(|t| t.messages_sent).sum();
        let bytes: u64 = out.traffics.iter().map(|t| t.bytes_sent).sum();
        assert_eq!(
            (out.makespan.as_nanos(), messages, bytes),
            want,
            "{what}: makespan ns / messages / bytes"
        );
    }
    let world = || SimWorld::new(SimConfig::new(N));
    let szx = || cpr(CodecSpec::Szx { error_bound: 1e-3 });
    let bcast = world().run(move |c| {
        let src = data(ROOT, if c.rank() == ROOT { 20_000 } else { 0 });
        let (mut out, mut ws) = (vec![0.0f32; 20_000], CollWorkspace::new());
        cpr_binomial_bcast_into(c, &szx(), ROOT, &src, &mut out, &mut ws);
    });
    assert_pinned(bcast, (367_523, 6, 75_810), "bcast");
    let scatter = world().run(move |c| {
        let src = data(ROOT, if c.rank() == ROOT { 20_000 } else { 0 });
        let mut out = vec![0.0f32; chunk_lengths(20_000, N)[c.rank()]];
        let mut ws = CollWorkspace::new();
        cpr_binomial_scatter_into(c, &szx(), ROOT, &src, 20_000, &mut out, &mut ws);
    });
    assert_pinned(scatter, (100_344, 6, 16_408), "scatter");
    let alltoall = world().run(move |c| {
        let send = data(c.rank(), N * 3_000);
        let (mut out, mut ws) = (vec![0.0f32; N * 3_000], CollWorkspace::new());
        cpr_pairwise_alltoall_into(c, &szx(), &send, &mut out, &mut ws);
    });
    assert_pinned(alltoall, (143_666, 42, 80_592), "all-to-all");
}

/// The CPR-P2P bcast sends one message per tree edge, `n − 1` in all: a
/// payload carries its own length, so no header travels ahead of it.
#[test]
fn cpr_bcast_sends_one_message_per_tree_edge() {
    for n in [1usize, 2, 5, 8] {
        let out = SimWorld::new(SimConfig::new(n)).run(move |c| {
            let root = n / 2;
            let len = 3_000;
            let src = if c.rank() == root {
                smooth_data(root, len, 5)
            } else {
                Vec::new()
            };
            let (mut out, mut ws) = (vec![0.0f32; len], CollWorkspace::new());
            let codec = cpr(CodecSpec::Szx { error_bound: 1e-3 });
            cpr_binomial_bcast_into(c, &codec, root, &src, &mut out, &mut ws);
            let want = smooth_data(root, len, 5);
            out.iter()
                .zip(&want)
                .all(|(a, b)| (a - b).abs() <= 2e-3 * n as f32)
        });
        let messages: u64 = out.traffics.iter().map(|t| t.messages_sent).sum();
        assert_eq!(messages, n as u64 - 1, "{n} ranks");
        assert!(out.results.iter().all(|&ok| ok), "{n} ranks: output");
    }
}
