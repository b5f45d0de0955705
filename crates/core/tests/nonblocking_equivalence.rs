//! Differential tests for the nonblocking plan API: a
//! `start`/`progress`/`complete` cycle — with application compute
//! interleaved between `progress` calls — must compute the *same
//! collective* as the blocking `execute_into` drive of the same plan.
//!
//! Two regimes, matching the codec taxonomy:
//!
//! * **Lossless codecs** (`CodecSpec::None`, `CodecSpec::Lossless`):
//!   byte-exact transport and a suspension-independent processing order
//!   (sub-chunks are fuse-reduced FIFO at fixed boundaries, monolithic
//!   rounds process whole payloads), so the nonblocking result must be
//!   **bitwise identical** to the blocking one, across worlds 2–9
//!   including non-powers-of-two (which exercise the butterfly
//!   fold/unfold and the partial Bruck step).
//! * **Lossy codecs** (SZx): the wire traffic is identical — the same
//!   values are compressed at the same sub-chunk boundaries — so the
//!   nonblocking result is bitwise identical there too; the tests
//!   additionally pin the SZx error envelope against the exact oracle.
//!
//! Property-based: rank counts, lengths, seeds and the compute grain
//! interleaved between `progress` calls are drawn by proptest.

// The proptest shim's macro expands recursively per body token.
#![recursion_limit = "4096"]

use std::time::Duration;

use c_coll::{Algorithm, CCollSession, CodecSpec, PlanOptions, Poll, ReduceOp};
use ccoll_comm::{Category, Comm, HierNet, SimConfig, SimWorld, Topology};
use proptest::prelude::*;

/// Integer-valued rank data: f32 arithmetic on these is exact, so
/// reduction order cannot matter.
fn integer_data(rank: usize, len: usize, seed: u64) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let x = (i as u64)
                .wrapping_mul(0x9E37_79B9)
                .wrapping_add(rank as u64 * 2654435761)
                .wrapping_add(seed);
            ((x % 201) as f32) - 100.0
        })
        .collect()
}

/// Smooth lossy-codec test data.
fn smooth_data(rank: usize, len: usize, seed: u64) -> Vec<f32> {
    (0..len)
        .map(|i| ((i as f32) * 2e-3 + (seed % 97) as f32 + rank as f32 * 0.37).sin() * 3.0)
        .collect()
}

/// Drive a handle nonblockingly: poll, interleave a slice of virtual
/// application compute per `Pending`, and `complete` the tail. The
/// compute grain varies by seed so suspension happens at different
/// points across cases.
macro_rules! drive_nonblocking {
    ($handle:expr, $comm:expr, $grain_ns:expr) => {{
        let mut handle = $handle;
        let mut spins = 0u32;
        while let Poll::Pending = handle.progress($comm) {
            if $grain_ns > 0 {
                $comm.charge_duration(Duration::from_nanos($grain_ns), Category::Others);
            }
            spins += 1;
            if spins > 200_000 {
                break; // complete() finishes whatever remains
            }
        }
        handle.complete($comm)
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    // Nonblocking allreduce ≡ blocking allreduce, bitwise, on every
    // schedule, under byte-exact transport and exact arithmetic.
    #[test]
    fn nonblocking_allreduce_bitwise_matches_blocking_when_lossless(
        n in 2usize..=9,
        len in 1usize..400,
        seed in any::<u64>(),
        grain_idx in 0usize..4,
    ) {
        let grain = [0u64, 500, 20_000, 1_000_000][grain_idx];
        for spec in [CodecSpec::None, CodecSpec::Lossless] {
            for algorithm in [
                Algorithm::Ring,
                Algorithm::RecursiveDoubling,
                Algorithm::Rabenseifner,
            ] {
                let run = |nonblocking: bool| {
                    let world = SimWorld::new(SimConfig::new(n));
                    world.run(move |c| {
                        let session = CCollSession::new(spec, n);
                        let mut plan = session.plan_allreduce_with(
                            len,
                            ReduceOp::Sum,
                            PlanOptions::new().algorithm(algorithm),
                        );
                        let data = integer_data(c.rank(), len, seed);
                        let mut out = vec![0.0f32; len];
                        if nonblocking {
                            drive_nonblocking!(plan.start(c, &data, &mut out), c, grain);
                        } else {
                            plan.execute_into(c, &data, &mut out);
                        }
                        out
                    }).results
                };
                let blocking = run(false);
                let nonblocking = run(true);
                for r in 0..n {
                    prop_assert_eq!(
                        &nonblocking[r], &blocking[r],
                        "{:?}/{:?} nonblocking diverged on rank {} (n={}, len={}, grain={})",
                        algorithm, spec, r, n, len, grain
                    );
                }
            }
        }
    }

    // Nonblocking lossy allreduce: bitwise-identical to blocking (same
    // wire traffic) AND inside the SZx error envelope of the oracle.
    #[test]
    fn nonblocking_allreduce_bounded_and_stable_when_lossy(
        n in 2usize..=9,
        len in 1usize..400,
        seed in any::<u64>(),
        grain_idx in 0usize..3,
    ) {
        let grain = [0u64, 1_000, 150_000][grain_idx];
        let eb = 1e-3f32;
        let spec = CodecSpec::Szx { error_bound: eb };
        let inputs: Vec<Vec<f32>> = (0..n).map(|r| smooth_data(r, len, seed)).collect();
        let expect = ReduceOp::Sum.oracle(&inputs);
        for algorithm in [
            Algorithm::Ring,
            Algorithm::RecursiveDoubling,
            Algorithm::Rabenseifner,
        ] {
            let run = |nonblocking: bool| {
                let world = SimWorld::new(SimConfig::new(n));
                world.run(move |c| {
                    let session = CCollSession::new(spec, n);
                    let mut plan = session.plan_allreduce_with(
                        len,
                        ReduceOp::Sum,
                        PlanOptions::new().algorithm(algorithm),
                    );
                    let data = smooth_data(c.rank(), len, seed);
                    let mut out = vec![0.0f32; len];
                    if nonblocking {
                        drive_nonblocking!(plan.start(c, &data, &mut out), c, grain);
                    } else {
                        plan.execute_into(c, &data, &mut out);
                    }
                    out
                }).results
            };
            let blocking = run(false);
            let nonblocking = run(true);
            let tol = 4.0 * (n as f32) * eb;
            for r in 0..n {
                prop_assert_eq!(
                    &nonblocking[r], &blocking[r],
                    "{:?} lossy nonblocking diverged from blocking on rank {}",
                    algorithm, r
                );
                for (a, b) in nonblocking[r].iter().zip(&expect) {
                    prop_assert!(
                        (a - b).abs() <= tol,
                        "{:?} rank {}: {} vs {} exceeds envelope {}",
                        algorithm, r, a, b, tol
                    );
                }
            }
        }
    }

    // Nonblocking ≡ blocking for the data-movement and reduce-scatter
    // plans: allgather (ring + Bruck), reduce-scatter, rooted reduce
    // (both schedules), bcast and all-to-all, lossless bitwise.
    #[test]
    fn nonblocking_movement_plans_bitwise_match_blocking_when_lossless(
        n in 2usize..=9,
        len_per_rank in 1usize..120,
        seed in any::<u64>(),
        grain_idx in 0usize..3,
    ) {
        let grain = [0u64, 2_000, 400_000][grain_idx];
        let spec = CodecSpec::Lossless;
        let root = (seed as usize) % n;
        let run = |nonblocking: bool| {
            let world = SimWorld::new(SimConfig::new(n));
            world.run(move |c| {
                let me = c.rank();
                let session = CCollSession::new(spec, n);
                let data = integer_data(me, len_per_rank, seed);
                let total = len_per_rank * n;
                let full = integer_data(99, total, seed);

                // Allgather: ring and Bruck.
                let mut ag_out = vec![0.0f32; total];
                let mut bruck_out = vec![0.0f32; total];
                // Reduce-scatter.
                let mut rs_plan = session.plan_reduce_scatter(len_per_rank, ReduceOp::Sum);
                let mut rs_out = vec![0.0f32; rs_plan.output_len(me)];
                // Rooted reduce, both schedules.
                let mut rr_out = vec![0.0f32; if me == root { len_per_rank } else { 0 }];
                let mut tr_out = vec![0.0f32; if me == root { len_per_rank } else { 0 }];
                // Bcast + alltoall.
                let mut bc_out = vec![0.0f32; len_per_rank];
                let bc_data = if me == root { data.clone() } else { Vec::new() };
                let mut a2a_out = vec![0.0f32; total];
                let a2a_send = integer_data(me, total, seed ^ 0xA5A5);

                let mut ag = session.plan_allgather(len_per_rank);
                let mut bruck = session
                    .plan_allgather_with(len_per_rank, PlanOptions::new().algorithm(Algorithm::Bruck));
                let mut rsg = session.plan_reduce_with(
                    root, len_per_rank, ReduceOp::Sum,
                    PlanOptions::new().algorithm(Algorithm::Rabenseifner),
                );
                let mut tree = session.plan_reduce_with(
                    root, len_per_rank, ReduceOp::Sum,
                    PlanOptions::new().algorithm(Algorithm::Binomial),
                );
                let mut bcast = session.plan_bcast(root, len_per_rank);
                let mut a2a = session.plan_alltoall(total);
                let _ = &full;

                if nonblocking {
                    drive_nonblocking!(ag.start(c, &data, &mut ag_out), c, grain);
                    drive_nonblocking!(bruck.start(c, &data, &mut bruck_out), c, grain);
                    drive_nonblocking!(rs_plan.start(c, &data, &mut rs_out), c, grain);
                    drive_nonblocking!(rsg.start(c, &data, &mut rr_out), c, grain);
                    drive_nonblocking!(tree.start(c, &data, &mut tr_out), c, grain);
                    drive_nonblocking!(bcast.start(c, &bc_data, &mut bc_out), c, grain);
                    drive_nonblocking!(a2a.start(c, &a2a_send, &mut a2a_out), c, grain);
                } else {
                    ag.execute_into(c, &data, &mut ag_out);
                    bruck.execute_into(c, &data, &mut bruck_out);
                    rs_plan.execute_into(c, &data, &mut rs_out);
                    rsg.execute_into(c, &data, &mut rr_out);
                    tree.execute_into(c, &data, &mut tr_out);
                    bcast.execute_into(c, &bc_data, &mut bc_out);
                    a2a.execute_into(c, &a2a_send, &mut a2a_out);
                }
                (ag_out, bruck_out, rs_out, rr_out, tr_out, bc_out, a2a_out)
            }).results
        };
        let blocking = run(false);
        let nonblocking = run(true);
        for r in 0..n {
            prop_assert_eq!(&nonblocking[r].0, &blocking[r].0, "ring allgather rank {}", r);
            prop_assert_eq!(&nonblocking[r].1, &blocking[r].1, "bruck allgather rank {}", r);
            prop_assert_eq!(&nonblocking[r].2, &blocking[r].2, "reduce-scatter rank {}", r);
            prop_assert_eq!(&nonblocking[r].3, &blocking[r].3, "rs+gather reduce rank {}", r);
            prop_assert_eq!(&nonblocking[r].4, &blocking[r].4, "tree reduce rank {}", r);
            prop_assert_eq!(&nonblocking[r].5, &blocking[r].5, "bcast rank {}", r);
            prop_assert_eq!(&nonblocking[r].6, &blocking[r].6, "alltoall rank {}", r);
        }
    }
}

/// A streamed bcast (≥ 4 sub-chunks, lossy codec) suspended after every
/// step — grain 1 ns, so each `progress` call lands between two
/// sub-chunks — leaves the same bits and sends the same messages and
/// bytes as the blocking drive: the sub-chunk sequence is independent of
/// where the relay cursor suspended.
#[test]
fn nonblocking_streamed_bcast_matches_blocking_bits_and_bytes() {
    let chunk = 128;
    let len = 4 * chunk + 37;
    for n in [2usize, 3, 6, 9] {
        let root = n / 2;
        let run = |nonblocking: bool| {
            SimWorld::new(SimConfig::new(n))
                .run(move |c| {
                    let session = CCollSession::new(CodecSpec::Szx { error_bound: 1e-3 }, n)
                        .with_pipeline_values(chunk);
                    let mut plan = session.plan_bcast(root, len);
                    let data = if c.rank() == root {
                        smooth_data(root, len, 5)
                    } else {
                        Vec::new()
                    };
                    let mut out = vec![0.0f32; len];
                    if nonblocking {
                        drive_nonblocking!(plan.start(c, &data, &mut out), c, 1u64);
                    } else {
                        plan.execute_into(c, &data, &mut out);
                    }
                    let traffic = c.profiler().traffic();
                    (out, traffic.messages_sent, traffic.bytes_sent)
                })
                .results
        };
        let blocking = run(false);
        let nonblocking = run(true);
        assert_eq!(nonblocking, blocking, "world {n}");
        let sent: u64 = blocking.iter().map(|r| r.1).sum();
        assert_eq!(sent, ((n - 1) * len.div_ceil(chunk)) as u64, "world {n}");
    }
}

/// The compress-once ring allgather streams every block in sub-chunks
/// of the default pipe (three and a ragged fourth here), standalone and
/// as the allreduce's second stage. Suspended after every step — grain
/// 1 ns — it leaves the same bits and sends the same messages and bytes
/// as the blocking drive: one message per sub-chunk per round and no
/// size step.
#[test]
fn nonblocking_streamed_allgather_matches_blocking_bits_and_bytes() {
    let chunk = c_coll::frameworks::computation::DEFAULT_PIPE_VALUES;
    let block = 3 * chunk + 37;
    let pieces = block.div_ceil(chunk) as u64;
    for n in [3usize, 8] {
        let run = |nonblocking: bool| {
            SimWorld::new(SimConfig::new(n))
                .run(move |c| {
                    let session = CCollSession::new(CodecSpec::Szx { error_bound: 1e-3 }, n);
                    let mut gather = session.plan_allgather(block);
                    let mut reduce = session.plan_allreduce(n * block, ReduceOp::Sum);
                    let mine = smooth_data(c.rank(), block, 3);
                    let data = smooth_data(c.rank(), n * block, 9);
                    let (mut gathered, mut reduced) =
                        (vec![0.0f32; n * block], vec![0.0; n * block]);
                    if nonblocking {
                        drive_nonblocking!(gather.start(c, &mine, &mut gathered), c, 1u64);
                        drive_nonblocking!(reduce.start(c, &data, &mut reduced), c, 1u64);
                    } else {
                        gather.execute_into(c, &mine, &mut gathered);
                        reduce.execute_into(c, &data, &mut reduced);
                    }
                    let traffic = c.profiler().traffic();
                    (gathered, reduced, traffic.messages_sent, traffic.bytes_sent)
                })
                .results
        };
        let blocking = run(false);
        assert_eq!(run(true), blocking, "world {n}");
        // The allgather's n − 1 rounds, then the allreduce's n − 1
        // reduce-scatter and n − 1 allgather rounds, on every rank.
        for (rank, r) in blocking.iter().enumerate() {
            assert_eq!(r.2, 3 * (n as u64 - 1) * pieces, "world {n} rank {rank}");
        }
    }
}

/// A recursive doubling on a lossy session runs every round as an
/// in-place PIPE-SZx exchange (three sub-chunks and a ragged fourth
/// here). Suspended after every step — grain 1 ns — it leaves the same
/// bits and sends the same messages and bytes as the blocking drive, on
/// a world with a fold and unfold (6) and on one without (8).
#[test]
fn nonblocking_piped_recursive_doubling_matches_blocking_bits_and_bytes() {
    let chunk = 128usize;
    let len = 3 * chunk + 37;
    let pieces = len.div_ceil(chunk) as u64;
    for n in [6usize, 8] {
        let run = |nonblocking: bool| {
            SimWorld::new(SimConfig::new(n))
                .run(move |c| {
                    let session = CCollSession::new(CodecSpec::Szx { error_bound: 1e-3 }, n)
                        .with_pipeline_values(chunk);
                    let opts = PlanOptions::new().algorithm(Algorithm::RecursiveDoubling);
                    let mut plan = session.plan_allreduce_with(len, ReduceOp::Sum, opts);
                    let data = smooth_data(c.rank(), len, 7);
                    let mut out = vec![0.0f32; len];
                    if nonblocking {
                        drive_nonblocking!(plan.start(c, &data, &mut out), c, 1u64);
                    } else {
                        plan.execute_into(c, &data, &mut out);
                    }
                    let traffic = c.profiler().traffic();
                    (out, traffic.messages_sent, traffic.bytes_sent)
                })
                .results
        };
        let blocking = run(false);
        assert_eq!(run(true), blocking, "world {n}");
        // Every rank of the power-of-two core streams each round; the
        // fold streams too, and each unfold is one message.
        let (pow2, rem) = (1 << n.ilog2(), n - (1 << n.ilog2()));
        let rounds = u64::from(n.ilog2()) * pow2 as u64;
        let expect = (rounds + rem as u64) * pieces + rem as u64;
        let sent: u64 = blocking.iter().map(|r| r.1).sum();
        assert_eq!(sent, expect, "world {n}");
    }
}

/// The laned hierarchical allreduce at more than one lane — seven legs
/// over four different sub-communicators — suspended at every grain
/// leaves the same bits and sends the same messages and bytes as the
/// blocking drive, raw and compressed, on an asymmetric cluster whose
/// groups include a one-rank group (an owner with nobody to fan out to)
/// and whose odd nodes have a partial row (a member that folds into the
/// row above and gets the result back).
#[test]
fn nonblocking_laned_hierarchical_matches_blocking_bits_and_bytes() {
    let sizes = [4usize, 3, 5];
    let n: usize = sizes.iter().sum();
    let len = 10_000;
    for spec in [CodecSpec::None, CodecSpec::Szx { error_bound: 1e-3 }] {
        for grain in [0u64, 700, 40_000] {
            let run = |nonblocking: bool| {
                SimWorld::new(SimConfig::new(n))
                    .run(move |c| {
                        let session = CCollSession::new(spec, n).with_topology(
                            Topology::from_node_sizes(&sizes),
                            HierNet::cluster_default(),
                        );
                        let mut plan = session.plan_allreduce_with(
                            len,
                            ReduceOp::Sum,
                            PlanOptions::new().algorithm(Algorithm::Hierarchical),
                        );
                        assert_eq!(plan.hier_lanes(), Some(2), "the case under test");
                        assert_eq!(plan.hier_streamed(), Some(false), "the case under test");
                        let data = smooth_data(c.rank(), len, 11);
                        let mut out = vec![0.0f32; len];
                        if nonblocking {
                            drive_nonblocking!(plan.start(c, &data, &mut out), c, grain);
                        } else {
                            plan.execute_into(c, &data, &mut out);
                        }
                        let traffic = c.profiler().traffic();
                        (out, traffic.messages_sent, traffic.bytes_sent)
                    })
                    .results
            };
            assert_eq!(run(true), run(false), "{spec:?} at grain {grain}");
        }
    }
}

/// A hierarchical allreduce whose group legs stream as sub-chunk chains
/// (two lanes of six sub-chunks and a ragged seventh, groups of up to
/// seven ranks, a partial row on the 13-rank node, a three-rank node
/// capping the lanes at two) started, progressed
/// without blocking for as long as that does any work, and completed is
/// the blocking drive exactly: the same bits on every rank, the same
/// messages and bytes, the same virtual time. Where the chain cursors
/// suspended cannot show.
#[test]
fn nonblocking_streamed_hierarchical_matches_blocking_bits_time_and_messages() {
    let sizes = [14usize, 13, 3];
    let n: usize = sizes.iter().sum();
    let len = 2 * (6 * 5120 + 1400);
    for spec in [CodecSpec::None, CodecSpec::Szx { error_bound: 1e-3 }] {
        let run = |nonblocking: bool| {
            SimWorld::new(SimConfig::new(n))
                .run(move |c| {
                    let session = CCollSession::new(spec, n).with_topology(
                        Topology::from_node_sizes(&sizes),
                        HierNet::cluster_default(),
                    );
                    let mut plan = session.plan_allreduce_with(
                        len,
                        ReduceOp::Sum,
                        PlanOptions::new().algorithm(Algorithm::Hierarchical),
                    );
                    let shape = (plan.hier_lanes(), plan.hier_streamed());
                    assert_eq!(shape, (Some(2), Some(true)), "the case under test");
                    let data = integer_data(c.rank(), len, 3);
                    let mut out = vec![0.0f32; len];
                    if nonblocking {
                        let mut handle = plan.start(c, &data, &mut out);
                        for _ in 0..16 {
                            if handle.progress(c).is_ready() {
                                break;
                            }
                        }
                        handle.complete(c);
                    } else {
                        plan.execute_into(c, &data, &mut out);
                    }
                    let traffic = c.profiler().traffic();
                    (out, traffic.messages_sent, traffic.bytes_sent, c.now())
                })
                .results
        };
        assert_eq!(run(true), run(false), "{spec:?}");
    }
}

/// The tentpole property: a nonblocking allreduce with application
/// compute interleaved between `progress` calls finishes sooner than
/// the blocking call followed by the same compute — the collective's
/// wait time is filled with useful work.
#[test]
fn nonblocking_allreduce_overlaps_compute() {
    let n = 8;
    let len = 200_000;
    let compute = Duration::from_millis(2);
    let slices = 64;
    let run = |nonblocking: bool| {
        let world = SimWorld::new(SimConfig::new(n));
        world
            .run(move |c| {
                let session = CCollSession::new(CodecSpec::Szx { error_bound: 1e-3 }, n);
                let mut plan = session.plan_allreduce(len, ReduceOp::Sum);
                let data = smooth_data(c.rank(), len, 7);
                let mut out = vec![0.0f32; len];
                for _ in 0..3 {
                    if nonblocking {
                        let mut handle = plan.start(c, &data, &mut out);
                        for _ in 0..slices {
                            c.charge_duration(compute / slices, Category::Others);
                            let _ = handle.progress(c);
                        }
                        handle.complete(c);
                    } else {
                        plan.execute_into(c, &data, &mut out);
                        c.charge_duration(compute, Category::Others);
                    }
                }
                out[0]
            })
            .makespan
    };
    let blocking = run(false);
    let nonblocking = run(true);
    assert!(
        nonblocking < blocking,
        "nonblocking {nonblocking:?} should undercut blocking {blocking:?}"
    );
}

/// Starting a plan twice without completing is impossible by borrow;
/// dropping a handle mid-flight poisons the plan.
#[test]
fn dropped_handle_poisons_plan() {
    let n = 2;
    let world = SimWorld::new(SimConfig::new(n));
    let out = world.run(move |c| {
        let session = CCollSession::new(CodecSpec::None, n);
        let mut plan = session.plan_allreduce(64, ReduceOp::Sum);
        let data = vec![1.0f32; 64];
        let mut out = vec![0.0f32; 64];
        {
            let mut h = plan.start(c, &data, &mut out);
            let _ = h.progress(c);
            // dropped here without complete()
        }
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = plan.start(c, &data, &mut out);
        }))
        .is_err();
        // Unblock the peer rank that is still inside its collective:
        // finish our half via a fresh plan on the same tag space is NOT
        // safe — instead just report and let the world tear down.
        poisoned
    });
    assert!(out.results.iter().all(|&p| p), "{:?}", out.results);
}
