//! Differential concurrency harness for the session progress engine:
//! N collectives in flight at once, driven by a [`ProgressEngine`] in
//! randomized interleaved orders, must compute exactly what the same
//! plans compute sequentially.
//!
//! The properties pinned here:
//!
//! * **Interleaving-independence** — 2–8 concurrent operations, with
//!   progress passes interleaved between and after submissions in a
//!   seed-derived order, produce bitwise the sequential `execute_into`
//!   results under lossless codecs (worlds 2–9, round-robin passes,
//!   mixed algorithms), and stay inside the SZx error
//!   envelope under lossy compression.
//! * **Tag isolation** — operations with *identical* shape (same
//!   length, algorithm and codec, so every message is
//!   size-indistinguishable) never capture each other's traffic: only
//!   the per-operation context separates them, and each op's result
//!   is exactly its own reduction.
//! * **Backend-independence** — the same concurrent schedule holds on
//!   the threaded backend, with real parallelism instead of virtual
//!   time.
//! * **Per-op fault isolation** — under a seeded `FaultPlan` kill, an
//!   operation that already completed stays completed and unpoisoned
//!   while its in-flight sibling aborts with a structured error; the
//!   engine retires the aborted op and never wedges.

// The proptest shim's macro expands recursively per body token.
#![recursion_limit = "8192"]

use std::time::Duration;

use c_coll::engine::ProgressEngine;
use c_coll::{Algorithm, CCollSession, CodecSpec, CollectiveError, PlanOptions, ReduceOp};
use ccoll_comm::{Category, Comm, FaultPlan, FaultPolicy, SimConfig, SimWorld, ThreadWorld};
use proptest::prelude::*;

/// Integer-valued rank data: f32 arithmetic on these is exact, so
/// reduction order cannot matter and lossless comparisons are bitwise.
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

/// Deterministic seed mixer for interleave schedules: every rank
/// derives the *same* schedule from the case seed, so the randomized
/// order is still a symmetric collective schedule.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x
}

const ALGOS: [Algorithm; 3] = [
    Algorithm::Ring,
    Algorithm::RecursiveDoubling,
    Algorithm::Rabenseifner,
];

/// Run `ops` allreduces over `lens`/`seed` data, either sequentially
/// (`execute_into` one after another) or, when `concurrent`, through a
/// [`ProgressEngine`] with a seed-derived interleave of progress
/// passes. Returns per-rank, per-op outputs.
fn run_allreduce_case<C: Comm>(
    c: &mut C,
    spec: CodecSpec,
    n: usize,
    lens: &[usize],
    seed: u64,
    concurrent: bool,
) -> Vec<Vec<f32>> {
    let session = CCollSession::new(spec, n);
    let mut plans: Vec<_> = lens
        .iter()
        .enumerate()
        .map(|(i, &len)| {
            session.plan_allreduce_with(
                len,
                ReduceOp::Sum,
                PlanOptions::new().algorithm(ALGOS[i % ALGOS.len()]),
            )
        })
        .collect();
    let inputs: Vec<Vec<f32>> = lens
        .iter()
        .enumerate()
        .map(|(i, &len)| {
            if matches!(spec, CodecSpec::Szx { .. }) {
                smooth_data(c.rank(), len, seed ^ i as u64)
            } else {
                integer_data(c.rank(), len, seed ^ i as u64)
            }
        })
        .collect();
    let mut outs: Vec<Vec<f32>> = lens.iter().map(|&l| vec![0.0f32; l]).collect();

    if !concurrent {
        for ((plan, input), out) in plans.iter_mut().zip(&inputs).zip(&mut outs) {
            plan.execute_into(c, input, out);
        }
        return outs;
    }
    let mut engine = ProgressEngine::new();
    for (i, ((plan, input), out)) in plans.iter_mut().zip(&inputs).zip(&mut outs).enumerate() {
        engine.submit(plan.start(c, input, out));
        // Seed-derived interleave: a few bounded passes (and a slice of
        // virtual compute) between submissions, so earlier ops are
        // mid-flight when later ones start.
        for _ in 0..mix(seed ^ (i as u64) << 8) % 4 {
            engine.progress(c);
            c.charge_duration(Duration::from_nanos(500), Category::Others);
        }
    }
    // A randomized tail of bounded passes before the drain.
    for _ in 0..mix(seed ^ 0xD1FF) % 6 {
        engine.progress(c);
    }
    engine.wait_all(c);
    drop(engine);
    outs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // 2–8 concurrent allreduces, interleaved in a seed-derived order,
    // are bitwise the sequential results under lossless codecs.
    #[test]
    fn interleaved_engine_matches_sequential_bitwise_when_lossless(
        n in 2usize..=9,
        ops in 2usize..=8,
        base_len in 4usize..240,
        seed in any::<u64>(),
    ) {
        let lens: Vec<usize> = (0..ops)
            .map(|i| base_len + (mix(seed ^ i as u64) % 97) as usize)
            .collect();
        for spec in [CodecSpec::None, CodecSpec::Lossless] {
            let run = |concurrent: bool| {
                let lens = lens.clone();
                SimWorld::new(SimConfig::new(n))
                    .run(move |c| run_allreduce_case(c, spec, n, &lens, seed, concurrent))
                    .results
            };
            let sequential = run(false);
            let concurrent = run(true);
            for r in 0..n {
                for op in 0..ops {
                    prop_assert_eq!(
                        &concurrent[r][op], &sequential[r][op],
                        "{:?}: op {} diverged on rank {} (n={}, lens={:?})",
                        spec, op, r, n, &lens
                    );
                }
            }
        }
    }

    // Lossy concurrency: every op's result stays within the SZx error
    // envelope of its sequential reference — concurrency must not
    // change what gets compressed.
    #[test]
    fn interleaved_engine_is_error_bounded_when_lossy(
        n in 2usize..=9,
        ops in 2usize..=5,
        base_len in 16usize..300,
        seed in any::<u64>(),
    ) {
        let eb = 1e-3f32;
        let spec = CodecSpec::Szx { error_bound: eb };
        let lens: Vec<usize> = (0..ops)
            .map(|i| base_len + (mix(seed ^ i as u64) % 61) as usize)
            .collect();
        let run = |concurrent: bool| {
            let lens = lens.clone();
            SimWorld::new(SimConfig::new(n))
                .run(move |c| run_allreduce_case(c, spec, n, &lens, seed, concurrent))
                .results
        };
        let sequential = run(false);
        let concurrent = run(true);
        // Each path is within 4·n·eb of the exact sum, so their
        // divergence is bounded by twice that envelope.
        let tol = 8.0 * (n as f32) * eb;
        for r in 0..n {
            for op in 0..ops {
                for (i, (a, b)) in concurrent[r][op].iter().zip(&sequential[r][op]).enumerate() {
                    prop_assert!(
                        (a - b).abs() <= tol,
                        "op {} rank {} elem {}: concurrent {} vs sequential {} exceeds {}",
                        op, r, i, a, b, tol
                    );
                }
            }
        }
    }

    // Tag isolation: K simultaneously-live ops with *identical* shape
    // (length, algorithm, codec — every message the same size) and
    // distinguishable payloads. If any op captured a sibling's
    // message, its reduction would mix payload classes and miss its
    // exact expected value.
    #[test]
    fn same_shape_ops_never_capture_each_others_messages(
        n in 2usize..=6,
        ops in 2usize..=8,
        len in 4usize..128,
        seed in any::<u64>(),
    ) {
        let results = SimWorld::new(SimConfig::new(n)).run(move |c| {
            let session = CCollSession::new(CodecSpec::None, n);
            let mut plans: Vec<_> = (0..ops)
                .map(|_| {
                    session.plan_allreduce_with(
                        len,
                        ReduceOp::Sum,
                        PlanOptions::new().algorithm(Algorithm::Ring),
                    )
                })
                .collect();
            // Payload of op k on rank r: the constant k·1000 + r·7 + 1,
            // so op k's exact sum identifies exactly which messages fed
            // its reduction.
            let inputs: Vec<Vec<f32>> = (0..ops)
                .map(|k| vec![(k * 1000 + c.rank() * 7 + 1) as f32; len])
                .collect();
            let mut outs: Vec<Vec<f32>> = (0..ops).map(|_| vec![0.0f32; len]).collect();
            let mut engine = ProgressEngine::new();
            for ((plan, input), out) in plans.iter_mut().zip(&inputs).zip(&mut outs) {
                engine.submit(plan.start(c, input, out));
                // No passes between submissions: all ops fully live
                // and racing before the first slice of work.
            }
            for _ in 0..mix(seed) % 9 {
                engine.progress(c);
            }
            engine.wait_all(c);
            drop(engine);
            outs
        }).results;
        for (r, per_op) in results.iter().enumerate() {
            for (k, out) in per_op.iter().enumerate() {
                let expect: f32 = (0..n).map(|rr| (k * 1000 + rr * 7 + 1) as f32).sum();
                for v in out {
                    prop_assert_eq!(
                        *v, expect,
                        "op {} on rank {} captured foreign traffic (got {}, want {})",
                        k, r, v, expect
                    );
                }
            }
        }
    }
}

proptest! {
    // The threaded backend runs real OS threads per case — keep the
    // case count small.
    #![proptest_config(ProptestConfig::with_cases(5))]

    // Same differential property on the threaded backend: genuine
    // parallelism, no virtual time.
    #[test]
    fn interleaved_engine_matches_sequential_on_threaded_backend(
        n in 2usize..=5,
        ops in 2usize..=4,
        base_len in 8usize..160,
        seed in any::<u64>(),
    ) {
        let lens: Vec<usize> = (0..ops)
            .map(|i| base_len + (mix(seed ^ i as u64) % 53) as usize)
            .collect();
        let spec = CodecSpec::Lossless;
        let run = |concurrent: bool| {
            let lens = lens.clone();
            ThreadWorld::new(n)
                .run(move |c| run_allreduce_case(c, spec, n, &lens, seed, concurrent))
                .results
        };
        let sequential = run(false);
        let concurrent = run(true);
        for r in 0..n {
            for op in 0..ops {
                prop_assert_eq!(
                    &concurrent[r][op], &sequential[r][op],
                    "threaded op {} diverged on rank {} (n={}, lens={:?})",
                    op, r, n, &lens
                );
            }
        }
    }
}

/// Every [`AnyHandle`](c_coll::engine::AnyHandle) variant live at
/// once: an allreduce, allgather, reduce-scatter, rooted reduce, bcast
/// and all-to-all driven concurrently must match their sequential
/// `execute_into` results bitwise.
#[test]
fn mixed_collective_types_run_concurrently() {
    let n = 5;
    let len = 48;
    let seed = 0xC0FFEE;
    let root = 2;
    let run = |concurrent: bool| {
        SimWorld::new(SimConfig::new(n))
            .run(move |c| {
                let me = c.rank();
                let session = CCollSession::new(CodecSpec::Lossless, n);
                let total = len * n;
                let data = integer_data(me, len, seed);
                let a2a_send = integer_data(me, total, seed ^ 0xA5A5);
                let bc_data = if me == root { data.clone() } else { Vec::new() };

                let mut ar = session.plan_allreduce(len, ReduceOp::Sum);
                let mut ag = session.plan_allgather(len);
                let mut rs = session.plan_reduce_scatter(len, ReduceOp::Sum);
                let mut rr = session.plan_reduce(root, len, ReduceOp::Sum);
                let mut bc = session.plan_bcast(root, len);
                let mut a2a = session.plan_alltoall(total);

                let mut ar_out = vec![0.0f32; len];
                let mut ag_out = vec![0.0f32; total];
                let mut rs_out = vec![0.0f32; rs.output_len(me)];
                let mut rr_out = vec![0.0f32; if me == root { len } else { 0 }];
                let mut bc_out = vec![0.0f32; len];
                let mut a2a_out = vec![0.0f32; total];

                if concurrent {
                    let mut engine = ProgressEngine::new();
                    engine.submit(ar.start(c, &data, &mut ar_out));
                    engine.submit(ag.start(c, &data, &mut ag_out));
                    engine.submit(rs.start(c, &data, &mut rs_out));
                    engine.submit(rr.start(c, &data, &mut rr_out));
                    engine.submit(bc.start(c, &bc_data, &mut bc_out));
                    engine.submit(a2a.start(c, &a2a_send, &mut a2a_out));
                    assert_eq!(engine.live_ops(), 6);
                    engine.wait_all(c);
                    assert_eq!(engine.live_ops(), 0);
                    drop(engine);
                } else {
                    ar.execute_into(c, &data, &mut ar_out);
                    ag.execute_into(c, &data, &mut ag_out);
                    rs.execute_into(c, &data, &mut rs_out);
                    rr.execute_into(c, &data, &mut rr_out);
                    bc.execute_into(c, &bc_data, &mut bc_out);
                    a2a.execute_into(c, &a2a_send, &mut a2a_out);
                }
                (ar_out, ag_out, rs_out, rr_out, bc_out, a2a_out)
            })
            .results
    };
    let sequential = run(false);
    let concurrent = run(true);
    for r in 0..n {
        assert_eq!(concurrent[r].0, sequential[r].0, "allreduce rank {r}");
        assert_eq!(concurrent[r].1, sequential[r].1, "allgather rank {r}");
        assert_eq!(concurrent[r].2, sequential[r].2, "reduce-scatter rank {r}");
        assert_eq!(concurrent[r].3, sequential[r].3, "reduce rank {r}");
        assert_eq!(concurrent[r].4, sequential[r].4, "bcast rank {r}");
        assert_eq!(concurrent[r].5, sequential[r].5, "alltoall rank {r}");
    }
}

/// Per-op fault isolation under a seeded kill: op A (tiny) and op B
/// (large) are in flight on one engine together; A completes before
/// rank 1 dies, B is still in flight and must abort with a structured
/// error on every survivor. A's plan stays unpoisoned with its completed
/// result intact, B's plan is poisoned, and the engine drains without
/// wedging.
///
/// A is a latency-bound recursive doubling (two rounds on four ranks),
/// B a bandwidth-bound ring (six): driven side by side, A's messages
/// queue behind B's on the FIFO ports, and A completes in about a third
/// of B's time (`engine_regressions.rs` pins it), before rank 1 has done
/// the 36 communicator operations that kill it. A tiny *ring* beside B
/// would keep pace with B's rounds and finish in B's last, where no kill
/// point separates the two on every rank.
#[test]
fn kill_aborts_in_flight_op_without_poisoning_completed_sibling() {
    let n = 4;
    let small = 16;
    let large = 60_000;
    let cfg = SimConfig::new(n)
        .with_faults(FaultPlan::seeded(11).with_kill(1, 36))
        .with_fault_policy(FaultPolicy::with_timeout(Duration::from_millis(1), 2));
    let out = SimWorld::new(cfg)
        .try_run(move |c| {
            let session = CCollSession::new(CodecSpec::None, n);
            let mut a = session.plan_allreduce_with(
                small,
                ReduceOp::Sum,
                PlanOptions::new().algorithm(Algorithm::RecursiveDoubling),
            );
            let mut b = session.plan_allreduce_with(
                large,
                ReduceOp::Sum,
                PlanOptions::new().algorithm(Algorithm::Ring),
            );
            let da = vec![1.0f32; small];
            let db = integer_data(c.rank(), large, 3);
            let mut oa = vec![0.0f32; small];
            let mut ob = vec![0.0f32; large];

            let mut engine = ProgressEngine::new();
            let ida = engine.submit(a.start(c, &da, &mut oa));
            let idb = engine.submit(b.start(c, &db, &mut ob));
            let mut errs: Vec<(c_coll::engine::OpId, CollectiveError)> = Vec::new();
            let mut spins = 0u32;
            while engine.live_ops() > 0 {
                if let Err((id, e)) = engine.try_wait_all(c) {
                    errs.push((id, e));
                }
                spins += 1;
                assert!(spins < 64, "engine must drain, not wedge");
            }
            drop(engine);
            let a_err = errs.iter().any(|(id, _)| *id == ida);
            let b_err = errs.iter().any(|(id, _)| *id == idb);
            (a_err, b_err, a.is_poisoned(), b.is_poisoned(), oa)
        })
        .expect("a killed rank must never deadlock the world");
    assert!(out.results[1].is_killed(), "rank 1 crashed by plan");
    let survivors: Vec<_> = out
        .results
        .iter()
        .enumerate()
        .filter_map(|(r, o)| o.as_completed().map(|v| (r, v)))
        .collect();
    assert_eq!(survivors.len(), n - 1, "all survivors ran to completion");
    for (rank, (a_err, b_err, a_poisoned, b_poisoned, oa)) in survivors {
        assert!(
            !a_err && !a_poisoned,
            "rank {rank}: completed op A must stay clean (err={a_err}, poisoned={a_poisoned})"
        );
        assert!(
            oa.iter().all(|&v| v == n as f32),
            "rank {rank}: op A's completed result must be intact"
        );
        assert!(
            *b_err && *b_poisoned,
            "rank {rank}: in-flight op B must abort and poison its own plan"
        );
    }
}
