//! Lifecycle conformance of the generic plan/handle pair, instantiated
//! for every collective kind: `Idle → InFlight → Done | Poisoned →
//! reset` must behave the same whichever schedule machine is plugged in.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use c_coll::engine::{ProgressEngine, MAX_LIVE_OPS};
use c_coll::{Algorithm, CCollSession, CodecSpec, CollectiveError, PlanOptions, Poll, ReduceOp};
use ccoll_comm::{Category, ClusterNet, Comm, HierNet, SimConfig, SimWorld, ThreadWorld, Topology};

const WORLD: usize = 4;
const LEN: usize = 4 * 1500;
const ROOT: usize = 1;

fn rank_data(rank: usize, len: usize) -> Vec<f32> {
    (0..len)
        .map(|i| ((i * 7 + rank * 131) as f32 * 1e-3).sin() * 4.0)
        .collect()
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// One conformance case: `$make` builds the plan from a session, and
/// `$in_len` / `$out_len` give the buffer lengths on a rank. The body is
/// the same for every kind — only the alias behind `$make` differs.
macro_rules! lifecycle_conformance {
    ($($name:ident: $make:expr, in $in_len:expr, out $out_len:expr;)*) => {$(
        #[test]
        fn $name() {
            let make = $make;
            let in_len: fn(usize) -> usize = $in_len;
            let out_len: fn(usize) -> usize = $out_len;
            SimWorld::new(SimConfig::new(WORLD)).run(move |c| {
                let rank = c.rank();
                let session = CCollSession::new(CodecSpec::Szx { error_bound: 1e-3 }, WORLD);
                let mut plan = make(&session);
                let input = rank_data(rank, in_len(rank));
                let mut out = vec![0.0f32; out_len(rank)];

                // Idle → InFlight → Done.
                let clean = plan.execute_into(c, &input, &mut out);
                let clean_bits = bits(&out);
                assert_eq!(plan.stats().executions, 1);
                assert_eq!(session.live_ops(), 0);

                // InFlight → Poisoned(Abandoned): dropped mid-operation.
                // Every rank starts at once, so no rank finds its whole
                // operation already delivered: a root that finished the
                // clean run last would otherwise meet its leaves' (small,
                // compressed) messages already landed.
                c.barrier();
                {
                    let mut handle = plan.start(c, &input, &mut out);
                    assert_eq!(session.live_ops(), 1);
                    assert_eq!(handle.try_progress(c), Ok(Poll::Pending), "rank {rank}");
                    assert!(!handle.is_complete());
                }
                assert_eq!(plan.poison_error(), Some(CollectiveError::Abandoned));
                assert_eq!(session.live_ops(), 0, "an abandoned op deregisters");
                assert_eq!(plan.stats().executions, 1, "an abandoned op is not an execution");
                assert_eq!(
                    plan.try_execute_into(c, &input, &mut out).err(),
                    Some(CollectiveError::Poisoned)
                );
                assert_eq!(session.live_ops(), 0, "a refused start registers nothing");

                // Poisoned → Idle. Every rank's abandoned traffic is on
                // the wire before anyone scrubs, and everyone has
                // scrubbed before anyone restarts.
                c.barrier();
                plan.reset_in(c);
                assert!(!plan.is_poisoned());
                c.barrier();

                out.fill(0.0);
                let rerun = plan
                    .try_execute_into(c, &input, &mut out)
                    .expect("a reset plan re-runs cleanly");
                assert_eq!(plan.stats().executions, 2);
                assert_eq!(rerun, clean);
                assert_eq!(bits(&out), clean_bits, "rank {rank}: rerun differs");

                let mut fresh = make(&session);
                let mut fresh_out = vec![0.0f32; out_len(rank)];
                assert_eq!(fresh.execute_into(c, &input, &mut fresh_out), clean);
                assert_eq!(bits(&fresh_out), clean_bits, "rank {rank}: fresh plan differs");
                assert_eq!(fresh.stats().executions, 1);
                assert_eq!(session.live_ops(), 0);
            });
        }
    )*};
}

fn full(_rank: usize) -> usize {
    LEN
}

/// One rank's share (`LEN` divides evenly, as all-to-all requires).
fn block(_rank: usize) -> usize {
    LEN / WORLD
}

fn root_only(rank: usize) -> usize {
    if rank == ROOT {
        LEN
    } else {
        0
    }
}

lifecycle_conformance! {
    allreduce_lifecycle:
        |s: &CCollSession| s.plan_allreduce(LEN, ReduceOp::Sum), in full, out full;
    allgather_lifecycle:
        |s: &CCollSession| s.plan_allgather(LEN / WORLD), in block, out full;
    reduce_scatter_lifecycle:
        |s: &CCollSession| s.plan_reduce_scatter(LEN, ReduceOp::Sum), in full, out block;
    bcast_lifecycle:
        |s: &CCollSession| s.plan_bcast(ROOT, LEN), in root_only, out full;
    scatter_lifecycle:
        |s: &CCollSession| s.plan_scatter(ROOT, LEN), in root_only, out block;
    gather_lifecycle:
        |s: &CCollSession| s.plan_gather(ROOT, LEN), in block, out root_only;
    alltoall_lifecycle:
        |s: &CCollSession| s.plan_alltoall(LEN), in full, out full;
    reduce_lifecycle:
        |s: &CCollSession| s.plan_reduce(ROOT, LEN, ReduceOp::Sum), in full, out root_only;
    tree_reduce_lifecycle:
        |s: &CCollSession| {
            let tree = PlanOptions::new().algorithm(Algorithm::Binomial);
            s.plan_reduce_with(ROOT, LEN, ReduceOp::Sum, tree)
        }, in full, out root_only;
}

/// `start` validates before it communicates: a poisoned `Auto` plan whose
/// next start is due a calibration agreement must refuse the start
/// without putting a single agreement message on the wire.
#[test]
fn poisoned_auto_plan_refuses_start_before_any_agreement() {
    let len = 20_000;
    SimWorld::new(SimConfig::new(WORLD)).run(move |c| {
        let session = CCollSession::new(CodecSpec::None, WORLD);
        let mut plan = session.plan_allreduce_with(len, ReduceOp::Sum, PlanOptions::new());
        let input = rank_data(c.rank(), len);
        let mut out = vec![0.0f32; len];
        // Four executions: the start that follows is a calibration
        // round (and stays one for as long as the count stands at four).
        for _ in 0..4 {
            plan.execute_into(c, &input, &mut out);
        }
        let before_round = c.profiler().traffic().messages_sent;
        drop(plan.start(c, &input, &mut out));
        assert_eq!(plan.poison_error(), Some(CollectiveError::Abandoned));
        assert!(
            c.profiler().traffic().messages_sent > before_round,
            "the healthy start was expected to run its agreement"
        );

        let before = c.profiler().traffic().messages_sent;
        let refused = catch_unwind(AssertUnwindSafe(|| {
            let _ = plan.start(c, &input, &mut out);
        }));
        let payload = refused.expect_err("a poisoned plan must refuse to start");
        let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(message.contains("plan was poisoned"), "{message}");
        assert_eq!(
            c.profiler().traffic().messages_sent,
            before,
            "a refused start must not send agreement traffic"
        );
        assert_eq!(session.live_ops(), 0);
    });
}

/// `Auto`'s control plane is off the critical path: on a 16×16 cluster,
/// sixteen executions of an `Auto` allreduce plan — one re-rank agreement
/// and three calibration rounds included — take at most 1 % longer than
/// the same executions pinned to the hierarchical schedule, and every
/// rank holds the same schedule after every execution.
#[test]
fn auto_control_plane_costs_under_one_percent_on_a_cluster() {
    const EXECUTIONS: usize = 16;
    let (nodes, per_node, len) = (16, 16, 1 << 16);
    let world = nodes * per_node;
    let run = |algorithm: Algorithm| {
        let cluster = ClusterNet::new(
            Topology::uniform(nodes, per_node),
            HierNet::cluster_default(),
        );
        SimWorld::new(SimConfig::new(world).with_cluster(cluster.clone())).run(move |c| {
            let session = CCollSession::new(CodecSpec::None, world)
                .with_topology(cluster.topo.clone(), cluster.net);
            let opts = PlanOptions::new().algorithm(algorithm);
            let mut plan = session.plan_allreduce_with(len, ReduceOp::Sum, opts);
            let input = rank_data(c.rank(), len);
            let mut out = vec![0.0f32; len];
            let mut picks = [plan.algorithm(); EXECUTIONS];
            for pick in &mut picks {
                plan.execute_into(c, &input, &mut out);
                *pick = plan.algorithm();
            }
            picks
        })
    };
    let auto = run(Algorithm::Auto);
    let pinned = run(Algorithm::Hierarchical);
    for (rank, picks) in auto.results.iter().enumerate() {
        assert_eq!(*picks, auto.results[0], "rank {rank} diverged from rank 0");
    }
    assert!(
        auto.makespan.as_secs_f64() <= 1.01 * pinned.makespan.as_secs_f64(),
        "Auto {:?} vs pinned hierarchical {:?}",
        auto.makespan,
        pinned.makespan
    );
}

/// Every plan of a 2,048-plan session is started before any completes,
/// then one engine drains them [`MAX_LIVE_OPS`] at a time: no slot is
/// shared, and each operation gets exactly its own sum.
#[test]
fn two_thousand_forty_eight_plans_are_in_flight_together() {
    const PLANS: usize = 2048;
    let out = SimWorld::new(SimConfig::new(2)).run(|c| {
        let session = CCollSession::new(CodecSpec::None, 2);
        let mut plans: Vec<_> = (0..PLANS)
            .map(|_| session.plan_allreduce(4, ReduceOp::Sum))
            .collect();
        let inputs: Vec<[f32; 4]> = (0..PLANS).map(|i| [(i + c.rank()) as f32; 4]).collect();
        let mut outs = vec![[0.0f32; 4]; PLANS];
        {
            let mut handles: Vec<_> = plans
                .iter_mut()
                .zip(&inputs)
                .zip(&mut outs)
                .map(|((plan, input), out)| plan.start(c, input, out))
                .collect();
            assert_eq!(session.live_ops(), PLANS as u64);
            let mut engine = ProgressEngine::new();
            while !handles.is_empty() {
                let wave = handles.len().saturating_sub(MAX_LIVE_OPS);
                for handle in handles.drain(wave..) {
                    engine.submit(handle);
                }
                engine.wait_all(c);
            }
        }
        (0..PLANS).all(|i| outs[i] == [(2 * i + 1) as f32; 4])
    });
    assert_eq!(out.results, [true, true]);
    assert_eq!(out.undelivered_total(), 0);
}

/// Plans 0 and 1023 of one session, ring allreduces of one shape: each
/// message of one has a twin in the other with the same source,
/// destination and schedule tag. Stepped turn about, the odd ranks
/// stepping the second plan first, each still gets exactly its own sum.
fn twin_allreduces<C: Comm>(c: &mut C) -> [Vec<u32>; 2] {
    let session = CCollSession::new(CodecSpec::None, WORLD);
    let ring = || PlanOptions::new().algorithm(Algorithm::Ring);
    let mut first = session.plan_allreduce_with(LEN, ReduceOp::Sum, ring());
    let _between: Vec<_> = (1..1023)
        .map(|_| session.plan_allreduce(4, ReduceOp::Sum))
        .collect();
    let mut last = session.plan_allreduce_with(LEN, ReduceOp::Sum, ring());
    let rank = c.rank();
    let inputs = [rank_data(rank, LEN), rank_data(rank + WORLD, LEN)];
    let mut outs = [vec![0.0f32; LEN], vec![0.0f32; LEN]];
    let [out_first, out_last] = &mut outs;
    let mut handles = [
        first.start(c, &inputs[0], out_first),
        last.start(c, &inputs[1], out_last),
    ];
    if rank % 2 == 1 {
        handles.reverse();
    }
    while !handles.iter().all(|h| h.is_complete()) {
        for handle in &mut handles {
            handle.progress(c);
        }
        c.charge_duration(Duration::from_micros(1), Category::Others);
    }
    for handle in handles {
        handle.complete(c);
    }
    outs.map(|out| bits(&out))
}

#[test]
fn two_plans_with_equal_schedule_tags_never_cross_match() {
    let want = SimWorld::new(SimConfig::new(WORLD))
        .run(|c| {
            let session = CCollSession::new(CodecSpec::None, WORLD);
            let ring = PlanOptions::new().algorithm(Algorithm::Ring);
            let mut plan = session.plan_allreduce_with(LEN, ReduceOp::Sum, ring);
            [0, WORLD].map(|shift| {
                let mut out = vec![0.0f32; LEN];
                plan.execute_into(c, &rank_data(c.rank() + shift, LEN), &mut out);
                bits(&out)
            })
        })
        .results;
    let sim = SimWorld::new(SimConfig::new(WORLD)).run(twin_allreduces);
    assert_eq!(sim.undelivered_total(), 0);
    assert_eq!(sim.results, want, "sim");
    assert_eq!(
        ThreadWorld::new(WORLD).run(twin_allreduces).results,
        want,
        "threaded"
    );
}
