//! Cross-crate integration tests: the full C-Coll stack (datasets →
//! codecs → collectives → simulator/threads) exercised end to end
//! through the session/persistent-plan API.

use std::time::Duration;

use c_coll::{AllreduceVariant, CCollSession, CodecSpec, Poll, ReduceOp};
use ccoll_comm::{Category, Comm, SimConfig, SimWorld, ThreadWorld};
use ccoll_data::{metrics, Dataset};

fn inputs(ds: Dataset, ranks: usize, n: usize) -> Vec<Vec<f32>> {
    (0..ranks).map(|r| ds.generate(n, r as u64)).collect()
}

/// One allreduce of `data` through a fresh session's plan.
fn allreduce<C: Comm>(comm: &mut C, spec: CodecSpec, data: &[f32], op: ReduceOp) -> Vec<f32> {
    CCollSession::new(spec, comm.size())
        .plan_allreduce(data.len(), op)
        .execute(comm, data)
}

#[test]
fn c_allreduce_error_bounded_on_all_datasets() {
    let ranks = 8;
    let n = 40_000;
    let eb = 1e-3f32;
    for ds in Dataset::ALL {
        let ins = inputs(ds, ranks, n);
        let exact = ReduceOp::Sum.oracle(&ins);
        let world = SimWorld::new(SimConfig::new(ranks));
        let out = world.run(move |comm| {
            let data = ds.generate(n, comm.rank() as u64);
            allreduce(
                comm,
                CodecSpec::Szx { error_bound: eb },
                &data,
                ReduceOp::Sum,
            )
        });
        // Deterministic envelope: one bounded error per contributor in the
        // reduce tree plus one from the allgather stage.
        let tol = (ranks + 1) as f64 * eb as f64;
        for r in 0..ranks {
            let err = metrics::max_abs_error(&exact, &out.results[r]);
            assert!(err <= tol, "{} rank {r}: err {err} > {tol}", ds.label());
        }
    }
}

#[test]
fn sim_and_threaded_backends_agree_on_values() {
    // Same algorithm, same data, two backends: identical results, because
    // the collectives are deterministic given the schedule order.
    let ranks = 4;
    let n = 9_000;
    let eb = 1e-4f32;

    let spec = CodecSpec::Szx { error_bound: eb };
    let sim = SimWorld::new(SimConfig::new(ranks)).run(move |comm| {
        let data = Dataset::Hurricane.generate(n, comm.rank() as u64);
        allreduce(comm, spec, &data, ReduceOp::Sum)
    });
    let thr = ThreadWorld::new(ranks).run(move |comm| {
        let data = Dataset::Hurricane.generate(n, comm.rank() as u64);
        allreduce(comm, spec, &data, ReduceOp::Sum)
    });
    for r in 0..ranks {
        assert_eq!(
            sim.results[r], thr.results[r],
            "rank {r}: backends disagree bit-for-bit"
        );
    }
}

#[test]
fn variant_ordering_on_virtual_cluster() {
    // The paper's performance ordering on a 16-node cluster with large
    // messages: C-Allreduce (Overlap) < Original < Direct Integration.
    let ranks = 16;
    let n = 1_000_000; // 4 MB per rank
    let eb = 1e-3f32;
    let mut times = std::collections::HashMap::new();
    for variant in [
        AllreduceVariant::Original,
        AllreduceVariant::DirectIntegration,
        AllreduceVariant::Overlapped,
    ] {
        let world = SimWorld::new(SimConfig::new(ranks));
        let out = world.run(move |comm| {
            let session = CCollSession::new(CodecSpec::Szx { error_bound: eb }, ranks);
            let mut plan = session.plan_allreduce_variant(n, ReduceOp::Sum, variant);
            let _ = plan.execute(comm, &Dataset::Rtm.generate(n, comm.rank() as u64));
        });
        times.insert(variant.label(), out.makespan);
    }
    assert!(
        times["Overlap"] < times["AD"],
        "C-Allreduce must beat the original: {times:?}"
    );
    assert!(
        times["AD"] < times["DI"],
        "naive CPR-P2P must lose to the original: {times:?}"
    );
}

#[test]
fn breakdown_shape_matches_paper_fig7() {
    // In the original allreduce on large messages, the allgather stage
    // dominates (~60 % in the paper) and Wait is the runner-up
    // communication cost.
    let ranks = 16;
    let n = 2_000_000;
    let world = SimWorld::new(SimConfig::new(ranks));
    let out = world.run(move |comm| {
        let data = Dataset::Rtm.generate(n, comm.rank() as u64);
        let _ = allreduce(comm, CodecSpec::None, &data, ReduceOp::Sum);
    });
    let b = out.max_breakdown();
    let total = b.total().as_secs_f64();
    let ag = b.get(Category::Allgather).as_secs_f64();
    let wait = b.get(Category::Wait).as_secs_f64();
    assert!(
        ag / total > 0.3,
        "allgather share too small: {}",
        ag / total
    );
    // Both ring stages move the same volume, so under a faithful network
    // model Allgather ≥ Wait with near-equality; the paper's stronger
    // 60 %-vs-20 % split reflects MPICH implementation details (see
    // EXPERIMENTS.md). The communication categories must still dominate
    // compute.
    assert!(
        ag >= wait,
        "allgather must not be below wait: {ag} vs {wait}"
    );
    let comm_share = (ag + wait) / total;
    assert!(
        comm_share > 0.6,
        "communication should dominate AD: {comm_share}"
    );
}

#[test]
fn deterministic_simulation_repeats_exactly() {
    let run = || {
        SimWorld::new(SimConfig::new(6)).run(move |comm| {
            let data = Dataset::Cesm.generate(20_000, comm.rank() as u64);
            allreduce(
                comm,
                CodecSpec::Szx { error_bound: 1e-3 },
                &data,
                ReduceOp::Sum,
            )
        })
    };
    let a = run();
    let b = run();
    assert_eq!(a.makespan, b.makespan, "virtual time must be deterministic");
    assert_eq!(a.results, b.results);
    for (x, y) in a.breakdowns.iter().zip(&b.breakdowns) {
        assert_eq!(x, y);
    }
}

#[test]
fn session_training_loop_through_full_stack() {
    // The repeated-shape workload the session API exists for: a
    // training loop executing the same-shape allreduce every step
    // against ONE persistent plan, across both backends.
    let ranks = 4;
    let n = 12_000;
    let eb = 1e-3f32;
    let steps = 3;

    let run_sim = SimWorld::new(SimConfig::new(ranks)).run(move |comm| {
        let session = CCollSession::new(CodecSpec::Szx { error_bound: eb }, ranks);
        let mut plan = session.plan_allreduce(n, ReduceOp::Avg);
        let mut out = vec![0.0f32; n];
        let mut checksums = Vec::new();
        for step in 0..steps {
            let data = Dataset::Cesm.generate(n, (comm.rank() + step * 100) as u64);
            plan.execute_into(comm, &data, &mut out);
            checksums.push(out.iter().map(|v| *v as f64).sum::<f64>());
        }
        (checksums, out)
    });
    let run_thr = ThreadWorld::new(ranks).run(move |comm| {
        let session = CCollSession::new(CodecSpec::Szx { error_bound: eb }, ranks);
        let mut plan = session.plan_allreduce(n, ReduceOp::Avg);
        let mut out = vec![0.0f32; n];
        let mut checksums = Vec::new();
        for step in 0..steps {
            let data = Dataset::Cesm.generate(n, (comm.rank() + step * 100) as u64);
            plan.execute_into(comm, &data, &mut out);
            checksums.push(out.iter().map(|v| *v as f64).sum::<f64>());
        }
        (checksums, out)
    });
    for r in 0..ranks {
        assert_eq!(
            run_sim.results[r], run_thr.results[r],
            "rank {r}: backends disagree through the plan path"
        );
    }
    // Every step's result is error-bounded against its own oracle.
    let inputs: Vec<Vec<f32>> = (0..ranks)
        .map(|r| Dataset::Cesm.generate(n, (r + (steps - 1) * 100) as u64))
        .collect();
    let exact = ReduceOp::Avg.oracle(&inputs);
    let err = metrics::max_abs_error(&exact, &run_sim.results[0].1);
    // Avg divides the summed per-rank errors back down: ≲ (ranks+1)·eb/ranks.
    assert!(err <= 2.0 * eb as f64, "final step error {err}");
}

#[test]
fn scatter_bcast_roundtrip_through_full_stack() {
    // Scatter a field from rank 0, then gather it back: the reassembled
    // field must match within one compression error.
    let ranks = 8;
    let total = 50_000;
    let eb = 1e-4f32;
    let world = SimWorld::new(SimConfig::new(ranks));
    let out = world.run(move |comm| {
        let session = CCollSession::new(CodecSpec::Szx { error_bound: eb }, ranks);
        let field = if comm.rank() == 0 {
            Dataset::Hurricane.generate(total, 3)
        } else {
            Vec::new()
        };
        let mine = session.plan_scatter(0, total).execute(comm, &field);
        session.plan_gather(0, total).execute(comm, &mine)
    });
    let expect = Dataset::Hurricane.generate(total, 3);
    let got = out.results[0].as_ref().expect("root gathers");
    let err = metrics::max_abs_error(&expect, got);
    assert!(err <= eb as f64 + 1e-9, "round trip error {err} > {eb}");
}

#[test]
fn nonblocking_training_loop_through_full_stack() {
    // The MPI_Iallreduce-shape training loop: every step starts the
    // allreduce, interleaves "backprop" compute with progress polls and
    // completes the tail. Results must be bitwise identical to the
    // blocking loop on BOTH backends, and on the simulator the
    // overlapped loop must finish strictly earlier.
    let ranks = 4;
    let n = 12_000;
    let eb = 1e-3f32;
    let steps = 3;
    let compute = Duration::from_micros(400);

    let run_sim = |nonblocking: bool| {
        SimWorld::new(SimConfig::new(ranks)).run(move |comm| {
            let session = CCollSession::new(CodecSpec::Szx { error_bound: eb }, ranks);
            let mut plan = session.plan_allreduce(n, ReduceOp::Avg);
            let mut out = vec![0.0f32; n];
            for step in 0..steps {
                let data = Dataset::Cesm.generate(n, (comm.rank() + step * 100) as u64);
                if nonblocking {
                    let mut handle = plan.start(comm, &data, &mut out);
                    for _ in 0..16 {
                        comm.charge_duration(compute / 16, Category::Others);
                        if let Poll::Ready = handle.progress(comm) {
                            break;
                        }
                    }
                    handle.complete(comm);
                } else {
                    plan.execute_into(comm, &data, &mut out);
                    comm.charge_duration(compute, Category::Others);
                }
            }
            out
        })
    };
    let blocking = run_sim(false);
    let overlapped = run_sim(true);
    for r in 0..ranks {
        assert_eq!(
            blocking.results[r], overlapped.results[r],
            "rank {r}: nonblocking loop diverged on the simulator"
        );
    }
    assert!(
        overlapped.makespan < blocking.makespan,
        "overlap {:?} should undercut blocking {:?}",
        overlapped.makespan,
        blocking.makespan
    );

    // Threaded backend: the same nonblocking loop (real threads, real
    // test/poll) agrees with the simulator bitwise.
    let threaded = ThreadWorld::new(ranks).run(move |comm| {
        let session = CCollSession::new(CodecSpec::Szx { error_bound: eb }, ranks);
        let mut plan = session.plan_allreduce(n, ReduceOp::Avg);
        let mut out = vec![0.0f32; n];
        for step in 0..steps {
            let data = Dataset::Cesm.generate(n, (comm.rank() + step * 100) as u64);
            let mut handle = plan.start(comm, &data, &mut out);
            while let Poll::Pending = handle.progress(comm) {
                std::thread::yield_now();
            }
            handle.complete(comm);
        }
        out
    });
    for r in 0..ranks {
        assert_eq!(
            threaded.results[r], overlapped.results[r],
            "rank {r}: backends disagree through the nonblocking path"
        );
    }
}

/// C-Allreduce holds its first execution's time in steady state: an
/// 8-rank SZx ring allreduce of 1 Mi Hurricane values, run six times back
/// to back, takes each of executions 2–6 within 0.1 % of execution 1.
/// The compress-once allgather streams its blocks in sub-chunks, so every
/// rank leaves an operation at the same moment whatever its data
/// compressed to, and the next reduce-scatter's lock-step rounds have no
/// skew to amplify.
#[test]
fn sustained_c_allreduce_equals_its_first_execution() {
    let (ranks, n, runs) = (8, 1 << 20, 6);
    let out = SimWorld::new(SimConfig::new(ranks)).run(move |comm| {
        let data = Dataset::Hurricane.generate(n, comm.rank() as u64);
        let session = CCollSession::new(CodecSpec::Szx { error_bound: 1e-3 }, ranks);
        let mut plan = session.plan_allreduce(n, ReduceOp::Sum);
        let mut out = vec![0.0f32; n];
        (0..runs)
            .map(|_| {
                plan.execute_into(comm, &data, &mut out);
                comm.now().as_secs_f64()
            })
            .collect::<Vec<_>>()
    });
    // Execution k ends when its last rank does.
    let ends: Vec<f64> = (0..runs)
        .map(|k| out.results.iter().map(|r| r[k]).fold(0.0, f64::max))
        .collect();
    let first = ends[0];
    for k in 1..runs {
        let took = ends[k] - ends[k - 1];
        assert!(
            (took - first).abs() <= 1e-3 * first,
            "execution {}: {took:e} s vs the first's {first:e} s",
            k + 1
        );
    }
}
