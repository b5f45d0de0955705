//! Self-healing collectives: kill → survivor agreement → communicator
//! shrink → resume. Every test pins the recovery contract end to end:
//! after a seeded rank death, the survivors converge on an identical
//! dead-set, re-form the world densely re-ranked under a new shrink
//! epoch, re-plan their collectives, and complete **bitwise-equal** to
//! a fault-free run on the shrunk world (restart-on-survivors: the dead
//! rank's contribution is gone, every survivor re-contributes its own
//! input). No hangs, no corruption, on both backends.
//!
//! All chaos runs pin an explicit algorithm (never [`Algorithm::Auto`]):
//! `Auto`'s re-rank and calibration rounds run their own min-agreement
//! outside any fault policy.

use c_coll::engine::ProgressEngine;
use c_coll::{
    Algorithm, CCollSession, CodecSpec, CollectiveError, PlanOptions, Recovery, ReduceOp,
};
use ccoll_comm::{
    Comm, CommError, FaultPlan, FaultPolicy, HierNet, RankOutcome, SimConfig, SimWorld,
    ThreadWorld, Topology,
};
use std::time::Duration;

fn rank_data(rank: usize, len: usize) -> Vec<f32> {
    // Integer-valued: f32 sums are exact, so recovered runs compare
    // bitwise against the fault-free shrunk-world reference.
    (0..len)
        .map(|i| {
            let x = (i as u64)
                .wrapping_mul(0x9E37_79B9)
                .wrapping_add(rank as u64 * 2654435761);
            ((x % 201) as f32) - 100.0
        })
        .collect()
}

fn ring() -> PlanOptions {
    PlanOptions::new().algorithm(Algorithm::Ring)
}

/// The ranks a structured abort actually names dead — timeouts are
/// congestion until the agreement proves otherwise.
fn dead_suspects(e: &CollectiveError) -> Vec<usize> {
    match e {
        CollectiveError::Comm(CommError::PeerDead { peer }) => vec![*peer],
        _ => Vec::new(),
    }
}

/// Fault-free allreduce reference on a `survivors`-sized world where
/// new rank `i` holds old rank `survivors[i]`'s data.
fn shrunk_reference(survivors: &[usize], len: usize) -> Vec<Vec<f32>> {
    let n = survivors.len();
    let survivors = survivors.to_vec();
    SimWorld::with_ranks(n)
        .run(move |c| {
            let session = CCollSession::new(CodecSpec::None, n);
            let mut plan = session.plan_allreduce_with(len, ReduceOp::Sum, ring());
            let input = rank_data(survivors[c.rank()], len);
            let mut out = vec![0.0f32; len];
            plan.execute_into(c, &input, &mut out);
            out
        })
        .results
}

/// One full recover cycle: phase 1 on the current world, survivor
/// agreement, shrink, resume on the shrunk world. Panics on a second
/// failure — the single seeded kill must be fully absorbed by one
/// recovery level here.
fn kill_then_recover<C: Comm>(
    c: &mut C,
    session: &CCollSession,
    len: usize,
) -> Result<(Vec<f32>, Recovery), CollectiveError> {
    let mut plan = session.plan_allreduce_with(len, ReduceOp::Sum, ring());
    let input = rank_data(c.rank(), len);
    let mut out = vec![0.0f32; len];
    let (suspects, restart) = match plan.try_execute_into(c, &input, &mut out) {
        Ok(()) => (Vec::new(), false),
        Err(e) => {
            assert!(plan.is_poisoned(), "an aborted plan must be poisoned");
            (dead_suspects(&e), true)
        }
    };
    let r = session.recover(c, &suspects, restart)?;
    assert!(
        r.restart(),
        "a mid-collective kill must force the restart flag across survivors"
    );
    assert!(!r.dead().is_empty(), "the agreement must name the victim");
    plan.recover(&r)?;
    let mut sc = r.comm(c)?;
    plan.try_execute_into(&mut sc, &input, &mut out)?;
    Ok((out, r))
}

#[test]
fn kill_shrink_resume_is_bitwise_equal_across_worlds() {
    for world in [2usize, 3, 4, 5, 6, 7, 8, 9, 32, 128] {
        let len = if world > 16 { 24 } else { 48 };
        let victim = world / 2;
        let cfg = SimConfig::new(world)
            .with_faults(FaultPlan::seeded(11 + world as u64).with_kill(victim, 2))
            .with_fault_policy(FaultPolicy::with_timeout(Duration::from_millis(1), 2));
        let out = SimWorld::new(cfg)
            .try_run(move |c| {
                let session = CCollSession::new(CodecSpec::None, world);
                let (out, r) = kill_then_recover(c, &session, len)
                    .unwrap_or_else(|e| panic!("survivor failed to recover: {e}"));
                assert_eq!(r.survivors(), world - 1);
                assert!(
                    r.dead().contains(victim),
                    "agreement must name rank {victim}"
                );
                let stats = session.stats();
                assert!(stats.shrinks >= 1, "the shrink must be counted");
                assert!(stats.agreement_rounds >= 1);
                out
            })
            .expect("no deadlock");
        let survivors: Vec<usize> = (0..world).filter(|&r| r != victim).collect();
        let expected = shrunk_reference(&survivors, len);
        let mut checked = 0;
        for (old_rank, outcome) in out.results.iter().enumerate() {
            match outcome {
                RankOutcome::Completed(got) => {
                    let new_rank = survivors.iter().position(|&s| s == old_rank).unwrap();
                    assert_eq!(
                        *got, expected[new_rank],
                        "world {world}: old rank {old_rank} diverged from the \
                         fault-free shrunk-world reference"
                    );
                    checked += 1;
                }
                RankOutcome::Killed => assert_eq!(old_rank, victim),
                RankOutcome::Panicked(msg) => {
                    panic!("world {world}: rank {old_rank} panicked: {msg}")
                }
            }
        }
        assert_eq!(checked, world - 1, "every survivor must complete");
    }
}

#[test]
fn recovery_revives_every_recovered_plan_type() {
    // One Recovery revives *all* of a session's poisoned/stale plans:
    // after the allreduce absorbs the kill, an allgather and a bcast
    // planned before the shrink run correctly on the shrunk world.
    let world = 6;
    let len = 60;
    let victim = 2usize;
    let cfg = SimConfig::new(world)
        .with_faults(FaultPlan::seeded(23).with_kill(victim, 2))
        .with_fault_policy(FaultPolicy::with_timeout(Duration::from_millis(1), 2));
    let out = SimWorld::new(cfg)
        .try_run(move |c| {
            let session = CCollSession::new(CodecSpec::Szx { error_bound: 1e-3 }, world);
            let mut ag = session.plan_allgather(len);
            let mut bc = session.plan_bcast(0, len);
            let (ar_out, r) = kill_then_recover(c, &session, len)
                .unwrap_or_else(|e| panic!("survivor failed to recover: {e}"));
            ag.recover(&r).expect("allgather must re-plan");
            bc.recover(&r).expect("bcast must re-plan");
            let input = rank_data(c.rank(), len);
            let mut sc = r.comm(c).expect("survivor builds the shrunk comm");
            let mut ag_out = vec![0.0f32; len * r.survivors()];
            ag.try_execute_into(&mut sc, &input, &mut ag_out)
                .expect("allgather on the shrunk world");
            let bdata = if sc.rank() == 0 {
                rank_data(42, len)
            } else {
                Vec::new()
            };
            let mut bc_out = vec![0.0f32; len];
            bc.try_execute_into(&mut sc, &bdata, &mut bc_out)
                .expect("bcast on the shrunk world");
            (ar_out, ag_out, bc_out)
        })
        .expect("no deadlock");
    let survivors: Vec<usize> = (0..world).filter(|&r| r != victim).collect();
    // Same lossy codec on the fault-free shrunk world: recovery must
    // reproduce its bits exactly, quantization error and all.
    let expected = {
        let survivors = survivors.clone();
        let n = survivors.len();
        SimWorld::with_ranks(n)
            .run(move |c| {
                let session = CCollSession::new(CodecSpec::Szx { error_bound: 1e-3 }, n);
                let mut ar = session.plan_allreduce_with(len, ReduceOp::Sum, ring());
                let mut ag = session.plan_allgather(len);
                let mut bc = session.plan_bcast(0, len);
                let input = rank_data(survivors[c.rank()], len);
                let mut ar_out = vec![0.0f32; len];
                ar.execute_into(c, &input, &mut ar_out);
                let mut ag_out = vec![0.0f32; len * n];
                ag.execute_into(c, &input, &mut ag_out);
                let bdata = if c.rank() == 0 {
                    rank_data(42, len)
                } else {
                    Vec::new()
                };
                let mut bc_out = vec![0.0f32; len];
                bc.execute_into(c, &bdata, &mut bc_out);
                (ar_out, ag_out, bc_out)
            })
            .results
    };
    for (old_rank, outcome) in out.results.iter().enumerate() {
        match outcome {
            RankOutcome::Completed((ar, ag, bc)) => {
                let new_rank = survivors.iter().position(|&s| s == old_rank).unwrap();
                let (ar_e, ag_e, bc_e) = &expected[new_rank];
                assert_eq!(ar, ar_e, "allreduce diverged");
                assert_eq!(ag, ag_e, "allgather diverged");
                assert_eq!(bc, bc_e, "bcast diverged");
            }
            RankOutcome::Killed => assert_eq!(old_rank, victim),
            RankOutcome::Panicked(msg) => panic!("rank {old_rank} panicked: {msg}"),
        }
    }
}

/// What a plan's public surface says about its schedule and shape.
macro_rules! described {
    ($plan:expr, $world:expr, $($shape:ident),* $(; $per_rank:ident)?) => {{
        let plan = &$plan;
        let shape = [$(plan.$shape()),*].into_iter();
        $(let shape = shape.chain((0..$world).map(|rank| plan.$per_rank(rank)));)?
        (plan.algorithm(), shape.collect::<Vec<usize>>())
    }};
}

#[test]
fn recovered_plans_match_fresh_plans_on_the_shrunk_session() {
    // `plan.recover(&r)` is `Plan::build` on `r.session()` at the
    // shrunk shape: for every kind, pinned and `Auto`, the recovered
    // plan reports the schedule, root and counts a fresh plan built
    // with the recovered options reports. (The in-crate
    // `plan::tests::recovered_workspaces_match_a_fresh_build` compares
    // the workspaces.) A rooted plan whose root died cannot recover.
    let world = 6;
    let len = 60; // divisible by 6 and by 5: the all-to-all survives the shrink
    let (victim, root) = (2usize, 4usize);
    let cfg = SimConfig::new(world)
        .with_faults(FaultPlan::seeded(29).with_kill(victim, 2))
        .with_fault_policy(FaultPolicy::with_timeout(Duration::from_millis(1), 2));
    let out = SimWorld::new(cfg)
        .try_run(move |c| {
            let session = CCollSession::new(CodecSpec::Szx { error_bound: 1e-3 }, world);
            let auto = PlanOptions::new();
            let pin = |a| PlanOptions::new().algorithm(a);
            let sum = ReduceOp::Sum;
            let mut allreduces = [
                session.plan_allreduce_with(len, sum, auto),
                session.plan_allreduce_with(len, sum, pin(Algorithm::Rabenseifner)),
            ];
            let mut allgathers = [
                session.plan_allgatherv_with(&[7, 1, 9, 4, 4, 2], auto),
                session.plan_allgather_with(len, pin(Algorithm::Bruck)),
            ];
            let mut reduce_scatter = session.plan_reduce_scatter(len, sum);
            let mut bcast = session.plan_bcast(root, len);
            let mut scatter = session.plan_scatter(root, len);
            let mut gather = session.plan_gather(root, len);
            let mut alltoalls = [
                session.plan_alltoall(len),
                session.plan_alltoall_with(len, pin(Algorithm::Bruck)),
            ];
            let mut reduces = [
                session.plan_reduce_with(root, len, sum, auto),
                session.plan_reduce(root, len, sum),
                session.plan_reduce_with(root, len, sum, pin(Algorithm::Binomial)),
            ];
            let mut orphans = (
                session.plan_bcast(victim, len),
                session.plan_scatter(victim, len),
                session.plan_gather(victim, len),
                session.plan_reduce(victim, len, sum),
            );
            // An explicitly hierarchical plan re-resolves like an `Auto`
            // one: the shrunk session has no topology.
            let cluster = session
                .clone()
                .with_topology(Topology::uniform(3, 2), HierNet::cluster_default());
            let mut hier = cluster.plan_allreduce_with(len, sum, pin(Algorithm::Hierarchical));

            let (_, r) = kill_then_recover(c, &session, len)
                .unwrap_or_else(|e| panic!("survivor failed to recover: {e}"));
            let (s, n) = (r.session(), r.survivors());
            let new_root = r.new_rank_of(root).expect("the root survived");
            assert_eq!((n, new_root), (world - 1, root - 1));

            for (plan, opts) in allreduces
                .iter_mut()
                .zip([auto, pin(Algorithm::Rabenseifner)])
            {
                plan.recover(&r).expect("allreduce re-plans");
                let fresh = s.plan_allreduce_with(len, sum, opts);
                assert_eq!(described!(plan, n, len), described!(fresh, n, len));
            }
            hier.recover(&r)
                .expect("hierarchical allreduce re-plans flat");
            let fresh = s.plan_allreduce_with(len, sum, auto);
            assert_eq!(described!(hier, n, len), described!(fresh, n, len));
            for (plan, opts) in allgathers.iter_mut().zip([auto, pin(Algorithm::Bruck)]) {
                let counts = r.surviving_counts(plan.counts());
                plan.recover(&r).expect("allgather re-plans");
                let fresh = s.plan_allgatherv_with(&counts, opts);
                assert_eq!(plan.counts(), counts);
                assert_eq!(
                    described!(plan, n, total_len),
                    described!(fresh, n, total_len)
                );
            }
            reduce_scatter.recover(&r).expect("reduce-scatter re-plans");
            let fresh = s.plan_reduce_scatter(len, sum);
            assert_eq!(
                described!(reduce_scatter, n, len; output_len),
                described!(fresh, n, len; output_len)
            );
            bcast.recover(&r).expect("bcast re-plans");
            let fresh = s.plan_bcast(new_root, len);
            assert_eq!(
                described!(bcast, n, root, len),
                described!(fresh, n, root, len)
            );
            scatter.recover(&r).expect("scatter re-plans");
            let fresh = s.plan_scatter(new_root, len);
            assert_eq!(
                described!(scatter, n, root, total_len; output_len),
                described!(fresh, n, root, total_len; output_len)
            );
            gather.recover(&r).expect("gather re-plans");
            let fresh = s.plan_gather(new_root, len);
            assert_eq!(
                described!(gather, n, root, total_len; input_len),
                described!(fresh, n, root, total_len; input_len)
            );
            for (plan, a) in alltoalls
                .iter_mut()
                .zip([Algorithm::Pairwise, Algorithm::Bruck])
            {
                plan.recover(&r).expect("all-to-all re-plans");
                let fresh = s.plan_alltoall_with(len, pin(a));
                assert_eq!(described!(plan, n, len), described!(fresh, n, len));
            }
            let reduce_opts = [auto, pin(Algorithm::Rabenseifner), pin(Algorithm::Binomial)];
            for (plan, opts) in reduces.iter_mut().zip(reduce_opts) {
                plan.recover(&r).expect("reduce re-plans");
                let fresh = s.plan_reduce_with(new_root, len, sum, opts);
                assert_eq!(
                    described!(plan, n, root, len),
                    described!(fresh, n, root, len)
                );
            }

            let dead_root = Err(CollectiveError::Comm(CommError::PeerDead { peer: victim }));
            assert_eq!(orphans.0.recover(&r), dead_root);
            assert_eq!(orphans.1.recover(&r), dead_root);
            assert_eq!(orphans.2.recover(&r), dead_root);
            assert_eq!(orphans.3.recover(&r), dead_root);
        })
        .expect("no deadlock");
    for (rank, outcome) in out.results.iter().enumerate() {
        match outcome {
            RankOutcome::Completed(()) => assert_ne!(rank, victim),
            RankOutcome::Killed => assert_eq!(rank, victim),
            RankOutcome::Panicked(msg) => panic!("rank {rank} panicked: {msg}"),
        }
    }
}

#[test]
fn sixty_four_restart_only_shrinks_each_enter_a_fresh_epoch() {
    // No epoch limit: each of 64 restart-only shrinks of one session
    // enters the next epoch, and an allreduce on its shrunk world
    // completes exactly.
    let world = 4;
    let len = 24;
    let want = shrunk_reference(&[0, 1, 2, 3], len);
    let out = SimWorld::new(SimConfig::new(world)).run(move |c| {
        let mut session = CCollSession::new(CodecSpec::None, world);
        for epoch in 1..=64 {
            let r = session.recover(c, &[], true).expect("a fresh epoch");
            assert_eq!((r.epoch(), r.survivors()), (epoch, world));
            let sc = &mut r.comm(c).expect("survivor");
            let mut plan = r.session().plan_allreduce_with(len, ReduceOp::Sum, ring());
            let mut out = vec![0.0f32; len];
            plan.execute_into(sc, &rank_data(sc.rank(), len), &mut out);
            assert_eq!(out, want[sc.rank()], "epoch {epoch}");
            session = r.session().clone();
        }
        session.stats().shrinks
    });
    assert!(out.results.iter().all(|&shrinks| shrinks == 64));
    assert_eq!(out.undelivered_total(), 0);
}

#[test]
fn forced_second_shrink_nests_epochs() {
    // Two recovery levels: a real kill, then a forced restart-only
    // agreement on the already-shrunk world (dead-set stays empty, the
    // epoch advances again). The nested `CommView<CommView<_>>` puts
    // its messages in the second epoch, so the final run must still be
    // exact.
    let world = 5;
    let len = 40;
    let victim = 1usize;
    let cfg = SimConfig::new(world)
        .with_faults(FaultPlan::seeded(31).with_kill(victim, 2))
        .with_fault_policy(FaultPolicy::with_timeout(Duration::from_millis(1), 2));
    let out = SimWorld::new(cfg)
        .try_run(move |c| {
            let session = CCollSession::new(CodecSpec::None, world);
            let mut plan = session.plan_allreduce_with(len, ReduceOp::Sum, ring());
            let input = rank_data(c.rank(), len);
            let mut out = vec![0.0f32; len];
            let (suspects, restart) = match plan.try_execute_into(c, &input, &mut out) {
                Ok(()) => (Vec::new(), false),
                Err(e) => (dead_suspects(&e), true),
            };
            let r1 = session.recover(c, &suspects, restart).expect("level 1");
            plan.recover(&r1).expect("re-plan 1");
            let mut sc1 = r1.comm(c).expect("shrunk comm 1");
            plan.try_execute_into(&mut sc1, &input, &mut out)
                .expect("resume on level 1");
            // Forced second level: nobody else died, but a restart-only
            // agreement still advances the epoch and nests the comm.
            let r2 = r1
                .session()
                .recover(&mut sc1, &[], true)
                .expect("level 2 agreement on the shrunk world");
            assert!(r2.dead().is_empty(), "no further deaths");
            assert_eq!(r2.epoch(), 2, "each shrink advances the epoch");
            plan.recover(&r2).expect("re-plan 2");
            let mut sc2 = r2.comm(&mut sc1).expect("nested shrunk comm");
            plan.try_execute_into(&mut sc2, &input, &mut out)
                .expect("resume on level 2");
            out
        })
        .expect("no deadlock");
    let survivors: Vec<usize> = (0..world).filter(|&r| r != victim).collect();
    let expected = shrunk_reference(&survivors, len);
    for (old_rank, outcome) in out.results.iter().enumerate() {
        match outcome {
            RankOutcome::Completed(got) => {
                let new_rank = survivors.iter().position(|&s| s == old_rank).unwrap();
                assert_eq!(*got, expected[new_rank], "old rank {old_rank} diverged");
            }
            RankOutcome::Killed => assert_eq!(old_rank, victim),
            RankOutcome::Panicked(msg) => panic!("rank {old_rank} panicked: {msg}"),
        }
    }
}

#[test]
fn threaded_kill_shrink_resume_matches_shrunk_reference() {
    // The same recovery pipeline on real threads: the victim declares
    // itself crashed before participating, the survivors time out or
    // observe `PeerDead`, agree, shrink and resume.
    let world = 4;
    let len = 64;
    let victim = 3usize;
    let tw = ThreadWorld::with_fault_policy(
        world,
        FaultPolicy::with_timeout(Duration::from_millis(2), 3),
    );
    let out = tw.run(move |c| {
        if c.rank() == victim {
            c.mark_self_dead();
            return None;
        }
        let session = CCollSession::new(CodecSpec::None, world);
        let (out, r) = kill_then_recover(c, &session, len)
            .unwrap_or_else(|e| panic!("threaded survivor failed to recover: {e}"));
        assert!(r.dead().contains(victim));
        assert_eq!(r.survivors(), world - 1);
        Some(out)
    });
    let survivors: Vec<usize> = (0..world).filter(|&r| r != victim).collect();
    // Fault-free threaded reference on the shrunk world.
    let expected = {
        let survivors = survivors.clone();
        ThreadWorld::new(world - 1)
            .run(move |c| {
                let session = CCollSession::new(CodecSpec::None, world - 1);
                let mut plan = session.plan_allreduce_with(len, ReduceOp::Sum, ring());
                let input = rank_data(survivors[c.rank()], len);
                let mut out = vec![0.0f32; len];
                plan.execute_into(c, &input, &mut out);
                out
            })
            .results
    };
    for (old_rank, got) in out.results.iter().enumerate() {
        match got {
            Some(got) => {
                let new_rank = survivors.iter().position(|&s| s == old_rank).unwrap();
                assert_eq!(
                    *got, expected[new_rank],
                    "threaded old rank {old_rank} diverged from the shrunk reference"
                );
            }
            None => assert_eq!(old_rank, victim),
        }
    }
}

/// The abandoned-operation regression, shared by both backends: a
/// handle dropped mid-flight poisons its plan and leaves a parked
/// abort reason plus stale posted receives and undelivered traffic
/// behind; `reset_in` must scrub *all* of it, so the very next drive
/// of the same plan completes cleanly and exactly.
fn abandon_reset_rerun<C: Comm>(c: &mut C, world: usize, len: usize) -> Vec<f32> {
    let session = CCollSession::new(CodecSpec::None, world);
    let mut plan = session.plan_allreduce_with(len, ReduceOp::Sum, ring());
    let input = rank_data(c.rank(), len);
    let mut out = vec![0.0f32; len];
    {
        let mut handle = plan.start(c, &input, &mut out);
        let _ = handle.progress(c); // partial: rounds are now in flight
    } // dropped without completing
    assert_eq!(
        plan.poison_error(),
        Some(CollectiveError::Abandoned),
        "a handle dropped mid-operation must poison its plan"
    );
    plan.reset_in(c);
    assert!(!plan.is_poisoned(), "reset_in must clear the poison");
    c.barrier();
    plan.try_execute_into(c, &input, &mut out)
        .expect("a reset plan must re-run cleanly after an abandoned op");
    out
}

#[test]
fn abandoned_op_reset_in_reruns_cleanly_on_both_backends() {
    let world = 4;
    let len = 600;
    let expected: Vec<Vec<f32>> = (0..world)
        .map(|_| {
            let mut acc = vec![0.0f32; len];
            for r in 0..world {
                for (a, b) in acc.iter_mut().zip(rank_data(r, len)) {
                    *a += b;
                }
            }
            acc
        })
        .collect();

    let sim = SimWorld::with_ranks(world).run(move |c| abandon_reset_rerun(c, world, len));
    for (rank, got) in sim.results.iter().enumerate() {
        assert_eq!(*got, expected[rank], "sim rank {rank} diverged after reset");
    }

    let thr = ThreadWorld::new(world).run(move |c| abandon_reset_rerun(c, world, len));
    for (rank, got) in thr.results.iter().enumerate() {
        assert_eq!(
            *got, expected[rank],
            "threaded rank {rank} diverged after reset"
        );
    }
}

#[test]
fn fault_free_sessions_report_zero_recovery_overhead() {
    // FaultPolicy::NONE, no faults: the recovery machinery must cost
    // nothing and count nothing.
    let world = 4;
    let len = 256;
    let out = SimWorld::with_ranks(world).run(move |c| {
        let session = CCollSession::new(CodecSpec::None, world);
        let mut plan = session.plan_allreduce_with(len, ReduceOp::Sum, ring());
        let input = rank_data(c.rank(), len);
        let mut out = vec![0.0f32; len];
        for _ in 0..3 {
            plan.execute_into(c, &input, &mut out);
        }
        let stats = session.stats();
        (stats.shrinks, stats.agreement_rounds, stats.stale_discarded)
    });
    for (rank, &(shrinks, rounds, stale)) in out.results.iter().enumerate() {
        assert_eq!(
            (shrinks, rounds, stale),
            (0, 0, 0),
            "rank {rank}: a fault-free session must report zero recovery activity"
        );
    }
}

#[test]
fn progress_until_soaks_exactly_the_idle_window() {
    // The overlap API: progress_until(deadline) drives ops only until
    // the clock reaches the deadline, returning how many completed;
    // a far deadline drains everything.
    let world = 4;
    let len = 4000;
    let out = SimWorld::with_ranks(world).run(move |c| {
        let session = CCollSession::new(CodecSpec::None, world);
        let mut p1 = session.plan_allreduce_with(len, ReduceOp::Sum, ring());
        let mut p2 = session.plan_allreduce_with(len / 2, ReduceOp::Sum, ring());
        let i1 = rank_data(c.rank(), len);
        let i2 = rank_data(c.rank(), len / 2);
        let mut o1 = vec![0.0f32; len];
        let mut o2 = vec![0.0f32; len / 2];
        {
            let mut engine = ProgressEngine::new();
            engine.submit(p1.start(c, &i1, &mut o1));
            engine.submit(p2.start(c, &i2, &mut o2));
            // A zero-width window: the deadline is already here, so the
            // engine must hand control straight back (at most one
            // nonblocking pass, no blocking overrun of a whole op).
            let immediate = engine.progress_until(c, c.now());
            assert_eq!(engine.live_ops(), 2 - immediate);
            // A generous window drains the rest.
            let rest = engine.progress_until(c, c.now() + Duration::from_secs(60));
            assert_eq!(immediate + rest, 2, "both operations must complete");
            assert_eq!(engine.live_ops(), 0);
        }
        (o1[0], o2[0])
    });
    let expect1: f32 = (0..world).map(|r| rank_data(r, len)[0]).sum();
    let expect2: f32 = (0..world).map(|r| rank_data(r, len / 2)[0]).sum();
    for &(a, b) in &out.results {
        assert_eq!(a, expect1);
        assert_eq!(b, expect2);
    }
}
