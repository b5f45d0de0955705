//! Fault injection at the collective layer: the nonblocking state
//! machines from PR 5 must *survive* the chaos subsystem's seeded
//! faults. Transient loss is absorbed by bounded retries without
//! changing a single output bit; unrecoverable faults (a dead peer, an
//! exhausted retry budget) abort cleanly — structured error, poisoned
//! plan, no hang, no corrupted-buffer reuse — and `reset()` re-arms
//! the plan.
//!
//! All chaos runs pin an explicit algorithm (never [`Algorithm::Auto`]):
//! `Auto`'s re-rank and calibration rounds run their own min-agreement
//! outside any fault policy, which is exactly the kind of unbounded
//! wait these tests exist to rule out.

use c_coll::{
    Algorithm, AllreduceVariant, CCollSession, CodecSpec, CollectiveError, PlanOptions, ReduceOp,
};
use ccoll_comm::{Comm, CommError, FaultPlan, FaultPolicy, HierNet, SimConfig, SimWorld, Topology};
use std::time::Duration;

fn rank_data(rank: usize, len: usize) -> Vec<f32> {
    // Integer-valued: f32 sums of these are exact, so a retried run can
    // be compared bitwise against a fault-free one.
    (0..len)
        .map(|i| {
            let x = (i as u64)
                .wrapping_mul(0x9E37_79B9)
                .wrapping_add(rank as u64 * 2654435761);
            ((x % 201) as f32) - 100.0
        })
        .collect()
}

fn ring_opts() -> PlanOptions {
    PlanOptions::new().algorithm(Algorithm::Ring)
}

/// A policy generous enough to absorb any transient fault mix the
/// seeded plans below produce, but bounded — permanent faults must
/// exhaust it in finite virtual time.
fn patient_policy() -> FaultPolicy {
    FaultPolicy::with_timeout(Duration::from_millis(1), 16)
}

#[test]
fn drop_then_retry_is_bitwise_equal_to_fault_free() {
    // Every message transiently dropped at least possibly once: the
    // retry loop re-arms the same buffers, so a lossless codec must
    // produce the exact bytes of the clean run — retries change timing,
    // never data.
    let n = 5;
    let len = 700;
    let body = move |c: &mut ccoll_comm::sim::SimComm| {
        let session = CCollSession::new(CodecSpec::None, n);
        let mut plan = session.plan_allreduce_with(len, ReduceOp::Sum, ring_opts());
        let input = rank_data(c.rank(), len);
        let mut out = vec![0.0f32; len];
        plan.try_execute_into(c, &input, &mut out)
            .expect("transient drops must be absorbed by retries");
        let stats = plan.stats();
        (out, stats.retries, stats.aborts)
    };
    let clean = SimWorld::with_ranks(n).run(body);
    let cfg = SimConfig::new(n)
        .with_faults(FaultPlan::seeded(42).with_drops(0.35, Duration::from_micros(300), 4))
        .with_fault_policy(patient_policy());
    let faulty = SimWorld::new(cfg).run(body);
    for (rank, (faulty_rank, clean_rank)) in
        faulty.results.iter().zip(clean.results.iter()).enumerate()
    {
        assert_eq!(
            faulty_rank.0, clean_rank.0,
            "rank {rank}: retried run must be bitwise-equal"
        );
    }
    assert!(
        faulty.results.iter().any(|r| r.1 > 0),
        "the fault plan must actually force retries"
    );
    assert!(
        faulty.results.iter().all(|r| r.2 == 0),
        "no aborts in a transient-only mix"
    );
    assert!(faulty.makespan > clean.makespan, "retransmits cost time");
}

#[test]
fn rank_crash_mid_progress_poisons_plan_without_hanging() {
    // Rank 1 dies a few operations into the collective. Every survivor
    // that progresses the nonblocking handle must observe a structured
    // abort (never a hang), and its plan must come out poisoned.
    let n = 4;
    let len = 400;
    let cfg = SimConfig::new(n)
        .with_faults(FaultPlan::seeded(7).with_kill(1, 5))
        .with_fault_policy(FaultPolicy::with_timeout(Duration::from_millis(1), 2));
    let out = SimWorld::new(cfg)
        .try_run(move |c| {
            let session = CCollSession::new(CodecSpec::None, n);
            let mut plan = session.plan_allreduce_with(len, ReduceOp::Sum, ring_opts());
            let input = rank_data(c.rank(), len);
            let mut result = vec![0.0f32; len];
            let err = {
                let mut handle = plan.start(c, &input, &mut result);
                // A bounded non-blocking poll phase first: `progress`
                // never blocks, so it can observe the crash only if a
                // blocking wait already parked the error — after the
                // overlap window, drain with the blocking (and
                // therefore timeout-capable) `try_complete`.
                let mut polls = 0;
                loop {
                    match handle.try_progress(c) {
                        Ok(p) if p.is_ready() => break None,
                        Ok(_) => {
                            polls += 1;
                            if polls > 64 {
                                break handle.try_complete(c).err();
                            }
                            c.charge_duration(
                                Duration::from_micros(5),
                                ccoll_comm::Category::Others,
                            );
                        }
                        Err(e) => break Some(e),
                    }
                }
            };
            (err, plan.is_poisoned())
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
    // In a 4-rank ring everyone depends on rank 1 within n-1 hops: every
    // survivor aborts, and aborting poisons its plan.
    for (rank, (err, poisoned)) in survivors {
        let e = err.unwrap_or_else(|| panic!("rank {rank} must abort, not complete"));
        assert!(
            matches!(e, CollectiveError::Comm(_)),
            "rank {rank}: structured comm error, got {e:?}"
        );
        assert!(poisoned, "rank {rank}: aborted plan must be poisoned");
    }
}

#[test]
fn lane_owner_crash_aborts_every_survivor_without_hanging() {
    // Eight 2-rank nodes at two lanes: every rank owns a lane, and the
    // victim — rank 1, node 0's second owner, not its leader — runs one
    // intra-node exchange, the inter-node leg with the other lane-1
    // owners (three reduce-scatter rounds, three allgather rounds), and
    // one more intra-node exchange. It is killed after each operation
    // count in turn, until the count outlasts the collective.
    //
    // Never a hang. A survivor either finishes with the exact sum or
    // aborts with a structured error on a poisoned plan that `reset`
    // re-arms. Until the victim's share of lane 1 has left it — the
    // first half of its operations, through the reduce-scatter rounds
    // of its inter-node leg — nobody can finish, so every survivor
    // aborts; after that, ever fewer do.
    let n = 16;
    let len = 32_000;
    let victim = 1;
    let mut oracle = vec![0.0f32; len];
    for r in 0..n {
        for (o, v) in oracle.iter_mut().zip(rank_data(r, len)) {
            *o += v;
        }
    }
    let run = move |after_ops: u64| {
        let cfg = SimConfig::new(n)
            .with_faults(FaultPlan::seeded(7).with_kill(victim, after_ops))
            .with_fault_policy(FaultPolicy::with_timeout(Duration::from_millis(1), 2));
        SimWorld::new(cfg)
            .try_run(move |c| {
                let session = CCollSession::new(CodecSpec::None, n)
                    .with_topology(Topology::uniform(8, 2), HierNet::cluster_default());
                let mut plan = session.plan_allreduce_with(
                    len,
                    ReduceOp::Sum,
                    PlanOptions::new().algorithm(Algorithm::Hierarchical),
                );
                assert_eq!(plan.hier_lanes(), Some(2), "the case under test");
                let mut result = vec![0.0f32; len];
                let outcome = plan.try_execute_into(c, &rank_data(c.rank(), len), &mut result);
                assert_eq!(outcome.is_err(), plan.is_poisoned(), "abort poisons");
                plan.reset();
                assert!(!plan.is_poisoned(), "reset re-arms the plan");
                outcome.map(|()| result)
            })
            .expect("a killed rank must never deadlock the world")
    };
    // How many survivors aborted, per kill point, while the kill fired.
    let aborted: Vec<usize> = (1..)
        .map(run)
        .take_while(|out| out.results[victim].is_killed())
        .map(|out| {
            let survivors = out.results.iter().filter_map(|o| o.as_completed());
            survivors
                .filter(|outcome| match outcome {
                    Ok(result) => {
                        assert_eq!(result, &oracle, "a finished survivor holds the sum");
                        false
                    }
                    Err(e) => {
                        assert!(matches!(e, CollectiveError::Comm(_)), "got {e:?}");
                        true
                    }
                })
                .count()
        })
        .collect();
    // Charged kernels count as operations, so how long the victim's
    // collective is depends on what the schedule charges; the shape of
    // the sweep does not. It is not vacuous: the first kill aborts
    // everyone and the last lets somebody finish.
    let ops = aborted.len();
    assert!(ops >= 2 && aborted[ops - 1] < n - 1, "{aborted:?}");
    assert!(
        aborted[..ops / 2].iter().all(|&a| a == n - 1),
        "{aborted:?}"
    );
    assert!(aborted.windows(2).all(|w| w[0] >= w[1]), "{aborted:?}");
}

/// Run `$plan` once under total loss on a rank that waits on a receive:
/// `try_execute_into` returns the structured timeout and poisons the
/// plan; reuse without `reset()` reports `Poisoned`, not a panic; the
/// abort and its timeouts are counted; `reset()` re-arms the plan object
/// itself.
macro_rules! assert_aborts_and_rearms {
    ($c:expr, $plan:expr, $input:expr, $out:expr, $case:expr) => {{
        let (plan, case) = (&mut $plan, $case);
        let err = plan
            .try_execute_into($c, $input, $out)
            .expect_err("total loss must abort");
        assert!(
            matches!(err, CollectiveError::Comm(CommError::Timeout { .. })),
            "{case:?}: {err:?}"
        );
        assert!(plan.is_poisoned(), "{case:?}");
        assert_eq!(plan.poison_error(), Some(err), "{case:?}");
        let again = plan
            .try_execute_into($c, $input, $out)
            .expect_err("poisoned plan refuses to run");
        assert_eq!(again, CollectiveError::Poisoned, "{case:?}");
        let stats = plan.stats();
        assert!(
            stats.aborts >= 1,
            "{case:?}: abort must be counted, got {stats:?}"
        );
        assert!(stats.timeouts >= 1, "{case:?}: timeouts must be counted");
        plan.reset();
        assert!(!plan.is_poisoned(), "{case:?}");
    }};
}

/// The reducing-hop shapes [`permanent_loss_aborts_cleanly_and_reset_rearms`]
/// runs under total loss.
#[derive(Debug, Clone, Copy)]
enum LossCase {
    /// The raw ring allreduce.
    Ring,
    /// The CPR-P2P ring (the paper's direct integration).
    CprRing,
    /// Raw Rabenseifner on a world that is not a power of two: the fold.
    Rabenseifner,
    /// The binomial reduce tree: raw, or CPR-P2P under a codec without
    /// an error bound (`Lossless`, whose hops stay whole messages).
    Tree(CodecSpec),
}

#[test]
fn permanent_loss_aborts_cleanly_and_reset_rearms() {
    // Phase 1 under total loss: try_execute_into returns the structured
    // error and poisons the plan; reuse without reset() reports
    // Poisoned. Phase 2 (fault plan exhausted — kill-free total loss is
    // scoped to the first messages only via a tiny retry budget, so we
    // just build a fresh clean world): after reset() the same plan
    // object completes and matches the oracle. Every reducing hop shape
    // runs it: rings, the fold and tree edges — as one message, and the
    // raw ring and tree also as a stream of 20-value sub-chunks with a
    // ragged tail (the raw session's pipe).
    let n = 3;
    let len = 256;
    let whole = len;
    let cases = [
        (LossCase::Ring, whole),
        (LossCase::Ring, 20),
        (LossCase::CprRing, whole),
        (LossCase::Rabenseifner, whole),
        (LossCase::Tree(CodecSpec::None), whole),
        (LossCase::Tree(CodecSpec::None), 20),
        (LossCase::Tree(CodecSpec::Lossless), whole),
    ];
    for (case, pipe) in cases {
        let cfg = SimConfig::new(n)
            .with_faults(FaultPlan::seeded(3).with_loss(1.0))
            .with_fault_policy(FaultPolicy::with_timeout(Duration::from_micros(500), 2));
        let out = SimWorld::new(cfg).run(move |c| {
            let input = rank_data(c.rank(), len);
            let mut result = vec![0.0f32; len];
            let raw = CCollSession::new(CodecSpec::None, n).with_pipeline_values(pipe);
            let sum = ReduceOp::Sum;
            match case {
                LossCase::Ring => {
                    let mut plan = raw.plan_allreduce_with(len, sum, ring_opts());
                    assert_aborts_and_rearms!(c, plan, &input, &mut result, case);
                }
                LossCase::CprRing => {
                    let session = CCollSession::new(CodecSpec::Lossless, n);
                    let di = AllreduceVariant::DirectIntegration;
                    let mut plan = session.plan_allreduce_variant(len, sum, di);
                    assert_aborts_and_rearms!(c, plan, &input, &mut result, case);
                }
                LossCase::Rabenseifner => {
                    let opts = PlanOptions::new().algorithm(Algorithm::Rabenseifner);
                    let mut plan = raw.plan_allreduce_with(len, sum, opts);
                    assert_aborts_and_rearms!(c, plan, &input, &mut result, case);
                }
                LossCase::Tree(spec) => {
                    let session = CCollSession::new(spec, n).with_pipeline_values(pipe);
                    let opts = PlanOptions::new().algorithm(Algorithm::Binomial);
                    let mut plan = session.plan_reduce_with(0, len, sum, opts);
                    if c.rank() == 0 {
                        assert_aborts_and_rearms!(c, plan, &input, &mut result, case);
                    } else {
                        // Both other ranks are leaves: they only send, and
                        // an eager send completes however the network loses it.
                        plan.try_execute_into(c, &input, &mut [])
                            .expect("a leaf only sends");
                        assert!(!plan.is_poisoned(), "{case:?}");
                    }
                }
            }
        });
        assert_eq!(out.results.len(), n);
        assert!(out.lost_messages > 0, "{case:?}: the network ate messages");
    }
}

#[test]
fn reset_plan_completes_and_matches_oracle_after_faults_clear() {
    // Same plan object: aborted once under heavy loss, reset, then run
    // again after the fault window closes — the result must match the
    // exact oracle, proving no half-exchanged state leaked across the
    // abort.
    let n = 4;
    let len = 320;
    // Faults stop after rank 0's first 2 sends: model a transient
    // outage with a drop plan whose retry budget eventually wins.
    let cfg = SimConfig::new(n)
        .with_faults(FaultPlan::seeded(11).with_drops(0.9, Duration::from_micros(200), 6))
        .with_fault_policy(patient_policy());
    let out = SimWorld::new(cfg).run(move |c| {
        let session = CCollSession::new(CodecSpec::None, n);
        let mut plan = session.plan_allreduce_with(len, ReduceOp::Sum, ring_opts());
        let input = rank_data(c.rank(), len);
        let mut result = vec![0.0f32; len];
        plan.try_execute_into(c, &input, &mut result)
            .expect("drops with a big retry budget must complete");
        // Second run on the same (never-poisoned) plan: warm path.
        let mut second = vec![0.0f32; len];
        plan.try_execute_into(c, &input, &mut second)
            .expect("second run completes");
        assert_eq!(result, second, "identical inputs, identical outputs");
        result
    });
    // Cross-check against the exact oracle.
    let mut oracle = vec![0.0f32; len];
    for r in 0..n {
        for (o, v) in oracle.iter_mut().zip(rank_data(r, len)) {
            *o += v;
        }
    }
    for (rank, got) in out.results.iter().enumerate() {
        assert_eq!(got, &oracle, "rank {rank} result matches exact sum");
    }
}

#[test]
fn fault_counters_flow_into_session_stats() {
    let n = 3;
    let len = 200;
    let cfg = SimConfig::new(n)
        .with_faults(FaultPlan::seeded(99).with_drops(0.5, Duration::from_micros(250), 4))
        .with_fault_policy(patient_policy());
    let out = SimWorld::new(cfg).run(move |c| {
        let session = CCollSession::new(CodecSpec::None, n);
        let mut plan = session.plan_allreduce_with(len, ReduceOp::Sum, ring_opts());
        let input = rank_data(c.rank(), len);
        let mut result = vec![0.0f32; len];
        plan.try_execute_into(c, &input, &mut result)
            .expect("completes");
        let ps = plan.stats();
        let ss = session.stats();
        (ps.retries, ps.timeouts, ss.retries, ss.timeouts, ss.aborts)
    });
    // The seeded mix drops half of all messages: some rank must retry,
    // and the per-plan counters must agree with the session aggregate.
    assert!(
        out.results.iter().any(|r| r.0 > 0 && r.1 > 0),
        "drops must surface as retries+timeouts in PlanStats: {:?}",
        out.results
    );
    for (rank, (p_retries, p_timeouts, s_retries, s_timeouts, s_aborts)) in
        out.results.iter().enumerate()
    {
        assert_eq!(
            (p_retries, p_timeouts),
            (s_retries, s_timeouts),
            "rank {rank}: one plan per session, stats must agree"
        );
        assert_eq!(*s_aborts, 0, "rank {rank}: no aborts in a transient mix");
    }
}

#[test]
fn nonblocking_bcast_survives_transient_drops_bitwise() {
    // A second collective shape through the same machinery: rooted
    // bcast under drops, lossless, must equal the root's payload.
    let n = 6;
    let len = 500;
    let root = 2;
    let cfg = SimConfig::new(n)
        .with_faults(FaultPlan::seeded(17).with_drops(0.4, Duration::from_micros(300), 4))
        .with_fault_policy(patient_policy());
    let out = SimWorld::new(cfg).run(move |c| {
        let session = CCollSession::new(CodecSpec::None, n);
        let mut plan =
            session.plan_bcast_with(root, len, PlanOptions::new().algorithm(Algorithm::Binomial));
        let data = if c.rank() == root {
            rank_data(root, len)
        } else {
            Vec::new()
        };
        let mut out_buf = vec![0.0f32; len];
        plan.try_execute_into(c, &data, &mut out_buf)
            .expect("transient drops absorbed");
        out_buf
    });
    let expect = rank_data(root, len);
    for (rank, got) in out.results.iter().enumerate() {
        assert_eq!(got, &expect, "rank {rank}: bcast payload intact");
    }
}

// The two mid-stream fault tests below share one streamed bcast: seven
// sub-chunks (the last one short), lossless codec, so "correct" is
// bitwise the root's payload.
const STREAM_CHUNK: usize = 64;
const STREAM_LEN: usize = 6 * STREAM_CHUNK + 11;

fn streamed_bcast_plan(n: usize, root: usize) -> c_coll::BcastPlan {
    CCollSession::new(CodecSpec::Lossless, n)
        .with_pipeline_values(STREAM_CHUNK)
        .plan_bcast(root, STREAM_LEN)
}

#[test]
fn streamed_bcast_retries_mid_stream_drops_and_delays_bitwise() {
    // Transient drops and delays land on sub-chunks in the middle of the
    // FIFO stream: the fault-aware tail wait re-arms, late sub-chunks
    // still match their own posted receive, and no output bit changes.
    let n = 7;
    let root = 3;
    let cfg = SimConfig::new(n)
        .with_faults(
            FaultPlan::seeded(23)
                .with_drops(0.3, Duration::from_micros(300), 4)
                .with_delays(0.3, Duration::from_micros(400)),
        )
        .with_fault_policy(patient_policy());
    let out = SimWorld::new(cfg).run(move |c| {
        let mut plan = streamed_bcast_plan(n, root);
        let data = if c.rank() == root {
            rank_data(root, STREAM_LEN)
        } else {
            Vec::new()
        };
        let mut out_buf = vec![0.0f32; STREAM_LEN];
        plan.try_execute_into(c, &data, &mut out_buf)
            .expect("transient faults absorbed");
        (out_buf, plan.stats().retries)
    });
    let expect = rank_data(root, STREAM_LEN);
    for (rank, (got, _)) in out.results.iter().enumerate() {
        assert_eq!(got, &expect, "rank {rank}: streamed payload intact");
    }
    assert!(
        out.results.iter().any(|r| r.1 > 0),
        "the fault plan must actually force retries"
    );
}

#[test]
fn streamed_bcast_aborts_mid_stream_loss_cleanly_and_reruns_after_reset() {
    // A permanently lost sub-chunk starves the tail of the FIFO stream
    // of every rank below the loss: those ranks abort (structured error,
    // poisoned plan), the rest complete. After `reset()` the same plan
    // object runs the next broadcast — whose sub-chunks must not meet
    // anything the aborted stream left behind — to the exact payload.
    //
    // Loss is seeded per message, so the second broadcast draws its own
    // faults; seeds where it loses a sub-chunk too are skipped, and the
    // test insists that enough seeds show the abort-then-clean pattern
    // with the abort demonstrably mid-stream.
    let n = 6;
    let root = 1;
    let expect = rank_data(root, STREAM_LEN);
    let mut clean_reruns = 0;
    let mut mid_stream_aborts = 0;
    for seed in 0..48 {
        let cfg = SimConfig::new(n)
            .with_faults(FaultPlan::seeded(seed).with_loss(0.03))
            .with_fault_policy(FaultPolicy::with_timeout(Duration::from_micros(500), 2));
        let out = SimWorld::new(cfg).run(move |c| {
            let mut plan = streamed_bcast_plan(n, root);
            let data = if c.rank() == root {
                rank_data(root, STREAM_LEN)
            } else {
                Vec::new()
            };
            let mut first = vec![0.0f32; STREAM_LEN];
            let aborted = match plan.try_execute_into(c, &data, &mut first) {
                Ok(()) => false,
                Err(e) => {
                    assert!(matches!(e, CollectiveError::Comm(_)), "{e:?}");
                    assert!(plan.is_poisoned());
                    plan.reset();
                    true
                }
            };
            // Every rank has left the first broadcast before anyone
            // starts the second (an abort purges all operation traffic
            // addressed to the aborting rank).
            c.barrier();
            let mut second = vec![0.0f32; STREAM_LEN];
            let rerun = plan.try_execute_into(c, &data, &mut second).is_ok();
            (aborted, first, rerun, second)
        });
        let aborted: Vec<_> = out.results.iter().filter(|r| r.0).collect();
        if aborted.is_empty() || !out.results.iter().all(|r| r.2) {
            continue;
        }
        clean_reruns += 1;
        if aborted
            .iter()
            .any(|r| r.1[..STREAM_CHUNK] == expect[..STREAM_CHUNK])
        {
            mid_stream_aborts += 1;
        }
        for (rank, r) in out.results.iter().enumerate() {
            assert_eq!(r.3, expect, "seed {seed} rank {rank}: rerun after reset");
            if !r.0 {
                assert_eq!(r.1, expect, "seed {seed} rank {rank}: unaffected rank");
            }
        }
    }
    assert!(
        clean_reruns >= 3,
        "only {clean_reruns} seeds aborted then reran clean"
    );
    assert!(mid_stream_aborts >= 1, "no abort happened mid-stream");
}

#[test]
fn piped_ring_aborts_mid_stream_loss_cleanly_and_reruns_after_reset() {
    // A ring allreduce whose reduce-scatter hops stream several pieces
    // each: piped SZx in three full sub-chunks and a short tail, and raw
    // in the flat net's taper (a hop that short would be one message;
    // three default pipes and a tail are three pieces, largest first).
    // A permanently lost sub-chunk closes up its hop's FIFO stream: the
    // receiver starves on its last receive, or a later, shorter piece
    // lands in a longer slot — which must abort like the starved
    // receive (a zero-wait timeout, `Link::fits` refusing it), never
    // panic in the fold. The codec is deterministic, so a rank that
    // finishes, and every rerun after `reset()`, holds the fault-free
    // run's exact bits.
    let szx = CodecSpec::Szx { error_bound: 1e-3 };
    aborts_mid_stream_loss(szx, ring_opts(), 4 * (3 * CHUNK + 11));
    let raw = 3 * c_coll::frameworks::computation::DEFAULT_PIPE_VALUES + 11;
    aborts_mid_stream_loss(CodecSpec::None, ring_opts(), 4 * raw);
}

#[test]
fn piped_recursive_doubling_aborts_mid_stream_loss_cleanly_and_reruns_after_reset() {
    // Every round an in-place PIPE-SZx exchange of the whole vector, in
    // three full sub-chunks and a short tail: a lost one aborts the round
    // as it does a ring hop, and `reset()` re-arms the plan.
    let opts = PlanOptions::new().algorithm(Algorithm::RecursiveDoubling);
    let szx = CodecSpec::Szx { error_bound: 1e-3 };
    aborts_mid_stream_loss(szx, opts, 3 * CHUNK + 11);
}

/// The sub-chunk size of the mid-stream loss tests.
const CHUNK: usize = 64;

/// A compress-once ring allgather block of three full relay sub-chunks
/// (the default pipe's) and a short tail.
const RELAY_BLOCK: usize = 3 * c_coll::frameworks::computation::DEFAULT_PIPE_VALUES + 11;

/// A compress-once ring allgather of [`RELAY_BLOCK`]-value blocks;
/// lossless, so "correct" is bitwise.
fn streamed_allgather_plan(n: usize) -> c_coll::AllgatherPlan {
    CCollSession::new(CodecSpec::Lossless, n).plan_allgather(RELAY_BLOCK)
}

/// Every rank's block, gathered.
fn gathered(n: usize) -> Vec<f32> {
    (0..n).flat_map(|r| rank_data(r, RELAY_BLOCK)).collect()
}

#[test]
fn streamed_allgather_retries_mid_stream_drops_and_delays_bitwise() {
    // Transient drops and delays land on relayed sub-chunks: the
    // fault-aware waits re-arm, each round's late sub-chunks still match
    // their own posted receives, and no output bit changes.
    let n = 5;
    let cfg = SimConfig::new(n)
        .with_faults(
            FaultPlan::seeded(29)
                .with_drops(0.3, Duration::from_micros(300), 4)
                .with_delays(0.3, Duration::from_micros(400)),
        )
        .with_fault_policy(patient_policy());
    let out = SimWorld::new(cfg).run(move |c| {
        let mut plan = streamed_allgather_plan(n);
        let mine = rank_data(c.rank(), RELAY_BLOCK);
        let mut all = vec![0.0f32; n * mine.len()];
        plan.try_execute_into(c, &mine, &mut all)
            .expect("transient faults absorbed");
        (all, plan.stats().retries)
    });
    for (rank, (got, _)) in out.results.iter().enumerate() {
        assert_eq!(got, &gathered(n), "rank {rank}: gathered blocks intact");
    }
    assert!(
        out.results.iter().any(|r| r.1 > 0),
        "the fault plan must actually force retries"
    );
}

#[test]
fn streamed_allgather_aborts_mid_stream_loss_cleanly_and_reruns_after_reset() {
    // A permanently lost sub-chunk closes up its round's stream: the
    // relay starves on the round's last receive and aborts before it
    // forwards or lands anything of the block, so no shifted sub-chunk
    // ever reaches a slot. A rank that finishes, and every rerun after
    // `reset()`, holds every block.
    let n = 4;
    let mut clean_reruns = 0;
    for seed in 0..48 {
        let cfg = SimConfig::new(n)
            .with_faults(FaultPlan::seeded(seed).with_loss(0.03))
            .with_fault_policy(FaultPolicy::with_timeout(Duration::from_micros(500), 2));
        let out = SimWorld::new(cfg).run(move |c| {
            let mut plan = streamed_allgather_plan(n);
            let mine = rank_data(c.rank(), RELAY_BLOCK);
            let mut first = vec![0.0f32; n * mine.len()];
            let abort = match plan.try_execute_into(c, &mine, &mut first) {
                Ok(()) => None,
                Err(CollectiveError::Comm(e)) => {
                    assert!(plan.is_poisoned());
                    plan.reset();
                    Some(e)
                }
                Err(e) => panic!("{e:?}"),
            };
            c.barrier();
            let mut second = vec![0.0f32; n * mine.len()];
            let rerun = plan.try_execute_into(c, &mine, &mut second).is_ok();
            (abort, first, rerun, second)
        });
        let aborts: Vec<_> = out.results.iter().filter_map(|r| r.0.as_ref()).collect();
        for (rank, r) in out.results.iter().enumerate() {
            if r.0.is_none() {
                assert_eq!(r.1, gathered(n), "seed {seed} rank {rank}: finished rank");
            }
            if r.2 {
                assert_eq!(r.3, gathered(n), "seed {seed} rank {rank}: rerun");
            }
        }
        if !aborts.is_empty() && out.results.iter().all(|r| r.2) {
            clean_reruns += 1;
        }
    }
    assert!(
        clean_reruns >= 3,
        "only {clean_reruns} seeds aborted then reran clean"
    );
}

/// Four ranks run an allreduce of `len` values under 3 % permanent loss,
/// 96 seeds: every abort is clean, a finished rank holds the fault-free
/// bits, and so does every rerun after `reset()`.
fn aborts_mid_stream_loss(spec: CodecSpec, opts: PlanOptions, len: usize) {
    let n = 4;
    let plan = move || {
        CCollSession::new(spec, n)
            .with_pipeline_values(CHUNK)
            .plan_allreduce_with(len, ReduceOp::Sum, opts)
    };
    let clean = SimWorld::with_ranks(n).run(move |c| {
        let mut out = vec![0.0f32; len];
        plan().execute_into(c, &rank_data(c.rank(), len), &mut out);
        out
    });
    let mut clean_reruns = 0;
    let mut mid_stream_aborts = 0;
    for seed in 0..96 {
        let cfg = SimConfig::new(n)
            .with_faults(FaultPlan::seeded(seed).with_loss(0.03))
            .with_fault_policy(FaultPolicy::with_timeout(Duration::from_micros(500), 2));
        let out = SimWorld::new(cfg).run(move |c| {
            let mut plan = plan();
            let input = rank_data(c.rank(), len);
            let mut first = vec![0.0f32; len];
            let abort = match plan.try_execute_into(c, &input, &mut first) {
                Ok(()) => None,
                Err(CollectiveError::Comm(e)) => {
                    assert!(plan.is_poisoned());
                    plan.reset();
                    Some(e)
                }
                Err(e) => panic!("{e:?}"),
            };
            c.barrier();
            let mut second = vec![0.0f32; len];
            let rerun = plan.try_execute_into(c, &input, &mut second).is_ok();
            (abort, first, rerun, second)
        });
        let aborts: Vec<_> = out.results.iter().filter_map(|r| r.0.as_ref()).collect();
        if aborts.is_empty() || !out.results.iter().all(|r| r.2) {
            continue;
        }
        clean_reruns += 1;
        mid_stream_aborts += aborts
            .iter()
            .filter(|e| matches!(e, CommError::Timeout { waited, .. } if waited.is_zero()))
            .count();
        for (rank, r) in out.results.iter().enumerate() {
            let expect = &clean.results[rank];
            assert_eq!(
                &r.3, expect,
                "{spec} seed {seed} rank {rank}: rerun after reset"
            );
            if r.0.is_none() {
                assert_eq!(
                    &r.1, expect,
                    "{spec} seed {seed} rank {rank}: finished rank"
                );
            }
        }
    }
    assert!(
        clean_reruns >= 3,
        "{spec}: only {clean_reruns} seeds aborted then reran clean"
    );
    assert!(
        mid_stream_aborts >= 1,
        "{spec}: no abort happened mid-stream"
    );
}

// The two chain-stream fault tests below share one streamed hierarchical
// allreduce: nodes of 5, 5 and 3 ranks, so group legs of up to five
// members; three default-size sub-chunks and a ragged fourth; raw
// integer data, so "correct" is bitwise the exact sum.
const CHAIN_NODES: [usize; 3] = [5, 5, 3];
const CHAIN_LEN: usize = 3 * 5120 + 700;

fn streamed_hier_plan(n: usize) -> c_coll::AllreducePlan {
    let plan = CCollSession::new(CodecSpec::None, n)
        .with_topology(
            Topology::from_node_sizes(&CHAIN_NODES),
            HierNet::cluster_default(),
        )
        .plan_allreduce_with(
            CHAIN_LEN,
            ReduceOp::Sum,
            PlanOptions::new().algorithm(Algorithm::Hierarchical),
        );
    assert_eq!(plan.hier_streamed(), Some(true), "the case under test");
    plan
}

fn chain_oracle(n: usize) -> Vec<f32> {
    let mut oracle = vec![0.0f32; CHAIN_LEN];
    for r in 0..n {
        for (o, v) in oracle.iter_mut().zip(rank_data(r, CHAIN_LEN)) {
            *o += v;
        }
    }
    oracle
}

#[test]
fn streamed_hierarchical_retries_mid_stream_drops_and_delays_bitwise() {
    // Transient drops and delays land on sub-chunks in the middle of the
    // group chains' FIFO streams (and on every other leg): retried and
    // late sub-chunks still match their own posted receive, folds and
    // relays see them in order, and no output bit changes.
    let n: usize = CHAIN_NODES.iter().sum();
    let cfg = SimConfig::new(n)
        .with_faults(
            FaultPlan::seeded(29)
                .with_drops(0.2, Duration::from_micros(300), 4)
                .with_delays(0.2, Duration::from_micros(400)),
        )
        .with_fault_policy(patient_policy());
    let out = SimWorld::new(cfg).run(move |c| {
        let mut plan = streamed_hier_plan(n);
        let mut result = vec![0.0f32; CHAIN_LEN];
        plan.try_execute_into(c, &rank_data(c.rank(), CHAIN_LEN), &mut result)
            .expect("transient faults absorbed");
        (result, plan.stats().retries)
    });
    let oracle = chain_oracle(n);
    for (rank, (got, _)) in out.results.iter().enumerate() {
        assert_eq!(got, &oracle, "rank {rank}: streamed result intact");
    }
    assert!(
        out.results.iter().any(|r| r.1 > 0),
        "the fault plan must actually force retries"
    );
}

#[test]
fn streamed_hierarchical_aborts_mid_stream_loss_cleanly_and_reruns_after_reset() {
    // A permanently lost sub-chunk closes up its FIFO stream: the member
    // behind it starves on its last receive — or finds a short tail in a
    // full slot — and aborts, and everyone waiting on that member in
    // turn times out. Never a hang, never a wrong result: a rank either
    // finishes with the exact sum or aborts on a poisoned plan, and after
    // `reset()` the same plan object runs the next allreduce to the
    // exact sum. Seeds where the rerun loses a message too are skipped;
    // enough seeds must show the abort-then-clean pattern.
    let n: usize = CHAIN_NODES.iter().sum();
    let oracle = chain_oracle(n);
    let mut clean_reruns = 0;
    let mut mid_stream_aborts = 0;
    for seed in 0..48 {
        let cfg = SimConfig::new(n)
            .with_faults(FaultPlan::seeded(seed).with_loss(0.003))
            .with_fault_policy(FaultPolicy::with_timeout(Duration::from_micros(500), 2));
        let out = SimWorld::new(cfg).run(move |c| {
            let mut plan = streamed_hier_plan(n);
            let input = rank_data(c.rank(), CHAIN_LEN);
            let mut first = vec![0.0f32; CHAIN_LEN];
            let aborted = match plan.try_execute_into(c, &input, &mut first) {
                Ok(()) => false,
                Err(e) => {
                    assert!(matches!(e, CollectiveError::Comm(_)), "{e:?}");
                    assert!(plan.is_poisoned());
                    plan.reset();
                    true
                }
            };
            c.barrier();
            let mut second = vec![0.0f32; CHAIN_LEN];
            let rerun = plan.try_execute_into(c, &input, &mut second).is_ok();
            (aborted, first, rerun, second)
        });
        let aborted: Vec<_> = out.results.iter().filter(|r| r.0).collect();
        if aborted.is_empty() || !out.results.iter().all(|r| r.2) {
            continue;
        }
        clean_reruns += 1;
        // An aborted rank that holds the first sub-chunk of the sum
        // lost its stream after the fan-out chain had delivered it.
        if aborted.iter().any(|r| r.1[..5120] == oracle[..5120]) {
            mid_stream_aborts += 1;
        }
        for (rank, r) in out.results.iter().enumerate() {
            assert_eq!(r.3, oracle, "seed {seed} rank {rank}: rerun after reset");
            if !r.0 {
                assert_eq!(r.1, oracle, "seed {seed} rank {rank}: finished rank");
            }
        }
    }
    assert!(
        clean_reruns >= 3,
        "only {clean_reruns} seeds aborted then reran clean"
    );
    assert!(mid_stream_aborts >= 1, "no abort happened mid-stream");
}
