//! Failure-injection tests for the simulator: deadlocks, mismatched
//! tags, panicking ranks, seeded fault plans — the kernel must detect
//! or contain each, never hang, and report faithfully.

use bytes::Bytes;
use ccoll_comm::{
    Category, Comm, CommError, Ctx, FaultPlan, FaultPolicy, RankOutcome, SimConfig, SimError,
    SimWorld, UndeliveredMsg,
};
use std::time::Duration;

#[test]
#[should_panic(expected = "simulated deadlock")]
fn mutual_recv_deadlock_detected() {
    SimWorld::with_ranks(2).run(|c| {
        let peer = 1 - c.rank();
        let _ = c.recv(peer, 1);
    });
}

#[test]
#[should_panic(expected = "simulated deadlock")]
fn tag_mismatch_deadlocks_cleanly() {
    // Sender uses tag 1, receiver waits on tag 2: a classic collective
    // bug. The kernel must report it rather than hang.
    SimWorld::with_ranks(2).run(|c| {
        if c.rank() == 0 {
            c.isend(1, 1, Bytes::from_static(b"lost"));
            let _ = c.recv(1, 5); // never satisfied
        } else {
            let _ = c.recv(0, 2); // wrong tag
        }
    });
}

#[test]
#[should_panic(expected = "simulated deadlock")]
fn partial_barrier_deadlocks() {
    // One rank skips the barrier.
    SimWorld::with_ranks(3).run(|c| {
        if c.rank() != 2 {
            c.barrier();
        } else {
            let _ = c.recv(0, 99);
        }
    });
}

#[test]
#[should_panic(expected = "boom")]
fn rank_panic_propagates_without_hanging() {
    SimWorld::with_ranks(4).run(|c| {
        c.charge_duration(Duration::from_micros(c.rank() as u64), Category::Others);
        if c.rank() == 2 {
            panic!("boom");
        }
        // Other ranks do finite work and exit; the panic must surface.
    });
}

#[test]
fn unmatched_isend_is_not_an_error() {
    // A message nobody receives: the world still completes (eager send).
    let out = SimWorld::with_ranks(2).run(|c| {
        if c.rank() == 0 {
            c.isend(1, 42, Bytes::from_static(b"orphan"));
        }
        c.rank()
    });
    assert_eq!(out.results, vec![0, 1]);
}

#[test]
fn zero_byte_messages_flow() {
    let out = SimWorld::with_ranks(2).run(|c| {
        if c.rank() == 0 {
            c.send(1, 1, Bytes::new());
            0
        } else {
            c.recv(0, 1).len()
        }
    });
    assert_eq!(out.results[1], 0);
}

#[test]
fn single_rank_world_trivially_works() {
    let out = SimWorld::with_ranks(1).run(|c| {
        c.barrier();
        c.charge_duration(Duration::from_millis(1), Category::Others);
        c.barrier();
        c.now().as_nanos()
    });
    assert_eq!(out.results[0], 1_000_000);
}

#[test]
fn structured_deadlock_report_classifies_hang() {
    // The same tag-mismatch bug as above, but through `try_run`: the
    // chaos runner needs a structured report, not a panic.
    let err = SimWorld::with_ranks(2)
        .try_run(|c| {
            if c.rank() == 0 {
                c.isend(1, 1, Bytes::from_static(b"lost"));
                let _ = c.recv(1, 5);
            } else {
                let _ = c.recv(0, 2);
            }
        })
        .unwrap_err();
    let SimError::Deadlock(report) = err;
    assert_eq!(report.live, 2);
    let edges: Vec<(usize, usize, u32)> = report
        .waiting
        .iter()
        .map(|e| (e.rank, e.src, e.tag))
        .collect();
    assert_eq!(edges, vec![(0, 1, 5), (1, 0, 2)]);
}

#[test]
fn undelivered_report_pins_leaked_messages() {
    // The leak audit: the unmatched message from `unmatched_isend` shows
    // up in the run output with its (src, dst, tag) identity.
    let out = SimWorld::with_ranks(3).run(|c| {
        if c.rank() == 0 {
            c.isend(1, 42, Bytes::from_static(b"orphan"));
            c.isend(2, 43, Bytes::from_static(b"orphan"));
            c.isend(2, 43, Bytes::from_static(b"orphan"));
        }
        c.rank()
    });
    assert_eq!(
        out.undelivered,
        vec![
            UndeliveredMsg {
                src: 0,
                dst: 1,
                ctx: Ctx::default(),
                tag: 42,
                count: 1
            },
            UndeliveredMsg {
                src: 0,
                dst: 2,
                ctx: Ctx::default(),
                tag: 43,
                count: 2
            },
        ]
    );
    assert_eq!(out.undelivered_total(), 3);
}

#[test]
fn drop_then_retry_delivers_identical_payload() {
    // Every message transiently dropped; a policy-driven retry loop
    // must deliver the exact bytes the fault-free run sees.
    let body = |c: &mut ccoll_comm::sim::SimComm| -> Vec<u8> {
        if c.rank() == 0 {
            c.send(1, 7, Bytes::from((0u8..200).collect::<Vec<u8>>()));
            Vec::new()
        } else {
            let req = c.irecv(0, 7);
            c.wait_recv_retry_in(req, Category::Wait)
                .expect("bounded retry must absorb transient drops")
                .to_vec()
        }
    };
    let clean = SimWorld::with_ranks(2).run(body);
    let cfg = SimConfig::new(2)
        .with_faults(FaultPlan::seeded(21).with_drops(1.0, Duration::from_millis(1), 4))
        .with_fault_policy(FaultPolicy::with_timeout(Duration::from_micros(500), 16));
    let faulty = SimWorld::new(cfg).run(body);
    assert_eq!(faulty.results, clean.results, "bitwise-equal payloads");
    assert!(faulty.makespan > clean.makespan, "retransmits cost time");
}

#[test]
fn permanent_loss_aborts_with_structured_timeout() {
    let cfg = SimConfig::new(2)
        .with_faults(FaultPlan::seeded(3).with_loss(1.0))
        .with_fault_policy(FaultPolicy::with_timeout(Duration::from_micros(500), 2));
    let out = SimWorld::new(cfg).run(|c| {
        if c.rank() == 0 {
            c.send(1, 7, Bytes::from_static(b"gone"));
            None
        } else {
            let req = c.irecv(0, 7);
            Some(c.wait_recv_retry_in(req, Category::Wait).unwrap_err())
        }
    });
    match out.results[1] {
        Some(CommError::Timeout { src, tag, .. }) => assert_eq!((src, tag), (0, 7)),
        ref other => panic!("expected timeout, got {other:?}"),
    }
    assert_eq!(out.lost_messages, 1);
    // The failed request was canceled by the retry helper: no leak.
    assert!(out.undelivered.is_empty());
}

#[test]
fn rank_crash_mid_run_classified_not_hung() {
    // Rank 2 of 4 dies partway through a ring exchange; try_run
    // classifies it and every survivor observes a structured error
    // (PeerDead or, for ranks further along the ring, a deadlock-free
    // timeout) rather than hanging.
    let cfg = SimConfig::new(4)
        .with_faults(FaultPlan::seeded(8).with_kill(2, 3))
        .with_fault_policy(FaultPolicy::with_timeout(Duration::from_millis(1), 2));
    let out = SimWorld::new(cfg)
        .try_run(|c| {
            let n = c.size();
            let me = c.rank();
            let mut token = vec![me as u8];
            for round in 0..3u32 {
                let req = c.irecv((me + n - 1) % n, 20 + round);
                c.send((me + 1) % n, 20 + round, Bytes::from(token.clone()));
                match c.wait_recv_retry_in(req, Category::Wait) {
                    Ok(b) => token = b.to_vec(),
                    Err(e) => return Err(e),
                }
            }
            Ok(token)
        })
        .expect("kill must not deadlock the world");
    assert!(out.results[2].is_killed(), "rank 2 crashed");
    let survivors: Vec<_> = out
        .results
        .iter()
        .enumerate()
        .filter(|(r, _)| *r != 2)
        .collect();
    for (rank, outcome) in survivors {
        match outcome {
            RankOutcome::Completed(Err(_)) | RankOutcome::Completed(Ok(_)) => {}
            other => panic!("rank {rank}: unexpected outcome {other:?}"),
        }
    }
    // Rank 3 was waiting directly on the dead rank: structured error.
    assert!(
        matches!(out.results[3], RankOutcome::Completed(Err(_))),
        "rank 3 must observe the crash"
    );
}

#[test]
fn same_seed_replays_byte_identical() {
    let run = |seed: u64| {
        let cfg = SimConfig::new(5)
            .with_faults(
                FaultPlan::seeded(seed)
                    .with_drops(0.4, Duration::from_micros(400), 3)
                    .with_delays(0.3, Duration::from_micros(250))
                    .with_duplicates(0.15)
                    .with_stalls(0.25, Duration::from_micros(100)),
            )
            .with_fault_policy(FaultPolicy::with_timeout(Duration::from_millis(2), 8));
        let out = SimWorld::new(cfg).run(|c| {
            let n = c.size();
            let me = c.rank();
            let mut acc = vec![me as u8; 32];
            for round in 0..4u32 {
                c.charge_duration(Duration::from_micros(15), Category::Reduction);
                let req = c.irecv((me + n - 1) % n, 30 + round);
                c.send((me + 1) % n, 30 + round, Bytes::from(acc.clone()));
                let got = c
                    .wait_recv_retry_in(req, Category::Wait)
                    .expect("only transient faults in this mix");
                for (a, b) in acc.iter_mut().zip(got.iter()) {
                    *a = a.wrapping_add(*b);
                }
            }
            acc
        });
        (
            out.results.clone(),
            out.makespan,
            out.lost_messages,
            out.undelivered.clone(),
        )
    };
    assert_eq!(run(1234), run(1234), "same seed, byte-identical run");
}

#[test]
fn stress_many_ranks_many_barriers() {
    // 128 ranks × 20 barriers: exercises the handoff protocol at the
    // paper's full node count.
    let n = 128;
    let out = SimWorld::with_ranks(n).run(move |c| {
        for i in 0..20 {
            c.charge_duration(
                Duration::from_nanos(((c.rank() * 7 + i * 13) % 100) as u64),
                Category::Others,
            );
            c.barrier();
        }
        c.now()
    });
    // All ranks observe the same final (synchronized) virtual time.
    let t0 = out.results[0];
    assert!(out.results.iter().all(|&t| t == t0));
}
