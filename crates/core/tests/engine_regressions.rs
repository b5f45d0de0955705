//! Regression tests for the session progress engine's lifecycle
//! contracts: abandoned handles poison only their own plan and
//! deregister from the session, and the bounded round-robin pass never
//! starves small operations behind a large one.

use std::time::Duration;

use c_coll::engine::ProgressEngine;
use c_coll::{CCollSession, CodecSpec, CollectiveError, ReduceOp};
use ccoll_comm::{Category, Comm, SimConfig, SimWorld};

/// Dropping a handle mid-flight abandons that operation: its plan (and
/// only its plan) is poisoned with [`CollectiveError::Abandoned`], the
/// session's live-op count drops back, and an engine driving sibling
/// operations keeps working — then `reset()` revives the abandoned
/// plan.
#[test]
fn abandoned_op_poisons_only_its_plan_and_deregisters() {
    let n = 3;
    let len = 96;
    let results = SimWorld::new(SimConfig::new(n))
        .run(move |c| {
            let session = CCollSession::new(CodecSpec::None, n);
            let mut a = session.plan_allreduce(len, ReduceOp::Sum);
            let mut b = session.plan_allreduce(len, ReduceOp::Sum);
            let mut d = session.plan_allreduce(len, ReduceOp::Sum);
            let da = vec![1.0f32; len];
            let db = vec![2.0f32; len];
            let dd = vec![3.0f32; len];
            let (mut oa, mut ob, mut od) =
                (vec![0.0f32; len], vec![0.0f32; len], vec![0.0f32; len]);

            assert_eq!(session.live_ops(), 0);
            let mut engine = ProgressEngine::new();
            engine.submit(a.start(c, &da, &mut oa));
            assert_eq!(session.live_ops(), 1);
            {
                // Started on every rank, then dropped on every rank
                // before any progress: a symmetric abandonment.
                let _abandoned = b.start(c, &db, &mut ob);
            }
            assert_eq!(session.live_ops(), 1, "abandoned op must deregister");
            engine.submit(d.start(c, &dd, &mut od));
            assert_eq!(session.live_ops(), 2);

            engine.wait_all(c);
            assert_eq!(engine.live_ops(), 0, "siblings must drain normally");
            drop(engine);
            assert_eq!(session.live_ops(), 0);

            assert!(!a.is_poisoned(), "sibling A must stay clean");
            assert!(!d.is_poisoned(), "sibling D must stay clean");
            assert!(
                matches!(b.poison_error(), Some(CollectiveError::Abandoned)),
                "abandoned plan must carry the Abandoned error, got {:?}",
                b.poison_error()
            );

            // reset() revives the abandoned plan; nothing was posted
            // before the drop, so the tag space is clean and the same
            // plan object completes.
            b.reset();
            assert!(!b.is_poisoned());
            b.execute_into(c, &db, &mut ob);
            (oa, ob, od)
        })
        .results;
    for (r, (oa, ob, od)) in results.iter().enumerate() {
        assert!(oa.iter().all(|&v| v == n as f32), "rank {r} sibling A");
        assert!(ob.iter().all(|&v| v == 2.0 * n as f32), "rank {r} reset B");
        assert!(
            od.iter().all(|&v| v == 3.0 * n as f32),
            "rank {r} sibling D"
        );
    }
}

/// Round-robin under load: one large lossy allreduce plus K small ones,
/// driven by bounded round-robin passes. The small operations must all
/// complete within a pinned number of passes — they get one work slice
/// per pass no matter how much the large op still has queued — and the
/// large op must still be in flight when they finish (it genuinely is
/// the straggler).
#[test]
fn small_ops_complete_within_bounded_passes_alongside_a_large_op() {
    let n = 4;
    let small = 64;
    let large = 160_000;
    let k = 4;
    // Generous pin: small Ring ops need a handful of slices each; the
    // budget-bounded large op needs hundreds. Regressing to
    // starvation (small ops waiting for the large drain) blows way
    // past this.
    let max_passes = 64;
    let results = SimWorld::new(SimConfig::new(n))
        .run(move |c| {
            let session = CCollSession::new(CodecSpec::Szx { error_bound: 1e-3 }, n);
            let mut big = session.plan_allreduce(large, ReduceOp::Sum);
            let mut smalls: Vec<_> = (0..k)
                .map(|_| session.plan_allreduce(small, ReduceOp::Sum))
                .collect();
            let big_in: Vec<f32> = (0..large).map(|i| (i as f32 * 1e-4).sin()).collect();
            let small_ins: Vec<Vec<f32>> = (0..k).map(|i| vec![(i + 1) as f32; small]).collect();
            let mut big_out = vec![0.0f32; large];
            let mut small_outs: Vec<Vec<f32>> = (0..k).map(|_| vec![0.0f32; small]).collect();

            let mut engine = ProgressEngine::new();
            let big_id = engine.submit(big.start(c, &big_in, &mut big_out));
            let small_ids: Vec<_> = smalls
                .iter_mut()
                .zip(&small_ins)
                .zip(&mut small_outs)
                .map(|((p, i), o)| engine.submit(p.start(c, i, o)))
                .collect();

            let mut passes = 0usize;
            while !small_ids.iter().all(|&id| engine.is_done(id)) {
                engine.progress(c);
                c.charge_duration(Duration::from_nanos(200), Category::Others);
                passes += 1;
                assert!(
                    passes <= max_passes,
                    "small ops starved: {} of {} done after {} passes",
                    small_ids.iter().filter(|&&id| engine.is_done(id)).count(),
                    k,
                    passes
                );
            }
            let big_still_live = !engine.is_done(big_id);
            engine.wait_all(c);
            drop(engine);
            (passes, big_still_live, small_outs)
        })
        .results;
    for (r, (passes, big_still_live, small_outs)) in results.iter().enumerate() {
        assert!(
            *big_still_live,
            "rank {r}: the large op should outlast the small ones (finished within {passes} passes)"
        );
        for (i, out) in small_outs.iter().enumerate() {
            let expect = (i + 1) as f32 * n as f32;
            assert!(
                out.iter().all(|&v| v == expect),
                "rank {r} small op {i}: wrong result"
            );
        }
    }
}
