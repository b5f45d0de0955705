//! Regression tests for the session progress engine's lifecycle
//! contracts: abandoned handles poison only their own plan and
//! deregister from the session, and the bounded round-robin pass never
//! starves small operations behind a large one.

use std::time::Duration;

use c_coll::engine::ProgressEngine;
use c_coll::{Algorithm, CCollSession, CodecSpec, CollectiveError, PlanOptions, ReduceOp};
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

/// The engine overlaps its operations instead of finishing them one
/// after another: eight 128 Ki-value SZx ring allreduces on 8 ranks,
/// started together and drained by one `wait_all`, finish in at most 0.97×
/// the time the same eight take as `execute_into`s back to back, and at
/// exactly the codec's compute floor. A pass in which no operation can
/// do anything parks the rank until its next arrival or send egress,
/// whichever operation it belongs to; finishing the oldest operation
/// instead would serialize them. The inputs vary fast enough (a sine
/// stepping 0.03 rad a value) that the back-to-back drive still waits
/// on the wire: on smoother inputs the delta-coded SZx messages are so
/// small that the sequential drive nears the same floor.
#[test]
fn wait_all_overlaps_buckets_instead_of_serializing_them() {
    let (n, len, buckets) = (8, 128 << 10, 8);
    let spans = SimWorld::new(SimConfig::new(n))
        .run(move |c| {
            let session = CCollSession::new(CodecSpec::Szx { error_bound: 1e-3 }, n);
            let mut plans: Vec<_> = (0..buckets)
                .map(|_| session.plan_allreduce(len, ReduceOp::Sum))
                .collect();
            let inputs: Vec<Vec<f32>> = (0..buckets)
                .map(|b| {
                    let phase = (c.rank() * buckets + b) as f32;
                    (0..len).map(|i| (i as f32 * 0.03 + phase).sin()).collect()
                })
                .collect();
            let mut outs = vec![vec![0.0f32; len]; buckets];
            // Warm every plan, then time each drive from a common start.
            let mut t0 = c.now();
            for warm in [true, false] {
                for ((p, i), o) in plans.iter_mut().zip(&inputs).zip(&mut outs) {
                    p.execute_into(c, i, o);
                }
                c.barrier();
                if warm {
                    t0 = c.now();
                }
            }
            let t1 = c.now();
            let mut engine = ProgressEngine::new();
            for ((p, i), o) in plans.iter_mut().zip(&inputs).zip(&mut outs) {
                engine.submit(p.start(c, i, o));
            }
            engine.wait_all(c);
            drop(engine);
            c.barrier();
            (t1 - t0, c.now() - t1)
        })
        .results;
    let (sequential, engine) = spans[0];
    let (sequential, engine) = (sequential.as_secs_f64(), engine.as_secs_f64());
    assert!(
        engine <= 0.97 * sequential,
        "engine {engine:e} s vs sequential {sequential:e} s ({:.3}×)",
        engine / sequential
    );
    assert_eq!(spans[0].1.as_nanos(), 6_640_896, "the engine's makespan");
}

/// Virtual time at which a tiny allreduce (`tiny`: length, algorithm)
/// completes beside a large ring allreduce on one engine, the tiny one
/// submitted first, with the time both take and the large one's time
/// alone: `(tiny, both, large alone)` in seconds, on rank 0. The tiny
/// op's time is read at the end of the pass it completes in.
fn beside(spec: CodecSpec, n: usize, tiny: (usize, Algorithm), large: usize) -> (f64, f64, f64) {
    let out = SimWorld::new(SimConfig::new(n)).run(move |c| {
        let session = CCollSession::new(spec, n);
        let pin = |algo| PlanOptions::new().algorithm(algo);
        let mut a = session.plan_allreduce_with(tiny.0, ReduceOp::Sum, pin(tiny.1));
        let mut b = session.plan_allreduce_with(large, ReduceOp::Sum, pin(Algorithm::Ring));
        let da = vec![1.0f32; tiny.0];
        let db: Vec<f32> = (0..large).map(|i| (i as f32 * 1e-3).sin()).collect();
        let (mut oa, mut ob) = (vec![0.0f32; tiny.0], vec![0.0f32; large]);
        a.execute_into(c, &da, &mut oa);
        b.execute_into(c, &db, &mut ob);
        c.barrier();
        let t0 = c.now();
        b.execute_into(c, &db, &mut ob);
        let alone = (c.now() - t0).as_secs_f64();
        c.barrier();
        let t0 = c.now();
        let mut engine = ProgressEngine::new();
        let ida = engine.submit(a.start(c, &da, &mut oa));
        engine.submit(b.start(c, &db, &mut ob));
        let mut tiny_done = None;
        while engine.live_ops() > 0 {
            // What `wait_all` does, one pass (and the idle after it, when
            // it did nothing) at a time.
            engine.progress_until(c, c.now() + Duration::from_nanos(1));
            if engine.is_done(ida) {
                tiny_done.get_or_insert((c.now() - t0).as_secs_f64());
            }
        }
        let both = (c.now() - t0).as_secs_f64();
        (tiny_done.expect("tiny op completed"), both, alone)
    });
    out.results[0]
}

/// A tiny operation beside a large one, in virtual time. The engine
/// gives every live operation one step per pass and idles only when
/// none can move, so it holds no operation back for another: the tiny
/// op is not starved, and the large op pays nothing for it. Nor does it
/// let the oldest finish first: each of the tiny op's
/// rounds waits for one step of the large op (one sub-chunk encoded, at
/// most four folded) or behind its messages on the FIFO ports.
///
/// * PIPE-SZx, 8 ranks: a 1 Ki-value ring beside a 1 Mi-value ring
///   completes within 10 % of the large op's time alone (about 6 %;
///   about 0.6 % when the engine finished its oldest op instead of
///   idling), and the large op within 1 % of its time alone.
/// * Raw, 4 ranks, the kill test's pair in `concurrent_differential.rs`:
///   a 16-value recursive doubling beside a 60 000-value ring completes
///   within 40 % of the ring's time alone (about a third). A 16-value
///   ring there instead keeps pace with the large ring's rounds and
///   finishes late in its last one.
#[test]
fn small_op_beside_a_large_one_is_not_held_back_to_its_end() {
    let szx = CodecSpec::Szx { error_bound: 1e-3 };
    let (tiny, both, alone) = beside(szx, 8, (1024, Algorithm::Ring), 1 << 20);
    assert!(
        tiny <= 0.1 * alone,
        "szx: tiny {tiny:e} s vs large alone {alone:e} s"
    );
    assert!(
        both <= 1.01 * alone,
        "szx: both {both:e} s vs large alone {alone:e} s"
    );
    let (tiny, both, alone) = beside(
        CodecSpec::None,
        4,
        (16, Algorithm::RecursiveDoubling),
        60_000,
    );
    assert!(
        tiny <= 0.4 * alone,
        "raw: tiny {tiny:e} s vs large alone {alone:e} s"
    );
    assert!(tiny < both, "raw: tiny {tiny:e} s vs both {both:e} s");
}
