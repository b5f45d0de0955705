//! The collective-level allocation audit: after one warm-up call,
//! repeated `plan.execute_into` collectives on the sim backend perform
//! **zero** heap allocations — the end-to-end extension of the
//! codec-level counting-allocator test in `ccoll-compress`.
//!
//! The measured window covers *all* ranks (the counter is global and the
//! simulator runs exactly one rank at a time), so a single stray
//! allocation anywhere in the codec, payload-pool, workspace or
//! simulator-kernel path fails the audit.
//!
//! This file intentionally contains a single `#[test]` so no concurrent
//! test can perturb the allocation counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use std::time::Duration;

use c_coll::{Algorithm, CCollSession, CodecSpec, PlanOptions, Poll, ReduceOp};
use ccoll_comm::{Category, Comm, HierNet, SimConfig, SimWorld, Topology};

struct CountingAllocator;

static ALLOC_CALLS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> usize {
    ALLOC_CALLS.load(Ordering::SeqCst)
}

fn rank_data(rank: usize, len: usize) -> Vec<f32> {
    (0..len)
        .map(|i| ((i * 7 + rank * 131) as f32 * 1e-3).sin() * 2.0)
        .collect()
}

#[test]
fn steady_state_plans_allocate_nothing() {
    let n = 6;
    let len = 24_000;
    let world = SimWorld::new(SimConfig::new(n));
    let out = world.run(move |c| {
        let me = c.rank();
        let session = CCollSession::new(CodecSpec::Szx { error_bound: 1e-3 }, n);
        let mut allreduce = session.plan_allreduce(len, ReduceOp::Sum);
        let mut allgather = session.plan_allgather(len / n);
        // Streamed in sub-chunks (12 000 values span three of the
        // default 5120): the relay cursor's request queues and the
        // root's pool are sized at plan time.
        let mut bcast = session.plan_bcast(0, len / 2);
        // The algorithm layer's alternative schedules must uphold the
        // same guarantee. Recursive doubling folds two of the six ranks
        // away and runs its rounds as in-place PIPE-SZx exchanges, here
        // of three sub-chunks each.
        let mut rd_allreduce = session
            .clone()
            .with_pipeline_values(len / 3)
            .plan_allreduce_with(
                len,
                ReduceOp::Sum,
                PlanOptions::new().algorithm(Algorithm::RecursiveDoubling),
            );
        // Under two pipes its rounds and fold stream as two halves cut
        // on SZx block boundaries: 2048 values, 1024 a half.
        let short = 2048;
        let mut rd_short_allreduce = session.plan_allreduce_with(
            short,
            ReduceOp::Sum,
            PlanOptions::new().algorithm(Algorithm::RecursiveDoubling),
        );
        assert_eq!(
            rd_short_allreduce.exchange_values(),
            Some(short / 2),
            "the case under audit"
        );
        let mut raben_allreduce = session.plan_allreduce_with(
            len,
            ReduceOp::Sum,
            PlanOptions::new().algorithm(Algorithm::Rabenseifner),
        );
        let mut bruck_allgather =
            session.plan_allgather_with(len / n, PlanOptions::new().algorithm(Algorithm::Bruck));
        let mut tree_reduce = session.plan_reduce_with(
            0,
            len / 2,
            ReduceOp::Sum,
            PlanOptions::new().algorithm(Algorithm::Binomial),
        );
        // Every pipelined schedule of the PR-4 engine: the ring
        // reduce-scatter, the (pipelined-halving) Rabenseifner and the
        // (pipelined) binomial tree are covered above; the standalone
        // reduce-scatter plan and an Auto plan — whose post-warm-up
        // re-rank from measured ratios must also settle without steady-
        // state allocations — ride the same audit.
        let mut reduce_scatter = session.plan_reduce_scatter(len, ReduceOp::Sum);
        let mut auto_allreduce =
            session.plan_allreduce_with(len, ReduceOp::Sum, PlanOptions::new());
        // The compress-once allgather streams its blocks in sub-chunks
        // of the default pipe: every block below spans three and a
        // ragged tail — standalone (16 000-value blocks), as the
        // allreduce's second stage (16 000-value chunks) and in the
        // three engine-driven buckets (chunks of 16 000, 16 667 and
        // 18 333 values). Their relay slots grow once, in the first
        // execution.
        let big = 96_000;
        let bucket_lens = [big, 100_000, 110_000];
        let mut streamed_allreduce = session.plan_allreduce(big, ReduceOp::Sum);
        let mut streamed_allgather = session.plan_allgather(big / n);
        // Gradient buckets driven concurrently by the session progress
        // engine: its inline slot arena must keep submit/progress/
        // wait_all allocation-free with several ops in flight.
        let mut bucket_a = session.plan_allreduce(bucket_lens[0], ReduceOp::Sum);
        let mut bucket_b = session.plan_allreduce(bucket_lens[1], ReduceOp::Sum);
        let mut bucket_c = session.plan_allreduce(bucket_lens[2], ReduceOp::Sum);
        // The laned hierarchical allreduce on an asymmetric 4 + 2
        // cluster at two lanes: rank 0 is a node leader and lane owner,
        // rank 2 an owner that is not the leader, ranks 1 and 3
        // non-owners, ranks 4 and 5 owners of one-rank groups. Its split
        // is built at the first start; its five sub-machines share the
        // one workspace. Its two-member groups keep binomial legs, whose
        // edges up the tree stream five raw sub-chunks (24 000 values
        // over the default 5120).
        let hier = |sizes: &[usize]| {
            session
                .clone()
                .with_topology(Topology::from_node_sizes(sizes), HierNet::cluster_default())
                .plan_allreduce_with(
                    len,
                    ReduceOp::Sum,
                    PlanOptions::new().algorithm(Algorithm::Hierarchical),
                )
        };
        let mut hier_allreduce = hier(&[4, 2]);
        assert_eq!(hier_allreduce.hier_lanes(), Some(2), "the case under audit");
        assert_eq!(
            hier_allreduce.hier_streamed(),
            Some(false),
            "the case under audit"
        );
        // On 5 + 1 ranks one lane's five-member group streams its legs
        // as chains of five sub-chunks each way.
        let mut chain_allreduce = hier(&[5, 1]);
        let shape = (
            chain_allreduce.hier_lanes(),
            chain_allreduce.hier_streamed(),
        );
        assert_eq!(shape, (Some(1), Some(true)), "the case under audit");
        // The data-movement plans off the allreduce path: the
        // compress-once scatter and gather, which relay framed segment
        // containers down and up the binomial tree, and the pairwise and
        // Bruck all-to-alls.
        let mut scatter = session.plan_scatter(0, len);
        let mut gather = session.plan_gather(0, len);
        let mut pairwise_alltoall = session.plan_alltoall(len);
        let mut bruck_alltoall =
            session.plan_alltoall_with(len, PlanOptions::new().algorithm(Algorithm::Bruck));
        // Raw plans stream every reducing hop in pieces too: on the
        // default (link-bound) net, past one pipe, largest first down to
        // a short tail (at a 1000-value pipe a 4000-value ring chunk is
        // two pieces, a 12 000-value tree edge three), and the raw ring
        // allgather relays what it received, in pieces past one pipe.
        // At 1 Mi values the ring's chunks, Rabenseifner's halves and
        // the tree's edges all taper, at the default pipe; their pieces
        // differ in size, so the pool must hand the same slots the same
        // pieces call after call.
        let raw = CCollSession::new(CodecSpec::None, n).with_pipeline_values(1000);
        let mut raw_allreduce = raw.plan_allreduce(len, ReduceOp::Sum);
        let mut raw_tree_reduce = raw.plan_reduce_with(
            0,
            len / 2,
            ReduceOp::Sum,
            PlanOptions::new().algorithm(Algorithm::Binomial),
        );
        let mi = 1 << 20;
        let raw = CCollSession::new(CodecSpec::None, n);
        let pinned = |algorithm| PlanOptions::new().algorithm(algorithm);
        let mut raw_ring_mi = raw.plan_allreduce_with(mi, ReduceOp::Sum, pinned(Algorithm::Ring));
        let mut raw_raben_mi =
            raw.plan_allreduce_with(mi, ReduceOp::Sum, pinned(Algorithm::Rabenseifner));
        let mut raw_tree_mi =
            raw.plan_reduce_with(0, mi, ReduceOp::Sum, pinned(Algorithm::Binomial));

        let input = rank_data(me, len);
        let short_input = rank_data(me, short);
        let mut short_out = vec![0.0f32; short];
        let chunk = rank_data(me, len / n);
        let half = rank_data(me, len / 2);
        let bdata = if me == 0 {
            rank_data(42, len / 2)
        } else {
            Vec::new()
        };
        let root_input = if me == 0 { input.clone() } else { Vec::new() };
        let mut sc_out = vec![0.0f32; scatter.output_len(me)];
        let mut ga_out = vec![0.0f32; if me == 0 { len } else { 0 }];
        let mut a2a_out = vec![0.0f32; len];
        let mut ar_out = vec![0.0f32; len];
        let mut ag_out = vec![0.0f32; len];
        let mut bc_out = vec![0.0f32; len / 2];
        let mut rr_out = vec![0.0f32; if me == 0 { len / 2 } else { 0 }];
        let mut rs_out = vec![0.0f32; reduce_scatter.output_len(me)];
        let big_input = rank_data(me, big);
        let big_chunk = rank_data(me, big / n);
        let mut big_out = vec![0.0f32; big];
        let bucket_in_a = rank_data(me, bucket_lens[0]);
        let bucket_in_b = rank_data(me, bucket_lens[1]);
        let bucket_in_c = rank_data(me, bucket_lens[2]);
        let mut bucket_out_a = vec![0.0f32; bucket_lens[0]];
        let mut bucket_out_b = vec![0.0f32; bucket_lens[1]];
        let mut bucket_out_c = vec![0.0f32; bucket_lens[2]];
        let mi_input = rank_data(me, mi);
        let mut mi_out = vec![0.0f32; mi];
        let mut mi_root_out = vec![0.0f32; if me == 0 { mi } else { 0 }];

        // The full nonblocking cycle must uphold the guarantee too:
        // start, several partial progress calls with application
        // compute in between (so suspension points are actually taken),
        // then complete.
        macro_rules! nonblocking_cycle {
            ($plan:expr, $input:expr, $out:expr) => {{
                let mut handle = $plan.start(c, $input, $out);
                for _ in 0..6 {
                    if let Poll::Ready = handle.progress(c) {
                        break;
                    }
                    c.charge_duration(Duration::from_micros(20), Category::Others);
                }
                handle.complete(c);
            }};
        }

        // Three ops concurrently in flight through the progress
        // engine, interleaved with bounded fair passes — the engine's
        // inline arena and the per-op contexts must add nothing to
        // the allocation profile.
        macro_rules! engine_cycle {
            () => {{
                let mut engine = c_coll::engine::ProgressEngine::new();
                engine.submit(bucket_a.start(c, &bucket_in_a, &mut bucket_out_a));
                engine.submit(bucket_b.start(c, &bucket_in_b, &mut bucket_out_b));
                engine.submit(bucket_c.start(c, &bucket_in_c, &mut bucket_out_c));
                for _ in 0..4 {
                    engine.progress(c);
                    c.charge_duration(Duration::from_micros(20), Category::Others);
                }
                engine.wait_all(c);
            }};
        }

        // Warm-up. The collective path itself (codec, payload pool,
        // workspace) is warm after ONE call per plan — plans pre-size
        // their pools from the codec's worst-case compressed size. The
        // later rounds exist for the *simulator's* event tables
        // (request maps, event heap), whose high-water capacity depends
        // on cross-rank timing and settles one call later; for the
        // Auto plan's one-shot re-rank (it may switch schedules after
        // its first execution and re-warm its workspace once); and for
        // the per-op contexts: each start() alternates between two
        // generations (see `Ctx::op`), so the simulator's
        // context-keyed tables only reach their high-water mark after a
        // plan has executed under BOTH generations. Eight rounds also
        // run the Auto plan's continuous α–β calibration once (it fires
        // every `CALIB_PERIOD` = 4th execution and uses its own tag
        // bands, which the simulator's tables must see once) — the
        // measured window below then contains a full calibration round
        // of its own, which must be allocation-free like everything
        // else.
        for _ in 0..8 {
            allreduce.execute_into(c, &input, &mut ar_out);
            allgather.execute_into(c, &chunk, &mut ag_out);
            streamed_allreduce.execute_into(c, &big_input, &mut big_out);
            streamed_allgather.execute_into(c, &big_chunk, &mut big_out);
            bcast.execute_into(c, &bdata, &mut bc_out);
            rd_allreduce.execute_into(c, &input, &mut ar_out);
            rd_short_allreduce.execute_into(c, &short_input, &mut short_out);
            raben_allreduce.execute_into(c, &input, &mut ar_out);
            bruck_allgather.execute_into(c, &chunk, &mut ag_out);
            tree_reduce.execute_into(c, &half, &mut rr_out);
            reduce_scatter.execute_into(c, &input, &mut rs_out);
            auto_allreduce.execute_into(c, &input, &mut ar_out);
            hier_allreduce.execute_into(c, &input, &mut ar_out);
            chain_allreduce.execute_into(c, &input, &mut ar_out);
            raw_allreduce.execute_into(c, &input, &mut ar_out);
            raw_tree_reduce.execute_into(c, &half, &mut rr_out);
            raw_ring_mi.execute_into(c, &mi_input, &mut mi_out);
            raw_raben_mi.execute_into(c, &mi_input, &mut mi_out);
            raw_tree_mi.execute_into(c, &mi_input, &mut mi_root_out);
            scatter.execute_into(c, &root_input, &mut sc_out);
            gather.execute_into(c, &chunk, &mut ga_out);
            pairwise_alltoall.execute_into(c, &input, &mut a2a_out);
            bruck_alltoall.execute_into(c, &input, &mut a2a_out);
            nonblocking_cycle!(hier_allreduce, &input, &mut ar_out);
            nonblocking_cycle!(raw_allreduce, &input, &mut ar_out);
            nonblocking_cycle!(allreduce, &input, &mut ar_out);
            nonblocking_cycle!(streamed_allreduce, &big_input, &mut big_out);
            nonblocking_cycle!(streamed_allgather, &big_chunk, &mut big_out);
            nonblocking_cycle!(reduce_scatter, &input, &mut rs_out);
            nonblocking_cycle!(bcast, &bdata, &mut bc_out);
            nonblocking_cycle!(rd_allreduce, &input, &mut ar_out);
            nonblocking_cycle!(rd_short_allreduce, &short_input, &mut short_out);
            engine_cycle!();
        }
        c.barrier();

        // Steady state: zero allocator calls across every rank, for the
        // blocking drives, the start/progress*/complete cycles, the
        // engine-driven concurrent cycles AND the Auto plan's
        // calibration round (its 8th execution starts inside this
        // window: one two-lane min-agreement plus the re-rank, all
        // through the warmed pool).
        let before = allocations();
        for _ in 0..4 {
            allreduce.execute_into(c, &input, &mut ar_out);
            allgather.execute_into(c, &chunk, &mut ag_out);
            streamed_allreduce.execute_into(c, &big_input, &mut big_out);
            streamed_allgather.execute_into(c, &big_chunk, &mut big_out);
            bcast.execute_into(c, &bdata, &mut bc_out);
            rd_allreduce.execute_into(c, &input, &mut ar_out);
            rd_short_allreduce.execute_into(c, &short_input, &mut short_out);
            raben_allreduce.execute_into(c, &input, &mut ar_out);
            bruck_allgather.execute_into(c, &chunk, &mut ag_out);
            tree_reduce.execute_into(c, &half, &mut rr_out);
            reduce_scatter.execute_into(c, &input, &mut rs_out);
            auto_allreduce.execute_into(c, &input, &mut ar_out);
            hier_allreduce.execute_into(c, &input, &mut ar_out);
            chain_allreduce.execute_into(c, &input, &mut ar_out);
            raw_allreduce.execute_into(c, &input, &mut ar_out);
            raw_tree_reduce.execute_into(c, &half, &mut rr_out);
            raw_ring_mi.execute_into(c, &mi_input, &mut mi_out);
            raw_raben_mi.execute_into(c, &mi_input, &mut mi_out);
            raw_tree_mi.execute_into(c, &mi_input, &mut mi_root_out);
            scatter.execute_into(c, &root_input, &mut sc_out);
            gather.execute_into(c, &chunk, &mut ga_out);
            pairwise_alltoall.execute_into(c, &input, &mut a2a_out);
            bruck_alltoall.execute_into(c, &input, &mut a2a_out);
            nonblocking_cycle!(hier_allreduce, &input, &mut ar_out);
            nonblocking_cycle!(raw_allreduce, &input, &mut ar_out);
            nonblocking_cycle!(allreduce, &input, &mut ar_out);
            nonblocking_cycle!(streamed_allreduce, &big_input, &mut big_out);
            nonblocking_cycle!(streamed_allgather, &big_chunk, &mut big_out);
            nonblocking_cycle!(reduce_scatter, &input, &mut rs_out);
            nonblocking_cycle!(bcast, &bdata, &mut bc_out);
            nonblocking_cycle!(rd_allreduce, &input, &mut ar_out);
            nonblocking_cycle!(rd_short_allreduce, &short_input, &mut short_out);
            engine_cycle!();
        }
        c.barrier();
        let delta = allocations() - before;
        // Hold every rank here until all have read their windows: the
        // recovery section below allocates (agreement, re-planning),
        // and the counter is global.
        c.barrier();

        // The fault-free session must have paid nothing for the
        // recovery machinery: no shrinks, no agreement rounds, no
        // purges — FaultPolicy::NONE keeps the pre-recovery profile.
        let stats = session.stats();
        let recovery_counts = (stats.shrinks, stats.agreement_rounds, stats.stale_discarded);

        // Recovery re-establishes the steady state: a restart-only
        // shrink (empty dead-set — agreement, epoch bump, re-planned
        // schedules, a new epoch's contexts) re-warms once, then measured
        // rounds on the shrunk communicator allocate nothing again.
        let recovery = session
            .recover(c, &[], true)
            .expect("fault-free agreement converges");
        allreduce.recover(&recovery).expect("allreduce re-plans");
        reduce_scatter
            .recover(&recovery)
            .expect("reduce-scatter re-plans");
        let mut sc = recovery.comm(c).expect("survivor side of the shrink");
        for _ in 0..6 {
            allreduce.execute_into(&mut sc, &input, &mut ar_out);
            reduce_scatter.execute_into(&mut sc, &input, &mut rs_out);
        }
        sc.barrier();
        let before = allocations();
        for _ in 0..4 {
            allreduce.execute_into(&mut sc, &input, &mut ar_out);
            reduce_scatter.execute_into(&mut sc, &input, &mut rs_out);
        }
        // Read at this rank's own loop end — every other rank is still
        // inside its (allocation-free) measured loop. Then dwell in
        // pure virtual time, far past the loop-end skew, so no rank
        // reaches the allocating epilogue (even the shrunk barrier's
        // own bookkeeping) before every rank has read its window.
        let recovered_delta = allocations() - before;
        sc.charge_duration(Duration::from_millis(10), Category::Others);
        sc.barrier();

        // Sanity: the steady-state results are real (bounded error).
        let sample = ar_out[len / 3];
        (delta, recovered_delta, recovery_counts, sample.is_finite())
    });
    for (r, &(delta, recovered_delta, recovery_counts, finite)) in out.results.iter().enumerate() {
        assert!(finite, "rank {r}: non-finite result");
        assert_eq!(
            delta, 0,
            "rank {r}: steady-state plan execution must not allocate, \
             saw {delta} allocator calls in its measurement window"
        );
        assert_eq!(
            recovery_counts,
            (0, 0, 0),
            "rank {r}: a fault-free session must report zero recovery activity"
        );
        assert_eq!(
            recovered_delta, 0,
            "rank {r}: post-recovery steady state must not allocate, \
             saw {recovered_delta} allocator calls after the shrink"
        );
    }
    // The transposed laned allreduce at four lanes on 4 × 8 ranks: the
    // rows' raw rings run on the whole vector, the two-member groups'
    // legs on one lane. On 4 × 9 ranks each node's first group has a
    // third member, a partial row that folds into the row above and gets
    // the result back.
    for sizes in [[8; 4], [9; 4]] {
        for (r, &delta) in laned_allocations(&sizes, 16_384, 4).iter().enumerate() {
            assert_eq!(
                delta, 0,
                "rank {r} of {sizes:?}: a laned allreduce must not allocate in steady \
                 state, saw {delta} allocator calls"
            );
        }
    }
}

/// Allocator calls per rank over four steady-state executions of a raw
/// hierarchical allreduce of `len` values on a `sizes` cluster, after
/// eight warm-up ones; the plan must derive `lanes` lanes.
fn laned_allocations(sizes: &[usize], len: usize, lanes: usize) -> Vec<usize> {
    let topo = Topology::from_node_sizes(sizes);
    let n = topo.world();
    let out = SimWorld::new(SimConfig::new(n)).run(move |c| {
        let session = CCollSession::new(CodecSpec::None, n)
            .with_topology(topo.clone(), HierNet::cluster_default());
        let opts = PlanOptions::new().algorithm(Algorithm::Hierarchical);
        let mut plan = session.plan_allreduce_with(len, ReduceOp::Sum, opts);
        assert_eq!(plan.hier_lanes(), Some(lanes), "the case under audit");
        let input = rank_data(c.rank(), len);
        let mut out = vec![0.0f32; len];
        for _ in 0..8 {
            plan.execute_into(c, &input, &mut out);
        }
        c.barrier();
        let before = allocations();
        for _ in 0..4 {
            plan.execute_into(c, &input, &mut out);
        }
        c.barrier();
        let delta = allocations() - before;
        c.barrier();
        delta
    });
    out.results
}
