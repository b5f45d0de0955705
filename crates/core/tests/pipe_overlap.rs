//! Tests exercising PIPE-SZx inside real communication loops on the
//! threaded backend — the paper's §III-E2 workflow with genuine
//! concurrency: compress with progress polling, ship the stream, and
//! decompress with progress polling on the receiving side.

use bytes::Bytes;
use c_coll::{CCollSession, CodecSpec, ReduceOp};
use ccoll_comm::{Comm, ThreadWorld};
use ccoll_compress::PipeSzx;

fn field(seed: usize, n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| ((i + seed * 17) as f32 * 3e-4).sin() * 2.0)
        .collect()
}

#[test]
fn pipe_szx_stream_ships_between_real_threads() {
    let n = 40_000;
    let eb = 1e-3f32;
    let world = ThreadWorld::new(2);
    let out = world.run(move |c| {
        let codec = PipeSzx::new(eb);
        if c.rank() == 0 {
            let data = field(0, n);
            // Compress while polling a pending receive for the reply —
            // the paper's interleaving, on real threads.
            let reply_req = c.irecv(1, 2);
            let mut polls = 0;
            let stream = codec
                .compress_with_progress(&data, || {
                    let _ = c.test_recv(&reply_req);
                    polls += 1;
                })
                .expect("compress");
            assert!(polls >= n / 5120, "progress callback must fire per chunk");
            c.send(1, 1, Bytes::from(stream));
            let reply = c.wait_recv(reply_req);
            assert_eq!(&reply[..], b"ok");
            Vec::new()
        } else {
            let stream = c.recv(0, 1);
            c.send(0, 2, Bytes::from_static(b"ok"));
            codec
                .decompress_with_progress(&stream, || {})
                .expect("decompress")
        }
    });
    let expect = field(0, n);
    for (a, b) in expect.iter().zip(&out.results[1]) {
        assert!((a - b).abs() <= eb, "{a} vs {b}");
    }
}

#[test]
fn threaded_c_allreduce_matches_sim_across_ops() {
    // Cross-backend value agreement for every reduction operator.
    use ccoll_comm::{SimConfig, SimWorld};
    let n = 4;
    let len = 6000;
    for op in [ReduceOp::Sum, ReduceOp::Avg, ReduceOp::Max, ReduceOp::Min] {
        let session = move || CCollSession::new(CodecSpec::Szx { error_bound: 1e-4 }, n);
        let sim = SimWorld::new(SimConfig::new(n)).run(move |c| {
            session()
                .plan_allreduce(len, op)
                .execute(c, &field(c.rank(), len))
        });
        let thr = ThreadWorld::new(n).run(move |c| {
            session()
                .plan_allreduce(len, op)
                .execute(c, &field(c.rank(), len))
        });
        for r in 0..n {
            assert_eq!(sim.results[r], thr.results[r], "{op:?} rank {r}");
        }
    }
}

#[test]
fn threaded_collectives_under_contention() {
    // 8 ranks hammering allgather+bcast+scatter back to back: exercises
    // mailbox matching under real thread interleavings.
    let n = 8;
    let world = ThreadWorld::new(n);
    let out = world.run(move |c| {
        let session = CCollSession::new(CodecSpec::Szx { error_bound: 1e-4 }, n);
        let mut allgather = session.plan_allgather(500);
        let mut acc = 0.0f64;
        for round in 0..5 {
            let mine = field(c.rank() + round, 500);
            let gathered = allgather.execute(c, &mine);
            let root = round % n;
            let b = session.plan_bcast(root, 200).execute(c, &gathered[..200]);
            let s = session
                .plan_scatter(root, gathered.len())
                .execute(c, &gathered);
            acc += b[0] as f64 + s[0] as f64;
        }
        acc
    });
    // All ranks see the same bcast values; scatter differs per rank, but
    // the run must complete deterministically without mismatches.
    assert_eq!(out.results.len(), n);
    assert!(out.results.iter().all(|v| v.is_finite()));
}
