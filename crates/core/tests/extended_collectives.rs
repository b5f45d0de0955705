//! Tests for the extended collective set (C-Alltoall, C-Gather, C-Reduce
//! and their baselines) — the paper's future-work collectives.

use c_coll::collectives::cpr_p2p::{cpr_pairwise_alltoall_into, CprCodec};
use c_coll::partition::{chunk_lengths, chunk_offsets};
use c_coll::{CCollSession, CodecSpec, CollWorkspace, ReduceOp};
use ccoll_comm::{Comm, CostModel, NetModel, SimConfig, SimWorld};

fn session(eb: f32, n: usize) -> CCollSession {
    CCollSession::new(CodecSpec::Szx { error_bound: eb }, n)
}

fn block_data(rank: usize, to: usize, len: usize) -> Vec<f32> {
    (0..len)
        .map(|i| ((i + rank * 31 + to * 7) as f32 * 2e-3).sin() * 3.0)
        .collect()
}

#[test]
fn c_alltoall_error_bounded() {
    let n = 6;
    let block = 500;
    let eb = 1e-3f32;
    let world = SimWorld::new(SimConfig::new(n));
    let out = world.run(move |c| {
        let me = c.rank();
        let mut send = Vec::with_capacity(n * block);
        for to in 0..n {
            send.extend(block_data(me, to, block));
        }
        session(eb, n).plan_alltoall(n * block).execute(c, &send)
    });
    for r in 0..n {
        for src in 0..n {
            let expect = block_data(src, r, block);
            let got = &out.results[r][src * block..(src + 1) * block];
            for (a, b) in expect.iter().zip(got) {
                assert!(
                    (a - b).abs() <= eb + 1e-7,
                    "rank {r} from {src}: {a} vs {b}"
                );
            }
            if src == r {
                assert_eq!(&expect[..], got, "own block must be exact");
            }
        }
    }
}

#[test]
fn cpr_alltoall_matches_c_alltoall_accuracy() {
    // Both compress each block exactly once, so both see a single bound.
    let n = 4;
    let block = 300;
    let eb = 1e-4f32;
    let world = SimWorld::new(SimConfig::new(n));
    let out = world.run(move |c| {
        let me = c.rank();
        let mut send = Vec::with_capacity(n * block);
        for to in 0..n {
            send.extend(block_data(me, to, block));
        }
        let mut out = vec![0.0f32; send.len()];
        let cpr = CprCodec::from_spec(CodecSpec::Szx { error_bound: eb }).expect("codec");
        cpr_pairwise_alltoall_into(c, &cpr, &send, &mut out, &mut CollWorkspace::new());
        out
    });
    for r in 0..n {
        for src in 0..n {
            let expect = block_data(src, r, block);
            let got = &out.results[r][src * block..(src + 1) * block];
            for (a, b) in expect.iter().zip(got) {
                assert!((a - b).abs() <= eb + 1e-7);
            }
        }
    }
}

#[test]
fn c_gather_single_bound_all_roots() {
    let n = 7;
    let total = 1000;
    let eb = 1e-3f32;
    for root in [0usize, 3, 6] {
        let world = SimWorld::new(SimConfig::new(n));
        let out = world.run(move |c| {
            let lengths = chunk_lengths(total, n);
            let offsets = chunk_offsets(&lengths);
            let me = c.rank();
            let full = block_data(9, 9, total);
            let mine = full[offsets[me]..offsets[me] + lengths[me]].to_vec();
            session(eb, n).plan_gather(root, total).execute(c, &mine)
        });
        let full = block_data(9, 9, total);
        for (r, res) in out.results.iter().enumerate() {
            if r == root {
                let got = res.as_ref().expect("root gathers");
                let lengths = chunk_lengths(total, n);
                let offsets = chunk_offsets(&lengths);
                for (i, (a, b)) in full.iter().zip(got).enumerate() {
                    assert!(
                        (a - b).abs() <= eb + 1e-7,
                        "root {root} index {i}: {a} vs {b}"
                    );
                }
                // The root's own chunk must be lossless.
                let own = &got[offsets[root]..offsets[root] + lengths[root]];
                assert_eq!(own, &full[offsets[root]..offsets[root] + lengths[root]]);
            } else {
                assert!(res.is_none(), "non-root {r} must not gather");
            }
        }
    }
}

#[test]
fn c_reduce_through_api() {
    let n = 5;
    let len = 10_000;
    let eb = 1e-3f32;
    let world = SimWorld::new(SimConfig::new(n));
    let out = world.run(move |c| {
        let data = block_data(c.rank(), 0, len);
        session(eb, n)
            .plan_reduce(2, len, ReduceOp::Sum)
            .execute(c, &data)
    });
    let inputs: Vec<Vec<f32>> = (0..n).map(|r| block_data(r, 0, len)).collect();
    let expect = ReduceOp::Sum.oracle(&inputs);
    for (r, res) in out.results.iter().enumerate() {
        if r == 2 {
            let got = res.as_ref().expect("root reduces");
            // One bounded error per contributor plus one from the gather.
            let tol = (n + 1) as f32 * eb;
            for (a, b) in expect.iter().zip(got) {
                assert!((a - b).abs() <= tol, "{a} vs {b}");
            }
        } else {
            assert!(res.is_none());
        }
    }
}

#[test]
fn api_alltoall_uncompressed_is_exact() {
    let n = 4;
    let block = 100;
    let world = SimWorld::new(SimConfig::new(n));
    let out = world.run(move |c| {
        let me = c.rank();
        let mut send = Vec::with_capacity(n * block);
        for to in 0..n {
            send.extend(block_data(me, to, block));
        }
        CCollSession::new(CodecSpec::None, n)
            .plan_alltoall(n * block)
            .execute(c, &send)
    });
    for r in 0..n {
        for src in 0..n {
            let expect = block_data(src, r, block);
            assert_eq!(&out.results[r][src * block..(src + 1) * block], &expect[..]);
        }
    }
}

#[test]
fn traffic_matches_ring_allreduce_formula() {
    // The paper §III-E: ring allreduce moves 2(N−1)/N · D per process.
    let n = 8;
    let len = 80_000; // divisible by 8 so chunks are equal
    let world = SimWorld::new(SimConfig::new(n));
    let out = world.run(move |c| {
        let data = block_data(c.rank(), 1, len);
        let mut plan = CCollSession::new(CodecSpec::None, n).plan_allreduce(len, ReduceOp::Sum);
        let _ = plan.execute(c, &data);
    });
    let d_bytes = (len * 4) as f64;
    let expect = 2.0 * (n as f64 - 1.0) / n as f64 * d_bytes;
    // Each reduce-scatter round streams its chunk, and each allgather
    // round relays one block, in the pieces of the flat session's cuts
    // on the default net (both longer than one pipe).
    let (cost, net) = (CostModel::default(), NetModel::default());
    let hop = cost
        .hop_taper(&net)
        .expect("the default net is slower than a fold");
    let relay = cost.relay_taper(&net, n).expect("and slower than a copy");
    let rounds = n as u64 - 1;
    let pieces = (hop.pieces(len / n) + relay.pieces(len / n)) as u64;
    for (r, t) in out.traffics.iter().enumerate() {
        let sent = t.bytes_sent as f64;
        let rel = (sent - expect).abs() / expect;
        assert!(rel < 0.01, "rank {r}: sent {sent} vs formula {expect}");
        assert_eq!(t.messages_sent, rounds * pieces);
    }
}

#[test]
fn compressed_allreduce_sends_fewer_bytes() {
    let n = 8;
    let len = 200_000;
    let run = |spec: CodecSpec| {
        let world = SimWorld::new(SimConfig::new(n));
        let out = world.run(move |c| {
            // Smooth, highly compressible data.
            let data: Vec<f32> = (0..len)
                .map(|i| ((i + c.rank()) as f32 * 1e-4).sin())
                .collect();
            let mut plan = CCollSession::new(spec, n).plan_allreduce(len, ReduceOp::Sum);
            let _ = plan.execute(c, &data);
        });
        out.traffics.iter().map(|t| t.bytes_sent).sum::<u64>()
    };
    let plain = run(CodecSpec::None);
    let compressed = run(CodecSpec::Szx { error_bound: 1e-3 });
    assert!(
        compressed * 4 < plain,
        "compressed allreduce should move >4x fewer bytes: {compressed} vs {plain}"
    );
}
