//! The layer ladder: the bare public kernels under a collective, each run
//! on the workload's own payload and recorded as a span with its byte
//! count. Every rung is reported as the floor of its repetitions.

use std::convert::Infallible;
use std::time::{Duration, Instant};

use bytes::Bytes;
use c_coll::frameworks::computation::DEFAULT_PIPE_VALUES;
use c_coll::{wire, CodecSpec, ReduceOp};
use ccoll_comm::{Comm, PayloadPool, ThreadWorld};
use ccoll_compress::{Compressor, PipeSzx, ReduceKind, SzxCodec};

use crate::spec::{Shape, Workload};
use crate::stats::{floor, gbs};
use crate::trace::{RankTrace, Span, NO_PARENT};

/// Thread id of the ladder's spans in the written trace.
pub const LADDER_TID: u32 = 1000;
/// Repetitions of a rung: at least `MIN_REPS`, then until `RUNG_BUDGET`
/// is spent, never more than `MAX_REPS`.
const MIN_REPS: usize = 5;
const MAX_REPS: usize = 400;
const RUNG_BUDGET: Duration = Duration::from_millis(150);
/// Most spans the ladder records (rungs × `MAX_REPS`, with room).
pub const LADDER_SPANS: usize = 16 * MAX_REPS;

/// What the ladder measured; a rung that does not apply to the workload
/// stays `None`.
#[derive(Debug, Default, Clone)]
pub struct Ladder {
    /// `SzxCodec::compress_into`, GB/s of uncompressed input.
    pub szx_encode_gbs: Option<f64>,
    /// `SzxCodec::decompress_into`, GB/s of output produced.
    pub szx_decode_gbs: Option<f64>,
    /// `SzxCodec::decompress_reduce_into`, GB/s of output folded.
    pub szx_fused_gbs: Option<f64>,
    /// `PipeSzx::compress_into` at the session's sub-chunk size.
    pub pipe_encode_gbs: Option<f64>,
    /// Uncompressed ÷ compressed size of rank 0's payload (exact).
    pub szx_ratio: Option<f64>,
    /// The bare kernel calls on one operation's critical path, ms.
    pub codec_floor_ms_per_op: Option<f64>,
    /// `ReduceOp::apply`, GB/s of source folded.
    pub reduce_apply_gbs: f64,
    /// `encode_f32s_into` through a pool slot, GB/s.
    pub wire_encode_gbs: f64,
    /// `wire::decode_values_into`, GB/s.
    pub wire_decode_gbs: f64,
    /// `PayloadPool::write_with` of 64 bytes, ns per call.
    pub pool_write_ns: f64,
    /// One-way 64-byte message between two `ThreadWorld` ranks, µs.
    pub pingpong_us: f64,
    /// `ThreadComm::barrier` with two ranks, µs per call.
    pub barrier_us: f64,
    /// Pool write + send + receive of the payload, rank 0 → rank 1, GB/s.
    pub stream_gbs: f64,
}

/// Repeat `f`, one span per call; returns the floor of its durations in
/// seconds. The first (warming) call is neither timed nor recorded.
fn rung(tr: &mut RankTrace, name: &'static str, bytes: usize, mut f: impl FnMut()) -> f64 {
    f();
    let started = Instant::now();
    let mut secs = Vec::with_capacity(MAX_REPS);
    while secs.len() < MAX_REPS && (secs.len() < MIN_REPS || started.elapsed() < RUNG_BUDGET) {
        let s = tr.begin(name, 0, NO_PARENT, bytes as u64);
        f();
        tr.end(s);
        let span = tr
            .spans
            .last()
            .expect("the ladder's buffer holds every rung");
        secs.push(span.dur_ns() as f64 / 1e9);
    }
    floor(&secs)
}

/// The piece of the payload one codec call handles on the two-rank host
/// pass, and how many times one operation's critical path makes each
/// call: `(piece values, pipelined encodes, fused reduces, encodes, decodes)`.
fn critical_path(w: &Workload) -> (usize, usize, usize, usize, usize) {
    match w.shape {
        // Ring over two ranks: a pipelined encode and a fused reduce of
        // half the payload (reduce-scatter), then a monolithic encode and
        // a decode of half the payload (allgather).
        Shape::Allreduce(c_coll::Algorithm::Ring) => (w.len / 2, 1, 1, 1, 1),
        Shape::Buckets { buckets } => (w.len / buckets / 2, buckets, buckets, buckets, buckets),
        // Butterfly over two ranks: one round, whole payload.
        Shape::Allreduce(_) => (w.len, 0, 1, 1, 0),
        // Encode at the root, decode at the receiver.
        Shape::Bcast => (w.len, 0, 0, 1, 1),
        // Simulator-hosted: the kernels are still measured, on the whole
        // payload, but there is no two-rank critical path to sum.
        Shape::AutoHier { .. } => (w.len, 0, 0, 0, 0),
    }
}

/// Run every rung that applies to `w` on `x` (rank 0's payload) and `y`
/// (rank 1's).
pub fn run(w: &Workload, x: &[f32], y: &[f32], tr: &mut RankTrace) -> Ladder {
    let mut l = Ladder::default();
    let (piece, n_pipe, n_fused, n_enc, n_dec) = critical_path(w);
    let (px, py) = (&x[..piece], &y[..piece]);
    let bytes = piece * 4;

    if let CodecSpec::Szx { error_bound } = w.codec {
        let szx = SzxCodec::new(error_bound);
        let pipe = PipeSzx::with_chunk(error_bound, DEFAULT_PIPE_VALUES);
        let mut enc = Vec::new();
        let mut dec = Vec::new();
        let mut acc = py.to_vec();
        let t_enc = rung(tr, "szx.compress_into", bytes, || {
            szx.compress_into(px, &mut enc)
                .expect("f32 input compresses");
        });
        let t_dec = rung(tr, "szx.decompress_into", bytes, || {
            szx.decompress_into(&enc, &mut dec)
                .expect("own stream decodes");
        });
        let t_fused = rung(tr, "szx.decompress_reduce_into", bytes, || {
            szx.decompress_reduce_into(&enc, ReduceKind::Sum, &mut acc, &mut dec)
                .expect("own stream decodes");
        });
        l.szx_ratio = Some(bytes as f64 / enc.len().max(1) as f64);
        let t_pipe = rung(tr, "pipe.compress_into", bytes, || {
            pipe.compress_into(px, &mut enc)
                .expect("f32 input compresses");
        });
        l.szx_encode_gbs = Some(gbs(bytes, t_enc));
        l.szx_decode_gbs = Some(gbs(bytes, t_dec));
        l.szx_fused_gbs = Some(gbs(bytes, t_fused));
        l.pipe_encode_gbs = Some(gbs(bytes, t_pipe));
        if n_enc > 0 {
            let secs = n_pipe as f64 * t_pipe
                + n_fused as f64 * t_fused
                + n_enc as f64 * t_enc
                + n_dec as f64 * t_dec;
            l.codec_floor_ms_per_op = Some(secs * 1e3);
        }
    } else {
        l.codec_floor_ms_per_op = Some(0.0);
    }

    let mut acc = py.to_vec();
    l.reduce_apply_gbs = gbs(
        bytes,
        rung(tr, "reduce.apply", bytes, || {
            ReduceOp::Sum.apply(&mut acc, px)
        }),
    );
    let mut pool = PayloadPool::new();
    let mut payload = Bytes::new();
    l.wire_encode_gbs = gbs(
        bytes,
        rung(tr, "wire.encode", bytes, || {
            payload = Bytes::new(); // release the slot so it is reused
            payload = match pool.write_with(|buf| {
                ccoll_compress::encode_f32s_into(px, buf);
                Ok::<(), Infallible>(())
            }) {
                Ok(b) => b,
                Err(e) => match e {},
            };
        }),
    );
    l.wire_decode_gbs = gbs(
        bytes,
        rung(tr, "wire.decode_values_into", bytes, || {
            wire::decode_values_into(&payload, &mut acc);
        }),
    );
    const POOL_CALLS: usize = 1000;
    let small = [0u8; 64];
    l.pool_write_ns = rung(tr, "pool.write_with", 64 * POOL_CALLS, || {
        for _ in 0..POOL_CALLS {
            std::hint::black_box(pool.write(std::hint::black_box(&small)));
        }
    }) * 1e9
        / POOL_CALLS as f64;

    let (pingpong_us, barrier_us, stream_gbs) = mailbox_rungs(px, tr);
    l.pingpong_us = pingpong_us;
    l.barrier_us = barrier_us;
    l.stream_gbs = stream_gbs;
    l
}

/// The `ThreadWorld` rungs: ping-pong, barrier and a one-way stream of
/// the payload. Timed on rank 0; the spans are added after the world has
/// joined.
fn mailbox_rungs(payload: &[f32], tr: &mut RankTrace) -> (f64, f64, f64) {
    const ROUND_TRIPS: usize = 200;
    const BARRIERS: usize = 1000;
    const STREAMED: usize = 8;
    const REPS: usize = 10;
    let raw = ccoll_compress::f32s_to_bytes(payload);
    let stream_bytes = raw.len();
    let epoch = tr.epoch();
    let out = ThreadWorld::new(2).run(move |comm| {
        let rank = comm.rank();
        let peer = 1 - rank;
        let mut pool = PayloadPool::new();
        // (name index, start, end) of every repetition, on rank 0's clock.
        let mut reps: Vec<(usize, Duration, Duration)> = Vec::with_capacity(3 * REPS);
        for _ in 0..REPS {
            comm.barrier();
            let t0 = epoch.elapsed();
            for _ in 0..ROUND_TRIPS {
                if rank == 0 {
                    comm.send(peer, 1, pool.write(&[0u8; 64]));
                    comm.recv(peer, 2);
                } else {
                    comm.recv(peer, 1);
                    comm.send(peer, 2, pool.write(&[0u8; 64]));
                }
            }
            reps.push((0, t0, epoch.elapsed()));
        }
        for _ in 0..REPS {
            let t0 = epoch.elapsed();
            for _ in 0..BARRIERS {
                comm.barrier();
            }
            reps.push((1, t0, epoch.elapsed()));
        }
        for _ in 0..REPS {
            comm.barrier();
            let t0 = epoch.elapsed();
            if rank == 0 {
                for _ in 0..STREAMED {
                    comm.send(peer, 3, pool.write(&raw));
                }
                comm.recv(peer, 4);
            } else {
                for _ in 0..STREAMED {
                    std::hint::black_box(comm.recv(peer, 3));
                }
                comm.send(peer, 4, pool.write(&[0u8; 1]));
            }
            reps.push((2, t0, epoch.elapsed()));
        }
        reps
    });
    const NAMES: [&str; 3] = ["threaded.pingpong", "threaded.barrier", "threaded.stream"];
    let bytes = [64 * 2 * ROUND_TRIPS, 0, stream_bytes * STREAMED];
    let mut secs: [Vec<f64>; 3] = Default::default();
    for &(which, t0, t1) in &out.results[0] {
        tr.record(Span {
            name: NAMES[which],
            parent: NO_PARENT,
            op: 0,
            bytes: bytes[which] as u64,
            start_ns: t0.as_nanos() as u64,
            end_ns: t1.as_nanos() as u64,
        });
        secs[which].push((t1 - t0).as_secs_f64());
    }
    (
        floor(&secs[0]) * 1e6 / (2 * ROUND_TRIPS) as f64,
        floor(&secs[1]) * 1e6 / BARRIERS as f64,
        gbs(stream_bytes * STREAMED, floor(&secs[2])),
    )
}
