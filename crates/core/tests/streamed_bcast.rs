//! The streamed C-Bcast against its specification: the payload travels
//! as independent sub-chunk streams of the session codec, so
//!
//! * the root's output is the exact source bits;
//! * every other rank holds the concatenation of the per-sub-chunk codec
//!   round-trips — for SZx (whose 128-value blocks are coded
//!   independently and divide the sub-chunk) bitwise the *monolithic*
//!   round-trip too, so streaming changes no reconstructed value;
//! * two streamed broadcasts in flight at once stay apart (per-operation
//!   contexts isolate their FIFO sub-chunk streams);
//! * the cost model prices the schedule that runs.

use c_coll::engine::ProgressEngine;
use c_coll::{CCollSession, CodecSpec};
use ccoll_comm::{
    Comm, CostModel, NetModel, SchedParams, Schedule, SimConfig, SimWorld, ThreadWorld,
};

/// Sub-chunk size of these tests: two SZx blocks, so short payloads
/// still span several sub-chunks.
const CHUNK: usize = 256;

fn payload(len: usize, salt: usize) -> Vec<f32> {
    (0..len)
        .map(|i| ((i * 13 + salt * 101) as f32 * 3e-3).sin() * 4.0 + (i % 7) as f32 * 0.125)
        .collect()
}

fn specs() -> [CodecSpec; 4] {
    [
        CodecSpec::Szx { error_bound: 1e-3 },
        CodecSpec::ZfpAbs { error_bound: 1e-3 },
        CodecSpec::ZfpFxr { rate: 16 },
        CodecSpec::Lossless,
    ]
}

/// What a non-root rank must hold: each sub-chunk through the codec on
/// its own.
fn chunked_round_trip(spec: CodecSpec, data: &[f32]) -> Vec<f32> {
    let codec = spec.build().expect("codec");
    let mut out = Vec::with_capacity(data.len());
    for chunk in data.chunks(CHUNK) {
        let stream = codec.compress(chunk).expect("compress");
        out.extend(codec.decompress(&stream).expect("decompress"));
    }
    out
}

fn bcast_on<C: Comm>(c: &mut C, spec: CodecSpec, n: usize, root: usize, len: usize) -> Vec<f32> {
    let session = CCollSession::new(spec, n).with_pipeline_values(CHUNK);
    let mut plan = session.plan_bcast(root, len);
    let data = if c.rank() == root {
        payload(len, root)
    } else {
        Vec::new()
    };
    let mut out = vec![0.0f32; len];
    plan.execute_into(c, &data, &mut out);
    out
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn streamed_bcast_equals_per_chunk_round_trips_everywhere() {
    for spec in specs() {
        for len in [1, 127, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 17] {
            for n in [2usize, 3, 5, 8] {
                for root in 0..n {
                    let source = payload(len, root);
                    let expect = chunked_round_trip(spec, &source);
                    if let CodecSpec::Szx { .. } = spec {
                        let codec = spec.build().expect("codec");
                        let whole = codec
                            .decompress(&codec.compress(&source).expect("compress"))
                            .expect("decompress");
                        assert_eq!(
                            bits(&whole),
                            bits(&expect),
                            "SZx sub-chunk streams must reconstruct the monolithic values"
                        );
                    }
                    let mut runs = vec![
                        SimWorld::new(SimConfig::new(n))
                            .run(move |c| bcast_on(c, spec, n, root, len))
                            .results,
                    ];
                    if n <= 4 {
                        runs.push(
                            ThreadWorld::new(n)
                                .run(move |c| bcast_on(c, spec, n, root, len))
                                .results,
                        );
                    }
                    for (backend, results) in runs.iter().enumerate() {
                        for (rank, got) in results.iter().enumerate() {
                            let want = if rank == root { &source } else { &expect };
                            assert_eq!(
                                bits(got),
                                bits(want),
                                "{spec} len {len} world {n} root {root} rank {rank} backend {backend}"
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn two_streamed_bcasts_in_flight_stay_apart() {
    let n = 5;
    let (len_a, len_b) = (4 * CHUNK + 3, 6 * CHUNK);
    let (root_a, root_b) = (0, 3);
    let spec = CodecSpec::Szx { error_bound: 1e-3 };
    let out = SimWorld::new(SimConfig::new(n)).run(move |c| {
        let session = CCollSession::new(spec, n).with_pipeline_values(CHUNK);
        let mut plan_a = session.plan_bcast(root_a, len_a);
        let mut plan_b = session.plan_bcast(root_b, len_b);
        let data = |root: usize, len: usize| {
            if c.rank() == root {
                payload(len, root)
            } else {
                Vec::new()
            }
        };
        let (data_a, data_b) = (data(root_a, len_a), data(root_b, len_b));
        let mut out_a = vec![0.0f32; len_a];
        let mut out_b = vec![0.0f32; len_b];
        let mut engine = ProgressEngine::new();
        engine.submit(plan_a.start(c, &data_a, &mut out_a));
        engine.submit(plan_b.start(c, &data_b, &mut out_b));
        engine.wait_all(c);
        drop(engine);
        (out_a, out_b)
    });
    for (root, len, pick) in [(root_a, len_a, 0), (root_b, len_b, 1)] {
        let source = payload(len, root);
        let expect = chunked_round_trip(spec, &source);
        for (rank, got) in out.results.iter().enumerate() {
            let got = if pick == 0 { &got.0 } else { &got.1 };
            let want = if rank == root { &source } else { &expect };
            assert_eq!(bits(got), bits(want), "root {root} rank {rank}");
        }
    }
}

#[test]
fn cost_estimate_tracks_the_simulated_streamed_bcast() {
    // One operation at the default sub-chunk size on the default models:
    // `Schedule::BinomialTreeBcast` must price the pipeline that runs
    // (the pre-streaming formula reads about twice the makespan here).
    let spec = CodecSpec::Szx { error_bound: 1e-3 };
    let len = 1 << 18;
    for n in [8usize, 32] {
        let out = SimWorld::new(SimConfig::new(n)).run(move |c| {
            let session = CCollSession::new(spec, n);
            let mut plan = session.plan_bcast(0, len);
            let data = if c.rank() == 0 {
                payload(len, 0)
            } else {
                Vec::new()
            };
            let mut out = vec![0.0f32; len];
            plan.execute_into(c, &data, &mut out);
            plan.stats().observed_ratio
        });
        let cost = CostModel::default();
        let (ck, dk) = spec.kernels();
        let params = SchedParams {
            world: n,
            payload_bytes: len * 4,
            compress_tput: cost.throughput(ck),
            decompress_tput: cost.throughput(dk),
            ratio: out.results[0].expect("the root measured its ratio"),
            pipelined: true,
        };
        let est = cost
            .estimate(Schedule::BinomialTreeBcast, &NetModel::default(), &params)
            .as_secs_f64();
        let sim = out.makespan.as_secs_f64();
        assert!(
            (est - sim).abs() <= 0.1 * sim,
            "world {n}: estimate {est} vs simulated {sim}"
        );
    }
}
