//! **Pipeline-engine ablation** (PR 4, beyond the paper): overlapped vs
//! monolithic execution for every stage the schedule-agnostic pipeline
//! engine now drives — sweeping stage × codec × sub-chunk size into
//! `BENCH_pipeline.json`.
//!
//! Stages and their monolithic counterparts:
//!
//! * `reduce_scatter` — pipelined ring (`c_ring_reduce_scatter`) vs the
//!   ND compress→send→decompress→reduce ring;
//! * `allgather` — relay/decompress overlap vs the monolithic
//!   relay-then-sweep schedule, on the steady-state allreduce workload
//!   (per-rank block = values / nodes, i.e. the reduced chunks);
//! * `allreduce` — full pipelined composition vs the paper's ND
//!   (CPR reduce-scatter + monolithic compress-once allgather);
//! * `rabenseifner` — pipelined halving phase vs the monolithic CPR
//!   butterfly;
//! * `reduce` — pipelined binomial tree vs the monolithic CPR tree;
//! * `bcast` — the streamed compress-once broadcast (root encode ∥
//!   relay ∥ decode through the relay cursor) vs the same plan with one
//!   sub-chunk spanning the payload (`with_pipeline_values(values)`):
//!   encode, then relay, then decode.
//!
//! ```bash
//! cargo run --release -p ccoll-bench --bin fig_pipeline
//! ```
//!
//! `CCOLL_QUICK=1` shrinks the sweep to CI scale.

use std::fmt::Write as _;

use c_coll::collectives::cpr_p2p::{self, CprCodec};
use c_coll::frameworks::computation::{self, PipelineConfig};
use c_coll::frameworks::data_movement;
use c_coll::partition::chunk_lengths;
use c_coll::{CCollSession, CodecSpec, CollWorkspace, ReduceOp};
use ccoll_bench::runner::run_custom;
use ccoll_bench::table::Table;
use ccoll_comm::{Comm, CostModel, NetModel};
use ccoll_data::Dataset;

const NODES: usize = 8;

fn cpr(spec: CodecSpec) -> CprCodec {
    let (ck, dk) = spec.kernels();
    CprCodec::new(spec.build().expect("compressed spec"), ck, dk)
}

/// Per-iteration makespan (ms) of one stage on the virtual cluster.
fn run_stage(
    stage: &'static str,
    spec: CodecSpec,
    chunk: usize,
    overlapped: bool,
    values: usize,
    iters: usize,
) -> f64 {
    let codec = cpr(spec);
    // `chunk == 0` marks the sub-chunk-free relay stage (allgather).
    let cfg = spec
        .error_bound()
        .filter(|_| chunk > 0)
        .map(|eb| PipelineConfig::new(eb).with_chunk_values(chunk));
    let (makespan, _, _) = run_custom(
        NODES,
        CostModel::default(),
        NetModel::default(),
        move |comm| {
            let me = comm.rank();
            let data = Dataset::Rtm.generate(values, me as u64);
            let counts = chunk_lengths(values, NODES);
            let mut ws = CollWorkspace::new();
            match stage {
                "reduce_scatter" => {
                    let mut out = vec![0.0f32; counts[me]];
                    for _ in 0..iters {
                        if overlapped {
                            computation::c_ring_reduce_scatter_into(
                                comm,
                                cfg.expect("error-bounded"),
                                &data,
                                ReduceOp::Sum,
                                &mut out,
                                &mut ws,
                            );
                        } else {
                            cpr_p2p::cpr_ring_reduce_scatter_into(
                                comm,
                                &codec,
                                &data,
                                ReduceOp::Sum,
                                &mut out,
                                &mut ws,
                            );
                        }
                    }
                }
                "allgather" => {
                    // The steady-state allreduce workload: every rank
                    // contributes its reduced chunk of the partition.
                    let block = values / NODES;
                    let counts = vec![block; NODES];
                    let mine = Dataset::Rtm.generate(block, me as u64);
                    let mut out = vec![0.0f32; block * NODES];
                    for _ in 0..iters {
                        if overlapped {
                            data_movement::c_ring_allgatherv_into(
                                comm, &codec, &mine, &counts, &mut out, &mut ws,
                            );
                        } else {
                            data_movement::c_ring_allgatherv_monolithic_into(
                                comm, &codec, &mine, &counts, &mut out, &mut ws,
                            );
                        }
                    }
                }
                "allreduce" => {
                    let mut out = vec![0.0f32; values];
                    let mut mine = vec![0.0f32; counts[me]];
                    for _ in 0..iters {
                        if overlapped {
                            computation::c_ring_allreduce_into(
                                comm,
                                cfg.expect("error-bounded"),
                                &codec,
                                &data,
                                ReduceOp::Sum,
                                &mut out,
                                &mut ws,
                            );
                        } else {
                            // The paper's ND composition: CPR ring
                            // reduce-scatter + monolithic compress-once
                            // allgather of the reduced chunks.
                            cpr_p2p::cpr_ring_reduce_scatter_into(
                                comm,
                                &codec,
                                &data,
                                ReduceOp::Sum,
                                &mut mine,
                                &mut ws,
                            );
                            data_movement::c_ring_allgatherv_monolithic_into(
                                comm, &codec, &mine, &counts, &mut out, &mut ws,
                            );
                        }
                    }
                }
                "rabenseifner" => {
                    let mut out = vec![0.0f32; values];
                    for _ in 0..iters {
                        if overlapped {
                            computation::c_rabenseifner_allreduce_into(
                                comm,
                                cfg.expect("error-bounded"),
                                &codec,
                                &data,
                                ReduceOp::Sum,
                                &mut out,
                                &mut ws,
                            );
                        } else {
                            cpr_p2p::cpr_rabenseifner_allreduce_into(
                                comm,
                                &codec,
                                &data,
                                ReduceOp::Sum,
                                &mut out,
                                &mut ws,
                            );
                        }
                    }
                }
                "reduce" => {
                    let mut out = vec![0.0f32; if me == 0 { values } else { 0 }];
                    for _ in 0..iters {
                        if overlapped {
                            computation::c_binomial_reduce_into(
                                comm,
                                cfg.expect("error-bounded"),
                                0,
                                &data,
                                ReduceOp::Sum,
                                &mut out,
                                &mut ws,
                            );
                        } else {
                            cpr_p2p::cpr_binomial_reduce_into(
                                comm,
                                &codec,
                                0,
                                &data,
                                ReduceOp::Sum,
                                &mut out,
                                &mut ws,
                            );
                        }
                    }
                }
                "bcast" => {
                    // Through the plan: the sub-chunk size is the
                    // session's, and one sub-chunk spanning the payload
                    // *is* the monolithic schedule.
                    let pipe = if overlapped { chunk } else { values };
                    let session = CCollSession::new(spec, NODES).with_pipeline_values(pipe);
                    let mut plan = session.plan_bcast(0, values);
                    let mut out = vec![0.0f32; values];
                    for _ in 0..iters {
                        plan.execute_into(comm, &data, &mut out);
                    }
                }
                other => panic!("unknown stage {other}"),
            }
        },
    );
    makespan.as_secs_f64() * 1e3 / iters as f64
}

fn main() {
    let quick = std::env::var("CCOLL_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false);
    let (values, iters, chunks): (usize, usize, Vec<usize>) = if quick {
        (40_000, 1, vec![5120])
    } else {
        (200_000, 2, vec![1280, 5120, 20_480])
    };
    let szx = CodecSpec::Szx { error_bound: 1e-3 };
    let zfp = CodecSpec::ZfpAbs { error_bound: 1e-3 };
    let compute_stages: [&'static str; 4] =
        ["reduce_scatter", "allreduce", "rabenseifner", "reduce"];

    println!("# Pipeline-engine ablation — overlapped vs monolithic, {NODES} nodes, {values} values/rank");
    println!("# the overlapped column must undercut the monolithic one on every row\n");
    let t = Table::new(&[
        "stage",
        "codec",
        "chunk",
        "overlap (ms)",
        "monolithic (ms)",
        "speedup",
    ]);
    let mut json = String::from("{\n  \"bench\": \"pipeline\",\n");
    let _ = write!(
        json,
        "  \"nodes\": {NODES}, \"values\": {values},\n  \"entries\": [\n"
    );
    let mut first = true;
    let mut emit = |stage: &str, spec: CodecSpec, chunk: usize, ov: f64, mono: f64| {
        t.row(&[
            stage.to_string(),
            spec.to_string(),
            if chunk == 0 {
                "-".to_string()
            } else {
                chunk.to_string()
            },
            format!("{ov:.3}"),
            format!("{mono:.3}"),
            format!("{:.2}x", mono / ov),
        ]);
        if !first {
            json.push_str(",\n");
        }
        first = false;
        let _ = write!(
            json,
            "    {{\"stage\": \"{stage}\", \"codec\": \"{spec}\", \"chunk\": {chunk}, \
             \"overlap_ms\": {ov:.4}, \"monolithic_ms\": {mono:.4}}}"
        );
    };

    // The relay-overlap stage has no sub-chunking: one row per codec,
    // including the lossless codec (the overlap is codec-agnostic).
    for spec in [szx, zfp, CodecSpec::Lossless] {
        let ov = run_stage("allgather", spec, 0, true, values, iters);
        let mono = run_stage("allgather", spec, 0, false, values, iters);
        emit("allgather", spec, 0, ov, mono);
    }
    for stage in compute_stages {
        for spec in [szx, zfp] {
            for &chunk in &chunks {
                let ov = run_stage(stage, spec, chunk, true, values, iters);
                let mono = run_stage(stage, spec, chunk, false, values, iters);
                emit(stage, spec, chunk, ov, mono);
            }
        }
    }
    // Streaming is codec-agnostic (each sub-chunk is an independent
    // stream), so the lossless codec rides along as in `allgather`.
    for spec in [szx, zfp, CodecSpec::Lossless] {
        for &chunk in &chunks {
            let ov = run_stage("bcast", spec, chunk, true, values, iters);
            let mono = run_stage("bcast", spec, chunk, false, values, iters);
            emit("bcast", spec, chunk, ov, mono);
        }
    }
    json.push_str("\n  ]\n}\n");
    std::fs::write("BENCH_pipeline.json", &json).expect("write BENCH_pipeline.json");
    println!("\nwrote BENCH_pipeline.json");
}
