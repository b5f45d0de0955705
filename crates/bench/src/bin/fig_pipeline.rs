//! **Pipeline-engine ablation** (PR 4, beyond the paper): overlapped vs
//! monolithic execution for every stage the schedule-agnostic pipeline
//! engine now drives — sweeping stage × codec × sub-chunk size into
//! `BENCH_pipeline.json`.
//!
//! The overlapped column runs the session's plan; the monolithic column
//! is the placement no plan selects, through its free function. Stages
//! and their monolithic counterparts:
//!
//! * `reduce_scatter` — pipelined ring (`plan_reduce_scatter`) vs the
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
//! cargo run --release -p ccoll-bench --bin fig_pipeline -- --check
//! ```
//!
//! `CCOLL_QUICK=1` shrinks the sweep to CI scale. `--check` recomputes
//! the full sweep, writes nothing, and exits non-zero when any cell
//! differs from the `BENCH_pipeline.json` checked in at the repository
//! root.

use std::fmt::Write as _;

use c_coll::collectives::cpr_p2p::{
    cpr_binomial_reduce_into, cpr_rabenseifner_allreduce_into, cpr_ring_reduce_scatter_into,
    CprCodec,
};
use c_coll::frameworks::data_movement::c_ring_allgatherv_monolithic_into;
use c_coll::partition::chunk_lengths;
use c_coll::{Algorithm, CCollSession, CodecSpec, CollWorkspace, PlanOptions, ReduceOp};
use ccoll_bench::check::reproduces;
use ccoll_bench::runner::run_custom;
use ccoll_bench::table::Table;
use ccoll_comm::{Comm, CostModel, NetModel};
use ccoll_data::Dataset;

const NODES: usize = 8;

/// The results file as checked in (one entry per line).
const CHECKED_IN: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../BENCH_pipeline.json"
));

/// Per-iteration makespan (ms) of one stage on the virtual cluster. The
/// overlapped column is the session's plan at sub-chunk size `chunk`
/// (`chunk == 0` marks the sub-chunk-free relay stage, `allgather`); the
/// monolithic column is the CPR-P2P / relay-then-sweep placement no plan
/// selects, driven through its free function.
fn run_stage(
    stage: &'static str,
    spec: CodecSpec,
    chunk: usize,
    overlapped: bool,
    values: usize,
    iters: usize,
) -> f64 {
    let codec = CprCodec::from_spec(spec).expect("compressed spec");
    let (makespan, _, _) = run_custom(
        NODES,
        CostModel::default(),
        NetModel::default(),
        move |comm| {
            let me = comm.rank();
            let data = Dataset::Rtm.generate(values, me as u64);
            let counts = chunk_lengths(values, NODES);
            let session = |pipe: usize| CCollSession::new(spec, NODES).with_pipeline_values(pipe);
            let pin = |algorithm: Algorithm| PlanOptions::new().algorithm(algorithm);
            let mut ws = CollWorkspace::new();
            match stage {
                "reduce_scatter" => {
                    let mut out = vec![0.0f32; counts[me]];
                    if overlapped {
                        let mut plan = session(chunk).plan_reduce_scatter(values, ReduceOp::Sum);
                        for _ in 0..iters {
                            plan.execute_into(comm, &data, &mut out);
                        }
                    } else {
                        for _ in 0..iters {
                            cpr_ring_reduce_scatter_into(
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
                    let mine = Dataset::Rtm.generate(block, me as u64);
                    let mut out = vec![0.0f32; block * NODES];
                    if overlapped {
                        let mut plan = CCollSession::new(spec, NODES).plan_allgather(block);
                        for _ in 0..iters {
                            plan.execute_into(comm, &mine, &mut out);
                        }
                    } else {
                        let counts = vec![block; NODES];
                        for _ in 0..iters {
                            c_ring_allgatherv_monolithic_into(
                                comm, &codec, &mine, &counts, &mut out, &mut ws,
                            );
                        }
                    }
                }
                "allreduce" => {
                    let mut out = vec![0.0f32; values];
                    if overlapped {
                        let mut plan = session(chunk).plan_allreduce(values, ReduceOp::Sum);
                        for _ in 0..iters {
                            plan.execute_into(comm, &data, &mut out);
                        }
                    } else {
                        // The paper's ND composition: CPR ring
                        // reduce-scatter + monolithic compress-once
                        // allgather of the reduced chunks.
                        let mut mine = vec![0.0f32; counts[me]];
                        for _ in 0..iters {
                            cpr_ring_reduce_scatter_into(
                                comm,
                                &codec,
                                &data,
                                ReduceOp::Sum,
                                &mut mine,
                                &mut ws,
                            );
                            c_ring_allgatherv_monolithic_into(
                                comm, &codec, &mine, &counts, &mut out, &mut ws,
                            );
                        }
                    }
                }
                "rabenseifner" => {
                    let mut out = vec![0.0f32; values];
                    if overlapped {
                        let mut plan = session(chunk).plan_allreduce_with(
                            values,
                            ReduceOp::Sum,
                            pin(Algorithm::Rabenseifner),
                        );
                        for _ in 0..iters {
                            plan.execute_into(comm, &data, &mut out);
                        }
                    } else {
                        for _ in 0..iters {
                            cpr_rabenseifner_allreduce_into(
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
                    if overlapped {
                        let mut plan = session(chunk).plan_reduce_with(
                            0,
                            values,
                            ReduceOp::Sum,
                            pin(Algorithm::Binomial),
                        );
                        for _ in 0..iters {
                            plan.execute_into(comm, &data, &mut out);
                        }
                    } else {
                        for _ in 0..iters {
                            cpr_binomial_reduce_into(
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
                    // One sub-chunk spanning the payload *is* the
                    // monolithic schedule: encode, then relay, then decode.
                    let pipe = if overlapped { chunk } else { values };
                    let mut plan = session(pipe).plan_bcast(0, values);
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
    let check = std::env::args().any(|a| a == "--check");
    let quick = !check
        && std::env::var("CCOLL_QUICK")
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
    if check {
        // Rows are named by stage, codec, chunk.
        if !reproduces("BENCH_pipeline.json", CHECKED_IN, &json, 3, true) {
            std::process::exit(1);
        }
        return;
    }
    std::fs::write("BENCH_pipeline.json", &json).expect("write BENCH_pipeline.json");
    println!("\nwrote BENCH_pipeline.json");
}
