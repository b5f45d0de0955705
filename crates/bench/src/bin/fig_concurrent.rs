//! **Concurrent-collectives study** (PR 8, beyond the paper): a
//! bucketed-allreduce training step driven by the session progress
//! engine vs the sequential schedule — sweeping bucket count × bucket
//! size × codec into `BENCH_concurrent.json`.
//!
//! Each cell models one training step with `buckets` gradient buckets:
//! every bucket owes one backward-pass compute slice and one allreduce
//! of its gradients. The sequential schedule finishes each bucket's
//! collective before the next bucket's compute starts, exposing every
//! collective on the critical path; the engine schedule submits each
//! bucket's allreduce the moment its gradients are ready, so buckets
//! 0..k progress *under* bucket k+1's compute and only the final
//! bucket's residual tail is exposed. The `hidden_ms` column is the
//! communication time the concurrency recovered.
//!
//! ```bash
//! cargo run --release -p ccoll-bench --bin fig_concurrent
//! cargo run --release -p ccoll-bench --bin fig_concurrent -- --check
//! ```
//!
//! `CCOLL_QUICK=1` shrinks the sweep to CI scale. `--check` recomputes
//! the full sweep, writes nothing, and exits non-zero when any cell
//! differs from the `BENCH_concurrent.json` checked in at the repository
//! root.

use std::fmt::Write as _;
use std::time::Duration;

use c_coll::CodecSpec;
use ccoll_bench::check::reproduces;
use ccoll_bench::runner::run_bucketed_allreduce;
use ccoll_bench::table::Table;
use ccoll_comm::{CostModel, NetModel};
use ccoll_data::Dataset;

const NODES: usize = 8;
const SLICES: usize = 16;
const COMPUTE_PER_BUCKET_MS: f64 = 0.6;

/// The results file as checked in (one entry per line).
const CHECKED_IN: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../BENCH_concurrent.json"
));

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let quick = !check
        && std::env::var("CCOLL_QUICK")
            .map(|v| v == "1")
            .unwrap_or(false);
    let (bucket_counts, sizes, iters): (Vec<usize>, Vec<usize>, usize) = if quick {
        (vec![2, 4], vec![40_000], 1)
    } else {
        (vec![2, 4, 8], vec![40_000, 200_000, 800_000], 2)
    };
    let specs = [
        CodecSpec::Szx { error_bound: 1e-3 },
        CodecSpec::ZfpAbs { error_bound: 1e-3 },
        CodecSpec::Lossless,
    ];

    println!(
        "# Concurrent collectives — sequential (compute + blocking allreduce \
         per bucket) vs session progress engine, {NODES} nodes, \
         {COMPUTE_PER_BUCKET_MS} ms compute/bucket"
    );
    println!("# the engine must undercut sequential wherever collectives can hide under later buckets' compute\n");
    let t = Table::new(&[
        "codec",
        "buckets",
        "values/bucket",
        "sequential (ms)",
        "engine (ms)",
        "hidden (ms)",
        "speedup",
    ]);

    let mut json = String::from("{\n  \"bench\": \"concurrent\",\n");
    let _ = write!(
        json,
        "  \"nodes\": {NODES}, \"slices\": {SLICES}, \
         \"compute_per_bucket_ms\": {COMPUTE_PER_BUCKET_MS},\n  \"entries\": [\n"
    );
    let mut first = true;
    let mut wins = 0usize;
    let mut cells = 0usize;
    for spec in specs {
        for &buckets in &bucket_counts {
            for &values in &sizes {
                let r = run_bucketed_allreduce(
                    NODES,
                    buckets,
                    values,
                    Dataset::Rtm,
                    spec,
                    Duration::from_secs_f64(COMPUTE_PER_BUCKET_MS * 1e-3),
                    SLICES,
                    CostModel::default(),
                    NetModel::default(),
                    iters,
                );
                let seq = r.sequential.as_secs_f64() * 1e3;
                let eng = r.engine.as_secs_f64() * 1e3;
                cells += 1;
                if eng < seq {
                    wins += 1;
                }
                t.row(&[
                    spec.to_string(),
                    buckets.to_string(),
                    values.to_string(),
                    format!("{seq:.3}"),
                    format!("{eng:.3}"),
                    format!("{:.3}", seq - eng),
                    format!("{:.2}x", seq / eng),
                ]);
                if !first {
                    json.push_str(",\n");
                }
                first = false;
                let _ = write!(
                    json,
                    "    {{\"codec\": \"{spec}\", \"buckets\": {buckets}, \
                     \"values_per_bucket\": {values}, \"sequential_ms\": {seq:.4}, \
                     \"engine_ms\": {eng:.4}, \"hidden_ms\": {:.4}, \
                     \"session_executions\": {}}}",
                    seq - eng,
                    r.session_stats.executions,
                );
            }
        }
    }
    let _ = write!(
        json,
        "\n  ],\n  \"engine_wins\": {wins}, \"cells\": {cells}\n}}\n"
    );
    if check {
        // Rows are named by codec, buckets, values_per_bucket.
        if !reproduces("BENCH_concurrent.json", CHECKED_IN, &json, 3, true) {
            std::process::exit(1);
        }
        return;
    }
    std::fs::write("BENCH_concurrent.json", &json).expect("write BENCH_concurrent.json");
    println!("\nengine won {wins}/{cells} cells");
    println!("wrote BENCH_concurrent.json");
    assert!(
        wins * 2 > cells,
        "the engine must win a majority of cells ({wins}/{cells})"
    );
}
