//! **Nonblocking-overlap study** (PR 5, beyond the paper): blocking
//! allreduce + compute vs the `start`/`progress`/`complete` schedule
//! that interleaves the same compute with the collective — sweeping
//! compute grain × payload size × codec into `BENCH_overlap.json`.
//!
//! Each cell models one step of an iterative application (training
//! loop, solver sweep) that owes one allreduce and `compute` worth of
//! local work per step. The blocking schedule pays
//! `T_coll + T_compute`; the nonblocking schedule hides the
//! collective's wait time inside the compute, so its makespan
//! approaches `max(T_busy, T_compute) + residual`. The `hidden_ms`
//! column is the communication time the overlap recovered.
//!
//! ```bash
//! cargo run --release -p ccoll-bench --bin fig_overlap
//! cargo run --release -p ccoll-bench --bin fig_overlap -- --check
//! ```
//!
//! `CCOLL_QUICK=1` shrinks the sweep to CI scale. `--check` recomputes
//! the full sweep, writes nothing, and exits non-zero when any cell
//! differs from the `BENCH_overlap.json` checked in at the repository
//! root.

use std::fmt::Write as _;
use std::time::Duration;

use c_coll::CodecSpec;
use ccoll_bench::check::reproduces;
use ccoll_bench::runner::run_allreduce_overlap;
use ccoll_bench::table::Table;
use ccoll_comm::{CostModel, NetModel};
use ccoll_data::Dataset;

const NODES: usize = 8;
const SLICES: usize = 32;

/// The results file as checked in (one entry per line).
const CHECKED_IN: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../BENCH_overlap.json"
));

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let quick = !check
        && std::env::var("CCOLL_QUICK")
            .map(|v| v == "1")
            .unwrap_or(false);
    let (sizes, compute_ms, iters): (Vec<usize>, Vec<f64>, usize) = if quick {
        (vec![40_000, 160_000], vec![0.5, 2.0], 1)
    } else {
        (vec![40_000, 200_000, 800_000], vec![0.2, 1.0, 5.0], 2)
    };
    let specs = [
        CodecSpec::Szx { error_bound: 1e-3 },
        CodecSpec::ZfpAbs { error_bound: 1e-3 },
        CodecSpec::Lossless,
    ];

    println!(
        "# Nonblocking overlap — blocking (execute + compute) vs \
         start/progress/complete, {NODES} nodes, {SLICES} compute slices"
    );
    println!("# nonblocking must undercut blocking wherever there is wait time to hide\n");
    let t = Table::new(&[
        "codec",
        "values",
        "compute (ms)",
        "blocking (ms)",
        "nonblocking (ms)",
        "hidden (ms)",
        "speedup",
    ]);

    let mut json = String::from("{\n  \"bench\": \"overlap\",\n");
    let _ = write!(
        json,
        "  \"nodes\": {NODES}, \"slices\": {SLICES},\n  \"entries\": [\n"
    );
    let mut first = true;
    let mut wins = 0usize;
    let mut cells = 0usize;
    for spec in specs {
        for &values in &sizes {
            for &cms in &compute_ms {
                let r = run_allreduce_overlap(
                    NODES,
                    values,
                    Dataset::Rtm,
                    spec,
                    Duration::from_secs_f64(cms * 1e-3),
                    SLICES,
                    CostModel::default(),
                    NetModel::default(),
                    iters,
                );
                let b = r.blocking.as_secs_f64() * 1e3;
                let nb = r.nonblocking.as_secs_f64() * 1e3;
                cells += 1;
                if nb < b {
                    wins += 1;
                }
                t.row(&[
                    spec.to_string(),
                    values.to_string(),
                    format!("{cms:.1}"),
                    format!("{b:.3}"),
                    format!("{nb:.3}"),
                    format!("{:.3}", b - nb),
                    format!("{:.2}x", b / nb),
                ]);
                if !first {
                    json.push_str(",\n");
                }
                first = false;
                let ratio = r
                    .plan_stats
                    .observed_ratio
                    .map(|x| format!("{x:.2}"))
                    .unwrap_or_else(|| "null".to_string());
                let _ = write!(
                    json,
                    "    {{\"codec\": \"{spec}\", \"values\": {values}, \
                     \"compute_ms\": {cms}, \"blocking_ms\": {b:.4}, \
                     \"nonblocking_ms\": {nb:.4}, \"hidden_ms\": {:.4}, \
                     \"plan_executions\": {}, \"plan_ewma_ms\": {:.4}, \
                     \"measured_ratio\": {ratio}}}",
                    b - nb,
                    r.plan_stats.executions,
                    r.plan_stats.ewma_makespan.as_secs_f64() * 1e3,
                );
            }
        }
    }
    let _ = write!(
        json,
        "\n  ],\n  \"overlap_wins\": {wins}, \"cells\": {cells}\n}}\n"
    );
    if check {
        // Rows are named by codec, values, compute_ms.
        if !reproduces("BENCH_overlap.json", CHECKED_IN, &json, 3, true) {
            std::process::exit(1);
        }
        return;
    }
    std::fs::write("BENCH_overlap.json", &json).expect("write BENCH_overlap.json");
    println!("\nnonblocking won {wins}/{cells} cells");
    println!("wrote BENCH_overlap.json");
    assert!(
        wins * 2 > cells,
        "overlap must win a majority of cells ({wins}/{cells})"
    );
}
