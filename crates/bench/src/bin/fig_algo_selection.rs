//! **Algorithm-selection sweep** (beyond the paper): makespan of every
//! allreduce schedule across payload size × world size, plus what
//! `Algorithm::Auto` picks — emitting `BENCH_algo.json`.
//!
//! The paper fixes one ring schedule per collective; its own Table I
//! throughputs imply the optimum flips with message size and codec
//! speed. This harness demonstrates the crossover and that the
//! cost-model-driven `Auto` mode rides it: recursive doubling at small
//! payloads, ring/Rabenseifner at large ones.
//!
//! ```bash
//! cargo run --release -p ccoll-bench --bin fig_algo_selection
//! cargo run --release -p ccoll-bench --bin fig_algo_selection -- --check
//! ```
//!
//! `CCOLL_QUICK=1` shrinks the sweep to CI scale; `CCOLL_CALIBRATE=1`
//! selects and simulates with throughputs measured from this machine's
//! kernels instead of the Table-I defaults. `--check` recomputes the
//! full sweep, writes nothing, and exits non-zero when any cell differs
//! from the `BENCH_algo.json` checked in at the repository root.

use std::fmt::Write as _;

use c_coll::{Algorithm, ReduceOp};
use ccoll_bench::calibrate::cost_model_from_env;
use ccoll_bench::check::reproduces;
use ccoll_bench::runner::run_allreduce_algorithm;
use ccoll_bench::specs::szx_default;
use ccoll_bench::table::Table;
use ccoll_comm::NetModel;
use ccoll_data::Dataset;

const CANDIDATES: [Algorithm; 3] = [
    Algorithm::Ring,
    Algorithm::RecursiveDoubling,
    Algorithm::Rabenseifner,
];

/// The results file as checked in (one entry per line).
const CHECKED_IN: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../BENCH_algo.json"
));

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let quick = !check
        && std::env::var("CCOLL_QUICK")
            .map(|v| v == "1")
            .unwrap_or(false);
    let cost = cost_model_from_env();
    let net = NetModel::default();
    let spec = szx_default();
    let (worlds, sizes): (Vec<usize>, Vec<usize>) = if quick {
        (vec![8], vec![256, 65_536])
    } else {
        (
            vec![4, 8, 16, 32],
            vec![64, 512, 4_096, 32_768, 262_144, 2_097_152],
        )
    };

    println!("# Algorithm selection sweep — {spec} on RTM data");
    println!("# auto must agree with the measured argmin at the extremes\n");
    let t = Table::new(&[
        "nodes",
        "values",
        "ring (ms)",
        "rec-dbl (ms)",
        "rabenseifner (ms)",
        "fastest",
        "auto picks",
    ]);

    let mut json = String::from("{\n  \"bench\": \"algo_selection\",\n");
    let _ = write!(json, "  \"spec\": \"{spec}\",\n  \"entries\": [\n");
    let mut first = true;

    for &nodes in &worlds {
        for &values in &sizes {
            let mut times = Vec::new();
            for algorithm in CANDIDATES {
                let (res, _) = run_allreduce_algorithm(
                    nodes,
                    values,
                    Dataset::Rtm,
                    spec,
                    algorithm,
                    ReduceOp::Sum,
                    cost.clone(),
                    net,
                    1,
                );
                times.push(res.makespan.as_secs_f64() * 1e3);
            }
            let (_, picked) = run_allreduce_algorithm(
                nodes,
                values,
                Dataset::Rtm,
                spec,
                Algorithm::Auto,
                ReduceOp::Sum,
                cost.clone(),
                net,
                1,
            );
            let fastest = CANDIDATES[times
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite times"))
                .expect("non-empty")
                .0];
            t.row(&[
                nodes.to_string(),
                values.to_string(),
                format!("{:.3}", times[0]),
                format!("{:.3}", times[1]),
                format!("{:.3}", times[2]),
                fastest.label().to_string(),
                picked.label().to_string(),
            ]);
            if !first {
                json.push_str(",\n");
            }
            first = false;
            let _ = write!(
                json,
                "    {{\"nodes\": {nodes}, \"values\": {values}, \
                 \"ring_ms\": {:.4}, \"recursive_doubling_ms\": {:.4}, \
                 \"rabenseifner_ms\": {:.4}, \"fastest\": \"{}\", \"auto\": \"{}\"}}",
                times[0],
                times[1],
                times[2],
                fastest.label(),
                picked.label()
            );
        }
    }
    json.push_str("\n  ]\n}\n");
    if check {
        // Rows are named by nodes, values.
        if !reproduces("BENCH_algo.json", CHECKED_IN, &json, 2, true) {
            std::process::exit(1);
        }
        return;
    }
    std::fs::write("BENCH_algo.json", &json).expect("write BENCH_algo.json");
    println!("\nwrote BENCH_algo.json");
}
