//! **Scale sweep** (beyond the paper): flat vs hierarchical allreduce
//! across worlds of 128–1024 ranks on a modeled two-level cluster,
//! per codec — emitting `BENCH_scale.json`.
//!
//! The paper's experiments stop at 128 flat ranks; this harness rides
//! the simulator's virtual-time fast-forward to worlds an order of
//! magnitude past that, with every link priced by the two-level
//! [`HierNet`] (fast intra-node, slow contended inter-node). It shows
//! where the flat schedules' crossover moves as the inter-node fabric
//! saturates, that the two-level schedule overtakes every flat one on
//! large worlds, and that the continuously calibrated `Auto` mode lands
//! on the measured argmin at both ends of the sweep.
//!
//! ```bash
//! cargo run --release -p ccoll-bench --bin fig_scale
//! ```
//!
//! `CCOLL_QUICK=1` shrinks the sweep to CI scale.

use std::fmt::Write as _;

use c_coll::{Algorithm, ReduceOp};
use ccoll_bench::calibrate::cost_model_from_env;
use ccoll_bench::runner::run_allreduce_cluster;
use ccoll_bench::specs::szx_default;
use ccoll_bench::table::Table;
use ccoll_comm::{HierNet, Topology};
use ccoll_data::Dataset;

const FLAT: [Algorithm; 3] = [
    Algorithm::Ring,
    Algorithm::RecursiveDoubling,
    Algorithm::Rabenseifner,
];

/// Executions per `Auto` cell: past the calibration period, so the
/// reported pick reflects the online α–β re-rank, and enough iterations
/// that the per-iteration makespan is a steady-state figure.
const AUTO_ITERS: usize = 10;

fn main() {
    let quick = std::env::var("CCOLL_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false);
    let cost = cost_model_from_env();
    let hier = HierNet::cluster_default();
    // (nodes, ranks-per-node): worlds of 128–1024 ranks, bracketed by a
    // shallow 8-node cluster and a deep 128-node one.
    let cells: Vec<(usize, usize)> = if quick {
        vec![(4, 4), (8, 4)]
    } else {
        vec![(8, 16), (16, 16), (32, 16), (64, 16), (128, 8)]
    };
    // 16 Ki values per rank: large enough that the inter-node β term is
    // real, small enough that the flat ring's 2(n−1) inter-node α terms
    // dominate at 128+ ranks — the regime the two-level schedule exists
    // for (and the regime large-world collectives actually live in:
    // per-rank shards shrink as worlds grow).
    let values = if quick { 4_096 } else { 16_384 };
    let specs = if quick {
        vec![szx_default()]
    } else {
        vec![c_coll::CodecSpec::None, szx_default()]
    };

    println!("# Scale sweep — flat vs hierarchical allreduce on a 2-level cluster");
    println!("# calibrated auto must land on the measured argmin at both sweep ends\n");
    let t = Table::new(&[
        "codec",
        "nodes",
        "ranks",
        "ring (ms)",
        "rec-dbl (ms)",
        "rabenseifner (ms)",
        "hier (ms)",
        "fastest",
        "auto picks",
        "control (ms)",
    ]);

    let mut json = String::from("{\n  \"bench\": \"scale\",\n  \"entries\": [\n");
    let mut first = true;

    for spec in &specs {
        for &(nodes, per_node) in &cells {
            let topo = Topology::uniform(nodes, per_node);
            let mut times = Vec::new();
            for algorithm in FLAT.into_iter().chain([Algorithm::Hierarchical]) {
                let (res, _) = run_allreduce_cluster(
                    topo.clone(),
                    hier,
                    values,
                    Dataset::Rtm,
                    *spec,
                    algorithm,
                    ReduceOp::Sum,
                    cost.clone(),
                    1,
                );
                times.push(res.makespan.as_secs_f64() * 1e3);
            }
            let (auto_res, picked) = run_allreduce_cluster(
                topo,
                hier,
                values,
                Dataset::Rtm,
                *spec,
                Algorithm::Auto,
                ReduceOp::Sum,
                cost.clone(),
                AUTO_ITERS,
            );
            let candidates: Vec<Algorithm> =
                FLAT.into_iter().chain([Algorithm::Hierarchical]).collect();
            let fastest = candidates[times
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite times"))
                .expect("non-empty")
                .0];
            let best_flat = times[..3].iter().cloned().fold(f64::INFINITY, f64::min);
            let best = best_flat.min(times[3]);
            // What `Auto` pays for deciding: its per-iteration makespan
            // over the pinned makespan of the schedule it settled on.
            let auto_ms = auto_res.makespan.as_secs_f64() * 1e3;
            let picked_at = candidates
                .iter()
                .position(|&a| a == picked)
                .expect("Auto settles on a candidate");
            let control_plane_ms = auto_ms - times[picked_at];
            assert!(
                auto_ms <= 1.05 * best,
                "{spec} {nodes}x{per_node}: auto {auto_ms:.4} ms > 1.05 x best {best:.4} ms"
            );
            t.row(&[
                spec.to_string(),
                nodes.to_string(),
                (nodes * per_node).to_string(),
                format!("{:.3}", times[0]),
                format!("{:.3}", times[1]),
                format!("{:.3}", times[2]),
                format!("{:.3}", times[3]),
                fastest.label().to_string(),
                picked.label().to_string(),
                format!("{control_plane_ms:.4}"),
            ]);
            if !first {
                json.push_str(",\n");
            }
            first = false;
            let _ = write!(
                json,
                "    {{\"spec\": \"{spec}\", \"nodes\": {nodes}, \"ranks\": {}, \
                 \"values\": {values}, \
                 \"ring_ms\": {:.4}, \"recursive_doubling_ms\": {:.4}, \
                 \"rabenseifner_ms\": {:.4}, \"hierarchical_ms\": {:.4}, \
                 \"best_flat_ms\": {best_flat:.4}, \"auto_ms\": {auto_ms:.4}, \
                 \"control_plane_ms\": {control_plane_ms:.4}, \
                 \"fastest\": \"{}\", \"auto\": \"{}\"}}",
                nodes * per_node,
                times[0],
                times[1],
                times[2],
                times[3],
                fastest.label(),
                picked.label()
            );
        }
    }
    json.push_str("\n  ]\n}\n");
    std::fs::write("BENCH_scale.json", &json).expect("write BENCH_scale.json");
    println!("\nwrote BENCH_scale.json");
}
