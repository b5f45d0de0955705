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
//! large worlds, how many lanes it runs there (and whether its node-local
//! group legs stream as sub-chunk chains), and that the continuously
//! calibrated `Auto` mode lands on the measured argmin at both ends of
//! the sweep.
//!
//! ```bash
//! cargo run --release -p ccoll-bench --bin fig_scale
//! cargo run --release -p ccoll-bench --bin fig_scale -- --check
//! ```
//!
//! `CCOLL_QUICK=1` shrinks the sweep to its three CI-scale rows.
//! `--check` recomputes those three rows, writes nothing, and exits
//! non-zero when any cell differs from the `BENCH_scale.json` checked in
//! at the repository root.
//!
//! Every run asserts that `hierarchical_ms` on a row the checked-in file
//! already has did not rise.

use std::fmt::Write as _;

use c_coll::{Algorithm, CCollSession, CodecSpec, PlanOptions, ReduceOp};
use ccoll_bench::calibrate::cost_model_from_env;
use ccoll_bench::check::{cell, checked_in_row, reproduces};
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

/// Executions per `Auto` and per pinned hierarchical cell: past the
/// calibration period, so the reported pick reflects the online α–β
/// re-rank, and enough iterations that the per-iteration makespan is a
/// steady-state figure.
const AUTO_ITERS: usize = 10;

/// The results file as checked in (one entry per line).
const CHECKED_IN: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../BENCH_scale.json"
));

/// Leading cells that name a row: spec, nodes, ranks, values.
const KEY_CELLS: usize = 4;

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let quick = check
        || std::env::var("CCOLL_QUICK")
            .map(|v| v == "1")
            .unwrap_or(false);
    let cost = cost_model_from_env();
    let hier = HierNet::cluster_default();
    // (codec, nodes, ranks-per-node, values). Three CI-scale rows (the
    // raw one runs four lock-step lanes), then worlds of 128–1024 ranks,
    // bracketed by a shallow 8-node cluster and a deep 128-node one, at
    // 16 Ki values per rank: large enough that the inter-node β term is
    // real, small enough that the flat ring's 2(n−1) inter-node α terms
    // dominate at 128+ ranks — the regime the two-level schedule exists
    // for (per-rank shards shrink as worlds grow). Two 64 Ki rows show
    // the lane count rising with the payload.
    let mut cells = vec![
        (szx_default(), 4, 4, 4_096),
        (szx_default(), 8, 4, 4_096),
        (CodecSpec::None, 4, 4, 16_384),
    ];
    if !quick {
        let worlds = [(8, 16), (16, 16), (32, 16), (64, 16), (128, 8)];
        for spec in [CodecSpec::None, szx_default()] {
            cells.extend(worlds.map(|(nodes, per)| (spec, nodes, per, 16_384)));
        }
        cells.extend([(16, 16), (64, 16)].map(|(nodes, per)| (szx_default(), nodes, per, 65_536)));
    }

    println!("# Scale sweep — flat vs hierarchical allreduce on a 2-level cluster");
    println!("# calibrated auto must land on the measured argmin at both sweep ends\n");
    let t = Table::new(&[
        "codec",
        "nodes",
        "ranks",
        "values",
        "ring (ms)",
        "rec-dbl (ms)",
        "rabenseifner (ms)",
        "hier (ms)",
        "hier lanes",
        "streamed",
        "fastest",
        "auto picks",
        "control (ms)",
    ]);

    let mut entries = Vec::new();
    for (spec, nodes, per_node, values) in cells {
        let topo = Topology::uniform(nodes, per_node);
        let ranks = nodes * per_node;
        // Plans are rank-free until started: ask one what it would run.
        let plan = CCollSession::new(spec, ranks)
            .with_cost_model(cost.clone())
            .with_topology(topo.clone(), hier)
            .plan_allreduce_with(
                values,
                ReduceOp::Sum,
                PlanOptions::new().algorithm(Algorithm::Hierarchical),
            );
        let hier_lanes = plan
            .hier_lanes()
            .expect("a hierarchical plan has a lane count");
        let hier_streamed = plan
            .hier_streamed()
            .expect("a hierarchical plan has a group-leg shape");
        let mut times = Vec::new();
        for algorithm in FLAT.into_iter().chain([Algorithm::Hierarchical]) {
            // The flat schedules repeat their first execution exactly.
            // The laned hierarchical one does not: its lanes start in
            // lock-step and drift apart once executions run back to
            // back, so it is timed over as many as `Auto` is — which is
            // also what makes the `Auto` column comparable to it.
            let iters = match algorithm {
                Algorithm::Hierarchical => AUTO_ITERS,
                _ => 1,
            };
            let (res, _) = run_allreduce_cluster(
                topo.clone(),
                hier,
                values,
                Dataset::Rtm,
                spec,
                algorithm,
                ReduceOp::Sum,
                cost.clone(),
                iters,
            );
            times.push(res.makespan.as_secs_f64() * 1e3);
        }
        let (auto_res, picked) = run_allreduce_cluster(
            topo,
            hier,
            values,
            Dataset::Rtm,
            spec,
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
            ranks.to_string(),
            values.to_string(),
            format!("{:.3}", times[0]),
            format!("{:.3}", times[1]),
            format!("{:.3}", times[2]),
            format!("{:.3}", times[3]),
            hier_lanes.to_string(),
            hier_streamed.to_string(),
            fastest.label().to_string(),
            picked.label().to_string(),
            format!("{control_plane_ms:.4}"),
        ]);
        let mut entry = format!(
            "{{\"spec\": \"{spec}\", \"nodes\": {nodes}, \"ranks\": {ranks}, \"values\": {values},"
        );
        let _ = write!(
            entry,
            " \"ring_ms\": {:.4}, \"recursive_doubling_ms\": {:.4}, \
             \"rabenseifner_ms\": {:.4}, \"hierarchical_ms\": {:.4}, \
             \"hier_lanes\": {hier_lanes}, \"hier_streamed\": {hier_streamed}, \
             \"best_flat_ms\": {best_flat:.4}, \"auto_ms\": {auto_ms:.4}, \
             \"control_plane_ms\": {control_plane_ms:.4}, \
             \"fastest\": \"{}\", \"auto\": \"{}\"}}",
            times[0],
            times[1],
            times[2],
            times[3],
            fastest.label(),
            picked.label()
        );
        if let Some(old) = checked_in_row(CHECKED_IN, &entry, KEY_CELLS) {
            let was = cell(old, "hierarchical_ms");
            assert!(
                times[3] < was + 5e-5,
                "{spec} {nodes}x{per_node} at {values}: hierarchical {:.4} ms rose from {was} ms",
                times[3]
            );
        }
        entries.push(entry);
    }
    if check {
        let rows = entries.join("\n");
        if !reproduces("BENCH_scale.json", CHECKED_IN, &rows, KEY_CELLS, false) {
            std::process::exit(1);
        }
        return;
    }
    let json = format!(
        "{{\n  \"bench\": \"scale\",\n  \"entries\": [\n    {}\n  ]\n}}\n",
        entries.join(",\n    ")
    );
    std::fs::write("BENCH_scale.json", json).expect("write BENCH_scale.json");
    println!("\nwrote BENCH_scale.json");
}
