//! **Ablation**: communication balance — what happens when one rank's
//! data is much less compressible than the others'. The compress-once
//! framework (ND/C-Allgather) fixes its schedule from the exchanged
//! sizes; CPR-P2P re-compresses en route, so every round is gated by the
//! least-compressible block (the paper's unbalanced-communication issue,
//! §III-A1).
//!
//! ```bash
//! cargo run --release -p ccoll-bench --bin ablation_balance
//! ```

use c_coll::collectives::cpr_p2p::{cpr_ring_allgatherv_into, CprCodec};
use c_coll::{CCollSession, CodecSpec, CollWorkspace};
use ccoll_bench::calibrate::cost_model_from_env;
use ccoll_bench::table::Table;
use ccoll_bench::workload::Scale;
use ccoll_comm::{Comm, SimConfig, SimWorld};
use ccoll_data::Dataset;

const SZX: CodecSpec = CodecSpec::Szx { error_bound: 1e-3 };

/// Rank 0 gets rough (CESM) data, everyone else smooth (RTM) data.
fn skewed_data(rank: usize, values: usize) -> Vec<f32> {
    if rank == 0 {
        Dataset::Cesm.generate(values, 1)
    } else {
        Dataset::Rtm.generate(values, rank as u64)
    }
}

fn main() {
    let nodes = 16;
    let scale = Scale::from_env(64);
    let values = scale.values_for_mb(278);
    let cost = cost_model_from_env();
    println!("# Ablation — skewed compressibility (rank 0 rough, others smooth)\n");
    let t = Table::new(&[
        "workload",
        "CPR-P2P allgather ms",
        "C-Allgather ms",
        "advantage",
    ]);
    for (label, skewed) in [("uniform smooth", false), ("one rough rank", true)] {
        let mut cfg = SimConfig::new(nodes);
        cfg.cost = cost.clone();
        cfg.net = scale.net_model();
        let p2p = SimWorld::new(cfg)
            .run(move |comm| {
                let data = if skewed {
                    skewed_data(comm.rank(), values)
                } else {
                    Dataset::Rtm.generate(values, comm.rank() as u64)
                };
                let counts = vec![values; nodes];
                let mut out = vec![0.0f32; values * nodes];
                let mut ws = CollWorkspace::new();
                let cpr = CprCodec::from_spec(SZX).expect("codec");
                cpr_ring_allgatherv_into(comm, &cpr, &data, &counts, &mut out, &mut ws);
            })
            .makespan;
        let mut cfg = SimConfig::new(nodes);
        cfg.cost = cost.clone();
        cfg.net = scale.net_model();
        let cg = SimWorld::new(cfg)
            .run(move |comm| {
                let data = if skewed {
                    skewed_data(comm.rank(), values)
                } else {
                    Dataset::Rtm.generate(values, comm.rank() as u64)
                };
                let mut plan = CCollSession::new(SZX, nodes).plan_allgather(values);
                let _ = plan.execute(comm, &data);
            })
            .makespan;
        t.row(&[
            label.to_string(),
            format!("{:.2}", p2p.as_secs_f64() * 1e3),
            format!("{:.2}", cg.as_secs_f64() * 1e3),
            format!("{:.2}x", p2p.as_secs_f64() / cg.as_secs_f64()),
        ]);
    }
}
