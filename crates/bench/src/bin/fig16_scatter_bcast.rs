//! **Figure 16**: generality — C-Scatter and C-Bcast speedups over the
//! original MPI_Scatter / MPI_Bcast, with the SZx CPR-P2P baselines,
//! across message sizes on 16 nodes.
//!
//! ```bash
//! cargo run --release -p ccoll-bench --bin fig16_scatter_bcast
//! ```

use c_coll::collectives::cpr_p2p::{cpr_binomial_bcast_into, cpr_binomial_scatter_into, CprCodec};
use c_coll::partition::chunk_lengths;
use c_coll::{CCollSession, CodecSpec, CollWorkspace};
use ccoll_bench::calibrate::cost_model_from_env;
use ccoll_bench::table::Table;
use ccoll_bench::workload::{paper_sizes_mb, Scale};
use ccoll_comm::{Comm, SimConfig, SimWorld};
use ccoll_data::Dataset;
use std::time::Duration;

fn run_case(
    nodes: usize,
    cost: ccoll_comm::CostModel,
    net: ccoll_comm::NetModel,
    f: impl Fn(&mut ccoll_comm::sim::SimComm) + Send + Sync + 'static,
) -> Duration {
    let mut cfg = SimConfig::new(nodes);
    cfg.cost = cost;
    cfg.net = net;
    SimWorld::new(cfg).run(f).makespan
}

const SZX: CodecSpec = CodecSpec::Szx { error_bound: 1e-3 };

fn cpr() -> CprCodec {
    CprCodec::from_spec(SZX).expect("codec")
}

fn main() {
    let nodes = 16;
    let scale = Scale::from_env(64);
    let cost = cost_model_from_env();
    println!(
        "# Fig 16 — C-Scatter / C-Bcast vs baselines on {nodes} nodes; {}",
        scale.note()
    );
    println!("# paper shape: C-Scatter up to 1.8x, C-Bcast up to 2.7x; CPR-P2P below 1x\n");
    let t = Table::new(&[
        "size MB",
        "Scatter",
        "SZx-P2P scat",
        "C-Scatter",
        "C-Scat speedup",
        "Bcast",
        "SZx-P2P bcast",
        "C-Bcast",
        "C-Bcast speedup",
    ]);
    for mb in paper_sizes_mb() {
        let values = scale.values_for_mb(mb);
        // The root's payload; every other rank contributes nothing.
        let payload = move |rank: usize| {
            if rank == 0 {
                Dataset::Rtm.generate(values, 1)
            } else {
                Vec::new()
            }
        };
        // The original and C-Coll columns are the plans of a session
        // without and with the codec; the CPR-P2P columns are the
        // baselines no plan selects.
        let scatter = |spec: CodecSpec| {
            run_case(nodes, cost.clone(), scale.net_model(), move |c| {
                let mut plan = CCollSession::new(spec, nodes).plan_scatter(0, values);
                let _ = plan.execute(c, &payload(c.rank()));
            })
        };
        let bcast = |spec: CodecSpec| {
            run_case(nodes, cost.clone(), scale.net_model(), move |c| {
                let mut plan = CCollSession::new(spec, nodes).plan_bcast(0, values);
                let _ = plan.execute(c, &payload(c.rank()));
            })
        };
        let base_scatter = scatter(CodecSpec::None);
        let p2p_scatter = run_case(nodes, cost.clone(), scale.net_model(), move |c| {
            let mut out = vec![0.0f32; chunk_lengths(values, nodes)[c.rank()]];
            let mut ws = CollWorkspace::new();
            cpr_binomial_scatter_into(c, &cpr(), 0, &payload(c.rank()), values, &mut out, &mut ws);
        });
        let c_scatter = scatter(SZX);
        let base_bcast = bcast(CodecSpec::None);
        let p2p_bcast = run_case(nodes, cost.clone(), scale.net_model(), move |c| {
            let mut out = vec![0.0f32; values];
            let mut ws = CollWorkspace::new();
            cpr_binomial_bcast_into(c, &cpr(), 0, &payload(c.rank()), &mut out, &mut ws);
        });
        let c_bcast = bcast(SZX);
        let ms = |d: Duration| format!("{:.2}", d.as_secs_f64() * 1e3);
        let sp = |a: Duration, b: Duration| format!("{:.2}x", a.as_secs_f64() / b.as_secs_f64());
        t.row(&[
            mb.to_string(),
            ms(base_scatter),
            ms(p2p_scatter),
            ms(c_scatter),
            sp(base_scatter, c_scatter),
            ms(base_bcast),
            ms(p2p_bcast),
            ms(c_bcast),
            sp(base_bcast, c_bcast),
        ]);
    }
}
