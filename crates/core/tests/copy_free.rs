//! Charges the copy-free reduction path must not carry.
//!
//! A C-Allreduce accumulates in the caller's output and is born from
//! its first fold (DESIGN.md, "orderings that are contract", rule 5), a
//! compress-once consumer decodes straight into place, and a block that
//! is already in place is not charged for "parity". So the `Memcpy`
//! bucket of a collective holds exactly the `unpack`s that rule 2 keeps
//! (raw payload landings, and the decompress + copy of the CPR-P2P
//! placement the baselines model) — never a whole-vector copy in or
//! out — and is empty where there are none.

use std::time::Duration;

use c_coll::frameworks::computation::DEFAULT_PIPE_VALUES;
use c_coll::partition::chunk_range;
use c_coll::{Algorithm, CCollSession, CodecSpec, PlanOptions, ReduceOp};
use ccoll_comm::{
    Category, Comm, CostModel, HierNet, Kernel, NetModel, SimConfig, SimWorld, Topology,
};

/// Deliberately divisible by none of the world sizes below.
const LEN: usize = 40_003;
const SZX: CodecSpec = CodecSpec::Szx { error_bound: 1e-3 };

fn rank_data(rank: usize) -> Vec<f32> {
    (0..LEN)
        .map(|i| ((i * 7 + rank * 131) as f32 * 1e-3).sin() * 2.0)
        .collect()
}

/// One allreduce of `LEN` values on `n` ranks: every rank's `Memcpy`
/// bucket must equal the sum of `kernel_cost(Memcpy, ·)` over the
/// payloads (in values) `unpacks(n, rank, hier_lanes)` lists for it.
fn assert_memcpy_is(
    n: usize,
    spec: CodecSpec,
    algorithm: Algorithm,
    topo: Option<Topology>,
    unpacks: fn(usize, usize, Option<usize>) -> Vec<usize>,
) {
    let out = SimWorld::new(SimConfig::new(n)).run(move |c| {
        let mut session = CCollSession::new(spec, n);
        if let Some(topo) = topo.clone() {
            session = session.with_topology(topo, HierNet::cluster_default());
        }
        let opts = PlanOptions::new().algorithm(algorithm);
        let mut plan = session.plan_allreduce_with(LEN, ReduceOp::Sum, opts);
        let mut result = vec![0.0f32; LEN];
        plan.execute_into(c, &rank_data(c.rank()), &mut result);
        unpacks(n, c.rank(), plan.hier_lanes())
            .into_iter()
            .map(|values| c.kernel_cost(Kernel::Memcpy, values * 4))
            .sum::<Duration>()
    });
    for (rank, expect) in out.results.iter().enumerate() {
        let got = out.breakdowns[rank].get(Category::Memcpy);
        assert_eq!(
            got, *expect,
            "{spec} {algorithm:?} on {n} ranks: rank {rank}'s memcpy bucket"
        );
    }
}

fn none(_n: usize, _me: usize, _lanes: Option<usize>) -> Vec<usize> {
    Vec::new()
}

fn whole_vector(_n: usize, _me: usize, _lanes: Option<usize>) -> Vec<usize> {
    vec![LEN]
}

/// The raw ring allgather lands the `n − 1` chunks that are not mine,
/// each in the pieces it is relayed in: on the default (link-bound) flat
/// net, the relay taper's past one pipe, else the whole chunk.
fn raw_ring(n: usize, me: usize, _lanes: Option<usize>) -> Vec<usize> {
    let taper = CostModel::default().relay_taper(&NetModel::default(), n);
    let taper = taper.expect("the default net is slower than a copy");
    let pieces = |len: usize| match len {
        ..=DEFAULT_PIPE_VALUES => vec![len],
        _ => (0..taper.pieces(len))
            .map(|j| taper.piece(j, len).len())
            .collect(),
    };
    let others = (0..n).filter(|&r| r != me);
    others
        .flat_map(|r| pieces(chunk_range(LEN, n, r).len()))
        .collect()
}

/// 4 nodes × 4 ranks: every rank lands the other lanes from its row's
/// raw ring allgather; the group legs and a lane owner's inter-node
/// Rabenseifner charge no memcpy.
fn hier_4x4(_n: usize, me: usize, lanes: Option<usize>) -> Vec<usize> {
    let lanes = lanes.expect("hierarchical plan");
    let local = me % 4;
    let lane = (0..lanes)
        .find(|&l| chunk_range(4, lanes, l).contains(&local))
        .expect("the groups tile the node");
    let others = (0..lanes).filter(|&l| l != lane);
    others.map(|l| chunk_range(LEN, lanes, l).len()).collect()
}

#[test]
fn a_c_allreduce_charges_no_memcpy() {
    for n in [2, 3, 8] {
        assert_memcpy_is(n, SZX, Algorithm::Ring, None, none);
    }
}

/// Recursive doubling and Rabenseifner on an error-bounded session run
/// the computation framework, and their legs that move finalized data
/// (Rabenseifner's doubling rounds, either unfold) the pooled link:
/// every round is a pooled PIPE-SZx exchange folded in place or a pooled
/// payload decoded straight into place, so neither charges a copy nor
/// the naive integration's buffer management (`BufferMgmt`, the
/// `Others` bucket) — Rabenseifner on a flat network (relaying each
/// range's blob) and on a 4×4 cluster (re-encoding each round), folds
/// and unfolds included.
#[test]
fn piped_recursive_doubling_charges_no_memcpy_and_no_buffer_management() {
    let cases = [
        (Algorithm::RecursiveDoubling, 2, None),
        (Algorithm::RecursiveDoubling, 8, None),
        (Algorithm::Rabenseifner, 3, None),
        (Algorithm::Rabenseifner, 6, None),
        (Algorithm::Rabenseifner, 8, None),
        (Algorithm::Rabenseifner, 16, Some(Topology::uniform(4, 4))),
    ];
    for (algorithm, n, topo) in cases {
        let out = SimWorld::new(SimConfig::new(n)).run(move |c| {
            let mut session = CCollSession::new(SZX, n);
            if let Some(topo) = topo.clone() {
                session = session.with_topology(topo, HierNet::cluster_default());
            }
            let opts = PlanOptions::new().algorithm(algorithm);
            let mut plan = session.plan_allreduce_with(LEN, ReduceOp::Sum, opts);
            let mut result = vec![0.0f32; LEN];
            plan.execute_into(c, &rank_data(c.rank()), &mut result);
        });
        for (rank, breakdown) in out.breakdowns.iter().enumerate() {
            for bucket in [Category::Memcpy, Category::Others] {
                let got = breakdown.get(bucket);
                let what = format!("{algorithm:?} on {n} ranks: rank {rank}'s {bucket:?}");
                assert_eq!(got, Duration::ZERO, "{what}");
            }
        }
    }
}

#[test]
fn what_memcpy_is_left_is_exactly_the_documented_unpacks() {
    for n in [2, 3, 8] {
        assert_memcpy_is(n, CodecSpec::None, Algorithm::Ring, None, raw_ring);
    }
    let topo = Some(Topology::uniform(4, 4));
    assert_memcpy_is(16, SZX, Algorithm::Hierarchical, topo, hier_4x4);
}

#[test]
fn one_rank_pays_exactly_one_payload_copy() {
    for algorithm in [
        Algorithm::Ring,
        Algorithm::RecursiveDoubling,
        Algorithm::Rabenseifner,
    ] {
        assert_memcpy_is(1, SZX, algorithm, None, whole_vector);
        assert_memcpy_is(1, CodecSpec::None, algorithm, None, whole_vector);
    }
}

/// The root of a compressed scatter keeps its own chunk lossless: it
/// compresses every chunk once and decodes nothing.
#[test]
fn compressed_scatter_root_decodes_nothing() {
    let n = 5;
    let root = 2;
    let out = SimWorld::new(SimConfig::new(n)).run(move |c| {
        let me = c.rank();
        let mut plan = CCollSession::new(SZX, n).plan_scatter(root, LEN);
        let data = if me == root { rank_data(7) } else { Vec::new() };
        let mut mine = vec![0.0f32; plan.output_len(me)];
        plan.execute_into(c, &data, &mut mine);
        let bytes = |r: usize| chunk_range(LEN, n, r).len() * 4;
        if me == root {
            assert_eq!(mine, data[chunk_range(LEN, n, me)], "root chunk is exact");
            (0..n)
                .map(|r| c.kernel_cost(Kernel::SzxCompress, bytes(r)))
                .sum::<Duration>()
        } else {
            c.kernel_cost(Kernel::SzxDecompress, bytes(me))
        }
    });
    for (rank, expect) in out.results.iter().enumerate() {
        let got = out.breakdowns[rank].get(Category::ComDecom);
        assert_eq!(got, *expect, "rank {rank}'s codec time");
    }
}
