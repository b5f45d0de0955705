//! One rank's side of a workload: the session, its plan(s) and the
//! output buffer, and the two ways the benchmark drives one operation —
//! through `execute_into` (every end-to-end number) and through the
//! nonblocking surface with a span around each call (the traced run).

use c_coll::engine::ProgressEngine;
use c_coll::{
    Algorithm, AllreducePlan, BcastPlan, CCollSession, PlanOptions, PlanStats, Poll, ReduceOp,
};
use ccoll_comm::{ClusterNet, Comm, HierNet, SimConfig, Topology};

use crate::spec::{Shape, Workload};
use crate::trace::{RankTrace, NO_PARENT};

/// Nonblocking polls the traced drive loop makes per operation before it
/// falls back to the blocking call. Bounded so the span buffers can be
/// sized up front (no span is ever dropped) and so an operation that is
/// waiting on its peer is not traced as thousands of empty polls.
pub const POLL_CAP: usize = 16;

/// Most spans one traced operation can record on one rank.
pub fn spans_per_op(w: &Workload) -> usize {
    match w.shape {
        // op, engine.submit × buckets, polls, engine.wait_all
        Shape::Buckets { buckets } => 2 + buckets + POLL_CAP,
        // op, plan.start, polls, handle.complete
        _ => 3 + POLL_CAP,
    }
}

enum Plans {
    Allreduce(AllreducePlan),
    Bcast(BcastPlan),
    Buckets(Vec<AllreducePlan>),
}

/// Each bucket plan with its equal slice of the payload and of the output.
fn buckets<'a>(
    plans: &'a mut [AllreducePlan],
    input: &'a [f32],
    out: &'a mut [f32],
) -> impl Iterator<Item = (&'a mut AllreducePlan, &'a [f32], &'a mut [f32])> {
    let bucket = input.len() / plans.len();
    plans
        .iter_mut()
        .zip(input.chunks(bucket))
        .zip(out.chunks_mut(bucket))
        .map(|((p, i), o)| (p, i, o))
}

/// A session with the workload's plan(s) built, ready to execute.
pub struct Rig {
    plans: Plans,
    out: Vec<f32>,
}

/// The cluster a workload's sessions and simulator are given, if any.
pub fn cluster(w: &Workload) -> Option<ClusterNet> {
    match w.shape {
        Shape::AutoHier { nodes, per_node } => Some(ClusterNet::new(
            Topology::uniform(nodes, per_node),
            HierNet::cluster_default(),
        )),
        _ => None,
    }
}

/// The simulator configuration for `world` ranks of `w`: default
/// `NetModel`/`CostModel`, plus the cluster where the workload has one.
pub fn sim_config(w: &Workload, world: usize) -> SimConfig {
    let cfg = SimConfig::new(world);
    match cluster(w) {
        Some(c) => cfg.with_cluster(c),
        None => cfg,
    }
}

impl Rig {
    /// Everything a rank does before its first operation:
    /// `CCollSession::new` (+ `with_topology`) and plan construction.
    /// `pin` replaces the workload's algorithm (the pinned candidates
    /// `Auto` is compared against).
    pub fn build(w: &Workload, world: usize, pin: Option<Algorithm>) -> Rig {
        let mut session = CCollSession::new(w.codec, world);
        if let Some(c) = cluster(w) {
            session = session.with_topology(c.topo, c.net);
        }
        let allreduce = |len: usize, algorithm: Algorithm| {
            session.plan_allreduce_with(
                len,
                ReduceOp::Sum,
                PlanOptions::new().algorithm(pin.unwrap_or(algorithm)),
            )
        };
        let plans = match w.shape {
            Shape::Allreduce(a) => Plans::Allreduce(allreduce(w.len, a)),
            Shape::AutoHier { .. } => Plans::Allreduce(allreduce(w.len, Algorithm::Auto)),
            Shape::Bcast => Plans::Bcast(session.plan_bcast(0, w.len)),
            Shape::Buckets { buckets } => Plans::Buckets(
                (0..buckets)
                    .map(|_| allreduce(w.len / buckets, Algorithm::Ring))
                    .collect(),
            ),
        };
        Rig {
            plans,
            out: vec![0.0; w.len],
        }
    }

    /// The result of the last operation.
    pub fn out(&self) -> &[f32] {
        &self.out
    }

    /// The schedule the (first) plan currently executes.
    pub fn algorithm(&self) -> Algorithm {
        match &self.plans {
            Plans::Allreduce(p) => p.algorithm(),
            Plans::Bcast(p) => p.algorithm(),
            Plans::Buckets(ps) => ps[0].algorithm(),
        }
    }

    /// The (first) plan's measured statistics.
    pub fn stats(&self) -> PlanStats {
        match &self.plans {
            Plans::Allreduce(p) => p.stats(),
            Plans::Bcast(p) => p.stats(),
            Plans::Buckets(ps) => ps[0].stats(),
        }
    }

    /// One operation through the blocking surface. For `Buckets` that is
    /// one step: every plan started back to back, one engine, `wait_all`.
    pub fn exec<C: Comm>(&mut self, comm: &mut C, input: &[f32]) {
        match &mut self.plans {
            Plans::Allreduce(p) => p.execute_into(comm, input, &mut self.out),
            // Only the root's data is read; everyone passes their own
            // buffer, which keeps the call the same on every rank.
            Plans::Bcast(p) => p.execute_into(comm, input, &mut self.out),
            Plans::Buckets(ps) => {
                let mut engine = ProgressEngine::new();
                for (p, i, o) in buckets(ps, input, &mut self.out) {
                    engine.submit(p.start(comm, i, o));
                }
                engine.wait_all(comm);
            }
        }
    }

    /// `Buckets` only: the same plans run one after another through
    /// `execute_into`, the baseline `core.engine.over_sequential` divides by.
    pub fn exec_sequential<C: Comm>(&mut self, comm: &mut C, input: &[f32]) {
        let Plans::Buckets(ps) = &mut self.plans else {
            return self.exec(comm, input);
        };
        for (p, i, o) in buckets(ps, input, &mut self.out) {
            p.execute_into(comm, i, o);
        }
    }

    /// One operation through the nonblocking surface, a span around every
    /// call: `op` → `plan.start`, each `handle.progress`, `handle.complete`
    /// (or `engine.submit` / `engine.progress` / `engine.wait_all`).
    pub fn exec_traced<C: Comm>(
        &mut self,
        comm: &mut C,
        input: &[f32],
        tr: &mut RankTrace,
        op: u32,
    ) {
        let bytes = (input.len() * 4) as u64;
        let root = tr.begin("op", op, NO_PARENT, bytes);
        let parent = root.as_parent();
        // The two handle types share method names but no trait.
        macro_rules! drive {
            ($plan:expr) => {{
                let s = tr.begin("plan.start", op, parent, bytes);
                let mut handle = $plan.start(comm, input, &mut self.out);
                tr.end(s);
                for _ in 0..POLL_CAP {
                    let s = tr.begin("handle.progress", op, parent, 0);
                    let poll = handle.progress(comm);
                    tr.end(s);
                    if poll == Poll::Ready {
                        break;
                    }
                }
                let s = tr.begin("handle.complete", op, parent, 0);
                handle.complete(comm);
                tr.end(s);
            }};
        }
        match &mut self.plans {
            Plans::Allreduce(p) => drive!(p),
            Plans::Bcast(p) => drive!(p),
            Plans::Buckets(ps) => {
                let mut engine = ProgressEngine::new();
                for (p, i, o) in buckets(ps, input, &mut self.out) {
                    let s = tr.begin("engine.submit", op, parent, (i.len() * 4) as u64);
                    engine.submit(p.start(comm, i, o));
                    tr.end(s);
                }
                for _ in 0..POLL_CAP {
                    if engine.live_ops() == 0 {
                        break;
                    }
                    let s = tr.begin("engine.progress", op, parent, 0);
                    engine.progress(comm);
                    tr.end(s);
                }
                let s = tr.begin("engine.wait_all", op, parent, 0);
                engine.wait_all(comm);
                tr.end(s);
            }
        }
        tr.end(root);
    }
}
