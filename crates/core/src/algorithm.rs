//! The algorithm layer: which *schedule* a collective plan runs, and the
//! cost-model-driven [`Algorithm::Auto`] selection.
//!
//! The paper builds every collective on a single schedule per primitive
//! (ring for allreduce/allgather, binomial tree for bcast/scatter), but
//! its own Table I cost discussion implies the optimal schedule flips
//! with message size, world size and codec throughput: a ring pays
//! `n−1` latency terms where a butterfly pays `⌈log₂n⌉`, and a pipeline
//! only helps when there is enough payload to fill it. This module
//! exposes that choice:
//!
//! * [`Algorithm`] names every schedule implemented in
//!   [`collectives`](crate::collectives) and
//!   [`frameworks`](crate::frameworks);
//! * [`PlanOptions`] carries the choice into the `plan_*_with`
//!   constructors on [`CCollSession`](crate::CCollSession);
//! * [`Algorithm::Auto`] (the default) ranks the candidate schedules
//!   with [`CostModel::estimate`] — the closed-form α–β–γ critical
//!   paths extended with the session codec's throughput and nominal
//!   ratio — and picks the minimum.
//!
//! The crossover the selection rides, qualitatively:
//!
//! ```text
//! payload →  small                    medium                  large
//! allreduce  RecursiveDoubling        Rabenseifner            Ring (pipelined)
//! allgather  Bruck                    Bruck/Ring              Ring
//! reduce     Binomial tree            …                       RS + gather
//! ```

use ccoll_comm::{ClusterNet, CostModel, HierNet, NetModel, SchedParams, Schedule};

use crate::codec::CodecSpec;
use crate::plan::Row;

/// Which schedule a collective plan executes. Constructed through
/// [`PlanOptions`]; resolved (for [`Algorithm::Auto`]) at plan-creation
/// time, so `execute_into` dispatch is branch-cheap and the workspace is
/// warmed for the schedule that will actually run.
///
/// Not every algorithm applies to every collective — each `plan_*_with`
/// constructor documents its supported set and panics on an unsupported
/// choice (a plan is a static configuration error, not a runtime
/// condition). `Auto` is accepted everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Algorithm {
    /// Pick the cheapest supported schedule via [`CostModel::estimate`]
    /// from (payload size, world size, codec throughputs). The default.
    #[default]
    Auto,
    /// Ring schedule: bandwidth-optimal, `n−1` rounds. For allreduce
    /// this is the paper's pipelined C-Allreduce (reduce-scatter +
    /// allgather over the ring).
    Ring,
    /// Recursive-doubling butterfly (allreduce): `⌈log₂n⌉` rounds of
    /// full-payload exchange — latency-optimal for small payloads.
    RecursiveDoubling,
    /// Rabenseifner (allreduce: recursive-halving reduce-scatter +
    /// recursive-doubling allgather). For rooted reduce this names the
    /// bandwidth-optimal reduce-scatter + gather composition.
    Rabenseifner,
    /// Binomial tree (bcast, scatter, gather, rooted reduce).
    Binomial,
    /// Bruck doubling schedule (allgather): `⌈log₂n⌉` steps plus one
    /// local rotation — latency-optimal for small blocks.
    Bruck,
    /// Pairwise exchange (all-to-all).
    Pairwise,
    /// Two-level topology-aware schedule (allreduce, allgather, bcast):
    /// raw node-local legs over cheap intra-node links around an
    /// inter-node leg carrying the codec — run by one leader per node,
    /// or for the allreduce by as many lane owners per node as the cost
    /// model finds worth their NIC messages
    /// ([`crate::AllreducePlan::hier_lanes`]). Requires a session
    /// topology ([`crate::CCollSession::with_topology`]).
    Hierarchical,
}

impl Algorithm {
    /// Short lowercase label for benchmark tables and JSON output.
    pub fn label(&self) -> &'static str {
        match self {
            Algorithm::Auto => "auto",
            Algorithm::Ring => "ring",
            Algorithm::RecursiveDoubling => "recursive-doubling",
            Algorithm::Rabenseifner => "rabenseifner",
            Algorithm::Binomial => "binomial",
            Algorithm::Bruck => "bruck",
            Algorithm::Pairwise => "pairwise",
            Algorithm::Hierarchical => "hierarchical",
        }
    }
}

/// The step-wise allreduce variants benchmarked in the paper (Table V),
/// selected through
/// [`CCollSession::plan_allreduce_variant`](crate::CCollSession::plan_allreduce_variant).
/// All four run the ring schedule; they differ in compression placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllreduceVariant {
    /// "AD" — the original MPI_Allreduce, no compression.
    Original,
    /// "DI" — direct integration: CPR-P2P in both stages.
    DirectIntegration,
    /// "ND" — the collective data-movement framework fixes the allgather
    /// stage; the reduce-scatter stage remains CPR-P2P.
    NovelDesign,
    /// "Overlap" — ND plus the pipelined collective computation
    /// framework in the reduce-scatter stage. This is **C-Allreduce**.
    Overlapped,
}

impl AllreduceVariant {
    /// All variants in the paper's optimization order.
    pub const ALL: [AllreduceVariant; 4] = [
        AllreduceVariant::Original,
        AllreduceVariant::DirectIntegration,
        AllreduceVariant::NovelDesign,
        AllreduceVariant::Overlapped,
    ];

    /// The paper's abbreviation.
    pub fn label(&self) -> &'static str {
        match self {
            AllreduceVariant::Original => "AD",
            AllreduceVariant::DirectIntegration => "DI",
            AllreduceVariant::NovelDesign => "ND",
            AllreduceVariant::Overlapped => "Overlap",
        }
    }
}

/// Per-plan configuration accepted by every `plan_*_with` constructor on
/// [`CCollSession`](crate::CCollSession) (builder style).
///
/// ```
/// use c_coll::{Algorithm, PlanOptions};
///
/// let opts = PlanOptions::new().algorithm(Algorithm::RecursiveDoubling);
/// assert_eq!(opts.algorithm, Algorithm::RecursiveDoubling);
/// // The default is cost-model-driven selection.
/// assert_eq!(PlanOptions::default().algorithm, Algorithm::Auto);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanOptions {
    /// The schedule to run ([`Algorithm::Auto`] selects per cost model).
    pub algorithm: Algorithm,
}

impl PlanOptions {
    /// Options with every field at its default (`Algorithm::Auto`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the schedule.
    #[must_use]
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }
}

/// The inputs `Algorithm::Auto` selection works from; bundled by the
/// session (which owns the cost/net models, the codec spec and the
/// measured-ratio feedback).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SelectCtx<'a> {
    pub cost: &'a CostModel,
    pub net: &'a NetModel,
    pub spec: CodecSpec,
    pub world: usize,
    /// Compression ratio measured from this session's executed plans,
    /// when available; replaces the codec's nominal planning ratio so
    /// post-warm-up selection tracks the live workload.
    pub measured_ratio: Option<f64>,
    /// The session topology and its two-level network, when attached via
    /// `with_topology`. Present: schedules are priced with
    /// [`CostModel::estimate_hier`] (per-level links, shared-NIC
    /// contention) and the hierarchical candidates join the race.
    pub cluster: Option<&'a ClusterNet>,
    /// Online α correction from the session's calibration loop: the
    /// model's per-message latency is multiplied by this before pricing
    /// (1.0 = nominal).
    pub alpha_scale: f64,
    /// Online β correction: the model's bandwidth is *divided* by this
    /// before pricing, so >1 means the fabric is slower than nominal.
    pub beta_scale: f64,
}

impl SelectCtx<'_> {
    /// Workload parameters for a `payload_bytes`-byte uncompressed
    /// per-rank buffer under this session's codec.
    pub fn params(&self, payload_bytes: usize) -> SchedParams {
        match self.spec {
            CodecSpec::None => SchedParams::uncompressed(self.world, payload_bytes),
            spec => {
                let (ck, dk) = spec.kernels();
                SchedParams {
                    world: self.world,
                    payload_bytes,
                    compress_tput: self.cost.throughput(ck),
                    decompress_tput: self.cost.throughput(dk),
                    ratio: self.measured_ratio.unwrap_or_else(|| spec.nominal_ratio()),
                    // Only error-bounded codecs drive the PIPE-SZx
                    // overlap; others execute the compress-once ND ring,
                    // which has no per-hop transfer/compress credit.
                    pipelined: spec.error_bound().is_some(),
                }
            }
        }
    }

    /// Apply the calibration corrections to one link model (the models
    /// are `Copy`, so this never clones a topology).
    fn scaled(&self, net: NetModel) -> NetModel {
        NetModel {
            latency: net.latency.mul_f64(self.alpha_scale),
            bandwidth: net.bandwidth / self.beta_scale,
        }
    }

    /// Price one schedule: topology-aware when a cluster is attached,
    /// flat α–β otherwise; both under the calibration scales.
    fn price(&self, schedule: Schedule, p: &SchedParams) -> std::time::Duration {
        match self.cluster {
            Some(c) => {
                let hier = HierNet {
                    intra: self.scaled(c.net.intra),
                    inter: self.scaled(c.net.inter),
                };
                self.cost.estimate_hier(schedule, &c.topo, &hier, p)
            }
            None => self.cost.estimate(schedule, &self.scaled(*self.net), p),
        }
    }

    /// Price `schedule` for a `len`-value per-rank payload — the
    /// calibration loop's model prediction for the plan it is driving.
    pub fn predict(&self, schedule: Schedule, len: usize) -> std::time::Duration {
        let p = self.params(len * 4);
        self.price(schedule, &p)
    }

    /// The schedule's compute-only floor: the same prediction over a
    /// free network (zero latency, infinite bandwidth), leaving codec,
    /// reduction and memcpy terms. Calibration regresses the *network*
    /// share of a measured makespan — `measured − floor` against
    /// `predict − floor` — so codec time never pollutes the α–β fit.
    pub fn compute_floor(&self, schedule: Schedule, len: usize) -> std::time::Duration {
        // α×0 zeroes every latency term; β÷0 → infinite bandwidth →
        // zero-second transfers. Only the γ (compute) terms survive.
        let free = SelectCtx {
            alpha_scale: 0.0,
            beta_scale: 0.0,
            ..*self
        };
        let p = self.params(len * 4);
        free.price(schedule, &p)
    }

    /// How much of the prediction's network part moves with latency
    /// (vs bandwidth), by finite difference: doubling α vs doubling β.
    /// Clamped to `[0.25, 0.75]` so a correction never starves one term
    /// entirely — small-message rounds still inform β and vice versa.
    pub fn alpha_share(&self, schedule: Schedule, len: usize) -> f64 {
        let p = self.params(len * 4);
        let base = self.price(schedule, &p).as_secs_f64();
        let bumped_a = SelectCtx {
            alpha_scale: self.alpha_scale * 2.0,
            ..*self
        };
        let bumped_b = SelectCtx {
            beta_scale: self.beta_scale * 2.0,
            ..*self
        };
        let da = (bumped_a.price(schedule, &p).as_secs_f64() - base).max(0.0);
        let db = (bumped_b.price(schedule, &p).as_secs_f64() - base).max(0.0);
        if da + db <= 0.0 {
            return 0.5;
        }
        (da / (da + db)).clamp(0.25, 0.75)
    }

    /// The cheapest of `rows` (a kind's admitted schedule-table rows)
    /// for a `payload_bytes` workload; the first of equally cheap rows.
    pub fn cheapest<'r>(
        &self,
        payload_bytes: usize,
        rows: impl Iterator<Item = &'r Row>,
    ) -> Algorithm {
        let p = self.params(payload_bytes);
        let price = |row: &Row| {
            let schedule = row.1.expect("a row Auto ranks has a cost-model entry");
            self.price(schedule, &p)
        };
        rows.min_by(|a, b| price(a).cmp(&price(b)))
            .expect("a kind has at least one admitted schedule")
            .0
    }

    /// Whether two-level schedules are meaningful: a topology with more
    /// than one node (one node degenerates to the flat schedules).
    pub fn multi_node(&self) -> bool {
        self.cluster.is_some_and(|c| c.topo.nodes() > 1)
    }
}

/// Panic helper for plan construction: reject an algorithm a collective
/// has no schedule for, naming the supported set.
pub(crate) fn reject_unsupported(
    collective: &str,
    got: Algorithm,
    supported: impl Iterator<Item = Algorithm>,
) -> ! {
    let names: Vec<&str> = supported.map(|a| a.label()).collect();
    panic!(
        "{collective} has no {} schedule (supported: auto, {})",
        got.label(),
        names.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use ccoll_comm::Topology;

    use super::*;
    use crate::plan::{select, Allgather, Allreduce, Alltoall, Kind, Reduce};
    use crate::{CCollSession, ReduceOp};

    const SZX: CodecSpec = CodecSpec::Szx { error_bound: 1e-3 };

    /// What `Auto` resolves `kind` to on `session` at plan creation.
    fn auto<K: Kind>(session: &CCollSession, kind: K) -> Algorithm {
        select(&kind, session.select_ctx())
    }

    fn allreduce(session: &CCollSession, len: usize) -> Algorithm {
        let variant = AllreduceVariant::Overlapped;
        auto(
            session,
            Allreduce::new(session, len, ReduceOp::Sum, variant),
        )
    }

    #[test]
    fn auto_allreduce_crosses_from_doubling_to_bandwidth_optimal() {
        let s = CCollSession::new(SZX, 16);
        assert_eq!(
            allreduce(&s, 128),
            Algorithm::RecursiveDoubling,
            "small payloads are latency-bound"
        );
        let large = allreduce(&s, 16 * 1024 * 1024);
        assert!(
            matches!(large, Algorithm::Ring | Algorithm::Rabenseifner),
            "large payloads are bandwidth-bound, got {large:?}"
        );
    }

    #[test]
    fn auto_allgather_crosses_from_bruck_to_ring() {
        let s = CCollSession::new(SZX, 32);
        let allgather = |block: usize| auto(&s, Allgather::new(&s, vec![block; 32]));
        assert_eq!(allgather(64), Algorithm::Bruck);
        assert_eq!(allgather(8 * 1024 * 1024), Algorithm::Ring);
    }

    #[test]
    fn auto_reduce_crosses_from_binomial_to_rs_gather() {
        let s = CCollSession::new(CodecSpec::None, 16);
        let reduce = |len: usize| auto(&s, Reduce::new(&s, 0, len, ReduceOp::Sum));
        assert_eq!(reduce(128), Algorithm::Binomial);
        assert_eq!(reduce(16 * 1024 * 1024), Algorithm::Rabenseifner);
    }

    #[test]
    fn auto_alltoall_crosses_from_bruck_to_pairwise() {
        let s = CCollSession::new(SZX, 64);
        let alltoall = |block: usize| auto(&s, Alltoall::new(&s, block * 64));
        assert_eq!(alltoall(64), Algorithm::Bruck, "small blocks: log₂n legs");
        assert_eq!(
            alltoall(1024 * 1024),
            Algorithm::Pairwise,
            "large blocks: Bruck's n/2-payload rounds lose"
        );
    }

    #[test]
    fn auto_allreduce_picks_hierarchical_on_multi_node_cluster() {
        let net = HierNet::cluster_default();
        let s = CCollSession::new(SZX, 128).with_topology(Topology::uniform(8, 16), net);
        assert_eq!(
            allreduce(&s, 16 * 1024),
            Algorithm::Hierarchical,
            "leader-only inter traffic beats contended flat butterflies"
        );
        // A single-node topology must fall back to flat schedules.
        let s1 = CCollSession::new(SZX, 16).with_topology(Topology::uniform(1, 16), net);
        assert_ne!(allreduce(&s1, 16 * 1024), Algorithm::Hierarchical);
    }

    #[test]
    fn labels_are_stable() {
        // Bench JSON keys — renaming them breaks recorded trajectories.
        assert_eq!(Algorithm::Auto.label(), "auto");
        assert_eq!(Algorithm::RecursiveDoubling.label(), "recursive-doubling");
        assert_eq!(Algorithm::Rabenseifner.label(), "rabenseifner");
    }
}
