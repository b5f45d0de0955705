//! The session + persistent-plan C-Coll API: allocation-free steady
//! state from codec to collective.
//!
//! A one-shot collective call has to build its codec, allocate its
//! output `Vec` and warm its scratch buffers every time — exactly the
//! per-call buffer-management overhead the paper's §III-D breakdown
//! charges under "Others" (23 % of a 278 MB allreduce). This module is
//! the MPI persistent-collective shape (`MPI_Allreduce_init`) instead:
//!
//! 1. **[`CCollSession`]** — a per-rank handle created *once* from a
//!    [`CodecSpec`] and the world size. It builds the codec exactly once
//!    and numbers every plan it creates.
//! 2. **Persistent plans** — [`CCollSession::plan_allreduce`] (and the
//!    other `plan_*` constructors) precompute the chunk partition, the
//!    pipeline configuration and the worst-case compressed sizes, and
//!    own a [`CollWorkspace`] of reusable buffers. Repeated
//!    `execute_into` calls at the planned shape perform **zero heap
//!    allocations** after the first (warm-up) call — the property pinned
//!    end to end by `tests/collective_alloc.rs`. The plan and handle
//!    types and their lifecycle live in [`crate::plan`]; this module
//!    re-exports their names.
//!
//! ```
//! use c_coll::{CCollSession, CodecSpec, ReduceOp};
//! use ccoll_comm::{Comm, SimConfig, SimWorld};
//!
//! let n = 4;
//! let len = 10_000;
//! let world = SimWorld::new(SimConfig::new(n));
//! let out = world.run(move |comm| {
//!     // One session per rank, one plan per repeated shape.
//!     let session = CCollSession::new(CodecSpec::Szx { error_bound: 1e-3 }, n);
//!     let mut plan = session.plan_allreduce(len, ReduceOp::Sum);
//!     let input: Vec<f32> = (0..len).map(|i| (i as f32 * 1e-3).sin()).collect();
//!     let mut result = vec![0.0f32; len];
//!     for _step in 0..3 {
//!         // Steady-state calls reuse every buffer — no allocation.
//!         plan.execute_into(comm, &input, &mut result);
//!     }
//!     result[0]
//! });
//! assert_eq!(out.results.len(), n);
//! ```

use std::cell::Cell;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use ccoll_comm::{ClusterNet, CostModel, HierNet, NetModel, PayloadPool, Topology};

use crate::algorithm::{Algorithm, AllreduceVariant, PlanOptions, SelectCtx};
use crate::codec::CodecSpec;
use crate::collectives::cpr_p2p::CprCodec;
use crate::frameworks::computation::DEFAULT_PIPE_VALUES;
use crate::placement::{Placement, Role};
use crate::plan::{
    Allgather, Allreduce, Alltoall, Bcast, Gather, Plan, Reduce, ReduceScatter, Scatter,
};
use crate::reduce::ReduceOp;
use crate::workspace::CollWorkspace;
use ccoll_comm::Cut;

mod error;
mod feedback;
mod recovery;

pub use crate::plan::{
    AllgatherHandle, AllgatherPlan, AllreduceHandle, AllreducePlan, AlltoallHandle, AlltoallPlan,
    BcastHandle, BcastPlan, GatherHandle, GatherPlan, ReduceHandle, ReducePlan,
    ReduceScatterHandle, ReduceScatterPlan, ScatterHandle, ScatterPlan,
};
pub use error::CollectiveError;
pub(crate) use feedback::SessionFeedback;
pub use feedback::{PlanStats, SessionStats};
pub use recovery::Recovery;

/// A per-rank C-Coll handle: codec built exactly once, pipeline
/// configuration fixed, world size pinned. Create plans from it for
/// every repeated collective shape (see the module docs).
///
/// Cloning a session is cheap (the codec is reference-counted), so one
/// session can be captured by a per-rank closure and cloned per thread.
///
/// ```
/// use c_coll::{Algorithm, CCollSession, CodecSpec, PlanOptions, ReduceOp};
///
/// let session = CCollSession::new(CodecSpec::Szx { error_bound: 1e-3 }, 8);
/// assert_eq!(session.world_size(), 8);
///
/// // Plans fix the schedule at creation time. The plain constructors
/// // keep the paper's schedules; `_with` constructors take a
/// // PlanOptions whose Algorithm::Auto consults the cost model.
/// let ring = session.plan_allreduce(100_000, ReduceOp::Sum);
/// assert_eq!(ring.algorithm(), Algorithm::Ring);
/// let auto = session.plan_allreduce_with(64, ReduceOp::Sum, PlanOptions::new());
/// assert_eq!(
///     auto.algorithm(),
///     Algorithm::RecursiveDoubling,
///     "64 values over 8 ranks is latency-bound",
/// );
/// ```
#[derive(Clone)]
pub struct CCollSession {
    spec: CodecSpec,
    pipe_values: usize,
    pub(crate) world_size: usize,
    pub(crate) cpr: Option<CprCodec>,
    cost: CostModel,
    net: NetModel,
    /// The physical topology and per-level network model, when attached
    /// via [`CCollSession::with_topology`]. Present: `Auto` selection
    /// prices schedules per level ([`CostModel::estimate_hier`]) and the
    /// two-level hierarchical schedules join the candidate race.
    pub(crate) cluster: Option<Arc<ClusterNet>>,
    pub(crate) feedback: Arc<SessionFeedback>,
    /// Next per-plan slot (a plan operation's context, see
    /// [`ccoll_comm::Ctx::op`]).
    /// Deliberately a `Cell`, not a shared atomic: a clone *copies* the counter, so a
    /// session cloned into per-rank closures hands out identical slot
    /// sequences on every rank — which is exactly the cross-rank
    /// agreement concurrent contexts need. Plans meant to run
    /// concurrently must therefore be created in the same order on
    /// every rank (the same rule collective calls already obey).
    next_slot: Cell<u32>,
    /// Shrink epoch: 0 for a freshly created session, incremented by
    /// each [`CCollSession::recover`]. The context of every message
    /// posted through the [`CommView::shrunk`] view the recovery hands
    /// out, so pre-shrink traffic can never match post-shrink receives.
    epoch: u32,
}

impl CCollSession {
    /// Create a session for a `world_size`-rank communicator with the
    /// paper's default 5120-value pipeline sub-chunks. The codec is
    /// built here, exactly once.
    ///
    /// # Panics
    /// Panics if `world_size` is zero.
    #[must_use]
    pub fn new(spec: CodecSpec, world_size: usize) -> Self {
        assert!(world_size > 0, "session needs at least one rank");
        CCollSession {
            spec,
            pipe_values: DEFAULT_PIPE_VALUES,
            world_size,
            cpr: CprCodec::from_spec(spec),
            cost: CostModel::default(),
            net: NetModel::default(),
            cluster: None,
            feedback: Arc::new(SessionFeedback::default()),
            next_slot: Cell::new(0),
            epoch: 0,
        }
    }

    /// Allocate the next plan slot. Slots are handed out in
    /// plan-creation order from a session-local counter, so every rank
    /// that creates its plans in the same order (the usual collective
    /// discipline) assigns matching slots — which is what keeps two
    /// concurrently-running operations' contexts apart.
    pub(crate) fn alloc_slot(&self) -> u32 {
        let s = self.next_slot.get();
        self.next_slot.set(s.wrapping_add(1));
        s
    }

    /// How many nonblocking operations started from this session's
    /// plans (across clones of the session) are currently in flight —
    /// i.e. have a live handle that has not yet been dropped.
    pub fn live_ops(&self) -> u64 {
        self.feedback.live_ops.load(Ordering::Relaxed)
    }

    /// Override the pipeline sub-chunk size (values), for ablations.
    ///
    /// # Panics
    /// Panics if `values` is zero.
    #[must_use]
    pub fn with_pipeline_values(mut self, values: usize) -> Self {
        assert!(values > 0, "pipeline sub-chunk must be positive");
        self.pipe_values = values;
        self
    }

    /// Override the kernel cost model [`Algorithm::Auto`] selection
    /// consults (defaults to the paper's Table-I-shaped
    /// [`CostModel::default`]). Pass
    /// `ccoll_bench::calibrate_cost_model(..)`'s output to select
    /// schedules for *this* machine's measured kernel throughputs.
    #[must_use]
    pub fn with_cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Override the α–β network model [`Algorithm::Auto`] selection
    /// consults (defaults to [`NetModel::default`]).
    #[must_use]
    pub fn with_net_model(mut self, net: NetModel) -> Self {
        self.net = net;
        self
    }

    /// Attach the physical topology (rank→node map) and its two-level
    /// α–β network model. With a topology attached, [`Algorithm::Auto`]
    /// prices every candidate with [`CostModel::estimate_hier`] — flat
    /// butterflies pay the shared-NIC contention of their node-size
    /// concurrent inter-node flows — and the two-level
    /// [`Algorithm::Hierarchical`] schedules (allreduce, allgather,
    /// bcast) join the race. Explicit `Hierarchical` plans also require
    /// this.
    ///
    /// See the crate-level "Topology quick start" for a worked example.
    ///
    /// # Panics
    /// Panics if the topology's world size disagrees with the session's.
    #[must_use]
    pub fn with_topology(mut self, topo: Topology, net: HierNet) -> Self {
        assert_eq!(
            topo.world(),
            self.world_size,
            "topology world disagrees with session world size"
        );
        self.cluster = Some(Arc::new(ClusterNet { topo, net }));
        self
    }

    /// The attached cluster topology and network, if any.
    pub fn cluster(&self) -> Option<&ClusterNet> {
        self.cluster.as_deref()
    }

    /// The session's online α–β calibration state, as
    /// `(alpha_scale, beta_scale)` multipliers over the configured
    /// network model (`(1.0, 1.0)` until a calibration round adjusts
    /// them). Every `Auto` plan's continuous calibration loop regresses
    /// its measured makespans against the cost model's predictions and
    /// corrects these communicator-agreed multipliers, so selection
    /// tracks the fabric actually observed rather than the configured
    /// nominal (see [`AllreducePlan`]'s calibration).
    pub fn net_calibration(&self) -> (f64, f64) {
        self.feedback.net_scales()
    }

    /// The configured codec.
    pub fn spec(&self) -> CodecSpec {
        self.spec
    }

    /// The communicator size this session plans for.
    pub fn world_size(&self) -> usize {
        self.world_size
    }

    /// The shrink epoch this session plans for: 0 for a freshly created
    /// session, incremented by each [`CCollSession::recover`].
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// The compression ratio measured across this session's plan
    /// executions (an exponentially weighted running average), if any
    /// compression has run yet. This is the feedback [`Algorithm::Auto`]
    /// re-ranks schedules from after warm-up; until a sample exists,
    /// selection falls back to the codec's
    /// [`CodecSpec::nominal_ratio`](crate::CodecSpec::nominal_ratio).
    pub fn measured_ratio(&self) -> Option<f64> {
        self.feedback.ratio()
    }

    /// Aggregate measured statistics across every plan this session (and
    /// its clones) created: total completed executions, a running
    /// average of execution makespans and the measured compression
    /// ratio. The per-plan view lives on each plan's `stats()` accessor;
    /// the bench runners dump both.
    pub fn stats(&self) -> SessionStats {
        let ns = self.feedback.makespan_ewma_nanos.load(Ordering::Relaxed);
        SessionStats {
            executions: self.feedback.executions.load(Ordering::Relaxed),
            ewma_makespan: Duration::from_nanos(ns),
            measured_ratio: self.feedback.ratio(),
            retries: self.feedback.retries.load(Ordering::Relaxed),
            timeouts: self.feedback.timeouts.load(Ordering::Relaxed),
            aborts: self.feedback.aborts.load(Ordering::Relaxed),
            shrinks: self.feedback.shrinks.load(Ordering::Relaxed),
            agreement_rounds: self.feedback.agreement_rounds.load(Ordering::Relaxed),
            stale_discarded: self.feedback.stale_discarded.load(Ordering::Relaxed),
        }
    }

    /// Drain a workspace's compression-ratio sample into the session
    /// feedback, returning it. Called by every plan after `execute_into`.
    pub(crate) fn note_execution(&self, ws: &mut CollWorkspace) -> Option<f64> {
        let sample = ws.pool.take_ratio_sample();
        if let Some(r) = sample {
            self.feedback.record_ratio(r);
        }
        sample
    }

    /// Selection context for plan creation. Deliberately uses the
    /// codec's *nominal* ratio: plan creation is communicator-free and
    /// every rank must resolve `Auto` to the same schedule, while the
    /// locally measured ratios differ per rank. Measured ratios enter
    /// selection only through the post-warm-up re-rank, which first
    /// agrees on one value across the communicator
    /// (see [`AllreducePlan`]'s re-rank).
    pub(crate) fn select_ctx(&self) -> SelectCtx<'_> {
        let (alpha_scale, beta_scale) = self.feedback.net_scales();
        SelectCtx {
            cost: &self.cost,
            net: &self.net,
            spec: self.spec,
            world: self.world_size,
            measured_ratio: None,
            cluster: self.cluster.as_deref(),
            alpha_scale,
            beta_scale,
        }
    }

    /// Selection context with an explicitly agreed measured ratio (the
    /// re-rank path; `ratio` must be identical on every rank).
    pub(crate) fn select_ctx_with_ratio(&self, ratio: f64) -> SelectCtx<'_> {
        SelectCtx {
            measured_ratio: Some(ratio),
            ..self.select_ctx()
        }
    }

    /// Lanes the hierarchical allreduce runs with at `len` values, and
    /// whether it streams its group legs (`(1, false)` without a
    /// topology): the cost model's argmin over inputs that are identical
    /// on every rank — payload, topology, the configured models, the
    /// codec's *nominal* ratio; never a measured ratio or a calibrated
    /// scale — so all ranks agree without a message.
    pub(crate) fn hier_lanes(&self, len: usize) -> (usize, bool) {
        self.cluster.as_deref().map_or((1, false), |c| {
            let nominal = self.select_ctx().params(len * 4);
            self.cost.hier_lanes(&c.topo, &c.net, &nominal)
        })
    }

    /// Values per sub-chunk of recursive doubling's PIPE-SZx rounds and
    /// fold at `len` values ([`CostModel::exchange_values`]), from the
    /// same rank-identical inputs as [`Self::hier_lanes`]; the pipe on a
    /// topology, where the cost model prices recursive doubling at it.
    pub(crate) fn exchange_values(&self, len: usize) -> usize {
        if self.cluster.is_some() {
            return self.pipe_values;
        }
        let nominal = self.select_ctx().params(len * 4);
        self.cost
            .exchange_values(self.pipe_values, &self.net, &nominal)
    }

    /// How a stream of placement `place` cuts its payload in `role` —
    /// the one place that decides it; every machine applies the cut it
    /// is handed. Derived from rank-identical inputs (the configured net
    /// and kernel table, the payload, never a calibrated scale), so both
    /// ends of a stream cut alike:
    ///
    /// * a raw hop or exchange: the pipe, or — on a flat network whose
    ///   link is slower than the fold — past one pipe
    ///   [`CostModel::hop_taper`]'s largest-first pieces;
    /// * a raw relay: [`CostModel::relay_taper`]'s pieces on such a
    ///   network, whole blocks otherwise;
    /// * a piped hop: the pipe; recursive doubling's exchange, the plan's
    ///   [`Self::exchange_values`];
    /// * a compress-once relay: the pipe, but never below
    ///   [`DEFAULT_PIPE_VALUES`] — every relayed sub-chunk pays a
    ///   message's latency in each of the `n − 2` relay rounds, so a pipe
    ///   tuned smaller for the reduce-scatter's codec overlap must not
    ///   multiply them; a compress-once tree: the pipe;
    /// * a CPR-P2P hop (the paper's naive baseline) and a raw tree,
    ///   fan-out or hand-off: [`Cut::WHOLE`], one unbounded sub-chunk.
    pub(crate) fn cut(&self, place: Placement, role: Role) -> Cut {
        let (pipe, flat) = (self.pipe_values, self.cluster.is_none());
        match (place, role) {
            (Placement::Raw, Role::Hop | Role::Exchange(_)) => {
                Cut::tapered(pipe, self.cost.hop_taper(&self.net).filter(|_| flat))
            }
            (Placement::Raw, Role::Relay) => {
                match self.cost.relay_taper(&self.net, self.world_size) {
                    Some(taper) if flat => Cut::tapered(pipe, Some(taper)),
                    _ => Cut::WHOLE,
                }
            }
            (Placement::Piped(_), Role::Exchange(len)) => Cut::pipe(self.exchange_values(len)),
            (Placement::Once, Role::Relay) => Cut::pipe(pipe.max(DEFAULT_PIPE_VALUES)),
            (Placement::Piped(_) | Placement::Once, _) => Cut::pipe(pipe),
            (Placement::Cpr, _) | (Placement::Raw, Role::Tree) => Cut::WHOLE,
        }
    }

    /// Whether a Rabenseifner allgather at `place` relays each finalized
    /// range's one blob — encoded once by its owner, forwarded in framed
    /// containers, decoded once at each consumer — rather than
    /// re-encoding the ranges it holds every round: at a pooled placement
    /// on a flat network. On a cluster the inter-node leg is bound by the
    /// bytes through each node's NIC, and the relayed blobs' own headers
    /// and frame lengths (about 0.9 % more) cost more there than the
    /// re-encodes save (DESIGN.md, "Compress-once Rabenseifner").
    pub(crate) fn relays(&self, place: Placement) -> bool {
        matches!(place, Placement::Piped(_) | Placement::Once) && self.cluster.is_none()
    }

    /// The PIPE sub-chunk size (values) the session's streams are cut
    /// in, as far as workspace sizing goes (see [`Self::cut`]).
    pub(crate) fn pipe_values(&self) -> usize {
        self.pipe_values
    }

    /// A workspace pre-warmed for payloads of up to `values` elements:
    /// the codec scratch fits the largest chunk and the payload pool
    /// holds `slots` buffers at the codec's worst-case compressed size.
    /// A ring schedule keeps up to two payload generations alive at once
    /// (peers release a relayed block only when they enter their next
    /// call), so plans pass at least four slots; pipelined plans scale
    /// `slots` with the number of concurrently in-flight sub-chunks.
    pub(crate) fn warmed_workspace(&self, values: usize, slots: usize) -> CollWorkspace {
        let mut ws = CollWorkspace::with_value_capacity(values);
        let worst = match &self.cpr {
            Some(cpr) => cpr.codec.max_compressed_bytes(values),
            None => values * 4,
        };
        ws.pool = PayloadPool::warmed(slots, worst);
        ws
    }

    /// The workspace a ring reduce-scatter of `len` values at placement
    /// `rs` needs — as a plan of its own, as the first stage of the ring
    /// allreduce and of the reduce-scatter + gather reduce. Piped
    /// compression never sees more than one sub-chunk, but all of a
    /// round's sub-chunk payloads can be in flight at once, plus the
    /// previous generation not yet released by the receiver. Raw rounds
    /// stream too, into four whole-chunk slots: the slots their
    /// sub-chunks need beyond those grow once, in the first execution —
    /// warming one per sub-chunk up front would make a plan's set-up
    /// several times slower (a hundred small allocations for a 4 MiB
    /// vector over two ranks). CPR-P2P rounds move whole chunks.
    pub(crate) fn ring_workspace(&self, len: usize, rs: Placement) -> CollWorkspace {
        let max_chunk = len.div_ceil(self.world_size);
        if let Placement::Piped(_) = rs {
            let slots = max_chunk.div_ceil(self.pipe_values) + 4;
            self.warmed_workspace(self.pipe_values.min(len.max(1)), slots)
        } else {
            self.warmed_workspace(max_chunk, 4)
        }
    }

    /// A workspace for a schedule that streams up to `stream_values`
    /// values through the sub-chunk pipeline in one hop (Rabenseifner
    /// halving rounds, binomial-tree reduce hops): one warm pool slot
    /// per concurrently in-flight sub-chunk payload, sized at the
    /// codec's worst case for a sub-chunk. The codec scratch is sized
    /// for `scratch_values` (the largest *monolithic* decode the
    /// schedule performs — e.g. the Rabenseifner allgather ranges).
    ///
    /// Deliberate trade-off: a schedule's monolithic legs (the
    /// Rabenseifner allgather and unfold) compress ranges far larger
    /// than a sub-chunk, so the slots they land in grow once during the
    /// warm-up call — warming *every* slot at the full-payload worst
    /// case would cost `slots × worst(len)` memory for buffers only a
    /// couple of slots ever need. The steady state stays allocation-
    /// free either way (pinned by `collective_alloc.rs`).
    pub(crate) fn pipelined_stream_workspace(
        &self,
        scratch_values: usize,
        stream_values: usize,
    ) -> CollWorkspace {
        let mut ws = CollWorkspace::with_value_capacity(scratch_values);
        let chunk = self.pipe_values.min(stream_values.max(1));
        let per_slot = match &self.cpr {
            Some(cpr) => cpr.codec.max_compressed_bytes(chunk),
            None => chunk * 4,
        };
        ws.pool = PayloadPool::warmed(stream_values.div_ceil(self.pipe_values) + 4, per_slot);
        ws
    }
    // ------------------------------------------------------------------
    // Plan constructors: each names its kind's shape and hands it to
    // `Plan::build`, which resolves the schedule against the kind's
    // table (`kinds/`) and warms the workspace that schedule needs.
    // ------------------------------------------------------------------

    /// Plan an allreduce of `len` values per rank with the full C-Coll
    /// schedule (the paper's "Overlap" variant over the ring, falling
    /// back to ND for codecs without an error bound). Use
    /// [`CCollSession::plan_allreduce_with`] to pick a different
    /// schedule or let the cost model choose.
    #[must_use]
    pub fn plan_allreduce(&self, len: usize, op: ReduceOp) -> AllreducePlan {
        self.plan_allreduce_variant(len, op, AllreduceVariant::Overlapped)
    }

    /// Plan an allreduce with explicit [`PlanOptions`]. Supported
    /// algorithms: [`Algorithm::Ring`] (the paper's C-Allreduce),
    /// [`Algorithm::RecursiveDoubling`], [`Algorithm::Rabenseifner`],
    /// [`Algorithm::Hierarchical`] (two-level; needs
    /// [`CCollSession::with_topology`]), and [`Algorithm::Auto`]
    /// (cost-model selection over all of them; such a plan stays
    /// adaptive, see [`AllreducePlan`]).
    ///
    /// # Panics
    /// Panics on an unsupported algorithm.
    #[must_use]
    pub fn plan_allreduce_with(
        &self,
        len: usize,
        op: ReduceOp,
        opts: PlanOptions,
    ) -> AllreducePlan {
        let kind = Allreduce::new(self, len, op, AllreduceVariant::Overlapped);
        Plan::build(self, kind, opts)
    }

    /// Plan a specific step-wise allreduce variant (Table V) — the
    /// benchmark harness's entry point. All variants run the ring
    /// schedule; they differ in compression placement.
    #[must_use]
    pub fn plan_allreduce_variant(
        &self,
        len: usize,
        op: ReduceOp,
        variant: AllreduceVariant,
    ) -> AllreducePlan {
        let ring = PlanOptions::new().algorithm(Algorithm::Ring);
        Plan::build(self, Allreduce::new(self, len, op, variant), ring)
    }

    /// Plan an equal-count allgather (`len_per_rank` values from every
    /// rank; output is `world_size · len_per_rank`).
    #[must_use]
    pub fn plan_allgather(&self, len_per_rank: usize) -> AllgatherPlan {
        self.plan_allgatherv(&vec![len_per_rank; self.world_size])
    }

    /// [`CCollSession::plan_allgather`] with explicit [`PlanOptions`].
    #[must_use]
    pub fn plan_allgather_with(&self, len_per_rank: usize, opts: PlanOptions) -> AllgatherPlan {
        self.plan_allgatherv_with(&vec![len_per_rank; self.world_size], opts)
    }

    /// Plan an allgather with per-rank value counts, on the ring
    /// schedule (the paper's C-Allgather). Use
    /// [`CCollSession::plan_allgatherv_with`] for schedule choice.
    ///
    /// # Panics
    /// Panics if `counts.len() != world_size`.
    #[must_use]
    pub fn plan_allgatherv(&self, counts: &[usize]) -> AllgatherPlan {
        self.plan_allgatherv_with(counts, PlanOptions::new().algorithm(Algorithm::Ring))
    }

    /// Plan an allgather with per-rank value counts and explicit
    /// [`PlanOptions`]. Supported algorithms: [`Algorithm::Ring`],
    /// [`Algorithm::Bruck`] (compress-once on both — the single-error
    /// bound holds on either schedule), [`Algorithm::Hierarchical`]
    /// (two-level; needs [`CCollSession::with_topology`] and equal
    /// per-rank counts), and [`Algorithm::Auto`].
    ///
    /// # Panics
    /// Panics if `counts.len() != world_size` or on an unsupported
    /// algorithm.
    #[must_use]
    pub fn plan_allgatherv_with(&self, counts: &[usize], opts: PlanOptions) -> AllgatherPlan {
        Plan::build(self, Allgather::new(self, counts.to_vec()), opts)
    }

    /// Plan a reduce-scatter of `len` values per rank, on the
    /// (pipelined) ring — its only schedule; rank `r` receives chunk `r`
    /// of the balanced partition.
    #[must_use]
    pub fn plan_reduce_scatter(&self, len: usize, op: ReduceOp) -> ReduceScatterPlan {
        Plan::build(self, ReduceScatter::new(self, len, op), PlanOptions::new())
    }

    /// Plan a broadcast of `len` values from `root`. With a codec the
    /// payload is compressed once at the root and streamed down the
    /// binomial tree in the session's pipeline sub-chunks (encode ∥
    /// relay ∥ decode); a payload of at most one sub-chunk is a single
    /// message.
    ///
    /// # Panics
    /// Panics if `root` is out of range.
    #[must_use]
    pub fn plan_bcast(&self, root: usize, len: usize) -> BcastPlan {
        self.plan_bcast_with(root, len, PlanOptions::new().algorithm(Algorithm::Binomial))
    }

    /// [`CCollSession::plan_bcast`] with explicit [`PlanOptions`]. The
    /// flat schedule is the MPICH binomial tree (compress-once at the
    /// root); on a session with a topology ([`CCollSession::with_topology`])
    /// [`Algorithm::Hierarchical`] runs the two-level tree (inter-node
    /// binomial over leaders, then node-local fan-out) and
    /// [`Algorithm::Auto`] prices both.
    ///
    /// # Panics
    /// Panics if `root` is out of range or on an unsupported algorithm.
    #[must_use]
    pub fn plan_bcast_with(&self, root: usize, len: usize, opts: PlanOptions) -> BcastPlan {
        Plan::build(self, Bcast::new(self, root, len), opts)
    }

    /// Plan a scatter of the balanced partition of `total_len` values
    /// from `root`, down the binomial tree — its only schedule; rank `r`
    /// receives chunk `r`.
    ///
    /// # Panics
    /// Panics if `root` is out of range.
    #[must_use]
    pub fn plan_scatter(&self, root: usize, total_len: usize) -> ScatterPlan {
        Plan::build(
            self,
            Scatter::new(self, root, total_len),
            PlanOptions::new(),
        )
    }

    /// Plan a gather of the balanced partition of `total_len` values to
    /// `root`, up the binomial tree — its only schedule.
    ///
    /// # Panics
    /// Panics if `root` is out of range.
    #[must_use]
    pub fn plan_gather(&self, root: usize, total_len: usize) -> GatherPlan {
        Plan::build(self, Gather::new(self, root, total_len), PlanOptions::new())
    }

    /// Plan an all-to-all over `len` values per rank (`len` must divide
    /// evenly by the world size), by pairwise exchange.
    ///
    /// # Panics
    /// Panics if `len` is not divisible by the world size.
    #[must_use]
    pub fn plan_alltoall(&self, len: usize) -> AlltoallPlan {
        self.plan_alltoall_with(len, PlanOptions::new().algorithm(Algorithm::Pairwise))
    }

    /// [`CCollSession::plan_alltoall`] with explicit [`PlanOptions`]:
    /// [`Algorithm::Pairwise`] (bandwidth-optimal direct exchange),
    /// [`Algorithm::Bruck`] (log-round store-and-forward for
    /// latency-bound sizes), or [`Algorithm::Auto`] to price both.
    ///
    /// # Panics
    /// Panics if `len` is not divisible by the world size or on an
    /// unsupported algorithm.
    #[must_use]
    pub fn plan_alltoall_with(&self, len: usize, opts: PlanOptions) -> AlltoallPlan {
        Plan::build(self, Alltoall::new(self, len), opts)
    }

    /// Plan a rooted reduce of `len` values per rank (pipelined
    /// reduce-scatter followed by a gather of the reduced chunks — the
    /// bandwidth-optimal composition). Use
    /// [`CCollSession::plan_reduce_with`] for schedule choice.
    ///
    /// # Panics
    /// Panics if `root` is out of range.
    #[must_use]
    pub fn plan_reduce(&self, root: usize, len: usize, op: ReduceOp) -> ReducePlan {
        self.plan_reduce_with(
            root,
            len,
            op,
            PlanOptions::new().algorithm(Algorithm::Rabenseifner),
        )
    }

    /// Plan a rooted reduce with explicit [`PlanOptions`]. Supported
    /// algorithms: [`Algorithm::Rabenseifner`] (reduce-scatter + gather,
    /// bandwidth-optimal), [`Algorithm::Binomial`] (tree reduce,
    /// latency-optimal), and [`Algorithm::Auto`].
    ///
    /// # Panics
    /// Panics if `root` is out of range or on an unsupported algorithm.
    #[must_use]
    pub fn plan_reduce_with(
        &self,
        root: usize,
        len: usize,
        op: ReduceOp,
        opts: PlanOptions,
    ) -> ReducePlan {
        Plan::build(self, Reduce::new(self, root, len, op), opts)
    }

    /// The compression placement of this session's reducing hops
    /// (reduce-scatter, Rabenseifner, tree reduce): piped for a codec
    /// with an error bound, monolithic CPR for one without, raw for none.
    pub(crate) fn placement(&self) -> Placement {
        match (self.spec.error_bound(), self.cpr.is_some()) {
            (Some(error_bound), _) => Placement::Piped(error_bound),
            (None, true) => Placement::Cpr,
            (None, false) => Placement::Raw,
        }
    }

    /// The compression placement of this session's data-movement
    /// schedules: compress-once with a codec, raw without.
    pub(crate) fn movement_placement(&self) -> Placement {
        match self.cpr {
            Some(_) => Placement::Once,
            None => Placement::Raw,
        }
    }
}

impl std::fmt::Debug for CCollSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CCollSession")
            .field("spec", &self.spec)
            .field("pipe_values", &self.pipe_values)
            .field("world_size", &self.world_size)
            .field("epoch", &self.epoch)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use super::*;
    use crate::partition::chunk_range;
    use crate::plan::{select, Kind};
    use crate::testing::{assert_within, on_root, oracle, pin};
    use crate::theory;
    use ccoll_comm::{Comm, SimConfig, SimWorld};
    use proptest::prelude::ProptestConfig;

    fn rank_data(rank: usize, len: usize) -> Vec<f32> {
        (0..len)
            .map(|i| ((i * 3 + rank * 97) as f32 * 1e-3).cos() * 3.0)
            .collect()
    }

    #[test]
    fn session_allreduce_matches_oracle_envelope() {
        let n = 5;
        let len = 15_000;
        let eb = 1e-3f32;
        let world = SimWorld::new(SimConfig::new(n));
        let out = world.run(move |c| {
            let session = CCollSession::new(CodecSpec::Szx { error_bound: eb }, n);
            let mut plan = session.plan_allreduce(len, ReduceOp::Sum);
            let input = rank_data(c.rank(), len);
            let mut result = vec![0.0f32; len];
            // Repeated executions must be stable (same input → same output).
            plan.execute_into(c, &input, &mut result);
            let first = result.clone();
            plan.execute_into(c, &input, &mut result);
            assert_eq!(first, result, "steady-state repeat must be bit-stable");
            result
        });
        let inputs: Vec<Vec<f32>> = (0..n).map(|r| rank_data(r, len)).collect();
        let expect = ReduceOp::Sum.oracle(&inputs);
        let tol = (n + 1) as f32 * eb;
        for r in 0..n {
            for (a, b) in out.results[r].iter().zip(&expect) {
                assert!((a - b).abs() <= tol, "rank {r}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn plans_are_reusable_across_shapeful_collectives() {
        let n = 4;
        let world = SimWorld::new(SimConfig::new(n));
        let out = world.run(move |c| {
            let session = CCollSession::new(CodecSpec::Szx { error_bound: 1e-4 }, n);
            let data = rank_data(c.rank(), 1200);
            let mut gather_all = session.plan_allgather(1200);
            let mut bcast = session.plan_bcast(0, 100);
            let mut scatter = session.plan_scatter(0, 4800);
            let gathered = gather_all.execute(c, &data);
            let b = bcast.execute(c, &gathered[..100]);
            let s = scatter.execute(c, &gathered);
            (gathered.len(), b.len(), s.len())
        });
        for r in 0..n {
            assert_eq!(out.results[r], (4800, 100, 1200));
        }
    }

    #[test]
    fn reduce_plan_returns_root_only() {
        let n = 6;
        let len = 3000;
        let world = SimWorld::new(SimConfig::new(n));
        let out = world.run(move |c| {
            let session = CCollSession::new(CodecSpec::Szx { error_bound: 1e-4 }, n);
            let mut plan = session.plan_reduce(2, len, ReduceOp::Sum);
            plan.execute(c, &rank_data(c.rank(), len))
        });
        for (r, res) in out.results.iter().enumerate() {
            assert_eq!(res.is_some(), r == 2, "rank {r}");
        }
        let inputs: Vec<Vec<f32>> = (0..n).map(|r| rank_data(r, len)).collect();
        let expect = ReduceOp::Sum.oracle(&inputs);
        let got = out.results[2].as_ref().unwrap();
        for (a, b) in got.iter().zip(&expect) {
            assert!((a - b).abs() <= (n + 1) as f32 * 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    #[should_panic(expected = "plan built for")]
    fn plan_rejects_wrong_world_size() {
        let world = SimWorld::new(SimConfig::new(3));
        world.run(move |c| {
            let session = CCollSession::new(CodecSpec::None, 4);
            let mut plan = session.plan_allreduce(10, ReduceOp::Sum);
            let mut out = vec![0.0; 10];
            plan.execute_into(c, &[0.0; 10], &mut out);
        });
    }

    #[test]
    fn algorithm_plans_match_oracle_envelope() {
        let n = 6;
        let len = 5000;
        let eb = 1e-3f32;
        for algorithm in [
            Algorithm::Ring,
            Algorithm::RecursiveDoubling,
            Algorithm::Rabenseifner,
        ] {
            let world = SimWorld::new(SimConfig::new(n));
            let out = world.run(move |c| {
                let session = CCollSession::new(CodecSpec::Szx { error_bound: eb }, n);
                let mut plan = session.plan_allreduce_with(
                    len,
                    ReduceOp::Sum,
                    PlanOptions::new().algorithm(algorithm),
                );
                assert_eq!(plan.algorithm(), algorithm);
                plan.execute(c, &rank_data(c.rank(), len))
            });
            let inputs: Vec<Vec<f32>> = (0..n).map(|r| rank_data(r, len)).collect();
            let expect = ReduceOp::Sum.oracle(&inputs);
            let tol = 4.0 * (n as f32) * eb;
            for r in 0..n {
                for (a, b) in out.results[r].iter().zip(&expect) {
                    assert!((a - b).abs() <= tol, "{algorithm:?} rank {r}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn bruck_allgather_plan_round_trips() {
        let n = 5;
        let len = 700;
        let world = SimWorld::new(SimConfig::new(n));
        let out = world.run(move |c| {
            let session = CCollSession::new(CodecSpec::Szx { error_bound: 1e-4 }, n);
            let mut plan =
                session.plan_allgather_with(len, PlanOptions::new().algorithm(Algorithm::Bruck));
            assert_eq!(plan.algorithm(), Algorithm::Bruck);
            plan.execute(c, &rank_data(c.rank(), len))
        });
        for r in 0..n {
            for src in 0..n {
                let expect = rank_data(src, len);
                let got = &out.results[r][src * len..(src + 1) * len];
                for (a, b) in expect.iter().zip(got) {
                    assert!((a - b).abs() <= 1e-4 + 1e-7, "rank {r} src {src}");
                }
            }
        }
    }

    #[test]
    fn binomial_reduce_plan_root_only() {
        let n = 7;
        let len = 900;
        let world = SimWorld::new(SimConfig::new(n));
        let out = world.run(move |c| {
            let session = CCollSession::new(CodecSpec::Szx { error_bound: 1e-4 }, n);
            let mut plan = session.plan_reduce_with(
                3,
                len,
                ReduceOp::Sum,
                PlanOptions::new().algorithm(Algorithm::Binomial),
            );
            assert_eq!(plan.algorithm(), Algorithm::Binomial);
            plan.execute(c, &rank_data(c.rank(), len))
        });
        let inputs: Vec<Vec<f32>> = (0..n).map(|r| rank_data(r, len)).collect();
        let expect = ReduceOp::Sum.oracle(&inputs);
        for (r, res) in out.results.iter().enumerate() {
            if r == 3 {
                for (a, b) in res.as_ref().unwrap().iter().zip(&expect) {
                    assert!((a - b).abs() <= 4.0 * (n as f32) * 1e-4, "{a} vs {b}");
                }
            } else {
                assert!(res.is_none(), "rank {r}");
            }
        }
    }

    #[test]
    fn plans_record_stats_and_measured_ratio() {
        let n = 4;
        let len = 12_000;
        let world = SimWorld::new(SimConfig::new(n));
        let out = world.run(move |c| {
            let session = CCollSession::new(CodecSpec::Szx { error_bound: 1e-3 }, n);
            let mut plan = session.plan_allreduce(len, ReduceOp::Sum);
            assert_eq!(plan.stats(), PlanStats::default());
            let data = rank_data(c.rank(), len);
            let mut out = vec![0.0f32; len];
            plan.execute_into(c, &data, &mut out);
            plan.execute_into(c, &data, &mut out);
            (plan.stats(), session.measured_ratio())
        });
        for (r, (stats, session_ratio)) in out.results.iter().enumerate() {
            assert_eq!(stats.executions, 2, "rank {r}");
            assert!(stats.last_makespan > Duration::ZERO, "rank {r}");
            let ratio = stats.observed_ratio.expect("compression ran");
            assert!(ratio > 1.5, "smooth data should compress, got {ratio}");
            assert!(session_ratio.is_some(), "rank {r}: session feedback empty");
        }
    }

    #[test]
    fn auto_plan_reranks_consistently_from_agreed_ratio() {
        // Rough data compresses far below the nominal planning ratio of
        // 8: at 384 values over 8 ranks the nominal selection says
        // recursive doubling, but at the measured (~1.4) ratio the wire
        // terms grow and Rabenseifner, which moves each value across
        // the wire a bounded number of times instead of log₂ n, wins.
        // Every rank must land on the same post-re-rank schedule (the
        // agreement is the communicator minimum), or the collective
        // would deadlock.
        fn rough(rank: usize, len: usize) -> Vec<f32> {
            let mut state = 0x2468_ACE0u32 ^ (rank as u32).wrapping_mul(0x9E37_79B9);
            (0..len)
                .map(|_| {
                    state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                    (state as f32 / u32::MAX as f32 - 0.5) * 200.0
                })
                .collect()
        }
        let n = 8;
        let len = 384;
        let world = SimWorld::new(SimConfig::new(n));
        let out = world.run(move |c| {
            let session = CCollSession::new(CodecSpec::Szx { error_bound: 1e-4 }, n);
            let mut plan = session.plan_allreduce_with(len, ReduceOp::Sum, PlanOptions::new());
            let initial = plan.algorithm();
            let data = rough(c.rank(), len);
            let mut out = vec![0.0f32; len];
            plan.execute_into(c, &data, &mut out); // warm-up: records the ratio
            plan.execute_into(c, &data, &mut out); // re-ranks from the agreed minimum
            (initial, plan.algorithm(), session.measured_ratio())
        });
        for (r, &(initial, after, ratio)) in out.results.iter().enumerate() {
            assert_eq!(
                initial,
                Algorithm::RecursiveDoubling,
                "rank {r}: nominal pick"
            );
            let ratio = ratio.expect("rank measured a ratio");
            assert!(
                ratio < 4.0,
                "rough data should compress poorly, got {ratio}"
            );
            assert_eq!(
                after,
                Algorithm::Rabenseifner,
                "rank {r}: measured ratio {ratio} should re-rank to Rabenseifner"
            );
        }
    }

    #[test]
    fn explicit_plans_never_rerank() {
        let n = 8;
        let len = 4500;
        let world = SimWorld::new(SimConfig::new(n));
        let out = world.run(move |c| {
            let session = CCollSession::new(CodecSpec::Szx { error_bound: 1e-3 }, n);
            let mut plan = session.plan_allreduce_with(
                len,
                ReduceOp::Sum,
                PlanOptions::new().algorithm(Algorithm::RecursiveDoubling),
            );
            let data = rank_data(c.rank(), len);
            let mut out = vec![0.0f32; len];
            for _ in 0..3 {
                plan.execute_into(c, &data, &mut out);
            }
            plan.algorithm()
        });
        for (r, &algorithm) in out.results.iter().enumerate() {
            assert_eq!(algorithm, Algorithm::RecursiveDoubling, "rank {r}");
        }
    }

    #[test]
    fn auto_plans_resolve_by_payload_size() {
        let session = CCollSession::new(CodecSpec::Szx { error_bound: 1e-3 }, 16);
        let small = session.plan_allreduce_with(64, ReduceOp::Sum, PlanOptions::new());
        assert_eq!(small.algorithm(), Algorithm::RecursiveDoubling);
        let large = session.plan_allreduce_with(4_000_000, ReduceOp::Sum, PlanOptions::new());
        assert!(
            matches!(large.algorithm(), Algorithm::Ring | Algorithm::Rabenseifner),
            "large payloads must resolve to a bandwidth-optimal schedule, got {:?}",
            large.algorithm()
        );
        let small_ag = session.plan_allgather_with(16, PlanOptions::new());
        assert_eq!(small_ag.algorithm(), Algorithm::Bruck);
        let large_ag = session.plan_allgather_with(2_000_000, PlanOptions::new());
        assert_eq!(large_ag.algorithm(), Algorithm::Ring);
    }

    /// World, payload and error bound of the schedule-table test.
    const N: usize = 4;
    const LEN: usize = 6000;
    const EB: f32 = 1e-3;

    /// The one (placement, role) → cut map, on a flat default-net
    /// session and a 4×4 cluster session, with a raw, an SZx and a
    /// ZFP-FXR codec (no error bound: CPR-P2P hops), at the default pipe
    /// and at a pipe shorter than it. A raw flat hop is tapered and no
    /// piped hop is — a short recursive-doubling vector streams
    /// `exchange_values`' two block-aligned halves; a compress-once
    /// relay is never cut below the default pipe; CPR-P2P hops and the
    /// raw trees are one whole message.
    #[test]
    fn the_session_alone_cuts_every_stream() {
        use ccoll_comm::Cut;
        use Role::{Exchange, Hop, Relay, Tree};
        // Recursive doubling's vector: under two default pipes.
        let short = 2048;
        let specs = [
            CodecSpec::None,
            CodecSpec::Szx { error_bound: 1e-3 },
            CodecSpec::ZfpFxr { rate: 8 },
        ];
        for spec in specs {
            for (cluster, pipe) in [(false, DEFAULT_PIPE_VALUES), (false, 64), (true, 64)] {
                let mut s = CCollSession::new(spec, 16).with_pipeline_values(pipe);
                if cluster {
                    s = s.with_topology(Topology::uniform(4, 4), HierNet::cluster_default());
                }
                let what = format!("{spec} cluster={cluster} pipe={pipe}");
                assert_eq!(s.cut(Placement::Raw, Tree), Cut::WHOLE, "{what}");
                match s.placement() {
                    Placement::Raw => {
                        let hop = s.cut(Placement::Raw, Hop);
                        assert_eq!(hop.is_tapered(), !cluster, "{what}: raw hop");
                        assert_eq!(s.cut(Placement::Raw, Exchange(short)), hop, "{what}");
                        let relay = s.cut(Placement::Raw, Relay);
                        assert_eq!(relay.is_tapered(), !cluster, "{what}: raw relay");
                        if cluster {
                            assert_eq!((hop, relay), (Cut::pipe(pipe), Cut::WHOLE), "{what}");
                        }
                    }
                    place @ Placement::Piped(_) => {
                        assert_eq!(s.cut(place, Hop), Cut::pipe(pipe), "{what}: piped hop");
                        let rd = s.cut(place, Exchange(short));
                        assert_eq!(rd, Cut::pipe(s.exchange_values(short)), "{what}");
                        let halves = !cluster && pipe == DEFAULT_PIPE_VALUES;
                        let first = rd.range(0, short).len();
                        let count = if halves { 2 } else { short.div_ceil(pipe) };
                        assert_eq!(rd.count(short), count, "{what}");
                        assert!(
                            !halves || first.is_multiple_of(128),
                            "{what}: halves {first}"
                        );
                    }
                    place => {
                        assert!(matches!(place, Placement::Cpr), "{what}: {place:?}");
                        assert_eq!(s.cut(place, Hop), Cut::WHOLE, "{what}: CPR hop");
                        assert_eq!(s.cut(place, Exchange(short)), Cut::WHOLE, "{what}");
                    }
                }
                if let place @ Placement::Once = s.movement_placement() {
                    let relay = s.cut(place, Relay);
                    assert_eq!(relay, Cut::pipe(pipe.max(DEFAULT_PIPE_VALUES)), "{what}");
                    assert_eq!(s.cut(place, Tree), Cut::pipe(pipe), "{what}: tree");
                }
            }
        }
    }

    fn table_session(cluster: bool) -> CCollSession {
        let session = CCollSession::new(CodecSpec::Szx { error_bound: EB }, N);
        if cluster {
            session.with_topology(Topology::uniform(2, 2), HierNet::cluster_default())
        } else {
            session
        }
    }

    /// One kind's leg of the table test, on a 2×2 cluster: every
    /// algorithm in `K::SCHEDULES` builds, reports itself and leaves
    /// `expect(rank)` within `tol` of every rank's output; every other
    /// algorithm is rejected naming exactly the table; `Auto` stays
    /// inside the table, and off `Hierarchical` on a flat session.
    fn check_table<K: Kind + 'static>(
        shape: fn(&CCollSession) -> K,
        input: fn(usize) -> Vec<f32>,
        expect: fn(usize) -> Vec<f32>,
        tol: f32,
    ) {
        let rows: Vec<Algorithm> = K::SCHEDULES.iter().map(|(a, _)| *a).collect();
        let labels: Vec<&str> = rows.iter().map(Algorithm::label).collect();
        let topo = Topology::uniform(2, 2);
        let net = ClusterNet::new(topo, HierNet::cluster_default());
        let world = SimWorld::new(SimConfig::new(N).with_cluster(net));
        for algorithm in [
            Algorithm::Ring,
            Algorithm::RecursiveDoubling,
            Algorithm::Rabenseifner,
            Algorithm::Binomial,
            Algorithm::Bruck,
            Algorithm::Pairwise,
            Algorithm::Hierarchical,
        ] {
            let what = format!("{} × {}", K::NAME, algorithm.label());
            if !rows.contains(&algorithm) {
                let session = table_session(true);
                let build = || Plan::build(&session, shape(&session), pin(algorithm));
                let panic = catch_unwind(AssertUnwindSafe(build)).err().expect(&what);
                let message = panic.downcast_ref::<String>().expect("a formatted panic");
                let want = format!(
                    "{} has no {} schedule (supported: auto, {})",
                    K::NAME,
                    algorithm.label(),
                    labels.join(", ")
                );
                assert_eq!(*message, want);
                continue;
            }
            let out = world.run(move |c| {
                let session = table_session(true);
                let mut plan = Plan::build(&session, shape(&session), pin(algorithm));
                assert_eq!(plan.algorithm(), algorithm);
                let mut out = vec![0.0f32; plan.kind.out_len(c.rank())];
                plan.execute_into(c, &input(c.rank()), &mut out);
                out
            });
            for (rank, got) in out.results.iter().enumerate() {
                assert_within(got, &expect(rank), tol, &format!("{what} rank {rank}"));
            }
        }
        for cluster in [true, false] {
            let session = table_session(cluster);
            let auto = select(&shape(&session), session.select_ctx());
            assert!(rows.contains(&auto), "{}: Auto picked {auto:?}", K::NAME);
            assert!(cluster || auto != Algorithm::Hierarchical, "{}", K::NAME);
        }
    }

    /// Every kind × every algorithm: the kind's `SCHEDULES` table is
    /// exactly what its plans accept, run and select from.
    #[test]
    fn every_kind_builds_exactly_its_schedule_table() {
        fn data(rank: usize) -> Vec<f32> {
            rank_data(rank, LEN)
        }
        fn summed() -> Vec<f32> {
            oracle(N, ReduceOp::Sum, data)
        }
        fn chunk_of(all: Vec<f32>, rank: usize) -> Vec<f32> {
            all[chunk_range(LEN, N, rank)].to_vec()
        }
        const ROOT: usize = 1;
        // A reduction compresses at every hop: the ring's worst case is
        // Theorem 1's `n·be`, and the butterflies' `log₂n` re-compressed
        // allgather rounds stay inside twice that.
        let reduced = 2.0 * theory::sum_error_worst_case(N, EB as f64) as f32;
        // Data movement compresses once.
        let moved = EB * 1.001;

        check_table::<Allreduce>(
            |s| Allreduce::new(s, LEN, ReduceOp::Sum, AllreduceVariant::Overlapped),
            data,
            |_| summed(),
            reduced,
        );
        check_table::<Allgather>(
            |s| Allgather::new(s, vec![LEN; N]),
            data,
            |_| (0..N).flat_map(data).collect(),
            moved,
        );
        check_table::<ReduceScatter>(
            |s| ReduceScatter::new(s, LEN, ReduceOp::Sum),
            data,
            |rank| chunk_of(summed(), rank),
            reduced,
        );
        check_table::<Bcast>(
            |s| Bcast::new(s, ROOT, LEN),
            |rank| on_root(rank, ROOT, data(ROOT)),
            |_| data(ROOT),
            moved,
        );
        check_table::<Scatter>(
            |s| Scatter::new(s, ROOT, LEN),
            |rank| on_root(rank, ROOT, data(ROOT)),
            |rank| chunk_of(data(ROOT), rank),
            moved,
        );
        check_table::<Gather>(
            |s| Gather::new(s, ROOT, LEN),
            |rank| chunk_of(data(N), rank),
            |rank| on_root(rank, ROOT, data(N)),
            moved,
        );
        check_table::<Alltoall>(
            |s| Alltoall::new(s, LEN),
            data,
            |rank| {
                let block = LEN / N;
                (0..N)
                    .flat_map(|src| data(src)[rank * block..][..block].to_vec())
                    .collect()
            },
            moved,
        );
        check_table::<Reduce>(
            |s| Reduce::new(s, ROOT, LEN, ReduceOp::Sum),
            data,
            |rank| on_root(rank, ROOT, summed()),
            reduced,
        );
    }

    /// Small-integer values whose sums across ranks are exactly
    /// representable in `f32`: any reduction order (flat ring,
    /// node-then-leader) produces bit-identical results.
    fn int_data(rank: usize, len: usize) -> Vec<f32> {
        (0..len)
            .map(|i| ((i * 13 + rank * 7) % 32) as f32 - 16.0)
            .collect()
    }

    /// One allreduce of `data(rank, len)` on a simulated `sizes` cluster,
    /// the hierarchical shape — lane count, streamed group legs — forced
    /// to `shape` when given. Returns each rank's result and the lane
    /// count it ran with.
    fn cluster_allreduce(
        sizes: &[usize],
        len: usize,
        spec: CodecSpec,
        algorithm: Algorithm,
        shape: Option<(usize, bool)>,
        data: fn(usize, usize) -> Vec<f32>,
    ) -> ccoll_comm::SimRunOutput<(Vec<f32>, Option<usize>)> {
        let topo = Topology::from_node_sizes(sizes);
        let n = topo.world();
        let net = HierNet::cluster_default();
        let cfg = SimConfig::new(n).with_cluster(ClusterNet::new(topo.clone(), net));
        SimWorld::new(cfg).run(move |c| {
            let session = CCollSession::new(spec, n).with_topology(topo.clone(), net);
            let opts = PlanOptions::new().algorithm(algorithm);
            let mut plan = session.plan_allreduce_with(len, ReduceOp::Sum, opts);
            if let Some((lanes, streamed)) = shape {
                plan.kind.lanes = lanes;
                plan.kind.streamed = streamed;
            }
            let input = data(c.rank(), len);
            let first = plan.execute(c, &input);
            // Repeat: the cached split must be reusable.
            assert_eq!(first, plan.execute(c, &input), "repeat unstable");
            (first, plan.hier_lanes())
        })
    }

    /// Body of the proptest below.
    fn check_lanes_bitwise(sizes: &[usize], len: usize) {
        let run = |a, shape| cluster_allreduce(sizes, len, CodecSpec::None, a, shape, int_data);
        let ring = run(Algorithm::Ring, None);
        for lanes in 1..=*sizes.iter().min().expect("non-empty") {
            for streamed in [false, true] {
                let hier = run(Algorithm::Hierarchical, Some((lanes, streamed)));
                for (r, (h, flat)) in hier.results.iter().zip(&ring.results).enumerate() {
                    let shape = (lanes, streamed);
                    assert_eq!(
                        h.0, flat.0,
                        "rank {r} of {sizes:?} at (lanes, streamed) {shape:?}"
                    );
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        // Lossless, the laned schedule leaves the flat ring's bits on
        // every rank at every lane count an asymmetric topology admits,
        // with either group-leg shape.
        #[test]
        fn laned_hierarchical_matches_flat_ring_bitwise(
            sizes in proptest::collection::vec(1usize..=5, 2..=4),
            len in 1usize..500,
        ) {
            check_lanes_bitwise(&sizes, len);
        }
    }

    const SZX: CodecSpec = CodecSpec::Szx { error_bound: 1e-3 };

    /// The two ends of the lane range are the shapes the transposed
    /// order degenerates to, message for message: per-rank (messages,
    /// bytes) of two executions on a 4x4 cluster. One lane is the
    /// single-leader schedule this machine replaced, messages as captured
    /// at the last commit that had that schedule (ed3c63b), SZx bytes
    /// re-pinned for grid-anchored block bases and again for delta-coded
    /// blocks; the group
    /// tree's raw edges now stream their 10 000 values in two
    /// sub-chunks, so each member's messages up the tree double, and the
    /// fan-out down it stays one message per edge. Four lanes — groups
    /// of one, every rank an owner — is the node reduce-scatter first,
    /// as the group-first order sent it.
    #[test]
    fn one_lane_sends_what_the_single_leader_schedule_sent() {
        let sent = |lanes| {
            let shape = Some((lanes, false));
            let out = cluster_allreduce(
                &[4; 4],
                10_000,
                SZX,
                Algorithm::Hierarchical,
                shape,
                rank_data,
            );
            let sent = out.traffics.iter().map(|t| (t.messages_sent, t.bytes_sent));
            sent.collect::<Vec<_>>()
        };
        let leader: Vec<_> = [188_776, 188_800, 188_942, 188_894]
            .into_iter()
            .flat_map(|leader| [(12, leader), (4, 80_000), (6, 160_000), (4, 80_000)])
            .collect();
        assert_eq!(sent(1), leader);
        let owners: Vec<_> = [
            127_326, 127_302, 127_202, 127_380, 127_358, 127_244, 127_264, 127_382, 127_444,
            127_244, 127_272, 127_328, 127_376, 127_218, 127_328, 127_334,
        ]
        .into_iter()
        .map(|bytes| (20, bytes))
        .collect();
        assert_eq!(sent(4), owners);
    }

    /// Every lane count and group-leg shape moves the bytes the
    /// group-first order moved — (s − 1)·d per node each way plus the
    /// lanes' inter-node legs — on a uniform cluster and on ragged nodes,
    /// where a partial row folds into the row above and gets the result
    /// back: raw totals of two executions, as that order sent them.
    #[test]
    fn every_lane_count_sends_the_group_first_bytes() {
        for (sizes, parent) in [(&[4; 4][..], 2_400_000), (&[3, 5, 4][..], 1_760_000)] {
            for lanes in 1..=*sizes.iter().min().expect("non-empty") {
                for streamed in [false, true] {
                    let shape = Some((lanes, streamed));
                    let out = cluster_allreduce(
                        sizes,
                        10_000,
                        CodecSpec::None,
                        Algorithm::Hierarchical,
                        shape,
                        rank_data,
                    );
                    let bytes: u64 = out.traffics.iter().map(|t| t.bytes_sent).sum();
                    assert_eq!(bytes, parent, "{sizes:?} at (lanes, streamed) {shape:?}");
                }
            }
        }
    }

    /// The cost model's shape, run in the simulator it models: never
    /// slower than the one-lane binomial schedule, and within a few
    /// percent of the best shape — lane count, group-leg shape — the
    /// simulator can find: 10 % on 8×4 from 64 Ki values up, 2 % on 4×4
    /// at 16 Ki, raw (lock-step lanes) and SZx. (Below 64 Ki on 8×4 only
    /// the one-lane bound holds.)
    #[test]
    fn derived_lane_count_is_near_the_best_simulated_one() {
        let wide = [4 << 10, 64 << 10, 1 << 20].map(|len| {
            let slack = if len >= 64 << 10 { 1.10 } else { f64::INFINITY };
            (&[8; 4][..], len, SZX, slack)
        });
        let small = [CodecSpec::None, SZX].map(|spec| (&[4; 4][..], 16 << 10, spec, 1.02));
        for (sizes, len, spec, slack) in wide.into_iter().chain(small) {
            let run = |shape| {
                cluster_allreduce(sizes, len, spec, Algorithm::Hierarchical, shape, rank_data)
            };
            let own = run(None);
            let lanes = (0..).map(|i| 1 << i).take_while(|&l| l <= sizes[0]);
            let forced: Vec<_> = [false, true]
                .into_iter()
                .flat_map(|s| lanes.clone().map(move |l| (l, s)))
                .map(|shape| run(Some(shape)).makespan)
                .collect();
            let best = forced.iter().min().expect("non-empty");
            let one_lane = forced[0];
            assert!(
                own.makespan <= one_lane
                    && own.makespan.as_secs_f64() <= slack * best.as_secs_f64(),
                "{sizes:?} {len} values {spec:?}: {:?} lanes take {:?}, one lane {one_lane:?}, \
                 the best shape {best:?}",
                own.results[0].1,
                own.makespan,
            );
        }
    }

    #[test]
    fn hierarchical_allreduce_is_error_bounded_with_szx() {
        let n = 6;
        let len = 9000;
        let eb = 1e-3f32;
        let world = SimWorld::new(SimConfig::new(n));
        let out = world.run(move |c| {
            let session = CCollSession::new(CodecSpec::Szx { error_bound: eb }, n)
                .with_topology(Topology::uniform(3, 2), HierNet::cluster_default());
            let mut plan = session.plan_allreduce_with(
                len,
                ReduceOp::Sum,
                PlanOptions::new().algorithm(Algorithm::Hierarchical),
            );
            plan.execute(c, &rank_data(c.rank(), len))
        });
        let inputs: Vec<Vec<f32>> = (0..n).map(|r| rank_data(r, len)).collect();
        let expect = ReduceOp::Sum.oracle(&inputs);
        // Local reduce, compressed leader butterfly, local fan-out: the
        // accumulated bound stays linear in the hop count.
        let tol = 4.0 * (n as f32) * eb;
        for r in 0..n {
            for (a, b) in out.results[r].iter().zip(&expect) {
                assert!((a - b).abs() <= tol, "rank {r}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn hierarchical_allgather_round_trips_on_asymmetric_nodes() {
        let n = 6;
        let len = 800;
        let world = SimWorld::new(SimConfig::new(n));
        let out = world.run(move |c| {
            // Asymmetric split: nodes of 2, 3 and 1 ranks.
            let topo = Topology::from_node_sizes(&[2, 3, 1]);
            let session = CCollSession::new(CodecSpec::None, n)
                .with_topology(topo, HierNet::cluster_default());
            let mut plan = session
                .plan_allgather_with(len, PlanOptions::new().algorithm(Algorithm::Hierarchical));
            assert_eq!(plan.algorithm(), Algorithm::Hierarchical);
            plan.execute(c, &int_data(c.rank(), len))
        });
        for r in 0..n {
            for src in 0..n {
                let expect = int_data(src, len);
                let got = &out.results[r][src * len..(src + 1) * len];
                assert_eq!(expect.as_slice(), got, "rank {r} src {src}");
            }
        }
    }

    #[test]
    fn hierarchical_bcast_delivers_from_off_node_root() {
        let n = 8;
        let len = 5000;
        let eb = 1e-3f32;
        let root = 5; // node 2 under uniform(4, 2): exercises root→leader glue
        let world = SimWorld::new(SimConfig::new(n));
        let out = world.run(move |c| {
            let session = CCollSession::new(CodecSpec::Szx { error_bound: eb }, n)
                .with_topology(Topology::uniform(4, 2), HierNet::cluster_default());
            let mut plan = session.plan_bcast_with(
                root,
                len,
                PlanOptions::new().algorithm(Algorithm::Hierarchical),
            );
            assert_eq!(plan.algorithm(), Algorithm::Hierarchical);
            let data = if c.rank() == root {
                rank_data(root, len)
            } else {
                Vec::new()
            };
            plan.execute(c, &data)
        });
        let expect = rank_data(root, len);
        for r in 0..n {
            for (a, b) in out.results[r].iter().zip(&expect) {
                // Compress-once at the root: single-bound error.
                assert!((a - b).abs() <= eb + 1e-7, "rank {r}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn bruck_alltoall_matches_pairwise_bitwise() {
        let n = 6;
        let len = 6 * 250;
        let world = SimWorld::new(SimConfig::new(n));
        let out = world.run(move |c| {
            let session = CCollSession::new(CodecSpec::None, n);
            let mut pairwise = session.plan_alltoall(len);
            let mut bruck =
                session.plan_alltoall_with(len, PlanOptions::new().algorithm(Algorithm::Bruck));
            assert_eq!(bruck.algorithm(), Algorithm::Bruck);
            let input = rank_data(c.rank(), len);
            let p = pairwise.execute(c, &input);
            let b = bruck.execute(c, &input);
            (p, b)
        });
        for (r, (p, b)) in out.results.iter().enumerate() {
            // Pure data movement — store-and-forward must be exact.
            assert_eq!(p, b, "rank {r}: bruck != pairwise");
        }
    }

    #[test]
    fn auto_allreduce_calibrates_net_scales_online() {
        let n = 4;
        let len = 20_000;
        let world = SimWorld::new(SimConfig::new(n));
        let out = world.run(move |c| {
            // A wildly optimistic network model: predicted makespans sit
            // far below anything the simulator can measure, so every
            // calibration round sees measured/predicted >> 1 and the
            // α–β scales must correct upward.
            let session = CCollSession::new(CodecSpec::None, n).with_net_model(NetModel {
                latency: Duration::from_nanos(1),
                bandwidth: 1e13,
            });
            assert_eq!(session.net_calibration(), (1.0, 1.0));
            let mut plan = session.plan_allreduce_with(len, ReduceOp::Sum, PlanOptions::new());
            let input = int_data(c.rank(), len);
            let mut out = vec![0.0f32; len];
            // Past two calibration periods (executions 4 and 8 trigger
            // on the starts that follow them).
            for _ in 0..10 {
                plan.execute_into(c, &input, &mut out);
            }
            (session.net_calibration(), out[len / 2])
        });
        let inputs: Vec<Vec<f32>> = (0..n).map(|r| int_data(r, len)).collect();
        let expect = ReduceOp::Sum.oracle(&inputs);
        for (r, &((alpha, beta), sample)) in out.results.iter().enumerate() {
            assert!(
                alpha > 1.0 || beta > 1.0,
                "rank {r}: scales never corrected, still ({alpha}, {beta})"
            );
            assert!(
                (1.0 / 64.0..=64.0).contains(&alpha) && (1.0 / 64.0..=64.0).contains(&beta),
                "rank {r}: scales escaped the clamp: ({alpha}, {beta})"
            );
            assert_eq!(sample, expect[len / 2], "rank {r}: result corrupted");
        }
    }

    #[test]
    fn calibration_leaves_an_accurate_model_alone() {
        // With the paper-shaped defaults the sim's measured makespans
        // track the model closely enough that single rounds may still
        // nudge the scales — but they must never fling them to the
        // clamp boundary the way a broken model does.
        let n = 4;
        let len = 20_000;
        let world = SimWorld::new(SimConfig::new(n));
        let out = world.run(move |c| {
            let session = CCollSession::new(CodecSpec::None, n);
            let mut plan = session.plan_allreduce_with(len, ReduceOp::Sum, PlanOptions::new());
            let input = int_data(c.rank(), len);
            let mut out = vec![0.0f32; len];
            for _ in 0..10 {
                plan.execute_into(c, &input, &mut out);
            }
            session.net_calibration()
        });
        for (r, &(alpha, beta)) in out.results.iter().enumerate() {
            assert!(
                alpha < 64.0 && beta < 64.0 && alpha > 1.0 / 64.0 && beta > 1.0 / 64.0,
                "rank {r}: calibration of a sane model hit the clamp: ({alpha}, {beta})"
            );
        }
    }

    #[test]
    #[should_panic(expected = "hierarchical allreduce needs a session topology")]
    fn hierarchical_plan_requires_topology() {
        let session = CCollSession::new(CodecSpec::None, 4);
        let _ = session.plan_allreduce_with(
            100,
            ReduceOp::Sum,
            PlanOptions::new().algorithm(Algorithm::Hierarchical),
        );
    }

    #[test]
    fn auto_plans_go_hierarchical_on_clusters() {
        let session = CCollSession::new(CodecSpec::Szx { error_bound: 1e-3 }, 128)
            .with_topology(Topology::uniform(8, 16), HierNet::cluster_default());
        let plan = session.plan_allreduce_with(16 * 1024, ReduceOp::Sum, PlanOptions::new());
        assert_eq!(
            plan.algorithm(),
            Algorithm::Hierarchical,
            "leader-only inter traffic should beat contended flat schedules"
        );
    }

    #[test]
    fn fxr_codec_falls_back_to_nd_schedule() {
        // No error bound, so nothing can drive the SZx pipeline: the
        // default allreduce plan runs ND (CPR-P2P reduce-scatter +
        // compress-once allgather) instead.
        let n = 4;
        let len = 4096;
        let world = SimWorld::new(SimConfig::new(n));
        let out = world.run(move |c| {
            let session = CCollSession::new(CodecSpec::ZfpFxr { rate: 16 }, n);
            let mut plan = session.plan_allreduce(len, ReduceOp::Sum);
            plan.execute(c, &rank_data(c.rank(), len))
        });
        // Rate 16 is near-lossless on smooth data; just check plausibility.
        let inputs: Vec<Vec<f32>> = (0..n).map(|r| rank_data(r, len)).collect();
        let expect = ReduceOp::Sum.oracle(&inputs);
        for (a, b) in out.results[0].iter().zip(&expect) {
            assert!((a - b).abs() < 0.1, "{a} vs {b}");
        }
    }

    #[test]
    fn variant_plans_cover_table_v() {
        let n = 4;
        let len = 8000;
        let eb = 1e-3f32;
        for variant in AllreduceVariant::ALL {
            let world = SimWorld::new(SimConfig::new(n));
            let out = world.run(move |c| {
                let session = CCollSession::new(CodecSpec::Szx { error_bound: eb }, n);
                let mut plan = session.plan_allreduce_variant(len, ReduceOp::Sum, variant);
                plan.execute(c, &rank_data(c.rank(), len))
            });
            let inputs: Vec<Vec<f32>> = (0..n).map(|r| rank_data(r, len)).collect();
            let expect = ReduceOp::Sum.oracle(&inputs);
            let tol = (2 * n) as f32 * eb;
            for r in 0..n {
                for (a, b) in out.results[r].iter().zip(&expect) {
                    assert!((a - b).abs() <= tol, "{} rank {r}", variant.label());
                }
            }
        }
    }
}
