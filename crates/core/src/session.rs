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
//!    and stamps every plan it creates.
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
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ccoll_comm::{
    agree_on_failures, ClusterNet, Comm, CommError, CommView, CostModel, DeadSet, FaultCounters,
    HierNet, NetModel, PayloadPool, Topology,
};

use crate::algorithm::{reject_unsupported, Algorithm, AllreduceVariant, PlanOptions, SelectCtx};
use crate::codec::CodecSpec;
use crate::collectives::cpr_p2p::CprCodec;
use crate::frameworks::computation::{self, PipelineConfig};
use crate::partition::chunk_lengths;
use crate::placement::Placement;
use crate::plan::{
    check_world, Allgather, Allreduce, Alltoall, Bcast, Gather, Plan, PlanCore, Reduce,
    ReduceScatter, RsStage, Scatter,
};
use crate::reduce::ReduceOp;
use crate::workspace::CollWorkspace;

pub use crate::plan::{
    AllgatherHandle, AllgatherPlan, AllreduceHandle, AllreducePlan, AlltoallHandle, AlltoallPlan,
    BcastHandle, BcastPlan, GatherHandle, GatherPlan, ReduceHandle, ReducePlan,
    ReduceScatterHandle, ReduceScatterPlan, ScatterHandle, ScatterPlan,
};

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
    /// Next per-plan tag-space slot (see `op_base` in [`crate::plan`]).
    /// Deliberately a `Cell`, not a shared atomic: a clone *copies* the counter, so a
    /// session cloned into per-rank closures hands out identical slot
    /// sequences on every rank — which is exactly the cross-rank
    /// agreement concurrent tag spaces need. Plans meant to run
    /// concurrently must therefore be created in the same order on
    /// every rank (the same rule collective calls already obey).
    next_slot: Cell<u32>,
    /// Shrink epoch: 0 for a freshly created session, incremented by
    /// each [`CCollSession::recover`]. Stamped into every wire tag by
    /// the [`CommView::shrunk`] view the recovery hands out, so pre-shrink traffic
    /// can never match post-shrink receives.
    epoch: u32,
}

/// Session-owned measured-performance state, shared by every plan the
/// session (and its clones) creates. Plans drain the compression-ratio
/// sample their workspace pool accumulated during each execution and
/// fold it in here; [`Algorithm::Auto`] consults the running average —
/// at plan-creation time for new plans, and through a one-shot post-
/// warm-up re-rank on existing `Auto` plans — so schedule selection
/// tracks the *measured* ratio of the live workload instead of the
/// codec's nominal planning figure.
#[derive(Debug, Default)]
pub(crate) struct SessionFeedback {
    /// EWMA of observed compression ratios, stored as `f64` bits.
    /// Zero (the bits of `0.0`, never a valid ratio) means "no sample
    /// yet". Plain relaxed atomics: ranks own distinct sessions, and a
    /// lost update between clones only delays convergence of the EWMA.
    ratio_bits: AtomicU64,
    /// Completed plan executions across every plan this session (and its
    /// clones) created.
    executions: AtomicU64,
    /// EWMA of per-execution makespans in nanoseconds (0 = no sample).
    makespan_ewma_nanos: AtomicU64,
    /// Wait timeouts absorbed by a re-armed retry, across all plans.
    retries: AtomicU64,
    /// Total wait timeouts observed, across all plans.
    timeouts: AtomicU64,
    /// Executions that aborted on an unrecoverable fault.
    aborts: AtomicU64,
    /// Operations currently in flight across every plan this session
    /// (and its clones) created: incremented by each plan `start()`,
    /// decremented when the operation's handle is dropped (whether it
    /// completed, aborted, or was abandoned mid-operation).
    pub(crate) live_ops: AtomicU64,
    /// Communicator shrinks performed through [`CCollSession::recover`]
    /// (each successful survivor agreement counts once, even when the
    /// agreed dead-set turned out empty — the epoch still advanced).
    shrinks: AtomicU64,
    /// Survivor-agreement coordinator rounds summed across shrinks (one
    /// round per coordinator tried; >1 means a coordinator died
    /// mid-agreement).
    agreement_rounds: AtomicU64,
    /// Dead-epoch messages and stale posted receives discarded when a
    /// shrunk communicator purged pre-shrink traffic.
    stale_discarded: AtomicU64,
    /// Online α–β calibration corrections, stored as `f64` bits (the
    /// zero bit-pattern — never a valid scale — means "uncalibrated"
    /// and decodes to 1.0). Written only with values derived from a
    /// communicator-agreed measurement ratio, and always *stored* (not
    /// read-modify-written) so ranks sharing one feedback through
    /// session clones apply a round's identical correction idempotently.
    alpha_scale_bits: AtomicU64,
    /// β counterpart of `alpha_scale_bits`: the model bandwidth is
    /// divided by this scale.
    beta_scale_bits: AtomicU64,
}

impl SessionFeedback {
    fn record_ratio(&self, sample: f64) {
        if !(sample.is_finite() && sample > 0.0) {
            return;
        }
        let next = match self.ratio() {
            Some(prev) => 0.5 * prev + 0.5 * sample,
            None => sample,
        };
        self.ratio_bits.store(next.to_bits(), Ordering::Relaxed);
    }

    pub(crate) fn ratio(&self) -> Option<f64> {
        let bits = self.ratio_bits.load(Ordering::Relaxed);
        if bits == 0 {
            None
        } else {
            Some(f64::from_bits(bits))
        }
    }

    pub(crate) fn record_execution(&self, makespan: Duration) {
        self.executions.fetch_add(1, Ordering::Relaxed);
        let ns = (makespan.as_nanos() as u64).max(1);
        let prev = self.makespan_ewma_nanos.load(Ordering::Relaxed);
        let next = if prev == 0 { ns } else { prev / 2 + ns / 2 };
        self.makespan_ewma_nanos.store(next, Ordering::Relaxed);
    }

    fn net_scales(&self) -> (f64, f64) {
        let decode = |bits: u64| if bits == 0 { 1.0 } else { f64::from_bits(bits) };
        (
            decode(self.alpha_scale_bits.load(Ordering::Relaxed)),
            decode(self.beta_scale_bits.load(Ordering::Relaxed)),
        )
    }

    pub(crate) fn store_net_scales(&self, alpha: f64, beta: f64) {
        self.alpha_scale_bits
            .store(alpha.to_bits(), Ordering::Relaxed);
        self.beta_scale_bits
            .store(beta.to_bits(), Ordering::Relaxed);
    }

    pub(crate) fn record_faults(&self, delta: FaultCounters) {
        if delta.retries > 0 {
            self.retries.fetch_add(delta.retries, Ordering::Relaxed);
        }
        if delta.timeouts > 0 {
            self.timeouts.fetch_add(delta.timeouts, Ordering::Relaxed);
        }
        if delta.aborts > 0 {
            self.aborts.fetch_add(delta.aborts, Ordering::Relaxed);
        }
    }
}

/// Aggregate measured-performance state of one session (see
/// [`CCollSession::stats`]): every plan the session created feeds its
/// per-execution sample in here on completion, so this is the
/// session-wide companion of the per-plan [`PlanStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SessionStats {
    /// Completed plan executions across all of this session's plans.
    pub executions: u64,
    /// Exponentially weighted running average of per-execution makespans
    /// on the backend clock ([`Duration::ZERO`] until the first sample).
    pub ewma_makespan: Duration,
    /// The session's measured compression-ratio EWMA (the same value
    /// [`CCollSession::measured_ratio`] reports).
    pub measured_ratio: Option<f64>,
    /// Wait timeouts absorbed by re-armed retries across all plans
    /// (zero unless a fault policy is active).
    pub retries: u64,
    /// Total wait timeouts observed across all plans.
    pub timeouts: u64,
    /// Executions that aborted on an unrecoverable fault.
    pub aborts: u64,
    /// Communicator shrinks performed through [`CCollSession::recover`]
    /// (zero on any fault-free session — recovery costs nothing unless
    /// entered).
    pub shrinks: u64,
    /// Survivor-agreement coordinator rounds summed across shrinks.
    pub agreement_rounds: u64,
    /// Dead-epoch messages and stale posted receives discarded when
    /// shrunk communicators purged pre-shrink traffic.
    pub stale_discarded: u64,
}

/// Measured per-execution statistics a plan accumulates (see
/// [`AllreducePlan::stats`] — every plan type exposes the same `stats`
/// accessor): how often it ran, how long the last execution took end to
/// end on its backend's clock (virtual time on the simulator, wall time
/// on threads), a running average of those makespans, and the
/// compression ratio its codec achieved on the live data. Nonblocking
/// executions measure `start` → completion, so overlapped caller compute
/// is included — the number an overlap study wants.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PlanStats {
    /// Completed executions (blocking `execute_into` calls plus
    /// completed `start`/`progress`/`complete` cycles).
    pub executions: u64,
    /// End-to-end duration of the most recent execution.
    pub last_makespan: Duration,
    /// Exponentially weighted running average of execution makespans
    /// ([`Duration::ZERO`] until the first execution).
    pub ewma_makespan: Duration,
    /// Compression ratio measured during the most recent execution, if
    /// the plan's codec compressed anything.
    pub observed_ratio: Option<f64>,
    /// Wait timeouts this plan's executions absorbed with a re-armed
    /// retry (zero unless a fault policy is active on the `Comm`).
    pub retries: u64,
    /// Total wait timeouts this plan's executions observed.
    pub timeouts: u64,
    /// Executions of this plan that aborted on an unrecoverable fault.
    pub aborts: u64,
    /// Communicator shrinks this plan has been re-planned through (see
    /// the plan's `recover` method).
    pub shrinks: u64,
}

impl PlanStats {
    /// Fold one completed execution into the stats.
    pub(crate) fn record(&mut self, makespan: Duration) {
        self.executions += 1;
        self.last_makespan = makespan;
        self.ewma_makespan = if self.executions == 1 {
            makespan
        } else {
            self.ewma_makespan / 2 + makespan / 2
        };
    }

    /// Fold the fault counters one execution accrued into the stats.
    pub(crate) fn fold_faults(&mut self, delta: FaultCounters) {
        self.retries += delta.retries;
        self.timeouts += delta.timeouts;
        self.aborts += delta.aborts;
    }
}

/// Why a collective execution could not complete. Returned by the
/// fallible surface (`try_execute_into`, `try_progress`, `try_complete`)
/// when a fault-policy-governed run hits an unrecoverable fault; the
/// infallible surface panics with the same message instead. Once an
/// execution aborts, its plan is *poisoned* — partially-exchanged state
/// cannot be resumed — and every further use reports
/// [`CollectiveError::Poisoned`] until the plan's `reset()` is called.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveError {
    /// The transport reported an unrecoverable fault (retry budget
    /// exhausted, or a peer died) mid-collective.
    Comm(CommError),
    /// The plan was poisoned by an earlier aborted execution and has
    /// not been `reset()`.
    Poisoned,
    /// The operation's handle was dropped mid-flight: the collective
    /// never completed and the plan's exchanged state is undefined.
    /// Only this plan is poisoned; sibling operations are unaffected.
    Abandoned,
}

impl fmt::Display for CollectiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectiveError::Comm(e) => write!(f, "collective aborted: {e}"),
            CollectiveError::Poisoned => {
                f.write_str("plan poisoned by an earlier aborted execution (reset() to reuse)")
            }
            CollectiveError::Abandoned => f.write_str(
                "operation abandoned: its handle was dropped before completing (reset() to reuse)",
            ),
        }
    }
}

impl std::error::Error for CollectiveError {}

impl From<CommError> for CollectiveError {
    fn from(e: CommError) -> Self {
        CollectiveError::Comm(e)
    }
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
            pipe_values: computation::DEFAULT_PIPE_VALUES,
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

    /// Allocate the next per-operation tag slot. Slots are handed out
    /// in plan-creation order from a session-local counter, so every
    /// rank that creates its plans in the same order (the usual
    /// collective discipline) assigns matching slots — which is what
    /// keeps two concurrently-running operations' wire tags disjoint.
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

    /// Recover from rank death: run the survivor agreement over `comm`,
    /// converge with every live rank on an identical dead-set, and
    /// return a [`Recovery`] describing the shrunk world — a new
    /// session planned for the survivors (sharing this session's
    /// measured-performance feedback, so statistics carry across the
    /// shrink) plus the dead-set/epoch needed to build the
    /// [`CommView::shrunk`] view every post-recovery operation runs on.
    ///
    /// `suspects` seeds the agreement with the ranks this rank already
    /// observed dead (the peers named by [`CommError::PeerDead`] from
    /// the aborted operation — **not** mere timeouts, which may be
    /// congestion). `restart` declares that this rank's last operation
    /// aborted; the agreement ORs it across survivors so ranks whose
    /// operation completed before the failure still learn they must
    /// re-run it on the shrunk world (restart-on-survivors semantics —
    /// see the [`ccoll_comm::recover`] module docs).
    ///
    /// Every surviving rank must call `recover` with the same epoch
    /// history (i.e. the same number of prior recoveries), like any
    /// collective. The poisoned plans themselves are revived afterwards
    /// with their `recover(&Recovery)` methods. Any abort reason still
    /// parked on the communicator's profiler is drained first, so a
    /// post-recovery operation cannot spuriously observe a pre-shrink
    /// failure.
    ///
    /// Returns the structured error when this rank itself is in the
    /// agreed dead-set (it must stop participating) or when the
    /// agreement could not complete inside its timeout budget.
    pub fn recover<C: Comm>(
        &self,
        comm: &mut C,
        suspects: &[usize],
        restart: bool,
    ) -> Result<Recovery, CollectiveError> {
        check_world(comm, self.world_size);
        let _ = comm.profiler().take_error();
        let epoch = self.epoch + 1;
        let mut suspect_set = DeadSet::EMPTY;
        for &s in suspects {
            if s < self.world_size {
                suspect_set.insert(s);
            }
        }
        let agreement =
            agree_on_failures(comm, epoch, suspect_set, restart).map_err(CollectiveError::Comm)?;
        let members: Vec<usize> = (0..self.world_size)
            .filter(|&r| !agreement.dead.contains(r))
            .collect();
        let session = CCollSession {
            spec: self.spec,
            pipe_values: self.pipe_values,
            world_size: members.len(),
            cpr: self.cpr.clone(),
            cost: self.cost.clone(),
            net: self.net,
            // The rank→node map is stale after a shrink (dead ranks
            // leave holes in the node blocks), so the recovered session
            // plans flat; re-attach a survivor topology with
            // `with_topology` if one is known.
            cluster: None,
            feedback: Arc::clone(&self.feedback),
            // Carrying the slot counter forward keeps post-recovery
            // plan creation consistent across survivors that allocated
            // the same plans pre-shrink.
            next_slot: Cell::new(self.next_slot.get()),
            epoch,
        };
        self.feedback.shrinks.fetch_add(1, Ordering::Relaxed);
        self.feedback
            .agreement_rounds
            .fetch_add(u64::from(agreement.rounds), Ordering::Relaxed);
        Ok(Recovery {
            session,
            dead: agreement.dead,
            members,
            epoch,
            rounds: agreement.rounds,
            restart: agreement.restart,
        })
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

    /// Lanes the hierarchical allreduce runs with at `len` values (1
    /// without a topology): the cost model's argmin over inputs that
    /// are identical on every rank — payload, topology, the configured
    /// models, the codec's *nominal* ratio; never a measured ratio or a
    /// calibrated scale — so all ranks agree without a message.
    pub(crate) fn hier_lanes(&self, len: usize) -> usize {
        self.cluster.as_deref().map_or(1, |c| {
            let nominal = self.select_ctx().params(len * 4);
            self.cost.hier_lanes(&c.topo, &c.net, &nominal)
        })
    }

    /// The PIPE sub-chunk size (values) every streamed schedule of this
    /// session uses.
    pub(crate) fn pipe_values(&self) -> usize {
        self.pipe_values
    }

    pub(crate) fn pipeline_config(&self) -> Option<PipelineConfig> {
        let eb = self.spec.error_bound()?;
        Some(PipelineConfig::new(eb).with_chunk_values(self.pipe_values))
    }

    /// A workspace pre-warmed for payloads of up to `values` elements:
    /// the codec scratch fits the largest chunk and the payload pool
    /// holds `slots` buffers at the codec's worst-case compressed size.
    /// A ring schedule keeps up to two payload generations alive at once
    /// (peers release a relayed block only when they enter their next
    /// call), so plans pass at least four slots; pipelined plans scale
    /// `slots` with the number of concurrently in-flight sub-chunks.
    fn warmed_workspace(&self, values: usize, slots: usize) -> CollWorkspace {
        let mut ws = CollWorkspace::with_value_capacity(values);
        let worst = match &self.cpr {
            Some(cpr) => cpr.codec.max_compressed_bytes(values),
            None => values * 4,
        };
        ws.pool = PayloadPool::warmed(slots, worst);
        ws
    }

    /// Pool slots for a pipelined reduce-scatter over `len` values: all
    /// of a round's sub-chunk payloads can be in flight at once, plus
    /// the previous generation not yet released by the receiver.
    fn pipelined_slots(&self, len: usize) -> usize {
        let max_chunk = len.div_ceil(self.world_size);
        max_chunk.div_ceil(self.pipe_values) + 4
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
    fn pipelined_stream_workspace(
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

    /// The workspace an allreduce plan at `len` values needs for
    /// `algorithm` (shared by plan construction and the post-warm-up
    /// re-rank, which must re-warm when it switches schedules).
    pub(crate) fn allreduce_workspace(&self, len: usize, algorithm: Algorithm) -> CollWorkspace {
        match algorithm {
            Algorithm::Ring if self.pipeline_config().is_some() => {
                self.warmed_workspace(self.pipe_values.min(len.max(1)), self.pipelined_slots(len))
            }
            Algorithm::Ring => self.warmed_workspace(len.div_ceil(self.world_size).max(1), 4),
            Algorithm::Rabenseifner if self.pipeline_config().is_some() => {
                self.pipelined_stream_workspace(len.max(1), len)
            }
            // The hierarchical inter leg is a Rabenseifner per lane: its
            // pipelined halving rounds stream d/L values. On top of
            // those sub-chunk slots each of the two raw rings over the
            // node's L owners wants L−1: their sends are eager, so an
            // owner runs up to L−2 steps ahead of a slow right
            // neighbour, which holds every one of those payloads until
            // it reads it. The one-lane shape (a whole-vector stream) is
            // the floor, so a plan never warms less than it used to.
            // The scratch keeps the full length: a group owner decodes
            // whole-vector raw tree hops into it.
            Algorithm::Hierarchical => {
                let lanes = self.hier_lanes(len);
                let rings = 2 * (lanes - 1);
                match self.pipeline_config() {
                    Some(_) => {
                        let laned = len.div_ceil(lanes) + rings * self.pipe_values;
                        self.pipelined_stream_workspace(len.max(1), len.max(laned))
                    }
                    None => self.warmed_workspace(len.max(1), 4 + rings),
                }
            }
            _ => self.warmed_workspace(len.max(1), 4),
        }
    }

    /// The workspace an allgather plan needs for `algorithm`: the
    /// hierarchical schedule's scratch must fit the largest *node
    /// block* (the inter-node ring moves whole node aggregates), flat
    /// schedules only the largest per-rank chunk.
    pub(crate) fn allgather_workspace(
        &self,
        max_chunk: usize,
        algorithm: Algorithm,
    ) -> CollWorkspace {
        let values = match (algorithm, self.cluster.as_deref()) {
            (Algorithm::Hierarchical, Some(c)) => c.topo.max_node_size() * max_chunk,
            _ => max_chunk,
        };
        self.warmed_workspace(values.max(1), 4)
    }

    // ------------------------------------------------------------------
    // Plan constructors.
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
    /// (cost-model selection over all of them).
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
        let algorithm = match opts.algorithm {
            Algorithm::Auto => self.select_ctx().allreduce(len),
            a @ (Algorithm::Ring | Algorithm::RecursiveDoubling | Algorithm::Rabenseifner) => a,
            Algorithm::Hierarchical => {
                assert!(
                    self.cluster.is_some(),
                    "hierarchical allreduce needs a session topology (with_topology)"
                );
                Algorithm::Hierarchical
            }
            other => reject_unsupported(
                "allreduce",
                other,
                &[
                    Algorithm::Ring,
                    Algorithm::RecursiveDoubling,
                    Algorithm::Rabenseifner,
                    Algorithm::Hierarchical,
                ],
            ),
        };
        // Butterfly schedules exchange up to the full payload per round
        // (recursive doubling) or half of it (Rabenseifner); warm the
        // scratch and pool for the full length. Plans created with
        // `Auto` stay adaptive: after warm-up they re-rank once from the
        // session's measured compression ratio.
        let mut plan = if algorithm == Algorithm::Ring {
            self.plan_allreduce_variant(len, op, AllreduceVariant::Overlapped)
        } else {
            let ws = self.allreduce_workspace(len, algorithm);
            self.allreduce_plan(len, op, AllreduceVariant::Overlapped, algorithm, ws)
        };
        plan.kind.auto = opts.algorithm == Algorithm::Auto;
        plan
    }

    fn allreduce_plan(
        &self,
        len: usize,
        op: ReduceOp,
        variant: AllreduceVariant,
        algorithm: Algorithm,
        ws: CollWorkspace,
    ) -> AllreducePlan {
        Plan {
            core: PlanCore::new(self, algorithm, ws),
            kind: Allreduce {
                len,
                op,
                variant,
                auto: false,
                reranked: false,
                lanes: self.hier_lanes(len),
            },
        }
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
        let max_chunk = len.div_ceil(self.world_size);
        let (values, slots) = match variant {
            // Pipelined compression never sees more than one sub-chunk,
            // but keeps many sub-chunk payloads in flight. Codecs that
            // cannot drive the pipeline (no error bound) fall back to
            // the ND schedule at execute time, so warm for full chunks.
            AllreduceVariant::Overlapped if self.pipeline_config().is_some() => {
                (self.pipe_values.min(len.max(1)), self.pipelined_slots(len))
            }
            _ => (max_chunk, 4),
        };
        let ws = self.warmed_workspace(values, slots);
        self.allreduce_plan(len, op, variant, Algorithm::Ring, ws)
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
        assert_eq!(
            counts.len(),
            self.world_size,
            "counts must have one entry per rank"
        );
        let algorithm = match opts.algorithm {
            Algorithm::Auto => Allgather::select(counts, self.select_ctx()),
            a @ (Algorithm::Ring | Algorithm::Bruck) => a,
            Algorithm::Hierarchical => {
                assert!(
                    self.cluster.is_some(),
                    "hierarchical allgather needs a session topology (with_topology)"
                );
                // The hierarchical layout aggregates per-node blocks,
                // which only line up when every rank contributes the
                // same count.
                assert!(
                    counts.windows(2).all(|w| w[0] == w[1]),
                    "hierarchical allgather requires equal per-rank counts"
                );
                Algorithm::Hierarchical
            }
            other => reject_unsupported(
                "allgather",
                other,
                &[Algorithm::Ring, Algorithm::Bruck, Algorithm::Hierarchical],
            ),
        };
        let ws = self.allgather_workspace(Allgather::max_chunk(counts), algorithm);
        Plan {
            core: PlanCore::new(self, algorithm, ws),
            kind: Allgather {
                counts: counts.to_vec(),
                total: counts.iter().sum(),
                auto: opts.algorithm == Algorithm::Auto,
                reranked: false,
            },
        }
    }

    /// Plan a reduce-scatter of `len` values per rank; rank `r` receives
    /// chunk `r` of the balanced partition.
    #[must_use]
    pub fn plan_reduce_scatter(&self, len: usize, op: ReduceOp) -> ReduceScatterPlan {
        Plan {
            core: PlanCore::new(self, Algorithm::Ring, self.reduce_scatter_workspace(len)),
            kind: ReduceScatter {
                len,
                op,
                counts: chunk_lengths(len, self.world_size),
            },
        }
    }

    /// [`CCollSession::plan_reduce_scatter`] with explicit
    /// [`PlanOptions`]. The only reduce-scatter schedule is the
    /// (pipelined) ring, so [`Algorithm::Auto`] and [`Algorithm::Ring`]
    /// are accepted.
    ///
    /// # Panics
    /// Panics on an unsupported algorithm.
    #[must_use]
    pub fn plan_reduce_scatter_with(
        &self,
        len: usize,
        op: ReduceOp,
        opts: PlanOptions,
    ) -> ReduceScatterPlan {
        match opts.algorithm {
            Algorithm::Auto | Algorithm::Ring => self.plan_reduce_scatter(len, op),
            other => reject_unsupported("reduce-scatter", other, &[Algorithm::Ring]),
        }
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
        assert!(root < self.world_size, "root {root} out of range");
        // With a codec the payload streams in sub-chunks. A relay that
        // keeps up holds one sub-chunk per tree level in flight (a slot
        // is released once the deepest leaf has decoded it), so the pool
        // is warmed for that window, not for the payload; a rank posts
        // every sub-chunk receive up front and keeps at most one queued
        // send per child per sub-chunk. The codec scratch keeps the
        // whole-payload *capacity* it always had (only one sub-chunk of
        // it is ever touched): shrinking it tips the allocator into
        // re-zeroing a caller's freshly allocated output buffer on every
        // set-up, which costs far more than the reservation (DESIGN.md,
        // "Streamed data movement"). Without a codec: one raw message.
        let ws = match &self.cpr {
            Some(_) => {
                let chunks = len.div_ceil(self.pipe_values).max(1);
                let depth = self.world_size.next_power_of_two().trailing_zeros() as usize;
                let window = len.min(self.pipe_values * depth);
                let mut ws = self.pipelined_stream_workspace(len.max(1), window);
                ws.rreqs.reserve(chunks);
                ws.sreqs.reserve(chunks * depth);
                ws
            }
            None => self.warmed_workspace(len, 4),
        };
        Plan {
            core: PlanCore::new(self, Algorithm::Binomial, ws),
            kind: Bcast {
                root,
                len,
                root_node: 0,
            },
        }
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
        let algorithm = match opts.algorithm {
            Algorithm::Auto => self.select_ctx().bcast(len),
            Algorithm::Binomial => Algorithm::Binomial,
            Algorithm::Hierarchical => {
                assert!(
                    self.cluster.is_some(),
                    "hierarchical bcast needs a session topology (with_topology)"
                );
                Algorithm::Hierarchical
            }
            other => reject_unsupported(
                "bcast",
                other,
                &[Algorithm::Binomial, Algorithm::Hierarchical],
            ),
        };
        let mut plan = self.plan_bcast(root, len);
        plan.core.algorithm = algorithm;
        if algorithm == Algorithm::Hierarchical {
            let cluster = self.cluster.as_ref().expect("checked above");
            plan.kind.root_node = cluster.topo.node_of(root);
        }
        plan
    }

    /// Plan a scatter of the balanced partition of `total_len` values
    /// from `root`; rank `r` receives chunk `r`.
    ///
    /// # Panics
    /// Panics if `root` is out of range.
    #[must_use]
    pub fn plan_scatter(&self, root: usize, total_len: usize) -> ScatterPlan {
        assert!(root < self.world_size, "root {root} out of range");
        Plan {
            core: PlanCore::new(
                self,
                Algorithm::Binomial,
                self.warmed_workspace(total_len, 4),
            ),
            kind: Scatter {
                root,
                total_len,
                counts: chunk_lengths(total_len, self.world_size),
            },
        }
    }

    /// [`CCollSession::plan_scatter`] with explicit [`PlanOptions`]
    /// ([`Algorithm::Auto`] or [`Algorithm::Binomial`]).
    ///
    /// # Panics
    /// Panics if `root` is out of range or on an unsupported algorithm.
    #[must_use]
    pub fn plan_scatter_with(
        &self,
        root: usize,
        total_len: usize,
        opts: PlanOptions,
    ) -> ScatterPlan {
        match opts.algorithm {
            Algorithm::Auto | Algorithm::Binomial => self.plan_scatter(root, total_len),
            other => reject_unsupported("scatter", other, &[Algorithm::Binomial]),
        }
    }

    /// Plan a gather of the balanced partition of `total_len` values to
    /// `root`.
    ///
    /// # Panics
    /// Panics if `root` is out of range.
    #[must_use]
    pub fn plan_gather(&self, root: usize, total_len: usize) -> GatherPlan {
        assert!(root < self.world_size, "root {root} out of range");
        Plan {
            core: PlanCore::new(
                self,
                Algorithm::Binomial,
                self.warmed_workspace(total_len, 4),
            ),
            kind: Gather {
                root,
                total_len,
                counts: chunk_lengths(total_len, self.world_size),
            },
        }
    }

    /// [`CCollSession::plan_gather`] with explicit [`PlanOptions`]
    /// ([`Algorithm::Auto`] or [`Algorithm::Binomial`]).
    ///
    /// # Panics
    /// Panics if `root` is out of range or on an unsupported algorithm.
    #[must_use]
    pub fn plan_gather_with(&self, root: usize, total_len: usize, opts: PlanOptions) -> GatherPlan {
        match opts.algorithm {
            Algorithm::Auto | Algorithm::Binomial => self.plan_gather(root, total_len),
            other => reject_unsupported("gather", other, &[Algorithm::Binomial]),
        }
    }

    /// Plan an all-to-all over `len` values per rank (`len` must divide
    /// evenly by the world size).
    ///
    /// # Panics
    /// Panics if `len` is not divisible by the world size.
    #[must_use]
    pub fn plan_alltoall(&self, len: usize) -> AlltoallPlan {
        assert!(
            len.is_multiple_of(self.world_size),
            "all-to-all buffer ({len}) must divide evenly across {} ranks",
            self.world_size
        );
        Plan {
            core: PlanCore::new(
                self,
                Algorithm::Pairwise,
                self.warmed_workspace(len / self.world_size, 4),
            ),
            kind: Alltoall { len },
        }
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
        let world = self.world_size;
        let algorithm = match opts.algorithm {
            Algorithm::Auto => self.select_ctx().alltoall(len / world.max(1)),
            a @ (Algorithm::Pairwise | Algorithm::Bruck) => a,
            other => reject_unsupported(
                "all-to-all",
                other,
                &[Algorithm::Pairwise, Algorithm::Bruck],
            ),
        };
        let mut plan = self.plan_alltoall(len);
        plan.core.algorithm = algorithm;
        if algorithm == Algorithm::Bruck {
            // Bruck rounds forward up to ceil(world/2) blocks per hop.
            let block = len / world.max(1);
            plan.core.ws = self.warmed_workspace((block * world.div_ceil(2)).max(1), 6);
        }
        plan
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
        assert!(root < self.world_size, "root {root} out of range");
        let algorithm = match opts.algorithm {
            Algorithm::Auto => self.select_ctx().reduce(len),
            a @ (Algorithm::Rabenseifner | Algorithm::Binomial) => a,
            other => reject_unsupported(
                "reduce",
                other,
                &[Algorithm::Rabenseifner, Algorithm::Binomial],
            ),
        };
        let (ws, rs) = self.reduce_workspaces(len, algorithm);
        let plan = Plan {
            core: PlanCore::new(self, algorithm, ws),
            kind: Reduce {
                root,
                len,
                op,
                auto: opts.algorithm == Algorithm::Auto,
                reranked: false,
                rs,
            },
        };
        if algorithm != Algorithm::Binomial {
            // The reduce-scatter and gather stages each reserve a tag
            // slot after the plan's own. Both stages run under the
            // plan's base, so the two are unused on the wire — but plans
            // created after this one keep the slots, and therefore the
            // wire tags, they have always had.
            self.alloc_slot();
            self.alloc_slot();
        }
        plan
    }

    /// The schedule-specific state a reduce plan needs — the plan's main
    /// workspace plus, for the composition, its reduce-scatter stage
    /// (shared by plan construction and the post-warm-up re-rank, which
    /// rebuilds both when the agreed measured ratio flips the schedule).
    pub(crate) fn reduce_workspaces(
        &self,
        len: usize,
        algorithm: Algorithm,
    ) -> (CollWorkspace, Option<RsStage>) {
        match algorithm {
            // The pipelined tree streams the full buffer per hop in
            // sub-chunks; warm one pool slot per in-flight payload.
            Algorithm::Binomial => {
                let ws = match self.pipeline_config() {
                    Some(_) => {
                        self.pipelined_stream_workspace(self.pipe_values.min(len.max(1)), len)
                    }
                    None => self.warmed_workspace(len.max(1), 4),
                };
                (ws, None)
            }
            // Reduce-scatter into `mine`, then gather the reduced chunks
            // at the root: the gather stage owns the main workspace.
            _ => {
                let stage = RsStage {
                    ws: self.reduce_scatter_workspace(len),
                    counts: chunk_lengths(len, self.world_size),
                    mine: Vec::new(),
                };
                (self.warmed_workspace(len, 4), Some(stage))
            }
        }
    }

    /// The workspace a (pipelined) ring reduce-scatter of `len` values
    /// needs.
    fn reduce_scatter_workspace(&self, len: usize) -> CollWorkspace {
        let (values, slots) = match self.pipeline_config() {
            Some(_) => (self.pipe_values.min(len.max(1)), self.pipelined_slots(len)),
            None => (len.div_ceil(self.world_size), 4),
        };
        self.warmed_workspace(values, slots)
    }

    /// The compression placement of this session's reducing hops
    /// (reduce-scatter, Rabenseifner, tree reduce): piped for a codec
    /// with an error bound, monolithic CPR for one without, raw for none.
    pub(crate) fn placement(&self) -> Placement {
        match (self.pipeline_config(), self.cpr.is_some()) {
            (Some(cfg), _) => Placement::Piped(cfg),
            (None, true) => Placement::Cpr,
            (None, false) => Placement::Raw,
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

/// The outcome of one communicator shrink (see [`CCollSession::recover`]):
/// the agreed dead-set, the new shrink epoch, and a session re-planned
/// for the dense survivor world. Hand each poisoned plan to its
/// `recover(&Recovery)` method to re-plan it, and wrap the underlying
/// communicator with [`Recovery::comm`] for every post-shrink operation.
#[derive(Debug)]
pub struct Recovery {
    session: CCollSession,
    dead: DeadSet,
    /// Survivors' pre-shrink ranks in ascending order; index = new rank.
    members: Vec<usize>,
    epoch: u32,
    rounds: u32,
    restart: bool,
}

impl Recovery {
    /// The session planned for the shrunk world. It shares the original
    /// session's measured-performance feedback (statistics carry across
    /// the shrink) and carries the new epoch.
    pub fn session(&self) -> &CCollSession {
        &self.session
    }

    /// The agreed dead-set, in pre-shrink rank numbering.
    pub fn dead(&self) -> DeadSet {
        self.dead
    }

    /// The shrink epoch survivors now operate under.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Coordinator rounds the survivor agreement needed (1 unless a
    /// coordinator died mid-agreement).
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// Whether any survivor's pre-shrink operation aborted, i.e. the
    /// operation must be re-run on the shrunk world even by ranks whose
    /// own execution completed.
    pub fn restart(&self) -> bool {
        self.restart
    }

    /// Number of surviving ranks (the shrunk world size).
    pub fn survivors(&self) -> usize {
        self.members.len()
    }

    /// Translate a pre-shrink rank to its dense post-shrink rank
    /// (`None` for dead ranks).
    pub fn new_rank_of(&self, old: usize) -> Option<usize> {
        self.members.binary_search(&old).ok()
    }

    /// Translate a post-shrink rank back to its pre-shrink rank.
    ///
    /// # Panics
    /// Panics if `new` is out of range for the shrunk world.
    pub fn old_rank_of(&self, new: usize) -> usize {
        self.members[new]
    }

    /// Project per-rank counts (indexed by pre-shrink rank) onto the
    /// survivors, in post-shrink rank order — how an allgatherv's
    /// layout shrinks when dead ranks' contributions are dropped.
    ///
    /// # Panics
    /// Panics if `counts` is shorter than the pre-shrink world.
    pub fn surviving_counts(&self, counts: &[usize]) -> Vec<usize> {
        self.members.iter().map(|&old| counts[old]).collect()
    }

    /// Wrap the pre-shrink communicator as the shrunk world: survivors
    /// get dense ranks, every wire tag carries the new epoch, and all
    /// stale pre-shrink traffic is purged (counted into the session's
    /// recovery statistics). Build one wrapper per recovery and run all
    /// post-shrink operations through it.
    ///
    /// Returns [`CollectiveError::Comm`] with
    /// [`CommError::PeerDead`] naming this rank if it is in the agreed
    /// dead-set.
    pub fn comm<'a, C: Comm>(&self, inner: &'a mut C) -> Result<CommView<'a, C>, CollectiveError> {
        let sc = CommView::shrunk(inner, self.dead, self.epoch).map_err(CollectiveError::Comm)?;
        self.session
            .feedback
            .stale_discarded
            .fetch_add(sc.stale_discarded(), Ordering::Relaxed);
        Ok(sc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccoll_comm::{SimConfig, SimWorld};
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
        // 8: at 4500 values over 8 ranks the nominal selection says
        // Rabenseifner, but at the measured (~1.5) ratio the wire terms
        // grow and the bandwidth-optimal ring wins. Every rank must land
        // on the same post-re-rank schedule (the agreement is the
        // communicator minimum), or the collective would deadlock.
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
        let len = 4500;
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
            assert_eq!(initial, Algorithm::Rabenseifner, "rank {r}: nominal pick");
            let ratio = ratio.expect("rank measured a ratio");
            assert!(
                ratio < 4.0,
                "rough data should compress poorly, got {ratio}"
            );
            assert_eq!(
                after,
                Algorithm::Ring,
                "rank {r}: measured ratio {ratio} should re-rank to ring"
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

    #[test]
    #[should_panic(expected = "allreduce has no bruck schedule")]
    fn unsupported_algorithm_is_rejected_at_plan_time() {
        let session = CCollSession::new(CodecSpec::None, 4);
        let _ = session.plan_allreduce_with(
            100,
            ReduceOp::Sum,
            PlanOptions::new().algorithm(Algorithm::Bruck),
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
    /// the hierarchical lane count forced to `lanes` when given. Returns
    /// each rank's result and the lane count it ran with.
    fn cluster_allreduce(
        sizes: &[usize],
        len: usize,
        spec: CodecSpec,
        algorithm: Algorithm,
        lanes: Option<usize>,
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
            if let Some(lanes) = lanes {
                plan.kind.lanes = lanes;
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
        let run = |a, lanes| cluster_allreduce(sizes, len, CodecSpec::None, a, lanes, int_data);
        let ring = run(Algorithm::Ring, None);
        for lanes in 1..=*sizes.iter().min().expect("non-empty") {
            let hier = run(Algorithm::Hierarchical, Some(lanes));
            for (r, (h, flat)) in hier.results.iter().zip(&ring.results).enumerate() {
                assert_eq!(h.0, flat.0, "rank {r} of {sizes:?} at {lanes} lanes");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        // Lossless, the laned schedule leaves the flat ring's bits on
        // every rank at every lane count an asymmetric topology admits.
        #[test]
        fn laned_hierarchical_matches_flat_ring_bitwise(
            sizes in proptest::collection::vec(1usize..=5, 2..=4),
            len in 1usize..500,
        ) {
            check_lanes_bitwise(&sizes, len);
        }
    }

    const SZX: CodecSpec = CodecSpec::Szx { error_bound: 1e-3 };

    /// One lane is the single-leader schedule this machine replaced:
    /// per-rank (messages, bytes) of two executions on a 4x4 cluster,
    /// captured at the last commit that had that schedule (ed3c63b).
    #[test]
    fn one_lane_sends_what_the_single_leader_schedule_sent() {
        let out = cluster_allreduce(
            &[4; 4],
            10_000,
            SZX,
            Algorithm::Hierarchical,
            Some(1),
            rank_data,
        );
        let sent = out.traffics.iter().map(|t| (t.messages_sent, t.bytes_sent));
        let parent = [209_154, 209_168, 209_100, 209_152]
            .into_iter()
            .flat_map(|leader| [(12, leader), (2, 80_000), (4, 160_000), (2, 80_000)]);
        assert!(sent.eq(parent), "{:?}", out.traffics);
    }

    /// The cost model's lane count, run in the simulator it models: never
    /// slower than the one-lane schedule, and from 64 Ki values up within
    /// 10 % of the best lane count the simulator can find. (Below that
    /// the model prices free-running NIC queueing the lock-step
    /// simulation of a 4-node cluster does not show, and stays on one
    /// lane.)
    #[test]
    fn derived_lane_count_is_near_the_best_simulated_one() {
        for len in [4 << 10, 64 << 10, 1 << 20] {
            let run = |lanes| {
                cluster_allreduce(&[8; 4], len, SZX, Algorithm::Hierarchical, lanes, rank_data)
            };
            let own = run(None);
            let forced = [1, 2, 4, 8].map(|l| run(Some(l)).makespan);
            let best = forced.iter().min().expect("non-empty");
            let slack = if len >= 64 << 10 { 1.10 } else { f64::INFINITY };
            assert!(
                own.makespan <= forced[0]
                    && own.makespan.as_secs_f64() <= slack * best.as_secs_f64(),
                "{len} values: {:?} lanes take {:?}, one lane {:?}, the best count {best:?}",
                own.results[0].1,
                own.makespan,
                forced[0]
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
