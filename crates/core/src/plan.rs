//! The plan lifecycle: one generic [`Plan`] / [`Handle`] pair that every
//! collective kind plugs a schedule machine into.
//!
//! The paper's contribution is two general frameworks that every
//! collective builds on, so what differs between C-Allreduce, C-Bcast
//! and C-Scatter is a *schedule machine*, not a lifecycle. This module
//! owns the lifecycle — validate, start, progress, complete, abort,
//! poison, reset, recover — exactly once:
//!
//! ```text
//!            start()                  step → Ready
//!   Idle ───────────────► InFlight ─────────────────► Done ──► Idle
//!    ▲                       │
//!    │ reset() / reset_in()  │ fault (Comm) or handle dropped (Abandoned)
//!    │ recover(&Recovery)    ▼
//!    └────────────────── Poisoned
//! ```
//!
//! * [`Plan<K>`] holds the state every kind shares (session, resolved
//!   schedule, tag slot and start counter, statistics, in-flight and
//!   poison flags, hierarchical split, workspace) next to the kind's own
//!   fields `K`.
//! * [`Handle<'p, 'b, K>`](Handle) is one in-flight operation: it
//!   borrows its plan exclusively (one outstanding operation per plan)
//!   and owns the kind's machine, stepping it through a view that puts
//!   every message in the operation's context (`ctx.op`: plan slot and
//!   start generation) beside its bare schedule tag. Its single `Drop`
//!   poisons a plan whose operation was abandoned mid-flight.
//! * A collective kind ([`Allreduce`] … [`Reduce`], one file each under
//!   `kinds/`) supplies only what is specific to it, through a
//!   crate-internal trait: the table of schedules it has, the workspace
//!   each needs, its buffer-shape checks, its machine constructor, one
//!   `step`, and its shape on a shrunk world. Building a plan
//!   (`Plan::build`), the `Auto` feedback loop and recovery
//!   ([`Plan::recover`]) are written once on top of those. Dispatch is
//!   monomorphised; nothing on the start → progress → complete path is
//!   boxed or dynamic.
//!
//! The kind trait cannot be named outside this crate, so callers spell
//! plans and handles through the aliases ([`AllreducePlan`],
//! [`BcastHandle`], …), which are also the names this API has always
//! had.

// The kind trait is crate-internal on purpose (the set of kinds is
// closed and the machines it names are not API); it still bounds the
// public `Plan` and `Handle`.
#![allow(private_bounds)]

use std::sync::atomic::Ordering;

use ccoll_comm::{Comm, CommView, Ctx, FaultCounters, Schedule, SimTime};

use crate::algorithm::{reject_unsupported, Algorithm, PlanOptions, SelectCtx};
use crate::nonblocking::{HierGroups, Poll};
use crate::session::{CCollSession, CollectiveError, PlanStats, Recovery};
use crate::workspace::CollWorkspace;

mod calibration;

pub use crate::kinds::*;

// ---------------------------------------------------------------------------
// Shared state and helpers.
// ---------------------------------------------------------------------------

/// The state every plan kind shares.
pub(crate) struct PlanCore {
    pub(crate) session: CCollSession,
    /// The resolved schedule (never [`Algorithm::Auto`]).
    pub(crate) algorithm: Algorithm,
    /// Created with [`Algorithm::Auto`] by a kind that keeps tuning (see
    /// [`Tuning`]): eligible for the re-rank, and re-resolved when the
    /// plan recovers.
    auto: bool,
    reranked: bool,
    /// Per-session slot (allocated at plan creation) and start counter:
    /// together the operation's context ([`PlanCore::op`]).
    slot: u32,
    op_seq: u32,
    stats: PlanStats,
    /// A nonblocking operation is outstanding (set by `start`, cleared
    /// when the operation completes). Guards against dropped handles.
    in_flight: bool,
    /// Set when an execution aborted on an unrecoverable fault or its
    /// handle was dropped; the plan refuses further use until `reset`.
    poisoned: Option<CollectiveError>,
    /// The hierarchical communicator split, built lazily on the first
    /// `start` (plan creation is rank-free; building needs
    /// `comm.rank()`). A one-time warm-up allocation — steady-state
    /// executions reuse it untouched. Dropped on a schedule switch or
    /// recovery.
    pub(crate) groups: Option<HierGroups>,
    pub(crate) ws: CollWorkspace,
}

impl PlanCore {
    /// The shared fields of a fresh plan; allocates the plan's slot.
    fn new(session: &CCollSession, algorithm: Algorithm, auto: bool, ws: CollWorkspace) -> Self {
        PlanCore {
            session: session.clone(),
            algorithm,
            auto,
            reranked: false,
            slot: session.alloc_slot(),
            op_seq: 0,
            stats: PlanStats::default(),
            in_flight: false,
            poisoned: None,
            groups: None,
            ws,
        }
    }

    /// The context `op` of the plan's current operation ([`Ctx::op`]).
    /// No machine sees it: [`Handle::drive`] steps the machine through
    /// `CommView::stamped(comm, op)`, so two live operations' messages
    /// never match each other when their (slot, generation) pairs
    /// differ.
    ///
    /// Slots separate *different* plans, whose operations may be
    /// simultaneously in flight under a progress engine. The generation
    /// bit separates *adjacent* operations of the same plan: a rank can
    /// run `start()` for operation N+1 while a peer is still
    /// mid-operation N (a handle completes locally once its own receives
    /// land), and the alternating bit keeps N+1's eager sends out of N's
    /// posted receives. Deeper skew cannot occur — the exclusive plan
    /// borrow means this rank finished N before starting N+1, and no
    /// rank can finish N+1 without every rank having started it — so one
    /// bit is exactly enough, and the context working set stays at two
    /// generations per plan (the simulator's match tables go warm after
    /// two executions, preserving the zero-allocation steady state).
    pub(crate) fn op(&self) -> u32 {
        Ctx::op(self.slot, self.op_seq)
    }

    /// Fold a completed execution into the plan's and the session's
    /// measured statistics, draining the workspace's compression-ratio
    /// sample into the session feedback.
    fn finish<C: Comm>(&mut self, comm: &mut C, t0: SimTime, c0: FaultCounters) {
        let makespan = comm.now() - t0;
        self.stats.record(makespan);
        if let Some(r) = self.session.note_execution(&mut self.ws) {
            self.stats.observed_ratio = Some(r);
        }
        let faults = comm.profiler().fault_counters().since(c0);
        self.stats.fold_faults(faults);
        self.session.feedback.record_execution(makespan);
        self.session.feedback.record_faults(faults);
        self.in_flight = false;
    }
}

pub(crate) fn check_world<C: Comm>(comm: &C, world_size: usize) {
    assert_eq!(
        comm.size(),
        world_size,
        "plan built for {world_size} ranks executed on {} ranks",
        comm.size()
    );
}

/// The part of a kind that shows in public signatures. Type privacy
/// wants the traits behind `K::Output` declared `pub`; keeping them in a
/// private module keeps them unnameable (and the set of kinds closed).
mod sealed {
    /// What `try_complete` hands back for a kind: `()` for the symmetric
    /// collectives, `bool` ("this rank is the root") for the rooted ones
    /// whose result lands on one rank only.
    pub trait Outcome {
        /// What the allocating `execute` wrapper returns.
        type Owned;
        fn owned(self, out: Vec<f32>) -> Self::Owned;
    }

    pub trait Completes {
        /// What completing an operation reports.
        type Output: Outcome;
    }
}
pub(crate) use sealed::{Completes, Outcome};

impl Outcome for () {
    type Owned = Vec<f32>;
    fn owned(self, out: Vec<f32>) -> Vec<f32> {
        out
    }
}

impl Outcome for bool {
    type Owned = Option<Vec<f32>>;
    fn owned(self, out: Vec<f32>) -> Option<Vec<f32>> {
        self.then_some(out)
    }
}

/// How an `Auto` plan of a kind keeps tuning itself once it runs (see
/// [`calibration::retune`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tuning {
    /// The creation-time pick stands.
    Fixed,
    /// One re-rank after warm-up, from the communicator-agreed measured
    /// compression ratio.
    Rerank,
    /// The re-rank (on a cluster, the first calibration round's), then
    /// a continuous α–β calibration round every few executions.
    Calibrate,
}

/// One row of a kind's schedule table: an algorithm, and the cost-model
/// entry `Auto` prices it as (`None`: the kind's only schedule, which is
/// never priced).
pub(crate) type Row = (Algorithm, Option<Schedule>);

/// A table row `Auto` prices as `schedule`.
pub(crate) const fn priced(algorithm: Algorithm, schedule: Schedule) -> Row {
    (algorithm, Some(schedule))
}

/// What a collective kind plugs into the generic lifecycle. Implemented
/// by the eight kind types under `kinds/` and nowhere else; each file is
/// the one place its kind's schedules are declared.
pub(crate) trait Kind: Completes + Sized {
    /// The schedule state machine one operation runs.
    type Machine;

    /// The collective's name in plan-time panics.
    const NAME: &'static str;

    /// Every schedule the kind has. [`Plan::build`] accepts exactly
    /// these rows; `Auto` ranks them in this order (the first of equally
    /// cheap rows wins), a [`Algorithm::Hierarchical`] row only on a
    /// multi-node topology and a shape that is
    /// [`two_level`](Self::two_level).
    const SCHEDULES: &'static [Row];

    /// What an `Auto` plan does with what it measures.
    const TUNING: Tuning = Tuning::Fixed;

    /// The per-rank payload, in values, `Auto` prices the schedules at.
    fn priced_values(&self) -> usize;

    /// Whether the shape suits the kind's two-level schedule at all.
    fn two_level(&self) -> bool {
        true
    }

    /// The workspace `algorithm` needs at this shape, warmed so that the
    /// steady state allocates nothing. Plan construction, a schedule
    /// switch and recovery all size through here; a kind with state of
    /// its own per schedule (reduce's second stage) rebuilds it too.
    fn workspace(&mut self, session: &CCollSession, algorithm: Algorithm) -> CollWorkspace;

    /// The same shape on the shrunk world `r` describes.
    fn shrunk(&self, r: &Recovery) -> Result<Self, CollectiveError>;

    /// Panic unless the caller's buffers have the planned shape on
    /// `rank`.
    fn check_buffers(&self, rank: usize, input: &[f32], out: &[f32]);

    /// The output-buffer length `execute` allocates on `rank`.
    fn out_len(&self, rank: usize) -> usize;

    /// Per-rank value count the hierarchical split sizes its node blocks
    /// by (0 for schedules that move full-length buffers).
    fn hier_values(&self, _rank: usize) -> usize {
        0
    }

    /// Groups per node the hierarchical split cuts: one, except for the
    /// laned allreduce.
    fn hier_lanes(&self) -> usize {
        1
    }

    /// The resolved schedule's machine for one operation on `rank` (its
    /// tags are bare: the handle puts them in the operation's context,
    /// see [`PlanCore::op`]); also
    /// readies whatever per-operation state the machine reads out of the
    /// workspace.
    fn machine(&mut self, core: &mut PlanCore, rank: usize) -> Self::Machine;

    /// Advance `machine` (blocking on incomplete transfers iff `block`).
    fn step<C: Comm>(
        &mut self,
        core: &mut PlanCore,
        machine: &mut Self::Machine,
        comm: &mut C,
        input: &[f32],
        out: &mut [f32],
        block: bool,
    ) -> Poll;

    /// The completed machine's outcome.
    fn output(machine: &Self::Machine) -> Self::Output;

    /// Scrub in-flight state of any workspace the kind owns beyond
    /// `core.ws`.
    fn scrub(&mut self) {}
}

/// Resolve `Auto` for `kind`: the cheapest admitted row of its table.
/// Nothing here allocates — the calibration loop re-ranks in the
/// zero-allocation steady state.
pub(crate) fn select<K: Kind>(kind: &K, ctx: SelectCtx<'_>) -> Algorithm {
    if let [(only, _)] = K::SCHEDULES {
        return *only;
    }
    // A shape that rules the two-level schedule out is priced as on a
    // flat session.
    let cluster = ctx.cluster.filter(|_| kind.two_level());
    let ctx = SelectCtx { cluster, ..ctx };
    let hierarchical = ctx.multi_node();
    let rows = K::SCHEDULES
        .iter()
        .filter(|(a, _)| hierarchical || *a != Algorithm::Hierarchical);
    ctx.cheapest(kind.priced_values() * 4, rows)
}

/// Check an explicitly requested `algorithm` against `kind`'s table.
fn admit<K: Kind>(kind: &K, session: &CCollSession, algorithm: Algorithm) -> Algorithm {
    let rows = || K::SCHEDULES.iter().map(|(a, _)| *a);
    if !rows().any(|a| a == algorithm) {
        reject_unsupported(K::NAME, algorithm, rows());
    }
    if algorithm == Algorithm::Hierarchical {
        assert!(
            session.cluster.is_some(),
            "hierarchical {} needs a session topology (with_topology)",
            K::NAME
        );
        // The hierarchical layout aggregates per-node blocks, which only
        // line up when every rank contributes the same count.
        assert!(
            kind.two_level(),
            "hierarchical {} requires equal per-rank counts",
            K::NAME
        );
    }
    algorithm
}

// ---------------------------------------------------------------------------
// The generic plan and handle.
// ---------------------------------------------------------------------------

/// A persistent collective plan of kind `K`; see the [module docs](self)
/// for the lifecycle and the aliases ([`AllreducePlan`] …) for the
/// per-kind buffer conventions.
pub struct Plan<K: Kind> {
    pub(crate) core: PlanCore,
    pub(crate) kind: K,
}

/// An in-flight nonblocking collective of kind `K` (see
/// [`Plan::start`]).
///
/// The handle exclusively borrows its plan (one outstanding operation
/// per plan) and the caller's input/output buffers for the operation's
/// lifetime. `progress` never blocks; `complete` drains whatever is
/// left and records the plan's statistics. Dropping a handle before it
/// completed poisons its plan with [`CollectiveError::Abandoned`].
pub struct Handle<'p, 'b, K: Kind> {
    plan: &'p mut Plan<K>,
    input: &'b [f32],
    out: &'b mut [f32],
    t0: SimTime,
    c0: FaultCounters,
    /// The operation's context ([`PlanCore::op`]); `drive` puts every
    /// message in it.
    op: u32,
    machine: K::Machine,
    done: bool,
}

impl<K: Kind> Plan<K> {
    /// Plan `kind` on `session`: resolve `opts` against the kind's
    /// schedule table ([`Algorithm::Auto`] by the cost model, anything
    /// else by membership), warm the workspace that schedule needs and
    /// take the next slot. Every `plan_*` constructor and
    /// [`Self::recover`] come through here.
    ///
    /// # Panics
    /// Panics on an algorithm the kind has no schedule for, or a
    /// hierarchical one the session or the shape cannot run.
    pub(crate) fn build(session: &CCollSession, mut kind: K, opts: PlanOptions) -> Self {
        let algorithm = match opts.algorithm {
            Algorithm::Auto => select(&kind, session.select_ctx()),
            explicit => admit(&kind, session, explicit),
        };
        let ws = kind.workspace(session, algorithm);
        let auto = opts.algorithm == Algorithm::Auto && K::TUNING != Tuning::Fixed;
        let core = PlanCore::new(session, algorithm, auto, ws);
        Plan { core, kind }
    }

    /// The resolved schedule this plan executes (never
    /// [`Algorithm::Auto`] — selection happens at plan creation). An
    /// `Auto` allreduce, allgather or reduce plan may switch once more
    /// after its first execution, when the communicator-agreed measured
    /// compression ratio replaces the nominal one; reduce-scatter plans
    /// always run the ring and scatter/gather plans the binomial tree.
    pub fn algorithm(&self) -> Algorithm {
        self.core.algorithm
    }

    /// Measured statistics: execution count, last end-to-end duration
    /// and last observed compression ratio (see [`PlanStats`]).
    pub fn stats(&self) -> PlanStats {
        self.core.stats
    }

    /// True when an aborted execution poisoned this plan (see
    /// [`CollectiveError`]); [`Self::reset`] clears it.
    pub fn is_poisoned(&self) -> bool {
        self.core.poisoned.is_some()
    }

    /// The error that poisoned this plan, if any.
    pub fn poison_error(&self) -> Option<CollectiveError> {
        self.core.poisoned
    }

    /// Clear the poisoned state after an aborted execution, making the
    /// plan usable again. The aborted operation's partial results are
    /// discarded (the workspace is scrubbed); fault counters accrued so
    /// far stay in [`PlanStats`]. Communicator-side leftovers need
    /// [`Self::reset_in`].
    pub fn reset(&mut self) {
        self.quiesce(None);
    }

    /// Like [`Self::reset`], but also scrubs communicator-side leftovers
    /// of the aborted operation: posted receives and undelivered inbound
    /// messages are dropped and an abort reason still parked on the
    /// profiler is drained — state the comm-free `reset` cannot reach.
    /// Use this form when the operation's handle was dropped without
    /// observing its error (the [`CollectiveError::Abandoned`] path),
    /// which leaves both behind; a later operation on the same
    /// communicator would otherwise spuriously abort on the stale parked
    /// error or match the abandoned operation's traffic.
    pub fn reset_in<C: Comm>(&mut self, comm: &mut C) {
        let _ = comm.profiler().take_error();
        comm.abort_cleanup();
        self.reset();
    }

    /// Leave the in-flight state for `Poisoned(e)` (or `Idle` on
    /// `None`): every workspace is scrubbed so nothing half-exchanged
    /// can be reused.
    fn quiesce(&mut self, poisoned: Option<CollectiveError>) {
        self.core.ws.abort();
        self.kind.scrub();
        self.core.in_flight = false;
        self.core.poisoned = poisoned;
    }

    /// Abort bookkeeping after an unrecoverable fault: scrub transport
    /// and workspace state, fold the fault counters, and poison the
    /// plan.
    fn abort<C: Comm>(&mut self, comm: &mut C, c0: FaultCounters, e: CollectiveError) {
        comm.abort_cleanup();
        let delta = comm.profiler().fault_counters().since(c0);
        self.core.stats.fold_faults(delta);
        self.core.session.feedback.record_faults(delta);
        self.quiesce(Some(e));
    }

    /// Re-plan for the shrunk world after a communicator shrink (see
    /// [`CCollSession::recover`]): partition, worst-case sizes and
    /// workspace are rebuilt for `r.session()`'s world, the poison is
    /// cleared, and statistics carry over (with the shrink counted).
    /// Every surviving rank must recover its plans in the same order
    /// (the usual plan-creation discipline). Per kind:
    ///
    /// * `Auto` plans re-resolve their schedule for the shrunk world and
    ///   become eligible for a fresh post-warm-up re-rank. The shrunk
    ///   session dropped the (now-stale) topology, so an explicitly
    ///   hierarchical plan re-resolves flat the same way.
    /// * Reductions drop the dead ranks' contributions: the recovered
    ///   plan computes the survivors' result (restart-on-survivors
    ///   semantics). An allgather drops them from the gathered layout
    ///   ([`Recovery::surviving_counts`]).
    /// * Rooted kinds (bcast, scatter, gather, reduce) translate the
    ///   root to its post-shrink rank and return
    ///   [`CommError::PeerDead`](ccoll_comm::CommError::PeerDead) naming the
    ///   root when the root died — a
    ///   rooted collective cannot outlive its root.
    ///
    /// # Panics
    /// An all-to-all panics if its planned length does not divide evenly
    /// by the *shrunk* world size (the all-to-all partition constraint —
    /// choose lengths divisible by every world size recovery can reach).
    pub fn recover(&mut self, r: &Recovery) -> Result<(), CollectiveError> {
        let kind = self.kind.shrunk(r)?;
        // `Auto` plans re-resolve, and so do explicitly hierarchical
        // ones (the shrunk session has no topology); everything else
        // keeps its schedule.
        let opts = if self.core.auto || self.core.algorithm == Algorithm::Hierarchical {
            PlanOptions::new()
        } else {
            PlanOptions::new().algorithm(self.core.algorithm)
        };
        let Plan { core, kind } = Plan::build(r.session(), kind, opts);
        self.kind = kind;
        self.core.session = core.session;
        self.core.algorithm = core.algorithm;
        self.core.ws = core.ws;
        self.core.reranked = false;
        self.core.groups = None;
        self.core.poisoned = None;
        self.core.in_flight = false;
        self.core.stats.shrinks += 1;
        Ok(())
    }

    /// Begin a nonblocking collective (the `MPI_Iallreduce` shape): the
    /// returned handle borrows this plan exclusively — one outstanding
    /// operation per plan, enforced by the borrow — plus the caller's
    /// buffers. Drive it with [`Handle::progress`] between slices of
    /// application compute and finish with [`Handle::complete`]; see the
    /// crate-level quick start.
    ///
    /// Everything that can reject the call is checked before anything
    /// is sent: world size, buffer shapes, poison, an outstanding
    /// operation. Only then may an `Auto` plan run its re-rank agreement
    /// (in the previous operation's context).
    ///
    /// # Panics
    /// Panics if the communicator size or buffer lengths disagree with
    /// the plan, if the plan is poisoned, or if a previous handle was
    /// leaked mid-operation.
    pub fn start<'p, 'b, C: Comm>(
        &'p mut self,
        comm: &mut C,
        input: &'b [f32],
        out: &'b mut [f32],
    ) -> Handle<'p, 'b, K> {
        let Plan { core, kind } = &mut *self;
        check_world(comm, core.session.world_size);
        let rank = comm.rank();
        kind.check_buffers(rank, input, out);
        assert!(
            core.poisoned.is_none(),
            "plan was poisoned by an aborted execution; call reset() to reuse"
        );
        // The one-outstanding-operation rule, for the case the borrow
        // cannot catch: a handle leaked (`mem::forget`) mid-operation
        // leaves receives posted and peers mid-collective.
        assert!(
            !core.in_flight,
            "a previous nonblocking operation on this plan was dropped without \
             completing; the plan's collective state is undefined"
        );
        calibration::retune(core, kind, comm);
        if core.algorithm == Algorithm::Hierarchical && core.groups.is_none() {
            let cl = core
                .session
                .cluster
                .as_ref()
                .expect("hierarchical plans require a session topology");
            core.groups = Some(HierGroups::build(
                &cl.topo,
                rank,
                kind.hier_values(rank),
                kind.hier_lanes(),
            ));
        }
        core.in_flight = true;
        core.op_seq = core.op_seq.wrapping_add(1);
        core.session
            .feedback
            .live_ops
            .fetch_add(1, Ordering::Relaxed);
        let t0 = comm.now();
        let c0 = comm.profiler().fault_counters();
        let op = core.op();
        let machine = kind.machine(core, rank);
        Handle {
            op,
            machine,
            plan: self,
            input,
            out,
            t0,
            c0,
            done: false,
        }
    }

    /// Execute into a caller-provided buffer: zero steady-state heap
    /// allocations after the warm-up call. Returns `true` on the root
    /// for the rooted gather and reduce, `()` otherwise.
    ///
    /// ```
    /// use c_coll::{CCollSession, CodecSpec, ReduceOp};
    /// use ccoll_comm::{Comm, SimConfig, SimWorld};
    ///
    /// let n = 4;
    /// let world = SimWorld::new(SimConfig::new(n));
    /// let out = world.run(move |comm| {
    ///     let session = CCollSession::new(CodecSpec::None, n);
    ///     let mut plan = session.plan_allreduce(1000, ReduceOp::Sum);
    ///     let input = vec![comm.rank() as f32; 1000];
    ///     let mut result = vec![0.0f32; 1000];
    ///     plan.execute_into(comm, &input, &mut result);
    ///     result[0]
    /// });
    /// // Exact (uncompressed): sum of ranks 0+1+2+3.
    /// assert!(out.results.iter().all(|&x| x == 6.0));
    /// ```
    ///
    /// # Panics
    /// Panics if the communicator size or buffer lengths disagree with
    /// the plan.
    pub fn execute_into<C: Comm>(
        &mut self,
        comm: &mut C,
        input: &[f32],
        out: &mut [f32],
    ) -> K::Output {
        self.start(comm, input, out).complete(comm)
    }

    /// Fallible variant of [`Self::execute_into`]: on an unrecoverable
    /// fault under an active [`FaultPolicy`](ccoll_comm::FaultPolicy)
    /// it aborts cleanly, poisons the plan and returns the structured
    /// error instead of panicking.
    pub fn try_execute_into<C: Comm>(
        &mut self,
        comm: &mut C,
        input: &[f32],
        out: &mut [f32],
    ) -> Result<K::Output, CollectiveError> {
        if self.core.poisoned.is_some() {
            return Err(CollectiveError::Poisoned);
        }
        self.start(comm, input, out).try_complete(comm)
    }

    /// Allocating convenience wrapper over [`Self::execute_into`]. The
    /// rooted gather and reduce return `Some` on the root and `None`
    /// elsewhere; every other kind returns the output buffer.
    #[must_use]
    pub fn execute<C: Comm>(
        &mut self,
        comm: &mut C,
        input: &[f32],
    ) -> <K::Output as Outcome>::Owned {
        let mut out = vec![0.0f32; self.kind.out_len(comm.rank())];
        self.execute_into(comm, input, &mut out).owned(out)
    }
}

impl<K: Kind> Handle<'_, '_, K> {
    /// Advance the collective without blocking: performs a bounded slice
    /// of work (compression, arrived-message processing, send retiring)
    /// and returns [`Poll::Pending`] at the first transfer that has not
    /// completed yet. Returns [`Poll::Ready`] once the result is fully
    /// in the output buffer.
    pub fn progress<C: Comm>(&mut self, comm: &mut C) -> Poll {
        match self.try_progress(comm) {
            Ok(p) => p,
            Err(e) => panic!("collective aborted: {e}; plan poisoned (reset() to reuse)"),
        }
    }

    /// Step the machine once and translate an abort suspension into a
    /// structured error: the state machines signal "cannot proceed"
    /// through their normal pending path and park the reason on the
    /// profiler ([`ccoll_comm::Profiler::take_error`]).
    pub(crate) fn drive<C: Comm>(
        &mut self,
        comm: &mut C,
        block: bool,
    ) -> Result<Poll, CollectiveError> {
        let Plan { core, kind } = &mut *self.plan;
        if core.poisoned.is_some() {
            return Err(CollectiveError::Poisoned);
        }
        if self.done {
            return Ok(Poll::Ready);
        }
        let view = &mut CommView::stamped(comm, self.op);
        match kind.step(core, &mut self.machine, view, self.input, self.out, block) {
            Poll::Ready => {
                core.finish(comm, self.t0, self.c0);
                self.done = true;
                Ok(Poll::Ready)
            }
            Poll::Pending => match comm.profiler().take_error() {
                None => Ok(Poll::Pending),
                Some(err) => {
                    let e = CollectiveError::Comm(err);
                    self.plan.abort(comm, self.c0, e);
                    Err(e)
                }
            },
        }
    }

    /// Fallible [`Self::progress`]: advance without blocking, returning
    /// the structured error (and poisoning the plan) if the operation
    /// aborted on an unrecoverable fault.
    pub fn try_progress<C: Comm>(&mut self, comm: &mut C) -> Result<Poll, CollectiveError> {
        self.drive(comm, false)
    }

    /// Fallible [`Self::complete`]: drain the remaining transfers,
    /// returning the structured error (and poisoning the plan) if the
    /// operation aborted on an unrecoverable fault. `Ok(true)` on the
    /// root for the rooted gather and reduce.
    pub fn try_complete<C: Comm>(mut self, comm: &mut C) -> Result<K::Output, CollectiveError> {
        loop {
            match self.drive(comm, true)? {
                Poll::Ready => return Ok(K::output(&self.machine)),
                Poll::Pending => {}
            }
        }
    }

    /// True once the operation has completed (a prior `progress`
    /// returned [`Poll::Ready`]).
    pub fn is_complete(&self) -> bool {
        self.done
    }

    /// Finish the collective, blocking on whatever transfers remain
    /// (equivalent to draining `progress` with blocking waits — the tail
    /// that application compute could not hide). Returns `true` on the
    /// root for the rooted gather and reduce.
    pub fn complete<C: Comm>(self, comm: &mut C) -> K::Output {
        match self.try_complete(comm) {
            Ok(output) => output,
            Err(e) => panic!("collective aborted: {e}; plan poisoned (reset() to reuse)"),
        }
    }
}

impl<K: Kind> Drop for Handle<'_, '_, K> {
    fn drop(&mut self) {
        self.plan
            .core
            .session
            .feedback
            .live_ops
            .fetch_sub(1, Ordering::Relaxed);
        if !self.done && self.plan.core.poisoned.is_none() {
            // Dropped mid-operation: receives may still be posted and
            // peers may be mid-collective, so this plan's exchanged
            // state is undefined. Poison *only* this plan; sibling
            // operations run in contexts of their own and are unaffected.
            self.plan.quiesce(Some(CollectiveError::Abandoned));
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use ccoll_comm::{
        Category, ClusterNet, HierNet, PayloadPool, SimConfig, SimWorld, ThreadWorld, Topology,
    };

    use super::calibration::agree_min;
    use super::*;
    use crate::collectives::tags;
    use crate::nonblocking::{RingAg, RingRs};
    use crate::placement::Placement;
    use crate::reduce::ReduceOp;
    use ccoll_comm::Cut;

    fn splitmix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fixed-point lane values (×1024) for `rank` of world `n`, `None`
    /// where the rank has no sample. Lane 1 always has one; lane 0 has
    /// one on every rank in about a third of the cases, on about half the
    /// ranks in another third and on none in the rest.
    fn lanes(n: usize, case: usize, rank: usize) -> [Option<u32>; 2] {
        let world = (n as u64) << 40 | (case as u64) << 32;
        let h = world | rank as u64;
        let sample = |salt: u64| 1 + (splitmix(h ^ (salt << 20)) % 100_000) as u32;
        let present = match splitmix(world | 0xFFFF_FFFF) % 3 {
            0 => true,
            1 => splitmix(h).is_multiple_of(2),
            _ => false,
        };
        [present.then(|| sample(1)), Some(sample(2))]
    }

    /// The topologies the agreement must be indifferent to, for world
    /// `n`: none, uniform, unequal nodes including size-1 ones, one node.
    fn topologies(n: usize) -> Vec<Option<Topology>> {
        let nodes = (2..=n).find(|&d| n.is_multiple_of(d)).unwrap_or(1);
        let mut sizes = Vec::new();
        let mut left = n;
        for s in [1, 3, 2, 5, 1, 4].into_iter().cycle() {
            if left == 0 {
                break;
            }
            sizes.push(s.min(left));
            left -= s.min(left);
        }
        vec![
            None,
            Some(Topology::uniform(nodes, n / nodes)),
            Some(Topology::from_node_sizes(&sizes)),
            Some(Topology::from_node_sizes(&[n])),
        ]
    }

    fn agree_on<C: Comm>(
        comm: &mut C,
        topo: Option<&Topology>,
        n: usize,
        case: usize,
    ) -> [Option<f64>; 2] {
        let local = lanes(n, case, comm.rank()).map(|v| v.map(|v| v as f64 / 1024.0));
        let mut pool = PayloadPool::new();
        agree_min(comm, topo, tags::AGREE_CALIB, local, &mut pool)
    }

    /// The minimum over the ranks with a sample; `None` if none has one.
    fn expected(n: usize, case: usize) -> [Option<f64>; 2] {
        let mut min = [None::<u32>; 2];
        for rank in 0..n {
            for (m, v) in min.iter_mut().zip(lanes(n, case, rank)) {
                *m = match (*m, v) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
            }
        }
        min.map(|v| v.map(|v| v as f64 / 1024.0))
    }

    #[test]
    fn every_rank_agrees_on_the_lanewise_minimum() {
        let (mut none_sampled, mut some_abstained) = (0, 0);
        for n in 1..=40 {
            for (case, topo) in topologies(n).into_iter().enumerate() {
                let want = expected(n, case);
                let abstained = (0..n).any(|rank| lanes(n, case, rank)[0].is_none());
                none_sampled += usize::from(want[0].is_none());
                some_abstained += usize::from(abstained && want[0].is_some());
                assert!(want[1].is_some());
                let t = topo.clone();
                let out =
                    SimWorld::new(SimConfig::new(n)).run(move |c| agree_on(c, t.as_ref(), n, case));
                assert_eq!(out.undelivered_total(), 0, "n={n} {topo:?}");
                for (rank, got) in out.results.iter().enumerate() {
                    assert_eq!(*got, want, "sim n={n} rank={rank} {topo:?}");
                }
                if n <= 8 {
                    let t = topo.clone();
                    let out = ThreadWorld::new(n).run(move |c| agree_on(c, t.as_ref(), n, case));
                    for (rank, got) in out.results.iter().enumerate() {
                        assert_eq!(*got, want, "threaded n={n} rank={rank} {topo:?}");
                    }
                }
            }
        }
        // Abstentions were exercised both ways: a lane no rank sampled
        // comes back empty, one some ranks sampled carries their minimum.
        assert!(none_sampled >= 20, "{none_sampled} of 160 cases");
        assert!(some_abstained >= 20, "{some_abstained} of 160 cases");
    }

    #[test]
    fn one_lane_agreement_matches_the_two_lane_one() {
        let n = 12;
        let topo = Topology::from_node_sizes(&[5, 1, 6]);
        let out = SimWorld::new(SimConfig::new(n)).run(move |c| {
            let [a, _] = lanes(n, 0, c.rank());
            let mut pool = PayloadPool::new();
            let local = [a.map(|a| a as f64 / 1024.0)];
            agree_min(c, Some(&topo), tags::AGREE_RERANK, local, &mut pool)
        });
        assert!(out.results.iter().all(|got| got[0] == expected(n, 0)[0]));
    }

    /// One agreement on a 16×16 cluster: `2·(s−1)·m` intra-node messages
    /// for the two binomial phases plus `m·⌈log₂ m⌉` between leaders,
    /// and a dozen microseconds where the ring it replaced sent 65,280
    /// messages over ~640 µs.
    #[test]
    fn agreement_cost_on_a_16x16_cluster() {
        let topo = Topology::uniform(16, 16);
        let cluster = ClusterNet::new(topo.clone(), HierNet::cluster_default());
        let out = SimWorld::new(SimConfig::new(256).with_cluster(cluster))
            .run(move |c| agree_on(c, Some(&topo), 256, 1));
        let msgs: u64 = out.traffics.iter().map(|t| t.messages_sent).sum();
        assert_eq!(msgs, 2 * 15 * 16 + 16 * 4);
        assert!(
            out.makespan < Duration::from_micros(20),
            "{:?}",
            out.makespan
        );
        assert!(out.results.iter().all(|got| *got == expected(256, 1)));
    }

    /// On a laned hierarchical SZx `Auto` plan only the lane owners
    /// compress, so most ranks never measure a ratio. Agreed over the
    /// samples such a plan leaves behind, the ratio lane carries the
    /// least the owners measured instead of the empty ranks' veto.
    #[test]
    fn laned_szx_auto_agrees_on_the_owners_ratio() {
        let (nodes, per_node, len) = (4, 4, 1 << 12);
        let world = nodes * per_node;
        let topo = Topology::uniform(nodes, per_node);
        let cluster = ClusterNet::new(topo.clone(), HierNet::cluster_default());
        let out = SimWorld::new(SimConfig::new(world).with_cluster(cluster)).run(move |c| {
            let session = CCollSession::new(crate::CodecSpec::Szx { error_bound: 1e-3 }, world)
                .with_topology(topo.clone(), HierNet::cluster_default());
            let mut plan = session.plan_allreduce_with(len, ReduceOp::Sum, PlanOptions::new());
            let input: Vec<f32> = (0..len)
                .map(|i| ((i * 7 + c.rank() * 131) as f32 * 1e-3).sin() * 4.0)
                .collect();
            let mut out = vec![0.0f32; len];
            // Past the first agreement, which runs at the fifth start.
            for _ in 0..5 {
                plan.execute_into(c, &input, &mut out);
            }
            let measured = session.measured_ratio();
            let mut pool = PayloadPool::new();
            let agreed = agree_min(c, Some(&topo), tags::AGREE_RERANK, [measured], &mut pool);
            (plan.hier_lanes(), measured, agreed[0])
        });
        let (lanes, _, agreed) = out.results[0];
        assert!(lanes.is_some_and(|l| l > 1), "not a laned plan: {lanes:?}");
        let measured: Vec<f64> = out.results.iter().filter_map(|r| r.1).collect();
        assert!(
            !measured.is_empty() && measured.len() < world,
            "{} of {world} ranks measured a ratio",
            measured.len()
        );
        let least = measured.iter().copied().fold(f64::INFINITY, f64::min);
        let agreed = agreed.expect("the owners' ratio was agreed");
        assert!(
            (agreed - least).abs() <= 1.0 / 1024.0,
            "agreed {agreed}, least {least}"
        );
        for (rank, r) in out.results.iter().enumerate() {
            assert_eq!(r.2, Some(agreed), "rank {rank}");
        }
    }

    /// Two raw ring allreduces (a bare `RingRs` + `RingAg` each) on one
    /// communicator: one blocking run after the other without `stamps`;
    /// with them, stepped turn and turn about, each through its own
    /// stamped view — odd ranks in reverse order, so equal stamps would
    /// cross-match.
    fn two_ring_allreduces<C: Comm>(comm: &mut C, stamps: Option<[u32; 2]>) -> [Vec<f32>; 2] {
        let rank = comm.rank();
        let mut ops = [0, 1].map(|which| {
            // Integer-valued, so the sums are exact.
            let value = |i: usize| ((i * (which + 2) + rank * 31) % 97) as f32;
            let input: Vec<f32> = (0..1003).map(value).collect();
            let stages = (
                RingRs::new(Placement::Raw, Cut::pipe(64)),
                RingAg::new(Placement::Raw, Cut::WHOLE, true),
                false,
            );
            (stages, input, vec![0.0f32; 1003], CollWorkspace::new())
        });
        let flip = stamps.is_some() && rank % 2 == 1;
        let mut done = [false; 2];
        while done != [true; 2] {
            for which in if flip { [1, 0] } else { [0, 1] } {
                let ((rs, ag, in_ag), input, out, ws) = &mut ops[which];
                let view = &mut CommView::stamped(comm, stamps.map_or(0, |s| s[which]));
                let block = stamps.is_none();
                *in_ag = *in_ag
                    || rs
                        .step(view, None, ReduceOp::Sum, Some(input), out, ws, block)
                        .is_ready();
                done[which] = *in_ag && ag.step(view, None, None, out, ws, block).is_ready();
                // Let the other ranks run before the next poll.
                comm.charge_duration(Duration::from_micros(1), Category::Others);
            }
        }
        ops.map(|(_, _, out, _)| out)
    }

    /// The isolation [`Handle::drive`] gets from its stamped view, stated
    /// without a plan.
    #[test]
    fn stamped_views_isolate_bare_machines_on_one_communicator() {
        let stamps = Some([Ctx::op(0, 1), Ctx::op(1, 0)]);
        for n in [4, 5] {
            let world = SimWorld::new(SimConfig::new(n));
            let apart = world.run(|c| two_ring_allreduces(c, None)).results;
            let together = world.run(move |c| two_ring_allreduces(c, stamps));
            assert_eq!(together.undelivered_total(), 0);
            assert_eq!(together.results, apart, "sim, {n} ranks");
            let together = ThreadWorld::new(n).run(move |c| two_ring_allreduces(c, stamps));
            assert_eq!(together.results, apart, "threaded, {n} ranks");
        }
    }

    /// A flat allreduce accumulates in the caller's `out`: the plan never
    /// grows the workspace accumulator (4 MiB per plan at 1 Mi values).
    #[test]
    fn allreduce_plans_do_not_take_the_workspace_accumulator() {
        use crate::CodecSpec;
        let n = 6;
        let specs = [CodecSpec::None, CodecSpec::Szx { error_bound: 1e-3 }];
        let out = SimWorld::new(SimConfig::new(n)).run(move |c| {
            let input: Vec<f32> = (0..9001).map(|i| (i + c.rank()) as f32).collect();
            let mut out = vec![0.0f32; input.len()];
            let mut taken = Vec::new();
            for spec in specs {
                let session = CCollSession::new(spec, n);
                for algorithm in [
                    Algorithm::Ring,
                    Algorithm::RecursiveDoubling,
                    Algorithm::Rabenseifner,
                ] {
                    let opts = PlanOptions::new().algorithm(algorithm);
                    let mut plan = session.plan_allreduce_with(input.len(), ReduceOp::Sum, opts);
                    plan.execute_into(c, &input, &mut out);
                    taken.push(plan.core.ws.acc.capacity());
                }
            }
            taken
        });
        assert!(out.results.iter().flatten().all(|&cap| cap == 0));
    }

    /// What a workspace has warm: codec scratch capacities, pool slots
    /// and the capacity of a free slot.
    fn warmth(ws: &mut CollWorkspace) -> [usize; 4] {
        let mut slot = 0;
        let probe = ws.pool.write_with(|buf| {
            slot = buf.capacity();
            Ok::<(), std::convert::Infallible>(())
        });
        drop(probe);
        let scratch = &ws.scratch;
        [
            scratch.enc.capacity(),
            scratch.dec.capacity(),
            ws.pool.slot_count(),
            slot,
        ]
    }

    /// `plan.recover(&r)` leaves the schedule and the workspace a fresh
    /// [`Plan::build`] of the shrunk shape on `r.session()` has.
    fn recovers_like_a_fresh_build<K: Kind>(mut plan: Plan<K>, r: &Recovery, opts: PlanOptions) {
        let shrunk = plan.kind.shrunk(r).expect("the root survived");
        let mut fresh = Plan::build(r.session(), shrunk, opts);
        plan.recover(r).expect("the root survived");
        assert_eq!(plan.algorithm(), fresh.algorithm(), "{}", K::NAME);
        let (got, want) = (warmth(&mut plan.core.ws), warmth(&mut fresh.core.ws));
        assert_eq!(got, want, "{} on {:?}", K::NAME, plan.algorithm());
        assert!(want[2] >= 4, "{}: a warmed pool", K::NAME);
    }

    /// The workspace side of `tests/recovery.rs`'s
    /// `recovered_plans_match_fresh_plans_on_the_shrunk_session`: six
    /// ranks, one killed mid-allreduce, every kind re-planned for five.
    #[test]
    fn recovered_workspaces_match_a_fresh_build() {
        use ccoll_comm::{FaultPlan, FaultPolicy, RankOutcome};

        use crate::kinds::*;
        use crate::CodecSpec;
        let (world, len, victim, root) = (6, 60_000, 2, 4);
        let cfg = SimConfig::new(world)
            .with_faults(FaultPlan::seeded(29).with_kill(victim, 2))
            .with_fault_policy(FaultPolicy::with_timeout(Duration::from_millis(1), 2));
        let out = SimWorld::new(cfg).try_run(move |c| {
            let s = CCollSession::new(CodecSpec::Szx { error_bound: 1e-3 }, world);
            let pin = |a| PlanOptions::new().algorithm(a);
            let (auto, sum) = (PlanOptions::new(), ReduceOp::Sum);
            let mut trigger = s.plan_allreduce_with(len, sum, pin(Algorithm::Ring));
            let input = vec![1.0f32; len];
            let aborted = trigger.try_execute_into(c, &input, &mut vec![0.0; len]);
            let r = s
                .recover(c, &[], aborted.is_err())
                .expect("survivors agree");
            assert_eq!(r.survivors(), world - 1);

            let variant = crate::AllreduceVariant::Overlapped;
            for opts in [auto, pin(Algorithm::Ring), pin(Algorithm::Rabenseifner)] {
                let kind = Allreduce::new(&s, len, sum, variant);
                recovers_like_a_fresh_build(Plan::build(&s, kind, opts), &r, opts);
            }
            for opts in [auto, pin(Algorithm::Ring), pin(Algorithm::Bruck)] {
                let kind = Allgather::new(&s, vec![len; world]);
                recovers_like_a_fresh_build(Plan::build(&s, kind, opts), &r, opts);
            }
            for opts in [pin(Algorithm::Pairwise), pin(Algorithm::Bruck)] {
                let kind = Alltoall::new(&s, len);
                recovers_like_a_fresh_build(Plan::build(&s, kind, opts), &r, opts);
            }
            for opts in [auto, pin(Algorithm::Binomial), pin(Algorithm::Rabenseifner)] {
                let kind = Reduce::new(&s, root, len, sum);
                recovers_like_a_fresh_build(Plan::build(&s, kind, opts), &r, opts);
            }
            let only = auto;
            let kind = ReduceScatter::new(&s, len, sum);
            recovers_like_a_fresh_build(Plan::build(&s, kind, only), &r, only);
            let kind = Bcast::new(&s, root, len);
            recovers_like_a_fresh_build(Plan::build(&s, kind, only), &r, only);
            let kind = Scatter::new(&s, root, len);
            recovers_like_a_fresh_build(Plan::build(&s, kind, only), &r, only);
            let kind = Gather::new(&s, root, len);
            recovers_like_a_fresh_build(Plan::build(&s, kind, only), &r, only);
        });
        for (rank, outcome) in out.expect("no deadlock").results.iter().enumerate() {
            match outcome {
                RankOutcome::Panicked(msg) => panic!("rank {rank}: {msg}"),
                outcome => assert_eq!(matches!(outcome, RankOutcome::Killed), rank == victim),
            }
        }
    }

    #[test]
    fn flat_agreement_takes_log2_rounds() {
        let config = SimConfig::new(256);
        let round = config.net.latency + config.net.tx_time(8);
        let out = SimWorld::new(config).run(|c| agree_on(c, None, 256, 0));
        assert!(out.traffics.iter().all(|t| t.messages_sent == 8));
        assert!(out.makespan <= 8 * round, "{:?}", out.makespan);
    }
}
