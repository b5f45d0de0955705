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
//!   and owns the kind's machine, stepping it through a view that
//!   stamps the operation's tag base (`op_base`) on its bare schedule
//!   tags. Its single `Drop` poisons a plan whose operation was
//!   abandoned mid-flight.
//! * A collective kind ([`Allreduce`] … [`Reduce`]) supplies only what is
//!   specific to it, through a crate-internal trait: its buffer-shape
//!   checks, its machine constructor, one `step`, how it re-plans for a
//!   shrunk world and — for `Auto` plans — its re-rank hook. Dispatch is
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

use bytes::Bytes;
use ccoll_comm::{
    Category, Comm, CommError, CommView, FaultCounters, PayloadPool, Schedule, SimTime, Tag,
    Topology,
};

use crate::algorithm::{allreduce_schedule, Algorithm, AllreduceVariant, PlanOptions, SelectCtx};
use crate::collectives::tags;
use crate::nonblocking::{
    self as nb, A2aMachine, AgMode, AgPlanMachine, ArMachine, BcMachine, BruckA2a, BruckAg,
    Butterfly, HierAg, HierAr, HierBc, HierGroups, Poll, ReduceMachine, RingAg, RingRs, TreeReduce,
};
use crate::placement::Placement;
use crate::reduce::ReduceOp;
use crate::session::{CCollSession, CollectiveError, PlanStats, Recovery};
use crate::workspace::CollWorkspace;

// ---------------------------------------------------------------------------
// Shared state and helpers.
// ---------------------------------------------------------------------------

/// The state every plan kind shares.
pub(crate) struct PlanCore {
    pub(crate) session: CCollSession,
    /// The resolved schedule (never [`Algorithm::Auto`]).
    pub(crate) algorithm: Algorithm,
    /// Per-session tag slot (allocated at plan creation) and start
    /// counter, folded into every wire tag so concurrent operations'
    /// traffic stays disjoint (see [`op_base`]).
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
    /// The shared fields of a fresh plan; allocates the plan's tag slot.
    pub(crate) fn new(session: &CCollSession, algorithm: Algorithm, ws: CollWorkspace) -> Self {
        PlanCore {
            session: session.clone(),
            algorithm,
            slot: session.alloc_slot(),
            op_seq: 0,
            stats: PlanStats::default(),
            in_flight: false,
            poisoned: None,
            groups: None,
            ws,
        }
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

/// The per-operation tag base: plan slot bits (22..32, `% 1023 + 1` so a
/// plan's traffic never lands on the base-0 space the free-function
/// baselines use) OR'd with a generation bit (16, the plan's start
/// counter `% 2`). No machine sees it: [`Handle::drive`] steps the
/// machine through `CommView::stamped(comm, base)`, which ORs the base
/// into every schedule tag (`< 0x10000`; disjoint bits, asserted in
/// `collectives::tags`), so two live operations' wire tags differ when
/// their (slot, generation) pairs do.
///
/// Slots separate *different* plans, whose operations may be
/// simultaneously in flight under a progress engine. The generation
/// bit separates *adjacent* operations of the same plan: a rank can
/// run `start()` for operation N+1 while a peer is still mid-operation
/// N (a handle completes locally once its own receives land), and the
/// alternating bit keeps N+1's eager sends out of N's posted receives.
/// Deeper skew cannot occur — the exclusive plan borrow means this
/// rank finished N before starting N+1, and no rank can finish N+1
/// without every rank having started it — so one bit is exactly
/// enough, and the tag working set stays at two generations per plan
/// (the simulator's tag-keyed tables go warm after two executions,
/// preserving the zero-allocation steady state).
pub(crate) const fn op_base(slot: u32, op_seq: u32) -> Tag {
    ((slot % 1023 + 1) << 22) | ((op_seq % 2) << 16)
}

pub(crate) fn check_world<C: Comm>(comm: &C, world_size: usize) {
    assert_eq!(
        comm.size(),
        world_size,
        "plan built for {world_size} ranks executed on {} ranks",
        comm.size()
    );
}

/// Agree on the communicator-wide lane-wise minimum of `L` non-negative
/// measurements (fixed-point scaled by 1024; 0 encodes "no sample") in
/// `⌈log₂ s⌉ + ⌈log₂ m⌉ + ⌈log₂ s⌉` message latencies for `m` nodes of
/// at most `s` ranks:
///
/// ```text
///   1. node-local binomial min-reduce to the node leader   ⌈log₂ s⌉ intra hops
///   2. dissemination among the m node leaders only         ⌈log₂ m⌉ inter hops
///   3. node-local binomial broadcast from the leader       ⌈log₂ s⌉ intra hops
/// ```
///
/// Only leaders cross node boundaries, so each shared NIC carries one
/// message per round. `min` is idempotent, which is what lets the
/// dissemination rounds (`to = leader((a + 2ᵏ) mod m)`) overlap their
/// coverage on a non-power-of-two `m` with no fold or unfold step.
/// Without a topology every rank is its own leader and only the
/// dissemination phase runs. Peers are computed from the contiguous
/// node ranges of `topo`; nothing is allocated or cached.
///
/// A lane is `None` unless every rank contributed a sample to it —
/// conservative: with partial information the nominal selection stands.
/// Every rank returns the identical array.
fn agree_min<const L: usize, C: Comm>(
    comm: &mut C,
    topo: Option<&Topology>,
    tag: Tag,
    local: [f64; L],
    pool: &mut PayloadPool,
) -> [Option<f64>; L] {
    fn payload<const L: usize>(pool: &mut PayloadPool, lanes: [u32; L]) -> Bytes {
        pool.write(lanes.map(u32::to_le_bytes).as_flattened())
    }
    fn fold<const L: usize>(lanes: &mut [u32; L], got: &[u8]) {
        assert_eq!(got.len(), 4 * L, "agreement payload is {L} 4-byte lanes");
        for (lane, peer) in lanes.iter_mut().zip(got.chunks_exact(4)) {
            *lane = (*lane).min(u32::from_le_bytes(peer.try_into().expect("4-byte lane")));
        }
    }
    /// Rounds of a binomial tree or a dissemination over `size` members.
    fn rounds(size: usize) -> u32 {
        size.next_power_of_two().trailing_zeros()
    }

    let me = comm.rank();
    let mut cur = local.map(|x| (x.clamp(0.0, 4.0e6) * 1024.0).round() as u32);
    let (node, nodes) = topo.map_or((me, comm.size()), |t| (t.node_of(me), t.nodes()));
    let members = topo.map_or(me..me + 1, |t| t.members_of(node));
    let leader = |node: usize| topo.map_or(node, |t| t.leader_of(node));
    // This rank's index in its node, and the round in which it hands
    // its running minimum to its binomial parent (the leader never does).
    let i = me - members.start;
    let up = if i == 0 {
        rounds(members.len())
    } else {
        i.trailing_zeros()
    };

    for k in 0..up {
        let child = i + (1 << k);
        if child < members.len() {
            let got = comm.recv(members.start + child, tag + tags::AGREE_REDUCE + k);
            fold(&mut cur, &got);
        }
    }
    if i == 0 {
        for k in 0..rounds(nodes) {
            let d = 1usize << k;
            let (to, from) = (
                leader((node + d) % nodes),
                leader((node + nodes - d) % nodes),
            );
            let t = tag + tags::AGREE_EXCHANGE + k;
            let got = comm.sendrecv(to, from, t, payload(pool, cur), Category::Others);
            fold(&mut cur, &got);
        }
    } else {
        let parent = members.start + i - (1 << up);
        comm.send(parent, tag + tags::AGREE_REDUCE + up, payload(pool, cur));
        // The agreed minimum is at most this rank's partial one, so
        // folding it in is taking it.
        fold(&mut cur, &comm.recv(parent, tag + tags::AGREE_BCAST + up));
    }
    for k in (0..up).rev() {
        let child = i + (1 << k);
        if child < members.len() {
            comm.send(
                members.start + child,
                tag + tags::AGREE_BCAST + k,
                payload(pool, cur),
            );
        }
    }
    cur.map(|v| (v > 0).then(|| v as f64 / 1024.0))
}

/// Executions between continuous-calibration rounds on an `Auto`
/// allreduce plan (see [`calibrate`]). The first round therefore happens
/// well after the one-shot measured-ratio re-rank (execution 1), once
/// the makespan EWMA has a few samples behind it.
const CALIB_PERIOD: u64 = 4;

/// Relative deadband around 1.0 inside which a calibration round leaves
/// the α–β scales untouched (measurement noise, not model error).
const CALIB_DEADBAND: f64 = 0.05;

/// Clamp for the α–β calibration scales: the model is trusted to within
/// a factor of 64 in either direction.
const CALIB_MAX_SCALE: f64 = 64.0;

/// The feedback loop of an `Auto` plan, run by [`Plan::start`] once the
/// caller's arguments and the plan's state have been validated and
/// before any per-operation bookkeeping. Returns the schedule the plan
/// must switch to, if the agreed measurements re-resolve it differently;
/// the caller re-warms its workspace (a single allocation event, after
/// which the steady state is allocation-free again).
///
/// **One-shot re-rank**, at the start of the second execution (i.e.
/// after warm-up): re-resolve the schedule with the *measured*
/// compression ratio in place of the codec's nominal one. Ranks measure
/// different ratios on their own data, and a divergent pick would
/// deadlock the collective — so the re-rank first agrees on the
/// communicator-wide **minimum** measured ratio through a one-lane
/// [`agree_min`] (minimum = the most conservative wire-size estimate;
/// `min` is order-independent, so every rank lands on the identical
/// value and therefore the identical schedule). If any rank has no
/// sample yet, the agreement yields none and the nominal selection
/// stands.
///
/// **Continuous calibration**, every [`CALIB_PERIOD`]-th execution
/// afterwards, for kinds that name the `(schedule, len)` the cost model
/// prices them as (see [`calibrate`]).
fn maybe_rerank<C: Comm>(
    core: &mut PlanCore,
    comm: &mut C,
    reranked: &mut bool,
    calibrated: Option<(Schedule, usize)>,
    select: impl Fn(SelectCtx<'_>) -> Algorithm,
) -> Option<Algorithm> {
    if core.stats.executions == 0 {
        return None;
    }
    let algorithm = if !*reranked {
        *reranked = true;
        let local = [core.session.feedback.ratio().unwrap_or(0.0)];
        let view = &mut CommView::stamped(comm, op_base(core.slot, core.op_seq));
        let topo = core.session.cluster().map(|c| &c.topo);
        let [ratio] = agree_min(view, topo, tags::AGREE_RERANK, local, &mut core.ws.pool);
        select(core.session.select_ctx_with_ratio(ratio?))
    } else {
        let (schedule, len) = calibrated?;
        if !core.stats.executions.is_multiple_of(CALIB_PERIOD) {
            return None;
        }
        calibrate(core, comm, schedule, len, select)?
    };
    (algorithm != core.algorithm).then_some(algorithm)
}

/// One continuous-calibration round: regress the measured makespan EWMA
/// against the cost model's prediction for the running schedule and
/// correct the session's α–β scales, then re-rank under the corrected
/// model.
///
/// The regression isolates the *network* share — both sides subtract
/// the schedule's compute-only floor (codec + reduction + memcpy terms
/// priced over a free network), so a codec-throughput mismatch never
/// masquerades as a fabric correction. Ranks measure different
/// makespans, so the ratio is first agreed to the communicator-wide
/// **minimum** (the most conservative "fabric is slower than modeled"
/// evidence; order-independent, hence identical on every rank). The
/// same exchange carries the measured compression ratio the closing
/// re-rank selects with as a second lane — one two-lane [`agree_min`]
/// per round, over a tag band disjoint from the one-shot re-rank's: a
/// round with no network signal (lane 0 empty) returns before touching
/// the scales, one with no ratio sample (lane 1 empty) re-ranks at the
/// nominal ratio. The correction splits
/// between α and β by the model's own finite-difference sensitivities
/// and is damped (square root per round) and clamped to `[1/64, 64]`, so
/// one noisy window cannot fling selection across the schedule space; a
/// ±5% deadband leaves a well-calibrated model alone. Every input to the
/// pre-agreement gate is rank-independent, so no rank can enter the
/// exchange alone and deadlock.
fn calibrate<C: Comm>(
    core: &mut PlanCore,
    comm: &mut C,
    schedule: Schedule,
    len: usize,
    select: impl Fn(SelectCtx<'_>) -> Algorithm,
) -> Option<Algorithm> {
    let ctx = core.session.select_ctx();
    let pred = ctx.predict(schedule, len).as_secs_f64();
    let floor = ctx.compute_floor(schedule, len).as_secs_f64();
    if !(pred.is_finite() && pred > floor) {
        return None;
    }
    let measured = core.stats.ewma_makespan.as_secs_f64();
    let r_local = ((measured - floor) / (pred - floor)).max(0.0);
    let local_ratio = core.session.feedback.ratio().unwrap_or(0.0);
    let view = &mut CommView::stamped(comm, op_base(core.slot, core.op_seq));
    let topo = core.session.cluster().map(|c| &c.topo);
    let local = [r_local, local_ratio];
    let [r, ratio] = agree_min(view, topo, tags::AGREE_CALIB, local, &mut core.ws.pool);
    // `None`: some rank's measured makespan sits below its compute
    // floor — no trustworthy network signal this round.
    let r = r?;
    if (r - 1.0).abs() >= CALIB_DEADBAND {
        let share = ctx.alpha_share(schedule, len);
        let clamp = |s: f64| s.clamp(1.0 / CALIB_MAX_SCALE, CALIB_MAX_SCALE);
        // Computed from the pre-round scales (read by every rank
        // before any rank finishes the agreement) and stored, not
        // read-modify-written: ranks sharing one feedback through
        // session clones apply the identical correction idempotently.
        core.session.feedback.store_net_scales(
            clamp(ctx.alpha_scale * r.powf(0.5 * share)),
            clamp(ctx.beta_scale * r.powf(0.5 * (1.0 - share))),
        );
    }
    Some(match ratio {
        Some(ratio) => select(core.session.select_ctx_with_ratio(ratio)),
        None => select(core.session.select_ctx()),
    })
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
use sealed::{Completes, Outcome};

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

/// What a collective kind plugs into the generic lifecycle. Implemented
/// by the eight kind types below and nowhere else.
pub(crate) trait Kind: Completes + Sized {
    /// The schedule state machine one operation runs.
    type Machine;

    /// Panic unless the caller's buffers have the planned shape on
    /// `rank`.
    fn check_buffers(&self, rank: usize, input: &[f32], out: &[f32]);

    /// The output-buffer length `execute` allocates on `rank`.
    fn out_len(&self, rank: usize) -> usize;

    /// `Auto` plans' feedback hook (see [`maybe_rerank`]). Runs inside
    /// `start` after validation, and may communicate.
    fn retune<C: Comm>(&mut self, _core: &mut PlanCore, _comm: &mut C) {}

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
    /// tags are bare: the handle stamps them, see [`op_base`]); also
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

    /// A fresh plan of the same shape for the shrunk world `r`
    /// describes; [`Plan::recover`] adopts its fields.
    fn replan(&self, core: &PlanCore, r: &Recovery) -> Result<Plan<Self>, CollectiveError>;

    /// Scrub in-flight state of any workspace the kind owns beyond
    /// `core.ws`.
    fn scrub(&mut self) {}
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
    /// The operation's [`op_base`]; `drive` stamps it onto every message.
    stamp: Tag,
    machine: K::Machine,
    done: bool,
}

impl<K: Kind> Plan<K> {
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
    ///   [`CommError::PeerDead`] naming the root when the root died — a
    ///   rooted collective cannot outlive its root.
    ///
    /// # Panics
    /// An all-to-all panics if its planned length does not divide evenly
    /// by the *shrunk* world size (the all-to-all partition constraint —
    /// choose lengths divisible by every world size recovery can reach).
    pub fn recover(&mut self, r: &Recovery) -> Result<(), CollectiveError> {
        let Plan { core, kind } = self.kind.replan(&self.core, r)?;
        self.kind = kind;
        self.core.session = core.session;
        self.core.algorithm = core.algorithm;
        self.core.ws = core.ws;
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
    /// (on the previous operation's tag generation).
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
        kind.retune(core, comm);
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
        let stamp = op_base(core.slot, core.op_seq);
        let machine = kind.machine(core, rank);
        Handle {
            stamp,
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
        let view = &mut CommView::stamped(comm, self.stamp);
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
            // operations use disjoint tag bases and are unaffected.
            self.plan.quiesce(Some(CollectiveError::Abandoned));
        }
    }
}

// ---------------------------------------------------------------------------
// The eight kinds.
// ---------------------------------------------------------------------------

/// Persistent allreduce plan (see [`CCollSession::plan_allreduce`] and
/// [`CCollSession::plan_allreduce_with`]): `input` and `out` are both
/// [`len`](AllreducePlan::len) values on every rank. `out` is the
/// reduction's accumulator while the operation runs (its contents on
/// entry do not matter), so after an aborted operation it is
/// unspecified.
///
/// An `Auto` allreduce plan re-ranks once after warm-up from the
/// communicator-agreed measured compression ratio and then keeps
/// calibrating the session's α–β network scales every few executions
/// (see [`CCollSession::net_calibration`]).
pub type AllreducePlan = Plan<Allreduce>;
/// An in-flight nonblocking allreduce (see [`Plan::start`]).
pub type AllreduceHandle<'p, 'b> = Handle<'p, 'b, Allreduce>;

/// Persistent allgather plan (see [`CCollSession::plan_allgatherv`] and
/// [`CCollSession::plan_allgatherv_with`]): `input` is this rank's
/// [`counts`](AllgatherPlan::counts)`[rank]` values, `out` is
/// [`total_len`](AllgatherPlan::total_len) values.
pub type AllgatherPlan = Plan<Allgather>;
/// An in-flight nonblocking allgather (see [`Plan::start`]).
pub type AllgatherHandle<'p, 'b> = Handle<'p, 'b, Allgather>;

/// Persistent reduce-scatter plan (see
/// [`CCollSession::plan_reduce_scatter`]): `input` is
/// [`len`](ReduceScatterPlan::len) values, `out` this rank's chunk
/// ([`output_len`](ReduceScatterPlan::output_len)).
pub type ReduceScatterPlan = Plan<ReduceScatter>;
/// An in-flight nonblocking reduce-scatter (see [`Plan::start`]).
pub type ReduceScatterHandle<'p, 'b> = Handle<'p, 'b, ReduceScatter>;

/// Persistent broadcast plan (see [`CCollSession::plan_bcast`]):
/// `input` is read on the root only (other ranks may pass an empty
/// slice); `out` is [`len`](BcastPlan::len) values on every rank.
pub type BcastPlan = Plan<Bcast>;
/// An in-flight nonblocking broadcast (see [`Plan::start`]).
pub type BcastHandle<'p, 'b> = Handle<'p, 'b, Bcast>;

/// Persistent scatter plan (see [`CCollSession::plan_scatter`]): `input`
/// is read on the root only; `out` is this rank's chunk
/// ([`output_len`](ScatterPlan::output_len)).
pub type ScatterPlan = Plan<Scatter>;
/// An in-flight nonblocking scatter (see [`Plan::start`]).
pub type ScatterHandle<'p, 'b> = Handle<'p, 'b, Scatter>;

/// Persistent gather plan (see [`CCollSession::plan_gather`]): `input`
/// is this rank's chunk ([`input_len`](GatherPlan::input_len)); the
/// root must size `out` to [`total_len`](GatherPlan::total_len),
/// other ranks may pass an empty buffer. Completion returns `true` on
/// the root, `false` elsewhere.
pub type GatherPlan = Plan<Gather>;
/// An in-flight nonblocking gather (see [`Plan::start`]);
/// [`Handle::complete`] returns `true` on the root.
pub type GatherHandle<'p, 'b> = Handle<'p, 'b, Gather>;

/// Persistent all-to-all plan (see [`CCollSession::plan_alltoall`]):
/// `input` and `out` are both [`len`](AlltoallPlan::len) values.
pub type AlltoallPlan = Plan<Alltoall>;
/// An in-flight nonblocking all-to-all (see [`Plan::start`]).
pub type AlltoallHandle<'p, 'b> = Handle<'p, 'b, Alltoall>;

/// Persistent rooted-reduce plan (see [`CCollSession::plan_reduce`] and
/// [`CCollSession::plan_reduce_with`]): either the bandwidth-optimal
/// pipelined C-Reduce-scatter + C-Gather composition
/// ([`Algorithm::Rabenseifner`]) or the latency-optimal binomial tree
/// ([`Algorithm::Binomial`]). `input` is [`len`](ReducePlan::len)
/// values; the root must size `out` to the input length, other ranks
/// may pass an empty buffer. Completion returns `true` on the root,
/// `false` elsewhere.
pub type ReducePlan = Plan<Reduce>;
/// An in-flight nonblocking rooted reduce (see [`Plan::start`]);
/// [`Handle::complete`] returns `true` on the root.
pub type ReduceHandle<'p, 'b> = Handle<'p, 'b, Reduce>;

/// The root's post-shrink rank, or the error a rooted plan's recovery
/// reports when its root died.
fn surviving_root(r: &Recovery, root: usize) -> Result<usize, CollectiveError> {
    r.new_rank_of(root)
        .ok_or(CollectiveError::Comm(CommError::PeerDead { peer: root }))
}

/// The options a recovered plan re-resolves its schedule with: `Auto`
/// plans re-resolve, and so do explicitly hierarchical ones (the shrunk
/// session has no topology); everything else keeps its schedule.
fn recovered_options(auto: bool, algorithm: Algorithm) -> PlanOptions {
    if auto || algorithm == Algorithm::Hierarchical {
        PlanOptions::new()
    } else {
        PlanOptions::new().algorithm(algorithm)
    }
}

/// The allreduce kind (see [`AllreducePlan`]).
pub struct Allreduce {
    pub(crate) len: usize,
    pub(crate) op: ReduceOp,
    pub(crate) variant: AllreduceVariant,
    /// Created with [`Algorithm::Auto`]: eligible for the post-warm-up
    /// re-rank from measured compression ratios and for calibration.
    pub(crate) auto: bool,
    pub(crate) reranked: bool,
    /// Lanes of the hierarchical schedule at this length (see
    /// [`CCollSession::hier_lanes`]); read when the split is built.
    pub(crate) lanes: usize,
}

impl Plan<Allreduce> {
    /// Values per rank this plan was built for.
    pub fn len(&self) -> usize {
        self.kind.len
    }

    /// True when the planned buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.kind.len == 0
    }

    /// The planned step-wise variant (meaningful on the ring schedule).
    pub fn variant(&self) -> AllreduceVariant {
        self.kind.variant
    }

    /// How many lanes — ranks per node that take part in the inter-node
    /// leg, each on its own slice — the hierarchical schedule runs
    /// with; `None` unless the plan is [`Algorithm::Hierarchical`]. The
    /// plan derives it from the cost model at creation; there is no
    /// setting for it.
    pub fn hier_lanes(&self) -> Option<usize> {
        (self.core.algorithm == Algorithm::Hierarchical).then_some(self.kind.lanes)
    }
}

impl Completes for Allreduce {
    type Output = ();
}

impl Kind for Allreduce {
    type Machine = ArMachine;

    fn check_buffers(&self, _rank: usize, input: &[f32], out: &[f32]) {
        assert_eq!(input.len(), self.len, "input disagrees with plan length");
        assert_eq!(out.len(), self.len, "output disagrees with plan length");
    }

    fn out_len(&self, _rank: usize) -> usize {
        self.len
    }

    fn hier_lanes(&self) -> usize {
        self.lanes
    }

    fn retune<C: Comm>(&mut self, core: &mut PlanCore, comm: &mut C) {
        if !self.auto {
            return;
        }
        let len = self.len;
        let calibrated = Some((allreduce_schedule(core.algorithm), len));
        let select = |ctx: SelectCtx<'_>| ctx.allreduce(len);
        if let Some(a) = maybe_rerank(core, comm, &mut self.reranked, calibrated, select) {
            core.algorithm = a;
            core.groups = None;
            core.ws = core.session.allreduce_workspace(len, a);
        }
    }

    /// ND — CPR-P2P reduce-scatter + compress-once allgather — serves as
    /// the ring fallback for codecs without an error bound.
    fn machine(&mut self, core: &mut PlanCore, _rank: usize) -> ArMachine {
        let compressed = core.session.cpr.is_some();
        // Piped for an error-bounded codec; a codec without a bound
        // (ZFP-FXR) cannot drive the SZx pipeline and runs its reducing
        // hops as monolithic CPR — on the ring that is ND.
        let place = core.session.placement();
        let once = AgMode::Compressed { overlap: true };
        match (core.algorithm, compressed) {
            (Algorithm::RecursiveDoubling, false) => {
                ArMachine::Butterfly(Butterfly::recursive_doubling(Placement::Raw))
            }
            (Algorithm::RecursiveDoubling, true) => {
                ArMachine::Butterfly(Butterfly::recursive_doubling(Placement::Cpr))
            }
            (Algorithm::Rabenseifner, _) => ArMachine::Butterfly(Butterfly::rabenseifner(place)),
            // The hierarchical placement is that of the inter-node leg
            // every lane owner runs on its slice; node-local legs are
            // always raw (intra-node links don't pay for a codec).
            (Algorithm::Hierarchical, _) => ArMachine::Hier(HierAr::new(place)),
            (_, false) => ArMachine::ring(Placement::Raw, AgMode::Raw),
            (_, true) => match self.variant {
                AllreduceVariant::Original => ArMachine::ring(Placement::Raw, AgMode::Raw),
                AllreduceVariant::DirectIntegration => ArMachine::ring(Placement::Cpr, AgMode::Cpr),
                AllreduceVariant::NovelDesign => ArMachine::ring(Placement::Cpr, once),
                AllreduceVariant::Overlapped => ArMachine::ring(place, once),
            },
        }
    }

    fn step<C: Comm>(
        &mut self,
        core: &mut PlanCore,
        machine: &mut ArMachine,
        comm: &mut C,
        input: &[f32],
        out: &mut [f32],
        block: bool,
    ) -> Poll {
        let PlanCore {
            session,
            groups,
            ws,
            ..
        } = core;
        machine.step(
            comm,
            session.cpr.as_ref(),
            self.op,
            groups.as_ref(),
            input,
            out,
            ws,
            block,
        )
    }

    fn output(_: &ArMachine) {}

    fn replan(&self, core: &PlanCore, r: &Recovery) -> Result<Plan<Self>, CollectiveError> {
        let s = r.session();
        let mut fresh = if core.algorithm == Algorithm::Ring && !self.auto {
            s.plan_allreduce_variant(self.len, self.op, self.variant)
        } else {
            let opts = recovered_options(self.auto, core.algorithm);
            s.plan_allreduce_with(self.len, self.op, opts)
        };
        fresh.kind.auto = self.auto;
        Ok(fresh)
    }
}

/// The allgather kind (see [`AllgatherPlan`]).
pub struct Allgather {
    pub(crate) counts: Vec<usize>,
    pub(crate) total: usize,
    /// Created with [`Algorithm::Auto`]: eligible for the one-shot
    /// post-warm-up re-rank from measured compression ratios.
    pub(crate) auto: bool,
    pub(crate) reranked: bool,
}

impl Allgather {
    /// The largest per-rank contribution of a `counts` layout.
    pub(crate) fn max_chunk(counts: &[usize]) -> usize {
        counts.iter().copied().max().unwrap_or(0)
    }

    /// Resolve `Auto` for a `counts` layout. The hierarchical layout
    /// aggregates per-node blocks, which only line up when every rank
    /// contributes the same count, so a ragged layout selects flat.
    pub(crate) fn select(counts: &[usize], ctx: SelectCtx<'_>) -> Algorithm {
        let uniform = counts.windows(2).all(|w| w[0] == w[1]);
        let ctx = if uniform {
            ctx
        } else {
            SelectCtx {
                cluster: None,
                ..ctx
            }
        };
        ctx.allgather(Self::max_chunk(counts))
    }
}

impl Plan<Allgather> {
    /// Per-rank value counts.
    pub fn counts(&self) -> &[usize] {
        &self.kind.counts
    }

    /// Total gathered length (the required output size).
    pub fn total_len(&self) -> usize {
        self.kind.total
    }
}

impl Completes for Allgather {
    type Output = ();
}

impl Kind for Allgather {
    type Machine = AgPlanMachine;

    fn check_buffers(&self, rank: usize, input: &[f32], out: &[f32]) {
        assert_eq!(
            input.len(),
            self.counts[rank],
            "my buffer disagrees with counts"
        );
        assert_eq!(out.len(), self.total, "output buffer size mismatch");
    }

    fn out_len(&self, _rank: usize) -> usize {
        self.total
    }

    fn retune<C: Comm>(&mut self, core: &mut PlanCore, comm: &mut C) {
        if !self.auto {
            return;
        }
        let counts = &self.counts;
        let select = |ctx: SelectCtx<'_>| Allgather::select(counts, ctx);
        if let Some(a) = maybe_rerank(core, comm, &mut self.reranked, None, select) {
            core.algorithm = a;
            core.groups = None;
            let max_chunk = Self::max_chunk(&self.counts);
            core.ws = core.session.allgather_workspace(max_chunk, a);
        }
    }

    fn hier_values(&self, rank: usize) -> usize {
        self.counts[rank]
    }

    fn machine(&mut self, core: &mut PlanCore, _rank: usize) -> AgPlanMachine {
        // The ring machines read the partition from the workspace; the
        // Bruck machine re-caches it from the counts it is handed.
        core.ws.set_partition_from_counts(&self.counts);
        let compressed = core.session.cpr.is_some();
        match (core.algorithm, compressed) {
            (Algorithm::Bruck, c) => AgPlanMachine::Bruck(BruckAg::new(c)),
            (Algorithm::Hierarchical, c) => {
                let groups = core
                    .groups
                    .as_ref()
                    .expect("hierarchical plans build their groups at start");
                let mode = if c {
                    AgMode::Compressed { overlap: true }
                } else {
                    AgMode::Raw
                };
                AgPlanMachine::Hier(HierAg::new(mode, groups.node_counts[groups.node]))
            }
            (_, true) => AgPlanMachine::Ring(RingAg::new(AgMode::Compressed { overlap: true })),
            (_, false) => AgPlanMachine::Ring(RingAg::new(AgMode::Raw)),
        }
    }

    fn step<C: Comm>(
        &mut self,
        core: &mut PlanCore,
        machine: &mut AgPlanMachine,
        comm: &mut C,
        input: &[f32],
        out: &mut [f32],
        block: bool,
    ) -> Poll {
        let PlanCore {
            session,
            groups,
            ws,
            ..
        } = core;
        let cpr = session.cpr.as_ref();
        match machine {
            AgPlanMachine::Ring(m) => m.step(comm, cpr, Some(input), out, ws, block),
            AgPlanMachine::Bruck(m) => m.step(comm, cpr, input, &self.counts, out, ws, block),
            AgPlanMachine::Hier(m) => {
                let groups = groups
                    .as_ref()
                    .expect("hierarchical plans build their groups at start");
                m.step(comm, cpr, groups, input, out, ws, block)
            }
        }
    }

    fn output(_: &AgPlanMachine) {}

    fn replan(&self, core: &PlanCore, r: &Recovery) -> Result<Plan<Self>, CollectiveError> {
        let counts = r.surviving_counts(&self.counts);
        let opts = recovered_options(self.auto, core.algorithm);
        let mut fresh = r.session().plan_allgatherv_with(&counts, opts);
        fresh.kind.auto = self.auto;
        Ok(fresh)
    }
}

/// The reduce-scatter kind (see [`ReduceScatterPlan`]).
pub struct ReduceScatter {
    pub(crate) len: usize,
    pub(crate) op: ReduceOp,
    pub(crate) counts: Vec<usize>,
}

impl Plan<ReduceScatter> {
    /// Values per rank this plan was built for.
    pub fn len(&self) -> usize {
        self.kind.len
    }

    /// True when the planned buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.kind.len == 0
    }

    /// The output length on `rank` (its chunk of the balanced partition).
    pub fn output_len(&self, rank: usize) -> usize {
        self.kind.counts[rank]
    }
}

impl Completes for ReduceScatter {
    type Output = ();
}

impl Kind for ReduceScatter {
    type Machine = RingRs;

    fn check_buffers(&self, _rank: usize, input: &[f32], _out: &[f32]) {
        assert_eq!(input.len(), self.len, "input disagrees with plan length");
    }

    fn out_len(&self, rank: usize) -> usize {
        self.counts[rank]
    }

    fn machine(&mut self, core: &mut PlanCore, _rank: usize) -> RingRs {
        RingRs::new(core.session.placement())
    }

    fn step<C: Comm>(
        &mut self,
        core: &mut PlanCore,
        machine: &mut RingRs,
        comm: &mut C,
        input: &[f32],
        out: &mut [f32],
        block: bool,
    ) -> Poll {
        let cpr = core.session.cpr.as_ref();
        machine.step_chunk(comm, cpr, self.op, input, out, &mut core.ws, block)
    }

    fn output(_: &RingRs) {}

    fn replan(&self, _core: &PlanCore, r: &Recovery) -> Result<Plan<Self>, CollectiveError> {
        Ok(r.session().plan_reduce_scatter(self.len, self.op))
    }
}

/// The broadcast kind (see [`BcastPlan`]).
pub struct Bcast {
    pub(crate) root: usize,
    pub(crate) len: usize,
    /// The root's node under the session topology (hierarchical
    /// schedules only; 0 otherwise).
    pub(crate) root_node: usize,
}

impl Plan<Bcast> {
    /// The broadcast root.
    pub fn root(&self) -> usize {
        self.kind.root
    }

    /// The broadcast length (required output size on every rank).
    pub fn len(&self) -> usize {
        self.kind.len
    }

    /// True when the planned buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.kind.len == 0
    }
}

impl Completes for Bcast {
    type Output = ();
}

impl Kind for Bcast {
    type Machine = BcMachine;

    fn check_buffers(&self, _rank: usize, _input: &[f32], out: &[f32]) {
        assert_eq!(out.len(), self.len, "output disagrees with plan length");
    }

    fn out_len(&self, _rank: usize) -> usize {
        self.len
    }

    fn machine(&mut self, core: &mut PlanCore, _rank: usize) -> BcMachine {
        // A session with a codec streams the payload in its PIPE
        // sub-chunks; without one the tree relays one raw message.
        let pipe = core
            .session
            .cpr
            .is_some()
            .then_some(core.session.pipe_values());
        match core.algorithm {
            Algorithm::Hierarchical => {
                BcMachine::Hier(HierBc::new(pipe, self.root, self.root_node))
            }
            _ => BcMachine::Flat(nb::Bcast::new(pipe, self.root)),
        }
    }

    fn step<C: Comm>(
        &mut self,
        core: &mut PlanCore,
        machine: &mut BcMachine,
        comm: &mut C,
        input: &[f32],
        out: &mut [f32],
        block: bool,
    ) -> Poll {
        let PlanCore {
            session,
            groups,
            ws,
            ..
        } = core;
        let cpr = session.cpr.as_ref();
        machine.step(comm, cpr, groups.as_ref(), input, out, ws, block)
    }

    fn output(_: &BcMachine) {}

    /// The shrunk session dropped the (now-stale) topology, so a
    /// hierarchical plan re-resolves to the flat binomial tree.
    fn replan(&self, _core: &PlanCore, r: &Recovery) -> Result<Plan<Self>, CollectiveError> {
        let root = surviving_root(r, self.root)?;
        Ok(r.session().plan_bcast(root, self.len))
    }
}

/// The scatter kind (see [`ScatterPlan`]).
pub struct Scatter {
    pub(crate) root: usize,
    pub(crate) total_len: usize,
    pub(crate) counts: Vec<usize>,
}

impl Plan<Scatter> {
    /// The scatter root.
    pub fn root(&self) -> usize {
        self.kind.root
    }

    /// The total scattered length.
    pub fn total_len(&self) -> usize {
        self.kind.total_len
    }

    /// The output length on `rank` (its chunk of the balanced partition).
    pub fn output_len(&self, rank: usize) -> usize {
        self.kind.counts[rank]
    }
}

impl Completes for Scatter {
    type Output = ();
}

impl Kind for Scatter {
    type Machine = nb::Scatter;

    /// The machine checks the root-only input and per-rank chunk itself.
    fn check_buffers(&self, _rank: usize, _input: &[f32], _out: &[f32]) {}

    fn out_len(&self, rank: usize) -> usize {
        self.counts[rank]
    }

    fn machine(&mut self, core: &mut PlanCore, _rank: usize) -> nb::Scatter {
        nb::Scatter::new(core.session.cpr.is_some(), self.root, self.total_len)
    }

    fn step<C: Comm>(
        &mut self,
        core: &mut PlanCore,
        machine: &mut nb::Scatter,
        comm: &mut C,
        input: &[f32],
        out: &mut [f32],
        block: bool,
    ) -> Poll {
        let cpr = core.session.cpr.as_ref();
        machine.step(comm, cpr, input, out, &mut core.ws, block)
    }

    fn output(_: &nb::Scatter) {}

    fn replan(&self, _core: &PlanCore, r: &Recovery) -> Result<Plan<Self>, CollectiveError> {
        let root = surviving_root(r, self.root)?;
        Ok(r.session().plan_scatter(root, self.total_len))
    }
}

/// The gather kind (see [`GatherPlan`]).
pub struct Gather {
    pub(crate) root: usize,
    pub(crate) total_len: usize,
    pub(crate) counts: Vec<usize>,
}

impl Plan<Gather> {
    /// The gather root.
    pub fn root(&self) -> usize {
        self.kind.root
    }

    /// The total gathered length (required output size on the root).
    pub fn total_len(&self) -> usize {
        self.kind.total_len
    }

    /// The input length on `rank` (its chunk of the balanced partition).
    pub fn input_len(&self, rank: usize) -> usize {
        self.kind.counts[rank]
    }
}

impl Completes for Gather {
    type Output = bool;
}

impl Kind for Gather {
    type Machine = nb::Gather;

    /// The machine checks the per-rank chunk and root-only output itself.
    fn check_buffers(&self, _rank: usize, _input: &[f32], _out: &[f32]) {}

    fn out_len(&self, rank: usize) -> usize {
        if rank == self.root {
            self.total_len
        } else {
            0
        }
    }

    fn machine(&mut self, core: &mut PlanCore, _rank: usize) -> nb::Gather {
        nb::Gather::new(core.session.cpr.is_some(), self.root, self.total_len)
    }

    fn step<C: Comm>(
        &mut self,
        core: &mut PlanCore,
        machine: &mut nb::Gather,
        comm: &mut C,
        input: &[f32],
        out: &mut [f32],
        block: bool,
    ) -> Poll {
        let cpr = core.session.cpr.as_ref();
        machine.step(comm, cpr, input, out, &mut core.ws, block)
    }

    fn output(machine: &nb::Gather) -> bool {
        machine.is_root()
    }

    fn replan(&self, _core: &PlanCore, r: &Recovery) -> Result<Plan<Self>, CollectiveError> {
        let root = surviving_root(r, self.root)?;
        Ok(r.session().plan_gather(root, self.total_len))
    }
}

/// The all-to-all kind (see [`AlltoallPlan`]).
pub struct Alltoall {
    pub(crate) len: usize,
}

impl Plan<Alltoall> {
    /// Values per rank this plan was built for.
    pub fn len(&self) -> usize {
        self.kind.len
    }

    /// True when the planned buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.kind.len == 0
    }
}

impl Completes for Alltoall {
    type Output = ();
}

impl Kind for Alltoall {
    type Machine = A2aMachine;

    fn check_buffers(&self, _rank: usize, input: &[f32], _out: &[f32]) {
        assert_eq!(input.len(), self.len, "input disagrees with plan length");
    }

    fn out_len(&self, _rank: usize) -> usize {
        self.len
    }

    fn machine(&mut self, core: &mut PlanCore, _rank: usize) -> A2aMachine {
        let compressed = core.session.cpr.is_some();
        match core.algorithm {
            Algorithm::Bruck => A2aMachine::Bruck(BruckA2a::new(compressed)),
            _ => A2aMachine::Pairwise(nb::Alltoall::new(compressed)),
        }
    }

    fn step<C: Comm>(
        &mut self,
        core: &mut PlanCore,
        machine: &mut A2aMachine,
        comm: &mut C,
        input: &[f32],
        out: &mut [f32],
        block: bool,
    ) -> Poll {
        let cpr = core.session.cpr.as_ref();
        machine.step(comm, cpr, input, out, &mut core.ws, block)
    }

    fn output(_: &A2aMachine) {}

    fn replan(&self, core: &PlanCore, r: &Recovery) -> Result<Plan<Self>, CollectiveError> {
        let opts = PlanOptions::new().algorithm(core.algorithm);
        Ok(r.session().plan_alltoall_with(self.len, opts))
    }
}

/// The rooted-reduce kind (see [`ReducePlan`]).
pub struct Reduce {
    pub(crate) root: usize,
    pub(crate) len: usize,
    pub(crate) op: ReduceOp,
    /// Created with [`Algorithm::Auto`]: eligible for the one-shot
    /// post-warm-up re-rank from measured compression ratios.
    pub(crate) auto: bool,
    pub(crate) reranked: bool,
    /// The reduce-scatter stage of the RS + gather composition; `None`
    /// on the binomial tree.
    pub(crate) rs: Option<RsStage>,
}

/// What the reduce-scatter + gather composition needs beyond `core.ws`
/// (which serves its gather stage).
pub(crate) struct RsStage {
    /// The reduce-scatter stage's workspace.
    pub(crate) ws: CollWorkspace,
    /// The balanced partition the two stages share.
    pub(crate) counts: Vec<usize>,
    /// Intermediate reduced-chunk buffer, reused across calls.
    pub(crate) mine: Vec<f32>,
}

impl Plan<Reduce> {
    /// Values per rank this plan was built for.
    pub fn len(&self) -> usize {
        self.kind.len
    }

    /// True when the planned buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.kind.len == 0
    }

    /// The reduce root.
    pub fn root(&self) -> usize {
        self.kind.root
    }
}

impl Completes for Reduce {
    type Output = bool;
}

impl Kind for Reduce {
    type Machine = ReduceMachine;

    fn check_buffers(&self, _rank: usize, input: &[f32], _out: &[f32]) {
        assert_eq!(input.len(), self.len, "input disagrees with plan length");
    }

    fn out_len(&self, rank: usize) -> usize {
        if rank == self.root {
            self.len
        } else {
            0
        }
    }

    fn retune<C: Comm>(&mut self, core: &mut PlanCore, comm: &mut C) {
        if !self.auto {
            return;
        }
        let len = self.len;
        let select = |ctx: SelectCtx<'_>| ctx.reduce(len);
        if let Some(a) = maybe_rerank(core, comm, &mut self.reranked, None, select) {
            core.algorithm = a;
            (core.ws, self.rs) = core.session.reduce_workspaces(len, a);
        }
    }

    fn machine(&mut self, core: &mut PlanCore, rank: usize) -> ReduceMachine {
        let session = &core.session;
        let compressed = session.cpr.is_some();
        match &mut self.rs {
            Some(stage) => {
                // `resize` shrinks as well as grows, keeping the buffer
                // exact without reallocating once its capacity is warm.
                stage.mine.resize(stage.counts[rank], 0.0);
                ReduceMachine::RsGather {
                    rs: RingRs::new(session.placement()),
                    gather: nb::Gather::new(compressed, self.root, self.len),
                    in_gather: false,
                }
            }
            // Error-bounded codecs stream every tree hop through the
            // sub-chunk pipeline with fused reduction.
            None => ReduceMachine::Tree(TreeReduce::new(session.placement(), self.root)),
        }
    }

    fn step<C: Comm>(
        &mut self,
        core: &mut PlanCore,
        machine: &mut ReduceMachine,
        comm: &mut C,
        input: &[f32],
        out: &mut [f32],
        block: bool,
    ) -> Poll {
        let PlanCore { session, ws, .. } = core;
        let cpr = session.cpr.as_ref();
        match (&mut self.rs, machine) {
            (None, ReduceMachine::Tree(m)) => m.step(comm, cpr, self.op, input, out, ws, block),
            (
                Some(stage),
                ReduceMachine::RsGather {
                    rs,
                    gather,
                    in_gather,
                },
            ) => {
                let mine = &mut stage.mine;
                if !*in_gather {
                    match rs.step_chunk(comm, cpr, self.op, input, mine, &mut stage.ws, block) {
                        Poll::Pending => return Poll::Pending,
                        Poll::Ready => {
                            // Drain the stage's compression-ratio sample
                            // so the session feedback sees both stages.
                            session.note_execution(&mut stage.ws);
                            *in_gather = true;
                        }
                    }
                }
                gather.step(comm, cpr, mine, out, ws, block)
            }
            _ => unreachable!("machine kind matches the plan's schedule"),
        }
    }

    fn output(machine: &ReduceMachine) -> bool {
        match machine {
            ReduceMachine::Tree(m) => m.is_root(),
            ReduceMachine::RsGather { gather, .. } => gather.is_root(),
        }
    }

    fn replan(&self, core: &PlanCore, r: &Recovery) -> Result<Plan<Self>, CollectiveError> {
        let root = surviving_root(r, self.root)?;
        let opts = if self.auto {
            PlanOptions::new()
        } else {
            PlanOptions::new().algorithm(core.algorithm)
        };
        Ok(r.session().plan_reduce_with(root, self.len, self.op, opts))
    }

    fn scrub(&mut self) {
        if let Some(stage) = &mut self.rs {
            stage.ws.abort();
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use ccoll_comm::{ClusterNet, HierNet, SimConfig, SimWorld, ThreadWorld};

    use super::*;

    /// Fixed-point lane values (×1024) for `rank` of world `n`: lane 0 is
    /// zero on roughly one rank in `2n` (so about half the cases have a
    /// "no sample" lane and half do not), lane 1 never is.
    fn lanes(n: usize, case: usize, rank: usize) -> [u32; 2] {
        let mut h = (n as u64) << 40 | (case as u64) << 32 | rank as u64;
        let mut next = || {
            // splitmix64
            h = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = h;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let zero = next() % (2 * n as u64) == 0;
        let a = if zero { 0 } else { 1 + next() % 100_000 };
        [a as u32, 1 + (next() % 100_000) as u32]
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
        let local = lanes(n, case, comm.rank()).map(|v| v as f64 / 1024.0);
        let mut pool = PayloadPool::new();
        agree_min(comm, topo, tags::AGREE_CALIB, local, &mut pool)
    }

    fn expected(n: usize, case: usize) -> [Option<f64>; 2] {
        let mut min = [u32::MAX; 2];
        for rank in 0..n {
            let v = lanes(n, case, rank);
            min = [min[0].min(v[0]), min[1].min(v[1])];
        }
        min.map(|v| (v > 0).then(|| v as f64 / 1024.0))
    }

    #[test]
    fn every_rank_agrees_on_the_lanewise_minimum() {
        let mut empty_lanes = 0;
        for n in 1..=40 {
            for (case, topo) in topologies(n).into_iter().enumerate() {
                let want = expected(n, case);
                empty_lanes += usize::from(want[0].is_none());
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
        // Both outcomes of the "no sample" lane were exercised.
        assert!((20..140).contains(&empty_lanes), "{empty_lanes} of 160");
    }

    #[test]
    fn one_lane_agreement_matches_the_two_lane_one() {
        let n = 12;
        let topo = Topology::from_node_sizes(&[5, 1, 6]);
        let out = SimWorld::new(SimConfig::new(n)).run(move |c| {
            let [a, _] = lanes(n, 0, c.rank());
            let mut pool = PayloadPool::new();
            let local = [a as f64 / 1024.0];
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

    /// Two raw ring allreduces (a bare `RingRs` + `RingAg` each) on one
    /// communicator: one blocking run after the other without `stamps`;
    /// with them, stepped turn and turn about, each through its own
    /// stamped view — odd ranks in reverse order, so equal stamps would
    /// cross-match.
    fn two_ring_allreduces<C: Comm>(comm: &mut C, stamps: Option<[Tag; 2]>) -> [Vec<f32>; 2] {
        let rank = comm.rank();
        let mut ops = [0, 1].map(|which| {
            // Integer-valued, so the sums are exact.
            let value = |i: usize| ((i * (which + 2) + rank * 31) % 97) as f32;
            let input: Vec<f32> = (0..1003).map(value).collect();
            let machine = ArMachine::ring(Placement::Raw, AgMode::Raw);
            (machine, input, vec![0.0f32; 1003], CollWorkspace::new())
        });
        let flip = stamps.is_some() && rank % 2 == 1;
        let mut done = [false; 2];
        while done != [true; 2] {
            for which in if flip { [1, 0] } else { [0, 1] } {
                let (machine, input, out, ws) = &mut ops[which];
                let mut view = CommView::stamped(comm, stamps.map_or(0, |s| s[which]));
                let block = stamps.is_none();
                let poll =
                    machine.step(&mut view, None, ReduceOp::Sum, None, input, out, ws, block);
                done[which] = poll.is_ready();
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
        let stamps = Some([op_base(0, 1), op_base(1, 0)]);
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

    #[test]
    fn flat_agreement_takes_log2_rounds() {
        let config = SimConfig::new(256);
        let round = config.net.latency + config.net.tx_time(8);
        let out = SimWorld::new(config).run(|c| agree_on(c, None, 256, 0));
        assert!(out.traffics.iter().all(|t| t.messages_sent == 8));
        assert!(out.makespan <= 8 * round, "{:?}", out.makespan);
    }
}
