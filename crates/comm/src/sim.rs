//! Deterministic virtual-time cluster simulator.
//!
//! This backend lets the paper's 128-node experiments run on one machine:
//! every rank executes the *real* collective code and moves *real*
//! (compressed) bytes, but time is virtual. Exactly one rank runs at any
//! instant; whenever a rank blocks (a wait, a barrier, a compute charge),
//! the kernel advances the virtual clock to the next scheduled event and
//! hands control to the corresponding rank. Execution is therefore fully
//! deterministic — independent of OS scheduling — and a "128-node,
//! 678 MB" experiment is just a function of the configuration.
//!
//! ## Network model
//!
//! Transfers follow an α–β model with endpoint serialization. Every
//! port carries one message at a time:
//!
//! * a message of `n` bytes occupies its sender's egress for `n·β`
//!   (β = 1/bandwidth) — a non-blocking send *completes* then
//!   (buffered/eager semantics) — and its receiver's ingress from
//!   `start`, the first instant that ingress is free, until the payload
//!   arrives at `start + α + n·β` (cut-through, latency α);
//! * a rank's private port has nothing between its ends: its message
//!   leaves at `start`, once the far ingress is free too, and its egress
//!   queue is FIFO (this is what makes a binomial-tree root's successive
//!   sends serialize, as they do on a real NIC);
//! * a node's shared NIC (with a [`crate::topology::ClusterNet`]
//!   attached, every cross-node message) sends into a switch that holds
//!   the bytes until the far NIC's ingress takes them at `start`. The NIC
//!   sends its messages back to back, each as soon as it is free, so one
//!   lane's message to a busy node does not hold back another lane's
//!   message to an idle one; and since a message's `start` is never
//!   before its edge's last arrival, every `(src, dst)` edge stays FIFO.
//!
//! Compute kernels run for real (producing real bytes) but charge modeled
//! durations from a [`CostModel`] via [`Comm::charge_duration`].
//!
//! ## Determinism, deadlock and fault injection
//!
//! Events are ordered by `(virtual time, creation sequence)`; ties resolve
//! by creation order, which is itself deterministic because only one rank
//! runs at a time. Kernel tables hash with a fixed
//! seed (`crate::hash`), so even their *growth* pattern — and therefore the
//! allocator behavior the collective allocation audit pins — is
//! byte-identical across processes. If every live rank is blocked and no event is
//! scheduled, the kernel builds a structured [`DeadlockReport`] (the
//! blocked rank/source/tag wait graph); [`SimWorld::run`] panics with it
//! rendered (the historical behavior, kept for `#[should_panic]` tests)
//! while [`SimWorld::try_run`] returns it as [`SimError::Deadlock`] so a
//! chaos harness can *classify* hangs instead of crashing.
//!
//! Attaching a seeded [`FaultPlan`] (see [`SimConfig::with_faults`])
//! injects deterministic message drop/delay/duplicate faults into the
//! delivery path, per-rank compute stalls, and a rank crash at a chosen
//! operation count. Because idle waits fast-forward virtual time, a
//! 128-rank fault sweep costs only the compute that actually runs —
//! timeouts are free. See [`crate::chaos`] for the fault model.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

use crate::hash::FixedMap;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use parking_lot::{Condvar, Mutex};

use crate::chaos::{CommError, FaultPlan, FaultPolicy, MsgFault};
use crate::comm::{Comm, Ctx, RecvReq, SendReq, Tag};
use crate::cost::{CostModel, Kernel};
use crate::profile::{Category, Profiler, TimeBreakdown, TrafficStats};
use crate::time::SimTime;

/// α–β network model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetModel {
    /// Per-message latency (α).
    pub latency: Duration,
    /// Link bandwidth in bytes per second (β = 1/bandwidth).
    pub bandwidth: f64,
}

impl Default for NetModel {
    /// Defaults mirroring the paper's testbed regime: Omni-Path is
    /// 100 Gb/s at the link, but the *effective* per-rank MPI
    /// large-message bandwidth — with bidirectional ring traffic, a
    /// shared fat-tree fabric across 128 nodes and MPI protocol copies —
    /// is well below 1 GB/s. (Back-computing from the paper's
    /// reported 2.1× C-Allreduce speedup with its Table-I SZx
    /// throughputs gives ≈0.8 GB/s; see DESIGN.md.) Latency ~1.5 µs.
    fn default() -> Self {
        NetModel {
            latency: Duration::from_nanos(1_500),
            bandwidth: 0.8e9,
        }
    }
}

impl NetModel {
    /// Pure transmission time for `bytes` (excluding latency).
    pub fn tx_time(&self, bytes: usize) -> Duration {
        if bytes == 0 {
            return Duration::ZERO;
        }
        Duration::from_secs_f64(bytes as f64 / self.bandwidth)
    }
}

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of ranks (simulated nodes).
    pub ranks: usize,
    /// Network model.
    pub net: NetModel,
    /// Optional cluster topology: when set, every link is priced by the
    /// per-level models in [`crate::topology::ClusterNet`] (intra-node
    /// vs inter-node) instead of the flat [`SimConfig::net`].
    pub cluster: Option<crate::topology::ClusterNet>,
    /// Compute-kernel cost model.
    pub cost: CostModel,
    /// Injected fault schedule (inert by default).
    pub faults: FaultPlan,
    /// Per-hop timeout/retry policy the collective layer reads back
    /// through [`Comm::fault_policy`] ([`FaultPolicy::NONE`] by
    /// default: infinite patience, pre-chaos behavior).
    pub policy: FaultPolicy,
}

impl SimConfig {
    /// A config with default network/cost models and no faults.
    pub fn new(ranks: usize) -> Self {
        SimConfig {
            ranks,
            net: NetModel::default(),
            cluster: None,
            cost: CostModel::default(),
            faults: FaultPlan::none(),
            policy: FaultPolicy::NONE,
        }
    }

    /// Attach a cluster topology (per-link two-level pricing).
    ///
    /// # Panics
    /// Panics when the topology's world disagrees with `ranks`.
    #[must_use]
    pub fn with_cluster(mut self, cluster: crate::topology::ClusterNet) -> Self {
        assert_eq!(
            cluster.topo.world(),
            self.ranks,
            "topology world disagrees with rank count"
        );
        self.cluster = Some(cluster);
        self
    }

    /// Attach a seeded fault schedule.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Set the collective layer's per-hop timeout/retry policy.
    #[must_use]
    pub fn with_fault_policy(mut self, policy: FaultPolicy) -> Self {
        self.policy = policy;
        self
    }
}

// ---------------------------------------------------------------------------
// Structured failure reporting.
// ---------------------------------------------------------------------------

/// One edge of the deadlock wait graph: `rank` is blocked receiving
/// from `src` in `ctx` on `tag`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitEdge {
    /// The blocked rank.
    pub rank: usize,
    /// The source rank its outstanding receive is matching.
    pub src: usize,
    /// The context its outstanding receive is matching.
    pub ctx: Ctx,
    /// The tag its outstanding receive is matching.
    pub tag: Tag,
}

/// A structured simulated-deadlock report: the virtual time at which
/// every live rank was blocked with no scheduled event, plus the
/// blocked-receive wait graph and the set of ranks stuck in a partial
/// barrier. Rendering it with `Display` produces exactly the panic
/// message [`SimWorld::run`] raises, so panic-based tests and the
/// structured [`SimWorld::try_run`] path stay in sync.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockReport {
    /// Virtual time of detection.
    pub at: SimTime,
    /// Number of live (unfinished) ranks at detection.
    pub live: usize,
    /// Blocked-receive edges, sorted by rank.
    pub waiting: Vec<WaitEdge>,
    /// Ranks blocked in an incomplete barrier, sorted.
    pub barrier_waiters: Vec<usize>,
    /// Ranks parked in [`Comm::idle`] with no event left to wake them,
    /// sorted.
    pub idle: Vec<usize>,
}

impl fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "simulated deadlock at t={}ns: {} live rank(s), no scheduled event",
            self.at.as_nanos(),
            self.live
        )?;
        for e in &self.waiting {
            write!(
                f,
                "\n  rank {}: blocked on recv from rank {} tag {} (op {}, epoch {})",
                e.rank, e.src, e.tag, e.ctx.op, e.ctx.epoch
            )?;
        }
        for r in &self.barrier_waiters {
            write!(f, "\n  rank {r}: blocked in barrier")?;
        }
        for r in &self.idle {
            write!(f, "\n  rank {r}: idle, nothing in flight to it")?;
        }
        Ok(())
    }
}

/// A whole-world simulation failure (see [`SimWorld::try_run`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Every live rank was blocked with no scheduled event.
    Deadlock(DeadlockReport),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock(report) => write!(f, "{report}"),
        }
    }
}

impl std::error::Error for SimError {}

/// How one rank's closure ended under [`SimWorld::try_run`].
#[derive(Debug)]
pub enum RankOutcome<T> {
    /// The closure returned normally.
    Completed(T),
    /// The rank was crashed by the fault plan's [`crate::chaos::KillSpec`].
    Killed,
    /// The closure panicked (message stringified).
    Panicked(String),
}

impl<T> RankOutcome<T> {
    /// The completed value, if any.
    pub fn completed(self) -> Option<T> {
        match self {
            RankOutcome::Completed(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow the completed value, if any.
    pub fn as_completed(&self) -> Option<&T> {
        match self {
            RankOutcome::Completed(v) => Some(v),
            _ => None,
        }
    }

    /// True when the rank was killed by the fault plan.
    pub fn is_killed(&self) -> bool {
        matches!(self, RankOutcome::Killed)
    }
}

/// Count of messages on one `(src, dst, ctx, tag)` edge still undelivered
/// when the world exited (posted-but-unmatched sends plus matched
/// receives never waited on) — the `unmatched_isend` leak audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UndeliveredMsg {
    /// Sender rank.
    pub src: usize,
    /// Destination rank.
    pub dst: usize,
    /// Message context.
    pub ctx: Ctx,
    /// Message tag.
    pub tag: Tag,
    /// Number of leaked messages on this edge.
    pub count: usize,
}

/// Panic payload used to crash a rank from inside the kernel; the
/// world runner classifies it as [`RankOutcome::Killed`].
struct RankKilled {
    rank: usize,
}

// ---------------------------------------------------------------------------
// Kernel state.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RankStatus {
    Live,
    Finished,
}

struct MatchQueue {
    /// Arrived-or-in-flight messages: (arrival ns, payload).
    msgs: VecDeque<(u64, Bytes)>,
    /// Receives posted with no matching message yet: request ids.
    recvs: VecDeque<u64>,
}

impl Default for MatchQueue {
    /// Both sides allocated up front. Which of them an edge's traffic
    /// lands in — message first or receive first — is a matter of
    /// cross-rank timing, so a lazily grown side could see its first
    /// push, and allocate, arbitrarily late; an edge's *existence* is a
    /// property of the schedule, settled within a plan's first two
    /// executions (one per start generation).
    fn default() -> Self {
        MatchQueue {
            msgs: VecDeque::with_capacity(4),
            recvs: VecDeque::with_capacity(4),
        }
    }
}

struct Assignment {
    arrival: u64,
    payload: Bytes,
}

/// Identity of an outstanding receive, kept until the request is
/// consumed or canceled; feeds the deadlock wait graph, dead-peer
/// detection and the undelivered-message audit.
#[derive(Debug, Clone, Copy)]
struct ReqMeta {
    src: usize,
    dst: usize,
    ctx: Ctx,
    tag: Tag,
}

/// A match table's key: `(src, dst, ctx, tag)`.
type Edge = (usize, usize, Ctx, Tag);

/// A table whose entries come and go with every message. Sized so the
/// rehash that accumulated tombstones force happens in place (live
/// entries stay under half the capacity) rather than reallocating at a
/// moment that depends on cross-rank timing.
fn churning<K, V>(ranks: usize) -> FixedMap<K, V> {
    FixedMap::with_capacity_and_hasher(64 * ranks, Default::default())
}

#[derive(Default)]
struct BarrierSt {
    waiters: Vec<usize>,
    max_time: u64,
}

/// Why a deadline wait failed (kernel-internal; `SimComm` converts to
/// [`CommError`]).
enum WaitFail {
    Timeout {
        src: usize,
        tag: Tag,
        waited: Duration,
    },
    PeerDead {
        peer: usize,
        waited: Duration,
    },
}

struct KState {
    now: u64,
    seq: u64,
    running: Option<usize>,
    booted: bool,
    /// Set when the kernel detects a simulated deadlock; every parked rank
    /// wakes and panics with this message so the world cannot hang.
    poisoned: Option<String>,
    /// The structured form of `poisoned`, for `try_run`.
    deadlock: Option<DeadlockReport>,
    live: usize,
    status: Vec<RankStatus>,
    /// Per-rank wake-event generation: bumped every time a rank
    /// consumes a wake, so leftover events (e.g. a deadline that lost
    /// the race against an arrival) go stale instead of waking the
    /// rank mid-charge at the wrong virtual time.
    epoch: Vec<u64>,
    heap: BinaryHeap<Reverse<(u64, u64, usize, u64)>>,
    queues: FixedMap<Edge, MatchQueue>,
    assignments: FixedMap<u64, Assignment>,
    req_meta: FixedMap<u64, ReqMeta>,
    /// Send request → (sending rank, egress time).
    send_done: FixedMap<u64, (usize, u64)>,
    /// Rank → request id it is parked on (no heap entry).
    blocked_recv: FixedMap<usize, u64>,
    /// Ranks parked in [`Comm::idle`]: an `isend` matching one of their
    /// posted receives wakes them at its arrival.
    idle: Vec<bool>,
    /// When each port's egress / ingress side is next free. Ports
    /// `0..n` are the ranks' own; with a [`crate::topology::ClusterNet`]
    /// attached, port `n + k` is node `k`'s shared NIC, used instead of
    /// the per-rank ports for cross-node messages: all ranks on a node
    /// contend for one egress/ingress pair, which is what makes
    /// leader-only hierarchical schedules cheaper than flat butterflies
    /// at scale.
    egress_free: Vec<u64>,
    ingress_free: Vec<u64>,
    barrier: BarrierSt,
    next_req: u64,
    /// Per-rank communicator-operation counters (kill trigger).
    ops: Vec<u64>,
    /// Per-rank compute-charge counters (stall schedule index).
    charges: Vec<u64>,
    /// Ranks crashed by the fault plan.
    killed: Vec<bool>,
    /// Per-edge message counters (fault schedule index).
    edge_seq: FixedMap<Edge, u64>,
    /// Messages permanently lost by the fault plan.
    lost: u64,
    breakdowns: Vec<TimeBreakdown>,
    traffics: Vec<TrafficStats>,
    finish_time: Vec<u64>,
}

struct SimKernel {
    state: Mutex<KState>,
    /// One condvar per rank: a clock handoff wakes exactly the granted
    /// rank's thread. A single shared condvar here turns every handoff
    /// into an O(world) thundering herd, which at 512+ ranks dominates
    /// the entire simulation (the ring alone does ~n² handoffs).
    cvs: Vec<Condvar>,
    net: NetModel,
    cluster: Option<crate::topology::ClusterNet>,
    cost: CostModel,
    faults: FaultPlan,
    policy: FaultPolicy,
    size: usize,
}

impl SimKernel {
    /// Wake every parked rank — used only on terminal transitions
    /// (world drained, poisoned): each thread must observe the final
    /// state and unwind, so the O(world) broadcast is paid once.
    fn wake_all(&self) {
        for cv in &self.cvs {
            cv.notify_all();
        }
    }

    fn push_event(g: &mut KState, time: u64, rank: usize) {
        g.seq += 1;
        let entry = Reverse((time, g.seq, rank, g.epoch[rank]));
        g.heap.push(entry);
    }

    /// Pick the next runnable rank from the event heap.
    fn grant_next(&self, g: &mut KState) {
        loop {
            match g.heap.pop() {
                Some(Reverse((t, _, r, ep))) => {
                    if g.status[r] == RankStatus::Finished || ep != g.epoch[r] {
                        continue;
                    }
                    debug_assert!(t >= g.now, "time went backwards: {} -> {}", g.now, t);
                    g.now = g.now.max(t);
                    g.running = Some(r);
                    self.cvs[r].notify_one();
                    return;
                }
                None => {
                    if g.live == 0 {
                        g.running = None;
                        self.wake_all();
                        return;
                    }
                    let mut waiting: Vec<WaitEdge> = g
                        .blocked_recv
                        .iter()
                        .map(|(&rank, &req)| {
                            let m = g.req_meta.get(&req);
                            WaitEdge {
                                rank,
                                src: m.map(|m| m.src).unwrap_or(usize::MAX),
                                ctx: m.map(|m| m.ctx).unwrap_or_default(),
                                tag: m.map(|m| m.tag).unwrap_or(0),
                            }
                        })
                        .collect();
                    waiting.sort_by_key(|e| e.rank);
                    let mut barrier_waiters = g.barrier.waiters.clone();
                    barrier_waiters.sort_unstable();
                    let idle = (0..self.size).filter(|&r| g.idle[r]).collect();
                    let report = DeadlockReport {
                        at: SimTime::from_nanos(g.now),
                        live: g.live,
                        waiting,
                        barrier_waiters,
                        idle,
                    };
                    // Poison instead of panicking here: every parked rank
                    // must wake up and fail, otherwise the world hangs.
                    g.poisoned = Some(report.to_string());
                    g.deadlock = Some(report);
                    g.running = None;
                    self.wake_all();
                    return;
                }
            }
        }
    }

    /// Park the calling rank until it is granted the clock again.
    /// The caller must have registered its wake condition first.
    fn park(&self, g: &mut parking_lot::MutexGuard<'_, KState>, me: usize) {
        self.grant_next(g);
        loop {
            if let Some(msg) = &g.poisoned {
                panic!("{msg}");
            }
            if g.running == Some(me) {
                // Consume the wake: any other event still scheduled
                // for this rank is now stale.
                g.epoch[me] += 1;
                return;
            }
            self.cvs[me].wait(g);
        }
    }

    fn start(&self, me: usize) {
        let mut g = self.state.lock();
        if !g.booted {
            g.booted = true;
            self.grant_next(&mut g);
        }
        loop {
            if let Some(msg) = &g.poisoned {
                panic!("{msg}");
            }
            if g.running == Some(me) {
                g.epoch[me] += 1;
                return;
            }
            self.cvs[me].wait(&mut g);
        }
    }

    fn finish(&self, me: usize, breakdown: TimeBreakdown, traffic: TrafficStats) {
        let mut g = self.state.lock();
        g.status[me] = RankStatus::Finished;
        g.live -= 1;
        g.finish_time[me] = g.now;
        g.breakdowns[me] = breakdown;
        g.traffics[me] = traffic;
        if g.poisoned.is_none() {
            self.grant_next(&mut g);
        }
    }

    /// Count one communicator operation for `me` and, if the fault
    /// plan's kill point has been reached, crash the rank: mark it
    /// dead, wake every rank parked indefinitely on a message from it
    /// (so they observe `PeerDead` instead of deadlocking), and panic
    /// with a typed payload the world runner classifies.
    fn maybe_kill(&self, g: &mut KState, me: usize) {
        g.ops[me] += 1;
        let Some(k) = self.faults.kill else { return };
        if k.rank != me || g.killed[me] || g.ops[me] <= k.after_ops {
            return;
        }
        g.killed[me] = true;
        let waiters: Vec<(usize, u64)> = g.blocked_recv.iter().map(|(&r, &q)| (r, q)).collect();
        for (rank, rq) in waiters {
            if g.req_meta.get(&rq).map(|m| m.src) == Some(me) {
                let now = g.now;
                Self::push_event(g, now, rank);
            }
        }
        // An idling rank re-checks whether it waits on the dead one.
        for rank in 0..self.size {
            if g.idle[rank] {
                let now = g.now;
                Self::push_event(g, now, rank);
            }
        }
        std::panic::panic_any(RankKilled { rank: me });
    }

    fn advance(&self, me: usize, d: Duration) {
        if d == Duration::ZERO {
            return;
        }
        let mut g = self.state.lock();
        self.maybe_kill(&mut g, me);
        let mut extra = 0u64;
        if self.faults.stall > 0.0 {
            let idx = g.charges[me];
            g.charges[me] += 1;
            if let Some(s) = self.faults.stall_fault(me, idx) {
                extra = s.as_nanos() as u64;
            }
        }
        let wake = g.now + d.as_nanos() as u64 + extra;
        Self::push_event(&mut g, wake, me);
        self.park(&mut g, me);
    }

    fn isend(&self, me: usize, dst: usize, ctx: Ctx, tag: Tag, payload: Bytes) -> (u64, Duration) {
        let mut g = self.state.lock();
        self.maybe_kill(&mut g, me);
        let len = payload.len();
        // Topology-aware pricing: an intra-node link is much cheaper
        // than a cross-node one when a cluster is attached, and a
        // cross-node message serializes on the *shared per-node NIC*
        // rather than the sender's private port — all ranks on a node
        // contend for one egress/ingress pair, exactly the contention
        // that hierarchical leader-only schedules sidestep.
        let n = self.size;
        let (link, sp, dp, nic) = match &self.cluster {
            Some(c) if !c.topo.same_node(me, dst) => (
                c.net.inter,
                n + c.topo.node_of(me),
                n + c.topo.node_of(dst),
                true,
            ),
            Some(c) => (c.net.intra, me, dst, false),
            None => (self.net, me, dst, false),
        };
        let tx = link.tx_time(len).as_nanos() as u64;
        let alpha = link.latency.as_nanos() as u64;
        let egress_start = g.now.max(g.egress_free[sp]);
        let start = egress_start.max(g.ingress_free[dp]);
        // A private port sends from `start`, once the far ingress is free.
        // A node NIC sends from `egress_start` into the switch, which
        // holds the bytes until the far ingress takes them at `start`.
        let egress_done = if nic { egress_start } else { start } + tx;
        let mut arrival = start + alpha + tx;
        let mut ingress_busy = arrival;
        let mut deliver = true;
        if self.faults.is_active() {
            let seq = {
                let c = g.edge_seq.entry((me, dst, ctx, tag)).or_insert(0);
                let s = *c;
                *c += 1;
                s
            };
            match self.faults.message_fault(me, dst, ctx, tag, seq) {
                MsgFault::Deliver => {}
                MsgFault::Delay(d) => {
                    arrival += d.as_nanos() as u64;
                    ingress_busy = arrival;
                }
                MsgFault::Retransmit { attempts } => {
                    // The reliable transport redelivers after
                    // `attempts` RTO periods; the receiver just sees a
                    // late message (per-edge FIFO is preserved by the
                    // ingress-port serialization below).
                    arrival += self.faults.rto.as_nanos() as u64 * attempts as u64;
                    ingress_busy = arrival;
                }
                MsgFault::Lose => {
                    // Retransmission budget exhausted: the payload
                    // never arrives. Eager-send semantics mean the
                    // sender still completes at egress time.
                    deliver = false;
                    ingress_busy = g.ingress_free[dp];
                    g.lost += 1;
                }
                MsgFault::Duplicate => {
                    // A ghost copy burns ingress time after the real
                    // arrival; duplicate suppression below the
                    // matching layer keeps FIFO matching intact.
                    ingress_busy = arrival + tx;
                }
            }
        }
        g.egress_free[sp] = egress_done;
        g.ingress_free[dp] = g.ingress_free[dp].max(ingress_busy);
        g.next_req += 1;
        let id = g.next_req;
        g.send_done.insert(id, (me, egress_done));
        if deliver {
            let q = g.queues.entry((me, dst, ctx, tag)).or_default();
            if let Some(rid) = q.recvs.pop_front() {
                g.assignments.insert(rid, Assignment { arrival, payload });
                // Wake the receiver if it is parked on this very request,
                // or idling on any of its receives.
                if g.blocked_recv.get(&dst) == Some(&rid) {
                    g.blocked_recv.remove(&dst);
                    let wake = arrival.max(g.now);
                    Self::push_event(&mut g, wake, dst);
                } else if g.idle[dst] {
                    let wake = arrival.max(g.now);
                    Self::push_event(&mut g, wake, dst);
                }
            } else {
                q.msgs.push_back((arrival, payload));
            }
        }
        (id, Duration::ZERO)
    }

    fn irecv(&self, me: usize, src: usize, ctx: Ctx, tag: Tag) -> u64 {
        let mut g = self.state.lock();
        self.maybe_kill(&mut g, me);
        g.next_req += 1;
        let id = g.next_req;
        let meta = ReqMeta {
            src,
            dst: me,
            ctx,
            tag,
        };
        g.req_meta.insert(id, meta);
        let q = g.queues.entry((src, me, ctx, tag)).or_default();
        if let Some((arrival, payload)) = q.msgs.pop_front() {
            g.assignments.insert(id, Assignment { arrival, payload });
        } else {
            q.recvs.push_back(id);
        }
        id
    }

    /// Remove every trace of an outstanding receive.
    fn deregister_recv(g: &mut KState, req: u64) {
        if let Some(m) = g.req_meta.remove(&req) {
            if let Some(q) = g.queues.get_mut(&(m.src, m.dst, m.ctx, m.tag)) {
                q.recvs.retain(|&r| r != req);
            }
            if g.blocked_recv.get(&m.dst) == Some(&req) {
                g.blocked_recv.remove(&m.dst);
            }
        }
        g.assignments.remove(&req);
    }

    /// Blocking receive with an optional deadline (`None` = forever).
    /// On timeout the request stays posted — a transport-retransmitted
    /// message can still complete it, so the caller may re-arm the
    /// wait. On `PeerDead` the request is deregistered: it can never
    /// complete.
    fn wait_recv_deadline(
        &self,
        me: usize,
        req: u64,
        timeout: Option<u64>,
    ) -> Result<(Bytes, Duration), WaitFail> {
        let mut g = self.state.lock();
        self.maybe_kill(&mut g, me);
        let t0 = g.now;
        let deadline = timeout.map(|t| g.now.saturating_add(t));
        loop {
            if let Some(a) = g.assignments.get(&req) {
                let arrival = a.arrival;
                if arrival <= g.now {
                    let a = g.assignments.remove(&req).expect("checked above");
                    g.req_meta.remove(&req);
                    let waited = Duration::from_nanos(g.now - t0);
                    return Ok((a.payload, waited));
                }
                if let Some(d) = deadline {
                    if g.now >= d {
                        let m = g.req_meta.get(&req).copied();
                        return Err(WaitFail::Timeout {
                            src: m.map(|m| m.src).unwrap_or(usize::MAX),
                            tag: m.map(|m| m.tag).unwrap_or(0),
                            waited: Duration::from_nanos(g.now - t0),
                        });
                    }
                }
                let wake = deadline.map_or(arrival, |d| arrival.min(d));
                Self::push_event(&mut g, wake, me);
                self.park(&mut g, me);
                continue;
            }
            // Unmatched: a dead sender can never produce the message
            // (anything it sent before dying already matched or sits
            // in the queue, which was checked at post time and by
            // every `isend`).
            let meta = g.req_meta.get(&req).copied();
            if let Some(m) = meta {
                if g.killed[m.src] {
                    Self::deregister_recv(&mut g, req);
                    return Err(WaitFail::PeerDead {
                        peer: m.src,
                        waited: Duration::from_nanos(g.now - t0),
                    });
                }
            }
            if let Some(d) = deadline {
                if g.now >= d {
                    if g.blocked_recv.get(&me) == Some(&req) {
                        g.blocked_recv.remove(&me);
                    }
                    return Err(WaitFail::Timeout {
                        src: meta.map(|m| m.src).unwrap_or(usize::MAX),
                        tag: meta.map(|m| m.tag).unwrap_or(0),
                        waited: Duration::from_nanos(g.now - t0),
                    });
                }
                g.blocked_recv.insert(me, req);
                Self::push_event(&mut g, d, me);
            } else {
                g.blocked_recv.insert(me, req);
            }
            self.park(&mut g, me);
            if g.blocked_recv.get(&me) == Some(&req) {
                g.blocked_recv.remove(&me);
            }
        }
    }

    fn wait_recv(&self, me: usize, req: u64) -> (Bytes, Duration) {
        match self.wait_recv_deadline(me, req, None) {
            Ok(out) => out,
            Err(WaitFail::PeerDead { peer, .. }) => {
                panic!("receive from rank {peer} cannot complete: rank killed by fault plan")
            }
            Err(WaitFail::Timeout { .. }) => unreachable!("no deadline was set"),
        }
    }

    fn cancel_recv(&self, req: u64) {
        let mut g = self.state.lock();
        Self::deregister_recv(&mut g, req);
    }

    /// Drop `me`'s posted receives and pending inbound messages whose
    /// context the `stale` predicate condemns (see [`Comm::abort_cleanup`]
    /// and [`Comm::purge_stale`]). Returns how many posted receives and
    /// undelivered messages were discarded.
    fn purge_rank<F: Fn(Ctx) -> bool>(&self, me: usize, stale: F) -> u64 {
        let mut g = self.state.lock();
        let mine: Vec<u64> = g
            .req_meta
            .iter()
            .filter(|(_, m)| m.dst == me && stale(m.ctx))
            .map(|(&r, _)| r)
            .collect();
        let mut purged = mine.len() as u64;
        for req in mine {
            Self::deregister_recv(&mut g, req);
        }
        for ((_, dst, ctx, _), q) in g.queues.iter_mut() {
            if *dst == me && stale(*ctx) {
                purged += q.msgs.len() as u64;
                q.msgs.clear();
            }
        }
        g.blocked_recv.remove(&me);
        purged
    }

    fn is_killed(&self, rank: usize) -> bool {
        self.state.lock().killed[rank]
    }

    fn test_recv(&self, req: u64) -> bool {
        let g = self.state.lock();
        g.assignments
            .get(&req)
            .map(|a| a.arrival <= g.now)
            .unwrap_or(false)
    }

    fn wait_send(&self, me: usize, req: u64) -> Duration {
        let mut g = self.state.lock();
        self.maybe_kill(&mut g, me);
        let t0 = g.now;
        let (_, done) = *g.send_done.get(&req).expect("wait on unknown send request");
        if done > g.now {
            Self::push_event(&mut g, done, me);
            self.park(&mut g, me);
        }
        g.send_done.remove(&req);
        Duration::from_nanos(g.now - t0)
    }

    fn test_send(&self, req: u64) -> bool {
        let g = self.state.lock();
        g.send_done
            .get(&req)
            .map(|&(_, d)| d <= g.now)
            .unwrap_or(true)
    }

    /// [`Comm::idle`]: park `me` until the earliest future arrival on one
    /// of its posted receives or egress of one of its sends — or, for a
    /// receive nothing has matched yet, the matching `isend` — but no
    /// later than `timeout` from now. Returns whether it woke before the
    /// deadline, and how long it was parked; `(false, 0)` without parking
    /// when a posted receive waits on a dead rank.
    fn idle(&self, me: usize, timeout: Option<u64>) -> (bool, Duration) {
        let mut g = self.state.lock();
        let t0 = g.now;
        let (mut next, mut arrived, mut unmatched) = (None::<u64>, false, false);
        let mut future = |t: u64| {
            if t > t0 {
                next = Some(next.map_or(t, |n| n.min(t)));
            }
        };
        for (req, m) in g.req_meta.iter().filter(|(_, m)| m.dst == me) {
            match g.assignments.get(req) {
                Some(a) => {
                    arrived |= a.arrival <= t0;
                    future(a.arrival);
                }
                None if g.killed[m.src] => return (false, Duration::ZERO),
                None => unmatched = true,
            }
        }
        for &(_, done) in g.send_done.values().filter(|(from, _)| *from == me) {
            future(done);
        }
        if next.is_none() && !unmatched && arrived {
            // Nothing left to wait for, but what has arrived is there
            // to take: waiting would only wait forever.
            return (true, Duration::ZERO);
        }
        let deadline = timeout.map(|t| t0.saturating_add(t));
        if let Some(wake) = match (next, deadline) {
            (Some(n), Some(d)) => Some(n.min(d)),
            (n, d) => n.or(d),
        } {
            Self::push_event(&mut g, wake, me);
        }
        g.idle[me] = true;
        self.park(&mut g, me);
        g.idle[me] = false;
        let woke = deadline.is_none_or(|d| g.now < d);
        (woke, Duration::from_nanos(g.now - t0))
    }

    fn barrier(&self, me: usize) -> Duration {
        let mut g = self.state.lock();
        self.maybe_kill(&mut g, me);
        let t0 = g.now;
        g.barrier.max_time = g.barrier.max_time.max(g.now);
        g.barrier.waiters.push(me);
        if g.barrier.waiters.len() == self.size {
            let release = g.barrier.max_time;
            g.barrier.max_time = 0;
            // Drain in place (rather than `mem::take`) so the waiters
            // vector keeps its capacity: steady-state barriers must not
            // touch the allocator (see the collective allocation audit).
            while let Some(w) = g.barrier.waiters.pop() {
                let wake = release.max(g.now);
                Self::push_event(&mut g, wake, w);
            }
        }
        self.park(&mut g, me);
        Duration::from_nanos(g.now - t0)
    }

    fn now(&self) -> u64 {
        self.state.lock().now
    }
}

// ---------------------------------------------------------------------------
// Public world / comm types.
// ---------------------------------------------------------------------------

/// A virtual cluster. See the module docs for the model.
pub struct SimWorld {
    config: SimConfig,
}

/// Output of a simulated run.
#[derive(Debug)]
pub struct SimRunOutput<T> {
    /// Per-rank return values.
    pub results: Vec<T>,
    /// Per-rank virtual-time breakdowns.
    pub breakdowns: Vec<TimeBreakdown>,
    /// Per-rank message-volume counters.
    pub traffics: Vec<TrafficStats>,
    /// Virtual time at which the last rank finished — the makespan that
    /// performance figures report.
    pub makespan: Duration,
    /// Per-rank virtual finish times.
    pub finish_times: Vec<Duration>,
    /// Messages still undelivered when the world exited, aggregated
    /// per `(src, dst, tag)` edge and sorted — the `unmatched_isend`
    /// leak audit. Empty for a protocol-clean run.
    pub undelivered: Vec<UndeliveredMsg>,
    /// Messages permanently dropped by the fault plan (never counted
    /// as undelivered: the network, not the program, ate them).
    pub lost_messages: u64,
}

impl<T> SimRunOutput<T> {
    /// Element-wise maximum breakdown across ranks (the paper's
    /// breakdown charts show the slowest-path composition).
    pub fn max_breakdown(&self) -> TimeBreakdown {
        let mut acc = TimeBreakdown::new();
        for b in &self.breakdowns {
            acc.max_with(b);
        }
        acc
    }

    /// Total number of undelivered messages left at exit.
    pub fn undelivered_total(&self) -> usize {
        self.undelivered.iter().map(|u| u.count).sum()
    }
}

impl SimWorld {
    /// Create a virtual cluster.
    ///
    /// # Panics
    /// Panics if the config has zero ranks.
    pub fn new(config: SimConfig) -> Self {
        assert!(config.ranks > 0, "world needs at least one rank");
        SimWorld { config }
    }

    /// Convenience: `ranks` ranks with default models.
    pub fn with_ranks(ranks: usize) -> Self {
        Self::new(SimConfig::new(ranks))
    }

    /// Spawn one thread per rank, run `f` everywhere, and join,
    /// keeping each rank's raw result (value or panic payload) in rank
    /// order.
    #[allow(clippy::type_complexity)]
    fn run_threads<T, F>(&self, f: F) -> (Vec<Result<T, Box<dyn Any + Send>>>, Arc<SimKernel>)
    where
        T: Send + 'static,
        F: Fn(&mut SimComm) -> T + Send + Sync + 'static,
    {
        let n = self.config.ranks;
        let ports = n + self.config.cluster.as_ref().map_or(0, |c| c.topo.nodes());
        let kernel = Arc::new(SimKernel {
            state: Mutex::new(KState {
                now: 0,
                seq: 0,
                running: None,
                booted: false,
                poisoned: None,
                deadlock: None,
                live: n,
                status: vec![RankStatus::Live; n],
                epoch: vec![0; n],
                heap: {
                    let mut h = BinaryHeap::new();
                    for r in 0..n {
                        h.push(Reverse((0u64, r as u64, r, 0u64)));
                    }
                    h
                },
                queues: FixedMap::default(),
                assignments: churning(n),
                req_meta: churning(n),
                send_done: churning(n),
                blocked_recv: FixedMap::default(),
                idle: vec![false; n],
                egress_free: vec![0; ports],
                ingress_free: vec![0; ports],
                barrier: BarrierSt::default(),
                next_req: 0,
                ops: vec![0; n],
                charges: vec![0; n],
                killed: vec![false; n],
                edge_seq: FixedMap::default(),
                lost: 0,
                breakdowns: vec![TimeBreakdown::new(); n],
                traffics: vec![TrafficStats::default(); n],
                finish_time: vec![0; n],
            }),
            cvs: (0..n).map(|_| Condvar::new()).collect(),
            net: self.config.net,
            cluster: self.config.cluster.clone(),
            cost: self.config.cost.clone(),
            faults: self.config.faults,
            policy: self.config.policy,
            size: n,
        });
        let f = Arc::new(f);
        let handles: Vec<_> = (0..n)
            .map(|rank| {
                let kernel = Arc::clone(&kernel);
                let f = Arc::clone(&f);
                std::thread::Builder::new()
                    .name(format!("sim-rank-{rank}"))
                    .spawn(move || {
                        kernel.start(rank);
                        let mut comm = SimComm {
                            rank,
                            kernel: Arc::clone(&kernel),
                            profiler: Profiler::enabled(),
                        };
                        let out =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut comm)));
                        let breakdown = comm.profiler.breakdown().clone();
                        let traffic = comm.profiler.traffic();
                        // Hand the clock off in both arms so other
                        // ranks don't hang, then propagate.
                        kernel.finish(rank, breakdown, traffic);
                        match out {
                            Ok(v) => Ok(v),
                            Err(e) => Err(e),
                        }
                    })
                    .expect("spawn sim rank thread")
            })
            .collect();
        let results: Vec<Result<T, Box<dyn Any + Send>>> = handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(inner) => inner,
                Err(e) => Err(e),
            })
            .collect();
        (results, kernel)
    }

    /// Assemble the run output from the kernel's final state.
    fn collect_output<T>(kernel: &SimKernel, results: Vec<T>) -> SimRunOutput<T> {
        let g = kernel.state.lock();
        let mut counts: HashMap<Edge, usize> = HashMap::new();
        for (&edge, q) in &g.queues {
            if !q.msgs.is_empty() {
                *counts.entry(edge).or_insert(0) += q.msgs.len();
            }
        }
        for req in g.assignments.keys() {
            if let Some(m) = g.req_meta.get(req) {
                *counts.entry((m.src, m.dst, m.ctx, m.tag)).or_insert(0) += 1;
            }
        }
        let mut undelivered: Vec<UndeliveredMsg> = counts
            .into_iter()
            .map(|((src, dst, ctx, tag), count)| UndeliveredMsg {
                src,
                dst,
                ctx,
                tag,
                count,
            })
            .collect();
        undelivered.sort_by_key(|u| (u.src, u.dst, u.ctx, u.tag));
        SimRunOutput {
            results,
            breakdowns: g.breakdowns.clone(),
            traffics: g.traffics.clone(),
            makespan: Duration::from_nanos(g.finish_time.iter().copied().max().unwrap_or(0)),
            finish_times: g
                .finish_time
                .iter()
                .map(|&t| Duration::from_nanos(t))
                .collect(),
            undelivered,
            lost_messages: g.lost,
        }
    }

    /// Run `f` on every simulated rank and gather results.
    ///
    /// # Panics
    /// Propagates rank panics (including simulated-deadlock panics and
    /// fault-plan rank kills). Use [`SimWorld::try_run`] to classify
    /// failures instead.
    pub fn run<T, F>(&self, f: F) -> SimRunOutput<T>
    where
        T: Send + 'static,
        F: Fn(&mut SimComm) -> T + Send + Sync + 'static,
    {
        let (raw, kernel) = self.run_threads(f);
        let mut results = Vec::with_capacity(raw.len());
        let mut first_panic = None;
        for r in raw {
            match r {
                Ok(v) => results.push(v),
                Err(e) => {
                    if first_panic.is_none() {
                        first_panic = Some(e);
                    }
                }
            }
        }
        if let Some(e) = first_panic {
            if let Some(k) = e.downcast_ref::<RankKilled>() {
                panic!("rank {} killed by fault plan", k.rank);
            }
            // Propagate the original payload (e.g. the deadlock dump).
            std::panic::resume_unwind(e);
        }
        Self::collect_output(&kernel, results)
    }

    /// Run `f` on every simulated rank, classifying failures instead
    /// of panicking: a simulated deadlock comes back as
    /// [`SimError::Deadlock`] with the structured wait graph, a rank
    /// crashed by the fault plan as [`RankOutcome::Killed`], and any
    /// other rank panic as [`RankOutcome::Panicked`]. This is the
    /// chaos harness's entry point — it must distinguish a hang from a
    /// clean abort without tearing the process down.
    pub fn try_run<T, F>(&self, f: F) -> Result<SimRunOutput<RankOutcome<T>>, SimError>
    where
        T: Send + 'static,
        F: Fn(&mut SimComm) -> T + Send + Sync + 'static,
    {
        let (raw, kernel) = self.run_threads(f);
        if let Some(report) = kernel.state.lock().deadlock.clone() {
            return Err(SimError::Deadlock(report));
        }
        let results: Vec<RankOutcome<T>> = raw
            .into_iter()
            .map(|r| match r {
                Ok(v) => RankOutcome::Completed(v),
                Err(e) => {
                    if e.downcast_ref::<RankKilled>().is_some() {
                        RankOutcome::Killed
                    } else if let Some(s) = e.downcast_ref::<&str>() {
                        RankOutcome::Panicked((*s).to_string())
                    } else if let Some(s) = e.downcast_ref::<String>() {
                        RankOutcome::Panicked(s.clone())
                    } else {
                        RankOutcome::Panicked("non-string panic payload".to_string())
                    }
                }
            })
            .collect();
        Ok(Self::collect_output(&kernel, results))
    }
}

/// Per-rank communicator for [`SimWorld`].
pub struct SimComm {
    rank: usize,
    kernel: Arc<SimKernel>,
    profiler: Profiler,
}

impl Comm for SimComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.kernel.size
    }

    fn isend_ctx(&mut self, dst: usize, ctx: Ctx, tag: Tag, payload: Bytes) -> SendReq {
        assert!(dst < self.kernel.size, "bad destination rank {dst}");
        self.profiler.record_send(payload.len());
        let (id, _) = self.kernel.isend(self.rank, dst, ctx, tag, payload);
        SendReq { id }
    }

    fn irecv_ctx(&mut self, src: usize, ctx: Ctx, tag: Tag) -> RecvReq {
        assert!(src < self.kernel.size, "bad source rank {src}");
        RecvReq {
            id: self.kernel.irecv(self.rank, src, ctx, tag),
        }
    }

    fn wait_send_in(&mut self, req: SendReq, cat: Category) {
        let waited = self.kernel.wait_send(self.rank, req.id);
        self.profiler.add(cat, waited);
    }

    fn wait_recv_in(&mut self, req: RecvReq, cat: Category) -> Bytes {
        let (payload, waited) = self.kernel.wait_recv(self.rank, req.id);
        self.profiler.add(cat, waited);
        payload
    }

    fn test_recv(&mut self, req: &RecvReq) -> bool {
        self.kernel.test_recv(req.id)
    }

    fn test_send(&mut self, req: &SendReq) -> bool {
        self.kernel.test_send(req.id)
    }

    /// One heap event: no quantum, no spin.
    fn idle(&mut self) -> bool {
        let timeout = self.kernel.policy.hop_timeout;
        let (woke, waited) = self
            .kernel
            .idle(self.rank, timeout.map(|d| d.as_nanos() as u64));
        self.profiler.add(Category::Wait, waited);
        woke
    }

    fn barrier(&mut self) {
        let waited = self.kernel.barrier(self.rank);
        self.profiler.add(Category::Others, waited);
    }

    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.kernel.now())
    }

    fn charge_duration(&mut self, d: Duration, cat: Category) {
        self.kernel.advance(self.rank, d);
        self.profiler.add(cat, d);
    }

    fn kernel_cost(&self, kernel: Kernel, bytes: usize) -> Duration {
        self.kernel.cost.cost(kernel, bytes)
    }

    fn profiler(&mut self) -> &mut Profiler {
        &mut self.profiler
    }

    fn wait_recv_timeout_in(
        &mut self,
        req: RecvReq,
        timeout: Option<Duration>,
        cat: Category,
    ) -> Result<Bytes, (RecvReq, CommError)> {
        let deadline = timeout.map(|d| d.as_nanos() as u64);
        match self.kernel.wait_recv_deadline(self.rank, req.id, deadline) {
            Ok((payload, waited)) => {
                self.profiler.add(cat, waited);
                Ok(payload)
            }
            Err(WaitFail::Timeout { src, tag, waited }) => {
                self.profiler.add(cat, waited);
                Err((req, CommError::Timeout { src, tag, waited }))
            }
            Err(WaitFail::PeerDead { peer, waited }) => {
                self.profiler.add(cat, waited);
                Err((req, CommError::PeerDead { peer }))
            }
        }
    }

    fn peer_alive(&mut self, rank: usize) -> bool {
        !self.kernel.is_killed(rank)
    }

    fn fault_policy(&self) -> FaultPolicy {
        self.kernel.policy
    }

    fn cancel_recv(&mut self, req: RecvReq) {
        self.kernel.cancel_recv(req.id);
    }

    fn abort_cleanup(&mut self) {
        self.kernel.purge_rank(self.rank, |ctx| ctx.op != 0);
    }

    fn purge_stale(&mut self, keep: u32) -> u64 {
        self.kernel.purge_rank(self.rank, |ctx| ctx.epoch != keep)
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_net() -> SimConfig {
        let mut c = SimConfig::new(2);
        c.net = NetModel {
            latency: Duration::from_micros(1),
            bandwidth: 1e9, // 1 GB/s: 1 byte = 1 ns
        };
        c
    }

    #[test]
    fn virtual_transfer_timing() {
        // 1 MB at 1 GB/s = 1 ms + 1 µs latency.
        let world = SimWorld::new(tiny_net());
        let out = world.run(|c| {
            if c.rank() == 0 {
                c.send(1, 1, Bytes::from(vec![0u8; 1_000_000]));
                c.now().as_nanos()
            } else {
                let t0 = c.now();
                let _ = c.recv(0, 1);
                (c.now() - t0).as_nanos() as u64
            }
        });
        // Receiver waited 1_001_000 ns.
        assert_eq!(out.results[1], 1_001_000);
        // Sender completed at egress time (1 ms).
        assert_eq!(out.results[0], 1_000_000);
    }

    #[test]
    fn deterministic_makespan() {
        let run = || {
            let world = SimWorld::new(SimConfig::new(8));
            world
                .run(|c| {
                    let n = c.size();
                    let right = (c.rank() + 1) % n;
                    let left = (c.rank() + n - 1) % n;
                    let mut token = vec![c.rank() as u8; 1000];
                    for _ in 0..n {
                        let got =
                            c.sendrecv(right, left, 3, Bytes::from(token.clone()), Category::Wait);
                        token = got.to_vec();
                    }
                    token[0]
                })
                .makespan
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn charge_advances_clock() {
        let world = SimWorld::with_ranks(1);
        let out = world.run(|c| {
            c.charge_duration(Duration::from_millis(5), Category::Reduction);
            c.now().as_nanos()
        });
        assert_eq!(out.results[0], 5_000_000);
        assert_eq!(
            out.breakdowns[0].get(Category::Reduction),
            Duration::from_millis(5)
        );
        assert_eq!(out.makespan, Duration::from_millis(5));
    }

    #[test]
    fn egress_serialization() {
        // Root sends 1 MB to two receivers: the second transfer starts
        // only after the first left the root's egress port.
        let mut cfg = SimConfig::new(3);
        cfg.net = NetModel {
            latency: Duration::ZERO,
            bandwidth: 1e9,
        };
        let world = SimWorld::new(cfg);
        let out = world.run(|c| {
            if c.rank() == 0 {
                c.isend(1, 1, Bytes::from(vec![0u8; 1_000_000]));
                c.isend(2, 1, Bytes::from(vec![0u8; 1_000_000]));
                0
            } else {
                let _ = c.recv(0, 1);
                c.now().as_nanos()
            }
        });
        assert_eq!(out.results[1], 1_000_000);
        assert_eq!(out.results[2], 2_000_000);
    }

    #[test]
    fn a_busy_far_ingress_does_not_block_the_shared_nic() {
        // Three nodes of two ranks, α = 10 µs and 1 byte = 1 ns across
        // nodes. Node 2 keeps node 1's ingress busy until 1.010 ms. Rank 0
        // then sends 1 MB and 1 KB to node 1, and rank 1, on the same NIC,
        // 1 MB to the idle node 2: rank 1's message leaves once rank 0's
        // have left the NIC (1.002 ms), not once they have crossed node
        // 1's ingress, and node 1 still receives rank 0's two in order.
        use crate::topology::{ClusterNet, HierNet, Topology};
        const ALPHA: u64 = 10_000;
        let link = NetModel {
            latency: Duration::from_nanos(ALPHA),
            bandwidth: 1e9,
        };
        let net = HierNet {
            intra: link,
            inter: link,
        };
        let cfg = SimConfig::new(6).with_cluster(ClusterNet::new(Topology::uniform(3, 2), net));
        let out = SimWorld::new(cfg).run(|c| {
            // (bytes, when the send completed) per message, in order.
            let sent = |c: &mut SimComm, dsts: &[(usize, usize)]| -> Vec<(usize, u64)> {
                let reqs: Vec<_> = dsts
                    .iter()
                    .map(|&(d, n)| (n, c.isend(d, 1, Bytes::from(vec![0u8; n]))))
                    .collect();
                reqs.into_iter()
                    .map(|(n, r)| {
                        c.wait_send(r);
                        (n, c.now().as_nanos())
                    })
                    .collect()
            };
            // (bytes, arrival) per message, in order.
            let recvd = |c: &mut SimComm, src, k| -> Vec<(usize, u64)> {
                (0..k)
                    .map(|_| (c.recv(src, 1).len(), c.now().as_nanos()))
                    .collect()
            };
            match c.rank() {
                4 => sent(c, &[(2, 1_000_000)]),
                0 => {
                    c.charge_duration(Duration::from_micros(1), Category::Others);
                    sent(c, &[(3, 1_000_000), (3, 1_000)])
                }
                1 => {
                    c.charge_duration(Duration::from_micros(2), Category::Others);
                    sent(c, &[(5, 1_000_000)])
                }
                2 => recvd(c, 4, 1),
                3 => recvd(c, 0, 2),
                _ => recvd(c, 1, 1),
            }
        });
        let r = &out.results;
        assert_eq!(r[4], [(1_000_000, 1_000_000)]);
        assert_eq!(r[0], [(1_000_000, 1_001_000), (1_000, 1_002_000)]);
        assert_eq!(r[1], [(1_000_000, 2_002_000)]);
        assert_eq!(r[2], [(1_000_000, 1_010_000)]);
        assert_eq!(r[3], [(1_000_000, 2_020_000), (1_000, 2_031_000)]);
        assert_eq!(r[5], [(1_000_000, 2_012_000)]);
        // Neither port carries two messages at once: node 0's NIC sends
        // each message in the `n` ns before its send completes, node 1's
        // ingress takes each in the `α + n` ns before it arrives.
        let disjoint = |spans: Vec<(u64, u64)>| {
            let mut v = spans;
            v.sort();
            v.windows(2).all(|w| w[0].1 <= w[1].0)
        };
        let span = |lead: u64| move |&(n, end): &(usize, u64)| (end - lead - n as u64, end);
        assert!(disjoint(r[0].iter().chain(&r[1]).map(span(0)).collect()));
        assert!(disjoint(
            r[2].iter().chain(&r[3]).map(span(ALPHA)).collect()
        ));
        // No message arrives sooner than α after its last byte left.
        for (s, d) in [(4, 2), (0, 3), (1, 5)] {
            for (tx, rx) in r[s].iter().zip(&r[d]) {
                assert!(rx.1 >= tx.1 + ALPHA, "{s}->{d}: {tx:?} then {rx:?}");
            }
        }
    }

    #[test]
    fn overlap_of_transfer_and_compute() {
        // Receiver charges 2 ms of compute while a 1 ms transfer is in
        // flight: the wait after the compute must be ~zero.
        let world = SimWorld::new(tiny_net());
        let out = world.run(|c| {
            if c.rank() == 0 {
                c.isend(1, 1, Bytes::from(vec![0u8; 1_000_000]));
                0
            } else {
                let req = c.irecv(0, 1);
                c.charge_duration(Duration::from_millis(2), Category::ComDecom);
                let t0 = c.now();
                let _ = c.wait_recv(req);
                (c.now() - t0).as_nanos() as u64
            }
        });
        assert_eq!(out.results[1], 0, "transfer should have been hidden");
    }

    #[test]
    fn no_overlap_without_early_recv_post() {
        // Same as above, but the message is needed immediately: full wait.
        let world = SimWorld::new(tiny_net());
        let out = world.run(|c| {
            if c.rank() == 0 {
                c.charge_duration(Duration::from_millis(2), Category::ComDecom);
                c.isend(1, 1, Bytes::from(vec![0u8; 1_000_000]));
                0
            } else {
                let t0 = c.now();
                let _ = c.recv(0, 1);
                (c.now() - t0).as_nanos() as u64
            }
        });
        // 2 ms sender compute + 1 ms transfer + 1 µs latency.
        assert_eq!(out.results[1], 3_001_000);
    }

    #[test]
    fn test_recv_semantics() {
        let world = SimWorld::new(tiny_net());
        let out = world.run(|c| {
            if c.rank() == 0 {
                c.isend(1, 1, Bytes::from(vec![1u8; 1000]));
                true
            } else {
                let req = c.irecv(0, 1);
                let before = c.test_recv(&req); // transfer still in flight
                c.charge_duration(Duration::from_millis(1), Category::Others);
                let after = c.test_recv(&req); // arrived during the charge
                assert!(after);
                let _ = c.wait_recv(req);
                before
            }
        });
        assert!(!out.results[1], "message cannot have arrived instantly");
    }

    #[test]
    fn try_recv_progresses_with_virtual_time() {
        // The progress-engine semantics nonblocking collectives rely on:
        // a transfer progresses autonomously while the receiver charges
        // compute, and `try_recv` completes it without ever blocking.
        let world = SimWorld::new(tiny_net());
        let out = world.run(|c| {
            if c.rank() == 0 {
                c.isend(1, 1, Bytes::from(vec![0u8; 1_000_000]));
                0
            } else {
                let mut req = Some(c.irecv(0, 1));
                let mut polls = 0u64;
                loop {
                    match c.try_recv(req.take().expect("pending"), Category::Wait) {
                        Ok(payload) => {
                            assert_eq!(payload.len(), 1_000_000);
                            break;
                        }
                        Err(r) => {
                            req = Some(r);
                            polls += 1;
                            c.charge_duration(Duration::from_micros(200), Category::Others);
                        }
                    }
                }
                polls
            }
        });
        // A 1 ms transfer absorbed by ~200 µs compute slices: the poll
        // loop must have stayed pending several times, and the receiver
        // never accumulated wait time (the compute hid the transfer).
        assert!(out.results[1] >= 5, "polls: {}", out.results[1]);
        assert_eq!(out.breakdowns[1].get(Category::Wait), Duration::ZERO);
    }

    #[test]
    fn try_send_completes_at_egress() {
        let world = SimWorld::new(tiny_net());
        let out = world.run(|c| {
            if c.rank() == 0 {
                let req = c.isend(1, 1, Bytes::from(vec![0u8; 1_000_000]));
                // Egress takes 1 ms; an immediate try must hand the
                // request back.
                let mut req = match c.try_send(req, Category::Wait) {
                    Ok(()) => panic!("send cannot have drained instantly"),
                    Err(r) => r,
                };
                c.charge_duration(Duration::from_millis(2), Category::Others);
                loop {
                    match c.try_send(req, Category::Wait) {
                        Ok(()) => break,
                        Err(r) => {
                            req = r;
                            c.charge_duration(Duration::from_micros(100), Category::Others);
                        }
                    }
                }
                true
            } else {
                let _ = c.recv(0, 1);
                true
            }
        });
        assert!(out.results.iter().all(|&b| b));
    }

    #[test]
    fn barrier_aligns_clocks() {
        let world = SimWorld::with_ranks(3);
        let out = world.run(|c| {
            c.charge_duration(Duration::from_millis(c.rank() as u64), Category::Others);
            c.barrier();
            c.now().as_nanos()
        });
        // Everyone resumes at the slowest arrival: 2 ms.
        assert!(
            out.results.iter().all(|&t| t == 2_000_000),
            "{:?}",
            out.results
        );
    }

    #[test]
    fn barrier_repeats() {
        let world = SimWorld::with_ranks(4);
        let out = world.run(|c| {
            for i in 0..10 {
                c.charge_duration(
                    Duration::from_micros(((c.rank() + i) % 4) as u64),
                    Category::Others,
                );
                c.barrier();
            }
            c.now().as_nanos() > 0
        });
        assert!(out.results.iter().all(|&b| b));
    }

    #[test]
    fn fifo_matching_per_source_tag() {
        let world = SimWorld::new(tiny_net());
        let out = world.run(|c| {
            if c.rank() == 0 {
                for i in 0..5u8 {
                    c.isend(1, 7, Bytes::from(vec![i]));
                }
                Vec::new()
            } else {
                (0..5).map(|_| c.recv(0, 7)[0]).collect()
            }
        });
        assert_eq!(out.results[1], vec![0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "simulated deadlock")]
    fn deadlock_is_detected() {
        let world = SimWorld::with_ranks(2);
        world.run(|c| {
            // Both ranks wait for a message nobody sends.
            let peer = 1 - c.rank();
            let _ = c.recv(peer, 1);
        });
    }

    #[test]
    fn makespan_is_slowest_rank() {
        let world = SimWorld::with_ranks(3);
        let out = world.run(|c| {
            c.charge_duration(Duration::from_millis(1 + c.rank() as u64), Category::Others);
        });
        assert_eq!(out.makespan, Duration::from_millis(3));
        assert_eq!(out.finish_times[0], Duration::from_millis(1));
    }

    #[test]
    fn wait_profiled_under_category() {
        let world = SimWorld::new(tiny_net());
        let out = world.run(|c| {
            if c.rank() == 0 {
                c.charge_duration(Duration::from_millis(1), Category::Others);
                c.isend(1, 1, Bytes::from(vec![0u8; 100]));
            } else {
                let req = c.irecv(0, 1);
                let _ = c.wait_recv_in(req, Category::Allgather);
            }
        });
        let ag = out.breakdowns[1].get(Category::Allgather);
        assert!(ag >= Duration::from_millis(1), "waited {ag:?}");
    }

    #[test]
    fn many_ranks_ring_allgather_pattern() {
        let n = 16;
        let world = SimWorld::new(SimConfig::new(n));
        let out = world.run(move |c| {
            let n = c.size();
            let me = c.rank();
            let right = (me + 1) % n;
            let left = (me + n - 1) % n;
            let mut pieces: Vec<Option<u8>> = vec![None; n];
            pieces[me] = Some(me as u8);
            let mut outgoing = me;
            for round in 0..n - 1 {
                let tag = 100 + round as Tag;
                let got = c.sendrecv(
                    right,
                    left,
                    tag,
                    Bytes::from(vec![pieces[outgoing].expect("have piece")]),
                    Category::Allgather,
                );
                let incoming = (me + n - 1 - round) % n;
                pieces[incoming] = Some(got[0]);
                outgoing = incoming;
            }
            pieces
                .iter()
                .map(|p| p.expect("all gathered"))
                .collect::<Vec<u8>>()
        });
        for r in 0..n {
            let expect: Vec<u8> = (0..n as u8).collect();
            assert_eq!(out.results[r], expect, "rank {r}");
        }
    }

    // -- chaos / fault-injection paths ------------------------------------

    #[test]
    fn try_run_reports_structured_deadlock() {
        // Mutual blocking receives with no sends: both ranks block.
        let world = SimWorld::with_ranks(2);
        let err = world
            .try_run(|c| {
                let peer = 1 - c.rank();
                let _ = c.recv(peer, 5);
            })
            .unwrap_err();
        let SimError::Deadlock(report) = err;
        assert_eq!(report.live, 2);
        assert_eq!(
            report.waiting,
            vec![
                WaitEdge {
                    rank: 0,
                    src: 1,
                    ctx: Ctx::default(),
                    tag: 5
                },
                WaitEdge {
                    rank: 1,
                    src: 0,
                    ctx: Ctx::default(),
                    tag: 5
                },
            ]
        );
        assert!(report.barrier_waiters.is_empty());
        assert!(report.to_string().contains("simulated deadlock"));
        assert!(report
            .to_string()
            .contains("rank 0: blocked on recv from rank 1 tag 5"));
    }

    #[test]
    fn undelivered_messages_are_reported() {
        let world = SimWorld::with_ranks(2);
        let out = world.run(|c| {
            if c.rank() == 0 {
                // Two sends nobody receives, one that is received.
                c.send(1, 7, Bytes::from_static(b"lost"));
                c.send(1, 7, Bytes::from_static(b"lost"));
                c.send(1, 8, Bytes::from_static(b"kept"));
            } else {
                let _ = c.recv(0, 8);
            }
        });
        assert_eq!(
            out.undelivered,
            vec![UndeliveredMsg {
                src: 0,
                dst: 1,
                ctx: Ctx::default(),
                tag: 7,
                count: 2
            }]
        );
        assert_eq!(out.undelivered_total(), 2);
        assert_eq!(out.lost_messages, 0);
    }

    #[test]
    fn clean_run_reports_no_undelivered() {
        let world = SimWorld::with_ranks(2);
        let out = world.run(|c| {
            if c.rank() == 0 {
                c.send(1, 1, Bytes::from_static(b"x"));
            } else {
                let _ = c.recv(0, 1);
            }
        });
        assert!(out.undelivered.is_empty());
    }

    #[test]
    fn permanent_loss_times_out_not_hangs() {
        let mut cfg = tiny_net();
        cfg = cfg.with_faults(FaultPlan::seeded(11).with_loss(1.0));
        let world = SimWorld::new(cfg);
        let out = world.run(|c| {
            if c.rank() == 0 {
                c.send(1, 3, Bytes::from_static(b"doomed"));
                0u64
            } else {
                let req = c.irecv(0, 3);
                match c.wait_recv_timeout_in(req, Some(Duration::from_millis(5)), Category::Wait) {
                    Ok(_) => panic!("lost message must not arrive"),
                    Err((req, CommError::Timeout { src, tag, .. })) => {
                        assert_eq!((src, tag), (0, 3));
                        // The request survives a timeout; cancel it so the
                        // leak audit stays clean.
                        c.cancel_recv(req);
                        1u64
                    }
                    Err((_, e)) => panic!("unexpected error {e}"),
                }
            }
        });
        assert_eq!(out.results[1], 1);
        assert_eq!(out.lost_messages, 1);
        assert!(out.undelivered.is_empty());
        // The timed-out rank fast-forwarded through its deadline.
        assert!(out.finish_times[1] >= Duration::from_millis(5));
    }

    #[test]
    fn transient_drop_is_redelivered_late() {
        let rto = Duration::from_micros(500);
        let fault_free = SimWorld::new(tiny_net()).run(exchange_one);
        let mut cfg = tiny_net();
        cfg = cfg.with_faults(FaultPlan::seeded(4).with_drops(1.0, rto, 3));
        let faulty = SimWorld::new(cfg).run(exchange_one);
        assert_eq!(faulty.results, fault_free.results, "payload unchanged");
        assert_eq!(faulty.lost_messages, 0);
        // Redelivery consumed at least one RTO.
        assert!(faulty.makespan >= fault_free.makespan + rto);
    }

    fn exchange_one(c: &mut SimComm) -> Vec<u8> {
        if c.rank() == 0 {
            c.send(1, 2, Bytes::from_static(b"payload"));
            Vec::new()
        } else {
            c.recv(0, 2).to_vec()
        }
    }

    #[test]
    fn timed_out_wait_can_be_rearmed() {
        // A transient drop delays redelivery past the first deadline;
        // re-arming the wait (the retry path) must succeed and yield
        // the original payload.
        let rto = Duration::from_millis(2);
        let mut cfg = tiny_net();
        cfg = cfg
            .with_faults(FaultPlan::seeded(4).with_drops(1.0, rto, 3))
            .with_fault_policy(FaultPolicy::with_timeout(Duration::from_millis(1), 8));
        let world = SimWorld::new(cfg);
        let out = world.run(|c| {
            if c.rank() == 0 {
                c.send(1, 2, Bytes::from_static(b"late"));
                (Vec::new(), 0u64)
            } else {
                let req = c.irecv(0, 2);
                let payload = c
                    .wait_recv_retry_in(req, Category::Wait)
                    .expect("retry must absorb a transient drop");
                let counters = c.profiler().fault_counters();
                (payload.to_vec(), counters.retries)
            }
        });
        assert_eq!(out.results[1].0, b"late".to_vec());
        assert!(out.results[1].1 >= 1, "at least one retry recorded");
    }

    #[test]
    fn killed_rank_classified_and_peers_observe_peer_dead() {
        // Rank 1 dies on its very first communicator operation; rank 0
        // blocks receiving from it and must get PeerDead, not a hang.
        let cfg = SimConfig::new(2).with_faults(FaultPlan::seeded(1).with_kill(1, 0));
        let world = SimWorld::new(cfg);
        let out = world
            .try_run(|c| {
                if c.rank() == 0 {
                    let req = c.irecv(1, 9);
                    match c.wait_recv_timeout_in(req, None, Category::Wait) {
                        Err((_, CommError::PeerDead { peer })) => peer,
                        other => panic!("expected PeerDead, got {other:?}"),
                    }
                } else {
                    // First op triggers the kill.
                    c.send(0, 9, Bytes::from_static(b"never"));
                    usize::MAX
                }
            })
            .expect("no deadlock: the kill wakes the receiver");
        assert!(out.results[1].is_killed());
        assert_eq!(out.results[0].as_completed(), Some(&1usize));
    }

    #[test]
    fn same_seed_same_world_same_outcome() {
        let run = |seed: u64| {
            let mut cfg = tiny_net();
            cfg.ranks = 4;
            cfg = cfg.with_faults(
                FaultPlan::seeded(seed)
                    .with_drops(0.3, Duration::from_micros(300), 3)
                    .with_delays(0.3, Duration::from_micros(200))
                    .with_duplicates(0.2)
                    .with_stalls(0.3, Duration::from_micros(150)),
            );
            let world = SimWorld::new(cfg);
            let out = world.run(|c| {
                // Small ring: pass a token around twice with compute.
                let n = c.size();
                let me = c.rank();
                let mut token = vec![me as u8; 64];
                for round in 0..2u32 {
                    c.charge_duration(Duration::from_micros(20), Category::Reduction);
                    let got = c.sendrecv(
                        (me + 1) % n,
                        (me + n - 1) % n,
                        10 + round,
                        Bytes::from(token.clone()),
                        Category::Wait,
                    );
                    token = got.to_vec();
                }
                token
            });
            (out.results.clone(), out.makespan, out.lost_messages)
        };
        assert_eq!(run(99), run(99), "same seed, identical outcome");
        assert_ne!(
            run(99).1,
            run(100).1,
            "different seeds should perturb timing for this mix"
        );
    }

    // -- idle ----------------------------------------------------------------

    #[test]
    fn idle_returns_at_the_earliest_future_arrival_or_egress() {
        // tiny_net: 1 byte = 1 ns, α = 1 µs. Rank 1's own 1500-byte send
        // leaves at 1.5 µs. Rank 0's first message starts at 1 µs and
        // arrives at 3 µs; its second, sent only once the first has left,
        // waits for rank 1's ingress port (free at 3 µs) and arrives at
        // 4.5 µs. Unmatched when rank 1 first idles, each arrival is
        // scheduled by its `isend`.
        let out = SimWorld::new(tiny_net()).run(|c| {
            if c.rank() == 0 {
                c.charge_duration(Duration::from_micros(1), Category::Others);
                c.send(1, 1, Bytes::from(vec![0u8; 1000]));
                c.send(1, 2, Bytes::from(vec![0u8; 500]));
                return Vec::new();
            }
            let (a, b) = (c.irecv(0, 1), c.irecv(0, 2));
            let s = c.isend(0, 3, Bytes::from(vec![0u8; 1500]));
            let mut wakes = Vec::new();
            for _ in 0..3 {
                assert!(c.idle(), "no deadline to miss");
                wakes.push(c.now().as_nanos());
            }
            c.wait_send(s);
            let _ = (c.wait_recv(a), c.wait_recv(b));
            wakes.push(c.profiler().breakdown().get(Category::Wait).as_nanos() as u64);
            wakes
        });
        // Egress, then the arrivals in order; everything idle was `Wait`.
        assert_eq!(out.results[1], vec![1_500, 3_000, 4_500, 4_500]);
    }

    #[test]
    fn idle_wakes_on_a_later_matching_isend() {
        let out = SimWorld::new(tiny_net()).run(|c| {
            if c.rank() == 0 {
                c.charge_duration(Duration::from_millis(1), Category::Others);
                c.send(1, 4, Bytes::from(vec![0u8; 100]));
                c.recv(1, 5);
                return 0;
            }
            // Posted before the sender has sent anything: no arrival time
            // yet, so only the `isend` can schedule the wake.
            let req = c.irecv(0, 4);
            assert!(c.idle());
            let woke = c.now().as_nanos();
            let _ = c.wait_recv(req);
            c.send(0, 5, Bytes::new());
            woke
        });
        assert_eq!(out.results[1], 1_000_000 + 1_000 + 100);
    }

    #[test]
    fn idle_times_out_under_the_fault_policy() {
        let cfg =
            tiny_net().with_fault_policy(FaultPolicy::with_timeout(Duration::from_millis(5), 1));
        let out = SimWorld::new(cfg).run(|c| {
            if c.rank() == 0 {
                return (true, 0);
            }
            let req = c.irecv(0, 6);
            let woke = c.idle();
            c.cancel_recv(req);
            (woke, c.now().as_nanos())
        });
        assert_eq!(out.results[1], (false, 5_000_000));
        assert_eq!(
            out.breakdowns[1].get(Category::Wait),
            Duration::from_millis(5)
        );
    }

    #[test]
    fn idle_with_nothing_in_flight_is_a_reported_deadlock() {
        let err = SimWorld::with_ranks(2)
            .try_run(|c| {
                if c.rank() == 1 {
                    c.idle();
                }
            })
            .unwrap_err();
        let SimError::Deadlock(report) = err;
        assert_eq!((report.live, report.idle.clone()), (1, vec![1]));
        assert!(report.waiting.is_empty());
        assert!(report.to_string().contains("rank 1: idle"));
    }

    #[test]
    fn stale_deadline_event_does_not_corrupt_timing() {
        // The receiver parks with a 1ms deadline event scheduled, then
        // the message arrives first (the sender sends after a 10µs
        // charge). The leftover deadline event must NOT wake the rank
        // early out of the subsequent 10ms compute charge — epoch
        // invalidation marks it stale.
        let world = SimWorld::new(tiny_net());
        let out = world.run(|c| {
            if c.rank() == 0 {
                c.charge_duration(Duration::from_micros(10), Category::Others);
                c.send(1, 1, Bytes::from(vec![0u8; 1000]));
                0
            } else {
                let req = c.irecv(0, 1);
                let _ = c
                    .wait_recv_timeout_in(req, Some(Duration::from_millis(1)), Category::Wait)
                    .expect("message arrives before deadline");
                let t0 = c.now();
                c.charge_duration(Duration::from_millis(10), Category::Reduction);
                (c.now() - t0).as_nanos() as u64
            }
        });
        assert_eq!(out.results[1], 10_000_000, "charge ran to completion");
    }
}
