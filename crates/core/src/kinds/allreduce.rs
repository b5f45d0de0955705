//! The allreduce kind: the ring composition of the paper's C-Allreduce
//! (all four Table-V placements), the two butterflies and the laned
//! two-level schedule.

use ccoll_comm::{Comm, Schedule};

use crate::algorithm::{Algorithm, AllreduceVariant};
use crate::nonblocking::{Butterfly, HierAr, Poll, RingAg, RingRs};
use crate::placement::Placement;
use crate::plan::{priced, Completes, Handle, Kind, Plan, PlanCore, Row, Tuning};
use crate::reduce::ReduceOp;
use crate::session::{CCollSession, CollectiveError, Recovery};
use crate::workspace::CollWorkspace;

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

/// The allreduce kind (see [`AllreducePlan`]).
pub struct Allreduce {
    pub(crate) len: usize,
    pub(crate) op: ReduceOp,
    pub(crate) variant: AllreduceVariant,
    /// Lanes of the hierarchical schedule at this length (see
    /// [`CCollSession::hier_lanes`]); read when the split is built.
    pub(crate) lanes: usize,
    /// Whether that schedule streams its group legs as sub-chunk chains
    /// (derived with `lanes`).
    pub(crate) streamed: bool,
    /// Values per PIPE-SZx sub-chunk of recursive doubling's rounds and
    /// fold (see [`CCollSession::exchange_values`]).
    exchange: usize,
}

impl Allreduce {
    pub(crate) fn new(
        session: &CCollSession,
        len: usize,
        op: ReduceOp,
        variant: AllreduceVariant,
    ) -> Self {
        let (lanes, streamed) = session.hier_lanes(len);
        Allreduce {
            len,
            op,
            variant,
            lanes,
            streamed,
            exchange: session.exchange_values(len),
        }
    }

    /// The ring's (reduce-scatter, allgather) placements: raw without a
    /// codec, else the variant's (Table V). The overlapped variant's
    /// reduce-scatter is piped for an error-bounded codec; a codec
    /// without a bound (ZFP-FXR) cannot drive the SZx pipeline and runs
    /// its hops as monolithic CPR — on the ring that is ND, CPR-P2P
    /// reduce-scatter + compress-once allgather.
    fn ring_places(&self, session: &CCollSession) -> (Placement, Placement) {
        if session.cpr.is_none() {
            return (Placement::Raw, Placement::Raw);
        }
        match self.variant {
            AllreduceVariant::Original => (Placement::Raw, Placement::Raw),
            AllreduceVariant::DirectIntegration => (Placement::Cpr, Placement::Cpr),
            AllreduceVariant::NovelDesign => (Placement::Cpr, Placement::Once),
            AllreduceVariant::Overlapped => (session.placement(), Placement::Once),
        }
    }
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

    /// Whether the hierarchical schedule streams its two node-local
    /// group legs — the reduce to each group's owner and the fan-out
    /// from it — as chains of sub-chunks instead of whole-vector
    /// binomial trees; `None` unless the plan is
    /// [`Algorithm::Hierarchical`]. Derived from the cost model with
    /// [`hier_lanes`](Self::hier_lanes), never set.
    pub fn hier_streamed(&self) -> Option<bool> {
        (self.core.algorithm == Algorithm::Hierarchical).then_some(self.kind.streamed)
    }

    /// Values per PIPE-SZx sub-chunk of recursive doubling's rounds and
    /// fold: the session pipe, or two halves cut on SZx block boundaries
    /// when the vector is shorter than two pipes and the cost model
    /// prices the halves cheaper ([`ccoll_comm::CostModel::exchange_values`]);
    /// `None` unless the plan is [`Algorithm::RecursiveDoubling`] with a
    /// pipelined codec. Derived at creation, never set.
    pub fn exchange_values(&self) -> Option<usize> {
        let piped = self.core.session.pipeline_config().is_some();
        (self.core.algorithm == Algorithm::RecursiveDoubling && piped).then_some(self.kind.exchange)
    }
}

/// The state machine behind an allreduce plan.
#[derive(Debug)]
pub(crate) enum ArMachine {
    /// Ring reduce-scatter followed by ring allgather over the same
    /// partition (all four Table-V variants: the stages' modes carry the
    /// compression placement).
    Ring { rs: RingRs, ag: RingAg, in_ag: bool },
    /// Recursive doubling or Rabenseifner.
    Butterfly(Butterfly),
    /// Two-level topology-aware composition (group tree × lane
    /// reduce-scatter inside the node, per-lane Rabenseifner between
    /// nodes, and back out).
    Hier(HierAr),
}

impl Completes for Allreduce {
    type Output = ();
}

impl Kind for Allreduce {
    type Machine = ArMachine;

    const NAME: &'static str = "allreduce";

    const SCHEDULES: &'static [Row] = &[
        priced(Algorithm::Ring, Schedule::RingAllreduce),
        priced(
            Algorithm::RecursiveDoubling,
            Schedule::RecursiveDoublingAllreduce,
        ),
        priced(Algorithm::Rabenseifner, Schedule::RabenseifnerAllreduce),
        priced(Algorithm::Hierarchical, Schedule::HierarchicalAllreduce),
    ];

    const TUNING: Tuning = Tuning::Calibrate;

    fn priced_values(&self) -> usize {
        self.len
    }

    fn workspace(&mut self, session: &CCollSession, algorithm: Algorithm) -> CollWorkspace {
        let len = self.len;
        let piped = session.pipeline_config().is_some();
        match algorithm {
            Algorithm::Ring => session.ring_workspace(len, self.ring_places(session).0),
            Algorithm::Rabenseifner if piped => session.pipelined_stream_workspace(len.max(1), len),
            // The hierarchical inter leg is a Rabenseifner per lane: its
            // pipelined halving rounds stream d/L values. On top of
            // those sub-chunk slots each of the two raw rings over the
            // node's L owners wants L−1: their sends are eager, so an
            // owner runs up to L−2 steps ahead of a slow right
            // neighbour, which holds every one of those payloads until
            // it reads it. The one-lane shape (a whole-vector stream) is
            // the floor, so a plan never warms less than it used to —
            // and that floor is what streamed group legs need: the
            // source end of a chain has its whole stream, one slot per
            // sub-chunk, in flight (so does a raw plan's, whose pool is
            // then warmed the same way). The scratch keeps the full
            // length: a group owner decodes whole-vector raw tree hops
            // into it.
            Algorithm::Hierarchical if piped || self.streamed => {
                let rings = 2 * (self.lanes - 1);
                let laned = len.div_ceil(self.lanes) + rings * session.pipe_values();
                session.pipelined_stream_workspace(len.max(1), len.max(laned))
            }
            Algorithm::Hierarchical => {
                session.warmed_workspace(len.max(1), 4 + 2 * (self.lanes - 1))
            }
            // Butterfly schedules exchange up to the full payload per
            // round (recursive doubling) or half of it (Rabenseifner).
            // Their streamed legs — the fold, the raw halving, recursive
            // doubling's rounds — use these slots, which grow once for
            // the sub-chunks beyond four.
            _ => session.warmed_workspace(len.max(1), 4),
        }
    }

    fn shrunk(&self, r: &Recovery) -> Result<Self, CollectiveError> {
        Ok(Self::new(r.session(), self.len, self.op, self.variant))
    }

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

    fn machine(&mut self, core: &mut PlanCore, _rank: usize) -> ArMachine {
        let (place, pipe) = (core.session.placement(), core.session.pipe_values());
        match core.algorithm {
            Algorithm::RecursiveDoubling => {
                let place = match place {
                    Placement::Piped(cfg) => Placement::Piped(cfg.with_chunk_values(self.exchange)),
                    place => place,
                };
                ArMachine::Butterfly(Butterfly::recursive_doubling(place, pipe))
            }
            Algorithm::Rabenseifner => ArMachine::Butterfly(Butterfly::rabenseifner(place, pipe)),
            // The hierarchical placement is that of the inter-node leg
            // every lane owner runs on its slice; node-local legs are
            // always raw (intra-node links don't pay for a codec).
            Algorithm::Hierarchical => ArMachine::Hier(HierAr::new(place, pipe, self.streamed)),
            _ => {
                let (rs, ag) = self.ring_places(&core.session);
                ArMachine::Ring {
                    rs: RingRs::new(rs, pipe),
                    ag: RingAg::new(ag, pipe, true),
                    in_ag: false,
                }
            }
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
        let (cpr, op) = (session.cpr.as_ref(), self.op);
        match machine {
            ArMachine::Butterfly(b) => b.step(comm, cpr, op, input, out, ws, block),
            ArMachine::Hier(h) => {
                let groups = groups
                    .as_ref()
                    .expect("hierarchical plans build their groups at start");
                h.step(comm, cpr, op, groups, input, out, ws, block)
            }
            ArMachine::Ring { rs, ag, in_ag } => {
                if !*in_ag {
                    // The reduce-scatter stage caches the partition the
                    // allgather stage reads back out of the workspace,
                    // and accumulates in `out`: its reduced chunk is
                    // already where the allgather stage wants its own
                    // block (`mine = None`).
                    match rs.step(comm, cpr, op, input, out, ws, block) {
                        Poll::Pending => return Poll::Pending,
                        Poll::Ready => *in_ag = true,
                    }
                }
                ag.step(comm, cpr, None, out, ws, block)
            }
        }
    }

    fn output(_: &ArMachine) {}
}
