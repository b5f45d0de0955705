//! The rooted-reduce kind: the (pipelined) binomial tree and the
//! reduce-scatter + gather composition.

use ccoll_comm::{Comm, Schedule};

use crate::algorithm::Algorithm;
use crate::nonblocking::{self as nb, Poll, RingRs, TreeReduce};
use crate::partition::chunk_lengths;
use crate::placement::{Placement, Role};
use crate::plan::{priced, Completes, Handle, Kind, Plan, PlanCore, Row, Tuning};
use crate::reduce::ReduceOp;
use crate::session::{CCollSession, CollectiveError, Recovery};
use crate::workspace::CollWorkspace;

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

/// The rooted-reduce kind (see [`ReducePlan`]).
pub struct Reduce {
    pub(crate) root: usize,
    pub(crate) len: usize,
    pub(crate) op: ReduceOp,
    /// The reduce-scatter stage of the RS + gather composition; `None`
    /// on the binomial tree.
    rs: Option<RsStage>,
}

/// What the reduce-scatter + gather composition needs beyond `core.ws`
/// (which serves its gather stage).
struct RsStage {
    /// The reduce-scatter stage's workspace.
    ws: CollWorkspace,
    /// The balanced partition the two stages share.
    counts: Vec<usize>,
    /// Intermediate reduced-chunk buffer, reused across calls.
    mine: Vec<f32>,
}

impl Reduce {
    /// # Panics
    /// Panics if `root` is out of range.
    pub(crate) fn new(session: &CCollSession, root: usize, len: usize, op: ReduceOp) -> Self {
        assert!(root < session.world_size, "root {root} out of range");
        Reduce {
            root,
            len,
            op,
            rs: None,
        }
    }
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

/// The state machine behind a rooted-reduce plan. The two stages of the
/// composition run on two workspaces: the kind's and the plan's.
#[derive(Debug)]
pub(crate) enum ReduceMachine {
    Tree(TreeReduce),
    RsGather {
        rs: RingRs,
        gather: nb::Gather,
        in_gather: bool,
    },
}

impl Completes for Reduce {
    type Output = bool;
}

impl Kind for Reduce {
    type Machine = ReduceMachine;

    const NAME: &'static str = "reduce";

    /// The tree first: on a one-rank world both rows price at zero, and
    /// the tie must not reserve a second stage.
    const SCHEDULES: &'static [Row] = &[
        priced(Algorithm::Binomial, Schedule::BinomialTreeReduce),
        priced(Algorithm::Rabenseifner, Schedule::ReduceScatterGatherReduce),
    ];

    const TUNING: Tuning = Tuning::Rerank;

    fn priced_values(&self) -> usize {
        self.len
    }

    fn workspace(&mut self, session: &CCollSession, algorithm: Algorithm) -> CollWorkspace {
        let len = self.len;
        match algorithm {
            // The pipelined tree streams the full buffer per hop in
            // sub-chunks; warm one pool slot per in-flight payload. A raw
            // tree streams too, into whole-payload slots: the sub-chunks
            // beyond four grow their slots once, in the first execution
            // (see `CCollSession::ring_workspace`).
            Algorithm::Binomial => {
                self.rs = None;
                match session.placement() {
                    Placement::Piped(_) => session
                        .pipelined_stream_workspace(session.pipe_values().min(len.max(1)), len),
                    _ => session.warmed_workspace(len.max(1), 4),
                }
            }
            // Reduce-scatter into `mine`, then gather the reduced chunks
            // at the root: the gather stage owns the main workspace.
            _ => {
                self.rs = Some(RsStage {
                    ws: session.ring_workspace(len, session.placement()),
                    counts: chunk_lengths(len, session.world_size),
                    mine: Vec::new(),
                });
                session.warmed_workspace(len, 4)
            }
        }
    }

    fn shrunk(&self, r: &Recovery) -> Result<Self, CollectiveError> {
        let root = r.surviving_root(self.root)?;
        Ok(Self::new(r.session(), root, self.len, self.op))
    }

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

    fn machine(&mut self, core: &mut PlanCore, rank: usize) -> ReduceMachine {
        let session = &core.session;
        let place = session.placement();
        let cut = session.cut(place, Role::Hop);
        match &mut self.rs {
            Some(stage) => {
                // `resize` shrinks as well as grows, keeping the buffer
                // exact without reallocating once its capacity is warm.
                stage.mine.resize(stage.counts[rank], 0.0);
                ReduceMachine::RsGather {
                    rs: RingRs::new(place, cut),
                    gather: nb::Gather::new(session.movement_placement(), self.root, self.len),
                    in_gather: false,
                }
            }
            // Error-bounded codecs stream every tree hop through the
            // sub-chunk pipeline with fused reduction, raw ones in raw
            // sub-chunks.
            None => ReduceMachine::Tree(TreeReduce::new(place, cut, self.root)),
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

    fn scrub(&mut self) {
        if let Some(stage) = &mut self.rs {
            stage.ws.abort();
        }
    }
}
