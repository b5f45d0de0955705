//! The reduce-scatter kind: the (pipelined) ring, its only schedule.

use ccoll_comm::Comm;

use crate::algorithm::Algorithm;
use crate::nonblocking::{Poll, RingRs};
use crate::partition::chunk_lengths;
use crate::placement::Role;
use crate::plan::{Completes, Handle, Kind, Plan, PlanCore, Row};
use crate::reduce::ReduceOp;
use crate::session::{CCollSession, CollectiveError, Recovery};
use crate::workspace::CollWorkspace;

/// Persistent reduce-scatter plan (see
/// [`CCollSession::plan_reduce_scatter`]): `input` is
/// [`len`](ReduceScatterPlan::len) values, `out` this rank's chunk
/// ([`output_len`](ReduceScatterPlan::output_len)).
pub type ReduceScatterPlan = Plan<ReduceScatter>;
/// An in-flight nonblocking reduce-scatter (see [`Plan::start`]).
pub type ReduceScatterHandle<'p, 'b> = Handle<'p, 'b, ReduceScatter>;

/// The reduce-scatter kind (see [`ReduceScatterPlan`]).
pub struct ReduceScatter {
    pub(crate) len: usize,
    pub(crate) op: ReduceOp,
    pub(crate) counts: Vec<usize>,
}

impl ReduceScatter {
    pub(crate) fn new(session: &CCollSession, len: usize, op: ReduceOp) -> Self {
        ReduceScatter {
            len,
            op,
            counts: chunk_lengths(len, session.world_size),
        }
    }
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

    const NAME: &'static str = "reduce-scatter";

    const SCHEDULES: &'static [Row] = &[(Algorithm::Ring, None)];

    fn priced_values(&self) -> usize {
        self.len
    }

    fn workspace(&mut self, session: &CCollSession, _algorithm: Algorithm) -> CollWorkspace {
        session.ring_workspace(self.len, session.placement())
    }

    fn shrunk(&self, r: &Recovery) -> Result<Self, CollectiveError> {
        Ok(Self::new(r.session(), self.len, self.op))
    }

    fn check_buffers(&self, _rank: usize, input: &[f32], _out: &[f32]) {
        assert_eq!(input.len(), self.len, "input disagrees with plan length");
    }

    fn out_len(&self, rank: usize) -> usize {
        self.counts[rank]
    }

    fn machine(&mut self, core: &mut PlanCore, _rank: usize) -> RingRs {
        let place = core.session.placement();
        RingRs::new(place, core.session.cut(place, Role::Hop))
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
}
