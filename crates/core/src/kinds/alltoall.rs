//! The all-to-all kind: pairwise exchange and the Bruck schedule.

use ccoll_comm::{Comm, Schedule};

use crate::algorithm::Algorithm;
use crate::nonblocking::{self as nb, BruckA2a, Poll};
use crate::plan::{priced, Completes, Handle, Kind, Plan, PlanCore, Row};
use crate::session::{CCollSession, CollectiveError, Recovery};
use crate::workspace::CollWorkspace;

/// Persistent all-to-all plan (see [`CCollSession::plan_alltoall`]):
/// `input` and `out` are both [`len`](AlltoallPlan::len) values.
pub type AlltoallPlan = Plan<Alltoall>;
/// An in-flight nonblocking all-to-all (see [`Plan::start`]).
pub type AlltoallHandle<'p, 'b> = Handle<'p, 'b, Alltoall>;

/// The all-to-all kind (see [`AlltoallPlan`]).
pub struct Alltoall {
    pub(crate) len: usize,
    /// Values each rank sends to each other rank.
    block: usize,
}

impl Alltoall {
    /// # Panics
    /// Panics if `len` is not divisible by the session's world size.
    pub(crate) fn new(session: &CCollSession, len: usize) -> Self {
        let world = session.world_size;
        assert!(
            len.is_multiple_of(world),
            "all-to-all buffer ({len}) must divide evenly across {world} ranks"
        );
        Alltoall {
            len,
            block: len / world,
        }
    }
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

/// The state machine behind an all-to-all plan.
#[derive(Debug)]
pub(crate) enum A2aMachine {
    Pairwise(nb::Alltoall),
    Bruck(BruckA2a),
}

impl Completes for Alltoall {
    type Output = ();
}

impl Kind for Alltoall {
    type Machine = A2aMachine;

    const NAME: &'static str = "all-to-all";

    /// Bruck trades `⌈log₂n⌉·(wire/2)` for the pairwise `(n−1)` latency
    /// terms, so it wins small blocks.
    const SCHEDULES: &'static [Row] = &[
        priced(Algorithm::Pairwise, Schedule::PairwiseAlltoall),
        priced(Algorithm::Bruck, Schedule::BruckAlltoall),
    ];

    fn priced_values(&self) -> usize {
        self.block
    }

    fn workspace(&mut self, session: &CCollSession, algorithm: Algorithm) -> CollWorkspace {
        match algorithm {
            // Bruck rounds forward up to ceil(world/2) blocks per hop.
            Algorithm::Bruck => {
                let values = self.block * session.world_size.div_ceil(2);
                session.warmed_workspace(values.max(1), 6)
            }
            _ => session.warmed_workspace(self.block, 4),
        }
    }

    /// # Panics
    /// Panics if the planned length does not divide evenly by the
    /// shrunk world size.
    fn shrunk(&self, r: &Recovery) -> Result<Self, CollectiveError> {
        Ok(Self::new(r.session(), self.len))
    }

    fn check_buffers(&self, _rank: usize, input: &[f32], _out: &[f32]) {
        assert_eq!(input.len(), self.len, "input disagrees with plan length");
    }

    fn out_len(&self, _rank: usize) -> usize {
        self.len
    }

    fn machine(&mut self, core: &mut PlanCore, _rank: usize) -> A2aMachine {
        let place = core.session.movement_placement();
        match core.algorithm {
            Algorithm::Bruck => A2aMachine::Bruck(BruckA2a::new(place)),
            _ => A2aMachine::Pairwise(nb::Alltoall::new(place)),
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
        let (cpr, ws) = (core.session.cpr.as_ref(), &mut core.ws);
        match machine {
            A2aMachine::Pairwise(m) => m.step(comm, cpr, input, out, ws, block),
            A2aMachine::Bruck(m) => m.step(comm, cpr, input, out, ws, block),
        }
    }

    fn output(_: &A2aMachine) {}
}
