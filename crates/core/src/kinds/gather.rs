//! The gather kind: the binomial tree, its only schedule.

use ccoll_comm::Comm;

use crate::algorithm::Algorithm;
use crate::nonblocking::{self as nb, Poll};
use crate::partition::chunk_lengths;
use crate::plan::{Completes, Handle, Kind, Plan, PlanCore, Row};
use crate::session::{CCollSession, CollectiveError, Recovery};
use crate::workspace::CollWorkspace;

/// Persistent gather plan (see [`CCollSession::plan_gather`]): `input`
/// is this rank's chunk ([`input_len`](GatherPlan::input_len)); the
/// root must size `out` to [`total_len`](GatherPlan::total_len),
/// other ranks may pass an empty buffer. Completion returns `true` on
/// the root, `false` elsewhere.
pub type GatherPlan = Plan<Gather>;
/// An in-flight nonblocking gather (see [`Plan::start`]);
/// [`Handle::complete`] returns `true` on the root.
pub type GatherHandle<'p, 'b> = Handle<'p, 'b, Gather>;

/// The gather kind (see [`GatherPlan`]).
pub struct Gather {
    pub(crate) root: usize,
    pub(crate) total_len: usize,
    pub(crate) counts: Vec<usize>,
}

impl Gather {
    /// # Panics
    /// Panics if `root` is out of range.
    pub(crate) fn new(session: &CCollSession, root: usize, total_len: usize) -> Self {
        assert!(root < session.world_size, "root {root} out of range");
        Gather {
            root,
            total_len,
            counts: chunk_lengths(total_len, session.world_size),
        }
    }
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

    const NAME: &'static str = "gather";

    const SCHEDULES: &'static [Row] = &[(Algorithm::Binomial, None)];

    fn priced_values(&self) -> usize {
        self.total_len
    }

    fn workspace(&mut self, session: &CCollSession, _algorithm: Algorithm) -> CollWorkspace {
        session.warmed_workspace(self.total_len, 4)
    }

    fn shrunk(&self, r: &Recovery) -> Result<Self, CollectiveError> {
        let root = r.surviving_root(self.root)?;
        Ok(Self::new(r.session(), root, self.total_len))
    }

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
        nb::Gather::new(core.session.movement_placement(), self.root, self.total_len)
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
}
