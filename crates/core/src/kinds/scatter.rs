//! The scatter kind: the binomial tree of the paper's C-Scatter, its
//! only schedule.

use ccoll_comm::Comm;

use crate::algorithm::Algorithm;
use crate::nonblocking::{self as nb, Poll};
use crate::partition::chunk_lengths;
use crate::plan::{Completes, Handle, Kind, Plan, PlanCore, Row};
use crate::session::{CCollSession, CollectiveError, Recovery};
use crate::workspace::CollWorkspace;

/// Persistent scatter plan (see [`CCollSession::plan_scatter`]): `input`
/// is read on the root only; `out` is this rank's chunk
/// ([`output_len`](ScatterPlan::output_len)).
pub type ScatterPlan = Plan<Scatter>;
/// An in-flight nonblocking scatter (see [`Plan::start`]).
pub type ScatterHandle<'p, 'b> = Handle<'p, 'b, Scatter>;

/// The scatter kind (see [`ScatterPlan`]).
pub struct Scatter {
    pub(crate) root: usize,
    pub(crate) total_len: usize,
    pub(crate) counts: Vec<usize>,
}

impl Scatter {
    /// # Panics
    /// Panics if `root` is out of range.
    pub(crate) fn new(session: &CCollSession, root: usize, total_len: usize) -> Self {
        assert!(root < session.world_size, "root {root} out of range");
        Scatter {
            root,
            total_len,
            counts: chunk_lengths(total_len, session.world_size),
        }
    }
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

    const NAME: &'static str = "scatter";

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

    /// The machine checks the root-only input and per-rank chunk itself.
    fn check_buffers(&self, _rank: usize, _input: &[f32], _out: &[f32]) {}

    fn out_len(&self, rank: usize) -> usize {
        self.counts[rank]
    }

    fn machine(&mut self, core: &mut PlanCore, _rank: usize) -> nb::Scatter {
        nb::Scatter::new(core.session.movement_placement(), self.root, self.total_len)
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
}
