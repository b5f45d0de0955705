//! The broadcast kind: the (streamed) binomial tree of the paper's
//! C-Bcast and its two-level form.

use ccoll_comm::{Comm, Schedule};

use crate::algorithm::Algorithm;
use crate::nonblocking::{self as nb, HierBc, Poll};
use crate::placement::Role;
use crate::plan::{priced, Completes, Handle, Kind, Plan, PlanCore, Row};
use crate::session::{CCollSession, CollectiveError, Recovery};
use crate::workspace::CollWorkspace;

/// Persistent broadcast plan (see [`CCollSession::plan_bcast`]):
/// `input` is read on the root only (other ranks may pass an empty
/// slice); `out` is [`len`](BcastPlan::len) values on every rank.
pub type BcastPlan = Plan<Bcast>;
/// An in-flight nonblocking broadcast (see [`Plan::start`]).
pub type BcastHandle<'p, 'b> = Handle<'p, 'b, Bcast>;

/// The broadcast kind (see [`BcastPlan`]).
pub struct Bcast {
    pub(crate) root: usize,
    pub(crate) len: usize,
    /// The root's node under the session topology (0 without one; read
    /// by the hierarchical schedule only).
    pub(crate) root_node: usize,
}

impl Bcast {
    /// # Panics
    /// Panics if `root` is out of range.
    pub(crate) fn new(session: &CCollSession, root: usize, len: usize) -> Self {
        assert!(root < session.world_size, "root {root} out of range");
        Bcast {
            root,
            len,
            root_node: session.cluster().map_or(0, |c| c.topo.node_of(root)),
        }
    }
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

/// The state machine behind a broadcast plan.
#[derive(Debug)]
// The two-level machine holds its three legs inline: a handle owns its
// machine by value, so a `Box` would allocate on every `start`.
#[allow(clippy::large_enum_variant)]
pub(crate) enum BcMachine {
    /// Flat binomial tree over the whole communicator.
    Flat(nb::Bcast),
    /// Two-level: root→leader hand-off, leader-only binomial tree
    /// carrying the codec, raw node-local fan-out.
    Hier(HierBc),
}

impl Completes for Bcast {
    type Output = ();
}

impl Kind for Bcast {
    type Machine = BcMachine;

    const NAME: &'static str = "bcast";

    const SCHEDULES: &'static [Row] = &[
        priced(Algorithm::Binomial, Schedule::BinomialTreeBcast),
        priced(Algorithm::Hierarchical, Schedule::HierarchicalBcast),
    ];

    fn priced_values(&self) -> usize {
        self.len
    }

    /// With a codec the payload streams in sub-chunks. A relay that
    /// keeps up holds one sub-chunk per tree level in flight (a slot is
    /// released once the deepest leaf has decoded it), so the pool is
    /// warmed for that window, not for the payload; a rank posts every
    /// sub-chunk receive up front and keeps at most one queued send per
    /// child per sub-chunk. The codec scratch keeps the whole-payload
    /// *capacity* it always had (only one sub-chunk of it is ever
    /// touched): shrinking it tips the allocator into re-zeroing a
    /// caller's freshly allocated output buffer on every set-up, which
    /// costs far more than the reservation (DESIGN.md, "Streamed data
    /// movement"). Without a codec: one raw message.
    fn workspace(&mut self, session: &CCollSession, _algorithm: Algorithm) -> CollWorkspace {
        let len = self.len;
        if session.cpr.is_none() {
            return session.warmed_workspace(len, 4);
        }
        let pipe = session.pipe_values();
        let chunks = len.div_ceil(pipe).max(1);
        let depth = session.world_size.next_power_of_two().trailing_zeros() as usize;
        let mut ws = session.pipelined_stream_workspace(len.max(1), len.min(pipe * depth));
        ws.rreqs.reserve(chunks);
        ws.sreqs.reserve(chunks * depth);
        ws
    }

    /// The shrunk session dropped the (now-stale) topology, so a
    /// hierarchical plan re-resolves to the flat binomial tree.
    fn shrunk(&self, r: &Recovery) -> Result<Self, CollectiveError> {
        Ok(Self::new(
            r.session(),
            r.surviving_root(self.root)?,
            self.len,
        ))
    }

    fn check_buffers(&self, _rank: usize, _input: &[f32], out: &[f32]) {
        assert_eq!(out.len(), self.len, "output disagrees with plan length");
    }

    fn out_len(&self, _rank: usize) -> usize {
        self.len
    }

    fn machine(&mut self, core: &mut PlanCore, _rank: usize) -> BcMachine {
        // A session with a codec streams the payload in its PIPE
        // sub-chunks; without one the tree relays one raw message.
        let (session, root) = (&core.session, self.root);
        let place = session.movement_placement();
        match core.algorithm {
            Algorithm::Hierarchical => {
                BcMachine::Hier(HierBc::new(session, place, root, self.root_node))
            }
            _ => BcMachine::Flat(nb::Bcast::new(place, session.cut(place, Role::Tree), root)),
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
        match machine {
            BcMachine::Flat(m) => m.step(comm, cpr, input, out, ws, block),
            BcMachine::Hier(m) => {
                let groups = groups
                    .as_ref()
                    .expect("hierarchical plans build their groups at start");
                m.step(comm, cpr, groups, input, out, ws, block)
            }
        }
    }

    fn output(_: &BcMachine) {}
}
