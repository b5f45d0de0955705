//! The allgather kind: compress-once ring and Bruck schedules, and the
//! two-level schedule over node blocks.

use ccoll_comm::{Comm, Schedule};

use crate::algorithm::Algorithm;
use crate::nonblocking::{BruckAg, HierAg, Poll, RingAg};
use crate::placement::Role;
use crate::plan::{priced, Completes, Handle, Kind, Plan, PlanCore, Row, Tuning};
use crate::session::{CCollSession, CollectiveError, Recovery};
use crate::workspace::CollWorkspace;

/// Persistent allgather plan (see [`CCollSession::plan_allgatherv`] and
/// [`CCollSession::plan_allgatherv_with`]): `input` is this rank's
/// [`counts`](AllgatherPlan::counts)`[rank]` values, `out` is
/// [`total_len`](AllgatherPlan::total_len) values.
pub type AllgatherPlan = Plan<Allgather>;
/// An in-flight nonblocking allgather (see [`Plan::start`]).
pub type AllgatherHandle<'p, 'b> = Handle<'p, 'b, Allgather>;

/// The allgather kind (see [`AllgatherPlan`]).
pub struct Allgather {
    pub(crate) counts: Vec<usize>,
    pub(crate) total: usize,
}

impl Allgather {
    /// # Panics
    /// Panics if `counts.len()` is not the session's world size.
    pub(crate) fn new(session: &CCollSession, counts: Vec<usize>) -> Self {
        assert_eq!(
            counts.len(),
            session.world_size,
            "counts must have one entry per rank"
        );
        Allgather {
            total: counts.iter().sum(),
            counts,
        }
    }

    /// The largest per-rank contribution.
    fn max_chunk(&self) -> usize {
        self.counts.iter().copied().max().unwrap_or(0)
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

/// The state machine behind an allgather plan.
#[derive(Debug)]
// The two-level machine holds its three legs inline: a handle owns its
// machine by value, so a `Box` would allocate on every `start`.
#[allow(clippy::large_enum_variant)]
pub(crate) enum AgPlanMachine {
    Ring(RingAg),
    Bruck(BruckAg),
    /// Two-level: node-local gather, leader-only ring over node blocks,
    /// node-local fan-out.
    Hier(HierAg),
}

impl Completes for Allgather {
    type Output = ();
}

impl Kind for Allgather {
    type Machine = AgPlanMachine;

    const NAME: &'static str = "allgather";

    /// Compress-once on every row, so the single-error bound holds on
    /// each.
    const SCHEDULES: &'static [Row] = &[
        priced(Algorithm::Ring, Schedule::RingAllgather),
        priced(Algorithm::Bruck, Schedule::BruckAllgather),
        priced(Algorithm::Hierarchical, Schedule::HierarchicalAllgather),
    ];

    const TUNING: Tuning = Tuning::Rerank;

    fn priced_values(&self) -> usize {
        self.max_chunk()
    }

    /// The hierarchical layout aggregates per-node blocks, which only
    /// line up when every rank contributes the same count.
    fn two_level(&self) -> bool {
        self.counts.windows(2).all(|w| w[0] == w[1])
    }

    /// The hierarchical schedule's scratch must fit the largest *node
    /// block* (the inter-node ring moves whole node aggregates), flat
    /// schedules only the largest per-rank chunk.
    fn workspace(&mut self, session: &CCollSession, algorithm: Algorithm) -> CollWorkspace {
        let values = match (algorithm, session.cluster()) {
            (Algorithm::Hierarchical, Some(c)) => c.topo.max_node_size() * self.max_chunk(),
            _ => self.max_chunk(),
        };
        session.warmed_workspace(values.max(1), 4)
    }

    fn shrunk(&self, r: &Recovery) -> Result<Self, CollectiveError> {
        Ok(Self::new(r.session(), r.surviving_counts(&self.counts)))
    }

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

    fn hier_values(&self, rank: usize) -> usize {
        self.counts[rank]
    }

    fn machine(&mut self, core: &mut PlanCore, _rank: usize) -> AgPlanMachine {
        // The ring machines read the partition from the workspace; the
        // Bruck machine re-caches it from the counts it is handed.
        core.ws.set_partition_from_counts(&self.counts);
        let (session, place) = (&core.session, core.session.movement_placement());
        match core.algorithm {
            Algorithm::Bruck => AgPlanMachine::Bruck(BruckAg::new(place)),
            Algorithm::Hierarchical => {
                let groups = core
                    .groups
                    .as_ref()
                    .expect("hierarchical plans build their groups at start");
                AgPlanMachine::Hier(HierAg::new(session, place, groups.node_counts[groups.node]))
            }
            _ => AgPlanMachine::Ring(RingAg::new(place, session.cut(place, Role::Relay), true)),
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
}
