//! Cluster topology: ranks→node mapping, per-level α–β network models,
//! and the group sub-communicator hierarchical schedules run over.
//!
//! The paper's testbed — like every real cluster — is *not* a flat
//! network: ranks on the same node exchange messages over shared memory
//! (sub-microsecond latency, many GB/s), while cross-node messages pay
//! the fabric's full α–β cost. This module gives the reproduction that
//! structure:
//!
//! * [`Topology`] — the ranks→node mapping (contiguous blocks, as
//!   `mpirun`'s default block placement lays ranks out), with leader
//!   (node-first-rank) accessors.
//! * [`HierNet`] — one [`NetModel`] per level (intra-node, inter-node).
//! * [`ClusterNet`] — the pair, with per-link model selection; attach
//!   one to a [`crate::SimConfig`] and the simulator prices every
//!   message by whether it crosses a node boundary.
//! * [`SubComm`] — a borrowed group communicator (node-local ranks, or
//!   the per-node leaders) over any [`Comm`]. The [`crate::ShrunkComm`]
//!   shape without the epoch stamp: dense rank translation through a
//!   member table, no tag rewriting — group isolation comes from
//!   disjoint member sets and disjoint schedule-tag families.

use std::ops::Range;
use std::time::Duration;

use bytes::Bytes;

use crate::chaos::{CommError, FaultPolicy};
use crate::comm::{Comm, RecvReq, SendReq, Tag};
use crate::cost::Kernel;
use crate::profile::{Category, Profiler};
use crate::sim::NetModel;
use crate::time::SimTime;

/// The ranks→node mapping of a cluster.
///
/// Nodes are **contiguous rank blocks** (ranks `0..s₀` on node 0,
/// `s₀..s₀+s₁` on node 1, …), matching block placement. Node sizes may
/// differ (asymmetric allocations); every node has at least one rank.
/// The **leader** of a node is its first (lowest) rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// Start rank of each node, plus a final sentinel = world size.
    starts: Vec<usize>,
    /// rank → node index.
    node_of: Vec<usize>,
}

impl Topology {
    /// A flat world: every rank on its own node (no intra-node links).
    pub fn flat(world: usize) -> Self {
        Topology::from_node_sizes(&vec![1; world])
    }

    /// `nodes` nodes of `ranks_per_node` ranks each.
    ///
    /// # Panics
    /// Panics when either dimension is zero.
    pub fn uniform(nodes: usize, ranks_per_node: usize) -> Self {
        assert!(nodes > 0 && ranks_per_node > 0, "empty topology");
        Topology::from_node_sizes(&vec![ranks_per_node; nodes])
    }

    /// Build from explicit per-node rank counts (asymmetric topologies).
    ///
    /// # Panics
    /// Panics when `sizes` is empty or any node is empty.
    pub fn from_node_sizes(sizes: &[usize]) -> Self {
        assert!(!sizes.is_empty(), "topology needs at least one node");
        let mut starts = Vec::with_capacity(sizes.len() + 1);
        let mut node_of = Vec::new();
        let mut at = 0usize;
        for (node, &s) in sizes.iter().enumerate() {
            assert!(s > 0, "node {node} has no ranks");
            starts.push(at);
            node_of.extend(std::iter::repeat_n(node, s));
            at += s;
        }
        starts.push(at);
        Topology { starts, node_of }
    }

    /// Total rank count.
    pub fn world(&self) -> usize {
        self.node_of.len()
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.starts.len() - 1
    }

    /// The node hosting `rank`.
    pub fn node_of(&self, rank: usize) -> usize {
        self.node_of[rank]
    }

    /// The ranks of `node`, as a contiguous range.
    pub fn members_of(&self, node: usize) -> Range<usize> {
        self.starts[node]..self.starts[node + 1]
    }

    /// Rank count of `node`.
    pub fn node_size(&self, node: usize) -> usize {
        self.starts[node + 1] - self.starts[node]
    }

    /// The largest node's rank count.
    pub fn max_node_size(&self) -> usize {
        (0..self.nodes())
            .map(|n| self.node_size(n))
            .max()
            .unwrap_or(1)
    }

    /// The smallest node's rank count.
    pub fn min_node_size(&self) -> usize {
        (0..self.nodes())
            .map(|n| self.node_size(n))
            .min()
            .unwrap_or(1)
    }

    /// The leader (first rank) of `node`.
    pub fn leader_of(&self, node: usize) -> usize {
        self.starts[node]
    }

    /// Whether `rank` is its node's leader.
    pub fn is_leader(&self, rank: usize) -> bool {
        self.starts[self.node_of[rank]] == rank
    }

    /// Whether two ranks share a node.
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.node_of[a] == self.node_of[b]
    }

    /// All node leaders, in node order.
    pub fn leaders(&self) -> Vec<usize> {
        (0..self.nodes()).map(|n| self.leader_of(n)).collect()
    }
}

/// Per-level α–β models: one for links inside a node, one for links
/// crossing nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierNet {
    /// Intra-node (shared-memory) link model.
    pub intra: NetModel,
    /// Inter-node (fabric) link model.
    pub inter: NetModel,
}

impl HierNet {
    /// A two-level model in the paper's testbed regime: shared-memory
    /// intra-node links at ≈0.3 µs / 5 GB/s, a congested fabric at
    /// ≈2.5 µs / 0.3 GB/s effective per NIC — the regime where
    /// message compression (and leader-only inter-node traffic) pays.
    pub fn cluster_default() -> Self {
        HierNet {
            intra: NetModel {
                latency: Duration::from_nanos(300),
                bandwidth: 5.0e9,
            },
            inter: NetModel {
                latency: Duration::from_micros(2) + Duration::from_nanos(500),
                bandwidth: 0.3e9,
            },
        }
    }

    /// A degenerate hierarchy: both levels priced by `net` (useful to
    /// compare hierarchical schedules on a flat fabric).
    pub fn flat(net: NetModel) -> Self {
        HierNet {
            intra: net,
            inter: net,
        }
    }
}

/// A topology plus its per-level network models: everything the
/// simulator needs to price a link, and everything the cost model needs
/// to price a two-level schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterNet {
    /// The ranks→node mapping.
    pub topo: Topology,
    /// Per-level α–β models.
    pub net: HierNet,
}

impl ClusterNet {
    /// Bundle a topology with its level models.
    pub fn new(topo: Topology, net: HierNet) -> Self {
        ClusterNet { topo, net }
    }

    /// The α–β model of the `a`→`b` link.
    pub fn link(&self, a: usize, b: usize) -> NetModel {
        if self.topo.same_node(a, b) {
            self.net.intra
        } else {
            self.net.inter
        }
    }
}

/// A borrowed group communicator over a subset of a world's ranks.
///
/// The hierarchical schedules split one [`Comm`] into node-local groups
/// and a leader group; each phase runs an ordinary flat machine over
/// the group through this wrapper. Group rank `i` maps to world rank
/// `members[i]`; all methods speak group ranks.
///
/// Unlike [`crate::ShrunkComm`], tags pass through **unstamped**: group
/// isolation needs no tag bits because (a) concurrent groups of one
/// phase have disjoint member sets, so `(source, tag)` matching cannot
/// cross groups, and (b) distinct phases of one hierarchical schedule
/// use distinct schedule-tag families. Construction is allocation-free
/// (the member table is borrowed from the owning plan), so a machine
/// can rebuild its `SubComm` on every `step` call.
pub struct SubComm<'a, C: Comm> {
    inner: &'a mut C,
    members: &'a [usize],
    rank: usize,
}

impl<'a, C: Comm> SubComm<'a, C> {
    /// Wrap `inner` as the group `members` (world ranks, strictly
    /// ascending). The calling rank must be a member.
    ///
    /// # Panics
    /// Panics when the calling rank is not in `members`.
    pub fn new(inner: &'a mut C, members: &'a [usize]) -> Self {
        let me = inner.rank();
        let rank = members
            .iter()
            .position(|&r| r == me)
            .expect("calling rank must be a group member");
        SubComm {
            inner,
            members,
            rank,
        }
    }

    /// The world rank of group `rank`.
    pub fn world_rank_of(&self, rank: usize) -> usize {
        self.members[rank]
    }

    fn translate_err(&self, err: CommError) -> CommError {
        let group = |world: usize| {
            self.members
                .iter()
                .position(|&r| r == world)
                .unwrap_or(world)
        };
        match err {
            CommError::Timeout { src, tag, waited } => CommError::Timeout {
                src: group(src),
                tag,
                waited,
            },
            CommError::PeerDead { peer } => CommError::PeerDead { peer: group(peer) },
        }
    }
}

impl<C: Comm> Comm for SubComm<'_, C> {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.members.len()
    }

    fn isend(&mut self, dst: usize, tag: Tag, payload: Bytes) -> SendReq {
        let dst = self.members[dst];
        self.inner.isend(dst, tag, payload)
    }

    fn irecv(&mut self, src: usize, tag: Tag) -> RecvReq {
        let src = self.members[src];
        self.inner.irecv(src, tag)
    }

    fn wait_send_in(&mut self, req: SendReq, cat: Category) {
        self.inner.wait_send_in(req, cat);
    }

    fn wait_recv_in(&mut self, req: RecvReq, cat: Category) -> Bytes {
        self.inner.wait_recv_in(req, cat)
    }

    fn test_recv(&mut self, req: &RecvReq) -> bool {
        self.inner.test_recv(req)
    }

    fn test_send(&mut self, req: &SendReq) -> bool {
        self.inner.test_send(req)
    }

    fn poll(&mut self) {
        self.inner.poll();
    }

    /// Group barriers are unsupported: the hierarchical machines never
    /// synchronize a group (phase hand-offs are point-to-point), and a
    /// world barrier from inside a group would deadlock the other
    /// groups.
    fn barrier(&mut self) {
        unreachable!("SubComm has no barrier; hierarchical phases hand off point-to-point");
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn charge_duration(&mut self, d: Duration, cat: Category) {
        self.inner.charge_duration(d, cat);
    }

    fn kernel_cost(&self, kernel: Kernel, bytes: usize) -> Duration {
        self.inner.kernel_cost(kernel, bytes)
    }

    fn profiler(&mut self) -> &mut Profiler {
        self.inner.profiler()
    }

    fn wait_recv_timeout_in(
        &mut self,
        req: RecvReq,
        timeout: Option<Duration>,
        cat: Category,
    ) -> Result<Bytes, (RecvReq, CommError)> {
        self.inner
            .wait_recv_timeout_in(req, timeout, cat)
            .map_err(|(r, e)| (r, self.translate_err(e)))
    }

    fn peer_alive(&mut self, rank: usize) -> bool {
        let world = self.members[rank];
        self.inner.peer_alive(world)
    }

    fn fault_policy(&self) -> FaultPolicy {
        self.inner.fault_policy()
    }

    fn cancel_recv(&mut self, req: RecvReq) {
        self.inner.cancel_recv(req);
    }

    fn abort_cleanup(&mut self) {
        self.inner.abort_cleanup();
    }

    fn purge_stale(&mut self, keep: Tag) -> u64 {
        self.inner.purge_stale(keep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_topology_accessors() {
        let t = Topology::uniform(4, 3);
        assert_eq!(t.world(), 12);
        assert_eq!(t.nodes(), 4);
        assert_eq!(t.node_of(0), 0);
        assert_eq!(t.node_of(11), 3);
        assert_eq!(t.members_of(2), 6..9);
        assert_eq!(t.leader_of(2), 6);
        assert!(t.is_leader(6) && !t.is_leader(7));
        assert!(t.same_node(6, 8) && !t.same_node(5, 6));
        assert_eq!(t.leaders(), vec![0, 3, 6, 9]);
        assert_eq!(t.max_node_size(), 3);
    }

    #[test]
    fn asymmetric_topology() {
        let t = Topology::from_node_sizes(&[1, 4, 2]);
        assert_eq!(t.world(), 7);
        assert_eq!(t.nodes(), 3);
        assert_eq!(t.leaders(), vec![0, 1, 5]);
        assert_eq!(t.node_size(1), 4);
        assert_eq!(t.max_node_size(), 4);
        assert_eq!(t.min_node_size(), 1);
        assert!(t.is_leader(0) && t.is_leader(1) && t.is_leader(5));
        assert_eq!(t.members_of(1), 1..5);
    }

    #[test]
    fn flat_topology_is_all_leaders() {
        let t = Topology::flat(5);
        assert_eq!(t.nodes(), 5);
        assert!((0..5).all(|r| t.is_leader(r)));
    }

    #[test]
    fn cluster_net_picks_levels() {
        let c = ClusterNet::new(Topology::uniform(2, 2), HierNet::cluster_default());
        assert_eq!(c.link(0, 1), c.net.intra);
        assert_eq!(c.link(1, 2), c.net.inter);
        assert_eq!(c.link(2, 3), c.net.intra);
    }

    #[test]
    #[should_panic(expected = "no ranks")]
    fn empty_node_rejected() {
        let _ = Topology::from_node_sizes(&[2, 0, 1]);
    }
}
