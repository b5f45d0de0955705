//! Cluster topology: ranks→node mapping and per-level α–β network
//! models.
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
//!
//! The hierarchical schedules run each phase over a member subset of
//! this mapping (node-local ranks, or the per-node leaders) through
//! [`crate::CommView::group`].

use std::ops::Range;
use std::time::Duration;

use crate::sim::NetModel;

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

    /// The inter-node link as each of `node_size` ranks sending at once
    /// sees it: their messages serialize on the node's one NIC, so each
    /// gets `1/node_size` of its bandwidth.
    pub(crate) fn shared_inter(&self, node_size: usize) -> NetModel {
        NetModel {
            latency: self.inter.latency,
            bandwidth: self.inter.bandwidth / node_size.max(1) as f64,
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
        assert_eq!(t.members_of(1), 1..5);
    }

    #[test]
    fn flat_topology_is_all_leaders() {
        let t = Topology::flat(5);
        assert_eq!(t.nodes(), 5);
        assert_eq!(t.leaders(), (0..5).collect::<Vec<_>>());
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
