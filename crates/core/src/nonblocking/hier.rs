//! The two-level (hierarchical) schedules: every leg an existing
//! machine stepped over a group view of the communicator.

use ccoll_comm::{Comm, CommView};

use super::{Bcast, Butterfly, Gather, Poll, RingAg, RingRs, TreeReduce};
use crate::collectives::cpr_p2p::CprCodec;
use crate::collectives::{memcpy_in, tags};
use crate::partition::chunk_range;
use crate::pipeline::{Land, Route, StreamCursor, WHOLE};
use crate::placement::{Link, Placement};
use crate::reduce::ReduceOp;
use crate::workspace::CollWorkspace;

/// The communicator split a hierarchical plan runs over. Built once,
/// at the plan's first `start`, from the session's
/// [`ccoll_comm::Topology`]; every phase borrows these member tables to
/// form ephemeral [`CommView::group`] views, so steady-state steps never
/// allocate.
///
/// Each node's ranks are cut into `lanes` contiguous *groups* (the
/// balanced partition of the node's rank range); the first rank of a
/// group is its *owner*. The allgather and bcast schedules run one
/// lane: the group is the whole node and its owner the node leader.
#[derive(Debug, Clone)]
pub(crate) struct HierGroups {
    /// World ranks of my group, ascending (its owner is the first entry).
    pub(crate) group: Vec<usize>,
    /// The owners of my node's groups, ascending by lane.
    pub(crate) owners: Vec<usize>,
    /// My lane's owner on every node, ascending by node.
    pub(crate) lane_peers: Vec<usize>,
    /// Per-node *value* counts of the allgather result layout (empty
    /// for allreduce / bcast plans, which move full-length buffers).
    pub(crate) node_counts: Vec<usize>,
    /// My node's index (`lane_peers[node]` is my owner).
    pub(crate) node: usize,
    /// My group's lane (`owners[lane]` is my owner).
    lane: usize,
}

impl HierGroups {
    /// Build the split for `rank` under `topo` with `lanes` groups per
    /// node, with `values_per_rank` driving the per-node block sizes (0
    /// for full-length schedules).
    ///
    /// # Panics
    /// Panics when a node has fewer than `lanes` ranks.
    pub(crate) fn build(
        topo: &ccoll_comm::Topology,
        rank: usize,
        values_per_rank: usize,
        lanes: usize,
    ) -> Self {
        assert!(
            (1..=topo.min_node_size()).contains(&lanes),
            "{lanes} lanes need that many ranks on every node"
        );
        let group_of = |node: usize, lane: usize| {
            let members = topo.members_of(node);
            let at = chunk_range(members.len(), lanes, lane);
            members.start + at.start..members.start + at.end
        };
        let node = topo.node_of(rank);
        let lane = (0..lanes)
            .find(|&l| group_of(node, l).contains(&rank))
            .expect("the groups tile the node");
        HierGroups {
            group: group_of(node, lane).collect(),
            owners: (0..lanes).map(|l| group_of(node, l).start).collect(),
            lane_peers: (0..topo.nodes()).map(|a| group_of(a, lane).start).collect(),
            node_counts: if values_per_rank == 0 {
                Vec::new()
            } else {
                (0..topo.nodes())
                    .map(|a| topo.node_size(a) * values_per_rank)
                    .collect()
            },
            node,
            lane,
        }
    }

    fn is_owner(&self, rank: usize) -> bool {
        self.group[0] == rank
    }
}

/// The inner reduce op for hierarchical phases: `Avg` sums through
/// every leg so the single ÷n finalize happens exactly once at the end,
/// with the full world count.
fn hier_inner(op: ReduceOp) -> ReduceOp {
    match op {
        ReduceOp::Avg => ReduceOp::Sum,
        other => other,
    }
}

#[derive(Debug, Clone, Copy)]
enum HierPhase {
    Local,
    Inter,
    Fanout,
    Final,
    Done,
}

/// Step the raw fan-out that ends every hierarchical schedule: the
/// group owner's `out` into every other member's, as a `pipe`-value
/// sub-chunk [`Route::chain_relay`] when `chain` gives one, else as the
/// whole-message binomial [`Route::tree`]. A one-member group has
/// nothing to fan out.
fn fan_out<C: Comm>(
    cursor: &mut StreamCursor,
    comm: &mut C,
    group: &[usize],
    chain: Option<usize>,
    out: &mut [f32],
    ws: &mut CollWorkspace,
    block: bool,
) -> Poll {
    if group.len() == 1 {
        return Poll::Ready;
    }
    let mut sub = CommView::group(comm, group);
    let route = match chain {
        Some(pipe) => Route::chain_relay(&sub, pipe, tags::BCAST),
        None => Route::tree(&sub, (Link::Raw, WHOLE), tags::BCAST, 0, &[]),
    };
    cursor.step(&mut sub, route, out, &mut ws.pipe(), block)
}

/// The leg a laned allreduce is in, with that leg's machine: one runs
/// at a time, built when its leg begins.
#[derive(Debug)]
enum LaneLeg {
    GroupReduce(GroupReduce),
    NodeRs(RingRs),
    Inter(Butterfly),
    NodeAg(RingAg),
    GroupBcast(StreamCursor),
    Final,
    Done,
}

/// The group reduce's machine: the binomial tree, or the sub-chunk
/// chain.
#[derive(Debug)]
enum GroupReduce {
    Tree(TreeReduce),
    Chain(StreamCursor),
}

/// Laned two-level allreduce over `L = groups.owners.len()` lanes:
///
/// 1. raw reduce of the whole vector inside each group, to its owner;
/// 2. raw ring reduce-scatter over the node's `L` owners — owner `l`
///    ends with lane `l` (d/L values) of the node's sum;
/// 3. a Rabenseifner allreduce of lane `l` over the lane-`l` owners of
///    every node (where the codec terms and the shared inter-node NIC
///    live), straight into lane `l` of `out`;
/// 4. raw ring allgather of the lanes over the node's owners, relaying
///    each received lane untouched and landing it while the onward copy
///    is on the wire;
/// 5. raw fan-out of the result inside each group.
///
/// Every raw reducing hop (phase 2's rounds, phase 1's tree edges, phase
/// 3's halving when the session is raw) streams `pipe`-value sub-chunks
/// and folds each while the next is on the wire. Phases 1 and 5 are
/// binomial trees ([`TreeReduce`], then the whole-message raw
/// [`Route::tree`]) or, when the plan's cost model prices it cheaper
/// (`streamed`: payloads of several sub-chunks), streams along the
/// group ([`Route::chain_fold`] toward the owner, [`Route::chain_relay`]
/// away from it). Non-owners fold into `out`, which the fan-out
/// overwrites.
///
/// `L = 1` is the single-leader schedule (phases 2 and 4 have one
/// member and are skipped); `L =` node size is reduce-scatter-first
/// (phases 1 and 5 are skipped); every `L` and either group shape moves
/// the same bytes. Every leg is an existing machine over a
/// [`CommView::group`] view; tag families stay disjoint (`TREE_REDUCE` /
/// `REDUCE_SCATTER` / `RABENSEIFNER` / `ALLGATHER` / `BCAST`, a group
/// leg's chain on its tree's tag) and concurrent groups of one phase
/// have disjoint member sets.
#[derive(Debug)]
pub(crate) struct HierAr {
    place: Placement,
    /// Sub-chunk size of the raw hops and the streamed group legs.
    pipe: usize,
    streamed: bool,
    leg: LaneLeg,
}

impl HierAr {
    /// `place` is the inter-node leg's placement; the intra-node legs
    /// are always raw, their hops stream `pipe`-value sub-chunks, and
    /// the group legs are sub-chunk chains when `streamed`.
    pub(crate) fn new(place: Placement, pipe: usize, streamed: bool) -> Self {
        HierAr {
            place,
            pipe,
            streamed,
            leg: LaneLeg::GroupReduce(if streamed {
                GroupReduce::Chain(StreamCursor::default())
            } else {
                GroupReduce::Tree(TreeReduce::new(Placement::Raw, pipe, 0))
            }),
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn step<C: Comm>(
        &mut self,
        comm: &mut C,
        cpr: Option<&CprCodec>,
        op: ReduceOp,
        groups: &HierGroups,
        input: &[f32],
        out: &mut [f32],
        ws: &mut CollWorkspace,
        block: bool,
    ) -> Poll {
        let world = comm.size();
        let me = comm.rank();
        let inner = hier_inner(op);
        let d = input.len();
        let lanes = groups.owners.len();
        let grouped = groups.group.len() > 1;
        // My lane of `out` (all of it at one lane), and the layout of an
        // owner's `ws.hier`: the group tree's result when there was a
        // group to reduce, then the reduce-scatter's chunk when the
        // node has other lanes. Non-owners keep it empty.
        let lane = chunk_range(d, lanes, groups.lane);
        let tree_len = if grouped { d } else { 0 };
        let chunk_len = if lanes > 1 { lane.len() } else { 0 };
        loop {
            match &mut self.leg {
                LaneLeg::GroupReduce(leg) => {
                    let owner = groups.is_owner(me);
                    if owner {
                        ws.hier.resize(tree_len + chunk_len, 0.0);
                    }
                    if grouped {
                        let mut hier = std::mem::take(&mut ws.hier);
                        let mut sub = CommView::group(comm, &groups.group);
                        let r = match leg {
                            GroupReduce::Tree(tree) => {
                                let result = if owner { &mut hier[..d] } else { &mut [][..] };
                                tree.step(&mut sub, None, inner, input, result, ws, block)
                            }
                            GroupReduce::Chain(chain) => {
                                let acc = if owner { &mut hier[..d] } else { &mut *out };
                                let tag = tags::TREE_REDUCE;
                                let route = Route::chain_fold(&sub, self.pipe, tag, inner, input);
                                chain.step(&mut sub, route, acc, &mut ws.pipe(), block)
                            }
                        };
                        ws.hier = hier;
                        if r == Poll::Pending {
                            return Poll::Pending;
                        }
                    }
                    self.leg = if owner {
                        LaneLeg::NodeRs(RingRs::new(Placement::Raw, self.pipe))
                    } else {
                        LaneLeg::GroupBcast(StreamCursor::default())
                    };
                }
                LaneLeg::NodeRs(scatter) => {
                    if lanes > 1 {
                        let mut hier = std::mem::take(&mut ws.hier);
                        let (tree, chunk) = hier.split_at_mut(tree_len);
                        let src = if grouped { &*tree } else { input };
                        let mut sub = CommView::group(comm, &groups.owners);
                        let r = scatter.step_chunk(&mut sub, None, inner, src, chunk, ws, block);
                        ws.hier = hier;
                        if r == Poll::Pending {
                            return Poll::Pending;
                        }
                    }
                    self.leg = LaneLeg::Inter(Butterfly::rabenseifner(self.place, self.pipe));
                }
                LaneLeg::Inter(inter) => {
                    let hier = std::mem::take(&mut ws.hier);
                    // The last intra-node leg that ran holds the source.
                    let src = if lanes > 1 {
                        &hier[tree_len..]
                    } else if grouped {
                        &hier[..]
                    } else {
                        input
                    };
                    let mut sub = CommView::group(comm, &groups.lane_peers);
                    let dst = &mut out[lane.clone()];
                    let r = inter.step(&mut sub, cpr, inner, src, dst, ws, block);
                    ws.hier = hier;
                    if r == Poll::Pending {
                        return Poll::Pending;
                    }
                    self.leg = LaneLeg::NodeAg(RingAg::new(Placement::Raw, self.pipe, true));
                }
                LaneLeg::NodeAg(gather) => {
                    if lanes > 1 {
                        // The butterfly cached its own partition; the
                        // allgather reads the lanes' back out.
                        ws.set_partition(d, lanes);
                        let mut sub = CommView::group(comm, &groups.owners);
                        if gather.step(&mut sub, None, None, out, ws, block) == Poll::Pending {
                            return Poll::Pending;
                        }
                    }
                    self.leg = LaneLeg::GroupBcast(StreamCursor::default());
                }
                LaneLeg::GroupBcast(cursor) => {
                    let chain = self.streamed.then_some(self.pipe);
                    let r = fan_out(cursor, comm, &groups.group, chain, out, ws, block);
                    if r == Poll::Pending {
                        return Poll::Pending;
                    }
                    self.leg = LaneLeg::Final;
                }
                LaneLeg::Final => {
                    // The inner legs reduced with the fused kind; the
                    // one real finalize (Avg's ÷n) uses the full world.
                    op.finalize(out, world);
                    self.leg = LaneLeg::Done;
                }
                LaneLeg::Done => return Poll::Ready,
            }
        }
    }
}

/// Two-level allgather: raw binomial gather of member chunks into the
/// node leader, ring allgather of whole node blocks over the leaders
/// (compress-once on the inter-node leg), raw fan-out of the assembled
/// buffer down the node's whole-message binomial tree.
#[derive(Debug)]
pub(crate) struct HierAg {
    phase: HierPhase,
    local: Gather,
    inter: RingAg,
    fanout: StreamCursor,
}

impl HierAg {
    /// `place` is the leader leg's placement; `node_block_len` is *my*
    /// node's total value count (`groups.node_counts[groups.node]`).
    pub(crate) fn new(place: Placement, pipe: usize, node_block_len: usize) -> Self {
        HierAg {
            phase: HierPhase::Local,
            local: Gather::new(Placement::Raw, 0, node_block_len),
            inter: RingAg::new(place, pipe, true),
            fanout: StreamCursor::default(),
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn step<C: Comm>(
        &mut self,
        comm: &mut C,
        cpr: Option<&CprCodec>,
        groups: &HierGroups,
        mine: &[f32],
        out: &mut [f32],
        ws: &mut CollWorkspace,
        block: bool,
    ) -> Poll {
        let me = comm.rank();
        loop {
            match self.phase {
                HierPhase::Local => {
                    let mut hier = std::mem::take(&mut ws.hier);
                    hier.resize(groups.node_counts[groups.node], 0.0);
                    let mut sub = CommView::group(comm, &groups.group);
                    let r = self.local.step(&mut sub, None, mine, &mut hier, ws, block);
                    ws.hier = hier;
                    match r {
                        Poll::Pending => return Poll::Pending,
                        Poll::Ready => {
                            if groups.is_owner(me) {
                                // The leader ring reads the *node block*
                                // partition out of the workspace.
                                ws.set_partition_from_counts(&groups.node_counts);
                                self.phase = HierPhase::Inter;
                            } else {
                                self.phase = HierPhase::Fanout;
                            }
                        }
                    }
                }
                HierPhase::Inter => {
                    let hier = std::mem::take(&mut ws.hier);
                    let mut sub = CommView::group(comm, &groups.lane_peers);
                    let r = self.inter.step(&mut sub, cpr, Some(&hier), out, ws, block);
                    ws.hier = hier;
                    match r {
                        Poll::Pending => return Poll::Pending,
                        Poll::Ready => self.phase = HierPhase::Fanout,
                    }
                }
                HierPhase::Fanout => {
                    let r = fan_out(&mut self.fanout, comm, &groups.group, None, out, ws, block);
                    if r == Poll::Pending {
                        return Poll::Pending;
                    }
                    self.phase = HierPhase::Final;
                }
                HierPhase::Final => self.phase = HierPhase::Done,
                HierPhase::Done => return Poll::Ready,
            }
        }
    }
}

/// Two-level broadcast: an intra-node hand-off from the root to its
/// node leader (a one-hop raw [`Route::hop`], skipped when the root
/// *is* a leader), a binomial bcast over the leaders (compress-once,
/// streamed in sub-chunks like the flat one — it *is* a [`Bcast`]), and
/// a raw fan-out down every node's whole-message binomial tree. The
/// root's buffer stays bitwise-exact; all other ranks see one identical
/// decode of the single inter-node blob.
#[derive(Debug)]
pub(crate) struct HierBc {
    phase: HierPhase,
    place: Placement,
    /// World rank of the broadcast root.
    root: usize,
    /// Leader-group index of the root's node.
    root_node: usize,
    inter: Bcast,
    /// The hand-off's stream, then the fan-out's.
    stream: StreamCursor,
}

impl HierBc {
    /// `place` is the leader leg's placement; at compress-once the leg
    /// is a [`Bcast`] streamed in `pipe`-value sub-chunks.
    pub(crate) fn new(place: Placement, pipe: usize, root: usize, root_node: usize) -> Self {
        HierBc {
            phase: HierPhase::Local,
            place,
            root,
            root_node,
            inter: Bcast::new(place, pipe, root_node),
            stream: StreamCursor::default(),
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn step<C: Comm>(
        &mut self,
        comm: &mut C,
        cpr: Option<&CprCodec>,
        groups: &HierGroups,
        data: &[f32],
        out: &mut [f32],
        ws: &mut CollWorkspace,
        block: bool,
    ) -> Poll {
        let me = comm.rank();
        let root_leader = groups.lane_peers[self.root_node];
        let root_is_leader = root_leader == self.root;
        let my_leader = groups.group[0];
        loop {
            match self.phase {
                // Root→leader hand-off (raw, intra-node): a one-hop route
                // between the two, empty on every other rank.
                HierPhase::Local => {
                    let (mut send, mut recv) = (None, None);
                    if me == self.root && !root_is_leader {
                        send = Some((data, root_leader));
                    } else if me == root_leader && !root_is_leader {
                        ws.hier.resize(out.len(), 0.0);
                        recv = Some((self.root, Land::Store));
                    }
                    let mut hier = std::mem::take(&mut ws.hier);
                    let route = Route::hop((Link::Raw, WHOLE), tags::HIER, send, recv);
                    let r = self
                        .stream
                        .step(comm, route, &mut hier, &mut ws.pipe(), block);
                    ws.hier = hier;
                    if r == Poll::Pending {
                        return Poll::Pending;
                    }
                    self.phase = HierPhase::Inter;
                }
                // Leader-group broadcast of the (compress-once) buffer.
                HierPhase::Inter => {
                    if !groups.is_owner(me) {
                        self.phase = HierPhase::Fanout;
                        continue;
                    }
                    let hier = std::mem::take(&mut ws.hier);
                    let src: &[f32] = if me != root_leader {
                        &[]
                    } else if root_is_leader {
                        data
                    } else {
                        &hier
                    };
                    let mut sub = CommView::group(comm, &groups.lane_peers);
                    let r = self.inter.step(&mut sub, cpr, src, out, ws, block);
                    ws.hier = hier;
                    match r {
                        Poll::Pending => return Poll::Pending,
                        Poll::Ready => self.phase = HierPhase::Fanout,
                    }
                }
                // Raw fan-out within the node; the leader's `out` is
                // pre-filled.
                HierPhase::Fanout => {
                    let r = fan_out(&mut self.stream, comm, &groups.group, None, out, ws, block);
                    if r == Poll::Pending {
                        return Poll::Pending;
                    }
                    self.phase = HierPhase::Final;
                }
                HierPhase::Final => {
                    // A non-leader root received its node's relayed
                    // decode; restore the exact source bits, as the
                    // flat compressed bcast guarantees for the root.
                    let lossy = !matches!(self.place, Placement::Raw);
                    if lossy && me == self.root && my_leader != self.root {
                        memcpy_in(comm, out, data);
                    }
                    self.phase = HierPhase::Done;
                }
                HierPhase::Done => return Poll::Ready,
            }
        }
    }
}
