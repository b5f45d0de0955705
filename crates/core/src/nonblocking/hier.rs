//! The two-level (hierarchical) schedules: every leg an existing
//! machine stepped over a group view of the communicator.

use ccoll_comm::{Comm, CommView, Cut};

use super::{Bcast, Butterfly, Gather, Poll, RingAg, RingRs, TreeReduce};
use crate::collectives::cpr_p2p::CprCodec;
use crate::collectives::{memcpy_in, tags};
use crate::partition::chunk_range;
use crate::pipeline::{Land, Route, StreamCursor};
use crate::placement::{Link, Placement, Role};
use crate::reduce::ReduceOp;
use crate::session::CCollSession;
use crate::workspace::CollWorkspace;

/// The communicator split a hierarchical plan runs over. Built once,
/// at the plan's first `start`, from the session's
/// [`ccoll_comm::Topology`]; every phase borrows these member tables to
/// form ephemeral [`CommView::group`] views, so steady-state steps never
/// allocate.
///
/// Each node's ranks are cut into `lanes` contiguous *groups* (the
/// balanced partition of the node's rank range); the first rank of a
/// group is its *owner*. Member `r` of every group forms *row* `r`; the
/// groups differ by at most one member, so on a node whose size `lanes`
/// does not divide, the last row is partial. The allgather and bcast
/// schedules run one lane: the group is the whole node and its owner the
/// node leader.
#[derive(Debug, Clone)]
pub(crate) struct HierGroups {
    /// World ranks of my group, ascending (its owner is the first entry).
    pub(crate) group: Vec<usize>,
    /// The owners of my node's groups, ascending by lane.
    pub(crate) owners: Vec<usize>,
    /// My row: the member at my index in each of my node's groups,
    /// ascending by lane (a partial row has fewer than `lanes`).
    pub(crate) row: Vec<usize>,
    /// My node's full rows: its smallest group's size.
    pub(crate) rows: usize,
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
        let at = rank - group_of(node, lane).start;
        HierGroups {
            group: group_of(node, lane).collect(),
            owners: (0..lanes).map(|l| group_of(node, l).start).collect(),
            row: (0..lanes)
                .filter_map(|l| group_of(node, l).nth(at))
                .collect(),
            rows: topo.node_size(node) / lanes,
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

    /// On a node with a partial last row, `rank`'s hop partner and
    /// whether `rank` is the partial row's member (`true`) or the member
    /// of the row above it in the same group (`false`).
    fn pair(&self, rank: usize) -> Option<(usize, bool)> {
        let at = rank - self.group[0];
        if at == self.rows {
            Some((self.group[at - 1], true))
        } else if at + 1 == self.rows {
            self.group.get(self.rows).map(|&below| (below, false))
        } else {
            None
        }
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
    Done,
}

/// Step the raw fan-out that ends every hierarchical schedule: the
/// group owner's `out` into every other member's, in `cut`, as a
/// [`Route::chain_relay`] when `chain`, else down the binomial
/// [`Route::tree`]. A one-member group has nothing to fan out.
fn fan_out<C: Comm>(
    cursor: &mut StreamCursor,
    comm: &mut C,
    group: &[usize],
    (cut, chain): (Cut, bool),
    out: &mut [f32],
    ws: &mut CollWorkspace,
    block: bool,
) -> Poll {
    if group.len() == 1 {
        return Poll::Ready;
    }
    let mut sub = CommView::group(comm, group);
    let route = match chain {
        true => Route::chain_relay(&sub, cut, tags::BCAST),
        false => Route::tree(&sub, (Link::Raw, cut), tags::BCAST, 0, &[]),
    };
    cursor.step(&mut sub, route, out, &mut ws.pipe(), block)
}

/// The leg a laned allreduce is in, with that leg's machine: one runs
/// at a time, built when its leg begins.
#[derive(Debug)]
enum LaneLeg {
    FoldIn(StreamCursor),
    RowRs(RingRs),
    GroupReduce(GroupReduce),
    Inter(Butterfly),
    GroupBcast(StreamCursor),
    RowAg(RingAg),
    HandBack(StreamCursor),
    Done,
}

/// The group reduce's machine: the binomial tree, or the sub-chunk chain.
#[derive(Debug)]
enum GroupReduce {
    Tree(TreeReduce),
    Chain(StreamCursor),
}

/// Laned two-level allreduce over `L = groups.owners.len()` lanes, rings
/// across the lanes first:
///
/// 1. raw ring reduce-scatter of the vector over each *row* (member `r`
///    of each of the node's `L` groups), accumulating in `out`: row
///    member `l` ends with its row's partial of lane `l` (d/L values);
/// 2. raw reduce of that lane inside each group, to its owner;
/// 3. a Rabenseifner allreduce of lane `l` over the lane-`l` owners of
///    every node (the codec terms and the shared NIC live here), into
///    lane `l` of `out`;
/// 4. raw fan-out of the lane inside each group;
/// 5. raw ring allgather of the lanes over each row.
///
/// On a node `L` does not divide, the partial last row's members fold
/// their input into their group's row above first (one raw
/// [`Route::hop`] of the vector) and get the result back from it last.
/// Every leg streams in the cut the session gives its role: raw reducing
/// hops fold each sub-chunk while the next is on the wire; legs 2 and 4
/// are binomial trees ([`TreeReduce`], the whole-message [`Route::tree`])
/// or, when `streamed`, chains along the group ([`Route::chain_fold`],
/// [`Route::chain_relay`]), folding into `ws.hier`, one lane long (a
/// tree's interior members into `ws.acc`). `L = 1` is the single-leader
/// schedule and `L =` node size reduce-scatter-first; every `L` moves
/// the same (s−1)·d bytes per node each way, and no rank folds more than
/// about d. Tag families stay disjoint (`HIER`, `REDUCE_SCATTER`,
/// `TREE_REDUCE`, `RABENSEIFNER`, `BCAST`, `ALLGATHER`) and concurrent
/// groups or rows of one leg have disjoint member sets.
#[derive(Debug)]
pub(crate) struct HierAr {
    place: Placement,
    /// The inter-node hops' cut, and the raw node-local hops', relays'
    /// and whole-message legs' (`CCollSession::cut`).
    inter: Cut,
    hop: Cut,
    relay: Cut,
    whole: Cut,
    streamed: bool,
    leg: LaneLeg,
}

impl HierAr {
    /// `place` is the inter-node leg's placement; the intra-node legs
    /// are always raw, and the group legs are sub-chunk chains when
    /// `streamed`.
    pub(crate) fn new(session: &CCollSession, place: Placement, streamed: bool) -> Self {
        HierAr {
            place,
            inter: session.cut(place, Role::Hop),
            hop: session.cut(Placement::Raw, Role::Hop),
            relay: session.cut(Placement::Raw, Role::Relay),
            whole: session.cut(Placement::Raw, Role::Tree),
            streamed,
            leg: LaneLeg::FoldIn(StreamCursor::default()),
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
        // My lane of `out` (all of it at one lane). The group legs run
        // over the full rows; a partial row's member sits the laned legs
        // out (`spare`), and its partner runs them on the pair's fold.
        let lane = chunk_range(d, lanes, groups.lane);
        let members = &groups.group[..groups.rows];
        let pair = groups.pair(me);
        let spare = pair.is_some_and(|(_, spare)| spare);
        loop {
            match &mut self.leg {
                LaneLeg::FoldIn(cursor) => {
                    if let Some((peer, _)) = pair {
                        let land = Land::Fold(inner, Some(input));
                        let (send, recv, dst) = if spare {
                            (Some((input, peer)), None, &mut [][..])
                        } else {
                            (None, Some((peer, land)), &mut *out)
                        };
                        let route = Route::hop((Link::Raw, self.hop), tags::HIER, send, recv);
                        if cursor.step(comm, route, dst, &mut ws.pipe(), block) == Poll::Pending {
                            return Poll::Pending;
                        }
                    }
                    self.leg = if spare {
                        LaneLeg::HandBack(StreamCursor::default())
                    } else {
                        LaneLeg::RowRs(RingRs::new(Placement::Raw, self.hop))
                    };
                }
                LaneLeg::RowRs(scatter) => {
                    if lanes > 1 {
                        // A partner's `out` holds the pair's fold.
                        let src = pair.is_none().then_some(input);
                        let mut sub = CommView::group(comm, &groups.row);
                        if scatter.step(&mut sub, None, inner, src, out, ws, block) == Poll::Pending
                        {
                            return Poll::Pending;
                        }
                    }
                    self.leg = LaneLeg::GroupReduce(if self.streamed {
                        GroupReduce::Chain(StreamCursor::default())
                    } else {
                        GroupReduce::Tree(TreeReduce::new(Placement::Raw, self.hop, 0))
                    });
                }
                LaneLeg::GroupReduce(leg) => {
                    let owner = groups.is_owner(me);
                    // The row's partial of my lane: the reduce-scatter's
                    // chunk, or the input itself at one lane.
                    let src: &[f32] = if lanes > 1 { &out[lane.clone()] } else { input };
                    let mut hier = std::mem::take(&mut ws.hier);
                    let r = if members.len() == 1 {
                        // No group to reduce over: the lane is the inter
                        // leg's source as it stands — the input itself at
                        // one lane, else copied out of the row's
                        // accumulator once.
                        if lanes > 1 {
                            hier.resize(lane.len(), 0.0);
                            hier.copy_from_slice(src);
                        }
                        Poll::Ready
                    } else {
                        hier.resize(lane.len(), 0.0);
                        let mut sub = CommView::group(comm, members);
                        match leg {
                            GroupReduce::Tree(tree) => {
                                let result = if owner { &mut hier[..] } else { &mut [][..] };
                                tree.step(&mut sub, None, inner, src, result, ws, block)
                            }
                            GroupReduce::Chain(chain) => {
                                let tag = tags::TREE_REDUCE;
                                let route = Route::chain_fold(&sub, self.hop, tag, inner, src);
                                chain.step(&mut sub, route, &mut hier, &mut ws.pipe(), block)
                            }
                        }
                    };
                    ws.hier = hier;
                    if r == Poll::Pending {
                        return Poll::Pending;
                    }
                    self.leg = if owner {
                        // On a cluster: re-encode (`CCollSession::relays`).
                        LaneLeg::Inter(Butterfly::rabenseifner(self.place, self.inter, false))
                    } else {
                        LaneLeg::GroupBcast(StreamCursor::default())
                    };
                }
                LaneLeg::Inter(inter) => {
                    let hier = std::mem::take(&mut ws.hier);
                    let src = if members.len() == 1 && lanes == 1 {
                        input
                    } else {
                        &hier
                    };
                    let mut sub = CommView::group(comm, &groups.lane_peers);
                    let dst = &mut out[lane.clone()];
                    let r = inter.step(&mut sub, cpr, inner, src, dst, ws, block);
                    ws.hier = hier;
                    if r == Poll::Pending {
                        return Poll::Pending;
                    }
                    self.leg = LaneLeg::GroupBcast(StreamCursor::default());
                }
                LaneLeg::GroupBcast(cursor) => {
                    let fan = (
                        if self.streamed { self.hop } else { self.whole },
                        self.streamed,
                    );
                    let dst = &mut out[lane.clone()];
                    if fan_out(cursor, comm, members, fan, dst, ws, block) == Poll::Pending {
                        return Poll::Pending;
                    }
                    self.leg = LaneLeg::RowAg(RingAg::new(Placement::Raw, self.relay, true));
                }
                LaneLeg::RowAg(gather) => {
                    if lanes > 1 {
                        // The butterfly cached its own partition; the
                        // allgather reads the lanes' back out.
                        ws.set_partition(d, lanes);
                        let mut sub = CommView::group(comm, &groups.row);
                        if gather.step(&mut sub, None, None, out, ws, block) == Poll::Pending {
                            return Poll::Pending;
                        }
                    }
                    self.leg = LaneLeg::HandBack(StreamCursor::default());
                }
                LaneLeg::HandBack(cursor) => {
                    if let Some((peer, _)) = pair {
                        let (send, recv, dst) = if spare {
                            (None, Some((peer, Land::Store)), &mut *out)
                        } else {
                            (Some((&*out, peer)), None, &mut [][..])
                        };
                        let route = Route::hop((Link::Raw, self.whole), tags::HIER, send, recv);
                        if cursor.step(comm, route, dst, &mut ws.pipe(), block) == Poll::Pending {
                            return Poll::Pending;
                        }
                    }
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
    whole: Cut,
}

impl HierAg {
    /// `place` is the leader leg's placement; `node_block_len` is *my*
    /// node's total value count (`groups.node_counts[groups.node]`).
    pub(crate) fn new(session: &CCollSession, place: Placement, node_block_len: usize) -> Self {
        HierAg {
            phase: HierPhase::Local,
            local: Gather::new(Placement::Raw, 0, node_block_len),
            inter: RingAg::new(place, session.cut(place, Role::Relay), true),
            fanout: StreamCursor::default(),
            whole: session.cut(Placement::Raw, Role::Tree),
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
                    if r == Poll::Pending {
                        return Poll::Pending;
                    }
                    self.phase = if groups.is_owner(me) {
                        // The leader ring reads the *node block*
                        // partition out of the workspace.
                        ws.set_partition_from_counts(&groups.node_counts);
                        HierPhase::Inter
                    } else {
                        HierPhase::Fanout
                    };
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
                    let fan = (self.whole, false);
                    let r = fan_out(&mut self.fanout, comm, &groups.group, fan, out, ws, block);
                    if r == Poll::Pending {
                        return Poll::Pending;
                    }
                    self.phase = HierPhase::Done;
                }
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
    /// The hand-off's stream, then the fan-out's, and their (whole) cut.
    cursor: StreamCursor,
    whole: Cut,
}

impl HierBc {
    /// `place` is the leader leg's placement; at compress-once the leg
    /// is a [`Bcast`] streamed in sub-chunks.
    pub(crate) fn new(session: &CCollSession, place: Placement, root: usize, node: usize) -> Self {
        HierBc {
            phase: HierPhase::Local,
            place,
            root,
            root_node: node,
            inter: Bcast::new(place, session.cut(place, Role::Tree), node),
            cursor: StreamCursor::default(),
            whole: session.cut(Placement::Raw, Role::Tree),
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
                    let route = Route::hop((Link::Raw, self.whole), tags::HIER, send, recv);
                    let r = self
                        .cursor
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
                    let fan = (self.whole, false);
                    let r = fan_out(&mut self.cursor, comm, &groups.group, fan, out, ws, block);
                    if r == Poll::Pending {
                        return Poll::Pending;
                    }
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
