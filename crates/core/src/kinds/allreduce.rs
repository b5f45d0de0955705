//! The allreduce kind: the ring composition of the paper's C-Allreduce
//! (all four Table-V placements), the two butterflies and the laned
//! two-level schedule.

use ccoll_comm::{Comm, Schedule};

use crate::algorithm::{Algorithm, AllreduceVariant};
use crate::nonblocking::{Butterfly, HierAr, Poll, RingAg, RingRs};
use crate::placement::{Placement, Role};
use crate::plan::{priced, Completes, Handle, Kind, Plan, PlanCore, Row, Tuning};
use crate::reduce::ReduceOp;
use crate::session::{CCollSession, CollectiveError, Recovery};
use crate::workspace::CollWorkspace;

/// Persistent allreduce plan (see [`CCollSession::plan_allreduce`] and
/// [`CCollSession::plan_allreduce_with`]): `input` and `out` are both
/// [`len`](AllreducePlan::len) values on every rank. `out` is the
/// reduction's accumulator while the operation runs (its contents on
/// entry do not matter), so after an aborted operation it is
/// unspecified.
///
/// An `Auto` allreduce plan re-ranks once after warm-up from the
/// communicator-agreed measured compression ratio (on a cluster, in its
/// first calibration round) and then keeps calibrating the session's
/// α–β network scales every few executions (see
/// [`CCollSession::net_calibration`]).
pub type AllreducePlan = Plan<Allreduce>;
/// An in-flight nonblocking allreduce (see [`Plan::start`]).
pub type AllreduceHandle<'p, 'b> = Handle<'p, 'b, Allreduce>;

/// The allreduce kind (see [`AllreducePlan`]).
pub struct Allreduce {
    pub(crate) len: usize,
    pub(crate) op: ReduceOp,
    pub(crate) variant: AllreduceVariant,
    /// Lanes of the hierarchical schedule at this length (see
    /// [`CCollSession::hier_lanes`]); read when the split is built.
    pub(crate) lanes: usize,
    /// Whether that schedule streams its group legs as sub-chunk chains
    /// (derived with `lanes`).
    pub(crate) streamed: bool,
}

impl Allreduce {
    pub(crate) fn new(
        session: &CCollSession,
        len: usize,
        op: ReduceOp,
        variant: AllreduceVariant,
    ) -> Self {
        let (lanes, streamed) = session.hier_lanes(len);
        Allreduce {
            len,
            op,
            variant,
            lanes,
            streamed,
        }
    }

    /// The ring's (reduce-scatter, allgather) placements: raw without a
    /// codec, else the variant's (Table V). The overlapped variant's
    /// reduce-scatter is piped for an error-bounded codec; a codec
    /// without a bound (ZFP-FXR) cannot drive the SZx pipeline and runs
    /// its hops as monolithic CPR — on the ring that is ND, CPR-P2P
    /// reduce-scatter + compress-once allgather.
    fn ring_places(&self, session: &CCollSession) -> (Placement, Placement) {
        if session.cpr.is_none() {
            return (Placement::Raw, Placement::Raw);
        }
        match self.variant {
            AllreduceVariant::Original => (Placement::Raw, Placement::Raw),
            AllreduceVariant::DirectIntegration => (Placement::Cpr, Placement::Cpr),
            AllreduceVariant::NovelDesign => (Placement::Cpr, Placement::Once),
            AllreduceVariant::Overlapped => (session.placement(), Placement::Once),
        }
    }
}

impl Plan<Allreduce> {
    /// Values per rank this plan was built for.
    pub fn len(&self) -> usize {
        self.kind.len
    }

    /// True when the planned buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.kind.len == 0
    }

    /// The planned step-wise variant (meaningful on the ring schedule).
    pub fn variant(&self) -> AllreduceVariant {
        self.kind.variant
    }

    /// How many lanes — ranks per node that take part in the inter-node
    /// leg, each on its own slice — the hierarchical schedule runs
    /// with; `None` unless the plan is [`Algorithm::Hierarchical`]. The
    /// plan derives it from the cost model at creation; there is no
    /// setting for it.
    pub fn hier_lanes(&self) -> Option<usize> {
        (self.core.algorithm == Algorithm::Hierarchical).then_some(self.kind.lanes)
    }

    /// Whether the hierarchical schedule streams its two node-local
    /// group legs — the reduce to each group's owner and the fan-out
    /// from it — as chains of sub-chunks instead of whole-vector
    /// binomial trees; `None` unless the plan is
    /// [`Algorithm::Hierarchical`]. Derived from the cost model with
    /// [`hier_lanes`](Self::hier_lanes), never set.
    pub fn hier_streamed(&self) -> Option<bool> {
        (self.core.algorithm == Algorithm::Hierarchical).then_some(self.kind.streamed)
    }

    /// Values per PIPE-SZx sub-chunk of recursive doubling's rounds and
    /// fold: the session pipe, or two halves cut on SZx block boundaries
    /// when the vector is shorter than two pipes and the cost model
    /// prices the halves cheaper ([`ccoll_comm::CostModel::exchange_values`]);
    /// `None` unless the plan is [`Algorithm::RecursiveDoubling`] with a
    /// pipelined codec. Derived by the session, never set.
    pub fn exchange_values(&self) -> Option<usize> {
        let session = &self.core.session;
        let piped = matches!(session.placement(), Placement::Piped(_));
        (self.core.algorithm == Algorithm::RecursiveDoubling && piped)
            .then(|| session.exchange_values(self.kind.len))
    }
}

/// The state machine behind an allreduce plan.
#[derive(Debug)]
pub(crate) enum ArMachine {
    /// Ring reduce-scatter followed by ring allgather over the same
    /// partition (all four Table-V variants: the stages' modes carry the
    /// compression placement).
    Ring { rs: RingRs, ag: RingAg, in_ag: bool },
    /// Recursive doubling or Rabenseifner.
    Butterfly(Butterfly),
    /// Two-level topology-aware composition (row reduce-scatter × group
    /// reduce of a lane inside the node, per-lane Rabenseifner between
    /// nodes, and back out).
    Hier(HierAr),
}

impl Completes for Allreduce {
    type Output = ();
}

impl Kind for Allreduce {
    type Machine = ArMachine;

    const NAME: &'static str = "allreduce";

    const SCHEDULES: &'static [Row] = &[
        priced(Algorithm::Ring, Schedule::RingAllreduce),
        priced(
            Algorithm::RecursiveDoubling,
            Schedule::RecursiveDoublingAllreduce,
        ),
        priced(Algorithm::Rabenseifner, Schedule::RabenseifnerAllreduce),
        priced(Algorithm::Hierarchical, Schedule::HierarchicalAllreduce),
    ];

    const TUNING: Tuning = Tuning::Calibrate;

    fn priced_values(&self) -> usize {
        self.len
    }

    fn workspace(&mut self, session: &CCollSession, algorithm: Algorithm) -> CollWorkspace {
        let len = self.len;
        let piped = matches!(session.placement(), Placement::Piped(_));
        match algorithm {
            Algorithm::Ring => session.ring_workspace(len, self.ring_places(session).0),
            Algorithm::Rabenseifner if piped => session.pipelined_stream_workspace(len.max(1), len),
            // The hierarchical inter leg is a Rabenseifner per lane: its
            // pipelined halving rounds stream d/L values. On top of
            // those sub-chunk slots each of the two raw rings over a
            // row wants L−1: their sends are eager, so a member runs up
            // to L−2 steps ahead of a slow right neighbour, which holds
            // every one of those payloads until it reads it. The
            // one-lane shape (a whole-vector stream) is the floor, so a
            // plan never warms less than it used to — and that floor
            // covers the streamed group legs: the source end of a chain
            // has its whole stream, one slot per sub-chunk, in flight
            // (so does a raw plan's, whose pool is then warmed the same
            // way). Every leg that decodes into the scratch moves one
            // lane at most.
            Algorithm::Hierarchical if piped || self.streamed => {
                let lane = len.div_ceil(self.lanes);
                let laned = lane + 2 * (self.lanes - 1) * session.pipe_values();
                session.pipelined_stream_workspace(lane.max(1), len.max(laned))
            }
            Algorithm::Hierarchical => {
                session.warmed_workspace(len.max(1), 4 + 2 * (self.lanes - 1))
            }
            // Butterfly schedules exchange up to the full payload per
            // round (recursive doubling) or half of it (Rabenseifner).
            // Their streamed legs — the fold, the raw halving, recursive
            // doubling's rounds — use these slots, which grow once for
            // the sub-chunks beyond four.
            _ => session.warmed_workspace(len.max(1), 4),
        }
    }

    fn shrunk(&self, r: &Recovery) -> Result<Self, CollectiveError> {
        Ok(Self::new(r.session(), self.len, self.op, self.variant))
    }

    fn check_buffers(&self, _rank: usize, input: &[f32], out: &[f32]) {
        assert_eq!(input.len(), self.len, "input disagrees with plan length");
        assert_eq!(out.len(), self.len, "output disagrees with plan length");
    }

    fn out_len(&self, _rank: usize) -> usize {
        self.len
    }

    fn hier_lanes(&self) -> usize {
        self.lanes
    }

    fn machine(&mut self, core: &mut PlanCore, _rank: usize) -> ArMachine {
        let session = &core.session;
        let place = session.placement();
        match core.algorithm {
            Algorithm::RecursiveDoubling => {
                let cut = session.cut(place, Role::Exchange(self.len));
                ArMachine::Butterfly(Butterfly::recursive_doubling(place, cut))
            }
            Algorithm::Rabenseifner => {
                let cut = session.cut(place, Role::Hop);
                let relay = session.relays(place);
                ArMachine::Butterfly(Butterfly::rabenseifner(place, cut, relay))
            }
            // The hierarchical placement is that of the inter-node leg
            // every lane owner runs on its slice; node-local legs are
            // always raw (intra-node links don't pay for a codec).
            Algorithm::Hierarchical => ArMachine::Hier(HierAr::new(session, place, self.streamed)),
            _ => {
                let (rs, ag) = self.ring_places(session);
                ArMachine::Ring {
                    rs: RingRs::new(rs, session.cut(rs, Role::Hop)),
                    ag: RingAg::new(ag, session.cut(ag, Role::Relay), true),
                    in_ag: false,
                }
            }
        }
    }

    fn step<C: Comm>(
        &mut self,
        core: &mut PlanCore,
        machine: &mut ArMachine,
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
        let (cpr, op) = (session.cpr.as_ref(), self.op);
        match machine {
            ArMachine::Butterfly(b) => b.step(comm, cpr, op, input, out, ws, block),
            ArMachine::Hier(h) => {
                let groups = groups
                    .as_ref()
                    .expect("hierarchical plans build their groups at start");
                h.step(comm, cpr, op, groups, input, out, ws, block)
            }
            ArMachine::Ring { rs, ag, in_ag } => {
                if !*in_ag {
                    // The reduce-scatter stage caches the partition the
                    // allgather stage reads back out of the workspace,
                    // and accumulates in `out`: its reduced chunk is
                    // already where the allgather stage wants its own
                    // block (`mine = None`).
                    match rs.step(comm, cpr, op, Some(input), out, ws, block) {
                        Poll::Pending => return Poll::Pending,
                        Poll::Ready => *in_ag = true,
                    }
                }
                ag.step(comm, cpr, None, out, ws, block)
            }
        }
    }

    fn output(_: &ArMachine) {}
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    use ccoll_comm::{Cut, Kernel, SimConfig, SimWorld};
    use ccoll_compress::{CodecKind, CompressError, Compressor, ReduceKind, SzxCodec};

    use super::*;
    use crate::collectives::cpr_p2p::CprCodec;
    use crate::frameworks::computation::DEFAULT_PIPE_VALUES;
    use crate::partition::chunk_range;
    use crate::testing::assert_within;

    /// Deliberately divisible by no power of two above one.
    const LEN: usize = 3001;
    const EB: f32 = 1e-3;

    /// The session codec, counting the encodes it runs: the halving
    /// streams PIPE-SZx through a codec of its own, so what this counts
    /// are the finalized legs' encodes, as `(calls, values)`.
    struct Counting {
        szx: SzxCodec,
        calls: AtomicUsize,
        values: AtomicUsize,
    }

    impl Counting {
        fn take(&self) -> (usize, usize) {
            let calls = self.calls.swap(0, Ordering::Relaxed);
            (calls, self.values.swap(0, Ordering::Relaxed))
        }
    }

    impl Compressor for Counting {
        fn compress(&self, data: &[f32]) -> Result<Vec<u8>, CompressError> {
            let mut out = Vec::new();
            self.compress_into(data, &mut out)?;
            Ok(out)
        }

        fn decompress(&self, stream: &[u8]) -> Result<Vec<f32>, CompressError> {
            self.szx.decompress(stream)
        }

        fn compress_into(&self, data: &[f32], out: &mut Vec<u8>) -> Result<(), CompressError> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.values.fetch_add(data.len(), Ordering::Relaxed);
            self.szx.compress_into(data, out)
        }

        fn decompress_into(&self, stream: &[u8], out: &mut Vec<f32>) -> Result<(), CompressError> {
            self.szx.decompress_into(stream, out)
        }

        fn decompress_reduce_into(
            &self,
            stream: &[u8],
            op: ReduceKind,
            dst: &mut [f32],
            scratch: &mut Vec<f32>,
        ) -> Result<(), CompressError> {
            self.szx.decompress_reduce_into(stream, op, dst, scratch)
        }

        fn decompress_to(
            &self,
            stream: &[u8],
            dst: &mut [f32],
            scratch: &mut Vec<f32>,
        ) -> Result<(), CompressError> {
            self.szx.decompress_to(stream, dst, scratch)
        }

        fn max_compressed_bytes(&self, values: usize) -> usize {
            self.szx.max_compressed_bytes(values)
        }

        fn kind(&self) -> CodecKind {
            self.szx.kind()
        }
    }

    fn rank_data(rank: usize) -> Vec<f32> {
        (0..LEN)
            .map(|i| ((i * 7 + rank * 131) as f32 * 1e-3).sin() * 2.0)
            .collect()
    }

    /// A relaying Rabenseifner on 2–9 ranks, two executions on one
    /// workspace: each rank that survives the fold encodes its own
    /// reduced chunk and nothing else, once per execution (a folded-away
    /// rank encodes nothing), and every rank but a range's owner lands
    /// the same bits of it — the owner's one blob, decoded — within the
    /// sum's error bound.
    #[test]
    fn a_relayed_allgather_encodes_each_range_once_and_lands_the_same_bits() {
        for n in 2..=9 {
            let out = SimWorld::new(SimConfig::new(n)).run(move |c| {
                let counting = Arc::new(Counting {
                    szx: SzxCodec::new(EB),
                    calls: AtomicUsize::new(0),
                    values: AtomicUsize::new(0),
                });
                let (ck, dk) = (Kernel::SzxCompress, Kernel::SzxDecompress);
                let cpr = CprCodec::new(counting.clone(), ck, dk);
                let input = rank_data(c.rank());
                let (mut ws, mut out) = (CollWorkspace::new(), vec![0.0f32; LEN]);
                let mut encodes = Vec::new();
                for _ in 0..2 {
                    let cut = Cut::pipe(DEFAULT_PIPE_VALUES);
                    let mut machine = Butterfly::rabenseifner(Placement::Piped(EB), cut, true);
                    let poll = machine.step(
                        c,
                        Some(&cpr),
                        ReduceOp::Sum,
                        &input,
                        &mut out,
                        &mut ws,
                        true,
                    );
                    assert_eq!(poll, Poll::Ready);
                    encodes.push(counting.take());
                }
                (encodes, out)
            });
            let pow2 = 1 << n.ilog2();
            let rem = n - pow2;
            let mut exact = vec![0.0f32; LEN];
            for r in 0..n {
                ReduceOp::Sum.apply(&mut exact, &rank_data(r));
            }
            for (rank, (encodes, got)) in out.results.iter().enumerate() {
                let own = match rank {
                    r if r < 2 * rem && r % 2 == 0 => (0, 0),
                    r => {
                        let pos = if r < 2 * rem { r / 2 } else { r - rem };
                        (1, chunk_range(LEN, pow2, pos).len())
                    }
                };
                assert_eq!(encodes, &[own, own], "{n} ranks: rank {rank}'s encodes");
                assert_within(
                    got,
                    &exact,
                    n as f32 * EB,
                    &format!("{n} ranks: rank {rank}"),
                );
            }
            for p in 0..pow2 {
                let range = chunk_range(LEN, pow2, p);
                let owner = if p < rem { 2 * p + 1 } else { p + rem };
                let bits = |r: usize| -> Vec<u32> {
                    out.results[r].1[range.clone()]
                        .iter()
                        .map(|x| x.to_bits())
                        .collect()
                };
                let first = (0..n).find(|&r| r != owner).expect("two ranks at least");
                for r in (0..n).filter(|&r| r != owner) {
                    assert_eq!(bits(r), bits(first), "{n} ranks: chunk {p} on rank {r}");
                }
            }
        }
    }
}
