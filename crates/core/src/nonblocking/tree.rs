//! The binomial-tree rooted reduce.

use ccoll_comm::Comm;

use super::Poll;
use crate::collectives::cpr_p2p::CprCodec;
use crate::collectives::{memcpy_in, tags};
use crate::pipeline::{Land, Route, StreamCursor};
use crate::placement::Placement;
use crate::reduce::ReduceOp;
use crate::workspace::CollWorkspace;

#[derive(Debug, Clone, Copy)]
enum TreePhase {
    Init,
    Loop,
    SendParent,
    RecvChild,
    Final,
    DoneRoot,
    DoneLeaf,
}

/// Resumable binomial-tree rooted reduce. `step` returns
/// `Poll::Ready`; whether this rank is the root comes from
/// [`TreeReduce::is_root`] after completion. Every tree edge is one
/// [`Route::hop`] stream: `pipe`-value sub-chunks raw, PIPE-SZx
/// sub-chunks piped, one whole message at CPR-P2P.
///
/// A rank's accumulator is born from its first child's fold
/// (`acc = fold(input, received)`) and a rank without children sends
/// `input` itself. The root accumulates in its `out`; an interior rank
/// has no output and borrows the workspace accumulator.
#[derive(Debug)]
pub(crate) struct TreeReduce {
    place: Placement,
    /// Raw sub-chunk size (see [`Placement::stream`]).
    pipe: usize,
    root: usize,
    phase: TreePhase,
    mask: usize,
    /// The accumulator holds a fold (else this rank's value is `input`).
    born: bool,
    hop: StreamCursor,
}

impl TreeReduce {
    pub(crate) fn new(place: Placement, pipe: usize, root: usize) -> Self {
        TreeReduce {
            place,
            pipe,
            root,
            phase: TreePhase::Init,
            mask: 1,
            born: false,
            hop: StreamCursor::default(),
        }
    }

    /// True when this rank ended up holding the reduced result. Only
    /// meaningful after `step` returned `Poll::Ready`.
    pub(crate) fn is_root(&self) -> bool {
        matches!(self.phase, TreePhase::DoneRoot)
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn step<C: Comm>(
        &mut self,
        comm: &mut C,
        cpr: Option<&CprCodec>,
        op: ReduceOp,
        input: &[f32],
        out: &mut [f32],
        ws: &mut CollWorkspace,
        block: bool,
    ) -> Poll {
        let n = comm.size();
        assert!(self.root < n, "root {} out of range", self.root);
        let relative = (comm.rank() + n - self.root) % n;
        if relative == 0 {
            assert_eq!(out.len(), input.len(), "root output must hold the result");
            return self.run(comm, cpr, op, input, out, ws, block);
        }
        let mut acc = std::mem::take(&mut ws.acc);
        // A rank's first child, if it has any, is the next rank up.
        if relative.is_multiple_of(2) && relative + 1 < n {
            acc.resize(input.len(), 0.0);
        }
        let poll = self.run(comm, cpr, op, input, &mut acc, ws, block);
        ws.acc = acc;
        poll
    }

    /// [`TreeReduce::step`] over this rank's accumulator (untouched, and
    /// possibly empty, on a rank without children).
    #[allow(clippy::too_many_arguments)]
    fn run<C: Comm>(
        &mut self,
        comm: &mut C,
        cpr: Option<&CprCodec>,
        op: ReduceOp,
        input: &[f32],
        acc: &mut [f32],
        ws: &mut CollWorkspace,
        block: bool,
    ) -> Poll {
        let n = comm.size();
        let me = comm.rank();
        let relative = (me + n - self.root) % n;
        let tag = tags::TREE_REDUCE + self.place.band();
        let stream = self.place.stream(cpr, self.pipe);
        loop {
            match self.phase {
                TreePhase::Init => {
                    self.mask = 1;
                    self.born = false;
                    self.phase = TreePhase::Loop;
                }
                TreePhase::Loop => {
                    if self.mask >= n {
                        self.phase = TreePhase::Final;
                    } else if relative & self.mask != 0 {
                        self.phase = TreePhase::SendParent;
                    } else if relative + self.mask < n {
                        self.phase = TreePhase::RecvChild;
                    } else {
                        self.mask <<= 1;
                    }
                }
                TreePhase::SendParent => {
                    let to = (relative - self.mask + self.root) % n;
                    let src = if self.born { &*acc } else { input };
                    let route = Route::hop(stream, tag, Some((src, to)), None);
                    let poll = self.hop.step(comm, route, &mut [], &mut ws.pipe(), block);
                    if poll == Poll::Pending {
                        return Poll::Pending;
                    }
                    self.phase = TreePhase::DoneLeaf;
                }
                TreePhase::RecvChild => {
                    let from = (relative + self.mask + self.root) % n;
                    let land = Land::Fold(op, (!self.born).then_some(input));
                    let route = Route::hop(stream, tag, None, Some((from, land)));
                    let poll = self.hop.step(comm, route, acc, &mut ws.pipe(), block);
                    if poll == Poll::Pending {
                        return Poll::Pending;
                    }
                    self.born = true;
                    self.mask <<= 1;
                    self.phase = TreePhase::Loop;
                }
                // Only the root gets here; its accumulator is `out`.
                TreePhase::Final => {
                    if !self.born {
                        // One rank: no fold to be born from.
                        memcpy_in(comm, acc, input);
                    }
                    op.finalize(acc, n);
                    self.phase = TreePhase::DoneRoot;
                }
                TreePhase::DoneRoot | TreePhase::DoneLeaf => return Poll::Ready,
            }
        }
    }
}
