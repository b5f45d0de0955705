//! The binomial trees of the data-movement framework: broadcast,
//! scatter and gather.

use ccoll_comm::{Category, Comm};

use super::{next_arrival, post, retire_sends, Poll};
use crate::collectives::cpr_p2p::CprCodec;
use crate::collectives::tags;
use crate::pipeline::{tree_pos, Land, Route, StreamCursor, WHOLE};
use crate::placement::{Link, Placement};
use crate::workspace::CollWorkspace;

/// Resumable binomial-tree broadcast, in one of three shapes:
///
/// * **streamed** (`Placement::Once`) — the compress-once C-Bcast. The
///   payload travels as independent `pipe`-value sub-chunk streams
///   along one [`Route::tree`] (root: encode ∥ fan-out; interior:
///   relay, then decode; leaf: decode as chunks arrive), all on one
///   tag. A payload of at most one sub-chunk is a single whole-payload
///   message.
/// * **raw** — the same [`Route::tree`] with the whole payload as one
///   uncompressed sub-chunk: one message per tree edge, relayed before
///   it lands. Deliberately not cut into sub-chunks: its root is
///   egress-bound either way.
/// * **CPR-P2P** — every tree edge one whole-message [`Route::hop`]:
///   each rank lands what its parent sent and re-compresses it for
///   *each* child, `log₂N · (T_comp + T_decomp)` on the critical path
///   (the Fig. 3 left-hand timeline).
#[derive(Debug)]
pub(crate) struct Bcast {
    place: Placement,
    /// Sub-chunk size of the streamed shape (the others ignore it).
    pipe: usize,
    root: usize,
    stream: StreamCursor,
    /// The CPR-P2P shape's tree edges done: the receive from the parent
    /// (the root's own data), then one per child bit, largest first.
    edge: u32,
}

impl Bcast {
    pub(crate) fn new(place: Placement, pipe: usize, root: usize) -> Self {
        Bcast {
            place: place.movement(true, "binomial bcast"),
            pipe,
            root,
            stream: StreamCursor::default(),
            edge: 0,
        }
    }

    /// Drive the broadcast. On the root an empty `data` means `out` is
    /// already the source; otherwise `data` is copied in.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn step<C: Comm>(
        &mut self,
        comm: &mut C,
        cpr: Option<&CprCodec>,
        data: &[f32],
        out: &mut [f32],
        ws: &mut CollWorkspace,
        block: bool,
    ) -> Poll {
        let tag = tags::BCAST + self.place.band();
        let root = comm.rank() == self.root;
        assert!(
            !root || data.is_empty() || data.len() == out.len(),
            "root data disagrees with plan length"
        );
        let link = self.place.link(cpr);
        if !matches!(link, Link::Cpr(_)) {
            // The root streams `data` and takes its bits once it is out.
            let pipe = if matches!(link, Link::Once(_)) {
                self.pipe
            } else {
                WHOLE
            };
            let route = Route::tree(comm, (link, pipe), tag, self.root, data);
            let poll = self.stream.step(comm, route, out, &mut ws.pipe(), block);
            if root && !data.is_empty() && poll.is_ready() {
                out.copy_from_slice(data);
            }
            return poll;
        }
        let (n, relative, span) = tree_pos(comm, self.root);
        let stream = (link, WHOLE);
        loop {
            let mask = span >> self.edge;
            if mask == 0 {
                return Poll::Ready;
            }
            let poll = if self.edge == 0 && root {
                if !data.is_empty() {
                    out.copy_from_slice(data);
                }
                Poll::Ready
            } else if self.edge == 0 {
                let parent = (relative - span + self.root) % n;
                let route = Route::hop(stream, tag, None, Some((parent, Land::Store)));
                self.stream.step(comm, route, out, &mut ws.pipe(), block)
            } else if relative + mask < n {
                // Re-compressed for every child (the per-hop waste).
                let child = (relative + mask + self.root) % n;
                let route = Route::hop(stream, tag, Some((&*out, child)), None);
                self.stream
                    .step(comm, route, &mut [], &mut ws.pipe(), block)
            } else {
                Poll::Ready
            };
            if poll == Poll::Pending {
                return Poll::Pending;
            }
            self.edge += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Binomial-tree scatter.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum ScPhase {
    Init,
    RecvWait,
    Forward,
    ForwardWait,
    Final,
    Done,
}

/// Resumable binomial-tree scatter of the balanced partition. Raw and
/// CPR-P2P ranks hold their subtree's values and pack each child's
/// portion as they forward it (CPR-P2P decompressing the received block
/// and re-compressing every portion); compress-once forwards framed
/// segment sets the root compressed one by one.
#[derive(Debug)]
pub(crate) struct Scatter {
    place: Placement,
    root: usize,
    total_len: usize,
    phase: ScPhase,
    span: usize,
    m: usize,
}

impl Scatter {
    pub(crate) fn new(place: Placement, root: usize, total_len: usize) -> Self {
        Scatter {
            place: place.movement(true, "binomial scatter"),
            root,
            total_len,
            phase: ScPhase::Init,
            span: 0,
            m: 0,
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn step<C: Comm>(
        &mut self,
        comm: &mut C,
        cpr: Option<&CprCodec>,
        data: &[f32],
        out: &mut [f32],
        ws: &mut CollWorkspace,
        block: bool,
    ) -> Poll {
        let n = comm.size();
        let me = comm.rank();
        let relative = (me + n - self.root) % n;
        let link = self.place.link(cpr);
        let once = matches!(link, Link::Once(_));
        let tag = tags::SCATTER + self.place.band();
        loop {
            match self.phase {
                ScPhase::Init => {
                    assert!(self.root < n, "root {} out of range", self.root);
                    ws.set_partition(self.total_len, n);
                    assert_eq!(out.len(), ws.counts[me], "output must hold my chunk");
                    if me == self.root {
                        assert_eq!(
                            data.len(),
                            self.total_len,
                            "root buffer must hold all chunks"
                        );
                        ws.blob_list.clear();
                        ws.stage.clear();
                        for a in (0..n).map(|i| (self.root + i) % n) {
                            let seg = &data[ws.chunk(a)];
                            if once {
                                let blob = link.pack(comm, seg, &mut ws.pool);
                                ws.blob_list.push(blob);
                            } else {
                                ws.stage.extend_from_slice(seg);
                            }
                        }
                        self.span = n;
                        self.m = n.next_power_of_two() / 2;
                        self.phase = ScPhase::Forward;
                    } else {
                        let lowbit = relative & relative.wrapping_neg();
                        let src = (relative - lowbit + self.root) % n;
                        self.span = lowbit.min(n - relative);
                        self.m = lowbit / 2;
                        post(comm, ws, tag, Some(src), None);
                        self.phase = ScPhase::RecvWait;
                    }
                }
                ScPhase::RecvWait => {
                    let Some(got) = next_arrival(comm, &mut ws.rreqs, block, Category::Others)
                    else {
                        return Poll::Pending;
                    };
                    if once {
                        let held = &mut ws.blob_list;
                        crate::wire::unframe_blobs_into(&got, held)
                            .expect("well-formed scatter container");
                        assert_eq!(
                            held.len(),
                            self.span,
                            "scatter container segment count mismatch"
                        );
                    } else {
                        // The whole subtree block, staged for the
                        // forward phase.
                        let expect: usize = (relative..relative + self.span)
                            .map(|i| ws.counts[(self.root + i) % n])
                            .sum();
                        ws.stage.resize(expect, 0.0);
                        link.land(comm, &got, &mut ws.stage, &mut ws.scratch);
                    }
                    self.phase = ScPhase::Forward;
                }
                ScPhase::Forward => {
                    if self.m == 0 {
                        self.phase = ScPhase::Final;
                        continue;
                    }
                    if self.m < self.span {
                        let child_rel = relative + self.m;
                        let dst = (child_rel + self.root) % n;
                        let payload = if once {
                            let CollWorkspace {
                                pool,
                                blob_list: held,
                                ..
                            } = ws;
                            let container = crate::wire::frame_blobs_pooled(pool, &held[self.m..]);
                            held.truncate(self.m);
                            container
                        } else {
                            let keep_vals: usize = (relative..child_rel)
                                .map(|i| ws.counts[(self.root + i) % n])
                                .sum();
                            let payload = link.pack(comm, &ws.stage[keep_vals..], &mut ws.pool);
                            ws.stage.truncate(keep_vals);
                            payload
                        };
                        post(comm, ws, tag, None, Some((dst, payload)));
                        self.span = self.m;
                        self.phase = ScPhase::ForwardWait;
                        continue;
                    }
                    self.m /= 2;
                }
                ScPhase::ForwardWait => {
                    if !retire_sends(comm, &mut ws.sreqs, block, Category::Wait) {
                        return Poll::Pending;
                    }
                    self.m /= 2;
                    self.phase = ScPhase::Forward;
                }
                ScPhase::Final => {
                    if !once {
                        out.copy_from_slice(&ws.stage[..ws.counts[me]]);
                    } else if me == self.root {
                        // The root never lost precision, and has
                        // nothing to decode.
                        out.copy_from_slice(&data[ws.chunk(me)]);
                    } else {
                        link.unpack(comm, &ws.blob_list[0], out, &mut ws.scratch);
                    }
                    self.phase = ScPhase::Done;
                }
                ScPhase::Done => return Poll::Ready,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Binomial-tree gather.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum GaPhase {
    Init,
    Loop,
    RecvWait,
    SendWait,
    Final,
    DoneRoot,
    DoneLeaf,
}

/// Resumable binomial-tree gather of the balanced partition, raw or
/// compress-once (relaying framed segments each rank compressed once).
#[derive(Debug)]
pub(crate) struct Gather {
    place: Placement,
    root: usize,
    total_len: usize,
    phase: GaPhase,
    mask: usize,
}

impl Gather {
    pub(crate) fn new(place: Placement, root: usize, total_len: usize) -> Self {
        Gather {
            place: place.movement(false, "binomial gather"),
            root,
            total_len,
            phase: GaPhase::Init,
            mask: 1,
        }
    }

    /// True when this rank holds the gathered buffer (root only).
    pub(crate) fn is_root(&self) -> bool {
        matches!(self.phase, GaPhase::DoneRoot)
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn step<C: Comm>(
        &mut self,
        comm: &mut C,
        cpr: Option<&CprCodec>,
        mine: &[f32],
        out: &mut [f32],
        ws: &mut CollWorkspace,
        block: bool,
    ) -> Poll {
        let n = comm.size();
        let me = comm.rank();
        let relative = (me + n - self.root) % n;
        let link = self.place.link(cpr);
        let once = matches!(link, Link::Once(_));
        let tag = tags::GATHER + self.place.band();
        loop {
            match self.phase {
                GaPhase::Init => {
                    assert!(self.root < n, "root {} out of range", self.root);
                    ws.set_partition(self.total_len, n);
                    assert_eq!(
                        mine.len(),
                        ws.counts[me],
                        "my chunk disagrees with partition"
                    );
                    if once {
                        ws.blob_list.clear();
                        let blob = link.pack(comm, mine, &mut ws.pool);
                        ws.blob_list.push(blob);
                    } else {
                        let held = &mut ws.stage;
                        held.clear();
                        held.extend_from_slice(mine);
                    }
                    self.mask = 1;
                    self.phase = GaPhase::Loop;
                }
                GaPhase::Loop => {
                    if self.mask >= n {
                        self.phase = GaPhase::Final;
                        continue;
                    }
                    if relative & self.mask != 0 {
                        let parent = (relative - self.mask + self.root) % n;
                        let payload = if once {
                            crate::wire::frame_blobs_pooled(&mut ws.pool, &ws.blob_list)
                        } else {
                            link.pack(comm, &ws.stage, &mut ws.pool)
                        };
                        post(comm, ws, tag, None, Some((parent, payload)));
                        self.phase = GaPhase::SendWait;
                        continue;
                    }
                    let child_rel = relative + self.mask;
                    if child_rel < n {
                        post(comm, ws, tag, Some((child_rel + self.root) % n), None);
                        self.phase = GaPhase::RecvWait;
                        continue;
                    }
                    self.mask <<= 1;
                }
                GaPhase::RecvWait => {
                    let Some(got) = next_arrival(comm, &mut ws.rreqs, block, Category::Others)
                    else {
                        return Poll::Pending;
                    };
                    let child_rel = relative + self.mask;
                    let child_span = self.mask.min(n - child_rel);
                    if once {
                        crate::wire::unframe_blobs_append(&got, &mut ws.blob_list)
                            .expect("well-formed gather container");
                    } else {
                        let expect: usize = (child_rel..child_rel + child_span)
                            .map(|i| ws.counts[(self.root + i) % n])
                            .sum();
                        let at = ws.stage.len();
                        ws.stage.resize(at + expect, 0.0);
                        link.land(comm, &got, &mut ws.stage[at..], &mut ws.scratch);
                    }
                    self.mask <<= 1;
                    self.phase = GaPhase::Loop;
                }
                GaPhase::SendWait => {
                    if !retire_sends(comm, &mut ws.sreqs, block, Category::Wait) {
                        return Poll::Pending;
                    }
                    self.phase = GaPhase::DoneLeaf;
                }
                GaPhase::Final => {
                    assert_eq!(
                        out.len(),
                        self.total_len,
                        "root output must hold all chunks"
                    );
                    if once {
                        for i in 0..ws.blob_list.len() {
                            let a = (self.root + i) % n;
                            let dst = &mut out[ws.chunk(a)];
                            if a == me {
                                dst.copy_from_slice(mine); // the root's own chunk stays lossless
                            } else {
                                link.unpack(comm, &ws.blob_list[i], dst, &mut ws.scratch);
                            }
                        }
                    } else {
                        let mut from = 0;
                        for i in 0..n {
                            let at = ws.chunk((self.root + i) % n);
                            out[at.clone()].copy_from_slice(&ws.stage[from..from + at.len()]);
                            from += at.len();
                        }
                    }
                    self.phase = GaPhase::DoneRoot;
                }
                GaPhase::DoneRoot | GaPhase::DoneLeaf => return Poll::Ready,
            }
        }
    }
}
