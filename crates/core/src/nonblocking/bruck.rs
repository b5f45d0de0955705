//! The Bruck schedules: the allgather and the all-to-all, each
//! relaying compress-once blocks as framed containers.

use bytes::Bytes;
use ccoll_comm::{Category, Comm, Tag};

use super::{exchange, post, Poll};
use crate::collectives::cpr_p2p::CprCodec;
use crate::collectives::{memcpy_in, tags};
use crate::placement::{Link, Placement};
use crate::workspace::CollWorkspace;

#[derive(Debug, Clone, Copy)]
enum BkPhase {
    Init,
    Round,
    Exchange,
    Tail,
    Done,
}

/// Resumable Bruck allgather, raw or compress-once (relaying framed
/// block sets, decoding the held ones while a round is in flight).
#[derive(Debug)]
pub(crate) struct BruckAg {
    place: Placement,
    phase: BkPhase,
    /// Blocks held so far, in relative order.
    held: usize,
    /// Decode cursor (compress-once overlap).
    decoded: usize,
    step_no: Tag,
    /// A round's container, held while its send retires.
    stash: Option<Bytes>,
}

impl BruckAg {
    pub(crate) fn new(place: Placement) -> Self {
        BruckAg {
            place: place.movement(false, "Bruck allgather"),
            phase: BkPhase::Init,
            held: 1,
            decoded: 1,
            step_no: 0,
            stash: None,
        }
    }

    /// Decode every held block not yet landed in `out` (compress-once).
    fn decode_held<C: Comm>(
        &mut self,
        comm: &mut C,
        link: Link<'_>,
        out: &mut [f32],
        ws: &mut CollWorkspace,
    ) {
        let (n, me) = (comm.size(), comm.rank());
        while self.decoded < ws.blob_list.len() {
            let at = ws.chunk((me + self.decoded) % n);
            let blob = &ws.blob_list[self.decoded];
            link.unpack(comm, blob, &mut out[at], &mut ws.scratch);
            self.decoded += 1;
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn step<C: Comm>(
        &mut self,
        comm: &mut C,
        cpr: Option<&CprCodec>,
        mine: &[f32],
        counts_in: &[usize],
        out: &mut [f32],
        ws: &mut CollWorkspace,
        block: bool,
    ) -> Poll {
        let n = comm.size();
        let me = comm.rank();
        let link = self.place.link(cpr);
        let once = matches!(link, Link::Once(_));
        loop {
            match self.phase {
                BkPhase::Init => {
                    ws.set_partition_from_counts(counts_in);
                    self.held = 1;
                    self.decoded = 1;
                    self.step_no = 0;
                    if once {
                        ws.blob_list.clear();
                        let blob = link.pack(comm, mine, &mut ws.pool);
                        ws.blob_list.push(blob);
                        memcpy_in(comm, &mut out[ws.chunk(me)], mine);
                    } else {
                        let hold = &mut ws.acc;
                        hold.clear();
                        hold.extend_from_slice(mine);
                    }
                    self.phase = BkPhase::Round;
                }
                BkPhase::Round => {
                    if self.held >= n {
                        self.phase = BkPhase::Tail;
                        continue;
                    }
                    let dist = self.held; // always a power of two
                    let send_cnt = dist.min(n - dist);
                    let to = (me + n - dist) % n;
                    let from = (me + dist) % n;
                    let tag = tags::BRUCK + self.place.band() + self.step_no;
                    let payload = if once {
                        crate::wire::frame_blobs_pooled(&mut ws.pool, &ws.blob_list[..send_cnt])
                    } else {
                        let send_vals: usize = (0..send_cnt).map(|i| ws.counts[(me + i) % n]).sum();
                        link.pack(comm, &ws.acc[..send_vals], &mut ws.pool)
                    };
                    post(comm, ws, tag, Some(from), Some((to, payload)));
                    // Decompress blocks gathered in earlier steps while
                    // this step's containers are in flight.
                    if once {
                        self.decode_held(comm, link, out, ws);
                    }
                    self.phase = BkPhase::Exchange;
                }
                BkPhase::Exchange => {
                    let cats = (Category::Allgather, Category::Allgather);
                    let Some(got) = exchange(comm, ws, &mut self.stash, block, cats) else {
                        return Poll::Pending;
                    };
                    let dist = self.held;
                    let send_cnt = dist.min(n - dist);
                    if once {
                        let held = &mut ws.blob_list;
                        crate::wire::unframe_blobs_append(&got, held)
                            .expect("well-formed Bruck container");
                        assert_eq!(
                            held.len(),
                            dist + send_cnt,
                            "Bruck step block count mismatch"
                        );
                    } else {
                        let src = (me + dist) % n;
                        let recv_vals: usize =
                            (0..send_cnt).map(|i| ws.counts[(src + i) % n]).sum();
                        let at = ws.acc.len();
                        ws.acc.resize(at + recv_vals, 0.0);
                        link.unpack(comm, &got, &mut ws.acc[at..], &mut ws.scratch);
                    }
                    self.held += send_cnt;
                    self.step_no += 1;
                    self.phase = BkPhase::Round;
                }
                BkPhase::Tail => {
                    if once {
                        self.decode_held(comm, link, out, ws);
                        // Release the containers before the next call
                        // reuses the pool.
                        ws.blob_list.clear();
                    } else {
                        let mut from = 0;
                        for i in 0..n {
                            let at = ws.chunk((me + i) % n);
                            let hold = &ws.acc[from..from + at.len()];
                            from += at.len();
                            memcpy_in(comm, &mut out[at], hold);
                        }
                    }
                    self.phase = BkPhase::Done;
                }
                BkPhase::Done => return Poll::Ready,
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum BkA2aPhase {
    Init,
    Round,
    Exchange,
    Tail,
    Done,
}

/// Resumable Bruck all-to-all: a local rotation, ⌈log₂n⌉ doubling
/// rounds each forwarding the blocks whose index has the round bit set
/// (to `me + 2ᵏ`, from `me − 2ᵏ`), and an inverse rotation into `out`.
/// Compress-once compresses every outgoing block once up front; blocks
/// are *re-forwarded as blobs* without recoding (framed containers), and
/// decoded exactly once at the tail.
#[derive(Debug)]
pub(crate) struct BruckA2a {
    place: Placement,
    phase: BkA2aPhase,
    /// Current round's bit value (1, 2, 4, …).
    v: usize,
    /// Round ordinal, for per-round tags.
    round_no: Tag,
    /// A round's container, held while its send retires.
    stash: Option<Bytes>,
}

impl BruckA2a {
    pub(crate) fn new(place: Placement) -> Self {
        BruckA2a {
            place: place.movement(false, "Bruck all-to-all"),
            phase: BkA2aPhase::Init,
            v: 1,
            round_no: 0,
            stash: None,
        }
    }

    /// Round tags live in the `BRUCK + 0x400` (raw) / `+ 0x600`
    /// (compress-once) sub-bands, disjoint from the Bruck allgather's
    /// `+ step` and `+ 0xC00 + step` bands.
    fn tag(&self) -> Tag {
        let once = matches!(self.place, Placement::Once);
        tags::BRUCK + if once { 0x600 } else { 0x400 } + self.round_no
    }

    pub(crate) fn step<C: Comm>(
        &mut self,
        comm: &mut C,
        cpr: Option<&CprCodec>,
        send: &[f32],
        out: &mut [f32],
        ws: &mut CollWorkspace,
        block: bool,
    ) -> Poll {
        let n = comm.size();
        let me = comm.rank();
        let b = send.len() / n;
        let link = self.place.link(cpr);
        let once = matches!(link, Link::Once(_));
        loop {
            match self.phase {
                BkA2aPhase::Init => {
                    assert_eq!(out.len(), send.len(), "output buffer size mismatch");
                    self.v = 1;
                    self.round_no = 0;
                    // Rotation: staged slot `i` holds the block destined
                    // for rank `(me + i) % n`.
                    ws.stage.resize(n * b, 0.0);
                    for i in 0..n {
                        let src = ((me + i) % n) * b;
                        let CollWorkspace { stage, .. } = ws;
                        memcpy_in(comm, &mut stage[i * b..(i + 1) * b], &send[src..src + b]);
                    }
                    if once {
                        ws.blobs.clear();
                        ws.blobs.resize(n, None);
                        let CollWorkspace {
                            pool, blobs, stage, ..
                        } = ws;
                        for (i, slot) in blobs.iter_mut().enumerate().skip(1) {
                            *slot = Some(link.pack(comm, &stage[i * b..(i + 1) * b], pool));
                        }
                    }
                    self.phase = if n > 1 {
                        BkA2aPhase::Round
                    } else {
                        BkA2aPhase::Tail
                    };
                }
                BkA2aPhase::Round => {
                    if self.v >= n {
                        self.phase = BkA2aPhase::Tail;
                        continue;
                    }
                    let to = (me + self.v) % n;
                    let from = (me + n - self.v) % n;
                    let payload = if once {
                        let CollWorkspace {
                            pool,
                            blobs,
                            blob_list,
                            ..
                        } = ws;
                        blob_list.clear();
                        for (i, slot) in blobs.iter().enumerate() {
                            if i & self.v != 0 {
                                blob_list.push(slot.clone().expect("forwarded slot holds a blob"));
                            }
                        }
                        crate::wire::frame_blobs_pooled(pool, blob_list)
                    } else {
                        let m: usize = (0..n).filter(|i| i & self.v != 0).count();
                        ws.acc.resize(m * b, 0.0);
                        let CollWorkspace { acc, stage, .. } = ws;
                        let mut at = 0;
                        for i in 0..n {
                            if i & self.v != 0 {
                                memcpy_in(comm, &mut acc[at..at + b], &stage[i * b..(i + 1) * b]);
                                at += b;
                            }
                        }
                        link.pack(comm, &ws.acc, &mut ws.pool)
                    };
                    post(comm, ws, self.tag(), Some(from), Some((to, payload)));
                    self.phase = BkA2aPhase::Exchange;
                }
                BkA2aPhase::Exchange => {
                    let cats = (Category::Allgather, Category::Wait);
                    let Some(got) = exchange(comm, ws, &mut self.stash, block, cats) else {
                        return Poll::Pending;
                    };
                    if once {
                        crate::wire::unframe_blobs_into(&got, &mut ws.blob_list)
                            .expect("well-formed Bruck container");
                        let CollWorkspace {
                            blobs, blob_list, ..
                        } = ws;
                        let mut at = 0;
                        for (i, slot) in blobs.iter_mut().enumerate() {
                            if i & self.v != 0 {
                                *slot = Some(blob_list[at].clone());
                                at += 1;
                            }
                        }
                        assert_eq!(at, blob_list.len(), "Bruck container block count");
                    } else {
                        let m: usize = (0..n).filter(|i| i & self.v != 0).count();
                        ws.acc.resize(m * b, 0.0);
                        link.unpack(comm, &got, &mut ws.acc, &mut ws.scratch);
                        let CollWorkspace { acc, stage, .. } = ws;
                        let mut at = 0;
                        for i in 0..n {
                            if i & self.v != 0 {
                                memcpy_in(comm, &mut stage[i * b..(i + 1) * b], &acc[at..at + b]);
                                at += b;
                            }
                        }
                    }
                    self.v <<= 1;
                    self.round_no += 1;
                    self.phase = BkA2aPhase::Round;
                }
                // Inverse rotation: slot `i` holds the block *from*
                // rank `(me − i) % n`.
                BkA2aPhase::Tail => {
                    for i in 0..n {
                        let src = (me + n - i) % n;
                        let dst = &mut out[src * b..(src + 1) * b];
                        if once && i != 0 {
                            let blob = ws.blobs[i].take().expect("tail slot holds a blob");
                            link.unpack(comm, &blob, dst, &mut ws.scratch);
                        } else {
                            memcpy_in(comm, dst, &ws.stage[i * b..(i + 1) * b]);
                        }
                    }
                    self.phase = BkA2aPhase::Done;
                }
                BkA2aPhase::Done => return Poll::Ready,
            }
        }
    }
}
