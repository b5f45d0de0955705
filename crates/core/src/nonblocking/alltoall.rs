//! The pairwise all-to-all.

use bytes::Bytes;
use ccoll_comm::{Category, Comm, Tag};

use super::{exchange, post, Poll};
use crate::collectives::cpr_p2p::CprCodec;
use crate::collectives::{memcpy_in, tags};
use crate::placement::{Link, Placement};
use crate::workspace::CollWorkspace;

#[derive(Debug, Clone, Copy)]
enum A2aPhase {
    Init,
    OwnCopy,
    Round,
    Exchange,
    Done,
}

/// Resumable pairwise all-to-all. Raw and CPR-P2P pack each outgoing
/// block in its round and unpack each incoming one (blocks travel a
/// single hop, so CPR-P2P's deficiencies here are the per-call buffer
/// overhead); compress-once compresses every outgoing block up front, so
/// its rounds only move payloads, each carrying its own length.
#[derive(Debug)]
pub(crate) struct Alltoall {
    place: Placement,
    phase: A2aPhase,
    i: usize,
    /// A round's payload, held while its send retires.
    stash: Option<Bytes>,
}

impl Alltoall {
    pub(crate) fn new(place: Placement) -> Self {
        Alltoall {
            place: place.movement(true, "pairwise all-to-all"),
            phase: A2aPhase::Init,
            i: 1,
            stash: None,
        }
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
        let block_len = send.len() / n;
        let blk = |r: usize| r * block_len..(r + 1) * block_len;
        let link = self.place.link(cpr);
        let once = matches!(link, Link::Once(_));
        // Compress-once rounds are the allgather-like relay share.
        let cat = if once {
            Category::Allgather
        } else {
            Category::Wait
        };
        loop {
            match self.phase {
                A2aPhase::Init => {
                    assert!(
                        send.len().is_multiple_of(n),
                        "all-to-all buffer ({}) must divide evenly across {n} ranks",
                        send.len()
                    );
                    assert_eq!(out.len(), send.len(), "output buffer size mismatch");
                    self.i = 1;
                    self.phase = A2aPhase::OwnCopy;
                    if once {
                        ws.blob_list.clear();
                        for to in 0..n {
                            let blob = if to == me {
                                Bytes::new()
                            } else {
                                link.pack(comm, &send[blk(to)], &mut ws.pool)
                            };
                            ws.blob_list.push(blob);
                        }
                    }
                }
                A2aPhase::OwnCopy => {
                    memcpy_in(comm, &mut out[blk(me)], &send[blk(me)]);
                    self.phase = A2aPhase::Round;
                }
                A2aPhase::Round => {
                    if self.i == n || n == 1 {
                        self.phase = A2aPhase::Done;
                        continue;
                    }
                    let to = (me + self.i) % n;
                    let from = (me + n - self.i) % n;
                    let tag = tags::ALLTOALL + self.place.band() + self.i as Tag;
                    let payload = if once {
                        ws.blob_list[to].clone()
                    } else {
                        link.pack(comm, &send[blk(to)], &mut ws.pool)
                    };
                    post(comm, ws, tag, Some(from), Some((to, payload)));
                    self.phase = A2aPhase::Exchange;
                }
                A2aPhase::Exchange => {
                    let Some(got) = exchange(comm, ws, &mut self.stash, block, (cat, cat)) else {
                        return Poll::Pending;
                    };
                    let from = (me + n - self.i) % n;
                    link.unpack(comm, &got, &mut out[blk(from)], &mut ws.scratch);
                    self.i += 1;
                    self.phase = A2aPhase::Round;
                }
                A2aPhase::Done => return Poll::Ready,
            }
        }
    }
}
