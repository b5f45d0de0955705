//! The collective data-movement framework (paper §III-A1).
//!
//! Key ideas, mapped to the paper's description of C-Allgather:
//!
//! 1. *"At the beginning, every process compresses its local data and
//!    stores the compressed data size"* — one compression per rank, ever.
//! 2. *"Every process synchronizes with each other to collect the
//!    compressed data sizes in a local integer array. As the compressed
//!    data size only has four bytes, this step is very fast"* — a 4-byte
//!    ring size-exchange.
//! 3. The ring then relays **opaque compressed bytes**; because sizes are
//!    known up front, every rank's schedule is fixed and balanced (no
//!    data-dependent stalls from re-compression).
//! 4. *"After all communications end, every process starts to decompress
//!    all the received compressed data … they do not need to decompress
//!    the data that are compressed by themselves"*.
//!
//! C-Bcast compresses once at the root, relays compressed bytes down the
//! binomial tree and decompresses once at every non-root — and, since
//! the three stages touch disjoint resources (the root's core, the
//! links, the receivers' cores), it runs them **streamed**: the payload
//! travels as independent PIPE-sized sub-chunk streams through one
//! `RelayCursor` (`crate::pipeline`), so the root's encode, the tree's
//! relays and every rank's decode overlap and a broadcast costs about
//! `max(encode, fan-out)` instead of `encode + fan-out + decode`.
//! C-Scatter compresses each destination segment once at the root and
//! forwards framed segment sets down the tree, so each leaf
//! decompresses exactly its own segment; it and the ring allgather keep
//! their whole-block messages.

use bytes::Bytes;
use ccoll_comm::{Category, Comm, Tag};

use crate::collectives::baseline::binomial_bcast_bytes;
use crate::collectives::cpr_p2p::CprCodec;
use crate::collectives::{compress_in, memcpy_in, tags};
use crate::frameworks::computation::DEFAULT_PIPE_VALUES;
use crate::frameworks::decompress_auto_in;
use crate::partition::chunk_lengths;
use crate::pipeline::{PipeBufs, RelayCursor};
use crate::wire::{frame_blobs_pooled, unframe_blobs, unframe_blobs_into};
use crate::workspace::CollWorkspace;

/// Exchange one `u32` per rank around the ring (the compressed-size
/// synchronization step), writing every rank's value into the reusable
/// `sizes` table.
fn exchange_sizes_raw<C: Comm>(
    comm: &mut C,
    mine: u32,
    pool: &mut ccoll_comm::PayloadPool,
    sizes: &mut Vec<u32>,
) {
    let n = comm.size();
    let me = comm.rank();
    sizes.clear();
    sizes.resize(n, 0);
    sizes[me] = mine;
    if n == 1 {
        return;
    }
    let right = (me + 1) % n;
    let left = (me + n - 1) % n;
    for k in 0..n - 1 {
        let send_idx = (me + n - k) % n;
        let recv_idx = (me + n - 1 - k) % n;
        let tag = tags::SIZE_EXCHANGE + k as Tag;
        let payload = pool.write(&sizes[send_idx].to_le_bytes());
        let got = comm.sendrecv(right, left, tag, payload, Category::Others);
        sizes[recv_idx] = u32::from_le_bytes(got[0..4].try_into().expect("4-byte size"));
    }
}

/// C-Allgather with per-rank value counts: compress once, relay
/// compressed blocks around the ring, decompress everything at the end.
/// Returns the concatenation in rank order.
pub fn c_ring_allgatherv<C: Comm>(
    comm: &mut C,
    cpr: &CprCodec,
    mine: &[f32],
    counts: &[usize],
) -> Vec<f32> {
    let mut out = vec![0.0f32; counts.iter().sum()];
    let mut ws = CollWorkspace::with_value_capacity(counts.iter().copied().max().unwrap_or(0));
    c_ring_allgatherv_into(comm, cpr, mine, counts, &mut out, &mut ws);
    out
}

/// [`c_ring_allgatherv`] writing into a caller-provided buffer through a
/// reusable workspace: the persistent-plan fast path (zero steady-state
/// allocations).
///
/// # Panics
/// Panics if `mine.len() != counts[rank]` or `out.len()` is not the sum
/// of `counts`.
pub fn c_ring_allgatherv_into<C: Comm>(
    comm: &mut C,
    cpr: &CprCodec,
    mine: &[f32],
    counts: &[usize],
    out: &mut [f32],
    ws: &mut CollWorkspace,
) {
    let me = comm.rank();
    assert_eq!(
        counts.len(),
        comm.size(),
        "counts must have one entry per rank"
    );
    assert_eq!(mine.len(), counts[me], "my buffer disagrees with counts");
    assert_eq!(
        out.len(),
        counts.iter().sum::<usize>(),
        "output buffer size mismatch"
    );
    ws.set_partition_from_counts(counts);
    c_ring_allgather_core(comm, cpr, Some(mine), out, ws, true);
}

/// [`c_ring_allgatherv_into`] with the relay/decompress overlap
/// disabled: the pre-pipeline monolithic schedule (relay every block,
/// then one decompression sweep at the end). Kept public so the
/// pipeline-ablation benches and the equivalence tests can isolate the
/// overlap's contribution; results are bitwise identical to the
/// overlapped path (the same blocks are decompressed, in a different
/// interleaving with the relays).
///
/// # Panics
/// As [`c_ring_allgatherv_into`].
pub fn c_ring_allgatherv_monolithic_into<C: Comm>(
    comm: &mut C,
    cpr: &CprCodec,
    mine: &[f32],
    counts: &[usize],
    out: &mut [f32],
    ws: &mut CollWorkspace,
) {
    let me = comm.rank();
    assert_eq!(
        counts.len(),
        comm.size(),
        "counts must have one entry per rank"
    );
    assert_eq!(mine.len(), counts[me], "my buffer disagrees with counts");
    assert_eq!(
        out.len(),
        counts.iter().sum::<usize>(),
        "output buffer size mismatch"
    );
    ws.set_partition_from_counts(counts);
    c_ring_allgather_core(comm, cpr, Some(mine), out, ws, false);
}

/// Shared C-Allgather engine. The partition must be cached in
/// `ws.counts`/`ws.offsets`. When `mine` is `Some`, the own block is
/// copied from it in the final sweep (out-of-place API); when `None`,
/// the own block is assumed to be in place in `out` already (the
/// allreduce composition) and only the parity memcpy charge is paid.
///
/// With `overlap` set (the default through the public wrappers), the
/// relay is pipelined: the block received in hop `k` is decompressed
/// while hop `k+1`'s relay is in flight, so only the final block's
/// decompression remains on the critical path after the last transfer.
/// The blocks themselves still travel compress-once — the overlap is a
/// pure reordering and preserves the single-compression error bound.
pub(crate) fn c_ring_allgather_core<C: Comm>(
    comm: &mut C,
    cpr: &CprCodec,
    mine: Option<&[f32]>,
    out: &mut [f32],
    ws: &mut CollWorkspace,
    overlap: bool,
) {
    let n = comm.size();
    let me = comm.rank();
    let CollWorkspace {
        pool,
        scratch,
        blobs,
        sizes,
        counts,
        offsets,
        ..
    } = ws;

    // Release the previous call's relay handles before compressing, so
    // their payload-pool slots (ours and our peers') can be recycled by
    // this call instead of forcing the pools to grow.
    blobs.clear();
    blobs.resize(n, None);

    // Step 1: compress local data exactly once.
    let own = match mine {
        Some(m) => m,
        None => &out[offsets[me]..offsets[me] + counts[me]],
    };
    let my_blob = compress_in(comm, cpr.codec.as_ref(), cpr.ck, own, true, pool);

    // Step 2: size synchronization (4 bytes per rank).
    exchange_sizes_raw(comm, my_blob.len() as u32, pool, sizes);

    // Step 3: ring relay of opaque compressed blocks. The blocks are
    // never re-encoded, so each hop forwards exactly the bytes received.
    blobs[me] = Some(my_blob);
    if n > 1 {
        let right = (me + 1) % n;
        let left = (me + n - 1) % n;
        for k in 0..n - 1 {
            let send_idx = (me + n - k) % n;
            let recv_idx = (me + n - 1 - k) % n;
            let tag = tags::ALLGATHER + 0xC00 + k as Tag;
            let payload = blobs[send_idx].clone().expect("relay block present");
            let rreq = comm.irecv(left, tag);
            let sreq = comm.isend(right, tag, payload);
            // Pipelined relay: the block being forwarded this hop is the
            // one received last hop; its onward copy is on the wire, so
            // decompress it while the transfer is in flight.
            if overlap && send_idx != me {
                if let Some(blob) = blobs[send_idx].take() {
                    let vals = decompress_auto_in(comm, cpr.codec.as_ref(), cpr.dk, &blob, scratch);
                    assert_eq!(vals.len(), counts[send_idx], "C-Allgather block mismatch");
                    memcpy_in(
                        comm,
                        &mut out[offsets[send_idx]..offsets[send_idx] + counts[send_idx]],
                        vals,
                    );
                }
            }
            let got = comm.wait_recv_in(rreq, Category::Allgather);
            comm.wait_send_in(sreq, Category::Allgather);
            blobs[recv_idx] = Some(got);
        }
    }

    // Step 4: decompression sweep over whatever the relay loop did not
    // already decode (everything in monolithic mode, the final block in
    // overlapped mode); own data is copied, not decoded.
    match mine {
        Some(m) => memcpy_in(comm, &mut out[offsets[me]..offsets[me] + counts[me]], m),
        None => {
            // Own block already in place: parity charge only.
            let bytes = counts[me] * 4;
            comm.charge(ccoll_comm::Kernel::Memcpy, bytes, Category::Memcpy);
        }
    }
    for r in 0..n {
        if r == me {
            continue;
        }
        let Some(blob) = blobs[r].take() else {
            continue;
        };
        let vals = decompress_auto_in(comm, cpr.codec.as_ref(), cpr.dk, &blob, scratch);
        assert_eq!(vals.len(), counts[r], "C-Allgather block length mismatch");
        memcpy_in(comm, &mut out[offsets[r]..offsets[r] + counts[r]], vals);
    }
}

/// Equal-count convenience wrapper over [`c_ring_allgatherv`].
pub fn c_ring_allgather<C: Comm>(comm: &mut C, cpr: &CprCodec, mine: &[f32]) -> Vec<f32> {
    let counts = vec![mine.len(); comm.size()];
    c_ring_allgatherv(comm, cpr, mine, &counts)
}

/// C-Bruck allgather: the Bruck doubling schedule carried out on
/// **compress-once** blocks. Every rank compresses its own block exactly
/// once; each of the `⌈log₂n⌉` steps forwards a framed *set* of opaque
/// compressed blocks (never re-encoding them), and one decompression
/// sweep at the end writes the rotated output — so the data-movement
/// framework's single-compression error bound holds on this schedule
/// too, at tree latency instead of the ring's `n−1` hops.
pub fn c_bruck_allgatherv<C: Comm>(
    comm: &mut C,
    cpr: &CprCodec,
    mine: &[f32],
    counts: &[usize],
) -> Vec<f32> {
    let mut out = vec![0.0f32; counts.iter().sum()];
    let mut ws = CollWorkspace::with_value_capacity(counts.iter().copied().max().unwrap_or(0));
    c_bruck_allgatherv_into(comm, cpr, mine, counts, &mut out, &mut ws);
    out
}

/// [`c_bruck_allgatherv`] writing into a caller-provided buffer through
/// a reusable workspace (zero steady-state heap allocations). Compressed
/// blocks are staged in *relative* order in the workspace blob list and
/// rotated into absolute rank order during the decompression sweep.
///
/// # Panics
/// Panics if `mine.len() != counts[rank]` or `out.len()` is not the sum
/// of `counts`.
pub fn c_bruck_allgatherv_into<C: Comm>(
    comm: &mut C,
    cpr: &CprCodec,
    mine: &[f32],
    counts_in: &[usize],
    out: &mut [f32],
    ws: &mut CollWorkspace,
) {
    let n = comm.size();
    let me = comm.rank();
    assert_eq!(counts_in.len(), n, "counts must have one entry per rank");
    assert_eq!(mine.len(), counts_in[me], "my buffer disagrees with counts");
    assert_eq!(
        out.len(),
        counts_in.iter().sum::<usize>(),
        "output buffer size mismatch"
    );
    ws.set_partition_from_counts(counts_in);
    let CollWorkspace {
        pool,
        scratch,
        blob_list: held,
        counts,
        offsets,
        ..
    } = ws;

    // Compress the local block exactly once; `held[i]` is the block of
    // rank `(me + i) % n`. Own data lands in `out` by copy, not decode.
    held.clear();
    held.push(compress_in(
        comm,
        cpr.codec.as_ref(),
        cpr.ck,
        mine,
        true,
        pool,
    ));
    memcpy_in(comm, &mut out[offsets[me]..offsets[me] + counts[me]], mine);
    // Pipelined decompression cursor: held blocks below it are already
    // decoded into their rotated positions in `out`.
    let mut decoded = 1usize;
    let mut step: Tag = 0;
    while held.len() < n {
        let dist = held.len(); // always a power of two
        let send_cnt = dist.min(n - dist);
        let to = (me + n - dist) % n;
        let from = (me + dist) % n;
        let tag = tags::BRUCK + 0xC00 + step;
        let container = frame_blobs_pooled(pool, &held[..send_cnt]);
        let rreq = comm.irecv(from, tag);
        let sreq = comm.isend(to, tag, container);
        // Decompress blocks gathered in earlier steps while this step's
        // containers are in flight (relays forward the compressed bytes
        // untouched, so decoding early changes nothing but the overlap).
        while decoded < held.len() {
            let a = (me + decoded) % n;
            let vals =
                decompress_auto_in(comm, cpr.codec.as_ref(), cpr.dk, &held[decoded], scratch);
            assert_eq!(vals.len(), counts[a], "C-Bruck block length mismatch");
            memcpy_in(comm, &mut out[offsets[a]..offsets[a] + counts[a]], vals);
            decoded += 1;
        }
        let got = comm.wait_recv_in(rreq, Category::Allgather);
        comm.wait_send_in(sreq, Category::Allgather);
        // The received set extends my held blocks at relative positions
        // [dist, dist + send_cnt); the blocks themselves are zero-copy
        // slices of the received container.
        crate::wire::unframe_blobs_append(&got, held).expect("well-formed Bruck container");
        assert_eq!(
            held.len(),
            dist + send_cnt,
            "Bruck step block count mismatch"
        );
        step += 1;
    }

    // Tail sweep: decode whatever arrived in the final step.
    while decoded < held.len() {
        let a = (me + decoded) % n;
        let vals = decompress_auto_in(comm, cpr.codec.as_ref(), cpr.dk, &held[decoded], scratch);
        assert_eq!(vals.len(), counts[a], "C-Bruck block length mismatch");
        memcpy_in(comm, &mut out[offsets[a]..offsets[a] + counts[a]], vals);
        decoded += 1;
    }
    // Release the containers before the next call reuses the pool.
    held.clear();
}

/// C-Bcast: compress once at the root, relay compressed bytes through the
/// binomial tree, decompress once at each non-root (paper Fig. 3, right)
/// — streamed in [`DEFAULT_PIPE_VALUES`] sub-chunks, see
/// [`c_binomial_bcast_into`]. `data` is read on the root only.
///
/// The allocating wrapper does not know the length on non-roots, and a
/// stream is now one sub-chunk rather than the payload, so the root
/// first sends the 8-byte value count down the same tree. It travels
/// ahead of the first sub-chunk (which is still being encoded) and costs
/// no time on the critical path; persistent plans know the length up
/// front and send no such header.
pub fn c_binomial_bcast<C: Comm>(
    comm: &mut C,
    cpr: &CprCodec,
    root: usize,
    data: &[f32],
) -> Vec<f32> {
    let me = comm.rank();
    assert!(root < comm.size(), "root {root} out of range");
    let mut ws = CollWorkspace::new();
    let header = (me == root).then(|| ws.pool.write(&(data.len() as u64).to_le_bytes()));
    let header = binomial_bcast_bytes(comm, root, header, tags::BCAST + 0xC01);
    let len = u64::from_le_bytes(header[..8].try_into().expect("8-byte length")) as usize;
    let mut out = vec![0.0f32; len];
    c_binomial_bcast_into(comm, cpr, root, data, &mut out, &mut ws);
    out
}

/// [`c_binomial_bcast`] writing into a caller-provided buffer through a
/// reusable workspace. Every rank must size `out` to the broadcast
/// length; `data` is read on the root only.
///
/// A one-shot blocking drive of the same `RelayCursor` the broadcast
/// plans step (there is no second copy of the schedule): the root
/// encodes sub-chunk `j+1` while sub-chunk `j` fans out, interior ranks
/// relay each arrival before decoding it, leaves decode as chunks
/// arrive. Every value is compressed exactly once (at the root) and
/// decompressed exactly once per non-root rank.
pub fn c_binomial_bcast_into<C: Comm>(
    comm: &mut C,
    cpr: &CprCodec,
    root: usize,
    data: &[f32],
    out: &mut [f32],
    ws: &mut CollWorkspace,
) {
    let mut bufs = PipeBufs {
        pool: &mut ws.pool,
        scratch: &mut ws.scratch,
        sreqs: &mut ws.sreqs,
        rreqs: &mut ws.rreqs,
    };
    let done = RelayCursor::new().step(
        comm,
        cpr,
        DEFAULT_PIPE_VALUES,
        root,
        data,
        out,
        tags::BCAST + 0xC00,
        &mut bufs,
        true,
    );
    debug_assert!(done.is_ready());
}

/// C-Scatter: the root compresses each destination's segment exactly
/// once; interior tree nodes forward *framed sets of compressed segments*
/// without touching them; each rank decompresses only its own segment.
pub fn c_binomial_scatter<C: Comm>(
    comm: &mut C,
    cpr: &CprCodec,
    root: usize,
    data: &[f32],
    total_len: usize,
) -> Vec<f32> {
    let lengths = chunk_lengths(total_len, comm.size());
    let mut out = vec![0.0f32; lengths[comm.rank()]];
    let mut ws = CollWorkspace::new();
    c_binomial_scatter_into(comm, cpr, root, data, total_len, &mut out, &mut ws);
    out
}

/// [`c_binomial_scatter`] writing rank `r`'s chunk into a
/// caller-provided buffer through a reusable workspace.
///
/// # Panics
/// Panics if `out.len()` differs from this rank's chunk length.
pub fn c_binomial_scatter_into<C: Comm>(
    comm: &mut C,
    cpr: &CprCodec,
    root: usize,
    data: &[f32],
    total_len: usize,
    out: &mut [f32],
    ws: &mut CollWorkspace,
) {
    let n = comm.size();
    let me = comm.rank();
    assert!(root < n, "root {root} out of range");
    ws.set_partition(total_len, n);
    let CollWorkspace {
        pool,
        scratch,
        blob_list: held,
        counts,
        offsets,
        ..
    } = ws;
    assert_eq!(out.len(), counts[me], "output must hold my chunk");
    let relative = (me + n - root) % n;

    // Acquire my span of compressed segments, in relative order.
    held.clear();
    let mut span: usize;
    let mut m: usize;
    if me == root {
        assert_eq!(data.len(), total_len, "root buffer must hold all chunks");
        for i in 0..n {
            let a = (root + i) % n;
            let seg = &data[offsets[a]..offsets[a] + counts[a]];
            held.push(compress_in(
                comm,
                cpr.codec.as_ref(),
                cpr.ck,
                seg,
                true,
                pool,
            ));
        }
        span = n;
        m = n.next_power_of_two();
    } else {
        let lowbit = relative & relative.wrapping_neg();
        let src = (relative - lowbit + root) % n;
        span = lowbit.min(n - relative);
        m = lowbit;
        let container = comm.recv(src, tags::SCATTER + 0xC00);
        unframe_blobs_into(&container, held).expect("well-formed scatter container");
        assert_eq!(held.len(), span, "scatter container segment count mismatch");
    }

    // Forward framed sub-spans; compressed segments are relayed verbatim.
    m /= 2;
    while m >= 1 {
        if m < span {
            let child_rel = relative + m;
            let container = frame_blobs_pooled(pool, &held[m..]);
            let dst = (child_rel + root) % n;
            let req = comm.isend(dst, tags::SCATTER + 0xC00, container);
            comm.wait_send_in(req, Category::Wait);
            held.truncate(m);
            span = m;
        }
        m /= 2;
    }

    // Decompress exactly my own segment (held[0]).
    let vals = decompress_auto_in(comm, cpr.codec.as_ref(), cpr.dk, &held[0], scratch);
    if me == root {
        // The root never lost precision: return its original chunk.
        out.copy_from_slice(&data[offsets[me]..offsets[me] + counts[me]]);
        return;
    }
    assert_eq!(vals.len(), counts[me], "C-Scatter segment length mismatch");
    out.copy_from_slice(vals);
}

/// C-Alltoall: compress every outgoing block once (into pooled buffers),
/// exchange compressed sizes, then run the pairwise exchange on compressed
/// payloads with a fixed, size-aware schedule; decompress on receipt.
pub fn c_pairwise_alltoall<C: Comm>(comm: &mut C, cpr: &CprCodec, send: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; send.len()];
    let mut ws = CollWorkspace::new();
    c_pairwise_alltoall_into(comm, cpr, send, &mut out, &mut ws);
    out
}

/// [`c_pairwise_alltoall`] writing into a caller-provided buffer through
/// a reusable workspace.
///
/// # Panics
/// Panics if `send.len()` is not divisible by the rank count or
/// `out.len() != send.len()`.
pub fn c_pairwise_alltoall_into<C: Comm>(
    comm: &mut C,
    cpr: &CprCodec,
    send: &[f32],
    out: &mut [f32],
    ws: &mut CollWorkspace,
) {
    let n = comm.size();
    let me = comm.rank();
    assert!(
        send.len().is_multiple_of(n),
        "all-to-all buffer ({}) must divide evenly across {n} ranks",
        send.len()
    );
    assert_eq!(out.len(), send.len(), "output buffer size mismatch");
    let block = send.len() / n;
    let CollWorkspace {
        pool,
        scratch,
        blob_list: blobs,
        sizes,
        ..
    } = ws;
    // Compress all outgoing blocks up front (once each).
    blobs.clear();
    for to in 0..n {
        blobs.push(if to == me {
            Bytes::new()
        } else {
            compress_in(
                comm,
                cpr.codec.as_ref(),
                cpr.ck,
                &send[to * block..(to + 1) * block],
                true,
                pool,
            )
        });
    }
    // Size synchronization (total compressed bytes per rank) keeps the
    // schedule fixed, as in C-Allgather.
    let total: usize = blobs.iter().map(|b| b.len()).sum();
    exchange_sizes_raw(comm, total as u32, pool, sizes);
    memcpy_in(
        comm,
        &mut out[me * block..(me + 1) * block],
        &send[me * block..(me + 1) * block],
    );
    for i in 1..n {
        let to = (me + i) % n;
        let from = (me + n - i) % n;
        let tag = tags::ALLTOALL + 0xC00 + i as Tag;
        let got = comm.sendrecv(to, from, tag, blobs[to].clone(), Category::Allgather);
        let vals = decompress_auto_in(comm, cpr.codec.as_ref(), cpr.dk, &got, scratch);
        assert_eq!(vals.len(), block, "C-Alltoall block length mismatch");
        memcpy_in(comm, &mut out[from * block..(from + 1) * block], vals);
    }
}

/// C-Gather: each rank compresses its chunk once; interior binomial-tree
/// nodes relay framed compressed segments upward untouched; the root
/// performs every decompression. The mirror image of [`c_binomial_scatter`].
pub fn c_binomial_gather<C: Comm>(
    comm: &mut C,
    cpr: &CprCodec,
    root: usize,
    mine: &[f32],
    total_len: usize,
) -> Option<Vec<f32>> {
    let mut out = vec![0.0f32; if comm.rank() == root { total_len } else { 0 }];
    let mut ws = CollWorkspace::new();
    c_binomial_gather_into(comm, cpr, root, mine, total_len, &mut out, &mut ws).then_some(out)
}

/// [`c_binomial_gather`] writing the concatenated buffer into `out` on
/// the root (which must size it to `total_len`; other ranks may pass an
/// empty buffer). Returns `true` on the root, `false` elsewhere.
pub fn c_binomial_gather_into<C: Comm>(
    comm: &mut C,
    cpr: &CprCodec,
    root: usize,
    mine: &[f32],
    total_len: usize,
    out: &mut [f32],
    ws: &mut CollWorkspace,
) -> bool {
    let n = comm.size();
    let me = comm.rank();
    assert!(root < n, "root {root} out of range");
    ws.set_partition(total_len, n);
    let CollWorkspace {
        pool,
        scratch,
        blob_list: held,
        counts,
        offsets,
        ..
    } = ws;
    assert_eq!(mine.len(), counts[me], "my chunk disagrees with partition");
    let relative = (me + n - root) % n;

    // My own compressed segment (root's stays uncompressed-exact later).
    held.clear();
    held.push(compress_in(
        comm,
        cpr.codec.as_ref(),
        cpr.ck,
        mine,
        true,
        pool,
    ));
    let mut mask = 1usize;
    while mask < n {
        if relative & mask != 0 {
            let parent = (relative - mask + root) % n;
            let container = frame_blobs_pooled(pool, held);
            let req = comm.isend(parent, tags::GATHER + 0xC00, container);
            comm.wait_send_in(req, Category::Wait);
            return false;
        }
        let child_rel = relative + mask;
        if child_rel < n {
            let container = comm.recv((child_rel + root) % n, tags::GATHER + 0xC00);
            let blobs = unframe_blobs(&container).expect("well-formed gather container");
            held.extend(blobs);
        }
        mask <<= 1;
    }
    // Root: decompress every segment (held is in relative order),
    // through the one scratch.
    assert_eq!(out.len(), total_len, "root output must hold all chunks");
    for (i, blob) in held.iter().enumerate() {
        let a = (root + i) % n;
        let vals: &[f32] = if a == me {
            mine // the root's own chunk stays lossless
        } else {
            decompress_auto_in(comm, cpr.codec.as_ref(), cpr.dk, blob, scratch)
        };
        assert_eq!(vals.len(), counts[a], "C-Gather segment length mismatch");
        out[offsets[a]..offsets[a] + counts[a]].copy_from_slice(vals);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::chunk_offsets;
    use ccoll_comm::{Kernel, SimConfig, SimWorld};
    use ccoll_compress::{Compressor, SzxCodec};
    use std::sync::Arc;

    fn szx(eb: f32) -> CprCodec {
        CprCodec::new(
            Arc::new(SzxCodec::new(eb)),
            Kernel::SzxCompress,
            Kernel::SzxDecompress,
        )
    }

    fn rank_data(rank: usize, len: usize) -> Vec<f32> {
        (0..len)
            .map(|i| ((i + 13 * rank) as f32 * 2e-3).sin() * 4.0)
            .collect()
    }

    #[test]
    fn size_exchange_collects_all() {
        let n = 7;
        let world = SimWorld::new(SimConfig::new(n));
        let out = world.run(move |c| {
            let mut pool = ccoll_comm::PayloadPool::new();
            let mut sizes = Vec::new();
            exchange_sizes_raw(c, (100 + c.rank()) as u32, &mut pool, &mut sizes);
            sizes
        });
        for r in 0..n {
            let expect: Vec<u32> = (0..n).map(|i| (100 + i) as u32).collect();
            assert_eq!(out.results[r], expect, "rank {r}");
        }
    }

    #[test]
    fn c_allgather_single_compression_error() {
        // THE error property of the framework: every block's error is one
        // single compression error ≤ eb, regardless of hop count.
        let n = 8;
        let eb = 1e-3f32;
        let len = 2000;
        let world = SimWorld::new(SimConfig::new(n));
        let cpr = szx(eb);
        let out = world.run(move |c| c_ring_allgather(c, &cpr, &rank_data(c.rank(), len)));
        for r in 0..n {
            for src in 0..n {
                let expect = rank_data(src, len);
                let got = &out.results[r][src * len..(src + 1) * len];
                let worst = expect
                    .iter()
                    .zip(got)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f32, f32::max);
                assert!(
                    worst <= eb + 1e-7,
                    "rank {r} block {src}: error {worst} exceeds single bound {eb}"
                );
                if src == r {
                    assert_eq!(worst, 0.0, "own block must be exact");
                }
            }
        }
    }

    #[test]
    fn c_allgatherv_unequal_counts() {
        let n = 5;
        let counts = [100usize, 0, 333, 17, 250];
        let world = SimWorld::new(SimConfig::new(n));
        let cpr = szx(1e-4);
        let out = world.run(move |c| {
            let mine = rank_data(c.rank(), counts[c.rank()]);
            c_ring_allgatherv(c, &cpr, &mine, &counts)
        });
        let offsets = chunk_offsets(counts.as_ref());
        for r in 0..n {
            for src in 0..n {
                let expect = rank_data(src, counts[src]);
                let got = &out.results[r][offsets[src]..offsets[src] + counts[src]];
                for (a, b) in expect.iter().zip(got) {
                    assert!((a - b).abs() <= 1e-4 + 1e-7, "rank {r} src {src}");
                }
            }
        }
    }

    #[test]
    fn c_bruck_single_compression_error() {
        // The compress-once property must survive the Bruck schedule:
        // blocks relayed through up to ⌈log₂n⌉ container hops still
        // carry exactly one compression error.
        for n in [2usize, 3, 5, 8, 9] {
            let eb = 1e-3f32;
            let len = 800;
            let world = SimWorld::new(SimConfig::new(n));
            let cpr = szx(eb);
            let out = world.run(move |c| {
                let counts = vec![len; c.size()];
                c_bruck_allgatherv(c, &cpr, &rank_data(c.rank(), len), &counts)
            });
            for r in 0..n {
                for src in 0..n {
                    let expect = rank_data(src, len);
                    let got = &out.results[r][src * len..(src + 1) * len];
                    let worst = expect
                        .iter()
                        .zip(got)
                        .map(|(a, b)| (a - b).abs())
                        .fold(0.0f32, f32::max);
                    assert!(
                        worst <= eb + 1e-7,
                        "n={n} rank {r} block {src}: error {worst} exceeds single bound"
                    );
                    if src == r {
                        assert_eq!(worst, 0.0, "own block must be exact");
                    }
                }
            }
        }
    }

    #[test]
    fn c_bruck_unequal_counts() {
        let n = 6;
        let counts = [40usize, 0, 333, 17, 250, 5];
        let world = SimWorld::new(SimConfig::new(n));
        let cpr = szx(1e-4);
        let out = world.run(move |c| {
            let mine = rank_data(c.rank(), counts[c.rank()]);
            c_bruck_allgatherv(c, &cpr, &mine, &counts)
        });
        let offsets = chunk_offsets(counts.as_ref());
        for r in 0..n {
            for src in 0..n {
                let expect = rank_data(src, counts[src]);
                let got = &out.results[r][offsets[src]..offsets[src] + counts[src]];
                for (a, b) in expect.iter().zip(got) {
                    assert!((a - b).abs() <= 1e-4 + 1e-7, "rank {r} src {src}");
                }
            }
        }
    }

    #[test]
    fn c_bcast_single_bound_all_roots() {
        let n = 9;
        let eb = 1e-3f32;
        for root in [0usize, 4, 8] {
            let world = SimWorld::new(SimConfig::new(n));
            let cpr = szx(eb);
            let out = world.run(move |c| {
                let data = if c.rank() == root {
                    rank_data(root, 1500)
                } else {
                    Vec::new()
                };
                c_binomial_bcast(c, &cpr, root, &data)
            });
            let expect = rank_data(root, 1500);
            for r in 0..n {
                let worst = expect
                    .iter()
                    .zip(&out.results[r])
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f32, f32::max);
                assert!(
                    worst <= eb + 1e-7,
                    "root {root} rank {r}: {worst} exceeds {eb} — multi-hop error leaked in"
                );
            }
        }
    }

    #[test]
    fn c_scatter_single_bound() {
        let n = 6;
        let total = 999;
        let eb = 1e-3f32;
        let world = SimWorld::new(SimConfig::new(n));
        let cpr = szx(eb);
        let out = world.run(move |c| {
            let data = if c.rank() == 1 {
                rank_data(5, total)
            } else {
                Vec::new()
            };
            c_binomial_scatter(c, &cpr, 1, &data, total)
        });
        let full = rank_data(5, total);
        let lengths = chunk_lengths(total, n);
        let offsets = chunk_offsets(&lengths);
        for r in 0..n {
            let expect = &full[offsets[r]..offsets[r] + lengths[r]];
            for (a, b) in expect.iter().zip(&out.results[r]) {
                assert!((a - b).abs() <= eb + 1e-7, "rank {r}");
            }
        }
        // Root keeps its chunk losslessly.
        assert_eq!(out.results[1], &full[offsets[1]..offsets[1] + lengths[1]]);
    }

    #[test]
    fn overlapped_relay_matches_monolithic_bitwise_and_is_faster() {
        // The pipelined relay decompresses the same compress-once blocks
        // in a different interleaving: results must be bitwise identical
        // while the deferred-decompression makespan shrinks.
        let n = 8;
        let len = 120_000;
        let counts = vec![len; n];
        let run = |overlap: bool| {
            let counts = counts.clone();
            let world = SimWorld::new(SimConfig::new(n));
            let cpr = szx(1e-3);
            world.run(move |c| {
                let mine = rank_data(c.rank(), len);
                let mut out = vec![0.0f32; n * len];
                let mut ws = CollWorkspace::new();
                if overlap {
                    c_ring_allgatherv_into(c, &cpr, &mine, &counts, &mut out, &mut ws);
                } else {
                    c_ring_allgatherv_monolithic_into(c, &cpr, &mine, &counts, &mut out, &mut ws);
                }
                out
            })
        };
        let mono = run(false);
        let piped = run(true);
        for r in 0..n {
            assert_eq!(piped.results[r], mono.results[r], "rank {r} diverged");
        }
        assert!(
            piped.makespan < mono.makespan,
            "overlapped relay {:?} should undercut monolithic {:?}",
            piped.makespan,
            mono.makespan
        );
    }

    #[test]
    fn nd_compresses_once_vs_di_many() {
        // Count compression invocations through a counting codec wrapper.
        use std::sync::atomic::{AtomicUsize, Ordering};
        static COUNT: AtomicUsize = AtomicUsize::new(0);

        struct Counting(SzxCodec);
        impl Compressor for Counting {
            fn compress(&self, d: &[f32]) -> Result<Vec<u8>, ccoll_compress::CompressError> {
                COUNT.fetch_add(1, Ordering::SeqCst);
                self.0.compress(d)
            }
            fn decompress(&self, s: &[u8]) -> Result<Vec<f32>, ccoll_compress::CompressError> {
                self.0.decompress(s)
            }
            fn kind(&self) -> ccoll_compress::CodecKind {
                self.0.kind()
            }
        }

        let n = 8;
        COUNT.store(0, Ordering::SeqCst);
        let cpr = CprCodec::new(
            Arc::new(Counting(SzxCodec::new(1e-3))),
            Kernel::SzxCompress,
            Kernel::SzxDecompress,
        );
        let world = SimWorld::new(SimConfig::new(n));
        world.run(move |c| c_ring_allgather(c, &cpr, &rank_data(c.rank(), 500)));
        let c_coll_count = COUNT.swap(0, Ordering::SeqCst);
        assert_eq!(
            c_coll_count, n,
            "C-Allgather: exactly one compression per rank"
        );

        let cpr = CprCodec::new(
            Arc::new(Counting(SzxCodec::new(1e-3))),
            Kernel::SzxCompress,
            Kernel::SzxDecompress,
        );
        let world = SimWorld::new(SimConfig::new(n));
        world.run(move |c| {
            crate::collectives::cpr_p2p::cpr_ring_allgather(c, &cpr, &rank_data(c.rank(), 500))
        });
        let di_count = COUNT.load(Ordering::SeqCst);
        assert_eq!(
            di_count,
            n * (n - 1),
            "CPR-P2P allgather: one compression per rank per round"
        );
    }
}
