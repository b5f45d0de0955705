//! CPR-P2P baselines: compression-enabled point-to-point collectives.
//!
//! This is the prior-work approach the paper criticizes (§I, §II-C) and
//! benchmarks against ("Direct Integration"/DI in Table V, and the
//! SZx/ZFP(ABS)/ZFP(FXR) baselines of §IV-C): *every* send compresses and
//! *every* receive decompresses, so
//!
//! * a ring allgather performs `N−1` compressions per rank instead of 1,
//! * a binomial bcast performs `log₂N` compress+decompress pairs along
//!   each root-to-leaf path instead of one pair total,
//! * repeated re-compression accumulates error (each hop adds a fresh
//!   bounded perturbation — the error-propagation issue §III-A1 fixes),
//! * per-hop compressed sizes differ across ranks, unbalancing the ring.
//!
//! The implementations deliberately share structure with
//! [`baseline`](crate::collectives::baseline) so the only difference a
//! benchmark sees is the compression placement.

use std::sync::Arc;

use ccoll_comm::{Category, Comm, Kernel, PayloadPool, Tag};
use ccoll_compress::{CodecScratch, Compressor};

use crate::collectives::{compress_in, decompress_in, decompress_reduce_in, memcpy_in, tags};
use crate::nonblocking::{
    AgMode, ArMachine, BflyMode, Butterfly, RingAg, RingRs, RsMode, TreeMode, TreeReduce,
};
use crate::partition::chunk_lengths;
use crate::reduce::ReduceOp;
use crate::workspace::CollWorkspace;

/// Codec handle plus its cost-model kernels, shared by all CPR-P2P
/// collectives.
#[derive(Clone)]
pub struct CprCodec {
    /// The compressor.
    pub codec: Arc<dyn Compressor>,
    /// Cost-model kernel for compression.
    pub ck: Kernel,
    /// Cost-model kernel for decompression.
    pub dk: Kernel,
}

impl std::fmt::Debug for CprCodec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CprCodec")
            .field("codec", &self.codec.kind())
            .field("ck", &self.ck)
            .field("dk", &self.dk)
            .finish()
    }
}

impl CprCodec {
    /// Bundle a codec with its cost kernels.
    pub fn new(codec: Arc<dyn Compressor>, ck: Kernel, dk: Kernel) -> Self {
        CprCodec { codec, ck, dk }
    }

    /// Compress through a recycled payload buffer (see
    /// [`compress_in`](crate::collectives::compress_in) for the cost
    /// accounting). Each collective owns one pool for its whole
    /// lifetime, so steady-state rounds run the codec allocation-free.
    pub(crate) fn compress<C: Comm>(
        &self,
        comm: &mut C,
        vals: &[f32],
        pool: &mut PayloadPool,
    ) -> bytes::Bytes {
        compress_in(comm, self.codec.as_ref(), self.ck, vals, false, pool)
    }

    /// Decompress into the scratch's decode buffer, returning a borrow
    /// of the decoded values.
    pub(crate) fn decompress<'s, C: Comm>(
        &self,
        comm: &mut C,
        stream: &[u8],
        expect: usize,
        scratch: &'s mut CodecScratch,
    ) -> &'s [f32] {
        decompress_in(
            comm,
            self.codec.as_ref(),
            self.dk,
            stream,
            expect,
            false,
            scratch,
        )
    }

    /// Fused decompress-reduce straight into `dst` (see
    /// [`decompress_reduce_in`]): one pass instead of decompress → apply,
    /// with the same CPR-P2P buffer-management charge as
    /// [`CprCodec::decompress`].
    pub(crate) fn decompress_reduce<C: Comm>(
        &self,
        comm: &mut C,
        stream: &[u8],
        op: ReduceOp,
        dst: &mut [f32],
        scratch: &mut CodecScratch,
    ) {
        decompress_reduce_in(
            comm,
            self.codec.as_ref(),
            self.dk,
            stream,
            op,
            dst,
            false,
            scratch,
        );
    }
}

/// CPR-P2P ring allgather: compress before each hop, decompress after
/// each hop, re-compress what gets forwarded. Returns the concatenation
/// in rank order. Note the *forwarded* data is the hop's decompressed
/// output, so errors accumulate along the ring — this is the error
/// amplification the data-movement framework eliminates.
pub fn cpr_ring_allgatherv<C: Comm>(
    comm: &mut C,
    cpr: &CprCodec,
    mine: &[f32],
    counts: &[usize],
) -> Vec<f32> {
    let mut out = vec![0.0f32; counts.iter().sum()];
    let mut ws = CollWorkspace::with_value_capacity(counts.iter().copied().max().unwrap_or(0));
    cpr_ring_allgatherv_into(comm, cpr, mine, counts, &mut out, &mut ws);
    out
}

/// [`cpr_ring_allgatherv`] writing into a caller-provided buffer through
/// a reusable workspace.
///
/// # Panics
/// Panics if `mine.len() != counts[rank]` or `out.len()` is not the sum
/// of `counts`.
pub fn cpr_ring_allgatherv_into<C: Comm>(
    comm: &mut C,
    cpr: &CprCodec,
    mine: &[f32],
    counts: &[usize],
    out: &mut [f32],
    ws: &mut CollWorkspace,
) {
    ws.set_partition_from_counts(counts);
    let done = RingAg::new(AgMode::Cpr).step(comm, Some(cpr), Some(mine), out, ws, true);
    debug_assert!(done.is_ready());
}

/// Equal-count convenience wrapper over [`cpr_ring_allgatherv`].
pub fn cpr_ring_allgather<C: Comm>(comm: &mut C, cpr: &CprCodec, mine: &[f32]) -> Vec<f32> {
    let counts = vec![mine.len(); comm.size()];
    cpr_ring_allgatherv(comm, cpr, mine, &counts)
}

/// CPR-P2P ring reduce-scatter: per round compress → send/recv →
/// decompress → reduce (the Fig. 4 "CPR-P2P" timeline). Rank `r` returns
/// the fully reduced chunk `r`.
pub fn cpr_ring_reduce_scatter<C: Comm>(
    comm: &mut C,
    cpr: &CprCodec,
    input: &[f32],
    op: ReduceOp,
) -> Vec<f32> {
    let lengths = chunk_lengths(input.len(), comm.size());
    let mut out = vec![0.0f32; lengths[comm.rank()]];
    let mut ws = CollWorkspace::with_value_capacity(lengths.iter().copied().max().unwrap_or(0));
    cpr_ring_reduce_scatter_into(comm, cpr, input, op, &mut out, &mut ws);
    out
}

/// [`cpr_ring_reduce_scatter`] writing rank `r`'s reduced chunk into a
/// caller-provided buffer through a reusable workspace.
///
/// # Panics
/// Panics if `out.len()` differs from this rank's chunk length.
pub fn cpr_ring_reduce_scatter_into<C: Comm>(
    comm: &mut C,
    cpr: &CprCodec,
    input: &[f32],
    op: ReduceOp,
    out: &mut [f32],
    ws: &mut CollWorkspace,
) {
    let done = RingRs::new(RsMode::Cpr).step(comm, Some(cpr), op, input, out, ws, true);
    debug_assert!(done.is_ready());
}

/// CPR-P2P ring allreduce — the "Direct Integration" (DI) variant of the
/// paper's Table V: CPR-P2P reduce-scatter followed by CPR-P2P allgather.
pub fn cpr_ring_allreduce<C: Comm>(
    comm: &mut C,
    cpr: &CprCodec,
    input: &[f32],
    op: ReduceOp,
) -> Vec<f32> {
    let mut out = vec![0.0f32; input.len()];
    let mut ws = CollWorkspace::new();
    cpr_ring_allreduce_into(comm, cpr, input, op, &mut out, &mut ws);
    out
}

/// [`cpr_ring_allreduce`] writing into a caller-provided buffer through
/// a reusable workspace.
///
/// # Panics
/// Panics if `out.len() != input.len()`.
pub fn cpr_ring_allreduce_into<C: Comm>(
    comm: &mut C,
    cpr: &CprCodec,
    input: &[f32],
    op: ReduceOp,
    out: &mut [f32],
    ws: &mut CollWorkspace,
) {
    let done = ArMachine::ring(RsMode::Cpr, AgMode::Cpr).step(
        comm,
        Some(cpr),
        op,
        None,
        input,
        out,
        ws,
        true,
    );
    debug_assert!(done.is_ready());
}

/// Compressed recursive-doubling allreduce: every butterfly round
/// compresses the full accumulator, exchanges, decompresses and reduces
/// (CPR-P2P placement — each of the `⌈log₂n⌉` rounds adds one bounded
/// compression error). The latency-optimal compressed allreduce for
/// small payloads.
pub fn cpr_recursive_doubling_allreduce<C: Comm>(
    comm: &mut C,
    cpr: &CprCodec,
    input: &[f32],
    op: ReduceOp,
) -> Vec<f32> {
    let mut out = vec![0.0f32; input.len()];
    let mut ws = CollWorkspace::with_value_capacity(input.len());
    cpr_recursive_doubling_allreduce_into(comm, cpr, input, op, &mut out, &mut ws);
    out
}

/// [`cpr_recursive_doubling_allreduce`] writing into a caller-provided
/// buffer through a reusable workspace (zero steady-state heap
/// allocations).
///
/// # Panics
/// Panics if `out.len() != input.len()`.
pub fn cpr_recursive_doubling_allreduce_into<C: Comm>(
    comm: &mut C,
    cpr: &CprCodec,
    input: &[f32],
    op: ReduceOp,
    out: &mut [f32],
    ws: &mut CollWorkspace,
) {
    let done = Butterfly::recursive_doubling(BflyMode::Cpr).step(
        comm,
        Some(cpr),
        op,
        input,
        out,
        ws,
        true,
    );
    debug_assert!(done.is_ready());
}

/// Compressed Rabenseifner allreduce: recursive-halving reduce-scatter +
/// recursive-doubling allgather with CPR-P2P compression placement (each
/// hop compresses the moved range). Ring-equivalent bytes at tree
/// latency; every value passes through at most `⌈log₂n⌉ + 1` compression
/// stages on either phase.
pub fn cpr_rabenseifner_allreduce<C: Comm>(
    comm: &mut C,
    cpr: &CprCodec,
    input: &[f32],
    op: ReduceOp,
) -> Vec<f32> {
    let mut out = vec![0.0f32; input.len()];
    let mut ws = CollWorkspace::with_value_capacity(input.len());
    cpr_rabenseifner_allreduce_into(comm, cpr, input, op, &mut out, &mut ws);
    out
}

/// [`cpr_rabenseifner_allreduce`] writing into a caller-provided buffer
/// through a reusable workspace (zero steady-state heap allocations).
///
/// # Panics
/// Panics if `out.len() != input.len()`.
pub fn cpr_rabenseifner_allreduce_into<C: Comm>(
    comm: &mut C,
    cpr: &CprCodec,
    input: &[f32],
    op: ReduceOp,
    out: &mut [f32],
    ws: &mut CollWorkspace,
) {
    let done =
        Butterfly::rabenseifner(BflyMode::Cpr).step(comm, Some(cpr), op, input, out, ws, true);
    debug_assert!(done.is_ready());
}

/// Compressed binomial-tree rooted reduce: every tree hop compresses the
/// sender's accumulated subtree and decompresses + reduces at the parent
/// (CPR-P2P placement — reduction modifies the data, so compress-once
/// cannot apply; at most `⌈log₂n⌉` bounded errors accumulate on the
/// root's path). Returns the reduced buffer on the root, `None`
/// elsewhere.
pub fn cpr_binomial_reduce<C: Comm>(
    comm: &mut C,
    cpr: &CprCodec,
    root: usize,
    input: &[f32],
    op: ReduceOp,
) -> Option<Vec<f32>> {
    let mut out = vec![0.0f32; if comm.rank() == root { input.len() } else { 0 }];
    let mut ws = CollWorkspace::with_value_capacity(input.len());
    cpr_binomial_reduce_into(comm, cpr, root, input, op, &mut out, &mut ws).then_some(out)
}

/// [`cpr_binomial_reduce`] writing the reduced buffer into `out` on the
/// root (which must size it to the input length; other ranks may pass an
/// empty buffer). Returns `true` on the root, `false` elsewhere.
pub fn cpr_binomial_reduce_into<C: Comm>(
    comm: &mut C,
    cpr: &CprCodec,
    root: usize,
    input: &[f32],
    op: ReduceOp,
    out: &mut [f32],
    ws: &mut CollWorkspace,
) -> bool {
    let mut machine = TreeReduce::new(TreeMode::Cpr, root);
    let done = machine.step(comm, Some(cpr), op, input, out, ws, true);
    debug_assert!(done.is_ready());
    machine.is_root()
}

/// CPR-P2P binomial broadcast: each hop decompresses on receive and
/// re-compresses to forward — `log₂N · (T_comp + T_decomp)` on the
/// critical path (the Fig. 3 left-hand timeline).
pub fn cpr_binomial_bcast<C: Comm>(
    comm: &mut C,
    cpr: &CprCodec,
    root: usize,
    data: &[f32],
) -> Vec<f32> {
    // The allocating wrapper learns the length from the per-hop header
    // message (as the seed implementation did, at no extra traffic);
    // persistent plans know the length up front and use the `_into`
    // variant.
    let n = comm.size();
    let me = comm.rank();
    assert!(root < n, "root {root} out of range");
    let relative = (me + n - root) % n;
    let mut ws = CollWorkspace::new();
    let mut have: Option<Vec<f32>> = if me == root {
        Some(data.to_vec())
    } else {
        None
    };
    let mut mask: usize = 1;
    while mask < n {
        if relative & mask != 0 {
            let src = (relative - mask + root) % n;
            // Length travels in a tiny header message (4 bytes), as a
            // real CPR-P2P implementation must do for eager decompression.
            let hdr = comm.recv(src, tags::BCAST + 0x801);
            let expect_len =
                u32::from_le_bytes(hdr[0..4].try_into().expect("4-byte header")) as usize;
            let got = comm.recv(src, tags::BCAST + 0x800);
            cpr.decompress(comm, &got, expect_len, &mut ws.scratch);
            // This rank re-forwards (and finally returns) the decoded
            // buffer, so take ownership of it from the scratch.
            have = Some(std::mem::take(&mut ws.scratch.dec));
            break;
        }
        mask <<= 1;
    }
    let vals = have.expect("either root or a parent provided the data");
    mask >>= 1;
    while mask > 0 {
        if relative + mask < n {
            let dst = (relative + mask + root) % n;
            // Re-compress for each child (the per-hop waste).
            let payload = cpr.compress(comm, &vals, &mut ws.pool);
            let hdr = ws.pool.write(&(vals.len() as u32).to_le_bytes());
            comm.send(dst, tags::BCAST + 0x801, hdr);
            let req = comm.isend(dst, tags::BCAST + 0x800, payload);
            comm.wait_send_in(req, Category::Wait);
        }
        mask >>= 1;
    }
    vals
}

/// [`cpr_binomial_bcast`] writing into a caller-provided buffer through
/// a reusable workspace. Every rank must size `out` to the broadcast
/// length; `data` is read on the root only.
pub fn cpr_binomial_bcast_into<C: Comm>(
    comm: &mut C,
    cpr: &CprCodec,
    root: usize,
    data: &[f32],
    out: &mut [f32],
    ws: &mut CollWorkspace,
) {
    let n = comm.size();
    let me = comm.rank();
    assert!(root < n, "root {root} out of range");
    let relative = (me + n - root) % n;
    if me == root {
        assert_eq!(
            data.len(),
            out.len(),
            "root data disagrees with plan length"
        );
        out.copy_from_slice(data);
    }
    let mut mask: usize = 1;
    while mask < n {
        if relative & mask != 0 {
            let src = (relative - mask + root) % n;
            // Length travels in a tiny header message (4 bytes), as a
            // real CPR-P2P implementation must do for eager decompression.
            let hdr = comm.recv(src, tags::BCAST + 0x801);
            let expect_len =
                u32::from_le_bytes(hdr[0..4].try_into().expect("4-byte header")) as usize;
            assert_eq!(expect_len, out.len(), "bcast length disagrees with plan");
            let got = comm.recv(src, tags::BCAST + 0x800);
            let vals = cpr.decompress(comm, &got, expect_len, &mut ws.scratch);
            out.copy_from_slice(vals);
            break;
        }
        mask <<= 1;
    }
    mask >>= 1;
    while mask > 0 {
        if relative + mask < n {
            let dst = (relative + mask + root) % n;
            // Re-compress for each child (the per-hop waste).
            let payload = cpr.compress(comm, out, &mut ws.pool);
            let hdr = ws.pool.write(&(out.len() as u32).to_le_bytes());
            comm.send(dst, tags::BCAST + 0x801, hdr);
            let req = comm.isend(dst, tags::BCAST + 0x800, payload);
            comm.wait_send_in(req, Category::Wait);
        }
        mask >>= 1;
    }
}

/// CPR-P2P binomial scatter: each forwarding hop decompresses the
/// received subtree block and re-compresses each child's portion.
pub fn cpr_binomial_scatter<C: Comm>(
    comm: &mut C,
    cpr: &CprCodec,
    root: usize,
    data: &[f32],
    total_len: usize,
) -> Vec<f32> {
    let lengths = chunk_lengths(total_len, comm.size());
    let mut out = vec![0.0f32; lengths[comm.rank()]];
    let mut ws = CollWorkspace::new();
    cpr_binomial_scatter_into(comm, cpr, root, data, total_len, &mut out, &mut ws);
    out
}

/// [`cpr_binomial_scatter`] writing rank `r`'s chunk into a
/// caller-provided buffer through a reusable workspace.
///
/// # Panics
/// Panics if `out.len()` differs from this rank's chunk length.
pub fn cpr_binomial_scatter_into<C: Comm>(
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
        stage: held,
        counts,
        offsets,
        ..
    } = ws;
    assert_eq!(out.len(), counts[me], "output must hold my chunk");
    let relative = (me + n - root) % n;
    let rel_len = |i: usize| counts[(root + i) % n];
    let rel_range_values = |lo: usize, hi: usize| -> usize { (lo..hi).map(rel_len).sum() };

    let mut span: usize;
    let mut m: usize;
    if me == root {
        assert_eq!(data.len(), total_len, "root buffer must hold all chunks");
        held.clear();
        for i in 0..n {
            let a = (root + i) % n;
            held.extend_from_slice(&data[offsets[a]..offsets[a] + counts[a]]);
        }
        span = n;
        m = n.next_power_of_two();
    } else {
        let lowbit = relative & relative.wrapping_neg();
        let src = (relative - lowbit + root) % n;
        span = lowbit.min(n - relative);
        m = lowbit;
        let expect = rel_range_values(relative, relative + span);
        let got = comm.recv(src, tags::SCATTER + 0x800);
        // Decompress the whole subtree block (per-hop cost), staging it
        // for the forward phase.
        let vals = cpr.decompress(comm, &got, expect, scratch);
        held.clear();
        held.extend_from_slice(vals);
    }
    m /= 2;
    while m >= 1 {
        if m < span {
            let child_rel = relative + m;
            let keep_vals = rel_range_values(relative, child_rel);
            // Re-compress the child's portion before forwarding.
            let payload = cpr.compress(comm, &held[keep_vals..], pool);
            let dst = (child_rel + root) % n;
            let req = comm.isend(dst, tags::SCATTER + 0x800, payload);
            comm.wait_send_in(req, Category::Wait);
            held.truncate(keep_vals);
            span = m;
        }
        m /= 2;
    }
    out.copy_from_slice(&held[..counts[me]]);
}

/// CPR-P2P pairwise all-to-all: every outgoing block is compressed and
/// every incoming block decompressed. (All-to-all blocks travel a single
/// hop, so unlike ring/tree collectives there is no re-compression waste
/// — the remaining CPR-P2P deficiencies here are the per-call buffer
/// overhead and the unbalanced, size-unaware schedule.)
pub fn cpr_pairwise_alltoall<C: Comm>(comm: &mut C, cpr: &CprCodec, send: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; send.len()];
    let mut ws = CollWorkspace::with_value_capacity(send.len() / comm.size().max(1));
    cpr_pairwise_alltoall_into(comm, cpr, send, &mut out, &mut ws);
    out
}

/// [`cpr_pairwise_alltoall`] writing into a caller-provided buffer
/// through a reusable workspace.
///
/// # Panics
/// Panics if `send.len()` is not divisible by the rank count or
/// `out.len() != send.len()`.
pub fn cpr_pairwise_alltoall_into<C: Comm>(
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
    memcpy_in(
        comm,
        &mut out[me * block..(me + 1) * block],
        &send[me * block..(me + 1) * block],
    );
    for i in 1..n {
        let to = (me + i) % n;
        let from = (me + n - i) % n;
        let tag = tags::ALLTOALL + 0x800 + i as Tag;
        let payload = cpr.compress(comm, &send[to * block..(to + 1) * block], &mut ws.pool);
        let got = comm.sendrecv(to, from, tag, payload, Category::Wait);
        let vals = cpr.decompress(comm, &got, block, &mut ws.scratch);
        memcpy_in(comm, &mut out[from * block..(from + 1) * block], vals);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::baseline;
    use crate::partition::chunk_offsets;
    use ccoll_comm::{SimConfig, SimWorld};
    use ccoll_compress::SzxCodec;

    fn szx(eb: f32) -> CprCodec {
        CprCodec::new(
            Arc::new(SzxCodec::new(eb)),
            Kernel::SzxCompress,
            Kernel::SzxDecompress,
        )
    }

    fn rank_data(rank: usize, len: usize) -> Vec<f32> {
        (0..len)
            .map(|i| ((i as f32) * 3e-3).sin() * 5.0 + rank as f32 * 0.125)
            .collect()
    }

    #[test]
    fn allgather_within_accumulated_bound() {
        let n = 6;
        let eb = 1e-3f32;
        let world = SimWorld::new(SimConfig::new(n));
        let cpr = szx(eb);
        let out = world.run(move |c| cpr_ring_allgather(c, &cpr, &rank_data(c.rank(), 300)));
        // A block forwarded over up to n-1 hops is recompressed each hop:
        // worst-case error (n-1)·eb (the amplification §III-A1 removes).
        let worst = (n - 1) as f32 * eb + 1e-6;
        for r in 0..n {
            for src in 0..n {
                let expect = rank_data(src, 300);
                let got = &out.results[r][src * 300..(src + 1) * 300];
                for (a, b) in expect.iter().zip(got) {
                    assert!((a - b).abs() <= worst, "rank {r} block {src}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn error_actually_accumulates_beyond_single_bound() {
        // With a coarse bound on smooth data, multi-hop recompression must
        // (at least sometimes) exceed the single-compression error — the
        // motivation for the compress-once framework. We check the error
        // of the farthest-travelled block exceeds the nearest's.
        let n = 8;
        let eb = 1e-2f32;
        let world = SimWorld::new(SimConfig::new(n));
        let cpr = szx(eb);
        let out = world.run(move |c| cpr_ring_allgather(c, &cpr, &rank_data(c.rank(), 4000)));
        // On rank 0: block from rank 1 travelled n-1 hops; block from
        // rank n-1 travelled 1 hop.
        let err = |src: usize| {
            let expect = rank_data(src, 4000);
            out.results[0][src * 4000..(src + 1) * 4000]
                .iter()
                .zip(&expect)
                .map(|(a, b)| (a - b).abs() as f64)
                .fold(0.0, f64::max)
        };
        let far = err(1);
        let near = err(n - 1);
        assert!(
            far >= near,
            "farther block should accumulate at least as much error: {far} vs {near}"
        );
    }

    #[test]
    fn reduce_scatter_bounded() {
        let n = 5;
        let len = 250;
        let eb = 1e-3f32;
        let world = SimWorld::new(SimConfig::new(n));
        let cpr = szx(eb);
        let out = world.run(move |c| {
            cpr_ring_reduce_scatter(c, &cpr, &rank_data(c.rank(), len), ReduceOp::Sum)
        });
        let inputs: Vec<Vec<f32>> = (0..n).map(|r| rank_data(r, len)).collect();
        let full = ReduceOp::Sum.oracle(&inputs);
        let lengths = chunk_lengths(len, n);
        let offsets = chunk_offsets(&lengths);
        // Each partial sum passes through ≤ n-1 compression stages.
        let tol = (n as f32) * eb * 2.0;
        for r in 0..n {
            let expect = &full[offsets[r]..offsets[r] + lengths[r]];
            for (a, b) in out.results[r].iter().zip(expect) {
                assert!((a - b).abs() <= tol, "rank {r}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn allreduce_close_to_exact() {
        let n = 4;
        let len = 600;
        let world = SimWorld::new(SimConfig::new(n));
        let cpr = szx(1e-4);
        let out = world
            .run(move |c| cpr_ring_allreduce(c, &cpr, &rank_data(c.rank(), len), ReduceOp::Sum));
        let inputs: Vec<Vec<f32>> = (0..n).map(|r| rank_data(r, len)).collect();
        let expect = ReduceOp::Sum.oracle(&inputs);
        for r in 0..n {
            for (a, b) in out.results[r].iter().zip(&expect) {
                assert!((a - b).abs() < 5e-3, "rank {r}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn bcast_all_roots_bounded() {
        let n = 7;
        let eb = 1e-3f32;
        for root in [0usize, 3, 6] {
            let world = SimWorld::new(SimConfig::new(n));
            let cpr = szx(eb);
            let out = world.run(move |c| {
                let data = if c.rank() == root {
                    rank_data(root, 500)
                } else {
                    Vec::new()
                };
                cpr_binomial_bcast(c, &cpr, root, &data)
            });
            let expect = rank_data(root, 500);
            // log2(7)+1 hops worst case.
            let tol = 4.0 * eb;
            for r in 0..n {
                for (a, b) in out.results[r].iter().zip(&expect) {
                    assert!((a - b).abs() <= tol, "root {root} rank {r}");
                }
            }
        }
    }

    #[test]
    fn scatter_bounded() {
        let n = 8;
        let total = 800;
        let eb = 1e-3f32;
        let world = SimWorld::new(SimConfig::new(n));
        let cpr = szx(eb);
        let out = world.run(move |c| {
            let data = if c.rank() == 0 {
                rank_data(42, total)
            } else {
                Vec::new()
            };
            cpr_binomial_scatter(c, &cpr, 0, &data, total)
        });
        let full = rank_data(42, total);
        let lengths = chunk_lengths(total, n);
        let offsets = chunk_offsets(&lengths);
        let tol = 4.0 * eb; // ≤ log2(8) hops
        for r in 0..n {
            let expect = &full[offsets[r]..offsets[r] + lengths[r]];
            for (a, b) in out.results[r].iter().zip(expect) {
                assert!((a - b).abs() <= tol, "rank {r}");
            }
        }
    }

    #[test]
    fn recursive_doubling_bounded_all_sizes() {
        let eb = 1e-3f32;
        for n in [2usize, 3, 5, 8] {
            let len = 500;
            let world = SimWorld::new(SimConfig::new(n));
            let cpr = szx(eb);
            let out = world.run(move |c| {
                cpr_recursive_doubling_allreduce(c, &cpr, &rank_data(c.rank(), len), ReduceOp::Sum)
            });
            let inputs: Vec<Vec<f32>> = (0..n).map(|r| rank_data(r, len)).collect();
            let expect = ReduceOp::Sum.oracle(&inputs);
            // Each of ≤ log2(n)+2 rounds adds one bounded error, scaled
            // by the partial-sum magnitudes it rides on.
            let tol = 4.0 * (n as f32) * eb;
            for r in 0..n {
                for (a, b) in out.results[r].iter().zip(&expect) {
                    assert!((a - b).abs() <= tol, "n={n} rank {r}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn rabenseifner_bounded_all_sizes() {
        let eb = 1e-3f32;
        for n in [2usize, 4, 6, 9] {
            let len = 700;
            let world = SimWorld::new(SimConfig::new(n));
            let cpr = szx(eb);
            let out = world.run(move |c| {
                cpr_rabenseifner_allreduce(c, &cpr, &rank_data(c.rank(), len), ReduceOp::Sum)
            });
            let inputs: Vec<Vec<f32>> = (0..n).map(|r| rank_data(r, len)).collect();
            let expect = ReduceOp::Sum.oracle(&inputs);
            let tol = 4.0 * (n as f32) * eb;
            for r in 0..n {
                for (a, b) in out.results[r].iter().zip(&expect) {
                    assert!((a - b).abs() <= tol, "n={n} rank {r}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn binomial_reduce_bounded_all_roots() {
        let n = 7;
        let len = 400;
        let eb = 1e-3f32;
        for root in [0usize, 3, 6] {
            let world = SimWorld::new(SimConfig::new(n));
            let cpr = szx(eb);
            let out = world.run(move |c| {
                cpr_binomial_reduce(c, &cpr, root, &rank_data(c.rank(), len), ReduceOp::Sum)
            });
            let inputs: Vec<Vec<f32>> = (0..n).map(|r| rank_data(r, len)).collect();
            let expect = ReduceOp::Sum.oracle(&inputs);
            let tol = 4.0 * (n as f32) * eb;
            for (r, res) in out.results.iter().enumerate() {
                if r == root {
                    for (a, b) in res.as_ref().unwrap().iter().zip(&expect) {
                        assert!((a - b).abs() <= tol, "root {root}: {a} vs {b}");
                    }
                } else {
                    assert!(res.is_none(), "non-root {r} must return None");
                }
            }
        }
    }

    #[test]
    fn di_is_slower_than_uncompressed_on_fast_network() {
        // The paper's headline observation (Fig. 11): with a fast network,
        // CPR-P2P's compression overhead makes it *slower* than the
        // uncompressed allreduce. Reproduce on a 16-rank virtual cluster.
        let n = 16;
        let len = 200_000;
        let world = SimWorld::new(SimConfig::new(n));
        let t_plain = world
            .run(move |c| baseline::ring_allreduce(c, &rank_data(c.rank(), len), ReduceOp::Sum))
            .makespan;
        let world = SimWorld::new(SimConfig::new(n));
        let cpr = szx(1e-3);
        let t_di = world
            .run(move |c| cpr_ring_allreduce(c, &cpr, &rank_data(c.rank(), len), ReduceOp::Sum))
            .makespan;
        assert!(
            t_di > t_plain,
            "DI should lose to plain allreduce on a 100 Gb/s network: {t_di:?} vs {t_plain:?}"
        );
    }
}
