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

use ccoll_comm::Comm;

use crate::collectives::baseline::binomial_bcast_bytes;
use crate::collectives::cpr_p2p::CprCodec;
use crate::collectives::tags;
use crate::frameworks::computation::DEFAULT_PIPE_VALUES;
use crate::nonblocking::{self as nb, AgMode, BruckAg, RingAg};
use crate::partition::chunk_lengths;
use crate::workspace::CollWorkspace;

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
    ws.set_partition_from_counts(counts);
    let done = RingAg::new(AgMode::Compressed { overlap: true }).step(
        comm,
        Some(cpr),
        Some(mine),
        out,
        ws,
        true,
    );
    debug_assert!(done.is_ready());
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
    ws.set_partition_from_counts(counts);
    let done = RingAg::new(AgMode::Compressed { overlap: false }).step(
        comm,
        Some(cpr),
        Some(mine),
        out,
        ws,
        true,
    );
    debug_assert!(done.is_ready());
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
    let done = BruckAg::new(true).step(comm, Some(cpr), mine, counts_in, out, ws, true);
    debug_assert!(done.is_ready());
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
    let done =
        nb::Bcast::new(Some(DEFAULT_PIPE_VALUES), root).step(comm, Some(cpr), data, out, ws, true);
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
    let done = nb::Scatter::new(true, root, total_len).step(comm, Some(cpr), data, out, ws, true);
    debug_assert!(done.is_ready());
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
    let done = nb::Alltoall::new(true).step(comm, Some(cpr), send, out, ws, true);
    debug_assert!(done.is_ready());
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
    let mut machine = nb::Gather::new(true, root, total_len);
    let done = machine.step(comm, Some(cpr), mine, out, ws, true);
    debug_assert!(done.is_ready());
    machine.is_root()
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
            let mut sizes = vec![0; n];
            sizes[c.rank()] = (100 + c.rank()) as u32;
            let done = nb::SizeRing::default().step(c, &mut pool, &mut sizes, true);
            assert!(done.is_ready());
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
