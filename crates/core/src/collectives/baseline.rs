//! Uncompressed MPI-style collectives: the paper's "original
//! MPI_Allreduce / MPI_Scatter / MPI_Bcast" baselines (Table V's "AD").
//!
//! Algorithms follow the standard MPICH choices the paper builds on:
//!
//! * ring allgather and ring reduce-scatter (and their composition, the
//!   bandwidth-optimal ring allreduce, which moves `2(N−1)/N · D` bytes
//!   per process — the figure quoted in §III-E);
//! * binomial-tree broadcast and scatter (§IV-D: "C-Bcast and C-Scatter
//!   … utilize the ubiquitous binomial tree algorithm adopted by MPICH");
//! * recursive-doubling allreduce and pairwise all-to-all for
//!   completeness of the collective families discussed in §II-A.

use bytes::Bytes;
use ccoll_comm::{Category, Comm, Tag};

use crate::collectives::tags;
use crate::nonblocking::{
    self as nb, AgMode, ArMachine, BflyMode, BruckAg, Butterfly, RingAg, RingRs, RsMode, TreeMode,
    TreeReduce,
};
use crate::partition::chunk_lengths;
use crate::reduce::ReduceOp;
use crate::wire::{bytes_to_values, values_to_bytes};
use crate::workspace::CollWorkspace;

/// Ring allgather of equal-length per-rank buffers. Returns the
/// concatenation in rank order (`n · mine.len()` values on every rank).
pub fn ring_allgather<C: Comm>(comm: &mut C, mine: &[f32]) -> Vec<f32> {
    let counts = vec![mine.len(); comm.size()];
    ring_allgatherv(comm, mine, &counts)
}

/// Ring allgather with per-rank value counts (`counts[r]` values from
/// rank `r`). Returns the concatenation in rank order.
///
/// # Panics
/// Panics if `mine.len() != counts[rank]`.
pub fn ring_allgatherv<C: Comm>(comm: &mut C, mine: &[f32], counts: &[usize]) -> Vec<f32> {
    let mut out = vec![0.0f32; counts.iter().sum()];
    let mut ws = CollWorkspace::new();
    ring_allgatherv_into(comm, mine, counts, &mut out, &mut ws);
    out
}

/// [`ring_allgatherv`] writing into a caller-provided buffer through a
/// reusable workspace: the persistent-plan fast path (zero steady-state
/// allocations).
///
/// # Panics
/// Panics if `mine.len() != counts[rank]` or `out.len()` is not the sum
/// of `counts`.
pub fn ring_allgatherv_into<C: Comm>(
    comm: &mut C,
    mine: &[f32],
    counts: &[usize],
    out: &mut [f32],
    ws: &mut CollWorkspace,
) {
    ws.set_partition_from_counts(counts);
    let done = RingAg::new(AgMode::Raw).step(comm, None, Some(mine), out, ws, true);
    debug_assert!(done.is_ready());
}

/// Ring reduce-scatter: every rank contributes `input` (all ranks equal
/// length); rank `r` returns the fully reduced chunk `r` of the balanced
/// partition (including `Avg` finalization).
pub fn ring_reduce_scatter<C: Comm>(comm: &mut C, input: &[f32], op: ReduceOp) -> Vec<f32> {
    let lengths = chunk_lengths(input.len(), comm.size());
    let mut out = vec![0.0f32; lengths[comm.rank()]];
    let mut ws = CollWorkspace::new();
    ring_reduce_scatter_into(comm, input, op, &mut out, &mut ws);
    out
}

/// [`ring_reduce_scatter`] writing rank `r`'s reduced chunk into a
/// caller-provided buffer through a reusable workspace.
///
/// # Panics
/// Panics if `out.len()` differs from this rank's chunk length.
pub fn ring_reduce_scatter_into<C: Comm>(
    comm: &mut C,
    input: &[f32],
    op: ReduceOp,
    out: &mut [f32],
    ws: &mut CollWorkspace,
) {
    let done = RingRs::new(RsMode::Raw).step(comm, None, op, input, out, ws, true);
    debug_assert!(done.is_ready());
}

/// Ring allreduce (= ring reduce-scatter + ring allgather), the
/// bandwidth-optimal large-message algorithm the paper optimizes.
pub fn ring_allreduce<C: Comm>(comm: &mut C, input: &[f32], op: ReduceOp) -> Vec<f32> {
    let mut out = vec![0.0f32; input.len()];
    let mut ws = CollWorkspace::new();
    ring_allreduce_into(comm, input, op, &mut out, &mut ws);
    out
}

/// [`ring_allreduce`] writing into a caller-provided buffer through a
/// reusable workspace: the reduced chunk lands in `out`'s own block and
/// the allgather relay fills in the rest, with zero steady-state heap
/// allocations.
///
/// # Panics
/// Panics if `out.len() != input.len()`.
pub fn ring_allreduce_into<C: Comm>(
    comm: &mut C,
    input: &[f32],
    op: ReduceOp,
    out: &mut [f32],
    ws: &mut CollWorkspace,
) {
    let done =
        ArMachine::ring(RsMode::Raw, AgMode::Raw).step(comm, None, op, None, input, out, ws, true);
    debug_assert!(done.is_ready());
}

/// Binomial-tree broadcast. `data` is read on `root` and ignored
/// elsewhere; every rank returns the broadcast buffer.
///
/// The allocating wrapper learns the length from the received payload
/// (as the seed implementation did, at no extra traffic); persistent
/// plans know the length up front and use [`binomial_bcast_into`].
pub fn binomial_bcast<C: Comm>(comm: &mut C, root: usize, data: &[f32]) -> Vec<f32> {
    let n = comm.size();
    let me = comm.rank();
    assert!(root < n, "root {root} out of range");
    let relative = (me + n - root) % n;
    let mut buf: Option<Vec<f32>> = if me == root {
        Some(data.to_vec())
    } else {
        None
    };
    // Receive phase: find the bit where my parent contacted me.
    let mut mask: usize = 1;
    while mask < n {
        if relative & mask != 0 {
            let src = (relative - mask + root) % n;
            let got = comm.recv(src, tags::BCAST);
            buf = Some(bytes_to_values(&got));
            break;
        }
        mask <<= 1;
    }
    // Send phase: forward to children at decreasing masks.
    let have = buf.expect("either root or a parent provided the data");
    let payload = values_to_bytes(&have);
    mask >>= 1;
    while mask > 0 {
        if relative + mask < n {
            let dst = (relative + mask + root) % n;
            let req = comm.isend(dst, tags::BCAST, payload.clone());
            comm.wait_send_in(req, Category::Wait);
        }
        mask >>= 1;
    }
    have
}

/// [`binomial_bcast`] writing into a caller-provided buffer through a
/// reusable workspace. Every rank (root included) must pass `out` sized
/// to the broadcast length; `data` is read on the root only.
pub fn binomial_bcast_into<C: Comm>(
    comm: &mut C,
    root: usize,
    data: &[f32],
    out: &mut [f32],
    ws: &mut CollWorkspace,
) {
    let done = nb::Bcast::new(None, root).step(comm, None, data, out, ws, true);
    debug_assert!(done.is_ready());
}

/// Binomial-tree scatter of the balanced partition of `total_len` values.
/// `data` is read on `root` (must have `total_len` values) and ignored
/// elsewhere. Rank `r` returns chunk `r`.
///
/// The tree is the standard MPICH binomial scatter tree: in *relative*
/// rank space (root at 0), a node's parent is obtained by clearing its
/// lowest set bit, and a node holding the segment span `[rel, rel+span)`
/// peels off the upper half `[rel+m, rel+span)` for each child `rel+m`
/// with `m` descending by powers of two.
pub fn binomial_scatter<C: Comm>(
    comm: &mut C,
    root: usize,
    data: &[f32],
    total_len: usize,
) -> Vec<f32> {
    let lengths = chunk_lengths(total_len, comm.size());
    let mut out = vec![0.0f32; lengths[comm.rank()]];
    let mut ws = CollWorkspace::new();
    binomial_scatter_into(comm, root, data, total_len, &mut out, &mut ws);
    out
}

/// [`binomial_scatter`] writing rank `r`'s chunk into a caller-provided
/// buffer through a reusable workspace (subtree spans stage in
/// `ws.stage`).
///
/// # Panics
/// Panics if `out.len()` differs from this rank's chunk length.
pub fn binomial_scatter_into<C: Comm>(
    comm: &mut C,
    root: usize,
    data: &[f32],
    total_len: usize,
    out: &mut [f32],
    ws: &mut CollWorkspace,
) {
    let done = nb::Scatter::new(false, root, total_len).step(comm, None, data, out, ws, true);
    debug_assert!(done.is_ready());
}

/// Binomial-tree gather: rank `r` contributes `mine` (chunk `r` of the
/// balanced partition of `total_len`); the root returns the concatenated
/// buffer, other ranks return `None`.
pub fn binomial_gather<C: Comm>(
    comm: &mut C,
    root: usize,
    mine: &[f32],
    total_len: usize,
) -> Option<Vec<f32>> {
    let mut out = vec![0.0f32; if comm.rank() == root { total_len } else { 0 }];
    let mut ws = CollWorkspace::new();
    binomial_gather_into(comm, root, mine, total_len, &mut out, &mut ws).then_some(out)
}

/// [`binomial_gather`] writing the concatenated buffer into `out` on the
/// root (which must size it to `total_len`; other ranks may pass an
/// empty buffer). Returns `true` on the root, `false` elsewhere.
pub fn binomial_gather_into<C: Comm>(
    comm: &mut C,
    root: usize,
    mine: &[f32],
    total_len: usize,
    out: &mut [f32],
    ws: &mut CollWorkspace,
) -> bool {
    let mut machine = nb::Gather::new(false, root, total_len);
    let done = machine.step(comm, None, mine, out, ws, true);
    debug_assert!(done.is_ready());
    machine.is_root()
}

/// The fold geometry every butterfly schedule shares: non-power-of-two
/// worlds pre-reduce the first `2·rem` ranks pairwise (even → odd) so a
/// power-of-two subset runs the butterfly, then unfold the result back.
///
/// Returns `(pow2, rem)` where `pow2` is the largest power of two not
/// exceeding `n` and `rem = n - pow2`.
pub(crate) fn butterfly_fold(n: usize) -> (usize, usize) {
    let pow2 = if n.is_power_of_two() {
        n
    } else {
        n.next_power_of_two() / 2
    };
    (pow2, n - pow2)
}

/// The rank holding butterfly position `p` after the fold (odd folded
/// ranks take positions `0..rem`; unpaired ranks shift down by `rem`).
pub(crate) fn butterfly_pos_to_rank(p: usize, rem: usize) -> usize {
    if p < rem {
        2 * p + 1
    } else {
        p + rem
    }
}

/// Recursive-doubling allreduce (efficient for short messages; included
/// as the classic alternative to the ring for completeness).
///
/// Handles non-power-of-two sizes with the standard fold/unfold: the
/// first `2·rem` ranks pair up so a power-of-two subset runs the
/// butterfly, then results are copied back out.
pub fn recursive_doubling_allreduce<C: Comm>(
    comm: &mut C,
    input: &[f32],
    op: ReduceOp,
) -> Vec<f32> {
    let mut out = vec![0.0f32; input.len()];
    let mut ws = CollWorkspace::new();
    recursive_doubling_allreduce_into(comm, input, op, &mut out, &mut ws);
    out
}

/// [`recursive_doubling_allreduce`] writing into a caller-provided
/// buffer through a reusable workspace: `⌈log₂n⌉` butterfly rounds, each
/// exchanging and reducing the full payload, with zero steady-state heap
/// allocations.
///
/// # Panics
/// Panics if `out.len() != input.len()`.
pub fn recursive_doubling_allreduce_into<C: Comm>(
    comm: &mut C,
    input: &[f32],
    op: ReduceOp,
    out: &mut [f32],
    ws: &mut CollWorkspace,
) {
    let done =
        Butterfly::recursive_doubling(BflyMode::Raw).step(comm, None, op, input, out, ws, true);
    debug_assert!(done.is_ready());
}

/// Rabenseifner allreduce: recursive-halving reduce-scatter followed by
/// recursive-doubling allgather — the ring's `2·(n−1)/n·D` bytes at tree
/// (`2⌈log₂n⌉`) latency. The classic large-message algorithm for
/// power-of-two worlds; non-powers-of-two fold/unfold exactly like
/// [`recursive_doubling_allreduce`].
pub fn rabenseifner_allreduce<C: Comm>(comm: &mut C, input: &[f32], op: ReduceOp) -> Vec<f32> {
    let mut out = vec![0.0f32; input.len()];
    let mut ws = CollWorkspace::new();
    rabenseifner_allreduce_into(comm, input, op, &mut out, &mut ws);
    out
}

/// [`rabenseifner_allreduce`] writing into a caller-provided buffer
/// through a reusable workspace (zero steady-state heap allocations).
///
/// The internal partition is the balanced split of the buffer across the
/// `pow2` butterfly positions (not across all `n` ranks): the halving
/// phase narrows each position's ownership by one bit per round, so
/// position `p` ends up with exactly chunk `p`, and the doubling phase
/// re-merges the aligned ranges.
///
/// # Panics
/// Panics if `out.len() != input.len()`.
pub fn rabenseifner_allreduce_into<C: Comm>(
    comm: &mut C,
    input: &[f32],
    op: ReduceOp,
    out: &mut [f32],
    ws: &mut CollWorkspace,
) {
    let done = Butterfly::rabenseifner(BflyMode::Raw).step(comm, None, op, input, out, ws, true);
    debug_assert!(done.is_ready());
}

/// Bruck allgather with per-rank value counts: `⌈log₂n⌉` doubling steps
/// (each rank sends everything it holds to `me − 2ᵏ` and receives from
/// `me + 2ᵏ`), then one local rotation from relative to absolute rank
/// order.
pub fn bruck_allgatherv<C: Comm>(comm: &mut C, mine: &[f32], counts: &[usize]) -> Vec<f32> {
    let mut out = vec![0.0f32; counts.iter().sum()];
    let mut ws = CollWorkspace::new();
    bruck_allgatherv_into(comm, mine, counts, &mut out, &mut ws);
    out
}

/// [`bruck_allgatherv`] writing into a caller-provided buffer through a
/// reusable workspace (zero steady-state heap allocations). Blocks are
/// staged in *relative* order (`hold[i]` is the block of rank
/// `(me + i) % n`) in the workspace accumulator, then rotated into
/// absolute order during the final sweep.
///
/// # Panics
/// Panics if `mine.len() != counts[rank]` or `out.len()` is not the sum
/// of `counts`.
pub fn bruck_allgatherv_into<C: Comm>(
    comm: &mut C,
    mine: &[f32],
    counts_in: &[usize],
    out: &mut [f32],
    ws: &mut CollWorkspace,
) {
    let done = BruckAg::new(false).step(comm, None, mine, counts_in, out, ws, true);
    debug_assert!(done.is_ready());
}

/// Binomial-tree rooted reduce: every rank reduces its children's
/// subtrees into its accumulator and forwards one message to its parent
/// — `⌈log₂n⌉` full-payload hops on the root's critical path (the
/// latency-optimal rooted reduce, vs the bandwidth-optimal
/// reduce-scatter + gather composition in [`crate::session::ReducePlan`]).
/// The root returns the reduced buffer, other ranks `None`.
pub fn binomial_reduce<C: Comm>(
    comm: &mut C,
    root: usize,
    input: &[f32],
    op: ReduceOp,
) -> Option<Vec<f32>> {
    let mut out = vec![0.0f32; if comm.rank() == root { input.len() } else { 0 }];
    let mut ws = CollWorkspace::new();
    binomial_reduce_into(comm, root, input, op, &mut out, &mut ws).then_some(out)
}

/// [`binomial_reduce`] writing the reduced buffer into `out` on the root
/// (which must size it to the input length; other ranks may pass an
/// empty buffer). Returns `true` on the root, `false` elsewhere.
pub fn binomial_reduce_into<C: Comm>(
    comm: &mut C,
    root: usize,
    input: &[f32],
    op: ReduceOp,
    out: &mut [f32],
    ws: &mut CollWorkspace,
) -> bool {
    let mut machine = TreeReduce::new(TreeMode::Raw, root);
    let done = machine.step(comm, None, op, input, out, ws, true);
    debug_assert!(done.is_ready());
    machine.is_root()
}

/// Pairwise-exchange all-to-all: `send` holds `n` equal blocks (block `i`
/// goes to rank `i`); returns `n` blocks where block `i` came from rank
/// `i`.
///
/// # Panics
/// Panics if `send.len()` is not divisible by the rank count.
pub fn pairwise_alltoall<C: Comm>(comm: &mut C, send: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; send.len()];
    let mut ws = CollWorkspace::new();
    pairwise_alltoall_into(comm, send, &mut out, &mut ws);
    out
}

/// [`pairwise_alltoall`] writing into a caller-provided buffer through a
/// reusable workspace.
///
/// # Panics
/// Panics if `send.len()` is not divisible by the rank count or
/// `out.len() != send.len()`.
pub fn pairwise_alltoall_into<C: Comm>(
    comm: &mut C,
    send: &[f32],
    out: &mut [f32],
    ws: &mut CollWorkspace,
) {
    let done = nb::Alltoall::new(false).step(comm, None, send, out, ws, true);
    debug_assert!(done.is_ready());
}

/// Broadcast raw bytes over the binomial tree (used by compressed
/// collectives that relay opaque compressed payloads).
pub(crate) fn binomial_bcast_bytes<C: Comm>(
    comm: &mut C,
    root: usize,
    payload: Option<Bytes>,
    tag: Tag,
) -> Bytes {
    let n = comm.size();
    let me = comm.rank();
    let relative = (me + n - root) % n;
    let mut have: Option<Bytes> = if me == root {
        Some(payload.expect("root must provide the payload"))
    } else {
        None
    };
    let mut mask: usize = 1;
    while mask < n {
        if relative & mask != 0 {
            let src = (relative - mask + root) % n;
            have = Some(comm.recv(src, tag));
            break;
        }
        mask <<= 1;
    }
    let data = have.expect("either root or a parent provided the payload");
    mask >>= 1;
    while mask > 0 {
        if relative + mask < n {
            let dst = (relative + mask + root) % n;
            let req = comm.isend(dst, tag, data.clone());
            comm.wait_send_in(req, Category::Wait);
        }
        mask >>= 1;
    }
    data
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::chunk_offsets;
    use ccoll_comm::{SimConfig, SimWorld, ThreadWorld};

    fn rank_data(rank: usize, len: usize) -> Vec<f32> {
        (0..len)
            .map(|i| ((i * 31 + rank * 977) % 1000) as f32 * 0.25 - 100.0)
            .collect()
    }

    #[test]
    fn allgather_all_sizes() {
        for n in [1usize, 2, 3, 5, 8] {
            let world = SimWorld::new(SimConfig::new(n));
            let out = world.run(move |c| ring_allgather(c, &rank_data(c.rank(), 40)));
            let mut expect = Vec::new();
            for r in 0..n {
                expect.extend(rank_data(r, 40));
            }
            for r in 0..n {
                assert_eq!(out.results[r], expect, "rank {r} of {n}");
            }
        }
    }

    #[test]
    fn allgatherv_unequal() {
        let n = 4;
        let counts = [7usize, 0, 13, 2];
        let world = SimWorld::new(SimConfig::new(n));
        let out = world.run(move |c| {
            let mine = rank_data(c.rank(), counts[c.rank()]);
            ring_allgatherv(c, &mine, &counts)
        });
        let mut expect = Vec::new();
        for (r, &count) in counts.iter().enumerate() {
            expect.extend(rank_data(r, count));
        }
        for r in 0..n {
            assert_eq!(out.results[r], expect, "rank {r}");
        }
    }

    #[test]
    fn reduce_scatter_matches_oracle() {
        for n in [2usize, 3, 6] {
            for op in [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min, ReduceOp::Avg] {
                let len = 50;
                let world = SimWorld::new(SimConfig::new(n));
                let out = world.run(move |c| ring_reduce_scatter(c, &rank_data(c.rank(), len), op));
                let inputs: Vec<Vec<f32>> = (0..n).map(|r| rank_data(r, len)).collect();
                let full = op.oracle(&inputs);
                let lengths = chunk_lengths(len, n);
                let offsets = chunk_offsets(&lengths);
                for r in 0..n {
                    let expect = &full[offsets[r]..offsets[r] + lengths[r]];
                    for (a, b) in out.results[r].iter().zip(expect) {
                        assert!((a - b).abs() < 1e-3, "n={n} {op:?} rank {r}: {a} vs {b}");
                    }
                }
            }
        }
    }

    #[test]
    fn allreduce_matches_oracle() {
        for n in [1usize, 2, 4, 7] {
            let len = 33;
            let world = SimWorld::new(SimConfig::new(n));
            let out =
                world.run(move |c| ring_allreduce(c, &rank_data(c.rank(), len), ReduceOp::Sum));
            let inputs: Vec<Vec<f32>> = (0..n).map(|r| rank_data(r, len)).collect();
            let expect = ReduceOp::Sum.oracle(&inputs);
            for r in 0..n {
                for (a, b) in out.results[r].iter().zip(&expect) {
                    assert!((a - b).abs() < 1e-3, "n={n} rank {r}");
                }
            }
        }
    }

    #[test]
    fn bcast_all_roots() {
        let n = 6;
        for root in 0..n {
            let world = SimWorld::new(SimConfig::new(n));
            let out = world.run(move |c| {
                let data = if c.rank() == root {
                    rank_data(root, 77)
                } else {
                    Vec::new()
                };
                binomial_bcast(c, root, &data)
            });
            let expect = rank_data(root, 77);
            for r in 0..n {
                assert_eq!(out.results[r], expect, "root {root} rank {r}");
            }
        }
    }

    #[test]
    fn scatter_all_roots_and_sizes() {
        for n in [2usize, 3, 4, 7, 8] {
            for root in [0, n - 1] {
                let total = 10 * n + 3; // uneven partition
                let world = SimWorld::new(SimConfig::new(n));
                let out = world.run(move |c| {
                    let data = if c.rank() == root {
                        rank_data(99, total)
                    } else {
                        Vec::new()
                    };
                    binomial_scatter(c, root, &data, total)
                });
                let full = rank_data(99, total);
                let lengths = chunk_lengths(total, n);
                let offsets = chunk_offsets(&lengths);
                for r in 0..n {
                    let expect = &full[offsets[r]..offsets[r] + lengths[r]];
                    assert_eq!(out.results[r], expect, "n={n} root={root} rank {r}");
                }
            }
        }
    }

    #[test]
    fn gather_inverts_scatter() {
        let n = 5;
        let total = 41;
        let world = SimWorld::new(SimConfig::new(n));
        let out = world.run(move |c| {
            let lengths = chunk_lengths(total, n);
            let offsets = chunk_offsets(&lengths);
            let full = rank_data(7, total);
            let mine = full[offsets[c.rank()]..offsets[c.rank()] + lengths[c.rank()]].to_vec();
            binomial_gather(c, 2, &mine, total)
        });
        for (r, res) in out.results.iter().enumerate() {
            if r == 2 {
                assert_eq!(res.as_ref().unwrap(), &rank_data(7, total));
            } else {
                assert!(res.is_none());
            }
        }
    }

    #[test]
    fn recursive_doubling_all_sizes() {
        for n in [1usize, 2, 3, 4, 5, 6, 8] {
            let len = 20;
            let world = SimWorld::new(SimConfig::new(n));
            let out = world.run(move |c| {
                recursive_doubling_allreduce(c, &rank_data(c.rank(), len), ReduceOp::Sum)
            });
            let inputs: Vec<Vec<f32>> = (0..n).map(|r| rank_data(r, len)).collect();
            let expect = ReduceOp::Sum.oracle(&inputs);
            for r in 0..n {
                for (a, b) in out.results[r].iter().zip(&expect) {
                    assert!((a - b).abs() < 1e-3, "n={n} rank {r}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn rabenseifner_all_sizes() {
        for n in [1usize, 2, 3, 4, 5, 6, 7, 8, 9] {
            let len = 37; // uneven across every pow2 partition
            let world = SimWorld::new(SimConfig::new(n));
            let out = world
                .run(move |c| rabenseifner_allreduce(c, &rank_data(c.rank(), len), ReduceOp::Sum));
            let inputs: Vec<Vec<f32>> = (0..n).map(|r| rank_data(r, len)).collect();
            let expect = ReduceOp::Sum.oracle(&inputs);
            for r in 0..n {
                for (a, b) in out.results[r].iter().zip(&expect) {
                    assert!((a - b).abs() < 1e-3, "n={n} rank {r}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn bruck_allgather_all_sizes() {
        for n in [1usize, 2, 3, 5, 7, 8] {
            let counts: Vec<usize> = (0..n).map(|r| 10 + 7 * (r % 3)).collect();
            let c2 = counts.clone();
            let world = SimWorld::new(SimConfig::new(n));
            let out = world.run(move |c| {
                let mine = rank_data(c.rank(), c2[c.rank()]);
                bruck_allgatherv(c, &mine, &c2)
            });
            let mut expect = Vec::new();
            for (r, &count) in counts.iter().enumerate() {
                expect.extend(rank_data(r, count));
            }
            for r in 0..n {
                assert_eq!(out.results[r], expect, "n={n} rank {r}");
            }
        }
    }

    #[test]
    fn binomial_reduce_all_roots() {
        let n = 6;
        let len = 45;
        for root in 0..n {
            let world = SimWorld::new(SimConfig::new(n));
            let out = world
                .run(move |c| binomial_reduce(c, root, &rank_data(c.rank(), len), ReduceOp::Sum));
            let inputs: Vec<Vec<f32>> = (0..n).map(|r| rank_data(r, len)).collect();
            let expect = ReduceOp::Sum.oracle(&inputs);
            for (r, res) in out.results.iter().enumerate() {
                if r == root {
                    let got = res.as_ref().unwrap();
                    for (a, b) in got.iter().zip(&expect) {
                        assert!((a - b).abs() < 1e-3, "root {root}: {a} vs {b}");
                    }
                } else {
                    assert!(res.is_none(), "non-root {r} must return None");
                }
            }
        }
    }

    #[test]
    fn binomial_reduce_avg_finalizes_once() {
        let n = 5;
        let len = 30;
        let world = SimWorld::new(SimConfig::new(n));
        let out =
            world.run(move |c| binomial_reduce(c, 0, &rank_data(c.rank(), len), ReduceOp::Avg));
        let inputs: Vec<Vec<f32>> = (0..n).map(|r| rank_data(r, len)).collect();
        let expect = ReduceOp::Avg.oracle(&inputs);
        let got = out.results[0].as_ref().unwrap();
        for (a, b) in got.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn alltoall_permutes_blocks() {
        let n = 4;
        let block = 3;
        let world = SimWorld::new(SimConfig::new(n));
        let out = world.run(move |c| {
            let me = c.rank();
            // Block i carries the value 100*me + i.
            let send: Vec<f32> = (0..n * block)
                .map(|j| (100 * me + j / block) as f32)
                .collect();
            pairwise_alltoall(c, &send)
        });
        for r in 0..n {
            for src in 0..n {
                for b in 0..block {
                    assert_eq!(out.results[r][src * block + b], (100 * src + r) as f32);
                }
            }
        }
    }

    #[test]
    fn works_on_threaded_backend_too() {
        let n = 4;
        let world = ThreadWorld::new(n);
        let out = world.run(move |c| ring_allreduce(c, &rank_data(c.rank(), 100), ReduceOp::Sum));
        let inputs: Vec<Vec<f32>> = (0..n).map(|r| rank_data(r, 100)).collect();
        let expect = ReduceOp::Sum.oracle(&inputs);
        for r in 0..n {
            for (a, b) in out.results[r].iter().zip(&expect) {
                assert!((a - b).abs() < 1e-3);
            }
        }
    }
}
