//! Fixtures and oracle assertions the in-crate schedule tests share.

use crate::algorithm::{Algorithm, PlanOptions};
use crate::codec::CodecSpec;
use crate::collectives::cpr_p2p::CprCodec;
use crate::partition::{chunk_lengths, chunk_offsets};
use crate::reduce::ReduceOp;

/// The SZx codec at `eb` as the free-function baselines take it.
pub(crate) fn szx(eb: f32) -> CprCodec {
    CprCodec::from_spec(CodecSpec::Szx { error_bound: eb }).expect("SZx builds a codec")
}

/// Options pinning a plan to `algorithm`.
pub(crate) fn pin(algorithm: Algorithm) -> PlanOptions {
    PlanOptions::new().algorithm(algorithm)
}

/// A rooted collective's input: `data` on `root`, nothing elsewhere.
pub(crate) fn on_root(rank: usize, root: usize, data: Vec<f32>) -> Vec<f32> {
    if rank == root {
        data
    } else {
        Vec::new()
    }
}

/// The exact reduction of `input(0)`, …, `input(n − 1)`.
pub(crate) fn oracle(n: usize, op: ReduceOp, input: impl Fn(usize) -> Vec<f32>) -> Vec<f32> {
    op.oracle(&(0..n).map(input).collect::<Vec<_>>())
}

/// `got` equals `expect` to within `tol`, value for value.
pub(crate) fn assert_within(got: &[f32], expect: &[f32], tol: f32, what: &str) {
    assert_eq!(got.len(), expect.len(), "{what}: length");
    for (i, (a, b)) in got.iter().zip(expect).enumerate() {
        assert!((a - b).abs() <= tol, "{what} [{i}]: {a} vs {b} (tol {tol})");
    }
}

/// Every rank holds all of `expect` (allreduce, allgather, bcast).
pub(crate) fn assert_all_within(results: &[Vec<f32>], expect: &[f32], tol: f32, what: &str) {
    for (r, got) in results.iter().enumerate() {
        assert_within(got, expect, tol, &format!("{what} rank {r}"));
    }
}

/// Rank `r` holds chunk `r` of the balanced partition of `expect`
/// (reduce-scatter, scatter).
pub(crate) fn assert_chunks_within(results: &[Vec<f32>], expect: &[f32], tol: f32, what: &str) {
    let lengths = chunk_lengths(expect.len(), results.len());
    let offsets = chunk_offsets(&lengths);
    for (r, got) in results.iter().enumerate() {
        let chunk = &expect[offsets[r]..offsets[r] + lengths[r]];
        assert_within(got, chunk, tol, &format!("{what} rank {r}"));
    }
}

/// `root`, and only `root`, holds `expect` (rooted reduce, gather).
pub(crate) fn assert_root_within(
    results: &[Option<Vec<f32>>],
    root: usize,
    expect: &[f32],
    tol: f32,
    what: &str,
) {
    for (r, res) in results.iter().enumerate() {
        match res {
            Some(got) if r == root => assert_within(got, expect, tol, &format!("{what} root {r}")),
            None if r != root => {}
            _ => panic!("{what}: rank {r} has the result iff it is the root {root}"),
        }
    }
}

/// Every rank's allgather output holds block `src` (`block(src)`, at its
/// rank-order offset) to within `tol` — and its own block exactly when
/// `own_exact` (compress-once schedules copy it, never decode it).
pub(crate) fn assert_blocks_within(
    results: &[Vec<f32>],
    block: impl Fn(usize) -> Vec<f32>,
    tol: f32,
    own_exact: bool,
    what: &str,
) {
    for (r, got) in results.iter().enumerate() {
        let mut at = 0;
        for src in 0..results.len() {
            let expect = block(src);
            let tol = if own_exact && src == r { 0.0 } else { tol };
            let what = format!("{what} rank {r} block {src}");
            assert_within(&got[at..at + expect.len()], &expect, tol, &what);
            at += expect.len();
        }
        assert_eq!(at, got.len(), "{what} rank {r}: output length");
    }
}

/// The unit tests' allocator: the system's, counting the allocations
/// each thread makes, so a test can check that a call allocates
/// nothing while other tests run beside it.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

fn count_allocation() {
    // Not at all once the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds `GlobalAlloc`'s contract; counting touches
// only a thread-local integer, which allocates nothing.
unsafe impl std::alloc::GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        count_allocation();
        std::alloc::System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        std::alloc::System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, size: usize) -> *mut u8 {
        count_allocation();
        std::alloc::System.realloc(ptr, layout, size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations this thread has made so far.
pub(crate) fn allocations() -> usize {
    ALLOCATIONS.with(|n| n.get())
}
