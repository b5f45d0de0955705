//! A counting allocator: heap allocations and bytes per thread, so the
//! benchmark can report exactly how many allocations a rank made in a
//! window (`core.workspace.allocs_per_op`, `core.workspace.setup_alloc_mb`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const` initialisers and no destructors: reading these from inside
    // the allocator never allocates and never runs after thread teardown.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator with per-thread allocation counters in front.
pub struct Counting;

fn note(bytes: usize) {
    // `try_with`: a thread that is being torn down has no counters left,
    // and its last frees and allocations are not part of any window.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every method forwards to `System` unchanged; the counters are
// plain thread-local cells touched before the call and hold no pointers.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size.saturating_sub(layout.size()));
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// `(allocations, bytes)` the calling thread has made so far.
pub fn thread_counters() -> (u64, u64) {
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_this_threads_allocations_only() {
        let (a0, b0) = thread_counters();
        let v = std::hint::black_box(vec![0u8; 4096]);
        let (a1, b1) = thread_counters();
        assert!(a1 - a0 >= 1);
        assert!(b1 - b0 >= 4096);
        drop(v);
        // Another thread's allocations do not show up here.
        let (a2, _) = thread_counters();
        std::thread::spawn(|| drop(std::hint::black_box(vec![0u8; 1 << 20])))
            .join()
            .unwrap();
        // `spawn` itself allocates on this thread; the 1 MiB buffer must not.
        let (_, b3) = thread_counters();
        assert!(b3 - b1 < 1 << 20);
        assert!(a2 >= a1);
    }
}
