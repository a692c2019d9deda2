//! Test support: a counting wrapper around the system allocator.
//!
//! Shared by the core crate's `tests/alloc_free.rs` and the server crate's
//! `tests/zero_alloc_socket.rs` so the zero-allocation checks count
//! identically and cannot drift. Each binary that wants counting must still
//! register it itself:
//!
//! ```ignore
//! #[global_allocator]
//! static GLOBAL: sparql_rewrite_chaos::counting_alloc::CountingAllocator =
//!     sparql_rewrite_chaos::counting_alloc::CountingAllocator;
//! ```
//!
//! Counts every `alloc`/`alloc_zeroed`/`realloc`; frees are irrelevant to
//! the zero-allocation claim. Measure with [`thread_allocation_count`]: it
//! sees only the calling thread, so a window is exact whatever else the
//! process is doing (a test harness spawning threads and capturing output,
//! say).
//!
//! [`allocation_count`] is process-global and has exactly one reader: the
//! server crate's `tests/zero_alloc_socket.rs`, whose window crosses the
//! client thread and the server's worker thread. It counts every other
//! thread's allocations too, so that file must stay a test binary with
//! exactly one `#[test]`: sharing its binary with the generator's unit
//! tests turned it red in 1 of 30 runs (1.09 allocations/request, 2-vCPU
//! host), where alone it reads 0. Do not add a second reader.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

pub struct CountingAllocator;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // `const`-initialised and without a destructor: reading it from inside
    // the allocator neither allocates nor runs lazy initialisation.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Allocation events made by every thread since process start — the caller
/// diffs two reads, and must be the only thing running (see the module doc).
pub fn allocation_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Allocation events made by the calling thread since it started — callers
/// diff two reads taken on the same thread.
pub fn thread_allocation_count() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

#[inline]
fn count_one() {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    // `try_with`: an allocation during thread teardown must not panic.
    let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}
