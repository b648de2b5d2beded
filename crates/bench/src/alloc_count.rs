//! A counting global allocator for steady-state allocation checks.
//!
//! The math-core benchmarks claim "zero heap allocations per training step
//! once the [`hetero_nn::Workspace`] is warm". That claim is only worth
//! anything if it is *measured*, so the `bench_math` binary (and any test
//! that wants to) installs [`CountingAlloc`] as the `#[global_allocator]`
//! and diffs [`CountingAlloc::allocations`] around the steady-state loop.
//!
//! Two tallies are kept. The process-wide one is a single relaxed atomic
//! (`bench_math`, one measuring thread per process, diffs it). Test
//! binaries must not: the harness runs `#[test]`s on parallel threads and
//! prints from its own, so another test's set-up lands in the region being
//! measured. They diff the *per-thread* tally instead ([`allocs_in`]),
//! which nothing but the measuring thread can move. For an `== 0`
//! assertion that loses nothing: handing work to another thread allocates
//! on the thread that spawns it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    /// The calling thread's share of the tally. `const`-initialized and
    /// without a destructor, so touching it from inside the allocator
    /// neither allocates nor recurses.
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations the calling thread makes while running `f`, after one
/// warm-up call (lazy statics, scratch capacity, first-touch paths). Counts
/// only in a binary whose `#[global_allocator]` is a [`CountingAlloc`].
pub fn allocs_in(mut f: impl FnMut()) -> u64 {
    f();
    let before = THREAD_ALLOCATIONS.with(Cell::get);
    f();
    THREAD_ALLOCATIONS.with(Cell::get) - before
}

/// [`System`] allocator wrapper that counts `alloc`/`realloc` calls.
///
/// Install with:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: CountingAlloc = CountingAlloc::new();
/// ```
pub struct CountingAlloc {
    allocations: AtomicU64,
}

impl CountingAlloc {
    /// A fresh counter starting at zero.
    pub const fn new() -> Self {
        CountingAlloc {
            allocations: AtomicU64::new(0),
        }
    }

    /// Total `alloc` + `realloc` calls since process start, on any thread.
    ///
    /// Diff two reads around a region to count allocations inside it.
    pub fn allocations(&self) -> u64 {
        // Relaxed: monotone tally, nothing is published through it.
        self.allocations.load(Ordering::Relaxed)
    }

    fn count(&self) {
        // Relaxed: the counter is a monotone tally; no memory is published
        // through it, so atomicity alone suffices (see module docs).
        self.allocations.fetch_add(1, Ordering::Relaxed);
        // `try_with`: a thread that is tearing down its locals still
        // allocates; it just is not measuring any more.
        let _ = THREAD_ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: defers every operation to `System`; the only added behavior is a
// relaxed atomic increment and a plain thread-local one, neither of which
// allocates, so the GlobalAlloc contract is untouched.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: each method forwards its arguments verbatim to `System`, so
    // every caller obligation is exactly `System`'s own.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.count();
        // SAFETY: same layout the caller passed under the same contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: forwards verbatim; caller obligations are `System`'s own.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same ptr/layout the caller passed under the same contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: forwards verbatim; caller obligations are `System`'s own.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.count();
        // SAFETY: same arguments the caller passed under the same contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
