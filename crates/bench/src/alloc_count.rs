//! A counting global allocator for steady-state allocation checks.
//!
//! The math core claims "zero heap allocations per training step once the
//! [`hetero_nn::Workspace`] is warm". That claim is only worth anything if
//! it is *measured*, so the `alloc_*` integration tests install
//! [`CountingAlloc`] as the `#[global_allocator]` and count the
//! allocations of a warm step with [`allocs_in`].
//!
//! The tally is *per thread*: the harness runs `#[test]`s on parallel
//! threads and prints from its own, so with a process-wide counter another
//! test's set-up lands in the region being measured. Nothing but the
//! measuring thread can move its own tally. For an `== 0` assertion that
//! loses nothing: handing work to another thread allocates on the thread
//! that spawns it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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
/// static ALLOC: CountingAlloc = CountingAlloc;
/// ```
pub struct CountingAlloc;

fn count() {
    // `try_with`: a thread that is tearing down its locals still
    // allocates; it just is not measuring any more.
    let _ = THREAD_ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: defers every operation to `System`; the only added behavior is a
// plain thread-local increment, which does not allocate, so the
// GlobalAlloc contract is untouched.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: each method forwards its arguments verbatim to `System`, so
    // every caller obligation is exactly `System`'s own.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
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
        count();
        // SAFETY: same arguments the caller passed under the same contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
