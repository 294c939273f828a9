//! Per-thread peak allocation tracking for decoder tests: the largest single
//! allocation request each thread made since it last asked. A decoder fed
//! hostile bytes must never request an allocation sized by a length field
//! the bytes merely claim.
//!
//! Including this module installs its allocator as the test binary's global
//! allocator. The counting shim needs `unsafe impl GlobalAlloc`; the
//! workspace otherwise denies unsafe code, so an includer scopes the
//! exemption to this module:
//!
//! ```ignore
//! #[allow(unsafe_code)]
//! #[path = "common/peak_alloc.rs"]
//! mod peak_alloc;
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Largest single request of this thread since `peak_during` last
    /// reset it. Const initialised and without a destructor, so
    /// recording never allocates or touches a torn-down slot.
    static THREAD_PEAK: Cell<usize> = const { Cell::new(0) };
}

fn record(size: usize) {
    let _ = THREAD_PEAK.try_with(|p| p.set(p.get().max(size)));
}

/// Runs `f` and returns its result with the largest single allocation
/// request it made on this thread (libtest runs tests in parallel, so
/// the process-wide peak would charge one test with another's).
pub fn peak_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
    THREAD_PEAK.with(|p| p.set(0));
    let result = f();
    (result, THREAD_PEAK.with(Cell::get))
}

pub struct PeakAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// memory it hands out and takes back is exactly `System`'s; recording a size
// neither allocates nor touches the memory.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: as for `dealloc`, and the caller upholds `realloc`'s
        // contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOCATOR: PeakAlloc = PeakAlloc;
