//! Peak live heap, counted by the benchmark's global allocator.
//!
//! The resident set of a process whose worker threads allocate is not a
//! steady figure: glibc gives each thread its own arena and keeps the pages
//! a thread frees, so peak RSS depends on which thread ran which job (82 to
//! 133 MB for the same `corpus-warm` inputs on a 2-CPU host). The bytes the
//! program holds live do not, so the benchmark counts those.
//!
//! Each thread nets its allocations in a thread-local counter and publishes
//! to the shared one only when the net change passes [`FLUSH`], so threads
//! rarely touch the shared cache line; the figure may lag the truth by at
//! most `FLUSH` per thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};

/// Net bytes a thread may hold back before publishing.
const FLUSH: isize = 16 * 1024;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    static PENDING: Cell<isize> = const { Cell::new(0) };
}

fn note(delta: isize) {
    let publish = PENDING
        .try_with(|p| {
            let net = p.get() + delta;
            if net.abs() < FLUSH {
                p.set(net);
                0
            } else {
                p.set(0);
                net
            }
        })
        .unwrap_or(delta);
    if publish != 0 {
        // Statistics only: no other data is published through these.
        let live = LIVE.fetch_add(publish, Ordering::Relaxed) + publish;
        if live > PEAK.load(Ordering::Relaxed) {
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
    }
}

/// `System`, counting live bytes.
pub struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counting around it touches no memory the caller owns.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator (so `System`)
        // returned, with its layout.
        unsafe { System.dealloc(ptr, layout) };
        note(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, and `new_size` is the caller's.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// Starts a new peak window at the current live heap.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Peak live heap since the last [`reset_peak`], in megabytes.
pub fn peak_mb() -> f64 {
    PEAK.load(Ordering::Relaxed).max(0) as f64 / 1e6
}
