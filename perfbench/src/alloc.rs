//! A counting global allocator for the benchmark process.
//!
//! Every heap allocation made on a thread is tallied in that thread's
//! counters, so the benchmark reads exact allocation figures around any
//! call into the program without the program's own `host-prof` feature
//! or any instrumentation inside it. The counting rule matches the
//! program's profiler: an allocation counts once with its size, and a
//! growing `realloc` counts once with the grown bytes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn charge(bytes: usize) {
    // `try_with` because the allocator can run during thread teardown,
    // after this thread's counters are gone; those
    // teardown-time allocations simply go uncounted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are
// const-initialised thread-locals without destructors, so charging
// never allocates and cannot recurse.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass straight through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            charge(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` came from `System`; the caller upholds
        // the `new_size` requirements.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() && new_size > layout.size() {
            charge(new_size - layout.size());
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocation totals of the current thread at one instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tally {
    /// Heap allocations.
    pub allocs: u64,
    /// Heap bytes allocated.
    pub bytes: u64,
}

impl Tally {
    /// The current thread's running totals.
    pub fn now() -> Tally {
        Tally {
            allocs: ALLOCS.with(Cell::get),
            bytes: BYTES.with(Cell::get),
        }
    }

    /// Allocations made on this thread since `self` was taken.
    pub fn elapsed(self) -> Tally {
        let now = Tally::now();
        Tally {
            allocs: now.allocs - self.allocs,
            bytes: now.bytes - self.bytes,
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in megabytes.
///
/// # Errors
///
/// Returns a message when `/proc/self/status` is unreadable or has no
/// `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("parse {line:?}: {e}"))?;
    Ok(kb / 1024.0)
}
