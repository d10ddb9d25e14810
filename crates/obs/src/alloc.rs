//! Opt-in counting global allocator.
//!
//! Binaries that want memory accounting declare the wrapper as their global
//! allocator:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: diam_obs::alloc::CountingAlloc = diam_obs::alloc::CountingAlloc::new();
//! ```
//!
//! and flip accounting on with [`set_mem_enabled`] (the `--mem on` flag).
//! While accounting is **off** — the default — every allocation pays exactly
//! one relaxed atomic load on top of the system allocator, mirroring the
//! observability layer's own disabled-hook contract. While **on**, each
//! allocation and deallocation bumps process-global totals *and* the calling
//! thread's attribution cells, so span close events can carry the allocator
//! work performed under them exactly like the `sat_*` attribution counters
//! (see `SpanGuard` in the crate root).
//!
//! The accounting path is reentrancy-safe by construction: it touches only
//! atomics and `Cell`s — it never allocates, locks, or calls back into the
//! recording layer (gauges are published from span close and heartbeat
//! paths, never from inside the allocator).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static MEM_ENABLED: AtomicBool = AtomicBool::new(false);

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static FREED_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_LIVE: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TL_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static TL_FREES: Cell<u64> = const { Cell::new(0) };
    static TL_ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
    static TL_FREED_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Monotonic allocator totals — process-global (from [`totals`]) or
/// per-thread (from [`thread_totals`]). Counters only ever increase while
/// accounting is on, so consumers work with deltas between two snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocTotals {
    /// Successful allocations (including the alloc half of a realloc).
    pub allocs: u64,
    /// Deallocations (including the free half of a realloc).
    pub frees: u64,
    /// Bytes handed out.
    pub alloc_bytes: u64,
    /// Bytes returned.
    pub freed_bytes: u64,
}

impl AllocTotals {
    /// The component-wise difference `self - earlier` (saturating, so a
    /// snapshot pair straddling an accounting toggle never underflows).
    pub fn delta_since(&self, earlier: &AllocTotals) -> AllocTotals {
        AllocTotals {
            allocs: self.allocs.saturating_sub(earlier.allocs),
            frees: self.frees.saturating_sub(earlier.frees),
            alloc_bytes: self.alloc_bytes.saturating_sub(earlier.alloc_bytes),
            freed_bytes: self.freed_bytes.saturating_sub(earlier.freed_bytes),
        }
    }

    /// Whether every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == AllocTotals::default()
    }
}

/// Turns allocation accounting on or off. Off (the default) restores the
/// single-relaxed-load fast path; totals accumulated so far are kept.
pub fn set_mem_enabled(on: bool) {
    MEM_ENABLED.store(on, Ordering::Relaxed);
}

/// Whether allocation accounting is currently on.
#[inline]
pub fn mem_enabled() -> bool {
    MEM_ENABLED.load(Ordering::Relaxed)
}

/// Process-global allocator totals since accounting was first enabled.
pub fn totals() -> AllocTotals {
    AllocTotals {
        allocs: ALLOCS.load(Ordering::Relaxed),
        frees: FREES.load(Ordering::Relaxed),
        alloc_bytes: ALLOC_BYTES.load(Ordering::Relaxed),
        freed_bytes: FREED_BYTES.load(Ordering::Relaxed),
    }
}

/// The calling thread's allocator totals. Thread-owned `Cell`s, so a
/// snapshot delta around a region attributes exactly the allocator work this
/// thread performed in it — the mechanism behind the `alloc_*` span fields.
pub fn thread_totals() -> AllocTotals {
    AllocTotals {
        allocs: TL_ALLOCS.with(Cell::get),
        frees: TL_FREES.with(Cell::get),
        alloc_bytes: TL_ALLOC_BYTES.with(Cell::get),
        freed_bytes: TL_FREED_BYTES.with(Cell::get),
    }
}

/// Currently live (allocated minus freed) bytes.
pub fn live_bytes() -> u64 {
    let t = totals();
    t.alloc_bytes.saturating_sub(t.freed_bytes)
}

/// High-water mark of [`live_bytes`] while accounting was on.
pub fn peak_live_bytes() -> u64 {
    PEAK_LIVE.load(Ordering::Relaxed)
}

#[inline]
fn bump(global: &AtomicU64, tl: &'static std::thread::LocalKey<Cell<u64>>, by: u64) {
    global.fetch_add(by, Ordering::Relaxed);
    // `try_with`: TLS may already be torn down on thread exit; global
    // counters still see the work, only per-thread attribution is lost.
    let _ = tl.try_with(|c| c.set(c.get() + by));
}

#[inline]
fn record_alloc(size: u64) {
    bump(&ALLOCS, &TL_ALLOCS, 1);
    bump(&ALLOC_BYTES, &TL_ALLOC_BYTES, size);
    let live = ALLOC_BYTES
        .load(Ordering::Relaxed)
        .saturating_sub(FREED_BYTES.load(Ordering::Relaxed));
    PEAK_LIVE.fetch_max(live, Ordering::Relaxed);
}

#[inline]
fn record_free(size: u64) {
    bump(&FREES, &TL_FREES, 1);
    bump(&FREED_BYTES, &TL_FREED_BYTES, size);
}

/// A counting wrapper around [`std::alloc::System`]; see the module docs.
#[derive(Debug, Default)]
pub struct CountingAlloc;

impl CountingAlloc {
    /// A wrapper instance, usable in a `#[global_allocator]` static.
    pub const fn new() -> CountingAlloc {
        CountingAlloc
    }
}

// SAFETY: delegates every allocation verbatim to `System`; the accounting
// side-band touches only atomics and thread-local `Cell`s, never the
// allocator itself, so it cannot recurse or change allocation behavior.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() && mem_enabled() {
            record_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() && mem_enabled() {
            record_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        if mem_enabled() {
            record_free(layout.size() as u64);
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() && mem_enabled() {
            record_free(layout.size() as u64);
            record_alloc(new_size as u64);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The wrapper is exercised as a plain `GlobalAlloc` implementation —
    // installing it process-wide belongs to binaries, not to unit tests.
    #[test]
    fn counts_alloc_free_pairs_when_enabled() {
        let _serial = crate::test_serial();
        let a = CountingAlloc::new();
        let layout = Layout::from_size_align(256, 8).unwrap();
        set_mem_enabled(true);
        let before = totals();
        let tl_before = thread_totals();
        unsafe {
            let p = a.alloc(layout);
            assert!(!p.is_null());
            a.dealloc(p, layout);
        }
        let d = totals().delta_since(&before);
        let tld = thread_totals().delta_since(&tl_before);
        set_mem_enabled(false);
        assert!(d.allocs >= 1 && d.frees >= 1);
        assert!(d.alloc_bytes >= 256 && d.freed_bytes >= 256);
        assert_eq!(tld.allocs, 1);
        assert_eq!(tld.frees, 1);
        assert_eq!(tld.alloc_bytes, 256);
        assert_eq!(tld.freed_bytes, 256);
        assert!(peak_live_bytes() >= 256);
    }

    #[test]
    fn disabled_accounting_leaves_totals_untouched() {
        let _serial = crate::test_serial();
        let a = CountingAlloc::new();
        let layout = Layout::from_size_align(64, 8).unwrap();
        set_mem_enabled(false);
        let tl_before = thread_totals();
        unsafe {
            let p = a.alloc_zeroed(layout);
            assert!(!p.is_null());
            let p2 = a.realloc(p, layout, 128);
            assert!(!p2.is_null());
            a.dealloc(p2, Layout::from_size_align(128, 8).unwrap());
        }
        assert_eq!(thread_totals(), tl_before);
    }

    #[test]
    fn delta_saturates_rather_than_underflowing() {
        let big = AllocTotals {
            allocs: 10,
            frees: 10,
            alloc_bytes: 100,
            freed_bytes: 100,
        };
        let d = AllocTotals::default().delta_since(&big);
        assert!(d.is_zero());
    }
}
