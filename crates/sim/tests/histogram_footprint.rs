//! A histogram's memory is fixed by the range of values it records, not by
//! how many it records. A counting global allocator measures the live heap
//! bytes one histogram holds after 10^3 and after 10^6 observations over the
//! same value range. This file is its own test binary so the allocator
//! counts nothing else; the count is per thread besides.

use polsec_sim::Histogram;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Live heap bytes allocated by this thread.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn track(delta: isize) {
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

fn live_bytes() -> isize {
    LIVE.with(Cell::get)
}

struct Counting;

// SAFETY: every call forwards to `System` unchanged; the counter is a
// destructor-free thread-local cell, so it never allocates or re-enters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            track(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        track(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            track(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Largest value recorded: the range spans every bucket up to 2^24.
const RANGE_MAX: u64 = 1 << 24;

/// Deterministic values in `[0, RANGE_MAX]`, spread over every power of two.
fn values() -> impl Iterator<Item = u64> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    std::iter::from_fn(move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let bits = (state >> 59) as u32; // 0..=31
        Some((state >> 8) % (1 << bits.min(24)).max(1))
    })
}

#[test]
fn live_bytes_do_not_grow_with_observation_count() {
    let base = live_bytes();
    let mut h = Histogram::new();
    // both phases span the same range: its endpoints come first
    h.record(0);
    h.record(RANGE_MAX);
    let mut values = values();
    for v in values.by_ref().take(1_000 - 2) {
        h.record(v);
    }
    let after_1e3 = live_bytes() - base;
    for v in values.take(1_000_000 - 1_000) {
        h.record(v);
    }
    let after_1e6 = live_bytes() - base;
    assert_eq!(h.count(), 1_000_000);
    assert_eq!(after_1e3, after_1e6, "histogram memory grew with run length");
    assert!(
        after_1e6 < 32 * 1024,
        "{after_1e6} B for a 2^24 value range; raw samples would be 8 MB"
    );
    drop(h);
    assert_eq!(live_bytes(), base, "dropping the histogram frees everything");
}
