//! The shared counting allocator must really count: the zero-allocation
//! gates of `throughput`, `codec` and `scaling` pass vacuously if it does
//! not.

use std::hint::black_box;

polsec_bench::counting_allocator!();

#[test]
fn a_heap_allocation_is_counted_with_its_size() {
    let calls = polsec_bench::allocations();
    let bytes = polsec_bench::allocated_bytes();
    let buf = black_box(Vec::<u8>::with_capacity(4096));
    assert!(polsec_bench::allocations() > calls);
    assert!(polsec_bench::allocated_bytes() - bytes >= 4096);
    drop(buf);
}

#[test]
fn a_reallocation_is_counted_with_its_new_size() {
    let mut buf = black_box(Vec::<u8>::with_capacity(16));
    let calls = polsec_bench::allocations();
    let bytes = polsec_bench::allocated_bytes();
    buf.reserve_exact(8192);
    black_box(&buf);
    assert!(polsec_bench::allocations() > calls);
    assert!(polsec_bench::allocated_bytes() - bytes >= 8192);
}
