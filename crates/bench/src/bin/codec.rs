//! Packed-codec throughput harness with allocation accounting.
//!
//! Drives the packed CAN codec (DESIGN.md §8) over a mixed frame set and
//! prints a single-line JSON summary so the perf trajectory is
//! machine-readable (also written to `BENCH_codec.json`):
//!
//! ```json
//! {"bench":"codec","frames":...,"encode_ns_per_frame":...,
//!  "encode_bits_per_sec":...,"wire_len_ns_per_frame":...,
//!  "decode_ns_per_frame":...,"zero_alloc_encode":true,...}
//! ```
//!
//! A counting global allocator asserts the §8 contract: once the
//! [`codec::EncodeBuf`] is warm, the steady-state encode, `wire_len` and packed
//! decode paths perform **zero heap allocations**. The process exits
//! non-zero if that contract is violated, or if any encoded frame disagrees
//! with the `Vec<bool>` reference implementation (a cheap last-line
//! equivalence sweep over the bench working set).
//!
//! Usage: `codec [frames]` (default 2_000_000).

use polsec_can::{codec, CanFrame, CanId};
use std::hint::black_box;
use std::time::Instant;

polsec_bench::counting_allocator!();

/// A mixed working set: standard/extended, data/RTR, every DLC, plus the
/// stuffing-pathological all-zero and all-one payloads.
fn working_set() -> Vec<CanFrame> {
    let mut frames = Vec::new();
    for dlc in 0..=8usize {
        let payload: Vec<u8> = (0..dlc as u8).map(|i| i.wrapping_mul(0x5D)).collect();
        frames.push(CanFrame::data(CanId::standard(0x2A5).unwrap(), &payload).unwrap());
        frames.push(CanFrame::data(CanId::extended(0x1ABC_D123).unwrap(), &payload).unwrap());
    }
    frames.push(CanFrame::data(CanId::standard(0).unwrap(), &[0u8; 8]).unwrap());
    frames.push(CanFrame::data(CanId::standard(0x7FF).unwrap(), &[0xFF; 8]).unwrap());
    frames.push(CanFrame::remote(CanId::standard(0x111).unwrap(), 5).unwrap());
    frames.push(CanFrame::remote(CanId::extended(0x0ABC_DEF0).unwrap(), 8).unwrap());
    frames
}

fn main() {
    let frames_target: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(2_000_000);

    let frames = working_set();
    let mut buf = codec::EncodeBuf::new();

    // Warm the buffer (first encode sizes the backing vector) and capture
    // the wire images for the decode pass.
    let mut wires = Vec::new();
    let mut total_wire_bits_per_cycle: u64 = 0;
    for f in &frames {
        codec::encode_into(f, true, &mut buf);
        total_wire_bits_per_cycle += buf.wire().len() as u64;
        wires.push(buf.wire().clone());
    }

    // ---- steady-state encode: timed, allocation-counted ----
    let allocs_before = polsec_bench::allocations();
    let start = Instant::now();
    let mut encoded: u64 = 0;
    let mut wire_bits: u64 = 0;
    while encoded < frames_target {
        for f in &frames {
            codec::encode_into(black_box(f), true, &mut buf);
            black_box(buf.wire().len());
        }
        encoded += frames.len() as u64;
        wire_bits += total_wire_bits_per_cycle;
    }
    let encode_elapsed = start.elapsed().as_secs_f64();
    let encode_allocs = polsec_bench::allocations() - allocs_before;

    // ---- wire_len fast path ----
    let allocs_before = polsec_bench::allocations();
    let start = Instant::now();
    let mut measured: u64 = 0;
    let mut len_sum: u64 = 0;
    while measured < frames_target {
        for f in &frames {
            len_sum += codec::wire_len(black_box(f)) as u64;
        }
        measured += frames.len() as u64;
    }
    let wire_len_elapsed = start.elapsed().as_secs_f64();
    let wire_len_allocs = polsec_bench::allocations() - allocs_before;
    black_box(len_sum);

    // ---- packed decode ----
    let allocs_before = polsec_bench::allocations();
    let start = Instant::now();
    let mut decoded: u64 = 0;
    while decoded < frames_target {
        for w in &wires {
            black_box(codec::decode_packed(black_box(w)).expect("valid wire bits"));
        }
        decoded += wires.len() as u64;
    }
    let decode_elapsed = start.elapsed().as_secs_f64();
    let decode_allocs = polsec_bench::allocations() - allocs_before;

    // ---- equivalence sweep over the working set (reference codec) ----
    let mut gate = polsec_bench::Gate::new();
    let mut equivalent = true;
    for f in &frames {
        let reference = codec::encode(f, true);
        codec::encode_into(f, true, &mut buf);
        equivalent &= gate.check(
            buf.wire().to_bools() == reference.bits()
                && buf.stuff_bits() == reference.stuff_bits()
                && codec::wire_len(f) == reference.len(),
            format_args!("packed/reference divergence for {f}"),
        );
    }

    let zero_alloc = encode_allocs == 0 && wire_len_allocs == 0 && decode_allocs == 0;
    let encode_ns = encode_elapsed * 1e9 / encoded as f64;
    let summary = format!(
        concat!(
            "{{\"bench\":\"codec\",\"threads\":1,\"frames\":{},",
            "\"encode_ns_per_frame\":{:.1},\"encode_frames_per_sec\":{:.0},",
            "\"encode_bits_per_sec\":{:.0},\"wire_len_ns_per_frame\":{:.1},",
            "\"decode_ns_per_frame\":{:.1},\"zero_alloc_encode\":{},",
            "\"encode_allocs\":{},\"wire_len_allocs\":{},\"decode_allocs\":{},",
            "\"reference_equivalent\":{}}}"
        ),
        encoded,
        encode_ns,
        encoded as f64 / encode_elapsed,
        wire_bits as f64 / encode_elapsed,
        wire_len_elapsed * 1e9 / measured as f64,
        decode_elapsed * 1e9 / decoded as f64,
        zero_alloc,
        encode_allocs,
        wire_len_allocs,
        decode_allocs,
        equivalent,
    );
    polsec_bench::write_summary("codec", &summary);

    gate.check(
        zero_alloc,
        format_args!(
            "steady-state codec allocated (encode {encode_allocs}, \
             wire_len {wire_len_allocs}, decode {decode_allocs})"
        ),
    );
    gate.finish();
}
