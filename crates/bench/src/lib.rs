//! # polsec-bench — experiment harness
//!
//! One binary per paper artefact (see DESIGN.md §4):
//!
//! | binary | artefact |
//! |---|---|
//! | `table1` | Table I — the threat model of the connected car |
//! | `fig1_pipeline` | Fig. 1 — the threat-modelling pipeline run end-to-end |
//! | `fig2_car` | Fig. 2 — the car's CAN topology and connectivity matrix |
//! | `fig3_can_node` | Fig. 3 — a frame traced through the CAN node stack |
//! | `fig4_hpe` | Fig. 4 — the HPE filtering spoofed traffic, with overhead |
//! | `attack_matrix` | E1 — 16 attacks × 6 enforcement configurations |
//! | `update_vs_redesign` | E3 — policy update vs redesign turnaround |
//! | `throughput` | multi-threaded decision throughput + zero-allocation assertion |
//! | `fleet` | fleet-scale scenario (DESIGN.md §7): deterministic replay + leak accounting + optional fps floor |
//! | `codec` | packed wire codec (DESIGN.md §8): ns/frame, bits/s + zero-allocation assertion |
//! | `v2x` | V2X message plane (DESIGN.md §9): platooning + OTA rollout, replay and thread-count invariance |
//! | `chaos` | chaos plane (DESIGN.md §10): faulted rollout with retransmits, lead outage and limp-home |
//! | `scaling` | thread sweep of the overlapped plane (DESIGN.md §12): fps floor, 4-vs-1 ratio, zero-allocation routing |
//!
//! Criterion benches (`cargo bench`) cover E2/E4/E5/E6: HPE lookup cost,
//! policy-engine throughput (with the indexing ablation), MAC AVC hit/miss,
//! and the CAN codec.
//!
//! The gated binaries share the scaffolding below: a counting global
//! allocator ([`counting_allocator!`]), the [`median`] of the timed passes,
//! a fail-and-exit [`Gate`], and [`write_summary`] for `BENCH_<name>.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

/// Installs a counting global allocator in the expanding binary.
///
/// It delegates to [`std::alloc::System`] and counts every `alloc` and
/// `realloc` call, with the bytes each one requests, into counters read by
/// [`allocations`] and [`allocated_bytes`]. Expand it once, at the top
/// level of a binary or test crate.
///
/// ```
/// polsec_bench::counting_allocator!();
///
/// fn main() {
///     let before = polsec_bench::allocations();
///     std::hint::black_box(vec![0u8; 64]);
///     assert!(polsec_bench::allocations() > before);
/// }
/// ```
#[macro_export]
macro_rules! counting_allocator {
    () => {
        struct CountingAllocator;

        // SAFETY: every method forwards its arguments unchanged to the
        // system allocator, so the `GlobalAlloc` contract holds as it does
        // for `System`; the counters are plain atomics that never allocate.
        unsafe impl ::std::alloc::GlobalAlloc for CountingAllocator {
            unsafe fn alloc(&self, layout: ::std::alloc::Layout) -> *mut u8 {
                $crate::count_allocation(layout.size());
                unsafe { ::std::alloc::GlobalAlloc::alloc(&::std::alloc::System, layout) }
            }

            unsafe fn dealloc(&self, ptr: *mut u8, layout: ::std::alloc::Layout) {
                unsafe { ::std::alloc::GlobalAlloc::dealloc(&::std::alloc::System, ptr, layout) }
            }

            unsafe fn realloc(
                &self,
                ptr: *mut u8,
                layout: ::std::alloc::Layout,
                new_size: usize,
            ) -> *mut u8 {
                $crate::count_allocation(new_size);
                unsafe {
                    ::std::alloc::GlobalAlloc::realloc(&::std::alloc::System, ptr, layout, new_size)
                }
            }
        }

        #[global_allocator]
        static COUNTING_ALLOCATOR: CountingAllocator = CountingAllocator;
    };
}

/// Records one allocation call of `bytes` bytes; called by the allocator
/// that [`counting_allocator!`] installs.
#[doc(hidden)]
pub fn count_allocation(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    ALLOCATED_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

/// Allocation calls (`alloc` + `realloc`) counted so far; always 0 in a
/// binary that does not expand [`counting_allocator!`].
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Bytes requested by the counted allocation calls so far.
pub fn allocated_bytes() -> u64 {
    ALLOCATED_BYTES.load(Ordering::Relaxed)
}

/// Median of the timed passes' measurements (the upper middle value for an
/// even count): one outlier pass cannot move it.
///
/// # Panics
/// If `xs` is empty.
pub fn median(xs: impl IntoIterator<Item = f64>) -> f64 {
    let mut sorted: Vec<f64> = xs.into_iter().collect();
    assert!(!sorted.is_empty(), "median of no passes");
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

/// Byte offset at which `a` and `b` first differ: `None` if they are equal,
/// the shorter length if one is a prefix of the other.
fn first_divergence(a: &str, b: &str) -> Option<usize> {
    if a == b {
        return None;
    }
    Some(
        a.bytes()
            .zip(b.bytes())
            .position(|(x, y)| x != y)
            .unwrap_or_else(|| a.len().min(b.len())),
    )
}

/// The pass/fail checks of one harness run. Each failed check prints
/// `FAIL: …` to stderr; [`Gate::finish`] then exits with status 1.
#[derive(Debug, Default)]
pub struct Gate {
    failed: bool,
}

impl Gate {
    /// A gate with no failed checks.
    pub fn new() -> Self {
        Gate::default()
    }

    /// Records a check that must hold; prints `FAIL: {msg}` if `ok` is
    /// false. Returns `ok`.
    pub fn check(&mut self, ok: bool, msg: impl Display) -> bool {
        if !ok {
            eprintln!("FAIL: {msg}");
            self.failed = true;
        }
        ok
    }

    /// Records that every run's deterministic section is byte-identical to
    /// `reference`. On the first run that differs it prints `FAIL: {msg}`
    /// and both sides around the first differing byte. Returns whether all
    /// runs matched.
    pub fn identical<'a>(
        &mut self,
        msg: impl Display,
        reference: &str,
        runs: impl IntoIterator<Item = &'a str>,
    ) -> bool {
        let Some((run, byte)) = runs
            .into_iter()
            .find_map(|run| first_divergence(reference, run).map(|byte| (run, byte)))
        else {
            return true;
        };
        self.check(false, msg);
        eprintln!("  reference[..]: {}", window(reference, byte));
        eprintln!("  diverged[..]:  {}", window(run, byte));
        false
    }

    /// Exits the process with status 1 if any check failed.
    pub fn finish(self) {
        if self.failed {
            std::process::exit(1);
        }
    }
}

/// Up to 60 bytes either side of `byte`.
fn window(s: &str, byte: usize) -> String {
    let lo = byte.saturating_sub(60).min(s.len());
    let hi = (byte + 60).min(s.len());
    String::from_utf8_lossy(&s.as_bytes()[lo..hi]).into_owned()
}

/// Prints a harness's one-line JSON summary to stdout and writes it, with a
/// trailing newline, to `BENCH_<name>.json` in the working directory.
pub fn write_summary(name: &str, summary: &str) {
    println!("{summary}");
    let path = format!("BENCH_{name}.json");
    if let Err(e) = std::fs::write(&path, format!("{summary}\n")) {
        eprintln!("note: could not write {path}: {e}");
    }
}

/// Prints a section header used by all harness binaries.
pub fn banner(title: &str) {
    println!("\n==== {title} ====");
}

/// Formats a ratio as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.5), "50.0%");
        assert_eq!(pct(0.0), "0.0%");
    }

    #[test]
    fn median_takes_the_middle_pass() {
        assert_eq!(median([3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median([0.5, 9.0, 0.7]), 0.7);
        assert_eq!(median([4.0]), 4.0);
        assert_eq!(median([4.0, 1.0, 3.0, 2.0]), 3.0);
    }

    #[test]
    #[should_panic(expected = "median of no passes")]
    fn median_of_nothing_panics() {
        median([]);
    }

    #[test]
    fn first_divergence_of_equal_strings_is_none() {
        assert_eq!(first_divergence("", ""), None);
        assert_eq!(first_divergence("{\"a\":1}", "{\"a\":1}"), None);
    }

    #[test]
    fn first_divergence_finds_the_differing_byte() {
        assert_eq!(first_divergence("{\"a\":1}", "{\"a\":2}"), Some(5));
        assert_eq!(first_divergence("x", "y"), Some(0));
    }

    #[test]
    fn first_divergence_of_a_prefix_is_its_length() {
        assert_eq!(first_divergence("{\"a\":1", "{\"a\":1}"), Some(6));
        assert_eq!(first_divergence("abc", "ab"), Some(2));
        assert_eq!(first_divergence("", "a"), Some(0));
    }

    #[test]
    fn identical_reports_the_first_divergent_run() {
        let mut gate = Gate::new();
        assert!(gate.identical("replay", "abc", ["abc", "abc"]));
        assert!(!gate.failed);
        assert!(!gate.identical("replay", "abc", ["abc", "abd", "xyz"]));
        assert!(gate.failed);
    }

    #[test]
    fn window_clamps_to_the_string() {
        assert_eq!(window("abc", 1), "abc");
        let long = "x".repeat(200);
        assert_eq!(window(&long, 100).len(), 120);
        assert_eq!(window("ab", 5), "ab");
        assert_eq!(window(&long, 300), "");
    }
}
