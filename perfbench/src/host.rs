//! Host fingerprint and process memory, recorded with every result.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Peak resident set size of this process in MB (`VmHWM`), or 0 if the
/// platform does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting live heap bytes and their peak.
///
/// Peak resident memory is a poor yardstick here: the same binary on the
/// same input read 25 or 31 MB of anonymous memory depending on the
/// directory it ran from, because the allocator's layout decides whether
/// pre-reserved buffers share pages that are already resident. The bytes
/// the program asks for do not depend on that.
pub struct CountingAlloc;

fn note_alloc(size: usize) {
    let live = LIVE_BYTES.fetch_add(size, Ordering::Relaxed) + size;
    if live > PEAK_BYTES.load(Ordering::Relaxed) {
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to the system allocator with the caller's
// arguments unchanged; the counters are plain atomics that allocate nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded under the caller's `GlobalAlloc::alloc` contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            note_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded under the caller's `alloc_zeroed` contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            note_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded under the caller's `dealloc` contract.
        unsafe { System.dealloc(ptr, layout) };
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded under the caller's `realloc` contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
            note_alloc(new_size);
        }
        new
    }
}

/// The most heap memory, in MB, the process has held at once so far.
pub fn peak_heap_mb() -> f64 {
    PEAK_BYTES.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_s(clock_id: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` (two 64-bit
    // fields on 64-bit Linux, matching `Timespec`) through the pointer,
    // which is valid and exclusive for the call, and touches nothing else.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "Linux supports the CPU-time clocks");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds this process has used, all threads included, finished ones
/// too. The kernel leaves out time the hypervisor stole from the virtual
/// CPU, so this does not move with the host's load the way wall time does.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds the calling thread has used (steal excluded, as for
/// [`process_cpu_s`]).
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// A Linux `cpu_set_t`: one bit per CPU, 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Pins the calling thread to the `index`-th CPU it may run on (modulo
/// their number). Two decide clients left to the scheduler sometimes share
/// one CPU in turns and never contend; pinned, they always run side by
/// side, as a service's clients would. Returns whether it pinned.
pub fn pin_to_cpu(index: usize) -> bool {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: the kernel writes at most `size` bytes of CPU mask into
    // `allowed`, which is valid and exclusive for the call; pid 0 is the
    // calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
        return false;
    }
    let cpus: Vec<usize> = (0..1024)
        .filter(|&c| allowed[c / 64] & (1 << (c % 64)) != 0)
        .collect();
    if cpus.is_empty() {
        return false;
    }
    let cpu = cpus[index % cpus.len()];
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: the kernel reads `size` bytes of CPU mask from `one`, which is
    // valid for the call; pid 0 is the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) == 0 }
}

/// Seconds the hypervisor has stolen from this machine's CPUs since boot,
/// averaged over its CPUs (`/proc/stat` counts 100 ticks a second, summed
/// over CPUs on its first line, one line per CPU after it).
pub fn stolen_per_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let mut lines = stat.lines();
    let ticks = lines
        .next()
        .and_then(|all| all.split_whitespace().nth(8))
        .and_then(|t| t.parse::<f64>().ok())
        .unwrap_or(0.0);
    let cpus = lines.take_while(|l| l.starts_with("cpu")).count().max(1);
    ticks / 100.0 / cpus as f64
}

fn cpu_model() -> String {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    info.lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|rest| rest.split_once(':'))
        .map_or_else(|| "unknown".to_string(), |(_, m)| m.trim().to_string())
}

/// Runs a command to completion and returns its trimmed stdout.
fn command_output(program: &str, args: &[&str], dir: &str) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The fingerprint as one JSON object: `nproc`, CPU model, `rustc -V`, git
/// revision, worker threads and seed.
pub fn fingerprint_json(threads: usize, seed: u64) -> String {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = command_output("rustc", &["-V"], root).unwrap_or_else(|| "unknown".into());
    // Only ask git inside a checkout of this repository: git would
    // otherwise report the revision of whatever repository encloses it.
    let git = std::path::Path::new(root)
        .join(".git")
        .exists()
        .then(|| command_output("git", &["rev-parse", "HEAD"], root))
        .flatten()
        .unwrap_or_else(|| "none (not a git checkout)".into());
    format!(
        "{{\"nproc\":{nproc},\"cpu\":{},\"rustc\":{},\"git_rev\":{},\"threads\":{threads},\"seed\":{seed}}}",
        polsec_sim::json_quote(&cpu_model()),
        polsec_sim::json_quote(&rustc),
        polsec_sim::json_quote(&git),
    )
}
