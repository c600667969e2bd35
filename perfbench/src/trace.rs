//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around the public calls it makes into
//! the program (name, start, end, parent) and written out as JSON lines when
//! the run ends. Nothing inside the program is instrumented: a layer entered
//! only from inside the program is measured by its counters and a probe.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span store shared by every thread of a traced run. Threads record
/// into a [`LocalSpans`] buffer and append it once, so recording a span
/// takes no lock.
pub struct Tracer {
    origin: Instant,
    next_buffer: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// Span id 0 is the root: a span whose parent is 0 has no parent.
pub const ROOT: u64 = 0;

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            next_buffer: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// A thread-local buffer; its spans join the store when it is dropped.
    pub fn local(&self) -> LocalSpans<'_> {
        LocalSpans {
            tracer: self,
            prefix: self.next_buffer.fetch_add(1, Ordering::Relaxed) << 40,
            next: 1,
            spans: Vec::new(),
        }
    }

    /// Records `f` as a span directly into the store.
    pub fn span<R>(&self, name: &'static str, parent: u64, f: impl FnOnce() -> R) -> R {
        self.local().span(name, parent, f)
    }

    /// Every span recorded so far, in no particular order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("no recorder panicked").clone()
    }

    /// Every span called `name` that lies inside `[from_ns, to_ns]`, so a
    /// phase of the run can be read apart from the ones around it.
    pub fn within(&self, name: &str, from_ns: u64, to_ns: u64) -> Vec<Span> {
        let spans = self.spans.lock().expect("no recorder panicked");
        spans
            .iter()
            .filter(|s| s.name == name && s.start_ns >= from_ns && s.end_ns <= to_ns)
            .copied()
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut spans = self.spans();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// A per-thread span buffer. Ids are unique across buffers: each buffer
/// owns the id range `prefix..prefix + 2^40`.
pub struct LocalSpans<'a> {
    tracer: &'a Tracer,
    prefix: u64,
    next: u64,
    spans: Vec<Span>,
}

impl LocalSpans<'_> {
    /// Reserves an id for a span whose children are recorded before it ends.
    pub fn reserve(&mut self) -> u64 {
        let id = self.prefix | self.next;
        self.next += 1;
        id
    }

    pub fn now(&self) -> u64 {
        self.tracer.now()
    }

    /// Records an already timed span under a reserved id.
    pub fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
    }

    /// Records an already timed span.
    pub fn record(&mut self, name: &'static str, parent: u64, start_ns: u64, end_ns: u64) {
        let id = self.reserve();
        self.record_as(id, name, parent, start_ns, end_ns);
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, parent: u64, f: impl FnOnce() -> R) -> R {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.record(name, parent, start, end);
        out
    }
}

impl Drop for LocalSpans<'_> {
    fn drop(&mut self) {
        if self.spans.is_empty() {
            return;
        }
        // Never panic in drop: a poisoned store only loses this buffer.
        if let Ok(mut all) = self.tracer.spans.lock() {
            all.append(&mut self.spans);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_from_all_buffers_reach_the_store_with_unique_ids() {
        let tracer = Tracer::new();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let mut local = tracer.local();
                    let parent = local.reserve();
                    let start = local.now();
                    local.span("child", parent, || std::hint::black_box(1 + 1));
                    let end = local.now();
                    local.record_as(parent, "parent", ROOT, start, end);
                });
            }
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 4);
        let mut ids: Vec<u64> = spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4);
        for child in spans.iter().filter(|s| s.name == "child") {
            let parent = spans
                .iter()
                .find(|s| s.id == child.parent)
                .expect("parent recorded");
            assert!(parent.start_ns <= child.start_ns && child.end_ns <= parent.end_ns);
        }
        assert_eq!(tracer.within("parent", 0, u64::MAX).len(), 2);
        assert!(tracer.within("parent", u64::MAX - 1, u64::MAX).is_empty());
    }
}
