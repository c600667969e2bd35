//! Counters and histograms for experiments.
//!
//! Every harness binary in `polsec-bench` reports through these types so the
//! output tables are produced uniformly. Histograms are log-linear bucket
//! counts: their memory is fixed by the largest value recorded, never by the
//! number of observations, and merging two of them is bucket addition.

use std::collections::BTreeMap;
use std::fmt;

/// Renders `s` as a JSON string literal (quoted, `"`/`\` and control
/// characters escaped). Shared by [`MetricSet::to_json`] and every other
/// hand-rolled JSON reporter in the workspace (`polsec-analyze`'s findings
/// report, the bench harness outputs) so they escape identically.
pub fn json_quote(s: &str) -> String {
    let escaped: String = s
        .chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

/// A monotonically increasing named counter.
///
/// # Example
/// ```
/// use polsec_sim::Counter;
/// let mut blocked = Counter::new("blocked");
/// blocked.incr();
/// blocked.add(4);
/// assert_eq!(blocked.value(), 5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counter {
    name: String,
    value: u64,
}

impl Counter {
    /// Creates a zeroed counter with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Counter {
            name: name.into(),
            value: 0,
        }
    }

    /// Increments by one.
    pub fn incr(&mut self) {
        self.value += 1;
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.value += n;
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.value
    }

    /// The counter's name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={}", self.name, self.value)
    }
}

/// A log-linear bucket histogram of `u64` observations.
///
/// Values below `2^SUB_BUCKET_BITS` get a bucket each and are exact. Each
/// power of two above that splits into `2^SUB_BUCKET_BITS` linear
/// sub-buckets, so a reported quantile is below the exact nearest-rank value
/// by a relative error of at most `2^-SUB_BUCKET_BITS`. The count, minimum,
/// maximum and sum are exact.
///
/// The bucket table grows only to the highest occupied bucket, so its size
/// is a function of the largest value recorded, not of how many values were
/// recorded. Merging is bucket addition, which is commutative: the merged
/// histogram does not depend on merge order.
///
/// # Example
/// ```
/// use polsec_sim::Histogram;
/// let mut h = Histogram::new();
/// for v in 1..=1_000u64 {
///     h.record(v);
/// }
/// assert_eq!((h.count(), h.min(), h.max(), h.sum()), (1_000, Some(1), Some(1_000), 500_500));
/// let p50 = h.quantile(0.5).unwrap();
/// assert!(p50 <= 500 && 500 - p50 <= 500 >> Histogram::SUB_BUCKET_BITS);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Histogram {
    /// Observation count per bucket, up to the highest occupied bucket.
    buckets: Vec<u64>,
    n: u64,
    min: u64,
    max: u64,
    sum: u64,
}

impl Histogram {
    /// Linear sub-buckets per power of two are `2^SUB_BUCKET_BITS`; values
    /// below `2^SUB_BUCKET_BITS` are exact.
    pub const SUB_BUCKET_BITS: u32 = 7;

    const SUB_BUCKETS: u64 = 1 << Self::SUB_BUCKET_BITS;

    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// The bucket holding `v`.
    fn bucket(v: u64) -> usize {
        if v < Self::SUB_BUCKETS {
            return v as usize;
        }
        // `v >> shift` keeps the top SUB_BUCKET_BITS + 1 bits, in
        // [SUB_BUCKETS, 2 * SUB_BUCKETS); each shift owns SUB_BUCKETS slots.
        let shift = 63 - v.leading_zeros() - Self::SUB_BUCKET_BITS;
        ((u64::from(shift) << Self::SUB_BUCKET_BITS) + (v >> shift)) as usize
    }

    /// The smallest value that falls into bucket `i`.
    fn floor(i: usize) -> u64 {
        let i = i as u64;
        if i < Self::SUB_BUCKETS {
            return i;
        }
        let shift = (i >> Self::SUB_BUCKET_BITS) - 1;
        (Self::SUB_BUCKETS | (i & (Self::SUB_BUCKETS - 1))) << shift
    }

    /// Grows the bucket table to hold bucket `i`, to exactly that length.
    fn reach(&mut self, i: usize) {
        if i >= self.buckets.len() {
            self.buckets.reserve_exact(i + 1 - self.buckets.len());
            self.buckets.resize(i + 1, 0);
        }
    }

    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        let i = Self::bucket(v);
        self.reach(i);
        self.buckets[i] += 1;
        if self.n == 0 {
            (self.min, self.max) = (v, v);
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.n += 1;
        self.sum += v;
    }

    /// Adds every observation of `other` to this histogram: bucket counts,
    /// counts and sums add; minimum and maximum combine.
    pub fn merge(&mut self, other: &Histogram) {
        if other.n == 0 {
            return;
        }
        if let Some(top) = other.buckets.len().checked_sub(1) {
            self.reach(top);
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        if self.n == 0 {
            (self.min, self.max) = (other.min, other.max);
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.n += other.n;
        self.sum += other.sum;
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.n as usize
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Minimum observation, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.n > 0).then_some(self.min)
    }

    /// Maximum observation, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.n > 0).then_some(self.max)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then(|| self.sum as f64 / self.n as f64)
    }

    /// The `q`-quantile (0.0..=1.0) by nearest rank, or `None` when empty:
    /// the floor of the bucket holding that rank, clamped to
    /// `[min, max]`. Exact below `2^SUB_BUCKET_BITS`; above, at most
    /// `2^-SUB_BUCKET_BITS` below the exact value, relatively.
    ///
    /// `quantile(0.5)` is the median; `quantile(0.99)` the p99.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.n == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        let i = self
            .buckets
            .iter()
            .position(|&c| {
                seen += c;
                seen >= rank
            })
            .unwrap_or(self.buckets.len() - 1);
        Some(Self::floor(i).clamp(self.min, self.max))
    }

    /// A compact single-line summary: `n min mean p50 p99 max`.
    pub fn summary(&self) -> String {
        if self.is_empty() {
            return "n=0".to_string();
        }
        let n = self.count();
        let min = self.min().unwrap_or(0);
        let max = self.max().unwrap_or(0);
        let mean = self.mean().unwrap_or(0.0);
        let p50 = self.quantile(0.50).unwrap_or(0);
        let p99 = self.quantile(0.99).unwrap_or(0);
        format!("n={n} min={min} mean={mean:.1} p50={p50} p99={p99} max={max}")
    }
}

/// A named collection of counters and histograms, the standard report shape
/// for harness binaries.
#[derive(Debug, Clone, Default)]
pub struct MetricSet {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        MetricSet::default()
    }

    /// Adds `n` to the named counter, creating it at zero if absent.
    /// The name is only turned into an owned `String` on first touch, so
    /// steady-state counting never allocates.
    pub fn count(&mut self, name: &str, n: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += n;
        } else {
            self.counters.insert(name.to_string(), n);
        }
    }

    /// Records a histogram observation under `name`. As with
    /// [`MetricSet::count`], the name is owned only on first touch.
    pub fn observe(&mut self, name: &str, v: u64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.record(v);
        } else {
            self.histograms
                .entry(name.to_string())
                .or_default()
                .record(v);
        }
    }

    /// Raises the named counter to at least `v` — a high-water gauge.
    ///
    /// Intended for run-level peaks recorded once per run (e.g. the plane's
    /// `plane.inbox_peak`). Note that [`MetricSet::merge`] *adds* counters,
    /// so gauges should be set on the merged set rather than merged from
    /// per-shard sets.
    pub fn set_max(&mut self, name: &str, v: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c = (*c).max(v);
        } else {
            self.counters.insert(name.to_string(), v);
        }
    }

    /// Reads a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A named histogram, if present.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterates counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Merges another metric set into this one: counters add, histograms
    /// add bucket by bucket.
    pub fn merge(&mut self, other: &MetricSet) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Merges an owned metric set into this one. Same result as
    /// [`MetricSet::merge`], but names and histograms this set lacks are
    /// moved rather than copied — the building block of
    /// [`MetricSet::merge_tree`].
    pub fn absorb(&mut self, other: MetricSet) {
        for (k, v) in other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        for (k, h) in other.histograms {
            match self.histograms.entry(k) {
                std::collections::btree_map::Entry::Occupied(mut e) => e.get_mut().merge(&h),
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(h);
                }
            }
        }
    }

    /// Reduces per-shard metric sets to one merged set along a binary tree,
    /// optionally fanning the reduction over up to `threads` threads (values
    /// `<= 1` reduce inline). Each node splits its slice at the midpoint.
    ///
    /// Counter sums and histogram bucket sums are commutative and
    /// associative, so the result equals folding the sets serially with
    /// [`MetricSet::merge`] in any order: same counters, same histograms,
    /// same [`MetricSet::to_json`] string. Thread count can only change
    /// wall-clock time, never the reduction — the property the sharded
    /// runners' determinism contract leans on.
    pub fn merge_tree(sets: Vec<MetricSet>, threads: usize) -> MetricSet {
        fn reduce(slots: &mut [Option<MetricSet>], budget: usize) -> MetricSet {
            match slots.len() {
                0 => MetricSet::new(),
                1 => slots[0].take().unwrap_or_default(),
                n => {
                    let (left, right) = slots.split_at_mut(n / 2);
                    let (mut l, r) = if budget > 1 && n >= 4 {
                        let left_budget = budget / 2;
                        let right_budget = budget - left_budget;
                        std::thread::scope(|scope| {
                            let right_half = scope.spawn(move || reduce(right, right_budget));
                            let l = reduce(left, left_budget);
                            let r = match right_half.join() {
                                Ok(r) => r,
                                Err(panic) => std::panic::resume_unwind(panic),
                            };
                            (l, r)
                        })
                    } else {
                        (reduce(left, 1), reduce(right, 1))
                    };
                    l.absorb(r);
                    l
                }
            }
        }
        let mut slots: Vec<Option<MetricSet>> = sets.into_iter().map(Some).collect();
        reduce(&mut slots, threads.max(1))
    }

    /// Moves every counter and histogram whose name starts with `prefix`
    /// into a new set, stripping the prefix from the moved names.
    ///
    /// Experiments use this to separate wall-clock measurements (prefixed
    /// e.g. `wall.`) from the deterministic metrics a replay must reproduce
    /// byte-for-byte.
    pub fn split_off_prefix(&mut self, prefix: &str) -> MetricSet {
        let mut out = MetricSet::new();
        let counter_keys: Vec<String> = self
            .counters
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect();
        for k in counter_keys {
            let v = self.counters.remove(&k).unwrap_or(0);
            out.counters.insert(k[prefix.len()..].to_string(), v);
        }
        let hist_keys: Vec<String> = self
            .histograms
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect();
        for k in hist_keys {
            if let Some(h) = self.histograms.remove(&k) {
                out.histograms.insert(k[prefix.len()..].to_string(), h);
            }
        }
        out
    }

    /// Renders the set as a compact, deterministically ordered JSON object:
    /// counters verbatim, histograms as
    /// `{n,min,mean,p50,p90,p99,max,sum}`.
    ///
    /// The output is a pure function of the recorded values (names sorted,
    /// fixed float formatting), so two runs with identical metrics produce
    /// byte-identical JSON — the replay-determinism checks compare exactly
    /// this string. The exact `sum` keeps histograms used as fingerprints
    /// (digests of inbox order, say) sensitive to every value, which the
    /// bucketed quantiles are not.
    pub fn to_json(&self) -> String {
        let quote = json_quote;
        let mut out = String::from("{\"counters\":{");
        let mut first = true;
        for (k, v) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("{}:{}", quote(k), v));
        }
        out.push_str("},\"histograms\":{");
        let mut first = true;
        for (k, h) in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            let (n, min, max) = (h.count(), h.min().unwrap_or(0), h.max().unwrap_or(0));
            let (sum, mean) = (h.sum(), h.mean().unwrap_or(0.0));
            let p50 = h.quantile(0.50).unwrap_or(0);
            let p90 = h.quantile(0.90).unwrap_or(0);
            let p99 = h.quantile(0.99).unwrap_or(0);
            out.push_str(&format!(
                "{}:{{\"n\":{n},\"min\":{min},\"mean\":{mean:.3},\"p50\":{p50},\"p90\":{p90},\"p99\":{p99},\"max\":{max},\"sum\":{sum}}}",
                quote(k)
            ));
        }
        out.push_str("}}");
        out
    }

    /// Renders all metrics as aligned text lines, histograms summarised.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            out.push_str(&format!("{k:<40} {v}\n"));
        }
        for (k, h) in &self.histograms {
            out.push_str(&format!("{k:<40} {}\n", h.summary()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new("x");
        c.incr();
        c.add(9);
        assert_eq!(c.value(), 10);
        assert_eq!(c.to_string(), "x=10");
        assert_eq!(c.name(), "x");
    }

    #[test]
    fn histogram_empty_behaviour() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.summary(), "n=0");
    }

    #[test]
    fn histogram_stats() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 4, 5, 6, 7, 8, 9, 10] {
            h.record(v);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(10));
        assert_eq!(h.sum(), 55);
        assert!((h.mean().unwrap() - 5.5).abs() < 1e-12);
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.quantile(0.5), Some(5));
        assert_eq!(h.quantile(1.0), Some(10));
    }

    #[test]
    fn buckets_are_contiguous_and_floors_bound_their_values() {
        let mut values: Vec<u64> = (0..4_096).collect();
        for shift in 0..64 {
            let p = 1u64 << shift;
            values.extend([p - 1, p, p + 1, p | (p >> 1), p.wrapping_mul(3) / 2]);
        }
        values.push(u64::MAX);
        for v in values {
            let i = Histogram::bucket(v);
            let floor = Histogram::floor(i);
            assert!(floor <= v, "floor {floor} above {v}");
            assert_eq!(Histogram::bucket(floor), i, "floor of bucket {i} lies outside it");
            if v < Histogram::SUB_BUCKETS {
                assert_eq!(floor, v, "small values are exact");
            } else {
                assert!((v - floor) < (v >> Histogram::SUB_BUCKET_BITS).max(1), "{v}: {floor}");
            }
            if v > 0 {
                // bucket indices are dense: v's predecessor lands in i or i - 1
                assert!(i - Histogram::bucket(v - 1) <= 1, "gap below {v}");
            }
        }
    }

    #[test]
    fn table_grows_only_to_the_highest_occupied_bucket() {
        let mut h = Histogram::new();
        h.record(3);
        assert_eq!(h.buckets.len(), 4);
        h.record(1_000);
        let top = Histogram::bucket(1_000);
        assert_eq!(h.buckets.len(), top + 1);
        for v in 0..1_000 {
            h.record(v);
        }
        assert_eq!(h.buckets.len(), top + 1, "smaller values never grow the table");
        assert_eq!(h.buckets.capacity(), top + 1);
    }

    #[test]
    fn quantiles_are_bucket_floors_clamped_to_the_range() {
        let mut h = Histogram::new();
        for v in [1_000u64, 1_001, 1_002, 5_000] {
            h.record(v);
        }
        // 1000..=1002 share the bucket starting at 1000 (width 8 above 2^9)
        assert_eq!(h.quantile(0.5), Some(1_000));
        assert_eq!(h.quantile(0.0), Some(1_000), "clamped up to the minimum");
        assert_eq!(h.quantile(1.0), Some(4_992), "floor of 5000's bucket");
        assert_eq!((h.min(), h.max(), h.sum()), (Some(1_000), Some(5_000), 8_003));
        let mut one = Histogram::new();
        one.record(5_000);
        assert_eq!(one.quantile(0.5), Some(5_000), "clamped to [min, max]");
    }

    #[test]
    fn quantile_nearest_rank_edge() {
        let mut h = Histogram::new();
        h.record(100);
        assert_eq!(h.quantile(0.01), Some(100));
        assert_eq!(h.quantile(0.99), Some(100));
    }

    #[test]
    fn quantile_after_interleaved_records() {
        let mut h = Histogram::new();
        h.record(5);
        assert_eq!(h.quantile(1.0), Some(5));
        h.record(1); // re-sorting must happen after new record
        assert_eq!(h.quantile(0.0), Some(1));
    }

    #[test]
    fn metric_set_counts_and_observes() {
        let mut m = MetricSet::new();
        m.count("granted", 3);
        m.count("granted", 2);
        m.observe("latency", 10);
        m.observe("latency", 20);
        assert_eq!(m.counter("granted"), 5);
        assert_eq!(m.counter("missing"), 0);
        assert_eq!(m.histogram("latency").unwrap().count(), 2);
        let text = m.render();
        assert!(text.contains("granted"));
        assert!(text.contains("latency"));
    }

    #[test]
    fn metric_set_json_is_deterministic_and_complete() {
        let mut m = MetricSet::new();
        m.count("z.second", 2);
        m.count("a.first", 1);
        for v in [5u64, 1, 9, 3] {
            m.observe("lat", v);
        }
        let json = m.to_json();
        assert_eq!(
            json,
            "{\"counters\":{\"a.first\":1,\"z.second\":2},\"histograms\":{\
             \"lat\":{\"n\":4,\"min\":1,\"mean\":4.500,\"p50\":3,\"p90\":9,\"p99\":9,\"max\":9,\"sum\":18}}}"
        );
        // Empty set is still valid JSON.
        assert_eq!(MetricSet::new().to_json(), "{\"counters\":{},\"histograms\":{}}");
    }

    #[test]
    fn split_off_prefix_partitions_and_strips() {
        let mut m = MetricSet::new();
        m.count("frames", 10);
        m.count("wall.elapsed_us", 123);
        m.observe("verdict.cycles", 4);
        m.observe("wall.decide_ns", 80);
        let wall = m.split_off_prefix("wall.");
        assert_eq!(wall.counter("elapsed_us"), 123);
        assert_eq!(wall.histogram("decide_ns").unwrap().count(), 1);
        assert_eq!(m.counter("frames"), 10);
        assert_eq!(m.counter("wall.elapsed_us"), 0, "moved out");
        assert!(m.histogram("wall.decide_ns").is_none());
        assert!(m.histogram("verdict.cycles").is_some());
    }

    #[test]
    fn set_max_behaves_as_high_water_gauge() {
        let mut m = MetricSet::new();
        m.set_max("peak", 5);
        assert_eq!(m.counter("peak"), 5);
        m.set_max("peak", 3);
        assert_eq!(m.counter("peak"), 5, "lower values never regress the gauge");
        m.set_max("peak", 9);
        assert_eq!(m.counter("peak"), 9);
    }

    #[test]
    fn absorb_matches_merge() {
        let mut base = MetricSet::new();
        base.count("x", 1);
        base.observe("h", 5);
        let mut other = MetricSet::new();
        other.count("x", 2);
        other.observe("h", 9_000);
        other.observe("h", 1);
        other.observe("only", 3);

        let mut merged = base.clone();
        merged.merge(&other);
        let mut absorbed = base;
        absorbed.absorb(other);
        assert_eq!(absorbed.histogram("h"), merged.histogram("h"));
        assert_eq!(absorbed.to_json(), merged.to_json());
        let h = absorbed.histogram("h").unwrap();
        assert_eq!(
            (h.count(), h.min(), h.max(), h.sum()),
            (3, Some(1), Some(9_000), 9_006)
        );
    }

    fn indexed_set(i: usize) -> MetricSet {
        let mut m = MetricSet::new();
        m.count("shards", 1);
        m.count(&format!("only.{i}"), i as u64 + 1);
        for k in 0..5 {
            m.observe("order", (i * 1_000 + k) as u64);
        }
        m
    }

    #[test]
    fn merge_tree_matches_serial_fold_in_either_order() {
        for n in [0usize, 1, 2, 3, 7, 16, 33] {
            let mut forward = MetricSet::new();
            let mut backward = MetricSet::new();
            for i in 0..n {
                forward.merge(&indexed_set(i));
                backward.merge(&indexed_set(n - 1 - i));
            }
            assert_eq!(forward.to_json(), backward.to_json(), "n={n}");
            for threads in [1usize, 2, 4, 8] {
                let tree = MetricSet::merge_tree((0..n).map(indexed_set).collect(), threads);
                assert_eq!(tree.histogram("order"), forward.histogram("order"));
                assert_eq!(tree.to_json(), forward.to_json(), "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn metric_set_merge() {
        let mut a = MetricSet::new();
        a.count("x", 1);
        a.observe("h", 5);
        let mut b = MetricSet::new();
        b.count("x", 2);
        b.count("y", 7);
        b.observe("h", 9);
        a.merge(&b);
        assert_eq!(a.counter("x"), 3);
        assert_eq!(a.counter("y"), 7);
        assert_eq!(a.histogram("h").unwrap().count(), 2);
    }
}
