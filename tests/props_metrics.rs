//! Property-based tests for the deterministic metrics: the tree-shaped
//! merge behind `run_sharded`/`run_epochs` must render the same JSON as the
//! serial shard-order fold at any reduction parallelism and in any shard
//! order, and bucketed histogram quantiles must stay within their stated
//! error of the exact nearest-rank quantile.

use polsec::sim::{Histogram, MetricSet};
use proptest::prelude::*;

/// Small fixed key pools so generated sets overlap (merging disjoint sets
/// never exercises the interesting paths).
const COUNTER_KEYS: [&str; 4] = ["frames", "attack.leaked", "plane.sent", "ota.applied"];
const HISTOGRAM_KEYS: [&str; 3] = ["verdict_ns", "inbox.digest", "wall.decide_ns"];

/// Most shard sets a case generates.
const MAX_SETS: usize = 16;

/// One shard's worth of metrics: a few counters and histogram samples
/// drawn from the shared pools.
fn arb_metric_set() -> impl Strategy<Value = MetricSet> {
    let counters = prop::collection::vec((0usize..COUNTER_KEYS.len(), 0u64..1_000), 0..6);
    let samples = prop::collection::vec((0usize..HISTOGRAM_KEYS.len(), 0u64..1 << 32), 0..12);
    (counters, samples).prop_map(|(counters, samples)| {
        let mut m = MetricSet::new();
        for (k, n) in counters {
            m.count(COUNTER_KEYS[k], n);
        }
        for (k, v) in samples {
            m.observe(HISTOGRAM_KEYS[k], v);
        }
        m
    })
}

/// The reference reduction: the serial shard-order fold `run_sharded` used
/// before the tree merge existed.
fn serial_fold(sets: &[MetricSet]) -> MetricSet {
    let mut acc = MetricSet::new();
    for set in sets {
        acc.merge(set);
    }
    acc
}

/// `sets` reordered by ascending sort key (one key per set).
fn permuted(sets: &[MetricSet], keys: &[u64]) -> Vec<MetricSet> {
    let mut order: Vec<usize> = (0..sets.len()).collect();
    order.sort_by_key(|&i| (keys[i], i));
    order.into_iter().map(|i| sets[i].clone()).collect()
}

/// Values spread over many powers of two: exact small values, mid-range
/// latencies, 32-bit digests and values up to 2^54 (small enough that the
/// exact sum of a few hundred cannot overflow).
fn arb_value() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..200, 0u64..100_000, 0u64..1 << 32, 0u64..1 << 54]
}

proptest! {
    #[test]
    fn tree_merge_is_byte_identical_to_serial_fold(
        sets in prop::collection::vec(arb_metric_set(), 0..MAX_SETS + 1),
        keys in prop::collection::vec(any::<u64>(), MAX_SETS),
    ) {
        let reference_json = serial_fold(&sets).to_json();
        // Merge order cannot change the result: shard order and any
        // permutation of it give the same JSON at every budget.
        for order in [sets.clone(), permuted(&sets, &keys)] {
            for threads in [1usize, 2, 4, 8] {
                let tree = MetricSet::merge_tree(order.clone(), threads);
                prop_assert_eq!(
                    tree.to_json(),
                    reference_json.clone(),
                    "merged JSON diverged at threads={}",
                    threads
                );
            }
        }
    }

    #[test]
    fn tree_merge_counters_sum_exactly(
        sets in prop::collection::vec(arb_metric_set(), 0..MAX_SETS + 1),
    ) {
        let merged = MetricSet::merge_tree(sets.clone(), 4);
        for key in COUNTER_KEYS {
            let want: u64 = sets.iter().map(|s| s.counter(key)).sum();
            prop_assert_eq!(merged.counter(key), want, "counter {} mis-summed", key);
        }
    }

    #[test]
    fn quantile_error_is_within_the_stated_bound(
        values in prop::collection::vec(arb_value(), 1..300),
        qs in prop::collection::vec(0u32..=1_000, 1..8),
    ) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let n = sorted.len();
        prop_assert_eq!(h.count(), n);
        prop_assert_eq!(h.min(), sorted.first().copied());
        prop_assert_eq!(h.max(), sorted.last().copied());
        let exact_below = 1u64 << Histogram::SUB_BUCKET_BITS;
        for q in qs.into_iter().map(|q| f64::from(q) / 1_000.0).chain([0.0, 0.5, 0.99, 1.0]) {
            // exact nearest-rank oracle
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            let want = sorted[rank - 1];
            let got = h.quantile(q).expect("non-empty");
            if want < exact_below {
                prop_assert_eq!(got, want, "q={} below 2^k must be exact", q);
            } else {
                prop_assert!(got <= want, "q={}: {} above exact {}", q, got, want);
                let err = (want - got) as f64 / want as f64;
                prop_assert!(
                    err <= 1.0 / exact_below as f64,
                    "q={}: {} vs exact {} (relative error {})",
                    q, got, want, err
                );
            }
        }
    }
}
