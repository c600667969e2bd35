//! Small statistics helpers: medians, a log-bucketed latency histogram and
//! the counters the per-layer ledger reads out of a metric set.

use polsec_sim::MetricSet;

/// Median of `xs` (mean of the middle pair for an even count); 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Latency histogram: exact below 2048 ns, then 1024 linear sub-buckets per
/// power of two (relative error below 0.1%). Fixed size, so recording
/// millions of samples costs no memory growth.
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
}

const EXACT: u64 = 2048;
const SUB_BITS: u32 = 10;
const OCTAVES: usize = 32;

impl LatencyHistogram {
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: vec![0; EXACT as usize + (OCTAVES << SUB_BITS)],
            count: 0,
        }
    }

    fn index(ns: u64) -> usize {
        if ns < EXACT {
            return ns as usize;
        }
        let top = 63 - ns.leading_zeros(); // >= 11
        let octave = ((top - 11) as usize).min(OCTAVES - 1);
        let sub = ((ns >> (top - SUB_BITS)) & ((1 << SUB_BITS) - 1)) as usize;
        EXACT as usize + (octave << SUB_BITS) + sub
    }

    /// The smallest value that falls into bucket `i`.
    fn floor(i: usize) -> u64 {
        if i < EXACT as usize {
            return i as u64;
        }
        let octave = ((i - EXACT as usize) >> SUB_BITS) as u32;
        let sub = ((i - EXACT as usize) & ((1 << SUB_BITS) - 1)) as u64;
        let top = octave + 11;
        (1u64 << top) | (sub << (top - SUB_BITS))
    }

    pub fn record(&mut self, ns: u64) {
        self.buckets[Self::index(ns)] += 1;
        self.count += 1;
    }

    pub fn absorb(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `q` quantile (0..=1), as the floor of the bucket holding it.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::floor(i) as f64;
            }
        }
        Self::floor(self.buckets.len() - 1) as f64
    }
}

/// Sum of the sample counts (`"n"`) of every histogram in a metric set —
/// the number of raw samples the set keeps in memory.
pub fn histogram_samples(set: &mut MetricSet) -> u64 {
    let json = set.to_json();
    let Some(start) = json.find("\"histograms\":") else {
        return 0;
    };
    json[start..]
        .split("\"n\":")
        .skip(1)
        .filter_map(|rest| {
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            digits.parse::<u64>().ok()
        })
        .sum()
}

/// FNV-1a over bytes.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01B3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn latency_histogram_quantiles_are_within_a_bucket() {
        let mut h = LatencyHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v * 10);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((p50 - 50_000.0).abs() / 50_000.0 < 0.002, "{p50}");
        assert!((p99 - 99_000.0).abs() / 99_000.0 < 0.002, "{p99}");
        assert_eq!(h.count(), 10_000);
        for v in [0u64, 1, 2047, 2048, 4095, 1 << 20, u64::MAX >> 20] {
            let i = LatencyHistogram::index(v);
            assert!(LatencyHistogram::floor(i) <= v);
        }
    }

    #[test]
    fn histogram_samples_sums_every_histogram() {
        let mut m = MetricSet::new();
        m.count("n", 7);
        m.observe("a", 1);
        m.observe("a", 2);
        m.observe("b", 3);
        assert_eq!(histogram_samples(&mut m), 3);
    }
}
