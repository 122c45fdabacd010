//! Log-bucketed histograms for latency-shaped values.
//!
//! Latencies span orders of magnitude (a warm route is ~100 ns, a contended
//! socket round-trip ~100 µs), so fixed-width buckets are useless and exact
//! reservoirs are too expensive for a hot path. The classic compromise is
//! HDR-style **log bucketing**: values are grouped by their power-of-two
//! octave, each octave split into 4 linear sub-buckets, giving ≤ 12.5 %
//! relative error on every reported quantile while the whole histogram is a
//! fixed 252-slot array of integers — mergeable, allocation-free, and
//! recordable with one `fetch_add`.
//!
//! Two flavours share the bucket layout:
//!
//! * [`Histogram`] — atomic, safe to record into from many threads.
//! * [`LocalHistogram`] — plain integers for one thread; merged into an
//!   atomic histogram at natural boundaries (batch close, connection close)
//!   so latency-critical loops pay no atomic traffic per event.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: values 0–3 get exact buckets, every later power-of-two
/// octave (4 ≤ 2^k … 2^{k+1}) gets 4 linear sub-buckets, up to the full
/// `u64` range: `4 + 62·4 = 252`.
pub const BUCKETS: usize = 252;

/// The bucket index of `value`: exact below 4, `(msb−1)·4 + top-2-bits`
/// above. Monotone in `value`, so bucket order is value order.
#[inline]
fn bucket_of(value: u64) -> usize {
    if value < 4 {
        value as usize
    } else {
        let msb = 63 - value.leading_zeros() as usize;
        (msb - 1) * 4 + ((value >> (msb - 2)) & 3) as usize
    }
}

/// The inclusive lower bound of bucket `index` (the smallest value mapping to
/// it) — the inverse of [`bucket_of`] up to bucket resolution.
fn bucket_lower(index: usize) -> u64 {
    if index < 4 {
        index as u64
    } else {
        let msb = index / 4 + 1;
        let sub = (index % 4) as u64;
        (1u64 << msb) + (sub << (msb - 2))
    }
}

/// The representative value reported for bucket `index`: the midpoint of the
/// bucket's value range (its worst-case relative error is half the bucket
/// width, ≤ 12.5 %).
fn bucket_mid(index: usize) -> u64 {
    if index < 4 {
        index as u64
    } else {
        let width = 1u64 << (index / 4 - 1); // 2^(msb-2)
        bucket_lower(index) + width / 2
    }
}

/// A thread-safe log-bucketed histogram. Recording is one relaxed
/// `fetch_add` on the value's bucket (plus count/sum bookkeeping); snapshots
/// read every bucket without stopping writers.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Merges a thread-local histogram in (one `fetch_add` per *non-empty*
    /// bucket, not per observation) and resets the local one.
    pub fn merge_local(&self, local: &mut LocalHistogram) {
        if local.count == 0 {
            return;
        }
        for (i, &c) in local.buckets.iter().enumerate() {
            if c > 0 {
                self.buckets[i].fetch_add(c, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(local.count, Ordering::Relaxed);
        self.sum.fetch_add(local.sum, Ordering::Relaxed);
        *local = LocalHistogram::new();
    }

    /// Merges a thread-local histogram in **without resetting it** — the
    /// fan-out form of [`Histogram::merge_local`], for locals that feed more
    /// than one shared histogram (a reactor thread's latency local merges
    /// into both its per-reactor histogram and the server-wide aggregate;
    /// copy-merge into all but the last target, drain-merge into the last).
    pub fn merge_local_copy(&self, local: &LocalHistogram) {
        if local.count == 0 {
            return;
        }
        for (i, &c) in local.buckets.iter().enumerate() {
            if c > 0 {
                self.buckets[i].fetch_add(c, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(local.count, Ordering::Relaxed);
        self.sum.fetch_add(local.sum, Ordering::Relaxed);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time summary (quantiles, mean, max). Concurrent recording
    /// may straddle the bucket reads; at quiescence the summary is exact up
    /// to bucket resolution.
    pub fn summary(&self) -> HistogramSummary {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSummary::from_buckets(&buckets, self.sum.load(Ordering::Relaxed))
    }
}

/// The single-thread twin of [`Histogram`]: same buckets, plain integers.
#[derive(Debug, Clone)]
pub struct LocalHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for LocalHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LocalHistogram {
    /// An empty local histogram.
    pub fn new() -> Self {
        Self {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// Records one observation (plain integer arithmetic, no atomics).
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `count` observations of the same `value` — what a group
    /// timed once records for each of its members.
    pub fn record_n(&mut self, value: u64, count: u64) {
        self.buckets[bucket_of(value)] += count;
        self.count += count;
        self.sum += value * count;
    }

    /// Observations recorded since the last merge/reset.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// A summary of the local buckets alone.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary::from_buckets(&self.buckets, self.sum)
    }
}

/// A rendered histogram: count, mean, and the quantiles every latency report
/// needs. Quantile values are bucket midpoints (≤ 12.5 % relative error).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistogramSummary {
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Mean observed value (0 when empty).
    pub mean: f64,
    /// Median (p50).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Midpoint of the highest non-empty bucket (0 when empty).
    pub max: u64,
}

impl HistogramSummary {
    fn from_buckets(buckets: &[u64], sum: u64) -> Self {
        let count: u64 = buckets.iter().sum();
        if count == 0 {
            return Self::default();
        }
        let quantile = |q: f64| -> u64 {
            // Rank of the q-quantile under the "lower value at or above
            // rank" convention; walk the cumulative bucket counts.
            let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            for (i, &c) in buckets.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return bucket_mid(i);
                }
            }
            bucket_mid(BUCKETS - 1)
        };
        let max_bucket = buckets.iter().rposition(|&c| c > 0).unwrap_or(0);
        Self {
            count,
            sum,
            mean: sum as f64 / count as f64,
            p50: quantile(0.50),
            p90: quantile(0.90),
            p99: quantile(0.99),
            max: bucket_mid(max_bucket),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_invertible() {
        let mut values: Vec<u64> = (0..63u32)
            .flat_map(|shift| [0u64, 1, 3].map(|off| (1u64 << shift).saturating_add(off)))
            .collect();
        values.sort_unstable();
        let mut last = 0usize;
        for v in values {
            let b = bucket_of(v);
            assert!(
                b >= last,
                "bucket order must follow value order ({v} → {b})"
            );
            assert!(bucket_lower(b) <= v, "lower({b}) > {v}");
            last = b;
        }
        assert!(bucket_of(u64::MAX) < BUCKETS);
        // Exact buckets below 4.
        for v in 0..4u64 {
            assert_eq!(bucket_of(v), v as usize);
            assert_eq!(bucket_mid(v as usize), v);
        }
        // Bucket boundaries are seamless: value 4 starts bucket 4.
        assert_eq!(bucket_of(4), 4);
        assert_eq!(bucket_lower(4), 4);
    }

    #[test]
    fn quantiles_have_bounded_relative_error() {
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 10_000);
        for (q, expect) in [(s.p50, 5_000.0), (s.p90, 9_000.0), (s.p99, 9_900.0)] {
            let err = (q as f64 - expect).abs() / expect;
            assert!(err <= 0.13, "quantile {q} vs {expect}: rel err {err}");
        }
        assert!((s.mean - 5_000.5).abs() < 1.0);
        // `max` is the midpoint of the highest non-empty bucket, so it may
        // sit below the true max — but within bucket resolution of it.
        let max_err = (s.max as f64 - 10_000.0).abs() / 10_000.0;
        assert!(max_err <= 0.13, "max {} vs 10000: rel err {max_err}", s.max);
    }

    #[test]
    fn local_merge_equals_direct_recording() {
        let direct = Histogram::new();
        let merged = Histogram::new();
        let mut local = LocalHistogram::new();
        for v in [0u64, 1, 5, 17, 1000, 123_456, 7] {
            direct.record(v);
            local.record(v);
        }
        assert_eq!(local.count(), 7);
        merged.merge_local(&mut local);
        assert_eq!(local.count(), 0, "merge resets the local histogram");
        assert_eq!(direct.summary(), merged.summary());
        // Merging an empty local histogram is a no-op.
        merged.merge_local(&mut local);
        assert_eq!(merged.count(), 7);
    }

    #[test]
    fn record_n_equals_n_records() {
        let (mut looped, mut grouped) = (LocalHistogram::new(), LocalHistogram::new());
        for (value, count) in [(17u64, 32u64), (0, 3), (123_456, 1), (9, 0)] {
            (0..count).for_each(|_| looped.record(value));
            grouped.record_n(value, count);
        }
        assert_eq!(grouped.count(), 36);
        assert_eq!(looped.summary(), grouped.summary());
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Histogram::new());
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let h = std::sync::Arc::clone(&h);
                scope.spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1_000 + i % 977);
                    }
                });
            }
        });
        assert_eq!(h.count(), 40_000);
        assert_eq!(h.summary().count, 40_000);
    }

    #[test]
    fn empty_summary_is_zeroed() {
        assert_eq!(Histogram::new().summary(), HistogramSummary::default());
        assert_eq!(LocalHistogram::new().summary().count, 0);
    }
}
