//! Fixed log-bucketed (HDR-style) histograms over `u64` values.
//!
//! ## Bucket layout
//!
//! Each power-of-two range `[2^k, 2^(k+1))` is split into `2^SUB_BITS = 32`
//! linear sub-buckets, so every bucket's width is at most `1/32` of its
//! lower bound: a recorded value is reproducible from its bucket to within
//! **3.125 % relative error** ([`RELATIVE_ERROR_BOUND`]). Values below 32
//! land in their own exact bucket (index = value). The whole `u64` range
//! fits in [`N_BUCKETS`] = 1920 buckets (~15 KiB of `AtomicU64`s), so the
//! histogram is allocated once and never resizes.
//!
//! ## Concurrency
//!
//! [`Histogram::record`] is three relaxed atomic ops (bucket, count, sum)
//! plus a `fetch_max` for the exact maximum — no locks, safe from any
//! thread, and cheap enough for the reactor's per-request hot path.
//! Reads ([`Histogram::snapshot`], quantiles) tolerate concurrent writers;
//! they observe some interleaving of recent records, which is all a
//! metrics endpoint needs.
//!
//! ## Quantiles
//!
//! [`Histogram::quantile`] is nearest-rank over the bucket counts and
//! returns the matched bucket's **upper** bound (clamped to the exact
//! recorded maximum), so the returned value is always `≥` the true
//! nearest-rank sample and at most `(1 + 1/32)×` it. Merging two
//! histograms ([`Histogram::merge_from`]) is element-wise addition and is
//! exactly equivalent to recording both value streams into one histogram.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket resolution: each power of two is split into `2^SUB_BITS`
/// linear buckets.
const SUB_BITS: u32 = 5;
/// Sub-buckets per power of two (`2^SUB_BITS`).
const SUB: usize = 1 << SUB_BITS;
/// Total bucket count covering the whole `u64` range.
pub const N_BUCKETS: usize = ((64 - SUB_BITS as usize) << SUB_BITS) + SUB;
/// Worst-case relative error of any value reconstructed from its bucket
/// (and therefore of every reported quantile): one sub-bucket width over
/// the bucket's lower bound, `1/32`.
pub const RELATIVE_ERROR_BOUND: f64 = 1.0 / SUB as f64;

/// Bucket index of a recorded value.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let exp = msb - SUB_BITS;
    let sub = ((v >> exp) as usize) & (SUB - 1);
    (((exp + 1) as usize) << SUB_BITS) + sub
}

/// Inclusive `[lower, upper]` value range of bucket `idx`.
fn bucket_bounds(idx: usize) -> (u64, u64) {
    if idx < SUB {
        return (idx as u64, idx as u64);
    }
    let exp = (idx >> SUB_BITS) as u32 - 1;
    let sub = (idx & (SUB - 1)) as u64;
    let lower = (SUB as u64 + sub) << exp;
    let upper = lower + ((1u64 << exp) - 1);
    (lower, upper)
}

/// A lock-free, mergeable, log-bucketed histogram of `u64` values.
///
/// The unit of the recorded values is the caller's choice (the serving
/// layer records microseconds, the estimator layer nanoseconds); the
/// histogram itself is unit-agnostic.
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram (one fixed allocation, never resizes).
    pub fn new() -> Histogram {
        Histogram {
            buckets: (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one value. Lock-free; callable from any thread.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded values (wrapping only past `u64::MAX` total).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Exact maximum recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Nearest-rank quantile (`q` in `[0, 1]`), `None` when empty.
    ///
    /// Returns the upper bound of the bucket holding the rank, clamped to
    /// the exact maximum — always `≥` the true sample at that rank and at
    /// most `(1 + RELATIVE_ERROR_BOUND)×` it.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        self.snapshot().quantile(q)
    }

    /// Add every bucket of `other` into `self`: exactly equivalent to
    /// having recorded `other`'s values here.
    pub fn merge_from(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket counts for quantiles/exposition.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An owned copy of a [`Histogram`]'s state, for quantile math and
/// Prometheus exposition without holding the live atomics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Exact maximum recorded value.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Nearest-rank quantile over the snapshot; see [`Histogram::quantile`].
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= rank {
                let (_, upper) = bucket_bounds(idx);
                return Some(upper.min(self.max));
            }
        }
        Some(self.max)
    }

    /// The shared percentile readout: nearest-rank p50/p90/p99 (each
    /// clamped to the exact max) and the max, passed through `to_ms` from
    /// the recorded unit to milliseconds. The mean is `to_ms(sum) / count`.
    /// `None` when empty.
    pub fn summary_ms(&self, to_ms: impl Fn(u64) -> f64) -> Option<LatencySummary> {
        let pct = |q: f64| self.quantile(q).map(&to_ms);
        Some(LatencySummary {
            count: self.count,
            mean_ms: to_ms(self.sum) / self.count as f64,
            p50_ms: pct(0.50)?,
            p90_ms: pct(0.90)?,
            p99_ms: pct(0.99)?,
            max_ms: to_ms(self.max),
        })
    }

    /// Non-empty buckets as `(upper_bound_inclusive, count)` pairs in
    /// increasing bound order — the raw material for `_bucket` series.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(idx, &n)| (bucket_bounds(idx).1, n))
            .collect()
    }
}

/// Identifier of the workspace's shared quantile semantics, stamped into
/// bench JSON rows (`BENCH_serve.json`, `BENCH_scale.json`) so a consumer
/// can tell histogram-derived percentiles from the exact sorted-sample
/// percentiles older rows carried.
pub const QUANTILE_METHOD: &str = "log_bucket_hist";

/// A latency summary over millisecond samples with the same quantile
/// semantics as the serving layer's recorders: each sample is recorded
/// into a log-bucketed [`Histogram`] as whole microseconds, percentiles
/// are nearest-rank bucket upper bounds (within
/// [`RELATIVE_ERROR_BOUND`] above the exact value), and the max is the
/// exact recorded maximum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Number of samples summarized.
    pub count: u64,
    /// Exact arithmetic mean, milliseconds.
    pub mean_ms: f64,
    /// p50, milliseconds.
    pub p50_ms: f64,
    /// p90, milliseconds.
    pub p90_ms: f64,
    /// p99, milliseconds.
    pub p99_ms: f64,
    /// Exact maximum (at the recorded unit's resolution), milliseconds.
    pub max_ms: f64,
}

/// Summarize millisecond latency samples through the shared log-bucketed
/// histogram; `None` when `samples` is empty. This is what the bench and
/// replay harnesses use so their percentiles agree with the serve
/// layer's `/v1/metrics` and `/metrics` numbers.
pub fn summarize_ms(samples: &[f64]) -> Option<LatencySummary> {
    let hist = Histogram::new();
    for &ms in samples {
        hist.record((ms * 1e3).max(0.0) as u64);
    }
    let summary = hist.snapshot().summary_ms(|us| us as f64 / 1e3)?;
    Some(LatencySummary {
        mean_ms: samples.iter().sum::<f64>() / samples.len() as f64,
        ..summary
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_contiguous_and_exhaustive() {
        // Every bucket's lower bound is the previous bucket's upper + 1.
        let mut expect = 0u64;
        for idx in 0..N_BUCKETS {
            let (lo, hi) = bucket_bounds(idx);
            assert_eq!(lo, expect, "bucket {idx} lower bound");
            assert!(hi >= lo);
            // Values map back into the bucket whose range holds them.
            assert_eq!(bucket_index(lo), idx);
            assert_eq!(bucket_index(hi), idx);
            if hi == u64::MAX {
                assert_eq!(idx, N_BUCKETS - 1, "only the last bucket tops out");
                return;
            }
            expect = hi + 1;
        }
        panic!("layout never reached u64::MAX");
    }

    #[test]
    fn summarize_ms_matches_histogram_semantics() {
        assert!(summarize_ms(&[]).is_none());
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = summarize_ms(&samples).unwrap();
        assert_eq!(s.count, 100);
        assert!((s.mean_ms - 50.5).abs() < 1e-9);
        for (got, exact) in [(s.p50_ms, 50.0), (s.p90_ms, 90.0), (s.p99_ms, 99.0)] {
            assert!(got >= exact && got <= exact * (1.0 + RELATIVE_ERROR_BOUND));
        }
        assert_eq!(s.max_ms, 100.0);
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in [0u64, 1, 5, 31] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.quantile(0.5), Some(1));
        assert_eq!(h.quantile(1.0), Some(31));
        assert_eq!(h.max(), 31);
        assert_eq!(h.sum(), 37);
    }

    #[test]
    fn quantile_error_is_bounded() {
        let h = Histogram::new();
        let mut values: Vec<u64> = (0..1000).map(|i| (i * i * 37 + 11) as u64).collect();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        for q in [0.5, 0.9, 0.99, 0.999] {
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let truth = values[rank - 1];
            let got = h.quantile(q).unwrap();
            assert!(got >= truth, "q{q}: {got} < exact {truth}");
            assert!(
                got as f64 <= truth as f64 * (1.0 + RELATIVE_ERROR_BOUND),
                "q{q}: {got} exceeds error bound over exact {truth}"
            );
        }
    }

    #[test]
    fn merge_equals_record_all() {
        let a = Histogram::new();
        let b = Histogram::new();
        let all = Histogram::new();
        for i in 0..500u64 {
            let v = i * 97 + 3;
            if i % 2 == 0 { &a } else { &b }.record(v);
            all.record(v);
        }
        a.merge_from(&b);
        assert_eq!(a.snapshot(), all.snapshot());
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.snapshot().summary_ms(|v| v as f64), None);
        assert!(h.snapshot().nonzero_buckets().is_empty());
    }
}
