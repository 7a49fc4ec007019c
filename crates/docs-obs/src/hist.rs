//! Log-bucketed latency histograms: a single-threaded recorder for
//! per-thread harness bookkeeping and a lock-free atomic-bucket recorder
//! for the service hot path.
//!
//! Both share one bucket geometry, the classic HDR shape: values land in
//! power-of-two octaves, each octave split into 2^`SUB_BITS` = 16 linear
//! sub-buckets, so recording is a handful of bit operations, memory is a
//! fixed ~8 KiB of counters, and any quantile is reported with bounded
//! **relative** error (a bucket spans at most 1/16 ≈ 6.25% of its value)
//! across the full `u64` nanosecond range — equally sharp at 3 µs and at
//! 3 s, which is exactly what a p999 over a heavy-tailed
//! assignment-latency distribution needs.
//!
//! [`LatencyHistogram`] is deliberately single-threaded; a load harness
//! keeps one per generator thread and [`LatencyHistogram::merge`]s them at
//! the end. [`AtomicHistogram`] is the shared form: every bucket is an
//! `AtomicU64` bumped with one relaxed `fetch_add`, so shard threads and
//! client handles record into the same histogram without a lock — the
//! `record ≤ ~20 ns` budget the service metrics hold it to
//! (`BENCH_obs.json`, `hist_record_ns`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Sub-bucket resolution: each power-of-two octave is split into
/// `2^SUB_BITS` linear buckets.
const SUB_BITS: u32 = 4;
/// Linear sub-buckets per octave (values below this are exact).
pub const SUBS: usize = 1 << SUB_BITS;
/// Octaves above the linear region: values with a most-significant bit in
/// `SUB_BITS..64` each get one octave of [`SUBS`] buckets; values below
/// `2^SUB_BITS` are exact (one bucket per nanosecond).
const BUCKETS: usize = SUBS + (64 - SUB_BITS as usize) * SUBS;

/// Returns the bucket index of a nanosecond value. Zero shares the first
/// bucket with 1 ns — the difference is far below timer resolution.
#[inline]
fn bucket_of(ns: u64) -> usize {
    let v = ns.max(1);
    let msb = 63 - v.leading_zeros();
    if msb < SUB_BITS {
        return v as usize;
    }
    let octave = (msb - SUB_BITS) as usize;
    let sub = ((v >> (msb - SUB_BITS)) as usize) - SUBS;
    SUBS + octave * SUBS + sub
}

/// The smallest nanosecond value a bucket holds (its reported quantile
/// value, which keeps quantiles conservative-from-below and exact for the
/// sub-16 ns linear region).
#[inline]
fn bucket_floor(index: usize) -> u64 {
    if index < SUBS {
        return index as u64;
    }
    let octave = ((index - SUBS) / SUBS) as u32;
    let sub = ((index - SUBS) % SUBS) as u64;
    (SUBS as u64 + sub) << octave
}

/// Fixed-footprint log-bucketed histogram of nanosecond latencies.
#[derive(Clone)]
pub struct LatencyHistogram {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
    sum_ns: u128,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: Box::new([0; BUCKETS]),
            total: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }

    /// Records one latency sample.
    #[inline]
    pub fn record(&mut self, latency: Duration) {
        self.record_ns(latency.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Records one latency sample in nanoseconds.
    #[inline]
    pub fn record_ns(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
        self.sum_ns += ns as u128;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Folds another histogram's samples into this one (used to combine
    /// per-thread histograms after a run).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.total += other.total;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact maximum recorded value (tracked outside the buckets).
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Exact sum of all recorded values, in nanoseconds.
    pub fn sum_ns(&self) -> u128 {
        self.sum_ns
    }

    /// Mean in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.sum_ns as f64 / self.total as f64
    }

    /// The `q`-quantile (`0.0..=1.0`) in nanoseconds: the floor of the
    /// bucket holding the ⌈q·n⌉-th smallest sample, so the true value is
    /// within one sub-bucket (≤ 6.25%) above the reported one. `q = 1.0`
    /// returns the exact maximum. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max_ns;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return bucket_floor(index);
            }
        }
        self.max_ns
    }

    /// The `q`-quantile in (fractional) milliseconds — the unit the bench
    /// JSON and gate work in.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        self.quantile(q) as f64 / 1e6
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.total)
            .field("p50_ns", &self.quantile(0.50))
            .field("p99_ns", &self.quantile(0.99))
            .field("p999_ns", &self.quantile(0.999))
            .field("max_ns", &self.max_ns)
            .finish()
    }
}

/// Lock-free shared histogram over the same bucket geometry: per-bucket
/// `AtomicU64`s bumped with relaxed `fetch_add`, so any number of threads
/// record concurrently without coordination. Reads ([`AtomicHistogram::
/// snapshot`]) are racy-by-design across buckets — a snapshot taken while
/// writers run may be off by the handful of samples in flight, which is
/// exactly the tolerance a monitoring read has.
pub struct AtomicHistogram {
    counts: Box<[AtomicU64; BUCKETS]>,
    total: AtomicU64,
    /// Sum in nanoseconds. `u64` (not the single-threaded recorder's
    /// `u128`, which has no atomic): wraps after ~584 years of summed
    /// latency, far beyond any process lifetime.
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        AtomicHistogram {
            // `AtomicU64` is not Copy; build the boxed array through a Vec.
            counts: (0..BUCKETS)
                .map(|_| AtomicU64::new(0))
                .collect::<Vec<_>>()
                .into_boxed_slice()
                .try_into()
                .expect("BUCKETS-sized boxed slice"),
            total: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    /// Records one latency sample.
    #[inline]
    pub fn record(&self, latency: Duration) {
        self.record_ns(latency.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Records one latency sample in nanoseconds: one bucket `fetch_add`,
    /// two counter `fetch_add`s, and a `fetch_max`, all relaxed — the
    /// whole hot path is wait-free and takes no lock.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.counts[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Exact maximum recorded value.
    pub fn max_ns(&self) -> u64 {
        self.max_ns.load(Ordering::Relaxed)
    }

    /// Sum of all recorded values, in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns.load(Ordering::Relaxed)
    }

    /// A point-in-time copy as a single-threaded [`LatencyHistogram`] —
    /// the read side: quantiles, merges, and rendering all happen on the
    /// copy, never on the hot-path atomics.
    pub fn snapshot(&self) -> LatencyHistogram {
        let mut out = LatencyHistogram::new();
        let mut total = 0u64;
        for (index, bucket) in self.counts.iter().enumerate() {
            let n = bucket.load(Ordering::Relaxed);
            out.counts[index] = n;
            total += n;
        }
        // Derive `total` from the buckets actually copied, so the snapshot
        // is internally consistent even when writers raced the read; the
        // sum/max gauges are monitoring values and may trail by the
        // samples in flight.
        out.total = total;
        out.sum_ns = self.sum_ns.load(Ordering::Relaxed) as u128;
        out.max_ns = self.max_ns.load(Ordering::Relaxed);
        out
    }
}

impl std::fmt::Debug for AtomicHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.snapshot().fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_u64_range_in_order() {
        // Floors are non-decreasing, every floor maps back to its own
        // bucket, and bucketing is monotone across octave boundaries.
        let mut last = 0;
        for index in 0..BUCKETS {
            let floor = bucket_floor(index);
            assert!(floor >= last, "floor regressed at bucket {index}");
            assert_eq!(bucket_of(floor.max(1)), index.max(1), "floor {floor}");
            last = floor;
        }
        for probe in [1u64, 15, 16, 17, 255, 256, 1 << 20, u64::MAX] {
            assert!(bucket_floor(bucket_of(probe)) <= probe);
        }
    }

    #[test]
    fn small_values_are_exact_and_quantiles_walk_the_ranks() {
        let mut h = LatencyHistogram::new();
        for ns in 1..=10u64 {
            h.record_ns(ns);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.quantile(0.5), 5, "values below 16 ns land exactly");
        assert_eq!(h.quantile(0.1), 1);
        assert_eq!(h.quantile(1.0), 10);
        assert_eq!(h.max_ns(), 10);
        assert!((h.mean_ns() - 5.5).abs() < 1e-9);
        assert_eq!(h.quantile_ms(1.0), 10.0 / 1e6);
    }

    #[test]
    fn quantile_relative_error_is_bounded_by_one_sub_bucket() {
        let mut h = LatencyHistogram::new();
        // A wide deterministic spread: 1 µs .. 1 s in geometric steps.
        let mut values = Vec::new();
        let mut v = 1_000u64;
        while v < 1_000_000_000 {
            values.push(v);
            v += v / 7 + 1;
        }
        for &v in &values {
            h.record_ns(v);
        }
        values.sort_unstable();
        for &(q, _) in &[(0.5, ()), (0.9, ()), (0.99, ()), (0.999, ())] {
            let rank = ((q * values.len() as f64).ceil() as usize).max(1);
            let exact = values[rank - 1] as f64;
            let got = h.quantile(q) as f64;
            assert!(got <= exact, "quantile must report the bucket floor");
            assert!(
                got >= exact * (1.0 - 1.0 / SUBS as f64),
                "q={q}: {got} vs exact {exact}"
            );
        }
    }

    #[test]
    fn merge_equals_recording_everything_in_one_histogram() {
        let (mut a, mut b, mut all) = (
            LatencyHistogram::new(),
            LatencyHistogram::new(),
            LatencyHistogram::new(),
        );
        for i in 0..1000u64 {
            let ns = i * 7919 + 13;
            if i % 2 == 0 {
                a.record_ns(ns);
            } else {
                b.record_ns(ns);
            }
            all.record_ns(ns);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.max_ns(), all.max_ns());
        for q in [0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(a.quantile(q), all.quantile(q), "q={q}");
        }
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.max_ns(), 0);
        assert_eq!(h.mean_ns(), 0.0);
    }

    #[test]
    fn atomic_histogram_matches_the_single_threaded_recorder() {
        let atomic = AtomicHistogram::new();
        let mut plain = LatencyHistogram::new();
        for i in 0..10_000u64 {
            let ns = i * 104_729 % 50_000_000;
            atomic.record_ns(ns);
            plain.record_ns(ns);
        }
        let snap = atomic.snapshot();
        assert_eq!(snap.count(), plain.count());
        assert_eq!(snap.max_ns(), plain.max_ns());
        assert_eq!(snap.sum_ns(), plain.sum_ns());
        for q in [0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(snap.quantile(q), plain.quantile(q), "q={q}");
        }
    }

    #[test]
    fn concurrent_atomic_recording_loses_no_sample() {
        let h = std::sync::Arc::new(AtomicHistogram::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record_ns((t * 10_000 + i) % 1_000_000 + 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 80_000);
        assert!(snap.max_ns() <= 1_000_000);
        assert!(snap.quantile(0.5) > 0);
    }
}
