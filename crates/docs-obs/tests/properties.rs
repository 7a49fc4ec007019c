//! Property-based tests (proptest) pinning the histogram contract the
//! rest of the stack leans on: merging per-thread recorders is lossless,
//! and any quantile is within one sub-bucket (1/SUBS = 1/16 relative
//! error) of the exact order statistic.

use docs_obs::hist::{AtomicHistogram, LatencyHistogram, SUBS};
use proptest::prelude::*;

/// Strategy: latency samples spanning nanoseconds to seconds — the range
/// the service actually records (hot-path ops through WAL syncs).
fn arb_samples() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(1u64..2_000_000_000, 1..400)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every quantile lands on a bucket floor at or below the exact order
    /// statistic, and within one sub-bucket of it: the 1/16 relative
    /// error bound ARCHITECTURE.md promises for p50/p99/p999.
    #[test]
    fn quantiles_are_within_one_sub_bucket_of_exact(samples in arb_samples()) {
        let mut h = LatencyHistogram::new();
        for &s in &samples {
            h.record_ns(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.5f64, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1] as f64;
            let got = h.quantile(q) as f64;
            prop_assert!(got <= exact, "q={q}: floor {got} above exact {exact}");
            prop_assert!(
                got >= exact * (1.0 - 1.0 / SUBS as f64),
                "q={q}: {got} under-reports exact {exact} by more than 1/{SUBS}"
            );
        }
        prop_assert_eq!(h.max_ns(), *sorted.last().unwrap(), "max is exact");
    }

    /// Merging per-thread histograms equals recording every sample into
    /// one — count, sum, max, and every quantile. This is what lets the
    /// open-loop harness keep one recorder per load thread and merge at
    /// the end without distorting the tail.
    #[test]
    fn merge_is_lossless(
        a_samples in arb_samples(),
        b_samples in arb_samples(),
    ) {
        let (mut a, mut b, mut all) = (
            LatencyHistogram::new(),
            LatencyHistogram::new(),
            LatencyHistogram::new(),
        );
        for &s in &a_samples {
            a.record_ns(s);
            all.record_ns(s);
        }
        for &s in &b_samples {
            b.record_ns(s);
            all.record_ns(s);
        }
        a.merge(&b);
        prop_assert_eq!(a.count(), all.count());
        prop_assert_eq!(a.sum_ns(), all.sum_ns());
        prop_assert_eq!(a.max_ns(), all.max_ns());
        for q in [0.1f64, 0.5, 0.9, 0.99, 0.999, 1.0] {
            prop_assert_eq!(a.quantile(q), all.quantile(q), "q={}", q);
        }
    }

    /// The atomic (hot-path) recorder and the single-threaded one share
    /// one bucket geometry: identical samples produce identical
    /// snapshots, so service quantiles and harness quantiles cannot
    /// drift.
    #[test]
    fn atomic_snapshot_matches_plain_recorder(samples in arb_samples()) {
        let atomic = AtomicHistogram::new();
        let mut plain = LatencyHistogram::new();
        for &s in &samples {
            atomic.record_ns(s);
            plain.record_ns(s);
        }
        let snap = atomic.snapshot();
        prop_assert_eq!(snap.count(), plain.count());
        prop_assert_eq!(snap.max_ns(), plain.max_ns());
        for q in [0.5f64, 0.99, 0.999] {
            prop_assert_eq!(snap.quantile(q), plain.quantile(q), "q={}", q);
        }
    }
}
