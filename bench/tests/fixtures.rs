//! Order statistics against hand-computed fixtures, and the contract file
//! against the metric tables.

use docs_canonical_bench::metrics::benchmark_json;
use docs_canonical_bench::stats::{median, percentile, quartiles, spread, Fnv};

#[test]
fn percentile_is_nearest_rank() {
    let hundred: Vec<u64> = (1..=100).collect();
    assert_eq!(percentile(&hundred, 0.50), 50);
    assert_eq!(percentile(&hundred, 0.95), 95);
    assert_eq!(percentile(&hundred, 0.99), 99);
    assert_eq!(percentile(&hundred, 1.0), 100);
    // 20 samples: the 95th percentile is the 19th smallest.
    let twenty: Vec<u64> = (1..=20).map(|i| i * 10).collect();
    assert_eq!(percentile(&twenty, 0.95), 190);
    assert_eq!(percentile(&twenty, 0.5), 100);
    // One sample is every percentile.
    assert_eq!(percentile(&[42], 0.5), 42);
    assert_eq!(percentile(&[42], 0.95), 42);
    // A tiny q still names a sample.
    assert_eq!(percentile(&hundred, 0.001), 1);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), (2.75, 8.25));
    assert_eq!(median(&ten), 5.5);
    assert_eq!(spread(&ten), 1.0);
    // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
    assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
    assert_eq!(median(&[5.0, 1.0, 4.0, 2.0, 3.0]), 3.0);
    // statistics.quantiles([10.0, 12.0], n=4) == [9.5, 12.5]
    assert_eq!(quartiles(&[10.0, 12.0]), (9.5, 12.5));
    // A constant sample has no spread.
    assert_eq!(spread(&[3.0, 3.0, 3.0, 3.0]), 0.0);
    assert_eq!(spread(&[3.0]), 0.0);
}

#[test]
fn fnv_matches_the_published_test_vectors() {
    let mut h = Fnv::default();
    assert_eq!(h.0, 0xcbf2_9ce4_8422_2325);
    h.write(b"a");
    assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
    let mut h = Fnv::default();
    h.write(b"foobar");
    assert_eq!(h.0, 0x8594_4171_f739_67e8);
}

/// `BENCHMARK.json` is rendered from the tables in `metrics.rs` and
/// `inputs.rs`; a name, unit, direction or bound changed in one place only
/// fails here, with the expected file in the message.
#[test]
fn benchmark_json_agrees_with_the_metric_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let expected = benchmark_json();
    assert!(
        committed == expected,
        "BENCHMARK.json is out of step with bench/src/metrics.rs; it should read:\n{expected}"
    );
}
