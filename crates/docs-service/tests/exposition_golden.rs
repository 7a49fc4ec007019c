//! Golden bytes for the metrics exposition.
//!
//! One fixture populates every family `ServiceMetrics` renders — op
//! latencies on three shards, the queue / ticket / busy / log gauges and
//! full-inference run counts, each service counter at a distinct value,
//! every pipeline stage and a hub with two followers (one name needing
//! escapes) — and the
//! Prometheus text, the JSON snapshot, the typed views and the empty pool's
//! exposition must match the committed files byte for byte. The expected
//! files were generated once and are never edited by a refactor of the
//! metrics surface; on a mismatch the actual bytes land in the cargo
//! target's tmp dir for diffing.

use docs_obs::TraceContext;
use docs_service::{Counter, FollowerLagSample, HubHealth, OpKind, ServiceMetrics, Stage};
use docs_types::TraceId;
use std::path::Path;
use std::time::Duration;

fn populated() -> ServiceMetrics {
    let m = ServiceMetrics::new(3);
    // Every kind on some shard, a growing number of requests per kind with
    // spread-out service times so the quantiles differ. Each kind keeps the
    // index `i` the committed files were generated with; 2 belonged to the
    // retired one-answer `submit` kind and stays unused.
    for (i, kind) in [0, 1, 3, 4, 5, 6, 7].into_iter().zip(OpKind::ALL) {
        let shard = i % 3;
        for j in 0..=(i as u64) {
            let depth = m.shard_enqueued(shard);
            m.shard_send_recorded(shard, depth);
            let ns = 1_000 * (i as u64 + 1) * (j + 1) * (j + 1) + 17 * j;
            m.op_done(shard, kind, Duration::from_nanos(ns));
        }
    }
    // Queue gauges: requests still queued, and a rolled-back send.
    for shard in [0, 0, 2] {
        let depth = m.shard_enqueued(shard);
        m.shard_send_recorded(shard, depth);
    }
    m.shard_enqueued(1);
    m.shard_enqueue_failed(1);
    // Tickets in flight and fail-fast refusals.
    for shard in [0, 1, 1, 2, 2, 2] {
        m.ticket_issued(shard);
    }
    m.ticket_resolved(2);
    for shard in [1, 1, 1, 2] {
        m.busy_rejection(shard);
    }
    // Log gauges; shard 2 has no log.
    m.shard_log_observed(
        0,
        30,
        4,
        Duration::from_micros(100),
        Duration::from_micros(950),
        3_000,
    );
    m.shard_log_observed(
        0,
        40,
        5,
        Duration::from_micros(120),
        Duration::from_micros(900),
        4_096,
    );
    m.shard_log_observed(
        1,
        7,
        2,
        Duration::from_micros(80),
        Duration::from_micros(80),
        512,
    );
    // Full-inference runs executed and superseded; shard 2 ran none.
    m.shard_full_runs(0, 5, 2);
    m.shard_full_runs(1, 1, 9);
    m.shard_full_runs(0, 3, 0);
    // Each service counter at a distinct value.
    for (counter, n) in [
        (Counter::EventsReplayed, 11),
        (Counter::ReplayRejected, 2),
        (Counter::SnapshotsLoaded, 3),
        (Counter::SnapshotsWritten, 4),
        (Counter::TornTailRecoveries, 5),
        (Counter::FramesShipped, 6),
        (Counter::EventsShipped, 17),
        (Counter::EventsApplied, 8),
        (Counter::SnapshotsInstalled, 9),
        (Counter::ReadOnlyRejections, 10),
    ] {
        m.count(counter, n);
    }
    // Every pipeline stage.
    for (events, sync_us) in [(1, 90), (8, 140), (16, 210), (64, 1_900), (3, 75)] {
        m.observe(Stage::FlushBatch, events);
        m.observe(Stage::FlushSync, sync_us * 1_000);
    }
    for us in [40, 55, 70, 3_000] {
        m.observe(Stage::ReplicationLag, us * 1_000);
    }
    m.hub_observed(HubHealth {
        frames_shipped: 21,
        events_shipped: 77,
        bytes_shipped: 9_100,
        snapshot_bytes_shipped: 2_048,
        followers: 2,
        followers_dropped: 1,
        follower_lags: vec![
            FollowerLagSample {
                name: "replica-a".into(),
                lag_events: 3,
                acked_max: 74,
            },
            FollowerLagSample {
                name: "replica \"b\" \\ west".into(),
                lag_events: 0,
                acked_max: 77,
            },
        ],
    });
    m.flight().record(TraceContext::start(TraceId(7)).finish());
    m
}

/// The typed views the exposition is derived from.
fn views(m: &ServiceMetrics) -> String {
    let mut out = format!("{:#?}\n{:#?}\n", m.all_shards(), m.durability());
    for kind in OpKind::ALL {
        out += &format!("{kind:?}: {:?}\n", m.stats(kind));
    }
    out + &format!("total_ops: {}\n", m.total_ops())
}

fn assert_golden(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    let expected = std::fs::read_to_string(&path).unwrap_or_default();
    if actual != expected {
        let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
        std::fs::write(&out, actual).expect("write actual bytes");
        panic!(
            "{} differs from the golden bytes; actual written to {}",
            path.display(),
            out.display()
        );
    }
}

#[test]
fn populated_exposition_matches_the_golden_bytes() {
    let m = populated();
    let text = m.render_prometheus();
    docs_obs::validate_prometheus(&text).expect("valid exposition");
    assert_golden("populated.prom", &text);
    assert_golden("populated.json", &m.exposition().to_json());
    assert_golden("populated_views.txt", &views(&m));
}

#[test]
fn empty_pool_exposition_matches_the_golden_bytes() {
    let m = ServiceMetrics::new(2);
    assert_golden("empty.prom", &m.render_prometheus());
    assert_golden("empty.json", &m.exposition().to_json());
}
