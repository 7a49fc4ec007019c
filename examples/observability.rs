//! Observability demo: a durable, replicated service run with
//! every-request trace sampling, then harvested — a flight-recorder
//! trace of one submit with its full pipeline span breakdown, the
//! Prometheus exposition, the JSON snapshot, and the control-plane
//! journal across a failover.
//!
//! ```text
//! cargo run --release --example observability
//! ```
//!
//! The run asserts (and CI relies on) three things:
//! 1. a traced durable replicated submit carries the pipeline spans —
//!    queue-wait, apply, ship, flush-wait — and the spans sum to within
//!    10% of the trace's own end-to-end time,
//! 2. `render_prometheus()` output parses (`validate_prometheus`) and the
//!    JSON snapshot is well-formed JSON,
//! 3. the control-plane journal records the failover: the follower's
//!    promotion shows up as a `promotion` entry on the promoted node.

use docs_obs::{validate_prometheus, SpanKind};
use docs_replication::{bootstrap_frames, replication_channel, Replica, ReplicationHub};
use docs_service::{
    AdaptiveCommit, Client, DocsService, DurabilityConfig, Op, ServiceConfig, ServiceHandle,
};
use docs_storage::FlushPolicy;
use docs_system::{Docs, DocsConfig, WorkRequest};
use docs_types::{Answer, CampaignId, Task, TaskBuilder, WorkerId};

const NUM_TASKS: usize = 18;
const NUM_WORKERS: u32 = 6;

fn tasks() -> Vec<Task> {
    let subjects = ["Michael Jordan", "Kobe Bryant", "NBA"];
    (0..NUM_TASKS)
        .map(|i| {
            TaskBuilder::new(i, format!("Is {} great? ({i})", subjects[i % 3]))
                .yes_no()
                .with_ground_truth(i % 2)
                .with_true_domain(1)
                .build()
                .unwrap()
        })
        .collect()
}

fn publish() -> Docs {
    Docs::publish(
        &docs_kb::table2_example_kb(),
        tasks(),
        DocsConfig {
            num_golden: 3,
            k_per_hit: 3,
            answers_per_task: 3,
            z: 10,
            durable_flush: Some(FlushPolicy::EveryEvent),
            ..Default::default()
        },
    )
    .expect("publish")
}

/// Serves a deterministic slice of worker traffic; returns ops served.
fn drive(handle: &ServiceHandle, campaign: CampaignId, rounds: usize) -> u64 {
    let mut served = 0;
    for round in 0..rounds {
        for w in 0..NUM_WORKERS {
            let w = WorkerId(w);
            match handle
                .call(Op::request_tasks(campaign, w))
                .expect("request")
            {
                WorkRequest::Golden(golden) => {
                    let answers: Vec<_> = golden
                        .iter()
                        .map(|&g| (g, (g.index() + round) % 2))
                        .collect();
                    handle
                        .call(Op::submit_golden(campaign, w, answers))
                        .expect("golden");
                    served += 1;
                }
                WorkRequest::Tasks(hit) => {
                    for t in hit {
                        let answer = Answer::new(w, t, (t.index() + w.0 as usize) % 2);
                        if handle.call(Op::submit_answer(campaign, answer)).is_ok() {
                            served += 1;
                        }
                    }
                }
                WorkRequest::Done => {}
            }
        }
    }
    served
}

/// Structural JSON check (the vendored serde_json subset has no generic
/// `Value`): braces/brackets balance outside strings, object root.
fn assert_well_formed_json(json: &str) {
    let (mut depth, mut in_string, mut escaped) = (0i64, false, false);
    for c in json.chars() {
        if in_string {
            match (escaped, c) {
                (true, _) => escaped = false,
                (false, '\\') => escaped = true,
                (false, '"') => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => depth += 1,
            '}' | ']' => depth -= 1,
            _ => {}
        }
        assert!(depth >= 0, "unbalanced close in snapshot JSON");
    }
    assert_eq!(depth, 0, "unbalanced open in snapshot JSON");
    assert!(!in_string, "unterminated string in snapshot JSON");
    assert!(json.starts_with('{') && json.ends_with('}'), "root object");
}

fn main() {
    let dir = std::env::temp_dir().join(format!("docs-obs-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // ---- Primary: durable, replicated, tracing every request. ----
    // `trace_sample_every: 1` is demo-grade; a production pool samples
    // 1-in-N (the unsampled path is one relaxed load per request).
    let (sink, feed) = replication_channel();
    let config = ServiceConfig {
        shards: 2,
        durability: Some(DurabilityConfig {
            dir: dir.clone(),
            default_flush: FlushPolicy::EveryEvent,
            snapshot_every: 64,
            adaptive: Some(AdaptiveCommit::default()),
        }),
        ..Default::default()
    }
    .with_replication(sink)
    .with_trace_sampling(1);
    let (primary_service, primary) = DocsService::spawn_sharded(publish(), config);
    let campaign = primary.default_campaign();
    let hub = ReplicationHub::spawn(feed);
    hub.attach_metrics(primary.metrics());
    let link = hub.subscribe("follower-1");
    let bootstrap = bootstrap_frames(&dir).expect("bootstrap scan");
    let replica = Replica::spawn(ServiceConfig::follower(2), link, bootstrap).expect("replica");

    let served = drive(&primary, campaign, 3);
    println!("served {served} worker ops on the traced primary\n");

    // ---- 1. A flight-recorder trace of a durable replicated submit. ----
    let traces = primary.metrics().flight().snapshot();
    let pipeline = [
        SpanKind::QueueWait,
        SpanKind::Apply,
        SpanKind::Ship,
        SpanKind::FlushWait,
    ];
    let traced = traces
        .iter()
        .find(|t| pipeline.iter().all(|&k| t.span_ns(k).is_some()))
        .expect("a traced submit must carry the full pipeline spans");
    println!(
        "one traced durable replicated submit ({} harvested):",
        traces.len()
    );
    println!("  {}", traced.to_json());
    for kind in SpanKind::ALL {
        if let Some(ns) = traced.span_ns(kind) {
            println!("  {:>13}: {:>8.1} µs", kind.name(), ns as f64 / 1e3);
        }
    }
    let covered = traced.spans_sum_ns() as f64 / traced.total_ns.max(1) as f64;
    println!(
        "  spans account for {:.1}% of the {:.1} µs end-to-end time\n",
        covered * 100.0,
        traced.total_ns as f64 / 1e3
    );
    assert!(covered >= 0.9, "trace must account for ≥90% of its latency");

    // ---- 2. Prometheus exposition + JSON snapshot. ----
    let prom = primary.metrics().render_prometheus();
    let families = validate_prometheus(&prom).expect("exposition must parse");
    let excerpt: Vec<&str> = prom
        .lines()
        .filter(|l| l.contains("docs_op_latency") || l.contains("docs_flush"))
        .take(8)
        .collect();
    println!("prometheus exposition: {families} families, excerpt:");
    for line in excerpt {
        println!("  {line}");
    }
    let json = primary.metrics().snapshot_json();
    assert_well_formed_json(&json);
    println!("json snapshot: {} bytes, well-formed\n", json.len());

    // ---- 3. Failover, journaled. ----
    // Stop the primary, drain the stream, promote. Under EveryEvent,
    // acked ⇒ durable ⇒ shipped, and `promote` drains every shipped
    // frame before flipping — no acknowledged event can be lost.
    drop(primary);
    primary_service.join_all();
    hub.join();
    let promoted = replica.promote().expect("promotion");
    let resumed = drive(&promoted.handle, campaign, 1);
    println!("promoted the follower; served {resumed} more ops after failover");
    let journal = promoted.handle.metrics().journal().snapshot();
    assert!(
        journal
            .iter()
            .any(|e| e.kind == docs_obs::JournalKind::Promotion),
        "the promotion must be journaled on the promoted node"
    );
    println!("control-plane journal on the promoted node:");
    for entry in &journal {
        println!(
            "  #{} [{}] {}: {}",
            entry.seq,
            entry.severity.name(),
            entry.kind.name(),
            entry.detail
        );
    }

    promoted.handle.call(Op::finish(campaign)).expect("finish");
    drop(promoted.handle);
    promoted.service.join_all();
    let _ = std::fs::remove_dir_all(&dir);
    println!("\nobservability example: all assertions passed");
}
