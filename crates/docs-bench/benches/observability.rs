//! Observability overhead benchmark: what the docs-obs instrumentation
//! costs on the hot path, and proof that a sampled trace actually
//! accounts for a request's wall time.
//!
//! ```text
//! cargo bench -p docs-bench --bench observability
//! OBS_SMOKE=1 cargo bench -p docs-bench --bench observability   # CI size
//! ```
//!
//! Three questions, answered into `BENCH_obs.json` (full runs only; the
//! smoke run executes every assertion but merges nothing):
//!
//! * **histogram record cost** — one `AtomicHistogram::record_ns` on the
//!   shared recorder, measured over millions of samples. The budget is
//!   ~20 ns: cheap enough that every shard op records unconditionally.
//! * **pipeline throughput, obs off vs on** — the same durable
//!   group-commit workload driven with tracing disabled
//!   (`trace_sample_every: 0`; histograms still record — they are not
//!   optional) and with 1-in-64 trace sampling plus hub health
//!   publication. The acceptance line is on-within-5%-of-off.
//! * **trace coverage** — on a durable *replicated* submit with
//!   every-request sampling, the harvested flight-recorder trace must
//!   contain the queue-wait, apply, ship, and flush-wait spans, and the
//!   spans must sum to within 10% of the trace's own end-to-end wall
//!   time — a trace that cannot account for the latency it reports is
//!   decoration, not observability.

use docs_obs::{AtomicHistogram, SpanKind};
use docs_replication::{bootstrap_frames, replication_channel, Replica, ReplicationHub};
use docs_service::{
    AdaptiveCommit, DocsService, DurabilityConfig, Op, ServiceConfig, ServiceHandle,
};
use docs_storage::FlushPolicy;
use docs_system::{Docs, DocsConfig, WorkRequest};
use docs_types::{Answer, CampaignId, Task, TaskBuilder, WorkerId};
use std::path::PathBuf;
use std::time::Instant;

fn smoke() -> bool {
    std::env::var("OBS_SMOKE").is_ok()
}

fn num_tasks() -> usize {
    if smoke() {
        24
    } else {
        96
    }
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("docs-bench-obs-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tasks(n: usize) -> Vec<Task> {
    let subjects = ["Michael Jordan", "Kobe Bryant", "NBA"];
    (0..n)
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

fn publish(n: usize, policy: FlushPolicy) -> Docs {
    Docs::publish(
        &docs_kb::table2_example_kb(),
        tasks(n),
        DocsConfig {
            num_golden: 4,
            k_per_hit: 6,
            answers_per_task: 4,
            z: 50,
            durable_flush: Some(policy),
            ..Default::default()
        },
    )
    .expect("publish bench campaign")
}

/// Drives golden bootstrap + every HIT to budget on `handle`; returns
/// accepted answers. The workload is identical across the obs-off and
/// obs-on arms — only the instrumentation differs.
fn drive_to_budget(handle: &ServiceHandle, campaign: CampaignId) -> u64 {
    let mut answers = 0u64;
    let workers = 8u32;
    let mut idle_rounds = 0;
    while idle_rounds < 2 {
        let mut progressed = false;
        for w in 0..workers {
            let w = WorkerId(w);
            match handle
                .call(Op::request_tasks(campaign, w))
                .expect("request")
            {
                WorkRequest::Golden(golden) => {
                    let picks: Vec<_> = golden.iter().map(|&g| (g, g.index() % 2)).collect();
                    handle
                        .call(Op::submit_golden(campaign, w, picks))
                        .expect("golden");
                    progressed = true;
                }
                WorkRequest::Tasks(hit) => {
                    let batch: Vec<Answer> = hit
                        .iter()
                        .map(|&t| Answer::new(w, t, (t.index() + w.0 as usize) % 2))
                        .collect();
                    let outcome = handle
                        .call(Op::submit_answer_batch(campaign, batch))
                        .expect("batch");
                    if outcome.accepted > 0 {
                        answers += outcome.accepted as u64;
                        progressed = true;
                    }
                }
                WorkRequest::Done => {}
            }
        }
        idle_rounds = if progressed { 0 } else { idle_rounds + 1 };
    }
    handle.call(Op::finish(campaign)).expect("finish");
    answers
}

/// One throughput round on a durable adaptive-group-commit pool.
/// `sample_every` = 0 is the obs-off arm; anything else turns sampled
/// tracing on.
fn throughput_round(name: &str, sample_every: u64) -> (u64, f64) {
    let dir = tmp_dir(name);
    let config = ServiceConfig {
        shards: 2,
        durability: Some(DurabilityConfig {
            dir: dir.clone(),
            default_flush: FlushPolicy::Batch(8),
            snapshot_every: 100_000,
            adaptive: Some(AdaptiveCommit),
        }),
        ..Default::default()
    }
    .with_trace_sampling(sample_every);
    let (service, handle) = DocsService::spawn_empty(config).expect("spawn pool");
    let campaign = handle
        .create_campaign(publish(num_tasks(), FlushPolicy::Batch(8)))
        .expect("create campaign");
    let started = Instant::now();
    let answers = drive_to_budget(&handle, campaign);
    let wall = started.elapsed().as_secs_f64();
    if sample_every > 0 {
        assert!(
            !handle.metrics().flight().is_empty(),
            "sampling was on but no trace reached the flight recorder"
        );
    }
    drop(handle);
    service.join_all();
    let _ = std::fs::remove_dir_all(&dir);
    (answers, wall)
}

fn main() {
    let repeats = if smoke() { 2 } else { 5 };
    println!(
        "observability: {} tasks, shards=2 durable Batch(8)+adaptive (smoke={}, best of {repeats})\n",
        num_tasks(),
        smoke()
    );

    // ---- Histogram record cost on the shared atomic recorder. ----
    // An LCG keeps the recorded value unpredictable (different buckets
    // every call); its own cost is measured first and subtracted.
    let hist = AtomicHistogram::new();
    let samples: u64 = if smoke() { 1_000_000 } else { 8_000_000 };
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let started = Instant::now();
    for _ in 0..samples {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        std::hint::black_box(state % 1_000_000 + 1);
    }
    let lcg_ns = started.elapsed().as_nanos() as f64 / samples as f64;
    let started = Instant::now();
    for _ in 0..samples {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        hist.record_ns(state % 1_000_000 + 1);
    }
    let record_ns = (started.elapsed().as_nanos() as f64 / samples as f64 - lcg_ns).max(0.0);
    assert_eq!(hist.count(), samples, "every record must land");
    // The budget is ~20 ns; the assert is loose so a noisy CI runner
    // cannot flake the build, while a real regression (a lock, a
    // syscall) still trips it.
    assert!(
        record_ns < 200.0,
        "AtomicHistogram::record_ns costs {record_ns:.0} ns — hot-path budget blown"
    );
    println!(
        "histogram record: {record_ns:.1} ns/sample over {samples} samples \
         ({lcg_ns:.1} ns generator baseline subtracted)"
    );

    // ---- Throughput: obs off vs on, interleaved rounds. ----
    let mut best_off = f64::INFINITY;
    let mut best_on = f64::INFINITY;
    let mut answers = 0u64;
    for round in 0..repeats {
        let (a_off, wall_off) = throughput_round(&format!("off-{round}"), 0);
        let (a_on, wall_on) = throughput_round(&format!("on-{round}"), 64);
        assert_eq!(a_off, a_on, "both arms must run the identical workload");
        answers = a_off;
        if wall_off < best_off {
            best_off = wall_off;
        }
        if wall_on < best_on {
            best_on = wall_on;
        }
    }
    let tput_off = answers as f64 / best_off;
    let tput_on = answers as f64 / best_on;
    let overhead = tput_off / tput_on;
    println!(
        "throughput: obs off {tput_off:.0} answers/s, obs on {tput_on:.0} answers/s \
         (x{overhead:.3} cost, best of {repeats})"
    );

    // ---- Trace coverage on a durable replicated submit. ----
    // EveryEvent + adaptive group commit: acks are withheld until the
    // batch fdatasync lands, so the trace exercises the flush-wait span;
    // the attached hub makes the ship span carry real follower traffic.
    let dir = tmp_dir("trace");
    let (sink, feed) = replication_channel();
    let config = ServiceConfig {
        shards: 2,
        durability: Some(DurabilityConfig {
            dir: dir.clone(),
            default_flush: FlushPolicy::EveryEvent,
            snapshot_every: 100_000,
            adaptive: Some(AdaptiveCommit),
        }),
        ..Default::default()
    }
    .with_replication(sink)
    .with_trace_sampling(1);
    let (service, handle) = DocsService::spawn_empty(config).expect("spawn primary");
    let campaign = handle
        .create_campaign(publish(num_tasks(), FlushPolicy::EveryEvent))
        .expect("create campaign");
    let hub = ReplicationHub::spawn(feed);
    hub.attach_metrics(handle.metrics());
    let link = hub.subscribe("obs-follower");
    let bootstrap = bootstrap_frames(&dir).expect("bootstrap scan");
    let replica = Replica::spawn(ServiceConfig::follower(2), link, bootstrap).expect("replica");
    drive_to_budget(&handle, campaign);

    let traces = handle.metrics().flight().snapshot();
    assert!(
        !traces.is_empty(),
        "every-request sampling produced no traces"
    );
    let pipeline_spans = [
        SpanKind::QueueWait,
        SpanKind::Apply,
        SpanKind::Ship,
        SpanKind::FlushWait,
    ];
    let full: Vec<_> = traces
        .iter()
        .filter(|t| pipeline_spans.iter().all(|&k| t.span_ns(k).is_some()))
        .collect();
    assert!(
        !full.is_empty(),
        "no trace carries the full queue-wait/apply/ship/flush-wait pipeline \
         ({} traces harvested)",
        traces.len()
    );
    let mut e2e = docs_obs::LatencyHistogram::new();
    for t in &full {
        let covered = t.spans_sum_ns() as f64 / t.total_ns.max(1) as f64;
        assert!(
            covered >= 0.9,
            "trace {} accounts for only {:.0}% of its {} ns end-to-end time: {}",
            t.id,
            covered * 100.0,
            t.total_ns,
            t.to_json()
        );
        e2e.record_ns(t.total_ns);
    }
    let e2e_p99 = e2e.quantile(0.99) as f64;
    println!(
        "trace coverage: {} of {} traces carry the full pipeline; spans sum to ≥90% \
         of end-to-end time; traced submit p99 {:.0} µs",
        full.len(),
        traces.len(),
        e2e_p99 / 1e3
    );

    // Teardown: the follower, then the primary (its shards hold the hub's
    // feed, so the pump ends only after them), the hub, the directory.
    let (replica_service, replica_handle) = replica.detach();
    drop(replica_handle);
    replica_service.join_all();
    drop(handle);
    service.join_all();
    hub.join();
    let _ = std::fs::remove_dir_all(&dir);

    if smoke() {
        println!("\nOBS_SMOKE: assertions passed; numbers not merged.");
        return;
    }
    docs_bench::merge_bench_json(
        "BENCH_obs.json",
        &[
            ("obs_hist_record_ns".to_string(), record_ns),
            ("obs_off_tput_answers_per_s".to_string(), tput_off),
            ("obs_on_tput_answers_per_s".to_string(), tput_on),
            ("obs_on_overhead_x".to_string(), overhead),
            // Nanoseconds; the gate reads the `_p99` suffix as
            // lower-is-better.
            ("obs_traced_submit_e2e_p99".to_string(), e2e_p99),
        ],
    );
}
