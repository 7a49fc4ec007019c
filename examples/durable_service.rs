//! Durable group-commit throughput against the in-memory path: the same
//! concurrent crowd drive runs against an in-memory campaign, a
//! `Batch(64)` durable campaign and an `EveryEvent` durable campaign.
//!
//! ```text
//! cargo run --release --example durable_service
//! ```
//!
//! `Batch(n)` amortizes the `fdatasync`, so durable throughput must stay
//! within ~2× of memory (asserted); the numbers land in
//! `BENCH_durability.json` for trend tracking. Crash → recover →
//! byte-identical reports are checked by `tests/recovery.rs`.

use docs_crowd::{AnswerModel, PopulationConfig, WorkerPopulation};
use docs_scenarios::drive_workers_on;
use docs_service::{AdaptiveCommit, DocsService, DurabilityConfig, ServiceConfig};
use docs_storage::FlushPolicy;
use docs_system::{Docs, DocsConfig};
use docs_types::Task;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

fn bench_publish(
    task_shards: usize,
    durable_flush: Option<FlushPolicy>,
) -> (Docs, Arc<Vec<Task>>, usize) {
    let mut dataset = docs_datasets::four_domain();
    let m = dataset.domain_set.len();
    let config = DocsConfig {
        num_golden: 20,
        k_per_hit: 20,
        answers_per_task: 4,
        z: 100,
        task_shards,
        durable_flush,
        ..Default::default()
    };
    let docs = Docs::publish(&dataset.kb, std::mem::take(&mut dataset.tasks), config)
        .expect("publish 4D dataset");
    let published = Arc::new(docs.tasks().to_vec());
    (docs, published, m)
}

/// Drives one campaign to budget exhaustion; returns answers/second.
fn measure(dir: &Path, flush: Option<FlushPolicy>, label: &str) -> f64 {
    let config = match flush {
        Some(_) => ServiceConfig {
            shards: 2,
            durability: Some(DurabilityConfig {
                dir: dir.join(label),
                default_flush: FlushPolicy::Batch(64),
                snapshot_every: 4096,
                adaptive: Some(AdaptiveCommit),
            }),
            ..Default::default()
        },
        None => ServiceConfig::sharded(2),
    };
    let (docs, tasks, m) = bench_publish(2, flush);
    let (service, handle) = DocsService::spawn_empty(config).expect("spawn pool");
    let campaign = handle.create_campaign(docs).expect("create campaign");
    let population = WorkerPopulation::generate(&PopulationConfig {
        m,
        size: 40,
        seed: 0xD0C5,
        ..Default::default()
    });
    let started = Instant::now();
    let report = drive_workers_on(
        &handle,
        campaign,
        tasks,
        &population,
        AnswerModel::DomainUniform,
        4,
        0xBEEF,
    )
    .expect("drive campaign");
    let wall = started.elapsed().as_secs_f64();
    let answers = report.total_answers();
    let tput = answers as f64 / wall;
    let d = handle.metrics().durability();
    println!(
        "  {label:<22} {answers:>6} answers in {wall:>5.2}s → {tput:>7.0} answers/s   \
         (events logged {:>6}, flushes {:>5}, last flush {:?})",
        d.events_logged, d.log_flushes, d.last_flush
    );
    drop(handle);
    let _ = service.join_all();
    tput
}

/// Read-modify-write merge into `BENCH_durability.json` so the service
/// numbers and the `docs-bench` micro numbers share one trend file.
fn merge_bench_json(updates: &[(&str, f64)]) {
    // Anchor at the workspace root whatever the CWD is.
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("BENCH_durability.json");
    let mut map: HashMap<String, f64> = std::fs::read(&path)
        .ok()
        .and_then(|bytes| serde_json::from_slice(&bytes).ok())
        .unwrap_or_default();
    for (key, value) in updates {
        map.insert(key.to_string(), *value);
    }
    let mut entries: Vec<(String, f64)> = map.into_iter().collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    let body: Vec<String> = entries
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v}"))
        .collect();
    std::fs::write(&path, format!("{{\n{}\n}}\n", body.join(",\n"))).expect("write bench json");
    println!("  numbers merged into {}", path.display());
}

fn main() {
    let dir = std::env::temp_dir().join(format!("docs-durable-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    println!("— durable vs in-memory throughput (same crowd drive) —");
    let tput_memory = measure(&dir, None, "in-memory");
    let tput_batch = measure(&dir, Some(FlushPolicy::Batch(64)), "durable batch(64)");
    let tput_every = measure(&dir, Some(FlushPolicy::EveryEvent), "durable every-event");
    let overhead_batch = tput_memory / tput_batch;
    let overhead_every = tput_memory / tput_every;
    println!(
        "\n  group commit overhead: batch(64) {overhead_batch:.2}× vs in-memory \
         (target ≤ ~2×); every-event {overhead_every:.2}×"
    );
    assert!(
        overhead_batch <= 2.0,
        "Batch(64) group commit must keep durable throughput within ~2× of \
         the in-memory path (measured {overhead_batch:.2}×)"
    );

    merge_bench_json(&[
        ("service_tput_memory_answers_per_s", tput_memory),
        ("service_tput_durable_batch64_answers_per_s", tput_batch),
        ("service_tput_durable_every_event_answers_per_s", tput_every),
        ("service_durable_overhead_batch64_x", overhead_batch),
        ("service_durable_overhead_every_event_x", overhead_every),
    ]);

    let _ = std::fs::remove_dir_all(&dir);
    println!("\ndurable service example complete ✓");
}
