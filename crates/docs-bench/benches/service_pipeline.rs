//! Service-level pipelining benchmark: the blocking request/response crowd
//! driver vs the pipelined submission/completion driver, against the same
//! 4-campaign workload on a shards=4 pool.
//!
//! ```text
//! cargo bench -p docs-bench --bench service_pipeline
//! SERVICE_SMOKE=1 cargo bench -p docs-bench --bench service_pipeline   # CI size
//! ```
//!
//! Each campaign is driven by one deterministic client thread, so the
//! per-campaign request stream is identical between the two drivers — the
//! bench asserts the final truths are **byte-identical** before it reports
//! any number. Pipelining changes only *when* the client waits: the next
//! HIT request rides the wire while the previous batch ack is still in
//! flight, removing one synchronous round-trip per HIT. Headline numbers
//! are merged into `BENCH_service.json` for PR-to-PR trend tracking.
//!
//! Reading the speedup: on a multi-core runner the pipelined driver
//! overlaps client-side work with shard execution and the win is the
//! hidden round-trip. On a **single-core** box nothing can overlap — the
//! only saving is the halved context-switch count per HIT, so the speedup
//! is bounded to a few percent there (same caveat as the shards=1-vs-4
//! example; see the verify notes in `.claude/skills/verify/SKILL.md`).

use docs_crowd::{AnswerModel, PopulationConfig, WorkerPopulation};
use docs_service::{
    drive_workers_blocking_on, drive_workers_on, Client, DocsService, Op, ServiceConfig,
    ServiceHandle,
};
use docs_system::{Docs, DocsConfig};
use docs_types::{CampaignId, ChoiceIndex, Task, TaskBuilder};
use std::sync::Arc;
use std::time::Instant;

const CAMPAIGNS: usize = 4;
const SHARDS: usize = 4;

fn smoke() -> bool {
    std::env::var("SERVICE_SMOKE").is_ok()
}

fn num_tasks() -> usize {
    if smoke() {
        24
    } else {
        120
    }
}

fn publish_campaign(n_tasks: usize) -> Docs {
    let kb = docs_kb::table2_example_kb();
    let subjects = ["Michael Jordan", "Kobe Bryant", "NBA"];
    let tasks: Vec<Task> = (0..n_tasks)
        .map(|i| {
            TaskBuilder::new(i, format!("Is {} great? ({i})", subjects[i % 3]))
                .yes_no()
                .with_ground_truth(i % 2)
                .with_true_domain(1)
                .build()
                .unwrap()
        })
        .collect();
    Docs::publish(
        &kb,
        tasks,
        DocsConfig {
            num_golden: 4,
            k_per_hit: 4,
            answers_per_task: 4,
            z: 50,
            task_shards: 2,
            ..Default::default()
        },
    )
    .expect("publish bench campaign")
}

/// Drives the 4-campaign workload to budget exhaustion; returns wall-clock
/// seconds, total answers, and each campaign's final truths.
fn run_pool(pipelined: bool) -> (f64, usize, Vec<Vec<ChoiceIndex>>) {
    let n_tasks = num_tasks();
    let (service, handle) =
        DocsService::spawn_sharded(publish_campaign(n_tasks), ServiceConfig::sharded(SHARDS));
    let mut campaigns = vec![handle.default_campaign()];
    for _ in 1..CAMPAIGNS {
        campaigns.push(
            handle
                .create_campaign(publish_campaign(n_tasks))
                .expect("create campaign"),
        );
    }
    let tasks = Arc::new(publish_campaign(n_tasks).tasks().to_vec());

    let started = Instant::now();
    let drivers: Vec<_> = campaigns
        .iter()
        .enumerate()
        .map(|(i, &campaign)| {
            let handle: ServiceHandle = handle.clone();
            let tasks = Arc::clone(&tasks);
            std::thread::spawn(move || {
                let population = WorkerPopulation::generate(&PopulationConfig {
                    m: 3,
                    size: 20,
                    seed: 0xC0C0 + i as u64,
                    ..Default::default()
                });
                let seed = 0xD0C5 + i as u64;
                // One client thread per campaign keeps each campaign's
                // request stream deterministic, so the truths comparison
                // below is exact.
                let report = if pipelined {
                    drive_workers_on(
                        &handle,
                        campaign,
                        tasks,
                        &population,
                        AnswerModel::DomainUniform,
                        1,
                        seed,
                    )
                } else {
                    drive_workers_blocking_on(
                        &handle,
                        campaign,
                        tasks,
                        &population,
                        AnswerModel::DomainUniform,
                        1,
                        seed,
                    )
                }
                .expect("drive campaign");
                let final_report = handle.call(Op::finish(campaign)).expect("finish campaign");
                (report.total_answers(), final_report.truths)
            })
        })
        .collect();
    let mut total_answers = 0;
    let mut truths: Vec<(CampaignId, Vec<ChoiceIndex>)> = Vec::new();
    for (driver, &campaign) in drivers.into_iter().zip(&campaigns) {
        let (answers, campaign_truths) = driver.join().expect("campaign driver panicked");
        total_answers += answers;
        truths.push((campaign, campaign_truths));
    }
    let wall = started.elapsed().as_secs_f64();
    drop(handle);
    let _ = service.join_all();
    truths.sort_by_key(|(id, _)| *id);
    (
        wall,
        total_answers,
        truths.into_iter().map(|(_, t)| t).collect(),
    )
}

fn main() {
    let repeats = if smoke() { 3 } else { 7 };
    println!(
        "service_pipeline: {CAMPAIGNS} campaigns × {} tasks on a shards={SHARDS} pool \
         (smoke={}, best of {repeats})\n",
        num_tasks(),
        smoke()
    );

    // Alternating best-of-N: the wall times are a handful of milliseconds,
    // so a single scheduler hiccup dwarfs the protocol overhead being
    // measured. The minimum over alternated runs is the standard
    // noise-resistant estimator for "how fast can this path go".
    let mut blocking_wall = f64::INFINITY;
    let mut pipelined_wall = f64::INFINITY;
    let mut blocking_answers = 0;
    let mut pipelined_answers = 0;
    let mut blocking_truths = Vec::new();
    let mut pipelined_truths = Vec::new();
    for _ in 0..repeats {
        let (wall, answers, truths) = run_pool(false);
        if wall < blocking_wall {
            blocking_wall = wall;
        }
        blocking_answers = answers;
        blocking_truths = truths;
        let (wall, answers, truths) = run_pool(true);
        if wall < pipelined_wall {
            pipelined_wall = wall;
        }
        pipelined_answers = answers;
        pipelined_truths = truths;
    }
    let blocking_tput = blocking_answers as f64 / blocking_wall;
    println!(
        "blocking driver:  {blocking_answers} answers in {blocking_wall:.3}s (best) → \
         {blocking_tput:.0} answers/s"
    );
    let pipelined_tput = pipelined_answers as f64 / pipelined_wall;
    println!(
        "pipelined driver: {pipelined_answers} answers in {pipelined_wall:.3}s (best) → \
         {pipelined_tput:.0} answers/s"
    );

    // The correctness bar before any performance claim: same request
    // stream, byte-identical truths per campaign.
    assert_eq!(
        pipelined_truths, blocking_truths,
        "pipelining changed campaign truths"
    );
    assert_eq!(pipelined_answers, blocking_answers, "accounting diverged");

    let speedup = pipelined_tput / blocking_tput;
    println!(
        "\npipelined/blocking speedup: {speedup:.2}× \
         (pipelining removes one synchronous round-trip per HIT)"
    );

    docs_bench::merge_bench_json(
        "BENCH_service.json",
        &[
            (
                "service_blocking_tput_shards4_answers_per_s".to_string(),
                blocking_tput,
            ),
            (
                "service_pipelined_tput_shards4_answers_per_s".to_string(),
                pipelined_tput,
            ),
            ("service_pipeline_speedup_shards4".to_string(), speedup),
        ],
    );
}
