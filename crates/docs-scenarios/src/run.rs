//! Executes a [`ScenarioSpec`] end-to-end through the real service stack.
//!
//! The drive is **deterministic by construction**: one client thread, one
//! seeded rng, blocking round-trips. A campaign lives on exactly one shard
//! and the shard serves one client's operations in submission order, so the
//! request stream — and therefore every pick, every answer, and the final
//! truths — is byte-identical no matter how many shards or task shards the
//! topology runs (the `scenarios` proptest pins this across the
//! `shards × task_shards` matrix). Every accepted answer is mirrored
//! client-side from the submission acks ([`BatchOutcome`] names rejected
//! positions), which is what the scorer feeds to the majority-vote baseline
//! and the calibration metric — no engine internals involved.

use crate::spec::{ScenarioSpec, ServiceSpec};
use docs_crowd::{AdversarialPopulation, AnswerContext, ArrivalSampler, WorkerPopulation};
use docs_replication::{bootstrap_frames, replication_channel, Replica, ReplicationHub};
use docs_service::{
    AdaptiveCommit, Client, ClusterNode, ClusterRouter, DocsService, DurabilityConfig, Op,
    ServiceConfig,
};
use docs_storage::FlushPolicy;
use docs_system::{Docs, DocsConfig, RequesterReport};
use docs_types::{
    Answer, AnswerLog, CampaignId, ChoiceIndex, ClusterMap, NodeId, Task, TaskId, WorkerId,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Client-side mirror of everything the service acknowledged.
#[derive(Debug, Clone)]
pub struct DriveMirror {
    /// Accepted ordinary answers, indexed per task.
    pub log: AnswerLog,
    /// The same answers in submission order (byte-determinism witness).
    pub flat: Vec<Answer>,
    /// Golden-gate answers in submission order.
    pub golden: Vec<(WorkerId, TaskId, ChoiceIndex)>,
    /// Ordinary answers the service accepted.
    pub answers_collected: usize,
    /// Ordinary answers the service rejected (late budget races etc.).
    pub answers_rejected: usize,
}

/// Everything a finished scenario run exposes to scoring.
pub struct ScenarioOutcome {
    /// The manifest that produced this run.
    pub spec: ScenarioSpec,
    /// Published tasks (ground truth and true domains included).
    pub tasks: Vec<Task>,
    /// The service's final requester report (full inference).
    pub report: RequesterReport,
    /// Client-side mirror of the acknowledged traffic.
    pub mirror: DriveMirror,
    /// Wall-clock time of the drive (excludes dataset build and spawn).
    pub wall: Duration,
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("docs-scenario-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_config(shards: usize, dir: &Path) -> ServiceConfig {
    ServiceConfig {
        shards,
        durability: Some(DurabilityConfig {
            dir: dir.to_path_buf(),
            default_flush: FlushPolicy::EveryEvent,
            snapshot_every: 256,
            adaptive: Some(AdaptiveCommit::default()),
        }),
        ..Default::default()
    }
}

/// Runs the spec and returns the scored artifacts.
///
/// # Panics
/// Panics on any service rejection other than a per-answer budget race —
/// a scenario run is a correctness harness, not a fault drill.
pub fn run_scenario(spec: &ScenarioSpec) -> ScenarioOutcome {
    let mut dataset = spec.dataset.build();
    if let Some(limit) = spec.task_limit {
        dataset.tasks.truncate(limit);
    }
    let tasks = dataset.tasks.clone();
    // Quality comes from the dataset's focus-domain crowd (experts
    // concentrated where the tasks are — the Figure 6(a) shape the figure
    // benches validate DOCS ≥ MV on); behavior comes from the spec's class.
    let cfg = spec.population_config();
    let base =
        WorkerPopulation::from_qualities(dataset.worker_qualities(spec.population.size, cfg.seed));
    let population = AdversarialPopulation::with_base(base, &cfg);

    let docs_config = |durable: bool| DocsConfig {
        num_golden: spec.num_golden.min(tasks.len().saturating_sub(1)).max(1),
        k_per_hit: spec.k_per_hit,
        answers_per_task: spec.answers_per_task,
        z: spec.z,
        task_shards: spec.task_shards,
        durable_flush: durable.then_some(FlushPolicy::EveryEvent),
        ..Default::default()
    };
    let publish = |durable: bool| {
        Docs::publish(&dataset.kb, tasks.clone(), docs_config(durable)).expect("publish scenario")
    };
    let budget = spec.answers_per_task * tasks.len();

    let (report, mirror, wall) = match spec.service {
        ServiceSpec::InMemory { shards } => {
            let (service, handle) =
                DocsService::spawn_empty(ServiceConfig::sharded(shards)).expect("spawn pool");
            let campaign = handle
                .create_campaign(publish(false))
                .expect("create campaign");
            let started = Instant::now();
            let mirror = drive(&handle, campaign, &tasks, &population, spec, budget);
            let report = handle.call(Op::finish(campaign)).expect("finish");
            let wall = started.elapsed();
            drop(handle);
            service.join_all();
            (report, mirror, wall)
        }
        ServiceSpec::Durable { shards } => {
            let dir = scratch_dir(&spec.name);
            let (service, handle) =
                DocsService::spawn_empty(durable_config(shards, &dir)).expect("spawn pool");
            let campaign = handle
                .create_campaign(publish(true))
                .expect("create campaign");
            let started = Instant::now();
            let mirror = drive(&handle, campaign, &tasks, &population, spec, budget);
            let report = handle.call(Op::finish(campaign)).expect("finish");
            let wall = started.elapsed();
            drop(handle);
            service.join_all();
            let _ = std::fs::remove_dir_all(&dir);
            (report, mirror, wall)
        }
        ServiceSpec::Replicated { shards } => {
            let dir = scratch_dir(&spec.name);
            let (sink, feed) = replication_channel();
            let (service, handle) =
                DocsService::spawn_empty(durable_config(shards, &dir).with_replication(sink))
                    .expect("spawn pool");
            let campaign = handle
                .create_campaign(publish(true))
                .expect("create campaign");
            let hub = ReplicationHub::spawn(feed);
            let link = hub.subscribe("scenario-replica");
            let bootstrap = bootstrap_frames(&dir).expect("bootstrap scan");
            let replica = Replica::spawn(ServiceConfig::follower(shards), link, bootstrap)
                .expect("spawn replica");

            let started = Instant::now();
            let mirror = drive(&handle, campaign, &tasks, &population, spec, budget);
            let report = handle.call(Op::finish(campaign)).expect("finish");
            let wall = started.elapsed();

            // The replica must tail the whole run: wait for zero lag, then
            // require its locally-served truths to match the primary's.
            let deadline = Instant::now() + Duration::from_secs(30);
            while hub.lag().iter().any(|f| f.lag_events > 0) {
                assert!(
                    replica.error().is_none(),
                    "replica diverged: {:?}",
                    replica.error()
                );
                assert!(Instant::now() < deadline, "replica never caught up");
                std::thread::sleep(Duration::from_millis(1));
            }
            let replica_view = replica
                .handle()
                .call(Op::peek_report(campaign))
                .expect("replica read");
            assert_eq!(
                replica_view.truths, report.truths,
                "replica-served truths diverged from the primary"
            );

            drop(handle);
            service.join_all();
            hub.join();
            let (replica_service, replica_handle) = replica.detach();
            drop(replica_handle);
            replica_service.join_all();
            let _ = std::fs::remove_dir_all(&dir);
            (report, mirror, wall)
        }
        ServiceSpec::Clustered { shards } => {
            let (service0, handle0) =
                DocsService::spawn_empty(ServiceConfig::sharded(shards).with_node(NodeId(0)))
                    .expect("spawn node 0");
            let campaign = handle0
                .create_campaign(publish(false))
                .expect("create campaign");
            let (service1, handle1) =
                DocsService::spawn_empty(ServiceConfig::sharded(shards).with_node(NodeId(1)))
                    .expect("spawn node 1");
            let router = ClusterRouter::new(
                vec![
                    ClusterNode {
                        id: NodeId(0),
                        primary: handle0.clone(),
                        replicas: vec![],
                    },
                    ClusterNode {
                        id: NodeId(1),
                        primary: handle1.clone(),
                        replicas: vec![],
                    },
                ],
                ClusterMap::new(NodeId(0)),
            );
            let started = Instant::now();
            let mirror = drive(&router, campaign, &tasks, &population, spec, budget);
            let report = router.call(Op::finish(campaign)).expect("finish");
            let wall = started.elapsed();
            drop(router);
            drop(handle0);
            service0.join_all();
            drop(handle1);
            service1.join_all();
            (report, mirror, wall)
        }
    };

    ScenarioOutcome {
        spec: spec.clone(),
        tasks,
        report,
        mirror,
        wall,
    }
}

/// The deterministic single-client drive loop shared by every topology.
fn drive<C: Client>(
    target: &C,
    campaign: CampaignId,
    tasks: &[Task],
    population: &AdversarialPopulation,
    spec: &ScenarioSpec,
    budget: usize,
) -> DriveMirror {
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let mut sampler = ArrivalSampler::new(spec.arrivals.process(), population.len());
    let mut mirror = DriveMirror {
        log: AnswerLog::new(tasks.len()),
        flat: Vec::new(),
        golden: Vec::new(),
        answers_collected: 0,
        answers_rejected: 0,
    };
    // Bounded so a stalled campaign cannot loop forever; generous enough
    // that a healthy run always exhausts its budget first.
    let max_arrivals = (budget / spec.k_per_hit.max(1) + 1) * 16 + population.len() * 8;
    let mut consecutive_done = 0usize;
    let mut arrivals = 0usize;
    while mirror.answers_collected < budget
        && consecutive_done < population.len() * 2
        && arrivals < max_arrivals
    {
        arrivals += 1;
        let w = sampler.next(&mut rng);
        let progress = mirror.answers_collected as f64 / budget as f64;
        let work = target
            .call(Op::request_tasks(campaign, w))
            .expect("request tasks");
        match work {
            docs_system::WorkRequest::Golden(golden_ids) => {
                consecutive_done = 0;
                let ctx = AnswerContext {
                    is_golden: true,
                    progress,
                };
                let answers: Vec<(TaskId, ChoiceIndex)> = golden_ids
                    .iter()
                    .map(|&g| (g, population.answer(w, &tasks[g.index()], ctx, &mut rng)))
                    .collect();
                for &(g, c) in &answers {
                    mirror.golden.push((w, g, c));
                }
                target
                    .call(Op::submit_golden(campaign, w, answers))
                    .expect("golden ack");
            }
            docs_system::WorkRequest::Tasks(assigned) => {
                consecutive_done = 0;
                let ctx = AnswerContext {
                    is_golden: false,
                    progress,
                };
                let batch: Vec<Answer> = assigned
                    .iter()
                    .map(|&t| {
                        Answer::new(w, t, population.answer(w, &tasks[t.index()], ctx, &mut rng))
                    })
                    .collect();
                let outcome = target
                    .call(Op::submit_answer_batch(campaign, batch.clone()))
                    .expect("batch ack");
                let rejected: Vec<usize> = outcome.rejected.iter().map(|&(i, _)| i).collect();
                for (i, answer) in batch.into_iter().enumerate() {
                    if rejected.contains(&i) {
                        mirror.answers_rejected += 1;
                        continue;
                    }
                    mirror.log.record(answer).expect("mirror record");
                    mirror.flat.push(answer);
                    mirror.answers_collected += 1;
                }
            }
            docs_system::WorkRequest::Done => {
                consecutive_done += 1;
            }
        }
    }
    mirror
}
