//! Campaigns: the multi-requester registry plus the single-campaign
//! simulation loop used by the examples and the end-to-end experiments.
//!
//! The paper's deployment serves exactly one requester batch; the service
//! runtime hosts many. [`CampaignRegistry`] owns the concurrent [`Docs`]
//! instances keyed by [`CampaignId`], allocates ids densely, and exposes the
//! deterministic campaign→shard mapping the service's shard pool routes by.
//! The registry itself is single-threaded state — the service runs one
//! registry per shard thread, so a campaign's state machine is only ever
//! touched by its owning shard (share-nothing, no locks).

use crate::{CampaignSnapshot, Docs, DocsConfig, WorkRequest};
use docs_crowd::{AnswerModel, WorkerPopulation};
use docs_kb::KnowledgeBase;
use docs_types::{codec, Answer, CampaignEvent, CampaignId, Error, Result, Task, WorkerId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Outcome of replaying one campaign's snapshot + log suffix.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Events applied to the restored state.
    pub applied: u64,
    /// Events whose application was rejected (deterministic rejections —
    /// e.g. a duplicate answer that was already rejected live; a healthy
    /// log contains none because commands are validated before logging).
    pub rejected: u64,
}

/// Owner of many concurrent campaigns, keyed by [`CampaignId`].
#[derive(Debug, Default)]
pub struct CampaignRegistry {
    campaigns: HashMap<CampaignId, Docs>,
    /// Next id to allocate (monotone; ids of removed campaigns are not
    /// reused, so routing stays stable for a campaign's whole life).
    next_id: u32,
}

impl CampaignRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a published system under a freshly allocated id.
    ///
    /// For *standalone* registries (one registry owning all campaigns).
    /// Inside the sharded service, ids must come from the service's
    /// central allocator and land on the shard `CampaignId::shard` names —
    /// shard loops therefore use [`CampaignRegistry::insert`] with the
    /// pre-routed id, never this method: an id allocated by one shard's
    /// local counter would generally hash to a *different* shard, making
    /// the campaign unroutable.
    pub fn create(&mut self, docs: Docs) -> CampaignId {
        let id = CampaignId(self.next_id);
        self.next_id += 1;
        self.campaigns.insert(id, docs);
        id
    }

    /// Registers a published system under a caller-chosen id (the service
    /// allocates ids centrally but shards insert locally). Fails on reuse.
    pub fn insert(&mut self, id: CampaignId, docs: Docs) -> Result<()> {
        if self.campaigns.contains_key(&id) {
            return Err(Error::Storage(format!("campaign {id} already exists")));
        }
        self.next_id = self.next_id.max(id.0 + 1);
        self.campaigns.insert(id, docs);
        Ok(())
    }

    /// Read access to one campaign.
    pub fn get(&self, id: CampaignId) -> Option<&Docs> {
        self.campaigns.get(&id)
    }

    /// Write access to one campaign (request handling mutates TI state).
    pub fn get_mut(&mut self, id: CampaignId) -> Option<&mut Docs> {
        self.campaigns.get_mut(&id)
    }

    /// Removes a finished campaign, returning its final state.
    pub fn remove(&mut self, id: CampaignId) -> Option<Docs> {
        self.campaigns.remove(&id)
    }

    /// Registered campaign ids, ascending.
    pub fn ids(&self) -> Vec<CampaignId> {
        let mut ids: Vec<CampaignId> = self.campaigns.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Number of live campaigns.
    pub fn len(&self) -> usize {
        self.campaigns.len()
    }

    /// True when no campaigns are registered.
    pub fn is_empty(&self) -> bool {
        self.campaigns.is_empty()
    }

    /// Rebuilds one campaign from its serialized snapshot plus the ordered
    /// event suffix the write-ahead log recovered after it, and registers
    /// the result under `id` — the recovery path of the durable service.
    ///
    /// Event payloads are the codec records of the [`CampaignEvent`]s the
    /// service logged. Malformed bytes fail loudly ([`Error::Storage`]),
    /// while events whose *application* is rejected are counted and skipped
    /// (the same rejection happened live, deterministically).
    ///
    /// The events are generic over any borrowable byte container so the
    /// zero-copy recovery path can pass arena-backed views without first
    /// copying each payload into an owned `Vec<u8>`.
    pub fn replay(
        &mut self,
        id: CampaignId,
        snapshot: &[u8],
        events: &[impl AsRef<[u8]>],
    ) -> Result<ReplayStats> {
        let snapshot: CampaignSnapshot = codec::from_bytes(snapshot)
            .map_err(|e| Error::Storage(format!("campaign {id} snapshot: {e}")))?;
        let mut docs = Docs::restore(snapshot)?;
        let mut stats = ReplayStats::default();
        for (i, raw) in events.iter().enumerate() {
            let event: CampaignEvent = codec::decode_event(raw.as_ref())
                .map_err(|e| Error::Storage(format!("campaign {id} event {i}: {e}")))?;
            // A `Published` marker pins the shape the snapshot must
            // satisfy — a mismatch means the snapshot and log belong to
            // different campaigns (mispaired files, tampering).
            if let CampaignEvent::Published(p) = &event {
                if p.num_tasks as usize != docs.tasks().len() {
                    return Err(Error::Storage(format!(
                        "campaign {id} snapshot/log mismatch: log published {} tasks, \
                         snapshot holds {}",
                        p.num_tasks,
                        docs.tasks().len()
                    )));
                }
            }
            match docs.apply(&event) {
                Ok(()) => stats.applied += 1,
                Err(Error::Storage(msg)) => {
                    // A storage failure during replay (e.g. the campaign's
                    // parameter database is unwritable) is not deterministic
                    // rejection — surface it.
                    return Err(Error::Storage(format!("campaign {id} event {i}: {msg}")));
                }
                Err(_) => stats.rejected += 1,
            }
        }
        self.insert(id, docs)?;
        Ok(stats)
    }

    /// Installs a campaign from a serialized snapshot, replacing any
    /// existing registration under `id` — the follower-replica bootstrap
    /// (and fast-forward) path. Unlike [`CampaignRegistry::replay`], no
    /// event suffix is applied here: a follower's events arrive as a live
    /// stream after the snapshot, each applied through the same
    /// deterministic `validate_event`/`apply` transition the primary used.
    pub fn install_snapshot(&mut self, id: CampaignId, snapshot: &[u8]) -> Result<()> {
        let snapshot: CampaignSnapshot = codec::from_bytes(snapshot)
            .map_err(|e| Error::Storage(format!("campaign {id} snapshot: {e}")))?;
        let docs = Docs::restore(snapshot)?;
        self.next_id = self.next_id.max(id.0 + 1);
        self.campaigns.insert(id, docs);
        Ok(())
    }

    /// Drains the registry into `(id, state)` pairs, ascending by id.
    pub fn into_campaigns(mut self) -> Vec<(CampaignId, Docs)> {
        let mut out: Vec<(CampaignId, Docs)> = self.campaigns.drain().collect();
        out.sort_unstable_by_key(|(id, _)| *id);
        out
    }
}

/// Outcome of a simulated campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Inferred truth per task.
    pub truths: Vec<usize>,
    /// Accuracy against the dataset's ground truth.
    pub accuracy: f64,
    /// Answers collected (excluding golden answers).
    pub answers_collected: usize,
    /// Number of distinct workers that participated.
    pub workers_used: usize,
}

/// Publishes `tasks` through [`Docs`] and drives a simulated worker
/// population against it until the collection budget is consumed: workers
/// arrive at random, answer the golden HIT on first contact, then receive
/// OTA assignments and submit simulated answers.
pub fn run_campaign(
    kb: &KnowledgeBase,
    tasks: Vec<Task>,
    population: &WorkerPopulation,
    config: DocsConfig,
    seed: u64,
) -> Result<CampaignReport> {
    let mut docs = Docs::publish(kb, tasks, config)?;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut participated = std::collections::HashSet::new();

    let budget_guard = docs.tasks().len() * 200;
    let mut arrivals = 0usize;
    while !docs.budget_exhausted() && arrivals < budget_guard {
        arrivals += 1;
        let w = WorkerId::from(rng.gen_range(0..population.len()));
        match docs.request_tasks(w) {
            WorkRequest::Golden(golden) => {
                let answers: Vec<_> = golden
                    .iter()
                    .map(|&gid| {
                        let task = &docs.tasks()[gid.index()];
                        let choice =
                            population
                                .worker(w)
                                .answer(task, AnswerModel::DomainUniform, &mut rng);
                        (gid, choice)
                    })
                    .collect();
                docs.submit_golden(w, &answers)?;
                participated.insert(w);
            }
            WorkRequest::Tasks(assigned) => {
                participated.insert(w);
                for tid in assigned {
                    let task = &docs.tasks()[tid.index()];
                    let choice =
                        population
                            .worker(w)
                            .answer(task, AnswerModel::DomainUniform, &mut rng);
                    docs.submit_answer(Answer {
                        task: tid,
                        worker: w,
                        choice,
                    })?;
                }
            }
            WorkRequest::Done => {
                // This worker has nothing left; another arrival may still
                // find work unless the global budget is done.
                if docs.budget_exhausted() {
                    break;
                }
            }
        }
    }

    let report = docs.finish()?;
    Ok(CampaignReport {
        truths: report.truths,
        accuracy: report.accuracy,
        answers_collected: report.answers_collected,
        workers_used: participated.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use docs_datasets::pools::domains::SPORTS;
    use docs_types::TaskBuilder;

    fn tiny_docs() -> Docs {
        let kb = docs_kb::table2_example_kb();
        let tasks: Vec<Task> = (0..4)
            .map(|i| {
                TaskBuilder::new(i, format!("Is Kobe Bryant great? ({i})"))
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
                num_golden: 2,
                k_per_hit: 2,
                answers_per_task: 2,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn registry_allocates_dense_ids_and_owns_state() {
        let mut reg = CampaignRegistry::new();
        assert!(reg.is_empty());
        let a = reg.create(tiny_docs());
        let b = reg.create(tiny_docs());
        assert_eq!((a, b), (CampaignId(0), CampaignId(1)));
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.ids(), vec![a, b]);
        // Request handling goes through get_mut.
        let req = reg.get_mut(a).unwrap().request_tasks(WorkerId(0));
        assert!(matches!(req, WorkRequest::Golden(_)));
        // Removal returns the state and frees the slot without id reuse.
        let docs = reg.remove(a).unwrap();
        assert_eq!(docs.tasks().len(), 4);
        assert!(reg.get(a).is_none());
        assert_eq!(reg.create(tiny_docs()), CampaignId(2));
    }

    #[test]
    fn insert_rejects_duplicate_ids_and_advances_allocation() {
        let mut reg = CampaignRegistry::new();
        reg.insert(CampaignId(7), tiny_docs()).unwrap();
        assert!(reg.insert(CampaignId(7), tiny_docs()).is_err());
        // Central allocation continues past explicitly inserted ids.
        assert_eq!(reg.create(tiny_docs()), CampaignId(8));
        let drained = reg.into_campaigns();
        assert_eq!(
            drained.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            vec![CampaignId(7), CampaignId(8)]
        );
    }

    #[test]
    fn campaign_truths_are_identical_for_every_task_shard_count() {
        // The acceptance bar of the sharded runtime: same seeded workload,
        // byte-identical truths regardless of how the scan is partitioned.
        let kb = docs_datasets::curated_kb();
        let players = ["Michael Jordan", "Kobe Bryant", "Stephen Curry"];
        let tasks: Vec<Task> = (0..30)
            .map(|i| {
                TaskBuilder::new(i, format!("Is {} a great player?", players[i % 3]))
                    .yes_no()
                    .with_ground_truth(i % 2)
                    .with_true_domain(SPORTS)
                    .build()
                    .unwrap()
            })
            .collect();
        let population = WorkerPopulation::from_qualities(
            (0..12)
                .map(|i| {
                    let mut q = vec![0.6; 26];
                    q[SPORTS] = [0.95, 0.9, 0.6, 0.55][i % 4];
                    q
                })
                .collect(),
        );
        let base = DocsConfig {
            num_golden: 4,
            k_per_hit: 4,
            answers_per_task: 5,
            ..Default::default()
        };
        let report_for = |task_shards: usize| {
            run_campaign(
                &kb,
                tasks.clone(),
                &population,
                DocsConfig {
                    task_shards,
                    ..base.clone()
                },
                0xC0FFEE,
            )
            .unwrap()
        };
        let flat = report_for(1);
        for shards in [2, 4, 8] {
            let sharded = report_for(shards);
            assert_eq!(sharded.truths, flat.truths, "task_shards = {shards}");
            assert_eq!(sharded.answers_collected, flat.answers_collected);
        }
    }

    #[test]
    fn campaign_on_curated_kb_reaches_high_accuracy() {
        let kb = docs_datasets::curated_kb();
        // 30 sports yes/no tasks over the curated KB.
        let players = [
            "Michael Jordan",
            "Kobe Bryant",
            "Stephen Curry",
            "LeBron James",
            "Tim Duncan",
            "Magic Johnson",
        ];
        let tasks: Vec<Task> = (0..60)
            .map(|i| {
                TaskBuilder::new(
                    i,
                    format!("Is {} a great player?", players[i % players.len()]),
                )
                .yes_no()
                .with_ground_truth(i % 2)
                .with_true_domain(SPORTS)
                .build()
                .unwrap()
            })
            .collect();
        // Mixed population with real sports expertise (index 23 = Sports):
        // a few experts, several mediocre workers, one spammer. OTA should
        // route tasks toward the experts.
        let sports_quality = [0.95, 0.92, 0.9, 0.65, 0.6, 0.6, 0.55, 0.5];
        let population = WorkerPopulation::from_qualities(
            (0..24)
                .map(|i| {
                    let mut q = vec![0.6; 26];
                    q[SPORTS] = sports_quality[i % sports_quality.len()];
                    q
                })
                .collect(),
        );
        let config = DocsConfig {
            num_golden: 10,
            k_per_hit: 5,
            answers_per_task: 8,
            ..Default::default()
        };
        let report = run_campaign(&kb, tasks, &population, config, 0xBEEF).unwrap();
        assert_eq!(report.answers_collected, 480);
        assert!(report.accuracy >= 0.85, "accuracy {}", report.accuracy);
        assert!(report.workers_used > 1);
    }
}
