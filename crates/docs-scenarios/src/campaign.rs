//! The single-campaign simulation loop the examples and end-to-end
//! experiments use: one published [`Docs`], driven in-process (no service)
//! by a simulated worker population, scored against ground truth.

use docs_crowd::{accuracy_of, AnswerModel, WorkerPopulation};
use docs_kb::KnowledgeBase;
use docs_system::{Docs, DocsConfig, WorkRequest};
use docs_types::{Answer, Result, Task, WorkerId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

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
                // The HIT goes in as one batch, as a served worker sends it.
                let hit = assigned
                    .into_iter()
                    .map(|tid| Answer {
                        task: tid,
                        worker: w,
                        choice: population.worker(w).answer(
                            &docs.tasks()[tid.index()],
                            AnswerModel::DomainUniform,
                            &mut rng,
                        ),
                    })
                    .collect();
                if let Some((_, rejected)) = docs.submit_answer_batch(hit)?.into_iter().next() {
                    return Err(rejected);
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
        accuracy: accuracy_of(&report.truths, docs.tasks()),
        truths: report.truths,
        answers_collected: report.answers_collected,
        workers_used: participated.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use docs_datasets::pools::domains::SPORTS;
    use docs_types::TaskBuilder;

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
