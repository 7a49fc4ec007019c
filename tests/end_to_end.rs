//! Cross-crate integration tests: the full Figure 1 pipeline, the parallel
//! assignment protocol, and persistence across deployments.

use docs_baselines::ota::{DocsAssign, RandomBaseline};
use docs_core::ti::WorkerStats;
use docs_crowd::{AssignmentStrategy, Platform, PlatformConfig, WorkerPopulation};
use docs_datasets::pools::domains::SPORTS;
use docs_scenarios::run_campaign;
use docs_system::{Docs, DocsConfig, WorkRequest};
use docs_types::{Answer, TaskBuilder, TaskId, WorkerId};

fn sports_population(size: usize) -> WorkerPopulation {
    WorkerPopulation::from_qualities(
        (0..size)
            .map(|i| {
                let mut q = vec![0.6; 26];
                q[SPORTS] = [0.95, 0.9, 0.85, 0.65, 0.6, 0.55][i % 6];
                q
            })
            .collect(),
    )
}

fn sports_tasks(n: usize) -> Vec<docs_types::Task> {
    let players = [
        "Michael Jordan",
        "Kobe Bryant",
        "Stephen Curry",
        "LeBron James",
        "Tim Duncan",
        "Kevin Garnett",
        "Chris Paul",
        "Paul Pierce",
    ];
    (0..n)
        .map(|i| {
            TaskBuilder::new(
                i,
                format!("Has {} won an NBA title?", players[i % players.len()]),
            )
            .yes_no()
            .with_ground_truth(i % 2)
            .with_true_domain(SPORTS)
            .build()
            .unwrap()
        })
        .collect()
}

#[test]
fn full_pipeline_from_text_to_truths() {
    let kb = docs_datasets::curated_kb();
    let population = sports_population(20);
    let report = run_campaign(
        &kb,
        sports_tasks(40),
        &population,
        DocsConfig {
            num_golden: 8,
            k_per_hit: 4,
            answers_per_task: 7,
            ..Default::default()
        },
        7,
    )
    .unwrap();
    assert_eq!(report.truths.len(), 40);
    assert_eq!(report.answers_collected, 280);
    assert!(report.accuracy > 0.8, "accuracy {}", report.accuracy);
}

#[test]
fn docs_beats_random_in_parallel_protocol() {
    // The Section 6.1 parallel comparison on a synthetic workload: DOCS's
    // benefit-driven assignment must not lose to random assignment given
    // the same budget (averaged over seeds to keep the test stable).
    let mut docs_wins = 0.0;
    let mut baseline_wins = 0.0;
    for seed in 0..3u64 {
        let tasks = docs_datasets::scalability_tasks(60, 4, seed);
        let population = WorkerPopulation::generate(&docs_crowd::PopulationConfig {
            m: 4,
            size: 30,
            seed,
            ..Default::default()
        });
        let mut baseline = RandomBaseline::new(tasks.clone(), seed);
        let mut docs = DocsAssign::new(tasks.clone(), 4);
        let golden: Vec<TaskId> = docs_core::golden::select_golden_tasks(&tasks, 8);
        let platform = Platform::new(
            &tasks,
            golden,
            &population,
            PlatformConfig {
                k_per_hit: 3,
                answer_budget: 6 * 60,
                seed,
                ..Default::default()
            },
        );
        let mut strategies: [&mut dyn AssignmentStrategy; 2] = [&mut baseline, &mut docs];
        let outcomes = platform.run_parallel(&mut strategies);
        baseline_wins += outcomes[0].accuracy;
        docs_wins += outcomes[1].accuracy;
    }
    assert!(
        docs_wins + 0.02 >= baseline_wins,
        "DOCS mean {} vs Baseline mean {}",
        docs_wins / 3.0,
        baseline_wins / 3.0
    );
}

#[test]
fn requester_flow_with_manual_platform_interaction() {
    // Drive the Docs object by hand, playing the AMT role ourselves.
    let kb = docs_datasets::curated_kb();
    let mut docs = Docs::publish(
        &kb,
        sports_tasks(10),
        DocsConfig {
            num_golden: 2,
            k_per_hit: 5,
            answers_per_task: 2,
            ..Default::default()
        },
    )
    .unwrap();

    let w = WorkerId(3);
    // First contact → golden HIT.
    let golden = match docs.request_tasks(w) {
        WorkRequest::Golden(g) => g,
        other => panic!("expected golden, got {other:?}"),
    };
    let answers: Vec<_> = golden
        .iter()
        .map(|&g| (g, docs.tasks()[g.index()].ground_truth.unwrap()))
        .collect();
    docs.submit_golden(w, &answers).unwrap();

    // Second contact → real tasks; submit perfect answers.
    let assigned = match docs.request_tasks(w) {
        WorkRequest::Tasks(t) => t,
        other => panic!("expected tasks, got {other:?}"),
    };
    assert_eq!(assigned.len(), 5);
    let hit = assigned
        .into_iter()
        .map(|t| Answer {
            task: t,
            worker: w,
            choice: docs.tasks()[t.index()].ground_truth.unwrap(),
        })
        .collect();
    assert_eq!(docs.submit_answer_batch(hit), Ok(vec![]));
    // The worker cannot receive a task twice.
    if let WorkRequest::Tasks(more) = docs.request_tasks(w) {
        for t in &more {
            assert!(!docs.engine().log().has_answered(w, *t));
        }
    }
    let report = docs.finish().unwrap();
    assert_eq!(report.truths.len(), 10);
}

#[test]
fn persistence_survives_redeployment() {
    let dir = std::env::temp_dir().join(format!("docs-e2e-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let kb = docs_datasets::curated_kb();
    let population = sports_population(12);
    let config = DocsConfig {
        num_golden: 4,
        k_per_hit: 4,
        answers_per_task: 4,
        storage_dir: Some(dir.clone()),
        ..Default::default()
    };
    let r1 = run_campaign(&kb, sports_tasks(20), &population, config.clone(), 11).unwrap();
    assert!(r1.accuracy > 0.6);

    // Redeploy: the parameter store now profiles the returning workers.
    let store = docs_storage::ParamStore::open(&dir).unwrap();
    assert!(!store.worker_ids().is_empty());
    let mut docs = Docs::publish(&kb, sports_tasks(20), config).unwrap();
    let known = store.worker_ids()[0];
    match docs.request_tasks(known) {
        WorkRequest::Tasks(_) => {}
        other => panic!("returning worker should skip golden, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two requesters share one parameter database that already profiles
/// worker 7; both load it at publish, but only B's crowd includes worker 7.
/// B finishes, then A: A's copy of worker 7 is the stale one it loaded, and
/// it must not overwrite B's update.
#[test]
fn finish_writes_back_only_the_workers_the_campaign_saw() {
    let dir = std::env::temp_dir().join(format!("docs-e2e-writeback-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let kb = docs_datasets::curated_kb();
    let w7 = WorkerId(7);
    let on_file = WorkerStats::with_prior(kb.num_domains(), 0.7);
    docs_storage::ParamStore::open(&dir)
        .unwrap()
        .put_worker(w7, &on_file)
        .unwrap();
    let config = DocsConfig {
        num_golden: 4,
        k_per_hit: 4,
        answers_per_task: 3,
        storage_dir: Some(dir.clone()),
        ..Default::default()
    };
    let mut a = Docs::publish(&kb, sports_tasks(12), config.clone()).unwrap();
    let mut b = Docs::publish(&kb, sports_tasks(12), config).unwrap();
    let WorkRequest::Tasks(hit) = b.request_tasks(w7) else {
        panic!("worker 7 is on file and should skip golden");
    };
    let answers = hit
        .into_iter()
        .map(|task| Answer {
            task,
            worker: w7,
            choice: b.tasks()[task.index()].ground_truth.unwrap(),
        })
        .collect();
    assert_eq!(b.submit_answer_batch(answers), Ok(vec![]));
    b.finish().unwrap();
    let from_b = b.engine().registry().get(w7).unwrap().clone();
    assert_ne!(from_b, on_file, "precondition: B's answers moved worker 7");
    a.finish().unwrap();
    drop((a, b));

    let stored: WorkerStats = docs_storage::ParamStore::open(&dir)
        .unwrap()
        .get_worker(w7)
        .unwrap()
        .unwrap();
    assert_eq!(stored, from_b);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dataset_dve_feeds_inference_without_true_domains() {
    // The inference path must work purely from DVE vectors (no true_domain
    // reads): run TI on Item with domain vectors from the real pipeline.
    let prepared = docs_bench::protocol::prepare(docs_datasets::item(), 6, 10, 30, 99);
    let result = docs_core::ti::TruthInference::default().run(
        &prepared.dataset.tasks,
        &prepared.log,
        &prepared.docs_registry(),
    );
    assert!(result.accuracy(&prepared.dataset.tasks) > 0.7);
}
