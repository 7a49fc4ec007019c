//! Integration tests spanning the extension crates: the concurrent service
//! front-end and adaptive stopping — wired through the same datasets and
//! crowd simulator as the paper experiments.

use docs_core::ti::{IncrementalTi, StoppingPolicy, WorkerRegistry};
use docs_crowd::{accuracy_of, AnswerModel, PopulationConfig, WorkerPopulation};
use docs_scenarios::{drive_workers_on, run_campaign};
use docs_service::{DocsService, Op, OpKind, ServiceConfig};
use docs_system::{Docs, DocsConfig};
use docs_types::{Answer, TaskId, WorkerId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn population(m: usize, size: usize, seed: u64) -> WorkerPopulation {
    WorkerPopulation::generate(&PopulationConfig {
        m,
        size,
        seed,
        ..Default::default()
    })
}

#[test]
fn concurrent_campaign_through_the_service_matches_protocol() {
    let mut dataset = docs_datasets::item();
    let m = dataset.domain_set.len();
    let n = dataset.len();
    let config = DocsConfig {
        num_golden: 10,
        k_per_hit: 10,
        answers_per_task: 3,
        z: 200,
        ..Default::default()
    };
    let docs = Docs::publish(&dataset.kb, std::mem::take(&mut dataset.tasks), config).unwrap();
    let published = Arc::new(docs.tasks().to_vec());
    let (service, handle) = DocsService::spawn_empty(ServiceConfig::default()).unwrap();
    let campaign = handle.create_campaign(docs).unwrap();

    let pop = population(m, 30, 0x11);
    let report = drive_workers_on(
        &handle,
        campaign,
        Arc::clone(&published),
        &pop,
        AnswerModel::DomainUniform,
        6,
        0x12,
    )
    .unwrap();
    // The protocol promises every method (here: the one deployed system)
    // collects its full budget.
    assert!(
        report.total_answers() >= n * 3,
        "{}",
        report.total_answers()
    );
    assert!(
        report.per_thread.iter().all(|o| o.rejected == 0),
        "sharded workers never race"
    );

    let final_report = handle.call(Op::finish(campaign)).unwrap();
    assert_eq!(final_report.truths.len(), n);
    let accuracy = accuracy_of(&final_report.truths, &published);
    assert!(accuracy > 0.5, "above chance: {accuracy}");
    // Assignment latency was measured under real concurrency.
    let assign = handle.metrics().stats(OpKind::Assign);
    assert!(assign.count as usize >= n * 3 / 10);
    assert!(assign.max.as_millis() < 1_000, "instant assignment");

    drop(handle);
    let campaigns = service.join_all();
    assert_eq!(campaigns.len(), 1);
    assert!(campaigns[0].1.budget_exhausted());
}

#[test]
fn full_system_campaign_with_stopping_policy_ends_early() {
    // The same campaign through the *deployed* Docs loop (run_campaign),
    // once with the paper's uniform protocol and once with the adaptive
    // stopping policy installed in DocsConfig.
    let dataset = docs_datasets::item();
    let m = dataset.domain_set.len();
    let pop = population(m, 40, 0x41);
    let base = DocsConfig {
        num_golden: 10,
        k_per_hit: 5,
        answers_per_task: 6,
        z: 200,
        ..Default::default()
    };
    let uniform =
        run_campaign(&dataset.kb, dataset.tasks.clone(), &pop, base.clone(), 0x42).unwrap();
    let adaptive = run_campaign(
        &dataset.kb,
        dataset.tasks.clone(),
        &pop,
        DocsConfig {
            stopping: Some(StoppingPolicy {
                entropy_below: 0.06,
                min_answers: 3,
            }),
            ..base
        },
        0x42,
    )
    .unwrap();
    assert_eq!(uniform.answers_collected, dataset.len() * 6);
    assert!(
        adaptive.answers_collected < uniform.answers_collected,
        "adaptive {} vs uniform {}",
        adaptive.answers_collected,
        uniform.answers_collected
    );
    assert!(
        adaptive.accuracy > uniform.accuracy - 0.12,
        "adaptive {:.3} vs uniform {:.3}",
        adaptive.accuracy,
        uniform.accuracy
    );
}

/// FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for byte in words.into_iter().flat_map(u64::to_le_bytes) {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// One adaptive-stopping campaign through the deployed `Docs` loop, pinned
/// exactly: the policy `figures ext` runs (entropy at most 0.06 nats, 5 to
/// 10 answers per task) over 60 synthetic tasks, which stops 66 answers
/// short of the flat 600. The answers it collects and the hash of its
/// truths change only if the stopping decision does.
#[test]
fn a_stopping_policy_campaign_is_pinned() {
    let kb = docs_datasets::curated_kb();
    let m = kb.num_domains();
    let tasks = docs_datasets::scalability_tasks(60, m, 0x57);
    // Experts in six domains each, so confident tasks exist to stop early.
    let pop = WorkerPopulation::generate(&PopulationConfig {
        m,
        size: 80,
        expert_fraction: 0.5,
        expert_domains: 6,
        seed: 0x58,
        ..Default::default()
    });
    let config = DocsConfig {
        num_golden: 5,
        k_per_hit: 5,
        answers_per_task: 10,
        z: 50,
        stopping: Some(StoppingPolicy {
            entropy_below: 0.06,
            min_answers: 5,
        }),
        ..Default::default()
    };
    let report = run_campaign(&kb, tasks, &pop, config, 0x59).unwrap();
    let truths = fnv1a(report.truths.iter().map(|&t| t as u64));
    assert_eq!(
        (report.answers_collected, format!("{truths:016x}")),
        (534, "0b0862d4112ea345".to_string())
    );
}

#[test]
fn adaptive_stopping_saves_budget_without_collapse() {
    let mut dataset = docs_datasets::four_domain();
    dataset.run_dve_default();
    let m = dataset.domain_set.len();
    let n = dataset.len();
    let pop = population(m, 50, 0x31);
    let max_answers = 8;
    let policy = StoppingPolicy {
        entropy_below: 0.06,
        min_answers: 4,
    };

    let run = |stop_early: bool, seed: u64| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut engine =
            IncrementalTi::new(dataset.tasks.clone(), WorkerRegistry::new(m, 0.7), 150);
        for _round in 0..max_answers {
            for i in 0..n {
                let tid = TaskId::from(i);
                let count = engine.log().answer_count(tid);
                let stop = count >= max_answers
                    || (stop_early && policy.should_stop(engine.state(tid), count));
                if stop {
                    continue;
                }
                let w = loop {
                    let w = WorkerId::from(rng.gen_range(0..pop.len()));
                    if !engine.log().has_answered(w, tid) {
                        break w;
                    }
                };
                let choice =
                    pop.worker(w)
                        .answer(&dataset.tasks[i], AnswerModel::DomainUniform, &mut rng);
                engine.submit(Answer::new(w, tid, choice)).unwrap();
            }
        }
        engine.run_full();
        (
            engine.log().len(),
            accuracy_of(&engine.truths(), &dataset.tasks),
        )
    };

    let (uniform_answers, uniform_acc) = run(false, 0x32);
    let (adaptive_answers, adaptive_acc) = run(true, 0x32);
    assert!(
        adaptive_answers < uniform_answers,
        "adaptive {adaptive_answers} vs uniform {uniform_answers}"
    );
    assert!(
        adaptive_acc > uniform_acc - 0.10,
        "adaptive {adaptive_acc:.3} vs uniform {uniform_acc:.3}"
    );
}
