//! Integration tests spanning the extension crates: the concurrent service
//! front-end, the budget-aware planner, and adaptive stopping — wired
//! through the same datasets and crowd simulator as the paper experiments.

use docs_core::ota::BudgetPlanner;
use docs_core::ti::{IncrementalTi, StoppingPolicy, StoppingRule, WorkerRegistry};
use docs_crowd::{accuracy_of, AnswerModel, PopulationConfig, WorkerPopulation};
use docs_scenarios::{drive_workers_on, run_campaign};
use docs_service::{Client, DocsService, Op, OpKind};
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
    let (service, handle) = DocsService::spawn(docs);

    let pop = population(m, 30, 0x11);
    let report = drive_workers_on(
        &handle,
        handle.default_campaign(),
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
    assert_eq!(report.total_rejected(), 0, "sharded workers never race");

    let final_report = handle.call(Op::finish(handle.default_campaign())).unwrap();
    assert_eq!(final_report.truths.len(), n);
    let accuracy = accuracy_of(&final_report.truths, &published);
    assert!(accuracy > 0.5, "above chance: {accuracy}");
    // Assignment latency was measured under real concurrency.
    let assign = handle.metrics().stats(OpKind::Assign);
    assert!(assign.count as usize >= n * 3 / 10);
    assert!(assign.max.as_millis() < 1_000, "instant assignment");

    drop(handle);
    let docs = service.join();
    assert!(docs.budget_exhausted());
}

#[test]
fn budget_planner_puts_extra_answers_on_hard_tasks() {
    // Collect 4 answers per task, then ask the planner to spend a small
    // top-up budget; it must prefer the tasks whose truth is still
    // ambiguous over tasks with unanimous answers.
    let mut dataset = docs_datasets::item();
    dataset.run_dve_default();
    let m = dataset.domain_set.len();
    let n = dataset.len();
    let pop = population(m, 40, 0x21);
    let mut rng = SmallRng::seed_from_u64(0x22);
    let mut engine = IncrementalTi::new(dataset.tasks.clone(), WorkerRegistry::new(m, 0.7), 0);
    for _ in 0..4 {
        for i in 0..n {
            let tid = TaskId::from(i);
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

    let collected: Vec<usize> = (0..n)
        .map(|i| engine.log().answer_count(TaskId::from(i)))
        .collect();
    let budget = n; // one extra answer per task on average
    let plan = BudgetPlanner::new(budget, 6).plan(engine.states(), &collected, &vec![0.75; m]);
    assert!(plan.spent() <= budget);
    assert!(plan.spent() > 0);

    // Tasks split by current ambiguity: the planner's mean allocation on the
    // most uncertain quartile must exceed the mean on the most confident
    // quartile.
    let mut by_entropy: Vec<(f64, usize)> = engine
        .states()
        .iter()
        .enumerate()
        .map(|(i, st)| (docs_types::prob::entropy(st.s()), i))
        .collect();
    by_entropy.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
    let quartile = n / 4;
    let mean_extra = |idx: &[(f64, usize)]| {
        idx.iter()
            .map(|&(_, i)| plan.extra_answers[i] as f64)
            .sum::<f64>()
            / idx.len() as f64
    };
    let uncertain = mean_extra(&by_entropy[..quartile]);
    let confident = mean_extra(&by_entropy[n - quartile..]);
    assert!(
        uncertain > confident,
        "uncertain quartile {uncertain:.2} vs confident quartile {confident:.2}"
    );
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
                rule: StoppingRule::EntropyBelow(0.06),
                min_answers: 3,
                max_answers: 6,
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

#[test]
fn adaptive_stopping_saves_budget_without_collapse() {
    let mut dataset = docs_datasets::four_domain();
    dataset.run_dve_default();
    let m = dataset.domain_set.len();
    let n = dataset.len();
    let pop = population(m, 50, 0x31);
    let policy = StoppingPolicy {
        rule: StoppingRule::EntropyBelow(0.06),
        min_answers: 4,
        max_answers: 8,
    };

    let run = |stop_early: bool, seed: u64| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut engine =
            IncrementalTi::new(dataset.tasks.clone(), WorkerRegistry::new(m, 0.7), 150);
        for _round in 0..policy.max_answers {
            for i in 0..n {
                let tid = TaskId::from(i);
                let count = engine.log().answer_count(tid);
                let stop = if stop_early {
                    policy.should_stop(engine.state(tid), count)
                } else {
                    count >= policy.max_answers
                };
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
