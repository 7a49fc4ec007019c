//! Benchmarks for the future-work extensions:
//!
//! * `correlated_dve`: the price of dropping Section 3.1's independence
//!   assumption — exact correlated summation vs Gibbs sampling vs coherence
//!   reranking + Algorithm 1, against the independent Algorithm 1 baseline,
//! * `stopping_policy`: per-answer cost of the stable-point stopping rules
//!   (they run inside the collection loop, so they must be ~free),
//! * `budget_planner`: greedy marginal-benefit allocation across campaign
//!   sizes (advisory planning, run once per campaign checkpoint).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use docs_core::dve::{
    domain_vector, domain_vector_correlated_exact, domain_vector_correlated_gibbs,
    domain_vector_reranked, CorrelationConfig,
};
use docs_core::ota::BudgetPlanner;
use docs_core::ti::{StoppingPolicy, StoppingRule, TaskArena};
use docs_kb::generator::synthetic_entities;
use docs_types::DomainVector;
use std::hint::black_box;

fn bench_correlated_dve(c: &mut Criterion) {
    let mut group = c.benchmark_group("correlated_dve");
    // Small instances where the exact correlated sum is feasible.
    for entities in [3usize, 5] {
        let es = synthetic_entities(10, entities, 4, 2, 0xC0);
        group.bench_with_input(
            BenchmarkId::new("independent_alg1", entities),
            &es,
            |b, es| b.iter(|| black_box(domain_vector(es, 10))),
        );
        group.bench_with_input(
            BenchmarkId::new("correlated_exact", entities),
            &es,
            |b, es| b.iter(|| black_box(domain_vector_correlated_exact(es, 10, 1.0, 1 << 30))),
        );
        group.bench_with_input(BenchmarkId::new("rerank_alg1", entities), &es, |b, es| {
            b.iter(|| black_box(domain_vector_reranked(es, 10, 1.0)))
        });
    }
    // Larger instances where only Gibbs and reranking stay feasible.
    let config = CorrelationConfig {
        lambda: 1.0,
        burn_in: 20,
        samples: 100,
        seed: 0xC1,
    };
    for entities in [8usize, 12] {
        let es = synthetic_entities(26, entities, 20, 2, 0xC2);
        group.bench_with_input(
            BenchmarkId::new("gibbs_120_sweeps", entities),
            &es,
            |b, es| b.iter(|| black_box(domain_vector_correlated_gibbs(es, 26, &config))),
        );
        group.bench_with_input(BenchmarkId::new("rerank_alg1", entities), &es, |b, es| {
            b.iter(|| black_box(domain_vector_reranked(es, 26, 1.0)))
        });
    }
    group.finish();
}

fn bench_stopping_policy(c: &mut Criterion) {
    let mut group = c.benchmark_group("stopping_policy");
    let r = DomainVector::uniform(26);
    let mut states = TaskArena::new(26, [(&r, 4)]);
    for _ in 0..5 {
        states.apply_answer(0, &vec![0.8; 26], 0);
    }
    for (name, rule) in [
        ("entropy", StoppingRule::EntropyBelow(0.15)),
        ("confidence", StoppingRule::ConfidenceAbove(0.95)),
        ("margin", StoppingRule::MarginAbove(0.9)),
    ] {
        let policy = StoppingPolicy {
            rule,
            min_answers: 3,
            max_answers: 10,
        };
        group.bench_function(name, |b| {
            b.iter(|| black_box(policy.should_stop(black_box(states.view(0)), 5)))
        });
    }
    group.finish();
}

fn bench_budget_planner(c: &mut Criterion) {
    let mut group = c.benchmark_group("budget_planner");
    group.sample_size(20);
    for n in [200usize, 1_000] {
        let m = 20;
        let rs: Vec<DomainVector> = (0..n).map(|i| DomainVector::one_hot(m, i % m)).collect();
        let mut states = TaskArena::new(m, rs.iter().map(|r| (r, 2)));
        for i in 0..n {
            for _ in 0..(i % 6) {
                states.apply_answer(i, &vec![0.8; m], 0);
            }
        }
        let collected: Vec<usize> = (0..n).map(|i| i % 6).collect();
        let quality = vec![0.8; m];
        let planner = BudgetPlanner::new(2 * n, 10);
        group.bench_with_input(
            BenchmarkId::new("greedy_plan", n),
            &(states, collected),
            |b, (states, collected)| {
                b.iter(|| black_box(planner.plan(states, collected, &quality)))
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_correlated_dve,
    bench_stopping_policy,
    bench_budget_planner
);
criterion_main!(benches);
