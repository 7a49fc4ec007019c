//! Benchmarks for the extensions beyond the paper:
//!
//! * `stopping_policy`: per-answer cost of the stable-point stopping rules
//!   (they run inside the collection loop, so they must be ~free),
//! * `budget_planner`: greedy marginal-benefit allocation across campaign
//!   sizes (advisory planning, run once per campaign checkpoint).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use docs_core::ota::BudgetPlanner;
use docs_core::ti::{StoppingPolicy, StoppingRule, TaskArena};
use docs_types::DomainVector;
use std::hint::black_box;

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

criterion_group!(benches, bench_stopping_policy, bench_budget_planner);
criterion_main!(benches);
