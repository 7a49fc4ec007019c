//! Benchmark for the extension beyond the paper: `stopping_policy`, the
//! per-answer cost of the stable-point stopping policy (it runs inside the
//! collection loop, so it must be ~free).

use criterion::{criterion_group, criterion_main, Criterion};
use docs_core::ti::{StoppingPolicy, TaskArena};
use docs_types::DomainVector;
use std::hint::black_box;

fn bench_stopping_policy(c: &mut Criterion) {
    let mut group = c.benchmark_group("stopping_policy");
    let r = DomainVector::uniform(26);
    let mut states = TaskArena::new(26, [(&r, 4)]);
    for _ in 0..5 {
        states.apply_answer(0, &vec![0.8; 26], 0);
    }
    let policy = StoppingPolicy {
        entropy_below: 0.15,
        min_answers: 3,
    };
    group.bench_function("entropy", |b| {
        b.iter(|| black_box(policy.should_stop(black_box(states.view(0)), 5)))
    });
    group.finish();
}

criterion_group!(benches, bench_stopping_policy);
criterion_main!(benches);
