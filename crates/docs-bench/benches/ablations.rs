//! Design-choice ablations called out in DESIGN.md:
//!
//! * `hashmap_key`: Algorithm 1 with packed-u64 vs tuple hash-map keys,
//! * `topk`: linear quickselect vs full sort in OTA's top-k,
//! * `incremental_vs_iterative`: one incremental TI update vs a full
//!   iterative re-run (the z-period trade-off of Section 4.2),
//! * `entropy_benefit`: the benefit function vs the cheaper variance-style
//!   confidence gap (what Definition 5 buys over a simpler score).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use docs_core::dve::{domain_vector, domain_vector_tuple_key};
use docs_core::ota::{benefit, top_k_by_sort, top_k_linear};
use docs_core::ti::{IncrementalTi, TaskArena, WorkerRegistry};
use docs_kb::generator::synthetic_entities;
use docs_types::{Answer, DomainVector, TaskId, WorkerId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn bench_hashmap_key(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_hashmap_key");
    for entities in [4usize, 8] {
        let es = synthetic_entities(26, entities, 20, 2, 0xAB);
        group.bench_with_input(BenchmarkId::new("packed_u64", entities), &es, |b, es| {
            b.iter(|| black_box(domain_vector(es, 26)))
        });
        group.bench_with_input(BenchmarkId::new("tuple", entities), &es, |b, es| {
            b.iter(|| black_box(domain_vector_tuple_key(es, 26)))
        });
    }
    group.finish();
}

fn bench_topk(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(0x70);
    let candidates: Vec<(f64, TaskId)> = (0..50_000u32)
        .map(|t| (rng.gen::<f64>(), TaskId(t)))
        .collect();
    let mut group = c.benchmark_group("ablation_topk");
    for k in [20usize, 500] {
        group.bench_with_input(BenchmarkId::new("linear", k), &k, |b, &k| {
            b.iter(|| black_box(top_k_linear(candidates.clone(), k)))
        });
        group.bench_with_input(BenchmarkId::new("sort", k), &k, |b, &k| {
            b.iter(|| black_box(top_k_by_sort(candidates.clone(), k)))
        });
    }
    group.finish();
}

fn bench_incremental_vs_iterative(c: &mut Criterion) {
    let tasks = docs_datasets::scalability_tasks(1_000, 20, 0x1C);
    let registry = WorkerRegistry::new(20, 0.7);
    // Warm an engine with 5 answers per task.
    let mut engine = IncrementalTi::new(tasks, registry, 0);
    let mut rng = SmallRng::seed_from_u64(0x1C1C);
    for t in 0..1_000usize {
        for w in 0..5usize {
            engine
                .submit(Answer {
                    task: TaskId::from(t),
                    worker: WorkerId::from(w * 37 + t % 29),
                    choice: rng.gen_range(0..2),
                })
                .unwrap();
        }
    }
    let mut group = c.benchmark_group("ablation_incremental");
    group.sample_size(10);
    group.bench_function("one_incremental_update", |b| {
        let mut w = 10_000u32;
        b.iter(|| {
            w += 1;
            let mut e = engine.clone();
            black_box(
                e.submit(Answer {
                    task: TaskId(0),
                    worker: WorkerId(w),
                    choice: 0,
                })
                .unwrap(),
            )
        })
    });
    group.bench_function("full_iterative_rerun", |b| {
        b.iter(|| {
            let mut e = engine.clone();
            black_box(e.run_full())
        })
    });
    group.finish();
}

fn bench_entropy_benefit(c: &mut Criterion) {
    let r = DomainVector::uniform(20);
    let mut states = TaskArena::new(20, [(&r, 2)]);
    let q: Vec<f64> = (0..20).map(|k| 0.5 + (k as f64) * 0.02).collect();
    states.apply_answer(0, &q, 0);
    let st = states.view(0);
    let mut group = c.benchmark_group("ablation_benefit");
    group.bench_function("entropy_reduction", |b| {
        b.iter(|| black_box(benefit(st, &q)))
    });
    group.bench_function("confidence_gap", |b| {
        b.iter(|| {
            // Cheaper heuristic: 1 − max_j s_j, no posterior lookahead.
            let s = st.s();
            black_box(1.0 - s.iter().cloned().fold(f64::NEG_INFINITY, f64::max))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_hashmap_key,
    bench_topk,
    bench_incremental_vs_iterative,
    bench_entropy_benefit
);
criterion_main!(benches);
