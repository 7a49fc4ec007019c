//! Figure 8(c) bench: one OTA assignment decision vs `n` and `k` (m = 20).
//! Expectation: linear in `n`, flat in `k` (linear top-k selection).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use docs_core::ota::{Assigner, AssignerConfig};
use docs_core::ti::TaskArena;
use docs_datasets::scalability_tasks;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn bench_ota_scalability(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig8c_ota");
    group.sample_size(20);
    for n in [1_000usize, 5_000, 10_000] {
        let tasks = scalability_tasks(n, 20, 0x8C);
        let mut rng = SmallRng::seed_from_u64(0x8C ^ n as u64);
        let mut states = TaskArena::for_tasks(20, &tasks);
        for (i, t) in tasks.iter().enumerate() {
            for _ in 0..rng.gen_range(0..5) {
                let q: Vec<f64> = (0..20).map(|_| rng.gen_range(0.4..0.95)).collect();
                states.apply_answer(i, &q, rng.gen_range(0..t.num_choices()));
            }
        }
        let quality: Vec<f64> = (0..20).map(|_| rng.gen_range(0.4..0.95)).collect();
        for k in [5usize, 10, 50] {
            let assigner = Assigner::new(AssignerConfig {
                k,
                ..Default::default()
            });
            group.bench_with_input(
                BenchmarkId::new(format!("n{n}"), k),
                &(&tasks, &states),
                |b, (tasks, states)| {
                    b.iter(|| black_box(assigner.assign(&quality, tasks, states, |_| false, |_| 0)))
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_ota_scalability);
criterion_main!(benches);
