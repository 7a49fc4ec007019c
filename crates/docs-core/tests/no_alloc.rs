//! The inference kernels do not allocate: a counting allocator around
//! `ota::benefit_with` (zero allocations per call once the scratch is warm)
//! and `TruthInference::run` (an allocation count that the number of
//! iterations does not move). Run with `--release` as well: the claim is
//! about optimised code.

use docs_core::ota::{benefit_with, BenefitScratch};
use docs_core::ti::{TaskState, TiConfig, TruthInference, WorkerRegistry};
use docs_types::{Answer, AnswerLog, DomainVector, Task, TaskBuilder, WorkerId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts this thread's allocations (the test harness runs tests on
/// parallel threads, so a process-wide count would see the neighbours').
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a const-initialised thread-local
// `Cell<u64>` without a destructor, so touching it neither allocates nor
// runs during thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `alloc` and `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations_during<T>(work: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = work();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// 40 tasks over 6 domains, `ℓ` cycling through 2, 3 and 5, supports of one
/// to three domains; 12 workers answer every task.
fn campaign() -> (Vec<Task>, AnswerLog) {
    let m = 6;
    let tasks: Vec<Task> = (0..40usize)
        .map(|i| {
            let mut weights = vec![0.0; m];
            for d in 0..=(i % 3) {
                weights[(i + 2 * d) % m] += 1.0 + d as f64;
            }
            TaskBuilder::new(i, format!("t{i}"))
                .with_choices((0..[2, 3, 5][i % 3]).map(|c| format!("c{c}")))
                .with_domain_vector(DomainVector::from_weights(&weights).unwrap())
                .build()
                .unwrap()
        })
        .collect();
    let mut log = AnswerLog::new(tasks.len());
    for task in &tasks {
        for w in 0..12usize {
            log.record(Answer {
                task: task.id,
                worker: WorkerId::from(w),
                choice: (task.id.index() + w * w) % task.num_choices(),
            })
            .unwrap();
        }
    }
    (tasks, log)
}

#[test]
fn benefit_allocates_nothing_once_the_scratch_is_warm() {
    let (tasks, log) = campaign();
    let registry = WorkerRegistry::new(6, 0.7);
    let states: Vec<TaskState> = TruthInference::default()
        .run(&tasks, &log, &registry)
        .states;
    let quality = [0.9, 0.55, 0.7, 0.2, 1.0, 0.0];
    let mut scratch = BenefitScratch::default();
    let scan = |scratch: &mut BenefitScratch| -> f64 {
        tasks
            .iter()
            .zip(&states)
            .map(|(t, st)| benefit_with(scratch, st, t.domain_vector(), &quality))
            .sum()
    };
    let warm_up = scan(&mut scratch);
    let (allocations, again) = allocations_during(|| scan(&mut scratch));
    assert_eq!(allocations, 0, "over {} benefit calls", tasks.len());
    assert_eq!(again.to_bits(), warm_up.to_bits());
}

#[test]
fn full_inference_allocations_do_not_grow_with_the_iteration_count() {
    let (tasks, log) = campaign();
    let registry = WorkerRegistry::new(6, 0.7);
    // ε = 0 never converges: exactly `max_iterations` iterations run.
    let run = |max_iterations| {
        let ti = TruthInference::new(TiConfig {
            max_iterations,
            epsilon: 0.0,
        });
        let (allocations, result) = allocations_during(|| ti.run(&tasks, &log, &registry));
        assert_eq!(result.deltas.len(), max_iterations);
        allocations
    };
    let one = run(1);
    assert_eq!(run(20), one, "20 iterations against 1");
    // What is left is the output (three vectors per task state, one
    // quality vector per worker, the maps) and the per-run index.
    assert!(one < 4 * (tasks.len() as u64 + 12) + 64, "{one}");
}
