//! The inference kernels do not allocate: a counting allocator around
//! `ota::benefit_with` and `TaskArena::apply_answer` (zero allocations per
//! call, and none at all for a yes/no task's benefit), `TaskArena::new`
//! and a worker request's scan (a fixed number whatever the task count) and
//! full inference (an allocation count that neither the number of
//! iterations nor the number of tasks moves). Run with `--release` as
//! well: the claim is about optimised code.

use docs_core::ota::{benefit_with, Assigner, AssignerConfig, BenefitScratch};
use docs_core::ti::{
    IncrementalTi, ShardedTiState, TaskArena, TiConfig, TruthInference, WorkerRegistry,
};
use docs_types::{Answer, AnswerLog, DomainVector, Task, TaskBuilder, TaskId, WorkerId};
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

/// `n` tasks over 6 domains, `ℓ` cycling through 2, 3 and 5, supports of
/// one to three domains; 12 workers answer every task.
fn campaign(n: usize) -> (Vec<Task>, AnswerLog) {
    let m = 6;
    let tasks: Vec<Task> = (0..n)
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
    let (tasks, log) = campaign(40);
    let registry = WorkerRegistry::new(6, 0.7);
    let states = TruthInference::default()
        .run(&tasks, &log, &registry)
        .states;
    let quality = [0.9, 0.55, 0.7, 0.2, 1.0, 0.0];
    let mut scratch = BenefitScratch::default();
    let scan = |scratch: &mut BenefitScratch| -> f64 {
        states
            .iter()
            .map(|st| benefit_with(scratch, st, &quality))
            .sum()
    };
    let warm_up = scan(&mut scratch);
    let (allocations, again) = allocations_during(|| scan(&mut scratch));
    assert_eq!(allocations, 0, "over {} benefit calls", tasks.len());
    assert_eq!(again.to_bits(), warm_up.to_bits());
}

/// The `ℓ = 2` kernel keeps its vectors in locals: even a fresh scratch
/// stays empty on yes/no tasks.
#[test]
fn benefit_on_yes_no_tasks_allocates_nothing_with_a_fresh_scratch() {
    let (tasks, log) = campaign(40);
    let registry = WorkerRegistry::new(6, 0.7);
    let states = TruthInference::default()
        .run(&tasks, &log, &registry)
        .states;
    let quality = [0.9, 0.55, 0.7, 0.2, 1.0, 0.0];
    let yes_no = || states.iter().filter(|st| st.num_choices() == 2);
    let (allocations, _) = allocations_during(|| {
        yes_no()
            .map(|st| benefit_with(&mut BenefitScratch::default(), st, &quality))
            .sum::<f64>()
    });
    assert_eq!(allocations, 0, "over {} yes/no tasks", yes_no().count());
}

/// What one worker request allocates — the candidate list, the scratch of
/// the `ℓ > 2` tasks, the selection — does not grow with the pool: the flat
/// and the sharded scan take as many allocations for 400 mixed-`ℓ` tasks as
/// for 40.
#[test]
fn a_request_allocates_the_same_for_any_task_count() {
    let assigner = Assigner::new(AssignerConfig {
        k: 20,
        max_answers_per_task: Some(12),
        ..Default::default()
    });
    let quality = [0.9, 0.55, 0.7, 0.2, 1.0, 0.0];
    let request = |n| {
        let (tasks, log) = campaign(n);
        let states = TruthInference::default()
            .run(&tasks, &log, &WorkerRegistry::new(6, 0.7))
            .states;
        let sharding = ShardedTiState::new(n, 3);
        let answered = |t: TaskId| t.index() % 5 == 4;
        let count = |t: TaskId| t.index() % 13;
        let flat =
            allocations_during(|| assigner.assign(&quality, &tasks, &states, answered, count));
        let sharded = allocations_during(|| {
            assigner.assign_sharded(&quality, &tasks, &states, &sharding, answered, count)
        });
        assert_eq!(flat.1, sharded.1, "{n} tasks");
        (flat.0, sharded.0)
    };
    assert_eq!(
        request(400),
        request(40),
        "(flat, sharded) at 400 tasks against 40"
    );
}

#[test]
fn applying_an_answer_allocates_nothing() {
    let (tasks, _) = campaign(40);
    let mut states = TaskArena::for_tasks(6, &tasks);
    let quality = [0.9, 0.55, 0.7, 0.2, 1.0, 0.0];
    let (allocations, ()) = allocations_during(|| {
        for (i, task) in tasks.iter().enumerate() {
            states.apply_answer(i, &quality, i % task.num_choices());
        }
    });
    assert_eq!(allocations, 0, "over {} answers", tasks.len());
}

#[test]
fn creating_the_arena_takes_the_same_allocations_for_any_task_count() {
    let create = |n| {
        let (tasks, _) = campaign(n);
        allocations_during(|| TaskArena::for_tasks(6, &tasks)).0
    };
    let small = create(40);
    assert_eq!(create(400), small, "400 tasks against 40");
    assert!(small <= 6, "one allocation per buffer, found {small}");
}

#[test]
fn full_inference_allocations_do_not_grow_with_the_iteration_count() {
    let (tasks, log) = campaign(40);
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
    assert_eq!(run(20), run(1), "20 iterations against 1");
}

/// The periodic full run converges into the engine's own arena and writes
/// qualities and weights into the live registry in place: what it
/// allocates is its index and scratch, as many buffers for 400 tasks as
/// for 40.
#[test]
fn a_periodic_full_run_allocates_the_same_for_any_task_count() {
    let run_full = |n| {
        let (tasks, log) = campaign(n);
        let mut engine = IncrementalTi::new(tasks, WorkerRegistry::new(6, 0.7), 0);
        for answer in log.iter_answers() {
            engine.submit(answer).unwrap();
        }
        allocations_during(|| engine.run_full()).0
    };
    let small = run_full(40);
    assert_eq!(run_full(400), small, "400 tasks against 40");
}
