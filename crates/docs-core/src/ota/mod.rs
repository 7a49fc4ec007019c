//! Online Task Assignment (Section 5.1).
//!
//! When worker `w` requests tasks, DOCS estimates for every unanswered task
//! the *benefit* of assigning it — the expected reduction in the entropy of
//! the task's probabilistic truth if `w` answers (Definition 5) — and
//! assigns the `k` tasks with the highest benefits. Theorem 4 shows the
//! benefit of a `k`-task set is the sum of individual benefits, so the
//! exponential set-selection collapses to a linear top-`k` scan.
//!
//! The scan has one body for every shard count: each shard is one pass
//! that keeps the shard's running top-`k` in a `k`-slot buffer, and one
//! final selection runs over the shards' survivors — a top-`k` over every
//! candidate's benefit, bit for bit. Once a shard's buffer is full, a task
//! whose benefit bound (`BenefitBounds`: `H(s)`, and for a yes/no task
//! with one support row the worker's channel capacity and strong
//! data-processing bound in that domain) is below the `k`-th benefit by
//! more than `BOUND_MARGIN` is skipped without running the kernel: its
//! benefit cannot reach the top-`k`. The buffers live in a [`ScanScratch`]
//! the caller keeps between requests (a campaign owns one), so a warm
//! request allocates only the list of task ids it returns.

mod benefit;
mod select;

pub use benefit::{answer_probabilities, benefit, benefit_with, BenefitScratch};
pub use select::{top_k_by_sort, top_k_linear};

use benefit::{BenefitBounds, BOUND_MARGIN};

use crate::ti::{ShardedTiState, TaskArena};
use docs_types::{Task, TaskId};

/// Below this many tasks *per shard* the sharded scan stays on the calling
/// thread: spawning scoped threads costs more than scanning that few
/// candidates, and tiny per-thread slices oversubscribe the service's own
/// shard pool.
const PARALLEL_SCAN_MIN_TASKS_PER_SHARD: usize = 1024;

/// The buffers one request's scan writes into, kept by the caller so a
/// warm request allocates nothing but its result: each shard's running
/// top-`k` (at most `shards · k` slots), the benefit kernel's
/// [`BenefitScratch`] and the worker's benefit bounds. Working state only —
/// it carries nothing from one request to the next.
#[derive(Debug, Default)]
pub struct ScanScratch {
    candidates: Vec<(f64, TaskId)>,
    shard: ShardScratch,
    /// What the last request's walk did, for the tests that pin it.
    #[cfg(test)]
    work: ScanWork,
}

/// The buffers one shard's walk uses besides its slice of the running
/// top-`k`s: one per scanning thread.
#[derive(Debug, Default)]
struct ShardScratch {
    benefit: BenefitScratch,
    bounds: BenefitBounds,
}

impl ShardScratch {
    /// Buffers for a request of a worker over `m` domains.
    fn new(m: usize) -> Self {
        let mut scratch = ShardScratch::default();
        scratch.bounds.reset(m);
        scratch
    }
}

/// What a shard's walk did: how many of its tasks passed the filter, how
/// many of those the kernel scored (the rest were skipped on their bound),
/// and how many lead its top-`k` slice.
#[derive(Debug, Default, Clone, Copy)]
struct ScanWork {
    eligible: usize,
    evaluated: usize,
    kept: usize,
}

impl std::ops::AddAssign for ScanWork {
    fn add_assign(&mut self, other: ScanWork) {
        self.eligible += other.eligible;
        self.evaluated += other.evaluated;
        self.kept += other.kept;
    }
}

impl ScanScratch {
    /// Buffers for a campaign over `m` domains, the worker bounds' cache
    /// sized here so that no request allocates it. The running top-`k`s
    /// grow on the first request.
    pub fn new(m: usize) -> Self {
        ScanScratch {
            shard: ShardScratch::new(m),
            ..ScanScratch::default()
        }
    }
}

#[cfg(test)]
impl ScanScratch {
    /// The last request's `(eligible tasks, kernel evaluations)`, summed
    /// over its shards.
    pub(crate) fn last_work(&self) -> (usize, usize) {
        (self.work.eligible, self.work.evaluated)
    }
}

/// Configuration of the assigner.
#[derive(Debug, Clone, Copy)]
pub struct AssignerConfig {
    /// Number of tasks batched per assignment (one HIT); the paper uses
    /// `k = 20` on AMT and `k = 3` per method in the parallel comparison.
    pub k: usize,
    /// Optional cap on answers per task: tasks that already collected this
    /// many answers are not assigned (lets the platform enforce the
    /// "10 answers per task" collection budget).
    pub max_answers_per_task: Option<usize>,
    /// Inert: the scan keeps a running top-`k` and selects over no
    /// candidate list, so no value of it changes a pick or a step. The
    /// field stays because the canonical benchmark under `bench/` names
    /// it; the `ablation_topk` bench calls [`top_k_linear`] and
    /// [`top_k_by_sort`] directly.
    pub linear_select: bool,
}

impl Default for AssignerConfig {
    fn default() -> Self {
        AssignerConfig {
            k: 20,
            max_answers_per_task: None,
            linear_select: true,
        }
    }
}

/// The DOCS online task assigner.
#[derive(Debug, Clone, Default)]
pub struct Assigner {
    config: AssignerConfig,
}

impl Assigner {
    /// Creates an assigner.
    pub fn new(config: AssignerConfig) -> Self {
        assert!(config.k >= 1, "assignments need k >= 1");
        Assigner { config }
    }

    /// Selects up to `k` tasks for the coming worker.
    ///
    /// * `quality` — the worker's quality vector `q^w` (length `m`),
    /// * `tasks` / `states` — the published tasks and their current
    ///   inference state; task `i` has id `i` (as every [`IncrementalTi`]'s
    ///   tasks do), and the scan names it so,
    /// * `answered` — predicate: has this worker already answered the task?
    ///   (implements the `T − T(w)` restriction),
    /// * `answer_count` — current `|V(i)|` per task, for the budget cap.
    ///
    /// Returns the chosen task ids, highest benefit first.
    ///
    /// [`IncrementalTi`]: crate::ti::IncrementalTi
    pub fn assign(
        &self,
        quality: &[f64],
        tasks: &[Task],
        states: &TaskArena,
        mut answered: impl FnMut(TaskId) -> bool,
        mut answer_count: impl FnMut(TaskId) -> usize,
    ) -> Vec<TaskId> {
        debug_assert_eq!(tasks.len(), states.len());
        debug_assert!(positional(tasks));
        let mut top = vec![(0.0, TaskId(0)); self.config.k.min(tasks.len())];
        let work = self.walk(
            quality,
            states,
            0..tasks.len(),
            &mut answered,
            &mut answer_count,
            &mut ShardScratch::new(quality.len()),
            &mut top,
        );
        top[..work.kept].iter().map(|&(_, t)| t).collect()
    }

    /// One pass over a set of task indices, the shared body of the flat
    /// scan and every shard of the sharded scan, so they cannot diverge:
    /// skips the tasks the worker already answered or that reached the
    /// answer cap, and keeps the rest's running top-`k` in `top` (`k`
    /// slots, or fewer when fewer indices are walked). Once `top` is full,
    /// a task whose benefit bound is below the `k`-th benefit minus
    /// [`BOUND_MARGIN`] is skipped without running the kernel.
    #[allow(clippy::too_many_arguments)]
    fn walk(
        &self,
        quality: &[f64],
        states: &TaskArena,
        indices: impl IntoIterator<Item = usize>,
        answered: &mut impl FnMut(TaskId) -> bool,
        answer_count: &mut impl FnMut(TaskId) -> usize,
        scratch: &mut ShardScratch,
        top: &mut [(f64, TaskId)],
    ) -> ScanWork {
        let cap = self.config.max_answers_per_task;
        let full = top.len();
        let mut work = ScanWork::default();
        // The `k`-th benefit less the margin, once `top` is full.
        let mut floor = f64::NEG_INFINITY;
        for i in indices {
            let id = TaskId::from(i);
            if answered(id) || cap.is_some_and(|cap| answer_count(id) >= cap) {
                continue;
            }
            work.eligible += 1;
            let state = states.view(i);
            if work.kept == full && scratch.bounds.bound(state, quality) < floor {
                continue;
            }
            let benefit = benefit_with(&mut scratch.benefit, state, quality);
            work.evaluated += 1;
            select::offer(top, &mut work.kept, (benefit, id));
            if work.kept == full {
                floor = top[full - 1].0 - BOUND_MARGIN;
            }
        }
        work
    }

    /// [`Assigner::assign_sharded_with`] on buffers of its own — for a
    /// caller that keeps no [`ScanScratch`] between requests.
    pub fn assign_sharded(
        &self,
        quality: &[f64],
        tasks: &[Task],
        states: &TaskArena,
        sharding: &ShardedTiState,
        answered: impl Fn(TaskId) -> bool + Sync,
        answer_count: impl Fn(TaskId) -> usize + Sync,
    ) -> Vec<TaskId> {
        let mut scratch = ScanScratch::default();
        self.assign_sharded_with(
            &mut scratch,
            quality,
            tasks,
            states,
            sharding,
            answered,
            answer_count,
        )
    }

    /// The benefit scan: each shard's walk keeps its own running top-`k`,
    /// then one final selection runs over the survivors. Task `i` has id
    /// `i`, as in [`Assigner::assign`].
    ///
    /// Produces exactly [`Assigner::assign`]'s result for every shard count
    /// (same benefits, same tie-breaks), because each shard's top-`k` is a
    /// superset filter of the global winners within that shard (the
    /// argument `select`'s module docs spell out). With more than one
    /// shard and a large task set, shards are scanned on scoped threads —
    /// the per-request parallelism Theorem 4's additive benefit makes safe
    /// (no cross-task coupling in the scan).
    ///
    /// The filter closures take `&self` (`Fn`, not `FnMut`) so shards can
    /// evaluate them concurrently. A warm `scratch` leaves the returned
    /// list as the only allocation of a single-threaded scan.
    #[allow(clippy::too_many_arguments)]
    pub fn assign_sharded_with(
        &self,
        scratch: &mut ScanScratch,
        quality: &[f64],
        tasks: &[Task],
        states: &TaskArena,
        sharding: &ShardedTiState,
        answered: impl Fn(TaskId) -> bool + Sync,
        answer_count: impl Fn(TaskId) -> usize + Sync,
    ) -> Vec<TaskId> {
        debug_assert_eq!(tasks.len(), states.len());
        debug_assert_eq!(tasks.len(), sharding.num_tasks());
        debug_assert!(positional(tasks));
        let k = self.config.k;
        // A shard's slots: its running top-`k`, or every task of a smaller
        // shard.
        let slots = |shard: usize| k.min(sharding.tasks_of(shard).len());
        // One shard's walk into its slots, checked against the merge's
        // precondition.
        let scan_shard = |shard: usize, top: &mut [(f64, TaskId)], scratch: &mut ShardScratch| {
            // Re-borrow the shared `Fn` filters as fresh `FnMut`s so every
            // shard (possibly on its own thread) walks the same shared body.
            let work = self.walk(
                quality,
                states,
                sharding.tasks_of(shard).iter().copied(),
                &mut |t| answered(t),
                &mut |t| answer_count(t),
                scratch,
                top,
            );
            select::check_shard_top_k(shard, &top[..work.kept], work.eligible, k)
                .expect("per-shard top-k lists are well-formed by construction");
            work
        };
        let ScanScratch {
            candidates,
            shard: shard_scratch,
            ..
        } = scratch;
        let shards = sharding.num_shards();
        candidates.resize((0..shards).map(slots).sum(), (0.0, TaskId(0)));
        let mut work = ScanWork::default();
        if shards > 1 && tasks.len() / shards >= PARALLEL_SCAN_MIN_TASKS_PER_SHARD {
            // Each shard walks into its own slots on its own thread; the
            // survivors then move to the front in shard order.
            let mut stretches = Vec::with_capacity(shards);
            let mut rest = &mut candidates[..];
            for shard in 0..shards {
                let (stretch, tail) = rest.split_at_mut(slots(shard));
                stretches.push((shard, stretch));
                rest = tail;
            }
            let done: Vec<ScanWork> = std::thread::scope(|scope| {
                let scan = &scan_shard;
                let handles: Vec<_> = stretches
                    .into_iter()
                    .map(|(shard, stretch)| {
                        scope.spawn(move || {
                            let mut own = ShardScratch::new(quality.len());
                            scan(shard, stretch, &mut own)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard scan panicked"))
                    .collect()
            });
            let mut start = 0;
            for (shard, done) in done.into_iter().enumerate() {
                candidates.copy_within(start..start + done.kept, work.kept);
                start += slots(shard);
                work += done;
            }
        } else {
            // Shard by shard on this thread: each shard walks into the
            // slots right behind the survivors of the shards before it.
            shard_scratch.bounds.reset(quality.len());
            for shard in 0..shards {
                let at = work.kept;
                work += scan_shard(shard, &mut candidates[at..at + slots(shard)], shard_scratch);
            }
        }
        #[cfg(test)]
        {
            scratch.work = work;
        }
        let winners = select::cut_to_top_k(&mut candidates[..work.kept], k);
        candidates[..winners].iter().map(|&(_, t)| t).collect()
    }
}

/// Task `i` has id `i`: the scan names tasks by position.
fn positional(tasks: &[Task]) -> bool {
    tasks.iter().enumerate().all(|(i, t)| t.id.index() == i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use docs_types::{prob, DomainVector, TaskBuilder};

    fn task(i: usize, domain: usize, m: usize) -> Task {
        TaskBuilder::new(i, format!("t{i}"))
            .yes_no()
            .with_domain_vector(DomainVector::one_hot(m, domain))
            .build()
            .unwrap()
    }

    #[test]
    fn assigns_tasks_in_workers_expert_domain() {
        // Two fresh tasks, one per domain; the worker is a domain-0 expert.
        // The domain-0 task must win: the expert's answer reduces entropy
        // more than a coin-flip answer would.
        let tasks = vec![task(0, 0, 2), task(1, 1, 2)];
        let states = TaskArena::for_tasks(2, &tasks);
        let q = vec![0.95, 0.5];
        let assigner = Assigner::new(AssignerConfig {
            k: 1,
            ..Default::default()
        });
        let picks = assigner.assign(&q, &tasks, &states, |_| false, |_| 0);
        assert_eq!(picks, vec![TaskId(0)]);
    }

    #[test]
    fn confident_tasks_yield_little_benefit() {
        // Task 0 already has a confident truth; task 1 is fresh. Even though
        // both are in the worker's expert domain, task 1 wins.
        let tasks = vec![task(0, 0, 1), task(1, 0, 1)];
        let mut states = TaskArena::for_tasks(1, &tasks);
        for _ in 0..6 {
            states.apply_answer(0, &[0.9], 0);
        }
        let assigner = Assigner::new(AssignerConfig {
            k: 1,
            ..Default::default()
        });
        let picks = assigner.assign(&[0.9], &tasks, &states, |_| false, |_| 0);
        assert_eq!(picks, vec![TaskId(1)]);
    }

    #[test]
    fn excludes_already_answered_tasks() {
        let tasks = vec![task(0, 0, 1), task(1, 0, 1)];
        let states = TaskArena::for_tasks(1, &tasks);
        let assigner = Assigner::new(AssignerConfig {
            k: 2,
            ..Default::default()
        });
        let picks = assigner.assign(&[0.8], &tasks, &states, |t| t == TaskId(0), |_| 0);
        assert_eq!(picks, vec![TaskId(1)]);
    }

    #[test]
    fn respects_answer_budget_cap() {
        let tasks = vec![task(0, 0, 1), task(1, 0, 1)];
        let states = TaskArena::for_tasks(1, &tasks);
        let assigner = Assigner::new(AssignerConfig {
            k: 2,
            max_answers_per_task: Some(10),
            ..Default::default()
        });
        let picks = assigner.assign(
            &[0.8],
            &tasks,
            &states,
            |_| false,
            |t| if t == TaskId(0) { 10 } else { 3 },
        );
        assert_eq!(picks, vec![TaskId(1)]);
    }

    #[test]
    fn linear_and_sort_selection_agree() {
        let m = 3;
        let tasks: Vec<Task> = (0..30).map(|i| task(i, i % m, m)).collect();
        let mut states = TaskArena::for_tasks(m, &tasks);
        // Give tasks varying confidence.
        for i in 0..30 {
            for _ in 0..(i % 5) {
                states.apply_answer(i, &[0.8, 0.6, 0.7], 0);
            }
        }
        let q = vec![0.9, 0.55, 0.7];
        let linear = Assigner::new(AssignerConfig {
            k: 7,
            linear_select: true,
            ..Default::default()
        })
        .assign(&q, &tasks, &states, |_| false, |_| 0);
        let sorted = Assigner::new(AssignerConfig {
            k: 7,
            linear_select: false,
            ..Default::default()
        })
        .assign(&q, &tasks, &states, |_| false, |_| 0);
        assert_eq!(linear, sorted);
    }

    /// `n` three-domain tasks of mixed warmth: task `i` has absorbed
    /// `i % 7` answers, so benefits repeat and tie-breaks matter.
    fn mixed_warmth_pool(n: usize) -> (Vec<Task>, TaskArena) {
        let m = 3;
        let tasks: Vec<Task> = (0..n).map(|i| task(i, i % m, m)).collect();
        let mut states = TaskArena::for_tasks(m, &tasks);
        for i in 0..n {
            for _ in 0..(i % 7) {
                states.apply_answer(i, &[0.85, 0.6, 0.72], i % 2);
            }
        }
        (tasks, states)
    }

    #[test]
    fn sharded_scan_equals_flat_scan_for_every_shard_count() {
        use crate::ti::ShardedTiState;
        use std::sync::atomic::{AtomicBool, Ordering};
        let q = vec![0.9, 0.55, 0.7];
        let assigner = Assigner::new(AssignerConfig {
            k: 9,
            max_answers_per_task: Some(5),
            ..Default::default()
        });
        let caller = std::thread::current().id();
        // One buffer serves every call below, across pool sizes and shard
        // counts, and each scan runs twice on it: nothing a scan leaves
        // behind may leak into the next one's picks.
        let mut scratch = ScanScratch::default();
        // The last row reaches the scoped-thread branch: more than one shard
        // and PARALLEL_SCAN_MIN_TASKS_PER_SHARD tasks per shard.
        for (n, shard_counts, threaded) in [
            (200, &[1, 2, 4, 7][..], false),
            (2 * PARALLEL_SCAN_MIN_TASKS_PER_SHARD, &[2][..], true),
        ] {
            let (tasks, states) = mixed_warmth_pool(n);
            let off_thread = AtomicBool::new(false);
            let answered = |t: TaskId| {
                if std::thread::current().id() != caller {
                    off_thread.store(true, Ordering::Relaxed);
                }
                t.index().is_multiple_of(11)
            };
            let count = |t: TaskId| t.index() % 7;
            let flat = assigner.assign(&q, &tasks, &states, answered, count);
            assert_eq!(flat.len(), 9);
            for &shards in shard_counts {
                let sharding = ShardedTiState::new(n, shards);
                let sharded =
                    assigner.assign_sharded(&q, &tasks, &states, &sharding, answered, count);
                assert_eq!(sharded, flat, "n = {n}, shards = {shards}");
                for call in 0..2 {
                    let reused = assigner.assign_sharded_with(
                        &mut scratch,
                        &q,
                        &tasks,
                        &states,
                        &sharding,
                        answered,
                        count,
                    );
                    assert_eq!(reused, flat, "n = {n}, shards = {shards}, call {call}");
                }
            }
            assert_eq!(
                off_thread.load(Ordering::Relaxed),
                threaded,
                "n = {n}: which threads scanned"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Both ways to find the candidates — flat scan, sharded scan —
        /// pick exactly what a top-`k` over the textbook benefits picks,
        /// under a filter and an answer cap.
        #[test]
        fn every_assignment_path_picks_the_textbook_top_k(
            seed in proptest::any::<u64>(),
            quality in proptest::collection::vec(0.0f64..1.0, 7),
            k in 1usize..8,
            shards in 1usize..4
        ) {
            use crate::ti::oracle::{campaign, Sparsity};
            use crate::ti::{ShardedTiState, TruthInference};
            for sparsity in Sparsity::ALL {
                let (tasks, log, registry) = campaign(seed, sparsity);
                let quality = &quality[..registry.num_domains()];
                let states = TruthInference::default().run(&tasks, &log, &registry).states;
                let assigner = Assigner::new(AssignerConfig {
                    k,
                    max_answers_per_task: Some(6),
                    ..Default::default()
                });
                let answered = |t: TaskId| t.index() % 5 == 4;
                let count = |t: TaskId| log.answer_count(t);
                let textbook: Vec<(f64, TaskId)> = tasks
                    .iter()
                    .zip(states.iter())
                    .filter(|(t, _)| !answered(t.id) && count(t.id) < 6)
                    .map(|(t, st)| {
                        let h = benefit::expected_posterior_entropy_textbook(st, quality);
                        (st.entropy() - h, t.id)
                    })
                    .collect();
                let want = top_k_linear(textbook, k);
                let sharding = ShardedTiState::new(tasks.len(), shards);
                proptest::prop_assert_eq!(
                    &assigner.assign(quality, &tasks, &states, answered, count),
                    &want
                );
                proptest::prop_assert_eq!(
                    &assigner.assign_sharded(quality, &tasks, &states, &sharding, answered, count),
                    &want
                );
            }
        }
    }

    /// A pool that stresses the bounds: yes/no tasks on one domain (where
    /// the channel bounds apply) at every confidence from fresh to
    /// saturated, beside yes/no tasks on two domains and `ℓ ∈ {3, 5}`
    /// tasks on one or two (which keep only `H(s)`). Task `i` has id `i`.
    fn bounded_pool(n: usize, seed: u64) -> (Vec<Task>, TaskArena) {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let m = 3;
        let mut rng = SmallRng::seed_from_u64(seed);
        let tasks: Vec<Task> = (0..n)
            .map(|i| {
                let kind = rng.gen_range(0..4usize);
                let k = rng.gen_range(0..m);
                let r = if kind == 1 || rng.gen_range(0..3) == 0 {
                    let mut w = vec![0.0; m];
                    w[k] = rng.gen_range(0.2..1.0);
                    w[(k + 1) % m] = rng.gen_range(0.01..1.0);
                    DomainVector::from_weights(&w).unwrap()
                } else {
                    DomainVector::one_hot(m, k)
                };
                let l = [2, 2, 3, 5][kind];
                TaskBuilder::new(i, format!("t{i}"))
                    .with_choices((0..l).map(|c| format!("c{c}")))
                    .with_domain_vector(r)
                    .build()
                    .unwrap()
            })
            .collect();
        let mut states = TaskArena::for_tasks(m, &tasks);
        for (i, task) in tasks.iter().enumerate() {
            let answers = [0, 1, 2, 4, 8, 30, 200][rng.gen_range(0..7usize)];
            let lean = rng.gen_range(0..task.num_choices());
            for _ in 0..answers {
                let quality: Vec<f64> = (0..m).map(|_| rng.gen_range(0.3..1.0)).collect();
                let choice = if rng.gen_range(0..4) == 0 {
                    rng.gen_range(0..task.num_choices())
                } else {
                    lean
                };
                states.apply_answer(i, &quality, choice);
            }
        }
        (tasks, states)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// The skipping scan picks exactly the textbook top-`k` on pools
        /// where many tasks' bounds fall below the `k`-th benefit, for
        /// workers whose qualities include the clamped ends and the coin
        /// flip, flat and at 1–3 shards, and on the threaded branch.
        #[test]
        fn skipping_never_changes_a_pick(
            seed in proptest::any::<u64>(),
            levels in proptest::collection::vec(0usize..5, 3),
            k in 1usize..=8,
            cap in proptest::option::of(1usize..200)
        ) {
            use crate::ti::ShardedTiState;
            let quality: Vec<f64> = levels
                .iter()
                .enumerate()
                .map(|(d, &level)| [0.0, 0.5, 1.0, 0.8, 0.3 + 0.2 * d as f64][level])
                .collect();
            let assigner = Assigner::new(AssignerConfig {
                k,
                max_answers_per_task: cap,
                ..Default::default()
            });
            let mut scratch = ScanScratch::new(3);
            for (n, shard_counts) in [
                (90, &[1, 2, 3][..]),
                (2 * PARALLEL_SCAN_MIN_TASKS_PER_SHARD, &[2][..]),
            ] {
                let (tasks, states) = bounded_pool(n, seed);
                let answered = |t: TaskId| t.index() % 7 == 3;
                let count = |t: TaskId| t.index() % 5 * 40;
                let textbook: Vec<(f64, TaskId)> = states
                    .iter()
                    .enumerate()
                    .map(|(i, st)| (st, TaskId::from(i)))
                    .filter(|&(_, t)| !answered(t) && cap.is_none_or(|cap| count(t) < cap))
                    .map(|(st, t)| {
                        let h = benefit::expected_posterior_entropy_textbook(st, &quality);
                        (st.entropy() - h, t)
                    })
                    .collect();
                let want = top_k_linear(textbook, k);
                proptest::prop_assert_eq!(
                    &assigner.assign(&quality, &tasks, &states, answered, count),
                    &want
                );
                for &shards in shard_counts {
                    let sharding = ShardedTiState::new(n, shards);
                    let got = assigner.assign_sharded_with(
                        &mut scratch, &quality, &tasks, &states, &sharding, answered, count,
                    );
                    proptest::prop_assert_eq!(&got, &want, "n = {}, shards = {}", n, shards);
                }
            }
        }
    }

    /// On single-row yes/no tasks, fresh and driven to saturation, the
    /// kernel's benefit never exceeds the channel capacity or the strong
    /// data-processing bound by more than a thousandth of the margin, for
    /// workers across the quality range. A fresh task's benefit is the
    /// capacity itself, to the last bit.
    #[test]
    fn single_row_yes_no_benefits_respect_both_channel_bounds() {
        let levels = [
            0.0,
            1e-7,
            0.01,
            0.2,
            0.45,
            0.5,
            0.5 + 1e-9,
            0.55,
            0.7,
            0.9,
            0.999,
            1.0,
        ];
        let slack = BOUND_MARGIN / 1000.0;
        let r = [DomainVector::one_hot(2, 0), DomainVector::one_hot(2, 1)];
        let mut arena = TaskArena::new(2, r.iter().map(|r| (r, 2)));
        let mut scratch = BenefitScratch::default();
        let mut bounds = BenefitBounds::default();
        let mut checked = 0;
        for step in 0..400 {
            for &q in &levels {
                let quality = [q, 1.0 - q];
                bounds.reset(2);
                for (i, state) in arena.iter().enumerate() {
                    let [capacity, contraction] = benefit::binary_channel(quality[i]);
                    let b = benefit_with(&mut scratch, state, &quality);
                    let h = state.entropy();
                    assert!(
                        b <= capacity + slack,
                        "step {step}, q {q}: {b} > C {capacity}"
                    );
                    assert!(
                        b <= contraction * h + slack,
                        "step {step}, q {q}: {b} > η·H = {contraction} · {h}"
                    );
                    assert!(b <= bounds.bound(state, &quality) + slack);
                    if step == 0 {
                        assert_eq!(b.to_bits(), capacity.to_bits(), "fresh, q {q}");
                    }
                    checked += 1;
                }
            }
            // Task 0 leans to choice 0 through a worker of moderate
            // quality in its domain, task 1 saturates under one of 1.
            let choice = usize::from(step % 5 == 4);
            arena.apply_answer(0, &[0.7, 0.7], choice);
            arena.apply_answer(1, &[0.5, 1.0], choice);
        }
        assert_eq!(checked, 400 * levels.len() * 2);
        let saturated = arena.view(1);
        assert!(saturated.rows().any(|(_, _, row)| row.contains(&0.0)));
    }

    /// Why multi-row tasks keep only `H(s)`: this `ℓ = 3` task mixes three
    /// rows, and its benefit for this worker (≈ 0.4859) exceeds every
    /// row's channel capacity (the largest, `ln 3 − H(hit, miss, miss)` at
    /// `q = 0`, is ≈ 0.4055 = ln 3/2). A capacity bound extended to such
    /// mixtures would skip a task that belongs in the top-`k`.
    #[test]
    fn a_mixture_can_exceed_the_capacity() {
        let r = DomainVector::new(vec![0.784, 0.0006, 0.2154]).unwrap();
        let rows = [
            [0.4375, 0.0016, 0.5610],
            [0.0064, 0.0038, 0.9897],
            [0.00001, 0.9849, 0.0151],
        ];
        let quality = [0.0, 0.3404, 0.0];
        let mut arena = TaskArena::new(3, [(&r, 3)]);
        let m_hat: Vec<f64> = rows.iter().flatten().copied().collect();
        let mut s = [0.0; 3];
        for (row, &rk) in rows.iter().zip(r.as_slice()) {
            let sum: f64 = row.iter().sum();
            for (slot, &v) in s.iter_mut().zip(row) {
                *slot += rk * v / sum;
            }
        }
        arena.load(&m_hat, &s);
        let state = arena.view(0);
        let b = benefit(state, &quality);
        let capacity = |q: f64| {
            let hit = crate::ti::clamp_quality(q);
            let miss = (1.0 - hit) / 2.0;
            3f64.ln() - prob::entropy(&[hit, miss, miss])
        };
        let widest = quality.iter().map(|&q| capacity(q)).fold(0.0, f64::max);
        assert!((b - 0.4859).abs() < 1e-4, "benefit {b}");
        assert!((widest - 0.4055).abs() < 1e-4, "capacity {widest}");
        assert!(b > widest + 0.08);
        // The scan's bound for it is H(s), which holds.
        let mut bounds = BenefitBounds::default();
        bounds.reset(3);
        assert_eq!(
            bounds.bound(state, &quality).to_bits(),
            state.entropy().to_bits()
        );
        assert!(b <= state.entropy());
    }

    #[test]
    fn returns_fewer_when_not_enough_candidates() {
        let tasks = vec![task(0, 0, 1)];
        let states = TaskArena::for_tasks(1, &tasks);
        let assigner = Assigner::new(AssignerConfig {
            k: 5,
            ..Default::default()
        });
        let picks = assigner.assign(&[0.8], &tasks, &states, |_| false, |_| 0);
        assert_eq!(picks.len(), 1);
    }
}
