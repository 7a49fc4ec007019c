//! The parallel-comparison experiment protocol of Section 6.1.
//!
//! "As the assigned tasks for each coming worker may be totally different for
//! different methods, to ensure that the same set of workers are used in
//! comparisons, similar to [54], we assign tasks to a coming worker in
//! parallel using different assignment methods. … We ensure that each method
//! collects the same number of answers in total."
//!
//! [`Platform`] reproduces exactly that: a shared worker arrival stream, a
//! shared per-(worker, task) answer cache (a worker gives the same answer to
//! the same task no matter which method asked), and per-method answer
//! budgets.

use crate::strategy::AssignmentStrategy;
use crate::worker::{AnswerModel, WorkerPopulation};
use docs_types::{Answer, AnswerLog, ChoiceIndex, Task, TaskId, WorkerId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// How workers arrive at the platform.
///
/// Real AMT activity is heavily skewed — a small core of workers performs
/// most HITs (which is why Figure 6(b) can single out "the 3 workers who
/// have answered the highest number of tasks"). [`ArrivalProcess::Zipf`]
/// reproduces that skew; [`ArrivalProcess::Uniform`] is the idealized
/// stream the comparison experiments default to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Every worker equally likely at each arrival.
    Uniform,
    /// Worker `i` arrives with probability ∝ `1 / (i + 1)^exponent` —
    /// worker 0 is the platform's most active regular.
    Zipf {
        /// Skew exponent (`1.0` is the classic Zipf law; larger = more
        /// concentrated).
        exponent: f64,
    },
    /// Bursty arrivals: a *hot cohort* of `window` consecutive workers
    /// (starting at a random offset) supplies the next `hold` arrivals,
    /// then the cohort re-bases at a fresh random offset. Models the
    /// forum-post / push-notification effect where a batch of related
    /// workers floods the campaign at once — the worst case for golden-gate
    /// calibration because many first-time workers hit the gate together.
    Bursty {
        /// Hot-cohort size (capped at the population size).
        window: usize,
        /// Arrivals served by one cohort before re-basing.
        hold: usize,
    },
}

/// Stateful sampler for a worker arrival stream.
///
/// [`ArrivalProcess::Uniform`] and [`ArrivalProcess::Zipf`] are memoryless,
/// but [`ArrivalProcess::Bursty`] carries cohort state between arrivals, so
/// sampling lives in its own (cheaply cloneable) object rather than on
/// [`Platform`]. Construction validates the process parameters.
#[derive(Debug, Clone)]
pub struct ArrivalSampler {
    population: usize,
    kind: SamplerKind,
}

#[derive(Debug, Clone)]
enum SamplerKind {
    Uniform,
    /// Cumulative arrival distribution over workers.
    Zipf(Vec<f64>),
    Bursty {
        window: usize,
        hold: usize,
        /// First worker of the current hot cohort.
        base: usize,
        /// Arrivals left before the cohort re-bases (0 = re-base now).
        left: usize,
    },
}

impl ArrivalSampler {
    /// Builds a sampler over a population of the given size. Panics on
    /// invalid parameters (non-positive Zipf exponent, zero bursty window
    /// or hold, empty population).
    pub fn new(process: ArrivalProcess, population: usize) -> Self {
        assert!(population > 0, "arrival sampler needs workers");
        let kind = match process {
            ArrivalProcess::Uniform => SamplerKind::Uniform,
            ArrivalProcess::Zipf { exponent } => {
                assert!(
                    exponent > 0.0 && exponent.is_finite(),
                    "Zipf exponent must be positive"
                );
                let mut acc = 0.0;
                let mut cdf: Vec<f64> = (0..population)
                    .map(|i| {
                        acc += 1.0 / ((i + 1) as f64).powf(exponent);
                        acc
                    })
                    .collect();
                let total = acc;
                cdf.iter_mut().for_each(|c| *c /= total);
                SamplerKind::Zipf(cdf)
            }
            ArrivalProcess::Bursty { window, hold } => {
                assert!(window >= 1, "bursty window must be positive");
                assert!(hold >= 1, "bursty hold must be positive");
                SamplerKind::Bursty {
                    window: window.min(population),
                    hold,
                    base: 0,
                    left: 0,
                }
            }
        };
        ArrivalSampler { population, kind }
    }

    /// Samples the next arriving worker.
    pub fn next(&mut self, rng: &mut SmallRng) -> WorkerId {
        match &mut self.kind {
            SamplerKind::Uniform => WorkerId::from(rng.gen_range(0..self.population)),
            SamplerKind::Zipf(cdf) => {
                let u: f64 = rng.gen();
                let idx = cdf.partition_point(|&c| c < u);
                WorkerId::from(idx.min(self.population - 1))
            }
            SamplerKind::Bursty {
                window,
                hold,
                base,
                left,
            } => {
                if *left == 0 {
                    *base = rng.gen_range(0..self.population);
                    *left = *hold;
                }
                *left -= 1;
                let offset = rng.gen_range(0..*window);
                WorkerId::from((*base + offset) % self.population)
            }
        }
    }
}

/// Platform configuration.
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    /// Tasks assigned per method per worker arrival (the paper uses 3 in
    /// the parallel comparison, 20 in single-method deployments).
    pub k_per_hit: usize,
    /// Total answers each method may collect (the paper's budget is
    /// `10 × n`).
    pub answer_budget: usize,
    /// Answer model for the simulated workers.
    pub answer_model: AnswerModel,
    /// Worker arrival distribution.
    pub arrivals: ArrivalProcess,
    /// RNG seed for arrivals and answers.
    pub seed: u64,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            k_per_hit: 3,
            answer_budget: 0, // set by the caller; 0 means 10 × n
            answer_model: AnswerModel::DomainUniform,
            arrivals: ArrivalProcess::Uniform,
            seed: 0xA37,
        }
    }
}

/// Per-method outcome of a platform run.
#[derive(Debug, Clone)]
pub struct ExperimentOutcome {
    /// Method display name.
    pub name: &'static str,
    /// The answers this method collected.
    pub log: AnswerLog,
    /// Accuracy of the truths the method's own inference procedure infers,
    /// against ground truth.
    pub accuracy: f64,
    /// Worst-case single assignment latency observed (Figure 8(b) reports
    /// worst-case assignment time).
    pub worst_assign_time: Duration,
}

/// The simulated crowdsourcing platform.
#[derive(Debug)]
pub struct Platform<'a> {
    tasks: &'a [Task],
    golden_ids: Vec<TaskId>,
    population: &'a WorkerPopulation,
    config: PlatformConfig,
    /// Validated sampler template — cloned per run so `run_parallel` stays
    /// `&self` while bursty arrivals keep per-run cohort state.
    sampler: ArrivalSampler,
}

impl<'a> Platform<'a> {
    /// Creates a platform over published tasks, pre-selected golden task
    /// ids, and a worker population. Tasks must carry ground truth and true
    /// domains (they drive the simulated answers).
    pub fn new(
        tasks: &'a [Task],
        golden_ids: Vec<TaskId>,
        population: &'a WorkerPopulation,
        config: PlatformConfig,
    ) -> Self {
        assert!(config.k_per_hit >= 1);
        let sampler = ArrivalSampler::new(config.arrivals, population.len());
        Platform {
            tasks,
            golden_ids,
            population,
            config,
            sampler,
        }
    }

    /// Runs the parallel comparison: all strategies see the same worker
    /// stream and each collects `answer_budget` answers (or as many as
    /// reachable). Returns one outcome per strategy, in input order.
    pub fn run_parallel(
        &self,
        strategies: &mut [&mut dyn AssignmentStrategy],
    ) -> Vec<ExperimentOutcome> {
        let n = self.tasks.len();
        let budget = if self.config.answer_budget == 0 {
            10 * n
        } else {
            self.config.answer_budget
        };
        let mut rng = SmallRng::seed_from_u64(self.config.seed);
        // Shared (worker, task) → answer cache: a worker is consistent
        // across methods.
        let mut cache: HashMap<(WorkerId, TaskId), ChoiceIndex> = HashMap::new();
        let mut seen_worker = vec![false; self.population.len()];
        let mut logs: Vec<AnswerLog> = strategies.iter().map(|_| AnswerLog::new(n)).collect();
        let mut collected = vec![0usize; strategies.len()];
        let mut worst = vec![Duration::ZERO; strategies.len()];

        // Worker arrival stream: uniformly random arrivals with replacement,
        // bounded so a stuck strategy cannot loop forever.
        let max_arrivals = (budget * strategies.len() / self.config.k_per_hit + 1) * 8;
        let mut arrivals = 0usize;
        let mut sampler = self.sampler.clone();
        while collected.iter().any(|&c| c < budget) && arrivals < max_arrivals {
            arrivals += 1;
            let w = sampler.next(&mut rng);

            // First visit: answer the golden tasks and initialize every
            // method's view of this worker.
            if !seen_worker[w.index()] {
                seen_worker[w.index()] = true;
                let golden: Vec<(TaskId, ChoiceIndex)> = self
                    .golden_ids
                    .iter()
                    .map(|&tid| (tid, self.answer_for(&mut cache, &mut rng, w, tid)))
                    .collect();
                for s in strategies.iter_mut() {
                    s.init_worker(w, &golden);
                }
            }

            for (si, s) in strategies.iter_mut().enumerate() {
                if collected[si] >= budget {
                    continue;
                }
                let k = self.config.k_per_hit.min(budget - collected[si]);
                let t0 = Instant::now();
                let assigned = s.assign(w, k);
                worst[si] = worst[si].max(t0.elapsed());
                for tid in assigned {
                    if logs[si].has_answered(w, tid) {
                        // Protocol violation by the strategy; skip rather
                        // than corrupt the log.
                        continue;
                    }
                    let choice = self.answer_for(&mut cache, &mut rng, w, tid);
                    let answer = Answer {
                        task: tid,
                        worker: w,
                        choice,
                    };
                    logs[si].record(answer).expect("valid answer");
                    collected[si] += 1;
                    s.feedback(answer);
                }
            }
        }

        strategies
            .iter()
            .zip(logs)
            .zip(worst)
            .map(|((s, log), worst_assign_time)| ExperimentOutcome {
                name: s.name(),
                log,
                accuracy: accuracy_of(&s.truths(), self.tasks),
                worst_assign_time,
            })
            .collect()
    }

    /// Collects a plain dataset: every task answered by `answers_per_task`
    /// distinct random workers (the Section 6.1 answer-collection protocol
    /// used for the TI experiments, where assignment is not under test).
    pub fn collect_uniform(&self, answers_per_task: usize) -> AnswerLog {
        let mut rng = SmallRng::seed_from_u64(self.config.seed);
        let mut cache: HashMap<(WorkerId, TaskId), ChoiceIndex> = HashMap::new();
        let mut log = AnswerLog::new(self.tasks.len());
        assert!(
            answers_per_task <= self.population.len(),
            "need at least as many workers as answers per task"
        );
        for task in self.tasks {
            // Sample distinct workers for this task.
            let mut chosen: Vec<usize> = Vec::with_capacity(answers_per_task);
            while chosen.len() < answers_per_task {
                let w = rng.gen_range(0..self.population.len());
                if !chosen.contains(&w) {
                    chosen.push(w);
                }
            }
            for w in chosen {
                let w = WorkerId::from(w);
                let choice = self.answer_for(&mut cache, &mut rng, w, task.id);
                log.record(Answer {
                    task: task.id,
                    worker: w,
                    choice,
                })
                .expect("distinct workers per task");
            }
        }
        log
    }

    /// Generates (and caches) worker `w`'s answer for a task.
    fn answer_for(
        &self,
        cache: &mut HashMap<(WorkerId, TaskId), ChoiceIndex>,
        rng: &mut SmallRng,
        w: WorkerId,
        tid: TaskId,
    ) -> ChoiceIndex {
        *cache.entry((w, tid)).or_insert_with(|| {
            self.population.worker(w).answer(
                &self.tasks[tid.index()],
                self.config.answer_model,
                rng,
            )
        })
    }
}

/// Accuracy of inferred truths against the tasks' ground truth, or `None`
/// when no task carries a ground truth (the fraction is then `0/0` —
/// undefined, not zero). Tasks without ground truth are skipped either way.
pub fn try_accuracy_of(truths: &[ChoiceIndex], tasks: &[Task]) -> Option<f64> {
    let mut correct = 0usize;
    let mut totaled = 0usize;
    for (task, &t) in tasks.iter().zip(truths) {
        if let Some(gt) = task.ground_truth {
            totaled += 1;
            if gt == t {
                correct += 1;
            }
        }
    }
    if totaled == 0 {
        None
    } else {
        Some(correct as f64 / totaled as f64)
    }
}

/// Accuracy of inferred truths against the tasks' ground truth.
///
/// NaN policy: when *no* task carries a ground truth the accuracy is
/// undefined and this returns `f64::NAN` — deliberately not `0.0`, which
/// would read as "everything wrong" and could trip quality gates on
/// evaluation-free campaigns. NaN is unequal to every threshold, so a
/// comparison against it fails loudly instead of silently passing. Callers
/// that need to branch on definedness use [`try_accuracy_of`].
pub fn accuracy_of(truths: &[ChoiceIndex], tasks: &[Task]) -> f64 {
    try_accuracy_of(truths, tasks).unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::PopulationConfig;
    use docs_types::{DomainVector, TaskBuilder};

    #[test]
    fn zipf_arrivals_concentrate_on_low_ids() {
        let mut sampler = ArrivalSampler::new(ArrivalProcess::Zipf { exponent: 1.2 }, 20);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut counts = vec![0usize; 20];
        for _ in 0..20_000 {
            counts[sampler.next(&mut rng).index()] += 1;
        }
        // Worker 0 dominates; the tail is rare but non-zero.
        assert!(counts[0] > counts[10] * 5, "{counts:?}");
        assert!(counts[0] > counts[19] * 10, "{counts:?}");
        assert!(counts.iter().all(|&c| c > 0), "every worker arrives");
    }

    #[test]
    fn uniform_arrivals_are_balanced() {
        let mut sampler = ArrivalSampler::new(ArrivalProcess::Uniform, 10);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut counts = vec![0usize; 10];
        for _ in 0..10_000 {
            counts[sampler.next(&mut rng).index()] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "{counts:?}");
        }
    }

    #[test]
    fn bursty_arrivals_concentrate_within_cohorts() {
        let mut sampler = ArrivalSampler::new(
            ArrivalProcess::Bursty {
                window: 5,
                hold: 40,
            },
            100,
        );
        let mut rng = SmallRng::seed_from_u64(3);
        // Within one hold period, at most `window` distinct workers appear
        // and they are cyclically consecutive.
        for burst in 0..50 {
            let mut seen: Vec<usize> = (0..40).map(|_| sampler.next(&mut rng).index()).collect();
            seen.sort_unstable();
            seen.dedup();
            assert!(seen.len() <= 5, "burst {burst}: {seen:?}");
            // All ids fit inside a window of 5 on the 100-cycle.
            let spread = (0..seen.len())
                .map(|i| {
                    let next = seen[(i + 1) % seen.len()];
                    (next + 100 - seen[i]) % 100
                })
                .max()
                .unwrap_or(0);
            assert!(
                100 - spread < 5 || seen.len() == 1,
                "burst {burst}: {seen:?}"
            );
        }
        // Across many re-bases the whole population is reachable.
        let mut counts = vec![0usize; 100];
        for _ in 0..40_000 {
            counts[sampler.next(&mut rng).index()] += 1;
        }
        assert!(counts.iter().filter(|&&c| c > 0).count() > 90, "{counts:?}");
    }

    #[test]
    fn bursty_sampler_is_deterministic_per_seed() {
        let process = ArrivalProcess::Bursty {
            window: 3,
            hold: 10,
        };
        let mut a = ArrivalSampler::new(process, 50);
        let mut b = ArrivalSampler::new(process, 50);
        let mut rng_a = SmallRng::seed_from_u64(7);
        let mut rng_b = SmallRng::seed_from_u64(7);
        for _ in 0..200 {
            assert_eq!(a.next(&mut rng_a), b.next(&mut rng_b));
        }
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn bursty_rejects_zero_window() {
        let _ = ArrivalSampler::new(ArrivalProcess::Bursty { window: 0, hold: 5 }, 10);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zipf_rejects_non_positive_exponent() {
        let tasks = make_tasks(1, 1);
        let population = WorkerPopulation::generate(&PopulationConfig {
            m: 1,
            size: 2,
            seed: 9,
            ..Default::default()
        });
        let _ = Platform::new(
            &tasks,
            vec![],
            &population,
            PlatformConfig {
                arrivals: ArrivalProcess::Zipf { exponent: 0.0 },
                ..Default::default()
            },
        );
    }

    fn make_tasks(n: usize, m: usize) -> Vec<Task> {
        (0..n)
            .map(|i| {
                TaskBuilder::new(i, format!("t{i}"))
                    .yes_no()
                    .with_ground_truth(i % 2)
                    .with_true_domain(i % m)
                    .with_domain_vector(DomainVector::one_hot(m, i % m))
                    .build()
                    .unwrap()
            })
            .collect()
    }

    /// A trivial strategy answering tasks round-robin; used to exercise the
    /// platform protocol.
    struct RoundRobin {
        n: usize,
        answered: std::collections::HashSet<(WorkerId, TaskId)>,
        counts: Vec<usize>,
        majority: Vec<[usize; 2]>,
        inited: Vec<WorkerId>,
    }

    impl RoundRobin {
        fn new(n: usize) -> Self {
            RoundRobin {
                n,
                answered: Default::default(),
                counts: vec![0; n],
                majority: vec![[0; 2]; n],
                inited: Vec::new(),
            }
        }
    }

    impl AssignmentStrategy for RoundRobin {
        fn name(&self) -> &'static str {
            "round-robin"
        }
        fn init_worker(&mut self, worker: WorkerId, _golden: &[(TaskId, ChoiceIndex)]) {
            self.inited.push(worker);
        }
        fn assign(&mut self, worker: WorkerId, k: usize) -> Vec<TaskId> {
            let mut order: Vec<usize> = (0..self.n).collect();
            order.sort_by_key(|&i| self.counts[i]);
            order
                .into_iter()
                .map(TaskId::from)
                .filter(|t| !self.answered.contains(&(worker, *t)))
                .take(k)
                .collect()
        }
        fn feedback(&mut self, a: Answer) {
            self.answered.insert((a.worker, a.task));
            self.counts[a.task.index()] += 1;
            self.majority[a.task.index()][a.choice.min(1)] += 1;
        }
        fn truths(&self) -> Vec<ChoiceIndex> {
            self.majority
                .iter()
                .map(|c| usize::from(c[1] > c[0]))
                .collect()
        }
    }

    #[test]
    fn parallel_run_respects_budget() {
        let tasks = make_tasks(20, 2);
        let pop = WorkerPopulation::generate(&PopulationConfig {
            m: 2,
            size: 30,
            ..Default::default()
        });
        let mut s1 = RoundRobin::new(20);
        let mut s2 = RoundRobin::new(20);
        let platform = Platform::new(
            &tasks,
            vec![],
            &pop,
            PlatformConfig {
                answer_budget: 100,
                ..Default::default()
            },
        );
        let outcomes = platform.run_parallel(&mut [&mut s1, &mut s2]);
        assert_eq!(outcomes.len(), 2);
        for o in &outcomes {
            assert_eq!(o.log.len(), 100, "{}", o.name);
        }
    }

    #[test]
    fn zipf_arrivals_skew_per_worker_answer_counts() {
        let tasks = make_tasks(30, 2);
        let pop = WorkerPopulation::generate(&PopulationConfig {
            m: 2,
            size: 25,
            ..Default::default()
        });
        let mut s = RoundRobin::new(30);
        let platform = Platform::new(
            &tasks,
            vec![],
            &pop,
            PlatformConfig {
                answer_budget: 300,
                arrivals: ArrivalProcess::Zipf { exponent: 1.3 },
                seed: 77,
                ..Default::default()
            },
        );
        let outcomes = platform.run_parallel(&mut [&mut s]);
        let log = &outcomes[0].log;
        // Figure 6(b)'s precondition: a few workers dominate activity.
        let mut counts: Vec<usize> = (0..25)
            .map(|w| log.worker_answers(WorkerId::from(w)).len())
            .collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        // The most active workers saturate (each can answer every task at
        // most once, so the per-worker ceiling is n = 30) while the tail
        // barely participates.
        assert_eq!(counts[0], 30, "most active worker saturates: {counts:?}");
        let top5: usize = counts[..5].iter().sum();
        let bottom5: usize = counts[20..].iter().sum();
        assert!(
            top5 >= log.len() * 2 / 5,
            "top-5 workers should hold >=40% of answers: {counts:?}"
        );
        assert!(
            bottom5 * 4 < top5,
            "tail should be far less active than the head: {counts:?}"
        );
    }

    #[test]
    fn workers_are_consistent_across_methods() {
        let tasks = make_tasks(10, 2);
        let pop = WorkerPopulation::generate(&PopulationConfig {
            m: 2,
            size: 15,
            ..Default::default()
        });
        let mut s1 = RoundRobin::new(10);
        let mut s2 = RoundRobin::new(10);
        let platform = Platform::new(
            &tasks,
            vec![],
            &pop,
            PlatformConfig {
                answer_budget: 60,
                ..Default::default()
            },
        );
        let outcomes = platform.run_parallel(&mut [&mut s1, &mut s2]);
        // Any (worker, task) answered by both methods must agree.
        for (t, answers1) in outcomes[0].log.iter_tasks() {
            for &(w, c1) in answers1 {
                for &(w2, c2) in outcomes[1].log.task_answers(t) {
                    if w == w2 {
                        assert_eq!(c1, c2, "worker {w} inconsistent on task {t}");
                    }
                }
            }
        }
    }

    #[test]
    fn golden_tasks_initialize_every_worker_once() {
        let tasks = make_tasks(10, 2);
        let pop = WorkerPopulation::generate(&PopulationConfig {
            m: 2,
            size: 5,
            ..Default::default()
        });
        let golden = vec![TaskId(0), TaskId(1)];
        let mut s = RoundRobin::new(10);
        let platform = Platform::new(
            &tasks,
            golden,
            &pop,
            PlatformConfig {
                answer_budget: 40,
                ..Default::default()
            },
        );
        platform.run_parallel(&mut [&mut s]);
        let mut inited = s.inited.clone();
        inited.sort();
        let before = inited.len();
        inited.dedup();
        assert_eq!(before, inited.len(), "workers must be initialized once");
    }

    #[test]
    fn collect_uniform_gives_exact_answer_counts() {
        let tasks = make_tasks(12, 2);
        let pop = WorkerPopulation::generate(&PopulationConfig {
            m: 2,
            size: 20,
            ..Default::default()
        });
        let platform = Platform::new(&tasks, vec![], &pop, PlatformConfig::default());
        let log = platform.collect_uniform(10);
        assert_eq!(log.len(), 120);
        for (_, v) in log.iter_tasks() {
            assert_eq!(v.len(), 10);
        }
    }

    #[test]
    fn collect_uniform_is_deterministic() {
        let tasks = make_tasks(5, 2);
        let pop = WorkerPopulation::generate(&PopulationConfig {
            m: 2,
            size: 10,
            ..Default::default()
        });
        let platform = Platform::new(&tasks, vec![], &pop, PlatformConfig::default());
        let a = platform.collect_uniform(4);
        let b = platform.collect_uniform(4);
        let av: Vec<_> = a.iter_answers().collect();
        let bv: Vec<_> = b.iter_answers().collect();
        assert_eq!(av, bv);
    }

    #[test]
    fn accuracy_of_counts_correctly() {
        let tasks = make_tasks(4, 2);
        // Ground truths: [0, 1, 0, 1].
        assert_eq!(accuracy_of(&[0, 1, 0, 1], &tasks), 1.0);
        assert_eq!(accuracy_of(&[1, 0, 1, 0], &tasks), 0.0);
        assert_eq!(accuracy_of(&[0, 1, 1, 0], &tasks), 0.5);
    }

    #[test]
    fn accuracy_is_undefined_without_ground_truth() {
        // Empty task set: 0/0 — None / NaN, never 0.0.
        assert_eq!(try_accuracy_of(&[], &[]), None);
        assert!(accuracy_of(&[], &[]).is_nan());
        // Tasks that simply lack ground truth count the same as absent.
        let blind: Vec<Task> = (0..3)
            .map(|i| {
                TaskBuilder::new(i, format!("b{i}"))
                    .yes_no()
                    .with_true_domain(0)
                    .with_domain_vector(DomainVector::one_hot(2, 0))
                    .build()
                    .unwrap()
            })
            .collect();
        assert_eq!(try_accuracy_of(&[0, 1, 0], &blind), None);
        assert!(accuracy_of(&[0, 1, 0], &blind).is_nan());
        // Mixed: only the graded tasks enter the fraction.
        let mut mixed = make_tasks(2, 2);
        mixed.extend(blind);
        assert_eq!(try_accuracy_of(&[0, 1, 0, 0, 0], &mixed), Some(1.0));
    }
}
