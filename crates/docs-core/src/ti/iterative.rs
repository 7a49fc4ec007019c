//! The iterative truth-inference approach of Section 4.1.

use super::state::{clamp_quality, miss_likelihood, TaskArena};
use super::stats::WorkerRegistry;
use docs_types::{prob, AnswerLog, ChoiceIndex, Task, WorkerId};
use std::collections::HashMap;

/// Configuration of the iterative approach.
#[derive(Debug, Clone, Copy)]
pub struct TiConfig {
    /// Hard iteration cap; the paper observes convergence within ~10–20
    /// iterations and terminates within "a few (say 20)".
    pub max_iterations: usize,
    /// Convergence threshold on the parameter change Δ (Section 6.3).
    pub epsilon: f64,
}

impl Default for TiConfig {
    fn default() -> Self {
        TiConfig {
            max_iterations: 20,
            epsilon: 1e-5,
        }
    }
}

/// Output of truth inference: per-task states (`M^{(i)}`, `s_i`), final
/// worker qualities, the inferred truths, and the per-iteration parameter
/// change Δ (the Figure 4(a) convergence series).
#[derive(Debug, Clone)]
pub struct TiResult {
    /// Per-task inference state, indexable by `TaskId::index()`.
    pub states: TaskArena,
    /// Estimated quality vector per worker seen in the answer log.
    pub qualities: HashMap<WorkerId, Vec<f64>>,
    /// Inferred truth `v*_i = argmax_j s_{i,j}` per task.
    pub truths: Vec<ChoiceIndex>,
    /// Δ after each iteration; `deltas.len()` is the iteration count.
    pub deltas: Vec<f64>,
}

impl TiResult {
    /// Fraction of tasks whose inferred truth matches the ground truth —
    /// the paper's *Accuracy* metric. Tasks without recorded ground truth
    /// are skipped.
    pub fn accuracy(&self, tasks: &[Task]) -> f64 {
        let mut correct = 0usize;
        let mut total = 0usize;
        for (task, &truth) in tasks.iter().zip(&self.truths) {
            if let Some(gt) = task.ground_truth {
                total += 1;
                if gt == truth {
                    correct += 1;
                }
            }
        }
        if total == 0 {
            return 0.0;
        }
        correct as f64 / total as f64
    }

    /// Mean absolute deviation between estimated and true worker qualities,
    /// `Σ_w Σ_k |q̃^w_k − q^w_k| / (m·|W|)` — the Figure 4(d) metric.
    /// `true_quality` returns the length-`m` ground-truth vector `q̃^w`.
    pub fn quality_deviation(&self, true_quality: impl Fn(WorkerId) -> Vec<f64>) -> f64 {
        if self.qualities.is_empty() {
            return 0.0;
        }
        let mut total = 0.0;
        let mut count = 0usize;
        // Sorted for a process-stable float sum (same reason as `run`).
        let mut ids: Vec<WorkerId> = self.qualities.keys().copied().collect();
        ids.sort_unstable();
        for w in ids {
            let q = &self.qualities[&w];
            let tq = true_quality(w);
            debug_assert_eq!(tq.len(), q.len());
            total += prob::l1_distance(q, &tq);
            count += q.len();
        }
        total / count as f64
    }
}

/// The iterative truth-inference algorithm (Section 4.1).
#[derive(Debug, Clone, Default)]
pub struct TruthInference {
    config: TiConfig,
}

impl TruthInference {
    /// Creates the algorithm with a custom configuration.
    pub fn new(config: TiConfig) -> Self {
        TruthInference { config }
    }

    /// The configuration the algorithm runs with (snapshots persist it so a
    /// restored engine converges identically).
    pub fn config(&self) -> TiConfig {
        self.config
    }

    /// Runs inference over the collected answers.
    ///
    /// * `tasks` — the published tasks; each must carry its domain vector
    ///   (run DVE first).
    /// * `answers` — the full answer log.
    /// * `registry` — initial worker qualities (golden-task initialization
    ///   per Section 5.2; unseen workers get the registry prior).
    ///
    /// Converges a fresh [`TaskArena`] with the body
    /// [`IncrementalTi::run_full`](super::IncrementalTi::run_full) runs on
    /// the engine's own arena.
    ///
    /// # Panics
    /// Panics if a task lacks a domain vector, a domain vector is not of the
    /// registry's length `m`, or the log covers a different number of tasks.
    pub fn run(&self, tasks: &[Task], answers: &AnswerLog, registry: &WorkerRegistry) -> TiResult {
        let m = registry.num_domains();
        let mut states = TaskArena::for_tasks(m, tasks);
        let run = self.converge(tasks, answers, registry, &mut states);
        let qualities = run
            .workers
            .iter()
            .enumerate()
            .map(|(w, &id)| (id, run.qualities[w * m..(w + 1) * m].to_vec()))
            .collect();
        TiResult {
            truths: states.truths(),
            states,
            qualities,
            deltas: run.deltas,
        }
    }

    /// The iterative approach, converged into `states`: every task restarts
    /// from the uniform prior (so Δ is measured against it, whatever the
    /// arena held), then Steps 1 and 2 alternate until Δ < ε.
    ///
    /// The loop is support-sparse and allocation-free (see "Inference
    /// kernels" in ARCHITECTURE.md): `s_i = r × M^{(i)}` reads only the rows
    /// `k` with `r_k ≠ 0`, which are the only rows the arena stores, so
    /// Steps 1 and 2 touch only those. Every stored value is the same bits
    /// the dense textbook loop produces on those rows (`ti::oracle` holds
    /// that loop and the tests comparing the two). A run's allocations are
    /// its index and scratch, a count the number of tasks does not move.
    pub(super) fn converge(
        &self,
        tasks: &[Task],
        answers: &AnswerLog,
        registry: &WorkerRegistry,
        arena: &mut TaskArena,
    ) -> Converged {
        // Converged as a local and put back: the loops store through other
        // pointers, after which the buffers of an arena behind a reference
        // would be reloaded on every task (measured ~10 % of Steps 1–2).
        let mut owned = std::mem::take(arena);
        let states = &mut owned;
        assert_eq!(
            tasks.len(),
            answers.num_tasks(),
            "answer log and task set disagree on n"
        );
        debug_assert_eq!(states.len(), tasks.len());
        let m = registry.num_domains();
        let n = tasks.len();

        // Dense worker index in sorted id order (see `AnswerLog::workers`):
        // Step 2 accumulates `delta_q` over workers, and the accumulation
        // order must not depend on hash-map layout or convergence becomes
        // process-random.
        let worker_ids: Vec<WorkerId> = answers.workers().collect();
        let num_workers = worker_ids.len();
        let wm = num_workers * m;
        let dense = |w: WorkerId| {
            worker_ids
                .binary_search(&w)
                .expect("every answering worker is in the log's worker set")
        };

        // `V(i)` and `T(w)`, each in one allocation and in the log's
        // arrival order.
        let votes = Csr::from_rows(
            answers.len(),
            tasks.iter().map(|t| {
                let v = answers.task_answers(t.id);
                v.iter().map(|&(w, choice)| (dense(w), choice))
            }),
        );
        let answered = Csr::from_rows(
            answers.len(),
            worker_ids.iter().map(|&w| {
                let t = answers.worker_answers(w);
                t.iter().map(|&(tid, choice)| (tid.index(), choice))
            }),
        );

        // Initial qualities from the registry (golden-task initialized), and
        // the registry's evidence weights. Golden tasks are tasks the worker
        // *answered*, so Step 2 keeps them in `T(w)` as pseudo-observations
        // with their recorded weight `u^w_k` — the Theorem 1 merge between
        // stored statistics and the current batch. Unseen workers carry zero
        // weight and reduce to the plain Eq. 5.
        let mut qualities: Vec<f64> = Vec::with_capacity(wm);
        let mut den: Vec<f64> = Vec::with_capacity(wm);
        for &w in &worker_ids {
            match registry.get(w) {
                Some(stats) => {
                    qualities.extend_from_slice(&stats.quality[..m]);
                    // `+ 0.0`: a `-0.0` weight leaves as `+0.0`, as the
                    // dense loop's first `+ r_k` left it in every domain.
                    den.extend(stats.weight[..m].iter().map(|&u| u + 0.0));
                }
                None => {
                    qualities.extend(std::iter::repeat_n(registry.prior_quality(), m));
                    den.extend(std::iter::repeat_n(0.0, m));
                }
            }
        }
        let init_qualities = qualities.clone();
        // Eq. 5's sums seeded with the registry evidence (golden answers /
        // previous batches): numerator q̂_k·û_k, denominator û_k. The
        // denominator `û_k + Σ_{t ∈ T(w)} r^t_k` does not depend on `s`, so
        // it is summed once; it is also the worker's new weight. The
        // `+ 0.0` is what the dense loop's first `r_k · s = 0` term did to
        // a `-0.0` seed.
        let num_seed: Vec<f64> = init_qualities
            .iter()
            .zip(&den)
            .map(|(&q, &u)| q * u + 0.0)
            .collect();
        for w in 0..num_workers {
            for &(i, _) in answered.row(w) {
                for &(k, rk) in states.support_of(i) {
                    den[w * m + k] += rk;
                }
            }
        }

        let mut likelihoods = LikelihoodTables::new(tasks, num_workers, m);

        for i in 0..n {
            states.reset(i);
        }
        let max_choices = tasks.iter().map(Task::num_choices).max().unwrap_or(0);
        let mut prev_s: Vec<f64> = Vec::with_capacity(max_choices);
        let mut num = vec![0.0; m];

        // (The paper's runs converge within ~20 iterations.)
        let mut deltas = Vec::with_capacity(self.config.max_iterations.min(32));
        for _ in 0..self.config.max_iterations {
            likelihoods.refresh(&qualities);

            // ---- Step 1: infer the truth (q^w → s_i), Eqs. 2-4. ----
            let mut delta_s = 0.0;
            for i in 0..n {
                prev_s.clear();
                prev_s.extend_from_slice(states.s_of(i));
                states.recompute(i, |k| likelihoods.of_row(i, votes.row(i), k));
                let s = states.s_of(i);
                delta_s += prob::l1_distance(&prev_s, s) / (n as f64 * s.len() as f64);
            }

            // ---- Step 2: estimate worker quality (s_i → q^w), Eq. 5. ----
            let mut delta_q = 0.0;
            for w in 0..num_workers {
                let base = w * m;
                let q = &mut qualities[base..base + m];
                num.copy_from_slice(&num_seed[base..base + m]);
                for &(i, choice) in answered.row(w) {
                    let s_choice = states.s_of(i)[choice];
                    for &(k, rk) in states.support_of(i) {
                        num[k] += rk * s_choice;
                    }
                }
                let mut change = 0.0;
                for k in 0..m {
                    let new_q = if den[base + k] > 0.0 {
                        num[k] / den[base + k]
                    } else {
                        // No evidence at all for this domain: keep the
                        // initial (prior) value.
                        init_qualities[base + k]
                    };
                    change += (new_q - q[k]).abs();
                    q[k] = new_q;
                }
                delta_q += change / (num_workers as f64 * m as f64);
            }

            let delta = delta_s + delta_q;
            deltas.push(delta);
            if delta < self.config.epsilon {
                break;
            }
        }

        *arena = owned;
        Converged {
            workers: worker_ids,
            qualities,
            weights: den,
            deltas,
        }
    }
}

/// What [`TruthInference::converge`] leaves beside the states, per worker
/// of the log in ascending id order: flat `W × m` buffers.
pub(super) struct Converged {
    /// The log's workers, ascending.
    pub(super) workers: Vec<WorkerId>,
    /// Converged qualities.
    pub(super) qualities: Vec<f64>,
    /// Eq. 5's denominators `û_k + Σ_{t ∈ T(w)} r^t_k`: the registry weight
    /// (Theorem 1) after the run.
    pub(super) weights: Vec<f64>,
    /// Δ after each iteration.
    pub(super) deltas: Vec<f64>,
}

/// Compressed sparse rows: `row(i)` is the `i`-th of a sequence of
/// variable-length lists held in one allocation.
struct Csr<T> {
    ptr: Vec<usize>,
    items: Vec<T>,
}

impl<T> Csr<T> {
    /// `len` is the total item count, so each buffer is allocated once.
    fn from_rows<R: Iterator<Item = T>>(
        len: usize,
        rows: impl ExactSizeIterator<Item = R>,
    ) -> Self {
        let mut ptr = Vec::with_capacity(rows.len() + 1);
        let mut items = Vec::with_capacity(len);
        ptr.push(0);
        for row in rows {
            items.extend(row);
            ptr.push(items.len());
        }
        Csr { ptr, items }
    }

    #[inline]
    fn row(&self, i: usize) -> &[T] {
        &self.items[self.ptr[i]..self.ptr[i + 1]]
    }
}

/// Eq. 4 per (worker, domain), refreshed once per iteration instead of
/// evaluated per (answer, domain, choice): `hit` for an answer that matches
/// the truth, and one `miss` table per distinct `ℓ` in the campaign.
struct LikelihoodTables {
    m: usize,
    /// `W × m`, worker-major like the flat quality buffer.
    hit: Vec<f64>,
    /// One `W × m` table per entry of `ells`, in that order.
    miss: Vec<f64>,
    /// The distinct `ℓ` of the campaign, ascending.
    ells: Vec<usize>,
    /// Per task: which `miss` table its `ℓ` selects.
    ell_slot: Vec<usize>,
}

impl LikelihoodTables {
    fn new(tasks: &[Task], num_workers: usize, m: usize) -> Self {
        let mut ells: Vec<usize> = tasks.iter().map(Task::num_choices).collect();
        ells.sort_unstable();
        ells.dedup();
        let ell_slot = tasks
            .iter()
            .map(|t| {
                ells.binary_search(&t.num_choices())
                    .expect("collected above")
            })
            .collect();
        LikelihoodTables {
            m,
            hit: vec![0.0; num_workers * m],
            miss: vec![0.0; ells.len() * num_workers * m],
            ells,
            ell_slot,
        }
    }

    fn refresh(&mut self, qualities: &[f64]) {
        for (hit, &q) in self.hit.iter_mut().zip(qualities) {
            *hit = clamp_quality(q);
        }
        let wm = self.hit.len();
        for (slot, &l) in self.ells.iter().enumerate() {
            for (miss, &hit) in self.miss[slot * wm..][..wm].iter_mut().zip(&self.hit) {
                *miss = miss_likelihood(hit, l);
            }
        }
    }

    /// The `(hit, miss, choice)` factors of row `k` of task `i`'s `M̂`, one
    /// per answer of `votes = V(i)`, in arrival order.
    fn of_row<'a>(
        &'a self,
        i: usize,
        votes: &'a [(usize, ChoiceIndex)],
        k: usize,
    ) -> impl Iterator<Item = (f64, f64, ChoiceIndex)> + 'a {
        let miss = &self.miss[self.ell_slot[i] * self.hit.len()..][..self.hit.len()];
        votes.iter().map(move |&(w, choice)| {
            let at = w * self.m + k;
            (self.hit[at], miss[at], choice)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use docs_types::{Answer, DomainVector, TaskBuilder, TaskId};

    /// Tiny deterministic LCG so answer generation needs no rand dependency.
    struct Lcg(u64);
    impl Lcg {
        fn next_f64(&mut self) -> f64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// Builds a 2-domain world with 40 tasks (20 per domain) and 6 workers:
    /// two domain-0 experts, two domain-1 experts, two mediocre workers.
    /// Answers are sampled from the true per-domain qualities, exactly the
    /// answer model DOCS assumes (Eq. 4).
    fn build_world() -> (Vec<Task>, AnswerLog, Vec<Vec<f64>>) {
        let n = 40;
        let mut tasks = Vec::new();
        for i in 0..n {
            let domain = usize::from(i >= 20);
            tasks.push(
                TaskBuilder::new(i, format!("task {i}"))
                    .yes_no()
                    .with_ground_truth(i % 2)
                    .with_true_domain(domain)
                    .with_domain_vector(DomainVector::one_hot(2, domain))
                    .build()
                    .unwrap(),
            );
        }
        let true_q: Vec<Vec<f64>> = vec![
            vec![0.95, 0.55],
            vec![0.95, 0.55],
            vec![0.55, 0.95],
            vec![0.55, 0.95],
            vec![0.6, 0.6],
            vec![0.6, 0.6],
        ];
        let mut rng = Lcg(0xD0C5);
        let mut log = AnswerLog::new(n);
        for i in 0..n {
            let truth = i % 2;
            let domain = usize::from(i >= 20);
            for (w, q) in true_q.iter().enumerate() {
                let correct = rng.next_f64() < q[domain];
                log.record(Answer {
                    task: TaskId::from(i),
                    worker: WorkerId::from(w),
                    choice: if correct { truth } else { 1 - truth },
                })
                .unwrap();
            }
        }
        (tasks, log, true_q)
    }

    #[test]
    fn infers_truths_and_expertise() {
        let (tasks, log, _) = build_world();
        let registry = WorkerRegistry::new(2, 0.6);
        let result = TruthInference::default().run(&tasks, &log, &registry);

        assert!(
            result.accuracy(&tasks) >= 0.9,
            "accuracy {}, truths: {:?}",
            result.accuracy(&tasks),
            result.truths
        );
        // Experts must look like experts in their own domain.
        let q0 = &result.qualities[&WorkerId(0)];
        let q2 = &result.qualities[&WorkerId(2)];
        assert!(q0[0] > 0.8, "q0 = {q0:?}");
        assert!(q2[1] > 0.8, "q2 = {q2:?}");
        assert!(q0[0] > q0[1], "expert confined to own domain: {q0:?}");
        assert!(q2[1] > q2[0]);
    }

    #[test]
    fn estimated_qualities_approach_truth() {
        let (tasks, log, true_q) = build_world();
        let registry = WorkerRegistry::new(2, 0.6);
        let result = TruthInference::default().run(&tasks, &log, &registry);
        let dev = result.quality_deviation(|w| true_q[w.index()].clone());
        assert!(dev < 0.15, "mean quality deviation {dev}");
    }

    #[test]
    fn converges_quickly() {
        let (tasks, log, _) = build_world();
        let registry = WorkerRegistry::new(2, 0.6);
        let result = TruthInference::default().run(&tasks, &log, &registry);
        assert!(
            result.deltas.len() <= 20,
            "expected convergence within 20 iterations, got {}",
            result.deltas.len()
        );
        // Δ shrinks monotonically-ish: last delta far below first.
        let first = result.deltas[0];
        let last = *result.deltas.last().unwrap();
        assert!(last < first / 10.0, "deltas = {:?}", result.deltas);
    }

    #[test]
    fn step2_running_example() {
        // Section 4.1's Step 2 example: worker answers t1, t2 with the first
        // choice; s_{1,1}=0.95, s_{2,1}=0.3, r1_2=0.9, r2_2=0.05 ⇒ q_2=0.92.
        let tasks = [
            TaskBuilder::new(0usize, "t1")
                .yes_no()
                .with_domain_vector(DomainVector::new(vec![0.1, 0.9]).unwrap())
                .build()
                .unwrap(),
            TaskBuilder::new(1usize, "t2")
                .yes_no()
                .with_domain_vector(DomainVector::new(vec![0.95, 0.05]).unwrap())
                .build()
                .unwrap(),
        ];
        let s = [vec![0.95, 0.05], vec![0.3, 0.7]];
        // Direct evaluation of Eq. 5 for k = 2 (index 1).
        let r1 = tasks[0].domain_vector();
        let r2 = tasks[1].domain_vector();
        let q2 = (r1[1] * s[0][0] + r2[1] * s[1][0]) / (r1[1] + r2[1]);
        assert!((q2 - 0.9157894736842105).abs() < 1e-12);
        // Paper rounds to 0.92.
        assert!((q2 - 0.92).abs() < 0.005);
    }

    #[test]
    fn empty_log_yields_uniform_states() {
        let tasks = vec![TaskBuilder::new(0usize, "t")
            .yes_no()
            .with_domain_vector(DomainVector::uniform(2))
            .build()
            .unwrap()];
        let log = AnswerLog::new(1);
        let registry = WorkerRegistry::new(2, 0.7);
        let result = TruthInference::default().run(&tasks, &log, &registry);
        assert_eq!(result.states.view(0).s(), &[0.5, 0.5]);
        assert!(result.qualities.is_empty());
    }

    /// 750 answers on one task: the plain product of their likelihoods
    /// underflows in *both* slots of the row (0.9^400 · 0.1^350 < 1e-368),
    /// which used to read as "no evidence" and reset the row to uniform.
    /// Full inference must keep the evidence, as the incremental step does.
    #[test]
    fn step1_keeps_the_evidence_of_hundreds_of_answers() {
        use crate::ti::IncrementalTi;
        let task = TaskBuilder::new(0usize, "t")
            .yes_no()
            .with_domain_vector(DomainVector::one_hot(1, 0))
            .build()
            .unwrap();
        let registry = WorkerRegistry::new(1, 0.9);
        let mut incremental = IncrementalTi::new(vec![task.clone()], registry.clone(), 0);
        let mut log = AnswerLog::new(1);
        for w in 0..750usize {
            let answer = Answer {
                task: TaskId(0),
                worker: WorkerId::from(w),
                // 400 "yes" (choice 0), 350 "no", interleaved.
                choice: usize::from(w % 15 >= 8),
            };
            log.record(answer).unwrap();
            incremental.submit(answer).unwrap();
        }
        let one_step = TruthInference::new(TiConfig {
            max_iterations: 1,
            ..TiConfig::default()
        })
        .run(std::slice::from_ref(&task), &log, &registry);
        assert!(
            one_step.states.view(0).s()[0] > 0.99,
            "{:?}",
            one_step.states.view(0)
        );
        let converged = TruthInference::default().run(&[task], &log, &registry);
        assert!(converged.states.view(0).s()[0] > 0.99);
        assert_eq!(converged.truths, vec![0]);
        assert_eq!(incremental.truths(), converged.truths);
        assert!(incremental.states().view(0).s()[0] > 0.99);
    }

    #[test]
    fn golden_initialization_improves_inference() {
        // A world where the majority is wrong on every task; only a good
        // prior on the minority worker lets TI recover the truth.
        let n = 6;
        let mut tasks = Vec::new();
        for i in 0..n {
            tasks.push(
                TaskBuilder::new(i, format!("t{i}"))
                    .yes_no()
                    .with_ground_truth(0)
                    .with_domain_vector(DomainVector::one_hot(1, 0))
                    .build()
                    .unwrap(),
            );
        }
        let mut log = AnswerLog::new(n);
        for i in 0..n {
            log.record(Answer {
                task: TaskId::from(i),
                worker: WorkerId(0),
                choice: 0,
            })
            .unwrap();
            for w in 1..3 {
                log.record(Answer {
                    task: TaskId::from(i),
                    worker: WorkerId(w),
                    choice: 1,
                })
                .unwrap();
            }
        }
        // Registry knows worker 0 is excellent and workers 1, 2 are bad.
        let mut registry = WorkerRegistry::new(1, 0.5);
        registry.put(
            WorkerId(0),
            super::super::stats::WorkerStats {
                quality: vec![0.95],
                weight: vec![20.0],
            },
        );
        for w in 1..3 {
            registry.put(
                WorkerId(w),
                super::super::stats::WorkerStats {
                    quality: vec![0.2],
                    weight: vec![20.0],
                },
            );
        }
        let result = TruthInference::default().run(&tasks, &log, &registry);
        assert_eq!(result.accuracy(&tasks), 1.0);
    }

    #[test]
    fn quality_deviation_metric() {
        let (tasks, log, _) = build_world();
        let registry = WorkerRegistry::new(2, 0.6);
        let result = TruthInference::default().run(&tasks, &log, &registry);
        let dev_self = result.quality_deviation(|w| result.qualities[&w].clone());
        assert_eq!(dev_self, 0.0);
        let dev_other = result.quality_deviation(|_| vec![0.0, 0.0]);
        assert!(dev_other > 0.0);
    }
}
