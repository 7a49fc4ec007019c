//! Test oracle: the dense textbook form of full truth inference
//! (Section 4.1, Eqs. 2–5).
//!
//! This is the loop [`TruthInference::run`] ran before its kernel went
//! support-sparse — every row of every `M^{(i)}` rebuilt every iteration,
//! Eq. 4 evaluated per (answer, domain, choice), workers looked up by id,
//! weights rebuilt over all `m` domains — kept as written so the tests
//! below can hold the kernel to it bit for bit on the rows the arena
//! stores. [`campaign`] generates the inputs; the OTA tests reuse it.

// The loops stay index-for-index what the dense form was.
#![allow(clippy::needless_range_loop)]

use super::iterative::{TiConfig, TruthInference};
use super::state::{clamp_quality, TaskArena};
use super::stats::WorkerRegistry;
use super::IncrementalTi;
use docs_types::{
    prob, Answer, AnswerLog, ChoiceIndex, DomainVector, Task, TaskBuilder, TaskId, WorkerId,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// `M̂^{(i)}`, `M^{(i)}`, `s_i` and `H(s_i)` as plain vectors.
pub(crate) struct DenseState {
    m: usize,
    num_choices: usize,
    pub m_hat: Vec<f64>,
    pub m_matrix: Vec<f64>,
    pub s: Vec<f64>,
    pub entropy: f64,
}

impl DenseState {
    fn new(m: usize, num_choices: usize) -> Self {
        let s = prob::uniform(num_choices);
        DenseState {
            m,
            num_choices,
            m_hat: vec![1.0; m * num_choices],
            m_matrix: vec![1.0 / num_choices as f64; m * num_choices],
            entropy: prob::entropy(&s),
            s,
        }
    }

    /// Eq. 4.
    fn likelihood(qk: f64, answered: ChoiceIndex, truth_j: usize, num_choices: usize) -> f64 {
        let q = clamp_quality(qk);
        if answered == truth_j {
            q
        } else {
            (1.0 - q) / (num_choices as f64 - 1.0)
        }
    }

    /// Step 1 from scratch for a given answer set and quality lookup.
    fn recompute<'q>(
        &mut self,
        r: &DomainVector,
        answers: &[(WorkerId, ChoiceIndex)],
        mut quality_of: impl FnMut(WorkerId) -> &'q [f64],
    ) {
        let l = self.num_choices;
        self.m_hat.iter_mut().for_each(|v| *v = 1.0);
        for &(w, v) in answers {
            let q = quality_of(w);
            for k in 0..self.m {
                let row = &mut self.m_hat[k * l..(k + 1) * l];
                for (j, slot) in row.iter_mut().enumerate() {
                    *slot *= Self::likelihood(q[k], v, j, l);
                }
            }
        }
        self.normalize_rows();
        self.recompute_s(r);
    }

    fn normalize_rows(&mut self) {
        let l = self.num_choices;
        for k in 0..self.m {
            let hat = &self.m_hat[k * l..(k + 1) * l];
            let sum: f64 = hat.iter().sum();
            let row = &mut self.m_matrix[k * l..(k + 1) * l];
            if sum > 0.0 && sum.is_finite() {
                for (slot, &h) in row.iter_mut().zip(hat) {
                    *slot = h / sum;
                }
            } else {
                row.iter_mut().for_each(|x| *x = 1.0 / l as f64);
            }
        }
        for k in 0..self.m {
            let hat = &mut self.m_hat[k * l..(k + 1) * l];
            let max = hat.iter().cloned().fold(0.0_f64, f64::max);
            if max > 0.0 && max < 1e-100 {
                hat.iter_mut().for_each(|x| *x /= max);
            }
        }
    }

    fn recompute_s(&mut self, r: &DomainVector) {
        let l = self.num_choices;
        self.s.iter_mut().for_each(|x| *x = 0.0);
        for k in 0..self.m {
            let rk = r[k];
            if rk == 0.0 {
                continue;
            }
            for (j, slot) in self.s.iter_mut().enumerate() {
                *slot += rk * self.m_matrix[k * l + j];
            }
        }
        prob::normalize_in_place(&mut self.s);
        self.entropy = prob::entropy(&self.s);
    }
}

/// What the dense loop leaves behind.
pub(crate) struct DenseResult {
    pub states: Vec<DenseState>,
    pub qualities: HashMap<WorkerId, Vec<f64>>,
    /// `û^w_k + Σ_{t ∈ T(w)} r^t_k` over every domain: the weight a full
    /// run stores.
    pub weights: HashMap<WorkerId, Vec<f64>>,
    pub deltas: Vec<f64>,
}

/// The iterative approach, dense.
pub(crate) fn run(
    config: TiConfig,
    tasks: &[Task],
    answers: &AnswerLog,
    registry: &WorkerRegistry,
) -> DenseResult {
    let m = registry.num_domains();
    let worker_ids: Vec<WorkerId> = answers.workers().collect();
    let mut qualities: HashMap<WorkerId, Vec<f64>> = worker_ids
        .iter()
        .map(|&w| (w, registry.quality(w)))
        .collect();
    let init_qualities = qualities.clone();
    let prior_weights: HashMap<WorkerId, Vec<f64>> = answers
        .workers()
        .map(|w| {
            let weight = registry
                .get(w)
                .map(|s| s.weight.clone())
                .unwrap_or_else(|| vec![0.0; m]);
            (w, weight)
        })
        .collect();

    let mut states: Vec<DenseState> = tasks
        .iter()
        .map(|t| DenseState::new(m, t.num_choices()))
        .collect();

    let mut deltas = Vec::new();
    for _ in 0..config.max_iterations {
        let mut delta_s = 0.0;
        for (task, state) in tasks.iter().zip(states.iter_mut()) {
            let v = answers.task_answers(task.id);
            let prev_s = state.s.to_vec();
            state.recompute(task.domain_vector(), v, |w| qualities[&w].as_slice());
            delta_s += prob::l1_distance(&prev_s, &state.s)
                / (tasks.len() as f64 * task.num_choices() as f64);
        }

        let mut delta_q = 0.0;
        let num_workers = qualities.len().max(1);
        for w in &worker_ids {
            let q = qualities.get_mut(w).expect("worker id from the log");
            let prior_w = &prior_weights[w];
            let init_q = &init_qualities[w];
            let mut num: Vec<f64> = (0..m).map(|k| init_q[k] * prior_w[k]).collect();
            let mut den = prior_w.clone();
            for &(tid, choice) in answers.worker_answers(*w) {
                let r = tasks[tid.index()].domain_vector();
                let s = &states[tid.index()].s;
                for k in 0..m {
                    num[k] += r[k] * s[choice];
                    den[k] += r[k];
                }
            }
            let mut change = 0.0;
            for k in 0..m {
                let new_q = if den[k] > 0.0 {
                    num[k] / den[k]
                } else {
                    init_q[k]
                };
                change += (new_q - q[k]).abs();
                q[k] = new_q;
            }
            delta_q += change / (num_workers as f64 * m as f64);
        }

        let delta = delta_s + delta_q;
        deltas.push(delta);
        if delta < config.epsilon {
            break;
        }
    }
    let weights = prior_weights
        .into_iter()
        .map(|(w, mut weight)| {
            for &(tid, _) in answers.worker_answers(w) {
                let r = tasks[tid.index()].domain_vector();
                for k in 0..m {
                    weight[k] += r[k];
                }
            }
            (w, weight)
        })
        .collect();
    DenseResult {
        states,
        qualities,
        weights,
        deltas,
    }
}

/// How [`campaign`] draws domain vectors.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Sparsity {
    /// Every `r_k > 0`.
    Dense,
    /// One `r_k = 1` (so most workers have no evidence in most domains).
    OneHot,
    /// Per task: dense, one-hot, or a random subset of the domains.
    Mixed,
}

impl Sparsity {
    pub(crate) const ALL: [Sparsity; 3] = [Sparsity::Dense, Sparsity::OneHot, Sparsity::Mixed];
}

/// A random campaign: tasks with `ℓ ∈ {2, 3, 5}` mixed in one campaign, a
/// shuffled answer stream in which a worker may skip any task, and a
/// registry in which about half the workers were golden-initialized.
pub(crate) fn campaign(seed: u64, sparsity: Sparsity) -> (Vec<Task>, AnswerLog, WorkerRegistry) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let m = rng.gen_range(1..=7usize);
    let n = rng.gen_range(1..=12usize);
    let num_workers = rng.gen_range(1..=9usize);

    let domain_vector = |rng: &mut SmallRng| {
        let kind = match sparsity {
            Sparsity::Dense => 0,
            Sparsity::OneHot => 1,
            Sparsity::Mixed => rng.gen_range(0..3),
        };
        match kind {
            0 => {
                let w: Vec<f64> = (0..m).map(|_| rng.gen_range(0.05..1.0)).collect();
                DomainVector::from_weights(&w).unwrap()
            }
            1 => DomainVector::one_hot(m, rng.gen_range(0..m)),
            _ => {
                let mut w: Vec<f64> = (0..m)
                    .map(|_| {
                        if rng.gen_range(0..3) == 0 {
                            rng.gen_range(0.05..1.0)
                        } else {
                            0.0
                        }
                    })
                    .collect();
                w[rng.gen_range(0..m)] += 0.5;
                DomainVector::from_weights(&w).unwrap()
            }
        }
    };

    let tasks: Vec<Task> = (0..n)
        .map(|i| {
            let l = [2, 3, 5][rng.gen_range(0..3usize)];
            TaskBuilder::new(i, format!("t{i}"))
                .with_choices((0..l).map(|c| format!("c{c}")))
                .with_domain_vector(domain_vector(&mut rng))
                .build()
                .unwrap()
        })
        .collect();

    let mut stream: Vec<Answer> = Vec::new();
    for task in &tasks {
        for w in 0..num_workers {
            if rng.gen_range(0..4) != 0 {
                stream.push(Answer {
                    task: task.id,
                    // Sparse ids, so the dense index is not the id itself.
                    worker: WorkerId::from(3 * w + 1),
                    choice: rng.gen_range(0..task.num_choices()),
                });
            }
        }
    }
    for i in (1..stream.len()).rev() {
        stream.swap(i, rng.gen_range(0..=i));
    }
    let mut log = AnswerLog::new(n);
    for answer in stream {
        log.record(answer).unwrap();
    }

    let mut registry = WorkerRegistry::new(m, rng.gen_range(0.5..0.9));
    for w in 0..num_workers {
        if rng.gen_range(0..2) == 0 {
            let golden: Vec<(DomainVector, ChoiceIndex)> = (0..rng.gen_range(1..=4usize))
                .map(|_| (domain_vector(&mut rng), rng.gen_range(0..2usize)))
                .collect();
            let given: Vec<(TaskId, ChoiceIndex)> = (0..golden.len())
                .map(|g| (TaskId::from(g), rng.gen_range(0..2usize)))
                .collect();
            registry.init_from_golden(
                WorkerId::from(3 * w + 1),
                &given,
                |t| golden[t.index()].clone(),
                1.0,
            );
        }
    }
    (tasks, log, registry)
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Every support row of `M̂` and `M`, every `s` and `H(s)` and truth is the
/// dense loop's, bit for bit.
fn assert_states_match(states: &TaskArena, dense: &[DenseState], context: &str) {
    assert_eq!(states.len(), dense.len());
    for (i, (f, d)) in states.iter().zip(dense).enumerate() {
        let l = d.num_choices;
        let rows = |dense_rows: &[f64]| -> Vec<f64> {
            let support = f.support().iter();
            support
                .flat_map(|&(k, _)| dense_rows[k * l..(k + 1) * l].to_vec())
                .collect()
        };
        let m_hat = states.m_hat_of(i);
        assert_eq!(
            bits(m_hat),
            bits(&rows(&d.m_hat)),
            "{context}: M̂ of task {i}"
        );
        let m_matrix: Vec<f64> = f.rows().flat_map(|(_, _, row)| row.to_vec()).collect();
        assert_eq!(
            bits(&m_matrix),
            bits(&rows(&d.m_matrix)),
            "{context}: M of task {i}"
        );
        assert_eq!(bits(f.s()), bits(&d.s), "{context}: s of task {i}");
        assert_eq!(
            f.entropy().to_bits(),
            d.entropy.to_bits(),
            "{context}: H(s) of task {i}"
        );
        assert_eq!(f.truth(), prob::argmax(&d.s));
    }
}

/// Every value full inference stores is the dense loop's, bit for bit:
/// through [`TruthInference::run`] (a fresh arena), and through
/// [`IncrementalTi::run_full`], which converges into an arena the answer
/// stream has already moved and writes qualities and weights into the live
/// registry.
fn assert_bit_identical(
    config: TiConfig,
    tasks: &[Task],
    log: &AnswerLog,
    registry: &WorkerRegistry,
    context: &str,
) {
    let fast = TruthInference::new(config).run(tasks, log, registry);
    let dense = run(config, tasks, log, registry);
    assert_eq!(bits(&fast.deltas), bits(&dense.deltas), "{context}: Δ");
    assert_states_match(&fast.states, &dense.states, context);
    assert_eq!(fast.truths, fast.states.truths());
    assert_eq!(fast.qualities.len(), dense.qualities.len());
    for (w, q) in &dense.qualities {
        assert_eq!(bits(&fast.qualities[w]), bits(q), "{context}: q of {w:?}");
    }

    let mut engine = IncrementalTi::new(tasks.to_vec(), registry.clone(), 0);
    for answer in log.iter_answers() {
        engine.submit(answer).expect("the campaign's own answers");
    }
    let mut snapshot = engine.snapshot();
    snapshot.max_iterations = config.max_iterations;
    snapshot.epsilon = config.epsilon;
    let mut engine = IncrementalTi::restore(snapshot).expect("own snapshot");
    let deltas = engine.run_full();
    // The replay is grouped by task, so `T(w)` is in another order than in
    // `log`: the dense loop runs on the engine's own log.
    let dense = run(config, tasks, engine.log(), registry);
    let context = format!("{context} (in place)");
    assert_eq!(bits(&deltas), bits(&dense.deltas), "{context}: Δ");
    assert_states_match(engine.states(), &dense.states, &context);
    for (w, q) in &dense.qualities {
        let stats = engine.registry().get(*w).expect("every answerer is live");
        assert_eq!(bits(&stats.quality), bits(q), "{context}: q of {w:?}");
        let weight = &dense.weights[w];
        assert_eq!(bits(&stats.weight), bits(weight), "{context}: u of {w:?}");
    }
}

mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Dense, one-hot and mixed-sparsity campaigns; 0 and 1 iterations
        /// (the prior the arena is reset to, one Step 1 from it), and up
        /// to 20.
        #[test]
        fn full_inference_is_bit_identical_to_the_dense_loop(seed in any::<u64>()) {
            for sparsity in Sparsity::ALL {
                let (tasks, log, registry) = campaign(seed, sparsity);
                for max_iterations in [0, 1, 20] {
                    let config = TiConfig { max_iterations, ..TiConfig::default() };
                    assert_bit_identical(
                        config,
                        &tasks,
                        &log,
                        &registry,
                        &format!("seed {seed} {sparsity:?} × {max_iterations}"),
                    );
                }
            }
        }
    }

    /// A `-0.0` quality with stored weight, in a domain none of the
    /// worker's tasks touch: the dense loop's `+ r_k·s = + 0.0` turns the
    /// Eq. 5 numerator into `+0.0`, and so must the kernel. A `-0.0` stored
    /// weight there leaves a full run as `+0.0`, as the all-`m` rebuild's
    /// `+ r_k` left it.
    #[test]
    fn a_negative_zero_quality_seed_follows_the_dense_loop() {
        let task = TaskBuilder::new(0usize, "t")
            .yes_no()
            .with_domain_vector(DomainVector::one_hot(2, 0))
            .build()
            .unwrap();
        let mut log = AnswerLog::new(1);
        log.record(Answer::new(WorkerId(4), TaskId(0), 1)).unwrap();
        log.record(Answer::new(WorkerId(5), TaskId(0), 0)).unwrap();
        let mut registry = WorkerRegistry::new(2, 0.7);
        let stats = crate::ti::WorkerStats {
            quality: vec![0.6, -0.0],
            weight: vec![1.0, 2.0],
        };
        registry.put(WorkerId(4), stats);
        let stats = crate::ti::WorkerStats {
            quality: vec![0.6, 0.8],
            weight: vec![1.0, -0.0],
        };
        registry.put(WorkerId(5), stats);
        assert_bit_identical(TiConfig::default(), &[task], &log, &registry, "-0.0");
    }

    #[test]
    fn an_empty_campaign_and_an_empty_log_agree_too() {
        let registry = WorkerRegistry::new(3, 0.7);
        assert_bit_identical(
            TiConfig::default(),
            &[],
            &AnswerLog::new(0),
            &registry,
            "no tasks",
        );
        let (tasks, _, registry) = campaign(11, Sparsity::Mixed);
        let log = AnswerLog::new(tasks.len());
        assert_bit_identical(TiConfig::default(), &tasks, &log, &registry, "no answers");
    }
}
