//! Simulated workers with ground-truth per-domain qualities.

use docs_types::{ChoiceIndex, QualityVector, Task, WorkerId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Per-answer situation the simulated worker observes — everything an
/// adversarial behavior may key on beyond the task itself.
///
/// The honest models ignore it entirely; the scenario harness
/// (`docs-scenarios`) threads it through every answer so sleeper spammers
/// can tell golden tasks apart and drifting workers know how far into the
/// campaign they are.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnswerContext {
    /// Whether the platform presented this task as part of the golden HIT.
    /// Real platforms leak this: the golden HIT is always the worker's
    /// *first* HIT, which is exactly what a sleeper spammer exploits.
    pub is_golden: bool,
    /// Campaign progress in `[0, 1]`: answers collected so far over the
    /// collection budget. Drives per-domain quality drift.
    pub progress: f64,
}

impl Default for AnswerContext {
    fn default() -> Self {
        AnswerContext {
            is_golden: false,
            progress: 0.0,
        }
    }
}

/// How a simulated worker produces an answer from her true quality.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AnswerModel {
    /// The model DOCS assumes (Eq. 4): correct with probability `q̃_k` where
    /// `d_k` is the task's true domain; wrong answers uniform over the
    /// remaining `ℓ − 1` choices.
    DomainUniform,
    /// Uniform spammer: every answer is uniform over all `ℓ` choices
    /// (truth included), regardless of the worker's nominal quality — the
    /// classic click-through worker. Expected accuracy `1/ℓ`.
    UniformSpammer,
    /// Sleeper spammer: behaves like a high-quality worker on the golden
    /// HIT (correct with probability `golden_quality`) and answers
    /// uniformly at random everywhere else. The golden gate scores her as
    /// an expert, which is precisely the calibration error the quality
    /// harness measures ([`AnswerContext::is_golden`] tells her which
    /// regime she is in).
    Sleeper {
        /// Accuracy the sleeper fakes on golden tasks.
        golden_quality: f64,
    },
    /// Colluding clique member: with probability `collusion` the worker
    /// answers the clique's canonical wrong choice for the task — a
    /// deterministic function of `(task id, clique)`, so every member of
    /// the same clique gives the *same* wrong answer while different
    /// cliques usually disagree. Otherwise she answers per
    /// [`AnswerModel::DomainUniform`]. Cliques let a scenario pit several
    /// internally consistent wrong consensuses against each other.
    Clique {
        /// Which clique the worker belongs to.
        clique: u32,
        /// Probability of giving the clique's colluding wrong answer.
        collusion: f64,
    },
}

/// The clique's canonical wrong choice for a task: a deterministic hash of
/// `(task id, clique)` over the `ℓ − 1` distractors, so clique members
/// agree with each other without any runtime coordination.
fn clique_wrong(task: &Task, clique: u32, truth: ChoiceIndex, l: usize) -> ChoiceIndex {
    let h = (task.id.index() as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((u64::from(clique) + 1).wrapping_mul(0xD1B5_4A32_D192_ED03));
    // xorshift-style mix so consecutive task ids don't map to consecutive
    // distractors.
    let h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    let mut c = (h % (l as u64 - 1)) as usize;
    if c >= truth {
        c += 1;
    }
    c
}

/// One simulated worker: her identity and ground-truth quality vector `q̃^w`.
#[derive(Debug, Clone)]
pub struct SimulatedWorker {
    /// Platform identity.
    pub id: WorkerId,
    /// Ground-truth per-domain accuracy (the `q̃^w` of Section 6.3's
    /// worker-quality case studies).
    pub true_quality: QualityVector,
}

impl SimulatedWorker {
    /// Answers a task under the given answer model.
    ///
    /// The task must carry its ground truth and true domain (datasets built
    /// by `docs-datasets` always do). The worker's accuracy is her true
    /// quality in the task's true domain. Context-free form: golden tasks
    /// are not distinguished and no drift applies (the pre-adversarial
    /// behavior, byte-identical rng streams for the original variants).
    pub fn answer(&self, task: &Task, model: AnswerModel, rng: &mut SmallRng) -> ChoiceIndex {
        self.answer_in_context(task, model, AnswerContext::default(), rng)
    }

    /// [`SimulatedWorker::answer`] with an explicit [`AnswerContext`] —
    /// required by the context-sensitive models ([`AnswerModel::Sleeper`]
    /// keys on `ctx.is_golden`).
    pub fn answer_in_context(
        &self,
        task: &Task,
        model: AnswerModel,
        ctx: AnswerContext,
        rng: &mut SmallRng,
    ) -> ChoiceIndex {
        let domain = task
            .true_domain
            .expect("simulated workers need tasks with a true domain");
        self.answer_with_quality(self.true_quality[domain], task, model, ctx, rng)
    }

    /// Core answer generator with the per-domain accuracy supplied by the
    /// caller — the hook `AdversarialPopulation` uses to apply quality
    /// drift without mutating the worker's ground-truth vector.
    pub fn answer_with_quality(
        &self,
        q: f64,
        task: &Task,
        model: AnswerModel,
        ctx: AnswerContext,
        rng: &mut SmallRng,
    ) -> ChoiceIndex {
        let truth = task
            .ground_truth
            .expect("simulated workers need tasks with ground truth");
        let l = task.num_choices();

        match model {
            AnswerModel::DomainUniform => {
                if rng.gen::<f64>() < q {
                    truth
                } else {
                    wrong_uniform(truth, l, rng)
                }
            }
            AnswerModel::UniformSpammer => rng.gen_range(0..l),
            AnswerModel::Sleeper { golden_quality } => {
                if ctx.is_golden {
                    if rng.gen::<f64>() < golden_quality {
                        truth
                    } else {
                        wrong_uniform(truth, l, rng)
                    }
                } else {
                    rng.gen_range(0..l)
                }
            }
            AnswerModel::Clique { clique, collusion } => {
                if rng.gen::<f64>() < collusion {
                    clique_wrong(task, clique, truth, l)
                } else if rng.gen::<f64>() < q {
                    truth
                } else {
                    wrong_uniform(truth, l, rng)
                }
            }
        }
    }
}

fn wrong_uniform(truth: ChoiceIndex, l: usize, rng: &mut SmallRng) -> ChoiceIndex {
    let mut c = rng.gen_range(0..l - 1);
    if c >= truth {
        c += 1;
    }
    c
}

/// Mixture configuration for the worker population.
#[derive(Debug, Clone)]
pub struct PopulationConfig {
    /// Number of domains `m`.
    pub m: usize,
    /// Number of workers.
    pub size: usize,
    /// Fraction of workers that are domain experts.
    pub expert_fraction: f64,
    /// How many domains each expert excels in (1 or 2 typically; capped
    /// at `m`).
    pub expert_domains: usize,
    /// Expert quality range inside their domains.
    pub expert_quality: (f64, f64),
    /// Quality range outside expert domains / for normal workers.
    pub base_quality: (f64, f64),
    /// Fraction of spammers (quality ≈ random guessing everywhere).
    pub spammer_fraction: f64,
    /// Spammer quality range.
    pub spammer_quality: (f64, f64),
    /// RNG seed.
    pub seed: u64,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        PopulationConfig {
            m: 4,
            size: 50,
            expert_fraction: 0.4,
            expert_domains: 1,
            expert_quality: (0.85, 0.97),
            base_quality: (0.5, 0.7),
            spammer_fraction: 0.1,
            spammer_quality: (0.4, 0.55),
            seed: 0xC20D,
        }
    }
}

/// The simulated worker population.
#[derive(Debug, Clone)]
pub struct WorkerPopulation {
    workers: Vec<SimulatedWorker>,
}

impl WorkerPopulation {
    /// Samples a population from the mixture configuration. Expert domains
    /// rotate round-robin so every domain gets experts.
    pub fn generate(config: &PopulationConfig) -> Self {
        assert!(config.size > 0 && config.m > 0);
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let n_expert = (config.size as f64 * config.expert_fraction).round() as usize;
        let n_spam = (config.size as f64 * config.spammer_fraction).round() as usize;
        let mut workers = Vec::with_capacity(config.size);
        for i in 0..config.size {
            let quality = if i < n_expert {
                let mut q: Vec<f64> = (0..config.m)
                    .map(|_| rng.gen_range(config.base_quality.0..config.base_quality.1))
                    .collect();
                let k0 = i % config.m;
                for d in 0..config.expert_domains.min(config.m) {
                    q[(k0 + d) % config.m] =
                        rng.gen_range(config.expert_quality.0..config.expert_quality.1);
                }
                q
            } else if i < n_expert + n_spam {
                (0..config.m)
                    .map(|_| rng.gen_range(config.spammer_quality.0..config.spammer_quality.1))
                    .collect()
            } else {
                (0..config.m)
                    .map(|_| rng.gen_range(config.base_quality.0..config.base_quality.1))
                    .collect()
            };
            workers.push(SimulatedWorker {
                id: WorkerId::from(i),
                true_quality: QualityVector::new(quality).expect("generated qualities in range"),
            });
        }
        WorkerPopulation { workers }
    }

    /// Builds a population from explicit quality vectors (tests, figures).
    pub fn from_qualities(qualities: Vec<Vec<f64>>) -> Self {
        let workers = qualities
            .into_iter()
            .enumerate()
            .map(|(i, q)| SimulatedWorker {
                id: WorkerId::from(i),
                true_quality: QualityVector::new(q).expect("valid quality"),
            })
            .collect();
        WorkerPopulation { workers }
    }

    /// Number of workers.
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// True when empty (not constructible via `generate`).
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// Worker by id.
    pub fn worker(&self, id: WorkerId) -> &SimulatedWorker {
        &self.workers[id.index()]
    }

    /// All workers.
    pub fn workers(&self) -> &[SimulatedWorker] {
        &self.workers
    }

    /// The true quality vector of a worker — evaluation-only ground truth.
    pub fn true_quality(&self, id: WorkerId) -> &QualityVector {
        &self.workers[id.index()].true_quality
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use docs_types::{DomainVector, TaskBuilder};

    fn task(l: usize, truth: usize, domain: usize) -> Task {
        TaskBuilder::new(0usize, "t")
            .with_choices((0..l).map(|c| format!("c{c}")))
            .with_ground_truth(truth)
            .with_true_domain(domain)
            .with_domain_vector(DomainVector::one_hot(2, domain))
            .build()
            .unwrap()
    }

    #[test]
    fn answer_accuracy_tracks_true_quality() {
        let w = SimulatedWorker {
            id: WorkerId(0),
            true_quality: QualityVector::new(vec![0.9, 0.3]).unwrap(),
        };
        let mut rng = SmallRng::seed_from_u64(1);
        let t_easy = task(2, 0, 0);
        let t_hard = task(2, 0, 1);
        let trials = 4000;
        let correct_easy = (0..trials)
            .filter(|_| w.answer(&t_easy, AnswerModel::DomainUniform, &mut rng) == 0)
            .count();
        let correct_hard = (0..trials)
            .filter(|_| w.answer(&t_hard, AnswerModel::DomainUniform, &mut rng) == 0)
            .count();
        let acc_easy = correct_easy as f64 / trials as f64;
        let acc_hard = correct_hard as f64 / trials as f64;
        assert!((acc_easy - 0.9).abs() < 0.03, "easy accuracy {acc_easy}");
        assert!((acc_hard - 0.3).abs() < 0.03, "hard accuracy {acc_hard}");
    }

    #[test]
    fn wrong_answers_are_uniform_over_distractors() {
        let w = SimulatedWorker {
            id: WorkerId(0),
            true_quality: QualityVector::new(vec![0.0, 0.0]).unwrap(),
        };
        let t = task(4, 1, 0);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut counts = [0usize; 4];
        for _ in 0..6000 {
            counts[w.answer(&t, AnswerModel::DomainUniform, &mut rng)] += 1;
        }
        assert_eq!(counts[1], 0, "never correct at q=0");
        for (c, &cnt) in counts.iter().enumerate() {
            if c != 1 {
                let frac = cnt as f64 / 6000.0;
                assert!((frac - 1.0 / 3.0).abs() < 0.03, "choice {c}: {frac}");
            }
        }
    }

    #[test]
    fn uniform_spammer_ignores_quality() {
        let w = SimulatedWorker {
            id: WorkerId(0),
            true_quality: QualityVector::new(vec![0.99, 0.99]).unwrap(),
        };
        let t = task(4, 2, 0);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut counts = [0usize; 4];
        for _ in 0..8000 {
            counts[w.answer(&t, AnswerModel::UniformSpammer, &mut rng)] += 1;
        }
        for &c in &counts {
            let frac = c as f64 / 8000.0;
            assert!((frac - 0.25).abs() < 0.03, "{counts:?}");
        }
    }

    #[test]
    fn sleeper_is_expert_on_golden_and_noise_elsewhere() {
        let w = SimulatedWorker {
            id: WorkerId(0),
            // Nominal quality is irrelevant to a sleeper.
            true_quality: QualityVector::new(vec![0.5, 0.5]).unwrap(),
        };
        let t = task(4, 1, 0);
        let model = AnswerModel::Sleeper {
            golden_quality: 0.95,
        };
        let mut rng = SmallRng::seed_from_u64(8);
        let trials = 6000;
        let golden_ctx = AnswerContext {
            is_golden: true,
            progress: 0.0,
        };
        let correct_golden = (0..trials)
            .filter(|_| w.answer_in_context(&t, model, golden_ctx, &mut rng) == 1)
            .count() as f64
            / trials as f64;
        let correct_normal = (0..trials)
            .filter(|_| w.answer(&t, model, &mut rng) == 1)
            .count() as f64
            / trials as f64;
        assert!((correct_golden - 0.95).abs() < 0.03, "{correct_golden}");
        assert!((correct_normal - 0.25).abs() < 0.03, "{correct_normal}");
    }

    #[test]
    fn clique_members_agree_and_cliques_differ() {
        let w = SimulatedWorker {
            id: WorkerId(0),
            true_quality: QualityVector::new(vec![0.8, 0.8]).unwrap(),
        };
        let mut rng = SmallRng::seed_from_u64(9);
        // With collusion 1.0 the clique answer is deterministic per
        // (task, clique): two draws agree, and it is never the truth.
        let mut cross_clique_disagreements = 0usize;
        for i in 0..40 {
            let t = task(4, i % 4, 0);
            let a0 = w.answer(
                &t,
                AnswerModel::Clique {
                    clique: 0,
                    collusion: 1.0,
                },
                &mut rng,
            );
            let a0b = w.answer(
                &t,
                AnswerModel::Clique {
                    clique: 0,
                    collusion: 1.0,
                },
                &mut rng,
            );
            let a1 = w.answer(
                &t,
                AnswerModel::Clique {
                    clique: 1,
                    collusion: 1.0,
                },
                &mut rng,
            );
            assert_eq!(a0, a0b, "clique 0 must agree with itself on task {i}");
            assert_ne!(a0, i % 4, "collusion never lands on the truth");
            assert_ne!(a1, i % 4, "collusion never lands on the truth");
            if a0 != a1 {
                cross_clique_disagreements += 1;
            }
        }
        // Two cliques hashing over 3 distractors must split on a healthy
        // fraction of tasks (deterministic given the hash; ~2/3 expected).
        assert!(
            cross_clique_disagreements >= 15,
            "cliques should usually disagree: {cross_clique_disagreements}/40"
        );
    }

    #[test]
    fn clique_with_zero_collusion_is_domain_uniform() {
        let w = SimulatedWorker {
            id: WorkerId(0),
            true_quality: QualityVector::new(vec![0.8]).unwrap(),
        };
        let t = task(2, 0, 0);
        let trials = 4000;
        let mut rng = SmallRng::seed_from_u64(10);
        let correct = (0..trials)
            .filter(|_| {
                w.answer(
                    &t,
                    AnswerModel::Clique {
                        clique: 3,
                        collusion: 0.0,
                    },
                    &mut rng,
                ) == 0
            })
            .count();
        let acc = correct as f64 / trials as f64;
        assert!((acc - 0.8).abs() < 0.03, "{acc}");
    }

    /// FNV-1a over the answer stream of `model`: 3 000 answers at
    /// `ℓ = l` from a fixed seed, cycling over twelve tasks that vary the
    /// task id (the clique hash), the truth and the domain.
    fn stream_hash(model: AnswerModel, l: usize, is_golden: bool) -> u64 {
        let w = SimulatedWorker {
            id: WorkerId(0),
            true_quality: QualityVector::new(vec![0.7, 0.4]).unwrap(),
        };
        let tasks: Vec<Task> = (0..12usize)
            .map(|i| {
                TaskBuilder::new(i, "t")
                    .with_choices((0..l).map(|c| format!("c{c}")))
                    .with_ground_truth(i % l)
                    .with_true_domain(i % 2)
                    .with_domain_vector(DomainVector::one_hot(2, i % 2))
                    .build()
                    .unwrap()
            })
            .collect();
        let ctx = AnswerContext {
            is_golden,
            progress: 0.0,
        };
        let mut rng = SmallRng::seed_from_u64(0xD0C5);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for i in 0..3000 {
            let choice = w.answer_in_context(&tasks[i % tasks.len()], model, ctx, &mut rng);
            for byte in (choice as u64).to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    /// Pins the answer stream of every `AnswerModel` variant the scenario
    /// harness drives. A change to a match arm, or to the order of its rng
    /// draws, moves a hash here.
    #[test]
    fn answer_streams_are_pinned() {
        let sleeper = AnswerModel::Sleeper {
            golden_quality: 0.9,
        };
        let cases: [(&str, AnswerModel, bool); 6] = [
            ("domain-uniform", AnswerModel::DomainUniform, false),
            ("uniform spammer", AnswerModel::UniformSpammer, false),
            ("sleeper, golden", sleeper, true),
            ("sleeper, not golden", sleeper, false),
            (
                "clique, collusion 0",
                AnswerModel::Clique {
                    clique: 1,
                    collusion: 0.0,
                },
                false,
            ),
            (
                "clique, collusion 0.3",
                AnswerModel::Clique {
                    clique: 1,
                    collusion: 0.3,
                },
                false,
            ),
        ];
        let expected: [[u64; 2]; 6] = [
            [0xe8f6_5b80_8ab9_7405, 0x8e76_6f8a_c525_6ee5],
            [0x73ee_9b32_6a9c_a325, 0x46b0_0323_875c_b2e7],
            [0xc6f3_93cc_0eea_b0e4, 0x2279_eef1_2c74_9a87],
            // A sleeper off the golden HIT draws exactly as a spammer does.
            [0x73ee_9b32_6a9c_a325, 0x46b0_0323_875c_b2e7],
            [0x3d2c_de2b_1b73_4f45, 0x1318_2e56_eeef_fde6],
            [0x4b9f_e235_4fee_a6e5, 0x0728_ec52_2ab6_bbc5],
        ];
        let mut actual = Vec::new();
        for (name, model, is_golden) in cases {
            actual.push((name, [2, 4].map(|l| stream_hash(model, l, is_golden))));
        }
        for ((name, got), want) in actual.iter().zip(expected) {
            assert_eq!(*got, want, "{name} (ℓ = 2, 4): {actual:#x?}");
        }
    }

    #[test]
    fn population_mixture_shapes() {
        let cfg = PopulationConfig {
            m: 4,
            size: 100,
            expert_fraction: 0.4,
            spammer_fraction: 0.1,
            ..Default::default()
        };
        let pop = WorkerPopulation::generate(&cfg);
        assert_eq!(pop.len(), 100);
        // First 40 are experts: exactly one domain above 0.85.
        for w in &pop.workers()[..40] {
            let high = (0..4).filter(|&k| w.true_quality[k] >= 0.85).count();
            assert_eq!(high, 1, "{:?}", w.true_quality);
        }
        // Experts rotate across domains.
        for k in 0..4 {
            assert!(pop.workers()[..40]
                .iter()
                .any(|w| w.true_quality[k] >= 0.85));
        }
        // Spammers are uniformly weak.
        for w in &pop.workers()[40..50] {
            assert!((0..4).all(|k| w.true_quality[k] < 0.56));
        }
    }

    #[test]
    fn population_is_deterministic() {
        let cfg = PopulationConfig::default();
        let a = WorkerPopulation::generate(&cfg);
        let b = WorkerPopulation::generate(&cfg);
        for (x, y) in a.workers().iter().zip(b.workers()) {
            assert_eq!(x.true_quality, y.true_quality);
        }
    }

    #[test]
    fn from_qualities_roundtrip() {
        let pop = WorkerPopulation::from_qualities(vec![vec![0.3, 0.9], vec![0.8, 0.2]]);
        assert_eq!(pop.len(), 2);
        assert_eq!(pop.true_quality(WorkerId(1))[0], 0.8);
    }
}
