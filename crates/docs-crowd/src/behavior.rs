//! Heterogeneous worker populations with adversarial sub-classes.
//!
//! [`WorkerPopulation`] models *quality* heterogeneity (experts, normals,
//! weak workers) under one shared [`AnswerModel`]. The scenario harness
//! needs *behavioral* heterogeneity on top: the same arrival stream mixing
//! honest workers with uniform spammers, sleeper spammers that game the
//! golden gate, colluding cliques, and workers whose per-domain quality
//! drifts as the campaign ages. [`AdversarialPopulation`] assigns each
//! worker of a base population to a [`WorkerClass`] via a seeded shuffle
//! (so classes are decorrelated from the expert-first ordering the base
//! generator uses) and routes every answer through the class's model.

use crate::worker::{AnswerContext, AnswerModel, PopulationConfig, WorkerPopulation};
use docs_types::{ChoiceIndex, Task, WorkerId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Behavioral class of one worker in an [`AdversarialPopulation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerClass {
    /// Answers per the population's honest model at her true quality.
    Honest,
    /// Uniform random over all choices, golden tasks included.
    Spammer,
    /// Fakes expertise on the golden gate, uniform random elsewhere.
    Sleeper,
    /// Member of colluding clique `clique`: agrees with clique-mates on a
    /// canonical wrong answer with the configured probability.
    Colluder {
        /// Clique membership (0-based).
        clique: u32,
    },
    /// Honest, but her effective quality moves with campaign progress
    /// (`q + slope · progress`, clamped) — the worker who fatigues, or the
    /// account that is sold mid-campaign.
    Drifter,
}

/// Mixture configuration for an [`AdversarialPopulation`].
///
/// The behavioral fractions partition the population independently of its
/// *quality* mixture (`PopulationConfig::spammer_fraction` describes
/// low-quality-but-honest workers; `spammer_fraction` here describes
/// workers who ignore tasks entirely). Fractions must sum to ≤ 1; the
/// remainder is honest.
#[derive(Debug, Clone)]
pub struct AdversarialConfig {
    /// Seed of the shuffle that places the behavioral classes.
    pub seed: u64,
    /// Model honest (and drifting) workers answer under.
    pub honest_model: AnswerModel,
    /// Fraction of uniform spammers.
    pub spammer_fraction: f64,
    /// Fraction of sleeper spammers.
    pub sleeper_fraction: f64,
    /// Accuracy sleepers fake on golden tasks.
    pub sleeper_golden_quality: f64,
    /// Fraction of colluders (split round-robin across cliques).
    pub colluder_fraction: f64,
    /// Number of independent colluding cliques (≥ 1 when colluders exist).
    pub colluder_cliques: u32,
    /// Probability a colluder gives the clique's canonical wrong answer.
    pub collusion: f64,
    /// Fraction of drifting workers.
    pub drifter_fraction: f64,
    /// Quality slope for drifters: effective quality at progress `p` is
    /// `clamp(q + drift_slope · p, 0.02, 0.98)`. Negative = degrading.
    pub drift_slope: f64,
}

impl Default for AdversarialConfig {
    fn default() -> Self {
        AdversarialConfig {
            seed: PopulationConfig::default().seed,
            honest_model: AnswerModel::DomainUniform,
            spammer_fraction: 0.0,
            sleeper_fraction: 0.0,
            sleeper_golden_quality: 0.95,
            colluder_fraction: 0.0,
            colluder_cliques: 1,
            collusion: 0.85,
            drifter_fraction: 0.0,
            drift_slope: -0.4,
        }
    }
}

/// A worker population where each worker carries a behavioral class.
#[derive(Debug, Clone)]
pub struct AdversarialPopulation {
    base: WorkerPopulation,
    classes: Vec<WorkerClass>,
    honest_model: AnswerModel,
    sleeper_golden_quality: f64,
    collusion: f64,
    drift_slope: f64,
}

impl AdversarialPopulation {
    /// Assigns behavioral classes over a caller-supplied quality
    /// population (e.g. a dataset's focus-domain population) by a shuffle
    /// seeded from `config.seed`. Panics when the behavioral fractions
    /// exceed 1 or a positive colluder fraction comes with zero cliques.
    pub fn with_base(base: WorkerPopulation, config: &AdversarialConfig) -> Self {
        let f_total = config.spammer_fraction
            + config.sleeper_fraction
            + config.colluder_fraction
            + config.drifter_fraction;
        assert!(
            (0.0..=1.0 + 1e-9).contains(&f_total),
            "behavioral fractions must sum to <= 1, got {f_total}"
        );
        assert!(
            config.colluder_fraction == 0.0 || config.colluder_cliques >= 1,
            "colluders need at least one clique"
        );
        let size = base.len();
        let count = |f: f64| ((size as f64) * f).round() as usize;
        let n_spam = count(config.spammer_fraction);
        let n_sleep = count(config.sleeper_fraction);
        let n_collude = count(config.colluder_fraction);
        let n_drift = count(config.drifter_fraction);
        assert!(
            n_spam + n_sleep + n_collude + n_drift <= size,
            "rounded class counts exceed the population"
        );

        let mut classes = Vec::with_capacity(size);
        classes.resize(n_spam, WorkerClass::Spammer);
        classes.resize(n_spam + n_sleep, WorkerClass::Sleeper);
        for i in 0..n_collude {
            classes.push(WorkerClass::Colluder {
                clique: (i as u32) % config.colluder_cliques.max(1),
            });
        }
        classes.resize(classes.len() + n_drift, WorkerClass::Drifter);
        classes.resize(size, WorkerClass::Honest);

        // Fisher-Yates on a seed derived from (but distinct from) the
        // config's seed, so adversaries land uniformly across the quality
        // mixture instead of clustering on the expert-first prefix the
        // population generator emits.
        let mut rng = SmallRng::seed_from_u64(config.seed ^ 0xAD5E_ED00_0000_0001);
        for i in (1..size).rev() {
            let j = rng.gen_range(0..=i);
            classes.swap(i, j);
        }

        AdversarialPopulation {
            base,
            classes,
            honest_model: config.honest_model,
            sleeper_golden_quality: config.sleeper_golden_quality,
            collusion: config.collusion,
            drift_slope: config.drift_slope,
        }
    }

    /// Produces worker `w`'s answer to a task under her class's behavior.
    pub fn answer(
        &self,
        w: WorkerId,
        task: &Task,
        ctx: AnswerContext,
        rng: &mut SmallRng,
    ) -> ChoiceIndex {
        let worker = self.base.worker(w);
        match self.classes[w.index()] {
            WorkerClass::Drifter => {
                let domain = task
                    .true_domain
                    .expect("simulated workers need tasks with a true domain");
                let q = worker.true_quality[domain];
                let q_eff = (q + self.drift_slope * ctx.progress).clamp(0.02, 0.98);
                worker.answer_with_quality(q_eff, task, self.honest_model, ctx, rng)
            }
            class => worker.answer_in_context(task, self.model_of_class(class), ctx, rng),
        }
    }

    /// The answer model a (non-drifting) class resolves to.
    fn model_of_class(&self, class: WorkerClass) -> AnswerModel {
        match class {
            WorkerClass::Honest | WorkerClass::Drifter => self.honest_model,
            WorkerClass::Spammer => AnswerModel::UniformSpammer,
            WorkerClass::Sleeper => AnswerModel::Sleeper {
                golden_quality: self.sleeper_golden_quality,
            },
            WorkerClass::Colluder { clique } => AnswerModel::Clique {
                clique,
                collusion: self.collusion,
            },
        }
    }

    /// Number of workers.
    pub fn len(&self) -> usize {
        self.base.len()
    }

    /// True when the base population is empty.
    pub fn is_empty(&self) -> bool {
        self.base.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use docs_types::{DomainVector, TaskBuilder};

    fn config() -> AdversarialConfig {
        AdversarialConfig {
            seed: 0xBEE5,
            ..Default::default()
        }
    }

    /// Classes over a fresh 2-domain population of `size` workers
    /// generated from the config's seed.
    fn generate(size: usize, config: &AdversarialConfig) -> AdversarialPopulation {
        let base = WorkerPopulation::generate(&PopulationConfig {
            m: 2,
            size,
            seed: config.seed,
            ..Default::default()
        });
        AdversarialPopulation::with_base(base, config)
    }

    fn in_class(pop: &AdversarialPopulation, want: WorkerClass) -> Vec<usize> {
        (0..pop.len()).filter(|&i| pop.classes[i] == want).collect()
    }

    fn task(l: usize, truth: usize, domain: usize) -> docs_types::Task {
        TaskBuilder::new(0usize, "t")
            .with_choices((0..l).map(|c| format!("c{c}")))
            .with_ground_truth(truth)
            .with_true_domain(domain)
            .with_domain_vector(DomainVector::one_hot(2, domain))
            .build()
            .unwrap()
    }

    #[test]
    fn class_counts_match_fractions() {
        let cfg = AdversarialConfig {
            spammer_fraction: 0.2,
            sleeper_fraction: 0.1,
            colluder_fraction: 0.3,
            colluder_cliques: 3,
            drifter_fraction: 0.1,
            ..config()
        };
        let pop = generate(100, &cfg);
        let count = |c: WorkerClass| in_class(&pop, c).len();
        assert_eq!(count(WorkerClass::Spammer), 20);
        assert_eq!(count(WorkerClass::Sleeper), 10);
        assert_eq!(count(WorkerClass::Drifter), 10);
        assert_eq!(count(WorkerClass::Honest), 30);
        let colluders: usize = (0..3)
            .map(|c| count(WorkerClass::Colluder { clique: c }))
            .sum();
        assert_eq!(colluders, 30);
        // Round-robin split across cliques.
        for c in 0..3 {
            assert_eq!(count(WorkerClass::Colluder { clique: c }), 10);
        }
    }

    #[test]
    fn class_shuffle_is_seeded_and_decorrelated() {
        let cfg = AdversarialConfig {
            spammer_fraction: 0.2,
            ..config()
        };
        let a = generate(100, &cfg);
        let b = generate(100, &cfg);
        assert_eq!(a.classes, b.classes);
        // Spammers must not cluster on the expert-first prefix: with 20
        // spammers uniformly shuffled over 100 slots, all landing in the
        // first 40 has probability ~1e-9.
        let spam = in_class(&a, WorkerClass::Spammer);
        assert!(
            spam.iter().any(|&w| w >= 40),
            "spammers stuck on the expert prefix: {spam:?}"
        );
        // A different seed reshuffles.
        let mut cfg2 = cfg.clone();
        cfg2.seed = 0x5EED;
        let c = generate(100, &cfg2);
        assert_ne!(a.classes, c.classes, "seed change must move classes");
    }

    #[test]
    fn drifter_quality_moves_with_progress() {
        let base = WorkerPopulation::generate(&PopulationConfig {
            m: 2,
            size: 4,
            base_quality: (0.88, 0.9),
            expert_fraction: 0.0,
            spammer_fraction: 0.0,
            seed: 1,
            ..Default::default()
        });
        let cfg = AdversarialConfig {
            drifter_fraction: 1.0,
            drift_slope: -0.5,
            seed: 1,
            ..Default::default()
        };
        let pop = AdversarialPopulation::with_base(base, &cfg);
        let w = WorkerId(0);
        assert_eq!(pop.classes[w.index()], WorkerClass::Drifter);
        let t = task(2, 0, 0);
        let mut rng = SmallRng::seed_from_u64(11);
        let trials = 4000;
        let acc_at = |p: f64, rng: &mut SmallRng| {
            let ctx = AnswerContext {
                is_golden: false,
                progress: p,
            };
            (0..trials)
                .filter(|_| pop.answer(w, &t, ctx, rng) == 0)
                .count() as f64
                / trials as f64
        };
        let early = acc_at(0.0, &mut rng);
        let late = acc_at(1.0, &mut rng);
        // q ≈ 0.89 at progress 0; 0.89 − 0.5 ≈ 0.39 at progress 1.
        assert!((early - 0.89).abs() < 0.03, "{early}");
        assert!((late - 0.39).abs() < 0.03, "{late}");
    }

    #[test]
    fn honest_wrapper_answers_like_the_base_population() {
        let base_cfg = PopulationConfig {
            m: 2,
            size: 10,
            seed: 3,
            ..Default::default()
        };
        let direct = WorkerPopulation::generate(&base_cfg);
        // Every behavioral fraction defaults to 0: everyone is honest.
        let pop = AdversarialPopulation::with_base(
            direct.clone(),
            &AdversarialConfig {
                seed: base_cfg.seed,
                honest_model: AnswerModel::DomainUniform,
                ..Default::default()
            },
        );
        let t = task(3, 1, 1);
        // Same rng stream → byte-identical answers.
        let mut rng_a = SmallRng::seed_from_u64(12);
        let mut rng_b = SmallRng::seed_from_u64(12);
        for i in 0..10 {
            let w = WorkerId(i);
            assert_eq!(
                pop.answer(w, &t, AnswerContext::default(), &mut rng_a),
                direct
                    .worker(w)
                    .answer(&t, AnswerModel::DomainUniform, &mut rng_b)
            );
        }
    }

    #[test]
    #[should_panic(expected = "sum to <= 1")]
    fn rejects_oversubscribed_fractions() {
        let cfg = AdversarialConfig {
            spammer_fraction: 0.7,
            colluder_fraction: 0.5,
            ..config()
        };
        let _ = generate(10, &cfg);
    }
}
