//! The declarative scenario manifest.
//!
//! A [`ScenarioSpec`] names everything a run needs — dataset, worker
//! population, arrival pattern, service topology, collection budget, and
//! one seed — and nothing else. Two runs of the same spec produce
//! byte-identical answer logs and truths (pinned by the `scenarios`
//! proptest), so a spec's JSON form is a complete, shareable repro recipe
//! for any quality number the harness reports.

use docs_crowd::{AdversarialConfig, AnswerModel, ArrivalProcess, PopulationConfig};
use docs_datasets::{four_domain, item, sfv, yahoo_qa, Dataset};
use serde::{Deserialize, Serialize};

/// Which regenerated evaluation dataset the scenario runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DatasetRef {
    /// 360 product-comparison tasks, 4 domains × 90.
    Item,
    /// 400 tasks with cross-domain template sharing.
    FourDomain,
    /// 1000 heterogeneous search-style questions.
    YahooQa,
    /// 328 person-attribute tasks with 4 choices each.
    Sfv,
}

impl DatasetRef {
    /// Builds the dataset (ground truth and true domains included).
    pub fn build(self) -> Dataset {
        match self {
            DatasetRef::Item => item(),
            DatasetRef::FourDomain => four_domain(),
            DatasetRef::YahooQa => yahoo_qa(),
            DatasetRef::Sfv => sfv(),
        }
    }

    /// Key-friendly name used in `BENCH_quality.json` metric keys.
    pub fn key(self) -> &'static str {
        match self {
            DatasetRef::Item => "item",
            DatasetRef::FourDomain => "four_domain",
            DatasetRef::YahooQa => "yahoo_qa",
            DatasetRef::Sfv => "sfv",
        }
    }
}

/// The behavioral mix of the worker population — one named class per
/// scenario so quality deltas attribute cleanly.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PopulationClass {
    /// Everyone honest under the paper's answer model.
    Honest,
    /// `fraction` uniform spammers among honest workers.
    Spammers {
        /// Fraction of the population spamming.
        fraction: f64,
    },
    /// `fraction` sleeper spammers gaming the golden gate.
    Sleepers {
        /// Fraction of the population sleeping.
        fraction: f64,
        /// Accuracy they fake on golden tasks.
        golden_quality: f64,
    },
    /// `fraction` colluders split across `cliques` wrong-consensus cliques.
    Colluders {
        /// Fraction of the population colluding.
        fraction: f64,
        /// Number of independent cliques.
        cliques: u32,
        /// Probability of giving the clique answer.
        collusion: f64,
    },
    /// `fraction` workers whose quality drifts with campaign progress.
    Drifters {
        /// Fraction of the population drifting.
        fraction: f64,
        /// Quality slope over progress (negative = degrading).
        slope: f64,
    },
}

impl PopulationClass {
    /// Key-friendly class name.
    pub fn key(self) -> &'static str {
        match self {
            PopulationClass::Honest => "honest",
            PopulationClass::Spammers { .. } => "spammers",
            PopulationClass::Sleepers { .. } => "sleepers",
            PopulationClass::Colluders { .. } => "colluders",
            PopulationClass::Drifters { .. } => "drifters",
        }
    }

    /// True when no adversarial class is present.
    pub fn is_honest(self) -> bool {
        matches!(self, PopulationClass::Honest)
    }
}

/// Worker population of a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PopulationSpec {
    /// Number of workers.
    pub size: usize,
    /// Behavioral mix.
    pub class: PopulationClass,
}

/// Arrival pattern — serde mirror of [`ArrivalProcess`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalSpec {
    /// Uniform arrivals.
    Uniform,
    /// Zipf-skewed arrivals.
    Zipf {
        /// Skew exponent.
        exponent: f64,
    },
    /// Flash-crowd cohorts.
    Bursty {
        /// Hot-cohort size.
        window: usize,
        /// Arrivals per cohort.
        hold: usize,
    },
}

impl ArrivalSpec {
    /// The docs-crowd arrival process this spec resolves to.
    pub fn process(self) -> ArrivalProcess {
        match self {
            ArrivalSpec::Uniform => ArrivalProcess::Uniform,
            ArrivalSpec::Zipf { exponent } => ArrivalProcess::Zipf { exponent },
            ArrivalSpec::Bursty { window, hold } => ArrivalProcess::Bursty { window, hold },
        }
    }
}

/// Service topology the scenario drives through. Quality is invariant
/// across topologies (the same deterministic request stream reaches the
/// same engine); the spec still names one so every serving stack is
/// exercised end-to-end by the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServiceSpec {
    /// Plain in-memory shard pool.
    InMemory {
        /// Shard threads.
        shards: usize,
    },
    /// Durable pool (WAL + snapshots in a scratch directory).
    Durable {
        /// Shard threads.
        shards: usize,
    },
    /// Durable primary shipping its WAL to one live read replica.
    Replicated {
        /// Shard threads on the primary.
        shards: usize,
    },
    /// Two-primary cluster; the campaign lives on node 0 and the drive
    /// goes through the [`docs_service::ClusterRouter`].
    Clustered {
        /// Shard threads per node.
        shards: usize,
    },
}

impl ServiceSpec {
    /// Shard threads on the (first) primary.
    pub fn shards(self) -> usize {
        match self {
            ServiceSpec::InMemory { shards }
            | ServiceSpec::Durable { shards }
            | ServiceSpec::Replicated { shards }
            | ServiceSpec::Clustered { shards } => shards,
        }
    }
}

/// One named, seeded, byte-reproducible scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Scenario name; also the metric-key prefix in `BENCH_quality.json`.
    pub name: String,
    /// Dataset under inference.
    pub dataset: DatasetRef,
    /// Worker population.
    pub population: PopulationSpec,
    /// Arrival pattern.
    pub arrivals: ArrivalSpec,
    /// Service topology.
    pub service: ServiceSpec,
    /// Collection budget: answers per task.
    pub answers_per_task: usize,
    /// Tasks per HIT.
    pub k_per_hit: usize,
    /// Golden tasks selected at publish.
    pub num_golden: usize,
    /// Full-inference period.
    pub z: usize,
    /// Task-state shards inside the engine (walk-order knob; truths are
    /// byte-identical for every value).
    pub task_shards: usize,
    /// Optional truncation of the dataset to its first `n` tasks — smoke
    /// and property tests shrink scenarios without changing their shape.
    pub task_limit: Option<usize>,
    /// The run seed: arrivals and simulated answers both derive from it.
    pub seed: u64,
}

impl ScenarioSpec {
    /// The adversarial population this spec resolves to.
    pub fn population_config(&self, num_domains: usize) -> AdversarialConfig {
        let mut cfg = AdversarialConfig {
            base: PopulationConfig {
                m: num_domains,
                size: self.population.size,
                // Class fractions below describe *behavior*. The quality
                // vectors come from the dataset's focus-domain crowd
                // (`Dataset::worker_qualities`, seeded below); the runner
                // passes them through `AdversarialPopulation::with_base`,
                // so this base config contributes only size and seed.
                seed: self.seed ^ 0x00F0_0D5E,
                ..Default::default()
            },
            honest_model: AnswerModel::DomainUniform,
            ..Default::default()
        };
        match self.population.class {
            PopulationClass::Honest => {}
            PopulationClass::Spammers { fraction } => cfg.spammer_fraction = fraction,
            PopulationClass::Sleepers {
                fraction,
                golden_quality,
            } => {
                cfg.sleeper_fraction = fraction;
                cfg.sleeper_golden_quality = golden_quality;
            }
            PopulationClass::Colluders {
                fraction,
                cliques,
                collusion,
            } => {
                cfg.colluder_fraction = fraction;
                cfg.colluder_cliques = cliques;
                cfg.collusion = collusion;
            }
            PopulationClass::Drifters { fraction, slope } => {
                cfg.drifter_fraction = fraction;
                cfg.drift_slope = slope;
            }
        }
        cfg
    }

    /// Serializes the manifest (sorted-field JSON via serde).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("scenario specs serialize")
    }

    /// Parses a manifest back.
    pub fn from_json(s: &str) -> Result<ScenarioSpec, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Returns the spec truncated to at most `tasks` tasks with a reduced
    /// budget — the shape-preserving shrink smoke tests use.
    pub fn shrunk(&self, tasks: usize, answers_per_task: usize) -> ScenarioSpec {
        ScenarioSpec {
            task_limit: Some(tasks),
            answers_per_task,
            ..self.clone()
        }
    }
}

fn base_spec(name: &str, dataset: DatasetRef, class: PopulationClass) -> ScenarioSpec {
    ScenarioSpec {
        name: name.to_string(),
        dataset,
        population: PopulationSpec { size: 40, class },
        arrivals: ArrivalSpec::Uniform,
        service: ServiceSpec::InMemory { shards: 2 },
        answers_per_task: 10,
        k_per_hit: 3,
        num_golden: 20,
        z: 100,
        task_shards: 1,
        task_limit: None,
        seed: 0x5CEA_0001,
    }
}

/// The named scenario registry — every spec the quality bench, the CI
/// smoke, and the examples draw from. Names are stable: they are the
/// metric-key prefixes of `BENCH_quality.json`.
pub fn registry() -> Vec<ScenarioSpec> {
    vec![
        // Honest runs on every dataset class the paper evaluates.
        base_spec("item_honest", DatasetRef::Item, PopulationClass::Honest),
        base_spec(
            "four_domain_honest",
            DatasetRef::FourDomain,
            PopulationClass::Honest,
        ),
        ScenarioSpec {
            // Bursty arrivals + durable topology on the honest population:
            // quality must not care how workers arrive or where events go.
            arrivals: ArrivalSpec::Bursty {
                window: 12,
                hold: 30,
            },
            service: ServiceSpec::Durable { shards: 2 },
            ..base_spec(
                "sfv_honest_bursty",
                DatasetRef::Sfv,
                PopulationClass::Honest,
            )
        },
        // Adversarial classes on the dataset with the hardest domain
        // structure (cross-domain template sharing).
        ScenarioSpec {
            service: ServiceSpec::Replicated { shards: 2 },
            ..base_spec(
                "four_domain_spammers",
                DatasetRef::FourDomain,
                PopulationClass::Spammers { fraction: 0.3 },
            )
        },
        base_spec(
            "four_domain_sleepers",
            DatasetRef::FourDomain,
            PopulationClass::Sleepers {
                fraction: 0.25,
                golden_quality: 0.95,
            },
        ),
        ScenarioSpec {
            service: ServiceSpec::Clustered { shards: 2 },
            ..base_spec(
                "four_domain_colluders",
                DatasetRef::FourDomain,
                PopulationClass::Colluders {
                    fraction: 0.25,
                    cliques: 2,
                    collusion: 0.85,
                },
            )
        },
        base_spec(
            "four_domain_drift",
            DatasetRef::FourDomain,
            PopulationClass::Drifters {
                fraction: 0.4,
                slope: -0.5,
            },
        ),
        // Sleepers against the large heterogeneous dataset: the headline
        // golden-calibration metric.
        base_spec(
            "yahoo_qa_sleepers",
            DatasetRef::YahooQa,
            PopulationClass::Sleepers {
                fraction: 0.25,
                golden_quality: 0.95,
            },
        ),
    ]
}

/// Looks a scenario up by name.
pub fn named(name: &str) -> Option<ScenarioSpec> {
    registry().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_cover_the_classes() {
        let specs = registry();
        let mut names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate scenario names");
        for class in ["honest", "spammers", "sleepers", "colluders", "drifters"] {
            assert!(
                specs.iter().any(|s| s.population.class.key() == class),
                "registry misses class {class}"
            );
        }
        // Every topology is exercised somewhere.
        assert!(specs
            .iter()
            .any(|s| matches!(s.service, ServiceSpec::Durable { .. })));
        assert!(specs
            .iter()
            .any(|s| matches!(s.service, ServiceSpec::Replicated { .. })));
        assert!(specs
            .iter()
            .any(|s| matches!(s.service, ServiceSpec::Clustered { .. })));
    }

    #[test]
    fn manifest_roundtrips_through_json() {
        for spec in registry() {
            let json = spec.to_json();
            let back = ScenarioSpec::from_json(&json).expect("parse");
            assert_eq!(spec, back, "manifest not stable: {json}");
            // Byte-stable serialization: the manifest is the repro recipe.
            assert_eq!(json, back.to_json());
        }
    }

    #[test]
    fn manifest_nesting_is_bounded() {
        // A manifest is outside input: hostile nesting is an error (on an
        // unbounded parser these two overflow the stack and abort)…
        assert!(ScenarioSpec::from_json(&"[".repeat(1_000_000)).is_err());
        assert!(ScenarioSpec::from_json(&"{\"a\":".repeat(200_000)).is_err());
        // …while a legal 96-deep document still parses: unknown keys are
        // ignored, so the nested extra rides along harmlessly.
        let spec = registry().remove(0);
        let extra = format!("{}{}", "[".repeat(95), "]".repeat(95));
        let json = spec
            .to_json()
            .replacen('{', &format!("{{\"extra\":{extra},"), 1);
        assert_eq!(ScenarioSpec::from_json(&json).expect("parse"), spec);
    }

    #[test]
    fn named_lookup_finds_every_registry_entry() {
        for spec in registry() {
            assert_eq!(named(&spec.name), Some(spec));
        }
        assert_eq!(named("no_such_scenario"), None);
    }
}
