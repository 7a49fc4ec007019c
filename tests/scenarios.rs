//! Scenario-harness invariants: byte-reproducibility across the topology
//! matrix, and the paper's quality claim as a regression test.
//!
//! 1. **Seed determinism** — the same [`ScenarioSpec`] produces a
//!    byte-identical answer stream (golden and ordinary, in submission
//!    order) and byte-identical final truths across the
//!    `shards × task_shards` matrix. This is what makes a spec's JSON
//!    manifest a complete repro recipe: quality numbers can only move when
//!    inference itself moves, never because a topology knob or a hash-map
//!    seed did.
//! 2. **DOCS ≥ majority vote on honest crowds** — every honest registry
//!    scenario, shrunk to test size, must keep per-domain inference at or
//!    above the majority-vote baseline computed over the *same* mirrored
//!    answers. The full-size claim is asserted by the `quality` bench
//!    before `BENCH_quality.json` is merged.

use docs_scenarios::{
    registry, run_scenario, score, ArrivalSpec, PopulationClass, ScenarioSpec, ServiceSpec,
};
use proptest::prelude::*;

fn spec_for(
    class: PopulationClass,
    arrivals: ArrivalSpec,
    seed: u64,
    shards: usize,
    task_shards: usize,
) -> docs_scenarios::ScenarioSpec {
    let mut spec = docs_scenarios::named("four_domain_honest")
        .expect("registry scenario")
        .shrunk(48, 4);
    spec.name = "prop_matrix".to_string();
    spec.population.class = class;
    spec.arrivals = arrivals;
    spec.service = ServiceSpec::InMemory { shards };
    spec.task_shards = task_shards;
    spec.seed = seed;
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Same spec → byte-identical answer log and truths, for every
    /// combination of service shards and task shards, any population
    /// class, any arrival pattern.
    #[test]
    fn scenario_runs_are_byte_identical_across_the_shard_matrix(
        seed in 0u64..1000,
        class_pick in 0usize..4,
        arrival_pick in 0usize..3,
    ) {
        let class = [
            PopulationClass::Honest,
            PopulationClass::Spammers { fraction: 0.25 },
            PopulationClass::Colluders { fraction: 0.25, cliques: 2, collusion: 0.8 },
            PopulationClass::Drifters { fraction: 0.5, slope: -0.4 },
        ][class_pick];
        let arrivals = [
            ArrivalSpec::Uniform,
            ArrivalSpec::Zipf { exponent: 1.1 },
            ArrivalSpec::Bursty { window: 8, hold: 16 },
        ][arrival_pick];

        let reference = run_scenario(&spec_for(class, arrivals, seed, 1, 1));
        for (shards, task_shards) in [(1usize, 4usize), (4, 1), (4, 4)] {
            let other = run_scenario(&spec_for(class, arrivals, seed, shards, task_shards));
            prop_assert_eq!(
                &reference.mirror.golden, &other.mirror.golden,
                "golden stream diverged at shards={} task_shards={}", shards, task_shards
            );
            prop_assert_eq!(
                &reference.mirror.flat, &other.mirror.flat,
                "answer stream diverged at shards={} task_shards={}", shards, task_shards
            );
            prop_assert_eq!(
                &reference.report.truths, &other.report.truths,
                "truths diverged at shards={} task_shards={}", shards, task_shards
            );
        }
    }
}

/// The paper's core claim as a regression test: on every honest registry
/// scenario, DOCS accuracy must be at or above majority vote over the same
/// answers. Scenarios are shrunk for test time; the quality bench asserts
/// the full-size versions.
#[test]
fn docs_beats_majority_vote_on_every_honest_scenario() {
    for spec in registry() {
        if !spec.population.class.is_honest() {
            continue;
        }
        let q = score(&run_scenario(&spec.shrunk(120, 8)));
        assert!(
            q.docs_accuracy >= q.majority_accuracy,
            "{}: DOCS {:.4} lost to majority vote {:.4}",
            q.scenario,
            q.docs_accuracy,
            q.majority_accuracy
        );
    }
}

/// Two runs of the same spec in the same process are byte-identical —
/// the in-process half of reproducibility (fresh hash-map instances,
/// fresh threads, same bytes).
#[test]
fn repeated_runs_are_byte_identical() {
    let spec = docs_scenarios::named("four_domain_honest")
        .expect("registry scenario")
        .shrunk(60, 4);
    let a = run_scenario(&spec);
    let b = run_scenario(&spec);
    assert_eq!(a.mirror.golden, b.mirror.golden);
    assert_eq!(a.mirror.flat, b.mirror.flat);
    assert_eq!(a.report.truths, b.report.truths);
}

/// The manifest round-trip carries the run: every registry spec parses
/// back from its JSON unchanged, and a parsed spec produces the same bytes
/// as the original.
#[test]
fn manifest_json_reproduces_the_run() {
    let roundtrip = |spec: &ScenarioSpec| -> ScenarioSpec {
        serde_json::from_str(&serde_json::to_string(spec).unwrap()).expect("parse")
    };
    for spec in docs_scenarios::registry() {
        assert_eq!(roundtrip(&spec), spec);
    }
    let spec = docs_scenarios::named("item_honest")
        .expect("registry scenario")
        .shrunk(60, 4);
    let parsed = roundtrip(&spec);
    let a = run_scenario(&spec);
    let b = run_scenario(&parsed);
    assert_eq!(a.mirror.flat, b.mirror.flat);
    assert_eq!(a.report.truths, b.report.truths);
}
