//! Figure 4: the five TI aspect experiments.

use crate::protocol::PreparedDataset;
use docs_core::ti::{TiConfig, TruthInference, WorkerRegistry};
use docs_datasets::scalability_workload;
use docs_types::WorkerId;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// **Figure 4(a)** — convergence: the parameter change Δ per iteration.
pub fn fig4a_convergence(prepared: &PreparedDataset, max_iterations: usize) -> Vec<f64> {
    let ti = TruthInference::new(TiConfig {
        max_iterations,
        epsilon: 0.0, // run all iterations to trace the full curve
    });
    let result = ti.run(
        &prepared.dataset.tasks,
        &prepared.log,
        &prepared.docs_registry(),
    );
    result.deltas
}

/// **Figure 4(b)** — accuracy as a function of the number of golden tasks.
///
/// Re-runs golden selection and initialization for each budget; `0` golden
/// tasks means prior-only initialization.
pub fn fig4b_golden_sweep(prepared: &PreparedDataset, budgets: &[usize]) -> Vec<(usize, f64)> {
    let m = prepared.dataset.domain_set.len();
    budgets
        .iter()
        .map(|&n_golden| {
            let mut registry = WorkerRegistry::new(m, 0.7);
            let mut extra_rng = rand::rngs::SmallRng::seed_from_u64(0x4B ^ n_golden as u64);
            if n_golden > 0 {
                let golden_ids =
                    docs_core::golden::select_golden_tasks(&prepared.dataset.tasks, n_golden);
                // In worker order: the extra golden answers below share one
                // rng, so the order they are drawn in is part of the output.
                let mut workers: Vec<_> = prepared.golden_answers.iter().collect();
                workers.sort_unstable_by_key(|&(&w, _)| w);
                for (&w, all_answers) in workers {
                    // Reuse each worker's recorded golden answers, filtered
                    // to this budget's golden set (re-answer via the cached
                    // set when the budget exceeds the recorded HIT).
                    let answers: Vec<_> = golden_ids
                        .iter()
                        .map(|gid| {
                            all_answers
                                .iter()
                                .find(|(t, _)| t == gid)
                                .copied()
                                .unwrap_or_else(|| {
                                    // Golden budget exceeds the recorded HIT:
                                    // simulate the extra golden answers from
                                    // the worker's true quality.
                                    let t = &prepared.dataset.tasks[gid.index()];
                                    let choice = prepared.population.worker(w).answer(
                                        t,
                                        docs_crowd::AnswerModel::DomainUniform,
                                        &mut extra_rng,
                                    );
                                    (*gid, choice)
                                })
                        })
                        .collect();
                    registry.init_from_golden(
                        w,
                        &answers,
                        |tid| {
                            let t = &prepared.dataset.tasks[tid.index()];
                            (t.domain_vector().clone(), t.ground_truth.expect("golden"))
                        },
                        1.0,
                    );
                }
            }
            let result =
                TruthInference::default().run(&prepared.dataset.tasks, &prepared.log, &registry);
            (n_golden, result.accuracy(&prepared.dataset.tasks))
        })
        .collect()
}

/// **Figure 4(c)** — accuracy as a function of answers collected per task.
pub fn fig4c_answer_sweep(prepared: &PreparedDataset, caps: &[usize]) -> Vec<(usize, f64)> {
    let registry = prepared.docs_registry();
    caps.iter()
        .map(|&cap| {
            let log = prepared.log_with_answer_cap(cap);
            let result = TruthInference::default().run(&prepared.dataset.tasks, &log, &registry);
            (cap, result.accuracy(&prepared.dataset.tasks))
        })
        .collect()
}

/// **Figure 4(d)** — worker-quality estimation: mean |q̃ − q| deviation as a
/// function of how many tasks each worker answered.
pub fn fig4d_quality_deviation(prepared: &PreparedDataset, caps: &[usize]) -> Vec<(usize, f64)> {
    let registry = prepared.docs_registry();
    caps.iter()
        .map(|&cap| {
            let log = prepared.log.truncated_per_worker(cap);
            let result = TruthInference::default().run(&prepared.dataset.tasks, &log, &registry);
            // Deviation only over the focus domains the dataset exercises
            // (qualities of untouched domains stay at the prior).
            let focus = &prepared.dataset.focus_domains;
            let mut total = 0.0;
            let mut count = 0usize;
            for (&w, q) in &result.qualities {
                let tq = prepared.population.true_quality(w);
                for &fd in focus {
                    total += (q[fd] - tq[fd]).abs();
                    count += 1;
                }
            }
            (
                cap,
                if count == 0 {
                    0.0
                } else {
                    total / count as f64
                },
            )
        })
        .collect()
}

/// One Figure 4(e) measurement point.
#[derive(Debug, Clone)]
pub struct ScalabilityPoint {
    /// Number of tasks `n`.
    pub n: usize,
    /// Worker-set size `|W|`.
    pub workers: usize,
    /// Iterative TI wall time.
    pub time: Duration,
}

/// **Figure 4(e)** — TI scalability: time vs `n` for several `|W|`
/// (m = 20, 10 answers per task, as in the paper's simulation).
pub fn fig4e_scalability(ns: &[usize], worker_sizes: &[usize], seed: u64) -> Vec<ScalabilityPoint> {
    let mut points = Vec::new();
    for &workers in worker_sizes {
        for &n in ns {
            let (tasks, _pop, log) = scalability_workload(n, 20, workers, 10, seed);
            let registry = WorkerRegistry::new(20, 0.7);
            let ti = TruthInference::new(TiConfig {
                max_iterations: 20,
                epsilon: 1e-6,
            });
            let t0 = Instant::now();
            let _ = ti.run(&tasks, &log, &registry);
            points.push(ScalabilityPoint {
                n,
                workers,
                time: t0.elapsed(),
            });
        }
    }
    points
}

/// Worker-quality estimation helper shared with Figure 6: estimated vs true
/// quality pairs for a chosen domain.
pub fn calibration_pairs(
    prepared: &PreparedDataset,
    domain: usize,
    min_answers: usize,
) -> Vec<(WorkerId, f64, f64)> {
    let registry = prepared.docs_registry();
    let result = TruthInference::default().run(&prepared.dataset.tasks, &prepared.log, &registry);
    let mut pairs = Vec::new();
    for (&w, q) in &result.qualities {
        if prepared.log.worker_answers(w).len() < min_answers {
            continue;
        }
        let true_q = prepared.population.true_quality(w)[domain];
        pairs.push((w, true_q, q[domain]));
    }
    pairs.sort_by_key(|(w, _, _)| *w);
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::prepare;

    fn small_prepared() -> PreparedDataset {
        prepare(docs_datasets::item(), 6, 10, 30, 0x4A)
    }

    #[test]
    fn convergence_curve_decreases() {
        let prepared = small_prepared();
        let deltas = fig4a_convergence(&prepared, 30);
        assert_eq!(deltas.len(), 30);
        let head: f64 = deltas[..3].iter().sum();
        let tail: f64 = deltas[deltas.len() - 3..].iter().sum();
        assert!(tail < head / 10.0, "Δ should collapse: {deltas:?}");
    }

    #[test]
    fn more_answers_help() {
        let prepared = small_prepared();
        let sweep = fig4c_answer_sweep(&prepared, &[1, 3, 6]);
        assert!(sweep[2].1 >= sweep[0].1, "{sweep:?}");
        assert!(sweep[2].1 > 0.72, "{sweep:?}");
    }

    #[test]
    fn more_worker_answers_reduce_deviation() {
        let prepared = small_prepared();
        let sweep = fig4d_quality_deviation(&prepared, &[1, 80]);
        assert!(
            sweep[1].1 <= sweep[0].1 + 0.02,
            "deviation should shrink: {sweep:?}"
        );
    }

    #[test]
    fn scalability_time_grows_with_n_not_workers() {
        let points = fig4e_scalability(&[200, 800], &[10, 100], 0x4E);
        let t = |n: usize, w: usize| {
            points
                .iter()
                .find(|p| p.n == n && p.workers == w)
                .unwrap()
                .time
        };
        // Linear in n: 4x tasks should cost clearly more.
        assert!(t(800, 10) > t(200, 10));
        // Worker count: within noise — do not assert strictly, only that it
        // does not blow up by an order of magnitude.
        assert!(t(800, 100) < t(800, 10) * 10);
    }

    #[test]
    fn golden_sweep_runs_all_budgets() {
        let prepared = small_prepared();
        let sweep = fig4b_golden_sweep(&prepared, &[0, 10]);
        assert_eq!(sweep.len(), 2);
        for (_, acc) in &sweep {
            assert!((0.0..=1.0).contains(acc));
        }
    }
}
