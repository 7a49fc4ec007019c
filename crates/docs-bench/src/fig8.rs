//! Figure 8: online task assignment — the end-to-end comparison of
//! Baseline, AskIt!, IC, QASCA, D-Max, and DOCS (plus the UCB Bandit
//! extension from the related-work lineage \[41\]) and OTA scalability.

use crate::protocol::PreparedDataset;
use docs_baselines::ota::{AskIt, Bandit, DMax, DocsAssign, ICrowdAssign, Qasca, RandomBaseline};
use docs_core::ota::{Assigner, AssignerConfig};
use docs_core::ti::TaskArena;
use docs_crowd::{AssignmentStrategy, ExperimentOutcome, Platform, PlatformConfig};
use docs_datasets::scalability_tasks;
use docs_types::DomainVector;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// **Figure 8(a)(b)**: runs the Section 6.1 parallel protocol on a prepared
/// dataset — every method assigns `k = 3` tasks per worker arrival and
/// collects the same answer budget. Returns one outcome per method.
pub fn run_comparison(
    prepared: &PreparedDataset,
    answers_per_task_budget: usize,
    seed: u64,
) -> Vec<ExperimentOutcome> {
    let tasks = prepared.dataset.tasks.clone();
    let m = prepared.dataset.domain_set.len();
    let n = tasks.len();

    let mut baseline = RandomBaseline::new(tasks.clone(), seed);
    let mut askit = AskIt::new(tasks.clone());
    let mut icrowd = ICrowdAssign::new(tasks.clone(), m);
    let mut qasca = Qasca::new(tasks.clone());
    let mut dmax = DMax::new(tasks.clone(), m, 100);
    let mut bandit = Bandit::new(tasks.clone(), m, 100, 0.5);
    let mut docs = DocsAssign::new(tasks.clone(), m);

    let platform = Platform::new(
        &prepared.dataset.tasks,
        prepared.golden_ids.clone(),
        &prepared.population,
        PlatformConfig {
            k_per_hit: 3,
            answer_budget: answers_per_task_budget * n,
            seed,
            ..Default::default()
        },
    );
    let mut strategies: [&mut dyn AssignmentStrategy; 7] = [
        &mut baseline,
        &mut askit,
        &mut icrowd,
        &mut qasca,
        &mut dmax,
        &mut bandit,
        &mut docs,
    ];
    platform.run_parallel(&mut strategies)
}

/// One Figure 8(c) point.
#[derive(Debug, Clone)]
pub struct Fig8cPoint {
    /// Number of tasks `n`.
    pub n: usize,
    /// HIT size `k`.
    pub k: usize,
    /// Wall time of one DOCS assignment over all `n` tasks.
    pub time: Duration,
}

/// **Figure 8(c)**: OTA scalability — time of one assignment decision as a
/// function of `n` and `k` (m = 20, random task states, as in the paper's
/// simulation).
pub fn fig8c(ns: &[usize], ks: &[usize], seed: u64) -> Vec<Fig8cPoint> {
    let mut out = Vec::new();
    for &n in ns {
        let tasks = scalability_tasks(n, 20, seed);
        // Random current states: a few answers of random quality per task.
        let mut rng = SmallRng::seed_from_u64(seed ^ n as u64);
        let mut states = TaskArena::for_tasks(20, &tasks);
        for (i, t) in tasks.iter().enumerate() {
            for _ in 0..rng.gen_range(0..5) {
                let q: Vec<f64> = (0..20).map(|_| rng.gen_range(0.4..0.95)).collect();
                states.apply_answer(i, &q, rng.gen_range(0..t.num_choices()));
            }
        }
        let quality: Vec<f64> = (0..20).map(|_| rng.gen_range(0.4..0.95)).collect();
        for &k in ks {
            let assigner = Assigner::new(AssignerConfig {
                k,
                ..Default::default()
            });
            let t0 = Instant::now();
            let picks = assigner.assign(&quality, &tasks, &states, |_| false, |_| 0);
            let time = t0.elapsed();
            assert_eq!(picks.len(), k.min(n));
            out.push(Fig8cPoint { n, k, time });
        }
    }
    out
}

/// Convenience: one synthetic domain-vector builder used by bench targets.
pub fn uniform_r(m: usize) -> DomainVector {
    DomainVector::uniform(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::prepare;

    #[test]
    fn docs_wins_the_end_to_end_comparison() {
        // Small-but-real protocol run on Item with a reduced budget so the
        // test stays fast; the full budget run lives in the figures binary.
        let prepared = prepare(docs_datasets::item(), 10, 20, 40, 0x88);
        let outcomes = run_comparison(&prepared, 5, 0x88);
        assert_eq!(outcomes.len(), 7);
        let get = |name: &str| outcomes.iter().find(|o| o.name == name).unwrap();
        let docs = get("DOCS").accuracy;
        let baseline = get("Baseline").accuracy;
        assert!(
            docs >= baseline,
            "DOCS {docs} must beat random baseline {baseline}"
        );
        assert!(docs > 0.75, "DOCS end-to-end accuracy {docs}");
        // Same collected budget for every method.
        let sizes: Vec<usize> = outcomes.iter().map(|o| o.log.len()).collect();
        assert!(sizes.iter().all(|&s| s == sizes[0]), "{sizes:?}");
    }

    #[test]
    fn ota_time_linear_in_n_and_flat_in_k() {
        let points = fig8c(&[500, 2000], &[5, 50], 0x8C);
        let t = |n: usize, k: usize| points.iter().find(|p| p.n == n && p.k == k).unwrap().time;
        assert!(t(2000, 5) > t(500, 5) / 2, "should grow with n");
        // k barely matters (selection is linear).
        assert!(t(2000, 50) < t(2000, 5) * 10 + Duration::from_millis(1));
    }
}
