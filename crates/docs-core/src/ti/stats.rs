//! Long-run worker-quality maintenance (Section 4.2, Theorem 1).
//!
//! DOCS keeps two statistics per worker and domain in its database: the
//! quality `q^w_k` and its *weight* `u^w_k` — the expected number of tasks
//! the worker answered that relate to domain `d_k`
//! (`u^w_k = Σ_{t_i ∈ T(w)} r^{t_i}_k`). Theorem 1 says merging statistics
//! from a new batch into stored ones via the weighted average
//! `(q̂·û + q·u)/(û + u)` is exact.

use docs_types::{ChoiceIndex, DomainVector, QualityVector, TaskId, WorkerId};
use serde::{Deserialize, Serialize};
use std::borrow::{Borrow, Cow};
use std::collections::HashMap;

/// Per-worker persistent statistics: quality vector and per-domain weights.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerStats {
    /// Quality `q^w_k` per domain.
    pub quality: Vec<f64>,
    /// Weight `u^w_k` per domain: expected number of answered tasks related
    /// to `d_k`.
    pub weight: Vec<f64>,
}

impl WorkerStats {
    /// Fresh statistics: the given prior quality with zero weight (so any
    /// observed evidence immediately dominates).
    pub fn with_prior(m: usize, prior_quality: f64) -> Self {
        WorkerStats {
            quality: vec![prior_quality; m],
            weight: vec![0.0; m],
        }
    }

    /// Number of domains `m`.
    pub fn num_domains(&self) -> usize {
        self.quality.len()
    }

    /// Merges a new batch of statistics into the stored ones (Theorem 1):
    /// `q ← (q̂·û + q·u)/(û + u)`, `u ← û + u`. Domains with zero combined
    /// weight keep the stored quality.
    pub fn merge(&mut self, batch: &WorkerStats) {
        debug_assert_eq!(self.num_domains(), batch.num_domains());
        for k in 0..self.quality.len() {
            let total = self.weight[k] + batch.weight[k];
            if total > 0.0 {
                self.quality[k] =
                    (self.quality[k] * self.weight[k] + batch.quality[k] * batch.weight[k]) / total;
            }
            self.weight[k] = total;
        }
    }

    /// Incremental self-update for one newly answered task (Section 4.2,
    /// Step 2, rule (1)): `q_k ← (q_k·u_k + s_{i,a}·r_k)/(u_k + r_k)`,
    /// `u_k ← u_k + r_k`, where `s_{i,a}` is the (updated) probability that
    /// the worker's answer `a` is the truth. `support` is the task's
    /// `{(k, r_k) : r_k ≠ 0}` ([`DomainVector::support`]): a domain with
    /// `r_k = 0` is left as it is.
    pub fn absorb_answer(&mut self, support: &[(usize, f64)], s_ia: f64) {
        for &(k, rk) in support {
            let new_weight = self.weight[k] + rk;
            self.quality[k] = (self.quality[k] * self.weight[k] + s_ia * rk) / new_weight;
            self.weight[k] = new_weight;
        }
    }

    /// Incremental correction for a *previously counted* answer whose truth
    /// probability changed from `s_old` to `s_new` (Section 4.2, Step 2,
    /// rule (2)): `q_k ← (q_k·u_k − s̃_{i,j}·r_k + s_{i,j}·r_k)/u_k`.
    /// The weight is unchanged — the task was already counted. `support` is
    /// as in [`WorkerStats::absorb_answer`].
    pub fn revise_answer(&mut self, support: &[(usize, f64)], s_old: f64, s_new: f64) {
        for &(k, rk) in support {
            if self.weight[k] == 0.0 {
                continue;
            }
            self.quality[k] =
                (self.quality[k] * self.weight[k] - s_old * rk + s_new * rk) / self.weight[k];
            // Floating error can push q marginally outside [0,1]; clamp.
            self.quality[k] = self.quality[k].clamp(0.0, 1.0);
        }
    }

    /// View as a validated [`QualityVector`].
    pub fn quality_vector(&self) -> QualityVector {
        QualityVector::new(self.quality.iter().map(|q| q.clamp(0.0, 1.0)).collect())
            .expect("maintained qualities stay within [0,1]")
    }
}

/// The worker-statistics table: what DOCS persists across requesters.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WorkerRegistry {
    stats: HashMap<WorkerId, WorkerStats>,
    /// Prior quality assigned to unseen workers/domains.
    prior_quality: f64,
    m: usize,
}

impl WorkerRegistry {
    /// Creates a registry over `m` domains with the given prior quality for
    /// unseen workers (the paper initializes via golden tasks; the prior is
    /// the fallback before any golden answer arrives).
    pub fn new(m: usize, prior_quality: f64) -> Self {
        assert!((0.0..=1.0).contains(&prior_quality));
        WorkerRegistry {
            stats: HashMap::new(),
            prior_quality,
            m,
        }
    }

    /// Number of domains `m`.
    pub fn num_domains(&self) -> usize {
        self.m
    }

    /// Prior quality used for unseen workers.
    pub fn prior_quality(&self) -> f64 {
        self.prior_quality
    }

    /// Whether the registry has statistics for a worker.
    pub fn contains(&self, w: WorkerId) -> bool {
        self.stats.contains_key(&w)
    }

    /// Number of workers tracked.
    pub fn len(&self) -> usize {
        self.stats.len()
    }

    /// True when no workers are tracked.
    pub fn is_empty(&self) -> bool {
        self.stats.is_empty()
    }

    /// Immutable stats access.
    pub fn get(&self, w: WorkerId) -> Option<&WorkerStats> {
        self.stats.get(&w)
    }

    /// Mutable stats access, inserting fresh prior stats for new workers.
    pub fn get_or_insert(&mut self, w: WorkerId) -> &mut WorkerStats {
        let m = self.m;
        let prior = self.prior_quality;
        self.stats
            .entry(w)
            .or_insert_with(|| WorkerStats::with_prior(m, prior))
    }

    /// The worker's quality vector (prior for unseen workers).
    pub fn quality(&self, w: WorkerId) -> Vec<f64> {
        self.quality_of(w).into_owned()
    }

    /// [`WorkerRegistry::quality`] read in place: borrowed for a tracked
    /// worker, the prior (owned) for an unseen one.
    pub fn quality_of(&self, w: WorkerId) -> Cow<'_, [f64]> {
        match self.stats.get(&w) {
            Some(s) => Cow::Borrowed(&s.quality),
            None => Cow::Owned(vec![self.prior_quality; self.m]),
        }
    }

    /// Overwrites a worker's statistics (used when the periodic full
    /// iterative inference re-estimates qualities).
    pub fn put(&mut self, w: WorkerId, stats: WorkerStats) {
        assert_eq!(stats.num_domains(), self.m);
        self.stats.insert(w, stats);
    }

    /// Initializes a worker's statistics from her answers on golden tasks
    /// (Section 5.2): [`WorkerRegistry::graded_on_golden`], stored.
    pub fn init_from_golden<D: Borrow<DomainVector>>(
        &mut self,
        w: WorkerId,
        golden: &[(TaskId, ChoiceIndex)],
        task_info: impl Fn(TaskId) -> (D, ChoiceIndex),
        smoothing: f64,
    ) {
        let stats = self.graded_on_golden(golden, task_info, smoothing);
        self.stats.insert(w, stats);
    }

    /// The statistics a worker's answers on golden tasks grade her with
    /// (Section 5.2): per domain, quality is the `r_k`-weighted fraction of
    /// correct golden answers, smoothed toward the prior with pseudo-weight
    /// `smoothing` so a single golden task cannot set `q_k` to an extreme,
    /// and the weight is `Σ r_k`. The entry's two vectors are the only
    /// allocations.
    ///
    /// `task_info` returns a golden task's domain vector and truth; the
    /// vector may be borrowed (`&DomainVector`) or owned. It is called twice
    /// per answer: the smoothed denominator `smoothing + Σ r_k` and the
    /// weight `Σ r_k` are summed in separate passes, each in answer order,
    /// so both keep the bits of a direct sum.
    pub fn graded_on_golden<D: Borrow<DomainVector>>(
        &self,
        golden: &[(TaskId, ChoiceIndex)],
        task_info: impl Fn(TaskId) -> (D, ChoiceIndex),
        smoothing: f64,
    ) -> WorkerStats {
        let (m, prior) = (self.m, self.prior_quality);
        // First pass: the numerator in `quality`, the denominator in
        // `weight`.
        let mut quality = vec![prior * smoothing; m];
        let mut weight = vec![smoothing; m];
        for &(tid, choice) in golden {
            let (r, truth) = task_info(tid);
            let r = r.borrow();
            let correct = if choice == truth { 1.0 } else { 0.0 };
            for k in 0..m {
                quality[k] += r[k] * correct;
                weight[k] += r[k];
            }
        }
        for k in 0..m {
            quality[k] = if weight[k] > 0.0 {
                quality[k] / weight[k]
            } else {
                prior
            };
            weight[k] = 0.0;
        }
        // Second pass: the weight.
        for &(tid, _) in golden {
            let (r, _) = task_info(tid);
            let r = r.borrow();
            for k in 0..m {
                weight[k] += r[k];
            }
        }
        WorkerStats { quality, weight }
    }

    /// Iterates over all tracked workers.
    pub fn iter(&self) -> impl Iterator<Item = (WorkerId, &WorkerStats)> {
        self.stats.iter().map(|(w, s)| (*w, s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem1_merge_is_weighted_average() {
        let mut stored = WorkerStats {
            quality: vec![0.8, 0.5],
            weight: vec![4.0, 0.0],
        };
        let batch = WorkerStats {
            quality: vec![0.6, 0.9],
            weight: vec![2.0, 3.0],
        };
        stored.merge(&batch);
        assert!((stored.quality[0] - (0.8 * 4.0 + 0.6 * 2.0) / 6.0).abs() < 1e-12);
        assert_eq!(stored.weight[0], 6.0);
        // Domain 1 had no stored weight: batch wins entirely.
        assert!((stored.quality[1] - 0.9).abs() < 1e-12);
        assert_eq!(stored.weight[1], 3.0);
    }

    #[test]
    fn merge_with_empty_batch_is_identity() {
        let mut stored = WorkerStats {
            quality: vec![0.7],
            weight: vec![5.0],
        };
        let before = stored.clone();
        stored.merge(&WorkerStats::with_prior(1, 0.5));
        assert_eq!(stored, before);
    }

    /// Theorem 1 equivalence: merging two batches equals computing the
    /// statistics over the union of answers directly.
    #[test]
    fn theorem1_merge_equals_recomputation() {
        // Simulate weighted-average quality over two answer batches.
        let r_values = [0.9, 0.3, 0.6, 0.8, 0.1];
        let s_values = [1.0, 0.0, 1.0, 1.0, 0.0];
        let split = 2;

        let batch_stats = |range: std::ops::Range<usize>| {
            let mut num = 0.0;
            let mut den = 0.0;
            for i in range {
                num += r_values[i] * s_values[i];
                den += r_values[i];
            }
            WorkerStats {
                quality: vec![if den > 0.0 { num / den } else { 0.0 }],
                weight: vec![den],
            }
        };

        let mut merged = batch_stats(0..split);
        merged.merge(&batch_stats(split..r_values.len()));
        let full = batch_stats(0..r_values.len());
        assert!((merged.quality[0] - full.quality[0]).abs() < 1e-12);
        assert!((merged.weight[0] - full.weight[0]).abs() < 1e-12);
    }

    #[test]
    fn absorb_then_revise_matches_direct() {
        let r = [(0, 1.0)];
        let mut stats = WorkerStats {
            quality: vec![0.5],
            weight: vec![2.0],
        };
        // Absorb an answer with s = 0.9 …
        stats.absorb_answer(&r, 0.9);
        assert!((stats.quality[0] - (0.5 * 2.0 + 0.9) / 3.0).abs() < 1e-12);
        // … then the truth moved: s 0.9 → 0.4.
        let q_before = stats.quality[0];
        stats.revise_answer(&r, 0.9, 0.4);
        assert!((stats.quality[0] - (q_before * 3.0 - 0.9 + 0.4) / 3.0).abs() < 1e-12);
        assert_eq!(stats.weight[0], 3.0);
    }

    #[test]
    fn registry_defaults_for_unknown_workers() {
        let reg = WorkerRegistry::new(3, 0.7);
        assert_eq!(reg.quality(WorkerId(9)), vec![0.7; 3]);
        assert!(!reg.contains(WorkerId(9)));
    }

    #[test]
    fn golden_initialization_reflects_correctness() {
        let mut reg = WorkerRegistry::new(2, 0.5);
        // Golden tasks: t0 fully domain 0 (answered correctly), t1 fully
        // domain 1 (answered wrong).
        let tasks = [
            (DomainVector::one_hot(2, 0), 0usize),
            (DomainVector::one_hot(2, 1), 1usize),
        ];
        let answers = [(TaskId(0), 0usize), (TaskId(1), 0usize)];
        reg.init_from_golden(WorkerId(0), &answers, |tid| tasks[tid.index()].clone(), 1.0);
        let s = reg.get(WorkerId(0)).unwrap();
        // Domain 0: (0.5·1 + 1·1)/(1+1) = 0.75; domain 1: (0.5·1 + 0)/(1+1) = 0.25.
        assert!((s.quality[0] - 0.75).abs() < 1e-12);
        assert!((s.quality[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn quality_vector_is_valid() {
        let stats = WorkerStats {
            quality: vec![0.0, 1.0, 0.33],
            weight: vec![1.0; 3],
        };
        let qv = stats.quality_vector();
        assert_eq!(qv.len(), 3);
    }
}
