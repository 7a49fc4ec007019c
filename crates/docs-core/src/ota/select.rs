//! Top-`k` selection of `(benefit, task)` pairs.
//!
//! The paper selects the top `k` benefits with a linear-time selection
//! algorithm (the PICK algorithm of Blum et al. [7]); we use the standard
//! library's introselect (`select_nth_unstable_by`), which has the same
//! expected-linear behaviour. The full-sort variant [`top_k_by_sort`] is the
//! baseline the `ablation_topk` bench calls directly, and what
//! `AssignerConfig::linear_select = false` selects (set only by a unit
//! test).
//!
//! For the sharded benefit scan, [`merge_top_k`] combines per-shard top-`k`
//! lists into the global top-`k` with a `k`-way merge: since every shard
//! contributes its own best `k` candidates, the union provably contains the
//! global winners, and the merge reproduces the single-scan selection
//! bit-for-bit (same ordering, same tie-breaks).

use docs_types::{Error, Result, TaskId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

fn by_benefit_desc(a: &(f64, TaskId), b: &(f64, TaskId)) -> Ordering {
    // Benefits are finite by construction; tie-break on TaskId for
    // determinism across selection strategies.
    b.0.partial_cmp(&a.0)
        .expect("benefits are finite")
        .then_with(|| a.1.cmp(&b.1))
}

/// Selects the `k` highest-benefit tasks in expected O(n) time, returned in
/// descending benefit order (ties broken toward lower task ids).
pub fn top_k_linear(candidates: Vec<(f64, TaskId)>, k: usize) -> Vec<TaskId> {
    top_k_linear_pairs(candidates, k)
        .into_iter()
        .map(|(_, t)| t)
        .collect()
}

/// [`top_k_linear`] keeping the benefits — the per-shard building block of
/// the sharded scan, whose lists feed [`merge_top_k`].
pub fn top_k_linear_pairs(mut candidates: Vec<(f64, TaskId)>, k: usize) -> Vec<(f64, TaskId)> {
    if candidates.is_empty() || k == 0 {
        return Vec::new();
    }
    if candidates.len() > k {
        candidates.select_nth_unstable_by(k - 1, by_benefit_desc);
        candidates.truncate(k);
    }
    candidates.sort_unstable_by(by_benefit_desc);
    candidates
}

/// Full-sort top-`k` — O(n log n), the ablation baseline.
pub fn top_k_by_sort(mut candidates: Vec<(f64, TaskId)>, k: usize) -> Vec<TaskId> {
    candidates.sort_unstable_by(by_benefit_desc);
    candidates.truncate(k);
    candidates.into_iter().map(|(_, t)| t).collect()
}

/// Heap entry for the k-way merge: max-heap on benefit, ties toward the
/// lower task id (mirroring [`by_benefit_desc`]).
struct MergeHead {
    benefit: f64,
    task: TaskId,
    shard: usize,
    pos: usize,
}

impl PartialEq for MergeHead {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for MergeHead {}

impl PartialOrd for MergeHead {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for MergeHead {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap pops the maximum, so "greater" must mean "selected
        // first": higher benefit, then lower task id.
        by_benefit_desc(&(other.benefit, other.task), &(self.benefit, self.task))
    }
}

/// [`merge_top_k`] with its documented precondition *enforced* instead of
/// assumed: `shard_candidates[s]` is the number of candidates shard `s` had
/// available, so its list must contribute `min(k, shard_candidates[s])`
/// entries, sorted by descending benefit with ties toward lower task ids.
///
/// An under-filled list would make the merge silently diverge from the flat
/// scan (a shard's missing candidate can be a global winner); this variant
/// turns that silent divergence into a loud [`Error::Storage`].
pub fn merge_top_k_checked(
    per_shard: &[Vec<(f64, TaskId)>],
    shard_candidates: &[usize],
    k: usize,
) -> Result<Vec<TaskId>> {
    if per_shard.len() != shard_candidates.len() {
        return Err(Error::Storage(format!(
            "merge_top_k: {} shard lists but {} candidate counts",
            per_shard.len(),
            shard_candidates.len()
        )));
    }
    for (shard, (list, &available)) in per_shard.iter().zip(shard_candidates).enumerate() {
        let required = k.min(available);
        if list.len() < required {
            return Err(Error::Storage(format!(
                "merge_top_k precondition violated: shard {shard} contributed {} of \
                 min(k = {k}, {available} available) = {required} candidates — the \
                 merged top-{k} would silently diverge from the flat scan",
                list.len()
            )));
        }
        if !list
            .windows(2)
            .all(|w| by_benefit_desc(&w[0], &w[1]) != Ordering::Greater)
        {
            return Err(Error::Storage(format!(
                "merge_top_k precondition violated: shard {shard}'s list is not sorted \
                 by descending benefit with ties toward lower task ids"
            )));
        }
    }
    Ok(merge_top_k(per_shard, k))
}

/// Merges per-shard descending top-`k` lists into the global top-`k`.
///
/// Each `per_shard[s]` must be sorted by descending benefit with ties broken
/// toward lower task ids — exactly what [`top_k_linear`] and
/// [`top_k_by_sort`] return. The output equals
/// `top_k_linear(concat(per_shard), k)` as long as every shard contributed
/// at least `min(k, shard_len)` candidates, at O(k log S) merge cost.
pub fn merge_top_k(per_shard: &[Vec<(f64, TaskId)>], k: usize) -> Vec<TaskId> {
    if k == 0 {
        return Vec::new();
    }
    debug_assert!(per_shard.iter().all(|list| {
        list.windows(2)
            .all(|w| by_benefit_desc(&w[0], &w[1]) != Ordering::Greater)
    }));
    let mut heap: BinaryHeap<MergeHead> = per_shard
        .iter()
        .enumerate()
        .filter_map(|(shard, list)| {
            list.first().map(|&(benefit, task)| MergeHead {
                benefit,
                task,
                shard,
                pos: 0,
            })
        })
        .collect();
    let mut out = Vec::with_capacity(k.min(per_shard.iter().map(Vec::len).sum()));
    while out.len() < k {
        let Some(head) = heap.pop() else { break };
        out.push(head.task);
        if let Some(&(benefit, task)) = per_shard[head.shard].get(head.pos + 1) {
            heap.push(MergeHead {
                benefit,
                task,
                shard: head.shard,
                pos: head.pos + 1,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(pairs: &[(f64, u32)]) -> Vec<(f64, TaskId)> {
        pairs.iter().map(|&(b, t)| (b, TaskId(t))).collect()
    }

    #[test]
    fn selects_highest_benefits() {
        let c = cand(&[(0.1, 0), (0.9, 1), (0.5, 2), (0.7, 3)]);
        assert_eq!(top_k_linear(c, 2), vec![TaskId(1), TaskId(3)]);
    }

    #[test]
    fn k_larger_than_n_returns_all_sorted() {
        let c = cand(&[(0.2, 0), (0.8, 1)]);
        assert_eq!(top_k_linear(c, 10), vec![TaskId(1), TaskId(0)]);
    }

    #[test]
    fn empty_and_zero_k() {
        assert!(top_k_linear(vec![], 3).is_empty());
        assert!(top_k_linear(cand(&[(1.0, 0)]), 0).is_empty());
    }

    #[test]
    fn ties_break_by_task_id() {
        let c = cand(&[(0.5, 3), (0.5, 1), (0.5, 2)]);
        assert_eq!(top_k_linear(c, 2), vec![TaskId(1), TaskId(2)]);
    }

    #[test]
    fn merge_top_k_equals_global_selection() {
        // Deterministic pseudo-random benefits partitioned across 4 shards
        // by task-id hash; the merged per-shard top-k must equal the
        // single-scan top-k over the union, for every k.
        let mut x: u64 = 0xABCDE;
        let mut all = Vec::new();
        for t in 0..200u32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let b = (x >> 11) as f64 / (1u64 << 53) as f64;
            all.push((b, TaskId(t)));
        }
        for k in [1, 3, 17, 199, 250] {
            let mut shards: Vec<Vec<(f64, TaskId)>> = vec![Vec::new(); 4];
            for &(b, t) in &all {
                shards[(t.0 as usize * 2654435761) % 4].push((b, t));
            }
            let per_shard: Vec<Vec<(f64, TaskId)>> = shards
                .into_iter()
                .map(|list| {
                    let ids = top_k_linear(list.clone(), k);
                    // Rebuild (benefit, id) pairs in selection order.
                    ids.iter()
                        .map(|id| *list.iter().find(|(_, t)| t == id).unwrap())
                        .collect()
                })
                .collect();
            assert_eq!(
                merge_top_k(&per_shard, k),
                top_k_linear(all.clone(), k),
                "k = {k}"
            );
        }
    }

    #[test]
    fn merge_top_k_handles_ties_empty_shards_and_zero_k() {
        let shards = vec![
            cand(&[(0.5, 3), (0.5, 7)]),
            vec![],
            cand(&[(0.5, 1), (0.2, 2)]),
        ];
        assert_eq!(
            merge_top_k(&shards, 3),
            vec![TaskId(1), TaskId(3), TaskId(7)]
        );
        assert!(merge_top_k(&shards, 0).is_empty());
        assert!(merge_top_k(&[], 5).is_empty());
        // Asking for more than exists returns everything in order.
        assert_eq!(merge_top_k(&shards, 10).len(), 4);
    }

    #[test]
    fn checked_merge_rejects_under_filled_and_unsorted_shard_lists() {
        let shards = vec![cand(&[(0.9, 0), (0.4, 2)]), cand(&[(0.8, 1)])];
        // Well-formed: shard 0 had 3 candidates but k = 2 only requires 2;
        // shard 1 had exactly 1.
        let ok = merge_top_k_checked(&shards, &[3, 1], 2).unwrap();
        assert_eq!(ok, merge_top_k(&shards, 2));
        assert_eq!(ok, vec![TaskId(0), TaskId(1)]);
        // Under-filled: shard 1 had 4 candidates available but contributed
        // only 1 of the min(k, 4) = 2 required — its second-best candidate
        // could have been a global winner.
        let err = merge_top_k_checked(&shards, &[3, 4], 2).unwrap_err();
        assert!(err.to_string().contains("precondition"), "{err}");
        // Count/list arity mismatch.
        assert!(merge_top_k_checked(&shards, &[3], 2).is_err());
        // Unsorted shard list.
        let unsorted = vec![cand(&[(0.1, 0), (0.9, 1)])];
        let err = merge_top_k_checked(&unsorted, &[2], 2).unwrap_err();
        assert!(err.to_string().contains("sorted"), "{err}");
    }

    #[test]
    fn linear_matches_sort_on_random_input() {
        // Deterministic pseudo-random benefits.
        let mut x: u64 = 0x12345;
        let mut c = Vec::new();
        for t in 0..200u32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let b = (x >> 11) as f64 / (1u64 << 53) as f64;
            c.push((b, TaskId(t)));
        }
        for k in [1, 5, 50, 199, 200] {
            assert_eq!(
                top_k_linear(c.clone(), k),
                top_k_by_sort(c.clone(), k),
                "k = {k}"
            );
        }
    }
}
