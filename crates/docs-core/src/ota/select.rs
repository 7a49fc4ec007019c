//! Top-`k` selection of `(benefit, task)` pairs.
//!
//! The benefit scan keeps each shard's running top-`k` in a `k`-slot
//! buffer ([`offer`]) instead of a slot per candidate, then runs
//! [`cut_to_top_k`] once over the shards' survivors. Since every shard
//! keeps its own best `k`, the survivors provably contain the global
//! winners, and because the order is total (task ids are distinct) the cut
//! reproduces a single top-`k` over every candidate bit-for-bit (same
//! ordering, same tie-breaks); [`check_shard_top_k`] enforces the
//! per-shard half of that argument.
//!
//! [`top_k_linear`] (the paper's linear-time selection, here the standard
//! library's introselect) and the full-sort [`top_k_by_sort`] select over
//! a whole candidate list: the tests' textbook top-`k` and the baselines
//! the `ablation_topk` bench calls directly.

use docs_types::{Error, Result, TaskId};
use std::cmp::Ordering;

fn by_benefit_desc(a: &(f64, TaskId), b: &(f64, TaskId)) -> Ordering {
    // Benefits are finite by construction; tie-break on TaskId for
    // determinism across selection strategies.
    b.0.partial_cmp(&a.0)
        .expect("benefits are finite")
        .then_with(|| a.1.cmp(&b.1))
}

/// Selects the `k` highest-benefit tasks in expected O(n) time, returned in
/// descending benefit order (ties broken toward lower task ids).
pub fn top_k_linear(mut candidates: Vec<(f64, TaskId)>, k: usize) -> Vec<TaskId> {
    let kept = cut_to_top_k(&mut candidates, k);
    candidates[..kept].iter().map(|&(_, t)| t).collect()
}

/// Moves the `min(k, len)` highest-benefit candidates to the front of
/// `candidates`, sorted by descending benefit with ties toward lower task
/// ids, and returns how many that is. Expected O(n); allocates nothing.
pub(crate) fn cut_to_top_k(candidates: &mut [(f64, TaskId)], k: usize) -> usize {
    let kept = k.min(candidates.len());
    if kept == 0 {
        return 0;
    }
    if candidates.len() > kept {
        candidates.select_nth_unstable_by(kept - 1, by_benefit_desc);
    }
    candidates[..kept].sort_unstable_by(by_benefit_desc);
    kept
}

/// Offers a candidate to a running top-`k`: `top[..*len]` holds the best
/// candidates offered so far, sorted by descending benefit with ties toward
/// lower task ids, and `top.len()` is `k`. The candidate is inserted in its
/// place, pushing out the last one when the buffer is full, or dropped if
/// it ranks after all `k`. Allocates nothing.
#[inline]
pub(crate) fn offer(top: &mut [(f64, TaskId)], len: &mut usize, candidate: (f64, TaskId)) {
    let mut at = if *len < top.len() {
        *len += 1;
        *len - 1
    } else if by_benefit_desc(&candidate, &top[top.len() - 1]) == Ordering::Less {
        top.len() - 1
    } else {
        return;
    };
    while at > 0 && by_benefit_desc(&candidate, &top[at - 1]) == Ordering::Less {
        top[at] = top[at - 1];
        at -= 1;
    }
    top[at] = candidate;
}

/// Full-sort top-`k` — O(n log n), the ablation baseline.
pub fn top_k_by_sort(mut candidates: Vec<(f64, TaskId)>, k: usize) -> Vec<TaskId> {
    candidates.sort_unstable_by(by_benefit_desc);
    candidates.truncate(k);
    candidates.into_iter().map(|(_, t)| t).collect()
}

/// One shard's list against the survivors argument's precondition, enforced
/// instead of assumed: `available` candidates must contribute
/// `min(k, available)` entries, sorted by descending benefit with ties
/// toward lower task ids. An under-filled list would make the selection
/// silently diverge from the flat scan (a shard's missing candidate can be
/// a global winner); this turns that into a loud [`Error::Storage`].
pub(crate) fn check_shard_top_k(
    shard: usize,
    list: &[(f64, TaskId)],
    available: usize,
    k: usize,
) -> Result<()> {
    let required = k.min(available);
    if list.len() < required {
        return Err(Error::Storage(format!(
            "per-shard top-k precondition violated: shard {shard} contributed {} of \
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
            "per-shard top-k precondition violated: shard {shard}'s list is not sorted \
             by descending benefit with ties toward lower task ids"
        )));
    }
    Ok(())
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

    /// The sharded scan's route: each shard's list cut to its own top-`k`
    /// in place, then one more cut over the survivors.
    fn top_k_of_survivors(shards: &[Vec<(f64, TaskId)>], k: usize) -> Vec<TaskId> {
        let mut survivors = Vec::new();
        for list in shards {
            let mut list = list.clone();
            let kept = cut_to_top_k(&mut list, k);
            survivors.extend_from_slice(&list[..kept]);
        }
        top_k_linear(survivors, k)
    }

    #[test]
    fn top_k_of_shard_survivors_equals_global_selection() {
        // Deterministic pseudo-random benefits partitioned across 4 shards
        // by task-id hash; the top-k of the per-shard survivors must equal
        // the single-scan top-k over the union, for every k.
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
            assert_eq!(
                top_k_of_survivors(&shards, k),
                top_k_linear(all.clone(), k),
                "k = {k}"
            );
        }
    }

    #[test]
    fn survivors_handle_ties_empty_shards_and_zero_k() {
        let shards = vec![
            cand(&[(0.5, 3), (0.5, 7)]),
            vec![],
            cand(&[(0.5, 1), (0.2, 2)]),
        ];
        assert_eq!(
            top_k_of_survivors(&shards, 3),
            vec![TaskId(1), TaskId(3), TaskId(7)]
        );
        assert!(top_k_of_survivors(&shards, 0).is_empty());
        assert!(top_k_of_survivors(&[], 5).is_empty());
        // Asking for more than exists returns everything in order.
        assert_eq!(top_k_of_survivors(&shards, 10).len(), 4);
    }

    #[test]
    fn shard_lists_are_checked_for_fill_and_order() {
        let shards = vec![cand(&[(0.9, 0), (0.4, 2)]), cand(&[(0.8, 1)])];
        // Well-formed: shard 0 had 3 candidates but k = 2 only requires 2;
        // shard 1 had exactly 1.
        assert!(check_shard_top_k(0, &shards[0], 3, 2).is_ok());
        assert!(check_shard_top_k(1, &shards[1], 1, 2).is_ok());
        assert_eq!(top_k_of_survivors(&shards, 2), vec![TaskId(0), TaskId(1)]);
        // Under-filled: shard 1 had 4 candidates available but contributed
        // only 1 of the min(k, 4) = 2 required — its second-best candidate
        // could have been a global winner.
        let err = check_shard_top_k(1, &shards[1], 4, 2).unwrap_err();
        assert!(err.to_string().contains("precondition"), "{err}");
        // Unsorted shard list.
        let unsorted = cand(&[(0.1, 0), (0.9, 1)]);
        let err = check_shard_top_k(0, &unsorted, 2, 2).unwrap_err();
        assert!(err.to_string().contains("sorted"), "{err}");
    }

    #[test]
    fn a_running_top_k_equals_the_selection_over_every_offer() {
        let mut x: u64 = 0x5EED;
        let mut all = Vec::new();
        for t in 0..300u32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Few distinct benefits, so ties are common.
            all.push(((x >> 60) as f64 / 16.0, TaskId(t)));
        }
        for k in [1, 2, 7, 299, 300, 400] {
            let mut top = vec![(0.0, TaskId(0)); k];
            let mut len = 0;
            for &candidate in &all {
                offer(&mut top, &mut len, candidate);
            }
            let running: Vec<TaskId> = top[..len].iter().map(|&(_, t)| t).collect();
            assert_eq!(running, top_k_linear(all.clone(), k), "k = {k}");
        }
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
