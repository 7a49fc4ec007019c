//! Per-task adaptive stopping and the stable point of an accuracy curve —
//! the paper's stated future work for Section 6.3.
//!
//! Figure 4(c) shows accuracy rising with the number of collected answers
//! and then flattening ("for some dataset such as Item, it remains stable as
//! ≥ 8 answers are collected. We will study the estimation of stable point
//! in future."). Two pieces serve that study:
//!
//! * **Per-task stopping** ([`StoppingPolicy`]) decides online, from the
//!   entropy of the probabilistic truth `s_i` alone, that a task has
//!   collected enough answers. A campaign configured with a policy
//!   (`DocsConfig::stopping`) stops assigning a confident task and ends
//!   once every task has stopped, so confident tasks release budget that
//!   hard tasks absorb.
//! * **The stable point of a curve** ([`stable_point_of_curve`]) finds
//!   where a ground-truth accuracy curve flattens; the `figures ext`
//!   section reports it beside the adaptive policy's spend.

use crate::ti::TaskView;
use docs_types::prob;
use serde::{Deserialize, Serialize};

/// Per-task adaptive stopping: stop once the entropy `H(s_i)` drops to or
/// below `entropy_below` nats — the same ambiguity measure OTA's benefit
/// function uses (Definition 5), so "stop" means "no assignment could
/// reduce much ambiguity anyway" — with one answer-count guard: never stop
/// before `min_answers` (a lone confident expert is not enough evidence).
/// The hard cap is the caller's: in a campaign it is
/// `DocsConfig::answers_per_task` (the paper's budget, 10 on every
/// dataset), which stops assigning a task whatever the policy says.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StoppingPolicy {
    /// Entropy bound, in nats, at or below which a task stops.
    pub entropy_below: f64,
    /// Minimum answers before the entropy bound may fire.
    pub min_answers: usize,
}

impl StoppingPolicy {
    /// Should answer collection for this task stop before its cap?
    pub fn should_stop(&self, state: TaskView<'_>, answers_collected: usize) -> bool {
        if answers_collected < self.min_answers {
            return false;
        }
        self.settled(state.s())
    }

    /// Whether a truth distribution is within the entropy bound.
    fn settled(&self, s: &[f64]) -> bool {
        debug_assert!(s.len() >= 2);
        prob::entropy(s) <= self.entropy_below
    }
}

/// Estimates the stable point of an accuracy-vs-answers curve (Figure 4(c)):
/// the smallest x such that accuracy never again moves by more than `tol`
/// (absolute) from its value at x.
///
/// Returns `None` when the curve never stabilizes under that tolerance
/// (i.e. even the last point moves), or when the curve is empty.
pub fn stable_point_of_curve(curve: &[(usize, f64)], tol: f64) -> Option<usize> {
    assert!(tol >= 0.0, "tolerance must be non-negative");
    if curve.is_empty() {
        return None;
    }
    // Walk backwards keeping the max deviation from the suffix.
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    let mut stable = None;
    for &(x, acc) in curve.iter().rev() {
        lo = lo.min(acc);
        hi = hi.max(acc);
        if hi - lo <= tol && (acc - lo).abs() <= tol && (acc - hi).abs() <= tol {
            stable = Some(x);
        } else {
            break;
        }
    }
    stable
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ti::TaskArena;
    use docs_types::DomainVector;

    /// Two binary tasks fully in domain 0: the first at s = [p, 1-p], the
    /// second uniform.
    fn states_with_confidence(p: f64) -> TaskArena {
        let r = DomainVector::one_hot(1, 0);
        let mut states = TaskArena::new(1, [(&r, 2), (&r, 2)]);
        // One answer from a worker of quality p produces s = [p, 1-p].
        states.apply_answer(0, &[p], 0);
        states
    }

    /// A policy whose guard never binds, so only the entropy bound decides.
    fn bound(entropy_below: f64) -> StoppingPolicy {
        StoppingPolicy {
            entropy_below,
            min_answers: 0,
        }
    }

    #[test]
    fn entropy_bound_fires_on_confident_distributions() {
        let policy = bound(0.15);
        assert!(policy.settled(&[0.98, 0.02]));
        assert!(!policy.settled(&[0.7, 0.3]));
        assert!(!policy.settled(&[0.5, 0.5]));
        // The same bound read off a live task: one answer from a 0.98
        // worker settles it, while its unanswered neighbour stays open.
        let states = states_with_confidence(0.98);
        assert!(policy.should_stop(states.view(0), 1));
        assert!(!policy.should_stop(states.view(1), 1));
    }

    /// The bound weighs the whole distribution over three choices: a
    /// dominant leader (H ≈ 0.33) settles, a near tie (H ≈ 1.01) does not,
    /// and a wide leader-to-runner-up gap with a heavy runner-up (H ≈ 0.69)
    /// does not either.
    #[test]
    fn entropy_bound_weighs_every_choice() {
        let policy = bound(0.35);
        assert!(policy.settled(&[0.05, 0.92, 0.03]));
        assert!(!policy.settled(&[0.4, 0.45, 0.15]));
        assert!(!policy.settled(&[0.75, 0.2, 0.05]));
        assert!(!policy.settled(&[0.5, 0.4, 0.1]));
    }

    #[test]
    fn policy_respects_min_answers() {
        let policy = StoppingPolicy {
            entropy_below: 0.15,
            min_answers: 3,
        };
        // s = [0.97, 0.03]: H ≈ 0.135, within the bound.
        let states = states_with_confidence(0.97);
        let (confident, uncertain) = (states.view(0), states.view(1));
        // Bound satisfied but min not reached.
        assert!(!policy.should_stop(confident, 2));
        assert!(policy.should_stop(confident, 3));
        // No count alone stops an uncertain task: the cap is the caller's.
        assert!(!policy.should_stop(uncertain, 10));
        assert!(!policy.should_stop(uncertain, usize::MAX));
    }

    #[test]
    fn stable_point_finds_the_plateau() {
        // Figure 4(c)-shaped curve: rises then flat from x = 8.
        let curve = [
            (1, 0.60),
            (2, 0.68),
            (4, 0.75),
            (6, 0.81),
            (8, 0.825),
            (9, 0.832),
            (10, 0.831),
        ];
        assert_eq!(stable_point_of_curve(&curve, 0.01), Some(8));
        // Tighter tolerance pushes the stable point later.
        assert_eq!(stable_point_of_curve(&curve, 0.002), Some(9));
        // Impossible tolerance: only the last point qualifies.
        assert_eq!(stable_point_of_curve(&curve, 0.0), Some(10));
    }

    #[test]
    fn stable_point_of_empty_curve_is_none() {
        assert_eq!(stable_point_of_curve(&[], 0.1), None);
    }

    #[test]
    fn stable_point_of_monotone_rising_curve_is_last_point() {
        let curve = [(1, 0.5), (2, 0.6), (3, 0.7)];
        assert_eq!(stable_point_of_curve(&curve, 0.05), Some(3));
    }
}
