//! Stable-point estimation and per-task answer-collection stopping — the
//! paper's stated future work for Section 6.3.
//!
//! Figure 4(c) shows accuracy rising with the number of collected answers
//! and then flattening ("for some dataset such as Item, it remains stable as
//! ≥ 8 answers are collected. We will study the estimation of stable point
//! in future."). This module supplies that study with two complementary
//! tools:
//!
//! * **Per-task stopping rules** ([`StoppingRule`], [`StoppingPolicy`]) —
//!   decide *online*, from the probabilistic truth `s_i` alone, that a task
//!   has collected enough answers. Plugged into the assigner's answer cap,
//!   this converts the paper's uniform "10 answers per task" budget into an
//!   adaptive one: confident tasks release budget that hard tasks absorb
//!   (the exact saving the paper faults iCrowd for not exploiting).
//! * **Campaign-level stable-point estimators** — detect the flattening of
//!   Figure 4(c)'s curve, either from a ground-truth accuracy curve
//!   ([`stable_point_of_curve`], evaluation-side) or online without ground
//!   truth from the rate of *truth flips* between checkpoints
//!   ([`TruthFlipTracker`]).

use crate::ti::TaskView;
use docs_types::{prob, ChoiceIndex};
use serde::{Deserialize, Serialize};

/// A per-task confidence criterion over the probabilistic truth `s_i`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum StoppingRule {
    /// Stop when the entropy `H(s_i)` drops to or below this many nats —
    /// the same ambiguity measure OTA's benefit function uses
    /// (Definition 5), so "stop" means "no assignment could reduce much
    /// ambiguity anyway".
    EntropyBelow(f64),
    /// Stop when the probability of the leading choice reaches this level.
    ConfidenceAbove(f64),
    /// Stop when the gap between the leading and runner-up choice
    /// probabilities reaches this level.
    MarginAbove(f64),
}

impl StoppingRule {
    /// Evaluates the rule against a truth distribution.
    pub fn satisfied_by(&self, s: &[f64]) -> bool {
        debug_assert!(s.len() >= 2);
        match *self {
            StoppingRule::EntropyBelow(eps) => prob::entropy(s) <= eps,
            StoppingRule::ConfidenceAbove(p) => s[prob::argmax(s)] >= p,
            StoppingRule::MarginAbove(gap) => {
                let top = prob::argmax(s);
                let runner_up = s
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != top)
                    .map(|(_, &p)| p)
                    .fold(0.0_f64, f64::max);
                s[top] - runner_up >= gap
            }
        }
    }
}

/// A stopping rule with answer-count guards: never stop before
/// `min_answers` (a lone confident expert is not enough evidence), always
/// stop at `max_answers` (the paper's hard budget, 10 on every dataset).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StoppingPolicy {
    /// The confidence criterion.
    pub rule: StoppingRule,
    /// Minimum answers before the rule may fire.
    pub min_answers: usize,
    /// Hard cap on answers per task.
    pub max_answers: usize,
}

impl StoppingPolicy {
    /// A reasonable default mirroring the paper's protocol: entropy below
    /// 0.15 nats (≈ s = [0.97, 0.03] for binary tasks), at least 3 answers,
    /// at most 10.
    ///
    /// ```
    /// use docs_core::ti::{StoppingPolicy, TaskArena};
    /// use docs_types::DomainVector;
    ///
    /// let policy = StoppingPolicy::with_defaults();
    /// let r = DomainVector::one_hot(1, 0);
    /// let mut states = TaskArena::new(1, [(&r, 2), (&r, 2)]);
    /// for _ in 0..4 {
    ///     states.apply_answer(0, &[0.9], 0); // four agreeing experts
    /// }
    /// assert!(policy.should_stop(states.view(0), 4));
    /// assert!(!policy.should_stop(states.view(1), 4)); // uncertain
    /// ```
    pub fn with_defaults() -> Self {
        StoppingPolicy {
            rule: StoppingRule::EntropyBelow(0.15),
            min_answers: 3,
            max_answers: 10,
        }
    }

    /// Should answer collection for this task stop?
    pub fn should_stop(&self, state: TaskView<'_>, answers_collected: usize) -> bool {
        assert!(
            self.min_answers <= self.max_answers,
            "min_answers must not exceed max_answers"
        );
        if answers_collected >= self.max_answers {
            return true;
        }
        if answers_collected < self.min_answers {
            return false;
        }
        self.rule.satisfied_by(state.s())
    }

    /// Counts how many answers of a uniform `max_answers`-per-task budget
    /// this policy releases for the given task states, assuming `counts[i]`
    /// answers were collected when task `i` first satisfied the policy.
    ///
    /// This is the budget-saving summary the adaptive-budget example and
    /// the `stopping` ablation bench report.
    pub fn budget_saved(&self, stopped_at: &[usize]) -> usize {
        stopped_at
            .iter()
            .map(|&c| self.max_answers.saturating_sub(c))
            .sum()
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

/// Online stable-point detection *without ground truth*: track how many
/// inferred truths flip between consecutive checkpoints; declare stability
/// after `patience` consecutive checkpoints whose flip fraction is at or
/// below `tol`.
///
/// This is usable inside a live campaign (ground-truth accuracy is not),
/// and on the simulated datasets it closely tracks the accuracy plateau —
/// see the `adaptive_stopping` example.
#[derive(Debug, Clone)]
pub struct TruthFlipTracker {
    tol: f64,
    patience: usize,
    previous: Option<Vec<ChoiceIndex>>,
    quiet_streak: usize,
    checkpoints: usize,
    /// Flip fraction observed at each checkpoint after the first.
    pub flip_history: Vec<f64>,
}

impl TruthFlipTracker {
    /// Creates a tracker; `tol` is the maximum flip fraction considered
    /// quiet and `patience` the number of consecutive quiet checkpoints
    /// required.
    pub fn new(tol: f64, patience: usize) -> Self {
        assert!((0.0..=1.0).contains(&tol), "tol must be a fraction");
        assert!(patience >= 1, "patience must be at least 1");
        TruthFlipTracker {
            tol,
            patience,
            previous: None,
            quiet_streak: 0,
            checkpoints: 0,
            flip_history: Vec::new(),
        }
    }

    /// Records a checkpoint (the current inferred truths of all tasks) and
    /// returns `true` once stability has been reached.
    ///
    /// # Panics
    /// Panics if the number of tasks changes between checkpoints.
    pub fn checkpoint(&mut self, truths: Vec<ChoiceIndex>) -> bool {
        self.checkpoints += 1;
        if let Some(prev) = &self.previous {
            assert_eq!(prev.len(), truths.len(), "task count changed");
            let flips = prev.iter().zip(&truths).filter(|(a, b)| a != b).count();
            let frac = if truths.is_empty() {
                0.0
            } else {
                flips as f64 / truths.len() as f64
            };
            self.flip_history.push(frac);
            if frac <= self.tol {
                self.quiet_streak += 1;
            } else {
                self.quiet_streak = 0;
            }
        }
        self.previous = Some(truths);
        self.is_stable()
    }

    /// True when `patience` consecutive quiet checkpoints have been seen.
    pub fn is_stable(&self) -> bool {
        self.quiet_streak >= self.patience
    }

    /// Number of checkpoints recorded so far.
    pub fn checkpoints(&self) -> usize {
        self.checkpoints
    }
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

    #[test]
    fn entropy_rule_fires_on_confident_distributions() {
        let rule = StoppingRule::EntropyBelow(0.15);
        assert!(rule.satisfied_by(&[0.98, 0.02]));
        assert!(!rule.satisfied_by(&[0.7, 0.3]));
        assert!(!rule.satisfied_by(&[0.5, 0.5]));
    }

    #[test]
    fn confidence_rule_uses_leading_choice() {
        let rule = StoppingRule::ConfidenceAbove(0.9);
        assert!(rule.satisfied_by(&[0.05, 0.92, 0.03]));
        assert!(!rule.satisfied_by(&[0.4, 0.45, 0.15]));
    }

    #[test]
    fn margin_rule_uses_runner_up_gap() {
        let rule = StoppingRule::MarginAbove(0.5);
        assert!(rule.satisfied_by(&[0.75, 0.2, 0.05]));
        // Gap 0.75 - 0.2 = 0.55 ≥ 0.5 above; here gap 0.1 fails.
        assert!(!rule.satisfied_by(&[0.5, 0.4, 0.1]));
    }

    #[test]
    fn policy_respects_min_and_max_answers() {
        let policy = StoppingPolicy {
            rule: StoppingRule::ConfidenceAbove(0.9),
            min_answers: 3,
            max_answers: 10,
        };
        let states = states_with_confidence(0.97);
        let (confident, uncertain) = (states.view(0), states.view(1));
        // Rule satisfied but min not reached.
        assert!(!policy.should_stop(confident, 2));
        assert!(policy.should_stop(confident, 3));
        // Max reached stops regardless of confidence.
        assert!(policy.should_stop(uncertain, 10));
        assert!(!policy.should_stop(uncertain, 9));
    }

    #[test]
    fn budget_saved_counts_released_answers() {
        let policy = StoppingPolicy::with_defaults();
        // Three tasks stopped at 3, 10, 7 answers under a 10-answer cap.
        assert_eq!(policy.budget_saved(&[3, 10, 7]), 10);
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

    #[test]
    fn flip_tracker_detects_quiet_streak() {
        let mut tracker = TruthFlipTracker::new(0.0, 2);
        assert!(!tracker.checkpoint(vec![0, 1, 0]));
        assert!(!tracker.checkpoint(vec![0, 1, 1])); // one flip
        assert!(!tracker.checkpoint(vec![0, 1, 1])); // quiet #1
        assert!(tracker.checkpoint(vec![0, 1, 1])); // quiet #2 → stable
        assert_eq!(tracker.flip_history, vec![1.0 / 3.0, 0.0, 0.0]);
        assert_eq!(tracker.checkpoints(), 4);
    }

    #[test]
    fn flip_tracker_resets_streak_on_flips() {
        let mut tracker = TruthFlipTracker::new(0.0, 2);
        tracker.checkpoint(vec![0, 0]);
        tracker.checkpoint(vec![0, 0]); // quiet #1
        tracker.checkpoint(vec![1, 0]); // flip resets
        tracker.checkpoint(vec![1, 0]); // quiet #1
        assert!(!tracker.is_stable());
        assert!(tracker.checkpoint(vec![1, 0])); // quiet #2
    }

    #[test]
    #[should_panic(expected = "task count changed")]
    fn flip_tracker_rejects_task_count_change() {
        let mut tracker = TruthFlipTracker::new(0.1, 1);
        tracker.checkpoint(vec![0, 1]);
        tracker.checkpoint(vec![0]);
    }
}
