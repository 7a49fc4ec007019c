//! Quality scoring: the numbers `BENCH_quality.json` merges.
//!
//! Everything here is computed from the run's *client-side* artifacts —
//! the mirrored answer log, the golden records, and the service's final
//! report — so the scorer cannot accidentally depend on engine internals
//! that a refactor might move.

use crate::run::ScenarioOutcome;
use docs_baselines::ti::{MajorityVote, TruthMethod};
use docs_crowd::try_accuracy_of;
use std::collections::HashMap;

/// The quality card of one scenario run.
#[derive(Debug, Clone)]
pub struct QualityReport {
    /// Scenario name (metric-key prefix).
    pub scenario: String,
    /// DOCS accuracy against ground truth.
    pub docs_accuracy: f64,
    /// Majority vote over the same mirrored answers.
    pub majority_accuracy: f64,
    /// `docs_accuracy − majority_accuracy`: the paper's core claim, as a
    /// gateable number.
    pub accuracy_delta_vs_majority: f64,
    /// Mean over workers of |golden-task accuracy − ordinary accuracy| —
    /// how much the golden gate's first impression lies about real
    /// behavior. Sleeper spammers are built to maximize it.
    pub golden_calibration_err: f64,
    /// Ordinary answers spent per correctly inferred label.
    pub budget_per_correct: f64,
    /// Ordinary answers the service accepted.
    pub answers_collected: usize,
    /// Drive throughput over the full request path.
    pub answers_per_s: f64,
}

/// Scores a finished run.
pub fn score(outcome: &ScenarioOutcome) -> QualityReport {
    let tasks = &outcome.tasks;
    let docs_accuracy =
        try_accuracy_of(&outcome.report.truths, tasks).expect("datasets carry ground truth");
    let majority_truths = MajorityVote.infer(tasks, &outcome.mirror.log);
    let majority_accuracy =
        try_accuracy_of(&majority_truths, tasks).expect("datasets carry ground truth");

    // Golden calibration: per worker, golden accuracy vs ordinary
    // accuracy, both against ground truth, workers with signal on both
    // sides only (≥1 golden and ≥4 ordinary answers).
    let mut golden_stats: HashMap<docs_types::WorkerId, (usize, usize)> = HashMap::new();
    for &(w, t, c) in &outcome.mirror.golden {
        let e = golden_stats.entry(w).or_insert((0, 0));
        e.1 += 1;
        if tasks[t.index()].ground_truth == Some(c) {
            e.0 += 1;
        }
    }
    let mut normal_stats: HashMap<docs_types::WorkerId, (usize, usize)> = HashMap::new();
    for a in &outcome.mirror.flat {
        let e = normal_stats.entry(a.worker).or_insert((0, 0));
        e.1 += 1;
        if tasks[a.task.index()].ground_truth == Some(a.choice) {
            e.0 += 1;
        }
    }
    let mut err_sum = 0.0;
    let mut err_n = 0usize;
    // Sorted worker order: this is a float accumulation, and the metric
    // must be byte-stable run to run (the gate treats any change as real).
    let mut calibrated: Vec<_> = golden_stats.iter().collect();
    calibrated.sort_unstable_by_key(|(w, _)| **w);
    for (w, &(g_ok, g_all)) in calibrated {
        if let Some(&(n_ok, n_all)) = normal_stats.get(w) {
            if g_all >= 1 && n_all >= 4 {
                let g_acc = g_ok as f64 / g_all as f64;
                let n_acc = n_ok as f64 / n_all as f64;
                err_sum += (g_acc - n_acc).abs();
                err_n += 1;
            }
        }
    }
    let golden_calibration_err = if err_n == 0 {
        0.0
    } else {
        err_sum / err_n as f64
    };

    let graded = tasks.iter().filter(|t| t.ground_truth.is_some()).count();
    let correct_labels = (docs_accuracy * graded as f64).round().max(1.0);
    let budget_per_correct = outcome.mirror.answers_collected as f64 / correct_labels;
    let secs = outcome.wall.as_secs_f64().max(1e-9);

    QualityReport {
        scenario: outcome.spec.name.clone(),
        docs_accuracy,
        majority_accuracy,
        accuracy_delta_vs_majority: docs_accuracy - majority_accuracy,
        golden_calibration_err,
        budget_per_correct,
        answers_collected: outcome.mirror.answers_collected,
        answers_per_s: outcome.mirror.answers_collected as f64 / secs,
    }
}

/// The `BENCH_quality.json` metrics a report contributes. `throughput`
/// additionally emits `answers_per_s` (benches want it; smoke runs and
/// tests skip it to keep gates timing-free).
pub fn bench_metrics(q: &QualityReport, throughput: bool) -> Vec<(String, f64)> {
    let mut out = vec![
        (format!("{}_accuracy", q.scenario), q.docs_accuracy),
        (
            format!("{}_accuracy_delta_vs_majority", q.scenario),
            q.accuracy_delta_vs_majority,
        ),
        (
            format!("{}_golden_calibration_err", q.scenario),
            q.golden_calibration_err,
        ),
        (
            format!("{}_budget_per_correct", q.scenario),
            q.budget_per_correct,
        ),
    ];
    if throughput {
        out.push((format!("{}_answers_per_s", q.scenario), q.answers_per_s));
    }
    out
}

/// Renders the human-readable quality table (examples and bench logs).
pub fn render_table(reports: &[QualityReport]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<24} {:>8} {:>8} {:>8} {:>8} {:>10}\n",
        "scenario", "docs", "majority", "delta", "calib", "ans/label"
    ));
    for q in reports {
        out.push_str(&format!(
            "{:<24} {:>8.4} {:>8.4} {:>+8.4} {:>8.4} {:>10.2}\n",
            q.scenario,
            q.docs_accuracy,
            q.majority_accuracy,
            q.accuracy_delta_vs_majority,
            q.golden_calibration_err,
            q.budget_per_correct,
        ));
    }
    out
}
