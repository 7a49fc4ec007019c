//! The extension experiment beyond the paper's evaluation: adaptive
//! stopping against the uniform 10-answers-per-task cap.

use docs_core::ti::{IncrementalTi, StoppingPolicy, WorkerRegistry};
use docs_crowd::{accuracy_of, AnswerModel, PopulationConfig, WorkerPopulation};
use docs_datasets::Dataset;
use docs_types::{Answer, TaskId, WorkerId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Outcome of the adaptive-stopping campaign comparison.
#[derive(Debug, Clone)]
pub struct AdaptiveStoppingRow {
    /// Dataset name.
    pub dataset: &'static str,
    /// Answers and accuracy under the uniform cap.
    pub uniform_answers: usize,
    /// Accuracy under the uniform cap.
    pub uniform_accuracy: f64,
    /// Answers and accuracy under the stopping policy.
    pub adaptive_answers: usize,
    /// Accuracy under the stopping policy.
    pub adaptive_accuracy: f64,
    /// Offline stable point of the adaptive accuracy curve (1pp tolerance).
    pub stable_point: Option<usize>,
}

/// Runs the uniform-vs-adaptive collection comparison on one dataset
/// (round-based collection, same crowd and seed for both arms).
pub fn adaptive_stopping(mut dataset: Dataset, seed: u64) -> AdaptiveStoppingRow {
    dataset.run_dve_default();
    let m = dataset.domain_set.len();
    let n = dataset.len();
    let pop = WorkerPopulation::generate(&PopulationConfig {
        m,
        size: 50,
        seed,
        ..Default::default()
    });
    // The paper's flat budget caps both arms.
    let max_answers = 10;
    let policy = StoppingPolicy {
        entropy_below: 0.06,
        min_answers: 5,
    };

    let mut curve = Vec::new();
    let run = |adaptive: bool, curve: Option<&mut Vec<(usize, f64)>>| {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5AFE);
        let mut engine =
            IncrementalTi::new(dataset.tasks.clone(), WorkerRegistry::new(m, 0.7), 200);
        let mut curve_out = Vec::new();
        for round in 1..=max_answers {
            for i in 0..n {
                let tid = TaskId::from(i);
                let count = engine.log().answer_count(tid);
                let stop = count >= max_answers
                    || (adaptive && policy.should_stop(engine.state(tid), count));
                if stop {
                    continue;
                }
                let w = loop {
                    let w = WorkerId::from(rng.gen_range(0..pop.len()));
                    if !engine.log().has_answered(w, tid) {
                        break w;
                    }
                };
                let choice =
                    pop.worker(w)
                        .answer(&dataset.tasks[i], AnswerModel::DomainUniform, &mut rng);
                engine.submit(Answer::new(w, tid, choice)).unwrap();
            }
            engine.run_full();
            curve_out.push((round, accuracy_of(&engine.truths(), &dataset.tasks)));
        }
        if let Some(c) = curve {
            *c = curve_out.clone();
        }
        (engine.log().len(), curve_out.last().expect("rounds ran").1)
    };

    let (uniform_answers, uniform_accuracy) = run(false, None);
    let (adaptive_answers, adaptive_accuracy) = run(true, Some(&mut curve));
    AdaptiveStoppingRow {
        dataset: dataset.name,
        uniform_answers,
        uniform_accuracy,
        adaptive_answers,
        adaptive_accuracy,
        stable_point: docs_core::ti::stable_point_of_curve(&curve, 0.01),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_stopping_spends_less() {
        let row = adaptive_stopping(docs_datasets::item(), 0xADA);
        assert!(row.adaptive_answers < row.uniform_answers);
        assert!(row.adaptive_accuracy > row.uniform_accuracy - 0.12);
        assert_eq!(row.uniform_answers, 3600); // 360 tasks × 10 answers
    }
}
