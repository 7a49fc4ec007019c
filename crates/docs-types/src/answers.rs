//! Worker answers and the indexed views the algorithms need.
//!
//! Truth inference iterates over `V(i)` — the answers received for task
//! `t_i` — while worker-quality estimation iterates over `T(w)` — the tasks
//! answered by worker `w` (Section 4.1). [`AnswerLog`] maintains both views
//! incrementally so neither module re-scans the raw answer stream.

use crate::{ChoiceIndex, Error, Result, TaskId, WorkerId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One answer event: worker `w` chose choice `v^w_i` for task `t_i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Answer {
    /// Task answered.
    pub task: TaskId,
    /// Answering worker.
    pub worker: WorkerId,
    /// Chosen choice, 0-based (`0 ≤ choice < ℓ_t`).
    pub choice: ChoiceIndex,
}

impl Answer {
    /// Creates an answer event.
    pub fn new(worker: WorkerId, task: TaskId, choice: ChoiceIndex) -> Self {
        Answer {
            task,
            worker,
            choice,
        }
    }
}

/// Per-task view `V(i)`: who answered task `i` and what they chose.
pub type TaskAnswers = Vec<(WorkerId, ChoiceIndex)>;

/// Per-worker view `T(w)`: which tasks worker `w` answered and what they
/// chose.
pub type WorkerAnswers = Vec<(TaskId, ChoiceIndex)>;

/// Append-only log of answers with both per-task and per-worker indexes.
///
/// The log enforces Definition 4's "a worker can answer a task at most once"
/// rule and keeps insertion order within each view, which the incremental
/// truth-inference update relies on (it must know each co-answerer's recorded
/// choice).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AnswerLog {
    by_task: Vec<TaskAnswers>,
    by_worker: HashMap<WorkerId, WorkerAnswers>,
    len: usize,
}

impl AnswerLog {
    /// Creates a log for `n` published tasks.
    pub fn new(num_tasks: usize) -> Self {
        AnswerLog {
            by_task: vec![Vec::new(); num_tasks],
            by_worker: HashMap::new(),
            len: 0,
        }
    }

    /// Number of published tasks `n` the log covers.
    pub fn num_tasks(&self) -> usize {
        self.by_task.len()
    }

    /// Total number of recorded answers, `Σ_i |V(i)|`.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no answers have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Records an answer, rejecting unknown tasks and duplicate
    /// (task, worker) pairs.
    pub fn record(&mut self, answer: Answer) -> Result<()> {
        let idx = answer.task.index();
        if idx >= self.by_task.len() {
            return Err(Error::UnknownTask(answer.task));
        }
        if self.by_task[idx].iter().any(|(w, _)| *w == answer.worker) {
            return Err(Error::DuplicateAnswer {
                task: answer.task,
                worker: answer.worker,
            });
        }
        self.by_task[idx].push((answer.worker, answer.choice));
        self.by_worker
            .entry(answer.worker)
            .or_default()
            .push((answer.task, answer.choice));
        self.len += 1;
        Ok(())
    }

    /// `V(i)`: the answers collected for task `i`, in arrival order.
    pub fn task_answers(&self, task: TaskId) -> &TaskAnswers {
        &self.by_task[task.index()]
    }

    /// `|V(i)|` without materializing the slice.
    pub fn answer_count(&self, task: TaskId) -> usize {
        self.by_task[task.index()].len()
    }

    /// `T(w)`: the tasks answered by worker `w`, in arrival order. Workers
    /// that never answered get the empty slice.
    pub fn worker_answers(&self, worker: WorkerId) -> &[(TaskId, ChoiceIndex)] {
        self.by_worker
            .get(&worker)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// True if `worker` has already answered `task`.
    pub fn has_answered(&self, worker: WorkerId, task: TaskId) -> bool {
        self.by_task[task.index()].iter().any(|(w, _)| *w == worker)
    }

    /// All workers that appear in the log, in ascending id order.
    ///
    /// The order is load-bearing: every truth-inference method accumulates
    /// floating-point sums while iterating workers, and float addition is
    /// not associative — iterating the backing `HashMap` directly would
    /// make convergence thresholds (and through the OTA feedback loop, the
    /// assignment stream itself) differ between *processes*, breaking the
    /// byte-reproducibility the scenario harness pins.
    pub fn workers(&self) -> impl Iterator<Item = WorkerId> + '_ {
        let mut ids = Vec::new();
        self.workers_into(&mut ids);
        ids.into_iter()
    }

    /// [`AnswerLog::workers`] written into `ids` (cleared first), so a
    /// caller that asks again reuses its buffer.
    pub fn workers_into(&self, ids: &mut Vec<WorkerId>) {
        ids.clear();
        ids.extend(self.by_worker.keys().copied());
        ids.sort_unstable();
    }

    /// Iterates `(task, V(task))` over all tasks, including unanswered ones.
    pub fn iter_tasks(&self) -> impl Iterator<Item = (TaskId, &TaskAnswers)> {
        self.by_task
            .iter()
            .enumerate()
            .map(|(i, v)| (TaskId::from(i), v))
    }

    /// Flattens the log back into a stream of [`Answer`] events, grouped by
    /// task. Order within a task is arrival order.
    pub fn iter_answers(&self) -> impl Iterator<Item = Answer> + '_ {
        self.by_task.iter().enumerate().flat_map(|(i, v)| {
            v.iter().map(move |&(worker, choice)| Answer {
                task: TaskId::from(i),
                worker,
                choice,
            })
        })
    }

    /// Restricts the log to the first `cap` answers of every task — the
    /// Figure 4(c) experiment ("varying #collected answers") replays the
    /// dataset with per-task answer budgets 1..=10.
    pub fn truncated_per_task(&self, cap: usize) -> AnswerLog {
        let mut out = AnswerLog::new(self.num_tasks());
        for (task, answers) in self.iter_tasks() {
            for &(worker, choice) in answers.iter().take(cap) {
                out.record(Answer {
                    task,
                    worker,
                    choice,
                })
                .expect("truncation of a valid log stays valid");
            }
        }
        out
    }

    /// Restricts the log to the first `cap` answers of every *worker* — the
    /// Figure 4(d) experiment varies how many tasks each worker answered.
    pub fn truncated_per_worker(&self, cap: usize) -> AnswerLog {
        let mut kept: HashMap<WorkerId, usize> = HashMap::new();
        let mut out = AnswerLog::new(self.num_tasks());
        // Replay in global arrival order approximated by task order; within a
        // worker the original per-worker order is preserved.
        let mut per_worker: Vec<(WorkerId, &WorkerAnswers)> =
            self.by_worker.iter().map(|(w, v)| (*w, v)).collect();
        per_worker.sort_by_key(|(w, _)| *w);
        for (worker, answers) in per_worker {
            for &(task, choice) in answers.iter().take(cap) {
                *kept.entry(worker).or_default() += 1;
                out.record(Answer {
                    task,
                    worker,
                    choice,
                })
                .expect("truncation of a valid log stays valid");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ans(t: usize, w: usize, c: usize) -> Answer {
        Answer {
            task: TaskId::from(t),
            worker: WorkerId::from(w),
            choice: c,
        }
    }

    #[test]
    fn record_and_query_both_views() {
        let mut log = AnswerLog::new(3);
        log.record(ans(0, 0, 1)).unwrap();
        log.record(ans(0, 1, 0)).unwrap();
        log.record(ans(2, 0, 1)).unwrap();

        assert_eq!(log.len(), 3);
        assert_eq!(log.answer_count(TaskId(0)), 2);
        assert_eq!(log.answer_count(TaskId(1)), 0);
        assert_eq!(
            log.task_answers(TaskId(0)),
            &vec![(WorkerId(0), 1), (WorkerId(1), 0)]
        );
        assert_eq!(
            log.worker_answers(WorkerId(0)),
            &[(TaskId(0), 1), (TaskId(2), 1)]
        );
        assert_eq!(log.workers().count(), 2);
    }

    #[test]
    fn duplicate_answers_rejected() {
        let mut log = AnswerLog::new(1);
        log.record(ans(0, 0, 0)).unwrap();
        let err = log.record(ans(0, 0, 1)).unwrap_err();
        assert!(matches!(err, Error::DuplicateAnswer { .. }));
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn unknown_task_rejected() {
        let mut log = AnswerLog::new(1);
        assert!(matches!(
            log.record(ans(5, 0, 0)),
            Err(Error::UnknownTask(_))
        ));
    }

    #[test]
    fn has_answered_tracks_pairs() {
        let mut log = AnswerLog::new(2);
        log.record(ans(0, 3, 1)).unwrap();
        assert!(log.has_answered(WorkerId(3), TaskId(0)));
        assert!(!log.has_answered(WorkerId(3), TaskId(1)));
        assert!(!log.has_answered(WorkerId(4), TaskId(0)));
    }

    #[test]
    fn truncated_per_task_caps_answers() {
        let mut log = AnswerLog::new(1);
        for w in 0..5 {
            log.record(ans(0, w, w % 2)).unwrap();
        }
        let cut = log.truncated_per_task(3);
        assert_eq!(cut.answer_count(TaskId(0)), 3);
        // Keeps the earliest arrivals.
        assert_eq!(
            cut.task_answers(TaskId(0)),
            &vec![(WorkerId(0), 0), (WorkerId(1), 1), (WorkerId(2), 0)]
        );
    }

    #[test]
    fn truncated_per_worker_caps_worker_load() {
        let mut log = AnswerLog::new(4);
        for t in 0..4 {
            log.record(ans(t, 0, 0)).unwrap();
        }
        log.record(ans(0, 1, 1)).unwrap();
        let cut = log.truncated_per_worker(2);
        assert_eq!(cut.worker_answers(WorkerId(0)).len(), 2);
        assert_eq!(cut.worker_answers(WorkerId(1)).len(), 1);
    }

    #[test]
    fn iter_answers_roundtrips() {
        let mut log = AnswerLog::new(2);
        log.record(ans(0, 0, 1)).unwrap();
        log.record(ans(1, 2, 0)).unwrap();
        let collected: Vec<Answer> = log.iter_answers().collect();
        assert_eq!(collected.len(), 2);
        let mut log2 = AnswerLog::new(2);
        for a in collected {
            log2.record(a).unwrap();
        }
        assert_eq!(log2.len(), log.len());
    }
}
