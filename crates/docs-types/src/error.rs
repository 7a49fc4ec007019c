//! Error type shared by the workspace.

use std::fmt;

/// Convenient result alias used across the DOCS crates.
pub type Result<T, E = Error> = std::result::Result<T, E>;

/// Errors produced by the DOCS data model and algorithms.
///
/// The variants are deliberately coarse: each names the invariant that was
/// violated rather than the call site, so they stay meaningful when bubbled
/// across crates.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A vector that must be a probability distribution is not (wrong length,
    /// negative entries, or does not sum to 1 within tolerance).
    NotADistribution {
        /// What the vector was supposed to represent.
        what: &'static str,
        /// Actual sum observed.
        sum: f64,
    },
    /// A per-domain vector has the wrong number of entries.
    DimensionMismatch {
        /// What was being checked.
        what: &'static str,
        /// Expected length (usually `m`, the number of domains).
        expected: usize,
        /// Observed length.
        got: usize,
    },
    /// A quality value fell outside `[0, 1]`.
    QualityOutOfRange(f64),
    /// A choice index `>= ℓ_t` was used for a task.
    ChoiceOutOfRange {
        /// Offending choice.
        choice: usize,
        /// Number of choices of the task.
        num_choices: usize,
    },
    /// The same worker answered the same task twice (forbidden by
    /// Definition 4: "a worker can answer a task at most once").
    DuplicateAnswer {
        /// Task that was answered twice.
        task: crate::TaskId,
        /// Worker who answered twice.
        worker: crate::WorkerId,
    },
    /// A referenced task id is outside the published task set.
    UnknownTask(crate::TaskId),
    /// A golden submission targeted a task outside the golden set — only
    /// manually labeled golden tasks can grade a new worker (Section 5.2).
    GoldenRequired(crate::TaskId),
    /// A task was built with fewer than two choices.
    TooFewChoices(usize),
    /// An empty structure was supplied where at least one element is needed.
    Empty(&'static str),
    /// Storage-layer failure (wrapped as text to keep this crate I/O free).
    Storage(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::NotADistribution { what, sum } => {
                write!(f, "{what} is not a probability distribution (sum = {sum})")
            }
            Error::DimensionMismatch {
                what,
                expected,
                got,
            } => write!(f, "{what}: expected {expected} entries, got {got}"),
            Error::QualityOutOfRange(q) => write!(f, "quality {q} outside [0, 1]"),
            Error::ChoiceOutOfRange {
                choice,
                num_choices,
            } => write!(
                f,
                "choice {choice} out of range for task with {num_choices} choices"
            ),
            Error::DuplicateAnswer { task, worker } => {
                write!(f, "worker {worker} already answered task {task}")
            }
            Error::UnknownTask(t) => write!(f, "unknown task {t}"),
            Error::GoldenRequired(t) => {
                write!(
                    f,
                    "task {t} is not a golden task (no manual label to grade against)"
                )
            }
            Error::TooFewChoices(l) => {
                write!(f, "tasks need at least 2 choices, got {l}")
            }
            Error::Empty(what) => write!(f, "{what} must not be empty"),
            Error::Storage(msg) => write!(f, "storage error: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TaskId, WorkerId};

    #[test]
    fn display_is_informative() {
        let e = Error::DuplicateAnswer {
            task: TaskId(3),
            worker: WorkerId(1),
        };
        assert_eq!(e.to_string(), "worker w1 already answered task t3");

        let e = Error::NotADistribution {
            what: "domain vector",
            sum: 0.5,
        };
        assert!(e.to_string().contains("domain vector"));
        assert!(e.to_string().contains("0.5"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }
}
