//! The wire-level rejection taxonomy of the service API.
//!
//! The sharded service used to collapse every refusal into an opaque
//! `Rejected(String)` — clients could print the failure but never branch on
//! it. [`RejectReason`] replaces that: one matchable variant per way the
//! system can say "no", carried from docs-system validation through the
//! wire envelope to the client's completion handle. The [`Display`]
//! rendering of each variant reproduces the exact message text the string
//! era emitted, so log scrapers and tests keyed on those messages keep
//! working.
//!
//! [`Display`]: std::fmt::Display

use crate::{CampaignId, Error, NodeId, TaskId, WorkerId};
use std::fmt;

/// Why the service refused a request, as a matchable value.
///
/// Produced on the owning shard (validation happens against the campaign's
/// live state) and carried verbatim in the completion envelope; the
/// service's `ServiceError::Rejected` wraps it on the client side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// The addressed campaign is not registered on its owning shard.
    UnknownCampaign(CampaignId),
    /// The same worker already answered the same task (Definition 4:
    /// "a worker can answer a task at most once").
    DuplicateAnswer {
        /// Worker who answered twice.
        worker: WorkerId,
        /// Task that was answered twice.
        task: TaskId,
    },
    /// A referenced task id is outside the campaign's published task set.
    UnknownTask(TaskId),
    /// A choice index `>= ℓ_t` was used for a task.
    ChoiceOutOfRange {
        /// Offending choice.
        choice: usize,
        /// Number of choices of the task.
        num_choices: usize,
    },
    /// A golden submission targeted a task outside the golden set — only
    /// manually labeled golden tasks can grade a new worker.
    GoldenRequired(TaskId),
    /// The campaign's collection budget is consumed and the campaign runs
    /// with strict admission (late answers refused, not absorbed).
    BudgetExhausted,
    /// A campaign's config names a flush policy but the service was
    /// spawned without a durability directory; its owning shard refused it.
    DurabilityUnavailable {
        /// Campaign that asked for durability.
        campaign: CampaignId,
    },
    /// `DocsService::recover` was called on a configuration without a
    /// durability directory — there is nothing to recover from.
    RecoverWithoutDurability,
    /// The request mutates campaign state but the service is running as a
    /// read-only follower replica: writes must go to the primary (or wait
    /// for this follower to be promoted).
    ReadOnlyReplica {
        /// The campaign the refused mutation addressed.
        campaign: CampaignId,
    },
    /// A replication-plane request (snapshot install, replicated apply)
    /// reached a service that is not a follower — only the promotion-free
    /// applier path may feed a replica, and a primary has no applier.
    NotAFollower {
        /// The campaign the refused replication request addressed.
        campaign: CampaignId,
    },
    /// The addressed campaign's write path is owned by another cluster
    /// node — the client's `ClusterMap` is stale (a migration fenced the
    /// campaign away) and the request should be retried against `owner`.
    WrongNode {
        /// The node that owns the campaign now.
        owner: NodeId,
    },
    /// A requester's `finish` could not harden the campaign's buffered
    /// events; the report was withheld (the requester can retry — the
    /// events stay buffered for the resumed flush).
    ReportNotDurable {
        /// The campaign whose report was withheld.
        campaign: CampaignId,
        /// The underlying flush failure, rendered.
        cause: String,
    },
    /// Storage-layer failure (WAL append, snapshot encode, parameter
    /// database) — the one variant that stays textual, because the
    /// underlying I/O error is.
    Storage(String),
    /// Any other validation failure (malformed distribution, dimension
    /// mismatch, …) — rendered exactly as the originating
    /// [`Error`](crate::Error) displays itself.
    Invalid(String),
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::UnknownCampaign(c) => write!(f, "unknown campaign {c}"),
            RejectReason::DuplicateAnswer { worker, task } => {
                write!(f, "worker {worker} already answered task {task}")
            }
            RejectReason::UnknownTask(t) => write!(f, "unknown task {t}"),
            RejectReason::ChoiceOutOfRange {
                choice,
                num_choices,
            } => write!(
                f,
                "choice {choice} out of range for task with {num_choices} choices"
            ),
            RejectReason::GoldenRequired(t) => {
                write!(
                    f,
                    "task {t} is not a golden task (no manual label to grade against)"
                )
            }
            RejectReason::BudgetExhausted => write!(f, "collection budget exhausted"),
            RejectReason::DurabilityUnavailable { campaign } => write!(
                f,
                "campaign {campaign} requests durability but the service was \
                 spawned without a durability directory"
            ),
            RejectReason::RecoverWithoutDurability => {
                write!(f, "recover needs a durability directory")
            }
            RejectReason::ReadOnlyReplica { campaign } => write!(
                f,
                "campaign {campaign} is served by a read-only follower replica; \
                 route writes to the primary"
            ),
            RejectReason::NotAFollower { campaign } => write!(
                f,
                "replication apply for campaign {campaign} refused: this service \
                 is not a follower"
            ),
            RejectReason::WrongNode { owner } => write!(
                f,
                "campaign is owned by cluster node {owner}; retry there with a \
                 refreshed cluster map"
            ),
            RejectReason::ReportNotDurable { campaign, cause } => write!(
                f,
                "campaign {campaign} report is not durable — flush on finish failed: {cause}"
            ),
            RejectReason::Storage(msg) => write!(f, "storage error: {msg}"),
            RejectReason::Invalid(msg) => write!(f, "{msg}"),
        }
    }
}

impl From<Error> for RejectReason {
    /// Lifts a validation error into the wire taxonomy. Every variant with
    /// a structural twin maps onto it; the rest keep their exact rendered
    /// message under [`RejectReason::Invalid`].
    fn from(e: Error) -> Self {
        match e {
            Error::DuplicateAnswer { task, worker } => {
                RejectReason::DuplicateAnswer { worker, task }
            }
            Error::UnknownTask(t) => RejectReason::UnknownTask(t),
            Error::ChoiceOutOfRange {
                choice,
                num_choices,
            } => RejectReason::ChoiceOutOfRange {
                choice,
                num_choices,
            },
            Error::GoldenRequired(t) => RejectReason::GoldenRequired(t),
            Error::BudgetExhausted => RejectReason::BudgetExhausted,
            Error::Storage(msg) => RejectReason::Storage(msg),
            other => RejectReason::Invalid(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every structural variant must render the same text its `Error` twin
    /// (or the pre-taxonomy service string) rendered — the stability
    /// contract of the string→enum migration.
    #[test]
    fn display_matches_the_string_era() {
        let cases: Vec<(RejectReason, &str)> = vec![
            (
                RejectReason::UnknownCampaign(CampaignId(7)),
                "unknown campaign c7",
            ),
            (
                RejectReason::DuplicateAnswer {
                    worker: WorkerId(1),
                    task: TaskId(3),
                },
                "worker w1 already answered task t3",
            ),
            (RejectReason::UnknownTask(TaskId(9)), "unknown task t9"),
            (
                RejectReason::ChoiceOutOfRange {
                    choice: 4,
                    num_choices: 2,
                },
                "choice 4 out of range for task with 2 choices",
            ),
            (RejectReason::BudgetExhausted, "collection budget exhausted"),
            (
                RejectReason::DurabilityUnavailable {
                    campaign: CampaignId(5),
                },
                "campaign c5 requests durability but the service was \
                 spawned without a durability directory",
            ),
            (
                RejectReason::RecoverWithoutDurability,
                "recover needs a durability directory",
            ),
            (
                RejectReason::ReportNotDurable {
                    campaign: CampaignId(0),
                    cause: "storage error: disk on fire".into(),
                },
                "campaign c0 report is not durable — flush on finish failed: \
                 storage error: disk on fire",
            ),
            (RejectReason::Storage("boom".into()), "storage error: boom"),
            (
                RejectReason::ReadOnlyReplica {
                    campaign: CampaignId(2),
                },
                "campaign c2 is served by a read-only follower replica; \
                 route writes to the primary",
            ),
            (
                RejectReason::NotAFollower {
                    campaign: CampaignId(4),
                },
                "replication apply for campaign c4 refused: this service \
                 is not a follower",
            ),
            (
                RejectReason::WrongNode { owner: NodeId(1) },
                "campaign is owned by cluster node n1; retry there with a \
                 refreshed cluster map",
            ),
        ];
        for (reason, expected) in cases {
            assert_eq!(reason.to_string(), expected);
        }
    }

    #[test]
    fn error_lifts_structurally() {
        assert_eq!(
            RejectReason::from(Error::DuplicateAnswer {
                task: TaskId(3),
                worker: WorkerId(1),
            }),
            RejectReason::DuplicateAnswer {
                worker: WorkerId(1),
                task: TaskId(3),
            }
        );
        assert_eq!(
            RejectReason::from(Error::UnknownTask(TaskId(2))),
            RejectReason::UnknownTask(TaskId(2))
        );
        assert_eq!(
            RejectReason::from(Error::BudgetExhausted),
            RejectReason::BudgetExhausted
        );
        // Variants without a structural twin keep their exact message.
        let e = Error::TooFewChoices(1);
        assert_eq!(RejectReason::from(e.clone()).to_string(), e.to_string());
    }

    /// The lift preserves the rendered message for every variant that had
    /// one before the taxonomy existed.
    #[test]
    fn lift_preserves_display_for_every_error() {
        let errors = vec![
            Error::DuplicateAnswer {
                task: TaskId(3),
                worker: WorkerId(1),
            },
            Error::UnknownTask(TaskId(5)),
            Error::ChoiceOutOfRange {
                choice: 3,
                num_choices: 2,
            },
            Error::GoldenRequired(TaskId(4)),
            Error::BudgetExhausted,
            Error::Storage("disk on fire".into()),
            Error::TooFewChoices(1),
            Error::Empty("task set"),
            Error::QualityOutOfRange(1.5),
        ];
        for e in errors {
            assert_eq!(RejectReason::from(e.clone()).to_string(), e.to_string());
        }
    }
}
