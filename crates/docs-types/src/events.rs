//! The campaign event model: every state change of a served campaign as a
//! serializable fact.
//!
//! The durable service runtime is event-sourced: commands (`submit_golden`,
//! `submit_answer_batch`, …) are validated against the current state, rendered
//! into one of these events, appended to the campaign's write-ahead log,
//! and only then applied. Replaying the same events over the same starting
//! snapshot is the *only* recovery path, so every payload here must capture
//! the full input of its deterministic transition — nothing inferred at
//! apply time may depend on wall clock, randomness, or map iteration order.
//!
//! On disk and on the wire an event is one [`crate::codec`] event record;
//! the serde derives remain for diagnostics and for tests that check the
//! record is smaller than its JSON.
//!
//! [`CampaignEvent::AnswerSubmitted`] is decode-only: answers enter a
//! campaign as [`CampaignEvent::AnswerBatchSubmitted`], one per HIT, and
//! nothing writes the one-answer record any more. Replay and a follower
//! still apply it, so a log written by an older build recovers.

use crate::{Answer, CampaignId, ChoiceIndex, TaskId, WorkerId};
use serde::{Deserialize, Serialize};

/// Metadata recorded when a campaign is registered with the service.
///
/// The full initial state travels in the campaign's first snapshot (the
/// post-DVE task set with its domain vectors is far too large to repeat on
/// every recovery path); this event marks the birth of the log and pins the
/// shape the snapshot must satisfy — replay rejects a snapshot whose task
/// count disagrees (a mispaired snapshot/log).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PublishedEvent {
    /// The campaign the log belongs to.
    pub campaign: CampaignId,
    /// Number of published tasks (sanity-checked against the snapshot).
    pub num_tasks: u32,
    /// Number of golden tasks selected at publish time.
    pub num_golden: u32,
}

/// A new worker submitted her golden-HIT answers (Section 5.2).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GoldenSubmittedEvent {
    /// The submitting worker.
    pub worker: WorkerId,
    /// Her answers to the golden tasks, in submission order.
    pub answers: Vec<(TaskId, ChoiceIndex)>,
}

/// A worker submitted one ordinary answer (Figure 1, arrow ⑤). Decode-only:
/// older logs hold this record; nothing writes it now.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnswerSubmittedEvent {
    /// The submitted answer.
    pub answer: Answer,
}

/// A batch of already-validated answers ingested as one transition — the
/// batched ingestion path: one wire round-trip, one write-ahead-log record
/// (one group-commit `fdatasync`).
///
/// The answers are applied strictly in order, so replaying the batch is
/// byte-identical to having submitted its answers individually (including
/// where the z-periodic full inference fires mid-batch). The service logs
/// only pre-validated batches: every answer in a logged batch applies
/// cleanly.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnswerBatchSubmittedEvent {
    /// The accepted answers, in submission order.
    pub answers: Vec<Answer>,
}

/// The requester finalized the campaign: one full inference pass ran and a
/// report was produced. Campaigns keep serving afterwards (reports are
/// repeatable), so this event may appear more than once in a log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FinishedEvent {}

/// One state transition of a campaign's `Docs` state machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CampaignEvent {
    /// Campaign registered; initial state captured by its first snapshot.
    Published(PublishedEvent),
    /// Golden-HIT submission initializing a worker's quality.
    GoldenSubmitted(GoldenSubmittedEvent),
    /// One incremental truth-inference update (decode-only, see the
    /// module docs).
    AnswerSubmitted(AnswerSubmittedEvent),
    /// A validated answer batch applied in order as one transition.
    AnswerBatchSubmitted(AnswerBatchSubmittedEvent),
    /// Full inference + report production.
    Finished(FinishedEvent),
}

impl CampaignEvent {
    /// Convenience constructor for [`CampaignEvent::AnswerBatchSubmitted`].
    pub fn answer_batch(answers: Vec<Answer>) -> Self {
        CampaignEvent::AnswerBatchSubmitted(AnswerBatchSubmittedEvent { answers })
    }

    /// Convenience constructor for [`CampaignEvent::GoldenSubmitted`].
    pub fn golden(worker: WorkerId, answers: Vec<(TaskId, ChoiceIndex)>) -> Self {
        CampaignEvent::GoldenSubmitted(GoldenSubmittedEvent { worker, answers })
    }

    /// Convenience constructor for [`CampaignEvent::Finished`].
    pub fn finished() -> Self {
        CampaignEvent::Finished(FinishedEvent {})
    }

    /// Short name of the event kind, for logs and metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            CampaignEvent::Published(_) => "published",
            CampaignEvent::GoldenSubmitted(_) => "golden_submitted",
            CampaignEvent::AnswerSubmitted(_) => "answer_submitted",
            CampaignEvent::AnswerBatchSubmitted(_) => "answer_batch_submitted",
            CampaignEvent::Finished(_) => "finished",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(event: &CampaignEvent) -> CampaignEvent {
        serde::from_value(&serde::to_value(event)).expect("roundtrip")
    }

    #[test]
    fn every_variant_roundtrips_through_serde() {
        let events = [
            CampaignEvent::Published(PublishedEvent {
                campaign: CampaignId(3),
                num_tasks: 40,
                num_golden: 5,
            }),
            CampaignEvent::golden(WorkerId(7), vec![(TaskId(0), 1), (TaskId(2), 0)]),
            CampaignEvent::AnswerSubmitted(AnswerSubmittedEvent {
                answer: Answer::new(WorkerId(1), TaskId(9), 2),
            }),
            CampaignEvent::answer_batch(vec![
                Answer::new(WorkerId(2), TaskId(3), 0),
                Answer::new(WorkerId(4), TaskId(5), 1),
            ]),
            CampaignEvent::answer_batch(Vec::new()),
            CampaignEvent::finished(),
        ];
        for event in &events {
            assert_eq!(&roundtrip(event), event, "{}", event.kind());
        }
    }

    #[test]
    fn kinds_name_every_variant() {
        assert_eq!(CampaignEvent::finished().kind(), "finished");
        assert_eq!(
            CampaignEvent::AnswerSubmitted(AnswerSubmittedEvent {
                answer: Answer::new(WorkerId(0), TaskId(0), 0)
            })
            .kind(),
            "answer_submitted"
        );
        assert_eq!(
            CampaignEvent::golden(WorkerId(0), Vec::new()).kind(),
            "golden_submitted"
        );
        assert_eq!(
            CampaignEvent::answer_batch(Vec::new()).kind(),
            "answer_batch_submitted"
        );
        let published = CampaignEvent::Published(PublishedEvent {
            campaign: CampaignId(0),
            num_tasks: 1,
            num_golden: 0,
        });
        assert_eq!(published.kind(), "published");
    }

    #[test]
    fn unknown_variant_is_a_clean_error() {
        let bogus = serde::Value::Map(vec![(
            "Exploded".to_string(),
            serde::Value::Map(Vec::new()),
        )]);
        let err = serde::from_value::<CampaignEvent>(&bogus).unwrap_err();
        assert!(err.to_string().contains("Exploded"), "{err}");
    }
}
