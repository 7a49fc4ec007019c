//! Shared data model for the DOCS reproduction.
//!
//! This crate defines the vocabulary of the whole workspace, following the
//! definitions in Section 2 of the paper:
//!
//! * [`DomainSet`] — the domain set `D = {d_1, ..., d_m}` (Definition 1),
//! * [`Task`] and [`DomainVector`] — tasks with per-domain relatedness
//!   distributions `r^t` (Definition 2),
//! * [`QualityVector`] — per-domain worker expertise `q^w` (Definition 3),
//! * [`Answer`] / [`AnswerLog`] — worker answers `v^w_i` and the bookkeeping
//!   views over them (`V(i)` per task, `T(w)` per worker, Definition 4),
//! * [`prob`] — small numeric helpers (entropy, KL divergence, normalization)
//!   used by every inference and assignment module,
//! * [`RejectReason`] — the wire-level rejection taxonomy: every way the
//!   service can refuse a request, as a matchable value whose `Display`
//!   output preserves the historical message text,
//! * [`CampaignEvent`] — the event model of the durable service runtime:
//!   every state change of a served campaign (`Published`,
//!   `GoldenSubmitted`, `AnswerBatchSubmitted`, `Finished`, and the
//!   decode-only `AnswerSubmitted` of older logs) as a serializable
//!   fact. Commands are validated, logged, then applied; replaying the
//!   event sequence over a campaign snapshot is the crash-recovery path,
//!   so each payload carries the *complete* input of its deterministic
//!   transition (see the `events` module docs for the determinism rules),
//! * [`ReplicaRole`] / [`ReplicationFrame`] — the replication vocabulary:
//!   primary vs read-only follower, and the logical frames (snapshots,
//!   durable event batches with per-campaign sequence watermarks) the
//!   WAL-shipping protocol streams between them.
//!
//! Everything downstream (`docs-kb`, `docs-core`, `docs-baselines`,
//! `docs-crowd`, ...) builds on these types, so they deliberately stay free of
//! any algorithmic policy.

mod answers;
pub mod codec;
pub mod crc;
pub mod domain;
mod error;
mod events;
mod ids;
pub mod prob;
mod reject;
mod replication;
mod task;
mod vectors;

pub use answers::{Answer, AnswerLog, TaskAnswers, WorkerAnswers};
pub use codec::CodecError;
pub use crc::{crc32, Crc32};
pub use domain::DomainSet;
pub use error::{Error, Result};
pub use events::{
    AnswerBatchSubmittedEvent, AnswerSubmittedEvent, CampaignEvent, FinishedEvent,
    GoldenSubmittedEvent, PublishedEvent,
};
pub use ids::{CampaignId, ChoiceIndex, TaskId, TraceId, WorkerId};
pub use reject::RejectReason;
pub use replication::{EventFrame, ReplicaRole, ReplicationFrame, SnapshotFrame};
pub use task::{Task, TaskBuilder};
pub use vectors::{DomainVector, QualityVector};
