//! The service wire protocol: campaign-scoped worker requests (Figure 1's
//! arrows ④/⑤ per campaign) plus requester-side control operations, carried
//! in correlation-id envelopes so a client can keep many requests in
//! flight per shard.
//!
//! Every data-plane request names the [`CampaignId`] it targets; the shard
//! pool routes it to the shard owning that campaign
//! ([`CampaignId::shard`]), where the campaign's `Docs` state machine
//! processes it without locks. Campaign ids are allocated centrally by the
//! service handle, so [`Request::CreateCampaign`] carries the pre-assigned
//! id to the owning shard.
//!
//! The submission/completion split: a client *submits* a
//! [`RequestEnvelope`] (a [`Request`] tagged with a client-chosen
//! correlation id) and later harvests the matching [`Completion`] from its
//! completion slot. The shard echoes the correlation id verbatim, so
//! pipelined clients can pair out-of-band completions with the operations
//! that caused them. Failures travel as data: [`Response::Rejected`]
//! carries a matchable [`RejectReason`] instead of the string blob the
//! pre-pipelining protocol used.

use docs_obs::TraceContext;
use docs_system::{CampaignStatus, Docs, RequesterReport, WorkRequest};
use docs_types::{
    Answer, CampaignEvent, CampaignId, ChoiceIndex, ClusterMap, NodeId, RejectReason, TaskId,
    WorkerId,
};

/// Client-assigned tag pairing a submission with its completion. Allocated
/// monotonically per handle; the shard never interprets it, only echoes it.
pub type CorrelationId = u64;

/// One submitted operation: the request plus the correlation id its
/// completion must carry.
#[derive(Debug)]
pub struct RequestEnvelope {
    /// Tag echoed verbatim in the matching [`Completion`].
    pub correlation: CorrelationId,
    /// The operation to run on the owning shard.
    pub request: Request,
    /// Sampled-request trace riding the envelope: `None` for the vast
    /// unsampled majority (one null check on the hot path), a live
    /// [`TraceContext`] for the sampled few. The shard closes queue-wait /
    /// apply / flush-wait / ship spans on it and lands the finished trace
    /// in the service's flight recorder when the completion is released.
    pub trace: Option<Box<TraceContext>>,
}

/// One completed operation, as delivered to the submitter's completion
/// slot.
#[derive(Debug)]
pub struct Completion {
    /// The correlation id of the [`RequestEnvelope`] this answers.
    pub correlation: CorrelationId,
    /// The shard's response.
    pub response: Response,
}

/// A request to the DOCS service.
#[derive(Debug)]
pub enum Request {
    /// Requester-side: register a freshly published system as a new
    /// campaign. The id was allocated by the service handle; the receiving
    /// shard is its owner by the shared hash mapping. Whether the campaign
    /// is logged, and under which flush policy, is its own
    /// `DocsConfig::durable_flush` — read the same way a snapshot install
    /// reads it.
    CreateCampaign {
        /// Pre-allocated id of the new campaign.
        campaign: CampaignId,
        /// The published system to serve.
        docs: Box<Docs>,
    },
    /// "A worker comes and requests tasks" (Figure 1, arrow ④).
    RequestWork {
        /// Campaign the worker is participating in.
        campaign: CampaignId,
        /// The requesting worker.
        worker: WorkerId,
    },
    /// A new worker submits her golden-HIT answers (Section 5.2).
    SubmitGolden {
        /// Campaign the golden HIT belongs to.
        campaign: CampaignId,
        /// The submitting worker.
        worker: WorkerId,
        /// Her answers to the golden tasks.
        answers: Vec<(TaskId, ChoiceIndex)>,
    },
    /// "A worker accomplishes tasks and submits answers" (arrow ⑤).
    SubmitAnswer {
        /// Campaign the answered task belongs to.
        campaign: CampaignId,
        /// The submitted answer.
        answer: Answer,
    },
    /// A whole HIT's worth of answers in one round-trip: the batched
    /// ingestion path. The shard validates every answer up front, logs the
    /// accepted sub-batch as **one** write-ahead-log record (one group
    /// commit, one `fdatasync`), applies it as one transition, and reports
    /// the per-answer outcome in [`Response::BatchAck`].
    SubmitAnswerBatch {
        /// Campaign the answered tasks belong to.
        campaign: CampaignId,
        /// The submitted answers, in submission order.
        answers: Vec<Answer>,
    },
    /// Requester-side: finalize one campaign's inference and produce its
    /// report. The campaign keeps serving afterwards (reports are
    /// repeatable), matching the single-campaign service's behavior.
    Finish {
        /// Campaign to finalize.
        campaign: CampaignId,
    },
    /// Pure read: the campaign's observable serving state (task/golden
    /// counts, answers collected, worker counts, budget). Served locally
    /// by follower replicas — status polling need not touch the primary.
    Status {
        /// Campaign to summarize.
        campaign: CampaignId,
    },
    /// Pure read: the requester report under the *current* state, without
    /// applying a `Finished` event (no full-inference run is forced, no
    /// event is logged). The inferred-truths read path of a follower.
    PeekReport {
        /// Campaign to report on.
        campaign: CampaignId,
    },
    /// Pure read: the campaign's full serialized `CampaignSnapshot` —
    /// the byte-identity probe (a follower at watermark `w` must return
    /// exactly the primary's bytes at `w`) and a seeding source for new
    /// followers.
    SnapshotState {
        /// Campaign to serialize.
        campaign: CampaignId,
    },
    /// Replication plane: install a campaign snapshot shipped from the
    /// primary (bootstrap for a campaign this follower has never seen, or
    /// fast-forward past a pruned prefix). Only a follower accepts this.
    InstallSnapshot {
        /// Campaign the snapshot belongs to.
        campaign: CampaignId,
        /// Per-campaign sequence number the snapshot covers.
        seq: u64,
        /// The serialized `CampaignSnapshot` (the primary's exact bytes).
        snapshot: Vec<u8>,
    },
    /// Replication plane: apply one replicated event at its primary-
    /// assigned sequence number through the same deterministic
    /// `validate_event`/`apply` transition the primary ran. Only a
    /// follower accepts this; the applier guarantees gap-free order.
    ApplyReplicated {
        /// Campaign the event belongs to.
        campaign: CampaignId,
        /// Per-campaign sequence number assigned by the primary's log.
        seq: u64,
        /// The event to apply.
        event: Box<CampaignEvent>,
    },
    /// Cluster control: fence a campaign away to `owner`. The owning shard
    /// hardens the campaign's log, records the hand-off, answers
    /// [`Response::Fenced`] with the hardened watermark, and refuses every
    /// later mutation of the campaign with [`RejectReason::WrongNode`].
    Fence {
        /// Campaign being handed off.
        campaign: CampaignId,
        /// The node that owns the campaign from now on.
        owner: NodeId,
    },
    /// Cluster control: begin migration intake — the campaign is being
    /// shipped here from `source`, which keeps the write path until
    /// [`Request::CompleteMigration`]. While in intake the shard admits the
    /// replication plane for this campaign (despite running as a primary)
    /// and redirects mutations back to the source.
    PrepareMigration {
        /// Campaign being shipped in.
        campaign: CampaignId,
        /// The node that still owns the write path.
        source: NodeId,
    },
    /// Cluster control: the migrated campaign's tail is fully applied —
    /// adopt its write path (end intake, clear any stale fence).
    CompleteMigration {
        /// Campaign being adopted.
        campaign: CampaignId,
    },
    /// Cluster control: install a routing directory on the shard. Fresher
    /// epochs win; stale installs are acknowledged and dropped. Unlike
    /// every other request this is *broadcast* — the handle sends one copy
    /// to each shard rather than routing by campaign.
    InstallMap {
        /// The directory to install.
        map: Box<ClusterMap>,
    },
}

impl Request {
    /// The campaign this request must be routed to.
    pub fn campaign(&self) -> CampaignId {
        match self {
            Request::CreateCampaign { campaign, .. }
            | Request::RequestWork { campaign, .. }
            | Request::SubmitGolden { campaign, .. }
            | Request::SubmitAnswer { campaign, .. }
            | Request::SubmitAnswerBatch { campaign, .. }
            | Request::Finish { campaign }
            | Request::Status { campaign }
            | Request::PeekReport { campaign }
            | Request::SnapshotState { campaign }
            | Request::InstallSnapshot { campaign, .. }
            | Request::ApplyReplicated { campaign, .. }
            | Request::Fence { campaign, .. }
            | Request::PrepareMigration { campaign, .. }
            | Request::CompleteMigration { campaign } => *campaign,
            // A directory install is broadcast by the handle (one copy per
            // shard) and no `Op` constructor builds one, so nothing outside
            // this crate can send it down the campaign-routed path: the
            // arm only keeps the match total.
            Request::InstallMap { .. } => CampaignId(0),
        }
    }

    /// Whether the request mutates campaign state. Pure reads are the
    /// operations a read-only follower serves locally; everything else is
    /// refused there with [`RejectReason::ReadOnlyReplica`] (the
    /// replication-plane requests mutate too, but only a follower's
    /// applier may submit them).
    pub fn is_read(&self) -> bool {
        matches!(
            self,
            Request::Status { .. } | Request::PeekReport { .. } | Request::SnapshotState { .. }
        )
    }

    /// Whether the request belongs to the replication plane (snapshot
    /// install / replicated apply) — accepted only on a follower, fed only
    /// by its applier. A primary shard in migration intake admits it for
    /// the campaign being shipped in.
    pub fn is_replication(&self) -> bool {
        matches!(
            self,
            Request::InstallSnapshot { .. } | Request::ApplyReplicated { .. }
        )
    }

    /// Whether the request is cluster control (fencing, migration intake,
    /// directory install) — ownership bookkeeping that bypasses the
    /// campaign state machine and the ownership admission check itself.
    pub fn is_cluster_control(&self) -> bool {
        matches!(
            self,
            Request::Fence { .. }
                | Request::PrepareMigration { .. }
                | Request::CompleteMigration { .. }
                | Request::InstallMap { .. }
        )
    }
}

/// Per-answer outcome of a [`Request::SubmitAnswerBatch`]: a batch
/// round-trip *succeeds* even when some answers are rejected (duplicates
/// when the same worker raced on two HITs, say) — rejection is per answer,
/// exactly as if the answers had been submitted individually, and each
/// refusal carries its matchable [`RejectReason`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Answers accepted and applied, in submission order.
    pub accepted: usize,
    /// Rejected answers: position in the submitted batch and the reason.
    pub rejected: Vec<(usize, RejectReason)>,
}

/// A response from the DOCS service.
#[derive(Debug)]
pub enum Response {
    /// Reply to [`Request::CreateCampaign`].
    CampaignCreated(CampaignId),
    /// Reply to [`Request::RequestWork`].
    Work(WorkRequest),
    /// Successful submission.
    Ack,
    /// Reply to [`Request::SubmitAnswerBatch`].
    BatchAck(BatchOutcome),
    /// Reply to [`Request::Finish`] and [`Request::PeekReport`].
    Report(Box<RequesterReport>),
    /// Reply to [`Request::Status`].
    Status(Box<CampaignStatus>),
    /// Reply to [`Request::SnapshotState`]: the campaign's serialized
    /// `CampaignSnapshot`, byte-identical across primary and caught-up
    /// followers.
    State(Vec<u8>),
    /// Reply to [`Request::Fence`]: the campaign's log was hardened
    /// through this per-campaign sequence number before the fence took
    /// effect — the migration's linearization watermark.
    Fenced {
        /// Highest durable sequence at the moment of the fence.
        watermark: u64,
    },
    /// The system refused the request; the reason is matchable data, not
    /// prose (e.g. `RejectReason::DuplicateAnswer`,
    /// `RejectReason::UnknownCampaign`).
    Rejected(RejectReason),
}
