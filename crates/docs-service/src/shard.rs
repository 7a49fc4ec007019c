//! One shard of the pool as a steppable state machine.
//!
//! A [`Shard`] owns all of one shard's state: the campaigns hashed to it,
//! their log ([`ShardDurability`]), the [`OwnershipTable`] and the
//! completions adaptive group commit withholds.
//! Its driver (the shard thread in `server.rs`) asks [`Shard::wait`] how to
//! receive, hands what arrives to [`Shard::step`], and ends with
//! [`Shard::stop`]. Every transition comes from a request or an empty
//! queue, never from a clock, and nothing here touches a receiver, a thread
//! or the crash flag, so a test can step a shard by hand. Effects leave
//! through the existing seams only: each request's completion `Sender`, the
//! [`ReplicationSink`] and the [`CampaignLog`].

use crate::message::{BatchOutcome, Completion, Request, Response};
use crate::metrics::{Counter, OpKind, ServiceMetrics, Stage};
use crate::server::{Inbound, ReplicationSink, RoleCell, ServiceConfig, ServiceError};
use crossbeam::channel::Sender;
use docs_obs::{JournalKind, SpanKind, TraceContext};
use docs_storage::{CampaignLog, FlushPolicy};
use docs_system::{CampaignSnapshot, Docs, MutationAdmission, OwnershipTable};
use docs_types::{
    codec, Answer, CampaignEvent, CampaignId, Error, EventFrame, NodeId, PublishedEvent,
    RejectReason, ReplicaRole, ReplicationFrame, SnapshotFrame,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// How the driver should receive the shard's next input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Wait {
    /// Completions are withheld: take a queued request without blocking,
    /// or report [`Input::QueueEmpty`].
    Poll,
    /// Nothing is pending: block until a request arrives.
    Block,
}

/// One input to [`Shard::step`].
pub(crate) enum Input {
    /// A dequeued submission.
    Request(Inbound),
    /// A [`Wait::Poll`] found the queue empty.
    QueueEmpty,
}

/// A recovered campaign on its way into a shard: its replayed state, its
/// flush policy and the last durable sequence number.
pub(crate) type Recovered = (CampaignId, Docs, FlushPolicy, u64);

/// Where a campaign joining the shard starts its history.
#[derive(Debug, Clone, Copy)]
enum Joining {
    /// A requester's new campaign: the id must be free, and a durable log
    /// starts at sequence 0 with a flushed `Published` marker.
    New,
    /// State that already covers sequence `seq` (a replicated snapshot
    /// install, or a recovery replay); it replaces the id's earlier state.
    At(u64),
}

/// A completion withheld by adaptive group commit, with the trace of the
/// request it acknowledges (if that request was sampled).
type DeferredCompletion = (Sender<Completion>, Completion, Option<Box<TraceContext>>);

/// A sealed-but-unshipped item of one shard's replication feed, queued in
/// append order until the group commit that hardens it completes.
enum Unshipped {
    Snapshot(SnapshotFrame),
    Event(EventFrame),
}

/// One shard's durability state: its campaign log plus the set of campaigns
/// whose events it records.
struct ShardDurability {
    log: CampaignLog,
    persisted: BTreeSet<CampaignId>,
    /// Sequence each campaign's latest snapshot covers — clean campaigns
    /// (no events since) are skipped by the snapshot cycle.
    snapshotted_at: HashMap<CampaignId, u64>,
    snapshot_every: u64,
    events_since_snapshot: u64,
    /// Replication feed (primary side): frames queue here at append time
    /// and ship only once the log's buffer is empty — i.e. once the events
    /// they carry are actually on disk.
    sink: Option<ReplicationSink>,
    unshipped: Vec<Unshipped>,
}

impl ShardDurability {
    fn snapshot_campaign(
        &mut self,
        campaign: CampaignId,
        docs: &Docs,
        metrics: &ServiceMetrics,
    ) -> docs_types::Result<()> {
        let bytes = docs.snapshot_bytes();
        let seq = self.log.write_snapshot(campaign, &bytes)?;
        self.snapshotted_at.insert(campaign, seq);
        metrics.count(Counter::SnapshotsWritten, 1);
        if self.sink.is_some() {
            self.unshipped.push(Unshipped::Snapshot(SnapshotFrame {
                campaign,
                seq,
                payload: bytes,
            }));
        }
        Ok(())
    }

    /// Appends one event to the log and queues it for shipping (without a
    /// sink the payload is dropped). The queued payload is the exact WAL
    /// record payload, so followers replay the same bytes recovery would;
    /// the append path is done with it, so shipping moves the allocation
    /// instead of copying it.
    fn append(&mut self, campaign: CampaignId, event: &CampaignEvent) -> docs_types::Result<()> {
        let payload = codec::encode_event(event);
        let seq = self.log.append_event(campaign, &payload)?;
        if self.sink.is_some() {
            self.unshipped.push(Unshipped::Event(EventFrame {
                campaign,
                seq,
                payload,
            }));
        }
        Ok(())
    }

    /// Ships everything queued, provided the log's buffer is empty (all
    /// queued events are durable). Consecutive events coalesce into one
    /// [`ReplicationFrame::Events`] per group commit; snapshots ship as
    /// their own frames, in order. Called *before* a request's completion
    /// is sent, so an acknowledged durable event is always already on the
    /// wire to the followers.
    fn ship(&mut self, metrics: &ServiceMetrics) {
        let Some(sink) = &self.sink else {
            return;
        };
        if self.unshipped.is_empty() || self.log.pending_events() != 0 {
            return;
        }
        let mut batch: Vec<EventFrame> = Vec::new();
        let mut frames: Vec<ReplicationFrame> = Vec::new();
        for item in self.unshipped.drain(..) {
            match item {
                Unshipped::Event(event) => batch.push(event),
                Unshipped::Snapshot(snapshot) => {
                    if !batch.is_empty() {
                        frames.push(ReplicationFrame::Events(std::mem::take(&mut batch)));
                    }
                    frames.push(ReplicationFrame::Snapshot(snapshot));
                }
            }
        }
        if !batch.is_empty() {
            frames.push(ReplicationFrame::Events(batch));
        }
        for frame in frames {
            let events = frame.num_events() as u64;
            if !sink.ship(frame) {
                // Hub gone: stop feeding a dead wire but keep serving.
                self.sink = None;
                self.unshipped.clear();
                return;
            }
            metrics.count(Counter::FramesShipped, 1);
            metrics.count(Counter::EventsShipped, events);
        }
    }

    /// Re-baselines the *dirty* persisted campaigns on the shard (those
    /// with events beyond their latest snapshot) and prunes the log
    /// segments the snapshots superseded. Clean campaigns keep their
    /// existing snapshot — it already covers every event they have, so
    /// pruning stays safe without re-serializing idle state.
    fn snapshot_cycle(
        &mut self,
        live: &BTreeMap<CampaignId, Docs>,
        metrics: &ServiceMetrics,
    ) -> docs_types::Result<()> {
        let campaigns: Vec<CampaignId> = self.persisted.iter().copied().collect();
        for campaign in campaigns {
            if self.log.last_seq(campaign)
                == self.snapshotted_at.get(&campaign).copied().unwrap_or(0)
            {
                continue;
            }
            if let Some(docs) = live.get(&campaign) {
                self.snapshot_campaign(campaign, docs, metrics)?;
            }
        }
        self.log.prune_segments()?;
        self.events_since_snapshot = 0;
        Ok(())
    }

    /// Publishes the log gauges. Unconditional: appends between flushes
    /// move `events_logged`, and a prune resets `log_bytes` without one.
    fn observe(&self, shard: usize, metrics: &ServiceMetrics) {
        let stats = self.log.stats();
        metrics.shard_log_observed(
            shard,
            stats.appended,
            stats.flushes,
            stats.last_flush,
            stats.max_flush,
            self.log.on_disk_bytes(),
        );
    }
}

/// Reports a durability failure the shard absorbs (it keeps serving) to
/// stderr and the control-plane journal.
fn journal_failure(
    metrics: &ServiceMetrics,
    shard: usize,
    kind: JournalKind,
    what: &str,
    e: &Error,
) {
    eprintln!("docs-shard-{shard}: {what} failed: {e}");
    metrics
        .journal()
        .error(kind, format!("shard {shard}: {what} failed: {e}"));
}

/// The metrics bucket each request kind lands in.
fn kind_of(request: &Request) -> OpKind {
    match request {
        Request::CreateCampaign { .. } => OpKind::Create,
        Request::RequestWork { .. } => OpKind::Assign,
        Request::SubmitGolden { .. } => OpKind::Golden,
        Request::SubmitAnswer { .. } => OpKind::Submit,
        Request::SubmitAnswerBatch { .. } => OpKind::SubmitBatch,
        Request::Finish { .. } => OpKind::Finish,
        Request::Status { .. } | Request::PeekReport { .. } | Request::SnapshotState { .. } => {
            OpKind::Read
        }
        Request::InstallSnapshot { .. } | Request::ApplyReplicated { .. } => OpKind::Replicate,
        Request::Fence { .. }
        | Request::PrepareMigration { .. }
        | Request::CompleteMigration { .. }
        | Request::InstallMap { .. } => OpKind::Cluster,
    }
}

/// One shard's whole state. See the module docs for the driver contract.
pub(crate) struct Shard {
    index: usize,
    campaigns: BTreeMap<CampaignId, Docs>,
    durability: Option<ShardDurability>,
    ownership: OwnershipTable,
    metrics: ServiceMetrics,
    role: RoleCell,
    /// The handle-level campaign-id allocator, shared so snapshot installs
    /// keep it ahead of every replicated id.
    next_campaign: Arc<AtomicU32>,
    /// Completions withheld by adaptive group commit: an `EveryEvent`
    /// campaign's ack promises durability, so while its event sits in the
    /// deferred-sync batch the ack (and, to keep per-shard FIFO completion
    /// order, every completion behind it) queues here until the batch's one
    /// `fdatasync` lands.
    deferred: Vec<DeferredCompletion>,
}

impl Shard {
    /// Builds shard `index` of a pool: opens its log when the pool is
    /// durable, then registers each recovered campaign, which writes a
    /// fresh baseline snapshot into *this* epoch's directory so the next
    /// recovery replays only events from now on. A baseline that cannot be
    /// written fails the build, naming the campaign.
    pub(crate) fn new(
        index: usize,
        config: &ServiceConfig,
        recovered: Vec<Recovered>,
        metrics: &ServiceMetrics,
        role: &RoleCell,
        next_campaign: &Arc<AtomicU32>,
    ) -> Result<Shard, ServiceError> {
        let durability = match &config.durability {
            Some(d) => {
                let mut log = CampaignLog::open(d.dir.join(format!("shard-{index}")))
                    .map_err(|e| ServiceError::Rejected(e.into()))?;
                log.set_adaptive(d.adaptive);
                // Every group commit reports its batch size and sync
                // latency straight into the lock-free histograms.
                let flush_metrics = metrics.clone();
                log.set_flush_observer(Some(Arc::new(move |events, sync| {
                    flush_metrics.observe(Stage::FlushBatch, events);
                    flush_metrics.observe(Stage::FlushSync, sync.as_nanos() as u64);
                })));
                Some(ShardDurability {
                    log,
                    persisted: BTreeSet::new(),
                    snapshotted_at: HashMap::new(),
                    snapshot_every: d.snapshot_every,
                    events_since_snapshot: 0,
                    sink: config.replication.clone(),
                    unshipped: Vec::new(),
                })
            }
            None => None,
        };
        let mut shard = Shard {
            index,
            campaigns: BTreeMap::new(),
            durability,
            ownership: OwnershipTable::new(config.node),
            metrics: metrics.clone(),
            role: role.clone(),
            next_campaign: Arc::clone(next_campaign),
            deferred: Vec::new(),
        };
        for (campaign, docs, policy, seq) in recovered {
            shard
                .register(campaign, docs, Some(policy), Joining::At(seq))
                .map_err(|e| {
                    ServiceError::Rejected(RejectReason::Storage(format!(
                        "campaign {campaign}: recovery baseline: {e}"
                    )))
                })?;
        }
        Ok(shard)
    }

    /// How the driver should receive the next input. With acks withheld it
    /// keeps eating queued requests without blocking — the batch grows
    /// under load until a bound trips inside `append_event` — and the
    /// moment the queue is empty it closes the batch instead of sitting on
    /// it: load grows the batch, idleness shrinks it.
    pub(crate) fn wait(&self) -> Wait {
        if self.deferred.is_empty() {
            Wait::Block
        } else {
            Wait::Poll
        }
    }

    /// Advances the shard by one input.
    pub(crate) fn step(&mut self, input: Input) {
        match input {
            Input::Request(inbound) => self.serve(inbound),
            Input::QueueEmpty => self.close_adaptive_batch(),
        }
    }

    /// Ends the shard and hands back its campaigns. A crashed shard drops
    /// its unflushed group-commit buffer and the frames queued behind it —
    /// a dead process ships nothing either — and its withheld completions
    /// unsent: a dead process never acknowledged them, and the events they
    /// would have acknowledged vanished with the buffer. A clean stop
    /// closes the final adaptive batch like any other: flush first, then
    /// release the withheld acks in order.
    pub(crate) fn stop(mut self, crashed: bool) -> BTreeMap<CampaignId, Docs> {
        if let Some(d) = self.durability.as_mut() {
            if crashed {
                d.log.abandon();
                self.deferred.clear();
            } else {
                if d.log.flush().is_ok() {
                    d.ship(&self.metrics);
                }
                d.observe(self.index, &self.metrics);
                self.release_deferred();
            }
        }
        self.campaigns
    }

    /// Handles one inbound request end to end: role gate, the request,
    /// finish hardening, snapshot cadence, shipping, and the completion —
    /// which is either sent immediately or withheld while adaptive group
    /// commit keeps the event it acknowledges buffered.
    fn serve(&mut self, inbound: Inbound) {
        let start = Instant::now();
        let (request, mut trace) = (inbound.envelope.request, inbound.envelope.trace);
        // The trace's mark was last advanced when the submitter closed its
        // client-submit span, so everything since is ingress-queue wait.
        if let Some(t) = trace.as_mut() {
            t.span(SpanKind::QueueWait);
        }
        let campaign = request.campaign();
        let kind = kind_of(&request);
        let mut response = match self.refusal(&request) {
            Some(refused) => refused,
            None => self.handle(campaign, request),
        };
        // Validation + event render + WAL append + in-memory apply all
        // happened inside `handle`.
        if let Some(t) = trace.as_mut() {
            t.span(SpanKind::Apply);
        }
        if let Some(d) = self.durability.as_mut() {
            // `finish` is the requester's "my report is final" moment:
            // harden everything buffered for it, whatever the campaign's
            // flush policy. A failed sync fails the finish — a Report whose
            // events are still only in memory would be a silent durability
            // lie (the requester can retry; events stay buffered).
            if matches!(kind, OpKind::Finish) && d.persisted.contains(&campaign) {
                if let Err(e) = d.log.flush() {
                    response = Response::Rejected(RejectReason::ReportNotDurable {
                        campaign,
                        cause: e.to_string(),
                    });
                }
                d.observe(self.index, &self.metrics);
            }
            // Snapshot cadence: after enough logged events, re-baseline
            // every campaign on this shard and prune the log. A failure
            // keeps serving; the log grows until a cycle succeeds.
            if d.snapshot_every > 0 && d.events_since_snapshot >= d.snapshot_every {
                if let Err(e) = d.snapshot_cycle(&self.campaigns, &self.metrics) {
                    let kind = JournalKind::SnapshotFailure;
                    journal_failure(&self.metrics, self.index, kind, "snapshot cycle", &e);
                }
                d.observe(self.index, &self.metrics);
            }
            // Ship everything this request's group commit made durable
            // *before* acknowledging it: once a completion is out, the
            // event it acknowledged is either still buffered (not yet
            // durable, so not owed to followers) or already on the wire.
            // Finish hardening, the cadence and this ship all count as the
            // ship stage; an event still held by adaptive group commit
            // ships at batch close, inside its trace's flush-wait span.
            d.ship(&self.metrics);
            if let Some(t) = trace.as_mut() {
                t.span(SpanKind::Ship);
            }
        }
        self.metrics.op_done(self.index, kind, start.elapsed());
        // The completion echoes the submission's correlation id. A client
        // that dropped its ticket after submitting is fine.
        let completion = Completion {
            correlation: inbound.envelope.correlation,
            response,
        };
        if self
            .durability
            .as_ref()
            .is_some_and(|d| d.log.pending_strict_events() > 0)
        {
            // Adaptive group commit still holds the event this completion
            // acknowledges (or an earlier one — FIFO) in the unsynced
            // batch: withhold the ack until the batch's fdatasync lands.
            self.deferred.push((inbound.completions, completion, trace));
        } else {
            // Everything acknowledged so far is durable; release any batch
            // acks first so completions leave in arrival order.
            self.release_deferred();
            if let Some(t) = trace {
                // Nothing withheld, so no flush-wait span. Record before
                // the send so the client wake-up (a futex syscall) is not
                // an unattributed tail of this trace.
                self.metrics.flight().record(t.finish());
            }
            let _ = inbound.completions.send(completion);
        }
    }

    /// The role gate: a follower refuses every external mutation (pure
    /// reads and the replication plane pass), a primary refuses the
    /// replication plane — unless the campaign is in migration intake,
    /// whose shipping feed is the one legitimate primary-side source.
    /// Behind the role, the ownership gate: a primary mutation for a
    /// campaign this node fenced away (or never owned under the installed
    /// directory) is redirected with `WrongNode` instead of applied. Reads
    /// stay served locally — a fenced campaign's state is exactly a
    /// consistent-but-stale replica of its new owner.
    fn refusal(&self, request: &Request) -> Option<Response> {
        let campaign = request.campaign();
        let mutation = !request.is_read() && !request.is_replication();
        match self.role.get() {
            ReplicaRole::Follower if mutation => {
                self.metrics.count(Counter::ReadOnlyRejections, 1);
                Some(Response::Rejected(RejectReason::ReadOnlyReplica {
                    campaign,
                }))
            }
            ReplicaRole::Primary
                if request.is_replication() && !self.ownership.accepts_replication(campaign) =>
            {
                Some(Response::Rejected(RejectReason::NotAFollower { campaign }))
            }
            ReplicaRole::Primary if mutation && !request.is_cluster_control() => {
                match self.ownership.admit_mutation(campaign) {
                    MutationAdmission::Allowed => None,
                    MutationAdmission::Redirect { owner } => {
                        self.metrics.count(Counter::WrongNodeRejections, 1);
                        self.metrics.journal().warn(
                            JournalKind::WrongNodeRejection,
                            format!("campaign {campaign}: mutation redirected to {owner}"),
                        );
                        Some(Response::Rejected(RejectReason::WrongNode { owner }))
                    }
                }
            }
            _ => None,
        }
    }

    /// Runs one admitted request against the shard's state.
    fn handle(&mut self, campaign: CampaignId, request: Request) -> Response {
        match request {
            Request::CreateCampaign { docs, .. } => {
                let policy = docs.config().durable_flush;
                self.register(campaign, *docs, policy, Joining::New)
                    .map_or_else(Response::Rejected, |()| Response::CampaignCreated(campaign))
            }
            Request::RequestWork { worker, .. } => {
                self.on_campaign(campaign, |docs| Response::Work(docs.request_tasks(worker)))
            }
            Request::SubmitGolden {
                worker, answers, ..
            } => self.apply(campaign, CampaignEvent::golden(worker, answers), |_| {
                Response::Ack
            }),
            Request::SubmitAnswer { answer, .. } => {
                self.apply(campaign, CampaignEvent::answer(answer), |_| Response::Ack)
            }
            Request::SubmitAnswerBatch { answers, .. } => {
                self.apply_answer_batch(campaign, answers)
            }
            Request::Finish { .. } => self.apply(campaign, CampaignEvent::finished(), |docs| {
                Response::Report(Box::new(docs.report()))
            }),
            Request::Status { .. } => {
                self.on_campaign(campaign, |docs| Response::Status(Box::new(docs.status())))
            }
            Request::PeekReport { .. } => {
                self.on_campaign(campaign, |docs| Response::Report(Box::new(docs.report())))
            }
            Request::SnapshotState { .. } => {
                self.on_campaign(campaign, |docs| Response::State(docs.snapshot_bytes()))
            }
            Request::InstallSnapshot { seq, snapshot, .. } => {
                self.install_snapshot(campaign, seq, &snapshot)
            }
            Request::ApplyReplicated { seq, event, .. } => {
                self.apply_replicated(campaign, seq, *event)
            }
            Request::Fence { owner, .. } => self.fence(campaign, owner),
            Request::PrepareMigration { source, .. } => {
                self.ownership.begin_intake(campaign, source);
                Response::Ack
            }
            Request::CompleteMigration { .. } => {
                self.ownership.complete_intake(campaign);
                self.metrics.count(Counter::MigrationsAdopted, 1);
                self.metrics.journal().info(
                    JournalKind::MigrationAdopted,
                    format!("campaign {campaign} adopted after migration intake"),
                );
                Response::Ack
            }
            Request::InstallMap { map } => {
                if self.ownership.install_map(&map) {
                    self.metrics.count(Counter::MapsInstalled, 1);
                    self.metrics.journal().info(
                        JournalKind::MapInstall,
                        format!("cluster map epoch {} installed", map.epoch()),
                    );
                }
                Response::Ack
            }
        }
    }

    /// Runs a data-plane handler against one campaign's state; an unknown
    /// id gets the one [`RejectReason::UnknownCampaign`] every request kind
    /// shares.
    fn on_campaign(
        &mut self,
        campaign: CampaignId,
        f: impl FnOnce(&mut Docs) -> Response,
    ) -> Response {
        match self.campaigns.get_mut(&campaign) {
            Some(docs) => f(docs),
            None => Response::Rejected(RejectReason::UnknownCampaign(campaign)),
        }
    }

    /// The one way a campaign joins the shard — creation, replicated
    /// snapshot installs and the recovery baseline all come through here.
    /// A new campaign's taken id is refused before any side effect. A
    /// durable campaign (`policy`) then has its log registered and its
    /// baseline snapshot written (a new one also its `Published` marker,
    /// synced at once whatever its data-plane policy) before its state
    /// serves, so nothing is served whose baseline is not on disk.
    fn register(
        &mut self,
        campaign: CampaignId,
        docs: Docs,
        policy: Option<FlushPolicy>,
        joining: Joining,
    ) -> Result<(), RejectReason> {
        if matches!(joining, Joining::New) && self.campaigns.contains_key(&campaign) {
            return Err(RejectReason::Storage(format!(
                "campaign {campaign} already exists"
            )));
        }
        if let Some(policy) = policy {
            let unavailable = RejectReason::DurabilityUnavailable { campaign };
            let d = self.durability.as_mut().ok_or(unavailable)?;
            let seq = match joining {
                Joining::New => 0,
                Joining::At(seq) => seq,
            };
            d.log.register(campaign, policy, seq);
            d.snapshot_campaign(campaign, &docs, &self.metrics)?;
            if matches!(joining, Joining::New) {
                let published = PublishedEvent {
                    campaign,
                    num_tasks: docs.tasks().len() as u32,
                    num_golden: docs.golden_ids().len() as u32,
                };
                d.append(campaign, &CampaignEvent::Published(published))?;
                d.log.flush()?;
            }
            d.persisted.insert(campaign);
        }
        self.campaigns.insert(campaign, docs);
        Ok(())
    }

    /// Handles a replicated snapshot install on a follower shard: restores
    /// the campaign, replacing any earlier registration (a fast-forward).
    /// On a durable follower a campaign that opts in registers its log at
    /// the shipped sequence with its own baseline, so the follower is
    /// independently recoverable (and can itself be a shipping primary
    /// after promotion).
    fn install_snapshot(&mut self, campaign: CampaignId, seq: u64, snapshot: &[u8]) -> Response {
        let restored = codec::from_bytes::<CampaignSnapshot>(snapshot)
            .map_err(|e| Error::Storage(format!("campaign {campaign} snapshot: {e}")))
            .and_then(Docs::restore);
        let docs = match restored {
            Ok(docs) => docs,
            Err(e) => return Response::Rejected(e.into()),
        };
        // Keep the handle-level allocator ahead of every replicated id, so
        // the first `create_campaign` after this follower is promoted
        // cannot collide with a campaign it replicated.
        self.next_campaign
            .fetch_max(campaign.0 + 1, Ordering::SeqCst);
        self.metrics.count(Counter::SnapshotsInstalled, 1);
        let policy = docs
            .config()
            .durable_flush
            .filter(|_| self.durability.is_some());
        self.register(campaign, docs, policy, Joining::At(seq))
            .map_or_else(Response::Rejected, |()| Response::Ack)
    }

    /// Validates, logs (for persisted campaigns), and applies one event,
    /// then builds the success response. The write-ahead discipline:
    /// nothing is applied before it is in the log buffer, and nothing
    /// rejected ever reaches the log.
    fn apply(
        &mut self,
        campaign: CampaignId,
        event: CampaignEvent,
        success: impl FnOnce(&mut Docs) -> Response,
    ) -> Response {
        let Some(docs) = self.campaigns.get_mut(&campaign) else {
            return Response::Rejected(RejectReason::UnknownCampaign(campaign));
        };
        if let Some(d) = self
            .durability
            .as_mut()
            .filter(|d| d.persisted.contains(&campaign))
        {
            if let Err(e) = docs.validate_event(&event) {
                return Response::Rejected(e.into());
            }
            if let Err(e) = d.append(campaign, &event) {
                return Response::Rejected(e.into());
            }
            d.events_since_snapshot += 1;
            d.observe(self.index, &self.metrics);
        }
        match docs.apply(&event) {
            Ok(()) => success(docs),
            Err(e) => Response::Rejected(e.into()),
        }
    }

    /// Validates and applies one answer batch: the accepted sub-batch
    /// becomes **one** [`CampaignEvent::AnswerBatchSubmitted`] — one WAL
    /// record, one group-commit decision, one `fdatasync` — through the
    /// same write-ahead discipline as any event ([`Shard::apply`]), while
    /// rejected answers are reported per position without ever reaching
    /// the log.
    fn apply_answer_batch(&mut self, campaign: CampaignId, answers: Vec<Answer>) -> Response {
        let Some(docs) = self.campaigns.get(&campaign) else {
            return Response::Rejected(RejectReason::UnknownCampaign(campaign));
        };
        let (accepted, rejected) = docs.validate_answer_batch(&answers);
        let outcome = BatchOutcome {
            accepted: accepted.len(),
            rejected: rejected.into_iter().map(|(i, e)| (i, e.into())).collect(),
        };
        if accepted.is_empty() {
            return Response::BatchAck(outcome);
        }
        self.apply(campaign, CampaignEvent::answer_batch(accepted), move |_| {
            Response::BatchAck(outcome)
        })
    }

    /// Applies one replicated event on a follower shard through the exact
    /// write-ahead discipline the primary used ([`Shard::apply`]). On a
    /// durable follower the locally assigned sequence must equal the
    /// primary's — the logs stay byte-compatible — so a misaligned stream
    /// is refused instead of forking the history.
    fn apply_replicated(
        &mut self,
        campaign: CampaignId,
        seq: u64,
        event: CampaignEvent,
    ) -> Response {
        if let Some(d) = self
            .durability
            .as_ref()
            .filter(|d| d.persisted.contains(&campaign))
        {
            let expected = d.log.last_seq(campaign) + 1;
            if seq != expected {
                return Response::Rejected(RejectReason::Storage(format!(
                    "replicated event for campaign {campaign} arrived at sequence {seq}; \
                     the local log expects {expected}"
                )));
            }
        }
        let response = self.apply(campaign, event, |_| Response::Ack);
        if matches!(response, Response::Ack) {
            self.metrics.count(Counter::EventsApplied, 1);
        }
        response
    }

    /// Handles `Fence`: hardens and ships everything the campaign still has
    /// buffered, records the hand-off at the resulting watermark, and
    /// answers [`Response::Fenced`]. After this no mutation of the campaign
    /// can commit locally — the watermark is the migration's linearization
    /// point. Memory-only campaigns fence at watermark 0 (a routing-only
    /// hand-off; there is no log to harden).
    fn fence(&mut self, campaign: CampaignId, owner: NodeId) -> Response {
        if !self.campaigns.contains_key(&campaign) {
            return Response::Rejected(RejectReason::UnknownCampaign(campaign));
        }
        let mut watermark = 0;
        if let Some(d) = self
            .durability
            .as_mut()
            .filter(|d| d.persisted.contains(&campaign))
        {
            // Flush-then-ship before recording the watermark: every event
            // the new owner must chase is durable *and* on the wire when
            // the fence answer (carrying the watermark) leaves this shard.
            if let Err(e) = d.log.flush() {
                return Response::Rejected(RejectReason::Storage(e.to_string()));
            }
            d.ship(&self.metrics);
            d.observe(self.index, &self.metrics);
            watermark = d.log.last_seq(campaign);
        }
        self.ownership.fence(campaign, owner, watermark);
        self.metrics.count(Counter::CampaignsFenced, 1);
        self.metrics.journal().info(
            JournalKind::Fence,
            format!("campaign {campaign} fenced to {owner} at watermark {watermark}"),
        );
        Response::Fenced { watermark }
    }

    /// [`Input::QueueEmpty`]: flushes the adaptive group-commit batch,
    /// ships what became durable, and releases the withheld completions in
    /// arrival order. A failed flush is a durability *delay*, same as the
    /// append path's policy flush: the buffer resumes at the next trigger,
    /// and the acks are released anyway (holding them hostage to a broken
    /// disk would deadlock clients without making the events any more
    /// durable).
    fn close_adaptive_batch(&mut self) {
        if let Some(d) = self.durability.as_mut() {
            if let Err(e) = d.log.flush() {
                let kind = JournalKind::FlushFailure;
                journal_failure(&self.metrics, self.index, kind, "adaptive batch flush", &e);
                d.log.clear_strict_pending();
            }
            d.ship(&self.metrics);
            d.observe(self.index, &self.metrics);
        }
        self.release_deferred();
    }

    /// Sends every withheld completion in arrival order. A sampled
    /// request's trace closes its flush-wait span here — the whole deferral
    /// window, including the batch `fdatasync` and the post-flush ship,
    /// counts as waiting for the flush — and lands in the flight recorder
    /// before the send, whose futex wake belongs to the client's next span.
    fn release_deferred(&mut self) {
        for (tx, completion, trace) in self.deferred.drain(..) {
            if let Some(mut t) = trace {
                t.span(SpanKind::FlushWait);
                self.metrics.flight().record(t.finish());
            }
            let _ = tx.send(completion);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::Op;
    use crate::message::RequestEnvelope;
    use crate::server::tests::{published, tmp_dir};
    use crossbeam::channel::bounded;
    use docs_types::{TaskId, WorkerId};

    /// `request`, dequeued, completing on `tx`.
    fn inbound(correlation: u64, request: Request, tx: &Sender<Completion>) -> Input {
        let envelope = RequestEnvelope {
            correlation,
            request,
            trace: None,
        };
        let completions = tx.clone();
        Input::Request(Inbound {
            envelope,
            completions,
        })
    }

    /// Adaptive group commit, stepped without threads: an `EveryEvent`
    /// answer's ack and the read queued behind it stay withheld while the
    /// driver is told to poll, and the empty queue closes the batch —
    /// flush first, then both completions in arrival order.
    #[test]
    fn an_empty_queue_flushes_the_batch_then_releases_acks_in_order() {
        let dir = tmp_dir("shard-step");
        let config = ServiceConfig::durable(1, &dir);
        let (metrics, role) = (ServiceMetrics::new(1), RoleCell::new(ReplicaRole::Primary));
        let next_campaign = Arc::new(AtomicU32::new(1));
        let mut shard = Shard::new(0, &config, vec![], &metrics, &role, &next_campaign).unwrap();
        let (tx, rx) = bounded(4);
        let docs = published(9, Some(FlushPolicy::EveryEvent));
        let (c, w) = (CampaignId(0), WorkerId(0));
        let golden = docs
            .golden_ids()
            .iter()
            .map(|&g| (g, g.index() % 2))
            .collect();
        let create = Request::CreateCampaign {
            campaign: c,
            docs: Box::new(docs),
        };
        shard.step(inbound(1, create, &tx));
        shard.step(inbound(2, Op::submit_golden(c, w, golden).request, &tx));
        shard.step(Input::QueueEmpty);
        assert_eq!(rx.recv().unwrap().correlation, 1);
        assert!(matches!(rx.recv().unwrap().response, Response::Ack));
        assert_eq!(shard.wait(), Wait::Block);

        let answer = Answer::new(w, TaskId(4), 0);
        shard.step(inbound(3, Op::submit_answer(c, answer).request, &tx));
        shard.step(inbound(4, Op::status(c).request, &tx));
        assert!(rx.try_recv().is_err(), "both completions are withheld");
        assert_eq!(shard.wait(), Wait::Poll);
        let flushes = metrics.durability().log_flushes;
        shard.step(Input::QueueEmpty);
        assert_eq!(metrics.durability().log_flushes, flushes + 1);
        assert_eq!(rx.try_recv().unwrap().correlation, 3);
        assert_eq!(rx.try_recv().unwrap().correlation, 4);
        assert_eq!(shard.wait(), Wait::Block);
        shard.stop(false);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
