//! One shard of the pool as a steppable state machine.
//!
//! A [`Shard`] owns all of one shard's state: the campaigns hashed to it,
//! their log ([`ShardDurability`]) and the completions adaptive group
//! commit withholds.
//! Its driver (the shard thread in `server.rs`) asks [`Shard::wait`] how to
//! receive, hands what arrives to [`Shard::step`], and ends with
//! [`Shard::stop`]. Every transition comes from a request or an empty
//! queue, never from a clock, and nothing here touches a receiver, a thread
//! or the crash flag, so a test can step a shard by hand. Effects leave
//! through the existing seams only: each request's [`Completer`], the
//! [`ReplicationSink`] and the [`CampaignLog`].
//!
//! Checkpoint I/O is the log's, not the shard's. A campaign joining the
//! shard appends its baseline to the WAL as one record that rides the
//! group commit, and the join is acknowledged only once that record is
//! synced. Every `snapshot_every` logged events the shard flushes the WAL,
//! encodes each dirty campaign (events past its last snapshot, a last
//! snapshot that failed, or no snapshot file since it joined), and queues
//! the files and the superseded segments' deletion on the log's write lane
//! — a thread the log owns — then goes back to serving. A `finish` is
//! acknowledged only once the lane is idle, so the directory is settled at
//! every final report.

use crate::message::{BatchOutcome, Completion, Request, Response};
use crate::metrics::{Counter, OpKind, ServiceMetrics, Stage};
use crate::server::{Inbound, ReplicationSink, RoleCell, ServiceConfig, ServiceError};
use crate::ticket::Completer;
use docs_obs::{JournalKind, SpanKind, TraceContext};
use docs_storage::{CampaignLog, FlushPolicy};
use docs_system::{CampaignSnapshot, Docs};
use docs_types::{
    codec, Answer, CampaignEvent, CampaignId, Error, EventFrame, PublishedEvent, RejectReason,
    ReplicaRole, ReplicationFrame, SnapshotFrame,
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
    /// starts at sequence 0 with a `Published` marker behind the baseline.
    New,
    /// A replicated snapshot install covering sequence `seq`; it replaces
    /// the id's earlier state.
    Installed(u64),
    /// A recovery replay covering sequence `seq`. [`Shard::new`] flushes
    /// every recovered baseline at once, before the shard serves.
    Recovered(u64),
}

/// A completion withheld by adaptive group commit, with the trace of the
/// request it acknowledges (if that request was sampled) and, for a join,
/// the campaign whose baseline the batch holds.
type DeferredCompletion = (
    Completer,
    Completion,
    Option<Box<TraceContext>>,
    Option<CampaignId>,
);

/// The refusal of a join whose baseline record did not sync.
fn baseline_not_durable(campaign: CampaignId, e: &Error) -> RejectReason {
    RejectReason::Storage(format!("campaign {campaign}: baseline not durable: {e}"))
}

/// After a batch flush failed, turns each withheld join acknowledgement
/// into its refusal: an event's ack is released anyway (a durability
/// delay), but a join's ack promises that its baseline is on disk. The
/// campaign stays joined; its records harden at the next flush.
fn refuse_joins(deferred: &mut [DeferredCompletion], e: &Error) {
    for (_, completion, _, join) in deferred {
        if let Some(campaign) = *join {
            if !matches!(completion.response, Response::Rejected(_)) {
                completion.response = Response::Rejected(baseline_not_durable(campaign, e));
            }
        }
    }
}

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
    /// Sequence each campaign's latest snapshot file covers — clean
    /// campaigns (no events since) are skipped by the snapshot cycle. A
    /// joining campaign has no entry: its baseline is a WAL record, so the
    /// next cycle writes its first file before any prune can delete the
    /// segment holding the record.
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
    /// Appends a joining campaign's baseline — its state encoded once — to
    /// the log as one record, and queues it for shipping. It rides the
    /// group commit like an event; the join is durable once that flushes.
    fn append_baseline(&mut self, campaign: CampaignId, docs: &mut Docs) {
        let bytes = docs.snapshot_bytes();
        let seq = self.log.append_baseline(campaign, &bytes);
        self.snapshotted_at.remove(&campaign);
        if self.sink.is_some() {
            self.unshipped.push(Unshipped::Snapshot(SnapshotFrame {
                campaign,
                seq,
                payload: bytes,
            }));
        }
    }

    /// Appends one event to the log, encoded once straight into the
    /// group-commit buffer, and queues it for shipping. With a sink the
    /// record just written is copied out as the frame's payload — the exact
    /// WAL record payload, so followers replay the same bytes recovery
    /// would; without one nothing is allocated.
    fn append(&mut self, campaign: CampaignId, event: &CampaignEvent) -> docs_types::Result<()> {
        let ship = self.sink.is_some();
        let mut payload = None;
        let seq = self.log.append_event_with(campaign, |buf| {
            let start = buf.len();
            codec::encode_event_into(event, buf);
            if ship {
                payload = Some(buf[start..].to_vec());
            }
        })?;
        if let Some(payload) = payload {
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
    /// their own frames, in order, and each frame is sent as it closes.
    /// Called *before* a request's completion is sent, so an acknowledged
    /// durable event is always already on the wire to the followers.
    fn ship(&mut self, metrics: &ServiceMetrics) {
        let Some(sink) = &self.sink else {
            return;
        };
        if self.unshipped.is_empty() || self.log.pending_events() != 0 {
            return;
        }
        let send = |frame: ReplicationFrame| {
            let events = frame.num_events() as u64;
            let sent = sink.ship(frame);
            if sent {
                metrics.count(Counter::FramesShipped, 1);
                metrics.count(Counter::EventsShipped, events);
            }
            sent
        };
        let mut batch: Vec<EventFrame> = Vec::new();
        let mut live = true;
        // Breaking out of the drain drops what is left of the queue.
        for item in self.unshipped.drain(..) {
            match item {
                Unshipped::Event(event) => batch.push(event),
                Unshipped::Snapshot(snapshot) => {
                    if !batch.is_empty() {
                        live = send(ReplicationFrame::Events(std::mem::take(&mut batch)));
                    }
                    live = live && send(ReplicationFrame::Snapshot(snapshot));
                }
            }
            if !live {
                break;
            }
        }
        if live && !batch.is_empty() {
            live = send(ReplicationFrame::Events(batch));
        }
        if !live {
            // Hub gone: stop feeding a dead wire but keep serving.
            self.sink = None;
        }
    }

    /// Re-baselines the *dirty* persisted campaigns on the shard (those
    /// with events beyond their latest snapshot, or whose latest queued
    /// snapshot failed) and prunes the log segments the snapshots
    /// supersede. The WAL is flushed and each snapshot encoded here; the
    /// files and the deletion are queued on the log's write lane, which
    /// deletes only once every snapshot before it has landed. Clean
    /// campaigns keep their existing snapshot — it already covers every
    /// event they have, so pruning stays safe without re-serializing idle
    /// state. Whatever the outcome, the next cycle waits a full cadence.
    /// Encoding a campaign pays its owed inference.
    fn snapshot_cycle(&mut self, live: &mut BTreeMap<CampaignId, Docs>) -> docs_types::Result<()> {
        self.events_since_snapshot = 0;
        for (campaign, seq) in self.log.take_failed_snapshots() {
            if self.snapshotted_at.get(&campaign) == Some(&seq) {
                self.snapshotted_at.remove(&campaign);
            }
        }
        self.log.flush()?;
        for &campaign in &self.persisted {
            let seq = self.log.last_seq(campaign);
            let Some(docs) = live.get_mut(&campaign) else {
                continue;
            };
            if self.snapshotted_at.get(&campaign) == Some(&seq) {
                continue;
            }
            let bytes = docs.snapshot_bytes();
            let frame = self.sink.is_some().then(|| bytes.clone());
            self.log.queue_snapshot(campaign, bytes)?;
            self.snapshotted_at.insert(campaign, seq);
            if let Some(payload) = frame {
                self.unshipped.push(Unshipped::Snapshot(SnapshotFrame {
                    campaign,
                    seq,
                    payload,
                }));
            }
        }
        self.log.prune_segments()
    }

    /// Publishes the log gauges. Unconditional: appends between flushes
    /// move `events_logged`, and the write lane's deletions lower
    /// `log_bytes` without one.
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

/// Publishes the full-inference runs `docs` executed and superseded since
/// the last call, into `shard`'s counters.
fn count_runs(metrics: &ServiceMetrics, shard: usize, docs: &mut Docs) {
    let runs = docs.take_run_counts();
    if runs.executed + runs.superseded > 0 {
        metrics.shard_full_runs(shard, runs.executed, runs.superseded);
    }
}

/// The metrics bucket each request kind lands in.
fn kind_of(request: &Request) -> OpKind {
    match request {
        Request::CreateCampaign { .. } => OpKind::Create,
        Request::RequestWork { .. } => OpKind::Assign,
        Request::SubmitGolden { .. } => OpKind::Golden,
        Request::SubmitAnswerBatch { .. } => OpKind::SubmitBatch,
        Request::Finish { .. } => OpKind::Finish,
        Request::Status { .. } | Request::PeekReport { .. } | Request::SnapshotState { .. } => {
            OpKind::Read
        }
        Request::InstallSnapshot { .. } | Request::ApplyReplicated { .. } => OpKind::Replicate,
    }
}

/// One shard's whole state. See the module docs for the driver contract.
pub(crate) struct Shard {
    index: usize,
    campaigns: BTreeMap<CampaignId, Docs>,
    durability: Option<ShardDurability>,
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
    /// durable, then registers each recovered campaign, which appends a
    /// fresh baseline record to *this* epoch's log so the next recovery
    /// replays only events from now on, and flushes them all at once. A
    /// flush that fails fails the build, naming the campaigns whose
    /// baselines it held, so no shard serves a baseline that is not durable.
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
                // The write lane counts a snapshot when it lands and
                // journals one that fails.
                let lane_metrics = metrics.clone();
                log.set_snapshot_observer(Some(Arc::new(
                    move |campaign, seq, landed| match landed {
                        Ok(()) => lane_metrics.count(Counter::SnapshotsWritten, 1),
                        Err(e) => {
                            let what = format!("snapshot of campaign {campaign} at {seq}");
                            let kind = JournalKind::SnapshotFailure;
                            journal_failure(&lane_metrics, index, kind, &what, e);
                        }
                    },
                )));
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
            metrics: metrics.clone(),
            role: role.clone(),
            next_campaign: Arc::clone(next_campaign),
            deferred: Vec::new(),
        };
        let mut joined = Vec::with_capacity(recovered.len());
        for (campaign, docs, policy, seq) in recovered {
            shard
                .register(campaign, docs, Some(policy), Joining::Recovered(seq))
                .map_err(|e| {
                    ServiceError::Rejected(RejectReason::Storage(format!(
                        "campaign {campaign}: recovery baseline: {e}"
                    )))
                })?;
            joined.push(format!("campaign {campaign}"));
        }
        if let Some(d) = shard.durability.as_mut() {
            d.log.flush().map_err(|e| {
                ServiceError::Rejected(RejectReason::Storage(format!(
                    "{}: recovery baseline not durable: {e}",
                    joined.join(", ")
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

    /// Ends the shard and hands back its campaigns, their owed inference
    /// paid. A crashed shard drops its unflushed group-commit buffer and
    /// the frames queued behind it — a dead process ships nothing either —
    /// and its withheld completions unsent: a dead process never
    /// acknowledged them, and the events they would have acknowledged
    /// vanished with the buffer. A clean stop closes the final adaptive
    /// batch like any other: flush first, then release the withheld acks
    /// in order.
    pub(crate) fn stop(mut self, crashed: bool) -> BTreeMap<CampaignId, Docs> {
        if let Some(d) = self.durability.as_mut() {
            if crashed {
                d.log.abandon();
                self.deferred.clear();
            } else {
                match d.log.flush() {
                    Ok(()) => d.ship(&self.metrics),
                    Err(e) => refuse_joins(&mut self.deferred, &e),
                }
                d.log.settle();
                d.observe(self.index, &self.metrics);
                self.release_deferred();
            }
        }
        for docs in self.campaigns.values_mut() {
            docs.materialize();
            count_runs(&self.metrics, self.index, docs);
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
        let joins = matches!(
            request,
            Request::CreateCampaign { .. } | Request::InstallSnapshot { .. }
        );
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
            }
            // Snapshot cadence: after enough logged events, re-baseline
            // the dirty campaigns on this shard and prune the log, through
            // the write lane. A failure keeps serving; the log grows until
            // a cycle succeeds.
            if d.snapshot_every > 0 && d.events_since_snapshot >= d.snapshot_every {
                if let Err(e) = d.snapshot_cycle(&mut self.campaigns) {
                    let kind = JournalKind::SnapshotFailure;
                    journal_failure(&self.metrics, self.index, kind, "snapshot cycle", &e);
                }
                d.observe(self.index, &self.metrics);
                for docs in self.campaigns.values_mut() {
                    count_runs(&self.metrics, self.index, docs);
                }
            }
            // A final report leaves the directory settled: the lane has
            // landed every snapshot and deletion queued so far.
            if matches!(kind, OpKind::Finish) && d.persisted.contains(&campaign) {
                d.log.settle();
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
            let join = joins.then_some(campaign);
            self.deferred
                .push((inbound.completions, completion, trace, join));
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
            inbound.completions.complete(completion);
        }
    }

    /// The role gate: a follower refuses every external mutation (pure
    /// reads and the replication plane pass), a primary refuses the
    /// replication plane, naming the request's (a batch's first) campaign.
    fn refusal(&self, request: &Request) -> Option<Response> {
        let campaign = request.campaign();
        match self.role.get() {
            ReplicaRole::Follower if !request.is_read() && !request.is_replication() => {
                self.metrics.count(Counter::ReadOnlyRejections, 1);
                Some(Response::Rejected(RejectReason::ReadOnlyReplica {
                    campaign,
                }))
            }
            ReplicaRole::Primary if request.is_replication() => {
                Some(Response::Rejected(RejectReason::NotAFollower { campaign }))
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
            Request::ApplyReplicated { events } => {
                for (campaign, seq, event) in events {
                    let response = self.apply_replicated(campaign, seq, event);
                    if !matches!(response, Response::Ack) {
                        return response;
                    }
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
            Some(docs) => {
                let response = f(docs);
                count_runs(&self.metrics, self.index, docs);
                response
            }
            None => Response::Rejected(RejectReason::UnknownCampaign(campaign)),
        }
    }

    /// The one way a campaign joins the shard — creation, replicated
    /// snapshot installs and the recovery baseline all come through here.
    /// A new campaign's taken id is refused before any side effect. A
    /// durable campaign (`policy`) then has its log registered and its
    /// baseline record appended (a new one also its `Published` marker),
    /// whatever its data-plane policy, and the join is acknowledged only
    /// once they are synced: under adaptive commit the baseline is strict,
    /// so the batch's flush releases the acknowledgement; otherwise the
    /// join flushes here. A recovered campaign's baseline is flushed by
    /// [`Shard::new`]. A flush that fails leaves the campaign joined — its
    /// records stay buffered and harden at the next flush, like an
    /// event's — and is the join's error.
    fn register(
        &mut self,
        campaign: CampaignId,
        mut docs: Docs,
        policy: Option<FlushPolicy>,
        joining: Joining,
    ) -> Result<(), RejectReason> {
        if matches!(joining, Joining::New) && self.campaigns.contains_key(&campaign) {
            return Err(RejectReason::Storage(format!(
                "campaign {campaign} already exists"
            )));
        }
        let mut hardened = Ok(());
        if let Some(policy) = policy {
            let unavailable = RejectReason::DurabilityUnavailable { campaign };
            let d = self.durability.as_mut().ok_or(unavailable)?;
            let seq = match joining {
                Joining::New => 0,
                Joining::Installed(seq) | Joining::Recovered(seq) => seq,
            };
            d.log.register(campaign, policy, seq);
            d.append_baseline(campaign, &mut docs);
            if matches!(joining, Joining::New) {
                let published = PublishedEvent {
                    campaign,
                    num_tasks: docs.tasks().len() as u32,
                    num_golden: docs.golden_ids().len() as u32,
                };
                d.append(campaign, &CampaignEvent::Published(published))?;
            }
            d.persisted.insert(campaign);
            let acked = !matches!(joining, Joining::Recovered(_));
            if acked && d.log.pending_strict_events() == 0 {
                hardened = d
                    .log
                    .flush()
                    .map_err(|e| baseline_not_durable(campaign, &e));
            }
            d.observe(self.index, &self.metrics);
        }
        count_runs(&self.metrics, self.index, &mut docs);
        self.campaigns.insert(campaign, docs);
        hardened
    }

    /// Handles a replicated snapshot install on a follower shard: restores
    /// the campaign, replacing any earlier registration (a fast-forward).
    /// On a durable follower a campaign that opts in registers its log at
    /// the shipped sequence with its own baseline record, so the follower is
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
        self.register(campaign, docs, policy, Joining::Installed(seq))
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
        let response = match docs.apply(&event) {
            Ok(()) => success(docs),
            Err(e) => Response::Rejected(e.into()),
        };
        count_runs(&self.metrics, self.index, docs);
        response
    }

    /// Validates and applies one answer batch: the request's own vector is
    /// filtered in place, and the accepted answers it keeps become **one**
    /// [`CampaignEvent::AnswerBatchSubmitted`] — one WAL record, one
    /// group-commit decision, one `fdatasync` — through the same
    /// write-ahead discipline as any event ([`Shard::apply`]), while
    /// rejected answers are reported per position without ever reaching
    /// the log.
    fn apply_answer_batch(&mut self, campaign: CampaignId, mut answers: Vec<Answer>) -> Response {
        let Some(docs) = self.campaigns.get_mut(&campaign) else {
            return Response::Rejected(RejectReason::UnknownCampaign(campaign));
        };
        let rejected = docs.filter_answer_batch(&mut answers);
        let outcome = BatchOutcome {
            accepted: answers.len(),
            rejected: rejected.into_iter().map(|(i, e)| (i, e.into())).collect(),
        };
        if answers.is_empty() {
            return Response::BatchAck(outcome);
        }
        self.apply(campaign, CampaignEvent::answer_batch(answers), move |_| {
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

    /// [`Input::QueueEmpty`]: flushes the adaptive group-commit batch,
    /// ships what became durable, and releases the withheld completions in
    /// arrival order. A failed flush is a durability *delay*, same as the
    /// append path's policy flush: the buffer resumes at the next trigger,
    /// and the acks are released anyway (holding them hostage to a broken
    /// disk would deadlock clients without making the events any more
    /// durable) — except a join's, which is refused ([`refuse_joins`]).
    fn close_adaptive_batch(&mut self) {
        if let Some(d) = self.durability.as_mut() {
            if let Err(e) = d.log.flush() {
                let kind = JournalKind::FlushFailure;
                journal_failure(&self.metrics, self.index, kind, "adaptive batch flush", &e);
                d.log.clear_strict_pending();
                refuse_joins(&mut self.deferred, &e);
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
        for (completer, completion, trace, _) in self.deferred.drain(..) {
            if let Some(mut t) = trace {
                t.span(SpanKind::FlushWait);
                self.metrics.flight().record(t.finish());
            }
            completer.complete(completion);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::Op;
    use crate::message::RequestEnvelope;
    use crate::server::tests::{published, tmp_dir};
    use crate::ticket::{completion_slot, CompletionSlot};
    use docs_types::{TaskId, WorkerId};

    /// `request`, dequeued, and the client half of its completion slot.
    fn inbound(correlation: u64, request: Request) -> (Input, CompletionSlot) {
        let envelope = RequestEnvelope {
            correlation,
            request,
            trace: None,
        };
        let (completions, slot) = completion_slot();
        let input = Input::Request(Inbound {
            envelope,
            completions,
        });
        (input, slot)
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
        let (create, created) = inbound(1, create);
        shard.step(create);
        let (golden, graded) = inbound(2, Op::submit_golden(c, w, golden).request);
        shard.step(golden);
        shard.step(Input::QueueEmpty);
        assert_eq!(created.wait().unwrap().correlation, 1);
        assert!(matches!(graded.wait().unwrap().response, Response::Ack));
        assert_eq!(shard.wait(), Wait::Block);

        let answer = Answer::new(w, TaskId(4), 0);
        let (answer, answered) = inbound(3, Op::submit_answer_batch(c, vec![answer]).request);
        shard.step(answer);
        let (status, read) = inbound(4, Op::status(c).request);
        shard.step(status);
        assert!(
            answered.try_take().is_none() && read.try_take().is_none(),
            "both completions are withheld"
        );
        assert_eq!(shard.wait(), Wait::Poll);
        let flushes = metrics.durability().log_flushes;
        shard.step(Input::QueueEmpty);
        assert_eq!(metrics.durability().log_flushes, flushes + 1);
        assert_eq!(answered.try_take().unwrap().unwrap().correlation, 3);
        assert_eq!(read.try_take().unwrap().unwrap().correlation, 4);
        assert_eq!(shard.wait(), Wait::Block);
        shard.stop(false);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// With a replication sink, every event a shard logs ships as the
    /// record the codec encodes for it: the payload copied out of the
    /// group-commit buffer the event was encoded into is `encode_event(e)`,
    /// for the `Published` marker, a golden submission, a batch and the
    /// finish, in that order.
    #[test]
    fn a_shipped_payload_is_the_events_codec_record() {
        let dir = tmp_dir("shard-ship");
        let (tx, rx) = std::sync::mpsc::channel();
        let config = ServiceConfig::durable(1, &dir).with_replication(ReplicationSink::new(tx));
        let (metrics, role) = (ServiceMetrics::new(1), RoleCell::new(ReplicaRole::Primary));
        let next_campaign = Arc::new(AtomicU32::new(1));
        let mut shard = Shard::new(0, &config, vec![], &metrics, &role, &next_campaign).unwrap();
        let docs = published(9, Some(FlushPolicy::EveryEvent));
        let (c, w) = (CampaignId(0), WorkerId(0));
        let golden: Vec<_> = docs
            .golden_ids()
            .iter()
            .map(|&g| (g, g.index() % 2))
            .collect();
        let batch = vec![Answer::new(w, TaskId(4), 0), Answer::new(w, TaskId(7), 1)];
        let logged = [
            CampaignEvent::Published(PublishedEvent {
                campaign: c,
                num_tasks: 9,
                num_golden: golden.len() as u32,
            }),
            CampaignEvent::golden(w, golden.clone()),
            CampaignEvent::answer_batch(batch.clone()),
            CampaignEvent::finished(),
        ];
        let create = Request::CreateCampaign {
            campaign: c,
            docs: Box::new(docs),
        };
        for (i, request) in [
            create,
            Op::submit_golden(c, w, golden).request,
            Op::submit_answer_batch(c, batch).request,
            Op::finish(c).request,
        ]
        .into_iter()
        .enumerate()
        {
            let (input, slot) = inbound(i as u64, request);
            shard.step(input);
            shard.step(Input::QueueEmpty);
            assert!(
                !matches!(slot.wait().unwrap().response, Response::Rejected(_)),
                "request {i}"
            );
        }
        let shipped: Vec<EventFrame> = std::iter::from_fn(|| rx.try_recv().ok())
            .filter_map(|frame| match frame {
                ReplicationFrame::Events(events) => Some(events),
                ReplicationFrame::Snapshot(_) => None,
            })
            .flatten()
            .collect();
        let seqs: Vec<u64> = shipped.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [1, 2, 3, 4]);
        for (frame, event) in shipped.iter().zip(&logged) {
            assert_eq!(
                frame.payload,
                codec::encode_event(event),
                "{}",
                event.kind()
            );
        }
        shard.stop(false);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A creation's acknowledgement implies its baseline record is synced.
    /// Under adaptive commit the baseline is strict whatever the campaign's
    /// policy: the ack waits for the empty queue to flush the batch, and a
    /// crash before that drops both the ack and the campaign. Without
    /// adaptive commit the creation flushes before it is acknowledged.
    #[test]
    fn a_creation_is_acknowledged_only_once_its_baseline_is_synced() {
        for adaptive in [true, false] {
            let dir = tmp_dir(&format!("shard-join-{adaptive}"));
            let mut config = ServiceConfig::durable(1, &dir);
            if !adaptive {
                config.durability.as_mut().unwrap().adaptive = None;
            }
            let (metrics, role) = (ServiceMetrics::new(1), RoleCell::new(ReplicaRole::Primary));
            let next_campaign = Arc::new(AtomicU32::new(2));
            let mut shard =
                Shard::new(0, &config, vec![], &metrics, &role, &next_campaign).unwrap();
            let create = |c| Request::CreateCampaign {
                campaign: CampaignId(c),
                docs: Box::new(published(9, Some(FlushPolicy::Batch(64)))),
            };
            let (input, created) = inbound(1, create(0));
            shard.step(input);
            if adaptive {
                assert!(created.try_take().is_none(), "withheld while buffered");
                assert_eq!(shard.wait(), Wait::Poll);
                assert_eq!(metrics.durability().log_flushes, 0);
                shard.step(Input::QueueEmpty);
            }
            assert_eq!(metrics.durability().log_flushes, 1, "adaptive {adaptive}");
            let response = created.try_take().unwrap().unwrap().response;
            assert!(
                matches!(response, Response::CampaignCreated(_)),
                "{response:?}"
            );

            let (input, second) = inbound(2, create(1));
            shard.step(input);
            shard.stop(true);
            let tree = docs_storage::recover_tree(&dir).unwrap();
            assert!(tree.campaigns[&CampaignId(0)].snapshot.is_some());
            if adaptive {
                assert_eq!(second.wait().unwrap_err(), ServiceError::Disconnected);
                assert!(!tree.campaigns.contains_key(&CampaignId(1)));
            } else {
                assert!(second.wait().is_ok());
                assert!(tree.campaigns[&CampaignId(1)].snapshot.is_some());
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// A join whose baseline does not sync is refused, naming the
    /// campaign, with or without adaptive commit (where the batch's failed
    /// flush releases event acks but not a join's). The campaign stays
    /// joined, and its records harden at the next flush that succeeds.
    #[test]
    fn a_join_whose_baseline_does_not_sync_is_refused() {
        for adaptive in [true, false] {
            let dir = tmp_dir(&format!("shard-join-fault-{adaptive}"));
            let mut config = ServiceConfig::durable(1, &dir);
            if !adaptive {
                config.durability.as_mut().unwrap().adaptive = None;
            }
            let (metrics, role) = (ServiceMetrics::new(1), RoleCell::new(ReplicaRole::Primary));
            let next_campaign = Arc::new(AtomicU32::new(1));
            let mut shard =
                Shard::new(0, &config, vec![], &metrics, &role, &next_campaign).unwrap();
            let c = CampaignId(0);
            let create = Request::CreateCampaign {
                campaign: c,
                docs: Box::new(published(9, Some(FlushPolicy::EveryEvent))),
            };
            let fault = docs_storage::fail_flushes(&dir);
            let (input, created) = inbound(1, create);
            shard.step(input);
            shard.step(Input::QueueEmpty);
            match created.try_take().unwrap().unwrap().response {
                Response::Rejected(e) => {
                    let e = e.to_string();
                    assert!(e.contains("campaign c0: baseline not durable"), "{e}");
                }
                other => panic!("adaptive {adaptive}: acknowledged {other:?}"),
            }
            drop(fault);
            let (input, status) = inbound(2, Op::status(c).request);
            shard.step(input);
            assert!(status.wait().is_ok(), "the campaign stays joined");
            shard.stop(false);
            let tree = docs_storage::recover_tree(&dir).unwrap();
            assert!(tree.campaigns[&c].snapshot.is_some(), "hardened later");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// A crash drops withheld acks unsent: their clients see
    /// `Disconnected`, never an ack for an event the crash lost.
    #[test]
    fn a_crash_disconnects_the_withheld_acks() {
        let dir = tmp_dir("shard-crash");
        let config = ServiceConfig::durable(1, &dir);
        let (metrics, role) = (ServiceMetrics::new(1), RoleCell::new(ReplicaRole::Primary));
        let next_campaign = Arc::new(AtomicU32::new(1));
        let mut shard = Shard::new(0, &config, vec![], &metrics, &role, &next_campaign).unwrap();
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
        shard.step(inbound(1, create).0);
        let (golden, graded) = inbound(2, Op::submit_golden(c, w, golden).request);
        shard.step(golden);
        assert_eq!(shard.wait(), Wait::Poll);
        shard.stop(true);
        assert_eq!(graded.wait().unwrap_err(), ServiceError::Disconnected);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
