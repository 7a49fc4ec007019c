//! The sharded service runtime: a pool of shard threads, each owning a
//! [`CampaignRegistry`] of the campaigns hashed to it. The client side —
//! the op table, the three verbs and the routing [`ServiceHandle`] — lives
//! in [`crate::handle`].
//!
//! The paper's deployment is one Django backend serving one requester batch;
//! the seed mirrored that with a single server thread owning a single
//! [`Docs`]. This runtime generalizes it:
//!
//! * **Campaigns** are the unit of state: each [`CampaignId`] maps to one
//!   `Docs` state machine living on exactly one shard
//!   ([`CampaignId::shard`]), so campaign state is share-nothing — no locks,
//!   and requests for one campaign keep the paper's strict arrival-order
//!   serialization.
//! * **Ingress is bounded**: each shard's queue admits at most
//!   [`ServiceConfig::queue_capacity`] requests. `submit` and `call` park
//!   until a slot frees (backpressure); `try_submit` fails fast with
//!   [`ServiceError::Busy`] and bumps the shard's `busy_rejections` counter
//!   instead of letting the queue grow without limit.
//! * **Failures are data**: every refusal carries a matchable
//!   [`RejectReason`] ([`ServiceError::Rejected`]) whose `Display` output
//!   reproduces the pre-taxonomy message text.
//! * **Durability is event-sourced**: when [`ServiceConfig::durability`] is
//!   set, each shard owns a [`CampaignLog`] under `dir/shard-<i>`. For a
//!   campaign that opted in (per-campaign, via
//!   `DocsConfig::durable_flush` or a wire-level override), every mutating
//!   request is validated, rendered into a [`CampaignEvent`], appended to
//!   the log (group-committed per the campaign's [`FlushPolicy`]), and only
//!   then applied. Periodic snapshots (`snapshot_every`) re-baseline every
//!   campaign on the shard and prune old segments.
//!   [`DocsService::recover`] rebuilds the whole registry from snapshots +
//!   log replay — across restarts that change the shard count.
//! * **Backward compatibility**: [`DocsService::spawn`] registers its
//!   `Docs` as the *default campaign*
//!   ([`ServiceHandle::default_campaign`]) and [`DocsService::join`]
//!   returns it, so single-campaign callers need no campaign bookkeeping.

use crate::handle::ServiceHandle;
use crate::message::{BatchOutcome, Completion, Request, RequestEnvelope, Response};
use crate::metrics::{Counter, OpKind, ServiceMetrics, Stage};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use docs_obs::{JournalKind, SpanKind, TraceContext};
use docs_storage::{recover_tree, AdaptiveCommit, CampaignLog, FlushPolicy};
use docs_system::{CampaignRegistry, Docs, MutationAdmission, OwnershipTable};
use docs_types::{
    codec, Answer, CampaignEvent, CampaignId, EventFrame, NodeId, PublishedEvent, RejectReason,
    ReplicaRole, ReplicationFrame, SnapshotFrame,
};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Errors surfaced to service clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The owning shard thread is gone (shut down or panicked).
    Disconnected,
    /// Fail-fast admission refused the submission: the owning shard's
    /// bounded ingress queue is at capacity. The request was *not*
    /// enqueued; retry later or fall back to a blocking submission.
    Busy {
        /// The shard whose queue was full.
        shard: usize,
    },
    /// The system rejected the request; the reason is matchable data
    /// (duplicate answer, unknown campaign, exhausted budget, …).
    Rejected(RejectReason),
}

impl ServiceError {
    /// The structured rejection, when this error is one.
    pub fn reason(&self) -> Option<&RejectReason> {
        match self {
            ServiceError::Rejected(reason) => Some(reason),
            _ => None,
        }
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Disconnected => write!(f, "DOCS service disconnected"),
            ServiceError::Busy { shard } => {
                write!(f, "shard {shard} ingress queue is full")
            }
            ServiceError::Rejected(reason) => write!(f, "request rejected: {reason}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// The primary's half of the replication wire: shard threads hand every
/// frame they seal (durable event batches, snapshots) to this sink; a
/// `docs-replication` hub on the other end encodes, CRC-stamps, and fans
/// the frames out to subscribed followers. Shipping is strictly
/// *post-flush*: a frame never carries an event the primary's disk has not
/// accepted, so a follower's watermark can only reach states the primary
/// could itself recover to.
#[derive(Clone)]
pub struct ReplicationSink(Sender<ReplicationFrame>);

impl ReplicationSink {
    /// Wraps the sending half of a replication stream.
    pub fn new(tx: Sender<ReplicationFrame>) -> Self {
        ReplicationSink(tx)
    }

    /// Ships one frame; a gone hub (every follower detached) is not an
    /// error — the primary keeps serving unreplicated.
    fn ship(&self, frame: ReplicationFrame) -> bool {
        self.0.send(frame).is_ok()
    }
}

impl fmt::Debug for ReplicationSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReplicationSink").finish_non_exhaustive()
    }
}

/// Shared mutable role of a running service: shards consult it per
/// request, promotion flips it exactly once.
#[derive(Debug, Clone)]
pub(crate) struct RoleCell(Arc<AtomicU8>);

impl RoleCell {
    pub(crate) fn new(role: ReplicaRole) -> Self {
        RoleCell(Arc::new(AtomicU8::new(match role {
            ReplicaRole::Primary => 0,
            ReplicaRole::Follower => 1,
        })))
    }

    pub(crate) fn get(&self) -> ReplicaRole {
        if self.0.load(Ordering::SeqCst) == 0 {
            ReplicaRole::Primary
        } else {
            ReplicaRole::Follower
        }
    }

    pub(crate) fn set(&self, role: ReplicaRole) {
        self.0.store(
            match role {
                ReplicaRole::Primary => 0,
                ReplicaRole::Follower => 1,
            },
            Ordering::SeqCst,
        );
    }
}

/// Where and how the service persists campaign events.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Root directory; each shard logs under `dir/shard-<i>`.
    pub dir: PathBuf,
    /// Flush policy for campaigns created durable without naming one.
    pub default_flush: FlushPolicy,
    /// After this many logged events, a shard snapshots every campaign it
    /// owns and prunes its log segments (bounds replay cost).
    pub snapshot_every: u64,
    /// Adaptive group commit for [`FlushPolicy::EveryEvent`] campaigns:
    /// under load a shard grows the commit batch within these bounds and
    /// pays one `fdatasync` for the whole batch, **deferring every
    /// acknowledgment until the batch is durable** — the ack⇒durable
    /// contract of `EveryEvent` survives while the sync cost amortizes
    /// like `Batch(n)`. An idle shard flushes immediately (the batch
    /// shrinks back to one event). `None` restores strict
    /// one-sync-per-event behavior.
    pub adaptive: Option<AdaptiveCommit>,
}

impl DurabilityConfig {
    /// Durability rooted at `dir` with group commit (`Batch(64)`), a
    /// 1024-event snapshot cadence, and adaptive commit for `EveryEvent`
    /// campaigns.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            default_flush: FlushPolicy::Batch(64),
            snapshot_every: 1024,
            adaptive: Some(AdaptiveCommit::default()),
        }
    }

    /// Overrides the adaptive-commit bounds (`None` disables deferral).
    pub fn with_adaptive(mut self, adaptive: Option<AdaptiveCommit>) -> Self {
        self.adaptive = adaptive;
        self
    }
}

/// Deployment knobs of the service runtime.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Number of shard worker threads. Campaigns are hash-partitioned
    /// across them; `1` reproduces the seed's single-server-thread runtime.
    /// `0` is treated as `1`.
    pub shards: usize,
    /// Event-log durability; `None` keeps every campaign memory-only.
    pub durability: Option<DurabilityConfig>,
    /// Per-shard ingress-queue bound: at most this many requests can sit
    /// in a shard's queue (one more may already be executing on the shard
    /// thread, so worst-case in-shard demand is `queue_capacity + 1`).
    /// `submit` and `call` park until a slot frees; `try_submit` fails
    /// fast with [`ServiceError::Busy`]. `0` is treated as `1`.
    pub queue_capacity: usize,
    /// The role the pool starts in. A [`ReplicaRole::Follower`] refuses
    /// every mutation with [`RejectReason::ReadOnlyReplica`], serves the
    /// pure reads locally, and accepts the replication plane (snapshot
    /// installs, replicated applies) until it is promoted.
    pub role: ReplicaRole,
    /// When set on a primary with durability, every snapshot written and
    /// every flushed (durable) event is also handed to this sink as a
    /// [`ReplicationFrame`] — the WAL-shipping feed followers apply.
    pub replication: Option<ReplicationSink>,
    /// Sample every Nth submission into the flight recorder as a full
    /// request trace (`0` disables tracing). Sampling is cheap enough to
    /// leave on in production at, say, `1024`; traced requests pay one
    /// heap allocation plus a handful of clock reads.
    pub trace_sample_every: u64,
    /// This pool's identity inside a multi-primary cluster. Single-node
    /// deployments keep the default `NodeId(0)` and never notice it; in a
    /// cluster each primary pool gets a distinct id, which fencing records
    /// as the redirect target of [`RejectReason::WrongNode`].
    pub node: NodeId,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 0,
            durability: None,
            queue_capacity: Self::DEFAULT_QUEUE_CAPACITY,
            role: ReplicaRole::Primary,
            replication: None,
            trace_sample_every: 0,
            node: NodeId(0),
        }
    }
}

impl ServiceConfig {
    /// Default per-shard ingress bound: deep enough that pipelined clients
    /// never notice it, shallow enough that a stalled shard pushes back
    /// instead of buffering unboundedly.
    pub const DEFAULT_QUEUE_CAPACITY: usize = 1024;

    /// A memory-only pool of `shards` shard threads.
    pub fn sharded(shards: usize) -> Self {
        ServiceConfig {
            shards,
            ..Default::default()
        }
    }

    /// A pool of `shards` shard threads with durability rooted at `dir`.
    pub fn durable(shards: usize, dir: impl Into<PathBuf>) -> Self {
        ServiceConfig {
            shards,
            durability: Some(DurabilityConfig::new(dir)),
            ..Default::default()
        }
    }

    /// Overrides the per-shard ingress bound.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Samples every Nth submission into the flight recorder (`0` = off).
    pub fn with_trace_sampling(mut self, every: u64) -> Self {
        self.trace_sample_every = every;
        self
    }

    /// A memory-only follower pool of `shards` shard threads (campaigns
    /// arrive via snapshot installs, not `create_campaign`).
    pub fn follower(shards: usize) -> Self {
        ServiceConfig {
            shards,
            role: ReplicaRole::Follower,
            ..Default::default()
        }
    }

    /// Sets the starting role.
    pub fn with_role(mut self, role: ReplicaRole) -> Self {
        self.role = role;
        self
    }

    /// Attaches a replication sink: durable events and snapshots ship
    /// through it as frames (see [`ReplicationSink`]).
    pub fn with_replication(mut self, sink: ReplicationSink) -> Self {
        self.replication = Some(sink);
        self
    }

    /// Sets this pool's cluster node identity.
    pub fn with_node(mut self, node: NodeId) -> Self {
        self.node = node;
        self
    }

    fn num_shards(&self) -> usize {
        self.shards.max(1)
    }
}

/// Per-shard spawn seeds: the registry each shard starts with plus, per
/// persisted campaign, its flush policy and last durable sequence number.
type PoolSeeds = Vec<(CampaignRegistry, Vec<(CampaignId, FlushPolicy, u64)>)>;

/// One admitted submission on a shard's ingress queue: the wire envelope
/// plus the sender of the submitter's one-shot completion slot.
pub(crate) struct Inbound {
    pub(crate) envelope: RequestEnvelope,
    pub(crate) completions: Sender<Completion>,
}

/// A running DOCS service (the shard-thread pool).
pub struct DocsService {
    joins: Vec<JoinHandle<CampaignRegistry>>,
    default_campaign: CampaignId,
}

/// Runs a data-plane handler against one campaign's state; an unknown id
/// gets the one [`RejectReason::UnknownCampaign`] every request kind
/// shares.
fn on_campaign(
    registry: &mut CampaignRegistry,
    campaign: CampaignId,
    f: impl FnOnce(&mut Docs) -> Response,
) -> Response {
    match registry.get_mut(campaign) {
        Some(docs) => f(docs),
        None => Response::Rejected(RejectReason::UnknownCampaign(campaign)),
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
        let bytes = codec::to_bytes(&docs.snapshot());
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

    /// Queues one appended event for shipping (no-op without a sink). The
    /// payload is the exact WAL record payload, so followers replay the
    /// same bytes recovery would. Takes the encoded bytes by value: the
    /// append path is done with them, so shipping moves the allocation
    /// instead of copying it.
    fn queue_event_for_ship(&mut self, campaign: CampaignId, seq: u64, payload: Vec<u8>) {
        if self.sink.is_some() {
            self.unshipped.push(Unshipped::Event(EventFrame {
                campaign,
                seq,
                payload,
            }));
        }
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
        registry: &CampaignRegistry,
        metrics: &ServiceMetrics,
    ) -> docs_types::Result<()> {
        let campaigns: Vec<CampaignId> = self.persisted.iter().copied().collect();
        for campaign in campaigns {
            if self.log.last_seq(campaign)
                == self.snapshotted_at.get(&campaign).copied().unwrap_or(0)
            {
                continue;
            }
            if let Some(docs) = registry.get(campaign) {
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

/// Validates, logs (for persisted campaigns), and applies one event, then
/// builds the success response. The write-ahead discipline: nothing is
/// applied before it is in the log buffer, and nothing rejected ever
/// reaches the log.
fn apply_event(
    registry: &mut CampaignRegistry,
    durability: &mut Option<ShardDurability>,
    metrics: &ServiceMetrics,
    shard: usize,
    campaign: CampaignId,
    event: CampaignEvent,
    success: impl FnOnce(&mut Docs) -> Response,
) -> Response {
    let Some(docs) = registry.get_mut(campaign) else {
        return Response::Rejected(RejectReason::UnknownCampaign(campaign));
    };
    if let Some(d) = durability
        .as_mut()
        .filter(|d| d.persisted.contains(&campaign))
    {
        if let Err(e) = docs.validate_event(&event) {
            return Response::Rejected(e.into());
        }
        let bytes = codec::encode_event(&event);
        let seq = match d.log.append_event(campaign, &bytes) {
            Ok(seq) => seq,
            Err(e) => return Response::Rejected(e.into()),
        };
        d.queue_event_for_ship(campaign, seq, bytes);
        d.events_since_snapshot += 1;
        d.observe(shard, metrics);
    }
    match docs.apply(&event) {
        Ok(()) => success(docs),
        Err(e) => Response::Rejected(e.into()),
    }
}

/// Validates and applies one answer batch: the accepted sub-batch becomes
/// **one** [`CampaignEvent::AnswerBatchSubmitted`] — one WAL record, one
/// group-commit decision, one `fdatasync` — while rejected answers are
/// reported per position without ever reaching the log. The event itself
/// goes through [`apply_event`], so the batch path shares the exact
/// write-ahead discipline (whole-event validation before logging included)
/// rather than re-implementing it.
fn apply_answer_batch(
    registry: &mut CampaignRegistry,
    durability: &mut Option<ShardDurability>,
    metrics: &ServiceMetrics,
    shard: usize,
    campaign: CampaignId,
    answers: Vec<Answer>,
) -> Response {
    let Some(docs) = registry.get(campaign) else {
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
    apply_event(
        registry,
        durability,
        metrics,
        shard,
        campaign,
        CampaignEvent::answer_batch(accepted),
        move |_| Response::BatchAck(outcome),
    )
}

/// Handles a replicated snapshot install on a follower shard: restores the
/// campaign (replacing any earlier registration — a fast-forward), and, on
/// a durable follower whose campaign opts in, registers the local log at
/// the shipped sequence and writes its own baseline snapshot so the
/// follower is independently recoverable (and can itself be a shipping
/// primary after promotion).
fn install_snapshot(
    registry: &mut CampaignRegistry,
    durability: &mut Option<ShardDurability>,
    metrics: &ServiceMetrics,
    next_campaign: &AtomicU32,
    campaign: CampaignId,
    seq: u64,
    snapshot: &[u8],
) -> Response {
    if let Err(e) = registry.install_snapshot(campaign, snapshot) {
        return Response::Rejected(e.into());
    }
    // Keep the handle-level allocator ahead of every replicated id, so the
    // first `create_campaign` after this follower is promoted cannot
    // collide with a campaign it replicated.
    next_campaign.fetch_max(campaign.0 + 1, Ordering::SeqCst);
    metrics.count(Counter::SnapshotsInstalled, 1);
    if let Some(d) = durability.as_mut() {
        let policy = registry
            .get(campaign)
            .and_then(|docs| docs.config().durable_flush);
        if let Some(policy) = policy {
            d.log.register(campaign, policy, seq);
            d.persisted.insert(campaign);
            if let Some(docs) = registry.get(campaign) {
                if let Err(e) = d.snapshot_campaign(campaign, docs, metrics) {
                    return Response::Rejected(e.into());
                }
            }
        }
    }
    Response::Ack
}

/// Applies one replicated event on a follower shard through the exact
/// write-ahead discipline the primary used ([`apply_event`]): validated
/// against the follower's state, appended to the follower's own log when
/// the campaign is durable here, then applied. On a durable follower the
/// locally assigned sequence must equal the primary's — the logs stay
/// byte-compatible — so a misaligned stream is refused instead of forking
/// the history.
fn apply_replicated(
    registry: &mut CampaignRegistry,
    durability: &mut Option<ShardDurability>,
    metrics: &ServiceMetrics,
    shard: usize,
    campaign: CampaignId,
    seq: u64,
    event: CampaignEvent,
) -> Response {
    if let Some(d) = durability
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
    let response = apply_event(
        registry,
        durability,
        metrics,
        shard,
        campaign,
        event,
        |_| Response::Ack,
    );
    if matches!(response, Response::Ack) {
        metrics.count(Counter::EventsApplied, 1);
    }
    response
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

/// What a shard starts with: its pre-built registry (empty on a fresh
/// spawn, replayed on recovery) and, per persisted campaign, the flush
/// policy plus the last durable sequence number.
struct ShardSeed {
    registry: CampaignRegistry,
    persisted: Vec<(CampaignId, FlushPolicy, u64)>,
    log: Option<CampaignLog>,
    snapshot_every: u64,
    sink: Option<ReplicationSink>,
    /// The handle-level campaign-id allocator, shared so snapshot installs
    /// keep it ahead of every replicated id (see `install_snapshot`).
    next_campaign: Arc<AtomicU32>,
    node: NodeId,
}

fn shard_loop(
    shard: usize,
    seed: ShardSeed,
    rx: Receiver<Inbound>,
    metrics: ServiceMetrics,
    crash: Arc<AtomicBool>,
    role: RoleCell,
) -> CampaignRegistry {
    let mut registry = seed.registry;
    let seed_next_campaign = seed.next_campaign;
    let mut ownership = OwnershipTable::new(seed.node);
    let mut durability = seed.log.map(|log| ShardDurability {
        log,
        persisted: BTreeSet::new(),
        snapshotted_at: HashMap::new(),
        snapshot_every: seed.snapshot_every,
        events_since_snapshot: 0,
        sink: seed.sink,
        unshipped: Vec::new(),
    });
    // Recovered campaigns: seed sequence counters and write a fresh
    // baseline snapshot into *this* epoch's directory, so the next recovery
    // replays only events from now on.
    if let Some(d) = durability.as_mut() {
        for (campaign, policy, last_seq) in seed.persisted {
            d.log.register(campaign, policy, last_seq);
            d.persisted.insert(campaign);
            if let Some(docs) = registry.get(campaign) {
                d.snapshot_campaign(campaign, docs, &metrics)
                    .expect("write recovery baseline snapshot");
            }
        }
    }

    // The loop ends when every handle (every sender) is dropped — or
    // instantly once a simulated crash is flagged.
    //
    // After a *failed* idle flush, the buffer stays pending and its
    // deadline stays at zero; retry only once per interval window instead
    // of busy-spinning on a disk that keeps erroring.
    let mut idle_flush_retry_at: Option<Instant> = None;
    // Completions withheld by adaptive group commit: an `EveryEvent`
    // campaign's ack promises durability, so while its event sits in the
    // deferred-sync batch the ack (and, to keep per-shard FIFO completion
    // order, every completion behind it) queues here until the batch's one
    // `fdatasync` lands.
    // Each withheld completion carries its request's trace (if sampled) so
    // the flush-wait span can close when the ack is finally released.
    let mut deferred: Vec<DeferredCompletion> = Vec::new();
    loop {
        // Adaptive drain mode: with acks withheld, keep eating queued
        // requests without blocking — the batch grows under load until a
        // bound trips inside `append_event` — and the moment the queue is
        // empty, close the batch (flush + ship + release the acks) instead
        // of sitting on it. Load grows the batch; idleness shrinks it.
        if !deferred.is_empty() {
            match rx.try_recv() {
                Ok(inbound) => {
                    if crash.load(Ordering::SeqCst) {
                        break;
                    }
                    process_one(
                        shard,
                        inbound,
                        &mut registry,
                        &mut durability,
                        &mut ownership,
                        &metrics,
                        &role,
                        &seed_next_campaign,
                        &mut deferred,
                    );
                    continue;
                }
                Err(crossbeam::channel::TryRecvError::Empty) => {
                    let d = durability.as_mut().expect("deferred implies durability");
                    close_adaptive_batch(shard, d, &mut deferred, &metrics);
                    continue;
                }
                Err(crossbeam::channel::TryRecvError::Disconnected) => break,
            }
        }
        // `IntervalMs`'s elapsed check only runs at append time, so an
        // *idle* shard would keep acknowledged events buffered
        // indefinitely; when such a deadline is pending, wait with a
        // timeout and harden the buffer the moment the window elapses.
        let deadline = durability
            .as_ref()
            .and_then(|d| d.log.idle_flush_due_in())
            .map(|due| match idle_flush_retry_at {
                Some(retry) => due.max(retry.saturating_duration_since(Instant::now())),
                None => due,
            });
        let inbound = match deadline {
            Some(due) => match rx.recv_timeout(due.max(Duration::from_millis(1))) {
                Ok(inbound) => inbound,
                Err(RecvTimeoutError::Timeout) => {
                    // A simulated kill must not be defeated by the idle
                    // timer hardening the buffer it is meant to lose.
                    if crash.load(Ordering::SeqCst) {
                        break;
                    }
                    let d = durability.as_mut().expect("deadline implies durability");
                    match d.log.flush_if_due() {
                        Ok(flushed) => {
                            idle_flush_retry_at = None;
                            if flushed {
                                // Idle-hardened events are durable now:
                                // they ship exactly like a request-path
                                // group commit's would.
                                d.ship(&metrics);
                            }
                        }
                        Err(e) => {
                            eprintln!("docs-shard-{shard}: idle interval flush failed: {e}");
                            metrics.journal().error(
                                JournalKind::FlushFailure,
                                format!("shard {shard}: idle interval flush failed: {e}"),
                            );
                            // Floored: IntervalMs(0) must not turn a broken
                            // disk into a ~1 kHz retry spin.
                            let backoff = d
                                .log
                                .min_interval()
                                .unwrap_or(Duration::from_secs(1))
                                .max(Duration::from_millis(100));
                            idle_flush_retry_at = Some(Instant::now() + backoff);
                        }
                    }
                    d.observe(shard, &metrics);
                    continue;
                }
                Err(RecvTimeoutError::Disconnected) => break,
            },
            None => match rx.recv() {
                Ok(inbound) => inbound,
                Err(_) => break,
            },
        };
        if crash.load(Ordering::SeqCst) {
            break;
        }
        process_one(
            shard,
            inbound,
            &mut registry,
            &mut durability,
            &mut ownership,
            &metrics,
            &role,
            &seed_next_campaign,
            &mut deferred,
        );
    }
    if let Some(d) = durability.as_mut() {
        if crash.load(Ordering::SeqCst) {
            // Simulated kill: drop the unflushed group-commit buffer (and
            // the frames queued behind it — a real dead process ships
            // nothing either). Withheld completions are dropped unsent: a
            // dead process never acknowledged them, and the events they
            // would have acknowledged just vanished with the buffer.
            d.log.abandon();
            deferred.clear();
        } else {
            if d.log.flush().is_ok() {
                d.ship(&metrics);
            }
            d.observe(shard, &metrics);
            // Shutdown closes the final adaptive batch like any other:
            // flush first, then release the withheld acks in order.
            release_deferred(&mut deferred, &metrics);
        }
    }
    registry
}

/// Flushes the adaptive group-commit batch, ships what became durable, and
/// releases the withheld completions in arrival order. A failed flush is a
/// durability *delay*, same as the append path's policy flush: the buffer
/// resumes at the next trigger, and the acks are released anyway (holding
/// them hostage to a broken disk would deadlock clients without making the
/// events any more durable).
fn close_adaptive_batch(
    shard: usize,
    d: &mut ShardDurability,
    deferred: &mut Vec<DeferredCompletion>,
    metrics: &ServiceMetrics,
) {
    if let Err(e) = d.log.flush() {
        eprintln!("docs-shard-{shard}: adaptive batch flush failed: {e}");
        metrics.journal().error(
            JournalKind::FlushFailure,
            format!("shard {shard}: adaptive batch flush failed: {e}"),
        );
        d.log.clear_strict_pending();
    }
    d.ship(metrics);
    d.observe(shard, metrics);
    release_deferred(deferred, metrics);
}

/// A completion withheld by adaptive group commit, with the trace of the
/// request it acknowledges (if that request was sampled).
type DeferredCompletion = (Sender<Completion>, Completion, Option<Box<TraceContext>>);

/// Sends every withheld completion in arrival order. A sampled request's
/// trace closes its flush-wait span here — the whole deferral window,
/// including the batch `fdatasync` and the post-flush ship, counts as
/// waiting for the flush — and lands in the flight recorder.
fn release_deferred(deferred: &mut Vec<DeferredCompletion>, metrics: &ServiceMetrics) {
    for (tx, completion, trace) in deferred.drain(..) {
        if let Some(mut t) = trace {
            t.span(SpanKind::FlushWait);
            // Record before the send: waking the blocked client is a
            // futex syscall whose cost belongs to the *client's* next
            // span, not to an unattributed tail of this trace.
            metrics.flight().record(t.finish());
        }
        let _ = tx.send(completion);
    }
}

/// Handles one inbound request end to end: role gate, the request, finish
/// hardening, snapshot cadence, shipping, and the completion — which is
/// either sent immediately or withheld in `deferred` while adaptive group
/// commit keeps the event it acknowledges buffered.
#[allow(clippy::too_many_arguments)]
fn process_one(
    shard: usize,
    inbound: Inbound,
    registry: &mut CampaignRegistry,
    durability: &mut Option<ShardDurability>,
    ownership: &mut OwnershipTable,
    metrics: &ServiceMetrics,
    role: &RoleCell,
    seed_next_campaign: &Arc<AtomicU32>,
    deferred: &mut Vec<DeferredCompletion>,
) {
    let start = Instant::now();
    let RequestEnvelope {
        correlation,
        request,
        mut trace,
    } = inbound.envelope;
    // The trace's mark was last advanced when the submitter closed its
    // client-submit span, so everything since is time spent in the shard's
    // ingress queue.
    if let Some(t) = trace.as_mut() {
        t.span(SpanKind::QueueWait);
    }
    let campaign = request.campaign();
    let kind = kind_of(&request);
    // The role gate: a follower refuses every external mutation (pure
    // reads and the replication plane pass), a primary refuses the
    // replication plane — unless the campaign is in migration intake,
    // whose shipping feed is the one legitimate primary-side source.
    // Behind the role, the ownership gate: a primary mutation for a
    // campaign this node fenced away (or never owned under the installed
    // directory) is redirected with `WrongNode` instead of applied. Reads
    // stay served locally — a fenced campaign's state is exactly a
    // consistent-but-stale replica of its new owner.
    let refusal = match role.get() {
        ReplicaRole::Follower if !request.is_read() && !request.is_replication() => {
            metrics.count(Counter::ReadOnlyRejections, 1);
            Some(Response::Rejected(RejectReason::ReadOnlyReplica {
                campaign,
            }))
        }
        ReplicaRole::Primary
            if request.is_replication() && !ownership.accepts_replication(campaign) =>
        {
            Some(Response::Rejected(RejectReason::NotAFollower { campaign }))
        }
        ReplicaRole::Primary
            if !request.is_read() && !request.is_replication() && !request.is_cluster_control() =>
        {
            match ownership.admit_mutation(campaign) {
                MutationAdmission::Allowed => None,
                MutationAdmission::Redirect { owner } => {
                    metrics.count(Counter::WrongNodeRejections, 1);
                    metrics.journal().warn(
                        JournalKind::WrongNodeRejection,
                        format!("campaign {campaign}: mutation redirected to {owner}"),
                    );
                    Some(Response::Rejected(RejectReason::WrongNode { owner }))
                }
            }
        }
        _ => None,
    };
    let mut response = match refusal {
        Some(response) => response,
        None => match request {
            Request::CreateCampaign {
                campaign,
                docs,
                persistence,
            } => create_campaign(registry, durability, metrics, campaign, *docs, persistence),
            Request::RequestWork { worker, .. } => on_campaign(registry, campaign, |docs| {
                Response::Work(docs.request_tasks(worker))
            }),
            Request::SubmitGolden {
                worker, answers, ..
            } => apply_event(
                registry,
                durability,
                metrics,
                shard,
                campaign,
                CampaignEvent::golden(worker, answers),
                |_| Response::Ack,
            ),
            Request::SubmitAnswer { answer, .. } => apply_event(
                registry,
                durability,
                metrics,
                shard,
                campaign,
                CampaignEvent::answer(answer),
                |_| Response::Ack,
            ),
            Request::SubmitAnswerBatch { answers, .. } => {
                apply_answer_batch(registry, durability, metrics, shard, campaign, answers)
            }
            Request::Finish { .. } => apply_event(
                registry,
                durability,
                metrics,
                shard,
                campaign,
                CampaignEvent::finished(),
                |docs| Response::Report(Box::new(docs.report())),
            ),
            Request::Status { .. } => on_campaign(registry, campaign, |docs| {
                Response::Status(Box::new(docs.status()))
            }),
            Request::PeekReport { .. } => on_campaign(registry, campaign, |docs| {
                Response::Report(Box::new(docs.report()))
            }),
            Request::SnapshotState { .. } => on_campaign(registry, campaign, |docs| {
                Response::State(codec::to_bytes(&docs.snapshot()))
            }),
            Request::InstallSnapshot { seq, snapshot, .. } => install_snapshot(
                registry,
                durability,
                metrics,
                seed_next_campaign,
                campaign,
                seq,
                &snapshot,
            ),
            Request::ApplyReplicated { seq, event, .. } => {
                apply_replicated(registry, durability, metrics, shard, campaign, seq, *event)
            }
            Request::Fence { owner, .. } => on_fence(
                registry, durability, ownership, metrics, shard, campaign, owner,
            ),
            Request::PrepareMigration { source, .. } => {
                ownership.begin_intake(campaign, source);
                Response::Ack
            }
            Request::CompleteMigration { .. } => {
                ownership.complete_intake(campaign);
                metrics.count(Counter::MigrationsAdopted, 1);
                metrics.journal().info(
                    JournalKind::MigrationAdopted,
                    format!("campaign {campaign} adopted after migration intake"),
                );
                Response::Ack
            }
            Request::InstallMap { map } => {
                if ownership.install_map(&map) {
                    metrics.count(Counter::MapsInstalled, 1);
                    metrics.journal().info(
                        JournalKind::MapInstall,
                        format!("cluster map epoch {} installed", map.epoch()),
                    );
                }
                Response::Ack
            }
        },
    };
    // Validation + event render + WAL append + in-memory apply all
    // happened inside the request match above.
    if let Some(t) = trace.as_mut() {
        t.span(SpanKind::Apply);
    }
    // `finish` is the requester's "my report is final" moment: harden
    // everything buffered for it, whatever the campaign's flush policy.
    // A failed sync fails the finish — handing back a Report while its
    // events are still only in memory would be a silent durability lie
    // (the requester can retry; events stay buffered for the resumed
    // flush).
    if matches!(kind, OpKind::Finish) {
        if let Some(d) = durability
            .as_mut()
            .filter(|d| d.persisted.contains(&campaign))
        {
            if let Err(e) = d.log.flush() {
                response = Response::Rejected(RejectReason::ReportNotDurable {
                    campaign,
                    cause: e.to_string(),
                });
            }
            d.observe(shard, metrics);
        }
    }
    // Snapshot cadence: after enough logged events, re-baseline every
    // campaign on this shard and prune the log.
    if let Some(d) = durability.as_mut() {
        if d.snapshot_every > 0 && d.events_since_snapshot >= d.snapshot_every {
            if let Err(e) = d.snapshot_cycle(registry, metrics) {
                // Keep serving; the log keeps growing until the next
                // cycle succeeds.
                eprintln!("docs-shard-{shard}: snapshot cycle failed: {e}");
                metrics.journal().error(
                    JournalKind::SnapshotFailure,
                    format!("shard {shard}: snapshot cycle failed: {e}"),
                );
            }
            d.observe(shard, metrics);
        }
        // Ship everything this request's group commit made durable
        // *before* acknowledging it: once a completion is out, the
        // event it acknowledged is either still buffered (not yet
        // durable, so not owed to followers) or already on the wire.
        d.ship(metrics);
        // Inline finish-hardening, snapshot cadence, and the ship above
        // all count as the ship stage. An event still held by adaptive
        // group commit ships at batch close instead; its trace folds that
        // into the flush-wait span.
        if let Some(t) = trace.as_mut() {
            t.span(SpanKind::Ship);
        }
    }
    metrics.op_done(shard, kind, start.elapsed());
    // The completion echoes the submission's correlation id. A client
    // that dropped its ticket after submitting is fine.
    let completion = Completion {
        correlation,
        response,
    };
    let strict_pending = durability
        .as_ref()
        .is_some_and(|d| d.log.pending_strict_events() > 0);
    if strict_pending {
        // Adaptive group commit still holds the event this completion
        // acknowledges (or an earlier one — FIFO) in the unsynced batch:
        // withhold the ack until the batch's fdatasync lands.
        deferred.push((inbound.completions, completion, trace));
    } else {
        // Everything acknowledged so far is durable; release any batch
        // acks first so completions leave in arrival order.
        release_deferred(deferred, metrics);
        if let Some(t) = trace {
            // Nothing withheld, so there is no flush-wait span; the
            // trace is complete. Record before the send so the client
            // wake-up (a futex syscall) is not an unattributed tail.
            metrics.flight().record(t.finish());
        }
        let _ = inbound.completions.send(completion);
    }
}

/// Handles `CreateCampaign` on the owning shard: plain insert for
/// memory-only campaigns; for persisted ones, the baseline snapshot and the
/// `Published` event are durable *before* the creation is acknowledged.
fn create_campaign(
    registry: &mut CampaignRegistry,
    durability: &mut Option<ShardDurability>,
    metrics: &ServiceMetrics,
    campaign: CampaignId,
    mut docs: Docs,
    persistence: Option<FlushPolicy>,
) -> Response {
    let policy = persistence.or(docs.config().durable_flush);
    let Some(policy) = policy else {
        return match registry.insert(campaign, docs) {
            Ok(()) => Response::CampaignCreated(campaign),
            Err(e) => Response::Rejected(e.into()),
        };
    };
    let Some(d) = durability.as_mut() else {
        return Response::Rejected(RejectReason::DurabilityUnavailable {
            campaign: Some(campaign),
        });
    };
    // Pin the effective policy into the campaign's own config so every
    // snapshot records the policy it actually runs with.
    docs.set_durable_flush(Some(policy));
    d.log.register(campaign, policy, 0);
    let result = d
        .snapshot_campaign(campaign, &docs, metrics)
        .and_then(|()| {
            let event = CampaignEvent::Published(PublishedEvent {
                campaign,
                num_tasks: docs.tasks().len() as u32,
                num_golden: docs.golden_ids().len() as u32,
            });
            let bytes = codec::encode_event(&event);
            let seq = d.log.append_event(campaign, &bytes)?;
            d.queue_event_for_ship(campaign, seq, bytes);
            // Control-plane creation is always synced immediately, whatever
            // the campaign's data-plane policy.
            d.log.flush()?;
            Ok(())
        });
    if let Err(e) = result {
        return Response::Rejected(e.into());
    }
    d.persisted.insert(campaign);
    match registry.insert(campaign, docs) {
        Ok(()) => Response::CampaignCreated(campaign),
        Err(e) => Response::Rejected(e.into()),
    }
}

/// Handles `Fence` on the owning shard: hardens and ships everything the
/// campaign still has buffered, records the hand-off at the resulting
/// watermark, and answers [`Response::Fenced`]. After this returns, no
/// mutation of the campaign can commit locally — the watermark is the
/// migration's linearization point. Memory-only campaigns fence at
/// watermark 0 (a routing-only hand-off; there is no log to harden).
#[allow(clippy::too_many_arguments)]
fn on_fence(
    registry: &mut CampaignRegistry,
    durability: &mut Option<ShardDurability>,
    ownership: &mut OwnershipTable,
    metrics: &ServiceMetrics,
    shard: usize,
    campaign: CampaignId,
    owner: NodeId,
) -> Response {
    if registry.get(campaign).is_none() {
        return Response::Rejected(RejectReason::UnknownCampaign(campaign));
    }
    let mut watermark = 0;
    if let Some(d) = durability
        .as_mut()
        .filter(|d| d.persisted.contains(&campaign))
    {
        // Flush-then-ship before recording the watermark: every event the
        // new owner must chase is durable *and* on the wire when the fence
        // answer (carrying the watermark) leaves this shard.
        if let Err(e) = d.log.flush() {
            return Response::Rejected(RejectReason::Storage(e.to_string()));
        }
        d.ship(metrics);
        d.observe(shard, metrics);
        watermark = d.log.last_seq(campaign);
    }
    ownership.fence(campaign, owner, watermark);
    metrics.count(Counter::CampaignsFenced, 1);
    metrics.journal().info(
        JournalKind::Fence,
        format!("campaign {campaign} fenced to {owner} at watermark {watermark}"),
    );
    Response::Fenced { watermark }
}

impl DocsService {
    /// Spawns a single-shard service around one published [`Docs`] — the
    /// seed's API, now routed through the shard pool.
    pub fn spawn(docs: Docs) -> (DocsService, ServiceHandle) {
        Self::spawn_sharded(docs, ServiceConfig::default())
    }

    /// Spawns the shard pool, registers `docs` as the default campaign, and
    /// returns the service plus its first routing handle.
    ///
    /// # Panics
    /// Panics if the durability directory (when configured) cannot be
    /// opened, or if the default campaign is rejected (e.g. it requests
    /// durability on a memory-only pool).
    pub fn spawn_sharded(docs: Docs, config: ServiceConfig) -> (DocsService, ServiceHandle) {
        let shards = config.num_shards();
        let seeds = (0..shards)
            .map(|_| (CampaignRegistry::new(), Vec::new()))
            .collect();
        let (service, handle) = Self::spawn_pool(&config, seeds, 0, CampaignId(0))
            .expect("open durability directory for the shard pool");
        let default_campaign = handle
            .create_campaign(docs)
            .expect("fresh shard pool accepts the default campaign");
        debug_assert_eq!(default_campaign, CampaignId(0));
        (service, handle)
    }

    /// Spawns an **empty follower pool**: no default campaign, every
    /// mutation refused with [`RejectReason::ReadOnlyReplica`]. Campaigns
    /// arrive through the replication plane (snapshot installs + replicated
    /// applies, normally fed by `docs-replication`'s applier), reads are
    /// served locally, and [`ServiceHandle::promote_to_primary`] turns the
    /// pool into a serving primary during failover.
    ///
    /// `config.role` is forced to [`ReplicaRole::Follower`]; durability is
    /// honored (a durable follower writes its own log and is itself
    /// recoverable and promotable into a shipping primary).
    pub fn spawn_replica(
        mut config: ServiceConfig,
    ) -> Result<(DocsService, ServiceHandle), ServiceError> {
        config.role = ReplicaRole::Follower;
        let shards = config.num_shards();
        let seeds = (0..shards)
            .map(|_| (CampaignRegistry::new(), Vec::new()))
            .collect();
        Self::spawn_pool(&config, seeds, 0, CampaignId(0))
    }

    /// Spawns an **empty primary pool**: no default campaign. A cluster
    /// node usually starts this way — campaigns arrive later through
    /// [`ServiceHandle::create_campaign`] or through a migration's intake
    /// (`docs-replication::migrate_campaign` ships a campaign in over the
    /// replication plane and then hands it the write path).
    pub fn spawn_empty(
        config: ServiceConfig,
    ) -> Result<(DocsService, ServiceHandle), ServiceError> {
        let shards = config.num_shards();
        let seeds = (0..shards)
            .map(|_| (CampaignRegistry::new(), Vec::new()))
            .collect();
        Self::spawn_pool(&config, seeds, 0, CampaignId(0))
    }

    /// Rebuilds the full multi-campaign service from its durability
    /// directory: every persisted campaign is restored from its latest
    /// snapshot and the replayed event suffix, then the pool resumes
    /// serving (and logging) exactly where the durable prefix ended.
    ///
    /// The recovering pool may use a different shard count than the one
    /// that wrote the directory — campaigns are re-homed by
    /// [`CampaignId::shard`] and the logs of every past epoch are merged by
    /// per-campaign sequence number.
    pub fn recover(config: ServiceConfig) -> Result<(DocsService, ServiceHandle), ServiceError> {
        let durability = config.durability.clone().ok_or(ServiceError::Rejected(
            RejectReason::RecoverWithoutDurability,
        ))?;
        let tree = recover_tree(&durability.dir).map_err(|e| ServiceError::Rejected(e.into()))?;
        let shards = config.num_shards();
        let metrics = ServiceMetrics::new(shards);
        // Torn segment tails are tolerated crash artifacts — but they are
        // *observations* of a crash, so they surface as a counter instead
        // of being dropped after classification.
        metrics.count(Counter::TornTailRecoveries, tree.torn_tails);
        let mut seeds: PoolSeeds = (0..shards)
            .map(|_| (CampaignRegistry::new(), Vec::new()))
            .collect();
        let mut max_id: Option<u32> = None;
        for (id, campaign) in &tree.campaigns {
            let Some((_, snapshot)) = &campaign.snapshot else {
                // A crash between registering the campaign and writing its
                // baseline snapshot: the creation was never acknowledged,
                // so there is nothing to resurrect.
                continue;
            };
            let shard = id.shard(shards);
            // Arena-backed views out of the recovered tree: cloning a
            // `PayloadBytes` bumps a refcount on the per-file arena, so no
            // event payload is copied on the way into replay.
            let events: Vec<docs_storage::PayloadBytes> = campaign
                .events
                .iter()
                .map(|(_, payload)| payload.clone())
                .collect();
            let stats = seeds[shard]
                .0
                .replay(*id, snapshot, &events)
                .map_err(|e| ServiceError::Rejected(e.into()))?;
            metrics.count(Counter::EventsReplayed, stats.applied);
            metrics.count(Counter::ReplayRejected, stats.rejected);
            metrics.count(Counter::SnapshotsLoaded, 1);
            let policy = seeds[shard]
                .0
                .get(*id)
                .and_then(|docs| docs.config().durable_flush)
                .unwrap_or(durability.default_flush);
            seeds[shard].1.push((*id, policy, campaign.last_seq));
            max_id = Some(max_id.map_or(id.0, |m| m.max(id.0)));
        }
        Self::spawn_pool_with_metrics(
            &config,
            seeds,
            max_id.map_or(0, |m| m + 1),
            // `default_campaign()` keeps pointing at campaign 0. If the
            // original default campaign was not durable, calls on it fail
            // with "unknown campaign c0" — a clear diagnostic — instead
            // of silently re-targeting some other recovered campaign.
            CampaignId(0),
            metrics,
        )
    }

    fn spawn_pool(
        config: &ServiceConfig,
        seeds: PoolSeeds,
        next_campaign: u32,
        default_campaign: CampaignId,
    ) -> Result<(DocsService, ServiceHandle), ServiceError> {
        let metrics = ServiceMetrics::new(config.num_shards());
        Self::spawn_pool_with_metrics(config, seeds, next_campaign, default_campaign, metrics)
    }

    fn spawn_pool_with_metrics(
        config: &ServiceConfig,
        seeds: PoolSeeds,
        next_campaign: u32,
        default_campaign: CampaignId,
        metrics: ServiceMetrics,
    ) -> Result<(DocsService, ServiceHandle), ServiceError> {
        let shards = config.num_shards();
        debug_assert_eq!(seeds.len(), shards);
        metrics.set_trace_sampling(config.trace_sample_every);
        let crash = Arc::new(AtomicBool::new(false));
        let role = RoleCell::new(config.role);
        // Shared with every shard: snapshot installs on a follower must
        // advance the allocator past the replicated ids, or the first
        // `create_campaign` after a promotion would collide with them
        // (the same reason `recover` seeds `max_id + 1`).
        let next_campaign = Arc::new(AtomicU32::new(next_campaign));
        let mut senders = Vec::with_capacity(shards);
        let mut joins = Vec::with_capacity(shards);
        for (shard, (registry, persisted)) in seeds.into_iter().enumerate() {
            let log = match &config.durability {
                Some(d) => {
                    let mut log = CampaignLog::open(d.dir.join(format!("shard-{shard}")))
                        .map_err(|e| ServiceError::Rejected(e.into()))?;
                    log.set_adaptive(d.adaptive);
                    // Every group commit reports its batch size and sync
                    // latency straight into the lock-free histograms.
                    let flush_metrics = metrics.clone();
                    log.set_flush_observer(Some(Arc::new(move |events, sync| {
                        flush_metrics.observe(Stage::FlushBatch, events);
                        flush_metrics.observe(Stage::FlushSync, sync.as_nanos() as u64);
                    })));
                    Some(log)
                }
                None => None,
            };
            let seed = ShardSeed {
                registry,
                persisted,
                log,
                snapshot_every: config.durability.as_ref().map_or(0, |d| d.snapshot_every),
                sink: config.replication.clone(),
                next_campaign: Arc::clone(&next_campaign),
                node: config.node,
            };
            // The ingress bound is the pool's admission control: blocking
            // submissions park on a full queue, fail-fast ones bounce.
            let (tx, rx) = bounded::<Inbound>(config.queue_capacity.max(1));
            let shard_metrics = metrics.clone();
            let shard_crash = Arc::clone(&crash);
            let shard_role = role.clone();
            senders.push(tx);
            joins.push(
                std::thread::Builder::new()
                    .name(format!("docs-shard-{shard}"))
                    .spawn(move || {
                        shard_loop(shard, seed, rx, shard_metrics, shard_crash, shard_role)
                    })
                    .expect("spawn docs shard thread"),
            );
        }
        let handle = ServiceHandle {
            shards: Arc::new(senders),
            next_campaign,
            next_correlation: Arc::new(AtomicU64::new(0)),
            metrics,
            default_campaign,
            default_flush: config.durability.as_ref().map(|d| d.default_flush),
            crash,
            role,
        };
        Ok((
            DocsService {
                joins,
                default_campaign,
            },
            handle,
        ))
    }

    /// Waits for every shard to drain and stop, returning all campaigns'
    /// final state, ascending by campaign id.
    ///
    /// The pool stops when every [`ServiceHandle`] has been dropped, so drop
    /// all handles before calling or it will block forever.
    pub fn join_all(self) -> Vec<(CampaignId, Docs)> {
        let mut campaigns: Vec<(CampaignId, Docs)> = self
            .joins
            .into_iter()
            .flat_map(|j| {
                j.join()
                    .expect("docs shard thread panicked")
                    .into_campaigns()
            })
            .collect();
        campaigns.sort_unstable_by_key(|(id, _)| *id);
        campaigns
    }

    /// Waits for shutdown and returns the default campaign's final state
    /// (the seed's single-campaign API).
    pub fn join(self) -> Docs {
        let default = self.default_campaign;
        self.join_all()
            .into_iter()
            .find(|(id, _)| *id == default)
            .map(|(_, docs)| docs)
            .expect("default campaign outlives the service")
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::handle::{Client, Op};
    use crate::ticket::TicketWait;
    use docs_kb::table2_example_kb;
    use docs_system::{DocsConfig, WorkRequest};
    use docs_types::{TaskBuilder, TaskId, WorkerId};

    pub(crate) fn published(n: usize) -> Docs {
        let kb = table2_example_kb();
        let subjects = ["Michael Jordan", "Kobe Bryant", "NBA"];
        let tasks: Vec<_> = (0..n)
            .map(|i| {
                TaskBuilder::new(i, format!("Is {} great?", subjects[i % 3]))
                    .yes_no()
                    .with_ground_truth(i % 2)
                    .with_true_domain(1)
                    .build()
                    .unwrap()
            })
            .collect();
        let config = DocsConfig {
            num_golden: 2,
            k_per_hit: 3,
            answers_per_task: 2,
            z: 10,
            ..Default::default()
        };
        Docs::publish(&kb, tasks, config).unwrap()
    }

    fn service() -> (DocsService, ServiceHandle) {
        DocsService::spawn(published(9))
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("docs-server-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Answers golden tasks correctly (ground truth is i % 2 by id).
    fn pass_golden(
        handle: &ServiceHandle,
        campaign: CampaignId,
        worker: WorkerId,
        golden: &[TaskId],
    ) {
        let answers: Vec<_> = golden.iter().map(|&g| (g, g.index() % 2)).collect();
        handle
            .call(Op::submit_golden(campaign, worker, answers))
            .unwrap();
    }

    #[test]
    fn round_trip_golden_then_tasks_then_report() {
        // A zero capacity is a one-slot queue, not an unbounded one.
        for capacity in [ServiceConfig::DEFAULT_QUEUE_CAPACITY, 0] {
            let config = ServiceConfig::default().with_queue_capacity(capacity);
            let (service, handle) = DocsService::spawn_sharded(published(9), config);
            let c = handle.default_campaign();
            let w = WorkerId(0);
            let golden = match handle.call(Op::request_tasks(c, w)).unwrap() {
                WorkRequest::Golden(g) => g,
                other => panic!("expected golden HIT, got {other:?}"),
            };
            assert_eq!(golden.len(), 2);
            pass_golden(&handle, c, w, &golden);
            let tasks = match handle.call(Op::request_tasks(c, w)).unwrap() {
                WorkRequest::Tasks(t) => t,
                other => panic!("expected task HIT, got {other:?}"),
            };
            assert_eq!(tasks.len(), 3);
            for t in tasks {
                handle
                    .call(Op::submit_answer(c, Answer::new(w, t, t.index() % 2)))
                    .unwrap();
            }
            let report = handle.call(Op::finish(c)).unwrap();
            assert_eq!(report.truths.len(), 9);
            assert_eq!(report.answers_collected, 3);
            // A pipelined burst parks on the full queue instead of growing
            // it: demand is the queue, the request executing and the one
            // parked submitter.
            let burst: Vec<_> = (0..32)
                .map(|_| handle.submit(Op::status(c)).unwrap())
                .collect();
            for ticket in burst {
                assert_eq!(ticket.wait().unwrap().answers_collected, 3);
            }
            let demand = handle.metrics().shard(0).max_queued;
            assert!(demand <= capacity.max(1) + 2, "{capacity}: {demand}");
            drop(handle);
            let _docs = service.join();
        }
    }

    #[test]
    fn duplicate_answer_is_rejected_with_a_matchable_reason() {
        let (service, handle) = service();
        let c = handle.default_campaign();
        let w = WorkerId(1);
        if let WorkRequest::Golden(g) = handle.call(Op::request_tasks(c, w)).unwrap() {
            pass_golden(&handle, c, w, &g);
        }
        let answer = Answer::new(w, TaskId(0), 0);
        handle.call(Op::submit_answer(c, answer)).unwrap();
        let err = handle.call(Op::submit_answer(c, answer)).unwrap_err();
        // The rejection is typed end to end…
        assert_eq!(
            err,
            ServiceError::Rejected(RejectReason::DuplicateAnswer {
                worker: w,
                task: TaskId(0),
            })
        );
        // …and its rendering matches the pre-taxonomy message.
        assert_eq!(
            err.to_string(),
            "request rejected: worker w1 already answered task t0"
        );
        // The service keeps serving after the rejection.
        assert!(handle.call(Op::request_tasks(c, w)).is_ok());
        drop(handle);
        service.join();
    }

    #[test]
    fn pipelined_tickets_complete_in_submission_order() {
        let (service, handle) = service();
        let c = handle.default_campaign();
        let w = WorkerId(0);
        // Golden first (blocking), so the pipelined requests get task HITs.
        if let WorkRequest::Golden(g) = handle.call(Op::request_tasks(c, w)).unwrap() {
            pass_golden(&handle, c, w, &g);
        }
        // Pipeline: a HIT request, its answers, and the next HIT request —
        // all in flight before the first completion is harvested.
        let first = handle.submit(Op::request_tasks(c, w)).unwrap();
        assert!(handle.metrics().shard(0).in_flight >= 1);
        let hit = match first.wait().unwrap() {
            WorkRequest::Tasks(t) => t,
            other => panic!("expected tasks, got {other:?}"),
        };
        let answers: Vec<Answer> = hit
            .iter()
            .map(|&t| Answer::new(w, t, t.index() % 2))
            .collect();
        let batch_ticket = handle.submit(Op::submit_answer_batch(c, answers)).unwrap();
        let next_ticket = handle.submit(Op::request_tasks(c, w)).unwrap();
        assert!(
            batch_ticket.correlation() < next_ticket.correlation(),
            "correlation ids are monotone per handle"
        );
        // FIFO per shard: once the later request completed, the earlier
        // batch ack must already be in its slot.
        let work = next_ticket.wait().unwrap();
        assert!(matches!(work, WorkRequest::Tasks(_) | WorkRequest::Done));
        match batch_ticket.try_take() {
            TicketWait::Ready(Ok(outcome)) => assert_eq!(outcome.accepted, hit.len()),
            other => panic!(
                "batch ack must be ready once a later completion arrived: {:?}",
                other.ready().map(|r| r.map(|o| o.accepted))
            ),
        }
        assert_eq!(
            handle.metrics().shard(0).in_flight,
            0,
            "all tickets resolved"
        );
        drop(handle);
        service.join();
    }

    #[test]
    fn metrics_count_operations() {
        let (service, handle) = service();
        let c = handle.default_campaign();
        let w = WorkerId(2);
        let _ = handle.call(Op::request_tasks(c, w));
        if let WorkRequest::Golden(g) = handle.call(Op::request_tasks(c, w)).unwrap() {
            pass_golden(&handle, c, w, &g);
        }
        assert_eq!(handle.metrics().stats(OpKind::Assign).count, 2);
        assert_eq!(handle.metrics().stats(OpKind::Golden).count, 1);
        assert_eq!(handle.metrics().stats(OpKind::Create).count, 1);
        assert!(handle.metrics().stats(OpKind::Assign).max > std::time::Duration::ZERO);
        drop(handle);
        service.join();
    }

    #[test]
    fn calls_after_shutdown_fail_cleanly() {
        let (service, handle) = service();
        let extra = handle.clone();
        drop(handle);
        // Pool still alive: `extra` holds every shard's sender.
        assert!(extra
            .call(Op::request_tasks(extra.default_campaign(), WorkerId(3)))
            .is_ok());
        drop(extra);
        let _docs = service.join();
    }

    #[test]
    fn many_threads_share_one_handle() {
        let (service, handle) = service();
        let c = handle.default_campaign();
        // Seed golden for 4 workers, then hammer assignments concurrently.
        for w in 0..4u32 {
            let w = WorkerId(w);
            if let WorkRequest::Golden(g) = handle.call(Op::request_tasks(c, w)).unwrap() {
                pass_golden(&handle, c, w, &g);
            }
        }
        let threads: Vec<_> = (0..4u32)
            .map(|w| {
                let h = handle.clone();
                std::thread::spawn(move || {
                    let w = WorkerId(w);
                    for _ in 0..10 {
                        h.call(Op::request_tasks(h.default_campaign(), w)).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(handle.metrics().stats(OpKind::Assign).count, 4 + 40);
        drop(handle);
        service.join();
    }

    #[test]
    fn campaigns_route_to_stable_shards_and_stay_isolated() {
        let (service, handle) = DocsService::spawn_sharded(published(9), ServiceConfig::sharded(4));
        // Two extra campaigns with different task counts.
        let c1 = handle.create_campaign(published(6)).unwrap();
        let c2 = handle.create_campaign(published(12)).unwrap();
        assert_eq!(handle.default_campaign(), CampaignId(0));
        assert_eq!((c1, c2), (CampaignId(1), CampaignId(2)));

        // The same worker id participates in all three campaigns
        // independently: golden state is per campaign.
        let w = WorkerId(0);
        for (campaign, tasks_n) in [(CampaignId(0), 9), (c1, 6), (c2, 12)] {
            let golden = match handle.call(Op::request_tasks(campaign, w)).unwrap() {
                WorkRequest::Golden(g) => g,
                other => panic!("expected golden in {campaign}, got {other:?}"),
            };
            pass_golden(&handle, campaign, w, &golden);
            match handle.call(Op::request_tasks(campaign, w)).unwrap() {
                WorkRequest::Tasks(t) => assert!(!t.is_empty()),
                other => panic!("expected tasks in {campaign}, got {other:?}"),
            }
            let report = handle.call(Op::finish(campaign)).unwrap();
            assert_eq!(report.truths.len(), tasks_n);
        }

        // Unknown campaigns are rejected with the campaign id, not fatal.
        let err = handle
            .call(Op::request_tasks(CampaignId(99), w))
            .unwrap_err();
        assert_eq!(
            err,
            ServiceError::Rejected(RejectReason::UnknownCampaign(CampaignId(99)))
        );
        assert_eq!(err.to_string(), "request rejected: unknown campaign c99");

        // Per-shard accounting saw every processed request.
        let processed: u64 = handle
            .metrics()
            .all_shards()
            .iter()
            .map(|s| s.processed)
            .sum();
        assert_eq!(processed, handle.metrics().total_ops());
        drop(handle);
        let campaigns = service.join_all();
        assert_eq!(
            campaigns.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            vec![CampaignId(0), c1, c2]
        );
    }

    #[test]
    fn create_campaign_ids_are_unique_under_concurrency() {
        let (service, handle) = DocsService::spawn_sharded(published(3), ServiceConfig::sharded(3));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let h = handle.clone();
                std::thread::spawn(move || {
                    (0..3)
                        .map(|_| h.create_campaign(published(3)).unwrap())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut ids: Vec<CampaignId> = threads
            .into_iter()
            .flat_map(|t| t.join().unwrap())
            .collect();
        ids.push(handle.default_campaign());
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 13, "12 created + 1 default, all distinct");
        drop(handle);
        assert_eq!(service.join_all().len(), 13);
    }

    #[test]
    fn durable_campaign_on_memory_only_pool_is_rejected() {
        let (service, handle) = service();
        let err = handle.create_campaign_durable(published(3)).unwrap_err();
        assert_eq!(
            err,
            ServiceError::Rejected(RejectReason::DurabilityUnavailable { campaign: None })
        );
        let err = handle
            .create_campaign_with(published(3), FlushPolicy::EveryEvent)
            .unwrap_err();
        assert!(matches!(
            err,
            ServiceError::Rejected(RejectReason::DurabilityUnavailable { campaign: Some(_) })
        ));
        drop(handle);
        service.join();
    }

    #[test]
    fn durable_round_trip_writes_events_and_snapshots() {
        let dir = tmp_dir("durable-roundtrip");
        let (service, handle) =
            DocsService::spawn_sharded(published(9), ServiceConfig::durable(2, &dir));
        let c = handle
            .create_campaign_with(published(6), FlushPolicy::EveryEvent)
            .unwrap();
        let w = WorkerId(0);
        if let WorkRequest::Golden(g) = handle.call(Op::request_tasks(c, w)).unwrap() {
            pass_golden(&handle, c, w, &g);
        }
        handle
            .call(Op::submit_answer(c, Answer::new(w, TaskId(0), 0)))
            .unwrap();
        let d = handle.metrics().durability();
        assert!(
            d.events_logged >= 3,
            "published + golden + answer logged, got {d:?}"
        );
        assert!(d.snapshots_written >= 1);
        assert!(d.log_bytes > 0);
        drop(handle);
        service.join();
        // The on-disk tree recovers the campaign with its events.
        let tree = recover_tree(&dir).unwrap();
        let rec = &tree.campaigns[&c];
        assert!(rec.snapshot.is_some());
        assert_eq!(rec.events.len(), 3, "published + golden + answer");
    }

    #[test]
    fn batched_submission_round_trip_with_per_answer_rejections() {
        let (service, handle) = service();
        let c = handle.default_campaign();
        let w = WorkerId(0);
        if let WorkRequest::Golden(g) = handle.call(Op::request_tasks(c, w)).unwrap() {
            pass_golden(&handle, c, w, &g);
        }
        handle
            .call(Op::submit_answer(c, Answer::new(w, TaskId(0), 0)))
            .unwrap();
        let batch = vec![
            Answer::new(w, TaskId(0), 1), // duplicate against the log
            Answer::new(w, TaskId(1), 1),
            Answer::new(w, TaskId(1), 0), // duplicate within the batch
            Answer::new(w, TaskId(2), 0),
        ];
        let outcome = handle.call(Op::submit_answer_batch(c, batch)).unwrap();
        assert_eq!(outcome.accepted, 2);
        assert_eq!(
            outcome.rejected.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
            vec![0, 2]
        );
        // Per-answer rejections are typed and keep their message text.
        assert_eq!(
            outcome.rejected[0].1,
            RejectReason::DuplicateAnswer {
                worker: w,
                task: TaskId(0),
            }
        );
        assert!(outcome.rejected[0]
            .1
            .to_string()
            .contains("already answered"));
        assert_eq!(handle.metrics().stats(OpKind::SubmitBatch).count, 1);
        let report = handle.call(Op::finish(c)).unwrap();
        assert_eq!(report.answers_collected, 3);
        drop(handle);
        service.join();
    }

    #[test]
    fn durable_batch_is_one_log_record_and_one_flush() {
        let dir = tmp_dir("durable-batch");
        let (service, handle) =
            DocsService::spawn_sharded(published(9), ServiceConfig::durable(1, &dir));
        // EveryEvent: the strictest policy — yet a whole batch must cost
        // one append + one fdatasync, not one per answer.
        let c = handle
            .create_campaign_with(published(9), FlushPolicy::EveryEvent)
            .unwrap();
        let w = WorkerId(0);
        if let WorkRequest::Golden(g) = handle.call(Op::request_tasks(c, w)).unwrap() {
            pass_golden(&handle, c, w, &g);
        }
        let flushes_before = handle.metrics().durability().log_flushes;
        let batch: Vec<Answer> = (0..6).map(|t| Answer::new(w, TaskId(t), 0)).collect();
        let outcome = handle.call(Op::submit_answer_batch(c, batch)).unwrap();
        assert_eq!(outcome.accepted, 6);
        let flushes_after = handle.metrics().durability().log_flushes;
        assert_eq!(
            flushes_after - flushes_before,
            1,
            "six answers, one group commit"
        );
        drop(handle);
        service.join();
        // On disk: published + golden + ONE batch record; recovery replays
        // the batch and yields every answer.
        let tree = recover_tree(&dir).unwrap();
        let rec = &tree.campaigns[&c];
        assert_eq!(rec.events.len(), 3, "published + golden + one batch");
        let (service, handle) = DocsService::recover(ServiceConfig::durable(1, &dir)).unwrap();
        let report = handle.call(Op::finish(c)).unwrap();
        assert_eq!(report.answers_collected, 6);
        drop(handle);
        service.join_all();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_on_empty_directory_yields_an_empty_pool() {
        let dir = tmp_dir("recover-empty");
        let (service, handle) = DocsService::recover(ServiceConfig::durable(2, &dir)).unwrap();
        // No campaigns recovered: the default campaign does not exist.
        let err = handle
            .call(Op::request_tasks(handle.default_campaign(), WorkerId(0)))
            .unwrap_err();
        assert_eq!(
            err,
            ServiceError::Rejected(RejectReason::UnknownCampaign(CampaignId(0)))
        );
        // But new campaigns can be created (durably) right away.
        let c = handle.create_campaign_durable(published(3)).unwrap();
        assert_eq!(c, CampaignId(0));
        drop(handle);
        assert_eq!(service.join_all().len(), 1);
    }

    /// Bytes across the `*.wal` segments in one shard's log directory.
    fn wal_bytes(dir: &std::path::Path) -> u64 {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "wal"))
            .map(|path| std::fs::metadata(path).unwrap().len())
            .sum()
    }

    #[test]
    fn shard_log_gauges_match_the_log_after_every_answer() {
        // A snapshot cycle every 3 events prunes the segments; the gauges
        // must follow the prune and every append, not only flushes.
        for policy in [
            FlushPolicy::EveryEvent,
            FlushPolicy::Batch(1),
            FlushPolicy::Batch(8),
        ] {
            for adaptive in [None, Some(AdaptiveCommit::default())] {
                let label = format!("{}-adaptive-{}", policy.label(), adaptive.is_some());
                let dir = tmp_dir(&format!("log-gauges-{label}"));
                let mut config = ServiceConfig::durable(1, &dir);
                let durability = config.durability.as_mut().unwrap();
                durability.snapshot_every = 3;
                durability.adaptive = adaptive;
                let (service, handle) = DocsService::spawn_empty(config).unwrap();
                let c = handle.create_campaign_with(published(9), policy).unwrap();
                let w = WorkerId(0);
                if let WorkRequest::Golden(g) = handle.call(Op::request_tasks(c, w)).unwrap() {
                    pass_golden(&handle, c, w, &g);
                }
                for t in 0..6u32 {
                    handle
                        .call(Op::submit_answer(c, Answer::new(w, TaskId(t), 0)))
                        .unwrap();
                    let d = handle.metrics().durability();
                    let appended = 2 + u64::from(t) + 1; // published + golden + answers
                    assert_eq!(d.events_logged, appended, "{label}: answer {t}");
                    assert_eq!(
                        d.log_bytes,
                        wal_bytes(&dir.join("shard-0")),
                        "{label}: answer {t}"
                    );
                }
                drop(handle);
                service.join_all();
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}
