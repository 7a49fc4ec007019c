//! The sharded service runtime: a pool of shard threads, each a thin driver
//! around one [`Shard`](crate::shard::Shard) state machine that owns the
//! campaigns hashed to it. The client side — the op table, the three verbs
//! and the routing [`ServiceHandle`] — lives in [`crate::handle`].
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
//!   `QUEUE_CAPACITY` (1 024) requests. `submit` and `call` park
//!   until a slot frees (backpressure); `try_submit` fails fast with
//!   [`ServiceError::Busy`] and bumps the shard's `busy_rejections` counter
//!   instead of letting the queue grow without limit.
//! * **Failures are data**: every refusal carries a matchable
//!   [`RejectReason`] ([`ServiceError::Rejected`]) whose `Display` output
//!   reproduces the pre-taxonomy message text.
//! * **Durability is event-sourced**: when [`ServiceConfig::durability`] is
//!   set, each shard owns a `CampaignLog` under `dir/shard-<i>`. For a
//!   campaign that opted in (per campaign, through its own
//!   `DocsConfig::durable_flush`), every mutating request is validated,
//!   rendered into a `CampaignEvent`, appended to the log (group-committed
//!   per the campaign's [`FlushPolicy`]), and only then applied. A
//!   campaign joins the log with a baseline record (its encoded state) in
//!   the same group commit. Periodic snapshots (`snapshot_every`)
//!   re-baseline the shard's campaigns that logged events or joined since
//!   their last snapshot file and prune old segments; the log's
//!   background write lane writes the files and deletes the segments. [`DocsService::recover`] rebuilds every
//!   durable campaign from snapshots + log replay — across restarts that
//!   change the shard count.
//! * **One way in**: a pool starts with [`DocsService::spawn_empty`] or
//!   [`DocsService::recover`], campaigns enter through
//!   [`ServiceHandle::create_campaign`], and [`DocsService::join_all`]
//!   returns every campaign's final state.

use crate::handle::ServiceHandle;
use crate::message::RequestEnvelope;
use crate::metrics::{Counter, ServiceMetrics};
use crate::shard::{Input, Recovered, Shard, Wait};
use crate::ticket::{self, Completer, SPIN_BUDGET};
use docs_storage::{recover_tree, AdaptiveCommit, FlushPolicy};
use docs_system::Docs;
use docs_types::{CampaignId, RejectReason, ReplicaRole, ReplicationFrame};
use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

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
    pub(crate) fn ship(&self, frame: ReplicationFrame) -> bool {
        self.0.send(frame).is_ok()
    }
}

impl fmt::Debug for ReplicationSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReplicationSink").finish_non_exhaustive()
    }
}

/// Shared mutable role of a running service (set = follower): shards
/// consult it per request, promotion flips it exactly once.
#[derive(Debug, Clone)]
pub(crate) struct RoleCell(Arc<AtomicBool>);

impl RoleCell {
    pub(crate) fn new(role: ReplicaRole) -> Self {
        RoleCell(Arc::new(AtomicBool::new(role == ReplicaRole::Follower)))
    }

    pub(crate) fn get(&self) -> ReplicaRole {
        if self.0.load(Ordering::SeqCst) {
            ReplicaRole::Follower
        } else {
            ReplicaRole::Primary
        }
    }

    pub(crate) fn set(&self, role: ReplicaRole) {
        self.0
            .store(role == ReplicaRole::Follower, Ordering::SeqCst);
    }
}

/// Where and how the service persists campaign events.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Root directory; each shard logs under `dir/shard-<i>`.
    pub dir: PathBuf,
    /// Recovery's fallback only: the policy a recovered campaign runs
    /// with when its snapshot's config names none. A live campaign's
    /// policy is always its own `DocsConfig::durable_flush`.
    pub default_flush: FlushPolicy,
    /// After this many logged events, a shard snapshots every campaign it
    /// owns that logged events since its last snapshot and prunes its log
    /// segments (bounds replay cost). `0` never snapshots on a cadence.
    pub snapshot_every: u64,
    /// Adaptive group commit for [`FlushPolicy::EveryEvent`] campaigns:
    /// under load a shard grows the commit batch up to fixed bounds (64
    /// events, 256 KiB, 2 ms) and pays one `fdatasync` for the whole
    /// batch, **deferring every acknowledgment until the batch is
    /// durable** — the ack⇒durable contract of `EveryEvent` survives while
    /// the sync cost amortizes like `Batch(n)`. An idle shard flushes
    /// immediately (the batch shrinks back to one event). `None` restores
    /// strict one-sync-per-event behavior.
    pub adaptive: Option<AdaptiveCommit>,
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
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 0,
            durability: None,
            role: ReplicaRole::Primary,
            replication: None,
            trace_sample_every: 0,
        }
    }
}

/// Per-shard ingress bound: at most this many requests sit in a shard's
/// queue (one more may be executing on the shard thread, so worst-case
/// in-shard demand is one more). Deep enough that pipelined clients never
/// notice it, shallow enough that a stalled shard pushes back instead of
/// buffering unboundedly: `submit` and `call` park until a slot frees,
/// `try_submit` fails fast with [`ServiceError::Busy`].
pub(crate) const QUEUE_CAPACITY: usize = 1024;

impl ServiceConfig {
    /// A memory-only pool of `shards` shard threads.
    pub fn sharded(shards: usize) -> Self {
        ServiceConfig {
            shards,
            ..Default::default()
        }
    }

    /// A pool of `shards` shard threads with durability rooted at `dir`:
    /// a `Batch(64)` recovery fallback, a 1024-event snapshot cadence, and
    /// adaptive commit for `EveryEvent` campaigns.
    pub fn durable(shards: usize, dir: impl Into<PathBuf>) -> Self {
        ServiceConfig {
            shards,
            durability: Some(DurabilityConfig {
                dir: dir.into(),
                default_flush: FlushPolicy::Batch(64),
                snapshot_every: 1024,
                adaptive: Some(AdaptiveCommit),
            }),
            ..Default::default()
        }
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

    /// Attaches a replication sink: durable events and snapshots ship
    /// through it as frames (see [`ReplicationSink`]).
    pub fn with_replication(mut self, sink: ReplicationSink) -> Self {
        self.replication = Some(sink);
        self
    }

    fn num_shards(&self) -> usize {
        self.shards.max(1)
    }
}

/// One admitted submission on a shard's ingress queue: the wire envelope
/// plus the shard half of the submitter's one-shot completion slot.
pub(crate) struct Inbound {
    pub(crate) envelope: RequestEnvelope,
    pub(crate) completions: Completer,
}

/// A running DOCS service (the shard-thread pool).
pub struct DocsService {
    joins: Vec<JoinHandle<BTreeMap<CampaignId, Docs>>>,
}

/// The shard thread: a thin driver around one [`Shard`]. It receives the
/// way [`Shard::wait`] says, stops as soon as a simulated crash is flagged —
/// checked once per input, so an adaptive batch close cannot harden the
/// buffer a kill is meant to lose — and steps the shard. The loop ends
/// when every handle (every sender) is dropped.
///
/// On [`Wait::Block`] it polls the queue for up to `spin_budget` (yielding between
/// polls, see [`SPIN_BUDGET`]) before it parks in a blocking receive, so a
/// closed-loop client's next request usually lands while the thread is
/// still running and costs no futex wake. [`Wait::Poll`] never spins: the
/// adaptive batch closes on the first empty poll.
fn shard_loop(
    mut shard: Shard,
    rx: Receiver<Inbound>,
    crash: Arc<AtomicBool>,
    spin_budget: Duration,
) -> BTreeMap<CampaignId, Docs> {
    loop {
        let input = match shard.wait() {
            Wait::Poll => match rx.try_recv() {
                Ok(inbound) => Input::Request(inbound),
                Err(TryRecvError::Empty) => Input::QueueEmpty,
                Err(TryRecvError::Disconnected) => break,
            },
            Wait::Block => {
                // `Some(None)`: every sender is gone.
                let polled = ticket::spin(spin_budget, || match rx.try_recv() {
                    Err(TryRecvError::Empty) => None,
                    received => Some(received.ok()),
                });
                match polled.unwrap_or_else(|| rx.recv().ok()) {
                    Some(inbound) => Input::Request(inbound),
                    None => break,
                }
            }
        };
        if crash.load(Ordering::SeqCst) {
            break;
        }
        shard.step(input);
    }
    shard.stop(crash.load(Ordering::SeqCst))
}

impl DocsService {
    /// Spawns a pool in `config.role` with no campaigns. A primary gains
    /// them through [`ServiceHandle::create_campaign`]; a
    /// [`ReplicaRole::Follower`] refuses every mutation with
    /// [`RejectReason::ReadOnlyReplica`], gains campaigns through the
    /// replication plane (snapshot installs + replicated applies, normally
    /// fed by `docs-replication`'s applier), serves reads locally, and
    /// becomes a primary through [`ServiceHandle::promote_to_primary`].
    /// Durability is honored in either role: a durable follower writes its
    /// own log and is itself recoverable.
    pub fn spawn_empty(
        config: ServiceConfig,
    ) -> Result<(DocsService, ServiceHandle), ServiceError> {
        let metrics = ServiceMetrics::new(config.num_shards());
        Self::spawn_pool(&config, Vec::new(), metrics, QUEUE_CAPACITY)
    }

    /// Rebuilds the full multi-campaign service from its durability
    /// directory: every persisted campaign is restored from its latest
    /// snapshot and the replayed event suffix, then the pool resumes
    /// serving (and logging) exactly where the durable prefix ended.
    ///
    /// The recovering pool may use a different shard count than the one
    /// that wrote the directory — campaigns are re-homed by
    /// [`CampaignId::shard`] and the logs of every past epoch are merged by
    /// per-campaign sequence number. Every campaign's fresh baseline
    /// record is appended to its new shard's log and synced before this
    /// returns; a sync that fails is this call's error, naming the
    /// campaigns.
    pub fn recover(config: ServiceConfig) -> Result<(DocsService, ServiceHandle), ServiceError> {
        let durability = config.durability.clone().ok_or(ServiceError::Rejected(
            RejectReason::RecoverWithoutDurability,
        ))?;
        let tree = recover_tree(&durability.dir).map_err(|e| ServiceError::Rejected(e.into()))?;
        let metrics = ServiceMetrics::new(config.num_shards());
        // Torn segment tails are tolerated crash artifacts — but they are
        // *observations* of a crash, so they surface as a counter instead
        // of being dropped after classification.
        metrics.count(Counter::TornTailRecoveries, tree.torn_tails);
        let mut recovered = Vec::new();
        for (id, campaign) in &tree.campaigns {
            let Some((_, snapshot)) = &campaign.snapshot else {
                // A crash before the campaign's baseline record was synced
                // (it is torn or missing): the creation was never
                // acknowledged, so there is nothing to resurrect.
                continue;
            };
            // Arena-backed views out of the recovered tree: cloning a
            // `PayloadBytes` bumps a refcount on the per-file arena, so no
            // event payload is copied on the way into replay.
            let events: Vec<docs_storage::PayloadBytes> = campaign
                .events
                .iter()
                .map(|(_, payload)| payload.clone())
                .collect();
            let (docs, stats) = Docs::replay(*id, snapshot, &events)
                .map_err(|e| ServiceError::Rejected(e.into()))?;
            metrics.count(Counter::EventsReplayed, stats.applied);
            metrics.count(Counter::ReplayRejected, stats.rejected);
            metrics.count(Counter::SnapshotsLoaded, 1);
            let policy = docs
                .config()
                .durable_flush
                .unwrap_or(durability.default_flush);
            recovered.push((*id, docs, policy, campaign.last_seq));
        }
        Self::spawn_pool(&config, recovered, metrics, QUEUE_CAPACITY)
    }

    /// Builds every shard — opening its log and syncing its recovery
    /// baselines, so a failure is the caller's error rather than a dead
    /// shard thread — then starts one thread per shard, its ingress queue
    /// bounded at `queue_capacity` requests ([`QUEUE_CAPACITY`]; tests pass
    /// others). The handle-level id allocator starts past every recovered
    /// id.
    fn spawn_pool(
        config: &ServiceConfig,
        recovered: Vec<Recovered>,
        metrics: ServiceMetrics,
        queue_capacity: usize,
    ) -> Result<(DocsService, ServiceHandle), ServiceError> {
        let shards = config.num_shards();
        metrics.set_trace_sampling(config.trace_sample_every);
        let role = RoleCell::new(config.role);
        // Shared with every shard: snapshot installs on a follower must
        // advance the allocator past the replicated ids, or the first
        // `create_campaign` after a promotion would collide with them.
        let first_free = recovered.iter().map(|(id, ..)| id.0 + 1).max();
        let next_campaign = Arc::new(AtomicU32::new(first_free.unwrap_or(0)));
        let mut homes: Vec<Vec<Recovered>> = (0..shards).map(|_| Vec::new()).collect();
        for campaign in recovered {
            homes[campaign.0.shard(shards)].push(campaign);
        }
        let pool = homes
            .into_iter()
            .enumerate()
            .map(|(index, recovered)| {
                Shard::new(index, config, recovered, &metrics, &role, &next_campaign)
            })
            .collect::<Result<Vec<Shard>, ServiceError>>()?;
        let crash = Arc::new(AtomicBool::new(false));
        let (senders, joins) = pool
            .into_iter()
            .enumerate()
            .map(|(index, shard)| {
                // The ingress bound is the pool's admission control:
                // blocking submissions park on a full queue, fail-fast ones
                // bounce.
                let (tx, rx) = sync_channel::<Inbound>(queue_capacity);
                let crash = Arc::clone(&crash);
                let join = std::thread::Builder::new()
                    .name(format!("docs-shard-{index}"))
                    .spawn(move || shard_loop(shard, rx, crash, SPIN_BUDGET))
                    .expect("spawn docs shard thread");
                (tx, join)
            })
            .unzip();
        let handle = ServiceHandle {
            shards: Arc::new(senders),
            next_campaign,
            next_correlation: Arc::new(AtomicU64::new(0)),
            metrics,
            crash,
            role,
        };
        Ok((DocsService { joins }, handle))
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
            .flat_map(|j| j.join().expect("docs shard thread panicked"))
            .collect();
        campaigns.sort_unstable_by_key(|(id, _)| *id);
        campaigns
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::handle::Op;
    use crate::message::{BatchOutcome, Request, Response};
    use crate::metrics::OpKind;
    use crate::ticket::{Ticket, TicketWait};
    use docs_kb::table2_example_kb;
    use docs_system::{DocsConfig, WorkRequest};
    use docs_types::{Answer, TaskBuilder, TaskId, WorkerId};
    use std::sync::mpsc::SyncSender;

    /// A published `n`-task campaign whose config names `durable_flush`.
    pub(crate) fn published(n: usize, durable_flush: Option<FlushPolicy>) -> Docs {
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
            durable_flush,
            ..Default::default()
        };
        Docs::publish(&kb, tasks, config).unwrap()
    }

    /// A one-shard memory-only pool serving one 9-task campaign.
    fn service() -> (DocsService, ServiceHandle, CampaignId) {
        let (service, handle) = DocsService::spawn_empty(ServiceConfig::default()).unwrap();
        let c = handle.create_campaign(published(9, None)).unwrap();
        (service, handle, c)
    }

    pub(crate) fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("docs-server-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A one-shard memory-only `shard_loop` spinning for up to
    /// `spin_budget` on an empty queue, on its own thread, with the sender
    /// of its queue.
    fn spawn_shard_loop(
        spin_budget: Duration,
    ) -> (SyncSender<Inbound>, JoinHandle<BTreeMap<CampaignId, Docs>>) {
        let config = ServiceConfig::default();
        let (metrics, role) = (ServiceMetrics::new(1), RoleCell::new(config.role));
        let next_campaign = Arc::new(AtomicU32::new(0));
        let shard = Shard::new(0, &config, vec![], &metrics, &role, &next_campaign).unwrap();
        let (tx, rx) = sync_channel::<Inbound>(4);
        let crash = Arc::new(AtomicBool::new(false));
        let join = std::thread::spawn(move || shard_loop(shard, rx, crash, spin_budget));
        (tx, join)
    }

    /// Sends `request` to a shard loop and waits for its response.
    fn round_trip(tx: &SyncSender<Inbound>, correlation: u64, request: Request) -> Response {
        let (completions, slot) = crate::ticket::completion_slot();
        let envelope = RequestEnvelope {
            correlation,
            request,
            trace: None,
        };
        let sent = tx.send(Inbound {
            envelope,
            completions,
        });
        assert!(sent.is_ok(), "the shard loop is gone");
        slot.wait().unwrap().response
    }

    /// Dropping every sender while the shard thread spins on its empty
    /// queue ends the loop at once — the spin sees the disconnect — not
    /// when the spin budget runs out; the campaigns come back.
    #[test]
    fn dropping_every_sender_ends_a_spinning_shard_loop_at_once() {
        let budget = Duration::from_secs(60);
        let (tx, shard) = spawn_shard_loop(budget);
        let started = std::time::Instant::now();
        let create = Request::CreateCampaign {
            campaign: CampaignId(0),
            docs: Box::new(published(9, None)),
        };
        assert!(matches!(
            round_trip(&tx, 1, create),
            Response::CampaignCreated(_)
        ));
        drop(tx);
        let campaigns = shard.join().unwrap();
        assert!(
            started.elapsed() < budget / 2,
            "the loop outlived its senders by {:?}",
            started.elapsed()
        );
        assert_eq!(
            campaigns.keys().copied().collect::<Vec<_>>(),
            [CampaignId(0)]
        );
    }

    /// A request sent long after the shard's spin budget ran out — the
    /// thread is parked in its blocking receive — is still served, and so
    /// is one sent while the shard spins.
    #[test]
    fn a_request_after_the_shard_parked_is_still_served() {
        let (tx, shard) = spawn_shard_loop(SPIN_BUDGET);
        let c = CampaignId(0);
        let create = Request::CreateCampaign {
            campaign: c,
            docs: Box::new(published(9, None)),
        };
        assert!(matches!(
            round_trip(&tx, 1, create),
            Response::CampaignCreated(_)
        ));
        std::thread::sleep(SPIN_BUDGET * 50);
        let served = round_trip(&tx, 2, Op::request_tasks(c, WorkerId(0)).request);
        assert!(matches!(served, Response::Work(WorkRequest::Golden(_))));
        let served = round_trip(&tx, 3, Op::request_tasks(c, WorkerId(1)).request);
        assert!(matches!(served, Response::Work(WorkRequest::Golden(_))));
        drop(tx);
        assert_eq!(shard.join().unwrap().len(), 1);
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

    /// Submits `answer` as a one-answer HIT and asserts it was accepted.
    fn submit_one(handle: &ServiceHandle, campaign: CampaignId, answer: Answer) {
        let outcome = handle
            .call(Op::submit_answer_batch(campaign, vec![answer]))
            .unwrap();
        assert_eq!((outcome.accepted, outcome.rejected), (1, vec![]));
    }

    /// A pool of `config`'s shards whose ingress queues hold `capacity`
    /// requests each.
    fn spawn_with_capacity(config: ServiceConfig, capacity: usize) -> (DocsService, ServiceHandle) {
        let metrics = ServiceMetrics::new(config.num_shards());
        DocsService::spawn_pool(&config, Vec::new(), metrics, capacity).unwrap()
    }

    #[test]
    fn round_trip_golden_then_tasks_then_report() {
        // The deployed bound, and a one-slot queue.
        for capacity in [QUEUE_CAPACITY, 1] {
            let (service, handle) = spawn_with_capacity(ServiceConfig::default(), capacity);
            let c = handle.create_campaign(published(9, None)).unwrap();
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
            let hit = tasks
                .into_iter()
                .map(|t| Answer::new(w, t, t.index() % 2))
                .collect();
            let outcome = handle.call(Op::submit_answer_batch(c, hit)).unwrap();
            assert_eq!((outcome.accepted, outcome.rejected), (3, vec![]));
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
            assert!(demand <= capacity + 2, "{capacity}: {demand}");
            drop(handle);
            service.join_all();
        }
    }

    /// A multi-client pipelined drive through a tiny bounded ingress queue:
    /// four client threads, each keeping its last submission's ticket in
    /// flight behind its next HIT request, on a two-shard pool whose queues
    /// hold two requests. Backpressure may park submitters but must lose
    /// nothing: the final report accounts for every accepted answer, and
    /// the drained pool shows no stuck depth or unresolved tickets.
    #[test]
    fn bounded_ingress_backpressure_loses_no_answers() {
        let (service, handle) = spawn_with_capacity(ServiceConfig::sharded(2), 2);
        let n = 18;
        let campaign = handle.create_campaign(published(n, None)).unwrap();
        let clients: Vec<_> = (0..4u32)
            .map(|client| {
                let handle = handle.clone();
                std::thread::spawn(move || {
                    // Three workers per client, arriving in turn; a
                    // submission's ack is harvested after the next request.
                    let workers = [0, 4, 8].map(|w| WorkerId(w + client));
                    let mut accepted = 0;
                    let mut golden_ack: Option<Ticket<()>> = None;
                    let mut batch_ack: Option<Ticket<BatchOutcome>> = None;
                    for arrival in 0..200 {
                        let w = workers[arrival % workers.len()];
                        let work = handle.call(Op::request_tasks(campaign, w)).unwrap();
                        if let Some(ticket) = golden_ack.take() {
                            ticket.wait().unwrap();
                        }
                        if let Some(ticket) = batch_ack.take() {
                            accepted += ticket.wait().unwrap().accepted;
                        }
                        match work {
                            WorkRequest::Golden(golden) => {
                                let answers = golden.iter().map(|&g| (g, g.index() % 2)).collect();
                                let op = Op::submit_golden(campaign, w, answers);
                                golden_ack = Some(handle.submit(op).unwrap());
                            }
                            WorkRequest::Tasks(hit) => {
                                let answers = hit
                                    .into_iter()
                                    .map(|t| Answer::new(w, t, (t.index() + w.0 as usize) % 2))
                                    .collect();
                                let op = Op::submit_answer_batch(campaign, answers);
                                batch_ack = Some(handle.submit(op).unwrap());
                            }
                            WorkRequest::Done => break,
                        }
                    }
                    if let Some(ticket) = golden_ack {
                        ticket.wait().unwrap();
                    }
                    if let Some(ticket) = batch_ack {
                        accepted += ticket.wait().unwrap().accepted;
                    }
                    accepted
                })
            })
            .collect();
        let accepted: usize = clients.into_iter().map(|c| c.join().unwrap()).sum();
        let report = handle.call(Op::finish(campaign)).unwrap();
        assert_eq!(
            accepted, report.answers_collected,
            "backpressure lost answers"
        );
        assert!(report.answers_collected >= n * 2, "budget consumed");
        let shards = handle.metrics().all_shards();
        assert!(shards.iter().all(|s| s.queued == 0), "queues drained");
        assert!(shards.iter().all(|s| s.in_flight == 0), "tickets resolved");
        drop(handle);
        service.join_all();
    }

    #[test]
    fn duplicate_answer_is_rejected_with_a_matchable_reason() {
        let (service, handle, c) = service();
        let w = WorkerId(1);
        if let WorkRequest::Golden(g) = handle.call(Op::request_tasks(c, w)).unwrap() {
            pass_golden(&handle, c, w, &g);
        }
        let answer = Answer::new(w, TaskId(0), 0);
        submit_one(&handle, c, answer);
        let outcome = handle
            .call(Op::submit_answer_batch(c, vec![answer]))
            .unwrap();
        // The rejection is typed end to end…
        let reason = RejectReason::DuplicateAnswer {
            worker: w,
            task: TaskId(0),
        };
        assert_eq!(
            (outcome.accepted, outcome.rejected),
            (0, vec![(0, reason.clone())])
        );
        // …and its rendering matches the pre-taxonomy message.
        assert_eq!(
            ServiceError::Rejected(reason).to_string(),
            "request rejected: worker w1 already answered task t0"
        );
        // The service keeps serving after the rejection.
        assert!(handle.call(Op::request_tasks(c, w)).is_ok());
        drop(handle);
        service.join_all();
    }

    #[test]
    fn pipelined_tickets_complete_in_submission_order() {
        let (service, handle, c) = service();
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
        let TicketWait::Ready(outcome) = batch_ticket.try_take() else {
            panic!("batch ack must be ready once a later completion arrived");
        };
        assert_eq!(outcome.unwrap().accepted, hit.len());
        assert_eq!(
            handle.metrics().shard(0).in_flight,
            0,
            "all tickets resolved"
        );
        drop(handle);
        service.join_all();
    }

    #[test]
    fn metrics_count_operations() {
        let (service, handle, c) = service();
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
        service.join_all();
    }

    #[test]
    fn calls_after_shutdown_fail_cleanly() {
        let (service, handle, c) = service();
        let extra = handle.clone();
        drop(handle);
        // Pool still alive: `extra` holds every shard's sender.
        assert!(extra.call(Op::request_tasks(c, WorkerId(3))).is_ok());
        drop(extra);
        service.join_all();
    }

    #[test]
    fn many_threads_share_one_handle() {
        let (service, handle, c) = service();
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
                        h.call(Op::request_tasks(c, w)).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(handle.metrics().stats(OpKind::Assign).count, 4 + 40);
        drop(handle);
        service.join_all();
    }

    #[test]
    fn campaigns_route_to_stable_shards_and_stay_isolated() {
        let (service, handle) = DocsService::spawn_empty(ServiceConfig::sharded(4)).unwrap();
        // Three campaigns with different task counts; ids are dense.
        let c0 = handle.create_campaign(published(9, None)).unwrap();
        let c1 = handle.create_campaign(published(6, None)).unwrap();
        let c2 = handle.create_campaign(published(12, None)).unwrap();
        assert_eq!((c0, c1, c2), (CampaignId(0), CampaignId(1), CampaignId(2)));

        // The same worker id participates in all three campaigns
        // independently: golden state is per campaign.
        let w = WorkerId(0);
        for (campaign, tasks_n) in [(c0, 9), (c1, 6), (c2, 12)] {
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
        // `join_all` returns every campaign across the shards, ascending.
        let campaigns = service.join_all();
        assert_eq!(
            campaigns.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            vec![c0, c1, c2]
        );
    }

    #[test]
    fn create_campaign_ids_are_unique_under_concurrency() {
        let (service, handle) = DocsService::spawn_empty(ServiceConfig::sharded(3)).unwrap();
        let first = handle.create_campaign(published(3, None)).unwrap();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let h = handle.clone();
                std::thread::spawn(move || {
                    (0..3)
                        .map(|_| h.create_campaign(published(3, None)).unwrap())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut ids: Vec<CampaignId> = threads
            .into_iter()
            .flat_map(|t| t.join().unwrap())
            .collect();
        ids.push(first);
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 13, "12 concurrent + 1 first, all distinct");
        drop(handle);
        assert_eq!(service.join_all().len(), 13);
    }

    #[test]
    fn durable_campaign_on_memory_only_pool_is_rejected() {
        let (service, handle, c) = service();
        let err = handle
            .create_campaign(published(3, Some(FlushPolicy::EveryEvent)))
            .unwrap_err();
        // The owning shard refuses it, naming the campaign the handle
        // allocated next.
        let refused = CampaignId(c.0 + 1);
        assert_eq!(
            err,
            ServiceError::Rejected(RejectReason::DurabilityUnavailable { campaign: refused })
        );
        drop(handle);
        service.join_all();
    }

    /// A durable campaign's creation writes its baseline into the WAL, not
    /// a snapshot file: the recovered tree has the campaign's snapshot, at
    /// sequence 0 and equal to the state it was created with, and its
    /// events after it.
    #[test]
    fn durable_round_trip_writes_events_and_snapshots() {
        let dir = tmp_dir("durable-roundtrip");
        let (service, handle) = DocsService::spawn_empty(ServiceConfig::durable(2, &dir)).unwrap();
        let c = handle
            .create_campaign(published(6, Some(FlushPolicy::EveryEvent)))
            .unwrap();
        let created = handle.call(Op::snapshot_state(c)).unwrap();
        let w = WorkerId(0);
        if let WorkRequest::Golden(g) = handle.call(Op::request_tasks(c, w)).unwrap() {
            pass_golden(&handle, c, w, &g);
        }
        submit_one(&handle, c, Answer::new(w, TaskId(0), 0));
        let d = handle.metrics().durability();
        assert_eq!(d.events_logged, 3, "published + golden + answer");
        assert_eq!(d.snapshots_written, 0, "no file is written at creation");
        assert!(d.log_bytes > created.len() as u64, "the baseline is logged");
        drop(handle);
        service.join_all();
        // The on-disk tree recovers the campaign with its events.
        let tree = recover_tree(&dir).unwrap();
        let rec = &tree.campaigns[&c];
        let (seq, snapshot) = rec.snapshot.as_ref().expect("the baseline is a snapshot");
        assert_eq!((*seq, snapshot.to_vec()), (0, created));
        assert_eq!(rec.events.len(), 3, "published + golden + answer");
        assert_eq!(tree.events_recovered, 3, "the baseline is not an event");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batched_submission_round_trip_with_per_answer_rejections() {
        let (service, handle, c) = service();
        let w = WorkerId(0);
        if let WorkRequest::Golden(g) = handle.call(Op::request_tasks(c, w)).unwrap() {
            pass_golden(&handle, c, w, &g);
        }
        submit_one(&handle, c, Answer::new(w, TaskId(0), 0));
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
        // The one-answer batch before it and this one.
        assert_eq!(handle.metrics().stats(OpKind::SubmitBatch).count, 2);
        let report = handle.call(Op::finish(c)).unwrap();
        assert_eq!(report.answers_collected, 3);
        drop(handle);
        service.join_all();
    }

    #[test]
    fn durable_batch_is_one_log_record_and_one_flush() {
        let dir = tmp_dir("durable-batch");
        let (service, handle) = DocsService::spawn_empty(ServiceConfig::durable(1, &dir)).unwrap();
        // EveryEvent: the strictest policy — yet a whole batch must cost
        // one append + one fdatasync, not one per answer.
        let c = handle
            .create_campaign(published(9, Some(FlushPolicy::EveryEvent)))
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
        service.join_all();
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

    /// A durable creation under a live id is refused before it touches the
    /// log, so the live campaign keeps its sequence counter and its on-disk
    /// baseline, and recovery reproduces it.
    #[test]
    fn a_taken_campaign_id_is_refused_before_the_log_is_touched() {
        let dir = tmp_dir("taken-id");
        let (service, handle) = DocsService::spawn_empty(ServiceConfig::durable(1, &dir)).unwrap();
        let c = handle
            .create_campaign(published(9, Some(FlushPolicy::Batch(64))))
            .unwrap();
        let w = WorkerId(0);
        if let WorkRequest::Golden(g) = handle.call(Op::request_tasks(c, w)).unwrap() {
            pass_golden(&handle, c, w, &g);
        }
        for t in 2..6 {
            submit_one(&handle, c, Answer::new(w, TaskId::from(t), t % 2));
        }
        let status = handle.call(Op::status(c)).unwrap();
        let truths = handle.call(Op::peek_report(c)).unwrap().truths;
        handle.next_campaign.store(c.0, Ordering::SeqCst);
        let err = handle
            .create_campaign(published(3, Some(FlushPolicy::Batch(64))))
            .unwrap_err();
        assert!(matches!(err, ServiceError::Rejected(_)), "{err:?}");
        drop(handle);
        service.join_all();
        let (service, handle) = DocsService::recover(ServiceConfig::durable(1, &dir)).unwrap();
        assert_eq!(handle.call(Op::status(c)).unwrap(), status);
        assert_eq!(handle.call(Op::peek_report(c)).unwrap().truths, truths);
        drop(handle);
        service.join_all();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Recovery baselines that cannot be made durable fail `recover`
    /// itself, naming every campaign whose baseline the failed flush held,
    /// instead of killing a shard thread behind an `Ok` or serving state
    /// that is not on disk. Once the disk takes writes again the same
    /// directory recovers.
    #[test]
    fn an_unwritable_recovery_baseline_fails_recover() {
        let dir = tmp_dir("baseline-unwritable");
        let (service, handle) = DocsService::spawn_empty(ServiceConfig::durable(1, &dir)).unwrap();
        let campaigns: Vec<CampaignId> = (0..2)
            .map(|_| {
                handle
                    .create_campaign(published(3, Some(FlushPolicy::Batch(64))))
                    .unwrap()
            })
            .collect();
        handle.simulate_crash();
        drop(handle);
        service.join_all();
        let fault = docs_storage::fail_flushes(&dir);
        match DocsService::recover(ServiceConfig::durable(1, &dir)) {
            Ok(_) => panic!("recover succeeded without syncing the baselines"),
            Err(e) => {
                for c in &campaigns {
                    assert!(e.to_string().contains(&format!("campaign {c}")), "{e}");
                }
            }
        }
        drop(fault);
        let (service, handle) = DocsService::recover(ServiceConfig::durable(1, &dir)).unwrap();
        for &c in &campaigns {
            handle.call(Op::status(c)).unwrap();
        }
        drop(handle);
        service.join_all();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_on_empty_directory_yields_an_empty_pool() {
        let dir = tmp_dir("recover-empty");
        let (service, handle) = DocsService::recover(ServiceConfig::durable(2, &dir)).unwrap();
        // No campaigns recovered: not even the first id exists.
        let err = handle
            .call(Op::request_tasks(CampaignId(0), WorkerId(0)))
            .unwrap_err();
        assert_eq!(
            err,
            ServiceError::Rejected(RejectReason::UnknownCampaign(CampaignId(0)))
        );
        // But new campaigns can be created (durably) right away.
        let c = handle
            .create_campaign(published(3, Some(FlushPolicy::Batch(64))))
            .unwrap();
        assert_eq!(c, CampaignId(0));
        drop(handle);
        assert_eq!(service.join_all().len(), 1);
    }

    /// Bytes across the `*.wal` segments in one shard's log directory, and
    /// how many segment files there are.
    fn wal_files(dir: &std::path::Path) -> (u64, usize) {
        let segments: Vec<u64> = std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "wal"))
            .map(|path| std::fs::metadata(path).unwrap().len())
            .collect();
        (segments.iter().sum(), segments.len())
    }

    /// The gauges report what is on disk. The creation's baseline record
    /// is counted in `log_bytes` as soon as the creation is acknowledged,
    /// and no snapshot file is written for it. A snapshot cycle every 3
    /// events queues snapshots and segment deletions on the log's write
    /// lane, which is held while the answers arrive: `log_bytes` must
    /// follow every append and keep counting the superseded segments the
    /// lane has not deleted yet, and `snapshots_written` must not count a
    /// snapshot that has only been queued. Released, the lane lands both
    /// snapshots and both deletions before `finish` is acknowledged.
    #[test]
    fn shard_log_gauges_match_the_log_after_every_answer() {
        for policy in [
            FlushPolicy::EveryEvent,
            FlushPolicy::Batch(1),
            FlushPolicy::Batch(8),
        ] {
            for adaptive in [None, Some(AdaptiveCommit)] {
                let label = format!("{policy:?}-adaptive-{}", adaptive.is_some());
                let dir = tmp_dir(&format!("log-gauges-{label}"));
                let shard_dir = dir.join("shard-0");
                let mut config = ServiceConfig::durable(1, &dir);
                let durability = config.durability.as_mut().unwrap();
                durability.snapshot_every = 3;
                durability.adaptive = adaptive;
                let (service, handle) = DocsService::spawn_empty(config).unwrap();
                let c = handle.create_campaign(published(9, Some(policy))).unwrap();
                let d = handle.metrics().durability();
                let baseline = handle.call(Op::snapshot_state(c)).unwrap().len() as u64;
                assert_eq!(d.log_bytes, wal_files(&shard_dir).0, "{label}: created");
                assert!(d.log_bytes > baseline, "{label}: the baseline is logged");
                assert_eq!(d.events_logged, 1, "{label}: only `Published` is an event");
                let w = WorkerId(0);
                if let WorkRequest::Golden(g) = handle.call(Op::request_tasks(c, w)).unwrap() {
                    pass_golden(&handle, c, w, &g);
                }
                assert_eq!(handle.metrics().durability().snapshots_written, 0);
                let hold = docs_storage::hold_lanes(&dir);
                for t in 0..6u32 {
                    submit_one(&handle, c, Answer::new(w, TaskId(t), 0));
                    let d = handle.metrics().durability();
                    let appended = 2 + u64::from(t) + 1; // published + golden + answers
                    assert_eq!(d.events_logged, appended, "{label}: answer {t}");
                    assert_eq!(d.log_bytes, wal_files(&shard_dir).0, "{label}: answer {t}");
                    assert_eq!(d.snapshots_written, 0, "{label}: answer {t}");
                }
                // Cycles after answers 1 and 4: three segments on disk.
                assert_eq!(wal_files(&shard_dir).1, 3, "{label}");
                drop(hold);
                handle.call(Op::finish(c)).unwrap();
                let d = handle.metrics().durability();
                assert_eq!(d.snapshots_written, 2, "{label}");
                assert_eq!((d.log_bytes, 1), wal_files(&shard_dir), "{label}");
                drop(handle);
                service.join_all();
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}
