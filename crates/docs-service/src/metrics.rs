//! Per-operation and per-shard service accounting, plus the service's
//! observability surface: latency distributions, request traces, the
//! control-plane journal, and one-call exposition of all of it.
//!
//! Figure 8(b) reports the *worst-case* assignment time; a deployed service
//! must measure it while other requests contend for the inference state.
//! [`ServiceMetrics`] is shared (via `Arc`) between every shard thread and
//! every client handle:
//!
//! * per-operation latency as **lock-free log-bucketed histograms**
//!   ([`docs_obs::AtomicHistogram`]), one per `OpKind` × shard — recording
//!   is a handful of relaxed `fetch_add`s (≈ 10–20 ns), and any quantile
//!   (p50/p99/p999) is available per kind, per shard, or merged,
//! * per-shard queue depth (current + high-water mark) and service-time
//!   counters on atomics, updated on the enqueue/dequeue hot path,
//! * pipeline-stage histograms: group-commit batch size and fdatasync
//!   duration, replication ship→applied lag, router hop time, and
//!   migration fence windows,
//! * a sampled-request [`FlightRecorder`] and a [`ControlJournal`] of
//!   promotions / fences / migrations / failures,
//! * [`ServiceMetrics::render_prometheus`] and
//!   [`ServiceMetrics::snapshot_json`]: every counter, gauge, and
//!   histogram above in one coherent exposition.

use docs_obs::{
    AtomicHistogram, ControlJournal, Exposition, FlightRecorder, LatencyHistogram, MetricKind,
    TraceContext,
};
use docs_types::TraceId;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Decrements a gauge without wrapping below zero; returns the value seen
/// before a successful decrement (`None` when the gauge was already zero).
fn saturating_dec(counter: &AtomicUsize) -> Option<usize> {
    counter
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| d.checked_sub(1))
        .ok()
}

/// The operation kinds the service distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// OTA assignment (`RequestWork`).
    Assign,
    /// Golden-HIT submission.
    Golden,
    /// Answer submission (incremental TI).
    Submit,
    /// Batched answer submission (one round-trip, one log record).
    SubmitBatch,
    /// Final inference + report.
    Finish,
    /// Campaign registration (control plane).
    Create,
    /// Pure read (status, peeked report, serialized state) — the
    /// operations a follower replica serves locally.
    Read,
    /// Replication plane: snapshot install or replicated event apply on a
    /// follower.
    Replicate,
    /// Cluster control plane: fencing, migration intake, directory
    /// installs — ownership bookkeeping, not campaign work.
    Cluster,
}

impl OpKind {
    /// Every kind, in declaration order. The histogram table, exposition,
    /// and [`OpKind::index`] are all derived from this array, so adding a
    /// variant means adding it here (and the cross-check test fails if the
    /// orders drift).
    pub const ALL: [OpKind; 9] = [
        OpKind::Assign,
        OpKind::Golden,
        OpKind::Submit,
        OpKind::SubmitBatch,
        OpKind::Finish,
        OpKind::Create,
        OpKind::Read,
        OpKind::Replicate,
        OpKind::Cluster,
    ];

    #[inline]
    fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case label used by the exposition.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Assign => "assign",
            OpKind::Golden => "golden",
            OpKind::Submit => "submit",
            OpKind::SubmitBatch => "submit_batch",
            OpKind::Finish => "finish",
            OpKind::Create => "create",
            OpKind::Read => "read",
            OpKind::Replicate => "replicate",
            OpKind::Cluster => "cluster",
        }
    }
}

/// Derived from the enum's own [`OpKind::ALL`] — no hand-maintained count
/// to fall out of sync when a kind is added.
const NUM_KINDS: usize = OpKind::ALL.len();

/// Aggregated statistics for one operation kind, derived from its
/// latency histogram (count and sum are exact; quantiles live on
/// [`ServiceMetrics::op_histogram`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpStats {
    /// Number of completed operations.
    pub count: u64,
    /// Total service time across them.
    pub total: Duration,
    /// Worst single-operation service time (Figure 8(b)'s metric).
    pub max: Duration,
}

/// `total / count`, zero when nothing was recorded. u128 math: a count
/// passes u32::MAX on a long-lived service, where a `Duration / u32`
/// division truncates — and panics outright at exact multiples of 2^32.
fn mean_duration(total: Duration, count: u64) -> Duration {
    if count == 0 {
        Duration::ZERO
    } else {
        Duration::from_nanos((total.as_nanos() / count as u128) as u64)
    }
}

impl OpStats {
    /// Mean service time, or zero when nothing was recorded.
    pub fn mean(&self) -> Duration {
        mean_duration(self.total, self.count)
    }
}

/// Lock-free per-shard counters (the shard thread and all handles touch
/// these on every request).
#[derive(Debug, Default)]
struct ShardCounters {
    /// Requests currently enqueued for (or being processed by) the shard,
    /// *plus* blocking submitters parked on its bounded ingress queue —
    /// the increment happens at admission-attempt time, so the gauge
    /// measures total demand on the shard and can exceed the configured
    /// queue capacity while backpressure is engaged.
    depth: AtomicUsize,
    /// High-water mark of `depth`.
    max_depth: AtomicUsize,
    /// Tickets issued against this shard and not yet resolved (gauge):
    /// completions the shard still owes, or that clients have not yet
    /// harvested/dropped.
    in_flight: AtomicUsize,
    /// Fail-fast submissions refused because the shard's bounded ingress
    /// queue was full (counter).
    busy_rejections: AtomicU64,
    /// Requests the shard has finished processing.
    processed: AtomicU64,
    /// Total busy time, in nanoseconds.
    busy_nanos: AtomicU64,
    /// Worst single-request service time, in nanoseconds.
    max_nanos: AtomicU64,
    /// Events appended to this shard's campaign log (gauge).
    events_logged: AtomicU64,
    /// Group-commit flushes this shard's log has performed (gauge).
    log_flushes: AtomicU64,
    /// Wall time of the most recent flush, in nanoseconds (gauge).
    last_flush_nanos: AtomicU64,
    /// Worst single flush, in nanoseconds.
    max_flush_nanos: AtomicU64,
    /// Bytes across this shard's on-disk log segments (gauge).
    log_bytes: AtomicU64,
}

/// Snapshot of one shard's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Requests currently queued on (or executing at) the shard, plus
    /// blocking submitters parked on its bounded ingress queue — total
    /// demand, which can exceed `ServiceConfig::queue_capacity` while
    /// backpressure is engaged.
    pub queued: usize,
    /// Deepest `queued` has ever been (demand high-water mark; same
    /// parked-submitter caveat as `queued`).
    pub max_queued: usize,
    /// Tickets issued against the shard and not yet resolved.
    pub in_flight: usize,
    /// Fail-fast submissions refused with `Busy` because the shard's
    /// bounded ingress queue was full.
    pub busy_rejections: u64,
    /// Requests processed by the shard.
    pub processed: u64,
    /// Cumulative busy time.
    pub busy: Duration,
    /// Worst single-request service time on this shard.
    pub max_latency: Duration,
    /// Events appended to this shard's campaign log.
    pub events_logged: u64,
    /// Group-commit flushes performed by this shard's log.
    pub log_flushes: u64,
    /// Wall time of the shard's most recent log flush.
    pub last_flush: Duration,
    /// Worst single log flush on this shard.
    pub max_flush: Duration,
    /// Bytes across the shard's on-disk log segments.
    pub log_bytes: u64,
}

/// Service-wide durability counters (replay happens before the pool runs,
/// snapshots on shard threads; both are low-frequency).
#[derive(Debug, Default)]
struct DurabilityCounters {
    events_replayed: AtomicU64,
    replay_rejected: AtomicU64,
    snapshots_loaded: AtomicU64,
    snapshots_written: AtomicU64,
    torn_tail_recoveries: AtomicU64,
}

/// Service-wide replication counters: the shipping side on a primary, the
/// applying side on a follower (a service plays one role at a time, so the
/// other side's counters simply stay zero).
#[derive(Debug, Default)]
struct ReplicationCounters {
    frames_shipped: AtomicU64,
    events_shipped: AtomicU64,
    events_applied: AtomicU64,
    snapshots_installed: AtomicU64,
    read_only_rejections: AtomicU64,
}

/// Service-wide cluster-routing counters: what the ownership admission
/// check decided, and what the migration machinery did to this node.
#[derive(Debug, Default)]
struct RoutingCounters {
    wrong_node_rejections: AtomicU64,
    maps_installed: AtomicU64,
    campaigns_fenced: AtomicU64,
    migrations_adopted: AtomicU64,
    forwarded_submissions: AtomicU64,
}

/// Pipeline-stage histograms: where a durable replicated request's time
/// goes *between* the per-operation service times — group commit, the
/// replication stream, routing, and migrations.
#[derive(Debug, Default)]
struct PipelineHistograms {
    /// Events per group-commit flush (a size distribution, recorded
    /// through the nanosecond histogram machinery — buckets are unitless).
    flush_batch_events: AtomicHistogram,
    /// Wall time of one WAL flush (write + fdatasync), ns.
    flush_sync_ns: AtomicHistogram,
    /// Ship→applied lag of replicated events as observed by the follower
    /// applier, ns.
    replication_lag_ns: AtomicHistogram,
    /// One routing hop (map consult / redirect absorb + retry), ns.
    router_hop_ns: AtomicHistogram,
    /// Write-unavailability window of one campaign migration, ns.
    fence_window_ns: AtomicHistogram,
}

/// Trace sampling state: `every == 0` disables tracing; `every == n`
/// samples every `n`-th submission (round-robin over a shared counter).
#[derive(Debug, Default)]
struct TraceSampling {
    every: AtomicU64,
    counter: AtomicU64,
}

/// Replication-hub health as published into the metrics surface, so the
/// exposition can cover replication without callers reaching for the
/// hub's bespoke stats methods. The shape mirrors the hub's `HubStats` +
/// `FollowerLag` (docs-replication publishes it; docs-service only
/// renders it — the dependency points this way because docs-replication
/// already depends on docs-service).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HubHealth {
    /// Frames fanned out (event and snapshot frames alike).
    pub frames_shipped: u64,
    /// Events carried inside event frames.
    pub events_shipped: u64,
    /// Encoded wire bytes of event frames fanned out.
    pub bytes_shipped: u64,
    /// Encoded wire bytes of snapshot frames fanned out.
    pub snapshot_bytes_shipped: u64,
    /// Currently subscribed followers.
    pub followers: usize,
    /// Followers cut off for trailing the pump beyond their stream bound.
    pub followers_dropped: u64,
    /// Per-follower lag, one entry per subscribed follower.
    pub follower_lags: Vec<FollowerLagSample>,
}

/// One follower's lag as published into the exposition.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FollowerLagSample {
    /// The name the follower subscribed under.
    pub name: String,
    /// Shipped-but-unacked events, summed across campaigns.
    pub lag_events: u64,
    /// Highest acked per-campaign watermark (coarse progress indicator).
    pub acked_max: u64,
}

/// Aggregate cluster-routing view across the whole service — surfaced by
/// [`ServiceMetrics::routing`] next to the replication counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoutingStats {
    /// Mutations refused with `RejectReason::WrongNode` (fenced, in
    /// intake, or directory-placed elsewhere).
    pub wrong_node_rejections: u64,
    /// Cluster maps installed (counted once per shard per accepted
    /// install).
    pub maps_installed: u64,
    /// Campaigns fenced away from this node.
    pub campaigns_fenced: u64,
    /// Campaigns adopted through a completed migration intake.
    pub migrations_adopted: u64,
    /// Submissions that reached this node after a `WrongNode` redirect
    /// elsewhere — the forwarded tail of a migration's fence window
    /// (counted by the router on successful retry).
    pub forwarded_submissions: u64,
}

impl std::fmt::Display for RoutingStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "routing: {} wrong-node rejections, {} maps installed, \
             {} campaigns fenced, {} migrations adopted, {} forwarded submissions",
            self.wrong_node_rejections,
            self.maps_installed,
            self.campaigns_fenced,
            self.migrations_adopted,
            self.forwarded_submissions
        )
    }
}

/// Aggregate replication view across the whole service.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicationStats {
    /// Frames handed to the replication sink (primary side).
    pub frames_shipped: u64,
    /// Durable events shipped inside those frames (primary side).
    pub events_shipped: u64,
    /// Replicated events applied through the state machine (follower side).
    pub events_applied: u64,
    /// Snapshots installed from the stream (follower side).
    pub snapshots_installed: u64,
    /// Mutations refused with `RejectReason::ReadOnlyReplica` (follower
    /// side).
    pub read_only_rejections: u64,
}

/// Aggregate durability/recovery view across the whole service.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// Events appended across every shard's campaign log.
    pub events_logged: u64,
    /// Group-commit flushes across every shard.
    pub log_flushes: u64,
    /// Most recent flush among the shards (max of the per-shard gauges).
    pub last_flush: Duration,
    /// Worst flush across all shards.
    pub max_flush: Duration,
    /// Total on-disk log bytes across shards.
    pub log_bytes: u64,
    /// Events replayed during [`recovery`](crate::DocsService::recover).
    pub events_replayed: u64,
    /// Replayed events whose application was (deterministically) rejected.
    pub replay_rejected: u64,
    /// Campaign snapshots loaded during recovery.
    pub snapshots_loaded: u64,
    /// Campaign snapshots written while serving (creation, cadence,
    /// recovery re-baseline).
    pub snapshots_written: u64,
    /// Log segments whose recovery scan ended in a torn record — the
    /// expected artifact of a crash mid-append, tolerated and counted
    /// (previously classified by `Wal::replay_all` but silently dropped
    /// after recovery).
    pub torn_tail_recoveries: u64,
}

impl ShardStats {
    /// Mean per-request service time on this shard.
    pub fn mean_latency(&self) -> Duration {
        mean_duration(self.busy, self.processed)
    }
}

/// One shard's per-kind latency histograms.
type KindHistograms = [AtomicHistogram; NUM_KINDS];

fn new_kind_histograms() -> KindHistograms {
    std::array::from_fn(|_| AtomicHistogram::new())
}

/// Thread-safe recorder shared by the shard pool and all handles.
#[derive(Debug, Clone)]
pub struct ServiceMetrics {
    /// Per-shard × per-kind latency histograms (lock-free recording).
    ops: Arc<Vec<KindHistograms>>,
    shards: Arc<Vec<ShardCounters>>,
    durability: Arc<DurabilityCounters>,
    replication: Arc<ReplicationCounters>,
    routing: Arc<RoutingCounters>,
    pipeline: Arc<PipelineHistograms>,
    hub: Arc<Mutex<Option<HubHealth>>>,
    journal: Arc<ControlJournal>,
    flight: Arc<FlightRecorder>,
    trace: Arc<TraceSampling>,
}

impl Default for ServiceMetrics {
    fn default() -> Self {
        Self::new(1)
    }
}

impl ServiceMetrics {
    /// Creates an empty recorder for a pool of `shards` shards.
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        ServiceMetrics {
            ops: Arc::new((0..shards).map(|_| new_kind_histograms()).collect()),
            shards: Arc::new((0..shards).map(|_| ShardCounters::default()).collect()),
            durability: Arc::new(DurabilityCounters::default()),
            replication: Arc::new(ReplicationCounters::default()),
            routing: Arc::new(RoutingCounters::default()),
            pipeline: Arc::new(PipelineHistograms::default()),
            hub: Arc::new(Mutex::new(None)),
            journal: Arc::new(ControlJournal::new()),
            flight: Arc::new(FlightRecorder::new()),
            trace: Arc::new(TraceSampling::default()),
        }
    }

    /// Number of shards being tracked.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Records one completed operation with no shard attribution (client
    /// side wrappers; shard threads use [`ServiceMetrics::record_on`]).
    /// Lands in shard 0's histogram table.
    pub fn record(&self, kind: OpKind, elapsed: Duration) {
        self.record_on(0, kind, elapsed);
    }

    /// Records one completed operation against the shard that served it.
    /// Lock-free: a few relaxed `fetch_add`s on the shard's histogram.
    pub fn record_on(&self, shard: usize, kind: OpKind, elapsed: Duration) {
        self.ops[shard][kind.index()].record(elapsed);
    }

    /// Snapshot of one operation kind's aggregate statistics across all
    /// shards (count and total are exact; quantiles via
    /// [`ServiceMetrics::op_histogram`]).
    pub fn stats(&self, kind: OpKind) -> OpStats {
        let mut out = OpStats::default();
        for shard in self.ops.iter() {
            let h = &shard[kind.index()];
            out.count += h.count();
            out.total += Duration::from_nanos(h.sum_ns());
            out.max = out.max.max(Duration::from_nanos(h.max_ns()));
        }
        out
    }

    /// One kind's full latency distribution, merged across shards.
    pub fn op_histogram(&self, kind: OpKind) -> LatencyHistogram {
        let mut merged = LatencyHistogram::new();
        for shard in self.ops.iter() {
            merged.merge(&shard[kind.index()].snapshot());
        }
        merged
    }

    /// One kind's latency distribution on one shard.
    pub fn op_histogram_on(&self, shard: usize, kind: OpKind) -> LatencyHistogram {
        self.ops[shard][kind.index()].snapshot()
    }

    /// Total operations recorded across all kinds.
    pub fn total_ops(&self) -> u64 {
        self.ops
            .iter()
            .flat_map(|shard| shard.iter())
            .map(|h| h.count())
            .sum()
    }

    /// Notes a request entering a shard's queue (called by handles before
    /// sending); returns the queue depth including it.
    ///
    /// The depth is *provisional* until the send outcome is known: publish
    /// it as the high-water mark with [`ServiceMetrics::shard_send_recorded`]
    /// once the request actually reached the queue, or roll it back with
    /// [`ServiceMetrics::shard_enqueue_failed`]. Recording the mark eagerly
    /// here was the read-after-add race: a failed send left a phantom
    /// `max_depth` no real request ever reached.
    pub fn shard_enqueued(&self, shard: usize) -> usize {
        self.shards[shard].depth.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Publishes the high-water mark for a request that was successfully
    /// enqueued at `depth` (the value [`ServiceMetrics::shard_enqueued`]
    /// returned).
    pub fn shard_send_recorded(&self, shard: usize, depth: usize) {
        self.shards[shard]
            .max_depth
            .fetch_max(depth, Ordering::Relaxed);
    }

    /// Rolls back [`ServiceMetrics::shard_enqueued`] when the send failed:
    /// the request never entered the queue, so neither the depth nor the
    /// high-water mark may keep counting it.
    pub fn shard_enqueue_failed(&self, shard: usize) {
        // Saturating: a stray rollback on an empty gauge must not wrap to
        // usize::MAX (a wrapped depth would also poison every later
        // high-water mark).
        saturating_dec(&self.shards[shard].depth);
    }

    /// Notes a ticket issued against `shard` (one operation entering
    /// flight). Paired with [`ServiceMetrics::ticket_resolved`] when the
    /// ticket resolves or is dropped.
    pub fn ticket_issued(&self, shard: usize) {
        self.shards[shard].in_flight.fetch_add(1, Ordering::Relaxed);
    }

    /// Notes a ticket resolved (completion taken, ticket dropped, or the
    /// submission rolled back). Saturating for the same reason as the
    /// queue-depth gauge: a stray decrement must degrade to "slightly
    /// wrong", never wrap to `usize::MAX` in-flight tickets.
    pub fn ticket_resolved(&self, shard: usize) {
        saturating_dec(&self.shards[shard].in_flight);
    }

    /// Counts one fail-fast submission refused because `shard`'s bounded
    /// ingress queue was full.
    pub fn busy_rejection(&self, shard: usize) {
        self.shards[shard]
            .busy_rejections
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Notes a request fully processed by its shard thread.
    pub fn shard_processed(&self, shard: usize, elapsed: Duration) {
        let c = &self.shards[shard];
        // Saturating for the same reason as in `shard_enqueue_failed`: the
        // gauge must degrade to "slightly wrong", never to a wrapped
        // usize::MAX queue depth.
        saturating_dec(&c.depth);
        c.processed.fetch_add(1, Ordering::Relaxed);
        let nanos = elapsed.as_nanos().min(u64::MAX as u128) as u64;
        c.busy_nanos.fetch_add(nanos, Ordering::Relaxed);
        c.max_nanos.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Publishes a shard's campaign-log gauges (called by the shard thread
    /// on flush boundaries and at shutdown).
    pub fn shard_log_observed(
        &self,
        shard: usize,
        events_logged: u64,
        flushes: u64,
        last_flush: Duration,
        max_flush: Duration,
        log_bytes: u64,
    ) {
        let c = &self.shards[shard];
        c.events_logged.store(events_logged, Ordering::Relaxed);
        c.log_flushes.store(flushes, Ordering::Relaxed);
        c.last_flush_nanos.store(
            last_flush.as_nanos().min(u64::MAX as u128) as u64,
            Ordering::Relaxed,
        );
        c.max_flush_nanos.fetch_max(
            max_flush.as_nanos().min(u64::MAX as u128) as u64,
            Ordering::Relaxed,
        );
        c.log_bytes.store(log_bytes, Ordering::Relaxed);
    }

    /// Records events (and deterministic rejections) replayed during
    /// recovery.
    pub fn replay_recorded(&self, applied: u64, rejected: u64) {
        self.durability
            .events_replayed
            .fetch_add(applied, Ordering::Relaxed);
        self.durability
            .replay_rejected
            .fetch_add(rejected, Ordering::Relaxed);
    }

    /// Records one campaign snapshot loaded during recovery.
    pub fn snapshot_loaded(&self) {
        self.durability
            .snapshots_loaded
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records one campaign snapshot written while serving.
    pub fn snapshot_written(&self) {
        self.durability
            .snapshots_written
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records log segments whose recovery scan ended in a torn record
    /// (tolerated crash artifacts, surfaced instead of dropped).
    pub fn torn_tail_recovered(&self, segments: u64) {
        self.durability
            .torn_tail_recoveries
            .fetch_add(segments, Ordering::Relaxed);
    }

    /// Records one replication frame (carrying `events` durable events)
    /// handed to the replication sink.
    pub fn frame_shipped(&self, events: u64) {
        self.replication
            .frames_shipped
            .fetch_add(1, Ordering::Relaxed);
        self.replication
            .events_shipped
            .fetch_add(events, Ordering::Relaxed);
    }

    /// Records one replicated event applied on a follower.
    pub fn replicated_applied(&self) {
        self.replication
            .events_applied
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records one snapshot installed from the replication stream.
    pub fn snapshot_installed(&self) {
        self.replication
            .snapshots_installed
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one mutation refused because this service is a read-only
    /// follower.
    pub fn read_only_rejection(&self) {
        self.replication
            .read_only_rejections
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one mutation refused with `RejectReason::WrongNode`.
    pub fn wrong_node_rejection(&self) {
        self.routing
            .wrong_node_rejections
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one accepted cluster-map install (per shard).
    pub fn map_installed(&self) {
        self.routing.maps_installed.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one campaign fenced away from this node.
    pub fn campaign_fenced(&self) {
        self.routing
            .campaigns_fenced
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one campaign adopted through migration intake.
    pub fn migration_adopted(&self) {
        self.routing
            .migrations_adopted
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one submission that landed here after a `WrongNode`
    /// redirect elsewhere (recorded by the routing client on successful
    /// retry against this node).
    pub fn forwarded_submission(&self) {
        self.routing
            .forwarded_submissions
            .fetch_add(1, Ordering::Relaxed);
    }

    // ---- pipeline-stage histograms -------------------------------------

    /// Records one group-commit flush: `events` in the batch, `sync` wall
    /// time for the write + fdatasync (published by the storage layer's
    /// flush observer).
    pub fn flush_recorded(&self, events: u64, sync: Duration) {
        self.pipeline.flush_batch_events.record_ns(events);
        self.pipeline.flush_sync_ns.record(sync);
    }

    /// Records one replicated event's ship→applied lag as observed by the
    /// follower applier.
    pub fn replication_lag_recorded(&self, lag: Duration) {
        self.pipeline.replication_lag_ns.record(lag);
    }

    /// Records one routing hop (map consult, or redirect absorb + retry).
    pub fn router_hop_recorded(&self, hop: Duration) {
        self.pipeline.router_hop_ns.record(hop);
    }

    /// Records one campaign migration's write-fence window.
    pub fn fence_window_recorded(&self, window: Duration) {
        self.pipeline.fence_window_ns.record(window);
    }

    /// Distribution of events per group-commit flush (bucket values are
    /// counts, not nanoseconds).
    pub fn flush_batch_histogram(&self) -> LatencyHistogram {
        self.pipeline.flush_batch_events.snapshot()
    }

    /// Distribution of WAL flush (write + fdatasync) wall times.
    pub fn flush_sync_histogram(&self) -> LatencyHistogram {
        self.pipeline.flush_sync_ns.snapshot()
    }

    /// Distribution of replication ship→applied lag.
    pub fn replication_lag_histogram(&self) -> LatencyHistogram {
        self.pipeline.replication_lag_ns.snapshot()
    }

    /// Distribution of routing hop times.
    pub fn router_hop_histogram(&self) -> LatencyHistogram {
        self.pipeline.router_hop_ns.snapshot()
    }

    /// Distribution of migration fence windows.
    pub fn fence_window_histogram(&self) -> LatencyHistogram {
        self.pipeline.fence_window_ns.snapshot()
    }

    // ---- hub health ----------------------------------------------------

    /// Publishes the replication hub's health (called by the hub pump, so
    /// the exposition always has a fresh copy without polling the hub).
    pub fn hub_observed(&self, health: HubHealth) {
        *self.hub.lock() = Some(health);
    }

    /// The most recently published hub health, if a hub is attached.
    pub fn hub_health(&self) -> Option<HubHealth> {
        self.hub.lock().clone()
    }

    // ---- tracing and the control journal -------------------------------

    /// Enables trace sampling: every `every`-th submission carries a
    /// [`TraceContext`] (0 disables tracing; 1 traces everything).
    pub fn set_trace_sampling(&self, every: u64) {
        self.trace.every.store(every, Ordering::Relaxed);
    }

    /// Current sampling interval (0 = tracing disabled).
    pub fn trace_sampling(&self) -> u64 {
        self.trace.every.load(Ordering::Relaxed)
    }

    /// Starts a trace for this submission if the sampler selects it. The
    /// unsampled path is one relaxed load.
    pub fn maybe_trace(&self, correlation: u64) -> Option<TraceContext> {
        let every = self.trace.every.load(Ordering::Relaxed);
        if every == 0 {
            return None;
        }
        let n = self.trace.counter.fetch_add(1, Ordering::Relaxed);
        if n.is_multiple_of(every) {
            Some(TraceContext::start(TraceId(correlation)))
        } else {
            None
        }
    }

    /// The flight recorder holding recent sampled traces.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// The control-plane journal.
    pub fn journal(&self) -> &ControlJournal {
        &self.journal
    }

    // ---- aggregate views ----------------------------------------------

    /// Aggregate cluster-routing view.
    pub fn routing(&self) -> RoutingStats {
        RoutingStats {
            wrong_node_rejections: self.routing.wrong_node_rejections.load(Ordering::Relaxed),
            maps_installed: self.routing.maps_installed.load(Ordering::Relaxed),
            campaigns_fenced: self.routing.campaigns_fenced.load(Ordering::Relaxed),
            migrations_adopted: self.routing.migrations_adopted.load(Ordering::Relaxed),
            forwarded_submissions: self.routing.forwarded_submissions.load(Ordering::Relaxed),
        }
    }

    /// Aggregate replication view (shipping side on a primary, applying
    /// side on a follower).
    pub fn replication(&self) -> ReplicationStats {
        ReplicationStats {
            frames_shipped: self.replication.frames_shipped.load(Ordering::Relaxed),
            events_shipped: self.replication.events_shipped.load(Ordering::Relaxed),
            events_applied: self.replication.events_applied.load(Ordering::Relaxed),
            snapshots_installed: self.replication.snapshots_installed.load(Ordering::Relaxed),
            read_only_rejections: self
                .replication
                .read_only_rejections
                .load(Ordering::Relaxed),
        }
    }

    /// Aggregate durability view: per-shard log gauges summed (last-flush
    /// reported as the max across shards) plus the recovery counters.
    pub fn durability(&self) -> DurabilityStats {
        let mut stats = DurabilityStats {
            events_replayed: self.durability.events_replayed.load(Ordering::Relaxed),
            replay_rejected: self.durability.replay_rejected.load(Ordering::Relaxed),
            snapshots_loaded: self.durability.snapshots_loaded.load(Ordering::Relaxed),
            snapshots_written: self.durability.snapshots_written.load(Ordering::Relaxed),
            torn_tail_recoveries: self.durability.torn_tail_recoveries.load(Ordering::Relaxed),
            ..Default::default()
        };
        for shard in self.all_shards() {
            stats.events_logged += shard.events_logged;
            stats.log_flushes += shard.log_flushes;
            stats.log_bytes += shard.log_bytes;
            stats.last_flush = stats.last_flush.max(shard.last_flush);
            stats.max_flush = stats.max_flush.max(shard.max_flush);
        }
        stats
    }

    /// Snapshot of one shard's counters.
    pub fn shard(&self, shard: usize) -> ShardStats {
        let c = &self.shards[shard];
        ShardStats {
            queued: c.depth.load(Ordering::Relaxed),
            max_queued: c.max_depth.load(Ordering::Relaxed),
            in_flight: c.in_flight.load(Ordering::Relaxed),
            busy_rejections: c.busy_rejections.load(Ordering::Relaxed),
            processed: c.processed.load(Ordering::Relaxed),
            busy: Duration::from_nanos(c.busy_nanos.load(Ordering::Relaxed)),
            max_latency: Duration::from_nanos(c.max_nanos.load(Ordering::Relaxed)),
            events_logged: c.events_logged.load(Ordering::Relaxed),
            log_flushes: c.log_flushes.load(Ordering::Relaxed),
            last_flush: Duration::from_nanos(c.last_flush_nanos.load(Ordering::Relaxed)),
            max_flush: Duration::from_nanos(c.max_flush_nanos.load(Ordering::Relaxed)),
            log_bytes: c.log_bytes.load(Ordering::Relaxed),
        }
    }

    /// Snapshots of every shard, in shard order.
    pub fn all_shards(&self) -> Vec<ShardStats> {
        (0..self.shards.len()).map(|s| self.shard(s)).collect()
    }

    // ---- exposition ----------------------------------------------------

    /// Builds one coherent exposition of every counter, gauge, and
    /// histogram the service tracks: per-kind × per-shard op latencies,
    /// shard queues, durability/replication/routing counters, pipeline
    /// histograms, hub health with per-follower lag, and the journal's
    /// per-kind event counts.
    pub fn exposition(&self) -> Exposition {
        let mut expo = Exposition::new();
        let shard_label = |s: usize| s.to_string();

        // Per-kind × per-shard latency summaries (non-empty pairs only).
        {
            let mut counts = expo.family(
                "docs_ops_total",
                "Completed operations by kind and shard.",
                MetricKind::Counter,
            );
            for (s, kinds) in self.ops.iter().enumerate() {
                let shard = shard_label(s);
                for kind in OpKind::ALL {
                    let n = kinds[kind.index()].count();
                    if n > 0 {
                        counts.sample(&[("kind", kind.name()), ("shard", &shard)], n as f64);
                    }
                }
            }
        }
        {
            let mut lat = expo.family(
                "docs_op_latency_ns",
                "Operation service time quantiles by kind and shard.",
                MetricKind::Summary,
            );
            for (s, kinds) in self.ops.iter().enumerate() {
                let shard = shard_label(s);
                for kind in OpKind::ALL {
                    let h = kinds[kind.index()].snapshot();
                    if h.count() == 0 {
                        continue;
                    }
                    for (q, label) in [(0.5, "0.5"), (0.99, "0.99"), (0.999, "0.999")] {
                        lat.sample(
                            &[
                                ("kind", kind.name()),
                                ("shard", &shard),
                                ("quantile", label),
                            ],
                            h.quantile(q) as f64,
                        );
                    }
                    lat.sample(
                        &[("kind", kind.name()), ("shard", &shard), ("quantile", "1")],
                        h.max_ns() as f64,
                    );
                }
            }
        }

        // Per-shard gauges and counters.
        macro_rules! shard_family {
            ($name:expr, $help:expr, $kind:expr, $field:ident) => {{
                let mut fam = expo.family($name, $help, $kind);
                for (s, stats) in self.all_shards().iter().enumerate() {
                    fam.sample(&[("shard", &shard_label(s))], stats.$field as f64);
                }
            }};
        }
        shard_family!(
            "docs_shard_queue_depth",
            "Requests queued on or executing at the shard (plus parked submitters).",
            MetricKind::Gauge,
            queued
        );
        shard_family!(
            "docs_shard_queue_depth_max",
            "High-water mark of the shard's queue depth.",
            MetricKind::Gauge,
            max_queued
        );
        shard_family!(
            "docs_shard_in_flight",
            "Tickets issued against the shard and not yet resolved.",
            MetricKind::Gauge,
            in_flight
        );
        shard_family!(
            "docs_shard_busy_rejections_total",
            "Fail-fast submissions refused because the ingress queue was full.",
            MetricKind::Counter,
            busy_rejections
        );
        shard_family!(
            "docs_shard_processed_total",
            "Requests processed by the shard.",
            MetricKind::Counter,
            processed
        );
        shard_family!(
            "docs_shard_events_logged",
            "Events appended to the shard's campaign log.",
            MetricKind::Gauge,
            events_logged
        );
        shard_family!(
            "docs_shard_log_flushes",
            "Group-commit flushes performed by the shard's log.",
            MetricKind::Gauge,
            log_flushes
        );
        shard_family!(
            "docs_shard_log_bytes",
            "Bytes across the shard's on-disk log segments.",
            MetricKind::Gauge,
            log_bytes
        );

        // Durability / replication / routing counters.
        let d = self.durability();
        expo.scalar(
            "docs_replay_events_total",
            "Events replayed during recovery.",
            MetricKind::Counter,
            d.events_replayed as f64,
        );
        expo.scalar(
            "docs_replay_rejected_total",
            "Replayed events deterministically rejected.",
            MetricKind::Counter,
            d.replay_rejected as f64,
        );
        expo.scalar(
            "docs_snapshots_loaded_total",
            "Campaign snapshots loaded during recovery.",
            MetricKind::Counter,
            d.snapshots_loaded as f64,
        );
        expo.scalar(
            "docs_snapshots_written_total",
            "Campaign snapshots written while serving.",
            MetricKind::Counter,
            d.snapshots_written as f64,
        );
        expo.scalar(
            "docs_torn_tail_recoveries_total",
            "Log segments whose recovery scan ended in a torn record.",
            MetricKind::Counter,
            d.torn_tail_recoveries as f64,
        );
        let r = self.replication();
        expo.scalar(
            "docs_replication_frames_shipped_total",
            "Frames handed to the replication sink (primary side).",
            MetricKind::Counter,
            r.frames_shipped as f64,
        );
        expo.scalar(
            "docs_replication_events_shipped_total",
            "Durable events shipped inside frames (primary side).",
            MetricKind::Counter,
            r.events_shipped as f64,
        );
        expo.scalar(
            "docs_replication_events_applied_total",
            "Replicated events applied (follower side).",
            MetricKind::Counter,
            r.events_applied as f64,
        );
        expo.scalar(
            "docs_replication_snapshots_installed_total",
            "Snapshots installed from the stream (follower side).",
            MetricKind::Counter,
            r.snapshots_installed as f64,
        );
        expo.scalar(
            "docs_replication_read_only_rejections_total",
            "Mutations refused on a read-only follower.",
            MetricKind::Counter,
            r.read_only_rejections as f64,
        );
        let rt = self.routing();
        expo.scalar(
            "docs_routing_wrong_node_rejections_total",
            "Mutations refused with WrongNode (fenced, intake, or placed elsewhere).",
            MetricKind::Counter,
            rt.wrong_node_rejections as f64,
        );
        expo.scalar(
            "docs_routing_maps_installed_total",
            "Cluster maps installed (per shard per accepted install).",
            MetricKind::Counter,
            rt.maps_installed as f64,
        );
        expo.scalar(
            "docs_routing_campaigns_fenced_total",
            "Campaigns fenced away from this node.",
            MetricKind::Counter,
            rt.campaigns_fenced as f64,
        );
        expo.scalar(
            "docs_routing_migrations_adopted_total",
            "Campaigns adopted through migration intake.",
            MetricKind::Counter,
            rt.migrations_adopted as f64,
        );
        expo.scalar(
            "docs_routing_forwarded_submissions_total",
            "Submissions that landed here after a WrongNode redirect elsewhere.",
            MetricKind::Counter,
            rt.forwarded_submissions as f64,
        );

        // Pipeline-stage histograms.
        let summaries: [(&str, &str, LatencyHistogram); 5] = [
            (
                "docs_flush_batch_events",
                "Events per group-commit flush (unitless).",
                self.flush_batch_histogram(),
            ),
            (
                "docs_flush_sync_ns",
                "WAL flush (write + fdatasync) wall time.",
                self.flush_sync_histogram(),
            ),
            (
                "docs_replication_lag_ns",
                "Replicated event ship-to-applied lag.",
                self.replication_lag_histogram(),
            ),
            (
                "docs_router_hop_ns",
                "Routing hop time (map consult or redirect absorb).",
                self.router_hop_histogram(),
            ),
            (
                "docs_migration_fence_window_ns",
                "Write-unavailability window of campaign migrations.",
                self.fence_window_histogram(),
            ),
        ];
        for (name, help, hist) in &summaries {
            {
                let mut fam = expo.family(*name, *help, MetricKind::Summary);
                for (q, label) in [(0.5, "0.5"), (0.99, "0.99"), (0.999, "0.999")] {
                    fam.sample(&[("quantile", label)], hist.quantile(q) as f64);
                }
                fam.sample(&[("quantile", "1")], hist.max_ns() as f64);
            }
            expo.scalar(
                &format!("{name}_count"),
                "Samples in the summary above.",
                MetricKind::Counter,
                hist.count() as f64,
            );
        }

        // Replication hub health (present once a hub published it).
        if let Some(hub) = self.hub_health() {
            expo.scalar(
                "docs_hub_frames_shipped_total",
                "Frames fanned out by the replication hub.",
                MetricKind::Counter,
                hub.frames_shipped as f64,
            );
            expo.scalar(
                "docs_hub_events_shipped_total",
                "Events fanned out inside event frames.",
                MetricKind::Counter,
                hub.events_shipped as f64,
            );
            expo.scalar(
                "docs_hub_bytes_shipped_total",
                "Encoded wire bytes of event frames fanned out.",
                MetricKind::Counter,
                hub.bytes_shipped as f64,
            );
            expo.scalar(
                "docs_hub_snapshot_bytes_shipped_total",
                "Encoded wire bytes of snapshot frames fanned out.",
                MetricKind::Counter,
                hub.snapshot_bytes_shipped as f64,
            );
            expo.scalar(
                "docs_hub_followers",
                "Currently subscribed followers.",
                MetricKind::Gauge,
                hub.followers as f64,
            );
            expo.scalar(
                "docs_hub_followers_dropped_total",
                "Followers cut off for trailing beyond their stream bound.",
                MetricKind::Counter,
                hub.followers_dropped as f64,
            );
            {
                let mut lag = expo.family(
                    "docs_follower_lag_events",
                    "Shipped-but-unacked events per follower.",
                    MetricKind::Gauge,
                );
                for f in &hub.follower_lags {
                    lag.sample(&[("follower", &f.name)], f.lag_events as f64);
                }
            }
            {
                let mut acked = expo.family(
                    "docs_follower_acked_watermark",
                    "Highest acked per-campaign watermark per follower.",
                    MetricKind::Gauge,
                );
                for f in &hub.follower_lags {
                    acked.sample(&[("follower", &f.name)], f.acked_max as f64);
                }
            }
        }

        // Control-plane journal: per-kind counts over the held window.
        {
            let mut fam = expo.family(
                "docs_journal_events",
                "Control-plane journal entries in the held window, by kind.",
                MetricKind::Gauge,
            );
            for (kind, count) in self.journal.counts_by_kind() {
                fam.sample(&[("kind", kind.name())], count as f64);
            }
        }
        expo.scalar(
            "docs_journal_logged_total",
            "Control-plane journal entries ever logged.",
            MetricKind::Counter,
            self.journal.total_logged() as f64,
        );
        expo.scalar(
            "docs_flight_traces",
            "Sampled request traces held by the flight recorder.",
            MetricKind::Gauge,
            self.flight.len() as f64,
        );
        expo
    }

    /// Prometheus text exposition of [`ServiceMetrics::exposition`].
    pub fn render_prometheus(&self) -> String {
        self.exposition().render_prometheus()
    }

    /// One JSON document with the full metric snapshot, the control-plane
    /// journal, and the flight recorder's held traces.
    pub fn snapshot_json(&self) -> String {
        format!(
            "{{\"metrics\":{},\"journal\":{},\"traces\":{}}}",
            self.exposition().to_json(),
            self.journal.to_json(),
            self.flight.to_json()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_kind_index_matches_declaration_order() {
        // `index()` is the enum discriminant; ALL must list the variants in
        // that same order or per-kind histograms would transpose.
        for (i, kind) in OpKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i, "{kind:?}");
        }
        assert_eq!(NUM_KINDS, OpKind::ALL.len());
    }

    #[test]
    fn records_count_total_and_max() {
        let m = ServiceMetrics::new(1);
        m.record(OpKind::Assign, Duration::from_micros(10));
        m.record(OpKind::Assign, Duration::from_micros(30));
        m.record(OpKind::Submit, Duration::from_micros(5));
        let a = m.stats(OpKind::Assign);
        assert_eq!(a.count, 2);
        assert_eq!(a.total, Duration::from_micros(40));
        assert_eq!(a.max, Duration::from_micros(30));
        assert_eq!(a.mean(), Duration::from_micros(20));
        assert_eq!(m.stats(OpKind::Submit).count, 1);
        assert_eq!(m.stats(OpKind::Finish), OpStats::default());
        assert_eq!(m.total_ops(), 3);
    }

    #[test]
    fn per_shard_op_histograms_expose_quantiles() {
        let m = ServiceMetrics::new(2);
        for i in 1..=100u64 {
            m.record_on(0, OpKind::Assign, Duration::from_micros(i));
        }
        m.record_on(1, OpKind::Assign, Duration::from_millis(5));
        // Per-shard: shard 1 has exactly the one slow sample.
        let s1 = m.op_histogram_on(1, OpKind::Assign);
        assert_eq!(s1.count(), 1);
        assert_eq!(s1.max_ns(), 5_000_000);
        assert_eq!(m.op_histogram_on(0, OpKind::Assign).count(), 100);
        // Merged: quantiles within the histogram's 1/16 relative bound.
        let merged = m.op_histogram(OpKind::Assign);
        assert_eq!(merged.count(), 101);
        let p50 = merged.quantile(0.5);
        assert!((47_000..=51_000).contains(&p50), "p50 = {p50}");
        assert_eq!(merged.quantile(1.0), 5_000_000, "max is exact");
        // Aggregate stats stay exact.
        assert_eq!(m.stats(OpKind::Assign).max, Duration::from_millis(5));
    }

    #[test]
    fn empty_stats_have_zero_mean() {
        assert_eq!(OpStats::default().mean(), Duration::ZERO);
        assert_eq!(ShardStats::default().mean_latency(), Duration::ZERO);
    }

    #[test]
    fn op_mean_survives_counts_past_u32() {
        // `count as u32` is 0 for the first (a `Duration / 0` panic) and 6
        // for the second (a mean ~7e8 times too large).
        for count in [1u64 << 32, u32::MAX as u64 + 7] {
            let stats = OpStats {
                count,
                total: Duration::from_nanos(2 * count),
                ..Default::default()
            };
            assert_eq!(stats.mean(), Duration::from_nanos(2), "{count}");
        }
    }

    #[test]
    fn clones_share_the_recorder() {
        let m = ServiceMetrics::new(2);
        let m2 = m.clone();
        m2.record(OpKind::Golden, Duration::from_micros(1));
        m2.shard_enqueued(1);
        assert_eq!(m.stats(OpKind::Golden).count, 1);
        assert_eq!(m.shard(1).queued, 1);
    }

    /// Successful enqueue: provisional depth, then recorded mark.
    fn enqueue_ok(m: &ServiceMetrics, shard: usize) {
        let depth = m.shard_enqueued(shard);
        m.shard_send_recorded(shard, depth);
    }

    #[test]
    fn shard_queue_depth_tracks_enqueue_dequeue() {
        let m = ServiceMetrics::new(2);
        enqueue_ok(&m, 0);
        enqueue_ok(&m, 0);
        enqueue_ok(&m, 1);
        assert_eq!(m.shard(0).queued, 2);
        assert_eq!(m.shard(0).max_queued, 2);
        assert_eq!(m.shard(1).queued, 1);
        m.shard_processed(0, Duration::from_micros(7));
        let s0 = m.shard(0);
        assert_eq!(s0.queued, 1);
        assert_eq!(s0.max_queued, 2, "high-water mark survives dequeue");
        assert_eq!(s0.processed, 1);
        assert_eq!(s0.busy, Duration::from_micros(7));
        assert_eq!(s0.max_latency, Duration::from_micros(7));
        m.shard_enqueue_failed(1);
        assert_eq!(m.shard(1).queued, 0);
        assert_eq!(m.all_shards().len(), 2);

        // The error path end to end: a failed enqueue rolls back the depth
        // and records no phantom high-water mark.
        let m = ServiceMetrics::new(1);
        let _provisional = m.shard_enqueued(0);
        m.shard_enqueue_failed(0);
        let s = m.shard(0);
        assert_eq!(s.queued, 0, "failed send rolled back");
        assert_eq!(s.max_queued, 0, "no phantom high-water mark");
        // A real high-water mark earned earlier survives later failures.
        enqueue_ok(&m, 0);
        m.shard_processed(0, Duration::ZERO);
        let _provisional = m.shard_enqueued(0);
        m.shard_enqueue_failed(0);
        assert_eq!(m.shard(0).max_queued, 1);

        // Saturating decrements: stray rollbacks on an empty gauge must not
        // wrap to usize::MAX (a wrapped depth would also poison the next
        // enqueue's high-water mark).
        let m = ServiceMetrics::new(1);
        m.shard_enqueue_failed(0);
        m.shard_processed(0, Duration::from_micros(1));
        assert_eq!(m.shard(0).queued, 0, "no underflow wrap");
        assert_eq!(m.shard(0).processed, 1, "processing still counted");
        enqueue_ok(&m, 0);
        let s = m.shard(0);
        assert_eq!(s.queued, 1);
        assert_eq!(s.max_queued, 1, "max not poisoned by a wrapped depth");
    }

    #[test]
    fn in_flight_gauge_and_busy_counter_track_tickets() {
        let m = ServiceMetrics::new(2);
        m.ticket_issued(0);
        m.ticket_issued(0);
        m.ticket_issued(1);
        assert_eq!(m.shard(0).in_flight, 2);
        assert_eq!(m.shard(1).in_flight, 1);
        m.ticket_resolved(0);
        assert_eq!(m.shard(0).in_flight, 1);
        // Saturating: a stray resolve on an empty gauge must not wrap.
        m.ticket_resolved(1);
        m.ticket_resolved(1);
        assert_eq!(m.shard(1).in_flight, 0, "no underflow wrap");
        // Busy rejections are a monotone per-shard counter.
        m.busy_rejection(0);
        m.busy_rejection(0);
        assert_eq!(m.shard(0).busy_rejections, 2);
        assert_eq!(m.shard(1).busy_rejections, 0);
    }

    #[test]
    fn gauges_saturate_under_concurrent_increment_and_decrement() {
        // The wrap the saturating decrement exists to prevent is only
        // reachable under interleaving: one thread's stray resolve racing
        // another's issue. Hammer the gauge with more resolves than
        // issues from both sides and require it to end in the valid
        // range — a single wrap would leave it near usize::MAX.
        let m = std::sync::Arc::new(ServiceMetrics::new(1));
        let issues_per_thread = 10_000usize;
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let m = std::sync::Arc::clone(&m);
                std::thread::spawn(move || {
                    for i in 0..issues_per_thread {
                        if t % 2 == 0 {
                            m.ticket_issued(0);
                        }
                        m.ticket_resolved(0);
                        if i % 3 == 0 {
                            m.ticket_resolved(0); // stray extra resolve
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let in_flight = m.shard(0).in_flight;
        assert!(
            in_flight <= 4 * issues_per_thread,
            "gauge wrapped under concurrency: {in_flight}"
        );
        // Draining whatever survived must bottom out at exactly zero.
        for _ in 0..in_flight + 5 {
            m.ticket_resolved(0);
        }
        assert_eq!(m.shard(0).in_flight, 0, "drain must saturate at zero");
    }

    #[test]
    fn durability_gauges_aggregate_across_shards() {
        let m = ServiceMetrics::new(2);
        m.shard_log_observed(
            0,
            10,
            3,
            Duration::from_micros(40),
            Duration::from_micros(90),
            1024,
        );
        m.shard_log_observed(
            1,
            5,
            5,
            Duration::from_micros(70),
            Duration::from_micros(70),
            512,
        );
        m.replay_recorded(7, 1);
        m.snapshot_loaded();
        m.snapshot_written();
        m.snapshot_written();
        let d = m.durability();
        assert_eq!(d.events_logged, 15);
        assert_eq!(d.log_flushes, 8);
        assert_eq!(d.log_bytes, 1536);
        assert_eq!(d.last_flush, Duration::from_micros(70));
        assert_eq!(d.max_flush, Duration::from_micros(90));
        assert_eq!(d.events_replayed, 7);
        assert_eq!(d.replay_rejected, 1);
        assert_eq!(d.snapshots_loaded, 1);
        assert_eq!(d.snapshots_written, 2);
        assert_eq!(m.shard(0).log_bytes, 1024);
    }

    #[test]
    fn replication_and_torn_tail_counters_accumulate() {
        let m = ServiceMetrics::new(1);
        assert_eq!(m.replication(), ReplicationStats::default());
        m.frame_shipped(3);
        m.frame_shipped(0); // a snapshot frame carries no events
        m.replicated_applied();
        m.replicated_applied();
        m.snapshot_installed();
        m.read_only_rejection();
        let r = m.replication();
        assert_eq!(r.frames_shipped, 2);
        assert_eq!(r.events_shipped, 3);
        assert_eq!(r.events_applied, 2);
        assert_eq!(r.snapshots_installed, 1);
        assert_eq!(r.read_only_rejections, 1);
        // Torn tails surface in the durability view instead of vanishing.
        assert_eq!(m.durability().torn_tail_recoveries, 0);
        m.torn_tail_recovered(2);
        assert_eq!(m.durability().torn_tail_recoveries, 2);
    }

    #[test]
    fn routing_counters_accumulate_and_display() {
        let m = ServiceMetrics::new(2);
        assert_eq!(m.routing(), RoutingStats::default());
        m.wrong_node_rejection();
        m.wrong_node_rejection();
        m.map_installed();
        m.campaign_fenced();
        m.migration_adopted();
        m.forwarded_submission();
        let r = m.routing();
        assert_eq!(r.wrong_node_rejections, 2);
        assert_eq!(r.maps_installed, 1);
        assert_eq!(r.campaigns_fenced, 1);
        assert_eq!(r.migrations_adopted, 1);
        assert_eq!(r.forwarded_submissions, 1);
        assert_eq!(
            r.to_string(),
            "routing: 2 wrong-node rejections, 1 maps installed, \
             1 campaigns fenced, 1 migrations adopted, 1 forwarded submissions"
        );
    }

    #[test]
    fn concurrent_recording_is_consistent() {
        let m = ServiceMetrics::new(4);
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let m = m.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        m.record(OpKind::Submit, Duration::from_nanos(100));
                        m.shard_enqueued(t % 4);
                        m.shard_processed(t % 4, Duration::from_nanos(50));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(m.stats(OpKind::Submit).count, 8000);
        let total: u64 = m.all_shards().iter().map(|s| s.processed).sum();
        assert_eq!(total, 8000);
        assert!(m.all_shards().iter().all(|s| s.queued == 0));
    }

    #[test]
    fn trace_sampling_selects_every_nth_submission() {
        let m = ServiceMetrics::new(1);
        assert!(m.maybe_trace(1).is_none(), "tracing starts disabled");
        m.set_trace_sampling(3);
        let sampled = (0..9).filter(|&c| m.maybe_trace(c).is_some()).count();
        assert_eq!(sampled, 3, "every 3rd submission sampled");
        m.set_trace_sampling(0);
        assert!(m.maybe_trace(99).is_none());
    }

    #[test]
    fn exposition_covers_every_surface_and_parses() {
        let m = ServiceMetrics::new(2);
        m.record_on(1, OpKind::Assign, Duration::from_micros(15));
        m.shard_enqueued(0);
        m.busy_rejection(0);
        m.frame_shipped(4);
        m.wrong_node_rejection();
        m.replay_recorded(2, 0);
        m.flush_recorded(16, Duration::from_micros(120));
        m.replication_lag_recorded(Duration::from_micros(80));
        m.fence_window_recorded(Duration::from_micros(300));
        m.hub_observed(HubHealth {
            frames_shipped: 9,
            events_shipped: 40,
            bytes_shipped: 1800,
            snapshot_bytes_shipped: 0,
            followers: 1,
            followers_dropped: 0,
            follower_lags: vec![FollowerLagSample {
                name: "replica-a".into(),
                lag_events: 2,
                acked_max: 38,
            }],
        });
        m.journal()
            .info(docs_obs::JournalKind::Fence, "campaign c1 fenced");

        let text = m.render_prometheus();
        let samples = docs_obs::validate_prometheus(&text).expect("valid exposition");
        assert!(samples > 30, "expected a rich exposition, got {samples}");
        for needle in [
            "docs_ops_total{kind=\"assign\",shard=\"1\"} 1",
            "docs_op_latency_ns{kind=\"assign\",shard=\"1\",quantile=\"0.99\"}",
            "docs_shard_busy_rejections_total{shard=\"0\"} 1",
            "docs_replication_events_shipped_total 4",
            "docs_routing_wrong_node_rejections_total 1",
            "docs_replay_events_total 2",
            "docs_flush_batch_events{quantile=\"1\"} 16",
            "docs_flush_sync_ns_count 1",
            "docs_replication_lag_ns{quantile=\"0.5\"}",
            "docs_migration_fence_window_ns_count 1",
            "docs_hub_followers 1",
            "docs_follower_lag_events{follower=\"replica-a\"} 2",
            "docs_journal_events{kind=\"fence\"} 1",
        ] {
            assert!(
                text.contains(needle),
                "exposition missing {needle:?}\n{text}"
            );
        }

        let json = m.snapshot_json();
        assert!(json.starts_with("{\"metrics\":{"));
        assert!(json.contains("\"journal\":[{\"seq\":0"));
        assert!(json.contains("\"traces\":[]"));
    }
}
