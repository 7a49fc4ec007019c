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
//!   (p50/p99/p999) is available per kind, per shard, or merged.
//!   [`ServiceMetrics::op_done`] records each request once; a shard's
//!   processed count, busy time and worst service time are read off its
//!   row of these histograms,
//! * per-shard queue depth (current + high-water mark), in-flight tickets,
//!   busy rejections and campaign-log gauges on atomics, updated on the
//!   enqueue/dequeue hot path,
//! * **one table per metric family**: every service-wide [`Counter`] and
//!   pipeline [`Stage`] (group-commit batch size and fdatasync duration,
//!   replication ship→applied lag) is declared once — variant, exposition
//!   name, help — and owns its atomic or histogram. [`ServiceMetrics::count`] /
//!   [`ServiceMetrics::counter`] and [`ServiceMetrics::observe`] /
//!   [`ServiceMetrics::histogram`] are their only verbs; the exposition
//!   and the typed views ([`DurabilityStats`]) walk the tables,
//! * a sampled-request [`FlightRecorder`] and a [`ControlJournal`] of
//!   promotions and failures,
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

/// Declares a metric table once: each row is an enum variant, its
/// exposition name, and its help text — which is also the variant's doc.
/// `ALL` lists the rows in declaration order, so `row as usize` indexes
/// the table's storage and the exposition renders rows in that order.
macro_rules! metric_table {
    ($(#[$doc:meta])* $table:ident {
        $($row:ident => $name:literal, $help:literal;)*
    }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $table {
            $(#[doc = $help] $row,)*
        }

        impl $table {
            const ALL: &'static [$table] = &[$($table::$row),*];

            fn name(self) -> &'static str {
                match self {
                    $($table::$row => $name,)*
                }
            }

            fn help(self) -> &'static str {
                match self {
                    $($table::$row => $help,)*
                }
            }
        }
    };
}

metric_table! {
    /// Service-wide counters, bumped with [`ServiceMetrics::count`] and
    /// read with [`ServiceMetrics::counter`]. Recovery rows move before the
    /// pool runs; replication rows count the shipping side on a primary and
    /// the applying side on a follower (a service plays one role at a
    /// time, so the other side's rows stay zero).
    Counter {
        EventsReplayed => "docs_replay_events_total",
            "Events replayed during recovery.";
        ReplayRejected => "docs_replay_rejected_total",
            "Replayed events deterministically rejected.";
        SnapshotsLoaded => "docs_snapshots_loaded_total",
            "Campaign snapshots loaded during recovery.";
        SnapshotsWritten => "docs_snapshots_written_total",
            "Campaign snapshots written while serving.";
        TornTailRecoveries => "docs_torn_tail_recoveries_total",
            "Log segments whose recovery scan ended in a torn record.";
        FramesShipped => "docs_replication_frames_shipped_total",
            "Frames handed to the replication sink (primary side).";
        EventsShipped => "docs_replication_events_shipped_total",
            "Durable events shipped inside frames (primary side).";
        EventsApplied => "docs_replication_events_applied_total",
            "Replicated events applied (follower side).";
        SnapshotsInstalled => "docs_replication_snapshots_installed_total",
            "Snapshots installed from the stream (follower side).";
        ReadOnlyRejections => "docs_replication_read_only_rejections_total",
            "Mutations refused on a read-only follower.";
    }
}

metric_table! {
    /// Pipeline stages: where a durable replicated request's time goes
    /// *between* the per-operation service times — group commit and the
    /// replication stream. Each owns one lock-free histogram, fed in
    /// nanoseconds (events, for [`Stage::FlushBatch`]) by
    /// [`ServiceMetrics::observe`].
    Stage {
        FlushBatch => "docs_flush_batch_events",
            "Events per group-commit flush (unitless).";
        FlushSync => "docs_flush_sync_ns",
            "WAL flush (write + fdatasync) wall time.";
        ReplicationLag => "docs_replication_lag_ns",
            "Replicated event ship-to-applied lag.";
    }
}

/// The operation kinds the service distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// OTA assignment (`RequestWork`).
    Assign,
    /// Golden-HIT submission.
    Golden,
    /// Answer submission: one HIT's answers in one round-trip and one log
    /// record.
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
}

impl OpKind {
    /// Every kind, in declaration order. The histogram table, exposition,
    /// and `OpKind::index` are all derived from this array, so adding a
    /// variant means adding it here (and the cross-check test fails if the
    /// orders drift).
    pub const ALL: [OpKind; 7] = [
        OpKind::Assign,
        OpKind::Golden,
        OpKind::SubmitBatch,
        OpKind::Finish,
        OpKind::Create,
        OpKind::Read,
        OpKind::Replicate,
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
            OpKind::SubmitBatch => "submit_batch",
            OpKind::Finish => "finish",
            OpKind::Create => "create",
            OpKind::Read => "read",
            OpKind::Replicate => "replicate",
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

/// Lock-free per-shard gauges behind [`ShardStats`] (same meanings; the
/// shard thread and all handles touch these on every request). Processed
/// count, busy time and worst service time are not here: they are read off
/// the shard's op histograms.
#[derive(Debug, Default)]
struct ShardCounters {
    /// Demand, not queue length: incremented at admission-attempt time, so
    /// blocking submitters parked on the bounded ingress queue count too.
    depth: AtomicUsize,
    max_depth: AtomicUsize,
    in_flight: AtomicUsize,
    busy_rejections: AtomicU64,
    events_logged: AtomicU64,
    log_flushes: AtomicU64,
    last_flush_nanos: AtomicU64,
    max_flush_nanos: AtomicU64,
    log_bytes: AtomicU64,
    ti_full_runs: AtomicU64,
    ti_full_runs_superseded: AtomicU64,
}

/// Snapshot of one shard's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Requests currently queued on (or executing at) the shard, plus
    /// blocking submitters parked on its bounded ingress queue — total
    /// demand, which can exceed the queue's bound while backpressure is
    /// engaged.
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
    /// Full truth-inference runs the shard's campaigns executed.
    pub ti_full_runs: u64,
    /// Owed full runs the shard's campaigns dropped unrun, because a later
    /// run replaced them before anything read the inference.
    pub ti_full_runs_superseded: u64,
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

/// Aggregate durability/recovery view across the whole service.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// Events appended across every shard's campaign log.
    pub events_logged: u64,
    /// Group-commit flushes across every shard.
    pub log_flushes: u64,
    /// Longest of the shards' last-flush durations (the max of the
    /// per-shard `last_flush` gauges) — not necessarily the wall time of
    /// the most recent flush in the service.
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
    /// Campaign snapshot files the write lane landed while serving (the
    /// cadence's; a joining campaign's baseline is a WAL record, not a
    /// file).
    pub snapshots_written: u64,
    /// Log segments whose recovery scan ended in a torn record — the
    /// expected artifact of a crash mid-append, tolerated and counted
    /// (classified by `Wal::scan`, surfaced here rather than dropped after
    /// recovery).
    pub torn_tail_recoveries: u64,
}

/// One labeled exposition family read off a typed view: name, help, kind,
/// and the field it renders.
type Family<T> = (&'static str, &'static str, MetricKind, fn(&T) -> u64);

/// Declares a family table over a typed view, one row per family — name,
/// kind and field, then the help text.
macro_rules! family_table {
    ($(#[$doc:meta])* $table:ident: $view:ty {
        $($name:literal, $kind:ident, |$v:ident| $field:expr, $help:literal;)*
    }) => {
        $(#[$doc])*
        const $table: &[Family<$view>] = &[$(($name, $help, MetricKind::$kind, |$v| $field)),*];
    };
}

family_table! {
    /// The per-shard families, one sample per shard.
    SHARD_FAMILIES: ShardStats {
        "docs_shard_queue_depth", Gauge, |s| s.queued as u64,
            "Requests queued on or executing at the shard (plus parked submitters).";
        "docs_shard_queue_depth_max", Gauge, |s| s.max_queued as u64,
            "High-water mark of the shard's queue depth.";
        "docs_shard_in_flight", Gauge, |s| s.in_flight as u64,
            "Tickets issued against the shard and not yet resolved.";
        "docs_shard_busy_rejections_total", Counter, |s| s.busy_rejections,
            "Fail-fast submissions refused because the ingress queue was full.";
        "docs_shard_processed_total", Counter, |s| s.processed,
            "Requests processed by the shard.";
        "docs_shard_events_logged", Gauge, |s| s.events_logged,
            "Events appended to the shard's campaign log.";
        "docs_shard_log_flushes", Gauge, |s| s.log_flushes,
            "Group-commit flushes performed by the shard's log.";
        "docs_shard_log_bytes", Gauge, |s| s.log_bytes,
            "Bytes across the shard's on-disk log segments.";
        "docs_shard_ti_full_runs_total", Counter, |s| s.ti_full_runs,
            "Full truth-inference runs executed by the shard's campaigns.";
        "docs_shard_ti_full_runs_superseded_total", Counter, |s| s.ti_full_runs_superseded,
            "Owed full runs dropped unrun because a later run replaced them.";
    }
}

family_table! {
    /// The hub's unlabeled families.
    HUB_FAMILIES: HubHealth {
        "docs_hub_frames_shipped_total", Counter, |h| h.frames_shipped,
            "Frames fanned out by the replication hub.";
        "docs_hub_events_shipped_total", Counter, |h| h.events_shipped,
            "Events fanned out inside event frames.";
        "docs_hub_bytes_shipped_total", Counter, |h| h.bytes_shipped,
            "Encoded wire bytes of event frames fanned out.";
        "docs_hub_snapshot_bytes_shipped_total", Counter, |h| h.snapshot_bytes_shipped,
            "Encoded wire bytes of snapshot frames fanned out.";
        "docs_hub_followers", Gauge, |h| h.followers as u64,
            "Currently subscribed followers.";
        "docs_hub_followers_dropped_total", Counter, |h| h.followers_dropped,
            "Followers cut off for trailing beyond their stream bound.";
    }
}

family_table! {
    /// The per-follower families, one sample per subscribed follower.
    FOLLOWER_FAMILIES: FollowerLagSample {
        "docs_follower_lag_events", Gauge, |f| f.lag_events,
            "Shipped-but-unacked events per follower.";
        "docs_follower_acked_watermark", Gauge, |f| f.acked_max,
            "Highest acked per-campaign watermark per follower.";
    }
}

/// The summary samples every latency family renders, by `quantile` label:
/// p50, p99, p999 and the exact max.
fn summary(h: &LatencyHistogram) -> [(&'static str, f64); 4] {
    [
        ("0.5", h.quantile(0.5) as f64),
        ("0.99", h.quantile(0.99) as f64),
        ("0.999", h.quantile(0.999) as f64),
        ("1", h.max_ns() as f64),
    ]
}

/// Thread-safe recorder shared by the shard pool and all handles.
#[derive(Debug, Clone)]
pub struct ServiceMetrics {
    /// Per-shard × per-kind latency histograms (lock-free recording).
    ops: Arc<Vec<[AtomicHistogram; NUM_KINDS]>>,
    shards: Arc<Vec<ShardCounters>>,
    /// One atomic per [`Counter`] row.
    counters: Arc<[AtomicU64; Counter::ALL.len()]>,
    /// One histogram per [`Stage`] row.
    stages: Arc<[AtomicHistogram; Stage::ALL.len()]>,
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
            ops: Arc::new(
                (0..shards)
                    .map(|_| std::array::from_fn(|_| AtomicHistogram::new()))
                    .collect(),
            ),
            shards: Arc::new((0..shards).map(|_| ShardCounters::default()).collect()),
            counters: Arc::new(std::array::from_fn(|_| AtomicU64::new(0))),
            stages: Arc::new(std::array::from_fn(|_| AtomicHistogram::new())),
            hub: Arc::new(Mutex::new(None)),
            journal: Arc::new(ControlJournal::new()),
            flight: Arc::new(FlightRecorder::new()),
            trace: Arc::new(TraceSampling::default()),
        }
    }

    // ---- the three verbs -----------------------------------------------

    /// Records one request its shard finished serving: the service time
    /// lands in the shard's histogram for `kind` — the one record the
    /// per-kind stats, the shard's processed / busy / worst-time view and
    /// the exposition all read — and the shard's queue depth drops by one.
    /// Lock-free: a few relaxed atomic updates.
    pub fn op_done(&self, shard: usize, kind: OpKind, elapsed: Duration) {
        // Saturating for the same reason as in `shard_enqueue_failed`: the
        // gauge must degrade to "slightly wrong", never to a wrapped
        // usize::MAX queue depth.
        saturating_dec(&self.shards[shard].depth);
        self.ops[shard][kind.index()].record(elapsed);
    }

    /// Adds `n` to a service-wide counter.
    pub fn count(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Records one sample of a pipeline stage: nanoseconds, or events for
    /// [`Stage::FlushBatch`].
    pub fn observe(&self, stage: Stage, value: u64) {
        self.stages[stage as usize].record_ns(value);
    }

    // ---- reads ---------------------------------------------------------

    /// A service-wide counter's current value.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// A pipeline stage's distribution.
    pub fn histogram(&self, stage: Stage) -> LatencyHistogram {
        self.stages[stage as usize].snapshot()
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

    /// Total operations recorded across all kinds.
    pub fn total_ops(&self) -> u64 {
        self.ops
            .iter()
            .flat_map(|shard| shard.iter())
            .map(|h| h.count())
            .sum()
    }

    /// Forwards to [`ServiceMetrics::histogram`] of [`Stage::FlushBatch`]
    /// (bucket values are counts, not nanoseconds).
    pub fn flush_batch_histogram(&self) -> LatencyHistogram {
        self.histogram(Stage::FlushBatch)
    }

    /// Forwards to [`ServiceMetrics::histogram`] of [`Stage::FlushSync`].
    pub fn flush_sync_histogram(&self) -> LatencyHistogram {
        self.histogram(Stage::FlushSync)
    }

    /// Forwards to [`ServiceMetrics::histogram`] of
    /// [`Stage::ReplicationLag`].
    pub fn replication_lag_histogram(&self) -> LatencyHistogram {
        self.histogram(Stage::ReplicationLag)
    }

    // ---- shard queue and log gauges ------------------------------------

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

    /// Publishes a shard's campaign-log gauges (called by the shard thread
    /// after appends, flushes, snapshot cycles and at shutdown).
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

    /// Adds to a shard's full-inference counts: runs its campaigns
    /// executed, and owed runs they dropped unrun.
    pub fn shard_full_runs(&self, shard: usize, executed: u64, superseded: u64) {
        let c = &self.shards[shard];
        c.ti_full_runs.fetch_add(executed, Ordering::Relaxed);
        c.ti_full_runs_superseded
            .fetch_add(superseded, Ordering::Relaxed);
    }

    // ---- hub health ----------------------------------------------------

    /// Publishes the replication hub's health (called by the hub pump, so
    /// the exposition always has a fresh copy without polling the hub).
    pub fn hub_observed(&self, health: HubHealth) {
        *self.hub.lock() = Some(health);
    }

    // ---- tracing and the control journal -------------------------------

    /// Enables trace sampling: every `every`-th submission carries a
    /// [`TraceContext`] (0 disables tracing; 1 traces everything).
    pub fn set_trace_sampling(&self, every: u64) {
        self.trace.every.store(every, Ordering::Relaxed);
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

    // ---- typed views ---------------------------------------------------

    /// Aggregate durability view: per-shard log gauges summed (last-flush
    /// reported as the max across shards) plus the recovery counters.
    pub fn durability(&self) -> DurabilityStats {
        let mut stats = DurabilityStats {
            events_replayed: self.counter(Counter::EventsReplayed),
            replay_rejected: self.counter(Counter::ReplayRejected),
            snapshots_loaded: self.counter(Counter::SnapshotsLoaded),
            snapshots_written: self.counter(Counter::SnapshotsWritten),
            torn_tail_recoveries: self.counter(Counter::TornTailRecoveries),
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
        let ops = &self.ops[shard];
        ShardStats {
            queued: c.depth.load(Ordering::Relaxed),
            max_queued: c.max_depth.load(Ordering::Relaxed),
            in_flight: c.in_flight.load(Ordering::Relaxed),
            busy_rejections: c.busy_rejections.load(Ordering::Relaxed),
            processed: ops.iter().map(AtomicHistogram::count).sum(),
            busy: Duration::from_nanos(ops.iter().map(AtomicHistogram::sum_ns).sum()),
            max_latency: Duration::from_nanos(
                ops.iter().map(AtomicHistogram::max_ns).max().unwrap_or(0),
            ),
            events_logged: c.events_logged.load(Ordering::Relaxed),
            log_flushes: c.log_flushes.load(Ordering::Relaxed),
            last_flush: Duration::from_nanos(c.last_flush_nanos.load(Ordering::Relaxed)),
            max_flush: Duration::from_nanos(c.max_flush_nanos.load(Ordering::Relaxed)),
            log_bytes: c.log_bytes.load(Ordering::Relaxed),
            ti_full_runs: c.ti_full_runs.load(Ordering::Relaxed),
            ti_full_runs_superseded: c.ti_full_runs_superseded.load(Ordering::Relaxed),
        }
    }

    /// Snapshots of every shard, in shard order.
    pub fn all_shards(&self) -> Vec<ShardStats> {
        (0..self.shards.len()).map(|s| self.shard(s)).collect()
    }

    // ---- exposition ----------------------------------------------------

    /// Builds one coherent exposition of every counter, gauge, and
    /// histogram the service tracks: per-kind × per-shard op latencies,
    /// the shard families, the [`Counter`] and [`Stage`] tables, hub
    /// health with per-follower lag, and the journal's per-kind counts.
    pub fn exposition(&self) -> Exposition {
        let mut expo = Exposition::new();

        // Per-kind × per-shard op latencies (non-empty pairs only).
        let ops: Vec<(OpKind, String, LatencyHistogram)> = self
            .ops
            .iter()
            .enumerate()
            .flat_map(|(s, kinds)| {
                OpKind::ALL.map(|kind| (kind, s.to_string(), kinds[kind.index()].snapshot()))
            })
            .filter(|(_, _, h)| h.count() > 0)
            .collect();
        let mut counts = expo.family(
            "docs_ops_total",
            "Completed operations by kind and shard.",
            MetricKind::Counter,
        );
        for (kind, shard, h) in &ops {
            counts.sample(&[("kind", kind.name()), ("shard", shard)], h.count() as f64);
        }
        let mut lat = expo.family(
            "docs_op_latency_ns",
            "Operation service time quantiles by kind and shard.",
            MetricKind::Summary,
        );
        for (kind, shard, h) in &ops {
            for (q, value) in summary(h) {
                lat.sample(
                    &[("kind", kind.name()), ("shard", shard), ("quantile", q)],
                    value,
                );
            }
        }

        let shards = self.all_shards();
        for &(name, help, kind, field) in SHARD_FAMILIES {
            let mut fam = expo.family(name, help, kind);
            for (s, stats) in shards.iter().enumerate() {
                fam.sample(&[("shard", &s.to_string())], field(stats) as f64);
            }
        }

        for &counter in Counter::ALL {
            let value = self.counter(counter) as f64;
            expo.scalar(counter.name(), counter.help(), MetricKind::Counter, value);
        }

        for &stage in Stage::ALL {
            let hist = self.histogram(stage);
            let mut fam = expo.family(stage.name(), stage.help(), MetricKind::Summary);
            for (q, value) in summary(&hist) {
                fam.sample(&[("quantile", q)], value);
            }
            expo.scalar(
                &format!("{}_count", stage.name()),
                "Samples in the summary above.",
                MetricKind::Counter,
                hist.count() as f64,
            );
        }

        // Replication hub health (present once a hub published it).
        if let Some(hub) = self.hub.lock().clone() {
            for &(name, help, kind, field) in HUB_FAMILIES {
                expo.scalar(name, help, kind, field(&hub) as f64);
            }
            for &(name, help, kind, field) in FOLLOWER_FAMILIES {
                let mut fam = expo.family(name, help, kind);
                for f in &hub.follower_lags {
                    fam.sample(&[("follower", &f.name)], field(f) as f64);
                }
            }
        }

        // Control-plane journal: per-kind counts over the held window.
        let mut journal = expo.family(
            "docs_journal_events",
            "Control-plane journal entries in the held window, by kind.",
            MetricKind::Gauge,
        );
        for (kind, count) in self.journal.counts_by_kind() {
            journal.sample(&[("kind", kind.name())], count as f64);
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
    fn op_done_feeds_kind_stats_and_the_shard_view() {
        let m = ServiceMetrics::new(1);
        m.op_done(0, OpKind::Assign, Duration::from_micros(10));
        m.op_done(0, OpKind::Assign, Duration::from_micros(30));
        m.op_done(0, OpKind::SubmitBatch, Duration::from_micros(5));
        let a = m.stats(OpKind::Assign);
        assert_eq!(a.count, 2);
        assert_eq!(a.total, Duration::from_micros(40));
        assert_eq!(a.max, Duration::from_micros(30));
        assert_eq!(m.stats(OpKind::SubmitBatch).count, 1);
        assert_eq!(m.stats(OpKind::Finish), OpStats::default());
        assert_eq!(m.total_ops(), 3);
        // The shard's view reads the same histograms.
        let s = m.shard(0);
        assert_eq!(s.processed, 3);
        assert_eq!(s.busy, Duration::from_micros(45));
        assert_eq!(s.max_latency, Duration::from_micros(30));
    }

    #[test]
    fn per_shard_op_histograms_expose_quantiles() {
        let m = ServiceMetrics::new(2);
        for i in 1..=100u64 {
            m.op_done(0, OpKind::Assign, Duration::from_micros(i));
        }
        m.op_done(1, OpKind::Assign, Duration::from_millis(5));
        // Per-shard: shard 1 has exactly the one slow sample.
        assert_eq!(m.shard(1).processed, 1);
        assert_eq!(m.shard(1).max_latency, Duration::from_millis(5));
        assert_eq!(m.shard(0).processed, 100);
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
    fn clones_share_the_recorder() {
        let m = ServiceMetrics::new(2);
        let m2 = m.clone();
        m2.op_done(0, OpKind::Golden, Duration::from_micros(1));
        m2.shard_enqueued(1);
        m2.count(Counter::SnapshotsInstalled, 1);
        assert_eq!(m.stats(OpKind::Golden).count, 1);
        assert_eq!(m.shard(1).queued, 1);
        assert_eq!(m.counter(Counter::SnapshotsInstalled), 1);
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
        m.op_done(0, OpKind::Read, Duration::from_micros(7));
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
        m.op_done(0, OpKind::Read, Duration::ZERO);
        let _provisional = m.shard_enqueued(0);
        m.shard_enqueue_failed(0);
        assert_eq!(m.shard(0).max_queued, 1);

        // Saturating decrements: stray rollbacks on an empty gauge must not
        // wrap to usize::MAX (a wrapped depth would also poison the next
        // enqueue's high-water mark).
        let m = ServiceMetrics::new(1);
        m.shard_enqueue_failed(0);
        m.op_done(0, OpKind::Read, Duration::from_micros(1));
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
    fn durability_view_aggregates_shard_gauges_and_recovery_counters() {
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
        m.count(Counter::EventsReplayed, 7);
        m.count(Counter::ReplayRejected, 1);
        m.count(Counter::SnapshotsLoaded, 1);
        m.count(Counter::SnapshotsWritten, 2);
        m.count(Counter::TornTailRecoveries, 2);
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
        assert_eq!(d.torn_tail_recoveries, 2);
        assert_eq!(m.shard(0).log_bytes, 1024);
    }

    #[test]
    fn counter_and_stage_rows_are_independent() {
        let m = ServiceMetrics::new(1);
        for (i, &counter) in Counter::ALL.iter().enumerate() {
            assert_eq!(counter as usize, i, "{counter:?}");
            m.count(counter, i as u64);
            m.count(counter, 1);
        }
        for (i, &counter) in Counter::ALL.iter().enumerate() {
            assert_eq!(m.counter(counter), i as u64 + 1, "{counter:?}");
        }
        for (i, &stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage as usize, i, "{stage:?}");
            for _ in 0..=i {
                m.observe(stage, 1_000 * (i as u64 + 1));
            }
        }
        for (i, &stage) in Stage::ALL.iter().enumerate() {
            let h = m.histogram(stage);
            assert_eq!(h.count(), i as u64 + 1, "{stage:?}");
            assert_eq!(h.max_ns(), 1_000 * (i as u64 + 1), "{stage:?}");
        }
        assert_eq!(m.flush_sync_histogram().count(), 2);
    }

    #[test]
    fn concurrent_recording_is_consistent() {
        let m = ServiceMetrics::new(4);
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let m = m.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        m.shard_enqueued(t % 4);
                        m.op_done(t % 4, OpKind::SubmitBatch, Duration::from_nanos(100));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(m.stats(OpKind::SubmitBatch).count, 8000);
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
    fn exposition_renders_table_rows_and_snapshot_json_wraps_it() {
        // The byte-exact format is pinned by `tests/exposition_golden.rs`;
        // here: a row's value lands under its own name, and the JSON
        // document wraps the same exposition with journal and traces.
        let m = ServiceMetrics::new(2);
        m.count(Counter::EventsShipped, 4);
        m.observe(Stage::FlushBatch, 16);
        m.journal().info(
            docs_obs::JournalKind::Promotion,
            "replica promoted to primary",
        );
        let text = m.render_prometheus();
        docs_obs::validate_prometheus(&text).expect("valid exposition");
        for needle in [
            "docs_replication_events_shipped_total 4\n",
            "docs_flush_batch_events{quantile=\"1\"} 16\n",
            "docs_flush_batch_events_count 1\n",
            "docs_journal_events{kind=\"promotion\"} 1\n",
        ] {
            assert!(text.contains(needle), "missing {needle:?}\n{text}");
        }
        let json = m.snapshot_json();
        let metrics = format!("{{\"metrics\":{},", m.exposition().to_json());
        assert!(json.starts_with(&metrics), "{json}");
        assert!(json.contains("\"journal\":[{\"seq\":0"));
        assert!(json.ends_with("\"traces\":[]}"));
    }
}
