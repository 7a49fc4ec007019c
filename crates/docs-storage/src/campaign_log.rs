//! The per-shard campaign event log: group-commit WAL segments plus
//! per-campaign snapshots — the durability substrate of the event-sourced
//! service runtime.
//!
//! One [`CampaignLog`] belongs to one service shard and records the events
//! of every persisted campaign that shard owns, interleaved, each tagged
//! with its campaign id and a per-campaign sequence number:
//!
//! ```text
//! shard-dir/
//!   events-000007.wal      current segment (older ones pruned after snapshots)
//!   snap-3.bin             latest snapshot of campaign 3: [seq][crc][payload]
//!   snap-9.bin
//! ```
//!
//! **Group commit.** Appends buffer in memory; a flush writes the whole
//! batch in one syscall and `fdatasync`s once. [`FlushPolicy`] decides when:
//! `EveryEvent` syncs per append (strict durability, slow), `Batch(n)`
//! amortizes the sync over `n` events.
//! Policies are per campaign — one strict campaign forces a flush that
//! opportunistically hardens every buffered neighbor's events too.
//!
//! **Snapshots and truncation.** Snapshot files are written, and
//! superseded segments deleted, by the log's write lane: one background
//! thread per log (`lane.rs`) that runs those jobs one at a time in the
//! order they were queued, so the appending thread never waits on
//! checkpoint I/O. A snapshot replaces its file through the same
//! `write_atomically` helper the parameter store compacts with (tmp file,
//! `fdatasync`, rename, directory `fsync`). The rules:
//!
//! * a snapshot at sequence `S` is queued only after the WAL through `S`
//!   is durable ([`CampaignLog::queue_snapshot`] flushes first);
//! * [`CampaignLog::prune_segments`] rotates to a fresh segment and syncs
//!   the directory on the caller's thread, so no event in the new segment
//!   is acknowledged before its name is durable, then queues the deletion
//!   of every older segment — replay cost stays bounded by the snapshot
//!   cadence, not by campaign lifetime;
//! * a deletion runs only after every snapshot queued before it has
//!   landed, and never while a campaign's latest queued snapshot has
//!   failed ([`CampaignLog::take_failed_snapshots`] hands those back);
//! * a caller that needs its snapshot on disk
//!   ([`CampaignLog::write_snapshot`]) queues on the same lane and waits
//!   for its own job, so an older queued file never overwrites a newer one;
//! * dropping the log drains the lane; [`CampaignLog::abandon`] (a
//!   simulated crash) lets the running job finish and drops the queued
//!   ones, a state recovery handles like any other crash.
//!
//! **Recovery.** [`recover_tree`] scans a whole durability directory (every
//! shard subdirectory — the writing epoch may have used a different shard
//! count than the recovering one), keeps each campaign's highest-sequence
//! intact snapshot, and merges the event suffix beyond it from all
//! segments. A torn record at a segment tail is the expected crash artifact
//! and ends that segment's scan cleanly; a CRC-corrupt *complete* record is
//! data loss and fails recovery loudly instead of serving wrong state.

use crate::lane::{Job, Lane, SnapshotObserver};
use crate::{create_dir_durably, io_err, sync_dir, PayloadBytes, Wal, WalTail};
use bytes::{Buf, BufMut, BytesMut};
use docs_types::{crc32, CampaignId, Error, Result};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// When a shard's buffered events are written and `fdatasync`ed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum FlushPolicy {
    /// Sync after every event — strongest durability, one fsync per answer.
    EveryEvent,
    /// Group commit: sync once per `n` buffered events. Events are
    /// acknowledged before they are synced, so a crash can lose up to
    /// `n - 1` acknowledged events (they are never *reordered* or
    /// half-applied — recovery sees a clean prefix).
    Batch(usize),
}

impl FlushPolicy {
    /// Short label for metrics and bench output.
    pub fn label(&self) -> String {
        match self {
            FlushPolicy::EveryEvent => "every_event".to_string(),
            FlushPolicy::Batch(n) => format!("batch_{n}"),
        }
    }
}

/// Adaptive group commit: under load, [`FlushPolicy::EveryEvent`] appends
/// accumulate into one batch (bounded by event count, buffered bytes, and a
/// latency deadline) that is written and `fdatasync`ed once; when the load
/// drops the batch collapses back to a single event, so an isolated append
/// still hardens immediately.
///
/// Durability semantics are preserved by the *owner*, not the log: the
/// service shard withholds acknowledgements for events in an open batch and
/// releases them only after the batch flushes — acknowledged still implies
/// durable, but the `fdatasync` cost is amortized like `Batch`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveCommit {
    /// Flush once this many events are buffered.
    pub max_batch_events: usize,
    /// Flush once the buffered batch reaches this many bytes.
    pub max_batch_bytes: usize,
    /// Flush once the oldest buffered event has waited this long — the
    /// worst-case added acknowledgement latency under sustained load.
    pub max_delay: Duration,
}

impl Default for AdaptiveCommit {
    fn default() -> Self {
        AdaptiveCommit {
            max_batch_events: 64,
            max_batch_bytes: 256 * 1024,
            max_delay: Duration::from_millis(2),
        }
    }
}

/// Cumulative flush accounting of one [`CampaignLog`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlushStats {
    /// Events appended (buffered) so far.
    pub appended: u64,
    /// Flush (write + `fdatasync`) calls that hit the disk.
    pub flushes: u64,
    /// Events made durable across those flushes.
    pub flushed_events: u64,
    /// Policy-triggered flushes that failed at append time; the buffered
    /// events stay pending and the next flush trigger (append, batch
    /// close, finish, shutdown) resumes them.
    pub flush_failures: u64,
    /// Wall time of the most recent flush.
    pub last_flush: Duration,
    /// Worst single flush.
    pub max_flush: Duration,
}

/// Callback invoked after every successful [`CampaignLog::flush`] with the
/// number of events the group commit hardened and the wall time the
/// write + `fdatasync` took. Owners use it to feed batch-size and sync
/// latency histograms without polling [`FlushStats`].
pub type FlushObserver = Arc<dyn Fn(u64, Duration) + Send + Sync>;

/// Holds the optional observer; a separate type only so [`CampaignLog`]
/// can keep deriving `Debug` around a non-`Debug` closure.
#[derive(Default, Clone)]
struct ObserverSlot(Option<FlushObserver>);

impl std::fmt::Debug for ObserverSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.is_some() {
            "FlushObserver(set)"
        } else {
            "FlushObserver(unset)"
        })
    }
}

/// Per-shard group-commit event log (see the module docs).
#[derive(Debug)]
pub struct CampaignLog {
    /// Observer notified after each successful flush.
    observer: ObserverSlot,
    dir: PathBuf,
    segment: Wal,
    segment_index: u64,
    pending: BytesMut,
    /// Bytes of `pending` already accepted by the OS during a flush that
    /// then failed — the next flush resumes here instead of re-writing
    /// (which would duplicate records in the segment).
    pending_written: usize,
    pending_events: usize,
    /// When the oldest event still in `pending` was appended — the anchor
    /// of the adaptive latency deadline.
    first_pending_at: Option<Instant>,
    /// Adaptive group commit for `EveryEvent` campaigns, when enabled.
    adaptive: Option<AdaptiveCommit>,
    /// Buffered events appended under `EveryEvent` while adaptive commit
    /// deferred their sync. The owner must withhold these events'
    /// acknowledgements until the batch flushes (acked ⇒ durable).
    pending_strict: usize,
    policies: HashMap<CampaignId, FlushPolicy>,
    /// Last assigned sequence number per campaign (0 = none yet).
    seqs: HashMap<CampaignId, u64>,
    stats: FlushStats,
    /// Writes snapshots and deletes superseded segments off this thread;
    /// also tracks the bytes across the on-disk segments, so hot paths
    /// publish the gauge without re-scanning the directory.
    lane: Lane,
}

pub(crate) fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("events-{index:06}.wal"))
}

pub(crate) fn snapshot_path(dir: &Path, campaign: CampaignId) -> PathBuf {
    dir.join(format!("snap-{}.bin", campaign.0))
}

/// Parses `events-<idx>.wal` names back into indices.
fn parse_segment_index(name: &str) -> Option<u64> {
    name.strip_prefix("events-")?
        .strip_suffix(".wal")?
        .parse()
        .ok()
}

/// Parses `snap-<campaign>.bin` names back into campaign ids.
fn parse_snapshot_id(name: &str) -> Option<CampaignId> {
    name.strip_prefix("snap-")?
        .strip_suffix(".bin")?
        .parse()
        .map(CampaignId)
        .ok()
}

/// Lists the segment files present in one shard-log directory, ascending
/// by segment index. A missing directory lists as empty.
fn list_segments(dir: &Path) -> Result<Vec<PathBuf>> {
    Ok(segment_indices(dir)?
        .into_iter()
        .map(|idx| segment_path(dir, idx))
        .collect())
}

/// Lists the segment indices present in a directory, ascending.
pub(crate) fn segment_indices(dir: &Path) -> Result<Vec<u64>> {
    let mut indices = Vec::new();
    match std::fs::read_dir(dir) {
        Ok(entries) => {
            for entry in entries {
                let entry = entry.map_err(io_err)?;
                if let Some(idx) = entry.file_name().to_str().and_then(parse_segment_index) {
                    indices.push(idx);
                }
            }
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(io_err(e)),
    }
    indices.sort_unstable();
    Ok(indices)
}

impl CampaignLog {
    /// Opens the log rooted at `dir`, starting a *new* segment after the
    /// highest existing one. Recovered segments are never appended to: a
    /// torn record at an old tail must stay the last thing in its file, or
    /// everything appended after it would be unreachable to replay.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        create_dir_durably(&dir)?;
        let existing = segment_indices(&dir)?;
        let mut disk_bytes = 0;
        for &idx in &existing {
            disk_bytes += std::fs::metadata(segment_path(&dir, idx))
                .map_err(io_err)?
                .len();
        }
        let segment_index = existing.last().map_or(0, |last| last + 1);
        let segment = Wal::open(segment_path(&dir, segment_index))?;
        sync_dir(&dir)?;
        let lane = Lane::spawn(dir.clone(), disk_bytes)?;
        Ok(CampaignLog {
            observer: ObserverSlot::default(),
            dir,
            segment,
            segment_index,
            pending: BytesMut::new(),
            pending_written: 0,
            pending_events: 0,
            first_pending_at: None,
            adaptive: None,
            pending_strict: 0,
            policies: HashMap::new(),
            seqs: HashMap::new(),
            stats: FlushStats::default(),
            lane,
        })
    }

    /// Installs (or clears) the per-flush observer. Called once at shard
    /// start-up; the closure runs on the shard thread at the end of every
    /// successful group commit, so it must be cheap and lock-free.
    pub fn set_flush_observer(&mut self, observer: Option<FlushObserver>) {
        self.observer = ObserverSlot(observer);
    }

    /// Installs (or clears) the snapshot observer. It runs on the write
    /// lane after every snapshot job, so it must be cheap and thread-safe.
    pub fn set_snapshot_observer(&mut self, observer: Option<SnapshotObserver>) {
        self.lane.set_observer(observer);
    }

    /// Registers a campaign with its flush policy and the last sequence
    /// number already durable for it (`0` for a fresh campaign).
    pub fn register(&mut self, campaign: CampaignId, policy: FlushPolicy, last_seq: u64) {
        self.policies.insert(campaign, policy);
        self.seqs.insert(campaign, last_seq);
    }

    /// The flush policy a campaign was registered with.
    fn policy(&self, campaign: CampaignId) -> Option<FlushPolicy> {
        self.policies.get(&campaign).copied()
    }

    /// Last assigned sequence number of a campaign (0 = none).
    pub fn last_seq(&self, campaign: CampaignId) -> u64 {
        self.seqs.get(&campaign).copied().unwrap_or(0)
    }

    /// Appends one event for a campaign, assigning and returning its
    /// sequence number, then flushes if the campaign's policy demands it.
    /// Unregistered campaigns default to [`FlushPolicy::EveryEvent`].
    ///
    /// The append itself **never half-fails**: the record is in the
    /// buffer, owns its sequence number, and *will* reach the segment (a
    /// failed flush resumes, never restarts). A policy-due flush that
    /// fails here is therefore a durability *delay*, not an append
    /// failure — it is counted in [`FlushStats::flush_failures`] and
    /// retried at the next flush trigger. (Rejecting the append on a
    /// failed sync was worse than wrong: the buffered record still
    /// hardened later, so the log grew a "ghost" event the live system
    /// never applied — recovery, replication, and the serving state all
    /// disagreed.) Callers needing a hard durability point call
    /// [`CampaignLog::flush`] and handle its error — the service does so
    /// on `finish`, creation, and shutdown.
    pub fn append_event(&mut self, campaign: CampaignId, payload: &[u8]) -> Result<u64> {
        self.append_event_with(campaign, |record| record.put_slice(payload))
    }

    /// [`CampaignLog::append_event`] with the payload written in place:
    /// `write_payload` appends it straight to the group-commit buffer (the
    /// record's header and campaign/sequence prefix are already there), so
    /// an event is encoded once and never copied on its way to the segment.
    pub fn append_event_with(
        &mut self,
        campaign: CampaignId,
        write_payload: impl FnOnce(&mut BytesMut),
    ) -> Result<u64> {
        let seq = self.last_seq(campaign) + 1;
        self.seqs.insert(campaign, seq);
        Wal::encode_record_with(&mut self.pending, |record| {
            record.put_u32_le(campaign.0);
            record.put_u64_le(seq);
            write_payload(record);
        });
        self.pending_events += 1;
        if self.pending_events == 1 {
            self.first_pending_at = Some(Instant::now());
        }
        self.stats.appended += 1;
        let due = match self.policy(campaign).unwrap_or(FlushPolicy::EveryEvent) {
            // Adaptive group commit defers the per-append sync: the batch
            // grows until a bound trips here or the owner closes it with
            // [`CampaignLog::flush`]; the owner withholds acknowledgements
            // until the flush, preserving acked ⇒ durable.
            FlushPolicy::EveryEvent => match self.adaptive {
                None => true,
                Some(cfg) => {
                    self.pending_strict += 1;
                    self.pending_events >= cfg.max_batch_events.max(1)
                        || self.pending.len() >= cfg.max_batch_bytes
                        || self
                            .first_pending_at
                            .is_some_and(|t| t.elapsed() >= cfg.max_delay)
                }
            },
            FlushPolicy::Batch(n) => self.pending_events >= n.max(1),
        };
        if due && self.flush().is_err() {
            self.stats.flush_failures += 1;
        }
        Ok(seq)
    }

    /// Enables (or disables, with `None`) adaptive group commit for this
    /// log's `EveryEvent` campaigns.
    pub fn set_adaptive(&mut self, adaptive: Option<AdaptiveCommit>) {
        self.adaptive = adaptive;
        if adaptive.is_none() {
            self.pending_strict = 0;
        }
    }

    /// Buffered `EveryEvent` events whose sync was deferred by adaptive
    /// commit — the owner must withhold their acknowledgements (and, for
    /// FIFO ordering, everything queued behind them) until the next
    /// successful [`CampaignLog::flush`] drops this to zero.
    pub fn pending_strict_events(&self) -> usize {
        self.pending_strict
    }

    /// Gives up on the strict-pending accounting without a successful
    /// flush — for an owner that decided to degrade (e.g. release
    /// acknowledgements after a failed batch sync, mirroring the
    /// append-path policy-flush semantics where a sync failure is a
    /// durability delay, not a refusal).
    pub fn clear_strict_pending(&mut self) {
        self.pending_strict = 0;
    }

    /// Events buffered but not yet written + synced.
    pub fn pending_events(&self) -> usize {
        self.pending_events
    }

    /// Writes and `fdatasync`s everything buffered — the group commit.
    ///
    /// Failure-safe against retries: the write phase tracks how many bytes
    /// the OS has accepted, so a flush that failed midway (partial write,
    /// failed sync) is *resumed* on the next attempt — whether that comes
    /// from the next append, a batch close, `finish`, or shutdown — never
    /// restarted, which would append the already-accepted prefix a second
    /// time and corrupt the segment with duplicate records.
    pub fn flush(&mut self) -> Result<()> {
        if self.pending_events == 0 {
            return Ok(());
        }
        let started = Instant::now();
        while self.pending_written < self.pending.len() {
            let accepted = self
                .segment
                .write_some(&self.pending[self.pending_written..])?;
            self.pending_written += accepted;
        }
        self.segment.sync()?;
        let elapsed = started.elapsed();
        self.stats.flushes += 1;
        self.stats.flushed_events += self.pending_events as u64;
        self.stats.last_flush = elapsed;
        self.stats.max_flush = self.stats.max_flush.max(elapsed);
        if let Some(observer) = self.observer.0.as_ref() {
            observer(self.pending_events as u64, elapsed);
        }
        self.lane
            .disk_bytes()
            .fetch_add(self.pending.len() as u64, Ordering::Relaxed);
        self.pending.clear();
        self.pending_written = 0;
        self.pending_events = 0;
        self.pending_strict = 0;
        self.first_pending_at = None;
        Ok(())
    }

    /// Drops every buffered (unflushed) event without writing it — the
    /// fault-injection hook that makes an in-process "kill" behave like a
    /// real crash: acknowledged-but-unsynced events vanish. (Bytes a failed
    /// flush already handed to the OS stay in the file unsynced, exactly
    /// like a real crash's torn tail.) The write lane finishes the job it
    /// is running and drops the queued ones, so a queued snapshot or
    /// deletion dies with the process too; the log writes no snapshot
    /// after this.
    pub fn abandon(&mut self) {
        self.lane.abandon();
        self.pending.clear();
        self.pending_written = 0;
        self.pending_events = 0;
        self.pending_strict = 0;
        self.first_pending_at = None;
    }

    /// Test hook: behaves like a flush that wrote `bytes` of the buffer and
    /// then died before the sync — the state a real partial-write failure
    /// leaves behind, which the next [`CampaignLog::flush`] must resume.
    #[cfg(test)]
    fn simulate_partial_flush(&mut self, bytes: usize) {
        let target = bytes.min(self.pending.len());
        while self.pending_written < target {
            let accepted = self
                .segment
                .write_some(&self.pending[self.pending_written..target])
                .expect("test segment accepts writes");
            self.pending_written += accepted;
        }
    }

    /// Flush accounting so far.
    pub fn stats(&self) -> FlushStats {
        self.stats
    }

    /// Bytes currently on disk across this shard's segments (excluding
    /// buffered, unflushed bytes; including superseded segments until the
    /// lane deletes them) — tracked, no directory scan.
    pub fn on_disk_bytes(&self) -> u64 {
        self.lane.disk_bytes().load(Ordering::Relaxed)
    }

    /// Like [`CampaignLog::on_disk_bytes`] but measured from the
    /// filesystem (tests cross-check the tracked counter against this).
    pub fn segment_bytes(&self) -> Result<u64> {
        let mut total = 0;
        for idx in segment_indices(&self.dir)? {
            total += std::fs::metadata(segment_path(&self.dir, idx))
                .map_err(io_err)?
                .len();
        }
        Ok(total)
    }

    /// Writes a campaign's snapshot, stamped with its current last
    /// sequence number (everything at or below it is superseded), and
    /// returns once the file is on disk: the job queues on the write lane
    /// behind any earlier one and the caller waits for it. Buffered events
    /// are flushed first so the snapshot never claims a sequence number
    /// that could vanish in a crash.
    pub fn write_snapshot(&mut self, campaign: CampaignId, payload: &[u8]) -> Result<u64> {
        let (seq, ticket) = self.snapshot_job(campaign, payload.to_vec(), true)?;
        self.lane.wait_for(ticket)?;
        Ok(seq)
    }

    /// [`CampaignLog::write_snapshot`] without the wait: flushes the WAL,
    /// queues the file on the write lane and returns the sequence it
    /// covers. The lane reports landing to the snapshot observer; a
    /// failure also comes back through
    /// [`CampaignLog::take_failed_snapshots`] and keeps every later
    /// deletion from running until one of the campaign's snapshots lands.
    pub fn queue_snapshot(&mut self, campaign: CampaignId, payload: Vec<u8>) -> Result<u64> {
        Ok(self.snapshot_job(campaign, payload, false)?.0)
    }

    /// Flushes the WAL, then queues `campaign`'s snapshot at its last
    /// sequence; returns the sequence and the job's ticket.
    fn snapshot_job(
        &mut self,
        campaign: CampaignId,
        payload: Vec<u8>,
        waited: bool,
    ) -> Result<(u64, u64)> {
        self.flush()?;
        let seq = self.last_seq(campaign);
        let ticket = self.lane.queue(Job::Snapshot {
            campaign,
            seq,
            payload,
            waited,
        });
        Ok((seq, ticket))
    }

    /// Queued snapshots that failed since the last call, as `(campaign,
    /// seq)`: the owner re-dirties each campaign whose latest snapshot is
    /// still that one, so the next cadence retries it.
    pub fn take_failed_snapshots(&mut self) -> Vec<(CampaignId, u64)> {
        self.lane.take_failed()
    }

    /// Blocks until the write lane has run every queued job, leaving the
    /// directory settled.
    pub fn settle(&self) {
        self.lane.settle();
    }

    /// Starts a fresh segment, makes its name durable, and queues the
    /// deletion of every older one. Call only after every campaign this
    /// log records has a snapshot queued or landed that covers its events
    /// so far — pruned events are gone for good. The lane deletes only once
    /// the snapshots queued before it have landed.
    pub fn prune_segments(&mut self) -> Result<()> {
        self.flush()?;
        let new_index = self.segment_index + 1;
        self.segment = Wal::open(segment_path(&self.dir, new_index))?;
        self.segment_index = new_index;
        // No event may be acknowledged in the new segment before its name
        // survives power loss.
        sync_dir(&self.dir)?;
        self.lane.queue(Job::Delete { below: new_index });
        Ok(())
    }
}

impl Drop for CampaignLog {
    /// Normal shutdown flushes the tail batch, then drains the write lane;
    /// crashes are simulated by calling [`CampaignLog::abandon`] first.
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// One campaign's recovered durable state. Payloads are [`PayloadBytes`]
/// views into per-file arenas: recovery allocates one buffer per segment or
/// snapshot *file*, not one per event.
#[derive(Debug, Clone, Default)]
pub struct CampaignRecovery {
    /// Highest-sequence intact snapshot payload, if any snapshot was taken.
    pub snapshot: Option<(u64, PayloadBytes)>,
    /// Event payloads with sequence numbers strictly beyond the snapshot,
    /// ascending and gap-free.
    pub events: Vec<(u64, PayloadBytes)>,
    /// Highest durable sequence number (snapshot or event).
    pub last_seq: u64,
}

/// Everything recovered from a durability directory tree.
#[derive(Debug, Clone, Default)]
pub struct TreeRecovery {
    /// Recovered campaigns, ascending by id (`BTreeMap` keeps recovery
    /// deterministic).
    pub campaigns: BTreeMap<CampaignId, CampaignRecovery>,
    /// Log segments scanned across shard directories.
    pub segments_scanned: u64,
    /// Segments that ended in a torn record (crash artifacts, tolerated).
    pub torn_tails: u64,
    /// Payload buffers allocated while reading (one per file arena) —
    /// before the shared-arena read path this was one per event plus one
    /// per snapshot; the durability bench reports both counts.
    pub payload_allocations: u64,
    /// Event records decoded across all scanned segments.
    pub events_recovered: u64,
}

fn read_snapshot_file(path: &Path) -> Result<(u64, PayloadBytes)> {
    let data = std::fs::read(path).map_err(io_err)?;
    if data.len() < 12 {
        return Err(Error::Storage(format!(
            "snapshot {} truncated ({} bytes)",
            path.display(),
            data.len()
        )));
    }
    let mut cursor = &data[..];
    let seq = cursor.get_u64_le();
    let crc = cursor.get_u32_le();
    if crc32(cursor) != crc {
        return Err(Error::Storage(format!(
            "snapshot {} failed its CRC check",
            path.display()
        )));
    }
    let len = data.len();
    Ok((seq, PayloadBytes::slice_of(&Arc::new(data), 12..len)))
}

/// Decodes the campaign/sequence tag of one event record, borrowed — the
/// payload is the remainder of the record, sliced by the caller.
fn decode_event_tag(record: &[u8], path: &Path) -> Result<(CampaignId, u64)> {
    if record.len() < 12 {
        return Err(Error::Storage(format!(
            "malformed event record in {}",
            path.display()
        )));
    }
    let mut cursor = record;
    let campaign = CampaignId(cursor.get_u32_le());
    let seq = cursor.get_u64_le();
    Ok((campaign, seq))
}

/// Recovers every campaign under `base`: the directory itself plus each
/// immediate subdirectory is scanned as one shard log. Shard counts may
/// differ between the writing and the recovering service — events are
/// merged per campaign by sequence number, duplicates (identical records
/// reachable through two epochs' directories) collapse, and a sequence gap
/// or a mid-segment CRC failure aborts recovery with a clean error.
pub fn recover_tree(base: impl AsRef<Path>) -> Result<TreeRecovery> {
    let base = base.as_ref();
    let mut dirs = vec![base.to_path_buf()];
    match std::fs::read_dir(base) {
        Ok(entries) => {
            for entry in entries {
                let entry = entry.map_err(io_err)?;
                let path = entry.path();
                if path.is_dir() {
                    dirs.push(path);
                }
            }
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(TreeRecovery::default()),
        Err(e) => return Err(io_err(e)),
    }
    dirs.sort();

    let mut recovery = TreeRecovery::default();
    let mut raw_events: HashMap<CampaignId, Vec<(u64, PayloadBytes)>> = HashMap::new();
    for dir in &dirs {
        // Snapshots: keep the highest sequence per campaign.
        let entries = match std::fs::read_dir(dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
            Err(e) => return Err(io_err(e)),
        };
        for entry in entries {
            let entry = entry.map_err(io_err)?;
            let Some(name) = entry.file_name().to_str().map(str::to_owned) else {
                continue;
            };
            if let Some(campaign) = parse_snapshot_id(&name) {
                let (seq, payload) = read_snapshot_file(&entry.path())?;
                recovery.payload_allocations += 1;
                let slot = recovery.campaigns.entry(campaign).or_default();
                if slot.snapshot.as_ref().is_none_or(|(s, _)| *s < seq) {
                    slot.snapshot = Some((seq, payload));
                }
            }
        }
        // Segments: load each file into one shared arena and hand out
        // borrowed payload views — no per-event copy. Torn tails are
        // tolerated (crash artifacts).
        for path in list_segments(dir)? {
            let arena = Arc::new(Wal::load(&path)?);
            let (records, tail) = Wal::scan(&arena);
            recovery.segments_scanned += 1;
            recovery.payload_allocations += 1;
            match tail {
                WalTail::Clean => {}
                WalTail::Torn => recovery.torn_tails += 1,
                WalTail::Corrupt(offset) => {
                    return Err(Error::Storage(format!(
                        "corrupt event record at byte {offset} of {} — refusing to \
                         recover past silent data loss",
                        path.display()
                    )));
                }
            }
            for range in records {
                let (campaign, seq) = decode_event_tag(&arena[range.clone()], &path)?;
                recovery.events_recovered += 1;
                raw_events.entry(campaign).or_default().push((
                    seq,
                    PayloadBytes::slice_of(&arena, range.start + 12..range.end),
                ));
            }
        }
    }

    for (campaign, mut events) in raw_events {
        let slot = recovery.campaigns.entry(campaign).or_default();
        events.sort_by_key(|(seq, _)| *seq);
        let snapshot_seq = slot.snapshot.as_ref().map_or(0, |(seq, _)| *seq);
        let mut kept: Vec<(u64, PayloadBytes)> = Vec::new();
        for (seq, payload) in events {
            if seq <= snapshot_seq {
                continue;
            }
            match kept.last() {
                Some((prev, prev_payload)) if *prev == seq => {
                    if *prev_payload != payload {
                        return Err(Error::Storage(format!(
                            "campaign {campaign} has two different events with sequence {seq}"
                        )));
                    }
                }
                _ => kept.push((seq, payload)),
            }
        }
        if let Some((first, _)) = kept.first() {
            if *first != snapshot_seq + 1 {
                return Err(Error::Storage(format!(
                    "campaign {campaign} log gap: snapshot at {snapshot_seq}, first event {first}"
                )));
            }
        }
        for window in kept.windows(2) {
            if window[1].0 != window[0].0 + 1 {
                return Err(Error::Storage(format!(
                    "campaign {campaign} log gap between sequences {} and {}",
                    window[0].0, window[1].0
                )));
            }
        }
        slot.last_seq = kept.last().map_or(snapshot_seq, |(seq, _)| *seq);
        slot.events = kept;
    }
    // Campaigns known only from a snapshot still carry their sequence.
    for slot in recovery.campaigns.values_mut() {
        if slot.events.is_empty() {
            if let Some((seq, _)) = &slot.snapshot {
                slot.last_seq = slot.last_seq.max(*seq);
            }
        }
    }
    Ok(recovery)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("docs-clog-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    const C0: CampaignId = CampaignId(0);
    const C1: CampaignId = CampaignId(1);

    /// Copies arena-backed recovery events into owned pairs so assertions
    /// can compare against plain `Vec<u8>` literals.
    fn owned(events: &[(u64, PayloadBytes)]) -> Vec<(u64, Vec<u8>)> {
        events
            .iter()
            .map(|(seq, p)| (*seq, p.as_slice().to_vec()))
            .collect()
    }

    /// `open` creates every missing directory on the way to a fresh log
    /// and syncs each one's parent, deepest first; reopening the log
    /// creates, and so syncs, nothing beyond its own directory.
    #[test]
    fn open_creates_nested_missing_directories_durably() {
        let root = tmp_dir("nested");
        let dir = root.join("pool").join("shard-0");
        assert_eq!(
            create_dir_durably(&dir).unwrap(),
            [dir.clone(), root.join("pool"), root.clone()]
        );
        assert!(create_dir_durably(&dir).unwrap().is_empty());
        std::fs::remove_dir_all(&root).unwrap();

        let mut log = CampaignLog::open(&dir).unwrap();
        log.register(C0, FlushPolicy::EveryEvent, 0);
        log.append_event(C0, b"a").unwrap();
        drop(log);
        let reopened = CampaignLog::open(&dir).unwrap();
        assert_eq!(reopened.segment_bytes().unwrap(), reopened.on_disk_bytes());
        assert!(reopened.on_disk_bytes() > 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// An event encoded in place (`append_event_with` +
    /// `encode_event_into`) leaves the segment byte for byte as encoding it
    /// first and appending the record (`encode_event` + `append_event`)
    /// does, over a stream of golden submissions, batches and finishes
    /// interleaved across two campaigns.
    #[test]
    fn events_encoded_in_place_write_the_bytes_of_an_appended_record() {
        use docs_types::{codec, Answer, CampaignEvent, TaskId, WorkerId};
        let batch = |w: u32, tasks: &[u32]| {
            let answers = tasks
                .iter()
                .map(|&t| Answer::new(WorkerId(w), TaskId(t), (t % 2) as usize))
                .collect();
            CampaignEvent::answer_batch(answers)
        };
        let stream = [
            (
                C0,
                CampaignEvent::golden(WorkerId(3), vec![(TaskId(0), 1), (TaskId(5), 0)]),
            ),
            (
                C1,
                CampaignEvent::golden(WorkerId(300), vec![(TaskId(200), 2)]),
            ),
            (C0, batch(3, &[1, 2, 3, 4])),
            (C1, batch(300, &[7, 128, 65_536])),
            (C0, batch(9, &[])),
            (C0, CampaignEvent::finished()),
            (C1, batch(4, &[1])),
            (C1, CampaignEvent::finished()),
        ];
        let segment = |name: &str, in_place: bool| -> Vec<u8> {
            let dir = tmp_dir(name);
            let mut log = CampaignLog::open(&dir).unwrap();
            for c in [C0, C1] {
                log.register(c, FlushPolicy::Batch(usize::MAX), 0);
            }
            for (c, event) in &stream {
                if in_place {
                    log.append_event_with(*c, |buf| codec::encode_event_into(event, buf))
                } else {
                    log.append_event(*c, &codec::encode_event(event))
                }
                .unwrap();
            }
            log.flush().unwrap();
            let indices = segment_indices(&dir).unwrap();
            assert_eq!(indices.len(), 1, "{name}: one segment");
            let bytes = std::fs::read(segment_path(&dir, indices[0])).unwrap();
            std::fs::remove_dir_all(&dir).unwrap();
            bytes
        };
        let in_place = segment("in-place", true);
        let (records, tail) = Wal::scan(&in_place);
        assert_eq!((records.len(), tail), (stream.len(), WalTail::Clean));
        assert_eq!(in_place, segment("appended", false));
    }

    #[test]
    fn append_flush_recover_roundtrip() {
        let base = tmp_dir("roundtrip");
        {
            let mut log = CampaignLog::open(base.join("shard-0")).unwrap();
            log.register(C0, FlushPolicy::EveryEvent, 0);
            log.register(C1, FlushPolicy::EveryEvent, 0);
            assert_eq!(log.append_event(C0, b"a0").unwrap(), 1);
            assert_eq!(log.append_event(C1, b"b0").unwrap(), 1);
            assert_eq!(log.append_event(C0, b"a1").unwrap(), 2);
        }
        let rec = recover_tree(&base).unwrap();
        assert_eq!(rec.campaigns.len(), 2);
        let c0 = &rec.campaigns[&C0];
        assert_eq!(c0.last_seq, 2);
        assert_eq!(
            owned(&c0.events),
            vec![(1, b"a0".to_vec()), (2, b"a1".to_vec())],
            "per-campaign sequences interleave cleanly"
        );
        assert_eq!(owned(&rec.campaigns[&C1].events), vec![(1, b"b0".to_vec())]);
    }

    #[test]
    fn batch_policy_defers_the_sync_and_abandon_loses_the_tail() {
        let base = tmp_dir("batch");
        let mut log = CampaignLog::open(base.join("shard-0")).unwrap();
        log.register(C0, FlushPolicy::Batch(3), 0);
        log.append_event(C0, b"e1").unwrap();
        log.append_event(C0, b"e2").unwrap();
        assert_eq!(log.pending_events(), 2, "batch of 3 not yet due");
        assert_eq!(log.stats().flushes, 0);
        log.append_event(C0, b"e3").unwrap();
        assert_eq!(log.pending_events(), 0, "third event triggers the flush");
        assert_eq!(log.stats().flushes, 1);
        assert_eq!(log.stats().flushed_events, 3);
        // Two more, then crash: the unflushed tail must vanish.
        log.append_event(C0, b"e4").unwrap();
        log.append_event(C0, b"e5").unwrap();
        log.abandon();
        drop(log);
        let rec = recover_tree(&base).unwrap();
        let c0 = &rec.campaigns[&C0];
        assert_eq!(c0.last_seq, 3);
        assert_eq!(c0.events.len(), 3);
    }

    #[test]
    fn adaptive_commit_batches_every_event_appends() {
        let base = tmp_dir("adaptive");
        let mut log = CampaignLog::open(base.join("shard-0")).unwrap();
        log.register(C0, FlushPolicy::EveryEvent, 0);
        log.set_adaptive(Some(AdaptiveCommit {
            max_batch_events: 4,
            max_batch_bytes: 1 << 20,
            max_delay: Duration::from_secs(3600), // never trip on time here
        }));
        // Three appends buffer; EveryEvent no longer syncs per append.
        for payload in [b"e1", b"e2", b"e3"] {
            log.append_event(C0, payload).unwrap();
        }
        assert_eq!(log.stats().flushes, 0);
        assert_eq!(log.pending_events(), 3);
        assert_eq!(
            log.pending_strict_events(),
            3,
            "acks must wait for the batch"
        );
        // The fourth trips the event bound: one fdatasync for the batch.
        log.append_event(C0, b"e4").unwrap();
        assert_eq!(log.stats().flushes, 1);
        assert_eq!(log.stats().flushed_events, 4);
        assert_eq!(log.pending_events(), 0);
        assert_eq!(log.pending_strict_events(), 0, "nothing pending");
        // Byte bound trips independently of the event bound.
        log.set_adaptive(Some(AdaptiveCommit {
            max_batch_events: 1000,
            max_batch_bytes: 1,
            max_delay: Duration::from_secs(3600),
        }));
        log.append_event(C0, b"big enough").unwrap();
        assert_eq!(log.stats().flushes, 2);
        // Turning adaptive off restores strict per-append durability.
        log.set_adaptive(None);
        log.append_event(C0, b"strict").unwrap();
        assert_eq!(log.stats().flushes, 3);
        drop(log);
        // Everything flushed is recoverable, in order.
        let rec = recover_tree(&base).unwrap();
        assert_eq!(
            owned(&rec.campaigns[&C0].events),
            vec![
                (1, b"e1".to_vec()),
                (2, b"e2".to_vec()),
                (3, b"e3".to_vec()),
                (4, b"e4".to_vec()),
                (5, b"big enough".to_vec()),
                (6, b"strict".to_vec()),
            ]
        );
    }

    #[test]
    fn adaptive_commit_deadline_makes_buffered_events_due() {
        let base = tmp_dir("adaptive-deadline");
        let mut log = CampaignLog::open(base.join("shard-0")).unwrap();
        log.register(C0, FlushPolicy::EveryEvent, 0);
        log.set_adaptive(Some(AdaptiveCommit {
            max_batch_events: 1000,
            max_batch_bytes: 1 << 20,
            max_delay: Duration::from_millis(1),
        }));
        log.append_event(C0, b"first").unwrap();
        assert_eq!(log.stats().flushes, 0, "within the latency window");
        assert_eq!(log.pending_events(), 1);
        std::thread::sleep(Duration::from_millis(5));
        // The next append observes the expired deadline and syncs the batch.
        log.append_event(C0, b"second").unwrap();
        assert_eq!(log.stats().flushes, 1);
        assert_eq!(log.stats().flushed_events, 2);
        assert_eq!(log.pending_events(), 0);
    }

    #[test]
    fn failed_flush_resumes_instead_of_duplicating_records() {
        let base = tmp_dir("flush-resume");
        let mut log = CampaignLog::open(base.join("shard-0")).unwrap();
        log.register(C0, FlushPolicy::Batch(100), 0);
        log.append_event(C0, b"one").unwrap();
        log.append_event(C0, b"two").unwrap();
        log.append_event(C0, b"three").unwrap();
        // A flush died after handing a partial prefix to the OS (mid-record:
        // 5 bytes is inside "one"'s header+payload)…
        log.simulate_partial_flush(5);
        // …and more events can arrive before the retry.
        log.append_event(C0, b"four").unwrap();
        // The retried flush must resume at the accepted prefix — not
        // rewrite it — or the segment would hold duplicate records.
        log.flush().unwrap();
        drop(log);
        let rec = recover_tree(&base).unwrap();
        let c0 = &rec.campaigns[&C0];
        assert_eq!(
            owned(&c0.events),
            vec![
                (1, b"one".to_vec()),
                (2, b"two".to_vec()),
                (3, b"three".to_vec()),
                (4, b"four".to_vec()),
            ],
            "every record exactly once, in order"
        );
    }

    #[test]
    fn an_every_event_neighbor_hardens_a_buffered_batch_campaign() {
        let base = tmp_dir("neighbor");
        let mut log = CampaignLog::open(base.join("shard-0")).unwrap();
        log.register(C0, FlushPolicy::Batch(3), 0);
        log.register(C1, FlushPolicy::EveryEvent, 0);
        log.append_event(C0, b"a1").unwrap();
        assert_eq!(log.pending_events(), 1, "batch of 3 not yet due");
        // The EveryEvent append forces the group commit: both harden.
        log.append_event(C1, b"b1").unwrap();
        assert_eq!(log.pending_events(), 0);
        assert_eq!(log.stats().flushed_events, 2);
        // A later buffered event dies with the crash; the hardened ones stay.
        log.append_event(C0, b"a2").unwrap();
        log.abandon();
        drop(log);
        let rec = recover_tree(&base).unwrap();
        assert_eq!(owned(&rec.campaigns[&C0].events), vec![(1, b"a1".to_vec())]);
        assert_eq!(owned(&rec.campaigns[&C1].events), vec![(1, b"b1".to_vec())]);
    }

    #[test]
    fn snapshot_supersedes_events_and_pruning_bounds_replay() {
        let base = tmp_dir("snapshot");
        {
            let mut log = CampaignLog::open(base.join("shard-0")).unwrap();
            log.register(C0, FlushPolicy::EveryEvent, 0);
            for i in 0..5 {
                log.append_event(C0, format!("e{i}").as_bytes()).unwrap();
            }
            assert_eq!(log.write_snapshot(C0, b"state-at-5").unwrap(), 5);
            log.prune_segments().unwrap();
            log.append_event(C0, b"e5").unwrap();
            assert!(log.segment_bytes().unwrap() > 0);
            assert_eq!(
                log.on_disk_bytes(),
                log.segment_bytes().unwrap(),
                "tracked byte gauge matches the filesystem"
            );
        }
        let rec = recover_tree(&base).unwrap();
        let c0 = &rec.campaigns[&C0];
        let (snap_seq, snap_payload) = c0.snapshot.as_ref().expect("snapshot recovered");
        assert_eq!(
            (*snap_seq, snap_payload.to_vec()),
            (5, b"state-at-5".to_vec())
        );
        assert_eq!(owned(&c0.events), vec![(6, b"e5".to_vec())]);
        assert_eq!(c0.last_seq, 6);
    }

    /// A crash that lands while the write lane is behind drops the
    /// snapshots and the deletion it had queued, unrun: the superseded
    /// segment stays, the tracked bytes still count it, and recovery
    /// rebuilds every event from the last snapshot that landed.
    #[test]
    fn a_crash_drops_the_queued_snapshots_and_the_deletion() {
        let base = tmp_dir("lane-crash");
        let shard = base.join("shard-0");
        let mut log = CampaignLog::open(&shard).unwrap();
        log.register(C0, FlushPolicy::EveryEvent, 0);
        log.register(C1, FlushPolicy::EveryEvent, 0);
        log.append_event(C0, b"a1").unwrap();
        assert_eq!(log.write_snapshot(C0, b"c0-at-1").unwrap(), 1);
        log.append_event(C0, b"a2").unwrap();
        log.append_event(C1, b"b1").unwrap();
        let hold = crate::hold_lanes(&base);
        assert_eq!(log.queue_snapshot(C0, b"c0-at-2".to_vec()).unwrap(), 2);
        assert_eq!(log.queue_snapshot(C1, b"c1-at-1".to_vec()).unwrap(), 1);
        log.prune_segments().unwrap();
        log.append_event(C0, b"a3").unwrap();
        assert_eq!(log.on_disk_bytes(), log.segment_bytes().unwrap());
        log.abandon();
        drop(log);
        drop(hold);
        assert_eq!(segment_indices(&shard).unwrap(), [0, 1]);
        let rec = recover_tree(&base).unwrap();
        let c0 = &rec.campaigns[&C0];
        let (seq, payload) = c0.snapshot.as_ref().expect("the waited snapshot landed");
        assert_eq!((*seq, payload.to_vec()), (1, b"c0-at-1".to_vec()));
        assert_eq!(
            owned(&c0.events),
            vec![(2, b"a2".to_vec()), (3, b"a3".to_vec())]
        );
        let c1 = &rec.campaigns[&C1];
        assert!(c1.snapshot.is_none());
        assert_eq!(owned(&c1.events), vec![(1, b"b1".to_vec())]);
        let _ = std::fs::remove_dir_all(&base);
    }

    /// A caller that needs its snapshot on disk waits for its own job:
    /// queued behind a held lane, `write_snapshot` does not return while
    /// the hold lasts, and once it returns the file is in place.
    #[test]
    fn write_snapshot_returns_once_its_file_has_landed() {
        let base = tmp_dir("lane-wait");
        let mut log = CampaignLog::open(base.join("shard-0")).unwrap();
        log.register(C0, FlushPolicy::EveryEvent, 0);
        log.append_event(C0, b"e1").unwrap();
        let hold = crate::hold_lanes(&base);
        let (returned, seq) = std::sync::mpsc::channel();
        let writer = std::thread::spawn(move || {
            returned
                .send(log.write_snapshot(C0, b"state-at-1"))
                .unwrap();
            log
        });
        let held = seq.recv_timeout(Duration::from_millis(100));
        assert!(held.is_err(), "returned behind a held lane: {held:?}");
        drop(hold);
        assert_eq!(seq.recv().unwrap().unwrap(), 1);
        let rec = recover_tree(&base).unwrap();
        let (seq, payload) = rec.campaigns[&C0].snapshot.as_ref().expect("landed");
        assert_eq!((*seq, payload.to_vec()), (1, b"state-at-1".to_vec()));
        drop(writer.join().unwrap());
        let _ = std::fs::remove_dir_all(&base);
    }

    /// A queued snapshot that fails comes back once through
    /// `take_failed_snapshots` and keeps every later deletion from running
    /// — even one behind another campaign's landed snapshot — until one of
    /// its own campaign's snapshots lands; the tracked bytes follow the
    /// segments that are really on disk throughout.
    #[test]
    fn a_failed_snapshot_blocks_deletion_until_its_campaign_lands_one() {
        let base = tmp_dir("lane-failed");
        let shard = base.join("shard-0");
        let mut log = CampaignLog::open(&shard).unwrap();
        log.register(C0, FlushPolicy::EveryEvent, 0);
        log.register(C1, FlushPolicy::EveryEvent, 0);
        log.append_event(C0, b"a1").unwrap();
        log.append_event(C1, b"b1").unwrap();
        // No file can be created over a directory.
        let obstacle = shard.join("snap-0.bin.tmp");
        std::fs::create_dir(&obstacle).unwrap();
        let cycle = |log: &mut CampaignLog, campaigns: &[CampaignId]| {
            for &c in campaigns {
                log.queue_snapshot(c, format!("{c}").into_bytes()).unwrap();
            }
            log.prune_segments().unwrap();
            log.settle();
            assert_eq!(log.on_disk_bytes(), log.segment_bytes().unwrap());
            segment_indices(&shard).unwrap()
        };
        assert_eq!(cycle(&mut log, &[C0, C1]), [0, 1]);
        assert_eq!(log.take_failed_snapshots(), [(C0, 1)]);
        assert!(log.take_failed_snapshots().is_empty());
        log.append_event(C1, b"b2").unwrap();
        assert_eq!(cycle(&mut log, &[C1]), [0, 1, 2], "C0 is still uncovered");
        std::fs::remove_dir(&obstacle).unwrap();
        assert_eq!(cycle(&mut log, &[C0]), [3]);
        assert!(log.take_failed_snapshots().is_empty());
        drop(log);
        let rec = recover_tree(&base).unwrap();
        let snapshot_seq = |c| rec.campaigns[&c].snapshot.as_ref().map(|(seq, _)| *seq);
        assert_eq!((snapshot_seq(C0), snapshot_seq(C1)), (Some(1), Some(2)));
        assert!(rec.campaigns.values().all(|c| c.events.is_empty()));
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn torn_tail_is_tolerated_but_mid_log_corruption_is_fatal() {
        let base = tmp_dir("torn-vs-corrupt");
        let shard = base.join("shard-0");
        {
            let mut log = CampaignLog::open(&shard).unwrap();
            log.register(C0, FlushPolicy::EveryEvent, 0);
            log.append_event(C0, b"keep-1").unwrap();
            log.append_event(C0, b"keep-2").unwrap();
        }
        let segment = segment_path(&shard, 0);
        // Torn tail: a partial record appended by a dying writer.
        {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&segment)
                .unwrap();
            std::io::Write::write_all(&mut f, &[60, 0, 0, 0, 1, 2, 3]).unwrap();
        }
        let rec = recover_tree(&base).unwrap();
        assert_eq!(rec.torn_tails, 1);
        assert_eq!(rec.campaigns[&C0].events.len(), 2);
        // Corruption: flip a payload byte of the *first* (complete) record.
        let mut data = std::fs::read(&segment).unwrap();
        data[8 + 12] ^= 0xFF; // past the wal header + campaign/seq tag
        std::fs::write(&segment, &data).unwrap();
        let err = recover_tree(&base).unwrap_err();
        assert!(err.to_string().contains("corrupt"), "{err}");
    }

    #[test]
    fn reopening_never_appends_to_a_recovered_segment() {
        let base = tmp_dir("fresh-segment");
        let shard = base.join("shard-0");
        {
            let mut log = CampaignLog::open(&shard).unwrap();
            log.register(C0, FlushPolicy::EveryEvent, 0);
            log.append_event(C0, b"epoch-1").unwrap();
        }
        {
            let mut log = CampaignLog::open(&shard).unwrap();
            // Seed the sequence as a recovering service would.
            log.register(C0, FlushPolicy::EveryEvent, 1);
            log.append_event(C0, b"epoch-2").unwrap();
        }
        assert!(segment_path(&shard, 0).exists());
        assert!(segment_path(&shard, 1).exists());
        let rec = recover_tree(&base).unwrap();
        assert_eq!(
            owned(&rec.campaigns[&C0].events),
            vec![(1, b"epoch-1".to_vec()), (2, b"epoch-2".to_vec())]
        );
    }

    #[test]
    fn cross_shard_epochs_merge_by_sequence() {
        let base = tmp_dir("cross-shard");
        // Epoch 1: a 1-shard service wrote campaign 0 to shard-0.
        {
            let mut log = CampaignLog::open(base.join("shard-0")).unwrap();
            log.register(C0, FlushPolicy::EveryEvent, 0);
            log.append_event(C0, b"s1").unwrap();
            log.append_event(C0, b"s2").unwrap();
        }
        // Epoch 2: a 4-shard service owns campaign 0 on shard-2 and
        // continues from the recovered sequence.
        {
            let mut log = CampaignLog::open(base.join("shard-2")).unwrap();
            log.register(C0, FlushPolicy::EveryEvent, 2);
            log.append_event(C0, b"s3").unwrap();
        }
        let rec = recover_tree(&base).unwrap();
        assert_eq!(
            owned(&rec.campaigns[&C0].events),
            vec![
                (1, b"s1".to_vec()),
                (2, b"s2".to_vec()),
                (3, b"s3".to_vec())
            ]
        );
    }

    #[test]
    fn truncated_snapshot_tmp_is_ignored_but_truncated_snapshot_fails() {
        let base = tmp_dir("snap-truncated");
        let shard = base.join("shard-0");
        {
            let mut log = CampaignLog::open(&shard).unwrap();
            log.register(C0, FlushPolicy::EveryEvent, 0);
            log.append_event(C0, b"e").unwrap();
            log.write_snapshot(C0, b"good").unwrap();
        }
        // A crash mid-snapshot leaves a half-written tmp file: harmless.
        std::fs::write(shard.join("snap-0.bin.tmp"), b"half").unwrap();
        assert!(recover_tree(&base).unwrap().campaigns[&C0]
            .snapshot
            .is_some());
        // But a truncated *renamed* snapshot must fail loudly.
        std::fs::write(shard.join("snap-0.bin"), b"short").unwrap();
        let err = recover_tree(&base).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn missing_base_directory_recovers_empty() {
        let rec = recover_tree(tmp_dir("missing").join("nope")).unwrap();
        assert!(rec.campaigns.is_empty());
        assert_eq!(rec.segments_scanned, 0);
    }

    #[test]
    fn sequence_gap_is_a_clean_error() {
        let base = tmp_dir("gap");
        let shard = base.join("shard-0");
        {
            let mut log = CampaignLog::open(&shard).unwrap();
            log.register(C0, FlushPolicy::EveryEvent, 0);
            log.append_event(C0, b"one").unwrap();
            // Simulate a pruning bug / lost middle segment by skipping ahead.
            log.register(C0, FlushPolicy::EveryEvent, 5);
            log.append_event(C0, b"six").unwrap();
        }
        let err = recover_tree(&base).unwrap_err();
        assert!(err.to_string().contains("gap"), "{err}");
    }
}
