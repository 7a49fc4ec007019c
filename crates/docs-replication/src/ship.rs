//! The primary-side log shipper: a hub that encodes the service's
//! replication feed into CRC-checked wire records and fans them out to
//! subscribed followers, tracking per-follower lag against the shipped
//! watermarks.
//!
//! ```text
//! primary shards ──ReplicationFrame──▶ hub pump ──encoded bytes──▶ follower A
//!        (post-flush only)               │  │                  └──▶ follower B
//!                                        │  └── shipped watermarks (per campaign)
//!                                        └───── per-follower acked watermarks ⇒ lag
//! ```
//!
//! The hub is transport: it never interprets campaign state. Followers ack
//! by advancing their shared watermark table as they apply; the hub's
//! [`ReplicationHub::lag`] is simply `shipped − acked` per campaign,
//! summed — the replication-lag gauge the bench and the example report.

use crate::frame::encode_frame_into;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TrySendError};
use docs_obs::JournalKind;
use docs_service::{FollowerLagSample, HubHealth, ReplicationSink, ServiceMetrics};
use docs_storage::recover_tree;
use docs_system::ReplicaWatermarks;
use docs_types::{CampaignId, EventFrame, ReplicationFrame, Result, SnapshotFrame};
use parking_lot::Mutex;
use std::ops::Deref;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Creates the primary→hub feed: hand the [`ReplicationSink`] to
/// [`ServiceConfig::with_replication`](docs_service::ServiceConfig) and
/// the receiver to [`ReplicationHub::spawn`].
///
/// The feed itself is unbounded — safely: the pump drains it at encode
/// speed and never blocks (follower fan-out is `try_send` onto *bounded*
/// per-follower streams, and laggards are disconnected, not waited for),
/// so the feed's depth is bounded by how far the pump trails the shards,
/// not by the slowest follower.
pub fn replication_channel() -> (ReplicationSink, Receiver<ReplicationFrame>) {
    let (tx, rx) = unbounded();
    (ReplicationSink::new(tx), rx)
}

/// Per-follower stream bound: frames a follower may trail the pump by
/// before it is cut off. Deep enough to ride out apply hiccups, shallow
/// enough that a wedged follower cannot grow the primary's memory without
/// limit — the same bounded-admission stance the service's ingress queues
/// take.
pub const FOLLOWER_STREAM_CAPACITY: usize = 4096;

/// One encoded frame on a follower's stream: the shared wire bytes plus
/// the instant the pump fanned it out. The applier measures ship→applied
/// lag from `shipped_at`; everything that only wants the bytes derefs to
/// `[u8]` and never notices the timestamp.
#[derive(Clone)]
pub struct ShippedRecord {
    bytes: Arc<[u8]>,
    pub(crate) shipped_at: Instant,
}

impl ShippedRecord {
    /// The encoded frame bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }
}

impl Deref for ShippedRecord {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes
    }
}

/// One follower's subscription: the encoded-frame stream to apply and the
/// shared watermark table it advances as acks. Records arrive as
/// [`ShippedRecord`]s wrapping shared `Arc` bytes: the hub encodes once
/// and fan-out is a refcount bump per follower, not a copy of the
/// (potentially snapshot-sized) frame bytes.
pub struct FollowerLink {
    pub(crate) frames: Receiver<ShippedRecord>,
    pub(crate) acked: Arc<Mutex<ReplicaWatermarks>>,
    /// Set by the pump when this follower was cut off for lag. The
    /// applier checks it at end-of-stream: a lag cutoff must be
    /// distinguishable from a dead primary, or a cut-off replica could be
    /// promoted below the shipped suffix without anyone noticing.
    pub(crate) cut_for_lag: Arc<AtomicBool>,
}

struct FollowerSlot {
    name: String,
    tx: Sender<ShippedRecord>,
    acked: Arc<Mutex<ReplicaWatermarks>>,
    cut_for_lag: Arc<AtomicBool>,
}

struct HubInner {
    followers: Mutex<Vec<FollowerSlot>>,
    shipped: Mutex<ReplicaWatermarks>,
    frames_shipped: AtomicU64,
    events_shipped: AtomicU64,
    bytes_shipped: AtomicU64,
    snapshot_bytes_shipped: AtomicU64,
    followers_dropped: AtomicU64,
    encode_buffer_reuses: AtomicU64,
    /// The primary's metrics, when attached: the pump publishes
    /// [`HubHealth`] snapshots into it and journals follower cutoffs.
    metrics: Mutex<Option<ServiceMetrics>>,
}

impl HubInner {
    /// The hub's counters and per-follower lag as one [`HubHealth`]
    /// sample, for the metrics exposition.
    fn health(&self) -> HubHealth {
        let shipped = self.shipped.lock().clone();
        let follower_lags = self
            .followers
            .lock()
            .iter()
            .map(|slot| {
                let acked = slot.acked.lock().clone();
                let lag_events = shipped
                    .all()
                    .into_iter()
                    .map(|(campaign, seq)| seq.saturating_sub(acked.get(campaign)))
                    .sum();
                FollowerLagSample {
                    name: slot.name.clone(),
                    lag_events,
                    acked_max: acked
                        .all()
                        .into_iter()
                        .map(|(_, seq)| seq)
                        .max()
                        .unwrap_or(0),
                }
            })
            .collect::<Vec<_>>();
        HubHealth {
            frames_shipped: self.frames_shipped.load(Ordering::Relaxed),
            events_shipped: self.events_shipped.load(Ordering::Relaxed),
            bytes_shipped: self.bytes_shipped.load(Ordering::Relaxed),
            snapshot_bytes_shipped: self.snapshot_bytes_shipped.load(Ordering::Relaxed),
            followers: follower_lags.len(),
            followers_dropped: self.followers_dropped.load(Ordering::Relaxed),
            follower_lags,
        }
    }
}

/// Aggregate shipping counters of one hub.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HubStats {
    /// Frames fanned out (event and snapshot frames alike).
    pub frames_shipped: u64,
    /// Events carried inside event frames.
    pub events_shipped: u64,
    /// Encoded wire bytes of **event** frames actually fanned out (per
    /// follower copy not counted). Snapshot frames are tallied separately
    /// in [`HubStats::snapshot_bytes_shipped`]: a snapshot is a one-off
    /// bootstrap/fast-forward cost, and folding it into the stream counter
    /// would make "bytes per event" depend on how often campaigns snapshot
    /// rather than on what the steady-state stream costs.
    pub bytes_shipped: u64,
    /// Encoded wire bytes of snapshot frames actually fanned out.
    pub snapshot_bytes_shipped: u64,
    /// Currently subscribed followers.
    pub followers: usize,
    /// Followers cut off for trailing the pump by more than their stream
    /// bound (they must re-subscribe and re-bootstrap to rejoin).
    pub followers_dropped: u64,
    /// Pump iterations that encoded into the retained scratch buffer
    /// without growing it — the per-frame encode allocations the arena
    /// reuse avoided (one exact-size copy per fanned-out record remains;
    /// fan-out itself is refcounting). In steady state this tracks
    /// `frames_shipped` minus the handful of frames that grew the buffer.
    pub encode_buffer_reuses: u64,
}

/// One follower's lag against the hub's shipped watermarks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FollowerLag {
    /// The name the follower subscribed under.
    pub name: String,
    /// Shipped-but-unacked events, summed across campaigns.
    pub lag_events: u64,
    /// The follower's acked watermark per campaign, ascending by id.
    pub acked: Vec<(CampaignId, u64)>,
}

/// The fan-out hub between one primary and its followers.
pub struct ReplicationHub {
    inner: Arc<HubInner>,
    pump: Option<JoinHandle<()>>,
}

impl ReplicationHub {
    /// Spawns the pump thread over the primary's frame feed. The pump ends
    /// (dropping every follower's stream, which the appliers observe as a
    /// clean end-of-stream) when all sink handles are gone — i.e. when the
    /// primary's shard pool has stopped or crashed.
    pub fn spawn(feed: Receiver<ReplicationFrame>) -> Self {
        let inner = Arc::new(HubInner {
            followers: Mutex::new(Vec::new()),
            shipped: Mutex::new(ReplicaWatermarks::new()),
            frames_shipped: AtomicU64::new(0),
            events_shipped: AtomicU64::new(0),
            bytes_shipped: AtomicU64::new(0),
            snapshot_bytes_shipped: AtomicU64::new(0),
            followers_dropped: AtomicU64::new(0),
            encode_buffer_reuses: AtomicU64::new(0),
            metrics: Mutex::new(None),
        });
        let pump_inner = Arc::clone(&inner);
        let pump = std::thread::Builder::new()
            .name("docs-replication-hub".into())
            .spawn(move || pump_loop(&pump_inner, feed))
            .expect("spawn replication hub thread");
        ReplicationHub {
            inner,
            pump: Some(pump),
        }
    }

    /// Subscribes a follower: every frame shipped from now on lands on the
    /// returned link's stream. History *before* the subscription comes
    /// from [`bootstrap_frames`] — subscribe first, scan second, and the
    /// watermark table de-duplicates the overlap.
    ///
    /// The stream is bounded (`FOLLOWER_STREAM_CAPACITY` frames): a follower
    /// that trails the pump by more than the bound is **disconnected**
    /// (counted in [`HubStats::followers_dropped`]) rather than allowed to
    /// grow the primary's memory without limit. Its applier drains what
    /// was buffered, then sees end-of-stream; rejoining means
    /// re-subscribing and re-bootstrapping.
    pub fn subscribe(&self, name: impl Into<String>) -> FollowerLink {
        self.subscribe_with_capacity(name, FOLLOWER_STREAM_CAPACITY)
    }

    /// [`ReplicationHub::subscribe`] with an explicit stream bound (tests
    /// exercise the cutoff with a tiny one).
    pub fn subscribe_with_capacity(
        &self,
        name: impl Into<String>,
        capacity: usize,
    ) -> FollowerLink {
        let (tx, rx) = bounded(capacity.max(1));
        let acked = Arc::new(Mutex::new(ReplicaWatermarks::new()));
        let cut_for_lag = Arc::new(AtomicBool::new(false));
        self.inner.followers.lock().push(FollowerSlot {
            name: name.into(),
            tx,
            acked: Arc::clone(&acked),
            cut_for_lag: Arc::clone(&cut_for_lag),
        });
        FollowerLink {
            frames: rx,
            acked,
            cut_for_lag,
        }
    }

    /// Attaches the primary's metrics: from now on the pump publishes a
    /// [`HubHealth`] snapshot (counters + per-follower lag) after every
    /// shipped frame, and follower lag-cutoffs land in the control
    /// journal — so `render_prometheus()` on the primary covers the hub.
    pub fn attach_metrics(&self, metrics: &ServiceMetrics) {
        *self.inner.metrics.lock() = Some(metrics.clone());
        metrics.hub_observed(self.inner.health());
    }

    /// Shipping counters so far.
    pub fn stats(&self) -> HubStats {
        HubStats {
            frames_shipped: self.inner.frames_shipped.load(Ordering::Relaxed),
            events_shipped: self.inner.events_shipped.load(Ordering::Relaxed),
            bytes_shipped: self.inner.bytes_shipped.load(Ordering::Relaxed),
            snapshot_bytes_shipped: self.inner.snapshot_bytes_shipped.load(Ordering::Relaxed),
            followers: self.inner.followers.lock().len(),
            followers_dropped: self.inner.followers_dropped.load(Ordering::Relaxed),
            encode_buffer_reuses: self.inner.encode_buffer_reuses.load(Ordering::Relaxed),
        }
    }

    /// The highest sequence shipped per campaign.
    pub fn shipped_watermarks(&self) -> Vec<(CampaignId, u64)> {
        self.inner.shipped.lock().all()
    }

    /// Per-follower lag: shipped minus acked, per campaign, summed.
    pub fn lag(&self) -> Vec<FollowerLag> {
        let shipped = self.inner.shipped.lock().clone();
        self.inner
            .followers
            .lock()
            .iter()
            .map(|slot| {
                let acked = slot.acked.lock().clone();
                let lag_events = shipped
                    .all()
                    .into_iter()
                    .map(|(campaign, seq)| seq.saturating_sub(acked.get(campaign)))
                    .sum();
                FollowerLag {
                    name: slot.name.clone(),
                    lag_events,
                    acked: acked.all(),
                }
            })
            .collect()
    }

    /// Waits for the pump to drain and stop (the primary's sinks must all
    /// be dropped first, or this blocks forever).
    pub fn join(mut self) {
        if let Some(pump) = self.pump.take() {
            pump.join().expect("replication hub thread panicked");
        }
    }
}

impl Drop for ReplicationHub {
    fn drop(&mut self) {
        // Dropping the hub handle does not kill the pump: it keeps
        // fanning out until the primary's sinks disappear, then exits on
        // its own. Detach rather than join so drop never deadlocks.
        drop(self.pump.take());
    }
}

fn pump_loop(inner: &HubInner, feed: Receiver<ReplicationFrame>) {
    // The pump's encode scratch, reused across iterations: after the
    // first few frames grow it to the stream's working-set size, each
    // encode is allocation-free and the only per-frame allocation left is
    // the exact-size shared record the followers refcount.
    let mut scratch: Vec<u8> = Vec::new();
    while let Ok(frame) = feed.recv() {
        {
            let mut shipped = inner.shipped.lock();
            match &frame {
                ReplicationFrame::Snapshot(s) => shipped.advance_to(s.campaign, s.seq),
                ReplicationFrame::Events(events) => {
                    for e in events {
                        shipped.advance_to(e.campaign, e.seq);
                    }
                }
            }
        }
        inner.frames_shipped.fetch_add(1, Ordering::Relaxed);
        inner
            .events_shipped
            .fetch_add(frame.num_events() as u64, Ordering::Relaxed);
        // Encode lazily: with nobody subscribed there is no wire to put
        // bytes on, so the pump only tracks watermarks and frame counts.
        // The encode cost (and the byte counters) start when the first
        // follower actually exists.
        if inner.followers.lock().is_empty() {
            continue;
        }
        let cap_before = scratch.capacity();
        encode_frame_into(&frame, &mut scratch);
        if cap_before > 0 && scratch.capacity() == cap_before {
            inner.encode_buffer_reuses.fetch_add(1, Ordering::Relaxed);
        }
        let record = ShippedRecord {
            bytes: Arc::from(scratch.as_slice()),
            shipped_at: Instant::now(),
        };
        let byte_counter = match &frame {
            ReplicationFrame::Snapshot(_) => &inner.snapshot_bytes_shipped,
            ReplicationFrame::Events(_) => &inner.bytes_shipped,
        };
        byte_counter.fetch_add(record.len() as u64, Ordering::Relaxed);
        // Fan out (a refcount bump per follower, the bytes are shared),
        // forgetting followers whose applier hung up — and cutting off
        // followers whose bounded stream is full: the pump never blocks
        // on a laggard, so one wedged follower cannot stall the others or
        // grow the primary's memory without limit.
        let mut cut_names: Vec<String> = Vec::new();
        inner
            .followers
            .lock()
            .retain(|slot| match slot.tx.try_send(record.clone()) {
                Ok(()) => true,
                Err(TrySendError::Full(_)) => {
                    eprintln!(
                        "docs-replication-hub: follower '{}' trails by more than \
                         its stream bound — disconnecting it",
                        slot.name
                    );
                    // Flag first, then drop the sender: by the time the
                    // applier sees end-of-stream the flag is visible.
                    slot.cut_for_lag.store(true, Ordering::SeqCst);
                    cut_names.push(slot.name.clone());
                    false
                }
                Err(TrySendError::Disconnected(_)) => false,
            });
        if !cut_names.is_empty() {
            inner
                .followers_dropped
                .fetch_add(cut_names.len() as u64, Ordering::Relaxed);
        }
        // Metrics ride the pump thread, never a shard: publish the hub's
        // health after each fan-out and journal any cutoffs.
        if let Some(metrics) = inner.metrics.lock().as_ref() {
            for name in &cut_names {
                metrics.journal().warn(
                    JournalKind::FollowerDisconnect,
                    format!("follower '{name}' cut off for trailing past its stream bound"),
                );
            }
            metrics.hub_observed(inner.health());
        }
    }
    // Feed gone (primary stopped or crashed): drop every follower sender
    // so appliers see end-of-stream after draining what was shipped.
    inner.followers.lock().clear();
}

/// Scans a primary's durability directory into bootstrap frames: per
/// campaign, its latest intact snapshot (possibly mid-campaign — the
/// snapshot cadence and creation baselines both qualify) followed by the
/// event suffix beyond it. New followers apply these before their live
/// stream; the shared watermark table silently drops whatever the two
/// overlap on.
///
/// The directory may belong to a **live** primary, whose snapshot cycle
/// can rewrite snapshots and prune segments mid-scan — a single scan
/// caught astride a prune could pair an old snapshot with a post-prune
/// segment set, leaving a sequence hole the live stream can never fill
/// (the applier would refuse it as a gap). The scan therefore repeats
/// until two consecutive passes agree on every campaign's durable
/// frontier; prunes are cadence-spaced, so disagreement is rare and a
/// handful of retries is plenty.
pub fn bootstrap_frames(dir: impl AsRef<Path>) -> Result<Vec<ReplicationFrame>> {
    let dir = dir.as_ref();
    let frontier = |t: &docs_storage::TreeRecovery| {
        t.campaigns
            .iter()
            .map(|(id, c)| (*id, c.snapshot.as_ref().map(|(s, _)| *s), c.last_seq))
            .collect::<Vec<_>>()
    };
    let mut previous: Option<docs_storage::TreeRecovery> = None;
    let mut tree = None;
    let mut last_error = None;
    for _ in 0..8 {
        // A scan caught astride a prune can also *fail* (the old snapshot
        // paired with post-prune segments reads as a sequence gap) — that
        // too is instability, retried rather than propagated.
        match recover_tree(dir) {
            Ok(scan) => {
                if let Some(prev) = &previous {
                    if frontier(prev) == frontier(&scan) {
                        tree = Some(scan);
                        break;
                    }
                }
                previous = Some(scan);
                last_error = None;
            }
            Err(e) => {
                previous = None;
                last_error = Some(e);
            }
        }
    }
    let Some(tree) = tree else {
        return Err(last_error.unwrap_or_else(|| {
            docs_types::Error::Storage(
                "bootstrap scan never stabilized: durability directory kept \
                 changing between passes"
                    .into(),
            )
        }));
    };
    let mut frames = Vec::new();
    for (id, campaign) in &tree.campaigns {
        let Some((seq, payload)) = &campaign.snapshot else {
            // No snapshot: the creation was never acknowledged (same rule
            // as crash recovery) — nothing to bootstrap.
            continue;
        };
        frames.push(ReplicationFrame::Snapshot(SnapshotFrame {
            campaign: *id,
            seq: *seq,
            // Cold path: a bootstrap scan runs once per subscriber, so
            // detaching from the recovery arena is fine here.
            payload: payload.to_vec(),
        }));
        if !campaign.events.is_empty() {
            frames.push(ReplicationFrame::Events(
                campaign
                    .events
                    .iter()
                    .map(|(seq, payload)| EventFrame {
                        campaign: *id,
                        seq: *seq,
                        payload: payload.to_vec(),
                    })
                    .collect(),
            ));
        }
    }
    Ok(frames)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::decode_frame;

    fn event(campaign: u32, seq: u64) -> EventFrame {
        EventFrame {
            campaign: CampaignId(campaign),
            seq,
            payload: format!("e{campaign}-{seq}").into_bytes(),
        }
    }

    #[test]
    fn hub_fans_encoded_frames_out_to_every_follower_and_tracks_lag() {
        // A raw feed channel stands in for the primary's shard sinks (the
        // service-facing `ReplicationSink` wraps exactly this sender; the
        // integration tests cover the full service path).
        let (feed_tx, feed_rx) = unbounded();
        let hub = ReplicationHub::spawn(feed_rx);
        let a = hub.subscribe("a");
        let b = hub.subscribe("b");

        let frame = ReplicationFrame::Events(vec![event(0, 1), event(0, 2), event(5, 1)]);
        feed_tx.send(frame.clone()).unwrap();
        // Both followers receive the identical CRC-checked record.
        let rec_a = a.frames.recv().unwrap();
        let rec_b = b.frames.recv().unwrap();
        assert_eq!(rec_a.bytes(), rec_b.bytes());
        assert_eq!(decode_frame(&rec_a).unwrap(), frame);

        // Shipped watermarks advanced; nobody acked yet.
        wait_until(|| hub.stats().frames_shipped == 1);
        assert_eq!(
            hub.shipped_watermarks(),
            vec![(CampaignId(0), 2), (CampaignId(5), 1)]
        );
        let lag = hub.lag();
        assert_eq!(lag.len(), 2);
        assert_eq!(lag[0].lag_events, 3);
        // Follower `a` acks campaign 0 fully: its lag drops to 1.
        a.acked.lock().advance_to(CampaignId(0), 2);
        let lag = hub.lag();
        assert_eq!(lag[0].name, "a");
        assert_eq!(lag[0].lag_events, 1);
        assert_eq!(lag[1].lag_events, 3);
        assert!(hub.stats().bytes_shipped > 0);
        assert_eq!(hub.stats().followers, 2);

        // Dropping the feed ends the stream for every follower.
        drop(feed_tx);
        assert!(a.frames.recv().is_err());
        assert!(b.frames.recv().is_err());
        hub.join();
    }

    #[test]
    fn a_follower_trailing_past_its_stream_bound_is_cut_off_not_buffered() {
        let (feed_tx, feed_rx) = unbounded();
        let hub = ReplicationHub::spawn(feed_rx);
        // A tiny bound and an applier that never drains.
        let slow = hub.subscribe_with_capacity("slow", 2);
        let healthy = hub.subscribe("healthy");
        for seq in 1..=4u64 {
            feed_tx
                .send(ReplicationFrame::Events(vec![event(0, seq)]))
                .unwrap();
        }
        // The healthy follower got all four frames…
        for _ in 0..4 {
            healthy.frames.recv().unwrap();
        }
        // …while the slow one was disconnected after its bound filled:
        // the two buffered frames drain, then the stream ends.
        wait_until(|| hub.stats().followers_dropped == 1);
        assert_eq!(hub.stats().followers, 1, "laggard no longer subscribed");
        // Four equally-sized frames: the first grows the pump's scratch,
        // the rest reuse it without reallocating.
        assert!(
            hub.stats().encode_buffer_reuses >= 3,
            "steady-state encodes reuse the scratch buffer: {:?}",
            hub.stats()
        );
        assert!(slow.frames.recv().is_ok());
        assert!(slow.frames.recv().is_ok());
        assert!(slow.frames.recv().is_err(), "stream ends after the cutoff");
        // The cutoff is visible follower-side: the applier uses this flag
        // to poison the replica (a cut-off replica must refuse promotion).
        assert!(
            slow.cut_for_lag.load(std::sync::atomic::Ordering::SeqCst),
            "lag cutoff must be distinguishable from a dead primary"
        );
        assert!(
            !healthy
                .cut_for_lag
                .load(std::sync::atomic::Ordering::SeqCst),
            "healthy follower unaffected"
        );
        drop(feed_tx);
        hub.join();
    }

    fn wait_until(cond: impl Fn() -> bool) {
        for _ in 0..500 {
            if cond() {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        panic!("condition not reached");
    }
}
