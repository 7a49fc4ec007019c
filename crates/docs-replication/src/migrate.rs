//! Live campaign migration: moves one campaign between two primary nodes
//! while workers keep submitting, reusing the replication machinery as a
//! hand-off protocol.
//!
//! Replication already stretches the crash-recovery contract over a wire:
//! snapshot + ordered durable event suffix rebuilds a byte-identical
//! state machine. A migration is the same shipment with a different
//! ending — instead of tailing forever, the source is *fenced* at a
//! recorded watermark and the destination takes over the write path:
//!
//! 1. **subscribe** to the source's [`ReplicationHub`] (before scanning,
//!    the same subscribe-first/scan-second order a new replica uses — the
//!    watermark table de-duplicates the overlap, and a gap is impossible
//!    because anything flushed before the subscription is on disk for the
//!    scan),
//! 2. **copy**: apply the campaign's [`bootstrap_frames`] (latest
//!    snapshot + durable suffix) to the destination, which is in *intake*
//!    ([`ServiceHandle::prepare_migration_in`]): it accepts the
//!    replication plane for this campaign while still redirecting client
//!    mutations to the source,
//! 3. **fence** the source ([`ServiceHandle::fence_in`]): its shard
//!    hardens the campaign's log, ships the tail, records the hand-off
//!    watermark, and from then on redirects mutations to the destination
//!    with [`RejectReason::WrongNode`](docs_types::RejectReason) — reads
//!    keep being served locally (the fenced copy is a
//!    consistent-but-stale replica),
//! 4. **chase the tail**: drain the live stream until the destination
//!    has applied everything at or below the fence watermark. Because the
//!    fence flushed *then* shipped before answering, every event the
//!    source ever acknowledged is on the wire by the time the fence
//!    watermark is known — no acked event can be lost,
//! 5. **adopt** ([`ServiceHandle::complete_migration_in`]): the
//!    destination starts accepting the campaign's mutations. In-flight
//!    submissions that bounced between the two redirects during the
//!    fence window are the router's to forward
//!    ([`ClusterRouter`](docs_service::ClusterRouter) parks ~1 ms per
//!    bounce and retries — "buffer and forward").
//!
//! The caller then flips the routing directory: bump the
//! [`ClusterMap`](docs_types::ClusterMap) epoch, assign the campaign to
//! the destination, and install the map on routers and nodes — stale
//! clients self-heal off the `WrongNode` answers.
//!
//! [`bootstrap_frames`]: crate::bootstrap_frames
//! [`ServiceHandle::prepare_migration_in`]: docs_service::ServiceHandle
//! [`ServiceHandle::fence_in`]: docs_service::ServiceHandle
//! [`ServiceHandle::complete_migration_in`]: docs_service::ServiceHandle

use crate::apply::apply_frame;
use crate::frame::decode_frame;
use crate::ship::{bootstrap_frames, FollowerLink, ReplicationHub};
use crossbeam::channel::RecvTimeoutError;
use docs_service::{ServiceError, ServiceHandle, Stage};
use docs_types::{CampaignId, Error, NodeId, ReplicationFrame, Result};
use std::path::Path;
use std::time::{Duration, Instant};

/// How long the tail chase may wait for the fenced watermark to come out
/// of the wire before the migration gives up. The fence has already
/// flushed and shipped by the time the watermark is known, so this only
/// has to cover hub pump + apply latency — seconds of slack on a path
/// that takes milliseconds.
const TAIL_CHASE_TIMEOUT: Duration = Duration::from_secs(30);

/// The source side of a migration: where the campaign currently lives.
pub struct MigrationSource<'a> {
    /// The owning primary's routing handle.
    pub handle: &'a ServiceHandle,
    /// The owning node's cluster identity.
    pub node: NodeId,
    /// The owning pool's durability directory (scanned for the snapshot
    /// + suffix shipment, exactly like a new replica's bootstrap).
    pub dir: &'a Path,
    /// The owning pool's replication hub (the tail arrives through it).
    pub hub: &'a ReplicationHub,
}

/// What a completed migration measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationOutcome {
    /// The campaign that moved.
    pub campaign: CampaignId,
    /// The source's hand-off watermark: the highest sequence it ever
    /// acknowledged. The destination applied everything at or below it.
    pub fence_watermark: u64,
    /// Bootstrap frames (snapshot + suffix batches) copied before the
    /// fence.
    pub bootstrap_frames: usize,
    /// Watermark distance covered through the live stream after the
    /// bootstrap copy — the tail the fence window had to chase.
    pub streamed_events: u64,
    /// Fence → adoption: how long mutations had no serving owner and the
    /// routers buffered-and-forwarded.
    pub fence_window: Duration,
}

/// Moves `campaign` from `source` to the destination primary, live: the
/// source keeps serving until the fence, the destination takes over at
/// the recorded watermark, and no acknowledged event is lost in between.
///
/// Only durable campaigns can move — the shipment *is* the durability
/// artifact (snapshot + suffix); a memory-only campaign has nothing on
/// disk to copy and the call refuses it.
///
/// On success the caller still owns the directory flip: bump the
/// [`ClusterMap`](docs_types::ClusterMap) epoch, assign the campaign to
/// `dst_node`, and install the map on every router and node.
pub fn migrate_campaign(
    campaign: CampaignId,
    source: &MigrationSource<'_>,
    dst: &ServiceHandle,
    dst_node: NodeId,
) -> Result<MigrationOutcome> {
    let lift = |e: ServiceError| Error::Storage(format!("migration control: {e}"));
    // Subscribe first, scan second (the replica bootstrap order): the
    // stream covers everything after this instant, the scan everything
    // before it, and the watermark table drops the overlap.
    let link = source.hub.subscribe(format!("migrate-{campaign}"));
    let bootstrap: Vec<ReplicationFrame> = bootstrap_frames(source.dir)?
        .into_iter()
        .filter_map(|frame| filter_frame(frame, campaign))
        .collect();
    if bootstrap.is_empty() {
        return Err(Error::Storage(format!(
            "campaign {campaign} has no durable state to migrate; only \
             durable campaigns can move between nodes"
        )));
    }
    // Intake: from here the destination accepts this campaign's
    // replication plane while still redirecting client mutations to the
    // source — the write path has exactly one owner at every instant.
    dst.prepare_migration_in(campaign, source.node)
        .map_err(lift)?;
    let bootstrap_count = bootstrap.len();
    for frame in bootstrap {
        apply_frame(dst, &link.acked, frame)?;
    }
    let after_bootstrap = link.acked.lock().get(campaign);
    // The source kept acknowledging answers during the copy; drain what
    // the stream buffered so the fence window starts as short as it can.
    while let Ok(record) = link.frames.try_recv() {
        apply_filtered(dst, &link, &record, campaign)?;
    }

    // Fence: the source hardens the log, ships the tail, records the
    // hand-off watermark, and starts redirecting mutations to `dst_node`.
    let fence_started = Instant::now();
    let fence_watermark = source.handle.fence_in(campaign, dst_node).map_err(lift)?;

    // Chase the tail to the fence watermark. Flush-then-ship inside the
    // fence guarantees every acknowledged event is on the wire by now.
    let deadline = Instant::now() + TAIL_CHASE_TIMEOUT;
    while link.acked.lock().get(campaign) < fence_watermark {
        if Instant::now() >= deadline {
            return Err(Error::Storage(format!(
                "migration of campaign {campaign} timed out chasing the \
                 fenced tail: applied {}, fenced at {fence_watermark}",
                link.acked.lock().get(campaign)
            )));
        }
        match link.frames.recv_timeout(Duration::from_millis(20)) {
            Ok(record) => apply_filtered(dst, &link, &record, campaign)?,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => {
                return Err(Error::Storage(format!(
                    "migration of campaign {campaign} lost its stream below \
                     the fence watermark: applied {}, fenced at \
                     {fence_watermark}",
                    link.acked.lock().get(campaign)
                )));
            }
        }
    }

    // Adopt: the destination owns the write path; redirected submissions
    // the routers buffered during the fence window land here now.
    dst.complete_migration_in(campaign).map_err(lift)?;
    let fence_window = fence_started.elapsed();
    // The adopting node owns the campaign now; the fence window is its
    // unavailability story, so its histogram gets the sample.
    dst.metrics()
        .observe(Stage::FenceWindow, fence_window.as_nanos() as u64);
    let applied = link.acked.lock().get(campaign);
    Ok(MigrationOutcome {
        campaign,
        fence_watermark,
        bootstrap_frames: bootstrap_count,
        streamed_events: applied.saturating_sub(after_bootstrap),
        fence_window,
    })
}

/// Decodes one wire record and applies whatever of it belongs to the
/// migrating campaign — the hub fans out the whole feed, and frames of
/// co-hosted campaigns are not ours to apply.
fn apply_filtered(
    dst: &ServiceHandle,
    link: &FollowerLink,
    record: &[u8],
    campaign: CampaignId,
) -> Result<()> {
    if let Some(frame) = filter_frame(decode_frame(record)?, campaign) {
        apply_frame(dst, &link.acked, frame)?;
    }
    Ok(())
}

/// Restricts a frame to one campaign. Dropping foreign events cannot open
/// a gap: each campaign's sequence numbers are its own.
fn filter_frame(frame: ReplicationFrame, campaign: CampaignId) -> Option<ReplicationFrame> {
    match frame {
        ReplicationFrame::Snapshot(s) if s.campaign == campaign => {
            Some(ReplicationFrame::Snapshot(s))
        }
        ReplicationFrame::Snapshot(_) => None,
        ReplicationFrame::Events(events) => {
            let kept: Vec<_> = events
                .into_iter()
                .filter(|e| e.campaign == campaign)
                .collect();
            if kept.is_empty() {
                None
            } else {
                Some(ReplicationFrame::Events(kept))
            }
        }
    }
}
