//! The follower side: a replica service plus the applier thread that
//! drains its frame stream, and the controlled promotion that turns the
//! follower into a serving primary during failover.
//!
//! The applier is the *only* writer a follower has, and it works a frame
//! at a time. It decodes each CRC-checked record in place (a borrowed
//! [`FrameView`]: payloads stay slices of the shared record), classifies
//! all of the frame's events against the shared per-campaign watermark
//! table ([`ReplicaWatermarks`]) under one lock — stale events
//! (bootstrap/stream overlap) are skipped, a gap refuses the whole frame
//! before any of it is sent — and hands the decoded survivors over in one
//! [`ServiceHandle::replicate_apply`] call: one round trip per owning
//! shard, where each event runs the same deterministic
//! `validate_event`/`apply` transition the primary ran. Only after that
//! call succeeds do the watermarks advance. Advancing the watermark *is*
//! the ack: the primary-side hub reads the same table to compute lag.
//! Bootstrap frames take the same path.
//!
//! **Promotion** ([`Replica::promote`]) is drain-then-flip: the applier
//! first applies every frame already received (a crashed primary's entire
//! shipped suffix sits in the stream), then the role cell flips to
//! [`Primary`](docs_types::ReplicaRole::Primary) and the pool starts
//! accepting mutations. The returned [`Promotion`] records the watermark
//! each campaign was promoted at — the "no acknowledged event lost" line
//! the failover test pins: with `FlushPolicy::EveryEvent`, every event the
//! old primary ever acknowledged is durable, therefore shipped, therefore
//! at or below the promotion watermark.

use crate::frame::{decode_frame, encode_frame, EventsView, FrameView};
use crate::ship::{FollowerLink, ShippedRecord};
use docs_service::{DocsService, ServiceConfig, ServiceError, ServiceHandle, Stage};
use docs_system::{ReplicaWatermarks, WatermarkAdmission};
use docs_types::{codec, CampaignEvent, CampaignId, Error, ReplicaRole, ReplicationFrame, Result};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A running read replica: the follower service pool plus its applier.
pub struct Replica {
    service: DocsService,
    handle: ServiceHandle,
    applier: Option<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    watermarks: Arc<Mutex<ReplicaWatermarks>>,
    error: Arc<Mutex<Option<String>>>,
}

/// The outcome of a promotion: the (now primary) service and the
/// watermark each campaign was promoted at.
pub struct Promotion {
    /// The promoted pool — accepts mutations from here on.
    pub service: DocsService,
    /// A routing handle to it (role already flipped).
    pub handle: ServiceHandle,
    /// Per-campaign promotion watermarks, ascending by campaign id: the
    /// highest primary-assigned sequence applied before the flip.
    pub watermarks: Vec<(CampaignId, u64)>,
}

impl Replica {
    /// Spawns a follower pool under `config` (role forced to follower),
    /// applies `bootstrap` frames (a [`bootstrap_frames`](crate::bootstrap_frames)
    /// scan of the primary's durability directory — possibly starting from
    /// a mid-campaign snapshot), then keeps applying the live stream of
    /// `link`. Subscribe **before** scanning for bootstrap: the watermark
    /// table drops whatever the scan and the stream overlap on, and a gap
    /// is impossible because anything flushed before the subscription is
    /// on disk for the scan.
    pub fn spawn(
        mut config: ServiceConfig,
        link: FollowerLink,
        bootstrap: Vec<ReplicationFrame>,
    ) -> std::result::Result<Replica, ServiceError> {
        config.role = ReplicaRole::Follower;
        let (service, handle) = DocsService::spawn_empty(config)?;
        let stop = Arc::new(AtomicBool::new(false));
        let error = Arc::new(Mutex::new(None));
        let watermarks = Arc::clone(&link.acked);
        let applier = {
            let handle = handle.clone();
            let stop = Arc::clone(&stop);
            let error = Arc::clone(&error);
            std::thread::Builder::new()
                .name("docs-replica-applier".into())
                .spawn(move || applier_loop(&handle, &link, bootstrap, &stop, &error))
                .expect("spawn replica applier thread")
        };
        Ok(Replica {
            service,
            handle,
            applier: Some(applier),
            stop,
            watermarks,
            error,
        })
    }

    /// A read handle to the follower (reads served locally; mutations
    /// refused with `RejectReason::ReadOnlyReplica`).
    pub fn handle(&self) -> &ServiceHandle {
        &self.handle
    }

    /// The follower's applied-and-acked watermark for one campaign.
    pub fn watermark(&self, campaign: CampaignId) -> u64 {
        self.watermarks.lock().get(campaign)
    }

    /// Every campaign's watermark, ascending by id.
    pub fn watermarks(&self) -> Vec<(CampaignId, u64)> {
        self.watermarks.lock().all()
    }

    /// The applier's fatal error, if it hit one (decode failure, sequence
    /// gap, refused apply). A healthy replica returns `None`.
    pub fn error(&self) -> Option<String> {
        self.error.lock().clone()
    }

    /// Controlled failover: drains every frame already received (a dead
    /// primary's full shipped suffix), stops the applier, flips the pool
    /// to primary, and reports the promotion watermarks. Fails — leaving
    /// nothing promoted — if the applier had recorded an error: promoting
    /// a replica that diverged from the stream would serve wrong state.
    ///
    /// Call this after the failed primary's pool has stopped (and, when
    /// you hold the hub, after [`ReplicationHub::join`](crate::ReplicationHub) —
    /// the order the failover tests and example use): the drain then ends
    /// at exact end-of-stream. Promoting while the old primary still
    /// serves writes is split-brain by definition; the drain's grace
    /// window bounds — but no watermark can prove — what such a promotion
    /// covers.
    pub fn promote(mut self) -> Result<Promotion> {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(applier) = self.applier.take() {
            applier.join().expect("replica applier thread panicked");
        }
        if let Some(e) = self.error.lock().clone() {
            return Err(Error::Storage(format!(
                "refusing to promote a diverged replica: {e}"
            )));
        }
        let watermarks = self.watermarks.lock().all();
        self.handle.promote_to_primary();
        Ok(Promotion {
            service: self.service,
            handle: self.handle,
            watermarks,
        })
    }

    /// Stops the applier without promoting and returns the still-follower
    /// pool (e.g. to shut a replica down cleanly).
    pub fn detach(mut self) -> (DocsService, ServiceHandle) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(applier) = self.applier.take() {
            applier.join().expect("replica applier thread panicked");
        }
        (self.service, self.handle)
    }
}

fn record_error(error: &Mutex<Option<String>>, message: String) {
    let mut slot = error.lock();
    if slot.is_none() {
        *slot = Some(message);
    }
}

/// End-of-stream handling: a dead primary is a clean stop, but a **lag
/// cutoff** (the hub disconnected this follower for trailing past its
/// stream bound) must poison the replica — the primary kept acknowledging
/// events beyond what this follower ever received, so promoting it would
/// silently lose them. The hub raises the flag *before* dropping the
/// sender, so it is visible by the time the disconnect surfaces.
fn on_stream_end(link: &FollowerLink, error: &Mutex<Option<String>>) {
    if link.cut_for_lag.load(Ordering::SeqCst) {
        record_error(
            error,
            "cut off by the hub for trailing past the follower stream bound; \
             events acknowledged beyond this replica's watermark were never \
             received — re-subscribe and re-bootstrap"
                .to_string(),
        );
    }
}

fn applier_loop(
    handle: &ServiceHandle,
    link: &FollowerLink,
    bootstrap: Vec<ReplicationFrame>,
    stop: &AtomicBool,
    error: &Mutex<Option<String>>,
) {
    for frame in &bootstrap {
        if let Err(e) = apply_bootstrap(handle, &link.acked, frame) {
            record_error(error, format!("bootstrap: {e}"));
            return;
        }
    }
    loop {
        if stop.load(Ordering::SeqCst) {
            // Drain-then-stop: everything already shipped must be applied
            // before a promotion may speak for the stream. The drain uses
            // a grace window rather than `try_recv`: after a primary
            // crash the hub's pump may still be moving the final feed
            // frames into this follower's channel, and a momentarily
            // empty channel must not end the drain below the shipped
            // suffix. The window only has to outlive a channel-to-channel
            // forward (microseconds); end-of-stream (hub gone) ends the
            // drain exactly.
            loop {
                match link.frames.recv_timeout(Duration::from_millis(100)) {
                    Ok(record) => {
                        if let Err(e) = decode_and_apply(handle, &link.acked, &record) {
                            record_error(error, e.to_string());
                            return;
                        }
                    }
                    Err(RecvTimeoutError::Timeout) => return,
                    Err(RecvTimeoutError::Disconnected) => {
                        on_stream_end(link, error);
                        return;
                    }
                }
            }
        }
        match link.frames.recv_timeout(Duration::from_millis(20)) {
            Ok(record) => {
                if let Err(e) = decode_and_apply(handle, &link.acked, &record) {
                    record_error(error, e.to_string());
                    return;
                }
            }
            Err(RecvTimeoutError::Timeout) => continue,
            // End of stream: the primary (or its hub) is gone — or this
            // follower was cut off for lag, which must block promotion.
            // Everything shipped to *this* follower was delivered before
            // the disconnect surfaced; stay a follower and await
            // promotion or detach.
            Err(RecvTimeoutError::Disconnected) => {
                on_stream_end(link, error);
                return;
            }
        }
    }
}

fn decode_and_apply(
    handle: &ServiceHandle,
    acked: &Mutex<ReplicaWatermarks>,
    record: &ShippedRecord,
) -> Result<()> {
    apply_frame(handle, acked, decode_frame(record.bytes())?)?;
    // Ship→applied lag, as the follower experienced it: the pump stamped
    // the record at fan-out, the frame is applied (and acked) now.
    handle.metrics().observe(
        Stage::ReplicationLag,
        record.shipped_at.elapsed().as_nanos() as u64,
    );
    Ok(())
}

/// Applies one bootstrap frame through the stream's path: framed as the
/// hub frames it and decoded as the wire is, so a directory scan passes
/// the same checks as a shipped record.
fn apply_bootstrap(
    handle: &ServiceHandle,
    acked: &Mutex<ReplicaWatermarks>,
    frame: &ReplicationFrame,
) -> Result<()> {
    apply_frame(handle, acked, decode_frame(&encode_frame(frame))?)
}

/// Applies one decoded frame, advancing the shared watermark table as the
/// ack — the one apply path of the live stream and the bootstrap.
///
/// An events frame costs one [`ServiceHandle::replicate_apply`] round
/// trip per owning shard, whatever its length: its events are classified
/// under one lock, the admitted ones decoded and handed over in one call,
/// and only once that call succeeded do the watermarks move. A refused
/// batch moves none — under-acking a poisoned replica is safe, over-acking
/// is not.
fn apply_frame(
    handle: &ServiceHandle,
    acked: &Mutex<ReplicaWatermarks>,
    frame: FrameView<'_>,
) -> Result<()> {
    let lift = |e: ServiceError| Error::Storage(format!("replica apply failed: {e}"));
    match frame {
        FrameView::Snapshot(s) => {
            // Install when the campaign is new to this follower (a
            // creation baseline covers sequence 0, so presence — not the
            // watermark value — decides) or when the snapshot moves it
            // forward; a snapshot at or below an existing watermark is
            // already covered by applied state (the cadence snapshot that
            // follows the events it summarizes).
            let install = {
                let table = acked.lock();
                !table.contains(s.campaign) || s.seq > table.get(s.campaign)
            };
            if install {
                handle
                    .replicate_install_snapshot(s.campaign, s.seq, s.payload.to_vec())
                    .map_err(lift)?;
                acked.lock().advance_to(s.campaign, s.seq);
            }
            Ok(())
        }
        FrameView::Events(events) => {
            let batch = admit(&acked.lock(), events)?;
            if batch.is_empty() {
                return Ok(());
            }
            handle.replicate_apply(batch).map_err(lift)?;
            // The ack follows the apply. Every event of the frame was
            // either stale or applied, so each moves its campaign's
            // watermark to at least its own sequence.
            let mut table = acked.lock();
            for e in events.iter() {
                if e.seq > table.get(e.campaign) {
                    table.advance_to(e.campaign, e.seq);
                }
            }
            Ok(())
        }
    }
}

/// Classifies a frame's events against the watermark table and
/// decodes the admitted ones, in frame order. An event of a campaign that
/// already has an admitted event earlier in the frame is classified
/// against that one, so a run of one campaign inside a frame applies in
/// sequence. Stale events (the bootstrap / stream overlap) are skipped; a
/// gap anywhere refuses the whole frame before any of it is applied.
fn admit(
    table: &ReplicaWatermarks,
    events: EventsView<'_>,
) -> Result<Vec<(CampaignId, u64, CampaignEvent)>> {
    let mut batch: Vec<(CampaignId, u64, CampaignEvent)> = Vec::with_capacity(events.len());
    for e in events.iter() {
        let watermark = batch
            .iter()
            .rev()
            .find(|(campaign, ..)| *campaign == e.campaign)
            .map_or_else(|| table.get(e.campaign), |&(_, seq, _)| seq);
        match WatermarkAdmission::of(watermark, e.seq) {
            WatermarkAdmission::Stale => {}
            WatermarkAdmission::Gap { expected } => {
                return Err(Error::Storage(format!(
                    "replication stream gap for campaign {}: got sequence {}, \
                     expected {expected}",
                    e.campaign, e.seq
                )));
            }
            WatermarkAdmission::Next => {
                let event = codec::decode_event(e.payload).map_err(|err| {
                    Error::Storage(format!("campaign {} event {}: {err}", e.campaign, e.seq))
                })?;
                batch.push((e.campaign, e.seq, event));
            }
        }
    }
    Ok(batch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use docs_service::{Counter, OpKind, RejectReason};
    use docs_system::{Docs, DocsConfig};
    use docs_types::{EventFrame, TaskBuilder, WorkerId};

    const A: CampaignId = CampaignId(0);
    const B: CampaignId = CampaignId(1);

    fn campaign() -> Docs {
        let tasks = (0..6)
            .map(|i| {
                TaskBuilder::new(i, format!("task {i}"))
                    .yes_no()
                    .with_ground_truth(i % 2)
                    .with_true_domain(1)
                    .build()
                    .unwrap()
            })
            .collect();
        let config = DocsConfig {
            num_golden: 2,
            ..Default::default()
        };
        Docs::publish(&docs_kb::table2_example_kb(), tasks, config).unwrap()
    }

    /// Worker `seq`'s golden HIT: valid at any position of the stream, so
    /// sequence `seq` of a campaign can carry it whatever came before.
    fn golden(docs: &Docs, seq: u64) -> CampaignEvent {
        let answers = docs.golden_ids().iter().map(|&g| (g, 0)).collect();
        CampaignEvent::golden(WorkerId(seq as u32), answers)
    }

    fn events(docs: &Docs, tagged: &[(CampaignId, u64)]) -> ReplicationFrame {
        ReplicationFrame::Events(
            tagged
                .iter()
                .map(|&(campaign, seq)| EventFrame {
                    campaign,
                    seq,
                    payload: codec::encode_event(&golden(docs, seq)),
                })
                .collect(),
        )
    }

    /// A one-shard follower holding `campaigns` at sequence 0.
    fn follower(docs: &mut Docs, campaigns: &[CampaignId]) -> (DocsService, ServiceHandle) {
        let (service, handle) = DocsService::spawn_empty(ServiceConfig::follower(1)).unwrap();
        for &campaign in campaigns {
            handle
                .replicate_install_snapshot(campaign, 0, docs.snapshot_bytes())
                .unwrap();
        }
        (service, handle)
    }

    fn table(campaigns: &[CampaignId]) -> Mutex<ReplicaWatermarks> {
        let mut table = ReplicaWatermarks::new();
        for &campaign in campaigns {
            table.advance_to(campaign, 0);
        }
        Mutex::new(table)
    }

    fn applied(handle: &ServiceHandle) -> (u64, u64) {
        let metrics = handle.metrics();
        (
            metrics.counter(Counter::EventsApplied),
            metrics.stats(OpKind::Replicate).count,
        )
    }

    fn stop(service: DocsService, handle: ServiceHandle) {
        drop(handle);
        service.join_all();
    }

    #[test]
    fn a_frame_straddling_the_bootstrap_overlap_applies_only_its_new_suffix() {
        let mut docs = campaign();
        let (service, handle) = follower(&mut docs, &[A]);
        let acked = table(&[A]);
        let bootstrap = events(&docs, &[(A, 1), (A, 2), (A, 3)]);
        apply_bootstrap(&handle, &acked, &bootstrap).unwrap();
        let before = applied(&handle);
        let stream = events(&docs, &[(A, 2), (A, 3), (A, 4), (A, 5)]);
        apply_bootstrap(&handle, &acked, &stream).unwrap();
        assert_eq!(acked.lock().get(A), 5);
        assert_eq!(applied(&handle), (before.0 + 2, before.1 + 1));
        // A frame that is stale through and through costs no round trip.
        apply_bootstrap(&handle, &acked, &stream).unwrap();
        assert_eq!(applied(&handle), (before.0 + 2, before.1 + 1));
        stop(service, handle);
    }

    #[test]
    fn runs_of_one_campaign_inside_a_frame_apply_in_sequence() {
        let mut docs = campaign();
        let (service, handle) = follower(&mut docs, &[A, B]);
        let acked = table(&[A, B]);
        let before = applied(&handle);
        let frame = events(&docs, &[(A, 1), (B, 1), (A, 2), (A, 3), (B, 2)]);
        apply_bootstrap(&handle, &acked, &frame).unwrap();
        assert_eq!(acked.lock().all(), vec![(A, 3), (B, 2)]);
        assert_eq!(applied(&handle), (before.0 + 5, before.1 + 1));
        stop(service, handle);
    }

    #[test]
    fn a_mid_frame_gap_refuses_the_whole_frame() {
        let mut docs = campaign();
        let (service, handle) = follower(&mut docs, &[A, B]);
        let acked = table(&[A, B]);
        let before = applied(&handle);
        for gapped in [
            events(&docs, &[(A, 1), (A, 2), (A, 4)]),
            events(&docs, &[(A, 1), (B, 2), (A, 2)]),
        ] {
            let err = apply_bootstrap(&handle, &acked, &gapped).unwrap_err();
            assert!(err.to_string().contains("gap"), "{err}");
            assert_eq!(applied(&handle), before, "nothing of the frame applied");
            assert_eq!(acked.lock().all(), vec![(A, 0), (B, 0)]);
        }
        stop(service, handle);
    }

    #[test]
    fn a_batch_the_follower_refuses_advances_no_watermark() {
        let mut docs = campaign();
        let (service, handle) = follower(&mut docs, &[A]);
        let acked = table(&[A]);
        let mut frame = events(&docs, &[(A, 1), (A, 2)]);
        let ReplicationFrame::Events(tagged) = &mut frame else {
            unreachable!("events() builds an events frame");
        };
        tagged[1].payload = codec::encode_event(&CampaignEvent::golden(
            WorkerId(2),
            vec![(docs_types::TaskId(999), 0)],
        ));
        let err = apply_bootstrap(&handle, &acked, &frame).unwrap_err();
        assert!(err.to_string().contains("replica apply failed"), "{err}");
        assert_eq!(acked.lock().get(A), 0, "under-ack, never over-ack");
        stop(service, handle);
    }

    #[test]
    fn a_primary_refuses_the_replication_plane_naming_the_first_campaign() {
        let mut docs = campaign();
        let (service, handle) = DocsService::spawn_empty(ServiceConfig::default()).unwrap();
        let refused = |campaign| ServiceError::Rejected(RejectReason::NotAFollower { campaign });
        assert_eq!(
            handle
                .replicate_install_snapshot(A, 0, docs.snapshot_bytes())
                .unwrap_err(),
            refused(A)
        );
        let batch = vec![(B, 1, golden(&docs, 1)), (A, 1, golden(&docs, 1))];
        assert_eq!(handle.replicate_apply(batch).unwrap_err(), refused(B));
        assert_eq!(handle.metrics().counter(Counter::EventsApplied), 0);
        stop(service, handle);
    }
}
