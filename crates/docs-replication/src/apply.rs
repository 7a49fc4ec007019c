//! The follower side: a replica service plus the applier thread that
//! drains its frame stream, and the controlled promotion that turns the
//! follower into a serving primary during failover.
//!
//! The applier is the *only* writer a follower has. It decodes each
//! CRC-checked record, classifies every event against the shared
//! per-campaign watermark table ([`ReplicaWatermarks`]) — stale frames
//! (bootstrap/stream overlap) are skipped, gaps abort loudly — and applies
//! the survivors through [`ServiceHandle::replicate_apply`], which runs the
//! same deterministic `validate_event`/`apply` transition the primary ran.
//! Advancing the watermark *is* the ack: the primary-side hub reads the
//! same table to compute lag.
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

use crate::frame::decode_frame;
use crate::ship::{FollowerLink, ShippedRecord};
use crossbeam::channel::RecvTimeoutError;
use docs_service::{DocsService, ServiceConfig, ServiceError, ServiceHandle, Stage};
use docs_system::{ReplicaWatermarks, WatermarkAdmission};
use docs_types::{codec, CampaignEvent, CampaignId, Error, ReplicationFrame, Result};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
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
        config: ServiceConfig,
        link: FollowerLink,
        bootstrap: Vec<ReplicationFrame>,
    ) -> std::result::Result<Replica, ServiceError> {
        let (service, handle) = DocsService::spawn_replica(config)?;
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
    for frame in bootstrap {
        if let Err(e) = apply_frame(handle, &link.acked, frame) {
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

/// Applies one frame, advancing the shared watermark table as the ack.
/// Shared with the migration engine: a campaign hand-off applies the same
/// snapshot + suffix stream to the destination primary's intake.
pub(crate) fn apply_frame(
    handle: &ServiceHandle,
    acked: &Mutex<ReplicaWatermarks>,
    frame: ReplicationFrame,
) -> Result<()> {
    let lift = |e: ServiceError| Error::Storage(format!("replica apply failed: {e}"));
    match frame {
        ReplicationFrame::Snapshot(s) => {
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
                    .replicate_install_snapshot(s.campaign, s.seq, s.payload)
                    .map_err(lift)?;
                acked.lock().advance_to(s.campaign, s.seq);
            }
            Ok(())
        }
        ReplicationFrame::Events(events) => {
            for e in events {
                // Classify under a scoped lock: matching on
                // `acked.lock().classify(..)` directly would keep the
                // guard alive across the whole match — including the
                // re-lock in the `Next` arm, a self-deadlock.
                let admission = {
                    let table = acked.lock();
                    table.classify(e.campaign, e.seq)
                };
                match admission {
                    WatermarkAdmission::Stale => continue,
                    WatermarkAdmission::Gap { expected } => {
                        return Err(Error::Storage(format!(
                            "replication stream gap for campaign {}: got sequence {}, \
                             expected {expected}",
                            e.campaign, e.seq
                        )));
                    }
                    WatermarkAdmission::Next => {
                        let event: CampaignEvent =
                            codec::decode_event(&e.payload).map_err(|err| {
                                Error::Storage(format!(
                                    "campaign {} event {}: {err}",
                                    e.campaign, e.seq
                                ))
                            })?;
                        handle
                            .replicate_apply(e.campaign, e.seq, event)
                            .map_err(lift)?;
                        acked.lock().advance_to(e.campaign, e.seq);
                    }
                }
            }
            Ok(())
        }
    }
}
