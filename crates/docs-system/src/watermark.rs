//! Per-campaign replication watermarks — the sequence-number accounting a
//! follower keeps (and acks back to the primary) while applying the
//! shipped log.
//!
//! Every durable campaign event carries the per-campaign sequence number
//! the primary's log assigned it. A follower's **watermark** for a
//! campaign is the highest sequence it has fully applied; the replication
//! invariant is that the follower's state at watermark `w` serializes to
//! exactly the bytes the primary's state had after its `w`-th event. The
//! stream may resend (a bootstrap scan overlapping the live subscription)
//! but must never skip: resends are classified [`WatermarkAdmission::Stale`]
//! and dropped, the next expected sequence applies, and anything beyond it
//! is a [`WatermarkAdmission::Gap`] — a protocol error the applier
//! surfaces instead of serving wrong state.

use docs_types::CampaignId;
use std::collections::BTreeMap;

/// How an incoming sequence number relates to a campaign's watermark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatermarkAdmission {
    /// At or below the watermark: already applied (a resend) — skip it.
    Stale,
    /// Exactly `watermark + 1`: apply it and advance.
    Next,
    /// Beyond `watermark + 1`: events are missing — refuse to apply.
    Gap {
        /// The sequence number the stream was expected to carry.
        expected: u64,
    },
}

impl WatermarkAdmission {
    /// Classifies an incoming event sequence against a campaign's
    /// watermark ([`ReplicaWatermarks::get`]). A campaign with no watermark
    /// expects sequence 1 — unless a snapshot
    /// [`ReplicaWatermarks::advance_to`]d it first.
    pub fn of(watermark: u64, seq: u64) -> Self {
        if seq <= watermark {
            WatermarkAdmission::Stale
        } else if seq == watermark + 1 {
            WatermarkAdmission::Next
        } else {
            WatermarkAdmission::Gap {
                expected: watermark + 1,
            }
        }
    }
}

/// The per-campaign applied-sequence table of one follower (`BTreeMap`
/// keeps reports deterministic).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplicaWatermarks {
    applied: BTreeMap<CampaignId, u64>,
}

impl ReplicaWatermarks {
    /// An empty table (no campaign applied anything yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// The highest sequence applied for a campaign (`0` = nothing, not
    /// even a snapshot).
    pub fn get(&self, campaign: CampaignId) -> u64 {
        self.applied.get(&campaign).copied().unwrap_or(0)
    }

    /// Whether the campaign has a watermark at all. Distinguishes "never
    /// bootstrapped" from "bootstrapped at sequence 0": a creation
    /// baseline snapshot covers sequence 0, so its install must key on
    /// *presence*, not on `get() == 0`.
    pub fn contains(&self, campaign: CampaignId) -> bool {
        self.applied.contains_key(&campaign)
    }

    /// Moves a campaign's watermark forward to `seq` (event applied, or
    /// snapshot installed at `seq`). Never moves backward — a stale
    /// snapshot cannot roll back an already-applied suffix.
    pub fn advance_to(&mut self, campaign: CampaignId, seq: u64) {
        let slot = self.applied.entry(campaign).or_insert(0);
        *slot = (*slot).max(seq);
    }

    /// Every campaign's watermark, ascending by campaign id.
    pub fn all(&self) -> Vec<(CampaignId, u64)> {
        self.applied.iter().map(|(c, s)| (*c, *s)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C0: CampaignId = CampaignId(0);
    const C1: CampaignId = CampaignId(1);

    #[test]
    fn classification_covers_stale_next_and_gap() {
        let mut wm = ReplicaWatermarks::new();
        assert!(wm.all().is_empty());
        assert!(!wm.contains(C0));
        // A baseline snapshot at sequence 0 still registers presence.
        wm.advance_to(C0, 0);
        assert!(wm.contains(C0));
        assert_eq!(wm.get(C0), 0);
        // A fresh campaign expects sequence 1.
        assert_eq!(
            WatermarkAdmission::of(wm.get(C0), 1),
            WatermarkAdmission::Next
        );
        assert_eq!(
            WatermarkAdmission::of(wm.get(C0), 3),
            WatermarkAdmission::Gap { expected: 1 }
        );
        wm.advance_to(C0, 1);
        assert_eq!(wm.get(C0), 1);
        assert_eq!(
            WatermarkAdmission::of(wm.get(C0), 1),
            WatermarkAdmission::Stale
        );
        assert_eq!(
            WatermarkAdmission::of(wm.get(C0), 2),
            WatermarkAdmission::Next
        );
        // Campaigns are independent.
        assert_eq!(
            WatermarkAdmission::of(wm.get(C1), 1),
            WatermarkAdmission::Next
        );
        assert_eq!(wm.all(), vec![(C0, 1)]);
    }

    #[test]
    fn snapshots_fast_forward_but_never_roll_back() {
        let mut wm = ReplicaWatermarks::new();
        // Mid-campaign bootstrap: a snapshot at seq 7 skips the prefix.
        wm.advance_to(C0, 7);
        assert_eq!(
            WatermarkAdmission::of(wm.get(C0), 7),
            WatermarkAdmission::Stale
        );
        assert_eq!(
            WatermarkAdmission::of(wm.get(C0), 8),
            WatermarkAdmission::Next
        );
        // A stale snapshot resent later must not rewind the applied suffix.
        wm.advance_to(C0, 3);
        assert_eq!(wm.get(C0), 7);
        assert_eq!(wm.all(), vec![(C0, 7)]);
    }
}
