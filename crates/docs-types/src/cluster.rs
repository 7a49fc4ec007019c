//! Cluster vocabulary for multi-primary scale-out: node identity and the
//! versioned campaign→node routing directory.
//!
//! Read replicas (the `replication` module) scale the read path; the write
//! path still serializes through whichever node owns a campaign. The types
//! here make that ownership a first-class, *migratable* fact instead of a
//! deployment constant:
//!
//! * [`NodeId`] — a primary node's identity inside one cluster,
//! * [`ClusterMap`] — the whole directory, versioned by an epoch that is
//!   bumped on every placement change. Routers compare epochs to decide
//!   which of two maps is fresher; a node that fenced a campaign away
//!   answers mutations with `RejectReason::WrongNode { owner }` so a
//!   stale-mapped client can converge on the new owner in one retry.
//!
//! The directory is deliberately a plain value (no interior mutability, no
//! I/O): services install a copy per shard, routers hold one behind their
//! own lock, and the migration driver is the single writer that bumps the
//! epoch.

use crate::CampaignId;
use std::collections::BTreeMap;
use std::fmt;

/// Identity of one primary node inside a cluster.
///
/// Zero-based and dense, like `CampaignId`/`WorkerId`; the value carries no
/// locality meaning beyond "a distinct shard pool".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The campaign→node routing directory, versioned by an epoch.
///
/// Campaigns without an explicit placement belong to `default_owner` — a
/// fresh single-node deployment is epoch 0 with an empty placement table,
/// and only migrations grow it. Every mutation bumps the epoch, so two
/// maps can always be ordered by freshness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterMap {
    epoch: u64,
    default_owner: NodeId,
    placements: BTreeMap<CampaignId, NodeId>,
}

impl ClusterMap {
    /// A fresh epoch-0 directory where every campaign lives on
    /// `default_owner`.
    pub fn new(default_owner: NodeId) -> Self {
        ClusterMap {
            epoch: 0,
            default_owner,
            placements: BTreeMap::new(),
        }
    }

    /// The directory's version; bumped by every [`assign`](Self::assign).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The node owning `campaign`'s write path under this map.
    pub fn owner(&self, campaign: CampaignId) -> NodeId {
        self.placements
            .get(&campaign)
            .copied()
            .unwrap_or(self.default_owner)
    }

    /// Moves `campaign` to `owner` and bumps the epoch. Assigning the
    /// current owner still bumps: the epoch versions *decisions*, and a
    /// re-assignment is a decision even when it is a no-op placement.
    pub fn assign(&mut self, campaign: CampaignId, owner: NodeId) {
        self.placements.insert(campaign, owner);
        self.epoch += 1;
    }
}

impl fmt::Display for ClusterMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cluster-map epoch {} default {} ({} placed)",
            self.epoch,
            self.default_owner,
            self.placements.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_map_routes_everything_to_the_default_owner() {
        let map = ClusterMap::new(NodeId(0));
        assert_eq!(map.epoch(), 0);
        assert_eq!(map.owner(CampaignId(0)), NodeId(0));
        assert_eq!(map.owner(CampaignId(41)), NodeId(0));
    }

    #[test]
    fn assign_moves_one_campaign_and_bumps_the_epoch() {
        let mut map = ClusterMap::new(NodeId(0));
        map.assign(CampaignId(3), NodeId(1));
        assert_eq!(map.epoch(), 1);
        assert_eq!(map.owner(CampaignId(3)), NodeId(1));
        // Other campaigns stay on the default owner.
        assert_eq!(map.owner(CampaignId(4)), NodeId(0));
    }

    #[test]
    fn reassignment_still_bumps_the_epoch() {
        let mut map = ClusterMap::new(NodeId(0));
        map.assign(CampaignId(3), NodeId(1));
        map.assign(CampaignId(3), NodeId(1));
        assert_eq!(map.epoch(), 2);
    }

    #[test]
    fn display_is_compact() {
        let mut map = ClusterMap::new(NodeId(0));
        map.assign(CampaignId(1), NodeId(2));
        assert_eq!(map.to_string(), "cluster-map epoch 1 default n0 (1 placed)");
        assert_eq!(NodeId(2).to_string(), "n2");
    }
}
