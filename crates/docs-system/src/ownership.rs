//! Campaign ownership accounting for multi-primary clusters — which
//! campaigns this node may mutate, which it has fenced away, and which it
//! is currently adopting through a live migration.
//!
//! Each shard of a primary pool keeps one [`OwnershipTable`]. The write
//! path consults [`OwnershipTable::admit_mutation`] before applying any
//! mutation; everything else (reads, the replication plane, cluster
//! control ops) bypasses it. Three facts can divert a mutation, checked in
//! this order:
//!
//! 1. **Intake** — the campaign is mid-migration *into* this node
//!    (`begin_intake`): the source still owns the write path, so mutations
//!    redirect there while the replication plane is admitted.
//! 2. **Fence** — the campaign was migrated *away* (`fence`): the shard
//!    hardened its log and reported the watermark, and every later
//!    mutation redirects to the new owner. The fence is the linearization
//!    point of a migration — nothing commits locally past the fenced
//!    sequence.
//! 3. **Directory** — an installed [`ClusterMap`] places the campaign on
//!    another node: redirect to that owner. Campaigns adopted by a
//!    completed migration are tracked locally and override a stale map
//!    until a fresher epoch arrives.
//!
//! A node with no installed map and no fences (every single-node
//! deployment) admits everything — the table is pay-for-what-you-use.

use docs_types::{CampaignId, ClusterMap, NodeId};
use std::collections::{BTreeMap, BTreeSet};

/// What [`OwnershipTable::admit_mutation`] decided for one mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationAdmission {
    /// This node owns the campaign's write path — apply the mutation.
    Allowed,
    /// Another node owns it — answer `WrongNode { owner }` so the client
    /// can retry there.
    Redirect {
        /// The node that owns the campaign's write path.
        owner: NodeId,
    },
}

/// One shard's view of campaign ownership inside a cluster.
#[derive(Debug, Clone)]
pub struct OwnershipTable {
    node: NodeId,
    /// Fenced campaigns and the node each was handed to.
    fences: BTreeMap<CampaignId, NodeId>,
    intake: BTreeMap<CampaignId, NodeId>,
    adopted: BTreeSet<CampaignId>,
    map: Option<ClusterMap>,
}

impl OwnershipTable {
    /// A fresh table for a node that owns everything it hosts.
    pub fn new(node: NodeId) -> Self {
        OwnershipTable {
            node,
            fences: BTreeMap::new(),
            intake: BTreeMap::new(),
            adopted: BTreeSet::new(),
            map: None,
        }
    }

    /// Decides whether a mutation of `campaign` may apply here, or names
    /// the owner it must be redirected to.
    pub fn admit_mutation(&self, campaign: CampaignId) -> MutationAdmission {
        if let Some(&src) = self.intake.get(&campaign) {
            return MutationAdmission::Redirect { owner: src };
        }
        if let Some(&owner) = self.fences.get(&campaign) {
            return MutationAdmission::Redirect { owner };
        }
        if self.adopted.contains(&campaign) {
            return MutationAdmission::Allowed;
        }
        if let Some(map) = &self.map {
            let owner = map.owner(campaign);
            if owner != self.node {
                return MutationAdmission::Redirect { owner };
            }
        }
        MutationAdmission::Allowed
    }

    /// Whether the replication plane may feed `campaign` on this node
    /// even though it runs as a primary — true exactly while the campaign
    /// is in migration intake.
    pub fn accepts_replication(&self, campaign: CampaignId) -> bool {
        self.intake.contains_key(&campaign)
    }

    /// Fences `campaign` away to `owner` (the caller has hardened the
    /// local log): every later mutation redirects. Revokes any local
    /// adoption — ownership moved on.
    pub fn fence(&mut self, campaign: CampaignId, owner: NodeId) {
        self.adopted.remove(&campaign);
        self.fences.insert(campaign, owner);
    }

    /// Starts migration intake: `campaign` is being shipped here from
    /// `src`, which keeps the write path until the hand-off completes.
    pub fn begin_intake(&mut self, campaign: CampaignId, src: NodeId) {
        self.intake.insert(campaign, src);
    }

    /// Completes migration intake: this node adopts the campaign's write
    /// path (clearing any old fence from a previous round-trip).
    pub fn complete_intake(&mut self, campaign: CampaignId) {
        self.intake.remove(&campaign);
        self.fences.remove(&campaign);
        self.adopted.insert(campaign);
    }

    /// Installs a routing directory if it is fresher than the current one.
    /// The newer map is authoritative: fences it contradicts and adoptions
    /// it covers are dropped. Returns whether the map was installed.
    pub fn install_map(&mut self, map: &ClusterMap) -> bool {
        if let Some(current) = &self.map {
            if map.epoch() <= current.epoch() {
                return false;
            }
        }
        let node = self.node;
        self.fences.retain(|c, owner| map.owner(*c) == *owner);
        self.adopted.retain(|c| map.owner(*c) != node);
        self.map = Some(map.clone());
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C: CampaignId = CampaignId(3);
    const N0: NodeId = NodeId(0);
    const N1: NodeId = NodeId(1);

    #[test]
    fn a_bare_table_admits_everything() {
        let table = OwnershipTable::new(N0);
        assert_eq!(table.admit_mutation(C), MutationAdmission::Allowed);
        assert!(!table.accepts_replication(C));
    }

    #[test]
    fn fencing_redirects_mutations_to_the_new_owner() {
        let mut table = OwnershipTable::new(N0);
        table.fence(C, N1);
        assert_eq!(
            table.admit_mutation(C),
            MutationAdmission::Redirect { owner: N1 }
        );
        // Other campaigns are untouched.
        assert_eq!(
            table.admit_mutation(CampaignId(4)),
            MutationAdmission::Allowed
        );
    }

    #[test]
    fn intake_redirects_to_the_source_but_admits_replication() {
        let mut table = OwnershipTable::new(N1);
        table.begin_intake(C, N0);
        assert_eq!(
            table.admit_mutation(C),
            MutationAdmission::Redirect { owner: N0 }
        );
        assert!(table.accepts_replication(C));
        table.complete_intake(C);
        assert_eq!(table.admit_mutation(C), MutationAdmission::Allowed);
        assert!(!table.accepts_replication(C));
    }

    #[test]
    fn adoption_overrides_a_stale_directory_until_a_fresher_epoch() {
        let mut table = OwnershipTable::new(N1);
        // Stale epoch-0 directory: everything lives on n0.
        let stale = ClusterMap::new(N0);
        assert!(table.install_map(&stale));
        assert_eq!(
            table.admit_mutation(C),
            MutationAdmission::Redirect { owner: N0 }
        );
        // Migration completes before the flipped map arrives: the adoption
        // must win over the stale directory.
        table.begin_intake(C, N0);
        table.complete_intake(C);
        assert_eq!(table.admit_mutation(C), MutationAdmission::Allowed);
        // The flipped map confirms the adoption and supersedes it.
        let mut flipped = ClusterMap::new(N0);
        flipped.assign(C, N1);
        assert!(table.install_map(&flipped));
        assert_eq!(table.admit_mutation(C), MutationAdmission::Allowed);
        // Re-installing the same epoch is refused.
        assert!(!table.install_map(&flipped));
    }

    #[test]
    fn a_fresher_map_clears_fences_it_contradicts() {
        let mut table = OwnershipTable::new(N0);
        let base = ClusterMap::new(N0);
        assert!(table.install_map(&base));
        table.fence(C, N1);
        // A fresher map that moves the campaign *back* to n0 revokes the
        // fence (the round-trip migration's intake already cleared it in
        // practice; the directory install is the belt to that suspender).
        let mut back = ClusterMap::new(N0);
        back.assign(C, N0);
        assert!(table.install_map(&back));
        assert_eq!(table.admit_mutation(C), MutationAdmission::Allowed);
    }
}
