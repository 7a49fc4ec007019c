//! Campaigns: the multi-requester registry.
//!
//! The paper's deployment serves exactly one requester batch; the service
//! runtime hosts many. [`CampaignRegistry`] owns the concurrent [`Docs`]
//! instances keyed by [`CampaignId`]; the service allocates the ids and
//! routes them by `CampaignId::shard`.
//! The registry itself is single-threaded state — the service runs one
//! registry per shard thread, so a campaign's state machine is only ever
//! touched by its owning shard (share-nothing, no locks).

use crate::Docs;
use docs_types::{CampaignId, Error, Result};
use std::collections::HashMap;

/// Outcome of replaying one campaign's snapshot + log suffix.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Events applied to the restored state.
    pub applied: u64,
    /// Events whose application was rejected (deterministic rejections —
    /// e.g. a duplicate answer that was already rejected live; a healthy
    /// log contains none because commands are validated before logging).
    pub rejected: u64,
}

/// Owner of many concurrent campaigns, keyed by [`CampaignId`].
#[derive(Debug, Default)]
pub struct CampaignRegistry {
    campaigns: HashMap<CampaignId, Docs>,
}

impl CampaignRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a published system under a caller-chosen id: the service
    /// allocates ids centrally (so each lands on the shard
    /// `CampaignId::shard` names) and shards insert locally. Fails on reuse.
    pub fn insert(&mut self, id: CampaignId, docs: Docs) -> Result<()> {
        if self.campaigns.contains_key(&id) {
            return Err(Error::Storage(format!("campaign {id} already exists")));
        }
        self.campaigns.insert(id, docs);
        Ok(())
    }

    /// Read access to one campaign.
    pub fn get(&self, id: CampaignId) -> Option<&Docs> {
        self.campaigns.get(&id)
    }

    /// Write access to one campaign (request handling mutates TI state).
    pub fn get_mut(&mut self, id: CampaignId) -> Option<&mut Docs> {
        self.campaigns.get_mut(&id)
    }

    /// Removes a finished campaign, returning its final state.
    pub fn remove(&mut self, id: CampaignId) -> Option<Docs> {
        self.campaigns.remove(&id)
    }

    /// Drains the registry into `(id, state)` pairs, ascending by id.
    pub fn into_campaigns(mut self) -> Vec<(CampaignId, Docs)> {
        let mut out: Vec<(CampaignId, Docs)> = self.campaigns.drain().collect();
        out.sort_unstable_by_key(|(id, _)| *id);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DocsConfig, WorkRequest};
    use docs_types::{Task, TaskBuilder, WorkerId};

    fn tiny_docs() -> Docs {
        let kb = docs_kb::table2_example_kb();
        let tasks: Vec<Task> = (0..4)
            .map(|i| {
                TaskBuilder::new(i, format!("Is Kobe Bryant great? ({i})"))
                    .yes_no()
                    .with_ground_truth(i % 2)
                    .with_true_domain(1)
                    .build()
                    .unwrap()
            })
            .collect();
        Docs::publish(
            &kb,
            tasks,
            DocsConfig {
                num_golden: 2,
                k_per_hit: 2,
                answers_per_task: 2,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn registry_owns_state_and_refuses_duplicate_ids() {
        let mut reg = CampaignRegistry::new();
        reg.insert(CampaignId(7), tiny_docs()).unwrap();
        assert!(reg.insert(CampaignId(7), tiny_docs()).is_err());
        reg.insert(CampaignId(2), tiny_docs()).unwrap();
        // Request handling goes through get_mut.
        let req = reg
            .get_mut(CampaignId(7))
            .unwrap()
            .request_tasks(WorkerId(0));
        assert!(matches!(req, WorkRequest::Golden(_)));
        // Removal returns the state and frees the id.
        assert_eq!(reg.remove(CampaignId(2)).unwrap().tasks().len(), 4);
        assert!(reg.get(CampaignId(2)).is_none());
        reg.insert(CampaignId(2), tiny_docs()).unwrap();
        let drained = reg.into_campaigns();
        assert_eq!(
            drained.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            vec![CampaignId(2), CampaignId(7)]
        );
    }
}
