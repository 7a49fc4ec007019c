//! Strongly-typed identifiers.
//!
//! All cross-referencing in the workspace goes through these newtypes so a
//! task index can never be confused with a worker index or a choice index.
//! They are plain `u32`/`usize` wrappers with zero runtime cost.

use serde::{Deserialize, Serialize};
use std::fmt;

/// SplitMix64-style shard assignment shared by every sharded id type:
/// dense ids spread evenly across shards instead of striping, and keeping
/// one definition guarantees all layers agree on ownership.
#[inline]
fn splitmix_shard(v: u64, shards: usize) -> usize {
    assert!(shards > 0, "need at least one shard");
    let mut z = v.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) % shards as u64) as usize
}

/// Identifier of a task `t_i` within one requester batch.
///
/// Task ids are dense: the `i`-th published task has id `i`, which lets the
/// inference modules index per-task state with plain vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TaskId(pub u32);

impl TaskId {
    /// Returns the id as a vector index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Deterministic shard owner for this task among `shards` shards.
    ///
    /// The OTA benefit scan and TI ingestion partition task state with this
    /// mapping (same mix as [`CampaignId::shard`], via `splitmix_shard`).
    #[inline]
    pub fn shard(self, shards: usize) -> usize {
        splitmix_shard(self.0 as u64, shards)
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl From<usize> for TaskId {
    fn from(v: usize) -> Self {
        TaskId(v as u32)
    }
}

/// Identifier of a crowd worker `w`.
///
/// On a real platform this would be the opaque AMT worker id; in the
/// reproduction it is a dense index into the simulated worker population.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct WorkerId(pub u32);

impl WorkerId {
    /// Returns the id as a vector index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for WorkerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0)
    }
}

impl From<usize> for WorkerId {
    fn from(v: usize) -> Self {
        WorkerId(v as u32)
    }
}

/// Identifier of a requester campaign (one published task batch).
///
/// The paper's deployment serves a single requester batch; the service
/// runtime hosts many concurrent campaigns, each owning its own `Docs`
/// state machine, keyed by this id. Campaign ids are allocated densely by
/// the registry/service, which lets shard routing hash them cheaply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CampaignId(pub u32);

impl CampaignId {
    /// Deterministic shard owner for this campaign among `shards` shards.
    ///
    /// The service handle and each shard must agree on this mapping, so it
    /// lives here with the id type (via `splitmix_shard`).
    #[inline]
    pub fn shard(self, shards: usize) -> usize {
        splitmix_shard(self.0 as u64, shards)
    }
}

impl fmt::Display for CampaignId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl From<usize> for CampaignId {
    fn from(v: usize) -> Self {
        CampaignId(v as u32)
    }
}

/// Identifier of one sampled request trace.
///
/// Allocated by the service when a request is chosen for tracing (a
/// sampled subset of correlation ids); every span the request accumulates
/// across layers — client submit, queue wait, apply, flush wait, ship —
/// carries this id into the flight recorder. Unlike the
/// dense ids above it is a plain opaque `u64` tag: traces are sparse and
/// never used as vector indexes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TraceId(pub u64);

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tr{}", self.0)
    }
}

impl From<u64> for TraceId {
    fn from(v: u64) -> Self {
        TraceId(v)
    }
}

/// Zero-based index of one of the `ℓ_{t_i}` choices of a task.
///
/// The paper numbers choices `1..=ℓ`; we use `0..ℓ` throughout and only
/// translate in display code.
pub type ChoiceIndex = usize;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_id_roundtrip() {
        let id = TaskId::from(42usize);
        assert_eq!(id.index(), 42);
        assert_eq!(id.to_string(), "t42");
    }

    #[test]
    fn worker_id_roundtrip() {
        let id = WorkerId::from(7usize);
        assert_eq!(id.index(), 7);
        assert_eq!(id.to_string(), "w7");
    }

    #[test]
    fn ids_are_ordered_by_value() {
        assert!(TaskId(1) < TaskId(2));
        assert!(WorkerId(0) < WorkerId(10));
        assert!(CampaignId(0) < CampaignId(3));
    }

    #[test]
    fn campaign_id_roundtrip() {
        let id = CampaignId::from(5usize);
        assert_eq!(id, CampaignId(5));
        assert_eq!(id.to_string(), "c5");
    }

    #[test]
    fn campaign_sharding_is_deterministic_and_total() {
        for shards in 1..8 {
            for c in 0..100u32 {
                let s = CampaignId(c).shard(shards);
                assert!(s < shards);
                assert_eq!(s, CampaignId(c).shard(shards), "stable mapping");
            }
        }
        // Dense ids spread across shards rather than collapsing onto one.
        let shards = 4;
        let mut seen = [false; 4];
        for c in 0..32u32 {
            seen[CampaignId(c).shard(shards)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all shards receive campaigns");
    }
}
