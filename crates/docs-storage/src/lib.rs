//! Embedded parameter database — the "DB" box of Figure 1.
//!
//! Section 4.2 requires DOCS to persist, across requesters, each worker's
//! quality/weight statistics and each task's `M^{(i)}` and `s_i`, so that a
//! returning worker's history is not lost and truth inference can resume
//! after a restart. The paper deploys Django over a SQL database; this crate
//! builds the equivalent storage layer from scratch:
//!
//! * [`Wal`] — an append-only, CRC-checked, length-prefixed log that
//!   tolerates torn writes at the tail (crash recovery),
//! * [`KvStore`] — a keyed byte store: in-memory index + WAL of mutations +
//!   atomic CRC-trailed binary snapshots with log truncation (compaction),
//! * [`ParamStore`] — a typed façade with the key scheme DOCS uses
//!   (`worker/<id>`, `task/<id>`), generic over any `serde` value,
//! * [`CampaignLog`] — the per-service-shard event log of the event-sourced
//!   runtime: group-commit WAL segments ([`FlushPolicy`]), per-campaign
//!   sequence numbers and snapshots, segment pruning, and whole-tree crash
//!   recovery ([`recover_tree`]).
//!
//! Concurrency follows the paper's server model: many platform threads hit
//! the store, so the shared stores are `Send + Sync` (interior
//! `parking_lot` locking); a `CampaignLog` is owned by exactly one shard
//! thread and needs no lock.

mod arena;
mod campaign_log;
mod crc;
mod kv;
mod params;
mod wal;

pub use arena::PayloadBytes;
pub use campaign_log::{
    recover_tree, AdaptiveCommit, CampaignLog, CampaignRecovery, FlushObserver, FlushPolicy,
    FlushStats, TreeRecovery,
};
pub use crc::{crc32, Crc32};
pub use kv::KvStore;
pub use params::ParamStore;
pub use wal::{Wal, WalEntry, WalTail};

use docs_types::Error;

/// Maps I/O failures into the workspace error type.
pub(crate) fn io_err(e: std::io::Error) -> Error {
    Error::Storage(e.to_string())
}
