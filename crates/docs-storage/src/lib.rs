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
//! * [`ParamStore`] — worker statistics as `Wal` records in one log per
//!   directory, last record per worker wins, compacted in place; one shared
//!   handle per directory per process,
//! * [`CampaignLog`] — the per-service-shard event log of the event-sourced
//!   runtime: group-commit WAL segments ([`FlushPolicy`]), per-campaign
//!   sequence numbers, baseline records a campaign joins with, snapshots
//!   written by the log's background write lane, segment pruning, and
//!   whole-tree crash recovery ([`recover_tree`]).
//!
//! Both stores replace whole files the same way (`write_atomically`: tmp
//! file, `fdatasync`, rename, directory `fsync`) and read their logs by the
//! same tail rule: a torn final record is a crash artifact and is dropped, a
//! complete record that fails its CRC is an error naming file and offset.
//!
//! Concurrency follows the paper's server model: many platform threads hit
//! the parameter store, so it is `Send + Sync` (interior `parking_lot`
//! locking); a `CampaignLog` is owned by exactly one shard thread and needs
//! no lock on its append path — only its write lane's job queue is shared
//! with the lane thread.

mod arena;
mod campaign_log;
mod lane;
mod params;
mod wal;

pub use arena::PayloadBytes;
#[doc(hidden)]
pub use campaign_log::{fail_flushes, FlushFault};
pub use campaign_log::{
    recover_tree, AdaptiveCommit, CampaignLog, CampaignRecovery, FlushObserver, FlushPolicy,
    FlushStats, TreeRecovery,
};
pub use lane::SnapshotObserver;
#[doc(hidden)]
pub use lane::{hold_lanes, LaneHold};
pub use params::ParamStore;
pub use wal::{Wal, WalTail};

use docs_types::Error;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Maps I/O failures into the workspace error type.
pub(crate) fn io_err(e: std::io::Error) -> Error {
    Error::Storage(e.to_string())
}

/// `fsync`s a directory so freshly created or renamed entries survive
/// power loss — file-content `fdatasync` alone does not pin the name.
pub(crate) fn sync_dir(dir: &Path) -> Result<(), Error> {
    File::open(dir).and_then(|f| f.sync_all()).map_err(io_err)
}

/// Creates `dir` and any missing ancestors, then `fsync`s the parent of
/// each directory it created, so their entries survive power loss as well
/// as the files later written into them. Returns the directories it
/// created, deepest first; an existing `dir` is left alone and syncs
/// nothing.
pub(crate) fn create_dir_durably(dir: &Path) -> Result<Vec<PathBuf>, Error> {
    let missing: Vec<PathBuf> = dir
        .ancestors()
        .take_while(|d| !d.as_os_str().is_empty() && !d.exists())
        .map(Path::to_path_buf)
        .collect();
    std::fs::create_dir_all(dir).map_err(io_err)?;
    for created in &missing {
        match created.parent() {
            Some(parent) if !parent.as_os_str().is_empty() => sync_dir(parent)?,
            _ => sync_dir(Path::new("."))?,
        }
    }
    Ok(missing)
}

/// Replaces `dst` with the concatenation of `parts`: written to
/// `<dst>.tmp`, `fdatasync`ed, renamed over `dst`, then the directory is
/// `fsync`ed so the new name survives power loss too. A crash at any point
/// leaves the old file or the new one, never a mix; a leftover tmp file is
/// never read. Returns the written file, positioned at its end.
pub(crate) fn write_atomically(dst: &Path, parts: &[&[u8]]) -> Result<File, Error> {
    let mut tmp = dst.as_os_str().to_owned();
    tmp.push(".tmp");
    let mut file = File::create(&tmp).map_err(io_err)?;
    for part in parts {
        file.write_all(part).map_err(io_err)?;
    }
    file.sync_data().map_err(io_err)?;
    std::fs::rename(&tmp, dst).map_err(io_err)?;
    sync_dir(dst.parent().unwrap_or(Path::new(".")))?;
    Ok(file)
}
