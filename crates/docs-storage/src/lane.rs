//! The write lane of a [`CampaignLog`](crate::CampaignLog): one background
//! thread per log that writes snapshot files and deletes superseded
//! segments, one job at a time, in the order the log queued them. The
//! thread that appends events (a service shard) only queues the work and
//! goes back to serving; checkpoint I/O never runs on it.
//!
//! The lane is single-threaded and first in, first out, which is what the
//! log's ordering rules lean on:
//!
//! * a deletion runs only after every snapshot queued before it has landed
//!   or failed, and it is skipped while any campaign's latest queued
//!   snapshot has failed (that campaign's events may live only in the
//!   segments it would delete);
//! * a caller that needs its snapshot on disk queues it like any other and
//!   waits for that job, so there is one write path and an older queued
//!   file can never overwrite a newer one.
//!
//! Shutdown drains the queue; [`Lane::abandon`] (a simulated crash) lets
//! the running job finish and drops the queued ones.

use crate::campaign_log::{segment_indices, segment_path, snapshot_path};
use crate::{io_err, sync_dir, write_atomically};
use docs_types::{crc32, CampaignId, Error, Result};
use std::collections::{BTreeSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Callback invoked on the lane thread after every snapshot job with the
/// campaign, the sequence the snapshot covers and whether the file landed.
/// Owners count landed snapshots and report failed ones with it.
pub type SnapshotObserver =
    Arc<dyn Fn(CampaignId, u64, std::result::Result<(), &Error>) + Send + Sync>;

/// One unit of lane work.
pub(crate) enum Job {
    /// Replace `campaign`'s snapshot file with `payload`, stamped `seq`.
    /// `waited`: a caller blocks on the result instead of reading it from
    /// [`Lane::take_failed`].
    Snapshot {
        campaign: CampaignId,
        seq: u64,
        payload: Vec<u8>,
        waited: bool,
    },
    /// Delete every segment whose index is below `below`.
    Delete { below: u64 },
}

#[derive(Default)]
struct State {
    queue: VecDeque<Job>,
    /// Jobs ever queued; a job's ticket is the count after queuing it.
    queued: u64,
    /// Jobs finished (landed, failed, skipped or dropped).
    done: u64,
    /// Drain the queue, then exit.
    closing: bool,
    /// Drop the queue and exit after the running job.
    abandoned: bool,
    /// The lane thread is gone; nothing queued will run.
    stopped: bool,
    /// The outcome of the last waited job, for the caller waiting on it.
    waited: Option<Result<()>>,
    /// Queued snapshots that failed, `(campaign, seq)`, not yet taken.
    failed: Vec<(CampaignId, u64)>,
    observer: Option<SnapshotObserver>,
}

struct Shared {
    dir: PathBuf,
    state: Mutex<State>,
    /// Signalled on every queue, finish and shutdown: the lane waits on it
    /// for work, callers for their job.
    changed: Condvar,
    /// Bytes across the log's segment files, superseded ones included
    /// until the lane deletes them.
    disk_bytes: AtomicU64,
}

impl Shared {
    /// Nothing that runs under the lock can panic halfway through an
    /// update, so a poisoned state is still consistent.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, state: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        self.changed
            .wait(state)
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// The lane handle a [`CampaignLog`](crate::CampaignLog) owns. Dropping it
/// drains the queue and joins the thread.
pub(crate) struct Lane {
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Lane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.shared.lock();
        f.debug_struct("Lane")
            .field("queued", &state.queued)
            .field("done", &state.done)
            .finish_non_exhaustive()
    }
}

impl Lane {
    /// Starts the lane of the log in `dir`, whose segments already hold
    /// `disk_bytes`.
    pub(crate) fn spawn(dir: PathBuf, disk_bytes: u64) -> Result<Lane> {
        let shared = Arc::new(Shared {
            dir,
            state: Mutex::new(State::default()),
            changed: Condvar::new(),
            disk_bytes: AtomicU64::new(disk_bytes),
        });
        let worker = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("docs-log-lane".into())
            .spawn(move || run(&worker))
            .map_err(io_err)?;
        Ok(Lane {
            shared,
            thread: Some(thread),
        })
    }

    pub(crate) fn set_observer(&self, observer: Option<SnapshotObserver>) {
        self.shared.lock().observer = observer;
    }

    /// Queues `job` and returns its ticket for [`Lane::wait_for`].
    pub(crate) fn queue(&self, job: Job) -> u64 {
        let mut state = self.shared.lock();
        state.queue.push_back(job);
        state.queued += 1;
        let ticket = state.queued;
        drop(state);
        self.shared.changed.notify_all();
        ticket
    }

    /// Blocks until the waited job behind `ticket` has run; returns its
    /// outcome.
    pub(crate) fn wait_for(&self, ticket: u64) -> Result<()> {
        let mut state = self.shared.lock();
        while state.done < ticket && !state.stopped {
            state = self.shared.wait(state);
        }
        if state.done < ticket {
            return Err(Error::Storage("the log's write lane has stopped".into()));
        }
        state
            .waited
            .take()
            .unwrap_or_else(|| Err(Error::Storage("snapshot dropped by a crash".into())))
    }

    /// Blocks until every queued job has run.
    pub(crate) fn settle(&self) {
        let mut state = self.shared.lock();
        while state.done < state.queued && !state.stopped {
            state = self.shared.wait(state);
        }
    }

    /// Queued snapshots that failed since the last call, `(campaign, seq)`.
    pub(crate) fn take_failed(&self) -> Vec<(CampaignId, u64)> {
        std::mem::take(&mut self.shared.lock().failed)
    }

    pub(crate) fn disk_bytes(&self) -> &AtomicU64 {
        &self.shared.disk_bytes
    }

    /// A simulated crash: the running job finishes, the queued ones are
    /// dropped, and the thread exits.
    pub(crate) fn abandon(&self) {
        let mut state = self.shared.lock();
        let dropped = state.queue.len() as u64;
        state.queue.clear();
        state.done += dropped;
        state.abandoned = true;
        drop(state);
        self.shared.changed.notify_all();
    }
}

impl Drop for Lane {
    fn drop(&mut self) {
        self.shared.lock().closing = true;
        self.shared.changed.notify_all();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Marks the lane stopped however its thread ends, so no caller waits on
/// a job that will never run.
struct Stopped<'a>(&'a Shared);

impl Drop for Stopped<'_> {
    fn drop(&mut self) {
        self.0.lock().stopped = true;
        self.0.changed.notify_all();
    }
}

/// The lane thread.
fn run(shared: &Shared) {
    let _stopped = Stopped(shared);
    // Campaigns whose latest queued snapshot failed: until one of theirs
    // lands, their events may live only in segments a deletion would drop.
    let mut uncovered: BTreeSet<CampaignId> = BTreeSet::new();
    loop {
        let (job, observer) = {
            let mut state = shared.lock();
            loop {
                if state.abandoned {
                    return;
                }
                if !state.queue.is_empty() && held(&shared.dir) {
                    state = shared
                        .changed
                        .wait_timeout(state, Duration::from_millis(1))
                        .unwrap_or_else(PoisonError::into_inner)
                        .0;
                    continue;
                }
                if let Some(job) = state.queue.pop_front() {
                    break (job, state.observer.clone());
                }
                if state.closing {
                    return;
                }
                state = shared.wait(state);
            }
        };
        let mut waited = None;
        let mut failed = None;
        match job {
            Job::Snapshot {
                campaign,
                seq,
                payload,
                waited: is_waited,
            } => {
                let outcome = write_snapshot_file(&shared.dir, campaign, seq, &payload);
                if let Some(observer) = &observer {
                    observer(campaign, seq, outcome.as_ref().map(|_| ()));
                }
                if outcome.is_ok() {
                    uncovered.remove(&campaign);
                } else if !is_waited {
                    uncovered.insert(campaign);
                    failed = Some((campaign, seq));
                }
                waited = is_waited.then_some(outcome);
            }
            // A deletion that fails part-way leaves the rest for the next
            // one, which lists the directory again.
            Job::Delete { below } if uncovered.is_empty() => {
                let _ = delete_segments(shared, below);
            }
            Job::Delete { .. } => {}
        }
        let mut state = shared.lock();
        state.done += 1;
        if waited.is_some() {
            state.waited = waited;
        }
        state.failed.extend(failed);
        drop(state);
        shared.changed.notify_all();
    }
}

/// Atomically replaces a campaign's snapshot: `[seq][crc][payload]`.
fn write_snapshot_file(dir: &Path, campaign: CampaignId, seq: u64, payload: &[u8]) -> Result<()> {
    let mut header = [0u8; 12];
    header[..8].copy_from_slice(&seq.to_le_bytes());
    header[8..].copy_from_slice(&crc32(payload).to_le_bytes());
    write_atomically(&snapshot_path(dir, campaign), &[&header, payload])?;
    Ok(())
}

/// Deletes every segment below index `below`, takes their bytes off the
/// gauge, and makes the deletions durable.
fn delete_segments(shared: &Shared, below: u64) -> Result<()> {
    let mut deleted = false;
    for idx in segment_indices(&shared.dir)? {
        if idx >= below {
            break;
        }
        let path = segment_path(&shared.dir, idx);
        let bytes = std::fs::metadata(&path).map_err(io_err)?.len();
        std::fs::remove_file(&path).map_err(io_err)?;
        let _ = shared
            .disk_bytes
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| {
                Some(b.saturating_sub(bytes))
            });
        deleted = true;
    }
    if deleted {
        sync_dir(&shared.dir)?;
    }
    Ok(())
}

/// Directories whose lanes are held, one entry per live [`LaneHold`].
static HELD: Mutex<Vec<PathBuf>> = Mutex::new(Vec::new());

fn held(dir: &Path) -> bool {
    HELD.lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .any(|root| dir.starts_with(root))
}

/// Test seam: while it lives, the write lane of every log whose directory
/// lies under the held root starts no job. Queued jobs wait, a caller
/// waiting on its own job blocks, and a simulated crash
/// ([`CampaignLog::abandon`](crate::CampaignLog::abandon)) drops them
/// unrun — the state a crash leaves when it lands while the lane is behind.
#[doc(hidden)]
#[must_use = "the lanes are released when the hold is dropped"]
pub struct LaneHold(PathBuf);

/// Holds the write lanes of every log under `root` (see [`LaneHold`]).
#[doc(hidden)]
pub fn hold_lanes(root: impl Into<PathBuf>) -> LaneHold {
    let root = root.into();
    HELD.lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(root.clone());
    LaneHold(root)
}

impl Drop for LaneHold {
    fn drop(&mut self) {
        let mut held = HELD.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(at) = held.iter().position(|root| *root == self.0) {
            held.swap_remove(at);
        }
    }
}
