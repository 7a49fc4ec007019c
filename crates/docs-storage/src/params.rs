//! The parameter store: per-worker statistics in one self-compacting log.
//!
//! ```text
//! storage-dir/
//!   workers.wal       [len][crc][worker id: u32 LE][stats codec record] …
//!   workers.wal.tmp   compaction in flight (ignored on open)
//! ```
//!
//! Every put appends one [`Wal`] record; the last record for a worker wins.
//! [`ParamStore::compact`] rewrites the log to one record per worker,
//! ascending by id, through `write_atomically`. Opening applies the
//! campaign log's tail rule: a torn final record is cut off before anything
//! appends, a complete record that fails its CRC is an error.
//!
//! A process holds at most one handle per directory: [`ParamStore::open`]
//! hands out the live `Arc` when there is one, so campaigns on different
//! shard threads write through one mutex and one index and a compaction
//! never drops another requester's records.

use crate::{io_err, write_atomically, Wal, WalTail};
use bytes::{BufMut, BytesMut};
use docs_types::{codec, Error, Result, WorkerId};
use parking_lot::Mutex;
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Weak};

/// The log's file name inside the store directory.
const LOG_FILE: &str = "workers.wal";

/// Open stores by canonical directory: the one-handle-per-directory rule.
static OPEN_STORES: Mutex<BTreeMap<PathBuf, Weak<ParamStore>>> = Mutex::new(BTreeMap::new());

/// Stores and retrieves the parameters Section 4.2 carries from one
/// requester's batch to the next: per-worker statistics, each written as a
/// CRC-framed codec record. (Per-task state belongs to one campaign and
/// travels in its snapshots.)
///
/// The value type is generic: `docs-system` persists
/// `docs_core::ti::WorkerStats` through this interface without this crate
/// depending on the algorithm crates.
#[derive(Debug)]
pub struct ParamStore {
    path: PathBuf,
    inner: Mutex<Inner>,
}

#[derive(Debug)]
struct Inner {
    wal: Wal,
    /// Each worker's latest record payload: its id, then the stats record.
    workers: BTreeMap<WorkerId, Vec<u8>>,
}

impl ParamStore {
    /// Opens (or creates) the parameter store rooted at `dir`, returning
    /// this process's handle on it when one is already open.
    pub fn open(dir: impl AsRef<Path>) -> Result<Arc<Self>> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(io_err)?;
        let dir = dir.canonicalize().map_err(io_err)?;
        let mut open = OPEN_STORES.lock();
        open.retain(|_, store| store.strong_count() > 0);
        if let Some(store) = open.get(&dir).and_then(Weak::upgrade) {
            return Ok(store);
        }
        let store = Arc::new(Self::load(dir.join(LOG_FILE))?);
        open.insert(dir, Arc::downgrade(&store));
        Ok(store)
    }

    /// Reads the log at `path` into an index, cutting a torn tail off so
    /// later appends stay reachable.
    fn load(path: PathBuf) -> Result<Self> {
        let data = Wal::load(&path)?;
        let (records, tail) = Wal::scan(&data);
        let intact = records.last().map_or(0, |r| r.end);
        let mut workers = BTreeMap::new();
        for range in records {
            let payload = &data[range.clone()];
            let Some(id) = payload.first_chunk::<4>() else {
                return Err(Error::Storage(format!(
                    "worker record at byte {} of {} has no worker id",
                    range.start - 8,
                    path.display()
                )));
            };
            workers.insert(WorkerId(u32::from_le_bytes(*id)), payload.to_vec());
        }
        match tail {
            WalTail::Clean => {}
            WalTail::Torn => {
                std::fs::OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .and_then(|f| f.set_len(intact as u64))
                    .map_err(io_err)?;
            }
            WalTail::Corrupt(offset) => {
                return Err(Error::Storage(format!(
                    "corrupt worker record at byte {offset} of {}",
                    path.display()
                )));
            }
        }
        Ok(ParamStore {
            inner: Mutex::new(Inner {
                wal: Wal::open(&path)?,
                workers,
            }),
            path,
        })
    }

    /// Persists a worker's statistics: one record handed to the OS, not
    /// `fdatasync`ed.
    pub fn put_worker<T: Serialize>(&self, w: WorkerId, stats: &T) -> Result<()> {
        let mut payload = BytesMut::new();
        payload.put_u32_le(w.0);
        codec::encode_value_into(stats, &mut payload);
        let mut inner = self.inner.lock();
        inner.wal.append(&payload)?;
        inner.workers.insert(w, payload.to_vec());
        Ok(())
    }

    /// Loads a worker's statistics.
    pub fn get_worker<T: DeserializeOwned>(&self, w: WorkerId) -> Result<Option<T>> {
        let inner = self.inner.lock();
        match inner.workers.get(&w) {
            None => Ok(None),
            Some(payload) => codec::from_bytes(&payload[4..])
                .map(Some)
                .map_err(|e| Error::Storage(format!("decode worker {}: {e}", w.0))),
        }
    }

    /// Ids of all persisted workers, ascending.
    pub fn worker_ids(&self) -> Vec<WorkerId> {
        self.inner.lock().workers.keys().copied().collect()
    }

    /// Rewrites the log in place to one record per worker, ascending by id.
    pub fn compact(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        let mut log = BytesMut::new();
        for payload in inner.workers.values() {
            Wal::encode_record_with(&mut log, |b| b.put_slice(payload));
        }
        inner.wal = Wal::adopt(write_atomically(&self.path, &[&log])?);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct FakeStats {
        quality: Vec<f64>,
        weight: Vec<f64>,
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("docs-params-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn worker_roundtrip() {
        let store = ParamStore::open(tmp_dir("worker")).unwrap();
        let stats = FakeStats {
            quality: vec![0.9, 0.4],
            weight: vec![3.0, 1.0],
        };
        store.put_worker(WorkerId(7), &stats).unwrap();
        let loaded: FakeStats = store.get_worker(WorkerId(7)).unwrap().unwrap();
        assert_eq!(loaded, stats);
        assert!(store
            .get_worker::<FakeStats>(WorkerId(8))
            .unwrap()
            .is_none());
    }

    #[test]
    fn ids_enumerate_sorted() {
        let store = ParamStore::open(tmp_dir("ids")).unwrap();
        for id in [3u32, 1, 10] {
            store.put_worker(WorkerId(id), &vec![0.5]).unwrap();
        }
        assert_eq!(
            store.worker_ids(),
            vec![WorkerId(1), WorkerId(3), WorkerId(10)]
        );
    }

    #[test]
    fn persists_across_reopen_and_compaction() {
        let dir = tmp_dir("reopen");
        {
            let store = ParamStore::open(&dir).unwrap();
            store.put_worker(WorkerId(0), &vec![0.25, 0.75]).unwrap();
            store.compact().unwrap();
            store.put_worker(WorkerId(1), &vec![0.5, 0.5]).unwrap();
            store.put_worker(WorkerId(1), &vec![0.125, 0.875]).unwrap();
        }
        let store = ParamStore::open(&dir).unwrap();
        let s0: Vec<f64> = store.get_worker(WorkerId(0)).unwrap().unwrap();
        let s1: Vec<f64> = store.get_worker(WorkerId(1)).unwrap().unwrap();
        assert_eq!(s0, vec![0.25, 0.75]);
        assert_eq!(s1, vec![0.125, 0.875], "the last record wins");
    }

    #[test]
    fn compaction_keeps_one_record_per_worker_and_is_deterministic() {
        let dir = tmp_dir("compact");
        let log = dir.join(LOG_FILE);
        let store = ParamStore::open(&dir).unwrap();
        for round in 0..10 {
            for w in [2u32, 0, 1] {
                store.put_worker(WorkerId(w), &vec![round as f64]).unwrap();
            }
        }
        store.compact().unwrap();
        let first = std::fs::read(&log).unwrap();
        let (records, tail) = Wal::scan(&first);
        assert_eq!((records.len(), tail), (3, WalTail::Clean));
        // Puts after a compaction land in the rewritten log; compacting the
        // same contents again writes the same bytes.
        store.put_worker(WorkerId(1), &vec![9.0]).unwrap();
        assert!(std::fs::read(&log).unwrap().len() > first.len());
        store.compact().unwrap();
        assert_eq!(std::fs::read(&log).unwrap(), first);
        assert!(!dir.join("workers.wal.tmp").exists());
    }

    #[test]
    fn one_directory_has_one_handle() {
        let dir = tmp_dir("one-handle");
        let a = ParamStore::open(&dir).unwrap();
        let b = ParamStore::open(dir.join(".")).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn concurrent_writers_are_serialized() {
        let dir = tmp_dir("threads");
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let dir = dir.clone();
            handles.push(std::thread::spawn(move || {
                let store = ParamStore::open(&dir).unwrap();
                for i in 0..25 {
                    store.put_worker(WorkerId(t * 100 + i), &vec![0.5]).unwrap();
                }
                store.compact().unwrap();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(ParamStore::open(&dir).unwrap().worker_ids().len(), 100);
    }

    #[test]
    fn decode_error_is_reported() {
        let store = ParamStore::open(tmp_dir("decode")).unwrap();
        store.put_worker(WorkerId(1), &"not stats").unwrap();
        let err = store.get_worker::<FakeStats>(WorkerId(1)).unwrap_err();
        assert!(matches!(err, Error::Storage(_)));
    }
}
