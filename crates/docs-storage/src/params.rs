//! Typed parameter store: the key scheme DOCS uses over the KV store.

use crate::KvStore;
use docs_types::{codec, Error, Result, WorkerId};
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::path::PathBuf;

/// Stores and retrieves the parameters Section 4.2 carries from one
/// requester's batch to the next: per-worker statistics under
/// `worker/<id>`, each written as a compact CRC-framed binary record.
/// (Per-task state belongs to one campaign and travels in its snapshots.)
///
/// The value type is generic: `docs-system` persists
/// `docs_core::ti::WorkerStats` through this interface without this crate
/// depending on the algorithm crates.
#[derive(Debug)]
pub struct ParamStore {
    kv: KvStore,
}

impl ParamStore {
    /// Opens (or creates) a parameter store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        Ok(ParamStore {
            kv: KvStore::open(dir)?,
        })
    }

    /// Underlying KV store (snapshot control, diagnostics).
    pub fn kv(&self) -> &KvStore {
        &self.kv
    }

    /// Persists a worker's statistics.
    pub fn put_worker<T: Serialize>(&self, w: WorkerId, stats: &T) -> Result<()> {
        self.kv
            .put(&format!("worker/{}", w.0), &codec::to_bytes(stats))
    }

    /// Loads a worker's statistics.
    pub fn get_worker<T: DeserializeOwned>(&self, w: WorkerId) -> Result<Option<T>> {
        let key = format!("worker/{}", w.0);
        match self.kv.get(&key) {
            None => Ok(None),
            Some(bytes) => codec::from_bytes(&bytes)
                .map(Some)
                .map_err(|e| Error::Storage(format!("decode {key}: {e}"))),
        }
    }

    /// Ids of all persisted workers, ascending.
    pub fn worker_ids(&self) -> Vec<WorkerId> {
        let mut ids: Vec<WorkerId> = self
            .kv
            .keys_with_prefix("worker/")
            .iter()
            .filter_map(|k| k.strip_prefix("worker/")?.parse::<u32>().ok())
            .map(WorkerId)
            .collect();
        ids.sort();
        ids
    }

    /// Compacts the store (snapshot + WAL truncation).
    pub fn compact(&self) -> Result<()> {
        self.kv.snapshot()
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
        }
        let store = ParamStore::open(&dir).unwrap();
        let s0: Vec<f64> = store.get_worker(WorkerId(0)).unwrap().unwrap();
        let s1: Vec<f64> = store.get_worker(WorkerId(1)).unwrap().unwrap();
        assert_eq!(s0, vec![0.25, 0.75]);
        assert_eq!(s1, vec![0.5, 0.5]);
    }

    #[test]
    fn decode_error_is_reported() {
        let store = ParamStore::open(tmp_dir("decode")).unwrap();
        store.kv().put("worker/1", b"not a record").unwrap();
        let err = store.get_worker::<FakeStats>(WorkerId(1)).unwrap_err();
        assert!(matches!(err, Error::Storage(_)));
    }
}
