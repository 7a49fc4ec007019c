//! The keyed byte store: snapshot + WAL of mutations + in-memory index.

use crate::{io_err, Crc32, Wal};
use bytes::{Buf, BufMut, BytesMut};
use docs_types::codec::{CODEC_MAGIC, CODEC_VERSION};
use docs_types::{Error, Result};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

const OP_PUT: u8 = 1;
const OP_DELETE: u8 = 2;

/// Record kind byte of the binary KV snapshot (shares the codec's
/// magic/version convention with the event and value records).
const KIND_KV_SNAPSHOT: u8 = b'K';

fn encode_put(buf: &mut BytesMut, key: &str, value: &[u8]) {
    buf.clear();
    buf.put_u8(OP_PUT);
    buf.put_u32_le(key.len() as u32);
    buf.put_slice(key.as_bytes());
    buf.put_u32_le(value.len() as u32);
    buf.put_slice(value);
}

fn encode_delete(buf: &mut BytesMut, key: &str) {
    buf.clear();
    buf.put_u8(OP_DELETE);
    buf.put_u32_le(key.len() as u32);
    buf.put_slice(key.as_bytes());
}

/// Parses one mutation record into borrowed views — the replay loop copies
/// only what it inserts into the index, never intermediate buffers.
fn decode(mut record: &[u8]) -> Result<(u8, &str, &[u8])> {
    let fail = || Error::Storage("malformed WAL record".into());
    if record.len() < 5 {
        return Err(fail());
    }
    let op = record.get_u8();
    let klen = record.get_u32_le() as usize;
    if record.len() < klen {
        return Err(fail());
    }
    let key = std::str::from_utf8(&record[..klen]).map_err(|_| fail())?;
    record.advance(klen);
    let value = match op {
        OP_PUT => {
            if record.len() < 4 {
                return Err(fail());
            }
            let vlen = record.get_u32_le() as usize;
            if record.len() < vlen {
                return Err(fail());
            }
            &record[..vlen]
        }
        OP_DELETE => &[],
        _ => return Err(fail()),
    };
    Ok((op, key, value))
}

/// Streams the index to `path` as a binary snapshot:
/// `[magic][version][kind][count u32 LE]` then, per entry (sorted by key for
/// deterministic bytes), `[klen u32 LE][key][vlen u32 LE][value]`, and a
/// trailing `crc32` (u32 LE) over everything before it. A `BufWriter` plus an
/// incremental [`Crc32`] keep the write single-pass with no intermediate
/// whole-map buffer.
fn write_snapshot_bin(path: &Path, map: &HashMap<String, Vec<u8>>) -> Result<()> {
    let file = std::fs::File::create(path).map_err(io_err)?;
    let mut out = BufWriter::new(file);
    let mut crc = Crc32::new();
    let mut emit = |out: &mut BufWriter<std::fs::File>, bytes: &[u8]| -> Result<()> {
        crc.update(bytes);
        out.write_all(bytes).map_err(io_err)
    };
    emit(&mut out, &[CODEC_MAGIC, CODEC_VERSION, KIND_KV_SNAPSHOT])?;
    emit(&mut out, &(map.len() as u32).to_le_bytes())?;
    let mut keys: Vec<&String> = map.keys().collect();
    keys.sort();
    for key in keys {
        let value = &map[key];
        emit(&mut out, &(key.len() as u32).to_le_bytes())?;
        emit(&mut out, key.as_bytes())?;
        emit(&mut out, &(value.len() as u32).to_le_bytes())?;
        emit(&mut out, value)?;
    }
    let digest = crc.finalize();
    out.write_all(&digest.to_le_bytes()).map_err(io_err)?;
    let file = out.into_inner().map_err(|e| io_err(e.into_error()))?;
    file.sync_data().map_err(io_err)
}

/// Parses a binary snapshot produced by [`write_snapshot_bin`].
fn read_snapshot_bin(data: &[u8]) -> Result<HashMap<String, Vec<u8>>> {
    let fail = |why: &str| Error::Storage(format!("bad snapshot: {why}"));
    if data.len() < 11 {
        return Err(fail("truncated header"));
    }
    if data[0] != CODEC_MAGIC || data[2] != KIND_KV_SNAPSHOT {
        return Err(fail("wrong magic or kind"));
    }
    if data[1] != CODEC_VERSION {
        return Err(fail("unknown format version"));
    }
    let body = &data[..data.len() - 4];
    let stored = (&data[data.len() - 4..]).get_u32_le();
    if crate::crc32(body) != stored {
        return Err(fail("crc mismatch"));
    }
    let mut cursor = &body[3..];
    let count = cursor.get_u32_le() as usize;
    let mut map = HashMap::with_capacity(count);
    for _ in 0..count {
        if cursor.len() < 4 {
            return Err(fail("truncated entry"));
        }
        let klen = cursor.get_u32_le() as usize;
        if cursor.len() < klen + 4 {
            return Err(fail("truncated key"));
        }
        let key = std::str::from_utf8(&cursor[..klen]).map_err(|_| fail("key is not UTF-8"))?;
        let key = key.to_string();
        cursor.advance(klen);
        let vlen = cursor.get_u32_le() as usize;
        if cursor.len() < vlen {
            return Err(fail("truncated value"));
        }
        map.insert(key, cursor[..vlen].to_vec());
        cursor.advance(vlen);
    }
    if !cursor.is_empty() {
        return Err(fail("trailing bytes"));
    }
    Ok(map)
}

#[derive(Debug)]
struct Inner {
    map: HashMap<String, Vec<u8>>,
    wal: Wal,
    dir: PathBuf,
    /// Reused encode buffer for mutation records — `put`/`delete` fill it in
    /// place instead of allocating a fresh `Vec<u8>` per record.
    record_buf: BytesMut,
}

/// A durable key → bytes store.
///
/// Every mutation is logged to the WAL before the in-memory index is
/// touched; [`KvStore::snapshot`] streams the whole index to a CRC-trailed
/// binary snapshot and truncates the log. Reopening a directory recovers
/// snapshot + log suffix.
#[derive(Debug)]
pub struct KvStore {
    inner: Mutex<Inner>,
}

impl KvStore {
    /// Opens (or creates) a store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(io_err)?;
        let mut map: HashMap<String, Vec<u8>> = match std::fs::read(dir.join("snapshot.bin")) {
            Ok(data) => read_snapshot_bin(&data)?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => HashMap::new(),
            Err(e) => return Err(io_err(e)),
        };
        let wal_path = dir.join("wal.log");
        // Load the log once and replay borrowed views; the only copies made
        // are the key/value the index actually keeps.
        let data = Wal::load(&wal_path)?;
        let (records, _tail) = Wal::scan(&data);
        for range in records {
            let (op, key, value) = decode(&data[range])?;
            match op {
                OP_PUT => {
                    map.insert(key.to_string(), value.to_vec());
                }
                _ => {
                    map.remove(key);
                }
            }
        }
        let wal = Wal::open(wal_path)?;
        Ok(KvStore {
            inner: Mutex::new(Inner {
                map,
                wal,
                dir,
                record_buf: BytesMut::new(),
            }),
        })
    }

    /// Stores a value, durably (WAL first).
    pub fn put(&self, key: &str, value: &[u8]) -> Result<()> {
        let mut inner = self.inner.lock();
        let Inner {
            wal, record_buf, ..
        } = &mut *inner;
        encode_put(record_buf, key, value);
        wal.append(record_buf)?;
        inner.map.insert(key.to_string(), value.to_vec());
        Ok(())
    }

    /// Fetches a value.
    pub fn get(&self, key: &str) -> Option<Vec<u8>> {
        self.inner.lock().map.get(key).cloned()
    }

    /// Deletes a key; returns whether it existed.
    pub fn delete(&self, key: &str) -> Result<bool> {
        let mut inner = self.inner.lock();
        let Inner {
            wal, record_buf, ..
        } = &mut *inner;
        encode_delete(record_buf, key);
        wal.append(record_buf)?;
        Ok(inner.map.remove(key).is_some())
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// True when no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All keys with the given prefix, sorted.
    pub fn keys_with_prefix(&self, prefix: &str) -> Vec<String> {
        let inner = self.inner.lock();
        let mut keys: Vec<String> = inner
            .map
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect();
        keys.sort();
        keys
    }

    /// Writes an atomic binary snapshot (`tmp` + rename) and truncates the
    /// WAL.
    pub fn snapshot(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        let tmp = inner.dir.join("snapshot.bin.tmp");
        let dst = inner.dir.join("snapshot.bin");
        write_snapshot_bin(&tmp, &inner.map)?;
        std::fs::rename(&tmp, &dst).map_err(io_err)?;
        inner.wal.truncate()
    }

    /// Bytes currently in the WAL — shrinks to 0 after [`KvStore::snapshot`].
    pub fn wal_bytes(&self) -> Result<u64> {
        self.inner.lock().wal.len_bytes()
    }

    /// Root directory of the store.
    pub fn dir(&self) -> PathBuf {
        self.inner.lock().dir.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("docs-kv-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_get_delete() {
        let store = KvStore::open(tmp_dir("basic")).unwrap();
        assert!(store.get("a").is_none());
        store.put("a", b"1").unwrap();
        store.put("b", b"2").unwrap();
        assert_eq!(store.get("a").unwrap(), b"1");
        assert_eq!(store.len(), 2);
        assert!(store.delete("a").unwrap());
        assert!(!store.delete("a").unwrap());
        assert!(store.get("a").is_none());
    }

    #[test]
    fn reopen_recovers_from_wal() {
        let dir = tmp_dir("recover");
        {
            let store = KvStore::open(&dir).unwrap();
            store.put("worker/1", b"q=0.9").unwrap();
            store.put("worker/2", b"q=0.4").unwrap();
            store.delete("worker/2").unwrap();
        }
        let store = KvStore::open(&dir).unwrap();
        assert_eq!(store.get("worker/1").unwrap(), b"q=0.9");
        assert!(store.get("worker/2").is_none());
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn snapshot_compacts_and_recovers() {
        let dir = tmp_dir("snapshot");
        {
            let store = KvStore::open(&dir).unwrap();
            for i in 0..50 {
                store
                    .put(&format!("k{i}"), format!("v{i}").as_bytes())
                    .unwrap();
            }
            assert!(store.wal_bytes().unwrap() > 0);
            store.snapshot().unwrap();
            assert_eq!(store.wal_bytes().unwrap(), 0);
            // Post-snapshot mutations land in the fresh WAL.
            store.put("k50", b"v50").unwrap();
        }
        let store = KvStore::open(&dir).unwrap();
        assert_eq!(store.len(), 51);
        assert_eq!(store.get("k7").unwrap(), b"v7");
        assert_eq!(store.get("k50").unwrap(), b"v50");
    }

    #[test]
    fn overwrite_keeps_latest() {
        let dir = tmp_dir("overwrite");
        {
            let store = KvStore::open(&dir).unwrap();
            store.put("k", b"old").unwrap();
            store.put("k", b"new").unwrap();
        }
        let store = KvStore::open(&dir).unwrap();
        assert_eq!(store.get("k").unwrap(), b"new");
    }

    #[test]
    fn keys_with_prefix_sorted() {
        let store = KvStore::open(tmp_dir("prefix")).unwrap();
        store.put("task/2", b"x").unwrap();
        store.put("task/1", b"x").unwrap();
        store.put("worker/1", b"x").unwrap();
        assert_eq!(
            store.keys_with_prefix("task/"),
            vec!["task/1".to_string(), "task/2".to_string()]
        );
    }

    #[test]
    fn torn_wal_tail_loses_only_the_tail() {
        let dir = tmp_dir("torn");
        {
            let store = KvStore::open(&dir).unwrap();
            store.put("durable", b"yes").unwrap();
        }
        // Crash mid-append.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(dir.join("wal.log"))
                .unwrap();
            f.write_all(&[99, 0, 0, 0, 1, 2, 3]).unwrap();
        }
        let store = KvStore::open(&dir).unwrap();
        assert_eq!(store.get("durable").unwrap(), b"yes");
        assert_eq!(store.len(), 1);
        // And the store still accepts writes.
        store.put("after", b"crash").unwrap();
    }

    #[test]
    fn binary_snapshot_roundtrip_is_deterministic() {
        let dir = tmp_dir("bin-snap");
        {
            let store = KvStore::open(&dir).unwrap();
            store.put("b", b"2").unwrap();
            store.put("a", b"1").unwrap();
            store.snapshot().unwrap();
        }
        let first = std::fs::read(dir.join("snapshot.bin")).unwrap();
        {
            let store = KvStore::open(&dir).unwrap();
            assert_eq!(store.get("a").unwrap(), b"1");
            // Same contents → byte-identical snapshot (keys are sorted).
            store.snapshot().unwrap();
        }
        let second = std::fs::read(dir.join("snapshot.bin")).unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn corrupt_binary_snapshot_is_refused() {
        let dir = tmp_dir("bin-corrupt");
        {
            let store = KvStore::open(&dir).unwrap();
            store.put("k", b"precious").unwrap();
            store.snapshot().unwrap();
        }
        let path = dir.join("snapshot.bin");
        let clean = std::fs::read(&path).unwrap();
        // Any single flipped bit must fail the CRC (or the header checks),
        // never silently load wrong state.
        for pos in [0, 1, 2, clean.len() / 2, clean.len() - 1] {
            let mut evil = clean.clone();
            evil[pos] ^= 0x10;
            std::fs::write(&path, &evil).unwrap();
            assert!(KvStore::open(&dir).is_err(), "flip at byte {pos} accepted");
        }
    }

    #[test]
    fn concurrent_writers_are_serialized() {
        let store = std::sync::Arc::new(KvStore::open(tmp_dir("threads")).unwrap());
        let mut handles = Vec::new();
        for t in 0..4 {
            let s = store.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..25 {
                    s.put(&format!("t{t}/k{i}"), b"v").unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.len(), 100);
    }
}
