//! Append-only write-ahead log with CRC-checked, length-prefixed records.
//!
//! Record layout: `[payload_len: u32 LE][crc32(payload): u32 LE][payload]`.
//! Replay stops cleanly at the first incomplete or corrupt record — the
//! state of affairs after a crash mid-append — so everything durable before
//! the torn tail is recovered.

use crate::{crc32, io_err};
use bytes::{Buf, BufMut, BytesMut};
use docs_types::Result;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// One recovered WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalEntry(pub Vec<u8>);

/// How a [`Wal::replay_all`] scan ended.
///
/// The distinction matters to recovery policy: a torn tail is the expected
/// artifact of a crash mid-append (the durable prefix is complete and
/// replay may continue with later segments), while a CRC mismatch on a
/// *complete* record means the medium corrupted data that was once durable
/// — silently dropping it would serve wrong state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalTail {
    /// The file ended exactly at a record boundary.
    Clean,
    /// The final record is incomplete (fewer bytes than its header
    /// promises, or a partial header) — a crash mid-append.
    Torn,
    /// A complete record failed its CRC check at this byte offset.
    Corrupt(usize),
}

/// The write-ahead log.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    file: File,
}

impl Wal {
    /// Opens (creating if needed) the log at `path` for appending.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self> {
        let path = path.into();
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(&path)
            .map_err(io_err)?;
        Ok(Wal { path, file })
    }

    /// Encodes one record (`[len][crc][payload]`) into `buf`. Group-commit
    /// callers batch several encoded records and hand them to
    /// [`Wal::write_raw`] in one write.
    pub fn encode_record(payload: &[u8], buf: &mut BytesMut) {
        Self::encode_record_with(buf, |b| b.put_slice(payload));
    }

    /// Encodes one record whose payload `write_payload` appends straight
    /// into `buf`: the header goes first with a zero length and CRC, which
    /// are then computed over the span just written. No payload copy is
    /// made on the way into a group-commit buffer.
    pub(crate) fn encode_record_with(
        buf: &mut BytesMut,
        write_payload: impl FnOnce(&mut BytesMut),
    ) {
        let start = buf.len();
        buf.put_u64_le(0); // length and CRC, patched below
        write_payload(buf);
        let payload = start + 8;
        let len = (buf.len() - payload) as u32;
        let crc = crc32(&buf[payload..]);
        buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
        buf[start + 4..payload].copy_from_slice(&crc.to_le_bytes());
    }

    /// Writes pre-encoded record bytes and flushes them to the OS (one
    /// write syscall regardless of how many records `bytes` holds).
    pub fn write_raw(&mut self, bytes: &[u8]) -> Result<()> {
        self.file.write_all(bytes).map_err(io_err)?;
        self.file.flush().map_err(io_err)
    }

    /// Hands `bytes` to the OS with a single `write` call and returns how
    /// many were accepted — the resumable building block of group-commit
    /// flushing. Callers track the accepted prefix so a flush that failed
    /// midway is *resumed*, never restarted: re-writing already-accepted
    /// bytes would duplicate records in the segment.
    pub fn write_some(&mut self, bytes: &[u8]) -> Result<usize> {
        loop {
            match self.file.write(bytes) {
                Ok(0) if !bytes.is_empty() => {
                    return Err(io_err(std::io::Error::from(std::io::ErrorKind::WriteZero)))
                }
                Ok(n) => return Ok(n),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(io_err(e)),
            }
        }
    }

    /// Forces written records to stable storage (`fdatasync`). Group commit
    /// amortizes this call across a batch of records.
    pub fn sync(&mut self) -> Result<()> {
        self.file.sync_data().map_err(io_err)
    }

    /// Appends one record and flushes it to the OS.
    pub fn append(&mut self, payload: &[u8]) -> Result<()> {
        let mut buf = BytesMut::with_capacity(8 + payload.len());
        Self::encode_record(payload, &mut buf);
        self.write_raw(&buf)
    }

    /// Replays all intact records from the start of the log. Stops silently
    /// at the first torn or corrupt record (crash-recovery semantics).
    pub fn replay(path: impl AsRef<Path>) -> Result<Vec<WalEntry>> {
        Ok(Self::replay_all(path)?.0)
    }

    /// Reads the whole log file into memory; a missing file reads as empty.
    /// Pair with [`Wal::scan`]: load once, then hand out borrowed payload
    /// views instead of copying each record.
    pub fn load(path: impl AsRef<Path>) -> Result<Vec<u8>> {
        let mut data = Vec::new();
        match File::open(path.as_ref()) {
            Ok(mut f) => {
                f.read_to_end(&mut data).map_err(io_err)?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(io_err(e)),
        }
        Ok(data)
    }

    /// Scans loaded log bytes and returns the payload byte range of every
    /// intact record, plus how the scan ended. The ranges index into `data`
    /// — the zero-copy recovery path slices them out of a shared arena
    /// instead of `to_vec()`-ing each payload.
    pub fn scan(data: &[u8]) -> (Vec<std::ops::Range<usize>>, WalTail) {
        let mut records = Vec::new();
        let mut offset = 0usize;
        let tail = loop {
            let cursor = &data[offset..];
            if cursor.is_empty() {
                break WalTail::Clean;
            }
            if cursor.len() < 8 {
                break WalTail::Torn; // partial header
            }
            let len = (&cursor[0..4]).get_u32_le() as usize;
            let crc = (&cursor[4..8]).get_u32_le();
            if cursor.len() < 8 + len {
                break WalTail::Torn; // record promises more bytes than exist
            }
            let payload = &cursor[8..8 + len];
            if crc32(payload) != crc {
                break WalTail::Corrupt(offset);
            }
            records.push(offset + 8..offset + 8 + len);
            offset += 8 + len;
        };
        (records, tail)
    }

    /// Replays all intact records and reports how the scan ended, letting
    /// callers distinguish a crash artifact ([`WalTail::Torn`]) from data
    /// corruption ([`WalTail::Corrupt`]). A missing file reads as empty and
    /// clean. Entries are owned copies; the recovery hot path uses
    /// [`Wal::load`] + [`Wal::scan`] directly to avoid them.
    pub fn replay_all(path: impl AsRef<Path>) -> Result<(Vec<WalEntry>, WalTail)> {
        let data = Self::load(path)?;
        let (records, tail) = Self::scan(&data);
        let entries = records
            .into_iter()
            .map(|r| WalEntry(data[r].to_vec()))
            .collect();
        Ok((entries, tail))
    }

    /// Truncates the log to empty (after a snapshot has captured its
    /// contents).
    pub fn truncate(&mut self) -> Result<()> {
        self.file.set_len(0).map_err(io_err)?;
        self.file.sync_all().map_err(io_err)
    }

    /// Path of the underlying file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Byte length of the log on disk.
    pub fn len_bytes(&self) -> Result<u64> {
        self.file.metadata().map(|m| m.len()).map_err(io_err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("docs-wal-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    #[test]
    fn append_and_replay_roundtrip() {
        let path = tmp("roundtrip");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(b"one").unwrap();
        wal.append(b"two").unwrap();
        wal.append(b"").unwrap();
        let entries = Wal::replay(&path).unwrap();
        assert_eq!(
            entries,
            vec![
                WalEntry(b"one".to_vec()),
                WalEntry(b"two".to_vec()),
                WalEntry(vec![]),
            ]
        );
    }

    #[test]
    fn replay_of_missing_file_is_empty() {
        let path = tmp("missing");
        assert!(Wal::replay(path.with_file_name("nope.log"))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn torn_tail_is_ignored() {
        let path = tmp("torn");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(b"keep me").unwrap();
        wal.append(b"also keep").unwrap();
        drop(wal);
        // Simulate a crash mid-append: append a header promising more bytes
        // than exist.
        let mut raw = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        raw.write_all(&[50, 0, 0, 0, 1, 2, 3, 4, b'x']).unwrap();
        drop(raw);
        let entries = Wal::replay(&path).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[1], WalEntry(b"also keep".to_vec()));
    }

    #[test]
    fn corrupt_record_stops_replay() {
        let path = tmp("corrupt");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(b"good").unwrap();
        wal.append(b"evil").unwrap();
        wal.append(b"after").unwrap();
        drop(wal);
        // Flip one payload byte of the middle record.
        let mut data = std::fs::read(&path).unwrap();
        let second_payload_start = 8 + 4 + 8;
        data[second_payload_start] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        let entries = Wal::replay(&path).unwrap();
        // Only the first record survives; corruption halts recovery.
        assert_eq!(entries, vec![WalEntry(b"good".to_vec())]);
    }

    #[test]
    fn replay_all_classifies_the_tail() {
        let path = tmp("tails");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(b"a").unwrap();
        wal.append(b"b").unwrap();
        drop(wal);
        let (entries, tail) = Wal::replay_all(&path).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(tail, WalTail::Clean);
        // Torn: partial header.
        let mut raw = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        raw.write_all(&[9, 0, 0]).unwrap();
        drop(raw);
        let (entries, tail) = Wal::replay_all(&path).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(tail, WalTail::Torn);
        // Corrupt: flip a payload byte of the first (complete) record.
        let mut data = std::fs::read(&path).unwrap();
        data[8] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        let (entries, tail) = Wal::replay_all(&path).unwrap();
        assert!(entries.is_empty());
        assert_eq!(tail, WalTail::Corrupt(0));
    }

    #[test]
    fn batched_raw_writes_replay_like_single_appends() {
        let path = tmp("batched");
        let mut wal = Wal::open(&path).unwrap();
        let mut buf = BytesMut::new();
        Wal::encode_record(b"one", &mut buf);
        Wal::encode_record(b"two", &mut buf);
        Wal::encode_record(b"three", &mut buf);
        wal.write_raw(&buf).unwrap();
        wal.sync().unwrap();
        let entries = Wal::replay(&path).unwrap();
        assert_eq!(
            entries,
            vec![
                WalEntry(b"one".to_vec()),
                WalEntry(b"two".to_vec()),
                WalEntry(b"three".to_vec()),
            ]
        );
    }

    #[test]
    fn truncate_empties_log() {
        let path = tmp("truncate");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(b"data").unwrap();
        wal.truncate().unwrap();
        assert_eq!(wal.len_bytes().unwrap(), 0);
        assert!(Wal::replay(&path).unwrap().is_empty());
        // The log stays usable after truncation.
        wal.append(b"fresh").unwrap();
        assert_eq!(Wal::replay(&path).unwrap().len(), 1);
    }
}
