//! Append-only write-ahead log with CRC-checked, length-prefixed records.
//!
//! Record layout: `[payload_len: u32 LE][crc32(payload): u32 LE][payload]`.
//! A scan stops at the first incomplete or corrupt record and says which
//! it was ([`WalTail`]): a torn tail is the state of affairs after a crash
//! mid-append, so everything durable before it is recovered.

use crate::io_err;
use bytes::{Buf, BufMut, BytesMut};
use docs_types::{crc32, Result};
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// How a [`Wal::scan`] ended.
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
    file: File,
}

impl Wal {
    /// Opens (creating if needed) the log at `path` for appending.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self> {
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(path.into())
            .map_err(io_err)?;
        Ok(Wal { file })
    }

    /// Appends to a file just written by `write_atomically`, which leaves it
    /// positioned at its end.
    pub(crate) fn adopt(file: File) -> Self {
        Wal { file }
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

    /// Appends one record and hands it to the OS (no `fdatasync`).
    pub fn append(&mut self, payload: &[u8]) -> Result<()> {
        let mut buf = BytesMut::with_capacity(8 + payload.len());
        Self::encode_record_with(&mut buf, |b| b.put_slice(payload));
        self.file.write_all(&buf).map_err(io_err)
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

    /// Every intact payload of the log at `path`, and how its scan ended.
    fn replay(path: &Path) -> (Vec<Vec<u8>>, WalTail) {
        let data = Wal::load(path).unwrap();
        let (records, tail) = Wal::scan(&data);
        (
            records.into_iter().map(|r| data[r].to_vec()).collect(),
            tail,
        )
    }

    #[test]
    fn append_and_replay_roundtrip() {
        let path = tmp("roundtrip");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(b"one").unwrap();
        wal.append(b"two").unwrap();
        wal.append(b"").unwrap();
        let expected = vec![b"one".to_vec(), b"two".to_vec(), vec![]];
        assert_eq!(replay(&path), (expected, WalTail::Clean));
    }

    #[test]
    fn replay_of_missing_file_is_empty() {
        let path = tmp("missing");
        assert_eq!(
            replay(&path.with_file_name("nope.log")),
            (vec![], WalTail::Clean)
        );
    }

    #[test]
    fn scan_classifies_the_tail() {
        let path = tmp("tails");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(b"keep me").unwrap();
        wal.append(b"also keep").unwrap();
        drop(wal);
        // Torn: a header promising more bytes than exist, then a partial
        // header.
        for torn in [&[50, 0, 0, 0, 1, 2, 3, 4, b'x'][..], &[9, 0, 0]] {
            let clean = std::fs::read(&path).unwrap();
            let mut raw = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            raw.write_all(torn).unwrap();
            drop(raw);
            let (entries, tail) = replay(&path);
            assert_eq!(entries, vec![b"keep me".to_vec(), b"also keep".to_vec()]);
            assert_eq!(tail, WalTail::Torn);
            std::fs::write(&path, clean).unwrap();
        }
        // Corrupt: flip a payload byte of the second (complete) record.
        let mut data = std::fs::read(&path).unwrap();
        data[8 + 7 + 8] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        let (entries, tail) = replay(&path);
        assert_eq!(entries, vec![b"keep me".to_vec()]);
        assert_eq!(tail, WalTail::Corrupt(8 + 7));
    }
}
