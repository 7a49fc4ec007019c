//! Failure injection for the parameter database.
//!
//! The paper's DOCS stores worker statistics and task state "into database"
//! (Figure 1, Section 4.2) and relies on them across requesters; losing or
//! silently corrupting that state breaks Theorem 1's long-run quality
//! maintenance. These tests corrupt the on-disk artifacts the way real
//! crashes and bit rot do — torn appends, flipped bytes, lying length
//! prefixes, interrupted snapshot renames — and check the store either
//! recovers every durable prefix or fails loudly, never silently serving
//! garbage. Coverage spans all three durability layers: the raw `Wal`, the
//! typed `ParamStore` façade over the KV store, and the `CampaignLog`
//! (torn tail records, truncated snapshot tmp files, CRC-corrupted
//! mid-log entries → clean error, not a panic).

use docs_storage::{recover_tree, CampaignLog, FlushPolicy, KvStore, ParamStore, Wal, WalEntry};
use docs_types::{CampaignId, WorkerId};
use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use std::fs;
use std::path::PathBuf;

fn tmp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("docs-storage-inject-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Flips one byte at `offset` in the file.
fn flip_byte(path: &PathBuf, offset: usize) {
    let mut data = fs::read(path).unwrap();
    assert!(offset < data.len(), "offset {offset} beyond {}", data.len());
    data[offset] ^= 0xFF;
    fs::write(path, data).unwrap();
}

#[test]
fn flipped_payload_byte_stops_replay_at_the_corruption() {
    let dir = tmp_dir("flip-payload");
    fs::create_dir_all(&dir).unwrap();
    let wal_path = dir.join("wal.log");
    {
        let mut wal = Wal::open(&wal_path).unwrap();
        wal.append(b"record-0").unwrap();
        wal.append(b"record-1").unwrap();
        wal.append(b"record-2").unwrap();
    }
    // Record layout is [len:4][crc:4][payload]; record 0 spans bytes 0..16.
    // Flip a payload byte of record 1 (starts at 16; payload at 24).
    flip_byte(&wal_path, 25);
    let entries = Wal::replay(&wal_path).unwrap();
    assert_eq!(entries, vec![WalEntry(b"record-0".to_vec())]);
}

#[test]
fn flipped_crc_byte_stops_replay_at_the_corruption() {
    let dir = tmp_dir("flip-crc");
    fs::create_dir_all(&dir).unwrap();
    let wal_path = dir.join("wal.log");
    {
        let mut wal = Wal::open(&wal_path).unwrap();
        wal.append(b"alpha").unwrap();
        wal.append(b"beta").unwrap();
    }
    // Record 0: bytes 0..13 ([4][4][5]); flip a CRC byte of record 0.
    flip_byte(&wal_path, 5);
    let entries = Wal::replay(&wal_path).unwrap();
    assert!(entries.is_empty(), "nothing before the corruption survives");
}

#[test]
fn lying_length_prefix_is_treated_as_torn_tail() {
    let dir = tmp_dir("lying-len");
    fs::create_dir_all(&dir).unwrap();
    let wal_path = dir.join("wal.log");
    {
        let mut wal = Wal::open(&wal_path).unwrap();
        wal.append(b"good").unwrap();
    }
    // Append a record header claiming a 4 GiB payload that never arrives.
    {
        use std::io::Write;
        let mut f = fs::OpenOptions::new().append(true).open(&wal_path).unwrap();
        f.write_all(&u32::MAX.to_le_bytes()).unwrap();
        f.write_all(&0u32.to_le_bytes()).unwrap();
        f.write_all(b"tiny").unwrap();
    }
    let entries = Wal::replay(&wal_path).unwrap();
    assert_eq!(entries, vec![WalEntry(b"good".to_vec())]);
}

#[test]
fn kv_store_survives_lying_length_in_its_wal() {
    let dir = tmp_dir("kv-lying-len");
    {
        let store = KvStore::open(&dir).unwrap();
        store.put("k", b"v").unwrap();
    }
    {
        use std::io::Write;
        let mut f = fs::OpenOptions::new()
            .append(true)
            .open(dir.join("wal.log"))
            .unwrap();
        f.write_all(&u32::MAX.to_le_bytes()).unwrap();
        f.write_all(&0u32.to_le_bytes()).unwrap();
        f.write_all(b"tiny").unwrap();
    }
    // The giant claimed length reads as a torn tail; the durable put
    // survives and the store stays writable.
    let store = KvStore::open(&dir).unwrap();
    assert_eq!(store.get("k").unwrap(), b"v");
    store.put("k2", b"v2").unwrap();
}

#[test]
fn corrupt_snapshot_fails_loudly_instead_of_serving_garbage() {
    let dir = tmp_dir("bad-snapshot");
    {
        let store = KvStore::open(&dir).unwrap();
        store.put("worker/1", b"stats").unwrap();
        store.snapshot().unwrap();
    }
    flip_byte(&dir.join("snapshot.bin"), 2);
    let err = KvStore::open(&dir).expect_err("corrupt snapshot must not open");
    let msg = err.to_string();
    assert!(msg.contains("snapshot"), "unexpected error: {msg}");
}

#[test]
fn interrupted_snapshot_rename_recovers_previous_state() {
    let dir = tmp_dir("interrupted-snapshot");
    {
        let store = KvStore::open(&dir).unwrap();
        store.put("a", b"1").unwrap();
        store.put("b", b"2").unwrap();
        // Crash before rename: the half-written tmp snapshot exists, the
        // real snapshot does not, the WAL is untouched.
        fs::write(dir.join("snapshot.bin.tmp"), b"half-written").unwrap();
    }
    let store = KvStore::open(&dir).unwrap();
    assert_eq!(store.get("a").unwrap(), b"1");
    assert_eq!(store.get("b").unwrap(), b"2");
    assert_eq!(store.len(), 2);
}

#[test]
fn crash_between_snapshot_and_new_writes_loses_nothing() {
    let dir = tmp_dir("snapshot-then-writes");
    {
        let store = KvStore::open(&dir).unwrap();
        for i in 0..20 {
            store.put(&format!("pre/{i}"), b"x").unwrap();
        }
        store.snapshot().unwrap();
        for i in 0..5 {
            store.put(&format!("post/{i}"), b"y").unwrap();
        }
        // Torn final append.
        use std::io::Write;
        let mut f = fs::OpenOptions::new()
            .append(true)
            .open(dir.join("wal.log"))
            .unwrap();
        f.write_all(&[42, 0, 0, 0]).unwrap();
    }
    let store = KvStore::open(&dir).unwrap();
    assert_eq!(store.len(), 25);
    assert_eq!(store.keys_with_prefix("post/").len(), 5);
}

#[test]
fn empty_wal_file_is_a_valid_store() {
    let dir = tmp_dir("empty-wal");
    fs::create_dir_all(&dir).unwrap();
    fs::write(dir.join("wal.log"), b"").unwrap();
    let store = KvStore::open(&dir).unwrap();
    assert!(store.is_empty());
}

#[test]
fn sub_header_garbage_wal_recovers_empty() {
    let dir = tmp_dir("garbage-wal");
    fs::create_dir_all(&dir).unwrap();
    fs::write(dir.join("wal.log"), [1, 2, 3]).unwrap(); // < 8 header bytes
    let store = KvStore::open(&dir).unwrap();
    assert!(store.is_empty());
    store.put("still", b"works").unwrap();
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct FakeStats {
    quality: Vec<f64>,
    weight: Vec<f64>,
}

#[test]
fn param_store_survives_a_torn_wal_tail() {
    let dir = tmp_dir("params-torn");
    let stats = FakeStats {
        quality: vec![0.9, 0.4],
        weight: vec![3.0, 1.0],
    };
    {
        let store = ParamStore::open(&dir).unwrap();
        store.put_worker(WorkerId(1), &stats).unwrap();
    }
    {
        use std::io::Write;
        let mut f = fs::OpenOptions::new()
            .append(true)
            .open(dir.join("wal.log"))
            .unwrap();
        f.write_all(&[77, 0, 0, 0, 1, 2]).unwrap();
    }
    let store = ParamStore::open(&dir).unwrap();
    let loaded: FakeStats = store.get_worker(WorkerId(1)).unwrap().unwrap();
    assert_eq!(loaded, stats);
    // The typed façade stays writable after the torn tail.
    store.put_worker(WorkerId(2), &stats).unwrap();
    assert_eq!(store.worker_ids(), vec![WorkerId(1), WorkerId(2)]);
}

#[test]
fn param_store_corrupt_value_fails_loudly_on_decode() {
    let dir = tmp_dir("params-corrupt-value");
    let store = ParamStore::open(&dir).unwrap();
    store
        .put_worker(
            WorkerId(3),
            &FakeStats {
                quality: vec![0.5],
                weight: vec![1.0],
            },
        )
        .unwrap();
    // Bit rot inside the stored JSON value.
    store.kv().put("worker/3", b"{\"quality\": [0.5,").unwrap();
    let err = store.get_worker::<FakeStats>(WorkerId(3)).unwrap_err();
    assert!(matches!(err, docs_types::Error::Storage(_)), "{err}");
}

#[test]
fn param_store_compaction_survives_interrupted_rename() {
    let dir = tmp_dir("params-interrupted");
    {
        let store = ParamStore::open(&dir).unwrap();
        for w in 0..8u32 {
            store
                .put_worker(
                    WorkerId(w),
                    &FakeStats {
                        quality: vec![w as f64 / 10.0],
                        weight: vec![1.0],
                    },
                )
                .unwrap();
        }
        store.compact().unwrap();
        // Crash mid-compaction on a later cycle: half-written tmp snapshot.
        fs::write(dir.join("snapshot.json.tmp"), b"{ not json").unwrap();
    }
    let store = ParamStore::open(&dir).unwrap();
    assert_eq!(store.worker_ids().len(), 8);
}

#[test]
fn campaign_log_torn_tail_record_recovers_the_durable_prefix() {
    let base = tmp_dir("clog-torn");
    let shard = base.join("shard-0");
    let campaign = CampaignId(4);
    {
        let mut log = CampaignLog::open(&shard).unwrap();
        log.register(campaign, FlushPolicy::EveryEvent, 0);
        log.append_event(campaign, b"first").unwrap();
        log.append_event(campaign, b"second").unwrap();
    }
    {
        use std::io::Write;
        let mut f = fs::OpenOptions::new()
            .append(true)
            .open(shard.join("events-000000.wal"))
            .unwrap();
        f.write_all(&[120, 0, 0, 0, 9, 9, 9, 9, b'z']).unwrap();
    }
    let rec = recover_tree(&base).unwrap();
    assert_eq!(rec.torn_tails, 1);
    let c = &rec.campaigns[&campaign];
    assert_eq!(c.events.len(), 2);
    assert_eq!(c.last_seq, 2);
}

#[test]
fn campaign_log_truncated_snapshot_tmp_is_ignored() {
    let base = tmp_dir("clog-snap-tmp");
    let shard = base.join("shard-0");
    let campaign = CampaignId(1);
    {
        let mut log = CampaignLog::open(&shard).unwrap();
        log.register(campaign, FlushPolicy::Batch(4), 0);
        log.append_event(campaign, b"e1").unwrap();
        log.write_snapshot(campaign, b"full state").unwrap();
        log.append_event(campaign, b"e2").unwrap();
    }
    // Crash during the *next* snapshot: only the tmp file was written.
    fs::write(shard.join("snap-1.bin.tmp"), b"trunc").unwrap();
    let rec = recover_tree(&base).unwrap();
    let c = &rec.campaigns[&campaign];
    let (snap_seq, snap_payload) = c.snapshot.as_ref().expect("snapshot survived");
    assert_eq!(
        (*snap_seq, snap_payload.as_slice()),
        (1, b"full state".as_slice())
    );
    assert_eq!(c.events.len(), 1);
    assert_eq!(
        (c.events[0].0, c.events[0].1.as_slice()),
        (2, b"e2".as_slice())
    );
}

#[test]
fn campaign_log_crc_corrupted_mid_log_entry_is_a_clean_error() {
    let base = tmp_dir("clog-midlog");
    let shard = base.join("shard-0");
    let campaign = CampaignId(2);
    {
        let mut log = CampaignLog::open(&shard).unwrap();
        log.register(campaign, FlushPolicy::EveryEvent, 0);
        log.append_event(campaign, b"aaaa").unwrap();
        log.append_event(campaign, b"bbbb").unwrap();
        log.append_event(campaign, b"cccc").unwrap();
    }
    // Flip a payload byte of the middle record: a *complete* record whose
    // CRC no longer matches — silent data loss, not a crash artifact.
    let segment = shard.join("events-000000.wal");
    let record = 8 + 12 + 4; // wal header + campaign/seq tag + payload
    let mut data = fs::read(&segment).unwrap();
    data[record + 8 + 12 + 1] ^= 0xFF;
    fs::write(&segment, &data).unwrap();
    let err = recover_tree(&base).expect_err("corruption must not recover silently");
    let msg = err.to_string();
    assert!(msg.contains("corrupt"), "unexpected error: {msg}");
    assert!(!msg.contains("panic"));
}

#[test]
fn campaign_log_corrupted_snapshot_fails_loudly() {
    let base = tmp_dir("clog-snap-corrupt");
    let shard = base.join("shard-0");
    let campaign = CampaignId(6);
    {
        let mut log = CampaignLog::open(&shard).unwrap();
        log.register(campaign, FlushPolicy::EveryEvent, 0);
        log.append_event(campaign, b"e").unwrap();
        log.write_snapshot(campaign, b"precious state").unwrap();
    }
    flip_byte(&shard.join("snap-6.bin"), 14);
    let err = recover_tree(&base).expect_err("corrupt snapshot must not load");
    assert!(err.to_string().contains("CRC"), "{err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cutting a campaign log segment at *any* byte boundary recovers
    /// exactly a prefix of the appended events — sequence numbers stay
    /// contiguous from 1 and no event is invented or reordered.
    #[test]
    fn campaign_log_truncation_always_recovers_an_event_prefix(
        num_events in 1usize..20,
        cut_fraction in 0.0f64..1.0,
    ) {
        let base = tmp_dir(&format!("prop-clog-{num_events}-{cut_fraction:.4}"));
        let shard = base.join("shard-0");
        let campaign = CampaignId(0);
        let payloads: Vec<Vec<u8>> = (0..num_events)
            .map(|i| format!("event-{i}").into_bytes())
            .collect();
        {
            let mut log = CampaignLog::open(&shard).unwrap();
            log.register(campaign, FlushPolicy::EveryEvent, 0);
            for p in &payloads {
                log.append_event(campaign, p).unwrap();
            }
        }
        let segment = shard.join("events-000000.wal");
        let full = fs::read(&segment).unwrap();
        let cut = (full.len() as f64 * cut_fraction) as usize;
        fs::write(&segment, &full[..cut]).unwrap();

        let rec = recover_tree(&base).unwrap();
        let events = rec
            .campaigns
            .get(&campaign)
            .map(|c| c.events.clone())
            .unwrap_or_default();
        prop_assert!(events.len() <= payloads.len());
        for (i, (seq, payload)) in events.iter().enumerate() {
            prop_assert_eq!(*seq, i as u64 + 1);
            prop_assert_eq!(payload, &payloads[i]);
        }
        fs::remove_dir_all(&base).ok();
    }

    /// Truncating the WAL at *any* byte boundary recovers exactly a prefix
    /// of the appended operations — never a reordering, never an invented
    /// record.
    #[test]
    fn truncation_always_recovers_a_prefix(
        payload_sizes in prop::collection::vec(0usize..64, 1..12),
        cut_fraction in 0.0f64..1.0,
    ) {
        let dir = tmp_dir(&format!("prop-trunc-{payload_sizes:?}-{cut_fraction:.4}"));
        fs::create_dir_all(&dir).unwrap();
        let wal_path = dir.join("wal.log");
        let payloads: Vec<Vec<u8>> = payload_sizes
            .iter()
            .enumerate()
            .map(|(i, &sz)| vec![i as u8; sz])
            .collect();
        {
            let mut wal = Wal::open(&wal_path).unwrap();
            for p in &payloads {
                wal.append(p).unwrap();
            }
        }
        let full = fs::read(&wal_path).unwrap();
        let cut = (full.len() as f64 * cut_fraction) as usize;
        fs::write(&wal_path, &full[..cut]).unwrap();

        let recovered = Wal::replay(&wal_path).unwrap();
        prop_assert!(recovered.len() <= payloads.len());
        for (entry, expected) in recovered.iter().zip(&payloads) {
            prop_assert_eq!(&entry.0, expected);
        }
        fs::remove_dir_all(&dir).ok();
    }

    /// A byte flip anywhere in the WAL never yields records that were not
    /// appended: recovery is still a prefix (possibly empty), or — when the
    /// flip lands inside a length prefix — replay may stop early but still
    /// only returns genuine records.
    #[test]
    fn byte_flip_never_invents_records(
        num_records in 1usize..8,
        flip_at_fraction in 0.0f64..1.0,
    ) {
        let dir = tmp_dir(&format!("prop-flip-{num_records}-{flip_at_fraction:.4}"));
        fs::create_dir_all(&dir).unwrap();
        let wal_path = dir.join("wal.log");
        let payloads: Vec<Vec<u8>> = (0..num_records)
            .map(|i| format!("payload-{i}").into_bytes())
            .collect();
        {
            let mut wal = Wal::open(&wal_path).unwrap();
            for p in &payloads {
                wal.append(p).unwrap();
            }
        }
        let full_len = fs::metadata(&wal_path).unwrap().len() as usize;
        let offset = ((full_len - 1) as f64 * flip_at_fraction) as usize;
        flip_byte(&wal_path, offset);

        let recovered = Wal::replay(&wal_path).unwrap();
        // Every recovered record must be one of the appended payloads, in
        // order. (A flip inside a length field can make replay read a
        // "record" spanning other records; the CRC check rejects it, so the
        // scan stops — it must never pass.)
        prop_assert!(recovered.len() <= payloads.len());
        for (entry, expected) in recovered.iter().zip(&payloads) {
            prop_assert_eq!(&entry.0, expected);
        }
        fs::remove_dir_all(&dir).ok();
    }

    /// KvStore round-trip under random operation sequences: reopening the
    /// directory reproduces the in-memory state exactly, with and without an
    /// intervening snapshot.
    #[test]
    fn kv_reopen_reproduces_state(
        ops in prop::collection::vec((0u8..3, 0u8..6, prop::collection::vec(any::<u8>(), 0..16)), 1..40),
        snapshot_at in prop::option::of(0usize..40),
    ) {
        let dir = tmp_dir(&format!("prop-kv-{}-{:?}", ops.len(), snapshot_at));
        let mut model = std::collections::HashMap::new();
        {
            let store = KvStore::open(&dir).unwrap();
            for (i, (op, key_id, value)) in ops.iter().enumerate() {
                let key = format!("key/{key_id}");
                match op {
                    0 | 1 => {
                        store.put(&key, value).unwrap();
                        model.insert(key, value.clone());
                    }
                    _ => {
                        store.delete(&key).unwrap();
                        model.remove(&key);
                    }
                }
                if snapshot_at == Some(i) {
                    store.snapshot().unwrap();
                }
            }
        }
        let store = KvStore::open(&dir).unwrap();
        prop_assert_eq!(store.len(), model.len());
        for (key, value) in &model {
            let got = store.get(key);
            prop_assert_eq!(got.as_ref(), Some(value));
        }
        fs::remove_dir_all(&dir).ok();
    }
}
