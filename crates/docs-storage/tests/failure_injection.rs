//! Failure injection for the parameter database.
//!
//! The paper's DOCS stores worker statistics and task state "into database"
//! (Figure 1, Section 4.2) and relies on them across requesters; losing or
//! silently corrupting that state breaks Theorem 1's long-run quality
//! maintenance. These tests corrupt the on-disk artifacts the way real
//! crashes and bit rot do — torn appends, flipped bytes, lying length
//! prefixes, interrupted compactions — and check the store either recovers
//! every durable prefix or fails loudly, never silently serving garbage.
//! Every store-level damage test writes after the damage, drops every
//! handle and reopens: a write that only lives in memory proves nothing.
//! Coverage spans all three durability layers: the raw `Wal`, the
//! `ParamStore` log, and the `CampaignLog` (torn tail records, torn
//! baseline records, stale baselines, truncated snapshot tmp files,
//! CRC-corrupted mid-log entries → clean error, not a panic).

use docs_storage::{recover_tree, CampaignLog, FlushPolicy, ParamStore, Wal};
use docs_types::{codec, CampaignId, WorkerId};
use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

fn tmp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("docs-storage-inject-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Flips one byte at `offset` in the file.
fn flip_byte(path: &Path, offset: usize) {
    let mut data = fs::read(path).unwrap();
    assert!(offset < data.len(), "offset {offset} beyond {}", data.len());
    data[offset] ^= 0xFF;
    fs::write(path, data).unwrap();
}

/// Appends raw bytes to the file, as a writer dying mid-append leaves them.
fn append_raw(path: &Path, bytes: &[u8]) {
    let mut f = fs::OpenOptions::new().append(true).open(path).unwrap();
    f.write_all(bytes).unwrap();
}

/// Every intact payload of the log at `path`, in order.
fn replay(path: &Path) -> Vec<Vec<u8>> {
    let data = Wal::load(path).unwrap();
    let (records, _tail) = Wal::scan(&data);
    records.into_iter().map(|r| data[r].to_vec()).collect()
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
    assert_eq!(replay(&wal_path), vec![b"record-0".to_vec()]);
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
    assert!(
        replay(&wal_path).is_empty(),
        "nothing before the corruption survives"
    );
}

/// A record header claiming a 4 GiB payload that never arrives.
const LYING_LENGTH: [u8; 12] = [0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, b't', b'i', b'n', b'y'];

#[test]
fn lying_length_prefix_is_treated_as_torn_tail() {
    let dir = tmp_dir("lying-len");
    fs::create_dir_all(&dir).unwrap();
    let wal_path = dir.join("wal.log");
    {
        let mut wal = Wal::open(&wal_path).unwrap();
        wal.append(b"good").unwrap();
    }
    append_raw(&wal_path, &LYING_LENGTH);
    assert_eq!(replay(&wal_path), vec![b"good".to_vec()]);
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct FakeStats {
    quality: Vec<f64>,
    weight: Vec<f64>,
}

fn stats(w: u32) -> FakeStats {
    FakeStats {
        quality: vec![w as f64 / 10.0, 0.4],
        weight: vec![3.0, w as f64],
    }
}

/// The parameter store's log: the one file in its directory.
fn log_of(dir: &Path) -> PathBuf {
    let files: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .collect();
    assert_eq!(files.len(), 1, "one log file expected, found {files:?}");
    files.into_iter().next().unwrap()
}

/// The log's file name, for tests that plant files before any put.
const PARAM_LOG: &str = "workers.wal";

/// Reopens `dir` with no other handle alive and checks it holds exactly
/// `workers`, each with its [`stats`].
fn assert_reopens_with(dir: &Path, workers: &[u32]) {
    let store = ParamStore::open(dir).unwrap();
    let expected: Vec<WorkerId> = workers.iter().copied().map(WorkerId).collect();
    assert_eq!(store.worker_ids(), expected);
    for &w in workers {
        let loaded: FakeStats = store.get_worker(WorkerId(w)).unwrap().unwrap();
        assert_eq!(loaded, stats(w), "worker {w}");
    }
}

/// Two requesters open one directory and interleave their puts; one of
/// them compacts at its `Finished`. Both requesters' workers survive.
#[test]
fn two_handles_on_one_directory_keep_both_requesters_workers() {
    let dir = tmp_dir("params-two-handles");
    {
        let a = ParamStore::open(&dir).unwrap();
        let b = ParamStore::open(&dir).unwrap();
        a.put_worker(WorkerId(1), &stats(1)).unwrap();
        b.put_worker(WorkerId(2), &stats(2)).unwrap();
        a.put_worker(WorkerId(3), &stats(3)).unwrap();
        b.put_worker(WorkerId(4), &stats(4)).unwrap();
        a.compact().unwrap();
    }
    assert_reopens_with(&dir, &[1, 2, 3, 4]);
}

#[test]
fn a_put_after_a_torn_tail_survives_a_reopen() {
    let dir = tmp_dir("params-torn");
    {
        let store = ParamStore::open(&dir).unwrap();
        store.put_worker(WorkerId(1), &stats(1)).unwrap();
    }
    append_raw(&log_of(&dir), &[77, 0, 0, 0, 1, 2]);
    {
        let store = ParamStore::open(&dir).unwrap();
        let loaded: FakeStats = store.get_worker(WorkerId(1)).unwrap().unwrap();
        assert_eq!(loaded, stats(1));
        for w in 2..=5 {
            store.put_worker(WorkerId(w), &stats(w)).unwrap();
        }
    }
    assert_reopens_with(&dir, &[1, 2, 3, 4, 5]);
}

#[test]
fn a_put_after_a_lying_length_survives_a_reopen() {
    let dir = tmp_dir("params-lying-len");
    {
        let store = ParamStore::open(&dir).unwrap();
        store.put_worker(WorkerId(1), &stats(1)).unwrap();
    }
    // The giant claimed length reads as a torn tail: the durable put
    // survives and the store stays writable.
    append_raw(&log_of(&dir), &LYING_LENGTH);
    ParamStore::open(&dir)
        .unwrap()
        .put_worker(WorkerId(2), &stats(2))
        .unwrap();
    assert_reopens_with(&dir, &[1, 2]);
}

#[test]
fn sub_header_garbage_log_recovers_empty_and_stays_writable() {
    let dir = tmp_dir("params-garbage");
    fs::create_dir_all(&dir).unwrap();
    fs::write(dir.join(PARAM_LOG), [1, 2, 3]).unwrap(); // < 8 header bytes
    {
        let store = ParamStore::open(&dir).unwrap();
        assert!(store.worker_ids().is_empty());
        store.put_worker(WorkerId(9), &stats(9)).unwrap();
    }
    assert_reopens_with(&dir, &[9]);
}

#[test]
fn empty_log_file_is_a_valid_store() {
    let dir = tmp_dir("params-empty");
    fs::create_dir_all(&dir).unwrap();
    fs::write(dir.join(PARAM_LOG), b"").unwrap();
    assert_reopens_with(&dir, &[]);
}

/// Bit rot inside a *complete* record is not a crash artifact: open fails,
/// naming the file and the record's offset, instead of serving the prefix.
#[test]
fn a_crc_corrupt_record_fails_open_naming_file_and_offset() {
    let dir = tmp_dir("params-corrupt");
    {
        let store = ParamStore::open(&dir).unwrap();
        for w in 0..3 {
            store.put_worker(WorkerId(w), &stats(w)).unwrap();
        }
    }
    let log = log_of(&dir);
    let clean = fs::read(&log).unwrap();
    let second = Wal::scan(&clean).0[1].start - 8;
    // A payload byte, then a CRC byte, of the middle record.
    for at in [second + 8 + 5, second + 6] {
        fs::write(&log, &clean).unwrap();
        flip_byte(&log, at);
        let err = ParamStore::open(&dir).expect_err("corrupt record must not open");
        let msg = err.to_string();
        assert!(msg.contains(&format!("byte {second} of")), "{msg}");
        assert!(msg.contains(PARAM_LOG), "{msg}");
    }
}

/// An intact record too short to hold a worker id was not written by a
/// put: open refuses it rather than guessing.
#[test]
fn a_record_without_a_worker_id_fails_open() {
    let dir = tmp_dir("params-no-id");
    fs::create_dir_all(&dir).unwrap();
    Wal::open(dir.join(PARAM_LOG))
        .unwrap()
        .append(b"id?")
        .unwrap();
    let err = ParamStore::open(&dir).expect_err("a record without an id must not open");
    assert!(err.to_string().contains("byte 0 of"), "{err}");
}

/// A crash mid-compaction leaves a half-written tmp file beside the log:
/// open ignores it, and the next compaction replaces it.
#[test]
fn compaction_interrupted_before_its_rename_loses_nothing() {
    let dir = tmp_dir("params-interrupted");
    {
        let store = ParamStore::open(&dir).unwrap();
        for w in 0..8 {
            store.put_worker(WorkerId(w), &stats(w)).unwrap();
        }
        store.compact().unwrap();
        store.put_worker(WorkerId(8), &stats(8)).unwrap();
    }
    fs::write(dir.join(format!("{PARAM_LOG}.tmp")), b"half-written").unwrap();
    let all: Vec<u32> = (0..9).collect();
    assert_reopens_with(&dir, &all);
    ParamStore::open(&dir).unwrap().compact().unwrap();
    assert_eq!(log_of(&dir), dir.join(PARAM_LOG), "the tmp file is gone");
    assert_reopens_with(&dir, &all);
}

#[test]
fn crash_between_compaction_and_new_puts_loses_nothing() {
    let dir = tmp_dir("params-compact-then-puts");
    {
        let store = ParamStore::open(&dir).unwrap();
        for w in 0..20 {
            store.put_worker(WorkerId(w), &stats(w)).unwrap();
        }
        store.compact().unwrap();
        for w in 20..25 {
            store.put_worker(WorkerId(w), &stats(w)).unwrap();
        }
    }
    append_raw(&dir.join(PARAM_LOG), &[42, 0, 0, 0]); // torn final append
    assert_reopens_with(&dir, &(0..25).collect::<Vec<_>>());
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

/// A baseline record torn at a segment tail is a join whose sync never
/// completed, so it was never acknowledged: its campaign is absent after
/// recovery, while a campaign synced before it keeps its baseline and its
/// events.
#[test]
fn campaign_log_torn_baseline_record_leaves_its_campaign_absent() {
    let base = tmp_dir("clog-torn-baseline");
    let shard = base.join("shard-0");
    let (kept, torn) = (CampaignId(0), CampaignId(1));
    let state = |c: CampaignId| codec::to_bytes(format!("state of {c}").as_str());
    {
        let mut log = CampaignLog::open(&shard).unwrap();
        for c in [kept, torn] {
            log.register(c, FlushPolicy::Batch(usize::MAX), 0);
            log.append_baseline(c, &state(c));
            log.append_event(c, b"published").unwrap();
            log.flush().unwrap();
        }
    }
    // Cut the second campaign's baseline (the third record) mid-payload.
    let segment = shard.join("events-000000.wal");
    let data = fs::read(&segment).unwrap();
    let (records, _) = Wal::scan(&data);
    fs::write(&segment, &data[..records[2].start + 12 + 3]).unwrap();
    let rec = recover_tree(&base).unwrap();
    assert_eq!(rec.torn_tails, 1);
    assert!(!rec.campaigns.contains_key(&torn));
    let c = &rec.campaigns[&kept];
    let snapshot = c.snapshot.as_ref().map(|(seq, p)| (*seq, p.to_vec()));
    assert_eq!(snapshot, Some((0, state(kept))));
    assert_eq!((c.events.len(), c.last_seq), (1, 1));
}

/// A baseline record at a lower sequence than the campaign's snapshot file
/// holds older state: recovery keeps the file and the sequence it covers.
#[test]
fn campaign_log_baseline_below_a_snapshot_file_is_ignored() {
    let base = tmp_dir("clog-stale-baseline");
    let shard = base.join("shard-0");
    let campaign = CampaignId(3);
    let state = |s: &str| codec::to_bytes(s);
    {
        let mut log = CampaignLog::open(&shard).unwrap();
        log.register(campaign, FlushPolicy::EveryEvent, 0);
        for event in [b"e1", b"e2", b"e3"] {
            log.append_event(campaign, event).unwrap();
        }
        assert_eq!(log.write_snapshot(campaign, &state("at-3")).unwrap(), 3);
    }
    {
        // A later epoch whose log stood at sequence 1 for the campaign.
        let mut log = CampaignLog::open(&shard).unwrap();
        log.register(campaign, FlushPolicy::EveryEvent, 1);
        assert_eq!(log.append_baseline(campaign, &state("at-1")), 1);
        log.flush().unwrap();
    }
    let rec = recover_tree(&base).unwrap();
    let c = &rec.campaigns[&campaign];
    let snapshot = c.snapshot.as_ref().map(|(seq, p)| (*seq, p.to_vec()));
    assert_eq!(snapshot, Some((3, state("at-3"))));
    assert!(c.events.is_empty());
    assert_eq!(c.last_seq, 3);
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

        let recovered = replay(&wal_path);
        prop_assert!(recovered.len() <= payloads.len());
        for (entry, expected) in recovered.iter().zip(&payloads) {
            prop_assert_eq!(entry, expected);
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

        let recovered = replay(&wal_path);
        // Every recovered record must be one of the appended payloads, in
        // order. (A flip inside a length field can make replay read a
        // "record" spanning other records; the CRC check rejects it, so the
        // scan stops — it must never pass.)
        prop_assert!(recovered.len() <= payloads.len());
        for (entry, expected) in recovered.iter().zip(&payloads) {
            prop_assert_eq!(entry, expected);
        }
        fs::remove_dir_all(&dir).ok();
    }
}
