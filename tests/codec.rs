//! Property tests for the binary record codec: round-trip fidelity for
//! every `CampaignEvent` variant, campaign snapshots, and replication
//! frames; plus corruption refusal — flipping any single bit anywhere in a
//! framed record makes decoding fail instead of yielding a different value.
//!
//! There is one record format: a payload that does not start with the
//! magic byte — JSON included — is an error at both decode entry points.
//!
//! Value records stream (`Serialize::encode` / `Deserialize::decode`, no
//! `serde::Value` tree). The tree codec they replaced is included below as
//! the byte-level oracle — it renders and parses record bytes by its own
//! code, through `serde::to_value` / `serde::from_value`: streamed bytes
//! must equal its bytes for real campaign snapshots and every other record
//! type, and on any input — hostile ones included — the streamed decoder
//! must return the oracle's value or fail where it fails, at every entry
//! point that decodes a snapshot. Snapshot record bytes and JSON text are
//! also pinned by hash.

use docs_core::ti::{StoppingPolicy, StoppingRule, WorkerStats};
use docs_replication::{decode_frame, encode_frame};
use docs_service::{Client, DocsService, ServiceConfig};
use docs_storage::FlushPolicy;
use docs_system::{CampaignSnapshot, Docs, DocsConfig, WorkRequest};
use docs_types::codec::{CODEC_MAGIC, CODEC_VERSION, HEADER_LEN, KIND_VALUE};
use docs_types::{
    codec, crc32, Answer, CampaignEvent, CampaignId, CodecError, EventFrame, PublishedEvent,
    ReplicationFrame, SnapshotFrame, TaskBuilder, TaskId, WorkerId,
};
use proptest::prelude::*;
use serde::{Deserialize, Serialize, Value};

/// The tree codec: `serde::to_value` rendered whole, parsed whole, then
/// `serde::from_value`. It takes `CodecError`, `crc32`, the format
/// constants and this bound from this module.
#[path = "../crates/docs-types/src/codec/tree.rs"]
mod tree;

/// The codec's nesting bound for value records.
const MAX_DEPTH: usize = 96;

/// Strategy: one arbitrary answer (worker/task ids across the u32 range,
/// choices beyond binary).
fn arb_answer() -> impl Strategy<Value = Answer> {
    (0u32..u32::MAX, 0u32..10_000, 0usize..6)
        .prop_map(|(w, t, c)| Answer::new(WorkerId(w), TaskId(t), c))
}

/// Strategy: every `CampaignEvent` variant, selected uniformly, with
/// arbitrary contents (empty collections included).
fn arb_event() -> impl Strategy<Value = CampaignEvent> {
    (
        0usize..5,
        (0u32..u32::MAX, 0u32..1000, 0u32..1000),
        prop::collection::vec((0u32..10_000, 0usize..6), 0..8),
        prop::collection::vec(arb_answer(), 0..12),
    )
        .prop_map(|(variant, (a, b, c), golden, answers)| match variant {
            0 => CampaignEvent::Published(PublishedEvent {
                campaign: CampaignId(a),
                num_tasks: b,
                num_golden: c,
            }),
            1 => CampaignEvent::golden(
                WorkerId(a),
                golden
                    .into_iter()
                    .map(|(t, choice)| (TaskId(t), choice))
                    .collect(),
            ),
            2 => CampaignEvent::answer(Answer::new(
                WorkerId(a),
                TaskId(b % 10_000),
                (c % 6) as usize,
            )),
            3 => CampaignEvent::answer_batch(answers),
            _ => CampaignEvent::finished(),
        })
}

/// Strategy: a replication frame — either a snapshot (arbitrary payload
/// bytes, since the frame treats it as opaque) or a batch of event frames.
fn arb_frame() -> impl Strategy<Value = ReplicationFrame> {
    (
        any::<bool>(),
        (0u32..1000, 0u64..1 << 48),
        prop::collection::vec(any::<u8>(), 0..256),
        prop::collection::vec(((0u32..1000, 0u64..1 << 48), arb_event()), 0..6),
    )
        .prop_map(|(snapshot, (c, seq), payload, events)| {
            if snapshot {
                ReplicationFrame::Snapshot(SnapshotFrame {
                    campaign: CampaignId(c),
                    seq,
                    payload,
                })
            } else {
                ReplicationFrame::Events(
                    events
                        .into_iter()
                        .map(|((ec, eseq), event)| EventFrame {
                            campaign: CampaignId(ec),
                            seq: eseq,
                            payload: codec::encode_event(&event),
                        })
                        .collect(),
                )
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Binary encode → decode is the identity for every event variant, and
    /// the encoding is deterministic.
    #[test]
    fn every_event_variant_roundtrips_binary(event in arb_event()) {
        let bytes = codec::encode_event(&event);
        prop_assert_eq!(codec::encode_event(&event), bytes.clone());
        let decoded = codec::decode_event(&bytes).expect("decode own encoding");
        prop_assert_eq!(decoded, event);
    }

    /// Generic value records (the snapshot path) round-trip through the
    /// framing.
    #[test]
    fn value_records_roundtrip(
        pairs in prop::collection::vec((0u32..1000, arb_answer()), 0..8)
    ) {
        let bytes = codec::to_bytes(&pairs);
        let decoded: Vec<(u32, Answer)> = codec::from_bytes(&bytes).expect("decode value");
        prop_assert_eq!(&decoded, &pairs);
    }

    /// Replication frames round-trip through the wire encoding.
    #[test]
    fn every_frame_variant_roundtrips(frame in arb_frame()) {
        let record = encode_frame(&frame);
        let decoded = decode_frame(&record).expect("decode own frame");
        prop_assert_eq!(decoded, frame);
    }

    /// Flipping any single bit anywhere in a framed event record — header,
    /// length, CRC, or body — makes decoding *fail*; it never yields a
    /// value (same or different) from corrupted bytes.
    #[test]
    fn flipping_any_bit_of_an_event_record_is_refused(event in arb_event()) {
        let bytes = codec::encode_event(&event);
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[i] ^= 1 << bit;
                prop_assert!(
                    codec::decode_event(&corrupt).is_err(),
                    "flip byte {} bit {} of {} decoded",
                    i,
                    bit,
                    bytes.len()
                );
            }
        }
    }

    /// The same all-positions refusal for the replication wire format.
    #[test]
    fn flipping_any_bit_of_a_wire_frame_is_refused(frame in arb_frame()) {
        let record = encode_frame(&frame);
        for i in 0..record.len() {
            for bit in 0..8 {
                let mut corrupt = record.clone();
                corrupt[i] ^= 1 << bit;
                prop_assert!(
                    decode_frame(&corrupt).is_err(),
                    "flip byte {} bit {} of {} decoded",
                    i,
                    bit,
                    record.len()
                );
            }
        }
    }

    /// Truncating a binary record at any boundary is refused (torn write).
    #[test]
    fn truncated_records_are_refused(event in arb_event()) {
        let bytes = codec::encode_event(&event);
        for len in 0..bytes.len() {
            prop_assert!(
                codec::decode_event(&bytes[..len]).is_err(),
                "truncation to {len} of {} decoded",
                bytes.len()
            );
        }
    }
}

/// Anything that is not a record is an error at both entry points. 1 MB of
/// `[` used to reach a JSON fallback whose parser recurses without a depth
/// bound: the stack overflowed and the process aborted — from follower
/// apply, recovery replay, snapshot install and the parameter store alike.
#[test]
fn non_record_payloads_are_errors_at_both_entry_points() {
    let deep = vec![b'['; 1_000_000];
    let object = serde_json::to_vec(&CampaignEvent::finished()).expect("encode json");
    assert_eq!(object[0], b'{');
    for payload in [&deep[..], &object[..], &b""[..]] {
        assert!(codec::decode_event(payload).is_err());
        assert!(codec::from_bytes::<CampaignEvent>(payload).is_err());
    }
    let err = codec::decode_event(&deep).unwrap_err();
    assert!(err.to_string().contains("0x5B"), "{err}");
}

/// Strategy: one worker's statistics over 1–4 domains, including weights
/// and qualities at the ends of their ranges.
fn arb_stats() -> impl Strategy<Value = WorkerStats> {
    prop::collection::vec((0.0f64..1.0, 0.0f64..50.0), 1..5).prop_map(|pairs| WorkerStats {
        quality: pairs.iter().map(|p| p.0).collect(),
        weight: pairs.iter().map(|p| p.1).collect(),
    })
}

/// A campaign of 12 tasks with `choices` choices each over the Table 2 KB,
/// its optional config knobs all set (`options`) or all left `None`.
fn publish(choices: usize, options: bool) -> Docs {
    let subjects = ["Michael Jordan", "Kobe Bryant", "NBA"];
    let tasks = (0..12)
        .map(|i| {
            TaskBuilder::new(i, format!("Is {} great? ({i})", subjects[i % 3]))
                .with_choices((0..choices).map(|c| format!("choice {c}")))
                .with_ground_truth(i % choices)
                .build()
                .unwrap()
        })
        .collect();
    let config = DocsConfig {
        num_golden: 2,
        k_per_hit: 3,
        answers_per_task: 4,
        z: 5,
        task_shards: if options { 2 } else { 1 },
        stopping: options.then_some(StoppingPolicy {
            rule: StoppingRule::EntropyBelow(0.2),
            min_answers: 2,
            max_answers: 4,
        }),
        durable_flush: options.then_some(FlushPolicy::Batch(8)),
        ..Default::default()
    };
    Docs::publish(&docs_kb::table2_example_kb(), tasks, config).unwrap()
}

/// Drives `steps` worker requests round-robin over workers whose ids sort
/// differently as numbers and as strings (2 < 10, "10" < "2"); `finish`
/// then runs the campaign to its budget and finishes it.
fn drive(docs: &mut Docs, steps: usize, finish: bool) {
    let workers = [2u32, 10, 0, 7];
    let mut step = 0;
    let mut idle = 0;
    while (step < steps || finish) && idle < workers.len() {
        let w = WorkerId(workers[step % workers.len()]);
        step += 1;
        match docs.request_tasks(w) {
            WorkRequest::Golden(golden) => {
                let answers: Vec<_> = golden.iter().map(|&g| (g, g.index() % 2)).collect();
                docs.submit_golden(w, &answers).unwrap();
                idle = 0;
            }
            WorkRequest::Tasks(hit) => {
                for t in hit {
                    let choice = (t.index() + w.0 as usize) % docs.tasks()[t.index()].num_choices();
                    docs.submit_answer(Answer::new(w, t, choice)).unwrap();
                }
                idle = 0;
            }
            WorkRequest::Done => idle += 1,
        }
    }
    if finish {
        docs.finish().unwrap();
    }
}

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Golden bytes: the snapshot record and the snapshot's JSON text of two
/// driven and finished campaigns, and one scenario manifest's JSON, pinned
/// by hash and length. A change to the serde facade, its derive or the
/// codec must leave every one of them where it is.
#[test]
fn snapshot_and_json_bytes_are_pinned() {
    let mut actual = Vec::new();
    for (choices, options) in [(5, true), (2, false)] {
        let mut docs = publish(choices, options);
        drive(&mut docs, 24, true);
        let record = docs.snapshot_bytes();
        let json = serde_json::to_vec(&docs.snapshot()).expect("snapshots render as JSON");
        actual.push((fnv1a(&record), record.len()));
        actual.push((fnv1a(&json), json.len()));
    }
    let spec = serde_json::to_string(&docs_scenarios::registry().remove(0)).unwrap();
    actual.push((fnv1a(spec.as_bytes()), spec.len()));
    assert_eq!(
        actual,
        [
            (0xc4f0_a109_4ebc_b514, 4969), // ℓ = 5, options: snapshot record
            (0x77c3_09c0_071a_c1ed, 6932), // ℓ = 5, options: snapshot JSON
            (0xa862_e7f0_d078_a30f, 3892), // ℓ = 2: snapshot record
            (0x8a39_b05d_190f_0d24, 4629), // ℓ = 2: snapshot JSON
            (0xeeb3_7cfd_b228_ebe6, 250),  // registry()[0] as JSON
        ]
    );
}

/// A value record around an arbitrary body, CRC and length made valid.
fn value_record(body: &[u8]) -> Vec<u8> {
    let mut record = vec![CODEC_MAGIC, CODEC_VERSION, KIND_VALUE];
    record.extend_from_slice(&(body.len() as u32).to_le_bytes());
    record.extend_from_slice(&crc32(body).to_le_bytes());
    record.extend_from_slice(body);
    record
}

/// The streamed decode of `record` agrees with the oracle's: the same
/// value (compared through the oracle's canonical bytes) or both errors.
fn decodes_agree<T: Deserialize + Serialize>(record: &[u8]) -> bool {
    match (
        codec::from_bytes::<T>(record),
        tree::from_bytes::<T>(record),
    ) {
        (Ok(streamed), Ok(oracle)) => tree::to_bytes(&streamed) == tree::to_bytes(&oracle),
        (Err(_), Err(_)) => true,
        _ => false,
    }
}

/// Every snapshot entry point agrees with the oracle on `record`: the codec
/// (`from_bytes` + restore), `Docs::replay`, and a follower's
/// `install_snapshot`, which must answer and keep serving either way.
fn entry_points_agree(record: &[u8], follower: &docs_service::ServiceHandle, id: u32) {
    assert!(
        decodes_agree::<CampaignSnapshot>(record),
        "codec::from_bytes"
    );
    let oracle = tree::from_bytes::<CampaignSnapshot>(record)
        .map_err(|e| e.to_string())
        .and_then(|s| Docs::restore(s).map_err(|e| e.to_string()));
    let replayed = Docs::replay(CampaignId(id), record, &[] as &[Vec<u8>]);
    assert_eq!(replayed.is_ok(), oracle.is_ok(), "Docs::replay");
    if let (Ok((docs, _)), Ok(expected)) = (&replayed, &oracle) {
        assert_eq!(docs.snapshot_bytes(), expected.snapshot_bytes());
    }
    let installed = follower.replicate_install_snapshot(CampaignId(id), 1, record.to_vec());
    assert_eq!(installed.is_ok(), oracle.is_ok(), "install_snapshot");
    let state = follower.call(docs_service::Op::snapshot_state(CampaignId(id)));
    if let Ok(expected) = &oracle {
        assert_eq!(state.unwrap(), expected.snapshot_bytes(), "installed state");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The snapshot the service streams from a live campaign, fresh,
    /// mid-drive and finished, with ℓ ∈ {2, 5} and the optional config
    /// knobs set or not, is the oracle's record of `Docs::snapshot()` byte
    /// for byte, and both decoders read it back to the same state.
    #[test]
    fn campaign_snapshots_stream_the_oracle_bytes(
        wide in any::<bool>(),
        options in any::<bool>(),
        steps in 0usize..24,
        finish in any::<bool>(),
    ) {
        let mut docs = publish(if wide { 5 } else { 2 }, options);
        drive(&mut docs, steps, finish);
        let bytes = docs.snapshot_bytes();
        prop_assert_eq!(&bytes, &tree::to_bytes(&docs.snapshot()));
        prop_assert_eq!(&bytes, &codec::to_bytes(&docs.snapshot()));
        let streamed = codec::from_bytes::<CampaignSnapshot>(&bytes).expect("own snapshot");
        prop_assert_eq!(&tree::to_bytes(&streamed), &bytes);
        let restored = Docs::restore(streamed).expect("own snapshot restores");
        prop_assert_eq!(restored.snapshot_bytes(), bytes);
    }

    /// Every other value record — events, worker statistics, answer pairs —
    /// streams the oracle's bytes, and decodes to the oracle's value.
    #[test]
    fn value_records_stream_the_oracle_bytes(
        event in arb_event(),
        stats in arb_stats(),
        pairs in prop::collection::vec((0u32..1000, arb_answer()), 0..8),
    ) {
        for (streamed, oracle) in [
            (codec::to_bytes(&event), tree::to_bytes(&event)),
            (codec::to_bytes(&stats), tree::to_bytes(&stats)),
            (codec::to_bytes(&pairs), tree::to_bytes(&pairs)),
        ] {
            prop_assert_eq!(&streamed, &oracle);
        }
        prop_assert_eq!(codec::from_bytes::<CampaignEvent>(&codec::to_bytes(&event)).unwrap(), event);
        prop_assert_eq!(codec::from_bytes::<WorkerStats>(&codec::to_bytes(&stats)).unwrap(), stats);
    }

    /// Corrupted snapshot records — a flipped bit, with the frame left
    /// as it is or re-framed so the corruption reaches the body decoder, and
    /// truncated bodies — decode to the oracle's value or fail where it
    /// fails, through every snapshot entry point; none panics.
    #[test]
    fn corrupted_snapshots_decode_as_the_oracle_does(
        wide in any::<bool>(),
        flips in prop::collection::vec((any::<u64>(), 0u8..8), 6),
        cut in any::<u64>(),
    ) {
        let mut docs = publish(if wide { 5 } else { 2 }, wide);
        drive(&mut docs, 10, false);
        let record = docs.snapshot_bytes();
        let body = &record[HEADER_LEN..];
        let (service, follower) = DocsService::spawn_empty(ServiceConfig::follower(1)).unwrap();
        for (i, &(at, bit)) in flips.iter().enumerate() {
            let mut flipped = record.clone();
            flipped[at as usize % record.len()] ^= 1 << bit;
            entry_points_agree(&flipped, &follower, i as u32);
            let mut body = body.to_vec();
            let at = at as usize % body.len();
            body[at] ^= 1 << bit;
            entry_points_agree(&value_record(&body), &follower, 100 + i as u32);
        }
        let cut = cut as usize % body.len();
        entry_points_agree(&record[..HEADER_LEN + cut], &follower, 200);
        entry_points_agree(&value_record(&body[..cut]), &follower, 201);
        drop(follower);
        service.join_all();
    }
}

/// Hand-built snapshot records: duplicate, unknown and missing fields, 1 MB
/// of nested sequence tags (also under an unknown key, where the decoder
/// skips rather than reads) and a 2^60 element count. Every entry point
/// agrees with the oracle on each, and the follower keeps serving.
#[test]
fn hand_built_snapshot_records_decode_as_the_oracle_does() {
    let mut docs = publish(2, true);
    drive(&mut docs, 8, false);
    let Value::Map(top) = serde::to_value(&docs.snapshot()) else {
        panic!("snapshots serialize as a map");
    };
    let field = |name: &str| top.iter().find(|(k, _)| k == name).unwrap().1.clone();
    let with = |entries: Vec<(&str, Value)>| {
        tree::encode_tree(&Value::Map(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        ))
    };
    let all = |extra: Vec<(&'static str, Value)>| -> Vec<(&str, Value)> {
        let mut entries: Vec<(&str, Value)> =
            top.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
        entries.extend(extra);
        entries
    };
    let mut nested = vec![7u8; 1 << 20]; // VAL_SEQ, again and again
    let mut deep_unknown = vec![8u8, 1, 7, b'u', b'n', b'k', b'n', b'o', b'w', b'n'];
    deep_unknown.append(&mut nested.clone());
    let mut huge_count = vec![8u8, 1, 10];
    huge_count.extend_from_slice(b"golden_ids");
    huge_count.extend_from_slice(&[7, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10]);
    let mut missing_stopping = field("config");
    if let Value::Map(config) = &mut missing_stopping {
        config.retain(|(k, _)| k != "stopping");
    }
    let mut missing_z = field("engine");
    if let Value::Map(engine) = &mut missing_z {
        engine.retain(|(k, _)| k != "z");
    }
    let records = vec![
        // The first of two `config`s wins, whatever the second holds.
        with(all(vec![("config", Value::Null)])),
        with(
            std::iter::once(("config", Value::Str("first wins".into())))
                .chain(all(vec![]))
                .collect(),
        ),
        // Unknown keys are skipped, however deep.
        with(all(vec![("unknown", Value::Seq(vec![Value::Map(vec![])]))])),
        // A missing Option reads as None; a missing number is an error.
        with(vec![
            ("engine", field("engine")),
            ("golden_ids", field("golden_ids")),
            ("seen_workers", field("seen_workers")),
            ("config", missing_stopping),
        ]),
        with(vec![
            ("engine", missing_z),
            ("golden_ids", field("golden_ids")),
            ("seen_workers", field("seen_workers")),
            ("config", field("config")),
        ]),
        with(vec![("golden_ids", field("golden_ids"))]),
        value_record(&nested),
        value_record(&deep_unknown),
        value_record(&huge_count),
    ];
    nested.clear();
    let (service, follower) = DocsService::spawn_empty(ServiceConfig::follower(1)).unwrap();
    for (i, record) in records.iter().enumerate() {
        entry_points_agree(record, &follower, i as u32);
    }
    assert!(
        codec::from_bytes::<CampaignSnapshot>(&records[0]).is_ok(),
        "a duplicate field does not make a snapshot unreadable"
    );
    assert!(codec::from_bytes::<CampaignSnapshot>(&records[4]).is_err());
    drop(follower);
    service.join_all();
}
