//! Property tests for the binary record codec: round-trip fidelity for
//! every `CampaignEvent` variant, campaign snapshots, and replication
//! frames; plus corruption refusal — flipping any single bit anywhere in a
//! framed record makes decoding fail instead of yielding a different value.
//!
//! There is one record format: a payload that does not start with the
//! magic byte — JSON included — is an error at both decode entry points.

use docs_replication::{decode_frame, encode_frame};
use docs_types::{
    codec, Answer, CampaignEvent, CampaignId, EventFrame, PublishedEvent, ReplicationFrame,
    SnapshotFrame, TaskId, WorkerId,
};
use proptest::prelude::*;

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
