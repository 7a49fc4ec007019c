//! The byte encoding of replication frames: length-prefixed, CRC-checked
//! records in the same style as the on-disk WAL.
//!
//! Wire layout of one record:
//!
//! ```text
//! [frame_len: u32 LE][crc32(frame): u32 LE][frame bytes]
//! frame bytes:
//!   0x01 (snapshot)  [campaign u32][seq u64][payload_len u32][payload]
//!   0x02 (events)    [count u32] then per event:
//!                    [campaign u32][seq u64][payload_len u32][payload]
//! ```
//!
//! The payloads are the exact bytes the primary's WAL/snapshot files hold,
//! so a follower applies — bit for bit — what the primary's own recovery
//! would replay. Decoding verifies the CRC before anything is
//! interpreted: a flipped bit anywhere in a frame is a loud
//! [`Error::Storage`], never a silently diverged replica.

use bytes::Buf;
use docs_types::{crc32, CampaignId, Error, EventFrame, ReplicationFrame, Result, SnapshotFrame};

const KIND_SNAPSHOT: u8 = 0x01;
const KIND_EVENTS: u8 = 0x02;

fn put_tagged(buf: &mut Vec<u8>, campaign: CampaignId, seq: u64, payload: &[u8]) {
    buf.extend_from_slice(&campaign.0.to_le_bytes());
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
}

fn get_tagged(cursor: &mut &[u8]) -> Result<(CampaignId, u64, Vec<u8>)> {
    if cursor.len() < 16 {
        return Err(Error::Storage("truncated replication frame body".into()));
    }
    let campaign = CampaignId(cursor.get_u32_le());
    let seq = cursor.get_u64_le();
    let len = cursor.get_u32_le() as usize;
    if cursor.len() < len {
        return Err(Error::Storage("truncated replication frame payload".into()));
    }
    let payload = cursor[..len].to_vec();
    cursor.advance(len);
    Ok((campaign, seq, payload))
}

/// Encodes one frame into `record`, **reusing its allocation**: the buffer
/// is cleared, not reallocated, so a caller encoding frames in a loop (the
/// hub's pump) settles into zero encode allocations once the buffer has
/// grown to the stream's largest frame. The length/CRC header is written
/// as a placeholder and back-patched after the body, keeping the record a
/// single contiguous write.
pub fn encode_frame_into(frame: &ReplicationFrame, record: &mut Vec<u8>) {
    record.clear();
    record.extend_from_slice(&[0u8; 8]);
    match frame {
        ReplicationFrame::Snapshot(s) => {
            record.push(KIND_SNAPSHOT);
            put_tagged(record, s.campaign, s.seq, &s.payload);
        }
        ReplicationFrame::Events(events) => {
            record.push(KIND_EVENTS);
            record.extend_from_slice(&(events.len() as u32).to_le_bytes());
            for e in events {
                put_tagged(record, e.campaign, e.seq, &e.payload);
            }
        }
    }
    let body_len = (record.len() - 8) as u32;
    let crc = crc32(&record[8..]);
    record[..4].copy_from_slice(&body_len.to_le_bytes());
    record[4..8].copy_from_slice(&crc.to_le_bytes());
}

/// Encodes one frame into its CRC-stamped wire record (a fresh allocation;
/// hot paths use [`encode_frame_into`] with a retained buffer).
pub fn encode_frame(frame: &ReplicationFrame) -> Vec<u8> {
    let mut record = Vec::new();
    encode_frame_into(frame, &mut record);
    record
}

/// Decodes one wire record back into its frame, verifying length and CRC
/// first — a corrupted record is refused before any field is trusted.
pub fn decode_frame(record: &[u8]) -> Result<ReplicationFrame> {
    if record.len() < 8 {
        return Err(Error::Storage(format!(
            "replication record truncated ({} bytes)",
            record.len()
        )));
    }
    let mut header = &record[..8];
    let len = header.get_u32_le() as usize;
    let crc = header.get_u32_le();
    if record.len() != 8 + len {
        return Err(Error::Storage(format!(
            "replication record length mismatch: header promises {len} frame \
             bytes, record carries {}",
            record.len() - 8
        )));
    }
    let body = &record[8..];
    if crc32(body) != crc {
        return Err(Error::Storage(
            "replication frame failed its CRC check".into(),
        ));
    }
    // From here every read is bounds-checked by hand: a record that
    // passes the CRC but carries a malformed body (e.g. a zero-length
    // frame) must still be a clean error, never a panic in the applier.
    let mut cursor = body;
    if cursor.is_empty() {
        return Err(Error::Storage("empty replication frame body".into()));
    }
    let kind = cursor.get_u8();
    match kind {
        KIND_SNAPSHOT => {
            let (campaign, seq, payload) = get_tagged(&mut cursor)?;
            Ok(ReplicationFrame::Snapshot(SnapshotFrame {
                campaign,
                seq,
                payload,
            }))
        }
        KIND_EVENTS => {
            if cursor.len() < 4 {
                return Err(Error::Storage("truncated replication frame body".into()));
            }
            let count = cursor.get_u32_le() as usize;
            // Every event needs at least its 16-byte tag, so a count the
            // remaining bytes cannot possibly satisfy is refused *before*
            // it sizes an allocation.
            if count > cursor.len() / 16 {
                return Err(Error::Storage(format!(
                    "replication frame claims {count} events in {} bytes",
                    cursor.len()
                )));
            }
            let mut events = Vec::with_capacity(count);
            for _ in 0..count {
                let (campaign, seq, payload) = get_tagged(&mut cursor)?;
                events.push(EventFrame {
                    campaign,
                    seq,
                    payload,
                });
            }
            Ok(ReplicationFrame::Events(events))
        }
        other => Err(Error::Storage(format!(
            "unknown replication frame kind 0x{other:02x}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames() -> Vec<ReplicationFrame> {
        vec![
            ReplicationFrame::Snapshot(SnapshotFrame {
                campaign: CampaignId(7),
                seq: 42,
                payload: b"{\"engine\":{}}".to_vec(),
            }),
            ReplicationFrame::Events(vec![
                EventFrame {
                    campaign: CampaignId(7),
                    seq: 43,
                    payload: b"{\"AnswerSubmitted\":{}}".to_vec(),
                },
                EventFrame {
                    campaign: CampaignId(9),
                    seq: 1,
                    payload: Vec::new(),
                },
            ]),
            ReplicationFrame::Events(Vec::new()),
        ]
    }

    #[test]
    fn every_frame_roundtrips_through_the_wire_encoding() {
        for frame in frames() {
            let record = encode_frame(&frame);
            assert_eq!(decode_frame(&record).unwrap(), frame, "{}", frame.kind());
        }
    }

    #[test]
    fn encode_into_reuses_the_buffer_and_matches_the_one_shot_encoding() {
        let mut scratch = Vec::new();
        for frame in frames() {
            encode_frame_into(&frame, &mut scratch);
            assert_eq!(scratch, encode_frame(&frame), "{}", frame.kind());
            assert_eq!(decode_frame(&scratch).unwrap(), frame);
        }
        // Once grown, encoding a smaller frame reuses the allocation.
        let cap = scratch.capacity();
        encode_frame_into(&frames()[2], &mut scratch);
        assert_eq!(scratch.capacity(), cap, "no reallocation on reuse");
    }

    #[test]
    fn a_flipped_bit_anywhere_fails_the_crc_loudly() {
        let record = encode_frame(&frames()[1]);
        // Flip one bit at every body position: each must be caught.
        for i in 8..record.len() {
            let mut bad = record.clone();
            bad[i] ^= 0x01;
            let err = decode_frame(&bad).unwrap_err();
            assert!(err.to_string().contains("CRC"), "byte {i}: {err}");
        }
    }

    /// Builds a record whose CRC is valid for an arbitrary (possibly
    /// malformed) body — the adversarial decode inputs.
    fn record_of(body: &[u8]) -> Vec<u8> {
        let mut rec = Vec::new();
        rec.extend_from_slice(&(body.len() as u32).to_le_bytes());
        rec.extend_from_slice(&crc32(body).to_le_bytes());
        rec.extend_from_slice(body);
        rec
    }

    #[test]
    fn truncation_and_unknown_kinds_are_clean_errors() {
        let record = encode_frame(&frames()[0]);
        assert!(decode_frame(&record[..4]).is_err(), "short header");
        assert!(
            decode_frame(&record[..record.len() - 1]).is_err(),
            "short body"
        );
        // Unknown kind: a record with a bogus kind byte.
        let mut body = vec![0x7Fu8];
        body.extend_from_slice(&[0; 16]);
        let err = decode_frame(&record_of(&body)).unwrap_err();
        assert!(err.to_string().contains("unknown"), "{err}");
    }

    /// CRC-valid but malformed bodies must decode to errors, never panic
    /// (a panicking decode would kill the applier thread).
    #[test]
    fn crc_valid_malformed_bodies_are_errors_not_panics() {
        // Empty body: length and CRC both check out.
        let err = decode_frame(&record_of(&[])).unwrap_err();
        assert!(err.to_string().contains("empty"), "{err}");
        // Snapshot kind with a truncated tag.
        let err = decode_frame(&record_of(&[0x01, 9, 9])).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
        // Events kind claiming u32::MAX events in a 4-byte body: refused
        // before it can size an allocation.
        let mut body = vec![0x02u8];
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_frame(&record_of(&body)).unwrap_err();
        assert!(err.to_string().contains("claims"), "{err}");
        // Events kind whose one event promises more payload than exists.
        let mut body = vec![0x02u8];
        body.extend_from_slice(&1u32.to_le_bytes());
        body.extend_from_slice(&7u32.to_le_bytes()); // campaign
        body.extend_from_slice(&1u64.to_le_bytes()); // seq
        body.extend_from_slice(&5u32.to_le_bytes()); // payload len, 0 present
        let err = decode_frame(&record_of(&body)).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
    }
}
