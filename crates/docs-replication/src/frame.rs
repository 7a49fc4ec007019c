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
//!
//! Decoding is **borrowed**: [`decode_frame`] checks the CRC, then walks
//! every tag once to check each length against the bytes that remain, and
//! returns a [`FrameView`] whose payloads are slices of the record itself.
//! No payload is copied and the decode allocates nothing, however many
//! events the frame carries; iterating an [`EventsView`] walks the checked
//! body again. The owned [`ReplicationFrame`] stays what the shard feed
//! carries and what [`encode_frame`] and
//! [`bootstrap_frames`](crate::bootstrap_frames) speak.

use bytes::Buf;
use docs_types::{crc32, CampaignId, Error, EventFrame, ReplicationFrame, Result, SnapshotFrame};
use std::fmt;

const KIND_SNAPSHOT: u8 = 0x01;
const KIND_EVENTS: u8 = 0x02;

/// One tagged payload of a decoded frame — a snapshot, or one event —
/// borrowed from the record bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tagged<'a> {
    /// The campaign the payload belongs to.
    pub campaign: CampaignId,
    /// The per-campaign sequence number the primary's log assigned (for a
    /// snapshot: the sequence it covers).
    pub seq: u64,
    /// The WAL record payload (an event) or snapshot record, as shipped.
    pub payload: &'a [u8],
}

impl<'a> From<&'a EventFrame> for Tagged<'a> {
    fn from(e: &'a EventFrame) -> Self {
        Tagged {
            campaign: e.campaign,
            seq: e.seq,
            payload: &e.payload,
        }
    }
}

impl<'a> From<&'a SnapshotFrame> for Tagged<'a> {
    fn from(s: &'a SnapshotFrame) -> Self {
        Tagged {
            campaign: s.campaign,
            seq: s.seq,
            payload: &s.payload,
        }
    }
}

/// A decoded wire record, borrowing every payload from the record.
/// Compares equal to the [`ReplicationFrame`] it was encoded from.
#[derive(Debug, Clone, Copy)]
pub enum FrameView<'a> {
    /// A campaign snapshot.
    Snapshot(Tagged<'a>),
    /// A batch of events, in log order.
    Events(EventsView<'a>),
}

/// The events of a decoded frame: the bounds-checked body and its event
/// count. Iteration walks the body again and allocates nothing.
#[derive(Clone, Copy)]
pub struct EventsView<'a> {
    count: usize,
    body: &'a [u8],
}

impl<'a> EventsView<'a> {
    /// Events in the frame.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True for a frame carrying no event.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The events, in frame order.
    pub fn iter(&self) -> impl Iterator<Item = Tagged<'a>> + 'a {
        let mut cursor = self.body;
        // `decode_frame` walked every tag of this body before handing the
        // view out, so no tag can be short.
        (0..self.count).map_while(move |_| get_tagged(&mut cursor).ok())
    }
}

impl fmt::Debug for EventsView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq<ReplicationFrame> for FrameView<'_> {
    fn eq(&self, other: &ReplicationFrame) -> bool {
        match (self, other) {
            (FrameView::Snapshot(view), ReplicationFrame::Snapshot(owned)) => {
                *view == Tagged::from(owned)
            }
            (FrameView::Events(view), ReplicationFrame::Events(owned)) => {
                view.iter().eq(owned.iter().map(Tagged::from))
            }
            _ => false,
        }
    }
}

fn put_tagged(buf: &mut Vec<u8>, campaign: CampaignId, seq: u64, payload: &[u8]) {
    buf.extend_from_slice(&campaign.0.to_le_bytes());
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
}

fn get_tagged<'a>(cursor: &mut &'a [u8]) -> Result<Tagged<'a>> {
    if cursor.len() < 16 {
        return Err(Error::Storage("truncated replication frame body".into()));
    }
    let campaign = CampaignId(cursor.get_u32_le());
    let seq = cursor.get_u64_le();
    let len = cursor.get_u32_le() as usize;
    if cursor.len() < len {
        return Err(Error::Storage("truncated replication frame payload".into()));
    }
    let (payload, rest) = cursor.split_at(len);
    *cursor = rest;
    Ok(Tagged {
        campaign,
        seq,
        payload,
    })
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
/// hot paths use `encode_frame_into` with a retained buffer).
pub fn encode_frame(frame: &ReplicationFrame) -> Vec<u8> {
    let mut record = Vec::new();
    encode_frame_into(frame, &mut record);
    record
}

/// Decodes one wire record into a borrowed [`FrameView`], verifying length
/// and CRC first — a corrupted record is refused before any field is
/// trusted — then every tag's bounds, so iterating the view cannot fail.
pub fn decode_frame(record: &[u8]) -> Result<FrameView<'_>> {
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
        KIND_SNAPSHOT => Ok(FrameView::Snapshot(get_tagged(&mut cursor)?)),
        KIND_EVENTS => {
            if cursor.len() < 4 {
                return Err(Error::Storage("truncated replication frame body".into()));
            }
            let count = cursor.get_u32_le() as usize;
            // Every event needs at least its 16-byte tag, so a count the
            // remaining bytes cannot possibly satisfy is refused before
            // the walk.
            if count > cursor.len() / 16 {
                return Err(Error::Storage(format!(
                    "replication frame claims {count} events in {} bytes",
                    cursor.len()
                )));
            }
            let events = EventsView {
                count,
                body: cursor,
            };
            for _ in 0..count {
                get_tagged(&mut cursor)?;
            }
            Ok(FrameView::Events(events))
        }
        other => Err(Error::Storage(format!(
            "unknown replication frame kind 0x{other:02x}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use docs_types::{codec, Answer, AnswerSubmittedEvent, CampaignEvent, TaskId, WorkerId};

    /// Payloads as the primary ships them: codec records (a value record
    /// standing in for the snapshot, real event records for the events).
    fn frames() -> Vec<ReplicationFrame> {
        let answer = Answer::new(WorkerId(3), TaskId(5), 1);
        vec![
            ReplicationFrame::Snapshot(SnapshotFrame {
                campaign: CampaignId(7),
                seq: 42,
                payload: codec::to_bytes(&[(5u32, answer)][..]),
            }),
            ReplicationFrame::Events(vec![
                EventFrame {
                    campaign: CampaignId(7),
                    seq: 43,
                    payload: codec::encode_event(&CampaignEvent::AnswerSubmitted(
                        AnswerSubmittedEvent { answer },
                    )),
                },
                EventFrame {
                    campaign: CampaignId(7),
                    seq: 44,
                    payload: codec::encode_event(&CampaignEvent::finished()),
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
    fn decoded_payloads_are_slices_of_the_record() {
        let record = encode_frame(&frames()[1]);
        let FrameView::Events(events) = decode_frame(&record).unwrap() else {
            panic!("an events record decodes to an events view");
        };
        assert_eq!(events.len(), 3);
        let within = record.as_ptr_range();
        for e in events.iter().filter(|e| !e.payload.is_empty()) {
            let payload = e.payload.as_ptr_range();
            assert!(within.start <= payload.start && payload.end <= within.end);
        }
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
