//! Compact, versioned, CRC-framed binary record format for the durable and
//! replication hot paths.
//!
//! One record layout is shared by WAL event payloads, campaign snapshots,
//! and replication frame bodies:
//!
//! ```text
//! +------+---------+------+------------------+----------------+--------+
//! | 0xDC | version | kind | body_len: u32 LE | crc32: u32 LE  |  body  |
//! +------+---------+------+------------------+----------------+--------+
//!   magic   1 byte  1 byte      4 bytes           4 bytes       body_len
//! ```
//!
//! * **Magic + version gate.** This is the only record format: a payload
//!   whose first byte is not `0xDC` is an error naming that byte (there is
//!   no text fallback). The version byte must match exactly — a record
//!   from a future format version is a clean error, not a misparse.
//! * **CRC framing.** `crc32(body)` plus an exact length check refuse any
//!   single flipped bit anywhere in the record (header fields included).
//! * **Two body kinds.** [`KIND_EVENT`] is a hand-rolled layout for
//!   [`CampaignEvent`] — variant tag + LEB128 varints, tens of bytes per
//!   event versus hundreds for JSON. [`KIND_VALUE`] is a tagged binary
//!   rendering of the self-describing serde `Value` tree, used for
//!   snapshots and any other `Serialize` type; floats keep their exact
//!   bits, so replay determinism is preserved.
//!
//! Decoding is total: malformed input of any shape returns
//! [`CodecError`], never a panic.

use crate::crc::crc32;
use crate::{
    Answer, AnswerBatchSubmittedEvent, AnswerSubmittedEvent, CampaignEvent, CampaignId,
    FinishedEvent, GoldenSubmittedEvent, PublishedEvent, TaskId, WorkerId,
};
use bytes::BufMut;
// The `*_into` encoders take a caller-owned `BytesMut`; re-exported so
// callers don't need their own dependency on the vendored bytes crate.
pub use bytes::BytesMut;
use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// First byte of every record.
pub const CODEC_MAGIC: u8 = 0xDC;

/// Current format version. Decoders require an exact match.
pub const CODEC_VERSION: u8 = 1;

/// Body kind: hand-rolled [`CampaignEvent`] layout.
pub const KIND_EVENT: u8 = 0x01;

/// Body kind: tagged binary serde `Value` tree (snapshots, generic types).
pub const KIND_VALUE: u8 = 0x02;

/// Bytes before the body: magic, version, kind, body length, body CRC.
pub const HEADER_LEN: usize = 11;

/// Nesting bound for [`KIND_VALUE`] decoding — generous for every snapshot
/// shape in the workspace while keeping hostile input from overflowing the
/// stack.
const MAX_DEPTH: usize = 96;

/// Decode/encode failure, always a clean error with context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

impl From<CodecError> for crate::Error {
    fn from(e: CodecError) -> Self {
        crate::Error::Storage(e.to_string())
    }
}

fn err<T>(msg: impl Into<String>) -> Result<T, CodecError> {
    Err(CodecError(msg.into()))
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Wraps an already-encoded `body` in the record header, appending to `buf`.
fn frame_into(kind: u8, body: &[u8], buf: &mut BytesMut) {
    buf.put_u8(CODEC_MAGIC);
    buf.put_u8(CODEC_VERSION);
    buf.put_u8(kind);
    buf.put_u32_le(body.len() as u32);
    buf.put_u32_le(crc32(body));
    buf.put_slice(body);
}

/// Verifies magic / version / kind / length / CRC and returns the body.
fn unframe(expected_kind: u8, bytes: &[u8]) -> Result<&[u8], CodecError> {
    if let Some(first) = bytes.first().filter(|&&b| b != CODEC_MAGIC) {
        return err(format!(
            "first byte 0x{first:02X} is not the record magic 0x{CODEC_MAGIC:02X}"
        ));
    }
    if bytes.len() < HEADER_LEN {
        return err(format!("record truncated at {} bytes", bytes.len()));
    }
    if bytes[1] != CODEC_VERSION {
        return err(format!(
            "format version {} not supported (this build reads version {})",
            bytes[1], CODEC_VERSION
        ));
    }
    if bytes[2] != expected_kind {
        return err(format!(
            "record kind 0x{:02X}, expected 0x{expected_kind:02X}",
            bytes[2]
        ));
    }
    let body_len = u32::from_le_bytes(bytes[3..7].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_le_bytes(bytes[7..11].try_into().expect("4 bytes"));
    let body = &bytes[HEADER_LEN..];
    if body.len() != body_len {
        return err(format!(
            "body length {} does not match header ({body_len})",
            body.len()
        ));
    }
    if crc32(body) != crc {
        return err("body CRC mismatch");
    }
    Ok(body)
}

// ---------------------------------------------------------------------------
// Varints + bounds-checked cursor
// ---------------------------------------------------------------------------

fn put_varint(buf: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Bounds-checked reader over a record body; every failure is an error,
/// never a panic.
struct Cursor<'a> {
    data: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn new(data: &'a [u8]) -> Self {
        Cursor { data }
    }

    fn remaining(&self) -> usize {
        self.data.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.data.len() < n {
            return err(format!(
                "need {n} bytes, {} remain in record body",
                self.data.len()
            ));
        }
        let (head, rest) = self.data.split_at(n);
        self.data = rest;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn varint(&mut self) -> Result<u64, CodecError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            v |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        err("varint longer than 10 bytes")
    }

    fn varint_u32(&mut self) -> Result<u32, CodecError> {
        let v = self.varint()?;
        u32::try_from(v).map_err(|_| CodecError(format!("{v} out of range for u32 field")))
    }

    fn varint_usize(&mut self) -> Result<usize, CodecError> {
        let v = self.varint()?;
        usize::try_from(v).map_err(|_| CodecError(format!("{v} out of range for usize field")))
    }

    /// A declared element count, refused when it could not possibly fit in
    /// the remaining bytes (each element costs at least one byte) — hostile
    /// counts must not drive allocation.
    fn count(&mut self) -> Result<usize, CodecError> {
        let n = self.varint_usize()?;
        if n > self.remaining() {
            return err(format!(
                "count {n} exceeds remaining {} bytes",
                self.remaining()
            ));
        }
        Ok(n)
    }

    fn f64(&mut self) -> Result<f64, CodecError> {
        let raw = self.take(8)?;
        Ok(f64::from_le_bytes(raw.try_into().expect("8 bytes")))
    }

    fn finish(self) -> Result<(), CodecError> {
        if self.data.is_empty() {
            Ok(())
        } else {
            err(format!(
                "{} trailing bytes after record body",
                self.data.len()
            ))
        }
    }
}

// ---------------------------------------------------------------------------
// CampaignEvent bodies (KIND_EVENT)
// ---------------------------------------------------------------------------

const EV_PUBLISHED: u8 = 1;
const EV_GOLDEN: u8 = 2;
const EV_ANSWER: u8 = 3;
const EV_ANSWER_BATCH: u8 = 4;
const EV_FINISHED: u8 = 5;

fn put_answer(buf: &mut BytesMut, answer: &Answer) {
    put_varint(buf, u64::from(answer.task.0));
    put_varint(buf, u64::from(answer.worker.0));
    put_varint(buf, answer.choice as u64);
}

fn get_answer(cursor: &mut Cursor<'_>) -> Result<Answer, CodecError> {
    let task = TaskId(cursor.varint_u32()?);
    let worker = WorkerId(cursor.varint_u32()?);
    let choice = cursor.varint_usize()?;
    Ok(Answer::new(worker, task, choice))
}

fn encode_event_body(event: &CampaignEvent, buf: &mut BytesMut) {
    match event {
        CampaignEvent::Published(e) => {
            buf.put_u8(EV_PUBLISHED);
            put_varint(buf, u64::from(e.campaign.0));
            put_varint(buf, u64::from(e.num_tasks));
            put_varint(buf, u64::from(e.num_golden));
        }
        CampaignEvent::GoldenSubmitted(e) => {
            buf.put_u8(EV_GOLDEN);
            put_varint(buf, u64::from(e.worker.0));
            put_varint(buf, e.answers.len() as u64);
            for (task, choice) in &e.answers {
                put_varint(buf, u64::from(task.0));
                put_varint(buf, *choice as u64);
            }
        }
        CampaignEvent::AnswerSubmitted(e) => {
            buf.put_u8(EV_ANSWER);
            put_answer(buf, &e.answer);
        }
        CampaignEvent::AnswerBatchSubmitted(e) => {
            buf.put_u8(EV_ANSWER_BATCH);
            put_varint(buf, e.answers.len() as u64);
            for answer in &e.answers {
                put_answer(buf, answer);
            }
        }
        CampaignEvent::Finished(FinishedEvent {}) => {
            buf.put_u8(EV_FINISHED);
        }
    }
}

fn decode_event_body(body: &[u8]) -> Result<CampaignEvent, CodecError> {
    let mut cursor = Cursor::new(body);
    let event = match cursor.u8()? {
        EV_PUBLISHED => CampaignEvent::Published(PublishedEvent {
            campaign: CampaignId(cursor.varint_u32()?),
            num_tasks: cursor.varint_u32()?,
            num_golden: cursor.varint_u32()?,
        }),
        EV_GOLDEN => {
            let worker = WorkerId(cursor.varint_u32()?);
            let n = cursor.count()?;
            let mut answers = Vec::with_capacity(n);
            for _ in 0..n {
                let task = TaskId(cursor.varint_u32()?);
                let choice = cursor.varint_usize()?;
                answers.push((task, choice));
            }
            CampaignEvent::GoldenSubmitted(GoldenSubmittedEvent { worker, answers })
        }
        EV_ANSWER => CampaignEvent::AnswerSubmitted(AnswerSubmittedEvent {
            answer: get_answer(&mut cursor)?,
        }),
        EV_ANSWER_BATCH => {
            let n = cursor.count()?;
            let mut answers = Vec::with_capacity(n);
            for _ in 0..n {
                answers.push(get_answer(&mut cursor)?);
            }
            CampaignEvent::AnswerBatchSubmitted(AnswerBatchSubmittedEvent { answers })
        }
        EV_FINISHED => CampaignEvent::Finished(FinishedEvent {}),
        other => return err(format!("unknown event variant tag {other}")),
    };
    cursor.finish()?;
    Ok(event)
}

/// Appends one framed binary event record to `buf`.
pub fn encode_event_into(event: &CampaignEvent, buf: &mut BytesMut) {
    let mut body = BytesMut::with_capacity(64);
    encode_event_body(event, &mut body);
    frame_into(KIND_EVENT, &body, buf);
}

/// Encodes one event as a fresh framed record.
pub fn encode_event(event: &CampaignEvent) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(64 + HEADER_LEN);
    encode_event_into(event, &mut buf);
    buf.to_vec()
}

/// Verifies and decodes one framed event record.
pub fn decode_event(bytes: &[u8]) -> Result<CampaignEvent, CodecError> {
    decode_event_body(unframe(KIND_EVENT, bytes)?)
}

// ---------------------------------------------------------------------------
// Value bodies (KIND_VALUE): snapshots and generic Serialize types
// ---------------------------------------------------------------------------

const VAL_NULL: u8 = 0;
const VAL_FALSE: u8 = 1;
const VAL_TRUE: u8 = 2;
const VAL_UINT: u8 = 3;
const VAL_INT: u8 = 4;
const VAL_FLOAT: u8 = 5;
const VAL_STR: u8 = 6;
const VAL_SEQ: u8 = 7;
const VAL_MAP: u8 = 8;

fn put_str(buf: &mut BytesMut, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.put_slice(s.as_bytes());
}

fn encode_value_body(value: &Value, buf: &mut BytesMut) {
    match value {
        Value::Null => buf.put_u8(VAL_NULL),
        Value::Bool(false) => buf.put_u8(VAL_FALSE),
        Value::Bool(true) => buf.put_u8(VAL_TRUE),
        Value::UInt(v) => {
            buf.put_u8(VAL_UINT);
            put_varint(buf, *v);
        }
        Value::Int(v) => {
            // ZigZag keeps small negatives small.
            buf.put_u8(VAL_INT);
            put_varint(buf, ((*v << 1) ^ (*v >> 63)) as u64);
        }
        Value::Float(v) => {
            // Exact bit pattern: byte-identical replay depends on floats
            // surviving the snapshot round-trip unchanged.
            buf.put_u8(VAL_FLOAT);
            buf.put_slice(&v.to_le_bytes());
        }
        Value::Str(s) => {
            buf.put_u8(VAL_STR);
            put_str(buf, s);
        }
        Value::Seq(items) => {
            buf.put_u8(VAL_SEQ);
            put_varint(buf, items.len() as u64);
            for item in items {
                encode_value_body(item, buf);
            }
        }
        Value::Map(entries) => {
            buf.put_u8(VAL_MAP);
            put_varint(buf, entries.len() as u64);
            for (key, val) in entries {
                put_str(buf, key);
                encode_value_body(val, buf);
            }
        }
    }
}

fn decode_value_body(cursor: &mut Cursor<'_>, depth: usize) -> Result<Value, CodecError> {
    if depth > MAX_DEPTH {
        return err(format!("value nesting deeper than {MAX_DEPTH}"));
    }
    let value = match cursor.u8()? {
        VAL_NULL => Value::Null,
        VAL_FALSE => Value::Bool(false),
        VAL_TRUE => Value::Bool(true),
        VAL_UINT => Value::UInt(cursor.varint()?),
        VAL_INT => {
            let z = cursor.varint()?;
            Value::Int(((z >> 1) as i64) ^ -((z & 1) as i64))
        }
        VAL_FLOAT => Value::Float(cursor.f64()?),
        VAL_STR => {
            let len = cursor.count()?;
            let raw = cursor.take(len)?;
            let s = std::str::from_utf8(raw)
                .map_err(|_| CodecError("string is not valid UTF-8".into()))?;
            Value::Str(s.to_owned())
        }
        VAL_SEQ => {
            let n = cursor.count()?;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(decode_value_body(cursor, depth + 1)?);
            }
            Value::Seq(items)
        }
        VAL_MAP => {
            let n = cursor.count()?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                let klen = cursor.count()?;
                let raw = cursor.take(klen)?;
                let key = std::str::from_utf8(raw)
                    .map_err(|_| CodecError("map key is not valid UTF-8".into()))?
                    .to_owned();
                entries.push((key, decode_value_body(cursor, depth + 1)?));
            }
            Value::Map(entries)
        }
        other => return err(format!("unknown value tag {other}")),
    };
    Ok(value)
}

/// Appends one framed binary record of any `Serialize` type to `buf`.
pub fn encode_value_into<T: Serialize + ?Sized>(value: &T, buf: &mut BytesMut) {
    let tree = value.to_value();
    let mut body = BytesMut::with_capacity(256);
    encode_value_body(&tree, &mut body);
    frame_into(KIND_VALUE, &body, buf);
}

/// Encodes any `Serialize` type (snapshots, frames, …) as a framed binary
/// record. The rendering is deterministic: the serde facade sorts map keys.
pub fn to_bytes<T: Serialize + ?Sized>(value: &T) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(256 + HEADER_LEN);
    encode_value_into(value, &mut buf);
    buf.to_vec()
}

/// Verifies and decodes one framed value record into `T`.
pub fn from_bytes<T: Deserialize>(bytes: &[u8]) -> Result<T, CodecError> {
    let body = unframe(KIND_VALUE, bytes)?;
    let mut cursor = Cursor::new(body);
    let tree = decode_value_body(&mut cursor, 0)?;
    cursor.finish()?;
    T::from_value(&tree).map_err(|e| CodecError(format!("value shape: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<CampaignEvent> {
        vec![
            CampaignEvent::Published(PublishedEvent {
                campaign: CampaignId(3),
                num_tasks: 4000,
                num_golden: 50,
            }),
            CampaignEvent::golden(WorkerId(7), vec![(TaskId(0), 1), (TaskId(200), 0)]),
            CampaignEvent::golden(WorkerId(0), Vec::new()),
            CampaignEvent::answer(Answer::new(WorkerId(1), TaskId(9), 2)),
            CampaignEvent::answer_batch(vec![
                Answer::new(WorkerId(2), TaskId(3), 0),
                Answer::new(WorkerId(400), TaskId(70_000), 1),
            ]),
            CampaignEvent::answer_batch(Vec::new()),
            CampaignEvent::finished(),
        ]
    }

    #[test]
    fn every_event_variant_roundtrips() {
        for event in sample_events() {
            let bytes = encode_event(&event);
            assert_eq!(decode_event(&bytes).unwrap(), event, "{}", event.kind());
        }
    }

    #[test]
    fn binary_events_are_compact() {
        let single = encode_event(&CampaignEvent::answer(Answer::new(
            WorkerId(3),
            TaskId(90),
            1,
        )));
        let json = serde_json::to_vec(&CampaignEvent::answer(Answer::new(
            WorkerId(3),
            TaskId(90),
            1,
        )))
        .unwrap();
        assert!(
            single.len() < json.len() / 3,
            "binary {} vs json {}",
            single.len(),
            json.len()
        );
    }

    #[test]
    fn any_flipped_bit_is_refused() {
        let bytes = encode_event(&CampaignEvent::golden(
            WorkerId(9),
            vec![(TaskId(1), 0), (TaskId(2), 1)],
        ));
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupted = bytes.clone();
                corrupted[i] ^= 1 << bit;
                assert!(
                    decode_event(&corrupted).is_err(),
                    "flip at byte {i} bit {bit} decoded"
                );
            }
        }
    }

    #[test]
    fn truncation_and_extension_are_refused() {
        let bytes = encode_event(&CampaignEvent::finished());
        for cut in 0..bytes.len() {
            assert!(decode_event(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(decode_event(&extended).is_err());
    }

    #[test]
    fn future_version_is_a_clean_error() {
        let mut bytes = encode_event(&CampaignEvent::finished());
        bytes[1] = CODEC_VERSION + 1;
        let err = decode_event(&bytes).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn value_roundtrip_preserves_every_shape_and_exact_floats() {
        let value = Value::Map(vec![
            ("null".into(), Value::Null),
            ("flag".into(), Value::Bool(true)),
            ("count".into(), Value::UInt(u64::MAX)),
            ("delta".into(), Value::Int(-42)),
            ("third".into(), Value::Float(1.0 / 3.0)),
            ("tiny".into(), Value::Float(f64::MIN_POSITIVE)),
            ("name".into(), Value::Str("snapshot ✓".into())),
            (
                "rows".into(),
                Value::Seq(vec![Value::UInt(1), Value::Seq(vec![Value::Float(-0.0)])]),
            ),
        ]);
        let mut buf = BytesMut::new();
        encode_value_body(&value, &mut buf);
        let mut cursor = Cursor::new(&buf);
        let back = decode_value_body(&mut cursor, 0).unwrap();
        cursor.finish().unwrap();
        // Float equality here must be bit-exact, including the sign of -0.0.
        fn bits_equal(a: &Value, b: &Value) -> bool {
            match (a, b) {
                (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
                (Value::Seq(xs), Value::Seq(ys)) => {
                    xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| bits_equal(x, y))
                }
                (Value::Map(xs), Value::Map(ys)) => {
                    xs.len() == ys.len()
                        && xs
                            .iter()
                            .zip(ys)
                            .all(|((k, x), (l, y))| k == l && bits_equal(x, y))
                }
                _ => a == b,
            }
        }
        assert!(bits_equal(&value, &back), "{back:?}");
    }

    #[test]
    fn generic_types_roundtrip() {
        let table: std::collections::HashMap<String, Vec<u32>> =
            [("a".to_string(), vec![1, 2, 3]), ("b".to_string(), vec![])]
                .into_iter()
                .collect();
        let back: std::collections::HashMap<String, Vec<u32>> =
            from_bytes(&to_bytes(&table)).unwrap();
        assert_eq!(back, table);
    }

    #[test]
    fn hostile_counts_do_not_allocate() {
        // A CRC-valid body claiming u32::MAX batch answers must be refused
        // by the count-vs-remaining check, not attempted.
        let mut body = BytesMut::new();
        body.put_u8(EV_ANSWER_BATCH);
        put_varint(&mut body, u64::from(u32::MAX));
        let mut record = BytesMut::new();
        frame_into(KIND_EVENT, &body, &mut record);
        let err = decode_event(&record).unwrap_err();
        assert!(err.to_string().contains("count"), "{err}");
    }

    #[test]
    fn varint_boundaries_roundtrip() {
        for v in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            let mut cursor = Cursor::new(&buf);
            assert_eq!(cursor.varint().unwrap(), v);
            cursor.finish().unwrap();
        }
    }
}
