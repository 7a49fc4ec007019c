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
//!   rendering of a serde value tree, used for snapshots and any other
//!   `Serialize` type; floats keep their exact bits, so replay determinism
//!   is preserved.
//! * **Streamed, written once.** A value body is written by
//!   `Serialize::encode` into a [`Sink`] and read by `Deserialize::decode`
//!   from a [`Source`] straight over the bytes; no `serde::Value` tree is
//!   built on either side. The test-only `tree` module renders and parses
//!   the same bytes on its own, as the oracle. Every record is
//!   written once, into its destination: the header goes first with a zero
//!   length and CRC, then the body, then both header fields are patched
//!   over the span just written. A fresh record is allocated at its exact
//!   size, counted by a first pass over the same writer.
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
use serde::{DeError, Deserialize, Serialize, Sink, Source, Token};
use std::fmt;
use std::ops::DerefMut;

#[cfg(test)]
mod tree;

/// First byte of every record.
pub const CODEC_MAGIC: u8 = 0xDC;

/// Current format version. Decoders require an exact match.
pub const CODEC_VERSION: u8 = 1;

/// Body kind: hand-rolled [`CampaignEvent`] layout.
pub const KIND_EVENT: u8 = 0x01;

/// Body kind: tagged binary serde value tree (snapshots, generic types).
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

impl From<CodecError> for DeError {
    fn from(e: CodecError) -> Self {
        DeError(e.0)
    }
}

#[cold]
fn err<T>(msg: impl Into<String>) -> Result<T, CodecError> {
    Err(CodecError(msg.into()))
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Appends one record of `kind` to `buf`: the header, then the body
/// `write_body` appends, then the body's length and CRC patched into the
/// header over the span just written.
fn frame_into<B: BufMut + DerefMut<Target = [u8]>>(
    kind: u8,
    buf: &mut B,
    write_body: impl FnOnce(&mut B),
) {
    let start = buf.len();
    buf.put_u8(CODEC_MAGIC);
    buf.put_u8(CODEC_VERSION);
    buf.put_u8(kind);
    buf.put_u64_le(0); // body length and CRC, patched below
    write_body(buf);
    let body = start + HEADER_LEN;
    let body_len = (buf.len() - body) as u32;
    let crc = crc32(&buf[body..]);
    buf[start + 3..start + 7].copy_from_slice(&body_len.to_le_bytes());
    buf[start + 7..body].copy_from_slice(&crc.to_le_bytes());
}

/// A `BufMut` that only counts what is written to it: the sizing pass that
/// lets a fresh record be allocated at its exact size.
struct Measure(usize);

impl BufMut for Measure {
    fn put_u8(&mut self, _: u8) {
        self.0 += 1;
    }

    fn put_u32_le(&mut self, _: u32) {
        self.0 += 4;
    }

    fn put_u64_le(&mut self, _: u64) {
        self.0 += 8;
    }

    fn put_slice(&mut self, src: &[u8]) {
        self.0 += src.len();
    }
}

/// The body kind a record's header declares ([`KIND_EVENT`] or
/// [`KIND_VALUE`]), or `None` when `bytes` does not open with this
/// version's header. Reads the header only: the body is checked by the
/// decode that follows.
pub fn record_kind(bytes: &[u8]) -> Option<u8> {
    match bytes {
        [CODEC_MAGIC, CODEC_VERSION, kind, ..] if bytes.len() >= HEADER_LEN => Some(*kind),
        _ => None,
    }
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

fn put_varint<B: BufMut + ?Sized>(buf: &mut B, mut v: u64) {
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
        match self.data.split_first() {
            Some((&byte, rest)) => {
                self.data = rest;
                Ok(byte)
            }
            None => err("need 1 byte, 0 remain in record body"),
        }
    }

    fn varint(&mut self) -> Result<u64, CodecError> {
        // One byte holds every value below 128: tags' counts, ids, choices.
        if let Some((&byte, rest)) = self.data.split_first().filter(|(&b, _)| b < 0x80) {
            self.data = rest;
            return Ok(u64::from(byte));
        }
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

    /// A length-prefixed UTF-8 string; `what` names it in the error.
    fn str(&mut self, what: &str) -> Result<&'a str, CodecError> {
        let len = self.count()?;
        let raw = self.take(len)?;
        std::str::from_utf8(raw).map_err(|_| CodecError(format!("{what} is not valid UTF-8")))
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

fn put_answer<B: BufMut>(buf: &mut B, answer: &Answer) {
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

fn encode_event_body<B: BufMut>(event: &CampaignEvent, buf: &mut B) {
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
    frame_into(KIND_EVENT, buf, |b| encode_event_body(event, b));
}

/// Encodes one event as a fresh framed record of exactly its size.
pub fn encode_event(event: &CampaignEvent) -> Vec<u8> {
    let mut size = Measure(0);
    encode_event_body(event, &mut size);
    let mut record = Vec::with_capacity(HEADER_LEN + size.0);
    frame_into(KIND_EVENT, &mut record, |b| encode_event_body(event, b));
    record
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

/// The value-body encoder: each node of the walk as its tag and payload.
struct Writer<'a, B>(&'a mut B);

impl<B: BufMut> Writer<'_, B> {
    fn str_bytes(&mut self, s: &str) {
        put_varint(self.0, s.len() as u64);
        self.0.put_slice(s.as_bytes());
    }
}

impl<B: BufMut> Sink for Writer<'_, B> {
    fn null(&mut self) {
        self.0.put_u8(VAL_NULL);
    }

    fn bool(&mut self, v: bool) {
        self.0.put_u8(if v { VAL_TRUE } else { VAL_FALSE });
    }

    fn uint(&mut self, v: u64) {
        self.0.put_u8(VAL_UINT);
        put_varint(self.0, v);
    }

    fn int(&mut self, v: i64) {
        // ZigZag keeps small negatives small.
        self.0.put_u8(VAL_INT);
        put_varint(self.0, ((v << 1) ^ (v >> 63)) as u64);
    }

    fn float(&mut self, v: f64) {
        // Exact bit pattern: byte-identical replay depends on floats
        // surviving the snapshot round-trip unchanged.
        self.0.put_u8(VAL_FLOAT);
        self.0.put_slice(&v.to_le_bytes());
    }

    fn str(&mut self, v: &str) {
        self.0.put_u8(VAL_STR);
        self.str_bytes(v);
    }

    fn seq(&mut self, len: usize) {
        self.0.put_u8(VAL_SEQ);
        put_varint(self.0, len as u64);
    }

    fn map(&mut self, len: usize) {
        self.0.put_u8(VAL_MAP);
        put_varint(self.0, len as u64);
    }

    fn key(&mut self, key: &str) {
        self.str_bytes(key);
    }
}

/// The value-body decoder. Nesting is bounded by [`MAX_DEPTH`] and every
/// count by the bytes left, so hostile input can neither exhaust the stack
/// nor size an allocation beyond the record.
struct Reader<'a> {
    cursor: Cursor<'a>,
    /// Nesting depth of the next value; the record's root is at 0.
    depth: usize,
}

impl Reader<'_> {
    fn check_depth(&self) -> Result<(), CodecError> {
        if self.depth > MAX_DEPTH {
            return err(format!("value nesting deeper than {MAX_DEPTH}"));
        }
        Ok(())
    }
}

impl Source for Reader<'_> {
    fn token(&mut self) -> Result<Token<'_>, DeError> {
        self.check_depth()?;
        let token = match self.cursor.u8()? {
            VAL_NULL => Token::Null,
            VAL_FALSE => Token::Bool(false),
            VAL_TRUE => Token::Bool(true),
            VAL_UINT => Token::UInt(self.cursor.varint()?),
            VAL_INT => {
                let z = self.cursor.varint()?;
                Token::Int(((z >> 1) as i64) ^ -((z & 1) as i64))
            }
            VAL_FLOAT => Token::Float(self.cursor.f64()?),
            VAL_STR => Token::Str(self.cursor.str("string")?),
            VAL_SEQ => {
                let n = self.cursor.count()?;
                self.depth += 1;
                Token::Seq(n)
            }
            VAL_MAP => {
                let n = self.cursor.count()?;
                self.depth += 1;
                Token::Map(n)
            }
            other => return Err(DeError(format!("unknown value tag {other}"))),
        };
        Ok(token)
    }

    fn key(&mut self) -> Result<&str, DeError> {
        Ok(self.cursor.str("map key")?)
    }

    fn end(&mut self) {
        self.depth -= 1;
    }

    fn take_null(&mut self) -> Result<bool, DeError> {
        self.check_depth()?;
        let null = self.cursor.data.first() == Some(&VAL_NULL);
        if null {
            self.cursor.take(1)?;
        }
        Ok(null)
    }
}

/// Appends one framed binary record of any `Serialize` type to `buf`.
pub fn encode_value_into<T: Serialize + ?Sized>(value: &T, buf: &mut BytesMut) {
    frame_into(KIND_VALUE, buf, |b| value.encode(&mut Writer(b)));
}

/// Encodes any `Serialize` type (snapshots, frames, …) as a fresh framed
/// binary record of exactly its size. The rendering is deterministic: the
/// serde facade sorts map keys.
pub fn to_bytes<T: Serialize + ?Sized>(value: &T) -> Vec<u8> {
    let mut size = Measure(0);
    value.encode(&mut Writer(&mut size));
    let mut record = Vec::with_capacity(HEADER_LEN + size.0);
    frame_into(KIND_VALUE, &mut record, |b| value.encode(&mut Writer(b)));
    record
}

/// Verifies and decodes one framed value record into `T`.
pub fn from_bytes<T: Deserialize>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut reader = Reader {
        cursor: Cursor::new(unframe(KIND_VALUE, bytes)?),
        depth: 0,
    };
    let value = T::decode(&mut reader).map_err(|e| CodecError(format!("value record: {e}")))?;
    reader.cursor.finish()?;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;
    use std::collections::HashMap;

    fn sample_events() -> Vec<CampaignEvent> {
        vec![
            CampaignEvent::Published(PublishedEvent {
                campaign: CampaignId(3),
                num_tasks: 4000,
                num_golden: 50,
            }),
            CampaignEvent::golden(WorkerId(7), vec![(TaskId(0), 1), (TaskId(200), 0)]),
            CampaignEvent::golden(WorkerId(0), Vec::new()),
            CampaignEvent::AnswerSubmitted(AnswerSubmittedEvent {
                answer: Answer::new(WorkerId(1), TaskId(9), 2),
            }),
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

    /// The fresh record is written once, at its exact size, and equals what
    /// the append path writes into a shared buffer.
    #[test]
    fn a_fresh_event_record_is_exactly_sized() {
        let mut shared = BytesMut::new();
        for event in sample_events() {
            let record = encode_event(&event);
            assert_eq!(record.capacity(), record.len(), "{}", event.kind());
            let start = shared.len();
            encode_event_into(&event, &mut shared);
            assert_eq!(&shared[start..], &record[..]);
        }
    }

    #[test]
    fn binary_events_are_compact() {
        let single = encode_event(&CampaignEvent::AnswerSubmitted(AnswerSubmittedEvent {
            answer: Answer::new(WorkerId(3), TaskId(90), 1),
        }));
        let json = serde_json::to_vec(&CampaignEvent::AnswerSubmitted(AnswerSubmittedEvent {
            answer: Answer::new(WorkerId(3), TaskId(90), 1),
        }))
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

    /// `record_kind` names the kind of either record and nothing for a
    /// header that is short, foreign or of another version.
    #[test]
    fn record_kind_reads_the_header_only() {
        let event = encode_event(&CampaignEvent::finished());
        let value = to_bytes(&7u32);
        assert_eq!(record_kind(&event), Some(KIND_EVENT));
        assert_eq!(record_kind(&value), Some(KIND_VALUE));
        assert_eq!(record_kind(&value[..HEADER_LEN]), Some(KIND_VALUE));
        assert_eq!(record_kind(&value[..HEADER_LEN - 1]), None);
        assert_eq!(record_kind(b"state-at-5"), None);
        let mut future = value.clone();
        future[1] = CODEC_VERSION + 1;
        assert_eq!(record_kind(&future), None);
    }

    /// Every node shape, the extreme integers and floats whose bits matter
    /// (a third, the smallest normal, negative zero): the streamed record is
    /// the tree's, and both decoders read it back bit for bit.
    #[test]
    fn every_shape_streams_the_tree_bytes_and_exact_floats() {
        type Shapes = (
            (Option<u8>, bool, u64),
            (i64, Vec<f64>, String),
            HashMap<String, Vec<Vec<f64>>>,
        );
        let mut rows = HashMap::new();
        rows.insert("rows".to_string(), vec![vec![-0.0], vec![]]);
        rows.insert("w10".to_string(), vec![vec![f64::MIN_POSITIVE]]);
        rows.insert("w2".to_string(), Vec::new());
        let value: Shapes = (
            (None, true, u64::MAX),
            (-42, vec![1.0 / 3.0, f64::MAX], "snapshot ✓".to_string()),
            rows,
        );
        let bytes = to_bytes(&value);
        assert_eq!(bytes, tree::to_bytes(&value));
        let back: Shapes = from_bytes(&bytes).unwrap();
        assert_eq!(to_bytes(&back), bytes, "floats round-trip bit for bit");
        let oracle: Shapes = tree::from_bytes(&bytes).unwrap();
        assert_eq!(to_bytes(&oracle), bytes, "the oracle reads the same value");
        assert_eq!(back.1 .1[0].to_bits(), (1.0f64 / 3.0).to_bits());
        assert!(back.2["rows"][0][0].is_sign_negative());
    }

    #[test]
    fn generic_types_roundtrip() {
        let table: HashMap<String, Vec<u32>> =
            [("a".to_string(), vec![1, 2, 3]), ("b".to_string(), vec![])]
                .into_iter()
                .collect();
        let bytes = to_bytes(&table);
        assert_eq!(bytes, tree::to_bytes(&table));
        let back: HashMap<String, Vec<u32>> = from_bytes(&bytes).unwrap();
        assert_eq!(back, table);
    }

    /// Appending to a shared buffer writes the same record as a fresh one.
    #[test]
    fn encode_value_into_appends_the_fresh_record() {
        let mut shared = BytesMut::new();
        encode_event_into(&CampaignEvent::finished(), &mut shared);
        let start = shared.len();
        let value = vec![(3u32, Answer::new(WorkerId(10), TaskId(2), 1))];
        encode_value_into(&value, &mut shared);
        assert_eq!(&shared[start..], &to_bytes(&value)[..]);
    }

    /// Decodes `tree` from its codec record and from the tree itself: the
    /// two sources one decoder reads.
    fn decode_both<T: Deserialize>(tree: &Value) -> [Result<T, String>; 2] {
        [
            from_bytes(&tree::encode_tree(tree)).map_err(|e| e.to_string()),
            serde::from_value(tree).map_err(|e| e.to_string()),
        ]
    }

    fn decodes_to<T: Deserialize + PartialEq + fmt::Debug>(tree: Value, expected: T) {
        for decoded in decode_both::<T>(&tree) {
            assert_eq!(decoded.as_ref(), Ok(&expected), "{tree:?}");
        }
    }

    fn is_refused<T: Deserialize + fmt::Debug>(tree: Value, naming: &str) {
        for decoded in decode_both::<T>(&tree) {
            let err = decoded.expect_err(&format!("{tree:?} decodes"));
            assert!(err.contains(naming), "{tree:?}: {err}");
        }
    }

    /// Hand-built trees pin the decode rules, through both sources: scalars
    /// coerce within range, a missing field reads as null, unknown keys are
    /// skipped, the first duplicate struct key wins and the last duplicate
    /// hash-map key, and an enum is one externally tagged entry.
    #[test]
    fn odd_trees_decode_by_the_rules() {
        let answer = |fields: Vec<(&str, Value)>| {
            Value::Map(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
        };
        decodes_to(
            answer(vec![
                ("task", Value::Float(3.0)),
                ("worker", Value::Int(4)),
                ("choice", Value::UInt(1)),
            ]),
            Answer::new(WorkerId(4), TaskId(3), 1),
        );
        decodes_to(
            answer(vec![
                ("task", Value::UInt(1)),
                ("task", Value::Str("later duplicates are ignored".into())),
                ("unknown", Value::Seq(vec![Value::Map(vec![])])),
                ("worker", Value::UInt(2)),
                ("choice", Value::UInt(0)),
            ]),
            Answer::new(WorkerId(2), TaskId(1), 0),
        );
        is_refused::<Answer>(
            answer(vec![
                ("task", Value::Str("first wins".into())),
                ("task", Value::UInt(1)),
                ("worker", Value::UInt(2)),
                ("choice", Value::UInt(0)),
            ]),
            "field `task`: expected unsigned integer, found string",
        );
        is_refused::<Answer>(
            answer(vec![("task", Value::UInt(1)), ("worker", Value::UInt(2))]),
            "field `choice`: expected unsigned integer, found null",
        );
        is_refused::<Answer>(
            answer(vec![
                ("task", Value::Float(0.5)),
                ("worker", Value::UInt(2)),
                ("choice", Value::UInt(0)),
            ]),
            "field `task`: expected unsigned integer, found float",
        );
        is_refused::<Answer>(
            answer(vec![
                ("task", Value::UInt(1 << 40)),
                ("worker", Value::UInt(2)),
                ("choice", Value::UInt(0)),
            ]),
            "1099511627776 out of range for u32",
        );
        is_refused::<Answer>(Value::Seq(vec![]), "expected map for Answer");

        let tagged = |tag: &str, inner: Value| Value::Map(vec![(tag.into(), inner)]);
        decodes_to(
            tagged("Finished", Value::Map(vec![])),
            CampaignEvent::finished(),
        );
        decodes_to(
            tagged(
                "AnswerBatchSubmitted",
                Value::Map(vec![("answers".into(), Value::Seq(vec![]))]),
            ),
            CampaignEvent::answer_batch(Vec::new()),
        );
        // Every variant carries a payload, so none is a bare string.
        for tag in ["Finished", "Published"] {
            is_refused::<CampaignEvent>(
                Value::Str(tag.into()),
                &format!("unknown CampaignEvent variant `{tag}`"),
            );
        }
        is_refused::<CampaignEvent>(
            tagged("Bogus", Value::Null),
            "unknown CampaignEvent variant `Bogus`",
        );
        is_refused::<CampaignEvent>(
            Value::Map(vec![
                ("Finished".into(), Value::Map(vec![])),
                ("Finished".into(), Value::Map(vec![])),
            ]),
            "expected CampaignEvent variant, found map",
        );
        is_refused::<CampaignEvent>(
            tagged(
                "GoldenSubmitted",
                Value::Map(vec![
                    ("worker".into(), Value::UInt(1)),
                    (
                        "answers".into(),
                        Value::Seq(vec![Value::Seq(vec![Value::UInt(0)])]),
                    ),
                ]),
            ),
            "expected 2-tuple, found 1 elements",
        );
        is_refused::<CampaignEvent>(Value::Null, "expected CampaignEvent variant, found null");

        decodes_to(
            Value::Seq(vec![Value::Null, Value::Float(2.0), Value::UInt(7)]),
            vec![None, Some(2u8), Some(7)],
        );
        is_refused::<Vec<Option<u8>>>(
            Value::Seq(vec![Value::Null, Value::Bool(true)]),
            "expected unsigned integer, found bool",
        );
        is_refused::<Vec<Option<u8>>>(
            Value::Seq(vec![Value::Int(-1)]),
            "expected unsigned integer, found integer",
        );

        decodes_to(
            Value::Map(vec![
                ("3".into(), Value::UInt(1)),
                ("3".into(), Value::UInt(2)),
            ]),
            HashMap::from([(3u32, 2u8)]),
        );
        is_refused::<HashMap<u32, u8>>(
            Value::Map(vec![("x".into(), Value::UInt(1))]),
            "expected unsigned integer, found string",
        );
        // A float of 2^64 is past `u64::MAX`, not `u64::MAX` saturated.
        is_refused::<u64>(
            Value::Float(18_446_744_073_709_551_616.0),
            "expected unsigned integer, found float",
        );
    }

    /// Bodies the tree never built: deep nesting, counts past the bytes
    /// left, bad tags, invalid UTF-8, trailing bytes. Both decoders refuse
    /// them.
    #[test]
    fn hostile_value_bodies_are_refused_by_both_decoders() {
        let record = |body: &[u8]| {
            let mut record = BytesMut::new();
            frame_into(KIND_VALUE, &mut record, |b| b.put_slice(body));
            record.to_vec()
        };
        let mut huge_count = vec![VAL_SEQ];
        put_varint(&mut huge_count, 1 << 60);
        let mut deep_in_unknown_key = vec![VAL_MAP, 1, 1, b'z'];
        deep_in_unknown_key.extend([VAL_SEQ, 1].repeat(MAX_DEPTH + 1));
        deep_in_unknown_key.push(VAL_NULL);
        for body in [
            vec![VAL_SEQ; 1 << 20],
            [VAL_SEQ, 1].repeat(MAX_DEPTH + 1),
            huge_count,
            deep_in_unknown_key,
            vec![VAL_STR, 1, 0xFF],
            vec![VAL_MAP, 1, 1, 0xFF, VAL_NULL],
            vec![9],
            vec![VAL_NULL, VAL_NULL],
            vec![],
        ] {
            let record = record(&body);
            assert!(from_bytes::<Vec<Vec<u8>>>(&record).is_err());
            assert!(from_bytes::<HashMap<String, u8>>(&record).is_err());
            assert!(from_bytes::<Answer>(&record).is_err());
            assert!(tree::decode_tree(&record).is_err());
        }
        // A null one level short of the bound is still a value.
        let mut body = [VAL_SEQ, 1].repeat(MAX_DEPTH);
        body.push(VAL_NULL);
        assert!(tree::decode_tree(&record(&body)).is_ok());
    }

    #[test]
    fn hostile_counts_do_not_allocate() {
        // A CRC-valid body claiming u32::MAX batch answers must be refused
        // by the count-vs-remaining check, not attempted.
        let mut record = BytesMut::new();
        frame_into(KIND_EVENT, &mut record, |b| {
            b.put_u8(EV_ANSWER_BATCH);
            put_varint(b, u64::from(u32::MAX));
        });
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
