//! The value codec as it was before it streamed, kept as the byte-level
//! oracle the streamed one is tested against: [`to_bytes`] renders
//! `serde::to_value`'s tree and frames it, [`from_bytes`] parses the whole
//! tree and then runs `serde::from_value` over it. It renders and parses
//! record bytes by its own code, not the codec's `Writer` / `Reader`: the
//! streamed codec must write the same bytes, and accept exactly the records
//! this one accepts, with the same values.
//!
//! It uses nothing of the streamed codec: only `CodecError`, `crc32` and
//! the format constants, which it takes from its parent module. That is
//! how `tests/codec.rs` includes this file too, beside the same names.

use super::{crc32, CodecError, CODEC_MAGIC, CODEC_VERSION, HEADER_LEN, KIND_VALUE, MAX_DEPTH};
use serde::{Deserialize, Serialize, Value};

const VAL_NULL: u8 = 0;
const VAL_FALSE: u8 = 1;
const VAL_TRUE: u8 = 2;
const VAL_UINT: u8 = 3;
const VAL_INT: u8 = 4;
const VAL_FLOAT: u8 = 5;
const VAL_STR: u8 = 6;
const VAL_SEQ: u8 = 7;
const VAL_MAP: u8 = 8;

/// Encodes `value` through its tree.
pub fn to_bytes<T: Serialize + ?Sized>(value: &T) -> Vec<u8> {
    encode_tree(&serde::to_value(value))
}

/// Decodes a record's whole tree, then `T` from it.
pub fn from_bytes<T: Deserialize>(bytes: &[u8]) -> Result<T, CodecError> {
    serde::from_value(&decode_tree(bytes)?).map_err(|e| CodecError(format!("value shape: {e}")))
}

/// Frames `tree`'s rendering as a value record.
pub fn encode_tree(tree: &Value) -> Vec<u8> {
    let mut body = Vec::new();
    encode_node(tree, &mut body);
    let mut record = vec![CODEC_MAGIC, CODEC_VERSION, KIND_VALUE];
    record.extend_from_slice(&(body.len() as u32).to_le_bytes());
    record.extend_from_slice(&crc32(&body).to_le_bytes());
    record.extend_from_slice(&body);
    record
}

/// Verifies a value record and decodes its whole tree.
pub fn decode_tree(bytes: &[u8]) -> Result<Value, CodecError> {
    let fail = |what: &str| Err(CodecError(what.to_string()));
    if bytes.len() < HEADER_LEN || bytes[..3] != [CODEC_MAGIC, CODEC_VERSION, KIND_VALUE] {
        return fail("not a value record");
    }
    let body_len = u32::from_le_bytes(bytes[3..7].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_le_bytes(bytes[7..11].try_into().expect("4 bytes"));
    let mut body = &bytes[HEADER_LEN..];
    if body.len() != body_len || crc32(body) != crc {
        return fail("body length or CRC mismatch");
    }
    let tree = decode_node(&mut body, 0)?;
    if !body.is_empty() {
        return fail("trailing bytes after record body");
    }
    Ok(tree)
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v & 0x7F) as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn encode_node(value: &Value, out: &mut Vec<u8>) {
    match value {
        Value::Null => out.push(VAL_NULL),
        Value::Bool(false) => out.push(VAL_FALSE),
        Value::Bool(true) => out.push(VAL_TRUE),
        Value::UInt(v) => {
            out.push(VAL_UINT);
            put_varint(out, *v);
        }
        Value::Int(v) => {
            out.push(VAL_INT);
            put_varint(out, ((*v << 1) ^ (*v >> 63)) as u64);
        }
        Value::Float(v) => {
            out.push(VAL_FLOAT);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(VAL_STR);
            put_str(out, s);
        }
        Value::Seq(items) => {
            out.push(VAL_SEQ);
            put_varint(out, items.len() as u64);
            for item in items {
                encode_node(item, out);
            }
        }
        Value::Map(entries) => {
            out.push(VAL_MAP);
            put_varint(out, entries.len() as u64);
            for (key, item) in entries {
                put_str(out, key);
                encode_node(item, out);
            }
        }
    }
}

fn take<'a>(rest: &mut &'a [u8], n: usize) -> Result<&'a [u8], CodecError> {
    if rest.len() < n {
        return Err(CodecError("record body truncated".into()));
    }
    let (head, tail) = rest.split_at(n);
    *rest = tail;
    Ok(head)
}

fn varint(rest: &mut &[u8]) -> Result<u64, CodecError> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let byte = take(rest, 1)?[0];
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(CodecError("varint longer than 10 bytes".into()))
}

/// A declared count, refused unless the bytes left could hold it.
fn count(rest: &mut &[u8]) -> Result<usize, CodecError> {
    match usize::try_from(varint(rest)?) {
        Ok(n) if n <= rest.len() => Ok(n),
        _ => Err(CodecError("count exceeds the bytes left".into())),
    }
}

fn string(rest: &mut &[u8]) -> Result<String, CodecError> {
    let len = count(rest)?;
    let raw = take(rest, len)?;
    std::str::from_utf8(raw)
        .map(str::to_owned)
        .map_err(|_| CodecError("string is not valid UTF-8".into()))
}

fn decode_node(rest: &mut &[u8], depth: usize) -> Result<Value, CodecError> {
    if depth > MAX_DEPTH {
        return Err(CodecError(format!("value nesting deeper than {MAX_DEPTH}")));
    }
    Ok(match take(rest, 1)?[0] {
        VAL_NULL => Value::Null,
        VAL_FALSE => Value::Bool(false),
        VAL_TRUE => Value::Bool(true),
        VAL_UINT => Value::UInt(varint(rest)?),
        VAL_INT => {
            let z = varint(rest)?;
            Value::Int(((z >> 1) as i64) ^ -((z & 1) as i64))
        }
        VAL_FLOAT => Value::Float(f64::from_le_bytes(
            take(rest, 8)?.try_into().expect("8 bytes"),
        )),
        VAL_STR => Value::Str(string(rest)?),
        VAL_SEQ => {
            let n = count(rest)?;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(decode_node(rest, depth + 1)?);
            }
            Value::Seq(items)
        }
        VAL_MAP => {
            let n = count(rest)?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                let key = string(rest)?;
                entries.push((key, decode_node(rest, depth + 1)?));
            }
            Value::Map(entries)
        }
        other => return Err(CodecError(format!("unknown value tag {other}"))),
    })
}
