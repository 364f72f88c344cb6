//! lint:scope(no-panic-decode)
//! The interpreted record format.
//!
//! Beckmann et al. concluded "the best option is to store the data
//! horizontally in an interpreted format" (Sec. II-A), and the paper's
//! table file "adopts the row-wise storage structure, such as the
//! interpreted schema" (Sec. III-D). A record is a self-describing sequence
//! of `(attribute id, type, payload)` fields — undefined attributes simply
//! do not appear, which is what makes the format efficient for sparse data.
//!
//! Layout (little-endian):
//!
//! ```text
//! [n_fields: u16]
//!   per field: [attr_id: u32][tag: u8]
//!     tag 0 (numeric): [f64: 8B]
//!     tag 1 (text):    [n_strings: u8] per string: [len: u16][bytes]
//! ```

use crate::error::{Result, SwtError};
use crate::schema::AttrId;
use crate::value::{Tuple, Value};
use iva_storage::codec::{le_u16, le_u32, le_u64};

const TAG_NUM: u8 = 0;
const TAG_TEXT: u8 = 1;

/// Encode a tuple into the interpreted format, appending to `out`.
pub fn encode_record(tuple: &Tuple, out: &mut Vec<u8>) -> Result<()> {
    tuple.validate()?;
    if tuple.arity() > u16::MAX as usize {
        return Err(SwtError::InvalidArgument(
            "tuple with more than 65535 fields".into(),
        ));
    }
    out.extend_from_slice(&(tuple.arity() as u16).to_le_bytes());
    for (attr, value) in tuple.iter() {
        out.extend_from_slice(&attr.0.to_le_bytes());
        match value {
            Value::Num(v) => {
                out.push(TAG_NUM);
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            Value::Text(strings) => {
                out.push(TAG_TEXT);
                out.push(strings.len() as u8);
                for s in strings {
                    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
                    out.extend_from_slice(s.as_bytes());
                }
            }
        }
    }
    Ok(())
}

/// Encoded size of a tuple in the interpreted format.
pub fn record_len(tuple: &Tuple) -> usize {
    let mut len = 2;
    for (_, value) in tuple.iter() {
        len += 4 + 1;
        match value {
            Value::Num(_) => len += 8,
            Value::Text(strings) => {
                len += 1;
                for s in strings {
                    len += 2 + s.len();
                }
            }
        }
    }
    len
}

/// One field of an interpreted record, borrowed from the record bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FieldRef<'a> {
    /// A numerical value.
    Num(f64),
    /// A text value: its strings, still in the record bytes.
    Text(TextRef<'a>),
}

impl FieldRef<'_> {
    /// Materialize the field as an owned [`Value`].
    pub fn to_value(&self) -> Result<Value> {
        match self {
            FieldRef::Num(v) => Ok(Value::Num(*v)),
            FieldRef::Text(t) => {
                let mut strings = Vec::with_capacity(t.count());
                for bytes in t.strings() {
                    let s = std::str::from_utf8(bytes)
                        .map_err(|_| SwtError::Corrupt("record: non-utf8 string".into()))?;
                    strings.push(s.to_string());
                }
                Ok(Value::Text(strings))
            }
        }
    }
}

/// A text value inside a record: the `[len: u16][bytes]` entries of its
/// strings. Only [`RecordFields`] creates one, after checking every
/// entry's bounds and UTF-8, so iterating it cannot fail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TextRef<'a> {
    record: &'a [u8],
    span: TextSpan,
}

impl<'a> TextRef<'a> {
    /// Number of strings in the value (at least one).
    pub fn count(&self) -> usize {
        self.span.count as usize
    }

    /// The strings' bytes (valid UTF-8), in stored order.
    pub fn strings(&self) -> TextStrings<'a> {
        self.span.strings(self.record)
    }

    /// The value's position in its record, detached from the borrow so a
    /// caller can keep it in reusable scratch space.
    pub fn to_span(&self) -> TextSpan {
        self.span
    }
}

/// Where a text value lies in its record (see [`TextRef::to_span`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TextSpan {
    start: usize,
    end: usize,
    count: u8,
}

impl TextSpan {
    /// The strings of this value in `record`, which must be the record
    /// the span was taken from. Over any other bytes the iterator stays
    /// in bounds but yields unspecified slices.
    pub fn strings(self, record: &[u8]) -> TextStrings<'_> {
        TextStrings {
            rest: record.get(self.start..self.end).unwrap_or(&[]),
        }
    }
}

/// Iterator over the strings of a [`TextRef`], as byte slices.
#[derive(Debug, Clone)]
pub struct TextStrings<'a> {
    rest: &'a [u8],
}

impl<'a> Iterator for TextStrings<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let len = le_u16(self.rest, 0)? as usize;
        let bytes = self.rest.get(2..2 + len)?;
        self.rest = self.rest.get(2 + len..).unwrap_or(&[]);
        Some(bytes)
    }
}

/// Borrowed, validating iterator over the fields of an interpreted
/// record, in stored order.
///
/// Each step checks what [`decode_record`] checks — structure, known
/// tags, non-empty text values, the bounds and UTF-8 of every string —
/// whether or not the caller looks at the field, and nothing is copied.
/// The first error ends the iteration. Once it has returned `None`
/// without an error, [`RecordFields::consumed`] is the record's encoded
/// length. A record may repeat an attribute; the last occurrence is the
/// one [`decode_record`] keeps.
#[derive(Debug, Clone)]
pub struct RecordFields<'a> {
    buf: &'a [u8],
    pos: usize,
    remaining: usize,
}

impl<'a> RecordFields<'a> {
    /// Start iterating the record at the front of `buf`.
    pub fn new(buf: &'a [u8]) -> Result<Self> {
        let n_fields = le_u16(buf, 0).ok_or_else(|| corrupt("truncated field count"))?;
        Ok(Self {
            buf,
            pos: 2,
            remaining: n_fields as usize,
        })
    }

    /// Bytes of the record consumed so far.
    pub fn consumed(&self) -> usize {
        self.pos
    }

    fn field(&mut self) -> Result<(AttrId, FieldRef<'a>)> {
        let buf = self.buf;
        let mut pos = self.pos;
        let attr = AttrId(le_u32(buf, pos).ok_or_else(|| corrupt("truncated field header"))?);
        let tag = *buf
            .get(pos + 4)
            .ok_or_else(|| corrupt("truncated field header"))?;
        pos += 5;
        let field = match tag {
            TAG_NUM => {
                let bits = le_u64(buf, pos).ok_or_else(|| corrupt("truncated numeric payload"))?;
                pos += 8;
                FieldRef::Num(f64::from_bits(bits))
            }
            TAG_TEXT => {
                let count = *buf
                    .get(pos)
                    .ok_or_else(|| corrupt("truncated string count"))?;
                pos += 1;
                if count == 0 {
                    return Err(corrupt("empty text value"));
                }
                let start = pos;
                for _ in 0..count {
                    let slen = le_u16(buf, pos).ok_or_else(|| corrupt("truncated string length"))?
                        as usize;
                    pos += 2;
                    if buf.get(pos..pos + slen).is_none() {
                        return Err(corrupt("truncated string bytes"));
                    }
                    pos += slen;
                }
                // UTF-8 of every string. When the whole run of entries is
                // ASCII (length prefixes below 128 are ASCII bytes too), so
                // is every string, and one branch-free pass decides it.
                let entries = buf.get(start..pos).unwrap_or(&[]);
                if entries.iter().fold(0u8, |acc, &b| acc | b) >= 0x80 {
                    for bytes in (TextStrings { rest: entries }) {
                        std::str::from_utf8(bytes).map_err(|_| corrupt("non-utf8 string"))?;
                    }
                }
                FieldRef::Text(TextRef {
                    record: buf,
                    span: TextSpan {
                        start,
                        end: pos,
                        count,
                    },
                })
            }
            x => return Err(corrupt(&format!("unknown field tag {x}"))),
        };
        self.pos = pos;
        Ok((attr, field))
    }
}

impl<'a> Iterator for RecordFields<'a> {
    type Item = Result<(AttrId, FieldRef<'a>)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        let item = self.field();
        // Fuse on error: a corrupt field leaves no boundary to resume at.
        self.remaining = if item.is_ok() { self.remaining - 1 } else { 0 };
        Some(item)
    }
}

fn corrupt(m: &str) -> SwtError {
    SwtError::Corrupt(format!("record: {m}"))
}

/// Decode a record produced by [`encode_record`]. Returns the tuple and the
/// number of bytes consumed. Built on [`RecordFields`], so it accepts and
/// rejects exactly the records the borrowed iterator does.
pub fn decode_record(buf: &[u8]) -> Result<(Tuple, usize)> {
    let mut fields = RecordFields::new(buf)?;
    let mut tuple = Tuple::new();
    for field in fields.by_ref() {
        let (attr, value) = field?;
        tuple.set(attr, value.to_value()?);
    }
    Ok((tuple, fields.consumed()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tuple() -> Tuple {
        Tuple::new()
            .with(AttrId(0), Value::text("Digital Camera"))
            .with(AttrId(3), Value::num(230.0))
            .with(AttrId(4), Value::text("Canon"))
            .with(AttrId(6), Value::num(10_000_000.0))
            .with(AttrId(9), Value::texts(["Computer", "Software"]))
    }

    #[test]
    fn roundtrip() {
        let t = sample_tuple();
        let mut buf = Vec::new();
        encode_record(&t, &mut buf).unwrap();
        assert_eq!(buf.len(), record_len(&t));
        let (back, used) = decode_record(&buf).unwrap();
        assert_eq!(used, buf.len());
        assert_eq!(back, t);
    }

    #[test]
    fn empty_tuple_roundtrip() {
        let t = Tuple::new();
        let mut buf = Vec::new();
        encode_record(&t, &mut buf).unwrap();
        let (back, used) = decode_record(&buf).unwrap();
        assert_eq!(used, 2);
        assert!(back.is_empty());
    }

    #[test]
    fn trailing_bytes_ignored() {
        let t = sample_tuple();
        let mut buf = Vec::new();
        encode_record(&t, &mut buf).unwrap();
        let n = buf.len();
        buf.extend_from_slice(b"garbage-after-record");
        let (back, used) = decode_record(&buf).unwrap();
        assert_eq!(used, n);
        assert_eq!(back, t);
    }

    #[test]
    fn special_floats_roundtrip() {
        // Negative zero and subnormals must survive bit-exactly.
        let t = Tuple::new()
            .with(AttrId(0), Value::num(-0.0))
            .with(AttrId(1), Value::num(f64::MIN_POSITIVE / 2.0));
        let mut buf = Vec::new();
        encode_record(&t, &mut buf).unwrap();
        let (back, _) = decode_record(&buf).unwrap();
        match back.get(AttrId(0)) {
            Some(Value::Num(v)) => assert!(v.is_sign_negative() && *v == 0.0),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn utf8_multibyte_strings() {
        let t = Tuple::new().with(AttrId(0), Value::texts(["数码相机", "カメラ"]));
        let mut buf = Vec::new();
        encode_record(&t, &mut buf).unwrap();
        let (back, _) = decode_record(&buf).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn corrupt_inputs_rejected() {
        assert!(decode_record(&[]).is_err());
        assert!(decode_record(&[1, 0]).is_err()); // one field promised, none present
                                                  // Valid header, bad tag.
        let buf = [1u8, 0, 0, 0, 0, 0, 99];
        assert!(decode_record(&buf).is_err());
        // Non-utf8 string bytes.
        let mut buf = Vec::new();
        buf.extend_from_slice(&1u16.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.push(TAG_TEXT);
        buf.push(1);
        buf.extend_from_slice(&2u16.to_le_bytes());
        buf.extend_from_slice(&[0xff, 0xfe]);
        assert!(decode_record(&buf).is_err());
    }

    #[test]
    fn rejects_invalid_values_at_encode() {
        let t = Tuple::new().with(AttrId(0), Value::num(f64::NAN));
        let mut buf = Vec::new();
        assert!(encode_record(&t, &mut buf).is_err());
    }
}
