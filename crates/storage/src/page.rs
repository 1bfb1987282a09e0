//! Byte-level tuple encoding into fixed-size pages.
//!
//! Layout: `[u16 tuple_count] [tuple]*` where each tuple is
//! `[u16 value_count] [value]*` and each value is a 1-byte tag followed by
//! its payload (`Int`/`Double`: 8 bytes LE; `Str`: u16 length + bytes).
//! Simple, compact, and deliberately *real* — the sort experiments must pay
//! genuine serialization CPU, like the systems the paper measured.

use pyro_common::{ColumnBuilder, PyroError, Result, Tuple, Value};
use std::cmp::Ordering;
use std::fmt;

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_DOUBLE: u8 = 2;
const TAG_STR: u8 = 3;

/// Encoded size of one tuple, including its count header.
pub fn encoded_len(tuple: &Tuple) -> usize {
    2 + tuple
        .values()
        .iter()
        .map(|v| match v {
            Value::Null => 1,
            Value::Int(_) | Value::Double(_) => 9,
            Value::Str(s) => 3 + s.len(),
        })
        .sum::<usize>()
}

fn encode_tuple(tuple: &Tuple, out: &mut Vec<u8>) {
    out.extend_from_slice(&(tuple.arity() as u16).to_le_bytes());
    for v in tuple.values() {
        match v {
            Value::Null => out.push(TAG_NULL),
            Value::Int(i) => {
                out.push(TAG_INT);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Value::Double(d) => {
                out.push(TAG_DOUBLE);
                out.extend_from_slice(&d.to_le_bytes());
            }
            Value::Str(s) => {
                out.push(TAG_STR);
                out.extend_from_slice(&(s.len() as u16).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
        }
    }
}

/// Accumulates tuples into a page-sized byte buffer.
#[derive(Debug)]
pub struct PageBuilder {
    capacity: usize,
    buf: Vec<u8>,
    count: u16,
    /// End offset of the page's opening tuple in `buf` (0 while empty).
    first_end: usize,
}

impl PageBuilder {
    /// A builder for pages of `capacity` bytes.
    pub fn new(capacity: usize) -> Self {
        let mut buf = Vec::with_capacity(capacity);
        buf.extend_from_slice(&0u16.to_le_bytes());
        PageBuilder {
            capacity,
            buf,
            count: 0,
            first_end: 0,
        }
    }

    /// Tries to append; returns `false` (leaving the page unchanged) when
    /// the tuple does not fit. Errors only if the tuple cannot fit even in
    /// an *empty* page.
    pub fn try_push(&mut self, tuple: &Tuple) -> Result<bool> {
        let need = encoded_len(tuple);
        if 2 + need > self.capacity {
            return Err(PyroError::Storage(format!(
                "tuple of {need} encoded bytes exceeds page capacity {}",
                self.capacity
            )));
        }
        if self.buf.len() + need > self.capacity {
            return Ok(false);
        }
        encode_tuple(tuple, &mut self.buf);
        if self.count == 0 {
            self.first_end = self.buf.len();
        }
        self.count += 1;
        self.buf[0..2].copy_from_slice(&self.count.to_le_bytes());
        Ok(true)
    }

    /// Number of tuples currently in the page.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// True iff no tuples have been appended.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The page's first tuple, still encoded — `None` while the page is
    /// empty. A file writer keeps it as the page's fence.
    pub(crate) fn opening_tuple(&self) -> Option<&[u8]> {
        (self.count > 0).then(|| &self.buf[2..self.first_end])
    }

    /// Finishes the page, returning its bytes and resetting the builder.
    pub fn take(&mut self) -> Vec<u8> {
        let mut fresh = Vec::with_capacity(self.capacity);
        fresh.extend_from_slice(&0u16.to_le_bytes());
        self.count = 0;
        self.first_end = 0;
        std::mem::replace(&mut self.buf, fresh)
    }
}

/// Decodes all tuples from a page produced by [`PageBuilder`].
pub fn decode_page(data: &[u8]) -> Result<Vec<Tuple>> {
    let mut out = Vec::new();
    decode_page_into(data, &mut out)?;
    Ok(out)
}

/// Decodes a page, appending the tuples to `out` — the batch-at-a-time
/// scan path decodes straight into its output buffer with no intermediate
/// page vector.
pub fn decode_page_into(data: &[u8], out: &mut Vec<Tuple>) -> Result<()> {
    let mut pos = 0usize;
    let count = read_u16(data, &mut pos)? as usize;
    out.reserve(count);
    for _ in 0..count {
        out.push(decode_tuple(data, &mut pos)?);
    }
    Ok(())
}

/// The first tuple of a page, left encoded: only that tuple's bytes are
/// walked (and validated), never the rest of the page. Errors on a page
/// that holds no tuple — writers never emit one.
pub(crate) fn first_tuple(data: &[u8]) -> Result<&[u8]> {
    let mut pos = 0usize;
    if read_u16(data, &mut pos)? == 0 {
        return Err(PyroError::Storage("page holds no tuple".into()));
    }
    let start = pos;
    let arity = read_u16(data, &mut pos)?;
    for _ in 0..arity {
        read_value(data, &mut pos)?;
    }
    Ok(&data[start..pos])
}

/// One tuple in its page encoding, borrowed from wherever it is held — for
/// a page's fence, from the [`crate::TupleFile`] that keeps it in memory so
/// a binary search over a sorted file need not read the page.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct EncodedTuple<'a>(pub(crate) &'a [u8]);

impl EncodedTuple<'_> {
    /// Decodes the whole tuple.
    pub fn decode(&self) -> Result<Tuple> {
        decode_tuple(self.0, &mut 0)
    }

    /// Orders the tuple's `cols` prefix against `key` lexicographically
    /// under the [`Value`] total order, reading the columns in place: no
    /// `Tuple` is built and no string is copied. `cols` and `key` are
    /// zipped, so a shorter side bounds the prefix.
    pub fn cmp_prefix(&self, cols: &[usize], key: &[Value]) -> Result<Ordering> {
        for (&c, k) in cols.iter().zip(key) {
            let mut pos = 0usize;
            let arity = read_u16(self.0, &mut pos)? as usize;
            if c >= arity {
                return Err(PyroError::Storage(format!(
                    "key column {c} beyond tuple arity {arity}"
                )));
            }
            for _ in 0..c {
                read_value(self.0, &mut pos)?;
            }
            let ord = read_value(self.0, &mut pos)?.cmp_value(k);
            if ord != Ordering::Equal {
                return Ok(ord);
            }
        }
        Ok(Ordering::Equal)
    }
}

impl fmt::Debug for EncodedTuple<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "EncodedTuple({} bytes)", self.0.len())
    }
}

/// One encoded value, borrowed from its page.
enum RawValue<'a> {
    Null,
    Int(i64),
    Double(f64),
    Str(&'a str),
}

impl RawValue<'_> {
    /// [`Value::cmp`] without materializing a string: non-string values
    /// are copied out (no allocation), and a string compares its borrowed
    /// bytes — or, against a non-string, ranks as the empty string does.
    fn cmp_value(&self, other: &Value) -> Ordering {
        match (self, other) {
            (RawValue::Str(s), Value::Str(o)) => (*s).cmp(o.as_str()),
            (RawValue::Str(_), o) => Value::Str(String::new()).cmp(o),
            (RawValue::Null, o) => Value::Null.cmp(o),
            (RawValue::Int(i), o) => Value::Int(*i).cmp(o),
            (RawValue::Double(d), o) => Value::Double(*d).cmp(o),
        }
    }
}

/// Decodes one tuple starting at `pos`. Kept apart from [`read_value`]:
/// building each `Value` straight from its tag is measurably faster on the
/// scan path than going through the borrowed form.
#[inline(always)]
fn decode_tuple(data: &[u8], pos: &mut usize) -> Result<Tuple> {
    let arity = read_u16(data, pos)? as usize;
    let mut values = Vec::with_capacity(arity);
    for _ in 0..arity {
        let tag = *data
            .get(*pos)
            .ok_or_else(|| PyroError::Storage("truncated page: missing tag".into()))?;
        *pos += 1;
        let v = match tag {
            TAG_NULL => Value::Null,
            TAG_INT => Value::Int(i64::from_le_bytes(read_arr(data, pos)?)),
            TAG_DOUBLE => Value::Double(f64::from_le_bytes(read_arr(data, pos)?)),
            TAG_STR => {
                let len = read_u16(data, pos)? as usize;
                let bytes = data
                    .get(*pos..*pos + len)
                    .ok_or_else(|| PyroError::Storage("truncated page: short string".into()))?;
                *pos += len;
                Value::Str(
                    std::str::from_utf8(bytes)
                        .map_err(|e| PyroError::Storage(format!("bad utf8: {e}")))?
                        .to_string(),
                )
            }
            other => {
                return Err(PyroError::Storage(format!("unknown value tag {other}")));
            }
        };
        values.push(v);
    }
    Ok(Tuple::new(values))
}

/// Reads one tagged value starting at `pos`; strings are UTF-8 checked.
#[inline]
fn read_value<'a>(data: &'a [u8], pos: &mut usize) -> Result<RawValue<'a>> {
    let tag = *data
        .get(*pos)
        .ok_or_else(|| PyroError::Storage("truncated page: missing tag".into()))?;
    *pos += 1;
    Ok(match tag {
        TAG_NULL => RawValue::Null,
        TAG_INT => RawValue::Int(i64::from_le_bytes(read_arr(data, pos)?)),
        TAG_DOUBLE => RawValue::Double(f64::from_le_bytes(read_arr(data, pos)?)),
        TAG_STR => {
            let len = read_u16(data, pos)? as usize;
            let bytes = data
                .get(*pos..*pos + len)
                .ok_or_else(|| PyroError::Storage("truncated page: short string".into()))?;
            *pos += len;
            RawValue::Str(
                std::str::from_utf8(bytes)
                    .map_err(|e| PyroError::Storage(format!("bad utf8: {e}")))?,
            )
        }
        other => {
            return Err(PyroError::Storage(format!("unknown value tag {other}")));
        }
    })
}

/// Decodes a page straight into per-column [`ColumnBuilder`]s — the
/// columnar scan path skips `Tuple` boxing entirely: integer and double
/// payloads land in typed vectors, string bytes go into the arena after
/// one UTF-8 validation.
///
/// Every tuple on the page must have arity `builders.len()`; returns the
/// number of rows decoded.
pub fn decode_page_into_builders(data: &[u8], builders: &mut [ColumnBuilder]) -> Result<usize> {
    let mut pos = 0usize;
    let count = read_u16(data, &mut pos)? as usize;
    for _ in 0..count {
        let arity = read_u16(data, &mut pos)? as usize;
        if arity != builders.len() {
            return Err(PyroError::Storage(format!(
                "page tuple arity {arity} does not match column count {}",
                builders.len()
            )));
        }
        for b in builders.iter_mut() {
            let tag = *data
                .get(pos)
                .ok_or_else(|| PyroError::Storage("truncated page: missing tag".into()))?;
            pos += 1;
            match tag {
                TAG_NULL => b.push_null(),
                TAG_INT => b.push_int(i64::from_le_bytes(read_arr(data, &mut pos)?)),
                TAG_DOUBLE => b.push_double(f64::from_le_bytes(read_arr(data, &mut pos)?)),
                TAG_STR => {
                    let len = read_u16(data, &mut pos)? as usize;
                    let bytes = data
                        .get(pos..pos + len)
                        .ok_or_else(|| PyroError::Storage("truncated page: short string".into()))?;
                    pos += len;
                    std::str::from_utf8(bytes)
                        .map_err(|e| PyroError::Storage(format!("bad utf8: {e}")))?;
                    b.push_str_bytes(bytes);
                }
                other => {
                    return Err(PyroError::Storage(format!("unknown value tag {other}")));
                }
            }
        }
    }
    Ok(count)
}

fn read_u16(data: &[u8], pos: &mut usize) -> Result<u16> {
    let bytes: [u8; 2] = data
        .get(*pos..*pos + 2)
        .ok_or_else(|| PyroError::Storage("truncated page: short u16".into()))?
        .try_into()
        .expect("slice of length 2");
    *pos += 2;
    Ok(u16::from_le_bytes(bytes))
}

fn read_arr<const N: usize>(data: &[u8], pos: &mut usize) -> Result<[u8; N]> {
    let bytes: [u8; N] = data
        .get(*pos..*pos + N)
        .ok_or_else(|| PyroError::Storage("truncated page: short payload".into()))?
        .try_into()
        .expect("slice of length N");
    *pos += N;
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(values: Vec<Value>) -> Tuple {
        Tuple::new(values)
    }

    #[test]
    fn roundtrip_mixed_types() {
        let mut b = PageBuilder::new(256);
        let rows = vec![
            t(vec![Value::Int(42), Value::Str("abc".into()), Value::Null]),
            t(vec![
                Value::Double(2.5),
                Value::Int(-1),
                Value::Str("".into()),
            ]),
        ];
        for r in &rows {
            assert!(b.try_push(r).unwrap());
        }
        let decoded = decode_page(&b.take()).unwrap();
        assert_eq!(decoded, rows);
    }

    #[test]
    fn page_fills_and_rejects() {
        let mut b = PageBuilder::new(64);
        let row = t(vec![Value::Int(7), Value::Int(8)]); // 2 + 18 = 20 bytes
        assert!(b.try_push(&row).unwrap()); // 2 + 20 = 22
        assert!(b.try_push(&row).unwrap()); // 42
        assert!(b.try_push(&row).unwrap()); // 62
        assert!(!b.try_push(&row).unwrap()); // would be 82 > 64
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn oversized_tuple_errors() {
        let mut b = PageBuilder::new(64);
        let big = t(vec![Value::Str("x".repeat(100))]);
        assert!(b.try_push(&big).is_err());
    }

    #[test]
    fn take_resets_builder() {
        let mut b = PageBuilder::new(128);
        b.try_push(&t(vec![Value::Int(1)])).unwrap();
        let p1 = b.take();
        assert!(b.is_empty());
        b.try_push(&t(vec![Value::Int(2)])).unwrap();
        let p2 = b.take();
        assert_eq!(decode_page(&p1).unwrap()[0], t(vec![Value::Int(1)]));
        assert_eq!(decode_page(&p2).unwrap()[0], t(vec![Value::Int(2)]));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_page(&[5]).is_err());
        // count says 1 tuple but no data follows
        assert!(decode_page(&1u16.to_le_bytes()).is_err());
        // unknown tag
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&1u16.to_le_bytes());
        bytes.extend_from_slice(&1u16.to_le_bytes());
        bytes.push(99);
        assert!(decode_page(&bytes).is_err());
    }

    #[test]
    fn encoded_len_matches_actual() {
        let row = t(vec![Value::Int(1), Value::Str("hello".into()), Value::Null]);
        let mut b = PageBuilder::new(4096);
        b.try_push(&row).unwrap();
        assert_eq!(b.take().len(), 2 + encoded_len(&row));
    }

    #[test]
    fn empty_page_decodes_empty() {
        let mut b = PageBuilder::new(64);
        assert_eq!(decode_page(&b.take()).unwrap(), Vec::<Tuple>::new());
    }

    #[test]
    fn opening_tuple_is_the_first_encoded_tuple() {
        let rows = [
            t(vec![
                Value::Str("a".into()),
                Value::Double(1.5),
                Value::Null,
            ]),
            t(vec![Value::Int(2), Value::Str("bb".into()), Value::Null]),
        ];
        let mut b = PageBuilder::new(256);
        assert!(b.opening_tuple().is_none());
        for r in &rows {
            b.try_push(r).unwrap();
            let opening = EncodedTuple(b.opening_tuple().unwrap());
            assert_eq!(opening.decode().unwrap(), rows[0]);
        }
        let opening = b.opening_tuple().unwrap().to_vec();
        let page = b.take();
        assert!(b.opening_tuple().is_none(), "take resets the opening tuple");
        assert_eq!(first_tuple(&page).unwrap(), opening);
        assert!(first_tuple(&b.take()).is_err(), "an empty page has none");
        assert!(first_tuple(&page[..page.len() - 20]).is_err(), "truncated");
    }

    #[test]
    fn cmp_prefix_reads_columns_in_place() {
        let mut b = PageBuilder::new(256);
        b.try_push(&t(vec![Value::Int(5), Value::Str("m".into()), Value::Null]))
            .unwrap();
        let e = EncodedTuple(b.opening_tuple().unwrap());
        let cmp = |cols: &[usize], key: &[Value]| e.cmp_prefix(cols, key).unwrap();
        assert_eq!(cmp(&[0], &[Value::Int(5)]), Ordering::Equal);
        assert_eq!(cmp(&[0], &[Value::Double(5.5)]), Ordering::Less);
        assert_eq!(cmp(&[1], &[Value::Str("a".into())]), Ordering::Greater);
        assert_eq!(cmp(&[1], &[Value::Int(9)]), Ordering::Greater, "type rank");
        assert_eq!(cmp(&[1], &[Value::Null]), Ordering::Less, "nulls last");
        assert_eq!(cmp(&[2], &[Value::Null]), Ordering::Equal);
        assert_eq!(
            cmp(&[0, 2], &[Value::Int(5), Value::Str("z".into())]),
            Ordering::Greater
        );
        assert_eq!(
            cmp(&[1, 0], &[Value::Str("m".into()), Value::Int(6)]),
            Ordering::Less
        );
        assert!(e.cmp_prefix(&[3], &[Value::Int(0)]).is_err());
    }
}
