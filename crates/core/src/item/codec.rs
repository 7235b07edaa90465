//! A compact binary codec for items and item sequences.
//!
//! This is the stand-in for Spark's Kryo/Java serialization: when FLWOR
//! tuple streams become DataFrames, every variable's sequence of items is
//! serialized into a binary column (§4.3), and this codec defines that
//! encoding. It is also what shuffle byte-accounting measures.
//!
//! Layout: one tag byte per item, then a type-specific payload.
//! Variable-length integers use LEB128; strings are length-prefixed UTF-8.
//!
//! Repeated strings are dictionary-encoded within one buffer (the same
//! trick as Kryo's reference tracking): the first occurrence of a short
//! string is written literally and assigned the next index; later
//! occurrences are written as a back-reference. Row-oriented data repeats
//! object keys and low-cardinality values constantly, so this both
//! shrinks the encoding and turns most of the decode work into table
//! lookups instead of allocation + UTF-8 validation.

use super::{Dec, Item, Object};
use crate::error::{codes, Result, RumbleError};
use sparklite::rdd::util::FxHashMap;
use std::sync::Arc;

const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_DEC: u8 = 4;
const TAG_DBL: u8 = 5;
const TAG_STR: u8 = 6;
const TAG_ARR: u8 = 7;
const TAG_OBJ: u8 = 8;
/// A back-reference to an earlier string in the same buffer.
const TAG_STRREF: u8 = 9;

/// Strings longer than this are never dictionary-tracked (repeats are
/// unlikely and hashing them is not free).
const DICT_MAX_LEN: usize = 64;
/// Caps the per-buffer dictionary, bounding encoder/decoder memory.
const DICT_MAX_ENTRIES: usize = 1 << 16;

fn write_varu(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn write_vari(out: &mut Vec<u8>, v: i64) {
    write_varu(out, zigzag(v));
}

/// The per-buffer encoder dictionary: string content → assigned index.
/// Indices are assigned in occurrence order, which the decoder reproduces
/// exactly, so no table is ever written out.
type EncDict<'a> = FxHashMap<&'a str, u32>;

/// Looks `s` up in the dictionary, tracking it on a miss. Returns the
/// back-reference index on a hit.
fn dict_probe<'a>(dict: &mut EncDict<'a>, s: &'a str) -> Option<u32> {
    if s.len() > DICT_MAX_LEN {
        return None;
    }
    if let Some(&idx) = dict.get(s) {
        return Some(idx);
    }
    if dict.len() < DICT_MAX_ENTRIES {
        dict.insert(s, dict.len() as u32);
    }
    None
}

/// An object key: `0 idx` for a back-reference, `len+1 bytes` otherwise.
fn write_key<'a>(out: &mut Vec<u8>, s: &'a str, dict: &mut EncDict<'a>) {
    match dict_probe(dict, s) {
        Some(idx) => {
            write_varu(out, 0);
            write_varu(out, idx as u64);
        }
        None => {
            write_varu(out, s.len() as u64 + 1);
            out.extend_from_slice(s.as_bytes());
        }
    }
}

fn encode_into<'a>(item: &'a Item, out: &mut Vec<u8>, dict: &mut EncDict<'a>) {
    match item {
        Item::Null => out.push(TAG_NULL),
        Item::Boolean(false) => out.push(TAG_FALSE),
        Item::Boolean(true) => out.push(TAG_TRUE),
        Item::Integer(v) => {
            out.push(TAG_INT);
            write_vari(out, *v);
        }
        Item::Decimal(d) => {
            out.push(TAG_DEC);
            // Mantissa as two 64-bit halves plus the scale.
            let m = d.mantissa();
            out.extend_from_slice(&m.to_le_bytes());
            write_varu(out, d.scale() as u64);
        }
        Item::Double(v) => {
            out.push(TAG_DBL);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Item::Str(s) => match dict_probe(dict, s) {
            Some(idx) => {
                out.push(TAG_STRREF);
                write_varu(out, idx as u64);
            }
            None => {
                out.push(TAG_STR);
                write_varu(out, s.len() as u64);
                out.extend_from_slice(s.as_bytes());
            }
        },
        Item::Array(items) => {
            out.push(TAG_ARR);
            write_varu(out, items.len() as u64);
            for i in items.iter() {
                encode_into(i, out, dict);
            }
        }
        Item::Object(o) => {
            out.push(TAG_OBJ);
            write_varu(out, o.len() as u64);
            for (k, v) in o.pairs() {
                write_key(out, k, dict);
                encode_into(v, out, dict);
            }
        }
    }
}

/// Appends the encoding of one item (a self-contained buffer: any
/// dictionary references stay within this one encoding).
pub fn encode_item(item: &Item, out: &mut Vec<u8>) {
    let mut dict = EncDict::default();
    encode_into(item, out, &mut dict);
}

/// Bridges this codec into sparklite's partition cache: sequences
/// persisted at `StorageLevel::MemorySerialized` are stored as
/// [`encode_items`] bytes, so the cache's byte accounting measures the
/// same encoding the shuffle layer does.
pub struct ItemCacheCodec;

impl sparklite::CacheCodec<Item> for ItemCacheCodec {
    fn encode(&self, items: &[Item]) -> Vec<u8> {
        encode_items(items)
    }

    fn decode(&self, bytes: &[u8]) -> std::result::Result<Vec<Item>, String> {
        decode_items(bytes).map_err(|e| e.to_string())
    }
}

/// Encodes a sequence of items: a count followed by the items. The whole
/// sequence shares one dictionary, so strings repeating across rows (keys,
/// low-cardinality values) are stored once per buffer.
pub fn encode_items(items: &[Item]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 * items.len() + 4);
    let mut dict = EncDict::default();
    write_varu(&mut out, items.len() as u64);
    for i in items {
        encode_into(i, &mut out, &mut dict);
    }
    out
}

const INTERN_MAX_LEN: usize = 64;
const INTERN_MAX_ENTRIES: usize = 8192;

type InternSet = std::collections::HashSet<
    Arc<str>,
    std::hash::BuildHasherDefault<sparklite::rdd::util::FxHasher>,
>;

thread_local! {
    static STR_INTERN: std::cell::RefCell<InternSet> =
        std::cell::RefCell::new(InternSet::default());
}

/// Returns a (probably shared) `Arc<str>` for `s`. Object keys and short
/// string values repeat heavily in row-oriented data, so each executor
/// thread keeps a bounded dictionary and hands out clones of the first
/// allocation instead of fresh copies — decoding a cached partition then
/// costs one hash probe per string instead of one heap allocation.
fn intern(s: &str) -> Arc<str> {
    if s.len() > INTERN_MAX_LEN {
        return Arc::from(s);
    }
    STR_INTERN.with(|cell| {
        let mut set = cell.borrow_mut();
        if let Some(hit) = set.get(s) {
            return Arc::clone(hit);
        }
        let fresh: Arc<str> = Arc::from(s);
        if set.len() < INTERN_MAX_ENTRIES {
            set.insert(Arc::clone(&fresh));
        }
        fresh
    })
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Decoded strings in occurrence order — mirrors the encoder's
    /// dictionary, resolving back-references.
    table: Vec<Arc<str>>,
}

impl<'a> Reader<'a> {
    fn corrupt(&self) -> RumbleError {
        RumbleError::dynamic(
            codes::BAD_INPUT,
            format!("corrupt item encoding at byte {}", self.pos),
        )
    }

    fn byte(&mut self) -> Result<u8> {
        let b = *self.buf.get(self.pos).ok_or_else(|| self.corrupt())?;
        self.pos += 1;
        Ok(b)
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or_else(|| self.corrupt())?;
        if end > self.buf.len() {
            return Err(self.corrupt());
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn varu(&mut self) -> Result<u64> {
        let mut v = 0u64;
        let mut shift = 0;
        loop {
            let b = self.byte()?;
            v |= ((b & 0x7F) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift >= 64 {
                return Err(self.corrupt());
            }
        }
    }

    /// Decodes a literal string of `len` bytes and tracks it in the
    /// reference table under the same rule the encoder uses.
    fn literal(&mut self, len: usize) -> Result<Arc<str>> {
        let err = self.corrupt();
        let bytes = self.bytes(len)?;
        let s = std::str::from_utf8(bytes).map(intern).map_err(|_| err)?;
        if s.len() <= DICT_MAX_LEN && self.table.len() < DICT_MAX_ENTRIES {
            self.table.push(Arc::clone(&s));
        }
        Ok(s)
    }

    fn str_ref(&mut self) -> Result<Arc<str>> {
        let idx = self.varu()? as usize;
        self.table.get(idx).cloned().ok_or_else(|| self.corrupt())
    }

    fn str(&mut self) -> Result<Arc<str>> {
        let len = self.varu()? as usize;
        self.literal(len)
    }

    /// An object key: `0` introduces a back-reference, otherwise the
    /// length is stored plus one.
    fn key(&mut self) -> Result<Arc<str>> {
        match self.varu()? {
            0 => self.str_ref(),
            n => self.literal(n as usize - 1),
        }
    }

    fn item(&mut self) -> Result<Item> {
        Ok(match self.byte()? {
            TAG_NULL => Item::Null,
            TAG_FALSE => Item::Boolean(false),
            TAG_TRUE => Item::Boolean(true),
            TAG_INT => Item::Integer(unzigzag(self.varu()?)),
            TAG_DEC => {
                let m = i128::from_le_bytes(self.bytes(16)?.try_into().expect("16 bytes"));
                let scale = self.varu()? as u32;
                Item::decimal(Dec::new(m, scale))
            }
            TAG_DBL => {
                Item::Double(f64::from_le_bytes(self.bytes(8)?.try_into().expect("8 bytes")))
            }
            TAG_STR => Item::Str(self.str()?),
            TAG_STRREF => Item::Str(self.str_ref()?),
            TAG_ARR => {
                let n = self.varu()? as usize;
                if n > self.buf.len() - self.pos.min(self.buf.len()) {
                    return Err(self.corrupt());
                }
                let mut items = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    items.push(self.item()?);
                }
                Item::Array(Arc::new(items))
            }
            TAG_OBJ => {
                let n = self.varu()? as usize;
                if n > self.buf.len() - self.pos.min(self.buf.len()) {
                    return Err(self.corrupt());
                }
                let mut pairs = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    let k = self.key()?;
                    pairs.push((k, self.item()?));
                }
                Item::Object(Arc::new(Object::new(pairs)))
            }
            _ => return Err(self.corrupt()),
        })
    }
}

/// Decodes one item from the front of `buf`.
pub fn decode_item(buf: &[u8]) -> Result<Item> {
    let mut r = Reader { buf, pos: 0, table: Vec::new() };
    r.item()
}

/// Decodes a sequence encoded with [`encode_items`].
pub fn decode_items(buf: &[u8]) -> Result<Vec<Item>> {
    let mut r = Reader { buf, pos: 0, table: Vec::new() };
    let n = r.varu()? as usize;
    if n > buf.len() {
        return Err(r.corrupt());
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.item()?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::item_from_json;

    #[test]
    fn roundtrip_every_kind() {
        let items = vec![
            Item::Null,
            Item::Boolean(true),
            Item::Boolean(false),
            Item::Integer(0),
            Item::Integer(-1),
            Item::Integer(i64::MAX),
            Item::Integer(i64::MIN),
            Item::decimal("123.456".parse().unwrap()),
            Item::decimal("-0.000001".parse().unwrap()),
            Item::Double(std::f64::consts::E),
            Item::Double(f64::NEG_INFINITY),
            Item::str(""),
            Item::str("héllo — 😀"),
            Item::array(vec![Item::Integer(1), Item::str("x"), Item::array(vec![])]),
            item_from_json(r#"{"a": {"b": [1, 2.5, null]}, "c": true}"#).unwrap(),
        ];
        let enc = encode_items(&items);
        let back = decode_items(&enc).unwrap();
        assert_eq!(back.len(), items.len());
        for (a, b) in items.iter().zip(&back) {
            assert_eq!(a, b);
            // Decimal scale survives, not just numeric value.
            assert_eq!(a.type_name(), b.type_name());
        }
    }

    #[test]
    fn boxed_decimals_encode_decode_and_compare_by_value() {
        use crate::item::{deep_equal, group_key, value_compare};
        use std::cmp::Ordering;
        let texts = [
            "-0.05",
            "0.05",
            "123456789012345678901234567890",
            "-12345678901234567890.1234567890",
            "1.50",
            "0",
        ];
        for t in texts {
            let d: Dec = t.parse().unwrap();
            let item = Item::decimal(d);
            // The bytes depend on the value alone: tag, 16-byte mantissa,
            // scale; the box adds nothing.
            let mut want = vec![TAG_DEC];
            want.extend_from_slice(&d.mantissa().to_le_bytes());
            write_varu(&mut want, d.scale() as u64);
            let mut enc = Vec::new();
            encode_item(&item, &mut enc);
            assert_eq!(enc, want, "{t}");
            let back = decode_item(&enc).unwrap();
            let Item::Decimal(b) = &back else { panic!("{t} decodes to a decimal") };
            assert_eq!((b.mantissa(), b.scale()), (d.mantissa(), d.scale()), "{t}");
            assert!(deep_equal(&item, &back));
            assert_eq!(value_compare(&item, &back).unwrap(), Ordering::Equal);
            assert_eq!(
                group_key(std::slice::from_ref(&back)).unwrap(),
                group_key(std::slice::from_ref(&item)).unwrap()
            );
            assert_eq!(back.serialize(), d.to_string());
        }
        let items: Vec<Item> = texts.iter().map(|t| Item::decimal(t.parse().unwrap())).collect();
        let back = decode_items(&encode_items(&items)).unwrap();
        for (i, a) in back.iter().enumerate() {
            for (j, b) in back.iter().enumerate() {
                let (x, y): (Dec, Dec) = (texts[i].parse().unwrap(), texts[j].parse().unwrap());
                assert_eq!(value_compare(a, b).unwrap(), x.cmp(&y), "{} vs {}", texts[i], texts[j]);
                assert_eq!(deep_equal(a, b), x == y);
            }
        }
        // A scaled decimal still equals the integer and double of its value.
        let one_half = Item::decimal("0.50".parse().unwrap());
        assert!(deep_equal(&one_half, &Item::Double(0.5)));
        assert!(deep_equal(&Item::decimal("2.0".parse().unwrap()), &Item::Integer(2)));
        assert_eq!(group_key(&[one_half]).unwrap(), group_key(&[Item::Double(0.5)]).unwrap());
    }

    #[test]
    fn nan_roundtrips() {
        let enc = encode_items(&[Item::Double(f64::NAN)]);
        let back = decode_items(&enc).unwrap();
        assert!(back[0].as_f64().unwrap().is_nan());
    }

    #[test]
    fn empty_sequence() {
        let enc = encode_items(&[]);
        assert_eq!(decode_items(&enc).unwrap(), Vec::<Item>::new());
    }

    #[test]
    fn corrupt_input_is_an_error_not_a_panic() {
        assert!(decode_items(&[]).is_err());
        assert!(decode_items(&[200]).is_err());
        assert!(decode_item(&[TAG_STR, 10, b'a']).is_err());
        assert!(decode_item(&[TAG_ARR, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F]).is_err());
        let mut good = encode_items(&[Item::str("hello")]);
        good.truncate(good.len() - 2);
        assert!(decode_items(&good).is_err());
    }

    #[test]
    fn varint_zigzag() {
        for v in [0i64, 1, -1, 63, -64, 300, -300, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }
}
