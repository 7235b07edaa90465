//! A compact binary codec for [`Row`]s, so DataFrames can persist at
//! [`StorageLevel::MemorySerialized`](crate::cache::StorageLevel) with real
//! byte accounting: tag byte per value, LEB128 varints for lengths and
//! zigzag-encoded integers, IEEE-754 bits for floats.

use super::{Row, Value};
use crate::cache::CacheCodec;
use std::sync::Arc;

const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_I64: u8 = 3;
const TAG_F64: u8 = 4;
const TAG_STR: u8 = 5;
const TAG_BIN: u8 = 6;
const TAG_LIST: u8 = 7;

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

fn write_vari(out: &mut Vec<u8>, v: i64) {
    write_varu(out, ((v << 1) ^ (v >> 63)) as u64);
}

fn write_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_FALSE),
        Value::Bool(true) => out.push(TAG_TRUE),
        Value::I64(i) => {
            out.push(TAG_I64);
            write_vari(out, *i);
        }
        Value::F64(f) => {
            out.push(TAG_F64);
            out.extend_from_slice(&f.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            write_varu(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
        Value::Bin(_) | Value::Ext(_) => {
            let b = v.bin_bytes().expect("binary cell");
            out.push(TAG_BIN);
            write_varu(out, b.len() as u64);
            out.extend_from_slice(&b);
        }
        Value::List(items) => {
            out.push(TAG_LIST);
            write_varu(out, items.len() as u64);
            for item in items.iter() {
                write_value(out, item);
            }
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn corrupt(&self) -> String {
        format!("corrupt row block at byte {}", self.pos)
    }

    fn byte(&mut self) -> Result<u8, String> {
        let b = *self.buf.get(self.pos).ok_or_else(|| self.corrupt())?;
        self.pos += 1;
        Ok(b)
    }

    fn bytes(&mut self, n: usize) -> Result<&[u8], String> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        let end = end.ok_or_else(|| self.corrupt())?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn varu(&mut self) -> Result<u64, String> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(self.corrupt())
    }

    fn vari(&mut self) -> Result<i64, String> {
        let z = self.varu()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    fn value(&mut self) -> Result<Value, String> {
        Ok(match self.byte()? {
            TAG_NULL => Value::Null,
            TAG_FALSE => Value::Bool(false),
            TAG_TRUE => Value::Bool(true),
            TAG_I64 => Value::I64(self.vari()?),
            TAG_F64 => {
                let raw = self.bytes(8)?;
                Value::F64(f64::from_le_bytes(raw.try_into().expect("8 bytes")))
            }
            TAG_STR => {
                let n = self.varu()? as usize;
                let err = self.corrupt();
                let raw = self.bytes(n)?;
                let s = std::str::from_utf8(raw).map_err(|_| err)?;
                Value::Str(Arc::from(s))
            }
            TAG_BIN => {
                let n = self.varu()? as usize;
                Value::Bin(Arc::from(self.bytes(n)?))
            }
            TAG_LIST => {
                let n = self.varu()? as usize;
                if n > self.buf.len() {
                    return Err(self.corrupt());
                }
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(self.value()?);
                }
                Value::List(Arc::new(items))
            }
            _ => return Err(self.corrupt()),
        })
    }

    fn row(&mut self) -> Result<Row, String> {
        let n = self.varu()? as usize;
        if n > self.buf.len() {
            return Err(self.corrupt());
        }
        let mut row = Vec::with_capacity(n);
        for _ in 0..n {
            row.push(self.value()?);
        }
        Ok(row)
    }
}

/// The [`CacheCodec`] for DataFrame rows.
pub struct RowCodec;

impl CacheCodec<Row> for RowCodec {
    fn encode(&self, rows: &[Row]) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 * rows.len() + 4);
        write_varu(&mut out, rows.len() as u64);
        for row in rows {
            write_varu(&mut out, row.len() as u64);
            for v in row {
                write_value(&mut out, v);
            }
        }
        out
    }

    fn decode(&self, bytes: &[u8]) -> Result<Vec<Row>, String> {
        let mut r = Reader { buf: bytes, pos: 0 };
        let n = r.varu()? as usize;
        if n > bytes.len() {
            return Err(r.corrupt());
        }
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            rows.push(r.row()?);
        }
        if r.pos != bytes.len() {
            return Err(r.corrupt());
        }
        Ok(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(rows: Vec<Row>) {
        let enc = RowCodec.encode(&rows);
        assert_eq!(RowCodec.decode(&enc).expect("decodes"), rows);
    }

    #[test]
    fn roundtrips_every_value_kind() {
        roundtrip(vec![
            vec![
                Value::Null,
                Value::Bool(true),
                Value::Bool(false),
                Value::I64(-42),
                Value::I64(i64::MAX),
                Value::F64(1.5),
                Value::str("héllo"),
                Value::Bin(Arc::from(&b"\x00\xFF"[..])),
                Value::list(vec![Value::I64(1), Value::list(vec![Value::Null])]),
            ],
            vec![],
            vec![Value::str("")],
        ]);
        roundtrip(vec![]);
    }

    #[test]
    fn rejects_truncated_input() {
        let enc = RowCodec.encode(&[vec![Value::str("abcdef")]]);
        assert!(RowCodec.decode(&enc[..enc.len() - 1]).is_err());
        assert!(RowCodec.decode(&[0xFF]).is_err());
    }
}
