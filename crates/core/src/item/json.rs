//! JSON ↔ item bridging: a [`jsonlite::JsonSink`] that builds items
//! directly — no intermediate DOM, the JSONiter trick of §5.7 — plus item
//! serialization back to JSON text.

use super::{Dec, Item, Object};
use crate::error::{codes, Result, RumbleError};
use jsonlite::{JsonError, JsonWriter};
use sparklite::rdd::util::FxHasher;
use std::collections::HashSet;
use std::hash::BuildHasherDefault;
use std::sync::Arc;

/// String values longer than this are not interned: short values (codes,
/// enum-like fields, dates) repeat across rows, long ones rarely do. Keys
/// are interned whatever their length.
const INTERN_MAX_LEN: usize = 32;
/// Bounds the string table. A full table starts over empty, so values
/// that never repeat cannot crowd out the ones that do for long.
const INTERN_MAX_ENTRIES: usize = 1024;

/// Streaming builder: receives parser events and assembles the item tree
/// bottom-up. Reuse one builder for many documents (a partition, a JSON
/// Lines text): the items it builds then share one `Arc<str>` per repeated
/// key and short value, and its stacks are allocated once.
#[derive(Default)]
pub struct ItemBuilder {
    /// The completed values of every open frame, innermost frame last.
    items: Vec<Item>,
    /// The keys of the members of every open object frame, in order.
    keys: Vec<Arc<str>>,
    frames: Vec<Frame>,
    result: Option<Item>,
    strings: HashSet<Arc<str>, BuildHasherDefault<FxHasher>>,
}

/// An open object or array: where its values (and keys) start.
struct Frame {
    items: usize,
    keys: usize,
}

impl ItemBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Parses one JSON document into an item. A malformed document is a
    /// `BAD_INPUT` error and leaves the builder ready for the next one.
    pub fn parse(&mut self, text: &str) -> Result<Item> {
        let parsed = jsonlite::parse(text, self);
        let result = self.result.take();
        if let Err(e) = parsed {
            self.items.clear();
            self.keys.clear();
            self.frames.clear();
            return Err(RumbleError::dynamic(codes::BAD_INPUT, format!("malformed JSON: {e}")));
        }
        Ok(result.expect("a successful parse yields a value"))
    }

    /// The table's shared copy of `s`, added on a miss.
    fn intern(&mut self, s: &str) -> Arc<str> {
        if let Some(hit) = self.strings.get(s) {
            return Arc::clone(hit);
        }
        if self.strings.len() == INTERN_MAX_ENTRIES {
            self.strings.clear();
        }
        let fresh: Arc<str> = Arc::from(s);
        self.strings.insert(Arc::clone(&fresh));
        fresh
    }

    fn emit(&mut self, item: Item) -> jsonlite::Result<()> {
        if self.frames.is_empty() {
            self.result = Some(item);
        } else {
            self.items.push(item);
        }
        Ok(())
    }

    fn begin(&mut self) -> jsonlite::Result<()> {
        self.frames.push(Frame { items: self.items.len(), keys: self.keys.len() });
        Ok(())
    }

    fn end(&mut self) -> Frame {
        self.frames.pop().expect("events are well-bracketed")
    }
}

impl jsonlite::JsonSink for ItemBuilder {
    fn null(&mut self) -> jsonlite::Result<()> {
        self.emit(Item::Null)
    }
    fn boolean(&mut self, v: bool) -> jsonlite::Result<()> {
        self.emit(Item::Boolean(v))
    }
    fn integer(&mut self, v: i64) -> jsonlite::Result<()> {
        self.emit(Item::Integer(v))
    }
    fn decimal(&mut self, raw: &str) -> jsonlite::Result<()> {
        let d: Dec = raw.parse().map_err(|_| JsonError::sink(format!("bad decimal {raw}")))?;
        self.emit(Item::decimal(d))
    }
    fn double(&mut self, v: f64) -> jsonlite::Result<()> {
        self.emit(Item::Double(v))
    }
    fn string(&mut self, v: &str) -> jsonlite::Result<()> {
        let s = if v.len() <= INTERN_MAX_LEN { self.intern(v) } else { Arc::from(v) };
        self.emit(Item::Str(s))
    }
    fn begin_object(&mut self) -> jsonlite::Result<()> {
        self.begin()
    }
    fn key(&mut self, k: &str) -> jsonlite::Result<()> {
        let k = self.intern(k);
        self.keys.push(k);
        Ok(())
    }
    fn end_object(&mut self) -> jsonlite::Result<()> {
        let f = self.end();
        let mut pairs = Vec::with_capacity(self.items.len() - f.items);
        pairs.extend(self.keys.drain(f.keys..).zip(self.items.drain(f.items..)));
        self.emit(Item::Object(Arc::new(Object::new(pairs))))
    }
    fn begin_array(&mut self) -> jsonlite::Result<()> {
        self.begin()
    }
    fn end_array(&mut self) -> jsonlite::Result<()> {
        let f = self.end();
        let mut items = Vec::with_capacity(self.items.len() - f.items);
        items.extend(self.items.drain(f.items..));
        self.emit(Item::Array(Arc::new(items)))
    }
}

/// Parses one JSON document into an item.
pub fn item_from_json(text: &str) -> Result<Item> {
    ItemBuilder::new().parse(text)
}

/// Parses every line of a JSON Lines document through one builder.
pub fn items_from_json_lines(text: &str) -> Result<Vec<Item>> {
    let mut builder = ItemBuilder::new();
    let mut out = Vec::new();
    for (line_no, line) in jsonlite::JsonLines::new(text) {
        let item = builder.parse(line).map_err(|mut e| {
            e.message = format!("line {line_no}: {}", e.message);
            e
        })?;
        out.push(item);
    }
    Ok(out)
}

/// Writes one item into a [`JsonWriter`].
pub fn write_item(item: &Item, w: &mut JsonWriter) {
    match item {
        Item::Null => w.null(),
        Item::Boolean(b) => w.boolean(*b),
        Item::Integer(v) => w.integer(*v),
        Item::Decimal(d) => w.raw_number(&d.to_string()),
        Item::Double(v) => w.double(*v),
        Item::Str(s) => w.string(s),
        Item::Array(items) => {
            w.begin_array();
            for i in items.iter() {
                write_item(i, w);
            }
            w.end_array();
        }
        Item::Object(o) => {
            w.begin_object();
            for (k, v) in o.pairs() {
                w.key(k);
                write_item(v, w);
            }
            w.end_object();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_items_with_number_taxonomy() {
        let item = item_from_json(r#"{"a": [1, 2.5, 3e1], "b": null, "c": "x"}"#).unwrap();
        let o = item.as_object().unwrap();
        let a = o.get("a").unwrap().as_array().unwrap();
        assert!(matches!(a[0], Item::Integer(1)));
        assert!(matches!(a[1], Item::Decimal(_)));
        assert!(matches!(a[2], Item::Double(_)));
        assert!(o.get("b").unwrap().is_null());
    }

    #[test]
    fn serialize_roundtrip() {
        let text = r#"{"guess":"French","n":3,"deep":{"xs":[1,2.25,true,null]}}"#;
        let item = item_from_json(text).unwrap();
        let back = item_from_json(&item.serialize()).unwrap();
        assert_eq!(item, back);
    }

    #[test]
    fn json_lines() {
        let items = items_from_json_lines("{\"a\":1}\n\n{\"a\":2}\n").unwrap();
        assert_eq!(items.len(), 2);
        let err = items_from_json_lines("{\"a\":1}\nnot json\n").unwrap_err();
        assert!(err.message.contains("line 2"));
    }

    #[test]
    fn one_text_shares_one_arc_per_key_and_short_value() {
        let items =
            items_from_json_lines("{\"lang\":\"French\",\"n\":1}\n{\"n\":2,\"lang\":\"French\"}\n")
                .unwrap();
        let (a, b) = (items[0].as_object().unwrap(), items[1].as_object().unwrap());
        let key = |o: &Object, i: usize| Arc::clone(&o.pairs()[i].0);
        assert!(Arc::ptr_eq(&key(a, 0), &key(b, 1)), "\"lang\" is one Arc");
        assert!(Arc::ptr_eq(&key(a, 1), &key(b, 0)), "\"n\" is one Arc");
        let (Some(Item::Str(x)), Some(Item::Str(y))) = (a.get("lang"), b.get("lang")) else {
            panic!("string values")
        };
        assert!(Arc::ptr_eq(x, y), "a short repeated value is one Arc");
    }

    #[test]
    fn a_long_value_is_not_interned() {
        let long = "x".repeat(INTERN_MAX_LEN + 1);
        let text = format!("{{\"v\":\"{long}\"}}\n{{\"v\":\"{long}\"}}\n");
        let items = items_from_json_lines(&text).unwrap();
        let v = |i: usize| match items[i].as_object().unwrap().get("v") {
            Some(Item::Str(s)) => Arc::clone(s),
            _ => panic!("a string value"),
        };
        assert_eq!(v(0), v(1));
        assert!(!Arc::ptr_eq(&v(0), &v(1)));
    }

    #[test]
    fn containers_are_exact_size_and_keep_document_order() {
        let item =
            item_from_json(r#"{"a": 1, "b": [1, [2, 3], {}], "a": 2, "c": {"d": []}}"#).unwrap();
        let o = item.as_object().unwrap();
        let keys: Vec<&str> = o.keys().map(|k| k.as_ref()).collect();
        assert_eq!(keys, ["a", "b", "a", "c"]);
        assert_eq!(o.pairs()[0].1, Item::Integer(1), "both duplicates are kept in order");
        assert_eq!(o.get("a"), Some(&Item::Integer(2)), "lookup returns the last");
        let b = o.get("b").unwrap().as_array().unwrap();
        assert_eq!((b.len(), b.capacity()), (3, 3));
        let inner = b[1].as_array().unwrap();
        assert_eq!((inner.len(), inner.capacity()), (2, 2));
        assert!(b[2].as_object().unwrap().is_empty());
        assert_eq!(item.serialize(), r#"{"a":1,"b":[1,[2,3],{}],"a":2,"c":{"d":[]}}"#);
    }

    #[test]
    fn a_reused_builder_recovers_from_a_malformed_line() {
        let (good, bad, next) =
            (r#"{"a":[1,{"b":2}]}"#, r#"{"a":[1,{"b":"#, r#"[true,{"c":null}]"#);
        let e = items_from_json_lines(&format!("{good}\n{bad}\n{next}\n")).unwrap_err();
        assert_eq!(e.code, codes::BAD_INPUT);
        let alone = item_from_json(bad).unwrap_err();
        assert_eq!(e.message, format!("line 2: {}", alone.message));
        assert!(e.message.starts_with("line 2: malformed JSON:"), "{}", e.message);

        let mut b = ItemBuilder::new();
        b.parse(good).unwrap();
        assert_eq!(b.parse(bad).unwrap_err().message, alone.message);
        assert!(b.items.is_empty() && b.keys.is_empty() && b.frames.is_empty(), "no stale frames");
        let again = b.parse(next).unwrap();
        assert_eq!(again, item_from_json(next).unwrap());
        assert_eq!(again.serialize(), next);
    }

    #[test]
    fn a_full_table_starts_over() {
        let mut b = ItemBuilder::new();
        for i in 0..INTERN_MAX_ENTRIES + 10 {
            b.parse(&format!("\"v{i}\"")).unwrap();
            assert!(b.strings.len() <= INTERN_MAX_ENTRIES);
        }
        assert_eq!(b.strings.len(), 10);
    }

    #[test]
    fn malformed_is_bad_input() {
        let e = item_from_json("{").unwrap_err();
        assert_eq!(e.code, codes::BAD_INPUT);
    }
}
