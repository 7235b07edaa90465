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

/// The top-level keys a projected parse builds: sorted, without
/// duplicates. The compiler derives them from the FLWOR that scans the
/// file (DESIGN.md §9, "Projection pushdown").
pub type Fields = Arc<[Arc<str>]>;

/// Streaming builder: receives parser events and assembles the item tree
/// bottom-up. Reuse one builder for many documents (a partition, a JSON
/// Lines text): the items it builds then share one `Arc<str>` per repeated
/// key and short value, and its stacks are allocated once.
///
/// A builder made with [`ItemBuilder::projecting`] builds, of a top-level
/// object, only the members whose key is in its [`Fields`]. It declines the
/// other members' values, which the parser then validates without events
/// (`jsonlite::JsonSink::skip_value`); their decimals still reach the
/// builder's check, so a document fails exactly as a full parse would.
#[derive(Default)]
pub struct ItemBuilder {
    /// The completed values of every open frame, innermost frame last.
    items: Vec<Item>,
    /// The keys of the members of every open object frame, in order.
    keys: Vec<Arc<str>>,
    frames: Vec<Frame>,
    result: Option<Item>,
    strings: HashSet<Arc<str>, BuildHasherDefault<FxHasher>>,
    /// The builder's own copies of the projected top-level keys; `None`
    /// builds every member.
    kept: Option<Box<[Arc<str>]>>,
    /// Set by `key` when the member it names is not kept, and taken by the
    /// parser's `skip_value` right after.
    declined: bool,
}

/// An open object or array: where its values (and keys) start.
struct Frame {
    items: usize,
    keys: usize,
}

/// The decimal `raw` names, or the parse error a number the builder
/// cannot hold raises, built or skipped.
fn parse_decimal(raw: &str) -> jsonlite::Result<Dec> {
    raw.parse().map_err(|_| JsonError::sink(format!("bad decimal {raw}")))
}

impl ItemBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// A builder that keeps, of each top-level object, only the members
    /// keyed in `fields`; `None` builds every member. A document that is
    /// not an object is built whole.
    ///
    /// The builder copies the names: every kept key of its items clones
    /// one of those copies. `fields` is shared by every partition of a scan
    /// on every executor thread, so cloning its `Arc`s would make every
    /// object of every partition bump the same atomic reference counts,
    /// and the threads would contend for those cache lines.
    pub fn projecting(fields: Option<Fields>) -> Self {
        let kept = fields.map(|f| f.iter().map(|k| Arc::from(k.as_ref())).collect());
        ItemBuilder { kept, ..Self::default() }
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

    /// Parses every non-blank line of a JSON Lines text; an error names its
    /// line.
    pub fn parse_lines(&mut self, text: &str) -> Result<Vec<Item>> {
        let mut out = Vec::new();
        for (line_no, line) in jsonlite::JsonLines::new(text) {
            let item = self.parse(line).map_err(|mut e| {
                e.message = format!("line {line_no}: {}", e.message);
                e
            })?;
            out.push(item);
        }
        Ok(out)
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
        let d = parse_decimal(raw)?;
        self.emit(Item::decimal(d))
    }
    fn skipped_decimal(&mut self, raw: &str) -> jsonlite::Result<()> {
        parse_decimal(raw).map(drop)
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
        // Only a key of the top-level object arrives with one frame open:
        // an array has no keys.
        let k = match (&self.kept, self.frames.len()) {
            (Some(kept), 1) => match kept.iter().find(|f| f.as_ref() == k) {
                Some(f) => Arc::clone(f),
                None => {
                    self.declined = true;
                    return Ok(());
                }
            },
            _ => self.intern(k),
        };
        self.keys.push(k);
        Ok(())
    }
    fn skip_value(&mut self) -> bool {
        std::mem::take(&mut self.declined)
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
    ItemBuilder::new().parse_lines(text)
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
    use sparklite::rdd::util::SplitMix64;

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

    fn fields(keys: &[&str]) -> Fields {
        keys.iter().map(|k| Arc::from(*k)).collect()
    }

    fn projected(keys: &[&str], text: &str) -> Result<Item> {
        ItemBuilder::projecting(Some(fields(keys))).parse(text)
    }

    /// The full item with, of a top-level object, only the members keyed
    /// in `keys`.
    fn restricted(item: Item, keys: &[&str]) -> Item {
        match item.as_object() {
            Some(o) => Item::Object(Arc::new(Object::new(
                o.pairs().iter().filter(|(k, _)| keys.contains(&k.as_ref())).cloned().collect(),
            ))),
            None => item,
        }
    }

    #[test]
    fn a_projected_parse_builds_only_the_named_top_level_members() {
        let text = r#"{"a": {"a": 1, "b": [2, {"b": 3}]}, "b": {"a": 4}, "c": [[], {}], "d": 5}"#;
        let item = projected(&["a", "d"], text).unwrap();
        assert_eq!(item.serialize(), r#"{"a":{"a":1,"b":[2,{"b":3}]},"d":5}"#);
        assert_eq!(item, restricted(item_from_json(text).unwrap(), &["a", "d"]));
        // Inner keys are never filtered, projected names or not; a skipped
        // member is skipped whatever it holds.
        assert_eq!(projected(&["b"], text).unwrap().serialize(), r#"{"b":{"a":4}}"#);
        assert_eq!(projected(&[], text).unwrap().serialize(), "{}");
        // A document that is not an object is built whole.
        for whole in [r#"[{"x": 1}, 2]"#, "7", r#""s""#, "null"] {
            assert_eq!(projected(&["a"], whole).unwrap(), item_from_json(whole).unwrap());
        }
    }

    /// Each builder clones its own copies of the kept names into its items,
    /// not the `Fields` entries: one `Fields` is shared by every partition
    /// of a scan on every executor thread, and cloning its `Arc`s would make
    /// all of them contend for the same atomic reference counts.
    #[test]
    fn kept_keys_are_the_builders_own_copies() {
        let shared = fields(&["a", "b"]);
        let kept = |b: &mut ItemBuilder| {
            let item = b.parse(r#"{"a": 1, "c": 2, "b": 3}"#).unwrap();
            item.as_object().unwrap().pairs().iter().map(|(k, _)| Arc::clone(k)).collect::<Vec<_>>()
        };
        let (mut one, mut two) = (
            ItemBuilder::projecting(Some(Arc::clone(&shared))),
            ItemBuilder::projecting(Some(Arc::clone(&shared))),
        );
        let (first, again, other) = (kept(&mut one), kept(&mut one), kept(&mut two));
        assert_eq!(first.iter().map(|k| k.as_ref()).collect::<Vec<_>>(), ["a", "b"]);
        for (i, key) in first.iter().enumerate() {
            assert!(Arc::ptr_eq(key, &again[i]), "one builder: one copy per name");
            assert!(!Arc::ptr_eq(key, &other[i]), "another builder: its own copy");
            assert!(!shared.iter().any(|f| Arc::ptr_eq(key, f)), "not the shared entry");
        }
    }

    #[test]
    fn duplicate_kept_keys_stay_in_order_and_the_last_wins() {
        let item = projected(&["a"], r#"{"a": 1, "b": 2, "a": [3], "c": 4, "a": 5}"#).unwrap();
        let o = item.as_object().unwrap();
        assert_eq!(o.keys().map(|k| k.as_ref()).collect::<Vec<_>>(), ["a", "a", "a"]);
        assert_eq!(o.get("a"), Some(&Item::Integer(5)));
        assert_eq!(item.serialize(), r#"{"a":1,"a":[3],"a":5}"#);
    }

    #[test]
    fn a_skipped_member_fails_exactly_as_a_full_parse() {
        let big = "1234567890123456789012345678901234567890"; // 40 digits
        for text in [
            r#"{"a": 1, "b": [1, {"c": }]}"#,
            r#"{"a": 1, "b": {"c": [1, 2}, "d": 3}"#,
            r#"{"a": 1, "b": "unterminated}"#,
            r#"{"a": 1, "b": tru}"#,
            r#"{"a": 1, "b": 01}"#,
            &format!(r#"{{"a": 1, "b": {big}}}"#),
            &format!(r#"{{"a": 1, "b": [{{"c": -{big}}}]}}"#),
            r#"{"a": 1, "b": 2} trailing"#,
        ] {
            let full = item_from_json(text).unwrap_err();
            let projected = projected(&["a"], text).unwrap_err();
            assert_eq!(projected.code, codes::BAD_INPUT, "{text}");
            assert_eq!(projected.message, full.message, "{text}");
        }
        // A number the builder can hold passes in both, and is dropped.
        let text = r#"{"a": 1, "b": 12345678901234567890123456.5}"#;
        assert!(item_from_json(text).is_ok());
        assert_eq!(projected(&["a"], text).unwrap().serialize(), r#"{"a":1}"#);
    }

    #[test]
    fn a_reused_builder_is_clean_after_an_error_inside_a_skipped_member() {
        let mut b = ItemBuilder::projecting(Some(fields(&["a"])));
        assert!(b.parse(r#"{"a": 1, "b": [[{"c": [1, 2"#).is_err());
        assert!(b.items.is_empty() && b.keys.is_empty() && b.frames.is_empty(), "no stale frames");
        assert!(!b.declined, "no stale verdict");
        let text = r#"{"b": [1], "a": {"b": 2}}"#;
        assert_eq!(b.parse(text).unwrap().serialize(), r#"{"a":{"b":2}}"#);
        assert_eq!(b.parse_lines(&format!("{text}\n[1]\n")).unwrap().len(), 2);
    }

    /// A random JSON value over a small key alphabet, so that documents
    /// repeat keys and nest projected names.
    fn random_value(rng: &mut SplitMix64, depth: u32, out: &mut String) {
        let pick = if depth >= 3 { rng.next_below(8) } else { rng.next_below(10) };
        match pick {
            0 => out.push_str("null"),
            1 => out.push_str(["true", "false"][rng.next_below(2) as usize]),
            2 => out.push_str(&(rng.next_u64() as i64 >> rng.next_below(64)).to_string()),
            3 => out.push_str(["1.25", "-0.5", "1e3", "-2.5E-2", "0"][rng.next_below(5) as usize]),
            // Decimals past `i64`, some past the builder's 128 bits, with
            // and without a fraction.
            4 => {
                out.push_str(&"9".repeat(19 + rng.next_below(24) as usize));
                if rng.next_below(2) == 0 {
                    out.push_str(".5");
                }
            }
            // Escapes, a 2-byte scalar and a surrogate pair, short and past
            // the parser's 8-byte string chunks.
            5 => out.push_str(
                [
                    r#""x\"y""#,
                    r#""a longer value with \"quotes\" and \\ in it""#,
                    r#""caf\u00e9 then café, past eight bytes""#,
                    r#""pair \ud83d\ude00 and \n after é""#,
                ][rng.next_below(4) as usize],
            ),
            6 | 7 => out.push_str(&format!("\"s{}\"", rng.next_below(5))),
            8 => {
                out.push('[');
                for i in 0..rng.next_below(4) {
                    if i > 0 {
                        out.push(',');
                    }
                    random_value(rng, depth + 1, out);
                }
                out.push(']');
            }
            _ => random_object(rng, depth, out),
        }
    }

    fn random_object(rng: &mut SplitMix64, depth: u32, out: &mut String) {
        const KEYS: [&str; 4] = ["a", "b", "c", "a\\u0062"]; // the last is "ab"
        out.push('{');
        for i in 0..rng.next_below(6) {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":", KEYS[rng.next_below(4) as usize]));
            random_value(rng, depth + 1, out);
        }
        out.push('}');
    }

    #[test]
    fn projected_parses_of_random_documents_match_the_restricted_full_parse() {
        let mut rng = SplitMix64::new(0x5EED);
        let mut checked_errors = 0;
        for _ in 0..3000 {
            let mut text = String::new();
            // Mostly objects: what a projection applies to.
            match rng.next_below(5) {
                0 => random_value(&mut rng, 1, &mut text),
                _ => random_object(&mut rng, 1, &mut text),
            }
            // One document in five is cut short or gets a stray byte.
            // (At a char boundary: a string may hold multi-byte scalars.)
            let boundary = |text: &str, mut at: usize| {
                while !text.is_char_boundary(at) {
                    at -= 1;
                }
                at
            };
            match rng.next_below(10) {
                0 => text.truncate(boundary(&text, rng.next_below(text.len() as u64) as usize)),
                1 => text
                    .insert(boundary(&text, rng.next_below(text.len() as u64 + 1) as usize), ':'),
                _ => {}
            }
            let keys: Vec<&str> =
                ["a", "b", "c", "ab"].into_iter().filter(|_| rng.next_below(2) == 0).collect();
            match (item_from_json(&text), projected(&keys, &text)) {
                (Ok(full), Ok(projected)) => {
                    assert_eq!(projected, restricted(full, &keys), "{text} over {keys:?}")
                }
                (Err(full), Err(projected)) => {
                    assert_eq!(projected.message, full.message, "{text}");
                    checked_errors += 1;
                }
                (full, projected) => {
                    panic!("{text} over {keys:?}: full {full:?}, projected {projected:?}")
                }
            }
        }
        assert!(checked_errors > 300, "too few failing documents: {checked_errors}");
    }
}
