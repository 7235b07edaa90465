//! The JSONiq Data Model (JDM): items.
//!
//! An item is an atomic (null, boolean, number, string), an object, or an
//! array (§2.3). Compound items are `Arc`-shared so cloning an item — which
//! the engine does constantly as items flow between iterators, closures and
//! executor threads — is O(1). The `Item` super-type playing the role of
//! the paper's Java `Item` class hierarchy (§4.1.1): an `Rdd<Item>`
//! naturally supports heterogeneous sequences.
//!
//! Layout: an `Item` is 24 bytes (a tag plus the 16-byte `Arc<str>` of a
//! string), so an object member is 40. The 128-bit decimal is boxed to keep
//! it there; objects and arrays hold exact-size buffers (DESIGN.md §9,
//! "Item layout and the per-partition string table").

mod codec;
mod decimal;
mod json;
mod ops;

pub use codec::{decode_item, decode_items, encode_item, encode_items, ItemCacheCodec};
pub use decimal::Dec;
pub use json::{item_from_json, items_from_json_lines, Fields, ItemBuilder};
pub use ops::{
    atomic_equal, deep_equal, effective_boolean_value, group_key, is_nan, item_add, item_div,
    item_idiv, item_mod, item_mul, item_neg, item_sub, value_compare, GroupKey,
};

use crate::error::{codes, Result, RumbleError};
use std::fmt;
use std::sync::Arc;

/// A JSON object: members in document order with by-key lookup. Duplicate
/// keys keep the last value.
#[derive(Debug, Clone, PartialEq)]
pub struct Object {
    pairs: Box<[(Arc<str>, Item)]>,
}

impl Object {
    /// Takes the members in document order; a vector with spare capacity
    /// is shrunk to fit.
    pub fn new(pairs: Vec<(Arc<str>, Item)>) -> Object {
        Object { pairs: pairs.into_boxed_slice() }
    }

    pub fn get(&self, key: &str) -> Option<&Item> {
        self.pairs.iter().rev().find(|(k, _)| k.as_ref() == key).map(|(_, v)| v)
    }

    pub fn keys(&self) -> impl Iterator<Item = &Arc<str>> {
        self.pairs.iter().map(|(k, _)| k)
    }

    pub fn pairs(&self) -> &[(Arc<str>, Item)] {
        &self.pairs
    }

    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

/// A JSONiq item.
#[derive(Debug, Clone)]
pub enum Item {
    Null,
    Boolean(bool),
    Integer(i64),
    /// Boxed: an inline `Dec` (an `i128` mantissa) would double the size
    /// of every item. `Arc`, so a clone still allocates nothing.
    Decimal(Arc<Dec>),
    Double(f64),
    Str(Arc<str>),
    Array(Arc<Vec<Item>>),
    Object(Arc<Object>),
}

impl Item {
    // ---- constructors ----

    pub fn str(s: impl AsRef<str>) -> Item {
        Item::Str(Arc::from(s.as_ref()))
    }

    pub fn decimal(d: Dec) -> Item {
        Item::Decimal(Arc::new(d))
    }

    pub fn array(items: Vec<Item>) -> Item {
        Item::Array(Arc::new(items))
    }

    pub fn object(pairs: Vec<(Arc<str>, Item)>) -> Item {
        Item::Object(Arc::new(Object::new(pairs)))
    }

    /// Convenience object constructor from string keys.
    pub fn object_from(pairs: Vec<(&str, Item)>) -> Item {
        Item::object(pairs.into_iter().map(|(k, v)| (Arc::from(k), v)).collect())
    }

    // ---- classification ----

    pub fn is_atomic(&self) -> bool {
        !matches!(self, Item::Array(_) | Item::Object(_))
    }

    pub fn is_numeric(&self) -> bool {
        matches!(self, Item::Integer(_) | Item::Decimal(_) | Item::Double(_))
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Item::Null)
    }

    /// The JSONiq type name, as `instance of` and error messages use it.
    pub fn type_name(&self) -> &'static str {
        match self {
            Item::Null => "null",
            Item::Boolean(_) => "boolean",
            Item::Integer(_) => "integer",
            Item::Decimal(_) => "decimal",
            Item::Double(_) => "double",
            Item::Str(_) => "string",
            Item::Array(_) => "array",
            Item::Object(_) => "object",
        }
    }

    // ---- accessors ----

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Item::Boolean(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Item::Integer(v) => Some(*v),
            Item::Decimal(d) => d.to_i64_exact(),
            _ => None,
        }
    }

    /// Numeric value as a double (lossy for big decimals).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Item::Integer(v) => Some(*v as f64),
            Item::Decimal(d) => Some(d.to_f64()),
            Item::Double(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Item::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&Arc<Vec<Item>>> {
        match self {
            Item::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&Arc<Object>> {
        match self {
            Item::Object(o) => Some(o),
            _ => None,
        }
    }

    /// `fn:string` semantics for atomics; errors on objects/arrays.
    pub fn string_value(&self) -> Result<String> {
        match self {
            Item::Null => Ok("null".to_string()),
            Item::Boolean(b) => Ok(b.to_string()),
            Item::Integer(v) => Ok(v.to_string()),
            Item::Decimal(d) => Ok(d.to_string()),
            Item::Double(v) => Ok(format_double(*v)),
            Item::Str(s) => Ok(s.to_string()),
            other => Err(RumbleError::type_err(format!(
                "cannot convert {} to a string",
                other.type_name()
            ))),
        }
    }

    /// Serializes the item to JSON(iq) text.
    pub fn serialize(&self) -> String {
        let mut w = jsonlite::JsonWriter::new();
        json::write_item(self, &mut w);
        w.finish()
    }
}

/// JSONiq double formatting: integral doubles print without a fraction.
pub fn format_double(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 {
            "INF".to_string()
        } else {
            "-INF".to_string()
        }
    } else if v != 0.0 && (v.abs() >= 1e21 || v.abs() < 1e-6) {
        // Scientific notation for extreme magnitudes, like XQuery/JSONiq.
        format!("{v:e}")
    } else {
        v.to_string()
    }
}

impl fmt::Display for Item {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.serialize())
    }
}

/// Structural equality (`deep-equal` semantics): numerics compare by value
/// across integer/decimal/double.
impl PartialEq for Item {
    fn eq(&self, other: &Self) -> bool {
        ops::deep_equal(self, other)
    }
}

/// A materialized sequence of items — the value bound to variables in
/// dynamic contexts and FLWOR tuples. Sequences are flat and a singleton
/// sequence is identified with its item (§2.3).
pub type Sequence = Arc<Vec<Item>>;

/// Builds a sequence from items.
pub fn seq(items: Vec<Item>) -> Sequence {
    Arc::new(items)
}

/// The empty sequence.
pub fn empty_seq() -> Sequence {
    Arc::new(Vec::new())
}

/// Extracts the single item of a sequence, or errors with the given
/// operation name (sequences of 0 or >1 items are not usable where exactly
/// one item is required).
pub fn exactly_one(s: &[Item], what: &str) -> Result<Item> {
    match s.len() {
        1 => Ok(s[0].clone()),
        0 => Err(RumbleError::dynamic(
            codes::TYPE_MISMATCH,
            format!("{what}: empty sequence where exactly one item is required"),
        )),
        n => Err(RumbleError::dynamic(
            codes::SEQUENCE_TOO_LONG,
            format!("{what}: sequence of {n} items where exactly one is required"),
        )),
    }
}

/// Extracts zero or one items.
pub fn zero_or_one(s: &[Item], what: &str) -> Result<Option<Item>> {
    match s.len() {
        0 => Ok(None),
        1 => Ok(Some(s[0].clone())),
        n => Err(RumbleError::dynamic(
            codes::SEQUENCE_TOO_LONG,
            format!("{what}: sequence of {n} items where at most one is allowed"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn item_layout_is_pinned() {
        // Every parsed member pays these sizes; see the module docs.
        assert_eq!(std::mem::size_of::<Item>(), 24);
        assert_eq!(std::mem::size_of::<(Arc<str>, Item)>(), 40);
    }

    #[test]
    fn object_lookup_last_wins() {
        let o = Item::object_from(vec![("a", Item::Integer(1)), ("a", Item::Integer(2))]);
        assert_eq!(o.as_object().unwrap().get("a"), Some(&Item::Integer(2)));
        assert_eq!(o.as_object().unwrap().get("b"), None);
    }

    #[test]
    fn type_names() {
        assert_eq!(Item::Null.type_name(), "null");
        assert_eq!(Item::str("x").type_name(), "string");
        assert_eq!(Item::decimal("1.5".parse().unwrap()).type_name(), "decimal");
        assert_eq!(Item::array(vec![]).type_name(), "array");
    }

    #[test]
    fn string_values() {
        assert_eq!(Item::Integer(42).string_value().unwrap(), "42");
        assert_eq!(Item::Boolean(true).string_value().unwrap(), "true");
        assert_eq!(Item::Double(1e300).string_value().unwrap(), "1e300");
        assert_eq!(Item::Double(2.0).string_value().unwrap(), "2");
        assert_eq!(Item::Double(f64::NAN).string_value().unwrap(), "NaN");
        assert!(Item::array(vec![]).string_value().is_err());
    }

    #[test]
    fn cardinality_helpers() {
        let one = [Item::Integer(1)];
        assert_eq!(exactly_one(&one, "t").unwrap(), Item::Integer(1));
        assert!(exactly_one(&[], "t").is_err());
        assert!(exactly_one(&[Item::Null, Item::Null], "t").is_err());
        assert_eq!(zero_or_one(&[], "t").unwrap(), None);
        assert!(zero_or_one(&[Item::Null, Item::Null], "t").is_err());
    }

    #[test]
    fn numeric_equality_across_types() {
        assert_eq!(Item::Integer(1), Item::decimal("1.0".parse().unwrap()));
        assert_eq!(Item::Integer(1), Item::Double(1.0));
        assert_ne!(Item::Integer(1), Item::str("1"));
    }
}
