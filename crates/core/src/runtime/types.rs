//! Sequence-type matching (`instance of`, `treat as`) and atomic casts
//! (`cast as`, `castable as`).

use crate::error::{codes, Result, RumbleError};
use crate::item::{Dec, Item};
use crate::syntax::ast::{AtomicType, ItemTypeAst, Occurrence, SequenceType};

/// Does one item match an item type?
pub fn item_matches(item: &Item, t: &ItemTypeAst) -> bool {
    match t {
        ItemTypeAst::AnyItem | ItemTypeAst::JsonItem => true,
        ItemTypeAst::Object => matches!(item, Item::Object(_)),
        ItemTypeAst::Array => matches!(item, Item::Array(_)),
        ItemTypeAst::Atomic(a) => match a {
            AtomicType::AnyAtomic => item.is_atomic(),
            AtomicType::String => matches!(item, Item::Str(_)),
            // `integer` is a subtype of `decimal`.
            AtomicType::Integer => matches!(item, Item::Integer(_)),
            AtomicType::Decimal => matches!(item, Item::Integer(_) | Item::Decimal(_)),
            AtomicType::Double => matches!(item, Item::Double(_)),
            AtomicType::Boolean => matches!(item, Item::Boolean(_)),
            AtomicType::Null => matches!(item, Item::Null),
        },
    }
}

/// Does a sequence match a sequence type?
pub fn seq_matches(items: &[Item], st: &SequenceType) -> bool {
    let Some(item_type) = &st.item else {
        return items.is_empty(); // empty-sequence()
    };
    match st.occurrence {
        Occurrence::One => items.len() == 1 && item_matches(&items[0], item_type),
        Occurrence::Optional => {
            items.len() <= 1 && items.iter().all(|i| item_matches(i, item_type))
        }
        Occurrence::Star => items.iter().all(|i| item_matches(i, item_type)),
        Occurrence::Plus => !items.is_empty() && items.iter().all(|i| item_matches(i, item_type)),
    }
}

/// Renders a sequence type for error messages.
pub fn type_to_string(st: &SequenceType) -> String {
    let Some(item) = &st.item else { return "empty-sequence()".to_string() };
    let base = match item {
        ItemTypeAst::AnyItem => "item",
        ItemTypeAst::JsonItem => "json-item",
        ItemTypeAst::Object => "object",
        ItemTypeAst::Array => "array",
        ItemTypeAst::Atomic(a) => a.name(),
    };
    let occ = match st.occurrence {
        Occurrence::One => "",
        Occurrence::Optional => "?",
        Occurrence::Star => "*",
        Occurrence::Plus => "+",
    };
    format!("{base}{occ}")
}

fn cast_fail(item: &Item, target: AtomicType) -> RumbleError {
    RumbleError::dynamic(
        codes::INVALID_CAST,
        format!("cannot cast {} ({}) to {}", item.serialize(), item.type_name(), target.name()),
    )
}

/// Casts one atomic item to a target atomic type (`cast as`).
pub fn cast_item(item: &Item, target: AtomicType) -> Result<Item> {
    use AtomicType::*;
    if !item.is_atomic() {
        return Err(RumbleError::type_err(format!(
            "cannot cast a {} — casts operate on atomics",
            item.type_name()
        )));
    }
    match target {
        AnyAtomic => Ok(item.clone()),
        Null => match item {
            Item::Null => Ok(Item::Null),
            Item::Str(s) if s.as_ref() == "null" => Ok(Item::Null),
            _ => Err(cast_fail(item, target)),
        },
        String => Ok(Item::str(item.string_value()?)),
        Boolean => match item {
            Item::Boolean(b) => Ok(Item::Boolean(*b)),
            Item::Str(s) => match s.trim() {
                "true" | "1" => Ok(Item::Boolean(true)),
                "false" | "0" => Ok(Item::Boolean(false)),
                _ => Err(cast_fail(item, target)),
            },
            Item::Integer(v) => Ok(Item::Boolean(*v != 0)),
            Item::Decimal(d) => Ok(Item::Boolean(!d.is_zero())),
            Item::Double(v) => Ok(Item::Boolean(*v != 0.0 && !v.is_nan())),
            _ => Err(cast_fail(item, target)),
        },
        Integer => match item {
            Item::Integer(v) => Ok(Item::Integer(*v)),
            Item::Decimal(d) => {
                d.trunc_i64().map(Item::Integer).ok_or_else(|| cast_fail(item, target))
            }
            Item::Double(v) => {
                if v.is_finite() && (i64::MIN as f64..=i64::MAX as f64).contains(&v.trunc()) {
                    Ok(Item::Integer(v.trunc() as i64))
                } else {
                    Err(cast_fail(item, target))
                }
            }
            Item::Str(s) => {
                s.trim().parse::<i64>().map(Item::Integer).map_err(|_| cast_fail(item, target))
            }
            Item::Boolean(b) => Ok(Item::Integer(*b as i64)),
            _ => Err(cast_fail(item, target)),
        },
        Decimal => match item {
            Item::Integer(v) => Ok(Item::decimal(Dec::from_i64(*v))),
            Item::Decimal(_) => Ok(item.clone()),
            Item::Double(v) => {
                if v.is_finite() {
                    // Route through the shortest decimal text of the double.
                    v.to_string()
                        .parse::<Dec>()
                        .map(Item::decimal)
                        .map_err(|_| cast_fail(item, target))
                } else {
                    Err(cast_fail(item, target))
                }
            }
            Item::Str(s) => {
                s.trim().parse::<Dec>().map(Item::decimal).map_err(|_| cast_fail(item, target))
            }
            Item::Boolean(b) => Ok(Item::decimal(Dec::from_i64(*b as i64))),
            _ => Err(cast_fail(item, target)),
        },
        Double => match item {
            Item::Integer(v) => Ok(Item::Double(*v as f64)),
            Item::Decimal(d) => Ok(Item::Double(d.to_f64())),
            Item::Double(v) => Ok(Item::Double(*v)),
            Item::Str(s) => match s.trim() {
                "INF" => Ok(Item::Double(f64::INFINITY)),
                "-INF" => Ok(Item::Double(f64::NEG_INFINITY)),
                "NaN" => Ok(Item::Double(f64::NAN)),
                t => t.parse::<f64>().map(Item::Double).map_err(|_| cast_fail(item, target)),
            },
            Item::Boolean(b) => Ok(Item::Double(*b as i64 as f64)),
            _ => Err(cast_fail(item, target)),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::ast::{Occurrence, SequenceType};

    fn st(item: ItemTypeAst, occurrence: Occurrence) -> SequenceType {
        SequenceType { item: Some(item), occurrence }
    }

    #[test]
    fn occurrence_indicators() {
        let int_plus = st(ItemTypeAst::Atomic(AtomicType::Integer), Occurrence::Plus);
        assert!(seq_matches(&[Item::Integer(1), Item::Integer(2)], &int_plus));
        assert!(!seq_matches(&[], &int_plus));
        assert!(!seq_matches(&[Item::Integer(1), Item::str("x")], &int_plus));

        let opt = st(ItemTypeAst::Atomic(AtomicType::String), Occurrence::Optional);
        assert!(seq_matches(&[], &opt));
        assert!(seq_matches(&[Item::str("x")], &opt));
        assert!(!seq_matches(&[Item::str("x"), Item::str("y")], &opt));

        let empty = SequenceType { item: None, occurrence: Occurrence::One };
        assert!(seq_matches(&[], &empty));
        assert!(!seq_matches(&[Item::Null], &empty));
    }

    #[test]
    fn integer_is_a_decimal() {
        let dec = st(ItemTypeAst::Atomic(AtomicType::Decimal), Occurrence::One);
        assert!(seq_matches(&[Item::Integer(1)], &dec));
        assert!(seq_matches(&[Item::decimal("1.5".parse().unwrap())], &dec));
        assert!(!seq_matches(&[Item::Double(1.5)], &dec));
    }

    #[test]
    fn casts() {
        assert_eq!(cast_item(&Item::str("42"), AtomicType::Integer).unwrap(), Item::Integer(42));
        assert_eq!(
            cast_item(&Item::str(" 2.5 "), AtomicType::Decimal).unwrap().type_name(),
            "decimal"
        );
        assert_eq!(cast_item(&Item::Double(2.9), AtomicType::Integer).unwrap(), Item::Integer(2));
        assert_eq!(cast_item(&Item::Boolean(true), AtomicType::Integer).unwrap(), Item::Integer(1));
        assert_eq!(
            cast_item(&Item::str("true"), AtomicType::Boolean).unwrap(),
            Item::Boolean(true)
        );
        assert_eq!(cast_item(&Item::Integer(5), AtomicType::String).unwrap(), Item::str("5"));
        assert_eq!(
            cast_item(&Item::str("INF"), AtomicType::Double).unwrap().as_f64().unwrap(),
            f64::INFINITY
        );
        assert!(cast_item(&Item::str("abc"), AtomicType::Integer).is_err());
        assert!(cast_item(&Item::array(vec![]), AtomicType::String).is_err());
        assert!(cast_item(&Item::Double(f64::NAN), AtomicType::Integer).is_err());
    }
}
