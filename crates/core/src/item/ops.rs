//! Value semantics of the JDM: arithmetic with numeric promotion,
//! comparison, effective boolean value, deep equality, and grouping-key
//! normalization.

use super::{Dec, Item};
use crate::error::{codes, Result, RumbleError};
use sparklite::dataframe::Value;
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

fn type_err2(op: &str, a: &Item, b: &Item) -> RumbleError {
    RumbleError::type_err(format!(
        "{op} is not defined for {} and {}",
        a.type_name(),
        b.type_name()
    ))
}

/// Numeric promotion order: integer → decimal → double.
enum NumPair {
    Int(i64, i64),
    Dec(Dec, Dec),
    Dbl(f64, f64),
}

fn promote(op: &str, a: &Item, b: &Item) -> Result<NumPair> {
    use Item::*;
    Ok(match (a, b) {
        (Integer(x), Integer(y)) => NumPair::Int(*x, *y),
        (Integer(x), Decimal(y)) => NumPair::Dec(Dec::from_i64(*x), **y),
        (Decimal(x), Integer(y)) => NumPair::Dec(**x, Dec::from_i64(*y)),
        (Decimal(x), Decimal(y)) => NumPair::Dec(**x, **y),
        (Double(x), other) => NumPair::Dbl(*x, other.as_f64().ok_or_else(|| type_err2(op, a, b))?),
        (other, Double(y)) => NumPair::Dbl(other.as_f64().ok_or_else(|| type_err2(op, a, b))?, *y),
        _ => return Err(type_err2(op, a, b)),
    })
}

fn overflow(op: &str) -> RumbleError {
    RumbleError::dynamic(codes::NUMERIC_OVERFLOW, format!("numeric overflow in {op}"))
}

fn div_zero() -> RumbleError {
    RumbleError::dynamic(codes::DIV_BY_ZERO, "division by zero")
}

/// `+`
pub fn item_add(a: &Item, b: &Item) -> Result<Item> {
    match promote("+", a, b)? {
        NumPair::Int(x, y) => x.checked_add(y).map(Item::Integer).ok_or_else(|| overflow("+")),
        NumPair::Dec(x, y) => x.checked_add(y).map(Item::decimal).ok_or_else(|| overflow("+")),
        NumPair::Dbl(x, y) => Ok(Item::Double(x + y)),
    }
}

/// `-` (binary)
pub fn item_sub(a: &Item, b: &Item) -> Result<Item> {
    match promote("-", a, b)? {
        NumPair::Int(x, y) => x.checked_sub(y).map(Item::Integer).ok_or_else(|| overflow("-")),
        NumPair::Dec(x, y) => x.checked_sub(y).map(Item::decimal).ok_or_else(|| overflow("-")),
        NumPair::Dbl(x, y) => Ok(Item::Double(x - y)),
    }
}

/// `*`
pub fn item_mul(a: &Item, b: &Item) -> Result<Item> {
    match promote("*", a, b)? {
        NumPair::Int(x, y) => x.checked_mul(y).map(Item::Integer).ok_or_else(|| overflow("*")),
        NumPair::Dec(x, y) => x.checked_mul(y).map(Item::decimal).ok_or_else(|| overflow("*")),
        NumPair::Dbl(x, y) => Ok(Item::Double(x * y)),
    }
}

/// `div` — integer division yields a decimal, per JSONiq.
pub fn item_div(a: &Item, b: &Item) -> Result<Item> {
    match promote("div", a, b)? {
        NumPair::Int(x, y) => {
            Dec::from_i64(x).checked_div(Dec::from_i64(y)).map(Item::decimal).ok_or_else(div_zero)
        }
        NumPair::Dec(x, y) => x.checked_div(y).map(Item::decimal).ok_or_else(div_zero),
        NumPair::Dbl(x, y) => Ok(Item::Double(x / y)), // IEEE semantics: ±INF/NaN
    }
}

/// `idiv`
pub fn item_idiv(a: &Item, b: &Item) -> Result<Item> {
    match promote("idiv", a, b)? {
        NumPair::Int(x, y) => {
            if y == 0 {
                Err(div_zero())
            } else {
                x.checked_div(y).map(Item::Integer).ok_or_else(|| overflow("idiv"))
            }
        }
        NumPair::Dec(x, y) => x.checked_idiv(y).map(Item::Integer).ok_or_else(div_zero),
        NumPair::Dbl(x, y) => {
            if y == 0.0 {
                Err(div_zero())
            } else {
                let q = (x / y).trunc();
                if q.is_finite() && (i64::MIN as f64..=i64::MAX as f64).contains(&q) {
                    Ok(Item::Integer(q as i64))
                } else {
                    Err(overflow("idiv"))
                }
            }
        }
    }
}

/// `mod`
pub fn item_mod(a: &Item, b: &Item) -> Result<Item> {
    match promote("mod", a, b)? {
        NumPair::Int(x, y) => {
            if y == 0 {
                Err(div_zero())
            } else {
                Ok(Item::Integer(x.wrapping_rem(y)))
            }
        }
        NumPair::Dec(x, y) => x.checked_rem(y).map(Item::decimal).ok_or_else(div_zero),
        NumPair::Dbl(x, y) => Ok(Item::Double(x % y)),
    }
}

/// Unary `-`
pub fn item_neg(a: &Item) -> Result<Item> {
    match a {
        Item::Integer(x) => x.checked_neg().map(Item::Integer).ok_or_else(|| overflow("-")),
        Item::Decimal(d) => Ok(Item::decimal(d.neg())),
        Item::Double(x) => Ok(Item::Double(-x)),
        other => {
            Err(RumbleError::type_err(format!("unary - is not defined for {}", other.type_name())))
        }
    }
}

/// Value comparison for atomics (`eq`, `lt`, … and order-by keys).
///
/// JSONiq's `null` is comparable with every atomic and sorts below
/// everything. Comparing a string with a number (or any other incompatible
/// pair) is a type error.
pub fn value_compare(a: &Item, b: &Item) -> Result<Ordering> {
    use Item::*;
    match (a, b) {
        (Null, Null) => Ok(Ordering::Equal),
        (Null, _) => Ok(Ordering::Less),
        (_, Null) => Ok(Ordering::Greater),
        (Boolean(x), Boolean(y)) => Ok(x.cmp(y)),
        (Str(x), Str(y)) => Ok(x.as_ref().cmp(y.as_ref())),
        (Integer(x), Integer(y)) => Ok(x.cmp(y)),
        (Integer(x), Decimal(y)) => Ok(Dec::from_i64(*x).cmp(y.as_ref())),
        (Decimal(x), Integer(y)) => Ok(x.as_ref().cmp(&Dec::from_i64(*y))),
        (Decimal(x), Decimal(y)) => Ok(x.cmp(y)),
        (x, y) if x.is_numeric() && y.is_numeric() => {
            // At least one double: IEEE total order via total_cmp.
            let (fx, fy) = (x.as_f64().expect("numeric"), y.as_f64().expect("numeric"));
            Ok(fx.total_cmp(&fy))
        }
        _ => Err(type_err2("comparison", a, b)),
    }
}

/// Equality used by general comparisons and `distinct-values`: same as
/// [`value_compare`] but incompatible atomic types are simply unequal
/// rather than an error (general comparisons are existential and must not
/// fail on heterogeneous data).
pub fn atomic_equal(a: &Item, b: &Item) -> bool {
    // NaN equals nothing, not even itself (value-comparison semantics;
    // sorting and grouping use the total order / key normalization
    // instead).
    if is_nan(a) || is_nan(b) {
        return false;
    }
    match value_compare(a, b) {
        Ok(o) => o == Ordering::Equal,
        Err(_) => false,
    }
}

/// Is this item a double NaN?
pub fn is_nan(i: &Item) -> bool {
    matches!(i, Item::Double(v) if v.is_nan())
}

/// Structural deep equality across all item kinds.
pub fn deep_equal(a: &Item, b: &Item) -> bool {
    use Item::*;
    match (a, b) {
        (Array(x), Array(y)) => {
            x.len() == y.len() && x.iter().zip(y.iter()).all(|(a, b)| deep_equal(a, b))
        }
        (Object(x), Object(y)) => {
            x.len() == y.len()
                && x.keys().all(|k| match (x.get(k), y.get(k)) {
                    (Some(va), Some(vb)) => deep_equal(va, vb),
                    _ => false,
                })
        }
        (Array(_), _) | (_, Array(_)) | (Object(_), _) | (_, Object(_)) => false,
        _ => atomic_equal(a, b),
    }
}

/// Effective boolean value of a sequence (`fn:boolean`, `where`,
/// predicates, `if`): empty → false; singleton null → false; boolean → its
/// value; string → non-empty; number → non-zero and not NaN; object/array
/// → true. Longer sequences are a type error.
pub fn effective_boolean_value(s: &[Item]) -> Result<bool> {
    match s {
        [] => Ok(false),
        [one] => Ok(match one {
            Item::Null => false,
            Item::Boolean(b) => *b,
            Item::Str(v) => !v.is_empty(),
            Item::Integer(v) => *v != 0,
            Item::Decimal(d) => !d.is_zero(),
            Item::Double(v) => *v != 0.0 && !v.is_nan(),
            Item::Array(_) | Item::Object(_) => true,
        }),
        _ => Err(RumbleError::type_err(
            "effective boolean value of a sequence of more than one item",
        )),
    }
}

/// A normalized grouping key (§4.7): the empty sequence, null, booleans,
/// strings, and numbers (unified numerically, so `1`, `1.0` and `1e0` fall
/// into the same group). Hashable and equatable, as the shuffle requires.
#[derive(Debug, Clone)]
pub enum GroupKey {
    Empty,
    Null,
    Bool(bool),
    Str(Arc<str>),
    /// Normalized numeric value. `-0.0` maps to `0.0`; NaN is canonical.
    Num(f64),
}

impl GroupKey {
    /// The key's one native DataFrame cell. The paper spreads a key over
    /// three Spark columns (type tag, string, double) because a Spark column
    /// holds one type; a sparklite column holds any `Value`, so the cell's
    /// variant is the tag: empty → `Null`, `null` → `Bool(false)`, booleans
    /// → `I64` 0/1, numbers → `F64` (normalized), strings → `Str`. A
    /// `KeyValue` never equates cells of different variants, so distinct
    /// keys stay distinct groups.
    pub fn to_value(&self) -> Value {
        match self {
            GroupKey::Empty => Value::Null,
            GroupKey::Null => Value::Bool(false),
            GroupKey::Bool(b) => Value::I64(*b as i64),
            GroupKey::Str(s) => Value::Str(Arc::clone(s)),
            GroupKey::Num(n) => Value::F64(*n),
        }
    }

    /// The inverse of [`to_value`](Self::to_value); `None` for a cell it
    /// never writes.
    pub fn from_value(v: &Value) -> Option<GroupKey> {
        Some(match v {
            Value::Null => GroupKey::Empty,
            Value::Bool(false) => GroupKey::Null,
            Value::I64(b) => GroupKey::Bool(*b != 0),
            Value::Str(s) => GroupKey::Str(Arc::clone(s)),
            Value::F64(n) => GroupKey::Num(*n),
            _ => return None,
        })
    }

    /// The item this key stands for (the empty variant yields `None`).
    pub fn to_item(&self) -> Option<Item> {
        match self {
            GroupKey::Empty => None,
            GroupKey::Null => Some(Item::Null),
            GroupKey::Bool(b) => Some(Item::Boolean(*b)),
            GroupKey::Str(s) => Some(Item::Str(Arc::clone(s))),
            GroupKey::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    Some(Item::Integer(*n as i64))
                } else {
                    Some(Item::Double(*n))
                }
            }
        }
    }
}

fn norm_f64(v: f64) -> f64 {
    if v == 0.0 {
        0.0 // collapse -0.0
    } else if v.is_nan() {
        f64::NAN // canonical NaN bits via the constant
    } else {
        v
    }
}

impl PartialEq for GroupKey {
    fn eq(&self, other: &Self) -> bool {
        use GroupKey::*;
        match (self, other) {
            (Empty, Empty) | (Null, Null) => true,
            (Bool(a), Bool(b)) => a == b,
            (Str(a), Str(b)) => a == b,
            (Num(a), Num(b)) => norm_f64(*a).to_bits() == norm_f64(*b).to_bits(),
            _ => false,
        }
    }
}
impl Eq for GroupKey {}

impl Hash for GroupKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            GroupKey::Empty => state.write_u8(1),
            GroupKey::Null => state.write_u8(2),
            GroupKey::Bool(true) => state.write_u8(3),
            GroupKey::Bool(false) => state.write_u8(4),
            GroupKey::Str(s) => {
                state.write_u8(5);
                state.write(s.as_bytes());
            }
            GroupKey::Num(n) => {
                state.write_u8(6);
                state.write_u64(norm_f64(*n).to_bits());
            }
        }
    }
}

/// Normalizes a grouping-variable value into a [`GroupKey`]. Unlike SQL,
/// heterogeneous keys across the collection are fine (§4.7); but a single
/// key must be the empty sequence or one atomic item.
pub fn group_key(s: &[Item]) -> Result<GroupKey> {
    match s {
        [] => Ok(GroupKey::Empty),
        [one] => match one {
            Item::Null => Ok(GroupKey::Null),
            Item::Boolean(b) => Ok(GroupKey::Bool(*b)),
            Item::Str(v) => Ok(GroupKey::Str(Arc::clone(v))),
            Item::Integer(v) => Ok(GroupKey::Num(norm_f64(*v as f64))),
            Item::Decimal(d) => Ok(GroupKey::Num(norm_f64(d.to_f64()))),
            Item::Double(v) => Ok(GroupKey::Num(norm_f64(*v))),
            other => Err(RumbleError::type_err(format!(
                "grouping keys must be atomic, got {}",
                other.type_name()
            ))),
        },
        _ => Err(RumbleError::type_err("grouping keys must be single items or empty")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dec(s: &str) -> Item {
        Item::decimal(s.parse().unwrap())
    }

    #[test]
    fn promotion_ladder() {
        assert_eq!(item_add(&Item::Integer(1), &Item::Integer(2)).unwrap(), Item::Integer(3));
        assert_eq!(item_add(&Item::Integer(1), &dec("0.5")).unwrap(), dec("1.5"));
        assert_eq!(item_add(&dec("0.1"), &dec("0.2")).unwrap(), dec("0.3"));
        assert_eq!(item_add(&Item::Integer(1), &Item::Double(0.5)).unwrap(), Item::Double(1.5));
        assert_eq!(item_add(&dec("0.5"), &Item::Double(1.0)).unwrap(), Item::Double(1.5));
    }

    #[test]
    fn division_semantics() {
        // Integer div yields a decimal.
        assert_eq!(item_div(&Item::Integer(1), &Item::Integer(4)).unwrap(), dec("0.25"));
        assert!(item_div(&Item::Integer(1), &Item::Integer(0)).is_err());
        // Double division follows IEEE.
        let inf = item_div(&Item::Double(1.0), &Item::Double(0.0)).unwrap();
        assert_eq!(inf.as_f64().unwrap(), f64::INFINITY);
        assert_eq!(item_idiv(&Item::Integer(7), &Item::Integer(2)).unwrap(), Item::Integer(3));
        assert_eq!(item_mod(&Item::Integer(7), &Item::Integer(2)).unwrap(), Item::Integer(1));
        assert_eq!(item_mod(&Item::Integer(-7), &Item::Integer(2)).unwrap(), Item::Integer(-1));
    }

    #[test]
    fn overflow_is_an_error_not_a_wrap() {
        assert!(item_add(&Item::Integer(i64::MAX), &Item::Integer(1)).is_err());
        assert!(item_mul(&Item::Integer(i64::MAX), &Item::Integer(2)).is_err());
        assert!(item_neg(&Item::Integer(i64::MIN)).is_err());
    }

    #[test]
    fn arithmetic_type_errors() {
        assert!(item_add(&Item::str("a"), &Item::Integer(1)).is_err());
        assert!(item_add(&Item::Null, &Item::Integer(1)).is_err());
        assert!(item_neg(&Item::str("a")).is_err());
    }

    #[test]
    fn comparison_semantics() {
        use std::cmp::Ordering::*;
        assert_eq!(value_compare(&Item::Integer(1), &dec("1.0")).unwrap(), Equal);
        assert_eq!(value_compare(&Item::Integer(1), &Item::Double(1.5)).unwrap(), Less);
        assert_eq!(value_compare(&Item::str("a"), &Item::str("b")).unwrap(), Less);
        // null is comparable with and below everything.
        assert_eq!(value_compare(&Item::Null, &Item::Integer(-999)).unwrap(), Less);
        assert_eq!(value_compare(&Item::Null, &Item::Null).unwrap(), Equal);
        // string vs number is a *type error* for value comparison...
        assert!(value_compare(&Item::str("1"), &Item::Integer(1)).is_err());
        // ...but simply unequal for general-comparison equality.
        assert!(!atomic_equal(&Item::str("1"), &Item::Integer(1)));
    }

    #[test]
    fn effective_boolean_values() {
        assert!(!effective_boolean_value(&[]).unwrap());
        assert!(!effective_boolean_value(&[Item::Null]).unwrap());
        assert!(!effective_boolean_value(&[Item::str("")]).unwrap());
        assert!(effective_boolean_value(&[Item::str("x")]).unwrap());
        assert!(!effective_boolean_value(&[Item::Integer(0)]).unwrap());
        assert!(effective_boolean_value(&[Item::Double(0.5)]).unwrap());
        assert!(!effective_boolean_value(&[Item::Double(f64::NAN)]).unwrap());
        assert!(effective_boolean_value(&[Item::array(vec![])]).unwrap());
        assert!(effective_boolean_value(&[Item::Integer(1), Item::Integer(2)]).is_err());
    }

    #[test]
    fn deep_equality() {
        let a = Item::object_from(vec![
            ("x", Item::Integer(1)),
            ("y", Item::array(vec![Item::str("a"), Item::Null])),
        ]);
        let b = Item::object_from(vec![
            ("y", Item::array(vec![Item::str("a"), Item::Null])),
            ("x", Item::decimal("1.0".parse().unwrap())),
        ]);
        assert!(deep_equal(&a, &b), "key order does not matter, numerics unify");
        let c = Item::object_from(vec![("x", Item::Integer(2))]);
        assert!(!deep_equal(&a, &c));
    }

    #[test]
    fn group_keys_unify_numbers_like_the_paper() {
        // The §4.7 example: "foo", 1, 1, "foo", true gives 3 groups.
        let keys = [
            group_key(&[Item::str("foo")]).unwrap(),
            group_key(&[Item::Integer(1)]).unwrap(),
            group_key(&[Item::Double(1.0)]).unwrap(),
            group_key(&[Item::str("foo")]).unwrap(),
            group_key(&[Item::Boolean(true)]).unwrap(),
            group_key(&[]).unwrap(),
        ];
        let set: std::collections::HashSet<&GroupKey> = keys.iter().collect();
        assert_eq!(set.len(), 4); // foo, 1, true, empty

        assert!(group_key(&[Item::array(vec![])]).is_err());
        assert!(group_key(&[Item::Integer(1), Item::Integer(2)]).is_err());
    }

    #[test]
    fn group_key_cell_round_trip() {
        let keys = [
            GroupKey::Empty,
            GroupKey::Null,
            GroupKey::Bool(true),
            GroupKey::Bool(false),
            GroupKey::Str(Arc::from("x")),
            GroupKey::Num(7.0),
            GroupKey::Num(-1.5),
        ];
        for k in keys {
            assert_eq!(GroupKey::from_value(&k.to_value()), Some(k.clone()), "{k:?}");
        }
        assert_eq!(GroupKey::from_value(&Value::Bool(true)), None);
    }

    #[test]
    fn group_key_cells_keep_distinct_keys_apart() {
        use sparklite::dataframe::KeyValue;
        let cell = |s: &[Item]| KeyValue(group_key(s).unwrap().to_value());
        assert_eq!(cell(&[Item::Integer(1)]), cell(&[Item::Double(1.0)]));
        assert_eq!(cell(&[Item::Integer(0)]), cell(&[Item::Double(-0.0)]));
        let distinct = [
            cell(&[Item::Integer(1)]),
            cell(&[Item::str("1")]),
            cell(&[Item::Boolean(true)]),
            cell(&[Item::Boolean(false)]),
            cell(&[Item::str("true")]),
            cell(&[Item::Null]),
            cell(&[]),
        ];
        for (i, a) in distinct.iter().enumerate() {
            for b in &distinct[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn group_key_item_recovery() {
        assert_eq!(group_key(&[Item::Integer(7)]).unwrap().to_item(), Some(Item::Integer(7)));
        assert_eq!(group_key(&[Item::Double(1.5)]).unwrap().to_item(), Some(Item::Double(1.5)));
        assert_eq!(group_key(&[]).unwrap().to_item(), None);
    }
}
