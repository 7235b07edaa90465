//! Scalar expressions over DataFrame rows, with SQL-style three-valued
//! logic, plus the key wrappers (hashable group keys, ordered sort keys)
//! that shuffles and sorts need.

use super::{Schema, Value};
use crate::error::Result;
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A user-defined row function: receives the input schema and the row.
pub type UdfFn = dyn Fn(&Schema, &[Value]) -> Value + Send + Sync;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// Arithmetic operators. `Div` always yields a double (like Spark SQL's
/// `/`); use `Mod` for integer remainders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NumOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

/// An unbound scalar expression (column references by name).
#[derive(Clone)]
pub enum Expr {
    Col(String),
    Lit(Value),
    Cmp(Box<Expr>, CmpOp, Box<Expr>),
    Num(Box<Expr>, NumOp, Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Not(Box<Expr>),
    IsNull(Box<Expr>),
    /// An opaque row function. `uses` lists the columns it reads; `None`
    /// means "unknown — assume all", which blocks pushdown/pruning past it.
    /// `deterministic` is false for a function whose value or error
    /// depends on the other rows it has seen (see [`Expr::nondeterministic`]).
    Udf {
        name: String,
        f: Arc<UdfFn>,
        uses: Option<Vec<String>>,
        deterministic: bool,
    },
}

impl std::fmt::Debug for Expr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Expr::Col(c) => write!(f, "col({c})"),
            Expr::Lit(v) => write!(f, "lit({v})"),
            Expr::Cmp(a, op, b) => write!(f, "({a:?} {op:?} {b:?})"),
            Expr::Num(a, op, b) => write!(f, "({a:?} {op:?} {b:?})"),
            Expr::And(a, b) => write!(f, "({a:?} AND {b:?})"),
            Expr::Or(a, b) => write!(f, "({a:?} OR {b:?})"),
            Expr::Not(a) => write!(f, "(NOT {a:?})"),
            Expr::IsNull(a) => write!(f, "({a:?} IS NULL)"),
            Expr::Udf { name, uses, .. } => write!(f, "udf({name}, uses={uses:?})"),
        }
    }
}

impl Expr {
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Col(name.into())
    }

    pub fn lit(v: Value) -> Expr {
        Expr::Lit(v)
    }

    pub fn cmp(a: Expr, op: CmpOp, b: Expr) -> Expr {
        Expr::Cmp(Box::new(a), op, Box::new(b))
    }

    pub fn num(a: Expr, op: NumOp, b: Expr) -> Expr {
        Expr::Num(Box::new(a), op, Box::new(b))
    }

    pub fn and(a: Expr, b: Expr) -> Expr {
        Expr::And(Box::new(a), Box::new(b))
    }

    pub fn or(a: Expr, b: Expr) -> Expr {
        Expr::Or(Box::new(a), Box::new(b))
    }

    #[allow(clippy::should_implement_trait)] // JSONiq's `not`, not std::ops::Not
    pub fn not(a: Expr) -> Expr {
        Expr::Not(Box::new(a))
    }

    pub fn is_null(a: Expr) -> Expr {
        Expr::IsNull(Box::new(a))
    }

    /// Builds a UDF expression with a declared column footprint.
    pub fn udf(
        name: impl Into<String>,
        uses: Option<Vec<String>>,
        f: impl Fn(&Schema, &[Value]) -> Value + Send + Sync + 'static,
    ) -> Expr {
        Expr::Udf { name: name.into(), f: Arc::new(f), uses, deterministic: true }
    }

    /// Marks a UDF as depending on the other rows it evaluates, as a sort
    /// key's type discovery does: it must see every row its input holds,
    /// so no filter is pushed below a projection computing it, nor below a
    /// sort reading one (Spark keeps filters above nondeterministic
    /// projections alike). Other expressions are returned unchanged.
    pub fn nondeterministic(self) -> Expr {
        match self {
            Expr::Udf { name, f, uses, .. } => Expr::Udf { name, f, uses, deterministic: false },
            e => e,
        }
    }

    /// Whether the tree holds no [`Expr::nondeterministic`] UDF.
    pub fn is_deterministic(&self) -> bool {
        match self {
            Expr::Col(_) | Expr::Lit(_) => true,
            Expr::Cmp(a, _, b) | Expr::Num(a, _, b) | Expr::And(a, b) | Expr::Or(a, b) => {
                a.is_deterministic() && b.is_deterministic()
            }
            Expr::Not(a) | Expr::IsNull(a) => a.is_deterministic(),
            Expr::Udf { deterministic, .. } => *deterministic,
        }
    }

    /// The set of columns this expression reads; `None` if it contains a
    /// UDF with an undeclared footprint.
    pub fn uses(&self) -> Option<BTreeSet<String>> {
        fn walk(e: &Expr, acc: &mut BTreeSet<String>) -> bool {
            match e {
                Expr::Col(c) => {
                    acc.insert(c.clone());
                    true
                }
                Expr::Lit(_) => true,
                Expr::Cmp(a, _, b) | Expr::Num(a, _, b) | Expr::And(a, b) | Expr::Or(a, b) => {
                    walk(a, acc) && walk(b, acc)
                }
                Expr::Not(a) | Expr::IsNull(a) => walk(a, acc),
                Expr::Udf { uses, .. } => match uses {
                    Some(cols) => {
                        acc.extend(cols.iter().cloned());
                        true
                    }
                    None => false,
                },
            }
        }
        let mut acc = BTreeSet::new();
        walk(self, &mut acc).then_some(acc)
    }

    /// Whether the tree contains an opaque row function.
    pub fn has_udf(&self) -> bool {
        match self {
            Expr::Col(_) | Expr::Lit(_) => false,
            Expr::Cmp(a, _, b) | Expr::Num(a, _, b) | Expr::And(a, b) | Expr::Or(a, b) => {
                a.has_udf() || b.has_udf()
            }
            Expr::Not(a) | Expr::IsNull(a) => a.has_udf(),
            Expr::Udf { .. } => true,
        }
    }

    /// True when the expression is a bare column reference to `name`.
    pub fn is_col(&self, name: &str) -> bool {
        matches!(self, Expr::Col(c) if c == name)
    }

    /// Replaces every column reference using `lookup`; used by the
    /// projection-fusion optimizer rule.
    pub fn substitute(&self, lookup: &dyn Fn(&str) -> Option<Expr>) -> Expr {
        match self {
            Expr::Col(c) => lookup(c).unwrap_or_else(|| self.clone()),
            Expr::Lit(_) | Expr::Udf { .. } => self.clone(),
            Expr::Cmp(a, op, b) => {
                Expr::Cmp(Box::new(a.substitute(lookup)), *op, Box::new(b.substitute(lookup)))
            }
            Expr::Num(a, op, b) => {
                Expr::Num(Box::new(a.substitute(lookup)), *op, Box::new(b.substitute(lookup)))
            }
            Expr::And(a, b) => {
                Expr::And(Box::new(a.substitute(lookup)), Box::new(b.substitute(lookup)))
            }
            Expr::Or(a, b) => {
                Expr::Or(Box::new(a.substitute(lookup)), Box::new(b.substitute(lookup)))
            }
            Expr::Not(a) => Expr::Not(Box::new(a.substitute(lookup))),
            Expr::IsNull(a) => Expr::IsNull(Box::new(a.substitute(lookup))),
        }
    }

    /// Resolves column names against `schema`, yielding an executable
    /// expression. Fails on unknown columns — the static half of the
    /// "errors caught before runtime" property SQL-in-strings lacks.
    pub fn bind(&self, schema: &Arc<Schema>) -> Result<BoundExpr> {
        Ok(match self {
            Expr::Col(c) => BoundExpr::Col(schema.resolve(c)?),
            Expr::Lit(v) => BoundExpr::Lit(v.clone()),
            Expr::Cmp(a, op, b) => {
                BoundExpr::Cmp(Box::new(a.bind(schema)?), *op, Box::new(b.bind(schema)?))
            }
            Expr::Num(a, op, b) => {
                BoundExpr::Num(Box::new(a.bind(schema)?), *op, Box::new(b.bind(schema)?))
            }
            Expr::And(a, b) => BoundExpr::And(Box::new(a.bind(schema)?), Box::new(b.bind(schema)?)),
            Expr::Or(a, b) => BoundExpr::Or(Box::new(a.bind(schema)?), Box::new(b.bind(schema)?)),
            Expr::Not(a) => BoundExpr::Not(Box::new(a.bind(schema)?)),
            Expr::IsNull(a) => BoundExpr::IsNull(Box::new(a.bind(schema)?)),
            Expr::Udf { f, uses, .. } => {
                if let Some(cols) = uses {
                    for c in cols {
                        schema.resolve(c)?;
                    }
                }
                BoundExpr::Udf { f: Arc::clone(f), schema: Arc::clone(schema) }
            }
        })
    }
}

/// An expression with column references resolved to row indices.
#[derive(Clone)]
pub enum BoundExpr {
    Col(usize),
    Lit(Value),
    Cmp(Box<BoundExpr>, CmpOp, Box<BoundExpr>),
    Num(Box<BoundExpr>, NumOp, Box<BoundExpr>),
    And(Box<BoundExpr>, Box<BoundExpr>),
    Or(Box<BoundExpr>, Box<BoundExpr>),
    Not(Box<BoundExpr>),
    IsNull(Box<BoundExpr>),
    Udf { f: Arc<UdfFn>, schema: Arc<Schema> },
}

impl BoundExpr {
    /// Evaluates against one row. NULL propagates SQL-style.
    pub fn eval(&self, row: &[Value]) -> Value {
        match self {
            BoundExpr::Col(i) => row[*i].clone(),
            BoundExpr::Lit(v) => v.clone(),
            BoundExpr::Cmp(a, op, b) => eval_cmp(&a.eval(row), *op, &b.eval(row)),
            BoundExpr::Num(a, op, b) => eval_num(&a.eval(row), *op, &b.eval(row)),
            BoundExpr::And(a, b) => match (truth(&a.eval(row)), truth(&b.eval(row))) {
                (Some(false), _) | (_, Some(false)) => Value::Bool(false),
                (Some(true), Some(true)) => Value::Bool(true),
                _ => Value::Null,
            },
            BoundExpr::Or(a, b) => match (truth(&a.eval(row)), truth(&b.eval(row))) {
                (Some(true), _) | (_, Some(true)) => Value::Bool(true),
                (Some(false), Some(false)) => Value::Bool(false),
                _ => Value::Null,
            },
            BoundExpr::Not(a) => match truth(&a.eval(row)) {
                Some(b) => Value::Bool(!b),
                None => Value::Null,
            },
            BoundExpr::IsNull(a) => Value::Bool(a.eval(row).is_null()),
            BoundExpr::Udf { f, schema } => f(schema, row),
        }
    }

    /// Evaluates as a filter predicate: only a definite `TRUE` keeps the row.
    pub fn eval_predicate(&self, row: &[Value]) -> bool {
        truth(&self.eval(row)) == Some(true)
    }
}

/// SQL truth value: `Some(b)` only for booleans, everything else is
/// "unknown" (the columnar kernels share this with the row interpreter).
pub(crate) fn truth(v: &Value) -> Option<bool> {
    match v {
        Value::Bool(b) => Some(*b),
        _ => None,
    }
}

pub(crate) fn eval_cmp(a: &Value, op: CmpOp, b: &Value) -> Value {
    if a.is_null() || b.is_null() {
        return Value::Null;
    }
    let ord = match (a, b) {
        (Value::I64(x), Value::I64(y)) => x.partial_cmp(y),
        (Value::F64(x), Value::F64(y)) => x.partial_cmp(y),
        (Value::I64(x), Value::F64(y)) => (*x as f64).partial_cmp(y),
        (Value::F64(x), Value::I64(y)) => x.partial_cmp(&(*y as f64)),
        (Value::Str(x), Value::Str(y)) => Some(x.as_ref().cmp(y.as_ref())),
        (Value::Bool(x), Value::Bool(y)) => Some(x.cmp(y)),
        // Structural equality only for compound values.
        (Value::List(_), Value::List(_))
        | (Value::Bin(_) | Value::Ext(_), Value::Bin(_) | Value::Ext(_)) => {
            return match op {
                CmpOp::Eq => Value::Bool(a == b),
                CmpOp::Ne => Value::Bool(a != b),
                _ => Value::Null,
            };
        }
        // Incompatible types: equality is false, ordering undefined.
        _ => {
            return match op {
                CmpOp::Eq => Value::Bool(false),
                CmpOp::Ne => Value::Bool(true),
                _ => Value::Null,
            };
        }
    };
    match ord {
        None => Value::Null, // NaN comparisons
        Some(o) => Value::Bool(match op {
            CmpOp::Eq => o == Ordering::Equal,
            CmpOp::Ne => o != Ordering::Equal,
            CmpOp::Lt => o == Ordering::Less,
            CmpOp::Le => o != Ordering::Greater,
            CmpOp::Gt => o == Ordering::Greater,
            CmpOp::Ge => o != Ordering::Less,
        }),
    }
}

pub(crate) fn eval_num(a: &Value, op: NumOp, b: &Value) -> Value {
    if a.is_null() || b.is_null() {
        return Value::Null;
    }
    match (a, b) {
        (Value::I64(x), Value::I64(y)) if op != NumOp::Div => {
            let r = match op {
                NumOp::Add => x.checked_add(*y),
                NumOp::Sub => x.checked_sub(*y),
                NumOp::Mul => x.checked_mul(*y),
                NumOp::Mod => {
                    if *y == 0 {
                        None
                    } else {
                        x.checked_rem(*y)
                    }
                }
                NumOp::Div => unreachable!(),
            };
            r.map(Value::I64).unwrap_or(Value::Null)
        }
        _ => {
            let (Some(x), Some(y)) = (a.as_f64(), b.as_f64()) else {
                return Value::Null;
            };
            let r = match op {
                NumOp::Add => x + y,
                NumOp::Sub => x - y,
                NumOp::Mul => x * y,
                NumOp::Div => x / y,
                NumOp::Mod => x % y,
            };
            Value::F64(r)
        }
    }
}

/// A total, type-bucketed order over [`Value`], used for sorting:
/// `NULL < booleans < numbers < strings < binaries < lists`. Numbers
/// compare numerically across `I64`/`F64` (NaN greatest); when an `I64`
/// and an `F64` are numerically equal after widening, the `I64` orders
/// first. That tiebreak makes the relation a genuine total order (plain
/// `total_cmp` after an `as f64` widening is not transitive once |i64|
/// exceeds 2^53): the comparison key is the triple (value as f64 under
/// `total_cmp`, type rank I64 < F64, i64 payload).
pub fn value_cmp(a: &Value, b: &Value) -> Ordering {
    fn bucket(v: &Value) -> u8 {
        match v {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::I64(_) | Value::F64(_) => 2,
            Value::Str(_) => 3,
            Value::Bin(_) | Value::Ext(_) => 4,
            Value::List(_) => 5,
        }
    }
    match (a, b) {
        (Value::Null, Value::Null) => Ordering::Equal,
        (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
        (Value::I64(x), Value::I64(y)) => x.cmp(y),
        (Value::I64(x), Value::F64(y)) => (*x as f64).total_cmp(y).then(Ordering::Less),
        (Value::F64(x), Value::I64(y)) => x.total_cmp(&(*y as f64)).then(Ordering::Greater),
        (Value::F64(x), Value::F64(y)) => x.total_cmp(y),
        (Value::Str(x), Value::Str(y)) => x.as_ref().cmp(y.as_ref()),
        (Value::Bin(_) | Value::Ext(_), Value::Bin(_) | Value::Ext(_)) => {
            a.bin_bytes().cmp(&b.bin_bytes())
        }
        (Value::List(x), Value::List(y)) => {
            for (xa, ya) in x.iter().zip(y.iter()) {
                let o = value_cmp(xa, ya);
                if o != Ordering::Equal {
                    return o;
                }
            }
            x.len().cmp(&y.len())
        }
        _ => bucket(a).cmp(&bucket(b)),
    }
}

/// Sort direction plus null placement for one sort key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortDir {
    pub ascending: bool,
    pub nulls_last: bool,
}

impl SortDir {
    /// Ascending, nulls first (Spark's `ASC` default).
    pub fn asc() -> SortDir {
        SortDir { ascending: true, nulls_last: false }
    }

    /// Descending, nulls last (Spark's `DESC` default).
    pub fn desc() -> SortDir {
        SortDir { ascending: false, nulls_last: true }
    }

    pub fn with_nulls_last(mut self, nulls_last: bool) -> SortDir {
        self.nulls_last = nulls_last;
        self
    }
}

/// One sort-key cell: a value plus its direction, ordered so that a plain
/// ascending sort of `Vec<SortKey>` realizes the requested multi-key order.
#[derive(Clone)]
pub struct SortKey {
    pub value: Value,
    pub dir: SortDir,
}

impl SortKey {
    pub fn new(value: Value, dir: SortDir) -> SortKey {
        SortKey { value, dir }
    }
}

impl PartialEq for SortKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for SortKey {}

impl PartialOrd for SortKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SortKey {
    fn cmp(&self, other: &Self) -> Ordering {
        // Null placement is applied before direction (NULLS FIRST/LAST is
        // absolute, not flipped by DESC).
        match (self.value.is_null(), other.value.is_null()) {
            (true, true) => Ordering::Equal,
            (true, false) => {
                if self.dir.nulls_last {
                    Ordering::Greater
                } else {
                    Ordering::Less
                }
            }
            (false, true) => {
                if self.dir.nulls_last {
                    Ordering::Less
                } else {
                    Ordering::Greater
                }
            }
            (false, false) => {
                let o = value_cmp(&self.value, &other.value);
                if self.dir.ascending {
                    o
                } else {
                    o.reverse()
                }
            }
        }
    }
}

/// A grouping key cell: hashable/equatable by exact representation (floats
/// by bit pattern), the contract a shuffle key needs.
#[derive(Clone, Debug)]
pub struct KeyValue(pub Value);

impl PartialEq for KeyValue {
    fn eq(&self, other: &Self) -> bool {
        key_eq(&self.0, &other.0)
    }
}
impl Eq for KeyValue {}

fn key_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Null, Value::Null) => true,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::I64(x), Value::I64(y)) => x == y,
        (Value::F64(x), Value::F64(y)) => x.to_bits() == y.to_bits(),
        (Value::Str(x), Value::Str(y)) => x == y,
        (Value::Bin(_) | Value::Ext(_), Value::Bin(_) | Value::Ext(_)) => {
            a.bin_bytes() == b.bin_bytes()
        }
        (Value::List(x), Value::List(y)) => {
            x.len() == y.len() && x.iter().zip(y.iter()).all(|(a, b)| key_eq(a, b))
        }
        _ => false,
    }
}

impl Hash for KeyValue {
    fn hash<H: Hasher>(&self, state: &mut H) {
        fn h<H: Hasher>(v: &Value, state: &mut H) {
            match v {
                Value::Null => state.write_u8(0),
                Value::Bool(b) => {
                    state.write_u8(1);
                    state.write_u8(*b as u8);
                }
                Value::I64(x) => {
                    state.write_u8(2);
                    state.write_u64(*x as u64);
                }
                Value::F64(x) => {
                    state.write_u8(3);
                    state.write_u64(x.to_bits());
                }
                Value::Str(s) => {
                    state.write_u8(4);
                    state.write(s.as_bytes());
                    state.write_u8(0xFF);
                }
                Value::Bin(_) | Value::Ext(_) => {
                    state.write_u8(5);
                    state.write(&v.bin_bytes().expect("binary cell"));
                    state.write_u8(0xFF);
                }
                Value::List(l) => {
                    state.write_u8(6);
                    state.write_u64(l.len() as u64);
                    for v in l.iter() {
                        h(v, state);
                    }
                }
            }
        }
        h(&self.0, state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataframe::{DataType, Field};

    fn schema() -> Arc<Schema> {
        Schema::new(vec![
            Field::new("a", DataType::I64),
            Field::new("b", DataType::Str),
            Field::new("c", DataType::F64),
        ])
    }

    fn row() -> Vec<Value> {
        vec![Value::I64(10), Value::str("hi"), Value::F64(2.5)]
    }

    #[test]
    fn bind_rejects_unknown_columns() {
        assert!(Expr::col("zzz").bind(&schema()).is_err());
        assert!(Expr::col("a").bind(&schema()).is_ok());
    }

    #[test]
    fn comparisons() {
        let s = schema();
        let e = Expr::cmp(Expr::col("a"), CmpOp::Gt, Expr::lit(Value::I64(5))).bind(&s).unwrap();
        assert_eq!(e.eval(&row()), Value::Bool(true));
        let e = Expr::cmp(Expr::col("a"), CmpOp::Lt, Expr::col("c")).bind(&s).unwrap();
        assert_eq!(e.eval(&row()), Value::Bool(false));
        // Cross-type equality is false, ordering NULL.
        let e = Expr::cmp(Expr::col("a"), CmpOp::Eq, Expr::col("b")).bind(&s).unwrap();
        assert_eq!(e.eval(&row()), Value::Bool(false));
        let e = Expr::cmp(Expr::col("a"), CmpOp::Lt, Expr::col("b")).bind(&s).unwrap();
        assert_eq!(e.eval(&row()), Value::Null);
    }

    #[test]
    fn null_propagation_and_three_valued_logic() {
        let s = schema();
        let null_row = vec![Value::Null, Value::str("x"), Value::F64(1.0)];
        let cmp = Expr::cmp(Expr::col("a"), CmpOp::Eq, Expr::lit(Value::I64(1))).bind(&s).unwrap();
        assert_eq!(cmp.eval(&null_row), Value::Null);
        assert!(!cmp.eval_predicate(&null_row));

        // NULL AND FALSE = FALSE; NULL OR TRUE = TRUE.
        let f = Expr::lit(Value::Bool(false));
        let t = Expr::lit(Value::Bool(true));
        let n = Expr::lit(Value::Null);
        assert_eq!(Expr::and(n.clone(), f).bind(&s).unwrap().eval(&row()), Value::Bool(false));
        assert_eq!(Expr::or(n.clone(), t).bind(&s).unwrap().eval(&row()), Value::Bool(true));
        assert_eq!(Expr::not(n.clone()).bind(&s).unwrap().eval(&row()), Value::Null);
        assert_eq!(Expr::is_null(n).bind(&s).unwrap().eval(&row()), Value::Bool(true));
    }

    #[test]
    fn arithmetic() {
        let s = schema();
        let e = Expr::num(Expr::col("a"), NumOp::Add, Expr::col("c")).bind(&s).unwrap();
        assert_eq!(e.eval(&row()), Value::F64(12.5));
        let e = Expr::num(Expr::col("a"), NumOp::Mul, Expr::lit(Value::I64(3))).bind(&s).unwrap();
        assert_eq!(e.eval(&row()), Value::I64(30));
        // Integer division yields a double.
        let e = Expr::num(Expr::col("a"), NumOp::Div, Expr::lit(Value::I64(4))).bind(&s).unwrap();
        assert_eq!(e.eval(&row()), Value::F64(2.5));
        // Overflow becomes NULL rather than panicking.
        let e = Expr::num(Expr::lit(Value::I64(i64::MAX)), NumOp::Add, Expr::lit(Value::I64(1)))
            .bind(&s)
            .unwrap();
        assert_eq!(e.eval(&row()), Value::Null);
        // Mod by zero becomes NULL.
        let e = Expr::num(Expr::lit(Value::I64(1)), NumOp::Mod, Expr::lit(Value::I64(0)))
            .bind(&s)
            .unwrap();
        assert_eq!(e.eval(&row()), Value::Null);
    }

    #[test]
    fn udf_and_uses() {
        let s = schema();
        let e = Expr::udf("double_a", Some(vec!["a".into()]), |sch, row| {
            let i = sch.index_of("a").expect("a exists");
            match row[i] {
                Value::I64(v) => Value::I64(v * 2),
                _ => Value::Null,
            }
        });
        assert_eq!(e.uses().unwrap().len(), 1);
        assert_eq!(e.bind(&s).unwrap().eval(&row()), Value::I64(20));

        let opaque = Expr::udf("mystery", None, |_, _| Value::Null);
        assert!(opaque.uses().is_none());
        let composite = Expr::and(Expr::col("a"), opaque);
        assert!(composite.uses().is_none());
    }

    #[test]
    fn sort_key_ordering() {
        let asc = |v: Value| SortKey::new(v, SortDir::asc());
        assert!(asc(Value::Null) < asc(Value::I64(-100)));
        assert!(asc(Value::I64(1)) < asc(Value::F64(1.5)));
        assert!(asc(Value::F64(2.0)) < asc(Value::str("a")));
        assert!(asc(Value::str("a")) < asc(Value::str("b")));

        let desc = |v: Value| SortKey::new(v, SortDir::desc());
        assert!(desc(Value::I64(5)) < desc(Value::I64(3)));
        // Descending default puts nulls last.
        assert!(desc(Value::I64(5)) < desc(Value::Null));

        let desc_nf = |v: Value| SortKey::new(v, SortDir::desc().with_nulls_last(false));
        assert!(desc_nf(Value::Null) < desc_nf(Value::I64(5)));
    }

    #[test]
    fn key_value_hash_eq() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(KeyValue(Value::I64(1)));
        set.insert(KeyValue(Value::F64(1.0)));
        set.insert(KeyValue(Value::str("1")));
        set.insert(KeyValue(Value::Null));
        set.insert(KeyValue(Value::I64(1)));
        // I64(1), F64(1.0) and "1" are all distinct grouping keys.
        assert_eq!(set.len(), 4);
        assert_eq!(KeyValue(Value::F64(f64::NAN)), KeyValue(Value::F64(f64::NAN)));
    }

    #[test]
    fn substitution() {
        let outer = Expr::cmp(Expr::col("x"), CmpOp::Eq, Expr::col("y"));
        let sub = outer.substitute(&|name| {
            (name == "x").then(|| Expr::num(Expr::col("a"), NumOp::Add, Expr::lit(Value::I64(1))))
        });
        let used = sub.uses().unwrap();
        assert!(used.contains("a") && used.contains("y") && !used.contains("x"));
    }
}
