//! The DataFrame logical plan, its rule-based optimizer (Catalyst-lite),
//! and compilation onto the RDD substrate.

use super::batch::{self, ColumnBatch};
use super::expr::{BoundExpr, Expr, KeyValue, SortDir, SortKey};
use super::{DataType, Field, Row, RowCodec, Schema, Value};
use crate::conf::ExecConf;
use crate::context::Core;
use crate::error::{Result, SparkliteError};
use crate::events::Event;
use crate::rdd::{BoxIter, FromPartitionsRdd, Rdd};
use std::collections::BTreeSet;
use std::sync::Arc;

/// A named output expression of a projection.
#[derive(Debug, Clone)]
pub struct NamedExpr {
    pub name: String,
    pub expr: Expr,
    pub dtype: DataType,
}

impl NamedExpr {
    /// A column passed through unchanged.
    pub fn passthrough(name: &str, dtype: DataType) -> NamedExpr {
        NamedExpr { name: name.to_string(), expr: Expr::col(name), dtype }
    }

    pub(crate) fn is_passthrough(&self) -> bool {
        self.expr.is_col(&self.name)
    }
}

/// Aggregate functions for `GROUP BY`. `Count` counts rows; the column
/// variants ignore NULLs, like their SQL counterparts.
#[derive(Debug, Clone)]
pub enum Agg {
    Count,
    CountCol(String),
    Sum(String),
    Avg(String),
    Min(String),
    Max(String),
    /// An arbitrary representative per group — how engines recover the
    /// original key item after grouping on an encoded key (§4.7 uses
    /// `ARRAY_DISTINCT`; `FIRST` is the degenerate, cheaper equivalent when
    /// every row of the group carries the same payload).
    First(String),
    /// Spark's `COLLECT_LIST`: materializes the group's values.
    CollectList(String),
}

impl Agg {
    pub(crate) fn input_col(&self) -> Option<&str> {
        match self {
            Agg::Count => None,
            Agg::CountCol(c)
            | Agg::Sum(c)
            | Agg::Avg(c)
            | Agg::Min(c)
            | Agg::Max(c)
            | Agg::First(c)
            | Agg::CollectList(c) => Some(c),
        }
    }

    fn output_dtype(&self) -> DataType {
        match self {
            Agg::Count | Agg::CountCol(_) => DataType::I64,
            Agg::Avg(_) => DataType::F64,
            Agg::CollectList(_) => DataType::List,
            Agg::Sum(_) | Agg::Min(_) | Agg::Max(_) | Agg::First(_) => DataType::Any,
        }
    }
}

/// Partial aggregate state, mergeable across shuffle blocks.
#[derive(Clone)]
pub(crate) enum AggState {
    Count(i64),
    Sum(Option<Value>),
    Avg { sum: f64, n: i64 },
    Min(Option<Value>),
    Max(Option<Value>),
    First(Option<Value>),
    List(Vec<Value>),
}

impl AggState {
    pub(crate) fn create(agg: &Agg, v: Option<&Value>) -> AggState {
        let non_null = v.filter(|v| !v.is_null());
        match agg {
            Agg::Count => AggState::Count(1),
            Agg::CountCol(_) => AggState::Count(non_null.is_some() as i64),
            Agg::Sum(_) => AggState::Sum(non_null.cloned()),
            Agg::Avg(_) => match non_null.and_then(|v| v.as_f64()) {
                Some(x) => AggState::Avg { sum: x, n: 1 },
                None => AggState::Avg { sum: 0.0, n: 0 },
            },
            Agg::Min(_) => AggState::Min(non_null.cloned()),
            Agg::Max(_) => AggState::Max(non_null.cloned()),
            Agg::First(_) => AggState::First(non_null.cloned()),
            Agg::CollectList(_) => {
                AggState::List(non_null.cloned().map(|v| vec![v]).unwrap_or_default())
            }
        }
    }

    pub(crate) fn merge(self, other: AggState) -> AggState {
        use super::expr::value_cmp;
        match (self, other) {
            (AggState::Count(a), AggState::Count(b)) => AggState::Count(a + b),
            (AggState::Sum(a), AggState::Sum(b)) => AggState::Sum(match (a, b) {
                (None, x) | (x, None) => x,
                (Some(x), Some(y)) => Some(add_values(&x, &y)),
            }),
            (AggState::Avg { sum: s1, n: n1 }, AggState::Avg { sum: s2, n: n2 }) => {
                AggState::Avg { sum: s1 + s2, n: n1 + n2 }
            }
            (AggState::Min(a), AggState::Min(b)) => AggState::Min(match (a, b) {
                (None, x) | (x, None) => x,
                (Some(x), Some(y)) => Some(if value_cmp(&x, &y).is_le() { x } else { y }),
            }),
            (AggState::Max(a), AggState::Max(b)) => AggState::Max(match (a, b) {
                (None, x) | (x, None) => x,
                (Some(x), Some(y)) => Some(if value_cmp(&x, &y).is_ge() { x } else { y }),
            }),
            (AggState::First(a), AggState::First(b)) => AggState::First(a.or(b)),
            (AggState::List(mut a), AggState::List(b)) => {
                a.extend(b);
                AggState::List(a)
            }
            _ => unreachable!("aggregate states of one column always match"),
        }
    }

    /// [`merge`](Self::merge) against a borrowed right-hand state, cloning
    /// only what the merged result actually keeps (the winning MIN/MAX
    /// value, list elements) — the reduce side of the vectorized path
    /// merges straight out of the shared shuffle bucket, so per-pair
    /// clones of the losing side would be pure waste. Must stay
    /// result-identical to `a.merge(b.clone())`, including `Avg`'s
    /// left-to-right addition order (float addition is not associative).
    pub(crate) fn merge_ref(&mut self, other: &AggState) {
        use super::expr::value_cmp;
        match (self, other) {
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            (AggState::Sum(a), AggState::Sum(b)) => match (&a, b) {
                (_, None) => {}
                (None, Some(_)) => *a = b.clone(),
                (Some(x), Some(y)) => *a = Some(add_values(x, y)),
            },
            (AggState::Avg { sum, n }, AggState::Avg { sum: s2, n: n2 }) => {
                *sum += s2;
                *n += n2;
            }
            (AggState::Min(a), AggState::Min(b)) => match (&a, b) {
                (_, None) => {}
                (None, Some(_)) => *a = b.clone(),
                (Some(x), Some(y)) => {
                    if value_cmp(x, y).is_gt() {
                        *a = Some(y.clone());
                    }
                }
            },
            (AggState::Max(a), AggState::Max(b)) => match (&a, b) {
                (_, None) => {}
                (None, Some(_)) => *a = b.clone(),
                (Some(x), Some(y)) => {
                    if value_cmp(x, y).is_lt() {
                        *a = Some(y.clone());
                    }
                }
            },
            (AggState::First(a), AggState::First(b)) => {
                if a.is_none() {
                    *a = b.clone();
                }
            }
            (AggState::List(a), AggState::List(b)) => a.extend(b.iter().cloned()),
            _ => unreachable!("aggregate states of one column always match"),
        }
    }

    pub(crate) fn finish(self) -> Value {
        match self {
            AggState::Count(n) => Value::I64(n),
            AggState::Sum(v) => v.unwrap_or(Value::Null),
            AggState::Avg { sum, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::F64(sum / n as f64)
                }
            }
            AggState::Min(v) | AggState::Max(v) | AggState::First(v) => v.unwrap_or(Value::Null),
            AggState::List(items) => Value::List(Arc::new(items)),
        }
    }
}

fn add_values(a: &Value, b: &Value) -> Value {
    match (a, b) {
        (Value::I64(x), Value::I64(y)) => x.checked_add(*y).map(Value::I64).unwrap_or(Value::Null),
        _ => match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) => Value::F64(x + y),
            _ => Value::Null,
        },
    }
}

/// Wire codec for GROUP BY shuffle pairs, composed over [`RowCodec`] rather
/// than introducing a second byte format: each `(keys, states)` pair maps
/// to a two-column row `[List(keys), List(encoded states)]`, and each
/// [`AggState`] to a small tagged `Value` list. `Option<Value>` payloads
/// encode presence by arity (`[tag]` vs `[tag, v]`), so `None` and
/// `Some(Null)` — which `Sum` can produce on overflow — stay distinct.
pub(crate) struct GroupPairCodec;

impl GroupPairCodec {
    fn state_to_value(state: &AggState) -> Value {
        let opt = |tag: i64, v: &Option<Value>| {
            let mut items = vec![Value::I64(tag)];
            items.extend(v.clone());
            Value::list(items)
        };
        match state {
            AggState::Count(n) => Value::list(vec![Value::I64(0), Value::I64(*n)]),
            AggState::Sum(v) => opt(1, v),
            AggState::Avg { sum, n } => {
                Value::list(vec![Value::I64(2), Value::F64(*sum), Value::I64(*n)])
            }
            AggState::Min(v) => opt(3, v),
            AggState::Max(v) => opt(4, v),
            AggState::First(v) => opt(5, v),
            AggState::List(items) => {
                Value::list(vec![Value::I64(6), Value::List(Arc::new(items.clone()))])
            }
        }
    }

    fn state_from_value(value: &Value) -> std::result::Result<AggState, String> {
        let Value::List(items) = value else {
            return Err("agg state is not a list".to_string());
        };
        let tag = match items.first() {
            Some(Value::I64(t)) => *t,
            _ => return Err("agg state has no tag".to_string()),
        };
        let opt = || items.get(1).cloned();
        Ok(match (tag, items.get(1), items.get(2)) {
            (0, Some(Value::I64(n)), _) => AggState::Count(*n),
            (1, _, _) => AggState::Sum(opt()),
            (2, Some(Value::F64(sum)), Some(Value::I64(n))) => AggState::Avg { sum: *sum, n: *n },
            (3, _, _) => AggState::Min(opt()),
            (4, _, _) => AggState::Max(opt()),
            (5, _, _) => AggState::First(opt()),
            (6, Some(Value::List(vs)), _) => AggState::List(vs.as_ref().clone()),
            _ => return Err(format!("malformed agg state with tag {tag}")),
        })
    }
}

impl crate::CacheCodec<(Vec<KeyValue>, Vec<AggState>)> for GroupPairCodec {
    fn encode(&self, items: &[(Vec<KeyValue>, Vec<AggState>)]) -> Vec<u8> {
        let rows: Vec<Row> = items
            .iter()
            .map(|(keys, states)| {
                vec![
                    Value::list(keys.iter().map(|k| k.0.clone()).collect()),
                    Value::list(states.iter().map(Self::state_to_value).collect()),
                ]
            })
            .collect();
        RowCodec.encode(&rows)
    }

    fn decode(
        &self,
        bytes: &[u8],
    ) -> std::result::Result<Vec<(Vec<KeyValue>, Vec<AggState>)>, String> {
        RowCodec
            .decode(bytes)?
            .into_iter()
            .map(|row| {
                let (Some(Value::List(keys)), Some(Value::List(states))) =
                    (row.first(), row.get(1))
                else {
                    return Err("malformed group pair row".to_string());
                };
                let keys: Vec<KeyValue> = keys.iter().map(|v| KeyValue(v.clone())).collect();
                let states = states
                    .iter()
                    .map(Self::state_from_value)
                    .collect::<std::result::Result<Vec<_>, String>>()?;
                Ok((keys, states))
            })
            .collect()
    }
}

/// The logical plan tree. Every node caches its output schema.
pub enum LogicalPlan {
    FromRdd {
        schema: Arc<Schema>,
        rows: Rdd<Row>,
    },
    Project {
        input: Arc<LogicalPlan>,
        exprs: Vec<NamedExpr>,
        schema: Arc<Schema>,
    },
    Filter {
        input: Arc<LogicalPlan>,
        predicate: Expr,
    },
    /// Replaces the list column `col` with one output row per element,
    /// renamed to `as_name` (schema otherwise unchanged). Empty/NULL lists
    /// yield no rows — Spark's `EXPLODE`.
    Explode {
        input: Arc<LogicalPlan>,
        col: String,
        as_name: String,
        schema: Arc<Schema>,
    },
    GroupBy {
        input: Arc<LogicalPlan>,
        keys: Vec<String>,
        aggs: Vec<(Agg, String)>,
        schema: Arc<Schema>,
    },
    OrderBy {
        input: Arc<LogicalPlan>,
        keys: Vec<(String, SortDir)>,
    },
    ZipWithIndex {
        input: Arc<LogicalPlan>,
        name: String,
        start: i64,
        schema: Arc<Schema>,
    },
    Limit {
        input: Arc<LogicalPlan>,
        n: usize,
    },
}

/// ORDER BY keys: each column with its direction, most significant first.
type OrderKeys = [(String, SortDir)];

/// An ORDER BY key list as EXPLAIN prints it.
fn render_keys(keys: &OrderKeys) -> String {
    keys.iter().map(|(k, d)| format!("{k} {d:?}")).collect::<Vec<_>>().join(", ")
}

impl LogicalPlan {
    pub fn schema(&self) -> &Arc<Schema> {
        match self {
            LogicalPlan::FromRdd { schema, .. }
            | LogicalPlan::Project { schema, .. }
            | LogicalPlan::Explode { schema, .. }
            | LogicalPlan::GroupBy { schema, .. }
            | LogicalPlan::ZipWithIndex { schema, .. } => schema,
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::OrderBy { input, .. }
            | LogicalPlan::Limit { input, .. } => input.schema(),
        }
    }

    /// The top-K shape: a `Limit` directly over an `OrderBy`, as the
    /// sort's input, its keys and the limit.
    fn take_ordered_parts(&self) -> Option<(&Arc<LogicalPlan>, &OrderKeys, usize)> {
        match self {
            LogicalPlan::Limit { input, n } => match input.as_ref() {
                LogicalPlan::OrderBy { input, keys } => Some((input, keys, *n)),
                _ => None,
            },
            _ => None,
        }
    }

    /// The node's single input, `None` for leaves. Every operator in this
    /// plan algebra is unary, so this fully describes the tree shape.
    pub fn input(&self) -> Option<&Arc<LogicalPlan>> {
        match self {
            LogicalPlan::FromRdd { .. } => None,
            LogicalPlan::Project { input, .. }
            | LogicalPlan::Filter { input, .. }
            | LogicalPlan::Explode { input, .. }
            | LogicalPlan::GroupBy { input, .. }
            | LogicalPlan::OrderBy { input, .. }
            | LogicalPlan::ZipWithIndex { input, .. }
            | LogicalPlan::Limit { input, .. } => Some(input),
        }
    }

    /// Rebuilds this node over a replacement input, keeping every other
    /// field (cached schemas included — callers must only substitute
    /// schema-compatible inputs). Panics on leaves.
    pub fn with_input(&self, new_input: Arc<LogicalPlan>) -> Arc<LogicalPlan> {
        Arc::new(match self {
            LogicalPlan::FromRdd { .. } => panic!("FromRdd has no input to replace"),
            LogicalPlan::Project { exprs, schema, .. } => LogicalPlan::Project {
                input: new_input,
                exprs: exprs.clone(),
                schema: Arc::clone(schema),
            },
            LogicalPlan::Filter { predicate, .. } => {
                LogicalPlan::Filter { input: new_input, predicate: predicate.clone() }
            }
            LogicalPlan::Explode { col, as_name, schema, .. } => LogicalPlan::Explode {
                input: new_input,
                col: col.clone(),
                as_name: as_name.clone(),
                schema: Arc::clone(schema),
            },
            LogicalPlan::GroupBy { keys, aggs, schema, .. } => LogicalPlan::GroupBy {
                input: new_input,
                keys: keys.clone(),
                aggs: aggs.clone(),
                schema: Arc::clone(schema),
            },
            LogicalPlan::OrderBy { keys, .. } => {
                LogicalPlan::OrderBy { input: new_input, keys: keys.clone() }
            }
            LogicalPlan::ZipWithIndex { name, start, schema, .. } => LogicalPlan::ZipWithIndex {
                input: new_input,
                name: name.clone(),
                start: *start,
                schema: Arc::clone(schema),
            },
            LogicalPlan::Limit { n, .. } => LogicalPlan::Limit { input: new_input, n: *n },
        })
    }

    /// Renders the plan as an indented one-node-per-line tree — the stable
    /// textual form the golden rule tests pin and `EXPLAIN`-style output
    /// builds on. Two plans render equal iff they are structurally equal
    /// (UDFs render by name).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        match self {
            LogicalPlan::FromRdd { schema, .. } => {
                let cols: Vec<String> =
                    schema.fields().iter().map(|f| format!("{}: {:?}", f.name, f.dtype)).collect();
                out.push_str(&format!("FromRdd [{}]\n", cols.join(", ")));
            }
            LogicalPlan::Project { input, exprs, .. } => {
                let cols: Vec<String> = exprs
                    .iter()
                    .map(|e| format!("{} := {:?} as {:?}", e.name, e.expr, e.dtype))
                    .collect();
                out.push_str(&format!("Project [{}]\n", cols.join(", ")));
                input.render_into(out, depth + 1);
            }
            LogicalPlan::Filter { input, predicate } => {
                out.push_str(&format!("Filter {predicate:?}\n"));
                input.render_into(out, depth + 1);
            }
            LogicalPlan::Explode { input, col, as_name, .. } => {
                out.push_str(&format!("Explode {col} as {as_name}\n"));
                input.render_into(out, depth + 1);
            }
            LogicalPlan::GroupBy { input, keys, aggs, .. } => {
                let aggs: Vec<String> =
                    aggs.iter().map(|(a, name)| format!("{name} := {a:?}")).collect();
                out.push_str(&format!(
                    "GroupBy keys=[{}] aggs=[{}]\n",
                    keys.join(", "),
                    aggs.join(", ")
                ));
                input.render_into(out, depth + 1);
            }
            LogicalPlan::OrderBy { input, keys } => {
                out.push_str(&format!("OrderBy [{}]\n", render_keys(keys)));
                input.render_into(out, depth + 1);
            }
            LogicalPlan::ZipWithIndex { input, name, start, .. } => {
                out.push_str(&format!("ZipWithIndex {name} from {start}\n"));
                input.render_into(out, depth + 1);
            }
            // Limit over OrderBy executes as one top-K job, and says so.
            LogicalPlan::Limit { input, n } => match self.take_ordered_parts() {
                Some((input, keys, _)) => {
                    out.push_str(&format!("TakeOrdered n={n} [{}]\n", render_keys(keys)));
                    input.render_into(out, depth + 1);
                }
                None => {
                    out.push_str(&format!("Limit {n}\n"));
                    input.render_into(out, depth + 1);
                }
            },
        }
    }

    // ---- validating constructors ----

    pub fn project(input: Arc<LogicalPlan>, exprs: Vec<NamedExpr>) -> Result<LogicalPlan> {
        if exprs.is_empty() {
            return Err(SparkliteError::Schema("projection needs at least one column".into()));
        }
        let mut seen = BTreeSet::new();
        for e in &exprs {
            if !seen.insert(&e.name) {
                return Err(SparkliteError::Schema(format!(
                    "duplicate output column '{}'",
                    e.name
                )));
            }
            // Binding validates every referenced column.
            e.expr.bind(input.schema())?;
        }
        let schema = Schema::new(exprs.iter().map(|e| Field::new(&e.name, e.dtype)).collect());
        Ok(LogicalPlan::Project { input, exprs, schema })
    }

    pub fn filter(input: Arc<LogicalPlan>, predicate: Expr) -> Result<LogicalPlan> {
        predicate.bind(input.schema())?;
        Ok(LogicalPlan::Filter { input, predicate })
    }

    pub fn explode(
        input: Arc<LogicalPlan>,
        col: &str,
        as_name: String,
        dtype: DataType,
    ) -> Result<LogicalPlan> {
        let idx = input.schema().resolve(col)?;
        let f = &input.schema().fields()[idx];
        if !matches!(f.dtype, DataType::List | DataType::Any) {
            return Err(SparkliteError::Schema(format!(
                "EXPLODE needs a list column, '{col}' is {:?}",
                f.dtype
            )));
        }
        if input.schema().index_of(&as_name).is_some_and(|i| i != idx) {
            return Err(SparkliteError::Schema(format!(
                "output column '{as_name}' already exists"
            )));
        }
        let fields = input
            .schema()
            .fields()
            .iter()
            .enumerate()
            .map(|(i, f)| if i == idx { Field::new(&as_name, dtype) } else { f.clone() })
            .collect();
        Ok(LogicalPlan::Explode {
            input,
            col: col.to_string(),
            as_name,
            schema: Schema::new(fields),
        })
    }

    pub fn group_by(
        input: Arc<LogicalPlan>,
        keys: Vec<String>,
        aggs: Vec<(Agg, String)>,
    ) -> Result<LogicalPlan> {
        let mut fields = Vec::with_capacity(keys.len() + aggs.len());
        for k in &keys {
            let idx = input.schema().resolve(k)?;
            fields.push(input.schema().fields()[idx].clone());
        }
        for (agg, name) in &aggs {
            if let Some(c) = agg.input_col() {
                input.schema().resolve(c)?;
            }
            fields.push(Field::new(name, agg.output_dtype()));
        }
        let mut seen = BTreeSet::new();
        for f in &fields {
            if !seen.insert(f.name.clone()) {
                return Err(SparkliteError::Schema(format!(
                    "duplicate output column '{}' in GROUP BY",
                    f.name
                )));
            }
        }
        Ok(LogicalPlan::GroupBy { input, keys, aggs, schema: Schema::new(fields) })
    }

    pub fn order_by(input: Arc<LogicalPlan>, keys: Vec<(String, SortDir)>) -> Result<LogicalPlan> {
        for (k, _) in &keys {
            input.schema().resolve(k)?;
        }
        Ok(LogicalPlan::OrderBy { input, keys })
    }

    pub fn zip_with_index(
        input: Arc<LogicalPlan>,
        name: String,
        start: i64,
    ) -> Result<LogicalPlan> {
        if input.schema().index_of(&name).is_some() {
            return Err(SparkliteError::Schema(format!("column '{name}' already exists")));
        }
        let mut fields = input.schema().fields().to_vec();
        fields.push(Field::new(&name, DataType::I64));
        Ok(LogicalPlan::ZipWithIndex { input, name, start, schema: Schema::new(fields) })
    }

    // ---- invariant checking ----

    /// Checks the structural invariants of the whole plan tree: every
    /// referenced column resolves against the child schema, cached schemas
    /// are consistent with what each node actually produces, and output
    /// dtypes match. The validating constructors guarantee this for
    /// user-built plans; `validate` re-checks it after optimizer rewrites
    /// (run automatically in debug/test builds).
    pub fn validate(&self) -> Result<()> {
        let fail = |msg: String| Err(SparkliteError::Schema(format!("invalid plan: {msg}")));
        match self {
            LogicalPlan::FromRdd { .. } => {}
            LogicalPlan::Project { input, exprs, schema } => {
                input.validate()?;
                if exprs.is_empty() {
                    return fail("projection with no output columns".into());
                }
                let mut seen = BTreeSet::new();
                for e in exprs {
                    if !seen.insert(&e.name) {
                        return fail(format!("duplicate projected column '{}'", e.name));
                    }
                    e.expr.bind(input.schema())?;
                }
                if schema.fields().len() != exprs.len() {
                    return fail(format!(
                        "projection schema has {} fields for {} expressions",
                        schema.fields().len(),
                        exprs.len()
                    ));
                }
                for (f, e) in schema.fields().iter().zip(exprs) {
                    if f.name != e.name || f.dtype != e.dtype {
                        return fail(format!(
                            "projection schema field '{}': {:?} does not match expression \
                             '{}': {:?}",
                            f.name, f.dtype, e.name, e.dtype
                        ));
                    }
                }
            }
            LogicalPlan::Filter { input, predicate } => {
                input.validate()?;
                predicate.bind(input.schema())?;
            }
            LogicalPlan::Explode { input, col, as_name, schema } => {
                input.validate()?;
                let idx = input.schema().resolve(col)?;
                let in_fields = input.schema().fields();
                if schema.fields().len() != in_fields.len() {
                    return fail("EXPLODE must preserve the column count".into());
                }
                for (i, (f, inf)) in schema.fields().iter().zip(in_fields).enumerate() {
                    if i == idx {
                        if f.name != *as_name {
                            return fail(format!(
                                "EXPLODE output column is '{}', expected '{as_name}'",
                                f.name
                            ));
                        }
                    } else if f != inf {
                        return fail(format!(
                            "EXPLODE changed unrelated column '{}' into '{}'",
                            inf.name, f.name
                        ));
                    }
                }
            }
            LogicalPlan::GroupBy { input, keys, aggs, schema } => {
                input.validate()?;
                if schema.fields().len() != keys.len() + aggs.len() {
                    return fail(format!(
                        "GROUP BY schema has {} fields for {} keys + {} aggregates",
                        schema.fields().len(),
                        keys.len(),
                        aggs.len()
                    ));
                }
                for (k, f) in keys.iter().zip(schema.fields()) {
                    let idx = input.schema().resolve(k)?;
                    let inf = &input.schema().fields()[idx];
                    if f.name != *k || f.dtype != inf.dtype {
                        return fail(format!(
                            "GROUP BY key '{k}' maps to schema field '{}': {:?}",
                            f.name, f.dtype
                        ));
                    }
                }
                for ((agg, name), f) in aggs.iter().zip(&schema.fields()[keys.len()..]) {
                    if let Some(c) = agg.input_col() {
                        input.schema().resolve(c)?;
                    }
                    if f.name != *name || f.dtype != agg.output_dtype() {
                        return fail(format!(
                            "aggregate '{name}' maps to schema field '{}': {:?}",
                            f.name, f.dtype
                        ));
                    }
                }
            }
            LogicalPlan::OrderBy { input, keys } => {
                input.validate()?;
                for (k, _) in keys {
                    input.schema().resolve(k)?;
                }
            }
            LogicalPlan::ZipWithIndex { input, name, start: _, schema } => {
                input.validate()?;
                if input.schema().index_of(name).is_some() {
                    return fail(format!("index column '{name}' shadows an input column"));
                }
                let in_fields = input.schema().fields();
                if schema.fields().len() != in_fields.len() + 1 {
                    return fail("ZIP WITH INDEX must add exactly one column".into());
                }
                for (f, inf) in schema.fields().iter().zip(in_fields) {
                    if f != inf {
                        return fail(format!(
                            "ZIP WITH INDEX changed input column '{}' into '{}'",
                            inf.name, f.name
                        ));
                    }
                }
                let last = schema.fields().last().expect("non-empty");
                if last.name != *name || last.dtype != DataType::I64 {
                    return fail(format!(
                        "index column is '{}': {:?}, expected '{name}': I64",
                        last.name, last.dtype
                    ));
                }
            }
            LogicalPlan::Limit { input, .. } => input.validate()?,
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Optimizer
// ---------------------------------------------------------------------------

/// Applies the standard rewrite-rule registry (`dataframe::rules`) to a
/// bounded fixpoint, bottom-up:
///
/// 1. merge adjacent filters (RBLO0001);
/// 2. push filters below projections (with substitution, RBLO0002), sorts
///    (RBLO0003), explodes (when the predicate does not touch the exploded
///    column, RBLO0004) and zip-with-index (never — indices would change);
/// 3. fuse adjacent projections when safe (UDFs only fuse across
///    pass-through columns, RBLO0005);
/// 4. collapse nested limits (RBLO0006) and drop literally-true filters
///    (RBLO0007);
/// 5. prune projection columns that no ancestor reads (RBLO0008).
///
/// Every individual firing is checked against the rule's declared
/// [`super::properties::PlanProperties`] contract. This convenience wrapper
/// discards the fire trace; engine call sites use
/// [`super::rules::Optimizer`] directly to surface it.
pub fn optimize(plan: Arc<LogicalPlan>) -> Arc<LogicalPlan> {
    super::rules::Optimizer::standard().run(plan).0
}

// ---------------------------------------------------------------------------
// Physical compilation
// ---------------------------------------------------------------------------

/// Compiles a (normally optimized) plan to an RDD of rows, in one walk with
/// one arm per plan node.
///
/// Built-in operators run on batches: the maximal UDF-free
/// Project/Filter/Explode chain at the top of a plan ([`peel`]) executes as
/// one fused pass over [`ColumnBatch`]es of `ExecConf::batch_size` rows,
/// and GROUP BY aggregates batches ([`batch::GroupByKernel`]). A Project or
/// Filter holding an opaque UDF runs row-at-a-time: a UDF reads a whole
/// row, so a batch would only be transposed back into rows per call
/// (Spark runs such operators on rows too, behind `ColumnarToRow`). Rows
/// cross every shuffle and RDD boundary, so [`RowCodec`] stays the only
/// wire/persist format, and every ORDER BY sorts on `Vec<SortKey>`.
/// [`crate::conf::ExecConf::row_major`] vectorizes nothing — the reference
/// the columnar differential battery compares against.
pub fn compile(core: &Arc<Core>, plan: &Arc<LogicalPlan>) -> Result<Rdd<Row>> {
    if let Some((seg, boundary)) = peel(&core.conf.exec, plan)? {
        return Ok(segment_rows(core, compile(core, boundary)?, seg));
    }
    let num_parts = core.conf.default_parallelism;
    match plan.as_ref() {
        LogicalPlan::FromRdd { rows, .. } => Ok(rows.clone()),
        LogicalPlan::Project { input, exprs, .. } => {
            let bound = bind_exprs(exprs, input.schema())?;
            Ok(compile(core, input)?
                .map(move |row| bound.iter().map(|b| b.eval(&row)).collect::<Row>()))
        }
        LogicalPlan::Filter { input, predicate } => {
            let bound = predicate.bind(input.schema())?;
            Ok(compile(core, input)?.filter(move |row| bound.eval_predicate(row)))
        }
        LogicalPlan::Explode { input, col, .. } => {
            let idx = input.schema().resolve(col)?;
            Ok(compile(core, input)?.flat_map(move |row| {
                let items: Vec<Row> = match &row[idx] {
                    Value::List(l) => l
                        .iter()
                        .map(|v| {
                            let mut r = row.clone();
                            r[idx] = v.clone();
                            r
                        })
                        .collect(),
                    _ => Vec::new(),
                };
                items
            }))
        }
        LogicalPlan::GroupBy { input, keys, aggs, .. } => {
            let schema = input.schema();
            let key_idx: Vec<usize> =
                keys.iter().map(|k| schema.resolve(k)).collect::<Result<_>>()?;
            let specs = agg_specs(schema, aggs)?;
            let vectorized = !core.conf.exec.row_major;
            let paired = if vectorized {
                group_by_kernel(core, input, key_idx, specs)?
            } else {
                compile(core, input)?.map(move |row| {
                    let key: Vec<KeyValue> =
                        key_idx.iter().map(|&i| KeyValue(row[i].clone())).collect();
                    let states: Vec<AggState> = specs
                        .iter()
                        .map(|(a, idx)| AggState::create(a, idx.map(|i| &row[i])))
                        .collect();
                    (key, states)
                })
            };
            Ok(finish_group_by(paired, keys.len(), num_parts, vectorized))
        }
        LogicalPlan::OrderBy { input, keys } => {
            let key = sort_key(sort_spec(input.schema(), keys)?);
            Ok(compile(core, input)?.sort_by_with_codec(key, true, num_parts, Arc::new(RowCodec)))
        }
        LogicalPlan::ZipWithIndex { input, start, .. } => {
            let start = *start;
            Ok(compile(core, input)?.zip_with_index().map(move |(mut row, i)| {
                row.push(Value::I64(start + i as i64));
                row
            }))
        }
        // A limit over a lazily fused segment stops pulling the partition
        // once `n` rows have left it, so the cut needs no batch operator.
        LogicalPlan::Limit { input, n } => {
            let rows = match plan.take_ordered_parts() {
                Some((input, keys, n)) => take_ordered(core, input, keys, n)?,
                None => compile(core, input)?.take(*n)?,
            };
            Ok(rows_rdd(core, rows))
        }
    }
}

fn bind_exprs(exprs: &[NamedExpr], schema: &Arc<Schema>) -> Result<Vec<BoundExpr>> {
    exprs.iter().map(|e| e.expr.bind(schema)).collect()
}

/// A one-partition RDD over rows a LIMIT already cut on the driver.
fn rows_rdd(core: &Arc<Core>, rows: Vec<Row>) -> Rdd<Row> {
    Rdd::new(Arc::clone(core), Arc::new(FromPartitionsRdd::new(vec![rows])))
}

/// Top-K: the first `n` rows of `input` under `OrderBy keys`, in one job
/// ([`Rdd::take_ordered`], Spark's `TakeOrderedAndProjectExec`). The rows
/// and their order, ties included, are those of the full range sort
/// followed by a cut, on the same `Vec<SortKey>`.
fn take_ordered(
    core: &Arc<Core>,
    input: &Arc<LogicalPlan>,
    keys: &OrderKeys,
    n: usize,
) -> Result<Vec<Row>> {
    let key = sort_key(sort_spec(input.schema(), keys)?);
    compile(core, input)?.take_ordered(n, key)
}

/// Runs a plan to driver rows. A root `Limit` over `OrderBy` is the top-K
/// job itself, so its rows come back without a second job over the cut.
pub(crate) fn collect(core: &Arc<Core>, plan: &Arc<LogicalPlan>) -> Result<Vec<Row>> {
    match plan.take_ordered_parts() {
        Some((input, keys, n)) => take_ordered(core, input, keys, n),
        None => compile(core, plan)?.collect(),
    }
}

/// Resolves aggregate input columns once, at compile time.
fn agg_specs(schema: &Arc<Schema>, aggs: &[(Agg, String)]) -> Result<Vec<(Agg, Option<usize>)>> {
    aggs.iter()
        .map(|(a, _)| Ok((a.clone(), a.input_col().map(|c| schema.resolve(c)).transpose()?)))
        .collect()
}

/// Resolves ORDER BY keys to `(column index, direction)` pairs.
fn sort_spec(schema: &Arc<Schema>, keys: &[(String, SortDir)]) -> Result<Vec<(usize, SortDir)>> {
    keys.iter().map(|(k, d)| Ok((schema.resolve(k)?, *d))).collect()
}

/// A row's sort key under `spec`: one [`SortKey`] per ORDER BY key, so a
/// plain ascending sort of the keys realizes the requested order.
fn sort_key(spec: Vec<(usize, SortDir)>) -> impl Fn(&Row) -> Vec<SortKey> + Send + Sync {
    move |row| spec.iter().map(|&(i, d)| SortKey::new(row[i].clone(), d)).collect()
}

/// The shuffle + finish half of GROUP BY, shared by both map sides (the
/// wire format and merge logic must not differ).
///
/// `map_side_combined` declares the map side already aggregated per
/// partition (the vectorized kernel). The shuffle then skips both of its
/// combine passes — the map-side one (which would only re-hash every
/// already-unique key, the dominant cost at high key cardinality) *and*
/// the generic clone-heavy reduce-side merge, replaced by the
/// whole-bucket [`batch::merge_group_pairs`] reduce, which borrows the
/// bucket and clones one pair per distinct group instead of one per
/// record. Partitioning (`fx_hash` of the key), the
/// wire format, and the insertion-ordered merge semantics are identical on
/// every path, so output bytes are too.
fn finish_group_by(
    paired: Rdd<(Vec<KeyValue>, Vec<AggState>)>,
    nkeys: usize,
    num_parts: usize,
    map_side_combined: bool,
) -> Rdd<Row> {
    let merged = if map_side_combined {
        paired.partition_reduce_with_codec(
            num_parts,
            Arc::new(GroupPairCodec),
            Arc::new(batch::merge_group_pairs),
        )
    } else {
        paired.reduce_by_key_with_codec(
            |a, b| a.into_iter().zip(b).map(|(x, y)| x.merge(y)).collect(),
            num_parts,
            Arc::new(GroupPairCodec),
        )
    };
    merged.map(move |(key, states)| {
        let mut row: Row = Vec::with_capacity(nkeys + states.len());
        row.extend(key.into_iter().map(|k| k.0));
        row.extend(states.into_iter().map(|s| s.finish()));
        row
    })
}

/// The vectorized GROUP BY map side: a fused segment below the aggregation
/// (if any) stays columnar — its output batch plus selection vector feeds
/// [`batch::GroupByKernel`] directly, one transposition instead of two —
/// and the kernel pre-aggregates the whole partition, so one pair per
/// **distinct group** reaches the shuffle, in first-occurrence order
/// (exactly what the row path's insertion-ordered map-side combine emits,
/// keeping both map sides byte-identical).
fn group_by_kernel(
    core: &Arc<Core>,
    input: &Arc<LogicalPlan>,
    key_idx: Vec<usize>,
    specs: Vec<(Agg, Option<usize>)>,
) -> Result<Rdd<(Vec<KeyValue>, Vec<AggState>)>> {
    let (rdd, seg) = match peel(&core.conf.exec, input)? {
        Some((seg, boundary)) => (compile(core, boundary)?, Some(Arc::new(seg))),
        None => (compile(core, input)?, None),
    };
    let width = seg.as_ref().map_or(input.schema().len(), |s| s.width);
    let batch_size = core.conf.exec.batch_size;
    let events = Arc::clone(&core.events);
    Ok(rdd.map_partitions(move |_part, mut input: BoxIter<Row>| {
        // Eager per-partition aggregation (a fresh kernel per call, so task
        // retries restart cleanly): every batch folds into the group table,
        // and the partition emits one pair per distinct group at the end.
        let mut kernel = batch::GroupByKernel::new(key_idx.clone(), &specs);
        let mut batches: u64 = 0;
        loop {
            let buf = next_batch(&mut input, batch_size);
            if buf.is_empty() {
                break;
            }
            batches += 1;
            let batch = ColumnBatch::from_rows(width, buf);
            match &seg {
                Some(seg) => {
                    let (batch, sel) = seg.apply(batch);
                    kernel.push_batch(&batch, sel.as_deref());
                }
                None => kernel.push_batch(&batch, None),
            }
        }
        if batches > 0 {
            events.emit(Event::ColumnarBatch {
                fused_ops: seg.as_ref().map(|s| s.ops.len() as u64).unwrap_or(1),
                batches,
                rows: kernel.rows_in(),
            });
            events.emit(Event::AggBatch {
                batches,
                rows_in: kernel.rows_in(),
                groups_out: kernel.groups_out(),
            });
        }
        Box::new(kernel.finish().into_iter()) as BoxIter<(Vec<KeyValue>, Vec<AggState>)>
    }))
}

/// Up to `batch_size` rows off the front of a partition.
fn next_batch(input: &mut BoxIter<Row>, batch_size: usize) -> Vec<Row> {
    let mut buf = Vec::with_capacity(batch_size);
    buf.extend(input.by_ref().take(batch_size));
    buf
}

/// One operator of a fused columnar pipeline segment.
enum FusedOp {
    Project(Vec<BoundExpr>),
    Filter(BoundExpr),
    Explode { idx: usize },
}

/// The one fusability rule: a Project or Filter free of opaque UDFs, or an
/// Explode, fuses into a columnar segment — returned bound against its
/// input, with that input. Every other node is a segment boundary.
fn fused_op(node: &LogicalPlan) -> Result<Option<(FusedOp, &Arc<LogicalPlan>)>> {
    Ok(match node {
        LogicalPlan::Project { input, exprs, .. } if !exprs.iter().any(|e| e.expr.has_udf()) => {
            Some((FusedOp::Project(bind_exprs(exprs, input.schema())?), input))
        }
        LogicalPlan::Filter { input, predicate } if !predicate.has_udf() => {
            Some((FusedOp::Filter(predicate.bind(input.schema())?), input))
        }
        LogicalPlan::Explode { input, col, .. } => {
            Some((FusedOp::Explode { idx: input.schema().resolve(col)? }, input))
        }
        _ => None,
    })
}

/// Peels the maximal fused segment off the top of `plan`: its operators in
/// execution order, and the boundary node left below them. `None` when the
/// top node does not fuse, and always under `ExecConf::row_major`. Pure
/// analysis — the boundary is *not* compiled here, so each caller compiles
/// it exactly once, as a row source or as a kernel feed.
fn peel<'a>(
    exec: &ExecConf,
    plan: &'a Arc<LogicalPlan>,
) -> Result<Option<(SegmentPlan, &'a Arc<LogicalPlan>)>> {
    let mut ops = Vec::new();
    let mut node = plan;
    if !exec.row_major {
        while let Some((op, input)) = fused_op(node)? {
            ops.push(op);
            node = input;
        }
    }
    if ops.is_empty() {
        return Ok(None);
    }
    ops.reverse();
    Ok(Some((SegmentPlan { ops, width: node.schema().len() }, node)))
}

/// The operator count of the longest fused segment [`compile`] builds for
/// this plan under `exec` (0 under `row_major`). `>= 2` means at least one
/// multi-operator single-pass segment runs: the signal behind EXPLAIN
/// ANALYZE's `dataframe (fused)` mode. It walks the plan with the
/// compiler's own [`peel`], so the two cannot disagree.
pub(crate) fn fused_pipeline_ops(exec: &ExecConf, plan: &Arc<LogicalPlan>) -> usize {
    let (run, boundary) = match peel(exec, plan) {
        Ok(Some((seg, boundary))) => (seg.ops.len(), boundary),
        // A plan that does not bind fails to compile: it fuses nothing.
        Ok(None) | Err(_) => (0, plan),
    };
    run.max(boundary.input().map_or(0, |input| fused_pipeline_ops(exec, input)))
}

/// A compiled fused pipeline segment: the operator chain plus the width of
/// the rows entering it. Shared between [`segment_rows`] (row-out
/// execution) and the vectorized GROUP BY map side, which keeps the
/// segment's output columnar and feeds it — selection vector and all —
/// straight into the aggregation kernel.
struct SegmentPlan {
    ops: Vec<FusedOp>,
    width: usize,
}

impl SegmentPlan {
    /// Runs every operator over one batch, returning the surviving batch
    /// and, if the trailing operators left one pending, a selection vector.
    ///
    /// Filters narrow a lazy selection vector instead of gathering
    /// (copying) every column per filter; the batch materializes only when
    /// a downstream operator needs positional storage, and the final
    /// emission reads straight through the selection. Evaluating a
    /// built-in expression over slots an earlier filter dropped is
    /// harmless: built-in operators are pure and total on every value.
    fn apply(&self, mut batch: ColumnBatch) -> (ColumnBatch, Option<Vec<u32>>) {
        let mut sel: Option<Vec<u32>> = None;
        for op in &self.ops {
            match op {
                FusedOp::Project(exprs) => {
                    if let Some(s) = sel.take() {
                        batch = batch.gather(&s);
                    }
                    batch = batch::project(exprs, &batch);
                }
                FusedOp::Filter(p) => sel = Some(batch::refine(p, &batch, sel.take())),
                FusedOp::Explode { idx } => {
                    if let Some(s) = sel.take() {
                        batch = batch.gather(&s);
                    }
                    batch = batch::explode(&batch, *idx);
                }
            }
            if sel.as_ref().map_or(batch.len(), |s| s.len()) == 0 {
                break;
            }
        }
        (batch, sel)
    }
}

/// Executes a fused segment over a row source, emitting rows: batches of
/// `ExecConf::batch_size` rows stream lazily through
/// [`SegmentPlan::apply`], and each partition reports its batch work once
/// when exhausted.
fn segment_rows(core: &Arc<Core>, source: Rdd<Row>, seg: SegmentPlan) -> Rdd<Row> {
    let seg = Arc::new(seg);
    let batch_size = core.conf.exec.batch_size;
    let events = Arc::clone(&core.events);
    source.map_partitions(move |_part, mut input: BoxIter<Row>| {
        let seg = Arc::clone(&seg);
        let events = Arc::clone(&events);
        // Per-call state (fresh on retries): the pending output rows of the
        // last batch, and the counters reported once per partition when
        // the input is exhausted.
        let mut out: std::vec::IntoIter<Row> = Vec::new().into_iter();
        let mut batches: u64 = 0;
        let mut rows_out: u64 = 0;
        let mut done = false;
        let iter = std::iter::from_fn(move || loop {
            if let Some(row) = out.next() {
                return Some(row);
            }
            if done {
                return None;
            }
            let buf = next_batch(&mut input, batch_size);
            if buf.is_empty() {
                done = true;
                if batches > 0 {
                    events.emit(Event::ColumnarBatch {
                        fused_ops: seg.ops.len() as u64,
                        batches,
                        rows: rows_out,
                    });
                }
                return None;
            }
            let (batch, sel) = seg.apply(ColumnBatch::from_rows(seg.width, buf));
            batches += 1;
            let out_rows = match sel {
                Some(s) => batch.to_rows_sel(&s),
                None => batch.to_rows(),
            };
            rows_out += out_rows.len() as u64;
            out = out_rows.into_iter();
        });
        Box::new(iter) as BoxIter<Row>
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataframe::{CmpOp, DataFrame};
    use crate::{SparkliteConf, SparkliteContext};

    fn df(ctx: &SparkliteContext) -> DataFrame {
        let schema =
            Schema::new(vec![Field::new("a", DataType::I64), Field::new("b", DataType::I64)]);
        let rows: Vec<Row> = (0..20).map(|i| vec![Value::I64(i), Value::I64(i * 10)]).collect();
        DataFrame::from_rows(ctx, schema, rows, 3).unwrap()
    }

    fn count_nodes(plan: &Arc<LogicalPlan>, pred: &dyn Fn(&LogicalPlan) -> bool) -> usize {
        let own = pred(plan) as usize;
        own + match plan.as_ref() {
            LogicalPlan::FromRdd { .. } => 0,
            LogicalPlan::Project { input, .. }
            | LogicalPlan::Filter { input, .. }
            | LogicalPlan::Explode { input, .. }
            | LogicalPlan::GroupBy { input, .. }
            | LogicalPlan::OrderBy { input, .. }
            | LogicalPlan::ZipWithIndex { input, .. }
            | LogicalPlan::Limit { input, .. } => count_nodes(input, pred),
        }
    }

    #[test]
    fn filters_merge() {
        let ctx = SparkliteContext::new(SparkliteConf::default().with_executors(2));
        let d = df(&ctx)
            .filter(Expr::cmp(Expr::col("a"), CmpOp::Gt, Expr::lit(Value::I64(5))))
            .unwrap()
            .filter(Expr::cmp(Expr::col("a"), CmpOp::Lt, Expr::lit(Value::I64(15))))
            .unwrap();
        let opt = optimize(Arc::clone(d.plan()));
        opt.validate().unwrap();
        assert_eq!(count_nodes(&opt, &|p| matches!(p, LogicalPlan::Filter { .. })), 1);
        assert_eq!(d.count().unwrap(), 9);
    }

    #[test]
    fn filter_pushes_below_sort() {
        let ctx = SparkliteContext::new(SparkliteConf::default().with_executors(2));
        let d = df(&ctx)
            .order_by(vec![("a".into(), SortDir::desc())])
            .unwrap()
            .filter(Expr::cmp(Expr::col("a"), CmpOp::Lt, Expr::lit(Value::I64(3))))
            .unwrap();
        let opt = optimize(Arc::clone(d.plan()));
        opt.validate().unwrap();
        // The root must now be the sort, with the filter inside.
        assert!(matches!(opt.as_ref(), LogicalPlan::OrderBy { .. }));
        let rows = d.collect_rows().unwrap();
        assert_eq!(rows.iter().map(|r| r[0].as_i64().unwrap()).collect::<Vec<_>>(), vec![2, 1, 0]);
    }

    #[test]
    fn projections_fuse() {
        let ctx = SparkliteContext::new(SparkliteConf::default().with_executors(2));
        let d = df(&ctx)
            .with_column(
                "c",
                Expr::num(Expr::col("a"), crate::dataframe::NumOp::Add, Expr::col("b")),
                DataType::I64,
            )
            .unwrap()
            .select(vec![NamedExpr::passthrough("c", DataType::I64)])
            .unwrap();
        let opt = optimize(Arc::clone(d.plan()));
        opt.validate().unwrap();
        assert_eq!(count_nodes(&opt, &|p| matches!(p, LogicalPlan::Project { .. })), 1);
        let rows = d.collect_rows().unwrap();
        assert_eq!(rows[3][0], Value::I64(33));
    }

    #[test]
    fn pruning_drops_unused_projected_columns() {
        let ctx = SparkliteContext::new(SparkliteConf::default().with_executors(2));
        // Build Project(a, b, big) -> GroupBy(keys=[a], count) — `big` and
        // `b` are never used, so pruning should remove them from the
        // projection.
        let base = df(&ctx);
        let wide = base
            .with_column(
                "big",
                Expr::udf("expensive", Some(vec!["b".into()]), |s, r| {
                    let i = s.index_of("b").expect("b exists");
                    r[i].clone()
                }),
                DataType::Any,
            )
            .unwrap();
        let grouped = wide.group_by(&["a"], vec![(Agg::Count, "n".into())]).unwrap();
        let opt = optimize(Arc::clone(grouped.plan()));
        opt.validate().unwrap();
        fn find_project(plan: &Arc<LogicalPlan>) -> Option<usize> {
            match plan.as_ref() {
                LogicalPlan::Project { exprs, .. } => Some(exprs.len()),
                LogicalPlan::FromRdd { .. } => None,
                LogicalPlan::Filter { input, .. }
                | LogicalPlan::Explode { input, .. }
                | LogicalPlan::GroupBy { input, .. }
                | LogicalPlan::OrderBy { input, .. }
                | LogicalPlan::ZipWithIndex { input, .. }
                | LogicalPlan::Limit { input, .. } => find_project(input),
            }
        }
        assert_eq!(find_project(&opt), Some(1), "only `a` should survive pruning");
        assert_eq!(grouped.count().unwrap(), 20);
    }

    #[test]
    fn optimized_and_unoptimized_agree() {
        let ctx = SparkliteContext::new(SparkliteConf::default().with_executors(4));
        let d = df(&ctx)
            .with_column(
                "c",
                Expr::num(Expr::col("a"), crate::dataframe::NumOp::Mul, Expr::lit(Value::I64(3))),
                DataType::I64,
            )
            .unwrap()
            .filter(Expr::cmp(Expr::col("c"), CmpOp::Ge, Expr::lit(Value::I64(30))))
            .unwrap()
            .order_by(vec![("c".into(), SortDir::desc())])
            .unwrap();
        optimize(Arc::clone(d.plan())).validate().unwrap();
        // Compile without optimization.
        let raw = compile(ctx.core(), d.plan()).unwrap().collect().unwrap();
        let opt = d.collect_rows().unwrap();
        assert_eq!(raw, opt);
        assert!(!opt.is_empty());
    }

    #[test]
    fn validate_rejects_hand_built_invalid_plans() {
        let ctx = SparkliteContext::new(SparkliteConf::default().with_executors(2));
        let base = Arc::clone(df(&ctx).plan());

        // A projection whose declared schema disagrees with its expressions.
        let bad_project = LogicalPlan::Project {
            input: Arc::clone(&base),
            exprs: vec![NamedExpr::passthrough("a", DataType::I64)],
            schema: Schema::new(vec![
                Field::new("a", DataType::I64),
                Field::new("phantom", DataType::Str),
            ]),
        };
        let err = bad_project.validate().unwrap_err().to_string();
        assert!(err.contains("invalid plan"), "unexpected error: {err}");

        // A filter whose predicate references a column the input lacks
        // (binding errors surface as "unknown column").
        let bad_filter = LogicalPlan::Filter {
            input: Arc::clone(&base),
            predicate: Expr::cmp(Expr::col("missing"), CmpOp::Gt, Expr::lit(Value::I64(0))),
        };
        let err = bad_filter.validate().unwrap_err().to_string();
        assert!(err.contains("unknown column"), "unexpected error: {err}");

        // A sort on a nonexistent key.
        let bad_sort =
            LogicalPlan::OrderBy { input: base, keys: vec![("nope".into(), SortDir::asc())] };
        assert!(bad_sort.validate().is_err());
    }

    #[test]
    fn validate_accepts_every_constructor_built_plan() {
        let ctx = SparkliteContext::new(SparkliteConf::default().with_executors(2));
        let d = df(&ctx)
            .with_column(
                "c",
                Expr::num(Expr::col("a"), crate::dataframe::NumOp::Add, Expr::col("b")),
                DataType::I64,
            )
            .unwrap()
            .filter(Expr::cmp(Expr::col("c"), CmpOp::Gt, Expr::lit(Value::I64(5))))
            .unwrap()
            .zip_with_index("idx", 0)
            .unwrap()
            .group_by(&["a"], vec![(Agg::Count, "n".into())])
            .unwrap()
            .order_by(vec![("a".into(), SortDir::asc())])
            .unwrap()
            .limit(5);
        d.plan().validate().unwrap();
        optimize(Arc::clone(d.plan())).validate().unwrap();
    }

    #[test]
    fn agg_states_cover_sql_semantics() {
        let ctx = SparkliteContext::new(SparkliteConf::default().with_executors(2));
        let schema =
            Schema::new(vec![Field::new("k", DataType::I64), Field::new("v", DataType::I64)]);
        let rows = vec![
            vec![Value::I64(1), Value::I64(10)],
            vec![Value::I64(1), Value::Null],
            vec![Value::I64(1), Value::I64(30)],
        ];
        let d = DataFrame::from_rows(&ctx, schema, rows, 2).unwrap();
        let g = d
            .group_by(
                &["k"],
                vec![
                    (Agg::Count, "cnt".into()),
                    (Agg::CountCol("v".into()), "cntv".into()),
                    (Agg::Sum("v".into()), "sum".into()),
                    (Agg::Avg("v".into()), "avg".into()),
                    (Agg::Min("v".into()), "min".into()),
                    (Agg::Max("v".into()), "max".into()),
                ],
            )
            .unwrap();
        let rows = g.collect_rows().unwrap();
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!(r[1], Value::I64(3)); // COUNT(*) counts nulls
        assert_eq!(r[2], Value::I64(2)); // COUNT(v) does not
        assert_eq!(r[3], Value::I64(40));
        assert_eq!(r[4], Value::F64(20.0));
        assert_eq!(r[5], Value::I64(10));
        assert_eq!(r[6], Value::I64(30));
    }
}
