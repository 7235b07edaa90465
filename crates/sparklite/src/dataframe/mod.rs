//! DataFrames: schema-ful tables of native-typed values with a logical plan
//! and a rule-based optimizer — sparklite's stand-in for Spark SQL.
//!
//! The FLWOR→DataFrame mapping of the paper (§4.4–§4.10) drives the
//! operator set: extended projection with UDFs (`for`/`let`), `EXPLODE`
//! (`for`), filter (`where`), `GROUP BY` with `COLLECT_LIST`/`COUNT`/`FIRST`
//! (`group by`), range-partitioned `ORDER BY` (`order by`), and a parallel
//! zip-with-index (`count`). Rows are row-major vectors of [`Value`]; the
//! performance property the paper's key encoding exploits — native machine
//! comparisons instead of boxed-item comparisons — holds either way.
//!
//! Execution compiles the optimized logical plan onto the RDD substrate, so
//! DataFrames inherit its parallel scheduling, shuffles and metrics.

pub mod batch;
mod expr;
mod plan;
pub mod properties;
mod rowcodec;
pub mod rules;

pub use expr::{BoundExpr, CmpOp, Expr, KeyValue, NumOp, SortDir, SortKey};
pub use plan::{optimize, Agg, LogicalPlan, NamedExpr};
pub use properties::{PlanProperties, Preserved};
pub use rowcodec::RowCodec;
pub use rules::{OptimizeTrace, Optimizer, RewriteRule};

use crate::cache::StorageLevel;
use crate::context::Core;
use crate::error::{Result, SparkliteError};
use crate::rdd::Rdd;
use crate::SparkliteContext;
use std::any::Any;
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// One cell of a DataFrame.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Bool(bool),
    I64(i64),
    F64(f64),
    Str(Arc<str>),
    /// Opaque bytes — engines store serialized payloads here (Rumble's
    /// tuple variables become `Bin` cells at every byte boundary, like
    /// Kryo-encoded objects in Spark).
    Bin(Arc<[u8]>),
    /// An opaque in-memory cell an engine keeps native while rows stay in
    /// one process. It stands for the `Bin` of its [`ExtCell::encode`]
    /// bytes everywhere: its type, equality, hashing, ordering and every
    /// byte encoding are exactly those of that `Bin`, and every byte
    /// boundary (shuffle, cache, process worker) writes it as that `Bin`.
    Ext(Arc<dyn ExtCell>),
    List(Arc<Vec<Value>>),
}

/// The payload of a [`Value::Ext`] cell.
pub trait ExtCell: Any + Send + Sync + fmt::Debug {
    /// The bytes this cell stands for; a byte boundary stores them as a
    /// `Bin`, so they must be what the engine would have put in one.
    fn encode(&self) -> Vec<u8>;

    /// For downcasting back to the engine's own type.
    fn as_any(&self) -> &dyn Any;
}

impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::I64(a), Value::I64(b)) => a == b,
            (Value::F64(a), Value::F64(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::List(a), Value::List(b)) => a == b,
            _ => match (self.bin_bytes(), other.bin_bytes()) {
                (Some(a), Some(b)) => a == b,
                _ => false,
            },
        }
    }
}

impl Value {
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    pub fn list(items: Vec<Value>) -> Value {
        Value::List(Arc::new(items))
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    pub fn dtype(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::I64(_) => Some(DataType::I64),
            Value::F64(_) => Some(DataType::F64),
            Value::Str(_) => Some(DataType::Str),
            Value::Bin(_) | Value::Ext(_) => Some(DataType::Bin),
            Value::List(_) => Some(DataType::List),
        }
    }

    /// The bytes of a `Bin` cell, or of the `Bin` an [`ExtCell`] stands
    /// for; `None` for every other kind.
    pub fn bin_bytes(&self) -> Option<Cow<'_, [u8]>> {
        match self {
            Value::Bin(b) => Some(Cow::Borrowed(b)),
            Value::Ext(c) => Some(Cow::Owned(c.encode())),
            _ => None,
        }
    }

    /// This value with every [`Value::Ext`] cell, nested ones included,
    /// replaced by the `Bin` it stands for — what a byte boundary stores.
    pub fn lowered(self) -> Value {
        match self {
            Value::Ext(c) => Value::Bin(Arc::from(c.encode())),
            Value::List(l) => {
                Value::List(Arc::new(l.iter().cloned().map(Value::lowered).collect()))
            }
            v => v,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::I64(v) => Some(*v as f64),
            Value::F64(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_list(&self) -> Option<&Arc<Vec<Value>>> {
        match self {
            Value::List(l) => Some(l),
            _ => None,
        }
    }

    pub fn as_bin(&self) -> Option<&Arc<[u8]>> {
        match self {
            Value::Bin(b) => Some(b),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bin(b) => write!(f, "<{} bytes>", b.len()),
            Value::Ext(c) => write!(f, "<{} bytes>", c.encode().len()),
            Value::List(l) => {
                write!(f, "[")?;
                for (i, v) in l.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
        }
    }
}

/// Column data types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataType {
    Bool,
    I64,
    F64,
    Str,
    Bin,
    List,
    /// Unconstrained — used for UDF outputs whose type varies by row.
    Any,
}

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    pub name: String,
    pub dtype: DataType,
}

impl Field {
    pub fn new(name: impl Into<String>, dtype: DataType) -> Field {
        Field { name: name.into(), dtype }
    }
}

/// An ordered list of fields with by-name lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    pub fn new(fields: Vec<Field>) -> Arc<Schema> {
        Arc::new(Schema { fields })
    }

    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    pub fn len(&self) -> usize {
        self.fields.len()
    }

    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    pub fn field(&self, name: &str) -> Option<&Field> {
        self.fields.iter().find(|f| f.name == name)
    }

    /// `index_of` that errors with a helpful message.
    pub fn resolve(&self, name: &str) -> Result<usize> {
        self.index_of(name).ok_or_else(|| {
            let known: Vec<&str> = self.fields.iter().map(|f| f.name.as_str()).collect();
            SparkliteError::Schema(format!("unknown column '{name}' (have: {known:?})"))
        })
    }
}

/// A row: one value per schema field, in field order.
pub type Row = Vec<Value>;

/// The user-facing DataFrame handle: a logical plan plus the driver core.
/// All transformations are lazy; actions compile the optimized plan onto
/// the RDD substrate.
#[derive(Clone)]
pub struct DataFrame {
    core: Arc<Core>,
    plan: Arc<LogicalPlan>,
}

impl DataFrame {
    /// Builds a DataFrame from driver-local rows.
    pub fn from_rows(
        ctx: &SparkliteContext,
        schema: Arc<Schema>,
        rows: Vec<Row>,
        num_partitions: usize,
    ) -> Result<DataFrame> {
        for (i, r) in rows.iter().enumerate() {
            if r.len() != schema.len() {
                return Err(SparkliteError::Schema(format!(
                    "row {i} has {} values, schema has {} fields",
                    r.len(),
                    schema.len()
                )));
            }
        }
        let rdd = ctx.parallelize(rows, num_partitions);
        Ok(Self::from_rdd(schema, &rdd))
    }

    /// Wraps an existing RDD of rows. The caller guarantees rows match the
    /// schema (this is the hot path used by engines; use [`from_rows`] for
    /// checked construction).
    ///
    /// [`from_rows`]: DataFrame::from_rows
    pub fn from_rdd(schema: Arc<Schema>, rows: &Rdd<Row>) -> DataFrame {
        DataFrame {
            core: Arc::clone(rows.core()),
            plan: Arc::new(LogicalPlan::FromRdd { schema, rows: rows.clone() }),
        }
    }

    pub fn schema(&self) -> &Arc<Schema> {
        self.plan.schema()
    }

    pub fn plan(&self) -> &Arc<LogicalPlan> {
        &self.plan
    }

    /// Rebinds this frame to a replacement logical plan over the same driver
    /// core. The caller is responsible for the plan being well-formed (it is
    /// still `validate`d before compilation) — this is how the equivalence
    /// fuzzer executes individually rewritten plans.
    pub fn with_plan(&self, plan: Arc<LogicalPlan>) -> DataFrame {
        DataFrame { core: Arc::clone(&self.core), plan }
    }

    fn derive(&self, plan: LogicalPlan) -> DataFrame {
        DataFrame { core: Arc::clone(&self.core), plan: Arc::new(plan) }
    }

    // ---- transformations ----

    /// Full projection: the output schema is exactly `exprs`.
    pub fn select(&self, exprs: Vec<NamedExpr>) -> Result<DataFrame> {
        let plan = LogicalPlan::project(Arc::clone(&self.plan), exprs)?;
        Ok(self.derive(plan))
    }

    /// Extended projection: keeps every existing column and appends one
    /// computed column (the paper's `SELECT a, b, c, EXPR(...) AS d`).
    pub fn with_column(
        &self,
        name: impl Into<String>,
        expr: Expr,
        dtype: DataType,
    ) -> Result<DataFrame> {
        let name = name.into();
        // Redeclaring an existing column replaces it in place; a new name
        // is appended.
        let mut replaced = false;
        let mut exprs: Vec<NamedExpr> = self
            .schema()
            .fields()
            .iter()
            .map(|f| {
                if f.name == name {
                    replaced = true;
                    NamedExpr { name: name.clone(), expr: expr.clone(), dtype }
                } else {
                    NamedExpr::passthrough(&f.name, f.dtype)
                }
            })
            .collect();
        if !replaced {
            exprs.push(NamedExpr { name, expr, dtype });
        }
        self.select(exprs)
    }

    /// Drops columns by name (absent names are ignored).
    pub fn drop_columns(&self, names: &[&str]) -> Result<DataFrame> {
        let exprs: Vec<NamedExpr> = self
            .schema()
            .fields()
            .iter()
            .filter(|f| !names.contains(&f.name.as_str()))
            .map(|f| NamedExpr::passthrough(&f.name, f.dtype))
            .collect();
        self.select(exprs)
    }

    /// Keeps rows where `predicate` evaluates to `TRUE` (NULL drops the
    /// row, like SQL).
    pub fn filter(&self, predicate: Expr) -> Result<DataFrame> {
        let plan = LogicalPlan::filter(Arc::clone(&self.plan), predicate)?;
        Ok(self.derive(plan))
    }

    /// Spark SQL's `EXPLODE`: replaces the list column `col` with one row
    /// per element, duplicating the other columns. Empty lists and NULLs
    /// produce no rows.
    pub fn explode(
        &self,
        col: &str,
        as_name: impl Into<String>,
        dtype: DataType,
    ) -> Result<DataFrame> {
        let plan = LogicalPlan::explode(Arc::clone(&self.plan), col, as_name.into(), dtype)?;
        Ok(self.derive(plan))
    }

    /// Groups by the named key columns and computes aggregates. The output
    /// schema is the key columns followed by the aggregate columns.
    pub fn group_by(&self, keys: &[&str], aggs: Vec<(Agg, String)>) -> Result<DataFrame> {
        let plan = LogicalPlan::group_by(
            Arc::clone(&self.plan),
            keys.iter().map(|s| s.to_string()).collect(),
            aggs,
        )?;
        Ok(self.derive(plan))
    }

    /// Globally sorts by the given `(column, direction)` keys.
    pub fn order_by(&self, keys: Vec<(String, SortDir)>) -> Result<DataFrame> {
        let plan = LogicalPlan::order_by(Arc::clone(&self.plan), keys)?;
        Ok(self.derive(plan))
    }

    /// Appends an `I64` column numbering rows globally from `start`,
    /// without funnelling data through one node — the paper's `count`
    /// clause trick (§4.9).
    pub fn zip_with_index(&self, name: impl Into<String>, start: i64) -> Result<DataFrame> {
        let plan = LogicalPlan::zip_with_index(Arc::clone(&self.plan), name.into(), start)?;
        Ok(self.derive(plan))
    }

    /// Keeps at most the first `n` rows.
    pub fn limit(&self, n: usize) -> DataFrame {
        self.derive(LogicalPlan::Limit { input: Arc::clone(&self.plan), n })
    }

    /// Persists the frame at [`StorageLevel::MemoryDeserialized`] so that
    /// several downstream passes (e.g. a sort's sampling and partitioning
    /// passes) do not recompute the pipeline — the role Spark's `.cache()`
    /// plays. Unlike the historical driver-funnel implementation, rows stay
    /// on the executors: partitions land in the [`CacheManager`] where the
    /// task that first computes them runs.
    ///
    /// [`CacheManager`]: crate::cache::CacheManager
    pub fn cache(&self) -> Result<DataFrame> {
        self.persist(StorageLevel::MemoryDeserialized)
    }

    /// Persists the frame at an explicit storage level and eagerly
    /// populates the cache (one task per partition; no rows reach the
    /// driver). `MemorySerialized` stores partitions as compact
    /// [`RowCodec`] bytes, trading decode CPU on re-read for a smaller
    /// footprint under the cache byte budget. Both levels store bytes for
    /// [`Value::Ext`] cells: the cache holds their `Bin`, never the engine's
    /// in-memory form.
    pub fn persist(&self, level: StorageLevel) -> Result<DataFrame> {
        let rdd = self.to_rdd()?.map(|mut row: Row| {
            for v in &mut row {
                *v = std::mem::replace(v, Value::Null).lowered();
            }
            row
        });
        let persisted = match level {
            StorageLevel::MemoryDeserialized => rdd.persist(level),
            StorageLevel::MemorySerialized => rdd.persist_with_codec(level, Arc::new(RowCodec)),
        };
        persisted.foreach(|_| {})?;
        Ok(DataFrame::from_rdd(Arc::clone(self.schema()), &persisted))
    }

    /// Drops this frame's cached partitions (a no-op unless the frame came
    /// from [`cache`]/[`persist`]).
    ///
    /// [`cache`]: DataFrame::cache
    /// [`persist`]: DataFrame::persist
    pub fn unpersist(&self) {
        if let LogicalPlan::FromRdd { rows, .. } = self.plan.as_ref() {
            rows.unpersist();
        }
    }

    // ---- actions ----

    /// Compiles the optimized plan to an RDD of rows. Optimization honors
    /// the context's [`crate::conf::OptimizerConf`] (global and per-rule
    /// disables) and reports every rule firing to the event bus as an
    /// [`crate::events::Event::OptimizerRuleFired`].
    pub fn to_rdd(&self) -> Result<Rdd<Row>> {
        plan::compile(&self.core, &self.optimize(true))
    }

    /// The plan [`to_rdd`](Self::to_rdd) compiles: the context's optimizer
    /// run over this frame's plan. `report` sends each rule firing to the
    /// event bus and each rejected rewrite to stderr.
    fn optimize(&self, report: bool) -> Arc<LogicalPlan> {
        let opt_conf = &self.core.conf.optimizer;
        if !opt_conf.enabled {
            return Arc::clone(&self.plan);
        }
        let engine = Optimizer::standard().without_rules(&opt_conf.disabled_rules);
        let (optimized, trace) = engine.run(Arc::clone(&self.plan));
        if report {
            for fire in &trace.fires {
                self.core.events.emit(crate::events::Event::OptimizerRuleFired {
                    rule: fire.rule,
                    stage: fire.pass,
                });
            }
            for v in &trace.violations {
                eprintln!(
                    "sparklite optimizer: rejected {} at pass {}: {}",
                    v.rule, v.pass, v.detail
                );
            }
        }
        optimized
    }

    /// Whether [`to_rdd`](Self::to_rdd) compiles this frame to at least one
    /// fused multi-operator columnar segment — the signal behind EXPLAIN
    /// ANALYZE's `dataframe (fused)` mode. It optimizes the plan without
    /// reporting (a read-only preview) and asks the compiler's own
    /// segment peeling (`plan::fused_pipeline_ops`), so a chain of UDF
    /// operators, which runs on rows, never reports fused.
    pub fn fused_pipeline(&self) -> bool {
        plan::fused_pipeline_ops(&self.core.conf.exec, &self.optimize(false)) >= 2
    }

    /// Runs the frame to driver rows. A `limit` directly over an
    /// `order_by` runs as one top-K job.
    pub fn collect_rows(&self) -> Result<Vec<Row>> {
        plan::collect(&self.core, &self.optimize(true))
    }

    pub fn count(&self) -> Result<u64> {
        self.to_rdd()?.count()
    }

    pub fn take(&self, n: usize) -> Result<Vec<Row>> {
        self.to_rdd()?.take(n)
    }

    /// Renders up to `n` rows as an aligned text table (for examples and
    /// the shell).
    pub fn show(&self, n: usize) -> Result<String> {
        let rows = self.take(n)?;
        let schema = self.schema();
        let mut widths: Vec<usize> = schema.fields().iter().map(|f| f.name.len()).collect();
        let rendered: Vec<Vec<String>> =
            rows.iter().map(|r| r.iter().map(|v| v.to_string()).collect::<Vec<_>>()).collect();
        for r in &rendered {
            for (i, cell) in r.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        for (i, f) in schema.fields().iter().enumerate() {
            out.push_str(&format!("| {:w$} ", f.name, w = widths[i]));
        }
        out.push_str("|\n");
        for (i, _) in schema.fields().iter().enumerate() {
            out.push_str(&format!("|-{:-<w$}-", "", w = widths[i]));
        }
        out.push_str("|\n");
        for r in &rendered {
            for (i, cell) in r.iter().enumerate() {
                out.push_str(&format!("| {:w$} ", cell, w = widths[i]));
            }
            out.push_str("|\n");
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SparkliteConf, SparkliteContext};

    fn sc() -> SparkliteContext {
        SparkliteContext::new(SparkliteConf::default().with_executors(4))
    }

    fn people(ctx: &SparkliteContext) -> DataFrame {
        let schema = Schema::new(vec![
            Field::new("name", DataType::Str),
            Field::new("age", DataType::I64),
            Field::new("tags", DataType::List),
        ]);
        let rows: Vec<Row> = vec![
            vec![
                Value::str("ana"),
                Value::I64(34),
                Value::list(vec![Value::str("a"), Value::str("b")]),
            ],
            vec![Value::str("bob"), Value::I64(28), Value::list(vec![])],
            vec![Value::str("cyd"), Value::I64(41), Value::list(vec![Value::str("c")])],
            vec![Value::str("dee"), Value::Null, Value::Null],
        ];
        DataFrame::from_rows(ctx, schema, rows, 2).unwrap()
    }

    #[test]
    fn schema_validation_on_from_rows() {
        let ctx = sc();
        let schema = Schema::new(vec![Field::new("a", DataType::I64)]);
        let err = DataFrame::from_rows(&ctx, schema, vec![vec![Value::I64(1), Value::I64(2)]], 1);
        assert!(err.is_err());
    }

    #[test]
    fn filter_and_project() {
        let ctx = sc();
        let df = people(&ctx);
        let adults = df
            .filter(Expr::cmp(Expr::col("age"), CmpOp::Ge, Expr::lit(Value::I64(30))))
            .unwrap()
            .select(vec![NamedExpr::passthrough("name", DataType::Str)])
            .unwrap();
        let mut names: Vec<String> = adults
            .collect_rows()
            .unwrap()
            .into_iter()
            .map(|r| r[0].as_str().unwrap().to_string())
            .collect();
        names.sort();
        // NULL age drops the row.
        assert_eq!(names, vec!["ana", "cyd"]);
    }

    #[test]
    fn with_column_and_redeclaration() {
        let ctx = sc();
        let df = people(&ctx);
        let df2 = df
            .with_column(
                "age",
                Expr::num(Expr::col("age"), NumOp::Add, Expr::lit(Value::I64(1))),
                DataType::I64,
            )
            .unwrap();
        // Redeclaring keeps a single column of that name.
        assert_eq!(df2.schema().len(), 3);
        let rows = df2.collect_rows().unwrap();
        let ana = rows.iter().find(|r| r[0].as_str() == Some("ana")).unwrap();
        assert_eq!(ana[1], Value::I64(35));
        let dee = rows.iter().find(|r| r[0].as_str() == Some("dee")).unwrap();
        assert_eq!(dee[1], Value::Null, "NULL + 1 stays NULL");
    }

    #[test]
    fn explode_replicates_rows() {
        let ctx = sc();
        let df = people(&ctx).explode("tags", "tag", DataType::Str).unwrap();
        let mut pairs: Vec<(String, String)> = df
            .collect_rows()
            .unwrap()
            .into_iter()
            .map(|r| {
                let name_idx = df.schema().index_of("name").unwrap();
                let tag_idx = df.schema().index_of("tag").unwrap();
                (
                    r[name_idx].as_str().unwrap().to_string(),
                    r[tag_idx].as_str().unwrap().to_string(),
                )
            })
            .collect();
        pairs.sort();
        // bob (empty list) and dee (NULL) disappear.
        assert_eq!(
            pairs,
            vec![
                ("ana".to_string(), "a".to_string()),
                ("ana".to_string(), "b".to_string()),
                ("cyd".to_string(), "c".to_string())
            ]
        );
    }

    #[test]
    fn group_by_counts_and_collects() {
        let ctx = sc();
        let schema =
            Schema::new(vec![Field::new("k", DataType::Str), Field::new("v", DataType::I64)]);
        let rows: Vec<Row> =
            (0..100).map(|i| vec![Value::str(format!("k{}", i % 3)), Value::I64(i)]).collect();
        let df = DataFrame::from_rows(&ctx, schema, rows, 5).unwrap();
        let g = df
            .group_by(
                &["k"],
                vec![
                    (Agg::Count, "n".to_string()),
                    (Agg::Sum("v".to_string()), "total".to_string()),
                    (Agg::CollectList("v".to_string()), "all".to_string()),
                ],
            )
            .unwrap();
        let mut rows = g.collect_rows().unwrap();
        rows.sort_by_key(|r| r[0].as_str().unwrap().to_string());
        assert_eq!(rows.len(), 3);
        let k0 = &rows[0];
        assert_eq!(k0[1], Value::I64(34)); // 0,3,...,99 → 34 values
        let list_len = k0[3].as_list().unwrap().len();
        assert_eq!(list_len, 34);
        let total: i64 = (0..100).filter(|i| i % 3 == 0).sum();
        assert_eq!(k0[2], Value::I64(total));
    }

    #[test]
    fn order_by_multiple_keys() {
        let ctx = sc();
        let schema =
            Schema::new(vec![Field::new("a", DataType::I64), Field::new("b", DataType::Str)]);
        let rows: Vec<Row> = vec![
            vec![Value::I64(2), Value::str("x")],
            vec![Value::I64(1), Value::str("z")],
            vec![Value::I64(1), Value::str("a")],
            vec![Value::Null, Value::str("n")],
            vec![Value::I64(2), Value::str("a")],
        ];
        let df = DataFrame::from_rows(&ctx, schema, rows, 3).unwrap();
        let sorted = df
            .order_by(vec![("a".to_string(), SortDir::asc()), ("b".to_string(), SortDir::desc())])
            .unwrap()
            .collect_rows()
            .unwrap();
        // NULL sorts first (nulls-first default), then (1,z),(1,a),(2,x),(2,a).
        assert_eq!(sorted[0][0], Value::Null);
        assert_eq!(sorted[1], vec![Value::I64(1), Value::str("z")]);
        assert_eq!(sorted[2], vec![Value::I64(1), Value::str("a")]);
        assert_eq!(sorted[3], vec![Value::I64(2), Value::str("x")]);
        assert_eq!(sorted[4], vec![Value::I64(2), Value::str("a")]);
    }

    #[test]
    fn zip_with_index_numbers_rows() {
        let ctx = sc();
        let schema = Schema::new(vec![Field::new("v", DataType::I64)]);
        let rows: Vec<Row> = (0..50).map(|i| vec![Value::I64(i)]).collect();
        let df = DataFrame::from_rows(&ctx, schema, rows, 7).unwrap();
        let out = df.zip_with_index("idx", 1).unwrap().collect_rows().unwrap();
        for (i, r) in out.iter().enumerate() {
            assert_eq!(r[1], Value::I64(i as i64 + 1));
        }
    }

    #[test]
    fn limit_and_take() {
        let ctx = sc();
        let schema = Schema::new(vec![Field::new("v", DataType::I64)]);
        let rows: Vec<Row> = (0..100).map(|i| vec![Value::I64(i)]).collect();
        let df = DataFrame::from_rows(&ctx, schema, rows, 4).unwrap();
        assert_eq!(df.limit(7).count().unwrap(), 7);
        assert_eq!(df.take(3).unwrap().len(), 3);
    }

    #[test]
    fn show_renders_table() {
        let ctx = sc();
        let df = people(&ctx);
        let s = df.show(10).unwrap();
        assert!(s.contains("name"));
        assert!(s.contains("ana"));
        assert!(s.contains("NULL"));
    }

    /// A test [`ExtCell`] standing for fixed bytes.
    #[derive(Debug)]
    struct TestCell(Vec<u8>);

    impl ExtCell for TestCell {
        fn encode(&self) -> Vec<u8> {
            self.0.clone()
        }

        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    /// The same bytes as an opaque cell and as a `Bin`.
    fn twins(bytes: &[u8]) -> (Value, Value) {
        (Value::Ext(Arc::new(TestCell(bytes.to_vec()))), Value::Bin(Arc::from(bytes)))
    }

    #[test]
    fn value_stays_three_words() {
        assert_eq!(std::mem::size_of::<Value>(), 24);
    }

    #[test]
    fn ext_cells_encode_to_the_bytes_of_their_bin() {
        use super::batch::encode_group_value;
        use super::plan::{AggState, GroupPairCodec};
        use crate::CacheCodec;

        for bytes in [&b""[..], b"\x00", b"\x00\xFFab", b"zzz"] {
            let (ext, bin) = twins(bytes);
            assert_eq!(ext.dtype(), Some(DataType::Bin));
            assert_eq!(ext.to_string(), bin.to_string());

            let row = |v: &Value| vec![Value::I64(1), v.clone(), Value::list(vec![v.clone()])];
            assert_eq!(RowCodec.encode(&[row(&ext)]), RowCodec.encode(&[row(&bin)]));

            let pair = |v: &Value| {
                (
                    vec![KeyValue(v.clone())],
                    vec![AggState::List(vec![v.clone()]), AggState::Count(2)],
                )
            };
            assert_eq!(GroupPairCodec.encode(&[pair(&ext)]), GroupPairCodec.encode(&[pair(&bin)]));

            let (mut a, mut b) = (Vec::new(), Vec::new());
            encode_group_value(&mut a, &ext);
            encode_group_value(&mut b, &bin);
            assert_eq!(a, b);

            // One sort key: the cell and its `Bin` tie, and every
            // neighbour orders against both alike, in every direction.
            let neighbours = [
                Value::Null,
                Value::I64(1),
                Value::str("zzz"),
                Value::Bin(Arc::from(&b""[..])),
                Value::Bin(Arc::from(&b"\x00"[..])),
                Value::Bin(Arc::from(&b"\x00\xFFaa"[..])),
                Value::Bin(Arc::from(&b"zz"[..])),
                twins(b"zzzz").0,
                Value::list(vec![bin.clone()]),
            ];
            for dir in [SortDir::asc(), SortDir::desc(), SortDir::desc().with_nulls_last(false)] {
                let key = |v: &Value| SortKey::new(v.clone(), dir);
                assert_eq!(key(&ext).cmp(&key(&bin)), std::cmp::Ordering::Equal);
                for n in &neighbours {
                    assert_eq!(key(&ext).cmp(&key(n)), key(&bin).cmp(&key(n)), "{n:?} {dir:?}");
                    assert_eq!(key(n).cmp(&key(&ext)), key(n).cmp(&key(&bin)), "{n:?} {dir:?}");
                }
            }
        }
    }

    #[test]
    fn ext_cells_compare_and_hash_as_their_bin() {
        use super::expr::{eval_cmp, value_cmp};
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};

        let hash = |v: &Value| {
            let mut h = DefaultHasher::new();
            KeyValue(v.clone()).hash(&mut h);
            h.finish()
        };
        let ops = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
        let (ext, bin) = twins(b"\x01mid");
        let others = [
            Value::Null,
            Value::Bool(true),
            Value::I64(7),
            Value::F64(0.5),
            Value::str("\x01mid"),
            Value::Bin(Arc::from(&b"\x01mid"[..])),
            Value::Bin(Arc::from(&b"\x01a"[..])),
            Value::Bin(Arc::from(&b"\x02"[..])),
            twins(b"\x01mid").0,
            twins(b"\x01zz").0,
            Value::list(vec![bin.clone()]),
        ];
        assert_eq!(KeyValue(ext.clone()), KeyValue(bin.clone()));
        assert_eq!(hash(&ext), hash(&bin));
        for other in &others {
            assert_eq!(ext == *other, bin == *other, "{other:?}");
            assert_eq!(
                KeyValue(ext.clone()) == KeyValue(other.clone()),
                KeyValue(bin.clone()) == KeyValue(other.clone())
            );
            assert_eq!(value_cmp(&ext, other), value_cmp(&bin, other), "{other:?}");
            assert_eq!(value_cmp(other, &ext), value_cmp(other, &bin), "{other:?}");
            for op in ops {
                assert_eq!(
                    eval_cmp(&ext, op, other),
                    eval_cmp(&bin, op, other),
                    "{op:?} {other:?}"
                );
                assert_eq!(
                    eval_cmp(other, op, &ext),
                    eval_cmp(other, op, &bin),
                    "{op:?} {other:?}"
                );
            }
        }
    }

    #[test]
    fn persist_stores_ext_cells_as_bytes_at_both_levels() {
        let ctx = sc();
        let schema =
            Schema::new(vec![Field::new("k", DataType::I64), Field::new("v", DataType::List)]);
        let rows: Vec<Row> = (0..20u8)
            .map(|i| vec![Value::I64(i as i64), Value::list(vec![twins(&[i, 0xFF]).0])])
            .collect();
        let df = DataFrame::from_rows(&ctx, schema, rows.clone(), 3).unwrap();
        for level in [StorageLevel::MemoryDeserialized, StorageLevel::MemorySerialized] {
            let cached = df.persist(level).unwrap();
            let out = cached.collect_rows().unwrap();
            assert_eq!(out, rows, "{level:?} changed the values");
            for row in &out {
                let Value::List(l) = &row[1] else { panic!("a list") };
                assert!(matches!(l[0], Value::Bin(_)), "{level:?} kept a native cell");
            }
            cached.unpersist();
        }
    }

    #[test]
    fn unknown_column_errors() {
        let ctx = sc();
        let df = people(&ctx);
        assert!(df.filter(Expr::col("nope")).is_err());
        assert!(df.order_by(vec![("nope".into(), SortDir::asc())]).is_err());
        assert!(df.group_by(&["nope"], vec![(Agg::Count, "n".into())]).is_err());
        assert!(df.explode("nope", "x", DataType::Str).is_err());
    }
}
