//! The FLWOR clauses, each with a local tuple path and the DataFrame
//! mapping of §4.4–§4.9.
//!
//! In DataFrame mode every in-scope variable is one column of variable
//! cells (see the module docs of [`super`]): each clause that binds a
//! variable wraps its sequence in a cell, and each UDF reads the cells of
//! the columns its expression actually uses — its declared `uses`
//! footprint, which also feeds the optimizer's pruning (§4.7's "does not
//! create the column at all"). Each per-row expression — a `let`, a
//! `where`, a non-initial `for`, a key, the `return` — is a `RowExpr`:
//! compiled to a closure that borrows the used cells as its row variables
//! (see [`crate::runtime::row`]), or, when some node has no compiled form,
//! evaluated against a dynamic context bound from those cells.

use super::{
    bind_cell, cell_items, cell_of, ctx_from_row, row_var, ClauseIterator, ClauseRef, FusedScan,
    Tuple, TupleCursor, TupleFrame,
};
use crate::error::{codes, Result, RumbleError};
use crate::item::{group_key, seq, GroupKey, Item, Sequence};
use crate::runtime::row::{Raises, RowProgram, Seq};
use crate::runtime::{eval_ebv, DynamicContext, ExprRef};
use sparklite::dataframe::{Agg, NamedExpr};
use sparklite::dataframe::{
    DataFrame, DataType, Expr as DfExpr, Field, Row, Schema, SortDir, SortKey, Value,
};
use sparklite::rdd::task_bail;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};

/// Computes the post-clause variable list: parent variables (minus a
/// redeclared one) plus the new variable.
fn vars_plus(parent: Option<&ClauseRef>, new: &[Arc<str>]) -> Vec<Arc<str>> {
    let mut out: Vec<Arc<str>> = match parent {
        None => Vec::new(),
        Some(p) => p.out_vars().iter().filter(|v| !new.iter().any(|n| n == *v)).cloned().collect(),
    };
    out.extend(new.iter().cloned());
    out
}

/// Lazily chains per-parent-tuple cursors of output tuples.
struct TupleFlatMap {
    parent: TupleCursor,
    f: Box<dyn FnMut(Tuple) -> Result<TupleCursor> + Send>,
    inner: Option<TupleCursor>,
    failed: bool,
}

impl TupleFlatMap {
    #[allow(clippy::new_ret_no_self)] // constructor returns the boxed cursor form
    fn new(
        parent: TupleCursor,
        f: impl FnMut(Tuple) -> Result<TupleCursor> + Send + 'static,
    ) -> TupleCursor {
        Box::new(TupleFlatMap { parent, f: Box::new(f), inner: None, failed: false })
    }
}

impl Iterator for TupleFlatMap {
    type Item = Result<Tuple>;

    fn next(&mut self) -> Option<Result<Tuple>> {
        if self.failed {
            return None;
        }
        loop {
            if let Some(inner) = &mut self.inner {
                match inner.next() {
                    Some(r) => {
                        if r.is_err() {
                            self.failed = true;
                        }
                        return Some(r);
                    }
                    None => self.inner = None,
                }
            }
            match self.parent.next() {
                None => return None,
                Some(Err(e)) => {
                    self.failed = true;
                    return Some(Err(e));
                }
                Some(Ok(t)) => match (self.f)(t) {
                    Ok(c) => self.inner = Some(c),
                    Err(e) => {
                        self.failed = true;
                        return Some(Err(e));
                    }
                },
            }
        }
    }
}

/// One expression evaluated per row of a tuple frame: compiled over the
/// cells of the variables it uses (its `uses`, in order, are the program's
/// row variables), or, if it does not compile, run against a context
/// bound from those cells.
pub(crate) struct RowExpr {
    expr: ExprRef,
    uses: Vec<Arc<str>>,
    program: Option<RowProgram>,
    /// The column of each `uses` variable, resolved on the first row.
    cols: OnceLock<Box<[usize]>>,
    base: DynamicContext,
}

/// Row variables a row binds without allocating: up to this many borrowed
/// cells live on the stack.
const INLINE_VARS: usize = 8;

impl RowExpr {
    pub(crate) fn new(expr: &ExprRef, uses: &[Arc<str>], ctx: &DynamicContext) -> RowExpr {
        let base = ctx.enter_executor();
        RowExpr {
            expr: Arc::clone(expr),
            uses: uses.to_vec(),
            program: RowProgram::compile(expr, uses, &base),
            cols: OnceLock::new(),
            base,
        }
    }

    /// The columns of the `uses` variables in `schema`: the cached ones
    /// while the schema still has them there, else resolved afresh. `None`
    /// if the frame lacks one (a variable bound outside the FLWOR).
    fn columns(&self, schema: &Schema) -> Option<Cow<'_, [usize]>> {
        let resolve = || self.uses.iter().map(|u| schema.index_of(u)).collect::<Option<Box<_>>>();
        let cached = self.cols.get_or_init(|| resolve().unwrap_or_default());
        let fields = schema.fields();
        let fits = cached.len() == self.uses.len()
            && cached
                .iter()
                .zip(&self.uses)
                .all(|(&c, u)| fields.get(c).is_some_and(|f| f.name == **u));
        if fits {
            Some(Cow::Borrowed(cached))
        } else {
            resolve().map(|cols| Cow::Owned(cols.into_vec()))
        }
    }

    /// The compiled program and the columns it reads, if this expression
    /// compiled and the frame carries every variable it uses.
    fn compiled(&self, schema: &Schema) -> Option<(&RowProgram, Cow<'_, [usize]>)> {
        Some((self.program.as_ref()?, self.columns(schema)?))
    }

    /// Calls `f` with the items of the `uses` variables in `row`: native
    /// cells borrowed in place, on the stack; a `Bin` (a cell that crossed
    /// a process boundary) decoded.
    fn with_vars<R>(&self, cols: &[usize], row: &[Value], f: impl FnOnce(&[&[Item]]) -> R) -> R {
        if cols.len() <= INLINE_VARS {
            let mut vars: [&[Item]; INLINE_VARS] = [&[]; INLINE_VARS];
            let native = cols.iter().zip(&mut vars).all(|(&c, var)| match cell_items(&row[c]) {
                Some(items) => {
                    *var = items;
                    true
                }
                None => false,
            });
            if native {
                return f(&vars[..cols.len()]);
            }
        }
        let bound: Vec<Sequence> =
            cols.iter().zip(&self.uses).map(|(&c, var)| bind_cell(var, &row[c])).collect();
        let vars: Vec<&[Item]> = bound.iter().map(|items| items.as_slice()).collect();
        f(&vars)
    }

    /// The context the interpreted path binds for `row`.
    fn bound(&self, schema: &Schema, row: &[Value]) -> DynamicContext {
        ctx_from_row(&self.base, schema, row, &self.uses)
    }

    /// Hands the result sequence of `row` to `k`.
    pub(crate) fn eval_with<R>(
        &self,
        schema: &Schema,
        row: &[Value],
        k: impl FnOnce(Seq<'_>) -> R,
    ) -> Result<R> {
        match self.compiled(schema) {
            Some((program, cols)) => self.with_vars(&cols, row, |vars| program.run(vars, k)),
            None => Ok(k(Seq::Owned(self.expr.materialize(&self.bound(schema, row))?))),
        }
    }

    pub(crate) fn eval(&self, schema: &Schema, row: &[Value]) -> Result<Vec<Item>> {
        self.eval_with(schema, row, |items| items.into_vec())
    }

    /// The effective boolean value of [`eval`](Self::eval)'s result. It
    /// reads at most two items, so a program that can raise after its
    /// first item leaves it to the iterator tree.
    fn ebv(&self, schema: &Schema, row: &[Value]) -> Result<bool> {
        match self.compiled(schema).filter(|(p, _)| p.raises() <= Raises::Early) {
            Some((program, cols)) => self.with_vars(&cols, row, |vars| program.ebv(vars)),
            None => eval_ebv(&self.expr, &self.bound(schema, row)),
        }
    }
}

/// Builds a DataFrame UDF that evaluates an expression against the
/// variables of a row and post-processes its result sequence.
fn row_udf(
    name: &str,
    expr: ExprRef,
    uses: Vec<Arc<str>>,
    ctx: &DynamicContext,
    finish: impl Fn(Seq<'_>) -> Value + Send + Sync + 'static,
) -> DfExpr {
    let uses_strings: Vec<String> = uses.iter().map(|u| u.to_string()).collect();
    let row_expr = RowExpr::new(&expr, &uses, ctx);
    DfExpr::udf(name, Some(uses_strings), move |schema: &Schema, row: &[Value]| {
        match row_expr.eval_with(schema, row, &finish) {
            Ok(value) => value,
            Err(e) => task_bail(e),
        }
    })
}

// ---------------------------------------------------------------------------
// for
// ---------------------------------------------------------------------------

/// `for $var [at $pos] [allowing empty] in expr` (§4.4).
pub struct ForClauseIter {
    pub parent: Option<ClauseRef>,
    pub var: Arc<str>,
    pub positional: Option<Arc<str>>,
    pub allowing_empty: bool,
    pub expr: ExprRef,
    /// FLWOR variables the binding expression reads.
    pub uses: Vec<Arc<str>>,
    out: Vec<Arc<str>>,
}

impl ForClauseIter {
    pub fn new(
        parent: Option<ClauseRef>,
        var: Arc<str>,
        positional: Option<Arc<str>>,
        allowing_empty: bool,
        expr: ExprRef,
        uses: Vec<Arc<str>>,
    ) -> Self {
        let mut new_vars = vec![Arc::clone(&var)];
        if let Some(p) = &positional {
            new_vars.push(Arc::clone(p));
        }
        let out = vars_plus(parent.as_ref(), &new_vars);
        ForClauseIter { parent, var, positional, allowing_empty, expr, uses, out }
    }

    /// Expands one tuple into the tuples produced by this binding.
    fn expand(&self, base: Tuple, ctx: &DynamicContext) -> Result<TupleCursor> {
        let child_ctx = base.bind_into(ctx);
        let items = self.expr.materialize(&child_ctx)?;
        if items.is_empty() && self.allowing_empty {
            let mut t = base.extended(Arc::clone(&self.var), seq(vec![]));
            if let Some(p) = &self.positional {
                t = t.extended(Arc::clone(p), seq(vec![Item::Integer(0)]));
            }
            return Ok(Box::new(std::iter::once(Ok(t))));
        }
        let var = Arc::clone(&self.var);
        let positional = self.positional.clone();
        Ok(Box::new(items.into_iter().enumerate().map(move |(i, item)| {
            let mut t = base.extended(Arc::clone(&var), seq(vec![item]));
            if let Some(p) = &positional {
                t = t.extended(Arc::clone(p), seq(vec![Item::Integer(i as i64 + 1)]));
            }
            Ok(t)
        })))
    }
}

impl ClauseIterator for ForClauseIter {
    fn out_vars(&self) -> &[Arc<str>] {
        &self.out
    }

    fn is_unit_var(&self, var: &str) -> bool {
        if var == self.var.as_ref() {
            return !self.allowing_empty; // `allowing empty` may bind ()
        }
        if self.positional.as_deref() == Some(var) {
            return true;
        }
        self.parent.as_ref().is_some_and(|p| p.is_unit_var(var))
    }

    fn fused_scan(&self) -> Option<FusedScan> {
        if self.parent.is_some() || self.positional.is_some() || self.allowing_empty {
            return None;
        }
        Some(FusedScan {
            var: Arc::clone(&self.var),
            source: Arc::clone(&self.expr),
            predicates: Vec::new(),
        })
    }

    fn tuples(&self, ctx: &DynamicContext) -> Result<TupleCursor> {
        match &self.parent {
            None => self.expand(Tuple::new(), ctx),
            Some(parent) => {
                let parent_cursor = parent.tuples(ctx)?;
                // Work around borrowing self in the closure: clone the bits.
                let this = ForClauseIter {
                    parent: None,
                    var: Arc::clone(&self.var),
                    positional: self.positional.clone(),
                    allowing_empty: self.allowing_empty,
                    expr: Arc::clone(&self.expr),
                    uses: self.uses.clone(),
                    out: Vec::new(),
                };
                let ctx = ctx.clone();
                Ok(TupleFlatMap::new(parent_cursor, move |t| this.expand(t, &ctx)))
            }
        }
    }

    fn frame(&self, ctx: &DynamicContext) -> Result<Option<TupleFrame>> {
        match &self.parent {
            None => {
                // Initial for: the input sequence itself must be an RDD,
                // which is then mapped straight into a one-column DataFrame
                // (§4.4, last paragraph).
                if ctx.in_executor() || !self.expr.is_rdd(ctx) || self.allowing_empty {
                    return Ok(None);
                }
                let rdd = self.expr.rdd(ctx)?;
                let (schema, vars, rows) = match &self.positional {
                    None => {
                        let schema =
                            Schema::new(vec![Field::new(self.var.as_ref(), DataType::Bin)]);
                        let rows = rdd.map(|item| vec![cell_of(vec![item])]);
                        (schema, vec![Arc::clone(&self.var)], rows)
                    }
                    Some(pos) => {
                        let schema = Schema::new(vec![
                            Field::new(self.var.as_ref(), DataType::Bin),
                            Field::new(pos.as_ref(), DataType::Bin),
                        ]);
                        let rows = rdd.zip_with_index().map(|(item, idx)| {
                            vec![cell_of(vec![item]), cell_of(vec![Item::Integer(idx as i64 + 1)])]
                        });
                        (schema, vec![Arc::clone(&self.var), Arc::clone(pos)], rows)
                    }
                };
                Ok(Some(TupleFrame { df: DataFrame::from_rdd(schema, &rows), vars }))
            }
            Some(parent) => {
                // Non-initial for: extended projection computing the item
                // list, then EXPLODE (§4.4).
                if self.positional.is_some() || self.allowing_empty {
                    return Ok(None); // local fallback for these variants
                }
                let Some(f) = parent.frame(ctx)? else { return Ok(None) };
                let mut df = f.df;
                if f.vars.iter().any(|v| v == &self.var) {
                    // Redeclaration hides the previous binding.
                    df = df.drop_columns(&[self.var.as_ref()])?;
                }
                let items_udf = row_udf(
                    &format!("for ${}", self.var),
                    Arc::clone(&self.expr),
                    self.uses.clone(),
                    ctx,
                    |items| Value::list(items.iter().map(|i| cell_of(vec![i.clone()])).collect()),
                );
                let tmp = format!("__rumble_for_{}", self.var);
                let df = df.with_column(&tmp, items_udf, DataType::List)?.explode(
                    &tmp,
                    self.var.as_ref(),
                    DataType::Bin,
                )?;
                Ok(Some(TupleFrame { df, vars: self.out.clone() }))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// let
// ---------------------------------------------------------------------------

/// `let $var := expr` (§4.5): extended projection without the explode.
pub struct LetClauseIter {
    pub parent: Option<ClauseRef>,
    pub var: Arc<str>,
    pub expr: ExprRef,
    pub uses: Vec<Arc<str>>,
    out: Vec<Arc<str>>,
}

impl LetClauseIter {
    pub fn new(
        parent: Option<ClauseRef>,
        var: Arc<str>,
        expr: ExprRef,
        uses: Vec<Arc<str>>,
    ) -> Self {
        let out = vars_plus(parent.as_ref(), std::slice::from_ref(&var));
        LetClauseIter { parent, var, expr, uses, out }
    }
}

impl ClauseIterator for LetClauseIter {
    fn out_vars(&self) -> &[Arc<str>] {
        &self.out
    }

    fn is_unit_var(&self, var: &str) -> bool {
        if var == self.var.as_ref() {
            return false; // a let binds an arbitrary sequence
        }
        self.parent.as_ref().is_some_and(|p| p.is_unit_var(var))
    }

    fn tuples(&self, ctx: &DynamicContext) -> Result<TupleCursor> {
        let var = Arc::clone(&self.var);
        let expr = Arc::clone(&self.expr);
        let ctx = ctx.clone();
        let parent: TupleCursor = match &self.parent {
            None => Box::new(std::iter::once(Ok(Tuple::new()))),
            Some(p) => p.tuples(&ctx)?,
        };
        Ok(TupleFlatMap::new(parent, move |t| {
            let child = t.bind_into(&ctx);
            let items = expr.materialize(&child)?;
            let out = t.extended(Arc::clone(&var), seq(items));
            Ok(Box::new(std::iter::once(Ok(out))) as TupleCursor)
        }))
    }

    fn frame(&self, ctx: &DynamicContext) -> Result<Option<TupleFrame>> {
        // An initial let is always local (§4.5: "If the let clause is the
        // first clause … execution is local").
        let Some(parent) = &self.parent else { return Ok(None) };
        let Some(f) = parent.frame(ctx)? else { return Ok(None) };
        let udf = row_udf(
            &format!("let ${}", self.var),
            Arc::clone(&self.expr),
            self.uses.clone(),
            ctx,
            |items| cell_of(items.into_vec()),
        );
        let df = f.df.with_column(self.var.as_ref(), udf, DataType::Bin)?;
        Ok(Some(TupleFrame { df, vars: self.out.clone() }))
    }
}

// ---------------------------------------------------------------------------
// where
// ---------------------------------------------------------------------------

/// `where expr` (§4.6): a selection by effective boolean value.
pub struct WhereClauseIter {
    pub parent: ClauseRef,
    pub predicate: ExprRef,
    pub uses: Vec<Arc<str>>,
}

impl ClauseIterator for WhereClauseIter {
    fn out_vars(&self) -> &[Arc<str>] {
        self.parent.out_vars()
    }

    fn is_unit_var(&self, var: &str) -> bool {
        self.parent.is_unit_var(var)
    }

    fn fused_scan(&self) -> Option<FusedScan> {
        // A `where` over a fused scan stays fused: with only the initial
        // `for` in scope, the predicate sees exactly `$var` plus the
        // driver context the filter closure captures.
        let mut scan = self.parent.fused_scan()?;
        scan.predicates.push(Arc::clone(&self.predicate));
        Some(scan)
    }

    fn tuples(&self, ctx: &DynamicContext) -> Result<TupleCursor> {
        let pred = Arc::clone(&self.predicate);
        let ctx2 = ctx.clone();
        let parent = self.parent.tuples(ctx)?;
        Ok(Box::new(parent.filter_map(move |r| match r {
            Err(e) => Some(Err(e)),
            Ok(t) => {
                let child = t.bind_into(&ctx2);
                match eval_ebv(&pred, &child) {
                    Ok(true) => Some(Ok(t)),
                    Ok(false) => None,
                    Err(e) => Some(Err(e)),
                }
            }
        })))
    }

    fn frame(&self, ctx: &DynamicContext) -> Result<Option<TupleFrame>> {
        let Some(f) = self.parent.frame(ctx)? else { return Ok(None) };
        let pred = RowExpr::new(&self.predicate, &self.uses, ctx);
        let uses_strings: Vec<String> = self.uses.iter().map(|u| u.to_string()).collect();
        let udf =
            DfExpr::udf("where", Some(uses_strings), move |schema: &Schema, row: &[Value]| {
                match pred.ebv(schema, row) {
                    Ok(b) => Value::Bool(b),
                    Err(e) => task_bail(e),
                }
            });
        let df = f.df.filter(udf)?;
        Ok(Some(TupleFrame { df, vars: f.vars }))
    }
}

// ---------------------------------------------------------------------------
// count
// ---------------------------------------------------------------------------

/// `count $var` (§4.9): global row numbering via the parallel
/// zip-with-index trick.
pub struct CountClauseIter {
    pub parent: ClauseRef,
    pub var: Arc<str>,
    out: Vec<Arc<str>>,
}

impl CountClauseIter {
    pub fn new(parent: ClauseRef, var: Arc<str>) -> Self {
        let out = vars_plus(Some(&parent), std::slice::from_ref(&var));
        CountClauseIter { parent, var, out }
    }
}

impl ClauseIterator for CountClauseIter {
    fn out_vars(&self) -> &[Arc<str>] {
        &self.out
    }

    fn is_unit_var(&self, var: &str) -> bool {
        var == self.var.as_ref() || self.parent.is_unit_var(var)
    }

    fn tuples(&self, ctx: &DynamicContext) -> Result<TupleCursor> {
        let var = Arc::clone(&self.var);
        let parent = self.parent.tuples(ctx)?;
        let mut n: i64 = 0;
        Ok(Box::new(parent.map(move |r| {
            r.map(|t| {
                n += 1;
                t.extended(Arc::clone(&var), seq(vec![Item::Integer(n)]))
            })
        })))
    }

    fn frame(&self, ctx: &DynamicContext) -> Result<Option<TupleFrame>> {
        let Some(f) = self.parent.frame(ctx)? else { return Ok(None) };
        let mut df = f.df;
        if f.vars.iter().any(|v| v == &self.var) {
            df = df.drop_columns(&[self.var.as_ref()])?;
        }
        let tmp = "__rumble_count";
        let df = df.zip_with_index(tmp, 1)?;
        let encode = DfExpr::udf(
            "count-encode",
            Some(vec![tmp.to_string()]),
            move |schema: &Schema, row: &[Value]| {
                let idx = schema.index_of(tmp).expect("tmp column exists");
                let Value::I64(n) = row[idx] else { task_bail("count column must be I64") };
                cell_of(vec![Item::Integer(n)])
            },
        );
        let df = df.with_column(self.var.as_ref(), encode, DataType::Bin)?.drop_columns(&[tmp])?;
        Ok(Some(TupleFrame { df, vars: self.out.clone() }))
    }
}

// ---------------------------------------------------------------------------
// group by
// ---------------------------------------------------------------------------

/// How a non-grouping variable is consumed downstream, detected by the
/// compiler (§4.7 last paragraph): fully materialized, only ever counted,
/// or never used (column not even created).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NonGroupingUsage {
    Materialize,
    CountOnly,
    Unused,
}

/// One grouping key: `$var := expr`, or a bare `$var`.
pub struct GroupKeySpec {
    pub var: Arc<str>,
    pub expr: Option<ExprRef>,
    pub uses: Vec<Arc<str>>,
}

/// `group by $k := expr, …` (§4.7).
pub struct GroupByClauseIter {
    pub parent: ClauseRef,
    pub keys: Vec<GroupKeySpec>,
    pub nongrouping: Vec<(Arc<str>, NonGroupingUsage)>,
    out: Vec<Arc<str>>,
}

impl GroupByClauseIter {
    pub fn new(
        parent: ClauseRef,
        keys: Vec<GroupKeySpec>,
        nongrouping: Vec<(Arc<str>, NonGroupingUsage)>,
    ) -> Self {
        let mut out: Vec<Arc<str>> = keys.iter().map(|k| Arc::clone(&k.var)).collect();
        for (v, usage) in &nongrouping {
            if *usage != NonGroupingUsage::Unused && !out.iter().any(|o| o == v) {
                out.push(Arc::clone(v));
            }
        }
        GroupByClauseIter { parent, keys, nongrouping, out }
    }
}

/// A group key's cell ([`GroupKey::to_value`]); a key that is not one
/// atomic item or empty fails the task.
fn group_key_cell(items: &[Item]) -> Value {
    match group_key(items) {
        Ok(k) => k.to_value(),
        Err(e) => task_bail(e),
    }
}

/// Accumulated per-group state on the local path.
enum LocalAgg {
    Items(Vec<Item>),
    Count(i64),
}

impl ClauseIterator for GroupByClauseIter {
    fn out_vars(&self) -> &[Arc<str>] {
        &self.out
    }

    fn is_unit_var(&self, var: &str) -> bool {
        // Keys may be empty sequences; count-only outputs are single
        // integers; materialized outputs are arbitrary sequences.
        self.nongrouping
            .iter()
            .any(|(v, usage)| v.as_ref() == var && *usage == NonGroupingUsage::CountOnly)
    }

    fn tuples(&self, ctx: &DynamicContext) -> Result<TupleCursor> {
        // Grouping is a pipeline breaker: materialize the parent stream.
        let mut groups: HashMap<Vec<GroupKey>, Vec<LocalAgg>> = HashMap::new();
        let mut order: Vec<Vec<GroupKey>> = Vec::new();
        let parent = self.parent.tuples(ctx)?;
        for r in parent {
            let t = r?;
            let child = t.bind_into(ctx);
            let mut key = Vec::with_capacity(self.keys.len());
            for spec in &self.keys {
                let value: Vec<Item> = match &spec.expr {
                    Some(e) => e.materialize(&child)?,
                    None => t.get(&spec.var).map(|s| s.to_vec()).unwrap_or_default(),
                };
                key.push(group_key(&value)?);
            }
            let entry = groups.entry(key.clone()).or_insert_with(|| {
                order.push(key);
                self.nongrouping
                    .iter()
                    .map(|(_, usage)| match usage {
                        NonGroupingUsage::CountOnly => LocalAgg::Count(0),
                        _ => LocalAgg::Items(Vec::new()),
                    })
                    .collect()
            });
            for ((var, usage), acc) in self.nongrouping.iter().zip(entry.iter_mut()) {
                let bound = t.get(var).cloned().unwrap_or_else(crate::item::empty_seq);
                match (usage, acc) {
                    (NonGroupingUsage::Unused, _) => {}
                    (NonGroupingUsage::CountOnly, LocalAgg::Count(n)) => *n += bound.len() as i64,
                    (_, LocalAgg::Items(items)) => items.extend(bound.iter().cloned()),
                    _ => unreachable!("accumulator kinds are fixed per variable"),
                }
            }
        }
        let keys: Vec<Arc<str>> = self.keys.iter().map(|k| Arc::clone(&k.var)).collect();
        let nongrouping = self.nongrouping.clone();
        let mut out = Vec::with_capacity(order.len());
        for key in order {
            let aggs = groups.remove(&key).expect("key recorded on insert");
            let mut t = Tuple::new();
            for (k, var) in key.iter().zip(&keys) {
                let value = match k.to_item() {
                    Some(i) => seq(vec![i]),
                    None => crate::item::empty_seq(),
                };
                t = t.extended(Arc::clone(var), value);
            }
            for ((var, usage), acc) in nongrouping.iter().zip(aggs) {
                match (usage, acc) {
                    (NonGroupingUsage::Unused, _) => {}
                    (NonGroupingUsage::CountOnly, LocalAgg::Count(n)) => {
                        t = t.extended(Arc::clone(var), seq(vec![Item::Integer(n)]));
                    }
                    (_, LocalAgg::Items(items)) => {
                        t = t.extended(Arc::clone(var), seq(items));
                    }
                    _ => unreachable!(),
                }
            }
            out.push(Ok(t));
        }
        Ok(Box::new(out.into_iter()))
    }

    fn frame(&self, ctx: &DynamicContext) -> Result<Option<TupleFrame>> {
        let Some(f) = self.parent.frame(ctx)? else { return Ok(None) };
        let mut df = f.df;

        // Step 1 (§4.7): one native key column per key, whose cell's
        // variant is the type tag (`GroupKey::to_value`). A bare `$var` key
        // reads its own cell.
        let key_cols: Vec<String> = (0..self.keys.len()).map(|i| format!("__k{i}")).collect();
        for (spec, col) in self.keys.iter().zip(&key_cols) {
            let name = format!("group key ${}", spec.var);
            let udf = match &spec.expr {
                Some(e) => {
                    row_udf(&name, Arc::clone(e), spec.uses.clone(), ctx, |k| group_key_cell(&k))
                }
                None => {
                    let var = Arc::clone(&spec.var);
                    DfExpr::udf(
                        name,
                        Some(vec![var.to_string()]),
                        move |schema: &Schema, row: &[Value]| {
                            group_key_cell(&row_var(schema, row, &var).unwrap_or_default())
                        },
                    )
                }
            };
            df = df.with_column(col, udf, DataType::Any)?;
        }

        // Step 2: pre-compute sequence lengths for count-only variables —
        // except unit variables (bound by `for`/`count`, always exactly one
        // item), whose count is simply the row count.
        for (var, usage) in &self.nongrouping {
            if *usage == NonGroupingUsage::CountOnly && !self.parent.is_unit_var(var) {
                let var2 = Arc::clone(var);
                let len_udf = DfExpr::udf(
                    format!("len ${var}"),
                    Some(vec![var.to_string()]),
                    move |schema: &Schema, row: &[Value]| {
                        let idx = schema.index_of(&var2).expect("variable column exists");
                        Value::I64(bind_cell(&var2, &row[idx]).len() as i64)
                    },
                );
                df = df.with_column(format!("__len_{var}"), len_udf, DataType::I64)?;
            }
        }

        // Step 3: the native GROUP BY, with SEQUENCE(x) ≈ COLLECT_LIST and
        // the COUNT optimization of §4.7.
        let key_col_refs: Vec<&str> = key_cols.iter().map(|s| s.as_str()).collect();
        let mut aggs: Vec<(Agg, String)> = Vec::new();
        for (var, usage) in &self.nongrouping {
            match usage {
                NonGroupingUsage::Unused => {}
                NonGroupingUsage::Materialize => {
                    aggs.push((Agg::CollectList(var.to_string()), format!("__agg_{var}")));
                }
                NonGroupingUsage::CountOnly => {
                    if self.parent.is_unit_var(var) {
                        aggs.push((Agg::Count, format!("__agg_{var}")));
                    } else {
                        aggs.push((Agg::Sum(format!("__len_{var}")), format!("__agg_{var}")));
                    }
                }
            }
        }
        let grouped = df.group_by(&key_col_refs, aggs)?;

        // Step 4: project back to variable columns — rebuild the key item
        // from its cell, merge collected lists into one sequence.
        let mut exprs: Vec<NamedExpr> = Vec::new();
        for (spec, col) in self.keys.iter().zip(key_cols) {
            let rebuild = DfExpr::udf(
                format!("rebuild ${}", spec.var),
                Some(vec![col.clone()]),
                move |schema: &Schema, row: &[Value]| {
                    let cell = &row[schema.index_of(&col).expect("key column")];
                    match GroupKey::from_value(cell) {
                        Some(key) => cell_of(key.to_item().into_iter().collect()),
                        None => task_bail(format!("bad group key cell {cell:?}")),
                    }
                },
            );
            exprs.push(NamedExpr {
                name: spec.var.to_string(),
                expr: rebuild,
                dtype: DataType::Bin,
            });
        }
        for (var, usage) in &self.nongrouping {
            let agg_col = format!("__agg_{var}");
            match usage {
                NonGroupingUsage::Unused => {}
                NonGroupingUsage::Materialize => {
                    let var2 = Arc::clone(var);
                    let merge = DfExpr::udf(
                        format!("merge ${var}"),
                        Some(vec![agg_col.clone()]),
                        move |schema: &Schema, row: &[Value]| {
                            let idx = schema.index_of(&agg_col).expect("agg col");
                            let Value::List(parts) = &row[idx] else {
                                task_bail("collect_list output must be a list")
                            };
                            let mut items = Vec::new();
                            for p in parts.iter() {
                                items.extend(bind_cell(&var2, p).iter().cloned());
                            }
                            cell_of(items)
                        },
                    );
                    exprs.push(NamedExpr {
                        name: var.to_string(),
                        expr: merge,
                        dtype: DataType::Bin,
                    });
                }
                NonGroupingUsage::CountOnly => {
                    let count = DfExpr::udf(
                        format!("count ${var}"),
                        Some(vec![agg_col.clone()]),
                        move |schema: &Schema, row: &[Value]| {
                            let idx = schema.index_of(&agg_col).expect("agg col");
                            let n = row[idx].as_i64().unwrap_or(0);
                            cell_of(vec![Item::Integer(n)])
                        },
                    );
                    exprs.push(NamedExpr {
                        name: var.to_string(),
                        expr: count,
                        dtype: DataType::Bin,
                    });
                }
            }
        }
        let df = grouped.select(exprs)?;
        Ok(Some(TupleFrame { df, vars: self.out.clone() }))
    }
}

// ---------------------------------------------------------------------------
// order by
// ---------------------------------------------------------------------------

/// One `order by` key.
pub struct OrderSpecIter {
    pub expr: ExprRef,
    pub uses: Vec<Arc<str>>,
    pub descending: bool,
    pub empty_greatest: bool,
}

/// One `order by` key's sort cell (§4.8). The paper spreads a key over a
/// type tag, a string and a double column because a Spark column holds one
/// type; here the cell's variant is the tag: empty → `Null`, `null` →
/// `Bool(false)`, booleans → `I64` 0/1, numbers → `F64`, strings → `Str`.
/// `value_cmp` orders its buckets `Null < Bool < number < Str`, and a valid
/// key holds at most one of `I64`/`F64`/`Str` (a mix is
/// `INCOMPATIBLE_SORT_KEYS`), so `null < false < true < value` holds, and
/// [`order_dir`] places the empty key. Unlike group keys, numbers are not
/// normalized: the sort keeps `total_cmp`'s order of `-0.0` before `0`.
/// Local and DataFrame ORDER BY sort these same cells as sparklite
/// `SortKey`s.
fn order_cell(items: &[Item]) -> Result<Value> {
    Ok(match items {
        [] => Value::Null,
        [Item::Null] => Value::Bool(false),
        [Item::Boolean(b)] => Value::I64(*b as i64),
        [Item::Str(s)] => Value::Str(Arc::clone(s)),
        [one] => match one.as_f64() {
            Some(n) => Value::F64(n),
            None => {
                return Err(RumbleError::type_err(format!(
                    "order-by keys must be atomic, got {}",
                    one.type_name()
                )))
            }
        },
        _ => return Err(RumbleError::type_err("order-by keys must be single items or empty")),
    })
}

/// The sort direction of one key: `SortKey` places NULL (the empty key)
/// before it applies the direction, so `empty greatest` puts it last in
/// ascending order and first in descending order.
fn order_dir(spec: &OrderSpecIter) -> SortDir {
    SortDir { ascending: !spec.descending, nulls_last: spec.empty_greatest != spec.descending }
}

/// The §4.8 type-discovery class of an order cell, as a bit: booleans,
/// numbers and strings; empty and `null` compare with everything.
fn order_class(cell: &Value) -> u8 {
    match cell {
        Value::I64(_) => 1,
        Value::F64(_) => 2,
        Value::Str(_) => 4,
        _ => 0,
    }
}

/// Fails unless the classes one key took (OR-ed [`order_class`] bits) are
/// compatible; JSONiq requires an error on e.g. strings mixed with numbers.
fn check_classes(mask: u8) -> Result<()> {
    if mask.count_ones() > 1 {
        return Err(RumbleError::dynamic(
            codes::INCOMPATIBLE_SORT_KEYS,
            "order-by keys mix incompatible types (e.g. strings and numbers)",
        ));
    }
    Ok(())
}

/// The §4.8 type discovery, run by the key UDF itself: ORs `cell`'s
/// [`order_class`] into `slot`, the OR of every class its key has taken
/// in this evaluation, and applies [`check_classes`] to the result — the
/// rule the local path applies tuple by tuple. So the task that computes
/// a key conflicting with one seen before (in any task) raises
/// `INCOMPATIBLE_SORT_KEYS`, and so does every later one, retries
/// included. A slot is loaded before it is written, so tasks stop writing
/// (and contending for the cache line) once a class has been seen.
/// `Relaxed` suffices: `fetch_or`s on one slot are totally ordered, so of
/// two conflicting classes the later write sees the earlier one, and the
/// slot publishes no other data.
fn note_class(slot: &AtomicU8, cell: &Value) -> Result<()> {
    let class = order_class(cell);
    let mut mask = slot.load(Ordering::Relaxed);
    if mask & class != class {
        mask = slot.fetch_or(class, Ordering::Relaxed) | class;
    }
    check_classes(mask)
}

/// `order by expr [descending] [empty greatest], …` (§4.8).
pub struct OrderByClauseIter {
    pub parent: ClauseRef,
    pub specs: Vec<OrderSpecIter>,
}

impl OrderByClauseIter {
    /// Adds one sort-key column (`__o{i}`, the key's [`order_cell`]) per
    /// key to `df`, each UDF running the type discovery ([`note_class`])
    /// over a slot of its own; returns the frame and its sort keys.
    fn keyed(
        &self,
        mut df: DataFrame,
        ctx: &DynamicContext,
    ) -> Result<(DataFrame, Vec<(String, SortDir)>)> {
        let mut keys = Vec::with_capacity(self.specs.len());
        for (i, spec) in self.specs.iter().enumerate() {
            let col = format!("__o{i}");
            let slot = Arc::new(AtomicU8::new(0));
            let udf = row_udf(&col, Arc::clone(&spec.expr), spec.uses.clone(), ctx, move |key| {
                let cell = order_cell(&key).unwrap_or_else(|e| task_bail(e));
                note_class(&slot, &cell).unwrap_or_else(|e| task_bail(e));
                cell
            })
            // The type discovery must see every row, so a `where` after
            // the `order by` stays above the sort.
            .nondeterministic();
            df = df.with_column(&col, udf, DataType::Any)?;
            keys.push((col, order_dir(spec)));
        }
        Ok((df, keys))
    }
}

impl ClauseIterator for OrderByClauseIter {
    fn out_vars(&self) -> &[Arc<str>] {
        self.parent.out_vars()
    }

    fn is_unit_var(&self, var: &str) -> bool {
        self.parent.is_unit_var(var)
    }

    fn tuples(&self, ctx: &DynamicContext) -> Result<TupleCursor> {
        // A pipeline breaker: materialize, key, verify, sort (stably).
        let dirs: Vec<SortDir> = self.specs.iter().map(order_dir).collect();
        let mut masks = vec![0u8; self.specs.len()];
        let mut rows: Vec<(Vec<SortKey>, Tuple)> = Vec::new();
        let parent = self.parent.tuples(ctx)?;
        for r in parent {
            let t = r?;
            let child = t.bind_into(ctx);
            let mut keys = Vec::with_capacity(self.specs.len());
            for ((spec, dir), mask) in self.specs.iter().zip(&dirs).zip(masks.iter_mut()) {
                let cell = order_cell(&spec.expr.materialize(&child)?)?;
                *mask |= order_class(&cell);
                check_classes(*mask)?;
                keys.push(SortKey::new(cell, *dir));
            }
            rows.push((keys, t));
        }
        rows.sort_by(|(a, _), (b, _)| a.cmp(b));
        Ok(Box::new(rows.into_iter().map(|(_, t)| Ok(t))))
    }

    fn frame(&self, ctx: &DynamicContext) -> Result<Option<TupleFrame>> {
        let Some(f) = self.parent.frame(ctx)? else { return Ok(None) };
        // A plan, not a job: the range sort's sampling and routing passes
        // each run the key pass (and so the type discovery) over the
        // parent pipeline, as Spark's RangePartitioner re-runs its input.
        let (df, keys) = self.keyed(f.df, ctx)?;
        let cols: Vec<String> = keys.iter().map(|(c, _)| c.clone()).collect();
        let col_refs: Vec<&str> = cols.iter().map(|c| c.as_str()).collect();
        let df = df.order_by(keys)?.drop_columns(&col_refs)?;
        Ok(Some(TupleFrame { df, vars: f.vars }))
    }

    fn take_ordered(
        &self,
        ctx: &DynamicContext,
        n: usize,
    ) -> Result<Option<(Arc<Schema>, Vec<Row>)>> {
        let Some(f) = self.parent.frame(ctx)? else { return Ok(None) };
        let (df, keys) = self.keyed(f.df, ctx)?;
        // One top-K job: no range sort, and every row's key still computed,
        // so type discovery sees the rows outside the top `n`.
        let rows = df.order_by(keys)?.limit(n).collect_rows()?;
        Ok(Some((Arc::clone(df.schema()), rows)))
    }
}
