//! The FLWOR clauses, each with a local tuple path, and the breakers'
//! DataFrame operators of §4.7–§4.8.
//!
//! A clause iterator pulls tuples locally (§5.5). On the distributed path
//! the pipeline compiler (`super::pipeline`) reads the clauses as data
//! ([`Clause`]): their expressions, each a `RowExpr` over the slots of a
//! pass — compiled to a closure that borrows the items of the variables it
//! uses as its row variables (see [`crate::runtime::row`]), or, when some
//! node has no compiled form, evaluated against a dynamic context bound
//! from those items — and, for `group by`, the GROUP BY that runs over the
//! rows the pass before it emits.

use super::{
    bind_cell, cell_of, flat_map_ok, Clause, ClauseIterator, ClauseRef, Tuple, TupleCursor,
};
use crate::error::{codes, Result, RumbleError};
use crate::item::{group_key, seq, GroupKey, Item};
use crate::runtime::row::{Raises, RowProgram, Seq};
use crate::runtime::{eval_ebv, DynamicContext, ExprRef};
use sparklite::dataframe::{Agg, Row};
use sparklite::dataframe::{DataFrame, SortDir, SortKey, Value};
use sparklite::rdd::{task_bail, Rdd};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

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

/// One expression evaluated per tuple of a pass: compiled over the items
/// of the variables it uses (its `uses`, in order, are the program's row
/// variables), or, if it does not compile, run against a context bound
/// from those items.
pub(crate) struct RowExpr {
    expr: ExprRef,
    uses: Vec<Arc<str>>,
    program: Option<RowProgram>,
    base: DynamicContext,
}

/// Row variables a row binds without allocating: up to this many borrowed
/// sequences live on the stack.
const INLINE_VARS: usize = 8;

/// Calls `f` with the items `var(i)` for each `i` in `0..n`: on the
/// stack while they fit.
pub(crate) fn with_items<'a, R>(
    n: usize,
    var: impl Fn(usize) -> &'a [Item],
    f: impl FnOnce(&[&[Item]]) -> R,
) -> R {
    if n <= INLINE_VARS {
        let mut vars: [&[Item]; INLINE_VARS] = [&[]; INLINE_VARS];
        for (i, slot) in vars[..n].iter_mut().enumerate() {
            *slot = var(i);
        }
        f(&vars[..n])
    } else {
        f(&(0..n).map(var).collect::<Vec<_>>())
    }
}

impl RowExpr {
    pub(crate) fn new(expr: &ExprRef, uses: &[Arc<str>], ctx: &DynamicContext) -> RowExpr {
        let base = ctx.enter_executor();
        RowExpr {
            expr: Arc::clone(expr),
            uses: uses.to_vec(),
            program: RowProgram::compile(expr, uses, &base),
            base,
        }
    }

    /// The context the interpreted path binds for `vars`.
    fn bound(&self, vars: &[&[Item]]) -> DynamicContext {
        let bindings = self.uses.iter().zip(vars).map(|(u, v)| (Arc::clone(u), seq(v.to_vec())));
        self.base.bind_many(bindings.collect())
    }

    /// The result over `vars`, the items of the `uses` variables in order,
    /// borrowing from them where it can.
    pub(crate) fn eval<'e>(&'e self, vars: &'e [&'e [Item]]) -> Result<Seq<'e>> {
        match &self.program {
            Some(program) => program.eval(vars),
            None => Ok(Seq::Owned(self.expr.materialize(&self.bound(vars))?)),
        }
    }

    /// The effective boolean value of [`eval`](Self::eval)'s result. It
    /// reads at most two items, so a program that can raise after its
    /// first item leaves it to the iterator tree.
    pub(crate) fn test(&self, vars: &[&[Item]]) -> Result<bool> {
        match self.program.as_ref().filter(|p| p.raises() <= Raises::Early) {
            Some(program) => program.ebv(vars),
            None => eval_ebv(&self.expr, &self.bound(vars)),
        }
    }
}

// ---------------------------------------------------------------------------
// for
// ---------------------------------------------------------------------------

/// `for $var [at $pos] [allowing empty] in expr` (§4.4).
#[derive(Clone)]
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

    fn clause(&self) -> Clause<'_> {
        Clause::For(self)
    }

    fn tuples(&self, ctx: &DynamicContext) -> Result<TupleCursor> {
        match &self.parent {
            None => self.expand(Tuple::new(), ctx),
            Some(parent) => {
                let (this, ctx) = (self.clone(), ctx.clone());
                Ok(flat_map_ok(parent.tuples(&ctx)?, move |t| this.expand(t, &ctx)))
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

    fn clause(&self) -> Clause<'_> {
        Clause::Let(self)
    }

    fn tuples(&self, ctx: &DynamicContext) -> Result<TupleCursor> {
        let var = Arc::clone(&self.var);
        let expr = Arc::clone(&self.expr);
        let ctx = ctx.clone();
        let parent: TupleCursor = match &self.parent {
            None => Box::new(std::iter::once(Ok(Tuple::new()))),
            Some(p) => p.tuples(&ctx)?,
        };
        Ok(flat_map_ok(parent, move |t| {
            let child = t.bind_into(&ctx);
            let items = expr.materialize(&child)?;
            let out = t.extended(Arc::clone(&var), seq(items));
            Ok(Box::new(std::iter::once(Ok(out))) as TupleCursor)
        }))
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

    fn clause(&self) -> Clause<'_> {
        Clause::Where(self)
    }

    fn tuples(&self, ctx: &DynamicContext) -> Result<TupleCursor> {
        let (pred, ctx) = (Arc::clone(&self.predicate), ctx.clone());
        let parent = self.parent.tuples(&ctx)?;
        Ok(Box::new(parent.filter_map(move |r| {
            let kept = r.and_then(|t| Ok(eval_ebv(&pred, &t.bind_into(&ctx))?.then_some(t)));
            kept.transpose()
        })))
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

    fn clause(&self) -> Clause<'_> {
        Clause::Count(self)
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

    /// The non-grouping variables whose items the groups collect.
    pub(super) fn materialized(&self) -> impl Iterator<Item = &Arc<str>> {
        let collected =
            self.nongrouping.iter().filter(|(_, u)| *u == NonGroupingUsage::Materialize);
        collected.map(|(v, _)| v)
    }

    /// The count-only variables whose lengths the groups sum: all but unit
    /// variables (bound by `for`/`count`, always exactly one item), whose
    /// count is the row count.
    pub(super) fn lengths(&self) -> impl Iterator<Item = &Arc<str>> {
        let counted = self
            .nongrouping
            .iter()
            .filter(|(v, u)| *u == NonGroupingUsage::CountOnly && !self.parent.is_unit_var(v));
        counted.map(|(v, _)| v)
    }

    /// The GROUP BY (§4.7) over the rows the pass before it emits: the
    /// [`materialized`](Self::materialized) variables' cells, one native
    /// key cell per key (`__k{i}`, whose variant is the type tag,
    /// [`GroupKey::to_value`]), and one `__len_{var}` per
    /// [`lengths`](Self::lengths) variable. Returns one row of variable
    /// cells per group, and their variables: the keys, then the
    /// non-grouping variables the rest of the FLWOR reads.
    pub(super) fn grouped(&self, df: DataFrame) -> Result<(Rdd<Row>, Vec<Arc<str>>)> {
        let keys: Vec<String> = (0..self.keys.len()).map(|i| format!("__k{i}")).collect();
        let key_refs: Vec<&str> = keys.iter().map(String::as_str).collect();
        let mut vars: Vec<Arc<str>> = self.keys.iter().map(|k| Arc::clone(&k.var)).collect();
        // SEQUENCE(x) ≈ COLLECT_LIST, and the COUNT optimization of §4.7.
        let mut aggs = Vec::new();
        for (var, usage) in &self.nongrouping {
            let agg = match usage {
                NonGroupingUsage::Unused => continue,
                NonGroupingUsage::Materialize => Agg::CollectList(var.to_string()),
                NonGroupingUsage::CountOnly if self.parent.is_unit_var(var) => Agg::Count,
                NonGroupingUsage::CountOnly => Agg::Sum(format!("__len_{var}")),
            };
            aggs.push((agg, format!("__agg_{var}")));
            vars.push(Arc::clone(var));
        }
        let nkeys = keys.len();
        // Back to variable cells: a key's item rebuilt from its cell, a
        // collected list merged into one sequence, a count as an integer.
        let cell = move |(i, cell): (usize, &Value)| {
            cell_of(match cell {
                _ if i < nkeys => match GroupKey::from_value(cell) {
                    Some(key) => key.to_item().into_iter().collect(),
                    None => task_bail(format!("bad group key cell {cell:?}")),
                },
                Value::List(parts) => parts.iter().flat_map(|p| bind_cell(p).to_vec()).collect(),
                count => vec![Item::Integer(count.as_i64().unwrap_or(0))],
            })
        };
        let groups = df.group_by(&key_refs, aggs)?.to_rdd()?;
        Ok((groups.map(move |row| row.iter().enumerate().map(cell).collect()), vars))
    }
}

/// A group key's cell ([`GroupKey::to_value`]); a key that is not one
/// atomic item or empty raises.
pub(super) fn group_key_cell(items: &[Item]) -> Result<Value> {
    match items {
        [Item::Str(s)] => Ok(Value::Str(Arc::clone(s))),
        _ => group_key(items).map(|k| k.to_value()),
    }
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
        // Each group holds its key, and per non-grouping variable the items
        // it collects or the number it counts, in first-occurrence order.
        let mut index: HashMap<Vec<GroupKey>, usize> = HashMap::new();
        let mut groups = Vec::new();
        for r in self.parent.tuples(ctx)? {
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
            let g = *index.entry(key.clone()).or_insert_with(|| {
                groups.push((key, vec![(Vec::new(), 0); self.nongrouping.len()]));
                groups.len() - 1
            });
            for ((var, usage), (items, n)) in self.nongrouping.iter().zip(&mut groups[g].1) {
                let bound = t.get(var).map_or(&[][..], |s| s.as_slice());
                match usage {
                    NonGroupingUsage::Materialize => items.extend(bound.iter().cloned()),
                    NonGroupingUsage::CountOnly => *n += bound.len() as i64,
                    NonGroupingUsage::Unused => {}
                }
            }
        }
        let keys: Vec<Arc<str>> = self.keys.iter().map(|k| Arc::clone(&k.var)).collect();
        let nongrouping = self.nongrouping.clone();
        Ok(Box::new(groups.into_iter().map(move |(key, aggs)| {
            let mut t = Tuple::new();
            for (k, var) in key.iter().zip(&keys) {
                t = t.extended(Arc::clone(var), seq(k.to_item().into_iter().collect()));
            }
            for ((var, usage), (items, n)) in nongrouping.iter().zip(aggs) {
                let value = match usage {
                    NonGroupingUsage::Materialize => items,
                    NonGroupingUsage::CountOnly => vec![Item::Integer(n)],
                    NonGroupingUsage::Unused => continue,
                };
                t = t.extended(Arc::clone(var), seq(value));
            }
            Ok(t)
        })))
    }

    fn clause(&self) -> Clause<'_> {
        Clause::GroupBy(self)
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
pub(super) fn order_cell(items: &[Item]) -> Result<Value> {
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
pub(super) fn order_dir(spec: &OrderSpecIter) -> SortDir {
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
pub(super) fn note_class(slot: &AtomicU8, cell: &Value) -> Result<()> {
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
    /// The parent's tuples with their sort keys, each key computed, and its
    /// type discovered, tuple by tuple.
    fn keyed_tuples(
        &self,
        ctx: &DynamicContext,
    ) -> Result<impl Iterator<Item = Result<(Vec<SortKey>, Tuple)>> + Send> {
        let specs: Vec<(ExprRef, SortDir)> =
            self.specs.iter().map(|s| (Arc::clone(&s.expr), order_dir(s))).collect();
        let mut masks = vec![0u8; specs.len()];
        let ctx = ctx.clone();
        Ok(self.parent.tuples(&ctx)?.map(move |r| {
            let t = r?;
            let child = t.bind_into(&ctx);
            let mut keys = Vec::with_capacity(specs.len());
            for ((expr, dir), mask) in specs.iter().zip(masks.iter_mut()) {
                let cell = order_cell(&expr.materialize(&child)?)?;
                *mask |= order_class(&cell);
                check_classes(*mask)?;
                keys.push(SortKey::new(cell, *dir));
            }
            Ok((keys, t))
        }))
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
        let mut rows = self.keyed_tuples(ctx)?.collect::<Result<Vec<_>>>()?;
        rows.sort_by(|(a, _), (b, _)| a.cmp(b));
        Ok(Box::new(rows.into_iter().map(|(_, t)| Ok(t))))
    }

    fn unordered_tuples(&self, ctx: &DynamicContext) -> Result<TupleCursor> {
        Ok(Box::new(self.keyed_tuples(ctx)?.map(|r| r.map(|(_, t)| t))))
    }

    fn clause(&self) -> Clause<'_> {
        Clause::OrderBy(self)
    }
}
