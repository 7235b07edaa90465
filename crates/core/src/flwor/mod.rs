//! FLWOR expressions: tuple streams with two physical forms.
//!
//! Each clause (except `return`) is a [`ClauseIterator`] producing a tuple
//! stream (§4.2). A tuple maps variable names to *materialized* sequences
//! of items. Every clause offers:
//!
//! * a **local pull API** ([`ClauseIterator::tuples`]), and
//! * a **DataFrame API** ([`ClauseIterator::frame`]) where the tuple stream
//!   is a DataFrame with one column per in-scope variable (§4.3).
//!
//! Which one runs is decided when the FLWOR is compiled, by the static
//! rule `semantics::flwor_is_parallel`: a chain that cannot be distributed
//! (it starts from a `let`, say) runs locally as a whole — the seamless
//! switching of §5.8 — and its frame is never built.
//!
//! A variable column holds *variable cells*. The paper stores each variable
//! as a Kryo-serialized binary column because Spark needs bytes; here a
//! clause wraps the bound sequence in a sparklite [`Value::Ext`] cell
//! instead, so rows that pass between operators of one process never
//! encode or decode their items. The cell turns into the item-codec `Bin`
//! bytes only where sparklite needs bytes — a shuffle block sent to an
//! executor worker — and `bind_cell` is the one place that reads a cell
//! back: an `Arc` clone for a native cell, a decode for a `Bin` that
//! crossed that boundary.
//!
//! The `return` clause lives in [`FlworIter`], which is an ordinary
//! expression iterator: in DataFrame mode it maps the frame back to an
//! `Rdd<Item>` with a flatMap (§4.10).
//!
//! Every per-row expression of the DataFrame form — a clause's UDF, the
//! `return` — runs compiled where it can ([`crate::runtime::row`]): the
//! UDF borrows the cells of the variables it uses as its row variables,
//! with no dynamic context. So does a *fused scan*, an initial `for` over a
//! distributed source followed by `let` and `where` clauses only, which
//! skips the tuple frame: its leading `where`s filter the source's items,
//! and the rest runs as one pass per item over the item and its `let`
//! values, with no variable cell, row or projection built.

pub mod clauses;

use crate::error::{codes, Result, RumbleError};
use crate::item::{decode_items, encode_items, Item, Sequence};
use crate::runtime::row::Seq;
use crate::runtime::{cursor_of, DynamicContext, ExprIterator, ExprRef, ItemCursor};
use sparklite::dataframe::{DataFrame, ExtCell, Row, Schema, Value};
use sparklite::rdd::{task_bail, Rdd};
use std::any::Any;
use std::sync::Arc;

/// One tuple of a tuple stream: variable name → materialized sequence.
#[derive(Clone, Debug, Default)]
pub struct Tuple {
    bindings: Vec<(Arc<str>, Sequence)>,
}

impl Tuple {
    pub fn new() -> Tuple {
        Tuple::default()
    }

    pub fn get(&self, name: &str) -> Option<&Sequence> {
        self.bindings.iter().rev().find(|(n, _)| n.as_ref() == name).map(|(_, s)| s)
    }

    /// A copy with one binding added (replacing any previous binding of the
    /// same name — variable redeclaration, §4.5).
    pub fn extended(&self, name: Arc<str>, value: Sequence) -> Tuple {
        let mut bindings: Vec<(Arc<str>, Sequence)> =
            self.bindings.iter().filter(|(n, _)| n.as_ref() != name.as_ref()).cloned().collect();
        bindings.push((name, value));
        Tuple { bindings }
    }

    /// Binds every tuple variable into a dynamic context — the tuple's
    /// contribution to the context nested expressions see (§4.2).
    pub fn bind_into(&self, ctx: &DynamicContext) -> DynamicContext {
        ctx.bind_many(self.bindings.clone())
    }

    pub fn vars(&self) -> impl Iterator<Item = &Arc<str>> {
        self.bindings.iter().map(|(n, _)| n)
    }
}

/// A cursor over a tuple stream.
pub type TupleCursor = Box<dyn Iterator<Item = Result<Tuple>> + Send>;

/// The DataFrame form of a tuple stream: one column of variable cells per
/// variable (see the module docs).
pub struct TupleFrame {
    pub df: DataFrame,
    /// The in-scope variables, in column order.
    pub vars: Vec<Arc<str>>,
}

/// A FLWOR clause.
pub trait ClauseIterator: Send + Sync {
    /// Variables in scope after this clause.
    fn out_vars(&self) -> &[Arc<str>];

    /// Local tuple-at-a-time evaluation (§5.5).
    fn tuples(&self, ctx: &DynamicContext) -> Result<TupleCursor>;

    /// DataFrame evaluation (§4.4–§4.9), for a chain the static rule
    /// finds parallel. Builds a plan and launches no job. A clause with no
    /// DataFrame form raises a `CLUSTER` error.
    fn frame(&self, ctx: &DynamicContext) -> Result<TupleFrame>;

    /// The tuple stream in no fixed order, for a consumer that only counts
    /// it: [`tuples`](Self::tuples), but a last `order by` computes its
    /// keys, and so raises what its type discovery raises, without
    /// sorting.
    fn unordered_tuples(&self, ctx: &DynamicContext) -> Result<TupleCursor> {
        self.tuples(ctx)
    }

    /// [`unordered_tuples`](Self::unordered_tuples) as a tuple frame: one
    /// job where a sort takes several.
    fn unordered_frame(&self, ctx: &DynamicContext) -> Result<TupleFrame> {
        self.frame(ctx)
    }

    /// Whether `var` is statically known to be bound to exactly one item in
    /// every tuple (a `for` or `count` binding). Lets `count($var)` after a
    /// group-by become a plain row COUNT (§4.7).
    fn is_unit_var(&self, _var: &str) -> bool {
        false
    }

    /// The clause chain as a fused scan — an initial simple `for` over one
    /// source followed by `let` and `where` clauses only — if it has that
    /// shape. Fused pipelines run straight over the item RDD (filter +
    /// flatMap) without the tuple-frame DataFrame detour.
    fn fused_scan(&self) -> Option<FusedScan> {
        None
    }

    /// The first `n` tuples of the stream as rows of a tuple frame with
    /// the frame's schema, computed with one top-K job. `Some` only for an
    /// `order by`.
    fn take_ordered(
        &self,
        _ctx: &DynamicContext,
        _n: usize,
    ) -> Result<Option<(Arc<Schema>, Vec<Row>)>> {
        Ok(None)
    }
}

pub type ClauseRef = Arc<dyn ClauseIterator>;

/// See [`ClauseIterator::fused_scan`]: `for $var in source`, then its
/// `let` and `where` clauses in order.
pub struct FusedScan {
    pub var: Arc<str>,
    pub source: ExprRef,
    pub steps: Vec<ScanStep>,
}

/// One clause of a fused scan after its `for`, with the FLWOR variables
/// its expression reads.
pub enum ScanStep {
    Where { predicate: ExprRef, uses: Vec<Arc<str>> },
    Let { var: Arc<str>, expr: ExprRef, uses: Vec<Arc<str>> },
}

// ---------------------------------------------------------------------------
// Row ↔ context bridging used by every DataFrame-mode UDF
// ---------------------------------------------------------------------------

/// A variable's sequence, kept native in a DataFrame cell while its row
/// stays in one process. It stands for the item-codec bytes of the
/// sequence, which is what every byte boundary stores.
#[derive(Debug)]
struct ItemsCell(Sequence);

impl ExtCell for ItemsCell {
    fn encode(&self) -> Vec<u8> {
        encode_items(&self.0)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Wraps a sequence in a variable cell.
pub(crate) fn cell_of(items: Vec<Item>) -> Value {
    Value::Ext(Arc::new(ItemsCell(Arc::new(items))))
}

/// The sequence a cell of `var`'s column binds: an `Arc` clone of a native
/// cell, or the decode of the `Bin` a shuffle block sent to an executor
/// worker turned one into. Any other value is a task error.
pub(crate) fn bind_cell(var: &str, cell: &Value) -> Sequence {
    if let Value::Ext(c) = cell {
        if let Some(items) = c.as_any().downcast_ref::<ItemsCell>() {
            return Arc::clone(&items.0);
        }
    }
    match cell {
        Value::Bin(bytes) => match decode_items(bytes) {
            Ok(items) => Arc::new(items),
            Err(e) => task_bail(e),
        },
        other => task_bail(format!("column ${var} holds {other:?}, not a variable cell")),
    }
}

/// The items of a native cell, borrowed; `None` for any other value.
pub(crate) fn cell_items(cell: &Value) -> Option<&[Item]> {
    match cell {
        Value::Ext(c) => c.as_any().downcast_ref::<ItemsCell>().map(|items| items.0.as_slice()),
        _ => None,
    }
}

/// The sequence `row` binds to `var`; `None` if the frame has no column
/// for it (a variable bound outside the FLWOR).
pub(crate) fn row_var(schema: &Schema, row: &[Value], var: &str) -> Option<Sequence> {
    schema.index_of(var).map(|idx| bind_cell(var, &row[idx]))
}

// ---------------------------------------------------------------------------
// The FLWOR expression itself
// ---------------------------------------------------------------------------

/// A complete FLWOR expression: the clause chain plus the return expression.
pub struct FlworIter {
    pub last: ClauseRef,
    pub return_expr: ExprRef,
    /// Free FLWOR variables of the return expression.
    pub return_uses: Vec<Arc<str>>,
    /// The variable the return expression is, when it is a bare reference
    /// (`return $v`): a fused scan then returns its items as they are.
    pub return_var: Option<Arc<str>>,
    /// Whether the return yields exactly one item per tuple and never
    /// raises: a cardinality-only consumer then reads the tuples and builds
    /// no return item (see [`ExprIterator::count`]).
    pub counts_tuples: bool,
    /// The source of a fused scan's initial `for` building only what the
    /// clauses read, which the tuple count reads instead of the source
    /// in the clause chain; `None` unless the count reads tuples and that
    /// source builds fewer fields.
    pub count_source: Option<ExprRef>,
    /// Whether the clause chain is parallel, as the compiler found it
    /// (`semantics::flwor_is_parallel`).
    pub parallel: bool,
}

/// A result as a cardinality-only consumer reads it: one element per item,
/// in no fixed order.
enum Cardinal {
    Items(Rdd<Item>),
    Rows(Rdd<Row>),
    Local(Box<dyn Iterator<Item = Result<()>> + Send>),
}

impl Cardinal {
    fn count(self) -> Result<u64> {
        match self {
            Cardinal::Items(rdd) => Ok(rdd.count()?),
            Cardinal::Rows(rdd) => Ok(rdd.count()?),
            Cardinal::Local(items) => {
                let mut n = 0u64;
                for i in items {
                    i?;
                    n += 1;
                }
                Ok(n)
            }
        }
    }

    fn exists(self) -> Result<bool> {
        match self {
            Cardinal::Items(rdd) => Ok(!rdd.take(1)?.is_empty()),
            Cardinal::Rows(rdd) => Ok(!rdd.take(1)?.is_empty()),
            Cardinal::Local(mut items) => items.next().transpose().map(|i| i.is_some()),
        }
    }
}

impl FlworIter {
    /// Builds the fused (DataFrame-free) RDD of a scan-shaped pipeline. The
    /// `where`s before the first `let` filter the source's items, and a
    /// `return $var` right after them returns the items as they are. The
    /// rest runs as one flatMap per item ([`ScanPass`]). Every `let` is
    /// evaluated in full on each item that reaches it, as the local path
    /// binds it. Without `ret`, the count form, the pass skips the return
    /// and keeps the scanned item of each tuple.
    fn fused_rdd(&self, scan: FusedScan, ctx: &DynamicContext, ret: bool) -> Result<Rdd<Item>> {
        let mut rdd = scan.source.rdd(ctx)?;
        let passthrough = !ret || self.return_var.as_ref() == Some(&scan.var);
        let mut slots = ScanSlots { names: vec![Some(scan.var)] };
        let mut steps = scan.steps.into_iter().peekable();
        while let Some(ScanStep::Where { predicate, uses }) =
            steps.next_if(|s| matches!(s, ScanStep::Where { .. }))
        {
            let pred = slots.expr(&predicate, &uses, ctx)?;
            rdd = rdd.filter(move |item| pred.test(&[std::slice::from_ref(item)], &[]));
        }
        if passthrough && steps.peek().is_none() {
            return Ok(rdd);
        }
        let mut pipeline = Vec::new();
        for step in steps {
            pipeline.push(match step {
                ScanStep::Where { predicate, uses } => (slots.expr(&predicate, &uses, ctx)?, None),
                ScanStep::Let { var, expr, uses } => {
                    let value = slots.expr(&expr, &uses, ctx)?;
                    (value, Some(slots.bind(var)))
                }
            });
        }
        let lets = slots.names.len() - 1;
        if !ret {
            let pass = ScanPass { pipeline, ret: None, lets };
            return Ok(rdd.filter(move |item| pass.run(item).is_some()));
        }
        let ret = Some(slots.expr(&self.return_expr, &self.return_uses, ctx)?);
        let pass = ScanPass { pipeline, ret, lets };
        Ok(rdd.flat_map(move |item| pass.run(&item).unwrap_or_default()))
    }

    /// The return over the rows of a tuple frame, as a flatMap (§4.10).
    fn returned(&self, frame: TupleFrame, ctx: &DynamicContext) -> Result<Rdd<Item>> {
        let rows = frame.df.to_rdd()?;
        let schema = Arc::clone(frame.df.schema());
        let ret = clauses::RowExpr::new(&self.return_expr, &self.return_uses, ctx);
        Ok(rows.flat_map(move |row| match ret.eval_row(&schema, &row) {
            Ok(items) => items,
            Err(e) => task_bail(e),
        }))
    }

    /// The result as a cardinality-only consumer reads it. With
    /// [`counts_tuples`](Self::counts_tuples) that is the tuple stream,
    /// from the narrower [`count_source`](Self::count_source) where there
    /// is one, and no return runs; otherwise the return's items. Unless
    /// `ordered`, a last `order by` computes its keys, and so raises what
    /// its type discovery raises, but does not sort: a count does not
    /// depend on the order, while `exists` reads only the first tuple and
    /// keeps the sort, whose key pass sees every row.
    fn cardinal(&self, ctx: &DynamicContext, ordered: bool) -> Result<Cardinal> {
        if !self.is_rdd(ctx) {
            let tuples = match ordered {
                true => self.last.tuples(ctx)?,
                false => self.last.unordered_tuples(ctx)?,
            };
            if self.counts_tuples {
                return Ok(Cardinal::Local(Box::new(tuples.map(|t| t.map(drop)))));
            }
            let (return_expr, ctx) = (Arc::clone(&self.return_expr), ctx.clone());
            let items = ReturnCursor { tuples, return_expr, ctx, inner: None, failed: false };
            return Ok(Cardinal::Local(Box::new(items.map(|i| i.map(drop)))));
        }
        if let Some(mut scan) = self.last.fused_scan() {
            if let Some(source) = self.count_source.as_ref().filter(|_| self.counts_tuples) {
                scan.source = Arc::clone(source);
            }
            return Ok(Cardinal::Items(self.fused_rdd(scan, ctx, !self.counts_tuples)?));
        }
        let frame = match ordered {
            true => self.last.frame(ctx)?,
            false => self.last.unordered_frame(ctx)?,
        };
        if self.counts_tuples {
            return Ok(Cardinal::Rows(frame.df.to_rdd()?));
        }
        Ok(Cardinal::Items(self.returned(frame, ctx)?))
    }
}

/// The `let` values of one item of a fused scan that live on the stack.
const LET_VALUES: usize = 8;

/// The flatMap of a fused scan after its leading `where`s: each clause in
/// order, with the index of its value for a `let`, then the return, over
/// the slots of [`ScanSlots`].
struct ScanPass {
    pipeline: Vec<(SlotExpr, Option<usize>)>,
    /// `None` in the count form, which yields no item.
    ret: Option<SlotExpr>,
    lets: usize,
}

impl ScanPass {
    /// The return's items for the tuple of `item`; `None` if a `where`
    /// drops it.
    fn run(&self, item: &Item) -> Option<Vec<Item>> {
        let item = [std::slice::from_ref(item)];
        if self.lets <= LET_VALUES {
            let mut values: [Seq; LET_VALUES] = std::array::from_fn(|_| Seq::EMPTY);
            self.over(&item, &mut values[..self.lets])
        } else {
            self.over(&item, &mut (0..self.lets).map(|_| Seq::EMPTY).collect::<Vec<_>>())
        }
    }

    fn over<'x>(&'x self, item: &'x [&'x [Item]], values: &mut [Seq<'x>]) -> Option<Vec<Item>> {
        for (expr, value) in &self.pipeline {
            match value {
                Some(i) => values[*i] = expr.bind(item, values),
                None if !expr.test(item, values) => return None,
                None => {}
            }
        }
        let Some(ret) = &self.ret else { return Some(Vec::new()) };
        let items = ret.with_vars(item, values, |vars| ret.expr.eval(vars).map(Seq::into_vec));
        Some(items.unwrap_or_else(|e| task_bail(e)))
    }
}

/// The variables of a fused scan's flatMap: slot 0 is the scanned item,
/// slot `i + 1` the `i`-th `let` value. A `let` that redeclares a `let`
/// variable overwrites its value; one that redeclares the `for` variable
/// leaves the item's slot unnamed.
struct ScanSlots {
    names: Vec<Option<Arc<str>>>,
}

impl ScanSlots {
    /// `expr` compiled over the slots of its `uses` as they are named now.
    fn expr(&self, expr: &ExprRef, uses: &[Arc<str>], ctx: &DynamicContext) -> Result<SlotExpr> {
        let slots: Box<[usize]> = uses
            .iter()
            .map(|u| self.names.iter().position(|n| n.as_ref() == Some(u)))
            .collect::<Option<_>>()
            .ok_or_else(|| {
                RumbleError::dynamic(codes::CLUSTER, format!("fused scan lacks one of {uses:?}"))
            })?;
        let on_item = slots.iter().all(|&s| s == 0);
        Ok(SlotExpr { expr: clauses::RowExpr::new(expr, uses, ctx), slots, on_item })
    }

    /// The index among the `let` values of the one `let $var` binds.
    fn bind(&mut self, var: Arc<str>) -> usize {
        if let Some(i) = self.names[1..].iter().position(|n| n.as_ref() == Some(&var)) {
            return i;
        }
        if self.names[0].as_ref() == Some(&var) {
            self.names[0] = None;
        }
        self.names.push(Some(var));
        self.names.len() - 2
    }
}

/// A row expression of a fused scan with the slots of its variables. An
/// error fails the task.
struct SlotExpr {
    expr: clauses::RowExpr,
    slots: Box<[usize]>,
    /// Whether it reads no `let` value, only the item, if anything.
    on_item: bool,
}

impl SlotExpr {
    /// Calls `f` with the items of the expression's variables: `item` is
    /// slot 0, `values` the rest.
    fn with_vars<R>(&self, item: &[&[Item]], values: &[Seq], f: impl FnOnce(&[&[Item]]) -> R) -> R {
        if self.on_item {
            return f(&item[..self.slots.len()]);
        }
        let var = |i: usize| match self.slots[i] {
            0 => item[0],
            slot => &values[slot - 1][..],
        };
        clauses::with_items(self.slots.len(), var, f)
    }

    /// The value of a `let`: borrowed from the item where it can be, when
    /// the `let` reads no other `let`; owned otherwise.
    fn bind<'x>(&'x self, item: &'x [&'x [Item]], values: &[Seq]) -> Seq<'x> {
        let value = if self.on_item {
            self.expr.eval(&item[..self.slots.len()])
        } else {
            self.with_vars(item, values, |vars| self.expr.eval(vars).map(Seq::into_owned))
        };
        value.unwrap_or_else(|e| task_bail(e))
    }

    fn test(&self, item: &[&[Item]], values: &[Seq]) -> bool {
        self.with_vars(item, values, |vars| self.expr.test(vars)).unwrap_or_else(|e| task_bail(e))
    }
}

impl ExprIterator for FlworIter {
    fn open(&self, ctx: &DynamicContext) -> Result<ItemCursor> {
        if self.is_rdd(ctx) {
            return Ok(cursor_of(self.materialize(ctx)?));
        }
        let return_expr = Arc::clone(&self.return_expr);
        let ctx = ctx.clone();
        let tuples = self.last.tuples(&ctx)?;
        Ok(Box::new(ReturnCursor { tuples, return_expr, ctx, inner: None, failed: false }))
    }

    fn is_parallel(&self) -> bool {
        self.parallel
    }

    fn rdd(&self, ctx: &DynamicContext) -> Result<Rdd<Item>> {
        match self.last.fused_scan() {
            Some(scan) => self.fused_rdd(scan, ctx, true),
            // §4.10: the return clause maps each row of the DataFrame to
            // the items produced by the return expression — one flatMap
            // back to an RDD of items.
            None => self.returned(self.last.frame(ctx)?, ctx),
        }
    }

    fn count(&self, ctx: &DynamicContext) -> Result<u64> {
        self.cardinal(ctx, false)?.count()
    }

    fn exists(&self, ctx: &DynamicContext) -> Result<bool> {
        self.cardinal(ctx, true)?.exists()
    }

    fn take_ordered(&self, ctx: &DynamicContext, n: usize) -> Result<Option<Vec<Item>>> {
        if n == 0 || !self.is_rdd(ctx) {
            return Ok(None);
        }
        let Some((schema, rows)) = self.last.take_ordered(ctx, n)? else { return Ok(None) };
        // The return clause runs on the driver, over at most `n` rows in
        // order, and stops as soon as it has `n` items.
        let ret = clauses::RowExpr::new(&self.return_expr, &self.return_uses, ctx);
        let mut out = Vec::with_capacity(n);
        for row in &rows {
            out.extend(ret.eval_row(&schema, row)?);
            if out.len() >= n {
                out.truncate(n);
                return Ok(Some(out));
            }
        }
        // Short of `n` items: complete only if no row was cut; otherwise
        // the rows past the cut may still yield items, so the full sort
        // answers instead.
        Ok((rows.len() < n).then_some(out))
    }

    fn mode_hint(&self, ctx: &DynamicContext) -> Option<&'static str> {
        if self.last.fused_scan().is_some() {
            return Some("rdd (fused)");
        }
        // §4.7/§4.9: report whether the physical compiler will fuse
        // adjacent built-in operators into one batch pass (the clause UDFs
        // run on rows), so the observed-mode surface stays truthful.
        let frame = self.last.frame(ctx).ok()?;
        Some(if frame.df.fused_pipeline() { "dataframe (fused)" } else { "dataframe" })
    }
}

/// Local return: one cursor of items per tuple, streamed.
struct ReturnCursor {
    tuples: TupleCursor,
    return_expr: ExprRef,
    ctx: DynamicContext,
    inner: Option<ItemCursor>,
    failed: bool,
}

impl Iterator for ReturnCursor {
    type Item = Result<Item>;

    fn next(&mut self) -> Option<Result<Item>> {
        if self.failed {
            return None;
        }
        loop {
            if let Some(inner) = &mut self.inner {
                match inner.next() {
                    Some(Ok(i)) => return Some(Ok(i)),
                    Some(Err(e)) => {
                        self.failed = true;
                        return Some(Err(e));
                    }
                    None => self.inner = None,
                }
            }
            match self.tuples.next() {
                None => return None,
                Some(Err(e)) => {
                    self.failed = true;
                    return Some(Err(e));
                }
                Some(Ok(tuple)) => {
                    let child = tuple.bind_into(&self.ctx);
                    match self.return_expr.open(&child) {
                        Ok(c) => self.inner = Some(c),
                        Err(e) => {
                            self.failed = true;
                            return Some(Err(e));
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::seq;

    #[test]
    fn tuple_extension_and_shadowing() {
        let t = Tuple::new()
            .extended(Arc::from("x"), seq(vec![Item::Integer(1)]))
            .extended(Arc::from("y"), seq(vec![Item::Integer(2)]));
        assert_eq!(t.get("x").unwrap()[0], Item::Integer(1));
        let t2 = t.extended(Arc::from("x"), seq(vec![Item::Integer(9)]));
        assert_eq!(t2.get("x").unwrap()[0], Item::Integer(9));
        assert_eq!(t2.vars().count(), 2, "redeclaration replaces, not duplicates");
        assert_eq!(t.get("x").unwrap()[0], Item::Integer(1), "original untouched");
    }

    #[test]
    fn cells_bind_natively_and_through_bytes() {
        use sparklite::dataframe::RowCodec;
        use sparklite::CacheCodec;

        let items = vec![Item::Integer(1), Item::str("x")];
        let cell = cell_of(items.clone());
        let Value::Ext(ext) = &cell else { panic!("a native cell") };
        let ItemsCell(seq) = ext.as_any().downcast_ref::<ItemsCell>().expect("an item cell");
        assert!(Arc::ptr_eq(&bind_cell("x", &cell), seq), "binding shares, never copies");

        // A byte boundary stores the item codec's bytes as a `Bin`, which
        // binds to the same items.
        let crossed = RowCodec.decode(&RowCodec.encode(&[vec![cell.clone()]])).unwrap();
        let Value::Bin(bytes) = &crossed[0][0] else { panic!("bytes after the boundary") };
        assert_eq!(bytes.as_ref(), encode_items(&items).as_slice());
        assert_eq!(*bind_cell("x", &crossed[0][0]), items);
        assert_eq!(crossed[0][0], cell, "a cell equals the Bin of its bytes");
    }

    #[test]
    fn a_non_cell_variable_column_fails_the_task() {
        let caught = std::panic::catch_unwind(|| bind_cell("x", &Value::I64(1)));
        assert!(caught.is_err(), "an I64 in a variable column must not bind");
    }
}
