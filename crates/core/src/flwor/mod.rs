//! FLWOR expressions: tuple streams with two physical forms.
//!
//! Each clause (except `return`) is a [`ClauseIterator`] producing a tuple
//! stream (§4.2). A tuple maps variable names to *materialized* sequences
//! of items. Every clause offers:
//!
//! * a **local pull API** ([`ClauseIterator::tuples`]), and
//! * a **DataFrame API** ([`ClauseIterator::frame`]) where the tuple stream
//!   is a DataFrame with one column per in-scope variable (§4.3). `frame`
//!   returns `None` when the stream cannot be distributed (e.g. the FLWOR
//!   starts from a local `let`), in which case the whole expression falls
//!   back to local execution — exactly the seamless switching of §5.8.
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
//! distributed source followed only by `where` clauses, which skips the
//! tuple frame and filters and maps the source's items directly.

pub mod clauses;

use crate::error::Result;
use crate::item::{decode_items, encode_items, Item, Sequence};
use crate::runtime::row::{Raises, RowProgram};
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

    /// DataFrame evaluation (§4.4–§4.9); `None` if this pipeline cannot be
    /// distributed. Builds a plan and launches no job, so probing it (as
    /// `is_rdd` does) is free.
    fn frame(&self, ctx: &DynamicContext) -> Result<Option<TupleFrame>>;

    /// Whether `var` is statically known to be bound to exactly one item in
    /// every tuple (a `for` or `count` binding). Lets `count($var)` after a
    /// group-by become a plain row COUNT (§4.7).
    fn is_unit_var(&self, _var: &str) -> bool {
        false
    }

    /// The clause chain as a fused scan — an initial simple `for` over one
    /// source followed only by `where` filters — if it has that shape.
    /// Fused pipelines run straight over the item RDD (filter + flatMap)
    /// without the tuple-frame DataFrame detour.
    fn fused_scan(&self) -> Option<FusedScan> {
        None
    }

    /// The first `n` tuples of the stream as rows of a tuple frame with
    /// the frame's schema, computed with one top-K job. `Some` only for an
    /// `order by` over a distributable stream.
    fn take_ordered(
        &self,
        _ctx: &DynamicContext,
        _n: usize,
    ) -> Result<Option<(Arc<Schema>, Vec<Row>)>> {
        Ok(None)
    }
}

pub type ClauseRef = Arc<dyn ClauseIterator>;

/// See [`ClauseIterator::fused_scan`]: `for $var in source where p1 …`.
pub struct FusedScan {
    pub var: Arc<str>,
    pub source: ExprRef,
    pub predicates: Vec<ExprRef>,
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

/// Binds the `uses` columns of a row as variables on top of `base` (which
/// must already be executor-flagged).
pub(crate) fn ctx_from_row(
    base: &DynamicContext,
    schema: &Schema,
    row: &[Value],
    uses: &[Arc<str>],
) -> DynamicContext {
    let bindings =
        uses.iter().filter_map(|var| Some((Arc::clone(var), row_var(schema, row, var)?))).collect();
    base.bind_many(bindings)
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
}

impl FlworIter {
    pub fn new(
        last: ClauseRef,
        return_expr: ExprRef,
        return_uses: Vec<Arc<str>>,
        return_var: Option<Arc<str>>,
    ) -> FlworIter {
        FlworIter { last, return_expr, return_uses, return_var }
    }

    /// Builds the fused (DataFrame-free) RDD for scan-shaped pipelines:
    /// each `where` becomes a filter and the return expression a flatMap,
    /// all directly over items, compiled with the scan variable as the one
    /// row variable.
    fn fused_rdd(&self, scan: FusedScan, ctx: &DynamicContext) -> Result<Rdd<Item>> {
        let mut rdd = scan.source.rdd(ctx)?;
        let base = ctx.enter_executor();
        let var = std::slice::from_ref(&scan.var);
        for pred in scan.predicates {
            // The effective boolean value reads at most two items: a
            // program that may raise after its first item stays interpreted.
            let compiled = RowProgram::compile(&pred, var, &base);
            if let Some(p) = compiled.filter(|p| p.raises() <= Raises::Early) {
                rdd = rdd.filter(move |item| match p.ebv(&[std::slice::from_ref(item)]) {
                    Ok(b) => b,
                    Err(e) => task_bail(e),
                });
                continue;
            }
            let base = base.clone();
            let var = Arc::clone(&scan.var);
            rdd = rdd.filter(move |item| {
                let child = base.bind(Arc::clone(&var), Arc::new(vec![item.clone()]));
                match pred.ebv(&child) {
                    Ok(b) => b,
                    Err(e) => task_bail(e),
                }
            });
        }
        if self.return_var.as_ref() == Some(&scan.var) {
            return Ok(rdd);
        }
        if let Some(p) = RowProgram::compile(&self.return_expr, var, &base) {
            return Ok(rdd.flat_map(move |item| {
                match p.run(&[std::slice::from_ref(&item)], |items| items.into_vec()) {
                    Ok(items) => items,
                    Err(e) => task_bail(e),
                }
            }));
        }
        let var = scan.var;
        let ret = Arc::clone(&self.return_expr);
        Ok(rdd.flat_map(move |item| {
            let child = base.bind(Arc::clone(&var), Arc::new(vec![item]));
            match ret.materialize(&child) {
                Ok(items) => items,
                Err(e) => task_bail(e),
            }
        }))
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

    fn is_rdd(&self, ctx: &DynamicContext) -> bool {
        if ctx.in_executor() {
            return false;
        }
        if let Some(scan) = self.last.fused_scan() {
            return scan.source.is_rdd(ctx);
        }
        // Building a frame launches no job. A frame that fails to build
        // still counts as distributed, so `rdd` reports its error instead
        // of the query silently re-running locally. The probe is cheap only
        // while frames stay plans: `rdd` builds this frame again, so a
        // FLWOR nested as a `for` source d levels deep is built 2^d times.
        !matches!(self.last.frame(ctx), Ok(None))
    }

    fn rdd(&self, ctx: &DynamicContext) -> Result<Rdd<Item>> {
        if let Some(scan) = self.last.fused_scan() {
            if !ctx.in_executor() && scan.source.is_rdd(ctx) {
                return self.fused_rdd(scan, ctx);
            }
        }
        let frame = self.last.frame(ctx)?.ok_or_else(|| {
            crate::error::RumbleError::dynamic(
                crate::error::codes::CLUSTER,
                "FLWOR tuple stream has no DataFrame form",
            )
        })?;
        // §4.10: the return clause maps each row of the DataFrame to the
        // items produced by the return expression — one flatMap back to an
        // RDD of items.
        let rows = frame.df.to_rdd()?;
        let schema = Arc::clone(frame.df.schema());
        let ret = clauses::RowExpr::new(&self.return_expr, &self.return_uses, ctx);
        Ok(rows.flat_map(move |row| match ret.eval(&schema, &row) {
            Ok(items) => items,
            Err(e) => task_bail(e),
        }))
    }

    fn take_ordered(&self, ctx: &DynamicContext, n: usize) -> Result<Option<Vec<Item>>> {
        if n == 0 || ctx.in_executor() {
            return Ok(None);
        }
        let Some((schema, rows)) = self.last.take_ordered(ctx, n)? else { return Ok(None) };
        // The return clause runs on the driver, over at most `n` rows in
        // order, and stops as soon as it has `n` items.
        let ret = clauses::RowExpr::new(&self.return_expr, &self.return_uses, ctx);
        let mut out = Vec::with_capacity(n);
        for row in &rows {
            out.extend(ret.eval(&schema, row)?);
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
        if let Some(scan) = self.last.fused_scan() {
            if !ctx.in_executor() && scan.source.is_rdd(ctx) {
                return Some("rdd (fused)");
            }
        }
        if let Ok(Some(frame)) = self.last.frame(ctx) {
            // §4.7/§4.9: report whether the physical compiler will fuse
            // adjacent built-in operators into one batch pass (the clause
            // UDFs run on rows), so the observed-mode surface stays
            // truthful.
            if frame.df.fused_pipeline() {
                return Some("dataframe (fused)");
            }
            return Some("dataframe");
        }
        None
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
