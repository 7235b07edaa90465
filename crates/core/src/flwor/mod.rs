//! FLWOR expressions: tuple streams, run locally clause by clause or
//! distributed as pipelines.
//!
//! Each clause (except `return`) is a [`ClauseIterator`] producing a tuple
//! stream (§4.2). A tuple maps variable names to *materialized* sequences
//! of items. Which path runs is decided when the FLWOR is compiled, by the
//! static rule `semantics::flwor_is_parallel`: a chain that cannot be
//! distributed (it starts from a `let`, say) runs locally as a whole — the
//! seamless switching of §5.8.
//!
//! * The **local pull API** ([`ClauseIterator::tuples`]) runs each clause
//!   as an iterator over tuples (§5.5).
//! * The **distributed form** runs the `for`, `let` and `where` clauses
//!   between two pipeline breakers as one pass per tuple over slots
//!   (`flwor::pipeline`). The paper maps each clause to a Spark SQL
//!   operator (§4.4–§4.8); here the DataFrame plan holds only the
//!   breakers, over an RDD of the rows a pass emits.
//!
//! A row between two passes holds *variable cells*, only for the variables
//! a later clause or the `return` reads. The paper stores each variable as
//! a Kryo-serialized binary column because Spark needs bytes; here a pass
//! wraps the bound sequence in a sparklite [`Value::Ext`] cell instead, so
//! rows that pass between operators of one process never encode or decode
//! their items. The cell turns into the item-codec `Bin` bytes only where
//! sparklite needs bytes — a shuffle block sent to an executor worker —
//! and `bind_cell` is the one place that decodes one back.
//!
//! Every per-row expression of a pass — a `let`, a `where`, a non-initial
//! `for`, a key, the `return` — runs compiled where it can
//! ([`crate::runtime::row`]) over the items of the slots it reads, with no
//! dynamic context.

pub mod clauses;
mod pipeline;

use crate::error::Result;
use crate::item::{decode_items, encode_items, Item, Sequence};
use crate::runtime::{cursor_of, DynamicContext, ExprIterator, ExprRef, ItemCursor};
use clauses::{
    CountClauseIter, ForClauseIter, GroupByClauseIter, LetClauseIter, NonGroupingUsage,
    OrderByClauseIter, WhereClauseIter,
};
use pipeline::{Planned, TUPLES};
use sparklite::dataframe::{ExtCell, Row, Value};
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

/// The results of `f` over each element of `parent`, chained lazily. An
/// error, `parent`'s or `f`'s, is the last element.
fn flat_map_ok<T, U: Send + 'static>(
    parent: impl Iterator<Item = Result<T>> + Send + 'static,
    mut f: impl FnMut(T) -> Result<Box<dyn Iterator<Item = Result<U>> + Send>> + Send + 'static,
) -> Box<dyn Iterator<Item = Result<U>> + Send> {
    let each = parent.flat_map(move |t| match t.and_then(&mut f) {
        Ok(results) => results,
        Err(e) => Box::new(std::iter::once(Err(e))),
    });
    Box::new(each.scan(false, |failed, r| {
        (!*failed).then(|| {
            *failed = r.is_err();
            r
        })
    }))
}

/// A FLWOR clause.
pub trait ClauseIterator: Send + Sync {
    /// Variables in scope after this clause.
    fn out_vars(&self) -> &[Arc<str>];

    /// Local tuple-at-a-time evaluation (§5.5).
    fn tuples(&self, ctx: &DynamicContext) -> Result<TupleCursor>;

    /// The tuple stream in no fixed order, for a consumer that only counts
    /// it: [`tuples`](Self::tuples), but a last `order by` computes its
    /// keys, and so raises what its type discovery raises, without
    /// sorting.
    fn unordered_tuples(&self, ctx: &DynamicContext) -> Result<TupleCursor> {
        self.tuples(ctx)
    }

    /// Whether `var` is statically known to be bound to exactly one item in
    /// every tuple (a `for` or `count` binding). Lets `count($var)` after a
    /// group-by become a plain row COUNT (§4.7).
    fn is_unit_var(&self, _var: &str) -> bool {
        false
    }

    /// The clause itself, which the pipeline compiler reads.
    fn clause(&self) -> Clause<'_>;
}

pub type ClauseRef = Arc<dyn ClauseIterator>;

/// A clause as the pipeline compiler sees it.
#[derive(Clone, Copy)]
pub enum Clause<'a> {
    For(&'a ForClauseIter),
    Let(&'a LetClauseIter),
    Where(&'a WhereClauseIter),
    Count(&'a CountClauseIter),
    GroupBy(&'a GroupByClauseIter),
    OrderBy(&'a OrderByClauseIter),
}

impl<'a> Clause<'a> {
    fn parent(self) -> Option<&'a ClauseRef> {
        match self {
            Clause::For(c) => c.parent.as_ref(),
            Clause::Let(c) => c.parent.as_ref(),
            Clause::Where(c) => Some(&c.parent),
            Clause::Count(c) => Some(&c.parent),
            Clause::GroupBy(c) => Some(&c.parent),
            Clause::OrderBy(c) => Some(&c.parent),
        }
    }

    /// Whether the clause ends a pass. An initial `for … at` does too, as
    /// the pass's source.
    fn is_breaker(self) -> bool {
        matches!(self, Clause::Count(_) | Clause::GroupBy(_) | Clause::OrderBy(_))
    }

    /// The variables of the tuples before it that the clause reads.
    fn reads(self) -> Vec<&'a Arc<str>> {
        match self {
            Clause::For(c) => c.uses.iter().collect(),
            Clause::Let(c) => c.uses.iter().collect(),
            Clause::Where(c) => c.uses.iter().collect(),
            Clause::Count(_) => Vec::new(),
            Clause::GroupBy(c) => {
                let keys = c.keys.iter().flat_map(|k| &k.uses);
                let used = c.nongrouping.iter().filter(|(_, u)| *u != NonGroupingUsage::Unused);
                keys.chain(used.map(|(v, _)| v)).collect()
            }
            Clause::OrderBy(c) => c.specs.iter().flat_map(|s| &s.uses).collect(),
        }
    }
}

/// The clauses of the chain ending in `last`, in order.
fn chain(last: &ClauseRef) -> Vec<Clause<'_>> {
    let mut clauses = vec![last.clause()];
    while let Some(parent) = clauses[clauses.len() - 1].parent() {
        clauses.push(parent.clause());
    }
    clauses.reverse();
    clauses
}

/// Whether the chain ending in `last` runs distributed as one pass from
/// its source's items: no breaker after the source.
pub(crate) fn is_one_pass(last: &ClauseRef) -> bool {
    let clauses = chain(last);
    let plain_source = matches!(clauses[0], Clause::For(f) if f.positional.is_none());
    plain_source && !clauses.iter().any(|c| c.is_breaker())
}

// ---------------------------------------------------------------------------
// Variable cells
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

/// The sequence a variable cell binds: an `Arc` clone of a native cell,
/// or the decode of the `Bin` a shuffle block sent to an executor worker
/// turned one into. Any other value is a task error.
pub(crate) fn bind_cell(cell: &Value) -> Sequence {
    if let Some(items) = native(cell) {
        return Arc::clone(&items.0);
    }
    match cell {
        Value::Bin(bytes) => match decode_items(bytes) {
            Ok(items) => Arc::new(items),
            Err(e) => task_bail(e),
        },
        other => task_bail(format!("a tuple column holds {other:?}, not a variable cell")),
    }
}

fn native(cell: &Value) -> Option<&ItemsCell> {
    match cell {
        Value::Ext(c) => c.as_any().downcast_ref::<ItemsCell>(),
        _ => None,
    }
}

/// The items of a native cell, borrowed; `None` for any other value.
pub(crate) fn cell_items(cell: &Value) -> Option<&[Item]> {
    native(cell).map(|items| items.0.as_slice())
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
    /// (`return $v`): a pass that leaves the source's items as they are
    /// then returns them.
    pub return_var: Option<Arc<str>>,
    /// Whether the return yields exactly one item per tuple and never
    /// raises: a cardinality-only consumer then reads the tuples and builds
    /// no return item (see [`ExprIterator::count`]).
    pub counts_tuples: bool,
    /// The source of the initial `for` building only what the clauses
    /// read, which the tuple count of a one-pass chain reads instead of
    /// the source in the clause chain; `None` unless the count reads
    /// tuples and that source builds fewer fields.
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
    /// The final pass: the clauses after the last breaker, over the
    /// stream it emits (see [`pipeline`]), its source scanned by `source`
    /// instead of the initial `for`'s where one is given, and a last
    /// `order by` sorted if `sorted`.
    fn final_pass(
        &self,
        ctx: &DynamicContext,
        source: Option<&ExprRef>,
        sorted: bool,
    ) -> Result<Planned> {
        let clauses = chain(&self.last);
        let (stream, rest) =
            pipeline::stream(&clauses, clauses.len(), source, &self.return_uses, sorted, ctx)?;
        Planned::new(stream, rest, ctx)
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
            let items = self.returned_locally(tuples, ctx);
            return Ok(Cardinal::Local(Box::new(items.map(|i| i.map(drop)))));
        }
        let source = self.count_source.as_ref().filter(|_| self.counts_tuples);
        let planned = self.final_pass(ctx, source, ordered)?;
        if !self.counts_tuples {
            return Ok(Cardinal::Items(self.returned(planned, ctx)?));
        }
        Ok(match planned.source_items() {
            Some(items) => Cardinal::Items(items),
            None => Cardinal::Rows(planned.run(TUPLES)),
        })
    }

    /// The return's items over local tuples, streamed.
    fn returned_locally(&self, tuples: TupleCursor, ctx: &DynamicContext) -> ItemCursor {
        let (return_expr, ctx) = (Arc::clone(&self.return_expr), ctx.clone());
        flat_map_ok(tuples, move |t| return_expr.open(&t.bind_into(&ctx)))
    }

    /// The return's items over the final pass (§4.10): one flatMap back
    /// to an RDD of items.
    fn returned(&self, planned: Planned, ctx: &DynamicContext) -> Result<Rdd<Item>> {
        let ret = (&self.return_expr, &self.return_uses[..]);
        planned.returned(self.return_var.as_ref(), ret, ctx)
    }
}

impl ExprIterator for FlworIter {
    fn open(&self, ctx: &DynamicContext) -> Result<ItemCursor> {
        if self.is_rdd(ctx) {
            return Ok(cursor_of(self.materialize(ctx)?));
        }
        Ok(self.returned_locally(self.last.tuples(ctx)?, ctx))
    }

    fn is_parallel(&self) -> bool {
        self.parallel
    }

    fn rdd(&self, ctx: &DynamicContext) -> Result<Rdd<Item>> {
        self.returned(self.final_pass(ctx, None, true)?, ctx)
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
        let ret = (&self.return_expr, &self.return_uses[..]);
        pipeline::take_ordered(&chain(&self.last), ret, n, ctx)
    }

    /// `rdd (fused)` for a chain that runs as one pass from its source;
    /// `dataframe` for one with a breaker, whose plan holds the breakers.
    /// Decided from the clauses, with no plan built.
    fn mode_hint(&self, _ctx: &DynamicContext) -> Option<&'static str> {
        Some(if is_one_pass(&self.last) { "rdd (fused)" } else { "dataframe" })
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
        assert!(Arc::ptr_eq(&bind_cell(&cell), seq), "binding shares, never copies");

        // A byte boundary stores the item codec's bytes as a `Bin`, which
        // binds to the same items.
        let crossed = RowCodec.decode(&RowCodec.encode(&[vec![cell.clone()]])).unwrap();
        let Value::Bin(bytes) = &crossed[0][0] else { panic!("bytes after the boundary") };
        assert_eq!(bytes.as_ref(), encode_items(&items).as_slice());
        assert_eq!(*bind_cell(&crossed[0][0]), items);
        assert_eq!(crossed[0][0], cell, "a cell equals the Bin of its bytes");
    }

    #[test]
    fn a_non_cell_variable_column_fails_the_task() {
        let caught = std::panic::catch_unwind(|| bind_cell(&Value::I64(1)));
        assert!(caught.is_err(), "an I64 in a variable column must not bind");
    }
}
