//! The runtime-iterator layer (§5.4–§5.6).
//!
//! Expressions compile to trees of [`ExprIterator`]s. Every iterator offers
//! a **local pull API** ([`ExprIterator::open`], yielding a cursor over the
//! result sequence) and, when it can, an **RDD API**
//! ([`ExprIterator::is_rdd`] / [`ExprIterator::rdd`]) producing the same
//! sequence as a distributed `Rdd<Item>`. Consumers probe `is_rdd` first
//! and fall back to the local API — the seamless switching of §5.5/§5.6.
//!
//! Inside executor closures the RDD API is unavailable (Spark jobs do not
//! nest); the [`DynamicContext`] carries an `in_executor` flag that turns
//! `is_rdd` off everywhere below.
//!
//! An expression evaluated once per row of a FLWOR — a `let`, a `where`, a
//! key, the `return` — has a third form: [`ExprIterator::compile_row`]
//! compiles it to closures over slot-resolved variables ([`row`]), so a
//! row reads its variables from borrowed cells instead of binding a
//! dynamic context and opening a cursor per node. Nodes without a compiled
//! form keep that per-row path.

pub mod exprs;
pub mod functions;
pub mod profile;
pub mod row;
pub mod types;

use crate::error::{codes, Result, RumbleError};
use crate::item::{Item, Sequence};
use parking_lot::RwLock;
use row::{RowFn, RowScope};
use sparklite::rdd::Rdd;
use sparklite::SparkliteContext;
use std::collections::HashMap;
use std::sync::Arc;

/// A cursor over a sequence of items; errors surface in-stream.
pub type ItemCursor = Box<dyn Iterator<Item = Result<Item>> + Send>;

/// Shorthand for building a cursor from materialized items.
pub fn cursor_of(items: Vec<Item>) -> ItemCursor {
    Box::new(items.into_iter().map(Ok))
}

/// A cursor with exactly one item.
pub fn cursor_one(item: Item) -> ItemCursor {
    Box::new(std::iter::once(Ok(item)))
}

/// The empty cursor.
pub fn cursor_empty() -> ItemCursor {
    Box::new(std::iter::empty())
}

/// Where a named collection (the `collection()` function) gets its data.
#[derive(Clone)]
pub enum CollectionSource {
    /// A JSON Lines file on the storage layer.
    Path(String),
    /// Driver-local items.
    Items(Arc<Vec<Item>>),
}

/// Engine-wide state shared by every dynamic context: the cluster handle,
/// named collections, and materialization limits.
pub struct EngineCtx {
    pub sc: SparkliteContext,
    pub collections: RwLock<HashMap<String, CollectionSource>>,
    /// Maximum number of items the local API materializes from an RDD
    /// (§5.5 describes a configurable cap with a warning; we truncate and
    /// record that we did).
    pub materialization_cap: std::sync::atomic::AtomicUsize,
    /// Set when a materialization hit the cap, so callers can warn.
    pub truncated: std::sync::atomic::AtomicBool,
    /// Storage level at which literal-path sources are automatically
    /// persisted across query runs; `None` disables auto-persist.
    pub auto_persist: RwLock<Option<sparklite::StorageLevel>>,
    /// Persisted source RDDs, keyed by source identity (e.g.
    /// `json-file:hdfs:///x.json`) and storage level. Engine-wide so every
    /// compile of every query over the same literal source reuses the same
    /// cached partitions. Dropping an entry releases its partitions.
    pub persisted_sources: RwLock<HashMap<(String, sparklite::StorageLevel), Rdd<Item>>>,
}

impl EngineCtx {
    pub fn new(sc: SparkliteContext) -> Arc<EngineCtx> {
        Arc::new(EngineCtx {
            sc,
            collections: RwLock::new(HashMap::new()),
            materialization_cap: std::sync::atomic::AtomicUsize::new(10_000_000),
            truncated: std::sync::atomic::AtomicBool::new(false),
            auto_persist: RwLock::new(Some(sparklite::StorageLevel::MemoryDeserialized)),
            persisted_sources: RwLock::new(HashMap::new()),
        })
    }

    /// Drops every auto-persisted source RDD (and, transitively, its cached
    /// partitions). Call after rewriting a source out from under the engine.
    pub fn clear_persisted_sources(&self) {
        self.persisted_sources.write().clear();
    }
}

struct CtxInner {
    parent: Option<DynamicContext>,
    bindings: Vec<(Arc<str>, Sequence)>,
    /// `$$` and its 1-based position, when bound.
    context_item: Option<(Item, i64)>,
    in_executor: bool,
    engine: Arc<EngineCtx>,
}

/// The dynamic context: chained variable bindings plus the context item —
/// cheap to clone and ship into closures (contexts chain, per §5.3, rather
/// than copying bindings).
#[derive(Clone)]
pub struct DynamicContext {
    inner: Arc<CtxInner>,
}

impl DynamicContext {
    pub fn root(engine: Arc<EngineCtx>) -> DynamicContext {
        DynamicContext {
            inner: Arc::new(CtxInner {
                parent: None,
                bindings: Vec::new(),
                context_item: None,
                in_executor: false,
                engine,
            }),
        }
    }

    pub fn engine(&self) -> &Arc<EngineCtx> {
        &self.inner.engine
    }

    pub fn in_executor(&self) -> bool {
        self.inner.in_executor
    }

    /// A child context with additional variable bindings.
    pub fn bind_many(&self, bindings: Vec<(Arc<str>, Sequence)>) -> DynamicContext {
        DynamicContext {
            inner: Arc::new(CtxInner {
                parent: Some(self.clone()),
                bindings,
                context_item: self.inner.context_item.clone(),
                in_executor: self.inner.in_executor,
                engine: Arc::clone(&self.inner.engine),
            }),
        }
    }

    pub fn bind(&self, name: Arc<str>, value: Sequence) -> DynamicContext {
        self.bind_many(vec![(name, value)])
    }

    /// A child context with `$$` bound to `item` at 1-based `position`.
    pub fn with_context_item(&self, item: Item, position: i64) -> DynamicContext {
        DynamicContext {
            inner: Arc::new(CtxInner {
                parent: Some(self.clone()),
                bindings: Vec::new(),
                context_item: Some((item, position)),
                in_executor: self.inner.in_executor,
                engine: Arc::clone(&self.inner.engine),
            }),
        }
    }

    /// A copy flagged as running inside an executor closure: the RDD API is
    /// disabled below this context (jobs do not nest, §5.6).
    pub fn enter_executor(&self) -> DynamicContext {
        if self.inner.in_executor {
            return self.clone();
        }
        DynamicContext {
            inner: Arc::new(CtxInner {
                parent: Some(self.clone()),
                bindings: Vec::new(),
                context_item: self.inner.context_item.clone(),
                in_executor: true,
                engine: Arc::clone(&self.inner.engine),
            }),
        }
    }

    pub fn lookup(&self, name: &str) -> Option<Sequence> {
        let mut cur = Some(self);
        while let Some(ctx) = cur {
            if let Some((_, v)) = ctx.inner.bindings.iter().rev().find(|(n, _)| n.as_ref() == name)
            {
                return Some(Arc::clone(v));
            }
            cur = ctx.inner.parent.as_ref();
        }
        None
    }

    pub fn context_item(&self) -> Option<(Item, i64)> {
        self.inner.context_item.clone()
    }
}

/// A compiled expression: the runtime-iterator tree node.
pub trait ExprIterator: Send + Sync {
    /// Local pull API: a fresh cursor over the result sequence, evaluated
    /// in `ctx`. May be called many times with different contexts (§5.5).
    fn open(&self, ctx: &DynamicContext) -> Result<ItemCursor>;

    /// Whether this expression can deliver its result as an RDD in `ctx`.
    fn is_rdd(&self, _ctx: &DynamicContext) -> bool {
        false
    }

    /// The RDD API (only valid when [`is_rdd`] returned true).
    ///
    /// [`is_rdd`]: ExprIterator::is_rdd
    fn rdd(&self, _ctx: &DynamicContext) -> Result<Rdd<Item>> {
        Err(RumbleError::dynamic(codes::CLUSTER, "expression has no RDD form"))
    }

    /// Effective boolean value of the result, computed from at most two
    /// items. Hot-path predicates (comparisons, logic) override this to
    /// avoid building a cursor per evaluation.
    fn ebv(&self, ctx: &DynamicContext) -> Result<bool> {
        let mut cur = self.open(ctx)?;
        let first = match cur.next() {
            None => return Ok(false),
            Some(r) => r?,
        };
        if cur.next().is_some() {
            return Err(RumbleError::type_err(
                "effective boolean value of a sequence of more than one item",
            ));
        }
        crate::item::effective_boolean_value(std::slice::from_ref(&first))
    }

    /// Materializes the full result. RDD-backed results are collected with
    /// the engine's materialization cap (§5.5).
    fn materialize(&self, ctx: &DynamicContext) -> Result<Vec<Item>> {
        if self.is_rdd(ctx) {
            collect_rdd_capped(self.rdd(ctx)?, ctx)
        } else {
            self.open(ctx)?.collect()
        }
    }

    /// The constant item this expression always yields, if any.
    fn const_item(&self) -> Option<Item> {
        None
    }

    /// This expression compiled for per-row evaluation (see [`row`]): a
    /// closure over the variables of `scope` that yields what
    /// [`materialize`] yields, error code for error code. `None` when some
    /// node has no compiled form; the caller then binds a context per row.
    ///
    /// [`materialize`]: ExprIterator::materialize
    fn compile_row(&self, _scope: &mut RowScope) -> Option<RowFn> {
        None
    }

    /// The first `n` items, computed with one top-K job, when this
    /// expression has that shape (a FLWOR whose last clause is `order by`,
    /// over a distributable tuple stream). `None` means the caller takes
    /// from [`rdd`] or [`open`] as usual.
    ///
    /// [`rdd`]: ExprIterator::rdd
    /// [`open`]: ExprIterator::open
    fn take_ordered(&self, _ctx: &DynamicContext, _n: usize) -> Result<Option<Vec<Item>>> {
        Ok(None)
    }

    /// A short static description of the distributed strategy [`rdd`] would
    /// use in `ctx`, for `EXPLAIN ANALYZE` — e.g. `"rdd (fused)"`,
    /// `"dataframe"` or `"dataframe (fused)"` (two or more adjacent
    /// built-in operators collapsed into one batch pass). `None`
    /// means plain `"rdd"` (or not applicable).
    ///
    /// [`rdd`]: ExprIterator::rdd
    fn mode_hint(&self, _ctx: &DynamicContext) -> Option<&'static str> {
        None
    }
}

/// Reference-counted iterator node.
pub type ExprRef = Arc<dyn ExprIterator>;

/// Collects an RDD-backed result with the engine's materialization cap —
/// shared by the trait default and by iterators overriding `materialize`.
pub fn collect_rdd_capped(rdd: Rdd<Item>, ctx: &DynamicContext) -> Result<Vec<Item>> {
    let engine = ctx.engine();
    let cap = engine.materialization_cap.load(std::sync::atomic::Ordering::Relaxed);
    let mut items = rdd.take(cap + 1)?;
    if items.len() > cap {
        engine.truncated.store(true, std::sync::atomic::Ordering::Relaxed);
        items.truncate(cap);
    }
    Ok(items)
}

/// Evaluates to at most one item, erroring on longer sequences.
pub fn eval_opt(e: &ExprRef, ctx: &DynamicContext, what: &str) -> Result<Option<Item>> {
    let mut cur = e.open(ctx)?;
    let first = match cur.next() {
        None => return Ok(None),
        Some(r) => r?,
    };
    if cur.next().is_some() {
        return Err(RumbleError::dynamic(
            codes::SEQUENCE_TOO_LONG,
            format!("{what}: more than one item"),
        ));
    }
    Ok(Some(first))
}

/// Evaluates to exactly one item.
pub fn eval_one(e: &ExprRef, ctx: &DynamicContext, what: &str) -> Result<Item> {
    eval_opt(e, ctx, what)?.ok_or_else(|| {
        RumbleError::dynamic(codes::TYPE_MISMATCH, format!("{what}: empty sequence"))
    })
}

/// Effective boolean value of an expression (never materializes more than
/// two items; comparisons and logic compute it directly).
pub fn eval_ebv(e: &ExprRef, ctx: &DynamicContext) -> Result<bool> {
    e.ebv(ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::seq;
    use sparklite::{SparkliteConf, SparkliteContext};

    fn engine() -> Arc<EngineCtx> {
        EngineCtx::new(SparkliteContext::new(SparkliteConf::default().with_executors(2)))
    }

    #[test]
    fn context_chaining_and_shadowing() {
        let root = DynamicContext::root(engine());
        let a: Arc<str> = Arc::from("a");
        let c1 = root.bind(Arc::clone(&a), seq(vec![Item::Integer(1)]));
        let c2 = c1.bind(Arc::clone(&a), seq(vec![Item::Integer(2)]));
        assert_eq!(c1.lookup("a").unwrap()[0], Item::Integer(1));
        assert_eq!(c2.lookup("a").unwrap()[0], Item::Integer(2));
        assert!(root.lookup("a").is_none());
        // The parent context is untouched by child bindings.
        assert_eq!(c1.lookup("a").unwrap()[0], Item::Integer(1));
    }

    #[test]
    fn context_item_propagates_to_children() {
        let root = DynamicContext::root(engine());
        let with = root.with_context_item(Item::Integer(9), 3);
        let child = with.bind(Arc::from("x"), seq(vec![]));
        assert_eq!(child.context_item().unwrap(), (Item::Integer(9), 3));
        assert!(root.context_item().is_none());
    }

    #[test]
    fn executor_flag_is_sticky() {
        let root = DynamicContext::root(engine());
        assert!(!root.in_executor());
        let exec = root.enter_executor();
        assert!(exec.in_executor());
        let child = exec.bind(Arc::from("x"), seq(vec![]));
        assert!(child.in_executor());
    }
}
