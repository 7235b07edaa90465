//! Expression runtime iterators: one type per expression family, each
//! offering the local pull API and — for the per-item expressions of §4.1.2
//! and the input functions of §5.7 — the RDD API.

use super::row::{
    array_member, filter_seq, flat_map_seq, member, one_item, opt_item, unbound_context_item, Env,
    Operand, Raises, RowFn, RowScope, Seq,
};
use super::types::{cast_item, seq_matches, type_to_string};
use super::{
    cursor_empty, cursor_of, cursor_one, eval_ebv, eval_one, eval_opt, CollectionSource,
    DynamicContext, ExprIterator, ExprRef, ItemCursor,
};
use crate::error::{codes, Result, RumbleError};
use crate::item::{
    atomic_equal, effective_boolean_value, exactly_one, item_add, item_div, item_idiv, item_mod,
    item_mul, item_neg, item_sub, seq, value_compare, Fields, Item, ItemBuilder,
};
use crate::syntax::ast::{ArithOp, AtomicType, CompOp, SequenceType};
use sparklite::rdd::{task_bail, Rdd};
use std::cmp::Ordering;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Cursor plumbing
// ---------------------------------------------------------------------------

/// A lazy flat-map over a cursor: for the n-th outer item (1-based), `f`
/// produces an inner cursor whose items are streamed out. The workhorse of
/// lookups, predicates and simple-map.
pub struct FlatMapCursor {
    outer: ItemCursor,
    f: Box<dyn FnMut(Item, i64) -> Result<ItemCursor> + Send>,
    inner: Option<ItemCursor>,
    pos: i64,
    failed: bool,
}

impl FlatMapCursor {
    #[allow(clippy::new_ret_no_self)] // constructor returns the boxed cursor form
    pub fn new(
        outer: ItemCursor,
        f: impl FnMut(Item, i64) -> Result<ItemCursor> + Send + 'static,
    ) -> ItemCursor {
        Box::new(FlatMapCursor { outer, f: Box::new(f), inner: None, pos: 0, failed: false })
    }
}

impl Iterator for FlatMapCursor {
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
            match self.outer.next() {
                None => return None,
                Some(Err(e)) => {
                    self.failed = true;
                    return Some(Err(e));
                }
                Some(Ok(item)) => {
                    self.pos += 1;
                    match (self.f)(item, self.pos) {
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

// ---------------------------------------------------------------------------
// Leaves
// ---------------------------------------------------------------------------

/// A constant item.
pub struct LiteralIter(pub Item);

impl ExprIterator for LiteralIter {
    fn open(&self, _ctx: &DynamicContext) -> Result<ItemCursor> {
        Ok(cursor_one(self.0.clone()))
    }

    fn const_item(&self) -> Option<Item> {
        Some(self.0.clone())
    }

    fn compile_row(&self, scope: &mut RowScope) -> Option<RowFn> {
        // A constant slot: every row borrows the one item.
        Some(RowFn::slot(scope.constant(vec![self.0.clone()])))
    }
}

/// `()`
pub struct EmptySeqIter;

impl ExprIterator for EmptySeqIter {
    fn open(&self, _ctx: &DynamicContext) -> Result<ItemCursor> {
        Ok(cursor_empty())
    }

    fn compile_row(&self, _scope: &mut RowScope) -> Option<RowFn> {
        Some(RowFn::new(Raises::Never, |_| Ok(Seq::EMPTY)))
    }
}

/// `$name`
pub struct VarRefIter(pub Arc<str>);

impl ExprIterator for VarRefIter {
    fn open(&self, ctx: &DynamicContext) -> Result<ItemCursor> {
        Ok(Box::new(SeqCursor { seq: self.resolve(ctx)?, i: 0 }))
    }

    fn materialize(&self, ctx: &DynamicContext) -> Result<Vec<Item>> {
        Ok(self.resolve(ctx)?.to_vec())
    }

    fn compile_row(&self, scope: &mut RowScope) -> Option<RowFn> {
        Some(RowFn::slot(scope.var(&self.0)?))
    }
}

impl VarRefIter {
    fn resolve(&self, ctx: &DynamicContext) -> Result<crate::item::Sequence> {
        ctx.lookup(&self.0).ok_or_else(|| {
            RumbleError::dynamic(
                codes::UNDEFINED_VARIABLE,
                format!("variable ${} is not bound", self.0),
            )
        })
    }
}

/// Cursor over a shared sequence without copying the backing vector.
struct SeqCursor {
    seq: crate::item::Sequence,
    i: usize,
}

impl Iterator for SeqCursor {
    type Item = Result<Item>;
    fn next(&mut self) -> Option<Result<Item>> {
        let item = self.seq.get(self.i)?.clone();
        self.i += 1;
        Some(Ok(item))
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.seq.len() - self.i;
        (n, Some(n))
    }
}

/// `$$`
pub struct ContextItemIter;

impl ExprIterator for ContextItemIter {
    fn open(&self, ctx: &DynamicContext) -> Result<ItemCursor> {
        match ctx.context_item() {
            Some((item, _)) => Ok(cursor_one(item)),
            None => Err(unbound_context_item()),
        }
    }

    fn compile_row(&self, _scope: &mut RowScope) -> Option<RowFn> {
        Some(RowFn::context_item())
    }
}

/// The comma operator. Supports the RDD API when *all* children do (a
/// union of distributed inputs).
pub struct CommaIter(pub Vec<ExprRef>);

impl ExprIterator for CommaIter {
    fn open(&self, ctx: &DynamicContext) -> Result<ItemCursor> {
        let mut cursors = Vec::with_capacity(self.0.len());
        for c in &self.0 {
            cursors.push(c.open(ctx)?);
        }
        Ok(Box::new(cursors.into_iter().flatten()))
    }

    fn is_rdd(&self, ctx: &DynamicContext) -> bool {
        !self.0.is_empty() && self.0.iter().all(|c| c.is_rdd(ctx))
    }

    fn rdd(&self, ctx: &DynamicContext) -> Result<Rdd<Item>> {
        let mut it = self.0.iter();
        let first = it.next().expect("checked non-empty").rdd(ctx)?;
        it.try_fold(first, |acc, c| Ok(acc.union(&c.rdd(ctx)?)))
    }

    fn compile_row(&self, scope: &mut RowScope) -> Option<RowFn> {
        // `open` opens every member before the first yields: a member
        // before the last is read lazily relative to a later member's
        // `open`, so it must not raise after its first item.
        let (last, init) = self.0.split_last()?;
        let mut members: Vec<RowFn> =
            init.iter().map(|m| m.compile_row(scope)?.lazy()).collect::<Option<_>>()?;
        members.push(last.compile_row(scope)?);
        let raises = if members[1..].iter().all(|m| m.raises() == Raises::Never) {
            members[0].raises()
        } else {
            Raises::Late
        };
        Some(RowFn::new(raises, move |env| {
            let mut out = Seq::EMPTY;
            for m in &members {
                out.append(m.eval(env)?);
            }
            Ok(out)
        }))
    }
}

// ---------------------------------------------------------------------------
// Logic and control flow
// ---------------------------------------------------------------------------

pub struct AndIter(pub ExprRef, pub ExprRef);

impl ExprIterator for AndIter {
    fn ebv(&self, ctx: &DynamicContext) -> Result<bool> {
        Ok(eval_ebv(&self.0, ctx)? && eval_ebv(&self.1, ctx)?)
    }

    fn open(&self, ctx: &DynamicContext) -> Result<ItemCursor> {
        Ok(cursor_one(Item::Boolean(self.ebv(ctx)?)))
    }

    fn compile_row(&self, scope: &mut RowScope) -> Option<RowFn> {
        let (a, b) = (self.0.compile_row(scope)?.lazy()?, self.1.compile_row(scope)?.lazy()?);
        Some(RowFn::test(Raises::Early, move |env| Ok(Some(a.ebv(env)? && b.ebv(env)?))))
    }
}

pub struct OrIter(pub ExprRef, pub ExprRef);

impl ExprIterator for OrIter {
    fn ebv(&self, ctx: &DynamicContext) -> Result<bool> {
        Ok(eval_ebv(&self.0, ctx)? || eval_ebv(&self.1, ctx)?)
    }

    fn open(&self, ctx: &DynamicContext) -> Result<ItemCursor> {
        Ok(cursor_one(Item::Boolean(self.ebv(ctx)?)))
    }

    fn compile_row(&self, scope: &mut RowScope) -> Option<RowFn> {
        let (a, b) = (self.0.compile_row(scope)?.lazy()?, self.1.compile_row(scope)?.lazy()?);
        Some(RowFn::test(Raises::Early, move |env| Ok(Some(a.ebv(env)? || b.ebv(env)?))))
    }
}

pub struct NotIter(pub ExprRef);

impl ExprIterator for NotIter {
    fn ebv(&self, ctx: &DynamicContext) -> Result<bool> {
        Ok(!eval_ebv(&self.0, ctx)?)
    }

    fn open(&self, ctx: &DynamicContext) -> Result<ItemCursor> {
        Ok(cursor_one(Item::Boolean(self.ebv(ctx)?)))
    }

    fn compile_row(&self, scope: &mut RowScope) -> Option<RowFn> {
        let inner = self.0.compile_row(scope)?.lazy()?;
        Some(RowFn::test(Raises::Early, move |env| Ok(Some(!inner.ebv(env)?))))
    }
}

pub struct IfIter {
    pub cond: ExprRef,
    pub then: ExprRef,
    pub els: ExprRef,
}

impl ExprIterator for IfIter {
    fn open(&self, ctx: &DynamicContext) -> Result<ItemCursor> {
        if eval_ebv(&self.cond, ctx)? {
            self.then.open(ctx)
        } else {
            self.els.open(ctx)
        }
    }

    fn compile_row(&self, scope: &mut RowScope) -> Option<RowFn> {
        let cond = self.cond.compile_row(scope)?.lazy()?;
        let (then, els) = (self.then.compile_row(scope)?, self.els.compile_row(scope)?);
        let raises = Raises::Early.max(then.raises()).max(els.raises());
        Some(RowFn::new(
            raises,
            move |env| {
                if cond.ebv(env)? {
                    then.eval(env)
                } else {
                    els.eval(env)
                }
            },
        ))
    }
}

pub struct SwitchIter {
    pub input: ExprRef,
    pub cases: Vec<(Vec<ExprRef>, ExprRef)>,
    pub default: ExprRef,
}

impl ExprIterator for SwitchIter {
    fn open(&self, ctx: &DynamicContext) -> Result<ItemCursor> {
        let subject = eval_opt(&self.input, ctx, "switch input")?;
        if let Some(s) = &subject {
            if !s.is_atomic() {
                return Err(RumbleError::type_err("switch input must be atomic or empty"));
            }
        }
        for (values, result) in &self.cases {
            for v in values {
                let candidate = eval_opt(v, ctx, "switch case")?;
                let matches = match (&subject, &candidate) {
                    (None, None) => true,
                    (Some(a), Some(b)) => atomic_equal(a, b),
                    _ => false,
                };
                if matches {
                    return result.open(ctx);
                }
            }
        }
        self.default.open(ctx)
    }
}

/// `try { … } catch … { … }` — listed as future work in the paper (§8),
/// implemented here.
pub struct TryCatchIter {
    pub body: ExprRef,
    /// Error codes to catch; empty = `catch *`.
    pub codes: Vec<String>,
    pub handler: ExprRef,
}

impl ExprIterator for TryCatchIter {
    fn open(&self, ctx: &DynamicContext) -> Result<ItemCursor> {
        // Errors must be caught even if raised lazily, so the body is
        // materialized eagerly inside the try scope.
        match self.body.materialize(ctx) {
            Ok(items) => Ok(cursor_of(items)),
            Err(e) => {
                if self.codes.is_empty() || self.codes.iter().any(|c| c == e.code) {
                    self.handler.open(ctx)
                } else {
                    Err(e)
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Comparison, arithmetic, concatenation, ranges
// ---------------------------------------------------------------------------

pub struct CompareIter {
    pub left: ExprRef,
    pub op: CompOp,
    pub right: ExprRef,
}

fn apply_value_op(a: &Item, op: CompOp, b: &Item) -> Result<bool> {
    use CompOp::*;
    match op {
        ValueEq | GenEq => Ok(atomic_equal(a, b)),
        ValueNe | GenNe => Ok(!atomic_equal(a, b)),
        _ => {
            // NaN orders with nothing under value-comparison semantics.
            if crate::item::is_nan(a) || crate::item::is_nan(b) {
                return Ok(false);
            }
            let o = value_compare(a, b)?;
            Ok(match op {
                ValueLt | GenLt => o == Ordering::Less,
                ValueLe | GenLe => o != Ordering::Greater,
                ValueGt | GenGt => o == Ordering::Greater,
                ValueGe | GenGe => o != Ordering::Less,
                _ => unreachable!(),
            })
        }
    }
}

/// The comparison of two whole operands: `None` when a value comparison
/// has an empty side (its result is the empty sequence). General
/// comparisons are existential over the pairs, in order; value
/// comparisons take one atomic item a side.
pub(crate) fn compare_items(left: &[Item], op: CompOp, right: &[Item]) -> Result<Option<bool>> {
    if op.is_general() {
        for a in left {
            for b in right {
                if apply_value_op(a, op, b)? {
                    return Ok(Some(true));
                }
            }
        }
        return Ok(Some(false));
    }
    if left.len() > 1 || right.len() > 1 {
        return Err(RumbleError::dynamic(
            codes::SEQUENCE_TOO_LONG,
            "comparison: more than one item",
        ));
    }
    let (Some(a), Some(b)) = (left.first(), right.first()) else {
        return Ok(None);
    };
    if !a.is_atomic() || !b.is_atomic() {
        return Err(RumbleError::type_err(format!(
            "value comparisons need atomics, got {} and {}",
            a.type_name(),
            b.type_name()
        )));
    }
    Ok(Some(apply_value_op(a, op, b)?))
}

impl CompareIter {
    /// `None` means the (value-)comparison result is the empty sequence.
    fn compute(&self, ctx: &DynamicContext) -> Result<Option<bool>> {
        // materialize() has allocation-free fast paths on the common
        // navigation iterators, unlike cursor-based eval_opt.
        compare_items(&self.left.materialize(ctx)?, self.op, &self.right.materialize(ctx)?)
    }
}

impl ExprIterator for CompareIter {
    fn ebv(&self, ctx: &DynamicContext) -> Result<bool> {
        Ok(self.compute(ctx)?.unwrap_or(false))
    }

    fn compile_row(&self, scope: &mut RowScope) -> Option<RowFn> {
        let left = Operand::compile(&self.left, scope)?;
        let right = Operand::compile(&self.right, scope)?;
        let op = self.op;
        Some(RowFn::test(Raises::Early, move |env| {
            left.with(env, |l| right.with(env, |r| compare_items(l, op, r)))
        }))
    }

    fn open(&self, ctx: &DynamicContext) -> Result<ItemCursor> {
        match self.compute(ctx)? {
            Some(b) => Ok(cursor_one(Item::Boolean(b))),
            None => Ok(cursor_empty()),
        }
    }
}

pub struct ArithIter {
    pub left: ExprRef,
    pub op: ArithOp,
    pub right: ExprRef,
}

fn arith(a: &Item, op: ArithOp, b: &Item) -> Result<Item> {
    match op {
        ArithOp::Add => item_add(a, b),
        ArithOp::Sub => item_sub(a, b),
        ArithOp::Mul => item_mul(a, b),
        ArithOp::Div => item_div(a, b),
        ArithOp::IDiv => item_idiv(a, b),
        ArithOp::Mod => item_mod(a, b),
    }
}

impl ExprIterator for ArithIter {
    fn open(&self, ctx: &DynamicContext) -> Result<ItemCursor> {
        let (Some(a), Some(b)) =
            (eval_opt(&self.left, ctx, "arithmetic")?, eval_opt(&self.right, ctx, "arithmetic")?)
        else {
            return Ok(cursor_empty());
        };
        Ok(cursor_one(arith(&a, self.op, &b)?))
    }

    fn compile_row(&self, scope: &mut RowScope) -> Option<RowFn> {
        let left = Operand::compile_lazy(&self.left, scope)?;
        let right = Operand::compile_lazy(&self.right, scope)?;
        let op = self.op;
        Some(RowFn::new(Raises::Early, move |env| {
            left.with(env, |l| {
                let a = opt_item(l, "arithmetic")?;
                right.with(env, |r| match (a, opt_item(r, "arithmetic")?) {
                    (Some(a), Some(b)) => Ok(Seq::One(arith(a, op, b)?)),
                    _ => Ok(Seq::EMPTY),
                })
            })
        }))
    }
}

pub struct UnaryMinusIter(pub ExprRef);

impl ExprIterator for UnaryMinusIter {
    fn open(&self, ctx: &DynamicContext) -> Result<ItemCursor> {
        match eval_opt(&self.0, ctx, "unary minus")? {
            None => Ok(cursor_empty()),
            Some(v) => Ok(cursor_one(item_neg(&v)?)),
        }
    }
}

pub struct StringConcatIter(pub ExprRef, pub ExprRef);

impl ExprIterator for StringConcatIter {
    fn open(&self, ctx: &DynamicContext) -> Result<ItemCursor> {
        let mut out = String::new();
        for side in [&self.0, &self.1] {
            if let Some(item) = eval_opt(side, ctx, "||")? {
                out.push_str(&item.string_value()?);
            }
        }
        Ok(cursor_one(Item::str(out)))
    }
}

pub struct RangeIter(pub ExprRef, pub ExprRef);

impl ExprIterator for RangeIter {
    fn open(&self, ctx: &DynamicContext) -> Result<ItemCursor> {
        let (Some(from), Some(to)) =
            (eval_opt(&self.0, ctx, "range")?, eval_opt(&self.1, ctx, "range")?)
        else {
            return Ok(cursor_empty());
        };
        let (Some(from), Some(to)) = (from.as_i64(), to.as_i64()) else {
            return Err(RumbleError::type_err("range bounds must be integers"));
        };
        if from > to {
            return Ok(cursor_empty());
        }
        Ok(Box::new((from..=to).map(|v| Ok(Item::Integer(v)))))
    }
}

// ---------------------------------------------------------------------------
// Quantified expressions
// ---------------------------------------------------------------------------

pub struct QuantifiedIter {
    pub every: bool,
    pub bindings: Vec<(Arc<str>, ExprRef)>,
    pub satisfies: ExprRef,
}

impl QuantifiedIter {
    fn solve(&self, depth: usize, ctx: &DynamicContext) -> Result<bool> {
        if depth == self.bindings.len() {
            return eval_ebv(&self.satisfies, ctx);
        }
        let (name, expr) = &self.bindings[depth];
        let mut cursor = expr.open(ctx)?;
        while let Some(item) = cursor.next().transpose()? {
            let child = ctx.bind(Arc::clone(name), seq(vec![item]));
            let inner = self.solve(depth + 1, &child)?;
            if inner != self.every {
                // `some` short-circuits on true, `every` on false.
                return Ok(!self.every);
            }
        }
        Ok(self.every)
    }
}

impl ExprIterator for QuantifiedIter {
    fn open(&self, ctx: &DynamicContext) -> Result<ItemCursor> {
        Ok(cursor_one(Item::Boolean(self.solve(0, ctx)?)))
    }
}

// ---------------------------------------------------------------------------
// Constructors
// ---------------------------------------------------------------------------

pub enum KeySpec {
    Static(Arc<str>),
    Computed(ExprRef),
}

pub struct ObjectConstructorIter {
    pub pairs: Vec<(KeySpec, ExprRef)>,
}

impl ExprIterator for ObjectConstructorIter {
    fn open(&self, ctx: &DynamicContext) -> Result<ItemCursor> {
        let mut members = Vec::with_capacity(self.pairs.len());
        for (key, value) in &self.pairs {
            let k: Arc<str> = match key {
                KeySpec::Static(s) => Arc::clone(s),
                KeySpec::Computed(e) => {
                    let item = eval_one(e, ctx, "object key")?;
                    Arc::from(item.string_value()?.as_str())
                }
            };
            let v = field_value(&k, Seq::Owned(value.materialize(ctx)?))?;
            members.push((k, v));
        }
        Ok(cursor_one(Item::object(members)))
    }

    fn compile_row(&self, scope: &mut RowScope) -> Option<RowFn> {
        let pairs: Vec<(Arc<str>, RowFn)> = self
            .pairs
            .iter()
            .map(|(key, value)| match key {
                KeySpec::Static(k) => Some((Arc::clone(k), value.compile_row(scope)?)),
                KeySpec::Computed(_) => None,
            })
            .collect::<Option<_>>()?;
        Some(RowFn::new(Raises::Early, move |env| {
            let mut members = Vec::with_capacity(pairs.len());
            for (k, value) in &pairs {
                members.push((Arc::clone(k), field_value(k, value.eval(env)?)?));
            }
            Ok(Seq::One(Item::object(members)))
        }))
    }
}

/// The value of an object field: JSONiq gives a pair whose value is the
/// empty sequence `null`, and rejects one of several items.
fn field_value(key: &str, items: Seq) -> Result<Item> {
    match items.len() {
        0 => Ok(Item::Null),
        1 => Ok(items.into_one().expect("len checked")),
        n => Err(RumbleError::type_err(format!(
            "value of field \"{key}\" is a sequence of {n} items; wrap it in an array"
        ))),
    }
}

pub struct ArrayConstructorIter(pub Option<ExprRef>);

impl ExprIterator for ArrayConstructorIter {
    fn open(&self, ctx: &DynamicContext) -> Result<ItemCursor> {
        let items = match &self.0 {
            None => Vec::new(),
            Some(e) => e.materialize(ctx)?,
        };
        Ok(cursor_one(Item::array(items)))
    }

    fn compile_row(&self, scope: &mut RowScope) -> Option<RowFn> {
        let Some(e) = &self.0 else {
            return Some(RowFn::new(Raises::Never, |_| Ok(Seq::One(Item::array(Vec::new())))));
        };
        let members = e.compile_row(scope)?;
        Some(RowFn::new(members.raises().min(Raises::Early), move |env| {
            Ok(Seq::One(Item::array(members.eval(env)?.into_vec())))
        }))
    }
}

// ---------------------------------------------------------------------------
// Navigation (the flatMap family of §4.1.2 / §5.6)
// ---------------------------------------------------------------------------

/// `expr.key` — object lookup, mapped over the input sequence. Non-objects
/// and absent keys contribute nothing.
pub struct ObjectLookupIter {
    pub target: ExprRef,
    pub key: KeySpec,
}

fn lookup_in(item: &Item, key: &str) -> Option<Item> {
    member(item, key).first().cloned()
}

impl ObjectLookupIter {
    fn resolve_key(&self, ctx: &DynamicContext) -> Result<Arc<str>> {
        Ok(match &self.key {
            KeySpec::Static(s) => Arc::clone(s),
            KeySpec::Computed(e) => {
                let item = eval_one(e, ctx, "lookup key")?;
                Arc::from(item.string_value()?.as_str())
            }
        })
    }
}

impl ExprIterator for ObjectLookupIter {
    fn open(&self, ctx: &DynamicContext) -> Result<ItemCursor> {
        let key = self.resolve_key(ctx)?;
        let outer = self.target.open(ctx)?;
        Ok(FlatMapCursor::new(outer, move |item, _| {
            Ok(match lookup_in(&item, &key) {
                Some(v) => cursor_one(v),
                None => cursor_empty(),
            })
        }))
    }

    fn materialize(&self, ctx: &DynamicContext) -> Result<Vec<Item>> {
        if self.is_rdd(ctx) {
            return super::collect_rdd_capped(self.rdd(ctx)?, ctx);
        }
        // Hot path inside per-row UDFs: no boxed cursor chain.
        let key = self.resolve_key(ctx)?;
        let input = self.target.materialize(ctx)?;
        Ok(input.iter().filter_map(|i| lookup_in(i, &key)).collect())
    }

    fn is_rdd(&self, ctx: &DynamicContext) -> bool {
        self.target.is_rdd(ctx)
    }

    fn rdd(&self, ctx: &DynamicContext) -> Result<Rdd<Item>> {
        let key = self.resolve_key(ctx)?;
        // The lookup ships to the cluster as a flatMap closure (§5.6).
        Ok(self.target.rdd(ctx)?.flat_map(move |item| lookup_in(&item, &key)))
    }

    fn compile_row(&self, scope: &mut RowScope) -> Option<RowFn> {
        let KeySpec::Static(key) = &self.key else { return None };
        Some(RowFn::key(self.target.compile_row(scope)?, Arc::clone(key)))
    }
}

/// `expr[]` — array unboxing.
pub struct ArrayUnboxIter(pub ExprRef);

fn unbox(item: Item) -> Vec<Item> {
    match item {
        Item::Array(a) => a.to_vec(),
        _ => Vec::new(),
    }
}

impl ExprIterator for ArrayUnboxIter {
    fn open(&self, ctx: &DynamicContext) -> Result<ItemCursor> {
        let outer = self.0.open(ctx)?;
        Ok(FlatMapCursor::new(outer, |item, _| Ok(cursor_of(unbox(item)))))
    }

    fn materialize(&self, ctx: &DynamicContext) -> Result<Vec<Item>> {
        if self.is_rdd(ctx) {
            return super::collect_rdd_capped(self.rdd(ctx)?, ctx);
        }
        Ok(self.0.materialize(ctx)?.into_iter().flat_map(unbox).collect())
    }

    fn is_rdd(&self, ctx: &DynamicContext) -> bool {
        self.0.is_rdd(ctx)
    }

    fn rdd(&self, ctx: &DynamicContext) -> Result<Rdd<Item>> {
        Ok(self.0.rdd(ctx)?.flat_map(unbox))
    }

    fn compile_row(&self, scope: &mut RowScope) -> Option<RowFn> {
        Some(RowFn::unbox(self.0.compile_row(scope)?))
    }
}

/// `expr[[i]]` — array member lookup (1-based).
pub struct ArrayLookupIter {
    pub target: ExprRef,
    pub index: ExprRef,
}

/// The 1-based index of an array lookup.
fn lookup_index(index: &Item) -> Result<i64> {
    index.as_i64().ok_or_else(|| RumbleError::type_err("array lookup index must be an integer"))
}

impl ExprIterator for ArrayLookupIter {
    fn open(&self, ctx: &DynamicContext) -> Result<ItemCursor> {
        let idx = lookup_index(&eval_one(&self.index, ctx, "array lookup")?)?;
        let outer = self.target.open(ctx)?;
        Ok(FlatMapCursor::new(outer, move |item, _| {
            Ok(cursor_of(array_member(&item, idx).to_vec()))
        }))
    }

    fn is_rdd(&self, ctx: &DynamicContext) -> bool {
        self.target.is_rdd(ctx)
    }

    fn rdd(&self, ctx: &DynamicContext) -> Result<Rdd<Item>> {
        let idx = lookup_index(&eval_one(&self.index, ctx, "array lookup")?)?;
        Ok(self.target.rdd(ctx)?.flat_map(move |item| array_member(&item, idx).to_vec()))
    }

    fn compile_row(&self, scope: &mut RowScope) -> Option<RowFn> {
        let index = Operand::compile_lazy(&self.index, scope)?;
        let target = self.target.compile_row(scope)?;
        if let Operand::Const(i) = &index {
            if let Some(idx) = i.as_i64() {
                return Some(RowFn::member(target, idx));
            }
        }
        Some(RowFn::new(Raises::Early.max(target.raises()), move |env| {
            let idx = index.with(env, |i| lookup_index(one_item(i, "array lookup")?))?;
            Ok(flat_map_seq(target.eval(env)?, |item| array_member(item, idx)))
        }))
    }
}

/// `expr[predicate]` — filtering (boolean result, `$$` bound to the
/// candidate) or positional selection (numeric result).
pub struct PredicateIter {
    pub target: ExprRef,
    pub predicate: ExprRef,
}

/// Evaluates a predicate for one item: `Ok(true)` keeps it. A numeric
/// predicate value selects by position.
fn predicate_keeps(
    predicate: &ExprRef,
    ctx: &DynamicContext,
    item: &Item,
    pos: i64,
    allow_positional: bool,
) -> Result<bool> {
    let child = ctx.with_context_item(item.clone(), pos);
    keeps(&predicate.materialize(&child)?, pos, allow_positional)
}

/// Whether a predicate whose value is `values` keeps the item at `pos`.
fn keeps(values: &[Item], pos: i64, allow_positional: bool) -> Result<bool> {
    if let [one] = values {
        if one.is_numeric() {
            if !allow_positional {
                return Err(RumbleError::dynamic(
                    codes::UNSUPPORTED,
                    "positional predicates are not supported on distributed sequences; \
                     materialize first",
                ));
            }
            return Ok(one.as_f64() == Some(pos as f64));
        }
    }
    effective_boolean_value(values)
}

impl ExprIterator for PredicateIter {
    fn open(&self, ctx: &DynamicContext) -> Result<ItemCursor> {
        let predicate = Arc::clone(&self.predicate);
        let ctx = ctx.clone();
        let outer = self.target.open(&ctx)?;
        Ok(FlatMapCursor::new(outer, move |item, pos| {
            Ok(if predicate_keeps(&predicate, &ctx, &item, pos, true)? {
                cursor_one(item)
            } else {
                cursor_empty()
            })
        }))
    }

    fn is_rdd(&self, ctx: &DynamicContext) -> bool {
        self.target.is_rdd(ctx)
    }

    fn rdd(&self, ctx: &DynamicContext) -> Result<Rdd<Item>> {
        // The predicate iterator travels in the closure and is evaluated
        // through its local API inside the executors (§5.6).
        let predicate = Arc::clone(&self.predicate);
        let exec_ctx = ctx.enter_executor();
        Ok(self.target.rdd(ctx)?.filter(move |item| {
            match predicate_keeps(&predicate, &exec_ctx, item, 1, false) {
                Ok(keep) => keep,
                Err(e) => task_bail(e),
            }
        }))
    }

    fn compile_row(&self, scope: &mut RowScope) -> Option<RowFn> {
        // The predicate runs per item as the target streams: one that can
        // raise (anything but a constant, whose value is one atomic) must
        // not interleave with a target that raises mid-stream.
        let predicate = Operand::compile(&self.predicate, scope)?;
        let target = self.target.compile_row(scope)?;
        let raises = match predicate {
            Operand::Const(_) => target.raises(),
            Operand::Code(_) if target.raises() == Raises::Late => return None,
            Operand::Code(_) => Raises::Late,
        };
        Some(RowFn::new(raises, move |env| {
            filter_seq(target.eval(env)?, |item, pos| {
                let env = Env { row: env.row, consts: env.consts, dot: Some((item, pos)) };
                predicate.with(&env, |values| keeps(values, pos, true))
            })
        }))
    }
}

/// `left ! right` — evaluates `right` once per item of `left`, with `$$`
/// bound (context positions are only meaningful on the local path).
pub struct SimpleMapIter {
    pub left: ExprRef,
    pub right: ExprRef,
}

impl ExprIterator for SimpleMapIter {
    fn open(&self, ctx: &DynamicContext) -> Result<ItemCursor> {
        let right = Arc::clone(&self.right);
        let ctx = ctx.clone();
        let outer = self.left.open(&ctx)?;
        Ok(FlatMapCursor::new(outer, move |item, pos| {
            let child = ctx.with_context_item(item, pos);
            Ok(cursor_of(right.materialize(&child)?))
        }))
    }

    fn is_rdd(&self, ctx: &DynamicContext) -> bool {
        self.left.is_rdd(ctx)
    }

    fn rdd(&self, ctx: &DynamicContext) -> Result<Rdd<Item>> {
        let right = Arc::clone(&self.right);
        let exec_ctx = ctx.enter_executor();
        Ok(self.left.rdd(ctx)?.flat_map(move |item| {
            let child = exec_ctx.with_context_item(item, 1);
            match right.materialize(&child) {
                Ok(items) => items,
                Err(e) => task_bail(e),
            }
        }))
    }
}

// ---------------------------------------------------------------------------
// Types
// ---------------------------------------------------------------------------

pub struct InstanceOfIter(pub ExprRef, pub SequenceType);

impl ExprIterator for InstanceOfIter {
    fn open(&self, ctx: &DynamicContext) -> Result<ItemCursor> {
        let items = self.0.materialize(ctx)?;
        Ok(cursor_one(Item::Boolean(seq_matches(&items, &self.1))))
    }

    fn compile_row(&self, scope: &mut RowScope) -> Option<RowFn> {
        let (child, st) = (self.0.compile_row(scope)?, self.1.clone());
        Some(RowFn::test(child.raises().min(Raises::Early), move |env| {
            child.with(env, |items| Ok(Some(seq_matches(items, &st))))
        }))
    }
}

pub struct TreatAsIter(pub ExprRef, pub SequenceType);

impl ExprIterator for TreatAsIter {
    fn open(&self, ctx: &DynamicContext) -> Result<ItemCursor> {
        let items = self.0.materialize(ctx)?;
        if seq_matches(&items, &self.1) {
            Ok(cursor_of(items))
        } else {
            Err(RumbleError::dynamic(
                codes::TREAT,
                format!("value does not match treat-as type {}", type_to_string(&self.1)),
            ))
        }
    }
}

pub struct CastAsIter {
    pub child: ExprRef,
    pub target: AtomicType,
    pub optional: bool,
}

/// `cast as` of at most one item; `None` is the empty sequence.
fn cast_opt(item: Option<&Item>, target: AtomicType, optional: bool) -> Result<Option<Item>> {
    match item {
        None if optional => Ok(None),
        None => Err(RumbleError::type_err(format!(
            "cannot cast the empty sequence to {} (did you mean {}?)",
            target.name(),
            format_args!("{}?", target.name())
        ))),
        Some(item) => cast_item(item, target).map(Some),
    }
}

impl ExprIterator for CastAsIter {
    fn open(&self, ctx: &DynamicContext) -> Result<ItemCursor> {
        let item = eval_opt(&self.child, ctx, "cast")?;
        Ok(match cast_opt(item.as_ref(), self.target, self.optional)? {
            Some(cast) => cursor_one(cast),
            None => cursor_empty(),
        })
    }

    fn compile_row(&self, scope: &mut RowScope) -> Option<RowFn> {
        let child = Operand::compile_lazy(&self.child, scope)?;
        let (target, optional) = (self.target, self.optional);
        Some(RowFn::new(Raises::Early, move |env| {
            child.with(env, |items| match cast_opt(opt_item(items, "cast")?, target, optional)? {
                Some(cast) => Ok(Seq::One(cast)),
                None => Ok(Seq::EMPTY),
            })
        }))
    }
}

pub struct CastableAsIter {
    pub child: ExprRef,
    pub target: AtomicType,
    pub optional: bool,
}

impl ExprIterator for CastableAsIter {
    fn open(&self, ctx: &DynamicContext) -> Result<ItemCursor> {
        let r = match eval_opt(&self.child, ctx, "castable") {
            Err(_) => false, // more than one item: not castable
            Ok(None) => self.optional,
            Ok(Some(item)) => cast_item(&item, self.target).is_ok(),
        };
        Ok(cursor_one(Item::Boolean(r)))
    }
}

// ---------------------------------------------------------------------------
// Input functions (§5.7): the RDD sources
// ---------------------------------------------------------------------------

/// `json-file(path[, partitions])`: a JSON Lines file on the storage layer
/// as a (distributed) sequence of items.
pub struct JsonFileIter {
    pub path: ExprRef,
    /// Accepted for API compatibility; partitioning follows storage blocks.
    pub partitions: Option<ExprRef>,
    /// The top-level fields each object is built with, when the query
    /// reads no others (projection pushdown); `None` builds every field.
    pub fields: Option<Fields>,
}

impl JsonFileIter {
    /// The scan of the file at `path`, building every field.
    fn whole(path: String) -> JsonFileIter {
        JsonFileIter {
            path: Arc::new(LiteralIter(Item::str(path))),
            partitions: None,
            fields: None,
        }
    }

    fn resolve_path(&self, ctx: &DynamicContext) -> Result<String> {
        let item = eval_one(&self.path, ctx, "json-file path")?;
        item.as_str()
            .map(str::to_string)
            .ok_or_else(|| RumbleError::type_err("json-file expects a string path"))
    }

    fn lines_rdd(&self, ctx: &DynamicContext) -> Result<Rdd<Item>> {
        let path = self.resolve_path(ctx)?;
        let fields = self.fields.clone();
        // Streamed straight from the storage block into items by the
        // event-driven parser (§5.7): no line copy and no intermediate JSON
        // tree. One builder per partition, so the partition's items share
        // its string table and no other's. A blank line holds no record, as
        // in the local scan's `parse_lines`.
        Ok(ctx.engine().sc.text_file_with(&path, move || {
            let mut builder = ItemBuilder::projecting(fields.clone());
            move |line: &str| {
                if line.trim().is_empty() {
                    return None;
                }
                Some(builder.parse(line).unwrap_or_else(|e| task_bail(e)))
            }
        })?)
    }
}

impl ExprIterator for JsonFileIter {
    fn open(&self, ctx: &DynamicContext) -> Result<ItemCursor> {
        if self.is_rdd(ctx) {
            return Ok(cursor_of(self.materialize(ctx)?));
        }
        // Inside an executor: sequential read through the storage layer.
        let path = self.resolve_path(ctx)?;
        let (scheme, key) = sparklite::storage::resolve_scheme(&path);
        let text = match scheme {
            sparklite::storage::PathScheme::SimHdfs => {
                ctx.engine().sc.hdfs().read_to_string(key)?
            }
            sparklite::storage::PathScheme::LocalFs => std::fs::read_to_string(key)
                .map_err(|e| RumbleError::dynamic(codes::BAD_INPUT, format!("{key}: {e}")))?,
        };
        Ok(cursor_of(ItemBuilder::projecting(self.fields.clone()).parse_lines(&text)?))
    }

    fn is_rdd(&self, ctx: &DynamicContext) -> bool {
        !ctx.in_executor()
    }

    fn rdd(&self, ctx: &DynamicContext) -> Result<Rdd<Item>> {
        let _ = &self.partitions; // partition hint: storage blocks decide
        self.lines_rdd(ctx)
    }
}

/// `parallelize(expr[, partitions])`: lifts a local sequence onto the
/// cluster, triggering Spark-enabled behaviour downstream.
pub struct ParallelizeIter {
    pub child: ExprRef,
    pub partitions: Option<ExprRef>,
}

impl ExprIterator for ParallelizeIter {
    fn open(&self, ctx: &DynamicContext) -> Result<ItemCursor> {
        self.child.open(ctx)
    }

    fn is_rdd(&self, ctx: &DynamicContext) -> bool {
        !ctx.in_executor()
    }

    fn rdd(&self, ctx: &DynamicContext) -> Result<Rdd<Item>> {
        let items = self.child.materialize(ctx)?;
        let parts = match &self.partitions {
            None => ctx.engine().sc.conf().default_parallelism,
            Some(p) => {
                let v = eval_one(p, ctx, "parallelize partitions")?;
                v.as_i64().filter(|n| *n > 0).ok_or_else(|| {
                    RumbleError::type_err("partition count must be a positive integer")
                })? as usize
            }
        };
        Ok(ctx.engine().sc.parallelize(items, parts))
    }
}

/// `collection(name)`: a named collection registered on the engine.
pub struct CollectionIter {
    pub name: ExprRef,
}

impl CollectionIter {
    fn source(&self, ctx: &DynamicContext) -> Result<CollectionSource> {
        let name = eval_one(&self.name, ctx, "collection name")?;
        let name = name
            .as_str()
            .ok_or_else(|| RumbleError::type_err("collection expects a string name"))?;
        ctx.engine().collections.read().get(name).cloned().ok_or_else(|| {
            RumbleError::dynamic(codes::BAD_INPUT, format!("unknown collection \"{name}\""))
        })
    }
}

impl ExprIterator for CollectionIter {
    fn open(&self, ctx: &DynamicContext) -> Result<ItemCursor> {
        match self.source(ctx)? {
            CollectionSource::Items(items) => Ok(cursor_of(items.to_vec())),
            CollectionSource::Path(path) => {
                let inner = JsonFileIter::whole(path);
                if self.is_rdd(ctx) {
                    Ok(cursor_of(ExprIterator::materialize(&inner, ctx)?))
                } else {
                    inner.open(ctx)
                }
            }
        }
    }

    fn is_rdd(&self, ctx: &DynamicContext) -> bool {
        !ctx.in_executor()
    }

    fn rdd(&self, ctx: &DynamicContext) -> Result<Rdd<Item>> {
        match self.source(ctx)? {
            CollectionSource::Items(items) => {
                let parts = ctx.engine().sc.conf().default_parallelism;
                Ok(ctx.engine().sc.parallelize(items.to_vec(), parts))
            }
            CollectionSource::Path(path) => JsonFileIter::whole(path).rdd(ctx),
        }
    }
}

/// Auto-persist wrapper for RDD-backed sources (§5.6): the compiler wraps
/// literal-path `json-file`/`collection` calls in one of these, and the
/// first distributed evaluation persists the source RDD in sparklite's
/// partition cache. The persisted handle lands in the engine-wide
/// [`EngineCtx::persisted_sources`](crate::runtime::EngineCtx) map, so
/// every later run — of this query or any other compile naming the same
/// source — skips the JSON parse and serves cached partitions. That is
/// the automatic reuse that makes warm runs fast.
///
/// Sharing by source identity is sound only because the wrapped path is a
/// literal: a binding-dependent path could resolve differently per
/// evaluation, so the compiler never wraps those.
pub struct PersistIter {
    /// The source, building full items: what the cache holds.
    pub inner: ExprRef,
    /// Engine-wide identity of the source, e.g. `json-file:hdfs:///x.json`.
    pub key: String,
    /// The same source building only the fields the query reads, which
    /// runs instead of `inner` whenever nothing is persisted.
    pub unpersisted: Option<ExprRef>,
}

impl PersistIter {
    fn unpersisted(&self) -> &ExprRef {
        self.unpersisted.as_ref().unwrap_or(&self.inner)
    }
}

impl ExprIterator for PersistIter {
    fn open(&self, ctx: &DynamicContext) -> Result<ItemCursor> {
        if self.is_rdd(ctx) {
            return Ok(cursor_of(crate::runtime::collect_rdd_capped(self.rdd(ctx)?, ctx)?));
        }
        self.unpersisted().open(ctx)
    }

    fn is_rdd(&self, ctx: &DynamicContext) -> bool {
        self.inner.is_rdd(ctx)
    }

    fn rdd(&self, ctx: &DynamicContext) -> Result<Rdd<Item>> {
        let engine = ctx.engine();
        let Some(level) = *engine.auto_persist.read() else {
            return self.unpersisted().rdd(ctx);
        };
        let map_key = (self.key.clone(), level);
        if let Some(rdd) = engine.persisted_sources.read().get(&map_key) {
            return Ok(rdd.clone());
        }
        let base = self.inner.rdd(ctx)?;
        let persisted = match level {
            sparklite::StorageLevel::MemoryDeserialized => base.persist(level),
            sparklite::StorageLevel::MemorySerialized => {
                base.persist_with_codec(level, Arc::new(crate::item::ItemCacheCodec))
            }
        };
        // Under a racing first evaluation the earlier insert wins; the
        // loser's handle drops and frees its (disjoint) cache slots.
        Ok(engine
            .persisted_sources
            .write()
            .entry(map_key)
            .or_insert_with(|| persisted.clone())
            .clone())
    }
}

/// Materializes and asserts a single item — used by tests and call sites
/// needing strict cardinality.
pub fn materialize_one(e: &ExprRef, ctx: &DynamicContext, what: &str) -> Result<Item> {
    let items = e.materialize(ctx)?;
    exactly_one(&items, what)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::EngineCtx;
    use sparklite::{SparkliteConf, SparkliteContext};

    fn ctx() -> DynamicContext {
        DynamicContext::root(EngineCtx::new(SparkliteContext::new(
            SparkliteConf::default().with_executors(2),
        )))
    }

    fn lit(i: Item) -> ExprRef {
        Arc::new(LiteralIter(i))
    }

    fn items(e: &ExprRef, ctx: &DynamicContext) -> Vec<Item> {
        e.materialize(ctx).unwrap()
    }

    #[test]
    fn comma_and_range() {
        let c = ctx();
        let e: ExprRef = Arc::new(CommaIter(vec![
            lit(Item::Integer(1)),
            Arc::new(EmptySeqIter),
            lit(Item::Integer(2)),
        ]));
        assert_eq!(items(&e, &c), vec![Item::Integer(1), Item::Integer(2)]);

        let r: ExprRef = Arc::new(RangeIter(lit(Item::Integer(2)), lit(Item::Integer(5))));
        assert_eq!(items(&r, &c).len(), 4);
        let r: ExprRef = Arc::new(RangeIter(lit(Item::Integer(5)), lit(Item::Integer(2))));
        assert!(items(&r, &c).is_empty());
    }

    #[test]
    fn predicates_filter_and_select_positionally() {
        let c = ctx();
        let data: ExprRef = Arc::new(CommaIter((1..=5).map(|i| lit(Item::Integer(i))).collect()));
        // [$$ ge 3]
        let pred: ExprRef = Arc::new(CompareIter {
            left: Arc::new(ContextItemIter),
            op: CompOp::ValueGe,
            right: lit(Item::Integer(3)),
        });
        let filtered: ExprRef =
            Arc::new(PredicateIter { target: Arc::clone(&data), predicate: pred });
        assert_eq!(items(&filtered, &c).len(), 3);

        // [2] — positional
        let positional: ExprRef =
            Arc::new(PredicateIter { target: data, predicate: lit(Item::Integer(2)) });
        assert_eq!(items(&positional, &c), vec![Item::Integer(2)]);
    }

    #[test]
    fn navigation_over_rdd_and_locally_agree() {
        let c = ctx();
        let rows: Vec<Item> = (0..100)
            .map(|i| {
                Item::object_from(vec![
                    ("n", Item::Integer(i)),
                    ("tags", Item::array(vec![Item::str(format!("t{}", i % 3))])),
                ])
            })
            .collect();
        let local: ExprRef = Arc::new(CommaIter(rows.iter().cloned().map(lit).collect()));
        let distributed: ExprRef = Arc::new(ParallelizeIter {
            child: Arc::new(CommaIter(rows.iter().cloned().map(lit).collect())),
            partitions: None,
        });
        assert!(distributed.is_rdd(&c));
        assert!(!local.is_rdd(&c));

        for target in [local, distributed] {
            let looked: ExprRef = Arc::new(ObjectLookupIter {
                target: Arc::new(ArrayUnboxIter(Arc::new(ObjectLookupIter {
                    target: Arc::clone(&target),
                    key: KeySpec::Static(Arc::from("tags")),
                }))),
                key: KeySpec::Static(Arc::from("missing")),
            });
            assert!(items(&looked, &c).is_empty());

            let ns: ExprRef =
                Arc::new(ObjectLookupIter { target, key: KeySpec::Static(Arc::from("n")) });
            let got = items(&ns, &c);
            assert_eq!(got.len(), 100);
            assert_eq!(got[7], Item::Integer(7));
        }
    }

    #[test]
    fn rdd_predicate_with_closure() {
        let c = ctx();
        let rows: Vec<Item> =
            (0..50).map(|i| Item::object_from(vec![("v", Item::Integer(i))])).collect();
        let source: ExprRef = Arc::new(ParallelizeIter {
            child: Arc::new(CommaIter(rows.into_iter().map(lit).collect())),
            partitions: None,
        });
        // source[$$.v ge 40]
        let pred: ExprRef = Arc::new(CompareIter {
            left: Arc::new(ObjectLookupIter {
                target: Arc::new(ContextItemIter),
                key: KeySpec::Static(Arc::from("v")),
            }),
            op: CompOp::ValueGe,
            right: lit(Item::Integer(40)),
        });
        let filtered: ExprRef = Arc::new(PredicateIter { target: source, predicate: pred });
        assert!(filtered.is_rdd(&c));
        let got = filtered.rdd(&c).unwrap().collect().unwrap();
        assert_eq!(got.len(), 10);
    }

    #[test]
    fn try_catch_catches_matching_codes() {
        let c = ctx();
        let failing: ExprRef = Arc::new(ArithIter {
            left: lit(Item::Integer(1)),
            op: ArithOp::Div,
            right: lit(Item::Integer(0)),
        });
        let caught: ExprRef = Arc::new(TryCatchIter {
            body: Arc::clone(&failing),
            codes: vec![],
            handler: lit(Item::str("rescued")),
        });
        assert_eq!(items(&caught, &c), vec![Item::str("rescued")]);

        let wrong_code: ExprRef = Arc::new(TryCatchIter {
            body: failing,
            codes: vec!["XPTY0004".to_string()],
            handler: lit(Item::str("nope")),
        });
        assert!(wrong_code.materialize(&c).is_err());
    }

    #[test]
    fn object_constructor_cardinality() {
        let c = ctx();
        // Empty value → null member.
        let o: ExprRef = Arc::new(ObjectConstructorIter {
            pairs: vec![(KeySpec::Static(Arc::from("a")), Arc::new(EmptySeqIter) as ExprRef)],
        });
        let built = items(&o, &c);
        assert_eq!(built[0].as_object().unwrap().get("a"), Some(&Item::Null));

        // Two-item value → error.
        let bad: ExprRef = Arc::new(ObjectConstructorIter {
            pairs: vec![(
                KeySpec::Static(Arc::from("a")),
                Arc::new(CommaIter(vec![lit(Item::Integer(1)), lit(Item::Integer(2))])) as ExprRef,
            )],
        });
        assert!(bad.materialize(&c).is_err());
    }

    #[test]
    fn quantified_short_circuits() {
        let c = ctx();
        let source: ExprRef = Arc::new(CommaIter((1..=4).map(|i| lit(Item::Integer(i))).collect()));
        let var: Arc<str> = Arc::from("x");
        let gt3: ExprRef = Arc::new(CompareIter {
            left: Arc::new(VarRefIter(Arc::clone(&var))),
            op: CompOp::ValueGt,
            right: lit(Item::Integer(3)),
        });
        let some: ExprRef = Arc::new(QuantifiedIter {
            every: false,
            bindings: vec![(Arc::clone(&var), Arc::clone(&source))],
            satisfies: Arc::clone(&gt3),
        });
        assert_eq!(items(&some, &c), vec![Item::Boolean(true)]);
        let every: ExprRef =
            Arc::new(QuantifiedIter { every: true, bindings: vec![(var, source)], satisfies: gt3 });
        assert_eq!(items(&every, &c), vec![Item::Boolean(false)]);
    }
}
