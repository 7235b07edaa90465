//! Per-row compilation: a JSONiq expression evaluated once per tuple-frame
//! row (a `let`, a `where`, a key, a `return`) compiled to a closure over
//! slot-resolved variables, instead of interpreted through the iterator
//! tree (§5.5's per-context `open`).
//!
//! [`ExprIterator::compile_row`] builds the closure bottom-up. Each FLWOR
//! variable the expression reads becomes a slot index into a borrowed row
//! environment (`Env`), and each variable bound on the driver — a prolog
//! global, an outer local `let` — becomes a constant slot filled once, at
//! compile time. Node results are `Seq`s, which borrow from the slots
//! where they can: static navigation over a variable, a comparison of two
//! such paths, or `instance of` on one allocates nothing per row.
//!
//! The compiled form yields what [`ExprIterator::materialize`] yields, item
//! for item and error code for error code. The iterator tree is partly
//! lazy — a cursor may raise after it has yielded items, and a lazy
//! consumer stops pulling early — while a closure evaluates its operands in
//! full, so each compiled node records when it can raise (`Raises`) and a
//! consumer that reads only a prefix compiles only over an operand that
//! cannot raise after its first item. The lazy consumers are the effective
//! boolean value, `exists` and `empty`, the single-item operands of `cast`,
//! arithmetic and `[[…]]`, and the members of a comma but its last (the
//! comma opens every member before it reads the first). Any node without a
//! compiled form returns `None`, and the whole expression keeps the
//! context-binding path.
//!
//! [`ExprIterator::compile_row`]: super::ExprIterator::compile_row
//! [`ExprIterator::materialize`]: super::ExprIterator::materialize

use super::profile::NodeStats;
use super::{DynamicContext, ExprRef};
use crate::error::{codes, Result, RumbleError};
use crate::item::{effective_boolean_value, Item, Sequence};
use std::ops::Deref;
use std::sync::Arc;

/// The variables one evaluation reads: the items of each row variable, the
/// constants of the compilation, and the context item `$$` with its
/// position, when bound.
#[derive(Clone, Copy)]
pub(crate) struct Env<'e> {
    pub(crate) row: &'e [&'e [Item]],
    pub(crate) consts: &'e [Sequence],
    pub(crate) dot: Option<(&'e Item, i64)>,
}

impl<'e> Env<'e> {
    pub(crate) fn slot(&self, slot: Slot) -> &'e [Item] {
        match slot {
            Slot::Row(i) => self.row[i],
            Slot::Const(i) => &self.consts[i],
        }
    }
}

/// Where a compiled variable reference reads: a row variable, or a
/// constant captured at compile time.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Slot {
    Row(usize),
    Const(usize),
}

/// A compiled node's result sequence: borrowed from the environment when
/// it is a slot or a part of one, owned when computed.
#[derive(Debug)]
pub(crate) enum Seq<'e> {
    Borrowed(&'e [Item]),
    One(Item),
    Owned(Vec<Item>),
}

impl<'e> Seq<'e> {
    pub(crate) const EMPTY: Seq<'static> = Seq::Borrowed(&[]);

    pub(crate) fn into_vec(self) -> Vec<Item> {
        match self {
            Seq::Borrowed(s) => s.to_vec(),
            Seq::One(i) => vec![i],
            Seq::Owned(v) => v,
        }
    }

    /// This sequence, owning its items; one item stays off the heap.
    pub(crate) fn into_owned(self) -> Seq<'static> {
        match self {
            Seq::Borrowed([]) => Seq::EMPTY,
            Seq::Borrowed([item]) => Seq::One(item.clone()),
            Seq::Borrowed(s) => Seq::Owned(s.to_vec()),
            Seq::One(item) => Seq::One(item),
            Seq::Owned(v) => Seq::Owned(v),
        }
    }

    /// The single item of a sequence of length one.
    pub(crate) fn into_one(self) -> Option<Item> {
        match self {
            Seq::One(i) => Some(i),
            Seq::Borrowed([i]) => Some(i.clone()),
            Seq::Owned(mut v) if v.len() == 1 => v.pop(),
            _ => None,
        }
    }

    /// Appends `items`, borrowing them if this sequence is still empty.
    fn extend_ref(&mut self, items: &'e [Item]) {
        if items.is_empty() {
        } else if self.is_empty() {
            *self = Seq::Borrowed(items);
        } else {
            for i in items {
                self.push(i.clone());
            }
        }
    }

    fn push(&mut self, item: Item) {
        *self = match std::mem::replace(self, Seq::EMPTY) {
            Seq::Borrowed([]) => Seq::One(item),
            Seq::Borrowed(s) => {
                let mut v = Vec::with_capacity(s.len() + 1);
                v.extend_from_slice(s);
                v.push(item);
                Seq::Owned(v)
            }
            Seq::One(first) => Seq::Owned(vec![first, item]),
            Seq::Owned(mut v) => {
                v.push(item);
                Seq::Owned(v)
            }
        }
    }

    /// Appends another sequence, keeping this one's borrow if `other` is
    /// empty and taking `other` whole if this one is.
    pub(crate) fn append(&mut self, other: Seq<'e>) {
        if other.is_empty() {
        } else if self.is_empty() {
            *self = other;
        } else {
            match other {
                Seq::Borrowed(s) => self.extend_ref(s),
                Seq::One(i) => self.push(i),
                Seq::Owned(v) => v.into_iter().for_each(|i| self.push(i)),
            }
        }
    }
}

impl Deref for Seq<'_> {
    type Target = [Item];

    fn deref(&self) -> &[Item] {
        match self {
            Seq::Borrowed(s) => s,
            Seq::One(i) => std::slice::from_ref(i),
            Seq::Owned(v) => v,
        }
    }
}

/// Maps every item of `seq` to the members `f` selects (`.key`, `[]`,
/// `[[i]]`), in order. Members of borrowed items stay borrowed.
#[inline(always)]
pub(crate) fn flat_map_seq<'e>(
    seq: Seq<'e>,
    f: impl for<'a> Fn(&'a Item) -> &'a [Item],
) -> Seq<'e> {
    match seq {
        Seq::Borrowed([item]) => Seq::Borrowed(f(item)),
        Seq::Borrowed(s) => {
            let mut out = Seq::EMPTY;
            for item in s {
                out.extend_ref(f(item));
            }
            out
        }
        Seq::One(item) => match f(&item) {
            [] => Seq::EMPTY,
            [one] => Seq::One(one.clone()),
            many => Seq::Owned(many.to_vec()),
        },
        Seq::Owned(v) => Seq::Owned(v.iter().flat_map(|i| f(i).iter().cloned()).collect()),
    }
}

/// The items of `seq` that `keep` accepts, given each item and its
/// 1-based position, in order. Kept items of a borrowed sequence stay
/// borrowed while they fit one slice.
pub(crate) fn filter_seq<'e>(
    seq: Seq<'e>,
    mut keep: impl FnMut(&Item, i64) -> Result<bool>,
) -> Result<Seq<'e>> {
    Ok(match seq {
        Seq::Borrowed(s) => {
            // The kept run `s[from..to]`, until a gap forces copies.
            let (mut from, mut to) = (0, 0);
            let mut copied: Option<Vec<Item>> = None;
            for (i, item) in s.iter().enumerate() {
                if !keep(item, i as i64 + 1)? {
                    continue;
                }
                match &mut copied {
                    Some(v) => v.push(item.clone()),
                    None if from == to => (from, to) = (i, i + 1),
                    None if to == i => to += 1,
                    None => {
                        let mut v = s[from..to].to_vec();
                        v.push(item.clone());
                        copied = Some(v);
                    }
                }
            }
            match copied {
                Some(v) => Seq::Owned(v),
                None => Seq::Borrowed(&s[from..to]),
            }
        }
        Seq::One(item) => {
            if keep(&item, 1)? {
                Seq::One(item)
            } else {
                Seq::EMPTY
            }
        }
        Seq::Owned(v) => {
            let mut out = Vec::new();
            for (i, item) in v.into_iter().enumerate() {
                if keep(&item, i as i64 + 1)? {
                    out.push(item);
                }
            }
            Seq::Owned(out)
        }
    })
}

/// When a compiled expression can raise, relative to the items it yields —
/// the same in the iterator tree and in the closure. Ordered: a compound
/// node raises at the latest of its parts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Raises {
    /// Never, on any row.
    Never,
    /// Only before its first item: at `open` in the iterator tree.
    Early,
    /// Possibly after it has yielded items (a lazy cursor error), so a
    /// consumer that reads only a prefix may never see the error.
    Late,
}

type SeqCode = dyn for<'e> Fn(&Env<'e>) -> Result<Seq<'e>> + Send + Sync;
type TestCode = dyn for<'e> Fn(&Env<'e>) -> Result<Option<bool>> + Send + Sync;

/// Where a navigation starts.
#[derive(Debug, Clone, Copy)]
enum Root {
    Slot(Slot),
    /// The context item `$$`.
    Dot,
}

/// One navigation step, applied to each item in turn.
#[derive(Debug, Clone)]
enum Step {
    /// `.key`
    Key(Arc<str>),
    /// `[]`
    Unbox,
    /// `[[i]]` with a constant `i`
    Member(i64),
}

impl Step {
    fn apply<'a>(&self, item: &'a Item) -> &'a [Item] {
        match self {
            Step::Key(key) => member(item, key),
            Step::Unbox => item.as_array().map_or(&[], |a| &a[..]),
            Step::Member(i) => array_member(item, *i),
        }
    }
}

/// The member `key` of an object item, as a sequence of zero or one item.
pub(crate) fn member<'a>(item: &'a Item, key: &str) -> &'a [Item] {
    item.as_object().and_then(|o| o.get(key)).map_or(&[], std::slice::from_ref)
}

/// Member `i` (1-based) of an array item, as a sequence of zero or one
/// item.
pub(crate) fn array_member(item: &Item, i: i64) -> &[Item] {
    let member = (i >= 1).then(|| item.as_array()?.get(i as usize - 1)).flatten();
    member.map_or(&[], std::slice::from_ref)
}

/// Static navigation from a variable, a constant or `$$`: data, not a
/// chain of closures, so reading it is one loop.
#[derive(Debug, Clone)]
struct Path {
    root: Root,
    steps: Arc<[Step]>,
}

impl Path {
    /// The whole result borrowed from the environment, if it is one slice
    /// of it: every step but the last sees at most one item. `None` also
    /// when `$$` is unbound, which [`Path::compute`] raises.
    fn borrow<'e>(&self, env: &Env<'e>) -> Option<&'e [Item]> {
        let mut cur = match self.root {
            Root::Slot(slot) => env.slot(slot),
            Root::Dot => std::slice::from_ref(env.dot?.0),
        };
        for step in self.steps.iter() {
            cur = match cur {
                [] => return Some(&[]),
                [item] => step.apply(item),
                _ => return None,
            };
        }
        Some(cur)
    }

    fn compute<'e>(&self, env: &Env<'e>) -> Result<Seq<'e>> {
        let mut cur = match self.root {
            Root::Slot(slot) => Seq::Borrowed(env.slot(slot)),
            Root::Dot => match env.dot {
                Some((item, _)) => Seq::Borrowed(std::slice::from_ref(item)),
                None => return Err(unbound_context_item()),
            },
        };
        for step in self.steps.iter() {
            cur = flat_map_seq(cur, |item| step.apply(item));
        }
        Ok(cur)
    }
}

pub(crate) fn unbound_context_item() -> RumbleError {
    RumbleError::dynamic(codes::UNDEFINED_VARIABLE, "context item ($$) is not bound here")
}

/// What a compiled node runs, by the shape of its result.
#[derive(Clone)]
enum Code {
    /// Computes its result sequence.
    Seq(Arc<SeqCode>),
    /// Static navigation: borrows its result where it can.
    Path(Path),
    /// A boolean, or the empty sequence (`None`): comparisons, logic and
    /// the type and existence tests. Predicates read it with no item built.
    Test(Arc<TestCode>),
}

/// A compiled row expression: closures from an `Env` to the result,
/// plus when it can raise. A parent reads an operand through `with`,
/// which borrows where the operand can, or `eval` when it keeps it.
#[derive(Clone)]
pub struct RowFn {
    code: Code,
    raises: Raises,
}

impl RowFn {
    /// A node that computes its result.
    pub(crate) fn new(
        raises: Raises,
        code: impl for<'e> Fn(&Env<'e>) -> Result<Seq<'e>> + Send + Sync + 'static,
    ) -> RowFn {
        RowFn { code: Code::Seq(Arc::new(code)), raises }
    }

    /// A test: a boolean, or the empty sequence.
    pub(crate) fn test(
        raises: Raises,
        code: impl for<'e> Fn(&Env<'e>) -> Result<Option<bool>> + Send + Sync + 'static,
    ) -> RowFn {
        RowFn { code: Code::Test(Arc::new(code)), raises }
    }

    /// A variable or a constant: its slot, borrowed.
    pub(crate) fn slot(slot: Slot) -> RowFn {
        let path = Path { root: Root::Slot(slot), steps: Arc::new([]) };
        RowFn { code: Code::Path(path), raises: Raises::Never }
    }

    /// The context item `$$`.
    pub(crate) fn context_item() -> RowFn {
        let path = Path { root: Root::Dot, steps: Arc::new([]) };
        RowFn { code: Code::Path(path), raises: Raises::Early }
    }

    /// `.key` over `target`.
    pub(crate) fn key(target: RowFn, key: Arc<str>) -> RowFn {
        target.step(Step::Key(key))
    }

    /// `[]` over `target`.
    pub(crate) fn unbox(target: RowFn) -> RowFn {
        target.step(Step::Unbox)
    }

    /// `[[i]]` over `target`, for a constant `i`.
    pub(crate) fn member(target: RowFn, i: i64) -> RowFn {
        target.step(Step::Member(i))
    }

    /// Navigation one step on: a longer path if this is one, else a
    /// closure mapping every item of the result.
    fn step(self, step: Step) -> RowFn {
        let raises = self.raises;
        match self.code {
            Code::Path(Path { root, steps }) => {
                let steps = steps.iter().cloned().chain([step]).collect();
                RowFn { code: Code::Path(Path { root, steps }), raises }
            }
            _ => RowFn::new(raises, move |env| {
                Ok(flat_map_seq(self.eval(env)?, |item| step.apply(item)))
            }),
        }
    }

    pub(crate) fn raises(&self) -> Raises {
        self.raises
    }

    pub(crate) fn eval<'e>(&self, env: &Env<'e>) -> Result<Seq<'e>> {
        match &self.code {
            Code::Seq(code) => code(env),
            Code::Path(path) => match path.borrow(env) {
                Some(items) => Ok(Seq::Borrowed(items)),
                None => path.compute(env),
            },
            Code::Test(test) => Ok(test(env)?.map_or(Seq::EMPTY, |b| Seq::One(Item::Boolean(b)))),
        }
    }

    /// Hands the result to `k` without keeping it: borrowed where it can
    /// be, so reading a path allocates and clones nothing.
    pub(crate) fn with<R>(&self, env: &Env, k: impl FnOnce(&[Item]) -> Result<R>) -> Result<R> {
        match &self.code {
            Code::Seq(code) => k(&code(env)?),
            Code::Path(path) => match path.borrow(env) {
                Some(items) => k(items),
                None => k(&path.compute(env)?),
            },
            Code::Test(test) => match test(env)? {
                Some(b) => k(std::slice::from_ref(&Item::Boolean(b))),
                None => k(&[]),
            },
        }
    }

    /// This code as the operand of a lazy consumer: `None` if it can raise
    /// after its first item, which a lazy consumer might never reach.
    pub(crate) fn lazy(self) -> Option<RowFn> {
        (self.raises <= Raises::Early).then_some(self)
    }

    /// The effective boolean value of the result. Only for [`lazy`]
    /// operands.
    ///
    /// [`lazy`]: RowFn::lazy
    pub(crate) fn ebv(&self, env: &Env) -> Result<bool> {
        match &self.code {
            Code::Test(test) => Ok(test(env)?.unwrap_or(false)),
            _ => self.with(env, effective_boolean_value),
        }
    }

    /// This code with `stats` counting one row, timed, per evaluation. A
    /// profiled path is a closure like any other node, so a parent's step
    /// over it maps its items rather than extending it.
    pub(crate) fn profiled(self, stats: Arc<NodeStats>) -> RowFn {
        let raises = self.raises;
        match self.code {
            Code::Test(test) => RowFn::test(raises, move |env| stats.evaluation(|| test(env))),
            _ => RowFn::new(raises, move |env| stats.evaluation(|| self.eval(env))),
        }
    }
}

/// An operand the parent reads whole and locally: a constant folded at
/// compile time (its node never runs), or compiled code.
pub(crate) enum Operand {
    Const(Item),
    Code(RowFn),
}

impl Operand {
    pub(crate) fn compile(e: &ExprRef, scope: &mut RowScope) -> Option<Operand> {
        match e.const_item() {
            Some(item) => Some(Operand::Const(item)),
            None => e.compile_row(scope).map(Operand::Code),
        }
    }

    /// The operand of a lazy consumer (see [`RowFn::lazy`]).
    pub(crate) fn compile_lazy(e: &ExprRef, scope: &mut RowScope) -> Option<Operand> {
        match Operand::compile(e, scope)? {
            Operand::Code(code) => code.lazy().map(Operand::Code),
            constant => Some(constant),
        }
    }

    /// See [`RowFn::with`].
    pub(crate) fn with<R>(&self, env: &Env, k: impl FnOnce(&[Item]) -> Result<R>) -> Result<R> {
        match self {
            Operand::Const(item) => k(std::slice::from_ref(item)),
            Operand::Code(code) => code.with(env, k),
        }
    }
}

/// At most one item — the iterator tree's `eval_opt`.
pub(crate) fn opt_item<'a>(items: &'a [Item], what: &str) -> Result<Option<&'a Item>> {
    match items {
        [] => Ok(None),
        [one] => Ok(Some(one)),
        _ => Err(RumbleError::dynamic(
            codes::SEQUENCE_TOO_LONG,
            format!("{what}: more than one item"),
        )),
    }
}

/// Exactly one item — the iterator tree's `eval_one`.
pub(crate) fn one_item<'a>(items: &'a [Item], what: &str) -> Result<&'a Item> {
    opt_item(items, what)?.ok_or_else(|| {
        RumbleError::dynamic(codes::TYPE_MISMATCH, format!("{what}: empty sequence"))
    })
}

/// The slots of a compilation: the row variables, whose values each row
/// supplies, and the constants — driver-bound variables and literals —
/// captured here, once.
pub struct RowScope<'a> {
    row_vars: &'a [Arc<str>],
    consts: Vec<Sequence>,
    const_vars: Vec<(Arc<str>, usize)>,
    ctx: &'a DynamicContext,
}

impl<'a> RowScope<'a> {
    /// A scope whose row slots are `row_vars`; any other variable is looked
    /// up in `ctx`.
    pub(crate) fn new(row_vars: &'a [Arc<str>], ctx: &'a DynamicContext) -> RowScope<'a> {
        RowScope { row_vars, consts: Vec::new(), const_vars: Vec::new(), ctx }
    }

    /// The slot of variable `name`: a row variable, or its driver binding,
    /// captured now. `None` if it is unbound, which the iterator tree
    /// reports at run time.
    pub(crate) fn var(&mut self, name: &str) -> Option<Slot> {
        if let Some(i) = self.row_vars.iter().position(|n| n.as_ref() == name) {
            return Some(Slot::Row(i));
        }
        if let Some((_, i)) = self.const_vars.iter().find(|(n, _)| n.as_ref() == name) {
            return Some(Slot::Const(*i));
        }
        let value = self.ctx.lookup(name)?;
        let slot = self.push_const(value);
        self.const_vars.push((Arc::from(name), slot));
        Some(Slot::Const(slot))
    }

    /// A slot holding `items` on every row.
    pub(crate) fn constant(&mut self, items: Vec<Item>) -> Slot {
        Slot::Const(self.push_const(Arc::new(items)))
    }

    fn push_const(&mut self, value: Sequence) -> usize {
        self.consts.push(value);
        self.consts.len() - 1
    }
}

/// A compiled row expression with its constants: what a per-row call site
/// holds.
pub(crate) struct RowProgram {
    code: RowFn,
    consts: Vec<Sequence>,
    dot: Option<(Item, i64)>,
}

impl RowProgram {
    /// Compiles `expr` over the row variables `row_vars`, with every other
    /// variable (and `$$`) bound as in `ctx`.
    pub(crate) fn compile(
        expr: &ExprRef,
        row_vars: &[Arc<str>],
        ctx: &DynamicContext,
    ) -> Option<Self> {
        let mut scope = RowScope::new(row_vars, ctx);
        let code = expr.compile_row(&mut scope)?;
        Some(RowProgram { code, consts: scope.consts, dot: ctx.context_item() })
    }

    pub(crate) fn raises(&self) -> Raises {
        self.code.raises()
    }

    /// Evaluates over one row, `row[i]` being the items of row variable
    /// `i`. The result borrows from the row where it can.
    pub(crate) fn eval<'e>(&'e self, row: &'e [&'e [Item]]) -> Result<Seq<'e>> {
        self.code.eval(&self.env(row))
    }

    /// The effective boolean value over one row. Only for programs that
    /// cannot raise after their first item (see [`RowFn::lazy`]).
    pub(crate) fn ebv(&self, row: &[&[Item]]) -> Result<bool> {
        self.code.ebv(&self.env(row))
    }

    fn env<'e>(&'e self, row: &'e [&'e [Item]]) -> Env<'e> {
        Env { row, consts: &self.consts, dot: self.dot.as_ref().map(|(i, p)| (i, *p)) }
    }
}
