//! Pipelines: the clauses between two pipeline breakers run as one pass
//! per tuple over slots.
//!
//! The breakers are the source, `group by`, `order by`, `count`, and an
//! initial `for … at $p`, which numbers the source with
//! `zip_with_index`. A [`Pass`] runs the `for`, `let` and `where` clauses
//! between two of them in clause order, the local order: a `where` drops
//! the tuple, a `let` binds its value to a slot, and a non-initial `for`
//! runs the rest of the pass once per item it binds (a flatMap inside the
//! pass). Every `let` is evaluated in full on every tuple that reaches it,
//! whether or not anything reads it, as the local path binds it.
//!
//! A pass's input is the source's items, one slot, or the rows a breaker
//! emits, one slot per variable cell ([`Tuple`]). Its output
//! ([`Emit`]) is the `return`'s items, an empty row per tuple for a count,
//! or the row the next breaker reads: the group or order key cells, the
//! lengths of count-only variables, and the cells of the variables some
//! later clause or the `return` reads, and no other.

use super::clauses::{
    group_key_cell, note_class, order_cell, order_dir, with_items, CountClauseIter,
    GroupByClauseIter, OrderByClauseIter, RowExpr,
};
use super::{bind_cell, cell_items, cell_of, Clause};
use crate::error::{codes, Result, RumbleError};
use crate::item::{Item, Sequence};
use crate::runtime::row::Seq;
use crate::runtime::{DynamicContext, ExprRef};
use sparklite::dataframe::{DataFrame, DataType, Field, Row, Schema, SortDir, Value};
use sparklite::rdd::{task_bail, BoxIter, Rdd};
use sparklite::Data;
use std::collections::VecDeque;
use std::sync::atomic::AtomicU8;
use std::sync::Arc;

/// The error of a chain asked for a distributed form it has none of. The
/// static rule runs such a FLWOR locally, so only a bug asks.
pub(super) fn local_only(what: &str) -> RumbleError {
    RumbleError::dynamic(codes::CLUSTER, format!("{what} has no distributed form"))
}

// ---------------------------------------------------------------------------
// Slots and slot expressions
// ---------------------------------------------------------------------------

/// Where a pass finds one variable: among its input slots, or among the
/// values its clauses bind.
#[derive(Clone, Copy, PartialEq)]
enum At {
    Input(usize),
    Value(usize),
}

/// The variables of a pass as its clauses bind them: the input slots
/// first, then one value slot per `let` or `for` variable. A clause that
/// redeclares a value slot's variable overwrites that slot; one that
/// redeclares an input slot's variable leaves the input unnamed.
pub(super) struct Slots {
    names: Vec<Option<Arc<str>>>,
    inputs: usize,
}

impl Slots {
    fn new(inputs: &[Arc<str>]) -> Slots {
        Slots { names: inputs.iter().cloned().map(Some).collect(), inputs: inputs.len() }
    }

    fn at(&self, var: &str) -> Option<At> {
        let i = self.names.iter().position(|n| n.as_deref() == Some(var))?;
        Some(if i < self.inputs { At::Input(i) } else { At::Value(i - self.inputs) })
    }

    fn find(&self, var: &str) -> Result<At> {
        self.at(var).ok_or_else(|| local_only(&format!("a pass without ${var}")))
    }

    /// `expr` compiled over the slots of its `uses` as they are named now.
    fn expr(&self, expr: &ExprRef, uses: &[Arc<str>], ctx: &DynamicContext) -> Result<SlotExpr> {
        let slots: Box<[At]> = uses.iter().map(|u| self.find(u)).collect::<Result<_>>()?;
        let direct = slots.iter().enumerate().all(|(i, &at)| at == At::Input(i));
        Ok(SlotExpr { expr: RowExpr::new(expr, uses, ctx), slots, direct })
    }

    /// The value slot a `let` or `for` of `var` binds.
    fn bind(&mut self, var: &Arc<str>) -> usize {
        match self.at(var) {
            Some(At::Value(i)) => return i,
            Some(At::Input(i)) => self.names[i] = None,
            None => {}
        }
        self.names.push(Some(Arc::clone(var)));
        self.names.len() - self.inputs - 1
    }
}

/// A row expression of a pass with the slots of its variables.
struct SlotExpr {
    expr: RowExpr,
    slots: Box<[At]>,
    /// Whether its variables are the first input slots, in order, so it
    /// reads the inputs as they are.
    direct: bool,
}

impl SlotExpr {
    /// Calls `f` with the items of the expression's variables.
    fn with_vars<R>(
        &self,
        inputs: &[&[Item]],
        values: &[Seq],
        f: impl FnOnce(&[&[Item]]) -> R,
    ) -> R {
        if self.direct {
            return f(&inputs[..self.slots.len()]);
        }
        let var = |i: usize| match self.slots[i] {
            At::Input(s) => inputs[s],
            At::Value(s) => &values[s][..],
        };
        with_items(self.slots.len(), var, f)
    }

    /// The value of a `let` or a `for`'s sequence: borrowed from the
    /// inputs where it reads them directly, owned otherwise.
    fn bind<'x>(&'x self, inputs: &'x [&'x [Item]], values: &[Seq]) -> Result<Seq<'x>> {
        if self.direct {
            return self.expr.eval(&inputs[..self.slots.len()]);
        }
        self.with_vars(inputs, values, |vars| self.expr.eval(vars).map(Seq::into_owned))
    }

    fn test(&self, inputs: &[&[Item]], values: &[Seq]) -> Result<bool> {
        self.with_vars(inputs, values, |vars| self.expr.test(vars))
    }

    /// Hands the result to `k`.
    fn eval<R>(&self, inputs: &[&[Item]], values: &[Seq], k: impl FnOnce(Seq) -> R) -> Result<R> {
        self.with_vars(inputs, values, |vars| self.expr.eval(vars).map(k))
    }
}

// ---------------------------------------------------------------------------
// Passes
// ---------------------------------------------------------------------------

/// One element of a pass's input.
pub(super) trait Tuple: Data {
    /// Calls `f` with the items of the first `n` input slots.
    fn with_slots<R>(&self, n: usize, f: impl FnOnce(&[&[Item]]) -> R) -> R;
}

/// A source item: the one input slot.
impl Tuple for Item {
    fn with_slots<R>(&self, _n: usize, f: impl FnOnce(&[&[Item]]) -> R) -> R {
        f(&[std::slice::from_ref(self)])
    }
}

/// A breaker's row: input slot `i` is the variable cell in column `i`.
/// Native cells are borrowed in place; a `Bin` (a cell that crossed a
/// process boundary) is decoded.
impl Tuple for Row {
    fn with_slots<R>(&self, n: usize, f: impl FnOnce(&[&[Item]]) -> R) -> R {
        if self[..n].iter().all(|c| cell_items(c).is_some()) {
            return with_items(n, |i| cell_items(&self[i]).unwrap_or_default(), f);
        }
        let bound: Vec<Sequence> = self[..n].iter().map(bind_cell).collect();
        with_items(n, |i| bound[i].as_slice(), f)
    }
}

/// What a pass yields per tuple that reaches its end.
pub(super) trait Emit: Send + Sync + 'static {
    type Out: Data;

    fn emit(&self, inputs: &[&[Item]], values: &[Seq], out: &mut VecDeque<Self::Out>)
        -> Result<()>;
}

/// The `return`'s items.
pub(super) struct Return(SlotExpr);

impl Emit for Return {
    type Out = Item;

    fn emit(&self, inputs: &[&[Item]], values: &[Seq], out: &mut VecDeque<Item>) -> Result<()> {
        self.0.eval(inputs, values, |items| match items {
            Seq::Owned(items) => out.extend(items),
            Seq::One(item) => out.push_back(item),
            Seq::Borrowed(items) => out.extend(items.iter().cloned()),
        })
    }
}

/// One column of the row a pass hands to a breaker.
enum Col {
    /// A variable's cell.
    Var(At),
    /// The number of items a variable is bound to.
    Len(At),
    /// A group key's cell, computed.
    Key(SlotExpr),
    /// The group key cell of a variable (`group by $var`).
    VarKey(At),
    /// An order key's cell, its type discovered in the key's slot.
    Order(SlotExpr, Arc<AtomicU8>),
}

/// The row the next breaker reads.
pub(super) struct Columns(Vec<Col>);

/// One empty row per tuple, for a consumer that only counts them.
pub(super) const TUPLES: Columns = Columns(Vec::new());

impl Emit for Columns {
    type Out = Row;

    fn emit(&self, inputs: &[&[Item]], values: &[Seq], out: &mut VecDeque<Row>) -> Result<()> {
        let slot = |at: &At| match *at {
            At::Input(i) => inputs[i],
            At::Value(v) => &values[v][..],
        };
        let mut row = Vec::with_capacity(self.0.len());
        for col in &self.0 {
            row.push(match col {
                Col::Var(at) => cell_of(slot(at).to_vec()),
                Col::Len(at) => Value::I64(slot(at).len() as i64),
                Col::Key(key) => key.eval(inputs, values, |k| group_key_cell(&k))??,
                Col::VarKey(at) => group_key_cell(slot(at))?,
                Col::Order(key, class) => {
                    let cell = key.eval(inputs, values, |k| order_cell(&k))??;
                    note_class(class, &cell)?;
                    cell
                }
            });
        }
        out.push_back(row);
        Ok(())
    }
}

/// The values of one tuple that live on the stack.
const VALUES: usize = 8;

/// One clause of a pass.
enum Step {
    Where(SlotExpr),
    Let(SlotExpr, usize),
    For(SlotExpr, usize),
}

/// The clauses between two breakers, compiled over slots, then what the
/// pass yields.
pub(super) struct Pass<E> {
    steps: Vec<Step>,
    values: usize,
    emit: E,
}

impl<E: Emit> Pass<E> {
    /// Runs the pass over one input, pushing what it yields onto `out`.
    fn feed<T: Tuple>(&self, inputs: usize, tuple: &T, out: &mut VecDeque<E::Out>) -> Result<()> {
        tuple.with_slots(inputs, |inputs| {
            if self.values == 0 {
                self.run(0, inputs, &mut [], out)
            } else if self.values <= VALUES {
                let mut values: [Seq; VALUES] = std::array::from_fn(|_| Seq::EMPTY);
                self.run(0, inputs, &mut values[..self.values], out)
            } else {
                let mut values: Vec<Seq> = (0..self.values).map(|_| Seq::EMPTY).collect();
                self.run(0, inputs, &mut values, out)
            }
        })
    }

    /// The steps from `from` on, then the emit.
    fn run<'x>(
        &'x self,
        from: usize,
        inputs: &'x [&'x [Item]],
        values: &mut [Seq<'x>],
        out: &mut VecDeque<E::Out>,
    ) -> Result<()> {
        for (i, step) in self.steps.iter().enumerate().skip(from) {
            match step {
                Step::Where(predicate) if !predicate.test(inputs, values)? => return Ok(()),
                Step::Where(_) => {}
                Step::Let(expr, v) => {
                    let value = expr.bind(inputs, values)?;
                    values[*v] = value;
                }
                Step::For(expr, v) => {
                    let items = expr.bind(inputs, values)?;
                    let outer: &[Seq] = values;
                    for item in items.iter() {
                        // The rest of the pass, once per item, over the
                        // outer values reborrowed and the item in its slot.
                        let value = |k: usize| match k == *v {
                            true => Seq::Borrowed(std::slice::from_ref(item)),
                            false => Seq::Borrowed(&outer[k][..]),
                        };
                        if outer.len() <= VALUES {
                            let mut inner: [Seq; VALUES] = std::array::from_fn(|k| match k {
                                k if k < outer.len() => value(k),
                                _ => Seq::EMPTY,
                            });
                            self.run(i + 1, inputs, &mut inner[..outer.len()], out)?;
                        } else {
                            let mut inner: Vec<Seq> = (0..outer.len()).map(value).collect();
                            self.run(i + 1, inputs, &mut inner, out)?;
                        }
                    }
                    return Ok(());
                }
            }
        }
        self.emit.emit(inputs, values, out)
    }
}

// ---------------------------------------------------------------------------
// Streams between breakers
// ---------------------------------------------------------------------------

/// A pass's input stream.
pub(super) enum Stream {
    /// The source's items, bound to one variable.
    Items(Rdd<Item>, Arc<str>),
    /// Rows whose first columns are the variable cells of `vars`; any
    /// columns after them are a breaker's keys.
    Rows(Rdd<Row>, Vec<Arc<str>>),
}

/// The clauses of one pass compiled over a stream, before its emit.
pub(super) struct Planned {
    stream: Stream,
    slots: Slots,
    steps: Vec<Step>,
}

impl Planned {
    /// Compiles `clauses` (`for`, `let` and `where` only) over `stream`.
    /// Over the source's items, the `where`s before the first `let` or
    /// `for` filter the items.
    pub(super) fn new(
        mut stream: Stream,
        clauses: &[Clause],
        ctx: &DynamicContext,
    ) -> Result<Planned> {
        let mut slots = Slots::new(match &stream {
            Stream::Items(_, var) => std::slice::from_ref(var),
            Stream::Rows(_, vars) => vars,
        });
        let mut steps = Vec::with_capacity(clauses.len());
        for clause in clauses {
            steps.push(match clause {
                Clause::Where(w) => Step::Where(slots.expr(&w.predicate, &w.uses, ctx)?),
                Clause::Let(l) => {
                    let value = slots.expr(&l.expr, &l.uses, ctx)?;
                    Step::Let(value, slots.bind(&l.var))
                }
                Clause::For(f) if f.positional.is_none() && !f.allowing_empty => {
                    let items = slots.expr(&f.expr, &f.uses, ctx)?;
                    Step::For(items, slots.bind(&f.var))
                }
                _ => return Err(local_only("this clause")),
            });
        }
        if let Stream::Items(rdd, _) = &mut stream {
            while let Some(Step::Where(_)) = steps.first() {
                let Step::Where(predicate) = steps.remove(0) else { unreachable!() };
                *rdd = rdd.filter(move |item| {
                    let item = [std::slice::from_ref(item)];
                    predicate.test(&item, &[]).unwrap_or_else(|e| task_bail(e))
                });
            }
        }
        Ok(Planned { stream, slots, steps })
    }

    /// The source's items as they are, one per tuple, when the pass has
    /// nothing left to run.
    pub(super) fn source_items(&self) -> Option<Rdd<Item>> {
        match &self.stream {
            Stream::Items(rdd, _) if self.steps.is_empty() => Some(rdd.clone()),
            _ => None,
        }
    }

    /// The `return`'s items, with `uses` its variables: one per tuple
    /// that reaches it, or the source's items as they are for a `return
    /// $var` of the source's variable, `var`, with nothing left to run.
    pub(super) fn returned(
        self,
        var: Option<&Arc<str>>,
        (expr, uses): (&ExprRef, &[Arc<str>]),
        ctx: &DynamicContext,
    ) -> Result<Rdd<Item>> {
        let named = var.and_then(|v| self.slots.at(v)) == Some(At::Input(0));
        if let Some(items) = self.source_items().filter(|_| named) {
            return Ok(items);
        }
        let ret = Return(self.slots.expr(expr, uses, ctx)?);
        Ok(self.run(ret))
    }

    /// The pass run over every element of the stream.
    pub(super) fn run<E: Emit>(self, emit: E) -> Rdd<E::Out> {
        let inputs = self.slots.inputs;
        let values = self.slots.names.len() - inputs;
        let pass = Pass { steps: self.steps, values, emit };
        match self.stream {
            Stream::Items(rdd, _) => over(rdd, pass, inputs),
            Stream::Rows(rdd, _) => over(rdd, pass, inputs),
        }
    }
}

/// Runs `pass` over each element of `rdd`, streaming what it yields from
/// one buffer per partition. An error fails the task.
fn over<T: Tuple, E: Emit>(rdd: Rdd<T>, pass: Pass<E>, inputs: usize) -> Rdd<E::Out> {
    let pass = Arc::new(pass);
    rdd.map_partitions(move |_, mut input: BoxIter<T>| {
        let pass = Arc::clone(&pass);
        let mut out = VecDeque::new();
        Box::new(std::iter::from_fn(move || loop {
            if let Some(o) = out.pop_front() {
                return Some(o);
            }
            let tuple = input.next()?;
            if let Err(e) = pass.feed(inputs, &tuple, &mut out) {
                task_bail(e)
            }
        })) as BoxIter<E::Out>
    })
}

// ---------------------------------------------------------------------------
// Breakers
// ---------------------------------------------------------------------------

/// Runs `planned` to the rows a breaker reads: the cells of `vars`, then
/// the breaker's own columns, named and typed. Returns them as a frame,
/// with `vars`.
fn hand_over(
    planned: Planned,
    vars: Vec<Arc<str>>,
    own: Vec<(String, DataType, Col)>,
) -> Result<(DataFrame, Vec<Arc<str>>)> {
    let mut fields: Vec<Field> =
        vars.iter().map(|v| Field::new(v.as_ref(), DataType::Bin)).collect();
    let mut cols =
        vars.iter().map(|v| planned.slots.find(v).map(Col::Var)).collect::<Result<Vec<_>>>()?;
    for (name, dtype, col) in own {
        fields.push(Field::new(name, dtype));
        cols.push(col);
    }
    let rows = planned.run(Columns(cols));
    Ok((DataFrame::from_rdd(Schema::new(fields), &rows), vars))
}

/// The variables in scope before a breaker that the clauses after it, up
/// to the next `group by` (which rebinds every variable), or else the
/// `return`, read.
fn carried(planned: &Planned, later: &[Clause], return_uses: &[Arc<str>]) -> Vec<Arc<str>> {
    let mut reads: Vec<&Arc<str>> = Vec::new();
    let mut grouped = false;
    for clause in later {
        reads.extend(clause.reads());
        if matches!(clause, Clause::GroupBy(_)) {
            grouped = true;
            break;
        }
    }
    if !grouped {
        reads.extend(return_uses);
    }
    let in_scope = planned.slots.names.iter().flatten();
    in_scope.filter(|v| reads.contains(v)).cloned().collect()
}

/// `group by`: the pass emits the materialized non-grouping variables'
/// cells, one native key cell per key, and the length of each count-only
/// variable that is not a unit variable; the DataFrame groups them.
fn group_by(g: &GroupByClauseIter, planned: Planned, ctx: &DynamicContext) -> Result<Stream> {
    let mut own = Vec::new();
    for (i, spec) in g.keys.iter().enumerate() {
        let col = match &spec.expr {
            Some(e) => Col::Key(planned.slots.expr(e, &spec.uses, ctx)?),
            None => Col::VarKey(planned.slots.find(&spec.var)?),
        };
        own.push((format!("__k{i}"), DataType::Any, col));
    }
    for var in g.lengths() {
        own.push((format!("__len_{var}"), DataType::I64, Col::Len(planned.slots.find(var)?)));
    }
    let (df, _) = hand_over(planned, g.materialized().cloned().collect(), own)?;
    let (rows, vars) = g.grouped(df)?;
    Ok(Stream::Rows(rows, vars))
}

/// An `order by`: the pass emits the carried cells, then one cell per key,
/// each type-discovered in a slot of its own. Returns them unsorted, with
/// the carried variables and the sort keys.
fn order_keys(
    o: &OrderByClauseIter,
    planned: Planned,
    carried: Vec<Arc<str>>,
    ctx: &DynamicContext,
) -> Result<(DataFrame, Vec<Arc<str>>, OrderKeys)> {
    let (mut own, mut keys) = (Vec::new(), Vec::new());
    for (i, spec) in o.specs.iter().enumerate() {
        let key = planned.slots.expr(&spec.expr, &spec.uses, ctx)?;
        own.push((format!("__o{i}"), DataType::Any, Col::Order(key, Arc::default())));
        keys.push((format!("__o{i}"), order_dir(spec)));
    }
    let (df, vars) = hand_over(planned, carried, own)?;
    Ok((df, vars, keys))
}

/// The sort keys of an ORDER BY: a column and a direction each.
type OrderKeys = Vec<(String, SortDir)>;

/// `count $var`: the pass emits the carried cells, numbered by
/// `zip_with_index`.
fn count(c: &CountClauseIter, planned: Planned, mut carried: Vec<Arc<str>>) -> Result<Stream> {
    carried.retain(|v| *v != c.var);
    let (df, mut vars) = hand_over(planned, carried, Vec::new())?;
    let rows = df.to_rdd()?.zip_with_index().map(|(mut row, i)| {
        row.push(cell_of(vec![Item::Integer(i as i64 + 1)]));
        row
    });
    vars.push(Arc::clone(&c.var));
    Ok(Stream::Rows(rows, vars))
}

/// The stream of a FLWOR's clauses through the last breaker among the
/// first `upto`, with the clauses after it up to `upto`, which the final
/// pass runs. `source`, where given, is what the initial `for` scans
/// instead of its own expression; `return_uses`, what the `return` reads.
/// Unless `sorted`, a last `order by` computes its keys, and so raises
/// what its type discovery raises, but does not sort: for a consumer that
/// only counts.
pub(super) fn stream<'c>(
    clauses: &'c [Clause<'c>],
    upto: usize,
    source: Option<&ExprRef>,
    return_uses: &[Arc<str>],
    sorted: bool,
    ctx: &DynamicContext,
) -> Result<(Stream, &'c [Clause<'c>])> {
    let (mut stream, mut start) = initial(clauses, source, ctx)?;
    for (i, clause) in clauses[..upto].iter().enumerate().skip(start) {
        if !clause.is_breaker() {
            continue;
        }
        let planned = Planned::new(stream, &clauses[start..i], ctx)?;
        let later = &clauses[i + 1..];
        stream = match clause {
            Clause::GroupBy(g) => group_by(g, planned, ctx)?,
            Clause::Count(c) => {
                let carried = carried(&planned, later, return_uses);
                count(c, planned, carried)?
            }
            Clause::OrderBy(o) => {
                let carried = carried(&planned, later, return_uses);
                let (df, vars, keys) = order_keys(o, planned, carried, ctx)?;
                let rows = match later.is_empty() && !sorted {
                    true => df.to_rdd()?,
                    false => df.order_by(keys)?.to_rdd()?,
                };
                Stream::Rows(rows, vars)
            }
            _ => unreachable!("only breakers end a pass"),
        };
        start = i + 1;
    }
    Ok((stream, &clauses[start..upto]))
}

/// The stream of the initial `for`, and the index of the first clause
/// after it.
fn initial(
    clauses: &[Clause],
    source: Option<&ExprRef>,
    ctx: &DynamicContext,
) -> Result<(Stream, usize)> {
    let Some(Clause::For(first)) = clauses.first() else {
        return Err(local_only("a FLWOR that does not start with for"));
    };
    if first.allowing_empty {
        return Err(local_only("a for clause allowing empty"));
    }
    let rdd = source.unwrap_or(&first.expr).rdd(ctx)?;
    Ok(match &first.positional {
        None => (Stream::Items(rdd, Arc::clone(&first.var)), 1),
        Some(pos) => {
            let rows = rdd.zip_with_index().map(|(item, i)| {
                vec![cell_of(vec![item]), cell_of(vec![Item::Integer(i as i64 + 1)])]
            });
            (Stream::Rows(rows, vec![Arc::clone(&first.var), Arc::clone(pos)]), 1)
        }
    })
}

/// The first `n` items of a FLWOR ending in `order by`: one top-K job
/// keeps the first `n` tuples, and the return runs on the driver, over
/// those rows in order, until it has `n` items. `None` for a FLWOR ending
/// in another clause, and when the rows yield fewer than `n` items but
/// some row was cut: the rows past the cut may still yield items, so the
/// full sort answers instead.
pub(super) fn take_ordered(
    clauses: &[Clause],
    (return_expr, return_uses): (&ExprRef, &[Arc<str>]),
    n: usize,
    ctx: &DynamicContext,
) -> Result<Option<Vec<Item>>> {
    let Some(Clause::OrderBy(o)) = clauses.last() else { return Ok(None) };
    let upto = clauses.len() - 1;
    let (stream, rest) = stream(clauses, upto, None, return_uses, true, ctx)?;
    let planned = Planned::new(stream, rest, ctx)?;
    let carried = carried(&planned, &[], return_uses);
    let (df, vars, keys) = order_keys(o, planned, carried, ctx)?;
    // One top-K job: no range sort, and every row's key still computed,
    // so type discovery sees the rows outside the top `n`.
    let rows = df.order_by(keys)?.limit(n).collect_rows()?;
    let slots = Slots::new(&vars);
    let ret = Return(slots.expr(return_expr, return_uses, ctx)?);
    let pass = Pass { steps: Vec::new(), values: 0, emit: ret };
    let mut out = VecDeque::with_capacity(n);
    for row in &rows {
        pass.feed(vars.len(), row, &mut out)?;
        if out.len() >= n {
            out.truncate(n);
            return Ok(Some(out.into()));
        }
    }
    Ok((rows.len() < n).then_some(out.into()))
}
