//! Columnar batches and vectorized operator kernels.
//!
//! A [`ColumnBatch`] stores a slice of rows column-major: `I64`/`F64`
//! columns as native vectors, booleans as bitsets, strings as a byte arena
//! with an offset array, and everything else (lists, binaries, mixed-type
//! columns) as boxed [`Value`]s — each paired with a validity bitmap marking
//! non-NULL slots. Kernels evaluate [`BoundExpr`]s over whole batches with
//! typed fast paths, filter through selection vectors, and build the §4.7
//! group-key encoding per batch. The physical plan
//! (`super::plan::compile`) converts rows to batches at the start of every
//! UDF-free operator chain and back at its end, so [`super::RowCodec`]
//! stays the only wire/persist format. Operators holding an opaque UDF never
//! see a batch: they run on rows.
//!
//! Every kernel replicates the row interpreter's semantics *exactly* — the
//! shared primitives (`truth`, `eval_cmp`, `eval_num`) live in
//! `super::expr` and the row-vs-columnar differential battery
//! (`tests/columnar_diff.rs`) pins byte-identical results.
//!
//! Invariant threaded through everything: a slot's validity bit is clear
//! **iff** its logical value is `NULL`. `Column::get` reconstructs `NULL`
//! from a clear bit, so typed storage never needs a NULL sentinel.

use super::expr::{self, value_cmp, BoundExpr, CmpOp, KeyValue, NumOp};
use super::plan::{Agg, AggState};
use super::{Row, Value};
use crate::rdd::util::{fx_hash, fx_hash_bytes};
use std::cmp::Ordering;
use std::sync::Arc;

/// A packed bitset; doubles as validity bitmap and boolean column storage.
#[derive(Debug, Clone, Default)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    pub fn with_capacity(bits: usize) -> Bitmap {
        Bitmap { words: Vec::with_capacity(bits.div_ceil(64)), len: 0 }
    }

    /// A bitmap of `len` identical bits.
    pub fn filled(len: usize, bit: bool) -> Bitmap {
        let word = if bit { u64::MAX } else { 0 };
        Bitmap { words: vec![word; len.div_ceil(64)], len }
    }

    pub fn push(&mut self, bit: bool) {
        let word = self.len / 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[word] |= 1u64 << (self.len % 64);
        }
        self.len += 1;
    }

    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len, "bit {i} out of bounds ({})", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn count_ones(&self) -> usize {
        let mut n: usize = self.words.iter().map(|w| w.count_ones() as usize).sum();
        // Mask out garbage bits `filled(len, true)` leaves past `len`.
        if !self.len.is_multiple_of(64) {
            if let Some(last) = self.words.last() {
                n -= (last >> (self.len % 64)).count_ones() as usize;
            }
        }
        n
    }
}

/// A byte arena of UTF-8 strings with an offset array: `offsets[i]..
/// offsets[i+1]` delimits string `i`. One allocation per column instead of
/// one `Arc<str>` per cell.
#[derive(Debug, Clone)]
pub struct StrArena {
    bytes: Vec<u8>,
    offsets: Vec<usize>,
}

impl Default for StrArena {
    fn default() -> Self {
        StrArena { bytes: Vec::new(), offsets: vec![0] }
    }
}

impl StrArena {
    pub fn push(&mut self, s: &str) {
        self.bytes.extend_from_slice(s.as_bytes());
        self.offsets.push(self.bytes.len());
    }

    pub fn get(&self, i: usize) -> &str {
        let slice = &self.bytes[self.offsets[i]..self.offsets[i + 1]];
        std::str::from_utf8(slice).expect("arena bytes come from &str pushes")
    }

    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    pub fn is_empty(&self) -> bool {
        self.offsets.len() == 1
    }

    /// The offset array, exposed so tests can check its integrity.
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }
}

/// Physical storage of one column's non-NULL slots. Invalid (NULL) slots
/// hold an arbitrary placeholder in typed storage and `Value::Null` in
/// boxed storage.
#[derive(Debug, Clone)]
pub enum ColumnData {
    I64(Vec<i64>),
    F64(Vec<f64>),
    Bool(Bitmap),
    Str(StrArena),
    /// Fallback for lists, binaries and mixed-type columns.
    Boxed(Vec<Value>),
}

/// One column of a batch: typed storage plus a validity bitmap.
#[derive(Debug, Clone)]
pub struct Column {
    validity: Bitmap,
    data: ColumnData,
}

/// Typed storage being grown one value at a time; [`BuilderState::Empty`]
/// means only NULLs have been seen so far.
enum BuilderState {
    Empty,
    I64(Vec<i64>),
    F64(Vec<f64>),
    Bool(Bitmap),
    Str(StrArena),
    Boxed(Vec<Value>),
}

impl BuilderState {
    /// Rebuilds every slot pushed so far as a boxed value (the degrade path
    /// when a column turns out to be mixed-type).
    fn reconstruct(self, validity: &Bitmap) -> Vec<Value> {
        let n = validity.len();
        let mut out = Vec::with_capacity(n + 1);
        let valid = |i: usize| validity.get(i);
        match self {
            BuilderState::Empty => out.extend((0..n).map(|_| Value::Null)),
            BuilderState::I64(v) => {
                out.extend((0..n).map(|i| if valid(i) { Value::I64(v[i]) } else { Value::Null }))
            }
            BuilderState::F64(v) => {
                out.extend((0..n).map(|i| if valid(i) { Value::F64(v[i]) } else { Value::Null }))
            }
            BuilderState::Bool(b) => {
                out.extend(
                    (0..n).map(|i| if valid(i) { Value::Bool(b.get(i)) } else { Value::Null }),
                )
            }
            BuilderState::Str(a) => {
                out.extend(
                    (0..n).map(|i| if valid(i) { Value::str(a.get(i)) } else { Value::Null }),
                )
            }
            BuilderState::Boxed(v) => return v,
        }
        out
    }
}

/// Single-pass adaptive column builder: the first non-NULL value picks the
/// typed storage, every later value takes one match, and a type mismatch
/// degrades the column to boxed storage at most once. This is the hot path
/// of the row→columnar boundary, so it never buffers values or rescans.
pub struct ColumnBuilder {
    validity: Bitmap,
    state: BuilderState,
}

impl ColumnBuilder {
    pub fn with_capacity(n: usize) -> ColumnBuilder {
        ColumnBuilder { validity: Bitmap::with_capacity(n), state: BuilderState::Empty }
    }

    pub fn push(&mut self, v: Value) {
        if v.is_null() {
            match &mut self.state {
                BuilderState::Empty => {}
                BuilderState::I64(o) => o.push(0),
                BuilderState::F64(o) => o.push(0.0),
                BuilderState::Bool(o) => o.push(false),
                BuilderState::Str(o) => o.push(""),
                BuilderState::Boxed(o) => o.push(Value::Null),
            }
            self.validity.push(false);
            return;
        }
        // Fast path: the value matches the storage already chosen.
        let v = match (&mut self.state, v) {
            (BuilderState::I64(o), Value::I64(x)) => {
                o.push(x);
                self.validity.push(true);
                return;
            }
            (BuilderState::F64(o), Value::F64(x)) => {
                o.push(x);
                self.validity.push(true);
                return;
            }
            (BuilderState::Bool(o), Value::Bool(x)) => {
                o.push(x);
                self.validity.push(true);
                return;
            }
            (BuilderState::Str(o), Value::Str(s)) => {
                o.push(&s);
                self.validity.push(true);
                return;
            }
            (BuilderState::Boxed(o), v) => {
                o.push(v);
                self.validity.push(true);
                return;
            }
            (_, v) => v,
        };
        // Slow path, at most twice per column: the first non-NULL value
        // initializes typed storage (backfilling placeholders for leading
        // NULLs), and a mismatched value degrades the column to boxed.
        let nulls = self.validity.len();
        self.state = match (std::mem::replace(&mut self.state, BuilderState::Empty), v) {
            (BuilderState::Empty, Value::I64(x)) => {
                let mut o = vec![0i64; nulls];
                o.push(x);
                BuilderState::I64(o)
            }
            (BuilderState::Empty, Value::F64(x)) => {
                let mut o = vec![0.0f64; nulls];
                o.push(x);
                BuilderState::F64(o)
            }
            (BuilderState::Empty, Value::Bool(x)) => {
                let mut o = Bitmap::filled(nulls, false);
                o.push(x);
                BuilderState::Bool(o)
            }
            (BuilderState::Empty, Value::Str(s)) => {
                let mut o = StrArena::default();
                for _ in 0..nulls {
                    o.push("");
                }
                o.push(&s);
                BuilderState::Str(o)
            }
            (BuilderState::Empty, v) => {
                let mut o = vec![Value::Null; nulls];
                o.push(v);
                BuilderState::Boxed(o)
            }
            (state, v) => {
                let mut o = state.reconstruct(&self.validity);
                o.push(v);
                BuilderState::Boxed(o)
            }
        };
        self.validity.push(true);
    }

    pub fn finish(self) -> Column {
        let n = self.validity.len();
        let data = match self.state {
            // All-NULL (or empty) columns take the cheapest typed layout.
            BuilderState::Empty => ColumnData::I64(vec![0; n]),
            BuilderState::I64(o) => ColumnData::I64(o),
            BuilderState::F64(o) => ColumnData::F64(o),
            BuilderState::Bool(o) => ColumnData::Bool(o),
            BuilderState::Str(o) => ColumnData::Str(o),
            BuilderState::Boxed(o) => ColumnData::Boxed(o),
        };
        Column { validity: self.validity, data }
    }
}

impl Column {
    /// Builds a column from row values, choosing the densest representation
    /// the actual data admits: a column whose non-NULL values are all one
    /// scalar type gets native storage; anything else falls back to boxed.
    pub fn from_values(values: Vec<Value>) -> Column {
        let mut b = ColumnBuilder::with_capacity(values.len());
        for v in values {
            b.push(v);
        }
        b.finish()
    }

    /// A column repeating `v` for `n` rows (literal broadcast).
    pub fn broadcast(v: &Value, n: usize) -> Column {
        let (validity, data) = match v {
            Value::Null => (Bitmap::filled(n, false), ColumnData::I64(vec![0; n])),
            Value::I64(x) => (Bitmap::filled(n, true), ColumnData::I64(vec![*x; n])),
            Value::F64(x) => (Bitmap::filled(n, true), ColumnData::F64(vec![*x; n])),
            Value::Bool(b) => (Bitmap::filled(n, true), ColumnData::Bool(Bitmap::filled(n, *b))),
            Value::Str(s) => {
                let mut arena = StrArena::default();
                for _ in 0..n {
                    arena.push(s);
                }
                (Bitmap::filled(n, true), ColumnData::Str(arena))
            }
            other => (Bitmap::filled(n, true), ColumnData::Boxed(vec![other.clone(); n])),
        };
        Column { validity, data }
    }

    pub fn len(&self) -> usize {
        self.validity.len()
    }

    pub fn is_empty(&self) -> bool {
        self.validity.is_empty()
    }

    pub fn is_valid(&self, i: usize) -> bool {
        self.validity.get(i)
    }

    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// Reconstructs the logical value of slot `i`.
    pub fn get(&self, i: usize) -> Value {
        if !self.validity.get(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::I64(v) => Value::I64(v[i]),
            ColumnData::F64(v) => Value::F64(v[i]),
            ColumnData::Bool(b) => Value::Bool(b.get(i)),
            ColumnData::Str(a) => Value::str(a.get(i)),
            ColumnData::Boxed(v) => v[i].clone(),
        }
    }

    /// Copies the selected slots, in selection order, into a new column —
    /// the materialization half of a selection vector.
    pub fn gather(&self, sel: &[u32]) -> Column {
        let mut validity = Bitmap::with_capacity(sel.len());
        for &i in sel {
            validity.push(self.validity.get(i as usize));
        }
        let data = match &self.data {
            ColumnData::I64(v) => ColumnData::I64(sel.iter().map(|&i| v[i as usize]).collect()),
            ColumnData::F64(v) => ColumnData::F64(sel.iter().map(|&i| v[i as usize]).collect()),
            ColumnData::Bool(b) => {
                let mut out = Bitmap::with_capacity(sel.len());
                for &i in sel {
                    out.push(b.get(i as usize));
                }
                ColumnData::Bool(out)
            }
            ColumnData::Str(a) => {
                let mut out = StrArena::default();
                for &i in sel {
                    out.push(a.get(i as usize));
                }
                ColumnData::Str(out)
            }
            ColumnData::Boxed(v) => {
                ColumnData::Boxed(sel.iter().map(|&i| v[i as usize].clone()).collect())
            }
        };
        Column { validity, data }
    }
}

/// A column-major slice of rows: the unit of vectorized execution.
///
/// Columns are reference-counted so operators share rather than copy them:
/// a projection that passes a column through untouched (`with_column` keeps
/// every existing column) is a pointer bump, not a data copy. Kernels always
/// build fresh columns, so the sharing is copy-on-write by construction.
#[derive(Debug, Clone)]
pub struct ColumnBatch {
    len: usize,
    columns: Vec<Arc<Column>>,
}

impl ColumnBatch {
    /// Transposes rows into columns in a single pass. `width` fixes the
    /// column count (rows may be empty); every row must have exactly
    /// `width` values.
    pub fn from_rows(width: usize, rows: Vec<Row>) -> ColumnBatch {
        let len = rows.len();
        let mut builders: Vec<ColumnBuilder> =
            (0..width).map(|_| ColumnBuilder::with_capacity(len)).collect();
        for row in rows {
            debug_assert_eq!(row.len(), width, "row arity does not match batch width");
            for (b, v) in builders.iter_mut().zip(row) {
                b.push(v);
            }
        }
        let columns = builders.into_iter().map(|b| Arc::new(b.finish())).collect();
        ColumnBatch { len, columns }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn width(&self) -> usize {
        self.columns.len()
    }

    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// Reconstructs row `i`.
    pub fn row(&self, i: usize) -> Row {
        self.columns.iter().map(|c| c.get(i)).collect()
    }

    /// Transposes back to rows (the shuffle/RDD boundary conversion).
    pub fn to_rows(&self) -> Vec<Row> {
        (0..self.len).map(|i| self.row(i)).collect()
    }

    /// Transposes only the selected slots back to rows, in selection order —
    /// lets a fused pipeline emit a filtered batch without first gathering
    /// every column.
    pub fn to_rows_sel(&self, sel: &[u32]) -> Vec<Row> {
        sel.iter().map(|&i| self.row(i as usize)).collect()
    }

    /// Applies a selection vector to every column.
    pub fn gather(&self, sel: &[u32]) -> ColumnBatch {
        ColumnBatch {
            len: sel.len(),
            columns: self.columns.iter().map(|c| Arc::new(c.gather(sel))).collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// Expression kernels
// ---------------------------------------------------------------------------

/// The SQL truth value of slot `i` — `Some(bool)` only for valid booleans,
/// mirroring [`expr::truth`] on the reconstructed value.
fn truth_at(c: &Column, i: usize) -> Option<bool> {
    if !c.validity.get(i) {
        return None;
    }
    match &c.data {
        ColumnData::Bool(b) => Some(b.get(i)),
        ColumnData::Boxed(v) => expr::truth(&v[i]),
        _ => None,
    }
}

/// Builder for boolean result columns where some slots are NULL.
struct BoolBuilder {
    validity: Bitmap,
    bits: Bitmap,
}

impl BoolBuilder {
    fn with_capacity(n: usize) -> BoolBuilder {
        BoolBuilder { validity: Bitmap::with_capacity(n), bits: Bitmap::with_capacity(n) }
    }

    fn push(&mut self, v: Option<bool>) {
        self.validity.push(v.is_some());
        self.bits.push(v.unwrap_or(false));
    }

    /// Pushes a `Value` known to be `Bool` or `Null` (what `eval_cmp` and
    /// the three-valued connectives produce).
    fn push_value(&mut self, v: Value) {
        self.push(match v {
            Value::Bool(b) => Some(b),
            _ => None,
        })
    }

    fn finish(self) -> Column {
        Column { validity: self.validity, data: ColumnData::Bool(self.bits) }
    }
}

fn ord_to_bool(o: Ordering, op: CmpOp) -> bool {
    match op {
        CmpOp::Eq => o == Ordering::Equal,
        CmpOp::Ne => o != Ordering::Equal,
        CmpOp::Lt => o == Ordering::Less,
        CmpOp::Le => o != Ordering::Greater,
        CmpOp::Gt => o == Ordering::Greater,
        CmpOp::Ge => o != Ordering::Less,
    }
}

fn cmp_kernel(a: &Column, op: CmpOp, b: &Column) -> Column {
    let n = a.len();
    let mut out = BoolBuilder::with_capacity(n);
    let both = |i: usize| a.validity.get(i) && b.validity.get(i);
    match (&a.data, &b.data) {
        (ColumnData::I64(x), ColumnData::I64(y)) => {
            for i in 0..n {
                out.push(both(i).then(|| ord_to_bool(x[i].cmp(&y[i]), op)));
            }
        }
        (ColumnData::F64(x), ColumnData::F64(y)) => {
            for i in 0..n {
                let o = if both(i) { x[i].partial_cmp(&y[i]) } else { None };
                out.push(o.map(|o| ord_to_bool(o, op)));
            }
        }
        (ColumnData::I64(x), ColumnData::F64(y)) => {
            for i in 0..n {
                let o = if both(i) { (x[i] as f64).partial_cmp(&y[i]) } else { None };
                out.push(o.map(|o| ord_to_bool(o, op)));
            }
        }
        (ColumnData::F64(x), ColumnData::I64(y)) => {
            for i in 0..n {
                let o = if both(i) { x[i].partial_cmp(&(y[i] as f64)) } else { None };
                out.push(o.map(|o| ord_to_bool(o, op)));
            }
        }
        (ColumnData::Str(x), ColumnData::Str(y)) => {
            for i in 0..n {
                out.push(both(i).then(|| ord_to_bool(x.get(i).cmp(y.get(i)), op)));
            }
        }
        (ColumnData::Bool(x), ColumnData::Bool(y)) => {
            for i in 0..n {
                out.push(both(i).then(|| ord_to_bool(x.get(i).cmp(&y.get(i)), op)));
            }
        }
        // Boxed or cross-representation operands: defer to the row
        // primitive slot by slot (identical semantics by construction).
        _ => {
            for i in 0..n {
                out.push_value(expr::eval_cmp(&a.get(i), op, &b.get(i)));
            }
        }
    }
    out.finish()
}

fn num_kernel(a: &Column, op: NumOp, b: &Column) -> Column {
    let n = a.len();
    let both = |i: usize| a.validity.get(i) && b.validity.get(i);
    match (&a.data, &b.data) {
        // Integer arithmetic stays integer (checked — overflow and x % 0
        // become NULL), except division, which always yields a double.
        (ColumnData::I64(x), ColumnData::I64(y)) if op != NumOp::Div => {
            let mut validity = Bitmap::with_capacity(n);
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                let r = if both(i) {
                    match op {
                        NumOp::Add => x[i].checked_add(y[i]),
                        NumOp::Sub => x[i].checked_sub(y[i]),
                        NumOp::Mul => x[i].checked_mul(y[i]),
                        NumOp::Mod => {
                            if y[i] == 0 {
                                None
                            } else {
                                x[i].checked_rem(y[i])
                            }
                        }
                        NumOp::Div => unreachable!(),
                    }
                } else {
                    None
                };
                validity.push(r.is_some());
                out.push(r.unwrap_or(0));
            }
            Column { validity, data: ColumnData::I64(out) }
        }
        (ColumnData::I64(_) | ColumnData::F64(_), ColumnData::I64(_) | ColumnData::F64(_)) => {
            let as_f64 = |data: &ColumnData, i: usize| match data {
                ColumnData::I64(v) => v[i] as f64,
                ColumnData::F64(v) => v[i],
                _ => unreachable!(),
            };
            let mut validity = Bitmap::with_capacity(n);
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                if both(i) {
                    let (x, y) = (as_f64(&a.data, i), as_f64(&b.data, i));
                    validity.push(true);
                    out.push(match op {
                        NumOp::Add => x + y,
                        NumOp::Sub => x - y,
                        NumOp::Mul => x * y,
                        NumOp::Div => x / y,
                        NumOp::Mod => x % y,
                    });
                } else {
                    validity.push(false);
                    out.push(0.0);
                }
            }
            Column { validity, data: ColumnData::F64(out) }
        }
        // Non-numeric or mixed-representation operands: slot-by-slot via
        // the row primitive; results may mix I64/F64/NULL, so rebuild.
        _ => {
            let results = (0..n).map(|i| expr::eval_num(&a.get(i), op, &b.get(i))).collect();
            Column::from_values(results)
        }
    }
}

/// Evaluates a built-in bound expression over a whole batch, producing one
/// column. Typed columns take vectorized fast paths; mixed-type columns
/// fall back to per-slot evaluation with identical semantics. A bare column
/// reference shares the input column instead of copying it.
pub fn eval(e: &BoundExpr, batch: &ColumnBatch) -> Arc<Column> {
    let n = batch.len();
    match e {
        BoundExpr::Col(i) => Arc::clone(&batch.columns[*i]),
        BoundExpr::Lit(v) => Arc::new(Column::broadcast(v, n)),
        BoundExpr::Cmp(a, op, b) => Arc::new(cmp_kernel(&eval(a, batch), *op, &eval(b, batch))),
        BoundExpr::Num(a, op, b) => Arc::new(num_kernel(&eval(a, batch), *op, &eval(b, batch))),
        BoundExpr::And(a, b) => {
            let (ca, cb) = (eval(a, batch), eval(b, batch));
            let mut out = BoolBuilder::with_capacity(n);
            for i in 0..n {
                out.push(match (truth_at(&ca, i), truth_at(&cb, i)) {
                    (Some(false), _) | (_, Some(false)) => Some(false),
                    (Some(true), Some(true)) => Some(true),
                    _ => None,
                });
            }
            Arc::new(out.finish())
        }
        BoundExpr::Or(a, b) => {
            let (ca, cb) = (eval(a, batch), eval(b, batch));
            let mut out = BoolBuilder::with_capacity(n);
            for i in 0..n {
                out.push(match (truth_at(&ca, i), truth_at(&cb, i)) {
                    (Some(true), _) | (_, Some(true)) => Some(true),
                    (Some(false), Some(false)) => Some(false),
                    _ => None,
                });
            }
            Arc::new(out.finish())
        }
        BoundExpr::Not(a) => {
            let ca = eval(a, batch);
            let mut out = BoolBuilder::with_capacity(n);
            for i in 0..n {
                out.push(truth_at(&ca, i).map(|b| !b));
            }
            Arc::new(out.finish())
        }
        BoundExpr::IsNull(a) => {
            let ca = eval(a, batch);
            let mut out = BoolBuilder::with_capacity(n);
            for i in 0..n {
                out.push(Some(!ca.validity.get(i)));
            }
            Arc::new(out.finish())
        }
        BoundExpr::Udf { .. } => {
            unreachable!("an operator holding a UDF runs on rows, never on a batch")
        }
    }
}

// ---------------------------------------------------------------------------
// Operator kernels
// ---------------------------------------------------------------------------

/// Evaluates a filter predicate over the batch and returns the selection
/// vector of surviving row indices (only a definite `TRUE` keeps a row).
pub fn selection(pred: &BoundExpr, batch: &ColumnBatch) -> Vec<u32> {
    refine(pred, batch, None)
}

/// Refines a selection vector through a filter predicate *without*
/// materializing the batch: the predicate is evaluated over every slot
/// once, then only already-selected slots whose truth value is a definite
/// `TRUE` survive. `None` means "all slots selected". The order (ascending)
/// of the selection is preserved, so consecutive filters compose into one
/// final gather.
pub fn refine(pred: &BoundExpr, batch: &ColumnBatch, sel: Option<Vec<u32>>) -> Vec<u32> {
    let c = eval(pred, batch);
    match sel {
        Some(s) => s.into_iter().filter(|&i| truth_at(&c, i as usize) == Some(true)).collect(),
        None => {
            (0..batch.len).filter(|&i| truth_at(&c, i) == Some(true)).map(|i| i as u32).collect()
        }
    }
}

/// Projects the batch through `exprs` (one output column per expression).
pub fn project(exprs: &[BoundExpr], batch: &ColumnBatch) -> ColumnBatch {
    ColumnBatch { len: batch.len, columns: exprs.iter().map(|e| eval(e, batch)).collect() }
}

/// EXPLODE over column `col`: one output row per list element, the list
/// column replaced by the element. NULLs and non-lists yield no rows. The
/// other columns replicate through a selection vector with repetition.
pub fn explode(batch: &ColumnBatch, col: usize) -> ColumnBatch {
    let mut parents: Vec<u32> = Vec::new();
    let mut elems: Vec<Value> = Vec::new();
    let c = &batch.columns[col];
    for i in 0..batch.len {
        if let Value::List(items) = c.get(i) {
            for v in items.iter() {
                parents.push(i as u32);
                elems.push(v.clone());
            }
        }
    }
    let mut out = batch.gather(&parents);
    out.columns[col] = Arc::new(Column::from_values(elems));
    out
}

// ---------------------------------------------------------------------------
// §4.7 group-key encoding
// ---------------------------------------------------------------------------
//
// The group encoding is equality-faithful to `KeyValue` (`I64(1)`,
// `F64(1.0)` and `Str("1")` are three distinct keys, floats identified by
// bit pattern), and group keys are built column-at-a-time without per-row
// `Vec<KeyValue>` temporaries.

/// Iterates `(dense position, batch row index)` pairs of a selection
/// (`None` selects every row) — the driving loop shared by the
/// column-at-a-time group-key encoder and accumulators.
fn for_each_row(len: usize, sel: Option<&[u32]>, mut f: impl FnMut(usize, usize)) {
    match sel {
        Some(s) => {
            for (p, &i) in s.iter().enumerate() {
                f(p, i as usize);
            }
        }
        None => {
            for i in 0..len {
                f(i, i);
            }
        }
    }
}

// Group-identity alphabet: tag + exact payload, mirroring `KeyValue`'s
// `Hash`/`Eq` (floats by bit pattern, no cross-type identification).
const GK_NULL: u8 = 0;
const GK_BOOL: u8 = 1;
const GK_I64: u8 = 2;
const GK_F64: u8 = 3;
const GK_STR: u8 = 4;
const GK_BIN: u8 = 5;
const GK_LIST: u8 = 6;

/// Appends the group-identity encoding of one value: two values encode to
/// the same bytes **iff** they are equal as [`KeyValue`]s. Strings,
/// binaries and lists are length-prefixed (u32 LE), so the encoding is
/// self-delimiting and round-trips through [`decode_group_value`].
pub fn encode_group_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(GK_NULL),
        Value::Bool(b) => {
            out.push(GK_BOOL);
            out.push(*b as u8);
        }
        Value::I64(x) => {
            out.push(GK_I64);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::F64(x) => {
            out.push(GK_F64);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(GK_STR);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Bin(_) | Value::Ext(_) => {
            let b = v.bin_bytes().expect("binary cell");
            out.push(GK_BIN);
            out.extend_from_slice(&(b.len() as u32).to_le_bytes());
            out.extend_from_slice(&b);
        }
        Value::List(l) => {
            out.push(GK_LIST);
            out.extend_from_slice(&(l.len() as u32).to_le_bytes());
            for e in l.iter() {
                encode_group_value(out, e);
            }
        }
    }
}

fn split8(b: &[u8]) -> Option<([u8; 8], &[u8])> {
    if b.len() < 8 {
        return None;
    }
    let (a, rest) = b.split_at(8);
    Some((a.try_into().expect("8 bytes"), rest))
}

fn split_len(b: &[u8]) -> Option<(usize, &[u8])> {
    if b.len() < 4 {
        return None;
    }
    let (a, rest) = b.split_at(4);
    Some((u32::from_le_bytes(a.try_into().expect("4 bytes")) as usize, rest))
}

/// Decodes one group-identity value off the front of `bytes`, returning the
/// value and the remaining suffix (`None` on malformed input). The inverse
/// of [`encode_group_value`], bit-exact for floats.
pub fn decode_group_value(bytes: &[u8]) -> Option<(Value, &[u8])> {
    let (&tag, rest) = bytes.split_first()?;
    Some(match tag {
        GK_NULL => (Value::Null, rest),
        GK_BOOL => {
            let (&b, rest) = rest.split_first()?;
            (Value::Bool(b != 0), rest)
        }
        GK_I64 => {
            let (a, rest) = split8(rest)?;
            (Value::I64(i64::from_le_bytes(a)), rest)
        }
        GK_F64 => {
            let (a, rest) = split8(rest)?;
            (Value::F64(f64::from_bits(u64::from_le_bytes(a))), rest)
        }
        GK_STR => {
            let (len, rest) = split_len(rest)?;
            if rest.len() < len {
                return None;
            }
            let (s, rest) = rest.split_at(len);
            (Value::str(std::str::from_utf8(s).ok()?), rest)
        }
        GK_BIN => {
            let (len, rest) = split_len(rest)?;
            if rest.len() < len {
                return None;
            }
            let (b, rest) = rest.split_at(len);
            (Value::Bin(Arc::from(b)), rest)
        }
        GK_LIST => {
            let (len, mut rest) = split_len(rest)?;
            let mut items = Vec::with_capacity(len.min(64));
            for _ in 0..len {
                let (v, r) = decode_group_value(rest)?;
                items.push(v);
                rest = r;
            }
            (Value::list(items), rest)
        }
        _ => return None,
    })
}

/// Appends column `col`'s group-identity cells to the per-row key buffers,
/// typed column-at-a-time (no `Value` materialization on scalar columns).
fn encode_group_column(col: &Column, len: usize, sel: Option<&[u32]>, bufs: &mut [Vec<u8>]) {
    match &col.data {
        ColumnData::I64(xs) => for_each_row(len, sel, |p, i| {
            let out = &mut bufs[p];
            if col.validity.get(i) {
                out.push(GK_I64);
                out.extend_from_slice(&xs[i].to_le_bytes());
            } else {
                out.push(GK_NULL);
            }
        }),
        ColumnData::F64(xs) => for_each_row(len, sel, |p, i| {
            let out = &mut bufs[p];
            if col.validity.get(i) {
                out.push(GK_F64);
                out.extend_from_slice(&xs[i].to_bits().to_le_bytes());
            } else {
                out.push(GK_NULL);
            }
        }),
        ColumnData::Bool(bits) => for_each_row(len, sel, |p, i| {
            let out = &mut bufs[p];
            if col.validity.get(i) {
                out.extend_from_slice(&[GK_BOOL, bits.get(i) as u8]);
            } else {
                out.push(GK_NULL);
            }
        }),
        ColumnData::Str(arena) => for_each_row(len, sel, |p, i| {
            let out = &mut bufs[p];
            if col.validity.get(i) {
                let s = arena.get(i);
                out.push(GK_STR);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            } else {
                out.push(GK_NULL);
            }
        }),
        ColumnData::Boxed(vs) => for_each_row(len, sel, |p, i| {
            let out = &mut bufs[p];
            if col.validity.get(i) {
                encode_group_value(out, &vs[i]);
            } else {
                out.push(GK_NULL);
            }
        }),
    }
}

// ---------------------------------------------------------------------------
// Vectorized group-by kernel
// ---------------------------------------------------------------------------

/// Partial SUM state, replicating the row path's `AggState::Sum` fold
/// (`create` then left-to-right `merge` via `add_values`) with typed
/// storage. `Poison` is the absorbing `Some(Null)` state that integer
/// overflow or a non-numeric addend produces; it is distinct from `Empty`
/// (`None`, no non-null value seen), which the wire codec keeps separate.
#[derive(Clone)]
enum SumState {
    Empty,
    I64(i64),
    F64(f64),
    Poison,
    /// A single non-numeric first value (`SUM` of one string row returns
    /// that string, like the row path); any further addend poisons it.
    Other(Value),
}

fn sum_push_i64(s: &mut SumState, x: i64) {
    match s {
        SumState::Empty => *s = SumState::I64(x),
        SumState::I64(a) => match a.checked_add(x) {
            Some(r) => *a = r,
            None => *s = SumState::Poison,
        },
        SumState::F64(a) => *a += x as f64,
        SumState::Poison => {}
        SumState::Other(_) => *s = SumState::Poison,
    }
}

fn sum_push_f64(s: &mut SumState, x: f64) {
    match s {
        SumState::Empty => *s = SumState::F64(x),
        SumState::I64(a) => *s = SumState::F64(*a as f64 + x),
        SumState::F64(a) => *a += x,
        SumState::Poison => {}
        SumState::Other(_) => *s = SumState::Poison,
    }
}

/// Generic (boxed-column) SUM transition for a non-null value.
fn sum_push(s: &mut SumState, v: Value) {
    match v {
        Value::I64(x) => sum_push_i64(s, x),
        Value::F64(x) => sum_push_f64(s, x),
        v => match s {
            SumState::Empty => *s = SumState::Other(v),
            _ => *s = SumState::Poison,
        },
    }
}

impl SumState {
    fn finish(self) -> AggState {
        AggState::Sum(match self {
            SumState::Empty => None,
            SumState::I64(x) => Some(Value::I64(x)),
            SumState::F64(x) => Some(Value::F64(x)),
            SumState::Poison => Some(Value::Null),
            SumState::Other(v) => Some(v),
        })
    }
}

/// MIN/MAX transition: keep the accumulated value on ties (the row path's
/// `merge` keeps its left operand when `value_cmp` says equal).
fn minmax_push(slot: &mut Option<Value>, v: Value, want_max: bool) {
    match slot {
        None => *slot = Some(v),
        Some(acc) => {
            let o = value_cmp(acc, &v);
            let keep = if want_max { o.is_ge() } else { o.is_le() };
            if !keep {
                *slot = Some(v);
            }
        }
    }
}

/// One aggregate's per-group state column: typed vectors indexed by group
/// id, each update a column-at-a-time pass over the batch. Every transition
/// replicates `AggState::create` + left-fold `AggState::merge` over the
/// partition's rows in row order, so the emitted states are byte-identical
/// (under `GroupPairCodec`) to the row path's map-side combine output.
enum Accumulator {
    Count(Vec<i64>),
    CountCol {
        col: usize,
        counts: Vec<i64>,
    },
    Sum {
        col: usize,
        states: Vec<SumState>,
    },
    /// `seen` marks groups whose first row has landed: the row fold *sets*
    /// the first row's contribution (keeping `-0.0` / NaN payload bits) and
    /// *adds* every later one — including `+ 0.0` for NULL or non-numeric
    /// rows, which flips `-0.0` sums to `+0.0`. Both behaviours must be
    /// replicated bit-for-bit.
    Avg {
        col: usize,
        sums: Vec<f64>,
        ns: Vec<i64>,
        seen: Vec<bool>,
    },
    MinMax {
        col: usize,
        want_max: bool,
        states: Vec<Option<Value>>,
    },
    First {
        col: usize,
        states: Vec<Option<Value>>,
    },
    List {
        col: usize,
        lists: Vec<Vec<Value>>,
    },
}

impl Accumulator {
    fn new(agg: &Agg, col: Option<usize>) -> Accumulator {
        let col = || col.expect("column aggregate resolved at compile time");
        match agg {
            Agg::Count => Accumulator::Count(Vec::new()),
            Agg::CountCol(_) => Accumulator::CountCol { col: col(), counts: Vec::new() },
            Agg::Sum(_) => Accumulator::Sum { col: col(), states: Vec::new() },
            Agg::Avg(_) => {
                Accumulator::Avg { col: col(), sums: Vec::new(), ns: Vec::new(), seen: Vec::new() }
            }
            Agg::Min(_) => Accumulator::MinMax { col: col(), want_max: false, states: Vec::new() },
            Agg::Max(_) => Accumulator::MinMax { col: col(), want_max: true, states: Vec::new() },
            Agg::First(_) => Accumulator::First { col: col(), states: Vec::new() },
            Agg::CollectList(_) => Accumulator::List { col: col(), lists: Vec::new() },
        }
    }

    /// Appends the initial state of a freshly inserted group.
    fn push_group(&mut self) {
        match self {
            Accumulator::Count(v) => v.push(0),
            Accumulator::CountCol { counts, .. } => counts.push(0),
            Accumulator::Sum { states, .. } => states.push(SumState::Empty),
            Accumulator::Avg { sums, ns, seen, .. } => {
                sums.push(0.0);
                ns.push(0);
                seen.push(false);
            }
            Accumulator::MinMax { states, .. } | Accumulator::First { states, .. } => {
                states.push(None)
            }
            Accumulator::List { lists, .. } => lists.push(Vec::new()),
        }
    }

    /// Folds the batch's (selected) rows into the group states, `gids[p]`
    /// naming row `p`'s group.
    fn update(&mut self, gids: &[u32], batch: &ColumnBatch, sel: Option<&[u32]>) {
        let len = batch.len;
        match self {
            Accumulator::Count(v) => {
                for &g in gids {
                    v[g as usize] += 1;
                }
            }
            Accumulator::CountCol { col, counts } => {
                let c = &batch.columns[*col];
                for_each_row(len, sel, |p, i| {
                    if c.validity.get(i) {
                        counts[gids[p] as usize] += 1;
                    }
                });
            }
            Accumulator::Sum { col, states } => {
                let c = &batch.columns[*col];
                match &c.data {
                    ColumnData::I64(xs) => for_each_row(len, sel, |p, i| {
                        if c.validity.get(i) {
                            sum_push_i64(&mut states[gids[p] as usize], xs[i]);
                        }
                    }),
                    ColumnData::F64(xs) => for_each_row(len, sel, |p, i| {
                        if c.validity.get(i) {
                            sum_push_f64(&mut states[gids[p] as usize], xs[i]);
                        }
                    }),
                    _ => for_each_row(len, sel, |p, i| {
                        if c.validity.get(i) {
                            sum_push(&mut states[gids[p] as usize], c.get(i));
                        }
                    }),
                }
            }
            Accumulator::Avg { col, sums, ns, seen } => {
                let c = &batch.columns[*col];
                let mut push = |g: usize, x: Option<f64>| {
                    let contrib = match x {
                        Some(x) => {
                            ns[g] += 1;
                            x
                        }
                        None => 0.0,
                    };
                    if seen[g] {
                        sums[g] += contrib;
                    } else {
                        sums[g] = contrib;
                        seen[g] = true;
                    }
                };
                match &c.data {
                    ColumnData::I64(xs) => for_each_row(len, sel, |p, i| {
                        let g = gids[p] as usize;
                        push(g, c.validity.get(i).then(|| xs[i] as f64));
                    }),
                    ColumnData::F64(xs) => for_each_row(len, sel, |p, i| {
                        let g = gids[p] as usize;
                        push(g, c.validity.get(i).then(|| xs[i]));
                    }),
                    _ => for_each_row(len, sel, |p, i| {
                        let g = gids[p] as usize;
                        push(g, if c.validity.get(i) { c.get(i).as_f64() } else { None });
                    }),
                }
            }
            Accumulator::MinMax { col, want_max, states } => {
                let c = &batch.columns[*col];
                let want_max = *want_max;
                match &c.data {
                    ColumnData::Str(arena) => for_each_row(len, sel, |p, i| {
                        if !c.validity.get(i) {
                            return;
                        }
                        let s = arena.get(i);
                        let slot = &mut states[gids[p] as usize];
                        // Compare without allocating; only a new extreme
                        // materializes an `Arc<str>`.
                        if let Some(Value::Str(acc)) = slot {
                            let replace =
                                if want_max { s > acc.as_ref() } else { s < acc.as_ref() };
                            if replace {
                                *slot = Some(Value::str(s));
                            }
                        } else {
                            minmax_push(slot, Value::str(s), want_max);
                        }
                    }),
                    _ => for_each_row(len, sel, |p, i| {
                        if c.validity.get(i) {
                            minmax_push(&mut states[gids[p] as usize], c.get(i), want_max);
                        }
                    }),
                }
            }
            Accumulator::First { col, states } => {
                let c = &batch.columns[*col];
                for_each_row(len, sel, |p, i| {
                    let slot = &mut states[gids[p] as usize];
                    if slot.is_none() && c.validity.get(i) {
                        *slot = Some(c.get(i));
                    }
                });
            }
            Accumulator::List { col, lists } => {
                let c = &batch.columns[*col];
                for_each_row(len, sel, |p, i| {
                    if c.validity.get(i) {
                        lists[gids[p] as usize].push(c.get(i));
                    }
                });
            }
        }
    }

    fn finish(self) -> Vec<AggState> {
        match self {
            Accumulator::Count(v) | Accumulator::CountCol { counts: v, .. } => {
                v.into_iter().map(AggState::Count).collect()
            }
            Accumulator::Sum { states, .. } => states.into_iter().map(SumState::finish).collect(),
            Accumulator::Avg { sums, ns, .. } => {
                sums.into_iter().zip(ns).map(|(sum, n)| AggState::Avg { sum, n }).collect()
            }
            Accumulator::MinMax { want_max, states, .. } => states
                .into_iter()
                .map(|v| if want_max { AggState::Max(v) } else { AggState::Min(v) })
                .collect(),
            Accumulator::First { states, .. } => states.into_iter().map(AggState::First).collect(),
            Accumulator::List { lists, .. } => lists.into_iter().map(AggState::List).collect(),
        }
    }
}

/// SplitMix64's output mixer: bijective, avalanches all 64 bits. FxHash is
/// multiplicative-only, so its low bits — exactly the ones the open-addressed
/// table masks off — barely mix; on sequential integer keys the raw hashes
/// form a lattice that linear probing amplifies into huge primary clusters
/// (probe chains thousands of slots long). One extra mix makes the masked
/// bits uniform and keeps inserts O(1).
#[inline]
fn splitmix_finish(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58476d1ce4e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d049bb133111eb);
    h ^= h >> 31;
    h
}

/// Reduce-side merge for the vectorized aggregation path: folds the
/// shuffle's concatenated `(key, states)` bucket into first-occurrence key
/// order, merging duplicates in stream order — exactly what
/// [`ShuffledRdd`](crate::rdd) does reduce-side when built with a merge
/// function, so output is byte-identical. The difference is mechanical: an
/// open-addressed table probed with a mixed 64-bit hash instead of a
/// `HashMap<Vec<KeyValue>, _>` whose unmixed multiplicative hashes cluster
/// badly on sequential keys — and the bucket is read *borrowed*, so only
/// each group's first occurrence is cloned ([`AggState::merge_ref`] folds
/// the duplicates in place) rather than every incoming pair.
pub(crate) fn merge_group_pairs(
    pairs: &[(Vec<KeyValue>, Vec<AggState>)],
) -> Vec<(Vec<KeyValue>, Vec<AggState>)> {
    let hint = pairs.len();
    let mut cap = 16usize;
    while cap * 7 < hint.saturating_mul(8) {
        cap *= 2;
    }
    let mut slots: Vec<u32> = vec![0; cap];
    let mut mask = (cap - 1) as u64;
    let mut hashes: Vec<u64> = Vec::with_capacity(hint);
    let mut out: Vec<(Vec<KeyValue>, Vec<AggState>)> = Vec::with_capacity(hint);
    for (k, states) in pairs {
        let h = splitmix_finish(fx_hash(k));
        let mut idx = (h & mask) as usize;
        loop {
            let slot = slots[idx];
            if slot == 0 {
                slots[idx] = out.len() as u32 + 1;
                hashes.push(h);
                out.push((k.clone(), states.clone()));
                break;
            }
            let g = (slot - 1) as usize;
            if hashes[g] == h && out[g].0 == *k {
                for (a, b) in out[g].1.iter_mut().zip(states) {
                    a.merge_ref(b);
                }
                break;
            }
            idx = (idx + 1) & mask as usize;
        }
        // Same 7/8 growth discipline as [`GroupByKernel`].
        if (out.len() + 1) * 8 > slots.len() * 7 {
            let grown = slots.len() * 2;
            slots.clear();
            slots.resize(grown, 0);
            mask = (grown - 1) as u64;
            for (g, &h) in hashes.iter().enumerate() {
                let mut idx = (h & mask) as usize;
                while slots[idx] != 0 {
                    idx = (idx + 1) & mask as usize;
                }
                slots[idx] = g as u32 + 1;
            }
        }
    }
    out
}

/// The per-partition vectorized hash group-by: batches stream in (with an
/// optional selection vector, so a fused filter needs no gather), groups
/// accumulate in typed state columns, and one `(key, states)` pair per
/// **distinct group** streams out — in first-occurrence row order, which is
/// exactly the order the row path's insertion-ordered map-side combine
/// produces, keeping all physical paths byte-identical.
///
/// Group identity is an open-addressed table over the encoded key bytes
/// (arena-backed, linear probing, power-of-two capacity): one probe per
/// row against a flat `Vec<u32>` slot array replaces the row path's
/// per-row `Vec<KeyValue>` allocation + `HashMap` rehash.
pub(crate) struct GroupByKernel {
    key_cols: Vec<usize>,
    /// `group id + 1` per slot; 0 = empty.
    slots: Vec<u32>,
    mask: u64,
    /// Per-group probe hashes (for rehashing and fast inequality).
    hashes: Vec<u64>,
    /// Encoded key bytes, arena-packed: group `g` owns
    /// `key_arena[key_offsets[g]..key_offsets[g + 1]]`.
    key_offsets: Vec<usize>,
    key_arena: Vec<u8>,
    /// Materialized keys in first-occurrence order (the emission order and
    /// the shuffle partitioning input).
    keys: Vec<Vec<KeyValue>>,
    accs: Vec<Accumulator>,
    rows_in: u64,
    /// Per-row scratch, reused across batches (capacity retained).
    bufs: Vec<Vec<u8>>,
    gids: Vec<u32>,
}

impl GroupByKernel {
    pub(crate) fn new(key_cols: Vec<usize>, specs: &[(Agg, Option<usize>)]) -> GroupByKernel {
        GroupByKernel {
            key_cols,
            slots: vec![0; 16],
            mask: 15,
            hashes: Vec::new(),
            key_offsets: vec![0],
            key_arena: Vec::new(),
            keys: Vec::new(),
            accs: specs.iter().map(|(a, c)| Accumulator::new(a, *c)).collect(),
            rows_in: 0,
            bufs: Vec::new(),
            gids: Vec::new(),
        }
    }

    /// Grows the slot array (rebuilding from the stored hashes) until
    /// `additional` more groups would keep occupancy under 7/8. Called once
    /// per batch with the batch's row count — the worst case of every row
    /// starting a group — so the probe loop carries no growth check and the
    /// table always probes below the threshold load.
    fn reserve(&mut self, additional: usize) {
        let needed = self.hashes.len() + additional;
        let mut cap = self.slots.len();
        while (needed + 1) * 8 > cap * 7 {
            cap *= 2;
        }
        if cap == self.slots.len() {
            return;
        }
        self.slots.clear();
        self.slots.resize(cap, 0);
        self.mask = (cap - 1) as u64;
        for (g, &h) in self.hashes.iter().enumerate() {
            let mut idx = (h & self.mask) as usize;
            while self.slots[idx] != 0 {
                idx = (idx + 1) & self.mask as usize;
            }
            self.slots[idx] = g as u32 + 1;
        }
    }

    /// Folds one batch (optionally filtered by `sel`) into the group table.
    pub(crate) fn push_batch(&mut self, batch: &ColumnBatch, sel: Option<&[u32]>) {
        let n = sel.map_or(batch.len, |s| s.len());
        if n == 0 {
            return;
        }
        self.rows_in += n as u64;
        // Encode group keys column-at-a-time into the per-row scratch.
        if self.bufs.len() < n {
            self.bufs.resize_with(n, Vec::new);
        }
        for b in &mut self.bufs[..n] {
            b.clear();
        }
        for &c in &self.key_cols {
            encode_group_column(&batch.columns[c], batch.len, sel, &mut self.bufs[..n]);
        }
        // Probe/insert each row, recording its group id.
        self.reserve(n);
        self.gids.resize(n, 0);
        for p in 0..n {
            let key = &self.bufs[p];
            let h = splitmix_finish(fx_hash_bytes(key));
            let mut idx = (h & self.mask) as usize;
            let gid = loop {
                let slot = self.slots[idx];
                if slot == 0 {
                    let g = self.hashes.len() as u32;
                    self.hashes.push(h);
                    self.key_arena.extend_from_slice(key);
                    self.key_offsets.push(self.key_arena.len());
                    let row = match sel {
                        Some(s) => s[p] as usize,
                        None => p,
                    };
                    self.keys.push(
                        self.key_cols
                            .iter()
                            .map(|&c| KeyValue(batch.columns[c].get(row)))
                            .collect(),
                    );
                    for acc in &mut self.accs {
                        acc.push_group();
                    }
                    self.slots[idx] = g + 1;
                    break g;
                }
                let g = (slot - 1) as usize;
                if self.hashes[g] == h
                    && self.key_arena[self.key_offsets[g]..self.key_offsets[g + 1]] == key[..]
                {
                    break g as u32;
                }
                idx = (idx + 1) & self.mask as usize;
            };
            self.gids[p] = gid;
        }
        // Accumulate column-at-a-time.
        let gids = &self.gids[..n];
        for acc in &mut self.accs {
            acc.update(gids, batch, sel);
        }
    }

    pub(crate) fn rows_in(&self) -> u64 {
        self.rows_in
    }

    pub(crate) fn groups_out(&self) -> u64 {
        self.keys.len() as u64
    }

    /// Emits one pair per distinct group, in first-occurrence order.
    pub(crate) fn finish(self) -> Vec<(Vec<KeyValue>, Vec<AggState>)> {
        let GroupByKernel { keys, accs, .. } = self;
        let mut cols: Vec<std::vec::IntoIter<AggState>> =
            accs.into_iter().map(|a| a.finish().into_iter()).collect();
        keys.into_iter()
            .map(|k| (k, cols.iter_mut().map(|it| it.next().expect("state per group")).collect()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc;

    fn mixed_values() -> Vec<Value> {
        vec![
            Value::I64(1),
            Value::Null,
            Value::str("hello"),
            Value::F64(2.5),
            Value::Bool(true),
            Value::list(vec![Value::I64(1), Value::Null]),
            Value::Bin(Arc::from(&b"\x00\xFF"[..])),
        ]
    }

    #[test]
    fn bitmap_push_get_count() {
        let mut b = Bitmap::with_capacity(3);
        for i in 0..130 {
            b.push(i % 3 == 0);
        }
        assert_eq!(b.len(), 130);
        for i in 0..130 {
            assert_eq!(b.get(i), i % 3 == 0, "bit {i}");
        }
        assert_eq!(b.count_ones(), (0..130).filter(|i| i % 3 == 0).count());
        assert_eq!(Bitmap::filled(70, true).count_ones(), 70);
        assert_eq!(Bitmap::filled(70, false).count_ones(), 0);
    }

    #[test]
    fn arena_offsets_stay_consistent() {
        let mut a = StrArena::default();
        let strs = ["", "a", "héllo", "", "—wide—"];
        for s in strs {
            a.push(s);
        }
        assert_eq!(a.len(), strs.len());
        for (i, s) in strs.iter().enumerate() {
            assert_eq!(a.get(i), *s);
        }
        // Offsets are monotone and bracket the byte buffer exactly.
        let offs = a.offsets();
        assert_eq!(offs.len(), strs.len() + 1);
        assert_eq!(offs[0], 0);
        assert!(offs.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*offs.last().unwrap(), strs.iter().map(|s| s.len()).sum::<usize>());
    }

    #[test]
    fn column_representation_adapts_to_data() {
        let ints = Column::from_values(vec![Value::I64(1), Value::Null, Value::I64(3)]);
        assert!(matches!(ints.data(), ColumnData::I64(_)));
        assert!(!ints.is_valid(1));

        let strs = Column::from_values(vec![Value::str("x"), Value::Null]);
        assert!(matches!(strs.data(), ColumnData::Str(_)));

        let bools = Column::from_values(vec![Value::Bool(true), Value::Bool(false)]);
        assert!(matches!(bools.data(), ColumnData::Bool(_)));

        // Mixed scalar types and compound values fall back to boxed.
        let mixed = Column::from_values(vec![Value::I64(1), Value::str("x")]);
        assert!(matches!(mixed.data(), ColumnData::Boxed(_)));
        let lists = Column::from_values(vec![Value::list(vec![])]);
        assert!(matches!(lists.data(), ColumnData::Boxed(_)));
    }

    #[test]
    fn batch_round_trips_mixed_rows() {
        let rows: Vec<Row> =
            vec![mixed_values(), mixed_values().into_iter().rev().collect(), vec![Value::Null; 7]];
        let batch = ColumnBatch::from_rows(7, rows.clone());
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.width(), 7);
        assert_eq!(batch.to_rows(), rows);
    }

    #[test]
    fn empty_and_single_row_batches() {
        let empty = ColumnBatch::from_rows(2, vec![]);
        assert!(empty.is_empty());
        assert_eq!(empty.to_rows(), Vec::<Row>::new());
        let one = ColumnBatch::from_rows(1, vec![vec![Value::F64(f64::NAN)]]);
        let back = one.to_rows();
        // NaN round-trips by bit pattern.
        match &back[0][0] {
            Value::F64(x) => assert!(x.is_nan()),
            other => panic!("expected F64, got {other:?}"),
        }
    }

    #[test]
    fn selection_vector_filters_only_definite_true() {
        let rows: Vec<Row> = vec![
            vec![Value::I64(5)],
            vec![Value::Null],
            vec![Value::I64(50)],
            vec![Value::str("not a number")],
        ];
        let batch = ColumnBatch::from_rows(1, rows);
        // col0 > 10 — NULL and the incompatible string both drop.
        let pred = BoundExpr::Cmp(
            Box::new(BoundExpr::Col(0)),
            CmpOp::Gt,
            Box::new(BoundExpr::Lit(Value::I64(10))),
        );
        assert_eq!(selection(&pred, &batch), vec![2]);
        let kept = batch.gather(&selection(&pred, &batch));
        assert_eq!(kept.to_rows(), vec![vec![Value::I64(50)]]);
    }

    #[test]
    fn explode_kernel_matches_row_semantics() {
        let rows: Vec<Row> = vec![
            vec![Value::I64(1), Value::list(vec![Value::str("a"), Value::str("b")])],
            vec![Value::I64(2), Value::list(vec![])],
            vec![Value::I64(3), Value::Null],
            vec![Value::I64(4), Value::str("not a list")],
            vec![Value::I64(5), Value::list(vec![Value::Null])],
        ];
        let batch = ColumnBatch::from_rows(2, rows);
        let out = explode(&batch, 1);
        assert_eq!(
            out.to_rows(),
            vec![
                vec![Value::I64(1), Value::str("a")],
                vec![Value::I64(1), Value::str("b")],
                vec![Value::I64(5), Value::Null],
            ]
        );
    }

    #[test]
    fn validity_carries_across_batch_seams() {
        // Split one logical column at an awkward seam (mid-word for the
        // bitmaps) and check both halves agree with the whole.
        let values: Vec<Value> =
            (0..100).map(|i| if i % 7 == 0 { Value::Null } else { Value::I64(i) }).collect();
        let whole = Column::from_values(values.clone());
        let first = Column::from_values(values[..37].to_vec());
        let second = Column::from_values(values[37..].to_vec());
        for i in 0..100 {
            let got = if i < 37 { first.get(i) } else { second.get(i - 37) };
            assert_eq!(got, whole.get(i), "slot {i}");
        }
        assert_eq!(
            first.validity.count_ones() + second.validity.count_ones(),
            whole.validity.count_ones()
        );
    }

    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::I64),
            any::<f64>().prop_map(Value::F64),
            "[a-z]{0,12}".prop_map(Value::str),
            prop::collection::vec(any::<u8>(), 0..8)
                .prop_map(|b| Value::Bin(Arc::from(b.as_slice()))),
            prop::collection::vec(any::<i64>(), 0..4)
                .prop_map(|v| Value::list(v.into_iter().map(Value::I64).collect())),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Any column of arbitrary values — homogeneous or mixed, with NULLs,
        // NaNs and compound values — round-trips row→columnar→row
        // losslessly (f64 by bit pattern).
        #[test]
        fn any_column_round_trips(values in prop::collection::vec(arb_value(), 0..50)) {
            let col = Column::from_values(values.clone());
            prop_assert_eq!(col.len(), values.len());
            for (i, v) in values.iter().enumerate() {
                let got = col.get(i);
                let same = match (&got, v) {
                    (Value::F64(a), Value::F64(b)) => a.to_bits() == b.to_bits(),
                    (a, b) => a == b,
                };
                prop_assert!(same, "slot {} changed: {:?} vs {:?}", i, got, v);
                prop_assert_eq!(col.is_valid(i), !v.is_null());
            }
        }

        // Gather preserves values under any selection vector (with
        // repetition and reordering).
        #[test]
        fn gather_preserves_values(
            values in prop::collection::vec(arb_value(), 1..40),
            picks in prop::collection::vec(any::<u32>(), 0..60),
        ) {
            let col = Column::from_values(values.clone());
            let sel: Vec<u32> = picks.iter().map(|p| p % values.len() as u32).collect();
            let gathered = col.gather(&sel);
            prop_assert_eq!(gathered.len(), sel.len());
            for (out, &src) in sel.iter().enumerate() {
                let (a, b) = (gathered.get(out), col.get(src as usize));
                let same = match (&a, &b) {
                    (Value::F64(x), Value::F64(y)) => x.to_bits() == y.to_bits(),
                    (x, y) => x == y,
                };
                prop_assert!(same, "gathered slot {} differs", out);
            }
        }
    }

    // --- group identity encoding ---

    /// Values with nested lists (lists of lists, lists of mixed scalars) on
    /// top of [`arb_value`]'s flat shapes.
    fn arb_deep_value() -> impl Strategy<Value = Value> {
        arb_value().prop_recursive(3, 24, 4, |inner| {
            prop::collection::vec(inner, 0..4).prop_map(Value::list)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Group-key bytes are equality-faithful: equal bytes exactly when
        // the `KeyValue`s are equal (I64(1), F64(1.0), Str("1") and
        // Bool(true) all stay distinct; F64 compares by bit pattern).
        #[test]
        fn group_encoding_is_equality_faithful(a in arb_deep_value(), b in arb_deep_value()) {
            let (mut ka, mut kb) = (Vec::new(), Vec::new());
            encode_group_value(&mut ka, &a);
            encode_group_value(&mut kb, &b);
            prop_assert_eq!(ka == kb, KeyValue(a.clone()) == KeyValue(b.clone()));
        }

        // Every value round-trips through the group encoding bit-exactly
        // with no trailing bytes.
        #[test]
        fn group_encoding_round_trips(v in arb_deep_value()) {
            let mut bytes = Vec::new();
            encode_group_value(&mut bytes, &v);
            let (decoded, rest) = decode_group_value(&bytes).expect("well-formed encoding");
            prop_assert!(rest.is_empty());
            prop_assert_eq!(KeyValue(decoded), KeyValue(v));
        }
    }

    #[test]
    fn group_encoding_keeps_numeric_twins_distinct() {
        let twins = [
            Value::I64(1),
            Value::F64(1.0),
            Value::str("1"),
            Value::Bool(true),
            Value::Null,
            Value::list(vec![Value::I64(1)]),
        ];
        let encs: Vec<Vec<u8>> = twins
            .iter()
            .map(|v| {
                let mut b = Vec::new();
                encode_group_value(&mut b, v);
                b
            })
            .collect();
        for i in 0..encs.len() {
            for j in i + 1..encs.len() {
                assert_ne!(encs[i], encs[j], "{:?} vs {:?}", twins[i], twins[j]);
            }
        }
    }

    // --- vectorized group-by kernel ---

    /// Low-cardinality keys that force collisions across *types* too:
    /// `I64(1)` and `F64(1.0)` land in the pool together, so a kernel that
    /// conflated numerically-equal keys of different types would fail.
    fn arb_group_key() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            (0i64..4).prop_map(Value::I64),
            (0i64..3).prop_map(|i| Value::F64(i as f64)),
            "[ab]{0,2}".prop_map(Value::str),
            any::<bool>().prop_map(Value::Bool),
        ]
    }

    /// Aggregation payloads: everything [`arb_value`] makes, plus the i64
    /// extremes so `SUM` overflow (the `Some(Null)` poison state) occurs.
    fn arb_agg_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            arb_value(),
            arb_value(),
            arb_value(),
            Just(Value::I64(i64::MAX)),
            Just(Value::I64(i64::MIN)),
        ]
    }

    /// One spec per aggregate kind, all over the value column `vi`.
    fn all_agg_specs(vi: usize) -> Vec<(Agg, Option<usize>)> {
        vec![
            (Agg::Count, None),
            (Agg::CountCol("v".into()), Some(vi)),
            (Agg::Sum("v".into()), Some(vi)),
            (Agg::Avg("v".into()), Some(vi)),
            (Agg::Min("v".into()), Some(vi)),
            (Agg::Max("v".into()), Some(vi)),
            (Agg::First("v".into()), Some(vi)),
            (Agg::CollectList("v".into()), Some(vi)),
        ]
    }

    /// The row path's map-side combine, verbatim: create one state per row,
    /// merge into the first-occurrence slot.
    fn reference_group_by(
        rows: &[Row],
        key_cols: &[usize],
        specs: &[(Agg, Option<usize>)],
    ) -> Vec<(Vec<KeyValue>, Vec<AggState>)> {
        let mut index: std::collections::HashMap<Vec<KeyValue>, usize> = Default::default();
        let mut out: Vec<(Vec<KeyValue>, Vec<AggState>)> = Vec::new();
        for row in rows {
            let keys: Vec<KeyValue> = key_cols.iter().map(|&i| KeyValue(row[i].clone())).collect();
            let states: Vec<AggState> =
                specs.iter().map(|(a, idx)| AggState::create(a, idx.map(|i| &row[i]))).collect();
            match index.get(&keys) {
                Some(&g) => {
                    let old = std::mem::take(&mut out[g].1);
                    out[g].1 = old.into_iter().zip(states).map(|(a, b)| a.merge(b)).collect();
                }
                None => {
                    index.insert(keys.clone(), out.len());
                    out.push((keys, states));
                }
            }
        }
        out
    }

    /// Compares group-by outputs through the shuffle wire codec, which is
    /// sensitive to everything that must match: group order, key identity,
    /// f64 bits, and `Sum`'s `None` vs `Some(Null)` distinction.
    fn wire_bytes(pairs: &[(Vec<KeyValue>, Vec<AggState>)]) -> Vec<u8> {
        use crate::CacheCodec;
        super::super::plan::GroupPairCodec.encode(pairs)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // The vectorized kernel produces wire-identical output to the row
        // path's fold — all eight aggregate kinds, two mixed-type key
        // columns, any batching seam.
        #[test]
        fn group_kernel_matches_row_fold(
            rows in prop::collection::vec((arb_group_key(), arb_group_key(), arb_agg_value()), 0..120),
            chunk_sel in 0usize..3,
        ) {
            let chunk = [1usize, 3, 1024][chunk_sel];
            let rows: Vec<Row> = rows.into_iter().map(|(a, b, v)| vec![a, b, v]).collect();
            let specs = all_agg_specs(2);
            let expect = reference_group_by(&rows, &[0, 1], &specs);
            let mut kernel = GroupByKernel::new(vec![0, 1], &specs);
            for c in rows.chunks(chunk) {
                kernel.push_batch(&ColumnBatch::from_rows(3, c.to_vec()), None);
            }
            prop_assert_eq!(kernel.rows_in(), rows.len() as u64);
            prop_assert_eq!(kernel.groups_out(), expect.len() as u64);
            prop_assert_eq!(wire_bytes(&kernel.finish()), wire_bytes(&expect));
        }

        // A selection vector restricts the kernel to exactly the selected
        // rows, in batch order.
        #[test]
        fn group_kernel_respects_selection_vectors(
            rows in prop::collection::vec((arb_group_key(), arb_agg_value(), any::<bool>()), 0..80),
        ) {
            let specs = all_agg_specs(1);
            let kept: Vec<Row> = rows
                .iter()
                .filter(|(_, _, keep)| *keep)
                .map(|(k, v, _)| vec![k.clone(), v.clone()])
                .collect();
            let expect = reference_group_by(&kept, &[0], &specs);
            let mut kernel = GroupByKernel::new(vec![0], &specs);
            for c in rows.chunks(7) {
                let batch = ColumnBatch::from_rows(
                    2,
                    c.iter().map(|(k, v, _)| vec![k.clone(), v.clone()]).collect(),
                );
                let sel: Vec<u32> = c
                    .iter()
                    .enumerate()
                    .filter(|(_, (_, _, keep))| *keep)
                    .map(|(i, _)| i as u32)
                    .collect();
                kernel.push_batch(&batch, Some(&sel));
            }
            prop_assert_eq!(wire_bytes(&kernel.finish()), wire_bytes(&expect));
        }

        // The reduce-side bucket merge — open-addressed probing plus the
        // in-place `AggState::merge_ref` — is wire-identical to the
        // insertion-ordered fold over owned `AggState::merge`, which is
        // what `ShuffledRdd`'s generic reduce merge computes. All eight
        // aggregate kinds, duplicate keys in arbitrary stream positions.
        #[test]
        fn bucket_merge_matches_owned_merge_fold(
            rows in prop::collection::vec((arb_group_key(), arb_agg_value()), 0..120),
        ) {
            let specs = all_agg_specs(1);
            let rows: Vec<Row> = rows.into_iter().map(|(k, v)| vec![k, v]).collect();
            let expect = reference_group_by(&rows, &[0], &specs);
            let pairs: Vec<(Vec<KeyValue>, Vec<AggState>)> = rows
                .iter()
                .map(|row| {
                    let keys = vec![KeyValue(row[0].clone())];
                    let states = specs
                        .iter()
                        .map(|(a, idx)| AggState::create(a, idx.map(|i| &row[i])))
                        .collect();
                    (keys, states)
                })
                .collect();
            prop_assert_eq!(wire_bytes(&merge_group_pairs(&pairs)), wire_bytes(&expect));
        }
    }

    #[test]
    fn group_kernel_emits_first_occurrence_order() {
        let rows: Vec<Row> = vec![
            vec![Value::str("b"), Value::I64(1)],
            vec![Value::str("a"), Value::I64(2)],
            vec![Value::str("b"), Value::I64(3)],
            vec![Value::Null, Value::I64(4)],
        ];
        let specs = vec![(Agg::Sum("v".into()), Some(1))];
        let mut kernel = GroupByKernel::new(vec![0], &specs);
        kernel.push_batch(&ColumnBatch::from_rows(2, rows), None);
        let keys: Vec<Value> = kernel.finish().into_iter().map(|(k, _)| k[0].0.clone()).collect();
        assert_eq!(keys, vec![Value::str("b"), Value::str("a"), Value::Null]);
    }

    #[test]
    fn group_kernel_grows_past_initial_capacity() {
        let specs = vec![(Agg::Count, None)];
        let mut kernel = GroupByKernel::new(vec![0], &specs);
        let rows: Vec<Row> = (0..5000).map(|i| vec![Value::I64(i % 2500)]).collect();
        for c in rows.chunks(97) {
            kernel.push_batch(&ColumnBatch::from_rows(1, c.to_vec()), None);
        }
        assert_eq!((kernel.rows_in(), kernel.groups_out()), (5000, 2500));
        let got = kernel.finish();
        assert_eq!(got.len(), 2500);
        // First-occurrence order survives the table rebuilds on growth.
        assert_eq!(got[17].0[0], KeyValue(Value::I64(17)));
        assert!(got.iter().all(|(_, s)| matches!(s[0], AggState::Count(2))));
    }
}
