//! The builtin function library and user-defined function calls.
//!
//! Aggregating builtins (`count`, `sum`, `min`, …) probe their argument's
//! RDD API first and run as cluster actions when they can (§4.1.2: "the
//! count() function can be implemented with a count action"); everything
//! else evaluates through the local API.

use super::exprs::materialize_one;
use super::row::{filter_seq, Raises, RowFn, RowScope, Seq};
use super::{
    cursor_empty, cursor_of, cursor_one, eval_opt, DynamicContext, ExprIterator, ExprRef,
    ItemCursor,
};
use crate::error::{codes, Result, RumbleError};
use crate::item::{
    atomic_equal, deep_equal, effective_boolean_value, group_key, item_add, value_compare,
    GroupKey, Item,
};
use std::cmp::Ordering;
use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

/// A static cardinality interval `[lo, hi]` over sequence lengths
/// (`hi = None` means unbounded). This is the lattice the static
/// analyzer's sequence-type inference works over; builtins describe their
/// result cardinality through [`Builtin::result_card`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticCard {
    pub lo: usize,
    pub hi: Option<usize>,
}

impl StaticCard {
    pub const fn empty() -> StaticCard {
        StaticCard { lo: 0, hi: Some(0) }
    }

    pub const fn one() -> StaticCard {
        StaticCard { lo: 1, hi: Some(1) }
    }

    pub const fn zero_or_one() -> StaticCard {
        StaticCard { lo: 0, hi: Some(1) }
    }

    pub const fn one_or_more() -> StaticCard {
        StaticCard { lo: 1, hi: None }
    }

    pub const fn any() -> StaticCard {
        StaticCard { lo: 0, hi: None }
    }

    /// Least upper bound: either branch of a conditional may be taken.
    pub fn join(self, other: StaticCard) -> StaticCard {
        StaticCard {
            lo: self.lo.min(other.lo),
            hi: match (self.hi, other.hi) {
                (Some(a), Some(b)) => Some(a.max(b)),
                _ => None,
            },
        }
    }

    /// Sequence concatenation: lengths add.
    pub fn concat(self, other: StaticCard) -> StaticCard {
        StaticCard {
            lo: self.lo.saturating_add(other.lo),
            hi: match (self.hi, other.hi) {
                (Some(a), Some(b)) => a.checked_add(b),
                _ => None,
            },
        }
    }

    /// The sequence is provably `()`.
    pub fn is_statically_empty(&self) -> bool {
        self.hi == Some(0)
    }

    /// The sequence provably has two or more items.
    pub fn is_statically_many(&self) -> bool {
        self.lo >= 2
    }
}

/// The builtin functions this engine implements, with their arity ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Builtin {
    // sequences
    Count,
    Sum,
    Avg,
    Min,
    Max,
    Empty,
    Exists,
    Head,
    Tail,
    Subsequence,
    Reverse,
    DistinctValues,
    IndexOf,
    StringJoin,
    Concat,
    ZeroOrOne,
    OneOrMore,
    ExactlyOne,
    DeepEqual,
    // numbers
    Abs,
    Ceiling,
    Floor,
    Round,
    Number,
    // strings
    StringFn,
    StringLength,
    Substring,
    SubstringBefore,
    SubstringAfter,
    UpperCase,
    LowerCase,
    Contains,
    StartsWith,
    EndsWith,
    NormalizeSpace,
    Tokenize,
    Replace,
    SerializeFn,
    // booleans
    BooleanFn,
    Not,
    // JSON
    Keys,
    Values,
    Members,
    Size,
    ParseJson,
    JsonDoc,
    // misc
    ErrorFn,
}

impl Builtin {
    /// Resolves a builtin by name and arity (used both for static checking
    /// and dispatch). `json-file`, `parallelize` and `collection` are
    /// compiled to dedicated source iterators, not through this registry.
    pub fn lookup(name: &str, arity: usize) -> Option<Builtin> {
        use Builtin::*;
        let b = match (name, arity) {
            ("count", 1) => Count,
            ("sum", 1) => Sum,
            ("avg", 1) | ("average", 1) => Avg,
            ("min", 1) => Min,
            ("max", 1) => Max,
            ("empty", 1) => Empty,
            ("exists", 1) => Exists,
            ("head", 1) => Head,
            ("tail", 1) => Tail,
            ("subsequence", 2) | ("subsequence", 3) => Subsequence,
            ("reverse", 1) => Reverse,
            ("distinct-values", 1) => DistinctValues,
            ("index-of", 2) => IndexOf,
            ("string-join", 1) | ("string-join", 2) => StringJoin,
            ("concat", _) if arity >= 2 => Concat,
            ("zero-or-one", 1) => ZeroOrOne,
            ("one-or-more", 1) => OneOrMore,
            ("exactly-one", 1) => ExactlyOne,
            ("deep-equal", 2) => DeepEqual,
            ("abs", 1) => Abs,
            ("ceiling", 1) => Ceiling,
            ("floor", 1) => Floor,
            ("round", 1) | ("round", 2) => Round,
            ("number", 1) => Number,
            ("string", 1) => StringFn,
            ("string-length", 1) => StringLength,
            ("substring", 2) | ("substring", 3) => Substring,
            ("substring-before", 2) => SubstringBefore,
            ("substring-after", 2) => SubstringAfter,
            ("upper-case", 1) => UpperCase,
            ("lower-case", 1) => LowerCase,
            ("contains", 2) => Contains,
            ("starts-with", 2) => StartsWith,
            ("ends-with", 2) => EndsWith,
            ("normalize-space", 1) => NormalizeSpace,
            ("tokenize", 1) | ("tokenize", 2) => Tokenize,
            ("replace", 3) => Replace,
            ("serialize", 1) => SerializeFn,
            ("boolean", 1) => BooleanFn,
            ("not", 1) => Not,
            ("keys", 1) => Keys,
            ("values", 1) => Values,
            ("members", 1) => Members,
            ("size", 1) => Size,
            ("parse-json", 1) => ParseJson,
            ("json-doc", 1) => JsonDoc,
            ("error", 0) | ("error", 1) | ("error", 2) => ErrorFn,
            _ => return None,
        };
        Some(b)
    }

    /// Static result cardinality of a call, for the analyzer's
    /// sequence-type inference (§5.3). Conservative: `any()` when the
    /// result depends on the input in ways the analyzer does not model.
    pub fn result_card(&self) -> StaticCard {
        use Builtin::*;
        match self {
            // Aggregates and predicates always yield exactly one item
            // (`sum` of the empty sequence is 0, `count` is 0, …).
            Count | Sum | Empty | Exists | DeepEqual | ExactlyOne => StaticCard::one(),
            StringFn | StringLength | NormalizeSpace | StringJoin | Concat => StaticCard::one(),
            Substring | SubstringBefore | SubstringAfter | UpperCase | LowerCase => {
                StaticCard::one()
            }
            Contains | StartsWith | EndsWith | Replace | SerializeFn => StaticCard::one(),
            BooleanFn | Not | Size | Number | ParseJson | JsonDoc => StaticCard::one(),
            // Empty-preserving single-item functions.
            Avg | Min | Max | Head | ZeroOrOne => StaticCard::zero_or_one(),
            Abs | Ceiling | Floor | Round => StaticCard::zero_or_one(),
            OneOrMore => StaticCard::one_or_more(),
            // Sequence-shaped results.
            Tail | Subsequence | Reverse | DistinctValues | IndexOf | Tokenize | Keys | Values
            | Members => StaticCard::any(),
            // `error` never returns, but modelling that as empty would
            // trigger spurious downstream warnings.
            ErrorFn => StaticCard::any(),
        }
    }

    /// Every name the registry answers to (for diagnostics).
    pub fn is_known_name(name: &str) -> bool {
        const NAMES: &[&str] = &[
            "count",
            "sum",
            "avg",
            "average",
            "min",
            "max",
            "empty",
            "exists",
            "head",
            "tail",
            "subsequence",
            "reverse",
            "distinct-values",
            "index-of",
            "string-join",
            "concat",
            "zero-or-one",
            "one-or-more",
            "exactly-one",
            "deep-equal",
            "abs",
            "ceiling",
            "floor",
            "round",
            "number",
            "string",
            "string-length",
            "substring",
            "substring-before",
            "substring-after",
            "upper-case",
            "lower-case",
            "contains",
            "starts-with",
            "ends-with",
            "normalize-space",
            "tokenize",
            "replace",
            "serialize",
            "boolean",
            "not",
            "keys",
            "values",
            "members",
            "size",
            "parse-json",
            "json-doc",
            "error",
        ];
        NAMES.contains(&name)
    }
}

/// A call to a builtin.
pub struct BuiltinCallIter {
    pub builtin: Builtin,
    pub args: Vec<ExprRef>,
}

fn one_string(e: &ExprRef, ctx: &DynamicContext, what: &str) -> Result<String> {
    materialize_one(e, ctx, what)?.string_value()
}

/// `fn:string`-style: empty becomes the empty string.
fn opt_string(e: &ExprRef, ctx: &DynamicContext, what: &str) -> Result<String> {
    match eval_opt(e, ctx, what)? {
        None => Ok(String::new()),
        Some(i) => i.string_value(),
    }
}

fn numeric_arg(e: &ExprRef, ctx: &DynamicContext, what: &str) -> Result<Option<Item>> {
    match eval_opt(e, ctx, what)? {
        None => Ok(None),
        Some(i) if i.is_numeric() => Ok(Some(i)),
        Some(i) => {
            Err(RumbleError::type_err(format!("{what} expects a number, got {}", i.type_name())))
        }
    }
}

fn min_max(items: Vec<Item>, want_min: bool) -> Result<Option<Item>> {
    let mut best: Option<Item> = None;
    for i in items {
        best = Some(match best {
            None => i,
            Some(b) => {
                let ord = value_compare(&i, &b)?;
                if (want_min && ord == Ordering::Less) || (!want_min && ord == Ordering::Greater) {
                    i
                } else {
                    b
                }
            }
        });
    }
    Ok(best)
}

/// `distinct-values`: the first item of each group-key class, in order. A
/// borrowed sequence with no duplicate comes back as it went in.
fn distinct_values(items: Seq<'_>) -> Result<Seq<'_>> {
    if items.iter().any(|i| !i.is_atomic()) {
        return Err(RumbleError::type_err("distinct-values operates on atomics"));
    }
    if items.len() < 2 {
        return Ok(items);
    }
    let mut seen: HashSet<GroupKey> = HashSet::with_capacity(items.len());
    filter_seq(items, |i, _| Ok(seen.insert(group_key(std::slice::from_ref(i))?)))
}

impl ExprIterator for BuiltinCallIter {
    fn compile_row(&self, scope: &mut RowScope) -> Option<RowFn> {
        use Builtin::*;
        let [arg] = self.args.as_slice() else { return None };
        match self.builtin {
            // `open` reads one item of the argument.
            Exists | Empty => {
                let arg = arg.compile_row(scope)?.lazy()?;
                let exists = self.builtin == Exists;
                Some(RowFn::test(arg.raises().min(Raises::Early), move |env| {
                    arg.with(env, |items| Ok(Some(items.is_empty() != exists)))
                }))
            }
            Count => {
                let arg = arg.compile_row(scope)?;
                Some(RowFn::new(arg.raises().min(Raises::Early), move |env| {
                    arg.with(env, |items| Ok(Seq::One(Item::Integer(items.len() as i64))))
                }))
            }
            DistinctValues => {
                let arg = arg.compile_row(scope)?;
                Some(RowFn::new(Raises::Early, move |env| distinct_values(arg.eval(env)?)))
            }
            _ => None,
        }
    }

    fn open(&self, ctx: &DynamicContext) -> Result<ItemCursor> {
        use Builtin::*;
        let args = &self.args;
        match self.builtin {
            Count => Ok(cursor_one(Item::Integer(args[0].count(ctx)? as i64))),
            Sum => {
                let total = if args[0].is_rdd(ctx) {
                    args[0].rdd(ctx)?.reduce(|a, b| match item_add(&a, &b) {
                        Ok(v) => v,
                        Err(e) => sparklite::rdd::task_bail(e),
                    })?
                } else {
                    let items = args[0].materialize(ctx)?;
                    let mut acc: Option<Item> = None;
                    for i in items {
                        acc = Some(match acc {
                            None => i,
                            Some(a) => item_add(&a, &i)?,
                        });
                    }
                    acc
                };
                Ok(cursor_one(total.unwrap_or(Item::Integer(0))))
            }
            Avg => {
                if args[0].is_rdd(ctx) {
                    // Needs both the count and the sum; persist (serialized,
                    // via the item codec) so the pipeline runs once instead
                    // of twice, then free the partitions.
                    let rdd = args[0].rdd(ctx)?.persist_with_codec(
                        sparklite::StorageLevel::MemorySerialized,
                        std::sync::Arc::new(crate::item::ItemCacheCodec),
                    );
                    let n = rdd.count()?;
                    if n == 0 {
                        rdd.unpersist();
                        return Ok(cursor_empty());
                    }
                    let total = rdd.reduce(|a, b| match item_add(&a, &b) {
                        Ok(v) => v,
                        Err(e) => sparklite::rdd::task_bail(e),
                    });
                    rdd.unpersist();
                    let total = total?.expect("non-empty rdd has a sum");
                    return Ok(cursor_one(crate::item::item_div(
                        &total,
                        &Item::Integer(n as i64),
                    )?));
                }
                let items = args[0].materialize(ctx)?;
                if items.is_empty() {
                    return Ok(cursor_empty());
                }
                let n = items.len() as i64;
                let mut acc = Item::Integer(0);
                for i in &items {
                    acc = item_add(&acc, i)?;
                }
                Ok(cursor_one(crate::item::item_div(&acc, &Item::Integer(n))?))
            }
            Min | Max => {
                let want_min = self.builtin == Min;
                let best = if args[0].is_rdd(ctx) {
                    args[0].rdd(ctx)?.reduce(move |a, b| match value_compare(&a, &b) {
                        Ok(o) => {
                            if (want_min && o != Ordering::Greater)
                                || (!want_min && o != Ordering::Less)
                            {
                                a
                            } else {
                                b
                            }
                        }
                        Err(e) => sparklite::rdd::task_bail(e),
                    })?
                } else {
                    min_max(args[0].materialize(ctx)?, want_min)?
                };
                Ok(match best {
                    None => cursor_empty(),
                    Some(i) => cursor_one(i),
                })
            }
            Empty | Exists => {
                let any = args[0].exists(ctx)?;
                let v = if self.builtin == Exists { any } else { !any };
                Ok(cursor_one(Item::Boolean(v)))
            }
            Head => {
                let first = if args[0].is_rdd(ctx) {
                    args[0].rdd(ctx)?.take(1)?.into_iter().next()
                } else {
                    args[0].open(ctx)?.next().transpose()?
                };
                Ok(match first {
                    None => cursor_empty(),
                    Some(i) => cursor_one(i),
                })
            }
            Tail => {
                let mut c = args[0].open(ctx)?;
                let _ = c.next().transpose()?;
                Ok(c)
            }
            Subsequence => {
                let start = numeric_arg(&args[1], ctx, "subsequence start")?
                    .and_then(|i| i.as_f64())
                    .ok_or_else(|| RumbleError::type_err("subsequence start must be numeric"))?;
                let len = if args.len() == 3 {
                    Some(
                        numeric_arg(&args[2], ctx, "subsequence length")?
                            .and_then(|i| i.as_f64())
                            .ok_or_else(|| {
                                RumbleError::type_err("subsequence length must be numeric")
                            })?,
                    )
                } else {
                    None
                };
                let c = args[0].open(ctx)?;
                // 1-based, fractional bounds round per the XPath spec.
                let from = start.round();
                let until = len.map(|l| from + l.round());
                let cursor = c.enumerate().filter_map(move |(i, r)| {
                    let pos = (i + 1) as f64;
                    match r {
                        Err(e) => Some(Err(e)),
                        Ok(item) => {
                            if pos >= from && until.is_none_or(|u| pos < u) {
                                Some(Ok(item))
                            } else {
                                None
                            }
                        }
                    }
                });
                Ok(Box::new(cursor))
            }
            Reverse => {
                let mut items = args[0].materialize(ctx)?;
                items.reverse();
                Ok(cursor_of(items))
            }
            DistinctValues => {
                if args[0].is_rdd(ctx) {
                    let pairs =
                        args[0].rdd(ctx)?.map(|i| match group_key(std::slice::from_ref(&i)) {
                            Ok(k) => (k, i),
                            Err(e) => sparklite::rdd::task_bail(e),
                        });
                    let parts = ctx.engine().sc.conf().default_parallelism;
                    let distinct = pairs
                        .reduce_by_key_with_codec(
                            |a, _| a,
                            parts,
                            Arc::new(crate::dist::DistinctPairCodec),
                        )
                        .values();
                    return Ok(cursor_of(distinct.collect()?));
                }
                let items = Seq::Owned(args[0].materialize(ctx)?);
                Ok(cursor_of(distinct_values(items)?.into_vec()))
            }
            IndexOf => {
                let needle = materialize_one(&args[1], ctx, "index-of needle")?;
                let items = args[0].materialize(ctx)?;
                let out: Vec<Item> = items
                    .iter()
                    .enumerate()
                    .filter(|(_, i)| atomic_equal(i, &needle))
                    .map(|(p, _)| Item::Integer(p as i64 + 1))
                    .collect();
                Ok(cursor_of(out))
            }
            StringJoin => {
                let sep = if args.len() == 2 {
                    one_string(&args[1], ctx, "string-join separator")?
                } else {
                    String::new()
                };
                let items = args[0].materialize(ctx)?;
                let parts: Vec<String> =
                    items.iter().map(|i| i.string_value()).collect::<Result<_>>()?;
                Ok(cursor_one(Item::str(parts.join(&sep))))
            }
            Concat => {
                let mut out = String::new();
                for a in args {
                    out.push_str(&opt_string(a, ctx, "concat")?);
                }
                Ok(cursor_one(Item::str(out)))
            }
            ZeroOrOne => {
                let items = args[0].materialize(ctx)?;
                if items.len() > 1 {
                    return Err(RumbleError::dynamic(
                        codes::CARDINALITY_ZERO_OR_ONE,
                        "zero-or-one: more than one item",
                    ));
                }
                Ok(cursor_of(items))
            }
            OneOrMore => {
                let items = args[0].materialize(ctx)?;
                if items.is_empty() {
                    return Err(RumbleError::dynamic(
                        codes::CARDINALITY_ONE_OR_MORE,
                        "one-or-more: empty sequence",
                    ));
                }
                Ok(cursor_of(items))
            }
            ExactlyOne => {
                let items = args[0].materialize(ctx)?;
                if items.len() != 1 {
                    return Err(RumbleError::dynamic(
                        codes::CARDINALITY_EXACTLY_ONE,
                        format!("exactly-one: got {} items", items.len()),
                    ));
                }
                Ok(cursor_of(items))
            }
            DeepEqual => {
                let a = args[0].materialize(ctx)?;
                let b = args[1].materialize(ctx)?;
                let eq =
                    a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| deep_equal(x, y));
                Ok(cursor_one(Item::Boolean(eq)))
            }
            Abs => match numeric_arg(&args[0], ctx, "abs")? {
                None => Ok(cursor_empty()),
                Some(Item::Integer(v)) => Ok(cursor_one(Item::Integer(v.abs()))),
                Some(Item::Decimal(d)) => Ok(cursor_one(Item::decimal(d.abs()))),
                Some(Item::Double(v)) => Ok(cursor_one(Item::Double(v.abs()))),
                _ => unreachable!("numeric_arg filters"),
            },
            Ceiling | Floor => {
                let up = self.builtin == Ceiling;
                match numeric_arg(&args[0], ctx, "ceiling/floor")? {
                    None => Ok(cursor_empty()),
                    Some(Item::Integer(v)) => Ok(cursor_one(Item::Integer(v))),
                    Some(Item::Decimal(d)) => {
                        let r = if up { d.ceiling() } else { d.floor() };
                        Ok(cursor_one(Item::decimal(r)))
                    }
                    Some(Item::Double(v)) => {
                        Ok(cursor_one(Item::Double(if up { v.ceil() } else { v.floor() })))
                    }
                    _ => unreachable!(),
                }
            }
            Round => {
                let digits = if args.len() == 2 {
                    materialize_one(&args[1], ctx, "round digits")?
                        .as_i64()
                        .ok_or_else(|| RumbleError::type_err("round digits must be an integer"))?
                        .max(0) as u32
                } else {
                    0
                };
                match numeric_arg(&args[0], ctx, "round")? {
                    None => Ok(cursor_empty()),
                    Some(Item::Integer(v)) => Ok(cursor_one(Item::Integer(v))),
                    Some(Item::Decimal(d)) => Ok(cursor_one(Item::decimal(d.round(digits)))),
                    Some(Item::Double(v)) => {
                        let m = 10f64.powi(digits as i32);
                        // round half toward +inf, like the decimal path
                        Ok(cursor_one(Item::Double((v * m + 0.5).floor() / m)))
                    }
                    _ => unreachable!(),
                }
            }
            Number => {
                let v = match eval_opt(&args[0], ctx, "number")? {
                    None => f64::NAN,
                    Some(i) => {
                        match super::types::cast_item(&i, crate::syntax::ast::AtomicType::Double) {
                            Ok(Item::Double(v)) => v,
                            _ => f64::NAN,
                        }
                    }
                };
                Ok(cursor_one(Item::Double(v)))
            }
            StringFn => Ok(cursor_one(Item::str(opt_string(&args[0], ctx, "string")?))),
            StringLength => {
                let s = opt_string(&args[0], ctx, "string-length")?;
                Ok(cursor_one(Item::Integer(s.chars().count() as i64)))
            }
            Substring => {
                let s = opt_string(&args[0], ctx, "substring")?;
                let chars: Vec<char> = s.chars().collect();
                let start = materialize_one(&args[1], ctx, "substring start")?
                    .as_f64()
                    .ok_or_else(|| RumbleError::type_err("substring start must be numeric"))?
                    .round();
                let len = if args.len() == 3 {
                    Some(
                        materialize_one(&args[2], ctx, "substring length")?
                            .as_f64()
                            .ok_or_else(|| {
                                RumbleError::type_err("substring length must be numeric")
                            })?
                            .round(),
                    )
                } else {
                    None
                };
                let out: String = chars
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| {
                        let pos = (*i + 1) as f64;
                        pos >= start && len.is_none_or(|l| pos < start + l)
                    })
                    .map(|(_, c)| *c)
                    .collect();
                Ok(cursor_one(Item::str(out)))
            }
            SubstringBefore | SubstringAfter => {
                let s = opt_string(&args[0], ctx, "substring-before/after")?;
                let pat = opt_string(&args[1], ctx, "substring-before/after pattern")?;
                let out = match s.find(&pat) {
                    None => String::new(),
                    Some(i) => {
                        if self.builtin == SubstringBefore {
                            s[..i].to_string()
                        } else {
                            s[i + pat.len()..].to_string()
                        }
                    }
                };
                Ok(cursor_one(Item::str(out)))
            }
            UpperCase => {
                Ok(cursor_one(Item::str(opt_string(&args[0], ctx, "upper-case")?.to_uppercase())))
            }
            LowerCase => {
                Ok(cursor_one(Item::str(opt_string(&args[0], ctx, "lower-case")?.to_lowercase())))
            }
            Contains | StartsWith | EndsWith => {
                let s = opt_string(&args[0], ctx, "string test")?;
                let pat = opt_string(&args[1], ctx, "string test pattern")?;
                let v = match self.builtin {
                    Contains => s.contains(&pat),
                    StartsWith => s.starts_with(&pat),
                    EndsWith => s.ends_with(&pat),
                    _ => unreachable!(),
                };
                Ok(cursor_one(Item::Boolean(v)))
            }
            NormalizeSpace => {
                let s = opt_string(&args[0], ctx, "normalize-space")?;
                Ok(cursor_one(Item::str(s.split_whitespace().collect::<Vec<_>>().join(" "))))
            }
            Tokenize => {
                let s = opt_string(&args[0], ctx, "tokenize")?;
                // One-argument form splits on whitespace; the two-argument
                // form splits on a literal separator (the W3C function takes
                // a regex; this engine documents the literal simplification).
                let parts: Vec<Item> = if args.len() == 1 {
                    s.split_whitespace().map(Item::str).collect()
                } else {
                    let sep = one_string(&args[1], ctx, "tokenize separator")?;
                    if sep.is_empty() {
                        return Err(RumbleError::dynamic(
                            codes::USER_ERROR,
                            "tokenize separator must not be empty",
                        ));
                    }
                    s.split(&sep).map(Item::str).collect()
                };
                Ok(cursor_of(parts))
            }
            Replace => {
                let s = opt_string(&args[0], ctx, "replace")?;
                let pat = one_string(&args[1], ctx, "replace pattern")?;
                let rep = one_string(&args[2], ctx, "replace replacement")?;
                if pat.is_empty() {
                    return Err(RumbleError::dynamic(
                        codes::USER_ERROR,
                        "replace pattern must not be empty",
                    ));
                }
                // Literal replacement (see DESIGN.md: no regex engine).
                Ok(cursor_one(Item::str(s.replace(&pat, &rep))))
            }
            SerializeFn => {
                let item = materialize_one(&args[0], ctx, "serialize")?;
                Ok(cursor_one(Item::str(item.serialize())))
            }
            BooleanFn => {
                let items = args[0].materialize(ctx)?;
                Ok(cursor_one(Item::Boolean(effective_boolean_value(&items)?)))
            }
            Not => {
                let items = args[0].materialize(ctx)?;
                Ok(cursor_one(Item::Boolean(!effective_boolean_value(&items)?)))
            }
            Keys => {
                let items = args[0].materialize(ctx)?;
                let mut seen = HashSet::new();
                let mut out = Vec::new();
                for i in items {
                    if let Some(o) = i.as_object() {
                        for k in o.keys() {
                            if seen.insert(Arc::clone(k)) {
                                out.push(Item::Str(Arc::clone(k)));
                            }
                        }
                    }
                }
                Ok(cursor_of(out))
            }
            Values => {
                let items = args[0].materialize(ctx)?;
                let mut out = Vec::new();
                for i in items {
                    if let Some(o) = i.as_object() {
                        out.extend(o.pairs().iter().map(|(_, v)| v.clone()));
                    }
                }
                Ok(cursor_of(out))
            }
            Members => {
                let items = args[0].materialize(ctx)?;
                let mut out = Vec::new();
                for i in items {
                    if let Some(a) = i.as_array() {
                        out.extend(a.iter().cloned());
                    }
                }
                Ok(cursor_of(out))
            }
            Size => match eval_opt(&args[0], ctx, "size")? {
                None => Ok(cursor_empty()),
                Some(i) => {
                    let a = i.as_array().ok_or_else(|| {
                        RumbleError::type_err(format!(
                            "size expects an array, got {}",
                            i.type_name()
                        ))
                    })?;
                    Ok(cursor_one(Item::Integer(a.len() as i64)))
                }
            },
            ParseJson => {
                let s = one_string(&args[0], ctx, "parse-json")?;
                Ok(cursor_one(crate::item::item_from_json(&s)?))
            }
            JsonDoc => {
                let path = one_string(&args[0], ctx, "json-doc")?;
                let (scheme, key) = sparklite::storage::resolve_scheme(&path);
                let text = match scheme {
                    sparklite::storage::PathScheme::SimHdfs => {
                        ctx.engine().sc.hdfs().read_to_string(key)?
                    }
                    sparklite::storage::PathScheme::LocalFs => std::fs::read_to_string(key)
                        .map_err(|e| {
                            RumbleError::dynamic(codes::BAD_INPUT, format!("{key}: {e}"))
                        })?,
                };
                Ok(cursor_one(crate::item::item_from_json(&text)?))
            }
            ErrorFn => {
                let code: &'static str = if args.is_empty() {
                    codes::USER_ERROR
                } else {
                    let c = one_string(&args[0], ctx, "error code")?;
                    // User error codes are dynamic strings; a query raises a
                    // bounded number of distinct codes, so leaking is fine.
                    Box::leak(c.into_boxed_str())
                };
                let message = if args.len() >= 2 {
                    one_string(&args[1], ctx, "error message")?
                } else {
                    "error raised by fn:error".to_string()
                };
                Err(RumbleError::dynamic(code, message))
            }
        }
    }
}

/// A user-defined function, compiled from its prolog declaration.
pub struct CompiledFunction {
    pub params: Vec<Arc<str>>,
    pub body: ExprRef,
}

/// A call to a user-defined function. The slot is filled once all prolog
/// declarations have been compiled, which lets function bodies call
/// functions declared later — and themselves (recursion).
pub struct UserCallIter {
    pub name: String,
    pub slot: Arc<OnceLock<CompiledFunction>>,
    pub args: Vec<ExprRef>,
}

impl ExprIterator for UserCallIter {
    fn open(&self, ctx: &DynamicContext) -> Result<ItemCursor> {
        let f = self.slot.get().ok_or_else(|| {
            RumbleError::dynamic(
                codes::UNDEFINED_FUNCTION,
                format!("function {} is not compiled yet", self.name),
            )
        })?;
        // Arguments evaluate in the caller's context; the body sees only
        // parameters and globals (guaranteed by static checking), so
        // chaining off the call context is safe.
        let mut bindings = Vec::with_capacity(f.params.len());
        for (p, a) in f.params.iter().zip(&self.args) {
            bindings.push((Arc::clone(p), crate::item::seq(a.materialize(ctx)?)));
        }
        let child = ctx.bind_many(bindings);
        Ok(cursor_of(f.body.materialize(&child)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::Item;
    use crate::runtime::exprs::{CommaIter, EmptySeqIter, LiteralIter, ParallelizeIter};
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

    fn ints(values: &[i64]) -> ExprRef {
        Arc::new(CommaIter(values.iter().map(|v| lit(Item::Integer(*v))).collect()))
    }

    fn call(builtin: Builtin, args: Vec<ExprRef>) -> ExprRef {
        Arc::new(BuiltinCallIter { builtin, args })
    }

    fn run(e: &ExprRef) -> Vec<Item> {
        e.materialize(&ctx()).unwrap()
    }

    #[test]
    fn aggregates_local() {
        assert_eq!(run(&call(Builtin::Count, vec![ints(&[1, 2, 3])])), vec![Item::Integer(3)]);
        assert_eq!(run(&call(Builtin::Sum, vec![ints(&[1, 2, 3])])), vec![Item::Integer(6)]);
        assert_eq!(run(&call(Builtin::Sum, vec![Arc::new(EmptySeqIter)])), vec![Item::Integer(0)]);
        assert_eq!(run(&call(Builtin::Min, vec![ints(&[3, 1, 2])])), vec![Item::Integer(1)]);
        assert_eq!(run(&call(Builtin::Max, vec![ints(&[3, 1, 2])])), vec![Item::Integer(3)]);
        assert!(run(&call(Builtin::Min, vec![Arc::new(EmptySeqIter)])).is_empty());
        let avg = run(&call(Builtin::Avg, vec![ints(&[1, 2])]));
        assert_eq!(avg[0].as_f64().unwrap(), 1.5);
    }

    #[test]
    fn aggregates_over_rdd_use_actions() {
        let c = ctx();
        let source: ExprRef = Arc::new(ParallelizeIter {
            child: ints(&(0..100).collect::<Vec<_>>()),
            partitions: None,
        });
        let count = call(Builtin::Count, vec![Arc::clone(&source)]);
        assert_eq!(count.materialize(&c).unwrap(), vec![Item::Integer(100)]);
        let jobs_before = c.engine().sc.metrics().jobs;
        let sum = call(Builtin::Sum, vec![Arc::clone(&source)]);
        assert_eq!(sum.materialize(&c).unwrap(), vec![Item::Integer(4950)]);
        assert!(c.engine().sc.metrics().jobs > jobs_before, "sum ran as a cluster action");
        let mx = call(Builtin::Max, vec![source]);
        assert_eq!(mx.materialize(&c).unwrap(), vec![Item::Integer(99)]);
    }

    #[test]
    fn sequence_functions() {
        assert_eq!(run(&call(Builtin::Head, vec![ints(&[7, 8])])), vec![Item::Integer(7)]);
        assert_eq!(run(&call(Builtin::Tail, vec![ints(&[7, 8, 9])])).len(), 2);
        assert_eq!(
            run(&call(Builtin::Reverse, vec![ints(&[1, 2])])),
            vec![Item::Integer(2), Item::Integer(1)]
        );
        assert_eq!(
            run(&call(Builtin::Exists, vec![Arc::new(EmptySeqIter)])),
            vec![Item::Boolean(false)]
        );
        assert_eq!(
            run(&call(Builtin::Empty, vec![Arc::new(EmptySeqIter)])),
            vec![Item::Boolean(true)]
        );
        let sub = call(
            Builtin::Subsequence,
            vec![ints(&[10, 20, 30, 40, 50]), lit(Item::Integer(2)), lit(Item::Integer(3))],
        );
        assert_eq!(run(&sub), vec![Item::Integer(20), Item::Integer(30), Item::Integer(40)]);
        let idx = call(Builtin::IndexOf, vec![ints(&[5, 6, 5]), lit(Item::Integer(5))]);
        assert_eq!(run(&idx), vec![Item::Integer(1), Item::Integer(3)]);
    }

    #[test]
    fn distinct_values_unifies_numerics() {
        let mixed: ExprRef = Arc::new(CommaIter(vec![
            lit(Item::Integer(1)),
            lit(Item::Double(1.0)),
            lit(Item::str("1")),
            lit(Item::Integer(1)),
            lit(Item::Null),
        ]));
        assert_eq!(run(&call(Builtin::DistinctValues, vec![mixed])).len(), 3);
    }

    #[test]
    fn distinct_values_on_rdd() {
        let c = ctx();
        let source: ExprRef = Arc::new(ParallelizeIter {
            child: ints(&(0..50).map(|i| i % 7).collect::<Vec<_>>()),
            partitions: None,
        });
        let distinct = call(Builtin::DistinctValues, vec![source]);
        assert_eq!(distinct.materialize(&c).unwrap().len(), 7);
    }

    #[test]
    fn string_functions() {
        let s = |v: &str| lit(Item::str(v));
        assert_eq!(run(&call(Builtin::UpperCase, vec![s("héllo")])), vec![Item::str("HÉLLO")]);
        assert_eq!(run(&call(Builtin::StringLength, vec![s("héllo")])), vec![Item::Integer(5)]);
        assert_eq!(
            run(&call(Builtin::Contains, vec![s("confusion"), s("fus")])),
            vec![Item::Boolean(true)]
        );
        assert_eq!(
            run(&call(
                Builtin::Substring,
                vec![s("hello"), lit(Item::Integer(2)), lit(Item::Integer(3))]
            )),
            vec![Item::str("ell")]
        );
        assert_eq!(
            run(&call(Builtin::Tokenize, vec![s("a b  c")])),
            vec![Item::str("a"), Item::str("b"), Item::str("c")]
        );
        assert_eq!(run(&call(Builtin::Tokenize, vec![s("a,b,c"), s(",")])).len(), 3);
        assert_eq!(
            run(&call(Builtin::Replace, vec![s("banana"), s("na"), s("NA")])),
            vec![Item::str("baNANA")]
        );
        assert_eq!(
            run(&call(Builtin::StringJoin, vec![ints(&[1, 2, 3]), s("-")])),
            vec![Item::str("1-2-3")]
        );
        assert_eq!(
            run(&call(Builtin::NormalizeSpace, vec![s("  a   b ")])),
            vec![Item::str("a b")]
        );
        assert_eq!(
            run(&call(Builtin::SubstringBefore, vec![s("2013-08-19"), s("-")])),
            vec![Item::str("2013")]
        );
        assert_eq!(
            run(&call(Builtin::SubstringAfter, vec![s("a=b"), s("=")])),
            vec![Item::str("b")]
        );
    }

    #[test]
    fn object_and_array_functions() {
        let o = lit(Item::object_from(vec![
            ("a", Item::Integer(1)),
            ("b", Item::array(vec![Item::Integer(2), Item::Integer(3)])),
        ]));
        let keys = run(&call(Builtin::Keys, vec![Arc::clone(&o)]));
        assert_eq!(keys, vec![Item::str("a"), Item::str("b")]);
        let values = run(&call(Builtin::Values, vec![o]));
        assert_eq!(values.len(), 2);
        let arr = lit(Item::array(vec![Item::Integer(1), Item::Integer(2)]));
        assert_eq!(run(&call(Builtin::Size, vec![Arc::clone(&arr)])), vec![Item::Integer(2)]);
        assert_eq!(run(&call(Builtin::Members, vec![arr])).len(), 2);
    }

    #[test]
    fn cardinality_checks() {
        assert!(call(Builtin::ExactlyOne, vec![ints(&[1, 2])]).materialize(&ctx()).is_err());
        assert!(call(Builtin::ZeroOrOne, vec![ints(&[1, 2])]).materialize(&ctx()).is_err());
        assert!(call(Builtin::OneOrMore, vec![Arc::new(EmptySeqIter)])
            .materialize(&ctx())
            .is_err());
    }

    #[test]
    fn error_function_raises() {
        let e = call(Builtin::ErrorFn, vec![lit(Item::str("MYCODE")), lit(Item::str("boom"))])
            .materialize(&ctx())
            .unwrap_err();
        assert_eq!(e.code, "MYCODE");
        assert!(e.message.contains("boom"));
    }

    #[test]
    fn rounding() {
        assert_eq!(
            run(&call(Builtin::Round, vec![lit(Item::decimal("2.5".parse().unwrap()))])),
            vec![Item::Integer(3)][..].to_vec()
        );
        assert_eq!(
            run(&call(Builtin::Floor, vec![lit(Item::Double(2.7))])),
            vec![Item::Double(2.0)]
        );
        assert_eq!(run(&call(Builtin::Abs, vec![lit(Item::Integer(-5))])), vec![Item::Integer(5)]);
    }

    #[test]
    fn parse_json_and_number() {
        let parsed = run(&call(Builtin::ParseJson, vec![lit(Item::str("{\"x\": [1, 2]}"))]));
        assert!(parsed[0].as_object().is_some());
        let n = run(&call(Builtin::Number, vec![lit(Item::str("3.5"))]));
        assert_eq!(n[0].as_f64().unwrap(), 3.5);
        let nan = run(&call(Builtin::Number, vec![lit(Item::str("abc"))]));
        assert!(nan[0].as_f64().unwrap().is_nan());
    }

    #[test]
    fn registry_lookup() {
        assert!(Builtin::lookup("count", 1).is_some());
        assert!(Builtin::lookup("count", 2).is_none());
        assert!(Builtin::lookup("nope", 1).is_none());
        assert!(Builtin::lookup("concat", 5).is_some());
        assert!(Builtin::is_known_name("distinct-values"));
        assert!(!Builtin::is_known_name("garbage"));
    }

    #[test]
    fn user_function_recursion() {
        // fact($n) := if n le 1 then 1 else n * fact(n - 1), hand-wired.
        use crate::runtime::exprs::{ArithIter, CompareIter, IfIter, VarRefIter};
        use crate::syntax::ast::{ArithOp, CompOp};
        let slot = Arc::new(OnceLock::new());
        let n: Arc<str> = Arc::from("n");
        let recurse: ExprRef = Arc::new(UserCallIter {
            name: "fact".into(),
            slot: Arc::clone(&slot),
            args: vec![Arc::new(ArithIter {
                left: Arc::new(VarRefIter(Arc::clone(&n))),
                op: ArithOp::Sub,
                right: lit(Item::Integer(1)),
            })],
        });
        let body: ExprRef = Arc::new(IfIter {
            cond: Arc::new(CompareIter {
                left: Arc::new(VarRefIter(Arc::clone(&n))),
                op: CompOp::ValueLe,
                right: lit(Item::Integer(1)),
            }),
            then: lit(Item::Integer(1)),
            els: Arc::new(ArithIter {
                left: Arc::new(VarRefIter(Arc::clone(&n))),
                op: ArithOp::Mul,
                right: recurse,
            }),
        });
        slot.set(CompiledFunction { params: vec![n], body }).ok().expect("fresh slot");
        let call: ExprRef = Arc::new(UserCallIter {
            name: "fact".into(),
            slot,
            args: vec![lit(Item::Integer(10))],
        });
        assert_eq!(run(&call), vec![Item::Integer(3_628_800)]);
    }
}
