//! Naive single-threaded JSONiq engines: the Zorba and Xidel stand-ins of
//! Figure 12.
//!
//! Both are tree-walking interpreters over the same JSONiq AST as Rumble,
//! but with the architecture of a classical single-machine engine:
//! everything is **fully materialized** at every node, evaluation is
//! single-threaded, and a memory budget models the heap on which the real
//! engines ran out of memory. The Xidel stand-in additionally deep-copies
//! values (no structural sharing), groups by linear scan and sorts by
//! binary-insertion — reproducing its earlier cliffs.

use crate::{ConfusionQuery, QueryOutput};
use rumble_core::error::{Result, RumbleError};
use rumble_core::item::{self, effective_boolean_value, group_key, value_compare, GroupKey, Item};
use rumble_core::syntax::ast::{self, CompOp, Expr, ExprKind};
use rumble_core::syntax::parse_program;
use sparklite::SparkliteContext;
use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

/// Behavioural profile of a naive engine.
#[derive(Debug, Clone, Copy)]
pub struct NaiveConfig {
    pub name: &'static str,
    /// Total items the engine may materialize before "running out of
    /// memory".
    pub item_budget: usize,
    /// Deep-copy values instead of sharing (no Arc reuse).
    pub deep_copies: bool,
    /// Group by linear scan over the group list (quadratic in #groups).
    pub quadratic_group: bool,
    /// Sort by binary insertion (quadratic data movement).
    pub insertion_sort: bool,
}

/// The Zorba stand-in: a mature, optimized single-threaded engine.
pub fn zorba_like() -> NaiveConfig {
    NaiveConfig {
        name: "zorba-like",
        item_budget: 6_000_000,
        deep_copies: false,
        quadratic_group: false,
        insertion_sort: false,
    }
}

/// The Xidel stand-in: a weaker engine with earlier memory/time cliffs.
pub fn xidel_like() -> NaiveConfig {
    NaiveConfig {
        name: "xidel-like",
        item_budget: 1_500_000,
        deep_copies: true,
        quadratic_group: true,
        insertion_sort: true,
    }
}

const OOM: &str = "NAIV0001";

/// A naive engine bound to a storage context (for `json-file`).
pub struct NaiveEngine<'a> {
    cfg: NaiveConfig,
    sc: &'a SparkliteContext,
    used: Cell<usize>,
}

/// Environment: naive chained clone-on-extend bindings.
#[derive(Clone, Default)]
struct Env {
    vars: Vec<(String, Vec<Item>)>,
    ctx_item: Option<(Item, i64)>,
}

impl Env {
    fn lookup(&self, name: &str) -> Option<&Vec<Item>> {
        self.vars.iter().rev().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    fn bind(&self, name: &str, value: Vec<Item>) -> Env {
        let mut e = self.clone(); // the naive part: full copy per binding
        e.vars.push((name.to_string(), value));
        e
    }

    fn with_ctx(&self, item: Item, pos: i64) -> Env {
        let mut e = self.clone();
        e.ctx_item = Some((item, pos));
        e
    }
}

impl<'a> NaiveEngine<'a> {
    pub fn new(cfg: NaiveConfig, sc: &'a SparkliteContext) -> Self {
        NaiveEngine { cfg, sc, used: Cell::new(0) }
    }

    pub fn name(&self) -> &'static str {
        self.cfg.name
    }

    /// Parses and evaluates a query.
    pub fn run(&self, query: &str) -> Result<Vec<Item>> {
        self.used.set(0);
        let program = parse_program(query)?;
        let mut env = Env::default();
        for d in &program.decls {
            match d {
                ast::Decl::Variable { name, expr, .. } => {
                    let v = self.eval(expr, &env)?;
                    env = env.bind(name, v);
                }
                ast::Decl::Function { .. } => {
                    return Err(RumbleError::dynamic(
                        "RBML0003",
                        format!("{} does not support user-defined functions", self.cfg.name),
                    ))
                }
            }
        }
        self.eval(&program.body, &env)
    }

    /// Runs one of the benchmark queries on a confusion file.
    pub fn run_confusion(&self, path: &str, query: ConfusionQuery) -> Result<QueryOutput> {
        match query {
            ConfusionQuery::Filter => {
                let q = format!(
                    "count(for $i in json-file(\"{path}\") where $i.guess = $i.target return $i)"
                );
                let out = self.run(&q)?;
                Ok(QueryOutput::Count(out[0].as_i64().unwrap_or(0) as u64))
            }
            ConfusionQuery::Group => {
                let q = format!(
                    "for $i in json-file(\"{path}\") \
                     group by $c := $i.country, $t := $i.target \
                     return {{ c: $c, t: $t, n: count($i) }}"
                );
                let out = self.run(&q)?;
                let mut groups = Vec::with_capacity(out.len());
                for i in &out {
                    let o = i.as_object().expect("constructed objects");
                    groups.push((
                        o.get("c").and_then(|v| v.as_str()).unwrap_or("").to_string(),
                        o.get("t").and_then(|v| v.as_str()).unwrap_or("").to_string(),
                        o.get("n").and_then(|v| v.as_i64()).unwrap_or(0) as u64,
                    ));
                }
                Ok(QueryOutput::Groups(groups))
            }
            ConfusionQuery::Sort => {
                let q = format!(
                    "(for $i in json-file(\"{path}\") \
                      where $i.guess = $i.target \
                      order by $i.target ascending, $i.country descending, $i.date descending \
                      return $i.sample)"
                );
                let out = self.run(&q)?;
                Ok(QueryOutput::TopSamples(
                    out.iter().take(10).map(|i| i.as_str().unwrap_or("").to_string()).collect(),
                ))
            }
        }
    }

    /// Charges the memory budget for `n` materialized items.
    fn charge(&self, n: usize) -> Result<()> {
        let used = self.used.get() + n;
        self.used.set(used);
        if used > self.cfg.item_budget {
            Err(RumbleError::dynamic(
                OOM,
                format!("{}: out of memory after materializing {used} items", self.cfg.name),
            ))
        } else {
            Ok(())
        }
    }

    fn claim(&self, items: Vec<Item>) -> Result<Vec<Item>> {
        self.charge(items.len())?;
        if self.cfg.deep_copies {
            Ok(items.iter().map(deep_copy).collect())
        } else {
            Ok(items)
        }
    }

    fn eval_one(&self, e: &Expr, env: &Env, what: &str) -> Result<Item> {
        let v = self.eval(e, env)?;
        item::exactly_one(&v, what)
    }

    fn eval(&self, e: &Expr, env: &Env) -> Result<Vec<Item>> {
        let out: Vec<Item> = match &e.kind {
            ExprKind::Literal(lit) => vec![literal(lit)?],
            ExprKind::Empty => vec![],
            ExprKind::VarRef(name) => env
                .lookup(name)
                .cloned()
                .ok_or_else(|| RumbleError::dynamic("XPST0008", format!("unbound ${name}")))?,
            ExprKind::ContextItem => match &env.ctx_item {
                Some((i, _)) => vec![i.clone()],
                None => return Err(RumbleError::dynamic("XPST0008", "no context item")),
            },
            ExprKind::Sequence(items) => {
                let mut out = Vec::new();
                for i in items {
                    out.extend(self.eval(i, env)?);
                }
                out
            }
            ExprKind::And(a, b) => {
                let v = self.ebv(a, env)? && self.ebv(b, env)?;
                vec![Item::Boolean(v)]
            }
            ExprKind::Or(a, b) => {
                let v = self.ebv(a, env)? || self.ebv(b, env)?;
                vec![Item::Boolean(v)]
            }
            ExprKind::Not(a) => vec![Item::Boolean(!self.ebv(a, env)?)],
            ExprKind::If { cond, then, els } => {
                if self.ebv(cond, env)? {
                    self.eval(then, env)?
                } else {
                    self.eval(els, env)?
                }
            }
            ExprKind::Compare(a, op, b) => {
                let left = self.eval(a, env)?;
                let right = self.eval(b, env)?;
                if op.is_general() {
                    let mut any = false;
                    'outer: for x in &left {
                        for y in &right {
                            if compare(x, *op, y)? {
                                any = true;
                                break 'outer;
                            }
                        }
                    }
                    vec![Item::Boolean(any)]
                } else {
                    match (left.first(), right.first()) {
                        (Some(x), Some(y)) => vec![Item::Boolean(compare(x, *op, y)?)],
                        _ => vec![],
                    }
                }
            }
            ExprKind::Arith(a, op, b) => {
                let (l, r) = (self.eval(a, env)?, self.eval(b, env)?);
                match (l.first(), r.first()) {
                    (Some(x), Some(y)) => vec![match op {
                        ast::ArithOp::Add => item::item_add(x, y)?,
                        ast::ArithOp::Sub => item::item_sub(x, y)?,
                        ast::ArithOp::Mul => item::item_mul(x, y)?,
                        ast::ArithOp::Div => item::item_div(x, y)?,
                        ast::ArithOp::IDiv => item::item_idiv(x, y)?,
                        ast::ArithOp::Mod => item::item_mod(x, y)?,
                    }],
                    _ => vec![],
                }
            }
            ExprKind::UnaryMinus(a) => {
                let v = self.eval(a, env)?;
                match v.first() {
                    Some(x) => vec![item::item_neg(x)?],
                    None => vec![],
                }
            }
            ExprKind::StringConcat(a, b) => {
                let mut s = String::new();
                for side in [a, b] {
                    if let Some(i) = self.eval(side, env)?.first() {
                        s.push_str(&i.string_value()?);
                    }
                }
                vec![Item::str(s)]
            }
            ExprKind::Range(a, b) => {
                match (
                    self.eval(a, env)?.first().and_then(Item::as_i64),
                    self.eval(b, env)?.first().and_then(Item::as_i64),
                ) {
                    (Some(lo), Some(hi)) if lo <= hi => (lo..=hi).map(Item::Integer).collect(),
                    _ => vec![],
                }
            }
            ExprKind::ObjectConstructor(pairs) => {
                let mut members = Vec::with_capacity(pairs.len());
                for (k, v) in pairs {
                    let key: Arc<str> = match k {
                        ast::ObjectKey::Name(n) => Arc::from(n.as_str()),
                        ast::ObjectKey::Expr(e) => {
                            Arc::from(self.eval_one(e, env, "key")?.string_value()?.as_str())
                        }
                    };
                    let vs = self.eval(v, env)?;
                    let value = match vs.len() {
                        0 => Item::Null,
                        1 => vs.into_iter().next().expect("len 1"),
                        _ => return Err(RumbleError::type_err("multi-item object value")),
                    };
                    members.push((key, value));
                }
                vec![Item::object(members)]
            }
            ExprKind::ArrayConstructor(inner) => {
                let items = match inner {
                    None => vec![],
                    Some(e) => self.eval(e, env)?,
                };
                vec![Item::array(items)]
            }
            ExprKind::Postfix(base, ops) => {
                let mut cur = self.eval(base, env)?;
                for op in ops {
                    cur = self.postfix(cur, op, env)?;
                }
                cur
            }
            ExprKind::Quantified { every, bindings, satisfies } => {
                vec![Item::Boolean(self.quantified(bindings, satisfies, *every, env)?)]
            }
            ExprKind::FunctionCall { name, args } => self.call(name, args, env)?,
            ExprKind::Flwor(f) => self.flwor(f, env)?,
            other => {
                return Err(RumbleError::dynamic(
                    "RBML0003",
                    format!("{} does not support this expression: {other:?}", self.cfg.name),
                ))
            }
        };
        self.claim(out)
    }

    fn ebv(&self, e: &Expr, env: &Env) -> Result<bool> {
        let v = self.eval(e, env)?;
        effective_boolean_value(&v)
    }

    fn postfix(&self, input: Vec<Item>, op: &ast::PostfixOp, env: &Env) -> Result<Vec<Item>> {
        Ok(match op {
            ast::PostfixOp::Lookup(key) => {
                let key: Arc<str> = match key {
                    ast::LookupKey::Name(n) => Arc::from(n.as_str()),
                    ast::LookupKey::Expr(e) => {
                        Arc::from(self.eval_one(e, env, "lookup key")?.string_value()?.as_str())
                    }
                };
                input
                    .iter()
                    .filter_map(|i| i.as_object().and_then(|o| o.get(&key).cloned()))
                    .collect()
            }
            ast::PostfixOp::ArrayUnbox => {
                input.iter().filter_map(|i| i.as_array()).flat_map(|a| a.iter().cloned()).collect()
            }
            ast::PostfixOp::ArrayLookup(e) => {
                let idx = self.eval_one(e, env, "array index")?.as_i64().unwrap_or(0);
                input
                    .iter()
                    .filter_map(|i| {
                        if idx >= 1 {
                            i.as_array().and_then(|a| a.get(idx as usize - 1)).cloned()
                        } else {
                            None
                        }
                    })
                    .collect()
            }
            ast::PostfixOp::Predicate(p) => {
                let mut out = Vec::new();
                for (pos, item) in input.into_iter().enumerate() {
                    let child = env.with_ctx(item.clone(), pos as i64 + 1);
                    let v = self.eval(p, &child)?;
                    let keep = if let [one] = v.as_slice() {
                        if one.is_numeric() {
                            one.as_f64() == Some(pos as f64 + 1.0)
                        } else {
                            effective_boolean_value(&v)?
                        }
                    } else {
                        effective_boolean_value(&v)?
                    };
                    if keep {
                        out.push(item);
                    }
                }
                out
            }
        })
    }

    fn quantified(
        &self,
        bindings: &[(String, Expr)],
        satisfies: &Expr,
        every: bool,
        env: &Env,
    ) -> Result<bool> {
        fn solve(
            ng: &NaiveEngine,
            bindings: &[(String, Expr)],
            satisfies: &Expr,
            every: bool,
            env: &Env,
        ) -> Result<bool> {
            let Some((var, src)) = bindings.first() else {
                return ng.ebv(satisfies, env);
            };
            for item in ng.eval(src, env)? {
                let child = env.bind(var, vec![item]);
                let inner = solve(ng, &bindings[1..], satisfies, every, &child)?;
                if inner != every {
                    return Ok(!every);
                }
            }
            Ok(every)
        }
        solve(self, bindings, satisfies, every, env)
    }

    fn call(&self, name: &str, args: &[Expr], env: &Env) -> Result<Vec<Item>> {
        Ok(match (name, args.len()) {
            ("json-file", 1) | ("json-file", 2) => {
                let path = self.eval_one(&args[0], env, "path")?;
                let path = path.as_str().ok_or_else(|| RumbleError::type_err("string path"))?;
                let (scheme, key) = sparklite::storage::resolve_scheme(path);
                let text = match scheme {
                    sparklite::storage::PathScheme::SimHdfs => {
                        self.sc.hdfs().read_to_string(key)?
                    }
                    sparklite::storage::PathScheme::LocalFs => std::fs::read_to_string(key)
                        .map_err(|e| RumbleError::dynamic("RBML0002", format!("{key}: {e}")))?,
                };
                // A naive engine parses and holds the *whole* collection.
                item::items_from_json_lines(&text)?
            }
            ("parallelize", 1) | ("parallelize", 2) => self.eval(&args[0], env)?,
            ("count", 1) => vec![Item::Integer(self.eval(&args[0], env)?.len() as i64)],
            ("sum", 1) => {
                let mut acc = Item::Integer(0);
                for i in self.eval(&args[0], env)? {
                    acc = item::item_add(&acc, &i)?;
                }
                vec![acc]
            }
            ("exists", 1) => vec![Item::Boolean(!self.eval(&args[0], env)?.is_empty())],
            ("empty", 1) => vec![Item::Boolean(self.eval(&args[0], env)?.is_empty())],
            ("head", 1) => self.eval(&args[0], env)?.into_iter().take(1).collect(),
            ("not", 1) => vec![Item::Boolean(!self.ebv(&args[0], env)?)],
            ("boolean", 1) => vec![Item::Boolean(self.ebv(&args[0], env)?)],
            ("string", 1) => {
                let v = self.eval(&args[0], env)?;
                vec![Item::str(
                    v.first().map(|i| i.string_value()).transpose()?.unwrap_or_default(),
                )]
            }
            ("contains", 2) => {
                let s = self.eval_one(&args[0], env, "contains")?.string_value()?;
                let p = self.eval_one(&args[1], env, "contains")?.string_value()?;
                vec![Item::Boolean(s.contains(&p))]
            }
            ("distinct-values", 1) => {
                let mut seen: Vec<GroupKey> = Vec::new();
                let mut out = Vec::new();
                for i in self.eval(&args[0], env)? {
                    let k = group_key(std::slice::from_ref(&i))?;
                    // Naive: linear membership scan.
                    if !seen.contains(&k) {
                        seen.push(k);
                        out.push(i);
                    }
                }
                out
            }
            ("min", 1) | ("max", 1) => {
                let want_min = name == "min";
                let mut best: Option<Item> = None;
                for i in self.eval(&args[0], env)? {
                    best = Some(match best {
                        None => i,
                        Some(b) => {
                            let o = value_compare(&i, &b)?;
                            if (want_min && o == Ordering::Less)
                                || (!want_min && o == Ordering::Greater)
                            {
                                i
                            } else {
                                b
                            }
                        }
                    });
                }
                best.into_iter().collect()
            }
            _ => {
                return Err(RumbleError::dynamic(
                    "XPST0017",
                    format!("{} does not implement {name}#{}", self.cfg.name, args.len()),
                ))
            }
        })
    }

    fn flwor(&self, f: &ast::FlworExpr, env: &Env) -> Result<Vec<Item>> {
        // The naive tuple stream: a fully materialized vector of
        // environments at every stage.
        let mut tuples: Vec<Env> = vec![env.clone()];
        for clause in &f.clauses {
            match clause {
                ast::Clause::For(bindings) => {
                    for b in bindings {
                        let mut next = Vec::new();
                        for t in &tuples {
                            let items = self.eval(&b.expr, t)?;
                            if items.is_empty() && b.allowing_empty {
                                next.push(t.bind(&b.var, vec![]));
                                continue;
                            }
                            for (i, item) in items.into_iter().enumerate() {
                                let mut child = t.bind(&b.var, vec![item]);
                                if let Some(p) = &b.positional {
                                    child = child.bind(p, vec![Item::Integer(i as i64 + 1)]);
                                }
                                self.charge(1)?;
                                next.push(child);
                            }
                        }
                        tuples = next;
                    }
                }
                ast::Clause::Let(bindings) => {
                    for b in bindings {
                        let mut next = Vec::with_capacity(tuples.len());
                        for t in &tuples {
                            let v = self.eval(&b.expr, t)?;
                            next.push(t.bind(&b.var, v));
                        }
                        tuples = next;
                    }
                }
                ast::Clause::Where(pred) => {
                    let mut next = Vec::new();
                    for t in tuples {
                        if self.ebv(pred, &t)? {
                            next.push(t);
                        }
                    }
                    tuples = next;
                }
                ast::Clause::Count(var, _) => {
                    tuples = tuples
                        .into_iter()
                        .enumerate()
                        .map(|(i, t)| t.bind(var, vec![Item::Integer(i as i64 + 1)]))
                        .collect();
                }
                ast::Clause::GroupBy(specs) => {
                    tuples = self.group(specs, tuples)?;
                }
                ast::Clause::OrderBy(specs) => {
                    tuples = self.order(specs, tuples)?;
                }
            }
        }
        let mut out = Vec::new();
        for t in &tuples {
            out.extend(self.eval(&f.return_expr, t)?);
        }
        Ok(out)
    }

    fn group(&self, specs: &[ast::GroupSpec], tuples: Vec<Env>) -> Result<Vec<Env>> {
        // Which variables must survive grouping: everything bound — a naive
        // engine materializes it all (no §4.7 analysis here).
        let mut all_vars: Vec<String> = Vec::new();
        for t in &tuples {
            for (v, _) in &t.vars {
                if !all_vars.contains(v) {
                    all_vars.push(v.clone());
                }
            }
        }
        let key_vars: Vec<&String> = specs.iter().map(|s| &s.var).collect();

        type Group = (Vec<GroupKey>, Vec<Vec<Item>>);
        let mut order: Vec<Vec<GroupKey>> = Vec::new();
        let mut by_key: HashMap<Vec<GroupKey>, Vec<Vec<Item>>> = HashMap::new();
        let mut linear: Vec<Group> = Vec::new();

        for t in &tuples {
            let mut key = Vec::with_capacity(specs.len());
            for s in specs {
                let v = match &s.expr {
                    Some(e) => self.eval(e, t)?,
                    None => t.lookup(&s.var).cloned().unwrap_or_default(),
                };
                key.push(group_key(&v)?);
            }
            let values: Vec<Vec<Item>> =
                all_vars.iter().map(|v| t.lookup(v).cloned().unwrap_or_default()).collect();
            self.charge(values.iter().map(|v| v.len()).sum())?;
            if self.cfg.quadratic_group {
                match linear.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, acc)) => {
                        for (slot, v) in acc.iter_mut().zip(values) {
                            slot.extend(v);
                        }
                    }
                    None => linear.push((key, values)),
                }
            } else {
                match by_key.get_mut(&key) {
                    Some(acc) => {
                        for (slot, v) in acc.iter_mut().zip(values) {
                            slot.extend(v);
                        }
                    }
                    None => {
                        order.push(key.clone());
                        by_key.insert(key, values);
                    }
                }
            }
        }
        let groups: Vec<Group> = if self.cfg.quadratic_group {
            linear
        } else {
            order
                .into_iter()
                .map(|k| {
                    let v = by_key.remove(&k).expect("key recorded");
                    (k, v)
                })
                .collect()
        };
        let mut out = Vec::with_capacity(groups.len());
        for (key, values) in groups {
            let mut env = Env::default();
            for (var, vals) in all_vars.iter().zip(values) {
                if key_vars.contains(&var) {
                    continue;
                }
                env = env.bind(var, vals);
            }
            for (s, k) in specs.iter().zip(key) {
                env = env.bind(&s.var, k.to_item().into_iter().collect());
            }
            out.push(env);
        }
        Ok(out)
    }

    fn order(&self, specs: &[ast::OrderSpec], tuples: Vec<Env>) -> Result<Vec<Env>> {
        // Keys per tuple: Option<Item> with None = empty sequence.
        let mut keyed: Vec<(Vec<Option<Item>>, Env)> = Vec::with_capacity(tuples.len());
        for t in tuples {
            let mut keys = Vec::with_capacity(specs.len());
            for s in specs {
                let v = self.eval(&s.expr, &t)?;
                keys.push(v.into_iter().next());
            }
            keyed.push((keys, t));
        }
        let spec_flags: Vec<(bool, bool)> =
            specs.iter().map(|s| (s.descending, s.empty_greatest.unwrap_or(false))).collect();
        let cmp = |a: &Vec<Option<Item>>, b: &Vec<Option<Item>>| -> Ordering {
            for ((x, y), (desc, eg)) in a.iter().zip(b).zip(&spec_flags) {
                let o = match (x, y) {
                    (None, None) => Ordering::Equal,
                    (None, Some(_)) => {
                        if *eg {
                            Ordering::Greater
                        } else {
                            Ordering::Less
                        }
                    }
                    (Some(_), None) => {
                        if *eg {
                            Ordering::Less
                        } else {
                            Ordering::Greater
                        }
                    }
                    (Some(x), Some(y)) => value_compare(x, y).unwrap_or(Ordering::Equal),
                };
                let o = if *desc { o.reverse() } else { o };
                if o != Ordering::Equal {
                    return o;
                }
            }
            Ordering::Equal
        };
        if self.cfg.insertion_sort {
            // Binary insertion: O(n log n) comparisons, O(n²) moves.
            let mut sorted: Vec<(Vec<Option<Item>>, Env)> = Vec::with_capacity(keyed.len());
            for row in keyed {
                let pos = sorted.partition_point(|r| cmp(&r.0, &row.0) != Ordering::Greater);
                sorted.insert(pos, row);
            }
            keyed = sorted;
        } else {
            keyed.sort_by(|a, b| cmp(&a.0, &b.0));
        }
        Ok(keyed.into_iter().map(|(_, t)| t).collect())
    }
}

fn literal(lit: &ast::Literal) -> Result<Item> {
    Ok(match lit {
        ast::Literal::Null => Item::Null,
        ast::Literal::Boolean(b) => Item::Boolean(*b),
        ast::Literal::Integer(v) => Item::Integer(*v),
        ast::Literal::Decimal(raw) => {
            Item::decimal(raw.parse().map_err(|()| RumbleError::syntax("bad decimal", None))?)
        }
        ast::Literal::Double(v) => Item::Double(*v),
        ast::Literal::Str(s) => Item::str(s),
    })
}

fn compare(a: &Item, op: CompOp, b: &Item) -> Result<bool> {
    use CompOp::*;
    match op {
        ValueEq | GenEq => Ok(item::atomic_equal(a, b)),
        ValueNe | GenNe => Ok(!item::atomic_equal(a, b)),
        _ => {
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

fn deep_copy(i: &Item) -> Item {
    match i {
        Item::Array(a) => Item::array(a.iter().map(deep_copy).collect()),
        Item::Object(o) => Item::object(
            o.pairs().iter().map(|(k, v)| (Arc::from(k.as_ref()), deep_copy(v))).collect(),
        ),
        Item::Str(s) => Item::str(s.as_ref()),
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparklite::SparkliteConf;

    fn sc_with_data(n: usize) -> SparkliteContext {
        let sc = SparkliteContext::new(SparkliteConf::default().with_executors(2));
        let mut text = String::new();
        for i in 0..n {
            let t = ["French", "Danish", "German"][i % 3];
            let g = if i % 2 == 0 { t } else { "Swedish" };
            text.push_str(&format!(
                "{{\"guess\": \"{g}\", \"target\": \"{t}\", \"country\": \"AU\", \
                 \"sample\": \"s{i:04}\", \"date\": \"2013-08-01\"}}\n"
            ));
        }
        sc.hdfs().put_text("/n.json", &text).unwrap();
        sc
    }

    #[test]
    fn zorba_like_answers_match_rumble() {
        let sc = sc_with_data(90);
        let naive = NaiveEngine::new(zorba_like(), &sc);
        let QueryOutput::Count(n) =
            naive.run_confusion("hdfs:///n.json", ConfusionQuery::Filter).unwrap()
        else {
            panic!()
        };
        assert_eq!(n, 45);
        let QueryOutput::Groups(g) =
            naive.run_confusion("hdfs:///n.json", ConfusionQuery::Group).unwrap().normalized()
        else {
            panic!()
        };
        assert_eq!(g.iter().map(|(_, _, n)| n).sum::<u64>(), 90);
        let QueryOutput::TopSamples(top) =
            naive.run_confusion("hdfs:///n.json", ConfusionQuery::Sort).unwrap()
        else {
            panic!()
        };
        assert_eq!(top.len(), 10);
    }

    #[test]
    fn xidel_like_agrees_on_small_inputs() {
        let sc = sc_with_data(60);
        let a = NaiveEngine::new(zorba_like(), &sc);
        let b = NaiveEngine::new(xidel_like(), &sc);
        for q in [ConfusionQuery::Filter, ConfusionQuery::Group, ConfusionQuery::Sort] {
            assert_eq!(
                a.run_confusion("hdfs:///n.json", q).unwrap().normalized(),
                b.run_confusion("hdfs:///n.json", q).unwrap().normalized(),
            );
        }
    }

    #[test]
    fn memory_budget_produces_oom() {
        let sc = sc_with_data(2000);
        let tiny = NaiveConfig { item_budget: 1000, ..zorba_like() };
        let naive = NaiveEngine::new(tiny, &sc);
        let err = naive.run_confusion("hdfs:///n.json", ConfusionQuery::Group).unwrap_err();
        assert_eq!(err.code, OOM);
        assert!(err.message.contains("out of memory"));
    }

    #[test]
    fn general_queries_work() {
        let sc = SparkliteContext::default_local();
        let naive = NaiveEngine::new(zorba_like(), &sc);
        let out = naive.run("for $x in (1, 2, 3) where $x gt 1 return $x * 10").unwrap();
        assert_eq!(out, vec![Item::Integer(20), Item::Integer(30)]);
        let out = naive.run("distinct-values((1, 1.0, \"a\", 1))").unwrap();
        assert_eq!(out.len(), 2);
        assert!(naive.run("declare function local:f($x) { $x }; local:f(1)").is_err());
    }
}
