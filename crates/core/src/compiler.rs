//! Code generation (§5.4): converts the checked AST into the tree of
//! runtime iterators, including the FLWOR clause chain and the group-by
//! consumption analysis of §4.7 (count-only and unused non-grouping
//! variables).

use crate::error::{codes, Result, RumbleError};
use crate::flwor::clauses::{
    CountClauseIter, ForClauseIter, GroupByClauseIter, GroupKeySpec, LetClauseIter,
    NonGroupingUsage, OrderByClauseIter, OrderSpecIter, WhereClauseIter,
};
use crate::flwor::{ClauseRef, FlworIter};
use crate::item::{Dec, Fields, Item};
use crate::runtime::exprs::*;
use crate::runtime::functions::{Builtin, BuiltinCallIter, CompiledFunction, UserCallIter};
use crate::runtime::profile::{ProfileRegistry, ProfiledIter};
use crate::runtime::ExprRef;
use crate::semantics::{check_program, flwor_is_parallel, free_variables, is_parallel};
use crate::syntax::ast::{self, for_each_child, map_children};
use crate::syntax::parse_program;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// A compiled program: global variable initializers (in declaration order)
/// plus the main expression.
pub struct CompiledProgram {
    pub globals: Vec<(Arc<str>, ExprRef)>,
    pub body: ExprRef,
}

/// Parses, checks and compiles a query.
pub fn compile_query(src: &str) -> Result<CompiledProgram> {
    let program = parse_program(src)?;
    check_program(&program)?;
    compile_program(&program)
}

/// Like [`compile_query`], but wraps every runtime iterator in a profiling
/// decorator recording opens, rows, sampled time and execution mode per
/// plan node — the compilation behind `EXPLAIN ANALYZE`. Render the
/// registry after executing the program. `auto_persist` says whether the
/// engine that runs it auto-persists literal-path sources, whose scans
/// then build every field: the plan's `json-file` nodes say which fields
/// they build.
pub fn compile_query_profiled(
    src: &str,
    auto_persist: bool,
) -> Result<(CompiledProgram, Arc<ProfileRegistry>)> {
    let program = parse_program(src)?;
    check_program(&program)?;
    let registry = Arc::new(ProfileRegistry::new());
    let c = Compiler {
        functions: HashMap::new(),
        profiler: Some(Profiler {
            registry: Arc::clone(&registry),
            stack: RefCell::new(Vec::new()),
            auto_persist,
        }),
    };
    Ok((compile_with(c, &program)?, registry))
}

/// Compiles a checked AST.
pub fn compile_program(p: &ast::Program) -> Result<CompiledProgram> {
    compile_with(Compiler { functions: HashMap::new(), profiler: None }, p)
}

fn compile_with(mut c: Compiler, p: &ast::Program) -> Result<CompiledProgram> {
    // Pass 1: a slot per declared function, so bodies can call forward and
    // recursively.
    for d in &p.decls {
        if let ast::Decl::Function { name, params, .. } = d {
            c.functions.insert((name.clone(), params.len()), Arc::new(OnceLock::new()));
        }
    }
    // Pass 2: compile bodies and globals.
    let mut globals = Vec::new();
    for d in &p.decls {
        match d {
            ast::Decl::Variable { name, expr, .. } => {
                globals.push((Arc::<str>::from(name.as_str()), c.expr(expr)?));
            }
            ast::Decl::Function { name, params, body, .. } => {
                let compiled = CompiledFunction {
                    params: params.iter().map(|p| Arc::<str>::from(p.as_str())).collect(),
                    body: c.expr(body)?,
                };
                let slot = c.functions.get(&(name.clone(), params.len())).expect("slot created");
                slot.set(compiled).ok().expect("each function is compiled exactly once");
            }
        }
    }
    let body = c.expr(&p.body)?;
    debug_assert_eq!(body.is_parallel(), is_parallel(&p.body), "the mode of the compiled body");
    Ok(CompiledProgram { globals, body })
}

struct Compiler {
    functions: HashMap<(String, usize), Arc<OnceLock<CompiledFunction>>>,
    /// `Some` for profiled compilations (`EXPLAIN ANALYZE`): every node
    /// built by [`Compiler::expr`] is registered and wrapped.
    profiler: Option<Profiler>,
}

struct Profiler {
    registry: Arc<ProfileRegistry>,
    /// Registry indices of the enclosing nodes during the (single-threaded,
    /// recursive) compile — the top is the parent of the next registration.
    stack: RefCell<Vec<usize>>,
    /// See [`compile_query_profiled`].
    auto_persist: bool,
}

impl Compiler {
    /// Compiles one expression node. In profiled mode this registers the
    /// node (under the enclosing node being compiled, if any) and wraps the
    /// iterator in a [`ProfiledIter`]; otherwise it is [`Compiler::expr_inner`].
    fn expr(&self, e: &ast::Expr) -> Result<ExprRef> {
        self.node(|_| expr_label(e), || self.expr_inner(e))
    }

    /// Compiles the source of a FLWOR's initial `for`, a `json-file` call,
    /// to a scan that builds only `fields` of each item (see
    /// [`scan_fields`]).
    fn scan_source(&self, e: &ast::Expr, fields: Fields) -> Result<ExprRef> {
        let ast::ExprKind::FunctionCall { name, args } = &e.kind else {
            unreachable!("scan_fields only projects a json-file call")
        };
        // An auto-persisted source caches, and so builds, every field.
        let label = |p: &Profiler| {
            let persisted = p.auto_persist && literal_key(name, args).is_some();
            let fields = if persisted { None } else { Some(&fields) };
            format!("FunctionCall({name}#{}) {}", args.len(), fields_label(fields))
        };
        self.node(label, || self.function_call(name, args, Some(fields.clone())))
    }

    /// Builds one node. In profiled mode this registers the node, labelled
    /// `label`, under the enclosing node being compiled, if any, and wraps
    /// the iterator in a [`ProfiledIter`].
    fn node(
        &self,
        label: impl FnOnce(&Profiler) -> String,
        build: impl FnOnce() -> Result<ExprRef>,
    ) -> Result<ExprRef> {
        let Some(p) = &self.profiler else { return build() };
        let parent = p.stack.borrow().last().copied();
        let (id, stats) = p.registry.register(label(p), parent);
        p.stack.borrow_mut().push(id);
        let inner = build();
        p.stack.borrow_mut().pop();
        Ok(Arc::new(ProfiledIter { inner: inner?, stats }))
    }

    fn expr_inner(&self, e: &ast::Expr) -> Result<ExprRef> {
        Ok(match &e.kind {
            ast::ExprKind::Literal(lit) => Arc::new(LiteralIter(literal_item(lit)?)),
            ast::ExprKind::Empty => Arc::new(EmptySeqIter),
            ast::ExprKind::VarRef(name) => Arc::new(VarRefIter(Arc::from(name.as_str()))),
            ast::ExprKind::ContextItem => Arc::new(ContextItemIter),
            ast::ExprKind::Sequence(items) => {
                Arc::new(CommaIter(items.iter().map(|i| self.expr(i)).collect::<Result<_>>()?))
            }
            ast::ExprKind::Or(a, b) => Arc::new(OrIter(self.expr(a)?, self.expr(b)?)),
            ast::ExprKind::And(a, b) => Arc::new(AndIter(self.expr(a)?, self.expr(b)?)),
            ast::ExprKind::Not(a) => Arc::new(NotIter(self.expr(a)?)),
            ast::ExprKind::Compare(a, op, b) => {
                Arc::new(CompareIter { left: self.expr(a)?, op: *op, right: self.expr(b)? })
            }
            ast::ExprKind::Arith(a, op, b) => {
                Arc::new(ArithIter { left: self.expr(a)?, op: *op, right: self.expr(b)? })
            }
            ast::ExprKind::UnaryMinus(a) => Arc::new(UnaryMinusIter(self.expr(a)?)),
            ast::ExprKind::StringConcat(a, b) => {
                Arc::new(StringConcatIter(self.expr(a)?, self.expr(b)?))
            }
            ast::ExprKind::Range(a, b) => Arc::new(RangeIter(self.expr(a)?, self.expr(b)?)),
            ast::ExprKind::If { cond, then, els } => Arc::new(IfIter {
                cond: self.expr(cond)?,
                then: self.expr(then)?,
                els: self.expr(els)?,
            }),
            ast::ExprKind::Switch { input, cases, default } => Arc::new(SwitchIter {
                input: self.expr(input)?,
                cases: cases
                    .iter()
                    .map(|(values, result)| {
                        Ok((
                            values.iter().map(|v| self.expr(v)).collect::<Result<_>>()?,
                            self.expr(result)?,
                        ))
                    })
                    .collect::<Result<_>>()?,
                default: self.expr(default)?,
            }),
            ast::ExprKind::TryCatch { body, codes, handler } => Arc::new(TryCatchIter {
                body: self.expr(body)?,
                codes: codes.clone(),
                handler: self.expr(handler)?,
            }),
            ast::ExprKind::Quantified { every, bindings, satisfies } => Arc::new(QuantifiedIter {
                every: *every,
                bindings: bindings
                    .iter()
                    .map(|(v, src)| Ok((Arc::<str>::from(v.as_str()), self.expr(src)?)))
                    .collect::<Result<_>>()?,
                satisfies: self.expr(satisfies)?,
            }),
            ast::ExprKind::SimpleMap(a, b) => {
                Arc::new(SimpleMapIter { left: self.expr(a)?, right: self.expr(b)? })
            }
            ast::ExprKind::InstanceOf(a, st) => Arc::new(InstanceOfIter(self.expr(a)?, st.clone())),
            ast::ExprKind::TreatAs(a, st) => Arc::new(TreatAsIter(self.expr(a)?, st.clone())),
            ast::ExprKind::CastAs(a, t, opt) => {
                Arc::new(CastAsIter { child: self.expr(a)?, target: *t, optional: *opt })
            }
            ast::ExprKind::CastableAs(a, t, opt) => {
                Arc::new(CastableAsIter { child: self.expr(a)?, target: *t, optional: *opt })
            }
            ast::ExprKind::ObjectConstructor(pairs) => Arc::new(ObjectConstructorIter {
                pairs: pairs
                    .iter()
                    .map(|(k, v)| {
                        Ok((
                            match k {
                                ast::ObjectKey::Name(n) => KeySpec::Static(Arc::from(n.as_str())),
                                ast::ObjectKey::Expr(e) => KeySpec::Computed(self.expr(e)?),
                            },
                            self.expr(v)?,
                        ))
                    })
                    .collect::<Result<_>>()?,
            }),
            ast::ExprKind::ArrayConstructor(inner) => {
                Arc::new(ArrayConstructorIter(inner.as_deref().map(|i| self.expr(i)).transpose()?))
            }
            ast::ExprKind::Postfix(base, ops) => {
                let mut cur = self.expr(base)?;
                for op in ops {
                    cur = match op {
                        ast::PostfixOp::Lookup(ast::LookupKey::Name(n)) => {
                            Arc::new(ObjectLookupIter {
                                target: cur,
                                key: KeySpec::Static(Arc::from(n.as_str())),
                            })
                        }
                        ast::PostfixOp::Lookup(ast::LookupKey::Expr(e)) => {
                            Arc::new(ObjectLookupIter {
                                target: cur,
                                key: KeySpec::Computed(self.expr(e)?),
                            })
                        }
                        ast::PostfixOp::ArrayUnbox => Arc::new(ArrayUnboxIter(cur)),
                        ast::PostfixOp::ArrayLookup(e) => {
                            Arc::new(ArrayLookupIter { target: cur, index: self.expr(e)? })
                        }
                        ast::PostfixOp::Predicate(e) => {
                            Arc::new(PredicateIter { target: cur, predicate: self.expr(e)? })
                        }
                    };
                }
                cur
            }
            ast::ExprKind::FunctionCall { name, args } => self.function_call(name, args, None)?,
            ast::ExprKind::Flwor(f) => self.flwor(f)?,
        })
    }

    /// Compiles a function call. `fields`, for a `json-file` call only,
    /// are the top-level fields its scan builds when it is not persisted.
    fn function_call(
        &self,
        name: &str,
        args: &[ast::Expr],
        fields: Option<Fields>,
    ) -> Result<ExprRef> {
        let compiled: Vec<ExprRef> = args.iter().map(|a| self.expr(a)).collect::<Result<_>>()?;
        let literal_key = literal_key(name, args);
        // Input functions get dedicated source iterators (§5.7).
        match (name, compiled.len()) {
            ("json-file", 1) | ("json-file", 2) => {
                let mut it = compiled.into_iter();
                let (path, partitions) = (it.next().expect("arity"), it.next());
                let scan = |fields| -> ExprRef {
                    Arc::new(JsonFileIter {
                        path: Arc::clone(&path),
                        partitions: partitions.clone(),
                        fields,
                    })
                };
                return Ok(match literal_key {
                    // The cache holds full items for every later query, so
                    // only a scan that is not persisted projects.
                    Some(key) => Arc::new(PersistIter {
                        inner: scan(None),
                        key,
                        unpersisted: fields.map(|f| scan(Some(f))),
                    }),
                    None => scan(fields),
                });
            }
            ("parallelize", 1) | ("parallelize", 2) => {
                let mut it = compiled.into_iter();
                return Ok(Arc::new(ParallelizeIter {
                    child: it.next().expect("arity"),
                    partitions: it.next(),
                }));
            }
            ("collection", 1) => {
                let mut it = compiled.into_iter();
                let source: ExprRef = Arc::new(CollectionIter { name: it.next().expect("arity") });
                return Ok(match literal_key {
                    Some(key) => Arc::new(PersistIter { inner: source, key, unpersisted: None }),
                    None => source,
                });
            }
            _ => {}
        }
        if let Some(builtin) = Builtin::lookup(name, compiled.len()) {
            return Ok(Arc::new(BuiltinCallIter { builtin, args: compiled }));
        }
        if let Some(slot) = self.functions.get(&(name.to_string(), compiled.len())) {
            return Ok(Arc::new(UserCallIter {
                name: name.to_string(),
                slot: Arc::clone(slot),
                args: compiled,
            }));
        }
        Err(RumbleError::static_err(
            codes::UNDEFINED_FUNCTION,
            format!("unknown function {name}#{}", compiled.len()),
        ))
    }

    /// The FLWOR variables an expression reads, relative to the clause
    /// chain compiled so far — the UDF footprint for DataFrame mode.
    fn flwor_uses(expr: &ast::Expr, chain: Option<&ClauseRef>) -> Vec<Arc<str>> {
        let Some(chain) = chain else { return Vec::new() };
        let free = free_variables(expr);
        chain.out_vars().iter().filter(|v| free.contains(v.as_ref())).cloned().collect()
    }

    fn flwor(&self, f: &ast::FlworExpr) -> Result<ExprRef> {
        // Clauses and the return expression are cloned because the §4.7
        // count-only analysis may rewrite `count($x)` into `$x` downstream
        // of a group-by.
        let mut clauses: Vec<ast::Clause> = f.clauses.clone();
        let mut ret: ast::Expr = (*f.return_expr).clone();
        let mut chain: Option<ClauseRef> = None;
        // The fields the initial `for` reads of a scanned file, decided on
        // the clauses as written: `count($v)` keeps the projection whether
        // or not §4.7 rewrites it below. A tuple count reads no return, so
        // its scan may build fewer.
        let no_return = ast::ExprKind::Empty.at(ret.span);
        let count_fields = scan_fields(&clauses, &no_return);
        let mut scan_fields = scan_fields(&clauses, &ret);
        let count_fields = count_fields
            .filter(|count| scan_fields.as_ref().is_none_or(|items| count.len() < items.len()));

        let mut i = 0;
        while i < clauses.len() {
            let clause = clauses[i].clone();
            match clause {
                ast::Clause::For(bindings) => {
                    for b in bindings {
                        let uses = Self::flwor_uses(&b.expr, chain.as_ref());
                        let source = match scan_fields.take() {
                            Some(fields) => self.scan_source(&b.expr, fields)?,
                            None => self.expr(&b.expr)?,
                        };
                        chain = Some(Arc::new(ForClauseIter::new(
                            chain.take(),
                            Arc::from(b.var.as_str()),
                            b.positional.as_deref().map(Arc::from),
                            b.allowing_empty,
                            source,
                            uses,
                        )));
                    }
                }
                ast::Clause::Let(bindings) => {
                    for b in bindings {
                        let uses = Self::flwor_uses(&b.expr, chain.as_ref());
                        chain = Some(Arc::new(LetClauseIter::new(
                            chain.take(),
                            Arc::from(b.var.as_str()),
                            self.expr(&b.expr)?,
                            uses,
                        )));
                    }
                }
                ast::Clause::Where(pred) => {
                    let parent = chain.take().expect("parser guarantees an initial clause");
                    let uses = Self::flwor_uses(&pred, Some(&parent));
                    chain = Some(Arc::new(WhereClauseIter {
                        parent,
                        predicate: self.expr(&pred)?,
                        uses,
                    }));
                }
                ast::Clause::Count(var, _) => {
                    let parent = chain.take().expect("parser guarantees an initial clause");
                    chain = Some(Arc::new(CountClauseIter::new(parent, Arc::from(var.as_str()))));
                }
                ast::Clause::OrderBy(specs) => {
                    let parent = chain.take().expect("parser guarantees an initial clause");
                    let compiled = specs
                        .iter()
                        .map(|s| {
                            Ok(OrderSpecIter {
                                expr: self.expr(&s.expr)?,
                                uses: Self::flwor_uses(&s.expr, Some(&parent)),
                                descending: s.descending,
                                empty_greatest: s.empty_greatest.unwrap_or(false),
                            })
                        })
                        .collect::<Result<Vec<_>>>()?;
                    chain = Some(Arc::new(OrderByClauseIter { parent, specs: compiled }));
                }
                ast::Clause::GroupBy(specs) => {
                    let parent = chain.take().expect("parser guarantees an initial clause");
                    let key_vars: Vec<&str> = specs.iter().map(|s| s.var.as_str()).collect();
                    // §4.7 consumption analysis of every non-grouping
                    // variable against the *rest* of the FLWOR.
                    let mut nongrouping = Vec::new();
                    for v in parent.out_vars() {
                        if key_vars.contains(&v.as_ref()) {
                            continue;
                        }
                        let usage = analyze_usage(v, &clauses[i + 1..], &ret);
                        if usage == NonGroupingUsage::CountOnly {
                            for c in clauses[i + 1..].iter_mut() {
                                rewrite_clause_counts(c, v);
                            }
                            ret = rewrite_counts(&ret, v);
                        }
                        nongrouping.push((Arc::clone(v), usage));
                    }
                    let keys = specs
                        .iter()
                        .map(|s| {
                            Ok(GroupKeySpec {
                                var: Arc::from(s.var.as_str()),
                                expr: s.expr.as_ref().map(|e| self.expr(e)).transpose()?,
                                uses: match &s.expr {
                                    Some(e) => Self::flwor_uses(e, Some(&parent)),
                                    None => vec![Arc::from(s.var.as_str())],
                                },
                            })
                        })
                        .collect::<Result<Vec<_>>>()?;
                    chain = Some(Arc::new(GroupByClauseIter::new(parent, keys, nongrouping)));
                }
            }
            i += 1;
        }

        let last = chain.expect("parser guarantees at least one clause");
        let return_uses = Self::flwor_uses(&ret, Some(&last));
        let return_var = match &ret.kind {
            ast::ExprKind::VarRef(v) => Some(Arc::from(v.as_str())),
            _ => None,
        };
        let return_expr = self.expr(&ret)?;
        let counts_tuples = yields_one(&ret, &last);
        // The narrower source serves a fused scan's tuple count only.
        let count_source = match (&f.clauses[0], count_fields) {
            (ast::Clause::For(bindings), Some(fields))
                if counts_tuples && last.fused_scan().is_some() =>
            {
                Some(self.scan_source(&bindings[0].expr, fields)?)
            }
            _ => None,
        };
        Ok(Arc::new(FlworIter {
            last,
            return_expr,
            return_uses,
            return_var,
            counts_tuples,
            count_source,
            parallel: flwor_is_parallel(f),
        }))
    }
}

/// The operator label `EXPLAIN ANALYZE` shows for one AST node.
fn expr_label(e: &ast::Expr) -> String {
    match &e.kind {
        ast::ExprKind::Literal(lit) => {
            let v = match lit {
                ast::Literal::Null => "null".to_string(),
                ast::Literal::Boolean(b) => b.to_string(),
                ast::Literal::Integer(v) => v.to_string(),
                ast::Literal::Decimal(raw) => raw.clone(),
                ast::Literal::Double(v) => v.to_string(),
                ast::Literal::Str(s) if s.len() <= 18 => format!("\"{s}\""),
                ast::Literal::Str(s) => format!("\"{}…\"", s.chars().take(15).collect::<String>()),
            };
            format!("Literal({v})")
        }
        ast::ExprKind::Empty => "EmptySequence".to_string(),
        ast::ExprKind::VarRef(name) => format!("VarRef(${name})"),
        ast::ExprKind::ContextItem => "ContextItem".to_string(),
        ast::ExprKind::Sequence(items) => format!("Comma({})", items.len()),
        ast::ExprKind::Or(..) => "Or".to_string(),
        ast::ExprKind::And(..) => "And".to_string(),
        ast::ExprKind::Not(..) => "Not".to_string(),
        ast::ExprKind::Compare(_, op, _) => format!("Compare({op:?})"),
        ast::ExprKind::Arith(_, op, _) => format!("Arith({op:?})"),
        ast::ExprKind::UnaryMinus(..) => "UnaryMinus".to_string(),
        ast::ExprKind::StringConcat(..) => "StringConcat".to_string(),
        ast::ExprKind::Range(..) => "Range".to_string(),
        ast::ExprKind::If { .. } => "If".to_string(),
        ast::ExprKind::Switch { .. } => "Switch".to_string(),
        ast::ExprKind::TryCatch { .. } => "TryCatch".to_string(),
        ast::ExprKind::Quantified { every, .. } => {
            format!("Quantified({})", if *every { "every" } else { "some" })
        }
        ast::ExprKind::SimpleMap(..) => "SimpleMap".to_string(),
        ast::ExprKind::InstanceOf(..) => "InstanceOf".to_string(),
        ast::ExprKind::TreatAs(..) => "TreatAs".to_string(),
        ast::ExprKind::CastAs(..) => "CastAs".to_string(),
        ast::ExprKind::CastableAs(..) => "CastableAs".to_string(),
        ast::ExprKind::ObjectConstructor(pairs) => format!("ObjectConstructor({})", pairs.len()),
        ast::ExprKind::ArrayConstructor(..) => "ArrayConstructor".to_string(),
        ast::ExprKind::Postfix(_, ops) => {
            let mut shape = String::new();
            for op in ops {
                match op {
                    ast::PostfixOp::Lookup(ast::LookupKey::Name(n)) => {
                        shape.push('.');
                        shape.push_str(n);
                    }
                    ast::PostfixOp::Lookup(ast::LookupKey::Expr(_)) => shape.push_str(".(…)"),
                    ast::PostfixOp::ArrayUnbox => shape.push_str("[]"),
                    ast::PostfixOp::ArrayLookup(_) => shape.push_str("[[…]]"),
                    ast::PostfixOp::Predicate(_) => shape.push_str("[…]"),
                }
            }
            format!("Postfix({shape})")
        }
        ast::ExprKind::FunctionCall { name, args } if name == "json-file" => {
            format!("FunctionCall({name}#{}) {}", args.len(), fields_label(None))
        }
        ast::ExprKind::FunctionCall { name, args } => {
            format!("FunctionCall({name}#{})", args.len())
        }
        ast::ExprKind::Flwor(f) => {
            let mut shape = String::new();
            for c in &f.clauses {
                if !shape.is_empty() {
                    shape.push(' ');
                }
                shape.push_str(match c {
                    ast::Clause::For(..) => "for",
                    ast::Clause::Let(..) => "let",
                    ast::Clause::Where(..) => "where",
                    ast::Clause::GroupBy(..) => "group-by",
                    ast::Clause::OrderBy(..) => "order-by",
                    ast::Clause::Count(..) => "count",
                });
            }
            format!("Flwor({shape} return)")
        }
    }
}

/// What a `json-file` scan builds, for its plan label.
fn fields_label(fields: Option<&Fields>) -> String {
    match fields {
        None => "fields=all".to_string(),
        Some(fields) => format!("fields=[{}]", fields.join(", ")),
    }
}

/// The engine-wide identity of a source named by a string literal,
/// `<function>:<literal>`. Such a source always reads the same data, so
/// its RDD can be auto-persisted and shared engine-wide under this key; a
/// computed path may resolve differently per evaluation and must not be.
fn literal_key(name: &str, args: &[ast::Expr]) -> Option<String> {
    match args.first().map(|a| &a.kind) {
        Some(ast::ExprKind::Literal(ast::Literal::Str(s))) => Some(format!("{name}:{s}")),
        _ => None,
    }
}

fn literal_item(lit: &ast::Literal) -> Result<Item> {
    Ok(match lit {
        ast::Literal::Null => Item::Null,
        ast::Literal::Boolean(b) => Item::Boolean(*b),
        ast::Literal::Integer(v) => Item::Integer(*v),
        ast::Literal::Decimal(raw) => Item::decimal(raw.parse::<Dec>().map_err(|()| {
            RumbleError::syntax(format!("decimal literal out of range: {raw}"), None)
        })?),
        ast::Literal::Double(v) => Item::Double(*v),
        ast::Literal::Str(s) => Item::str(s),
    })
}

// ---------------------------------------------------------------------------
// §4.7 consumption analysis
// ---------------------------------------------------------------------------

/// Decides how a non-grouping variable is consumed downstream of its
/// group-by: never (`Unused`, no column is created), only ever as
/// `count($v)` (`CountOnly`, a native COUNT/SUM replaces materialization),
/// or for real (`Materialize`).
fn analyze_usage(var: &str, rest: &[ast::Clause], ret: &ast::Expr) -> NonGroupingUsage {
    let (mut refs, mut counted) = (0, 0);
    let rebound = visit_rest(var, rest, ret, &mut |e| usage_walk(e, var, &mut refs, &mut counted));
    if rebound {
        // A later clause (or nested scope) rebinds the name: rewriting
        // would be unsound, so keep the full materialization.
        return if refs + counted > 0 {
            NonGroupingUsage::Materialize
        } else {
            NonGroupingUsage::Unused
        };
    }
    if refs > 0 {
        NonGroupingUsage::Materialize
    } else if counted > 0 {
        NonGroupingUsage::CountOnly
    } else {
        NonGroupingUsage::Unused
    }
}

/// Calls `visit` on every expression of the clauses `rest` and of `ret`,
/// and says whether a clause of `rest` or a scope nested in one of those
/// expressions (re)binds `var`. A grouping spec with no expression
/// (`group by $var`) reads the variable whole: it is visited as a plain
/// reference to it.
fn visit_rest<'a>(
    var: &str,
    rest: impl IntoIterator<Item = &'a ast::Clause>,
    ret: &ast::Expr,
    visit: &mut dyn FnMut(&ast::Expr),
) -> bool {
    // Visits `e`; true if a scope nested in it rebinds `var`.
    let mut check = |e: &ast::Expr| {
        visit(e);
        rebinds(e, var)
    };
    let mut rebound = false;
    for c in rest {
        match c {
            ast::Clause::For(bindings) => {
                for b in bindings {
                    rebound |= check(&b.expr);
                    rebound |= b.var == var || b.positional.as_deref() == Some(var);
                }
            }
            ast::Clause::Let(bindings) => {
                for b in bindings {
                    rebound |= check(&b.expr);
                    rebound |= b.var == var;
                }
            }
            ast::Clause::Where(e) => rebound |= check(e),
            ast::Clause::GroupBy(specs) => {
                for s in specs {
                    match &s.expr {
                        Some(e) => rebound |= check(e),
                        None if s.var == var => {
                            check(&ast::ExprKind::VarRef(s.var.clone()).at(s.span));
                        }
                        None => {}
                    }
                    rebound |= s.var == var;
                }
            }
            ast::Clause::OrderBy(specs) => {
                for s in specs {
                    rebound |= check(&s.expr);
                }
            }
            ast::Clause::Count(v, _) => rebound |= v == var,
        }
    }
    rebound | check(ret)
}

// ---------------------------------------------------------------------------
// Cardinality-only consumers
// ---------------------------------------------------------------------------

/// Whether `e`, a FLWOR's return over the clause chain ending in `last`,
/// yields exactly one item per tuple and never raises, so a count of the
/// FLWOR counts its tuples: a literal, or a variable bound to one item in
/// every tuple (a `for` variable without `allowing empty`, a position, a
/// `count` variable).
fn yields_one(e: &ast::Expr, last: &ClauseRef) -> bool {
    match &e.kind {
        ast::ExprKind::Literal(_) => true,
        ast::ExprKind::VarRef(v) => last.is_unit_var(v),
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// Projection pushdown into the JSON scan
// ---------------------------------------------------------------------------

/// The top-level fields the rest of a FLWOR reads of the items its initial
/// `for $v in json-file(…)` binds, sorted: the fields the scan has to
/// build. `None` when it must build every field. `$v` keeps the projection
/// where it is read through a static first step `$v.name` (any steps may
/// follow) or counted, `count($v)`. Any other use may see the whole item:
/// a bare `$v`, `$v[]`, `$v.($k)`, `$v ! …`, `group by $v`, `$v` passed to
/// a function. So may every use once a clause or a nested scope rebinds
/// `$v`.
fn scan_fields(clauses: &[ast::Clause], ret: &ast::Expr) -> Option<Fields> {
    let (ast::Clause::For(bindings), rest) = clauses.split_first()? else { return None };
    let (scan, others) = bindings.split_first()?;
    match &scan.expr.kind {
        ast::ExprKind::FunctionCall { name, args } if name == "json-file" && args.len() <= 2 => {}
        _ => return None,
    }
    let var = scan.var.as_str();
    let others = ast::Clause::For(others.to_vec());
    let mut keys = Vec::new();
    let mut whole = false;
    let rebound = visit_rest(var, std::iter::once(&others).chain(rest), ret, &mut |e| {
        whole |= !read_keys(e, var, &mut keys)
    });
    if whole || rebound {
        return None;
    }
    keys.sort();
    keys.dedup();
    Some(keys.into_iter().map(Arc::from).collect())
}

/// Adds to `keys` the name of every static first step `$var.name` in `e`;
/// `false` if `e` may read `$var` in any other way (see [`scan_fields`]).
fn read_keys(e: &ast::Expr, var: &str, keys: &mut Vec<String>) -> bool {
    let is_var = |e: &ast::Expr| matches!(&e.kind, ast::ExprKind::VarRef(v) if v == var);
    match &e.kind {
        ast::ExprKind::VarRef(v) => return v != var,
        ast::ExprKind::FunctionCall { name, args }
            if name == "count" && args.len() == 1 && is_var(&args[0]) =>
        {
            return true
        }
        ast::ExprKind::Postfix(base, ops) if is_var(base) => {
            let Some(ast::PostfixOp::Lookup(ast::LookupKey::Name(first))) = ops.first() else {
                return false;
            };
            keys.push(first.clone());
            let mut ok = true;
            for op in ops {
                match op {
                    ast::PostfixOp::Predicate(x) | ast::PostfixOp::ArrayLookup(x) => {
                        ok &= read_keys(x, var, keys)
                    }
                    ast::PostfixOp::Lookup(ast::LookupKey::Expr(x)) => {
                        ok &= read_keys(x, var, keys)
                    }
                    _ => {}
                }
            }
            return ok;
        }
        _ => {}
    }
    let mut ok = true;
    for_each_child(e, &mut |c| ok &= read_keys(c, var, keys));
    ok
}

/// Counts plain references vs. `count($var)` wrappers.
fn usage_walk(e: &ast::Expr, var: &str, refs: &mut usize, counted: &mut usize) {
    if let ast::ExprKind::FunctionCall { name, args } = &e.kind {
        if name == "count"
            && args.len() == 1
            && matches!(&args[0].kind, ast::ExprKind::VarRef(v) if v == var)
        {
            *counted += 1;
            return;
        }
    }
    if let ast::ExprKind::VarRef(v) = &e.kind {
        if v == var {
            *refs += 1;
        }
        return;
    }
    for_each_child(e, &mut |child| usage_walk(child, var, refs, counted));
}

/// Does any binding construct inside `e` (re)bind `var`?
fn rebinds(e: &ast::Expr, var: &str) -> bool {
    let mut found = false;
    match &e.kind {
        ast::ExprKind::Flwor(f) => {
            for c in &f.clauses {
                match c {
                    ast::Clause::For(bs) => {
                        found |=
                            bs.iter().any(|b| b.var == var || b.positional.as_deref() == Some(var));
                    }
                    ast::Clause::Let(bs) => found |= bs.iter().any(|b| b.var == var),
                    ast::Clause::GroupBy(specs) => found |= specs.iter().any(|s| s.var == var),
                    ast::Clause::Count(v, _) => found |= v == var,
                    _ => {}
                }
            }
        }
        ast::ExprKind::Quantified { bindings, .. } => {
            found |= bindings.iter().any(|(v, _)| v == var);
        }
        _ => {}
    }
    if found {
        return true;
    }
    let mut any = false;
    for_each_child(e, &mut |child| any |= rebinds(child, var));
    any
}

/// Rewrites every `count($var)` into `$var` (whose binding becomes the
/// precomputed count).
fn rewrite_counts(e: &ast::Expr, var: &str) -> ast::Expr {
    if let ast::ExprKind::FunctionCall { name, args } = &e.kind {
        if name == "count"
            && args.len() == 1
            && matches!(&args[0].kind, ast::ExprKind::VarRef(v) if v == var)
        {
            return ast::ExprKind::VarRef(var.to_string()).at(e.span);
        }
    }
    map_children(e, &|child| rewrite_counts(child, var))
}

fn rewrite_clause_counts(c: &mut ast::Clause, var: &str) {
    match c {
        ast::Clause::For(bs) => {
            for b in bs {
                b.expr = rewrite_counts(&b.expr, var);
            }
        }
        ast::Clause::Let(bs) => {
            for b in bs {
                b.expr = rewrite_counts(&b.expr, var);
            }
        }
        ast::Clause::Where(e) => *e = rewrite_counts(e, var),
        ast::Clause::GroupBy(specs) => {
            for s in specs {
                if let Some(e) = &s.expr {
                    s.expr = Some(rewrite_counts(e, var));
                }
            }
        }
        ast::Clause::OrderBy(specs) => {
            for s in specs {
                s.expr = rewrite_counts(&s.expr, var);
            }
        }
        ast::Clause::Count(..) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_flwor(src: &str) -> ast::FlworExpr {
        let p = parse_program(src).unwrap();
        match p.body.kind {
            ast::ExprKind::Flwor(f) => f,
            other => panic!("expected FLWOR, got {other:?}"),
        }
    }

    #[test]
    fn usage_analysis_detects_count_only() {
        let f = parse_flwor("for $o in (1,2) group by $k := $o return { k: $k, n: count($o) }");
        let usage = analyze_usage("o", &[], &f.return_expr);
        assert_eq!(usage, NonGroupingUsage::CountOnly);
    }

    #[test]
    fn usage_analysis_detects_materialize_and_unused() {
        let f = parse_flwor("for $o in (1,2) let $x := 1 group by $k := $o return [$x]");
        assert_eq!(analyze_usage("x", &[], &f.return_expr), NonGroupingUsage::Materialize);
        assert_eq!(analyze_usage("y", &[], &f.return_expr), NonGroupingUsage::Unused);
        // count($x) mixed with a plain reference still materializes.
        let f2 = parse_flwor("for $o in (1,2) group by $k := $o return [count($o), $o]");
        assert_eq!(analyze_usage("o", &[], &f2.return_expr), NonGroupingUsage::Materialize);
    }

    #[test]
    fn usage_analysis_is_shadowing_safe() {
        // The count($o) in the return refers to a *rebound* $o.
        let f = parse_flwor(
            "for $o in (1,2) group by $k := $o \
             return (for $o in (9,9,9) return count($o))",
        );
        let usage = analyze_usage("o", &[], &f.return_expr);
        assert_eq!(usage, NonGroupingUsage::Materialize, "rebinding blocks the rewrite");
    }

    #[test]
    fn count_rewrite() {
        let f = parse_flwor("for $o in (1,2) group by $k := $o return count($o) + 1");
        let rewritten = rewrite_counts(&f.return_expr, "o");
        let free = free_variables(&rewritten);
        assert!(free.contains("o"));
        // No count() call survives on $o.
        let mut counted = 0;
        let mut refs = 0;
        usage_walk(&rewritten, "o", &mut refs, &mut counted);
        assert_eq!(counted, 0);
        assert_eq!(refs, 1);
    }

    /// The fields `scan_fields` projects the FLWOR `q` to, `$i` bound by
    /// its initial `for` to `json-file("f")`.
    fn projection(q: &str) -> Option<Vec<String>> {
        let f = parse_flwor(&q.replace("SRC", r#"json-file("f")"#));
        scan_fields(&f.clauses, &f.return_expr).map(|fs| fs.iter().map(|k| k.to_string()).collect())
    }

    #[test]
    fn scan_fields_collects_static_first_steps_and_counts() {
        for (q, fields) in [
            (
                "for $i in SRC group by $c := $i.country, $t := $i.target \
                 return { c: $c, t: $t, n: count($i) }",
                vec!["country", "target"],
            ),
            (
                "for $i in SRC where $i.guess = $i.target \
                 order by $i.target, $i.country descending, $i.date return $i.sample",
                vec!["country", "date", "guess", "sample", "target"],
            ),
            ("for $i in SRC where exists($i.nested) return 1", vec!["nested"]),
            (
                "for $i in SRC, $t in $i.tags[] let $n := $i.\"x y\"[$$ gt 1].k[[1]] return [$t, $n]",
                vec!["tags", "x y"],
            ),
            ("for $i in SRC return count($i)", vec![]),
            ("for $i in SRC group by $k := $i.k return [$k, $i.v]", vec!["k", "v"]),
            // Another `$j` is another variable.
            ("for $i in SRC let $j := 1 return [$j, $i.a]", vec!["a"]),
        ] {
            assert_eq!(projection(q), Some(fields.iter().map(|f| f.to_string()).collect()), "{q}");
        }
    }

    #[test]
    fn scan_fields_builds_every_field_when_the_item_escapes_or_is_rebound() {
        for q in [
            "for $i in SRC return $i",
            "for $i in SRC return $i[]",
            "for $i in SRC let $k := \"a\" return $i.($k)",
            "for $i in SRC return $i.$i",
            "for $i in SRC return $i ! $$.a",
            "for $i in SRC return $i[$$.a]",
            "for $i in SRC return $i[[1]]",
            "for $i in SRC group by $i return 1",
            "for $i in SRC return serialize($i)",
            "for $i in SRC return count(($i, 1))",
            "for $i in SRC let $j := $i return $j.a",
            "for $i in SRC, $j in ($i, 1) return $j",
            "for $i in SRC where $i instance of object return $i.a",
            // Rebinding, in a clause or a nested scope.
            "for $i in SRC let $i := {\"a\": 1} return $i.a",
            "for $i in SRC group by $i := $i.a return $i",
            "for $i in SRC count $i return $i",
            "for $i in SRC, $i in (1, 2) return $i",
            "for $i in SRC return (for $i in (1, 2) return $i)",
            "for $i in SRC return some $i in (1, 2) satisfies $i eq 1",
        ] {
            assert_eq!(projection(q), None, "{q}");
        }
        // Only the initial `for` over a json-file scans.
        assert_eq!(projection("for $i in parallelize(1) return $i.a"), None);
        assert_eq!(projection("let $a := SRC for $i in $a return $i.a"), None);
    }

    #[test]
    fn compiles_paper_queries() {
        for q in [
            r#"for $i in json-file("hdfs:///d.json")
               where $i.guess = $i.target
               order by $i.target ascending, $i.country descending
               count $c
               where $c ge 10
               return $i"#,
            r#"for $o in json-file("hdfs:///d.json")
               group by $c := ($o.country[], $o.country, "USA")[1], $t := $o.target
               return { country: $c, target: $t, count: count($o) }"#,
            r#"declare function local:fact($n) {
                 if ($n le 1) then 1 else $n * local:fact($n - 1)
               };
               local:fact(5)"#,
        ] {
            compile_query(q).unwrap_or_else(|e| panic!("failed to compile {q}: {e}"));
        }
    }

    #[test]
    fn static_errors_surface_from_compile_query() {
        assert!(compile_query("$undefined").is_err());
        assert!(compile_query("nope(1)").is_err());
    }
}
