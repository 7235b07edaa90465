//! Static analysis (§5.3): a multi-pass analyzer producing [`Diagnostic`]s
//! with stable codes and source spans, plus the free-variable computation
//! the DataFrame UDF footprints (and the optimizer's column pruning) rely
//! on.
//!
//! [`analyze`] runs every pass with error recovery and returns *all*
//! findings; [`check_program`] keeps the historical fail-fast contract
//! (first static error, as a [`RumbleError`](crate::error::RumbleError))
//! the compiler uses as its gate. The passes:
//!
//! - **resolve** (here): scope checking against chained static contexts and
//!   function resolution — errors `XPST0008`/`XPST0017`.
//! - **unused bindings** ([`passes`]): `let`/`for`/`group by`/`count`
//!   bindings and globals never referenced — `RBLW0001`.
//! - **constant folding** ([`passes`]): unreachable conditional branches
//!   and constant `where`/predicates — `RBLW0002`/`RBLW0003`.
//! - **cardinality inference** ([`passes`]): builtin calls whose argument
//!   cardinality statically violates the signature — `RBLW0006`.
//! - **execution mode** ([`passes`]): parallel sequences forced through
//!   local materialization boundaries and group/order keys that cannot
//!   become a native key cell (§4.7) — `RBLW0004`/`RBLW0005`.

pub mod diag;
mod passes;

pub use diag::{explain, lints, rules, Diagnostic, Severity, CODE_DOCS};

use crate::error::{codes, Result};
use crate::runtime::functions::Builtin;
use crate::syntax::ast::*;
use std::collections::{BTreeSet, HashSet};

/// Names with dedicated source iterators (not in the builtin registry).
pub fn is_source_function(name: &str, arity: usize) -> bool {
    matches!(
        (name, arity),
        ("json-file", 1)
            | ("json-file", 2)
            | ("parallelize", 1)
            | ("parallelize", 2)
            | ("collection", 1)
    )
}

/// Runs every analysis pass over the program and returns all findings,
/// ordered by source position (errors before warnings at equal spans).
pub fn analyze(p: &Program) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    resolve_program(p, &mut diags);
    passes::unused_bindings(p, &mut diags);
    passes::constant_folds(p, &mut diags);
    passes::cardinality(p, &mut diags);
    passes::execution_mode(p, &mut diags);
    diags.sort_by_key(|d| (d.span.line, d.span.column, d.severity));
    diags
}

/// Checks a whole program; returns the first static error found (the
/// fail-fast gate `compile_query` runs before code generation).
pub fn check_program(p: &Program) -> Result<()> {
    let mut diags = Vec::new();
    resolve_program(p, &mut diags);
    match diags.into_iter().find(Diagnostic::is_error) {
        None => Ok(()),
        Some(d) => Err(d.into_error()),
    }
}

/// The static context: variables in scope, declared functions, and whether
/// `$$` is bound. Cheap to clone when entering a nested scope.
#[derive(Clone)]
struct StaticCtx<'a> {
    vars: HashSet<&'a str>,
    functions: &'a HashSet<(String, usize)>,
    has_context_item: bool,
}

/// The resolve pass: like the historical fail-fast checker, but recovering
/// — every undefined variable/function in the program is reported, not
/// just the first.
fn resolve_program(p: &Program, diags: &mut Vec<Diagnostic>) {
    let mut functions: HashSet<(String, usize)> = HashSet::new();
    for d in &p.decls {
        if let Decl::Function { name, params, span, .. } = d {
            if !functions.insert((name.clone(), params.len())) {
                diags.push(Diagnostic::error(
                    codes::UNDEFINED_FUNCTION,
                    *span,
                    format!("duplicate declaration of function {name}#{}", params.len()),
                ));
            }
        }
    }
    let mut globals: HashSet<&str> = HashSet::new();
    for d in &p.decls {
        match d {
            Decl::Variable { name, expr, .. } => {
                // A global may reference previously declared globals only.
                let ctx = StaticCtx {
                    vars: globals.clone(),
                    functions: &functions,
                    has_context_item: false,
                };
                resolve_expr(expr, &ctx, diags);
                globals.insert(name);
            }
            Decl::Function { params, body, .. } => {
                // Function bodies see parameters and *previously declared*
                // globals — but since we check function bodies after
                // collecting signatures, allow all globals for simplicity
                // (forward variable references from functions are rare but
                // harmless: the runtime binds globals before any call).
                let mut vars: HashSet<&str> = globals.clone();
                vars.extend(params.iter().map(|s| s.as_str()));
                let ctx = StaticCtx { vars, functions: &functions, has_context_item: false };
                resolve_expr(body, &ctx, diags);
            }
        }
    }
    let ctx = StaticCtx { vars: globals, functions: &functions, has_context_item: false };
    resolve_expr(&p.body, &ctx, diags);
}

fn resolve_expr(e: &Expr, ctx: &StaticCtx, diags: &mut Vec<Diagnostic>) {
    match &e.kind {
        ExprKind::Literal(_) | ExprKind::Empty => {}
        ExprKind::VarRef(name) => {
            if !ctx.vars.contains(name.as_str()) {
                diags.push(Diagnostic::error(
                    codes::UNDEFINED_VARIABLE,
                    e.span,
                    format!("undefined variable ${name}"),
                ));
            }
        }
        ExprKind::ContextItem => {
            if !ctx.has_context_item {
                diags.push(Diagnostic::error(
                    codes::UNDEFINED_VARIABLE,
                    e.span,
                    "context item ($$) is not defined in this scope",
                ));
            }
        }
        ExprKind::Sequence(items) => items.iter().for_each(|i| resolve_expr(i, ctx, diags)),
        ExprKind::Or(a, b)
        | ExprKind::And(a, b)
        | ExprKind::StringConcat(a, b)
        | ExprKind::Range(a, b)
        | ExprKind::Compare(a, _, b)
        | ExprKind::Arith(a, _, b) => {
            resolve_expr(a, ctx, diags);
            resolve_expr(b, ctx, diags);
        }
        ExprKind::Not(a)
        | ExprKind::UnaryMinus(a)
        | ExprKind::InstanceOf(a, _)
        | ExprKind::TreatAs(a, _)
        | ExprKind::CastableAs(a, _, _)
        | ExprKind::CastAs(a, _, _) => resolve_expr(a, ctx, diags),
        ExprKind::If { cond, then, els } => {
            resolve_expr(cond, ctx, diags);
            resolve_expr(then, ctx, diags);
            resolve_expr(els, ctx, diags);
        }
        ExprKind::Switch { input, cases, default } => {
            resolve_expr(input, ctx, diags);
            for (values, result) in cases {
                values.iter().for_each(|v| resolve_expr(v, ctx, diags));
                resolve_expr(result, ctx, diags);
            }
            resolve_expr(default, ctx, diags);
        }
        ExprKind::TryCatch { body, handler, .. } => {
            resolve_expr(body, ctx, diags);
            resolve_expr(handler, ctx, diags);
        }
        ExprKind::SimpleMap(a, b) => {
            resolve_expr(a, ctx, diags);
            let mut inner = ctx.clone();
            inner.has_context_item = true;
            resolve_expr(b, &inner, diags);
        }
        ExprKind::Postfix(base, ops) => {
            resolve_expr(base, ctx, diags);
            for op in ops {
                match op {
                    PostfixOp::Predicate(p) => {
                        let mut inner = ctx.clone();
                        inner.has_context_item = true;
                        resolve_expr(p, &inner, diags);
                    }
                    PostfixOp::Lookup(LookupKey::Expr(k)) => resolve_expr(k, ctx, diags),
                    PostfixOp::Lookup(LookupKey::Name(_)) | PostfixOp::ArrayUnbox => {}
                    PostfixOp::ArrayLookup(i) => resolve_expr(i, ctx, diags),
                }
            }
        }
        ExprKind::ObjectConstructor(pairs) => {
            for (k, v) in pairs {
                if let ObjectKey::Expr(ke) = k {
                    resolve_expr(ke, ctx, diags);
                }
                resolve_expr(v, ctx, diags);
            }
        }
        ExprKind::ArrayConstructor(inner) => {
            if let Some(i) = inner.as_deref() {
                resolve_expr(i, ctx, diags);
            }
        }
        ExprKind::Quantified { bindings, satisfies, .. } => {
            let mut inner = ctx.clone();
            for (var, src) in bindings {
                resolve_expr(src, &inner, diags);
                inner.vars.insert(var.as_str());
            }
            resolve_expr(satisfies, &inner, diags);
        }
        ExprKind::FunctionCall { name, args } => {
            args.iter().for_each(|a| resolve_expr(a, ctx, diags));
            let arity = args.len();
            if is_source_function(name, arity)
                || Builtin::lookup(name, arity).is_some()
                || ctx.functions.contains(&(name.clone(), arity))
            {
                // resolved
            } else if Builtin::is_known_name(name)
                || is_source_function(name, 1)
                || is_source_function(name, 2)
            {
                diags.push(Diagnostic::error(
                    codes::UNDEFINED_FUNCTION,
                    e.span,
                    format!("function {name} exists but not with {arity} argument(s)"),
                ));
            } else {
                diags.push(Diagnostic::error(
                    codes::UNDEFINED_FUNCTION,
                    e.span,
                    format!("unknown function {name}#{arity}"),
                ));
            }
        }
        ExprKind::Flwor(f) => resolve_flwor(f, ctx, diags),
    }
}

fn resolve_flwor(f: &FlworExpr, ctx: &StaticCtx, diags: &mut Vec<Diagnostic>) {
    let mut scope = ctx.clone();
    for clause in &f.clauses {
        match clause {
            Clause::For(bindings) => {
                for b in bindings {
                    resolve_expr(&b.expr, &scope, diags);
                    scope.vars.insert(b.var.as_str());
                    if let Some(p) = &b.positional {
                        scope.vars.insert(p.as_str());
                    }
                }
            }
            Clause::Let(bindings) => {
                for b in bindings {
                    resolve_expr(&b.expr, &scope, diags);
                    scope.vars.insert(b.var.as_str());
                }
            }
            Clause::Where(e) => resolve_expr(e, &scope, diags),
            Clause::GroupBy(specs) => {
                for s in specs {
                    match &s.expr {
                        Some(e) => resolve_expr(e, &scope, diags),
                        None => {
                            if !scope.vars.contains(s.var.as_str()) {
                                diags.push(Diagnostic::error(
                                    codes::UNDEFINED_VARIABLE,
                                    s.span,
                                    format!("grouping variable ${} is not in scope", s.var),
                                ));
                            }
                        }
                    }
                    scope.vars.insert(s.var.as_str());
                }
            }
            Clause::OrderBy(specs) => {
                for s in specs {
                    resolve_expr(&s.expr, &scope, diags);
                }
            }
            Clause::Count(var, _) => {
                scope.vars.insert(var.as_str());
            }
        }
    }
    resolve_expr(&f.return_expr, &scope, diags);
}

/// Free variables of an expression: referenced but not bound within it.
pub fn free_variables(e: &Expr) -> BTreeSet<String> {
    let mut acc = BTreeSet::new();
    collect_free(e, &mut HashSet::new(), &mut acc);
    acc
}

fn collect_free(e: &Expr, bound: &mut HashSet<String>, acc: &mut BTreeSet<String>) {
    match &e.kind {
        ExprKind::VarRef(name) => {
            if !bound.contains(name) {
                acc.insert(name.clone());
            }
        }
        ExprKind::Quantified { bindings, satisfies, .. } => {
            let mut newly: Vec<String> = Vec::new();
            for (var, src) in bindings {
                collect_free(src, bound, acc);
                if bound.insert(var.clone()) {
                    newly.push(var.clone());
                }
            }
            collect_free(satisfies, bound, acc);
            for v in newly {
                bound.remove(&v);
            }
        }
        ExprKind::Flwor(f) => {
            let mut newly: Vec<String> = Vec::new();
            let shadow = |var: &String, bound: &mut HashSet<String>, newly: &mut Vec<String>| {
                if bound.insert(var.clone()) {
                    newly.push(var.clone());
                }
            };
            for clause in &f.clauses {
                match clause {
                    Clause::For(bindings) => {
                        for b in bindings {
                            collect_free(&b.expr, bound, acc);
                            shadow(&b.var, bound, &mut newly);
                            if let Some(p) = &b.positional {
                                shadow(p, bound, &mut newly);
                            }
                        }
                    }
                    Clause::Let(bindings) => {
                        for b in bindings {
                            collect_free(&b.expr, bound, acc);
                            shadow(&b.var, bound, &mut newly);
                        }
                    }
                    Clause::Where(e) => collect_free(e, bound, acc),
                    Clause::GroupBy(specs) => {
                        for s in specs {
                            if let Some(e) = &s.expr {
                                collect_free(e, bound, acc);
                            } else if !bound.contains(&s.var) {
                                acc.insert(s.var.clone());
                            }
                            shadow(&s.var, bound, &mut newly);
                        }
                    }
                    Clause::OrderBy(specs) => {
                        for s in specs {
                            collect_free(&s.expr, bound, acc);
                        }
                    }
                    Clause::Count(var, _) => shadow(var, bound, &mut newly),
                }
            }
            collect_free(&f.return_expr, bound, acc);
            for v in newly {
                bound.remove(&v);
            }
        }
        // Everything else binds nothing: recurse structurally.
        _ => for_each_child(e, &mut |child| collect_free(child, bound, acc)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::parse_program;

    fn check(src: &str) -> Result<()> {
        check_program(&parse_program(src).expect("parses"))
    }

    fn diags(src: &str) -> Vec<Diagnostic> {
        analyze(&parse_program(src).expect("parses"))
    }

    #[test]
    fn undefined_variables_are_static_errors() {
        assert!(check("$nope").is_err());
        assert!(check("for $x in (1,2) return $y").is_err());
        assert!(check("for $x in (1,2) return $x").is_ok());
        assert!(check("let $a := 1 return $a + $b").is_err());
    }

    #[test]
    fn flwor_scoping() {
        assert!(check("for $x in (1,2) let $y := $x * 2 where $y gt 2 return $y").is_ok());
        // count var enters scope.
        assert!(check("for $x in (1,2) count $c return $c").is_ok());
        // group-by key by expression enters scope.
        assert!(check("for $x in (1,2) group by $k := $x mod 2 return $k").is_ok());
        // bare grouping variable must already exist.
        assert!(check("for $x in (1,2) group by $nope return 1").is_err());
        // positional var.
        assert!(check("for $x at $i in (5,6) return $i").is_ok());
    }

    #[test]
    fn context_item_scope() {
        assert!(check("$$").is_err());
        assert!(check("(1,2)[$$ gt 1]").is_ok());
        assert!(check("(1,2) ! ($$ * 2)").is_ok());
        // $$ does not leak out of the predicate.
        assert!(check("(1,2)[$$ gt 1] + $$").is_err());
    }

    #[test]
    fn function_resolution() {
        assert!(check("count((1,2))").is_ok());
        assert!(check("count(1,2)").is_err()); // wrong arity
        assert!(check("mystery(1)").is_err());
        assert!(check("json-file(\"x\")").is_ok());
        assert!(check("declare function local:f($a) { $a + 1 }; local:f(1)").is_ok());
        assert!(check("declare function local:f($a) { $a + 1 }; local:f(1, 2)").is_err());
        assert!(check("declare function local:f($a) { $b }; local:f(1)").is_err());
        // Recursion is fine statically.
        assert!(check(
            "declare function local:f($a) { if ($a le 0) then 0 else local:f($a - 1) }; local:f(3)"
        )
        .is_ok());
    }

    #[test]
    fn quantified_scoping() {
        assert!(check("some $x in (1,2) satisfies $x gt 1").is_ok());
        assert!(check("some $x in (1,2) satisfies $y gt 1").is_err());
        assert!(check("(some $x in (1,2) satisfies $x gt 1) and $x").is_err());
    }

    #[test]
    fn free_variable_computation() {
        let p = parse_program("$a + count($b) + (for $c in $d return $c)").unwrap();
        let free = free_variables(&p.body);
        assert_eq!(
            free.into_iter().collect::<Vec<_>>(),
            vec!["a".to_string(), "b".to_string(), "d".to_string()]
        );
        let p = parse_program("for $x in (1,2) return $x + $y").unwrap();
        let free = free_variables(&p.body);
        assert_eq!(free.into_iter().collect::<Vec<_>>(), vec!["y".to_string()]);
    }

    #[test]
    fn analyze_recovers_and_reports_every_error() {
        // Three independent errors in one program, all reported in one call.
        let ds = diags("$a + mystery($b) + count(1, 2)");
        let errors: Vec<_> = ds.iter().filter(|d| d.is_error()).collect();
        assert_eq!(errors.len(), 4, "two vars, one unknown fn, one arity: {ds:?}");
        assert!(errors.iter().any(|d| d.code == codes::UNDEFINED_VARIABLE));
        assert!(errors.iter().any(|d| d.code == codes::UNDEFINED_FUNCTION));
    }

    #[test]
    fn analyze_spans_point_at_the_offending_token() {
        let ds = diags("1 + $nope");
        let err = ds.iter().find(|d| d.is_error()).expect("one error");
        assert_eq!(err.span, Span::new(1, 5));
        assert_eq!(err.code, codes::UNDEFINED_VARIABLE);
    }

    #[test]
    fn check_program_matches_first_analyze_error() {
        let p = parse_program("$first + $second").unwrap();
        let e = check_program(&p).unwrap_err();
        assert!(e.message.contains("first"), "fail-fast reports the first error: {e}");
        assert_eq!(e.position, Some((1, 1)));
    }

    #[test]
    fn clean_programs_produce_no_errors() {
        let ds = diags("for $x in (1,2) where $x gt 1 return $x");
        assert!(ds.iter().all(|d| !d.is_error()), "{ds:?}");
    }
}
