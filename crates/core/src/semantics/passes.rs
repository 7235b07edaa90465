//! The analyzer's warning passes: unused bindings, constant folding
//! (unreachable branches / constant predicates), builtin cardinality
//! inference, and execution-mode inference (materialization boundaries and
//! native-key-encoding fallbacks).
//!
//! Warnings must be *sound*: a pass only fires when the property is
//! statically certain, never on "might be". Anything unknown is assumed
//! fine.

use super::diag::{lints, Diagnostic};
use super::{
    breaks_parallel_chain, collect_free, is_parallel, is_source_function, starts_parallel_chain,
};
use crate::runtime::functions::{Builtin, StaticCard};
use crate::syntax::ast::*;
use std::collections::{BTreeSet, HashSet};

// ---------------------------------------------------------------------------
// RBLW0001: unused bindings
// ---------------------------------------------------------------------------

/// Flags `let`/`for`/`group by :=`/`count` bindings and global variables
/// that are never referenced in their scope.
pub(super) fn unused_bindings(p: &Program, diags: &mut Vec<Diagnostic>) {
    // Globals: unused if no later declaration or the main body references
    // them (shadow-aware via free-variable computation).
    for (i, d) in p.decls.iter().enumerate() {
        let Decl::Variable { name, span, .. } = d else { continue };
        let mut used = false;
        for later in &p.decls[i + 1..] {
            let (expr, params): (&Expr, &[String]) = match later {
                Decl::Variable { expr, .. } => (expr, &[]),
                Decl::Function { body, params, .. } => (body, params),
            };
            let mut free = BTreeSet::new();
            let mut bound: HashSet<String> = params.iter().cloned().collect();
            collect_free(expr, &mut bound, &mut free);
            if free.contains(name) {
                used = true;
                break;
            }
        }
        if !used {
            let mut free = BTreeSet::new();
            collect_free(&p.body, &mut HashSet::new(), &mut free);
            used = free.contains(name);
        }
        if !used {
            diags.push(
                Diagnostic::warning(
                    lints::UNUSED_BINDING,
                    *span,
                    format!("global variable ${name} is never used"),
                )
                .with_help("remove the declaration or reference the variable"),
            );
        }
    }
    for_each_program_expr(p, &mut |e| flag_unused_in_expr(e, diags));
}

fn flag_unused_in_expr(e: &Expr, diags: &mut Vec<Diagnostic>) {
    let ExprKind::Flwor(f) = &e.kind else {
        for_each_child(e, &mut |c| flag_unused_in_expr(c, diags));
        return;
    };
    let mut check = |var: &str, span: Span, what: &str, i: usize, skip: usize| {
        if !flwor_tail_uses(f, i, skip, var) {
            diags.push(
                Diagnostic::warning(
                    lints::UNUSED_BINDING,
                    span,
                    format!("{what} ${var} is never used"),
                )
                .with_help("remove the binding, or reference the variable"),
            );
        }
    };
    for (i, clause) in f.clauses.iter().enumerate() {
        match clause {
            Clause::For(bs) => {
                for (j, b) in bs.iter().enumerate() {
                    check(&b.var, b.span, "for variable", i, j + 1);
                    if let Some(pos) = &b.positional {
                        check(pos, b.span, "positional variable", i, j + 1);
                    }
                }
            }
            Clause::Let(bs) => {
                for (j, b) in bs.iter().enumerate() {
                    check(&b.var, b.span, "let binding", i, j + 1);
                }
            }
            Clause::GroupBy(specs) => {
                for (j, s) in specs.iter().enumerate() {
                    // A bare `group by $x` groups by an existing variable;
                    // only `:=` keys introduce a genuinely new binding.
                    if s.expr.is_some() {
                        check(&s.var, s.span, "grouping variable", i, j + 1);
                    }
                }
            }
            Clause::Count(var, span) => check(var, *span, "count variable", i, 1),
            Clause::Where(_) | Clause::OrderBy(_) => {}
        }
    }
    // Recurse into nested expressions (clause sources, return expression).
    for_each_child(e, &mut |c| flag_unused_in_expr(c, diags));
}

/// Is `var` referenced in the FLWOR tail starting after binding
/// `skip_bindings` of clause `start_clause` — before anything rebinds it?
fn flwor_tail_uses(f: &FlworExpr, start_clause: usize, skip_bindings: usize, var: &str) -> bool {
    let mut free = BTreeSet::new();
    let mut bound = HashSet::new();
    for (i, clause) in f.clauses.iter().enumerate().skip(start_clause) {
        let skip = if i == start_clause { skip_bindings } else { 0 };
        match clause {
            Clause::For(bs) => {
                for b in bs.iter().skip(skip) {
                    collect_free(&b.expr, &mut bound, &mut free);
                    bound.insert(b.var.clone());
                    if let Some(p) = &b.positional {
                        bound.insert(p.clone());
                    }
                }
            }
            Clause::Let(bs) => {
                for b in bs.iter().skip(skip) {
                    collect_free(&b.expr, &mut bound, &mut free);
                    bound.insert(b.var.clone());
                }
            }
            Clause::Where(e) => collect_free(e, &mut bound, &mut free),
            Clause::GroupBy(specs) => {
                for s in specs.iter().skip(skip) {
                    match &s.expr {
                        Some(e) => collect_free(e, &mut bound, &mut free),
                        // Bare `group by $x` reads $x.
                        None => {
                            if !bound.contains(&s.var) {
                                free.insert(s.var.clone());
                            }
                        }
                    }
                    bound.insert(s.var.clone());
                }
            }
            Clause::OrderBy(specs) => {
                for s in specs {
                    collect_free(&s.expr, &mut bound, &mut free);
                }
            }
            Clause::Count(v, _) => {
                if skip == 0 {
                    bound.insert(v.clone());
                }
            }
        }
    }
    collect_free(&f.return_expr, &mut bound, &mut free);
    free.contains(var)
}

fn for_each_program_expr(p: &Program, f: &mut dyn FnMut(&Expr)) {
    for d in &p.decls {
        match d {
            Decl::Variable { expr, .. } => f(expr),
            Decl::Function { body, .. } => f(body),
        }
    }
    f(&p.body);
}

// ---------------------------------------------------------------------------
// RBLW0002 / RBLW0003: constant folding
// ---------------------------------------------------------------------------

/// A statically known constant value.
#[derive(Debug, Clone, PartialEq)]
enum Const {
    Bool(bool),
    Int(i64),
    Str(String),
    Null,
    Empty,
}

impl Const {
    /// Effective boolean value, when defined for this constant.
    fn ebv(&self) -> bool {
        match self {
            Const::Bool(b) => *b,
            Const::Int(i) => *i != 0,
            Const::Str(s) => !s.is_empty(),
            Const::Null | Const::Empty => false,
        }
    }
}

/// Best-effort constant evaluation. Returns `None` whenever the result is
/// not statically certain (floats and division are deliberately skipped).
fn fold(e: &Expr) -> Option<Const> {
    match &e.kind {
        ExprKind::Empty => Some(Const::Empty),
        ExprKind::Literal(l) => match l {
            Literal::Null => Some(Const::Null),
            Literal::Boolean(b) => Some(Const::Bool(*b)),
            Literal::Integer(i) => Some(Const::Int(*i)),
            Literal::Str(s) => Some(Const::Str(s.clone())),
            Literal::Decimal(_) | Literal::Double(_) => None,
        },
        ExprKind::Not(a) => Some(Const::Bool(!fold(a)?.ebv())),
        ExprKind::And(a, b) => Some(Const::Bool(fold(a)?.ebv() && fold(b)?.ebv())),
        ExprKind::Or(a, b) => Some(Const::Bool(fold(a)?.ebv() || fold(b)?.ebv())),
        ExprKind::UnaryMinus(a) => match fold(a)? {
            Const::Int(i) => i.checked_neg().map(Const::Int),
            _ => None,
        },
        ExprKind::StringConcat(a, b) => match (fold(a)?, fold(b)?) {
            (Const::Str(x), Const::Str(y)) => Some(Const::Str(x + &y)),
            _ => None,
        },
        ExprKind::Arith(a, op, b) => {
            let (Const::Int(x), Const::Int(y)) = (fold(a)?, fold(b)?) else { return None };
            match op {
                ArithOp::Add => x.checked_add(y),
                ArithOp::Sub => x.checked_sub(y),
                ArithOp::Mul => x.checked_mul(y),
                // `div` produces decimals; leave it to the runtime.
                ArithOp::Div => None,
                ArithOp::IDiv => (y != 0).then(|| x.checked_div(y)).flatten(),
                ArithOp::Mod => (y != 0).then(|| x.checked_rem(y)).flatten(),
            }
            .map(Const::Int)
        }
        ExprKind::Compare(a, op, b) => {
            let ord = match (fold(a)?, fold(b)?) {
                (Const::Int(x), Const::Int(y)) => x.cmp(&y),
                (Const::Str(x), Const::Str(y)) => x.cmp(&y),
                (Const::Bool(x), Const::Bool(y)) => x.cmp(&y),
                _ => return None,
            };
            let r = match op {
                CompOp::ValueEq | CompOp::GenEq => ord.is_eq(),
                CompOp::ValueNe | CompOp::GenNe => ord.is_ne(),
                CompOp::ValueLt | CompOp::GenLt => ord.is_lt(),
                CompOp::ValueLe | CompOp::GenLe => ord.is_le(),
                CompOp::ValueGt | CompOp::GenGt => ord.is_gt(),
                CompOp::ValueGe | CompOp::GenGe => ord.is_ge(),
            };
            Some(Const::Bool(r))
        }
        ExprKind::If { cond, then, els } => {
            if fold(cond)?.ebv() {
                fold(then)
            } else {
                fold(els)
            }
        }
        // `not(x)` / `boolean(x)` on constants (the parser keeps the
        // function-call form when `not` is followed by parentheses).
        ExprKind::FunctionCall { name, args } if args.len() == 1 => match name.as_str() {
            "not" => Some(Const::Bool(!fold(&args[0])?.ebv())),
            "boolean" => Some(Const::Bool(fold(&args[0])?.ebv())),
            _ => None,
        },
        _ => None,
    }
}

/// Flags unreachable conditional branches (`RBLW0002`) and constant
/// `where` clauses / filter predicates (`RBLW0003`).
pub(super) fn constant_folds(p: &Program, diags: &mut Vec<Diagnostic>) {
    for_each_program_expr(p, &mut |e| fold_walk(e, diags));
}

fn fold_walk(e: &Expr, diags: &mut Vec<Diagnostic>) {
    match &e.kind {
        ExprKind::If { cond, then, els } => {
            if let Some(c) = fold(cond) {
                let (msg, span) = if c.ebv() {
                    ("condition is always true — the else branch is unreachable", els.span)
                } else {
                    ("condition is always false — the then branch is unreachable", then.span)
                };
                diags.push(
                    Diagnostic::warning(lints::UNREACHABLE_BRANCH, span, msg)
                        .with_help("the condition folds to a constant at compile time"),
                );
            }
        }
        ExprKind::Flwor(f) => {
            for clause in &f.clauses {
                let Clause::Where(w) = clause else { continue };
                if let Some(c) = fold(w) {
                    let msg = if c.ebv() {
                        "where clause is always true and can be removed"
                    } else {
                        "where clause is always false — the FLWOR expression produces the \
                         empty sequence"
                    };
                    diags.push(Diagnostic::warning(lints::CONSTANT_PREDICATE, w.span, msg));
                }
            }
        }
        ExprKind::Postfix(_, ops) => {
            for op in ops {
                let PostfixOp::Predicate(pred) = op else { continue };
                // Integer predicates are positional (`$a[2]`), not filters.
                match fold(pred) {
                    Some(Const::Int(_)) | None => {}
                    Some(c) => {
                        let msg = if c.ebv() {
                            "predicate is always true and filters nothing"
                        } else {
                            "predicate is always false — the result is the empty sequence"
                        };
                        diags.push(Diagnostic::warning(lints::CONSTANT_PREDICATE, pred.span, msg));
                    }
                }
            }
        }
        _ => {}
    }
    for_each_child(e, &mut |c| fold_walk(c, diags));
}

// ---------------------------------------------------------------------------
// RBLW0006: cardinality inference
// ---------------------------------------------------------------------------

/// Bottom-up sequence cardinality, from [`Builtin::result_card`] signatures
/// and structural rules. `any()` for everything unknown.
fn card(e: &Expr) -> StaticCard {
    match &e.kind {
        ExprKind::Empty => StaticCard::empty(),
        ExprKind::Literal(_)
        | ExprKind::ObjectConstructor(_)
        | ExprKind::ArrayConstructor(_)
        | ExprKind::ContextItem => StaticCard::one(),
        ExprKind::Sequence(items) => {
            items.iter().fold(StaticCard::empty(), |acc, i| acc.concat(card(i)))
        }
        ExprKind::If { then, els, .. } => card(then).join(card(els)),
        ExprKind::Switch { cases, default, .. } => {
            cases.iter().fold(card(default), |acc, (_, r)| acc.join(card(r)))
        }
        ExprKind::TryCatch { body, handler, .. } => card(body).join(card(handler)),
        ExprKind::Or(..)
        | ExprKind::And(..)
        | ExprKind::Not(_)
        | ExprKind::Compare(..)
        | ExprKind::InstanceOf(..)
        | ExprKind::CastableAs(..)
        | ExprKind::Quantified { .. }
        // Arithmetic and concatenation return empty on empty input, but
        // claiming `one()` is safe for the warnings below (which only fire
        // on statically-certain violations).
        | ExprKind::Arith(..)
        | ExprKind::UnaryMinus(_)
        | ExprKind::StringConcat(..) => StaticCard::one(),
        ExprKind::CastAs(_, _, optional) => {
            if *optional {
                StaticCard::zero_or_one()
            } else {
                StaticCard::one()
            }
        }
        ExprKind::TreatAs(_, st) => match (st.item.is_some(), st.occurrence) {
            (false, _) => StaticCard::empty(),
            (true, Occurrence::One) => StaticCard::one(),
            (true, Occurrence::Optional) => StaticCard::zero_or_one(),
            (true, Occurrence::Star) => StaticCard::any(),
            (true, Occurrence::Plus) => StaticCard::one_or_more(),
        },
        ExprKind::FunctionCall { name, args } => {
            if is_source_function(name, args.len()) {
                StaticCard::any()
            } else {
                Builtin::lookup(name, args.len())
                    .map(|b| b.result_card())
                    .unwrap_or_else(StaticCard::any)
            }
        }
        ExprKind::Range(..)
        | ExprKind::SimpleMap(..)
        | ExprKind::Postfix(..)
        | ExprKind::VarRef(_)
        | ExprKind::Flwor(_) => StaticCard::any(),
    }
}

/// Flags builtin calls and operators whose argument cardinality statically
/// violates the signature (`RBLW0006`).
pub(super) fn cardinality(p: &Program, diags: &mut Vec<Diagnostic>) {
    for_each_program_expr(p, &mut |e| card_walk(e, diags));
}

fn card_walk(e: &Expr, diags: &mut Vec<Diagnostic>) {
    let mut singleton = |operand: &Expr, what: &str| {
        if card(operand).is_statically_many() {
            diags.push(
                Diagnostic::warning(
                    lints::CARDINALITY_VIOLATION,
                    operand.span,
                    format!("{what} operand is statically a multi-item sequence"),
                )
                .with_help("evaluation will raise XPTY0004; operands must be single atomics"),
            );
        }
    };
    match &e.kind {
        ExprKind::Arith(a, _, b) => {
            singleton(a, "arithmetic");
            singleton(b, "arithmetic");
        }
        ExprKind::Compare(a, op, b) if !op.is_general() => {
            singleton(a, "value comparison");
            singleton(b, "value comparison");
        }
        ExprKind::UnaryMinus(a) => singleton(a, "unary minus"),
        ExprKind::FunctionCall { name, args } => match Builtin::lookup(name, args.len()) {
            Some(Builtin::ExactlyOne) => {
                let c = card(&args[0]);
                if c.is_statically_empty() {
                    diags.push(
                        Diagnostic::warning(
                            lints::CARDINALITY_VIOLATION,
                            args[0].span,
                            "argument of exactly-one() is statically empty",
                        )
                        .with_help("evaluation will raise FORG0005"),
                    );
                } else if c.is_statically_many() {
                    diags.push(
                        Diagnostic::warning(
                            lints::CARDINALITY_VIOLATION,
                            args[0].span,
                            "argument of exactly-one() statically has more than one item",
                        )
                        .with_help("evaluation will raise FORG0005"),
                    );
                }
            }
            Some(Builtin::ZeroOrOne) if card(&args[0]).is_statically_many() => {
                diags.push(
                    Diagnostic::warning(
                        lints::CARDINALITY_VIOLATION,
                        args[0].span,
                        "argument of zero-or-one() statically has more than one item",
                    )
                    .with_help("evaluation will raise FORG0003"),
                );
            }
            Some(Builtin::OneOrMore) if card(&args[0]).is_statically_empty() => {
                diags.push(
                    Diagnostic::warning(
                        lints::CARDINALITY_VIOLATION,
                        args[0].span,
                        "argument of one-or-more() is statically empty",
                    )
                    .with_help("evaluation will raise FORG0004"),
                );
            }
            _ => {}
        },
        _ => {}
    }
    for_each_child(e, &mut |c| card_walk(c, diags));
}

// ---------------------------------------------------------------------------
// RBLW0004 / RBLW0005: execution-mode inference
// ---------------------------------------------------------------------------

/// The static item shape of a would-be grouping/sorting key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    Atomic,
    Object,
    Array,
    Unknown,
}

fn item_shape(e: &Expr) -> Shape {
    match &e.kind {
        ExprKind::Literal(_)
        | ExprKind::StringConcat(..)
        | ExprKind::Arith(..)
        | ExprKind::UnaryMinus(_)
        | ExprKind::Not(_)
        | ExprKind::Or(..)
        | ExprKind::And(..)
        | ExprKind::Compare(..)
        | ExprKind::Quantified { .. }
        | ExprKind::InstanceOf(..)
        | ExprKind::CastableAs(..)
        | ExprKind::CastAs(..)
        | ExprKind::Range(..) => Shape::Atomic,
        ExprKind::ObjectConstructor(_) => Shape::Object,
        ExprKind::ArrayConstructor(_) => Shape::Array,
        ExprKind::If { then, els, .. } => {
            let (a, b) = (item_shape(then), item_shape(els));
            if a == b {
                a
            } else {
                Shape::Unknown
            }
        }
        _ => Shape::Unknown,
    }
}

/// Flags parallel sequences forced through local materialization
/// boundaries (`RBLW0004`) and group/order keys that cannot become a
/// native key cell (§4.7, `RBLW0005`). What is parallel is the engine's
/// own rule, [`is_parallel`].
pub(super) fn execution_mode(p: &Program, diags: &mut Vec<Diagnostic>) {
    let globals = p.decls.iter().filter_map(|d| match d {
        Decl::Variable { expr, span, .. } if is_parallel(expr) => Some(*span),
        _ => None,
    });
    for span in globals {
        diags.push(boundary(span, "global variable materializes a parallel sequence locally"));
    }
    for_each_program_expr(p, &mut |e| mode_walk(e, diags));
}

fn mode_walk(e: &Expr, diags: &mut Vec<Diagnostic>) {
    if let ExprKind::Flwor(f) = &e.kind {
        flwor_boundaries(f, diags);
    }
    for_each_child(e, &mut |c| mode_walk(c, diags));
}

fn boundary(span: Span, message: &str) -> Diagnostic {
    Diagnostic::warning(lints::MATERIALIZATION_BOUNDARY, span, message).with_help(
        "the engine collects the RDD locally, capped at 10M items (§5.5); on a cluster this \
         is a scalability cliff",
    )
}

/// The boundaries of one FLWOR's clauses, read off the parts of
/// [`flwor_is_parallel`](super::flwor_is_parallel) binding by binding.
fn flwor_boundaries(f: &FlworExpr, diags: &mut Vec<Diagnostic>) {
    // Whether the clause chain up to the current clause is parallel.
    let mut chain = false;
    for (i, clause) in f.clauses.iter().enumerate() {
        match clause {
            Clause::For(bs) => {
                for (j, b) in bs.iter().enumerate() {
                    let source = is_parallel(&b.expr);
                    if i == 0 && j == 0 {
                        chain = starts_parallel_chain(b);
                        if source && b.allowing_empty {
                            diags.push(boundary(
                                b.span,
                                "`allowing empty` forces this parallel sequence through \
                                 local execution",
                            ));
                        }
                    } else if breaks_parallel_chain(b) {
                        if source {
                            diags.push(boundary(
                                b.span,
                                "a non-initial for clause with `allowing empty` or a \
                                 positional variable materializes its parallel sequence \
                                 locally",
                            ));
                        } else if chain {
                            diags.push(boundary(
                                b.span,
                                "a non-initial for clause with `allowing empty` or a \
                                 positional variable runs the clause chain locally, \
                                 materializing the initial for clause's parallel sequence",
                            ));
                        }
                        chain = false;
                    } else if source && !chain {
                        diags.push(boundary(
                            b.span,
                            "this for clause iterates a parallel sequence inside a local \
                             clause chain, materializing it locally",
                        ));
                    }
                }
            }
            Clause::Let(bs) => {
                for b in bs.iter().filter(|b| is_parallel(&b.expr)) {
                    // §4.5: let-bound sequences are materialized into the
                    // tuple (an initial let is always local).
                    diags.push(boundary(
                        b.span,
                        "let binding materializes a parallel sequence locally",
                    ));
                }
            }
            Clause::GroupBy(specs) => {
                for k in specs.iter().filter_map(|s| s.expr.as_ref()) {
                    check_key(k, "group-by", diags);
                }
            }
            Clause::OrderBy(specs) => {
                for s in specs {
                    check_key(&s.expr, "order-by", diags);
                }
            }
            Clause::Where(_) | Clause::Count(..) => {}
        }
    }
}

/// §4.7: each grouping/sorting key becomes one native key cell, whose
/// variant is the key's type tag, and must be a single atomic item.
fn check_key(key: &Expr, what: &str, diags: &mut Vec<Diagnostic>) {
    let shape = item_shape(key);
    if shape == Shape::Object || shape == Shape::Array {
        let noun = if shape == Shape::Object { "an object" } else { "an array" };
        diags.push(
            Diagnostic::warning(
                lints::KEY_ENCODING_FALLBACK,
                key.span,
                format!("{what} key is statically {noun}"),
            )
            .with_help(
                "a native key column (§4.7) holds one atomic item per key; \
                 evaluation will raise a type error",
            ),
        );
    } else if card(key).is_statically_many() {
        diags.push(
            Diagnostic::warning(
                lints::KEY_ENCODING_FALLBACK,
                key.span,
                format!("{what} key is statically a multi-item sequence"),
            )
            .with_help("keys must be single atomic items (§4.7)"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::super::analyze;
    use super::*;
    use crate::syntax::parse_program;

    fn warnings(src: &str) -> Vec<Diagnostic> {
        let ds = analyze(&parse_program(src).expect("parses"));
        assert!(ds.iter().all(|d| !d.is_error()), "unexpected errors: {ds:?}");
        ds
    }

    fn codes_of(ds: &[Diagnostic]) -> Vec<&'static str> {
        ds.iter().map(|d| d.code).collect()
    }

    #[test]
    fn unused_let_binding_is_flagged_with_binding_span() {
        let ds = warnings("let $unused := 1 return 2");
        assert_eq!(codes_of(&ds), vec![lints::UNUSED_BINDING]);
        assert_eq!(ds[0].span, Span::new(1, 5));
        assert!(ds[0].message.contains("$unused"));
    }

    #[test]
    fn used_bindings_are_not_flagged() {
        assert!(warnings("let $a := 1 return $a").is_empty());
        assert!(warnings("for $x in (1,2) where $x gt 1 return $x").is_empty());
        // Use in a later binding of the same clause counts.
        assert!(warnings("let $a := 1, $b := $a return $b").is_empty());
        // Bare group-by counts as a use.
        assert!(warnings("for $x in (1,2) let $k := $x group by $k return $k").is_empty());
    }

    #[test]
    fn shadowing_hides_the_use() {
        // The outer $x is rebound before being referenced: unused.
        let ds = warnings("let $x := 1 let $x := 2 return $x");
        assert_eq!(codes_of(&ds), vec![lints::UNUSED_BINDING]);
        assert_eq!(ds[0].span, Span::new(1, 5), "the *first* binding is the unused one");
    }

    #[test]
    fn unused_positional_count_group_and_global() {
        let ds = warnings("for $x at $i in (1,2) return $x");
        assert_eq!(codes_of(&ds), vec![lints::UNUSED_BINDING]);
        assert!(ds[0].message.contains("positional variable $i"));

        let ds = warnings("for $x in (1,2) count $c return $x");
        assert!(ds.iter().any(|d| d.message.contains("count variable $c")), "{ds:?}");

        let ds = warnings("for $x in (1,2) group by $k := $x mod 2 return count($x)");
        assert!(ds.iter().any(|d| d.message.contains("grouping variable $k")), "{ds:?}");

        let ds = warnings("declare variable $cfg := 1; 42");
        assert!(ds.iter().any(|d| d.message.contains("global variable $cfg")), "{ds:?}");
        assert!(warnings("declare variable $cfg := 1; $cfg").is_empty());
    }

    #[test]
    fn constant_conditions_flag_the_dead_branch() {
        let ds = warnings("if (1 eq 1) then \"a\" else \"b\"");
        assert_eq!(codes_of(&ds), vec![lints::UNREACHABLE_BRANCH]);
        assert!(ds[0].message.contains("else branch"));
        // Span points at the unreachable branch ("b").
        assert_eq!(ds[0].span, Span::new(1, 27));

        let ds = warnings("if (false) then \"a\" else \"b\"");
        assert!(ds[0].message.contains("then branch"));
    }

    #[test]
    fn constant_where_and_predicates() {
        let ds = warnings("for $x in (1,2) where 1 lt 2 return $x");
        assert_eq!(codes_of(&ds), vec![lints::CONSTANT_PREDICATE]);
        assert!(ds[0].message.contains("always true"));

        let ds = warnings("for $x in (1,2) where false return $x");
        assert!(ds[0].message.contains("empty sequence"));

        let ds = warnings("(1,2,3)[true]");
        assert_eq!(codes_of(&ds), vec![lints::CONSTANT_PREDICATE]);
        // Positional predicates are not constant filters.
        assert!(warnings("(1,2,3)[2]").is_empty());
        // Non-constant predicates are fine.
        assert!(warnings("(1,2,3)[$$ gt 1]").is_empty());
    }

    #[test]
    fn folding_understands_arithmetic_and_logic() {
        assert!(warnings("if (1 + 1 eq 2) then 1 else 2").len() == 1);
        assert!(warnings("if (not (true and false)) then 1 else 2").len() == 1);
        assert!(warnings("if (\"a\" lt \"b\") then 1 else 2").len() == 1);
        // Division and floats do not fold.
        assert!(warnings("if (1 div 1 eq 1) then 1 else 2").is_empty());
        assert!(warnings("if (1.5 gt 1.0) then 1 else 2").is_empty());
    }

    #[test]
    fn cardinality_violations() {
        let ds = warnings("exactly-one((1, 2))");
        assert_eq!(codes_of(&ds), vec![lints::CARDINALITY_VIOLATION]);
        assert!(ds[0].help.as_deref().unwrap().contains("FORG0005"));

        let ds = warnings("exactly-one(())");
        assert!(ds[0].message.contains("statically empty"));

        let ds = warnings("zero-or-one((1, 2, 3))");
        assert!(ds[0].help.as_deref().unwrap().contains("FORG0003"));

        let ds = warnings("one-or-more(())");
        assert!(ds[0].help.as_deref().unwrap().contains("FORG0004"));

        // Unknown cardinalities stay silent.
        assert!(warnings("for $x in (1,2) return exactly-one($x)").is_empty());
        // Builtin signatures propagate: count() returns exactly one item.
        assert!(warnings("exactly-one(count((1,2)))").is_empty());
    }

    #[test]
    fn operator_cardinality_violations() {
        let ds = warnings("1 + (1, 2)");
        assert_eq!(codes_of(&ds), vec![lints::CARDINALITY_VIOLATION]);
        assert!(ds[0].message.contains("arithmetic"));

        let ds = warnings("(1, 2) eq 1");
        assert!(ds[0].message.contains("value comparison"));
        // General comparisons are existential over sequences: fine.
        assert!(warnings("(1, 2) = 1").is_empty());
    }

    #[test]
    fn initial_let_of_parallel_sequence_warns() {
        let ds = warnings("let $d := json-file(\"x.json\") return count($d)");
        assert_eq!(codes_of(&ds), vec![lints::MATERIALIZATION_BOUNDARY]);
        assert_eq!(ds[0].span, Span::new(1, 5));
        assert!(ds[0].help.as_deref().unwrap().contains("10M"));
    }

    #[test]
    fn parallel_for_pipelines_stay_clean() {
        assert!(warnings("for $x in json-file(\"x.json\") where $x.y gt 1 return $x").is_empty());
        // Positional variables are fine on the *initial* for clause.
        assert!(warnings("for $x at $i in parallelize((1,2)) return $x + $i").is_empty());
    }

    #[test]
    fn allowing_empty_and_non_initial_boundaries_warn() {
        let ds = warnings("for $x allowing empty in parallelize((1,2)) return ($x, 0)[1]");
        assert_eq!(codes_of(&ds), vec![lints::MATERIALIZATION_BOUNDARY]);

        let ds = warnings("for $x in (1,2) for $y in json-file(\"y.json\") return ($x, $y)");
        assert_eq!(codes_of(&ds), vec![lints::MATERIALIZATION_BOUNDARY]);
        assert!(ds[0].message.contains("local clause chain"));

        let ds = warnings(
            "for $x in parallelize((1,2)) for $y at $i in parallelize((3,4)) return $x + $y + $i",
        );
        assert_eq!(codes_of(&ds), vec![lints::MATERIALIZATION_BOUNDARY]);
        assert!(ds[0].message.contains("positional"));
    }

    #[test]
    fn boundaries_follow_the_engine_mode_rule() {
        // A comma of parallel sequences is one: binding it materializes it.
        let ds =
            warnings(r#"let $a := (json-file("a.json"), json-file("a.json")) return count($a)"#);
        assert_eq!(codes_of(&ds), vec![lints::MATERIALIZATION_BOUNDARY]);
        assert!(ds[0].message.contains("let binding"), "{ds:?}");

        // A non-initial `for` with `at` or `allowing empty`, even over a
        // local sequence, runs a parallel chain locally.
        for q in [
            r#"for $i in json-file("a.json") for $j at $p in $i.y[] return [$j, $p]"#,
            r#"for $i in json-file("a.json") for $j allowing empty in $i.y[] return [$i, $j]"#,
        ] {
            let ds = warnings(q);
            assert_eq!(codes_of(&ds), vec![lints::MATERIALIZATION_BOUNDARY], "{q}");
            assert_eq!(ds[0].span, Span::new(1, 35), "{q}");
            assert!(ds[0].message.contains("runs the clause chain locally"), "{ds:?}");
            // A `let` of that FLWOR binds a local sequence: no second warning.
            let ds = warnings(&format!("let $a := ({q}) return count($a)"));
            assert_eq!(codes_of(&ds), vec![lints::MATERIALIZATION_BOUNDARY], "{ds:?}");
            assert!(ds[0].message.contains("runs the clause chain locally"), "{ds:?}");
        }
        let parallel = r#"let $a := (for $i in json-file("a.json") return $i) return count($a)"#;
        assert!(warnings(parallel)[0].message.contains("let binding"));

        // A prolog global is materialized before the body runs.
        let ds = warnings(r#"declare variable $d := json-file("a.json"); count($d)"#);
        assert_eq!(codes_of(&ds), vec![lints::MATERIALIZATION_BOUNDARY]);
        assert_eq!(ds[0].span, Span::new(1, 18));
        assert!(ds[0].message.contains("global variable"), "{ds:?}");
    }

    #[test]
    fn non_atomic_keys_warn() {
        let ds = warnings("for $x in (1,2) group by $k := {\"v\": $x} return count($x)");
        assert!(codes_of(&ds).contains(&lints::KEY_ENCODING_FALLBACK), "{ds:?}");
        assert!(ds.iter().any(|d| d.message.contains("an object")), "{ds:?}");

        let ds = warnings("for $x in (1,2) order by [$x] return $x");
        assert!(codes_of(&ds).contains(&lints::KEY_ENCODING_FALLBACK), "{ds:?}");

        let ds = warnings("for $x in (1,2) order by ($x, 1, 2) return $x");
        assert!(ds.iter().any(|d| d.message.contains("multi-item sequence")), "{ds:?}");

        // Atomic keys are fine.
        assert!(warnings("for $x in (1,2) order by $x return $x").is_empty());
        assert!(
            warnings("for $x in (1,2) group by $k := $x mod 2 return ($k, count($x))").is_empty()
        );
    }

    #[test]
    fn one_analyze_call_reports_mixed_findings() {
        // An unused binding, a constant where, and a materializing let in
        // one query — all surfaced together, sorted by position.
        let ds =
            warnings("let $d := json-file(\"x.json\")\nlet $u := 1\nwhere true\nreturn count($d)");
        let codes = codes_of(&ds);
        assert!(codes.contains(&lints::MATERIALIZATION_BOUNDARY), "{ds:?}");
        assert!(codes.contains(&lints::UNUSED_BINDING), "{ds:?}");
        assert!(codes.contains(&lints::CONSTANT_PREDICATE), "{ds:?}");
        let positions: Vec<_> = ds.iter().map(|d| (d.span.line, d.span.column)).collect();
        let mut sorted = positions.clone();
        sorted.sort();
        assert_eq!(positions, sorted, "diagnostics are position-ordered");
    }
}
