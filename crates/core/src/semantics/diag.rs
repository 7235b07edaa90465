//! The diagnostics framework: a [`Diagnostic`] is one analyzer finding —
//! an error that would stop execution or a warning about suspicious or
//! cluster-hostile query shapes — with a stable code, a source span, and
//! an optional help text.

use crate::error::RumbleError;
use crate::syntax::ast::Span;
use std::fmt;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The program is statically invalid; compilation refuses it.
    Error,
    /// The program runs, but something is suspicious, dead, or will be
    /// slow/failing on a cluster.
    Warning,
}

/// One analyzer finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable machine-readable code: a W3C/JSONiq error code (`XPST0008`)
    /// for errors, an `RBLW` lint code for warnings.
    pub code: &'static str,
    pub severity: Severity,
    /// Position of the offending token; [`Span::UNKNOWN`] when the node
    /// was synthesized.
    pub span: Span,
    pub message: String,
    /// Optional one-line remediation hint.
    pub help: Option<String>,
}

impl Diagnostic {
    pub fn error(code: &'static str, span: Span, message: impl Into<String>) -> Diagnostic {
        Diagnostic { code, severity: Severity::Error, span, message: message.into(), help: None }
    }

    pub fn warning(code: &'static str, span: Span, message: impl Into<String>) -> Diagnostic {
        Diagnostic { code, severity: Severity::Warning, span, message: message.into(), help: None }
    }

    pub fn with_help(mut self, help: impl Into<String>) -> Diagnostic {
        self.help = Some(help.into());
        self
    }

    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }

    /// Converts an error diagnostic into the fail-fast [`RumbleError`]
    /// shape `check_program` callers expect.
    pub fn into_error(self) -> RumbleError {
        let mut e = RumbleError::static_err(self.code, self.message);
        if let Some((l, c)) = self.span.position() {
            e = e.at(l, c);
        }
        e
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        write!(f, "{kind}[{}]", self.code)?;
        if self.span.is_known() {
            write!(f, " at {}", self.span)?;
        }
        write!(f, ": {}", self.message)
    }
}

/// Lint codes the analyzer's warning passes emit (`RBLW` = Rumble lint
/// warning). Error passes reuse the W3C codes from [`crate::error::codes`].
pub mod lints {
    /// A `let`/`for`/`group by`/`count` binding or global variable is
    /// never referenced.
    pub const UNUSED_BINDING: &str = "RBLW0001";
    /// A conditional branch can never be taken.
    pub const UNREACHABLE_BRANCH: &str = "RBLW0002";
    /// A `where` clause or predicate folds to a constant.
    pub const CONSTANT_PREDICATE: &str = "RBLW0003";
    /// A parallel (RDD-backed) sequence is forced through a local
    /// materialization boundary.
    pub const MATERIALIZATION_BOUNDARY: &str = "RBLW0004";
    /// A grouping/sorting key cannot become a native key cell (§4.7)
    /// because it is statically non-atomic.
    pub const KEY_ENCODING_FALLBACK: &str = "RBLW0005";
    /// A builtin call's argument cardinality statically violates the
    /// function's signature.
    pub const CARDINALITY_VIOLATION: &str = "RBLW0006";
}

/// Optimizer rewrite-rule ids (`RBLO` = Rumble logical optimization). Each
/// names one verified rewrite in sparklite's rule registry
/// (`sparklite::dataframe::rules::REGISTRY`); the shell's `--explain` and
/// `:explain` document them, `--disable-rule=RBLO####` disables one for
/// bisection, and `OptimizerRuleFired` events carry the id of each firing.
/// A cross-crate test keeps this list in lockstep with the registry.
pub mod rules {
    pub const MERGE_FILTERS: &str = "RBLO0001";
    pub const PUSH_FILTER_THROUGH_PROJECT: &str = "RBLO0002";
    pub const PUSH_FILTER_BELOW_SORT: &str = "RBLO0003";
    pub const PUSH_FILTER_BELOW_EXPLODE: &str = "RBLO0004";
    pub const FUSE_PROJECTS: &str = "RBLO0005";
    pub const MERGE_LIMITS: &str = "RBLO0006";
    pub const DROP_NOOP_FILTER: &str = "RBLO0007";
    pub const PRUNE_COLUMNS: &str = "RBLO0008";
}

/// Every code the analyzer can emit, with a short explanation — the
/// backing store for the shell's `--explain CODE`.
pub const CODE_DOCS: &[(&str, &str)] = &[
    (
        "XPST0003",
        "Syntax error: the query text could not be parsed. The analyzer reports the position of \
         the first token it could not make sense of.",
    ),
    (
        "XPST0008",
        "Undefined variable: a $variable (or the context item $$) is referenced outside any \
         scope that binds it. Bind it with let/for, a function parameter, or declare variable.",
    ),
    (
        "XPST0017",
        "Undefined function: no builtin or declared function matches this name and arity. \
         Declared functions must match both name and number of arguments.",
    ),
    (
        "RBLW0001",
        "Unused binding: a let/for/group-by/count variable or a global declaration is never \
         referenced in its scope. The engine skips materializing unused columns (§4.7), but an \
         unused binding usually signals a typo or leftover clause.",
    ),
    (
        "RBLW0002",
        "Unreachable branch: the condition of this conditional folds to a constant, so one \
         branch can never execute.",
    ),
    (
        "RBLW0003",
        "Constant predicate: a where clause or filter predicate folds to a constant true \
         (a no-op) or false (the whole expression produces the empty sequence).",
    ),
    (
        "RBLW0004",
        "Local materialization boundary: a parallel sequence (json-file/parallelize/collection, \
         §5.5) is forced through local execution — e.g. bound by an initial let clause, or \
         iterated with `allowing empty`/a positional variable in a non-initial for clause. The \
         engine collects the RDD with a 10M-item cap (§5.5) instead of streaming it through \
         DataFrames; on a cluster this is a scalability cliff.",
    ),
    (
        "RBLW0005",
        "Native key encoding fallback: each group-by/order-by key is one native DataFrame \
         cell whose variant is the key's type tag (the paper's three typed Spark columns of \
         §4.7, folded into one), so it must be an atomic item or empty. This key is statically \
         an object, array, or multi-item sequence, so evaluation will raise a type error at \
         runtime.",
    ),
    (
        "RBLW0006",
        "Cardinality violation: the argument's statically known cardinality violates the \
         builtin's signature (e.g. exactly-one() of a provably empty or multi-item sequence) or \
         an operator's singleton requirement, so evaluation will raise FORG0003/4/5 or XPTY0004.",
    ),
    (
        "RBLO0001",
        "Optimizer changed your plan because two adjacent filters collapse into one: \
         Filter(p) over Filter(q) becomes Filter(q AND p), saving a plan node and a row pass. \
         Preserves schema, ordering, partitioning, cardinality bounds and constant columns.",
    ),
    (
        "RBLO0002",
        "Optimizer changed your plan because a filter can run before the projection above it: \
         the projected expressions are substituted into the predicate so it binds against the \
         projection's input. Only fires when substitution is sound — predicates with opaque \
         UDFs stay put unless every column the UDF reads passes through unchanged, and no \
         filter moves below a projection computing an order-by key (its type check must see \
         every tuple).",
    ),
    (
        "RBLO0003",
        "Optimizer changed your plan because filtering before a sort shrinks the sort's \
         shuffle: Filter over OrderBy becomes OrderBy over Filter. A filter keeps relative \
         order, so the sorted output is identical. Not when the sort's input computes an \
         order-by key: every key, and any type error it raises, comes before the `where`.",
    ),
    (
        "RBLO0004",
        "Optimizer changed your plan because a filter that does not read the exploded column \
         evaluates identically before EXPLODE, where it sees (and can discard) each source row \
         once instead of once per list element.",
    ),
    (
        "RBLO0005",
        "Optimizer changed your plan because two adjacent projections fuse into one by \
         substituting the inner projection's expressions into the outer one, eliminating an \
         intermediate row pass. UDFs only fuse across pass-through columns.",
    ),
    (
        "RBLO0006",
        "Optimizer changed your plan because nested limits collapse to the tighter bound: \
         Limit(n) over Limit(m) becomes Limit(min(n, m)).",
    ),
    (
        "RBLO0007",
        "Optimizer changed your plan because a filter whose predicate is literally true keeps \
         every row and can be removed outright.",
    ),
    (
        "RBLO0008",
        "Optimizer changed your plan because some projected columns are never read by any \
         ancestor operator; pruning them means the rows never carry (or compute) those values \
         — the \"does not create the column at all\" optimization of §4.7.",
    ),
];

/// Looks up the explanation for a diagnostic code.
pub fn explain(code: &str) -> Option<&'static str> {
    CODE_DOCS.iter().find(|(c, _)| *c == code).map(|(_, doc)| *doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_code_span_and_message() {
        let d = Diagnostic::error("XPST0008", Span::new(3, 7), "undefined variable $x");
        assert_eq!(d.to_string(), "error[XPST0008] at 3:7: undefined variable $x");
        let d = Diagnostic::warning(lints::UNUSED_BINDING, Span::UNKNOWN, "unused");
        assert_eq!(d.to_string(), "warning[RBLW0001]: unused");
    }

    #[test]
    fn every_lint_code_is_documented() {
        for code in [
            lints::UNUSED_BINDING,
            lints::UNREACHABLE_BRANCH,
            lints::CONSTANT_PREDICATE,
            lints::MATERIALIZATION_BOUNDARY,
            lints::KEY_ENCODING_FALLBACK,
            lints::CARDINALITY_VIOLATION,
            "XPST0003",
            "XPST0008",
            "XPST0017",
        ] {
            assert!(explain(code).is_some(), "missing explanation for {code}");
        }
    }

    #[test]
    fn every_optimizer_rule_code_is_documented() {
        for code in [
            rules::MERGE_FILTERS,
            rules::PUSH_FILTER_THROUGH_PROJECT,
            rules::PUSH_FILTER_BELOW_SORT,
            rules::PUSH_FILTER_BELOW_EXPLODE,
            rules::FUSE_PROJECTS,
            rules::MERGE_LIMITS,
            rules::DROP_NOOP_FILTER,
            rules::PRUNE_COLUMNS,
        ] {
            assert!(explain(code).is_some(), "missing explanation for {code}");
        }
    }

    #[test]
    fn into_error_carries_the_position() {
        let e = Diagnostic::error("XPST0008", Span::new(2, 4), "boom").into_error();
        assert_eq!(e.position, Some((2, 4)));
        assert_eq!(e.code, "XPST0008");
    }
}
