//! The named rewrite-rule registry and the verified optimizer engine.
//!
//! Every rewrite the optimizer can perform is a [`RewriteRule`] with a
//! stable `RBLO####` id, a one-line contract, and a declaration of which
//! [`PlanProperties`](super::PlanProperties) it preserves. The engine
//! applies rules bottom-up to a bounded fixpoint and re-derives the plan
//! properties after *every individual firing*: a rule that breaks its own
//! declaration is a hard error in debug builds and a rejected rewrite
//! (recorded as a [`PropertyViolation`]) in release builds. The equivalence fuzzer in
//! `tests/rule_fuzz.rs` additionally executes before/after plans per rule
//! per site, and its mutation mode proves the checker actually bites.

use super::expr::Expr;
use super::plan::LogicalPlan;
use super::properties::{check_preserved, derive, Preserved};
use super::{Field, NamedExpr, Schema, Value};
use std::collections::BTreeSet;
use std::sync::Arc;

/// One named, verified plan rewrite. Implementations must be pure: `apply`
/// either returns the rewritten subtree or `None` when the rule does not
/// match at this node — never a partially-applied plan.
pub trait RewriteRule: Send + Sync {
    /// Stable diagnostic id (`RBLO0001`…), documented in
    /// `rumble_core::semantics::CODE_DOCS` and explainable from the shell.
    fn id(&self) -> &'static str;
    /// Short human name, used in traces and golden tests.
    fn name(&self) -> &'static str;
    /// One-line contract: what the rule does and when it fires.
    fn description(&self) -> &'static str;
    /// Which plan properties the rule promises to preserve.
    fn preserves(&self) -> Preserved {
        Preserved::ALL
    }
    /// Whether the rule participates in the fixpoint loop or runs once as a
    /// whole-plan finalization pass (column pruning).
    fn phase(&self) -> RulePhase {
        RulePhase::Fixpoint
    }
    /// Attempts the rewrite with `plan` as the subtree root.
    fn apply(&self, plan: &Arc<LogicalPlan>) -> Option<Arc<LogicalPlan>>;
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RulePhase {
    /// Tried at every node, bottom-up, until no rule fires (bounded).
    Fixpoint,
    /// Applied once at the root after the fixpoint converges.
    Finalize,
}

/// The standard rule set, in application order. Order matters twice: rules
/// earlier in the list win when several match one node, and `Finalize`
/// rules run in list order after the fixpoint.
pub static REGISTRY: &[&dyn RewriteRule] = &[
    &MergeFilters,
    &PushFilterThroughProject,
    &PushFilterBelowSort,
    &PushFilterBelowExplode,
    &FuseProjects,
    &MergeLimits,
    &DropNoopFilter,
    &PruneColumns,
];

/// Looks a rule up by its `RBLO` id.
pub fn rule_by_id(id: &str) -> Option<&'static dyn RewriteRule> {
    REGISTRY.iter().copied().find(|r| r.id() == id)
}

// ---------------------------------------------------------------------------
// The rules
// ---------------------------------------------------------------------------

/// RBLO0001: `Filter ∘ Filter → Filter(AND)` — adjacent filters collapse
/// into one conjunctive predicate, saving a plan node and a row pass. Not
/// when the outer predicate holds a UDF: `AND` evaluates both sides, and a
/// UDF may only observe rows that pass the inner filter (a JSONiq `where`
/// must never see, or fail on, a tuple an earlier `where` dropped).
pub struct MergeFilters;

impl RewriteRule for MergeFilters {
    fn id(&self) -> &'static str {
        "RBLO0001"
    }
    fn name(&self) -> &'static str {
        "merge-filters"
    }
    fn description(&self) -> &'static str {
        "merges adjacent filters into one conjunctive predicate"
    }
    fn apply(&self, plan: &Arc<LogicalPlan>) -> Option<Arc<LogicalPlan>> {
        let LogicalPlan::Filter { input, predicate } = plan.as_ref() else { return None };
        let LogicalPlan::Filter { input: inner_in, predicate: inner_pred } = input.as_ref() else {
            return None;
        };
        if predicate.has_udf() {
            return None;
        }
        Some(Arc::new(LogicalPlan::Filter {
            input: Arc::clone(inner_in),
            predicate: Expr::and(inner_pred.clone(), predicate.clone()),
        }))
    }
}

/// RBLO0002: pushes a filter below a projection by substituting the
/// projected expressions into the predicate — only when that substitution
/// is sound: UDFs inside the predicate read columns by name at runtime, so
/// every column they touch must pass through the projection unchanged.
/// Never below a projection computing a nondeterministic UDF, which must
/// see every row (a sort key's type discovery raises on any of them).
pub struct PushFilterThroughProject;

impl RewriteRule for PushFilterThroughProject {
    fn id(&self) -> &'static str {
        "RBLO0002"
    }
    fn name(&self) -> &'static str {
        "push-filter-through-project"
    }
    fn description(&self) -> &'static str {
        "pushes a filter below a projection, substituting projected expressions"
    }
    fn apply(&self, plan: &Arc<LogicalPlan>) -> Option<Arc<LogicalPlan>> {
        let LogicalPlan::Filter { input, predicate } = plan.as_ref() else { return None };
        let LogicalPlan::Project { input: proj_in, exprs, schema } = input.as_ref() else {
            return None;
        };
        if !expr_fusable(predicate, exprs) || computes_nondeterministic(input) {
            return None;
        }
        let substituted = predicate
            .substitute(&|name| exprs.iter().find(|e| e.name == name).map(|e| e.expr.clone()));
        Some(Arc::new(LogicalPlan::Project {
            input: Arc::new(LogicalPlan::Filter {
                input: Arc::clone(proj_in),
                predicate: substituted,
            }),
            exprs: exprs.clone(),
            schema: Arc::clone(schema),
        }))
    }
}

/// RBLO0003: `Filter ∘ OrderBy → OrderBy ∘ Filter` — filtering before the
/// sort shrinks the shuffle. A filter keeps relative order, so the sorted
/// output is unchanged. Not when the sort reads a projection computing a
/// nondeterministic UDF: every row's key (and any error it raises) comes
/// before the predicate's, as in a JSONiq `order by` followed by `where`.
pub struct PushFilterBelowSort;

impl RewriteRule for PushFilterBelowSort {
    fn id(&self) -> &'static str {
        "RBLO0003"
    }
    fn name(&self) -> &'static str {
        "push-filter-below-sort"
    }
    fn description(&self) -> &'static str {
        "filters before sorting so the sort shuffles fewer rows"
    }
    fn apply(&self, plan: &Arc<LogicalPlan>) -> Option<Arc<LogicalPlan>> {
        let LogicalPlan::Filter { input, predicate } = plan.as_ref() else { return None };
        let LogicalPlan::OrderBy { input: sort_in, keys } = input.as_ref() else { return None };
        if computes_nondeterministic(sort_in) {
            return None;
        }
        Some(Arc::new(LogicalPlan::OrderBy {
            input: Arc::new(LogicalPlan::Filter {
                input: Arc::clone(sort_in),
                predicate: predicate.clone(),
            }),
            keys: keys.clone(),
        }))
    }
}

/// RBLO0004: pushes a filter below an `EXPLODE` when the predicate provably
/// does not read the exploded column (it then evaluates identically on the
/// pre-explosion row, and skipping a row skips all its expansions).
pub struct PushFilterBelowExplode;

impl RewriteRule for PushFilterBelowExplode {
    fn id(&self) -> &'static str {
        "RBLO0004"
    }
    fn name(&self) -> &'static str {
        "push-filter-below-explode"
    }
    fn description(&self) -> &'static str {
        "pushes a filter below EXPLODE when it does not read the exploded column"
    }
    fn apply(&self, plan: &Arc<LogicalPlan>) -> Option<Arc<LogicalPlan>> {
        let LogicalPlan::Filter { input, predicate } = plan.as_ref() else { return None };
        let LogicalPlan::Explode { input: ex_in, col, as_name, schema } = input.as_ref() else {
            return None;
        };
        let safe = predicate.uses().is_some_and(|used| !used.contains(as_name));
        if !safe {
            return None;
        }
        Some(Arc::new(LogicalPlan::Explode {
            input: Arc::new(LogicalPlan::Filter {
                input: Arc::clone(ex_in),
                predicate: predicate.clone(),
            }),
            col: col.clone(),
            as_name: as_name.clone(),
            schema: Arc::clone(schema),
        }))
    }
}

/// RBLO0005: `Project ∘ Project` fusion — substitutes the inner projection's
/// expressions into the outer one, eliminating an intermediate row pass.
/// UDFs only fuse across pass-through columns (see `expr_fusable`).
pub struct FuseProjects;

impl RewriteRule for FuseProjects {
    fn id(&self) -> &'static str {
        "RBLO0005"
    }
    fn name(&self) -> &'static str {
        "fuse-projects"
    }
    fn description(&self) -> &'static str {
        "fuses adjacent projections into one by expression substitution"
    }
    fn apply(&self, plan: &Arc<LogicalPlan>) -> Option<Arc<LogicalPlan>> {
        let LogicalPlan::Project { input, exprs, schema } = plan.as_ref() else { return None };
        let LogicalPlan::Project { input: inner_in, exprs: inner, .. } = input.as_ref() else {
            return None;
        };
        if !exprs.iter().all(|e| expr_fusable(&e.expr, inner)) {
            return None;
        }
        let fused: Vec<NamedExpr> = exprs
            .iter()
            .map(|e| NamedExpr {
                name: e.name.clone(),
                expr: e.expr.substitute(&|name| {
                    inner.iter().find(|ie| ie.name == name).map(|ie| ie.expr.clone())
                }),
                dtype: e.dtype,
            })
            .collect();
        Some(Arc::new(LogicalPlan::Project {
            input: Arc::clone(inner_in),
            exprs: fused,
            schema: Arc::clone(schema),
        }))
    }
}

/// RBLO0006: `Limit ∘ Limit → Limit(min)` — nested limits collapse to the
/// tighter bound.
pub struct MergeLimits;

impl RewriteRule for MergeLimits {
    fn id(&self) -> &'static str {
        "RBLO0006"
    }
    fn name(&self) -> &'static str {
        "merge-limits"
    }
    fn description(&self) -> &'static str {
        "collapses nested limits to the tighter bound"
    }
    fn apply(&self, plan: &Arc<LogicalPlan>) -> Option<Arc<LogicalPlan>> {
        let LogicalPlan::Limit { input, n } = plan.as_ref() else { return None };
        let LogicalPlan::Limit { input: inner_in, n: m } = input.as_ref() else { return None };
        Some(Arc::new(LogicalPlan::Limit { input: Arc::clone(inner_in), n: (*n).min(*m) }))
    }
}

/// RBLO0007: drops a filter whose predicate is the literal `true` — every
/// row passes, so the node is a no-op.
pub struct DropNoopFilter;

impl RewriteRule for DropNoopFilter {
    fn id(&self) -> &'static str {
        "RBLO0007"
    }
    fn name(&self) -> &'static str {
        "drop-noop-filter"
    }
    fn description(&self) -> &'static str {
        "removes a filter whose predicate is literally true"
    }
    fn apply(&self, plan: &Arc<LogicalPlan>) -> Option<Arc<LogicalPlan>> {
        let LogicalPlan::Filter { input, predicate } = plan.as_ref() else { return None };
        match predicate {
            Expr::Lit(Value::Bool(true)) => Some(Arc::clone(input)),
            _ => None,
        }
    }
}

/// RBLO0008: column pruning — drops projection outputs that no ancestor
/// requires, the "does not create the column at all" optimization of §4.7.
/// Runs once at the root after the fixpoint (it is a whole-plan pass, not a
/// local rewrite).
pub struct PruneColumns;

impl RewriteRule for PruneColumns {
    fn id(&self) -> &'static str {
        "RBLO0008"
    }
    fn name(&self) -> &'static str {
        "prune-columns"
    }
    fn description(&self) -> &'static str {
        "drops projected columns that no ancestor operator reads"
    }
    fn phase(&self) -> RulePhase {
        RulePhase::Finalize
    }
    fn apply(&self, plan: &Arc<LogicalPlan>) -> Option<Arc<LogicalPlan>> {
        let all: BTreeSet<String> = plan.schema().fields().iter().map(|f| f.name.clone()).collect();
        let pruned = prune(plan, &all);
        // Pruning rebuilds the tree unconditionally; report a firing only
        // when the plan actually changed shape.
        if pruned.render() == plan.render() {
            None
        } else {
            Some(pruned)
        }
    }
}

/// Whether `plan` is a projection computing an [`Expr::nondeterministic`]
/// UDF, which must see every row of its input.
fn computes_nondeterministic(plan: &LogicalPlan) -> bool {
    matches!(plan, LogicalPlan::Project { exprs, .. } if !exprs.iter().all(|e| e.expr.is_deterministic()))
}

/// A UDF can only fuse across a projection if every column it reads passes
/// through that projection unchanged (the UDF looks columns up by name at
/// runtime, so substitution cannot rewrite its body).
fn expr_fusable(e: &Expr, inner: &[NamedExpr]) -> bool {
    match e {
        Expr::Udf { uses, .. } => match uses {
            Some(cols) => {
                cols.iter().all(|c| inner.iter().any(|ie| ie.name == *c && ie.is_passthrough()))
            }
            None => false,
        },
        Expr::Col(_) | Expr::Lit(_) => true,
        Expr::Cmp(a, _, b) | Expr::Num(a, _, b) | Expr::And(a, b) | Expr::Or(a, b) => {
            expr_fusable(a, inner) && expr_fusable(b, inner)
        }
        Expr::Not(a) | Expr::IsNull(a) => expr_fusable(a, inner),
    }
}

/// The recursive required-columns pass behind [`PruneColumns`].
fn prune(plan: &Arc<LogicalPlan>, required: &BTreeSet<String>) -> Arc<LogicalPlan> {
    match plan.as_ref() {
        LogicalPlan::Project { input, exprs, .. } => {
            // A nondeterministic expression must see every row, whether or
            // not an ancestor reads its column.
            let kept: Vec<NamedExpr> = exprs
                .iter()
                .filter(|e| required.contains(&e.name) || !e.expr.is_deterministic())
                .cloned()
                .collect();
            let kept = if kept.is_empty() { vec![exprs[0].clone()] } else { kept };
            let mut child_req = BTreeSet::new();
            let mut opaque = false;
            for e in &kept {
                match e.expr.uses() {
                    Some(cols) => child_req.extend(cols),
                    None => opaque = true,
                }
            }
            if opaque {
                child_req = input.schema().fields().iter().map(|f| f.name.clone()).collect();
            }
            let new_input = prune(input, &child_req);
            let schema = Schema::new(kept.iter().map(|e| Field::new(&e.name, e.dtype)).collect());
            Arc::new(LogicalPlan::Project { input: new_input, exprs: kept, schema })
        }
        LogicalPlan::Filter { input, predicate } => {
            let mut child_req = required.clone();
            match predicate.uses() {
                Some(cols) => child_req.extend(cols),
                None => {
                    child_req.extend(input.schema().fields().iter().map(|f| f.name.clone()));
                }
            }
            Arc::new(LogicalPlan::Filter {
                input: prune(input, &child_req),
                predicate: predicate.clone(),
            })
        }
        LogicalPlan::OrderBy { input, keys } => {
            let mut child_req = required.clone();
            child_req.extend(keys.iter().map(|(k, _)| k.clone()));
            Arc::new(LogicalPlan::OrderBy { input: prune(input, &child_req), keys: keys.clone() })
        }
        LogicalPlan::Explode { input, col, as_name, schema } => {
            let mut child_req: BTreeSet<String> =
                required.iter().filter(|c| *c != as_name).cloned().collect();
            child_req.insert(col.clone());
            let new_input = prune(input, &child_req);
            // The cached schema must be rebuilt from the pruned child — it
            // may have lost columns.
            let item_dtype = schema.field(as_name).map(|f| f.dtype).unwrap_or(super::DataType::Any);
            let fields = new_input
                .schema()
                .fields()
                .iter()
                .map(|f| if f.name == *col { Field::new(as_name, item_dtype) } else { f.clone() })
                .collect();
            Arc::new(LogicalPlan::Explode {
                input: new_input,
                col: col.clone(),
                as_name: as_name.clone(),
                schema: Schema::new(fields),
            })
        }
        LogicalPlan::GroupBy { input, keys, aggs, schema } => {
            let mut child_req: BTreeSet<String> = keys.iter().cloned().collect();
            child_req.extend(aggs.iter().filter_map(|(a, _)| a.input_col().map(String::from)));
            Arc::new(LogicalPlan::GroupBy {
                input: prune(input, &child_req),
                keys: keys.clone(),
                aggs: aggs.clone(),
                schema: Arc::clone(schema),
            })
        }
        LogicalPlan::ZipWithIndex { input, name, start, schema: _ } => {
            let child_req: BTreeSet<String> =
                required.iter().filter(|c| *c != name).cloned().collect();
            let child_req = if child_req.is_empty() {
                input.schema().fields().iter().map(|f| f.name.clone()).collect()
            } else {
                child_req
            };
            let new_input = prune(input, &child_req);
            // Rebuild the cached schema from the pruned child — it may have
            // lost columns.
            let mut fields = new_input.schema().fields().to_vec();
            fields.push(Field::new(name, super::DataType::I64));
            Arc::new(LogicalPlan::ZipWithIndex {
                input: new_input,
                name: name.clone(),
                start: *start,
                schema: Schema::new(fields),
            })
        }
        LogicalPlan::Limit { input, n } => {
            Arc::new(LogicalPlan::Limit { input: prune(input, required), n: *n })
        }
        LogicalPlan::FromRdd { .. } => Arc::clone(plan),
    }
}

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

/// One rule application, in firing order.
#[derive(Debug, Clone)]
pub struct RuleFire {
    pub rule: &'static str,
    /// The fixpoint pass during which the rule fired (finalize rules report
    /// the pass after the last fixpoint one).
    pub pass: u64,
}

/// A rule fired but broke a property it declared to preserve. In debug
/// builds this panics instead; in release builds the rewrite is rejected
/// and the violation recorded here.
#[derive(Debug, Clone)]
pub struct PropertyViolation {
    pub rule: &'static str,
    pub pass: u64,
    pub detail: String,
}

/// What one `Optimizer::run` did: which rules fired when, and any property
/// violations (non-empty only with [`CheckMode::Collect`]).
#[derive(Debug, Clone, Default)]
pub struct OptimizeTrace {
    pub fires: Vec<RuleFire>,
    pub violations: Vec<PropertyViolation>,
}

impl OptimizeTrace {
    /// Renders the firing sequence as `RBLO0001@0 RBLO0005@1 …` for logs
    /// and the shell's per-query trace line.
    pub fn render_fires(&self) -> String {
        self.fires.iter().map(|f| format!("{}@{}", f.rule, f.pass)).collect::<Vec<_>>().join(" ")
    }
}

/// What to do when a firing breaks its property declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckMode {
    /// Panic with the violation (the debug-build default).
    Panic,
    /// Reject the rewrite, record the violation, keep optimizing (the
    /// release-build default, and what the mutation tests use).
    Collect,
}

impl CheckMode {
    fn default_for_build() -> CheckMode {
        if cfg!(debug_assertions) {
            CheckMode::Panic
        } else {
            CheckMode::Collect
        }
    }
}

/// Bounded fixpoint iterations — deep rewrite chains beyond this are left
/// partially optimized (same bound as the pre-registry monolith).
const MAX_PASSES: u64 = 8;

/// The rule-driven optimizer. Holds an ordered rule list so tests can run
/// reduced or deliberately-broken rule sets.
pub struct Optimizer {
    rules: Vec<&'static dyn RewriteRule>,
    check_mode: CheckMode,
}

impl Optimizer {
    /// The full standard registry with the build-appropriate check mode.
    pub fn standard() -> Optimizer {
        Optimizer { rules: REGISTRY.to_vec(), check_mode: CheckMode::default_for_build() }
    }

    /// An optimizer over an explicit rule list (mutation tests inject
    /// broken rules here).
    pub fn with_rules(rules: Vec<&'static dyn RewriteRule>) -> Optimizer {
        Optimizer { rules, check_mode: CheckMode::default_for_build() }
    }

    pub fn check_mode(mut self, mode: CheckMode) -> Optimizer {
        self.check_mode = mode;
        self
    }

    /// Removes every rule whose id is in `disabled` (conf-driven bisection).
    pub fn without_rules(mut self, disabled: &BTreeSet<String>) -> Optimizer {
        self.rules.retain(|r| !disabled.contains(r.id()));
        self
    }

    pub fn rules(&self) -> &[&'static dyn RewriteRule] {
        &self.rules
    }

    /// Optimizes `plan`, returning the rewritten plan and the fire trace.
    pub fn run(&self, plan: Arc<LogicalPlan>) -> (Arc<LogicalPlan>, OptimizeTrace) {
        let mut trace = OptimizeTrace::default();
        let mut current = plan;
        let mut pass = 0;
        while pass < MAX_PASSES {
            let (next, changed) = self.rewrite_pass(&current, pass, &mut trace);
            current = next;
            pass += 1;
            if !changed {
                break;
            }
        }
        for rule in self.rules.iter().filter(|r| r.phase() == RulePhase::Finalize) {
            if let Some(out) = rule.apply(&current) {
                if let Some(out) = self.verify_fire(*rule, &current, out, pass, &mut trace) {
                    current = out;
                }
            }
        }
        // In debug/test builds, every optimized plan must still satisfy the
        // structural invariants the validating constructors established.
        #[cfg(debug_assertions)]
        if let Err(e) = current.validate() {
            panic!("optimizer produced an invalid plan: {e}");
        }
        (current, trace)
    }

    /// One bottom-up traversal: children first, then at most one fixpoint
    /// rule per node.
    fn rewrite_pass(
        &self,
        plan: &Arc<LogicalPlan>,
        pass: u64,
        trace: &mut OptimizeTrace,
    ) -> (Arc<LogicalPlan>, bool) {
        let (plan, changed) = self.rebuild_children(plan, pass, trace);
        for rule in self.rules.iter().filter(|r| r.phase() == RulePhase::Fixpoint) {
            let Some(out) = rule.apply(&plan) else { continue };
            return match self.verify_fire(*rule, &plan, out, pass, trace) {
                Some(out) => (out, true),
                // The rule matched but its rewrite was rejected by the
                // property checker (Collect mode): stop trying further
                // rules at this node, mirroring the one-rule-per-visit
                // discipline.
                None => (plan, changed),
            };
        }
        (plan, changed)
    }

    /// Verifies one firing against the rule's property contract; returns
    /// the rewrite if it holds.
    fn verify_fire(
        &self,
        rule: &'static dyn RewriteRule,
        plan: &Arc<LogicalPlan>,
        out: Arc<LogicalPlan>,
        pass: u64,
        trace: &mut OptimizeTrace,
    ) -> Option<Arc<LogicalPlan>> {
        let before = derive(plan);
        let after = derive(&out);
        match check_preserved(&before, &after, rule.preserves()) {
            Ok(()) => {
                trace.fires.push(RuleFire { rule: rule.id(), pass });
                Some(out)
            }
            Err(detail) => {
                let msg = format!(
                    "optimizer rule {} ({}) broke its property contract: {detail}",
                    rule.id(),
                    rule.name()
                );
                if self.check_mode == CheckMode::Panic {
                    panic!("{msg}");
                }
                trace.violations.push(PropertyViolation { rule: rule.id(), pass, detail });
                None
            }
        }
    }

    fn rebuild_children(
        &self,
        plan: &Arc<LogicalPlan>,
        pass: u64,
        trace: &mut OptimizeTrace,
    ) -> (Arc<LogicalPlan>, bool) {
        let rebuilt = match plan.as_ref() {
            LogicalPlan::FromRdd { .. } => return (Arc::clone(plan), false),
            LogicalPlan::Project { input, exprs, schema } => {
                let (ni, ch) = self.rewrite_pass(input, pass, trace);
                if !ch {
                    return (Arc::clone(plan), false);
                }
                LogicalPlan::Project { input: ni, exprs: exprs.clone(), schema: Arc::clone(schema) }
            }
            LogicalPlan::Filter { input, predicate } => {
                let (ni, ch) = self.rewrite_pass(input, pass, trace);
                if !ch {
                    return (Arc::clone(plan), false);
                }
                LogicalPlan::Filter { input: ni, predicate: predicate.clone() }
            }
            LogicalPlan::Explode { input, col, as_name, schema } => {
                let (ni, ch) = self.rewrite_pass(input, pass, trace);
                if !ch {
                    return (Arc::clone(plan), false);
                }
                LogicalPlan::Explode {
                    input: ni,
                    col: col.clone(),
                    as_name: as_name.clone(),
                    schema: Arc::clone(schema),
                }
            }
            LogicalPlan::GroupBy { input, keys, aggs, schema } => {
                let (ni, ch) = self.rewrite_pass(input, pass, trace);
                if !ch {
                    return (Arc::clone(plan), false);
                }
                LogicalPlan::GroupBy {
                    input: ni,
                    keys: keys.clone(),
                    aggs: aggs.clone(),
                    schema: Arc::clone(schema),
                }
            }
            LogicalPlan::OrderBy { input, keys } => {
                let (ni, ch) = self.rewrite_pass(input, pass, trace);
                if !ch {
                    return (Arc::clone(plan), false);
                }
                LogicalPlan::OrderBy { input: ni, keys: keys.clone() }
            }
            LogicalPlan::ZipWithIndex { input, name, start, schema } => {
                let (ni, ch) = self.rewrite_pass(input, pass, trace);
                if !ch {
                    return (Arc::clone(plan), false);
                }
                LogicalPlan::ZipWithIndex {
                    input: ni,
                    name: name.clone(),
                    start: *start,
                    schema: Arc::clone(schema),
                }
            }
            LogicalPlan::Limit { input, n } => {
                let (ni, ch) = self.rewrite_pass(input, pass, trace);
                if !ch {
                    return (Arc::clone(plan), false);
                }
                LogicalPlan::Limit { input: ni, n: *n }
            }
        };
        (Arc::new(rebuilt), true)
    }
}

// ---------------------------------------------------------------------------
// Per-site application (the fuzzer's entry point)
// ---------------------------------------------------------------------------

/// Applies `rule` in isolation at exactly one matching site of `plan`,
/// returning one whole-plan rewrite per site where the rule matches (no
/// fixpoint, no other rules, no property gate — callers verify). Site `i`
/// is the `i`-th matching node in a pre-order walk.
pub fn apply_at_each_site(
    rule: &dyn RewriteRule,
    plan: &Arc<LogicalPlan>,
) -> Vec<Arc<LogicalPlan>> {
    let total = count_sites(rule, plan);
    (0..total)
        .map(|site| {
            let mut next = 0;
            apply_at_site(rule, plan, site, &mut next).expect("site index counted above must exist")
        })
        .collect()
}

fn count_sites(rule: &dyn RewriteRule, plan: &Arc<LogicalPlan>) -> usize {
    let here = usize::from(rule.apply(plan).is_some());
    here + plan.input().map_or(0, |input| count_sites(rule, input))
}

fn apply_at_site(
    rule: &dyn RewriteRule,
    plan: &Arc<LogicalPlan>,
    site: usize,
    next: &mut usize,
) -> Option<Arc<LogicalPlan>> {
    if let Some(out) = rule.apply(plan) {
        let here = *next;
        *next += 1;
        if here == site {
            return Some(out);
        }
    }
    let input = plan.input()?;
    let new_input = apply_at_site(rule, input, site, next)?;
    Some(plan.with_input(new_input))
}
