//! Golden tests for the rewrite-rule registry: one minimal before/after
//! plan pair per named rule, pinned as exact `render()` strings. A rule
//! whose output shape drifts fails here first, with a readable plan diff.
//!
//! The context is built with the optimizer *disabled* so the DataFrame API
//! hands back raw plans; each test then applies exactly one rule at the
//! root via `RewriteRule::apply`.

use sparklite::dataframe::rules::{rule_by_id, REGISTRY};
use sparklite::dataframe::{
    CmpOp, DataFrame, DataType, Expr, Field, NamedExpr, NumOp, Row, Schema, SortDir, Value,
};
use sparklite::{SparkliteConf, SparkliteContext};
use std::collections::BTreeSet;

fn ctx() -> SparkliteContext {
    SparkliteContext::new(SparkliteConf::default().with_executors(2).with_optimizer(false))
}

/// `[a: I64, b: I64, xs: List]`, three rows.
fn base(ctx: &SparkliteContext) -> DataFrame {
    let schema = Schema::new(vec![
        Field::new("a", DataType::I64),
        Field::new("b", DataType::I64),
        Field::new("xs", DataType::List),
    ]);
    let rows: Vec<Row> = (0..3)
        .map(|i| {
            vec![
                Value::I64(i),
                Value::I64(10 * i),
                Value::list(vec![Value::I64(i), Value::I64(-i)]),
            ]
        })
        .collect();
    DataFrame::from_rows(ctx, schema, rows, 2).unwrap()
}

fn a_gt(n: i64) -> Expr {
    Expr::cmp(Expr::col("a"), CmpOp::Gt, Expr::lit(Value::I64(n)))
}

fn named(name: &str, expr: Expr, dtype: DataType) -> NamedExpr {
    NamedExpr { name: name.into(), expr, dtype }
}

/// Applies `rule` at the plan root (where every golden before-plan puts the
/// single match) and pins both renders. The pinned pair is also executed
/// both ways to confirm it really is an equivalence.
fn golden(rule_id: &str, before: &DataFrame, want_before: &str, want_after: &str) {
    let rule = rule_by_id(rule_id).expect("rule id is registered");
    assert_eq!(before.plan().render(), want_before, "{rule_id} before-plan drifted");
    let after = rule.apply(before.plan()).expect("rule matches its golden before-plan");
    assert_eq!(after.render(), want_after, "{rule_id} rewrite output drifted");
    after.validate().unwrap();
    assert_eq!(
        before.with_plan(after).collect_rows().unwrap(),
        before.collect_rows().unwrap(),
        "{rule_id} golden rewrite changed the result"
    );
}

#[test]
fn registry_is_well_formed() {
    let mut ids = BTreeSet::new();
    let mut names = BTreeSet::new();
    for rule in REGISTRY {
        assert!(
            rule.id().starts_with("RBLO") && rule.id().len() == 8,
            "rule id '{}' is not RBLO####",
            rule.id()
        );
        assert!(ids.insert(rule.id()), "duplicate rule id {}", rule.id());
        assert!(names.insert(rule.name()), "duplicate rule name {}", rule.name());
        assert!(!rule.description().is_empty(), "{} has no description", rule.id());
    }
    assert_eq!(rule_by_id("RBLO0001").map(|r| r.name()), Some("merge-filters"));
    assert_eq!(rule_by_id("RBLO9999").map(|r| r.id()), None);
}

#[test]
fn golden_rblo0001_merge_filters() {
    let c = ctx();
    let d = base(&c).filter(a_gt(0)).unwrap().filter(a_gt(1)).unwrap();
    golden(
        "RBLO0001",
        &d,
        "Filter (col(a) Gt lit(1))\n\
        \x20 Filter (col(a) Gt lit(0))\n\
        \x20   FromRdd [a: I64, b: I64, xs: List]\n",
        "Filter ((col(a) Gt lit(0)) AND (col(a) Gt lit(1)))\n\
        \x20 FromRdd [a: I64, b: I64, xs: List]\n",
    );
}

#[test]
fn golden_rblo0002_push_filter_through_project() {
    let c = ctx();
    let d = base(&c)
        .select(vec![
            NamedExpr::passthrough("a", DataType::I64),
            named(
                "c",
                Expr::num(Expr::col("b"), NumOp::Add, Expr::lit(Value::I64(1))),
                DataType::I64,
            ),
        ])
        .unwrap()
        .filter(Expr::cmp(Expr::col("c"), CmpOp::Ge, Expr::lit(Value::I64(5))))
        .unwrap();
    golden(
        "RBLO0002",
        &d,
        "Filter (col(c) Ge lit(5))\n\
        \x20 Project [a := col(a) as I64, c := (col(b) Add lit(1)) as I64]\n\
        \x20   FromRdd [a: I64, b: I64, xs: List]\n",
        "Project [a := col(a) as I64, c := (col(b) Add lit(1)) as I64]\n\
        \x20 Filter ((col(b) Add lit(1)) Ge lit(5))\n\
        \x20   FromRdd [a: I64, b: I64, xs: List]\n",
    );
}

#[test]
fn golden_rblo0003_push_filter_below_sort() {
    let c = ctx();
    let d =
        base(&c).order_by(vec![("b".into(), SortDir::desc())]).unwrap().filter(a_gt(0)).unwrap();
    golden(
        "RBLO0003",
        &d,
        "Filter (col(a) Gt lit(0))\n\
        \x20 OrderBy [b SortDir { ascending: false, nulls_last: true }]\n\
        \x20   FromRdd [a: I64, b: I64, xs: List]\n",
        "OrderBy [b SortDir { ascending: false, nulls_last: true }]\n\
        \x20 Filter (col(a) Gt lit(0))\n\
        \x20   FromRdd [a: I64, b: I64, xs: List]\n",
    );
}

#[test]
fn golden_rblo0004_push_filter_below_explode() {
    let c = ctx();
    let d = base(&c).explode("xs", "x", DataType::I64).unwrap().filter(a_gt(0)).unwrap();
    golden(
        "RBLO0004",
        &d,
        "Filter (col(a) Gt lit(0))\n\
        \x20 Explode xs as x\n\
        \x20   FromRdd [a: I64, b: I64, xs: List]\n",
        "Explode xs as x\n\
        \x20 Filter (col(a) Gt lit(0))\n\
        \x20   FromRdd [a: I64, b: I64, xs: List]\n",
    );
}

#[test]
fn golden_rblo0005_fuse_projects() {
    let c = ctx();
    let d = base(&c)
        .select(vec![
            NamedExpr::passthrough("a", DataType::I64),
            named(
                "c",
                Expr::num(Expr::col("b"), NumOp::Mul, Expr::lit(Value::I64(2))),
                DataType::I64,
            ),
        ])
        .unwrap()
        .select(vec![named(
            "d",
            Expr::num(Expr::col("c"), NumOp::Add, Expr::col("a")),
            DataType::I64,
        )])
        .unwrap();
    golden(
        "RBLO0005",
        &d,
        "Project [d := (col(c) Add col(a)) as I64]\n\
        \x20 Project [a := col(a) as I64, c := (col(b) Mul lit(2)) as I64]\n\
        \x20   FromRdd [a: I64, b: I64, xs: List]\n",
        "Project [d := ((col(b) Mul lit(2)) Add col(a)) as I64]\n\
        \x20 FromRdd [a: I64, b: I64, xs: List]\n",
    );
}

#[test]
fn golden_rblo0006_merge_limits() {
    let c = ctx();
    let d = base(&c).limit(7).limit(3);
    golden(
        "RBLO0006",
        &d,
        "Limit 3\n\
        \x20 Limit 7\n\
        \x20   FromRdd [a: I64, b: I64, xs: List]\n",
        "Limit 3\n\
        \x20 FromRdd [a: I64, b: I64, xs: List]\n",
    );
}

#[test]
fn golden_rblo0007_drop_noop_filter() {
    let c = ctx();
    let d = base(&c).filter(Expr::lit(Value::Bool(true))).unwrap();
    golden(
        "RBLO0007",
        &d,
        "Filter lit(true)\n\
        \x20 FromRdd [a: I64, b: I64, xs: List]\n",
        "FromRdd [a: I64, b: I64, xs: List]\n",
    );
}

#[test]
fn golden_rblo0008_prune_columns() {
    let c = ctx();
    let d = base(&c)
        .with_column(
            "c",
            Expr::num(Expr::col("a"), NumOp::Mul, Expr::lit(Value::I64(2))),
            DataType::I64,
        )
        .unwrap()
        .select(vec![NamedExpr::passthrough("c", DataType::I64)])
        .unwrap();
    golden(
        "RBLO0008",
        &d,
        "Project [c := col(c) as I64]\n\
        \x20 Project [a := col(a) as I64, b := col(b) as I64, xs := col(xs) as List, \
        c := (col(a) Mul lit(2)) as I64]\n\
        \x20   FromRdd [a: I64, b: I64, xs: List]\n",
        "Project [c := col(c) as I64]\n\
        \x20 Project [c := (col(a) Mul lit(2)) as I64]\n\
        \x20   FromRdd [a: I64, b: I64, xs: List]\n",
    );
}

/// A filter stays above a projection computing a nondeterministic UDF,
/// and above a sort reading one, so the UDF sees every row; the same plans
/// with a deterministic UDF do get rewritten.
#[test]
fn filters_stay_above_a_nondeterministic_projection_and_its_sort() {
    let c = ctx();
    for deterministic in [true, false] {
        let udf = Expr::udf("k", Some(vec!["b".into()]), |_, row: &[Value]| row[1].clone());
        let udf = if deterministic { udf } else { udf.nondeterministic() };
        let keyed = base(&c).with_column("k", udf, DataType::I64).unwrap();
        let filtered = keyed.filter(a_gt(0)).unwrap();
        let sorted =
            keyed.order_by(vec![("k".into(), SortDir::asc())]).unwrap().filter(a_gt(0)).unwrap();
        for (rule_id, d) in [("RBLO0002", &filtered), ("RBLO0003", &sorted)] {
            let fired = rule_by_id(rule_id).unwrap().apply(d.plan()).is_some();
            assert_eq!(fired, deterministic, "{rule_id}, deterministic = {deterministic}");
        }
    }
}
