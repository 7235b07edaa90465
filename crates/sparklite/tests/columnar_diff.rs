//! The physical-path differential battery: every random pipeline the
//! generator can produce must collect to byte-identical rows (under
//! [`RowCodec`]) on both physical paths — the row-at-a-time reference
//! operators (`ExecConf::row_major`) and the shipping columnar default, with
//! fused built-in chains and vectorized hash aggregation. Batch sizes are
//! fuzzed too, so batch seams land inside, on, and around partition
//! boundaries; dedicated cases pin the
//! empty / one-row / N−1 / N / N+1 input sizes, null-heavy mixed-type
//! columns, and group/sort-heavy shapes (high-cardinality, skewed,
//! all-NULL, and mixed-type keys).

mod common;

use common::{build_on, seed_n, step_strategy, Step};
use proptest::prelude::*;
use sparklite::dataframe::{
    Agg, CmpOp, DataFrame, DataType, Expr, Field, NamedExpr, NumOp, Row, RowCodec, Schema, SortDir,
    Value,
};
use sparklite::{CacheCodec, FaultPlan, SparkliteConf, SparkliteContext};

/// The physical execution paths under differential test.
#[derive(Debug, Clone, Copy)]
enum Mode {
    /// Row-at-a-time reference operators.
    RowMajor,
    /// The shipping default: built-in chains on columnar kernels, UDF
    /// operators on rows, and vectorized hash aggregation.
    Vectorized,
}

const MODES: [Mode; 2] = [Mode::RowMajor, Mode::Vectorized];

fn ctx_mode(mode: Mode, batch: usize) -> SparkliteContext {
    let conf =
        SparkliteConf::default().with_executors(3).with_optimizer(false).with_batch_size(batch);
    SparkliteContext::new(conf.with_row_major(matches!(mode, Mode::RowMajor)))
}

/// Runs the same pipeline over the same seed on every physical path and
/// returns each path's result, RowCodec-encoded.
fn diff_all(steps: &[Step], rows: i64, batch: usize) -> Vec<(Mode, Vec<u8>)> {
    MODES
        .iter()
        .map(|&mode| {
            let ctx = ctx_mode(mode, batch);
            let out = build_on(seed_n(&ctx, rows), steps).collect_rows().unwrap();
            (mode, RowCodec.encode(&out))
        })
        .collect()
}

fn assert_all_agree(results: &[(Mode, Vec<u8>)], what: &str) {
    let (_, baseline) = &results[0];
    for (mode, bytes) in &results[1..] {
        assert_eq!(bytes, baseline, "{mode:?} diverged from RowMajor on {what}");
    }
}

/// [`step_strategy`] re-weighted toward shuffle boundaries: three in four
/// steps are a GROUP BY or an ORDER BY, so pipelines hammer the hash
/// aggregation kernel and the range sort (often stacked).
fn group_sort_heavy_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        step_strategy(),
        Just(Step::GroupBy),
        (0usize..4).prop_map(Step::OrderAsc),
        (0usize..4).prop_map(Step::OrderDesc),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The core battery: random up-to-16-step pipelines over the messy seed
    /// (NULLs in two columns, lists, floats), random batch sizes straddling
    /// the 24-row / 3-partition seed, byte-identical output on all paths.
    #[test]
    fn all_physical_paths_agree_on_random_pipelines(
        steps in prop::collection::vec(step_strategy(), 0..16),
        batch in prop_oneof![
            Just(1usize), Just(2), Just(3), Just(5), Just(7),
            Just(8), Just(9), Just(23), Just(24), Just(25), Just(1024),
        ],
    ) {
        let results = diff_all(&steps, 24, batch);
        let (_, baseline) = &results[0];
        for (mode, bytes) in &results[1..] {
            prop_assert_eq!(
                bytes, baseline,
                "{:?} diverged: steps {:?}, batch {}", mode, &steps, batch
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Group/sort-heavy pipelines: stacked aggregations and orderings over
    /// the messy seed, where the hash kernel's group identity and the
    /// sort must reproduce the row comparators exactly.
    #[test]
    fn group_and_sort_heavy_pipelines_agree(
        steps in prop::collection::vec(group_sort_heavy_step(), 1..10),
        batch in prop_oneof![Just(1usize), Just(3), Just(8), Just(24), Just(1024)],
    ) {
        let results = diff_all(&steps, 24, batch);
        let (_, baseline) = &results[0];
        for (mode, bytes) in &results[1..] {
            prop_assert_eq!(
                bytes, baseline,
                "{:?} diverged: steps {:?}, batch {}", mode, &steps, batch
            );
        }
    }
}

/// Input sizes pinned to the batch boundary: empty, one row, one batch minus
/// one, exactly one batch, one over, and multiples — through a pipeline that
/// exercises every fused operator kind plus both shuffle boundaries.
#[test]
fn size_edges_agree_at_batch_boundaries() {
    let batch = 8usize;
    let pipeline = [
        Step::WithColumn(3),
        Step::FilterGt(-4),
        Step::Explode,
        Step::GroupBy,
        Step::OrderAsc(0),
        Step::Limit(9),
    ];
    for rows in [0i64, 1, 7, 8, 9, 16, 17, 24] {
        assert_all_agree(&diff_all(&pipeline, rows, batch), &format!("rows={rows}"));
    }
}

/// Key distributions that stress the aggregation kernel from four angles:
/// every key distinct (table growth), one dominant key (slot contention),
/// all keys NULL (single group via the NULL tag), and keys mixing types
/// whose values compare numerically equal (`I64(1)` vs `F64(1.0)` vs
/// `Str("1")` vs `Bool(true)` must stay distinct groups). Every aggregate
/// kind runs over payloads with NULLs, i64 extremes (SUM overflow), NaN and
/// negative zero; the result is then sorted on a float column.
#[test]
fn grouping_stress_shapes_agree_on_all_paths() {
    let frame = |ctx: &SparkliteContext, shape: &str| {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Any),
            Field::new("v", DataType::I64),
            Field::new("f", DataType::F64),
        ]);
        let rows: Vec<Row> = (0..240i64)
            .map(|i| {
                let k = match shape {
                    "high" => Value::I64(i),
                    "skewed" => Value::I64(if i % 10 == 0 { i } else { 0 }),
                    "null" => Value::Null,
                    _ => match i % 6 {
                        0 => Value::I64(1),
                        1 => Value::F64(1.0),
                        2 => Value::str("1"),
                        3 => Value::Bool(true),
                        4 => Value::Null,
                        _ => Value::I64(i % 3),
                    },
                };
                let v = match i % 7 {
                    0 => Value::Null,
                    1 => Value::I64(i64::MAX - 2),
                    _ => Value::I64(i * 11 - 80),
                };
                let f = match i % 5 {
                    0 => Value::F64(f64::NAN),
                    1 => Value::F64(-0.0),
                    2 => Value::Null,
                    _ => Value::F64(i as f64 * 0.25 - 7.0),
                };
                vec![k, v, f]
            })
            .collect();
        DataFrame::from_rows(ctx, schema, rows, 3).unwrap()
    };
    let run = |mode: Mode, batch: usize, shape: &str| {
        let ctx = ctx_mode(mode, batch);
        let out = frame(&ctx, shape)
            .group_by(
                &["k"],
                vec![
                    (Agg::Count, "n".into()),
                    (Agg::CountCol("v".into()), "nv".into()),
                    (Agg::Sum("v".into()), "sv".into()),
                    (Agg::Avg("f".into()), "af".into()),
                    (Agg::Min("v".into()), "mn".into()),
                    (Agg::Max("f".into()), "mx".into()),
                    (Agg::First("f".into()), "ff".into()),
                    (Agg::CollectList("v".into()), "lv".into()),
                ],
            )
            .unwrap()
            .order_by(vec![
                ("af".into(), SortDir::desc().with_nulls_last(false)),
                ("k".into(), SortDir::asc().with_nulls_last(true)),
            ])
            .unwrap()
            .collect_rows()
            .unwrap();
        RowCodec.encode(&out)
    };
    for shape in ["high", "skewed", "null", "mixed"] {
        for batch in [1usize, 7, 64, 1024] {
            let baseline = run(Mode::RowMajor, batch, shape);
            assert_eq!(
                run(Mode::Vectorized, batch, shape),
                baseline,
                "columnar diverged on shape={shape} batch={batch}"
            );
        }
    }
}

/// A column whose cells mix I64 / F64 / Str / Bool / List / NULL (DataType::
/// Any falls back to boxed storage in the columnar layout) must survive
/// filters, projection, grouping, and ordering identically on all paths.
#[test]
fn null_heavy_and_mixed_type_columns_agree() {
    let messy = |ctx: &SparkliteContext| {
        let schema = Schema::new(vec![
            Field::new("k", DataType::I64),
            Field::new("m", DataType::Any),
            Field::new("s", DataType::Str),
        ]);
        let rows: Vec<Row> = (0..20i64)
            .map(|i| {
                let m = match i % 6 {
                    0 => Value::Null,
                    1 => Value::I64(i),
                    2 => Value::F64(i as f64 / 3.0),
                    3 => Value::str(format!("m{i}")),
                    4 => Value::Bool(i % 4 == 0),
                    _ => Value::list(vec![Value::I64(i), Value::Null]),
                };
                let s = if i % 5 == 0 { Value::Null } else { Value::str(format!("s{}", i % 2)) };
                vec![Value::I64(i % 3), m, s]
            })
            .collect();
        DataFrame::from_rows(ctx, schema, rows, 3).unwrap()
    };
    let run = |mode: Mode, batch: usize| {
        let ctx = ctx_mode(mode, batch);
        let out = messy(&ctx)
            .filter(Expr::not(Expr::is_null(Expr::col("s"))))
            .unwrap()
            .with_column(
                "t",
                Expr::cmp(Expr::col("m"), CmpOp::Eq, Expr::lit(Value::str("m7"))),
                DataType::Any,
            )
            .unwrap()
            .group_by(
                &["k"],
                vec![
                    (Agg::Count, "n".to_string()),
                    (Agg::CollectList("m".to_string()), "ms".to_string()),
                ],
            )
            .unwrap()
            .order_by(vec![("k".into(), SortDir::asc())])
            .unwrap()
            .collect_rows()
            .unwrap();
        RowCodec.encode(&out)
    };
    let baseline = run(Mode::RowMajor, 1024);
    for batch in [1usize, 4, 19, 20, 21, 1024] {
        assert_eq!(run(Mode::Vectorized, batch), baseline, "columnar diverged at batch={batch}");
    }
}

/// NaN and negative zero must survive the round trip bit-exactly: the
/// columnar F64 buffers hold raw doubles, and RowCodec comparison is on
/// bytes, so any canonicalization on either path shows up here.
#[test]
fn float_payloads_survive_bit_exactly() {
    let frame = |ctx: &SparkliteContext| {
        let schema =
            Schema::new(vec![Field::new("k", DataType::I64), Field::new("f", DataType::F64)]);
        let rows: Vec<Row> = vec![
            vec![Value::I64(0), Value::F64(f64::NAN)],
            vec![Value::I64(1), Value::F64(-0.0)],
            vec![Value::I64(2), Value::F64(0.0)],
            vec![Value::I64(3), Value::F64(f64::INFINITY)],
            vec![Value::I64(4), Value::F64(f64::NEG_INFINITY)],
            vec![Value::I64(5), Value::Null],
            vec![Value::I64(6), Value::F64(1.5e-300)],
        ];
        DataFrame::from_rows(ctx, schema, rows, 2).unwrap()
    };
    let run = |mode: Mode| {
        let ctx = ctx_mode(mode, 3);
        let out = frame(&ctx)
            .filter(Expr::not(Expr::is_null(Expr::col("k"))))
            .unwrap()
            .select(vec![
                NamedExpr::passthrough("k", DataType::I64),
                NamedExpr::passthrough("f", DataType::F64),
            ])
            .unwrap()
            .collect_rows()
            .unwrap();
        RowCodec.encode(&out)
    };
    let baseline = run(Mode::RowMajor);
    assert_eq!(run(Mode::Vectorized), baseline, "columnar diverged");
}

/// Every path a `Limit` over an `OrderBy` runs on: the row-major and
/// columnar compilers, the columnar one under 20% seeded chaos, and with
/// two executor workers behind the block service.
fn top_k_paths() -> Vec<(&'static str, SparkliteContext)> {
    let base = || SparkliteConf::default().with_executors(3).with_optimizer(false);
    vec![
        ("row-major", SparkliteContext::new(base().with_row_major(true))),
        ("columnar", SparkliteContext::new(base().with_batch_size(7))),
        ("chaos", SparkliteContext::new(base().with_faults(FaultPlan::chaos(0x70C, 0.2)))),
        ("workers", SparkliteContext::new(base().with_dist_threads(2))),
    ]
}

/// Rows whose sort keys tie heavily (`k` takes 4 values, `s` 3 plus NULL)
/// and carry NULLs, with a unique payload so any reordering of ties shows.
fn tie_frame(ctx: &SparkliteContext, rows: i64) -> DataFrame {
    let schema = Schema::new(vec![
        Field::new("k", DataType::I64),
        Field::new("s", DataType::Str),
        Field::new("f", DataType::F64),
        Field::new("id", DataType::I64),
    ]);
    let rows: Vec<Row> = (0..rows)
        .map(|i| {
            let k = if i % 9 == 0 { Value::Null } else { Value::I64(i % 4) };
            let s = if i % 5 == 0 { Value::Null } else { Value::str(format!("s{}", i % 3)) };
            let f = if i % 7 == 0 { Value::F64(-0.0) } else { Value::F64((i % 6) as f64) };
            vec![k, s, f, Value::I64(i)]
        })
        .collect();
    DataFrame::from_rows(ctx, schema, rows, 4).unwrap()
}

/// Top-K is byte-identical to the full sort cut to `n` rows, on every path,
/// for n ∈ {0, 1, 10, more than the rows}, both NULL placements, and keys
/// whose ties only the input order breaks.
#[test]
fn top_k_equals_sort_then_take_on_every_path() {
    let key_sets: Vec<Vec<(String, SortDir)>> = vec![
        vec![("k".into(), SortDir::asc())],
        vec![("k".into(), SortDir::asc().with_nulls_last(true))],
        vec![("s".into(), SortDir::desc().with_nulls_last(false)), ("f".into(), SortDir::asc())],
        vec![("s".into(), SortDir::desc()), ("k".into(), SortDir::desc().with_nulls_last(true))],
    ];
    let rows = 150i64;
    let reference = ctx_mode(Mode::RowMajor, 1024);
    let paths = top_k_paths();
    for keys in &key_sets {
        let full =
            tie_frame(&reference, rows).order_by(keys.clone()).unwrap().collect_rows().unwrap();
        for n in [0usize, 1, 10, rows as usize + 3] {
            let want = RowCodec.encode(&full[..n.min(full.len())]);
            for (path, ctx) in &paths {
                let sorted = tie_frame(ctx, rows).order_by(keys.clone()).unwrap();
                let limited = sorted.limit(n).collect_rows().unwrap();
                assert_eq!(RowCodec.encode(&limited), want, "{path}: limit {n} over {keys:?}");
            }
        }
    }
}

#[test]
fn top_k_runs_as_one_job_and_explains_itself() {
    let ctx = ctx_mode(Mode::Vectorized, 1024);
    let sorted = tie_frame(&ctx, 40).order_by(vec![("k".into(), SortDir::asc())]).unwrap();
    let before = ctx.metrics().jobs;
    assert_eq!(sorted.limit(5).collect_rows().unwrap().len(), 5);
    assert_eq!(ctx.metrics().jobs - before, 1, "top-K is one job");
    let plan = sorted.limit(5).plan().render();
    assert!(plan.starts_with("TakeOrdered n=5 [k SortDir"), "{plan}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random pipelines ending in an ORDER BY: the top-K `Limit` equals the
    /// full sort cut to `n`, on both compilers.
    #[test]
    fn top_k_equals_sort_then_take_on_random_pipelines(
        steps in prop::collection::vec(step_strategy(), 0..8),
        key in 0usize..5,
        desc in any::<bool>(),
        nulls_last in any::<bool>(),
        n in prop_oneof![Just(0usize), Just(1), Just(10), Just(1000)],
    ) {
        for mode in MODES {
            let ctx = ctx_mode(mode, 5);
            let d = build_on(seed_n(&ctx, 24), &steps);
            let name = d.schema().fields()[key % d.schema().len()].name.clone();
            let dir = if desc { SortDir::desc() } else { SortDir::asc() }.with_nulls_last(nulls_last);
            let sorted = d.order_by(vec![(name, dir)]).unwrap();
            let full = sorted.collect_rows().unwrap();
            let top = sorted.limit(n).collect_rows().unwrap();
            prop_assert_eq!(
                RowCodec.encode(&top),
                RowCodec.encode(&full[..n.min(full.len())]),
                "{:?}: steps {:?}", mode, &steps
            );
        }
    }
}

/// One operator of a mixed chain: built-in operators, which run on batches,
/// interleaved with opaque UDF operators, which run on rows.
#[derive(Debug, Clone)]
enum MixedOp {
    /// Built-in filter `v > t`.
    Filter(i64),
    /// Built-in projection adding `v * m`.
    Project(i64),
    /// UDF projection adding `v + 1`; fails its task on `v == bad`.
    UdfProject { bad: i64 },
    /// UDF filter keeping the rows whose `v` is not a multiple of `m`.
    UdfFilter(i64),
}

fn mixed_op() -> impl Strategy<Value = MixedOp> {
    prop_oneof![
        (-12i64..40).prop_map(MixedOp::Filter),
        (1i64..5).prop_map(MixedOp::Project),
        prop_oneof![Just(-999i64), Just(6), Just(30), Just(44)]
            .prop_map(|bad| MixedOp::UdfProject { bad }),
        (3i64..7).prop_map(MixedOp::UdfFilter),
    ]
}

/// The task failure a UDF raises when it sees a row that an earlier
/// built-in filter dropped. It must never surface on any path.
const SAW_DROPPED_ROW: &str = "UDF saw a row a built-in filter dropped";

/// Builds `ops` over the messy seed. Every UDF carries the thresholds of
/// the built-in filters below it and fails its task if a row violates one:
/// a UDF may only observe the rows that logically reach it.
fn build_mixed(ctx: &SparkliteContext, rows: i64, ops: &[MixedOp]) -> DataFrame {
    let mut d = seed_n(ctx, rows);
    let mut floors: Vec<i64> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let guard = {
            let floors = floors.clone();
            move |schema: &Schema, row: &[Value]| -> Option<i64> {
                let v = row[schema.index_of("v").expect("v passes through")].as_i64();
                if floors.iter().any(|&t| v.is_none_or(|v| v <= t)) {
                    sparklite::rdd::task_bail(SAW_DROPPED_ROW);
                }
                v
            }
        };
        let v_gt = |t: i64| Expr::cmp(Expr::col("v"), CmpOp::Gt, Expr::lit(Value::I64(t)));
        d = match *op {
            MixedOp::Filter(t) => {
                floors.push(t);
                d.filter(v_gt(t)).unwrap()
            }
            MixedOp::Project(m) => d
                .with_column(
                    format!("p{i}"),
                    Expr::num(Expr::col("v"), NumOp::Mul, Expr::lit(Value::I64(m))),
                    DataType::I64,
                )
                .unwrap(),
            MixedOp::UdfProject { bad } => {
                let udf =
                    Expr::udf("plus_one", Some(vec!["v".into()]), move |s, r| match guard(s, r) {
                        Some(v) if v == bad => sparklite::rdd::task_bail("UDF rejected its input"),
                        Some(v) => Value::I64(v + 1),
                        None => Value::Null,
                    });
                d.with_column(format!("u{i}"), udf, DataType::I64).unwrap()
            }
            MixedOp::UdfFilter(m) => d
                .filter(Expr::udf("not_multiple", Some(vec!["v".into()]), move |s, r| {
                    Value::Bool(guard(s, r).is_some_and(|v| v % m != 0))
                }))
                .unwrap(),
        };
    }
    d
}

/// A mixed chain's result on one path: its rows under [`RowCodec`], or
/// the failing task's message.
fn run_mixed(mode: Mode, batch: usize, rows: i64, ops: &[MixedOp]) -> Result<Vec<u8>, String> {
    match build_mixed(&ctx_mode(mode, batch), rows, ops).collect_rows() {
        Ok(out) => Ok(RowCodec.encode(&out)),
        Err(sparklite::SparkliteError::TaskFailed(cause)) => Err(cause.message),
        Err(e) => Err(e.to_string()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random interleavings of built-in and UDF filters and projections
    /// return the same rows, or fail with the same UDF error, on both
    /// paths, and no UDF ever sees a row a built-in filter dropped.
    #[test]
    fn mixed_udf_and_builtin_chains_agree(
        ops in prop::collection::vec(mixed_op(), 1..10),
        rows in prop_oneof![Just(0i64), Just(1), Just(24), Just(61)],
        batch in prop_oneof![Just(1usize), Just(3), Just(8), Just(1024)],
    ) {
        let reference = run_mixed(Mode::RowMajor, batch, rows, &ops);
        let columnar = run_mixed(Mode::Vectorized, batch, rows, &ops);
        for out in [&reference, &columnar] {
            prop_assert!(out.as_ref().err().is_none_or(|m| !m.contains(SAW_DROPPED_ROW)));
        }
        prop_assert_eq!(columnar, reference, "ops {:?}, rows {}, batch {}", &ops, rows, batch);
    }
}

/// Whether a UDF ever runs inside a batch shows in the event log: a chain
/// of UDF operators emits no `ColumnarBatch` event, a built-in chain still
/// fuses, and in a mixed chain only the built-in operators count as fused,
/// over exactly the rows that reach the UDF above them.
#[test]
fn udf_operators_run_on_rows_and_builtin_chains_fuse() {
    let ctx = || {
        SparkliteContext::new(
            SparkliteConf::default()
                .with_executors(3)
                .with_optimizer(false)
                .with_batch_size(8)
                .with_event_collection(true),
        )
    };
    let batches = |ctx: &SparkliteContext| -> Vec<(u64, u64)> {
        let timeline = ctx.timeline().expect("event collection is on");
        timeline
            .events()
            .iter()
            .filter_map(|(_, e)| match e {
                sparklite::Event::ColumnarBatch { fused_ops, rows, .. } => {
                    Some((*fused_ops, *rows))
                }
                _ => None,
            })
            .collect()
    };
    let udf = [MixedOp::UdfProject { bad: -999 }, MixedOp::UdfFilter(4)];
    let builtin = [MixedOp::Filter(-4), MixedOp::Project(3)];
    let mixed = [MixedOp::Filter(-4), MixedOp::Project(3), MixedOp::UdfProject { bad: -999 }];

    let c = ctx();
    let d = build_mixed(&c, 61, &udf);
    assert!(!d.fused_pipeline());
    assert!(!d.collect_rows().unwrap().is_empty());
    assert_eq!(batches(&c), vec![], "a UDF operator ran on a batch");

    let c = ctx();
    let d = build_mixed(&c, 61, &builtin);
    assert!(d.fused_pipeline());
    let survivors = d.collect_rows().unwrap().len() as u64;
    let events = batches(&c);
    assert!(!events.is_empty() && events.iter().all(|&(ops, _)| ops == 2), "{events:?}");
    assert_eq!(events.iter().map(|&(_, r)| r).sum::<u64>(), survivors);

    let c = ctx();
    let d = build_mixed(&c, 61, &mixed);
    assert!(d.fused_pipeline());
    assert_eq!(d.collect_rows().unwrap().len() as u64, survivors);
    let events = batches(&c);
    assert!(!events.is_empty() && events.iter().all(|&(ops, _)| ops == 2), "{events:?}");
    assert_eq!(events.iter().map(|&(_, r)| r).sum::<u64>(), survivors);

    // Row-major vectorizes nothing.
    let row_major = SparkliteContext::new(SparkliteConf::default().with_row_major(true));
    assert!(!build_mixed(&row_major, 61, &builtin).fused_pipeline());
}
