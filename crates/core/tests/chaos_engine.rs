//! Engine-level chaos tests: the paper's Fig. 11 query shapes (filter,
//! group, sort) must return identical results under injected faults, and
//! JSONiq error semantics must survive the recovery layer (deterministic
//! application errors keep their code and are never retried; exhausted
//! retry budgets surface as a distinct cluster error).

use proptest::prelude::*;
use rumble_core::Rumble;
use sparklite::{FaultPlan, SparkliteConf, SparkliteContext};

fn engine(plan: FaultPlan) -> Rumble {
    // A small block size splits even these small datasets into many input
    // partitions, so shuffles register many map outputs and chaos gets real
    // scheduling decisions to make.
    Rumble::new(SparkliteContext::new(
        SparkliteConf::default().with_executors(3).with_block_size(2048).with_faults(plan),
    ))
}

/// Messy rows in the confusion-dataset spirit: `extra` is sometimes absent.
fn dataset(rows: usize) -> String {
    let mut lines = String::new();
    for i in 0..rows {
        let k = i % 9;
        let v = (i * 7919) % 997;
        if i % 3 == 0 {
            lines.push_str(&format!("{{\"k\": {k}, \"v\": {v}, \"extra\": true}}\n"));
        } else {
            lines.push_str(&format!("{{\"k\": {k}, \"v\": {v}}}\n"));
        }
    }
    lines
}

/// The three Fig. 11 query shapes, each with a deterministic output order.
const FIG11_QUERIES: [&str; 3] = [
    // filter
    r#"for $r in json-file("hdfs:///chaos.json") where $r.v ge 500 order by $r.v, $r.k return [$r.k, $r.v]"#,
    // group
    r#"for $r in json-file("hdfs:///chaos.json")
       group by $k := $r.k
       order by $k
       return [$k, count($r), count(for $x in $r where $x.extra return $x)]"#,
    // sort
    r#"for $r in json-file("hdfs:///chaos.json")
       order by $r.v descending, $r.k
       count $c
       return [$c, $r.k, $r.v]"#,
];

fn run_all(r: &Rumble) -> Vec<Vec<String>> {
    FIG11_QUERIES
        .iter()
        .map(|q| {
            let prepared = r.compile(q).unwrap();
            assert!(prepared.is_distributed().unwrap(), "Fig. 11 queries run on the cluster");
            prepared.collect().unwrap().iter().map(|i| i.serialize()).collect()
        })
        .collect()
}

#[test]
fn fig11_queries_survive_20pct_chaos_identically() {
    // The PR's acceptance criterion: fixed-seed 20% fault probability on
    // every fault kind; all three queries succeed with results identical to
    // the fault-free run, and the metrics prove recovery actually ran.
    let text = dataset(1_200);

    let clean = engine(FaultPlan::default());
    clean.hdfs_put("/chaos.json", &text).unwrap();
    let expected = run_all(&clean);
    assert_eq!(clean.sparklite().metrics().failed_tasks, 0);

    let chaotic = engine(FaultPlan::chaos(0xC4A0, 0.2));
    chaotic.hdfs_put("/chaos.json", &text).unwrap();
    let got = run_all(&chaotic);
    assert_eq!(got, expected, "chaos changed query results");

    let m = chaotic.sparklite().metrics();
    assert!(m.retried_tasks > 0, "20% chaos must retry tasks, got {m:?}");
    assert!(m.recomputed_tasks > 0, "20% chaos must recompute lost shuffle outputs, got {m:?}");
}

#[test]
fn jsoniq_error_codes_survive_the_cluster() {
    // A deterministic JSONiq error raised inside a distributed task keeps
    // its spec code (not the generic cluster code) and is not retried —
    // even with chaos armed.
    let r = engine(FaultPlan::chaos(3, 0.1));
    r.hdfs_put("/chaos.json", &dataset(50)).unwrap();
    let err = r.run(r#"for $r in json-file("hdfs:///chaos.json") return $r.v div 0"#).unwrap_err();
    assert_eq!(err.code, "FOAR0001", "got {err}");
    let m = r.sparklite().metrics();
    assert_eq!(
        m.failed_tasks - m.retried_tasks,
        1,
        "the app error failed exactly one attempt beyond injected retries: {m:?}"
    );
}

#[test]
fn retry_exhaustion_surfaces_typed_cluster_error() {
    let plan = FaultPlan::default()
        .with_task_failures(1.0)
        .with_max_injected_per_task(u32::MAX)
        .with_max_task_failures(2);
    let r = engine(plan);
    r.hdfs_put("/chaos.json", &dataset(20)).unwrap();
    let err = r.run(r#"count(json-file("hdfs:///chaos.json"))"#).unwrap_err();
    assert_eq!(err.code, "RBML0004", "got {err}");
    assert!(err.message.contains("after 2 attempts"), "got {err}");
}

proptest! {
    // Cluster runs are slower; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random messy datasets and seeds: a chaotic run of every Fig. 11
    /// query shape is byte-identical to the fault-free run (each query has
    /// an explicit order by, so output order is well-defined).
    #[test]
    fn random_pipelines_are_chaos_invariant(
        rows in prop::collection::vec((0u8..7, -40i64..40, any::<bool>()), 1..80),
        seed in any::<u64>(),
    ) {
        let mut lines = String::new();
        for (k, v, flag) in &rows {
            if *flag {
                lines.push_str(&format!("{{\"k\": {k}, \"v\": {v}, \"extra\": true}}\n"));
            } else {
                lines.push_str(&format!("{{\"k\": {k}, \"v\": {v}}}\n"));
            }
        }
        let clean = engine(FaultPlan::default());
        clean.hdfs_put("/chaos.json", &lines).unwrap();
        let chaotic = engine(FaultPlan::chaos(seed, 0.2));
        chaotic.hdfs_put("/chaos.json", &lines).unwrap();
        for q in FIG11_QUERIES {
            let a: Vec<String> =
                clean.run(q).unwrap().iter().map(|i| i.serialize()).collect();
            let b: Vec<String> =
                chaotic.run(q).unwrap().iter().map(|i| i.serialize()).collect();
            prop_assert_eq!(a, b, "divergence under seed {} on {}", seed, q);
        }
    }
}

/// `write_json_lines` writes in one job, and the count it returns is
/// summed from the tasks' own results: under 20% chaos a retried task's
/// lines are counted once.
#[test]
fn a_json_lines_write_is_one_job_that_counts_each_line_once() {
    let q = r#"for $r in json-file("hdfs:///chaos.json")
               let $w := $r.v * 2
               where $r.v ge 300
               return { "k": $r.k, "w": $w }"#;
    let text = dataset(1_200);
    let expected = {
        let clean = engine(FaultPlan::default());
        clean.hdfs_put("/chaos.json", &text).unwrap();
        clean.run(q).unwrap().len() as u64
    };
    for (name, plan) in [("clean", FaultPlan::default()), ("chaos", FaultPlan::chaos(0x57A, 0.2))] {
        let r = engine(plan);
        r.hdfs_put("/chaos.json", &text).unwrap();
        let prepared = r.compile(q).unwrap();
        let before = r.sparklite().metrics();
        let n = prepared.write_json_lines("hdfs:///out.json").unwrap();
        let after = r.sparklite().metrics();
        assert_eq!(after.jobs - before.jobs, 1, "{name}: jobs of one write");
        assert_eq!(n, expected, "{name}: lines reported");
        if name == "chaos" {
            let retried = after.retried_tasks - before.retried_tasks;
            assert!(retried > 0, "20% chaos must retry tasks of the write, got {after:?}");
        }
        let back = r.run(r#"count(json-file("hdfs:///out.json"))"#).unwrap();
        assert_eq!(back, vec![rumble_core::item::Item::Integer(expected as i64)], "{name}");
    }
}
