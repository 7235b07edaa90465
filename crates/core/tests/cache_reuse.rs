//! Engine-level tests for automatic source reuse: literal-path sources are
//! persisted in sparklite's partition cache, warm runs serve cached
//! partitions, and results are byte-identical with auto-persist on (at
//! either storage level), off, and under injected chaos.

use rumble_core::Rumble;
use sparklite::{FaultPlan, SparkliteConf, SparkliteContext, StorageLevel};

fn engine(plan: FaultPlan) -> Rumble {
    Rumble::new(SparkliteContext::new(
        SparkliteConf::default().with_executors(3).with_block_size(2048).with_faults(plan),
    ))
}

fn dataset(rows: usize) -> String {
    let mut lines = String::new();
    for i in 0..rows {
        lines.push_str(&format!("{{\"k\": {}, \"v\": {}}}\n", i % 9, (i * 7919) % 997));
    }
    lines
}

const QUERY: &str = r#"for $r in json-file("hdfs:///reuse.json")
    where $r.v ge 300 order by $r.v, $r.k return [$r.k, $r.v]"#;

fn run_serialized(r: &Rumble, q: &str) -> Vec<String> {
    r.run(q).unwrap().iter().map(|i| i.serialize()).collect()
}

#[test]
fn warm_runs_reuse_cached_source_partitions() {
    let r = engine(FaultPlan::default());
    r.hdfs_put("/reuse.json", &dataset(600)).unwrap();
    let prepared = r.compile(QUERY).unwrap();
    let cold: Vec<String> = prepared.collect().unwrap().iter().map(|i| i.serialize()).collect();
    let after_cold = r.sparklite().metrics();
    assert!(after_cold.cache_misses > 0, "cold run populated the source cache");
    assert!(after_cold.cached_bytes > 0);

    let warm: Vec<String> = prepared.collect().unwrap().iter().map(|i| i.serialize()).collect();
    assert_eq!(warm, cold);
    let after_warm = r.sparklite().metrics();
    assert!(after_warm.cache_hits > after_cold.cache_hits, "warm run served cached partitions");
    assert_eq!(
        after_warm.input_bytes, after_cold.input_bytes,
        "warm run re-read nothing from storage (no JSON re-parse)"
    );
}

#[test]
fn recompiled_queries_share_the_same_source_cache() {
    // The memo lives per engine, not per prepared query: a second compile
    // of a query over the same literal path still hits the cached source.
    let r = engine(FaultPlan::default());
    r.hdfs_put("/reuse.json", &dataset(400)).unwrap();
    let first = run_serialized(&r, QUERY);
    let input_bytes = r.sparklite().metrics().input_bytes;
    let second = run_serialized(&r, QUERY);
    assert_eq!(second, first);
    let m = r.sparklite().metrics();
    assert!(m.cache_hits > 0);
    assert_eq!(m.input_bytes, input_bytes, "second compile reused the persisted source");
}

#[test]
fn auto_persist_levels_answer_identically_even_under_chaos() {
    let data = dataset(500);
    let mut outputs = Vec::new();
    for chaos in [false, true] {
        let plan = if chaos { FaultPlan::chaos(0xCAFE, 0.2) } else { FaultPlan::default() };
        for level in
            [None, Some(StorageLevel::MemoryDeserialized), Some(StorageLevel::MemorySerialized)]
        {
            let r = engine(plan.clone());
            r.hdfs_put("/reuse.json", &data).unwrap();
            r.set_auto_persist(level);
            let prepared = r.compile(QUERY).unwrap();
            // Two runs: the second exercises the cached path where enabled.
            let cold: Vec<String> =
                prepared.collect().unwrap().iter().map(|i| i.serialize()).collect();
            let between = r.sparklite().metrics().input_bytes;
            let warm: Vec<String> =
                prepared.collect().unwrap().iter().map(|i| i.serialize()).collect();
            assert_eq!(warm, cold, "warm diverged (chaos={chaos}, level={level:?})");
            let after = r.sparklite().metrics().input_bytes;
            if level.is_some() && !chaos {
                assert_eq!(after, between, "warm run must not re-read storage ({level:?})");
            } else if level.is_none() {
                assert!(after > between, "auto-persist off must re-read the source");
            }
            outputs.push(cold);
        }
    }
    for other in &outputs[1..] {
        assert_eq!(other, &outputs[0], "storage level or chaos changed the answer");
    }
}

#[test]
fn avg_over_a_distributed_source_is_exact_and_frees_its_cache() {
    let r = engine(FaultPlan::default());
    r.hdfs_put("/reuse.json", &dataset(300)).unwrap();
    r.set_auto_persist(None); // isolate Avg's own persist
    let out = r.run(r#"avg(for $r in json-file("hdfs:///reuse.json") return $r.v)"#).unwrap();
    let expected: i64 = (0..300).map(|i| ((i * 7919) % 997) as i64).sum();
    let got = out[0].as_f64().unwrap();
    assert!((got - expected as f64 / 300.0).abs() < 1e-9, "avg mismatch: {got}");
    let m = r.sparklite().metrics();
    assert!(m.cache_misses > 0, "avg persisted its input");
    assert_eq!(m.cached_bytes, 0, "avg unpersisted after use");
}

#[test]
fn a_count_fills_the_cache_a_later_query_reads() {
    // The count reads a scan of `v` alone when nothing is persisted; with
    // auto-persist on it fills the one cache of full items, which the
    // later query, reading `k` as well, is served from.
    let r = engine(FaultPlan::default());
    r.hdfs_put("/reuse.json", &dataset(500)).unwrap();
    let count =
        r.compile(r#"for $r in json-file("hdfs:///reuse.json") where $r.v ge 300 return $r"#);
    let n = count.unwrap().count().unwrap();
    let parsed = r.sparklite().metrics().input_records;
    assert_eq!(parsed, 500, "the count parsed the file once");
    assert_eq!(run_serialized(&r, QUERY).len() as u64, n);
    let m = r.sparklite().metrics();
    assert_eq!(m.input_records, parsed, "the collect parsed nothing");
    assert!(m.cache_hits > 0, "the collect read the cached items");
}
