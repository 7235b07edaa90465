//! Cache suite for the persist/cache layer: golden tests for hit/miss
//! accounting, LRU eviction fallback, unpersist visibility, and the
//! serialized storage level, plus property tests that persisted pipelines
//! are byte-identical to unpersisted ones — at every storage level, byte
//! budget (including eviction-forcing ones), and under up-to-20% chaos.

use proptest::prelude::*;
use sparklite::{CacheCodec, FaultPlan, SparkliteConf, SparkliteContext, StorageLevel};
use std::sync::Arc;

fn ctx_with_budget(budget: usize) -> SparkliteContext {
    SparkliteContext::new(
        SparkliteConf::default().with_executors(3).with_cache_budget_bytes(budget),
    )
}

/// A fixed-width little-endian codec for `i64`, exercising the serialized
/// storage path without dragging a real serialization format into the test.
struct I64Codec;

impl CacheCodec<i64> for I64Codec {
    fn encode(&self, items: &[i64]) -> Vec<u8> {
        let mut out = Vec::with_capacity(items.len() * 8);
        for v in items {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    fn decode(&self, bytes: &[u8]) -> Result<Vec<i64>, String> {
        if !bytes.len().is_multiple_of(8) {
            return Err(format!("truncated i64 block: {} bytes", bytes.len()));
        }
        Ok(bytes.chunks_exact(8).map(|c| i64::from_le_bytes(c.try_into().unwrap())).collect())
    }
}

// ---------------------------------------------------------------------------
// Golden behaviours
// ---------------------------------------------------------------------------

#[test]
fn persist_serves_the_second_pass_from_cache() {
    let sc = ctx_with_budget(1 << 20);
    let persisted = sc
        .parallelize((0..1_000i64).collect::<Vec<_>>(), 4)
        .map(|x| x * 3)
        .persist(StorageLevel::MemoryDeserialized);
    let first = persisted.collect().unwrap();
    let after_cold = sc.metrics();
    assert_eq!(after_cold.cache_misses, 4, "every partition misses once");
    assert_eq!(after_cold.cache_hits, 0);
    assert!(after_cold.cached_bytes > 0, "partitions were stored");

    let second = persisted.collect().unwrap();
    assert_eq!(second, first);
    let after_warm = sc.metrics();
    assert_eq!(after_warm.cache_hits, 4, "every partition hits on the warm pass");
    assert_eq!(after_warm.cache_misses, 4, "no new misses");
}

#[test]
fn serialized_level_roundtrips_through_the_codec() {
    let sc = ctx_with_budget(1 << 20);
    let data: Vec<i64> = (0..500).map(|i| i * 17 - 250).collect();
    let persisted = sc
        .parallelize(data.clone(), 3)
        .persist_with_codec(StorageLevel::MemorySerialized, Arc::new(I64Codec));
    assert_eq!(persisted.collect().unwrap(), data);
    let m = sc.metrics();
    assert_eq!(m.cached_bytes, 500 * 8, "byte accounting reflects encoded size");
    assert_eq!(persisted.collect().unwrap(), data, "decode path returns identical items");
    assert_eq!(sc.metrics().cache_hits, 3);
}

#[test]
fn tiny_budget_evicts_and_falls_back_to_lineage() {
    // Budget fits roughly one of the four partitions, so a full pass keeps
    // evicting earlier entries; answers must still be exact.
    let data: Vec<i64> = (0..1_000).collect();
    let sc = ctx_with_budget(300 * 8);
    let persisted = sc.parallelize(data.clone(), 4).persist(StorageLevel::MemoryDeserialized);
    assert_eq!(persisted.collect().unwrap(), data);
    assert_eq!(persisted.collect().unwrap(), data);
    let m = sc.metrics();
    assert!(m.cache_evictions > 0, "budget pressure must evict");
    assert!(
        m.cached_bytes <= 300 * 8,
        "cache stays within budget (cached {} bytes)",
        m.cached_bytes
    );
}

#[test]
fn zero_budget_disables_caching() {
    let sc = ctx_with_budget(0);
    let persisted = sc
        .parallelize((0..100i64).collect::<Vec<_>>(), 4)
        .persist(StorageLevel::MemoryDeserialized);
    assert_eq!(persisted.count().unwrap(), 100);
    assert_eq!(persisted.count().unwrap(), 100);
    let m = sc.metrics();
    assert_eq!(m.cache_hits, 0, "nothing is ever stored at budget 0");
    assert_eq!(m.cached_bytes, 0);
}

#[test]
fn unpersist_never_serves_stale_partitions() {
    // Persist a file-backed RDD, rewrite the file, unpersist: the next read
    // must see the new bytes, not the cached ones.
    let sc = ctx_with_budget(1 << 20);
    let v1: String = (0..200).map(|i| format!("old {i}\n")).collect();
    let v2: String = (0..200).map(|i| format!("new {i}\n")).collect();
    sc.hdfs().put_text("/cache/t.txt", &v1).unwrap();
    let persisted =
        sc.text_file("hdfs:///cache/t.txt").unwrap().persist(StorageLevel::MemoryDeserialized);
    let old = persisted.collect().unwrap();
    assert_eq!(old[0].as_ref(), "old 0");

    sc.hdfs().delete("/cache/t.txt");
    sc.hdfs().put_text("/cache/t.txt", &v2).unwrap();
    // Still cached: the overwrite is invisible until unpersist.
    assert_eq!(persisted.collect().unwrap()[0].as_ref(), "old 0");

    persisted.unpersist();
    assert_eq!(sc.cache().cached_partitions(), 0, "unpersist drops every slot");
    assert_eq!(sc.metrics().cached_bytes, 0);
    let fresh = persisted.collect().unwrap();
    assert_eq!(fresh[0].as_ref(), "new 0", "post-unpersist read recomputes from source");
}

#[test]
fn cache_faults_fall_back_to_recomputation() {
    // 100% cache-fault probability: every cached read is injected as lost,
    // so the warm pass recomputes — and still answers identically.
    let plan = FaultPlan::default().with_storage_faults(1.0).with_seed(3);
    let sc = SparkliteContext::new(
        SparkliteConf::default()
            .with_executors(3)
            .with_faults(plan)
            .with_cache_budget_bytes(1 << 20),
    );
    let data: Vec<i64> = (0..300).collect();
    // parallelize holds data in memory, so storage faults only fire on the
    // cached-read path here.
    let persisted = sc.parallelize(data.clone(), 4).persist(StorageLevel::MemoryDeserialized);
    assert_eq!(persisted.collect().unwrap(), data);
    assert_eq!(persisted.collect().unwrap(), data);
    let m = sc.metrics();
    assert!(m.injected_faults > 0, "cache faults were injected");
    assert_eq!(m.cache_hits, 0, "every injected read bypassed the cache");
}

#[test]
fn persist_does_not_change_shuffle_traffic() {
    // The satellite perf fix: persisting must not inflate shuffle byte
    // accounting, and the merge-path key-clone reduction must not change
    // what the metrics report.
    let pairs: Vec<(u8, i64)> = (0..2_000).map(|i| ((i % 11) as u8, i as i64)).collect();
    let run = |persist: bool| {
        let sc = ctx_with_budget(1 << 20);
        let rdd = sc.parallelize(pairs.clone(), 5);
        let rdd = if persist { rdd.persist(StorageLevel::MemoryDeserialized) } else { rdd };
        let mut out = rdd.reduce_by_key(|a, b| a + b, 4).collect().unwrap();
        out.sort();
        let m = sc.metrics();
        (out, m.shuffle_bytes, m.shuffle_records)
    };
    let (plain, plain_bytes, plain_records) = run(false);
    let (cached, cached_bytes, cached_records) = run(true);
    assert_eq!(cached, plain);
    assert_eq!(cached_bytes, plain_bytes, "persist must not regress shuffle bytes");
    assert_eq!(cached_records, plain_records);
}

// ---------------------------------------------------------------------------
// Property tests: persist never changes answers
// ---------------------------------------------------------------------------

/// Budgets to draw from: disabled, eviction-forcing, comfortable.
fn budget_strategy() -> impl Strategy<Value = usize> {
    prop_oneof![Just(0usize), 64usize..2_048, Just(1usize << 20)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random pipelines with a random persist point, storage level, byte
    /// budget, and up-to-20% chaos answer byte-identically to the same
    /// pipeline without persist on a fault-free context.
    #[test]
    fn persisted_pipeline_is_identical_to_unpersisted(
        data in prop::collection::vec(-1_000i64..1_000, 1..300),
        parts in 1usize..7,
        knob in any::<u32>(),
        budget in budget_strategy(),
        seed in any::<u64>(),
    ) {
        // One draw fans out into the three small knobs (the proptest shim
        // caps parameter tuples at six).
        let persist_point = (knob % 3) as usize;
        let serialized = (knob / 3) % 2 == 1;
        let prob_pct = (knob / 6) % 21;
        let level = if serialized {
            StorageLevel::MemorySerialized
        } else {
            StorageLevel::MemoryDeserialized
        };
        let persist = |rdd: sparklite::rdd::Rdd<i64>, at: usize| {
            if persist_point != at {
                rdd
            } else if serialized {
                rdd.persist_with_codec(level, Arc::new(I64Codec))
            } else {
                rdd.persist(level)
            }
        };
        let run = |sc: &SparkliteContext, persisted: bool| {
            let stage0 = sc.parallelize(data.clone(), parts);
            let stage0 = if persisted { persist(stage0, 0) } else { stage0 };
            let stage1 = stage0.map(|x| x.wrapping_mul(7).wrapping_sub(3));
            let stage1 = if persisted { persist(stage1, 1) } else { stage1 };
            let stage2 = stage1.filter(|x| x % 5 != 0);
            let stage2 = if persisted { persist(stage2, 2) } else { stage2 };
            // Two passes over the persisted handle: the second exercises
            // hits, evictions, or chaos fallback depending on the draw.
            let once = stage2.collect().unwrap();
            let twice = stage2.collect().unwrap();
            prop_assert_eq!(&twice, &once, "warm pass diverged from cold pass");
            Ok(once)
        };
        let baseline = {
            let sc = SparkliteContext::new(SparkliteConf::default().with_executors(3));
            run(&sc, false)?
        };
        let sc = SparkliteContext::new(
            SparkliteConf::default()
                .with_executors(3)
                .with_cache_budget_bytes(budget)
                .with_faults(FaultPlan::chaos(seed, f64::from(prob_pct) / 100.0)),
        );
        let persisted = run(&sc, true)?;
        prop_assert_eq!(persisted, baseline, "persist changed the answer");
    }

    /// After `unpersist()` a rewritten source is always visible — no stale
    /// partition survives, at any storage level or budget.
    #[test]
    fn unpersist_is_always_visible(
        rows in 10usize..120,
        budget in budget_strategy(),
        seed in any::<u64>(),
    ) {
        let sc = ctx_with_budget(budget);
        let path = format!("/prop/{seed}.txt");
        let url = format!("hdfs://{path}");
        let v1: String = (0..rows).map(|i| format!("a{i}\n")).collect();
        let v2: String = (0..rows).map(|i| format!("b{i}\n")).collect();
        sc.hdfs().put_text(&path, &v1).unwrap();
        let persisted =
            sc.text_file(&url).unwrap().persist(StorageLevel::MemoryDeserialized);
        let old = persisted.collect().unwrap();
        prop_assert_eq!(old.len(), rows);
        sc.hdfs().delete(&path);
        sc.hdfs().put_text(&path, &v2).unwrap();
        persisted.unpersist();
        let fresh = persisted.collect().unwrap();
        for (i, line) in fresh.iter().enumerate() {
            let want = format!("b{i}");
            prop_assert_eq!(line.as_ref(), want.as_str());
        }
    }
}
