//! The storage/caching subsystem: partition-granular persist with a
//! budgeted memory manager (paper §4.10/§5.6 — Rumble leans on Spark's
//! storage layer whenever a sequence is consumed more than once).
//!
//! [`Rdd::persist`](crate::rdd::Rdd::persist) wraps an operator in a
//! `CachedRdd`: the first task to compute a partition stores it in the
//! [`CacheManager`] owned by the driver [`Core`] — populated *inside*
//! `compute`, executor-side, with no driver round-trip — and every later
//! computation of that partition serves from memory. Storage is bounded by
//! a configurable byte budget with LRU eviction; an evicted (or
//! chaos-injected, see `FaultInjector::on_cached_read`) cached read
//! silently falls back to recomputing the partition from its lineage, so a
//! persisted run is byte-identical to an unpersisted one under any budget
//! and any fault plan — the PR-2 determinism-under-retry contract extended
//! to the storage layer.
//!
//! Two storage levels mirror Spark's `MEMORY_ONLY` /` MEMORY_ONLY_SER`:
//! deserialized (cheap reads, estimated byte accounting) and serialized
//! through a caller-supplied [`CacheCodec`] (real byte accounting; the
//! rumble-core engine plugs in its item codec here).

use crate::context::Core;
use crate::error::Result;
use crate::events::{Event, EventBus};
use crate::executor::TaskContext;
use crate::rdd::util::ArcRangeIter;
use crate::rdd::{BoxIter, Preparable, RddOp};
use crate::Data;
use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, PoisonError};

/// Where and how a persisted RDD's partitions are stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorageLevel {
    /// Partitions are kept as live values (Spark's `MEMORY_ONLY`): no
    /// encode/decode cost on either side, byte accounting is a
    /// `size_of`-based estimate.
    MemoryDeserialized,
    /// Partitions are kept as encoded bytes (Spark's `MEMORY_ONLY_SER`):
    /// reads pay a decode, but the byte budget accounts for the real
    /// serialized size. Requires a [`CacheCodec`]; persisting at this level
    /// without one falls back to deserialized storage.
    MemorySerialized,
}

/// Encodes/decodes a partition for [`StorageLevel::MemorySerialized`].
///
/// sparklite cannot depend on any particular item model, so the element
/// codec is injected by the caller (rumble-core passes its tag+varint item
/// codec; DataFrames use a built-in row codec). Decoding returns an error
/// string rather than panicking: a failed decode is treated as a cache miss
/// and the partition is recomputed from lineage.
pub trait CacheCodec<T>: Send + Sync {
    fn encode(&self, items: &[T]) -> Vec<u8>;
    fn decode(&self, bytes: &[u8]) -> std::result::Result<Vec<T>, String>;
}

/// One cached partition. Type-erased so a single manager can hold
/// partitions of heterogeneous RDDs.
#[derive(Clone)]
enum Block {
    /// Deserialized storage: an `Arc<Vec<T>>` behind `dyn Any`.
    Items(Arc<dyn Any + Send + Sync>),
    /// Serialized storage: codec-encoded bytes.
    Bytes(Arc<Vec<u8>>),
}

struct Slot {
    block: Block,
    bytes: usize,
    /// Logical clock of the most recent touch; smallest = LRU victim.
    last_used: u64,
}

struct CacheInner {
    slots: HashMap<(u64, usize), Slot>,
    total_bytes: usize,
    tick: u64,
}

/// The driver-owned block manager: per-`(rdd_id, partition)` slots under a
/// byte budget with LRU eviction. All methods are executor-safe (internally
/// locked) — tasks populate and read slots directly.
pub struct CacheManager {
    inner: Mutex<CacheInner>,
    budget_bytes: usize,
    events: Arc<EventBus>,
    next_id: std::sync::atomic::AtomicU64,
}

impl CacheManager {
    pub(crate) fn new(budget_bytes: usize, events: Arc<EventBus>) -> Self {
        CacheManager {
            inner: Mutex::new(CacheInner { slots: HashMap::new(), total_bytes: 0, tick: 0 }),
            budget_bytes,
            events,
            next_id: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Hands out the unique id a `persist` call keys its slots under.
    /// Driver-side persist order is deterministic for a fixed program, so
    /// chaos decisions keyed on the id replay identically.
    pub(crate) fn next_rdd_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up a cached partition, bumping its LRU clock. Emits the hit or
    /// miss as a [`Event::CacheRead`] (which derives the global counters).
    fn lookup(&self, id: u64, split: usize) -> Option<Block> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let block = inner.slots.get_mut(&(id, split)).map(|slot| {
            slot.last_used = tick;
            slot.block.clone()
        });
        self.events.emit(Event::CacheRead { rdd: id, split: split as u64, hit: block.is_some() });
        block
    }

    /// Records a miss without probing (used when an injected fault forces
    /// the fallback path).
    fn note_miss(&self, id: u64, split: usize) {
        self.events.emit(Event::CacheRead { rdd: id, split: split as u64, hit: false });
    }

    /// Stores a partition, then evicts least-recently-used slots until the
    /// cache fits the budget again. A block bigger than the whole budget is
    /// not stored at all (it could only evict everything and then itself).
    fn insert(&self, id: u64, split: usize, block: Block, bytes: usize) {
        if bytes > self.budget_bytes {
            return;
        }
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(old) = inner.slots.insert((id, split), Slot { block, bytes, last_used: tick }) {
            inner.total_bytes -= old.bytes;
        }
        inner.total_bytes += bytes;
        self.events.emit(Event::CachePut {
            rdd: id,
            split: split as u64,
            bytes: bytes as u64,
            total_bytes: inner.total_bytes as u64,
        });
        while inner.total_bytes > self.budget_bytes {
            let victim = inner
                .slots
                .iter()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(k, _)| *k)
                .expect("over budget implies at least one slot");
            let evicted = inner.slots.remove(&victim).expect("victim exists");
            inner.total_bytes -= evicted.bytes;
            self.events.emit(Event::CacheEvict {
                rdd: victim.0,
                split: victim.1 as u64,
                bytes: evicted.bytes as u64,
                total_bytes: inner.total_bytes as u64,
            });
        }
    }

    /// Drops one slot (a poisoned or undecodable block).
    fn invalidate(&self, id: u64, split: usize) {
        let mut inner = self.lock();
        if let Some(slot) = inner.slots.remove(&(id, split)) {
            inner.total_bytes -= slot.bytes;
            self.events.emit(Event::CacheRelease {
                rdd: id,
                splits: 1,
                total_bytes: inner.total_bytes as u64,
            });
        }
    }

    /// Drops every slot of one persisted RDD. Later reads through the same
    /// handle recompute from lineage (and re-populate).
    pub(crate) fn unpersist(&self, id: u64) {
        let mut inner = self.lock();
        let keys: Vec<(u64, usize)> =
            inner.slots.keys().filter(|(rid, _)| *rid == id).copied().collect();
        let released = keys.len() as u64;
        for k in keys {
            let slot = inner.slots.remove(&k).expect("key listed above");
            inner.total_bytes -= slot.bytes;
        }
        self.events.emit(Event::CacheRelease {
            rdd: id,
            splits: released,
            total_bytes: inner.total_bytes as u64,
        });
    }

    /// Bytes currently cached (the `cached_bytes` gauge, read directly).
    pub fn cached_bytes(&self) -> usize {
        self.lock().total_bytes
    }

    /// Number of cached partitions.
    pub fn cached_partitions(&self) -> usize {
        self.lock().slots.len()
    }
}

/// The persist operator: a narrow wrapper that serves its parent's
/// partitions from the [`CacheManager`], populating lazily on first
/// computation.
pub(crate) struct CachedRdd<T: Data> {
    core: Arc<Core>,
    parent: Arc<dyn RddOp<T>>,
    id: u64,
    level: StorageLevel,
    codec: Option<Arc<dyn CacheCodec<T>>>,
}

impl<T: Data> CachedRdd<T> {
    pub(crate) fn new(
        core: Arc<Core>,
        parent: Arc<dyn RddOp<T>>,
        level: StorageLevel,
        codec: Option<Arc<dyn CacheCodec<T>>>,
    ) -> Self {
        let id = core.cache.next_rdd_id();
        // Serialized storage without a codec degrades to deserialized — the
        // documented fallback of `Rdd::persist`.
        let level = match (level, &codec) {
            (StorageLevel::MemorySerialized, None) => StorageLevel::MemoryDeserialized,
            (level, _) => level,
        };
        CachedRdd { core, parent, id, level, codec }
    }

    /// The cache key this operator's slots live under.
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// Serves a cached block, or `None` if it cannot be decoded (treated as
    /// a miss upstream).
    fn serve(&self, block: Block) -> Option<BoxIter<T>> {
        match block {
            Block::Items(any) => {
                let data = Arc::downcast::<Vec<T>>(any).ok()?;
                let end = data.len();
                Some(Box::new(ArcRangeIter { data, i: 0, end }))
            }
            Block::Bytes(bytes) => {
                let codec = self.codec.as_ref()?;
                let items = codec.decode(&bytes).ok()?;
                Some(Box::new(items.into_iter()))
            }
        }
    }
}

impl<T: Data> Drop for CachedRdd<T> {
    /// Cached partitions are only reachable through this operator, so when
    /// the last handle drops they are freed rather than lingering until
    /// LRU eviction — per-run scaffolding caches (e.g. the order-by
    /// multi-pass cache in rumble-core) clean themselves up this way.
    fn drop(&mut self) {
        self.core.cache.unpersist(self.id);
    }
}

impl<T: Data> Preparable for CachedRdd<T> {
    fn prepare(&self) -> Result<()> {
        self.parent.prepare()
    }
}

impl<T: Data> RddOp<T> for CachedRdd<T> {
    fn num_partitions(&self) -> usize {
        self.parent.num_partitions()
    }

    fn compute(&self, split: usize, tc: &TaskContext) -> BoxIter<T> {
        let cache = &self.core.cache;
        // Chaos hook, wired like SimHdfs block reads: an injected cached-
        // read fault drops the slot and takes the lineage-recomputation
        // path. Unlike a storage fault it does not panic — falling back is
        // the recovery, so no retry budget is spent.
        if tc.injector.on_cached_read(self.id, split, tc) {
            cache.invalidate(self.id, split);
            cache.note_miss(self.id, split);
            tc.task_metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
        } else {
            match cache.lookup(self.id, split) {
                Some(block) => {
                    tc.task_metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
                    match self.serve(block) {
                        Some(iter) => return iter,
                        None => cache.invalidate(self.id, split),
                    }
                }
                None => {
                    tc.task_metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        // Miss (cold, evicted, invalidated, or fault-injected): recompute
        // the partition from lineage and re-populate.
        let items: Vec<T> = self.parent.compute(split, tc).collect();
        match (self.level, &self.codec) {
            (StorageLevel::MemorySerialized, Some(codec)) => {
                let bytes = codec.encode(&items);
                let size = bytes.len();
                cache.insert(self.id, split, Block::Bytes(Arc::new(bytes)), size);
                Box::new(items.into_iter())
            }
            _ => {
                let data = Arc::new(items);
                let size = deserialized_size_estimate::<T>(data.len());
                cache.insert(
                    self.id,
                    split,
                    Block::Items(Arc::clone(&data) as Arc<dyn Any + Send + Sync>),
                    size,
                );
                let end = data.len();
                Box::new(ArcRangeIter { data, i: 0, end })
            }
        }
    }
}

/// Byte estimate for deserialized storage: shallow element size. Serialized
/// storage exists precisely because this undercounts pointer-heavy types.
fn deserialized_size_estimate<T>(len: usize) -> usize {
    len * std::mem::size_of::<T>().max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manager(budget: usize) -> (CacheManager, Arc<crate::executor::Metrics>) {
        let metrics = Arc::new(crate::executor::Metrics::default());
        let events = Arc::new(EventBus::new(Arc::clone(&metrics)));
        (CacheManager::new(budget, events), metrics)
    }

    fn items_block(v: Vec<i64>) -> (Block, usize) {
        let bytes = deserialized_size_estimate::<i64>(v.len());
        (Block::Items(Arc::new(v) as Arc<dyn Any + Send + Sync>), bytes)
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        // Budget fits exactly three 8-byte blocks.
        let (m, metrics) = manager(24);
        for split in 0..3 {
            let (b, n) = items_block(vec![split as i64]);
            m.insert(7, split, b, n);
        }
        assert_eq!(m.cached_partitions(), 3);
        // Touch 0, then 2; slot 1 is now least recently used.
        assert!(m.lookup(7, 0).is_some());
        assert!(m.lookup(7, 2).is_some());
        let (b, n) = items_block(vec![3]);
        m.insert(7, 3, b, n);
        assert_eq!(m.cached_partitions(), 3);
        assert!(m.lookup(7, 1).is_none(), "LRU victim must be the untouched slot");
        assert!(m.lookup(7, 0).is_some());
        assert!(m.lookup(7, 2).is_some());
        assert!(m.lookup(7, 3).is_some());
        let snap = metrics.snapshot();
        assert_eq!(snap.cache_evictions, 1);
        assert_eq!(snap.cached_bytes, 24);
    }

    #[test]
    fn oversized_blocks_are_not_stored() {
        let (m, metrics) = manager(16);
        let (b, n) = items_block(vec![1, 2, 3]); // 24 bytes > budget
        m.insert(0, 0, b, n);
        assert_eq!(m.cached_partitions(), 0);
        assert_eq!(metrics.snapshot().cache_evictions, 0);
    }

    #[test]
    fn unpersist_clears_only_that_rdd() {
        let (m, _) = manager(1024);
        for id in [1u64, 2] {
            for split in 0..2 {
                let (b, n) = items_block(vec![0]);
                m.insert(id, split, b, n);
            }
        }
        m.unpersist(1);
        assert_eq!(m.cached_partitions(), 2);
        assert!(m.lookup(1, 0).is_none());
        assert!(m.lookup(2, 0).is_some());
        assert_eq!(m.cached_bytes(), 16);
    }

    #[test]
    fn reinsert_replaces_and_accounts_once() {
        let (m, _) = manager(1024);
        let (b, n) = items_block(vec![1, 2]);
        m.insert(0, 0, b, n);
        let (b, n) = items_block(vec![1, 2, 3]);
        m.insert(0, 0, b, n);
        assert_eq!(m.cached_partitions(), 1);
        assert_eq!(m.cached_bytes(), 24);
    }
}
