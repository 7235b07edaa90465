//! Resilient-Distributed-Dataset look-alikes: lazy, partitioned, immutable
//! collections transformed by a DAG of operators.
//!
//! An [`Rdd<T>`] handle wraps an `Arc<dyn RddOp<T>>` — the physical operator
//! — plus the driver [`Core`]. Narrow transformations (map, filter,
//! flat_map, …) simply wrap their parent operator and fuse at iterator
//! level, so a `map` over a `filter` over a text file is one pass with no
//! intermediate materialization, exactly like Spark's pipelined narrow
//! stages. Wide transformations (shuffles, sorts) materialize their map
//! side once, driver-scheduled, in [`RddOp::prepare`].
//!
//! Failures *inside* a task (malformed input, storage errors) surface by
//! panicking; the executor pool catches the panic, classifies it into a
//! [`crate::FailureCause`], and either retries it (injected/transient
//! faults, unclassified panics) or fails the job fast (deterministic
//! application errors raised via [`task_bail`]) — the same contract Spark's
//! TaskScheduler gives the driver for executor exceptions.

mod pair;
mod shuffle;
pub mod util;

pub use shuffle::*;

use crate::context::Core;
use crate::error::Result;
use crate::executor::TaskContext;
use crate::storage::{read_local_blocks, resolve_scheme, PathScheme};
use crate::Data;
use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// The iterator type produced by partition computations.
pub type BoxIter<T> = Box<dyn Iterator<Item = T> + Send>;

/// Aborts the current task with a *deterministic application error*; the
/// pool classifies it as [`crate::FailureKind::App`], skips retries (re-
/// running would fail identically) and reports it as
/// [`crate::SparkliteError::TaskFailed`].
pub fn task_bail(msg: impl std::fmt::Display) -> ! {
    std::panic::panic_any(crate::faults::AppAbort(msg.to_string()))
}

/// Driver-side stage preparation. Narrow operators recurse to their
/// parents; wide operators run their map stage (once) here.
pub trait Preparable: Send + Sync {
    fn prepare(&self) -> Result<()>;
}

/// A physical RDD operator.
pub trait RddOp<T: Data>: Preparable + 'static {
    fn num_partitions(&self) -> usize;
    /// Computes one partition. Only called from executor tasks, after
    /// [`Preparable::prepare`] has succeeded on the driver.
    fn compute(&self, split: usize, tc: &TaskContext) -> BoxIter<T>;
}

/// The user-facing RDD handle.
pub struct Rdd<T: Data> {
    core: Arc<Core>,
    op: Arc<dyn RddOp<T>>,
    /// Set on handles returned by [`Rdd::persist`]; the key `unpersist`
    /// clears cache slots under.
    cache_id: Option<u64>,
}

impl<T: Data> Clone for Rdd<T> {
    fn clone(&self) -> Self {
        Rdd { core: Arc::clone(&self.core), op: Arc::clone(&self.op), cache_id: self.cache_id }
    }
}

impl<T: Data> Rdd<T> {
    pub(crate) fn new(core: Arc<Core>, op: Arc<dyn RddOp<T>>) -> Self {
        Rdd { core, op, cache_id: None }
    }

    pub(crate) fn core(&self) -> &Arc<Core> {
        &self.core
    }

    pub(crate) fn op(&self) -> &Arc<dyn RddOp<T>> {
        &self.op
    }

    pub fn num_partitions(&self) -> usize {
        self.op.num_partitions()
    }

    // ---- transformations (lazy) ----

    pub fn map<U: Data>(&self, f: impl Fn(T) -> U + Send + Sync + 'static) -> Rdd<U> {
        let op = MapRdd { parent: Arc::clone(&self.op), f: Arc::new(f) };
        Rdd::new(Arc::clone(&self.core), Arc::new(op))
    }

    pub fn filter(&self, f: impl Fn(&T) -> bool + Send + Sync + 'static) -> Rdd<T> {
        let op = FilterRdd { parent: Arc::clone(&self.op), f: Arc::new(f) };
        Rdd::new(Arc::clone(&self.core), Arc::new(op))
    }

    pub fn flat_map<U: Data, I>(&self, f: impl Fn(T) -> I + Send + Sync + 'static) -> Rdd<U>
    where
        I: IntoIterator<Item = U>,
        I::IntoIter: Send + 'static,
    {
        let g = move |t: T| -> BoxIter<U> { Box::new(f(t).into_iter()) };
        let op = FlatMapRdd { parent: Arc::clone(&self.op), f: Arc::new(g) };
        Rdd::new(Arc::clone(&self.core), Arc::new(op))
    }

    /// Transforms whole partitions; `f` receives the partition index and the
    /// partition iterator (Spark's `mapPartitionsWithIndex`).
    pub fn map_partitions<U: Data>(
        &self,
        f: impl Fn(usize, BoxIter<T>) -> BoxIter<U> + Send + Sync + 'static,
    ) -> Rdd<U> {
        let op = MapPartitionsRdd { parent: Arc::clone(&self.op), f: Arc::new(f) };
        Rdd::new(Arc::clone(&self.core), Arc::new(op))
    }

    /// Concatenates two RDDs; partitions of `other` follow partitions of
    /// `self`.
    pub fn union(&self, other: &Rdd<T>) -> Rdd<T> {
        let op = UnionRdd { left: Arc::clone(&self.op), right: Arc::clone(&other.op) };
        Rdd::new(Arc::clone(&self.core), Arc::new(op))
    }

    /// Bernoulli sampling with a deterministic per-partition stream.
    pub fn sample(&self, fraction: f64, seed: u64) -> Rdd<T> {
        let op =
            SampleRdd { parent: Arc::clone(&self.op), fraction: fraction.clamp(0.0, 1.0), seed };
        Rdd::new(Arc::clone(&self.core), Arc::new(op))
    }

    /// Pairs every element with its global index (Spark's `zipWithIndex`).
    /// Requires one extra pass to count the leading partitions.
    pub fn zip_with_index(&self) -> Rdd<(T, u64)> {
        let op = ZipWithIndexRdd::new(Arc::clone(&self.core), Arc::clone(&self.op));
        Rdd::new(Arc::clone(&self.core), Arc::new(op))
    }

    /// Persists this RDD's partitions in the context's byte-budgeted cache
    /// (Spark's `.persist(StorageLevel)`), returning a handle that serves
    /// repeated reads from memory.
    ///
    /// Population is lazy and distributed: the first task to compute each
    /// partition stores it, executor-side — no driver round trip. Reads of
    /// evicted, fault-injected or never-populated partitions transparently
    /// recompute from lineage, so results are byte-identical to the
    /// unpersisted RDD under any budget and any fault plan.
    ///
    /// [`StorageLevel::MemorySerialized`] needs an element codec; without
    /// one it falls back to deserialized storage — use
    /// [`Rdd::persist_with_codec`] for real serialized byte accounting.
    pub fn persist(&self, level: crate::cache::StorageLevel) -> Rdd<T> {
        self.persist_impl(level, None)
    }

    /// [`Rdd::persist`] with an explicit element codec, enabling
    /// [`StorageLevel::MemorySerialized`]'s encoded storage.
    pub fn persist_with_codec(
        &self,
        level: crate::cache::StorageLevel,
        codec: Arc<dyn crate::cache::CacheCodec<T>>,
    ) -> Rdd<T> {
        self.persist_impl(level, Some(codec))
    }

    fn persist_impl(
        &self,
        level: crate::cache::StorageLevel,
        codec: Option<Arc<dyn crate::cache::CacheCodec<T>>>,
    ) -> Rdd<T> {
        let op = crate::cache::CachedRdd::new(
            Arc::clone(&self.core),
            Arc::clone(&self.op),
            level,
            codec,
        );
        let id = op.id();
        Rdd { core: Arc::clone(&self.core), op: Arc::new(op), cache_id: Some(id) }
    }

    /// Drops every cached partition of a persisted handle. Later reads
    /// recompute from lineage (and re-populate); a handle that was never
    /// persisted is a no-op.
    pub fn unpersist(&self) {
        if let Some(id) = self.cache_id {
            self.core.cache.unpersist(id);
        }
    }

    /// Globally sorts by a key extracted from each element, using sampled
    /// range partitioning followed by per-partition sorts — the
    /// `sortByKey` strategy.
    pub fn sort_by<K: Data + Ord>(
        &self,
        key_fn: impl Fn(&T) -> K + Send + Sync + 'static,
        ascending: bool,
        num_partitions: usize,
    ) -> Rdd<T> {
        let op = SortedRdd::new(
            Arc::clone(&self.core),
            Arc::clone(&self.op),
            Arc::new(key_fn),
            ascending,
            num_partitions.max(1),
        );
        Rdd::new(Arc::clone(&self.core), Arc::new(op))
    }

    /// [`sort_by`](Self::sort_by) with a wire codec for the elements,
    /// routing the range shuffle through the distributed block service when
    /// the context runs with executor workers. Identical to the plain
    /// variant in local mode.
    pub fn sort_by_with_codec<K: Data + Ord>(
        &self,
        key_fn: impl Fn(&T) -> K + Send + Sync + 'static,
        ascending: bool,
        num_partitions: usize,
        codec: Arc<dyn crate::CacheCodec<T>>,
    ) -> Rdd<T> {
        let op = SortedRdd::new(
            Arc::clone(&self.core),
            Arc::clone(&self.op),
            Arc::new(key_fn),
            ascending,
            num_partitions.max(1),
        )
        .with_codec(codec);
        Rdd::new(Arc::clone(&self.core), Arc::new(op))
    }

    // ---- actions (eager) ----

    /// Materializes the whole RDD on the driver, in partition order.
    pub fn collect(&self) -> Result<Vec<T>> {
        let parts = self.core.run_partitions(
            &self.op,
            Arc::new(|iter: BoxIter<T>, _tc: &TaskContext| iter.collect::<Vec<T>>()),
        )?;
        Ok(parts.into_iter().flatten().collect())
    }

    /// Materializes per-partition vectors (Spark's `glom().collect()`).
    pub fn collect_partitions(&self) -> Result<Vec<Vec<T>>> {
        self.core.run_partitions(
            &self.op,
            Arc::new(|iter: BoxIter<T>, _tc: &TaskContext| iter.collect::<Vec<T>>()),
        )
    }

    pub fn count(&self) -> Result<u64> {
        let parts = self
            .core
            .run_partitions(&self.op, Arc::new(|iter: BoxIter<T>, _| iter.count() as u64))?;
        Ok(parts.into_iter().sum())
    }

    /// Returns up to `n` leading elements. Every partition computes at most
    /// `n` elements, so the work is bounded even on huge inputs.
    pub fn take(&self, n: usize) -> Result<Vec<T>> {
        if n == 0 {
            return Ok(Vec::new());
        }
        let parts = self.core.run_partitions(
            &self.op,
            Arc::new(move |iter: BoxIter<T>, _| iter.take(n).collect::<Vec<T>>()),
        )?;
        let mut out = Vec::with_capacity(n);
        for p in parts {
            for x in p {
                if out.len() == n {
                    return Ok(out);
                }
                out.push(x);
            }
        }
        Ok(out)
    }

    /// The `n` smallest elements by `key_fn`, in ascending key order, in one
    /// job — Spark's `takeOrdered`. Each partition keeps a bounded max-heap
    /// on `(key, position)` and the driver merges the heaps. Ties keep
    /// partition order, then position order: exactly the order
    /// [`sort_by`](Self::sort_by)`(key_fn, true, _)` emits (its range
    /// buckets concatenate map outputs in partition order and sort
    /// stably), so the result equals that sort followed by `take(n)`.
    pub fn take_ordered<K: Data + Ord>(
        &self,
        n: usize,
        key_fn: impl Fn(&T) -> K + Send + Sync + 'static,
    ) -> Result<Vec<T>> {
        if n == 0 {
            return Ok(Vec::new());
        }
        let parts = self.core.run_partitions(
            &self.op,
            Arc::new(move |iter: BoxIter<T>, _| {
                let mut heap: BinaryHeap<Ranked<K, T>> = BinaryHeap::with_capacity(n);
                for (pos, item) in iter.enumerate() {
                    let key = key_fn(&item);
                    if heap.len() < n {
                        heap.push(Ranked { key, pos, item });
                    } else if let Some(mut top) = heap.peek_mut() {
                        // A later position loses a tie, so only a strictly
                        // smaller key displaces the current worst.
                        if key < top.key {
                            *top = Ranked { key, pos, item };
                        }
                    }
                }
                heap.into_sorted_vec()
            }),
        )?;
        // Each partition's run is sorted by (key, position); a stable sort
        // on the key over their concatenation (in partition order) is the
        // (key, partition, position) merge.
        let mut all: Vec<Ranked<K, T>> = parts.into_iter().flatten().collect();
        all.sort_by(|a, b| a.key.cmp(&b.key));
        all.truncate(n);
        Ok(all.into_iter().map(|r| r.item).collect())
    }

    pub fn first(&self) -> Result<Option<T>> {
        Ok(self.take(1)?.into_iter().next())
    }

    /// Reduces all elements with `f`; `None` on an empty RDD.
    pub fn reduce(&self, f: impl Fn(T, T) -> T + Send + Sync + 'static) -> Result<Option<T>> {
        let f = Arc::new(f);
        let g = Arc::clone(&f);
        let parts = self.core.run_partitions(
            &self.op,
            Arc::new(move |iter: BoxIter<T>, _| iter.reduce(|a, b| g(a, b))),
        )?;
        Ok(parts.into_iter().flatten().reduce(|a, b| f(a, b)))
    }

    /// Two-level aggregation: fold each partition from `zero` with `seq`,
    /// then combine the partials with `comb` (Spark's `aggregate`).
    pub fn aggregate<U: Data>(
        &self,
        zero: U,
        seq: impl Fn(U, T) -> U + Send + Sync + 'static,
        comb: impl Fn(U, U) -> U + Send + Sync + 'static,
    ) -> Result<U> {
        let z = zero.clone();
        let seq = Arc::new(seq);
        let parts = self.core.run_partitions(
            &self.op,
            Arc::new(move |iter: BoxIter<T>, _| iter.fold(z.clone(), |acc, x| seq(acc, x))),
        )?;
        Ok(parts.into_iter().fold(zero, comb))
    }

    /// Runs the DAG for its side effects / metrics without keeping results.
    pub fn foreach(&self, f: impl Fn(T) + Send + Sync + 'static) -> Result<()> {
        let f = Arc::new(f);
        self.core.run_partitions(
            &self.op,
            Arc::new(move |iter: BoxIter<T>, _| iter.for_each(|x| f(x))),
        )?;
        Ok(())
    }
}

/// One [`Rdd::take_ordered`] candidate, ordered by `(key, pos)`.
#[derive(Clone)]
struct Ranked<K, T> {
    key: K,
    pos: usize,
    item: T,
}

impl<K: Ord, T> PartialEq for Ranked<K, T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == CmpOrdering::Equal
    }
}

impl<K: Ord, T> Eq for Ranked<K, T> {}

impl<K: Ord, T> PartialOrd for Ranked<K, T> {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}

impl<K: Ord, T> Ord for Ranked<K, T> {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        self.key.cmp(&other.key).then(self.pos.cmp(&other.pos))
    }
}

impl<T: Data + AsRef<str>> Rdd<T> {
    /// Writes the RDD as a text file, one line per element, one output
    /// block per partition (like Spark's `part-00000` files), in one job;
    /// returns the number of lines written. `hdfs://` paths land in the
    /// simulated HDFS; other paths on the local filesystem as a single
    /// file. Each task returns its own line count with its block, so a
    /// retried task is counted once.
    pub fn save_as_text_file(&self, path: &str) -> Result<u64> {
        let parts = self.core.run_partitions(
            &self.op,
            Arc::new(|iter: BoxIter<T>, tc: &TaskContext| {
                let mut out = String::new();
                let mut n = 0u64;
                for x in iter {
                    out.push_str(x.as_ref());
                    out.push('\n');
                    n += 1;
                }
                crate::executor::TaskMetrics::bump(&tc.task_metrics.output_records, n);
                (out, n)
            }),
        )?;
        let lines = parts.iter().map(|(_, n)| n).sum();
        let parts: Vec<String> = parts.into_iter().map(|(part, _)| part).collect();
        match resolve_scheme(path) {
            (PathScheme::SimHdfs, key) => self.core.hdfs.put_parts(key, parts)?,
            (PathScheme::LocalFs, p) => std::fs::write(p, parts.concat())?,
        }
        Ok(lines)
    }
}

impl<T: Data + std::hash::Hash + Eq> Rdd<T> {
    /// Removes duplicates via a shuffle (Spark's `distinct`).
    pub fn distinct(&self, num_partitions: usize) -> Rdd<T> {
        self.map(|t| (t, ())).reduce_by_key(|(), ()| (), num_partitions).map(|(t, ())| t)
    }
}

// ---------------------------------------------------------------------------
// Narrow operators
// ---------------------------------------------------------------------------

pub(crate) struct MapRdd<T: Data, U: Data> {
    pub parent: Arc<dyn RddOp<T>>,
    pub f: Arc<dyn Fn(T) -> U + Send + Sync>,
}

impl<T: Data, U: Data> Preparable for MapRdd<T, U> {
    fn prepare(&self) -> Result<()> {
        self.parent.prepare()
    }
}

impl<T: Data, U: Data> RddOp<U> for MapRdd<T, U> {
    fn num_partitions(&self) -> usize {
        self.parent.num_partitions()
    }
    fn compute(&self, split: usize, tc: &TaskContext) -> BoxIter<U> {
        let f = Arc::clone(&self.f);
        Box::new(self.parent.compute(split, tc).map(move |x| f(x)))
    }
}

pub(crate) struct FilterRdd<T: Data> {
    pub parent: Arc<dyn RddOp<T>>,
    pub f: Arc<dyn Fn(&T) -> bool + Send + Sync>,
}

impl<T: Data> Preparable for FilterRdd<T> {
    fn prepare(&self) -> Result<()> {
        self.parent.prepare()
    }
}

impl<T: Data> RddOp<T> for FilterRdd<T> {
    fn num_partitions(&self) -> usize {
        self.parent.num_partitions()
    }
    fn compute(&self, split: usize, tc: &TaskContext) -> BoxIter<T> {
        let f = Arc::clone(&self.f);
        Box::new(self.parent.compute(split, tc).filter(move |x| f(x)))
    }
}

pub(crate) struct FlatMapRdd<T: Data, U: Data> {
    pub parent: Arc<dyn RddOp<T>>,
    pub f: Arc<dyn Fn(T) -> BoxIter<U> + Send + Sync>,
}

impl<T: Data, U: Data> Preparable for FlatMapRdd<T, U> {
    fn prepare(&self) -> Result<()> {
        self.parent.prepare()
    }
}

impl<T: Data, U: Data> RddOp<U> for FlatMapRdd<T, U> {
    fn num_partitions(&self) -> usize {
        self.parent.num_partitions()
    }
    fn compute(&self, split: usize, tc: &TaskContext) -> BoxIter<U> {
        let f = Arc::clone(&self.f);
        Box::new(self.parent.compute(split, tc).flat_map(move |x| f(x)))
    }
}

pub(crate) struct MapPartitionsRdd<T: Data, U: Data> {
    pub parent: Arc<dyn RddOp<T>>,
    pub f: Arc<dyn Fn(usize, BoxIter<T>) -> BoxIter<U> + Send + Sync>,
}

impl<T: Data, U: Data> Preparable for MapPartitionsRdd<T, U> {
    fn prepare(&self) -> Result<()> {
        self.parent.prepare()
    }
}

impl<T: Data, U: Data> RddOp<U> for MapPartitionsRdd<T, U> {
    fn num_partitions(&self) -> usize {
        self.parent.num_partitions()
    }
    fn compute(&self, split: usize, tc: &TaskContext) -> BoxIter<U> {
        (self.f)(split, self.parent.compute(split, tc))
    }
}

pub(crate) struct UnionRdd<T: Data> {
    pub left: Arc<dyn RddOp<T>>,
    pub right: Arc<dyn RddOp<T>>,
}

impl<T: Data> Preparable for UnionRdd<T> {
    fn prepare(&self) -> Result<()> {
        self.left.prepare()?;
        self.right.prepare()
    }
}

impl<T: Data> RddOp<T> for UnionRdd<T> {
    fn num_partitions(&self) -> usize {
        self.left.num_partitions() + self.right.num_partitions()
    }
    fn compute(&self, split: usize, tc: &TaskContext) -> BoxIter<T> {
        let nl = self.left.num_partitions();
        if split < nl {
            self.left.compute(split, tc)
        } else {
            self.right.compute(split - nl, tc)
        }
    }
}

pub(crate) struct SampleRdd<T: Data> {
    pub parent: Arc<dyn RddOp<T>>,
    pub fraction: f64,
    pub seed: u64,
}

impl<T: Data> Preparable for SampleRdd<T> {
    fn prepare(&self) -> Result<()> {
        self.parent.prepare()
    }
}

impl<T: Data> RddOp<T> for SampleRdd<T> {
    fn num_partitions(&self) -> usize {
        self.parent.num_partitions()
    }
    fn compute(&self, split: usize, tc: &TaskContext) -> BoxIter<T> {
        let mut rng =
            util::SplitMix64::new(self.seed ^ (split as u64).wrapping_mul(0x9E3779B97F4A7C15));
        let fraction = self.fraction;
        Box::new(self.parent.compute(split, tc).filter(move |_| rng.next_f64() < fraction))
    }
}

// ---------------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------------

/// A local collection distributed over N slices.
pub struct ParallelCollectionRdd<T: Data> {
    data: Arc<Vec<T>>,
    /// Partition boundaries: partition i covers `bounds[i]..bounds[i+1]`.
    bounds: Vec<usize>,
}

impl<T: Data> ParallelCollectionRdd<T> {
    pub fn new(data: Vec<T>, num_partitions: usize) -> Self {
        let n = data.len();
        let parts = num_partitions.max(1);
        let mut bounds = Vec::with_capacity(parts + 1);
        for i in 0..=parts {
            bounds.push(i * n / parts);
        }
        ParallelCollectionRdd { data: Arc::new(data), bounds }
    }
}

impl<T: Data> Preparable for ParallelCollectionRdd<T> {
    fn prepare(&self) -> Result<()> {
        Ok(())
    }
}

impl<T: Data> RddOp<T> for ParallelCollectionRdd<T> {
    fn num_partitions(&self) -> usize {
        self.bounds.len() - 1
    }
    fn compute(&self, split: usize, _tc: &TaskContext) -> BoxIter<T> {
        Box::new(util::ArcRangeIter {
            data: Arc::clone(&self.data),
            i: self.bounds[split],
            end: self.bounds[split + 1],
        })
    }
}

/// Pre-partitioned data, used by DataFrame↔RDD bridges and tests.
pub struct FromPartitionsRdd<T: Data> {
    parts: Arc<Vec<Vec<T>>>,
}

impl<T: Data> FromPartitionsRdd<T> {
    pub fn new(parts: Vec<Vec<T>>) -> Self {
        FromPartitionsRdd { parts: Arc::new(parts) }
    }
}

impl<T: Data> Preparable for FromPartitionsRdd<T> {
    fn prepare(&self) -> Result<()> {
        Ok(())
    }
}

impl<T: Data> RddOp<T> for FromPartitionsRdd<T> {
    fn num_partitions(&self) -> usize {
        self.parts.len().max(1)
    }
    fn compute(&self, split: usize, _tc: &TaskContext) -> BoxIter<T> {
        if self.parts.is_empty() {
            return Box::new(std::iter::empty());
        }
        Box::new(util::ArcPartIter { data: Arc::clone(&self.parts), part: split, i: 0 })
    }
}

/// A text file scanned one storage block per partition. Each task makes a
/// line parser with `parser` and runs it over the lines of its block in
/// place, keeping the records it returns.
pub struct TextFileRdd<P> {
    core: Arc<Core>,
    source: TextSource,
    parser: P,
}

enum TextSource {
    SimHdfs { key: String, num_blocks: usize },
    Local { blocks: Arc<Vec<Arc<str>>> },
}

impl<P> TextFileRdd<P> {
    pub(crate) fn open(core: Arc<Core>, path: &str, parser: P) -> Result<Self> {
        let source = match resolve_scheme(path) {
            (PathScheme::SimHdfs, key) => {
                let num_blocks = core.hdfs.num_blocks(key)?;
                TextSource::SimHdfs { key: key.to_string(), num_blocks }
            }
            (PathScheme::LocalFs, p) => {
                let blocks = read_local_blocks(p, core.conf.block_size)?;
                TextSource::Local { blocks: Arc::new(blocks) }
            }
        };
        Ok(TextFileRdd { core, source, parser })
    }
}

impl<P: Send + Sync> Preparable for TextFileRdd<P> {
    fn prepare(&self) -> Result<()> {
        Ok(())
    }
}

impl<U, F, P> RddOp<U> for TextFileRdd<P>
where
    U: Data,
    F: FnMut(&str) -> Option<U> + Send + 'static,
    P: Fn() -> F + Send + Sync + 'static,
{
    fn num_partitions(&self) -> usize {
        match &self.source {
            TextSource::SimHdfs { num_blocks, .. } => (*num_blocks).max(1),
            TextSource::Local { blocks } => blocks.len().max(1),
        }
    }

    fn compute(&self, split: usize, tc: &TaskContext) -> BoxIter<U> {
        let block: Arc<str> = match &self.source {
            TextSource::SimHdfs { key, num_blocks } => {
                if *num_blocks == 0 {
                    return Box::new(std::iter::empty());
                }
                // Chaos hook: may panic with an injected (retryable)
                // storage fault before the read is attempted.
                tc.injector.on_storage_read(key, split, tc);
                match self.core.hdfs.read_block(key, split) {
                    Ok(b) => b,
                    Err(e) => task_bail(e),
                }
            }
            TextSource::Local { blocks } => match blocks.get(split) {
                Some(b) => Arc::clone(b),
                None => return Box::new(std::iter::empty()),
            },
        };
        crate::executor::TaskMetrics::bump(&tc.task_metrics.input_bytes, block.len() as u64);
        let task_metrics = Arc::clone(&tc.task_metrics);
        let mut parse = (self.parser)();
        let lines = util::BlockLines::new(block, move |line: &str| {
            crate::executor::TaskMetrics::bump(&task_metrics.input_records, 1);
            parse(line)
        });
        Box::new(lines.flatten())
    }
}

#[cfg(test)]
mod tests {
    use crate::{SparkliteConf, SparkliteContext};

    fn sc() -> SparkliteContext {
        SparkliteContext::new(SparkliteConf::default().with_executors(4))
    }

    #[test]
    fn narrow_transformations_pipeline() {
        let sc = sc();
        let out = sc
            .parallelize((0i64..100).collect(), 5)
            .filter(|x| x % 3 == 0)
            .map(|x| x * 2)
            .flat_map(|x| vec![x, x + 1])
            .collect()
            .unwrap();
        assert_eq!(out.len(), 34 * 2);
        assert_eq!(out[0], 0);
        assert_eq!(out[1], 1);
        assert_eq!(out[2], 6);
    }

    #[test]
    fn map_partitions_sees_every_split() {
        let sc = sc();
        let out = sc
            .parallelize((0..10).collect::<Vec<i32>>(), 3)
            .map_partitions(|split, iter| Box::new(iter.map(move |x| (split, x))))
            .collect()
            .unwrap();
        let splits: std::collections::HashSet<_> = out.iter().map(|(s, _)| *s).collect();
        assert_eq!(splits.len(), 3);
    }

    #[test]
    fn union_preserves_order() {
        let sc = sc();
        let a = sc.parallelize(vec![1, 2], 1);
        let b = sc.parallelize(vec![3, 4], 2);
        let u = a.union(&b);
        assert_eq!(u.num_partitions(), 3);
        assert_eq!(u.collect().unwrap(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn take_is_bounded_and_ordered() {
        let sc = sc();
        let rdd = sc.parallelize((0..1000).collect::<Vec<i32>>(), 10);
        assert_eq!(rdd.take(5).unwrap(), vec![0, 1, 2, 3, 4]);
        assert_eq!(rdd.take(0).unwrap(), Vec::<i32>::new());
        assert_eq!(rdd.take(2000).unwrap().len(), 1000);
        assert_eq!(rdd.first().unwrap(), Some(0));
    }

    #[test]
    fn take_ordered_is_sort_then_take_ties_included() {
        let sc = sc();
        // 11 keys over 300 rows: each key ties ~27 rows across partition
        // seams, and the payload shows the order ties come back in.
        let rdd = sc.parallelize((0..300i64).map(|i| ((i * 37) % 11, i)).collect::<Vec<_>>(), 6);
        let sorted = rdd.sort_by(|p| p.0, true, 4).collect().unwrap();
        for n in [0usize, 1, 7, 40, 300, 1000] {
            let top = rdd.take_ordered(n, |p| p.0).unwrap();
            assert_eq!(top, sorted[..n.min(sorted.len())], "n={n}");
        }
    }

    #[test]
    fn reduce_and_aggregate() {
        let sc = sc();
        let rdd = sc.parallelize((1i64..=100).collect(), 7);
        assert_eq!(rdd.reduce(|a, b| a + b).unwrap(), Some(5050));
        let (sum, cnt) = rdd
            .aggregate(
                (0i64, 0u64),
                |(s, c), x| (s + x, c + 1),
                |(s1, c1), (s2, c2)| (s1 + s2, c1 + c2),
            )
            .unwrap();
        assert_eq!((sum, cnt), (5050, 100));
        let empty = sc.parallelize(Vec::<i64>::new(), 3);
        assert_eq!(empty.reduce(|a, b| a + b).unwrap(), None);
    }

    #[test]
    fn sample_is_deterministic_and_roughly_sized() {
        let sc = sc();
        let rdd = sc.parallelize((0..10_000).collect::<Vec<i32>>(), 8);
        let s1 = rdd.sample(0.1, 42).collect().unwrap();
        let s2 = rdd.sample(0.1, 42).collect().unwrap();
        assert_eq!(s1, s2);
        assert!(s1.len() > 700 && s1.len() < 1300, "got {}", s1.len());
        assert_eq!(rdd.sample(0.0, 1).count().unwrap(), 0);
        assert_eq!(rdd.sample(1.0, 1).count().unwrap(), 10_000);
    }

    #[test]
    fn zip_with_index_is_global_and_ordered() {
        let sc = sc();
        let rdd = sc.parallelize((100..200).collect::<Vec<i32>>(), 7).zip_with_index();
        let out = rdd.collect().unwrap();
        for (i, (v, idx)) in out.iter().enumerate() {
            assert_eq!(*idx, i as u64);
            assert_eq!(*v, 100 + i as i32);
        }
    }

    #[test]
    fn distinct_removes_duplicates() {
        let sc = sc();
        let rdd = sc.parallelize(vec![1, 2, 2, 3, 3, 3, 4], 3);
        let mut out = rdd.distinct(4).collect().unwrap();
        out.sort();
        assert_eq!(out, vec![1, 2, 3, 4]);
    }

    #[test]
    fn save_and_reload_text() {
        let sc = sc();
        let rdd = sc.parallelize((0..50).map(|i| format!("line-{i}")).collect(), 4);
        assert_eq!(rdd.save_as_text_file("hdfs:///out/data").unwrap(), 50);
        let back = sc.text_file("hdfs:///out/data").unwrap().collect().unwrap();
        assert_eq!(back.len(), 50);
        assert_eq!(back[49].as_ref(), "line-49");
        assert_eq!(sc.hdfs().num_blocks("/out/data").unwrap(), 4);
    }

    #[test]
    fn sort_by_orders_globally() {
        let sc = sc();
        let data: Vec<i64> = (0..1000).map(|i| (i * 7919) % 1000).collect();
        let asc = sc.parallelize(data.clone(), 8).sort_by(|x| *x, true, 5).collect().unwrap();
        let mut expect = data.clone();
        expect.sort();
        assert_eq!(asc, expect);
        let desc = sc.parallelize(data, 8).sort_by(|x| *x, false, 5).collect().unwrap();
        expect.reverse();
        assert_eq!(desc, expect);
    }

    #[test]
    fn task_failure_propagates() {
        let sc = sc();
        let rdd = sc.parallelize(vec![1, 2, 3], 3).map(|x| {
            if x == 2 {
                crate::rdd::task_bail("bad element")
            }
            x
        });
        let err = rdd.collect().unwrap_err();
        assert!(err.to_string().contains("bad element"));
    }
}
