//! Wide (shuffle) operators: hash-partitioned shuffles with map-side
//! combine, sampled range-partitioned sorts, and the two-pass
//! zip-with-index.
//!
//! A wide operator materializes its map side exactly once, in
//! [`Preparable::prepare`], which the driver invokes before scheduling the
//! consuming stage — sparklite's equivalent of Spark's DAG-scheduler stage
//! barrier. The shuffled blocks live in memory inside the operator (a real
//! Spark would write them to local disk and serve them over the network;
//! the byte accounting in the metrics stands in for that traffic).

use super::util::{fx_hash, ArcPartIter, FxHashMap, SplitMix64};
use super::{task_bail, BoxIter, Preparable, RddOp};
use crate::cache::CacheCodec;
use crate::context::Core;
use crate::dist::{Cluster, FetchError};
use crate::error::{Result, SparkliteError};
use crate::events::Event;
use crate::executor::TaskContext;
use crate::Data;
use std::hash::Hash;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Records one map task's shuffle write on its scratch counters and (when a
/// collector is attached) as a [`Event::ShuffleWrite`].
fn note_shuffle_write(tc: &TaskContext, records: u64, bytes: u64) {
    tc.task_metrics.shuffle_records.fetch_add(records, Ordering::Relaxed);
    tc.task_metrics.shuffle_bytes.fetch_add(bytes, Ordering::Relaxed);
    if tc.events.verbose() {
        tc.events.emit(Event::ShuffleWrite {
            job: tc.stage,
            partition: tc.partition as u64,
            records,
            bytes,
        });
    }
}

/// Lineage-based recovery of lost shuffle outputs. After a map stage runs,
/// the chaos injector reports which freshly registered map outputs were
/// "lost" to simulated executor death; exactly those parent partitions are
/// recomputed (with their original partition indices, so seeded sampling
/// replays identically) and patched back in — Spark's partial re-execution
/// of a parent stage, rather than failing the whole job.
#[allow(clippy::type_complexity)] // shares run_partitions' callback signature
fn recover_lost_map_outputs<T: Data, B: Send + 'static>(
    core: &Arc<Core>,
    parent: &Arc<dyn RddOp<T>>,
    map_f: &Arc<dyn Fn(BoxIter<T>, &TaskContext) -> B + Send + Sync>,
    outputs: &mut [B],
) -> Result<u64> {
    let shuffle_id = core.injector.next_shuffle_id();
    let lost = core.injector.lost_map_outputs(shuffle_id, outputs.len());
    if lost.is_empty() {
        return Ok(shuffle_id);
    }
    core.events.emit(Event::LineageRecovery { shuffle: shuffle_id, lost: lost.len() as u64 });
    let recomputed = core.run_partition_subset(parent, Arc::clone(map_f), &lost)?;
    for (&slot, out) in lost.iter().zip(recomputed) {
        outputs[slot] = out;
    }
    Ok(shuffle_id)
}

/// The distribution cluster to shuffle through, when one is configured,
/// running, and the operator has a wire codec. Codec-less shuffles (plain
/// in-memory key types with no registered encoding) stay driver-local even
/// in distributed mode.
fn active_cluster(core: &Core) -> Option<Arc<Cluster>> {
    core.cluster().filter(|c| c.is_active()).map(Arc::clone)
}

/// Encodes one map task's per-reducer blocks with the shuffle's wire codec
/// and stores them on a live executor.
fn push_blocks<P: Data>(
    cluster: &Cluster,
    codec: &dyn CacheCodec<P>,
    shuffle: u64,
    map_part: usize,
    blocks: &[Vec<P>],
) -> Result<()> {
    let encoded: Vec<(u64, Vec<u8>)> =
        blocks.iter().enumerate().map(|(r, b)| (r as u64, codec.encode(b))).collect();
    cluster
        .push_map_output(shuffle, map_part as u64, &encoded)
        .map_err(|e| SparkliteError::Io(format!("shuffle {shuffle} push: {e}")))
}

/// Lineage-recovery callback: recompute the given lost map partitions and
/// re-push their blocks to surviving executors.
type Repush = Arc<dyn Fn(&[usize]) -> Result<()> + Send + Sync>;

/// Map outputs living in executor block stores instead of driver memory:
/// the distributed half of a wide operator. Reduce tasks fetch each map
/// part's block for their partition over TCP, in map-part order — the same
/// concatenation order as the driver-local transpose, which is what keeps
/// distributed results byte-identical to threaded ones.
///
/// Blocks stay on the executors only as long as `compute` could still
/// re-fetch them: dropping the last handle (the operator, or a sort task's
/// clone) releases the shuffle cluster-wide, so a long-lived context (the
/// shell) doesn't grow executor memory by one dead shuffle per query.
struct RemoteShuffle<P: Data> {
    shuffle: u64,
    num_maps: usize,
    codec: Arc<dyn CacheCodec<P>>,
    cluster: Arc<Cluster>,
    repush: Repush,
    /// Single-flight guard: when an executor dies, many reduce tasks see
    /// `Lost` at once; one runs recovery, the rest wait and re-fetch.
    recovery: Mutex<()>,
}

impl<P: Data> RemoteShuffle<P> {
    /// Fetches one block, recovering lost map outputs from lineage (bounded
    /// attempts); aborts the task deterministically if recovery cannot win.
    fn fetch_block(&self, map_part: usize, reduce_part: usize) -> Vec<u8> {
        for _ in 0..4 {
            match self.cluster.fetch(self.shuffle, map_part as u64, reduce_part as u64) {
                Ok(bytes) => return bytes,
                Err(FetchError::Lost) => {
                    let _flight = self.recovery.lock().unwrap_or_else(PoisonError::into_inner);
                    // A concurrent reducer may have recovered while we
                    // waited on the guard; re-probe before recomputing.
                    if let Ok(bytes) =
                        self.cluster.fetch(self.shuffle, map_part as u64, reduce_part as u64)
                    {
                        return bytes;
                    }
                    let lost = self.cluster.lost_parts(self.shuffle, self.num_maps);
                    if !lost.is_empty() {
                        if let Err(e) = (self.repush)(&lost) {
                            task_bail(format!("shuffle {} recovery failed: {e}", self.shuffle));
                        }
                    }
                }
                Err(FetchError::Other(e)) => task_bail(format!("shuffle fetch: {e}")),
            }
        }
        task_bail(format!(
            "shuffle {} block ({map_part}, {reduce_part}) unrecoverable after retries",
            self.shuffle
        ))
    }

    /// All map outputs for one reduce partition, concatenated in map-part
    /// order — the distributed equivalent of one transposed bucket.
    fn fetch_concat(&self, reduce_part: usize) -> Vec<P> {
        let mut out = Vec::new();
        for map_part in 0..self.num_maps {
            let bytes = self.fetch_block(map_part, reduce_part);
            match self.codec.decode(&bytes) {
                Ok(items) => out.extend(items),
                Err(e) => task_bail(format!("shuffle {} block decode: {e}", self.shuffle)),
            }
        }
        out
    }
}

impl<P: Data> Drop for RemoteShuffle<P> {
    fn drop(&mut self) {
        self.cluster.drop_shuffle(self.shuffle);
    }
}

/// A hash-partitioned shuffle producing `num_parts` output partitions.
///
/// With a `merge` function the shuffle combines values per key — on the map
/// side (within each map task) *and* on the reduce side (across map tasks),
/// like Spark's `reduceByKey`. Without one, duplicates are preserved
/// (`partitionBy`). Both combines are insertion-ordered: a reduce partition
/// emits keys in first occurrence order of its (deterministic) input
/// stream, so merged shuffle output is reproducible across runs, physical
/// paths and deployment modes — never hash-table iteration order.
pub struct ShuffledRdd<K: Data + Hash + Eq, C: Data> {
    core: Arc<Core>,
    parent: Arc<dyn RddOp<(K, C)>>,
    num_parts: usize,
    merge: Option<Arc<dyn Fn(C, C) -> C + Send + Sync>>,
    /// Whole-bucket reduce for map-side pre-combined shuffles (only
    /// meaningful with `merge: None`): runs once over each reduce
    /// partition's concatenated pairs, *borrowed* from the shared bucket,
    /// and its output becomes the partition. Lets a caller that already
    /// combined per map task (the vectorized aggregation kernel) fold
    /// cross-map duplicates without the per-pair clone the generic
    /// reduce-side merge pays. Must be pure and insertion-order
    /// deterministic — `compute` re-runs it on retries.
    #[allow(clippy::type_complexity)] // a named slice-to-vec fold, right here
    reduce: Option<Arc<dyn Fn(&[(K, C)]) -> Vec<(K, C)> + Send + Sync>>,
    /// Wire codec for the pairs; required for the distributed path (blocks
    /// must cross a process boundary as bytes). `None` keeps the shuffle
    /// driver-local regardless of cluster mode.
    codec: Option<Arc<dyn CacheCodec<(K, C)>>>,
    /// Transposed shuffle output: `buckets[reduce_partition]` holds the
    /// concatenated map outputs for that partition.
    #[allow(clippy::type_complexity)] // Vec-of-buckets-of-pairs, named right here
    buckets: OnceLock<Arc<Vec<Vec<(K, C)>>>>,
    /// Distributed shuffle state, when the map outputs were pushed to
    /// executor block stores instead of transposed driver-side.
    remote: OnceLock<Arc<RemoteShuffle<(K, C)>>>,
}

impl<K: Data + Hash + Eq, C: Data> ShuffledRdd<K, C> {
    pub(crate) fn new(
        core: Arc<Core>,
        parent: Arc<dyn RddOp<(K, C)>>,
        num_parts: usize,
        merge: Option<Arc<dyn Fn(C, C) -> C + Send + Sync>>,
    ) -> Self {
        ShuffledRdd {
            core,
            parent,
            num_parts: num_parts.max(1),
            merge,
            reduce: None,
            codec: None,
            buckets: OnceLock::new(),
            remote: OnceLock::new(),
        }
    }

    /// Attaches a wire codec, making this shuffle eligible for the
    /// distributed block-service path.
    pub(crate) fn with_codec(mut self, codec: Arc<dyn CacheCodec<(K, C)>>) -> Self {
        self.codec = Some(codec);
        self
    }

    /// Attaches a whole-bucket reduce (see the field docs).
    #[allow(clippy::type_complexity)]
    pub(crate) fn with_reduce(
        mut self,
        reduce: Arc<dyn Fn(&[(K, C)]) -> Vec<(K, C)> + Send + Sync>,
    ) -> Self {
        self.reduce = Some(reduce);
        self
    }
}

impl<K: Data + Hash + Eq, C: Data> Preparable for ShuffledRdd<K, C> {
    fn prepare(&self) -> Result<()> {
        if self.buckets.get().is_some() || self.remote.get().is_some() {
            return Ok(());
        }
        let num = self.num_parts;
        let merge = self.merge.clone();
        // Scratch pool for the map-side combine: per-target key→slot index
        // tables, returned (cleared, capacity kept) after each partition so
        // later tasks of the stage start with pre-grown tables instead of
        // rehash-growing from empty every time.
        #[allow(clippy::type_complexity)]
        let scratch: Arc<Mutex<Vec<Vec<FxHashMap<K, u32>>>>> = Arc::new(Mutex::new(Vec::new()));
        // Map stage: each task splits its partition into per-reducer blocks,
        // combining on the fly when a merge function is present. The closure
        // is named so lineage recovery can re-run it for a subset of splits.
        #[allow(clippy::type_complexity)]
        let map_f: Arc<
            dyn Fn(BoxIter<(K, C)>, &TaskContext) -> Vec<Vec<(K, C)>> + Send + Sync,
        > = Arc::new(move |iter: BoxIter<(K, C)>, tc: &TaskContext| {
            let blocks: Vec<Vec<(K, C)>> = match &merge {
                Some(m) => {
                    // Insertion-ordered combine: combined values live in
                    // per-target vectors in first-occurrence key order (the
                    // index maps keys to slots), so block content never
                    // depends on hash-table iteration history — every
                    // physical path and every retry emits identical blocks.
                    use std::collections::hash_map::Entry;
                    let mut indexes: Vec<FxHashMap<K, u32>> = scratch
                        .lock()
                        .expect("combine scratch pool")
                        .pop()
                        .unwrap_or_else(|| (0..num).map(|_| FxHashMap::default()).collect());
                    let hint = iter.size_hint().0 / num + 1;
                    for idx in &mut indexes {
                        idx.reserve(hint);
                    }
                    let mut ordered: Vec<Vec<(K, Option<C>)>> =
                        (0..num).map(|_| Vec::with_capacity(hint)).collect();
                    for (k, c) in iter {
                        let b = (fx_hash(&k) % num as u64) as usize;
                        match indexes[b].entry(k) {
                            Entry::Occupied(e) => {
                                let slot = &mut ordered[b][*e.get() as usize].1;
                                let old = slot.take().expect("combine slot filled");
                                *slot = Some(m(old, c));
                            }
                            Entry::Vacant(e) => {
                                let i = ordered[b].len() as u32;
                                ordered[b].push((e.key().clone(), Some(c)));
                                e.insert(i);
                            }
                        }
                    }
                    for idx in &mut indexes {
                        idx.clear();
                    }
                    scratch.lock().expect("combine scratch pool").push(indexes);
                    ordered
                        .into_iter()
                        .map(|ord| {
                            ord.into_iter()
                                .map(|(k, c)| (k, c.expect("combine slot filled")))
                                .collect()
                        })
                        .collect()
                }
                None => {
                    // Same capacity hint as the combine branch: blocks grow
                    // to ~1/num of the input, so pre-size them instead of
                    // doubling-and-moving pairs several times over.
                    let hint = iter.size_hint().0 / num + 1;
                    let mut vecs: Vec<Vec<(K, C)>> =
                        (0..num).map(|_| Vec::with_capacity(hint)).collect();
                    for (k, c) in iter {
                        let b = (fx_hash(&k) % num as u64) as usize;
                        vecs[b].push((k, c));
                    }
                    vecs
                }
            };
            let records: usize = blocks.iter().map(|b| b.len()).sum();
            note_shuffle_write(
                tc,
                records as u64,
                (records * std::mem::size_of::<(K, C)>()) as u64,
            );
            blocks
        });
        let mut map_outputs = self.core.run_partitions(&self.parent, Arc::clone(&map_f))?;
        let shuffle_id =
            recover_lost_map_outputs(&self.core, &self.parent, &map_f, &mut map_outputs)?;
        if let (Some(cluster), Some(codec)) = (active_cluster(&self.core), self.codec.clone()) {
            // Distributed path: map outputs become encoded blocks in
            // executor block stores; reduce tasks fetch them back over TCP.
            let num_maps = map_outputs.len();
            for (map_part, blocks) in map_outputs.iter().enumerate() {
                push_blocks(&cluster, codec.as_ref(), shuffle_id, map_part, blocks)?;
            }
            let repush: Repush = {
                let core = Arc::clone(&self.core);
                let parent = Arc::clone(&self.parent);
                let map_f = Arc::clone(&map_f);
                let codec = Arc::clone(&codec);
                let cluster = Arc::clone(&cluster);
                Arc::new(move |lost: &[usize]| {
                    core.events.emit(Event::LineageRecovery {
                        shuffle: shuffle_id,
                        lost: lost.len() as u64,
                    });
                    let recomputed =
                        core.run_partition_subset(&parent, Arc::clone(&map_f), lost)?;
                    for (&map_part, blocks) in lost.iter().zip(&recomputed) {
                        push_blocks(&cluster, codec.as_ref(), shuffle_id, map_part, blocks)?;
                    }
                    Ok(())
                })
            };
            let _ = self.remote.set(Arc::new(RemoteShuffle {
                shuffle: shuffle_id,
                num_maps,
                codec,
                cluster,
                repush,
                recovery: Mutex::new(()),
            }));
            return Ok(());
        }
        // Driver-side transpose into per-reducer buckets.
        let mut buckets: Vec<Vec<(K, C)>> = (0..num).map(|_| Vec::new()).collect();
        for mut map_out in map_outputs {
            for (r, block) in map_out.drain(..).enumerate() {
                buckets[r].extend(block);
            }
        }
        let _ = self.buckets.set(Arc::new(buckets));
        Ok(())
    }
}

impl<K: Data + Hash + Eq, C: Data> RddOp<(K, C)> for ShuffledRdd<K, C> {
    fn num_partitions(&self) -> usize {
        self.num_parts
    }

    fn compute(&self, split: usize, tc: &TaskContext) -> BoxIter<(K, C)> {
        if let Some(remote) = self.remote.get() {
            // Distributed reduce: fetch and decode every map part's block
            // for this partition — same content, same order as the local
            // transpose, so the merge below behaves identically.
            let pairs = remote.fetch_concat(split);
            if tc.events.verbose() {
                let records = pairs.len() as u64;
                tc.events.emit(Event::ShuffleFetch {
                    job: tc.stage,
                    partition: tc.partition as u64,
                    records,
                    bytes: records * std::mem::size_of::<(K, C)>() as u64,
                });
            }
            return match &self.merge {
                Some(m) => {
                    // Insertion-ordered reduce merge (see the map-side
                    // combine): output order is the fetched stream's
                    // first-occurrence key order, never hash-iteration
                    // order, and one key clone per distinct key.
                    use std::collections::hash_map::Entry;
                    let mut index: FxHashMap<K, u32> = FxHashMap::default();
                    index.reserve(pairs.len());
                    let mut ordered: Vec<(K, Option<C>)> = Vec::with_capacity(pairs.len());
                    for (k, c) in pairs {
                        match index.entry(k) {
                            Entry::Occupied(e) => {
                                let slot = &mut ordered[*e.get() as usize].1;
                                let old = slot.take().expect("merge slot filled");
                                *slot = Some(m(old, c));
                            }
                            Entry::Vacant(e) => {
                                let i = ordered.len() as u32;
                                ordered.push((e.key().clone(), Some(c)));
                                e.insert(i);
                            }
                        }
                    }
                    Box::new(ordered.into_iter().map(|(k, c)| (k, c.expect("merge slot filled"))))
                }
                None => match &self.reduce {
                    Some(r) => Box::new(r(&pairs).into_iter()),
                    None => Box::new(pairs.into_iter()),
                },
            };
        }
        let buckets = Arc::clone(self.buckets.get().expect("prepare ran before compute"));
        if tc.events.verbose() {
            let records = buckets[split].len() as u64;
            tc.events.emit(Event::ShuffleFetch {
                job: tc.stage,
                partition: tc.partition as u64,
                records,
                bytes: records * std::mem::size_of::<(K, C)>() as u64,
            });
        }
        match &self.merge {
            Some(m) => {
                // Insertion-ordered reduce merge across map tasks: output
                // order is the bucket's first-occurrence key order, never
                // hash-iteration order. The bucket stays shared (`compute`
                // must be re-runnable for retries, speculation, and
                // cache-eviction fallback), so values are cloned per record
                // — keys twice per *distinct* key (index + output slot).
                let bucket = &buckets[split];
                let mut index: FxHashMap<K, u32> = FxHashMap::default();
                index.reserve(bucket.len());
                let mut ordered: Vec<(K, Option<C>)> = Vec::with_capacity(bucket.len());
                for (k, c) in bucket.iter() {
                    match index.get(k) {
                        Some(&i) => {
                            let slot = &mut ordered[i as usize].1;
                            let old = slot.take().expect("merge slot filled");
                            *slot = Some(m(old, c.clone()));
                        }
                        None => {
                            index.insert(k.clone(), ordered.len() as u32);
                            ordered.push((k.clone(), Some(c.clone())));
                        }
                    }
                }
                Box::new(ordered.into_iter().map(|(k, c)| (k, c.expect("merge slot filled"))))
            }
            None => match &self.reduce {
                // The whole-bucket reduce reads the shared bucket borrowed
                // — the bucket survives for retries — and clones only what
                // its output keeps.
                Some(r) => Box::new(r(&buckets[split]).into_iter()),
                None => Box::new(ArcPartIter { data: buckets, part: split, i: 0 }),
            },
        }
    }
}

/// Global sort via sampled range partitioning (Spark's `RangePartitioner`):
/// sample keys, cut `num_parts - 1` boundaries, shuffle by range, sort each
/// partition; partition order gives the global order.
pub struct SortedRdd<T: Data, K: Data + Ord> {
    core: Arc<Core>,
    parent: Arc<dyn RddOp<T>>,
    key_fn: Arc<dyn Fn(&T) -> K + Send + Sync>,
    ascending: bool,
    num_parts: usize,
    /// Wire codec for the elements; enables the distributed range-shuffle
    /// (pass 2 pushes blocks to executors, pass 3 fetches them back).
    codec: Option<Arc<dyn CacheCodec<T>>>,
    sorted: OnceLock<Arc<Vec<Vec<T>>>>,
}

impl<T: Data, K: Data + Ord> SortedRdd<T, K> {
    pub(crate) fn new(
        core: Arc<Core>,
        parent: Arc<dyn RddOp<T>>,
        key_fn: Arc<dyn Fn(&T) -> K + Send + Sync>,
        ascending: bool,
        num_parts: usize,
    ) -> Self {
        SortedRdd {
            core,
            parent,
            key_fn,
            ascending,
            num_parts,
            codec: None,
            sorted: OnceLock::new(),
        }
    }

    /// Attaches a wire codec, making this sort's range shuffle eligible for
    /// the distributed block-service path.
    pub(crate) fn with_codec(mut self, codec: Arc<dyn CacheCodec<T>>) -> Self {
        self.codec = Some(codec);
        self
    }
}

impl<T: Data, K: Data + Ord> Preparable for SortedRdd<T, K> {
    fn prepare(&self) -> Result<()> {
        if self.sorted.get().is_some() {
            return Ok(());
        }
        let sample_size = self.core.conf.sort_sample_size.max(4);
        let key_fn = Arc::clone(&self.key_fn);

        // Pass 1: reservoir-sample keys from every partition.
        let samples = self.core.run_partitions(
            &self.parent,
            Arc::new(move |iter: BoxIter<T>, tc: &TaskContext| {
                let mut rng = SplitMix64::new(0xC0FFEE ^ tc.partition as u64);
                let mut reservoir: Vec<K> = Vec::with_capacity(sample_size);
                // Extract the key only for items that actually enter the
                // reservoir: once it is full, all but ~sample_size/seen of
                // the items are rejected by the index draw alone, so eager
                // extraction would clone a key per input element for
                // nothing. The RNG consumption is unchanged, so sampled
                // boundaries stay identical to the eager version.
                for (seen, item) in iter.enumerate() {
                    if reservoir.len() < sample_size {
                        reservoir.push(key_fn(&item));
                    } else {
                        let j = rng.next_below(seen as u64 + 1) as usize;
                        if j < sample_size {
                            reservoir[j] = key_fn(&item);
                        }
                    }
                }
                reservoir
            }),
        )?;
        let mut all: Vec<K> = samples.into_iter().flatten().collect();
        all.sort();
        let bounds: Arc<Vec<K>> = Arc::new(if all.is_empty() || self.num_parts == 1 {
            Vec::new()
        } else {
            // Pick num_parts - 1 evenly spaced cut points.
            (1..self.num_parts)
                .map(|i| all[(i * all.len() / self.num_parts).min(all.len() - 1)].clone())
                .collect()
        });

        if let (Some(cluster), Some(codec)) = (active_cluster(&self.core), self.codec.clone()) {
            return self.prepare_remote(&bounds, cluster, codec);
        }

        // Pass 2: range-partition every element (always by ascending key),
        // keeping the key that routed it for pass 3.
        let map_f = range_map(&self.key_fn, &bounds, self.num_parts, |k, t| (k, t));
        let mut map_outputs = self.core.run_partitions(&self.parent, Arc::clone(&map_f))?;
        recover_lost_map_outputs(&self.core, &self.parent, &map_f, &mut map_outputs)?;
        let mut buckets: Vec<Vec<(K, T)>> = (0..self.num_parts).map(|_| Vec::new()).collect();
        for mut out in map_outputs {
            for (r, block) in out.drain(..).enumerate() {
                buckets[r].extend(block);
            }
        }

        // Pass 3: sort each partition in parallel on the pool, on the keys
        // pass 2 computed. Task bodies must be re-runnable (`Fn`): when the
        // fault plan is armed (chaos or speculation can launch a second
        // attempt of the same task) each task *clones* its bucket out of the
        // slot; otherwise it takes it, keeping the fault-free fast path
        // move-only.
        let ascending = self.ascending;
        let armed = self.core.injector.armed();
        let tasks: Vec<_> = buckets
            .into_iter()
            .map(|bucket| {
                let slot = Mutex::new(Some(bucket));
                move |_tc: &TaskContext| {
                    let taken = {
                        let mut guard = slot.lock().unwrap_or_else(PoisonError::into_inner);
                        if armed {
                            (*guard).clone()
                        } else {
                            guard.take()
                        }
                    };
                    let Some(mut bucket) = taken else {
                        // Only reachable if a disarmed task is somehow
                        // re-run; deterministic, so fail fast.
                        super::task_bail("sort bucket already consumed by an earlier attempt")
                    };
                    bucket.sort_by(|a, b| a.0.cmp(&b.0));
                    let mut sorted: Vec<T> = bucket.into_iter().map(|(_, t)| t).collect();
                    if !ascending {
                        sorted.reverse();
                    }
                    sorted
                }
            })
            .collect();
        self.finish(self.core.pool.run(tasks)?);
        Ok(())
    }
}

/// Pass 2 of a range sort: one map task's per-range blocks, each element
/// routed by its key and stored as `entry(key, element)`. Named so lineage
/// recovery can re-run lost map outputs.
#[allow(clippy::type_complexity)] // shares run_partitions' callback signature
fn range_map<T: Data, K: Data + Ord, U: Data>(
    key_fn: &Arc<dyn Fn(&T) -> K + Send + Sync>,
    bounds: &Arc<Vec<K>>,
    num: usize,
    entry: fn(K, T) -> U,
) -> Arc<dyn Fn(BoxIter<T>, &TaskContext) -> Vec<Vec<U>> + Send + Sync> {
    let key_fn = Arc::clone(key_fn);
    let bounds = Arc::clone(bounds);
    Arc::new(move |iter: BoxIter<T>, tc: &TaskContext| {
        let mut blocks: Vec<Vec<U>> = (0..num).map(|_| Vec::new()).collect();
        let mut records = 0u64;
        for item in iter {
            let k = key_fn(&item);
            let idx = bounds.partition_point(|bound| *bound < k).min(num - 1);
            blocks[idx].push(entry(k, item));
            records += 1;
        }
        note_shuffle_write(tc, records, records * std::mem::size_of::<T>() as u64);
        blocks
    })
}

impl<T: Data, K: Data + Ord> SortedRdd<T, K> {
    /// Stores the per-range sorted partitions, highest range first for a
    /// descending sort.
    fn finish(&self, mut sorted: Vec<Vec<T>>) {
        if !self.ascending {
            sorted.reverse();
        }
        let _ = self.sorted.set(Arc::new(sorted));
    }

    /// Passes 2 and 3 through the distributed block service: push the
    /// pass-2 blocks to executors, have each pass-3 sort task fetch its
    /// range bucket back and re-key it. The fetched concatenation matches
    /// the local transpose order, and the sort is stable, so output stays
    /// byte-identical.
    fn prepare_remote(
        &self,
        bounds: &Arc<Vec<K>>,
        cluster: Arc<Cluster>,
        codec: Arc<dyn CacheCodec<T>>,
    ) -> Result<()> {
        let num = self.num_parts;
        let map_f = range_map(&self.key_fn, bounds, num, |_, t| t);
        let mut map_outputs = self.core.run_partitions(&self.parent, Arc::clone(&map_f))?;
        let shuffle_id =
            recover_lost_map_outputs(&self.core, &self.parent, &map_f, &mut map_outputs)?;
        let num_maps = map_outputs.len();
        for (map_part, blocks) in map_outputs.iter().enumerate() {
            push_blocks(&cluster, codec.as_ref(), shuffle_id, map_part, blocks)?;
        }
        let repush: Repush = {
            let core = Arc::clone(&self.core);
            let parent = Arc::clone(&self.parent);
            let codec = Arc::clone(&codec);
            let cluster = Arc::clone(&cluster);
            Arc::new(move |lost: &[usize]| {
                core.events
                    .emit(Event::LineageRecovery { shuffle: shuffle_id, lost: lost.len() as u64 });
                let recomputed = core.run_partition_subset(&parent, Arc::clone(&map_f), lost)?;
                for (&map_part, blocks) in lost.iter().zip(&recomputed) {
                    push_blocks(&cluster, codec.as_ref(), shuffle_id, map_part, blocks)?;
                }
                Ok(())
            })
        };
        let remote = Arc::new(RemoteShuffle {
            shuffle: shuffle_id,
            num_maps,
            codec,
            cluster: Arc::clone(&cluster),
            repush,
            recovery: Mutex::new(()),
        });
        let ascending = self.ascending;
        let tasks: Vec<_> = (0..num)
            .map(|r| {
                let remote = Arc::clone(&remote);
                let key_fn = Arc::clone(&self.key_fn);
                // Naturally re-runnable: a retry just fetches again.
                move |_tc: &TaskContext| {
                    let mut bucket: Vec<T> = remote.fetch_concat(r);
                    bucket.sort_by_cached_key(|t| key_fn(t));
                    if !ascending {
                        bucket.reverse();
                    }
                    bucket
                }
            })
            .collect();
        self.finish(self.core.pool.run(tasks)?);
        // The sorted output is driver-local, so `remote` dies here and its
        // Drop releases the shuffle's blocks cluster-wide.
        Ok(())
    }
}

impl<T: Data, K: Data + Ord> RddOp<T> for SortedRdd<T, K> {
    fn num_partitions(&self) -> usize {
        self.num_parts
    }
    fn compute(&self, split: usize, _tc: &TaskContext) -> BoxIter<T> {
        let data = Arc::clone(self.sorted.get().expect("prepare ran before compute"));
        Box::new(ArcPartIter { data, part: split, i: 0 })
    }
}

/// Pairs each element with its global index. The offsets of all partitions
/// are computed with one counting pass at prepare time — the DataFrame-side
/// version of this trick (an incremental column without a single-threaded
/// bottleneck) is what the paper's `count` clause uses (§4.9).
pub struct ZipWithIndexRdd<T: Data> {
    core: Arc<Core>,
    parent: Arc<dyn RddOp<T>>,
    offsets: OnceLock<Arc<Vec<u64>>>,
}

impl<T: Data> ZipWithIndexRdd<T> {
    pub(crate) fn new(core: Arc<Core>, parent: Arc<dyn RddOp<T>>) -> Self {
        ZipWithIndexRdd { core, parent, offsets: OnceLock::new() }
    }
}

impl<T: Data> Preparable for ZipWithIndexRdd<T> {
    fn prepare(&self) -> Result<()> {
        if self.offsets.get().is_some() {
            return Ok(());
        }
        let counts = self
            .core
            .run_partitions(&self.parent, Arc::new(|iter: BoxIter<T>, _| iter.count() as u64))?;
        let mut offsets = Vec::with_capacity(counts.len());
        let mut acc = 0u64;
        for c in counts {
            offsets.push(acc);
            acc += c;
        }
        let _ = self.offsets.set(Arc::new(offsets));
        Ok(())
    }
}

impl<T: Data> RddOp<(T, u64)> for ZipWithIndexRdd<T> {
    fn num_partitions(&self) -> usize {
        self.parent.num_partitions()
    }
    fn compute(&self, split: usize, tc: &TaskContext) -> BoxIter<(T, u64)> {
        let offset = self.offsets.get().expect("prepare ran before compute")[split];
        Box::new(
            self.parent.compute(split, tc).enumerate().map(move |(i, t)| (t, offset + i as u64)),
        )
    }
}
