//! The driver: owns the executor pool, shuffle bookkeeping, storage and
//! metrics, and hands out RDDs and DataFrames.

use crate::cache::CacheManager;
use crate::conf::{DistMode, SparkliteConf};
use crate::dist::Cluster;
use crate::error::Result;
use crate::events::{self, Event, EventBus, EventCollector, EventListener, Timeline};
use crate::executor::{ExecutorPool, Metrics, MetricsSnapshot, TaskContext, TaskFn};
use crate::faults::FaultInjector;
use crate::rdd::{BoxIter, ParallelCollectionRdd, Rdd, RddOp, TextFileRdd};
use crate::storage::SimHdfs;
use crate::Data;
use std::sync::Arc;

/// Shared driver state. RDD operators hold an `Arc<Core>` so that lazily
/// prepared stages (shuffles, sorts) can schedule jobs themselves.
pub struct Core {
    pub(crate) conf: SparkliteConf,
    pub(crate) pool: ExecutorPool,
    pub(crate) metrics: Arc<Metrics>,
    pub(crate) hdfs: SimHdfs,
    pub(crate) injector: Arc<FaultInjector>,
    pub(crate) cache: CacheManager,
    pub(crate) events: Arc<EventBus>,
    pub(crate) collector: Option<Arc<EventCollector>>,
    /// The distribution layer's executor cluster; `None` in local threaded
    /// mode, which keeps that path byte-identical to pre-cluster releases.
    pub(crate) cluster: Option<Arc<Cluster>>,
}

impl Core {
    /// Runs one task per partition of `op`, mapping each partition's
    /// iterator through `f`, and returns the per-partition results in
    /// partition order. Prepares (materializes) shuffle dependencies first,
    /// driver-side — sparklite's equivalent of Spark's DAG-scheduler stages.
    #[allow(clippy::type_complexity)] // one shared callback signature, aliasing hides more than it helps
    pub(crate) fn run_partitions<T: Data, U: Send + 'static>(
        self: &Arc<Self>,
        op: &Arc<dyn RddOp<T>>,
        f: Arc<dyn Fn(BoxIter<T>, &TaskContext) -> U + Send + Sync>,
    ) -> Result<Vec<U>> {
        op.prepare()?;
        let splits: Vec<usize> = (0..op.num_partitions()).collect();
        self.run_partition_subset(op, f, &splits)
    }

    /// Runs tasks for an explicit subset of `op`'s partitions — without
    /// re-preparing dependencies — and returns results in `splits` order.
    /// This is the lineage-recovery entry point: when a shuffle loses map
    /// outputs, only the affected parent partitions are recomputed, and each
    /// task keeps its original partition index so seeded per-partition
    /// sampling stays deterministic.
    #[allow(clippy::type_complexity)] // shares run_partitions' callback signature
    pub(crate) fn run_partition_subset<T: Data, U: Send + 'static>(
        self: &Arc<Self>,
        op: &Arc<dyn RddOp<T>>,
        f: Arc<dyn Fn(BoxIter<T>, &TaskContext) -> U + Send + Sync>,
        splits: &[usize],
    ) -> Result<Vec<U>> {
        let stage = self.events.next_stage_id();
        self.events.emit(Event::StageSubmitted { stage, num_tasks: splits.len() as u64 });
        let tasks: Vec<(usize, Arc<TaskFn<U>>)> = splits
            .iter()
            .map(|&split| {
                let op = Arc::clone(op);
                let f = Arc::clone(&f);
                let task: Arc<TaskFn<U>> =
                    Arc::new(move |tc: &TaskContext| f(op.compute(split, tc), tc));
                (split, task)
            })
            .collect();
        let out = events::with_stage(stage, || self.pool.run_labeled(tasks));
        if self.events.verbose() {
            self.events.emit(Event::StageCompleted { stage, ok: out.is_ok() });
        }
        out
    }

    /// The executor cluster, when the context runs distributed.
    pub(crate) fn cluster(&self) -> Option<&Arc<Cluster>> {
        self.cluster.as_ref()
    }
}

/// The user-facing entry point, analogous to `SparkContext`.
///
/// Cloning is cheap (it is an `Arc`); all clones share the same executor
/// pool, simulated HDFS namespace, and metrics.
#[derive(Clone)]
pub struct SparkliteContext {
    core: Arc<Core>,
}

impl SparkliteContext {
    pub fn new(conf: SparkliteConf) -> Self {
        let metrics = Arc::new(Metrics::default());
        let events = Arc::new(EventBus::new(Arc::clone(&metrics)));
        let collector = if conf.collect_events {
            // Share the bus epoch so merged executor event timestamps land
            // on the same µs axis as locally collected ones.
            let c = Arc::new(EventCollector::with_epoch(conf.event_capacity, events.epoch()));
            events.register(Arc::clone(&c) as Arc<dyn EventListener>);
            Some(c)
        } else {
            None
        };
        let injector = Arc::new(FaultInjector::new(conf.faults.clone(), Arc::clone(&events)));
        let pool = ExecutorPool::new(conf.executors, Arc::clone(&events), Arc::clone(&injector));
        let hdfs = SimHdfs::new(conf.block_size, conf.faults.read_latency_us);
        let cache = CacheManager::new(conf.cache_budget_bytes, Arc::clone(&events));
        let cluster = match conf.dist.mode {
            DistMode::Off => None,
            _ => Some(
                Cluster::start(&conf.dist, Arc::clone(&events))
                    .expect("failed to start executor cluster"),
            ),
        };
        SparkliteContext {
            core: Arc::new(Core {
                conf,
                pool,
                metrics,
                hdfs,
                injector,
                cache,
                events,
                collector,
                cluster,
            }),
        }
    }

    /// A context with default configuration.
    pub fn default_local() -> Self {
        Self::new(SparkliteConf::default())
    }

    pub fn conf(&self) -> &SparkliteConf {
        &self.core.conf
    }

    /// The number of executor worker threads.
    pub fn executors(&self) -> usize {
        self.core.pool.size()
    }

    /// The simulated HDFS namespace attached to this context.
    pub fn hdfs(&self) -> &SimHdfs {
        &self.core.hdfs
    }

    /// A point-in-time copy of the engine counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.core.metrics.snapshot()
    }

    /// The partition cache backing `Rdd::persist`.
    pub fn cache(&self) -> &CacheManager {
        &self.core.cache
    }

    /// The scheduler event bus.
    pub fn event_bus(&self) -> &Arc<EventBus> {
        &self.core.events
    }

    /// Registers an additional scheduler-event listener. Note that this
    /// enables verbose (observational) event emission for the context's
    /// remaining lifetime.
    pub fn add_event_listener(&self, listener: Arc<dyn EventListener>) {
        self.core.events.register(listener);
    }

    /// The bounded event collector, when the context was built with
    /// [`SparkliteConf::collect_events`].
    pub fn event_collector(&self) -> Option<&Arc<EventCollector>> {
        self.core.collector.as_ref()
    }

    /// A [`Timeline`] over the events collected so far; `None` without a
    /// collector.
    pub fn timeline(&self) -> Option<Timeline> {
        self.core.collector.as_ref().map(|c| c.timeline())
    }

    #[allow(dead_code)] // exercised by in-crate tests and future callers
    pub(crate) fn core(&self) -> &Arc<Core> {
        &self.core
    }

    /// The executor cluster, when this context was configured with a
    /// [`DistMode`] other than `Off`.
    pub fn cluster(&self) -> Option<&Arc<Cluster>> {
        self.core.cluster.as_ref()
    }

    /// Gracefully stops the executor cluster (no-op in local mode).
    ///
    /// Heartbeats and block events arrive on supervisor threads, so a
    /// distributed run that wants an exact [`Timeline::reconcile`] must
    /// quiesce the cluster *before* snapshotting metrics — this is that
    /// barrier. Jobs run after shutdown fall back to driver-local shuffles.
    pub fn shutdown_cluster(&self) {
        if let Some(cluster) = &self.core.cluster {
            cluster.shutdown();
        }
    }

    /// Distributes a local collection over `num_partitions` slices
    /// (Spark's `parallelize`).
    pub fn parallelize<T: Data>(&self, data: Vec<T>, num_partitions: usize) -> Rdd<T> {
        let op = ParallelCollectionRdd::new(data, num_partitions.max(1));
        Rdd::new(Arc::clone(&self.core), Arc::new(op))
    }

    /// Opens a text file as an RDD of lines, one partition per storage
    /// block. Paths with `hdfs://`/`s3://` schemes resolve against the
    /// simulated HDFS; everything else reads the local filesystem.
    pub fn text_file(&self, path: &str) -> Result<Rdd<Arc<str>>> {
        self.text_file_with(path, || |line: &str| Some(Arc::<str>::from(line)))
    }

    /// [`text_file`](Self::text_file), mapping each line as it lies in its
    /// storage block, with no copy: a task calls `parser` once for its
    /// partition, then the function it returns on each line of the block.
    /// A line it maps to `None` yields no record, but still counts as an
    /// input record.
    pub fn text_file_with<U: Data, F>(
        &self,
        path: &str,
        parser: impl Fn() -> F + Send + Sync + 'static,
    ) -> Result<Rdd<U>>
    where
        F: FnMut(&str) -> Option<U> + Send + 'static,
    {
        let op = TextFileRdd::open(Arc::clone(&self.core), path, parser)?;
        Ok(Rdd::new(Arc::clone(&self.core), Arc::new(op)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelize_collect_roundtrip() {
        let sc = SparkliteContext::new(SparkliteConf::default().with_executors(4));
        let data: Vec<i64> = (0..1000).collect();
        let rdd = sc.parallelize(data.clone(), 7);
        assert_eq!(rdd.num_partitions(), 7);
        assert_eq!(rdd.collect().unwrap(), data);
    }

    #[test]
    fn parallelize_fewer_elements_than_partitions() {
        let sc = SparkliteContext::default_local();
        let rdd = sc.parallelize(vec![1, 2], 8);
        assert_eq!(rdd.collect().unwrap(), vec![1, 2]);
        assert_eq!(rdd.count().unwrap(), 2);
    }

    #[test]
    fn text_file_with_maps_lines_in_place_and_counts_them() {
        let sc = SparkliteContext::new(SparkliteConf::default().with_block_size(1024));
        let text: String = (0..500).map(|i| format!("{i}\r\n")).collect();
        sc.hdfs().put_text("/d/n.txt", &text).unwrap();
        // One parser per partition: each numbers its own lines from zero.
        let rdd = sc
            .text_file_with("hdfs:///d/n.txt", || {
                let mut seen = 0u64;
                move |line: &str| {
                    seen += 1;
                    Some((line.parse::<u64>().unwrap(), seen))
                }
            })
            .unwrap();
        let before = sc.metrics().input_records;
        let rows = rdd.collect().unwrap();
        assert_eq!(sc.metrics().input_records - before, 500);
        assert_eq!(rows.iter().map(|r| r.0).collect::<Vec<_>>(), (0..500).collect::<Vec<_>>());
        let firsts = rows.iter().filter(|r| r.1 == 1).count();
        assert_eq!(firsts, rdd.num_partitions());
        assert!(firsts > 1);
    }

    #[test]
    fn text_file_with_drops_the_lines_mapped_to_none_but_counts_them() {
        let sc = SparkliteContext::new(SparkliteConf::default().with_block_size(64));
        let text: String =
            (0..100).map(|i| if i % 3 == 0 { "\n".into() } else { format!("{i}\n") }).collect();
        sc.hdfs().put_text("/d/gaps.txt", &text).unwrap();
        let rdd = sc
            .text_file_with("hdfs:///d/gaps.txt", || |line: &str| line.parse::<u64>().ok())
            .unwrap();
        let before = sc.metrics().input_records;
        let rows = rdd.collect().unwrap();
        assert_eq!(sc.metrics().input_records - before, 100);
        assert_eq!(rows, (0..100).filter(|i| i % 3 != 0).collect::<Vec<u64>>());
    }

    #[test]
    fn text_file_partitions_by_block() {
        let sc = SparkliteContext::new(SparkliteConf::default().with_block_size(1024));
        let text: String = (0..500).map(|i| format!("row {i}\n")).collect();
        sc.hdfs().put_text("/d/t.txt", &text).unwrap();
        let rdd = sc.text_file("hdfs:///d/t.txt").unwrap();
        assert!(rdd.num_partitions() > 1);
        let lines = rdd.collect().unwrap();
        assert_eq!(lines.len(), 500);
        assert_eq!(lines[0].as_ref(), "row 0");
        assert_eq!(lines[499].as_ref(), "row 499");
    }

    #[test]
    fn missing_file_is_an_error() {
        let sc = SparkliteContext::default_local();
        assert!(sc.text_file("hdfs:///nope").is_err());
    }

    #[test]
    fn metrics_visible_from_driver() {
        let sc = SparkliteContext::default_local();
        sc.parallelize((0..10).collect::<Vec<i32>>(), 2).count().unwrap();
        let m = sc.metrics();
        assert_eq!(m.jobs, 1);
        assert_eq!(m.tasks, 2);
    }
}
