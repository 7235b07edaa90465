//! Structured scheduler events: the observability backbone.
//!
//! Spark attributes cost to jobs, stages and tasks through its
//! `SparkListener` bus and event log; this module is sparklite's equivalent.
//! Every scheduler-visible fact — job and stage boundaries, task attempts
//! with their per-task counters, shuffle writes and fetches, cache traffic,
//! injected chaos — is emitted as a typed [`Event`] on a shared
//! [`EventBus`]. The engine-wide [`Metrics`] counters are
//! *derived* from this stream by [`MetricsListener`]; they are no longer a
//! separate code path, so a per-stage breakdown and the global snapshot can
//! never disagree.
//!
//! Emission cost: events that feed the global counters are always emitted
//! (one uncontended `RwLock` read + a few relaxed atomic adds, comparable to
//! the direct counter increments they replace). Purely observational events
//! (`TaskStart`, `JobEnd`, `StageCompleted`, `ShuffleFetch`) are gated
//! behind [`EventBus::verbose`], a single relaxed atomic load that is false
//! until a collector or user listener registers — so the fault-free fast
//! path stays within noise (asserted A/B in `tests/events.rs`).
//!
//! Determinism: events carry **no timestamps**. For a fixed seed the event
//! *data* is reproducible; the bounded [`EventCollector`] stamps arrival
//! times (µs since its epoch) on the side, and only those stamps — plus
//! `busy_us` — vary run to run. [`Timeline`] turns a collected stream into
//! per-job summaries (task-time histograms, p50/p95/max skew, retry and
//! straggler attribution) and exports the JSONL event log and Chrome
//! `chrome://tracing` trace.

use crate::error::FailureCause;
use crate::executor::{bucket_of, Metrics, MetricsSnapshot, HIST_BUCKETS};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// Per-task counter totals, snapshotted into [`Event::TaskEnd`] from the
/// task's scratch [`TaskMetrics`](crate::executor::TaskMetrics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaskCounters {
    pub input_records: u64,
    pub input_bytes: u64,
    pub shuffle_records: u64,
    pub shuffle_bytes: u64,
    pub output_records: u64,
    /// Persisted-partition reads this task served from cache / recomputed.
    /// Display-only: the global cache counters are derived from
    /// [`Event::CacheRead`], not from these.
    pub cache_hits: u64,
    pub cache_misses: u64,
}

impl TaskCounters {
    pub fn accumulate(&mut self, other: &TaskCounters) {
        self.input_records += other.input_records;
        self.input_bytes += other.input_bytes;
        self.shuffle_records += other.shuffle_records;
        self.shuffle_bytes += other.shuffle_bytes;
        self.output_records += other.output_records;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
    }
}

/// A typed scheduler event. Field conventions: `job` is the scheduler-wide
/// job id (one per task wave), `stage` the id handed out by the lineage
/// walker for RDD stage executions, `partition` the task's partition label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A task wave entered the scheduler. `stage` links the job to the RDD
    /// stage that submitted it, when one did (driver-side `run_partitions`);
    /// bare `pool.run` jobs (e.g. sort output passes) have `None`.
    JobStart {
        job: u64,
        stage: Option<u64>,
        num_tasks: u64,
    },
    JobEnd {
        job: u64,
        ok: bool,
    },
    StageSubmitted {
        stage: u64,
        num_tasks: u64,
    },
    StageCompleted {
        stage: u64,
        ok: bool,
    },
    TaskStart {
        job: u64,
        partition: u64,
        attempt: u32,
        speculative: bool,
        worker: Option<u64>,
    },
    TaskEnd {
        job: u64,
        partition: u64,
        attempt: u32,
        speculative: bool,
        /// Executor worker index, `None` for driver/inline execution.
        worker: Option<u64>,
        busy_us: u64,
        /// Submit→start queueing delay: how long the attempt waited in the
        /// pool channel before a worker picked it up (0 for inline runs).
        queue_us: u64,
        counters: TaskCounters,
        failure: Option<FailureCause>,
    },
    /// The driver re-launched a failed task within its retry budget.
    TaskResubmitted {
        job: u64,
        partition: u64,
        next_attempt: u32,
    },
    /// The driver launched a speculative copy of a straggling task.
    SpeculativeLaunch {
        job: u64,
        partition: u64,
        attempt: u32,
    },
    /// A speculative copy committed its slot before the original attempt.
    SpeculativeWin {
        job: u64,
        partition: u64,
    },
    /// Lineage recovery re-ran `lost` parent tasks of a shuffle.
    LineageRecovery {
        shuffle: u64,
        lost: u64,
    },
    ShuffleWrite {
        job: u64,
        partition: u64,
        records: u64,
        bytes: u64,
    },
    ShuffleFetch {
        job: u64,
        partition: u64,
        records: u64,
        bytes: u64,
    },
    CacheRead {
        rdd: u64,
        split: u64,
        hit: bool,
    },
    CachePut {
        rdd: u64,
        split: u64,
        bytes: u64,
        total_bytes: u64,
    },
    CacheEvict {
        rdd: u64,
        split: u64,
        bytes: u64,
        total_bytes: u64,
    },
    /// A persisted RDD (or one split) was dropped; `total_bytes` is the
    /// cache occupancy after release.
    CacheRelease {
        rdd: u64,
        splits: u64,
        total_bytes: u64,
    },
    /// The chaos layer injected a fault. `a`/`b` are the injector's hash
    /// keys for the kind (stage/partition, file-hash/block, …).
    ChaosInject {
        kind: &'static str,
        a: u64,
        b: u64,
        attempt: u32,
    },
    /// The logical-plan optimizer applied one named rewrite rule (and its
    /// property contract held). `rule` is the `RBLO` id; `stage` is the
    /// optimizer fixpoint pass during which it fired — not a scheduler
    /// stage id.
    OptimizerRuleFired {
        rule: &'static str,
        stage: u64,
    },
    /// An executor worker (process or in-process thread) completed the
    /// registration handshake with the driver's cluster control plane.
    ExecutorRegistered {
        worker: u64,
        pid: u64,
    },
    /// A heartbeat arrived from a live executor worker. `seq` is the
    /// worker's monotonically increasing beat number.
    ExecutorHeartbeat {
        worker: u64,
        seq: u64,
    },
    /// The driver declared an executor dead (connection loss, heartbeat
    /// deadline lapse, or a failed block fetch).
    ExecutorLost {
        worker: u64,
        reason: String,
    },
    /// One map task's output blocks landed in an executor's block store.
    /// Emitted *by the worker* that stored them and forwarded to the
    /// driver; `dur_us` is the worker-side store time.
    BlockPush {
        shuffle: u64,
        map_part: u64,
        blocks: u64,
        bytes: u64,
        worker: u64,
        dur_us: u64,
    },
    /// A reducer fetched one map-output block from an executor's block
    /// service. Emitted *by the serving worker*; `dur_us` is the
    /// worker-side decode+serve time.
    BlockFetch {
        shuffle: u64,
        map_part: u64,
        reduce_part: u64,
        bytes: u64,
        worker: u64,
        dur_us: u64,
    },
    /// Executor-side events are known to be missing from the stream: the
    /// worker died (or was killed) with `lost` events unaccounted for —
    /// gaps in its forwarded sequence plus drops its bounded buffer
    /// reported. `last_seq` is the last sequence number that did arrive.
    ExecutorEventsLost {
        worker: u64,
        last_seq: u64,
        lost: u64,
    },
    /// A columnar pipeline segment drained one partition: `fused_ops`
    /// operators executed as a single vectorized pass over `batches`
    /// [`ColumnBatch`](crate::dataframe::batch::ColumnBatch)es, emitting
    /// `rows` rows. `fused_ops >= 2` marks a genuinely fused (multi-operator)
    /// pipeline. Emitted once per partition per execution, at input
    /// exhaustion — a re-executed (retried) partition reports again, in
    /// lockstep with the task counters.
    ColumnarBatch {
        fused_ops: u64,
        batches: u64,
        rows: u64,
    },
    /// The vectorized GROUP BY kernel drained one partition: `rows_in` rows
    /// (post-filter, across `batches` batches) collapsed into `groups_out`
    /// distinct groups before the shuffle. The `rows_in / groups_out` ratio
    /// is the map-side pre-aggregation factor; like `ColumnarBatch`, the
    /// event fires once per partition per execution.
    AggBatch {
        batches: u64,
        rows_in: u64,
        groups_out: u64,
    },
}

impl Event {
    /// The event's type tag, as used in the JSONL `"ev"` field.
    pub fn name(&self) -> &'static str {
        match self {
            Event::JobStart { .. } => "JobStart",
            Event::JobEnd { .. } => "JobEnd",
            Event::StageSubmitted { .. } => "StageSubmitted",
            Event::StageCompleted { .. } => "StageCompleted",
            Event::TaskStart { .. } => "TaskStart",
            Event::TaskEnd { .. } => "TaskEnd",
            Event::TaskResubmitted { .. } => "TaskResubmitted",
            Event::SpeculativeLaunch { .. } => "SpeculativeLaunch",
            Event::SpeculativeWin { .. } => "SpeculativeWin",
            Event::LineageRecovery { .. } => "LineageRecovery",
            Event::ShuffleWrite { .. } => "ShuffleWrite",
            Event::ShuffleFetch { .. } => "ShuffleFetch",
            Event::CacheRead { .. } => "CacheRead",
            Event::CachePut { .. } => "CachePut",
            Event::CacheEvict { .. } => "CacheEvict",
            Event::CacheRelease { .. } => "CacheRelease",
            Event::ChaosInject { .. } => "ChaosInject",
            Event::OptimizerRuleFired { .. } => "OptimizerRuleFired",
            Event::ExecutorRegistered { .. } => "ExecutorRegistered",
            Event::ExecutorHeartbeat { .. } => "ExecutorHeartbeat",
            Event::ExecutorLost { .. } => "ExecutorLost",
            Event::BlockPush { .. } => "BlockPush",
            Event::BlockFetch { .. } => "BlockFetch",
            Event::ExecutorEventsLost { .. } => "ExecutorEventsLost",
            Event::ColumnarBatch { .. } => "ColumnarBatch",
            Event::AggBatch { .. } => "AggBatch",
        }
    }
}

/// A consumer of scheduler events. Listeners must be cheap and non-blocking:
/// they run on the emitting thread (workers included).
pub trait EventListener: Send + Sync {
    fn on_event(&self, event: &Event);

    /// An event forwarded from another process, carrying the arrival stamp
    /// the merge layer assigned (worker-side stamp plus the handshake clock
    /// offset). Counter-deriving listeners treat it exactly like a local
    /// event; timestamp-storing listeners override this to keep the given
    /// stamp instead of reading their own clock.
    fn on_remote_event(&self, at_us: u64, event: &Event) {
        let _ = at_us;
        self.on_event(event);
    }
}

thread_local! {
    /// The RDD stage whose `run_partition_subset` is currently driving the
    /// executor pool on this thread; links `JobStart` to its stage. Works
    /// for nested (inline) jobs too, because those run on the same thread.
    static CURRENT_STAGE: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Runs `f` with `stage` recorded as this thread's submitting stage.
pub(crate) fn with_stage<R>(stage: u64, f: impl FnOnce() -> R) -> R {
    CURRENT_STAGE.with(|s| {
        let prev = s.replace(Some(stage));
        let r = f();
        s.set(prev);
        r
    })
}

pub(crate) fn current_stage() -> Option<u64> {
    CURRENT_STAGE.with(|s| s.get())
}

/// The shared event bus. Always carries a [`MetricsListener`] (the global
/// counters are derived from the stream); additional listeners — the
/// bounded [`EventCollector`], user listeners — flip [`EventBus::verbose`]
/// so emit sites can skip building purely observational events when nobody
/// is watching.
pub struct EventBus {
    listeners: RwLock<Vec<Arc<dyn EventListener>>>,
    verbose: AtomicBool,
    next_job: AtomicU64,
    next_stage: AtomicU64,
    /// The context-wide time origin: the collector's arrival stamps, the
    /// cluster's heartbeat deadlines and the worker clock offsets are all
    /// measured against this one instant, so they compose into one timeline.
    epoch: Instant,
}

impl EventBus {
    /// A bus whose only listener derives the global `Metrics` counters.
    pub fn new(metrics: Arc<Metrics>) -> Self {
        EventBus {
            listeners: RwLock::new(vec![Arc::new(MetricsListener { metrics })]),
            verbose: AtomicBool::new(false),
            next_job: AtomicU64::new(0),
            next_stage: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    /// The shared time origin (see the `epoch` field).
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Registers a listener and enables verbose (observational) events.
    pub fn register(&self, listener: Arc<dyn EventListener>) {
        self.listeners.write().expect("listener lock").push(listener);
        self.verbose.store(true, Ordering::Relaxed);
    }

    /// Whether any listener beyond the metrics deriver is attached. Emit
    /// sites use this as the cheap enabled-check for events that feed no
    /// global counter.
    #[inline]
    pub fn verbose(&self) -> bool {
        self.verbose.load(Ordering::Relaxed)
    }

    pub fn emit(&self, event: Event) {
        for l in self.listeners.read().expect("listener lock").iter() {
            l.on_event(&event);
        }
    }

    /// Emits an event forwarded from an executor process, preserving the
    /// merge layer's arrival stamp (see
    /// [`EventListener::on_remote_event`]).
    pub fn emit_remote(&self, at_us: u64, event: &Event) {
        for l in self.listeners.read().expect("listener lock").iter() {
            l.on_remote_event(at_us, event);
        }
    }

    pub(crate) fn next_job_id(&self) -> u64 {
        self.next_job.fetch_add(1, Ordering::Relaxed)
    }

    pub(crate) fn next_stage_id(&self) -> u64 {
        self.next_stage.fetch_add(1, Ordering::Relaxed)
    }
}

/// Derives every global [`Metrics`] counter from the event stream. The
/// mapping is one-to-one with the increments the scheduler used to perform
/// directly, so all existing counter semantics (and tests) are preserved.
pub struct MetricsListener {
    metrics: Arc<Metrics>,
}

impl EventListener for MetricsListener {
    fn on_event(&self, event: &Event) {
        let m = &self.metrics;
        let add = |c: &AtomicU64, n: u64| {
            c.fetch_add(n, Ordering::Relaxed);
        };
        match event {
            Event::JobStart { num_tasks, .. } => {
                add(&m.jobs, 1);
                add(&m.tasks, *num_tasks);
            }
            Event::StageSubmitted { .. } => add(&m.stages, 1),
            Event::TaskEnd { busy_us, queue_us, counters, failure, .. } => {
                add(&m.task_busy_us, *busy_us);
                m.task_duration_hist.record(*busy_us);
                m.queue_wait_hist.record(*queue_us);
                add(&m.input_records, counters.input_records);
                add(&m.input_bytes, counters.input_bytes);
                add(&m.shuffle_records, counters.shuffle_records);
                add(&m.shuffle_bytes, counters.shuffle_bytes);
                add(&m.output_records, counters.output_records);
                if failure.is_some() {
                    add(&m.failed_tasks, 1);
                }
            }
            Event::TaskResubmitted { .. } => add(&m.retried_tasks, 1),
            Event::SpeculativeLaunch { .. } => add(&m.speculated_tasks, 1),
            Event::SpeculativeWin { .. } => add(&m.speculative_wins, 1),
            Event::LineageRecovery { lost, .. } => add(&m.recomputed_tasks, *lost),
            Event::ChaosInject { .. } => add(&m.injected_faults, 1),
            Event::OptimizerRuleFired { .. } => add(&m.optimizer_rule_fires, 1),
            Event::CacheRead { hit, .. } => {
                add(if *hit { &m.cache_hits } else { &m.cache_misses }, 1)
            }
            Event::CachePut { total_bytes, .. } | Event::CacheRelease { total_bytes, .. } => {
                m.cached_bytes.store(*total_bytes, Ordering::Relaxed)
            }
            Event::CacheEvict { total_bytes, .. } => {
                add(&m.cache_evictions, 1);
                m.cached_bytes.store(*total_bytes, Ordering::Relaxed);
            }
            Event::ExecutorRegistered { .. } => add(&m.executors_registered, 1),
            Event::ExecutorHeartbeat { .. } => add(&m.heartbeats, 1),
            Event::ExecutorLost { .. } => add(&m.executors_lost, 1),
            Event::BlockPush { blocks, bytes, .. } => {
                add(&m.blocks_pushed, *blocks);
                add(&m.block_bytes_pushed, *bytes);
            }
            Event::BlockFetch { bytes, dur_us, .. } => {
                add(&m.blocks_fetched, 1);
                add(&m.block_bytes_fetched, *bytes);
                m.block_fetch_hist.record(*dur_us);
            }
            Event::ExecutorEventsLost { lost, .. } => add(&m.events_lost, *lost),
            Event::ColumnarBatch { fused_ops, batches, rows } => {
                add(&m.columnar_batches, *batches);
                add(&m.columnar_rows, *rows);
                if *fused_ops >= 2 {
                    add(&m.fused_pipelines, 1);
                }
            }
            Event::AggBatch { rows_in, groups_out, .. } => {
                add(&m.agg_rows_in, *rows_in);
                add(&m.agg_groups_out, *groups_out);
            }
            // Observational only: the write side already landed in TaskEnd
            // counters; job/stage completion feeds no counter.
            Event::JobEnd { .. }
            | Event::StageCompleted { .. }
            | Event::TaskStart { .. }
            | Event::ShuffleWrite { .. }
            | Event::ShuffleFetch { .. } => {}
        }
    }
}

struct CollectorState {
    events: Vec<(u64, Event)>,
    dropped: u64,
}

/// A bounded in-memory event sink. Stamps each event with µs since the
/// collector's creation; once `capacity` events are held, further events
/// are counted in [`EventCollector::dropped`] instead of stored (the
/// derived metrics keep counting regardless — only the timeline truncates).
pub struct EventCollector {
    epoch: Instant,
    capacity: usize,
    state: Mutex<CollectorState>,
}

impl EventCollector {
    pub fn new(capacity: usize) -> Self {
        Self::with_epoch(capacity, Instant::now())
    }

    /// A collector stamping arrival times against a shared `epoch`; the
    /// context passes [`EventBus::epoch`] so local stamps and forwarded
    /// worker stamps land on one timeline.
    pub fn with_epoch(capacity: usize, epoch: Instant) -> Self {
        EventCollector {
            epoch,
            capacity: capacity.max(1),
            state: Mutex::new(CollectorState { events: Vec::new(), dropped: 0 }),
        }
    }

    /// All collected `(arrival µs, event)` pairs, in arrival order.
    pub fn events(&self) -> Vec<(u64, Event)> {
        self.state.lock().expect("collector lock").events.clone()
    }

    /// Events discarded because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.state.lock().expect("collector lock").dropped
    }

    pub fn clear(&self) {
        let mut s = self.state.lock().expect("collector lock");
        s.events.clear();
        s.dropped = 0;
    }

    pub fn timeline(&self) -> Timeline {
        Timeline::from_events(self.events())
    }
}

impl EventCollector {
    fn store(&self, at_us: u64, event: &Event) {
        let mut s = self.state.lock().expect("collector lock");
        if s.events.len() >= self.capacity {
            s.dropped += 1;
        } else {
            s.events.push((at_us, event.clone()));
        }
    }
}

impl EventListener for EventCollector {
    fn on_event(&self, event: &Event) {
        self.store(self.epoch.elapsed().as_micros() as u64, event);
    }

    /// Forwarded executor events keep the stamp the merge layer assigned
    /// (the worker's clock mapped through the handshake offset) instead of
    /// this collector's arrival clock.
    fn on_remote_event(&self, at_us: u64, event: &Event) {
        self.store(at_us, event);
    }
}

/// Reassembles one executor worker's batched, sequence-numbered event
/// stream into emission order, on the driver's clock.
///
/// Workers number every event they emit with a per-worker sequence and ship
/// them in batches (piggybacked on heartbeats, plus eager flushes). Batches
/// can in principle arrive out of order or with gaps (a killed worker's
/// tail never arrives); the merge buffers out-of-order events and releases
/// contiguous runs — **sequence numbers win over timestamps**, which are
/// skewed worker clocks mapped through the handshake-measured offset and
/// recorded for rendering, never trusted for ordering.
pub struct ExecutorStreamMerge {
    /// Driver-epoch µs minus worker-epoch µs at the registration handshake.
    offset_us: i64,
    /// The next sequence number the contiguous prefix is waiting for.
    next_seq: u64,
    /// Out-of-order events buffered until their predecessors arrive.
    pending: BTreeMap<u64, (u64, Event)>,
    /// Highest sequence number observed so far (0 before any arrive).
    last_seq: u64,
    /// Cumulative events the worker itself reported dropping (its bounded
    /// forward buffer overflowed before a flush).
    dropped: u64,
    /// Events known lost at finalization: sequence gaps plus `dropped`.
    lost: u64,
}

impl ExecutorStreamMerge {
    pub fn new(offset_us: i64) -> Self {
        ExecutorStreamMerge {
            offset_us,
            next_seq: 0,
            pending: BTreeMap::new(),
            last_seq: 0,
            dropped: 0,
            lost: 0,
        }
    }

    /// The handshake-measured clock offset (driver µs − worker µs).
    pub fn offset_us(&self) -> i64 {
        self.offset_us
    }

    /// Highest sequence number that has arrived.
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// Events known lost (valid after [`ExecutorStreamMerge::flush`]).
    pub fn lost(&self) -> u64 {
        self.lost
    }

    /// Ingests one batch: events numbered `first_seq..`, with `dropped` the
    /// worker's cumulative drop count. Returns the events that became
    /// contiguous with everything already released, in sequence order, with
    /// their stamps mapped onto the driver clock.
    pub fn push_batch(
        &mut self,
        first_seq: u64,
        dropped: u64,
        events: Vec<(u64, Event)>,
    ) -> Vec<(u64, Event)> {
        self.dropped = self.dropped.max(dropped);
        for (i, (at_worker_us, event)) in events.into_iter().enumerate() {
            let seq = first_seq + i as u64;
            if seq < self.next_seq {
                continue; // duplicate delivery of an already-released event
            }
            self.last_seq = self.last_seq.max(seq);
            let at_us = (at_worker_us as i64).saturating_add(self.offset_us).max(0) as u64;
            self.pending.insert(seq, (at_us, event));
        }
        let mut released = Vec::new();
        while let Some(entry) = self.pending.remove(&self.next_seq) {
            released.push(entry);
            self.next_seq += 1;
        }
        released
    }

    /// Finalizes the stream (worker death or shutdown): releases everything
    /// still buffered in sequence order, counting the gaps — plus the
    /// worker-reported drops — as lost events.
    pub fn flush(&mut self) -> Vec<(u64, Event)> {
        let mut released = Vec::new();
        let pending = std::mem::take(&mut self.pending);
        for (seq, entry) in pending {
            self.lost += seq.saturating_sub(self.next_seq);
            self.next_seq = seq + 1;
            released.push(entry);
        }
        // Fold the worker-reported drops in exactly once, even if the
        // stream is finalized twice (death racing shutdown).
        self.lost += std::mem::take(&mut self.dropped);
        released
    }
}

/// Aggregated view of one job (one task wave) in a collected timeline.
#[derive(Debug, Clone, Default)]
pub struct JobSummary {
    pub job: u64,
    /// The RDD stage that submitted this job, if any.
    pub stage: Option<u64>,
    pub num_tasks: u64,
    /// Task attempts that reported (completed or failed).
    pub attempts: u64,
    pub failed: u64,
    /// Attempts re-launched after retryable failures.
    pub resubmitted: u64,
    pub speculated: u64,
    pub speculative_wins: u64,
    pub ok: bool,
    /// Driver wall time from `JobStart` to `JobEnd` arrival.
    pub wall_us: u64,
    /// Per-attempt busy times, sorted ascending (the task-time histogram).
    pub busy_us: Vec<u64>,
    pub total_busy_us: u64,
    pub counters: TaskCounters,
}

impl JobSummary {
    fn percentile(&self, q: f64) -> u64 {
        if self.busy_us.is_empty() {
            return 0;
        }
        let idx = ((self.busy_us.len() - 1) as f64 * q).round() as usize;
        self.busy_us[idx.min(self.busy_us.len() - 1)]
    }

    pub fn p50_us(&self) -> u64 {
        self.percentile(0.50)
    }

    pub fn p95_us(&self) -> u64 {
        self.percentile(0.95)
    }

    pub fn p99_us(&self) -> u64 {
        self.percentile(0.99)
    }

    pub fn max_us(&self) -> u64 {
        self.busy_us.last().copied().unwrap_or(0)
    }

    /// Straggler skew: slowest attempt over median attempt (1.0 = uniform).
    pub fn skew(&self) -> f64 {
        let p50 = self.p50_us();
        if p50 == 0 {
            return 0.0;
        }
        self.max_us() as f64 / p50 as f64
    }
}

/// A queryable, exportable view over a collected event stream.
pub struct Timeline {
    events: Vec<(u64, Event)>,
    jobs: Vec<JobSummary>,
}

impl Timeline {
    pub fn from_events(events: Vec<(u64, Event)>) -> Self {
        let mut jobs: Vec<JobSummary> = Vec::new();
        let mut starts: std::collections::HashMap<u64, (usize, u64)> =
            std::collections::HashMap::new();
        for (at, ev) in &events {
            match ev {
                Event::JobStart { job, stage, num_tasks } => {
                    starts.insert(*job, (jobs.len(), *at));
                    jobs.push(JobSummary {
                        job: *job,
                        stage: *stage,
                        num_tasks: *num_tasks,
                        ..JobSummary::default()
                    });
                }
                Event::JobEnd { job, ok } => {
                    if let Some(&(i, started)) = starts.get(job) {
                        jobs[i].ok = *ok;
                        jobs[i].wall_us = at.saturating_sub(started);
                    }
                }
                Event::TaskEnd { job, busy_us, counters, failure, .. } => {
                    if let Some(&(i, _)) = starts.get(job) {
                        let j = &mut jobs[i];
                        j.attempts += 1;
                        j.busy_us.push(*busy_us);
                        j.total_busy_us += busy_us;
                        j.counters.accumulate(counters);
                        if failure.is_some() {
                            j.failed += 1;
                        }
                    }
                }
                Event::TaskResubmitted { job, .. } => {
                    if let Some(&(i, _)) = starts.get(job) {
                        jobs[i].resubmitted += 1;
                    }
                }
                Event::SpeculativeLaunch { job, .. } => {
                    if let Some(&(i, _)) = starts.get(job) {
                        jobs[i].speculated += 1;
                    }
                }
                Event::SpeculativeWin { job, .. } => {
                    if let Some(&(i, _)) = starts.get(job) {
                        jobs[i].speculative_wins += 1;
                    }
                }
                _ => {}
            }
        }
        for j in &mut jobs {
            j.busy_us.sort_unstable();
        }
        Timeline { events, jobs }
    }

    pub fn events(&self) -> &[(u64, Event)] {
        &self.events
    }

    pub fn jobs(&self) -> &[JobSummary] {
        &self.jobs
    }

    /// Counter totals summed over every task attempt in the timeline.
    pub fn totals(&self) -> TaskCounters {
        let mut t = TaskCounters::default();
        for j in &self.jobs {
            t.accumulate(&j.counters);
        }
        t
    }

    /// `(TaskStart, TaskEnd)` counts; equal when every started attempt also
    /// reported before collection stopped.
    pub fn task_event_counts(&self) -> (u64, u64) {
        let mut starts = 0;
        let mut ends = 0;
        for (_, ev) in &self.events {
            match ev {
                Event::TaskStart { .. } => starts += 1,
                Event::TaskEnd { .. } => ends += 1,
                _ => {}
            }
        }
        (starts, ends)
    }

    fn count(&self, name: &str) -> u64 {
        self.events.iter().filter(|(_, e)| e.name() == name).count() as u64
    }

    /// Checks that this timeline's aggregates equal a [`MetricsSnapshot`]
    /// taken after the run — they are derived from the same stream, so any
    /// difference means events were dropped or emitted outside collection.
    /// Returns the first discrepancy as an error string.
    pub fn reconcile(&self, snap: &MetricsSnapshot) -> Result<(), String> {
        let check = |what: &str, got: u64, want: u64| {
            if got == want {
                Ok(())
            } else {
                Err(format!("{what}: timeline has {got}, snapshot has {want}"))
            }
        };
        check("jobs", self.jobs.len() as u64, snap.jobs)?;
        check("stages", self.count("StageSubmitted"), snap.stages)?;
        check("tasks", self.jobs.iter().map(|j| j.num_tasks).sum(), snap.tasks)?;
        check("task_busy_us", self.jobs.iter().map(|j| j.total_busy_us).sum(), snap.task_busy_us)?;
        check("failed_tasks", self.jobs.iter().map(|j| j.failed).sum(), snap.failed_tasks)?;
        check("retried_tasks", self.jobs.iter().map(|j| j.resubmitted).sum(), snap.retried_tasks)?;
        check(
            "speculated_tasks",
            self.jobs.iter().map(|j| j.speculated).sum(),
            snap.speculated_tasks,
        )?;
        check(
            "speculative_wins",
            self.jobs.iter().map(|j| j.speculative_wins).sum(),
            snap.speculative_wins,
        )?;
        let recomputed = self
            .events
            .iter()
            .map(|(_, e)| if let Event::LineageRecovery { lost, .. } = e { *lost } else { 0 })
            .sum::<u64>();
        check("recomputed_tasks", recomputed, snap.recomputed_tasks)?;
        check("injected_faults", self.count("ChaosInject"), snap.injected_faults)?;
        check("optimizer_rule_fires", self.count("OptimizerRuleFired"), snap.optimizer_rule_fires)?;
        let totals = self.totals();
        check("input_records", totals.input_records, snap.input_records)?;
        check("input_bytes", totals.input_bytes, snap.input_bytes)?;
        check("shuffle_records", totals.shuffle_records, snap.shuffle_records)?;
        check("shuffle_bytes", totals.shuffle_bytes, snap.shuffle_bytes)?;
        check("output_records", totals.output_records, snap.output_records)?;
        let hits = self
            .events
            .iter()
            .filter(|(_, e)| matches!(e, Event::CacheRead { hit: true, .. }))
            .count() as u64;
        let misses = self
            .events
            .iter()
            .filter(|(_, e)| matches!(e, Event::CacheRead { hit: false, .. }))
            .count() as u64;
        check("cache_hits", hits, snap.cache_hits)?;
        check("cache_misses", misses, snap.cache_misses)?;
        check("cache_evictions", self.count("CacheEvict"), snap.cache_evictions)?;
        check("executors_registered", self.count("ExecutorRegistered"), snap.executors_registered)?;
        check("executors_lost", self.count("ExecutorLost"), snap.executors_lost)?;
        check("heartbeats", self.count("ExecutorHeartbeat"), snap.heartbeats)?;
        let (blocks_pushed, block_bytes_pushed) = self
            .events
            .iter()
            .filter_map(|(_, e)| match e {
                Event::BlockPush { blocks, bytes, .. } => Some((*blocks, *bytes)),
                _ => None,
            })
            .fold((0u64, 0u64), |(b, by), (db, dby)| (b + db, by + dby));
        check("blocks_pushed", blocks_pushed, snap.blocks_pushed)?;
        check("block_bytes_pushed", block_bytes_pushed, snap.block_bytes_pushed)?;
        check("blocks_fetched", self.count("BlockFetch"), snap.blocks_fetched)?;
        let block_bytes_fetched = self
            .events
            .iter()
            .map(|(_, e)| if let Event::BlockFetch { bytes, .. } = e { *bytes } else { 0 })
            .sum::<u64>();
        check("block_bytes_fetched", block_bytes_fetched, snap.block_bytes_fetched)?;
        let events_lost = self
            .events
            .iter()
            .map(|(_, e)| if let Event::ExecutorEventsLost { lost, .. } = e { *lost } else { 0 })
            .sum::<u64>();
        check("events_lost", events_lost, snap.events_lost)?;
        // The latency histograms are derived from the same stream, so the
        // recomputed buckets must match the snapshot exactly, bucket by
        // bucket — including buckets filled by forwarded executor events.
        let mut task_hist = [0u64; HIST_BUCKETS];
        let mut queue_hist = [0u64; HIST_BUCKETS];
        let mut fetch_hist = [0u64; HIST_BUCKETS];
        for (_, e) in &self.events {
            match e {
                Event::TaskEnd { busy_us, queue_us, .. } => {
                    task_hist[bucket_of(*busy_us)] += 1;
                    queue_hist[bucket_of(*queue_us)] += 1;
                }
                Event::BlockFetch { dur_us, .. } => fetch_hist[bucket_of(*dur_us)] += 1,
                _ => {}
            }
        }
        for (what, got, want) in [
            ("task_duration_hist", task_hist, snap.task_duration_hist),
            ("queue_wait_hist", queue_hist, snap.queue_wait_hist),
            ("block_fetch_hist", fetch_hist, snap.block_fetch_hist),
        ] {
            if got != want {
                return Err(format!("{what}: timeline has {got:?}, snapshot has {want:?}"));
            }
        }
        let (columnar_batches, columnar_rows, fused_pipelines) = self
            .events
            .iter()
            .filter_map(|(_, e)| match e {
                Event::ColumnarBatch { fused_ops, batches, rows } => {
                    Some((*batches, *rows, *fused_ops))
                }
                _ => None,
            })
            .fold((0u64, 0u64, 0u64), |(cb, cr, fp), (batches, rows, ops)| {
                (cb + batches, cr + rows, fp + (ops >= 2) as u64)
            });
        check("columnar_batches", columnar_batches, snap.columnar_batches)?;
        check("columnar_rows", columnar_rows, snap.columnar_rows)?;
        check("fused_pipelines", fused_pipelines, snap.fused_pipelines)?;
        let (agg_rows_in, agg_groups_out) = self
            .events
            .iter()
            .filter_map(|(_, e)| match e {
                Event::AggBatch { rows_in, groups_out, .. } => Some((*rows_in, *groups_out)),
                _ => None,
            })
            .fold((0u64, 0u64), |(ri, go), (rows_in, groups_out)| (ri + rows_in, go + groups_out));
        check("agg_rows_in", agg_rows_in, snap.agg_rows_in)?;
        check("agg_groups_out", agg_groups_out, snap.agg_groups_out)?;
        let cached = self
            .events
            .iter()
            .rev()
            .find_map(|(_, e)| match e {
                Event::CachePut { total_bytes, .. }
                | Event::CacheEvict { total_bytes, .. }
                | Event::CacheRelease { total_bytes, .. } => Some(*total_bytes),
                _ => None,
            })
            .unwrap_or(0);
        check("cached_bytes", cached, snap.cached_bytes)?;
        Ok(())
    }

    /// One JSON object per line, in arrival order — the persistent event
    /// log format (schema-checked by the bench harness).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (at, ev) in &self.events {
            write_event_json(&mut out, *at, ev);
            out.push('\n');
        }
        out
    }

    /// Chrome `chrome://tracing` / Perfetto `trace_event` JSON. The driver
    /// is pid 0 — tid 0 the driver lane (job spans), tid `w+1` the executor
    /// pool thread lanes (task spans, `dur` from the matched
    /// `TaskStart`/`TaskEnd` pair). Each executor *worker* gets its own
    /// process lane at the synthetic pid `1000 + worker` (thread-mode
    /// workers share the driver's OS pid, so the real pid from registration
    /// is recorded in the `process_name` text instead) with `store`/`serve`
    /// thread lanes carrying block push and block serve slices. Every task
    /// slice carries its hierarchical span id `job/stage/partition/attempt`
    /// in `args.span`.
    pub fn to_chrome_trace(&self) -> String {
        use std::collections::HashMap;
        /// The trace pid of an executor worker's process lane.
        const WORKER_PID_BASE: u64 = 1000;
        let mut job_stage: HashMap<u64, Option<u64>> = HashMap::new();
        for (_, ev) in &self.events {
            if let Event::JobStart { job, stage, .. } = ev {
                job_stage.insert(*job, *stage);
            }
        }
        let stage_of = |job: u64| -> String {
            job_stage.get(&job).copied().flatten().map_or("-".to_string(), |s| s.to_string())
        };
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        let push = |out: &mut String, s: String, first: &mut bool| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push('\n');
            out.push_str(&s);
        };
        let mut max_tid = 0u64;
        let mut open_tasks: HashMap<(u64, u64, u32), u64> = HashMap::new();
        let mut open_jobs: HashMap<u64, u64> = HashMap::new();
        // Dist worker index → OS pid from its registration event (0 until
        // one arrives; block slices still get a lane either way).
        let mut worker_pids: BTreeMap<u64, u64> = BTreeMap::new();
        let mut slices: Vec<String> = Vec::new();
        for (at, ev) in &self.events {
            match ev {
                Event::TaskStart { job, partition, attempt, .. } => {
                    open_tasks.insert((*job, *partition, *attempt), *at);
                }
                Event::TaskEnd {
                    job, partition, attempt, speculative, worker, failure, ..
                } => {
                    let tid = worker.map_or(0, |w| w + 1);
                    max_tid = max_tid.max(tid);
                    let ts = open_tasks.remove(&(*job, *partition, *attempt)).unwrap_or(*at);
                    let dur = at.saturating_sub(ts).max(1);
                    let spec = if *speculative { " (spec)" } else { "" };
                    let status = if failure.is_some() { "failed" } else { "ok" };
                    let span = format!("{job}/{}/{partition}/{attempt}", stage_of(*job));
                    slices.push(format!(
                        "{{\"name\":\"job {job} p{partition} a{attempt}{spec}\",\"ph\":\"X\",\
                         \"pid\":0,\"tid\":{tid},\"ts\":{ts},\"dur\":{dur},\
                         \"args\":{{\"status\":\"{status}\",\"span\":\"{span}\"}}}}"
                    ));
                }
                Event::JobStart { job, .. } => {
                    open_jobs.insert(*job, *at);
                }
                Event::JobEnd { job, ok } => {
                    if let Some(ts) = open_jobs.remove(job) {
                        let dur = at.saturating_sub(ts).max(1);
                        let span = format!("{job}/{}", stage_of(*job));
                        slices.push(format!(
                            "{{\"name\":\"job {job}\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\
                             \"ts\":{ts},\"dur\":{dur},\
                             \"args\":{{\"ok\":{ok},\"span\":\"{span}\"}}}}"
                        ));
                    }
                }
                Event::ExecutorRegistered { worker, pid } => {
                    worker_pids.insert(*worker, *pid);
                }
                Event::BlockPush { shuffle, map_part, blocks, bytes, worker, dur_us } => {
                    worker_pids.entry(*worker).or_insert(0);
                    let pid = WORKER_PID_BASE + worker;
                    let ts = at.saturating_sub(*dur_us);
                    let dur = (*dur_us).max(1);
                    slices.push(format!(
                        "{{\"name\":\"store s{shuffle} m{map_part}\",\"ph\":\"X\",\
                         \"pid\":{pid},\"tid\":0,\"ts\":{ts},\"dur\":{dur},\
                         \"args\":{{\"blocks\":{blocks},\"bytes\":{bytes},\
                         \"span\":\"s{shuffle}/m{map_part}\"}}}}"
                    ));
                }
                Event::BlockFetch { shuffle, map_part, reduce_part, bytes, worker, dur_us } => {
                    worker_pids.entry(*worker).or_insert(0);
                    let pid = WORKER_PID_BASE + worker;
                    let ts = at.saturating_sub(*dur_us);
                    let dur = (*dur_us).max(1);
                    slices.push(format!(
                        "{{\"name\":\"serve s{shuffle} m{map_part} r{reduce_part}\",\"ph\":\"X\",\
                         \"pid\":{pid},\"tid\":1,\"ts\":{ts},\"dur\":{dur},\
                         \"args\":{{\"bytes\":{bytes},\
                         \"span\":\"s{shuffle}/m{map_part}/r{reduce_part}\"}}}}"
                    ));
                }
                _ => {}
            }
        }
        push(
            &mut out,
            "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\",\
             \"args\":{\"name\":\"driver\"}}"
                .to_string(),
            &mut first,
        );
        for tid in 0..=max_tid {
            let name =
                if tid == 0 { "driver".to_string() } else { format!("sparklite-exec-{}", tid - 1) };
            push(
                &mut out,
                format!(
                    "{{\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"name\":\"thread_name\",\
                     \"args\":{{\"name\":\"{name}\"}}}}"
                ),
                &mut first,
            );
        }
        for (worker, os_pid) in &worker_pids {
            let pid = WORKER_PID_BASE + worker;
            push(
                &mut out,
                format!(
                    "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\
                     \"args\":{{\"name\":\"executor-{worker} (pid {os_pid})\"}}}}"
                ),
                &mut first,
            );
            for (tid, name) in [(0, "store"), (1, "serve")] {
                push(
                    &mut out,
                    format!(
                        "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\
                         \"args\":{{\"name\":\"{name}\"}}}}"
                    ),
                    &mut first,
                );
            }
        }
        for s in slices {
            push(&mut out, s, &mut first);
        }
        out.push_str("\n]}\n");
        out
    }

    /// A human-readable per-job breakdown table (used by the harness and
    /// EXPERIMENTS.md).
    pub fn render_job_table(&self) -> String {
        let mut out = String::from(
            "job   stage  tasks  attempts  failed  retried  spec  busy_ms   p50_ms  p95_ms  p99_ms  max_ms  skew\n",
        );
        for j in &self.jobs {
            let stage = j.stage.map_or("-".to_string(), |s| s.to_string());
            out.push_str(&format!(
                "{:<5} {:<6} {:<6} {:<9} {:<7} {:<8} {:<5} {:<9.2} {:<7.2} {:<7.2} {:<7.2} {:<7.2} {:.2}\n",
                j.job,
                stage,
                j.num_tasks,
                j.attempts,
                j.failed,
                j.resubmitted,
                j.speculated,
                j.total_busy_us as f64 / 1e3,
                j.p50_us() as f64 / 1e3,
                j.p95_us() as f64 / 1e3,
                j.p99_us() as f64 / 1e3,
                j.max_us() as f64 / 1e3,
                j.skew(),
            ));
        }
        out
    }

    /// A per-worker activity table (the shell's `:top` view): one row per
    /// executor worker lane seen in the timeline, plus a `driver` row for
    /// task attempts that ran in-process.
    pub fn render_top(&self) -> String {
        #[derive(Default)]
        struct Lane {
            pid: u64,
            tasks: u64,
            busy_us: u64,
            heartbeats: u64,
            pushes: u64,
            push_bytes: u64,
            serves: u64,
            serve_bytes: u64,
            lost: u64,
        }
        let mut driver = Lane { pid: std::process::id() as u64, ..Default::default() };
        let mut lanes: BTreeMap<u64, Lane> = BTreeMap::new();
        for (_, ev) in &self.events {
            match ev {
                Event::TaskEnd { worker, busy_us, .. } => {
                    // `worker` on a task is the executor *pool thread*, not a
                    // dist worker; every task attempt runs on the driver.
                    let _ = worker;
                    driver.tasks += 1;
                    driver.busy_us += busy_us;
                }
                Event::ExecutorRegistered { worker, pid } => {
                    lanes.entry(*worker).or_default().pid = *pid;
                }
                Event::ExecutorHeartbeat { worker, .. } => {
                    lanes.entry(*worker).or_default().heartbeats += 1;
                }
                Event::BlockPush { worker, blocks, bytes, .. } => {
                    let l = lanes.entry(*worker).or_default();
                    l.pushes += blocks;
                    l.push_bytes += bytes;
                }
                Event::BlockFetch { worker, bytes, .. } => {
                    let l = lanes.entry(*worker).or_default();
                    l.serves += 1;
                    l.serve_bytes += bytes;
                }
                Event::ExecutorEventsLost { worker, lost, .. } => {
                    lanes.entry(*worker).or_default().lost += lost;
                }
                _ => {}
            }
        }
        let mut out = String::from(
            "lane        pid     tasks  busy_ms   beats  pushes  push_kb   serves  serve_kb  lost\n",
        );
        let row = |out: &mut String, name: &str, l: &Lane| {
            out.push_str(&format!(
                "{:<11} {:<7} {:<6} {:<9.2} {:<6} {:<7} {:<9.1} {:<7} {:<9.1} {}\n",
                name,
                l.pid,
                l.tasks,
                l.busy_us as f64 / 1e3,
                l.heartbeats,
                l.pushes,
                l.push_bytes as f64 / 1e3,
                l.serves,
                l.serve_bytes as f64 / 1e3,
                l.lost,
            ));
        };
        row(&mut out, "driver", &driver);
        for (worker, lane) in &lanes {
            row(&mut out, &format!("executor-{worker}"), lane);
        }
        out
    }
}

fn esc(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

fn write_event_json(out: &mut String, at_us: u64, ev: &Event) {
    out.push_str(&format!("{{\"ev\":\"{}\",\"at_us\":{at_us}", ev.name()));
    match ev {
        Event::JobStart { job, stage, num_tasks } => {
            out.push_str(&format!(",\"job\":{job}"));
            match stage {
                Some(s) => out.push_str(&format!(",\"stage\":{s}")),
                None => out.push_str(",\"stage\":null"),
            }
            out.push_str(&format!(",\"num_tasks\":{num_tasks}"));
        }
        Event::JobEnd { job, ok } => out.push_str(&format!(",\"job\":{job},\"ok\":{ok}")),
        Event::StageSubmitted { stage, num_tasks } => {
            out.push_str(&format!(",\"stage\":{stage},\"num_tasks\":{num_tasks}"))
        }
        Event::StageCompleted { stage, ok } => {
            out.push_str(&format!(",\"stage\":{stage},\"ok\":{ok}"))
        }
        Event::TaskStart { job, partition, attempt, speculative, worker } => {
            out.push_str(&format!(
                ",\"job\":{job},\"partition\":{partition},\"attempt\":{attempt},\
                 \"speculative\":{speculative}"
            ));
            match worker {
                Some(w) => out.push_str(&format!(",\"worker\":{w}")),
                None => out.push_str(",\"worker\":null"),
            }
        }
        Event::TaskEnd {
            job,
            partition,
            attempt,
            speculative,
            worker,
            busy_us,
            queue_us,
            counters,
            failure,
        } => {
            out.push_str(&format!(
                ",\"job\":{job},\"partition\":{partition},\"attempt\":{attempt},\
                 \"speculative\":{speculative}"
            ));
            match worker {
                Some(w) => out.push_str(&format!(",\"worker\":{w}")),
                None => out.push_str(",\"worker\":null"),
            }
            out.push_str(&format!(
                ",\"busy_us\":{busy_us},\"queue_us\":{queue_us},\
                 \"input_records\":{},\"input_bytes\":{},\
                 \"shuffle_records\":{},\"shuffle_bytes\":{},\"output_records\":{},\
                 \"cache_hits\":{},\"cache_misses\":{}",
                counters.input_records,
                counters.input_bytes,
                counters.shuffle_records,
                counters.shuffle_bytes,
                counters.output_records,
                counters.cache_hits,
                counters.cache_misses,
            ));
            match failure {
                Some(f) => {
                    out.push_str(&format!(
                        ",\"failure\":{{\"kind\":\"{:?}\",\"message\":\"",
                        f.kind
                    ));
                    esc(out, &f.message);
                    out.push_str("\"}");
                }
                None => out.push_str(",\"failure\":null"),
            }
        }
        Event::TaskResubmitted { job, partition, next_attempt } => out.push_str(&format!(
            ",\"job\":{job},\"partition\":{partition},\"next_attempt\":{next_attempt}"
        )),
        Event::SpeculativeLaunch { job, partition, attempt } => {
            out.push_str(&format!(",\"job\":{job},\"partition\":{partition},\"attempt\":{attempt}"))
        }
        Event::SpeculativeWin { job, partition } => {
            out.push_str(&format!(",\"job\":{job},\"partition\":{partition}"))
        }
        Event::LineageRecovery { shuffle, lost } => {
            out.push_str(&format!(",\"shuffle\":{shuffle},\"lost\":{lost}"))
        }
        Event::ShuffleWrite { job, partition, records, bytes }
        | Event::ShuffleFetch { job, partition, records, bytes } => out.push_str(&format!(
            ",\"job\":{job},\"partition\":{partition},\"records\":{records},\"bytes\":{bytes}"
        )),
        Event::CacheRead { rdd, split, hit } => {
            out.push_str(&format!(",\"rdd\":{rdd},\"split\":{split},\"hit\":{hit}"))
        }
        Event::CachePut { rdd, split, bytes, total_bytes }
        | Event::CacheEvict { rdd, split, bytes, total_bytes } => out.push_str(&format!(
            ",\"rdd\":{rdd},\"split\":{split},\"bytes\":{bytes},\"total_bytes\":{total_bytes}"
        )),
        Event::CacheRelease { rdd, splits, total_bytes } => out
            .push_str(&format!(",\"rdd\":{rdd},\"splits\":{splits},\"total_bytes\":{total_bytes}")),
        Event::ChaosInject { kind, a, b, attempt } => {
            out.push_str(&format!(",\"kind\":\"{kind}\",\"a\":{a},\"b\":{b},\"attempt\":{attempt}"))
        }
        Event::OptimizerRuleFired { rule, stage } => {
            out.push_str(&format!(",\"rule\":\"{rule}\",\"stage\":{stage}"))
        }
        Event::ExecutorRegistered { worker, pid } => {
            out.push_str(&format!(",\"worker\":{worker},\"pid\":{pid}"))
        }
        Event::ExecutorHeartbeat { worker, seq } => {
            out.push_str(&format!(",\"worker\":{worker},\"seq\":{seq}"))
        }
        Event::ExecutorLost { worker, reason } => {
            out.push_str(&format!(",\"worker\":{worker},\"reason\":\""));
            esc(out, reason);
            out.push('"');
        }
        Event::BlockPush { shuffle, map_part, blocks, bytes, worker, dur_us } => {
            out.push_str(&format!(
                ",\"shuffle\":{shuffle},\"map_part\":{map_part},\"blocks\":{blocks},\
                 \"bytes\":{bytes},\"worker\":{worker},\"dur_us\":{dur_us}"
            ))
        }
        Event::BlockFetch { shuffle, map_part, reduce_part, bytes, worker, dur_us } => out
            .push_str(&format!(
                ",\"shuffle\":{shuffle},\"map_part\":{map_part},\"reduce_part\":{reduce_part},\
                 \"bytes\":{bytes},\"worker\":{worker},\"dur_us\":{dur_us}"
            )),
        Event::ExecutorEventsLost { worker, last_seq, lost } => {
            out.push_str(&format!(",\"worker\":{worker},\"last_seq\":{last_seq},\"lost\":{lost}"))
        }
        Event::ColumnarBatch { fused_ops, batches, rows } => out
            .push_str(&format!(",\"fused_ops\":{fused_ops},\"batches\":{batches},\"rows\":{rows}")),
        Event::AggBatch { batches, rows_in, groups_out } => out.push_str(&format!(
            ",\"batches\":{batches},\"rows_in\":{rows_in},\"groups_out\":{groups_out}"
        )),
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_listener_derives_counters() {
        let metrics = Arc::new(Metrics::default());
        let bus = EventBus::new(Arc::clone(&metrics));
        bus.emit(Event::JobStart { job: 0, stage: None, num_tasks: 3 });
        bus.emit(Event::StageSubmitted { stage: 0, num_tasks: 3 });
        bus.emit(Event::TaskEnd {
            job: 0,
            partition: 0,
            attempt: 0,
            speculative: false,
            worker: Some(0),
            busy_us: 42,
            queue_us: 9,
            counters: TaskCounters { input_records: 7, ..TaskCounters::default() },
            failure: None,
        });
        bus.emit(Event::CacheRead { rdd: 1, split: 0, hit: true });
        bus.emit(Event::CachePut { rdd: 1, split: 0, bytes: 10, total_bytes: 10 });
        let snap = metrics.snapshot();
        assert_eq!(snap.jobs, 1);
        assert_eq!(snap.stages, 1);
        assert_eq!(snap.tasks, 3);
        assert_eq!(snap.task_busy_us, 42);
        assert_eq!(snap.input_records, 7);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.cached_bytes, 10);
    }

    #[test]
    fn collector_is_bounded() {
        let c = EventCollector::new(2);
        for i in 0..5 {
            c.on_event(&Event::JobEnd { job: i, ok: true });
        }
        assert_eq!(c.events().len(), 2);
        assert_eq!(c.dropped(), 3);
    }

    #[test]
    fn verbose_flips_on_registration() {
        let bus = EventBus::new(Arc::new(Metrics::default()));
        assert!(!bus.verbose());
        bus.register(Arc::new(EventCollector::new(16)));
        assert!(bus.verbose());
    }

    #[test]
    fn jsonl_and_trace_are_well_formed() {
        let c = EventCollector::new(64);
        c.on_event(&Event::JobStart { job: 0, stage: Some(1), num_tasks: 1 });
        c.on_event(&Event::TaskStart {
            job: 0,
            partition: 0,
            attempt: 0,
            speculative: false,
            worker: Some(2),
        });
        c.on_event(&Event::TaskEnd {
            job: 0,
            partition: 0,
            attempt: 0,
            speculative: false,
            worker: Some(2),
            busy_us: 5,
            queue_us: 1,
            counters: TaskCounters::default(),
            failure: None,
        });
        c.on_event(&Event::BlockPush {
            shuffle: 0,
            map_part: 0,
            blocks: 2,
            bytes: 64,
            worker: 1,
            dur_us: 3,
        });
        c.on_event(&Event::JobEnd { job: 0, ok: true });
        let tl = c.timeline();
        let jsonl = tl.to_jsonl();
        assert_eq!(jsonl.lines().count(), 5);
        assert!(jsonl.lines().all(|l| l.starts_with("{\"ev\":\"") && l.ends_with('}')));
        let trace = tl.to_chrome_trace();
        assert!(trace.starts_with("{\"traceEvents\":["));
        assert!(trace.contains("sparklite-exec-2"));
        assert!(trace.contains("\"ph\":\"X\""));
        // The task slice carries its span id, the worker its process lane.
        assert!(trace.contains("\"span\":\"0/1/0/0\""));
        assert!(trace.contains("\"name\":\"executor-1 (pid 0)\""));
        assert!(trace.contains("\"pid\":1001"));
        let (starts, ends) = tl.task_event_counts();
        assert_eq!(starts, ends);
        let top = tl.render_top();
        assert!(top.contains("driver"));
        assert!(top.contains("executor-1"));
    }

    fn beat(worker: u64, seq: u64) -> Event {
        Event::ExecutorHeartbeat { worker, seq }
    }

    #[test]
    fn stream_merge_releases_in_seq_order_and_applies_offset() {
        let mut m = ExecutorStreamMerge::new(500);
        // Batch arrives with a gap: seq 0 and 2, seq 1 missing.
        let got = m.push_batch(0, 0, vec![(100, beat(0, 0))]);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, 600); // worker clock + offset
        let got = m.push_batch(2, 0, vec![(300, beat(0, 2))]);
        assert!(got.is_empty(), "seq 2 must wait for seq 1");
        let got = m.push_batch(1, 0, vec![(200, beat(0, 1))]);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, 700);
        assert_eq!(got[1].0, 800);
        assert_eq!(m.last_seq(), 2);
        assert_eq!(m.lost(), 0);
    }

    #[test]
    fn stream_merge_counts_gaps_and_drops_as_lost() {
        let mut m = ExecutorStreamMerge::new(0);
        m.push_batch(0, 0, vec![(1, beat(0, 0))]);
        // The worker ring dropped 3 events, and seq 1..=4 never arrive.
        m.push_batch(5, 3, vec![(6, beat(0, 5))]);
        let released = m.flush();
        assert_eq!(released.len(), 1);
        assert_eq!(m.lost(), 4 + 3);
        // Finalizing twice (death racing shutdown) must not double-count.
        assert!(m.flush().is_empty());
        assert_eq!(m.lost(), 7);
    }

    #[test]
    fn stream_merge_ignores_duplicate_batches() {
        let mut m = ExecutorStreamMerge::new(0);
        assert_eq!(m.push_batch(0, 0, vec![(1, beat(0, 0)), (2, beat(0, 1))]).len(), 2);
        // A re-send of an already-released range is a no-op.
        assert!(m.push_batch(0, 0, vec![(1, beat(0, 0)), (2, beat(0, 1))]).is_empty());
        assert_eq!(m.last_seq(), 1);
        assert_eq!(m.lost() + m.flush().len() as u64, 0);
    }

    #[test]
    fn stream_merge_negative_offset_clamps_at_zero() {
        let mut m = ExecutorStreamMerge::new(-1000);
        let got = m.push_batch(0, 0, vec![(400, beat(0, 0))]);
        assert_eq!(got[0].0, 0);
    }
}
