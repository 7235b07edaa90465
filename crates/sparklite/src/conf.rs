//! Engine configuration, mirroring the handful of Spark settings the paper's
//! experiments vary (executor count, parallelism) plus the knobs our
//! simulated storage layer adds and the chaos-injection plan the
//! fault-tolerance subsystem consumes.

/// Deterministic chaos-injection and recovery configuration.
///
/// The "R" in RDD is *resilient*: the paper's data-independence argument
/// rests on Rumble inheriting Spark's lineage-based fault tolerance by
/// compiling onto RDDs. A `FaultPlan` drives a seeded fault injector so the
/// recovery machinery (task retries, lineage recomputation of lost shuffle
/// outputs, speculative execution) can be exercised — and benchmarked —
/// reproducibly: every injection decision is a pure hash of
/// `(seed, fault kind, stage, partition, attempt)`, so the same plan over
/// the same query produces the same faults on every run.
///
/// All probabilities default to zero: a default plan injects nothing and the
/// recovery layer stays on a near-zero-cost fast path.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed for every injection decision.
    pub seed: u64,
    /// Probability that a task attempt is killed right after it starts
    /// (models an executor JVM dying mid-task).
    pub task_failure_prob: f64,
    /// Probability that a map task's shuffle output is lost after the map
    /// stage completes (models an executor dying *between* stages, taking
    /// its shuffle files with it). Recovery re-runs only the affected
    /// parent-stage tasks — Spark's lineage-based recomputation.
    pub exec_death_prob: f64,
    /// Probability that a storage block read fails transiently (models an
    /// HDFS datanode hiccup or an S3 5xx).
    pub storage_fault_prob: f64,
    /// Probability that a task attempt is slowed down by
    /// [`FaultPlan::straggler_delay_us`] (models a degraded node). Paired
    /// with [`FaultPlan::speculation`] to exercise speculative re-execution.
    pub straggler_prob: f64,
    /// Extra latency injected into straggling task attempts, microseconds.
    pub straggler_delay_us: u64,
    /// Artificial latency added to each block read, in microseconds. Zero by
    /// default; the "S3" flavour of the storage layer uses this to model
    /// remote object-store round trips. (Formerly a standalone
    /// `SparkliteConf` knob; it shares the plan so storage latency, storage
    /// faults and task faults come from one seeded source.)
    pub read_latency_us: u64,
    /// Maximum attempts per task before the job fails (Spark's
    /// `spark.task.maxFailures`, default 4). Deterministic application
    /// errors fail fast regardless of this budget.
    pub max_task_failures: u32,
    /// How many times each fault kind may fire per task, so injected chaos
    /// always converges (a task sees at most one injected kill *and* one
    /// injected storage fault, which fits inside the default budget of 4).
    pub max_injected_per_task: u32,
    /// Enables speculative execution: when most tasks of a stage are done,
    /// stragglers are re-launched and the first attempt to finish wins.
    pub speculation: bool,
    /// A task is speculatable once it has run longer than this multiple of
    /// the median successful task duration (Spark's
    /// `spark.speculation.multiplier`).
    pub speculation_multiplier: f64,
    /// Fraction of tasks that must be complete before speculation starts
    /// (Spark's `spark.speculation.quantile`).
    pub speculation_quantile: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            task_failure_prob: 0.0,
            exec_death_prob: 0.0,
            storage_fault_prob: 0.0,
            straggler_prob: 0.0,
            straggler_delay_us: 50_000,
            read_latency_us: 0,
            max_task_failures: 4,
            max_injected_per_task: 1,
            speculation: false,
            speculation_multiplier: 1.5,
            speculation_quantile: 0.75,
        }
    }
}

impl FaultPlan {
    /// A plan injecting task kills, lost shuffle outputs and storage faults,
    /// each with probability `prob`, under `seed`. The usual entry point for
    /// chaos tests: injection is capped per task so every job still
    /// converges within the default retry budget.
    pub fn chaos(seed: u64, prob: f64) -> Self {
        FaultPlan {
            seed,
            task_failure_prob: prob,
            exec_death_prob: prob,
            storage_fault_prob: prob,
            ..FaultPlan::default()
        }
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn with_task_failures(mut self, prob: f64) -> Self {
        self.task_failure_prob = prob.clamp(0.0, 1.0);
        self
    }

    pub fn with_exec_death(mut self, prob: f64) -> Self {
        self.exec_death_prob = prob.clamp(0.0, 1.0);
        self
    }

    pub fn with_storage_faults(mut self, prob: f64) -> Self {
        self.storage_fault_prob = prob.clamp(0.0, 1.0);
        self
    }

    pub fn with_stragglers(mut self, prob: f64, delay_us: u64) -> Self {
        self.straggler_prob = prob.clamp(0.0, 1.0);
        self.straggler_delay_us = delay_us;
        self
    }

    pub fn with_read_latency_us(mut self, us: u64) -> Self {
        self.read_latency_us = us;
        self
    }

    /// Sets the per-task attempt budget (clamped to at least 1).
    pub fn with_max_task_failures(mut self, n: u32) -> Self {
        self.max_task_failures = n.max(1);
        self
    }

    pub fn with_max_injected_per_task(mut self, n: u32) -> Self {
        self.max_injected_per_task = n;
        self
    }

    pub fn with_speculation(mut self, on: bool) -> Self {
        self.speculation = on;
        self
    }

    /// Whether any fault kind can fire.
    pub fn injects(&self) -> bool {
        self.task_failure_prob > 0.0
            || self.exec_death_prob > 0.0
            || self.storage_fault_prob > 0.0
            || self.straggler_prob > 0.0
    }

    /// Whether the recovery layer must keep stage inputs re-executable
    /// (clone instead of consume): any injection, or speculation, can
    /// schedule a second attempt of a task that already ran.
    pub fn armed(&self) -> bool {
        self.injects() || self.speculation
    }
}

/// Logical-plan optimizer configuration: a global kill switch plus
/// per-rule disables keyed by `RBLO` id, so a plan-rewrite regression can
/// be bisected to one named rule from the shell (`--disable-rule=RBLO0005`)
/// or from tests without rebuilding.
#[derive(Debug, Clone)]
pub struct OptimizerConf {
    /// When false, DataFrame actions compile the raw plan, skipping every
    /// rewrite (the shell's `--no-opt`).
    pub enabled: bool,
    /// `RBLO` ids excluded from the standard rule registry.
    pub disabled_rules: std::collections::BTreeSet<String>,
}

impl Default for OptimizerConf {
    fn default() -> Self {
        OptimizerConf { enabled: true, disabled_rules: std::collections::BTreeSet::new() }
    }
}

/// Physical DataFrame execution configuration: columnar batch size and the
/// row-major reference switch the differential test battery compares against.
#[derive(Debug, Clone)]
pub struct ExecConf {
    /// When true, DataFrame plans vectorize nothing: every operator runs
    /// row-at-a-time, and GROUP BY combines per row in the shuffle instead
    /// of in the batch kernel. Kept exactly for the row-vs-columnar
    /// differential tests and A/B benchmarks — results must be
    /// byte-identical either way.
    pub row_major: bool,
    /// Rows per [`ColumnBatch`](crate::dataframe::batch::ColumnBatch) in the
    /// vectorized pipeline (clamped to at least 1).
    pub batch_size: usize,
}

impl Default for ExecConf {
    fn default() -> Self {
        ExecConf { row_major: false, batch_size: 1024 }
    }
}

/// How the distribution layer deploys executor workers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DistMode {
    /// No cluster: the pure in-process thread pool, byte-identical to every
    /// release before the distribution layer existed. The default.
    Off,
    /// Workers are in-process threads speaking the full TCP protocol
    /// (registration, heartbeats, block service). Same wire path as
    /// `Processes`, without process-spawn cost — the test and CI mode.
    Threads,
    /// Workers are separate OS processes, spawned and supervised by the
    /// driver. `cmd` is the worker command line (program + args); when
    /// empty, the driver re-executes its own binary with `--executor`.
    /// The driver appends `--connect <addr> --worker-id <n>` either way.
    Processes { cmd: Vec<String> },
}

/// Distribution-layer configuration; see [`DistMode`].
#[derive(Debug, Clone)]
pub struct DistConf {
    pub mode: DistMode,
    /// Number of executor workers to spawn (distinct from
    /// [`SparkliteConf::executors`], the driver-side task threads).
    pub workers: usize,
    /// Heartbeat cadence workers are told at registration.
    pub heartbeat_ms: u64,
    /// A worker whose last heartbeat is older than this is declared lost.
    pub heartbeat_timeout_ms: u64,
}

impl Default for DistConf {
    fn default() -> Self {
        DistConf { mode: DistMode::Off, workers: 2, heartbeat_ms: 100, heartbeat_timeout_ms: 3000 }
    }
}

/// Configuration for a [`crate::SparkliteContext`].
#[derive(Debug, Clone)]
pub struct SparkliteConf {
    /// Number of executor worker threads. Each worker models one executor
    /// core; the speedup experiments (paper Fig. 14) sweep this value.
    pub executors: usize,
    /// Default number of partitions for `parallelize` and shuffles when the
    /// caller does not specify one (Spark's `spark.default.parallelism`).
    pub default_parallelism: usize,
    /// Block size for the simulated HDFS, in bytes. Text files are split
    /// into line-aligned blocks of roughly this size; each block becomes one
    /// input partition (like HDFS blocks feeding Spark input splits).
    pub block_size: usize,
    /// Number of rows sampled per partition when computing range bounds for
    /// sorts (Spark's `RangePartitioner` sketch size, simplified).
    pub sort_sample_size: usize,
    /// Byte budget for the partition cache (`Rdd::persist`); least-recently
    /// used partitions are evicted past it and transparently recomputed
    /// from lineage on the next read (Spark's storage-memory fraction,
    /// collapsed to one knob).
    pub cache_budget_bytes: usize,
    /// Chaos injection and recovery tuning; see [`FaultPlan`].
    pub faults: FaultPlan,
    /// Attach a bounded [`EventCollector`](crate::events::EventCollector)
    /// to the context's event bus, enabling timelines, the JSONL event log
    /// and Chrome-trace export (Spark's `spark.eventLog.enabled`). Off by
    /// default: without a collector the scheduler skips building purely
    /// observational events, keeping the fast path within noise.
    pub collect_events: bool,
    /// Maximum events the collector retains before counting drops.
    pub event_capacity: usize,
    /// Logical-plan optimizer switches; see [`OptimizerConf`].
    pub optimizer: OptimizerConf,
    /// Distribution layer: off (pure threads), thread workers over TCP, or
    /// real executor processes; see [`DistConf`].
    pub dist: DistConf,
    /// Physical DataFrame execution knobs; see [`ExecConf`].
    pub exec: ExecConf,
}

impl SparkliteConf {
    /// Sets the executor-thread count (clamped to at least 1).
    pub fn with_executors(mut self, n: usize) -> Self {
        self.executors = n.max(1);
        self
    }

    /// Sets the default partition count (clamped to at least 1).
    pub fn with_default_parallelism(mut self, n: usize) -> Self {
        self.default_parallelism = n.max(1);
        self
    }

    /// Sets the simulated HDFS block size in bytes (clamped to ≥ 1 KiB).
    pub fn with_block_size(mut self, bytes: usize) -> Self {
        self.block_size = bytes.max(1024);
        self
    }

    /// Adds per-block read latency, modelling remote storage. Forwards into
    /// [`FaultPlan::read_latency_us`], where the knob now lives.
    pub fn with_read_latency_us(mut self, us: u64) -> Self {
        self.faults.read_latency_us = us;
        self
    }

    /// Sets the partition-cache byte budget (zero disables caching: every
    /// persisted read falls back to lineage recomputation).
    pub fn with_cache_budget_bytes(mut self, bytes: usize) -> Self {
        self.cache_budget_bytes = bytes;
        self
    }

    /// Installs a chaos/recovery plan.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Enables (or disables) the in-memory event collector.
    pub fn with_event_collection(mut self, on: bool) -> Self {
        self.collect_events = on;
        self
    }

    /// Sets the event-collector capacity (clamped to at least 1).
    pub fn with_event_capacity(mut self, n: usize) -> Self {
        self.event_capacity = n.max(1);
        self
    }

    /// Enables (or disables) the whole logical-plan optimizer.
    pub fn with_optimizer(mut self, on: bool) -> Self {
        self.optimizer.enabled = on;
        self
    }

    /// Excludes one rewrite rule, by `RBLO` id, from the optimizer.
    /// Repeatable; unknown ids are ignored (nothing to disable).
    pub fn with_rule_disabled(mut self, rule_id: impl Into<String>) -> Self {
        self.optimizer.disabled_rules.insert(rule_id.into());
        self
    }

    /// Spawns `n` in-process thread workers speaking the full distribution
    /// protocol over local TCP (clamped to at least 1).
    pub fn with_dist_threads(mut self, n: usize) -> Self {
        self.dist.mode = DistMode::Threads;
        self.dist.workers = n.max(1);
        self
    }

    /// Spawns `n` executor worker *processes* by re-executing the current
    /// binary with `--executor` (clamped to at least 1). The binary must
    /// handle that flag by calling
    /// [`dist::run_worker`](crate::dist::run_worker).
    pub fn with_dist_processes(mut self, n: usize) -> Self {
        self.dist.mode = DistMode::Processes { cmd: Vec::new() };
        self.dist.workers = n.max(1);
        self
    }

    /// Spawns `n` executor worker processes with an explicit command line
    /// (program + args); the driver appends `--connect`/`--worker-id`.
    pub fn with_dist_workers(mut self, n: usize, cmd: Vec<String>) -> Self {
        self.dist.mode = DistMode::Processes { cmd };
        self.dist.workers = n.max(1);
        self
    }

    /// Vectorizes nothing: every DataFrame operator runs row-at-a-time (the
    /// differential battery's reference path).
    pub fn with_row_major(mut self, on: bool) -> Self {
        self.exec.row_major = on;
        self
    }

    /// Sets the columnar batch size in rows (clamped to at least 1).
    pub fn with_batch_size(mut self, rows: usize) -> Self {
        self.exec.batch_size = rows.max(1);
        self
    }

    /// Tunes the heartbeat cadence and death-detection deadline (both
    /// clamped to at least 1 ms). A deadline shorter than the cadence is
    /// honored but guarantees false-positive deaths — useful only to drive
    /// the deadline monitor in tests.
    pub fn with_dist_heartbeat(mut self, heartbeat_ms: u64, timeout_ms: u64) -> Self {
        self.dist.heartbeat_ms = heartbeat_ms.max(1);
        self.dist.heartbeat_timeout_ms = timeout_ms.max(1);
        self
    }
}

impl Default for SparkliteConf {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        SparkliteConf {
            executors: cores,
            default_parallelism: cores * 2,
            block_size: 4 * 1024 * 1024,
            sort_sample_size: 64,
            cache_budget_bytes: 256 * 1024 * 1024,
            faults: FaultPlan::default(),
            collect_events: false,
            event_capacity: 1 << 16,
            optimizer: OptimizerConf::default(),
            dist: DistConf::default(),
            exec: ExecConf::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_clamps() {
        let c = SparkliteConf::default().with_executors(0).with_default_parallelism(0);
        assert_eq!(c.executors, 1);
        assert_eq!(c.default_parallelism, 1);
        let c = SparkliteConf::default().with_block_size(1);
        assert_eq!(c.block_size, 1024);
        let c = SparkliteConf::default().with_batch_size(0);
        assert_eq!(c.exec.batch_size, 1);
        assert!(!c.exec.row_major);
        assert!(SparkliteConf::default().with_row_major(true).exec.row_major);
    }

    #[test]
    fn read_latency_forwards_into_fault_plan() {
        let c = SparkliteConf::default().with_read_latency_us(250);
        assert_eq!(c.faults.read_latency_us, 250);
    }

    #[test]
    fn default_plan_is_inert() {
        let p = FaultPlan::default();
        assert!(!p.injects());
        assert!(!p.armed());
        assert_eq!(p.max_task_failures, 4);
        let p = FaultPlan::chaos(7, 0.2);
        assert!(p.injects() && p.armed());
        assert!(!FaultPlan::default().with_speculation(true).injects());
        assert!(FaultPlan::default().with_speculation(true).armed());
    }
}
