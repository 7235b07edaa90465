//! Figure drivers: each function regenerates one figure of the paper's
//! evaluation at a configurable scale and returns a rendered report plus
//! the raw measurements (for EXPERIMENTS.md and the tests).

use crate::systems::{rumble_query, run_confusion, run_reddit_filter, System};
use crate::{fmt_duration, host_cores, render_table, time};
use rumble_baselines::{ConfusionQuery, QueryOutput};
use rumble_datagen::{confusion, put_dataset, reddit, DEFAULT_SEED};
use sparklite::{FaultPlan, SparkliteConf, SparkliteContext};
use std::time::Duration;

pub const QUERIES: [ConfusionQuery; 3] =
    [ConfusionQuery::Filter, ConfusionQuery::Group, ConfusionQuery::Sort];

/// One measurement cell.
#[derive(Debug, Clone)]
pub enum Cell {
    Time(Duration),
    Failed(String),
}

impl Cell {
    fn render(&self) -> String {
        match self {
            Cell::Time(d) => fmt_duration(*d),
            Cell::Failed(msg) => {
                if msg.contains("out of memory") {
                    "OOM".to_string()
                } else {
                    "FAIL".to_string()
                }
            }
        }
    }

    pub fn seconds(&self) -> Option<f64> {
        match self {
            Cell::Time(d) => Some(d.as_secs_f64()),
            Cell::Failed(_) => None,
        }
    }
}

/// A measured figure: rows of labelled cells plus the rendered report and
/// any engine counters worth persisting in the machine-readable artifact.
pub struct FigureReport {
    pub rows: Vec<(String, Vec<Cell>)>,
    pub report: String,
    pub metrics: Vec<(String, u64)>,
}

/// The declarative A/B gate: for every `(pattern, budget)` — a row label,
/// or a label prefix ending in `*` — each matching row's second cell (arm
/// B) may take at most `budget ×` its first (arm A). A matching row whose
/// cells failed to measure, or a pattern that matches no row, is an error
/// too, so a renamed row cannot slip out of its gate.
pub fn check_ab(report: &FigureReport, gates: &[(&str, f64)]) -> Result<(), String> {
    for &(pattern, budget) in gates {
        let matches = |label: &str| match pattern.strip_suffix('*') {
            Some(prefix) => label.starts_with(prefix),
            None => label == pattern,
        };
        let mut matched = false;
        for (label, cells) in report.rows.iter().filter(|(l, _)| matches(l)) {
            matched = true;
            let cell = |i: usize| cells.get(i).and_then(Cell::seconds);
            let (Some(a), Some(b)) = (cell(0), cell(1)) else {
                return Err(format!("row '{label}' failed to measure"));
            };
            if b > a * budget {
                return Err(format!(
                    "row '{label}' is over its {budget:.2}x budget ({:.1} ms vs {:.1} ms)",
                    b * 1e3,
                    a * 1e3
                ));
            }
        }
        if !matched {
            return Err(format!("no row matches the gate '{pattern}'"));
        }
    }
    Ok(())
}

/// The single-arm repeat loop every figure times through: runs `run`
/// `tries` times (at least once) and returns the last result with the mean
/// wall clock, or the first error.
fn repeat<R, E>(tries: usize, mut run: impl FnMut() -> Result<R, E>) -> Result<(R, Duration), E> {
    let tries = tries.max(1);
    let mut total = Duration::ZERO;
    let mut last = None;
    for _ in 0..tries {
        let (r, d) = time(&mut run);
        last = Some(r?);
        total += d;
    }
    Ok((last.expect("at least one try ran"), total / tries as u32))
}

/// The interleaved A/B driver: one discarded warm-up run per arm, then
/// `run(arm)` `tries` times (at least once) on each of two arms, alternating
/// which arm goes first so that slow drift in machine load lands on both
/// equally. Returns per arm the best-of (minimum) wall clock — the
/// noise-free estimate, since scheduler noise only ever adds time — the
/// median − min spread, which is that arm's A/A repeatability, and the last
/// result.
fn interleaved<R>(tries: usize, run: impl Fn(usize) -> R) -> [(Duration, Duration, R); 2] {
    let mut walls: [Vec<Duration>; 2] = Default::default();
    let mut last = [run(0), run(1)];
    for t in 0..tries.max(1) {
        for arm in [t % 2, (t + 1) % 2] {
            let (r, d) = time(|| run(arm));
            walls[arm].push(d);
            last[arm] = r;
        }
    }
    let [(a_best, a_spread), (b_best, b_spread)] = walls.map(|mut w| {
        w.sort();
        let median = (w[(w.len() - 1) / 2] + w[w.len() / 2]) / 2;
        (w[0], median - w[0])
    });
    let [a, b] = last;
    [(a_best, a_spread, a), (b_best, b_spread, b)]
}

/// Appends one counter per `(key, value)` as `"{label}.{key}"`.
fn push_metrics<'a>(
    metrics: &mut Vec<(String, u64)>,
    label: &str,
    counters: impl IntoIterator<Item = (&'a str, u64)>,
) {
    metrics.extend(counters.into_iter().map(|(k, v)| (format!("{label}.{k}"), v)));
}

fn measure_systems(
    sc: &SparkliteContext,
    path: &str,
    systems: &[System],
    tries: usize,
) -> Vec<(String, Vec<Cell>)> {
    systems
        .iter()
        .map(|&system| {
            let cells = QUERIES
                .iter()
                .map(|&query| match repeat(tries, || run_confusion(system, sc, path, query)) {
                    Ok((_, d)) => Cell::Time(d),
                    Err(e) => Cell::Failed(e),
                })
                .collect();
            (system.name().to_string(), cells)
        })
        .collect()
}

/// Renders measured rows as a table under `header`.
fn render_cells(title: &str, header: &[&str], rows: &[(String, Vec<Cell>)]) -> String {
    let rendered: Vec<(String, Vec<String>)> = rows
        .iter()
        .map(|(l, cells)| (l.clone(), cells.iter().map(Cell::render).collect()))
        .collect();
    render_table(title, header, &rendered)
}

/// Renders rows of Fig. 11 query cells.
fn render_rows(title: &str, rows: &[(String, Vec<Cell>)]) -> String {
    render_cells(title, &["filter", "group", "sort"], rows)
}

/// **Figure 11** — local measurements: Rumble vs Spark vs Spark SQL vs
/// PySpark, three queries on the confusion dataset.
pub fn fig11(objects: usize, executors: usize, tries: usize) -> FigureReport {
    let sc = SparkliteContext::new(SparkliteConf::default().with_executors(executors));
    put_dataset(&sc, "hdfs:///confusion.json", &confusion::generate(objects, DEFAULT_SEED))
        .expect("dataset fits in the simulated HDFS");
    let rows = measure_systems(&sc, "hdfs:///confusion.json", &System::spark_based(), tries);
    let report = format!(
        "{}\npaper (16M objects, laptop): Rumble wins filter (no schema inference); \
         group/sort sit between Spark/Spark SQL and PySpark; PySpark always slowest.\n",
        render_rows(&format!("Fig. 11 — local, {objects} objects, {executors} cores"), &rows)
    );
    FigureReport { rows, report, metrics: Vec::new() }
}

/// **Figure 12** — Rumble vs single-threaded JSONiq engines over growing
/// input sizes; naive engines hit time/memory cliffs.
pub fn fig12(sizes: &[usize], timeout: Duration) -> FigureReport {
    let mut rows = Vec::new();
    let mut dead: Vec<bool> = vec![false; System::jsoniq_engines().len()];
    for &n in sizes {
        let sc = SparkliteContext::new(SparkliteConf::default());
        put_dataset(&sc, "hdfs:///confusion.json", &confusion::generate(n, DEFAULT_SEED))
            .expect("dataset fits");
        for (si, &system) in System::jsoniq_engines().iter().enumerate() {
            let mut cells = Vec::new();
            for query in QUERIES {
                if dead[si] {
                    // Past its cliff: the paper stopped measuring too.
                    cells.push(Cell::Failed("capped".into()));
                    continue;
                }
                let (r, d) = time(|| run_confusion(system, &sc, "hdfs:///confusion.json", query));
                match r {
                    Ok(_) if d <= timeout => cells.push(Cell::Time(d)),
                    Ok(_) => {
                        cells.push(Cell::Failed("timeout".into()));
                        dead[si] = true;
                    }
                    Err(e) => {
                        cells.push(Cell::Failed(e));
                        dead[si] = true;
                    }
                }
            }
            rows.push((format!("{n} × {}", system.name()), cells));
        }
    }
    let report = format!(
        "{}\npaper: Zorba OOMs past 4M objects on group/sort; Xidel dies earlier; \
         Rumble handles the full 16M.\n",
        render_rows("Fig. 12 — JSONiq engines vs input size", &rows)
    );
    FigureReport { rows, report, metrics: Vec::new() }
}

/// **Figure 13** — "cluster" measurements: the same four systems with more
/// executor cores and a larger (20×-style) dataset.
pub fn fig13(objects: usize, executors: usize, tries: usize) -> FigureReport {
    let sc = SparkliteContext::new(
        SparkliteConf::default().with_executors(executors).with_default_parallelism(executors * 2),
    );
    put_dataset(&sc, "hdfs:///confusion20x.json", &confusion::generate(objects, DEFAULT_SEED))
        .expect("dataset fits");
    let rows = measure_systems(&sc, "hdfs:///confusion20x.json", &System::spark_based(), tries);
    let report = format!(
        "{}\npaper (320M objects, 9 nodes): JSONiq fastest on filter, on par with raw \
         Spark for sort, ~2x slower on group; always faster than PySpark.\n",
        render_rows(&format!("Fig. 13 — cluster, {objects} objects, {executors} cores"), &rows)
    );
    FigureReport { rows, report, metrics: Vec::new() }
}

/// **Figure 14** — speedup: the Reddit filter query for 1..=32 executors.
/// Each row holds the measured wall-clock runtime, the aggregated busy time
/// across all executor cores (the paper's "aggregated runtime over the
/// cluster", which must grow by no more than ~2× end to end), and the
/// modeled runtime `aggregated / executors` — what a host with that many
/// physical cores would see for this embarrassingly parallel scan. On a
/// host with fewer cores than executors the measured runtime flattens out
/// (threads time-share), so the modeled one is the comparable series.
pub fn fig14(objects: usize, executor_counts: &[usize], tries: usize) -> FigureReport {
    let text = reddit::generate(objects, DEFAULT_SEED);
    let mut rows = Vec::new();
    for &e in executor_counts {
        let sc = SparkliteContext::new(
            SparkliteConf::default().with_executors(e).with_default_parallelism((e * 2).max(4)),
        );
        put_dataset(&sc, "hdfs:///reddit.json", &text).expect("dataset fits");
        // Warm-up run, then measured runs.
        run_reddit_filter(&sc, "hdfs:///reddit.json").expect("query runs");
        let busy_before = sc.metrics().task_busy_us;
        let (_, runtime) =
            repeat(tries, || run_reddit_filter(&sc, "hdfs:///reddit.json")).expect("query runs");
        let busy = sc.metrics().task_busy_us - busy_before;
        let aggregated = Duration::from_micros(busy / tries.max(1) as u64);
        let cells = [runtime, aggregated, aggregated / e as u32].map(Cell::Time).to_vec();
        rows.push((format!("{e} executors"), cells));
    }
    let report = format!(
        "{}\nhost has {} physical core(s): wall runtime flattens once executors \
         exceed cores; `modeled` (= aggregated / executors) is the multicore projection.\n\
         paper (30GB Reddit, 9 nodes): near-linear speedup 1→32 executors; aggregated \
         core time rises by no more than ~2x.\n",
        render_cells(
            &format!("Fig. 14 — speedup, Reddit filter, {objects} objects"),
            &["runtime", "aggregated", "modeled"],
            &rows
        ),
        host_cores(),
    );
    FigureReport { rows, report, metrics: Vec::new() }
}

/// **Figure 15** — scaling with input size: the Reddit filter query over
/// replicated datasets; runtime must stay linear in input size.
pub fn fig15(base_objects: usize, factors: &[usize], executors: usize) -> FigureReport {
    let base = reddit::generate(base_objects, DEFAULT_SEED);
    let mut rows = Vec::new();
    for &f in factors {
        let sc = SparkliteContext::new(
            SparkliteConf::default().with_executors(executors).with_block_size(1 << 20),
        );
        // Replication, like the paper's ×400 duplication of the dump.
        put_dataset(&sc, "hdfs:///reddit.json", &base.repeat(f)).expect("dataset fits");
        run_reddit_filter(&sc, "hdfs:///reddit.json").expect("warm-up runs");
        let (_, d) =
            repeat(1, || run_reddit_filter(&sc, "hdfs:///reddit.json")).expect("query runs");
        rows.push((format!("{} objects", base_objects * f), vec![Cell::Time(d)]));
    }
    let report = format!(
        "{}\npaper (up to 21.6B objects / 12TB on S3): runtime is linear in input size.\n",
        render_cells("Fig. 15 — scale-up, Reddit filter", &["runtime"], &rows)
    );
    FigureReport { rows, report, metrics: Vec::new() }
}

/// **Chaos** — recovery overhead (no paper analogue; exercises the §2/§4.1
/// resilience claim): the Fig. 11 queries fault-free and under seeded 5% /
/// 20% fault injection (task kills, lost shuffle outputs, storage faults).
/// Every plan must return identical results; the timing delta is the price
/// of task retries plus lineage-based recomputation.
pub fn chaos(objects: usize, executors: usize, tries: usize) -> FigureReport {
    const SEED: u64 = 0xC4A0;
    let text = confusion::generate(objects, DEFAULT_SEED);
    let mut rows: Vec<(String, Vec<Cell>)> = Vec::new();
    let mut metrics: Vec<(String, u64)> = Vec::new();
    let mut recovery = String::new();
    let mut baseline: Option<Vec<QueryOutput>> = None;
    for (label, prob) in [("fault-free", 0.0), ("5% faults", 0.05), ("20% faults", 0.20)] {
        let plan = if prob > 0.0 { FaultPlan::chaos(SEED, prob) } else { FaultPlan::default() };
        // A small block size keeps the input split into many partitions so
        // injection has real scheduling decisions to hit.
        let sc = SparkliteContext::new(
            SparkliteConf::default()
                .with_executors(executors)
                .with_block_size(16 * 1024)
                .with_faults(plan),
        );
        put_dataset(&sc, "hdfs:///confusion.json", &text).expect("dataset fits");
        let (outputs, cells) = run_queries(&sc, &QUERIES, tries);
        let m = sc.metrics();
        recovery.push_str(&format!(
            "{label}: {} failed / {} retried / {} recomputed task(s), {} injected fault(s)\n",
            m.failed_tasks, m.retried_tasks, m.recomputed_tasks, m.injected_faults
        ));
        push_metrics(
            &mut metrics,
            label,
            [
                ("failed_tasks", m.failed_tasks),
                ("retried_tasks", m.retried_tasks),
                ("recomputed_tasks", m.recomputed_tasks),
                ("injected_faults", m.injected_faults),
            ],
        );
        match &baseline {
            None => baseline = Some(outputs),
            Some(base) => {
                for (i, out) in outputs.iter().enumerate() {
                    assert_eq!(out, &base[i], "{label} changed the answer of {:?}", QUERIES[i]);
                }
            }
        }
        rows.push((label.to_string(), cells));
    }
    let report = format!(
        "{}\n{recovery}all plans returned identical results; the timing delta is the cost of \
         task retries and lineage-based recomputation of lost shuffle outputs.\n",
        render_rows(
            &format!(
                "Chaos — recovery overhead, {objects} objects, {executors} cores, seed {SEED:#x}"
            ),
            &rows
        )
    );
    FigureReport { rows, report, metrics }
}

/// **Cache** — cold vs warm runs of the Fig. 11 filter query (a
/// scan-dominated pipeline) with the partition cache in every
/// configuration: auto-persist off, both storage levels, and both levels
/// under seeded 20% fault injection. Every configuration must return
/// identical results; the cold/warm delta is the JSON parse work the
/// cache saves, and the chaos rows show that evicted or lost cached
/// partitions silently fall back to lineage recomputation.
pub fn cache(objects: usize, executors: usize, tries: usize) -> FigureReport {
    use sparklite::StorageLevel;
    const SEED: u64 = 0xCAC4E;
    let text = confusion::generate(objects, DEFAULT_SEED);
    let configs: [(&str, Option<StorageLevel>, f64); 5] = [
        ("no persist", None, 0.0),
        ("deserialized", Some(StorageLevel::MemoryDeserialized), 0.0),
        ("serialized", Some(StorageLevel::MemorySerialized), 0.0),
        ("deserialized + 20% chaos", Some(StorageLevel::MemoryDeserialized), 0.20),
        ("serialized + 20% chaos", Some(StorageLevel::MemorySerialized), 0.20),
    ];
    let mut rows: Vec<(String, Vec<Cell>)> = Vec::new();
    let mut metrics: Vec<(String, u64)> = Vec::new();
    let mut notes = String::new();
    let mut baseline: Option<Vec<String>> = None;
    for (label, level, prob) in configs {
        let plan = if prob > 0.0 { FaultPlan::chaos(SEED, prob) } else { FaultPlan::default() };
        // Blocks sized so the input splits into a few dozen partitions:
        // enough per-partition cache (and fault-injection) decisions to be
        // interesting, without task-scheduling overhead drowning out the
        // parse work the cache saves.
        let sc = SparkliteContext::new(
            SparkliteConf::default()
                .with_executors(executors)
                .with_block_size(256 * 1024)
                .with_faults(plan),
        );
        put_dataset(&sc, "hdfs:///confusion.json", &text).expect("dataset fits");
        let engine = rumble_core::Rumble::new(sc.clone());
        engine.set_auto_persist(level);
        let query = rumble_query("hdfs:///confusion.json", ConfusionQuery::Filter);
        let prepared = engine.compile(&query).expect("query compiles");
        // The timed runs are pure pipeline work (count, nothing
        // materialized on the driver): the first pays the JSON parse and
        // fills the cache, the warm ones are averaged over `tries`.
        let (cold_n, cold) = time(|| prepared.count().expect("query runs"));
        let (_, warm) = repeat(tries, || {
            prepared.count().map(|n| assert_eq!(n, cold_n, "{label}: warm run diverged"))
        })
        .expect("query runs");
        // Identity is checked on the full (untimed) result set, not just
        // the count: every configuration must produce the same items.
        let mut out: Vec<String> =
            prepared.collect().expect("query runs").iter().map(|i| i.serialize()).collect();
        out.sort();
        assert_eq!(out.len() as u64, cold_n, "{label}: collect disagreed with count");
        match &baseline {
            None => baseline = Some(out),
            Some(base) => assert_eq!(&out, base, "{label} changed the answer"),
        }
        let m = sc.metrics();
        if level.is_some() {
            assert!(m.cache_hits > 0, "{label}: warm runs never hit the cache");
        }
        let speedup = cold.as_secs_f64() / warm.as_secs_f64().max(1e-9);
        notes.push_str(&format!(
            "{label}: {speedup:.1}x warm speedup, {} hit(s) / {} miss(es) / {} eviction(s), \
             {} cached byte(s)\n",
            m.cache_hits, m.cache_misses, m.cache_evictions, m.cached_bytes
        ));
        push_metrics(
            &mut metrics,
            label,
            [
                ("cache_hits", m.cache_hits),
                ("cache_misses", m.cache_misses),
                ("cache_evictions", m.cache_evictions),
                ("cached_bytes", m.cached_bytes),
            ],
        );
        rows.push((label.to_string(), vec![Cell::Time(cold), Cell::Time(warm)]));
    }
    let report = format!(
        "{}\n{notes}every configuration returned identical results; with a storage level set, \
         warm runs serve source partitions from the partition cache instead of re-parsing \
         JSON, and chaos-hit partitions fall back to lineage recomputation.\n",
        render_cells(
            &format!("Cache — cold vs warm, {objects} objects, {executors} cores, seed {SEED:#x}"),
            &["cold", "warm"],
            &rows
        )
    );
    FigureReport { rows, report, metrics }
}

/// How a distributed figure deploys its workers: `None` for thread-mode
/// workers (same wire protocol, no process spawn — what the in-crate smoke
/// tests use), `Some(cmd)` for worker processes launched as `cmd` (empty →
/// re-invoke the current executable with `--executor`, which works for the
/// harness binary; integration tests pass the harness path explicitly
/// because *their* executable has no worker mode).
pub type WorkerCmd = Option<Vec<String>>;

/// Builds the context for one distributed-mode row: `workers` executor
/// workers in the chosen deployment mode, with event collection on (so the
/// timeline can be reconciled after shutdown) or off (the baseline arm of
/// the obs overhead A/B).
fn dist_context(
    executors: usize,
    workers: usize,
    cmd: &WorkerCmd,
    collect: bool,
) -> SparkliteContext {
    let conf = SparkliteConf::default()
        .with_executors(executors)
        .with_block_size(64 * 1024)
        .with_event_collection(collect)
        .with_event_capacity(1 << 20)
        // Fast heartbeat cadence (generous deadline): the smoke-scale runs
        // finish in tens of milliseconds since aggregation vectorized, and
        // the dist tests still assert that heartbeats flowed.
        .with_dist_heartbeat(5, 3000);
    let conf = match cmd {
        Some(cmd) => conf.with_dist_workers(workers, cmd.clone()),
        None => conf.with_dist_threads(workers),
    };
    SparkliteContext::new(conf)
}

/// Runs Fig. 11 `queries` through Rumble on `sc` and returns normalized
/// outputs plus per-query averaged wall clocks; panics if a query fails.
fn run_queries(
    sc: &SparkliteContext,
    queries: &[ConfusionQuery],
    tries: usize,
) -> (Vec<QueryOutput>, Vec<Cell>) {
    queries
        .iter()
        .map(|&query| {
            let (out, d) = repeat(tries, || {
                run_confusion(System::Rumble, sc, "hdfs:///confusion.json", query)
            })
            .unwrap_or_else(|e| panic!("query {query:?} failed: {e}"));
            (out.normalized(), Cell::Time(d))
        })
        .unzip()
}

/// Drains the cluster and checks the event stream: after
/// `shutdown_cluster` no more executor events arrive, so the timeline must
/// reconcile exactly with the metrics snapshot.
fn reconcile_dist_run(sc: &SparkliteContext, label: &str) -> sparklite::MetricsSnapshot {
    sc.shutdown_cluster();
    let m = sc.metrics();
    let timeline = sc.timeline().expect("event collection is on");
    timeline
        .reconcile(&m)
        .unwrap_or_else(|e| panic!("{label}: timeline does not reconcile with metrics: {e}"));
    m
}

/// **Dist** — executor-process scaling (no paper analogue; exercises the
/// §4.1 architecture claim that the engine runs on a cluster of separate
/// executor processes): the Fig. 11 queries on the local threaded engine
/// vs 1/2/4 executor workers exchanging shuffle blocks over TCP. Every
/// configuration must return byte-identical results; the metrics record
/// the shuffle traffic (blocks and bytes pushed/fetched) and the
/// heartbeat overhead of the control plane.
pub fn dist(objects: usize, worker_counts: &[usize], tries: usize, cmd: WorkerCmd) -> FigureReport {
    let text = confusion::generate(objects, DEFAULT_SEED);
    let cores = host_cores();
    let mut rows: Vec<(String, Vec<Cell>)> = Vec::new();
    let mut metrics: Vec<(String, u64)> = Vec::new();
    let mut notes = String::new();

    let sc = SparkliteContext::new(SparkliteConf::default().with_executors(cores));
    put_dataset(&sc, "hdfs:///confusion.json", &text).expect("dataset fits");
    let (baseline, cells) = run_queries(&sc, &QUERIES, tries);
    rows.push(("local threads".to_string(), cells));

    let kind = if cmd.is_some() { "process" } else { "thread" };
    for &w in worker_counts {
        let label = format!("{w} {kind} worker(s)");
        let sc = dist_context(cores, w, &cmd, true);
        put_dataset(&sc, "hdfs:///confusion.json", &text).expect("dataset fits");
        let (outputs, cells) = run_queries(&sc, &QUERIES, tries);
        for (i, out) in outputs.iter().enumerate() {
            assert_eq!(out, &baseline[i], "{label} changed the answer of {:?}", QUERIES[i]);
        }
        let m = reconcile_dist_run(&sc, &label);
        assert_eq!(m.executors_registered, w as u64, "{label}: registration count");
        assert!(m.blocks_pushed > 0, "{label}: shuffles never reached the block service");
        assert!(m.blocks_fetched > 0, "{label}: reducers never fetched remote blocks");
        notes.push_str(&format!(
            "{label}: {} block(s) / {} B pushed, {} fetch(es) / {} B served, \
             {} heartbeat(s)\n",
            m.blocks_pushed,
            m.block_bytes_pushed,
            m.blocks_fetched,
            m.block_bytes_fetched,
            m.heartbeats
        ));
        push_metrics(
            &mut metrics,
            &label,
            [
                ("blocks_pushed", m.blocks_pushed),
                ("block_bytes_pushed", m.block_bytes_pushed),
                ("blocks_fetched", m.blocks_fetched),
                ("block_bytes_fetched", m.block_bytes_fetched),
                ("heartbeats", m.heartbeats),
            ],
        );
        rows.push((label, cells));
    }
    let report = format!(
        "{}\n{notes}every configuration returned results identical to the local threaded \
         engine, and each distributed timeline reconciled with its metrics snapshot.\n",
        render_rows(&format!("Dist — executor scaling, {objects} objects, {cores} cores"), &rows)
    );
    FigureReport { rows, report, metrics }
}

/// Counts the distinct executor worker process lanes (synthetic pids in
/// the 1000+ range) that contribute at least one complete (`"X"`) slice to
/// a Chrome trace — the "did executor-side spans actually cross the
/// process boundary" check of the obs figure.
fn worker_lane_count(chrome: &str) -> usize {
    let v = jsonlite::parse_value(chrome).expect("chrome trace parses");
    let events = v
        .get("traceEvents")
        .and_then(|x| x.as_array())
        .expect("chrome trace has a traceEvents array");
    let mut pids = std::collections::BTreeSet::new();
    for e in events {
        if e.get("ph").and_then(|x| x.as_str()) == Some("X") {
            if let Some(pid) = e.get("pid").and_then(|x| x.as_i64()) {
                if pid >= 1000 {
                    pids.insert(pid);
                }
            }
        }
    }
    pids.len()
}

/// **Obs** — cluster-wide observability A/B (no paper analogue; exercises
/// the executor event-stream subsystem): the Fig. 11 queries on two
/// executor workers with event collection off vs on. The traced arm must
/// reconcile its merged multi-process timeline exactly with the metrics
/// snapshot, lose zero events, drain both executor streams, and export a
/// Chrome trace whose slices span at least two distinct worker process
/// lanes; the A/B delta is the cross-process instrumentation overhead.
/// Both arms run through `interleaved`, cells are best-of-`tries`
/// (minimum wall clock), and the figure also reports the within-arm
/// spread as the box's A/A noise floor — the resolution limit
/// below which the harness's overhead gate refuses to rule. Returns the
/// figure plus the traced run's Chrome trace for the harness to write.
pub fn obs(objects: usize, tries: usize, cmd: WorkerCmd) -> (FigureReport, String) {
    const WORKERS: usize = 2;
    let text = confusion::generate(objects, DEFAULT_SEED);
    let cores = host_cores();
    let kind = if cmd.is_some() { "process" } else { "thread" };

    // Both arms stay alive for the whole measurement and alternate within
    // each try (`interleaved`): with sequential arms the A/B would measure
    // "was the box busier later", which at this scale is far larger than
    // the instrumentation cost. Arm A: collection off — the executor
    // protocol still flows (heartbeats, event batches), but the driver has
    // no collector listening. Arm B: collection on — the arm whose timeline
    // must hold up. The driver's warm-up run pays process spawn,
    // page-cache, and allocator warm-up — cold-start cost, not
    // instrumentation cost, and bigger than the effect being measured.
    let sc_off = dist_context(cores, WORKERS, &cmd, false);
    put_dataset(&sc_off, "hdfs:///confusion.json", &text).expect("dataset fits");
    let sc = dist_context(cores, WORKERS, &cmd, true);
    put_dataset(&sc, "hdfs:///confusion.json", &text).expect("dataset fits");
    let arms = [&sc_off, &sc];
    let mut rows: Vec<(String, Vec<Cell>)> = Vec::new();
    // The overhead estimate is best-of vs best-of: the sum of per-query
    // minima is the classic noise-free-time estimate. Alongside it, the
    // within-arm spread (median − min of the *same* configuration's runs)
    // measures the A/A repeatability of this box right now: an A/B
    // difference smaller than the difference between identical runs is
    // unresolvable, so the harness's percentage gate only binds once the
    // delta clears this floor (the sum over queries of the wider arm's
    // spread). On a quiet multicore machine the spread is a few ms and the
    // gate has its full 3% teeth; on a loaded single-core box it refuses to
    // turn scheduler jitter into a verdict.
    let (mut best_base, mut best_traced, mut noise_floor) =
        (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    for query in QUERIES {
        let [(base, base_spread, _), (traced, traced_spread, _)] = interleaved(tries, |a| {
            run_confusion(System::Rumble, arms[a], "hdfs:///confusion.json", query)
                .unwrap_or_else(|e| panic!("obs run failed on {query:?}: {e}"))
        });
        best_base += base;
        best_traced += traced;
        noise_floor += base_spread.max(traced_spread);
        rows.push((
            format!("{query:?}").to_lowercase(),
            vec![Cell::Time(base), Cell::Time(traced)],
        ));
    }
    sc_off.shutdown_cluster();
    let m = reconcile_dist_run(&sc, "obs"); // exact or panic
    assert_eq!(m.executors_registered, WORKERS as u64, "obs: registration count");
    assert_eq!(m.events_lost, 0, "obs: a clean run must not lose executor events");

    // Both executor streams must have drained cleanly at shutdown, with
    // their registration-time clock offsets on record.
    let cluster = sc.cluster().expect("distributed mode is on");
    let mut metrics: Vec<(String, u64)> = Vec::new();
    let mut stream_notes = String::new();
    for w in 0..WORKERS {
        let st = cluster.forward_stats(w).expect("worker exists");
        assert!(st.drained, "obs: worker {w} event stream never drained");
        assert_eq!(st.lost, 0, "obs: worker {w} lost events in a clean run");
        metrics.push((format!("worker{w}.last_seq"), st.last_seq));
        stream_notes.push_str(&format!(
            "worker {w}: drained at seq {} (clock offset {:+} µs)\n",
            st.last_seq, st.offset_us
        ));
    }

    let timeline = sc.timeline().expect("collection is on");
    let jsonl = timeline.to_jsonl();
    let events_checked = crate::validate_event_log(&jsonl)
        .unwrap_or_else(|e| panic!("obs: JSONL event log failed schema validation: {e}"));
    let chrome = timeline.to_chrome_trace();
    let slices = crate::validate_chrome_trace(&chrome)
        .unwrap_or_else(|e| panic!("obs: Chrome trace failed validation: {e}"));
    let lanes = worker_lane_count(&chrome);
    assert!(
        lanes >= 2,
        "obs: Chrome trace has spans from only {lanes} worker process lane(s), need 2"
    );

    let delta_secs = best_traced.as_secs_f64() - best_base.as_secs_f64();
    let overhead_pct = delta_secs / best_base.as_secs_f64().max(1e-9) * 100.0;
    let delta = best_traced.saturating_sub(best_base);
    metrics.extend([
        ("events".to_string(), events_checked as u64),
        ("trace_slices".to_string(), slices as u64),
        ("worker_lanes".to_string(), lanes as u64),
        ("events_lost".to_string(), m.events_lost),
        ("heartbeats".to_string(), m.heartbeats),
        ("overhead_bp".to_string(), (overhead_pct * 100.0).max(0.0).round() as u64),
        ("overhead_delta_us".to_string(), delta.as_micros() as u64),
        ("noise_floor_us".to_string(), noise_floor.as_micros() as u64),
    ]);
    let report = format!(
        "{}\n{stream_notes}cross-process instrumentation overhead: {overhead_pct:+.1}% wall \
         clock (best of {} interleaved tries per arm, A/A noise floor {:.1} ms, collection \
         on vs off, {WORKERS} {kind} workers); \
         {events_checked} events merged, {slices} trace slices across {lanes} worker process \
         lanes; the merged timeline reconciled exactly with the metrics snapshot.\n",
        render_cells(
            &format!(
                "Obs — executor event streams A/B, {objects} objects, {WORKERS} {kind} workers"
            ),
            &["events off", "events on"],
            &rows,
        ),
        tries.max(1),
        noise_floor.as_secs_f64() * 1e3,
    );
    (FigureReport { rows, report, metrics }, chrome)
}

/// The `--kill-executor` chaos listener: on the `trigger`-th map-output
/// push it kills one worker *synchronously* and waits for the cluster to
/// detect the death, so the reduce phase deterministically finds part of
/// the shuffle gone and must recover it through lineage.
struct KillOnPush {
    cluster: std::sync::Arc<sparklite::dist::Cluster>,
    pushes: std::sync::atomic::AtomicU64,
    trigger: u64,
    fired: std::sync::atomic::AtomicBool,
}

impl sparklite::EventListener for KillOnPush {
    fn on_event(&self, event: &sparklite::Event) {
        use std::sync::atomic::Ordering;
        if !matches!(event, sparklite::Event::BlockPush { .. }) {
            return;
        }
        let n = self.pushes.fetch_add(1, Ordering::SeqCst) + 1;
        if n >= self.trigger && !self.fired.swap(true, Ordering::SeqCst) {
            self.cluster.kill_worker(0);
            assert!(
                self.cluster.await_death(0, Duration::from_secs(10)),
                "killed worker 0 was never declared dead"
            );
        }
    }
}

/// **Chaos / kill-executor** — worker-death recovery: the Fig. 11 queries
/// with two executor workers, one of which is killed (a real `SIGKILL` in
/// process mode, an abrupt connection drop in thread mode) right after it
/// starts receiving map outputs. The survivors must recompute the lost
/// blocks through lineage and every query must still return the same
/// answer as the local threaded engine.
pub fn chaos_kill_executor(objects: usize, tries: usize, cmd: WorkerCmd) -> FigureReport {
    let text = confusion::generate(objects, DEFAULT_SEED);
    let cores = host_cores();

    let sc = SparkliteContext::new(SparkliteConf::default().with_executors(cores));
    put_dataset(&sc, "hdfs:///confusion.json", &text).expect("dataset fits");
    let (baseline, base_cells) = run_queries(&sc, &QUERIES, tries);

    let kind = if cmd.is_some() { "process" } else { "thread" };
    let sc = dist_context(cores, 2, &cmd, true);
    put_dataset(&sc, "hdfs:///confusion.json", &text).expect("dataset fits");
    let cluster = std::sync::Arc::clone(sc.cluster().expect("distributed mode is on"));
    sc.add_event_listener(std::sync::Arc::new(KillOnPush {
        cluster,
        pushes: std::sync::atomic::AtomicU64::new(0),
        trigger: 2,
        fired: std::sync::atomic::AtomicBool::new(false),
    }));
    let (outputs, kill_cells) = run_queries(&sc, &QUERIES, tries);
    for (i, out) in outputs.iter().enumerate() {
        assert_eq!(out, &baseline[i], "worker death changed the answer of {:?}", QUERIES[i]);
    }
    let m = reconcile_dist_run(&sc, "kill-executor");
    assert!(m.executors_lost >= 1, "the killed worker was never declared lost");
    assert!(
        m.recomputed_tasks >= 1,
        "worker death never forced a lineage recomputation (lost no blocks?)"
    );
    // Lost-event accounting: the killed worker's stream must have been
    // finalized (marked cut, not silently dropped), with its last forwarded
    // sequence number and known-lost count on record.
    let killed =
        sc.cluster().expect("distributed mode is on").forward_stats(0).expect("worker 0 exists");
    assert!(killed.drained, "the killed worker's event stream was never finalized");

    let rows =
        vec![("local threads".to_string(), base_cells), ("1 of 2 killed".to_string(), kill_cells)];
    let metrics = vec![
        ("executors_registered".to_string(), m.executors_registered),
        ("executors_lost".to_string(), m.executors_lost),
        ("recomputed_tasks".to_string(), m.recomputed_tasks),
        ("blocks_pushed".to_string(), m.blocks_pushed),
        ("blocks_fetched".to_string(), m.blocks_fetched),
        ("killed_last_seq".to_string(), killed.last_seq),
        ("killed_lost_events".to_string(), killed.lost),
        ("events_lost".to_string(), m.events_lost),
    ];
    let report = format!(
        "{}\nkilled 1 of 2 {kind} worker(s) after its first map outputs arrived: \
         {} executor(s) lost, {} task(s) recomputed through lineage; the dead worker's \
         event stream was cut at seq {} with {} event(s) known lost; all queries \
         returned results identical to the local threaded engine.\n",
        render_rows(&format!("Chaos — kill-executor, {objects} objects"), &rows),
        m.executors_lost,
        m.recomputed_tasks,
        killed.last_seq,
        killed.lost,
    );
    FigureReport { rows, report, metrics }
}

/// **Columnar** — the physical-paths figure (no paper analogue; exercises
/// the §4.7 DataFrame runtime): every pipeline runs A/B on the row-major
/// reference interpreter and on the shipping default (fused columnar batch
/// kernels for built-in chains, UDF operators on rows, the vectorized hash
/// group-by). The pipelines are a typed scan→project→filter chain that the
/// columnar compiler fuses into one batch pass per partition; one typed group-by per key distribution —
/// ~8 rows per key, every key distinct, 16 keys, one dominant key, half
/// the keys NULL; a multi-key sort; and the Fig. 11 group and sort
/// queries, whose FLWOR mappings run through the DataFrame runtime. The
/// arms run through `interleaved` and cells are best-of-`tries`. Every
/// pipeline must return byte-identical results on both paths; the
/// DataFrame pipelines are then re-run under seeded 20% fault injection,
/// and the Fig. 11 group/sort queries through two executor workers, both
/// of which must reproduce the fault-free single-process answer exactly.
pub fn columnar(objects: usize, executors: usize, tries: usize, cmd: WorkerCmd) -> FigureReport {
    use sparklite::dataframe::{
        Agg, CmpOp, DataFrame, DataType, Expr, Field, NumOp, Row, RowCodec, Schema, SortDir, Value,
    };
    use sparklite::CacheCodec;

    const CHAOS_SEED: u64 = 0xA66C;
    const SHAPES: [&str; 5] =
        ["high cardinality", "unique keys", "low cardinality", "skewed", "NULL-laden"];
    const FIG11_SHUFFLES: [ConfusionQuery; 2] = [ConfusionQuery::Group, ConfusionQuery::Sort];
    let text = confusion::generate(objects, DEFAULT_SEED);
    let typed_rows = objects * 8;
    let rows_n = objects as i64;

    // The typed pipeline: five adjacent batch operators over native I64
    // columns — a score-style compute chain, the shape where vectorized
    // kernels beat per-row expression walks (each row-major projection
    // rebuilds the row `Vec` and walks the expression tree per row; the
    // batch path runs one kernel per operator node and shares untouched
    // columns).
    let typed_frame = |sc: &SparkliteContext| -> DataFrame {
        let schema = Schema::new(vec![
            Field::new("a", DataType::I64),
            Field::new("b", DataType::I64),
            Field::new("f", DataType::F64),
            Field::new("s", DataType::Str),
        ]);
        let rows: Vec<Row> = (0..typed_rows as i64)
            .map(|i| {
                vec![
                    Value::I64(i % 1_000),
                    Value::I64((i * 7919) % 4_096),
                    Value::F64(i as f64 * 0.25),
                    Value::str(format!("u{}", i % 50)),
                ]
            })
            .collect();
        let mix = |col: &str, m: i64, add: Expr| {
            Expr::num(
                Expr::num(
                    Expr::num(Expr::col(col), NumOp::Mul, Expr::lit(Value::I64(m))),
                    NumOp::Add,
                    add,
                ),
                NumOp::Mod,
                Expr::lit(Value::I64(4_096)),
            )
        };
        DataFrame::from_rows(sc, schema, rows, executors * 2)
            .expect("typed frame builds")
            .with_column(
                "u",
                mix("a", 13, Expr::num(Expr::col("b"), NumOp::Mul, Expr::lit(Value::I64(7)))),
                DataType::I64,
            )
            .expect("projection binds")
            .with_column("v", mix("u", 11, Expr::col("a")), DataType::I64)
            .expect("projection binds")
            .with_column("w", mix("v", 5, Expr::col("b")), DataType::I64)
            .expect("projection binds")
            .filter(Expr::cmp(Expr::col("w"), CmpOp::Gt, Expr::lit(Value::I64(3_700))))
            .expect("filter binds")
            .filter(Expr::cmp(Expr::col("u"), CmpOp::Lt, Expr::lit(Value::I64(3_072))))
            .expect("filter binds")
    };
    let dataset = |shape: &str| -> Vec<Row> {
        (0..rows_n)
            .map(|i| {
                let k = match shape {
                    // High cardinality, not degenerate: ~8 rows per group,
                    // so per-partition pre-aggregation has real work to do.
                    "high cardinality" => Value::I64(i % (rows_n / 8).max(1)),
                    // The degenerate extreme: every key distinct, map-side
                    // aggregation merges nothing and the whole input crosses
                    // the shuffle. The columnar path must not lose here.
                    "unique keys" => Value::I64(i),
                    "low cardinality" => Value::I64(i % 16),
                    "skewed" => Value::I64(if i % 10 == 0 { i % 1_000 } else { 0 }),
                    _ => {
                        if i % 2 == 0 {
                            Value::Null
                        } else {
                            Value::I64(i % 64)
                        }
                    }
                };
                let v = if i % 11 == 0 { Value::Null } else { Value::I64(i * 13 % 100_000) };
                let f =
                    if i % 13 == 0 { Value::Null } else { Value::F64(i as f64 * 0.125 - 900.0) };
                vec![k, v, f, Value::str(format!("s{}", i % 97))]
            })
            .collect()
    };
    let schema = || {
        Schema::new(vec![
            Field::new("k", DataType::Any),
            Field::new("v", DataType::I64),
            Field::new("f", DataType::F64),
            Field::new("s", DataType::Str),
        ])
    };
    let group_pipeline = |sc: &SparkliteContext, rows: Vec<Row>| -> DataFrame {
        DataFrame::from_rows(sc, schema(), rows, executors * 2)
            .expect("frame builds")
            .group_by(
                &["k"],
                vec![
                    (Agg::Count, "n".into()),
                    (Agg::Sum("v".into()), "sv".into()),
                    (Agg::Avg("f".into()), "af".into()),
                    (Agg::Min("s".into()), "ms".into()),
                ],
            )
            .expect("group-by binds")
    };
    let sort_pipeline = |sc: &SparkliteContext, rows: Vec<Row>| -> DataFrame {
        DataFrame::from_rows(sc, schema(), rows, executors * 2)
            .expect("frame builds")
            .order_by(vec![
                ("f".into(), SortDir::desc().with_nulls_last(false)),
                ("k".into(), SortDir::asc()),
            ])
            .expect("order-by binds")
    };
    // One DataFrame pipeline per figure row: the fused chain, the grouped
    // shapes, then the sort. Each is built per context; only collect is
    // timed.
    type BuildFrame<'a> = Box<dyn Fn(&SparkliteContext) -> DataFrame + 'a>;
    let mut pipelines: Vec<(String, BuildFrame<'_>)> =
        vec![("scan→project→filter (fused)".to_string(), Box::new(typed_frame) as BuildFrame<'_>)];
    for shape in SHAPES {
        let build = move |sc: &SparkliteContext| group_pipeline(sc, dataset(shape));
        pipelines.push((format!("group-by {shape}"), Box::new(build)));
    }
    pipelines.push((
        "sort (multi-key)".to_string(),
        Box::new(|sc: &SparkliteContext| sort_pipeline(sc, dataset("high cardinality"))),
    ));

    // The optimizer is pinned off so both paths execute the identical
    // logical plan: with rewrites on, filter pushdown shrinks the
    // row-major path's project work to the filter survivors, and the A/B
    // would measure rewrite quality instead of the execution model.
    let base = || SparkliteConf::default().with_executors(executors).with_optimizer(false);
    // Both arms stay alive and alternate try by try (`interleaved`): run
    // one after the other, the A/B would measure drift in machine load
    // between the arms, which on a shared host exceeds the group/sort
    // margins.
    let arms: Vec<SparkliteContext> = [true, false]
        .into_iter()
        .map(|row_major| {
            let sc = SparkliteContext::new(base().with_row_major(row_major));
            put_dataset(&sc, "hdfs:///confusion.json", &text).expect("dataset fits");
            sc
        })
        .collect();
    let mut arm_cells: [Vec<Cell>; 2] = Default::default();
    // The row-major arm's DataFrame rows (RowCodec bytes): the reference
    // every other run must reproduce.
    let mut reference: Vec<Vec<u8>> = Vec::new();
    for (name, build) in &pipelines {
        let frames: Vec<DataFrame> = arms.iter().map(build).collect();
        let [(row_wall, _, row_rows), (col_wall, _, col_rows)] = interleaved(tries, |a| {
            frames[a].collect_rows().unwrap_or_else(|e| panic!("{name}: {e}"))
        });
        let bytes = RowCodec.encode(&row_rows);
        assert_eq!(RowCodec.encode(&col_rows), bytes, "columnar execution changed '{name}'");
        reference.push(bytes);
        arm_cells[0].push(Cell::Time(row_wall));
        arm_cells[1].push(Cell::Time(col_wall));
    }
    let mut ref_outputs = Vec::new();
    for query in FIG11_SHUFFLES {
        let [(row_wall, _, row_out), (col_wall, _, col_out)] = interleaved(tries, |a| {
            run_confusion(System::Rumble, &arms[a], "hdfs:///confusion.json", query)
                .unwrap_or_else(|e| panic!("query {query:?} failed: {e}"))
                .normalized()
        });
        assert_eq!(col_out, row_out, "columnar execution changed the answer of {query:?}");
        ref_outputs.push(row_out);
        arm_cells[0].push(Cell::Time(row_wall));
        arm_cells[1].push(Cell::Time(col_wall));
    }

    let mut metrics: Vec<(String, u64)> = Vec::new();
    let mut notes = String::new();
    for (label, sc) in ["row-major", "columnar"].into_iter().zip(&arms) {
        let m = sc.metrics();
        if label == "row-major" {
            assert_eq!(m.columnar_batches, 0, "row-major path must not produce batches");
        } else {
            assert!(m.columnar_batches > 0, "columnar path never produced a batch");
            assert!(m.fused_pipelines > 0, "the typed chain never fused");
            assert!(m.agg_rows_in > 0, "columnar path never ran the hash kernel");
            assert!(m.agg_groups_out > 0, "hash kernel emitted no groups");
        }
        notes.push_str(&format!(
            "{label}: {} batch(es) across {} fused pipeline execution(s), {} row(s) into the \
             agg kernel, {} group(s) out\n",
            m.columnar_batches, m.fused_pipelines, m.agg_rows_in, m.agg_groups_out
        ));
        push_metrics(
            &mut metrics,
            label,
            [
                ("columnar_batches", m.columnar_batches),
                ("fused_pipelines", m.fused_pipelines),
                ("agg_rows_in", m.agg_rows_in),
                ("agg_groups_out", m.agg_groups_out),
            ],
        );
    }

    // Fault tolerance: the shipping default under seeded 20% chaos must
    // still reproduce every DataFrame pipeline byte-for-byte.
    let chaos = SparkliteContext::new(base().with_faults(FaultPlan::chaos(CHAOS_SEED, 0.20)));
    for (i, (name, build)) in pipelines.iter().enumerate() {
        let rows = build(&chaos).collect_rows().unwrap_or_else(|e| panic!("chaos {name}: {e}"));
        assert_eq!(RowCodec.encode(&rows), reference[i], "20% chaos changed the rows of '{name}'");
    }
    let cm = chaos.metrics();
    notes.push_str(&format!(
        "chaos (seed {CHAOS_SEED:#x}, 20%): {} injected fault(s), {} retried task(s), \
         all pipelines byte-identical\n",
        cm.injected_faults, cm.retried_tasks
    ));
    metrics.push(("chaos.injected_faults".to_string(), cm.injected_faults));

    // Cross-process identity: the Fig. 11 group/sort queries (whose FLWOR
    // mappings aggregate and sort through the DataFrame runtime) via two
    // executor workers must match the single-process answer.
    let kind = if cmd.is_some() { "process" } else { "thread" };
    let dist = dist_context(executors, 2, &cmd, true);
    put_dataset(&dist, "hdfs:///confusion.json", &text).expect("dataset fits");
    let (outputs, _) = run_queries(&dist, &FIG11_SHUFFLES, 1);
    for (i, query) in FIG11_SHUFFLES.iter().enumerate() {
        assert_eq!(outputs[i], ref_outputs[i], "2 {kind} workers changed the answer of {query:?}");
    }
    let dm = reconcile_dist_run(&dist, "columnar two-worker check");
    notes.push_str(&format!(
        "2 {kind} worker(s): {} block(s) pushed, Fig. 11 group/sort answers identical\n",
        dm.blocks_pushed
    ));
    metrics.push((format!("2 {kind} workers.blocks_pushed"), dm.blocks_pushed));

    let labels = pipelines
        .iter()
        .map(|(name, _)| name.clone())
        .chain(["Fig. 11 group".to_string(), "Fig. 11 sort".to_string()]);
    let rows: Vec<(String, Vec<Cell>)> = labels
        .enumerate()
        .map(|(i, l)| (l, arm_cells.iter().map(|cells| cells[i].clone()).collect()))
        .collect();
    let report = format!(
        "{}\n{notes}both paths returned byte-identical results; the fused-chain delta is what \
         vectorized batch kernels save over per-row expression walks, the high-cardinality \
         delta what typed accumulators over encoded keys save over per-row state merges; the \
         Fig. 11 rows run their UDF operators on rows in both arms, so only the GROUP BY map \
         side differs.\n",
        render_cells(
            &format!(
                "Columnar — physical paths, {typed_rows} typed rows / {rows_n} keyed rows / \
                 {objects} objects, {executors} cores"
            ),
            &["row-major", "columnar"],
            &rows
        )
    );
    FigureReport { rows, report, metrics }
}

/// **§6.3 prose** — the hand-tuned low-level program vs the engines.
pub fn handtuned_comparison(objects: usize) -> FigureReport {
    let sc = SparkliteContext::new(SparkliteConf::default());
    put_dataset(&sc, "hdfs:///confusion.json", &confusion::generate(objects, DEFAULT_SEED))
        .expect("dataset fits");
    let rows = measure_systems(
        &sc,
        "hdfs:///confusion.json",
        &[System::Rumble, System::ZorbaLike, System::HandTuned],
        1,
    );
    let report = format!(
        "{}\npaper: ad-hoc low-level code beats every generic engine by a constant factor \
         (36s filter / 44s group on half the cores for 16M objects).\n",
        render_rows(&format!("§6.3 — hand-tuned comparison, {objects} objects"), &rows)
    );
    FigureReport { rows, report, metrics: Vec::new() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig11_smoke() {
        let r = fig11(400, 2, 1);
        assert_eq!(r.rows.len(), 4);
        assert!(r.rows.iter().all(|(_, cells)| cells.iter().all(|c| c.seconds().is_some())));
        assert!(r.report.contains("Fig. 11"));
    }

    #[test]
    fn fig12_smoke_records_cliffs() {
        let r = fig12(&[200, 400], Duration::from_secs(30));
        assert_eq!(r.rows.len(), 6);
    }

    #[test]
    fn chaos_smoke_recovers_identically() {
        // The figure itself asserts that every fault plan returns results
        // identical to the fault-free run.
        let r = chaos(2_000, 3, 1);
        assert_eq!(r.rows.len(), 3);
        assert!(r.rows.iter().all(|(_, cells)| cells.iter().all(|c| c.seconds().is_some())));
        assert!(r.report.contains("recomputed"));
    }

    #[test]
    fn cache_smoke_hits_and_answers_identically() {
        // The figure asserts internally that every configuration (both
        // storage levels, chaos or not) answers identically and that warm
        // runs actually hit the cache.
        let r = cache(2_000, 3, 1);
        assert_eq!(r.rows.len(), 5);
        assert!(r.rows.iter().all(|(_, cells)| cells.len() == 2));
        assert!(r.metrics.iter().any(|(k, v)| k == "deserialized.cache_hits" && *v > 0));
        assert!(r.report.contains("warm speedup"));
    }

    #[test]
    fn dist_smoke_matches_local() {
        // Thread-mode workers run the same wire protocol as processes;
        // the figure asserts identity with the local engine, reconciles
        // the timeline, and checks real block traffic internally.
        let r = dist(2_000, &[2], 1, None);
        assert_eq!(r.rows.len(), 2);
        assert!(r.metrics.iter().any(|(k, v)| k.ends_with(".blocks_pushed") && *v > 0));
        assert!(r.report.contains("identical"));
    }

    #[test]
    fn chaos_kill_executor_smoke_recovers() {
        // The figure kills 1 of 2 workers after its first map outputs
        // land and asserts identity + lineage recomputation internally.
        let r = chaos_kill_executor(2_000, 1, None);
        assert_eq!(r.rows.len(), 2);
        assert!(r.metrics.iter().any(|(k, v)| k == "executors_lost" && *v >= 1));
        assert!(r.metrics.iter().any(|(k, v)| k == "recomputed_tasks" && *v >= 1));
    }

    #[test]
    fn columnar_smoke_matches_and_fuses() {
        // The figure asserts internally that both physical paths return
        // byte-identical results (also under 20% chaos and through two
        // thread workers) and that the columnar path actually ran batches
        // through fused pipelines and the hash group-by kernel.
        let r = columnar(2_000, 3, 1, None);
        // Fused chain, five group-by shapes, multi-key sort, Fig. 11
        // group and sort.
        assert_eq!(r.rows.len(), 9);
        assert!(r.rows.iter().all(|(_, cells)| cells.len() == 2));
        assert!(r.metrics.iter().any(|(k, v)| k == "columnar.fused_pipelines" && *v > 0));
        assert!(r.metrics.iter().any(|(k, v)| k == "columnar.columnar_batches" && *v > 0));
        assert!(r.metrics.iter().any(|(k, v)| k == "columnar.agg_rows_in" && *v > 0));
        assert!(r.metrics.iter().any(|(k, v)| k == "row-major.columnar_batches" && *v == 0));
        assert!(r.report.contains("byte-identical"));
    }

    #[test]
    fn obs_smoke_reconciles() {
        // Thread-mode workers: the figure asserts internally that the merged
        // timeline reconciles with the metrics, no executor event is lost,
        // both streams drain, and the Chrome trace has two worker lanes.
        let (r, chrome) = obs(2_000, 1, None);
        assert_eq!(r.rows.len(), QUERIES.len());
        assert!(r.rows.iter().all(|(_, cells)| cells.iter().all(|c| c.seconds().is_some())));
        assert!(r.metrics.iter().any(|(k, v)| k == "events" && *v > 0));
        assert!(r.metrics.iter().any(|(k, v)| k == "events_lost" && *v == 0));
        assert!(r.metrics.iter().any(|(k, _)| k == "noise_floor_us"));
        assert!(chrome.contains("traceEvents"));
    }

    #[test]
    fn check_ab_applies_budgets() {
        let ms = |v: u64| Cell::Time(Duration::from_millis(v));
        let report = FigureReport {
            rows: vec![
                ("fused".to_string(), vec![ms(10), ms(10)]),
                ("sort a".to_string(), vec![ms(100), ms(110)]),
                ("sort b".to_string(), vec![ms(100), ms(111)]),
                ("broken".to_string(), vec![ms(10), Cell::Failed("oom".into())]),
            ],
            report: String::new(),
            metrics: Vec::new(),
        };
        // At budget passes, exact labels and prefixes alike.
        assert_eq!(check_ab(&report, &[("fused", 1.0), ("sort a", 1.10)]), Ok(()));
        // One row over budget fails, naming the row.
        let err = check_ab(&report, &[("sort *", 1.10)]).unwrap_err();
        assert!(err.contains("'sort b'"), "{err}");
        // A failed cell is an error, and so is a gate that matches nothing.
        assert!(check_ab(&report, &[("broken", 10.0)]).unwrap_err().contains("'broken'"));
        assert!(check_ab(&report, &[("missing", 1.0)]).is_err());
    }

    #[test]
    fn fig14_smoke() {
        let r = fig14(2_000, &[1, 2], 1);
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[1].0, "2 executors");
        assert!(r
            .rows
            .iter()
            .all(|(_, cells)| cells.len() == 3 && cells.iter().all(|c| c.seconds().is_some())));
        assert!(r.report.contains("speedup"));
    }

    #[test]
    fn fig15_smoke_is_monotone() {
        let r = fig15(1_000, &[1, 4], 2);
        assert_eq!(r.rows[1].0, "4000 objects");
        let runtime = |i: usize| r.rows[i].1[0].seconds().expect("runtime measured");
        assert!(runtime(1) >= runtime(0) / 2.0, "larger input not faster");
    }
}
