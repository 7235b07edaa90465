//! The traced run: spans around every query and layer probe, job, stage
//! and task spans from the program's scheduler `Timeline`, and counter
//! deltas from `SparkliteContext::metrics()`.

use crate::mix::{Arm, MixResult};
use crate::report::{self, Metric};
use crate::spans::Trace;
use crate::stats;
use crate::workload::{self, Kind, Workload, KINDS};
use rumble_baselines::{sparksql, ConfusionQuery};
use rumble_core::item::{decode_items, encode_items, items_from_json_lines};
use rumble_core::Item;
use sparklite::{Event, MetricsSnapshot, SparkliteContext};
use std::collections::HashMap;
use std::time::Instant;

/// Bytes per MB in every per-MB rate.
const MB: f64 = 1e6;
/// Repetitions of each layer probe; the median is reported. The SQL
/// probes run whole queries (seconds at 200K objects) and run once.
const PROBE_REPS: usize = 3;
const SQL_PROBE_REPS: usize = 1;

/// Records query, compile, execute, stage, job and task spans for every
/// query of the traced arm.
#[derive(Default)]
pub struct Recorder {
    pub trace: Trace,
    queries: u64,
    /// Indices of the `execute` spans.
    executes: Vec<usize>,
    compile_ms: Vec<f64>,
    task_busy_ms: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    max_cached_bytes: u64,
    /// Lookups of caches that outlive the query reading them: the
    /// auto-persisted input of `fig11-warm`, not a query's scratch caches.
    input_hits: u64,
    input_lookups: u64,
}

impl Recorder {
    /// Records one traced query from its compile and execute intervals (µs
    /// on the arm's event clock) and the events its context collected.
    pub fn record_query(&mut self, arm: &Arm, kind: Kind, compile: (u64, u64), exec: (u64, u64)) {
        self.queries += 1;
        let q = self.queries;
        let t = &mut self.trace;
        let root = t.push(q, None, "query", format!("{} #{q}", kind.name()), compile.0, exec.1);
        t.push(q, Some(root), "compile", "compile", compile.0, compile.1);
        self.compile_ms.push((compile.1 - compile.0) as f64 / 1e3);
        let ex = t.push(q, Some(root), "execute", "execute", exec.0, exec.1);
        self.executes.push(ex);

        let cached = arm.sc.cache().cached_bytes() as u64;
        self.max_cached_bytes = self.max_cached_bytes.max(cached);
        let timeline = arm.sc.timeline().expect("the traced arm collects events");
        arm.sc.event_collector().expect("the traced arm collects events").clear();
        let mut stages: HashMap<u64, usize> = HashMap::new();
        let mut jobs: HashMap<u64, usize> = HashMap::new();
        let scratch: std::collections::HashSet<u64> = timeline
            .events()
            .iter()
            .filter_map(|(_, ev)| match ev {
                Event::CachePut { rdd, .. } => Some(*rdd),
                _ => None,
            })
            .collect();
        for (at, ev) in timeline.events() {
            let at = *at;
            match ev {
                Event::StageSubmitted { stage, .. } => {
                    let i = t.push(q, Some(ex), "stage", format!("stage {stage}"), at, exec.1);
                    stages.insert(*stage, i);
                }
                Event::StageCompleted { stage, .. } => {
                    if let Some(&i) = stages.get(stage) {
                        t.spans[i].end_us = at;
                    }
                }
                Event::JobStart { job, stage, .. } => {
                    let parent = stage.and_then(|s| stages.get(&s).copied()).unwrap_or(ex);
                    jobs.insert(
                        *job,
                        t.push(q, Some(parent), "job", format!("job {job}"), at, exec.1),
                    );
                }
                Event::JobEnd { job, .. } => {
                    if let Some(&i) = jobs.get(job) {
                        t.spans[i].end_us = at;
                    }
                }
                Event::TaskEnd { job, partition, attempt, busy_us, queue_us, .. } => {
                    let parent = jobs.get(job).copied().unwrap_or(ex);
                    let start = at.saturating_sub(*busy_us);
                    let name = format!("task {job}.{partition}.{attempt}");
                    t.push(q, Some(parent), "task", name, start, at);
                    if *queue_us > 0 {
                        let queued = start.saturating_sub(*queue_us);
                        t.push(q, Some(parent), "queue", "queue wait", queued, start);
                    }
                    self.task_busy_ms.push(*busy_us as f64 / 1e3);
                    self.queue_wait_ms.push(*queue_us as f64 / 1e3);
                }
                Event::CacheRead { rdd, hit, .. } if !scratch.contains(rdd) => {
                    self.input_lookups += 1;
                    self.input_hits += u64::from(*hit);
                }
                _ => {}
            }
        }
    }
}

/// Runs `f` `reps` times, each inside a span on `layer`, and
/// returns the median milliseconds and the last result.
fn probe<T>(
    trace: &mut Trace,
    epoch: Instant,
    layer: &'static str,
    reps: usize,
    mut f: impl FnMut() -> T,
) -> (f64, T) {
    let mut ms = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let out = std::hint::black_box(f());
        let t1 = Instant::now();
        let us = |t: Instant| t.saturating_duration_since(epoch).as_micros() as u64;
        trace.push(0, None, layer, layer, us(t0), us(t1));
        ms.push((t1 - t0).as_secs_f64() * 1e3);
        last = Some(out);
    }
    (stats::median(&ms).expect("at least one repetition"), last.expect("at least one repetition"))
}

/// The workload's group and sort through the Spark SQL baseline: the
/// DataFrame kernels without JSONiq UDFs. On messy data, schema inference
/// keeps only `id` (every other field has conflicting types), so the probe
/// groups and sorts on that.
fn sql_probe(sc: &SparkliteContext, workload: Workload, kind: Kind) -> Result<u64, String> {
    let path = workload.input_path();
    if workload != Workload::Messy {
        let q = if kind == Kind::Group { ConfusionQuery::Group } else { ConfusionQuery::Sort };
        return sparksql::run(sc, path, q).map(|_| 0).map_err(|e| e.to_string());
    }
    let df = sparklite::sql::read_json(sc, path).map_err(|e| e.to_string())?;
    let mut ctx = sparklite::sql::SqlContext::new();
    ctx.register("dataset", df);
    let sql = if kind == Kind::Group {
        "SELECT id, COUNT(*) AS n FROM dataset GROUP BY id"
    } else {
        "SELECT id FROM dataset ORDER BY id DESC LIMIT 10"
    };
    let out = ctx.sql(sql).map_err(|e| e.to_string())?;
    out.collect_rows().map(|r| r.len() as u64).map_err(|e| e.to_string())
}

/// Counter growth of the traced arm over its timed mix.
fn delta(after: &MetricsSnapshot, before: &MetricsSnapshot) -> MetricsSnapshot {
    let mut d = *after;
    macro_rules! sub {
        ($($f:ident),*) => { $( d.$f = after.$f.saturating_sub(before.$f); )* };
    }
    sub!(
        jobs,
        tasks,
        shuffle_records,
        shuffle_bytes,
        task_busy_us,
        failed_tasks,
        retried_tasks,
        cache_evictions,
        columnar_batches,
        fused_pipelines,
        agg_rows_in,
        agg_groups_out
    );
    d
}

/// Every per-layer metric a traced run reports, `(name, unit)`, in output
/// order.
pub const PER_LAYER_METRICS: [(&str, &str); 38] = [
    ("jsonlite.parse_ms_per_mb", "ms/MB"),
    ("jsonlite.write_ms_per_mb", "ms/MB"),
    ("storage.put_ms_per_mb", "ms/MB"),
    ("storage.read_ms_per_mb", "ms/MB"),
    ("compiler.compile_ms", "ms"),
    ("runtime.job_ms", "ms"),
    ("runtime.driver_ms", "ms"),
    ("codec.encode_ms_per_mitem", "ms/Mitem"),
    ("codec.decode_ms_per_mitem", "ms/Mitem"),
    ("codec.bytes_per_item", "B"),
    ("shuffle.records", "count"),
    ("shuffle.bytes", "B"),
    ("executor.jobs", "count"),
    ("executor.tasks", "count"),
    ("executor.task_busy_ms", "ms"),
    ("executor.task_p99_ms", "ms"),
    ("executor.queue_wait_p50_ms", "ms"),
    ("executor.failed_tasks", "count"),
    ("executor.retried_tasks", "count"),
    ("dataframe.sql_group_ms", "ms"),
    ("dataframe.sql_sort_ms", "ms"),
    ("dataframe.columnar_batches", "count"),
    ("dataframe.fused_pipelines", "count"),
    ("dataframe.agg_rows_in", "count"),
    ("dataframe.agg_groups_out", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.cached_mb", "MB"),
    ("cache.evictions", "count"),
    ("proc.user_s", "s"),
    ("proc.sys_s", "s"),
    ("proc.minflt", "count"),
    ("trace.scan_ms", "ms"),
    ("trace.group_ms", "ms"),
    ("trace.sort_ms", "ms"),
    ("notrace.scan_ms", "ms"),
    ("notrace.group_ms", "ms"),
    ("notrace.sort_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// The per-layer metrics of a traced run, in declaration order, with units.
pub struct LayerReport {
    pub metrics: Vec<Metric>,
    /// Self time per layer over the whole trace, ms.
    pub self_ms: Vec<(&'static str, f64)>,
    pub spans_jsonl: String,
}

/// Everything the traced run needs besides the two arms' mix results.
pub struct TracedInputs<'a> {
    pub workload: Workload,
    pub text: &'a str,
    pub traced: &'a Arm,
    pub untraced_mix: &'a MixResult,
    pub traced_mix: &'a MixResult,
    pub before: MetricsSnapshot,
    pub recorder: Recorder,
}

/// Derives every per-layer metric: counters of the traced mix, span
/// self times, and the layer probes (run here, on the traced arm).
pub fn layer_report(inp: TracedInputs<'_>) -> Result<LayerReport, String> {
    let TracedInputs { workload, text, traced, untraced_mix, traced_mix, before, mut recorder } =
        inp;
    let sc = &traced.sc;
    let d = delta(&sc.metrics(), &before);
    let epoch = sc.event_bus().epoch();
    let queries = recorder.queries.max(1) as f64;
    let per_q = |v: u64| v as f64 / queries;

    // runtime: execute time covered by sparklite jobs vs the rest.
    let (mut job_us, mut driver_us) = (0u64, 0u64);
    for &ex in &recorder.executes {
        let covered = recorder.trace.covered_us(ex);
        job_us += covered;
        driver_us += recorder.trace.spans[ex].dur_us() - covered;
    }

    // Layer probes over the workload's own input blocks.
    let input_key = workload.input_path().trim_start_matches("hdfs://");
    let hdfs = sc.hdfs();
    let nblocks = hdfs.num_blocks(input_key).map_err(|e| e.to_string())?;
    let blocks: Vec<_> = (0..nblocks)
        .map(|b| hdfs.read_block(input_key, b))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let input_mb = text.len() as f64 / MB;
    let t = &mut recorder.trace;
    let (parse_ms, parsed) = probe(t, epoch, "jsonlite.parse", PROBE_REPS, || {
        blocks.iter().map(|b| items_from_json_lines(b)).collect::<Result<Vec<_>, _>>()
    });
    let parsed = parsed.map_err(|e| e.to_string())?;
    let items: usize = parsed.iter().map(Vec::len).sum();
    // The items written back: the cleaned records on messy, else the input.
    let written: Vec<Vec<Item>> = if workload == Workload::Messy {
        let engine = workload::fresh_engine(sc);
        let q = engine.compile(&workload.query(Kind::Scan)).map_err(|e| e.to_string())?;
        vec![q.collect().map_err(|e| e.to_string())?]
    } else {
        parsed.clone()
    };
    let (write_ms, out_bytes) = probe(t, epoch, "jsonlite.write", PROBE_REPS, || {
        // `Item::serialize` drives `write_item` into a fresh `JsonWriter`.
        written.iter().flatten().map(|i| i.serialize().len() + 1).sum::<usize>()
    });
    let (put_ms, _) = probe(t, epoch, "storage.put", PROBE_REPS, || {
        hdfs.delete("/probe_put.json");
        hdfs.put_text("/probe_put.json", text)
    });
    hdfs.delete("/probe_put.json");
    let (read_ms, _) =
        probe(t, epoch, "storage.read", PROBE_REPS, || hdfs.read_to_string(input_key));
    let (encode_ms, encoded) = probe(t, epoch, "codec.encode", PROBE_REPS, || {
        parsed.iter().map(|b| encode_items(b)).collect::<Vec<_>>()
    });
    let (decode_ms, decoded) = probe(t, epoch, "codec.decode", PROBE_REPS, || {
        encoded.iter().map(|b| decode_items(b).map(|v| v.len())).sum::<Result<usize, _>>()
    });
    if decoded.map_err(|e| e.to_string())? != items {
        return Err("codec round trip lost items".into());
    }
    let encoded_bytes: usize = encoded.iter().map(Vec::len).sum();
    let (sql_group_ms, g) = probe(t, epoch, "dataframe.sql_group", SQL_PROBE_REPS, || {
        sql_probe(sc, workload, Kind::Group)
    });
    let (sql_sort_ms, s) = probe(t, epoch, "dataframe.sql_sort", SQL_PROBE_REPS, || {
        sql_probe(sc, workload, Kind::Sort)
    });
    g?;
    s?;

    let mitems = items as f64 / 1e6;
    let med = |m: &MixResult, k: Kind| stats::median(&m.samples_ms[k.index()]).unwrap_or(0.0);
    let traced_sum: f64 = KINDS.iter().map(|&k| med(traced_mix, k)).sum();
    let untraced_sum: f64 = KINDS.iter().map(|&k| med(untraced_mix, k)).sum();
    let ops = untraced_mix.attempted().max(1) as f64;
    let cpu = untraced_mix.cpu();
    let (hits, lookups) = (recorder.input_hits, recorder.input_lookups);
    let values = [
        parse_ms / input_mb,
        write_ms / (out_bytes as f64 / MB),
        put_ms / input_mb,
        read_ms / input_mb,
        stats::median(&recorder.compile_ms).unwrap_or(0.0),
        job_us as f64 / 1e3 / queries,
        driver_us as f64 / 1e3 / queries,
        encode_ms / mitems,
        decode_ms / mitems,
        encoded_bytes as f64 / items as f64,
        per_q(d.shuffle_records),
        per_q(d.shuffle_bytes),
        // Less the drain job (one task per executor) after every query.
        per_q(d.jobs.saturating_sub(recorder.queries)),
        per_q(d.tasks.saturating_sub(recorder.queries * sc.executors() as u64)),
        per_q(d.task_busy_us) / 1e3,
        stats::nearest_rank(&recorder.task_busy_ms, 990),
        stats::nearest_rank(&recorder.queue_wait_ms, 500),
        d.failed_tasks as f64,
        d.retried_tasks as f64,
        sql_group_ms,
        sql_sort_ms,
        per_q(d.columnar_batches),
        per_q(d.fused_pipelines),
        per_q(d.agg_rows_in),
        per_q(d.agg_groups_out),
        if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 },
        recorder.max_cached_bytes as f64 / MB,
        d.cache_evictions as f64,
        cpu.utime as f64 / crate::procfs::TICKS_PER_S / ops,
        cpu.stime as f64 / crate::procfs::TICKS_PER_S / ops,
        cpu.minflt as f64 / ops,
        med(traced_mix, Kind::Scan),
        med(traced_mix, Kind::Group),
        med(traced_mix, Kind::Sort),
        med(untraced_mix, Kind::Scan),
        med(untraced_mix, Kind::Group),
        med(untraced_mix, Kind::Sort),
        (traced_sum / untraced_sum - 1.0) * 100.0,
    ];
    let metrics = report::named(&PER_LAYER_METRICS, values);
    let self_ms =
        recorder.trace.self_us_by_layer().into_iter().map(|(l, us)| (l, us as f64 / 1e3)).collect();
    Ok(LayerReport { metrics, self_ms, spans_jsonl: recorder.trace.to_json_lines() })
}

/// The context configuration of the traced arm.
pub fn traced_conf(workload: Workload, executors: usize) -> sparklite::SparkliteConf {
    workload.conf(executors).with_event_collection(true)
}
