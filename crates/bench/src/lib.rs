//! The benchmark harness: one driver per table/figure of the paper's
//! evaluation (see the experiment index in DESIGN.md).
//!
//! The drivers run every system on the *same* generated dataset, verify
//! that all answers agree, and report wall-clock timings side by side with
//! the numbers the paper reports for its (much larger) hardware — the
//! point of comparison is the *shape* (who wins, by roughly what factor,
//! where the cliffs are), not the absolute values.

pub mod figures;
pub mod systems;

use std::time::{Duration, Instant};

/// Times one closure.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

/// The host's available parallelism (4 when it cannot be read).
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
}

/// Renders a table of `(row label, column values)` with a header.
pub fn render_table(title: &str, header: &[&str], rows: &[(String, Vec<String>)]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    let mut label_w = 0usize;
    for (label, cells) in rows {
        label_w = label_w.max(label.len());
        for (i, c) in cells.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(c.len());
            }
        }
    }
    let mut out = format!("== {title} ==\n");
    out.push_str(&format!("{:label_w$}", ""));
    for (h, w) in header.iter().zip(&widths) {
        out.push_str(&format!("  {h:>w$}"));
    }
    out.push('\n');
    for (label, cells) in rows {
        out.push_str(&format!("{label:label_w$}"));
        for (c, w) in cells.iter().zip(&widths) {
            out.push_str(&format!("  {c:>w$}"));
        }
        out.push('\n');
    }
    out
}

/// Escapes a string for embedding in a JSON document.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serializes one figure's measurements as the machine-readable artifact
/// the harness writes next to its human-readable report. The tree has no
/// serde, so the document is assembled by hand: a cell of `None` (a failed
/// or capped measurement) becomes JSON `null`.
pub fn bench_json(
    name: &str,
    params: &[(&str, u64)],
    rows: &[(String, Vec<Option<f64>>)],
    metrics: &[(String, u64)],
) -> String {
    let mut out = String::new();
    out.push_str(&format!("{{\n  \"name\": \"{}\",\n  \"params\": {{", json_escape(name)));
    for (i, (k, v)) in params.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        out.push_str(&format!("{sep}\"{}\": {v}", json_escape(k)));
    }
    out.push_str("},\n  \"rows\": [\n");
    for (i, (label, cells)) in rows.iter().enumerate() {
        let ms: Vec<String> = cells
            .iter()
            .map(|c| match c {
                Some(ms) => format!("{ms:.3}"),
                None => "null".to_string(),
            })
            .collect();
        let sep = if i + 1 == rows.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"label\": \"{}\", \"wall_ms\": [{}]}}{sep}\n",
            json_escape(label),
            ms.join(", ")
        ));
    }
    out.push_str("  ],\n  \"metrics\": {");
    for (i, (k, v)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        out.push_str(&format!("{sep}\"{}\": {v}", json_escape(k)));
    }
    out.push_str("}\n}\n");
    out
}

/// Writes `BENCH_<name>.json` into the current directory (the repo root
/// when the harness is run through `cargo run`), returning the path.
pub fn write_bench_json(
    name: &str,
    params: &[(&str, u64)],
    rows: &[(String, Vec<Option<f64>>)],
    metrics: &[(String, u64)],
) -> std::io::Result<std::path::PathBuf> {
    let path = std::path::PathBuf::from(format!("BENCH_{name}.json"));
    std::fs::write(&path, bench_json(name, params, rows, metrics))?;
    Ok(path)
}

/// The JSONL event-log fields every event of a given type must carry,
/// beyond the `{"ev": …, "at_us": …}` envelope — the schema contract the
/// obs figure checks on every line of its merged event log.
fn required_event_fields(ev: &str) -> Option<&'static [&'static str]> {
    Some(match ev {
        "JobStart" => &["job", "stage", "num_tasks"],
        "JobEnd" => &["job", "ok"],
        "StageSubmitted" => &["stage", "num_tasks"],
        "StageCompleted" => &["stage", "ok"],
        "TaskStart" => &["job", "partition", "attempt", "speculative", "worker"],
        "TaskEnd" => &[
            "job",
            "partition",
            "attempt",
            "speculative",
            "worker",
            "busy_us",
            "queue_us",
            "input_records",
            "input_bytes",
            "shuffle_records",
            "shuffle_bytes",
            "output_records",
            "cache_hits",
            "cache_misses",
            "failure",
        ],
        "TaskResubmitted" => &["job", "partition", "next_attempt"],
        "SpeculativeLaunch" => &["job", "partition", "attempt"],
        "SpeculativeWin" => &["job", "partition"],
        "LineageRecovery" => &["shuffle", "lost"],
        "ShuffleWrite" | "ShuffleFetch" => &["job", "partition", "records", "bytes"],
        "CacheRead" => &["rdd", "split", "hit"],
        "CachePut" | "CacheEvict" => &["rdd", "split", "bytes", "total_bytes"],
        "CacheRelease" => &["rdd", "splits", "total_bytes"],
        "ChaosInject" => &["kind", "a", "b", "attempt"],
        "OptimizerRuleFired" => &["rule", "stage"],
        "ExecutorRegistered" => &["worker", "pid"],
        "ExecutorHeartbeat" => &["worker", "seq"],
        "ExecutorLost" => &["worker", "reason"],
        "BlockPush" => &["shuffle", "map_part", "blocks", "bytes", "worker", "dur_us"],
        "BlockFetch" => &["shuffle", "map_part", "reduce_part", "bytes", "worker", "dur_us"],
        "ExecutorEventsLost" => &["worker", "last_seq", "lost"],
        "ColumnarBatch" => &["fused_ops", "batches", "rows"],
        "AggBatch" => &["batches", "rows_in", "groups_out"],
        _ => return None,
    })
}

/// Validates a JSONL event log: every line parses as a JSON object, names a
/// known event type, and carries that type's required fields. Returns the
/// number of events checked.
pub fn validate_event_log(jsonl: &str) -> Result<usize, String> {
    let mut n = 0;
    for (i, line) in jsonl.lines().enumerate() {
        let lineno = i + 1;
        let v = jsonlite::parse_value(line).map_err(|e| format!("line {lineno}: {e}"))?;
        let ev = v
            .get("ev")
            .and_then(|x| x.as_str())
            .ok_or_else(|| format!("line {lineno}: missing \"ev\""))?;
        v.get("at_us")
            .and_then(|x| x.as_i64())
            .ok_or_else(|| format!("line {lineno}: missing numeric \"at_us\""))?;
        let fields = required_event_fields(ev)
            .ok_or_else(|| format!("line {lineno}: unknown event type \"{ev}\""))?;
        for f in fields {
            if v.get(f).is_none() {
                return Err(format!("line {lineno}: {ev} is missing \"{f}\""));
            }
        }
        n += 1;
    }
    Ok(n)
}

/// Validates a Chrome `trace_event` export: the document parses, holds a
/// `traceEvents` array, and every entry is either a `thread_name` metadata
/// row or a complete (`"X"`) slice with timestamps. Returns the number of
/// task/job slices found.
pub fn validate_chrome_trace(json: &str) -> Result<usize, String> {
    let v = jsonlite::parse_value(json).map_err(|e| format!("chrome trace: {e}"))?;
    let events = v
        .get("traceEvents")
        .and_then(|x| x.as_array())
        .ok_or("chrome trace: missing \"traceEvents\" array")?;
    let mut slices = 0;
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(|x| x.as_str())
            .ok_or_else(|| format!("traceEvents[{i}]: missing \"ph\""))?;
        match ph {
            "M" => {
                if e.get("args").and_then(|a| a.get("name")).and_then(|n| n.as_str()).is_none() {
                    return Err(format!("traceEvents[{i}]: metadata row without args.name"));
                }
            }
            "X" => {
                for f in ["name", "tid", "ts", "dur"] {
                    if e.get(f).is_none() {
                        return Err(format!("traceEvents[{i}]: slice missing \"{f}\""));
                    }
                }
                slices += 1;
            }
            other => return Err(format!("traceEvents[{i}]: unexpected phase \"{other}\"")),
        }
    }
    Ok(slices)
}

/// Formats a duration in adaptive units.
pub fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2}s")
    } else {
        format!("{:.1}ms", s * 1000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders() {
        let t = render_table("demo", &["a", "b"], &[("row1".into(), vec!["1".into(), "2".into()])]);
        assert!(t.contains("demo") && t.contains("row1"));
    }

    #[test]
    fn bench_json_is_well_formed() {
        let doc = bench_json(
            "demo",
            &[("objects", 100), ("tries", 3)],
            &[("cold \"run\"".into(), vec![Some(12.5), None])],
            &[("cache_hits".into(), 7)],
        );
        assert!(doc.contains("\"name\": \"demo\""));
        assert!(doc.contains("\"objects\": 100"));
        assert!(doc.contains("\"cold \\\"run\\\"\""));
        assert!(doc.contains("[12.500, null]"));
        assert!(doc.contains("\"cache_hits\": 7"));
    }

    #[test]
    fn event_log_validator_accepts_and_rejects() {
        let good = "{\"ev\":\"JobEnd\",\"at_us\":3,\"job\":1,\"ok\":true}\n\
                    {\"ev\":\"StageSubmitted\",\"at_us\":5,\"stage\":0,\"num_tasks\":4}\n";
        assert_eq!(validate_event_log(good), Ok(2));
        // Missing a required field, unknown type, broken JSON.
        assert!(validate_event_log("{\"ev\":\"JobEnd\",\"at_us\":3}").is_err());
        assert!(validate_event_log("{\"ev\":\"Nope\",\"at_us\":3}").is_err());
        assert!(validate_event_log("not json").is_err());
    }

    #[test]
    fn chrome_trace_validator_counts_slices() {
        let ok = "{\"traceEvents\":[\
                  {\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"thread_name\",\
                   \"args\":{\"name\":\"driver\"}},\
                  {\"ph\":\"X\",\"name\":\"job 0\",\"pid\":0,\"tid\":0,\"ts\":1,\"dur\":2,\
                   \"args\":{}}]}";
        assert_eq!(validate_chrome_trace(ok), Ok(1));
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[{\"ph\":\"B\"}]}").is_err());
    }

    #[test]
    fn traced_fig11_run_exports_valid_artifacts() {
        use rumble_datagen::{confusion, put_dataset, DEFAULT_SEED};
        use sparklite::{SparkliteConf, SparkliteContext};
        let sc = SparkliteContext::new(
            SparkliteConf::default()
                .with_executors(3)
                .with_block_size(64 * 1024)
                .with_event_collection(true)
                .with_event_capacity(1 << 20),
        );
        put_dataset(&sc, "hdfs:///confusion.json", &confusion::generate(2_000, DEFAULT_SEED))
            .unwrap();
        for query in figures::QUERIES {
            systems::run_confusion(systems::System::Rumble, &sc, "hdfs:///confusion.json", query)
                .unwrap();
        }
        let timeline = sc.timeline().unwrap();
        let events = validate_event_log(&timeline.to_jsonl()).unwrap();
        assert!(events > 10, "only {events} events logged");
        let slices = validate_chrome_trace(&timeline.to_chrome_trace()).unwrap();
        assert!(slices > 0, "the Chrome trace has no slices");
    }

    #[test]
    fn durations_format() {
        assert_eq!(fmt_duration(Duration::from_millis(1500)), "1.50s");
        assert!(fmt_duration(Duration::from_micros(2500)).ends_with("ms"));
    }
}
