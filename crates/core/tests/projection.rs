//! Projection pushdown into the JSON scan: a FLWOR whose initial `for`
//! reads a `json-file` only through static `$v.name` steps and `count($v)`
//! builds only those top-level fields, unless the source is auto-persisted.
//! Every query here must return the same items, or raise the same error
//! code, whether it runs local (no projection), distributed with
//! auto-persist off (projected, on executor threads, under 20% seeded chaos
//! and in the row-major interpreter), distributed with auto-persist on
//! (full items from the cache), or nested inside an executor task (the
//! local scan of `json-file`, projected).

use rumble_core::Rumble;
use sparklite::{FaultPlan, SparkliteConf, SparkliteContext};

const PATH: &str = "hdfs:///proj.json";

/// Messy records: absent fields, mixed types, nested objects reusing the
/// top-level names, duplicate keys and lines that are not objects.
fn dataset(n: usize) -> String {
    let mut out = String::new();
    for i in 0..n {
        let line = match i % 17 {
            0 => format!("[{i}, {{\"k\": \"arr\"}}]"),
            1 => format!("{i}"),
            _ => {
                let mut fields = vec![format!("\"id\": {i}")];
                match i % 5 {
                    0 => {}
                    1 => fields.push("\"k\": null".to_string()),
                    2 => fields.push(format!("\"k\": {}", i % 3)),
                    _ => fields.push(format!("\"k\": \"{}\"", ["a", "b", "c"][i % 3])),
                }
                if i % 3 != 0 {
                    fields.push(format!("\"v\": {}", (i * 7) % 40));
                }
                if i % 4 != 0 {
                    fields.push(format!(
                        "\"nested\": {{\"k\": {}, \"id\": \"inner\", \"v\": [{}]}}",
                        i % 6,
                        i % 2
                    ));
                }
                fields.push(format!(
                    "\"choices\": [\"x{}\", \"y\", {{\"k\": 1}}, 12345678901234567890123.5]",
                    i % 4
                ));
                if i % 7 == 0 {
                    fields.push(format!("\"k\": \"dup{}\"", i % 2)); // the last `k` wins
                }
                if i % 9 != 0 {
                    fields.push(format!("\"tags\": [\"t{}\", \"t{}\"]", i % 3, i % 5));
                }
                format!("{{{}}}", fields.join(", "))
            }
        };
        out.push_str(&line);
        out.push('\n');
    }
    out
}

fn engine(conf: impl FnOnce(SparkliteConf) -> SparkliteConf, auto_persist: bool) -> Rumble {
    let r = Rumble::new(SparkliteContext::new(conf(
        SparkliteConf::default().with_executors(3).with_block_size(4096),
    )));
    if !auto_persist {
        r.set_auto_persist(None);
    }
    r
}

/// The distributed paths: projected scans with auto-persist off, and full
/// items from the auto-persist cache.
fn paths(chaos_seed: u64) -> Vec<(&'static str, Rumble)> {
    vec![
        ("threads", engine(|c| c, false)),
        ("chaos", engine(|c| c.with_faults(FaultPlan::chaos(chaos_seed, 0.2)), false)),
        ("row-major", engine(|c| c.with_row_major(true), false)),
        ("auto-persist", engine(|c| c, true)),
    ]
}

fn put(paths: &[(&str, Rumble)], text: &str) {
    for (_, r) in paths {
        r.hdfs_put(PATH.trim_start_matches("hdfs://"), text).unwrap();
    }
}

fn distributed(q: &str) -> String {
    q.replace("SRC", &format!("json-file(\"{PATH}\")"))
}

/// `q` behind `let $a := json-file(…)`: a local FLWOR over full items.
fn local(q: &str) -> String {
    format!("let $a := json-file(\"{PATH}\") return {}", q.replace("SRC", "$a"))
}

/// `q` run inside one executor task, where its `json-file` is read and
/// parsed by the local scan, as an array.
fn in_task(q: &str) -> String {
    format!("for $x in parallelize(1, 1) return [ {} ]", distributed(q))
}

/// The serialized result, sorted (group-by output order is unspecified),
/// or the error code.
fn outcome(r: &Rumble, q: &str) -> Result<Vec<String>, &'static str> {
    let mut items: Vec<String> =
        r.run(q).map_err(|e| e.code)?.iter().map(|i| i.serialize()).collect();
    items.sort();
    Ok(items)
}

/// The in-task result, in the same form as [`outcome`].
fn in_task_outcome(r: &Rumble, q: &str) -> Result<Vec<String>, &'static str> {
    let items = r.run(&in_task(q)).map_err(|e| e.code)?;
    assert_eq!(items.len(), 1, "{q}: one array");
    let mut items: Vec<String> =
        items[0].as_array().unwrap().iter().map(|i| i.serialize()).collect();
    items.sort();
    Ok(items)
}

/// The plan label of the query's `json-file` node.
fn scan_label(r: &Rumble, q: &str) -> String {
    let plan = r.analyze_profile(q).unwrap().plan;
    let line = plan.lines().find(|l| l.contains("json-file")).expect("a json-file node");
    let label = line.split("FunctionCall(json-file#1) ").nth(1).expect("the node label");
    label.split(" [").next().unwrap().trim().to_string()
}

/// Asserts that `q` gives the local answer, items or error code, on every
/// path, and that an unpersisted scan builds `fields`.
fn check(paths: &[(&str, Rumble)], q: &str, fields: &str) {
    let (dq, lq) = (distributed(q), local(q));
    let expected = outcome(&paths[0].1, &lq);
    if let Ok(items) = &expected {
        assert!(items.len() > 5, "{q}: too few items to compare: {items:?}");
    }
    for (path, r) in paths {
        assert_eq!(outcome(r, &dq), expected, "{q}: {path} diverged from local");
    }
    assert_eq!(in_task_outcome(&paths[0].1, q), expected, "{q}: the in-task scan diverged");
    assert_eq!(scan_label(&paths[0].1, &dq), fields, "{q}");
}

/// Shapes whose scan builds only the fields they name.
const PROJECTED: &[(&str, &str)] = &[
    ("for $r in SRC group by $k := $r.k return [$k, count($r)]", "fields=[k]"),
    (
        "for $r in SRC where $r.v instance of integer
         order by $r.v descending, $r.id return [$r.id, $r.v]",
        "fields=[id, v]",
    ),
    ("for $r in SRC where exists($r.nested) return [$r.id, $r.nested.k]", "fields=[id, nested]"),
    (
        "for $r in SRC for $t in $r.tags[] let $n := $r.nested.id return [$r.id, $t, $n]",
        "fields=[id, nested, tags]",
    ),
    (
        "for $r in SRC group by $k := $r.nested.k return [$k, count($r), sum($r.v)]",
        "fields=[nested, v]",
    ),
    ("for $r in SRC where $r.k eq \"dup1\" return $r.id", "fields=[id, k]"),
    ("for $r in SRC return count($r)", "fields=[]"),
];

/// Shapes that see whole items: the scan builds every field.
const ESCAPES: &[&str] = &[
    "for $r in SRC where $r.v eq 3 return $r",
    "for $r in SRC return $r[]",
    "for $r in SRC let $key := \"k\" return $r.($key)",
    "for $r in SRC return $r ! $$.nested",
    "for $r in SRC where $r.v eq 3 return serialize($r)",
    "for $r in SRC let $r := $r.nested return $r",
    "for $r in SRC return (for $r in $r.tags[] return $r)",
];

#[test]
fn projected_scans_agree_with_full_items_on_every_path() {
    let paths = paths(0x9A0);
    put(&paths, &dataset(600));
    for (q, fields) in PROJECTED {
        check(&paths, q, fields);
    }
    for q in ESCAPES {
        check(&paths, q, "fields=all");
    }
    let m = paths[1].1.sparklite().metrics();
    assert!(m.retried_tasks > 0, "20% chaos must retry tasks, got {m:?}");
}

#[test]
fn escaping_shapes_raise_the_same_error_codes() {
    let paths = paths(0xE5C);
    put(&paths, &dataset(600));
    for (q, code) in [
        ("for $r in SRC group by $r return 1", "XPTY0004"),
        ("for $r in SRC order by $r.k return $r.id", "XPTY0004"),
        ("for $r in SRC order by $r return 1", "XPTY0004"),
    ] {
        assert_eq!(outcome(&paths[0].1, &local(q)), Err(code), "{q}: local");
        for (path, r) in &paths {
            assert_eq!(outcome(r, &distributed(q)), Err(code), "{q}: {path}");
        }
    }
}

/// Malformed JSON, or a decimal the builder cannot hold, in a member the
/// projection skips fails every path with the same code as a full parse.
#[test]
fn bad_input_in_a_skipped_member_fails_every_path() {
    let big = "1234567890123456789012345678901234567890"; // 40 digits
    for bad in [
        r#"{"id": 9, "choices": ["x", {"k": ]}"#.to_string(),
        format!(r#"{{"id": 9, "choices": [{big}]}}"#),
    ] {
        let paths = paths(0xBAD);
        let mut text = dataset(300);
        text.push_str(&bad);
        text.push('\n');
        put(&paths, &text);
        let q = "for $r in SRC group by $k := $r.k return [$k, count($r)]";
        assert_eq!(outcome(&paths[0].1, &local(q)), Err("RBML0002"), "{bad}: local");
        for (path, r) in &paths {
            assert_eq!(outcome(r, &distributed(q)), Err("RBML0002"), "{bad}: {path}");
        }
        assert_eq!(in_task_outcome(&paths[0].1, q), Err("RBML0002"), "{bad}: in task");
    }
}

/// The auto-persist cache holds full items whatever the query that filled
/// it reads, so a later query that returns whole items sees every field.
#[test]
fn a_projecting_query_fills_the_cache_with_full_items() {
    let r = engine(|c| c, true);
    r.hdfs_put(PATH.trim_start_matches("hdfs://"), &dataset(200)).unwrap();
    let projecting = distributed("for $r in SRC group by $k := $r.k return [$k, count($r)]");
    assert_eq!(scan_label(&r, &projecting), "fields=all");
    r.run(&projecting).unwrap();
    let whole = r.run(&distributed("for $r in SRC where $r.id eq 7 return $r")).unwrap();
    assert_eq!(whole.len(), 1);
    let o = whole[0].as_object().unwrap();
    let keys: Vec<&str> = o.keys().map(|k| k.as_ref()).collect();
    assert_eq!(keys, ["id", "k", "v", "nested", "choices", "k", "tags"]);
    let misses = r.sparklite().metrics().cache_misses;
    r.run(&projecting).unwrap();
    assert_eq!(r.sparklite().metrics().cache_misses, misses, "served from the cache");
}

/// Parsing straight from the storage block still counts one input record
/// per line.
#[test]
fn a_projected_scan_counts_every_input_line() {
    let r = engine(|c| c, false);
    r.hdfs_put(PATH.trim_start_matches("hdfs://"), &dataset(500)).unwrap();
    let before = r.sparklite().metrics().input_records;
    let n = r.run(&distributed("for $r in SRC return count($r)")).unwrap().len();
    assert_eq!(n, 500);
    assert_eq!(r.sparklite().metrics().input_records - before, 500);
}

/// A blank or whitespace-only line holds no record on any path: the
/// distributed scan skips it as the local one does, and still counts it as
/// an input record.
#[test]
fn blank_lines_hold_no_record_on_any_path() {
    let paths = paths(0xB1A);
    let text = "{\"a\":1}\n\n  \t\r\n{\"a\":2}\n";
    put(&paths, text);
    let q = "for $i in SRC return $i.a";
    let expected = Ok(vec!["1".to_string(), "2".to_string()]);
    assert_eq!(outcome(&paths[0].1, &local(q)), expected, "local");
    for (path, r) in &paths {
        assert_eq!(outcome(r, &distributed(q)), expected, "{path}");
    }
    assert_eq!(in_task_outcome(&paths[0].1, q), expected, "in task");
    let r = &paths[0].1;
    let before = r.sparklite().metrics().input_records;
    r.run(&distributed(q)).unwrap();
    assert_eq!(r.sparklite().metrics().input_records - before, 4);
}
