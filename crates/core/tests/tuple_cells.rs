//! Data independence for every FLWOR clause that carries tuple variables in
//! DataFrame cells: `for` (initial with `at`, and non-initial), `let`,
//! `where`, `count`, `group by` and `order by` must return the same items
//! and raise the same error codes in local mode, in DataFrame mode on
//! executor threads, under 20% seeded chaos and in the row-major
//! interpreter — on messy records with absent fields, nulls, mixed types
//! and nested arrays, and on group and order keys of every atomic kind.

use rumble_core::Rumble;
use sparklite::{FaultPlan, SparkliteConf, SparkliteContext};

const PATH: &str = "hdfs:///cells.json";

/// Messy records in the spirit of `datagen::heterogeneous`: every field
/// degrades on a deterministic schedule.
fn dataset(n: usize) -> String {
    let mut out = String::new();
    for i in 0..n {
        let mut fields = Vec::new();
        fields.push(match i % 23 {
            0 => format!("\"id\": \"{i}\""),
            1 => "\"id\": null".to_string(),
            _ => format!("\"id\": {i}"),
        });
        match i % 11 {
            0 => {}
            1 => fields.push("\"k\": null".to_string()),
            2 => fields.push(format!("\"k\": {}", i % 3)),
            3 => fields.push("\"k\": 1.0".to_string()),
            _ => fields.push(format!("\"k\": \"{}\"", ["a", "b", "c"][i % 3])),
        }
        match i % 13 {
            0 => {}
            1 => fields.push("\"v\": null".to_string()),
            2 => fields.push(format!("\"v\": \"{}\"", i % 50)),
            3 => fields.push(format!("\"v\": {}.5", i % 40)),
            _ => fields.push(format!("\"v\": {}", (i * 7) % 60)),
        }
        match i % 9 {
            0 => {}
            1 => fields.push(format!("\"tags\": \"t{}\"", i % 4)),
            2 => fields.push(format!("\"tags\": [[\"t{}\"], \"t1\"]", i % 4)),
            n => {
                let tags: Vec<String> =
                    (0..n % 4).map(|j| format!("\"t{}\"", (i + j) % 5)).collect();
                fields.push(format!("\"tags\": [{}]", tags.join(", ")));
            }
        }
        if i % 5 != 0 {
            fields.push(format!("\"nested\": {{\"k\": {}, \"flag\": {}}}", i % 6, i % 2 == 0));
        }
        // Key edge cases: a boolean field, a key mixing every atomic kind
        // that JSONiq groups apart (or together: `1` and `1.0`), and
        // numbers with both zeros.
        match i % 4 {
            0 => {}
            1 => fields.push("\"b\": null".to_string()),
            n => fields.push(format!("\"b\": {}", n == 2)),
        }
        let g = ["null", "true", "false", "1", "1.0", "\"1\"", "\"true\""];
        if i % 8 != 0 {
            fields.push(format!("\"g\": {}", g[i % 8 - 1]));
        }
        match i % 7 {
            0 => {}
            1 => fields.push("\"z\": -0.0".to_string()),
            2 => fields.push("\"z\": 0".to_string()),
            3 => fields.push("\"z\": null".to_string()),
            4 => fields.push(format!("\"z\": {}", i as i64 % 5 - 2)),
            5 => fields.push(format!("\"z\": {}.5", i as i64 % 3 - 1)),
            _ => fields.push("\"z\": 0.0".to_string()),
        }
        out.push('{');
        out.push_str(&fields.join(", "));
        out.push_str("}\n");
    }
    out
}

/// The queries, written over `SRC`: the distributed form binds the initial
/// `for` straight to the file, the local form goes through a `let` (an
/// initial `let` keeps the whole FLWOR local, §4.5). A query may start
/// with a prolog, which both forms keep in front. `sorted` marks queries
/// whose output order is unspecified (a group by without an order by);
/// their serialized items are compared as a multiset.
struct Case {
    name: &'static str,
    query: &'static str,
    sorted: bool,
}

const CASES: &[Case] = &[
    Case {
        name: "initial for with at",
        query: r#"for $r at $p in SRC where $p mod 7 eq 1 return [$p, $r.id, $r.tags]"#,
        sorted: false,
    },
    Case {
        name: "non-initial for",
        query: r#"for $r in SRC for $t in $r.tags[] return [$r.id, $t]"#,
        sorted: false,
    },
    Case {
        name: "let",
        query: r#"for $r in SRC let $v := $r.v let $n := $r.nested.k return [$r.id, $v, $n]"#,
        sorted: false,
    },
    Case {
        // A compilable predicate on a one-item variable, one on a variable
        // bound to zero, one or several items, and a context-bound one.
        name: "where",
        query: r#"for $r in SRC
                  let $ts := $r.tags[]
                  where $r.v = 5 or $r.nested.k eq 2
                  where $ts = "t1"
                  where $r.nested.flag
                  return $r"#,
        sorted: false,
    },
    Case {
        // The second `where` raises a type error on string values, which
        // the first `where` drops: it must never see them. (The `let`
        // keeps the FLWOR off the fused scan, whose filters run one by one.)
        name: "where after where",
        query: r#"for $r in SRC
                  let $v := $r.v
                  where $v instance of integer
                  where $v + 1 gt 10
                  return $v"#,
        sorted: false,
    },
    Case {
        name: "count",
        query: r#"for $r in SRC where $r.nested.flag count $c return [$c, $r.id]"#,
        sorted: false,
    },
    Case {
        // `$r` is count-only, `$v` materialized.
        name: "group by",
        query: r#"for $r in SRC
                  let $v := $r.v
                  group by $k := $r.k
                  return [$k, count($r), sum(for $x in $v where $x instance of integer return $x)]"#,
        sorted: true,
    },
    Case {
        // Two keys that each bind a context, over different variables.
        name: "group by on two variables",
        query: r#"for $r in SRC
                  let $n := $r.nested
                  group by $a := count($r.tags[]), $b := exists($n.flag)
                  return [$a, $b, count($r)]"#,
        sorted: true,
    },
    Case {
        name: "order by",
        query: r#"for $r at $p in SRC
                  where $r.v instance of integer
                  let $n := $r.nested
                  order by $r.v + 0 descending, count($n.flag) descending, $n.k empty greatest, $p
                  return [$p, $r.v, $n.k]"#,
        sorted: false,
    },
    Case {
        name: "group by on a key of every atomic kind",
        query: r#"for $r in SRC group by $g := $r.g return [$g, count($r)]"#,
        sorted: true,
    },
    Case {
        name: "order by booleans, then numbers descending empty greatest",
        query: r#"for $r at $p in SRC
                  order by $r.b, $r.z descending empty greatest, $p
                  return [$p, $r.b, $r.z]"#,
        sorted: false,
    },
    Case {
        name: "order by booleans descending, then numbers empty greatest",
        query: r#"for $r at $p in SRC
                  order by $r.b descending, $r.z empty greatest, $p
                  return [$p, $r.b, $r.z]"#,
        sorted: false,
    },
    Case {
        name: "order by booleans empty greatest, then numbers descending",
        query: r#"for $r at $p in SRC
                  order by $r.b empty greatest, $r.z descending, $p
                  return [$p, $r.b, $r.z]"#,
        sorted: false,
    },
    Case {
        name: "order by booleans descending empty greatest, then numbers",
        query: r#"for $r at $p in SRC
                  order by $r.b descending empty greatest, $r.z, $p
                  return [$p, $r.b, $r.z]"#,
        sorted: false,
    },
    Case {
        // The cleaning FLWOR of the messy benchmark, on this data: type
        // tests, casts, `exists`, a positional pick, constructors and
        // `distinct-values`, through `let` clauses and a `where`.
        name: "the messy cleaning expressions",
        query: r#"for $r in SRC
                  let $id := if ($r.id instance of integer) then $r.id
                             else if ($r.id instance of string) then ($r.id cast as integer)
                             else ()
                  where exists($id)
                  let $v := if ($r.v instance of string) then ($r.v cast as decimal)
                            else if ($r.v instance of null) then ()
                            else $r.v
                  let $tags := if ($r.tags instance of array) then $r.tags[] else $r.tags
                  return {
                      "id": $id,
                      "v": ($v, 0)[1],
                      "tags": [ distinct-values($tags[$$ instance of string]) ],
                      "has_nested": exists($r.nested)
                  }"#,
        sorted: false,
    },
    Case {
        // `exists` reads one item: the second member of these tags raises
        // in the predicate, and the iterator tree never gets to it.
        name: "exists over a predicate that raises after its first item",
        query: r#"for $r in SRC
                  where $r.tags[[1]] instance of array
                  where exists($r.tags[][$$ instance of array or $$ lt 1])
                  return $r.id"#,
        sorted: false,
    },
    Case {
        // A position over a comma of navigations, each side of which may be
        // empty, one item or several.
        name: "positional predicates over a comma",
        query: r#"for $r in SRC
                  return [($r.tags[], $r.tags, "none")[1], ($r.k, $r.v)[2], ($r.tags[])[[2]]]"#,
        sorted: false,
    },
    Case {
        // Driver-bound variables in row expressions: a prolog global in a
        // `where` and a `return`, and one bound to a sequence.
        name: "row expressions reading prolog globals",
        query: r#"declare variable $lim := 30;
                  declare variable $keep := ("t1", "t3");
                  for $r in SRC
                  where $r.v instance of integer and $r.v gt $lim
                  return [$r.id, $r.v - $lim, $r.tags[] = $keep]"#,
        sorted: false,
    },
];

/// Queries every path must fail with the same error code: the name, the
/// code, the query. The last six would come out differently — items for an
/// error, or another code — from a row compiler that evaluated a lazy
/// consumer's operand to a different depth than the iterator tree does.
const ERRORS: &[(&str, &str, &str)] = &[
    ("mixed-type order key", "XPTY0004", r#"for $r in SRC order by $r.id return $r.id"#),
    (
        "mixed-type order key, then a where dropping the offenders",
        "XPTY0004",
        r#"for $r in SRC order by $r.id where $r.id instance of integer return $r.id"#,
    ),
    (
        "mixed-type order key, then a where that raises",
        "XPTY0004",
        r#"for $r in SRC order by $r.id where error() return $r.id"#,
    ),
    ("non-atomic group key", "XPTY0004", r#"for $r in SRC group by $t := $r.tags return $t"#),
    (
        "boolean and number order key",
        "XPTY0004",
        r#"for $r in SRC order by if ($r.b instance of boolean) then $r.b else 1 return $r"#,
    ),
    (
        "cast of a two-item sequence in a let",
        "XPTY0004",
        r#"for $r in SRC let $c := ($r.v, 1) cast as integer return $c"#,
    ),
    (
        "a value comparison of an object in a where",
        "XPTY0004",
        r#"for $r in SRC where $r.nested eq 1 return $r.id"#,
    ),
    (
        "an object field bound to two items in a return",
        "XPTY0004",
        r#"for $r in SRC return { "id": $r.id, "t": $r.tags[] }"#,
    ),
    (
        "an if over a condition of several items",
        "XPTY0004",
        r#"for $r in SRC return if ($r.tags[]) then $r.id else ()"#,
    ),
    (
        "exists over a comma whose later member raises at open",
        "FORG0001",
        r#"for $r in SRC where exists(($r.v, $r.id cast as integer)) return $r.id"#,
    ),
    (
        "empty over a comma whose later member raises at open",
        "FORG0001",
        r#"for $r in SRC let $e := empty(($r.tags, $r.id cast as integer)) return $e"#,
    ),
];

fn engine(conf: impl FnOnce(SparkliteConf) -> SparkliteConf) -> Rumble {
    let r = Rumble::new(SparkliteContext::new(conf(
        SparkliteConf::default().with_executors(3).with_block_size(4096),
    )));
    r.hdfs_put("/cells.json", &dataset(700)).unwrap();
    r
}

/// The DataFrame paths: columnar on executor threads, the same under 20%
/// seeded chaos, and the row-major interpreter.
fn paths(chaos_seed: u64) -> [(&'static str, Rumble); 3] {
    [
        ("threads", engine(|c| c)),
        ("chaos", engine(|c| c.with_faults(FaultPlan::chaos(chaos_seed, 0.2)))),
        ("row-major", engine(|c| c.with_row_major(true))),
    ]
}

fn distributed(q: &str) -> String {
    q.replace("SRC", &format!("json-file(\"{PATH}\")"))
}

/// `q` with its body behind `let $a := json-file(…)`, after any prolog.
fn local(q: &str) -> String {
    let body = q.rfind(';').map_or(0, |i| i + 1);
    let (prolog, body) = q.split_at(body);
    format!("{prolog} let $a := json-file(\"{PATH}\") {}", body.replace("SRC", "$a"))
}

/// The serialized result, or the error code.
fn outcome(r: &Rumble, q: &str, sorted: bool) -> Result<Vec<String>, &'static str> {
    let mut items: Vec<String> =
        r.run(q).map_err(|e| e.code)?.iter().map(|i| i.serialize()).collect();
    if sorted {
        items.sort();
    }
    Ok(items)
}

/// Jobs one action launches.
fn jobs_in(r: &Rumble, action: impl FnOnce()) -> u64 {
    let before = r.sparklite().metrics().jobs;
    action();
    r.sparklite().metrics().jobs - before
}

/// Asserts that `q` answers `is_distributed()` with `true` and launches no
/// job to find out: building a FLWOR's frame only plans.
fn assert_distributed_for_free(r: &Rumble, q: &str, name: &str) {
    let prepared = r.compile(q).unwrap();
    let jobs = jobs_in(r, || assert!(prepared.is_distributed().unwrap(), "{name}"));
    assert_eq!(jobs, 0, "{name}: is_distributed() launched jobs");
}

#[test]
fn every_cell_carrying_clause_agrees_on_every_path() {
    let paths = paths(0xCE11);
    let threads = &paths[0].1;
    for case in CASES {
        let dq = distributed(case.query);
        assert_distributed_for_free(threads, &dq, case.name);
        let lq = local(case.query);
        assert!(!threads.compile(&lq).unwrap().is_distributed().unwrap(), "{}", case.name);
        let expected = outcome(threads, &lq, case.sorted)
            .unwrap_or_else(|code| panic!("{}: local run failed with {code}", case.name));
        assert!(expected.len() > 5, "{}: too few items to compare: {expected:?}", case.name);
        for (path, r) in &paths {
            assert_eq!(
                outcome(r, &dq, case.sorted),
                Ok(expected.clone()),
                "{}: {path} diverged from local",
                case.name
            );
        }
    }
    let m = paths[1].1.sparklite().metrics();
    assert!(m.retried_tasks > 0, "20% chaos must retry tasks, got {m:?}");
}

#[test]
fn every_path_raises_the_same_error_code() {
    let paths = paths(0xE44);
    for (name, code, q) in ERRORS {
        let expected = outcome(&paths[0].1, &local(q), false).expect_err(name);
        assert_eq!(expected, *code, "{name}");
        for (path, r) in &paths {
            assert_distributed_for_free(r, &distributed(q), &format!("{name} on {path}"));
            assert_eq!(outcome(r, &distributed(q), false), Err(expected), "{name} on {path}");
        }
    }
}

/// A distributed FLWOR nested under local `let`s: its `where` and `return`
/// read the outer variables, which each task sees as constants bound on
/// the driver.
#[test]
fn row_expressions_read_an_outer_let() {
    let q = r#"let $lim := 30
               let $keep := ("t1", "t3")
               return [
                   for $r in SRC
                   where $r.v instance of integer and $r.v gt $lim
                   return [$r.id, $r.v - $lim, $r.tags[] = $keep]
               ]"#;
    let paths = paths(0x0E7);
    let expected = outcome(&paths[0].1, &local(q), false).unwrap();
    assert!(expected[0].len() > 100, "too few items to compare: {expected:?}");
    for (path, r) in &paths {
        let mut got = Ok(Vec::new());
        let jobs = jobs_in(r, || got = outcome(r, &distributed(q), false));
        assert!(jobs > 0, "{path}: the inner FLWOR ran locally");
        assert_eq!(got, Ok(expected.clone()), "{path} diverged from local");
    }
}

/// A mixed-type order key past the materialization cap: the distributed
/// sort computes every row's key, so `count()` and `run()` raise the type
/// error instead of sorting the first `cap` items locally.
#[test]
fn a_mixed_order_key_past_the_materialization_cap_raises() {
    let mut text = String::new();
    for i in 0..2000 {
        if i == 1500 {
            text.push_str(&format!("{{\"id\": \"{i}\"}}\n"));
        } else {
            text.push_str(&format!("{{\"id\": {i}}}\n"));
        }
    }
    let q = r#"for $r in json-file("hdfs:///capped.json") order by $r.id return $r.id"#;
    for (path, r) in paths(0xCA9) {
        r.hdfs_put("/capped.json", &text).unwrap();
        r.set_materialization_cap(1000);
        let prepared = r.compile(q).unwrap();
        assert_eq!(prepared.count().map_err(|e| e.code), Err("XPTY0004"), "count() on {path}");
        assert_eq!(r.run(q).map_err(|e| e.code), Err("XPTY0004"), "run() on {path}");
    }
}

/// ORDER BY FLWORs for the top-K `take(n)`: the `order by` cases above
/// plus keys with ties (no position key, so stability decides), and return
/// expressions yielding 0, 1 or 2 items per tuple (a tuple yielding none
/// can leave the top `n` rows short of `n` items).
const TOP_K: &[(&str, &str)] = &[
    ("ties on one boolean key", r#"for $r in SRC order by $r.b return $r.id"#),
    (
        "ties on two keys, descending",
        r#"for $r in SRC order by $r.nested.k descending empty greatest, $r.b return [$r.id, $r.b]"#,
    ),
    (
        "a return of 0 or 2 items per tuple",
        r#"for $r in SRC order by $r.z return if ($r.b) then ($r.id, $r.z) else ()"#,
    ),
    ("a return that is mostly empty", r#"for $r in SRC order by $r.b return $r.tags[][2]"#),
];

fn take_outcome(r: &Rumble, q: &str, n: usize) -> Result<Vec<String>, &'static str> {
    Ok(r.run_take(q, n).map_err(|e| e.code)?.iter().map(|i| i.serialize()).collect())
}

#[test]
fn top_k_take_matches_the_full_sort_on_every_path() {
    let paths = paths(0x70C);
    let threads = &paths[0].1;
    let order_cases = CASES.iter().filter(|c| c.query.contains("order by"));
    let queries: Vec<&str> =
        order_cases.map(|c| c.query).chain(TOP_K.iter().map(|(_, q)| *q)).collect();
    for q in queries {
        let (dq, lq) = (distributed(q), local(q));
        let full = outcome(threads, &dq, false).unwrap_or_else(|c| panic!("{q}: {c}"));
        for n in [1usize, 10, 57, full.len() + 5] {
            let expected: Vec<String> = full.iter().take(n).cloned().collect();
            assert_eq!(take_outcome(threads, &lq, n), Ok(expected.clone()), "{q}: local, n={n}");
            for (path, r) in &paths {
                assert_eq!(take_outcome(r, &dq, n), Ok(expected.clone()), "{q}: {path}, n={n}");
            }
        }
    }
}

/// A mixed-type order key, or a key that is not atomic, in a row that the
/// top `n` does not keep still fails every path with the same code: the
/// top-K job computes every row's key.
#[test]
fn top_k_take_raises_errors_from_rows_outside_the_top() {
    let paths = paths(0x7E4);
    let cases = [
        (
            "a string among number keys",
            r#"for $r in SRC where $r.id instance of integer
               order by if ($r.id eq 698) then "late" else $r.id return $r.id"#,
        ),
        (
            "an array key",
            r#"for $r in SRC where $r.id instance of integer
               order by if ($r.id eq 698) then [1] else $r.id return $r.id"#,
        ),
    ];
    for (name, q) in cases {
        let expected = outcome(&paths[0].1, &local(q), false).expect_err(name);
        assert_eq!(expected, "XPTY0004", "{name}");
        assert_eq!(take_outcome(&paths[0].1, &local(q), 3), Err(expected), "{name}: local take");
        for (path, r) in &paths {
            assert_eq!(take_outcome(r, &distributed(q), 3), Err(expected), "{name} on {path}");
        }
    }
}

/// Jobs of a full ORDER BY `collect()`: the range sort's sampling, map
/// and sort passes, and the collect. The sampling and map passes each run
/// the key pass, which also discovers the key types, with no job of its
/// own.
const FULL_SORT_JOBS: u64 = 4;

/// Jobs one action launches on a warm engine (the source already cached).
fn jobs_of(r: &Rumble, action: impl Fn(&Rumble)) -> u64 {
    action(r);
    jobs_in(r, || action(r))
}

#[test]
fn order_by_job_counts() {
    let r = engine(|c| c);
    let q =
        distributed(r#"for $r in SRC where $r.v instance of integer order by $r.v return $r.id"#);
    // Top-K: one job, where the full sort would sample, map, sort and
    // take.
    assert_eq!(jobs_of(&r, |r| drop(r.run_take(&q, 10).unwrap())), 1);
    assert_eq!(jobs_of(&r, |r| drop(r.run(&q).unwrap())), FULL_SORT_JOBS);
}
