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
        // the first `where` drops: it must never see them. (Past the `let`,
        // the fused scan runs both `where`s in one pass per item.)
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
    Case {
        // A fused scan whose `let` redeclares a `let` variable: the second
        // binding reads the first and overwrites its slot.
        name: "a redeclared let",
        query: r#"for $r in SRC
                  let $x := $r.v[$$ instance of integer]
                  let $x := $x + 1
                  return [$r.id, $x]"#,
        sorted: false,
    },
    Case {
        // A `let` that shadows the `for` variable: later clauses and the
        // `return $r` read the `let`, not the scanned item.
        name: "a let shadowing the for variable",
        query: r#"for $r in SRC
                  let $r := $r.id
                  where $r instance of integer
                  return $r"#,
        sorted: false,
    },
    Case {
        name: "a where between lets",
        query: r#"for $r in SRC
                  let $v := $r.v
                  where $v instance of integer
                  let $w := $v * 2
                  where $w gt 20
                  return [$r.id, $w]"#,
        sorted: false,
    },
    Case {
        // The `let`s below are not part of a fused scan: each is a column
        // of the tuple frame.
        name: "a let after order by",
        query: r#"for $r in SRC
                  where $r.id instance of integer
                  order by $r.id descending
                  let $t := $r.tags
                  return [$r.id, $t]"#,
        sorted: false,
    },
    Case {
        name: "a let after group by",
        query: r#"for $r in SRC
                  group by $g := $r.g
                  let $n := count($r)
                  return [$g, $n]"#,
        sorted: true,
    },
    Case {
        name: "a let after a non-initial for",
        query: r#"for $r in SRC
                  for $t in $r.tags[]
                  let $u := [$r.id, $t]
                  return $u"#,
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
    // Every `let` is bound on every tuple that reaches it, read or not.
    (
        "an unread let that raises",
        "FORG0001",
        r#"for $r in SRC let $x := $r.id cast as integer return $r.id"#,
    ),
    (
        "an unread let that raises, after a non-initial for",
        "FORG0001",
        r#"for $r in SRC for $t in $r.tags[] let $x := $r.id cast as integer return $t"#,
    ),
    (
        "an unread let that raises, unused after a group by",
        "FORG0001",
        r#"for $r in SRC let $x := $r.id cast as integer group by $k := $r.k return $k"#,
    ),
    (
        "an unread let with no compiled form",
        "FOER0000",
        r#"for $r in SRC let $x := error() return $r.id"#,
    ),
    // A `where` after a `let` must not be pushed below it: the `let` sees
    // the rows the `where` drops, and raises on their string ids.
    (
        "a let that raises on rows a later where drops, then an order by",
        "XPTY0004",
        r#"for $r in SRC let $y := $r.id + 1 where $r.id instance of integer
           order by $r.id return $y"#,
    ),
    (
        "a let that raises on rows a later where drops, then a group by",
        "XPTY0004",
        r#"for $r in SRC let $y := $r.id + 1 where $r.id instance of integer
           group by $k := $r.id mod 3 return [$k, count($y)]"#,
    ),
    // A count reads the tuples of a FLWOR whose return yields one item and
    // never raises; it still evaluates every other return, and every clause.
    ("a return that raises on some tuple", "XPTY0004", r#"for $r in SRC return $r.v + 1"#),
    (
        "an unread let that raises, under a return of one item",
        "FORG0001",
        r#"for $r in SRC let $x := $r.id cast as integer return $r"#,
    ),
    (
        "a where that raises, under a return of one item",
        "XPTY0004",
        r#"for $r in SRC where $r.v + 1 gt 10 return 1"#,
    ),
];

/// FLWORs for the cardinality consumers, beside the [`CASES`]: returns
/// that a count evaluates (none, one or several items per tuple), then
/// returns of a literal or of a variable bound to one item, which it reads
/// as tuples.
const COUNTED: &[&str] = &[
    r#"for $r in SRC return $r.tags[]"#,
    r#"for $r in SRC where $r.v instance of integer return ($r.id, $r.nested)"#,
    r#"for $r in SRC order by $r.z return $r.nested.k"#,
    r#"for $r in SRC let $t := $r.tags where exists($t) return [$t, $r]"#,
    r#"for $r in SRC return $r"#,
    r#"for $r in SRC where $r.v instance of integer return 1"#,
    r#"for $r at $p in SRC where $r.nested.flag return $p"#,
    r#"for $r in SRC let $t := $r.tags where exists($t) return $r"#,
    r#"for $r in SRC where $r.nested.flag count $c return $c"#,
    r#"for $r in SRC where $r.v instance of integer order by $r.v return $r"#,
    r#"for $r in SRC group by $k := $r.k return count($r)"#,
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
    let (prolog, body) = split_prolog(q);
    format!("{prolog} let $a := json-file(\"{PATH}\") {}", body.replace("SRC", "$a"))
}

/// `q` as its prolog, possibly empty, and its body.
fn split_prolog(q: &str) -> (&str, &str) {
    q.split_at(q.rfind(';').map_or(0, |i| i + 1))
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

/// Asserts that `q` answers `is_distributed()` with `distributed` and
/// launches no job to find out: the mode is decided at compile time, where
/// debug builds check it against the analyzer's rule.
fn assert_mode_for_free(r: &Rumble, q: &str, distributed: bool, name: &str) {
    let prepared = r.compile(q).unwrap();
    let jobs = jobs_in(r, || assert_eq!(prepared.is_distributed().unwrap(), distributed, "{name}"));
    assert_eq!(jobs, 0, "{name}: is_distributed() launched jobs");
}

#[test]
fn every_cell_carrying_clause_agrees_on_every_path() {
    let paths = paths(0xCE11);
    let threads = &paths[0].1;
    for case in CASES {
        let dq = distributed(case.query);
        assert_mode_for_free(threads, &dq, true, case.name);
        let lq = local(case.query);
        assert_mode_for_free(threads, &lq, false, case.name);
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
        assert_mode_for_free(&paths[0].1, &local(q), false, name);
        let expected = outcome(&paths[0].1, &local(q), false).expect_err(name);
        assert_eq!(expected, *code, "{name}");
        for (path, r) in &paths {
            assert_mode_for_free(r, &distributed(q), true, &format!("{name} on {path}"));
            assert_eq!(outcome(r, &distributed(q), false), Err(expected), "{name} on {path}");
        }
    }
}

/// Queries over `SRC` whose mode the analyzer once got wrong, with the
/// mode they run in: a comma of parallel sequences unions their RDDs, and
/// a non-initial `for` with a position or `allowing empty` runs the whole
/// FLWOR locally. A prolog global is bound before the body runs, so
/// finding the mode must not evaluate it.
const MODES: &[(&str, bool, &str)] = &[
    ("a comma of two sources", true, r#"(SRC, SRC)"#),
    ("a for over a comma of two sources", true, r#"for $r in (SRC, SRC) return $r.id"#),
    (
        "a non-initial for with at",
        false,
        r#"for $r in SRC for $t at $p in $r.tags[] return [$r.id, $p, $t]"#,
    ),
    (
        "a non-initial for allowing empty",
        false,
        r#"for $r in SRC for $t allowing empty in $r.tags[] return [$r.id, $t]"#,
    ),
    (
        "a prolog global bound to a source",
        true,
        r#"declare variable $all := SRC;
           for $r in SRC where $r.id eq count($all) - 1 return $r.v"#,
    ),
];

#[test]
fn the_static_mode_is_the_mode_that_runs() {
    let r = engine(|c| c);
    for (name, distributed, q) in MODES {
        let q = self::distributed(q);
        assert_mode_for_free(&r, &q, *distributed, name);
        // The plan's root node reports the mode its evaluation ran in.
        let report = r.analyze_profile(&q).unwrap();
        let root = report.plan.lines().next().unwrap();
        assert_eq!(!root.contains("mode=local"), *distributed, "{name}: {root}");
        assert!(!report.items.is_empty(), "{name}: no items");
    }
}

/// `q` with its body wrapped in a call of the builtin `f`, after any
/// prolog.
fn wrapped(f: &str, q: &str) -> String {
    let (prolog, body) = split_prolog(q);
    format!("{prolog} {f}({body})")
}

/// `(PreparedQuery::count, count(…), exists(…), empty(…))` of `q`, or the
/// error code of the first that fails.
fn cardinalities(r: &Rumble, q: &str) -> Result<(u64, i64, bool, bool), &'static str> {
    let builtin = |f: &str| r.run(&wrapped(f, q)).map_err(|e| e.code);
    let count = r.compile(q).unwrap().count().map_err(|e| e.code)?;
    let counted = builtin("count")?[0].as_i64().unwrap();
    let exists = builtin("exists")?[0].as_bool().unwrap();
    let empty = builtin("empty")?[0].as_bool().unwrap();
    Ok((count, counted, exists, empty))
}

/// A count, `count(…)`, `exists` and `empty` of every case agree with the
/// length of its `collect()`, locally and on every distributed path.
#[test]
fn cardinality_consumers_agree_with_collect_on_every_path() {
    let paths = paths(0xC0C);
    let threads = &paths[0].1;
    let queries = CASES.iter().map(|c| c.query).chain(COUNTED.iter().copied());
    for q in queries {
        let n = threads.run(&local(q)).unwrap_or_else(|e| panic!("{q}: {e}")).len();
        let expected = Ok((n as u64, n as i64, n > 0, n == 0));
        assert_eq!(cardinalities(threads, &local(q)), expected, "{q}: local");
        for (path, r) in &paths {
            assert_eq!(cardinalities(r, &distributed(q)), expected, "{q}: {path}");
        }
    }
}

/// A count raises the code `collect()` raises, locally and on every
/// distributed path.
#[test]
fn a_count_raises_what_collect_raises() {
    let paths = paths(0xC0E);
    for (name, code, q) in ERRORS {
        let count = |r: &Rumble, q: &str| r.compile(q).unwrap().count().map_err(|e| e.code);
        assert_eq!(count(&paths[0].1, &local(q)), Err(*code), "{name}: local");
        for (path, r) in &paths {
            assert_eq!(count(r, &distributed(q)), Err(*code), "{name} on {path}");
            let builtin = r.run(&wrapped("count", &distributed(q))).map_err(|e| e.code);
            assert_eq!(builtin, Err(*code), "{name}: count(…) on {path}");
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
        assert_mode_for_free(threads, &dq, true, q);
        assert_mode_for_free(threads, &lq, false, q);
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
    // A count does not sort: one job runs the key pass and counts.
    let count = |r: &Rumble| assert!(r.compile(&q).unwrap().count().unwrap() > 0);
    assert_eq!(jobs_of(&r, count), 1);
    // The shape of the Fig. 11 sort: a `where`, three keys and a field.
    let fig11 = distributed(
        r#"for $r in SRC where $r.id instance of integer
           order by $r.nested.k ascending, $r.id descending, $r.z descending
           return $r.tags"#,
    );
    let count = |r: &Rumble| assert!(r.compile(&fig11).unwrap().count().unwrap() > 0);
    assert_eq!(jobs_of(&r, count), 1);
}
