//! Ablations of the engine's design choices (DESIGN.md §3):
//!
//! * the §4.7 `COUNT` detection — `count($o)` after a group-by vs forcing
//!   materialization of the group's items;
//! * unused-column pruning — returning only the key vs also shipping the
//!   whole group;
//! * the native key column — grouping on a computed heterogeneous key vs a
//!   pre-stringified one (what a SQL engine would force the user to do);
//! * filter placement — a `where` the optimizer can push below the sort vs
//!   a count-gated one it cannot;
//! * top-K — `take(10)` over an `order by` as one bounded-heap job vs the
//!   full range sort followed by the take;
//! * the full sort over an auto-persisted source vs one that is not: the
//!   range sort's sampling and routing passes each run the pipeline below
//!   the sort, so without the source cache each parses the JSON again;
//! * `let` vs inline — the messy cleaning expressions bound by `let`
//!   clauses (each a DataFrame column of variable cells) vs written inline
//!   in the `return` of a fused scan.
//!
//! Arms that compute the same answer are checked to agree (as sorted
//! serialized items, or in order for the top-K and full-sort pairs) once
//! before timing, so no arm times a wrong answer.

use criterion::{criterion_group, criterion_main, Criterion};
use rumble_core::Rumble;
use rumble_datagen::{confusion, heterogeneous, put_dataset, DEFAULT_SEED};
use sparklite::{SparkliteConf, SparkliteContext};

const OBJECTS: usize = 20_000;

fn bench(c: &mut Criterion) {
    let sc = SparkliteContext::new(SparkliteConf::default().with_executors(4));
    put_dataset(&sc, "hdfs:///confusion.json", &confusion::generate(OBJECTS, DEFAULT_SEED))
        .expect("dataset fits");
    put_dataset(&sc, "hdfs:///messy.json", &heterogeneous::generate(OBJECTS, DEFAULT_SEED))
        .expect("dataset fits");
    let rumble = Rumble::new(sc.clone());

    let run = |q: &str| {
        let prepared = rumble.compile(q).expect("query compiles");
        move || prepared.collect().expect("query runs").len()
    };
    let same_answer = |a: &str, b: &str| {
        let sorted = |q: &str| {
            let mut items: Vec<String> =
                rumble.run(q).expect("query runs").iter().map(|i| i.serialize()).collect();
            items.sort();
            items
        };
        assert_eq!(sorted(a), sorted(b), "ablation arms disagree:\n{a}\n{b}");
    };

    // --- §4.7 COUNT detection ---------------------------------------------
    let count_optimized = r#"for $i in json-file("hdfs:///confusion.json")
                             group by $t := $i.target
                             return { t: $t, n: count($i) }"#;
    // `[$i]` forces NonGroupingUsage::Materialize: the whole group is
    // collected and shipped even though only its size is used.
    let materialized = r#"for $i in json-file("hdfs:///confusion.json")
                          group by $t := $i.target
                          return { t: $t, n: size([ $i ]) }"#;
    same_answer(count_optimized, materialized);
    let mut g = c.benchmark_group("ablation/group-count");
    g.sample_size(10);
    g.bench_function("count-optimized", {
        let f = run(count_optimized);
        move |b| b.iter(&f)
    });
    g.bench_function("materialized", {
        let f = run(materialized);
        move |b| b.iter(&f)
    });
    g.finish();

    // --- unused-column pruning ---------------------------------------------
    let mut g = c.benchmark_group("ablation/group-pruning");
    g.sample_size(10);
    g.bench_function("unused-dropped", {
        let f = run(r#"for $i in json-file("hdfs:///confusion.json")
                       group by $t := $i.target
                       return $t"#);
        move |b| b.iter(&f)
    });
    g.bench_function("group-shipped", {
        let f = run(r#"for $i in json-file("hdfs:///confusion.json")
                       group by $t := $i.target
                       return ($t, count(distinct-values(for $x in $i return $x.sample)) gt 0)"#);
        move |b| b.iter(&f)
    });
    g.finish();

    // --- heterogeneous keys vs pre-stringified keys --------------------------
    let native_key = r#"for $i in json-file("hdfs:///confusion.json")
                        group by $c := ($i.country[], $i.country, "USA")[1], $t := $i.target
                        return count($i)"#;
    // What a schema-bound engine forces: build a composite string key.
    let stringified_key = r#"for $i in json-file("hdfs:///confusion.json")
                             group by $k := (($i.country[], $i.country, "USA")[1] || "/" || $i.target)
                             return count($i)"#;
    same_answer(native_key, stringified_key);
    let mut g = c.benchmark_group("ablation/key-encoding");
    g.sample_size(10);
    g.bench_function("native-key-column", {
        let f = run(native_key);
        move |b| b.iter(&f)
    });
    g.bench_function("stringified-key", {
        let f = run(stringified_key);
        move |b| b.iter(&f)
    });
    g.finish();

    // --- filter placement vs the optimizer ----------------------------------
    // The where precedes the sort: only matches get sorted.
    let pushable = r#"for $i in json-file("hdfs:///confusion.json")
                      where $i.guess = $i.target
                      order by $i.target
                      return $i.sample"#;
    // The where is count-gated, so it must run after the sort.
    let post_sort = r#"for $i in json-file("hdfs:///confusion.json")
                       order by $i.target
                       count $c
                       where $i.guess = $i.target
                       return $i.sample"#;
    same_answer(pushable, post_sort);
    let mut g = c.benchmark_group("ablation/filter-pushdown");
    g.sample_size(10);
    g.bench_function("pushable-where", {
        let f = run(pushable);
        move |b| b.iter(&f)
    });
    g.bench_function("post-sort-where", {
        let f = run(post_sort);
        move |b| b.iter(&f)
    });
    g.finish();

    // --- top-K vs sort-then-take ---------------------------------------------
    let take = |q: &str| {
        let prepared = rumble.compile(q).expect("query compiles");
        move || prepared.take(10).expect("query runs").len()
    };
    // The Fig. 11 sort query: its take runs as one top-K job.
    let top_k = r#"for $i in json-file("hdfs:///confusion.json")
                   where $i.guess = $i.target
                   order by $i.target, $i.country descending, $i.date descending
                   return $i.sample"#;
    // A clause after the `order by` keeps top-K from serving the take: the
    // frame is range-sorted in full, then cut.
    let sort_then_take = r#"for $i in json-file("hdfs:///confusion.json")
                            where $i.guess = $i.target
                            order by $i.target, $i.country descending, $i.date descending
                            let $s := $i.sample
                            return $s"#;
    let taken = |q: &str| -> Vec<String> {
        rumble.run_take(q, 10).expect("query runs").iter().map(|i| i.serialize()).collect()
    };
    assert_eq!(taken(top_k), taken(sort_then_take), "top-K and sort-then-take disagree");
    let mut g = c.benchmark_group("ablation/top-k");
    g.sample_size(10);
    g.bench_function("top-k", {
        let f = take(top_k);
        move |b| b.iter(&f)
    });
    g.bench_function("sort-then-take", {
        let f = take(sort_then_take);
        move |b| b.iter(&f)
    });
    g.finish();

    // --- the full sort with and without the source cache ---------------------
    // The Fig. 11 sort query collected in full: a range sort, not top-K.
    let uncached = Rumble::new(sc);
    uncached.set_auto_persist(None);
    let collected = |r: &Rumble| -> Vec<String> {
        r.run(top_k).expect("query runs").iter().map(|i| i.serialize()).collect()
    };
    assert_eq!(collected(&rumble), collected(&uncached), "full sort disagrees without the cache");
    let mut g = c.benchmark_group("ablation/full-sort");
    g.sample_size(10);
    for (name, r) in [("auto-persist", &rumble), ("no-auto-persist", &uncached)] {
        let prepared = r.compile(top_k).expect("query compiles");
        g.bench_function(name, move |b| b.iter(|| prepared.collect().expect("query runs").len()));
    }
    g.finish();

    // --- `let` clauses vs inline expressions ----------------------------------
    // The three cleaning expressions of the messy benchmark's scan. Bound by
    // `let`, each is a UDF column of variable cells on the DataFrame path;
    // inline, the whole FLWOR is a fused scan with one compiled return.
    let let_form = r#"for $r in json-file("hdfs:///messy.json")
                      let $id := if ($r.id instance of integer) then $r.id
                                 else if ($r.id instance of string) then ($r.id cast as integer)
                                 else ()
                      let $value := if ($r.value instance of string)
                                    then ($r.value cast as decimal)
                                    else if ($r.value instance of null) then ()
                                    else $r.value
                      let $tags := if ($r.tags instance of array) then $r.tags[] else $r.tags
                      return { "id": $id, "value": $value, "tags": [ distinct-values($tags) ] }"#;
    let inline_form = r#"for $r in json-file("hdfs:///messy.json")
                         return {
                           "id": if ($r.id instance of integer) then $r.id
                                 else if ($r.id instance of string) then ($r.id cast as integer)
                                 else (),
                           "value": if ($r.value instance of string)
                                    then ($r.value cast as decimal)
                                    else if ($r.value instance of null) then ()
                                    else $r.value,
                           "tags": [ distinct-values(if ($r.tags instance of array)
                                                     then $r.tags[] else $r.tags) ]
                         }"#;
    same_answer(let_form, inline_form);
    let count = |q: &str| {
        let prepared = rumble.compile(q).expect("query compiles");
        move || prepared.count().expect("query runs")
    };
    let mut g = c.benchmark_group("ablation/let-vs-inline");
    g.sample_size(10);
    g.bench_function("let", {
        let f = count(let_form);
        move |b| b.iter(&f)
    });
    g.bench_function("inline", {
        let f = count(inline_form);
        move |b| b.iter(&f)
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
