//! A seeded differential test over random FLWOR clause chains: every
//! generated query must return the same items, or raise the same error
//! code, in local mode, distributed on executor threads and in the
//! row-major interpreter, and its `count()` must agree with the length of
//! its `collect()` on each of them.
//!
//! The generator varies clause order: `for`, `let`, `where`, `group by`,
//! `order by` and `count`, clauses after a breaker, non-initial `for`s,
//! `let`s that may raise and go unread, and non-grouping variables that are
//! only counted or materialized. It runs over `datagen::heterogeneous`
//! records: ids that are sometimes strings or null, values that are
//! sometimes strings, tags that are arrays, bare strings or absent.
//!
//! Every construct that may raise raises `XPTY0004`, so a query that fails
//! on several tuples fails with one code whichever tuple a path meets
//! first. Output order is unspecified after a `group by`, so results are
//! compared as multisets, and neither a `count` clause nor a second `group
//! by` (which would collect values in group order) follows a `group by`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rumble_core::Rumble;
use sparklite::{SparkliteConf, SparkliteContext};

const PATH: &str = "hdfs:///chains.json";
const RECORDS: usize = 300;
const QUERIES: u64 = 300;

/// How a variable in scope may be read.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    /// One heterogeneous record (`for $r in SRC`).
    Rec,
    /// Any value of one tuple: a `let`, a non-initial `for`, a key, a count.
    Val,
    /// Every value of a group: a non-grouping variable after `group by`.
    Group,
}

struct Var {
    name: String,
    kind: Kind,
}

struct Gen {
    rng: StdRng,
    vars: Vec<Var>,
    fresh: usize,
    grouped: bool,
}

impl Gen {
    fn pick<'a>(&mut self, options: &[&'a str]) -> &'a str {
        options[self.rng.gen_range(0..options.len())]
    }

    /// One of `safe`, or now and then one of `raising`, which may raise
    /// on some tuples.
    fn pick_or_raise<'a>(&mut self, safe: &[&'a str], raising: &[&'a str]) -> &'a str {
        match self.rng.gen_bool(0.12) {
            true => self.pick(raising),
            false => self.pick(safe),
        }
    }

    fn var(&mut self) -> (String, Kind) {
        let v = &self.vars[self.rng.gen_range(0..self.vars.len())];
        (v.name.clone(), v.kind)
    }

    /// A new variable name, or now and then an existing one, redeclared.
    fn binding(&mut self, kind: Kind) -> String {
        if !self.vars.is_empty() && self.rng.gen_bool(0.15) {
            let i = self.rng.gen_range(0..self.vars.len());
            self.vars[i].kind = kind;
            return self.vars[i].name.clone();
        }
        self.fresh += 1;
        let name = format!("v{}", self.fresh);
        self.vars.push(Var { name: name.clone(), kind });
        name
    }

    /// A value over one variable; some raise on some tuples.
    fn value(&mut self) -> String {
        let (v, kind) = self.var();
        let t = match kind {
            Kind::Rec => self.pick_or_raise(
                &[
                    "$V.id",
                    "$V.nested.k",
                    "$V.tags",
                    "$V.name",
                    "$V.value",
                    "$V.nested",
                    "$V.tags[]",
                    "if ($V.value instance of decimal) then $V.value * 2 else ()",
                ],
                &["$V.value + 1", "$V.id * 2"],
            ),
            Kind::Val => self.pick_or_raise(&["$V", "($V, 7)"], &["$V + 1"]),
            Kind::Group => self.pick(&["count($V)", "$V", "count($V) + 1"]),
        };
        t.replace('V', &v)
    }

    fn predicate(&mut self) -> String {
        let (v, kind) = self.var();
        let t = match kind {
            Kind::Rec => self.pick_or_raise(
                &[
                    "$V.nested.flag",
                    "$V.value instance of integer",
                    "exists($V.tags)",
                    "$V.id instance of integer",
                ],
                &["$V.id mod 3 eq 0", "$V.value gt 500"],
            ),
            Kind::Val => self.pick_or_raise(&["exists($V)", "empty($V)"], &["$V gt 10"]),
            Kind::Group => self.pick(&["count($V) gt 1", "exists($V)"]),
        };
        t.replace('V', &v)
    }

    fn group_key(&mut self) -> String {
        let (v, kind) = self.var();
        let t = match kind {
            Kind::Rec => self.pick_or_raise(
                &[
                    "$V.nested.k mod 4",
                    "$V.id instance of integer",
                    "$V.nested.flag",
                    "$V.value instance of integer",
                ],
                &["$V.tags", "$V.name"],
            ),
            Kind::Val => self.pick(&["$V", "exists($V)"]),
            Kind::Group => "count($V)",
        };
        t.replace('V', &v)
    }

    fn order_key(&mut self) -> String {
        let (v, kind) = self.var();
        let t = match kind {
            Kind::Rec => self.pick_or_raise(
                &[
                    "$V.nested.k",
                    "$V.nested.flag",
                    "if ($V.id instance of integer) then $V.id else -1",
                ],
                &["$V.id", "$V.value"],
            ),
            Kind::Val => "$V",
            Kind::Group => "count($V)",
        };
        let dir = self.pick(&["", " descending", " empty greatest", " descending empty greatest"]);
        format!("{}{dir}", t.replace('V', &v))
    }

    fn clause(&mut self) -> String {
        loop {
            match self.rng.gen_range(0..100) {
                0..=29 => {
                    let value = self.value();
                    let var = self.binding(Kind::Val);
                    return format!("let ${var} := {value}");
                }
                30..=54 => return format!("where {}", self.predicate()),
                55..=64 => {
                    let seq = match self.var() {
                        (v, Kind::Rec) => format!("${v}.tags[]"),
                        (v, Kind::Val) => format!("(${v}, 1)"),
                        (v, Kind::Group) => format!("${v}"),
                    };
                    let seq = if self.rng.gen_bool(0.3) { "1 to 2".to_string() } else { seq };
                    let var = self.binding(Kind::Val);
                    return format!("for ${var} in {seq}");
                }
                65..=76 if !self.grouped => {
                    let bare = self.vars.iter().position(|v| v.kind == Kind::Val);
                    let key = match bare.filter(|_| self.rng.gen_bool(0.3)) {
                        Some(i) => {
                            format!("${}", self.vars[i].name)
                        }
                        None => {
                            let key = self.group_key();
                            self.fresh += 1;
                            let name = format!("v{}", self.fresh);
                            self.vars.push(Var { name: name.clone(), kind: Kind::Val });
                            format!("${name} := {key}")
                        }
                    };
                    let key_var = key.split(' ').next().unwrap_or("").trim_start_matches('$');
                    for v in &mut self.vars {
                        if v.name != key_var {
                            v.kind = Kind::Group;
                        }
                    }
                    self.grouped = true;
                    return format!("group by {key}");
                }
                77..=89 => {
                    let mut keys = vec![self.order_key()];
                    if self.rng.gen_bool(0.4) {
                        keys.push(self.order_key());
                    }
                    return format!("order by {}", keys.join(", "));
                }
                65..=76 | 90.. if self.grouped => continue,
                _ => {
                    let var = self.binding(Kind::Val);
                    return format!("count ${var}");
                }
            }
        }
    }

    fn ret(&mut self) -> String {
        match self.rng.gen_range(0..10) {
            0 => "1".to_string(),
            1 => {
                let (v, _) = self.var();
                format!("${v}")
            }
            _ => {
                let n = self.rng.gen_range(1..=3);
                let parts: Vec<String> = (0..n).map(|_| self.value()).collect();
                format!("[ {} ]", parts.join(", "))
            }
        }
    }

    /// One FLWOR over `SRC`: an initial `for`, one to five clauses, and a
    /// return.
    fn query(seed: u64) -> String {
        let vars = vec![Var { name: "r".to_string(), kind: Kind::Rec }];
        let mut g = Gen { rng: StdRng::seed_from_u64(seed), vars, fresh: 0, grouped: false };
        let mut q = "for $r in SRC".to_string();
        for _ in 0..g.rng.gen_range(1..=5) {
            q.push(' ');
            q.push_str(&g.clause());
        }
        format!("{q} return {}", g.ret())
    }
}

fn engine(conf: impl FnOnce(SparkliteConf) -> SparkliteConf) -> Rumble {
    let r = Rumble::new(SparkliteContext::new(conf(
        SparkliteConf::default().with_executors(2).with_block_size(4096),
    )));
    r.hdfs_put("/chains.json", &rumble_datagen::heterogeneous::generate(RECORDS, 0x5EED)).unwrap();
    r
}

/// The serialized items as a multiset, or the error code.
fn outcome(r: &Rumble, q: &str) -> Result<Vec<String>, &'static str> {
    let mut items: Vec<String> =
        r.run(q).map_err(|e| e.code)?.iter().map(|i| i.serialize()).collect();
    items.sort();
    Ok(items)
}

fn count(r: &Rumble, q: &str) -> Result<usize, &'static str> {
    r.compile(q).map_err(|e| e.code)?.count().map(|n| n as usize).map_err(|e| e.code)
}

#[test]
fn random_clause_chains_agree_on_every_path() {
    let threads = engine(|c| c);
    let row_major = engine(|c| c.with_row_major(true));
    let (mut failed, mut rows) = (0, 0);
    for seed in 0..QUERIES {
        let q = Gen::query(seed);
        let local = format!("let $a := json-file(\"{PATH}\") {}", q.replace("SRC", "$a"));
        let dist = q.replace("SRC", &format!("json-file(\"{PATH}\")"));
        assert!(!threads.compile(&local).unwrap().is_distributed().unwrap(), "{q}");
        assert!(threads.compile(&dist).unwrap().is_distributed().unwrap(), "{q}");
        let expected = outcome(&threads, &local);
        match &expected {
            Ok(items) => rows += items.len(),
            Err(code) => {
                assert_eq!(*code, "XPTY0004", "seed {seed}: {q}");
                failed += 1;
            }
        }
        let n = expected.as_ref().map(Vec::len).map_err(|c| *c);
        assert_eq!(count(&threads, &local), n, "seed {seed}: local count() of {q}");
        for (path, r) in [("threads", &threads), ("row-major", &row_major)] {
            assert_eq!(outcome(r, &dist), expected, "seed {seed}: {path} diverged on {q}");
            assert_eq!(count(r, &dist), n, "seed {seed}: {path} count() of {q}");
        }
    }
    // The generator must exercise both outcomes.
    assert!(failed > QUERIES as usize / 10, "only {failed} queries raised");
    assert!(failed < QUERIES as usize / 2, "{failed} queries raised");
    assert!(rows > 1000, "only {rows} items returned");
}
