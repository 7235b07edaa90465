//! The three workloads: their inputs, their JSONiq queries, and the answers
//! each query must return, computed outside the timed region.

use rumble_baselines::{handtuned, ConfusionQuery, QueryOutput};
use rumble_core::{Item, Rumble};
use rumble_datagen::{confusion, heterogeneous, put_dataset};
use sparklite::{SparkliteConf, SparkliteContext};
use std::collections::{BTreeMap, HashMap};

/// The three query shapes every workload runs, interleaved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A per-record pass with no shuffle.
    Scan,
    /// A group-by (one shuffle).
    Group,
    /// An order-by with `take(10)`.
    Sort,
}

pub const KINDS: [Kind; 3] = [Kind::Scan, Kind::Group, Kind::Sort];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Scan => "scan",
            Kind::Group => "group",
            Kind::Sort => "sort",
        }
    }

    pub fn index(self) -> usize {
        match self {
            Kind::Scan => 0,
            Kind::Group => 1,
            Kind::Sort => 2,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 11 with a fresh engine per query: every query parses JSON.
    Fig11Cold,
    /// Fig. 11 on one engine whose auto-persist cache holds the items.
    Fig11Warm,
    /// §3.4 cleaning, mixed-type grouping and cleaned-key sorting.
    Messy,
}

pub const WORKLOADS: [Workload; 3] = [Workload::Fig11Cold, Workload::Fig11Warm, Workload::Messy];

/// Where each workload's input lives in the simulated HDFS.
const CONFUSION_PATH: &str = "hdfs:///confusion.json";
const MESSY_PATH: &str = "hdfs:///messy.json";
/// The messy scan's output file; it must not exist when a write starts.
pub const MESSY_OUT_PATH: &str = "hdfs:///messy_clean.json";

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig11Cold => "fig11-cold",
            Workload::Fig11Warm => "fig11-warm",
            Workload::Messy => "messy",
        }
    }

    /// The input size the benchmark runs at.
    pub fn objects(self) -> usize {
        match self {
            Workload::Fig11Cold | Workload::Fig11Warm => 200_000,
            // Its scan costs ~15 µs per record; at 50 K a run still takes
            // ~20 samples of each query.
            Workload::Messy => 50_000,
        }
    }

    /// Whether each query gets a fresh engine (and so parses its input).
    pub fn fresh_engine_per_query(self) -> bool {
        self != Workload::Fig11Warm
    }

    pub fn input_path(self) -> &'static str {
        match self {
            Workload::Messy => MESSY_PATH,
            _ => CONFUSION_PATH,
        }
    }

    /// The cluster configuration the workload runs on: the defaults with
    /// `executors` threads. The messy input (~4.6 MB) gets 512 KiB blocks,
    /// so it splits into as many input partitions (9) as Fig. 11's ~34 MB
    /// does with the default 4 MiB blocks; with the default, its two
    /// uneven blocks would leave one executor idle.
    pub fn conf(self, executors: usize) -> SparkliteConf {
        let conf = SparkliteConf::default().with_executors(executors);
        match self {
            Workload::Messy => conf.with_block_size(512 * 1024),
            _ => conf,
        }
    }

    /// The generated JSON Lines input for `seed`.
    pub fn generate(self, objects: usize, seed: u64) -> String {
        match self {
            Workload::Messy => heterogeneous::generate(objects, seed),
            _ => confusion::generate(objects, seed),
        }
    }

    /// The JSONiq text of one query.
    pub fn query(self, kind: Kind) -> String {
        let p = self.input_path();
        match (self, kind) {
            (Workload::Messy, Kind::Scan) => format!(
                r#"for $r in json-file("{p}")
                   let $id := if ($r.id instance of integer) then $r.id
                              else if ($r.id instance of string) then ($r.id cast as integer)
                              else ()
                   where exists($id)
                   let $name := ($r.name[], $r.name)[1]
                   let $value := if ($r.value instance of string)
                                 then ($r.value cast as decimal)
                                 else if ($r.value instance of null) then ()
                                 else $r.value
                   let $tags := if ($r.tags instance of array) then $r.tags[] else $r.tags
                   return {{
                       "id": $id,
                       "name": ($name, "anonymous")[1],
                       "value": ($value, 0)[1],
                       "tags": [ distinct-values($tags) ],
                       "has_nested": exists($r.nested)
                   }}"#
            ),
            (Workload::Messy, Kind::Group) => format!(
                r#"for $r in json-file("{p}")
                   group by $k := $r.nested.k
                   return {{ "k": $k, "n": count($r) }}"#
            ),
            // Raw ids mix strings and integers, and ordering by them raises
            // XPTY0004; the sort keys are cleaned and cast first.
            (Workload::Messy, Kind::Sort) => format!(
                r#"for $r in json-file("{p}")
                   let $id := if ($r.id instance of integer) then $r.id
                              else if ($r.id instance of string) then ($r.id cast as integer)
                              else ()
                   let $value := if ($r.value instance of string)
                                 then ($r.value cast as decimal)
                                 else if ($r.value instance of null) then ()
                                 else $r.value
                   where exists($id) and exists($value)
                   order by $value descending, $id ascending
                   return $id"#
            ),
            (_, Kind::Scan) => {
                format!("for $i in json-file(\"{p}\") where $i.guess = $i.target return $i")
            }
            (_, Kind::Group) => format!(
                "for $i in json-file(\"{p}\") \
                 group by $c := $i.country, $t := $i.target \
                 return {{ c: $c, t: $t, n: count($i) }}"
            ),
            (_, Kind::Sort) => format!(
                "for $i in json-file(\"{p}\") \
                 where $i.guess = $i.target \
                 order by $i.target ascending, $i.country descending, $i.date descending \
                 return $i.sample"
            ),
        }
    }
}

/// Program set-up: a context holding the workload's input in its HDFS.
pub fn make_context(conf: SparkliteConf, workload: Workload, text: &str) -> SparkliteContext {
    let sc = SparkliteContext::new(conf);
    put_dataset(&sc, workload.input_path(), text).expect("the input fits the simulated HDFS");
    sc
}

/// The engine a cold or messy query runs on: new, with auto-persist off,
/// so the query parses its input and caches nothing. (With auto-persist on,
/// freeing the cached items lands on whichever thread drops the last
/// handle, often during the next query, which makes its time bimodal.)
pub fn fresh_engine(sc: &SparkliteContext) -> Rumble {
    let engine = Rumble::new(sc.clone());
    engine.set_auto_persist(None);
    engine
}

/// What a query returned, before checking.
#[derive(Debug)]
pub enum Output {
    Count(u64),
    Items(Vec<Item>),
    Written(u64),
}

/// Runs one compiled query the way its workload consumes the result.
pub fn execute(
    workload: Workload,
    kind: Kind,
    q: &rumble_core::api::PreparedQuery,
) -> rumble_core::Result<Output> {
    match (workload, kind) {
        (Workload::Messy, Kind::Scan) => q.write_json_lines(MESSY_OUT_PATH).map(Output::Written),
        (_, Kind::Scan) => q.count().map(Output::Count),
        (_, Kind::Group) => q.collect().map(Output::Items),
        (_, Kind::Sort) => q.take(10).map(Output::Items),
    }
}

/// Compiles and runs one query on `engine`.
pub fn run(engine: &Rumble, workload: Workload, kind: Kind) -> Result<Output, String> {
    let q = engine.compile(&workload.query(kind)).map_err(|e| e.to_string())?;
    execute(workload, kind, &q).map_err(|e| e.to_string())
}

/// Removes the messy scan's output so the next write can create it
/// (`write_json_lines` refuses an existing path).
pub fn clear_output(sc: &SparkliteContext) {
    sc.hdfs().delete(MESSY_OUT_PATH.trim_start_matches("hdfs://"));
}

/// `(target, country, date)`: the Fig. 11 sort key of one record.
type SortKey = (String, String, String);

/// One cleaned messy record, as the scan query should write it.
#[derive(Debug, Clone, PartialEq)]
pub struct CleanRow {
    pub id: i64,
    pub name: String,
    pub value: f64,
    /// Distinct tags, sorted (the query's order is not part of the check).
    pub tags: Vec<String>,
    pub has_nested: bool,
}

/// The answers every query of a workload must return.
#[derive(Debug)]
pub enum Expected {
    Fig11 {
        filter: u64,
        /// Sorted `(country, target, n)`.
        groups: Vec<(String, String, u64)>,
        /// The first ten sort keys, in order.
        top_keys: Vec<SortKey>,
        /// Sort key of every matching record whose key is within the first
        /// ten (ties make the top samples themselves non-unique).
        top_sample_keys: HashMap<String, SortKey>,
    },
    Messy {
        /// Sorted by id.
        clean: Vec<CleanRow>,
        groups: BTreeMap<Option<i64>, u64>,
        top_ids: Vec<i64>,
    },
}

fn str_field(v: &jsonlite::Value, key: &str) -> Result<String, String> {
    v.get(key).and_then(|f| f.as_str()).map(str::to_string).ok_or_else(|| format!("no {key}"))
}

/// Total order used by the Fig. 11 sort: target asc, country desc, date desc.
fn fig11_order(a: &SortKey, b: &SortKey) -> std::cmp::Ordering {
    a.0.cmp(&b.0).then_with(|| b.1.cmp(&a.1)).then_with(|| b.2.cmp(&a.2))
}

/// The cleaning rules of the messy scan, applied directly to parsed JSON.
fn clean_record(v: &jsonlite::Value) -> Option<CleanRow> {
    use jsonlite::Value;
    let id = match v.get("id")? {
        Value::Int(i) => *i,
        Value::Str(s) => s.parse().ok()?,
        _ => return None,
    };
    let name = match v.get("name") {
        Some(Value::Array(a)) => a.first().and_then(|n| n.as_str()).unwrap_or("").to_string(),
        Some(Value::Str(s)) => s.clone(),
        _ => "anonymous".to_string(),
    };
    let value = match v.get("value") {
        Some(Value::Str(s)) => s.parse().ok()?,
        Some(Value::Null) | None => 0.0,
        Some(n) => n.as_f64()?,
    };
    let mut tags: Vec<String> = match v.get("tags") {
        Some(Value::Array(a)) => a.iter().filter_map(|t| t.as_str().map(str::to_string)).collect(),
        Some(Value::Str(s)) => vec![s.clone()],
        _ => Vec::new(),
    };
    tags.sort();
    tags.dedup();
    Some(CleanRow { id, name, value, tags, has_nested: v.get("nested").is_some() })
}

impl Expected {
    /// Computes every answer of `workload` over its input `text`. The
    /// Fig. 11 answers come from the hand-tuned baseline on `sc`, with the
    /// sort's tie structure from a direct parse.
    pub fn compute(
        workload: Workload,
        sc: &SparkliteContext,
        text: &str,
    ) -> Result<Expected, String> {
        match workload {
            Workload::Messy => Expected::compute_messy(text),
            _ => Expected::compute_fig11(sc, workload.input_path(), text),
        }
    }

    fn compute_fig11(sc: &SparkliteContext, path: &str, text: &str) -> Result<Expected, String> {
        let base = |q| handtuned::run(sc, path, q).map_err(|e| e.to_string());
        let QueryOutput::Count(filter) = base(ConfusionQuery::Filter)? else {
            return Err("hand-tuned filter returned no count".into());
        };
        let QueryOutput::Groups(groups) = base(ConfusionQuery::Group)?.normalized() else {
            return Err("hand-tuned group returned no groups".into());
        };
        let QueryOutput::TopSamples(base_top) = base(ConfusionQuery::Sort)? else {
            return Err("hand-tuned sort returned no samples".into());
        };
        let mut matching: Vec<(SortKey, String)> = Vec::new();
        for (_, line) in jsonlite::JsonLines::new(text) {
            let v = jsonlite::parse_value(line).map_err(|e| e.to_string())?;
            let target = str_field(&v, "target")?;
            if str_field(&v, "guess")? == target {
                let key = (target, str_field(&v, "country")?, str_field(&v, "date")?);
                matching.push((key, str_field(&v, "sample")?));
            }
        }
        matching.sort_by(|a, b| fig11_order(&a.0, &b.0));
        let top_keys: Vec<SortKey> = matching.iter().take(10).map(|(k, _)| k.clone()).collect();
        let last = top_keys.last().cloned();
        let top_sample_keys: HashMap<String, SortKey> = matching
            .into_iter()
            .take_while(|(k, _)| last.as_ref().is_some_and(|l| fig11_order(k, l).is_le()))
            .map(|(k, s)| (s, k))
            .collect();
        let expected = Expected::Fig11 { filter, groups, top_keys, top_sample_keys };
        // The baseline must itself pass the check it anchors.
        expected.check(
            Workload::Fig11Cold,
            Kind::Sort,
            &Output::Items(base_top.into_iter().map(Item::str).collect()),
            sc,
        )?;
        Ok(expected)
    }

    fn compute_messy(text: &str) -> Result<Expected, String> {
        let mut clean = Vec::new();
        let mut groups = BTreeMap::new();
        let mut ranked: Vec<(f64, i64)> = Vec::new();
        for (_, line) in jsonlite::JsonLines::new(text) {
            let v = jsonlite::parse_value(line).map_err(|e| e.to_string())?;
            let k = v.get("nested").and_then(|n| n.get("k")).and_then(|k| k.as_i64());
            *groups.entry(k).or_insert(0) += 1;
            if let Some(row) = clean_record(&v) {
                // The sort keeps only records whose value is present.
                let has_value = matches!(
                    v.get("value"),
                    Some(jsonlite::Value::Str(_) | jsonlite::Value::Int(_))
                        | Some(jsonlite::Value::Decimal(_) | jsonlite::Value::Double(_))
                );
                if has_value {
                    ranked.push((row.value, row.id));
                }
                clean.push(row);
            }
        }
        clean.sort_by_key(|r| r.id);
        ranked.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let top_ids = ranked.iter().take(10).map(|&(_, id)| id).collect();
        Ok(Expected::Messy { clean, groups, top_ids })
    }

    /// Checks one query's output; `sc` holds any file the query wrote.
    pub fn check(
        &self,
        workload: Workload,
        kind: Kind,
        out: &Output,
        sc: &SparkliteContext,
    ) -> Result<(), String> {
        let mismatch = |what: &str| Err(format!("{} {}: {what}", workload.name(), kind.name()));
        match (self, kind, out) {
            (Expected::Fig11 { filter, .. }, Kind::Scan, Output::Count(n)) => {
                if n != filter {
                    return mismatch(&format!("count {n}, expected {filter}"));
                }
            }
            (Expected::Fig11 { groups, .. }, Kind::Group, Output::Items(items)) => {
                let mut got = Vec::with_capacity(items.len());
                for i in items {
                    let o = i.as_object().ok_or("group row is not an object")?;
                    let field = |k: &str| o.get(k).and_then(|v| v.as_str()).map(str::to_string);
                    let n = o.get("n").and_then(|v| v.as_i64()).ok_or("group row has no n")?;
                    got.push((
                        field("c").unwrap_or_default(),
                        field("t").unwrap_or_default(),
                        n as u64,
                    ));
                }
                got.sort();
                if &got != groups {
                    return mismatch(&format!("{} groups differ from the baseline", got.len()));
                }
            }
            (
                Expected::Fig11 { top_keys, top_sample_keys, .. },
                Kind::Sort,
                Output::Items(items),
            ) => {
                let mut keys = Vec::with_capacity(items.len());
                for i in items {
                    let sample = i.as_str().ok_or("sort row is not a string")?;
                    match top_sample_keys.get(sample) {
                        Some(k) => keys.push(k.clone()),
                        None => return mismatch(&format!("sample {sample} is not in the top")),
                    }
                }
                let mut distinct: Vec<&str> = items.iter().filter_map(|i| i.as_str()).collect();
                distinct.sort_unstable();
                distinct.dedup();
                if &keys != top_keys || distinct.len() != items.len() {
                    return mismatch("top-10 sort keys differ");
                }
            }
            (Expected::Messy { clean, .. }, Kind::Scan, Output::Written(n)) => {
                if *n != clean.len() as u64 {
                    return mismatch(&format!("wrote {n} rows, expected {}", clean.len()));
                }
                let key = MESSY_OUT_PATH.trim_start_matches("hdfs://");
                let text = sc.hdfs().read_to_string(key).map_err(|e| e.to_string())?;
                let mut got = Vec::with_capacity(clean.len());
                for (_, line) in jsonlite::JsonLines::new(&text) {
                    let v = jsonlite::parse_value(line).map_err(|e| e.to_string())?;
                    got.push(parse_clean_row(&v).ok_or("malformed cleaned row")?);
                }
                got.sort_by_key(|r| r.id);
                if &got != clean {
                    return mismatch("cleaned rows differ from the direct computation");
                }
            }
            (Expected::Messy { groups, .. }, Kind::Group, Output::Items(items)) => {
                let mut got = BTreeMap::new();
                for i in items {
                    let o = i.as_object().ok_or("group row is not an object")?;
                    let k = o.get("k").and_then(|k| k.as_i64());
                    let n = o.get("n").and_then(|v| v.as_i64()).ok_or("group row has no n")?;
                    got.insert(k, n as u64);
                }
                if &got != groups {
                    return mismatch(&format!("{} groups differ from the direct count", got.len()));
                }
            }
            (Expected::Messy { top_ids, .. }, Kind::Sort, Output::Items(items)) => {
                let got: Vec<Option<i64>> = items.iter().map(|i| i.as_i64()).collect();
                if got != top_ids.iter().map(|&i| Some(i)).collect::<Vec<_>>() {
                    return mismatch(&format!("top ids {got:?}, expected {top_ids:?}"));
                }
            }
            _ => return mismatch("unexpected output shape"),
        }
        Ok(())
    }
}

/// Reads one row of the messy scan's output back.
fn parse_clean_row(v: &jsonlite::Value) -> Option<CleanRow> {
    let mut tags: Vec<String> = v
        .get("tags")?
        .as_array()?
        .iter()
        .map(|t| t.as_str().map(str::to_string))
        .collect::<Option<_>>()?;
    tags.sort();
    Some(CleanRow {
        id: v.get("id")?.as_i64()?,
        name: v.get("name")?.as_str()?.to_string(),
        value: v.get("value")?.as_f64()?,
        tags,
        has_nested: matches!(v.get("has_nested")?, jsonlite::Value::Bool(true)),
    })
}
