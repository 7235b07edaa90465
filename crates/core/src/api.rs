//! The public engine facade: configure a cluster, register data, run
//! JSONiq.

use crate::compiler::{compile_query, compile_query_profiled, CompiledProgram};
use crate::error::Result;
use crate::item::{seq, Item};
use crate::runtime::{CollectionSource, DynamicContext, EngineCtx};
use crate::semantics::{Diagnostic, Severity};
use crate::syntax::ast::Span;
use sparklite::{SparkliteConf, SparkliteContext};
use std::sync::Arc;

/// Statically analyzes a query without executing it: parses and runs every
/// analyzer pass, returning all errors and warnings found, ordered by source
/// position. A syntax error produces a single `XPST0003` diagnostic (the
/// parser cannot recover), otherwise the full multi-pass report from
/// [`crate::semantics::analyze`] is returned. An empty result means the
/// query is clean.
pub fn analyze(query: &str) -> Vec<Diagnostic> {
    match crate::syntax::parse_program(query) {
        Ok(program) => crate::semantics::analyze(&program),
        Err(e) => {
            let span = e.position.map(|(l, c)| Span::new(l, c)).unwrap_or(Span::UNKNOWN);
            vec![Diagnostic {
                code: "XPST0003",
                severity: Severity::Error,
                span,
                message: e.message,
                help: None,
            }]
        }
    }
}

/// The Rumble engine: a JSONiq processor on top of a sparklite cluster.
///
/// ```
/// use rumble_core::Rumble;
///
/// let rumble = Rumble::default_local();
/// let out = rumble.run("1 + 1").unwrap();
/// assert_eq!(out[0].as_i64(), Some(2));
/// ```
pub struct Rumble {
    engine: Arc<EngineCtx>,
}

impl Rumble {
    /// Wraps an existing sparklite context.
    pub fn new(sc: SparkliteContext) -> Rumble {
        Rumble { engine: EngineCtx::new(sc) }
    }

    /// A fresh engine with the given configuration.
    pub fn with_conf(conf: SparkliteConf) -> Rumble {
        Rumble::new(SparkliteContext::new(conf))
    }

    /// A fresh engine with default local configuration.
    pub fn default_local() -> Rumble {
        Rumble::new(SparkliteContext::default_local())
    }

    /// The underlying cluster handle (for metrics, storage, tuning).
    pub fn sparklite(&self) -> &SparkliteContext {
        &self.engine.sc
    }

    /// Writes a text file into the simulated HDFS so `json-file("hdfs://…")`
    /// can read it.
    pub fn hdfs_put(&self, path: &str, text: &str) -> Result<()> {
        self.engine.sc.hdfs().put_text(path, text)?;
        Ok(())
    }

    /// Registers a named collection backed by a JSON Lines file.
    /// Re-registering a name drops any auto-persisted RDD for it, so the
    /// next query reads the new source.
    pub fn register_collection_path(&self, name: impl Into<String>, path: impl Into<String>) {
        let name = name.into();
        self.invalidate_collection(&name);
        self.engine.collections.write().insert(name, CollectionSource::Path(path.into()));
    }

    /// Registers a named collection from driver-local items.
    /// Re-registering a name drops any auto-persisted RDD for it, so the
    /// next query reads the new source.
    pub fn register_collection_items(&self, name: impl Into<String>, items: Vec<Item>) {
        let name = name.into();
        self.invalidate_collection(&name);
        self.engine.collections.write().insert(name, CollectionSource::Items(Arc::new(items)));
    }

    fn invalidate_collection(&self, name: &str) {
        let key = format!("collection:{name}");
        self.engine.persisted_sources.write().retain(|(k, _), _| *k != key);
    }

    /// Drops every auto-persisted source RDD and its cached partitions.
    /// Call after rewriting a file out from under a running engine.
    pub fn clear_persisted_sources(&self) {
        self.engine.clear_persisted_sources();
    }

    /// Sets the maximum number of items the local API materializes from a
    /// distributed result (§5.5). Results beyond the cap are truncated and
    /// [`Rumble::was_truncated`] starts returning true.
    pub fn set_materialization_cap(&self, cap: usize) {
        self.engine.materialization_cap.store(cap.max(1), std::sync::atomic::Ordering::Relaxed);
    }

    /// Whether any materialization hit the cap since the engine started —
    /// the "warning" of §5.5.
    pub fn was_truncated(&self) -> bool {
        self.engine.truncated.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Chooses the storage level at which literal-path sources
    /// (`json-file`, `collection`) are automatically persisted and reused
    /// across query runs, or disables auto-persist with `None`. The default
    /// is `Some(StorageLevel::MemoryDeserialized)`. Changing the level does
    /// not drop partitions already cached under the previous one.
    pub fn set_auto_persist(&self, level: Option<sparklite::StorageLevel>) {
        *self.engine.auto_persist.write() = level;
    }

    /// Parses, checks and compiles a query for (repeated) execution.
    pub fn compile(&self, query: &str) -> Result<PreparedQuery> {
        let program = compile_query(query)?;
        Ok(PreparedQuery { engine: Arc::clone(&self.engine), program })
    }

    /// Compiles and runs a query, collecting the full result sequence.
    pub fn run(&self, query: &str) -> Result<Vec<Item>> {
        self.compile(query)?.collect()
    }

    /// Compiles and runs, keeping at most `n` items (the shell's behaviour,
    /// §5.4: collected up to a configurable maximum).
    pub fn run_take(&self, query: &str, n: usize) -> Result<Vec<Item>> {
        self.compile(query)?.take(n)
    }

    /// `EXPLAIN ANALYZE`: compiles the query with per-iterator profiling,
    /// executes it, and returns the result items together with the
    /// annotated plan — per operator: execution mode (local / rdd /
    /// rdd (fused) / dataframe), rows produced, sampled time, and open
    /// count. The shell exposes this as `:profile`.
    pub fn analyze_profile(&self, query: &str) -> Result<ProfileReport> {
        self.profile_with(query, PreparedQuery::collect)
    }

    /// [`analyze_profile`](Self::analyze_profile) for [`run_take`]: the
    /// query runs as `take(n)`, so a FLWOR ending in `order by` shows its
    /// top-K plan (`mode=dataframe (top-k)`). The shell's `:profile` uses
    /// this, since the shell takes rather than collects.
    ///
    /// [`run_take`]: Rumble::run_take
    pub fn analyze_profile_take(&self, query: &str, n: usize) -> Result<ProfileReport> {
        self.profile_with(query, |q| q.take(n))
    }

    fn profile_with(
        &self,
        query: &str,
        run: impl FnOnce(&PreparedQuery) -> Result<Vec<Item>>,
    ) -> Result<ProfileReport> {
        let auto_persist = self.engine.auto_persist.read().is_some();
        let (program, registry) = compile_query_profiled(query, auto_persist)?;
        let prepared = PreparedQuery { engine: Arc::clone(&self.engine), program };
        let started = std::time::Instant::now();
        let items = run(&prepared)?;
        let wall_us = started.elapsed().as_micros() as u64;
        Ok(ProfileReport { items, wall_us, plan: registry.render() })
    }
}

/// The output of [`Rumble::analyze_profile`]: the executed result plus the
/// annotated plan tree.
pub struct ProfileReport {
    /// The query result, exactly as [`Rumble::run`] would have produced it.
    pub items: Vec<Item>,
    /// End-to-end execution wall time (globals + body), microseconds.
    pub wall_us: u64,
    /// The rendered per-operator plan (one line per node).
    pub plan: String,
}

impl std::fmt::Display for ProfileReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "EXPLAIN ANALYZE — {} item{} in {}",
            self.items.len(),
            if self.items.len() == 1 { "" } else { "s" },
            crate::runtime::profile::fmt_ns(self.wall_us.saturating_mul(1_000)),
        )?;
        write!(f, "{}", self.plan)
    }
}

/// A compiled, executable query.
pub struct PreparedQuery {
    engine: Arc<EngineCtx>,
    program: CompiledProgram,
}

impl PreparedQuery {
    /// Builds the root dynamic context, evaluating prolog globals in
    /// declaration order (later globals may use earlier ones).
    fn root_ctx(&self) -> Result<DynamicContext> {
        let mut ctx = DynamicContext::root(Arc::clone(&self.engine));
        for (name, init) in &self.program.globals {
            let value = init.materialize(&ctx)?;
            ctx = ctx.bind(Arc::clone(name), seq(value));
        }
        Ok(ctx)
    }

    /// Whether the result is produced as an RDD (fully parallel pipeline):
    /// the mode decided when the query was compiled. Nothing is evaluated,
    /// the prolog's globals included.
    pub fn is_distributed(&self) -> Result<bool> {
        Ok(self.program.body.is_parallel())
    }

    /// Runs and materializes the whole result sequence on the driver.
    pub fn collect(&self) -> Result<Vec<Item>> {
        let ctx = self.root_ctx()?;
        self.program.body.materialize(&ctx)
    }

    /// Runs and keeps at most `n` items.
    pub fn take(&self, n: usize) -> Result<Vec<Item>> {
        let ctx = self.root_ctx()?;
        // Top-K goes first: the RDD of an `order by` FLWOR is the full
        // range sort, several jobs where the top-K takes one.
        if let Some(items) = self.program.body.take_ordered(&ctx, n)? {
            return Ok(items);
        }
        if self.program.body.is_rdd(&ctx) {
            return Ok(self.program.body.rdd(&ctx)?.take(n)?);
        }
        let mut out = Vec::with_capacity(n.min(1024));
        let mut cursor = self.program.body.open(&ctx)?;
        while out.len() < n {
            match cursor.next() {
                None => break,
                Some(r) => out.push(r?),
            }
        }
        Ok(out)
    }

    /// Counts result items without materializing them on the driver.
    pub fn count(&self) -> Result<u64> {
        let ctx = self.root_ctx()?;
        self.program.body.count(&ctx)
    }

    /// Writes the result as JSON Lines. Distributed pipelines write in
    /// parallel, in one job, one output block per partition, without
    /// materializing on the driver (§5.4: "Rumble can directly write the
    /// results back to HDFS … in parallel"). Returns the number of items
    /// written.
    pub fn write_json_lines(&self, path: &str) -> Result<u64> {
        let ctx = self.root_ctx()?;
        if self.program.body.is_rdd(&ctx) {
            let rdd = self.program.body.rdd(&ctx)?;
            return Ok(rdd.map(|item| item.serialize()).save_as_text_file(path)?);
        }
        let items = self.program.body.materialize(&ctx)?;
        let mut text = String::new();
        for i in &items {
            text.push_str(&i.serialize());
            text.push('\n');
        }
        let (scheme, key) = sparklite::storage::resolve_scheme(path);
        match scheme {
            sparklite::storage::PathScheme::SimHdfs => {
                self.engine.sc.hdfs().put_text(key, &text)?;
            }
            sparklite::storage::PathScheme::LocalFs => {
                std::fs::write(key, text).map_err(sparklite::SparkliteError::from)?;
            }
        }
        Ok(items.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_queries() {
        let r = Rumble::default_local();
        assert_eq!(r.run("1 + 2 * 3").unwrap(), vec![Item::Integer(7)]);
        assert_eq!(r.run("\"a\" || \"b\"").unwrap(), vec![Item::str("ab")]);
        assert_eq!(r.run("(1 to 4)[$$ mod 2 eq 0]").unwrap().len(), 2);
    }

    #[test]
    fn globals_bind_in_order() {
        let r = Rumble::default_local();
        let out =
            r.run("declare variable $a := 2; declare variable $b := $a * 10; $b + $a").unwrap();
        assert_eq!(out, vec![Item::Integer(22)]);
    }

    #[test]
    fn analyze_reports_without_executing() {
        // A syntax error becomes one XPST0003 diagnostic.
        let ds = analyze("1 +");
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code, "XPST0003");
        // Semantic problems come back together, warnings included.
        let ds = analyze("let $unused := 1 return $nope");
        let codes: Vec<&str> = ds.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"XPST0008"), "got {codes:?}");
        assert!(codes.contains(&"RBLW0001"), "got {codes:?}");
        // Clean queries produce nothing.
        assert!(analyze("1 + 1").is_empty());
    }

    #[test]
    fn explain_analyze_annotates_the_plan() {
        let r = Rumble::default_local();
        let lines: String = (0..60)
            .map(|i| {
                format!("{{\"guess_language\": \"l{}\", \"country\": \"c{}\"}}\n", i % 5, i % 3)
            })
            .collect();
        r.hdfs_put("/prof.json", &lines).unwrap();
        let q = "for $e in json-file(\"hdfs:///prof.json\")
                 where $e.guess_language eq \"l1\"
                 return $e.country";
        let report = r.analyze_profile(q).unwrap();
        // Profiling must not change the result.
        assert_eq!(report.items, r.run(q).unwrap());
        // The Fig. 11 filter shape runs as a fused RDD scan; the plan shows
        // per-operator mode, rows and time.
        assert!(report.plan.contains("mode=rdd (fused)"), "plan:\n{}", report.plan);
        assert!(report.plan.contains("FunctionCall(json-file#1)"), "plan:\n{}", report.plan);
        assert!(report.plan.contains("rows=60"), "plan:\n{}", report.plan);
        assert!(report.plan.contains("time="), "plan:\n{}", report.plan);
        // The comparison runs compiled inside the fused filter; its literal
        // operand is folded into the closure, never runs, and the plan says
        // so.
        assert!(report.plan.contains("[not executed]"), "plan:\n{}", report.plan);
        assert!(report.to_string().starts_with("EXPLAIN ANALYZE"), "{report}");

        // A group-by FLWOR goes through the DataFrame mapping and says so.
        let grouped = r
            .analyze_profile(
                "for $e in json-file(\"hdfs:///prof.json\")
                 group by $c := $e.country
                 return $c",
            )
            .unwrap();
        assert_eq!(grouped.items.len(), 3);
        assert!(grouped.plan.contains("mode=dataframe"), "plan:\n{}", grouped.plan);

        // Purely local pipelines profile too.
        let local = r.analyze_profile("sum(for $i in 1 to 50 return $i)").unwrap();
        assert_eq!(local.items, vec![Item::Integer(1275)]);
        assert!(local.plan.contains("mode=local"), "plan:\n{}", local.plan);
        assert!(local.plan.contains("rows=50"), "plan:\n{}", local.plan);
    }

    #[test]
    fn explain_analyze_reports_fused_dataframe_pipelines() {
        let r = Rumble::default_local();
        let lines: String =
            (0..40).map(|i| format!("{{\"country\": \"c{}\", \"pop\": {}}}\n", i % 4, i)).collect();
        r.hdfs_put("/fused.json", &lines).unwrap();
        // A positional `for` cannot take the fused-RDD shortcut, so this
        // runs through the DataFrame mapping. Its `let` projection and
        // `where` filter are UDFs, which run on rows, so no columnar
        // segment fuses — and the profile says so.
        let q = "for $e at $p in json-file(\"hdfs:///fused.json\")
                 let $c := $e.country
                 where $c eq \"c1\"
                 return $c";
        let report = r.analyze_profile(q).unwrap();
        assert_eq!(report.items.len(), 10);
        assert_eq!(report.items, r.run(q).unwrap());
        assert!(report.plan.contains("mode=dataframe"), "plan:\n{}", report.plan);
        assert!(!report.plan.contains("mode=dataframe (fused)"), "plan:\n{}", report.plan);

        // Row-major execution: same query, same answer, same mode.
        let row_major = Rumble::with_conf(SparkliteConf::default().with_row_major(true));
        row_major.hdfs_put("/fused.json", &lines).unwrap();
        let plain = row_major.analyze_profile(q).unwrap();
        assert_eq!(plain.items, report.items);
        assert!(plain.plan.contains("mode=dataframe"), "plan:\n{}", plain.plan);
        assert!(!plain.plan.contains("mode=dataframe (fused)"), "plan:\n{}", plain.plan);

        // A typed chain of built-in operators on the same engine still
        // fuses: a projection and a filter run as one batch pass.
        use sparklite::dataframe::{CmpOp, DataFrame, DataType, Expr, Field, NumOp, Schema, Value};
        let schema = Schema::new(vec![Field::new("a", DataType::I64)]);
        let rows = (0..40).map(|i| vec![Value::I64(i)]).collect();
        let typed = DataFrame::from_rows(r.sparklite(), schema, rows, 2)
            .unwrap()
            .with_column("b", Expr::num(Expr::col("a"), NumOp::Mul, Expr::col("a")), DataType::I64)
            .unwrap()
            .filter(Expr::cmp(Expr::col("b"), CmpOp::Gt, Expr::lit(Value::I64(100))))
            .unwrap();
        assert!(typed.fused_pipeline());
        assert_eq!(typed.count().unwrap(), 29);
    }

    #[test]
    fn explain_analyze_reports_top_k_for_a_take_over_order_by() {
        let r = Rumble::default_local();
        let lines: String =
            (0..40).map(|i| format!("{{\"k\": {}, \"i\": {i}}}\n", i % 7)).collect();
        r.hdfs_put("/topk.json", &lines).unwrap();
        let q = "for $e in json-file(\"hdfs:///topk.json\") order by $e.k descending return $e.i";
        let report = r.analyze_profile_take(q, 5).unwrap();
        assert_eq!(report.items, r.run(q).unwrap()[..5]);
        assert!(report.plan.contains("mode=dataframe (top-k)"), "plan:\n{}", report.plan);
        // A collect sorts in full.
        let full = r.analyze_profile(q).unwrap();
        assert!(!full.plan.contains("top-k"), "plan:\n{}", full.plan);

        // A return that yields nothing for the top rows falls back to the
        // full sort, which finds the items past the cut.
        let sparse = "for $e in json-file(\"hdfs:///topk.json\")
                      order by $e.k descending
                      return if ($e.k eq 0) then $e.i else ()";
        let report = r.analyze_profile_take(sparse, 3).unwrap();
        assert_eq!(report.items, r.run(sparse).unwrap()[..3]);
        assert!(!report.plan.contains("top-k"), "plan:\n{}", report.plan);
    }

    /// The `rows=` figure of the root's first child whose label starts
    /// with `label`.
    fn rows_of(plan: &str, label: &str) -> u64 {
        let line = plan
            .lines()
            .find(|l| {
                ["├─ ", "└─ "]
                    .iter()
                    .any(|b| l.strip_prefix(b).is_some_and(|l| l.starts_with(label)))
            })
            .unwrap_or_else(|| panic!("no {label} node in plan:\n{plan}"));
        let rows = line.split("rows=").nth(1).unwrap_or_else(|| panic!("no rows in {line}"));
        rows.split(' ').next().unwrap().parse().unwrap()
    }

    #[test]
    fn explain_analyze_counts_dataframe_predicate_and_key_evaluations() {
        // One row per evaluation for the nodes DataFrame UDFs run per row:
        // a compiled `where`, a `where` evaluated through a bound context
        // (`string-length` has no compiled form), and a compiled group key.
        let r = Rumble::default_local();
        let n = 2_000;
        let lines: String = (0..n)
            .map(|i| {
                format!(
                    "{{\"guess\": \"l{}\", \"target\": \"l{}\", \"country\": \"{}\"}}\n",
                    i % 3,
                    i % 2,
                    ["ch", "fra", "gb", "ita"][i % 4]
                )
            })
            .collect();
        r.hdfs_put("/prof2k.json", &lines).unwrap();
        let q = "for $i in json-file(\"hdfs:///prof2k.json\")
                 where $i.guess eq $i.target
                 where string-length($i.country) gt 2
                 group by $c := $i.country
                 return {\"c\": $c, \"n\": count($i)}";
        let report = r.analyze_profile(q).unwrap();
        assert_eq!(report.items, r.run(q).unwrap());
        assert!(report.plan.contains("mode=dataframe"), "plan:\n{}", report.plan);

        // The compilable `where` sees every row, the second `where` only
        // the rows the first kept, and the group key only the rows both
        // kept ("fra" and "ita" are the long countries).
        let same = (0..n).filter(|i| i % 3 == i % 2).count() as u64;
        let long = (0..n).filter(|i| i % 3 == i % 2 && i % 2 == 1).count() as u64;
        let plan = &report.plan;
        assert_eq!(rows_of(plan, "Compare(ValueEq)"), n as u64, "plan:\n{plan}");
        assert_eq!(rows_of(plan, "Compare(ValueGt)"), same, "plan:\n{plan}");
        assert_eq!(rows_of(plan, "Postfix(.country)"), long, "plan:\n{plan}");
        let counted: i64 = report
            .items
            .iter()
            .map(|g| g.as_object().unwrap().get("n").unwrap().as_i64().unwrap())
            .sum();
        assert_eq!(counted as u64, long);
    }

    #[test]
    fn explain_analyze_counts_compiled_row_expression_evaluations() {
        // A cleaning `let`, a `where` and a constructor `return`, compiled
        // to closures: profiling wraps each compiled node, so the result is
        // the unprofiled one and each node counts one row per evaluation.
        let r = Rumble::default_local();
        let n = 1_000;
        let lines: String = (0..n)
            .map(|i| match i % 4 {
                0 => format!("{{\"id\": {i}}}\n"),
                1 => format!("{{\"id\": \"{i}\"}}\n"),
                2 => "{\"id\": null}\n".to_string(),
                _ => format!("{{\"id\": {i}, \"tags\": [\"a\", \"b\"]}}\n"),
            })
            .collect();
        r.hdfs_put("/messy-prof.json", &lines).unwrap();
        let q = "for $r in json-file(\"hdfs:///messy-prof.json\")
                 let $id := if ($r.id instance of integer) then $r.id
                            else if ($r.id instance of string) then ($r.id cast as integer)
                            else ()
                 where exists($id)
                 return {\"id\": $id, \"tags\": count($r.tags[])}";
        let report = r.analyze_profile(q).unwrap();
        assert_eq!(report.items, r.run(q).unwrap());
        // The messy scan's shape, `for` then `let`s and `where`s: a fused
        // scan, one pass per item with no tuple frame.
        assert!(report.plan.contains("mode=rdd (fused)"), "plan:\n{}", report.plan);
        let plan = &report.plan;
        // The null ids drop out at the `where`.
        let kept = (0..n).filter(|i| i % 4 != 2).count() as u64;
        assert_eq!(report.items.len() as u64, kept);
        assert_eq!(rows_of(plan, "If"), n as u64, "plan:\n{plan}");
        assert_eq!(rows_of(plan, "FunctionCall(exists#1)"), n as u64, "plan:\n{plan}");
        assert_eq!(rows_of(plan, "ObjectConstructor(2)"), kept, "plan:\n{plan}");
    }

    #[test]
    fn prepared_queries_are_reusable() {
        let r = Rumble::default_local();
        let q = r.compile("sum(1 to 10)").unwrap();
        assert_eq!(q.collect().unwrap(), vec![Item::Integer(55)]);
        assert_eq!(q.collect().unwrap(), vec![Item::Integer(55)]);
        assert_eq!(q.count().unwrap(), 1);
    }
}
