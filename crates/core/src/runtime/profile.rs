//! `EXPLAIN ANALYZE` — per-iterator runtime profiling.
//!
//! A profiled compilation (see [`crate::compiler::compile_query_profiled`])
//! wraps every runtime iterator in a [`ProfiledIter`] that records, per plan
//! node: how many times it was opened, how many items it produced, a sampled
//! wall-time estimate, and which execution mode actually ran (local cursor,
//! RDD, fused RDD scan, columnar DataFrame, fused columnar DataFrame
//! pipeline, or a DataFrame top-K `take`). The [`ProfileRegistry`] collects one
//! [`NodeStats`] per node at compile time and renders the annotated plan
//! tree after execution.
//!
//! Overhead discipline: row counting is one relaxed atomic add per item, and
//! timing is *sampled* — every 8th `next()` call is timed and the elapsed
//! time scaled by the sampling factor — so profiled runs stay close to
//! unprofiled ones even for tight local cursors.

use crate::error::Result;
use crate::item::Item;
use crate::runtime::row::{RowFn, RowScope};
use crate::runtime::{DynamicContext, ExprIterator, ExprRef, ItemCursor};
use sparklite::rdd::Rdd;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Every 2^SAMPLE_SHIFT-th cursor step is timed; the measured duration is
/// scaled back up by the same factor.
const SAMPLE_SHIFT: u32 = 3;
const SAMPLE_MASK: u64 = (1 << SAMPLE_SHIFT) - 1;

// Execution-mode codes, ordered so that "more distributed" wins when a node
// is exercised through several APIs during one run (`fetch_max`).
const MODE_NONE: u8 = 0;
const MODE_LOCAL: u8 = 1;
const MODE_RDD: u8 = 2;
const MODE_RDD_FUSED: u8 = 3;
const MODE_DATAFRAME: u8 = 4;
const MODE_DATAFRAME_FUSED: u8 = 5;
const MODE_DATAFRAME_TOP_K: u8 = 6;

fn mode_code(name: &str) -> u8 {
    match name {
        "local" => MODE_LOCAL,
        "rdd" => MODE_RDD,
        "rdd (fused)" => MODE_RDD_FUSED,
        "dataframe" => MODE_DATAFRAME,
        "dataframe (fused)" => MODE_DATAFRAME_FUSED,
        "dataframe (top-k)" => MODE_DATAFRAME_TOP_K,
        _ => MODE_NONE,
    }
}

fn mode_name(code: u8) -> &'static str {
    match code {
        MODE_LOCAL => "local",
        MODE_RDD => "rdd",
        MODE_RDD_FUSED => "rdd (fused)",
        MODE_DATAFRAME => "dataframe",
        MODE_DATAFRAME_FUSED => "dataframe (fused)",
        MODE_DATAFRAME_TOP_K => "dataframe (top-k)",
        _ => "-",
    }
}

/// Accumulated counters for one plan node. All fields are relaxed atomics:
/// executor threads bump rows concurrently and exactness of interleaving is
/// irrelevant — totals are read once, after the run.
pub struct NodeStats {
    /// Operator label (AST shape), e.g. `Flwor(for where return)`.
    pub label: String,
    /// Registry index of the enclosing plan node, `None` for roots.
    pub parent: Option<usize>,
    opens: AtomicU64,
    rows: AtomicU64,
    sampled_ns: AtomicU64,
    mode: AtomicU8,
}

impl NodeStats {
    fn new(label: String, parent: Option<usize>) -> NodeStats {
        NodeStats {
            label,
            parent,
            opens: AtomicU64::new(0),
            rows: AtomicU64::new(0),
            sampled_ns: AtomicU64::new(0),
            mode: AtomicU8::new(MODE_NONE),
        }
    }

    pub fn opens(&self) -> u64 {
        self.opens.load(Ordering::Relaxed)
    }

    pub fn rows(&self) -> u64 {
        self.rows.load(Ordering::Relaxed)
    }

    /// Estimated time spent in this node, nanoseconds (sampled; includes
    /// time spent in children, like a flame graph).
    pub fn sampled_ns(&self) -> u64 {
        self.sampled_ns.load(Ordering::Relaxed)
    }

    /// The execution mode that ran, `"-"` if the node never executed (e.g.
    /// a constant operand folded into its parent's compiled closure).
    pub fn mode(&self) -> &'static str {
        mode_name(self.mode.load(Ordering::Relaxed))
    }

    fn note_open(&self) {
        self.opens.fetch_add(1, Ordering::Relaxed);
    }

    fn add_rows(&self, n: u64) {
        self.rows.fetch_add(n, Ordering::Relaxed);
    }

    fn add_ns(&self, n: u64) {
        self.sampled_ns.fetch_add(n, Ordering::Relaxed);
    }

    fn raise_mode(&self, name: &str) {
        self.mode.fetch_max(mode_code(name), Ordering::Relaxed);
    }

    /// Runs one evaluation of a compiled row expression: one row, timed, in
    /// the task that evaluates it.
    pub(crate) fn evaluation<R>(&self, f: impl FnOnce() -> R) -> R {
        self.add_rows(1);
        self.timed(f)
    }

    /// Runs `f`, adding its time (but no row) to this node.
    pub(crate) fn timed<R>(&self, f: impl FnOnce() -> R) -> R {
        self.raise_mode("local");
        let t0 = Instant::now();
        let out = f();
        self.add_ns(t0.elapsed().as_nanos() as u64);
        out
    }
}

/// One `NodeStats` per plan node, in registration (pre-)order: a node is
/// registered before its children, so a child's index is always greater
/// than its parent's and siblings appear in source order.
#[derive(Default)]
pub struct ProfileRegistry {
    nodes: parking_lot::Mutex<Vec<Arc<NodeStats>>>,
}

impl ProfileRegistry {
    pub fn new() -> ProfileRegistry {
        ProfileRegistry::default()
    }

    /// Registers a plan node; returns its index and stats handle.
    pub fn register(&self, label: String, parent: Option<usize>) -> (usize, Arc<NodeStats>) {
        let mut nodes = self.nodes.lock();
        let id = nodes.len();
        let stats = Arc::new(NodeStats::new(label, parent));
        nodes.push(Arc::clone(&stats));
        (id, stats)
    }

    /// A snapshot of every node's stats handle.
    pub fn nodes(&self) -> Vec<Arc<NodeStats>> {
        self.nodes.lock().clone()
    }

    /// Renders the annotated plan tree, one line per operator.
    pub fn render(&self) -> String {
        let nodes = self.nodes();
        // children[i] = indices of nodes whose parent is i, in plan order.
        let mut roots = Vec::new();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
        for (i, n) in nodes.iter().enumerate() {
            match n.parent {
                Some(p) => children[p].push(i),
                None => roots.push(i),
            }
        }
        let mut out = String::new();
        for (k, &r) in roots.iter().enumerate() {
            render_node(&nodes, &children, r, "", k + 1 == roots.len(), r == roots[0], &mut out);
        }
        out
    }
}

fn render_node(
    nodes: &[Arc<NodeStats>],
    children: &[Vec<usize>],
    idx: usize,
    prefix: &str,
    last: bool,
    root_first: bool,
    out: &mut String,
) {
    let n = &nodes[idx];
    let (branch, child_prefix) = if prefix.is_empty() && root_first {
        (String::new(), String::new())
    } else if last {
        (format!("{prefix}└─ "), format!("{prefix}   "))
    } else {
        (format!("{prefix}├─ "), format!("{prefix}│  "))
    };
    let metrics = if n.opens() == 0 && n.rows() == 0 {
        "[not executed]".to_string()
    } else {
        format!(
            "[mode={} rows={} time={} opens={}]",
            n.mode(),
            n.rows(),
            fmt_ns(n.sampled_ns()),
            n.opens(),
        )
    };
    out.push_str(&format!(
        "{branch}{label:<width$} {metrics}\n",
        label = n.label,
        width = {
            // Pad labels so the metrics column lines up within reason.
            40usize.saturating_sub(branch.len())
        }
    ));
    let kids = &children[idx];
    for (i, &c) in kids.iter().enumerate() {
        render_node(nodes, children, c, &child_prefix, i + 1 == kids.len(), false, out);
    }
}

/// Human-readable duration from nanoseconds.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// The profiling decorator: delegates every `ExprIterator` capability to the
/// wrapped node (so the execution mode, fused scans, constant folding and
/// row compilation behave exactly as in an unprofiled plan) while recording
/// opens, rows, sampled time and the execution mode into its [`NodeStats`].
pub struct ProfiledIter {
    pub inner: ExprRef,
    pub stats: Arc<NodeStats>,
}

impl ProfiledIter {
    /// Runs a cardinality-only consumer over the wrapped node: one open, in
    /// the mode the node runs in, timed. Its rows are what it counted.
    fn consumed<R>(
        &self,
        ctx: &DynamicContext,
        consume: impl FnOnce(&ExprRef) -> Result<R>,
    ) -> Result<R> {
        self.stats.note_open();
        let mode = match self.inner.is_rdd(ctx) {
            true => self.inner.mode_hint(ctx).unwrap_or("rdd"),
            false => "local",
        };
        self.stats.raise_mode(mode);
        let t0 = Instant::now();
        let out = consume(&self.inner);
        self.stats.add_ns(t0.elapsed().as_nanos() as u64);
        out
    }
}

impl ExprIterator for ProfiledIter {
    fn open(&self, ctx: &DynamicContext) -> Result<ItemCursor> {
        self.stats.note_open();
        self.stats.raise_mode("local");
        let t0 = Instant::now();
        let cursor = self.inner.open(ctx)?;
        self.stats.add_ns(t0.elapsed().as_nanos() as u64);
        Ok(Box::new(ProfiledCursor { inner: cursor, stats: Arc::clone(&self.stats), steps: 0 }))
    }

    fn is_parallel(&self) -> bool {
        self.inner.is_parallel()
    }

    fn rdd(&self, ctx: &DynamicContext) -> Result<Rdd<Item>> {
        self.stats.note_open();
        let mode = self.inner.mode_hint(ctx).unwrap_or("rdd");
        self.stats.raise_mode(mode);
        let t0 = Instant::now();
        let rdd = self.inner.rdd(ctx)?;
        self.stats.add_ns(t0.elapsed().as_nanos() as u64);
        // Row counting rides along in the executors: one extra narrow map
        // that bumps the shared counter per item.
        let stats = Arc::clone(&self.stats);
        Ok(rdd.map(move |item| {
            stats.add_rows(1);
            item
        }))
    }

    fn ebv(&self, ctx: &DynamicContext) -> Result<bool> {
        // One row per evaluation: a predicate yields one boolean, and the
        // DataFrame `where` UDF reaches it through here, never through a
        // cursor.
        self.stats.note_open();
        self.stats.raise_mode("local");
        self.stats.add_rows(1);
        let t0 = Instant::now();
        let out = self.inner.ebv(ctx);
        self.stats.add_ns(t0.elapsed().as_nanos() as u64);
        out
    }

    fn count(&self, ctx: &DynamicContext) -> Result<u64> {
        let n = self.consumed(ctx, |inner| inner.count(ctx))?;
        self.stats.add_rows(n);
        Ok(n)
    }

    fn exists(&self, ctx: &DynamicContext) -> Result<bool> {
        let any = self.consumed(ctx, |inner| inner.exists(ctx))?;
        self.stats.add_rows(any as u64);
        Ok(any)
    }

    fn const_item(&self) -> Option<Item> {
        self.inner.const_item()
    }

    fn compile_row(&self, scope: &mut RowScope) -> Option<RowFn> {
        // A compiled node runs inside a DataFrame UDF or a fused scan
        // filter, and no cursor ever opens on it: count each evaluation as
        // one row, timed, so the plan shows the program that runs. (A
        // constant its parent folds away never runs, and says so.)
        Some(self.inner.compile_row(scope)?.profiled(Arc::clone(&self.stats)))
    }

    fn take_ordered(&self, ctx: &DynamicContext, n: usize) -> Result<Option<Vec<Item>>> {
        let t0 = Instant::now();
        let items = self.inner.take_ordered(ctx, n)?;
        if let Some(items) = &items {
            self.stats.note_open();
            self.stats.raise_mode("dataframe (top-k)");
            self.stats.add_rows(items.len() as u64);
            self.stats.add_ns(t0.elapsed().as_nanos() as u64);
        }
        Ok(items)
    }

    fn mode_hint(&self, ctx: &DynamicContext) -> Option<&'static str> {
        self.inner.mode_hint(ctx)
    }
}

/// Counts rows and samples per-step time for a local cursor.
struct ProfiledCursor {
    inner: ItemCursor,
    stats: Arc<NodeStats>,
    steps: u64,
}

impl Iterator for ProfiledCursor {
    type Item = Result<Item>;

    fn next(&mut self) -> Option<Result<Item>> {
        self.steps += 1;
        let next = if self.steps & SAMPLE_MASK == 0 {
            let t0 = Instant::now();
            let next = self.inner.next();
            self.stats.add_ns((t0.elapsed().as_nanos() as u64) << SAMPLE_SHIFT);
            next
        } else {
            self.inner.next()
        };
        if matches!(next, Some(Ok(_))) {
            self.stats.add_rows(1);
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_codes_round_trip_and_order() {
        for m in
            ["local", "rdd", "rdd (fused)", "dataframe", "dataframe (fused)", "dataframe (top-k)"]
        {
            assert_eq!(mode_name(mode_code(m)), m);
        }
        assert!(mode_code("dataframe (fused)") > mode_code("dataframe"));
        assert!(mode_code("dataframe") > mode_code("rdd (fused)"));
        assert!(mode_code("rdd (fused)") > mode_code("rdd"));
        assert!(mode_code("rdd") > mode_code("local"));
        assert_eq!(mode_name(MODE_NONE), "-");
    }

    #[test]
    fn registry_renders_a_tree() {
        let reg = ProfileRegistry::new();
        let (root, root_stats) = reg.register("Flwor(for return)".into(), None);
        let (_, child_stats) = reg.register("FunctionCall(parallelize#1)".into(), Some(root));
        let (_, _leaf) = reg.register("Literal".into(), Some(root));
        root_stats.note_open();
        root_stats.raise_mode("rdd (fused)");
        root_stats.add_rows(5);
        child_stats.note_open();
        child_stats.raise_mode("rdd");
        child_stats.add_rows(10);
        let text = reg.render();
        assert!(text.contains("Flwor(for return)"), "got:\n{text}");
        assert!(text.contains("mode=rdd (fused)"), "got:\n{text}");
        assert!(text.contains("rows=10"), "got:\n{text}");
        assert!(text.contains("[not executed]"), "got:\n{text}");
        assert!(text.contains("├─") || text.contains("└─"), "got:\n{text}");
    }

    #[test]
    fn durations_format_by_magnitude() {
        assert_eq!(fmt_ns(12), "12ns");
        assert_eq!(fmt_ns(1_500), "1.5µs");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_200_000_000), "3.20s");
    }
}
