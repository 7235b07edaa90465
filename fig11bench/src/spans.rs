//! In-memory spans for the traced run, and self time per layer.
//!
//! Spans are recorded by the benchmark around its calls into each layer,
//! and derived from the program's scheduler `Timeline` for jobs, stages and
//! tasks. All times are microseconds on the context's event-bus clock.

use std::collections::BTreeMap;
use std::fmt::Write;

/// One span: a named interval on one layer, caused by `parent`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Spans of one query share its id (0 for spans outside any query).
    pub query: u64,
    pub parent: Option<usize>,
    pub layer: &'static str,
    pub name: String,
    pub start_us: u64,
    pub end_us: u64,
}

impl Span {
    pub fn dur_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// Total length of the union of `intervals`, each clipped to `[lo, hi)`.
pub fn union_len(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> =
        intervals.iter().map(|&(s, e)| (s.max(lo), e.min(hi))).filter(|(s, e)| s < e).collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// The spans recorded by one traced run.
#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
}

impl Trace {
    /// Records a span and returns its index, for use as a parent.
    pub fn push(
        &mut self,
        query: u64,
        parent: Option<usize>,
        layer: &'static str,
        name: impl Into<String>,
        start_us: u64,
        end_us: u64,
    ) -> usize {
        self.spans.push(Span { query, parent, layer, name: name.into(), start_us, end_us });
        self.spans.len() - 1
    }

    /// Each span's direct children, by index.
    fn children(&self) -> Vec<Vec<usize>> {
        let mut kids = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                kids[p].push(i);
            }
        }
        kids
    }

    /// The part of span `i`'s interval its children cover.
    pub fn covered_us(&self, i: usize) -> u64 {
        self.covered_by(i, &self.children()[i])
    }

    fn covered_by(&self, i: usize, kids: &[usize]) -> u64 {
        let s = &self.spans[i];
        let iv: Vec<(u64, u64)> =
            kids.iter().map(|&k| (self.spans[k].start_us, self.spans[k].end_us)).collect();
        union_len(&iv, s.start_us, s.end_us)
    }

    /// Each span's self time: its duration minus the union of its
    /// children's intervals.
    pub fn self_us(&self) -> Vec<u64> {
        let kids = self.children();
        (0..self.spans.len())
            .map(|i| self.spans[i].dur_us() - self.covered_by(i, &kids[i]))
            .collect()
    }

    /// Self time summed per layer.
    pub fn self_us_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, us) in self.spans.iter().zip(self.self_us()) {
            *out.entry(s.layer).or_insert(0) += us;
        }
        out
    }

    /// The spans as JSON Lines, one object per span.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let mut name = String::new();
            jsonlite::write_escaped_str(&mut name, &s.name);
            writeln!(
                out,
                "{{\"id\": {i}, \"query\": {}, \"parent\": {parent}, \"layer\": \"{}\", \
                 \"name\": {name}, \"start_us\": {}, \"end_us\": {}}}",
                s.query, s.layer, s.start_us, s.end_us
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(union_len(&[], 0, 100), 0);
        assert_eq!(union_len(&[(10, 20), (15, 30), (40, 50)], 0, 100), 30);
        assert_eq!(union_len(&[(0, 50), (10, 20)], 0, 100), 50);
        assert_eq!(union_len(&[(5, 15)], 10, 12), 2);
        assert_eq!(union_len(&[(20, 30)], 0, 10), 0);
        assert_eq!(union_len(&[(10, 20), (20, 25)], 0, 100), 15, "touching intervals join");
    }

    #[test]
    fn self_time_is_duration_minus_children_union() {
        let mut t = Trace::default();
        let q = t.push(1, None, "query", "q", 0, 100);
        let exec = t.push(1, Some(q), "execute", "execute", 10, 90);
        // Two overlapping parallel tasks and one spilling past the parent.
        t.push(1, Some(exec), "task", "t0", 20, 50);
        t.push(1, Some(exec), "task", "t1", 40, 60);
        t.push(1, Some(exec), "task", "t2", 80, 120);
        assert_eq!(t.self_us()[q], 20);
        assert_eq!(t.self_us()[exec], 80 - 40 - 10);
        let by_layer = t.self_us_by_layer();
        assert_eq!(by_layer["query"], 20);
        assert_eq!(by_layer["execute"], 30);
        assert_eq!(by_layer["task"], 30 + 20 + 40);
    }

    #[test]
    fn spans_serialize_one_per_line() {
        let mut t = Trace::default();
        let q = t.push(3, None, "query", "fig11 \"group\"", 1, 2);
        t.push(3, Some(q), "compile", "compile", 1, 2);
        let text = t.to_json_lines();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let v = jsonlite::parse_value(lines[1]).unwrap();
        assert_eq!(v.get("parent").and_then(|p| p.as_i64()), Some(0));
        let v = jsonlite::parse_value(lines[0]).unwrap();
        assert_eq!(v.get("name").and_then(|p| p.as_str()), Some("fig11 \"group\""));
    }
}
