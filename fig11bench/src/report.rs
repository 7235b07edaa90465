//! The lines the benchmark prints, and the end-to-end metrics.

use crate::mix::MixResult;
use crate::stats;
use crate::workload::Kind;
use std::fmt::Write;

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// The end-to-end metrics every workload reports, `(name, unit)`, in
/// output order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("scan_ms", "ms"),
    ("group_ms", "ms"),
    ("sort_ms", "ms"),
    ("mobj_per_s", "Mobj/s"),
    ("cpu_s_per_mobj", "s/Mobj"),
    ("peak_rss_mb", "MB"),
];

/// Pairs values given in the order of `names` with their names and units.
pub fn named<const N: usize>(
    names: &[(&'static str, &'static str); N],
    values: [f64; N],
) -> Vec<Metric> {
    names.iter().zip(values).map(|(&(name, unit), v)| (name, v, unit)).collect()
}

fn median_ms(m: &MixResult, k: Kind) -> f64 {
    stats::median(&m.samples_ms[k.index()]).unwrap_or(0.0)
}

/// The end-to-end metrics of an untraced mix over `objects` input objects
/// per query.
pub fn end_to_end(m: &MixResult, setup_s: f64, peak_rss_mb: f64, objects: usize) -> Vec<Metric> {
    let mobj = m.attempted() as f64 * objects as f64 / 1e6;
    named(
        &END_TO_END,
        [
            setup_s,
            median_ms(m, Kind::Scan),
            median_ms(m, Kind::Group),
            median_ms(m, Kind::Sort),
            mobj / m.wall_s(),
            m.cpu().cpu_s() / mobj,
            peak_rss_mb,
        ],
    )
}

/// One line describing a timing's samples: count, median, quartiles, a
/// tail percentile only where at least ten samples lie beyond it, and the
/// samples themselves in the order they were taken.
pub fn timing_line(name: &str, samples: &[f64]) -> String {
    let q = stats::quartiles(samples)
        .map_or("null".into(), |q| format!("[{}, {}, {}]", q[0], q[1], q[2]));
    let tail =
        stats::tail(samples).map_or("null".into(), |(p, v)| format!("{{\"p\": {p}, \"ms\": {v}}}"));
    let all: Vec<String> = samples.iter().map(|v| format!("{v:.3}")).collect();
    format!(
        "{{\"timing\": \"{name}\", \"samples\": {}, \"median_ms\": {}, \"quartiles_ms\": {q}, \
         \"tail\": {tail}, \"samples_ms\": [{}]}}",
        samples.len(),
        stats::median(samples).unwrap_or(0.0),
        all.join(", ")
    )
}

/// The result line: `correct`, `attempted`, `failed` and every metric with
/// its unit. A non-finite value (a bug) prints as 0 to keep the line JSON.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut m = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let v = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        write!(m, "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            .expect("writing to a String cannot fail");
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{m}}}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object_with_the_four_keys() {
        let line = result_line(true, 12, 1, &[("a_ms", 1.25, "ms"), ("b", f64::NAN, "count")]);
        let v = jsonlite::parse_value(&line).unwrap();
        let jsonlite::Value::Object(fields) = &v else { panic!("not an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("attempted").unwrap().as_i64(), Some(12));
        let a = v.get("metrics").unwrap().get("a_ms").unwrap();
        assert_eq!(a.get("value").unwrap().as_f64(), Some(1.25));
        assert_eq!(a.get("unit").unwrap().as_str(), Some("ms"));
        let b = v.get("metrics").unwrap().get("b").unwrap();
        assert_eq!(b.get("value").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn timing_line_omits_an_unsupported_tail() {
        let few = timing_line("scan_ms", &[1.0, 2.0, 3.0]);
        let v = jsonlite::parse_value(&few).unwrap();
        assert!(v.get("tail").unwrap().is_null());
        assert_eq!(v.get("samples").unwrap().as_i64(), Some(3));
        let many: Vec<f64> = (1..=100).map(f64::from).collect();
        let v = jsonlite::parse_value(&timing_line("scan_ms", &many)).unwrap();
        assert_eq!(v.get("tail").unwrap().get("p").unwrap().as_f64(), Some(90.0));
    }
}
