//! `BENCHMARK.json` at the repository root declares exactly the metrics,
//! units and workloads this benchmark prints.

use fig11bench::report::END_TO_END;
use fig11bench::trace::PER_LAYER_METRICS;
use fig11bench::workload::WORKLOADS;
use jsonlite::Value;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside this directory");
    jsonlite::parse_value(&text).expect("BENCHMARK.json is JSON")
}

fn declared(v: &Value, key: &str) -> Vec<(String, String)> {
    v.get(key)
        .and_then(Value::as_array)
        .expect("a metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Value::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
}

#[test]
fn metrics_match_what_the_benchmark_prints() {
    let b = benchmark_json();
    assert_eq!(declared(&b, "end_to_end"), owned(&END_TO_END));
    assert_eq!(declared(&b, "per_layer"), owned(&PER_LAYER_METRICS));
}

#[test]
fn workloads_match() {
    let b = benchmark_json();
    let names: Vec<&str> = b
        .get("workloads")
        .and_then(Value::as_array)
        .expect("a workload list")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("a name"))
        .collect();
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}
