//! Every query of every workload runs clean at a small input size, the two
//! known traps are handled, and the traced run yields every layer metric.

use fig11bench::mix::{self, Arm};
use fig11bench::trace::{self, Recorder, TracedInputs};
use fig11bench::workload::{self, Expected, Kind, Workload, KINDS, WORKLOADS};
use rumble_core::Rumble;

const OBJECTS: usize = 2_000;
const SEED: u64 = 7;

fn set_up(w: Workload, conf: sparklite::SparkliteConf, text: &str) -> (Arm, Expected) {
    let (arm, setup_s, first) = mix::set_up(conf, w, text).expect("set-up succeeds");
    assert!(setup_s > 0.0);
    let expected = Expected::compute(w, &arm.sc, text).expect("answers compute");
    if let Some(out) = first {
        expected.check(w, Kind::Scan, &out, &arm.sc).expect("the cache-filling query is right");
    }
    (arm, expected)
}

#[test]
fn every_query_of_every_workload_runs_clean() {
    for w in WORKLOADS {
        let text = w.generate(OBJECTS, SEED);
        let (arm, expected) = set_up(w, w.conf(2), &text);
        // Zero seconds still runs one full round; two rounds of the messy
        // scan prove its output path is cleared before each write.
        let m = mix::run_mix(w, &[&arm], &expected, 0.0, None).remove(0);
        assert_eq!(m.failed(), 0, "{}: {:?}", w.name(), m.errors);
        let scans = if w.fresh_engine_per_query() { 1 } else { mix::WARM_SCAN_BATCH };
        assert_eq!(m.attempted(), (scans + 2) as u64, "{}", w.name());
        for k in KINDS {
            assert_eq!(m.samples_ms[k.index()].len(), 1, "{} {}", w.name(), k.name());
        }
        let again = mix::run_mix(w, &[&arm], &expected, 0.0, None).remove(0);
        assert_eq!(again.failed(), 0, "{}: {:?}", w.name(), again.errors);
    }
}

#[test]
fn a_wrong_answer_counts_as_failed() {
    let w = Workload::Fig11Cold;
    let text = w.generate(OBJECTS, SEED);
    let (arm, _) = set_up(w, w.conf(2), &text);
    // Answers computed for other data must not match this input.
    let other = w.generate(OBJECTS, SEED + 1);
    let wrong = Expected::compute(w, &workload::make_context(w.conf(1), w, &other), &other)
        .expect("answers compute");
    let m = mix::run_mix(w, &[&arm], &wrong, 0.0, None).remove(0);
    assert_eq!(m.failed(), m.attempted());
}

#[test]
fn writing_to_an_existing_path_fails_so_the_mix_clears_it() {
    let w = Workload::Messy;
    let text = w.generate(OBJECTS, SEED);
    let sc = workload::make_context(w.conf(2), w, &text);
    let engine = Rumble::new(sc.clone());
    let q = engine.compile(&w.query(Kind::Scan)).unwrap();
    q.write_json_lines(workload::MESSY_OUT_PATH).unwrap();
    let err = q.write_json_lines(workload::MESSY_OUT_PATH).unwrap_err();
    assert!(err.to_string().contains("RBML0001"), "{err}");
    workload::clear_output(&sc);
    q.write_json_lines(workload::MESSY_OUT_PATH).unwrap();
}

#[test]
fn ordering_by_raw_mixed_ids_fails_so_the_sort_cleans_its_key() {
    let w = Workload::Messy;
    let text = w.generate(OBJECTS, SEED);
    let sc = workload::make_context(w.conf(2), w, &text);
    let engine = Rumble::new(sc);
    let raw = format!("for $r in json-file(\"{}\") order by $r.id return $r.id", w.input_path());
    let err = engine.run(&raw).unwrap_err();
    assert!(err.to_string().contains("XPTY0004"), "{err}");
    assert_eq!(engine.run_take(&w.query(Kind::Sort), 10).unwrap().len(), 10);
}

#[test]
fn traced_run_reports_every_layer_metric() {
    for w in WORKLOADS {
        let text = w.generate(OBJECTS, SEED);
        let (plain, expected) = set_up(w, w.conf(2), &text);
        let (traced, _) = set_up(w, trace::traced_conf(w, 2), &text);
        traced.sc.event_collector().unwrap().clear();
        let before = traced.sc.metrics();
        let mut recorder = Recorder::default();
        let mut mixes =
            mix::run_mix(w, &[&plain, &traced], &expected, 0.0, Some((1, &mut recorder)));
        let traced_mix = mixes.pop().unwrap();
        let untraced_mix = mixes.pop().unwrap();
        assert_eq!(traced_mix.failed() + untraced_mix.failed(), 0);
        let report = trace::layer_report(TracedInputs {
            workload: w,
            text: &text,
            traced: &traced,
            untraced_mix: &untraced_mix,
            traced_mix: &traced_mix,
            before,
            recorder,
        })
        .expect("the layer probes succeed");
        let names: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
        let declared: Vec<&str> = trace::PER_LAYER_METRICS.iter().map(|m| m.0).collect();
        assert_eq!(names, declared, "{}", w.name());
        let get = |n: &str| report.metrics.iter().find(|m| m.0 == n).unwrap().1;
        let hit = get("cache.hit_ratio");
        match w {
            Workload::Fig11Warm => assert_eq!(hit, 1.0),
            _ => assert_eq!(hit, 0.0, "{}", w.name()),
        }
        assert!(get("executor.tasks") > 0.0 && get("jsonlite.parse_ms_per_mb") > 0.0);
        assert!(report.spans_jsonl.lines().count() > 10);
        for layer in ["query", "compile", "execute", "job", "task", "jsonlite.parse"] {
            assert!(report.self_ms.iter().any(|(l, _)| *l == layer), "{} lacks {layer}", w.name());
        }
    }
}
