//! `fig11bench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload's timed query mix and prints, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics of a separate traced run with `--trace 1`. Earlier lines give the
//! workload parameters and each timing's sample count and spread.

use fig11bench::mix::{self, Arm};
use fig11bench::procfs;
use fig11bench::report::{end_to_end, result_line, timing_line};
use fig11bench::stats;
use fig11bench::trace::{self, Recorder, TracedInputs};
use fig11bench::workload::{Expected, Kind, Workload, KINDS};
use sparklite::SparkliteConf;
use std::process::ExitCode;

/// Set-ups per run, `setup_s` being their median: at least
/// [`MIN_SETUPS`], and more while they have taken under
/// [`SETUP_BUDGET_S`] (a cold set-up takes milliseconds, so a median of
/// fifteen would be noise), up to [`MAX_SETUPS`].
const MIN_SETUPS: usize = 15;
const MAX_SETUPS: usize = 200;
const SETUP_BUDGET_S: f64 = 3.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    objects: usize,
    executors: usize,
}

const USAGE: &str = "usage: fig11bench --workload fig11-cold|fig11-warm|messy --seed N \
                     --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut kv = std::collections::HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let v = it.next().ok_or(format!("{k} needs a value"))?;
        kv.insert(k, v);
    }
    let mut take = |k: &str| kv.remove(k);
    let num = |k: &str, v: Option<String>| -> Result<Option<u64>, String> {
        v.map(|s| s.parse::<u64>().map_err(|_| format!("{k} must be a whole number"))).transpose()
    };
    let name = take("--workload").ok_or("--workload is required")?;
    let workload = Workload::parse(&name).ok_or(format!("unknown workload {name}"))?;
    let seed = num("--seed", take("--seed"))?.ok_or("--seed is required")?;
    let seconds = num("--seconds", take("--seconds"))?.ok_or("--seconds is required")?;
    let trace = match take("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("--trace must be 0 or 1, not {v}")),
    };
    if let Some(k) = kv.keys().next() {
        return Err(format!("unknown argument {k}"));
    }
    // One executor per core, at most two: more would put the OS scheduler
    // into the numbers.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (objects, executors) = (workload.objects(), cores.min(2));
    Ok(Args { workload, seed, seconds: seconds as f64, trace, objects, executors })
}

/// The first set-up of a run, with the answers computed and the
/// cache-filling query of `fig11-warm` checked.
fn set_up(args: &Args, conf: &SparkliteConf, text: &str) -> Result<(Arm, f64, Expected), String> {
    let (arm, secs, first) = mix::set_up(conf.clone(), args.workload, text)?;
    let expected = Expected::compute(args.workload, &arm.sc, text)?;
    if let Some(out) = first {
        expected.check(args.workload, Kind::Scan, &out, &arm.sc)?;
    }
    Ok((arm, secs, expected))
}

/// The remaining set-ups of a run, made after the mix and its memory
/// reading so that no two set-ups' memory is ever alive at once. Each arm
/// is drained before it is dropped: otherwise an executor could hold the
/// last handle to its cache and free it while the next set-up runs, which
/// made `fig11-warm` set-ups bimodal (~250 or ~530 ms). Returns every
/// set-up time, `first` included.
fn more_set_ups(
    args: &Args,
    conf: &SparkliteConf,
    text: &str,
    first: f64,
) -> Result<Vec<f64>, String> {
    let mut times = vec![first];
    while times.len() < MAX_SETUPS
        && (times.len() < MIN_SETUPS || times.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        let (arm, secs, _) = mix::set_up(conf.clone(), args.workload, text)?;
        mix::drain_executors(&arm.sc);
        drop(arm);
        times.push(secs);
    }
    Ok(times)
}

fn run(args: &Args) -> Result<String, String> {
    let w = args.workload;
    // Inputs are generated before any clock starts.
    let text = w.generate(args.objects, args.seed);
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"objects\": {}, \"input_bytes\": {}, \
         \"executors\": {}, \"seconds\": {}, \"trace\": {}}}",
        w.name(),
        args.seed,
        args.objects,
        text.len(),
        args.executors,
        args.seconds,
        u8::from(args.trace)
    );
    let conf = w.conf(args.executors);
    if !args.trace {
        let (arm, first_setup_s, expected) = set_up(args, &conf, &text)?;
        let m = mix::run_mix(w, &[&arm], &expected, args.seconds, None).remove(0);
        let peak_rss_mb = procfs::peak_rss_mb();
        drop(arm);
        let setups = more_set_ups(args, &conf, &text, first_setup_s)?;
        let setup_s = stats::median(&setups).expect("at least one set-up");
        let metrics = end_to_end(&m, setup_s, peak_rss_mb, args.objects);
        for k in KINDS {
            println!("{}", timing_line(&format!("{}_ms", k.name()), &m.samples_ms[k.index()]));
        }
        println!(
            "{}",
            timing_line("setup_ms", &setups.iter().map(|s| s * 1e3).collect::<Vec<_>>())
        );
        for e in &m.errors {
            eprintln!("failed: {e}");
        }
        return Ok(result_line(m.failed() == 0, m.attempted(), m.failed(), &metrics));
    }

    // Traced run: an untraced and a traced arm alternate round by round,
    // so the tracing overhead is measured under the same conditions.
    let (plain, _, expected) = set_up(args, &conf, &text)?;
    let (traced, _, first) = mix::set_up(trace::traced_conf(w, args.executors), w, &text)?;
    if let Some(out) = first {
        expected.check(w, Kind::Scan, &out, &traced.sc)?;
    }
    traced.sc.event_collector().expect("event collection is on").clear();
    let before = traced.sc.metrics();
    let mut recorder = Recorder::default();
    let mut mixes =
        mix::run_mix(w, &[&plain, &traced], &expected, args.seconds, Some((1, &mut recorder)));
    let traced_mix = mixes.pop().expect("two arms");
    let untraced_mix = mixes.pop().expect("two arms");
    for (arm, m) in [("notrace", &untraced_mix), ("trace", &traced_mix)] {
        for k in KINDS {
            println!(
                "{}",
                timing_line(&format!("{arm}.{}_ms", k.name()), &m.samples_ms[k.index()])
            );
        }
        for e in &m.errors {
            eprintln!("failed ({arm}): {e}");
        }
    }
    let attempted = untraced_mix.attempted() + traced_mix.attempted();
    let failed = untraced_mix.failed() + traced_mix.failed();
    let report = trace::layer_report(TracedInputs {
        workload: w,
        text: &text,
        traced: &traced,
        untraced_mix: &untraced_mix,
        traced_mix: &traced_mix,
        before,
        recorder,
    })?;
    let self_ms: Vec<String> =
        report.self_ms.iter().map(|(l, ms)| format!("\"{l}\": {ms:.3}")).collect();
    println!("{{\"self_ms_by_layer\": {{{}}}}}", self_ms.join(", "));
    let dir = std::path::Path::new("fig11bench").join("out");
    let file = dir.join(format!("spans-{}-seed{}.jsonl", w.name(), args.seed));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&file, &report.spans_jsonl))
        .map_err(|e| format!("writing {}: {e}", file.display()))?;
    println!("{{\"spans_file\": \"{}\"}}", file.display());
    Ok(result_line(failed == 0, attempted, failed, &report.metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fig11bench: {e}");
            ExitCode::FAILURE
        }
    }
}
