//! An interactive JSONiq shell (§5.4: "Rumble is also available on a
//! shell … the output of each query is collected up to a configurable
//! maximum and printed").
//!
//! ```text
//! cargo run --release --example shell
//! rumble> for $x in parallelize(1 to 10) where $x mod 2 eq 0 return $x * $x
//! ```
//!
//! Before running a query the shell feeds it through the static analyzer
//! and prints every diagnostic — errors (which stop execution) and lint
//! warnings (which do not) — with their codes and source positions.
//!
//! Non-interactive modes:
//!
//! ```text
//! cargo run --example shell -- --lint query.jq     # analyze only; exit 1 on errors
//! cargo run --example shell -- --explain RBLW0004  # document a diagnostic code
//! cargo run --example shell -- --explain RBLO0002  # …or an optimizer rule
//! ```
//!
//! Optimizer bisection flags (before the interactive session starts):
//! `--no-opt` compiles raw plans with every rewrite disabled;
//! `--disable-rule=RBLO####` (repeatable) excludes one named rule. Use
//! them to pin a wrong-result or perf regression on a single rewrite.
//!
//! Distributed mode: `--executors N` spawns N executor worker *processes*
//! (this binary re-invoked with `--executor`) and routes shuffle blocks
//! through their TCP block services; queries return the same answers as
//! the default in-process threaded mode.
//!
//! Commands: `:load <path> <file>` copies a local file into the simulated
//! HDFS, `:explain CODE` documents a diagnostic code or optimizer rule,
//! `:rules` prints the rewrite-rule registry with per-rule fire counts for
//! this session (the optimizer's fire trace, fed by `OptimizerRuleFired`
//! events), `:profile <query>` runs the query under `EXPLAIN ANALYZE` (as
//! the bounded take the shell runs) and prints the annotated plan (per-operator execution mode, rows, sampled
//! time), `:metrics` prints the engine-wide scheduler counters,
//! `:timeline` prints the per-job breakdown table (tasks, busy time,
//! latency percentiles, skew) from the collected event timeline, `:top`
//! prints one activity lane per process — the driver plus every executor
//! worker that has forwarded events — and `:quit` exits. Everything else
//! is JSONiq.

use rumble_repro::rumble::semantics::{explain, Severity, CODE_DOCS};
use rumble_repro::rumble::{analyze, Rumble};
use rumble_repro::sparklite::dataframe::rules::REGISTRY;
use rumble_repro::sparklite::{Event, SparkliteConf};
use std::io::{BufRead, Write};

const MAX_PRINTED: usize = 50;

/// Prints one diagnostic in the `warning[RBLW0001] at 1:5: …` shape, with
/// its help line when present.
fn print_diagnostic(d: &rumble_repro::rumble::semantics::Diagnostic) {
    eprintln!("{d}");
    if let Some(help) = &d.help {
        eprintln!("  help: {help}");
    }
}

/// Analyzes the query, prints every diagnostic, and reports whether any of
/// them was an error (in which case execution should be skipped).
fn lint(query: &str) -> bool {
    let diagnostics = analyze(query);
    for d in &diagnostics {
        print_diagnostic(d);
    }
    diagnostics.iter().any(|d| d.severity == Severity::Error)
}

fn explain_code(code: &str) {
    let code = code.trim().to_uppercase();
    match explain(&code) {
        Some(doc) => println!("{code}: {doc}"),
        None => {
            eprintln!("unknown diagnostic code '{code}'; known codes:");
            for (c, _) in CODE_DOCS {
                eprintln!("  {c}");
            }
        }
    }
}

/// The `--executor` entry point: this process is an executor worker spawned
/// by a driver shell's `--executors N`; serve it and exit.
fn run_executor_mode(args: &[String]) -> ! {
    let mut connect = None;
    let mut worker_id = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--executor" => {}
            "--connect" => connect = it.next().cloned(),
            "--worker-id" => worker_id = it.next().and_then(|v| v.parse::<u64>().ok()),
            other => {
                eprintln!("unknown executor flag {other}");
                std::process::exit(2);
            }
        }
    }
    let (Some(connect), Some(worker)) = (connect, worker_id) else {
        eprintln!("usage: --executor --connect ADDR --worker-id N");
        std::process::exit(2);
    };
    let runtime = std::sync::Arc::new(rumble_repro::rumble::dist::JsoniqTaskRuntime);
    match rumble_repro::sparklite::dist::run_worker(&connect, worker, runtime) {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("executor worker {worker}: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--executor") {
        run_executor_mode(&args);
    }
    match args.first().map(String::as_str) {
        Some("--explain") => {
            match args.get(1) {
                Some(code) => explain_code(code),
                None => {
                    println!("usage: --explain CODE; known codes:");
                    for (c, doc) in CODE_DOCS {
                        let summary = doc.split(':').next().unwrap_or(doc);
                        println!("  {c}  {summary}");
                    }
                }
            }
            return;
        }
        Some("--lint") => {
            let Some(path) = args.get(1) else {
                eprintln!("usage: --lint <query-file>");
                std::process::exit(2);
            };
            let query = match std::fs::read_to_string(path) {
                Ok(q) => q,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    std::process::exit(2);
                }
            };
            let had_errors = lint(&query);
            std::process::exit(if had_errors { 1 } else { 0 });
        }
        _ => {}
    }

    // Remaining (interactive-mode) flags tune the optimizer for bisection.
    // Event collection is on so `:rules` can derive per-rule fire counts
    // from the OptimizerRuleFired stream.
    let mut conf = SparkliteConf::default().with_event_collection(true);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--no-opt" => conf = conf.with_optimizer(false),
            "--executors" => {
                let n = it
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|n| *n > 0)
                    .unwrap_or_else(|| {
                        eprintln!("--executors needs a positive worker count");
                        std::process::exit(2);
                    });
                conf = conf.with_dist_processes(n);
            }
            a if a.starts_with("--disable-rule=") => {
                let id = a["--disable-rule=".len()..].trim().to_uppercase();
                if rumble_repro::sparklite::dataframe::rules::rule_by_id(&id).is_none() {
                    eprintln!("unknown rewrite rule '{id}'; known rules:");
                    for rule in REGISTRY {
                        eprintln!("  {}  {}", rule.id(), rule.name());
                    }
                    std::process::exit(2);
                }
                conf = conf.with_rule_disabled(id);
            }
            other => {
                eprintln!(
                    "unknown option '{other}' (expected --lint, --explain, --no-opt, \
                     --executors N, or --disable-rule=RBLO####)"
                );
                std::process::exit(2);
            }
        }
    }

    // The shell runs as a single long-lived application, so executors are
    // set up once (§5.4).
    let rumble = Rumble::with_conf(conf);
    if let Some(cluster) = rumble.sparklite().cluster() {
        println!(
            "distributed mode: {} executor worker process(es) serving shuffle blocks over TCP",
            cluster.num_workers()
        );
    }
    let opt = &rumble.sparklite().conf().optimizer;
    if !opt.enabled {
        println!("optimizer disabled (--no-opt): queries compile their raw logical plans");
    } else if !opt.disabled_rules.is_empty() {
        let ids: Vec<&str> = opt.disabled_rules.iter().map(String::as_str).collect();
        println!("optimizer rules disabled: {}", ids.join(", "));
    }
    println!(
        "rumble-rs shell — {} executor cores; :quit to exit, :load <hdfs-path> <local-file> to stage data, :explain CODE to document a diagnostic, :rules for the rewrite-rule registry and fire counts, :profile <query> for EXPLAIN ANALYZE, :metrics for scheduler counters, :timeline for the per-job breakdown, :top for per-process activity lanes",
        rumble.sparklite().executors()
    );
    let stdin = std::io::stdin();
    loop {
        print!("rumble> ");
        std::io::stdout().flush().expect("stdout is writable");
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("input error: {e}");
                break;
            }
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == ":quit" || line == ":q" {
            break;
        }
        if let Some(code) = line.strip_prefix(":explain ") {
            explain_code(code);
            continue;
        }
        if line == ":metrics" {
            println!("{}", rumble.sparklite().metrics());
            continue;
        }
        if line == ":timeline" {
            // Per-job breakdown from the collected scheduler events; in
            // distributed mode this includes executor-forwarded streams.
            match rumble.sparklite().timeline() {
                Some(t) => print!("{}", t.render_job_table()),
                None => eprintln!("event collection is off"),
            }
            continue;
        }
        if line == ":top" {
            match rumble.sparklite().timeline() {
                Some(t) => print!("{}", t.render_top()),
                None => eprintln!("event collection is off"),
            }
            continue;
        }
        if line == ":rules" {
            // Per-rule fire counts for this session, derived from the
            // collected OptimizerRuleFired events (the optimizer's trace).
            let mut fires = std::collections::BTreeMap::<&str, u64>::new();
            if let Some(collector) = rumble.sparklite().event_collector() {
                for (_, ev) in collector.events() {
                    if let Event::OptimizerRuleFired { rule, .. } = ev {
                        *fires.entry(rule).or_insert(0) += 1;
                    }
                }
            }
            let opt = &rumble.sparklite().conf().optimizer;
            for rule in REGISTRY {
                let status = if !opt.enabled || opt.disabled_rules.contains(rule.id()) {
                    "off"
                } else {
                    "on "
                };
                println!(
                    "{} [{status}] {:<26} fires={:<5} preserves {}",
                    rule.id(),
                    rule.name(),
                    fires.get(rule.id()).copied().unwrap_or(0),
                    rule.preserves().describe(),
                );
                println!("          {}", rule.description());
            }
            continue;
        }
        if let Some(query) = line.strip_prefix(":profile ") {
            if lint(query) {
                continue;
            }
            // Profile the query as the shell runs it: a bounded take.
            match rumble.analyze_profile_take(query, MAX_PRINTED + 1) {
                Ok(report) => print!("{report}"),
                Err(e) => eprintln!("{e}"),
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix(":load ") {
            let mut parts = rest.split_whitespace();
            match (parts.next(), parts.next()) {
                (Some(hdfs), Some(local)) => match std::fs::read_to_string(local) {
                    Ok(text) => {
                        let key = hdfs.strip_prefix("hdfs://").unwrap_or(hdfs);
                        rumble.sparklite().hdfs().delete(key);
                        match rumble.hdfs_put(key, &text) {
                            Ok(()) => println!("loaded {local} -> hdfs://{key}"),
                            Err(e) => eprintln!("load failed: {e}"),
                        }
                    }
                    Err(e) => eprintln!("cannot read {local}: {e}"),
                },
                _ => eprintln!("usage: :load <hdfs-path> <local-file>"),
            }
            continue;
        }
        // Static analysis first: print every finding; errors stop the query
        // before execution, warnings are advisory.
        if lint(line) {
            continue;
        }
        let started = std::time::Instant::now();
        match rumble.run_take(line, MAX_PRINTED + 1) {
            Ok(items) => {
                let truncated = items.len() > MAX_PRINTED;
                for item in items.iter().take(MAX_PRINTED) {
                    println!("{item}");
                }
                if truncated {
                    println!("… (output capped at {MAX_PRINTED} items)");
                }
                println!("-- {:.2?}", started.elapsed());
            }
            Err(e) => eprintln!("{e}"),
        }
    }
}
