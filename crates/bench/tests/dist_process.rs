//! Process-mode executor tests: real OS worker processes (the harness
//! binary re-invoked with `--executor`), a real TCP control plane, and a
//! real `SIGKILL` in the recovery test. Thread-mode coverage lives in
//! `sparklite/tests/dist.rs`; these tests prove the same paths hold across
//! actual process boundaries.

use rumble_bench::figures;
use rumble_core::item::decode_items;
use rumble_core::Rumble;
use sparklite::{SparkliteConf, SparkliteContext};
use std::time::Duration;

/// The worker command every test hands the cluster: the harness binary in
/// executor mode. The test executable itself has no `--executor` entry
/// point, so the default "re-invoke current_exe" spawn path cannot be used
/// here.
fn worker_cmd() -> Vec<String> {
    vec![env!("CARGO_BIN_EXE_harness").to_string(), "--executor".to_string()]
}

#[test]
fn process_workers_match_local_results() {
    // The Fig. 11 queries against 2 separate worker processes must return
    // results byte-identical to the local threaded engine; the figure
    // asserts identity, block traffic, and timeline reconciliation.
    let r = figures::dist(2_000, &[2], 1, Some(worker_cmd()));
    assert_eq!(r.rows.len(), 2);
    assert!(r.report.contains("2 process worker(s)"));
    assert!(r.metrics.iter().any(|(k, v)| k.ends_with(".heartbeats") && *v > 0));

    // Messy records through the clauses that carry variable cells: the
    // group by ships its collected cells, the order by its rows, as bytes
    // between the worker processes. Items must match the threaded engine.
    let text = rumble_datagen::heterogeneous::generate(2_000, 7);
    let queries = [
        r#"for $r in json-file("hdfs:///messy.json")
           let $v := $r.value
           group by $k := $r.nested.k
           return [$k, count($r), sum(for $x in $v where $x instance of integer return $x)]"#,
        r#"for $r at $p in json-file("hdfs:///messy.json")
           where $r.value instance of integer
           order by $r.value descending, $p
           return [$p, $r.value, $r.tags]"#,
    ];
    let run = |conf: SparkliteConf| {
        let sc = SparkliteContext::new(conf.with_executors(2).with_block_size(64 * 1024));
        let engine = Rumble::new(sc.clone());
        engine.hdfs_put("/messy.json", &text).unwrap();
        let outputs: Vec<Vec<String>> = queries
            .iter()
            .map(|q| {
                let mut items: Vec<String> =
                    engine.run(q).unwrap().iter().map(|i| i.serialize()).collect();
                if q.contains("group by") {
                    items.sort(); // group order is unspecified
                }
                items
            })
            .collect();
        // The order by's top-K take, whose one job runs next to the
        // worker processes, equals its full sort cut short.
        for n in [1, 10] {
            let top: Vec<String> =
                engine.run_take(queries[1], n).unwrap().iter().map(|i| i.serialize()).collect();
            assert_eq!(top, outputs[1][..n], "top-{n} take diverged from the full sort");
        }
        (outputs, sc)
    };
    let (expected, _) = run(SparkliteConf::default());
    let (got, sc) = run(SparkliteConf::default().with_dist_workers(2, worker_cmd()));
    assert_eq!(got, expected, "process workers changed a messy-data answer");
    assert!(sc.metrics().blocks_pushed > 0, "no shuffle block crossed a process boundary");
    sc.shutdown_cluster();
}

#[test]
fn killed_process_worker_recovers_through_lineage() {
    // 1 of 2 worker processes is SIGKILLed right after its first map
    // outputs arrive; the figure asserts the answers stay identical and
    // that lost blocks were recomputed through lineage.
    let r = figures::chaos_kill_executor(2_000, 1, Some(worker_cmd()));
    assert!(r.metrics.iter().any(|(k, v)| k == "executors_lost" && *v >= 1));
    assert!(r.metrics.iter().any(|(k, v)| k == "recomputed_tasks" && *v >= 1));
}

#[test]
fn parse_json_tasks_run_inside_worker_processes() {
    // Dispatch a `parse-json` task to a worker process and fetch the items
    // back through the block service: the JSONiq task runtime is compiled
    // into the harness binary, not shipped over the wire.
    let sc = SparkliteContext::new(
        SparkliteConf::default().with_executors(2).with_dist_workers(1, worker_cmd()),
    );
    let cluster = sc.cluster().expect("distributed mode on");
    let payload = b"{\"lang\":\"en\"}\n{\"lang\":\"fr\"}\n{\"lang\":\"de\"}\n".to_vec();
    let (blocks, bytes) =
        cluster.dispatch(0, "parse-json", 99, 0, payload).expect("worker runs the parse-json task");
    assert_eq!(blocks, 1, "parse-json returns one block");
    assert!(bytes > 0);
    let block = cluster.fetch(99, 0, 0).expect("block service serves the output");
    let items = decode_items(&block).expect("block is an item-codec sequence");
    assert_eq!(items.len(), 3);
    cluster.drop_shuffle(99);
    assert!(
        matches!(cluster.fetch(99, 0, 0), Err(sparklite::dist::FetchError::Lost)),
        "dropped shuffle still served"
    );
}

#[test]
fn worker_process_death_is_detected_without_traffic() {
    // Kill the only worker while the cluster is idle: the supervisor's EOF
    // (or the heartbeat deadline) must notice without any fetch touching
    // the dead worker.
    let sc = SparkliteContext::new(
        SparkliteConf::default()
            .with_executors(2)
            .with_dist_workers(1, worker_cmd())
            .with_dist_heartbeat(25, 500),
    );
    let cluster = sc.cluster().expect("distributed mode on");
    assert_eq!(sc.metrics().executors_registered, 1);
    cluster.kill_worker(0);
    assert!(cluster.await_death(0, Duration::from_secs(10)), "killed process never declared dead");
    assert_eq!(sc.metrics().executors_lost, 1);
}
