//! Program set-up and the timed, interleaved query mix.

use crate::procfs::ProcStat;
use crate::trace::Recorder;
use crate::workload::{self, Expected, Kind, Output, Workload, KINDS};
use rumble_core::Rumble;
use sparklite::{SparkliteConf, SparkliteContext};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Warm filter queries take tens of milliseconds; this many back-to-back
/// runs form one `scan_ms` sample so no gated sample is that short.
pub const WARM_SCAN_BATCH: usize = 8;

/// One configured cluster with the workload's input loaded.
pub struct Arm {
    pub sc: SparkliteContext,
    /// The long-lived engine of `fig11-warm`; `None` where every query
    /// builds a fresh engine.
    warm: Option<Rumble>,
}

/// Program set-up: context creation and the HDFS put, plus on
/// `fig11-warm` the first, cache-filling query. Returns the arm, the
/// set-up seconds, and that first query's output for checking.
pub fn set_up(
    conf: SparkliteConf,
    workload: Workload,
    text: &str,
) -> Result<(Arm, f64, Option<Output>), String> {
    let t0 = Instant::now();
    let sc = workload::make_context(conf, workload, text);
    let (warm, first) = if workload.fresh_engine_per_query() {
        (None, None)
    } else {
        let engine = Rumble::new(sc.clone());
        let out = workload::run(&engine, workload, Kind::Scan)?;
        (Some(engine), Some(out))
    };
    Ok((Arm { sc, warm }, t0.elapsed().as_secs_f64(), first))
}

/// One timed query execution.
#[derive(Debug, Clone)]
pub struct Op {
    pub wall_s: f64,
    pub cpu: ProcStat,
    pub ok: bool,
}

/// Everything one arm's timed mix produced.
#[derive(Debug, Default)]
pub struct MixResult {
    pub ops: Vec<Op>,
    /// Per kind, the latency samples in ms (a warm scan sample is the mean
    /// of a [`WARM_SCAN_BATCH`]).
    pub samples_ms: [Vec<f64>; 3],
    /// First few failure messages, for the log.
    pub errors: Vec<String>,
}

impl MixResult {
    pub fn attempted(&self) -> u64 {
        self.ops.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.ops.iter().filter(|o| !o.ok).count() as u64
    }

    pub fn wall_s(&self) -> f64 {
        self.ops.iter().map(|o| o.wall_s).sum()
    }

    pub fn cpu(&self) -> ProcStat {
        let mut total = ProcStat::default();
        for o in &self.ops {
            total.add(&o.cpu);
        }
        total
    }
}

fn us_since(epoch: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(epoch).as_micros() as u64
}

/// Waits until every executor thread is idle. A worker drops its last task
/// closure only after reporting the result, so a query's data can still be
/// freeing on an executor after the query returned, and that work would
/// land in the next query's time (a scan after a sort ran 2x slower about
/// half the time). One task per executor meets the others at a gate, which
/// a worker only reaches once its earlier work is done; the gate gives up
/// after a second rather than hang.
pub fn drain_executors(sc: &SparkliteContext) {
    let n = sc.executors();
    let gate = Arc::new((Mutex::new(0usize), Condvar::new()));
    let ran = sc
        .parallelize((0..n).collect::<Vec<usize>>(), n)
        .map(move |i| {
            let (arrived, cv) = &*gate;
            let mut count = arrived.lock().expect("no drain task panics holding the gate");
            *count += 1;
            cv.notify_all();
            let deadline = Instant::now() + Duration::from_secs(1);
            while *count < n {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break;
                }
                count = cv.wait_timeout(count, left).expect("no drain task panics").0;
            }
            i
        })
        .count()
        .expect("a job of trivial tasks succeeds");
    debug_assert_eq!(ran, n as u64);
}

/// Runs one query on `arm`, timing compile + execute, the teardown of a
/// fresh engine, and the executor drain; then checks the answer outside the
/// timed region.
fn run_one(
    workload: Workload,
    kind: Kind,
    arm: &Arm,
    expected: &Expected,
    recorder: Option<&mut Recorder>,
) -> (Op, Result<(), String>) {
    if workload == Workload::Messy && kind == Kind::Scan {
        workload::clear_output(&arm.sc);
    }
    let c0 = ProcStat::read();
    let t0 = Instant::now();
    let fresh = arm.warm.is_none().then(|| workload::fresh_engine(&arm.sc));
    let engine = arm.warm.as_ref().or(fresh.as_ref()).expect("a warm or a fresh engine");
    let compiled = engine.compile(&workload.query(kind));
    let t1 = Instant::now();
    let result = match compiled {
        Ok(q) => workload::execute(workload, kind, &q).map_err(|e| e.to_string()),
        Err(e) => Err(e.to_string()),
    };
    drop(fresh);
    drain_executors(&arm.sc);
    let t2 = Instant::now();
    let cpu = ProcStat::read().since(&c0);
    if let Some(rec) = recorder {
        let epoch = arm.sc.event_bus().epoch();
        let (s0, s1, s2) = (us_since(epoch, t0), us_since(epoch, t1), us_since(epoch, t2));
        rec.record_query(arm, kind, (s0, s1), (s1, s2));
    }
    let checked = result.and_then(|out| expected.check(workload, kind, &out, &arm.sc));
    let op = Op { wall_s: (t2 - t0).as_secs_f64(), cpu, ok: checked.is_ok() };
    (op, checked)
}

/// Untimed rounds per arm before the clock starts: the first round of a
/// process runs up to 1.5x slower while the allocator's heap grows.
pub const WARMUP_ROUNDS: usize = 1;

/// Runs round `k` of `arm`: the three queries, starting at query `k % 3`.
/// A warm scan sample is a batch of [`WARM_SCAN_BATCH`] runs.
fn run_round(
    workload: Workload,
    k: usize,
    arm: &Arm,
    expected: &Expected,
    into: &mut MixResult,
    mut recorder: Option<&mut Recorder>,
) {
    for j in 0..KINDS.len() {
        let kind = KINDS[(k + j) % KINDS.len()];
        let reps = if kind == Kind::Scan && !workload.fresh_engine_per_query() {
            WARM_SCAN_BATCH
        } else {
            1
        };
        let mut sample_s = 0.0;
        for _ in 0..reps {
            let (op, checked) = run_one(workload, kind, arm, expected, recorder.as_deref_mut());
            sample_s += op.wall_s;
            if let Err(e) = checked {
                if into.errors.len() < 5 {
                    into.errors.push(e);
                }
            }
            into.ops.push(op);
        }
        into.samples_ms[kind.index()].push(sample_s * 1e3 / reps as f64);
    }
}

/// After [`WARMUP_ROUNDS`] untimed rounds per arm, runs rounds on the arms
/// in turn until `seconds` have passed (at least one round per arm).
/// Rounds alternate between the arms, and each arm's `k`-th round starts
/// at query `k % 3`, so each query follows each other query equally often.
/// The recorder, if any, sees only the timed queries of arm `traced`.
pub fn run_mix(
    workload: Workload,
    arms: &[&Arm],
    expected: &Expected,
    seconds: f64,
    mut recorder: Option<(usize, &mut Recorder)>,
) -> Vec<MixResult> {
    for (k, arm) in (0..WARMUP_ROUNDS).flat_map(|k| arms.iter().map(move |a| (k, a))) {
        run_round(workload, k, arm, expected, &mut MixResult::default(), None);
    }
    let mut results: Vec<MixResult> = arms.iter().map(|_| MixResult::default()).collect();
    let start = Instant::now();
    let mut round = 0;
    while round < arms.len() || start.elapsed().as_secs_f64() < seconds {
        let a = round % arms.len();
        let rec = match &mut recorder {
            Some((traced, r)) if *traced == a => Some(&mut **r),
            _ => None,
        };
        run_round(workload, round / arms.len(), arms[a], expected, &mut results[a], rec);
        round += 1;
    }
    results
}
