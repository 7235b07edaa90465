//! The driver-side cluster control plane.
//!
//! A [`Cluster`] spawns N executor workers (threads or real OS processes,
//! per [`DistMode`]), runs the registration handshake, supervises each
//! worker through a dedicated reader thread plus a heartbeat-deadline
//! monitor, dispatches serialized tasks, places and fetches shuffle blocks,
//! and merges each worker's forwarded event stream onto the shared
//! [`EventBus`] — `ExecutorRegistered`, `ExecutorHeartbeat`, `BlockPush`,
//! `BlockFetch` are *executor-side observations*, emitted by the worker
//! that did the work, sequence-numbered, batched onto the control
//! connection, and replayed here through a per-worker
//! [`ExecutorStreamMerge`] — so distributed runs reconcile in the same
//! timeline machinery as local ones, and the dist counters are derived
//! from what the executors saw, not from what the driver asked for. Only
//! `ExecutorLost` and `ExecutorEventsLost` stay driver-emitted: a dead
//! worker cannot report its own death or its un-forwarded tail.
//!
//! Death detection is three-way, and any of the three paths funnels into
//! [`Cluster::declare_dead`] exactly once per worker:
//! 1. the supervisor reader sees EOF or an I/O error on the control
//!    connection (a killed process, or a thread worker honouring `Die`);
//! 2. the monitor sees a heartbeat deadline lapse;
//! 3. a reducer's block fetch fails at the socket level.

use super::proto::{self, Msg, TaskDesc};
use super::worker::{run_worker, NoRuntime};
use crate::conf::{DistConf, DistMode};
use crate::events::{Event, EventBus, ExecutorStreamMerge};
use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How long the driver waits for all workers to register at startup.
const REGISTER_DEADLINE: Duration = Duration::from_secs(10);
/// Capacity of each worker's bounded event forward buffer (events, not
/// bytes); handed to workers in `RegisterAck`. Overflow is counted and
/// reported, never silent.
const WORKER_EVENT_CAPACITY: u64 = 1 << 16;
/// How long a task dispatch waits for `TaskDone`/`TaskFailed`.
const DISPATCH_TIMEOUT: Duration = Duration::from_secs(30);

/// Why a block fetch could not return bytes.
#[derive(Debug)]
pub enum FetchError {
    /// The block's holder is dead or no longer has it; recoverable by
    /// recomputing the map output from lineage and re-pushing.
    Lost,
    /// A non-recoverable error (protocol corruption, driver bug).
    Other(String),
}

type TaskReply = Result<(u64, u64), String>;

/// What the driver knows about one worker's forwarded event stream: the
/// last sequence number it has seen, the loss it can account for, whether
/// the stream ended completely (goodbye received or merge finalized), and
/// the handshake-measured clock offset. Chaos figures report these so a
/// killed executor's events are accounted for, not silently dropped.
#[derive(Debug, Clone, Copy, Default)]
pub struct ForwardStats {
    /// Highest event sequence number received from the worker.
    pub last_seq: u64,
    /// Events known lost: worker-reported ring drops plus sequence gaps.
    pub lost: u64,
    /// True once the stream was finalized (clean goodbye or declared dead).
    pub drained: bool,
    /// Driver-clock minus worker-clock, µs, measured at registration.
    pub offset_us: i64,
}

struct WorkerState {
    index: usize,
    pid: AtomicU64,
    alive: AtomicBool,
    /// Write half of the control connection (reads happen on the
    /// supervisor thread's own clone).
    control: Mutex<Option<TcpStream>>,
    block_addr: Mutex<String>,
    /// Pooled connection to the worker's block service.
    block_conn: Mutex<Option<TcpStream>>,
    /// Duplicate handles (`try_clone`) of `control` and `block_conn`, under
    /// their own locks so [`Cluster::declare_dead`] can sever a hung
    /// worker's sockets without touching the I/O mutexes — those may be
    /// held across a blocking send/recv to the very worker being declared
    /// dead (a SIGSTOPped process heartbeats nothing but keeps its sockets
    /// open, so the reducer parked in `recv` holds `block_conn` forever).
    control_sever: Mutex<Option<TcpStream>>,
    block_sever: Mutex<Option<TcpStream>>,
    /// Last heartbeat arrival, µs since the cluster epoch.
    last_beat_us: AtomicU64,
    /// Reassembly state for the worker's forwarded event stream.
    merge: Mutex<ExecutorStreamMerge>,
    /// True once the stream has been finalized — by a clean `Goodbye` or by
    /// [`Cluster::finalize_stream`] on death/shutdown. Guards against a
    /// double finalization double-counting loss.
    drained: AtomicBool,
    child: Mutex<Option<Child>>,
    worker_thread: Mutex<Option<JoinHandle<()>>>,
    supervisor: Mutex<Option<JoinHandle<()>>>,
}

impl WorkerState {
    fn new(index: usize) -> WorkerState {
        WorkerState {
            index,
            pid: AtomicU64::new(0),
            alive: AtomicBool::new(false),
            control: Mutex::new(None),
            block_addr: Mutex::new(String::new()),
            block_conn: Mutex::new(None),
            control_sever: Mutex::new(None),
            block_sever: Mutex::new(None),
            last_beat_us: AtomicU64::new(0),
            merge: Mutex::new(ExecutorStreamMerge::new(0)),
            drained: AtomicBool::new(false),
            child: Mutex::new(None),
            worker_thread: Mutex::new(None),
            supervisor: Mutex::new(None),
        }
    }

    fn send(&self, msg: &Msg) -> std::io::Result<()> {
        let mut control = self.control.lock().expect("control lock");
        match control.as_mut() {
            Some(stream) => proto::send_msg(stream, msg),
            None => Err(std::io::Error::new(
                std::io::ErrorKind::NotConnected,
                "worker control connection closed",
            )),
        }
    }

    /// Shuts down both of the worker's sockets via the duplicate handles.
    /// Deliberately never takes `control` or `block_conn`: a thread blocked
    /// in I/O on either keeps holding its mutex until this very shutdown
    /// unblocks it, so taking them here would deadlock the caller.
    fn sever(&self) {
        let control = self.control_sever.lock().expect("control sever lock").take();
        if let Some(stream) = control {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        let block = self.block_sever.lock().expect("block sever lock").take();
        if let Some(stream) = block {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
    }
}

/// The driver's handle to its executor workers.
pub struct Cluster {
    events: Arc<EventBus>,
    epoch: Instant,
    heartbeat_ms: u64,
    heartbeat_timeout_ms: u64,
    next_task: AtomicU64,
    workers: Vec<Arc<WorkerState>>,
    /// Which worker holds each map output: `(shuffle, map_part) → worker`.
    locations: Mutex<HashMap<(u64, u64), usize>>,
    /// In-flight task dispatches awaiting completion, by task id.
    pending: Mutex<HashMap<u64, (usize, mpsc::Sender<TaskReply>)>>,
    shutting_down: AtomicBool,
    monitor: Mutex<Option<JoinHandle<()>>>,
}

impl Cluster {
    /// Spawns and registers every worker, then starts supervision. Fails if
    /// any worker does not complete the handshake within the deadline.
    pub fn start(dist: &DistConf, events: Arc<EventBus>) -> Result<Arc<Cluster>, String> {
        let n = dist.workers.max(1);
        let listener =
            TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind control: {e}"))?;
        let addr = listener.local_addr().map_err(|e| format!("control addr: {e}"))?.to_string();
        listener.set_nonblocking(true).map_err(|e| format!("control nonblocking: {e}"))?;

        // Share the bus's epoch so merged executor timestamps and
        // driver-collected stamps are on the same µs axis.
        let epoch = events.epoch();
        let cluster = Arc::new(Cluster {
            events,
            epoch,
            heartbeat_ms: dist.heartbeat_ms.max(1),
            heartbeat_timeout_ms: dist.heartbeat_timeout_ms.max(1),
            next_task: AtomicU64::new(0),
            workers: (0..n).map(|i| Arc::new(WorkerState::new(i))).collect(),
            locations: Mutex::new(HashMap::new()),
            pending: Mutex::new(HashMap::new()),
            shutting_down: AtomicBool::new(false),
            monitor: Mutex::new(None),
        });

        for (i, w) in cluster.workers.iter().enumerate() {
            match &dist.mode {
                DistMode::Off => return Err("cluster start with DistMode::Off".to_string()),
                DistMode::Threads => {
                    let addr = addr.clone();
                    let handle = thread::spawn(move || {
                        // A worker error after `Die`/driver loss is expected;
                        // startup errors surface via the registration deadline.
                        let _ = run_worker(&addr, i as u64, Arc::new(NoRuntime));
                    });
                    *w.worker_thread.lock().expect("worker thread lock") = Some(handle);
                }
                DistMode::Processes { cmd } => {
                    let mut command = if cmd.is_empty() {
                        let exe = std::env::current_exe()
                            .map_err(|e| format!("current_exe for worker spawn: {e}"))?;
                        let mut c = Command::new(exe);
                        c.arg("--executor");
                        c
                    } else {
                        let mut c = Command::new(&cmd[0]);
                        c.args(&cmd[1..]);
                        c
                    };
                    let child = command
                        .arg("--connect")
                        .arg(&addr)
                        .arg("--worker-id")
                        .arg(i.to_string())
                        .stdin(Stdio::null())
                        .stdout(Stdio::null())
                        .spawn()
                        .map_err(|e| {
                            cluster.abort_spawned();
                            format!("spawn worker {i}: {e}")
                        })?;
                    *w.child.lock().expect("child lock") = Some(child);
                }
            }
        }

        if let Err(e) = cluster.accept_registrations(&listener, n) {
            cluster.abort_spawned();
            return Err(e);
        }

        let monitor = {
            let cluster = Arc::clone(&cluster);
            thread::spawn(move || cluster.monitor_heartbeats())
        };
        *cluster.monitor.lock().expect("monitor lock") = Some(monitor);
        Ok(cluster)
    }

    /// Accepts control connections until every worker has registered.
    fn accept_registrations(
        self: &Arc<Self>,
        listener: &TcpListener,
        n: usize,
    ) -> Result<(), String> {
        let deadline = Instant::now() + REGISTER_DEADLINE;
        let mut registered = 0usize;
        while registered < n {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(format!("only {registered}/{n} workers registered in time"));
            }
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(2));
                    continue;
                }
                Err(e) => return Err(format!("accept worker: {e}")),
            };
            // Anything can connect to the loopback control port, so a
            // handshake that goes wrong — garbage instead of `Register`, an
            // immediate hangup, a peer that sends nothing until the
            // (remaining) deadline — drops that one connection and keeps
            // accepting, rather than aborting startup for every worker.
            if stream.set_nonblocking(false).is_err() {
                continue;
            }
            proto::tune_stream(&stream);
            if stream.set_read_timeout(Some(remaining.max(Duration::from_millis(1)))).is_err() {
                continue;
            }
            let Ok(mut read_half) = stream.try_clone() else { continue };
            let (worker, pid, block_addr, clock_us) = match proto::recv_msg(&mut read_half) {
                Ok(Some(Msg::Register { worker, pid, block_addr, clock_us })) => {
                    (worker, pid, block_addr, clock_us)
                }
                _ => continue,
            };
            let Some(state) = self.workers.get(worker as usize) else { continue };
            if state.alive.load(Ordering::SeqCst) {
                continue; // this worker index already registered
            }
            *state.block_addr.lock().expect("block addr lock") = block_addr;
            state.pid.store(pid, Ordering::Relaxed);
            state.last_beat_us.store(self.now_us(), Ordering::Relaxed);
            // Clock-offset handshake: the worker stamped `clock_us` against
            // its own epoch just before sending `Register`, so driver-now
            // minus worker-then over-estimates the offset by the one-way
            // trip (loopback: microseconds). Recorded for timestamp
            // translation, never trusted for ordering — sequence numbers
            // order the stream.
            let offset_us = self.now_us() as i64 - clock_us as i64;
            {
                let mut control = state.control.lock().expect("control lock");
                let mut stream = stream;
                if proto::send_msg(
                    &mut stream,
                    &Msg::RegisterAck {
                        heartbeat_ms: self.heartbeat_ms,
                        event_capacity: WORKER_EVENT_CAPACITY,
                    },
                )
                .is_err()
                {
                    continue; // worker gone before the ack; the deadline reports it
                }
                *state.control_sever.lock().expect("control sever lock") = stream.try_clone().ok();
                *control = Some(stream);
            }
            // The worker flushes its `ExecutorRegistered` event eagerly
            // right after the ack; fold that first batch in *before*
            // reporting the worker registered, so `executors_registered`
            // is already correct when `start` returns — even if the worker
            // dies immediately after (the read timeout from above is still
            // armed, so a wedged worker cannot hang startup).
            match proto::recv_msg(&mut read_half) {
                Ok(Some(Msg::Events { first_seq, dropped, events, .. })) => {
                    let released = {
                        let mut merge = state.merge.lock().expect("merge lock");
                        *merge = ExecutorStreamMerge::new(offset_us);
                        merge.push_batch(first_seq, dropped, events)
                    };
                    for (at, ev) in released {
                        self.events.emit_remote(at, &ev);
                    }
                }
                _ => continue, // worker gone before its first flush
            }
            if read_half.set_read_timeout(None).is_err() {
                continue;
            }
            state.alive.store(true, Ordering::SeqCst);
            let supervisor = {
                let cluster = Arc::clone(self);
                let state = Arc::clone(state);
                thread::spawn(move || cluster.supervise(&state, read_half))
            };
            *state.supervisor.lock().expect("supervisor lock") = Some(supervisor);
            registered += 1;
        }
        Ok(())
    }

    /// Per-worker reader: heartbeats, task completions, and — on EOF or
    /// error — death detection.
    fn supervise(&self, state: &WorkerState, mut read_half: TcpStream) {
        loop {
            match proto::recv_msg(&mut read_half) {
                Ok(Some(Msg::Heartbeat { .. })) => {
                    // The beat event itself arrives in the `Events` batch
                    // the worker flushes just before this message; here the
                    // beat only feeds the liveness deadline.
                    state.last_beat_us.store(self.now_us(), Ordering::Relaxed);
                }
                Ok(Some(Msg::Events { first_seq, dropped, events, .. })) => {
                    // Forwarded traffic is proof of life too — a worker
                    // busy serving blocks may batch faster than it beats.
                    state.last_beat_us.store(self.now_us(), Ordering::Relaxed);
                    let released = state
                        .merge
                        .lock()
                        .expect("merge lock")
                        .push_batch(first_seq, dropped, events);
                    for (at, ev) in released {
                        self.events.emit_remote(at, &ev);
                    }
                }
                Ok(Some(Msg::Goodbye { .. })) => {
                    // Clean end of stream: everything the worker buffered
                    // has been flushed; only ring drops (if any) are loss.
                    self.finalize_stream(state, true);
                }
                Ok(Some(Msg::TaskDone { task, blocks, bytes })) => {
                    self.reply_pending(task, Ok((blocks, bytes)));
                }
                Ok(Some(Msg::TaskFailed { task, error })) => {
                    self.reply_pending(task, Err(error));
                }
                Ok(Some(_)) | Ok(None) | Err(_) => break,
            }
        }
        if !self.shutting_down.load(Ordering::SeqCst) {
            self.declare_dead(state.index, "control connection closed");
        }
    }

    /// Finalizes a worker's forwarded event stream exactly once: releases
    /// anything still pending in the merge and accounts for loss. A stream
    /// that ended without a goodbye (`complete == false`) gets an
    /// [`Event::ExecutorEventsLost`] even when the quantifiable loss is
    /// zero — the un-forwarded tail of a killed worker is unknowable, and
    /// the event marks the stream as cut rather than silently short.
    fn finalize_stream(&self, state: &WorkerState, complete: bool) {
        if state.drained.swap(true, Ordering::SeqCst) {
            return;
        }
        let (released, last_seq, lost) = {
            let mut merge = state.merge.lock().expect("merge lock");
            let released = merge.flush();
            (released, merge.last_seq(), merge.lost())
        };
        for (at, ev) in released {
            self.events.emit_remote(at, &ev);
        }
        if lost > 0 || !complete {
            self.events.emit(Event::ExecutorEventsLost {
                worker: state.index as u64,
                last_seq,
                lost,
            });
        }
    }

    /// Forwarding stats for one worker's event stream (chaos accounting).
    pub fn forward_stats(&self, worker: usize) -> Option<ForwardStats> {
        let state = self.workers.get(worker)?;
        let merge = state.merge.lock().expect("merge lock");
        Some(ForwardStats {
            last_seq: merge.last_seq(),
            lost: merge.lost(),
            drained: state.drained.load(Ordering::SeqCst),
            offset_us: merge.offset_us(),
        })
    }

    /// Deadline-based death detection: a worker whose last heartbeat is
    /// older than the timeout is declared lost.
    fn monitor_heartbeats(&self) {
        let tick = Duration::from_millis((self.heartbeat_timeout_ms / 4).clamp(5, 250));
        while !self.shutting_down.load(Ordering::SeqCst) {
            thread::sleep(tick);
            let now = self.now_us();
            for w in &self.workers {
                if w.alive.load(Ordering::SeqCst) {
                    let age_ms = now.saturating_sub(w.last_beat_us.load(Ordering::Relaxed)) / 1000;
                    if age_ms > self.heartbeat_timeout_ms {
                        self.declare_dead(w.index, "heartbeat timeout");
                    }
                }
            }
        }
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn reply_pending(&self, task: u64, reply: TaskReply) {
        let entry = self.pending.lock().expect("pending lock").remove(&task);
        if let Some((_, tx)) = entry {
            let _ = tx.send(reply);
        }
    }

    /// Marks a worker dead (idempotently), severs its connections, fails
    /// its in-flight tasks, and emits `ExecutorLost`.
    fn declare_dead(&self, worker: usize, reason: &str) {
        let state = &self.workers[worker];
        if !state.alive.swap(false, Ordering::SeqCst) {
            return;
        }
        self.events.emit(Event::ExecutorLost { worker: worker as u64, reason: reason.to_string() });
        // The stream died with the worker: release what arrived, mark the
        // rest lost.
        self.finalize_stream(state, false);
        // Sever through the duplicate handles only: the `control` and
        // `block_conn` mutexes may be held by a thread blocked in I/O on
        // this very worker (a silent hang), and taking them here would
        // wedge the single monitor thread — stopping death detection for
        // every other worker too. The shutdown unblocks that thread, which
        // then observes the error and clears its side of the pool itself.
        state.sever();
        if let Some(child) = state.child.lock().expect("child lock").as_mut() {
            let _ = child.kill();
        }
        let mut pending = self.pending.lock().expect("pending lock");
        let orphaned: Vec<u64> =
            pending.iter().filter(|(_, (w, _))| *w == worker).map(|(id, _)| *id).collect();
        for id in orphaned {
            if let Some((_, tx)) = pending.remove(&id) {
                let _ = tx.send(Err(format!("executor {worker} lost: {reason}")));
            }
        }
    }

    /// Worker indices currently alive, ascending.
    pub fn live_workers(&self) -> Vec<usize> {
        self.workers.iter().filter(|w| w.alive.load(Ordering::SeqCst)).map(|w| w.index).collect()
    }

    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// False once shutdown has begun: new shuffles stay driver-local.
    pub fn is_active(&self) -> bool {
        !self.shutting_down.load(Ordering::SeqCst)
    }

    /// Sends one serialized task to a worker and waits for its completion.
    /// Returns the worker-reported `(blocks stored, bytes stored)`. A task
    /// that stored blocks makes the worker the holder of the task's
    /// `(shuffle, map_part)` label, so [`fetch`](Self::fetch) can find them.
    pub fn dispatch(
        &self,
        worker: usize,
        kind: &str,
        shuffle: u64,
        map_part: u64,
        payload: Vec<u8>,
    ) -> Result<(u64, u64), String> {
        let state = self.workers.get(worker).ok_or_else(|| format!("no such worker {worker}"))?;
        if !state.alive.load(Ordering::SeqCst) {
            return Err(format!("executor {worker} is dead"));
        }
        let id = self.next_task.fetch_add(1, Ordering::Relaxed);
        let task = TaskDesc { id, shuffle, map_part, kind: kind.to_string(), payload };
        let (tx, rx) = mpsc::channel();
        self.pending.lock().expect("pending lock").insert(id, (worker, tx));
        if let Err(e) = state.send(&Msg::LaunchTask { task }) {
            self.pending.lock().expect("pending lock").remove(&id);
            // `InvalidInput` is `write_frame` refusing an oversized frame —
            // a driver-local encoding failure, not evidence the worker died.
            if e.kind() != std::io::ErrorKind::InvalidInput {
                self.declare_dead(worker, "control write failed");
            }
            return Err(format!("dispatch to executor {worker}: {e}"));
        }
        let reply = match rx.recv_timeout(DISPATCH_TIMEOUT) {
            Ok(reply) => reply,
            Err(_) => {
                self.pending.lock().expect("pending lock").remove(&id);
                Err(format!("task {id} on executor {worker} timed out"))
            }
        };
        if let Ok((blocks, _)) = &reply {
            if *blocks > 0 {
                self.locations.lock().expect("locations lock").insert((shuffle, map_part), worker);
            }
        }
        reply
    }

    /// Stores one map task's per-reducer blocks on a live worker, preferring
    /// the part's existing holder, falling back deterministically to
    /// `live[map_part % live]`, and retrying on other live workers if the
    /// target dies mid-push. Records the placement and emits `BlockPush`.
    pub fn push_map_output(
        &self,
        shuffle: u64,
        map_part: u64,
        blocks: &[(u64, Vec<u8>)],
    ) -> Result<(), String> {
        let payload = proto::encode_store_payload(blocks);
        // A payload the frame layer cannot carry fails here, with the size
        // in the error, before any dispatch: the `LaunchTask` envelope adds
        // a tag, three varints, and the kind string (< 64 bytes), and
        // `write_frame` would reject the whole frame locally — an error
        // that must not read as a worker death and cascade through the
        // cluster killing healthy executors one retry at a time.
        if payload.len() + 64 > proto::MAX_FRAME {
            return Err(format!(
                "map output for shuffle {shuffle} part {map_part} encodes to {} bytes, \
                 over the {} byte frame limit; repartition the map side into smaller parts",
                payload.len(),
                proto::MAX_FRAME,
            ));
        }
        for _ in 0..self.workers.len() * 2 {
            let live = self.live_workers();
            if live.is_empty() {
                return Err("no live executors to hold shuffle output".to_string());
            }
            let preferred = self
                .locations
                .lock()
                .expect("locations lock")
                .get(&(shuffle, map_part))
                .copied()
                .filter(|&w| self.workers[w].alive.load(Ordering::SeqCst));
            let target = preferred.unwrap_or(live[map_part as usize % live.len()]);
            match self.dispatch(target, "store-blocks", shuffle, map_part, payload.clone()) {
                Ok(_) => {
                    // The `BlockPush` event is executor-emitted: the worker
                    // forwards it just before its `TaskDone`, so it is
                    // already merged by the time this dispatch returned.
                    self.locations
                        .lock()
                        .expect("locations lock")
                        .insert((shuffle, map_part), target);
                    return Ok(());
                }
                Err(e) => {
                    if self.workers[target].alive.load(Ordering::SeqCst) {
                        // The worker is fine; the task itself failed —
                        // that's a driver bug, not a recoverable death.
                        return Err(e);
                    }
                    // Dead target: loop and re-place on a survivor.
                }
            }
        }
        Err("could not place shuffle output on any live executor".to_string())
    }

    /// Fetches one map-output block from its holder. `Lost` means the holder
    /// is dead or no longer has the block; callers recover via lineage.
    pub fn fetch(
        &self,
        shuffle: u64,
        map_part: u64,
        reduce_part: u64,
    ) -> Result<Vec<u8>, FetchError> {
        let worker = match self.locations.lock().expect("locations lock").get(&(shuffle, map_part))
        {
            Some(&w) => w,
            None => return Err(FetchError::Lost),
        };
        let state = &self.workers[worker];
        if !state.alive.load(Ordering::SeqCst) {
            return Err(FetchError::Lost);
        }
        let reply = {
            let mut conn = state.block_conn.lock().expect("block conn lock");
            if conn.is_none() {
                let addr = state.block_addr.lock().expect("block addr lock").clone();
                match TcpStream::connect(&addr) {
                    Ok(c) => {
                        proto::tune_stream(&c);
                        // Stash the duplicate handle *before* re-checking
                        // liveness: if the worker was declared dead in the
                        // window since the check above, its sever pass may
                        // already have run and found nothing — in which
                        // case nobody would ever unblock a read on `c`, so
                        // bail out here instead of pooling it.
                        *state.block_sever.lock().expect("block sever lock") = c.try_clone().ok();
                        if !state.alive.load(Ordering::SeqCst) {
                            state.sever();
                            return Err(FetchError::Lost);
                        }
                        *conn = Some(c);
                    }
                    Err(_) => {
                        drop(conn);
                        self.declare_dead(worker, "block service unreachable");
                        return Err(FetchError::Lost);
                    }
                }
            }
            let stream = conn.as_mut().expect("pooled connection");
            let io = proto::send_msg(stream, &Msg::FetchBlock { shuffle, map_part, reduce_part })
                .and_then(|()| proto::recv_msg(stream));
            match io {
                Ok(Some(msg)) => msg,
                Ok(None) | Err(_) => {
                    *conn = None;
                    drop(conn);
                    self.declare_dead(worker, "block fetch failed");
                    return Err(FetchError::Lost);
                }
            }
        };
        match reply {
            // The `BlockFetch` event is executor-emitted: the serving
            // worker forwards it on its control connection after answering.
            Msg::BlockData { bytes } => Ok(bytes),
            Msg::BlockMissing { .. } => {
                // The worker restarted or dropped the shuffle: the location
                // record is stale. Forget it so recovery re-places the part.
                self.locations.lock().expect("locations lock").remove(&(shuffle, map_part));
                Err(FetchError::Lost)
            }
            other => Err(FetchError::Other(format!("unexpected block reply {other:?}"))),
        }
    }

    /// Map partitions of `shuffle` whose blocks are no longer reachable
    /// (holder dead, or never/no-longer placed), ascending.
    pub fn lost_parts(&self, shuffle: u64, num_maps: usize) -> Vec<usize> {
        let locations = self.locations.lock().expect("locations lock");
        (0..num_maps)
            .filter(|&p| match locations.get(&(shuffle, p as u64)) {
                Some(&w) => !self.workers[w].alive.load(Ordering::SeqCst),
                None => true,
            })
            .collect()
    }

    /// Releases a finished shuffle's blocks cluster-wide.
    pub fn drop_shuffle(&self, shuffle: u64) {
        self.locations.lock().expect("locations lock").retain(|&(s, _), _| s != shuffle);
        for w in &self.workers {
            if w.alive.load(Ordering::SeqCst) {
                let _ = w.send(&Msg::DropShuffle { shuffle });
            }
        }
    }

    /// Kills one worker for chaos testing: a real `SIGKILL` for process
    /// workers, the protocol `Die` (drop blocks, sever abruptly) for thread
    /// workers. Death is *detected*, not assumed: the supervisor or monitor
    /// declares the loss, exactly as for an organic crash.
    pub fn kill_worker(&self, worker: usize) {
        let Some(state) = self.workers.get(worker) else { return };
        let mut child = state.child.lock().expect("child lock");
        if let Some(child) = child.as_mut() {
            let _ = child.kill();
        } else {
            let _ = state.send(&Msg::Die);
        }
    }

    /// Blocks until a previously killed worker has been declared dead, so
    /// chaos tests can sequence kill → recovery deterministically.
    pub fn await_death(&self, worker: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if !self.workers[worker].alive.load(Ordering::SeqCst) {
                return true;
            }
            thread::sleep(Duration::from_millis(2));
        }
        false
    }

    /// Graceful teardown: stop supervision, tell every live worker to exit,
    /// and reap threads and processes. Idempotent; called by `Drop` and by
    /// [`SparkliteContext::shutdown_cluster`](crate::SparkliteContext::shutdown_cluster).
    /// After this returns no further executor events are emitted, so a
    /// metrics snapshot taken now reconciles exactly against the timeline.
    pub fn shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        for w in &self.workers {
            if w.alive.load(Ordering::SeqCst) {
                let _ = w.send(&Msg::Shutdown);
            }
        }
        if let Some(monitor) = self.monitor.lock().expect("monitor lock").take() {
            let _ = monitor.join();
        }
        // Drain wait: give each live worker a bounded window to answer the
        // `Shutdown` with its final event flush and goodbye before the
        // connections are severed. A healthy worker drains within one
        // control round trip; a wedged one is finalized as incomplete below.
        let drain_deadline = Instant::now() + Duration::from_secs(2);
        for w in &self.workers {
            while w.alive.load(Ordering::SeqCst)
                && !w.drained.load(Ordering::SeqCst)
                && Instant::now() < drain_deadline
            {
                thread::sleep(Duration::from_millis(1));
            }
        }
        for w in &self.workers {
            // A worker that is still alive but never said goodbye (wedged,
            // or slower than the drain window) has an incomplete stream.
            let cut = w.alive.load(Ordering::SeqCst) && !w.drained.load(Ordering::SeqCst);
            // Duplicate-handle sever first: it unblocks any thread still
            // parked in I/O on this worker without touching the I/O locks,
            // which that thread may be holding.
            w.sever();
            if let Some(stream) = w.control.lock().expect("control lock").take() {
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
            if let Some(supervisor) = w.supervisor.lock().expect("supervisor lock").take() {
                let _ = supervisor.join();
            }
            if cut {
                // The supervisor has been joined, so this runs after the
                // last batch was merged (and no-ops if a late goodbye
                // finalized the stream first).
                self.finalize_stream(w, false);
            }
            if let Some(conn) = w.block_conn.lock().expect("block conn lock").take() {
                let _ = conn.shutdown(std::net::Shutdown::Both);
            }
            if let Some(mut child) = w.child.lock().expect("child lock").take() {
                let _ = child.kill();
                let _ = child.wait();
            }
            if let Some(handle) = w.worker_thread.lock().expect("worker thread lock").take() {
                let _ = handle.join();
            }
        }
    }

    /// Best-effort cleanup of half-started workers when `start` fails.
    fn abort_spawned(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        for w in &self.workers {
            w.sever();
            if let Some(stream) = w.control.lock().expect("control lock").take() {
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
            if let Some(mut child) = w.child.lock().expect("child lock").take() {
                let _ = child.kill();
                let _ = child.wait();
            }
            // Thread workers exit on their own once the control socket (or
            // the listener) goes away; detach rather than join so a worker
            // stuck in `connect` cannot hang the error path.
            drop(w.worker_thread.lock().expect("worker thread lock").take());
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Metrics;
    use std::io::Write;

    /// A bare cluster with `n` unregistered workers and no monitor thread —
    /// the scaffolding for driving registration and death paths directly.
    fn bare_cluster(n: usize) -> Arc<Cluster> {
        Arc::new(Cluster {
            events: Arc::new(EventBus::new(Arc::new(Metrics::default()))),
            epoch: Instant::now(),
            heartbeat_ms: 50,
            heartbeat_timeout_ms: 3000,
            next_task: AtomicU64::new(0),
            workers: (0..n).map(|i| Arc::new(WorkerState::new(i))).collect(),
            locations: Mutex::new(HashMap::new()),
            pending: Mutex::new(HashMap::new()),
            shutting_down: AtomicBool::new(false),
            monitor: Mutex::new(None),
        })
    }

    /// The silent-hang shape (a SIGSTOPped worker): the block service
    /// accepts a fetch, never answers, and keeps the socket open. The
    /// reducer parks in `recv` holding the `block_conn` mutex, and
    /// `declare_dead` (as the heartbeat monitor would call it) must sever
    /// the socket and return without blocking on that mutex.
    #[test]
    fn declare_dead_severs_a_hung_block_fetch_without_deadlocking() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake block service");
        let addr = listener.local_addr().expect("block addr").to_string();
        let (got_request, request_seen) = mpsc::channel();
        let service = thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("reducer connects");
            let _ = proto::recv_msg(&mut conn); // swallow the FetchBlock
            got_request.send(()).expect("test alive");
            let _ = proto::recv_msg(&mut conn); // park until the driver severs
        });

        let cluster = bare_cluster(1);
        cluster.workers[0].alive.store(true, Ordering::SeqCst);
        *cluster.workers[0].block_addr.lock().expect("block addr lock") = addr;
        cluster.locations.lock().expect("locations lock").insert((7, 0), 0);

        let fetcher = {
            let cluster = Arc::clone(&cluster);
            thread::spawn(move || cluster.fetch(7, 0, 0))
        };
        request_seen
            .recv_timeout(Duration::from_secs(10))
            .expect("fetch request never reached the block service");

        let start = Instant::now();
        cluster.declare_dead(0, "test: silent hang");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "declare_dead blocked behind the hung fetch's lock"
        );
        let fetched = fetcher.join().expect("fetcher thread");
        assert!(
            matches!(fetched, Err(FetchError::Lost)),
            "hung fetch should resolve to Lost, got {fetched:?}"
        );
        let _ = service.join();
    }

    /// Stray processes poking the loopback control port — connect-and-hang-up,
    /// garbage bytes, a `Register` for a worker index that doesn't exist —
    /// must each be dropped without aborting startup for the real worker.
    #[test]
    fn stray_connections_do_not_abort_registration() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind control");
        let addr = listener.local_addr().expect("control addr").to_string();
        listener.set_nonblocking(true).expect("control nonblocking");

        let cluster = bare_cluster(1);
        let worker = {
            let addr = addr.clone();
            thread::spawn(move || {
                drop(TcpStream::connect(&addr).expect("stray connects"));
                let mut garbage = TcpStream::connect(&addr).expect("stray connects");
                // An oversized length prefix: rejected at the frame layer.
                let _ = garbage.write_all(&[0xFF; 8]);
                drop(garbage);
                let mut impostor = TcpStream::connect(&addr).expect("stray connects");
                let _ = proto::send_msg(
                    &mut impostor,
                    &Msg::Register {
                        worker: 99,
                        pid: 1,
                        block_addr: "nowhere:0".to_string(),
                        clock_us: 0,
                    },
                );
                drop(impostor);
                let _ = run_worker(&addr, 0, Arc::new(NoRuntime));
            })
        };

        cluster
            .accept_registrations(&listener, 1)
            .expect("stray connections must not abort registration");
        assert_eq!(cluster.live_workers(), vec![0]);
        cluster.shutdown();
        let _ = worker.join();
    }
}
