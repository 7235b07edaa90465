//! The distribution wire protocol: length-prefixed frames carrying typed
//! control and data messages between the driver and executor processes.
//!
//! Everything on the wire is a **frame**: a 4-byte little-endian length
//! followed by that many body bytes, capped at [`MAX_FRAME`] so a corrupt
//! or hostile peer cannot make the receiver allocate unboundedly. Frame
//! bodies are [`Msg`] values encoded with the same tag + LEB128-varint
//! vocabulary the row and item codecs use — no external serialization
//! framework, and nothing on the wire is a closure: work crosses the
//! boundary only as a partition-labelled [`TaskDesc`] (kind + opaque
//! payload bytes), which is what forces the clean serialization boundary
//! the distribution layer is built around.
//!
//! Two framings exist for reading:
//!
//! * [`read_frame`] — blocking, for socket loops;
//! * [`FrameDecoder`] — push-based, fed arbitrary byte chunks, for tests
//!   that exercise partial reads and oversized-frame rejection without a
//!   socket in the loop.

use crate::events::Event;
use std::io::{self, Read, Write};

/// Upper bound on one frame's body, in bytes. Large enough for any shuffle
/// block the harness produces; small enough that a corrupted length prefix
/// fails fast instead of triggering a giant allocation.
pub const MAX_FRAME: usize = 64 << 20;

/// Writes one length-prefixed frame and flushes. Header and body go out as
/// a single write: two small writes per frame would interact with Nagle's
/// algorithm and delayed ACKs to cost a ~40 ms round trip *per frame* on
/// loopback TCP (sockets also disable Nagle, belt and braces — see
/// `tune_stream`).
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    if body.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds MAX_FRAME", body.len()),
        ));
    }
    let mut framed = Vec::with_capacity(4 + body.len());
    framed.extend_from_slice(&(body.len() as u32).to_le_bytes());
    framed.extend_from_slice(body);
    w.write_all(&framed)?;
    w.flush()
}

/// Latency settings for a protocol socket: disables Nagle's algorithm so
/// small control frames (heartbeats, task replies, fetch requests) leave
/// immediately instead of waiting out a delayed-ACK window. Applied to
/// every control and block-service stream, on both the connect and accept
/// side. Failure is ignored — it is a latency tweak, not a correctness
/// requirement.
pub fn tune_stream(stream: &std::net::TcpStream) {
    let _ = stream.set_nodelay(true);
}

/// Reads one frame. Returns `Ok(None)` on a clean end-of-stream (the peer
/// closed between frames); an EOF mid-frame is an error.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    let mut got = 0;
    while got < len.len() {
        match r.read(&mut len[got..])? {
            0 if got == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid frame header",
                ))
            }
            n => got += n,
        }
    }
    let n = u32::from_le_bytes(len) as usize;
    if n > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {n} bytes exceeds MAX_FRAME"),
        ));
    }
    let mut body = vec![0u8; n];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

/// Incremental frame decoder: feed it byte chunks of any size (including
/// single bytes) and it yields every complete frame, buffering partial
/// ones. Oversized length prefixes are rejected *before* any body byte is
/// buffered.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
}

impl FrameDecoder {
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Bytes buffered waiting for the rest of a frame.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Appends `chunk` and drains every frame completed by it, in order.
    pub fn push(&mut self, chunk: &[u8]) -> Result<Vec<Vec<u8>>, String> {
        self.buf.extend_from_slice(chunk);
        let mut frames = Vec::new();
        loop {
            if self.buf.len() < 4 {
                return Ok(frames);
            }
            let n = u32::from_le_bytes(self.buf[..4].try_into().expect("4 header bytes")) as usize;
            if n > MAX_FRAME {
                return Err(format!("frame of {n} bytes exceeds MAX_FRAME"));
            }
            if self.buf.len() < 4 + n {
                return Ok(frames);
            }
            frames.push(self.buf[4..4 + n].to_vec());
            self.buf.drain(..4 + n);
        }
    }
}

// ---------------------------------------------------------------------------
// Varint primitives (shared vocabulary with the row/item codecs)
// ---------------------------------------------------------------------------

pub(crate) fn write_varu(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn write_str(out: &mut Vec<u8>, s: &str) {
    write_varu(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn write_bytes(out: &mut Vec<u8>, b: &[u8]) {
    write_varu(out, b.len() as u64);
    out.extend_from_slice(b);
}

pub(crate) struct Wire<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Wire<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Wire<'a> {
        Wire { buf, pos: 0 }
    }

    fn corrupt(&self) -> String {
        format!("corrupt message at byte {}", self.pos)
    }

    fn byte(&mut self) -> Result<u8, String> {
        let b = *self.buf.get(self.pos).ok_or_else(|| self.corrupt())?;
        self.pos += 1;
        Ok(b)
    }

    pub(crate) fn varu(&mut self) -> Result<u64, String> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(self.corrupt())
    }

    pub(crate) fn bytes(&mut self) -> Result<Vec<u8>, String> {
        let n = self.varu()? as usize;
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        let end = end.ok_or_else(|| self.corrupt())?;
        let b = self.buf[self.pos..end].to_vec();
        self.pos = end;
        Ok(b)
    }

    fn string(&mut self) -> Result<String, String> {
        let raw = self.bytes()?;
        String::from_utf8(raw).map_err(|_| self.corrupt())
    }

    fn done(&self) -> Result<(), String> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(format!("{} trailing bytes after message", self.buf.len() - self.pos))
        }
    }
}

// ---------------------------------------------------------------------------
// Task descriptors: the serialization boundary
// ---------------------------------------------------------------------------

/// A partition-labelled description of work shipped to an executor process.
/// Nothing here is a closure: `kind` names a handler the worker's
/// [`TaskRuntime`](super::TaskRuntime) registers, `payload` is that
/// handler's opaque serialized input, and `(shuffle, map_part)` label where
/// the task's output blocks land in the worker's block store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskDesc {
    /// Driver-assigned id, echoed by `TaskDone`/`TaskFailed`.
    pub id: u64,
    /// The shuffle the task's output blocks belong to.
    pub shuffle: u64,
    /// The map partition label of the output blocks.
    pub map_part: u64,
    /// Handler name: `"store-blocks"` is built into every worker; other
    /// kinds dispatch through the worker's task runtime.
    pub kind: String,
    /// Serialized task input (for `store-blocks`: the encoded per-reducer
    /// blocks, see [`encode_store_payload`]).
    pub payload: Vec<u8>,
}

/// Encodes the `store-blocks` payload: a count, then `(reduce partition,
/// block bytes)` entries.
pub fn encode_store_payload(blocks: &[(u64, Vec<u8>)]) -> Vec<u8> {
    let total: usize = blocks.iter().map(|(_, b)| b.len() + 12).sum();
    let mut out = Vec::with_capacity(total + 4);
    write_varu(&mut out, blocks.len() as u64);
    for (reduce, bytes) in blocks {
        write_varu(&mut out, *reduce);
        write_bytes(&mut out, bytes);
    }
    out
}

/// Decodes a `store-blocks` payload back into `(reduce partition, block)`
/// entries.
pub fn decode_store_payload(payload: &[u8]) -> Result<Vec<(u64, Vec<u8>)>, String> {
    let mut w = Wire::new(payload);
    let n = w.varu()? as usize;
    if n > payload.len() + 1 {
        return Err("corrupt store payload: impossible block count".to_string());
    }
    let mut blocks = Vec::with_capacity(n);
    for _ in 0..n {
        let reduce = w.varu()?;
        blocks.push((reduce, w.bytes()?));
    }
    w.done()?;
    Ok(blocks)
}

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

const TAG_REGISTER: u8 = 0;
const TAG_REGISTER_ACK: u8 = 1;
const TAG_HEARTBEAT: u8 = 2;
const TAG_LAUNCH_TASK: u8 = 3;
const TAG_TASK_DONE: u8 = 4;
const TAG_TASK_FAILED: u8 = 5;
const TAG_FETCH_BLOCK: u8 = 6;
const TAG_BLOCK_DATA: u8 = 7;
const TAG_BLOCK_MISSING: u8 = 8;
const TAG_DROP_SHUFFLE: u8 = 9;
const TAG_SHUTDOWN: u8 = 10;
const TAG_DIE: u8 = 11;
const TAG_EVENTS: u8 = 12;
const TAG_GOODBYE: u8 = 13;

// Wire tags for the forwardable [`Event`] subset carried by `Msg::Events`.
// Only events a worker actually emits cross the wire; variants carrying
// `&'static str` or driver-only context are not forwardable and the codec
// rejects them rather than inventing a lossy encoding.
const EV_EXECUTOR_REGISTERED: u8 = 0;
const EV_EXECUTOR_HEARTBEAT: u8 = 1;
const EV_BLOCK_PUSH: u8 = 2;
const EV_BLOCK_FETCH: u8 = 3;

fn encode_event(out: &mut Vec<u8>, ev: &Event) {
    match ev {
        Event::ExecutorRegistered { worker, pid } => {
            out.push(EV_EXECUTOR_REGISTERED);
            write_varu(out, *worker);
            write_varu(out, *pid);
        }
        Event::ExecutorHeartbeat { worker, seq } => {
            out.push(EV_EXECUTOR_HEARTBEAT);
            write_varu(out, *worker);
            write_varu(out, *seq);
        }
        Event::BlockPush { shuffle, map_part, blocks, bytes, worker, dur_us } => {
            out.push(EV_BLOCK_PUSH);
            write_varu(out, *shuffle);
            write_varu(out, *map_part);
            write_varu(out, *blocks);
            write_varu(out, *bytes);
            write_varu(out, *worker);
            write_varu(out, *dur_us);
        }
        Event::BlockFetch { shuffle, map_part, reduce_part, bytes, worker, dur_us } => {
            out.push(EV_BLOCK_FETCH);
            write_varu(out, *shuffle);
            write_varu(out, *map_part);
            write_varu(out, *reduce_part);
            write_varu(out, *bytes);
            write_varu(out, *worker);
            write_varu(out, *dur_us);
        }
        other => unreachable!("event {} is not wire-forwardable", other.name()),
    }
}

fn decode_event(w: &mut Wire<'_>) -> Result<Event, String> {
    Ok(match w.byte()? {
        EV_EXECUTOR_REGISTERED => Event::ExecutorRegistered { worker: w.varu()?, pid: w.varu()? },
        EV_EXECUTOR_HEARTBEAT => Event::ExecutorHeartbeat { worker: w.varu()?, seq: w.varu()? },
        EV_BLOCK_PUSH => Event::BlockPush {
            shuffle: w.varu()?,
            map_part: w.varu()?,
            blocks: w.varu()?,
            bytes: w.varu()?,
            worker: w.varu()?,
            dur_us: w.varu()?,
        },
        EV_BLOCK_FETCH => Event::BlockFetch {
            shuffle: w.varu()?,
            map_part: w.varu()?,
            reduce_part: w.varu()?,
            bytes: w.varu()?,
            worker: w.varu()?,
            dur_us: w.varu()?,
        },
        other => return Err(format!("unknown forwarded-event tag {other}")),
    })
}

/// A protocol message. Control-plane messages (registration, heartbeats,
/// task dispatch/completion, shutdown) flow on the driver↔worker control
/// connection; data-plane messages (`FetchBlock`/`BlockData`) flow on
/// connections to the worker's block service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Msg {
    /// Worker → driver, first message on the control connection. The worker
    /// advertises the address of its block service and its monotonic clock
    /// reading (µs since its event epoch) so the driver can measure a clock
    /// offset for merging forwarded event timestamps. The offset is
    /// *recorded*, never trusted for ordering — sequence numbers order the
    /// stream.
    Register { worker: u64, pid: u64, block_addr: String, clock_us: u64 },
    /// Driver → worker: registration accepted; heartbeat cadence to honour
    /// and the capacity of the worker's bounded event forward buffer.
    RegisterAck { heartbeat_ms: u64, event_capacity: u64 },
    /// Worker → driver, every `heartbeat_ms`; the driver declares a worker
    /// lost when its deadline (`heartbeat_timeout_ms`) lapses.
    Heartbeat { worker: u64, seq: u64 },
    /// Driver → worker: execute a serialized task.
    LaunchTask { task: TaskDesc },
    /// Worker → driver: the task stored `blocks` output blocks totalling
    /// `bytes` bytes.
    TaskDone { task: u64, blocks: u64, bytes: u64 },
    /// Worker → driver: the task failed; the driver decides what recovers.
    TaskFailed { task: u64, error: String },
    /// Reducer → block service: request one map-output block.
    FetchBlock { shuffle: u64, map_part: u64, reduce_part: u64 },
    /// Block service → reducer: the requested block's bytes.
    BlockData { bytes: Vec<u8> },
    /// Block service → reducer: the block is not held here (the worker
    /// restarted or the shuffle was dropped); the driver treats this like a
    /// lost executor and recovers from lineage.
    BlockMissing { shuffle: u64, map_part: u64, reduce_part: u64 },
    /// Driver → worker: release every block of a finished shuffle.
    DropShuffle { shuffle: u64 },
    /// Driver → worker: exit cleanly.
    Shutdown,
    /// Driver → worker (chaos only): drop every block and die abruptly,
    /// without a goodbye — simulates a killed executor for in-process
    /// (thread-mode) workers, where a real `SIGKILL` is not available.
    Die,
    /// Worker → driver: a batch of forwarded executor events. `first_seq`
    /// is the sequence number of `events[0]` (consecutive within the
    /// batch); `dropped` is the cumulative count the worker's bounded
    /// forward buffer has discarded so far, so the driver can account for
    /// loss instead of silently missing events. Each entry pairs the
    /// worker-clock timestamp (µs since the worker's epoch) with the event.
    Events { worker: u64, first_seq: u64, dropped: u64, events: Vec<(u64, Event)> },
    /// Worker → driver, last message before a clean shutdown exit: every
    /// buffered event has been flushed. A worker that dies without a
    /// goodbye had its un-forwarded tail marked lost.
    Goodbye { worker: u64 },
}

impl Msg {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        match self {
            Msg::Register { worker, pid, block_addr, clock_us } => {
                out.push(TAG_REGISTER);
                write_varu(&mut out, *worker);
                write_varu(&mut out, *pid);
                write_str(&mut out, block_addr);
                write_varu(&mut out, *clock_us);
            }
            Msg::RegisterAck { heartbeat_ms, event_capacity } => {
                out.push(TAG_REGISTER_ACK);
                write_varu(&mut out, *heartbeat_ms);
                write_varu(&mut out, *event_capacity);
            }
            Msg::Heartbeat { worker, seq } => {
                out.push(TAG_HEARTBEAT);
                write_varu(&mut out, *worker);
                write_varu(&mut out, *seq);
            }
            Msg::LaunchTask { task } => {
                out.push(TAG_LAUNCH_TASK);
                write_varu(&mut out, task.id);
                write_varu(&mut out, task.shuffle);
                write_varu(&mut out, task.map_part);
                write_str(&mut out, &task.kind);
                write_bytes(&mut out, &task.payload);
            }
            Msg::TaskDone { task, blocks, bytes } => {
                out.push(TAG_TASK_DONE);
                write_varu(&mut out, *task);
                write_varu(&mut out, *blocks);
                write_varu(&mut out, *bytes);
            }
            Msg::TaskFailed { task, error } => {
                out.push(TAG_TASK_FAILED);
                write_varu(&mut out, *task);
                write_str(&mut out, error);
            }
            Msg::FetchBlock { shuffle, map_part, reduce_part }
            | Msg::BlockMissing { shuffle, map_part, reduce_part } => {
                out.push(if matches!(self, Msg::FetchBlock { .. }) {
                    TAG_FETCH_BLOCK
                } else {
                    TAG_BLOCK_MISSING
                });
                write_varu(&mut out, *shuffle);
                write_varu(&mut out, *map_part);
                write_varu(&mut out, *reduce_part);
            }
            Msg::BlockData { bytes } => {
                out.push(TAG_BLOCK_DATA);
                write_bytes(&mut out, bytes);
            }
            Msg::DropShuffle { shuffle } => {
                out.push(TAG_DROP_SHUFFLE);
                write_varu(&mut out, *shuffle);
            }
            Msg::Shutdown => out.push(TAG_SHUTDOWN),
            Msg::Die => out.push(TAG_DIE),
            Msg::Events { worker, first_seq, dropped, events } => {
                out.push(TAG_EVENTS);
                write_varu(&mut out, *worker);
                write_varu(&mut out, *first_seq);
                write_varu(&mut out, *dropped);
                write_varu(&mut out, events.len() as u64);
                for (at_us, ev) in events {
                    write_varu(&mut out, *at_us);
                    encode_event(&mut out, ev);
                }
            }
            Msg::Goodbye { worker } => {
                out.push(TAG_GOODBYE);
                write_varu(&mut out, *worker);
            }
        }
        out
    }

    pub fn decode(buf: &[u8]) -> Result<Msg, String> {
        let mut w = Wire::new(buf);
        let msg = match w.byte()? {
            TAG_REGISTER => Msg::Register {
                worker: w.varu()?,
                pid: w.varu()?,
                block_addr: w.string()?,
                clock_us: w.varu()?,
            },
            TAG_REGISTER_ACK => {
                Msg::RegisterAck { heartbeat_ms: w.varu()?, event_capacity: w.varu()? }
            }
            TAG_HEARTBEAT => Msg::Heartbeat { worker: w.varu()?, seq: w.varu()? },
            TAG_LAUNCH_TASK => Msg::LaunchTask {
                task: TaskDesc {
                    id: w.varu()?,
                    shuffle: w.varu()?,
                    map_part: w.varu()?,
                    kind: w.string()?,
                    payload: w.bytes()?,
                },
            },
            TAG_TASK_DONE => Msg::TaskDone { task: w.varu()?, blocks: w.varu()?, bytes: w.varu()? },
            TAG_TASK_FAILED => Msg::TaskFailed { task: w.varu()?, error: w.string()? },
            TAG_FETCH_BLOCK => {
                Msg::FetchBlock { shuffle: w.varu()?, map_part: w.varu()?, reduce_part: w.varu()? }
            }
            TAG_BLOCK_DATA => Msg::BlockData { bytes: w.bytes()? },
            TAG_BLOCK_MISSING => Msg::BlockMissing {
                shuffle: w.varu()?,
                map_part: w.varu()?,
                reduce_part: w.varu()?,
            },
            TAG_DROP_SHUFFLE => Msg::DropShuffle { shuffle: w.varu()? },
            TAG_SHUTDOWN => Msg::Shutdown,
            TAG_DIE => Msg::Die,
            TAG_EVENTS => {
                let worker = w.varu()?;
                let first_seq = w.varu()?;
                let dropped = w.varu()?;
                let n = w.varu()? as usize;
                if n > buf.len() {
                    return Err("corrupt event batch: impossible event count".to_string());
                }
                let mut events = Vec::with_capacity(n);
                for _ in 0..n {
                    let at_us = w.varu()?;
                    events.push((at_us, decode_event(&mut w)?));
                }
                Msg::Events { worker, first_seq, dropped, events }
            }
            TAG_GOODBYE => Msg::Goodbye { worker: w.varu()? },
            other => return Err(format!("unknown message tag {other}")),
        };
        w.done()?;
        Ok(msg)
    }
}

/// Writes one message as a frame.
pub fn send_msg(w: &mut impl Write, msg: &Msg) -> io::Result<()> {
    write_frame(w, &msg.encode())
}

/// Reads one message frame; `Ok(None)` on clean end-of-stream.
pub fn recv_msg(r: &mut impl Read) -> io::Result<Option<Msg>> {
    match read_frame(r)? {
        None => Ok(None),
        Some(body) => {
            Msg::decode(&body).map(Some).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip_through_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn decoder_handles_byte_at_a_time_delivery() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"ab").unwrap();
        write_frame(&mut buf, b"cdef").unwrap();
        let mut dec = FrameDecoder::new();
        let mut frames = Vec::new();
        for b in &buf {
            frames.extend(dec.push(std::slice::from_ref(b)).unwrap());
        }
        assert_eq!(frames, vec![b"ab".to_vec(), b"cdef".to_vec()]);
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn oversized_frames_are_rejected() {
        let header = ((MAX_FRAME as u32) + 1).to_le_bytes();
        assert!(FrameDecoder::new().push(&header).is_err());
        let mut r = &header[..];
        assert!(read_frame(&mut r).is_err());
        let huge = vec![0u8; MAX_FRAME + 1];
        assert!(write_frame(&mut Vec::new(), &huge).is_err());
    }

    #[test]
    fn message_roundtrip() {
        let msgs = vec![
            Msg::Register {
                worker: 3,
                pid: 4242,
                block_addr: "127.0.0.1:5555".to_string(),
                clock_us: 987654,
            },
            Msg::RegisterAck { heartbeat_ms: 25, event_capacity: 65536 },
            Msg::Heartbeat { worker: 3, seq: 17 },
            Msg::LaunchTask {
                task: TaskDesc {
                    id: 9,
                    shuffle: 2,
                    map_part: 5,
                    kind: "store-blocks".to_string(),
                    payload: vec![1, 2, 3],
                },
            },
            Msg::TaskDone { task: 9, blocks: 4, bytes: 1024 },
            Msg::TaskFailed { task: 9, error: "boom".to_string() },
            Msg::FetchBlock { shuffle: 2, map_part: 5, reduce_part: 1 },
            Msg::BlockData { bytes: vec![0, 255, 7] },
            Msg::BlockMissing { shuffle: 2, map_part: 5, reduce_part: 1 },
            Msg::DropShuffle { shuffle: 2 },
            Msg::Shutdown,
            Msg::Die,
            Msg::Events {
                worker: 3,
                first_seq: 40,
                dropped: 2,
                events: vec![
                    (10, Event::ExecutorRegistered { worker: 3, pid: 4242 }),
                    (20, Event::ExecutorHeartbeat { worker: 3, seq: 1 }),
                    (
                        30,
                        Event::BlockPush {
                            shuffle: 2,
                            map_part: 5,
                            blocks: 4,
                            bytes: 1024,
                            worker: 3,
                            dur_us: 7,
                        },
                    ),
                    (
                        40,
                        Event::BlockFetch {
                            shuffle: 2,
                            map_part: 5,
                            reduce_part: 1,
                            bytes: 256,
                            worker: 3,
                            dur_us: 9,
                        },
                    ),
                ],
            },
            Msg::Events { worker: 0, first_seq: 0, dropped: 0, events: Vec::new() },
            Msg::Goodbye { worker: 3 },
        ];
        for m in msgs {
            assert_eq!(Msg::decode(&m.encode()).unwrap(), m);
        }
        assert!(Msg::decode(&[200]).is_err());
        assert!(Msg::decode(&[]).is_err());
        // A forwarded-event batch with an unknown event tag is rejected.
        let mut bad = vec![TAG_EVENTS];
        for v in [0u64, 0, 0, 1, 5] {
            write_varu(&mut bad, v);
        }
        bad.push(200);
        assert!(Msg::decode(&bad).is_err());
    }

    #[test]
    fn store_payload_roundtrip() {
        let blocks = vec![(0u64, vec![1, 2]), (3u64, Vec::new()), (1u64, vec![9; 100])];
        let enc = encode_store_payload(&blocks);
        assert_eq!(decode_store_payload(&enc).unwrap(), blocks);
        assert!(decode_store_payload(&enc[..enc.len() - 1]).is_err());
    }
}
