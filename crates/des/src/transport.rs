//! Shard transports: how generation-lockstep shards synchronize.
//!
//! The round protocol itself (peek → fold → execute → exchange) lives in
//! [`protocol`](crate::protocol) and is written once against the
//! crate-internal `ShardTransport` trait defined here. A transport only
//! answers two questions per round:
//!
//! * **fold** — given every shard's queue-head time and last-progress
//!   tick, what are the global minimum head `m` and the global maximum
//!   progress? Every shard receives the identical answer, which makes
//!   all halt decisions (drained / tick limit / watchdog) unanimous
//!   without a coordinator vote.
//! * **exchange** — ship this round's cross-shard events, trace records,
//!   and stop/failure flags; deliver the inboxes from every other shard
//!   **in sender order**; report the globally agreed stop/failure state.
//!
//! Three backends implement this:
//!
//! * [`LocalTransport`] — one shard, no siblings: the fold is the local
//!   head and the exchange only flushes trace records. Lock-free; this
//!   is how a one-shard engine runs inline on the calling thread.
//! * [`ThreadTransport`] — the in-process multi-shard backend: shards are
//!   threads sharing spin barriers and mutex-guarded outboxes. Zero
//!   copies beyond the event values themselves.
//! * [`ProcessTransport`] — each shard is its own OS process (a
//!   *worker*), connected over a Unix socket to a parent [`Hub`] that
//!   performs the fold and relays outbox bytes. Payloads cross the wire
//!   in the [`wire`](crate::wire) format; the hub never decodes event
//!   payloads, only the framing, the trace records it must merge, and
//!   the end-of-run summary.
//!
//! Every backend preserves the determinism contract: the fold values and
//! the sender-ordered delivery are identical, so a run is byte-identical
//! across backends and shard counts.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::component::ComponentId;
use crate::engine::{flush_trace, EventStamp, Stamped, TaggedTrace};
use crate::time::{Tick, Time};
use crate::trace::TraceBuffer;

#[cfg(unix)]
pub use process::{Hub, HubHostStats, HubResult, ProcessTransport, WorkerLink, WorkerSetup};

/// Why a transport operation failed. Only the process backend can fail;
/// the in-process backend panics on programming errors instead.
#[derive(Debug)]
pub enum TransportError {
    /// The underlying socket failed (peer died, timed out, or the
    /// connection broke).
    Io(std::io::Error),
    /// The peer sent a frame that violates the round protocol.
    Protocol(String),
    /// The hub aborted the run (another worker failed).
    Aborted,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Io(e) => write!(f, "transport i/o: {e}"),
            TransportError::Protocol(msg) => write!(f, "transport protocol violation: {msg}"),
            TransportError::Aborted => write!(f, "run aborted by the hub"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io(e)
    }
}

/// The identical fold result every shard observes for one round.
pub(crate) struct RoundFold {
    /// Global minimum queue-head time; `None` when every queue is empty.
    pub m: Option<Time>,
    /// Global maximum last-progress tick.
    pub global_progress: Tick,
}

/// The globally agreed end-of-round state.
pub(crate) struct RoundEnd {
    /// Some shard requested an orderly stop this round.
    pub stopped: bool,
    /// The smallest-stamp failure reported this round, if any.
    pub failure: Option<String>,
}

/// What one shard ships at the end of a round.
pub(crate) struct RoundOut<'a, E> {
    /// Per-destination-shard events scheduled this round. Drained by the
    /// transport; capacity is retained for reuse.
    pub outboxes: &'a mut [Vec<(ComponentId, Time, Stamped<E>)>],
    /// Trace records made this round, stamp-tagged for the merge.
    pub traces: &'a mut Vec<TaggedTrace>,
    /// This shard requested an orderly stop.
    pub stop: bool,
    /// This shard's smallest-stamp failure this round.
    pub failure: Option<(EventStamp, String)>,
    /// Events executed locally this round. Strictly informational: the
    /// process transport trails it on the EXCH frame so the hub can feed
    /// the live-progress heartbeat; it never influences what the
    /// transport delivers back. The thread transport ignores it.
    pub events: u64,
}

/// One synchronization backend for the generation-lockstep protocol. See
/// the [module docs](self) for the contract.
pub(crate) trait ShardTransport<E> {
    /// Whether this transport serves one shard with no peers, so every
    /// scheduled event belongs in the local queue.
    const ALONE: bool = false;

    /// Publishes this shard's queue head and progress tick; returns the
    /// global fold. Blocks until every shard has contributed.
    fn fold(&mut self, peek: Option<Time>, progress: Tick) -> Result<RoundFold, TransportError>;

    /// Ships `out`, then delivers every inbound event (sender order:
    /// shard 0's events first, then shard 1's, …) through `deliver`, and
    /// returns the agreed halt flags. Blocks until the round completes.
    fn exchange(
        &mut self,
        out: RoundOut<'_, E>,
        deliver: &mut dyn FnMut(ComponentId, Time, Stamped<E>),
    ) -> Result<RoundEnd, TransportError>;
}

// ---------------------------------------------------------------------------
// One-shard backend
// ---------------------------------------------------------------------------

/// The transport of a one-shard run. With no siblings there is nothing to
/// wait for, fold, or ship: every scheduled event is already in the local
/// queue, and the round's trace records are already canonical (the one
/// shard executes the whole generation in stamp order).
pub(crate) struct LocalTransport<'a> {
    buffer: Option<&'a mut TraceBuffer>,
}

impl<'a> LocalTransport<'a> {
    /// A transport flushing trace records into `buffer`, if tracing.
    pub(crate) fn new(buffer: Option<&'a mut TraceBuffer>) -> Self {
        LocalTransport { buffer }
    }
}

impl<E> ShardTransport<E> for LocalTransport<'_> {
    const ALONE: bool = true;

    #[inline]
    fn fold(&mut self, peek: Option<Time>, progress: Tick) -> Result<RoundFold, TransportError> {
        Ok(RoundFold {
            m: peek,
            global_progress: progress,
        })
    }

    #[inline]
    fn exchange(
        &mut self,
        out: RoundOut<'_, E>,
        _deliver: &mut dyn FnMut(ComponentId, Time, Stamped<E>),
    ) -> Result<RoundEnd, TransportError> {
        debug_assert!(
            out.outboxes.iter().all(Vec::is_empty),
            "one shard has no peers"
        );
        if let Some(buffer) = self.buffer.as_deref_mut() {
            flush_trace(buffer, out.traces);
        }
        Ok(RoundEnd {
            stopped: out.stop,
            failure: out.failure.map(|(_, msg)| msg),
        })
    }
}

// ---------------------------------------------------------------------------
// In-process (thread) backend
// ---------------------------------------------------------------------------

/// A sense-reversing spin barrier.
///
/// Rounds are as fine-grained as one generation (often a handful of
/// events), so parking threads on a mutex/condvar barrier would dominate
/// the run time. Threads spin briefly, then yield. The atomics form the
/// usual release/acquire chain, so writes made before a `wait` are
/// visible to every thread after it.
struct SpinBarrier {
    count: AtomicUsize,
    sense: AtomicBool,
    n: usize,
}

impl SpinBarrier {
    fn new(n: usize) -> Self {
        SpinBarrier {
            count: AtomicUsize::new(0),
            sense: AtomicBool::new(false),
            n,
        }
    }

    /// Blocks until all `n` threads arrive. `local_sense` is each
    /// thread's private phase flag. Panics (poisoning every waiter) if
    /// `poisoned` is raised — see [`PanicFence`].
    fn wait(&self, local_sense: &mut bool, poisoned: &AtomicBool) {
        *local_sense = !*local_sense;
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.count.store(0, Ordering::Release);
            self.sense.store(*local_sense, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.sense.load(Ordering::Acquire) != *local_sense {
                if poisoned.load(Ordering::Acquire) {
                    panic!("a sibling shard thread panicked");
                }
                spins = spins.wrapping_add(1);
                if spins < 128 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// Raises the poison flag if dropped during a panic, so sibling threads
/// spinning at a barrier abort instead of waiting forever.
pub(crate) struct PanicFence<'a> {
    poisoned: &'a AtomicBool,
    armed: bool,
}

impl<'a> PanicFence<'a> {
    /// Arms a fence against the shared poison flag.
    pub(crate) fn arm(poisoned: &'a AtomicBool) -> Self {
        PanicFence {
            poisoned,
            armed: true,
        }
    }

    /// Disarms on the clean exit path.
    pub(crate) fn disarm(&mut self) {
        self.armed = false;
    }
}

impl Drop for PanicFence<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.poisoned.store(true, Ordering::Release);
        }
    }
}

/// One pending cross-shard event: target, delivery time, stamped payload.
type OutboxEntry<E> = (ComponentId, Time, Stamped<E>);

/// State shared by every [`ThreadTransport`] endpoint of one run.
pub(crate) struct ThreadShared<E> {
    barrier: SpinBarrier,
    pub(crate) poisoned: AtomicBool,
    /// Per-shard published (queue head, last-progress tick).
    peeks: Vec<Mutex<(Option<Time>, Tick)>>,
    /// `outboxes[dst][src]`: receivers drain in sender order.
    outboxes: Vec<Vec<Mutex<Vec<OutboxEntry<E>>>>>,
    round_traces: Vec<Mutex<Vec<TaggedTrace>>>,
    stop_flag: AtomicBool,
    failure: Mutex<Option<(EventStamp, String)>>,
}

impl<E> ThreadShared<E> {
    pub(crate) fn new(n: usize, start_progress: Tick) -> Self {
        ThreadShared {
            barrier: SpinBarrier::new(n),
            poisoned: AtomicBool::new(false),
            peeks: (0..n).map(|_| Mutex::new((None, start_progress))).collect(),
            outboxes: (0..n)
                .map(|_| (0..n).map(|_| Mutex::new(Vec::new())).collect())
                .collect(),
            round_traces: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
            stop_flag: AtomicBool::new(false),
            failure: Mutex::new(None),
        }
    }
}

/// One shard thread's endpoint of the in-process backend.
pub(crate) struct ThreadTransport<'a, E> {
    shared: &'a ThreadShared<E>,
    s: usize,
    local_sense: bool,
    /// Only the first shard holds the trace ring and performs the merge.
    buffer: Option<&'a mut TraceBuffer>,
    merge_scratch: Vec<TaggedTrace>,
}

impl<'a, E> ThreadTransport<'a, E> {
    pub(crate) fn new(
        shared: &'a ThreadShared<E>,
        s: usize,
        buffer: Option<&'a mut TraceBuffer>,
    ) -> Self {
        ThreadTransport {
            shared,
            s,
            local_sense: false,
            buffer,
            merge_scratch: Vec::new(),
        }
    }
}

impl<E> ShardTransport<E> for ThreadTransport<'_, E> {
    fn fold(&mut self, peek: Option<Time>, progress: Tick) -> Result<RoundFold, TransportError> {
        let sh = self.shared;
        // Publish the local head time and the tick of this shard's last
        // productive generation, then wait for every sibling.
        *sh.peeks[self.s].lock().unwrap() = (peek, progress);
        sh.barrier.wait(&mut self.local_sense, &sh.poisoned);
        // Identical global-minimum (and global max-progress) computation
        // on every shard: same inputs, same result, no coordinator.
        let mut m: Option<Time> = None;
        let mut global_progress = progress;
        for p in &sh.peeks {
            let (v, lp) = *p.lock().unwrap();
            m = match (m, v) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            global_progress = global_progress.max(lp);
        }
        Ok(RoundFold { m, global_progress })
    }

    fn exchange(
        &mut self,
        out: RoundOut<'_, E>,
        deliver: &mut dyn FnMut(ComponentId, Time, Stamped<E>),
    ) -> Result<RoundEnd, TransportError> {
        let sh = self.shared;
        let s = self.s;
        // Smallest-stamp failure wins: the first in canonical order.
        if let Some((stamp, msg)) = out.failure {
            let mut slot = sh.failure.lock().unwrap();
            if slot.as_ref().is_none_or(|(st, _)| stamp < *st) {
                *slot = Some((stamp, msg));
            }
        }
        if out.stop {
            sh.stop_flag.store(true, Ordering::Release);
        }
        // Ship remote events and this round's traces.
        for (dst, o) in out.outboxes.iter_mut().enumerate() {
            if !o.is_empty() {
                sh.outboxes[dst][s].lock().unwrap().append(o);
            }
        }
        if !out.traces.is_empty() {
            sh.round_traces[s].lock().unwrap().append(out.traces);
        }
        sh.barrier.wait(&mut self.local_sense, &sh.poisoned);

        // Merge traces (shard 0), deliver inboxes, observe halt flags —
        // all consistent because the flags were raised before the
        // barrier.
        if let Some(buffer) = self.buffer.as_deref_mut() {
            for rt in &sh.round_traces {
                self.merge_scratch.append(&mut rt.lock().unwrap());
            }
            self.merge_scratch
                .sort_unstable_by_key(|t| (t.stamp, t.recno));
            flush_trace(buffer, &mut self.merge_scratch);
        }
        for src in sh.outboxes[s].iter() {
            let mut v = std::mem::take(&mut *src.lock().unwrap());
            for (target, time, stamped) in v.drain(..) {
                deliver(target, time, stamped);
            }
            // Return the drained vector so its capacity is reused next
            // round instead of reallocated by the sender; safe because
            // the sender's next append is on the far side of the next
            // fold barrier.
            *src.lock().unwrap() = v;
        }
        let failure = sh
            .failure
            .lock()
            .unwrap()
            .as_ref()
            .map(|(_, msg)| msg.clone());
        let stopped = sh.stop_flag.load(Ordering::Acquire);
        Ok(RoundEnd { stopped, failure })
    }
}

// ---------------------------------------------------------------------------
// Multi-process (Unix socket) backend
// ---------------------------------------------------------------------------

#[cfg(unix)]
mod process {
    use std::cell::RefCell;
    use std::io::{self, BufReader, BufWriter};
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::rc::Rc;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use super::{RoundEnd, RoundFold, RoundOut, ShardTransport, TransportError};
    use crate::component::ComponentId;
    use crate::engine::{flush_trace, EngineMetrics, EventStamp, RunOutcome, Stamped, TaggedTrace};
    use crate::host::{HostShardTimes, ProgressShared};
    use crate::time::{Tick, Time};
    use crate::trace::TraceBuffer;
    use crate::wire::{
        get_bytes, get_str, get_u8, get_varint, put_bytes, put_str, put_varint, read_frame,
        write_frame, WireCodec,
    };

    /// Frame tags of the worker ↔ hub protocol, in handshake order.
    pub(crate) mod tag {
        pub const HELLO: u8 = 1;
        pub const SETUP: u8 = 2;
        pub const FOLD: u8 = 3;
        pub const FOLD_R: u8 = 4;
        pub const EXCH: u8 = 5;
        pub const EXCH_R: u8 = 6;
        pub const DONE: u8 = 7;
        pub const PARTIAL: u8 = 8;
        pub const ABORT: u8 = 9;
        pub const CKPT: u8 = 10;
    }

    fn proto_err<T>(msg: impl Into<String>) -> Result<T, TransportError> {
        Err(TransportError::Protocol(msg.into()))
    }

    /// Deliberate mid-run worker misbehavior for robustness tests,
    /// driven by the `SUPERSIM_TEST_WORKER_FAIL` environment variable:
    /// `"exit:<worker>:<round>"` makes that worker exit abruptly at that
    /// fold round, `"hang:<worker>:<round>"` makes it sleep forever.
    #[derive(Clone, Copy)]
    enum FailMode {
        Exit,
        Hang,
    }

    fn parse_fail_hook(my_index: u32) -> Option<(FailMode, u64)> {
        let spec = std::env::var("SUPERSIM_TEST_WORKER_FAIL").ok()?;
        let mut parts = spec.split(':');
        let mode = match parts.next()? {
            "exit" => FailMode::Exit,
            "hang" => FailMode::Hang,
            _ => return None,
        };
        let worker: u32 = parts.next()?.parse().ok()?;
        let round: u64 = parts.next()?.parse().ok()?;
        (worker == my_index).then_some((mode, round))
    }

    /// What the hub tells a worker right after the handshake.
    pub struct WorkerSetup {
        /// Total number of workers in the run.
        pub workers: u32,
        /// Socket read timeout both sides use, in milliseconds.
        pub timeout_ms: u64,
        /// Opaque application payload (e.g. the resolved configuration).
        pub payload: Vec<u8>,
    }

    /// A worker's endpoint of the process backend: one Unix socket to the
    /// parent [`Hub`].
    pub struct ProcessTransport {
        reader: BufReader<UnixStream>,
        writer: BufWriter<UnixStream>,
        my_index: u32,
        num_workers: u32,
        scratch: Vec<u8>,
        fail_hook: Option<(FailMode, u64)>,
        rounds: u64,
    }

    impl ProcessTransport {
        fn read_expect(&mut self, want: u8) -> Result<Vec<u8>, TransportError> {
            let (tag, body) = read_frame(&mut self.reader)?;
            if tag == tag::ABORT {
                return Err(TransportError::Aborted);
            }
            if tag != want {
                return proto_err(format!("expected frame tag {want}, got {tag}"));
            }
            Ok(body)
        }

        /// Sends the end-of-run summary: the locally decided outcome (the
        /// fold makes it identical on every worker), the final time and
        /// progress tick, this shard's executor metrics, and its host-time
        /// record (all-zero when profiling is disarmed). The DONE frame is
        /// end-of-run, so the host payload cannot influence delivery.
        pub fn finish(
            &mut self,
            outcome: &RunOutcome,
            local_now: Time,
            global_progress: Tick,
            metrics: &EngineMetrics,
            host: &HostShardTimes,
        ) -> Result<(), TransportError> {
            let mut body = Vec::new();
            outcome.encode(&mut body);
            local_now.encode(&mut body);
            put_varint(&mut body, global_progress);
            metrics.encode(&mut body);
            host.encode(&mut body);
            write_frame(&mut self.writer, tag::DONE, &body)?;
            Ok(())
        }

        /// Sends the opaque end-of-run partial (component statistics
        /// encoded by the layer above).
        pub fn send_partial(&mut self, payload: &[u8]) -> Result<(), TransportError> {
            write_frame(&mut self.writer, tag::PARTIAL, payload)?;
            Ok(())
        }

        /// Ships this shard's checkpoint blob for the boundary at `at`.
        /// Fire-and-forget: the worker resumes immediately; the hub
        /// collects one CKPT from every worker (the tick-limit pause is
        /// unanimous, so the frames arrive in lockstep) and assembles
        /// the checkpoint file.
        pub fn checkpoint(&mut self, at: Time, blob: &[u8]) -> Result<(), TransportError> {
            let mut body = Vec::new();
            at.encode(&mut body);
            put_bytes(&mut body, blob);
            write_frame(&mut self.writer, tag::CKPT, &body)?;
            Ok(())
        }

        /// Total workers in the run.
        pub fn num_workers(&self) -> u32 {
            self.num_workers
        }

        /// This worker's index.
        pub fn my_index(&self) -> u32 {
            self.my_index
        }
    }

    impl<E: WireCodec> ShardTransport<E> for ProcessTransport {
        fn fold(
            &mut self,
            peek: Option<Time>,
            progress: Tick,
        ) -> Result<RoundFold, TransportError> {
            if let Some((mode, round)) = self.fail_hook {
                if self.rounds == round {
                    match mode {
                        FailMode::Exit => std::process::exit(17),
                        FailMode::Hang => loop {
                            std::thread::sleep(Duration::from_secs(3600));
                        },
                    }
                }
            }
            self.rounds += 1;
            self.scratch.clear();
            let mut body = std::mem::take(&mut self.scratch);
            peek.encode(&mut body);
            put_varint(&mut body, progress);
            write_frame(&mut self.writer, tag::FOLD, &body)?;
            self.scratch = body;
            let reply = self.read_expect(tag::FOLD_R)?;
            let buf = &mut reply.as_slice();
            let (Some(m), Some(global_progress)) = (Option::<Time>::decode(buf), get_varint(buf))
            else {
                return proto_err("malformed FOLD_R");
            };
            Ok(RoundFold { m, global_progress })
        }

        fn exchange(
            &mut self,
            out: RoundOut<'_, E>,
            deliver: &mut dyn FnMut(ComponentId, Time, Stamped<E>),
        ) -> Result<RoundEnd, TransportError> {
            self.scratch.clear();
            let mut body = std::mem::take(&mut self.scratch);
            body.push(u8::from(out.stop));
            match &out.failure {
                None => body.push(0),
                Some((stamp, msg)) => {
                    body.push(1);
                    stamp.encode(&mut body);
                    put_str(&mut body, msg);
                }
            }
            out.traces.encode(&mut body);
            out.traces.clear();
            // One length-prefixed blob per destination shard; the blob
            // interior (count + events) is opaque to the hub, which only
            // concatenates blobs in sender order.
            let mut blob = Vec::new();
            for o in out.outboxes.iter_mut() {
                blob.clear();
                put_varint(&mut blob, o.len() as u64);
                for (target, time, stamped) in o.drain(..) {
                    put_varint(&mut blob, target.index() as u64);
                    time.encode(&mut blob);
                    stamped.stamp.encode(&mut blob);
                    stamped.payload.encode(&mut blob);
                }
                put_bytes(&mut body, &blob);
            }
            // Trailing, strictly informational: events executed this
            // round, feeding the hub's live-progress board. The hub
            // never copies it into any EXCH_R reply, so event delivery
            // is provably independent of it.
            put_varint(&mut body, out.events);
            write_frame(&mut self.writer, tag::EXCH, &body)?;
            self.scratch = body;

            let reply = self.read_expect(tag::EXCH_R)?;
            let buf = &mut reply.as_slice();
            let Some(stopped) = get_u8(buf) else {
                return proto_err("malformed EXCH_R");
            };
            let Some(failure) = Option::<String>::decode_with(buf, get_str) else {
                return proto_err("malformed EXCH_R failure");
            };
            // The inbox: one count-prefixed event list per source shard,
            // in sender order.
            for _src in 0..self.num_workers {
                let Some(count) = get_varint(buf) else {
                    return proto_err("malformed EXCH_R inbox");
                };
                for _ in 0..count {
                    let decoded = (|| {
                        let target = usize::try_from(get_varint(buf)?).ok()?;
                        let time = Time::decode(buf)?;
                        let stamp = EventStamp::decode(buf)?;
                        let payload = E::decode(buf)?;
                        Some((ComponentId::from_index(target), time, stamp, payload))
                    })();
                    let Some((target, time, stamp, payload)) = decoded else {
                        return proto_err("malformed EXCH_R event");
                    };
                    deliver(target, time, Stamped { stamp, payload });
                }
            }
            Ok(RoundEnd {
                stopped: stopped != 0,
                failure,
            })
        }
    }

    /// Helper: decode an `Option<T>` whose payload needs a custom reader.
    trait OptionDecodeExt: Sized {
        type Item;
        fn decode_with(
            buf: &mut &[u8],
            read: impl Fn(&mut &[u8]) -> Option<Self::Item>,
        ) -> Option<Self>;
    }

    impl<T> OptionDecodeExt for Option<T> {
        type Item = T;
        fn decode_with(buf: &mut &[u8], read: impl Fn(&mut &[u8]) -> Option<T>) -> Option<Self> {
            match get_u8(buf)? {
                0 => Some(None),
                1 => Some(Some(read(buf)?)),
                _ => None,
            }
        }
    }

    /// A cheaply clonable handle to a worker's [`ProcessTransport`].
    ///
    /// The engine owns the transport for the duration of a run (it drives
    /// fold/exchange rounds), but the process entry point still needs it
    /// afterwards to ship the end-of-run partial — hence the shared
    /// handle. Single-threaded by construction: one worker process, one
    /// socket.
    #[derive(Clone)]
    pub struct WorkerLink(pub(crate) Rc<RefCell<ProcessTransport>>);

    impl WorkerLink {
        /// Connects to the hub at `path`, introduces this worker by
        /// `index`, and waits for the hub's setup frame.
        pub fn connect(
            path: &str,
            index: u32,
        ) -> Result<(WorkerLink, WorkerSetup), TransportError> {
            let stream = UnixStream::connect(path)?;
            let writer = BufWriter::new(stream.try_clone()?);
            let mut transport = ProcessTransport {
                reader: BufReader::new(stream),
                writer,
                my_index: index,
                num_workers: 0,
                scratch: Vec::new(),
                fail_hook: parse_fail_hook(index),
                rounds: 0,
            };
            let mut hello = Vec::new();
            put_varint(&mut hello, u64::from(index));
            write_frame(&mut transport.writer, tag::HELLO, &hello)?;
            let body = transport.read_expect(tag::SETUP)?;
            let buf = &mut body.as_slice();
            let setup = (|| {
                let workers = u32::try_from(get_varint(buf)?).ok()?;
                let timeout_ms = get_varint(buf)?;
                let payload = get_bytes(buf)?.to_vec();
                Some(WorkerSetup {
                    workers,
                    timeout_ms,
                    payload,
                })
            })();
            let Some(setup) = setup else {
                return proto_err("malformed SETUP");
            };
            transport.num_workers = setup.workers;
            // A dead or wedged parent must not strand the worker: reads
            // time out with the same budget the hub uses.
            if setup.timeout_ms > 0 {
                transport
                    .reader
                    .get_ref()
                    .set_read_timeout(Some(Duration::from_millis(setup.timeout_ms)))?;
            }
            Ok((WorkerLink(Rc::new(RefCell::new(transport))), setup))
        }

        /// Sends the opaque end-of-run partial. Best-effort on an aborted
        /// run: the error is returned but the worker can still exit
        /// cleanly.
        pub fn send_partial(&self, payload: &[u8]) -> Result<(), TransportError> {
            self.0.borrow_mut().send_partial(payload)
        }
    }

    // -----------------------------------------------------------------
    // Hub (parent side)
    // -----------------------------------------------------------------

    struct HubConn {
        reader: BufReader<UnixStream>,
        writer: BufWriter<UnixStream>,
        alive: bool,
    }

    /// What the hub hands back when the run ends (or degrades).
    pub struct HubResult {
        /// The agreed run outcome (from the workers' DONE frames), or a
        /// synthesized failure when the run degraded.
        pub outcome: RunOutcome,
        /// Time of the last executed generation.
        pub end_time: Time,
        /// Tick of the last globally agreed progress report.
        pub last_progress: Tick,
        /// Per-worker executor metrics, in worker order. Empty when the
        /// run degraded before completion.
        pub metrics: Vec<EngineMetrics>,
        /// Per-worker host-time records from the DONE frames, in worker
        /// order (all-zero records when profiling was disarmed). Empty
        /// when the run degraded.
        pub host: Vec<HostShardTimes>,
        /// Hub-side wire and fold accounting for the run.
        pub hub_stats: HubHostStats,
        /// Per-worker opaque end-of-run partials, in worker order.
        /// `None` for workers that died before delivering one.
        pub partials: Vec<Option<Vec<u8>>>,
        /// `Some((worker, reason))` when a worker died or hung and the
        /// run was aborted; the remaining fields hold best-effort data.
        pub error: Option<(u32, String)>,
    }

    /// Hub-side host accounting: wire traffic per worker and the wall
    /// time the hub spent computing and broadcasting folds. Byte counts
    /// are always on (one add per frame); fold timing only when armed
    /// via [`Hub::set_host_profiling`].
    #[derive(Debug, Clone, Default)]
    pub struct HubHostStats {
        /// Rounds (FOLD frames) the hub relayed.
        pub rounds: u64,
        /// Wall time inside the hub's fold computation + broadcast, in
        /// nanoseconds (0 when profiling is disarmed).
        pub fold_ns: u64,
        /// Frame-body bytes received from each worker, in worker order.
        pub wire_in_bytes: Vec<u64>,
        /// Frame-body bytes sent to each worker, in worker order.
        pub wire_out_bytes: Vec<u64>,
    }

    /// A callback the parent installs to persist assembled checkpoint
    /// blobs: invoked with the boundary time and the uniform engine-state
    /// blob each time every worker ships a CKPT frame for one boundary.
    pub type CheckpointSink = Box<dyn FnMut(Time, &[u8])>;

    /// The parent-side relay of the process backend.
    ///
    /// The hub is payload-agnostic: it computes the per-round fold,
    /// concatenates outbox blobs in sender order, merges trace records,
    /// and folds stop/failure flags. It knows nothing about tick limits
    /// or watchdogs — every halt decision is taken worker-side from the
    /// identical fold values, so the workers halt unanimously and tell
    /// the hub via their DONE frames.
    pub struct Hub {
        conns: Vec<HubConn>,
        trace: Option<TraceBuffer>,
        merge_scratch: Vec<TaggedTrace>,
        checkpoint_sink: Option<CheckpointSink>,
        /// When set, the hub times its fold computation (host clock
        /// only — never feeds the protocol).
        host_profiling: bool,
        fold_ns: u64,
        rounds: u64,
        /// Frame-body bytes in/out per worker (always counted; a u64
        /// add per frame).
        wire_in: Vec<u64>,
        wire_out: Vec<u64>,
        /// Cumulative executed-event counts per worker, rebuilt from
        /// the informational deltas trailing each EXCH frame.
        events_cum: Vec<u64>,
        progress: Option<Arc<ProgressShared>>,
    }

    impl Hub {
        /// Accepts `n` worker connections on `listener`, orders them by
        /// their HELLO index, and sends each the setup frame. `timeout`
        /// bounds the whole accept phase and every later read.
        pub fn accept(
            listener: &UnixListener,
            n: u32,
            timeout: Duration,
            setup_payload: &[u8],
            trace_capacity: Option<usize>,
        ) -> Result<Hub, TransportError> {
            listener.set_nonblocking(true)?;
            let deadline = Instant::now() + timeout;
            let mut conns: Vec<Option<HubConn>> = (0..n).map(|_| None).collect();
            let mut connected = 0u32;
            while connected < n {
                match listener.accept() {
                    Ok((stream, _)) => {
                        stream.set_read_timeout(Some(timeout))?;
                        let mut reader = BufReader::new(stream.try_clone()?);
                        let (tag, body) = read_frame(&mut reader)?;
                        if tag != tag::HELLO {
                            return proto_err(format!("expected HELLO, got tag {tag}"));
                        }
                        let Some(index) = get_varint(&mut body.as_slice()) else {
                            return proto_err("malformed HELLO");
                        };
                        let idx = usize::try_from(index)
                            .ok()
                            .filter(|&i| i < n as usize)
                            .ok_or_else(|| {
                                TransportError::Protocol(format!(
                                    "worker index {index} out of range"
                                ))
                            })?;
                        if conns[idx].is_some() {
                            return proto_err(format!("duplicate worker index {idx}"));
                        }
                        conns[idx] = Some(HubConn {
                            writer: BufWriter::new(stream),
                            reader,
                            alive: true,
                        });
                        connected += 1;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        if Instant::now() >= deadline {
                            return Err(TransportError::Io(io::Error::new(
                                io::ErrorKind::TimedOut,
                                format!("only {connected}/{n} workers connected"),
                            )));
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(e) => return Err(TransportError::Io(e)),
                }
            }
            let mut conns: Vec<HubConn> = conns.into_iter().map(|c| c.unwrap()).collect();
            let mut setup = Vec::new();
            put_varint(&mut setup, u64::from(n));
            put_varint(&mut setup, timeout.as_millis() as u64);
            put_bytes(&mut setup, setup_payload);
            for c in &mut conns {
                write_frame(&mut c.writer, tag::SETUP, &setup)?;
            }
            let n = conns.len();
            Ok(Hub {
                conns,
                trace: trace_capacity.map(TraceBuffer::with_capacity),
                merge_scratch: Vec::new(),
                checkpoint_sink: None,
                host_profiling: false,
                fold_ns: 0,
                rounds: 0,
                wire_in: vec![0; n],
                wire_out: vec![0; n],
                events_cum: vec![0; n],
                progress: None,
            })
        }

        /// Arms (or disarms) hub-side fold timing. Purely host-side
        /// observability: the wire protocol and every reply the hub
        /// sends are byte-identical either way.
        pub fn set_host_profiling(&mut self, on: bool) {
            self.host_profiling = on;
        }

        /// Installs a live-progress board the hub publishes to as
        /// rounds complete: the fold tick, round count, and per-worker
        /// cumulative executed events. Out-of-band — readers only.
        pub fn set_progress(&mut self, board: Arc<ProgressShared>) {
            self.progress = Some(board);
        }

        /// Hub-side wire/fold accounting accumulated so far.
        pub fn host_stats(&self) -> HubHostStats {
            HubHostStats {
                rounds: self.rounds,
                fold_ns: self.fold_ns,
                wire_in_bytes: self.wire_in.clone(),
                wire_out_bytes: self.wire_out.clone(),
            }
        }

        /// Installs the checkpoint sink: invoked with the boundary time
        /// and the assembled engine-state blob (trace section + shard
        /// blobs, the uniform layout every backend writes) each time all
        /// workers ship a CKPT frame for the same boundary. Without a
        /// sink, CKPT frames are folded and dropped.
        pub fn set_checkpoint_sink(&mut self, sink: CheckpointSink) {
            self.checkpoint_sink = Some(sink);
        }

        /// Restores the hub-side trace ring from a checkpoint's engine
        /// blob. Only the leading trace section is consumed — the shard
        /// blobs are each worker's concern. `false` on malformed input
        /// or an armed/disarmed mismatch. Must run before [`Hub::run`]:
        /// the ring otherwise replays post-checkpoint records the
        /// resumed run will produce again.
        pub fn load_trace(&mut self, buf: &mut &[u8]) -> bool {
            crate::snapshot::get_trace(buf, self.trace.as_mut()).is_some()
        }

        /// The merged trace records collected over the run (empty when
        /// tracing was not armed).
        pub fn trace_records(&self) -> Vec<crate::trace::TraceEvent> {
            self.trace.as_ref().map(|t| t.records()).unwrap_or_default()
        }

        /// Drives rounds until every worker reports DONE, then collects
        /// the per-worker partials. Never returns `Err` for a *worker*
        /// failure — that degrades into `HubResult::error` with
        /// best-effort partials — only for hub-side invariant
        /// violations.
        pub fn run(&mut self) -> HubResult {
            match self.run_rounds() {
                Ok(result) => result,
                Err((worker, reason)) => self.degrade(worker, reason),
            }
        }

        /// One worker's next frame, or `(index, reason)` on failure.
        fn read_from(&mut self, w: usize) -> Result<(u8, Vec<u8>), (u32, String)> {
            let frame = read_frame(&mut self.conns[w].reader).map_err(|e| {
                self.conns[w].alive = false;
                let reason = match e.kind() {
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
                        "no frame within the timeout budget (worker hung?)".to_string()
                    }
                    io::ErrorKind::UnexpectedEof => "connection closed (worker died?)".to_string(),
                    _ => e.to_string(),
                };
                (w as u32, reason)
            })?;
            self.wire_in[w] += frame.1.len() as u64;
            Ok(frame)
        }

        fn send_to(&mut self, w: usize, tag: u8, body: &[u8]) -> Result<(), (u32, String)> {
            self.wire_out[w] += body.len() as u64;
            write_frame(&mut self.conns[w].writer, tag, body).map_err(|e| {
                self.conns[w].alive = false;
                (w as u32, e.to_string())
            })
        }

        fn run_rounds(&mut self) -> Result<HubResult, (u32, String)> {
            let n = self.conns.len();
            loop {
                // Workers act in lockstep: each round every worker sends
                // the same next tag, so frames can be read in worker
                // order without a poll loop.
                let mut frames = Vec::with_capacity(n);
                for w in 0..n {
                    frames.push(self.read_from(w)?);
                }
                let round_tag = frames[0].0;
                if let Some(w) = frames.iter().position(|(t, _)| *t != round_tag) {
                    return Err((
                        w as u32,
                        format!(
                            "protocol desync: expected tag {round_tag}, got {}",
                            frames[w].0
                        ),
                    ));
                }
                match round_tag {
                    tag::FOLD => self.round_fold(&frames)?,
                    tag::EXCH => self.round_exchange(frames)?,
                    tag::CKPT => self.round_checkpoint(&frames)?,
                    tag::DONE => return self.collect_done(frames),
                    other => {
                        return Err((0, format!("unexpected frame tag {other} mid-run")));
                    }
                }
            }
        }

        fn round_fold(&mut self, frames: &[(u8, Vec<u8>)]) -> Result<(), (u32, String)> {
            let t_fold = self.host_profiling.then(Instant::now);
            let mut m: Option<Time> = None;
            let mut global_progress: Tick = 0;
            for (w, (_, body)) in frames.iter().enumerate() {
                let buf = &mut body.as_slice();
                let (Some(peek), Some(progress)) = (Option::<Time>::decode(buf), get_varint(buf))
                else {
                    return Err((w as u32, "malformed FOLD".into()));
                };
                m = match (m, peek) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
                global_progress = global_progress.max(progress);
            }
            let mut reply = Vec::new();
            m.encode(&mut reply);
            put_varint(&mut reply, global_progress);
            for w in 0..self.conns.len() {
                self.send_to(w, tag::FOLD_R, &reply)?;
            }
            self.rounds += 1;
            if let Some(t0) = t_fold {
                self.fold_ns += t0.elapsed().as_nanos() as u64;
            }
            if let Some(board) = &self.progress {
                if let Some(m) = m {
                    board.record_tick(m.tick());
                }
                board.add_round();
            }
            Ok(())
        }

        fn round_exchange(&mut self, frames: Vec<(u8, Vec<u8>)>) -> Result<(), (u32, String)> {
            let n = self.conns.len();
            let mut stopped = false;
            let mut failure: Option<(EventStamp, String)> = None;
            // blobs[src][dst]: the opaque (count + events) byte runs.
            let mut blobs: Vec<Vec<&[u8]>> = Vec::with_capacity(n);
            for (w, (_, body)) in frames.iter().enumerate() {
                let buf = &mut body.as_slice();
                let parsed = (|| {
                    let stop = get_u8(buf)?;
                    let fail = Option::<(EventStamp, String)>::decode_with(buf, |b| {
                        let stamp = EventStamp::decode(b)?;
                        let msg = get_str(b)?;
                        Some((stamp, msg))
                    })?;
                    let traces = Vec::<TaggedTrace>::decode(buf)?;
                    let mut dsts = Vec::with_capacity(n);
                    for _ in 0..n {
                        dsts.push(get_bytes(buf)?);
                    }
                    // Informational per-round executed-event delta,
                    // trailing so older payload parsers stay valid. It
                    // feeds the progress board only — never any reply.
                    let events = get_varint(buf).unwrap_or(0);
                    Some((stop, fail, traces, dsts, events))
                })();
                let Some((stop, fail, mut traces, dsts, events)) = parsed else {
                    return Err((w as u32, "malformed EXCH".into()));
                };
                self.events_cum[w] += events;
                if let Some(board) = &self.progress {
                    board.record_events(w, self.events_cum[w]);
                }
                stopped |= stop != 0;
                if let Some((stamp, msg)) = fail {
                    if failure.as_ref().is_none_or(|(st, _)| stamp < *st) {
                        failure = Some((stamp, msg));
                    }
                }
                self.merge_scratch.append(&mut traces);
                blobs.push(dsts);
            }
            // The same stamp-sorted per-round merge the thread backend's
            // first shard performs.
            if let Some(buffer) = self.trace.as_mut() {
                self.merge_scratch
                    .sort_unstable_by_key(|t| (t.stamp, t.recno));
                flush_trace(buffer, &mut self.merge_scratch);
            } else {
                self.merge_scratch.clear();
            }
            let failure_msg = failure.map(|(_, msg)| msg);
            let mut replies: Vec<Vec<u8>> = Vec::with_capacity(n);
            for dst in 0..n {
                let mut reply = Vec::new();
                reply.push(u8::from(stopped));
                match &failure_msg {
                    None => reply.push(0),
                    Some(msg) => {
                        reply.push(1);
                        put_str(&mut reply, msg);
                    }
                }
                for src_blobs in &blobs {
                    reply.extend_from_slice(src_blobs[dst]);
                }
                replies.push(reply);
            }
            for (w, reply) in replies.iter().enumerate() {
                self.send_to(w, tag::EXCH_R, reply)?;
            }
            Ok(())
        }

        /// Every worker paused at the same checkpoint boundary and
        /// shipped its shard blob. Assemble the uniform engine blob
        /// (hub-side trace ring + shard blobs in worker order) and hand
        /// it to the sink. No reply: workers resumed already.
        fn round_checkpoint(&mut self, frames: &[(u8, Vec<u8>)]) -> Result<(), (u32, String)> {
            let mut at: Option<Time> = None;
            let mut shard_blobs: Vec<&[u8]> = Vec::with_capacity(frames.len());
            for (w, (_, body)) in frames.iter().enumerate() {
                let buf = &mut body.as_slice();
                let parsed = (|| {
                    let t = Time::decode(buf)?;
                    let blob = get_bytes(buf)?;
                    Some((t, blob))
                })();
                let Some((t, blob)) = parsed else {
                    return Err((w as u32, "malformed CKPT".into()));
                };
                if *at.get_or_insert(t) != t {
                    return Err((w as u32, "workers disagreed on the checkpoint tick".into()));
                }
                shard_blobs.push(blob);
            }
            let Some(at) = at else { return Ok(()) };
            if let Some(sink) = self.checkpoint_sink.as_mut() {
                let mut engine = Vec::new();
                crate::snapshot::put_trace(&mut engine, self.trace.as_ref());
                put_varint(&mut engine, shard_blobs.len() as u64);
                for blob in shard_blobs {
                    put_bytes(&mut engine, blob);
                }
                sink(at, &engine);
            }
            Ok(())
        }

        fn collect_done(&mut self, frames: Vec<(u8, Vec<u8>)>) -> Result<HubResult, (u32, String)> {
            let mut outcome: Option<RunOutcome> = None;
            let mut end_time = Time::ZERO;
            let mut last_progress: Tick = 0;
            let mut metrics = Vec::with_capacity(frames.len());
            let mut host = Vec::with_capacity(frames.len());
            for (w, (_, body)) in frames.iter().enumerate() {
                let buf = &mut body.as_slice();
                let parsed = (|| {
                    let outcome = RunOutcome::decode(buf)?;
                    let now = Time::decode(buf)?;
                    let progress = get_varint(buf)?;
                    let m = EngineMetrics::decode(buf)?;
                    let h = HostShardTimes::decode(buf)?;
                    Some((outcome, now, progress, m, h))
                })();
                let Some((o, now, progress, m, h)) = parsed else {
                    return Err((w as u32, "malformed DONE".into()));
                };
                debug_assert!(
                    outcome.as_ref().is_none_or(|prev| *prev == o),
                    "workers disagreed on the run outcome"
                );
                outcome.get_or_insert(o);
                end_time = now;
                last_progress = progress;
                metrics.push(m);
                host.push(h);
            }
            let mut partials = Vec::with_capacity(self.conns.len());
            let mut error = None;
            for w in 0..self.conns.len() {
                match self.read_from(w) {
                    Ok((tag::PARTIAL, body)) => partials.push(Some(body)),
                    Ok((t, _)) => {
                        partials.push(None);
                        error.get_or_insert((w as u32, format!("expected PARTIAL, got tag {t}")));
                    }
                    Err((w, reason)) => {
                        partials.push(None);
                        error.get_or_insert((w, reason));
                    }
                }
            }
            Ok(HubResult {
                outcome: outcome.unwrap_or(RunOutcome::Drained),
                end_time,
                last_progress,
                metrics,
                host,
                hub_stats: self.host_stats(),
                partials,
                error,
            })
        }

        /// A worker died or hung: abort the survivors and collect
        /// whatever partials they can still deliver.
        fn degrade(&mut self, worker: u32, reason: String) -> HubResult {
            let n = self.conns.len();
            for w in 0..n {
                if self.conns[w].alive {
                    let _ = self.send_to(w, tag::ABORT, &[]);
                }
            }
            let mut partials: Vec<Option<Vec<u8>>> = Vec::with_capacity(n);
            for w in 0..n {
                if !self.conns[w].alive {
                    partials.push(None);
                    continue;
                }
                // The worker may still have pre-abort frames in flight
                // (its last FOLD/EXCH, or a DONE); skip to its PARTIAL.
                let mut found = None;
                for _ in 0..64 {
                    match self.read_from(w) {
                        Ok((tag::PARTIAL, body)) => {
                            found = Some(body);
                            break;
                        }
                        Ok(_) => continue,
                        Err(_) => break,
                    }
                }
                partials.push(found);
            }
            HubResult {
                outcome: RunOutcome::Failed(format!("worker {worker}: {reason}")),
                end_time: Time::ZERO,
                last_progress: 0,
                metrics: Vec::new(),
                host: Vec::new(),
                hub_stats: self.host_stats(),
                partials,
                error: Some((worker, reason)),
            }
        }
    }
}
