//! The engine abstraction: what it means to execute a simulation.
//!
//! There is one run loop: the generation-lockstep round protocol in
//! [`protocol`](crate::protocol), executed by every shard of a
//! simulation. Two engines drive it:
//!
//! - [`InProcessEngine`](crate::InProcessEngine) (alias
//!   [`Simulator`](crate::Simulator)) — components are registered on one
//!   shard, which runs inline on the calling thread;
//!   [`into_sharded`](crate::InProcessEngine::into_sharded) partitions
//!   them across shards that run on worker threads.
//! - `WorkerEngine` — one shard in its own OS process, synchronized with
//!   its siblings through a parent hub.
//!
//! Everything an engine does besides executing events — watchdog,
//! sampler, trace, host profiling, progress board, checkpoint interval —
//! is one [`EngineOptions`] value, fixed at construction and carried
//! through both conversions.
//!
//! # The determinism contract
//!
//! Every engine and shard count produces **bit-identical** simulations
//! for the same `(configuration, seed)`: the same events in the same
//! canonical order, the same per-component random draws, and the same
//! trace byte stream.
//! Three mechanisms make that possible:
//!
//! 1. **Event stamps.** Every scheduled event carries an [`EventStamp`]:
//!    the scheduling component's id and that component's monotone send
//!    counter (external schedules use [`EXTERNAL_SRC`] and an engine-level
//!    counter). Stamps are unique and depend only on each component's own
//!    execution history — not on how components interleave.
//! 2. **Canonical batch order.** All events at the earliest pending
//!    `(tick, epsilon)` form one *generation*; every shard sorts its
//!    slice of each generation by stamp before dispatch. By induction,
//!    identical generations produce identical per-component histories,
//!    hence identical stamps, hence identical future generations.
//! 3. **Per-component random streams.** Each component draws from its own
//!    [`Rng::stream`](crate::Rng::stream) generator derived from
//!    `(seed, component index)`, so no draw depends on global ordering.
//!
//! Events scheduled *during* a generation at the same `(tick, epsilon)`
//! join the **next** generation — exactly what a barrier-synchronized
//! round can guarantee for cross-shard events, so zero-latency messages
//! (e.g. the workload monitor's same-tick command broadcast) need no
//! special case.
//!
//! # Failure and stop
//!
//! [`Context::stop`] and [`Context::fail`] take effect at the end of the
//! generation in which they were raised, on every backend and shard
//! count: the rest of the generation executes, later generations stay
//! pending. When several components fail in one generation, the failure
//! with the smallest event stamp is reported. A stopped run resumes with
//! the next generation.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use crate::component::{Component, ComponentId};
use crate::event::EventQueue;
use crate::host::{HostShardTimes, ProgressShared};
use crate::rng::Rng;
use crate::time::{Tick, Time};
use crate::trace::{TraceBuffer, TraceEvent, TraceSpec};

/// Stamp `src` for events scheduled from outside any component
/// ([`Engine::schedule`]).
pub const EXTERNAL_SRC: u32 = u32::MAX;

/// The canonical identity of a scheduled event: who scheduled it and at
/// which position in the scheduler's own send history.
///
/// Stamps order each generation identically on every engine: unique
/// (per-source counters never repeat), and dependent only on the sending
/// component's execution history.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventStamp {
    /// Component id of the scheduler, or [`EXTERNAL_SRC`].
    pub src: u32,
    /// The scheduler's send counter at the time of scheduling.
    pub seq: u64,
}

/// An event payload wrapped with its canonical stamp — what engines
/// actually store in their queues.
#[derive(Debug, Clone)]
pub(crate) struct Stamped<E> {
    pub stamp: EventStamp,
    pub payload: E,
}

/// A trace record tagged for deterministic merging: the stamp of the
/// event whose handler recorded it, plus the record's index within that
/// handler invocation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TaggedTrace {
    pub stamp: EventStamp,
    pub recno: u32,
    pub ev: TraceEvent,
}

/// Everything an engine does besides executing events, fixed when the
/// engine is built and carried unchanged through
/// [`into_sharded`](crate::InProcessEngine::into_sharded) and
/// `into_worker`. The default arms nothing; every disarmed plane costs
/// one branch per generation.
#[derive(Debug, Clone, Default)]
pub struct EngineOptions {
    /// No-progress watchdog window in ticks; 0 disarms it. A run breaks
    /// with [`RunOutcome::Watchdog`] when the next pending event lies
    /// more than `watchdog` ticks after the last reported progress
    /// ([`Context::progress`]). The check is a pure function of the
    /// deterministic event stream, so the trip tick is identical on every
    /// backend and shard count.
    pub watchdog: Tick,
    /// Sampling window width in ticks; 0 disarms the sampler. Before
    /// executing the first generation at or past each window edge
    /// `k * interval` (`k = 1, 2, …`), the engine calls
    /// [`Component::sample`] with that edge on every component. Edges are
    /// crossed in order and each exactly once, even when one generation
    /// jumps several windows; a run that ends mid-window never closes the
    /// trailing partial window. The edge sequence is a pure function of
    /// the global generation sequence, so each shard samples its own
    /// components at the round covering the edge and the union is the
    /// same on every backend and shard count.
    pub sample_interval: Tick,
    /// Trace collection: records passing the spec go into a ring of the
    /// given capacity. `None` disables tracing.
    pub trace: Option<(TraceSpec, usize)>,
    /// Host-time profiling stride: phase wall-times are measured every
    /// generation and per-event component-class attribution runs on one
    /// generation in `host_sample`; 0 disarms profiling. Host clocks are
    /// strictly out-of-band: they never influence event ordering,
    /// delivery, or any deterministic output.
    pub host_sample: u32,
    /// Live-progress board the engine publishes to after each generation
    /// (cumulative events, current tick). Relaxed atomic stores only —
    /// the board is read by an out-of-band heartbeat and never feeds back
    /// into the simulation.
    pub progress: Option<Arc<ProgressShared>>,
    /// Checkpoint interval in ticks; 0 disarms it. Only a worker engine
    /// acts on it, shipping its state to the hub whenever the run crosses
    /// a `k * interval` boundary; the caller of an in-process engine
    /// checkpoints by segmenting [`Engine::run_until`].
    pub checkpoint_interval: Tick,
}

/// Why a run call returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue ran empty: the simulation is over.
    Drained,
    /// A component requested an orderly stop via [`Context::stop`].
    Stopped,
    /// The tick limit given to [`Engine::run_until`] was reached.
    TickLimit,
    /// A component reported a fatal modeling error via [`Context::fail`].
    Failed(String),
    /// The no-progress watchdog fired: events kept executing (or were
    /// pending) but no component reported progress via
    /// [`Context::progress`] for longer than the configured window —
    /// livelock, or a deadlock still burning idle events.
    Watchdog {
        /// The last tick at which progress was reported (0 if never).
        last_progress: Tick,
    },
}

impl RunOutcome {
    /// Whether the run ended without a component-reported error or a
    /// watchdog trip.
    pub fn is_ok(&self) -> bool {
        !matches!(self, RunOutcome::Failed(_) | RunOutcome::Watchdog { .. })
    }
}

impl fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunOutcome::Drained => write!(f, "event queue drained"),
            RunOutcome::Stopped => write!(f, "stopped by component request"),
            RunOutcome::TickLimit => write!(f, "tick limit reached"),
            RunOutcome::Failed(msg) => write!(f, "failed: {msg}"),
            RunOutcome::Watchdog { last_progress } => write!(
                f,
                "watchdog: no progress since tick {last_progress} (deadlock or livelock)"
            ),
        }
    }
}

/// Engine statistics for one run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Events executed during the run.
    pub events_executed: u64,
    /// Simulation time of the last executed event.
    pub end_time: Time,
    /// Largest number of simultaneously pending events. On the sharded
    /// engine this is the sum of per-shard high-water marks (an upper
    /// bound of the global value) — a capacity diagnostic, not part of
    /// the cross-engine determinism contract.
    pub queue_high_water: usize,
    /// Total events enqueued over the lifetime of the engine.
    pub total_enqueued: u64,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// How the run ended.
    pub outcome: RunOutcome,
}

impl RunStats {
    /// Events executed per wall-clock second, or 0 for an empty run.
    pub fn events_per_second(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.events_executed as f64 / secs
        } else {
            0.0
        }
    }
}

/// Number of log₂ batch-size buckets: bucket 0 is unused (a batch has at
/// least one event), bucket `i` covers sizes in `[2^(i-1), 2^i)`.
pub const BATCH_BUCKETS: usize = 65;

/// Per-shard engine self-metrics accumulated over the engine's lifetime.
/// A one-shard engine reports exactly one entry.
///
/// The `des` crate sits below the stats crate in the dependency order, so
/// the batch-size distribution is exposed as a raw log₂-bucketed count
/// array; higher layers convert it into their histogram type.
#[derive(Debug, Clone)]
pub struct EngineMetrics {
    /// Events executed on this shard since construction.
    pub events_executed: u64,
    /// Same-`(tick, epsilon)` batches this shard dispatched.
    pub batches: u64,
    /// Log₂-bucketed distribution of executed batch sizes: bucket `i > 0`
    /// counts batches of `[2^(i-1), 2^i)` events. Sums to `batches`; the
    /// weighted sum of sizes is `events_executed`.
    pub batch_counts: [u64; BATCH_BUCKETS],
    /// Events pending right now in this shard's queue.
    pub queue_len: usize,
    /// Largest number of simultaneously pending events ever observed.
    pub queue_high_water: usize,
    /// Events ever enqueued into this shard's queue.
    pub total_enqueued: u64,
    /// Current ring horizon in ticks.
    pub horizon: usize,
    /// Adaptive horizon doublings performed.
    pub horizon_resizes: u64,
    /// Pushes that landed in the overflow heap instead of the ring.
    pub overflow_spills: u64,
    /// Events currently parked in the overflow heap.
    pub overflow_len: usize,
}

/// The first sampling-window edge strictly after `now`: edges lie at
/// `k * interval` for `k = 1, 2, …` (saturating, so an absurdly large
/// interval simply never fires).
#[inline]
pub(crate) fn next_edge_after(now: Tick, interval: Tick) -> Tick {
    debug_assert!(interval > 0, "sampler must be armed");
    (now / interval).saturating_add(1).saturating_mul(interval)
}

/// Log₂ bucket index shared with the stats crate's histogram: 0 → 0,
/// otherwise `64 - leading_zeros(v)`.
#[inline]
pub(crate) fn log2_bucket(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Where a [`Context`] delivers scheduled events.
pub(crate) enum SinkRef<'a, E> {
    /// Single queue: a one-shard engine, where every target is local.
    Local(&'a mut EventQueue<Stamped<E>>),
    /// Sharded routing: local targets go to this shard's queue, remote
    /// targets to the per-destination outbox flushed at the next barrier.
    Sharded {
        queue: &'a mut EventQueue<Stamped<E>>,
        /// Component index → owning shard. Unknown targets route to
        /// shard 0, which reports the usual unregistered-target failure.
        shard_of: &'a [u32],
        my_shard: u32,
        outboxes: &'a mut [Vec<(ComponentId, Time, Stamped<E>)>],
    },
}

/// Trace collection state for one handler invocation.
pub(crate) struct TraceSink<'a> {
    pub spec: TraceSpec,
    pub stamp: EventStamp,
    pub recno: u32,
    pub out: &'a mut Vec<TaggedTrace>,
}

/// The execution context handed to a component while it processes an
/// event.
///
/// Through the context a component can read the current time, schedule new
/// events (for itself or any other component), draw deterministic random
/// numbers, record trace events, and signal stop or failure.
pub struct Context<'a, E> {
    pub(crate) now: Time,
    pub(crate) self_id: ComponentId,
    pub(crate) sink: SinkRef<'a, E>,
    /// This component's monotone send counter (stamp source).
    pub(crate) seq: &'a mut u64,
    /// This component's private random stream.
    pub(crate) rng: &'a mut Rng,
    pub(crate) stop_requested: &'a mut bool,
    pub(crate) failure: &'a mut Option<String>,
    /// Set by [`Context::progress`]; the engine folds it into its
    /// no-progress watchdog after each generation.
    pub(crate) progress: &'a mut bool,
    /// `None` while tracing is disabled — the off path is one branch.
    pub(crate) trace: Option<TraceSink<'a>>,
}

impl<E> Context<'_, E> {
    /// The time of the event currently being processed.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// The id of the component currently processing an event.
    #[inline]
    pub fn self_id(&self) -> ComponentId {
        self.self_id
    }

    /// Schedules `payload` for `target` at `time`.
    ///
    /// `time` must not be in the past. Scheduling at exactly the current
    /// `(tick, epsilon)` is allowed and runs in the next generation (after
    /// every event of the current one); use [`Time::next_epsilon`] to make
    /// intra-tick ordering explicit.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than [`Context::now`] — scheduling into
    /// the past is always a bug in a component model.
    #[inline]
    pub fn schedule(&mut self, target: ComponentId, time: Time, payload: E) {
        assert!(
            time >= self.now,
            "component {} scheduled an event into the past ({} < {})",
            self.self_id,
            time,
            self.now
        );
        let stamp = EventStamp {
            src: self.self_id.0,
            seq: *self.seq,
        };
        *self.seq += 1;
        let stamped = Stamped { stamp, payload };
        match &mut self.sink {
            SinkRef::Local(queue) => queue.push(target, time, stamped),
            SinkRef::Sharded {
                queue,
                shard_of,
                my_shard,
                outboxes,
            } => {
                let dest = shard_of.get(target.index()).copied().unwrap_or(0);
                if dest == *my_shard {
                    queue.push(target, time, stamped);
                } else {
                    outboxes[dest as usize].push((target, time, stamped));
                }
            }
        }
    }

    /// Schedules `payload` for this component itself at `time`.
    #[inline]
    pub fn schedule_self(&mut self, time: Time, payload: E) {
        self.schedule(self.self_id, time, payload);
    }

    /// This component's deterministic random number generator.
    ///
    /// Every component owns an independent stream derived from
    /// `(seed, component index)`, so draws are reproducible regardless of
    /// execution interleaving — see [`Rng::stream`].
    #[inline]
    pub fn rng(&mut self) -> &mut Rng {
        self.rng
    }

    /// Whether trace collection is active (and worth preparing records
    /// for).
    #[inline]
    pub fn trace_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// Records a trace event if tracing is enabled and the record passes
    /// the engine's [`TraceSpec`]. `kind` must be `< 8`.
    #[inline]
    pub fn trace(&mut self, kind: u8, src: u32, id: u64, sub: u32) {
        let Some(sink) = &mut self.trace else {
            return;
        };
        if !sink.spec.accepts(kind, src, id) {
            return;
        }
        sink.out.push(TaggedTrace {
            stamp: sink.stamp,
            recno: sink.recno,
            ev: TraceEvent {
                time: self.now,
                src,
                kind,
                id,
                sub,
            },
        });
        sink.recno += 1;
    }

    /// Requests an orderly stop. The engine completes the current
    /// generation, then returns [`RunOutcome::Stopped`] with every later
    /// event still pending — the same halt point on every backend and
    /// shard count.
    pub fn stop(&mut self) {
        *self.stop_requested = true;
    }

    /// Reports a fatal modeling error (paper §IV-D error detection). The
    /// engine completes the current generation, then halts and surfaces
    /// the message in [`RunOutcome::Failed`] (the smallest-stamp failure
    /// when several components fail in one generation).
    pub fn fail(&mut self, message: impl Into<String>) {
        if self.failure.is_none() {
            *self.failure = Some(message.into());
        }
    }

    /// Reports forward progress to the no-progress watchdog. Models call
    /// this on externally meaningful work (the network interfaces call it
    /// per delivered flit); mere event churn does not count, so livelock
    /// — events executing forever without delivering anything — trips the
    /// watchdog just like deadlock. Free when no watchdog is armed (the
    /// engine only reads the flag).
    #[inline]
    pub fn progress(&mut self) {
        *self.progress = true;
    }
}

/// An execution backend: owns registered components and pending events,
/// and advances the simulation.
///
/// Object-safe so callers can hold a `Box<dyn Engine<E>>` chosen at
/// configuration time. Construction is backend-specific (components are
/// registered on an [`InProcessEngine`](crate::InProcessEngine), which
/// can then be [sharded](crate::InProcessEngine::into_sharded)), and
/// every plane is fixed at construction by its [`EngineOptions`].
pub trait Engine<E: 'static>: fmt::Debug {
    /// Enqueues an initial event from outside any component.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the current simulation time.
    fn schedule(&mut self, target: ComponentId, time: Time, payload: E);

    /// Runs until the queue drains, a component stops or fails, or the
    /// next event would execute at a tick strictly greater than
    /// `tick_limit`.
    fn run_until(&mut self, tick_limit: Tick) -> RunStats;

    /// Runs until the event queue drains, a component stops or fails.
    fn run(&mut self) -> RunStats {
        self.run_until(Tick::MAX)
    }

    /// Current simulation time (time of the most recent event).
    fn now(&self) -> Time;

    /// Number of registered components.
    fn num_components(&self) -> usize;

    /// Number of shards executing this simulation (1 for sequential).
    fn num_shards(&self) -> usize;

    /// Borrows a component by id. `None` for an unknown id.
    fn component(&self, id: ComponentId) -> Option<&dyn Component<E>>;

    /// Mutably borrows a component by id. `None` for an unknown id.
    fn component_dyn_mut(&mut self, id: ComponentId) -> Option<&mut dyn Component<E>>;

    /// Per-shard self-metrics, in shard order (one entry for sequential).
    fn shard_metrics(&self) -> Vec<EngineMetrics>;

    /// Events executed since construction, across all shards.
    fn events_executed(&self) -> u64;

    /// Events ever enqueued, across all shards.
    fn total_enqueued(&self) -> u64;

    /// Whether trace collection is enabled.
    fn trace_enabled(&self) -> bool;

    /// The collected trace records in canonical order, empty when
    /// tracing is disabled.
    fn trace_records(&self) -> Vec<TraceEvent>;

    /// Serializes the engine's complete dynamic state — clock, pending
    /// events, per-component RNG streams and send counters, component
    /// snapshots, trace ring, and lifetime counters — into `out`, so a
    /// later [`Engine::load_state`] on an identically *built* engine
    /// resumes the run with byte-identical results.
    ///
    /// Only meaningful at a quiescent point: between [`Engine::run_until`]
    /// calls (the engine paused at a tick limit) or before the first run.
    /// Returns `false` when the backend does not support checkpointing
    /// (the default).
    fn save_state(&self, out: &mut Vec<u8>) -> bool
    where
        E: crate::wire::WireCodec,
    {
        let _ = out;
        false
    }

    /// Overlays dynamic state captured by [`Engine::save_state`] onto
    /// this engine, which must have been freshly built from the same
    /// configuration (same components, same shard layout). Total:
    /// malformed or mismatched state yields `false` and the engine must
    /// not be used afterwards.
    fn load_state(&mut self, buf: &mut &[u8]) -> bool
    where
        E: crate::wire::WireCodec,
    {
        let _ = buf;
        false
    }

    /// The host-time records collected so far, one per shard in shard
    /// order. Empty when profiling is disarmed or unsupported.
    fn host_times(&self) -> Vec<HostShardTimes> {
        Vec::new()
    }
}

impl<E: 'static> dyn Engine<E> + '_ {
    /// Downcasts a component to its concrete type for post-run
    /// inspection.
    pub fn component_as<T: 'static>(&self, id: ComponentId) -> Option<&T> {
        self.component(id)
            .and_then(|c| c.as_any().downcast_ref::<T>())
    }

    /// Mutable variant of [`component_as`](Self::component_as).
    pub fn component_as_mut<T: 'static>(&mut self, id: ComponentId) -> Option<&mut T> {
        self.component_dyn_mut(id)
            .and_then(|c| c.as_any_mut().downcast_mut::<T>())
    }
}

/// Moves one finished generation's trace records into the ring.
///
/// `round` must already be in canonical order — naturally true for one
/// shard, established by a stamp sort for the multi-shard merge.
pub(crate) fn flush_trace(buffer: &mut TraceBuffer, round: &mut Vec<TaggedTrace>) {
    for t in round.drain(..) {
        buffer.push(t.ev);
    }
}
