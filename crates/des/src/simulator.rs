//! The in-process engine: component storage, sharding, and the driver
//! of the round protocol on the calling process (paper §III-A, Figure 1).
//!
//! Components are registered on one shard, which runs inline on the
//! calling thread through a lock-free one-shard transport: the fold
//! returns the local queue head, the exchange only flushes trace
//! records, and every scheduled event goes straight into the one queue.
//! [`InProcessEngine::into_sharded`] partitions the components across
//! more shards, one thread each, synchronized by spin barriers. Either
//! way the run loop is [`protocol`](crate::protocol)'s — see the
//! [`engine`](crate::engine) module for the determinism contract every
//! shard count honors.

use std::fmt;
use std::time::Instant;

use crate::component::{Component, ComponentId};
use crate::engine::{
    Engine, EngineMetrics, EngineOptions, EventStamp, RunStats, Stamped, EXTERNAL_SRC,
};
use crate::host::{HostRecorder, HostShardTimes};
use crate::protocol::{run_shard_rounds, ProtocolParams, Shard};
use crate::rng::Rng;
use crate::time::{Tick, Time};
use crate::trace::{TraceBuffer, TraceEvent};
use crate::transport::{LocalTransport, PanicFence, ThreadShared, ThreadTransport};

/// The in-process discrete event engine: owns the components, one event
/// queue per shard, and the trace ring, and runs the round protocol on
/// the calling thread (one shard) or on one thread per shard.
///
/// See the [crate-level documentation](crate) for a complete example.
pub struct InProcessEngine<E> {
    /// Exactly one shard until [`InProcessEngine::into_sharded`].
    shards: Vec<Shard<E>>,
    /// Component index → owning shard.
    shard_of: Vec<u32>,
    seed: u64,
    pub(crate) now: Time,
    /// Send counter for external ([`InProcessEngine::schedule`]) events.
    pub(crate) ext_seq: u64,
    /// Tick of the last globally agreed progress report.
    pub(crate) last_progress: Tick,
    pub(crate) options: EngineOptions,
    /// The trace ring; `Some` exactly when `options.trace` is.
    trace: Option<TraceBuffer>,
    /// One out-of-band host-time recorder per shard.
    host: Vec<HostRecorder>,
}

/// The historical name of the in-process engine. Models, examples, and
/// tests keep using `Simulator`; code that selects a backend at run time
/// uses the [`Engine`] trait instead.
pub type Simulator<E> = InProcessEngine<E>;

impl<E: Send + 'static> InProcessEngine<E> {
    /// Creates an engine whose random streams are derived from `seed`,
    /// with every plane disarmed.
    pub fn new(seed: u64) -> Self {
        Self::with_options(seed, EngineOptions::default())
    }

    /// Creates an engine whose random streams are derived from `seed`,
    /// with the planes `options` arms.
    pub fn with_options(seed: u64, options: EngineOptions) -> Self {
        InProcessEngine {
            shards: vec![Shard::empty(0, &[], &[])],
            shard_of: Vec::new(),
            seed,
            now: Time::ZERO,
            ext_seq: 0,
            last_progress: 0,
            trace: options
                .trace
                .map(|(_, capacity)| TraceBuffer::with_capacity(capacity)),
            host: vec![HostRecorder::with_sample(options.host_sample)],
            options,
        }
    }

    /// Registers a component and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the engine is already sharded, or if the component
    /// count would exceed the 32-bit id space.
    pub fn add_component(&mut self, component: Box<dyn Component<E>>) -> ComponentId {
        assert_eq!(self.shards.len(), 1, "register components before sharding");
        let id = ComponentId::try_from_index(self.shard_of.len())
            .expect("component count exceeds the 32-bit id space");
        let shard = &mut self.shards[0];
        shard.rngs.push(Rng::stream(self.seed, id.0 as u64));
        shard.seqs.push(0);
        shard.components.push(Some(component));
        self.shard_of.push(0);
        id
    }

    /// Number of registered components.
    pub fn num_components(&self) -> usize {
        self.shard_of.len()
    }

    /// Current simulation time (time of the most recent event).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Enqueues an initial event from outside any component.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the current simulation time.
    pub fn schedule(&mut self, target: ComponentId, time: Time, payload: E) {
        assert!(time >= self.now, "cannot schedule into the past");
        let stamp = EventStamp {
            src: EXTERNAL_SRC,
            seq: self.ext_seq,
        };
        self.ext_seq += 1;
        // Unknown targets go to shard 0, which reports the failure.
        let owner = self.shard_of.get(target.index()).copied().unwrap_or(0) as usize;
        self.shards[owner]
            .queue
            .push(target, time, Stamped { stamp, payload });
    }

    /// Borrows a component by id. `None` for an unknown id.
    pub fn component(&self, id: ComponentId) -> Option<&dyn Component<E>> {
        let owner = *self.shard_of.get(id.index())? as usize;
        self.shards[owner].components[id.index()].as_deref()
    }

    fn component_mut(&mut self, id: ComponentId) -> Option<&mut dyn Component<E>> {
        let owner = *self.shard_of.get(id.index())? as usize;
        self.shards[owner].components[id.index()].as_deref_mut()
    }

    /// Downcasts a component to its concrete type for post-run inspection.
    pub fn component_as<T: 'static>(&self, id: ComponentId) -> Option<&T> {
        self.component(id)
            .and_then(|c| c.as_any().downcast_ref::<T>())
    }

    /// Mutable variant of [`InProcessEngine::component_as`].
    pub fn component_as_mut<T: 'static>(&mut self, id: ComponentId) -> Option<&mut T> {
        self.component_mut(id)
            .and_then(|c| c.as_any_mut().downcast_mut::<T>())
    }

    /// Converts this one-shard engine into `num_shards` shards, assigning
    /// each component `c` to shard `shard_of[c]`; every shard runs on its
    /// own thread. Pending events move to their target's shard;
    /// simulation time, options, trace ring, and per-component random
    /// streams are preserved, so a run may even be split across the
    /// conversion at a pause.
    ///
    /// # Panics
    ///
    /// Panics if the engine is already sharded, `num_shards` is zero,
    /// `shard_of` is not exactly one entry per registered component, or
    /// any entry is out of range.
    pub fn into_sharded(mut self, num_shards: usize, shard_of: Vec<u32>) -> Self {
        self.shards = self.partition(num_shards, &shard_of);
        self.shard_of = shard_of;
        self.host = (0..num_shards)
            .map(|_| HostRecorder::with_sample(self.options.host_sample))
            .collect();
        self
    }

    /// Cuts the one shard into `num_shards` per `shard_of`. Lifetime
    /// executor counters stay with shard 0, so summed totals survive the
    /// cut; per-component random streams and send counters are copied
    /// full-length into every shard (only the owner's entries are live).
    pub(crate) fn partition(&mut self, num_shards: usize, shard_of: &[u32]) -> Vec<Shard<E>> {
        assert_eq!(self.shards.len(), 1, "engine is already sharded");
        assert!(num_shards > 0, "need at least one shard");
        assert_eq!(
            shard_of.len(),
            self.shard_of.len(),
            "shard map must cover every component"
        );
        assert!(
            shard_of.iter().all(|&s| (s as usize) < num_shards),
            "shard map entry out of range"
        );
        let mut base = self.shards.pop().expect("one shard");
        let n = base.components.len();
        let mut shards: Vec<Shard<E>> = (0..num_shards)
            .map(|_| Shard::empty(n, &base.rngs, &base.seqs))
            .collect();
        shards[0].events_executed = base.events_executed;
        shards[0].batches = base.batches;
        shards[0].batch_counts = base.batch_counts;
        for (idx, slot) in base.components.iter_mut().enumerate() {
            shards[shard_of[idx] as usize].components[idx] = slot.take();
        }
        let mut pending = Vec::new();
        while base.queue.take_batch(&mut pending) > 0 {
            for e in pending.drain(..) {
                let owner = shard_of.get(e.target.index()).copied().unwrap_or(0) as usize;
                shards[owner].queue.push(e.target, e.time, e.payload);
            }
        }
        shards
    }

    /// Runs until the event queue drains, a component stops or fails.
    pub fn run(&mut self) -> RunStats {
        self.run_until(Tick::MAX)
    }

    /// Runs until every queue drains, a component stops or fails, or the
    /// next generation would execute at a tick strictly greater than
    /// `tick_limit`. Every shard runs the crate's one round loop (the
    /// `protocol` module).
    pub fn run_until(&mut self, tick_limit: Tick) -> RunStats {
        let start = Instant::now();
        let start_events = Engine::events_executed(self);
        let n = self.shards.len();
        let (start_now, start_progress) = (self.now, self.last_progress);
        let (shard_of, options) = (&self.shard_of, &self.options);
        let params = |s: usize| ProtocolParams {
            my_shard: s as u32,
            num_shards: n,
            tick_limit,
            start_now,
            start_progress,
            shard_of,
            options,
        };
        let (outcome, end_now, end_progress) = if n == 1 {
            let mut transport = LocalTransport::new(self.trace.as_mut());
            run_shard_rounds(
                &mut self.shards[0],
                &params(0),
                &mut transport,
                &mut self.host[0],
            )
            .expect("the in-process transport is infallible")
        } else {
            let shared: ThreadShared<E> = ThreadShared::new(n, start_progress);
            let mut buffer = self.trace.as_mut();
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .shards
                    .iter_mut()
                    .zip(self.host.iter_mut())
                    .enumerate()
                    .map(|(s, (shard, host))| {
                        let buffer = if s == 0 { buffer.take() } else { None };
                        let (shared, params) = (&shared, params(s));
                        scope.spawn(move || {
                            let mut fence = PanicFence::arm(&shared.poisoned);
                            let mut transport = ThreadTransport::new(shared, s, buffer);
                            let r = run_shard_rounds(shard, &params, &mut transport, host)
                                .expect("the in-process transport is infallible");
                            fence.disarm();
                            r
                        })
                    })
                    .collect();
                let mut agreed = None;
                for h in handles {
                    let r = h.join().expect("shard thread panicked");
                    debug_assert!(
                        agreed.as_ref().is_none_or(|a| *a == r),
                        "shards disagreed on the run outcome"
                    );
                    agreed = Some(r);
                }
                agreed.expect("at least one shard")
            })
        };
        // `end_now` is the time of the last *executed* generation: a
        // tick-limit pause stops before advancing.
        self.now = end_now;
        self.last_progress = end_progress;
        RunStats {
            events_executed: Engine::events_executed(self) - start_events,
            end_time: self.now,
            queue_high_water: self.shards.iter().map(|s| s.queue.high_water_mark()).sum(),
            total_enqueued: Engine::total_enqueued(self),
            wall: start.elapsed(),
            outcome,
        }
    }
}

impl<E: Send + 'static> Engine<E> for InProcessEngine<E> {
    fn schedule(&mut self, target: ComponentId, time: Time, payload: E) {
        InProcessEngine::schedule(self, target, time, payload);
    }

    fn run_until(&mut self, tick_limit: Tick) -> RunStats {
        InProcessEngine::run_until(self, tick_limit)
    }

    fn now(&self) -> Time {
        self.now
    }

    fn num_components(&self) -> usize {
        self.shard_of.len()
    }

    fn num_shards(&self) -> usize {
        self.shards.len()
    }

    fn component(&self, id: ComponentId) -> Option<&dyn Component<E>> {
        InProcessEngine::component(self, id)
    }

    fn component_dyn_mut(&mut self, id: ComponentId) -> Option<&mut dyn Component<E>> {
        self.component_mut(id)
    }

    fn shard_metrics(&self) -> Vec<EngineMetrics> {
        self.shards.iter().map(|s| s.metrics()).collect()
    }

    fn events_executed(&self) -> u64 {
        self.shards.iter().map(|s| s.events_executed).sum()
    }

    fn total_enqueued(&self) -> u64 {
        self.shards.iter().map(|s| s.queue.total_enqueued()).sum()
    }

    fn trace_enabled(&self) -> bool {
        self.trace.is_some()
    }

    fn trace_records(&self) -> Vec<TraceEvent> {
        self.trace.as_ref().map(|t| t.records()).unwrap_or_default()
    }

    /// Writes the uniform engine blob: trace section, shard count, then
    /// one canonical shard blob per shard (engine-global scalars repeated
    /// in each — see the `snapshot` module).
    fn save_state(&self, out: &mut Vec<u8>) -> bool
    where
        E: crate::wire::WireCodec,
    {
        crate::snapshot::put_trace(out, self.trace.as_ref());
        crate::wire::put_varint(out, self.shards.len() as u64);
        let mut blob = Vec::new();
        for shard in &self.shards {
            blob.clear();
            shard.save_state(self.now, self.ext_seq, self.last_progress, &mut blob);
            crate::wire::put_bytes(out, &blob);
        }
        true
    }

    fn load_state(&mut self, buf: &mut &[u8]) -> bool
    where
        E: crate::wire::WireCodec,
    {
        let mut inner = || -> Option<()> {
            crate::snapshot::get_trace(buf, self.trace.as_mut())?;
            if crate::wire::get_varint(buf)? != self.shards.len() as u64 {
                return None;
            }
            let mut scalars = None;
            for shard in self.shards.iter_mut() {
                let mut blob = crate::wire::get_bytes(buf)?;
                scalars = Some(shard.load_state(&mut blob)?);
                if !blob.is_empty() {
                    return None;
                }
            }
            let s = scalars?;
            self.now = s.now;
            self.ext_seq = s.ext_seq;
            self.last_progress = s.last_progress;
            Some(())
        };
        inner().is_some()
    }

    fn host_times(&self) -> Vec<HostShardTimes> {
        if self.options.host_sample == 0 {
            return Vec::new();
        }
        self.host.iter().map(|h| h.times.clone()).collect()
    }
}

impl<E> fmt::Debug for InProcessEngine<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InProcessEngine")
            .field("shards", &self.shards.len())
            .field("components", &self.shard_of.len())
            .field(
                "pending_events",
                &self.shards.iter().map(|s| s.queue.len()).sum::<usize>(),
            )
            .field("now", &self.now)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Context, RunOutcome, TraceSpec};
    use std::any::Any;

    fn metrics<E: Send + 'static>(sim: &Simulator<E>) -> EngineMetrics {
        Engine::shard_metrics(sim).remove(0)
    }

    fn watchdog(window: Tick) -> EngineOptions {
        EngineOptions {
            watchdog: window,
            ..EngineOptions::default()
        }
    }

    #[derive(Debug, Clone, PartialEq)]
    enum Ev {
        Ping(u32),
        Stop,
        Fail,
    }

    struct Echo {
        peer: Option<ComponentId>,
        received: Vec<u32>,
        limit: u32,
    }

    impl Component<Ev> for Echo {
        fn name(&self) -> &str {
            "echo"
        }
        fn handle(&mut self, ctx: &mut Context<'_, Ev>, event: Ev) {
            match event {
                Ev::Ping(n) => {
                    self.received.push(n);
                    if n < self.limit {
                        if let Some(peer) = self.peer {
                            ctx.schedule(peer, ctx.now().plus_ticks(2), Ev::Ping(n + 1));
                        }
                    }
                }
                Ev::Stop => ctx.stop(),
                Ev::Fail => ctx.fail("synthetic failure"),
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn echo_pair(limit: u32) -> (Simulator<Ev>, ComponentId, ComponentId) {
        let mut sim = Simulator::new(1);
        let a = sim.add_component(Box::new(Echo {
            peer: None,
            received: vec![],
            limit,
        }));
        let b = sim.add_component(Box::new(Echo {
            peer: Some(a),
            received: vec![],
            limit,
        }));
        sim.component_as_mut::<Echo>(a).unwrap().peer = Some(b);
        (sim, a, b)
    }

    #[test]
    fn ping_pong_until_drained() {
        let (mut sim, a, b) = echo_pair(5);
        sim.schedule(a, Time::at(0), Ev::Ping(0));
        let stats = sim.run();
        assert_eq!(stats.outcome, RunOutcome::Drained);
        assert_eq!(stats.events_executed, 6);
        assert_eq!(sim.component_as::<Echo>(a).unwrap().received, vec![0, 2, 4]);
        assert_eq!(sim.component_as::<Echo>(b).unwrap().received, vec![1, 3, 5]);
        assert_eq!(sim.now(), Time::at(10));
    }

    #[test]
    fn stop_leaves_queue_pending() {
        let (mut sim, a, _) = echo_pair(100);
        sim.schedule(a, Time::at(0), Ev::Ping(0));
        sim.schedule(a, Time::at(3), Ev::Stop);
        let stats = sim.run();
        assert_eq!(stats.outcome, RunOutcome::Stopped);
        // The in-flight ping to the peer is still pending.
        let resumed = sim.run();
        assert_eq!(resumed.outcome, RunOutcome::Drained);
    }

    #[test]
    fn failure_is_surfaced() {
        let (mut sim, a, _) = echo_pair(1);
        sim.schedule(a, Time::at(0), Ev::Fail);
        let stats = sim.run();
        assert_eq!(
            stats.outcome,
            RunOutcome::Failed("synthetic failure".into())
        );
    }

    #[test]
    fn tick_limit_pauses_and_resumes() {
        let (mut sim, a, b) = echo_pair(50);
        sim.schedule(a, Time::at(0), Ev::Ping(0));
        let stats = sim.run_until(10);
        assert_eq!(stats.outcome, RunOutcome::TickLimit);
        assert!(sim.now().tick() <= 10);
        let stats = sim.run();
        assert_eq!(stats.outcome, RunOutcome::Drained);
        let total = sim.component_as::<Echo>(a).unwrap().received.len()
            + sim.component_as::<Echo>(b).unwrap().received.len();
        assert_eq!(total, 51);
    }

    #[test]
    fn unknown_target_fails() {
        let mut sim: Simulator<Ev> = Simulator::new(0);
        sim.schedule(ComponentId::from_index(9), Time::at(0), Ev::Stop);
        let stats = sim.run();
        assert!(matches!(stats.outcome, RunOutcome::Failed(_)));
    }

    /// A component that records one draw from its private stream.
    struct Drawer {
        drawn: Vec<u64>,
    }

    impl Component<Ev> for Drawer {
        fn name(&self) -> &str {
            "drawer"
        }
        fn handle(&mut self, ctx: &mut Context<'_, Ev>, _event: Ev) {
            let v = ctx.rng().gen_u64();
            self.drawn.push(v);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn per_component_rng_streams_are_deterministic() {
        let run = |seed: u64| {
            let mut sim = Simulator::<Ev>::new(seed);
            let a = sim.add_component(Box::new(Drawer { drawn: vec![] }));
            let b = sim.add_component(Box::new(Drawer { drawn: vec![] }));
            // b runs before a: execution order must not affect streams.
            sim.schedule(b, Time::at(0), Ev::Ping(0));
            sim.schedule(a, Time::at(1), Ev::Ping(0));
            sim.run();
            (
                sim.component_as::<Drawer>(a).unwrap().drawn.clone(),
                sim.component_as::<Drawer>(b).unwrap().drawn.clone(),
            )
        };
        let (a1, b1) = run(42);
        let (a2, b2) = run(42);
        assert_eq!(a1, a2);
        assert_eq!(b1, b2);
        assert_ne!(a1, b1, "components must own unrelated streams");
        // The stream is a pure function of (seed, index), matching
        // Rng::stream directly.
        assert_eq!(a1[0], Rng::stream(42, 0).gen_u64());
        assert_eq!(b1[0], Rng::stream(42, 1).gen_u64());
        let (a3, _) = run(43);
        assert_ne!(a1, a3, "stream ignored the seed");
    }

    #[test]
    fn batch_metrics_account_every_event_once() {
        let (mut sim, a, _) = echo_pair(9);
        sim.schedule(a, Time::at(0), Ev::Ping(0));
        let stats = sim.run();
        assert_eq!(stats.outcome, RunOutcome::Drained);
        let m = metrics(&sim);
        assert_eq!(m.events_executed, stats.events_executed);
        assert_eq!(m.batch_counts.iter().sum::<u64>(), m.batches);
        // Ping-pong runs one event per (tick, epsilon): all batches size 1.
        assert_eq!(m.batches, m.events_executed);
        assert_eq!(m.batch_counts[1], m.batches, "size-1 batches fill bucket 1");
        assert_eq!(m.total_enqueued, stats.total_enqueued);
        assert_eq!(m.queue_len, 0);
    }

    #[test]
    fn aborted_batch_still_counts_executed_events() {
        let mut sim = Simulator::new(7);
        let a = sim.add_component(Box::new(Echo {
            peer: None,
            received: vec![],
            limit: 0,
        }));
        // Three same-time events; the second stops the run, which halts
        // at the end of the generation.
        sim.schedule(a, Time::at(1), Ev::Ping(0));
        sim.schedule(a, Time::at(1), Ev::Stop);
        sim.schedule(a, Time::at(1), Ev::Ping(1));
        let stats = sim.run();
        assert_eq!(stats.outcome, RunOutcome::Stopped);
        assert_eq!(stats.events_executed, 3);
        let m = metrics(&sim);
        assert_eq!(m.events_executed, 3);
        assert_eq!(m.batches, 1);
        assert_eq!(m.batch_counts[2], 1, "batch of 3 lands in bucket 2");
        assert_eq!(m.queue_len, 0, "the whole generation executed");
    }

    #[test]
    fn stats_report_throughput() {
        let (mut sim, a, _) = echo_pair(3);
        sim.schedule(a, Time::at(0), Ev::Ping(0));
        let stats = sim.run();
        assert!(stats.events_per_second() >= 0.0);
        assert_eq!(stats.total_enqueued, 4);
        assert!(stats.queue_high_water >= 1);
    }

    /// A component that traces every event it handles.
    struct TracerComp;

    impl Component<Ev> for TracerComp {
        fn name(&self) -> &str {
            "tracer"
        }
        fn handle(&mut self, ctx: &mut Context<'_, Ev>, event: Ev) {
            if let Ev::Ping(n) = event {
                ctx.trace(0, ctx.self_id().index() as u32, n as u64, 0);
                ctx.trace(1, ctx.self_id().index() as u32, n as u64, 1);
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn context_trace_collects_through_spec() {
        let spec = TraceSpec {
            kinds: 0b01, // kind 0 only
            ..TraceSpec::default()
        };
        let mut sim = Simulator::with_options(
            0,
            EngineOptions {
                trace: Some((spec, 16)),
                ..EngineOptions::default()
            },
        );
        let a = sim.add_component(Box::new(TracerComp));
        sim.schedule(a, Time::at(1), Ev::Ping(7));
        sim.schedule(a, Time::at(2), Ev::Ping(8));
        sim.run();
        let recs = Engine::trace_records(&sim);
        assert_eq!(recs.len(), 2, "kind-1 records filtered out");
        assert_eq!(recs[0].id, 7);
        assert_eq!(recs[1].id, 8);
        assert_eq!(recs[0].kind, 0);
        assert_eq!(recs[0].time, Time::at(1));
    }

    /// Self-schedules every `step` ticks for `count` rounds, reporting
    /// progress only when `productive`.
    struct Stepper {
        step: Tick,
        count: u32,
        productive: bool,
    }

    impl Component<Ev> for Stepper {
        fn name(&self) -> &str {
            "stepper"
        }
        fn handle(&mut self, ctx: &mut Context<'_, Ev>, _event: Ev) {
            if self.productive {
                ctx.progress();
            }
            if self.count > 0 {
                self.count -= 1;
                ctx.schedule_self(ctx.now().plus_ticks(self.step), Ev::Ping(0));
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn watchdog_trips_on_unproductive_churn() {
        let mut sim = Simulator::with_options(0, watchdog(20));
        let a = sim.add_component(Box::new(Stepper {
            step: 5,
            count: 1000,
            productive: false,
        }));
        sim.schedule(a, Time::at(0), Ev::Ping(0));
        let stats = sim.run();
        assert_eq!(stats.outcome, RunOutcome::Watchdog { last_progress: 0 });
        assert!(!stats.outcome.is_ok());
        // The pending queue survives for diagnostics.
        assert!(metrics(&sim).queue_len > 0);
        // The trip is prompt: the first event past the window breaks.
        assert!(sim.now().tick() <= 25);
    }

    #[test]
    fn watchdog_resets_on_progress() {
        let mut sim = Simulator::with_options(0, watchdog(20));
        let a = sim.add_component(Box::new(Stepper {
            step: 5,
            count: 50,
            productive: true,
        }));
        sim.schedule(a, Time::at(0), Ev::Ping(0));
        let stats = sim.run();
        assert_eq!(stats.outcome, RunOutcome::Drained);
    }

    #[test]
    fn disarmed_watchdog_never_fires() {
        let mut sim = Simulator::new(0);
        let a = sim.add_component(Box::new(Stepper {
            step: 50,
            count: 10,
            productive: false,
        }));
        sim.schedule(a, Time::at(0), Ev::Ping(0));
        assert_eq!(sim.run().outcome, RunOutcome::Drained);
    }

    #[test]
    fn watchdog_defers_to_tick_limit() {
        // Events beyond the tick limit must not trip the watchdog: the
        // run pauses as TickLimit exactly as without one.
        let mut sim = Simulator::with_options(0, watchdog(30));
        let a = sim.add_component(Box::new(Stepper {
            step: 100,
            count: 5,
            productive: false,
        }));
        sim.schedule(a, Time::at(0), Ev::Ping(0));
        let stats = sim.run_until(50);
        assert_eq!(stats.outcome, RunOutcome::TickLimit);
    }

    #[test]
    fn engine_trait_object_runs_and_downcasts() {
        let (sim, a, _) = echo_pair(5);
        let mut engine: Box<dyn Engine<Ev>> = Box::new(sim);
        engine.schedule(a, Time::at(0), Ev::Ping(0));
        let stats = engine.run();
        assert_eq!(stats.outcome, RunOutcome::Drained);
        assert_eq!(engine.num_shards(), 1);
        assert_eq!(engine.events_executed(), 6);
        let echo = engine
            .as_ref()
            .component_as::<Echo>(a)
            .expect("downcast through dyn Engine");
        assert_eq!(echo.received, vec![0, 2, 4]);
    }
}

#[cfg(test)]
mod sharded_tests {
    use super::*;
    use crate::{Context, RunOutcome, TraceSpec};
    use std::any::Any;

    #[derive(Debug, Clone)]
    enum Ev {
        Ping(u32),
        Stop,
        Fail,
    }

    /// A ring relay: forwards a token to the next component, drawing one
    /// random value and tracing each hop.
    struct Relay {
        next: ComponentId,
        hops_left: u32,
        seen: Vec<u32>,
        draws: Vec<u64>,
        productive: bool,
    }

    impl Component<Ev> for Relay {
        fn name(&self) -> &str {
            "relay"
        }
        fn handle(&mut self, ctx: &mut Context<'_, Ev>, event: Ev) {
            match event {
                Ev::Ping(n) => {
                    self.seen.push(n);
                    self.draws.push(ctx.rng().gen_u64());
                    if self.productive {
                        ctx.progress();
                    }
                    ctx.trace(0, ctx.self_id().index() as u32, n as u64, 0);
                    if self.hops_left > 0 {
                        self.hops_left -= 1;
                        ctx.schedule(self.next, ctx.now().plus_ticks(1), Ev::Ping(n + 1));
                    }
                }
                Ev::Stop => ctx.stop(),
                Ev::Fail => ctx.fail("sharded failure"),
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Builds a ring of `size` relays with `tokens` tokens injected at
    /// evenly spaced components, each forwarded `hops` times.
    fn build_ring(seed: u64, size: usize, tokens: usize, hops: u32) -> Simulator<Ev> {
        build_ring_with(seed, size, tokens, hops, false, EngineOptions::default())
    }

    fn build_ring_with(
        seed: u64,
        size: usize,
        tokens: usize,
        hops: u32,
        productive: bool,
        options: EngineOptions,
    ) -> Simulator<Ev> {
        let mut sim = Simulator::with_options(seed, options);
        let ids: Vec<ComponentId> = (0..size)
            .map(|i| {
                sim.add_component(Box::new(Relay {
                    next: ComponentId::from_index((i + 1) % size),
                    hops_left: hops,
                    seen: vec![],
                    draws: vec![],
                    productive,
                }))
            })
            .collect();
        for t in 0..tokens {
            let at = ids[(t * size) / tokens];
            sim.schedule(at, Time::at(0), Ev::Ping(0));
        }
        sim
    }

    fn traced() -> EngineOptions {
        EngineOptions {
            trace: Some((TraceSpec::default(), 4096)),
            ..EngineOptions::default()
        }
    }

    fn watchdog(window: Tick) -> EngineOptions {
        EngineOptions {
            watchdog: window,
            ..EngineOptions::default()
        }
    }

    /// Round-robin component → shard map.
    fn striped(n: usize, shards: u32) -> Vec<u32> {
        (0..n).map(|i| (i as u32) % shards).collect()
    }

    fn state_of(engine: &dyn Engine<Ev>) -> Vec<(Vec<u32>, Vec<u64>)> {
        (0..engine.num_components())
            .map(|i| {
                let r = engine
                    .component_as::<Relay>(ComponentId::from_index(i))
                    .unwrap();
                (r.seen.clone(), r.draws.clone())
            })
            .collect()
    }

    #[test]
    fn sharded_matches_sequential_bit_for_bit() {
        for shards in [1u32, 2, 3, 4] {
            let mut seq = build_ring_with(9, 8, 3, 40, false, traced());
            let seq_stats = seq.run();
            assert_eq!(seq_stats.outcome, RunOutcome::Drained);

            let sharded = build_ring_with(9, 8, 3, 40, false, traced());
            let mut sharded = sharded.into_sharded(shards as usize, striped(8, shards));
            let stats = sharded.run();
            assert_eq!(stats.outcome, RunOutcome::Drained);

            assert_eq!(stats.events_executed, seq_stats.events_executed);
            assert_eq!(stats.total_enqueued, seq_stats.total_enqueued);
            assert_eq!(Engine::now(&sharded), Engine::now(&seq), "end time");
            assert_eq!(
                state_of(&sharded),
                state_of(&seq),
                "component state diverged at {shards} shards"
            );
            assert_eq!(
                Engine::trace_records(&sharded),
                Engine::trace_records(&seq),
                "trace diverged at {shards} shards"
            );
        }
    }

    #[test]
    fn cross_shard_ping_pong_drains() {
        // Both components on different shards: every hop crosses.
        let sim = build_ring(1, 2, 1, 10);
        let mut sharded = sim.into_sharded(2, striped(2, 2));
        // Each relay has a budget of 10 forwards: 20 hops + 1 injection.
        let stats = sharded.run();
        assert_eq!(stats.outcome, RunOutcome::Drained);
        assert_eq!(stats.events_executed, 21);
        assert_eq!(Engine::now(&sharded), Time::at(20));
    }

    #[test]
    fn stop_halts_at_round_boundary_and_resumes() {
        let mut sim = build_ring(3, 4, 1, 50);
        sim.schedule(ComponentId::from_index(2), Time::at(5), Ev::Stop);
        let mut sharded = sim.into_sharded(2, striped(4, 2));
        let stats = sharded.run();
        assert_eq!(stats.outcome, RunOutcome::Stopped);
        let resumed = sharded.run();
        assert_eq!(resumed.outcome, RunOutcome::Drained);
        // 4 relays × 50 forwards + 1 injection + 1 stop event.
        assert_eq!(stats.events_executed + resumed.events_executed, 202);
    }

    #[test]
    fn failure_is_surfaced_with_message() {
        let mut sim = build_ring(5, 4, 1, 50);
        sim.schedule(ComponentId::from_index(1), Time::at(3), Ev::Fail);
        let mut sharded = sim.into_sharded(4, striped(4, 4));
        let stats = sharded.run();
        assert_eq!(stats.outcome, RunOutcome::Failed("sharded failure".into()));
    }

    #[test]
    fn unknown_target_fails() {
        let mut sim = build_ring(7, 2, 0, 0);
        sim.schedule(ComponentId::from_index(99), Time::at(0), Ev::Ping(0));
        let mut sharded = sim.into_sharded(2, striped(2, 2));
        let stats = sharded.run();
        assert!(
            matches!(&stats.outcome, RunOutcome::Failed(m) if m.contains("component#99")),
            "got {:?}",
            stats.outcome
        );
    }

    #[test]
    fn watchdog_trips_identically_across_shard_counts() {
        // Nobody reports progress, so last_progress stays 0 and the
        // watchdog must trip at the identical point on every backend.
        let mut seq = build_ring_with(13, 6, 2, 60, false, watchdog(10));
        let seq_stats = seq.run();
        assert_eq!(
            seq_stats.outcome,
            RunOutcome::Watchdog { last_progress: 0 },
            "sequential"
        );
        for shards in [1u32, 2, 4] {
            let sim = build_ring_with(13, 6, 2, 60, false, watchdog(10));
            let mut sharded = sim.into_sharded(shards as usize, striped(6, shards));
            let stats = sharded.run();
            assert_eq!(stats.outcome, seq_stats.outcome, "{shards} shards");
            assert_eq!(
                Engine::now(&sharded),
                Engine::now(&seq),
                "trip time at {shards} shards"
            );
            assert_eq!(
                stats.events_executed, seq_stats.events_executed,
                "events at {shards} shards"
            );
            // Pending events survive for diagnostics, not torn down.
            assert!(Engine::total_enqueued(&sharded) > Engine::events_executed(&sharded));
        }
    }

    #[test]
    fn watchdog_spares_productive_runs() {
        // Every hop reports progress, so even a tiny window never fires.
        let sim = build_ring_with(13, 6, 2, 60, true, watchdog(2));
        let mut sharded = sim.into_sharded(3, striped(6, 3));
        let stats = sharded.run();
        assert_eq!(stats.outcome, RunOutcome::Drained);
    }

    #[test]
    fn tick_limit_pauses_and_resumes() {
        let sim = build_ring(11, 4, 2, 30);
        let mut sharded = sim.into_sharded(2, striped(4, 2));
        let stats = sharded.run_until(10);
        assert_eq!(stats.outcome, RunOutcome::TickLimit);
        assert!(Engine::now(&sharded).tick() <= 10);
        let stats = sharded.run();
        assert_eq!(stats.outcome, RunOutcome::Drained);
        let total: u64 = stats.events_executed;
        assert!(total > 0);
        let all: u64 = Engine::events_executed(&sharded);
        assert_eq!(all, 122, "4 relays × 30 forwards + 2 injections");
    }

    #[test]
    fn shard_metrics_account_every_event_once() {
        let sim = build_ring(13, 6, 2, 20);
        let mut sharded = sim.into_sharded(3, striped(6, 3));
        let stats = sharded.run();
        assert_eq!(stats.outcome, RunOutcome::Drained);
        let per_shard = Engine::shard_metrics(&sharded);
        assert_eq!(per_shard.len(), 3);
        let total: u64 = per_shard.iter().map(|m| m.events_executed).sum();
        assert_eq!(total, Engine::events_executed(&sharded));
        assert_eq!(total, stats.events_executed);
        for m in &per_shard {
            assert_eq!(m.batch_counts.iter().sum::<u64>(), m.batches);
            assert_eq!(m.queue_len, 0, "drained shard still has events");
        }
    }
}
