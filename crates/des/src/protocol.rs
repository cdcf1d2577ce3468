//! The generation-lockstep round protocol: the one run loop of the
//! crate, written once against [`ShardTransport`] and shared by the
//! in-process [`InProcessEngine`](crate::InProcessEngine) (one shard
//! inline, or one thread per shard) and the multi-process
//! [`WorkerEngine`].
//!
//! Each loop iteration is one barrier round covering one generation:
//!
//! 1. **Fold.** Publish the local queue head and last-progress tick; the
//!    transport returns the global minimum head `m` and maximum progress.
//!    Halt decisions (drained / tick limit / watchdog) are taken here
//!    from the fold values — identical on every shard, so unanimous.
//! 2. **Sample + execute.** Close any sampling-window edges up to `m`
//!    over the shard's own components, then execute the local slice of
//!    generation `m` in canonical stamp order. Events for local
//!    components go straight into the local queue; remote events
//!    accumulate in per-destination outboxes.
//! 3. **Exchange.** Ship outboxes, trace records, and stop/failure
//!    flags; deliver inbound events in sender order; halt on the agreed
//!    stop/failure state, so a stop or failure always takes effect at
//!    the end of its generation.
//!
//! Because cross-shard events are delivered at the end of the round, an
//! event scheduled *during* generation `m` at time `m` joins the *next*
//! generation. With one shard the transport is trivial (the fold is the
//! local head, the exchange only flushes trace records) and every event
//! goes straight into the local queue, so the loop reduces to draining
//! and dispatching one generation after another.

use crate::component::{Component, ComponentId};
use crate::engine::{
    next_edge_after, Context, Engine, EngineMetrics, EngineOptions, EventStamp, RunOutcome,
    RunStats, SinkRef, Stamped, TaggedTrace, TraceSink, EXTERNAL_SRC,
};
use crate::event::{EventEntry, EventQueue};
use crate::host::{HostRecorder, HostRoundSlice};
use crate::rng::Rng;
use crate::time::{Tick, Time};
use crate::trace::TraceEvent;
use crate::transport::{RoundOut, ShardTransport, TransportError};

/// One shard: a slice of the component space plus its own event queue and
/// executor counters. `components` is full-length (indexed by component
/// id) with `None` in the slots other shards own, so dispatch needs no id
/// translation.
pub(crate) struct Shard<E> {
    pub(crate) components: Vec<Option<Box<dyn Component<E>>>>,
    pub(crate) rngs: Vec<Rng>,
    pub(crate) seqs: Vec<u64>,
    pub(crate) queue: EventQueue<Stamped<E>>,
    pub(crate) batch: Vec<EventEntry<Stamped<E>>>,
    pub(crate) events_executed: u64,
    pub(crate) batches: u64,
    pub(crate) batch_counts: [u64; crate::engine::BATCH_BUCKETS],
}

impl<E> Shard<E> {
    /// An empty shard over a full-length component table of `n` slots,
    /// with per-component random streams and send counters copied from
    /// the engine it is cut from.
    pub(crate) fn empty(n: usize, rngs: &[Rng], seqs: &[u64]) -> Self {
        Shard {
            components: (0..n).map(|_| None).collect(),
            rngs: rngs.to_vec(),
            seqs: seqs.to_vec(),
            queue: EventQueue::new(),
            batch: Vec::new(),
            events_executed: 0,
            batches: 0,
            batch_counts: [0; crate::engine::BATCH_BUCKETS],
        }
    }

    pub(crate) fn record_batch(&mut self, done: u64) {
        if done == 0 {
            return;
        }
        self.events_executed += done;
        self.batches += 1;
        self.batch_counts[crate::engine::log2_bucket(done)] += 1;
    }

    pub(crate) fn metrics(&self) -> EngineMetrics {
        EngineMetrics {
            events_executed: self.events_executed,
            batches: self.batches,
            batch_counts: self.batch_counts,
            queue_len: self.queue.len(),
            queue_high_water: self.queue.high_water_mark(),
            total_enqueued: self.queue.total_enqueued(),
            horizon: self.queue.horizon(),
            horizon_resizes: self.queue.horizon_resizes(),
            overflow_spills: self.queue.overflow_spills(),
            overflow_len: self.queue.overflow_len(),
        }
    }
}

impl<E: crate::wire::WireCodec + 'static> Shard<E> {
    /// Serializes this shard as one canonical shard blob (see
    /// [`crate::snapshot`]). The engine-global scalars ride inside each
    /// blob so a worker process can restore from its own blob alone.
    pub(crate) fn save_state(
        &self,
        now: Time,
        ext_seq: u64,
        last_progress: Tick,
        out: &mut Vec<u8>,
    ) {
        crate::snapshot::save_shard(
            out,
            now,
            ext_seq,
            last_progress,
            self.events_executed,
            self.batches,
            &self.batch_counts,
            &self.queue,
            &self.components,
            &self.rngs,
            &self.seqs,
        );
    }

    /// Overlays a shard blob onto this freshly built shard, returning
    /// the engine-global scalars for the caller to apply. `None` on
    /// malformed or mismatched state.
    pub(crate) fn load_state(&mut self, buf: &mut &[u8]) -> Option<crate::snapshot::ShardScalars> {
        let s = crate::snapshot::load_shard(
            buf,
            &mut self.queue,
            &mut self.components,
            &mut self.rngs,
            &mut self.seqs,
        )?;
        self.events_executed = s.events_executed;
        self.batches = s.batches;
        self.batch_counts = s.batch_counts;
        Some(s)
    }
}

/// The run parameters every shard agrees on before the loop starts.
pub(crate) struct ProtocolParams<'a> {
    pub my_shard: u32,
    pub num_shards: usize,
    pub tick_limit: Tick,
    pub start_now: Time,
    pub start_progress: Tick,
    /// Component index → owning shard.
    pub shard_of: &'a [u32],
    /// The engine's planes. On the progress board, every shard publishes
    /// its event count and shard 0 also the tick and round count.
    pub options: &'a EngineOptions,
}

/// Runs barrier rounds over `transport` until a halt decision. Returns
/// the outcome, the time of the last executed generation, and the final
/// globally agreed progress tick.
///
/// `host` collects out-of-band wall-time attribution (phase totals every
/// round, per-event component classes on sampled rounds); disabled
/// recorders cost one branch per round. Host clocks never influence
/// which events run or in what order.
pub(crate) fn run_shard_rounds<E: 'static, T: ShardTransport<E>>(
    shard: &mut Shard<E>,
    p: &ProtocolParams<'_>,
    transport: &mut T,
    host: &mut HostRecorder,
) -> Result<(RunOutcome, Time, Tick), TransportError> {
    let mut local_now = p.start_now;
    let mut local_out: Vec<Vec<(ComponentId, Time, Stamped<E>)>> =
        (0..p.num_shards).map(|_| Vec::new()).collect();
    let mut round_trace: Vec<TaggedTrace> = Vec::new();
    let mut batch = std::mem::take(&mut shard.batch);
    let mut local_progress = p.start_progress;
    let sample_interval = p.options.sample_interval;
    let watchdog = p.options.watchdog;
    let trace_spec = p.options.trace.map(|(spec, _)| spec);
    // Every shard advances its edge cursor from the same global `m`
    // sequence, so all cursors stay in lockstep and together the shards
    // sample every component exactly once per edge.
    let mut next_edge =
        (sample_interval > 0).then(|| next_edge_after(p.start_now.tick(), sample_interval));
    // Assigned by the fold before every loop exit.
    let mut global_progress;
    let outcome = loop {
        let profiling = host.enabled();
        // Phase marks share boundaries: consecutive `now_ns` reads bound
        // fold / sample-edge / drain / execute / exchange with at most
        // six clock reads per round.
        let m0 = if profiling { host.now_ns() } else { 0 };
        // The published head is reused below: nothing touches the queue
        // between the fold and this shard's drain.
        let head = shard.queue.peek_time();
        let fold = transport.fold(head, local_progress)?;
        let m1 = if profiling { host.now_ns() } else { 0 };
        let round_fold_ns = m1 - m0;
        if profiling {
            host.times.fold_ns += round_fold_ns;
        }
        global_progress = fold.global_progress;
        // All halt decisions are unanimous: every shard computed them
        // from the identical fold values.
        let Some(m) = fold.m else {
            break RunOutcome::Drained;
        };
        if m.tick() > p.tick_limit {
            break RunOutcome::TickLimit;
        }
        if watchdog > 0 && m.tick().saturating_sub(global_progress) > watchdog {
            break RunOutcome::Watchdog {
                last_progress: global_progress,
            };
        }
        // This round covers any window edges up to `m`: every event
        // below the edge executed in an earlier round, so each shard
        // closes the window over its own components before generation
        // `m` runs.
        if next_edge.is_some_and(|e| e <= m.tick()) {
            while let Some(edge) = next_edge.filter(|&e| e <= m.tick()) {
                for slot in shard.components.iter_mut() {
                    if let Some(c) = slot.as_deref_mut() {
                        c.sample(edge);
                    }
                }
                next_edge = edge.checked_add(sample_interval);
            }
            if profiling {
                host.times.sample_edge_ns += host.now_ns() - m1;
            }
        }
        local_now = m;

        let mut stop_local = false;
        let sampled = profiling && host.batch_sampled();
        let mut round_events = 0u64;
        let mut round_exec_ns = 0u64;
        // The batch executes in stamp order, so the first failure seen
        // is this shard's smallest-stamp failure; the transport folds
        // the cross-shard minimum.
        let mut failure_local: Option<(EventStamp, String)> = None;
        if head == Some(m) {
            let m2 = if profiling { host.now_ns() } else { 0 };
            shard.queue.take_head(m, &mut batch);
            if batch.len() > 1 {
                batch.sort_unstable_by_key(|e| e.payload.stamp);
            }
            let m3 = if profiling { host.now_ns() } else { 0 };
            if profiling {
                host.times.drain_ns += m3 - m2;
            }
            let mut done = 0u64;
            let mut progress_local = false;
            // On sampled rounds, consecutive marks attribute each
            // event's wall time to its component's class.
            let mut ev_mark = m3;
            for entry in batch.drain(..) {
                let idx = entry.target.index();
                let mut fail_local: Option<String> = None;
                let taken = shard.components.get_mut(idx).and_then(|slot| slot.take());
                match taken {
                    Some(mut component) => {
                        let sink = if T::ALONE {
                            SinkRef::Local(&mut shard.queue)
                        } else {
                            SinkRef::Sharded {
                                queue: &mut shard.queue,
                                shard_of: p.shard_of,
                                my_shard: p.my_shard,
                                outboxes: &mut local_out,
                            }
                        };
                        let mut ctx = Context {
                            now: m,
                            self_id: entry.target,
                            sink,
                            seq: &mut shard.seqs[idx],
                            rng: &mut shard.rngs[idx],
                            stop_requested: &mut stop_local,
                            progress: &mut progress_local,
                            failure: &mut fail_local,
                            trace: trace_spec.map(|spec| TraceSink {
                                spec,
                                stamp: entry.payload.stamp,
                                recno: 0,
                                out: &mut round_trace,
                            }),
                        };
                        component.handle(&mut ctx, entry.payload.payload);
                        if sampled {
                            let ev_end = host.now_ns();
                            host.times
                                .add_class(component.host_class(), ev_end - ev_mark, 1);
                            host.times.sampled_events += 1;
                            ev_mark = ev_end;
                        }
                        shard.components[idx] = Some(component);
                        done += 1;
                    }
                    None => {
                        fail_local = Some(format!("event targeted unregistered {}", entry.target));
                    }
                }
                if let Some(msg) = fail_local {
                    if failure_local.is_none() {
                        failure_local = Some((entry.payload.stamp, msg));
                    }
                }
            }
            shard.record_batch(done);
            if profiling {
                round_exec_ns = host.now_ns() - m3;
                host.times.execute_ns += round_exec_ns;
            }
            round_events = done;
            if progress_local {
                local_progress = m.tick();
            }
        }

        let m4 = if profiling { host.now_ns() } else { 0 };
        let end = transport.exchange(
            RoundOut {
                outboxes: &mut local_out,
                traces: &mut round_trace,
                stop: stop_local,
                failure: failure_local,
                events: round_events,
            },
            &mut |target, time, stamped| shard.queue.push(target, time, stamped),
        )?;
        if profiling {
            let round_exch_ns = host.now_ns() - m4;
            host.times.exchange_ns += round_exch_ns;
            if sampled {
                host.times.push_slice(HostRoundSlice {
                    start_ns: m0,
                    tick: m.tick(),
                    events: round_events,
                    execute_ns: round_exec_ns,
                    fold_ns: round_fold_ns,
                    exchange_ns: round_exch_ns,
                });
            }
        }
        if let Some(board) = &p.options.progress {
            board.record_events(p.my_shard as usize, shard.events_executed);
            if p.my_shard == 0 {
                board.record_tick(m.tick());
                board.add_round();
            }
        }
        if let Some(msg) = end.failure {
            break RunOutcome::Failed(msg);
        }
        if end.stopped {
            break RunOutcome::Stopped;
        }
    };
    shard.batch = batch;
    Ok((outcome, local_now, global_progress))
}

// ---------------------------------------------------------------------------
// Multi-process worker engine
// ---------------------------------------------------------------------------

#[cfg(unix)]
pub use worker::WorkerEngine;

#[cfg(unix)]
mod worker {
    use super::*;
    use crate::simulator::InProcessEngine;
    use crate::transport::{ProcessTransport, WorkerLink};
    use crate::wire::WireCodec;
    use std::time::Instant;

    /// One shard of a simulation running in its own OS process, driven
    /// over a [`WorkerLink`] by the parent hub.
    ///
    /// Built with [`InProcessEngine::into_worker`] from a *fully
    /// constructed* one-shard engine (every component registered,
    /// initial events scheduled) that is identical in every worker —
    /// same configuration, same seed. The conversion keeps only the
    /// components this shard owns and the pending events targeting
    /// them; foreign slots become `None` and foreign events are
    /// dropped, because the owning worker holds its own identically
    /// stamped copies. Per-component RNG streams and send counters stay
    /// full-length, so stamps and draws line up bit-for-bit with the
    /// other backends.
    ///
    /// Differences from the in-process engine, by construction:
    /// trace records ship to the hub every round (so
    /// [`Engine::trace_records`] is empty here — the hub merges them),
    /// [`Engine::shard_metrics`] reports only this shard (the hub
    /// collects the full set from every worker's DONE frame), and the
    /// progress board is the hub's to publish.
    pub struct WorkerEngine<E> {
        shard: Shard<E>,
        shard_of: Vec<u32>,
        my_shard: u32,
        num_shards: usize,
        now: Time,
        ext_seq: u64,
        last_progress: Tick,
        options: EngineOptions,
        link: WorkerLink,
        host: HostRecorder,
    }

    impl<E: WireCodec + Send + 'static> InProcessEngine<E> {
        /// Converts this fully built one-shard engine into the
        /// `my_shard`-th of `num_shards` worker shards, communicating
        /// through `link`. The engine's options carry over.
        ///
        /// # Panics
        ///
        /// Panics if the engine is already sharded, `num_shards` is
        /// zero, `my_shard` is out of range, or `shard_of` is not exactly
        /// one entry per component.
        pub fn into_worker(
            mut self,
            my_shard: u32,
            num_shards: usize,
            shard_of: Vec<u32>,
            link: WorkerLink,
        ) -> WorkerEngine<E> {
            assert!(
                (my_shard as usize) < num_shards,
                "worker index out of range"
            );
            // Every worker scheduled the same initial events with the
            // same stamps, so each foreign event exists — identically
            // stamped — in its owning worker's queue.
            let shard = self
                .partition(num_shards, &shard_of)
                .swap_remove(my_shard as usize);
            let mut options = self.options;
            options.progress = None;
            WorkerEngine {
                shard,
                shard_of,
                my_shard,
                num_shards,
                now: self.now,
                ext_seq: self.ext_seq,
                last_progress: self.last_progress,
                host: HostRecorder::with_sample(options.host_sample),
                options,
                link,
            }
        }
    }

    impl<E: WireCodec + Send + 'static> WorkerEngine<E> {
        fn owned(&self, id: ComponentId) -> bool {
            self.shard_of.get(id.index()).copied() == Some(self.my_shard)
        }
    }

    impl<E: WireCodec + Send + 'static> Engine<E> for WorkerEngine<E> {
        /// External schedules must advance `ext_seq` on **every** worker
        /// to keep stamps aligned, but only the owning worker enqueues
        /// the event.
        fn schedule(&mut self, target: ComponentId, time: Time, payload: E) {
            assert!(time >= self.now, "cannot schedule into the past");
            let stamp = EventStamp {
                src: EXTERNAL_SRC,
                seq: self.ext_seq,
            };
            self.ext_seq += 1;
            if self.owned(target) {
                self.shard
                    .queue
                    .push(target, time, Stamped { stamp, payload });
            }
        }

        fn run_until(&mut self, tick_limit: Tick) -> RunStats {
            let start = Instant::now();
            let start_events = self.shard.events_executed;
            let link = self.link.clone();
            let mut transport = link.0.borrow_mut();
            // Track checkpoint boundaries by multiples of the interval,
            // not by `now`: after a pause the clock sits at the last
            // executed generation, which may be short of the boundary,
            // and recomputing from it would revisit the same edge
            // forever.
            let interval = self.options.checkpoint_interval;
            let mut next_ckpt = (interval > 0).then(|| next_edge_after(self.now.tick(), interval));
            let outcome = loop {
                let bound = next_ckpt.map_or(tick_limit, |c| c.min(tick_limit));
                let params = ProtocolParams {
                    my_shard: self.my_shard,
                    num_shards: self.num_shards,
                    tick_limit: bound,
                    start_now: self.now,
                    start_progress: self.last_progress,
                    shard_of: &self.shard_of,
                    options: &self.options,
                };
                let result = run_shard_rounds::<E, ProcessTransport>(
                    &mut self.shard,
                    &params,
                    &mut *transport,
                    &mut self.host,
                );
                match result {
                    Ok((outcome, end_now, end_progress)) => {
                        self.now = end_now;
                        self.last_progress = end_progress;
                        if outcome == RunOutcome::TickLimit && bound < tick_limit {
                            // Paused at a checkpoint boundary, unanimously
                            // across workers (the halt came from the folded
                            // global head). Ship this shard's blob; the hub
                            // collects one from every worker and writes the
                            // checkpoint file.
                            let profiling = self.host.enabled();
                            let t_ckpt = profiling.then(Instant::now);
                            let mut blob = Vec::new();
                            self.shard.save_state(
                                self.now,
                                self.ext_seq,
                                self.last_progress,
                                &mut blob,
                            );
                            if let Some(t0) = t_ckpt {
                                self.host.times.checkpoint_ns += t0.elapsed().as_nanos() as u64;
                                self.host.times.checkpoint_writes += 1;
                                self.host.times.checkpoint_bytes += blob.len() as u64;
                            }
                            if let Err(e) = transport.checkpoint(Time::at(bound), &blob) {
                                break RunOutcome::Failed(format!("transport: {e}"));
                            }
                            next_ckpt = next_ckpt.and_then(|c| c.checked_add(interval));
                            continue;
                        }
                        // Tell the hub how the run ended; a send failure here
                        // degrades like any other transport error.
                        match transport.finish(
                            &outcome,
                            end_now,
                            end_progress,
                            &self.shard.metrics(),
                            &self.host.times,
                        ) {
                            Ok(()) => break outcome,
                            Err(e) => break RunOutcome::Failed(format!("transport: {e}")),
                        }
                    }
                    Err(e) => break RunOutcome::Failed(format!("transport: {e}")),
                }
            };
            RunStats {
                events_executed: self.shard.events_executed - start_events,
                end_time: self.now,
                queue_high_water: self.shard.queue.high_water_mark(),
                total_enqueued: self.shard.queue.total_enqueued(),
                wall: start.elapsed(),
                outcome,
            }
        }

        fn now(&self) -> Time {
            self.now
        }

        fn num_components(&self) -> usize {
            self.shard_of.len()
        }

        fn num_shards(&self) -> usize {
            self.num_shards
        }

        fn component(&self, id: ComponentId) -> Option<&dyn Component<E>> {
            if !self.owned(id) {
                return None;
            }
            self.shard
                .components
                .get(id.index())
                .and_then(|c| c.as_deref())
        }

        fn component_dyn_mut(&mut self, id: ComponentId) -> Option<&mut dyn Component<E>> {
            if !self.owned(id) {
                return None;
            }
            self.shard
                .components
                .get_mut(id.index())
                .and_then(|c| c.as_deref_mut())
        }

        /// Only this worker's shard; the hub collects the full set.
        fn shard_metrics(&self) -> Vec<EngineMetrics> {
            vec![self.shard.metrics()]
        }

        fn events_executed(&self) -> u64 {
            self.shard.events_executed
        }

        fn total_enqueued(&self) -> u64 {
            self.shard.queue.total_enqueued()
        }

        /// Only this worker's shard; the hub collects the full set from
        /// the DONE frames.
        fn host_times(&self) -> Vec<crate::host::HostShardTimes> {
            if self.host.enabled() {
                vec![self.host.times.clone()]
            } else {
                Vec::new()
            }
        }

        /// Restores this worker's shard from the uniform engine blob of a
        /// checkpoint file. The trace section is skipped (the ring lives
        /// hub-side); the shard count must match, and only this worker's
        /// own blob is decoded.
        fn load_state(&mut self, buf: &mut &[u8]) -> bool
        where
            E: crate::wire::WireCodec,
        {
            let mut inner = || -> Option<()> {
                match crate::wire::get_u8(buf)? {
                    0 => {}
                    1 => {
                        crate::wire::get_bytes(buf)?;
                    }
                    _ => return None,
                }
                let shards = crate::wire::get_varint(buf)?;
                if shards != self.num_shards as u64 {
                    return None;
                }
                let mut scalars = None;
                for w in 0..self.num_shards {
                    let mut blob = crate::wire::get_bytes(buf)?;
                    if w == self.my_shard as usize {
                        let s = self.shard.load_state(&mut blob)?;
                        if !blob.is_empty() {
                            return None;
                        }
                        scalars = Some(s);
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

        /// The ring itself lives hub-side, where the per-round merge
        /// happens.
        fn trace_enabled(&self) -> bool {
            self.options.trace.is_some()
        }

        /// Always empty: records ship to the hub every round.
        fn trace_records(&self) -> Vec<TraceEvent> {
            Vec::new()
        }
    }

    impl<E> std::fmt::Debug for WorkerEngine<E> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("WorkerEngine")
                .field("shard", &self.my_shard)
                .field("num_shards", &self.num_shards)
                .field("components", &self.shard_of.len())
                .field("pending_events", &self.shard.queue.len())
                .field("now", &self.now)
                .finish()
        }
    }
}
