//! Raw host-time (wall-clock) records for the profiling plane.
//!
//! Everything in this module is strictly *out-of-band*: host clocks are
//! read around engine phases but never feed simulation state, event
//! ordering, or any wire payload that influences delivery. The records
//! collected here are surfaced after the run (or over side channels such
//! as the end-of-run DONE frame and the progress heartbeat) so that all
//! byte-identity guarantees hold with profiling enabled.
//!
//! The structs are plain `std` data: the `stats` crate turns them into
//! metric planes and Chrome `trace_event` JSON, and the `core` crate
//! wires them to configuration. Only the engines in this crate write
//! them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::wire::{get_str, get_varint, put_str, put_varint};

/// Cap on retained per-round slices, so a long run cannot grow the
/// profile without bound. Later rounds past the cap are counted in
/// [`HostShardTimes::dropped_slices`] but not retained.
pub const MAX_ROUND_SLICES: usize = 8192;

/// Wall-time of one executed round (generation batch) on one shard.
///
/// `start_ns` is relative to the owning recorder's epoch (when its engine
/// was built), so slices from different worker processes are aligned
/// only approximately — good enough for a timeline view, never used for
/// anything else.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostRoundSlice {
    /// Nanoseconds since the recorder epoch when the round began.
    pub start_ns: u64,
    /// Simulated tick of the round's generation.
    pub tick: u64,
    /// Events executed locally this round.
    pub events: u64,
    /// Wall time spent executing events.
    pub execute_ns: u64,
    /// Wall time inside the fold (includes barrier / hub wait).
    pub fold_ns: u64,
    /// Wall time inside the exchange (includes barrier / hub wait).
    pub exchange_ns: u64,
}

/// Accumulated host-time attribution for one shard (or the whole
/// sequential engine, which is shard 0 of 1).
///
/// Phase counters are measured on every batch while profiling is
/// enabled; the per-event component-class attribution only on 1-in-N
/// sampled batches (`sample`), bounding the overhead.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HostShardTimes {
    /// Sampling stride: per-event attribution runs on one batch in
    /// `sample`. Zero means profiling was disabled.
    pub sample: u32,
    /// Batches (generations) observed while profiling.
    pub total_batches: u64,
    /// Batches that ran with per-event attribution.
    pub sampled_batches: u64,
    /// Events executed within sampled batches.
    pub sampled_events: u64,
    /// Wall time draining the queue (building generation batches).
    pub drain_ns: u64,
    /// Wall time executing events.
    pub execute_ns: u64,
    /// Wall time closing sampling windows at window edges.
    pub sample_edge_ns: u64,
    /// Wall time in the fold (barrier / hub wait for the global minimum).
    pub fold_ns: u64,
    /// Wall time in the exchange (shipping and delivering outboxes).
    pub exchange_ns: u64,
    /// Wall time serializing checkpoint state on this shard.
    pub checkpoint_ns: u64,
    /// Checkpoint snapshots taken on this shard.
    pub checkpoint_writes: u64,
    /// Bytes of checkpoint state produced on this shard.
    pub checkpoint_bytes: u64,
    /// Per component-class `(class, ns, events)` from sampled batches.
    pub classes: Vec<(String, u64, u64)>,
    /// Per-round timeline slices, oldest first, capped at
    /// [`MAX_ROUND_SLICES`].
    pub round_slices: Vec<HostRoundSlice>,
    /// Rounds whose slices were dropped once the cap was reached.
    pub dropped_slices: u64,
}

impl HostShardTimes {
    /// True when this record was collected with profiling on.
    pub fn enabled(&self) -> bool {
        self.sample != 0
    }

    /// Adds `ns`/`events` to the accumulator of `class`.
    pub fn add_class(&mut self, class: &str, ns: u64, events: u64) {
        for (name, t, n) in &mut self.classes {
            if name == class {
                *t += ns;
                *n += events;
                return;
            }
        }
        self.classes.push((class.to_string(), ns, events));
    }

    /// Retains a round slice, or counts it as dropped past the cap.
    pub fn push_slice(&mut self, slice: HostRoundSlice) {
        if self.round_slices.len() < MAX_ROUND_SLICES {
            self.round_slices.push(slice);
        } else {
            self.dropped_slices += 1;
        }
    }

    /// Folds another record (e.g. one `run_until` segment) into this
    /// one: counters add, classes merge by name, slices append under the
    /// cap. The stride is taken from `other` when set.
    pub fn merge(&mut self, other: &HostShardTimes) {
        if other.sample != 0 {
            self.sample = other.sample;
        }
        self.total_batches += other.total_batches;
        self.sampled_batches += other.sampled_batches;
        self.sampled_events += other.sampled_events;
        self.drain_ns += other.drain_ns;
        self.execute_ns += other.execute_ns;
        self.sample_edge_ns += other.sample_edge_ns;
        self.fold_ns += other.fold_ns;
        self.exchange_ns += other.exchange_ns;
        self.checkpoint_ns += other.checkpoint_ns;
        self.checkpoint_writes += other.checkpoint_writes;
        self.checkpoint_bytes += other.checkpoint_bytes;
        for (name, ns, events) in &other.classes {
            self.add_class(name, *ns, *events);
        }
        self.dropped_slices += other.dropped_slices;
        for s in &other.round_slices {
            self.push_slice(*s);
        }
    }

    /// Appends the wire form (LEB128 varints, the crate's wire
    /// discipline) to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, u64::from(self.sample));
        put_varint(out, self.total_batches);
        put_varint(out, self.sampled_batches);
        put_varint(out, self.sampled_events);
        put_varint(out, self.drain_ns);
        put_varint(out, self.execute_ns);
        put_varint(out, self.sample_edge_ns);
        put_varint(out, self.fold_ns);
        put_varint(out, self.exchange_ns);
        put_varint(out, self.checkpoint_ns);
        put_varint(out, self.checkpoint_writes);
        put_varint(out, self.checkpoint_bytes);
        put_varint(out, self.classes.len() as u64);
        for (name, ns, events) in &self.classes {
            put_str(out, name);
            put_varint(out, *ns);
            put_varint(out, *events);
        }
        put_varint(out, self.round_slices.len() as u64);
        for s in &self.round_slices {
            put_varint(out, s.start_ns);
            put_varint(out, s.tick);
            put_varint(out, s.events);
            put_varint(out, s.execute_ns);
            put_varint(out, s.fold_ns);
            put_varint(out, s.exchange_ns);
        }
        put_varint(out, self.dropped_slices);
    }

    /// Decodes the wire form; `None` on malformed input.
    pub fn decode(buf: &mut &[u8]) -> Option<HostShardTimes> {
        let sample = u32::try_from(get_varint(buf)?).ok()?;
        let total_batches = get_varint(buf)?;
        let sampled_batches = get_varint(buf)?;
        let sampled_events = get_varint(buf)?;
        let drain_ns = get_varint(buf)?;
        let execute_ns = get_varint(buf)?;
        let sample_edge_ns = get_varint(buf)?;
        let fold_ns = get_varint(buf)?;
        let exchange_ns = get_varint(buf)?;
        let checkpoint_ns = get_varint(buf)?;
        let checkpoint_writes = get_varint(buf)?;
        let checkpoint_bytes = get_varint(buf)?;
        let n_classes = usize::try_from(get_varint(buf)?).ok()?;
        let mut classes = Vec::with_capacity(n_classes.min(64));
        for _ in 0..n_classes {
            let name = get_str(buf)?;
            let ns = get_varint(buf)?;
            let events = get_varint(buf)?;
            classes.push((name, ns, events));
        }
        let n_slices = usize::try_from(get_varint(buf)?).ok()?;
        if n_slices > MAX_ROUND_SLICES {
            return None;
        }
        let mut round_slices = Vec::with_capacity(n_slices);
        for _ in 0..n_slices {
            round_slices.push(HostRoundSlice {
                start_ns: get_varint(buf)?,
                tick: get_varint(buf)?,
                events: get_varint(buf)?,
                execute_ns: get_varint(buf)?,
                fold_ns: get_varint(buf)?,
                exchange_ns: get_varint(buf)?,
            });
        }
        let dropped_slices = get_varint(buf)?;
        Some(HostShardTimes {
            sample,
            total_batches,
            sampled_batches,
            sampled_events,
            drain_ns,
            execute_ns,
            sample_edge_ns,
            fold_ns,
            exchange_ns,
            checkpoint_ns,
            checkpoint_writes,
            checkpoint_bytes,
            classes,
            round_slices,
            dropped_slices,
        })
    }
}

/// Engine-side helper pairing a [`HostShardTimes`] with its wall-clock
/// epoch and the batch-sampling counter. An engine creates one per shard
/// when it is built, armed with its options' stride, and keeps it across
/// `run_until` calls, so the record covers every run segment.
#[derive(Debug)]
pub struct HostRecorder {
    epoch: Instant,
    counter: u64,
    /// The accumulated record.
    pub times: HostShardTimes,
}

impl HostRecorder {
    /// A recorder armed with the given stride; 0 disables it, making
    /// every probe a no-op.
    pub fn with_sample(sample: u32) -> Self {
        HostRecorder {
            epoch: Instant::now(),
            counter: 0,
            times: HostShardTimes {
                sample,
                ..HostShardTimes::default()
            },
        }
    }

    /// Whether any probing should happen at all.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.times.sample != 0
    }

    /// Nanoseconds since the epoch (saturating to `u64`).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Counts one batch; true when this batch gets per-event
    /// attribution (every `sample`-th batch, starting with the first).
    #[inline]
    pub fn batch_sampled(&mut self) -> bool {
        self.times.total_batches += 1;
        let sampled = self.counter == 0;
        self.counter += 1;
        if self.counter >= u64::from(self.times.sample) {
            self.counter = 0;
        }
        if sampled {
            self.times.sampled_batches += 1;
        }
        sampled
    }
}

/// Live run progress, shared between the executing engine (writers) and
/// the heartbeat emitter (reader). All relaxed atomics: readers only
/// need an eventually consistent snapshot, and the stores on the engine
/// side must stay nearly free.
#[derive(Debug, Default)]
pub struct ProgressShared {
    events: Vec<AtomicU64>,
    tick: AtomicU64,
    rounds: AtomicU64,
    restarts: AtomicU64,
}

impl ProgressShared {
    /// A progress board with one cumulative-events slot per shard.
    pub fn new(shards: usize) -> Self {
        ProgressShared {
            events: (0..shards.max(1)).map(|_| AtomicU64::new(0)).collect(),
            tick: AtomicU64::new(0),
            rounds: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
        }
    }

    /// Publishes shard `shard`'s cumulative executed-event count.
    #[inline]
    pub fn record_events(&self, shard: usize, cumulative: u64) {
        if let Some(slot) = self.events.get(shard) {
            slot.store(cumulative, Ordering::Relaxed);
        }
    }

    /// Publishes the current simulated tick.
    #[inline]
    pub fn record_tick(&self, tick: u64) {
        self.tick.store(tick, Ordering::Relaxed);
    }

    /// Counts one completed round.
    #[inline]
    pub fn add_round(&self) {
        self.rounds.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one worker-fleet restart.
    pub fn add_restart(&self) {
        self.restarts.fetch_add(1, Ordering::Relaxed);
    }

    /// Sum of all shards' published event counts.
    pub fn events(&self) -> u64 {
        self.events.iter().map(|e| e.load(Ordering::Relaxed)).sum()
    }

    /// Last published simulated tick.
    pub fn tick(&self) -> u64 {
        self.tick.load(Ordering::Relaxed)
    }

    /// Rounds completed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds.load(Ordering::Relaxed)
    }

    /// Worker-fleet restarts so far.
    pub fn restarts(&self) -> u64 {
        self.restarts.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_times_round_trip() {
        let mut t = HostShardTimes {
            sample: 64,
            total_batches: 1000,
            sampled_batches: 16,
            sampled_events: 4096,
            drain_ns: 11,
            execute_ns: 22,
            sample_edge_ns: 33,
            fold_ns: 44,
            exchange_ns: 55,
            checkpoint_ns: 66,
            checkpoint_writes: 2,
            checkpoint_bytes: 777,
            ..HostShardTimes::default()
        };
        t.add_class("router", 100, 10);
        t.add_class("interface", 50, 5);
        t.add_class("router", 1, 1);
        t.push_slice(HostRoundSlice {
            start_ns: 5,
            tick: 9,
            events: 3,
            execute_ns: 2,
            fold_ns: 1,
            exchange_ns: 1,
        });
        let mut wire = Vec::new();
        t.encode(&mut wire);
        let decoded = HostShardTimes::decode(&mut wire.as_slice()).expect("decodes");
        assert_eq!(decoded, t);
        assert_eq!(decoded.classes[0], ("router".to_string(), 101, 11));
    }

    #[test]
    fn decode_rejects_truncation() {
        let t = HostShardTimes {
            sample: 1,
            ..HostShardTimes::default()
        };
        let mut wire = Vec::new();
        t.encode(&mut wire);
        for cut in 0..wire.len() {
            assert!(HostShardTimes::decode(&mut &wire[..cut]).is_none());
        }
    }

    #[test]
    fn recorder_samples_one_in_n() {
        let mut r = HostRecorder::with_sample(4);
        let pattern: Vec<bool> = (0..8).map(|_| r.batch_sampled()).collect();
        assert_eq!(
            pattern,
            [true, false, false, false, true, false, false, false]
        );
        assert_eq!(r.times.total_batches, 8);
        assert_eq!(r.times.sampled_batches, 2);
    }

    #[test]
    fn slice_cap_counts_drops() {
        let mut t = HostShardTimes::default();
        for _ in 0..(MAX_ROUND_SLICES + 3) {
            t.push_slice(HostRoundSlice::default());
        }
        assert_eq!(t.round_slices.len(), MAX_ROUND_SLICES);
        assert_eq!(t.dropped_slices, 3);
    }

    #[test]
    fn progress_board_sums_shards() {
        let p = ProgressShared::new(3);
        p.record_events(0, 10);
        p.record_events(2, 5);
        p.record_events(7, 99); // out of range: ignored
        p.record_tick(42);
        p.add_round();
        p.add_round();
        p.add_restart();
        assert_eq!(p.events(), 15);
        assert_eq!(p.tick(), 42);
        assert_eq!(p.rounds(), 2);
        assert_eq!(p.restarts(), 1);
    }
}
