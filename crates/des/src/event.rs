//! The event queue (paper §III-A, Figure 1): a two-level calendar queue.
//!
//! Events are ordered by their [`Time`] (tick first, then epsilon). Events
//! with identical times are executed in the order they were enqueued, which
//! keeps simulations deterministic.
//!
//! # Why a calendar queue
//!
//! A flit-level simulation schedules almost everything a handful of ticks
//! into the future: channel traversals at fixed channel latencies, credit
//! returns, and clock edges at fixed periods. A global `BinaryHeap` pays an
//! `O(log n)` comparator-heavy sift on every one of those operations and
//! needs an explicit sequence number on every event just to keep equal-time
//! pops FIFO. This queue instead keeps a **ring of per-tick buckets**
//! covering a near-future horizon: pushes within the horizon are `O(1)`,
//! pops take the front of the current bucket, and FIFO order for equal
//! `(tick, epsilon)` events is structural — bucket insertion order *is*
//! enqueue order, no tie-break needed. Events beyond the horizon go to a
//! small overflow `BinaryHeap` (they are rare: long warmup timers,
//! far-future monitors) and drain into the ring as the horizon advances
//! past them. An occupancy bitmap (one bit per bucket) lets the queue skip
//! runs of empty ticks a word at a time.
//!
//! # Storage: slab + intrusive lists
//!
//! Buckets are **not** `Vec`s. Every pending ring event lives in one shared
//! slab (`Vec<Slot<E>>`), and each bucket is just a `(head, tail)` pair of
//! slab indices threading an intrusive singly-linked list through the slab.
//! A push is a slab append (amortized `O(1)`, reusing freed slots via a
//! free list) plus one link write — crucially there is **no per-bucket
//! allocation**, so workloads that scatter events thinly over many ticks
//! (one event per bucket) do not pay one `malloc` per event the way
//! `Vec`-buckets would. This is the classic timing-wheel representation.
//!
//! Each bucket's minimum epsilon lives in a parallel byte array, updated
//! on every link, drain, and pop, so reading the queue head
//! ([`EventQueue::peek_time`]) is one occupancy-bitmap scan and never
//! walks a bucket.
//!
//! The executor additionally drains whole same-`(tick, epsilon)` batches
//! through [`EventQueue::take_batch`] so the hot loop does not re-examine
//! the queue between events that are already known to be ready.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::component::ComponentId;
use crate::time::{Epsilon, Tick, Time};

/// One scheduled event: when to run, who runs it, and its payload.
#[derive(Debug, Clone)]
pub struct EventEntry<E> {
    /// Execution time of the event.
    pub time: Time,
    /// The component that will execute the event.
    pub target: ComponentId,
    /// Component-specific payload.
    pub payload: E,
}

/// An event parked beyond the ring horizon, waiting in the overflow heap.
///
/// Only overflow events need an explicit FIFO sequence number: ring
/// buckets get FIFO from insertion order.
#[derive(Debug)]
struct OverflowEntry<E> {
    time: Time,
    seq: u64,
    target: ComponentId,
    payload: E,
}

impl<E> PartialEq for OverflowEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for OverflowEntry<E> {}

impl<E> PartialOrd for OverflowEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for OverflowEntry<E> {
    /// Reverse ordering so that the `BinaryHeap` (a max-heap) presents the
    /// *earliest* event at its head.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Default near-future horizon in ticks (must be a power of two).
///
/// Flit, credit, and clock events land within a few ticks of `now`; 4096
/// ticks of headroom keeps even long channel pipelines and slow clocks in
/// the O(1) ring while costing only 36 KiB of bucket list heads and
/// minimum epsilons.
const DEFAULT_HORIZON: usize = 4096;

/// Upper bound for adaptive horizon growth (2^20 buckets = 9 MiB of
/// bucket list heads and minimum epsilons). Workloads spread wider than
/// this keep using the overflow heap beyond the ring.
const MAX_HORIZON: usize = 1 << 20;

/// Sentinel slab index: "no slot".
const NIL: u32 = u32::MAX;

/// One slab cell: a pending ring event plus its intrusive `next` link.
///
/// Free cells keep `payload: None` and reuse `next` as the free-list link.
#[derive(Debug)]
struct Slot<E> {
    time: Time,
    target: ComponentId,
    next: u32,
    payload: Option<E>,
}

/// A bucket: head/tail slab indices of its intrusive event list
/// (`NIL`/`NIL` when empty). 8 bytes, so a cache line covers 8 buckets.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

impl Bucket {
    const EMPTY: Bucket = Bucket {
        head: NIL,
        tail: NIL,
    };
}

/// The simulator's global event queue: per-tick ring buckets over a
/// near-future horizon, backed by an overflow heap for far-future events.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Backing store for all ring events; freed cells chain from
    /// `free_head`.
    slab: Vec<Slot<E>>,
    /// Head of the free-slot chain through `slab` (`NIL` when exhausted).
    free_head: u32,
    /// `buckets[t & mask]` lists the events for tick `t`, for `t` in
    /// `[cur_tick, cur_tick + horizon)`, in enqueue order.
    buckets: Box<[Bucket]>,
    /// `min_eps[i]`: smallest epsilon listed in bucket `i` (meaningless
    /// while the bucket is empty), kept current on every link, drain, and
    /// pop so the queue head is read without walking the bucket. A
    /// parallel array rather than a `Bucket` field, which keeps buckets
    /// at 8 bytes.
    min_eps: Box<[Epsilon]>,
    /// One bit per bucket: set iff the bucket is non-empty.
    occupancy: Box<[u64]>,
    /// `buckets.len() - 1`; bucket count is a power of two.
    mask: usize,
    /// The earliest tick the ring can currently hold (the cursor).
    cur_tick: u64,
    /// Events currently stored in ring buckets.
    ring_len: usize,
    /// Far-future events, ordered by `(time, seq)`.
    overflow: BinaryHeap<OverflowEntry<E>>,
    /// FIFO tie-break for overflow events only.
    overflow_seq: u64,
    /// Lifetime count of pushes (explicit — not derived from any seq).
    total_enqueued: u64,
    /// Largest `len()` ever observed.
    max_len: usize,
    /// Lifetime count of pushes that landed in the overflow heap.
    overflow_spills: u64,
    /// Lifetime count of horizon doublings performed by `maybe_grow`.
    horizon_resizes: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the default near-future horizon.
    pub fn new() -> Self {
        Self::with_horizon(DEFAULT_HORIZON)
    }

    /// Creates an empty queue whose ring covers `horizon` ticks.
    ///
    /// # Panics
    ///
    /// Panics unless `horizon` is a power of two of at least 64.
    pub fn with_horizon(horizon: usize) -> Self {
        assert!(
            horizon >= 64 && horizon.is_power_of_two(),
            "horizon must be a power of two >= 64, got {horizon}"
        );
        EventQueue {
            slab: Vec::new(),
            free_head: NIL,
            buckets: vec![Bucket::EMPTY; horizon].into_boxed_slice(),
            min_eps: vec![0; horizon].into_boxed_slice(),
            occupancy: vec![0u64; horizon / 64].into_boxed_slice(),
            mask: horizon - 1,
            cur_tick: 0,
            ring_len: 0,
            overflow: BinaryHeap::new(),
            overflow_seq: 0,
            total_enqueued: 0,
            max_len: 0,
            overflow_spills: 0,
            horizon_resizes: 0,
        }
    }

    /// The number of ticks the ring covers.
    #[inline]
    pub fn horizon(&self) -> usize {
        self.mask + 1
    }

    #[inline]
    fn set_occupied(&mut self, idx: usize) {
        self.occupancy[idx >> 6] |= 1u64 << (idx & 63);
    }

    #[inline]
    fn clear_occupied(&mut self, idx: usize) {
        self.occupancy[idx >> 6] &= !(1u64 << (idx & 63));
    }

    /// Takes a slab cell (reusing a freed one if possible) and fills it.
    #[inline]
    fn alloc_slot(&mut self, time: Time, target: ComponentId, payload: E) -> u32 {
        if self.free_head != NIL {
            let i = self.free_head;
            let slot = &mut self.slab[i as usize];
            self.free_head = slot.next;
            slot.time = time;
            slot.target = target;
            slot.next = NIL;
            slot.payload = Some(payload);
            i
        } else {
            let i = self.slab.len();
            assert!(i < NIL as usize, "event slab exhausted u32 index space");
            self.slab.push(Slot {
                time,
                target,
                next: NIL,
                payload: Some(payload),
            });
            i as u32
        }
    }

    /// Returns cell `i` to the free list and yields its event.
    #[inline]
    fn free_slot(&mut self, i: u32) -> EventEntry<E> {
        let slot = &mut self.slab[i as usize];
        let payload = slot.payload.take().expect("freeing an empty slot");
        let entry = EventEntry {
            time: slot.time,
            target: slot.target,
            payload,
        };
        slot.next = self.free_head;
        self.free_head = i;
        entry
    }

    /// Appends slab cell `slot` to bucket `idx` and updates occupancy and
    /// the bucket's minimum epsilon.
    #[inline]
    fn link_back(&mut self, idx: usize, slot: u32) {
        let eps = self.slab[slot as usize].time.epsilon();
        let bucket = self.buckets[idx];
        if bucket.tail == NIL {
            self.buckets[idx] = Bucket {
                head: slot,
                tail: slot,
            };
            self.min_eps[idx] = eps;
            self.set_occupied(idx);
        } else {
            self.slab[bucket.tail as usize].next = slot;
            self.buckets[idx].tail = slot;
            self.min_eps[idx] = self.min_eps[idx].min(eps);
        }
        self.ring_len += 1;
    }

    /// Enqueues an event for `target` at `time`.
    ///
    /// Callers must not schedule before the time of the last popped event
    /// (the simulator enforces this with its not-into-the-past assertion).
    #[inline]
    pub fn push(&mut self, target: ComponentId, time: Time, payload: E) {
        debug_assert!(
            time.tick() >= self.cur_tick,
            "push at tick {} behind queue cursor {}",
            time.tick(),
            self.cur_tick
        );
        self.total_enqueued += 1;
        if time.tick().wrapping_sub(self.cur_tick) <= self.mask as u64 {
            let idx = time.tick() as usize & self.mask;
            let slot = self.alloc_slot(time, target, payload);
            self.link_back(idx, slot);
        } else {
            let seq = self.overflow_seq;
            self.overflow_seq += 1;
            self.overflow_spills += 1;
            self.overflow.push(OverflowEntry {
                time,
                seq,
                target,
                payload,
            });
            self.maybe_grow();
        }
        let len = self.len();
        if len > self.max_len {
            self.max_len = len;
        }
    }

    /// Adaptive resize: when the overflow heap holds more than a quarter
    /// as many events as the ring has buckets — i.e. the workload's
    /// scheduling span outgrew the horizon — double the horizon
    /// (re-bucketing ring events and pulling in the overflow events that
    /// now fit), as a classic calendar queue adapts its bucket count.
    /// Growth is amortized `O(1)` per push and only triggered when the
    /// nearest overflow event would actually fit the doubled horizon, so a
    /// few far-future stragglers (timeouts, monitors) never inflate the
    /// ring.
    fn maybe_grow(&mut self) {
        while self.overflow.len() > self.buckets.len() / 4
            && self.buckets.len() < MAX_HORIZON
            && self
                .overflow
                .peek()
                .is_some_and(|head| head.time.tick() - self.cur_tick <= 2 * self.mask as u64 + 1)
        {
            self.horizon_resizes += 1;
            let new_horizon = self.buckets.len() * 2;
            let old_buckets = std::mem::replace(
                &mut self.buckets,
                vec![Bucket::EMPTY; new_horizon].into_boxed_slice(),
            );
            self.occupancy = vec![0u64; new_horizon / 64].into_boxed_slice();
            self.min_eps = vec![0; new_horizon].into_boxed_slice();
            self.mask = new_horizon - 1;
            // Re-thread every event into its new bucket. Walking each old
            // list head-to-tail preserves per-tick FIFO order (each old
            // bucket held exactly one tick's events).
            self.ring_len = 0;
            for bucket in old_buckets.iter() {
                let mut cur = bucket.head;
                while cur != NIL {
                    let next = self.slab[cur as usize].next;
                    let idx = self.slab[cur as usize].time.tick() as usize & self.mask;
                    self.slab[cur as usize].next = NIL;
                    self.link_back(idx, cur);
                    cur = next;
                }
            }
            // Pull in overflow events that the wider horizon now covers.
            self.advance_to(self.cur_tick);
        }
    }

    /// Advances the cursor to `tick`, moving overflow events that have
    /// entered the horizon into their ring buckets.
    fn advance_to(&mut self, tick: u64) {
        debug_assert!(tick >= self.cur_tick);
        self.cur_tick = tick;
        let horizon = self.mask as u64;
        while let Some(head) = self.overflow.peek() {
            if head.time.tick() - self.cur_tick > horizon {
                break;
            }
            let OverflowEntry {
                time,
                target,
                payload,
                ..
            } = self.overflow.pop().expect("peeked overflow entry vanished");
            let idx = time.tick() as usize & self.mask;
            let slot = self.alloc_slot(time, target, payload);
            self.link_back(idx, slot);
        }
    }

    /// Removes and returns the earliest event, or `None` when empty.
    ///
    /// Equal-`(tick, epsilon)` events pop in enqueue order (FIFO).
    #[inline]
    pub fn pop(&mut self) -> Option<EventEntry<E>> {
        let head = self.peek_time()?;
        self.advance_to(head.tick());
        let idx = head.tick() as usize & self.mask;
        let eps = head.epsilon();
        // Unlink the first event carrying that epsilon.
        let mut prev = NIL;
        let mut cur = self.buckets[idx].head;
        while self.slab[cur as usize].time.epsilon() != eps {
            prev = cur;
            cur = self.slab[cur as usize].next;
        }
        let next = self.slab[cur as usize].next;
        if prev == NIL {
            self.buckets[idx].head = next;
        } else {
            self.slab[prev as usize].next = next;
        }
        if next == NIL {
            self.buckets[idx].tail = prev;
        }
        // The survivors' minimum may have risen: rescan them.
        let mut min_eps = Epsilon::MAX;
        let mut walk = self.buckets[idx].head;
        while walk != NIL {
            let slot = &self.slab[walk as usize];
            min_eps = min_eps.min(slot.time.epsilon());
            walk = slot.next;
        }
        self.min_eps[idx] = min_eps;
        if self.buckets[idx].head == NIL {
            self.clear_occupied(idx);
        }
        self.ring_len -= 1;
        Some(self.free_slot(cur))
    }

    /// Tick of the earliest pending event without moving the cursor.
    ///
    /// One occupancy-bitmap scan when the ring is non-empty, one heap peek
    /// otherwise.
    fn next_tick(&self) -> Option<Tick> {
        if self.ring_len == 0 {
            return self.overflow.peek().map(|e| e.time.tick());
        }
        let horizon = self.horizon();
        let mut tick = self.cur_tick;
        let mut scanned = 0usize;
        loop {
            let idx = tick as usize & self.mask;
            let bit = idx & 63;
            let word = self.occupancy[idx >> 6] >> bit;
            if word != 0 {
                return Some(tick + word.trailing_zeros() as u64);
            }
            let step = 64 - bit;
            tick += step as u64;
            scanned += step;
            debug_assert!(scanned <= horizon + 64, "occupancy bitmap out of sync");
        }
    }

    /// Drains the generation at `head` — the queue head exactly as
    /// [`EventQueue::peek_time`] reported it — into `out` (cleared
    /// first), in FIFO order.
    ///
    /// This is the executor's hot-path interface: a round peeks the head
    /// once to decide whether to run it, and the drain goes straight to
    /// that bucket. Everything in one batch is ready simultaneously, so
    /// the hot loop can dispatch the whole slice without consulting the
    /// queue again. Events scheduled *during* batch execution at the same
    /// `(tick, epsilon)` land behind the batch and form the next one,
    /// preserving global FIFO order.
    pub fn take_head(&mut self, head: Time, out: &mut Vec<EventEntry<E>>) {
        debug_assert_eq!(self.peek_time(), Some(head), "stale queue head");
        out.clear();
        self.advance_to(head.tick());
        self.drain_min_epsilon(head.tick() as usize & self.mask, out);
        debug_assert!(!out.is_empty(), "head bucket had no events");
    }

    /// Drains **all** events at the earliest `(tick, epsilon)` into `out`
    /// (cleared first), in FIFO order, and returns how many there were.
    pub fn take_batch(&mut self, out: &mut Vec<EventEntry<E>>) -> usize {
        match self.peek_time() {
            Some(head) => self.take_head(head, out),
            None => out.clear(),
        }
        out.len()
    }

    /// Moves the min-epsilon slice of bucket `idx` (non-empty) into `out`,
    /// preserving both the drained and the surviving events' FIFO order.
    fn drain_min_epsilon(&mut self, idx: usize, out: &mut Vec<EventEntry<E>>) {
        let eps = self.min_eps[idx];
        let mut keep = Bucket::EMPTY;
        let mut keep_min = Epsilon::MAX;
        let mut cur = self.buckets[idx].head;
        while cur != NIL {
            let next = self.slab[cur as usize].next;
            let cur_eps = self.slab[cur as usize].time.epsilon();
            if cur_eps == eps {
                out.push(self.free_slot(cur));
            } else if keep.tail == NIL {
                keep = Bucket {
                    head: cur,
                    tail: cur,
                };
                keep_min = cur_eps;
            } else {
                self.slab[keep.tail as usize].next = cur;
                keep.tail = cur;
                keep_min = keep_min.min(cur_eps);
            }
            cur = next;
        }
        if keep.tail != NIL {
            self.slab[keep.tail as usize].next = NIL;
        }
        self.buckets[idx] = keep;
        self.min_eps[idx] = keep_min;
        if keep.head == NIL {
            self.clear_occupied(idx);
        }
        self.ring_len -= out.len();
    }

    /// The time of the earliest pending event, if any.
    ///
    /// Does not advance the cursor past empty buckets; cost is bounded by
    /// one occupancy-bitmap scan (each bucket keeps its minimum epsilon,
    /// so the bucket itself is not walked).
    pub fn peek_time(&self) -> Option<Time> {
        if self.ring_len == 0 {
            return self.overflow.peek().map(|e| e.time);
        }
        let tick = self.next_tick().expect("ring non-empty");
        let eps = self.min_eps[tick as usize & self.mask];
        Some(Time::new(tick, eps))
    }

    /// Number of pending events (ring + overflow).
    #[inline]
    pub fn len(&self) -> usize {
        self.ring_len + self.overflow.len()
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of pending events currently parked beyond the ring horizon.
    #[inline]
    pub fn overflow_len(&self) -> usize {
        self.overflow.len()
    }

    /// Largest number of events ever pending at once, across both levels.
    #[inline]
    pub fn high_water_mark(&self) -> usize {
        self.max_len
    }

    /// Total number of events ever enqueued.
    #[inline]
    pub fn total_enqueued(&self) -> u64 {
        self.total_enqueued
    }

    /// Lifetime count of pushes that missed the ring and parked in the
    /// overflow heap.
    #[inline]
    pub fn overflow_spills(&self) -> u64 {
        self.overflow_spills
    }

    /// Lifetime count of adaptive horizon doublings.
    #[inline]
    pub fn horizon_resizes(&self) -> u64 {
        self.horizon_resizes
    }

    /// Serializes the queue — pending events *and* lifetime counters —
    /// into `out`, encoding each payload with `enc`.
    ///
    /// Enumeration is non-destructive and deterministic: ring buckets in
    /// cursor order (each bucket head-to-tail, i.e. enqueue order), then
    /// overflow events sorted by `(time, seq)`. [`EventQueue::load`]
    /// re-pushes events in exactly this order against the saved horizon
    /// and cursor, which reproduces bucket placement and per-bucket FIFO
    /// order, so the restored queue pops the identical event sequence.
    pub fn save<F>(&self, out: &mut Vec<u8>, mut enc: F)
    where
        F: FnMut(&E, &mut Vec<u8>),
    {
        crate::wire::put_varint(out, self.horizon() as u64);
        crate::wire::put_varint(out, self.cur_tick);
        crate::wire::put_varint(out, self.ring_len as u64);
        for off in 0..self.horizon() {
            let idx = (self.cur_tick as usize).wrapping_add(off) & self.mask;
            let mut cur = self.buckets[idx].head;
            while cur != NIL {
                let slot = &self.slab[cur as usize];
                crate::wire::WireCodec::encode(&slot.time, out);
                crate::wire::put_varint(out, slot.target.index() as u64);
                enc(
                    slot.payload.as_ref().expect("linked slot without payload"),
                    out,
                );
                cur = slot.next;
            }
        }
        let mut parked: Vec<&OverflowEntry<E>> = self.overflow.iter().collect();
        parked.sort_by_key(|e| (e.time, e.seq));
        crate::wire::put_varint(out, parked.len() as u64);
        for e in parked {
            crate::wire::WireCodec::encode(&e.time, out);
            crate::wire::put_varint(out, e.target.index() as u64);
            enc(&e.payload, out);
        }
        crate::wire::put_varint(out, self.overflow_seq);
        crate::wire::put_varint(out, self.total_enqueued);
        crate::wire::put_varint(out, self.max_len as u64);
        crate::wire::put_varint(out, self.overflow_spills);
        crate::wire::put_varint(out, self.horizon_resizes);
    }

    /// Rebuilds a queue from a [`EventQueue::save`] encoding, decoding
    /// each payload with `dec`. Total: malformed input yields `None`.
    pub fn load<F>(buf: &mut &[u8], mut dec: F) -> Option<Self>
    where
        F: FnMut(&mut &[u8]) -> Option<E>,
    {
        let horizon = usize::try_from(crate::wire::get_varint(buf)?).ok()?;
        if horizon < 64 || !horizon.is_power_of_two() || horizon > MAX_HORIZON {
            return None;
        }
        let cur_tick = crate::wire::get_varint(buf)?;
        let mut q = Self::with_horizon(horizon);
        q.cur_tick = cur_tick;
        let ring = usize::try_from(crate::wire::get_varint(buf)?).ok()?;
        // Each event costs at least two bytes, so a hostile count cannot
        // force unbounded work before the buffer runs dry.
        if ring > buf.len() {
            return None;
        }
        let read_event = |buf: &mut &[u8], dec: &mut F| {
            let time = <Time as crate::wire::WireCodec>::decode(buf)?;
            let target =
                ComponentId::try_from_index(usize::try_from(crate::wire::get_varint(buf)?).ok()?)?;
            let payload = dec(buf)?;
            if time.tick() < cur_tick {
                return None; // behind the saved cursor: corrupt
            }
            Some((time, target, payload))
        };
        for _ in 0..ring {
            let (time, target, payload) = read_event(buf, &mut dec)?;
            // A saved ring event must still land in the ring.
            if time.tick() - cur_tick > q.mask as u64 {
                return None;
            }
            q.push(target, time, payload);
        }
        let parked = usize::try_from(crate::wire::get_varint(buf)?).ok()?;
        if parked > buf.len() {
            return None;
        }
        for _ in 0..parked {
            let (time, target, payload) = read_event(buf, &mut dec)?;
            let seq = q.overflow_seq;
            q.overflow_seq += 1;
            q.overflow.push(OverflowEntry {
                time,
                seq,
                target,
                payload,
            });
        }
        // Counters are lifetime totals, not derivable from the pending
        // set; overwrite whatever the re-pushes accumulated.
        q.overflow_seq = crate::wire::get_varint(buf)?.max(q.overflow_seq);
        q.total_enqueued = crate::wire::get_varint(buf)?;
        q.max_len = usize::try_from(crate::wire::get_varint(buf)?).ok()?;
        q.overflow_spills = crate::wire::get_varint(buf)?;
        q.horizon_resizes = crate::wire::get_varint(buf)?;
        Some(q)
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(i: usize) -> ComponentId {
        ComponentId::from_index(i)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(id(0), Time::at(5), "c");
        q.push(id(0), Time::at(1), "a");
        q.push(id(0), Time::new(1, 1), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(id(0), Time::at(7), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        let expect: Vec<i32> = (0..100).collect();
        assert_eq!(order, expect);
    }

    #[test]
    fn bookkeeping() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(id(0), Time::at(0), ());
        q.push(id(0), Time::at(1), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.high_water_mark(), 2);
        q.pop();
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.high_water_mark(), 2);
        assert_eq!(q.total_enqueued(), 2);
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn peek_time_reports_earliest() {
        let mut q = EventQueue::new();
        q.push(id(0), Time::at(9), ());
        q.push(id(0), Time::at(3), ());
        assert_eq!(q.peek_time(), Some(Time::at(3)));
    }

    #[test]
    fn peek_time_includes_epsilon() {
        let mut q = EventQueue::new();
        q.push(id(0), Time::new(4, 2), ());
        q.push(id(0), Time::new(4, 1), ());
        assert_eq!(q.peek_time(), Some(Time::new(4, 1)));
    }

    #[test]
    fn far_future_events_go_to_overflow_and_come_back() {
        let mut q = EventQueue::with_horizon(64);
        q.push(id(0), Time::at(1_000_000), "far");
        q.push(id(0), Time::at(2), "near");
        assert_eq!(q.overflow_len(), 1);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().payload, "near");
        assert_eq!(q.pop().unwrap().payload, "far");
        assert_eq!(q.overflow_len(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn overflow_preserves_fifo_for_equal_times() {
        let mut q = EventQueue::with_horizon(64);
        for i in 0..10 {
            q.push(id(0), Time::at(500), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        let expect: Vec<i32> = (0..10).collect();
        assert_eq!(order, expect);
    }

    #[test]
    fn fifo_across_overflow_drain_and_direct_push() {
        let mut q = EventQueue::with_horizon(64);
        // "early" is pushed while tick 100 is beyond the horizon...
        q.push(id(0), Time::at(100), "early");
        // ...advance the cursor by draining a near event at tick 90...
        q.push(id(0), Time::at(90), "bridge");
        assert_eq!(q.pop().unwrap().payload, "bridge");
        // ...now tick 100 is within the horizon; push lands behind "early".
        q.push(id(0), Time::at(100), "late");
        assert_eq!(q.pop().unwrap().payload, "early");
        assert_eq!(q.pop().unwrap().payload, "late");
    }

    #[test]
    fn ring_wraps_around_many_horizons() {
        let mut q = EventQueue::with_horizon(64);
        let mut popped = Vec::new();
        let mut t = 0u64;
        for round in 0..10 {
            // Pushes spread over several wraps of the 64-tick ring.
            q.push(id(0), Time::at(t + 3), (round, 0));
            q.push(id(0), Time::at(t + 61), (round, 1));
            q.push(id(0), Time::at(t + 130), (round, 2));
            while let Some(e) = q.pop() {
                popped.push((e.time, e.payload));
                t = e.time.tick();
            }
        }
        let mut sorted = popped.clone();
        sorted.sort_by_key(|&(time, _)| time);
        assert_eq!(popped, sorted, "pop order must be time order");
        assert_eq!(popped.len(), 30);
    }

    #[test]
    fn take_batch_returns_whole_equal_time_slice() {
        let mut q = EventQueue::new();
        q.push(id(0), Time::at(5), 0);
        q.push(id(1), Time::at(5), 1);
        q.push(id(2), Time::new(5, 1), 2);
        q.push(id(3), Time::at(6), 3);
        let mut batch = Vec::new();
        assert_eq!(q.take_batch(&mut batch), 2);
        assert_eq!(
            batch.iter().map(|e| e.payload).collect::<Vec<_>>(),
            vec![0, 1]
        );
        assert_eq!(q.take_batch(&mut batch), 1);
        assert_eq!(batch[0].payload, 2);
        assert_eq!(batch[0].time, Time::new(5, 1));
        assert_eq!(q.take_batch(&mut batch), 1);
        assert_eq!(batch[0].payload, 3);
        assert_eq!(q.take_batch(&mut batch), 0);
        assert!(batch.is_empty());
    }

    #[test]
    fn bucket_minimum_tracks_pops_and_drains() {
        let mut q = EventQueue::new();
        q.push(id(0), Time::new(3, 2), "c");
        q.push(id(0), Time::new(3, 0), "a1");
        q.push(id(0), Time::new(3, 1), "b");
        q.push(id(0), Time::new(3, 0), "a2");
        assert_eq!(q.peek_time(), Some(Time::new(3, 0)));
        assert_eq!(q.pop().unwrap().payload, "a1");
        assert_eq!(q.peek_time(), Some(Time::new(3, 0)), "a2 still pending");
        assert_eq!(q.pop().unwrap().payload, "a2");
        assert_eq!(q.peek_time(), Some(Time::new(3, 1)));
        let mut batch = Vec::new();
        assert_eq!(q.take_batch(&mut batch), 1);
        assert_eq!(q.peek_time(), Some(Time::new(3, 2)));
        q.push(id(0), Time::new(3, 1), "late");
        assert_eq!(
            q.peek_time(),
            Some(Time::new(3, 1)),
            "link lowers the minimum"
        );
    }

    #[test]
    fn len_spans_both_levels() {
        let mut q = EventQueue::with_horizon(64);
        q.push(id(0), Time::at(1), ());
        q.push(id(0), Time::at(10_000), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.overflow_len(), 1);
        assert_eq!(q.high_water_mark(), 2);
        q.pop();
        q.pop();
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn sparse_times_cross_bitmap_words() {
        let mut q = EventQueue::with_horizon(256);
        // One event per bitmap word, none in the first.
        for &t in &[70u64, 140, 200, 255] {
            q.push(id(0), Time::at(t), t);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec![70, 140, 200, 255]);
    }

    #[test]
    fn slab_slots_are_reused() {
        // Steady-state traffic must not grow the slab without bound.
        let mut q = EventQueue::with_horizon(64);
        q.push(id(0), Time::at(0), 0u64);
        for t in 0..10_000u64 {
            let e = q.pop().expect("event");
            q.push(id(0), Time::at(t + 1), e.payload + 1);
        }
        assert!(
            q.slab.len() <= 2,
            "slab grew to {} slots for 1 live event",
            q.slab.len()
        );
    }

    #[test]
    fn mixed_epsilon_bucket_survives_partial_drain() {
        let mut q = EventQueue::new();
        q.push(id(0), Time::new(3, 1), "b1");
        q.push(id(0), Time::new(3, 0), "a1");
        q.push(id(0), Time::new(3, 2), "c1");
        q.push(id(0), Time::new(3, 1), "b2");
        let mut batch = Vec::new();
        assert_eq!(q.take_batch(&mut batch), 1);
        assert_eq!(batch[0].payload, "a1");
        assert_eq!(q.take_batch(&mut batch), 2);
        assert_eq!(
            batch.iter().map(|e| e.payload).collect::<Vec<_>>(),
            vec!["b1", "b2"]
        );
        assert_eq!(q.take_batch(&mut batch), 1);
        assert_eq!(batch[0].payload, "c1");
        assert!(q.is_empty());
    }
}
