//! Checkpoint helpers for routers: the flit arena, handle-bearing
//! buffers and queues, route tables, credit counters, and per-port
//! routing engines, all in strict LEB128 framing.
//!
//! All decoders are total (`None` on malformed input, never a panic) and
//! validate shape against the structurally rebuilt router: counts must
//! match, handle indices must reference occupied arena slots, and no
//! handle may appear in two places.

use std::collections::VecDeque;

use supersim_des::wire::{get_u8, get_varint, put_varint};
use supersim_des::Tick;
use supersim_netbase::{CreditCounter, FlitArena, FlitHandle};
use supersim_topology::{RouteChoice, RoutingAlgorithm};

use crate::buffer::VcBuffer;
use crate::router::RouterCounters;

/// Validates handle indices against a restored arena: each must address
/// an occupied slot and may be claimed at most once across all of a
/// router's buffers and queues.
pub struct HandleClaims<'a> {
    arena: &'a FlitArena,
    claimed: Vec<bool>,
}

impl<'a> HandleClaims<'a> {
    pub(crate) fn new(arena: &'a FlitArena) -> Self {
        HandleClaims {
            claimed: vec![false; arena.slot_count()],
            arena,
        }
    }

    /// Claims the handle at arena slot `index`: `None` when the slot is
    /// vacant or already claimed.
    pub fn claim(&mut self, index: u32) -> Option<FlitHandle> {
        let h = self.arena.handle_at(index)?;
        let slot = self.claimed.get_mut(index as usize)?;
        if *slot {
            return None; // aliased handle
        }
        *slot = true;
        Some(h)
    }

    /// Every live flit must be claimed by exactly one buffer or queue.
    pub(crate) fn complete(&self) -> bool {
        self.claimed.iter().filter(|&&c| c).count() == self.arena.live() as usize
    }
}

pub(crate) fn put_opt_tick(out: &mut Vec<u8>, v: Option<Tick>) {
    match v {
        None => out.push(0),
        Some(t) => {
            out.push(1);
            put_varint(out, t);
        }
    }
}

pub(crate) fn get_opt_tick(buf: &mut &[u8]) -> Option<Option<Tick>> {
    match get_u8(buf)? {
        0 => Some(None),
        1 => Some(Some(get_varint(buf)?)),
        _ => None,
    }
}

/// Serializes handle-bearing input buffers: per buffer, occupancy then
/// slot indices head-first.
pub(crate) fn put_buffers(out: &mut Vec<u8>, bufs: &[VcBuffer<FlitHandle>]) {
    put_varint(out, bufs.len() as u64);
    for b in bufs {
        put_varint(out, u64::from(b.occupancy()));
        for h in b.iter() {
            put_varint(out, h.index() as u64);
        }
    }
}

/// Overlays saved buffers onto freshly built (empty) ones, claiming each
/// handle from the restored arena.
pub(crate) fn load_buffers(
    bufs: &mut [VcBuffer<FlitHandle>],
    claims: &mut HandleClaims<'_>,
    buf: &mut &[u8],
) -> Option<()> {
    let n = usize::try_from(get_varint(buf)?).ok()?;
    if n != bufs.len() {
        return None;
    }
    for b in bufs.iter_mut() {
        b.clear();
        let occ = u32::try_from(get_varint(buf)?).ok()?;
        if occ > b.capacity() {
            return None;
        }
        for _ in 0..occ {
            let idx = u32::try_from(get_varint(buf)?).ok()?;
            let h = claims.claim(idx)?;
            b.push(h).ok()?;
        }
    }
    Some(())
}

/// Serializes output queues of `(ready_tick, handle)` entries.
pub(crate) fn put_queues(out: &mut Vec<u8>, queues: &[VecDeque<(Tick, FlitHandle)>]) {
    put_varint(out, queues.len() as u64);
    for q in queues {
        put_varint(out, q.len() as u64);
        for &(ready, h) in q {
            put_varint(out, ready);
            put_varint(out, h.index() as u64);
        }
    }
}

/// Overlays saved output queues onto freshly built (empty) ones.
pub(crate) fn load_queues(
    queues: &mut [VecDeque<(Tick, FlitHandle)>],
    claims: &mut HandleClaims<'_>,
    buf: &mut &[u8],
) -> Option<()> {
    let n = usize::try_from(get_varint(buf)?).ok()?;
    if n != queues.len() {
        return None;
    }
    for q in queues.iter_mut() {
        q.clear();
        let len = usize::try_from(get_varint(buf)?).ok()?;
        if len > buf.len() {
            return None;
        }
        for _ in 0..len {
            let ready = get_varint(buf)?;
            let idx = u32::try_from(get_varint(buf)?).ok()?;
            q.push_back((ready, claims.claim(idx)?));
        }
    }
    Some(())
}

/// Serializes a route table (`None` / `Some(port, vc)` per input key).
pub(crate) fn put_routes(out: &mut Vec<u8>, table: &[Option<RouteChoice>]) {
    put_varint(out, table.len() as u64);
    for entry in table {
        match entry {
            None => out.push(0),
            Some(r) => {
                out.push(1);
                put_varint(out, u64::from(r.port));
                put_varint(out, u64::from(r.vc));
            }
        }
    }
}

/// Overlays a saved route table; choices must fit the router's shape.
pub(crate) fn load_routes(
    table: &mut [Option<RouteChoice>],
    radix: u32,
    vcs: u32,
    buf: &mut &[u8],
) -> Option<()> {
    let n = usize::try_from(get_varint(buf)?).ok()?;
    if n != table.len() {
        return None;
    }
    for entry in table.iter_mut() {
        *entry = match get_u8(buf)? {
            0 => None,
            1 => {
                let port = u32::try_from(get_varint(buf)?).ok()?;
                let vc = u32::try_from(get_varint(buf)?).ok()?;
                if port >= radix || vc >= vcs {
                    return None;
                }
                Some(RouteChoice { port, vc })
            }
            _ => return None,
        };
    }
    Some(())
}

/// Serializes per-key available credit counts (capacity is structural).
pub(crate) fn put_credits(out: &mut Vec<u8>, credits: &[CreditCounter]) {
    put_varint(out, credits.len() as u64);
    for c in credits {
        put_varint(out, u64::from(c.available()));
    }
}

/// Overlays saved credit counts; each must fit its structural capacity.
pub(crate) fn load_credits(credits: &mut [CreditCounter], buf: &mut &[u8]) -> Option<()> {
    let n = usize::try_from(get_varint(buf)?).ok()?;
    if n != credits.len() {
        return None;
    }
    for c in credits.iter_mut() {
        c.restore_available(u32::try_from(get_varint(buf)?).ok()?)?;
    }
    Some(())
}

/// Serializes per-port routing-engine state, each engine's bytes
/// length-prefixed so stateless engines frame to a single zero byte.
pub(crate) fn put_routing(out: &mut Vec<u8>, routing: &[Box<dyn RoutingAlgorithm>]) {
    put_varint(out, routing.len() as u64);
    let mut blob = Vec::new();
    for engine in routing {
        blob.clear();
        engine.save_state(&mut blob);
        supersim_des::wire::put_bytes(out, &blob);
    }
}

/// Overlays saved routing-engine state; every engine must consume its
/// section exactly.
pub(crate) fn load_routing(
    routing: &mut [Box<dyn RoutingAlgorithm>],
    buf: &mut &[u8],
) -> Option<()> {
    let n = usize::try_from(get_varint(buf)?).ok()?;
    if n != routing.len() {
        return None;
    }
    for engine in routing.iter_mut() {
        let mut blob = supersim_des::wire::get_bytes(buf)?;
        engine.load_state(&mut blob)?;
        if !blob.is_empty() {
            return None;
        }
    }
    Some(())
}

/// Serializes per-output-port last-send ticks.
pub(crate) fn put_last_send(out: &mut Vec<u8>, last_send: &[Option<Tick>]) {
    put_varint(out, last_send.len() as u64);
    for &t in last_send {
        put_opt_tick(out, t);
    }
}

/// Overlays saved last-send ticks.
pub(crate) fn load_last_send(last_send: &mut [Option<Tick>], buf: &mut &[u8]) -> Option<()> {
    let n = usize::try_from(get_varint(buf)?).ok()?;
    if n != last_send.len() {
        return None;
    }
    for t in last_send.iter_mut() {
        *t = get_opt_tick(buf)?;
    }
    Some(())
}

/// Serializes the operation counters.
pub(crate) fn put_counters(out: &mut Vec<u8>, c: &RouterCounters) {
    put_varint(out, c.flits_in);
    put_varint(out, c.flits_out);
    put_varint(out, c.credits_in);
    put_varint(out, c.cycles);
    put_varint(out, c.flits_advanced);
}

/// Decodes counters saved by [`put_counters`].
pub(crate) fn get_counters(buf: &mut &[u8]) -> Option<RouterCounters> {
    Some(RouterCounters {
        flits_in: get_varint(buf)?,
        flits_out: get_varint(buf)?,
        credits_in: get_varint(buf)?,
        cycles: get_varint(buf)?,
        flits_advanced: get_varint(buf)?,
    })
}

/// Serializes the optional fault state: an armed marker (which must
/// match the rebuilt router's fault configuration) plus the fault blob.
pub(crate) fn put_fault(out: &mut Vec<u8>, fault: Option<&supersim_netbase::LinkFaults>) {
    match fault {
        None => out.push(0),
        Some(f) => {
            out.push(1);
            f.save(out);
        }
    }
}

/// Overlays saved fault state; the armed marker must match.
pub(crate) fn load_fault(
    fault: &mut Option<supersim_netbase::LinkFaults>,
    buf: &mut &[u8],
) -> Option<()> {
    match (get_u8(buf)?, fault) {
        (0, None) => Some(()),
        (1, Some(f)) => f.load(buf),
        _ => None,
    }
}

/// Serializes the optional sampler (marker must match the rebuilt
/// router's sampling configuration).
pub(crate) fn put_sampler_opt(
    out: &mut Vec<u8>,
    sampler: Option<&supersim_stats::ComponentSampler>,
) {
    match sampler {
        None => out.push(0),
        Some(s) => {
            out.push(1);
            supersim_stats::snapshot::put_sampler(out, s);
        }
    }
}

/// Overlays a saved sampler; the armed marker must match.
pub(crate) fn load_sampler_opt(
    sampler: &mut Option<supersim_stats::ComponentSampler>,
    buf: &mut &[u8],
) -> Option<()> {
    match (get_u8(buf)?, &sampler) {
        (0, None) => Some(()),
        (1, Some(_)) => {
            *sampler = Some(supersim_stats::snapshot::get_sampler(buf)?);
            Some(())
        }
        _ => None,
    }
}
