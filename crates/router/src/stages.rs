//! Pipeline stages shared by more than one router architecture: the
//! crossbar allocation stage (IQ's switch stage, IOQ's input stage) and
//! the output-queue drain stage (OQ and IOQ).

use std::collections::VecDeque;

use supersim_des::wire::{get_u8, get_varint, put_varint};
use supersim_des::{Context, Rng, Tick};
use supersim_netbase::{Ev, FlitHandle, Port};
use supersim_topology::RouteChoice;

use crate::arbiter::{Arbiter, Request, RoundRobinArbiter};
use crate::congestion::CongestionSource;
use crate::metrics::RouterMetrics;
use crate::router::RouterCore;
use crate::snapshot::{self as snap, HandleClaims};
use crate::xbar_sched::{FlowControl, OutputScheduler, XbarCandidate};

/// Crossbar allocation: one scheduler per output port choosing among the
/// head flits routed to it.
pub(crate) struct Crossbar {
    schedulers: Vec<OutputScheduler>,
    /// Per-output-port candidate buckets, reused across cycles.
    buckets: Vec<Vec<XbarCandidate>>,
}

impl Crossbar {
    pub(crate) fn new(radix: u32, vcs: u32, fc: FlowControl, arbiter: &str) -> Self {
        Crossbar {
            schedulers: (0..radix)
                .map(|_| OutputScheduler::new(fc, vcs, arbiter))
                .collect(),
            buckets: (0..radix).map(|_| Vec::new()).collect(),
        }
    }

    /// Distributes every routed input's head flit into its output port's
    /// bucket, judging eligibility against `queue_space` per output
    /// `(port, vc)` when the crossbar feeds output queues, or against the
    /// downstream credits (skipping outputs whose channel is still busy)
    /// when it feeds the channels directly.
    ///
    /// A single pass over the inputs distributes candidates into reused
    /// per-output buckets — each input feeds exactly one output, so the
    /// per-output candidate order (ascending input key) and every
    /// credit/stall observation are identical to a per-output sweep, at
    /// O(inputs + radix) per cycle with no per-cycle allocation.
    pub(crate) fn collect(
        &mut self,
        core: &mut RouterCore,
        tick: Tick,
        queue_space: Option<&[u32]>,
    ) {
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        for k in 0..core.inputs.len() {
            let Some(route) = core.route_table[k] else {
                continue;
            };
            if queue_space.is_none() && core.link_busy(route.port, tick) {
                continue; // channel still serializing the previous flit
            }
            let Some(&h) = core.inputs[k].front() else {
                continue;
            };
            let m = core.arena.meta(h);
            let key = core.ports.key(route.port, route.vc);
            let credits = match queue_space {
                Some(free) => free[key],
                None => core.credits[key].available(),
            };
            let span = core.arena.get_mut(h).span.as_deref_mut();
            if credits == 0 {
                core.metrics.credit_stalls.inc();
                if let Some(s) = span {
                    s.stall(tick);
                }
            } else if let Some(s) = span {
                s.resume(tick);
            }
            self.buckets[route.port as usize].push(XbarCandidate {
                input_key: k as u32,
                age: m.age,
                out_vc: route.vc,
                is_head: m.is_head(),
                is_tail: m.is_tail(),
                packet_size: m.packet_size,
                credits,
            });
        }
    }

    /// Runs output `port`'s scheduler over its bucket, counting the grant
    /// or denial, and returns the winner.
    pub(crate) fn pick(
        &mut self,
        port: Port,
        metrics: &mut RouterMetrics,
        rng: &mut Rng,
    ) -> Option<XbarCandidate> {
        let cands = &self.buckets[port as usize];
        let Some(w) = self.schedulers[port as usize].pick(cands, rng) else {
            if !cands.is_empty() {
                metrics.denials.inc();
            }
            return None;
        };
        metrics.grants.inc();
        Some(cands[w])
    }

    pub(crate) fn save(&self, out: &mut Vec<u8>) {
        put_varint(out, self.schedulers.len() as u64);
        for s in &self.schedulers {
            s.save(out);
        }
    }

    pub(crate) fn load(&mut self, buf: &mut &[u8]) -> Option<()> {
        let n = usize::try_from(get_varint(buf)?).ok()?;
        if n != self.schedulers.len() {
            return None;
        }
        self.schedulers.iter_mut().try_for_each(|s| s.load(buf))
    }
}

/// Output queues per `(port, vc)` and the stage draining them onto the
/// channels: at most one ready flit per output port per link period,
/// honoring downstream credits.
pub(crate) struct OutputQueues {
    /// Flit handles with the tick they become ready to leave.
    queues: Vec<VecDeque<(Tick, FlitHandle)>>,
    /// Remaining space per `(port, vc)`; `None` = infinite queues.
    pub(crate) free: Option<Vec<u32>>,
    /// Per-output-port VC drain arbiters.
    drain_arb: Vec<RoundRobinArbiter>,
    /// Drain-stage request scratch, reused across ports and cycles.
    req_scratch: Vec<Request>,
}

impl OutputQueues {
    /// Empty queues for a `radix`-port router with `vcs` VCs, each
    /// holding `capacity` flits (`None` = infinite).
    pub(crate) fn new(radix: u32, vcs: u32, capacity: Option<u32>) -> Self {
        let n = (radix * vcs) as usize;
        OutputQueues {
            queues: (0..n).map(|_| VecDeque::new()).collect(),
            free: capacity.map(|cap| vec![cap; n]),
            drain_arb: (0..radix).map(|_| RoundRobinArbiter::new()).collect(),
            req_scratch: Vec::new(),
        }
    }

    /// Flits held in the queues.
    pub(crate) fn len(&self) -> u64 {
        self.queues.iter().map(|q| q.len() as u64).sum()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.queues.iter().all(VecDeque::is_empty)
    }

    /// Earliest ready tick after `tick` among the queue heads — a
    /// queue-to-queue transit has no triggering event of its own.
    pub(crate) fn next_ready(&self, tick: Tick) -> Option<Tick> {
        self.queues
            .iter()
            .filter_map(|q| q.front())
            .map(|&(ready, _)| ready)
            .filter(|&r| r > tick)
            .min()
    }

    /// Moves the head flit of input key `k` into output queue `out`,
    /// ready after `latency` ticks of transit, and returns the freed
    /// input slot's credit upstream.
    pub(crate) fn admit(
        &mut self,
        core: &mut RouterCore,
        ctx: &mut Context<'_, Ev>,
        k: usize,
        out: RouteChoice,
        latency: Tick,
    ) {
        let tick = ctx.now().tick();
        let h = core.inputs[k]
            .pop()
            .expect("admitted input had a head flit");
        let okey = core.ports.key(out.port, out.vc);
        if let Some(free) = &mut self.free {
            free[okey] -= 1;
        }
        core.sensor
            .add(tick, CongestionSource::Output, out.port, out.vc);
        let in_port = core.return_credit(ctx, k);
        let flit = core.arena.get_mut(h);
        if flit.is_tail() {
            core.route_table[k] = None;
        }
        flit.hops += 1;
        flit.vc = out.vc;
        if let Some(s) = flit.span.as_deref_mut() {
            // Input residence ends here; the transit is serialization,
            // then a fresh residence segment begins in the output queue.
            s.grant(tick, latency, 0);
            s.enter(tick + latency);
        }
        core.metrics.flit_unbuffered(in_port);
        self.queues[okey].push_back((tick + latency, h));
        core.counters.flits_advanced += 1;
    }

    /// The drain stage; returns whether any flit left.
    pub(crate) fn drain(&mut self, core: &mut RouterCore, ctx: &mut Context<'_, Ev>) -> bool {
        // The round-robin drain arbiter is deterministic and ignores its
        // RNG, but the seed drawn here is part of the context's RNG
        // stream: every later routing draw depends on it.
        let mut rng = Rng::new(ctx.rng().gen_u64());
        let tick = ctx.now().tick();
        let mut progress = false;
        for out_port in 0..core.ports.radix {
            if core.link_busy(out_port, tick) {
                continue;
            }
            self.req_scratch.clear();
            for vc in 0..core.ports.vcs {
                let okey = core.ports.key(out_port, vc);
                let Some(&(ready, h)) = self.queues[okey].front() else {
                    continue;
                };
                if ready > tick {
                    continue;
                }
                if !core.credits[okey].has_credit() {
                    core.metrics.credit_stalls.inc();
                    if let Some(s) = core.arena.get_mut(h).span.as_deref_mut() {
                        s.stall(tick);
                    }
                    continue;
                }
                self.req_scratch.push(Request {
                    id: vc,
                    age: core.arena.meta(h).age,
                });
            }
            let Some(w) = self.drain_arb[out_port as usize].grant(&self.req_scratch, &mut rng)
            else {
                if !self.req_scratch.is_empty() {
                    core.metrics.denials.inc();
                }
                continue;
            };
            core.metrics.grants.inc();
            let vc = self.req_scratch[w].id;
            let okey = core.ports.key(out_port, vc);
            let (_, h) = self.queues[okey].pop_front().expect("candidate had a flit");
            let flit = core.arena.take(h);
            if let Some(free) = &mut self.free {
                free[okey] += 1;
            }
            core.credits[okey]
                .consume()
                .expect("eligibility checked credit");
            core.sensor
                .remove(tick, CongestionSource::Output, out_port, vc);
            core.sensor
                .add(tick, CongestionSource::Downstream, out_port, vc);
            core.send(ctx, out_port, flit, 0);
            progress = true;
        }
        progress
    }

    pub(crate) fn save(&self, out: &mut Vec<u8>) {
        snap::put_queues(out, &self.queues);
        match &self.free {
            None => out.push(0),
            Some(free) => {
                out.push(1);
                put_varint(out, free.len() as u64);
                for &f in free {
                    put_varint(out, u64::from(f));
                }
            }
        }
        put_varint(out, self.drain_arb.len() as u64);
        for a in &self.drain_arb {
            a.save(out);
        }
    }

    pub(crate) fn load(&mut self, buf: &mut &[u8], claims: &mut HandleClaims<'_>) -> Option<()> {
        snap::load_queues(&mut self.queues, claims, buf)?;
        match (get_u8(buf)?, &mut self.free) {
            (0, None) => {}
            (1, Some(free)) => {
                let n = usize::try_from(get_varint(buf)?).ok()?;
                if n != free.len() {
                    return None;
                }
                for f in free.iter_mut() {
                    *f = u32::try_from(get_varint(buf)?).ok()?;
                }
            }
            _ => return None,
        }
        let n = usize::try_from(get_varint(buf)?).ok()?;
        if n != self.drain_arb.len() {
            return None;
        }
        self.drain_arb.iter_mut().try_for_each(|a| a.load(buf))
    }
}
