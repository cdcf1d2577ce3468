//! The router skeleton every microarchitecture shares (paper §IV-C).
//!
//! A [`Router`] is one [`RouterCore`] plus one [`Pipeline`] strategy.
//! The core owns everything the IQ, OQ, and IOQ architectures have in
//! common: the wiring, clock, flit arena, input buffers, route table,
//! downstream credits, routing engines, congestion sensor, fault state,
//! metrics, and sampler. It implements the whole event interface — flit
//! and credit arrival, the fault protocol, pipeline wake-ups, window
//! sampling, and the shared half of the checkpoint codec. A pipeline
//! holds only its own state and runs once per core-clock edge with
//! mutable access to the core, through which it routes heads, returns
//! credits, and sends flits.
//!
//! A custom architecture registers the same way the built-in ones do:
//! build a [`RouterCore`] with a name prefix, wrap it and a pipeline in
//! a [`Router`], and return that from a `Factories::routers` constructor.
//! Because the report reads every router through [`Router::core`], a
//! custom pipeline gets the built-in metrics, time series, profiling
//! data, and checkpoints for free.

use std::any::Any;
use std::sync::Arc;

use supersim_des::{Clock, Component, Context, Tick, Time};
use supersim_netbase::{
    retry_port, CreditCounter, Ev, FaultPlane, Flit, FlitArena, FlitHandle, FlitMeta, FlitTraceExt,
    LinkFaults, LinkId, Port, RouterId, TraceKind, Vc,
};
use supersim_stats::ComponentSampler;
use supersim_topology::{RouteChoice, RoutingAlgorithm, RoutingContext};

use crate::buffer::VcBuffer;
use crate::common::{RouterError, RouterPorts, RoutingFactory};
use crate::congestion::{CongestionSensor, CongestionSource, SensorConfig};
use crate::metrics::{RouterMetrics, RouterSampleBase};
use crate::snapshot::{self as snap, HandleClaims};

/// Operation counters of a router, for engine-level statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct RouterCounters {
    /// Flits received on input ports.
    pub flits_in: u64,
    /// Flits sent on output ports.
    pub flits_out: u64,
    /// Credits received for output VCs.
    pub credits_in: u64,
    /// Switch cycles executed. Each cycle is one batched pipeline event,
    /// so this is also the profiling plane's batch count.
    pub cycles: u64,
    /// Flits moved by a pipeline stage (crossbar grants, queue transfers,
    /// channel sends) — `flits_advanced / cycles` is the per-batch
    /// advancement rate of the profiling plane.
    pub flits_advanced: u64,
}

/// Configuration every router architecture shares.
pub struct CoreConfig {
    /// This router's id in the topology.
    pub id: RouterId,
    /// Port wiring.
    pub ports: RouterPorts,
    /// Input buffer depth in flits per (port, VC) — the credit count
    /// granted to upstream devices.
    pub input_buffer: u32,
    /// Switch cycle time in ticks; a frequency speedup over the links
    /// means a core period below the link period.
    pub core_period: Tick,
    /// Channel cycle time in ticks (at most one flit per output port per
    /// link period).
    pub link_period: Tick,
    /// Congestion sensor configuration.
    pub sensor: SensorConfig,
    /// Constructor for per-input-port routing engines.
    pub routing: RoutingFactory,
    /// Shared fault plane; `None` disables fault injection entirely.
    pub fault: Option<Arc<FaultPlane>>,
}

/// The state and behaviour every router architecture shares.
pub struct RouterCore {
    name: String,
    id: RouterId,
    pub(crate) ports: RouterPorts,
    clock: Clock,
    link_period: Tick,
    input_buffer: u32,
    /// In-flight flits parked once on arrival; buffers and queues move
    /// handles only.
    pub(crate) arena: FlitArena,
    pub(crate) inputs: Vec<VcBuffer<FlitHandle>>,
    pub(crate) route_table: Vec<Option<RouteChoice>>,
    pub(crate) credits: Vec<CreditCounter>,
    routing: Vec<Box<dyn RoutingAlgorithm>>,
    pub(crate) sensor: CongestionSensor,
    last_send: Vec<Option<Tick>>,
    next_pipeline: Option<Tick>,
    last_cycle: Option<Tick>,
    /// Operation counters.
    pub counters: RouterCounters,
    /// Allocation / flow-control metrics.
    pub metrics: RouterMetrics,
    /// Per-port fault and retransmission state; `None` = fault-free.
    pub fault: Option<LinkFaults>,
    /// Windowed time-series ring; `None` = sampling disabled.
    pub sampler: Option<ComponentSampler>,
    win_base: RouterSampleBase,
}

impl RouterCore {
    /// Builds the shared core of a router named `<kind>_router_<id>`.
    ///
    /// # Errors
    ///
    /// Returns a [`RouterError`] on inconsistent port tables or zero
    /// periods.
    pub fn new(kind: &str, config: CoreConfig) -> Result<Self, RouterError> {
        config.ports.validate()?;
        if config.core_period == 0 || config.link_period == 0 {
            return Err(RouterError::new("clock periods must be non-zero"));
        }
        let radix = config.ports.radix;
        let vcs = config.ports.vcs;
        let n = (radix * vcs) as usize;
        let credits = (0..n)
            .map(|k| {
                let (port, _) = config.ports.unkey(k);
                CreditCounter::new(config.ports.downstream_capacity[port as usize])
            })
            .collect();
        let id = config.id;
        let fault = config.fault.map(|plane| {
            let links = (0..radix)
                .map(|port| LinkId::Router { router: id.0, port })
                .collect();
            LinkFaults::new(plane, links)
        });
        Ok(RouterCore {
            name: format!("{kind}_router_{}", id.0),
            id,
            clock: Clock::new(config.core_period),
            link_period: config.link_period,
            input_buffer: config.input_buffer,
            arena: FlitArena::new(),
            inputs: (0..n).map(|_| VcBuffer::new(config.input_buffer)).collect(),
            route_table: vec![None; n],
            credits,
            routing: (0..radix).map(|p| (config.routing)(id, p)).collect(),
            sensor: CongestionSensor::new(radix, vcs, config.sensor),
            last_send: vec![None; radix as usize],
            next_pipeline: None,
            last_cycle: None,
            counters: RouterCounters::default(),
            metrics: RouterMetrics::new(radix),
            fault,
            ports: config.ports,
            sampler: None,
            win_base: RouterSampleBase::default(),
        })
    }

    /// The port wiring.
    pub fn ports(&self) -> &RouterPorts {
        &self.ports
    }

    /// Input buffer depth per (port, VC) — the credit count granted to
    /// upstream devices.
    pub fn input_buffer(&self) -> u32 {
        self.input_buffer
    }

    /// The congestion sensor (for tests and instrumentation).
    pub fn sensor(&self) -> &CongestionSensor {
        &self.sensor
    }

    /// Flits in the input buffers and fault hold queues (pipeline-owned
    /// queues excluded; see [`Router::buffered_flits`]).
    fn buffered_flits(&self) -> u64 {
        self.inputs
            .iter()
            .map(|b| b.occupancy() as u64)
            .sum::<u64>()
            + self.fault.as_ref().map_or(0, |f| f.held_flits())
    }

    /// Per-(port, vc) downstream credit state as `(available, capacity)`,
    /// for diagnostic snapshots.
    pub fn credit_state(&self) -> Vec<(u32, u32)> {
        self.credits
            .iter()
            .map(|c| (c.available(), c.capacity()))
            .collect()
    }

    /// Flit-arena occupancy as `(live, high_water)`, for the profiling
    /// plane.
    pub fn arena_stats(&self) -> (u32, u32) {
        (self.arena.live(), self.arena.high_water())
    }

    /// The latched route of input key `k` (see [`RouterPorts::key`]).
    #[inline]
    pub fn route(&self, k: usize) -> Option<RouteChoice> {
        self.route_table[k]
    }

    /// The head flit's allocation fields at input key `k`, if any.
    #[inline]
    pub fn head(&self, k: usize) -> Option<FlitMeta> {
        self.inputs[k].front().map(|&h| self.arena.meta(h))
    }

    /// Downstream credits available on output `(port, vc)`.
    #[inline]
    pub fn credits(&self, port: Port, vc: Vc) -> u32 {
        self.credits[self.ports.key(port, vc)].available()
    }

    /// Whether output `port`'s channel is still serializing the flit it
    /// sent within the last link period.
    #[inline]
    pub fn link_busy(&self, port: Port, tick: Tick) -> bool {
        self.last_send[port as usize].is_some_and(|t| tick < t + self.link_period)
    }

    /// Whether any input buffer holds a flit.
    pub fn inputs_pending(&self) -> bool {
        self.inputs.iter().any(|b| !b.is_empty())
    }

    /// Earliest tick after `tick` at which a busy output channel frees up.
    pub(crate) fn next_link_free(&self, tick: Tick) -> Option<Tick> {
        self.last_send
            .iter()
            .flatten()
            .map(|&t| t + self.link_period)
            .filter(|&t| t > tick)
            .min()
    }

    /// Schedules a pipeline cycle at the first core-clock edge at or after
    /// `desired`, unless an earlier one is already pending.
    pub fn wake_at(&mut self, ctx: &mut Context<'_, Ev>, desired: Tick) {
        let t = self.clock.edge_at_or_after(desired);
        if self.next_pipeline.is_none_or(|np| t < np) {
            ctx.schedule_self(Time::new(t, 1), Ev::Pipeline);
            self.next_pipeline = Some(t);
        }
    }

    /// Schedules a pipeline cycle at the core-clock edge after `tick`.
    pub fn wake_next_edge(&mut self, ctx: &mut Context<'_, Ev>, tick: Tick) {
        self.wake_at(ctx, self.clock.next_edge(tick));
    }

    /// Stage 1: route computation for every input whose head flit has no
    /// route yet. `started` marks inputs whose packet already sent its
    /// head onward; engines that opt into re-routing recompute a waiting
    /// head's route every cycle until then (Duato-style escape fallback).
    /// `None` freezes every route at computation.
    ///
    /// Returns `false` after failing the run on an illegal routing output
    /// (paper §IV-D) or a body flit without a route.
    pub fn route_heads(&mut self, ctx: &mut Context<'_, Ev>, started: Option<&[bool]>) -> bool {
        let tick = ctx.now().tick();
        for k in 0..self.inputs.len() {
            if self.route_table[k].is_some()
                && started.is_none_or(|s| {
                    s[k] || !self.routing[self.ports.unkey(k).0 as usize].reroutes()
                })
            {
                continue;
            }
            let Some(&h) = self.inputs[k].front() else {
                continue;
            };
            let (in_port, in_vc) = self.ports.unkey(k);
            if !self.arena.meta(h).is_head() {
                if self.route_table[k].is_some() {
                    continue; // body flit streaming on a frozen route
                }
                ctx.fail(format!(
                    "{}: body flit of {} at buffer head without a route",
                    self.name,
                    self.arena.get(h).pkt.id
                ));
                return false;
            }
            let view = self.sensor.view_at(tick);
            let choice = {
                let mut rctx = RoutingContext {
                    router: self.id,
                    input_port: in_port,
                    input_vc: in_vc,
                    congestion: &view,
                    rng: ctx.rng(),
                };
                self.routing[in_port as usize].route(&mut rctx, self.arena.get_mut(h))
            };
            if choice.port >= self.ports.radix || choice.vc >= self.ports.vcs {
                ctx.fail(format!(
                    "{}: routing produced illegal output (port {}, vc {})",
                    self.name, choice.port, choice.vc
                ));
                return false;
            }
            if self.ports.flit_links[choice.port as usize].is_none() {
                ctx.fail(format!(
                    "{}: routing targeted unused output port {}",
                    self.name, choice.port
                ));
                return false;
            }
            self.route_table[k] = Some(choice);
        }
        true
    }

    /// Returns one credit for input key `k` to the upstream device (unless
    /// the fault plane loses it), and returns the input port.
    pub(crate) fn return_credit(&mut self, ctx: &mut Context<'_, Ev>, k: usize) -> Port {
        let (in_port, in_vc) = self.ports.unkey(k);
        if let Some(cl) = self.ports.credit_links[in_port as usize] {
            let lost = self.fault.as_mut().is_some_and(|f| f.credit_lost(ctx));
            if !lost {
                ctx.schedule(
                    cl.component,
                    Time::at(ctx.now().tick() + cl.latency),
                    Ev::Credit {
                        port: cl.port,
                        vc: in_vc,
                    },
                );
            }
        }
        in_port
    }

    /// Moves the head flit of input key `k` straight onto output `(port,
    /// vc)`'s channel after `latency` ticks of crossbar traversal:
    /// consumes a downstream credit, returns the freed input slot's credit
    /// upstream, retires the route at the packet tail, and sends.
    ///
    /// Returns `false` after failing the run on a credit underflow.
    pub fn forward(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        k: usize,
        out_port: Port,
        out_vc: Vc,
        latency: Tick,
    ) -> bool {
        let h = self.inputs[k]
            .pop()
            .expect("forwarded input had a head flit");
        let mut flit = self.arena.take(h);
        if self.credits[self.ports.key(out_port, out_vc)]
            .consume()
            .is_err()
        {
            ctx.fail(format!(
                "{}: credit underflow on output {out_port}",
                self.name
            ));
            return false;
        }
        self.sensor.add(
            ctx.now().tick(),
            CongestionSource::Downstream,
            out_port,
            out_vc,
        );
        let in_port = self.return_credit(ctx, k);
        if flit.is_tail() {
            self.route_table[k] = None;
        }
        flit.hops += 1;
        flit.vc = out_vc;
        self.metrics.flit_unbuffered(in_port);
        self.send(ctx, out_port, flit, latency);
        true
    }

    /// Sends `flit` on output `port`'s channel after `latency` ticks of
    /// router-internal transit, through the fault plane when armed.
    pub(crate) fn send(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        port: Port,
        mut flit: Flit,
        latency: Tick,
    ) {
        let tick = ctx.now().tick();
        ctx.trace_flit(TraceKind::RouterDepart, self.id.0, &flit);
        let fl = self.ports.flit_links[port as usize].expect("validated at route time");
        if let Some(s) = flit.span.as_deref_mut() {
            s.grant(tick, latency, fl.latency);
        }
        if let Some(fault) = &mut self.fault {
            fault.send(ctx, port, &fl, latency + fl.latency, flit, self.id.0);
        } else {
            ctx.schedule(
                fl.component,
                Time::at(tick + latency + fl.latency),
                Ev::Flit {
                    port: fl.port,
                    flit,
                },
            );
        }
        self.last_send[port as usize] = Some(tick);
        self.counters.flits_out += 1;
        self.counters.flits_advanced += 1;
    }

    fn flit_arrived(&mut self, ctx: &mut Context<'_, Ev>, port: Port, flit: Flit) {
        if port >= self.ports.radix || flit.vc >= self.ports.vcs {
            ctx.fail(format!(
                "{}: flit arrived on unknown input (port {port}, vc {})",
                self.name, flit.vc
            ));
            return;
        }
        let mut flit = match &mut self.fault {
            Some(fault) => {
                let reply = self.ports.credit_links[port as usize];
                match fault.receive(ctx, port, reply, flit, self.id.0) {
                    Some(flit) => flit,
                    None => return, // corrupt copy discarded and nacked
                }
            }
            None => flit,
        };
        self.counters.flits_in += 1;
        let now = ctx.now().tick();
        if let Some(s) = flit.span.as_deref_mut() {
            s.enter(now);
        }
        ctx.trace_flit(TraceKind::RouterArrive, self.id.0, &flit);
        let k = self.ports.key(port, flit.vc);
        let h = self.arena.insert(flit);
        if let Err(h) = self.inputs[k].push(h) {
            let flit = self.arena.take(h);
            ctx.fail(format!(
                "{}: input buffer overrun at port {port} vc {} ({})",
                self.name, flit.vc, flit.pkt.id
            ));
            return;
        }
        self.metrics.flit_buffered(port);
        self.wake_at(ctx, now);
    }

    fn credit_arrived(&mut self, ctx: &mut Context<'_, Ev>, port: Port, vc: Vc) {
        if port >= self.ports.radix || vc >= self.ports.vcs {
            ctx.fail(format!(
                "{}: credit arrived for unknown output (port {port}, vc {vc})",
                self.name
            ));
            return;
        }
        self.counters.credits_in += 1;
        let k = self.ports.key(port, vc);
        if self.credits[k].release().is_err() {
            ctx.fail(format!(
                "{}: credit overflow at output port {port} vc {vc}",
                self.name
            ));
            return;
        }
        let now = ctx.now().tick();
        self.sensor
            .remove(now, CongestionSource::Downstream, port, vc);
        self.wake_at(ctx, now);
    }

    /// Claims the pipeline event at the current tick; `false` for a
    /// duplicate wake-up in a cycle that already ran.
    fn begin_cycle(&mut self, tick: Tick) -> bool {
        if self.next_pipeline == Some(tick) {
            self.next_pipeline = None;
        }
        if self.last_cycle == Some(tick) {
            return false;
        }
        self.last_cycle = Some(tick);
        self.counters.cycles += 1;
        true
    }

    /// Drives the sender-side retransmission state machine for a fault
    /// protocol event (`Ack`, `Nack`, or a retry timer) addressed to
    /// output `port`.
    fn fault_protocol(&mut self, ctx: &mut Context<'_, Ev>, port: Port, event: &Ev) {
        let kind = match event {
            Ev::Ack { .. } => "Ack",
            Ev::Nack { .. } => "Nack",
            _ => "Retry",
        };
        let name = &self.name;
        let Some(fault) = self.fault.as_mut() else {
            ctx.fail(format!(
                "{name}: fault protocol event {kind} with the fault plane disabled"
            ));
            return;
        };
        if port >= self.ports.radix {
            ctx.fail(format!(
                "{name}: fault protocol event {kind} for unknown output port {port}"
            ));
            return;
        }
        let Some(link) = self.ports.flit_links[port as usize] else {
            ctx.fail(format!(
                "{name}: fault protocol event {kind} for unwired output port {port}"
            ));
            return;
        };
        match event {
            Ev::Ack { .. } => fault.handle_ack(ctx, port, &link, self.id.0),
            Ev::Nack { .. } => fault.handle_nack(ctx, port, &link, self.id.0),
            _ => fault.handle_retry(ctx, port, &link, self.id.0),
        }
    }

    /// Closes one sampling window: monotonic counter deltas since the
    /// previous edge plus a point-in-time buffered-flit occupancy. Every
    /// architecture reports the same series, so the per-window fold sees
    /// one uniform `router.*` plane.
    fn close_window(&mut self, edge: Tick, buffered: u64) {
        let Some(sampler) = self.sampler.as_mut() else {
            return;
        };
        let now = RouterSampleBase {
            credit_stalls: self.metrics.credit_stalls.get(),
            grants: self.metrics.grants.get(),
            flits_in: self.counters.flits_in,
            flits_out: self.counters.flits_out,
        };
        let base = std::mem::replace(&mut self.win_base, now);
        sampler.close(
            edge,
            vec![
                ("router.flits_in", now.flits_in - base.flits_in),
                ("router.flits_out", now.flits_out - base.flits_out),
                ("router.grants", now.grants - base.grants),
                (
                    "router.credit_stalls",
                    now.credit_stalls - base.credit_stalls,
                ),
                ("router.buffered_flits", buffered),
            ],
        );
    }

    /// Serializes the shared state that follows the handle-bearing
    /// sections (arena and input buffers come first; see
    /// [`Router::snapshot`]).
    fn save_tail(&self, out: &mut Vec<u8>) {
        snap::put_routes(out, &self.route_table);
        snap::put_credits(out, &self.credits);
        snap::put_routing(out, &self.routing);
        self.sensor.save(out);
        snap::put_last_send(out, &self.last_send);
        snap::put_opt_tick(out, self.next_pipeline);
        snap::put_opt_tick(out, self.last_cycle);
        snap::put_counters(out, &self.counters);
        self.metrics.save(out);
        snap::put_fault(out, self.fault.as_ref());
        snap::put_sampler_opt(out, self.sampler.as_ref());
        self.win_base.save(out);
    }

    /// Overlays the state saved by [`RouterCore::save_tail`].
    fn load_tail(&mut self, buf: &mut &[u8]) -> Option<()> {
        snap::load_routes(&mut self.route_table, self.ports.radix, self.ports.vcs, buf)?;
        snap::load_credits(&mut self.credits, buf)?;
        snap::load_routing(&mut self.routing, buf)?;
        self.sensor.load(buf)?;
        snap::load_last_send(&mut self.last_send, buf)?;
        self.next_pipeline = snap::get_opt_tick(buf)?;
        self.last_cycle = snap::get_opt_tick(buf)?;
        self.counters = snap::get_counters(buf)?;
        self.metrics.load(buf)?;
        snap::load_fault(&mut self.fault, buf)?;
        snap::load_sampler_opt(&mut self.sampler, buf)?;
        self.win_base = RouterSampleBase::load(buf)?;
        Some(())
    }
}

/// The architecture-specific half of a router: its pipeline stages and
/// the state only they use.
pub trait Pipeline: Send {
    /// Runs one core-clock cycle. The core has already deduplicated the
    /// wake-up and counted the cycle; the pipeline routes, allocates,
    /// moves flits, and re-arms the next wake-up through the core.
    fn cycle(&mut self, core: &mut RouterCore, ctx: &mut Context<'_, Ev>);

    /// Flits held in pipeline-owned queues (beyond the core's input
    /// buffers).
    fn buffered(&self) -> u64 {
        0
    }

    /// Serializes the pipeline's state for a checkpoint.
    fn snapshot(&self, _out: &mut Vec<u8>) {}

    /// Overlays state saved by [`Pipeline::snapshot`]. Flit handles must
    /// be claimed through `claims` so the core can check that every live
    /// flit is held exactly once. Total: `None` on malformed input.
    fn restore(&mut self, _buf: &mut &[u8], _claims: &mut HandleClaims<'_>) -> Option<()> {
        Some(())
    }
}

/// A router component: the shared core driven by one pipeline strategy.
pub struct Router {
    core: RouterCore,
    pipeline: Box<dyn Pipeline>,
}

impl Router {
    /// Assembles a router from its core and pipeline.
    pub fn new(core: RouterCore, pipeline: Box<dyn Pipeline>) -> Self {
        Router { core, pipeline }
    }

    /// The shared core: metrics, counters, fault state, sampler, credits.
    pub fn core(&self) -> &RouterCore {
        &self.core
    }

    /// Mutable access to the shared core (e.g. to arm the sampler).
    pub fn core_mut(&mut self) -> &mut RouterCore {
        &mut self.core
    }

    /// Flits currently buffered anywhere in the router: input buffers,
    /// pipeline queues, and fault hold queues.
    pub fn buffered_flits(&self) -> u64 {
        self.core.buffered_flits() + self.pipeline.buffered()
    }
}

impl Component<Ev> for Router {
    fn name(&self) -> &str {
        &self.core.name
    }

    fn host_class(&self) -> &'static str {
        "router"
    }

    fn handle(&mut self, ctx: &mut Context<'_, Ev>, event: Ev) {
        match event {
            Ev::Flit { port, flit } => self.core.flit_arrived(ctx, port, flit),
            Ev::Credit { port, vc } => self.core.credit_arrived(ctx, port, vc),
            Ev::Pipeline => {
                if self.core.begin_cycle(ctx.now().tick()) {
                    self.pipeline.cycle(&mut self.core, ctx);
                }
            }
            Ev::Ack { port } | Ev::Nack { port } => self.core.fault_protocol(ctx, port, &event),
            Ev::Internal(tag) if retry_port(tag).is_some() => {
                let port = retry_port(tag).expect("guard matched");
                self.core.fault_protocol(ctx, port, &event);
            }
            other => {
                ctx.fail(format!("{}: unexpected event {other:?}", self.core.name));
            }
        }
    }

    fn sample(&mut self, edge: Tick) {
        if self.core.sampler.is_some() {
            let buffered = self.buffered_flits();
            self.core.close_window(edge, buffered);
        }
    }

    /// Layout: arena, input buffers, pipeline state, then the rest of the
    /// core — handle-bearing sections first so one claim set validates
    /// them all before anything else is overlaid.
    fn snapshot(&self, out: &mut Vec<u8>) {
        self.core.arena.save(out);
        snap::put_buffers(out, &self.core.inputs);
        self.pipeline.snapshot(out);
        self.core.save_tail(out);
    }

    fn restore(&mut self, buf: &mut &[u8]) -> Option<()> {
        let arena = FlitArena::load(buf)?;
        let mut claims = HandleClaims::new(&arena);
        snap::load_buffers(&mut self.core.inputs, &mut claims, buf)?;
        self.pipeline.restore(buf, &mut claims)?;
        if !claims.complete() {
            return None;
        }
        self.core.load_tail(buf)?;
        self.core.arena = arena;
        Some(())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
