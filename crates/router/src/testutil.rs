//! Shared test harness for router microarchitecture tests: a tiny
//! "network" of stub endpoints around one router (or a ring of routers)
//! with full credit loops and delivery checking.

use std::any::Any;
use std::collections::{BTreeMap, VecDeque};

use supersim_des::{Component, ComponentId, Context, RunOutcome, Simulator, Tick, Time};
use supersim_netbase::{
    AppId, CreditCounter, DeliveryChecker, Ev, Flit, LinkTarget, MessageId, PacketBuilder,
    PacketId, TerminalId,
};
use supersim_topology::{RouteChoice, RoutingAlgorithm, RoutingContext};

use crate::common::{RouterError, RouterPorts, RoutingFactory};
use crate::router::{Router, RouterCounters};

/// Builds one test flit (single packet of `size` flits, first flit
/// returned).
pub fn test_flit(src: TerminalId, dst: TerminalId, size: u32, tick: Tick) -> Flit {
    test_packet(99, src, dst, size, tick).remove(0)
}

/// Builds a whole test packet.
pub fn test_packet(id: u64, src: TerminalId, dst: TerminalId, size: u32, tick: Tick) -> Vec<Flit> {
    PacketBuilder {
        id: PacketId(id),
        message: MessageId(id),
        app: AppId(0),
        src,
        dst,
        size,
        message_size: size,
        inject_tick: tick,
        message_tick: tick,
        sample: false,
    }
    .build()
}

/// Runs a simulator to completion with a safety tick limit.
pub fn drive(sim: &mut Simulator<Ev>) -> RunOutcome {
    sim.run_until(1_000_000).outcome
}

/// Static routing for a single-router star: destination terminal `t` sits
/// on router port `t`; everything goes out on VC 0.
#[derive(Debug, Clone)]
pub struct StaticRouting {
    radix: u32,
    vcs: u32,
}

impl StaticRouting {
    /// Creates a static star routing engine.
    pub fn new(radix: u32, vcs: u32) -> Self {
        StaticRouting { radix, vcs }
    }
}

impl RoutingAlgorithm for StaticRouting {
    fn name(&self) -> &str {
        "static_star"
    }
    fn vcs_required(&self) -> u32 {
        self.vcs
    }
    fn route(&mut self, _ctx: &mut RoutingContext<'_>, flit: &mut Flit) -> RouteChoice {
        debug_assert!(flit.pkt.dst.0 < self.radix);
        RouteChoice {
            port: flit.pkt.dst.0,
            vc: 0,
        }
    }
}

/// Ring routing: eject at the home router, otherwise forward clockwise on
/// port 1.
#[derive(Debug, Clone)]
pub struct RingRouting {
    my_index: u32,
}

impl RingRouting {
    /// Creates routing for ring position `my_index`.
    pub fn new(my_index: u32) -> Self {
        RingRouting { my_index }
    }
}

impl RoutingAlgorithm for RingRouting {
    fn name(&self) -> &str {
        "ring_clockwise"
    }
    fn vcs_required(&self) -> u32 {
        1
    }
    fn route(&mut self, _ctx: &mut RoutingContext<'_>, flit: &mut Flit) -> RouteChoice {
        if flit.pkt.dst.0 == self.my_index {
            RouteChoice { port: 0, vc: 0 }
        } else {
            RouteChoice { port: 1, vc: 0 }
        }
    }
}

/// A stub terminal: injects pre-scheduled packets respecting credits and
/// link rate, ejects flits into a draining buffer, returns credits, and
/// checks delivery invariants.
pub struct Endpoint {
    name: String,
    /// Link to the router input port fed by this endpoint.
    to_router: LinkTarget,
    /// Router output-port id to address returned (ejection) credits to.
    credit_to: LinkTarget,
    /// Credits toward the router's input buffer, per VC.
    send_credits: Vec<CreditCounter>,
    /// Packets waiting for their release tick.
    pending: BTreeMap<Tick, VecDeque<Flit>>,
    /// Flits released and waiting for credits/link.
    queue: VecDeque<Flit>,
    last_send: Option<Tick>,
    next_inject: Option<Tick>,
    ignore_credits: bool,
    /// Ejection-side drain: one flit per tick leaves the eject buffer.
    drain_busy_until: Tick,
    checker: DeliveryChecker,
    /// Received flits with their arrival ticks.
    pub received: Vec<(Tick, Flit)>,
}

impl Endpoint {
    /// Creates an endpoint for `terminal`.
    pub fn new(
        terminal: TerminalId,
        to_router: LinkTarget,
        credit_to: LinkTarget,
        vcs: u32,
        router_input_buffer: u32,
    ) -> Self {
        Endpoint {
            name: format!("endpoint_{}", terminal.0),
            to_router,
            credit_to,
            send_credits: (0..vcs)
                .map(|_| CreditCounter::new(router_input_buffer))
                .collect(),
            pending: BTreeMap::new(),
            queue: VecDeque::new(),
            last_send: None,
            next_inject: None,
            ignore_credits: false,
            drain_busy_until: 0,
            checker: DeliveryChecker::new(terminal),
            received: Vec::new(),
        }
    }

    /// Queues a packet for release at `tick`.
    pub fn queue_packet(&mut self, flits: Vec<Flit>, tick: Tick) {
        self.pending.entry(tick).or_default().extend(flits);
    }

    /// Makes the endpoint flood without consuming credits (for overrun
    /// tests).
    pub fn set_ignore_credits(&mut self) {
        self.ignore_credits = true;
    }

    /// Whether every send credit has returned home.
    pub fn credits_home(&self) -> bool {
        self.send_credits
            .iter()
            .all(|c| c.available() == c.capacity())
    }

    fn pump(&mut self, ctx: &mut Context<'_, Ev>) {
        let tick = ctx.now().tick();
        // Release due packets.
        while let Some((&t, _)) = self.pending.iter().next() {
            if t > tick {
                break;
            }
            let (_, flits) = self.pending.pop_first().expect("checked non-empty");
            self.queue.extend(flits);
        }
        // Send at most one flit per tick.
        if self.last_send != Some(tick) {
            if let Some(front) = self.queue.front() {
                let vc = front.vc as usize;
                let ok = self.ignore_credits || self.send_credits[vc].try_consume();
                if ok {
                    let flit = self.queue.pop_front().expect("non-empty");
                    ctx.schedule(
                        self.to_router.component,
                        Time::at(tick + self.to_router.latency),
                        Ev::Flit {
                            port: self.to_router.port,
                            flit,
                        },
                    );
                    self.last_send = Some(tick);
                }
            }
        }
        // Re-arm while anything is outstanding.
        let next_due = self.pending.keys().next().copied();
        let wake = if !self.queue.is_empty() {
            Some(tick + 1)
        } else {
            next_due
        };
        if let Some(w) = wake {
            let w = w.max(tick + 1);
            if self.next_inject.is_none_or(|ni| ni <= tick || w < ni) {
                ctx.schedule_self(Time::at(w), Ev::Inject);
                self.next_inject = Some(w);
            }
        }
    }
}

impl Component<Ev> for Endpoint {
    fn name(&self) -> &str {
        &self.name
    }

    fn handle(&mut self, ctx: &mut Context<'_, Ev>, event: Ev) {
        match event {
            Ev::Inject => {
                if self.next_inject == Some(ctx.now().tick()) {
                    self.next_inject = None;
                }
                self.pump(ctx);
            }
            Ev::Credit { port: _, vc } => {
                if !self.ignore_credits && self.send_credits[vc as usize].release().is_err() {
                    ctx.fail(format!("{}: send credit overflow", self.name));
                    return;
                }
                self.pump(ctx);
            }
            Ev::Flit { port: _, flit } => {
                let tick = ctx.now().tick();
                if let Err(e) = self.checker.deliver(&flit) {
                    ctx.fail(format!("{}: {e}", self.name));
                    return;
                }
                // Eject buffer drains one flit per tick; the credit
                // returns when this flit leaves the buffer.
                self.drain_busy_until = self.drain_busy_until.max(tick) + 1;
                let vc = flit.vc;
                ctx.schedule(
                    self.credit_to.component,
                    Time::at(self.drain_busy_until + self.credit_to.latency),
                    Ev::Credit {
                        port: self.credit_to.port,
                        vc,
                    },
                );
                self.received.push((tick, flit));
            }
            other => ctx.fail(format!("{}: unexpected event {other:?}", self.name)),
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Results of a [`TestNet`] run.
pub struct TestOutput {
    /// How the simulation ended.
    pub outcome: RunOutcome,
    /// Received `(tick, flit)` per endpoint.
    pub received: Vec<Vec<(Tick, Flit)>>,
    /// Per-router operation counters.
    pub router_counters: Vec<RouterCounters>,
    /// Whether every endpoint got all its send credits back.
    pub all_credits_home: bool,
}

impl TestOutput {
    /// Flits delivered to endpoint `idx`.
    pub fn delivered(&self, idx: usize) -> usize {
        self.received[idx].len()
    }

    /// The flits delivered to endpoint `idx`.
    pub fn flits(&self, idx: usize) -> Vec<Flit> {
        self.received[idx].iter().map(|(_, f)| f.clone()).collect()
    }

    /// Arrival ticks at endpoint `idx`.
    pub fn arrival_ticks(&self, idx: usize) -> Vec<Tick> {
        self.received[idx].iter().map(|(t, _)| *t).collect()
    }
}

/// A star test network: three endpoints around one router (endpoint `i` on
/// router port `i`).
pub struct TestNet {
    sim: Simulator<Ev>,
    endpoint_ids: Vec<ComponentId>,
    router_ids: Vec<ComponentId>,
    next_packet: u64,
}

impl TestNet {
    /// Number of endpoints in the star configuration.
    pub const ENDPOINTS: u32 = 3;

    /// Builds the star: `make_router` receives the wired [`RouterPorts`]
    /// and a [`RoutingFactory`] producing [`StaticRouting`].
    pub fn build<F>(vcs: u32, eject_buffer: u32, make_router: F) -> TestNet
    where
        F: FnOnce(RouterPorts, RoutingFactory) -> Result<Box<dyn Component<Ev>>, RouterError>,
    {
        let n = Self::ENDPOINTS;
        let mut sim = Simulator::new(0xBEEF);
        let router_id = ComponentId::from_index(n as usize); // endpoints first
        let mut endpoint_ids = Vec::new();
        // The endpoints grant the router's input-buffer credits; the value
        // is refreshed below once the router is built. Use a generous
        // default matched by the tests (they pass input_buffer explicitly
        // and the endpoints learn it via set_send_capacity).
        for i in 0..n {
            let ep = Endpoint::new(
                TerminalId(i),
                LinkTarget::new(router_id, i, 1),
                LinkTarget::new(router_id, i, 1),
                vcs,
                u32::MAX, // replaced after construction
            );
            endpoint_ids.push(sim.add_component(Box::new(ep)));
        }
        let ports = RouterPorts {
            radix: n,
            vcs,
            flit_links: (0..n)
                .map(|i| Some(LinkTarget::new(endpoint_ids[i as usize], 0, 1)))
                .collect(),
            credit_links: (0..n)
                .map(|i| Some(LinkTarget::new(endpoint_ids[i as usize], 0, 1)))
                .collect(),
            downstream_capacity: vec![eject_buffer; n as usize],
        };
        let routing: RoutingFactory = Box::new(move |_, _| Box::new(StaticRouting::new(n, vcs)));
        let router = make_router(ports, routing).expect("router construction failed");
        let input_buffer = router
            .as_any()
            .downcast_ref::<Router>()
            .expect("not a Router")
            .core()
            .input_buffer();
        let rid = sim.add_component(router);
        assert_eq!(rid, router_id, "router id prediction broke");
        // Fix up endpoint send-credit capacity to the router's input buffer.
        for &eid in &endpoint_ids {
            let ep = sim.component_as_mut::<Endpoint>(eid).expect("endpoint");
            ep.send_credits = (0..vcs).map(|_| CreditCounter::new(input_buffer)).collect();
        }
        TestNet {
            sim,
            endpoint_ids,
            router_ids: vec![router_id],
            next_packet: 1,
        }
    }

    /// Queues a packet of `size` flits from endpoint `src` to terminal
    /// `dst`, released at `tick`.
    pub fn inject(&mut self, src: usize, dst: TerminalId, size: u32, tick: Tick) {
        let id = self.next_packet;
        self.next_packet += 1;
        let flits = test_packet(id, TerminalId(src as u32), dst, size, tick);
        let eid = self.endpoint_ids[src];
        self.sim
            .component_as_mut::<Endpoint>(eid)
            .expect("endpoint")
            .queue_packet(flits, tick);
        self.sim.schedule(eid, Time::at(tick), Ev::Inject);
    }

    /// Makes endpoint `idx` flood without respecting credits.
    pub fn endpoint_ignores_credits(&mut self, idx: usize) {
        self.sim
            .component_as_mut::<Endpoint>(self.endpoint_ids[idx])
            .expect("endpoint")
            .set_ignore_credits();
    }

    /// Runs to completion and collects results.
    pub fn run(mut self) -> TestOutput {
        let outcome = drive(&mut self.sim);
        let mut received = Vec::new();
        let mut all_credits_home = true;
        for &eid in &self.endpoint_ids {
            let ep = self.sim.component_as::<Endpoint>(eid).expect("endpoint");
            received.push(ep.received.clone());
            if !ep.ignore_credits && !ep.credits_home() {
                all_credits_home = false;
            }
        }
        let router_counters = self
            .router_ids
            .iter()
            .map(|&rid| {
                let r = self.sim.component_as::<Router>(rid).expect("router");
                r.core().counters
            })
            .collect();
        TestOutput {
            outcome,
            received,
            router_counters,
            all_credits_home,
        }
    }
}

/// Builds a clockwise ring of `n` routers, each with one endpoint on port
/// 0; port 1 sends to the next router's port 2.
pub fn ring_links<F>(n: u32, make_router: F) -> TestNet
where
    F: Fn(RouterPorts, RoutingFactory) -> Result<Box<dyn Component<Ev>>, RouterError>,
{
    let mut sim = Simulator::new(0xF00D);
    let vcs = 1;
    let input_buffer = 4;
    let eject_buffer = 16;
    // Ids: endpoints 0..n, routers n..2n.
    let endpoint_cid = |i: u32| ComponentId::from_index(i as usize);
    let router_cid = |i: u32| ComponentId::from_index((n + i) as usize);
    let mut endpoint_ids = Vec::new();
    for i in 0..n {
        let ep = Endpoint::new(
            TerminalId(i),
            LinkTarget::new(router_cid(i), 0, 1),
            LinkTarget::new(router_cid(i), 0, 1),
            vcs,
            input_buffer,
        );
        endpoint_ids.push(sim.add_component(Box::new(ep)));
        assert_eq!(*endpoint_ids.last().expect("just pushed"), endpoint_cid(i));
    }
    let mut router_ids = Vec::new();
    for r in 0..n {
        let next = (r + 1) % n;
        let prev = (r + n - 1) % n;
        let ports = RouterPorts {
            radix: 3,
            vcs,
            flit_links: vec![
                Some(LinkTarget::new(endpoint_cid(r), 0, 1)),
                Some(LinkTarget::new(router_cid(next), 2, 2)),
                Some(LinkTarget::new(router_cid(prev), 1, 2)),
            ],
            credit_links: vec![
                Some(LinkTarget::new(endpoint_cid(r), 0, 1)),
                // Input port 1 is fed by the next router's port 2 output.
                Some(LinkTarget::new(router_cid(next), 2, 2)),
                // Input port 2 is fed by the previous router's port 1.
                Some(LinkTarget::new(router_cid(prev), 1, 2)),
            ],
            downstream_capacity: vec![eject_buffer, input_buffer, input_buffer],
        };
        let routing: RoutingFactory = Box::new(move |_, _| Box::new(RingRouting::new(r)));
        let router = make_router(ports, routing).expect("router construction failed");
        router_ids.push(sim.add_component(router));
        assert_eq!(*router_ids.last().expect("just pushed"), router_cid(r));
    }
    TestNet {
        sim,
        endpoint_ids,
        router_ids,
        next_packet: 1,
    }
}
