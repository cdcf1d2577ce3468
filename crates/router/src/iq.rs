//! The input-queued (IQ) router microarchitecture (paper §IV-C).
//!
//! Modeled after the standard input-queued architecture of Dally & Towles
//! with full crossbar input speedup and an optimized input-queue pipeline:
//! every input (port, VC) presents the flit at its buffer head directly to
//! the per-output crossbar schedulers, so the only structural conflicts are
//! at the outputs. Flits wait in the input queues until downstream (next
//! hop) credits are available, as governed by the configured
//! [`FlowControl`] technique.

use supersim_des::wire::{get_u8, get_varint, put_varint};
use supersim_des::{Context, Tick};
use supersim_netbase::Ev;

use crate::common::RouterError;
use crate::router::{CoreConfig, Pipeline, Router, RouterCore};
use crate::snapshot::HandleClaims;
use crate::stages::Crossbar;
use crate::xbar_sched::FlowControl;

/// Configuration of an input-queued router.
pub struct IqConfig {
    /// The configuration every architecture shares.
    pub core: CoreConfig,
    /// Crossbar traversal latency in ticks.
    pub xbar_latency: Tick,
    /// Crossbar scheduling flow control technique.
    pub flow_control: FlowControl,
    /// Arbiter policy for the output schedulers.
    pub arbiter: String,
}

impl IqConfig {
    /// Builds an `iq_router_<id>`.
    ///
    /// # Errors
    ///
    /// Returns a [`RouterError`] on inconsistent port tables or zero
    /// periods.
    pub fn build(self) -> Result<Router, RouterError> {
        let core = RouterCore::new("iq", self.core)?;
        let (radix, vcs) = (core.ports().radix, core.ports().vcs);
        let pipeline = IqPipeline {
            xbar_latency: self.xbar_latency,
            route_started: vec![false; (radix * vcs) as usize],
            xbar: Crossbar::new(radix, vcs, self.flow_control, &self.arbiter),
        };
        Ok(Router::new(core, Box::new(pipeline)))
    }
}

/// The IQ pipeline: route, then one crossbar pass straight onto the
/// channels.
struct IqPipeline {
    xbar_latency: Tick,
    /// Whether the packet currently routed at each input has already sent
    /// its head through the crossbar (after which its route is frozen).
    route_started: Vec<bool>,
    xbar: Crossbar,
}

impl Pipeline for IqPipeline {
    fn cycle(&mut self, core: &mut RouterCore, ctx: &mut Context<'_, Ev>) {
        let tick = ctx.now().tick();
        if !core.route_heads(ctx, Some(&self.route_started)) {
            return;
        }
        // Switch allocation, one winner per output port, gated to the
        // channel rate.
        self.xbar.collect(core, tick, None);
        let mut progress = false;
        for out_port in 0..core.ports().radix {
            if core.link_busy(out_port, tick) {
                continue; // channel still serializing the previous flit
            }
            let Some(c) = self.xbar.pick(out_port, &mut core.metrics, ctx.rng()) else {
                continue;
            };
            let k = c.input_key as usize;
            if !core.forward(ctx, k, out_port, c.out_vc, self.xbar_latency) {
                return;
            }
            if c.is_tail {
                self.route_started[k] = false;
            } else if c.is_head {
                self.route_started[k] = true;
            }
            progress = true;
        }
        // Wake again only when something can change: progress plus pending
        // work re-arms the next edge; otherwise arriving flits or credits
        // re-arm via their events.
        if progress && core.inputs_pending() {
            core.wake_next_edge(ctx, tick);
        }
    }

    fn snapshot(&self, out: &mut Vec<u8>) {
        put_varint(out, self.route_started.len() as u64);
        out.extend(self.route_started.iter().map(|&b| u8::from(b)));
        self.xbar.save(out);
    }

    fn restore(&mut self, buf: &mut &[u8], _claims: &mut HandleClaims<'_>) -> Option<()> {
        let n = usize::try_from(get_varint(buf)?).ok()?;
        if n != self.route_started.len() {
            return None;
        }
        for b in &mut self.route_started {
            *b = match get_u8(buf)? {
                0 => false,
                1 => true,
                _ => return None,
            };
        }
        self.xbar.load(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{RouterPorts, RoutingFactory};
    use crate::congestion::CongestionGranularity;
    use crate::congestion::{CongestionSource, SensorConfig};
    use crate::testutil::{ring_links, TestNet};
    use supersim_des::{Simulator, Time};
    use supersim_netbase::RouterId;
    use supersim_netbase::TerminalId;

    /// Builds a 1-router "network": endpoint 0 -> router port 0 -> endpoint 1
    /// on router port 1, using a trivial static routing algorithm.
    fn one_router(fc: FlowControl, vcs: u32, input_buffer: u32, eject_buffer: u32) -> TestNet {
        TestNet::build(vcs, eject_buffer, move |ports, routing| {
            IqConfig {
                core: CoreConfig {
                    id: RouterId(0),
                    ports,
                    input_buffer,
                    core_period: 1,
                    link_period: 1,
                    sensor: SensorConfig {
                        source: CongestionSource::Downstream,
                        granularity: CongestionGranularity::Vc,
                        delay: 0,
                    },
                    routing,
                    fault: None,
                },
                xbar_latency: 2,
                flow_control: fc,
                arbiter: "round_robin".into(),
            }
            .build()
            .map(|r| Box::new(r) as _)
        })
    }

    #[test]
    fn delivers_a_single_flit_packet() {
        let mut net = one_router(FlowControl::FlitBuffer, 2, 4, 16);
        net.inject(0, TerminalId(1), 1, 0);
        let out = net.run();
        assert_eq!(out.delivered(1), 1);
        // Hop count incremented by the one router.
        assert_eq!(out.flits(1)[0].hops, 1);
    }

    #[test]
    fn delivers_multi_flit_packets_in_order() {
        let mut net = one_router(FlowControl::FlitBuffer, 2, 8, 32);
        net.inject(0, TerminalId(1), 5, 0);
        net.inject(0, TerminalId(1), 3, 10);
        let out = net.run();
        assert_eq!(out.delivered(1), 8);
        // In-order within packets is asserted by the endpoint's checker.
        assert!(out.outcome.is_ok(), "{:?}", out.outcome);
    }

    #[test]
    fn two_sources_share_one_output() {
        // Endpoints 0 and 2 both send to endpoint 1 through one router.
        let mut net = one_router(FlowControl::FlitBuffer, 2, 8, 64);
        for t in 0..8 {
            net.inject(0, TerminalId(1), 1, t * 2);
            net.inject(2, TerminalId(1), 1, t * 2);
        }
        let out = net.run();
        assert_eq!(out.delivered(1), 16);
    }

    #[test]
    fn packet_buffer_reserves_whole_packet() {
        // Ejection buffer of 4 flits; a 6-flit packet can never reserve
        // fully under PB and must never be granted; use a 4-flit packet.
        let mut net = one_router(FlowControl::PacketBuffer, 2, 8, 4);
        net.inject(0, TerminalId(1), 4, 0);
        let out = net.run();
        assert_eq!(out.delivered(1), 4);
    }

    #[test]
    fn wta_delivers_under_tight_credits() {
        let mut net = one_router(FlowControl::WinnerTakeAll, 2, 8, 2);
        net.inject(0, TerminalId(1), 6, 0);
        net.inject(2, TerminalId(1), 6, 1);
        let out = net.run();
        assert_eq!(out.delivered(1), 12);
    }

    #[test]
    fn credits_are_conserved() {
        let mut net = one_router(FlowControl::FlitBuffer, 2, 4, 16);
        for t in 0..10 {
            net.inject(0, TerminalId(1), 2, t * 3);
        }
        let out = net.run();
        assert_eq!(out.delivered(1), 20);
        // After draining, the router returned every input-buffer credit to
        // the endpoints.
        assert!(out.all_credits_home, "credits leaked");
    }

    #[test]
    fn ring_of_routers_delivers_across_hops() {
        // Three routers in a ring, each with one endpoint; traffic 0 -> 2
        // traverses two routers.
        let mut net = ring_links(3, |ports, routing| {
            IqConfig {
                core: CoreConfig {
                    id: RouterId(0),
                    ports,
                    input_buffer: 4,
                    core_period: 1,
                    link_period: 1,
                    sensor: SensorConfig {
                        source: CongestionSource::Downstream,
                        granularity: CongestionGranularity::Vc,
                        delay: 0,
                    },
                    routing,
                    fault: None,
                },
                xbar_latency: 1,
                flow_control: FlowControl::FlitBuffer,
                arbiter: "age_based".into(),
            }
            .build()
            .map(|r| Box::new(r) as _)
        });
        net.inject(0, TerminalId(2), 3, 0);
        net.inject(1, TerminalId(0), 2, 0);
        let out = net.run();
        assert_eq!(out.delivered(2), 3);
        assert_eq!(out.delivered(0), 2);
        assert_eq!(out.flits(2)[0].hops, 3); // 0 -> r0 -> r1 -> r2
    }

    #[test]
    fn rejects_flit_on_unknown_port() {
        let mut sim: Simulator<Ev> = Simulator::new(1);
        let ports = RouterPorts {
            radix: 2,
            vcs: 1,
            flit_links: vec![None, None],
            credit_links: vec![None, None],
            downstream_capacity: vec![4, 4],
        };
        let routing: RoutingFactory =
            Box::new(|_, _| Box::new(crate::testutil::StaticRouting::new(1, 1)));
        let r = IqConfig {
            core: CoreConfig {
                id: RouterId(0),
                ports,
                input_buffer: 4,
                core_period: 1,
                link_period: 1,
                sensor: SensorConfig {
                    source: CongestionSource::Downstream,
                    granularity: CongestionGranularity::Vc,
                    delay: 0,
                },
                routing,
                fault: None,
            },
            xbar_latency: 1,
            flow_control: FlowControl::FlitBuffer,
            arbiter: "round_robin".into(),
        }
        .build()
        .unwrap();
        let id = sim.add_component(Box::new(r));
        let flit = crate::testutil::test_flit(TerminalId(0), TerminalId(1), 1, 0);
        sim.schedule(id, Time::at(0), Ev::Flit { port: 9, flit });
        let stats = sim.run();
        assert!(!stats.outcome.is_ok());
    }

    #[test]
    fn rejects_buffer_overrun() {
        // Endpoint that ignores credits and floods the router.
        let mut net = one_router(FlowControl::FlitBuffer, 1, 2, 1);
        net.endpoint_ignores_credits(0);
        // Eject buffer 1 with slow draining keeps the router's input
        // backed up; flooding overruns it.
        for t in 0..32 {
            net.inject(0, TerminalId(1), 1, t);
        }
        let out = net.run();
        assert!(!out.outcome.is_ok(), "overrun not detected");
    }

    #[test]
    fn counters_track_activity() {
        let mut net = one_router(FlowControl::FlitBuffer, 2, 4, 16);
        net.inject(0, TerminalId(1), 4, 0);
        let out = net.run();
        let c = out.router_counters[0];
        assert_eq!(c.flits_in, 4);
        assert_eq!(c.flits_out, 4);
        assert!(c.cycles >= 4);
    }

    #[test]
    fn link_rate_is_respected() {
        // link_period 3: consecutive deliveries at least 3 ticks apart.
        let mut net = TestNet::build(1, 64, |ports, routing| {
            IqConfig {
                core: CoreConfig {
                    id: RouterId(0),
                    ports,
                    input_buffer: 16,
                    core_period: 1,
                    link_period: 3,
                    sensor: SensorConfig {
                        source: CongestionSource::Downstream,
                        granularity: CongestionGranularity::Vc,
                        delay: 0,
                    },
                    routing,
                    fault: None,
                },
                xbar_latency: 0,
                flow_control: FlowControl::FlitBuffer,
                arbiter: "round_robin".into(),
            }
            .build()
            .map(|r| Box::new(r) as _)
        });
        net.inject(0, TerminalId(1), 6, 0);
        let out = net.run();
        let times = out.arrival_ticks(1);
        assert!(times.windows(2).all(|w| w[1] - w[0] >= 3), "{times:?}");
    }
}
