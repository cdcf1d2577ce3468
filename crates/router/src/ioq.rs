//! The input-output-queued (IOQ) router microarchitecture (paper §IV-C,
//! Figure 6).
//!
//! The standard input-queued architecture extended as a combined
//! input/output queued switch: flits wait in the input queues only until
//! credits are available for the *output queues*; after arriving in the
//! output queues they wait for downstream (next hop) credits. The switch
//! core typically runs at a frequency speedup over the links (2× in case
//! study B), configured here as a core period smaller than the link
//! period.

use supersim_des::{Context, Tick};
use supersim_netbase::Ev;
use supersim_topology::RouteChoice;

use crate::common::RouterError;
use crate::router::{CoreConfig, Pipeline, Router, RouterCore};
use crate::snapshot::HandleClaims;
use crate::stages::{Crossbar, OutputQueues};
use crate::xbar_sched::FlowControl;

/// Configuration of an input-output-queued router.
pub struct IoqConfig {
    /// The configuration every architecture shares; case study B sweeps
    /// the sensor's source and granularity.
    pub core: CoreConfig,
    /// Output queue depth in flits per (port, VC).
    pub output_queue: u32,
    /// Crossbar traversal latency in ticks.
    pub xbar_latency: Tick,
    /// Crossbar scheduling flow control technique (input stage).
    pub flow_control: FlowControl,
    /// Arbiter policy for the crossbar schedulers.
    pub arbiter: String,
}

impl IoqConfig {
    /// Builds an `ioq_router_<id>`.
    ///
    /// # Errors
    ///
    /// Returns a [`RouterError`] on inconsistent port tables, zero
    /// periods, or a zero-capacity output queue.
    pub fn build(self) -> Result<Router, RouterError> {
        if self.output_queue == 0 {
            return Err(RouterError::new("output queues need capacity > 0"));
        }
        let core = RouterCore::new("ioq", self.core)?;
        let (radix, vcs) = (core.ports().radix, core.ports().vcs);
        let pipeline = IoqPipeline {
            xbar_latency: self.xbar_latency,
            xbar: Crossbar::new(radix, vcs, self.flow_control, &self.arbiter),
            oq: OutputQueues::new(radix, vcs, Some(self.output_queue)),
        };
        Ok(Router::new(core, Box::new(pipeline)))
    }
}

/// The IOQ pipeline: route, cross the crossbar into the output queues
/// (judged against queue space), drain at the link rate.
struct IoqPipeline {
    xbar_latency: Tick,
    /// Input-stage crossbar schedulers per output port (enforce VC
    /// ownership and the flow control technique against OQ space).
    xbar: Crossbar,
    oq: OutputQueues,
}

impl IoqPipeline {
    /// Input stage: per core cycle, each output port accepts at most one
    /// flit into its output queues.
    fn inputs_to_queues(&mut self, core: &mut RouterCore, ctx: &mut Context<'_, Ev>) -> bool {
        let tick = ctx.now().tick();
        let mut progress = false;
        self.xbar.collect(core, tick, self.oq.free.as_deref());
        for out_port in 0..core.ports().radix {
            let Some(c) = self.xbar.pick(out_port, &mut core.metrics, ctx.rng()) else {
                continue;
            };
            let route = RouteChoice {
                port: out_port,
                vc: c.out_vc,
            };
            self.oq
                .admit(core, ctx, c.input_key as usize, route, self.xbar_latency);
            progress = true;
        }
        progress
    }
}

impl Pipeline for IoqPipeline {
    fn cycle(&mut self, core: &mut RouterCore, ctx: &mut Context<'_, Ev>) {
        let tick = ctx.now().tick();
        if !core.route_heads(ctx, None) {
            return;
        }
        let moved_in = self.inputs_to_queues(core, ctx);
        let moved_out = self.oq.drain(core, ctx);
        let work_pending = core.inputs_pending() || !self.oq.is_empty();
        if (moved_in || moved_out) && work_pending {
            core.wake_next_edge(ctx, tick);
        } else if work_pending {
            // Wake for in-flight crossbar transits and, while flits wait
            // in the output queues, for the link-rate gate re-opening.
            let ready = self.oq.next_ready(tick);
            let gate = if self.oq.is_empty() {
                None
            } else {
                core.next_link_free(tick)
            };
            if let Some(w) = ready.into_iter().chain(gate).min() {
                core.wake_at(ctx, w);
            }
        }
    }

    fn buffered(&self) -> u64 {
        self.oq.len()
    }

    fn snapshot(&self, out: &mut Vec<u8>) {
        self.oq.save(out);
        self.xbar.save(out);
    }

    fn restore(&mut self, buf: &mut &[u8], claims: &mut HandleClaims<'_>) -> Option<()> {
        self.oq.load(buf, claims)?;
        self.xbar.load(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{RouterPorts, RoutingFactory};
    use crate::congestion::CongestionGranularity;
    use crate::congestion::{CongestionSource, SensorConfig};
    use crate::testutil::TestNet;
    use supersim_netbase::RouterId;
    use supersim_netbase::TerminalId;

    fn ioq_net(fc: FlowControl, core_period: Tick, oq_cap: u32, eject: u32) -> TestNet {
        TestNet::build(2, eject, move |ports, routing| {
            IoqConfig {
                core: CoreConfig {
                    id: RouterId(0),
                    ports,
                    input_buffer: 8,
                    core_period,
                    link_period: 2,
                    sensor: SensorConfig {
                        source: CongestionSource::Both,
                        granularity: CongestionGranularity::Vc,
                        delay: 0,
                    },
                    routing,
                    fault: None,
                },
                output_queue: oq_cap,
                xbar_latency: 1,
                flow_control: fc,
                arbiter: "round_robin".into(),
            }
            .build()
            .map(|r| Box::new(r) as _)
        })
    }

    #[test]
    fn delivers_basic_traffic() {
        let mut net = ioq_net(FlowControl::FlitBuffer, 1, 8, 16);
        net.inject(0, TerminalId(1), 4, 0);
        net.inject(2, TerminalId(1), 2, 1);
        let out = net.run();
        assert!(out.outcome.is_ok(), "{:?}", out.outcome);
        assert_eq!(out.delivered(1), 6);
        assert!(out.all_credits_home);
    }

    #[test]
    fn respects_link_rate_with_core_speedup() {
        // Core at 2x the link: flits cross the crossbar quickly but leave
        // at most one per 2 ticks per port.
        let mut net = ioq_net(FlowControl::FlitBuffer, 1, 16, 64);
        net.inject(0, TerminalId(1), 8, 0);
        let out = net.run();
        let times = out.arrival_ticks(1);
        assert_eq!(times.len(), 8);
        assert!(times.windows(2).all(|w| w[1] - w[0] >= 2), "{times:?}");
    }

    #[test]
    fn small_output_queues_backpressure_without_loss() {
        let mut net = ioq_net(FlowControl::FlitBuffer, 1, 1, 2);
        for t in 0..6 {
            net.inject(0, TerminalId(1), 2, t * 2);
        }
        let out = net.run();
        assert!(out.outcome.is_ok(), "{:?}", out.outcome);
        assert_eq!(out.delivered(1), 12);
        assert!(out.all_credits_home);
    }

    #[test]
    fn packet_buffer_reserves_output_queue_space() {
        // PB against the OQ: a 4-flit packet needs 4 free OQ slots.
        let mut net = ioq_net(FlowControl::PacketBuffer, 1, 4, 16);
        net.inject(0, TerminalId(1), 4, 0);
        net.inject(2, TerminalId(1), 4, 0);
        let out = net.run();
        assert!(out.outcome.is_ok(), "{:?}", out.outcome);
        assert_eq!(out.delivered(1), 8);
    }

    #[test]
    fn winner_take_all_delivers() {
        let mut net = ioq_net(FlowControl::WinnerTakeAll, 1, 2, 4);
        net.inject(0, TerminalId(1), 5, 0);
        net.inject(2, TerminalId(1), 5, 0);
        let out = net.run();
        assert!(out.outcome.is_ok(), "{:?}", out.outcome);
        assert_eq!(out.delivered(1), 10);
    }

    #[test]
    fn vcs_interleave_through_output_queues() {
        // Two packets on different input ports with 2 VCs available; the
        // star routing puts both on VC 0, so this exercises ownership
        // serialization through the OQ and in-order delivery.
        let mut net = ioq_net(FlowControl::FlitBuffer, 1, 8, 32);
        for t in 0..4 {
            net.inject(0, TerminalId(1), 3, t * 4);
            net.inject(2, TerminalId(1), 3, t * 4 + 1);
        }
        let out = net.run();
        assert!(out.outcome.is_ok(), "{:?}", out.outcome);
        assert_eq!(out.delivered(1), 24);
    }

    #[test]
    fn rejects_zero_output_queue() {
        let ports = RouterPorts {
            radix: 1,
            vcs: 1,
            flit_links: vec![None],
            credit_links: vec![None],
            downstream_capacity: vec![1],
        };
        let routing: RoutingFactory =
            Box::new(|_, _| Box::new(crate::testutil::StaticRouting::new(1, 1)));
        assert!(IoqConfig {
            core: CoreConfig {
                id: RouterId(0),
                ports,
                input_buffer: 1,
                core_period: 1,
                link_period: 1,
                sensor: SensorConfig {
                    source: CongestionSource::Both,
                    granularity: CongestionGranularity::Vc,
                    delay: 0,
                },
                routing,
                fault: None,
            },
            output_queue: 0,
            xbar_latency: 0,
            flow_control: FlowControl::FlitBuffer,
            arbiter: "round_robin".into(),
        }
        .build()
        .is_err());
    }
}
