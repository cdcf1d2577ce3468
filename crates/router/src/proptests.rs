//! Randomized property tests: random traffic through each router
//! microarchitecture preserves every invariant the paper's §IV-D error
//! detection guards — in-order delivery per packet (checked inside the
//! test endpoints), flit conservation, credit conservation, and one hop
//! per router traversed.
//!
//! Cases come from the in-tree seeded [`Rng`], so every failure names
//! the architecture and case seed that reproduce it.

use supersim_des::Rng;
use supersim_netbase::{RouterId, TerminalId};

use crate::congestion::{CongestionGranularity, CongestionSource, SensorConfig};
use crate::ioq::IoqConfig;
use crate::iq::IqConfig;
use crate::oq::OqConfig;
use crate::router::CoreConfig;
use crate::testutil::{TestNet, TestOutput};
use crate::xbar_sched::FlowControl;

/// Random cases per architecture variant and property.
const CASES: u64 = 48;

#[derive(Debug, Clone)]
struct Injection {
    src: usize,
    dst: u32,
    size: u32,
    tick: u64,
}

/// 1..40 injections, each from one of the three star endpoints to a
/// different one, 1..6 flits, released at tick 0..120.
fn random_injections(rng: &mut Rng) -> Vec<Injection> {
    let n = rng.gen_range(1..40usize);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let src = rng.gen_range(0..3usize);
        let dst = rng.gen_range(0..3u32);
        let size = rng.gen_range(1..6u32);
        let tick = rng.gen_range(0..120u64);
        if src != dst as usize {
            out.push(Injection {
                src,
                dst,
                size,
                tick,
            });
        }
    }
    out
}

fn sensor() -> SensorConfig {
    SensorConfig {
        source: CongestionSource::Downstream,
        granularity: CongestionGranularity::Vc,
        delay: 0,
    }
}

#[derive(Debug, Clone, Copy)]
enum Arch {
    Iq(FlowControl),
    Oq { finite: Option<u32> },
    Ioq(FlowControl),
}

const FLOW_CONTROLS: [FlowControl; 3] = [
    FlowControl::FlitBuffer,
    FlowControl::PacketBuffer,
    FlowControl::WinnerTakeAll,
];

/// All nine variants: IQ × {FB, PB, WTA}, OQ × {∞, 2, 8}, IOQ × {FB, PB,
/// WTA}.
fn all_archs() -> Vec<Arch> {
    let mut archs: Vec<Arch> = FLOW_CONTROLS.iter().map(|&fc| Arch::Iq(fc)).collect();
    archs.extend([None, Some(2), Some(8)].map(|finite| Arch::Oq { finite }));
    archs.extend(FLOW_CONTROLS.iter().map(|&fc| Arch::Ioq(fc)));
    archs
}

fn build_net(arch: Arch, vcs: u32, eject: u32) -> TestNet {
    match arch {
        Arch::Iq(fc) => TestNet::build(vcs, eject, move |ports, routing| {
            IqConfig {
                core: CoreConfig {
                    id: RouterId(0),
                    ports,
                    input_buffer: 6,
                    core_period: 1,
                    link_period: 1,
                    sensor: sensor(),
                    routing,
                    fault: None,
                },
                xbar_latency: 1,
                flow_control: fc,
                arbiter: "age_based".into(),
            }
            .build()
            .map(|r| Box::new(r) as _)
        }),
        Arch::Oq { finite } => TestNet::build(vcs, eject, move |ports, routing| {
            OqConfig {
                core: CoreConfig {
                    id: RouterId(0),
                    ports,
                    input_buffer: 6,
                    core_period: 1,
                    link_period: 1,
                    sensor: sensor(),
                    routing,
                    fault: None,
                },
                output_queue: finite,
                core_latency: 2,
            }
            .build()
            .map(|r| Box::new(r) as _)
        }),
        Arch::Ioq(fc) => TestNet::build(vcs, eject, move |ports, routing| {
            IoqConfig {
                core: CoreConfig {
                    id: RouterId(0),
                    ports,
                    input_buffer: 6,
                    core_period: 1,
                    link_period: 2,
                    sensor: sensor(),
                    routing,
                    fault: None,
                },
                output_queue: 8,
                xbar_latency: 1,
                flow_control: fc,
                arbiter: "round_robin".into(),
            }
            .build()
            .map(|r| Box::new(r) as _)
        }),
    }
}

/// Runs `check` on [`CASES`] random injection schedules through every
/// architecture variant. Each case gets its own seed, printed on failure.
fn for_each_case(base_seed: u64, check: impl Fn(&str, &[Injection], TestOutput)) {
    for (a, arch) in all_archs().into_iter().enumerate() {
        for case in 0..CASES {
            let seed = base_seed ^ ((a as u64) << 32) ^ case;
            let injections = random_injections(&mut Rng::new(seed));
            // PB needs the eject buffer to fit the largest packet.
            let mut net = build_net(arch, 2, 8);
            for inj in &injections {
                net.inject(inj.src, TerminalId(inj.dst), inj.size, inj.tick);
            }
            let at = format!("{arch:?} case {case} (seed {seed:#x})");
            check(&at, &injections, net.run());
        }
    }
}

/// Any random injection schedule drains completely: every flit of every
/// packet arrives (in order — the endpoints' DeliveryChecker fails the
/// run otherwise) and every credit returns home.
#[test]
fn random_traffic_conserves_flits_and_credits() {
    for_each_case(0xC0_5E4E, |at, injections, out| {
        assert!(out.outcome.is_ok(), "{at}: run failed: {:?}", out.outcome);
        let mut expected = [0usize; 3];
        for inj in injections {
            expected[inj.dst as usize] += inj.size as usize;
        }
        for (dst, &want) in expected.iter().enumerate() {
            assert_eq!(
                out.delivered(dst),
                want,
                "{at}: wrong delivery count at endpoint {dst}"
            );
        }
        assert!(out.all_credits_home, "{at}: credits leaked");
    });
}

/// Hop counts: the star router is one hop; every delivered flit says so.
#[test]
fn hops_increment_exactly_once_through_one_router() {
    for_each_case(0x4095, |at, _, out| {
        assert!(out.outcome.is_ok(), "{at}: run failed: {:?}", out.outcome);
        for dst in 0..3 {
            for f in out.flits(dst) {
                assert_eq!(f.hops, 1, "{at}: flit to endpoint {dst}");
            }
        }
    });
}
