//! Per-shard result snapshots: everything `run_report` reads out of the
//! network components, lifted into plain data.
//!
//! The single-process path extracts one [`ShardPartial`] covering every
//! component and assembles the report from it directly. The
//! multi-process path has each worker extract a partial covering only
//! its owned components, encode it with the compact wire format, and
//! ship it to the parent, which merges the partials by global component
//! index — so the assembly walks components in exactly the order the
//! in-process path does, and the report stays byte-identical.
//!
//! Everything in a partial is either integer data or built from
//! commutative integer merges (histograms, window aggregates, fault
//! counters), which is what makes the cross-process merge exact rather
//! than approximate.

use supersim_des::{ComponentId, Engine, Tick};
use supersim_netbase::{Ev, FaultCounters, Phase};
use supersim_router::Router;
use supersim_stats::snapshot::{get_hist, get_log, get_sampler, put_hist, put_log, put_sampler};
use supersim_stats::{ComponentSampler, Histogram, SampleLog};
use supersim_workload::{Interface, InterfaceCounters, SpanMetrics, SpanRecord, WorkloadMonitor};

/// Everything the report assembly reads from one interface component.
#[derive(Debug, Clone)]
pub(crate) struct InterfacePartial {
    pub flits_generating: Option<u64>,
    pub flits_finishing: Option<u64>,
    pub log: SampleLog,
    pub counters: InterfaceCounters,
    pub inject_stalls: u64,
    pub queue_depth_now: u64,
    pub queue_depth_high: u64,
    pub phase_latency: [Histogram; 4],
    pub spans: SpanMetrics,
    pub span_records: Vec<SpanRecord>,
    /// `(fault counters, flits parked in retransmission holds)`.
    pub fault: Option<(FaultCounters, u64)>,
    pub sampler: Option<ComponentSampler>,
}

/// Everything the report assembly reads from one router component.
#[derive(Debug, Clone)]
pub(crate) struct RouterPartial {
    /// `(grants, denials, credit_stalls, per-port occupancy gauges)`.
    pub metrics: (u64, u64, u64, Vec<(u64, u64)>),
    /// `(cycles, flits_advanced, arena live, arena high-water)`.
    pub profile: (u64, u64, u32, u32),
    pub fault: Option<(FaultCounters, u64)>,
    pub sampler: Option<ComponentSampler>,
    /// `(buffered flits, per-(port, vc) credit (available, capacity))`.
    pub occupancy: (u64, Vec<(u32, u32)>),
}

/// One shard's contribution to the run report: its owned interfaces and
/// routers by global index, plus the monitor's phase transitions when
/// this shard owns the monitor (shard 0).
#[derive(Debug, Clone, Default)]
pub(crate) struct ShardPartial {
    pub interfaces: Vec<(u32, InterfacePartial)>,
    pub routers: Vec<(u32, RouterPartial)>,
    pub phase_times: Option<Vec<(Phase, Tick)>>,
}

/// Reads the partial of every component the engine owns. On the
/// single-process engines that is every component; on a worker engine,
/// foreign components are absent and silently skipped.
pub(crate) fn extract_partial(
    engine: &dyn Engine<Ev>,
    interfaces: &[ComponentId],
    routers: &[ComponentId],
    monitor: ComponentId,
) -> ShardPartial {
    let mut partial = ShardPartial::default();
    for (t, &id) in interfaces.iter().enumerate() {
        let Some(iface) = engine.component_as::<Interface>(id) else {
            continue;
        };
        partial.interfaces.push((
            t as u32,
            InterfacePartial {
                flits_generating: iface.flits_at_phase(Phase::Generating),
                flits_finishing: iface.flits_at_phase(Phase::Finishing),
                log: iface.log.clone(),
                counters: iface.counters,
                inject_stalls: iface.metrics.inject_stalls.get(),
                queue_depth_now: iface.metrics.queue_depth.get(),
                queue_depth_high: iface.metrics.queue_depth.max(),
                phase_latency: iface.metrics.phase_latency,
                spans: iface.metrics.spans.clone(),
                span_records: iface.span_log.clone(),
                fault: iface.fault.as_ref().map(|f| (f.counters, f.held_flits())),
                sampler: iface.sampler.clone(),
            },
        ));
    }
    for (r, &id) in routers.iter().enumerate() {
        let Some(router) = engine.component_as::<Router>(id) else {
            continue;
        };
        let core = router.core();
        let m = &core.metrics;
        let (live, high) = core.arena_stats();
        partial.routers.push((
            r as u32,
            RouterPartial {
                metrics: (
                    m.grants.get(),
                    m.denials.get(),
                    m.credit_stalls.get(),
                    m.occupancy().iter().map(|g| (g.get(), g.max())).collect(),
                ),
                profile: (
                    core.counters.cycles,
                    core.counters.flits_advanced,
                    live,
                    high,
                ),
                fault: core.fault.as_ref().map(|f| (f.counters, f.held_flits())),
                sampler: core.sampler.clone(),
                occupancy: (router.buffered_flits(), core.credit_state()),
            },
        ));
    }
    partial.phase_times = engine
        .component_as::<WorkloadMonitor>(monitor)
        .map(|m| m.phase_times.clone());
    partial
}

// ---------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------
//
// Ad-hoc positional encoding over the engine's varint/byte primitives.
// Histograms, sampler rings, and sample logs use the stats crate's
// checkpoint codec; the helpers below cover the rest. `ShardPartial`
// itself gets inherent encode/decode used by the process backend.

use supersim_des::wire::{get_u8, get_varint, put_varint};

fn put_u32(out: &mut Vec<u8>, v: u32) {
    put_varint(out, u64::from(v));
}

fn get_u32(buf: &mut &[u8]) -> Option<u32> {
    u32::try_from(get_varint(buf)?).ok()
}

fn put_opt<T>(out: &mut Vec<u8>, v: &Option<T>, put: impl Fn(&mut Vec<u8>, &T)) {
    match v {
        None => out.push(0),
        Some(x) => {
            out.push(1);
            put(out, x);
        }
    }
}

fn get_opt<T>(buf: &mut &[u8], get: impl Fn(&mut &[u8]) -> Option<T>) -> Option<Option<T>> {
    match get_u8(buf)? {
        0 => Some(None),
        1 => Some(Some(get(buf)?)),
        _ => None,
    }
}

fn put_fault(out: &mut Vec<u8>, (c, held): &(FaultCounters, u64)) {
    put_varint(out, c.injected);
    put_varint(out, c.detected);
    put_varint(out, c.recovered);
    put_varint(out, c.escalated);
    put_varint(out, c.flit_clones);
    put_varint(out, *held);
}

fn get_fault(buf: &mut &[u8]) -> Option<(FaultCounters, u64)> {
    Some((
        FaultCounters {
            injected: get_varint(buf)?,
            detected: get_varint(buf)?,
            recovered: get_varint(buf)?,
            escalated: get_varint(buf)?,
            flit_clones: get_varint(buf)?,
        },
        get_varint(buf)?,
    ))
}

fn put_span_record(out: &mut Vec<u8>, r: &SpanRecord) {
    put_varint(out, r.packet);
    put_u32(out, r.src);
    put_u32(out, r.dst);
    put_varint(out, r.recv);
    let b = &r.breakdown;
    for v in [
        b.total,
        b.queueing,
        b.alloc,
        b.serialization,
        b.channel,
        b.credit,
        b.residual,
    ] {
        put_varint(out, v);
    }
}

fn get_span_record(buf: &mut &[u8]) -> Option<SpanRecord> {
    Some(SpanRecord {
        packet: get_varint(buf)?,
        src: get_u32(buf)?,
        dst: get_u32(buf)?,
        recv: get_varint(buf)?,
        breakdown: supersim_netbase::SpanBreakdown {
            total: get_varint(buf)?,
            queueing: get_varint(buf)?,
            alloc: get_varint(buf)?,
            serialization: get_varint(buf)?,
            channel: get_varint(buf)?,
            credit: get_varint(buf)?,
            residual: get_varint(buf)?,
        },
    })
}

fn put_iface(out: &mut Vec<u8>, p: &InterfacePartial) {
    put_opt(out, &p.flits_generating, |o, v| put_varint(o, *v));
    put_opt(out, &p.flits_finishing, |o, v| put_varint(o, *v));
    put_log(out, &p.log);
    let c = &p.counters;
    for v in [
        c.messages_sent,
        c.packets_sent,
        c.flits_queued,
        c.flits_sent,
        c.flits_received,
        c.messages_received,
    ] {
        put_varint(out, v);
    }
    put_varint(out, p.inject_stalls);
    put_varint(out, p.queue_depth_now);
    put_varint(out, p.queue_depth_high);
    for h in &p.phase_latency {
        put_hist(out, h);
    }
    for (_, h) in p.spans.named() {
        put_hist(out, h);
    }
    put_varint(out, p.span_records.len() as u64);
    for r in &p.span_records {
        put_span_record(out, r);
    }
    put_opt(out, &p.fault, put_fault);
    put_opt(out, &p.sampler, put_sampler);
}

fn get_iface(buf: &mut &[u8]) -> Option<InterfacePartial> {
    let flits_generating = get_opt(buf, get_varint)?;
    let flits_finishing = get_opt(buf, get_varint)?;
    let log = get_log(buf)?;
    let counters = InterfaceCounters {
        messages_sent: get_varint(buf)?,
        packets_sent: get_varint(buf)?,
        flits_queued: get_varint(buf)?,
        flits_sent: get_varint(buf)?,
        flits_received: get_varint(buf)?,
        messages_received: get_varint(buf)?,
    };
    let inject_stalls = get_varint(buf)?;
    let queue_depth_now = get_varint(buf)?;
    let queue_depth_high = get_varint(buf)?;
    let phase_latency = [
        get_hist(buf)?,
        get_hist(buf)?,
        get_hist(buf)?,
        get_hist(buf)?,
    ];
    let spans = SpanMetrics {
        total: get_hist(buf)?,
        queueing: get_hist(buf)?,
        alloc: get_hist(buf)?,
        serialization: get_hist(buf)?,
        channel: get_hist(buf)?,
        credit: get_hist(buf)?,
        residual: get_hist(buf)?,
    };
    let n_spans = get_varint(buf)?;
    let mut span_records = Vec::with_capacity(n_spans.min(4096) as usize);
    for _ in 0..n_spans {
        span_records.push(get_span_record(buf)?);
    }
    Some(InterfacePartial {
        flits_generating,
        flits_finishing,
        log,
        counters,
        inject_stalls,
        queue_depth_now,
        queue_depth_high,
        phase_latency,
        spans,
        span_records,
        fault: get_opt(buf, get_fault)?,
        sampler: get_opt(buf, get_sampler)?,
    })
}

fn put_router(out: &mut Vec<u8>, p: &RouterPartial) {
    let (grants, denials, credit_stalls, occ) = &p.metrics;
    for v in [*grants, *denials, *credit_stalls, occ.len() as u64] {
        put_varint(out, v);
    }
    for (v, m) in occ {
        put_varint(out, *v);
        put_varint(out, *m);
    }
    let (cycles, advanced, live, high) = p.profile;
    put_varint(out, cycles);
    put_varint(out, advanced);
    put_u32(out, live);
    put_u32(out, high);
    put_opt(out, &p.fault, put_fault);
    put_opt(out, &p.sampler, put_sampler);
    let (buffered, credits) = &p.occupancy;
    put_varint(out, *buffered);
    put_varint(out, credits.len() as u64);
    for (avail, cap) in credits {
        put_u32(out, *avail);
        put_u32(out, *cap);
    }
}

fn get_router(buf: &mut &[u8]) -> Option<RouterPartial> {
    let (grants, denials, credit_stalls) = (get_varint(buf)?, get_varint(buf)?, get_varint(buf)?);
    let n = get_varint(buf)?;
    let mut occ = Vec::with_capacity(n.min(1024) as usize);
    for _ in 0..n {
        occ.push((get_varint(buf)?, get_varint(buf)?));
    }
    let profile = (
        get_varint(buf)?,
        get_varint(buf)?,
        get_u32(buf)?,
        get_u32(buf)?,
    );
    let fault = get_opt(buf, get_fault)?;
    let sampler = get_opt(buf, get_sampler)?;
    let buffered = get_varint(buf)?;
    let n = get_varint(buf)?;
    let mut credits = Vec::with_capacity(n.min(4096) as usize);
    for _ in 0..n {
        credits.push((get_u32(buf)?, get_u32(buf)?));
    }
    Some(RouterPartial {
        metrics: (grants, denials, credit_stalls, occ),
        profile,
        fault,
        sampler,
        occupancy: (buffered, credits),
    })
}

impl ShardPartial {
    /// Appends the wire encoding of this partial to `out`.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.interfaces.len() as u64);
        for (idx, p) in &self.interfaces {
            put_u32(out, *idx);
            put_iface(out, p);
        }
        put_varint(out, self.routers.len() as u64);
        for (idx, p) in &self.routers {
            put_u32(out, *idx);
            put_router(out, p);
        }
        put_opt(out, &self.phase_times, |o, pt| {
            put_varint(o, pt.len() as u64);
            for (phase, tick) in pt {
                o.push(phase.index() as u8);
                put_varint(o, *tick);
            }
        });
    }

    /// Decodes a partial; `None` on any malformed input (decoding is
    /// total — hostile bytes never panic).
    pub(crate) fn decode(buf: &mut &[u8]) -> Option<Self> {
        let n_ifaces = get_varint(buf)?;
        let mut interfaces = Vec::with_capacity(n_ifaces.min(4096) as usize);
        for _ in 0..n_ifaces {
            let idx = get_u32(buf)?;
            interfaces.push((idx, get_iface(buf)?));
        }
        let n_routers = get_varint(buf)?;
        let mut routers = Vec::with_capacity(n_routers.min(4096) as usize);
        for _ in 0..n_routers {
            let idx = get_u32(buf)?;
            routers.push((idx, get_router(buf)?));
        }
        let phase_times = get_opt(buf, |b| {
            let n = get_varint(b)?;
            let mut pt = Vec::with_capacity(n.min(16) as usize);
            for _ in 0..n {
                let phase = *Phase::ALL.get(get_u8(b)? as usize)?;
                pt.push((phase, get_varint(b)?));
            }
            Some(pt)
        })?;
        Some(ShardPartial {
            interfaces,
            routers,
            phase_times,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supersim_des::Rng;
    use supersim_netbase::SpanBreakdown;
    use supersim_stats::metrics::HIST_BUCKETS;
    use supersim_stats::{intern_series, RecordKind, SampleRecord, WindowAggregate, WindowSample};

    fn rand_hist(rng: &mut Rng) -> Histogram {
        let mut buckets = [0u64; HIST_BUCKETS];
        let mut count = 0u64;
        let mut sum = 0u64;
        for b in &mut buckets {
            if rng.gen_bool(0.3) {
                *b = rng.gen_u64() >> 48;
                count += *b;
                sum += (rng.gen_u64() >> 40).wrapping_mul(*b);
            }
        }
        Histogram::from_log2_counts(&buckets, count, sum)
    }

    fn rand_sampler(rng: &mut Rng) -> ComponentSampler {
        let capacity = 1 + (rng.gen_u64() as usize % 4);
        let n = rng.gen_u64() as usize % (capacity + 1);
        let windows = (0..n)
            .map(|w| WindowSample {
                edge: (w as u64 + 1) * 100,
                scalars: (0..rng.gen_u64() % 3)
                    .map(|s| (intern_series(&format!("scalar_{s}")), rng.gen_u64() >> 8))
                    .collect(),
                dists: (0..rng.gen_u64() % 3)
                    .map(|d| {
                        let agg = WindowAggregate::from_parts(rand_hist(rng), rng.gen_u64() >> 32);
                        (intern_series(&format!("dist_{d}")), agg)
                    })
                    .collect(),
            })
            .collect();
        ComponentSampler::from_parts(capacity, windows, rng.gen_u64() >> 56)
    }

    fn rand_record(rng: &mut Rng) -> SampleRecord {
        SampleRecord {
            kind: [
                RecordKind::Packet,
                RecordKind::Message,
                RecordKind::Transaction,
            ][(rng.gen_u64() % 3) as usize],
            app: rng.gen_u64() as u8,
            src: rng.gen_u64() as u32,
            dst: rng.gen_u64() as u32,
            send: rng.gen_u64() >> 16,
            recv: rng.gen_u64() >> 16,
            hops: rng.gen_u64() as u16,
            size: rng.gen_u64() as u32,
        }
    }

    fn rand_span_record(rng: &mut Rng) -> SpanRecord {
        SpanRecord {
            packet: rng.gen_u64() >> 8,
            src: rng.gen_u64() as u32,
            dst: rng.gen_u64() as u32,
            recv: rng.gen_u64() >> 16,
            breakdown: SpanBreakdown {
                total: rng.gen_u64() >> 32,
                queueing: rng.gen_u64() >> 40,
                alloc: rng.gen_u64() >> 40,
                serialization: rng.gen_u64() >> 40,
                channel: rng.gen_u64() >> 40,
                credit: rng.gen_u64() >> 40,
                residual: rng.gen_u64() >> 40,
            },
        }
    }

    fn rand_fault(rng: &mut Rng) -> (FaultCounters, u64) {
        (
            FaultCounters {
                injected: rng.gen_u64() >> 40,
                detected: rng.gen_u64() >> 40,
                recovered: rng.gen_u64() >> 40,
                escalated: rng.gen_u64() >> 40,
                flit_clones: rng.gen_u64() >> 40,
            },
            rng.gen_u64() >> 48,
        )
    }

    fn rand_iface(rng: &mut Rng) -> InterfacePartial {
        let mut log = SampleLog::new();
        for _ in 0..rng.gen_u64() % 5 {
            log.push(rand_record(rng));
        }
        InterfacePartial {
            flits_generating: rng.gen_bool(0.5).then(|| rng.gen_u64() >> 32),
            flits_finishing: rng.gen_bool(0.5).then(|| rng.gen_u64() >> 32),
            log,
            counters: InterfaceCounters {
                messages_sent: rng.gen_u64() >> 24,
                packets_sent: rng.gen_u64() >> 24,
                flits_queued: rng.gen_u64() >> 24,
                flits_sent: rng.gen_u64() >> 24,
                flits_received: rng.gen_u64() >> 24,
                messages_received: rng.gen_u64() >> 24,
            },
            inject_stalls: rng.gen_u64() >> 32,
            queue_depth_now: rng.gen_u64() >> 48,
            queue_depth_high: rng.gen_u64() >> 48,
            phase_latency: [
                rand_hist(rng),
                rand_hist(rng),
                rand_hist(rng),
                rand_hist(rng),
            ],
            spans: SpanMetrics {
                total: rand_hist(rng),
                queueing: rand_hist(rng),
                alloc: rand_hist(rng),
                serialization: rand_hist(rng),
                channel: rand_hist(rng),
                credit: rand_hist(rng),
                residual: rand_hist(rng),
            },
            span_records: (0..rng.gen_u64() % 4)
                .map(|_| rand_span_record(rng))
                .collect(),
            fault: rng.gen_bool(0.5).then(|| rand_fault(rng)),
            sampler: rng.gen_bool(0.5).then(|| rand_sampler(rng)),
        }
    }

    fn rand_router(rng: &mut Rng) -> RouterPartial {
        RouterPartial {
            metrics: (
                rng.gen_u64() >> 24,
                rng.gen_u64() >> 24,
                rng.gen_u64() >> 24,
                (0..rng.gen_u64() % 6)
                    .map(|_| (rng.gen_u64() >> 48, rng.gen_u64() >> 48))
                    .collect(),
            ),
            profile: (
                rng.gen_u64() >> 16,
                rng.gen_u64() >> 16,
                rng.gen_u64() as u32,
                rng.gen_u64() as u32,
            ),
            fault: rng.gen_bool(0.5).then(|| rand_fault(rng)),
            sampler: rng.gen_bool(0.5).then(|| rand_sampler(rng)),
            occupancy: (
                rng.gen_u64() >> 40,
                (0..rng.gen_u64() % 8)
                    .map(|_| (rng.gen_u64() as u32 % 64, rng.gen_u64() as u32 % 64))
                    .collect(),
            ),
        }
    }

    fn rand_partial(rng: &mut Rng) -> ShardPartial {
        ShardPartial {
            interfaces: (0..rng.gen_u64() % 4)
                .map(|i| (i as u32 * 3, rand_iface(rng)))
                .collect(),
            routers: (0..rng.gen_u64() % 4)
                .map(|i| (i as u32 * 2 + 1, rand_router(rng)))
                .collect(),
            phase_times: rng.gen_bool(0.7).then(|| {
                Phase::ALL
                    .iter()
                    .take(1 + (rng.gen_u64() % 4) as usize)
                    .map(|&p| (p, rng.gen_u64() >> 24))
                    .collect()
            }),
        }
    }

    /// Randomized round-trip. The codec has no `PartialEq` across every
    /// nested stats type, but the encoding is deterministic and positional,
    /// so `encode ∘ decode ∘ encode = encode` is an exact equality check.
    #[test]
    fn shard_partial_round_trips() {
        let mut rng = Rng::new(0x51AB_DA7A);
        for _ in 0..60 {
            let partial = rand_partial(&mut rng);
            let mut buf = Vec::new();
            partial.encode(&mut buf);
            let mut slice = buf.as_slice();
            let back = ShardPartial::decode(&mut slice).expect("decode");
            assert!(slice.is_empty(), "decode must consume the encoding");
            let mut buf2 = Vec::new();
            back.encode(&mut buf2);
            assert_eq!(buf, buf2, "re-encoding diverged from the original");
        }
    }

    /// Hostile input: random byte soup must never panic the decoder — a
    /// misbehaving worker process yields `None`, which the parent turns
    /// into a typed degrade, not a crash.
    #[test]
    fn decode_is_total_on_garbage() {
        let mut rng = Rng::new(0xBAD_F00D);
        for _ in 0..300 {
            let len = (rng.gen_u64() % 128) as usize;
            let bytes: Vec<u8> = (0..len).map(|_| rng.gen_u64() as u8).collect();
            let _ = ShardPartial::decode(&mut bytes.as_slice());
        }
    }

    /// A valid encoding cut off at every possible length (the shape a
    /// worker killed mid-send produces) must decode to `None`, never
    /// panic or fabricate data.
    #[test]
    fn decode_is_total_on_truncation() {
        let mut rng = Rng::new(0x7123_4CA7);
        let mut buf = Vec::new();
        loop {
            let partial = rand_partial(&mut rng);
            buf.clear();
            partial.encode(&mut buf);
            if buf.len() > 64 {
                break;
            }
        }
        for cut in 0..buf.len() {
            assert!(
                ShardPartial::decode(&mut &buf[..cut]).is_none(),
                "truncated encoding ({cut}/{} bytes) decoded successfully",
                buf.len()
            );
        }
        assert!(ShardPartial::decode(&mut buf.as_slice()).is_some());
    }
}
