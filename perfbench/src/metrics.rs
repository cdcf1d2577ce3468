//! Metric names, and how each is derived from the runs' records.
//!
//! End-to-end metrics come from untraced runs. Per-layer metrics come
//! from the traced runs of the same invocation (same workload, same
//! seed); the host-time breakdown of each backend is taken from one
//! traced run, the one with the median `run_s`, so that
//!
//! ```text
//! traced_run_s = core.assemble_s + core.checkpoint_write_s
//!              + des.drain_s + des.execute_s + stats.sample_edge_s
//!              + des.fold_s + des.exchange_s + des.unattributed_s
//! ```
//!
//! holds exactly for every backend. Phase times of the program's host
//! plane are sums over shards; they are divided by the shard count here,
//! so each reads as the wall time one shard spent in that phase.

use std::collections::BTreeMap;

use crate::workload::Backend;

/// One metric's name, unit, and which direction is better.
pub struct Spec {
    /// Metric name, as printed.
    pub name: String,
    /// Unit, as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

fn spec(name: impl Into<String>, unit: &'static str, better: &'static str) -> Spec {
    Spec {
        name: name.into(),
        unit,
        better,
    }
}

/// The parallel backends, where round, fold and exchange metrics exist.
const PARALLEL: [Backend; 2] = [Backend::Sharded2, Backend::Workers2];

/// The backends whose wall time and memory are end-to-end metrics. The
/// worker fleet's wall time swings with the host's scheduling of its
/// three processes on two CPUs by more than any bound a gate may use,
/// so `run_s.workers2` is reported with the per-layer metrics instead.
const GATED: [Backend; 2] = [Backend::Seq, Backend::Sharded2];

/// The end-to-end metrics, printed with `--trace 0`.
pub fn end_to_end() -> Vec<Spec> {
    let mut v = vec![spec("setup_s", "s", "lower")];
    for b in GATED {
        v.push(spec(format!("run_s.{}", b.name()), "s", "lower"));
    }
    for b in GATED {
        v.push(spec(format!("peak_rss_mb.{}", b.name()), "MB", "lower"));
    }
    v
}

/// The per-layer metrics, printed with `--trace 1`.
pub fn per_layer() -> Vec<Spec> {
    let per = |v: &mut Vec<Spec>, stem: &str, unit, better, backends: &[Backend]| {
        for b in backends {
            v.push(spec(format!("{stem}.{}", b.name()), unit, better));
        }
    };
    let all = &Backend::ALL;
    let mut v = vec![
        spec("config.load_s", "s", "lower"),
        spec("scenario.compile_s", "s", "lower"),
        spec("core.build_s", "s", "lower"),
        spec("topology.cut_links", "count", "lower"),
        spec("des.events", "count", "lower"),
    ];
    v.push(spec("run_s.workers2", "s", "lower"));
    per(&mut v, "host.steal_s", "s", "lower", all);
    per(&mut v, "traced_run_s", "s", "lower", all);
    per(&mut v, "des.ns_per_event", "ns/event", "lower", all);
    per(&mut v, "des.rounds", "count", "lower", all);
    per(
        &mut v,
        "des.events_per_round",
        "events/round",
        "higher",
        all,
    );
    per(&mut v, "des.drain_s", "s", "lower", all);
    per(&mut v, "des.execute_s", "s", "lower", all);
    per(&mut v, "des.fold_s", "s", "lower", all);
    per(&mut v, "des.exchange_s", "s", "lower", all);
    per(&mut v, "des.barrier_wait_frac", "frac", "lower", &PARALLEL);
    per(&mut v, "des.execute_imbalance", "ratio", "lower", &PARALLEL);
    v.push(spec(
        "des.wire_bytes_per_event.workers2",
        "B/event",
        "lower",
    ));
    v.push(spec("des.hub_fold_s.workers2", "s", "lower"));
    per(&mut v, "des.unattributed_s", "s", "lower", all);
    v.push(spec("router.ns_per_event.seq", "ns/event", "lower"));
    v.push(spec("router.cycles", "count", "lower"));
    v.push(spec("router.flits_per_cycle", "flits/cycle", "higher"));
    v.push(spec("router.flit_clones", "count", "lower"));
    v.push(spec("netbase.arena_high_water", "count", "lower"));
    v.push(spec(
        "workload.interface_ns_per_event.seq",
        "ns/event",
        "lower",
    ));
    v.push(spec("workload.interface_events", "count", "lower"));
    per(&mut v, "stats.sample_edge_s", "s", "lower", all);
    per(&mut v, "core.assemble_s", "s", "lower", all);
    per(&mut v, "core.checkpoint_write_s", "s", "lower", all);
    v.push(spec("core.checkpoint_bytes", "B", "lower"));
    per(&mut v, "tracing_overhead_s", "s", "lower", all);
    v
}

/// What one `__run` child reported.
#[derive(Debug, Clone)]
pub struct Record {
    /// Whether `RunReport::is_ok`.
    pub ok: bool,
    /// The run's error, empty when ok.
    pub error: String,
    /// Sampled packets delivered.
    pub delivered: u64,
    /// Events executed.
    pub events: u64,
    /// Digest of the pinned outputs.
    pub digest: String,
    /// Peak resident set of the child, KiB.
    pub rss_kb: u64,
    /// Offset of the configuration load from the child's start, ns.
    pub gen_start: u64,
    /// Config load, ns.
    pub load_ns: u64,
    /// Scenario compile, ns (0 when bypassed).
    pub compile_ns: u64,
    /// Offset of `SuperSim::from_config`, ns.
    pub build_start: u64,
    /// `SuperSim::from_config`, ns.
    pub build_ns: u64,
    /// Topology links cut by the two-shard partition.
    pub cut_links: u64,
    /// Offset of `run_report`, ns.
    pub run_start: u64,
    /// `run_report` until it returned the `RunOutput`, ns.
    pub run_ns: u64,
    /// Clock ticks the hypervisor stole from the machine's CPUs during
    /// `run_report`.
    pub steal: u64,
    /// `<plane>/<metric>` counters of the host, profile and fault
    /// planes (gauges by their maximum).
    pub m: BTreeMap<String, u64>,
}

impl Record {
    /// Parses the child's JSON line.
    pub fn parse(line: &str) -> Option<Record> {
        let v = supersim_config::parse(line).ok()?;
        let u = |k: &str| v.get(k).and_then(|x| x.as_u64());
        let m = v
            .get("m")?
            .as_object()?
            .iter()
            .filter_map(|(k, x)| Some((k.clone(), x.as_u64()?)))
            .collect();
        Some(Record {
            ok: v.get("ok")?.as_bool()?,
            error: v.get("error")?.as_str()?.to_string(),
            delivered: u("delivered")?,
            events: u("events")?,
            digest: v.get("digest")?.as_str()?.to_string(),
            rss_kb: u("rss_kb")?,
            gen_start: u("gen_start")?,
            load_ns: u("load_ns")?,
            compile_ns: u("compile_ns")?,
            build_start: u("build_start")?,
            build_ns: u("build_ns")?,
            cut_links: u("cut_links")?,
            run_start: u("run_start")?,
            run_ns: u("run_ns")?,
            steal: u("steal")?,
            m,
        })
    }

    /// A host/profile/fault counter, 0 when the plane did not report it.
    fn get(&self, key: &str) -> u64 {
        self.m.get(key).copied().unwrap_or(0)
    }

    /// Sum of `<name>` over the `host_shard_<s>` planes.
    fn shard_sum(&self, name: &str) -> u64 {
        self.m
            .iter()
            .filter(|(k, _)| k.starts_with("host_shard_") && k.ends_with(&format!("/{name}")))
            .map(|(_, v)| *v)
            .sum()
    }

    /// `run_report` time, seconds.
    pub fn run_s(&self) -> f64 {
        secs(self.run_ns)
    }
}

/// Clock ticks per second in `/proc/stat` (`USER_HZ`).
const TICKS_PER_S: f64 = 100.0;

/// Nanoseconds as seconds.
fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The median of `v` (the mean of the middle two for an even count);
/// 0 for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The record whose `run_s` is the median (the lower middle one for
/// an even count).
fn median_record(records: &[&Record]) -> Option<Record> {
    let mut v: Vec<&Record> = records.to_vec();
    v.sort_by_key(|r| r.run_ns);
    v.get(v.len().saturating_sub(1) / 2).map(|r| (*r).clone())
}

/// The runs of one backend, split by mode.
#[derive(Default)]
pub struct BackendRuns<'a> {
    /// Untraced runs.
    pub plain: Vec<&'a Record>,
    /// Traced runs.
    pub traced: Vec<&'a Record>,
}

/// The median over untraced sequential runs of a set-up step, seconds.
fn setup_median(runs: &BTreeMap<&'static str, BackendRuns<'_>>, ns: fn(&Record) -> u64) -> f64 {
    let seq = runs
        .get(Backend::Seq.name())
        .map_or(&[][..], |r| &r.plain[..]);
    median(&seq.iter().map(|r| secs(ns(r))).collect::<Vec<_>>())
}

/// The end-to-end values: medians over untraced runs.
pub fn end_to_end_values(runs: &BTreeMap<&'static str, BackendRuns<'_>>) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let setup = setup_median(runs, |r| r.load_ns + r.compile_ns + r.build_ns);
    out.insert("setup_s".to_string(), setup);
    for b in GATED {
        let be = b.name();
        let plain = runs.get(be).map_or(&[][..], |r| &r.plain[..]);
        let run_s: Vec<f64> = plain.iter().map(|x| x.run_s()).collect();
        let rss: Vec<f64> = plain.iter().map(|x| x.rss_kb as f64 / 1024.0).collect();
        out.insert(format!("run_s.{be}"), median(&run_s));
        out.insert(format!("peak_rss_mb.{be}"), median(&rss));
    }
    out
}

/// The per-layer values.
pub fn per_layer_values(
    runs: &BTreeMap<&'static str, BackendRuns<'_>>,
) -> Result<BTreeMap<String, f64>, String> {
    let mut out = BTreeMap::new();
    let mut put = |k: String, v: f64| {
        out.insert(k, v);
    };
    put("config.load_s".into(), setup_median(runs, |r| r.load_ns));
    put(
        "scenario.compile_s".into(),
        setup_median(runs, |r| r.compile_ns),
    );
    put("core.build_s".into(), setup_median(runs, |r| r.build_ns));

    for b in Backend::ALL {
        let be = b.name();
        let r = runs.get(be).ok_or_else(|| format!("no runs on {be}"))?;
        let t = median_record(&r.traced).ok_or_else(|| format!("no traced run on {be}"))?;
        let events = t.events as f64;
        let shards = b.shards() as f64;
        let plain_run_s = median(&r.plain.iter().map(|x| x.run_s()).collect::<Vec<_>>());
        let traced_run_s = median(&r.traced.iter().map(|x| x.run_s()).collect::<Vec<_>>());
        put(
            format!("tracing_overhead_s.{be}"),
            traced_run_s - plain_run_s,
        );
        let steal = r.plain.iter().map(|x| x.steal as f64 / TICKS_PER_S);
        put(
            format!("host.steal_s.{be}"),
            median(&steal.collect::<Vec<_>>()),
        );
        put(
            format!("des.ns_per_event.{be}"),
            ratio(plain_run_s * 1e9, events),
        );

        // The host-time breakdown of the median traced run.
        let phase = |name: &str| secs(t.get(&format!("host/{name}"))) / shards;
        let run_s = t.run_s();
        let wall_s = secs(t.get("host/wall_ns"));
        let shard_ckpt_s = secs(t.shard_sum("checkpoint_ns")) / shards;
        let parent_ckpt_s = secs(
            t.get("host/checkpoint_ns")
                .saturating_sub(t.shard_sum("checkpoint_ns")),
        );
        // In-process backends write checkpoint files between run
        // segments, outside the engine's wall time. The worker fleet's
        // hub writes them inside it while the workers wait in the fold,
        // so there only the workers' state capture counts here and the
        // file writes show in `des.fold_s`.
        let (assemble_s, ckpt_s) = if b.in_process() {
            (run_s - wall_s - parent_ckpt_s, parent_ckpt_s)
        } else {
            (run_s - wall_s, shard_ckpt_s)
        };
        let phases = [
            "drain_ns",
            "execute_ns",
            "sample_edge_ns",
            "fold_ns",
            "exchange_ns",
        ]
        .map(phase);
        let [drain_s, execute_s, sample_edge_s, fold_s, exchange_s] = phases;
        let attributed: f64 = phases.iter().sum::<f64>() + ckpt_s + assemble_s;
        put(format!("traced_run_s.{be}"), run_s);
        put(format!("core.assemble_s.{be}"), assemble_s);
        put(format!("core.checkpoint_write_s.{be}"), ckpt_s);
        put(format!("des.drain_s.{be}"), drain_s);
        put(format!("des.execute_s.{be}"), execute_s);
        put(format!("stats.sample_edge_s.{be}"), sample_edge_s);
        put(format!("des.fold_s.{be}"), fold_s);
        put(format!("des.exchange_s.{be}"), exchange_s);
        put(format!("des.unattributed_s.{be}"), run_s - attributed);

        let rounds = t.get("host_shard_0/total_batches") as f64;
        put(format!("des.rounds.{be}"), rounds);
        put(format!("des.events_per_round.{be}"), ratio(events, rounds));
        if b != Backend::Seq {
            let millis = |k: &str| t.get(&format!("host/{k}")) as f64 / 1000.0;
            put(
                format!("des.barrier_wait_frac.{be}"),
                millis("barrier_wait_millis"),
            );
            put(
                format!("des.execute_imbalance.{be}"),
                millis("execute_imbalance_millis"),
            );
        }
        match b {
            Backend::Seq => {
                put("des.events".into(), events);
                put("topology.cut_links".into(), t.cut_links as f64);
                let class = |c: &str| {
                    let ns = t.get(&format!("host/class_{c}_ns")) as f64;
                    let n = t.get(&format!("host/class_{c}_events")) as f64;
                    (ratio(ns, n), n)
                };
                put("router.ns_per_event.seq".into(), class("router").0);
                let (iface_ns, iface_events) = class("interface");
                put("workload.interface_ns_per_event.seq".into(), iface_ns);
                put("workload.interface_events".into(), iface_events);
                let cycles = t.get("profile/router_cycles") as f64;
                put("router.cycles".into(), cycles);
                let advanced = t.get("profile/flits_advanced") as f64;
                put("router.flits_per_cycle".into(), ratio(advanced, cycles));
                put(
                    "router.flit_clones".into(),
                    t.get("fault/flit_clones") as f64,
                );
                let arena = t.get("profile/arena_occupancy") as f64;
                put("netbase.arena_high_water".into(), arena);
                let bytes = t.get("host/checkpoint_bytes") as f64;
                put("core.checkpoint_bytes".into(), bytes);
            }
            Backend::Sharded2 => {}
            Backend::Workers2 => {
                put("run_s.workers2".into(), plain_run_s);
                let wire: u64 =
                    t.m.iter()
                        .filter(|(k, _)| k.starts_with("host/worker_") && k.contains("_wire_"))
                        .map(|(_, v)| *v)
                        .sum();
                put(
                    "des.wire_bytes_per_event.workers2".into(),
                    ratio(wire as f64, events),
                );
                put(
                    "des.hub_fold_s.workers2".into(),
                    secs(t.get("host/hub_fold_ns")),
                );
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names, units and directions printed here are the ones
    /// `BENCHMARK.json` declares, in the same order.
    #[test]
    fn specs_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let doc = supersim_config::parse(&text).expect("BENCHMARK.json parses");
        for (key, specs) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
            let declared: Vec<(String, String, String)> = doc
                .get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|x| x.as_str()).unwrap_or("").to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect();
            let ours: Vec<(String, String, String)> = specs
                .into_iter()
                .map(|s| (s.name, s.unit.to_string(), s.better.to_string()))
                .collect();
            assert_eq!(declared, ours, "{key}");
        }
    }

    /// Every per-layer metric has its rationale in `layers.json`, and
    /// every rationale names a metric that exists.
    #[test]
    fn layers_json_covers_every_per_layer_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/layers.json");
        let text = std::fs::read_to_string(path).expect("layers.json");
        let doc = supersim_config::parse(&text).expect("layers.json parses");
        let keys: Vec<&String> = doc
            .get("layers")
            .and_then(|v| v.as_object())
            .expect("layers map")
            .keys()
            .collect();
        let stem = |name: &str| match name.rsplit_once('.') {
            Some((s, be)) if Backend::parse(be).is_some() => format!("{s}.<be>"),
            _ => name.to_string(),
        };
        let names: Vec<String> = per_layer().into_iter().map(|s| s.name).collect();
        for n in &names {
            assert!(
                keys.iter().any(|k| **k == *n || **k == stem(n)),
                "{n} has no entry in layers.json"
            );
        }
        for k in keys {
            assert!(
                names.iter().any(|n| n == k || stem(n) == *k),
                "layers.json entry {k} names no metric"
            );
        }
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
