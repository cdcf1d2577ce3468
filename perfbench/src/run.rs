//! The `__run` role: one simulation of one workload on one backend, in
//! a process of its own so its peak resident memory is its own.
//!
//! The role prints one JSON line on standard output: timings of each
//! public call (a fresh process pays the same set-up as a `supersim`
//! invocation), the process's peak RSS, the output digest that the
//! orchestrator compares across backends, and — for traced runs — the
//! counters of the program's `host`, `profile` and `fault` planes.

use std::fmt::Write as _;
use std::time::Instant;

use supersim_config::Value;
use supersim_core::{RunOutput, SuperSim};
use supersim_stats::{MetricValue, MetricsSnapshot};
use supersim_topology::{cut_links, partition_routers};

use crate::workload::{self, elapsed_ns, set, Backend};

/// Runs `__run <workload> <seed> <backend> <traced 0|1> <scratch dir>`
/// and prints its record. Errors before the run starts are returned;
/// a degraded run still prints a record, with `ok` false.
pub fn main(args: &[String]) -> Result<(), String> {
    let [name, seed, backend, traced, scratch] = args else {
        return Err("usage: __run <workload> <seed> <backend> <traced> <dir>".into());
    };
    let epoch = Instant::now();
    let w = workload::find(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed: u64 = seed.parse().map_err(|_| format!("bad seed {seed:?}"))?;
    let backend = Backend::parse(backend).ok_or_else(|| format!("bad backend {backend:?}"))?;
    let traced = traced == "1";

    let gen_start = elapsed_ns(epoch);
    let generated = workload::generate(w, seed)?;
    let mut cfg = generated.config;
    backend.apply(&mut cfg)?;
    if traced {
        // Every batch gets per-event class attribution, so the class
        // counts are complete rather than 1-in-64 samples.
        set(&mut cfg, "host.profile.enabled", Value::Bool(true))?;
        set(&mut cfg, "host.profile.sample", Value::Int(1))?;
    }
    if w.checkpoints {
        set(&mut cfg, "checkpoint.dir", Value::Str(scratch.clone()))?;
    }

    let build_start = elapsed_ns(epoch);
    let sim = SuperSim::from_config(&cfg).map_err(|e| format!("build: {e}"))?;
    let build_ns = elapsed_ns(epoch) - build_start;
    let topo = sim.topology().as_ref();
    let cut = cut_links(topo, &partition_routers(topo, 2));

    // Stolen time during the run explains host-side noise in `run_ns`.
    let steal0 = steal_ticks();
    let run_start = elapsed_ns(epoch);
    let report = sim.run_report();
    let run_ns = elapsed_ns(epoch) - run_start;
    let steal = steal_ticks().saturating_sub(steal0);
    let rss_kb = peak_rss_kb();

    if w.checkpoints {
        let _ = std::fs::remove_dir_all(scratch);
    }
    let out = &report.output;
    let mut line = String::from("{");
    write!(
        line,
        "\"ok\":{},\"error\":{},\"delivered\":{},\"events\":{},\"digest\":\"{:016x}\",\
         \"rss_kb\":{rss_kb},\"gen_start\":{gen_start},\"load_ns\":{},\"compile_ns\":{},\
         \"build_start\":{build_start},\"build_ns\":{build_ns},\"cut_links\":{cut},\"run_start\":{run_start},\
         \"run_ns\":{run_ns},\"steal\":{steal},\"m\":{{",
        report.is_ok(),
        json_str(
            &report
                .error
                .as_ref()
                .map(|e| e.to_string())
                .unwrap_or_default()
        ),
        out.packets_delivered(),
        out.engine.events_executed,
        digest(out),
        generated.load_ns,
        generated.compile_ns,
    )
    .expect("write to String");
    let mut first = true;
    for s in out.metrics.samples() {
        let layer_plane = s.component == "host"
            || s.component.starts_with("host_shard_")
            || s.component == "profile"
            || s.component == "fault";
        let value = match s.value {
            MetricValue::Counter(n) => n,
            MetricValue::Gauge { max, .. } => max,
            MetricValue::Histogram(_) => continue,
        };
        if layer_plane {
            if !first {
                line.push(',');
            }
            first = false;
            write!(line, "\"{}/{}\":{value}", s.component, s.name).expect("write to String");
        }
    }
    line.push_str("}}");
    println!("{line}");
    Ok(())
}

/// FNV-1a digest of everything the determinism contract pins: the
/// sample log, the metrics snapshot without its per-shard engine
/// diagnostics and host-time planes, and the time series.
fn digest(out: &RunOutput) -> u64 {
    let mut pinned = MetricsSnapshot::new();
    for s in out.metrics.samples() {
        let host_time = s.component == "host" || s.component.starts_with("host_shard_");
        if !host_time && !s.component.starts_with("engine_shard_") {
            pinned.push(s.component.clone(), s.name.clone(), s.value.clone());
        }
    }
    let mut h = Fnv::new();
    h.write(out.log.to_text().as_bytes());
    h.write(&[0]);
    h.write(pinned.to_json().as_bytes());
    h.write(&[0]);
    h.write(out.timeseries.as_deref().unwrap_or("").as_bytes());
    h.0
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// This process's peak resident set (`VmHWM`), in KiB; 0 where the
/// kernel does not report it.
fn peak_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Time the hypervisor has stolen from this machine's CPUs so far, in
/// clock ticks (the `steal` column of `/proc/stat`; 0 where absent).
fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// `s` as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("write to String");
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
