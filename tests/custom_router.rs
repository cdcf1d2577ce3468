//! Extensibility contract of the router registry (paper §III-D): a
//! user-defined router architecture, registered through
//! `Factories::routers` as a pipeline on top of `RouterCore`, is treated
//! exactly like a built-in one. Its routers report the `router_*`
//! metrics and the `router.*` time series, the sharded engine reproduces
//! the sequential run byte for byte, and a checkpoint resumes to the
//! bytes of an uninterrupted run — with no framework code aware that
//! the architecture exists.

use std::path::PathBuf;

use supersim::config::Value;
use supersim::core::factory::{Factories, RouterCtx};
use supersim::core::{presets, RunOutput, SuperSim};
use supersim::des::wire::{get_varint, put_varint};
use supersim::des::Context;
use supersim::netbase::Ev;
use supersim::router::{HandleClaims, Pipeline, Router, RouterCore};
use supersim::stats::{MetricSample, MetricValue};

/// The simplest workable pipeline: every cycle, each free output port
/// forwards the lowest-keyed input whose routed head flit has a credit,
/// holding the output VC for that input from head to tail (wormhole).
struct FirstCome {
    /// Which input key owns each output `(port, vc)`, between a packet's
    /// head and tail.
    owner: Vec<Option<u32>>,
}

impl Pipeline for FirstCome {
    fn cycle(&mut self, core: &mut RouterCore, ctx: &mut Context<'_, Ev>) {
        let tick = ctx.now().tick();
        if !core.route_heads(ctx, None) {
            return;
        }
        let ports = core.ports();
        let (radix, inputs) = (ports.radix, (ports.radix * ports.vcs) as usize);
        let mut progress = false;
        for port in 0..radix {
            if core.link_busy(port, tick) {
                continue;
            }
            let winner = (0..inputs).find_map(|k| {
                let route = core.route(k).filter(|r| r.port == port)?;
                let head = core.head(k)?;
                let okey = core.ports().key(route.port, route.vc);
                let owns = match self.owner[okey] {
                    None => head.is_head(),
                    Some(owner) => owner as usize == k,
                };
                (owns && core.credits(route.port, route.vc) > 0).then_some((k, route, head))
            });
            let Some((k, route, head)) = winner else {
                continue;
            };
            core.metrics.grants.inc();
            if !core.forward(ctx, k, route.port, route.vc, 1) {
                return;
            }
            let okey = core.ports().key(route.port, route.vc);
            self.owner[okey] = (!head.is_tail()).then_some(k as u32);
            progress = true;
        }
        if progress && core.inputs_pending() {
            core.wake_next_edge(ctx, tick);
        }
    }

    fn snapshot(&self, out: &mut Vec<u8>) {
        for owner in &self.owner {
            put_varint(out, owner.map_or(0, |k| u64::from(k) + 1));
        }
    }

    fn restore(&mut self, buf: &mut &[u8], _claims: &mut HandleClaims<'_>) -> Option<()> {
        for owner in &mut self.owner {
            *owner = match get_varint(buf)? {
                0 => None,
                k => Some(u32::try_from(k - 1).ok()?),
            };
        }
        Some(())
    }
}

fn factories() -> Factories {
    let mut f = Factories::with_defaults();
    f.routers.register("first_come", |ctx: RouterCtx<'_>| {
        let core = RouterCore::new("first_come", ctx.core_config()?)?;
        let ports = core.ports();
        let owner = vec![None; (ports.radix * ports.vcs) as usize];
        Ok(Router::new(core, Box::new(FirstCome { owner })))
    });
    f
}

fn set(cfg: &mut Value, path: &str, value: Value) {
    cfg.set_path(path, value).expect("object");
}

/// The quickstart network on the custom architecture, sampled every 100
/// ticks, on the given engine.
fn config(kind: &str, shards: u64) -> Value {
    let mut cfg = presets::quickstart();
    set(
        &mut cfg,
        "network.router.architecture",
        Value::Str("first_come".into()),
    );
    set(&mut cfg, "sample.interval", Value::Int(100));
    set(&mut cfg, "engine.kind", Value::Str(kind.into()));
    set(&mut cfg, "engine.shards", Value::Int(shards as i64));
    cfg
}

fn run(cfg: &Value) -> RunOutput {
    SuperSim::with_factories(cfg, &factories())
        .expect("build")
        .run()
        .expect("run")
}

/// The snapshot minus the planes that legitimately vary between runs
/// (per-shard scheduler diagnostics and host wall-clock time).
fn stripped(out: &RunOutput) -> Vec<MetricSample> {
    out.metrics
        .samples()
        .iter()
        .filter(|s| {
            !s.component.starts_with("engine_shard_")
                && s.component != "host"
                && !s.component.starts_with("host_shard_")
        })
        .cloned()
        .collect()
}

fn assert_identical(a: &RunOutput, b: &RunOutput, label: &str) {
    assert_eq!(a.log.to_text(), b.log.to_text(), "{label}: sample log");
    assert_eq!(stripped(a), stripped(b), "{label}: metrics snapshot");
    assert_eq!(a.timeseries, b.timeseries, "{label}: time series");
    assert_eq!(a.phase_times, b.phase_times, "{label}: phases");
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("supersim-custom-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn custom_routers_report_like_built_in_ones() {
    let out = run(&config("sequential", 1));
    assert!(out.packets_delivered() > 0);
    for r in 0..4 {
        match out.metrics.get(&format!("router_{r}"), "grants") {
            Some(MetricValue::Counter(n)) => assert!(*n > 0, "router_{r} granted nothing"),
            other => panic!("router_{r} has no grants counter: {other:?}"),
        }
    }
    match out.metrics.get("profile", "router_cycles") {
        Some(MetricValue::Counter(n)) => assert!(*n > 0),
        other => panic!("no router cycles in the profiling plane: {other:?}"),
    }
    let ts = out.timeseries.as_deref().expect("time series");
    let grants: u64 = ts
        .lines()
        .filter_map(|line| {
            let v = Value::parse(line).expect("time-series line parses");
            v.get("series")?.get("router.grants")?.get("sum")?.as_u64()
        })
        .sum();
    assert!(grants > 0, "time series carries no router grants");
}

#[test]
fn custom_routers_are_byte_identical_across_engines() {
    let seq = run(&config("sequential", 1));
    let sharded = run(&config("sharded", 2));
    assert_identical(&seq, &sharded, "seq vs --shards 2");
}

#[test]
fn custom_routers_resume_from_a_checkpoint_byte_identically() {
    let dir = scratch_dir("ckpt");
    for (kind, shards) in [("sequential", 1), ("sharded", 2)] {
        let base = run(&config(kind, shards));
        let ckpt_dir = dir.join(kind);
        let mut cfg = config(kind, shards);
        set(&mut cfg, "checkpoint.interval", Value::Int(200));
        set(
            &mut cfg,
            "checkpoint.dir",
            Value::Str(ckpt_dir.to_str().expect("utf-8 path").into()),
        );
        let checkpointed = run(&cfg);
        assert_identical(&base, &checkpointed, &format!("{kind}: checkpointing"));

        let ckpt = ckpt_dir.join("ckpt-00000002.ssckpt");
        assert!(ckpt.is_file(), "{kind}: round-2 checkpoint missing");
        let mut resume = config(kind, shards);
        set(
            &mut resume,
            "checkpoint.resume",
            Value::Str(ckpt.to_str().expect("utf-8 path").into()),
        );
        assert_identical(&base, &run(&resume), &format!("{kind}: resumed"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}
