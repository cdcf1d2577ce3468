//! Assembles a complete simulation from a configuration document.
//!
//! Exactly as the paper describes (§III-C), each constructor consumes its
//! own block of the configuration hierarchy and passes sub-blocks on to
//! child constructors: `network` builds the topology and hands `router` to
//! the router-architecture factory; `workload` hands each application
//! block (and its `pattern` sub-block) to the application factory.

use supersim_config::Value;
use supersim_des::{ComponentId, Engine, EngineOptions, ProgressShared, Simulator, Tick, Time};
use supersim_netbase::{
    Ev, FaultConfig, FaultPlane, LinkId, LinkTarget, RouterId, ScheduledOutage, TerminalId,
    TraceFilter, TraceKind,
};
use supersim_router::RouterPorts;
use supersim_stats::{ComponentSampler, MetricsRegistry};
use supersim_topology::{partition_routers, ChannelClass, Topology};
use supersim_workload::{Interface, InterfaceConfig, WorkloadMonitor};

use std::sync::Arc;

use crate::error::BuildError;
use crate::factory::{AppCtx, Factories, RouterCtx};

/// A fully wired simulation, ready to run.
pub(crate) struct Built {
    pub engine: Box<dyn Engine<Ev>>,
    pub interfaces: Vec<ComponentId>,
    pub routers: Vec<ComponentId>,
    pub monitor: ComponentId,
    pub topology: Arc<dyn Topology>,
    pub tick_limit: Tick,
    pub link_period: Tick,
    pub registry: MetricsRegistry,
    pub fault: Option<Arc<FaultPlane>>,
    /// Sampling window width in ticks; zero = sampling disabled.
    pub sample_interval: Tick,
    /// Whether per-packet latency-attribution spans are enabled.
    pub spans: bool,
    /// `Some` when `engine.transport` is `"process"` and this is the
    /// parent: the launch plan for the worker fleet. `engine` is then a
    /// placeholder that never runs.
    #[cfg_attr(not(unix), allow(dead_code))]
    pub process: Option<ProcessPlan>,
    /// The simulation seed (stamped into checkpoint headers).
    pub seed: u64,
    /// The clamped shard count of the chosen backend (1 for sequential).
    pub num_shards: u32,
    /// Checkpoint/restore policy parsed from the `checkpoint` block.
    pub checkpoint: CheckpointPlan,
    /// Host-time observability policy (the `host` + `progress` blocks).
    pub host: HostPlan,
    /// The live-progress board the engine publishes to, created with the
    /// engine; `Some` exactly when the heartbeat is on.
    pub progress: Option<Arc<ProgressShared>>,
}

/// The host-time observability policy: wall-clock profiling, Chrome
/// trace export, and the live progress heartbeat. All strictly
/// out-of-band — host clocks never feed simulation state, so enabling
/// any of it leaves every simulation output byte-identical.
#[derive(Clone)]
pub(crate) struct HostPlan {
    /// Whether the host profiler is armed (`host.profile.enabled`, or
    /// implied by `host.trace.enabled`).
    pub enabled: bool,
    /// Per-event attribution sampling period: one batch in `sample` is
    /// timed per-event (`host.profile.sample`).
    pub sample: u32,
    /// Whether to assemble a Chrome `trace_event` document from the
    /// per-round host slices (`host.trace.enabled`).
    pub trace_enabled: bool,
    /// Live-progress heartbeat interval in milliseconds; 0 = off
    /// (`progress.interval_ms`).
    pub progress_interval_ms: u64,
}

/// The checkpoint/restore policy of a run (the `checkpoint` block).
#[derive(Clone)]
pub(crate) struct CheckpointPlan {
    /// Barrier-round interval between checkpoints in ticks; 0 = off.
    pub interval: Tick,
    /// Directory checkpoint files are written into.
    pub dir: std::path::PathBuf,
    /// Checkpoint file to restore before running, if any.
    pub resume: Option<std::path::PathBuf>,
    /// How many times the parent of a multi-process run may respawn the
    /// fleet from the last completed checkpoint before giving up.
    #[cfg_attr(not(unix), allow(dead_code))]
    pub max_restarts: u32,
}

/// Everything the parent of a multi-process run needs to launch and
/// drive its workers.
#[cfg_attr(not(unix), allow(dead_code))]
pub(crate) struct ProcessPlan {
    /// How many worker processes to spawn (the clamped shard count).
    pub workers: u32,
    /// Socket accept/read timeout budget in milliseconds.
    pub timeout_ms: u64,
    /// The executable to spawn with the `__worker` role.
    pub worker_bin: std::path::PathBuf,
    /// The resolved configuration, shipped to workers in the setup frame.
    pub config_json: String,
    /// Hub-side trace ring capacity, when tracing is armed.
    pub trace_capacity: Option<usize>,
}

/// How [`build_with`] should assemble the execution backend.
pub(crate) enum EngineMode {
    /// Single-process run, or the parent of a multi-process one: follow
    /// the configuration.
    Auto,
    /// Worker-process assembly: build the full simulation, then keep only
    /// the shard this worker owns, driven over `link`.
    #[cfg(unix)]
    Worker {
        /// This worker's shard index.
        index: u32,
        /// The connected hub link.
        link: supersim_des::WorkerLink,
    },
}

/// Which execution backend to assemble.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EngineChoice {
    Sequential,
    Sharded(usize),
    /// Sharded across OS processes: same partition as `Sharded`, one
    /// worker process per shard.
    Process(usize),
}

/// Parses the optional `engine` block: `engine.kind` is `"sequential"`
/// (default) or `"sharded"`, `engine.shards` the worker count, and
/// `engine.transport` is `"thread"` (default; shards share the process)
/// or `"process"` (one OS process per shard). The `SUPERSIM_ENGINE` /
/// `SUPERSIM_SHARDS` environment variables supply defaults when the
/// configuration does not say — explicit configuration always wins, so a
/// config that pins an engine stays pinned under a CI job that exports
/// the sharded default. An explicit `engine.shards` above 1 on an engine
/// that resolves to `"sequential"` is a [`BuildError::Conflict`]; the
/// `SUPERSIM_SHARDS` default never is. So is a worker timeout
/// (`process.timeout_ms`, or the legacy `engine.worker_timeout_ms`) on
/// any transport but `"process"`, which has no workers to time out.
fn engine_choice(cfg: &Value) -> Result<EngineChoice, BuildError> {
    let kind = match cfg.req_str("engine.kind") {
        Ok(s) => s.to_string(),
        Err(_) => std::env::var("SUPERSIM_ENGINE").unwrap_or_else(|_| "sequential".into()),
    };
    let explicit_shards = cfg.req_u64("engine.shards").ok();
    let shards = match explicit_shards {
        Some(n) => n,
        None => match std::env::var("SUPERSIM_SHARDS") {
            Ok(s) => s.parse().map_err(|_| {
                BuildError::invalid(format!("SUPERSIM_SHARDS must be an integer, got {s:?}"))
            })?,
            Err(_) => 2,
        },
    };
    let transport = match cfg.req_str("engine.transport") {
        Ok(s) => s.to_string(),
        Err(_) => "thread".into(),
    };
    let process = match transport.as_str() {
        "thread" => false,
        "process" => true,
        other => {
            return Err(BuildError::invalid(format!(
                "unknown engine.transport {other:?} (expected \"thread\" or \"process\")"
            )))
        }
    };
    if !process {
        let timeout_keys = ["process.timeout_ms", "engine.worker_timeout_ms"];
        if let Some(key) = timeout_keys.into_iter().find(|k| cfg.path(k).is_some()) {
            return Err(BuildError::Conflict {
                keys: [key, "engine.transport"],
                reason: format!(
                    "a worker timeout needs engine.transport \"process\" (--workers); \
                     the {transport:?} transport runs no worker processes"
                ),
            });
        }
    }
    match kind.as_str() {
        "sequential" => {
            if process {
                return Err(BuildError::invalid(
                    "engine.transport \"process\" requires engine.kind \"sharded\"",
                ));
            }
            // No silent fallback: an explicit shard count the sequential
            // engine would ignore is an error, not a one-shard run.
            if let Some(n) = explicit_shards.filter(|&n| n > 1) {
                return Err(BuildError::Conflict {
                    keys: ["engine.shards", "engine.kind"],
                    reason: format!(
                        "{n} shards need engine.kind \"sharded\" (--engine sharded); \
                         the sequential engine runs one shard"
                    ),
                });
            }
            Ok(EngineChoice::Sequential)
        }
        "sharded" => {
            if shards == 0 {
                return Err(BuildError::invalid("engine.shards must be non-zero"));
            }
            if process {
                Ok(EngineChoice::Process(shards as usize))
            } else {
                Ok(EngineChoice::Sharded(shards as usize))
            }
        }
        other => Err(BuildError::invalid(format!(
            "unknown engine.kind {other:?} (expected \"sequential\" or \"sharded\")"
        ))),
    }
}

/// Parses the optional `observability.trace` block; `None` when tracing
/// is absent or disabled (the free-when-off default).
fn trace_config(cfg: &Value) -> Result<Option<(TraceFilter, usize)>, BuildError> {
    if !cfg.opt_bool("observability.trace.enabled", false)? {
        return Ok(None);
    }
    let capacity = cfg.opt_u64("observability.trace.capacity", 65_536)?;
    if capacity == 0 {
        return Err(BuildError::invalid(
            "observability.trace.capacity must be non-zero",
        ));
    }
    let mut filter = TraceFilter::default();
    if let Ok(names) = cfg.req_array("observability.trace.kinds") {
        let mut mask = 0u8;
        for n in names {
            let s = n.as_str().ok_or_else(|| {
                BuildError::invalid("observability.trace.kinds entries must be strings")
            })?;
            let kind = TraceKind::from_name(s)
                .ok_or_else(|| BuildError::invalid(format!("unknown trace kind {s:?}")))?;
            mask |= kind.bit();
        }
        filter.kinds = mask;
    }
    if let Ok(src) = cfg.req_u64("observability.trace.src") {
        filter.src = Some(src as u32);
    }
    filter.packet_lo = cfg.opt_u64("observability.trace.packet_lo", 0)?;
    filter.packet_hi = cfg.opt_u64("observability.trace.packet_hi", u64::MAX)?;
    Ok(Some((filter, capacity as usize)))
}

/// Parses the optional `fault` block into a shared fault plane; `None`
/// unless `fault.enabled` is set (the free-when-off default: components
/// built without a plane skip the protocol entirely).
fn fault_config(cfg: &Value) -> Result<Option<Arc<FaultPlane>>, BuildError> {
    if !cfg.opt_bool("fault.enabled", false)? {
        return Ok(None);
    }
    let fault = FaultConfig {
        bit_error_rate: cfg.opt_f64("fault.bit_error_rate", 0.0)?,
        credit_loss_rate: cfg.opt_f64("fault.credit_loss_rate", 0.0)?,
        outage_rate: cfg.opt_f64("fault.outage.rate", 0.0)?,
        outage_duration: cfg.opt_u64("fault.outage.duration", 100)?,
        max_retries: cfg.opt_u64("fault.retry.max", 8)? as u32,
        backoff_base: cfg.opt_u64("fault.retry.backoff", 1)?,
        outages: fault_outages(cfg)?,
    };
    for (key, rate) in [
        ("fault.bit_error_rate", fault.bit_error_rate),
        ("fault.credit_loss_rate", fault.credit_loss_rate),
        ("fault.outage.rate", fault.outage_rate),
    ] {
        if !(0.0..=1.0).contains(&rate) {
            return Err(BuildError::invalid(format!(
                "{key} must be a probability in [0, 1], got {rate}"
            )));
        }
    }
    if fault.backoff_base == 0 {
        return Err(BuildError::invalid("fault.retry.backoff must be non-zero"));
    }
    if fault.outage_rate > 0.0 && fault.outage_duration == 0 {
        return Err(BuildError::invalid(
            "fault.outage.duration must be non-zero when fault.outage.rate is set",
        ));
    }
    Ok(Some(Arc::new(FaultPlane::new(fault))))
}

/// Parses the `fault.outages` array: each entry names a link — either
/// `{"router": r, "port": p, ...}` or `{"terminal": t, ...}` — plus a
/// half-open `[start, end)` tick interval.
fn fault_outages(cfg: &Value) -> Result<Vec<ScheduledOutage>, BuildError> {
    let Some(list) = cfg.path("fault.outages") else {
        return Ok(Vec::new());
    };
    let list = list
        .as_array()
        .ok_or_else(|| BuildError::invalid("fault.outages must be an array"))?;
    let mut outages = Vec::with_capacity(list.len());
    for (i, o) in list.iter().enumerate() {
        let bad = |msg: String| BuildError::invalid(format!("fault.outages[{i}]: {msg}"));
        let link = if let Some(t) = o.path("terminal") {
            let t = t
                .as_u64()
                .ok_or_else(|| bad("terminal must be an integer".into()))?;
            LinkId::Terminal { terminal: t as u32 }
        } else {
            let router = o
                .req_u64("router")
                .map_err(|e| bad(format!("needs a router or terminal link ({e})")))?;
            let port = o.req_u64("port").map_err(|e| bad(e.to_string()))?;
            LinkId::Router {
                router: router as u32,
                port: port as u32,
            }
        };
        let start = o.req_u64("start").map_err(|e| bad(e.to_string()))?;
        let end = o.req_u64("end").map_err(|e| bad(e.to_string()))?;
        if end <= start {
            return Err(bad(format!(
                "outage interval [{start}, {end}) is empty or inverted"
            )));
        }
        outages.push(ScheduledOutage { link, start, end });
    }
    Ok(outages)
}

/// Parses the optional `sample` block: `sample.interval` is the window
/// width in ticks (0 = disabled, the free-when-off default),
/// `sample.capacity` the per-component ring size in windows.
fn sample_config(cfg: &Value) -> Result<(Tick, usize), BuildError> {
    let interval = cfg.opt_u64("sample.interval", 0)?;
    let capacity = cfg.opt_u64("sample.capacity", 4096)?;
    if interval > 0 && capacity == 0 {
        return Err(BuildError::invalid(
            "sample.capacity must be non-zero when sample.interval is set",
        ));
    }
    Ok((interval, capacity as usize))
}

/// Parses the optional `checkpoint` block: `checkpoint.interval` is the
/// barrier-round spacing in ticks (0 = disabled, the free-when-off
/// default), `checkpoint.dir` the output directory, `checkpoint.resume`
/// a checkpoint file to restore before running, and
/// `checkpoint.max_restarts` the fleet-respawn budget of a multi-process
/// run.
fn checkpoint_config(cfg: &Value) -> Result<CheckpointPlan, BuildError> {
    let interval = cfg.opt_u64("checkpoint.interval", 0)?;
    let dir = std::path::PathBuf::from(cfg.opt_str("checkpoint.dir", "checkpoints")?);
    let resume = match cfg.req_str("checkpoint.resume") {
        Ok(p) if !p.is_empty() => Some(std::path::PathBuf::from(p)),
        _ => None,
    };
    let max_restarts = cfg.opt_u64("checkpoint.max_restarts", 3)?;
    Ok(CheckpointPlan {
        interval,
        dir,
        resume,
        max_restarts: u32::try_from(max_restarts)
            .map_err(|_| BuildError::invalid("checkpoint.max_restarts is out of range"))?,
    })
}

/// Parses the optional `host` and `progress` blocks (all free-when-off
/// defaults): `host.profile.enabled` arms the wall-clock profiler,
/// `host.profile.sample` sets the per-event attribution period,
/// `host.trace.enabled` additionally assembles a Chrome trace, and
/// `progress.interval_ms` turns on the heartbeat.
fn host_config(cfg: &Value) -> Result<HostPlan, BuildError> {
    let trace_enabled = cfg.opt_bool("host.trace.enabled", false)?;
    let enabled = cfg.opt_bool("host.profile.enabled", false)? || trace_enabled;
    let sample = cfg.opt_u64("host.profile.sample", 64)?;
    if enabled && sample == 0 {
        return Err(BuildError::invalid(
            "host.profile.sample must be non-zero when host profiling is enabled",
        ));
    }
    let sample = u32::try_from(sample)
        .map_err(|_| BuildError::invalid("host.profile.sample is out of range"))?;
    Ok(HostPlan {
        enabled,
        sample,
        trace_enabled,
        progress_interval_ms: cfg.opt_u64("progress.interval_ms", 0)?,
    })
}

pub(crate) fn build(cfg: &Value, factories: &Factories) -> Result<Built, BuildError> {
    build_with(cfg, factories, EngineMode::Auto)
}

pub(crate) fn build_with(
    cfg: &Value,
    factories: &Factories,
    mode: EngineMode,
) -> Result<Built, BuildError> {
    let seed = cfg.opt_u64("seed", 0x5eed)?;
    let tick_limit = cfg.opt_u64("tick_limit", 100_000_000)?;

    // --- network -------------------------------------------------------
    let net = cfg.req_obj("network")?;
    let topo_name = net.req_str("topology.name")?;
    let plan = factories.networks.build(topo_name, net)?;
    let topology = Arc::clone(&plan.topology);
    let terminals = topology.num_terminals();
    let routers = topology.num_routers();
    if terminals == 0 || routers == 0 {
        return Err(BuildError::invalid("network has no terminals or routers"));
    }
    let vcs = net.req_u64("vcs")? as u32;

    let lat_terminal = net.opt_u64("channel.terminal_latency", 1)?;
    let lat_local = net.opt_u64("channel.local_latency", 1)?;
    let lat_global = net.opt_u64("channel.global_latency", lat_local)?;
    let link_period = net.opt_u64("channel.link_period", 1)?;
    if link_period == 0 {
        return Err(BuildError::invalid("channel.link_period must be non-zero"));
    }

    let router_cfg = net.req_obj("router")?;
    let arch = router_cfg.req_str("architecture")?;
    let input_buffer = router_cfg.req_u64("input_buffer")? as u32;
    if input_buffer == 0 {
        return Err(BuildError::invalid("router.input_buffer must be non-zero"));
    }

    let eject_buffer = net.opt_u64("interface.eject_buffer", 64)? as u32;
    let max_packet = net.opt_u64("interface.max_packet_size", 1 << 20)? as u32;
    let drain_period = net.opt_u64("interface.drain_period", link_period)?;

    // --- workload ------------------------------------------------------
    let workload = cfg.req_obj("workload")?;
    let app_blocks = workload.req_array("applications")?;
    if app_blocks.is_empty() || app_blocks.len() > u8::MAX as usize {
        return Err(BuildError::invalid(
            "workload needs between 1 and 255 applications",
        ));
    }
    let mut apps = Vec::new();
    for (i, block) in app_blocks.iter().enumerate() {
        let name = block
            .req_str("name")
            .map_err(|_| BuildError::invalid(format!("application {i} is missing a name")))?;
        let ctx = AppCtx {
            terminals,
            link_period,
            seed,
            patterns: &factories.patterns,
        };
        apps.push(factories.apps.build(name, block, ctx)?);
    }

    // --- engine + observability ----------------------------------------
    let choice = engine_choice(cfg)?;
    // More shards than routers would only add idle spinners. The clamp is
    // identical for the thread and process transports, so parent and
    // workers agree on the shard count from the same configuration.
    let num_shards = match choice {
        EngineChoice::Sequential => 1,
        EngineChoice::Sharded(n) | EngineChoice::Process(n) => n.min(routers as usize).max(1),
    };
    let trace = trace_config(cfg)?;
    let trace_capacity = trace.as_ref().map(|&(_, c)| c);
    let fault = fault_config(cfg)?;
    let watchdog = cfg.opt_u64("watchdog.ticks", 0)?;
    let (sample_interval, sample_capacity) = sample_config(cfg)?;
    let spans_enabled = cfg.opt_bool("spans.enabled", false)?;
    let spans_min_latency = cfg.opt_u64("spans.min_latency", 0)?;
    let mut registry = MetricsRegistry::new();
    registry.register("engine");
    for s in 0..num_shards {
        registry.register(format!("engine_shard_{s}"));
    }
    registry.register("workload");
    registry.register("run");
    registry.register("profile");
    if fault.is_some() {
        registry.register("fault");
    }
    let host = host_config(cfg)?;
    if host.enabled {
        registry.register("host");
        for s in 0..num_shards {
            registry.register(format!("host_shard_{s}"));
        }
    }
    for r in 0..routers {
        registry.register(format!("router_{r}"));
    }

    let checkpoint = checkpoint_config(cfg)?;
    let progress =
        (host.progress_interval_ms > 0).then(|| Arc::new(ProgressShared::new(num_shards)));
    // Every plane is fixed here, once, and carried through the
    // conversion to a sharded or worker engine below.
    let options = EngineOptions {
        watchdog,
        sample_interval,
        trace: trace
            .as_ref()
            .map(|(filter, capacity)| (filter.to_spec(), *capacity)),
        host_sample: if host.enabled { host.sample } else { 0 },
        progress: progress.clone(),
        checkpoint_interval: checkpoint.interval,
    };

    // --- component id layout: interfaces, then routers, then monitor ---
    let mut sim: Simulator<Ev> = Simulator::with_options(seed, options);
    let cid = |index: usize| {
        ComponentId::try_from_index(index).ok_or_else(|| {
            BuildError::invalid(format!(
                "component index {index} exceeds the component id space"
            ))
        })
    };
    let iface_cid = |t: u32| cid(t as usize);
    let router_cid = |r: u32| cid(terminals as usize + r as usize);
    let monitor_cid = cid(terminals as usize + routers as usize)?;

    let mut interface_ids = Vec::with_capacity(terminals as usize);
    for t in 0..terminals {
        let terminal = TerminalId(t);
        let (router, port) = topology.terminal_attachment(terminal);
        let attached = router_cid(router.0)?;
        let mut iface = Interface::new(InterfaceConfig {
            terminal,
            vcs,
            to_router: LinkTarget::new(attached, port, lat_terminal),
            credit_to: LinkTarget::new(attached, port, lat_terminal),
            router_credits: input_buffer,
            inject_period: link_period,
            drain_period,
            max_packet_size: max_packet,
            monitor: monitor_cid,
            terminals: apps.iter().map(|a| a.create_terminal(terminal)).collect(),
            fault: fault.clone(),
        });
        if sample_interval > 0 {
            iface.sampler = Some(ComponentSampler::new(sample_capacity));
        }
        iface.spans_enabled = spans_enabled;
        iface.spans_min_latency = spans_min_latency;
        let id = sim.add_component(Box::new(iface));
        debug_assert_eq!(id, iface_cid(t)?);
        interface_ids.push(id);
    }

    let mut router_ids = Vec::with_capacity(routers as usize);
    for r in 0..routers {
        let router = RouterId(r);
        let radix = topology.radix(router);
        let mut flit_links = Vec::with_capacity(radix as usize);
        let mut credit_links = Vec::with_capacity(radix as usize);
        let mut downstream = Vec::with_capacity(radix as usize);
        for p in 0..radix {
            if let Some(term) = topology.terminal_at(router, p) {
                let link = LinkTarget::new(iface_cid(term.0)?, 0, lat_terminal);
                flit_links.push(Some(link));
                credit_links.push(Some(link));
                downstream.push(eject_buffer);
            } else if let Some((nr, np)) = topology.neighbor(router, p) {
                let lat = match topology.channel_class(router, p) {
                    ChannelClass::Local => lat_local,
                    ChannelClass::Global => lat_global,
                    ChannelClass::Terminal => {
                        return Err(BuildError::invalid(format!(
                            "topology {topo_name} wires terminal-class port r{r}:{p} to a router"
                        )))
                    }
                };
                // By the neighbor involution, both flits (downstream) and
                // credits (upstream) address (neighbor, its port).
                let link = LinkTarget::new(router_cid(nr.0)?, np, lat);
                flit_links.push(Some(link));
                credit_links.push(Some(link));
                downstream.push(input_buffer);
            } else {
                flit_links.push(None);
                credit_links.push(None);
                downstream.push(0);
            }
        }
        let ports = RouterPorts {
            radix,
            vcs,
            flit_links,
            credit_links,
            downstream_capacity: downstream,
        };
        let ctx = RouterCtx {
            id: router,
            ports,
            routing: plan.routing_factory(),
            config: router_cfg,
            link_period,
            fault: fault.clone(),
        };
        let mut router = factories.routers.build(arch, ctx)?;
        if sample_interval > 0 {
            router.core_mut().sampler = Some(ComponentSampler::new(sample_capacity));
        }
        let id = sim.add_component(Box::new(router));
        debug_assert_eq!(id, router_cid(r)?);
        router_ids.push(id);
    }

    let monitor = sim.add_component(Box::new(WorkloadMonitor::new(
        apps.len() as u8,
        interface_ids.clone(),
    )));
    debug_assert_eq!(monitor, monitor_cid);

    // Kick every interface: the first Inject enters the warming phase.
    for &id in &interface_ids {
        sim.schedule(id, Time::at(0), Ev::Inject);
    }

    // Components are registered and kicked on a one-shard engine; the
    // sharded backends take over the finished layout. Routers partition by
    // topology locality, each interface rides with its attached router
    // (the terminal channel is the hottest link in the graph), and the
    // monitor lands on shard 0. The map is a pure function of the
    // configuration, so every worker process recomputes it identically.
    let shard_of = if num_shards > 1 {
        let rpart = partition_routers(topology.as_ref(), num_shards);
        let mut shard_of = vec![0u32; sim.num_components()];
        for t in 0..terminals {
            let (router, _) = topology.terminal_attachment(TerminalId(t));
            shard_of[iface_cid(t)?.index()] = rpart[router.0 as usize];
        }
        for r in 0..routers {
            shard_of[router_cid(r)?.index()] = rpart[r as usize];
        }
        shard_of[monitor.index()] = 0;
        Some(shard_of)
    } else {
        None
    };

    let mut process = None;
    let engine: Box<dyn Engine<Ev>> = match mode {
        #[cfg(unix)]
        EngineMode::Worker { index, link } => {
            let shard_of = shard_of.unwrap_or_else(|| vec![0u32; sim.num_components()]);
            if index as usize >= num_shards {
                return Err(BuildError::invalid(format!(
                    "worker index {index} out of range for {num_shards} shards"
                )));
            }
            Box::new(sim.into_worker(index, num_shards, shard_of, link))
        }
        EngineMode::Auto => match choice {
            EngineChoice::Process(_) => {
                #[cfg(unix)]
                {
                    let worker_bin = match cfg.req_str("engine.worker_bin") {
                        Ok(s) => std::path::PathBuf::from(s),
                        Err(_) => std::env::current_exe().map_err(|e| {
                            BuildError::invalid(format!("cannot resolve engine.worker_bin: {e}"))
                        })?,
                    };
                    // `process.timeout_ms` is the documented key;
                    // `engine.worker_timeout_ms` remains as a fallback
                    // for configurations written before the block existed.
                    let fallback = cfg.opt_u64("engine.worker_timeout_ms", 60_000)?;
                    process = Some(ProcessPlan {
                        workers: num_shards as u32,
                        timeout_ms: cfg.opt_u64("process.timeout_ms", fallback)?,
                        worker_bin,
                        config_json: cfg.to_json(),
                        trace_capacity,
                    });
                    // Placeholder; `run_report` dispatches on the plan
                    // before this engine would ever run.
                    Box::new(sim)
                }
                #[cfg(not(unix))]
                {
                    return Err(BuildError::invalid(
                        "engine.transport \"process\" is only supported on unix platforms",
                    ));
                }
            }
            _ => match shard_of {
                Some(shard_of) => Box::new(sim.into_sharded(num_shards, shard_of)),
                None => Box::new(sim),
            },
        },
    };
    Ok(Built {
        engine,
        interfaces: interface_ids,
        routers: router_ids,
        monitor,
        topology,
        tick_limit,
        link_period,
        registry,
        fault,
        sample_interval,
        spans: spans_enabled,
        process,
        seed,
        num_shards: num_shards as u32,
        checkpoint,
        host,
        progress,
    })
}
