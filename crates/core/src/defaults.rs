//! Built-in model constructors registered into the factories.

use std::sync::Arc;

use supersim_config::Value;

use supersim_router::{FlowControl, IoqConfig, IqConfig, OqConfig};
use supersim_topology::{
    AdaptiveTorusRouting, DimOrderRouting, Dragonfly, DragonflyMode, DragonflyRouting, FoldedClos,
    HyperX, HyperXMode, HyperXRouting, RoutingAlgorithm, Torus, UpDownMode, UpDownRouting,
};
use supersim_workload::{
    Application, BitComplement, BlastApp, BlastConfig, CrossSubtree, Hotspot, Incast, Neighbor,
    PingPongApp, PingPongConfig, PulseApp, PulseConfig, RandomPermutation, SizeDistribution,
    Tornado, TrafficPattern, Transpose, UniformRandom,
};

use crate::error::BuildError;
use crate::factory::{Factories, NetworkPlan, RouterCtx};

/// Registers every built-in model.
pub(crate) fn register_builtin(f: &mut Factories) {
    register_networks(f);
    register_routers(f);
    register_apps(f);
    register_patterns(f);
}

fn u32s(values: Vec<u64>) -> Vec<u32> {
    values.into_iter().map(|x| x as u32).collect()
}

fn vcs_of(net: &Value) -> Result<u32, BuildError> {
    let vcs = net.req_u64("vcs")? as u32;
    if vcs == 0 {
        return Err(BuildError::invalid("network.vcs must be at least 1"));
    }
    Ok(vcs)
}

fn register_networks(f: &mut Factories) {
    f.networks.register_raw("torus", |net| {
        let widths = u32s(net.req_u64_array("topology.widths")?);
        let conc = net.req_u64("topology.concentration")? as u32;
        let vcs = vcs_of(net)?;
        let algo = net
            .opt_str("routing.algorithm", "dimension_order")?
            .to_string();
        let topology = Arc::new(Torus::new(widths, conc)?);
        let routing: Arc<dyn Fn(_, _) -> Box<dyn RoutingAlgorithm> + Send + Sync> =
            match algo.as_str() {
                "dimension_order" => {
                    if vcs < 2 || vcs % 2 != 0 {
                        return Err(BuildError::invalid(
                            "dimension order routing on a torus needs an even number of VCs",
                        ));
                    }
                    let t = Arc::clone(&topology);
                    Arc::new(move |_, _| Box::new(DimOrderRouting::new(Arc::clone(&t), vcs)))
                }
                "adaptive" => {
                    if vcs < 3 {
                        return Err(BuildError::invalid(
                            "adaptive torus routing needs at least 3 VCs (2 escape + adaptive)",
                        ));
                    }
                    let t = Arc::clone(&topology);
                    Arc::new(move |_, _| Box::new(AdaptiveTorusRouting::new(Arc::clone(&t), vcs)))
                }
                other => {
                    return Err(BuildError::UnknownModel {
                        registry: "torus routing algorithm",
                        name: other.to_string(),
                    })
                }
            };
        Ok(NetworkPlan { topology, routing })
    });

    f.networks.register_raw("folded_clos", |net| {
        let levels = net.req_u64("topology.levels")? as u32;
        let k = net.req_u64("topology.k")? as u32;
        let vcs = vcs_of(net)?;
        let algo = net
            .opt_str("routing.algorithm", "adaptive_updown")?
            .to_string();
        let topology = Arc::new(FoldedClos::new(levels, k)?);
        let mode = match algo.as_str() {
            "adaptive_updown" => UpDownMode::Adaptive,
            "deterministic_updown" => UpDownMode::Deterministic,
            other => {
                return Err(BuildError::UnknownModel {
                    registry: "folded clos routing algorithm",
                    name: other.to_string(),
                })
            }
        };
        let t = Arc::clone(&topology);
        let routing: Arc<dyn Fn(_, _) -> Box<dyn RoutingAlgorithm> + Send + Sync> =
            Arc::new(move |_, _| Box::new(UpDownRouting::new(Arc::clone(&t), mode, vcs)));
        Ok(NetworkPlan { topology, routing })
    });

    f.networks.register_raw("hyperx", |net| {
        let widths = u32s(net.req_u64_array("topology.widths")?);
        let conc = net.req_u64("topology.concentration")? as u32;
        let vcs = vcs_of(net)?;
        let algo = net.opt_str("routing.algorithm", "minimal")?.to_string();
        let topology = Arc::new(HyperX::new(widths, conc)?);
        let mode = match algo.as_str() {
            "minimal" => HyperXMode::Minimal,
            "valiant" => {
                if vcs < 2 {
                    return Err(BuildError::invalid("valiant needs at least 2 VCs"));
                }
                HyperXMode::Valiant
            }
            "ugal" => {
                if vcs < 2 {
                    return Err(BuildError::invalid("ugal needs at least 2 VCs"));
                }
                HyperXMode::Ugal {
                    threshold: net.opt_f64("routing.threshold", 0.0)?,
                }
            }
            other => {
                return Err(BuildError::UnknownModel {
                    registry: "hyperx routing algorithm",
                    name: other.to_string(),
                })
            }
        };
        let t = Arc::clone(&topology);
        let routing: Arc<dyn Fn(_, _) -> Box<dyn RoutingAlgorithm> + Send + Sync> =
            Arc::new(move |_, _| Box::new(HyperXRouting::new(Arc::clone(&t), mode, vcs)));
        Ok(NetworkPlan { topology, routing })
    });

    f.networks.register_raw("dragonfly", |net| {
        let a = net.req_u64("topology.group_size")? as u32;
        let h = net.req_u64("topology.global_ports")? as u32;
        let p = net.req_u64("topology.concentration")? as u32;
        let vcs = vcs_of(net)?;
        let algo = net.opt_str("routing.algorithm", "minimal")?.to_string();
        let topology = Arc::new(Dragonfly::new(a, h, p)?);
        let (mode, need) = match algo.as_str() {
            "minimal" => (DragonflyMode::Minimal, 3),
            "ugal" => (
                DragonflyMode::Ugal {
                    threshold: net.opt_f64("routing.threshold", 0.0)?,
                },
                6,
            ),
            other => {
                return Err(BuildError::UnknownModel {
                    registry: "dragonfly routing algorithm",
                    name: other.to_string(),
                })
            }
        };
        if vcs < need {
            return Err(BuildError::invalid(format!(
                "dragonfly {algo} routing needs at least {need} VCs"
            )));
        }
        let t = Arc::clone(&topology);
        let routing: Arc<dyn Fn(_, _) -> Box<dyn RoutingAlgorithm> + Send + Sync> =
            Arc::new(move |_, _| Box::new(DragonflyRouting::new(Arc::clone(&t), mode, vcs)));
        Ok(NetworkPlan { topology, routing })
    });
}

fn flow_control_of(cfg: &Value) -> Result<FlowControl, BuildError> {
    let name = cfg.opt_str("flow_control", "flit_buffer")?;
    FlowControl::from_name(name).ok_or_else(|| BuildError::UnknownModel {
        registry: "flow control technique",
        name: name.to_string(),
    })
}

fn register_routers(f: &mut Factories) {
    f.routers.register("output_queued", |ctx: RouterCtx<'_>| {
        let cfg = ctx.config;
        let output_queue = match cfg.path("output_queue") {
            None => None,
            Some(v) if v.as_str() == Some("infinite") => None,
            Some(_) => Some(cfg.req_u64("output_queue")? as u32),
        };
        Ok(OqConfig {
            core: ctx.core_config()?,
            output_queue,
            core_latency: cfg.opt_u64("core_latency", 1)?,
        }
        .build()?)
    });

    f.routers.register("input_queued", |ctx: RouterCtx<'_>| {
        let cfg = ctx.config;
        Ok(IqConfig {
            core: ctx.core_config()?,
            xbar_latency: cfg.opt_u64("xbar_latency", 1)?,
            flow_control: flow_control_of(cfg)?,
            arbiter: cfg.opt_str("arbiter", "round_robin")?.to_string(),
        }
        .build()?)
    });

    f.routers
        .register("input_output_queued", |ctx: RouterCtx<'_>| {
            let cfg = ctx.config;
            Ok(IoqConfig {
                core: ctx.core_config()?,
                output_queue: cfg.req_u64("output_queue")? as u32,
                xbar_latency: cfg.opt_u64("xbar_latency", 1)?,
                flow_control: flow_control_of(cfg)?,
                arbiter: cfg.opt_str("arbiter", "round_robin")?.to_string(),
            }
            .build()?)
        });
}

/// Parses `message_size` (fixed) or `message_sizes` (weighted array of
/// `[size, weight]` pairs).
fn size_distribution(cfg: &Value) -> Result<SizeDistribution, BuildError> {
    if let Some(list) = cfg.path("message_sizes") {
        let pairs = list
            .as_array()
            .ok_or_else(|| BuildError::invalid("message_sizes must be an array"))?;
        let mut choices = Vec::new();
        for p in pairs {
            let pair = p
                .as_array()
                .filter(|a| a.len() == 2)
                .ok_or_else(|| BuildError::invalid("message_sizes entries are [size, weight]"))?;
            let size = pair[0]
                .as_u64()
                .filter(|&s| s > 0)
                .ok_or_else(|| BuildError::invalid("message size must be a positive integer"))?;
            let weight = pair[1]
                .as_f64()
                .filter(|&w| w > 0.0)
                .ok_or_else(|| BuildError::invalid("message weight must be positive"))?;
            choices.push((size as u32, weight));
        }
        if choices.is_empty() {
            return Err(BuildError::invalid("message_sizes must not be empty"));
        }
        return Ok(SizeDistribution::Weighted(choices));
    }
    let size = cfg.opt_u64("message_size", 1)?;
    if size == 0 {
        return Err(BuildError::invalid("message_size must be at least 1"));
    }
    Ok(SizeDistribution::Fixed(size as u32))
}

/// Parses an optional terminal-id set (the `sources` / `initiators` keys)
/// into the sorted form the apps binary-search.
fn terminal_set(
    cfg: &Value,
    key: &str,
    terminals: u32,
) -> Result<Option<std::sync::Arc<[u32]>>, BuildError> {
    if cfg.path(key).is_none() {
        return Ok(None);
    }
    Ok(Some(std::sync::Arc::from(
        hot_set(cfg, key, terminals)?.into_boxed_slice(),
    )))
}

/// Parses a required terminal-id array for a pattern (the `hot` /
/// `victims` keys): non-empty, distinct, all below `terminals`, returned
/// sorted ascending.
fn hot_set(cfg: &Value, key: &str, terminals: u32) -> Result<Vec<u32>, BuildError> {
    let ids = cfg.req_u64_array(key)?;
    if ids.is_empty() {
        return Err(BuildError::invalid(format!("{key} must not be empty")));
    }
    let mut set = Vec::with_capacity(ids.len());
    for id in ids {
        if id >= terminals as u64 {
            return Err(BuildError::invalid(format!(
                "{key}: terminal {id} is out of range (network has {terminals} terminals)"
            )));
        }
        set.push(id as u32);
    }
    set.sort_unstable();
    if set.windows(2).any(|w| w[0] == w[1]) {
        return Err(BuildError::invalid(format!(
            "{key} must not contain duplicate terminals"
        )));
    }
    Ok(set)
}

fn register_apps(f: &mut Factories) {
    f.apps.register("blast", |cfg, ctx| {
        let pattern_name = cfg.opt_str("pattern.name", "uniform_random")?.to_string();
        let pattern_cfg = cfg.path("pattern").cloned().unwrap_or_default();
        let pattern = ctx
            .patterns
            .build(&pattern_name, &pattern_cfg, ctx.terminals)?;
        let load = cfg.req_f64("load")?;
        if !(0.0..=1.0).contains(&load) {
            return Err(BuildError::invalid(
                "blast load must be in [0, 1] (fraction of the line rate)",
            ));
        }
        let load = load / ctx.link_period as f64;
        let sample_messages = match cfg.path("sample_messages") {
            None => None,
            Some(_) => Some(cfg.req_u64("sample_messages")?),
        };
        let sample_ticks = match cfg.path("sample_ticks") {
            None => None,
            Some(_) => Some(cfg.req_u64("sample_ticks")?),
        };
        Ok(Box::new(BlastApp::new(BlastConfig {
            pattern,
            load,
            sizes: size_distribution(cfg)?,
            warmup_ticks: cfg.opt_u64("warmup_ticks", 0)?,
            sample_messages,
            sample_ticks,
            sources: terminal_set(cfg, "sources", ctx.terminals)?,
        })) as Box<dyn Application>)
    });

    f.apps.register("pulse", |cfg, ctx| {
        let pattern_name = cfg.opt_str("pattern.name", "uniform_random")?.to_string();
        let pattern_cfg = cfg.path("pattern").cloned().unwrap_or_default();
        let pattern = ctx
            .patterns
            .build(&pattern_name, &pattern_cfg, ctx.terminals)?;
        let load = cfg.req_f64("load")?;
        if !(0.0 < load && load <= 1.0) {
            return Err(BuildError::invalid(
                "pulse load must be in (0, 1] (fraction of the line rate)",
            ));
        }
        let load = load / ctx.link_period as f64;
        Ok(Box::new(PulseApp::new(PulseConfig {
            pattern,
            load,
            sizes: size_distribution(cfg)?,
            delay: cfg.opt_u64("delay", 0)?,
            count: cfg.req_u64("count")?,
            sources: terminal_set(cfg, "sources", ctx.terminals)?,
        })) as Box<dyn Application>)
    });

    f.apps.register("pingpong", |cfg, ctx| {
        let pattern_name = cfg.opt_str("pattern.name", "uniform_random")?.to_string();
        let pattern_cfg = cfg.path("pattern").cloned().unwrap_or_default();
        let pattern = ctx
            .patterns
            .build(&pattern_name, &pattern_cfg, ctx.terminals)?;
        let request_size = cfg.opt_u64("request_size", 1)? as u32;
        let reply_size = cfg.opt_u64("reply_size", 2)? as u32;
        if request_size == reply_size || request_size == 0 || reply_size == 0 {
            return Err(BuildError::invalid(
                "pingpong request and reply sizes must be distinct and non-zero",
            ));
        }
        Ok(Box::new(PingPongApp::new(PingPongConfig {
            pattern,
            request_size,
            reply_size,
            transactions: cfg.req_u64("transactions")?,
            initiators: terminal_set(cfg, "initiators", ctx.terminals)?,
        })) as Box<dyn Application>)
    });
}

fn register_patterns(f: &mut Factories) {
    f.patterns.register("uniform_random", |_cfg, terminals| {
        if terminals < 2 {
            return Err(BuildError::invalid(
                "uniform random needs at least 2 terminals",
            ));
        }
        Ok(Arc::new(UniformRandom::new(terminals)) as Arc<dyn TrafficPattern>)
    });
    f.patterns.register("bit_complement", |_cfg, terminals| {
        if terminals < 2 {
            return Err(BuildError::invalid(
                "bit complement needs at least 2 terminals",
            ));
        }
        Ok(Arc::new(BitComplement::new(terminals)) as Arc<dyn TrafficPattern>)
    });
    f.patterns.register("tornado", |cfg, _terminals| {
        let widths = u32s(cfg.req_u64_array("widths")?);
        let conc = cfg.req_u64("concentration")? as u32;
        if widths.is_empty() || conc == 0 {
            return Err(BuildError::invalid(
                "tornado needs torus widths and concentration",
            ));
        }
        Ok(Arc::new(Tornado::new(widths, conc)) as Arc<dyn TrafficPattern>)
    });
    f.patterns.register("transpose", |_cfg, terminals| {
        let side = (terminals as f64).sqrt() as u32;
        if side * side != terminals {
            return Err(BuildError::invalid(
                "transpose needs a square terminal count",
            ));
        }
        Ok(Arc::new(Transpose::new(terminals)) as Arc<dyn TrafficPattern>)
    });
    f.patterns.register("neighbor", |cfg, terminals| {
        if terminals < 2 {
            return Err(BuildError::invalid("neighbor needs at least 2 terminals"));
        }
        let offset = cfg.opt_u64("offset", 1)? as u32;
        Ok(Arc::new(Neighbor::new(terminals, offset)) as Arc<dyn TrafficPattern>)
    });
    f.patterns.register("cross_subtree", |cfg, terminals| {
        let subtrees = cfg.req_u64("subtrees")? as u32;
        let per = cfg.req_u64("per_subtree")? as u32;
        if subtrees < 2 || per == 0 || subtrees * per != terminals {
            return Err(BuildError::invalid(
                "cross_subtree: subtrees * per_subtree must equal the terminal count",
            ));
        }
        Ok(Arc::new(CrossSubtree::new(subtrees, per)) as Arc<dyn TrafficPattern>)
    });
    f.patterns.register("hotspot", |cfg, terminals| {
        if terminals < 2 {
            return Err(BuildError::invalid("hotspot needs at least 2 terminals"));
        }
        let hot = hot_set(cfg, "hot", terminals)?;
        let bias = cfg.opt_f64("bias", 0.8)?;
        if !(0.0..=1.0).contains(&bias) {
            return Err(BuildError::invalid("hotspot bias must be in [0, 1]"));
        }
        Ok(Arc::new(Hotspot::new(terminals, hot, bias)) as Arc<dyn TrafficPattern>)
    });
    f.patterns.register("incast", |cfg, terminals| {
        if terminals < 2 {
            return Err(BuildError::invalid("incast needs at least 2 terminals"));
        }
        let victims = hot_set(cfg, "victims", terminals)?;
        Ok(Arc::new(Incast::new(terminals, victims)) as Arc<dyn TrafficPattern>)
    });
    f.patterns.register("random_permutation", |cfg, terminals| {
        if terminals < 2 {
            return Err(BuildError::invalid(
                "permutation needs at least 2 terminals",
            ));
        }
        let seed = cfg.opt_u64("seed", 1)?;
        Ok(Arc::new(RandomPermutation::new(terminals, seed)) as Arc<dyn TrafficPattern>)
    });
}
