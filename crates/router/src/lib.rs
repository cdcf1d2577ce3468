#![warn(missing_docs)]

//! Router microarchitectures for SuperSim-rs (paper §IV-C).
//!
//! Every router is one [`Router`] component: a shared [`RouterCore`]
//! driven by one [`Pipeline`] strategy. The core owns the wiring, clock,
//! flit arena, input buffers, route table, downstream credits, routing
//! engines, congestion sensor, fault state, metrics, and sampler, and it
//! handles every event — flit and credit arrival, the fault protocol,
//! pipeline wake-ups — plus window sampling and the shared half of the
//! checkpoint codec. A pipeline holds only its own state and runs once
//! per core-clock edge. Three pipelines ship, built from the same common
//! components (arbiters, allocators, buffers, crossbar schedulers, and
//! congestion sensors):
//!
//! - [`OqConfig`] — the idealistic output-queued architecture: zero
//!   head-of-line blocking, no scheduling conflicts, infinite or finite
//!   output queues. Used by case study A (latent congestion detection).
//! - [`IqConfig`] — the standard input-queued architecture with full
//!   crossbar input speedup; flits wait in input queues until downstream
//!   credits are available. Used by case study C (flow control
//!   techniques).
//! - [`IoqConfig`] — the combined input/output-queued architecture with
//!   input and output speedup; flits wait at the inputs only for *output
//!   queue* credits and at the outputs for downstream credits. Used by
//!   case study B (congestion credit accounting).
//!
//! # Custom architectures
//!
//! A user-defined architecture is a [`Pipeline`] implementation on top
//! of [`RouterCore`]. Its `cycle` calls [`RouterCore::route_heads`] for
//! Stage-1 routing, inspects heads and credits through
//! [`RouterCore::route`], [`RouterCore::head`], [`RouterCore::credits`]
//! and [`RouterCore::link_busy`], moves flits with
//! [`RouterCore::forward`], and re-arms with [`RouterCore::wake_at`] or
//! [`RouterCore::wake_next_edge`]. Register it like a built-in model:
//!
//! ```text
//! factories.routers.register("first_come", |ctx: RouterCtx<'_>| {
//!     let core = RouterCore::new("first_come", ctx.core_config()?)?;
//!     let pipeline = FirstCome::new(core.ports());
//!     Ok(Router::new(core, Box::new(pipeline)))
//! });
//! ```
//!
//! `RouterCtx::core_config` (in `supersim-core`) reads the keys every
//! architecture shares from the `network.router` block, and the builder
//! arms the window sampler on every router it builds.
//!
//! The run report reads every router through [`Router::core`], so a
//! custom pipeline gets the same `router.*` metrics, time series,
//! profiling data, and checkpoints as a built-in one; pipeline state
//! beyond the core is checkpointed through [`Pipeline::snapshot`] and
//! [`Pipeline::restore`].

mod allocator;
mod arbiter;
mod buffer;
mod common;
mod congestion;
#[cfg(test)]
mod fused_model;
mod ioq;
mod iq;
mod metrics;
mod oq;
#[cfg(test)]
mod proptests;
mod router;
mod snapshot;
mod stages;
#[cfg(test)]
mod testutil;
mod xbar_sched;

pub use allocator::{AllocRequest, SeparableAllocator};
pub use arbiter::{
    arbiter_by_name, AgeBasedArbiter, Arbiter, FixedPriorityArbiter, RandomArbiter, Request,
    RoundRobinArbiter,
};
pub use buffer::VcBuffer;
pub use common::{RouterError, RouterPorts, RoutingFactory};
pub use congestion::{
    CongestionGranularity, CongestionSensor, CongestionSource, DelayedValue, SensorConfig,
};
pub use ioq::IoqConfig;
pub use iq::IqConfig;
pub use metrics::RouterMetrics;
pub use oq::OqConfig;
pub use router::{CoreConfig, Pipeline, Router, RouterCore, RouterCounters};
pub use snapshot::HandleClaims;
pub use xbar_sched::{FlowControl, OutputScheduler};
