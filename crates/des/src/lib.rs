#![warn(missing_docs)]

//! Discrete-event simulation core for SuperSim-rs.
//!
//! This crate is the foundation of the simulator described in §III of the
//! SuperSim paper (ISPASS 2018): a discrete event simulation (DES) engine in
//! which *components* create *events*, events are ordered by a hierarchical
//! time value of (*tick*, *epsilon*), and an executor drains a priority queue
//! until it runs empty.
//!
//! The crate is deliberately generic over the event payload type `E` so that
//! the engine can be tested (and reused) independently of the network
//! simulator built on top of it.
//!
//! # Example
//!
//! ```
//! use supersim_des::{Component, Context, Simulator, Time};
//!
//! struct Counter {
//!     fires: u64,
//! }
//!
//! impl Component<u64> for Counter {
//!     fn name(&self) -> &str {
//!         "counter"
//!     }
//!     fn handle(&mut self, ctx: &mut Context<'_, u64>, event: u64) {
//!         self.fires += 1;
//!         if event < 3 {
//!             // Re-schedule ourselves one tick later.
//!             ctx.schedule_self(ctx.now().plus_ticks(1), event + 1);
//!         }
//!     }
//!     fn as_any(&self) -> &dyn std::any::Any {
//!         self
//!     }
//!     fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
//!         self
//!     }
//! }
//!
//! let mut sim = Simulator::new(0xC0FFEE);
//! let id = sim.add_component(Box::new(Counter { fires: 0 }));
//! sim.schedule(id, Time::at(0), 0u64);
//! let stats = sim.run();
//! assert_eq!(stats.events_executed, 4);
//! assert_eq!(sim.component_as::<Counter>(id).unwrap().fires, 4);
//! ```

mod clock;
mod component;
mod engine;
mod event;
mod host;
mod protocol;
mod rng;
mod simulator;
mod snapshot;
mod time;
mod trace;
mod transport;
pub mod wire;

pub use clock::Clock;
pub use component::{Component, ComponentId};
pub use engine::{
    Context, Engine, EngineMetrics, EngineOptions, EventStamp, RunOutcome, RunStats, BATCH_BUCKETS,
    EXTERNAL_SRC,
};
pub use event::{EventEntry, EventQueue};
pub use host::{HostRecorder, HostRoundSlice, HostShardTimes, ProgressShared, MAX_ROUND_SLICES};
#[cfg(unix)]
pub use protocol::WorkerEngine;
pub use rng::{Rng, SampleRange};
pub use simulator::{InProcessEngine, Simulator};
pub use time::{Epsilon, Tick, Time};
pub use trace::{TraceBuffer, TraceEvent, TraceSpec};
pub use transport::TransportError;
#[cfg(unix)]
pub use transport::{Hub, HubHostStats, HubResult, ProcessTransport, WorkerLink, WorkerSetup};

#[cfg(test)]
mod proptests;
