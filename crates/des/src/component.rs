//! The component model (paper §III-A).
//!
//! A simulation is natively built of components which are able to create
//! events. Components interact exclusively by scheduling events for each
//! other through the [`Context`](crate::Context) handed to
//! [`Component::handle`]; same-tick interactions use the next epsilon to
//! preserve intra-tick ordering (see [`Time`](crate::Time)).

use std::any::Any;
use std::fmt;

use crate::engine::Context;
use crate::time::Tick;

/// Identifier of a component registered with a
/// [`Simulator`](crate::Simulator).
///
/// Ids are dense indices assigned in registration order, which makes them
/// cheap to store inside events and wiring tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId(pub(crate) u32);

impl ComponentId {
    /// The raw index of this component.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from a raw index.
    ///
    /// Intended for wiring tables that store component indices compactly;
    /// scheduling an event at an id that was never registered is reported as
    /// a simulation error by the executor.
    ///
    /// # Panics
    ///
    /// Debug builds panic when `index` does not fit the compact `u32`
    /// representation; release builds must use
    /// [`ComponentId::try_from_index`] when the index is not known to be
    /// in range, since silent truncation would alias two components.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        debug_assert!(
            index <= u32::MAX as usize,
            "component index {index} exceeds the u32 id space"
        );
        ComponentId(index as u32)
    }

    /// Checked variant of [`ComponentId::from_index`]: `None` when `index`
    /// exceeds the `u32` id space instead of truncating.
    #[inline]
    pub fn try_from_index(index: usize) -> Option<Self> {
        u32::try_from(index).ok().map(ComponentId)
    }
}

impl fmt::Display for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "component#{}", self.0)
    }
}

/// A simulation model that receives and creates events.
///
/// `E` is the event payload type shared by all components of one simulator.
/// Implementations should be cheap to call: `handle` runs once per event on
/// the simulator's hot path.
///
/// The `as_any` hooks allow the owner of a simulation to downcast components
/// back to their concrete types after the run, e.g. to extract recorded
/// statistics. A typical implementation is two one-line methods returning
/// `self`.
///
/// Components are required to be [`Send`] so that the sharded engine can
/// move them onto worker threads; a component still only ever runs on one
/// thread at a time (no `Sync` requirement), so ordinary owned state needs
/// no synchronization.
pub trait Component<E>: Any + Send {
    /// Short human-readable name used in error messages and traces.
    fn name(&self) -> &str;

    /// Processes one event addressed to this component.
    fn handle(&mut self, ctx: &mut Context<'_, E>, event: E);

    /// Closes one sampling window at the window edge `edge` (a multiple
    /// of the interval armed via
    /// [`EngineOptions::sample_interval`](crate::EngineOptions::sample_interval)).
    ///
    /// The engine guarantees that every event with a tick strictly below
    /// `edge` has executed and no event at or beyond `edge` has, so the
    /// component's state is exactly its state at the window boundary —
    /// on every backend and shard count. Components that participate in
    /// the time-series plane snapshot their counters here; the default
    /// is a no-op so ordinary components ignore sampling entirely.
    fn sample(&mut self, edge: Tick) {
        let _ = edge;
    }

    /// Coarse component class used by the host-time profiler to bucket
    /// per-event wall time (e.g. `"router"`, `"interface"`,
    /// `"monitor"`). Called only on sampled batches when host profiling
    /// is armed, never on the common path. Purely observational: the
    /// returned label feeds wall-clock attribution, not simulation
    /// state.
    fn host_class(&self) -> &'static str {
        "component"
    }

    /// Upcast for post-run inspection.
    fn as_any(&self) -> &dyn Any;

    /// Mutable upcast for post-run inspection.
    fn as_any_mut(&mut self) -> &mut dyn Any;

    /// Appends this component's *dynamic* state to `out` for a
    /// checkpoint.
    ///
    /// Structural state (wiring, tables, configuration) is rebuilt from
    /// the configuration on restore; only state that evolves during the
    /// run belongs here. Encoding must be a pure function of the state
    /// (the wire-plane rule), so identical states snapshot to identical
    /// bytes. The default captures nothing, which is correct for
    /// stateless components.
    fn snapshot(&self, out: &mut Vec<u8>) {
        let _ = out;
    }

    /// Overlays dynamic state captured by [`Component::snapshot`] onto
    /// this freshly rebuilt component. Total: malformed input yields
    /// `None`, never a panic. The default accepts the empty snapshot.
    fn restore(&mut self, buf: &mut &[u8]) -> Option<()> {
        let _ = buf;
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_round_trip() {
        let id = ComponentId::from_index(17);
        assert_eq!(id.index(), 17);
        assert_eq!(id.to_string(), "component#17");
    }

    #[test]
    fn id_ordering_is_index_ordering() {
        assert!(ComponentId::from_index(1) < ComponentId::from_index(2));
    }

    #[test]
    fn try_from_index_rejects_oversized_indices() {
        assert_eq!(
            ComponentId::try_from_index(u32::MAX as usize),
            Some(ComponentId(u32::MAX))
        );
        assert_eq!(ComponentId::try_from_index(u32::MAX as usize + 1), None);
        assert_eq!(ComponentId::try_from_index(usize::MAX), None);
    }

    #[test]
    #[should_panic(expected = "exceeds the u32 id space")]
    #[cfg(debug_assertions)]
    fn from_index_asserts_on_truncation() {
        let _ = ComponentId::from_index(1usize << 40);
    }
}
