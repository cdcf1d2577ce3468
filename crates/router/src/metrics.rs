//! Router observability metrics, kept by every router's
//! [`RouterCore`](crate::RouterCore).
//!
//! The plain [`RouterCounters`](crate::RouterCounters) answer "how many
//! flits moved"; these metrics answer *why they didn't*: allocation
//! grants versus denials, candidates starved of credits, and per-port
//! buffer occupancy with high-water marks. All primitives come from
//! `supersim-stats::metrics` and cost a couple of integer instructions
//! per update.

use supersim_netbase::Port;
use supersim_stats::{Counter, Gauge};

/// Allocation and flow-control metrics of one router.
#[derive(Debug, Clone, Default)]
pub struct RouterMetrics {
    /// Crossbar / drain allocation grants (one per flit moved by an
    /// arbitration stage).
    pub grants: Counter,
    /// Allocation rounds where an output had candidates but granted none.
    pub denials: Counter,
    /// Candidates (or ready flits) held back by zero credits / queue
    /// space at judgment time.
    pub credit_stalls: Counter,
    /// Per-input-port buffered flit count, with high-water marks.
    occupancy: Vec<Gauge>,
}

impl RouterMetrics {
    /// Metrics for a router with `radix` ports.
    pub fn new(radix: u32) -> Self {
        RouterMetrics {
            grants: Counter::new(),
            denials: Counter::new(),
            credit_stalls: Counter::new(),
            occupancy: vec![Gauge::new(); radix as usize],
        }
    }

    /// Notes a flit entering input port `port`'s buffers.
    #[inline]
    pub fn flit_buffered(&mut self, port: Port) {
        let g = &mut self.occupancy[port as usize];
        g.set(g.get() + 1);
    }

    /// Notes a flit leaving input port `port`'s buffers.
    #[inline]
    pub fn flit_unbuffered(&mut self, port: Port) {
        let g = &mut self.occupancy[port as usize];
        g.set(g.get().saturating_sub(1));
    }

    /// Per-input-port occupancy gauges, indexed by port.
    pub fn occupancy(&self) -> &[Gauge] {
        &self.occupancy
    }

    /// Serializes the metric values for a checkpoint.
    pub fn save(&self, out: &mut Vec<u8>) {
        use supersim_des::wire::put_varint;
        put_varint(out, self.grants.get());
        put_varint(out, self.denials.get());
        put_varint(out, self.credit_stalls.get());
        put_varint(out, self.occupancy.len() as u64);
        for g in &self.occupancy {
            put_varint(out, g.get());
            put_varint(out, g.max());
        }
    }

    /// Overlays saved metric values. Total: `None` on malformed input or
    /// a port-count mismatch.
    pub fn load(&mut self, buf: &mut &[u8]) -> Option<()> {
        use supersim_des::wire::get_varint;
        use supersim_stats::Counter;
        self.grants = Counter::from_value(get_varint(buf)?);
        self.denials = Counter::from_value(get_varint(buf)?);
        self.credit_stalls = Counter::from_value(get_varint(buf)?);
        let n = usize::try_from(get_varint(buf)?).ok()?;
        if n != self.occupancy.len() {
            return None;
        }
        for g in &mut self.occupancy {
            let value = get_varint(buf)?;
            let max = get_varint(buf)?;
            if max < value {
                return None;
            }
            *g = Gauge::from_parts(value, max);
        }
        Some(())
    }
}

/// Counter values at the last closed sampling window edge — the delta
/// basis of [`RouterCore`](crate::RouterCore)'s window sampling.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RouterSampleBase {
    pub(crate) credit_stalls: u64,
    pub(crate) grants: u64,
    pub(crate) flits_in: u64,
    pub(crate) flits_out: u64,
}

impl RouterSampleBase {
    /// Serializes the window delta basis for a checkpoint.
    pub fn save(&self, out: &mut Vec<u8>) {
        use supersim_des::wire::put_varint;
        put_varint(out, self.credit_stalls);
        put_varint(out, self.grants);
        put_varint(out, self.flits_in);
        put_varint(out, self.flits_out);
    }

    /// Decodes a base saved by [`RouterSampleBase::save`].
    pub fn load(buf: &mut &[u8]) -> Option<Self> {
        use supersim_des::wire::get_varint;
        Some(RouterSampleBase {
            credit_stalls: get_varint(buf)?,
            grants: get_varint(buf)?,
            flits_in: get_varint(buf)?,
            flits_out: get_varint(buf)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_tracks_per_port_high_water() {
        let mut m = RouterMetrics::new(3);
        m.flit_buffered(1);
        m.flit_buffered(1);
        m.flit_buffered(2);
        m.flit_unbuffered(1);
        assert_eq!(m.occupancy()[0].get(), 0);
        assert_eq!(m.occupancy()[1].get(), 1);
        assert_eq!(m.occupancy()[1].max(), 2);
        assert_eq!(m.occupancy()[2].get(), 1);
        // Unbuffering an already-empty port saturates at zero.
        m.flit_unbuffered(0);
        assert_eq!(m.occupancy()[0].get(), 0);
    }
}
