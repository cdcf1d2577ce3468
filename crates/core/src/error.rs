//! Errors raised while building or running a simulation.

use std::fmt;

use supersim_config::ConfigError;
use supersim_des::Tick;
use supersim_router::RouterError;
use supersim_topology::TopologyError;

/// Errors from assembling a simulation out of a configuration.
#[derive(Debug)]
pub enum BuildError {
    /// The configuration was malformed.
    Config(ConfigError),
    /// The topology parameters were invalid.
    Topology(TopologyError),
    /// The router parameters were invalid.
    Router(RouterError),
    /// A factory lookup failed.
    UnknownModel {
        /// Which registry was consulted (e.g. `"network"`).
        registry: &'static str,
        /// The requested model name.
        name: String,
    },
    /// Two configuration keys contradict each other.
    Conflict {
        /// The keys involved.
        keys: [&'static str; 2],
        /// Why they cannot both hold.
        reason: String,
    },
    /// Anything else (e.g. inconsistent cross-component parameters).
    Invalid(String),
}

impl BuildError {
    /// Convenience constructor for [`BuildError::Invalid`].
    pub fn invalid(message: impl Into<String>) -> Self {
        BuildError::Invalid(message.into())
    }
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Config(e) => write!(f, "{e}"),
            BuildError::Topology(e) => write!(f, "{e}"),
            BuildError::Router(e) => write!(f, "{e}"),
            BuildError::UnknownModel { registry, name } => {
                write!(f, "no {registry} model named {name:?} is registered")
            }
            BuildError::Conflict {
                keys: [a, b],
                reason,
            } => {
                write!(f, "conflicting configuration keys {a} and {b}: {reason}")
            }
            BuildError::Invalid(msg) => write!(f, "invalid simulation: {msg}"),
        }
    }
}

impl std::error::Error for BuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BuildError::Config(e) => Some(e),
            BuildError::Topology(e) => Some(e),
            BuildError::Router(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for BuildError {
    fn from(e: ConfigError) -> Self {
        BuildError::Config(e)
    }
}

impl From<TopologyError> for BuildError {
    fn from(e: TopologyError) -> Self {
        BuildError::Topology(e)
    }
}

impl From<RouterError> for BuildError {
    fn from(e: RouterError) -> Self {
        BuildError::Router(e)
    }
}

/// Errors from running a built simulation.
#[derive(Debug)]
pub enum SimError {
    /// A component reported a modeling error (paper §IV-D detection).
    Model(String),
    /// The simulation hit its tick limit before draining — usually a
    /// deadlock or a runaway configuration.
    Stalled {
        /// The tick at which the run was cut off.
        tick: Tick,
    },
    /// The no-progress watchdog fired: events kept executing (or the
    /// queue went quiet) but no flit reached a terminal for a whole
    /// watchdog window — deadlock or livelock.
    Watchdog {
        /// Simulated time when the watchdog tripped.
        tick: Tick,
        /// The last tick at which a flit was delivered.
        last_progress: Tick,
    },
    /// The event queue drained before the workload finished — traffic was
    /// lost in flight (e.g. credits destroyed by fault injection).
    Incomplete {
        /// Simulated time when the queue went empty.
        tick: Tick,
    },
    /// A worker process of a multi-process run died, hung past the
    /// watchdog budget, or failed to start. The run degrades to whatever
    /// the surviving workers reported.
    Worker {
        /// The index of the failed worker.
        worker: u32,
        /// What happened to it.
        reason: String,
    },
    /// Resuming from a checkpoint failed: the file was unreadable,
    /// corrupted, from a different configuration, or its state blob did
    /// not restore cleanly into the rebuilt simulation.
    Resume {
        /// Why the checkpoint could not be restored.
        reason: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Model(msg) => write!(f, "model error: {msg}"),
            SimError::Stalled { tick } => {
                write!(f, "simulation did not drain by tick {tick} (deadlock?)")
            }
            SimError::Watchdog {
                tick,
                last_progress,
            } => write!(
                f,
                "watchdog: no forward progress since tick {last_progress} \
                 (tripped at tick {tick}) — deadlock or livelock"
            ),
            SimError::Incomplete { tick } => write!(
                f,
                "event queue drained at tick {tick} before the workload \
                 finished — traffic was lost in flight"
            ),
            SimError::Worker { worker, reason } => {
                write!(f, "worker {worker} failed: {reason}")
            }
            SimError::Resume { reason } => {
                write!(f, "cannot resume from checkpoint: {reason}")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        let e = BuildError::UnknownModel {
            registry: "network",
            name: "warp".into(),
        };
        assert_eq!(
            e.to_string(),
            "no network model named \"warp\" is registered"
        );
        let e = SimError::Stalled { tick: 99 };
        assert!(e.to_string().contains("99"));
    }

    #[test]
    fn conversions() {
        let c: BuildError = ConfigError::Missing { path: "x".into() }.into();
        assert!(matches!(c, BuildError::Config(_)));
        let t: BuildError = TopologyError::new("bad").into();
        assert!(matches!(t, BuildError::Topology(_)));
        let r: BuildError = RouterError::new("bad").into();
        assert!(matches!(r, BuildError::Router(_)));
    }
}
