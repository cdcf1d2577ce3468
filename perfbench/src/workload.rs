//! The fixed workloads and backends, and how a run's configuration is
//! generated from them.
//!
//! Everything a run simulates comes from a declaration file under
//! `workloads/` plus the seed: the file is loaded (and compiled, for a
//! scenario declaration), the seed is applied as the `seed` override,
//! and the backend is selected through the `engine.*` paths. The
//! program only ever sees the generated configuration.

use std::path::{Path, PathBuf};
use std::time::Instant;

use supersim_config::{self as config, Value};

/// One benchmark workload: a configuration or scenario file of the
/// benchmark's own.
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// File under `workloads/`.
    file: &'static str,
    /// Whether the file is a scenario declaration for the compiler.
    pub scenario: bool,
    /// Whether the configuration checkpoints; each run then gets a
    /// fresh `checkpoint.dir`.
    pub checkpoints: bool,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "torus64_uniform",
        file: "torus64_uniform.json",
        scenario: false,
        checkpoints: false,
    },
    Workload {
        name: "clos512_burst",
        file: "clos512_burst.json",
        scenario: true,
        checkpoints: false,
    },
    Workload {
        name: "dragonfly72_ckpt",
        file: "dragonfly72_ckpt.json",
        scenario: false,
        checkpoints: true,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The execution backends every workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The sequential engine.
    Seq,
    /// `--engine sharded --shards 2`: two shards on threads.
    Sharded2,
    /// `--workers 2`: two shards, one OS process each.
    Workers2,
}

impl Backend {
    /// Every backend, in measurement order.
    pub const ALL: [Backend; 3] = [Backend::Seq, Backend::Sharded2, Backend::Workers2];

    /// The metric-name suffix.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Seq => "seq",
            Backend::Sharded2 => "sharded2",
            Backend::Workers2 => "workers2",
        }
    }

    /// Parses a metric-name suffix.
    pub fn parse(name: &str) -> Option<Backend> {
        Backend::ALL.into_iter().find(|b| b.name() == name)
    }

    /// Shards the backend runs (the sequential engine is one shard).
    pub fn shards(self) -> u64 {
        match self {
            Backend::Seq => 1,
            Backend::Sharded2 | Backend::Workers2 => 2,
        }
    }

    /// Whether the engine runs inside the process that called
    /// `run_report` (checkpoint files are then written between run
    /// segments, outside the engine's wall time).
    pub fn in_process(self) -> bool {
        self != Backend::Workers2
    }

    /// Selects this backend in `cfg`, the same paths `supersim
    /// --engine` / `--shards` / `--workers` set.
    pub fn apply(self, cfg: &mut Value) -> Result<(), String> {
        let (kind, transport) = match self {
            Backend::Seq => ("sequential", "thread"),
            Backend::Sharded2 => ("sharded", "thread"),
            Backend::Workers2 => ("sharded", "process"),
        };
        set(cfg, "engine.kind", Value::Str(kind.into()))?;
        set(cfg, "engine.transport", Value::Str(transport.into()))?;
        set(cfg, "engine.shards", Value::Int(self.shards() as i64))
    }
}

/// Sets `path` in `cfg`, as an error message on failure.
pub fn set(cfg: &mut Value, path: &str, value: Value) -> Result<(), String> {
    cfg.set_path(path, value)
        .map_err(|e| format!("cannot set {path}: {e}"))
}

/// A generated configuration and the host time each step took.
pub struct Generated {
    /// The configuration the program receives.
    pub config: Value,
    /// `supersim_config::expand_file`, nanoseconds.
    pub load_ns: u64,
    /// `supersim_scenario::compile`, nanoseconds; 0 when bypassed.
    pub compile_ns: u64,
}

/// The directory holding the workload files, resolved from the package
/// sources so the benchmark runs from any working directory.
fn workloads_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("workloads")
}

/// Loads (and compiles) `w` and applies `seed` as the `seed` override.
pub fn generate(w: &Workload, seed: u64) -> Result<Generated, String> {
    let path = workloads_dir().join(w.file);
    let t0 = Instant::now();
    let doc = config::expand_file(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let load_ns = elapsed_ns(t0);
    let (mut cfg, compile_ns) = if w.scenario {
        let t1 = Instant::now();
        let compiled =
            supersim_scenario::compile(&doc).map_err(|e| format!("{}: {e}", path.display()))?;
        (compiled.config, elapsed_ns(t1))
    } else {
        (doc, 0)
    };
    config::apply_overrides(&mut cfg, [format!("seed=uint={seed}")]).map_err(|e| e.to_string())?;
    Ok(Generated {
        config: cfg,
        load_ns,
        compile_ns,
    })
}

/// Nanoseconds since `t`.
pub fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}
