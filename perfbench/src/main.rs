//! End-to-end and per-layer benchmark of SuperSim-rs.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload torus64_uniform --seed 1 --seconds 35 --trace 0
//! ```
//!
//! One invocation measures one workload (a file under `workloads/`) at
//! one seed, on three backends: the sequential engine (`seq`), two
//! shards on threads (`sharded2`), and two worker processes
//! (`workers2`). It repeats passes of one run per backend until
//! `--seconds` have passed. Each run is a child process of its own, so
//! its peak resident memory and its set-up (configuration load, scenario
//! compile, `SuperSim::from_config`) are those of a fresh process; only
//! one simulation runs at a time.
//!
//! Every run is checked: it must report ok, deliver packets, and
//! produce the same output digest as the first sequential run (sample
//! log, metrics without the per-shard and host-time planes, time
//! series). Runs that fail any check are counted in `failed`.
//!
//! With `--trace 0` the result line carries the end-to-end metrics
//! (medians over the runs). With `--trace 1` every pass also makes a
//! traced run per backend (`host.profile.enabled`), and the result line
//! carries the per-layer metrics; the benchmark's own spans around each
//! public call are written as a Chrome `trace_event` file next to the
//! executable. The last line of standard output is the JSON result.

mod metrics;
mod run;
mod workload;

use std::collections::BTreeMap;
use std::io::Read as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use supersim_stats::TraceEventBuilder;

use metrics::{BackendRuns, Record};
use workload::{elapsed_ns, Backend, Workload};

/// Passes (one run per backend each) made even when `--seconds` has
/// already passed.
const MIN_PASSES: usize = 3;
/// A run that takes longer than this is killed and counted as failed.
const RUN_TIMEOUT: Duration = Duration::from_secs(60);

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} must be a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::find(value).ok_or_else(|| {
                    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    let result = match argv.get(1).map(String::as_str) {
        // A `workers2` run re-executes this binary once per shard.
        Some("__worker") => {
            let (Some(socket), Some(index)) = (argv.get(2), argv.get(3)) else {
                eprintln!("usage: perfbench __worker <socket> <index>");
                return ExitCode::FAILURE;
            };
            let Ok(index) = index.parse::<u32>() else {
                eprintln!("perfbench __worker: index must be an integer, got {index:?}");
                return ExitCode::FAILURE;
            };
            return ExitCode::from(supersim_core::run_worker(socket, index) as u8);
        }
        Some("__run") => run::main(&argv[2..]),
        _ => parse_args(&argv[1..]).and_then(|a| bench(&a)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One child run, as the orchestrator saw it.
struct Sample {
    backend: Backend,
    traced: bool,
    /// Start and end of the child process on the orchestrator clock, ns.
    spawn_ns: u64,
    end_ns: u64,
    record: Option<Record>,
}

fn bench(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let clock = Instant::now();
    let scratch = std::env::current_exe()
        .map_err(|e| format!("cannot locate the benchmark binary: {e}"))?
        .with_file_name("perfbench-tmp");
    let mut tb = TraceEventBuilder::new();
    tb.process_name(0, "perfbench");
    for b in Backend::ALL {
        tb.thread_name(0, b as u64, b.name());
    }

    // --- measurement: passes of one run per backend -----------------
    let modes: &[bool] = if args.trace { &[false, true] } else { &[false] };
    let deadline = Duration::from_secs(args.seconds);
    let measure = Instant::now();
    let mut samples = Vec::new();
    let mut passes = 0;
    while passes < MIN_PASSES || measure.elapsed() < deadline {
        for b in Backend::ALL {
            for &traced in modes {
                samples.push(run_child(w, args.seed, b, traced, &scratch, clock));
            }
        }
        passes += 1;
    }
    let _ = std::fs::remove_dir_all(&scratch);

    // --- correctness: every run against the first sequential run ----
    let reference = samples
        .iter()
        .filter(|s| s.backend == Backend::Seq && !s.traced)
        .find_map(|s| s.record.as_ref())
        .map(|r| r.digest.clone());
    let mut failed = 0;
    for s in &samples {
        let problem = match &s.record {
            None => Some("no record".to_string()),
            Some(r) if !r.ok => Some(format!("not ok: {}", r.error)),
            Some(r) if r.delivered == 0 => Some("delivered no packets".to_string()),
            Some(r) if Some(&r.digest) != reference.as_ref() => Some(format!(
                "digest {} differs from the seq reference",
                r.digest
            )),
            Some(_) => None,
        };
        if let Some(p) = problem {
            failed += 1;
            eprintln!(
                "perfbench: {} {}{} run failed: {p}",
                w.name,
                s.backend.name(),
                if s.traced { " traced" } else { "" }
            );
        }
    }

    // --- metrics ----------------------------------------------------
    let mut by_backend: BTreeMap<&'static str, BackendRuns<'_>> = BTreeMap::new();
    for s in &samples {
        let Some(r) = &s.record else { continue };
        let runs = by_backend.entry(s.backend.name()).or_default();
        if s.traced {
            runs.traced.push(r);
        } else {
            runs.plain.push(r);
        }
        run_spans(&mut tb, s, r);
    }
    for b in Backend::ALL {
        if by_backend.get(b.name()).is_none_or(|r| r.plain.is_empty()) {
            return Err(format!(
                "no {} run of {} produced a record",
                b.name(),
                w.name
            ));
        }
    }
    let (specs, values) = if args.trace {
        (
            metrics::per_layer(),
            metrics::per_layer_values(&by_backend)?,
        )
    } else {
        (
            metrics::end_to_end(),
            metrics::end_to_end_values(&by_backend),
        )
    };

    if args.trace {
        let path =
            scratch.with_file_name(format!("perfbench-{}-seed{}.trace.json", w.name, args.seed));
        std::fs::write(&path, tb.finish())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("perfbench: wrote {}", path.display());
    }

    let mut out = String::new();
    for s in &specs {
        let v = values
            .get(&s.name)
            .ok_or_else(|| format!("metric {} was not computed", s.name))?;
        let v = if v.is_finite() { *v } else { 0.0 };
        eprintln!(
            "perfbench: {:<40} {v:>16.6} {:<12} ({} is better)",
            s.name, s.unit, s.better
        );
        if !out.is_empty() {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}",
            s.name, s.unit
        ));
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{out}}}}}",
        failed == 0,
        samples.len(),
    );
    Ok(())
}

/// The spans of one run on its backend's track: the child process, and
/// within it each public call it made, placed by the child's offsets.
fn run_spans(tb: &mut TraceEventBuilder, s: &Sample, r: &Record) {
    let tid = s.backend as u64;
    let label = if s.traced { "traced run" } else { "run" };
    let us = |ns: u64| ns / 1000;
    tb.slice(0, tid, label, us(s.spawn_ns), us(s.end_ns - s.spawn_ns));
    let mut at = s.spawn_ns + r.gen_start;
    tb.slice(0, tid, "config::expand_file", us(at), us(r.load_ns));
    at += r.load_ns;
    if r.compile_ns > 0 {
        tb.slice(0, tid, "scenario::compile", us(at), us(r.compile_ns));
    }
    let build = s.spawn_ns + r.build_start;
    tb.slice(0, tid, "SuperSim::from_config", us(build), us(r.build_ns));
    let run = s.spawn_ns + r.run_start;
    tb.slice(0, tid, "run_report", us(run), us(r.run_ns));
}

/// Runs one simulation in a child process and collects its record.
fn run_child(
    w: &Workload,
    seed: u64,
    backend: Backend,
    traced: bool,
    scratch: &std::path::Path,
    clock: Instant,
) -> Sample {
    let spawn_ns = elapsed_ns(clock);
    let record = spawn_and_wait(w, seed, backend, traced, scratch).unwrap_or_else(|e| {
        eprintln!("perfbench: {} {} run: {e}", w.name, backend.name());
        None
    });
    if let Some(r) = &record {
        let mode = if traced { "traced" } else { "run" };
        eprintln!(
            "perfbench: {mode} {} {:.6} s ({} ticks stolen)",
            backend.name(),
            r.run_s(),
            r.steal
        );
    }
    Sample {
        backend,
        traced,
        spawn_ns,
        end_ns: elapsed_ns(clock),
        record,
    }
}

fn spawn_and_wait(
    w: &Workload,
    seed: u64,
    backend: Backend,
    traced: bool,
    scratch: &std::path::Path,
) -> Result<Option<Record>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir: PathBuf = scratch.join(format!("{}-{}", std::process::id(), backend.name()));
    let mut child = Command::new(exe)
        .arg("__run")
        .arg(w.name)
        .arg(seed.to_string())
        .arg(backend.name())
        .arg(if traced { "1" } else { "0" })
        .arg(&dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    // Block on the child's output and exit in a helper thread, so the
    // orchestrator stays off the CPUs while the run is measured; kill
    // the child if it overstays.
    let pid = child.id();
    let (tx, rx) = mpsc::channel();
    let (status, stdout) = std::thread::scope(|s| {
        s.spawn(|| {
            let mut stdout = String::new();
            if let Some(mut pipe) = child.stdout.take() {
                let _ = pipe.read_to_string(&mut stdout);
            }
            let _ = tx.send((child.wait(), stdout));
        });
        match rx.recv_timeout(RUN_TIMEOUT) {
            Ok(done) => Ok(done),
            Err(_) => {
                let _ = Command::new("kill")
                    .args(["-KILL", &pid.to_string()])
                    .status();
                let _ = rx.recv();
                Err(format!("killed after {RUN_TIMEOUT:?}"))
            }
        }
    })?;
    let status = status.map_err(|e| e.to_string())?;
    if !status.success() {
        return Err(format!("exited with {status}"));
    }
    Ok(stdout.lines().last().and_then(Record::parse))
}
