//! The `check` command: the repo's tier-1 gate as one binary.
//!
//! Runs, in order, entirely offline:
//!
//! 1. `cargo build --release --locked --offline`
//! 2. `cargo test -q --locked --offline`
//! 3. `cargo test -q --locked --offline -p supersim-router` — the router
//!    crate's unit tests, including the randomized flit/credit
//!    conservation and hop-count properties over all nine architecture
//!    variants and the fused-allocation equivalence model
//! 4. `cargo test -q --locked --offline -p supersim-des` — the engine
//!    crate's unit tests: calendar-queue order, sequential ≡ sharded
//!    identity, watchdog trip identity across shard counts, checkpoint
//!    round trips, and the randomized ordering and cross-backend halt
//!    properties
//! 5. the engine benchmark in smoke mode (`bench_engine --smoke`), which
//!    asserts its own floors (every workload > 0 events/s, run stats
//!    non-empty) so a scheduler regression fails the gate, not just a
//!    correctness bug.
//!
//! ```text
//! cargo run --release -p supersim-tools --bin check
//! ```
//!
//! Exits non-zero on the first failing step and echoes the step's output,
//! so it is usable both interactively and from CI.

use std::process::{Command, ExitCode};

/// Runs one step, streaming its output; returns whether it succeeded.
fn step(name: &str, program: &str, args: &[&str]) -> bool {
    println!("==> {name}: {program} {}", args.join(" "));
    match Command::new(program).args(args).status() {
        Ok(status) if status.success() => true,
        Ok(status) => {
            eprintln!("check: step '{name}' failed with {status}");
            false
        }
        Err(e) => {
            eprintln!("check: cannot run {program}: {e}");
            false
        }
    }
}

fn main() -> ExitCode {
    // The bench smoke step additionally requires its floor line on stdout;
    // `--smoke` keeps it fast enough for tier-1 (a few hundred ms).
    let steps: &[(&str, &[&str])] = &[
        ("build", &["build", "--release", "--locked", "--offline"]),
        ("test", &["test", "-q", "--locked", "--offline"]),
        (
            "router properties",
            &[
                "test",
                "-q",
                "--locked",
                "--offline",
                "-p",
                "supersim-router",
            ],
        ),
        (
            "engine properties",
            &["test", "-q", "--locked", "--offline", "-p", "supersim-des"],
        ),
        (
            "bench smoke",
            &[
                "run",
                "--release",
                "--locked",
                "--offline",
                "-q",
                "-p",
                "supersim-bench",
                "--bin",
                "bench_engine",
                "--",
                "--smoke",
            ],
        ),
    ];
    for (name, args) in steps {
        if !step(name, "cargo", args) {
            return ExitCode::FAILURE;
        }
    }
    println!("==> all checks passed");
    ExitCode::SUCCESS
}
