//! Crash-recovery byte-diff matrix: a run interrupted at a checkpoint
//! boundary and resumed from the checkpoint file must produce output
//! byte-identical to an uninterrupted run — stdout report, metrics
//! snapshot, and timeseries files alike — across two topologies, two
//! seeds, and all three engine arrangements (sequential, in-process
//! sharded, multi-process workers).
//!
//! Sequential and sharded runs are crashed with the
//! `SUPERSIM_TEST_EXIT_AT_CKPT=<round>` hook (hard `exit(86)` right
//! after the round's checkpoint lands) and resumed with `--resume`. The
//! workers arrangement exercises the *self-healing* path instead: the
//! `SUPERSIM_TEST_KILL_WORKER=<worker>:<round>` hook SIGKILLs a worker
//! mid-run and the parent must respawn the fleet from the last
//! checkpoint within the same invocation.
#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::process::Command;

use supersim::config::Value;
use supersim::core::presets;

/// Exit status the `SUPERSIM_TEST_EXIT_AT_CKPT` hook uses for the
/// simulated crash, distinct from every documented code.
const CRASH_CODE: i32 = 86;

/// Checkpoint every 200 ticks; crash after round 2 (tick 400), which
/// both topologies below comfortably outlive (they drain past tick 600).
const INTERVAL: &str = "200";
const CRASH_ROUND: &str = "2";

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_supersim")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("supersim-rec-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A small 2x2 torus with dimension-order routing and winner-take-all
/// flow control — deliberately a different router arrangement than the
/// hyperx quickstart preset, so the matrix covers two topology families.
fn torus_cfg() -> Value {
    Value::parse(
        r#"{
          "seed": 1,
          "network": {
            "topology": { "name": "torus", "widths": [2, 2], "concentration": 2 },
            "vcs": 4,
            "routing": { "algorithm": "dimension_order" },
            "channel": { "terminal_latency": 1, "local_latency": 5, "link_period": 1 },
            "router": {
              "architecture": "input_queued",
              "input_buffer": 16,
              "xbar_latency": 2,
              "flow_control": "winner_take_all",
              "arbiter": "age_based"
            },
            "interface": { "eject_buffer": 32, "max_packet_size": 4 }
          },
          "workload": {
            "applications": [{
              "name": "blast",
              "load": 0.3,
              "message_size": 2,
              "warmup_ticks": 200,
              "sample_messages": 50,
              "pattern": { "name": "uniform_random" }
            }]
          }
        }"#,
    )
    .expect("torus config")
}

/// The (label, config, seed) combinations every engine arrangement runs.
/// `tag` keeps each test's config directory private: the tests run on
/// parallel threads and `scratch_dir` wipes its directory on entry.
fn matrix(tag: &str) -> Vec<(String, PathBuf)> {
    let dir = scratch_dir(&format!("cfgs-{tag}"));
    let mut out = Vec::new();
    for (name, base) in [("hyperx", presets::quickstart()), ("torus", torus_cfg())] {
        for seed in [1i64, 7] {
            let mut cfg = base.clone();
            cfg.set_path("seed", Value::Int(seed)).expect("object");
            let path = dir.join(format!("{name}-s{seed}.json"));
            std::fs::write(&path, cfg.to_json_pretty()).expect("write config");
            out.push((format!("{name}/seed{seed}"), path));
        }
    }
    out
}

/// Runs the binary with the common output flags into `out`, returning
/// the exit code. Stdout is captured to `out/stdout`.
fn run(cfg: &Path, out: &Path, extra: &[&str], env: &[(&str, &str)]) -> i32 {
    std::fs::create_dir_all(out).expect("out dir");
    let metrics = out.join("metrics.json");
    let ts = out.join("ts");
    let mut cmd = Command::new(bin());
    cmd.arg(cfg)
        .args(["--no-log", "--sample-interval", "200"])
        .args(["--metrics", metrics.to_str().unwrap()])
        .args(["--timeseries", ts.to_str().unwrap()])
        .args(extra);
    for (k, v) in env {
        cmd.env(k, v);
    }
    let output = cmd.output().expect("spawn supersim");
    std::fs::write(out.join("stdout"), &output.stdout).expect("write stdout");
    output.status.code().expect("no exit code (signal?)")
}

/// Asserts every produced file in `a` and `b` is byte-identical.
fn assert_identical(a: &Path, b: &Path, label: &str) {
    let mut names: Vec<String> = std::fs::read_dir(a)
        .expect("read dir")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert!(!names.is_empty(), "{label}: no outputs to compare");
    let mut other: Vec<String> = std::fs::read_dir(b)
        .expect("read dir")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    other.sort();
    assert_eq!(names, other, "{label}: output file sets differ");
    for name in names {
        let x = std::fs::read(a.join(&name)).expect("read");
        let y = std::fs::read(b.join(&name)).expect("read");
        assert_eq!(x, y, "{label}: {name} differs between runs");
    }
}

/// Crash-with-`--checkpoint-interval`, resume-with-`--resume`, compare
/// against an uninterrupted run. `engine` is the extra engine flags.
fn crash_resume_case(label: &str, cfg: &Path, engine: &[&str]) {
    let root = scratch_dir(&format!("cr-{}", label.replace('/', "-")));
    let base = root.join("base");
    let resumed = root.join("resumed");
    let ckpt_dir = root.join("ckpt");
    let ckpt_dir_s = ckpt_dir.to_str().unwrap().to_owned();

    assert_eq!(run(cfg, &base, engine, &[]), 0, "{label}: baseline failed");

    let mut crash_args = engine.to_vec();
    crash_args.extend([
        "--checkpoint-interval",
        INTERVAL,
        "--checkpoint-dir",
        &ckpt_dir_s,
    ]);
    let code = run(
        cfg,
        &root.join("crashed"),
        &crash_args,
        &[("SUPERSIM_TEST_EXIT_AT_CKPT", CRASH_ROUND)],
    );
    assert_eq!(code, CRASH_CODE, "{label}: crash hook did not fire");

    let ckpt = ckpt_dir.join("ckpt-00000002.ssckpt");
    assert!(ckpt.is_file(), "{label}: round-2 checkpoint missing");
    let mut resume_args = engine.to_vec();
    let ckpt_s = ckpt.to_str().unwrap().to_owned();
    resume_args.extend(["--resume", &ckpt_s]);
    assert_eq!(
        run(cfg, &resumed, &resume_args, &[]),
        0,
        "{label}: resume failed"
    );

    assert_identical(&base, &resumed, label);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn sequential_crash_resume_is_byte_identical() {
    for (label, cfg) in matrix("seq") {
        crash_resume_case(&format!("seq {label}"), &cfg, &[]);
    }
}

#[test]
fn sharded_crash_resume_is_byte_identical() {
    for (label, cfg) in matrix("sharded") {
        crash_resume_case(
            &format!("sharded {label}"),
            &cfg,
            &["--engine", "sharded", "--shards", "2"],
        );
    }
}

#[test]
fn workers_crash_recovery_is_byte_identical() {
    // The multi-process arrangement heals in place: the parent respawns
    // the fleet from the last checkpoint after the injected SIGKILL, so
    // one invocation covers crash and recovery.
    for (label, cfg) in matrix("workers") {
        let label = format!("workers {label}");
        let root = scratch_dir(&format!("wk-{}", label.replace([' ', '/'], "-")));
        let base = root.join("base");
        let healed = root.join("healed");
        let ckpt_dir = root.join("ckpt");
        let ckpt_dir_s = ckpt_dir.to_str().unwrap().to_owned();

        assert_eq!(
            run(&cfg, &base, &["--workers", "2"], &[]),
            0,
            "{label}: baseline failed"
        );
        let code = run(
            &cfg,
            &healed,
            &[
                "--workers",
                "2",
                "--checkpoint-interval",
                INTERVAL,
                "--checkpoint-dir",
                &ckpt_dir_s,
            ],
            &[("SUPERSIM_TEST_KILL_WORKER", &format!("1:{CRASH_ROUND}"))],
        );
        assert_eq!(code, 0, "{label}: fleet did not heal from the checkpoint");
        assert!(
            ckpt_dir.join("ckpt-00000002.ssckpt").is_file(),
            "{label}: round-2 checkpoint missing"
        );

        assert_identical(&base, &healed, &label);
        let _ = std::fs::remove_dir_all(&root);
    }
}
