//! Pins the `supersim` binary's documented process exit codes, the
//! contract scripts and CI harnesses key off:
//!
//! | code | meaning                                              |
//! |------|------------------------------------------------------|
//! | 0    | clean run                                            |
//! | 1    | usage, configuration, build, or output-io error      |
//! | 2    | degraded run (model error, stall, incomplete output) |
//! | 3    | watchdog cutoff                                      |
//! | 4    | worker process died, hung, or failed to start        |
//! | 5    | checkpoint resume failure                            |
//!
//! Code 1 covers contradictory engine settings too: `--shards n` with
//! `n > 1` on an engine that resolves to sequential, and a worker timeout
//! on an engine without worker processes.
//!
//! Every test spawns the real binary so the codes observed here are the
//! codes the operating system reports, not an in-process approximation.
#![cfg(unix)]

use std::path::PathBuf;
use std::process::Command;

use supersim::config::Value;
use supersim::core::presets;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_supersim")
}

/// A fresh scratch directory unique to this test binary invocation.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("supersim-exit-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn write_cfg(dir: &std::path::Path, cfg: &Value) -> PathBuf {
    let path = dir.join("config.json");
    std::fs::write(&path, cfg.to_json_pretty()).expect("write config");
    path
}

fn run_code(args: &[&str], env: &[(&str, &str)]) -> i32 {
    let mut cmd = Command::new(bin());
    cmd.args(args);
    for (k, v) in env {
        cmd.env(k, v);
    }
    let status = cmd.output().expect("spawn supersim").status;
    status.code().expect("no exit code (signal?)")
}

#[test]
fn code_0_clean_run() {
    let dir = scratch_dir("clean");
    let cfg = write_cfg(&dir, &presets::quickstart());
    assert_eq!(run_code(&[cfg.to_str().unwrap(), "--no-log"], &[]), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn code_1_usage_error() {
    assert_eq!(run_code(&[], &[]), 1, "no arguments must be a usage error");
    assert_eq!(
        run_code(&["/nonexistent/config.json", "--no-log"], &[]),
        1,
        "unreadable config must be a configuration error"
    );
}

#[test]
fn code_1_shards_without_the_sharded_engine() {
    // A shard count the sequential engine would ignore is a build error
    // naming both keys, never a silent one-shard run.
    let dir = scratch_dir("shards");
    let cfg = write_cfg(&dir, &presets::quickstart());
    let cfg = cfg.to_str().unwrap();
    let output = Command::new(bin())
        .args([cfg, "--no-log", "--shards", "2"])
        .env_remove("SUPERSIM_ENGINE")
        .output()
        .expect("spawn supersim");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("engine.shards") && stderr.contains("engine.kind"),
        "error must name both keys: {stderr}"
    );
    // One shard stays legal, as does the environment default.
    assert_eq!(run_code(&[cfg, "--no-log", "--shards", "1"], &[]), 0);
    assert_eq!(run_code(&[cfg, "--no-log"], &[("SUPERSIM_SHARDS", "2")]), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn code_1_worker_timeout_without_worker_processes() {
    // A timeout only worker processes can honor is a build error naming
    // the timeout key and the transport, never silently ignored.
    let dir = scratch_dir("timeout");
    let cfg = write_cfg(&dir, &presets::quickstart());
    let cfg = cfg.to_str().unwrap();
    for engine in [&["--engine", "sequential"][..], &["--engine", "sharded"]] {
        let output = Command::new(bin())
            .arg(cfg)
            .args(["--no-log", "--worker-timeout-ms", "500"])
            .args(engine)
            .output()
            .expect("spawn supersim");
        assert_eq!(output.status.code(), Some(1), "{engine:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("process.timeout_ms") && stderr.contains("engine.transport"),
            "error must name both keys: {stderr}"
        );
    }
    // The legacy key is held to the same rule.
    let mut legacy = presets::quickstart();
    legacy
        .set_path("engine.worker_timeout_ms", Value::Int(500))
        .expect("obj");
    let legacy = write_cfg(&dir, &legacy);
    let output = Command::new(bin())
        .args([legacy.to_str().unwrap(), "--no-log"])
        .output()
        .expect("spawn supersim");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("engine.worker_timeout_ms") && stderr.contains("engine.transport"),
        "error must name both keys: {stderr}"
    );
    // With worker processes the timeout applies.
    assert_eq!(
        run_code(
            &[
                cfg,
                "--no-log",
                "--workers",
                "2",
                "--worker-timeout-ms",
                "60000"
            ],
            &[]
        ),
        0
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn code_2_degraded_run() {
    // A tick limit below the drain point leaves the run stalled with
    // traffic still in flight: degraded, not clean, not a usage error.
    let dir = scratch_dir("degraded");
    let mut cfg = presets::quickstart();
    cfg.set_path("tick_limit", Value::Int(300)).expect("object");
    let cfg = write_cfg(&dir, &cfg);
    assert_eq!(run_code(&[cfg.to_str().unwrap(), "--no-log"], &[]), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn code_3_watchdog_cutoff() {
    let cfg = concat!(env!("CARGO_MANIFEST_DIR"), "/configs/deadlock_2router.json");
    assert_eq!(run_code(&[cfg, "--no-log"], &[]), 3);
}

#[test]
fn code_4_worker_failure() {
    let dir = scratch_dir("worker");
    let cfg = write_cfg(&dir, &presets::quickstart());
    assert_eq!(
        run_code(
            &[cfg.to_str().unwrap(), "--no-log", "--workers", "2"],
            &[("SUPERSIM_TEST_WORKER_FAIL", "exit:1:40")],
        ),
        4
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn code_5_resume_failure() {
    let dir = scratch_dir("resume");
    let cfg = write_cfg(&dir, &presets::quickstart());
    let junk = dir.join("junk.ssckpt");
    std::fs::write(&junk, b"this is not a checkpoint").expect("write junk");
    assert_eq!(
        run_code(
            &[
                cfg.to_str().unwrap(),
                "--no-log",
                "--resume",
                junk.to_str().unwrap(),
            ],
            &[],
        ),
        5
    );
    let _ = std::fs::remove_dir_all(&dir);
}
