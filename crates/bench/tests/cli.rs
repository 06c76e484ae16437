//! Command-line value parsing: a flag whose value is missing or malformed
//! is a usage error (exit 2 naming the flag), never a silent default.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Runs `bin` to completion, killing it after a minute (a `serve` that
/// accepted a bad value would otherwise listen forever).
fn run(bin: &str, args: &[&str]) -> Output {
    let mut child = Command::new(bin)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary starts");
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().expect("wait").is_none() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = child.kill();
    child.wait_with_output().expect("output")
}

/// A small bundled workload written to a per-test file.
fn workload(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.json"));
    let path = path.to_str().expect("utf-8 path").to_string();
    let out = run(
        env!("CARGO_BIN_EXE_optalloc-cli"),
        &["generate", "table3-t7", &path],
    );
    assert!(out.status.success(), "generate failed: {out:?}");
    path
}

fn assert_usage_error(out: &Output, flag: &str) {
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(flag), "stderr must name {flag}: {stderr}");
}

#[test]
fn malformed_solve_values_exit_2() {
    let cli = env!("CARGO_BIN_EXE_optalloc-cli");
    let w = workload("malformed");
    for (flag, value) in [
        ("--max-conflicts", "3e6"),
        ("--window", "two"),
        ("--max-slot", "-1"),
        ("--timeout-ms", "soon"),
        ("--medium", "first"),
    ] {
        let out = run(cli, &["solve", &w, "--objective", "trt", flag, value]);
        assert_usage_error(&out, flag);
    }
    let out = run(cli, &["solve", &w, "--objective"]);
    assert_usage_error(&out, "--objective");
}

#[test]
fn malformed_serve_values_exit_2() {
    let cli = env!("CARGO_BIN_EXE_optalloc-cli");
    for flag in ["--workers", "--queue", "--cache"] {
        let out = run(cli, &["serve", "--addr", "127.0.0.1:0", flag, "x"]);
        assert_usage_error(&out, flag);
    }
}

#[test]
fn well_formed_solve_values_are_accepted() {
    let w = workload("well_formed");
    let out = run(
        env!("CARGO_BIN_EXE_optalloc-cli"),
        &[
            "solve",
            &w,
            "--objective",
            "trt",
            "--max-conflicts",
            "3000000",
            "--window",
            "1",
        ],
    );
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("optimal trt"));
}

#[test]
fn a_flag_is_not_taken_as_a_value() {
    let out = run(env!("CARGO_BIN_EXE_table3"), &["--json", "--full"]);
    assert_usage_error(&out, "--json");
    let out = run(
        env!("CARGO_BIN_EXE_window_ablation"),
        &["--workers", "many"],
    );
    assert_usage_error(&out, "--workers");
}
