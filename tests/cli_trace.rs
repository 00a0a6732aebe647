//! Black-box CLI tests for the global flags (`--trace`, `--threads`,
//! `--dap`) and `trace-report`, run against the real `scalefold` binary.

use std::path::PathBuf;
use std::process::{Command, Output};

fn scalefold(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scalefold"))
        .args(args)
        .output()
        .expect("spawn scalefold binary")
}

fn tmp_file(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("scalefold_cli_trace_{}_{name}", std::process::id()))
}

/// A `--trace` path that cannot be created fails *up front* with exit code
/// 1 and a diagnostic — the same contract as a malformed `--threads`.
#[test]
fn unwritable_trace_path_exits_one_with_diagnostic() {
    let out = scalefold(&["train", "1", "--trace", "/nonexistent-dir/out.json"]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "must exit 1, not panic or succeed"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot write trace file '/nonexistent-dir/out.json'"),
        "stderr must say which path failed: {stderr}"
    );
    // It must fail before doing any training work.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !stdout.contains("step"),
        "no training output expected after a bad --trace: {stdout}"
    );
}

/// An argument past the command's one optional positional — here the
/// removed `--no-fused` switch — is rejected before any training runs,
/// not silently ignored.
#[test]
fn leftover_argument_exits_one_naming_it() {
    let out = scalefold(&["train", "1", "--no-fused"]);
    assert_eq!(out.status.code(), Some(1), "must exit 1, not train");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--no-fused"),
        "stderr must name the argument: {stderr}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !stdout.contains("step"),
        "no training output expected: {stdout}"
    );
}

/// `--trace` with no value is rejected like `--threads` with no value.
#[test]
fn trace_flag_without_value_exits_one() {
    let out = scalefold(&["train", "1", "--trace"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--trace expects an output path"),
        "{stderr}"
    );
}

/// Malformed `--threads` / `--dap` values exit 1 with the flag's own
/// diagnostic before any command runs.
#[test]
fn malformed_global_flags_exit_one_with_diagnostic() {
    let cases: [(&[&str], &str); 4] = [
        (
            &["memory", "2", "--threads", "0"],
            "--threads expects a positive integer",
        ),
        (
            &["memory", "2", "--threads"],
            "--threads expects a thread count",
        ),
        (&["memory", "2", "--dap", "x"], "invalid DAP rank count 'x'"),
        (
            &["memory", "2", "--dap=0"],
            "--dap expects a positive integer",
        ),
    ];
    for (args, message) in cases {
        let out = scalefold(args);
        assert_eq!(out.status.code(), Some(1), "{args:?} must exit 1");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} must not run the command");
    }
}

/// The `--threads=N` spelling is stripped like `--threads N`, so the
/// command sees no leftover argument.
#[test]
fn threads_equals_form_is_accepted() {
    let out = scalefold(&["memory", "2", "--threads=1"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The documented end-to-end flow: a traced run writes Chrome-format JSON
/// with spans from the trainer, the loader, and the compute pool, and
/// `trace-report` renders its phase table.
#[test]
fn traced_train_emits_chrome_json_and_trace_report_reads_it() {
    let path = tmp_file("train.json");
    let out = scalefold(&["train", "2", "--trace", path.to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let text = std::fs::read_to_string(&path).expect("trace file must exist");
    let trace = sf_trace::Trace::from_chrome_json(&text).expect("viewer-loadable JSON");
    for cat in ["step", "forward", "backward", "data_wait", "loader", "pool"] {
        assert!(
            trace.events.iter().any(|e| e.cat == cat),
            "trace must contain '{cat}' events (subsystem coverage)"
        );
    }

    let report = scalefold(&["trace-report", path.to_str().unwrap()]);
    assert_eq!(report.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&report.stdout);
    assert!(
        stdout.contains("per-step phase breakdown") && stdout.contains("data_wait"),
        "trace-report must print the phase table: {stdout}"
    );
    let _ = std::fs::remove_file(&path);
}

/// `trace-report` on a missing file is a clean error, not a panic.
#[test]
fn trace_report_missing_file_exits_one() {
    let out = scalefold(&["trace-report", "/nonexistent-dir/missing.json"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot read trace file"), "{stderr}");
}
