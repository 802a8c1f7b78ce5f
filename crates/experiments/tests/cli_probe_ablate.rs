//! End-to-end tests of the `probe` and `ablate` binaries' failure paths:
//! a bad flag, or a stdout that cannot be written, is an `error:` line
//! and exit 1, never a panic.

use std::process::Command;

fn assert_usage_error(bin: &str, args: &[&str], message: &str) {
    let out = Command::new(bin).args(args).output().expect("run binary");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
    assert!(err.contains(message), "{args:?}: {err}");
    assert!(err.contains("usage: "), "{args:?}: {err}");
    assert!(!err.contains("panicked"), "{args:?}: {err}");
    assert!(
        out.stdout.is_empty(),
        "{args:?}: nothing runs before the flags parse"
    );
}

#[test]
fn probe_rejects_bad_flags_with_usage() {
    let bin = env!("CARGO_BIN_EXE_probe");
    for (args, message) in [
        (&["--target", "x"][..], "error: invalid branch count 'x'"),
        (&["--target"], "error: --target needs a branch count"),
        (&["--target", "0"], "error: branch count must be positive"),
        (&["--seed", "-1"], "error: --seed needs an unsigned integer"),
        (&["--seed"], "error: --seed needs an unsigned integer"),
        (
            &["nosuchbench"],
            "error: unknown benchmark name: \"nosuchbench\"",
        ),
        (&["--bogus"], "error: unknown argument --bogus"),
    ] {
        assert_usage_error(bin, args, message);
    }
}

#[test]
fn probe_still_runs_on_good_flags() {
    let out = Command::new(env!("CARGO_BIN_EXE_probe"))
        .args(["--target", "2k", "--seed", "3", "m88ksim"])
        .output()
        .expect("run probe");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 2, "header and one row: {stdout}");
    assert!(
        stdout.lines().nth(1).unwrap().starts_with("m88ksim"),
        "{stdout}"
    );
}

#[test]
fn ablate_rejects_bad_flags_with_usage() {
    let bin = env!("CARGO_BIN_EXE_ablate");
    for (args, message) in [
        (&["--bogus"][..], "error: unknown argument --bogus"),
        (&["gcc"], "error: unknown argument gcc"),
        (&["--target", "x"], "error: invalid branch count 'x'"),
        (
            &["--target", "101b"],
            "error: target '101b' is unreasonably large",
        ),
        (&["--seed", "x"], "error: --seed needs an unsigned integer"),
    ] {
        assert_usage_error(bin, args, message);
    }
}

/// Runs `bin` with stdout on `/dev/full`: the write must fail as an
/// `error:` line and exit 1, not a panic.
fn assert_unwritable_stdout_fails_cleanly(bin: &str, args: &[&str]) {
    let full = std::fs::OpenOptions::new()
        .write(true)
        .open("/dev/full")
        .expect("open /dev/full");
    let out = Command::new(bin)
        .args(args)
        .stdout(full)
        .output()
        .expect("run binary");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
    assert!(
        err.contains("error: cannot write output"),
        "{args:?}: {err}"
    );
    assert!(!err.contains("panicked"), "{args:?}: {err}");
}

#[test]
fn an_unwritable_stdout_is_an_error_not_a_panic() {
    assert_unwritable_stdout_fails_cleanly(
        env!("CARGO_BIN_EXE_probe"),
        &["--target", "1000", "gcc"],
    );
    assert_unwritable_stdout_fails_cleanly(
        env!("CARGO_BIN_EXE_probe"),
        &["--target", "1000", "--per-branch", "m88ksim"],
    );
    assert_unwritable_stdout_fails_cleanly(env!("CARGO_BIN_EXE_ablate"), &["--target", "1000"]);
}
