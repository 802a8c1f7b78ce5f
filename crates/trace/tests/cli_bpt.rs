//! End-to-end tests of the `bpt` trace-inspection CLI.

use std::process::{Command, Output};

use bp_trace::io::ChunkWriter;
use bp_trace::{BranchRecord, TraceSink};

fn bpt() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bpt"))
}

/// Runs `bpt` with `args` and stderr a pipe whose read end is already
/// closed.
fn bpt_with_closed_stderr(args: &[&str]) -> Output {
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    drop(reader);
    bpt().args(args).stderr(writer).output().expect("run bpt")
}

fn sample_file(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("bpt-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    let records: Vec<BranchRecord> = (0..200)
        .map(|i| BranchRecord::conditional(0x100 + (i % 5) * 4, i % 3 == 0))
        .collect();
    // Two-record frames, so reading a few records crosses frame boundaries.
    let mut buf = Vec::new();
    let mut writer = ChunkWriter::new(&mut buf).expect("encode");
    for frame in records.chunks(2) {
        writer.chunk(frame);
    }
    writer.finish().expect("encode");
    std::fs::write(&path, buf).expect("write file");
    path
}

#[test]
fn info_reports_counts() {
    let path = sample_file("info.bpt");
    let out = bpt().arg("info").arg(&path).output().expect("run bpt");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("conditional branches: 200"), "{text}");
    assert!(text.contains("static sites:         5"), "{text}");
}

#[test]
fn head_prints_requested_records() {
    let path = sample_file("head.bpt");
    let out = bpt()
        .args(["head", path.to_str().unwrap(), "3"])
        .output()
        .expect("run bpt");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    // Header + 3 records; the third comes from the second frame.
    assert_eq!(text.lines().count(), 4, "{text}");
    assert!(text
        .lines()
        .nth(3)
        .is_some_and(|l| l.starts_with("2 ") && l.contains("0x108")));
    assert!(text.contains("0x100"));
}

#[test]
fn verify_accepts_good_and_rejects_corrupt() {
    let path = sample_file("verify.bpt");
    let ok = bpt().arg("verify").arg(&path).output().expect("run bpt");
    assert!(ok.status.success());
    assert!(String::from_utf8_lossy(&ok.stdout).contains("ok: 200"));

    // Truncate the file: verify must fail with a diagnostic.
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 2]).unwrap();
    let bad = bpt().arg("verify").arg(&path).output().expect("run bpt");
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("corrupt"));
}

#[test]
fn biases_lists_heaviest_branches() {
    let path = sample_file("biases.bpt");
    let out = bpt()
        .args(["biases", path.to_str().unwrap(), "2"])
        .output()
        .expect("run bpt");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("ideal static accuracy"), "{text}");
    // Header + 2 rows + summary line.
    assert_eq!(text.lines().count(), 4, "{text}");
}

#[test]
fn unknown_command_and_missing_file_fail_cleanly() {
    let out = bpt().args(["frobnicate", "x"]).output().expect("run bpt");
    assert!(!out.status.success());
    let out = bpt()
        .args(["info", "/nonexistent/definitely-missing.bpt"])
        .output()
        .expect("run bpt");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot open"));
}

#[test]
fn an_unwritable_stdout_is_an_error_not_a_panic() {
    let path = sample_file("full.bpt");
    for command in ["info", "verify"] {
        let full = std::fs::OpenOptions::new()
            .write(true)
            .open("/dev/full")
            .expect("open /dev/full");
        let out = bpt()
            .arg(command)
            .arg(&path)
            .stdout(full)
            .output()
            .expect("run bpt");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{command}: {err}");
        assert!(
            err.contains("error: cannot write output"),
            "{command}: {err}"
        );
        assert!(!err.contains("panicked"), "{command}: {err}");
    }
}

#[test]
fn bad_counts_and_extra_words_are_usage_errors() {
    let path = sample_file("usage.bpt");
    let path = path.to_str().unwrap();
    for (args, why) in [
        (
            &["head", path, "abc"][..],
            "error: N needs a non-negative integer",
        ),
        (
            &["head", path, "-5"],
            "error: N needs a non-negative integer",
        ),
        (
            &["biases", path, "2", "3"],
            "error: too many arguments for biases",
        ),
        (
            &["info", path, "extra", "junk"],
            "error: too many arguments for info",
        ),
        (
            &["verify", path, "7"],
            "error: too many arguments for verify",
        ),
    ] {
        let out = bpt().args(args).output().expect("run bpt");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(err.contains(why), "{args:?}: {err}");
        assert!(err.contains("usage: bpt"), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing runs");
    }
}

#[test]
fn help_prints_usage_and_exits_0() {
    for flag in ["--help", "-h"] {
        let out = bpt().arg(flag).output().expect("run bpt");
        assert_eq!(out.status.code(), Some(0), "{flag}: {out:?}");
        assert!(String::from_utf8_lossy(&out.stderr).starts_with("usage: bpt"));
    }
}

#[test]
fn a_closed_stderr_changes_neither_stdout_nor_the_exit_code() {
    let path = sample_file("closed.bpt");
    let args = ["biases", path.to_str().unwrap(), "3"];
    let normal = bpt().args(args).output().expect("run bpt");
    assert!(normal.status.success(), "{normal:?}");
    let closed = bpt_with_closed_stderr(&args);
    assert_eq!(closed.status.code(), Some(0), "{closed:?}");
    assert_eq!(closed.stdout, normal.stdout);

    for args in [&["info", "/nonexistent.bpt"][..], &[]] {
        let bad = bpt_with_closed_stderr(args);
        assert_eq!(bad.status.code(), Some(1), "{args:?}: {bad:?}");
    }
}
