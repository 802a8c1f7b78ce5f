//! End-to-end tests of the `bpt` trace-inspection CLI.

use std::process::Command;

use bp_trace::io::ChunkWriter;
use bp_trace::{BranchRecord, TraceSink};

fn bpt() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bpt"))
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
