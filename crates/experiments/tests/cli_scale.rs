//! End-to-end tests of the `scale` binary: flag handling and the `.bps`
//! artifact store.

use std::process::Command;

fn scale() -> Command {
    Command::new(env!("CARGO_BIN_EXE_scale"))
}

#[test]
fn oracle_window_beyond_the_largest_path_window_is_a_usage_error() {
    // One past `PathWindow::MAX_CAPACITY`, and a value whose window would
    // overflow any allocation.
    for window in ["65537", "18446744073709551615"] {
        let out = scale()
            .args(["--target", "1k", "--oracle-window", window])
            .output()
            .expect("run scale");
        assert_eq!(out.status.code(), Some(1), "--oracle-window {window}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("error: --oracle-window needs a length in 1..=65536"),
            "{err}"
        );
        assert!(err.contains("usage: scale"), "{err}");
        assert!(!err.contains("panicked"), "{err}");
        assert!(out.stdout.is_empty(), "nothing runs before the flags parse");
    }
}

#[test]
fn materialized_is_an_unknown_argument() {
    // Every scan regenerates the workload; trace residency is no longer
    // a choice.
    let out = scale().arg("--materialized").output().expect("run scale");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown argument '--materialized'"), "{err}");
    assert!(out.stdout.is_empty(), "nothing runs before the flags parse");
}

#[test]
fn a_jobs_budget_beyond_any_thread_limit_changes_nothing() {
    // A scan starts at most one thread and `par_map` at most
    // `MAX_THREADS`, so a huge budget neither aborts on thread spawn nor
    // changes stdout.
    let run = |jobs: &str| {
        let out = scale()
            .args(["--bench", "m88ksim", "--target", "100k", "--jobs", jobs])
            .output()
            .expect("run scale");
        assert!(out.status.success(), "--jobs {jobs}: {out:?}");
        out.stdout
    };
    assert_eq!(run("100000"), run("2"));
}

#[test]
fn artifacts_are_reused_and_rebuilt_after_corruption() {
    let dir = std::env::temp_dir().join(format!("scale-artifacts-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let run = || {
        let out = scale()
            .args("--bench m88ksim --target 200k --oracle-cap 12 --jobs 2".split(' '))
            .arg("--artifacts")
            .arg(&dir)
            .output()
            .expect("run scale");
        assert!(out.status.success(), "{out:?}");
        (
            out.stdout,
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let streams = dir.join("m88ksim.streams.bps");
    let matrix = dir.join("m88ksim.w16c12.matrix.bps");

    // A cold run writes both artifacts, one file each.
    let (cold, _) = run();
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("list the artifact dir")
        .map(|e| e.expect("dir entry").file_name())
        .collect();
    files.sort();
    assert_eq!(
        files,
        ["m88ksim.streams.bps", "m88ksim.w16c12.matrix.bps"],
        "one file per artifact"
    );

    // A warm run reopens them and prints the same bytes.
    let (warm, err) = run();
    assert_eq!(warm, cold);
    assert!(err.contains("reused"), "{err}");

    // A flipped byte in the matrix artifact (word 6, the dynamic total,
    // which the content fingerprint covers), then a truncated streams
    // artifact, then an older format's magic: each is evicted with a
    // notice naming it and rebuilt, and stdout does not change.
    let mut bytes = std::fs::read(&matrix).expect("read matrix artifact");
    bytes[48] ^= 0xFF;
    std::fs::write(&matrix, bytes).expect("corrupt matrix artifact");
    let (rebuilt, err) = run();
    let notice = format!("notice: regenerating artifact {}", matrix.display());
    assert!(err.contains(&notice), "{err}");
    assert_eq!(rebuilt, cold);

    let bytes = std::fs::read(&streams).expect("read streams artifact");
    std::fs::write(&streams, &bytes[..bytes.len() / 3]).expect("truncate streams artifact");
    let (rebuilt, err) = run();
    let notice = format!("notice: regenerating artifact {}", streams.display());
    assert!(err.contains(&notice), "{err}");
    assert_eq!(rebuilt, cold);

    let mut bytes = std::fs::read(&streams).expect("read streams artifact");
    bytes[..4].copy_from_slice(b"BPS1");
    std::fs::write(&streams, bytes).expect("an older build's streams artifact");
    let (rebuilt, err) = run();
    assert!(err.contains(&notice), "{err}");
    assert_eq!(rebuilt, cold);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_unwritable_stdout_is_an_error_not_a_panic() {
    let full = std::fs::OpenOptions::new()
        .write(true)
        .open("/dev/full")
        .expect("open /dev/full");
    let out = scale()
        .args(["--bench", "go", "--target", "1k"])
        .stdout(full)
        .output()
        .expect("run scale");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error: cannot write output"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}
