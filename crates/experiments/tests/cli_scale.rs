//! End-to-end tests of the `scale` binary: flag handling and the `.bps`
//! artifact store.

use std::process::{Command, Output};

fn scale() -> Command {
    Command::new(env!("CARGO_BIN_EXE_scale"))
}

/// Runs `cmd` with stderr a pipe whose read end is already closed.
fn with_closed_stderr(cmd: &mut Command) -> Output {
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    drop(reader);
    cmd.stderr(writer).output().expect("run scale")
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
        let why = format!("error: --oracle-window needs a length in 1..=65536, got {window:?}\n");
        assert!(err.contains(&why), "{err}");
        assert!(err.contains("usage: scale"), "{err}");
        assert!(!err.contains("panicked"), "{err}");
        assert!(out.stdout.is_empty(), "nothing runs before the flags parse");
    }
}

#[test]
fn a_missing_or_unknown_benchmark_is_named() {
    // A flag's value may not be the next flag: `--skip-oracle` is no
    // artifact directory, and no store may appear under that name.
    for (args, why) in [
        (&["--bench"][..], "error: --bench needs a value\n"),
        (
            &["--bench", "gcc2"],
            "error: --bench needs a benchmark name, got \"gcc2\"\n",
        ),
        (
            &["--artifacts", "--skip-oracle", "--target", "1000"],
            "error: --artifacts needs a value, got \"--skip-oracle\"\n",
        ),
    ] {
        let dir = std::env::temp_dir().join(format!("scale-usage-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create a scratch dir");
        let out = scale()
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("run scale");
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(why), "{err}");
        assert!(err.contains("usage: scale"), "{err}");
        assert!(out.stdout.is_empty(), "nothing runs before the flags parse");
        let made = std::fs::read_dir(&dir)
            .expect("list the scratch dir")
            .count();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(made, 0, "{args:?} wrote a file");
    }
}

#[test]
fn materialized_is_an_unknown_argument() {
    // Every scan regenerates the workload, so trace residency is no
    // longer a choice, and the artifact store has no size cap.
    for args in [&["--materialized"][..], &["--artifacts-budget-gb", "2"]] {
        let out = scale().args(args).output().expect("run scale");
        assert_eq!(out.status.code(), Some(1), "{out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        let why = format!("error: unknown argument {}\n", args[0]);
        assert!(err.contains(&why), "{err}");
        assert!(out.stdout.is_empty(), "nothing runs before the flags parse");
    }
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

#[test]
fn a_closed_stderr_changes_neither_stdout_nor_the_exit_code() {
    let args = ["--bench", "gcc", "--target", "20k", "--oracle-cap", "8"];
    let normal = scale().args(args).output().expect("run scale");
    assert!(normal.status.success(), "{normal:?}");
    let closed = with_closed_stderr(scale().args(args));
    assert_eq!(closed.status.code(), Some(0), "{closed:?}");
    assert_eq!(closed.stdout, normal.stdout);

    let bad = with_closed_stderr(scale().args(["--jobs", "0"]));
    assert_eq!(bad.status.code(), Some(1), "{bad:?}");
}
