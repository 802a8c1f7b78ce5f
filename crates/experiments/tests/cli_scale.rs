//! End-to-end tests of the `scale` binary's flag handling.

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
fn a_jobs_budget_beyond_any_thread_limit_changes_nothing() {
    // Shard builds are capped, so a huge budget neither aborts on thread
    // spawn nor changes stdout.
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
