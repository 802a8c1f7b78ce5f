//! End-to-end tests of the `repro` experiment driver CLI.

use std::process::{Command, Output};

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

/// Runs `cmd` with stderr a pipe whose read end is already closed.
fn with_closed_stderr(cmd: &mut Command) -> Output {
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    drop(reader);
    cmd.stderr(writer).output().expect("run repro")
}

#[test]
fn table1_runs_and_prints_all_benchmarks() {
    let out = repro()
        .args(["--target", "3000", "table1"])
        .output()
        .expect("run repro");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    for name in [
        "compress", "gcc", "go", "ijpeg", "m88ksim", "perl", "vortex", "xlisp",
    ] {
        assert!(text.contains(name), "missing {name}: {text}");
    }
    assert!(text.contains("Table 1"));
}

#[test]
fn unknown_experiment_fails_with_usage() {
    // Each flag here was one once: trace residency is no longer a
    // choice, and the quick golden is plain text that a diff checks.
    // A flag's value may not be the next flag: `--bare` is no file name.
    for (args, why) in [
        (&["table99", "fig4"][..], "unknown experiment: table99"),
        (&["--stream", "fig4"], "unknown argument --stream"),
        (
            &["--verify-goldens", "fig4"],
            "unknown argument --verify-goldens",
        ),
        (
            &["--write-goldens", "fig4"],
            "unknown argument --write-goldens",
        ),
        (&["--goldens", "fig4"], "unknown argument --goldens"),
        (
            &["--timings", "--bare", "--target", "1000", "table1"],
            r#"--timings needs a value, got "--bare""#,
        ),
    ] {
        let dir = std::env::temp_dir().join(format!("repro-usage-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create a scratch dir");
        let out = repro()
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("run repro");
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("error: {why}\n")), "{err}");
        assert!(err.contains("usage:"), "{err}");
        let made = std::fs::read_dir(&dir)
            .expect("list the scratch dir")
            .count();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(made, 0, "{args:?} wrote a file");
    }
}

#[test]
fn no_arguments_fails_with_usage() {
    let out = repro().output().expect("run repro");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn seed_flag_changes_results() {
    let run = |args: &[&str]| {
        let out = repro().args(args).output().expect("run repro");
        assert!(out.status.success(), "{args:?}: {out:?}");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    assert_ne!(
        run(&["--target", "2000", "--seed", "1", "table1"]),
        run(&["--target", "2000", "--seed", "2", "table1"])
    );
    // `--quick` sets the base that `--seed` overrides, whatever their order.
    for args in [
        ["--seed", "7", "--quick", "table1"],
        ["--quick", "--seed", "7", "table1"],
    ] {
        let header = "# Reproduction run: seed=7 target=40000 branches/benchmark\n";
        assert!(run(&args).starts_with(header), "{args:?}");
    }
}

#[test]
fn parallel_output_is_byte_identical_to_serial() {
    // The engine's fan-out must not change stdout in any way: a
    // multi-experiment run (prewarm + shared cache active) at --jobs 4
    // produces the same bytes as --jobs 1.
    let run = |jobs: &str| {
        let out = repro()
            .args(["--target", "3000", "--jobs", jobs, "table2", "fig4", "fig7"])
            .output()
            .expect("run repro");
        assert!(out.status.success(), "{out:?}");
        out.stdout
    };
    let serial = run("1");
    assert_eq!(serial, run("4"));
    assert_eq!(serial, run("2"));
}

#[test]
fn a_jobs_budget_beyond_any_thread_limit_changes_nothing() {
    // A scan starts no thread, and the engine's fan-out and nested
    // kernels hold at most `MAX_THREADS` busy threads between them, so a
    // huge budget neither aborts on thread spawn nor changes stdout.
    let run = |jobs: &str, experiment: &str| {
        let out = repro()
            .args(["--quick", "--jobs", jobs, experiment])
            .output()
            .expect("run repro");
        assert!(out.status.success(), "--jobs {jobs} {experiment}: {out:?}");
        out.stdout
    };
    assert_eq!(run("3000", "fig4"), run("2", "fig4"));
    assert_eq!(run("100000", "all"), run("2", "all"));
}

#[test]
fn timings_report_shared_results_computed_once() {
    let path = std::env::temp_dir().join(format!("repro-timings-{}.json", std::process::id()));
    let out = repro()
        .args([
            "--target",
            "3000",
            "--jobs",
            "2",
            "--timings",
            path.to_str().unwrap(),
            // Three experiments that all want the default-config oracle and
            // the gshare simulations.
            "fig4",
            "table2",
            "fig7",
        ])
        .output()
        .expect("run repro");
    assert!(out.status.success(), "{out:?}");
    let json = std::fs::read_to_string(&path).expect("timings file written");
    std::fs::remove_file(&path).ok();

    // Structural spot checks on the hand-rolled JSON.
    for key in [
        "\"seed\"",
        "\"jobs\": 2",
        "\"experiments\"",
        "\"prewarm\"",
        "\"fig4\"",
        "\"table2\"",
        "\"fig7\"",
        "\"cache\"",
        "\"hits\"",
        "\"misses\"",
        "\"utilization\"",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }

    let count = |key: &str| -> u64 {
        json.split(key)
            .nth(1)
            .and_then(|rest| {
                rest.trim_start_matches(": ")
                    .chars()
                    .take_while(char::is_ascii_digit)
                    .collect::<String>()
                    .parse()
                    .ok()
            })
            .unwrap_or(u64::MAX)
    };
    let hits = count("\"hits\"");
    let misses = count("\"misses\"");
    // Prewarm: 8 benchmarks x 4 standard predictors = 32 misses. Then, per
    // benchmark: one oracle analysis (miss) and one profile (miss). The
    // packed streams the profile is derived from are read off fig4's
    // oracle matrix, which no request counts, so the profile's request
    // for them hits — everything else must hit too.
    assert_eq!(
        misses,
        32 + 8 + 8,
        "shared artifacts computed more than once"
    );
    // fig4 (oracle+gshare+IF-gshare), table2 (gshare+IF-gshare+oracle),
    // fig7 (gshare+pas+profile): at least a dozen hits on 8 benchmarks.
    assert!(hits >= 5 * 8, "expected heavy cache reuse, got {hits} hits");
}

/// Runs `repro` with `--timings` into a temporary file and returns the
/// JSON.
fn timings_json(args: &[&str]) -> String {
    let path = std::env::temp_dir().join(format!(
        "repro-builds-{}-{}.json",
        std::process::id(),
        args.join("-")
    ));
    let out = repro()
        .args(args)
        .arg("--timings")
        .arg(&path)
        .output()
        .expect("run repro");
    assert!(out.status.success(), "{out:?}");
    let json = std::fs::read_to_string(&path).expect("timings file written");
    std::fs::remove_file(&path).ok();
    json
}

/// Every value of `"key": N` in `json`, in order.
fn counts(json: &str, key: &str) -> Vec<u64> {
    json.split(&format!("\"{key}\": "))
        .skip(1)
        .map(|rest| {
            rest.chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
                .parse()
                .expect("a count")
        })
        .collect()
}

#[test]
fn fig5_serves_the_default_oracle_to_the_experiments_around_it() {
    // fig5 is evaluated first, so fig4's window-16 oracle is its sweep
    // point: one builder run per benchmark, not two.
    let json = timings_json(&["--target", "3000", "--jobs", "2", "fig4", "fig5"]);
    assert_eq!(counts(&json, "builds"), [1; 8], "{json}");

    // Without fig5 the default oracle is built directly, once, and the
    // cache accounting is unchanged: its matrix fills the streams.
    let json = timings_json(&["--target", "3000", "--jobs", "2", "fig4", "table2", "fig7"]);
    assert_eq!(counts(&json, "builds"), [1; 8], "{json}");
    assert_eq!(counts(&json, "misses"), [48], "{json}");

    // Evaluation order is not printing order.
    let bare = |ids: &[&str]| {
        let out = repro()
            .args(["--target", "3000", "--jobs", "2", "--bare"])
            .args(ids)
            .output()
            .expect("run repro");
        assert!(out.status.success(), "{out:?}");
        out.stdout
    };
    let mut apart = bare(&["fig4"]);
    apart.extend(bare(&["fig5"]));
    assert_eq!(bare(&["fig4", "fig5"]), apart);
}

#[test]
fn an_unwritable_stdout_is_an_error_not_a_panic() {
    let full = std::fs::OpenOptions::new()
        .write(true)
        .open("/dev/full")
        .expect("open /dev/full");
    let out = repro()
        .args(["--target", "1000", "table1"])
        .stdout(full)
        .output()
        .expect("run repro");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error: cannot write output"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn a_closed_stderr_changes_neither_stdout_nor_the_exit_code() {
    let args = ["--target", "3000", "table1"];
    let normal = repro().args(args).output().expect("run repro");
    assert!(normal.status.success(), "{normal:?}");
    let closed = with_closed_stderr(repro().args(args));
    assert_eq!(closed.status.code(), Some(0), "{closed:?}");
    assert_eq!(closed.stdout, normal.stdout);

    let bad = with_closed_stderr(repro().args(["--jobs", "0", "table1"]));
    assert_eq!(bad.status.code(), Some(1), "{bad:?}");
}
