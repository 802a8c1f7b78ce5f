//! End-to-end tests of the `repro` experiment driver CLI.

use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
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
    let out = repro().arg("table99").output().expect("run repro");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown experiment"), "{err}");
    assert!(err.contains("usage:"), "{err}");
}

#[test]
fn no_arguments_fails_with_usage() {
    let out = repro().output().expect("run repro");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn golden_write_verify_roundtrip_and_config_mismatch() {
    let path = std::env::temp_dir().join(format!("repro-goldens-{}.fp", std::process::id()));
    let goldens = path.to_str().unwrap();
    let out = repro()
        .args([
            "--target",
            "2000",
            "--seed",
            "5",
            "--goldens",
            goldens,
            "--write-goldens",
            "all",
        ])
        .output()
        .expect("run repro");
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("wrote 17 golden fingerprints"));

    let out = repro()
        .args([
            "--target",
            "2000",
            "--seed",
            "5",
            "--goldens",
            goldens,
            "--verify-goldens",
            "all",
        ])
        .output()
        .expect("run repro");
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("goldens verified: 17 experiments"));

    // A different seed must be rejected up front as a config mismatch.
    let out = repro()
        .args([
            "--target",
            "2000",
            "--seed",
            "6",
            "--goldens",
            goldens,
            "--verify-goldens",
            "all",
        ])
        .output()
        .expect("run repro");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("goldens were captured at seed=5"),
        "{out:?}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn seed_flag_changes_results() {
    let run = |seed: &str| {
        let out = repro()
            .args(["--target", "2000", "--seed", seed, "table1"])
            .output()
            .expect("run repro");
        assert!(out.status.success());
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    assert_ne!(run("1"), run("2"));
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
    // A scan starts at most one thread and `par_map` at most
    // `MAX_THREADS`, so a huge budget neither aborts on thread spawn nor
    // changes stdout.
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
    // benchmark: one oracle analysis (miss), one profile (miss), and the
    // packed-stream artifact the profile is derived from (miss), reused
    // across the three experiments — everything else must hit.
    assert_eq!(
        misses,
        32 + 8 + 8 + 8,
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
    // cache accounting is unchanged.
    let json = timings_json(&["--target", "3000", "--jobs", "2", "fig4", "table2", "fig7"]);
    assert_eq!(counts(&json, "builds"), [1; 8], "{json}");
    assert_eq!(counts(&json, "misses"), [56], "{json}");

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
fn streamed_traces_print_what_materialized_ones_print() {
    // `--stream` regenerates each workload on every builder scan instead
    // of holding the trace, through the same fig5-first evaluation order.
    let run = |stream: bool| {
        let mut cmd = repro();
        cmd.args(["--target", "2000", "--jobs", "2"]);
        if stream {
            cmd.arg("--stream");
        }
        let out = cmd.arg("all").output().expect("run repro");
        assert!(out.status.success(), "{out:?}");
        out.stdout
    };
    assert_eq!(run(true), run(false));
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
