//! End-to-end tests of the `bp-conformance` CLI and the injectable
//! differential harness.

use std::process::Command;

use bp_conformance::{corpus, run_case, DiffConfig, Kernels};
use bp_core::BranchMatrix;
use bp_predictors::SaturatingCounter;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bp-conformance"))
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("bp-conformance-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn sweep_without_goldens_is_green() {
    let out = bin()
        .args(["sweep", "--cases", "8", "--seed", "1", "--skip-goldens"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("sweep OK"), "stdout: {stdout}");
}

#[test]
fn selftest_catches_all_injected_bugs() {
    let out = bin().arg("selftest").output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("selftest OK"), "stdout: {stdout}");
    assert_eq!(stdout.matches("caught:").count(), 4, "stdout: {stdout}");
}

#[test]
fn gen_then_diff_roundtrips_through_bpt_files() {
    let dir = temp_dir("gen");
    let out = bin()
        .args(["gen", "--cases", "4", "--seed", "2", "--out"])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut traces: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "bpt"))
        .collect();
    assert!(traces.len() >= 13, "only {} traces generated", traces.len());
    traces.sort();
    traces.truncate(3);
    let out = bin().arg("diff").args(&traces).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        stdout.matches("all suites agree").count(),
        3,
        "stdout: {stdout}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unknown_command_and_bad_options_fail() {
    // A flag's value may not be the next flag, and a command refuses the
    // options it does not read; neither may write a file.
    for (args, why) in [
        (&["frobnicate"][..], "unknown command: frobnicate"),
        (
            &["sweep", "--budget", "soon"],
            r#"--budget needs a duration such as 60s or 500ms, got "soon""#,
        ),
        (&["diff"], "diff needs at least one .bpt file"),
        (
            &["gen", "--cases", "2", "--out", "--seed"],
            r#"--out needs a value, got "--seed""#,
        ),
        (
            &[
                "laws",
                "--cases",
                "1",
                "--budget",
                "1s",
                "--out",
                "x",
                "--skip-goldens",
                "--repro-dir",
                "y",
            ],
            "laws does not take --budget",
        ),
    ] {
        let dir = temp_dir("usage");
        let out = bin().args(args).current_dir(&dir).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(err.contains(&format!("error: {why}\n")), "{args:?}: {err}");
        assert!(err.contains("usage: bp-conformance"), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing runs");
        let made = std::fs::read_dir(&dir).unwrap().count();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(made, 0, "{args:?} wrote a file");
    }
}

/// Off-by-one injected at the library level: the harness must catch it,
/// attribute it to the oracle suite, and hand back a minimized trace
/// that still exhibits the divergence.
#[test]
fn injected_scorer_bug_yields_minimized_reproducer() {
    fn buggy(bm: &BranchMatrix, cols: &[usize], init: SaturatingCounter) -> u64 {
        let s = bp_core::score_tag_set(bm, cols, init);
        if !bm.executions().is_multiple_of(64) && cols.len() == 1 {
            s + 1
        } else {
            s
        }
    }
    let kernels = Kernels {
        tag_scorer: buggy,
        ..Kernels::default()
    };
    let cfg = DiffConfig::default();
    let divergence = corpus(9, 13)
        .find_map(|case| run_case(&case.name, &case.trace, &cfg, &kernels))
        .expect("injected oracle bug must be caught on the canned corpus");
    assert_eq!(divergence.suite, "oracle");
    assert!(
        divergence.trace.records().len() <= 8,
        "reproducer not minimized: {} records",
        divergence.trace.records().len()
    );
    assert!(
        bp_conformance::diff::diff_oracle(&divergence.trace, &cfg.oracle, &kernels).is_some(),
        "minimized reproducer no longer diverges"
    );
}

#[test]
fn an_unwritable_stdout_is_an_error_not_a_panic() {
    let dir = temp_dir("full");
    for args in [
        &["laws", "--cases", "2"][..],
        &["gen", "--cases", "2", "--out", dir.to_str().unwrap()],
    ] {
        let full = std::fs::OpenOptions::new()
            .write(true)
            .open("/dev/full")
            .expect("open /dev/full");
        let out = bin().args(args).stdout(full).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(
            err.contains("error: cannot write output"),
            "{args:?}: {err}"
        );
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
