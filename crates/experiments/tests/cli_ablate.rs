//! End-to-end tests of the `ablate` binary's failure paths: a bad flag,
//! or a stdout that cannot be written, is an `error:` line and exit 1,
//! never a panic.

use std::process::Command;

fn ablate() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ablate"))
}

#[test]
fn ablate_rejects_bad_flags_with_usage() {
    let target = |v: &str| {
        format!("error: --target needs a branch count in 1..=100b (e.g. 500k, 2m, 1b), got {v:?}\n")
    };
    for (args, message) in [
        (
            &["--bogus"][..],
            "error: unknown argument --bogus\n".to_owned(),
        ),
        (&["gcc"], "error: unknown argument gcc\n".to_owned()),
        (&["--target", "x"], target("x")),
        (&["--target", "101b"], target("101b")),
        (
            &["--seed", "x"],
            "error: --seed needs an unsigned integer, got \"x\"\n".to_owned(),
        ),
    ] {
        let out = ablate().args(args).output().expect("run ablate");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(err.contains(&message), "{args:?}: {err}");
        assert!(err.contains("usage: "), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert!(
            out.stdout.is_empty(),
            "{args:?}: nothing runs before the flags parse"
        );
    }
}

#[test]
fn help_prints_usage_and_exits_0() {
    for flag in ["--help", "-h"] {
        let out = ablate().arg(flag).output().expect("run ablate");
        assert_eq!(out.status.code(), Some(0), "{flag}: {out:?}");
        assert!(String::from_utf8_lossy(&out.stderr).starts_with("usage: ablate"));
        assert!(out.stdout.is_empty(), "{flag}: nothing runs");
    }
}

#[test]
fn an_unwritable_stdout_is_an_error_not_a_panic() {
    let full = std::fs::OpenOptions::new()
        .write(true)
        .open("/dev/full")
        .expect("open /dev/full");
    let out = ablate()
        .args(["--target", "1000"])
        .stdout(full)
        .output()
        .expect("run ablate");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("error: cannot write output"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}
