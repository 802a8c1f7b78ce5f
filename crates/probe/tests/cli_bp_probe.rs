//! End-to-end tests of the `bp-probe` binary's failure paths: a flag
//! that would size a zoo table or a probe trace past its bound, or a
//! stdout that cannot be written, is an `error:` line and exit 1, never
//! a panic or an allocation. Every rejected value here is rejected while
//! the flags parse, so these tests allocate nothing large.

use std::process::{Command, Output};

fn bp_probe(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bp-probe"))
        .args(args)
        .output()
        .expect("run bp-probe")
}

#[test]
fn oversized_geometries_and_traces_are_rejected_before_anything_runs() {
    for (args, message) in [
        (
            &["sweep", "padding", "--gshare-bits", "25"][..],
            "error: --gshare-bits needs a history length in 1..=24",
        ),
        (
            &["sweep", "padding", "--gshare-bits", "28"],
            "error: --gshare-bits needs a history length in 1..=24",
        ),
        (
            &["sweep", "padding", "--pas-history", "21"],
            "error: --pas-history needs a history length in 1..=20",
        ),
        (
            &["sweep", "padding", "--pas-history", "28"],
            "error: --pas-history needs a history length in 1..=20",
        ),
        (
            // 38 records per round at the default grid's 36 pads.
            &["sweep", "padding", "--rounds", "110377"],
            "error: the padding-global probe at pads=36 would hold 4194326 records",
        ),
        (
            &["sweep", "all", "--rounds", "18446744073709551615"],
            "over the 4194304-record cap",
        ),
        (
            &["sweep", "aliasing", "--rounds", "2097153"],
            "error: the aliasing probe at bit=0 would hold 4194306 records",
        ),
        (
            &["sweep", "padding", "--grid", "0..100000:100000"],
            "error: the padding-global probe at pads=100000 would hold 300006000 records",
        ),
        (
            &["sweep", "history", "--grid", "65536..65536"],
            "error: the history probe at trip=65536 would hold 4194368 records",
        ),
        (
            &["sweep", "history", "--grid", "1..18446744073709551615"],
            "error: grid end 18446744073709551615 exceeds 4194304",
        ),
    ] {
        let out = bp_probe(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(err.contains(message), "{args:?}: {err}");
        assert!(err.contains("usage: "), "{args:?}: {err}");
        assert!(
            err.contains("each zoo table at most 32 MiB") && err.contains("4194304 records"),
            "the usage states both bounds: {err}"
        );
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?}: no sweep may run");
    }
}

#[test]
fn an_unwritable_stdout_is_an_error_not_a_panic() {
    let full = std::fs::OpenOptions::new()
        .write(true)
        .open("/dev/full")
        .expect("open /dev/full");
    let out = Command::new(env!("CARGO_BIN_EXE_bp-probe"))
        .args(["sweep", "aliasing", "--rounds", "100", "--jobs", "1"])
        .stdout(full)
        .output()
        .expect("run bp-probe");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("error: cannot write output"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}
