//! The conformance sweep, driven in-process through the same
//! `Options::parse` and `run` the `bp-conformance` binary calls: the 14
//! canned adversarial cases through every differential suite and every
//! metamorphic law. The golden stage is skipped here because
//! `tests/pipelines.rs` already checks `repro --quick all` against it.

#[test]
fn conformance_sweep_passes_on_the_canned_cases() {
    let dir = std::env::temp_dir().join(format!("conformance-sweep-{}", std::process::id()));
    let mut line: Vec<String> = "sweep --skip-goldens --cases 14 --repro-dir"
        .split(' ')
        .map(String::from)
        .collect();
    line.push(dir.to_str().expect("a UTF-8 temp dir").to_owned());
    let opts = bp_conformance::cli::Options::parse(line).expect("the flags parse");
    let mut out = Vec::new();
    let result = bp_conformance::cli::run(&opts, &mut out);
    let report = String::from_utf8_lossy(&out);
    // A divergence names its suite, case, branch and columns on stderr and
    // leaves a minimized reproducer in `dir`.
    assert!(
        result.is_ok(),
        "the sweep failed ({result:?}); see stderr and {}",
        dir.display()
    );
    assert!(
        report.starts_with("sweep OK: 14 cases"),
        "unexpected report: {report}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
