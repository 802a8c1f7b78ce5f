//! Flag handling of the serving binaries: a bad or unknown flag must exit 1
//! with an `error:` line that names it, instead of running with a default
//! or a wrapped value. A stdout that cannot be written is an `error:` line
//! and exit 1 too, never a panic, and a stderr that cannot be written
//! changes neither stdout nor the exit code.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

fn dev_full() -> std::fs::File {
    std::fs::OpenOptions::new()
        .write(true)
        .open("/dev/full")
        .expect("open /dev/full")
}

fn assert_unwritable_stdout_fails_cleanly(out: &Output, what: &str) {
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{what}: {err}");
    assert!(err.contains("error: cannot write output"), "{what}: {err}");
    assert!(!err.contains("panicked"), "{what}: {err}");
}

/// A pipe whose read end is already closed: every write to it fails.
fn closed_stderr() -> std::io::PipeWriter {
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    drop(reader);
    writer
}

/// Waits up to 10 s for `child` to exit; one still running then is
/// killed and the test fails rather than hangs.
fn wait_or_kill(mut child: Child, what: &str) -> Output {
    let deadline = Instant::now() + Duration::from_secs(10);
    while child.try_wait().expect("poll the child").is_none() {
        if Instant::now() > deadline {
            child.kill().expect("kill the child");
            let out = child.wait_with_output().expect("reap the child");
            panic!("{what} is still running: {out:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child
        .wait_with_output()
        .expect("collect the child's output")
}

/// Runs `bp-serve` with `args` on an ephemeral port. A daemon that is
/// still running after the timeout accepted the flags and is serving:
/// it is killed and the test fails rather than hangs.
fn serve(args: &[&str]) -> Output {
    serve_to(args, Stdio::piped())
}

/// [`serve`] with its stdout sent to `stdout`.
fn serve_to(args: &[&str], stdout: impl Into<Stdio>) -> Output {
    let child = Command::new(env!("CARGO_BIN_EXE_bp-serve"))
        .args(["--addr", "127.0.0.1:0", "--quiet"])
        .args(args)
        .stdin(Stdio::null())
        .stdout(stdout)
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn bp-serve");
    wait_or_kill(child, &format!("bp-serve {args:?}"))
}

/// Runs `bp-client` against an address nothing listens on: flags are
/// parsed before the client connects, so a rejected flag never gets
/// that far.
fn client(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bp-client"))
        .args(["--addr", "127.0.0.1:1"])
        .args(args)
        .output()
        .expect("run bp-client")
}

fn assert_rejects(out: &Output, flag: &str) {
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{flag}: {out:?}");
    assert!(
        err.lines()
            .any(|l| l.starts_with("error:") && l.contains(flag)),
        "no error line names {flag}: {err}"
    );
    assert!(err.contains("usage:"), "{err}");
}

#[test]
fn bp_serve_names_every_bad_value() {
    for (args, flag) in [
        // 2^44 MiB is 2^64 bytes: the budget must not wrap to zero.
        (
            &["--cache-budget-mb", "17592186044416"][..],
            "--cache-budget-mb",
        ),
        (&["--workers", "0"], "--workers"),
        (&["--workers", "x"], "--workers"),
        // One thread per worker: a huge count is refused before any
        // thread starts.
        (&["--workers", "257"], "--workers"),
        (&["--workers", "100000"], "--workers"),
    ] {
        let out = serve(args);
        assert_rejects(&out, flag);
        assert!(
            !String::from_utf8_lossy(&out.stdout).contains("listening"),
            "{args:?}: {out:?}"
        );
    }
}

#[test]
fn bp_client_names_every_bad_value() {
    for (args, flag) in [
        (&["eval", "fig4", "--seed", "x"][..], "--seed"),
        (&["eval", "fig4", "--retries", "x"], "--retries"),
        // 2^32 attempts must not wrap to one.
        (&["eval", "fig4", "--retries", "4294967296"], "--retries"),
        (&["trace", "a.bpt", "--bits", "4294967308"], "--bits"),
        (&["trace", "a.bpt", "--predictor", "tage"], "--predictor"),
        (&["bench", "--rate", "zz"], "--rate"),
        // A rate that is not positive must not fall back to a closed loop.
        (&["bench", "--rate", "0"], "--rate"),
        (&["bench", "--rate", "-5"], "--rate"),
        (&["bench", "--rate", "inf"], "--rate"),
        (&["bench", "--chaos-kill", "1"], "--chaos-kill"),
        // Zero is refused, never raised to one.
        (&["bench", "--conns", "0"], "--conns"),
        (&["bench", "--requests", "0"], "--requests"),
        (&["bench", "--spread", "0"], "--spread"),
        // One thread per connection: past the cap is refused before any
        // connection or thread starts.
        (&["bench", "--conns", "257"], "--conns"),
    ] {
        let out = client(args);
        assert_rejects(&out, flag);
        let err = String::from_utf8_lossy(&out.stderr);
        let errors = err.lines().filter(|l| l.starts_with("error")).count();
        assert_eq!(errors, 1, "{args:?}: {err}");
    }
}

#[test]
fn bp_client_idle_reports_a_failed_connection_whatever_the_count() {
    // A count no vector can hold: the first connection still fails
    // with an error line, not a capacity-overflow panic.
    let out = client(&["idle", "--conns", &u64::MAX.to_string(), "--hold-ms", "0"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(
        err.contains("error: connection 0 to 127.0.0.1:1 failed"),
        "{err}"
    );
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn bp_client_rejects_flags_its_subcommand_does_not_read() {
    for (args, flag) in [
        (
            &[
                "eval", "table1", "--target", "2000", "--trget", "5", "--bogus", "x",
            ][..],
            "--trget",
        ),
        (&["eval", "fig4", "--trget", "40000"], "--trget"),
        (&["bench", "--rsp", "5"], "--rsp"),
        (&["bench", "--rps", "5"], "--rps"),
    ] {
        assert_rejects(&client(args), flag);
    }
}

#[test]
fn bp_serve_drains_and_exits_when_it_cannot_announce_its_address() {
    let out = serve_to(&[], dev_full());
    assert_unwritable_stdout_fails_cleanly(&out, "bp-serve");
}

#[test]
fn bp_client_reports_an_unwritable_stdout() {
    let server = bp_serve::spawn(bp_serve::ServerConfig {
        quiet: true,
        ..bp_serve::ServerConfig::default()
    })
    .expect("spawn an in-process server");
    let addr = server.local_addr().to_string();
    for command in ["ping", "stats"] {
        let out = Command::new(env!("CARGO_BIN_EXE_bp-client"))
            .args(["--addr", &addr, command])
            .stdout(dev_full())
            .output()
            .expect("run bp-client");
        assert_unwritable_stdout_fails_cleanly(&out, command);
    }
    server.begin_drain();
    server.join();
}

#[test]
fn bp_client_help_prints_usage_and_exits_0() {
    for flag in ["--help", "-h"] {
        let out = client(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.starts_with("usage: bp-client"), "{flag}: {err}");
        assert!(!err.contains("error"), "{flag}: {err}");
    }
}

#[test]
fn bp_serve_with_a_closed_stderr_serves_pings_and_drains() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_bp-serve"))
        .args(["--addr", "127.0.0.1:0", "--workers", "1"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(closed_stderr())
        .spawn()
        .expect("spawn bp-serve");
    let mut line = String::new();
    let stdout = child.stdout.take().expect("a piped stdout");
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read the announcement");
    let Some(addr) = line.strip_prefix("listening ").map(str::trim) else {
        let out = wait_or_kill(child, "bp-serve");
        panic!("no listening line: {line:?}, {out:?}");
    };
    for (command, answer) in [
        ("ping", "pong\n".to_owned()),
        ("shutdown", format!("{addr} draining\n")),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_bp-client"))
            .args(["--addr", addr, command])
            .output()
            .expect("run bp-client");
        assert_eq!(String::from_utf8_lossy(&out.stdout), answer, "{out:?}");
    }
    let out = wait_or_kill(child, "bp-serve after shutdown");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn bp_client_with_a_closed_stderr_prints_the_same_answer() {
    let server = bp_serve::spawn(bp_serve::ServerConfig {
        quiet: true,
        ..bp_serve::ServerConfig::default()
    })
    .expect("spawn an in-process server");
    let addr = server.local_addr().to_string();
    let eval = || {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_bp-client"));
        cmd.args(["--addr", &addr, "eval", "fig4", "--target", "2000"]);
        cmd
    };
    let normal = eval().output().expect("run bp-client");
    assert!(normal.status.success(), "{normal:?}");
    // The repeat is a cache hit, which bp-client reports on stderr.
    let closed = eval()
        .stderr(closed_stderr())
        .output()
        .expect("run bp-client");
    assert_eq!(closed.status.code(), Some(0), "{closed:?}");
    assert_eq!(closed.stdout, normal.stdout);
    server.begin_drain();
    server.join();
}
