//! The serving path, in-process: a `bp-serve` daemon answers one `fig4`
//! evaluation at the target and seed CI's serve step queries, and the
//! answer must be the bytes `repro --quick --bare fig4` prints. The served
//! cold evaluation builds its window-16 oracle matrix through the same
//! candidate and matrix passes the batch path runs.
//!
//! The other two tests pin the request lifecycle: a queued request's
//! deadline is checked when a worker takes it and again when its answer
//! is ready.

use std::net::TcpStream;
use std::time::{Duration, Instant};

use bp_experiments::repro;
use bp_serve::{
    read_frame, spawn, write_frame, Client, ErrorCode, PredictorSpec, Request, Response,
    ServerConfig, ServerHandle, StatsSnapshot, DEFAULT_MAX_FRAME,
};
use bp_trace::{BranchKind, BranchRecord, Trace};
use bp_workloads::WorkloadConfig;

fn connect(handle: &ServerHandle) -> Client {
    Client::connect(&handle.local_addr().to_string()).expect("connect to the daemon")
}

fn stats(handle: &ServerHandle) -> StatsSnapshot {
    match connect(handle).stats().expect("stats call") {
        Response::Stats { snapshot, .. } => *snapshot,
        other => panic!("expected stats, got {other:?}"),
    }
}

#[test]
fn served_fig4_equals_the_quick_repro_section() {
    let handle = spawn(ServerConfig {
        quiet: true,
        ..ServerConfig::default()
    })
    .expect("bind 127.0.0.1:0");
    let mut client = connect(&handle);
    let seed = WorkloadConfig::default().seed;
    let served = match client.eval("fig4", seed, 40_000, None).expect("eval call") {
        Response::Result { output, .. } => output,
        other => panic!("expected a result, got {other:?}"),
    };
    handle.begin_drain();
    handle.join();

    let args = ["--quick", "--bare", "fig4"].map(String::from);
    let opts = repro::Options::parse(args).expect("the flags parse");
    let mut direct = Vec::new();
    repro::run(&opts, &mut direct).expect("repro runs fig4");
    // `repro` ends the section with a newline, as `bp-client` prints it.
    assert_eq!(format!("{served}\n"), String::from_utf8_lossy(&direct));
}

/// An idle worker takes the request well inside its deadline, but
/// reading and scoring a million records takes far longer: about 300 ms
/// in the test build and 70 ms in a release build on a 2-vCPU container,
/// against a 25 ms deadline. The answer is ready late.
#[test]
fn a_trace_answer_ready_after_its_deadline_is_deadline_exceeded() {
    const DEADLINE_MS: u64 = 25;
    const RECORDS: u64 = 1_000_000;
    let dir = std::env::temp_dir().join(format!("bp-serve-late-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the trace dir");
    let records = (0..RECORDS)
        .map(|i| BranchRecord {
            pc: 0x40 + (i % 61) * 4,
            target: 0x8000,
            taken: i % 3 == 0,
            kind: BranchKind::Conditional,
        })
        .collect();
    let mut bytes = Vec::new();
    bp_trace::io::write_trace(&mut bytes, &Trace::from_records(records)).expect("encode");
    std::fs::write(dir.join("long.bpt"), bytes).expect("write the trace");

    let handle = spawn(ServerConfig {
        workers: 1,
        trace_dir: Some(dir.clone()),
        quiet: true,
        ..ServerConfig::default()
    })
    .expect("bind 127.0.0.1:0");
    let reply = connect(&handle)
        .trace_eval(
            "long.bpt",
            PredictorSpec::Gshare { bits: 12 },
            Some(DEADLINE_MS),
        )
        .expect("trace_eval call");
    match reply {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::DeadlineExceeded),
        other => panic!("a late trace answer must not be sent, got {other:?}"),
    }
    let s = stats(&handle);
    assert_eq!((s.deadline_missed, s.trace_eval.errors), (1, 1));
    // Recorded at the answer, so the worker computed it: the deadline
    // had not passed when the worker took the request.
    assert_eq!(s.trace_latency.count, 1);
    handle.begin_drain();
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A delayed ping and an eval queued behind a busy worker expire while
/// they wait: the worker answers each when it takes it, so the ping never
/// sleeps and the eval never builds an engine.
#[test]
fn requests_that_expire_in_the_queue_are_answered_when_a_worker_takes_them() {
    let handle = spawn(ServerConfig {
        workers: 1,
        quiet: true,
        ..ServerConfig::default()
    })
    .expect("bind 127.0.0.1:0");
    // All three on one connection: the reactor dispatches them in order,
    // so the one worker takes the 300 ms ping first and the other two
    // wait behind it past their 50 ms deadlines.
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    let ping = |id, delay, deadline_ms| Request::Ping {
        id,
        delay_ms: Some(delay),
        deadline_ms,
    };
    let eval = Request::Eval {
        id: 3,
        experiment: "fig4".to_owned(),
        seed: 1,
        target: 2000,
        deadline_ms: Some(50),
    };
    let started = Instant::now();
    for req in [ping(1, 300, None), ping(2, 2000, Some(50)), eval] {
        write_frame(&mut stream, &req.encode(), DEFAULT_MAX_FRAME).expect("send a request");
    }
    let mut next = || {
        let frame = read_frame(&mut stream, DEFAULT_MAX_FRAME).expect("read a response");
        Response::decode(&frame.expect("a response")).expect("it decodes")
    };
    assert!(matches!(next(), Response::Pong { id: 1 }));
    for id in [2, 3] {
        match next() {
            Response::Error { id: got, code, .. } if got == id => {
                assert_eq!(code, ErrorCode::DeadlineExceeded);
            }
            other => panic!("expected deadline_exceeded for {id}, got {other:?}"),
        }
    }
    let took = started.elapsed();
    assert!(
        took < Duration::from_millis(1000),
        "an expired request held the worker: answered after {took:?}"
    );
    let s = stats(&handle);
    assert_eq!((s.deadline_missed, s.ping.errors, s.eval.errors), (2, 1, 1));
    assert_eq!(s.engines, 0, "the expired eval built no engine");
    handle.begin_drain();
    handle.join();
}
