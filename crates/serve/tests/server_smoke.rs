//! In-process integration tests for the serving stack: byte-identical
//! outputs vs the direct engine path, warm-cache hits, coalescing,
//! overload shedding, deadlines, trace evaluation, the typed error paths,
//! and graceful drain.
//!
//! Every test binds `127.0.0.1:0` so tests run concurrently without port
//! clashes, and uses small workload targets so the whole file stays fast.

use std::net::TcpStream;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

use bp_experiments::{run_experiment, Engine, ExperimentConfig, TraceSet};
use bp_serve::{
    read_frame, run_bench, spawn, write_frame, BenchOptions, Client, ErrorCode, PredictorSpec,
    Response, ServerConfig, ServerHandle, DEFAULT_MAX_FRAME,
};
use bp_trace::{BranchKind, BranchRecord, Trace};
use bp_workloads::WorkloadConfig;

/// Per-test unique seeds so result caches never alias across tests that
/// share a server, while staying deterministic.
fn unique_seed() -> u64 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    0x5EED_0000 + u64::from(NEXT.fetch_add(1, Ordering::Relaxed))
}

fn quiet_server(workers: usize, queue_capacity: usize) -> ServerHandle {
    spawn(ServerConfig {
        workers,
        queue_capacity,
        quiet: true,
        ..ServerConfig::default()
    })
    .expect("bind 127.0.0.1:0")
}

fn connect(handle: &ServerHandle) -> Client {
    Client::connect(&handle.local_addr().to_string()).expect("connect to test server")
}

const TARGET: u64 = 1500;

#[test]
fn served_output_is_byte_identical_to_direct_engine() {
    let seed = unique_seed();
    let handle = quiet_server(2, 16);
    let mut client = connect(&handle);

    let served = match client.eval("fig4", seed, TARGET, None).expect("eval call") {
        Response::Result { output, cached, .. } => {
            assert!(!cached, "first query computes");
            output
        }
        other => panic!("expected a result, got {other:?}"),
    };

    let workload = WorkloadConfig::default()
        .with_seed(seed)
        .with_target(TARGET as usize);
    let engine = Engine::new(TraceSet::new(workload), 1);
    let cfg = ExperimentConfig {
        workload,
        ..ExperimentConfig::default()
    };
    let direct = run_experiment("fig4", &cfg, &engine).expect("fig4 is a valid id");
    assert_eq!(served, direct, "served output must be byte-identical");

    handle.begin_drain();
    handle.join();
}

#[test]
fn repeated_query_is_a_cache_hit_and_stats_see_it() {
    let seed = unique_seed();
    let handle = quiet_server(2, 16);
    let mut client = connect(&handle);

    let first = match client.eval("fig5", seed, TARGET, None).expect("first eval") {
        Response::Result { output, cached, .. } => {
            assert!(!cached);
            output
        }
        other => panic!("expected a result, got {other:?}"),
    };
    for _ in 0..3 {
        match client.eval("fig5", seed, TARGET, None).expect("warm eval") {
            Response::Result { output, cached, .. } => {
                assert!(cached, "identical repeat must hit the rendered cache");
                assert_eq!(output, first);
            }
            other => panic!("expected a result, got {other:?}"),
        }
    }

    let snapshot = match client.stats().expect("stats call") {
        Response::Stats { snapshot, .. } => snapshot,
        other => panic!("expected stats, got {other:?}"),
    };
    assert_eq!(snapshot.eval.requests, 4);
    assert_eq!(snapshot.eval.ok, 4);
    assert_eq!(snapshot.result_cache_hits, 3);
    assert_eq!(snapshot.engines, 1);
    assert!(snapshot.eval_latency.count >= 4);

    handle.begin_drain();
    handle.join();
}

#[test]
fn identical_inflight_requests_coalesce() {
    let seed = unique_seed();
    // One worker, so the delayed ping keeps the eval queued while the
    // duplicates arrive and attach to the in-flight entry.
    let handle = quiet_server(1, 16);
    let addr = handle.local_addr().to_string();

    let mut pinger = connect(&handle);
    let outputs: Vec<String> = std::thread::scope(|scope| {
        // Occupy the only worker so the eval cannot start yet.
        let pinger = scope.spawn(move || pinger.ping(Some(400)).expect("delayed ping"));
        std::thread::sleep(Duration::from_millis(100));
        let evals: Vec<_> = (0..3)
            .map(|_| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut client = Client::connect(&addr).expect("connect");
                    match client.eval("table1", seed, TARGET, None).expect("eval") {
                        Response::Result { output, .. } => output,
                        other => panic!("expected a result, got {other:?}"),
                    }
                })
            })
            .collect();
        let outputs = evals
            .into_iter()
            .map(|h| h.join().expect("eval thread"))
            .collect();
        assert!(matches!(
            pinger.join().expect("ping thread"),
            Response::Pong { .. }
        ));
        outputs
    });
    assert!(outputs.windows(2).all(|w| w[0] == w[1]));

    let mut client = connect(&handle);
    let snapshot = match client.stats().expect("stats") {
        Response::Stats { snapshot, .. } => snapshot,
        other => panic!("expected stats, got {other:?}"),
    };
    assert!(
        snapshot.coalesced >= 2,
        "two of the three identical evals must coalesce, saw {}",
        snapshot.coalesced
    );
    assert_eq!(snapshot.eval.ok, 3);

    handle.begin_drain();
    handle.join();
}

#[test]
fn overload_sheds_with_typed_errors() {
    let seed = unique_seed();
    // One worker and a one-slot queue: one job runs, one waits, the next
    // is shed at the door.
    let handle = quiet_server(1, 1);
    let addr = handle.local_addr().to_string();

    std::thread::scope(|scope| {
        let a = addr.clone();
        let busy = scope.spawn(move || {
            let mut c = Client::connect(&a).expect("connect");
            c.ping(Some(500)).expect("ping occupying the worker")
        });
        std::thread::sleep(Duration::from_millis(100));
        let a = addr.clone();
        let queued = scope.spawn(move || {
            let mut c = Client::connect(&a).expect("connect");
            c.ping(Some(500)).expect("ping filling the queue")
        });
        std::thread::sleep(Duration::from_millis(100));

        // Queue full: the eval must be rejected immediately and typed.
        let mut c = Client::connect(&addr).expect("connect");
        match c.eval("fig4", seed, TARGET, None).expect("eval call") {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::Overloaded),
            other => panic!("expected overloaded, got {other:?}"),
        }

        assert!(matches!(
            busy.join().expect("busy ping"),
            Response::Pong { .. }
        ));
        assert!(matches!(
            queued.join().expect("queued ping"),
            Response::Pong { .. }
        ));
    });

    let mut client = connect(&handle);
    let snapshot = match client.stats().expect("stats") {
        Response::Stats { snapshot, .. } => snapshot,
        other => panic!("expected stats, got {other:?}"),
    };
    assert!(snapshot.overloaded >= 1);
    assert!(snapshot.eval.errors >= 1);

    handle.begin_drain();
    handle.join();
}

#[test]
fn deadline_exceeded_while_queued() {
    let seed = unique_seed();
    let handle = quiet_server(1, 16);
    let addr = handle.local_addr().to_string();

    std::thread::scope(|scope| {
        let a = addr.clone();
        let busy = scope.spawn(move || {
            let mut c = Client::connect(&a).expect("connect");
            c.ping(Some(400)).expect("ping occupying the worker")
        });
        std::thread::sleep(Duration::from_millis(100));

        // Queued behind a 400ms job with a 50ms deadline: by the time a
        // worker reaches it the deadline has passed, and the computation
        // is skipped in favor of a typed error.
        let mut c = Client::connect(&addr).expect("connect");
        match c.eval("fig4", seed, TARGET, Some(50)).expect("eval call") {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::DeadlineExceeded),
            other => panic!("expected deadline_exceeded, got {other:?}"),
        }
        assert!(matches!(
            busy.join().expect("busy ping"),
            Response::Pong { .. }
        ));
    });

    let mut client = connect(&handle);
    let snapshot = match client.stats().expect("stats") {
        Response::Stats { snapshot, .. } => snapshot,
        other => panic!("expected stats, got {other:?}"),
    };
    assert!(snapshot.deadline_missed >= 1);
    assert_eq!(
        snapshot.engines, 0,
        "the shed eval built no engine: its computation was skipped"
    );

    handle.begin_drain();
    handle.join();
}

#[test]
fn invalid_requests_get_typed_errors() {
    let handle = quiet_server(1, 4);
    let mut client = connect(&handle);

    match client
        .eval("no_such_figure", 1, TARGET, None)
        .expect("call")
    {
        Response::Error { code, message, .. } => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(message.contains("no_such_figure"));
        }
        other => panic!("expected bad_request, got {other:?}"),
    }
    match client.eval("fig4", 1, 0, None).expect("call") {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected bad_request for target 0, got {other:?}"),
    }
    // trace_eval without a configured --trace-dir is refused.
    match client
        .trace_eval("a.bpt", PredictorSpec::Gshare { bits: 10 }, None)
        .expect("call")
    {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected bad_request, got {other:?}"),
    }

    handle.begin_drain();
    handle.join();
}

#[test]
fn unknown_request_type_and_oversized_frames_are_rejected() {
    let handle = spawn(ServerConfig {
        workers: 1,
        queue_capacity: 4,
        max_frame: 4096,
        quiet: true,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = handle.local_addr();

    // An unrecognized type gets a typed `unknown_request` error that still
    // echoes the id, and the connection stays usable.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let payload = br#"{"type": "no_such_thing", "id": 77}"#;
        write_frame(&mut stream, payload, DEFAULT_MAX_FRAME).expect("write");
        let resp = read_frame(&mut stream, DEFAULT_MAX_FRAME)
            .expect("read")
            .expect("response present");
        match Response::decode(&resp).expect("decodes") {
            Response::Error { id, code, .. } => {
                assert_eq!(id, 77);
                assert_eq!(code, ErrorCode::UnknownRequest);
            }
            other => panic!("expected unknown_request, got {other:?}"),
        }
        // Still usable afterwards.
        write_frame(
            &mut stream,
            br#"{"type": "ping", "id": 78}"#,
            DEFAULT_MAX_FRAME,
        )
        .expect("write");
        let resp = read_frame(&mut stream, DEFAULT_MAX_FRAME)
            .expect("read")
            .expect("pong present");
        assert!(matches!(
            Response::decode(&resp).expect("decodes"),
            Response::Pong { id: 78 }
        ));
    }

    // A frame above the server's cap is answered with an error and the
    // connection dropped (the payload is never buffered).
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let huge = vec![b'{'; 8192];
        write_frame(&mut stream, &huge, DEFAULT_MAX_FRAME).expect("client-side write");
        let resp = read_frame(&mut stream, DEFAULT_MAX_FRAME)
            .expect("read")
            .expect("error present");
        match Response::decode(&resp).expect("decodes") {
            Response::Error { code, message, .. } => {
                assert_eq!(code, ErrorCode::BadRequest);
                assert!(message.contains("exceeds"));
            }
            other => panic!("expected bad_request, got {other:?}"),
        }
        // Server closes after an oversized frame.
        assert!(matches!(
            read_frame(&mut stream, DEFAULT_MAX_FRAME),
            Ok(None) | Err(_)
        ));
    }

    handle.begin_drain();
    handle.join();
}

#[test]
fn trace_eval_works_inside_the_sandbox() {
    let dir = std::env::temp_dir().join(format!("bp-serve-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create trace dir");

    // An alternating branch: gshare learns it almost perfectly.
    let records: Vec<BranchRecord> = (0..512)
        .map(|i| BranchRecord {
            pc: 0x40,
            target: 0x80,
            taken: i % 2 == 0,
            kind: BranchKind::Conditional,
        })
        .collect();
    let trace = Trace::from_records(records);
    let mut buf = Vec::new();
    bp_trace::io::write_trace(&mut buf, &trace).expect("encode");
    std::fs::write(dir.join("alt.bpt"), &buf).expect("write trace");
    // A corrupt file: valid magic prefix, then a mid-record cut.
    std::fs::write(dir.join("cut.bpt"), &buf[..buf.len() - 3]).expect("write corrupt trace");

    let handle = spawn(ServerConfig {
        workers: 1,
        queue_capacity: 8,
        trace_dir: Some(dir.clone()),
        quiet: true,
        ..ServerConfig::default()
    })
    .expect("bind");
    let mut client = connect(&handle);

    match client
        .trace_eval("alt.bpt", PredictorSpec::Gshare { bits: 10 }, None)
        .expect("call")
    {
        Response::TraceResult {
            predictions,
            correct,
            ..
        } => {
            assert_eq!(predictions, 512);
            assert!(
                correct >= 500,
                "gshare must learn an alternating branch, got {correct}/512"
            );
        }
        other => panic!("expected a trace result, got {other:?}"),
    }

    // Corruption surfaces as a typed bad_trace error, not a dead worker.
    match client
        .trace_eval("cut.bpt", PredictorSpec::Pas, None)
        .expect("call")
    {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadTrace),
        other => panic!("expected bad_trace, got {other:?}"),
    }
    // And the worker is still alive for the next request.
    match client
        .trace_eval("alt.bpt", PredictorSpec::IfGshare { bits: 8 }, None)
        .expect("call")
    {
        Response::TraceResult { predictions, .. } => assert_eq!(predictions, 512),
        other => panic!("expected a trace result, got {other:?}"),
    }

    // Escape attempts are refused at admission.
    for path in ["../alt.bpt", "/etc/passwd", ""] {
        match client
            .trace_eval(path, PredictorSpec::Pas, None)
            .expect("call")
        {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
            other => panic!("expected bad_request for {path:?}, got {other:?}"),
        }
    }

    handle.begin_drain();
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_drain_finishes_queued_work_then_exits() {
    let handle = quiet_server(1, 8);
    let addr = handle.local_addr().to_string();

    std::thread::scope(|scope| {
        // Occupy the worker, leaving a queued ping behind it.
        let a = addr.clone();
        let slow = scope.spawn(move || {
            let mut c = Client::connect(&a).expect("connect");
            c.ping(Some(300)).expect("slow ping")
        });
        let a = addr.clone();
        let queued = scope.spawn(move || {
            let mut c = Client::connect(&a).expect("connect");
            c.ping(Some(50)).expect("queued ping")
        });
        std::thread::sleep(Duration::from_millis(100));

        // Shutdown is acknowledged while work is still in the queue.
        let mut c = Client::connect(&addr).expect("connect");
        match c.shutdown().expect("shutdown call") {
            Response::ShuttingDown { .. } => {}
            other => panic!("expected shutdown ack, got {other:?}"),
        }

        // Nothing queued is dropped: both pings still complete.
        assert!(matches!(
            slow.join().expect("slow ping"),
            Response::Pong { .. }
        ));
        assert!(matches!(
            queued.join().expect("queued ping"),
            Response::Pong { .. }
        ));

        // New work after the drain began is refused (or the listener is
        // already gone).
        if let Ok(mut late) = Client::connect(&addr) {
            if let Ok(resp) = late.eval("fig4", unique_seed(), TARGET, None) {
                match resp {
                    Response::Error { code, .. } => {
                        assert_eq!(code, ErrorCode::ShuttingDown);
                    }
                    other => panic!("expected shutting_down, got {other:?}"),
                }
            }
        }
    });

    // join() returning at all is the drain guarantee; a hang here fails
    // the test by timeout.
    handle.join();
}

#[test]
fn restarted_server_serves_prior_working_set_from_the_warm_cache() {
    let dir = std::env::temp_dir().join(format!("bp-serve-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let seed = unique_seed();
    let cached_server = || {
        spawn(ServerConfig {
            workers: 2,
            queue_capacity: 16,
            cache_dir: Some(dir.clone()),
            quiet: true,
            ..ServerConfig::default()
        })
        .expect("bind 127.0.0.1:0")
    };

    // First life: compute once, cache persists to disk.
    let cold = {
        let handle = cached_server();
        let mut client = connect(&handle);
        let output = match client.eval("fig4", seed, TARGET, None).expect("cold eval") {
            Response::Result { output, cached, .. } => {
                assert!(!cached, "first-ever query computes");
                output
            }
            other => panic!("expected a result, got {other:?}"),
        };
        handle.begin_drain();
        handle.join();
        output
    };

    // Second life: the same key must be served as a cache hit without
    // recomputation, byte-identical to the cold run.
    let handle = cached_server();
    let mut client = connect(&handle);
    match client.eval("fig4", seed, TARGET, None).expect("warm eval") {
        Response::Result { output, cached, .. } => {
            assert!(cached, "a restarted daemon must hit its warm-started cache");
            assert_eq!(
                output, cold,
                "warm output is byte-identical to the cold run"
            );
        }
        other => panic!("expected a result, got {other:?}"),
    }
    match client.stats().expect("stats") {
        Response::Stats { snapshot, .. } => {
            assert!(
                snapshot.warm_start_entries >= 1,
                "boot reloaded the persisted entry"
            );
            assert_eq!(snapshot.result_cache_hits, 1, "the repeat was a memory hit");
            assert_eq!(
                snapshot.engines, 0,
                "no engine was built — the warm hit skipped computation entirely"
            );
        }
        other => panic!("expected stats, got {other:?}"),
    }
    handle.begin_drain();
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn open_loop_bench_reports_queueing_delay_and_closed_loop_does_not() {
    let seed = unique_seed();
    let handle = quiet_server(2, 16);
    let addr = handle.local_addr().to_string();

    // Open loop at a rate this warm-cache path meets easily: the report
    // carries the queueing-delay percentiles and renders them.
    let open = run_bench(&BenchOptions {
        addrs: vec![addr.clone()],
        conns: 2,
        requests_per_conn: 6,
        seed,
        target: TARGET,
        rate: Some(400.0),
        ..BenchOptions::default()
    })
    .expect("open-loop bench");
    assert_eq!(open.sent, 12);
    assert_eq!(open.ok, 12, "all requests answered: {open:?}");
    assert!(open.open_loop);
    assert!(
        open.queue_max_ms >= open.queue_p50_ms,
        "queue percentiles ordered: {open:?}"
    );
    assert!(open.render_text().contains("queueing delay ms"));
    assert!(open.render_json().contains("\"queue_p50_ms\""));

    // The same run closed-loop keeps the historical report shape: no
    // queueing fields in either rendering.
    let closed = run_bench(&BenchOptions {
        addrs: vec![addr],
        conns: 2,
        requests_per_conn: 6,
        seed,
        target: TARGET,
        ..BenchOptions::default()
    })
    .expect("closed-loop bench");
    assert!(!closed.open_loop);
    assert!(!closed.render_text().contains("queueing delay"));
    assert!(!closed.render_json().contains("queue_p50_ms"));

    handle.begin_drain();
    handle.join();
}
