//! Property tests for the `bp-serve` wire protocol: encode/decode
//! round-trips for every request and response shape (including hostile
//! strings), oversized-frame rejection on both sides, the
//! unknown-request-type error path, and decoder robustness against
//! arbitrary bytes.

use std::io::Cursor;

use proptest::prelude::*;

use bp_serve::stats::{EndpointSnapshot, LatencySnapshot, StatsSnapshot};
use bp_serve::{
    read_frame, write_frame, ErrorCode, FrameError, PredictorSpec, ProtocolError, Request,
    Response, DEFAULT_MAX_FRAME,
};

/// Strings that stress the JSON layer: quotes, backslashes, control
/// characters, multi-byte UTF-8, and astral-plane characters (which the
/// writer emits as surrogate-pair escapes).
fn arb_string() -> impl Strategy<Value = String> {
    prop::collection::vec((0u8..6, 0u32..0xD7FF), 0..24).prop_map(|parts| {
        parts
            .into_iter()
            .map(|(family, code)| match family {
                0 => char::from(b' ' + (code % 94) as u8), // printable ASCII
                1 => '"',
                2 => '\\',
                3 => char::from((code % 32) as u8), // control characters
                4 => char::from_u32(code.max(1)).unwrap_or('\u{FFFD}'),
                _ => char::from_u32(0x1F300 + code % 256).unwrap_or('\u{1F300}'),
            })
            .collect()
    })
}

/// Geometries inside each constructor's range: the decoder refuses the
/// rest (`a_geometry_outside_its_constructor_range_is_refused`).
fn arb_predictor() -> impl Strategy<Value = PredictorSpec> {
    (0u8..4, 0u32..64).prop_map(|(kind, r)| match kind {
        0 => PredictorSpec::Gshare { bits: 1 + r % 28 },
        1 => PredictorSpec::IfGshare { bits: 1 + r },
        2 => PredictorSpec::Pas,
        _ => PredictorSpec::IfPas {
            history_bits: 1 + r % 63,
        },
    })
}

fn arb_deadline() -> impl Strategy<Value = Option<u64>> {
    (any::<bool>(), any::<u64>()).prop_map(|(some, ms)| some.then_some(ms))
}

fn arb_request() -> impl Strategy<Value = Request> {
    (
        0u8..5,
        any::<u64>(),
        arb_string(),
        (any::<u64>(), any::<u64>()),
        arb_predictor(),
        arb_deadline(),
    )
        .prop_map(
            |(kind, id, text, (seed, target), predictor, deadline_ms)| match kind {
                0 => Request::Eval {
                    id,
                    experiment: text,
                    seed,
                    target,
                    deadline_ms,
                },
                1 => Request::TraceEval {
                    id,
                    path: text,
                    predictor,
                    deadline_ms,
                },
                2 => Request::Stats { id },
                3 => Request::Ping {
                    id,
                    delay_ms: deadline_ms.map(|ms| ms ^ 1),
                    deadline_ms,
                },
                _ => Request::Shutdown { id },
            },
        )
}

fn arb_endpoint() -> impl Strategy<Value = EndpointSnapshot> {
    (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(requests, ok, errors)| EndpointSnapshot {
        requests,
        ok,
        errors,
    })
}

fn arb_latency() -> impl Strategy<Value = LatencySnapshot> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(count, p50_us, p99_us, p999_us, max_us)| LatencySnapshot {
            count,
            p50_us,
            p99_us,
            p999_us,
            max_us,
        })
}

fn arb_snapshot() -> impl Strategy<Value = StatsSnapshot> {
    (
        (
            arb_endpoint(),
            arb_endpoint(),
            arb_endpoint(),
            arb_endpoint(),
            arb_endpoint(),
        ),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
        ),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
        ),
        (any::<u64>(), any::<u64>()),
        (arb_latency(), arb_latency()),
    )
        .prop_map(
            |(
                (eval, trace_eval, stats, ping, shutdown),
                (overloaded, deadline_missed, coalesced, result_cache_hits, bad_frames),
                (engines, engine_cache_hits, engine_cache_misses),
                (disk_cache_hits, cache_entries, cache_bytes, cache_evictions, warm_start_entries),
                (open_connections, conns_accepted),
                (eval_latency, trace_latency),
            )| StatsSnapshot {
                eval,
                trace_eval,
                stats,
                ping,
                shutdown,
                overloaded,
                deadline_missed,
                coalesced,
                result_cache_hits,
                disk_cache_hits,
                cache_entries,
                cache_bytes,
                cache_evictions,
                warm_start_entries,
                open_connections,
                conns_accepted,
                bad_frames,
                engines,
                engine_cache_hits,
                engine_cache_misses,
                eval_latency,
                trace_latency,
            },
        )
}

fn arb_error_code() -> impl Strategy<Value = ErrorCode> {
    (0u8..7).prop_map(|k| match k {
        0 => ErrorCode::Overloaded,
        1 => ErrorCode::DeadlineExceeded,
        2 => ErrorCode::UnknownRequest,
        3 => ErrorCode::BadRequest,
        4 => ErrorCode::BadTrace,
        5 => ErrorCode::ShuttingDown,
        _ => ErrorCode::Internal,
    })
}

fn arb_response() -> impl Strategy<Value = Response> {
    (
        0u8..6,
        any::<u64>(),
        (any::<bool>(), 0.0f64..3600.0, arb_string()),
        (any::<u64>(), any::<u64>()),
        arb_snapshot(),
        arb_error_code(),
    )
        .prop_map(
            |(kind, id, (cached, seconds, text), (predictions, correct), snapshot, code)| match kind
            {
                0 => Response::Result {
                    id,
                    cached,
                    seconds,
                    output: text,
                },
                1 => Response::TraceResult {
                    id,
                    predictions,
                    correct,
                    seconds,
                },
                2 => Response::Stats {
                    id,
                    snapshot: Box::new(snapshot),
                },
                3 => Response::Pong { id },
                4 => Response::ShuttingDown { id },
                _ => Response::Error {
                    id,
                    code,
                    message: text,
                },
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn request_roundtrips(req in arb_request()) {
        let payload = req.encode();
        let back = Request::decode(&payload).expect("decode what we encoded");
        prop_assert_eq!(back, req);
    }

    #[test]
    fn response_roundtrips(resp in arb_response()) {
        let payload = resp.encode();
        let back = Response::decode(&payload).expect("decode what we encoded");
        prop_assert_eq!(back, resp);
    }

    #[test]
    fn framed_request_roundtrips(req in arb_request()) {
        let mut wire = Vec::new();
        write_frame(&mut wire, &req.encode(), DEFAULT_MAX_FRAME).expect("fits the cap");
        let mut cursor = Cursor::new(wire);
        let payload = read_frame(&mut cursor, DEFAULT_MAX_FRAME)
            .expect("frame reads back")
            .expect("not EOF");
        prop_assert_eq!(Request::decode(&payload).expect("decodes"), req);
        // The stream is exactly consumed: a second read is a clean EOF.
        prop_assert!(read_frame(&mut cursor, DEFAULT_MAX_FRAME).expect("clean EOF").is_none());
    }

    #[test]
    fn pipelined_frames_preserve_order(reqs in prop::collection::vec(arb_request(), 0..8)) {
        let mut wire = Vec::new();
        for req in &reqs {
            write_frame(&mut wire, &req.encode(), DEFAULT_MAX_FRAME).expect("fits");
        }
        let mut cursor = Cursor::new(wire);
        for req in &reqs {
            let payload = read_frame(&mut cursor, DEFAULT_MAX_FRAME)
                .expect("reads")
                .expect("present");
            prop_assert_eq!(&Request::decode(&payload).expect("decodes"), req);
        }
        prop_assert!(read_frame(&mut cursor, DEFAULT_MAX_FRAME).expect("clean EOF").is_none());
    }

    #[test]
    fn oversized_frames_are_rejected_without_reading(len in 1usize..4096, max in 0usize..512) {
        // A writer refuses to emit a frame over the cap...
        let payload = vec![b'x'; len];
        if len > max {
            let mut sink = Vec::new();
            match write_frame(&mut sink, &payload, max) {
                Err(FrameError::Oversized { len: l, max: m }) => {
                    prop_assert_eq!(l, len);
                    prop_assert_eq!(m, max);
                    prop_assert!(sink.is_empty(), "nothing written for a rejected frame");
                }
                other => prop_assert!(false, "expected Oversized, got {:?}", other.map(|()| "ok")),
            }
            // ...and a reader rejects an announced length over the cap
            // after consuming only the 4-byte prefix.
            let mut wire = (len as u32).to_be_bytes().to_vec();
            wire.extend_from_slice(&payload);
            let mut cursor = Cursor::new(wire);
            match read_frame(&mut cursor, max) {
                Err(FrameError::Oversized { len: l, max: m }) => {
                    prop_assert_eq!(l, len);
                    prop_assert_eq!(m, max);
                    prop_assert_eq!(cursor.position(), 4, "payload must stay unread");
                }
                other => {
                    prop_assert!(false, "expected Oversized, got {:?}", other.map(|_| "frame"));
                }
            }
        } else {
            let mut wire = Vec::new();
            write_frame(&mut wire, &payload, max).expect("under the cap");
            let mut cursor = Cursor::new(wire);
            let back = read_frame(&mut cursor, max).expect("reads").expect("present");
            prop_assert_eq!(back, payload);
        }
    }

    #[test]
    fn unknown_request_types_decode_to_typed_errors(id in any::<u64>(), tag in 0u8..200) {
        // Well-formed JSON with a type this build does not know must
        // surface as UnknownType (the server answers it with an
        // `unknown_request` error), never as a panic or a misparse.
        let ty = format!("no_such_request_{tag}");
        let payload = format!("{{\"type\": \"{ty}\", \"id\": {id}}}");
        match Request::decode(payload.as_bytes()) {
            Err(ProtocolError::UnknownType(t)) => prop_assert_eq!(t, ty),
            other => prop_assert!(false, "expected UnknownType, got {other:?}"),
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_decoders(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        // Errors are fine; panics are not.
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
        let mut cursor = Cursor::new(bytes);
        let _ = read_frame(&mut cursor, 64);
    }

    #[test]
    fn truncated_frames_error_cleanly(req in arb_request(), cut in 1usize..64) {
        let mut wire = Vec::new();
        write_frame(&mut wire, &req.encode(), DEFAULT_MAX_FRAME).expect("fits");
        let cut = cut.min(wire.len() - 1);
        let mut cursor = Cursor::new(&wire[..wire.len() - cut]);
        // A mid-frame truncation is an error, never a short read or hang.
        prop_assert!(read_frame(&mut cursor, DEFAULT_MAX_FRAME).is_err());
    }

    #[test]
    fn error_codes_roundtrip_via_wire_strings(code in arb_error_code()) {
        prop_assert_eq!(ErrorCode::parse(code.as_str()), Some(code));
    }
}

#[test]
fn unknown_error_code_strings_do_not_parse() {
    assert_eq!(ErrorCode::parse("no_such_code"), None);
    assert_eq!(ErrorCode::parse(""), None);
}

#[test]
fn a_geometry_outside_its_constructor_range_is_refused() {
    let trace_eval = |predictor| Request::TraceEval {
        id: 1,
        path: "t.bpt".to_owned(),
        predictor,
        deadline_ms: None,
    };
    for (kind, field, range, max) in [
        ("gshare", "bits", "1..=28", 28u64),
        ("if_gshare", "bits", "1..=64", 64),
        ("if_pas", "history_bits", "1..=63", 63),
    ] {
        let spec = |bits| match kind {
            "gshare" => PredictorSpec::Gshare { bits },
            "if_gshare" => PredictorSpec::IfGshare { bits },
            _ => PredictorSpec::IfPas { history_bits: bits },
        };
        for ok in [1, max as u32] {
            let req = trace_eval(spec(ok));
            assert_eq!(Request::decode(&req.encode()), Ok(req));
        }
        for bad in [0, max + 1, u64::from(u32::MAX) + 1] {
            let payload = format!(
                r#"{{"type":"trace_eval","id":1,"path":"t.bpt","predictor":{{"kind":"{kind}","{field}":{bad}}}}}"#
            );
            let err = Request::decode(payload.as_bytes()).unwrap_err();
            assert!(matches!(err, ProtocolError::OutOfRange { .. }), "{err:?}");
            assert_eq!(
                err.to_string(),
                format!("{kind} {field} {bad} is outside {range}")
            );
        }
    }
}
