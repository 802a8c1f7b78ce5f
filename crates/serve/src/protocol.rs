//! The `bp-serve` wire protocol: length-prefixed JSON frames over TCP.
//!
//! Every message is one *frame*: a 4-byte big-endian payload length
//! followed by that many bytes of UTF-8 JSON. Frames larger than the
//! negotiated cap are rejected without being read ([`FrameError::Oversized`]),
//! so a hostile or confused peer cannot make the server buffer gigabytes.
//!
//! Requests carry a client-chosen `id` that the server echoes in the
//! response, so a client may pipeline several requests on one connection
//! and match answers as they arrive (responses to queued work can
//! complete out of order relative to inline answers such as cache hits
//! and `stats`).
//!
//! ```text
//! → {"type":"eval","id":1,"experiment":"fig4","seed":247470488,"target":40000}
//! ← {"type":"result","id":1,"cached":false,"seconds":0.41,"output":"..."}
//!
//! → {"type":"stats","id":2}
//! ← {"type":"stats","id":2, ...counters...}
//!
//! → {"type":"nonsense","id":3}
//! ← {"type":"error","id":3,"code":"unknown_request","message":"..."}
//! ```

use std::fmt;
use std::io::{Read, Write};

use crate::json::{Json, JsonError};
use crate::stats::StatsSnapshot;

/// Default maximum frame payload size (1 MiB) — comfortably above any
/// experiment output, far below anything that could hurt the server.
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// Error reading or writing a frame.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying socket/stream failure.
    Io(std::io::Error),
    /// The peer announced a payload larger than the cap.
    Oversized {
        /// Announced payload length.
        len: usize,
        /// The cap in force.
        max: usize,
    },
    /// The payload was not valid UTF-8.
    NotUtf8,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o failed: {e}"),
            FrameError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte cap")
            }
            FrameError::NotUtf8 => write!(f, "frame payload is not utf-8"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one frame (length prefix + payload).
///
/// # Errors
///
/// [`FrameError::Oversized`] if `payload` exceeds `max`, or an I/O error
/// from the writer.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8], max: usize) -> Result<(), FrameError> {
    if payload.len() > max {
        return Err(FrameError::Oversized {
            len: payload.len(),
            max,
        });
    }
    let len = u32::try_from(payload.len()).map_err(|_| FrameError::Oversized {
        len: payload.len(),
        max,
    })?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame. Returns `Ok(None)` on clean EOF at a frame boundary
/// (the peer closed the connection between messages).
///
/// # Errors
///
/// [`FrameError::Oversized`] when the announced length exceeds `max`
/// (nothing past the prefix is consumed), or an I/O error — including
/// `UnexpectedEof` when the stream ends mid-frame.
pub fn read_frame<R: Read>(r: &mut R, max: usize) -> Result<Option<Vec<u8>>, FrameError> {
    let mut prefix = [0u8; 4];
    let mut filled = 0;
    while filled < prefix.len() {
        let n = r.read(&mut prefix[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(FrameError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "stream ended inside a frame length prefix",
            )));
        }
        filled += n;
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len > max {
        return Err(FrameError::Oversized { len, max });
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Error decoding a request or response out of a frame payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The payload was not valid JSON.
    Json(JsonError),
    /// The `type` field named a request/response kind this build does not
    /// know.
    UnknownType(String),
    /// A required field was missing or had the wrong type.
    BadField(&'static str),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Json(e) => write!(f, "{e}"),
            ProtocolError::UnknownType(t) => write!(f, "unknown message type {t:?}"),
            ProtocolError::BadField(name) => write!(f, "missing or ill-typed field {name:?}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<JsonError> for ProtocolError {
    fn from(e: JsonError) -> Self {
        ProtocolError::Json(e)
    }
}

/// Which predictor a [`Request::TraceEval`] should run over the supplied
/// trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorSpec {
    /// `Gshare::new(bits)`.
    Gshare {
        /// History/index bits.
        bits: u32,
    },
    /// `GshareInterferenceFree::new(bits)`.
    IfGshare {
        /// History/index bits.
        bits: u32,
    },
    /// `Pas::default()`.
    Pas,
    /// `PasInterferenceFree::new(history_bits)`.
    IfPas {
        /// Per-address history bits.
        history_bits: u32,
    },
}

impl PredictorSpec {
    fn to_json(self) -> Json {
        match self {
            PredictorSpec::Gshare { bits } => Json::Obj(vec![
                ("kind".to_owned(), Json::Str("gshare".to_owned())),
                ("bits".to_owned(), Json::Int(bits.into())),
            ]),
            PredictorSpec::IfGshare { bits } => Json::Obj(vec![
                ("kind".to_owned(), Json::Str("if_gshare".to_owned())),
                ("bits".to_owned(), Json::Int(bits.into())),
            ]),
            PredictorSpec::Pas => Json::Obj(vec![("kind".to_owned(), Json::Str("pas".to_owned()))]),
            PredictorSpec::IfPas { history_bits } => Json::Obj(vec![
                ("kind".to_owned(), Json::Str("if_pas".to_owned())),
                ("history_bits".to_owned(), Json::Int(history_bits.into())),
            ]),
        }
    }

    fn from_json(v: &Json) -> Result<Self, ProtocolError> {
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or(ProtocolError::BadField("predictor.kind"))?;
        let bits_of = |field: &'static str| -> Result<u32, ProtocolError> {
            v.get(field)
                .and_then(Json::as_u64)
                .and_then(|b| u32::try_from(b).ok())
                .ok_or(ProtocolError::BadField("predictor bits"))
        };
        match kind {
            "gshare" => Ok(PredictorSpec::Gshare {
                bits: bits_of("bits")?,
            }),
            "if_gshare" => Ok(PredictorSpec::IfGshare {
                bits: bits_of("bits")?,
            }),
            "pas" => Ok(PredictorSpec::Pas),
            "if_pas" => Ok(PredictorSpec::IfPas {
                history_bits: bits_of("history_bits")?,
            }),
            other => Err(ProtocolError::UnknownType(format!("predictor {other}"))),
        }
    }
}

/// One client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run one experiment (same ids as `repro`) over the synthetic
    /// workload `(seed, target)` and return the rendered output.
    Eval {
        /// Client correlation id, echoed in the response.
        id: u64,
        /// Experiment id (`fig4`, `table2`, …).
        experiment: String,
        /// Workload RNG seed.
        seed: u64,
        /// Target dynamic conditional branches per benchmark.
        target: u64,
        /// Optional deadline, in milliseconds from arrival, checked when a
        /// worker takes the request and again when the answer is ready:
        /// past it, a `deadline_exceeded` error replaces the result.
        deadline_ms: Option<u64>,
    },
    /// Run one predictor over a client-supplied `.bpt` trace file
    /// (resolved under the server's `--trace-dir` sandbox).
    TraceEval {
        /// Client correlation id, echoed in the response.
        id: u64,
        /// Path of the `.bpt` file, relative to the server's trace dir.
        path: String,
        /// The predictor to run.
        predictor: PredictorSpec,
        /// Optional deadline, checked as `Eval`'s: when a worker takes the
        /// request and when its score is ready.
        deadline_ms: Option<u64>,
    },
    /// Fetch the server's counters.
    Stats {
        /// Client correlation id, echoed in the response.
        id: u64,
    },
    /// Liveness probe. With `delay_ms` set, the pong is produced by a
    /// worker after sleeping — a load-testing aid that occupies one
    /// worker slot and exercises the queue/backpressure path exactly
    /// like an eval of that duration would.
    Ping {
        /// Client correlation id, echoed in the response.
        id: u64,
        /// Optional worker-side delay in milliseconds.
        delay_ms: Option<u64>,
        /// Optional deadline of a delayed ping, checked as `Eval`'s: when
        /// a worker takes it (it never sleeps once expired) and when the
        /// pong is ready.
        deadline_ms: Option<u64>,
    },
    /// Begin a graceful drain: the server acknowledges, stops accepting
    /// work, finishes everything queued and in flight, and exits.
    Shutdown {
        /// Client correlation id, echoed in the response.
        id: u64,
    },
}

impl Request {
    /// The correlation id.
    pub fn id(&self) -> u64 {
        match *self {
            Request::Eval { id, .. }
            | Request::TraceEval { id, .. }
            | Request::Stats { id }
            | Request::Ping { id, .. }
            | Request::Shutdown { id } => id,
        }
    }

    /// Encodes the request as a JSON frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let json = match self {
            Request::Eval {
                id,
                experiment,
                seed,
                target,
                deadline_ms,
            } => {
                let mut pairs = vec![
                    ("type".to_owned(), Json::Str("eval".to_owned())),
                    ("id".to_owned(), Json::Int(*id)),
                    ("experiment".to_owned(), Json::Str(experiment.clone())),
                    ("seed".to_owned(), Json::Int(*seed)),
                    ("target".to_owned(), Json::Int(*target)),
                ];
                if let Some(ms) = deadline_ms {
                    pairs.push(("deadline_ms".to_owned(), Json::Int(*ms)));
                }
                Json::Obj(pairs)
            }
            Request::TraceEval {
                id,
                path,
                predictor,
                deadline_ms,
            } => {
                let mut pairs = vec![
                    ("type".to_owned(), Json::Str("trace_eval".to_owned())),
                    ("id".to_owned(), Json::Int(*id)),
                    ("path".to_owned(), Json::Str(path.clone())),
                    ("predictor".to_owned(), predictor.to_json()),
                ];
                if let Some(ms) = deadline_ms {
                    pairs.push(("deadline_ms".to_owned(), Json::Int(*ms)));
                }
                Json::Obj(pairs)
            }
            Request::Stats { id } => Json::Obj(vec![
                ("type".to_owned(), Json::Str("stats".to_owned())),
                ("id".to_owned(), Json::Int(*id)),
            ]),
            Request::Ping {
                id,
                delay_ms,
                deadline_ms,
            } => {
                let mut pairs = vec![
                    ("type".to_owned(), Json::Str("ping".to_owned())),
                    ("id".to_owned(), Json::Int(*id)),
                ];
                if let Some(ms) = delay_ms {
                    pairs.push(("delay_ms".to_owned(), Json::Int(*ms)));
                }
                if let Some(ms) = deadline_ms {
                    pairs.push(("deadline_ms".to_owned(), Json::Int(*ms)));
                }
                Json::Obj(pairs)
            }
            Request::Shutdown { id } => Json::Obj(vec![
                ("type".to_owned(), Json::Str("shutdown".to_owned())),
                ("id".to_owned(), Json::Int(*id)),
            ]),
        };
        json.to_string().into_bytes()
    }

    /// Decodes a request from a frame payload.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::UnknownType`] for a well-formed message whose
    /// `type` is not recognized (the server answers these with an
    /// `unknown_request` error rather than dropping the connection), and
    /// [`ProtocolError::Json`] / [`ProtocolError::BadField`] for
    /// malformed payloads.
    pub fn decode(payload: &[u8]) -> Result<Self, ProtocolError> {
        let text = std::str::from_utf8(payload).map_err(|_| ProtocolError::BadField("utf-8"))?;
        let v = Json::parse(text)?;
        let ty = v
            .get("type")
            .and_then(Json::as_str)
            .ok_or(ProtocolError::BadField("type"))?;
        let id = v
            .get("id")
            .and_then(Json::as_u64)
            .ok_or(ProtocolError::BadField("id"))?;
        let deadline_ms = match v.get("deadline_ms") {
            None | Some(Json::Null) => None,
            Some(ms) => Some(ms.as_u64().ok_or(ProtocolError::BadField("deadline_ms"))?),
        };
        match ty {
            "eval" => Ok(Request::Eval {
                id,
                experiment: v
                    .get("experiment")
                    .and_then(Json::as_str)
                    .ok_or(ProtocolError::BadField("experiment"))?
                    .to_owned(),
                seed: v
                    .get("seed")
                    .and_then(Json::as_u64)
                    .ok_or(ProtocolError::BadField("seed"))?,
                target: v
                    .get("target")
                    .and_then(Json::as_u64)
                    .ok_or(ProtocolError::BadField("target"))?,
                deadline_ms,
            }),
            "trace_eval" => Ok(Request::TraceEval {
                id,
                path: v
                    .get("path")
                    .and_then(Json::as_str)
                    .ok_or(ProtocolError::BadField("path"))?
                    .to_owned(),
                predictor: PredictorSpec::from_json(
                    v.get("predictor")
                        .ok_or(ProtocolError::BadField("predictor"))?,
                )?,
                deadline_ms,
            }),
            "stats" => Ok(Request::Stats { id }),
            "ping" => Ok(Request::Ping {
                id,
                delay_ms: match v.get("delay_ms") {
                    None | Some(Json::Null) => None,
                    Some(ms) => Some(ms.as_u64().ok_or(ProtocolError::BadField("delay_ms"))?),
                },
                deadline_ms,
            }),
            "shutdown" => Ok(Request::Shutdown { id }),
            other => Err(ProtocolError::UnknownType(other.to_owned())),
        }
    }
}

/// Typed error codes a server can answer with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The bounded request queue is full; retry later or back off.
    Overloaded,
    /// The request's deadline passed before it could be served.
    DeadlineExceeded,
    /// The message `type` is not known to this server.
    UnknownRequest,
    /// The request was malformed (bad JSON, missing fields, unknown
    /// experiment id, …).
    BadRequest,
    /// A client-supplied trace failed to load or validate.
    BadTrace,
    /// The server is draining and accepts no new work.
    ShuttingDown,
    /// An unexpected server-side failure.
    Internal,
}

impl ErrorCode {
    /// The wire string for the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::UnknownRequest => "unknown_request",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::BadTrace => "bad_trace",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Internal => "internal",
        }
    }

    /// Parses a wire string back to the code.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "overloaded" => ErrorCode::Overloaded,
            "deadline_exceeded" => ErrorCode::DeadlineExceeded,
            "unknown_request" => ErrorCode::UnknownRequest,
            "bad_request" => ErrorCode::BadRequest,
            "bad_trace" => ErrorCode::BadTrace,
            "shutting_down" => ErrorCode::ShuttingDown,
            "internal" => ErrorCode::Internal,
            _ => return None,
        })
    }
}

/// One server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// An experiment result: the exact text `repro` prints for the same
    /// experiment and workload.
    Result {
        /// Echo of the request id.
        id: u64,
        /// Whether this was served from the rendered-output cache.
        cached: bool,
        /// Server-side latency of this request, in seconds.
        seconds: f64,
        /// The rendered experiment output.
        output: String,
    },
    /// A predictor-over-trace result.
    TraceResult {
        /// Echo of the request id.
        id: u64,
        /// Total predictions made.
        predictions: u64,
        /// Correct predictions.
        correct: u64,
        /// Server-side latency of this request, in seconds.
        seconds: f64,
    },
    /// The server's counters.
    Stats {
        /// Echo of the request id.
        id: u64,
        /// Counter snapshot.
        snapshot: Box<StatsSnapshot>,
    },
    /// Answer to a ping.
    Pong {
        /// Echo of the request id.
        id: u64,
    },
    /// Acknowledgement of a shutdown request; the server drains and
    /// exits after sending this.
    ShuttingDown {
        /// Echo of the request id.
        id: u64,
    },
    /// A typed error.
    Error {
        /// Echo of the request id (0 when the request was too malformed
        /// to carry one).
        id: u64,
        /// The error class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// The echoed correlation id.
    pub fn id(&self) -> u64 {
        match *self {
            Response::Result { id, .. }
            | Response::TraceResult { id, .. }
            | Response::Stats { id, .. }
            | Response::Pong { id }
            | Response::ShuttingDown { id }
            | Response::Error { id, .. } => id,
        }
    }

    /// Encodes the response as a JSON frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let json = match self {
            Response::Result {
                id,
                cached,
                seconds,
                output,
            } => Json::Obj(vec![
                ("type".to_owned(), Json::Str("result".to_owned())),
                ("id".to_owned(), Json::Int(*id)),
                ("cached".to_owned(), Json::Bool(*cached)),
                ("seconds".to_owned(), Json::Float(*seconds)),
                ("output".to_owned(), Json::Str(output.clone())),
            ]),
            Response::TraceResult {
                id,
                predictions,
                correct,
                seconds,
            } => Json::Obj(vec![
                ("type".to_owned(), Json::Str("trace_result".to_owned())),
                ("id".to_owned(), Json::Int(*id)),
                ("predictions".to_owned(), Json::Int(*predictions)),
                ("correct".to_owned(), Json::Int(*correct)),
                ("seconds".to_owned(), Json::Float(*seconds)),
            ]),
            Response::Stats { id, snapshot } => {
                let mut pairs = vec![
                    ("type".to_owned(), Json::Str("stats".to_owned())),
                    ("id".to_owned(), Json::Int(*id)),
                ];
                pairs.extend(snapshot.to_json_pairs());
                Json::Obj(pairs)
            }
            Response::Pong { id } => Json::Obj(vec![
                ("type".to_owned(), Json::Str("pong".to_owned())),
                ("id".to_owned(), Json::Int(*id)),
            ]),
            Response::ShuttingDown { id } => Json::Obj(vec![
                ("type".to_owned(), Json::Str("shutting_down".to_owned())),
                ("id".to_owned(), Json::Int(*id)),
            ]),
            Response::Error { id, code, message } => Json::Obj(vec![
                ("type".to_owned(), Json::Str("error".to_owned())),
                ("id".to_owned(), Json::Int(*id)),
                ("code".to_owned(), Json::Str(code.as_str().to_owned())),
                ("message".to_owned(), Json::Str(message.clone())),
            ]),
        };
        json.to_string().into_bytes()
    }

    /// Decodes a response from a frame payload.
    ///
    /// # Errors
    ///
    /// As [`Request::decode`].
    pub fn decode(payload: &[u8]) -> Result<Self, ProtocolError> {
        let text = std::str::from_utf8(payload).map_err(|_| ProtocolError::BadField("utf-8"))?;
        let v = Json::parse(text)?;
        let ty = v
            .get("type")
            .and_then(Json::as_str)
            .ok_or(ProtocolError::BadField("type"))?;
        let id = v
            .get("id")
            .and_then(Json::as_u64)
            .ok_or(ProtocolError::BadField("id"))?;
        match ty {
            "result" => Ok(Response::Result {
                id,
                cached: v
                    .get("cached")
                    .and_then(Json::as_bool)
                    .ok_or(ProtocolError::BadField("cached"))?,
                seconds: v
                    .get("seconds")
                    .and_then(Json::as_f64)
                    .ok_or(ProtocolError::BadField("seconds"))?,
                output: v
                    .get("output")
                    .and_then(Json::as_str)
                    .ok_or(ProtocolError::BadField("output"))?
                    .to_owned(),
            }),
            "trace_result" => Ok(Response::TraceResult {
                id,
                predictions: v
                    .get("predictions")
                    .and_then(Json::as_u64)
                    .ok_or(ProtocolError::BadField("predictions"))?,
                correct: v
                    .get("correct")
                    .and_then(Json::as_u64)
                    .ok_or(ProtocolError::BadField("correct"))?,
                seconds: v
                    .get("seconds")
                    .and_then(Json::as_f64)
                    .ok_or(ProtocolError::BadField("seconds"))?,
            }),
            "stats" => Ok(Response::Stats {
                id,
                snapshot: Box::new(StatsSnapshot::from_json(&v)?),
            }),
            "pong" => Ok(Response::Pong { id }),
            "shutting_down" => Ok(Response::ShuttingDown { id }),
            "error" => {
                let code_str = v
                    .get("code")
                    .and_then(Json::as_str)
                    .ok_or(ProtocolError::BadField("code"))?;
                Ok(Response::Error {
                    id,
                    code: ErrorCode::parse(code_str).ok_or(ProtocolError::BadField("code"))?,
                    message: v
                        .get("message")
                        .and_then(Json::as_str)
                        .ok_or(ProtocolError::BadField("message"))?
                        .to_owned(),
                })
            }
            other => Err(ProtocolError::UnknownType(other.to_owned())),
        }
    }
}
