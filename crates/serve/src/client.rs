//! Clients for the `bp-serve` protocol: the blocking single-connection
//! [`Client`], the ring-routing [`ShardedClient`] with bounded
//! retry/backoff and failover, and the load generator behind
//! `bp-client bench` (including its kill-a-shard chaos mode).
//!
//! The generator has two pacing modes. The default closed loop issues
//! the next request as soon as the previous one completes, so it
//! measures peak throughput. The open loop (`rate`) fixes every
//! request's send time up front from the run start and never re-anchors:
//! when the server stalls, the slippage accumulates and is reported as
//! queueing delay alongside the service-latency percentiles, which is
//! what a latency-under-load claim actually needs.

use std::fmt;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::protocol::{
    read_frame, write_frame, ErrorCode, FrameError, PredictorSpec, ProtocolError, Request,
    Response, DEFAULT_MAX_FRAME,
};
use crate::ring::{Jitter, RetryPolicy, Ring};

/// Client-side failure talking to a server.
#[derive(Debug)]
pub enum ClientError {
    /// Connecting or framing failed.
    Frame(FrameError),
    /// The server's bytes did not decode as a response.
    Protocol(ProtocolError),
    /// The server closed the connection before answering.
    ClosedEarly,
    /// Failover exhausted the ring: every candidate shard was down,
    /// draining, or unreachable through the whole retry budget.
    ShardUnreachable {
        /// Shards tried (the full failover sequence for the key).
        shards: usize,
        /// Total connection/request attempts spent across them.
        attempts: u32,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Frame(e) => write!(f, "{e}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::ClosedEarly => write!(f, "server closed the connection early"),
            ClientError::ShardUnreachable { shards, attempts } => write!(
                f,
                "shard unreachable: all {shards} ring candidates failed ({attempts} attempts)"
            ),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Frame(FrameError::Io(e))
    }
}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        ClientError::Protocol(e)
    }
}

/// One connection to a server. Requests issued through a `Client` are
/// sequential (one outstanding at a time); ids are assigned internally
/// and responses matched on them.
pub struct Client {
    reader: TcpStream,
    writer: TcpStream,
    max_frame: usize,
    next_id: u64,
}

impl Client {
    /// Connects to `addr` (e.g. `127.0.0.1:4098`).
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(addr: &str) -> Result<Self, ClientError> {
        let writer = TcpStream::connect(addr)?;
        let _ = writer.set_nodelay(true);
        let reader = writer.try_clone()?;
        Ok(Client {
            reader,
            writer,
            max_frame: DEFAULT_MAX_FRAME,
            next_id: 1,
        })
    }

    /// Sends one request and waits for the response with a matching id.
    ///
    /// # Errors
    ///
    /// Framing, protocol, or early-close failures.
    pub fn call(&mut self, make: impl FnOnce(u64) -> Request) -> Result<Response, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let req = make(id);
        write_frame(&mut self.writer, &req.encode(), self.max_frame)?;
        loop {
            let Some(payload) = read_frame(&mut self.reader, self.max_frame)? else {
                return Err(ClientError::ClosedEarly);
            };
            let resp = Response::decode(&payload)?;
            // A response to a stale id (e.g. after a timeout the caller
            // ignored) is dropped; id 0 answers undecodable requests.
            if resp.id() == id || resp.id() == 0 {
                return Ok(resp);
            }
        }
    }

    /// Evaluates one experiment over the synthetic workload.
    ///
    /// # Errors
    ///
    /// Transport failures; server-side errors arrive as
    /// [`Response::Error`].
    pub fn eval(
        &mut self,
        experiment: &str,
        seed: u64,
        target: u64,
        deadline_ms: Option<u64>,
    ) -> Result<Response, ClientError> {
        let experiment = experiment.to_owned();
        self.call(move |id| Request::Eval {
            id,
            experiment,
            seed,
            target,
            deadline_ms,
        })
    }

    /// Runs a predictor over a server-side `.bpt` trace.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn trace_eval(
        &mut self,
        path: &str,
        predictor: PredictorSpec,
        deadline_ms: Option<u64>,
    ) -> Result<Response, ClientError> {
        let path = path.to_owned();
        self.call(move |id| Request::TraceEval {
            id,
            path,
            predictor,
            deadline_ms,
        })
    }

    /// Fetches the server's counters.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn stats(&mut self) -> Result<Response, ClientError> {
        self.call(|id| Request::Stats { id })
    }

    /// Pings the server (optionally via the worker queue with a delay).
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn ping(&mut self, delay_ms: Option<u64>) -> Result<Response, ClientError> {
        self.call(move |id| Request::Ping {
            id,
            delay_ms,
            deadline_ms: None,
        })
    }

    /// Asks the server to drain and exit.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn shutdown(&mut self) -> Result<Response, ClientError> {
        self.call(|id| Request::Shutdown { id })
    }
}

/// How long a shard that failed its whole retry budget sits out before
/// being probed again.
const SHARD_COOLDOWN: Duration = Duration::from_secs(1);

/// A client over N shards: every eval key routes deterministically over
/// the consistent-hash [`Ring`], with bounded retry + backoff per shard
/// and failover to the next ring candidate when a shard is down or
/// draining. All clients with the same address list agree on routing,
/// so each shard's caches see a stable partition of the key space.
pub struct ShardedClient {
    addrs: Vec<String>,
    ring: Ring,
    conns: Vec<Option<Client>>,
    down_until: Vec<Option<Instant>>,
    retry: RetryPolicy,
    jitter: Jitter,
}

impl ShardedClient {
    /// Builds the client; connections are opened lazily per shard.
    #[must_use]
    pub fn new(addrs: Vec<String>, retry: RetryPolicy) -> Self {
        let ring = Ring::new(&addrs);
        let n = addrs.len();
        let jitter = retry.jitter();
        ShardedClient {
            addrs,
            ring,
            conns: (0..n).map(|_| None).collect(),
            down_until: vec![None; n],
            retry,
            jitter,
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.addrs.len()
    }

    /// The shard this key routes to first (before failover).
    #[must_use]
    pub fn owner_of(&self, experiment: &str, seed: u64, target: u64) -> Option<usize> {
        self.ring
            .route(Ring::key_hash(experiment, seed, target))
            .first()
            .copied()
    }

    /// Evaluates one experiment, routing by key and failing over across
    /// the ring.
    ///
    /// # Errors
    ///
    /// [`ClientError::ShardUnreachable`] once every candidate shard has
    /// exhausted its retry budget (or is cooling down from a recent
    /// failure). Server-side errors other than `shutting_down` arrive
    /// as `Ok(Response::Error)` from the owning shard.
    pub fn eval(
        &mut self,
        experiment: &str,
        seed: u64,
        target: u64,
        deadline_ms: Option<u64>,
    ) -> Result<Response, ClientError> {
        let order = self.ring.route(Ring::key_hash(experiment, seed, target));
        let shards = order.len();
        let mut attempts = 0u32;
        for shard in order {
            let now = Instant::now();
            if self.down_until[shard].is_some_and(|until| now < until) {
                continue; // Cooling down; try the next ring candidate.
            }
            match self.try_shard(shard, experiment, seed, target, deadline_ms, &mut attempts) {
                Ok(Response::Error {
                    code: ErrorCode::ShuttingDown,
                    ..
                }) => {
                    // The shard is draining: treat like a down shard and
                    // let the next ring candidate serve the key.
                    self.mark_down(shard);
                }
                Ok(resp) => {
                    self.down_until[shard] = None;
                    return Ok(resp);
                }
                Err(_) => self.mark_down(shard),
            }
        }
        Err(ClientError::ShardUnreachable { shards, attempts })
    }

    /// One shard's full retry budget: connect (reusing a live
    /// connection), send, read; exponential backoff with deterministic
    /// jitter between attempts.
    fn try_shard(
        &mut self,
        shard: usize,
        experiment: &str,
        seed: u64,
        target: u64,
        deadline_ms: Option<u64>,
        attempts: &mut u32,
    ) -> Result<Response, ClientError> {
        let mut last_err = ClientError::ClosedEarly;
        for attempt in 0..self.retry.attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(self.retry.backoff(attempt, &mut self.jitter));
            }
            *attempts += 1;
            if self.conns[shard].is_none() {
                match Client::connect(&self.addrs[shard]) {
                    Ok(c) => self.conns[shard] = Some(c),
                    Err(e) => {
                        last_err = e;
                        continue;
                    }
                }
            }
            let client = self.conns[shard].as_mut().expect("connection just ensured");
            match client.eval(experiment, seed, target, deadline_ms) {
                Ok(resp) => return Ok(resp),
                Err(e) => {
                    // The connection is suspect after any transport
                    // error; reconnect on the next attempt.
                    self.conns[shard] = None;
                    last_err = e;
                }
            }
        }
        Err(last_err)
    }

    fn mark_down(&mut self, shard: usize) {
        self.conns[shard] = None;
        self.down_until[shard] = Some(Instant::now() + SHARD_COOLDOWN);
    }

    /// Health-checks one shard with a plain ping (no retry, no
    /// cooldown side effects beyond clearing a stale one on success).
    pub fn check(&mut self, shard: usize) -> bool {
        let ok = Client::connect(&self.addrs[shard])
            .and_then(|mut c| c.ping(None))
            .is_ok_and(|r| matches!(r, Response::Pong { .. }));
        if ok {
            self.down_until[shard] = None;
        }
        ok
    }
}

/// Chaos-mode settings for the load generator: kill one shard mid-run
/// and let routing fail over.
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Index (into `addrs`) of the shard to kill.
    pub kill_shard: usize,
    /// How long into the run to send it `shutdown`.
    pub after: Duration,
}

/// Load-generator options (`bp-client bench`).
#[derive(Debug, Clone)]
pub struct BenchOptions {
    /// Shard addresses (one = the classic single-daemon bench).
    pub addrs: Vec<String>,
    /// Concurrent connections, each a closed loop.
    pub conns: usize,
    /// Requests issued per connection.
    pub requests_per_conn: usize,
    /// Experiment to evaluate.
    pub experiment: String,
    /// Base workload seed.
    pub seed: u64,
    /// Distinct seeds to spread requests over (`seed..seed+spread`),
    /// exercising routing across shards; 1 = the classic identical-key
    /// loop.
    pub seed_spread: u64,
    /// Workload target branches.
    pub target: u64,
    /// Optional per-request deadline.
    pub deadline_ms: Option<u64>,
    /// Optional open-loop rate: request `j` of connection `k` is due at
    /// `start + (j * conns + k) / rate` regardless of how the server is
    /// doing, and the send-deadline slippage is reported as queueing
    /// delay. `None` = a closed loop, as fast as responses come back.
    pub rate: Option<f64>,
    /// Per-shard retry/backoff policy.
    pub retry: RetryPolicy,
    /// Optional kill-one-shard chaos mode.
    pub chaos: Option<ChaosOptions>,
}

impl Default for BenchOptions {
    fn default() -> Self {
        BenchOptions {
            addrs: Vec::new(),
            conns: 1,
            requests_per_conn: 1,
            experiment: "fig4".to_owned(),
            seed: 0,
            seed_spread: 1,
            target: 40_000,
            deadline_ms: None,
            rate: None,
            retry: RetryPolicy::default(),
            chaos: None,
        }
    }
}

/// Load-generator outcome.
#[derive(Debug, Clone, Default)]
pub struct BenchReport {
    /// Requests issued.
    pub sent: u64,
    /// Successful results.
    pub ok: u64,
    /// Of `ok`, how many were served from the rendered-output cache.
    pub cached: u64,
    /// `overloaded` rejections.
    pub overloaded: u64,
    /// `deadline_exceeded` errors.
    pub deadline_missed: u64,
    /// Requests that exhausted failover across the whole ring.
    pub unreachable: u64,
    /// Any other error responses or transport failures.
    pub other_errors: u64,
    /// Wall time of the whole run, seconds.
    pub wall_seconds: f64,
    /// `sent / wall_seconds`.
    pub achieved_rps: f64,
    /// Median request latency, milliseconds (completed requests).
    pub p50_ms: f64,
    /// 99th-percentile latency, milliseconds.
    pub p99_ms: f64,
    /// 99.9th-percentile latency, milliseconds — the soak-test tail.
    pub p999_ms: f64,
    /// Maximum latency, milliseconds.
    pub max_ms: f64,
    /// Whether the run was open-loop (`rate` set); gates the queueing
    /// fields below, which are meaningless under closed-loop pacing.
    pub open_loop: bool,
    /// Median queueing delay, milliseconds: how far behind its fixed
    /// schedule the median request was actually sent (0 = on time).
    pub queue_p50_ms: f64,
    /// 99th-percentile queueing delay, milliseconds.
    pub queue_p99_ms: f64,
    /// 99.9th-percentile queueing delay, milliseconds.
    pub queue_p999_ms: f64,
    /// Maximum queueing delay, milliseconds.
    pub queue_max_ms: f64,
}

impl BenchReport {
    fn quantile(sorted_ms: &[f64], q: f64) -> f64 {
        if sorted_ms.is_empty() {
            return 0.0;
        }
        let rank = ((q * sorted_ms.len() as f64).ceil() as usize).clamp(1, sorted_ms.len());
        sorted_ms[rank - 1]
    }

    /// Renders the report as the `bp-client bench` text output. Open-loop
    /// runs get an extra queueing-delay line.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "requests: {} ({} ok, {} cached, {} overloaded, {} deadline, \
             {} unreachable, {} other errors)\n\
             wall: {:.3}s  throughput: {:.1} req/s\n\
             latency ms: p50 {:.3}  p99 {:.3}  p999 {:.3}  max {:.3}",
            self.sent,
            self.ok,
            self.cached,
            self.overloaded,
            self.deadline_missed,
            self.unreachable,
            self.other_errors,
            self.wall_seconds,
            self.achieved_rps,
            self.p50_ms,
            self.p99_ms,
            self.p999_ms,
            self.max_ms
        );
        if self.open_loop {
            out.push_str(&format!(
                "\nqueueing delay ms (slip past the send schedule): p50 {:.3}  \
                 p99 {:.3}  p999 {:.3}  max {:.3}",
                self.queue_p50_ms, self.queue_p99_ms, self.queue_p999_ms, self.queue_max_ms
            ));
        }
        out
    }

    /// Renders the report as a JSON object (the shape recorded in
    /// `BENCH_repro.json`). Closed-loop runs keep the historical field
    /// set; open-loop runs append the queueing-delay percentiles.
    pub fn render_json(&self) -> String {
        let mut out = format!(
            "{{\"sent\": {}, \"ok\": {}, \"cached\": {}, \"overloaded\": {}, \
             \"deadline\": {}, \"unreachable\": {}, \"other_errors\": {}, \
             \"wall_seconds\": {:.3}, \"achieved_rps\": {:.1}, \"p50_ms\": {:.3}, \
             \"p99_ms\": {:.3}, \"p999_ms\": {:.3}, \"max_ms\": {:.3}",
            self.sent,
            self.ok,
            self.cached,
            self.overloaded,
            self.deadline_missed,
            self.unreachable,
            self.other_errors,
            self.wall_seconds,
            self.achieved_rps,
            self.p50_ms,
            self.p99_ms,
            self.p999_ms,
            self.max_ms
        );
        if self.open_loop {
            out.push_str(&format!(
                ", \"queue_p50_ms\": {:.3}, \"queue_p99_ms\": {:.3}, \
                 \"queue_p999_ms\": {:.3}, \"queue_max_ms\": {:.3}",
                self.queue_p50_ms, self.queue_p99_ms, self.queue_p999_ms, self.queue_max_ms
            ));
        }
        out.push('}');
        out
    }
}

/// Runs the load generator: `conns` connections, each issuing
/// `requests_per_conn` eval requests routed over the shard ring (seeds
/// cycle over `seed..seed+seed_spread`). With one address and one seed
/// this is exactly the warm-cache serving path; with chaos enabled, one
/// shard is killed mid-run and the report shows how failover absorbed
/// it. With `rate` set the run is open-loop: every request's send time
/// is fixed before the run starts, late sends are recorded as queueing
/// delay, and the schedule is never stretched to match the server.
///
/// # Errors
///
/// Only setup failures (no address, or every shard refusing the first
/// connection); per-request failures are counted in the report instead.
pub fn run_bench(opts: &BenchOptions) -> Result<BenchReport, ClientError> {
    if opts.addrs.is_empty() {
        return Err(ClientError::ShardUnreachable {
            shards: 0,
            attempts: 0,
        });
    }
    // Fail fast if the whole fleet is unreachable rather than spawning
    // threads that all error out.
    if !opts.addrs.iter().any(|a| Client::connect(a).is_ok()) {
        return Err(ClientError::ShardUnreachable {
            shards: opts.addrs.len(),
            attempts: opts.addrs.len() as u32,
        });
    }
    let rate = opts.rate.filter(|r| *r > 0.0);
    let started = Instant::now();
    let per_conn: Vec<(Vec<f64>, Vec<f64>, BenchReport)> = std::thread::scope(|scope| {
        let chaos = opts.chaos.clone().map(|chaos| {
            let addr = opts
                .addrs
                .get(chaos.kill_shard)
                .cloned()
                .unwrap_or_else(|| opts.addrs[0].clone());
            scope.spawn(move || {
                std::thread::sleep(chaos.after);
                let _ = Client::connect(&addr).and_then(|mut c| c.shutdown());
            })
        });
        let handles: Vec<_> = (0..opts.conns)
            .map(|conn_idx| {
                scope.spawn(move || {
                    let mut latencies_ms: Vec<f64> = Vec::new();
                    let mut queue_ms: Vec<f64> = Vec::new();
                    let mut report = BenchReport::default();
                    // Distinct jitter seed per connection so backoff
                    // sleeps desynchronize (still deterministic).
                    let retry = RetryPolicy {
                        seed: opts.retry.seed.wrapping_add(conn_idx as u64),
                        ..opts.retry.clone()
                    };
                    let mut client = ShardedClient::new(opts.addrs.clone(), retry);
                    for r in 0..opts.requests_per_conn {
                        if let Some(rate) = rate {
                            // Open loop: the whole fleet's sends are
                            // interleaved round-robin on one global
                            // schedule anchored at the run start. A
                            // slow response never pushes later
                            // deadlines back; it shows up as slip.
                            let due = started
                                + Duration::from_secs_f64(
                                    (r * opts.conns + conn_idx) as f64 / rate,
                                );
                            let now = Instant::now();
                            if due > now {
                                std::thread::sleep(due - now);
                                queue_ms.push(0.0);
                            } else {
                                queue_ms.push((now - due).as_secs_f64() * 1e3);
                            }
                        }
                        let seed = opts.seed + (r as u64 % opts.seed_spread.max(1));
                        let t0 = Instant::now();
                        report.sent += 1;
                        match client.eval(&opts.experiment, seed, opts.target, opts.deadline_ms) {
                            Ok(Response::Result { cached, .. }) => {
                                report.ok += 1;
                                if cached {
                                    report.cached += 1;
                                }
                                latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                            }
                            Ok(Response::Error { code, .. }) => {
                                latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                                match code {
                                    ErrorCode::Overloaded => report.overloaded += 1,
                                    ErrorCode::DeadlineExceeded => report.deadline_missed += 1,
                                    _ => report.other_errors += 1,
                                }
                            }
                            Ok(_) => report.other_errors += 1,
                            Err(ClientError::ShardUnreachable { .. }) => {
                                report.unreachable += 1;
                            }
                            Err(_) => report.other_errors += 1,
                        }
                    }
                    (latencies_ms, queue_ms, report)
                })
            })
            .collect();
        let merged = handles
            .into_iter()
            .map(|h| h.join().expect("bench connection thread"))
            .collect();
        if let Some(chaos) = chaos {
            chaos.join().expect("chaos thread");
        }
        merged
    });
    let wall_seconds = started.elapsed().as_secs_f64();
    let mut merged = BenchReport {
        wall_seconds,
        ..BenchReport::default()
    };
    let mut latencies: Vec<f64> = Vec::new();
    let mut queue_delays: Vec<f64> = Vec::new();
    for (lat, queue, r) in per_conn {
        latencies.extend(lat);
        queue_delays.extend(queue);
        merged.sent += r.sent;
        merged.ok += r.ok;
        merged.cached += r.cached;
        merged.overloaded += r.overloaded;
        merged.deadline_missed += r.deadline_missed;
        merged.unreachable += r.unreachable;
        merged.other_errors += r.other_errors;
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    merged.achieved_rps = if wall_seconds > 0.0 {
        merged.sent as f64 / wall_seconds
    } else {
        0.0
    };
    merged.p50_ms = BenchReport::quantile(&latencies, 0.50);
    merged.p99_ms = BenchReport::quantile(&latencies, 0.99);
    merged.p999_ms = BenchReport::quantile(&latencies, 0.999);
    merged.max_ms = latencies.last().copied().unwrap_or(0.0);
    if rate.is_some() {
        queue_delays.sort_by(|a, b| a.partial_cmp(b).expect("finite delays"));
        merged.open_loop = true;
        merged.queue_p50_ms = BenchReport::quantile(&queue_delays, 0.50);
        merged.queue_p99_ms = BenchReport::quantile(&queue_delays, 0.99);
        merged.queue_p999_ms = BenchReport::quantile(&queue_delays, 0.999);
        merged.queue_max_ms = queue_delays.last().copied().unwrap_or(0.0);
    }
    Ok(merged)
}
