//! The serving core: evented connection handling over a bounded worker
//! pool, a two-tier persistent result cache, coalescing of identical
//! in-flight evaluations, per-request deadlines, and graceful drain.
//!
//! ## Threading model
//!
//! * One **reactor** thread ([`crate::reactor`]) owns the listener and
//!   every client socket, multiplexed with `poll(2)`. It parses frames
//!   incrementally from per-connection buffers and runs `dispatch`
//!   for each complete request — 10k idle connections cost 10k fds and
//!   their buffers, not 10k thread stacks.
//! * **Dispatch** (on the reactor thread) answers `stats` and plain
//!   `ping` inline; every other request is queued, as below.
//! * A fixed pool of **workers** pops jobs and computes. Identical eval
//!   requests coalesce: the first becomes the job, later arrivals
//!   attach as waiters and share the one computation (and,
//!   transitively, the engine's memoized artifacts). Workers deliver
//!   responses through the reactor's outbox; they never touch sockets.
//!
//! ## Request lifecycle
//!
//! An eval, a trace_eval and a delayed ping share one way in and one way
//! out. The way in (`admit`) refuses the request with `shutting_down`
//! once the server drains, runs its own checks (a bad request and a
//! result-cache hit are answered there, on the reactor thread), and
//! pushes the job onto the bounded queue. A full queue refuses it
//! *immediately* with a typed `overloaded` error — the queue never grows
//! beyond its capacity, so memory is bounded and latency under overload
//! stays flat instead of collapsing. The way out (`answer`) records the
//! latency, counts the outcome under the request's endpoint, and sends.
//!
//! A deadline is checked twice: when a worker takes the request, so an
//! expired one is answered `deadline_exceeded` before any work starts
//! (an eval whose waiters have all expired is never computed), and when
//! its answer is ready, so a late answer is `deadline_exceeded` too.
//! Replies go out after the `inflight` lock is released.
//!
//! ## Result persistence
//!
//! Rendered outputs live in a [`ResultCache`]: an in-memory LRU over a
//! byte budget, written through to one fingerprinted file per entry
//! when `cache_dir` is set. On boot the cache warm-starts from disk, so
//! a restarted daemon answers its prior working set at warm latency
//! without recomputing anything.
//!
//! ## Shutdown
//!
//! A `shutdown` request (or [`ServerHandle::begin_drain`]) is
//! acknowledged immediately; the server then stops accepting work —
//! later queued requests get `shutting_down` errors — finishes everything
//! queued and in flight, joins its workers, flushes buffered responses,
//! and returns from [`ServerHandle::join`]. Nothing queued is dropped.

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener};
use std::path::{Component, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use bp_experiments::{run_experiment, Engine, ExperimentConfig, TraceSet, EXPERIMENT_IDS};
use bp_predictors::{
    simulate, Gshare, GshareInterferenceFree, Pas, PasInterferenceFree, Predictor,
};
use bp_trace::cli::note;
use bp_trace::io as trace_io;
use bp_workloads::WorkloadConfig;

use crate::disk_cache::{CacheConfig, EvalKey, ResultCache};
use crate::protocol::{
    ErrorCode, PredictorSpec, ProtocolError, Request, Response, DEFAULT_MAX_FRAME,
};
use crate::reactor::{ConnEvent, ConnRef, Reactor, ReactorHandle};
use crate::stats::{EndpointCounters, LatencyHistogram, ServerStats};

/// Upper bound on `target` a client may request per benchmark; keeps a
/// single hostile request from allocating tens of gigabytes of trace.
pub const MAX_TARGET: u64 = 20_000_000;

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:4098` (`:0` picks a free port).
    pub addr: String,
    /// Worker threads executing queued jobs, each spawned directly
    /// (`bp-serve` takes at most [`bp_trace::MAX_THREADS`]).
    pub workers: usize,
    /// Bounded queue capacity; a request arriving when the queue holds
    /// this many jobs is rejected with `overloaded`.
    pub queue_capacity: usize,
    /// Fan-out budget of each persistent [`Engine`] (worker threads the
    /// engine may use *inside* one evaluation).
    pub engine_jobs: usize,
    /// Maximum accepted frame payload, bytes.
    pub max_frame: usize,
    /// Root directory for client-supplied `.bpt` paths; `None` disables
    /// the `trace_eval` endpoint.
    pub trace_dir: Option<PathBuf>,
    /// Directory for persisted result-cache entries; `None` keeps the
    /// cache memory-only (it dies with the process).
    pub cache_dir: Option<PathBuf>,
    /// Byte budget for rendered outputs held in memory.
    pub cache_budget: usize,
    /// Suppress the startup/shutdown notices on stderr.
    pub quiet: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            queue_capacity: 64,
            engine_jobs: 1,
            max_frame: DEFAULT_MAX_FRAME,
            trace_dir: None,
            cache_dir: None,
            cache_budget: 64 << 20,
            quiet: false,
        }
    }
}

/// The endpoint a queued request is counted under.
#[derive(Clone, Copy)]
enum Endpoint {
    Eval,
    TraceEval,
    Ping,
}

impl Endpoint {
    /// Its counters, and the histogram its ready answers' latency goes to.
    fn stats(self, stats: &ServerStats) -> (&EndpointCounters, Option<&LatencyHistogram>) {
        match self {
            Endpoint::Eval => (&stats.eval, Some(&stats.eval_latency)),
            Endpoint::TraceEval => (&stats.trace_eval, Some(&stats.trace_latency)),
            Endpoint::Ping => (&stats.ping, None),
        }
    }
}

/// A response destination: one request on one connection.
struct Waiter {
    endpoint: Endpoint,
    id: u64,
    conn: ConnRef,
    arrived: Instant,
    deadline: Option<Instant>,
}

impl Waiter {
    fn new(endpoint: Endpoint, id: u64, conn: &ConnRef, deadline_ms: Option<u64>) -> Self {
        let arrived = Instant::now();
        let deadline = deadline_ms.map(|ms| arrived + Duration::from_millis(ms));
        Waiter {
            endpoint,
            id,
            conn: conn.clone(),
            arrived,
            deadline,
        }
    }

    /// The deadline check. A worker runs it when it takes the request,
    /// and [`answer`] runs it again when the answer is ready.
    fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| now > d)
    }

    /// The reply once the deadline has passed by `now`.
    fn late(&self, now: Instant) -> Response {
        let waited = now.duration_since(self.arrived).as_secs_f64();
        let message = format!("deadline passed after {waited:.3}s");
        self.error(ErrorCode::DeadlineExceeded, message)
    }

    fn error(&self, code: ErrorCode, message: impl Into<String>) -> Response {
        let (id, message) = (self.id, message.into());
        Response::Error { id, code, message }
    }

    /// An experiment's rendered output, as the reply.
    fn result(&self, output: &str, cached: bool) -> Response {
        Response::Result {
            id: self.id,
            cached,
            seconds: self.arrived.elapsed().as_secs_f64(),
            output: output.to_owned(),
        }
    }
}

/// The work a queued request asks of a worker.
enum Job {
    /// An experiment. Its waiters wait in `Shared::inflight`, where
    /// identical requests coalesce.
    Eval(EvalKey),
    /// A predictor over the `.bpt` at `path` under the trace dir.
    TraceEval {
        waiter: Waiter,
        path: String,
        predictor: PredictorSpec,
    },
    /// A pong after `delay`.
    DelayedPing { waiter: Waiter, delay: Duration },
}

#[derive(Clone, Copy)]
enum PushError {
    Full,
    Closed,
}

/// The bounded job queue. `try_push` never blocks — admission control
/// happens at the door, not by queueing callers.
struct JobQueue {
    state: Mutex<QueueState>,
    cond: Condvar,
    capacity: usize,
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

impl JobQueue {
    fn new(capacity: usize) -> Self {
        JobQueue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            cond: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn try_push(&self, job: Job) -> Result<(), (Job, PushError)> {
        let mut state = self.state.lock().expect("queue lock");
        if state.closed {
            return Err((job, PushError::Closed));
        }
        if state.jobs.len() >= self.capacity {
            return Err((job, PushError::Full));
        }
        state.jobs.push_back(job);
        drop(state);
        self.cond.notify_one();
        Ok(())
    }

    /// Blocks for the next job; `None` once the queue is closed *and*
    /// empty (the drain guarantee: closing never discards queued work).
    fn pop(&self) -> Option<Job> {
        let mut state = self.state.lock().expect("queue lock");
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self.cond.wait(state).expect("queue lock");
        }
    }

    fn close(&self) {
        self.state.lock().expect("queue lock").closed = true;
        self.cond.notify_all();
    }
}

struct Shared {
    cfg: ServerConfig,
    local_addr: SocketAddr,
    stats: ServerStats,
    queue: JobQueue,
    draining: AtomicBool,
    reactor: ReactorHandle,
    /// One persistent engine per distinct workload, kept hot across
    /// requests — the first query for a workload builds traces and
    /// artifacts, every later one rides the engine's `EvalCache`.
    engines: Mutex<HashMap<(u64, u64), Arc<Engine>>>,
    /// Rendered experiment outputs, two-tiered: in-memory LRU plus the
    /// persistent entries under `cache_dir`. A repeat of an identical
    /// query is answered inline on the reactor thread.
    cache: ResultCache,
    /// Waiters of evaluations currently queued or computing, by key.
    inflight: Mutex<HashMap<EvalKey, Vec<Waiter>>>,
}

impl Shared {
    fn engine_for(&self, seed: u64, target: u64) -> Arc<Engine> {
        let mut engines = self.engines.lock().expect("engine pool lock");
        Arc::clone(engines.entry((seed, target)).or_insert_with(|| {
            let workload = WorkloadConfig::default()
                .with_seed(seed)
                .with_target(target as usize);
            Arc::new(Engine::new(TraceSet::new(workload), self.cfg.engine_jobs))
        }))
    }

    fn engine_totals(&self) -> (u64, u64, u64) {
        let engines = self.engines.lock().expect("engine pool lock");
        let (mut hits, mut misses) = (0, 0);
        for engine in engines.values() {
            let s = engine.cache_stats();
            hits += s.hits;
            misses += s.misses;
        }
        (engines.len() as u64, hits, misses)
    }

    /// Prints (or discards, when quiet) the cache's accumulated
    /// one-line notices about corrupt entries and failed writes.
    fn flush_cache_notices(&self) {
        for line in self.cache.take_notices() {
            if !self.cfg.quiet {
                note(format_args!("bp-serve: {line}"));
            }
        }
    }

    fn begin_drain(&self) {
        if self.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        if !self.cfg.quiet {
            note("bp-serve: draining — no new work accepted");
        }
        self.queue.close();
        self.reactor.stop_accepting();
    }
}

/// A running server. Dropping the handle does not stop the server; send
/// a `shutdown` request or call [`ServerHandle::begin_drain`], then
/// [`ServerHandle::join`].
pub struct ServerHandle {
    shared: Arc<Shared>,
    main: std::thread::JoinHandle<()>,
}

impl ServerHandle {
    /// The bound address (useful with `:0` bind requests).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Starts a graceful drain, exactly as a `shutdown` request would.
    pub fn begin_drain(&self) {
        self.shared.begin_drain();
    }

    /// Waits until the server has drained and every worker has exited.
    pub fn join(self) {
        self.main.join().expect("server main thread");
    }
}

/// Binds the listener and spawns the server (reactor + workers).
///
/// # Errors
///
/// Returns the bind error if the address is unavailable, or the reactor
/// setup error under fd exhaustion.
pub fn spawn(cfg: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let local_addr = listener.local_addr()?;
    let reactor = Reactor::new(listener, cfg.max_frame)?;
    let cache = ResultCache::open(CacheConfig {
        dir: cfg.cache_dir.clone(),
        memory_budget: cfg.cache_budget,
    });
    let shared = Arc::new(Shared {
        queue: JobQueue::new(cfg.queue_capacity),
        local_addr,
        stats: ServerStats::default(),
        draining: AtomicBool::new(false),
        reactor: reactor.handle(),
        engines: Mutex::new(HashMap::new()),
        cache,
        inflight: Mutex::new(HashMap::new()),
        cfg,
    });
    shared.flush_cache_notices();
    if !shared.cfg.quiet {
        let warm = shared.cache.gauges().warm_start_entries;
        if warm > 0 {
            note(format_args!("bp-serve: warm-started {warm} cache entries"));
        }
        note(format_args!("bp-serve: listening on {local_addr}"));
    }
    let main = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || run(&shared, reactor))
    };
    Ok(ServerHandle { shared, main })
}

fn run(shared: &Arc<Shared>, reactor: Reactor) {
    let workers: Vec<_> = (0..shared.cfg.workers.max(1))
        .map(|_| {
            let shared = Arc::clone(shared);
            std::thread::spawn(move || worker_loop(&shared))
        })
        .collect();
    // The supervisor waits the workers out (they exit once the queue is
    // closed and empty), then tells the reactor to flush and stop. The
    // reactor keeps delivering worker responses the whole time.
    let supervisor = {
        let reactor = shared.reactor.clone();
        std::thread::spawn(move || {
            for w in workers {
                w.join().expect("worker thread");
            }
            reactor.finish();
        })
    };
    let dispatch_shared = Arc::clone(shared);
    reactor.run(move |event| match event {
        ConnEvent::Frame { conn, payload } => on_frame(&dispatch_shared, &conn, &payload),
        ConnEvent::Oversized { conn, len, max } => {
            dispatch_shared
                .stats
                .bad_frames
                .fetch_add(1, Ordering::Relaxed);
            // The stream position past the prefix is unrecoverable, so
            // reject and drop the connection once the error is flushed.
            conn.send_then_close(&Response::Error {
                id: 0,
                code: ErrorCode::BadRequest,
                message: format!("frame of {len} bytes exceeds the {max}-byte cap"),
            });
        }
    });
    supervisor.join().expect("drain supervisor thread");
    if !shared.cfg.quiet {
        note("bp-serve: drained, exiting");
    }
}

/// Best-effort extraction of the `id` of an undecodable request so the
/// error response still correlates.
fn salvage_id(payload: &[u8]) -> u64 {
    std::str::from_utf8(payload)
        .ok()
        .and_then(|text| crate::json::Json::parse(text).ok())
        .and_then(|v| v.get("id").and_then(crate::json::Json::as_u64))
        .unwrap_or(0)
}

fn on_frame(shared: &Arc<Shared>, conn: &ConnRef, payload: &[u8]) {
    match Request::decode(payload) {
        Ok(req) => dispatch(shared, conn, req),
        Err(ProtocolError::UnknownType(ty)) => {
            shared.stats.bad_frames.fetch_add(1, Ordering::Relaxed);
            conn.send(&Response::Error {
                id: salvage_id(payload),
                code: ErrorCode::UnknownRequest,
                message: format!("unknown request type {ty:?}"),
            });
        }
        Err(e) => {
            shared.stats.bad_frames.fetch_add(1, Ordering::Relaxed);
            conn.send(&Response::Error {
                id: salvage_id(payload),
                code: ErrorCode::BadRequest,
                message: e.to_string(),
            });
        }
    }
}

fn dispatch(shared: &Arc<Shared>, conn: &ConnRef, req: Request) {
    match req {
        Request::Stats { id } => {
            let s = &shared.stats;
            s.stats.requests.fetch_add(1, Ordering::Relaxed);
            // Count this request as answered *before* snapshotting, so
            // the snapshot it returns is self-consistent.
            s.stats.ok.fetch_add(1, Ordering::Relaxed);
            let (engines, hits, misses) = shared.engine_totals();
            let snapshot = Box::new(s.snapshot(
                engines,
                hits,
                misses,
                shared.cache.gauges(),
                shared.reactor.gauges(),
            ));
            conn.send(&Response::Stats { id, snapshot });
        }
        Request::Ping {
            id,
            delay_ms: None | Some(0),
            ..
        } => {
            shared.stats.ping.requests.fetch_add(1, Ordering::Relaxed);
            shared.stats.ping.ok.fetch_add(1, Ordering::Relaxed);
            conn.send(&Response::Pong { id });
        }
        Request::Ping {
            id,
            delay_ms: Some(ms),
            deadline_ms,
        } => {
            let waiter = Waiter::new(Endpoint::Ping, id, conn, deadline_ms);
            let delay = Duration::from_millis(ms);
            admit(shared, waiter, |waiter| {
                Some(Job::DelayedPing { waiter, delay })
            });
        }
        Request::Shutdown { id } => {
            shared
                .stats
                .shutdown
                .requests
                .fetch_add(1, Ordering::Relaxed);
            shared.stats.shutdown.ok.fetch_add(1, Ordering::Relaxed);
            conn.send(&Response::ShuttingDown { id });
            shared.begin_drain();
        }
        Request::Eval {
            id,
            experiment,
            seed,
            target,
            deadline_ms,
        } => {
            let waiter = Waiter::new(Endpoint::Eval, id, conn, deadline_ms);
            let key = (experiment, seed, target);
            admit(shared, waiter, |waiter| eval_job(shared, waiter, key));
        }
        Request::TraceEval {
            id,
            path,
            predictor,
            deadline_ms,
        } => {
            let waiter = Waiter::new(Endpoint::TraceEval, id, conn, deadline_ms);
            admit(shared, waiter, |waiter| {
                let bad = if shared.cfg.trace_dir.is_none() {
                    "trace evaluation is disabled (server has no --trace-dir)"
                } else if !is_safe_relative(&path) {
                    "trace path must be relative, without '..' components"
                } else {
                    return Some(Job::TraceEval {
                        waiter,
                        path,
                        predictor,
                    });
                };
                answer(shared, &waiter, waiter.error(ErrorCode::BadRequest, bad));
                None
            });
        }
    }
}

/// Checks an eval, then answers it from the cache or coalesces it onto
/// an identical evaluation in flight; otherwise it becomes the job.
fn eval_job(shared: &Shared, waiter: Waiter, key: EvalKey) -> Option<Job> {
    let (experiment, _, target) = &key;
    let bad = if !EXPERIMENT_IDS.contains(&experiment.as_str()) {
        let valid = EXPERIMENT_IDS.join(" ");
        let why = format!("unknown experiment {experiment:?} (valid: {valid})");
        Some(why)
    } else if *target == 0 || *target > MAX_TARGET {
        Some(format!("target must be in 1..={MAX_TARGET}"))
    } else {
        None
    };
    if let Some(why) = bad {
        answer(shared, &waiter, waiter.error(ErrorCode::BadRequest, why));
        return None;
    }
    if let Some((output, _tier)) = shared.cache.get(&key) {
        answer(shared, &waiter, waiter.result(&output, true));
        return None;
    }
    shared.flush_cache_notices();
    let mut inflight = shared.inflight.lock().expect("inflight lock");
    if let Some(waiters) = inflight.get_mut(&key) {
        waiters.push(waiter);
        shared.stats.coalesced.fetch_add(1, Ordering::Relaxed);
        return None;
    }
    inflight.insert(key.clone(), vec![waiter]);
    Some(Job::Eval(key))
}

/// The one way in for a queued request: an eval, a trace_eval or a
/// delayed ping. A draining server refuses it with `shutting_down`
/// before anything else. `job` then checks the request and returns the
/// work to queue, or `None` once it has answered the request (a bad
/// request, a cache hit) or coalesced it. A full queue refuses the
/// work's waiters with `overloaded`, a closed one with `shutting_down`.
fn admit(shared: &Shared, waiter: Waiter, job: impl FnOnce(Waiter) -> Option<Job>) {
    let (counters, _) = waiter.endpoint.stats(&shared.stats);
    counters.requests.fetch_add(1, Ordering::Relaxed);
    let refuse = |waiter: &Waiter, why: PushError| {
        let refusal = match why {
            PushError::Full => {
                shared.stats.overloaded.fetch_add(1, Ordering::Relaxed);
                waiter.error(ErrorCode::Overloaded, "the request queue is full")
            }
            PushError::Closed => waiter.error(ErrorCode::ShuttingDown, "server is draining"),
        };
        answer(shared, waiter, refusal);
    };
    if shared.draining.load(Ordering::SeqCst) {
        return refuse(&waiter, PushError::Closed);
    }
    let Some(job) = job(waiter) else {
        return;
    };
    if let Err((job, why)) = shared.queue.try_push(job) {
        // An eval's waiters leave `inflight` with its job.
        let waiters = match job {
            Job::Eval(key) => shared.inflight.lock().expect("inflight lock").remove(&key),
            Job::TraceEval { waiter, .. } | Job::DelayedPing { waiter, .. } => Some(vec![waiter]),
        };
        for waiter in waiters.iter().flatten() {
            refuse(waiter, why);
        }
    }
}

/// The one way out for a queued request. A ready response (anything but
/// an error) has its latency recorded and gets the second deadline
/// check: past the deadline it is replaced by `deadline_exceeded`. The
/// outcome is then counted under the waiter's endpoint, and sent.
fn answer(shared: &Shared, waiter: &Waiter, response: Response) {
    let now = Instant::now();
    let (counters, latency) = waiter.endpoint.stats(&shared.stats);
    let response = match response {
        Response::Error { .. } => response,
        ready => {
            if let Some(latency) = latency {
                // Record before sending: the moment the response leaves,
                // the client may send a stats request that the reactor
                // answers concurrently with this (worker) thread, and a
                // snapshot must never show fewer latency samples than
                // completed requests.
                let us = now.duration_since(waiter.arrived).as_micros();
                latency.record_us(us.min(u128::from(u64::MAX)) as u64);
            }
            if waiter.expired(now) {
                waiter.late(now)
            } else {
                ready
            }
        }
    };
    let outcome = match &response {
        Response::Error { code, .. } => {
            if *code == ErrorCode::DeadlineExceeded {
                shared.stats.deadline_missed.fetch_add(1, Ordering::Relaxed);
            }
            &counters.errors
        }
        _ => &counters.ok,
    };
    outcome.fetch_add(1, Ordering::Relaxed);
    waiter.conn.send(&response);
}

/// The `internal` answer to work that panicked on a worker.
const PANICKED: &str = "evaluation panicked; see server log";

fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.queue.pop() {
        match job {
            Job::Eval(key) => run_eval(shared, &key),
            Job::TraceEval {
                waiter,
                path,
                predictor,
            } => run_one(shared, &waiter, || {
                run_trace_eval(shared, &waiter, &path, predictor)
            }),
            Job::DelayedPing { waiter, delay } => run_one(shared, &waiter, || {
                std::thread::sleep(delay);
                Response::Pong { id: waiter.id }
            }),
        }
    }
}

/// Runs a job with one waiter: the deadline check as the worker takes
/// it, the work, then [`answer`]. Work that panics is answered
/// `internal`, as an eval's is, and the worker lives on.
fn run_one(shared: &Shared, waiter: &Waiter, work: impl FnOnce() -> Response) {
    let now = Instant::now();
    let response = if waiter.expired(now) {
        waiter.late(now)
    } else {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(work))
            .unwrap_or_else(|_| waiter.error(ErrorCode::Internal, PANICKED))
    };
    answer(shared, waiter, response);
}

fn run_eval(shared: &Shared, key: &EvalKey) {
    // The deadline check as the worker takes the job: waiters past their
    // deadline are answered, and if nobody is left the computation is
    // skipped entirely.
    let now = Instant::now();
    let mut inflight = shared.inflight.lock().expect("inflight lock");
    let Some(waiters) = inflight.get_mut(key) else {
        return;
    };
    let late: Vec<Waiter> = waiters.extract_if(.., |w| w.expired(now)).collect();
    let abandoned = waiters.is_empty();
    if abandoned {
        inflight.remove(key);
    }
    drop(inflight);
    for waiter in &late {
        answer(shared, waiter, waiter.late(now));
    }
    if abandoned {
        return;
    }
    // A racing request may have completed this key between admission
    // and now; serve everyone from the cache if so.
    let (output, cached) = match shared.cache.get(key) {
        Some((output, _tier)) => (Some(output), true),
        None => (compute(shared, key), false),
    };
    let waiters = shared.inflight.lock().expect("inflight lock").remove(key);
    for waiter in &waiters.unwrap_or_default() {
        let response = match &output {
            Some(output) => waiter.result(output, cached),
            None => waiter.error(ErrorCode::Internal, PANICKED),
        };
        answer(shared, waiter, response);
    }
}

/// Runs one experiment on its workload's engine and caches the output;
/// `None` if the evaluation panicked.
fn compute(shared: &Shared, key: &EvalKey) -> Option<Arc<String>> {
    let (experiment, seed, target) = key;
    let engine = shared.engine_for(*seed, *target);
    let cfg = ExperimentConfig {
        workload: WorkloadConfig::default()
            .with_seed(*seed)
            .with_target(*target as usize),
        ..ExperimentConfig::default()
    };
    let output = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_experiment(experiment, &cfg, &engine).expect("experiment id validated at admission")
    }))
    .ok()?;
    let output = Arc::new(output);
    shared.cache.put(key, &output);
    shared.flush_cache_notices();
    Some(output)
}

fn build_predictor(spec: PredictorSpec) -> Box<dyn Predictor> {
    match spec {
        PredictorSpec::Gshare { bits } => Box::new(Gshare::new(bits)),
        PredictorSpec::IfGshare { bits } => Box::new(GshareInterferenceFree::new(bits)),
        PredictorSpec::Pas => Box::<Pas>::default(),
        PredictorSpec::IfPas { history_bits } => Box::new(PasInterferenceFree::new(history_bits)),
    }
}

/// Scores one predictor over the trace at `path` under the trace dir.
fn run_trace_eval(shared: &Shared, waiter: &Waiter, path: &str, spec: PredictorSpec) -> Response {
    let root = shared.cfg.trace_dir.as_ref();
    let loaded = std::fs::File::open(root.expect("trace_dir checked at admission").join(path))
        .map_err(trace_io::TraceIoError::from)
        .and_then(|f| trace_io::read_trace(std::io::BufReader::new(f)));
    match loaded {
        Ok(trace) => {
            let stats = simulate(&mut *build_predictor(spec), &trace);
            Response::TraceResult {
                id: waiter.id,
                predictions: stats.predictions,
                correct: stats.correct,
                seconds: waiter.arrived.elapsed().as_secs_f64(),
            }
        }
        // The exact failure modes the corruption tests pin: truncated
        // streams, bad magic, and mid-record cuts all surface here as
        // typed errors, never a worker panic.
        Err(e) => waiter.error(ErrorCode::BadTrace, format!("{path}: {e}")),
    }
}

/// A client trace path must stay inside the sandbox: relative, no `..`,
/// no absolute/prefix components.
fn is_safe_relative(path: &str) -> bool {
    let p = std::path::Path::new(path);
    !path.is_empty()
        && p.components()
            .all(|c| matches!(c, Component::Normal(_) | Component::CurDir))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_sandbox_rejects_escapes() {
        assert!(is_safe_relative("a.bpt"));
        assert!(is_safe_relative("sub/dir/a.bpt"));
        assert!(is_safe_relative("./a.bpt"));
        assert!(!is_safe_relative("/etc/passwd"));
        assert!(!is_safe_relative("../secret.bpt"));
        assert!(!is_safe_relative("a/../../b.bpt"));
        assert!(!is_safe_relative(""));
    }

    #[test]
    fn queue_sheds_above_capacity_and_drains_on_close() {
        let q = JobQueue::new(2);
        let job = || Job::Eval(("fig4".to_owned(), 1, 1));
        assert!(q.try_push(job()).is_ok());
        assert!(q.try_push(job()).is_ok());
        let Err((_, PushError::Full)) = q.try_push(job()) else {
            panic!("third push must shed");
        };
        q.close();
        let Err((_, PushError::Closed)) = q.try_push(job()) else {
            panic!("push after close must fail");
        };
        // Both queued jobs still drain, then pop reports closed.
        assert!(q.pop().is_some());
        assert!(q.pop().is_some());
        assert!(q.pop().is_none());
    }
}
