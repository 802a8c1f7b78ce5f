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
//! * **Dispatch** (on the reactor thread) answers cheap requests inline
//!   (result-cache hits, `stats`, plain `ping`); everything that
//!   computes goes through the bounded queue. When the queue is full
//!   the request is rejected *immediately* with a typed `overloaded`
//!   error — the queue never grows beyond its capacity, so memory is
//!   bounded and latency under overload stays flat instead of
//!   collapsing.
//! * A fixed pool of **workers** pops jobs and computes. Identical eval
//!   requests coalesce: the first becomes the job, later arrivals
//!   attach as waiters and share the one computation (and,
//!   transitively, the engine's memoized artifacts). Workers deliver
//!   responses through the reactor's outbox; they never touch sockets.
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
//! later evals get `shutting_down` errors — finishes everything queued
//! and in flight, joins its workers, flushes buffered responses, and
//! returns from [`ServerHandle::join`]. Nothing queued is dropped.

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
use bp_trace::io as trace_io;
use bp_workloads::WorkloadConfig;

use crate::disk_cache::{CacheConfig, EvalKey, ResultCache};
use crate::protocol::{
    ErrorCode, PredictorSpec, ProtocolError, Request, Response, DEFAULT_MAX_FRAME,
};
use crate::reactor::{ConnEvent, ConnRef, Reactor, ReactorHandle};
use crate::stats::ServerStats;

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

/// A response destination: one request on one connection.
struct Waiter {
    id: u64,
    conn: ConnRef,
    arrived: Instant,
    deadline: Option<Instant>,
}

impl Waiter {
    fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| now > d)
    }
}

enum Job {
    Eval { key: EvalKey },
    TraceEval { req: TraceJob, waiter: Waiter },
    DelayedPing { waiter: Waiter, delay: Duration },
}

struct TraceJob {
    path: String,
    predictor: PredictorSpec,
}

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
                eprintln!("bp-serve: {line}");
            }
        }
    }

    fn begin_drain(&self) {
        if self.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        if !self.cfg.quiet {
            eprintln!("bp-serve: draining — no new work accepted");
        }
        self.queue.close();
        self.reactor.stop_accepting();
    }

    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
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
            eprintln!("bp-serve: warm-started {warm} cache entries");
        }
        eprintln!("bp-serve: listening on {local_addr}");
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
        eprintln!("bp-serve: drained, exiting");
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

fn deadline_of(arrived: Instant, deadline_ms: Option<u64>) -> Option<Instant> {
    deadline_ms.map(|ms| arrived + Duration::from_millis(ms))
}

fn dispatch(shared: &Arc<Shared>, conn: &ConnRef, req: Request) {
    let arrived = Instant::now();
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
            shared.stats.ping.requests.fetch_add(1, Ordering::Relaxed);
            let waiter = Waiter {
                id,
                conn: conn.clone(),
                arrived,
                deadline: deadline_of(arrived, deadline_ms),
            };
            if shared.draining() {
                reject(shared, &shared.stats.ping, &waiter, ErrorCode::ShuttingDown);
                return;
            }
            let job = Job::DelayedPing {
                waiter,
                delay: Duration::from_millis(ms),
            };
            if let Err((job, why)) = shared.queue.try_push(job) {
                let Job::DelayedPing { waiter, .. } = job else {
                    unreachable!("push returns the same job");
                };
                reject_push(shared, &shared.stats.ping, &waiter, why);
            }
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
            shared.stats.eval.requests.fetch_add(1, Ordering::Relaxed);
            let waiter = Waiter {
                id,
                conn: conn.clone(),
                arrived,
                deadline: deadline_of(arrived, deadline_ms),
            };
            if shared.draining() {
                reject(shared, &shared.stats.eval, &waiter, ErrorCode::ShuttingDown);
                return;
            }
            if !EXPERIMENT_IDS.contains(&experiment.as_str()) {
                shared.stats.eval.errors.fetch_add(1, Ordering::Relaxed);
                waiter.conn.send(&Response::Error {
                    id,
                    code: ErrorCode::BadRequest,
                    message: format!(
                        "unknown experiment {experiment:?} (valid: {})",
                        EXPERIMENT_IDS.join(" ")
                    ),
                });
                return;
            }
            if target == 0 || target > MAX_TARGET {
                shared.stats.eval.errors.fetch_add(1, Ordering::Relaxed);
                waiter.conn.send(&Response::Error {
                    id,
                    code: ErrorCode::BadRequest,
                    message: format!("target must be in 1..={MAX_TARGET}"),
                });
                return;
            }
            let key: EvalKey = (experiment, seed, target);
            if respond_from_cache(shared, &key, &waiter) {
                return;
            }
            // Coalesce with an identical in-flight evaluation, or become
            // the one that computes. The inflight lock is held across the
            // queue push so a failed push can retract the entry atomically;
            // workers never take the queue lock while holding inflight, so
            // the ordering is deadlock-free.
            let mut inflight = shared.inflight.lock().expect("inflight lock");
            if let Some(waiters) = inflight.get_mut(&key) {
                waiters.push(waiter);
                shared.stats.coalesced.fetch_add(1, Ordering::Relaxed);
                return;
            }
            inflight.insert(key.clone(), vec![waiter]);
            if let Err((_, why)) = shared.queue.try_push(Job::Eval { key: key.clone() }) {
                let waiters = inflight.remove(&key).unwrap_or_default();
                drop(inflight);
                for waiter in &waiters {
                    reject_push(shared, &shared.stats.eval, waiter, why_copy(&why));
                }
            }
        }
        Request::TraceEval {
            id,
            path,
            predictor,
            deadline_ms,
        } => {
            let s = &shared.stats;
            s.trace_eval.requests.fetch_add(1, Ordering::Relaxed);
            let waiter = Waiter {
                id,
                conn: conn.clone(),
                arrived,
                deadline: deadline_of(arrived, deadline_ms),
            };
            if shared.draining() {
                reject(shared, &s.trace_eval, &waiter, ErrorCode::ShuttingDown);
                return;
            }
            if shared.cfg.trace_dir.is_none() {
                s.trace_eval.errors.fetch_add(1, Ordering::Relaxed);
                waiter.conn.send(&Response::Error {
                    id,
                    code: ErrorCode::BadRequest,
                    message: "trace evaluation is disabled (server has no --trace-dir)".to_owned(),
                });
                return;
            }
            if !is_safe_relative(&path) {
                s.trace_eval.errors.fetch_add(1, Ordering::Relaxed);
                waiter.conn.send(&Response::Error {
                    id,
                    code: ErrorCode::BadRequest,
                    message: "trace path must be relative, without '..' components".to_owned(),
                });
                return;
            }
            let job = Job::TraceEval {
                req: TraceJob { path, predictor },
                waiter,
            };
            if let Err((job, why)) = shared.queue.try_push(job) {
                let Job::TraceEval { waiter, .. } = job else {
                    unreachable!("push returns the same job");
                };
                reject_push(shared, &s.trace_eval, &waiter, why);
            }
        }
    }
}

fn why_copy(why: &PushError) -> PushError {
    match why {
        PushError::Full => PushError::Full,
        PushError::Closed => PushError::Closed,
    }
}

fn reject_push(
    shared: &Shared,
    endpoint: &crate::stats::EndpointCounters,
    waiter: &Waiter,
    why: PushError,
) {
    let code = match why {
        PushError::Full => {
            shared.stats.overloaded.fetch_add(1, Ordering::Relaxed);
            ErrorCode::Overloaded
        }
        PushError::Closed => ErrorCode::ShuttingDown,
    };
    reject(shared, endpoint, waiter, code);
}

fn reject(
    _shared: &Shared,
    endpoint: &crate::stats::EndpointCounters,
    waiter: &Waiter,
    code: ErrorCode,
) {
    endpoint.errors.fetch_add(1, Ordering::Relaxed);
    let message = match code {
        ErrorCode::Overloaded => "request queue is full, try again later".to_owned(),
        ErrorCode::ShuttingDown => "server is draining".to_owned(),
        other => other.as_str().to_owned(),
    };
    waiter.conn.send(&Response::Error {
        id: waiter.id,
        code,
        message,
    });
}

/// Answers `waiter` from the rendered-output cache (either tier) if
/// possible.
fn respond_from_cache(shared: &Shared, key: &EvalKey, waiter: &Waiter) -> bool {
    let Some((output, _tier)) = shared.cache.get(key) else {
        shared.flush_cache_notices();
        return false;
    };
    respond_result(shared, waiter, &output, true);
    true
}

/// Sends a result (or a deadline error, if the waiter expired while the
/// answer was produced) and does the latency/outcome accounting.
fn respond_result(shared: &Shared, waiter: &Waiter, output: &str, cached: bool) {
    let now = Instant::now();
    let elapsed = now.duration_since(waiter.arrived);
    // Record before sending: the moment the response leaves, the client
    // may issue a stats request that the reactor answers concurrently
    // with this (worker) thread, and a snapshot must never show fewer
    // latency samples than completed requests.
    shared
        .stats
        .eval_latency
        .record_us(elapsed.as_micros().min(u128::from(u64::MAX)) as u64);
    if waiter.expired(now) {
        shared.stats.deadline_missed.fetch_add(1, Ordering::Relaxed);
        shared.stats.eval.errors.fetch_add(1, Ordering::Relaxed);
        waiter.conn.send(&Response::Error {
            id: waiter.id,
            code: ErrorCode::DeadlineExceeded,
            message: format!("deadline passed after {:.3}s", elapsed.as_secs_f64()),
        });
    } else {
        shared.stats.eval.ok.fetch_add(1, Ordering::Relaxed);
        waiter.conn.send(&Response::Result {
            id: waiter.id,
            cached,
            seconds: elapsed.as_secs_f64(),
            output: output.to_owned(),
        });
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        match job {
            Job::Eval { key } => run_eval(shared, key),
            Job::TraceEval { req, waiter } => run_trace_eval(shared, &req, &waiter),
            Job::DelayedPing { waiter, delay } => {
                std::thread::sleep(delay);
                let now = Instant::now();
                if waiter.expired(now) {
                    shared.stats.deadline_missed.fetch_add(1, Ordering::Relaxed);
                    shared.stats.ping.errors.fetch_add(1, Ordering::Relaxed);
                    waiter.conn.send(&Response::Error {
                        id: waiter.id,
                        code: ErrorCode::DeadlineExceeded,
                        message: "deadline passed while sleeping".to_owned(),
                    });
                } else {
                    shared.stats.ping.ok.fetch_add(1, Ordering::Relaxed);
                    waiter.conn.send(&Response::Pong { id: waiter.id });
                }
            }
        }
    }
}

fn run_eval(shared: &Arc<Shared>, key: EvalKey) {
    // A racing request may have completed this key between job admission
    // and now; serve everyone from the cache if so.
    {
        let mut cached = None;
        {
            let mut inflight = shared.inflight.lock().expect("inflight lock");
            if inflight.contains_key(&key) {
                if let Some((output, _tier)) = shared.cache.get(&key) {
                    let waiters = inflight.remove(&key).unwrap_or_default();
                    cached = Some((output, waiters));
                }
            } else {
                return;
            }
        }
        if let Some((output, waiters)) = cached {
            for waiter in &waiters {
                respond_result(shared, waiter, &output, true);
            }
            return;
        }
    }

    // Shed waiters that already missed their deadline; if nobody is left,
    // skip the computation entirely.
    {
        let now = Instant::now();
        let mut inflight = shared.inflight.lock().expect("inflight lock");
        let Some(waiters) = inflight.get_mut(&key) else {
            return;
        };
        let expired: Vec<Waiter> = {
            let mut keep = Vec::new();
            let mut gone = Vec::new();
            for w in waiters.drain(..) {
                if w.expired(now) {
                    gone.push(w);
                } else {
                    keep.push(w);
                }
            }
            *waiters = keep;
            gone
        };
        let abandoned = waiters.is_empty();
        if abandoned {
            inflight.remove(&key);
        }
        drop(inflight);
        for w in &expired {
            shared.stats.deadline_missed.fetch_add(1, Ordering::Relaxed);
            shared.stats.eval.errors.fetch_add(1, Ordering::Relaxed);
            w.conn.send(&Response::Error {
                id: w.id,
                code: ErrorCode::DeadlineExceeded,
                message: "deadline passed before the evaluation started".to_owned(),
            });
        }
        if abandoned {
            return;
        }
    }

    let (experiment, seed, target) = &key;
    let engine = shared.engine_for(*seed, *target);
    let cfg = ExperimentConfig {
        workload: WorkloadConfig::default()
            .with_seed(*seed)
            .with_target(*target as usize),
        ..ExperimentConfig::default()
    };
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_experiment(experiment, &cfg, &engine).expect("experiment id validated at admission")
    }));

    match outcome {
        Ok(output) => {
            let output = Arc::new(output);
            shared.cache.put(&key, &output);
            shared.flush_cache_notices();
            let waiters = shared
                .inflight
                .lock()
                .expect("inflight lock")
                .remove(&key)
                .unwrap_or_default();
            for waiter in &waiters {
                respond_result(shared, waiter, &output, false);
            }
        }
        Err(_) => {
            let waiters = shared
                .inflight
                .lock()
                .expect("inflight lock")
                .remove(&key)
                .unwrap_or_default();
            for waiter in &waiters {
                shared.stats.eval.errors.fetch_add(1, Ordering::Relaxed);
                waiter.conn.send(&Response::Error {
                    id: waiter.id,
                    code: ErrorCode::Internal,
                    message: "evaluation panicked; see server log".to_owned(),
                });
            }
        }
    }
}

fn build_predictor(spec: PredictorSpec) -> Box<dyn Predictor> {
    match spec {
        PredictorSpec::Gshare { bits } => Box::new(Gshare::new(bits)),
        PredictorSpec::IfGshare { bits } => Box::new(GshareInterferenceFree::new(bits)),
        PredictorSpec::Pas => Box::<Pas>::default(),
        PredictorSpec::IfPas { history_bits } => Box::new(PasInterferenceFree::new(history_bits)),
    }
}

fn run_trace_eval(shared: &Arc<Shared>, req: &TraceJob, waiter: &Waiter) {
    let s = &shared.stats;
    let now = Instant::now();
    if waiter.expired(now) {
        s.deadline_missed.fetch_add(1, Ordering::Relaxed);
        s.trace_eval.errors.fetch_add(1, Ordering::Relaxed);
        waiter.conn.send(&Response::Error {
            id: waiter.id,
            code: ErrorCode::DeadlineExceeded,
            message: "deadline passed before the trace evaluation started".to_owned(),
        });
        return;
    }
    let root = shared
        .cfg
        .trace_dir
        .as_ref()
        .expect("trace_dir checked at admission");
    let full = root.join(&req.path);
    let loaded = std::fs::File::open(&full)
        .map_err(trace_io::TraceIoError::from)
        .and_then(|f| trace_io::read_trace(std::io::BufReader::new(f)));
    let trace = match loaded {
        Ok(trace) => trace,
        Err(e) => {
            // The exact failure modes the corruption tests pin: truncated
            // streams, bad magic, and mid-record cuts all surface here as
            // typed errors, never a worker panic.
            s.trace_eval.errors.fetch_add(1, Ordering::Relaxed);
            waiter.conn.send(&Response::Error {
                id: waiter.id,
                code: ErrorCode::BadTrace,
                message: format!("{}: {e}", req.path),
            });
            return;
        }
    };
    let mut predictor = build_predictor(req.predictor);
    let stats = simulate(&mut *predictor, &trace);
    let elapsed = waiter.arrived.elapsed();
    s.trace_eval.ok.fetch_add(1, Ordering::Relaxed);
    s.trace_latency
        .record_us(elapsed.as_micros().min(u128::from(u64::MAX)) as u64);
    waiter.conn.send(&Response::TraceResult {
        id: waiter.id,
        predictions: stats.predictions,
        correct: stats.correct,
        seconds: elapsed.as_secs_f64(),
    });
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
        let job = || Job::Eval {
            key: ("fig4".to_owned(), 1, 1),
        };
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
