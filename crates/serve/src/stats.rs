//! Server-side counters: per-endpoint request totals, backpressure and
//! cache accounting, and a lock-free log-bucketed latency histogram good
//! enough for p50/p99 at ~19% bucket resolution.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::json::Json;
use crate::protocol::ProtocolError;

/// Sub-buckets per octave: latencies land in buckets ~1.19x apart.
const SUBBUCKETS: usize = 4;
/// 16 exact buckets below 16µs + quad-subdivided octaves up to u64::MAX.
const BUCKETS: usize = 16 + (64 - 4) * SUBBUCKETS;

/// Lock-free histogram of microsecond latencies.
///
/// Values below 16µs are counted exactly; above that, buckets subdivide
/// each power-of-two octave into four slices, so any reported
/// quantile is within ~19% of the true value — plenty for the
/// p50/p99/p999 the `stats` endpoint reports (and the recorded maximum
/// is exact).
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    max_us: AtomicU64,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }

    fn bucket_of(us: u64) -> usize {
        if us < 16 {
            return us as usize;
        }
        let log2 = 63 - us.leading_zeros() as usize; // >= 4
        let sub = ((us >> (log2 - 2)) & 0b11) as usize;
        16 + (log2 - 4) * SUBBUCKETS + sub
    }

    /// Representative (lower-bound) value of a bucket, in µs.
    fn bucket_floor(idx: usize) -> u64 {
        if idx < 16 {
            return idx as u64;
        }
        let rel = idx - 16;
        let log2 = rel / SUBBUCKETS + 4;
        let sub = (rel % SUBBUCKETS) as u64;
        (1u64 << log2) + (sub << (log2 - 2))
    }

    /// Records one latency.
    pub fn record_us(&self, us: u64) {
        self.buckets[Self::bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Approximate quantile (`q` in `0..=1`) in µs; 0 when empty.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (idx, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return Self::bucket_floor(idx);
            }
        }
        self.max_us.load(Ordering::Relaxed)
    }

    /// Largest recorded value in µs.
    pub fn max_us(&self) -> u64 {
        self.max_us.load(Ordering::Relaxed)
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Requests/ok/error totals for one endpoint.
#[derive(Debug, Default)]
pub struct EndpointCounters {
    /// Requests received (including rejected ones).
    pub requests: AtomicU64,
    /// Requests answered successfully.
    pub ok: AtomicU64,
    /// Requests answered with a typed error.
    pub errors: AtomicU64,
}

impl EndpointCounters {
    fn snapshot(&self) -> EndpointSnapshot {
        EndpointSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            ok: self.ok.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
        }
    }
}

/// All live server counters. One instance per server, shared by every
/// connection handler and worker.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// `eval` endpoint totals.
    pub eval: EndpointCounters,
    /// `trace_eval` endpoint totals.
    pub trace_eval: EndpointCounters,
    /// `stats` endpoint totals.
    pub stats: EndpointCounters,
    /// `ping` endpoint totals.
    pub ping: EndpointCounters,
    /// `shutdown` endpoint totals.
    pub shutdown: EndpointCounters,
    /// Requests rejected because the bounded queue was full.
    pub overloaded: AtomicU64,
    /// Requests that missed their deadline.
    pub deadline_missed: AtomicU64,
    /// Eval requests coalesced onto an identical in-flight computation.
    pub coalesced: AtomicU64,
    /// Frames that failed to decode (bad JSON, unknown type, oversized).
    pub bad_frames: AtomicU64,
    /// End-to-end latency of `eval` requests (arrival → response).
    pub eval_latency: LatencyHistogram,
    /// End-to-end latency of `trace_eval` requests.
    pub trace_latency: LatencyHistogram,
}

/// Point-in-time copy of one endpoint's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EndpointSnapshot {
    /// Requests received.
    pub requests: u64,
    /// Requests answered successfully.
    pub ok: u64,
    /// Requests answered with a typed error.
    pub errors: u64,
}

/// Point-in-time copy of one latency histogram's summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Median latency in µs.
    pub p50_us: u64,
    /// 99th-percentile latency in µs.
    pub p99_us: u64,
    /// 99.9th-percentile latency in µs — the tail that matters under
    /// soak, where p99 still hides one request in a thousand.
    pub p999_us: u64,
    /// Largest latency in µs.
    pub max_us: u64,
}

impl LatencySnapshot {
    fn of(h: &LatencyHistogram) -> Self {
        LatencySnapshot {
            count: h.count(),
            p50_us: h.quantile_us(0.50),
            p99_us: h.quantile_us(0.99),
            p999_us: h.quantile_us(0.999),
            max_us: h.max_us(),
        }
    }
}

/// Point-in-time numbers from the rendered-output cache (both tiers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheGauges {
    /// Eval requests answered from the in-memory LRU tier.
    pub memory_hits: u64,
    /// Eval requests answered by reloading a persisted disk entry.
    pub disk_hits: u64,
    /// Entries currently held in the in-memory LRU.
    pub entries: u64,
    /// Bytes of rendered output held in the in-memory LRU.
    pub bytes: u64,
    /// Entries evicted from memory to stay under the byte budget.
    pub evictions: u64,
    /// Entries loaded from disk into memory at boot (warm start).
    pub warm_start_entries: u64,
}

/// Point-in-time numbers from the connection reactor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnGauges {
    /// Connections currently open.
    pub open_connections: u64,
    /// Connections accepted since boot.
    pub conns_accepted: u64,
}

/// The `stats` response payload: every counter the server exposes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// `eval` endpoint totals.
    pub eval: EndpointSnapshot,
    /// `trace_eval` endpoint totals.
    pub trace_eval: EndpointSnapshot,
    /// `stats` endpoint totals.
    pub stats: EndpointSnapshot,
    /// `ping` endpoint totals.
    pub ping: EndpointSnapshot,
    /// `shutdown` endpoint totals.
    pub shutdown: EndpointSnapshot,
    /// Requests rejected with `overloaded`.
    pub overloaded: u64,
    /// Requests that missed their deadline.
    pub deadline_missed: u64,
    /// Eval requests coalesced onto an in-flight computation.
    pub coalesced: u64,
    /// Eval requests served from the in-memory rendered-output cache.
    pub result_cache_hits: u64,
    /// Eval requests served by reloading a persisted disk cache entry.
    pub disk_cache_hits: u64,
    /// In-memory cache entries held right now.
    pub cache_entries: u64,
    /// Bytes of rendered output held in memory right now.
    pub cache_bytes: u64,
    /// In-memory entries evicted to stay under the byte budget.
    pub cache_evictions: u64,
    /// Disk entries loaded into memory at boot (warm start).
    pub warm_start_entries: u64,
    /// Connections currently open on the reactor.
    pub open_connections: u64,
    /// Connections accepted since boot.
    pub conns_accepted: u64,
    /// Undecodable frames received.
    pub bad_frames: u64,
    /// Persistent engines currently alive (one per distinct workload).
    pub engines: u64,
    /// Artifact-cache hits summed over all engines.
    pub engine_cache_hits: u64,
    /// Artifact-cache misses summed over all engines.
    pub engine_cache_misses: u64,
    /// `eval` latency summary.
    pub eval_latency: LatencySnapshot,
    /// `trace_eval` latency summary.
    pub trace_latency: LatencySnapshot,
}

impl ServerStats {
    /// Snapshots every counter (engine, cache, and connection numbers
    /// are supplied by the server, which owns those subsystems).
    pub fn snapshot(
        &self,
        engines: u64,
        engine_cache_hits: u64,
        engine_cache_misses: u64,
        cache: CacheGauges,
        conns: ConnGauges,
    ) -> StatsSnapshot {
        StatsSnapshot {
            eval: self.eval.snapshot(),
            trace_eval: self.trace_eval.snapshot(),
            stats: self.stats.snapshot(),
            ping: self.ping.snapshot(),
            shutdown: self.shutdown.snapshot(),
            overloaded: self.overloaded.load(Ordering::Relaxed),
            deadline_missed: self.deadline_missed.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            result_cache_hits: cache.memory_hits,
            disk_cache_hits: cache.disk_hits,
            cache_entries: cache.entries,
            cache_bytes: cache.bytes,
            cache_evictions: cache.evictions,
            warm_start_entries: cache.warm_start_entries,
            open_connections: conns.open_connections,
            conns_accepted: conns.conns_accepted,
            bad_frames: self.bad_frames.load(Ordering::Relaxed),
            engines,
            engine_cache_hits,
            engine_cache_misses,
            eval_latency: LatencySnapshot::of(&self.eval_latency),
            trace_latency: LatencySnapshot::of(&self.trace_latency),
        }
    }
}

fn endpoint_json(e: &EndpointSnapshot) -> Json {
    Json::Obj(vec![
        ("requests".to_owned(), Json::Int(e.requests)),
        ("ok".to_owned(), Json::Int(e.ok)),
        ("errors".to_owned(), Json::Int(e.errors)),
    ])
}

fn endpoint_from_json(v: &Json, name: &'static str) -> Result<EndpointSnapshot, ProtocolError> {
    let obj = v.get(name).ok_or(ProtocolError::BadField("endpoint"))?;
    let field = |k: &str| {
        obj.get(k)
            .and_then(Json::as_u64)
            .ok_or(ProtocolError::BadField("endpoint counter"))
    };
    Ok(EndpointSnapshot {
        requests: field("requests")?,
        ok: field("ok")?,
        errors: field("errors")?,
    })
}

fn latency_json(l: &LatencySnapshot) -> Json {
    Json::Obj(vec![
        ("count".to_owned(), Json::Int(l.count)),
        ("p50_us".to_owned(), Json::Int(l.p50_us)),
        ("p99_us".to_owned(), Json::Int(l.p99_us)),
        ("p999_us".to_owned(), Json::Int(l.p999_us)),
        ("max_us".to_owned(), Json::Int(l.max_us)),
    ])
}

fn latency_from_json(v: &Json, name: &'static str) -> Result<LatencySnapshot, ProtocolError> {
    let obj = v.get(name).ok_or(ProtocolError::BadField("latency"))?;
    let field = |k: &str| {
        obj.get(k)
            .and_then(Json::as_u64)
            .ok_or(ProtocolError::BadField("latency counter"))
    };
    Ok(LatencySnapshot {
        count: field("count")?,
        p50_us: field("p50_us")?,
        p99_us: field("p99_us")?,
        p999_us: field("p999_us")?,
        max_us: field("max_us")?,
    })
}

impl StatsSnapshot {
    /// The snapshot as JSON object fields (merged into the `stats`
    /// response object by the protocol layer).
    pub fn to_json_pairs(&self) -> Vec<(String, Json)> {
        vec![
            ("eval".to_owned(), endpoint_json(&self.eval)),
            ("trace_eval".to_owned(), endpoint_json(&self.trace_eval)),
            ("stats".to_owned(), endpoint_json(&self.stats)),
            ("ping".to_owned(), endpoint_json(&self.ping)),
            ("shutdown".to_owned(), endpoint_json(&self.shutdown)),
            ("overloaded".to_owned(), Json::Int(self.overloaded)),
            (
                "deadline_missed".to_owned(),
                Json::Int(self.deadline_missed),
            ),
            ("coalesced".to_owned(), Json::Int(self.coalesced)),
            (
                "result_cache_hits".to_owned(),
                Json::Int(self.result_cache_hits),
            ),
            (
                "disk_cache_hits".to_owned(),
                Json::Int(self.disk_cache_hits),
            ),
            ("cache_entries".to_owned(), Json::Int(self.cache_entries)),
            ("cache_bytes".to_owned(), Json::Int(self.cache_bytes)),
            (
                "cache_evictions".to_owned(),
                Json::Int(self.cache_evictions),
            ),
            (
                "warm_start_entries".to_owned(),
                Json::Int(self.warm_start_entries),
            ),
            (
                "open_connections".to_owned(),
                Json::Int(self.open_connections),
            ),
            ("conns_accepted".to_owned(), Json::Int(self.conns_accepted)),
            ("bad_frames".to_owned(), Json::Int(self.bad_frames)),
            ("engines".to_owned(), Json::Int(self.engines)),
            (
                "engine_cache_hits".to_owned(),
                Json::Int(self.engine_cache_hits),
            ),
            (
                "engine_cache_misses".to_owned(),
                Json::Int(self.engine_cache_misses),
            ),
            ("eval_latency".to_owned(), latency_json(&self.eval_latency)),
            (
                "trace_latency".to_owned(),
                latency_json(&self.trace_latency),
            ),
        ]
    }

    /// Parses a snapshot back out of a `stats` response object.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::BadField`] when a counter is missing or
    /// ill-typed.
    pub fn from_json(v: &Json) -> Result<Self, ProtocolError> {
        let field = |k: &'static str| {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or(ProtocolError::BadField(k))
        };
        Ok(StatsSnapshot {
            eval: endpoint_from_json(v, "eval")?,
            trace_eval: endpoint_from_json(v, "trace_eval")?,
            stats: endpoint_from_json(v, "stats")?,
            ping: endpoint_from_json(v, "ping")?,
            shutdown: endpoint_from_json(v, "shutdown")?,
            overloaded: field("overloaded")?,
            deadline_missed: field("deadline_missed")?,
            coalesced: field("coalesced")?,
            result_cache_hits: field("result_cache_hits")?,
            disk_cache_hits: field("disk_cache_hits")?,
            cache_entries: field("cache_entries")?,
            cache_bytes: field("cache_bytes")?,
            cache_evictions: field("cache_evictions")?,
            warm_start_entries: field("warm_start_entries")?,
            open_connections: field("open_connections")?,
            conns_accepted: field("conns_accepted")?,
            bad_frames: field("bad_frames")?,
            engines: field("engines")?,
            engine_cache_hits: field("engine_cache_hits")?,
            engine_cache_misses: field("engine_cache_misses")?,
            eval_latency: latency_from_json(v, "eval_latency")?,
            trace_latency: latency_from_json(v, "trace_latency")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_reversible() {
        let mut last = 0;
        for us in [0u64, 1, 15, 16, 17, 100, 1000, 65_536, 1 << 40, u64::MAX] {
            let b = LatencyHistogram::bucket_of(us);
            assert!(b >= last || us < 16, "bucket order at {us}");
            last = b;
            let floor = LatencyHistogram::bucket_floor(b);
            assert!(floor <= us, "floor({b}) = {floor} > {us}");
            // Floor is within one sub-bucket (~25%) of the value.
            if us >= 16 {
                assert!(us - floor <= us / 4 + 1, "floor too far below {us}");
            }
        }
    }

    #[test]
    fn quantiles_track_inserted_values() {
        let h = LatencyHistogram::new();
        for us in 1..=1000u64 {
            h.record_us(us);
        }
        let p50 = h.quantile_us(0.5);
        let p99 = h.quantile_us(0.99);
        assert!((400..=500).contains(&p50), "p50 = {p50}");
        assert!((768..=990).contains(&p99), "p99 = {p99}");
        assert_eq!(h.max_us(), 1000);
        assert_eq!(h.count(), 1000);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile_us(q), 0, "q = {q}");
        }
        assert_eq!(h.max_us(), 0);
        let snap = LatencySnapshot::of(&h);
        assert_eq!(snap, LatencySnapshot::default());
    }

    #[test]
    fn values_below_16us_are_exact() {
        for us in 0..16u64 {
            assert_eq!(LatencyHistogram::bucket_of(us), us as usize);
            assert_eq!(LatencyHistogram::bucket_floor(us as usize), us);
        }
        let h = LatencyHistogram::new();
        h.record_us(7);
        assert_eq!(h.quantile_us(0.5), 7);
        assert_eq!(h.quantile_us(1.0), 7);
    }

    #[test]
    fn bucket_floor_is_the_smallest_value_in_its_bucket() {
        let mut prev = 0usize;
        for us in 0..200_000u64 {
            let b = LatencyHistogram::bucket_of(us);
            assert!(b >= prev, "bucket order regressed at {us}");
            prev = b;
        }
        for b in 0..BUCKETS {
            let floor = LatencyHistogram::bucket_floor(b);
            assert_eq!(LatencyHistogram::bucket_of(floor), b, "floor of bucket {b}");
            if floor > 0 {
                assert!(
                    LatencyHistogram::bucket_of(floor - 1) < b,
                    "bucket {b} floor {floor} is not its boundary"
                );
            }
        }
        assert!(LatencyHistogram::bucket_of(u64::MAX) < BUCKETS);
    }

    #[test]
    fn p50_at_an_exact_bucket_edge() {
        // 50 samples in the bucket holding 10, 50 in the one holding 20:
        // the p50 rank (ceil(0.5 * 100) = 50) is the LAST sample of the
        // first bucket, and one rank more crosses the edge.
        let h = LatencyHistogram::new();
        for _ in 0..50 {
            h.record_us(10);
        }
        for _ in 0..50 {
            h.record_us(20);
        }
        assert_eq!(h.quantile_us(0.50), 10);
        assert_eq!(h.quantile_us(0.51), 20);
        assert_eq!(h.quantile_us(1.0), 20);
    }

    #[test]
    fn p999_at_an_exact_bucket_edge() {
        // 999 small samples and 1 large: the p999 rank (999) is the last
        // small sample, so p999 stays small while max already sees the
        // outlier. One more large sample moves rank 1000 (of 1001) onto
        // the outlier bucket.
        let h = LatencyHistogram::new();
        for _ in 0..999 {
            h.record_us(1);
        }
        h.record_us(1 << 20);
        assert_eq!(h.quantile_us(0.999), 1);
        assert_eq!(h.quantile_us(0.99), 1);
        assert_eq!(h.max_us(), 1 << 20);
        h.record_us(1 << 20);
        assert_eq!(h.quantile_us(0.999), 1 << 20);
        let snap = LatencySnapshot::of(&h);
        assert_eq!(snap.p999_us, 1 << 20);
        assert_eq!(snap.max_us, 1 << 20);
        assert_eq!(snap.p99_us, 1);
    }

    #[test]
    fn p999_sits_between_p99_and_max() {
        let h = LatencyHistogram::new();
        for us in 1..=10_000u64 {
            h.record_us(us);
        }
        let snap = LatencySnapshot::of(&h);
        assert!(snap.p50_us <= snap.p99_us);
        assert!(snap.p99_us <= snap.p999_us, "{snap:?}");
        assert!(snap.p999_us <= snap.max_us, "{snap:?}");
        // p999 lands within one sub-bucket (~25%) of the true 9990.
        assert!((7_500..=9_990).contains(&snap.p999_us), "{snap:?}");
        assert_eq!(snap.max_us, 10_000);
    }

    #[test]
    fn p99_at_an_exact_bucket_edge() {
        // With 99 small samples and 1 large, the p99 rank (99) is still
        // in the small bucket; a second large sample moves rank 100 (of
        // 101) onto the first large one.
        let h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record_us(1);
        }
        h.record_us(1 << 20);
        assert_eq!(h.quantile_us(0.99), 1);
        h.record_us(1 << 20);
        assert_eq!(h.quantile_us(0.99), 1 << 20);
        assert_eq!(h.max_us(), 1 << 20);
    }
}
