//! Shard routing: a consistent-hash ring over daemon addresses, and the
//! bounded retry/backoff policy the sharded client applies per shard.
//!
//! Keys are placed on a 64-bit ring; each shard address contributes
//! [`VNODES`] virtual points so load spreads evenly even with two or
//! three shards. A key routes to the first point clockwise from its
//! hash; failover walks further clockwise to the next *distinct* shard,
//! so every client derives the same primary and the same failover order
//! from the address list alone — no coordinator. Adding a shard moves
//! only the keys that land on its points (~1/N of the space), which is
//! the property that makes horizontal scale cheap.
//!
//! Hashing reuses the shared FNV-1a chain from [`bp_trace::sidecar`] —
//! one hash implementation across `.bps` artifacts, the disk cache, and
//! the ring.

use bp_trace::sidecar::{fnv1a, FNV_OFFSET};

use std::time::Duration;

/// Virtual points per shard address.
pub const VNODES: usize = 64;

/// Avalanche finalizer (the 64-bit murmur3 fmix). FNV-1a over short
/// structured inputs (an address plus a vnode counter, or an eval key)
/// leaves the *high* bits poorly mixed, and ring placement orders
/// points by exactly those bits — without this step one shard can
/// capture half the key space. The finalizer makes every input bit
/// affect every output bit.
fn mix(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    h
}

/// A consistent-hash ring over shard addresses.
#[derive(Debug, Clone)]
pub struct Ring {
    /// Ring points, sorted by hash: (point hash, shard index).
    points: Vec<(u64, usize)>,
    shards: usize,
}

impl Ring {
    /// Builds the ring. Order of `addrs` defines shard indices; the
    /// ring itself is insensitive to that order (points depend only on
    /// the address strings).
    #[must_use]
    pub fn new(addrs: &[String]) -> Self {
        let mut points = Vec::with_capacity(addrs.len() * VNODES);
        for (idx, addr) in addrs.iter().enumerate() {
            let base = fnv1a(FNV_OFFSET, addr.as_bytes());
            for vnode in 0..VNODES {
                points.push((mix(fnv1a(base, &(vnode as u64).to_le_bytes())), idx));
            }
        }
        points.sort_unstable();
        Ring {
            points,
            shards: addrs.len(),
        }
    }

    /// The ring position of an evaluation key.
    #[must_use]
    pub fn key_hash(experiment: &str, seed: u64, target: u64) -> u64 {
        let h = fnv1a(FNV_OFFSET, experiment.as_bytes());
        let h = fnv1a(h, &seed.to_le_bytes());
        mix(fnv1a(h, &target.to_le_bytes()))
    }

    /// Shard indices in routing order for `hash`: the owner first, then
    /// each distinct shard encountered walking the ring — the failover
    /// sequence. Every shard appears exactly once.
    #[must_use]
    pub fn route(&self, hash: u64) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.shards);
        if self.points.is_empty() {
            return order;
        }
        let start = self.points.partition_point(|&(point, _)| point < hash) % self.points.len();
        let mut seen = vec![false; self.shards];
        for i in 0..self.points.len() {
            let (_, shard) = self.points[(start + i) % self.points.len()];
            if !seen[shard] {
                seen[shard] = true;
                order.push(shard);
                if order.len() == self.shards {
                    break;
                }
            }
        }
        order
    }

    /// Number of shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
    }

    /// Whether the ring has no shards.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shards == 0
    }
}

/// Bounded exponential backoff with deterministic jitter, applied per
/// shard before giving up on it and failing over.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Attempts per shard (1 = no retry).
    pub attempts: u32,
    /// Backoff before the second attempt; doubles per attempt after.
    pub base: Duration,
    /// Ceiling on any single backoff.
    pub cap: Duration,
    /// Jitter seed. The jitter stream is a pure function of this seed,
    /// so tests (and reproductions of production incidents) see the
    /// exact same sleep schedule.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            base: Duration::from_millis(50),
            cap: Duration::from_secs(2),
            seed: 0x5EED_CAFE,
        }
    }
}

impl RetryPolicy {
    /// No retries, no sleeping — for tests and health probes.
    #[must_use]
    pub fn none() -> Self {
        RetryPolicy {
            attempts: 1,
            base: Duration::ZERO,
            cap: Duration::ZERO,
            seed: 0,
        }
    }

    /// The jitter RNG, seeded for this policy.
    #[must_use]
    pub fn jitter(&self) -> Jitter {
        // xorshift64 must not start at 0; fold in a non-zero constant.
        Jitter {
            state: self.seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Backoff before retry number `attempt` (1-based: the sleep before
    /// the second try is `attempt = 1`). Full jitter: uniform in
    /// `[delay/2, delay]`, so synchronized clients desynchronize.
    #[must_use]
    pub fn backoff(&self, attempt: u32, jitter: &mut Jitter) -> Duration {
        let exp = attempt.saturating_sub(1).min(20);
        let delay = self
            .base
            .saturating_mul(1u32 << exp)
            .min(self.cap)
            .as_nanos() as u64;
        let jittered = delay / 2 + jitter.next_u64() % (delay / 2 + 1);
        Duration::from_nanos(jittered)
    }
}

/// Deterministic xorshift64 jitter stream.
#[derive(Debug, Clone)]
pub struct Jitter {
    state: u64,
}

impl Jitter {
    /// Next pseudo-random value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("127.0.0.1:{}", 4100 + i)).collect()
    }

    #[test]
    fn routing_is_deterministic_and_complete() {
        let ring = Ring::new(&addrs(3));
        for key in 0..200u64 {
            let hash = Ring::key_hash("fig4", key, 40_000);
            let a = ring.route(hash);
            let b = ring.route(hash);
            assert_eq!(a, b, "routing must be deterministic");
            let mut sorted = a.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2], "failover order covers every shard");
        }
    }

    #[test]
    fn load_spreads_across_shards() {
        let ring = Ring::new(&addrs(4));
        let mut counts = [0usize; 4];
        for seed in 0..4000u64 {
            let hash = Ring::key_hash("fig5", seed, 40_000);
            counts[ring.route(hash)[0]] += 1;
        }
        for (shard, &count) in counts.iter().enumerate() {
            assert!(
                (500..=1800).contains(&count),
                "shard {shard} owns {count} of 4000 keys — distribution collapsed"
            );
        }
    }

    #[test]
    fn adding_a_shard_moves_only_a_fraction_of_keys() {
        let three = Ring::new(&addrs(3));
        let four = Ring::new(&addrs(4));
        let moved = (0..2000u64)
            .filter(|&seed| {
                let hash = Ring::key_hash("fig4", seed, 40_000);
                let before = three.route(hash)[0];
                let after = four.route(hash)[0];
                before != after && after != 3
            })
            .count();
        // Consistent hashing: keys not claimed by the new shard stay put
        // (a handful may shift between survivors where vnode ranges
        // interleave; a modulo scheme would move ~2/3 of them).
        assert!(
            moved < 200,
            "{moved} of 2000 keys moved between surviving shards"
        );
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_grows() {
        let policy = RetryPolicy {
            attempts: 5,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(500),
            seed: 42,
        };
        let schedule: Vec<Duration> = {
            let mut j = policy.jitter();
            (1..=6).map(|a| policy.backoff(a, &mut j)).collect()
        };
        let again: Vec<Duration> = {
            let mut j = policy.jitter();
            (1..=6).map(|a| policy.backoff(a, &mut j)).collect()
        };
        assert_eq!(schedule, again, "same seed, same schedule");
        for (i, d) in schedule.iter().enumerate() {
            let nominal = Duration::from_millis(10)
                .saturating_mul(1 << i)
                .min(Duration::from_millis(500));
            assert!(*d >= nominal / 2, "attempt {i}: {d:?} below half-nominal");
            assert!(*d <= nominal, "attempt {i}: {d:?} above nominal");
        }
        // Different seeds give different jitter.
        let other = RetryPolicy { seed: 43, ..policy };
        let mut j = other.jitter();
        let other_first = other.backoff(1, &mut j);
        assert_ne!(schedule[0], other_first);
    }

    #[test]
    fn zero_base_backoff_never_sleeps() {
        let policy = RetryPolicy::none();
        let mut j = policy.jitter();
        assert_eq!(policy.backoff(1, &mut j), Duration::ZERO);
        assert_eq!(policy.backoff(9, &mut j), Duration::ZERO);
    }

    #[test]
    fn empty_ring_routes_nowhere() {
        let ring = Ring::new(&[]);
        assert!(ring.is_empty());
        assert!(ring.route(12345).is_empty());
    }
}
