//! `vortex` analog: transactions against a small in-memory object store
//! (B-tree-ish ordered index plus schema validation).
//!
//! Branch profile: vortex was the most predictable benchmark in the paper
//! (gshare 99.0%) because it is wall-to-wall *validation*: null checks,
//! type checks, bounds checks that essentially always pass. The residual
//! action is ordered-index traversal, which is biased by the key
//! distribution.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use bp_trace::{Pc, Recorder, TraceSink};

use crate::{salted_seed, WorkloadConfig};

const BASE: Pc = 0x0070_0000;

const PC_TXN_LOOP: Pc = BASE;
const PC_VALID_HANDLE: Pc = BASE + 0x9e4;
const PC_VALID_SCHEMA: Pc = BASE + 2 * 0x9e4;
const PC_VALID_FIELDS: Pc = BASE + 3 * 0x9e4;
const PC_IS_INSERT: Pc = BASE + 4 * 0x9e4;
const PC_IS_LOOKUP: Pc = BASE + 5 * 0x9e4;
const PC_PAGE_SKIP: Pc = BASE + 6 * 0x9e4;
const PC_PAGE_LOOP: Pc = BASE + 7 * 0x9e4;
const PC_SCAN_PAST: Pc = BASE + 8 * 0x9e4;
const PC_SCAN_LOOP: Pc = BASE + 9 * 0x9e4;
const PC_KEY_FOUND: Pc = BASE + 10 * 0x9e4;
const PC_NODE_FULL: Pc = BASE + 11 * 0x9e4;
const PC_CACHE_HIT: Pc = BASE + 12 * 0x9e4;
const PC_COMMIT_OK: Pc = BASE + 13 * 0x9e4;
const PC_AUDIT_DUE: Pc = BASE + 14 * 0x9e4;
const PC_AUDIT_LOOP: Pc = BASE + 15 * 0x9e4;
const PC_AUDIT_LIVE: Pc = BASE + 16 * 0x9e4;

#[derive(Debug, Clone, Copy)]
struct Object {
    key: u32,
    schema: u8,
    field_count: u8,
    live: bool,
}

struct Store {
    /// Sorted by key — stands in for the B-tree leaf chain.
    objects: Vec<Object>,
    cache_tag: u32,
    committed: u64,
}

impl Store {
    fn new() -> Self {
        Store {
            objects: Vec::new(),
            cache_tag: u32::MAX,
            committed: 0,
        }
    }

    /// Index walk like a B-tree descent: skip whole pages while their last
    /// key is below the target (strongly biased taken), then scan within
    /// the page (biased taken until the stopping point).
    fn position<S: TraceSink>(&self, rec: &mut Recorder<S>, key: u32) -> Result<usize, usize> {
        const PAGE: usize = 256;
        let len = self.objects.len();
        let mut i = 0usize;
        while i + PAGE <= len {
            if !rec.cond(PC_PAGE_SKIP, self.objects[i + PAGE - 1].key < key) {
                break;
            }
            i += PAGE;
            rec.loop_back(PC_PAGE_LOOP, true);
        }
        while i < len {
            if !rec.cond(PC_SCAN_PAST, self.objects[i].key < key) {
                break;
            }
            i += 1;
            rec.loop_back(PC_SCAN_LOOP, true);
        }
        if i < len && self.objects[i].key == key {
            Ok(i)
        } else {
            Err(i)
        }
    }
}

fn validate<S: TraceSink>(rec: &mut Recorder<S>, obj: Object) -> bool {
    // The 99%-biased wall: real vortex spends its life here.
    let h = rec.cond(PC_VALID_HANDLE, obj.key != u32::MAX);
    let s = rec.cond(PC_VALID_SCHEMA, obj.schema < 8);
    let f = rec.cond(PC_VALID_FIELDS, obj.field_count as usize <= 16);
    h && s && f
}

/// The benchmark's scripted operation schedule: vortex.in drives *bursts*
/// of same-type transactions (a load phase, then query phases, then a
/// purge), so the op-type branches are biased over long runs.
fn op_for(step: u64) -> u8 {
    match (step / 48) % 4 {
        3 => {
            if step.is_multiple_of(12) {
                2 // occasional delete inside the maintenance phase
            } else {
                0 // insert burst
            }
        }
        _ => 1, // long lookup phases
    }
}

fn transaction<S: TraceSink>(
    rec: &mut Recorder<S>,
    store: &mut Store,
    rng: &mut StdRng,
    step: u64,
) {
    // Strong temporal locality: most operations touch a small working set
    // of recently used keys; occasionally a fresh key enters.
    let key = if step % 16 == 15 {
        1 + (rng.gen_range(0f64..1f64).powi(2) * 50_000.0) as u32
    } else {
        let slot = (step * 7 + step / 16) % 24;
        1 + (slot * 1787 % 50_000) as u32
    };
    let obj = Object {
        key,
        schema: (key % 7) as u8,
        field_count: (1 + key % 11) as u8,
        live: true,
    };
    if !validate(rec, obj) {
        return;
    }

    rec.cond(PC_CACHE_HIT, store.cache_tag == key >> 8);
    store.cache_tag = key >> 8;

    let op = op_for(step);
    let is_insert = rec.cond(PC_IS_INSERT, op == 0);
    if is_insert {
        match store.position(rec, key) {
            Ok(i) => store.objects[i] = obj,
            Err(i) => {
                // Page-split stand-in: rare, size-driven.
                if rec.cond(PC_NODE_FULL, store.objects.len() % 64 == 63) {
                    store.objects.reserve(64);
                }
                store.objects.insert(i, obj);
            }
        }
    } else if rec.cond(PC_IS_LOOKUP, op == 1) {
        let found = store.position(rec, key).is_ok();
        rec.cond(PC_KEY_FOUND, found);
    } else {
        // Delete: tombstone if present.
        if let Ok(i) = store.position(rec, key) {
            store.objects[i].live = false;
        }
    }

    store.committed += 1;
    rec.cond(PC_COMMIT_OK, !store.committed.is_multiple_of(512));

    // Periodic audit sweep: a long regular loop over live objects.
    if rec.cond(PC_AUDIT_DUE, store.committed.is_multiple_of(200)) {
        let n = store.objects.len();
        for (i, o) in store.objects.iter().enumerate() {
            rec.cond(PC_AUDIT_LIVE, o.live);
            rec.loop_back(PC_AUDIT_LOOP, i + 1 < n);
        }
    }
}

/// Streams the vortex trace into `sink`, chunk by chunk.
pub fn generate_into<S: TraceSink>(cfg: &WorkloadConfig, sink: S) -> S {
    let mut rng = StdRng::seed_from_u64(salted_seed(cfg, 0x0DB));
    let mut rec = Recorder::with_sink(sink);
    let mut store = Store::new();
    let mut txns = 0u64;
    while rec.conditional_len() < cfg.target_branches {
        transaction(&mut rec, &mut store, &mut rng, txns);
        txns += 1;
        rec.loop_back(PC_TXN_LOOP, !txns.is_multiple_of(1000));
        if store.objects.len() > 3_000 {
            store = Store::new();
        }
    }
    rec.into_sink()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Benchmark;
    use bp_trace::BranchProfile;

    #[test]
    fn deterministic_and_reaches_target() {
        let cfg = WorkloadConfig {
            seed: 17,
            target_branches: 20_000,
        };
        let a = Benchmark::Vortex.generate(&cfg);
        assert!(a.conditional_count() >= 20_000);
        assert_eq!(a, Benchmark::Vortex.generate(&cfg));
    }

    #[test]
    fn validation_wall_is_biased() {
        let t = Benchmark::Vortex.generate(&WorkloadConfig {
            seed: 17,
            target_branches: 40_000,
        });
        let profile = BranchProfile::of(&t);
        for pc in [PC_VALID_HANDLE, PC_VALID_SCHEMA, PC_VALID_FIELDS] {
            let e = profile.get(pc).expect("validation site present");
            assert!(e.bias() > 0.99, "site {pc:#x} bias {}", e.bias());
        }
        // Overall: the most statically predictable workload.
        assert!(
            profile.ideal_static_accuracy() > 0.85,
            "{}",
            profile.ideal_static_accuracy()
        );
    }
}
