//! The workspace's two fan-out shapes: [`scan_shards`], one scan of a
//! [`TraceSource`] folded by per-PC shard steps, and [`par_map`], an
//! ordered map over independent items (benchmarks, static branches, probe
//! grid points).
//!
//! Trace production (workload generation or `.bpt2` pread) is inherently
//! serial — records must come out in order — but everything the analyses
//! build from a trace is keyed per static branch. [`scan_shards`] splits
//! the two. One shard simply folds the scan on the calling thread. With
//! more, the producer runs the single scan on the calling thread, packing
//! records into a small ring of recycled 64Ki-record chunk buffers, and
//! *broadcasts* each chunk (an `Arc`) to every shard worker over bounded
//! channels. Each worker sees the full record sequence in order — so
//! order-sensitive state like a `PathWindow` is simply replicated — but
//! does the expensive per-record work only for the PCs its shard owns
//! ([`shard_of`]). Partial results are disjoint by PC, so merging is a
//! plain union and the merged artifact is *identical* (not just
//! equivalent) to a one-shard build, for any shard count: determinism is
//! by construction, as it is for [`par_map`], and the conformance
//! `parallel` suite diffs it continuously.
//!
//! Memory is bounded by the ring: `shards + 2` buffers of
//! [`CHUNK_RECORDS`] records exist at any moment, recycled through a free
//! list when the last worker drops its `Arc`. The bounded channels give
//! backpressure — a slow worker stalls the producer rather than letting
//! chunks pile up.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;

use crate::io::TraceIoError;
use crate::record::{BranchRecord, Pc};
use crate::sink::CHUNK_RECORDS;
use crate::source::TraceSource;

/// Which shard owns a PC, for a given shard count. A multiplicative hash
/// spreads clustered PC values (synthetic workloads allocate them
/// sequentially) evenly across shards; every builder and every merge uses
/// this one function, so partial results are disjoint by construction.
#[must_use]
pub fn shard_of(pc: Pc, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    (pc.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % shards
}

/// A recycled buffer of trace records in flight from the producer to the
/// shard workers. Dropping the last reference returns the buffer to the
/// producer's free list.
struct Chunk {
    records: Vec<BranchRecord>,
    recycle: SyncSender<Vec<BranchRecord>>,
}

impl Drop for Chunk {
    fn drop(&mut self) {
        let mut buf = std::mem::take(&mut self.records);
        buf.clear();
        // The free list's capacity equals the number of buffers in
        // existence, so this never blocks; if the producer is already
        // gone the buffer is simply freed.
        let _ = self.recycle.try_send(buf);
    }
}

/// Runs one per-shard step over `source` and returns every shard's final
/// state, in shard order: `init(shard)` builds a shard's state and
/// `step(state, records)` folds each chunk into it, in trace order. One
/// shard runs on the calling thread over [`TraceSource::scan`]; more get
/// one worker thread each, fed by the broadcast scan the module docs
/// describe. A step that does its per-branch work only for the PCs its
/// shard owns ([`shard_of`]) yields disjoint states, whose union is the
/// same for every shard count.
///
/// # Errors
///
/// Propagates the source's scan error; workers are drained first.
///
/// # Panics
///
/// Propagates a panic in `init` or `step`.
pub fn scan_shards<S, W>(
    source: &S,
    shards: usize,
    init: impl Fn(usize) -> W + Sync,
    step: impl Fn(&mut W, &[BranchRecord]) + Sync,
) -> Result<Vec<W>, TraceIoError>
where
    S: TraceSource + Sync + ?Sized,
    W: Send,
{
    if shards <= 1 {
        let mut state = init(0);
        source.scan(&mut |chunk| step(&mut state, chunk))?;
        return Ok(vec![state]);
    }
    let ring = shards + 2;
    let (free_tx, free_rx) = sync_channel::<Vec<BranchRecord>>(ring);
    for _ in 0..ring {
        free_tx
            .send(Vec::with_capacity(CHUNK_RECORDS))
            .expect("free ring has capacity for every buffer");
    }
    let mut txs = Vec::with_capacity(shards);
    let mut workers = Vec::with_capacity(shards);
    for _ in 0..shards {
        let (tx, rx) = sync_channel::<Arc<Chunk>>(2);
        txs.push(tx);
        workers.push(rx);
    }

    std::thread::scope(|scope| {
        let (init, step) = (&init, &step);
        let handles: Vec<_> = workers
            .into_iter()
            .enumerate()
            .map(|(shard, rx)| {
                scope.spawn(move || {
                    let mut state = init(shard);
                    for chunk in rx {
                        step(&mut state, &chunk.records);
                    }
                    state
                })
            })
            .collect();

        // Producer: repack the source's chunks (whose boundaries are the
        // source's choice) into uniform ring buffers, broadcasting each
        // full one. A send to a dead (panicked) worker fails harmlessly —
        // the chunk's Drop still recycles the buffer — so the free list
        // never starves and the scan runs to completion regardless.
        let mut cur = free_rx.recv().expect("free ring is non-empty");
        let broadcast = |records: Vec<BranchRecord>| {
            let chunk = Arc::new(Chunk {
                records,
                recycle: free_tx.clone(),
            });
            for tx in &txs {
                let _ = tx.send(chunk.clone());
            }
        };
        let scanned = source.scan(&mut |recs: &[BranchRecord]| {
            let mut rest = recs;
            while !rest.is_empty() {
                let room = CHUNK_RECORDS - cur.len();
                let take = room.min(rest.len());
                cur.extend_from_slice(&rest[..take]);
                rest = &rest[take..];
                if cur.len() == CHUNK_RECORDS {
                    let full = std::mem::replace(
                        &mut cur,
                        free_rx.recv().expect("free ring cycles buffers back"),
                    );
                    broadcast(full);
                }
            }
        });
        if scanned.is_ok() && !cur.is_empty() {
            broadcast(std::mem::take(&mut cur));
        }
        drop(txs); // close the streams: workers run off their queues and finish

        let results = handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(t) => t,
                Err(panic) => std::panic::resume_unwind(panic),
            })
            .collect();
        scanned.map(|()| results)
    })
}

/// Threads [`par_map`] runs `len` items on at a `jobs` budget: at least
/// one, and never more than there are items.
#[must_use]
pub fn par_threads(jobs: usize, len: usize) -> usize {
    jobs.max(1).min(len.max(1))
}

/// Maps `f` over `items` on [`par_threads`]`(jobs, items.len())` threads
/// and returns the results in input order, with each thread's final
/// scratch state (built by `init`, one per thread). With one thread
/// everything runs on the caller's thread.
///
/// Threads claim runs of `len / (16 · threads)` items (at least one) off a
/// shared cursor: enough claims per thread that a few expensive items
/// (branch costs are heavily skewed) cannot leave the others idle. When
/// `f` depends only on its item, the output is the same for every `jobs`.
///
/// # Panics
///
/// A panic in `init` or `f` reaches the caller with its own payload (the
/// first panicking thread's, in spawn order) once every thread has
/// stopped.
pub fn par_map<T, R, S>(
    items: &[T],
    jobs: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, &T) -> R + Sync,
) -> (Vec<R>, Vec<S>)
where
    T: Sync,
    R: Send,
    S: Send,
{
    let threads = par_threads(jobs, items.len());
    if threads == 1 {
        let mut state = init();
        let results = items.iter().map(|item| f(&mut state, item)).collect();
        return (results, vec![state]);
    }
    let run = (items.len() / (threads * 16)).max(1);
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut state = init();
        let mut done: Vec<(usize, Vec<R>)> = Vec::new();
        loop {
            let start = next.fetch_add(run, Ordering::Relaxed);
            let Some(claimed) = items.get(start..items.len().min(start + run)) else {
                break;
            };
            done.push((start, claimed.iter().map(|t| f(&mut state, t)).collect()));
        }
        (done, state)
    };
    let mut runs = Vec::with_capacity(items.len().div_ceil(run));
    let mut states = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
        // Joining here, rather than leaving it to the scope, keeps the
        // worker's own payload instead of the scope's generic one.
        for handle in handles {
            let (done, state) = handle
                .join()
                .unwrap_or_else(|p| std::panic::resume_unwind(p));
            runs.extend(done);
            states.push(state);
        }
    });
    runs.sort_unstable_by_key(|&(start, _)| start);
    (runs.into_iter().flat_map(|(_, run)| run).collect(), states)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;

    fn sample_trace(n: u64) -> Trace {
        Trace::from_records(
            (0..n)
                .map(|i| BranchRecord::conditional(0x10 + (i % 11) * 8, i % 3 == 0))
                .collect(),
        )
    }

    #[test]
    fn every_worker_sees_every_record_in_order() {
        let n = CHUNK_RECORDS as u64 * 2 + 12345;
        let trace = sample_trace(n);
        for shards in [1usize, 2, 3] {
            let seen = scan_shards(
                &trace,
                shards,
                |_| (0u64, None),
                |(total, last), chunk| {
                    // Record i has pc 0x10 + (i % 11) * 8.
                    for rec in chunk {
                        assert_eq!(rec.pc, 0x10 + (*total % 11) * 8);
                        *total += 1;
                    }
                    assert!(chunk.len() <= CHUNK_RECORDS);
                    *last = Some(chunk.len());
                },
            )
            .expect("scan");
            let want = (n, Some((n as usize) % CHUNK_RECORDS));
            assert_eq!(seen, vec![want; shards], "shards = {shards}");
        }
    }

    #[test]
    fn shard_of_partitions_and_is_stable() {
        for shards in [1usize, 2, 7, 64] {
            for pc in 0..2000u64 {
                let s = shard_of(pc, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(pc, shards), "stable");
            }
        }
        assert_eq!(shard_of(0xabc, 1), 0);
    }

    #[test]
    fn shard_states_come_back_in_shard_order() {
        let trace = sample_trace(100);
        let caller = std::thread::current().id();
        for shards in [0usize, 1, 5] {
            let states = scan_shards(
                &trace,
                shards,
                |shard| (shard, std::thread::current().id()),
                |_, _| {},
            )
            .expect("scan");
            let ids: Vec<usize> = states.iter().map(|&(shard, _)| shard).collect();
            assert_eq!(ids, (0..shards.max(1)).collect::<Vec<_>>());
            // One shard folds on the calling thread; more get a thread each.
            let on_caller = states.iter().filter(|&&(_, id)| id == caller).count();
            assert_eq!(on_caller, usize::from(shards <= 1), "{shards} shards");
        }
    }

    #[test]
    fn par_map_keeps_input_order_on_par_threads_threads() {
        assert_eq!(par_threads(4, 2), 2, "--grid 0..1 --jobs 4 runs 2 threads");
        assert_eq!(par_threads(4, 37), 4);
        assert_eq!(par_threads(0, 5), 1);
        assert_eq!(par_threads(3, 0), 1);
        let caller = std::thread::current().id();
        for len in [0usize, 1, 37] {
            let items: Vec<usize> = (0..len).collect();
            for jobs in [0usize, 1, 2, 7] {
                let (squares, states) = par_map(
                    &items,
                    jobs,
                    || (std::thread::current().id(), 0usize),
                    |(_, mapped), &i| {
                        *mapped += 1;
                        i * i
                    },
                );
                let at = format!("len {len} jobs {jobs}");
                assert_eq!(
                    squares,
                    items.iter().map(|i| i * i).collect::<Vec<_>>(),
                    "{at}"
                );
                let threads = par_threads(jobs, len);
                let ids: std::collections::HashSet<_> = states.iter().map(|&(id, _)| id).collect();
                assert_eq!((states.len(), ids.len()), (threads, threads), "{at}");
                assert_eq!(ids.contains(&caller), threads == 1, "{at}");
                assert_eq!(states.iter().map(|&(_, n)| n).sum::<usize>(), len, "{at}");
            }
        }
    }

    #[test]
    fn par_map_resumes_a_worker_panic_with_its_own_payload() {
        let items: Vec<u32> = (0..37).collect();
        for jobs in [1, 2, 7] {
            let payload = std::panic::catch_unwind(|| {
                par_map(
                    &items,
                    jobs,
                    || (),
                    |_, &i| {
                        if i == 23 {
                            panic!("trace stream failed: item {i}");
                        }
                        i
                    },
                )
            })
            .expect_err("the worker's panic reaches the caller");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("trace stream failed: item 23"),
                "jobs {jobs}"
            );
        }
    }
}
