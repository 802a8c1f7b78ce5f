//! The workspace's fan-out: [`par_map`], an ordered map over
//! independent items (benchmarks, static branches, probe grid points),
//! on at most [`MAX_THREADS`] threads however large `jobs` is.
//!
//! A trace scan is not fanned out. The stream packer and the builders'
//! window-context automaton each keep one state that every record steps
//! in trace order, so a scan is one [`crate::TraceSource::scan`] fold on
//! the calling thread.

use std::sync::atomic::{AtomicUsize, Ordering};

/// The most threads a fan-out runs: [`par_threads`]'s bound, and
/// `bp-serve`'s for `--workers`. A huge `--jobs` must not become a thread
/// per static branch.
pub const MAX_THREADS: usize = 256;

/// Threads [`par_map`] runs `len` items on at a `jobs` budget: at least
/// one, and never more than there are items or [`MAX_THREADS`].
#[must_use]
pub fn par_threads(jobs: usize, len: usize) -> usize {
    jobs.clamp(1, MAX_THREADS).min(len.max(1))
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

    #[test]
    fn par_map_keeps_input_order_on_par_threads_threads() {
        assert_eq!(par_threads(4, 2), 2, "--grid 0..1 --jobs 4 runs 2 threads");
        assert_eq!(par_threads(4, 37), 4);
        assert_eq!(par_threads(0, 5), 1);
        assert_eq!(par_threads(3, 0), 1);
        assert_eq!(par_threads(100_000, 10_000), MAX_THREADS);
        assert_eq!(par_threads(100_000, 7), 7);
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
