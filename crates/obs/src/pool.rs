//! The workspace's one worker pool: [`parallel_map`] over scoped threads,
//! with the worker count resolved by [`resolve_jobs`].
//!
//! It lives in this dependency-free leaf so that every crate can fan out
//! on the same pool: the characterization engine, the explorer and the
//! experiments (through `aix-core`'s re-export) as well as the timed
//! simulator's chunked error measurement in `aix-sim`.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable that sets the worker count wherever no explicit
/// count is given.
const JOBS_ENV: &str = "AIX_JOBS";

thread_local! {
    /// Set while this thread runs items of a [`parallel_map`].
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// The effective worker count: `explicit` when it is positive, else a
/// positive integer in `AIX_JOBS`, else the machine's available
/// parallelism.
pub fn resolve_jobs(explicit: usize) -> usize {
    if explicit > 0 {
        return explicit;
    }
    if let Some(jobs) = std::env::var(JOBS_ENV)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&j| j > 0)
    {
        return jobs;
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Whether the current thread is running an item of a [`parallel_map`].
/// A pool call made there runs inline, so nesting never multiplies the
/// thread count.
pub fn in_pool_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

/// Marks the current thread as a pool worker until dropped.
struct WorkerMark {
    was: bool,
}

impl WorkerMark {
    fn set() -> Self {
        Self {
            was: IN_WORKER.with(|flag| flag.replace(true)),
        }
    }
}

impl Drop for WorkerMark {
    fn drop(&mut self) {
        IN_WORKER.with(|flag| flag.set(self.was));
    }
}

/// Runs `run` over `items` on up to `jobs` threads and returns the results
/// *in item order*, regardless of which worker finished first. Workers
/// self-schedule from a shared index (work stealing over a common queue),
/// so an expensive item does not serialize the rest.
///
/// The calling thread is one of the workers and always takes the first
/// item; `jobs − 1` scoped threads join it. With `jobs <= 1`, a single
/// item, or a call from inside a pool worker ([`in_pool_worker`]),
/// everything runs inline on the calling thread.
///
/// A worker that observes a poisoned slot mutex recovers the value: slot
/// contents are plain `Option` moves, valid regardless of where a sibling
/// worker panicked, so one crashing job must not cascade into the others.
///
/// # Panics
///
/// Propagates panics from `run` once all workers have stopped.
pub fn parallel_map<T, R, F>(jobs: usize, items: Vec<T>, run: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = jobs.max(1).min(items.len());
    if workers <= 1 || in_pool_worker() {
        return items.into_iter().map(run).collect();
    }
    let queue: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let slots: Vec<Mutex<Option<R>>> = queue.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let store = |index: usize, result: R| {
        *slots[index]
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner()) = Some(result);
    };
    let work = || loop {
        let index = next.fetch_add(1, Ordering::Relaxed);
        if index >= queue.len() {
            break;
        }
        let item = queue[index]
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .take()
            .expect("each item is claimed exactly once");
        store(index, run(item));
    };
    std::thread::scope(|scope| {
        // The first item is the calling thread's: it is claimed before any
        // worker starts.
        let first = queue[0]
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .take()
            .expect("the first item is unclaimed");
        next.store(1, Ordering::Relaxed);
        let handles: Vec<_> = (1..workers)
            .map(|_| {
                scope.spawn(|| {
                    let _mark = WorkerMark::set();
                    work();
                })
            })
            .collect();
        let own = catch_unwind(AssertUnwindSafe(|| {
            let _mark = WorkerMark::set();
            store(0, run(first));
            work();
        }));
        // Join every worker explicitly: the scope's implicit join returns
        // once the closures finish, before the threads have exited and
        // handed their malloc arenas back. A pool spawned right after would
        // then find no free arena and create another, and each extra arena
        // keeps megabytes of freed memory resident.
        let mut panic = own.err();
        for handle in handles {
            if let Err(payload) = handle.join() {
                panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .expect("every item was processed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::thread::ThreadId;

    #[test]
    fn parallel_map_preserves_item_order() {
        for jobs in [1, 2, 4, 9] {
            let doubled = parallel_map(jobs, (0..50).collect(), |x: i32| x * 2);
            assert_eq!(doubled, (0..50).map(|x| x * 2).collect::<Vec<_>>());
        }
        let empty: Vec<i32> = parallel_map(4, Vec::new(), |x: i32| x);
        assert!(empty.is_empty());
    }

    #[test]
    fn parallel_map_propagates_a_worker_panic_after_all_workers_stop() {
        let finished = AtomicUsize::new(0);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            parallel_map(2, (0..20).collect(), |x: i32| {
                if x == 3 {
                    panic!("job {x} failed");
                }
                finished.fetch_add(1, Ordering::Relaxed);
                x
            })
        }));
        let payload = outcome.expect_err("the job panic propagates");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("job 3 failed")
        );
        assert_eq!(
            finished.load(Ordering::Relaxed),
            19,
            "the other worker drains the queue"
        );
        assert!(!in_pool_worker(), "the caller's worker mark is restored");
    }

    #[test]
    fn the_calling_thread_takes_the_first_item() {
        let caller = std::thread::current().id();
        let owners = parallel_map(3, (0..6).collect(), |_: i32| std::thread::current().id());
        assert_eq!(owners[0], caller);
        assert!(!in_pool_worker());
    }

    #[test]
    fn nested_calls_run_on_the_outer_workers_thread() {
        let outer: Vec<(ThreadId, Vec<ThreadId>)> = parallel_map(2, (0..4).collect(), |_: i32| {
            assert!(in_pool_worker());
            let inner = parallel_map(4, (0..8).collect(), |_: i32| std::thread::current().id());
            (std::thread::current().id(), inner)
        });
        let mut distinct = HashSet::new();
        for (worker, inner) in &outer {
            assert!(
                inner.iter().all(|id| id == worker),
                "a nested call left its worker's thread"
            );
            distinct.insert(*worker);
            distinct.extend(inner.iter().copied());
        }
        assert!(
            distinct.len() <= 2,
            "{} threads ran a 2-worker pool with nested calls",
            distinct.len()
        );
    }

    #[test]
    fn explicit_jobs_win_over_the_environment() {
        assert_eq!(resolve_jobs(3), 3);
        assert!(resolve_jobs(0) >= 1);
    }
}
