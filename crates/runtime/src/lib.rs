//! Deterministic multi-core execution for the workspace.
//!
//! Everything above the single-frame hot path — scenario matrices, parameter
//! sweeps, fleet missions, session farms, multi-stream recognition — is
//! embarrassingly parallel: independent, seed-deterministic work items. This
//! crate supplies the one primitive they all share, a [`WorkPool`], with two
//! entry points over the same claim loop and reassembly:
//!
//! * [`WorkPool::map_indexed`] (and [`WorkPool::map`]) for *borrowed* work:
//!   workers `1..` are `std::thread::scope` threads spawned for the call, so
//!   items and closures may borrow the caller's stack;
//! * [`WorkPool::map_owned`] for *owned*, `'static` work (items in an
//!   `Arc<[T]>`): workers `1..` are process-wide helper threads that start on
//!   first use and park between calls, so a call spawns no thread and each
//!   helper's thread-local scratch stays warm from one call to the next.
//!   Reusing threads for borrowed closures would need lifetime erasure,
//!   which this crate's `forbid(unsafe_code)` rules out.
//!
//! Both share these properties:
//!
//! * **fixed worker count** — default [`WorkPool::auto`] (available
//!   parallelism, read once per process), overridable for benchmarks and CI
//!   conformance runs; the calling thread is always worker 0;
//! * **atomic work queue** — workers claim index chunks off one atomic
//!   cursor, so scheduling is load-balanced without any lock;
//! * **per-worker reusable state** — each worker owns one state value (a
//!   `FrameScratch`, an RNG, …) created once and threaded through every item
//!   it processes, or thread-local scratch that lives as long as its thread,
//!   preserving the allocation-free steady state of the single-frame path;
//! * **order-preserving results** — results are addressed by item index and
//!   reassembled in input order, so the output is *byte-identical regardless
//!   of worker count or scheduling*. There is no reduction step and hence no
//!   reduction-order dependence.
//!
//! The determinism contract: if `work(state, i, item)` is a pure function of
//! `(i, item)` (per-worker state may be scratch memory but must not leak
//! information between items), then `pool.map_indexed(...)` equals the
//! serial `items.iter().enumerate().map(...)` exactly, for every worker
//! count, and likewise `pool.map_owned(items, work)` equals
//! `items.iter().map(work)`. The workspace's scratch types satisfy this by
//! construction and property tests pin it.
//!
//! No external dependencies: the build environment has no registry access
//! (see DESIGN.md), which is why this exists instead of `rayon`.
//!
//! # Example
//! ```
//! use hdc_runtime::WorkPool;
//! use std::sync::Arc;
//!
//! let pool = WorkPool::new(4);
//! let squares = pool.map(&[1u64, 2, 3, 4, 5], |x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! let owned: Arc<[u64]> = Arc::from(vec![1u64, 2, 3, 4, 5]);
//! assert_eq!(pool.map_owned(owned, |x| x * x), squares);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod splitmix;
pub mod vclock;

pub use events::{micros_to_secs, secs_to_micros, EventHeap, ScheduleMode, Scheduled};
pub use splitmix::{mix, unit_f64, SplitMix64, GOLDEN_GAMMA};
pub use vclock::{Micros, VirtualClock};

use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread;

/// How many chunks each worker sees on average: small enough that chunk
/// claiming stays cheap, large enough that one slow chunk cannot starve the
/// pool (work items here are whole scenarios or frames, with highly variable
/// cost).
const CHUNKS_PER_WORKER: usize = 4;

/// A fixed-size, dependency-free, deterministic work pool.
///
/// See the crate docs for the work model and determinism contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkPool {
    workers: usize,
}

impl WorkPool {
    /// A pool with exactly `workers` workers.
    ///
    /// # Panics
    /// Panics if `workers` is zero.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "a work pool needs at least one worker");
        WorkPool { workers }
    }

    /// A pool sized to the machine: one worker per available hardware
    /// thread (1 when parallelism cannot be queried), as
    /// [`available_workers`] read it once per process.
    pub fn auto() -> Self {
        WorkPool::new(available_workers())
    }

    /// `Some(n)` → exactly `n` workers; `None` → [`WorkPool::auto`].
    ///
    /// The shape every `--threads N` flag in the workspace parses into.
    pub fn with_threads(threads: Option<usize>) -> Self {
        match threads {
            Some(n) => WorkPool::new(n),
            None => WorkPool::auto(),
        }
    }

    /// Number of workers in the pool.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Maps `work` over `items` on the pool, with one `init(worker_index)`
    /// state per worker, returning results in input order. Worker 0 runs on
    /// the calling thread; workers `1..` on scoped threads spawned for this
    /// call, so `items`, `init` and `work` may borrow from the caller.
    ///
    /// Output is identical to the serial
    /// `items.iter().enumerate().map(|(i, it)| work(&mut init(0), i, it))`
    /// whenever `work` is a pure function of `(i, item)` — see the crate
    /// docs for the full determinism contract.
    ///
    /// # Panics
    /// Propagates the first worker panic.
    pub fn map_indexed<T, R, S>(
        &self,
        items: &[T],
        init: impl Fn(usize) -> S + Sync,
        work: impl Fn(&mut S, usize, &T) -> R + Sync,
    ) -> Vec<R>
    where
        T: Sync,
        R: Send,
    {
        let workers = self.workers.min(items.len());
        if workers <= 1 {
            // Serial fast path: no threads for empty, single-item, or
            // one-worker maps (also what keeps doctests cheap).
            let mut state = init(0);
            return items
                .iter()
                .enumerate()
                .map(|(i, item)| work(&mut state, i, item))
                .collect();
        }

        let chunk = items.len().div_ceil(workers * CHUNKS_PER_WORKER).max(1);
        let cursor = AtomicUsize::new(0);
        let (init, work, cursor) = (&init, &work, &cursor);
        let run_worker = move |w: usize| {
            let mut state = init(w);
            claim(items, chunk, cursor, |i, item| work(&mut state, i, item))
        };

        // Workers 1.. get scoped threads; worker 0 is the calling thread,
        // which saves a spawn per call and keeps its thread-local scratch
        // warm across calls.
        let per_worker: Vec<Vec<(usize, R)>> = thread::scope(|scope| {
            let handles: Vec<_> = (1..workers)
                .map(|w| scope.spawn(move || run_worker(w)))
                .collect();
            let mut per_worker = vec![run_worker(0)];
            for h in handles {
                match h.join() {
                    Ok(v) => per_worker.push(v),
                    Err(payload) => panic::resume_unwind(payload),
                }
            }
            per_worker
        });
        reassemble(items.len(), per_worker)
    }

    /// Stateless convenience form of [`WorkPool::map_indexed`].
    pub fn map<T, R>(&self, items: &[T], work: impl Fn(&T) -> R + Sync) -> Vec<R>
    where
        T: Sync,
        R: Send,
    {
        self.map_indexed(items, |_| (), |_, _, item| work(item))
    }

    /// Maps owned, `'static` work over `items` on long-lived workers,
    /// returning results in input order.
    ///
    /// Worker 0 is the calling thread. Workers `1..` are process-wide helper
    /// threads: they start on first use, park on a channel between calls,
    /// and the set grows on demand to the largest `workers − 1` any call has
    /// asked for. A call therefore spawns no thread once the helpers exist,
    /// and anything a helper keeps in thread-local storage (a session's view
    /// scratch) stays warm from one call to the next. Items are claimed one
    /// at a time — each is a whole unit of work, such as a session, whose
    /// cost dwarfs an atomic add.
    ///
    /// The caller waits only for items that were claimed, never for a helper
    /// to start, so a call made from inside another call's `work` (on any
    /// worker) completes: the nested caller runs every item no free helper
    /// takes. Output equals the serial `items.iter().map(work)` whenever
    /// `work` is a pure function of its item.
    ///
    /// # Panics
    /// Propagates a panic in `work`, on worker 0 or on a helper; the helper
    /// catches it and lives on for later calls.
    pub fn map_owned<T, R, F>(&self, items: Arc<[T]>, work: F) -> Vec<R>
    where
        T: Send + Sync + 'static,
        R: Send + 'static,
        F: Fn(&T) -> R + Send + Sync + 'static,
    {
        let workers = self.workers.min(items.len());
        if workers <= 1 {
            return items.iter().map(work).collect();
        }

        let cursor = Arc::new(AtomicUsize::new(0));
        let work = Arc::new(work);
        let (results, finished) = mpsc::channel::<thread::Result<Vec<(usize, R)>>>();
        for_helpers(workers - 1, || {
            let (items, cursor, work) = (items.clone(), cursor.clone(), work.clone());
            let results = results.clone();
            Box::new(move || {
                let claimed = panic::catch_unwind(AssertUnwindSafe(|| {
                    claim(&items, 1, &cursor, |_, item| work(item))
                }));
                // A helper that found the queue drained reports nothing: the
                // caller counts items, not helpers. A send fails only when
                // the caller has already unwound from a panic of its own.
                if !matches!(&claimed, Ok(done) if done.is_empty()) {
                    let _ = results.send(claimed);
                }
            })
        });
        drop(results);

        let own = claim(&items, 1, &cursor, |_, item| work(item));
        let mut done = own.len();
        let mut parts = vec![own];
        while done < items.len() {
            // Every unfinished item is held by a running helper, which
            // reports it or its panic before dropping its sender.
            match finished.recv().expect("a claimed item is always reported") {
                Ok(part) => {
                    done += part.len();
                    parts.push(part);
                }
                Err(payload) => panic::resume_unwind(payload),
            }
        }
        reassemble(items.len(), parts)
    }
}

impl Default for WorkPool {
    fn default() -> Self {
        WorkPool::auto()
    }
}

/// Claims chunks of `chunk` items off `cursor` until the queue is drained,
/// running `work(index, item)` on each: one worker's share of a map, as
/// `(index, result)` pairs.
fn claim<T, R>(
    items: &[T],
    chunk: usize,
    cursor: &AtomicUsize,
    mut work: impl FnMut(usize, &T) -> R,
) -> Vec<(usize, R)> {
    let mut out = Vec::new();
    loop {
        // Relaxed suffices: the cursor publishes only indices, and results
        // travel back through a join or a channel, which synchronise.
        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
        if start >= items.len() {
            return out;
        }
        let end = (start + chunk).min(items.len());
        for (i, item) in items.iter().enumerate().take(end).skip(start) {
            out.push((i, work(i, item)));
        }
    }
}

/// Index-addressed reassembly of every worker's share: input order, no
/// reduction order.
fn reassemble<R>(len: usize, parts: Vec<Vec<(usize, R)>>) -> Vec<R> {
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(len).collect();
    for (i, r) in parts.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "item {i} produced twice");
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|r| r.expect("every item index must be produced exactly once"))
        .collect()
}

/// A unit of owned work for one helper thread.
type Job = Box<dyn FnOnce() + Send>;

/// The process-wide helpers behind [`WorkPool::map_owned`]: helper `k`
/// (worker `k + 1`) parks on the receiving end of `HELPERS[k]`. A helper
/// runs until the process exits; every job catches its own panics, so no
/// helper ever dies and detaching them hides nothing.
static HELPERS: Mutex<Vec<Sender<Job>>> = Mutex::new(Vec::new());

/// Sends one `job()` to each of the first `n` helpers, starting any that do
/// not exist yet.
fn for_helpers(n: usize, mut job: impl FnMut() -> Job) {
    // The list only ever grows by a push after a successful spawn, so it is
    // valid even if a spawn panicked while the lock was held.
    let mut helpers = HELPERS.lock().unwrap_or_else(PoisonError::into_inner);
    while helpers.len() < n {
        let (tx, rx) = mpsc::channel::<Job>();
        thread::Builder::new()
            .name(format!("hdc-worker-{}", helpers.len() + 1))
            .spawn(move || rx.into_iter().for_each(|job| job()))
            .expect("the OS refused to start a work-pool helper thread");
        helpers.push(tx);
    }
    for tx in &helpers[..n] {
        tx.send(job()).expect("a helper never drops its receiver");
    }
}

/// The machine's available hardware parallelism (1 when unknown): what
/// [`WorkPool::auto`] sizes to, and what benchmark metadata records so
/// committed numbers are attributable to the box that produced them.
///
/// It is read once per process (the query re-reads the cgroup quota, tens
/// of µs per call), so a later change to the process's CPU affinity or
/// quota is not seen.
pub fn available_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Parses a `--threads N` override out of a raw argument list (`None` when
/// absent → auto). Shared by `run_scenarios` and `bench_engine`.
///
/// # Panics
/// Panics with a usage message when `--threads` has no valid positive value.
pub fn threads_from_args(args: &[String]) -> Option<usize> {
    args.windows(2)
        .find(|pair| pair[0] == "--threads")
        .map(|pair| {
            pair[1]
                .parse::<usize>()
                .ok()
                .filter(|&n| n > 0)
                .unwrap_or_else(|| panic!("--threads needs a positive integer, got {:?}", pair[1]))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<usize> = (0..101).collect();
        for workers in [1, 2, 3, 4, 8] {
            let pool = WorkPool::new(workers);
            let doubled = pool.map(&items, |x| x * 2);
            assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let pool = WorkPool::new(8);
        assert_eq!(pool.map(&[] as &[u32], |x| *x), Vec::<u32>::new());
        assert_eq!(pool.map(&[7u32], |x| x + 1), vec![8]);
    }

    #[test]
    fn per_worker_state_is_reused_not_shared() {
        // Each worker's state counts the items it processed; totals must
        // cover every item exactly once even though per-worker shares vary.
        let items: Vec<u32> = (0..57).collect();
        let pool = WorkPool::new(3);
        let counts = pool.map_indexed(
            &items,
            |_| 0usize,
            |seen, _, _| {
                *seen += 1;
                *seen
            },
        );
        // every item got a positive per-worker sequence number
        assert!(counts.iter().all(|&c| c >= 1));
        assert_eq!(counts.len(), items.len());
    }

    #[test]
    fn init_receives_distinct_worker_indices() {
        let items: Vec<u32> = (0..64).collect();
        let pool = WorkPool::new(4);
        let worker_of = pool.map_indexed(&items, |w| w, |w, _, _| *w);
        for &w in &worker_of {
            assert!(w < 4);
        }
    }

    #[test]
    fn with_threads_follows_the_flag() {
        assert_eq!(WorkPool::with_threads(Some(3)).workers(), 3);
        assert_eq!(WorkPool::with_threads(None).workers(), available_workers());
    }

    #[test]
    fn threads_flag_parsing() {
        let args = |s: &[&str]| s.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(threads_from_args(&args(&["--bless"])), None);
        assert_eq!(threads_from_args(&args(&["--threads", "2"])), Some(2));
        assert_eq!(
            threads_from_args(&args(&["--bless", "--threads", "16"])),
            Some(16)
        );
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        WorkPool::new(0);
    }

    #[test]
    fn worker_zero_is_the_calling_thread() {
        let caller = thread::current().id();
        let items: Vec<usize> = (0..64).collect();
        for workers in [1, 2, 3, 8] {
            let inits = std::sync::Mutex::new(Vec::new());
            let out = WorkPool::new(workers).map_indexed(
                &items,
                |w| inits.lock().unwrap().push((w, thread::current().id())),
                |_, i, x| (i, *x * 3),
            );
            assert_eq!(out, items.iter().map(|&x| (x, x * 3)).collect::<Vec<_>>());
            let mut inits = inits.into_inner().unwrap();
            inits.sort_by_key(|(w, _)| *w);
            let ws: Vec<usize> = inits.iter().map(|(w, _)| *w).collect();
            assert_eq!(ws, (0..workers).collect::<Vec<_>>(), "one init per worker");
            for (w, id) in &inits {
                assert_eq!(*w == 0, *id == caller, "worker {w} at {workers} workers");
            }
        }
    }

    #[test]
    fn a_panic_on_either_side_of_the_spawn_propagates() {
        let items: Vec<u32> = (0..32).collect();
        for doomed in [0, 1] {
            let result = std::panic::catch_unwind(|| {
                WorkPool::new(2).map_indexed(&items, |w| assert!(w != doomed, "boom"), |_, _, x| *x)
            });
            assert!(result.is_err(), "a panic in worker {doomed} was lost");
        }
    }

    /// One `map_owned` call at `workers` workers whose items each wait at a
    /// barrier of `workers` parties before naming their thread: no worker
    /// can take a second item before every worker holds one, so the result
    /// names each worker's thread exactly once.
    fn owned_probe(workers: usize) -> HashSet<thread::ThreadId> {
        let barrier = Arc::new(std::sync::Barrier::new(workers));
        let items: Arc<[usize]> = (0..workers).collect();
        let ids = WorkPool::new(workers).map_owned(items, move |_| {
            barrier.wait();
            thread::current().id()
        });
        let distinct: HashSet<_> = ids.into_iter().collect();
        assert_eq!(distinct.len(), workers, "one item per worker");
        distinct
    }

    #[test]
    fn owned_worker_zero_is_the_calling_thread() {
        for workers in [2, 3, 8] {
            assert!(owned_probe(workers).contains(&thread::current().id()));
        }
    }

    #[test]
    fn owned_helpers_are_the_same_threads_on_every_call() {
        for workers in [2, 3, 8] {
            let first = owned_probe(workers);
            assert_eq!(
                owned_probe(workers),
                first,
                "helpers replaced at {workers} workers"
            );
        }
    }

    #[test]
    fn an_owned_panic_on_either_side_propagates_and_the_helpers_live_on() {
        let helpers = owned_probe(2);
        let caller = thread::current().id();
        for doomed_caller in [true, false] {
            let barrier = Arc::new(std::sync::Barrier::new(2));
            let items: Arc<[u32]> = Arc::from([0u32, 1]);
            let result = std::panic::catch_unwind(|| {
                WorkPool::new(2).map_owned(items, move |x| {
                    barrier.wait();
                    assert!((thread::current().id() == caller) != doomed_caller, "boom");
                    *x
                })
            });
            assert!(
                result.is_err(),
                "a panic on the caller={doomed_caller} side was lost"
            );
            let items: Arc<[u32]> = (0..40).collect();
            assert_eq!(
                WorkPool::new(2).map_owned(items, |x| x + 1),
                (1..41).collect::<Vec<_>>()
            );
        }
        assert_eq!(owned_probe(2), helpers, "a panic cost a helper thread");
    }

    #[test]
    fn owned_calls_nest_without_deadlock() {
        // Every outer item holds its worker at a barrier until all three
        // workers are inside an item, then makes an inner call: each inner
        // call's helper jobs queue behind busy helpers, so the inner callers
        // must finish their maps alone.
        let (done, finished) = std::sync::mpsc::channel();
        thread::spawn(move || {
            let barrier = Arc::new(std::sync::Barrier::new(3));
            let outer: Arc<[u64]> = (0..3).collect();
            let sums = WorkPool::new(3).map_owned(outer, move |&x| {
                barrier.wait();
                let inner: Arc<[u64]> = (0..7).map(|y| x * 10 + y).collect();
                WorkPool::new(3)
                    .map_owned(inner, |y| y * 2)
                    .iter()
                    .sum::<u64>()
            });
            done.send(sums).expect("the test waits for the result");
        });
        let sums = finished
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("a nested map_owned call deadlocked");
        assert_eq!(sums, vec![42, 182, 322]);
    }

    #[test]
    fn worker_panics_propagate() {
        let pool = WorkPool::new(2);
        let items: Vec<u32> = (0..32).collect();
        let result = std::panic::catch_unwind(|| {
            pool.map(&items, |&x| {
                assert!(x != 17, "boom");
                x
            })
        });
        assert!(result.is_err());
    }
}
