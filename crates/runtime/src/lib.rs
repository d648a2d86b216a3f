//! Deterministic multi-core execution for the workspace.
//!
//! Everything above the single-frame hot path — scenario matrices, parameter
//! sweeps, fleet missions, multi-stream recognition — is embarrassingly
//! parallel: independent, seed-deterministic work items. This crate supplies
//! the one primitive they all share, a [`WorkPool`] built purely on
//! `std::thread::scope`:
//!
//! * **fixed worker count** — default [`WorkPool::auto`] (available
//!   parallelism), overridable for benchmarks and CI conformance runs;
//! * **chunked work queue** — workers claim contiguous index chunks off an
//!   atomic cursor, so scheduling is load-balanced without any channel or
//!   lock;
//! * **per-worker reusable state** — each worker owns one state value (a
//!   `FrameScratch`, an RNG, …) created once and threaded through every item
//!   it processes, preserving the allocation-free steady state of the
//!   single-frame path;
//! * **order-preserving results** — results are addressed by item index and
//!   reassembled in input order, so the output is *byte-identical regardless
//!   of worker count or scheduling*. There is no reduction step and hence no
//!   reduction-order dependence.
//!
//! The determinism contract: if `work(state, i, item)` is a pure function of
//! `(i, item)` (per-worker state may be scratch memory but must not leak
//! information between items), then `pool.map_indexed(...)` equals the
//! serial `items.iter().enumerate().map(...)` exactly, for every worker
//! count. The workspace's scratch types satisfy this by construction and
//! property tests pin it.
//!
//! No external dependencies: the build environment has no registry access
//! (see DESIGN.md), which is why this exists instead of `rayon`.
//!
//! # Example
//! ```
//! use hdc_runtime::WorkPool;
//!
//! let pool = WorkPool::new(4);
//! let squares = pool.map(&[1u64, 2, 3, 4, 5], |x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
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
use std::sync::atomic::{AtomicUsize, Ordering};
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
    /// thread (1 when parallelism cannot be queried).
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
    /// the calling thread; workers `1..` on scoped threads.
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
        let chunk_count = items.len().div_ceil(chunk);
        let cursor = AtomicUsize::new(0);
        let (init, work, cursor) = (&init, &work, &cursor);

        let run_worker = move |w: usize| {
            let mut state = init(w);
            let mut out = Vec::new();
            loop {
                let c = cursor.fetch_add(1, Ordering::Relaxed);
                if c >= chunk_count {
                    break;
                }
                let start = c * chunk;
                let end = (start + chunk).min(items.len());
                for (i, item) in items.iter().enumerate().take(end).skip(start) {
                    out.push((i, work(&mut state, i, item)));
                }
            }
            out
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
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            per_worker
        });

        // Index-addressed reassembly: input order, no reduction order.
        let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
        for (i, r) in per_worker.into_iter().flatten() {
            debug_assert!(slots[i].is_none(), "item {i} produced twice");
            slots[i] = Some(r);
        }
        slots
            .into_iter()
            .map(|r| r.expect("every item index must be produced exactly once"))
            .collect()
    }

    /// Stateless convenience form of [`WorkPool::map_indexed`].
    pub fn map<T, R>(&self, items: &[T], work: impl Fn(&T) -> R + Sync) -> Vec<R>
    where
        T: Sync,
        R: Send,
    {
        self.map_indexed(items, |_| (), |_, _, item| work(item))
    }
}

impl Default for WorkPool {
    fn default() -> Self {
        WorkPool::auto()
    }
}

/// The machine's available hardware parallelism (1 when unknown): what
/// [`WorkPool::auto`] sizes to, and what benchmark metadata records so
/// committed numbers are attributable to the box that produced them.
pub fn available_workers() -> usize {
    thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
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
