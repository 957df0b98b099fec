//! Offline API-subset shim of `rayon`.
//!
//! Provides the `par_iter().map(..).collect()` shape the workspace's hot
//! paths use — ensemble training and batch inference — backed by real
//! parallelism on a **persistent worker pool**: one worker thread per
//! available core is spawned lazily on first use and kept alive for the
//! process lifetime, fed through a channel. Each `collect()` chunks the
//! input across the workers and reassembles results in order, so callers
//! observe exactly the sequential ordering.
//!
//! Compared with spawning `std::thread::scope` threads per call (the
//! previous design), the pool removes thread-spawn latency from every
//! `detect_batch`, which dominated small-batch serving cost. Nested
//! `par_iter` calls from inside a worker run inline on that worker — the
//! work is already parallel one level up, and blocking a fixed-size pool on
//! its own queue could deadlock it.

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};
use std::thread;

/// Everything downstream code imports via `use rayon::prelude::*;`.
pub mod prelude {
    pub use crate::{FromParallelResults, IntoParallelRefIterator, ParIter, ParMap};
}

/// A unit of work shipped to the pool. Tasks are lifetime-erased closures;
/// soundness is provided by the submitting call, which always blocks on a
/// completion latch before returning (see [`parallel_map`]).
type Task = Box<dyn FnOnce() + Send + 'static>;

struct Pool {
    sender: Mutex<mpsc::Sender<Task>>,
    workers: usize,
}

static POOL: OnceLock<Pool> = OnceLock::new();

thread_local! {
    /// Set on pool workers so nested parallel calls run inline instead of
    /// re-entering (and potentially deadlocking) the fixed-size pool.
    static IS_POOL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let workers = thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1);
        let (sender, receiver) = mpsc::channel::<Task>();
        let receiver = Arc::new(Mutex::new(receiver));
        for i in 0..workers {
            let receiver = Arc::clone(&receiver);
            thread::Builder::new()
                .name(format!("rayon-shim-{i}"))
                .spawn(move || {
                    IS_POOL_WORKER.with(|flag| flag.set(true));
                    loop {
                        // Hold the lock only while dequeuing, never while
                        // running a task.
                        let task = match receiver.lock() {
                            Ok(guard) => guard.recv(),
                            Err(_) => break,
                        };
                        match task {
                            Ok(task) => task(),
                            Err(_) => break, // channel closed: process exit
                        }
                    }
                })
                .expect("spawn rayon-shim worker");
        }
        Pool {
            sender: Mutex::new(sender),
            workers,
        }
    })
}

/// Number of threads the persistent pool runs (rayon's API of the same
/// name). Callers use this to skip chunking overhead on single-core hosts.
pub fn current_num_threads() -> usize {
    pool().workers
}

/// Counts outstanding chunks of one `parallel_map` call; the submitting
/// thread blocks on it before returning, which is what makes the lifetime
/// erasure of [`Task`] sound.
struct Latch {
    remaining: Mutex<usize>,
    all_done: Condvar,
}

impl Latch {
    fn new(count: usize) -> Latch {
        Latch {
            remaining: Mutex::new(count),
            all_done: Condvar::new(),
        }
    }

    fn count_down(&self) {
        let mut remaining = self.remaining.lock().expect("latch lock");
        *remaining -= 1;
        if *remaining == 0 {
            self.all_done.notify_all();
        }
    }

    fn wait(&self) {
        let mut remaining = self.remaining.lock().expect("latch lock");
        while *remaining > 0 {
            remaining = self.all_done.wait(remaining).expect("latch wait");
        }
    }
}

/// Waits on the latch when dropped, so the submitting stack frame cannot be
/// unwound (e.g. by a panic in the inline chunk) while workers still hold
/// borrows into it.
struct WaitOnDrop<'a>(&'a Latch);

impl Drop for WaitOnDrop<'_> {
    fn drop(&mut self) {
        self.0.wait();
    }
}

/// Runs `f` over every element of `items` on the persistent worker pool and
/// returns the outputs in input order.
fn parallel_map<'a, T, R, F>(items: &'a [T], f: &F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&'a T) -> R + Sync,
{
    let on_worker = IS_POOL_WORKER.with(|flag| flag.get());
    if items.len() <= 1 || on_worker {
        return items.iter().map(f).collect();
    }
    let pool = pool();
    let workers = pool.workers.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }

    let chunk_len = items.len().div_ceil(workers);
    let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);

    let num_chunks = items.len().div_ceil(chunk_len);
    let latch = Latch::new(num_chunks - 1); // first chunk runs inline
    let panicked = AtomicBool::new(false);

    {
        // From here until the latch opens, workers may hold borrows of
        // `items`, `f`, `out` slots, `latch` and `panicked`; the guard waits
        // even if this frame unwinds.
        let _guard = WaitOnDrop(&latch);
        let mut slots = out.as_mut_slice();
        let mut inline: Option<(&mut [Option<R>], &'a [T])> = None;
        for (index, chunk) in items.chunks(chunk_len).enumerate() {
            let (slot, rest) = slots.split_at_mut(chunk.len());
            slots = rest;
            if index == 0 {
                inline = Some((slot, chunk));
                continue;
            }
            let latch = &latch;
            let panicked = &panicked;
            let job = move || {
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    for (dst, item) in slot.iter_mut().zip(chunk) {
                        *dst = Some(f(item));
                    }
                }));
                if outcome.is_err() {
                    panicked.store(true, Ordering::SeqCst);
                }
                latch.count_down();
            };
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(job);
            // SAFETY: the task borrows stack data of this call, but the
            // latch guarantees — including on unwind, via `_guard` — that
            // this frame outlives every submitted task. Erasing the borrow
            // lifetime to `'static` is therefore sound: no task can run
            // after the borrows expire.
            #[allow(clippy::missing_transmute_annotations)]
            let job: Task = unsafe { std::mem::transmute(job) };
            pool.sender
                .lock()
                .expect("pool sender lock")
                .send(job)
                .expect("pool workers alive for process lifetime");
        }
        // The submitting thread works too: zero hand-off latency for the
        // first chunk, and the pool only ever serves the remainder.
        let (slot, chunk) = inline.expect("at least two chunks");
        for (dst, item) in slot.iter_mut().zip(chunk) {
            *dst = Some(f(item));
        }
    }

    if panicked.load(Ordering::SeqCst) {
        panic!("a rayon shim worker task panicked");
    }
    out.into_iter()
        .map(|r| r.expect("worker thread filled every slot"))
        .collect()
}

/// Conversion from `&collection` to a parallel iterator (`par_iter`).
pub trait IntoParallelRefIterator<'a> {
    /// The element type yielded by reference.
    type Item: Sync + 'a;

    /// Borrowing parallel iterator over the collection.
    fn par_iter(&'a self) -> ParIter<'a, Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = T;

    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = T;

    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

/// Borrowing parallel iterator over a slice.
pub struct ParIter<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Maps every element through `f` in parallel.
    pub fn map<R, F>(self, f: F) -> ParMap<'a, T, F>
    where
        R: Send,
        F: Fn(&'a T) -> R + Sync,
    {
        ParMap {
            items: self.items,
            f,
        }
    }
}

/// A pending parallel map, consumed by [`ParMap::collect`].
pub struct ParMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

impl<'a, T, R, F> ParMap<'a, T, F>
where
    T: Sync,
    R: Send,
    F: Fn(&'a T) -> R + Sync,
{
    /// Evaluates the map on the worker pool and gathers the results.
    pub fn collect<C: FromParallelResults<R>>(self) -> C {
        C::from_results(parallel_map(self.items, &self.f))
    }
}

/// Collection targets for [`ParMap::collect`] — the shim's stand-in for
/// rayon's `FromParallelIterator`.
pub trait FromParallelResults<R>: Sized {
    /// Builds the collection from the in-order mapped results.
    fn from_results(results: Vec<R>) -> Self;
}

impl<R> FromParallelResults<R> for Vec<R> {
    fn from_results(results: Vec<R>) -> Vec<R> {
        results
    }
}

impl<T, E> FromParallelResults<Result<T, E>> for Result<Vec<T>, E> {
    fn from_results(results: Vec<Result<T, E>>) -> Result<Vec<T>, E> {
        results.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn parallel_map_preserves_order() {
        let xs: Vec<u64> = (0..1000).collect();
        let doubled: Vec<u64> = xs.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<u64>>());
    }

    #[test]
    fn result_collection_short_circuits_to_first_error() {
        let xs: Vec<u64> = (0..100).collect();
        let ok: Result<Vec<u64>, String> = xs.par_iter().map(|&x| Ok(x + 1)).collect();
        assert_eq!(ok.unwrap().len(), 100);
        let err: Result<Vec<u64>, String> = xs
            .par_iter()
            .map(|&x| {
                if x == 41 {
                    Err(format!("boom {x}"))
                } else {
                    Ok(x)
                }
            })
            .collect();
        assert_eq!(err.unwrap_err(), "boom 41");
    }

    #[test]
    fn empty_and_single_inputs_work() {
        let none: Vec<u8> = Vec::new();
        let out: Vec<u8> = none.par_iter().map(|&x| x).collect();
        assert!(out.is_empty());
        let one = [7u8];
        let out: Vec<u8> = one.par_iter().map(|&x| x + 1).collect();
        assert_eq!(out, vec![8]);
    }

    #[test]
    fn really_runs_on_multiple_threads_when_available() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let seen = Mutex::new(HashSet::new());
        let xs: Vec<u64> = (0..64).collect();
        let _out: Vec<()> = xs
            .par_iter()
            .map(|_| {
                seen.lock().unwrap().insert(std::thread::current().id());
                std::thread::sleep(std::time::Duration::from_millis(1));
            })
            .collect();
        let threads = seen.lock().unwrap().len();
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        if cores > 1 {
            assert!(
                threads > 1,
                "expected parallel execution, saw {threads} thread(s)"
            );
        }
    }

    #[test]
    fn worker_threads_persist_across_calls() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        // Which worker dequeues a chunk is up to the scheduler, so two calls
        // may well see disjoint workers. Persistence means the workers are
        // never replaced: however many calls run, the threads other than the
        // caller (which executes its chunk inline) number at most the pool.
        let caller = std::thread::current().id();
        let workers = Mutex::new(HashSet::new());
        let xs: Vec<u64> = (0..64).collect();
        for _ in 0..50 {
            let _out: Vec<()> = xs
                .par_iter()
                .map(|_| {
                    let id = std::thread::current().id();
                    if id != caller {
                        workers.lock().unwrap().insert(id);
                    }
                })
                .collect();
        }
        let seen = workers.into_inner().unwrap().len();
        assert!(
            seen <= super::current_num_threads(),
            "50 calls ran on {seen} distinct workers; the pool holds {}",
            super::current_num_threads()
        );
    }

    #[test]
    fn nested_parallel_calls_do_not_deadlock() {
        let outer: Vec<u64> = (0..16).collect();
        let result: Vec<u64> = outer
            .par_iter()
            .map(|&x| {
                let inner: Vec<u64> = (0..8).collect();
                let sums: Vec<u64> = inner.par_iter().map(|&y| x * 10 + y).collect();
                sums.iter().sum()
            })
            .collect();
        assert_eq!(result.len(), 16);
        assert_eq!(result[1], (0..8).map(|y| 10 + y).sum::<u64>());
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        let xs: Vec<u64> = (0..128).collect();
        let outcome = std::panic::catch_unwind(|| {
            let _out: Vec<u64> = xs
                .par_iter()
                .map(|&x| {
                    // Panic in a late chunk so it lands on a pool worker, not
                    // the caller's inline chunk.
                    assert!(x != 127, "task failure");
                    x
                })
                .collect();
        });
        assert!(outcome.is_err(), "worker panic must surface to the caller");
        // The pool must stay usable after a task panicked.
        let doubled: Vec<u64> = xs.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled.len(), 128);
    }
}
