//! Offline API-subset shim of `rayon`.
//!
//! Provides the `par_iter().map(..).collect()` shape the workspace's hot
//! paths use — ensemble training and batch inference — backed by real
//! parallelism on a **persistent worker pool**: one worker thread per
//! available core is spawned lazily on first use and kept alive for the
//! process lifetime, fed through a channel. Each `collect()` shares the
//! input between the calling thread and up to `cores - 1` pool workers,
//! which claim grains of items until none remain, and reassembles results
//! in order, so callers observe exactly the sequential ordering.
//!
//! Compared with spawning `std::thread::scope` threads per call (the
//! previous design), the pool removes thread-spawn latency from every
//! `detect_batch`, which dominated small-batch serving cost.
//!
//! **Nested calls run inline.** A `par_iter` call made from inside a map —
//! on a pool worker, or on the calling thread while it runs its own share
//! — runs on that thread: the work is already parallel one level up, so
//! handing nested items to the pool would only add threads beyond the
//! cores (and blocking a fixed-size pool on its own queue could deadlock
//! it). A bagged-forest fit therefore costs one hand-off per helper, not
//! one per estimator.

use std::cell::Cell;
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
    /// Set for good on pool workers, and on a submitting thread while it
    /// runs its own share of a map ([`WorkerScope`]), so nested parallel
    /// calls run inline instead of handing work to the pool: the threads
    /// busy with one map never outnumber the pool, and the fixed-size pool
    /// is never blocked on its own queue.
    static IS_POOL_WORKER: Cell<bool> = const { Cell::new(false) };

    /// Pool tasks this thread has submitted. Hand-offs are the shim's unit
    /// of overhead; the tests pin them as a ceiling.
    static SUBMITTED: Cell<usize> = const { Cell::new(0) };
}

/// How many claims per participant a long map is cut into. A claim takes
/// `len / (participants * GRAINS_PER_PARTICIPANT)` items, at least one: a
/// short map of costly items (a fit's estimators) is shared item by item,
/// and a long map of cheap ones takes the claim lock only about this many
/// times per participant.
const GRAINS_PER_PARTICIPANT: usize = 8;

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
                    IS_POOL_WORKER.set(true);
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

/// Counts the helper tasks of one `parallel_map` call that have not yet
/// finished; the submitting thread blocks on it before returning, which is
/// what makes the lifetime erasure of [`Task`] sound.
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
/// unwound (e.g. by a panic in the caller's own share) while helpers still
/// hold borrows into it.
struct WaitOnDrop<'a>(&'a Latch);

impl Drop for WaitOnDrop<'_> {
    fn drop(&mut self) {
        self.0.wait();
    }
}

/// Counts the submitting thread as a pool worker while it runs its own
/// share of a map, so nested calls there run inline (see
/// [`IS_POOL_WORKER`]). Dropping it clears the flag again, also when an item
/// panics: a thread only ever enters the scope with the flag clear.
struct WorkerScope;

impl WorkerScope {
    fn enter() -> WorkerScope {
        IS_POOL_WORKER.set(true);
        WorkerScope
    }
}

impl Drop for WorkerScope {
    fn drop(&mut self) {
        IS_POOL_WORKER.set(false);
    }
}

/// Runs `f` over every element of `items` on the persistent worker pool and
/// returns the outputs in input order.
///
/// The calling thread and `participants - 1` pool workers share the items:
/// each claims the next unclaimed grain until none remain, so no
/// participant idles while items are left, whichever item turns out slow.
/// Nested calls from any participant run inline.
fn parallel_map<'a, T, R, F>(items: &'a [T], f: &F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&'a T) -> R + Sync,
{
    if items.len() <= 1 || IS_POOL_WORKER.get() {
        return items.iter().map(f).collect();
    }
    let pool = pool();
    let participants = pool.workers.min(items.len());
    if participants <= 1 {
        return items.iter().map(f).collect();
    }
    let grain = (items.len() / (participants * GRAINS_PER_PARTICIPANT)).max(1);

    let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);
    let latch = Latch::new(participants - 1);
    let panicked = AtomicBool::new(false);

    {
        // Each grain pairs its output slots with its items; a participant
        // holds the lock only to take the next pair, never while mapping.
        let grains = Mutex::new(out.chunks_mut(grain).zip(items.chunks(grain)));
        let drain = || loop {
            let next = grains.lock().expect("grain lock").next();
            let Some((slots, inputs)) = next else { break };
            for (dst, item) in slots.iter_mut().zip(inputs) {
                *dst = Some(f(item));
            }
        };
        // From here until the latch opens, workers may hold borrows of
        // `grains` (and through it `items` and `out`), `f`, `latch` and
        // `panicked`; the guard waits even if this frame unwinds.
        let _guard = WaitOnDrop(&latch);
        for _ in 1..participants {
            let (drain, latch, panicked) = (&drain, &latch, &panicked);
            let job = move || {
                if catch_unwind(AssertUnwindSafe(drain)).is_err() {
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
            SUBMITTED.set(SUBMITTED.get() + 1);
        }
        // The submitting thread works too, from the first grain on: zero
        // hand-off latency, and as a worker its nested calls stay here.
        let _scope = WorkerScope::enter();
        drain();
    }

    if panicked.load(Ordering::SeqCst) {
        panic!("a rayon shim worker task panicked");
    }
    out.into_iter()
        .map(|r| r.expect("a participant filled every slot"))
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
    use std::sync::{Condvar, Mutex};
    use std::thread::{current, ThreadId};

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
        // Which worker dequeues a helper task is up to the scheduler, so two
        // calls may well see disjoint workers. Persistence means the workers
        // are never replaced: however many calls run, the threads other than
        // the caller (which runs its own share of grains) number at most the
        // pool.
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
        // A 1-core pool has no workers to panic on; the caller's own panic
        // is pinned by `a_panic_in_the_callers_share_leaves_the_next_map_parallel`.
        if super::current_num_threads() == 1 {
            return;
        }
        let xs: Vec<u64> = (0..128).collect();
        let rendezvous = Rendezvous::new();
        let outcome = std::panic::catch_unwind(|| {
            let _out: Vec<u64> = xs
                .par_iter()
                .map(|&x| {
                    // Only items on a pool worker panic, so the failure takes
                    // the worker path: caught there, re-raised on the caller.
                    assert!(rendezvous.arrive(), "task failure");
                    x
                })
                .collect();
        });
        let payload = outcome.expect_err("worker panic must surface to the caller");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
        assert_eq!(message, Some("a rayon shim worker task panicked"));
        // The pool must stay usable after a task panicked: the next map
        // reaches it, and a pool worker runs some of its items.
        let before = submitted();
        let rendezvous = Rendezvous::new();
        let on_caller: Vec<bool> = xs.par_iter().map(|_| rendezvous.arrive()).collect();
        assert!(
            submitted() > before,
            "a top-level map after a worker panic must reach the pool"
        );
        assert!(
            on_caller.contains(&false),
            "no pool worker ran an item after a worker panic"
        );
    }

    /// Pool tasks the calling thread has submitted so far.
    fn submitted() -> usize {
        super::SUBMITTED.get()
    }

    /// Holds every item of a map until the calling thread and a pool worker
    /// have each started one, so both kinds of share are non-empty whatever
    /// the scheduler does. (The caller always reaches an item: each helper
    /// holds at most one grain while it waits, and every map here has more
    /// grains than helpers.)
    struct Rendezvous {
        caller: ThreadId,
        started: Mutex<[bool; 2]>,
        both: Condvar,
    }

    impl Rendezvous {
        fn new() -> Rendezvous {
            Rendezvous {
                caller: current().id(),
                // A 1-core pool runs every map on the caller alone.
                started: Mutex::new([false, super::current_num_threads() == 1]),
                both: Condvar::new(),
            }
        }

        /// Marks this thread's side as started and waits for the other;
        /// returns whether this thread is the caller.
        fn arrive(&self) -> bool {
            let on_caller = current().id() == self.caller;
            let mut started = self.started.lock().unwrap();
            started[usize::from(!on_caller)] = true;
            self.both.notify_all();
            while !(started[0] && started[1]) {
                started = self.both.wait(started).unwrap();
            }
            on_caller
        }
    }

    /// Maps `outer` items, each running a nested map over `inner` items,
    /// and returns per outer item whether it ran on the caller and the
    /// threads its nested items ran on.
    fn nested_threads(outer: usize, inner: usize) -> Vec<(bool, Vec<ThreadId>)> {
        let rendezvous = Rendezvous::new();
        let xs: Vec<usize> = (0..outer).collect();
        let ys: Vec<usize> = (0..inner).collect();
        xs.par_iter()
            .map(|_| {
                let on_caller = rendezvous.arrive();
                let nested: Vec<ThreadId> = ys.par_iter().map(|_| current().id()).collect();
                (on_caller, nested)
            })
            .collect()
    }

    #[test]
    fn a_nested_fit_hands_off_one_task_per_helper() {
        // The bagged-forest shape: 25 estimators of 3 trees each. Only the
        // helpers of the outer map are handed to the pool; every nested map
        // runs where its item runs.
        let before = submitted();
        let runs = nested_threads(25, 3);
        let handed_off = submitted() - before;
        assert_eq!(runs.len(), 25);
        assert!(
            handed_off < super::current_num_threads(),
            "a 25x3 nested map handed {handed_off} tasks to a pool of {}",
            super::current_num_threads()
        );
    }

    #[test]
    fn nested_maps_in_the_callers_share_stay_on_the_caller() {
        let caller = current().id();
        let runs = nested_threads(16, 4);
        let callers_share: Vec<&Vec<ThreadId>> = runs
            .iter()
            .filter(|(on_caller, _)| *on_caller)
            .map(|(_, nested)| nested)
            .collect();
        assert!(!callers_share.is_empty());
        for nested in callers_share {
            assert!(
                nested.iter().all(|&id| id == caller),
                "a nested map in the caller's own share left the caller's thread"
            );
        }
    }

    #[test]
    fn a_panic_in_the_callers_share_leaves_the_next_map_parallel() {
        let xs: Vec<u64> = (0..32).collect();
        let rendezvous = Rendezvous::new();
        let outcome = std::panic::catch_unwind(|| {
            let _out: Vec<u64> = xs
                .par_iter()
                .map(|&x| {
                    // Only the caller's own items panic.
                    assert!(!rendezvous.arrive(), "caller share fails");
                    x
                })
                .collect();
        });
        assert!(outcome.is_err(), "the caller's panic must surface");
        assert!(
            !super::IS_POOL_WORKER.get(),
            "the caller still counts as a worker"
        );
        let before = submitted();
        let doubled: Vec<u64> = xs.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled[31], 62);
        if super::current_num_threads() > 1 {
            assert!(
                submitted() > before,
                "a top-level map after the panic must reach the pool"
            );
        }
    }
}
