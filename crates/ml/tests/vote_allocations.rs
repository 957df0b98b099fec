//! Heap allocations per vote batch, counted by a counting global allocator.
//!
//! Counts do not move with the host the way wall-clock times do, so this
//! binary pins a ceiling: after a warm-up, `malware_votes_batch` allocates
//! its output and nothing else on the calling thread, and a pooled batch
//! adds one vector per [`BLOCK`]-row tile plus a constant per pool thread.
//! A kernel that allocated per tile (say, its pair list) would double the
//! pooled count and fail. The counter is process-wide, so this binary holds
//! one test function: a second one running beside it would count into it.

use hmd_data::{Dataset, Label, Matrix};
use hmd_ml::bagging::{BaggingEnsemble, BaggingParams};
use hmd_ml::flat::BLOCK;
use hmd_ml::forest::{RandomForest, RandomForestParams};
use hmd_ml::tree::DecisionTreeParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Allocations (including zeroed allocations and reallocations) so far.
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

/// `System`, with every allocation counted.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// so `Counting` upholds exactly the guarantees `System` does. The only
// addition is a relaxed atomic increment, which neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's `layout` contract is passed on to `System` as is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: the caller's `layout` contract is passed on to `System` as is.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    // SAFETY: `ptr` came from this allocator, hence from `System`, with
    // `layout`; both are passed on to `System` as is.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: `ptr` came from this allocator, hence from `System`, with
    // `layout`; both are passed on to `System` as is.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations made meanwhile, on
/// any thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let result = f();
    (result, ALLOCATIONS.load(Ordering::SeqCst) - before)
}

/// `n` rows over `d` features, labelled by `signal` (a weak class shift)
/// or, without it, by coin flips, so trees grow until their leaves are pure.
fn dataset(n: usize, d: usize, signal: bool, rng: &mut StdRng) -> Dataset {
    let mut rows = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        let malware = rng.gen_bool(0.5);
        let shift = match (signal, malware) {
            (false, _) => 0.0,
            (true, true) => 0.5,
            (true, false) => -0.5,
        };
        rows.push((0..d).map(|_| shift + rng.gen_range(-1.0..1.0)).collect());
        labels.push(Label::from(malware));
    }
    Dataset::new(Matrix::from_rows(&rows).unwrap(), labels).unwrap()
}

fn ensemble(
    ds: &Dataset,
    groups: usize,
    trees: usize,
    max_depth: usize,
) -> BaggingEnsemble<RandomForest> {
    let forest = RandomForestParams::new()
        .with_num_trees(trees)
        .with_tree_params(DecisionTreeParams::new().with_max_depth(max_depth));
    BaggingParams::new(forest)
        .with_num_estimators(groups)
        .fit(ds, 7)
        .unwrap()
}

#[test]
fn vote_batches_allocate_their_output_and_one_vector_per_pool_tile() {
    let mut rng = StdRng::seed_from_u64(0xA110C);
    let d = 6;
    let deep = ensemble(&dataset(300, d, false, &mut rng), 25, 3, 20);
    let shallow = ensemble(&dataset(60, d, true, &mut rng), 5, 3, 4);
    let probes = Matrix::from_rows(
        &(0..4096)
            .map(|_| (0..d).map(|_| rng.gen_range(-1.5..1.5)).collect())
            .collect::<Vec<Vec<f64>>>(),
    )
    .unwrap();
    let threads = rayon::current_num_threads();
    let tiles = probes.rows().div_ceil(BLOCK);
    // Per pooled batch: the tile list, the result slots and the
    // concatenation; per pool thread: its hand-off, a channel block and the
    // first growth of its pair list.
    let ceiling = tiles + 3 + 3 * threads;

    for (name, ensemble, interleaves) in [("deep", &deep, true), ("shallow", &shallow, false)] {
        let flat = ensemble.flat().expect("forest ensembles compile");
        assert_eq!(flat.interleaves(), interleaves, "{name}");
        // Warm up the pool's threads and this thread's pair list.
        ensemble.malware_votes_batch(&probes);
        ensemble.malware_votes_batch(probes.rows_view(0..BLOCK));

        for rows in [1, 64, 255] {
            let (votes, allocations) =
                counted(|| ensemble.malware_votes_batch(probes.rows_view(0..rows)));
            assert_eq!(votes.len(), rows);
            assert_eq!(allocations, 1, "{name}, {rows} rows");
        }
        let (votes, allocations) = counted(|| ensemble.malware_votes_batch(&probes));
        assert_eq!(votes.len(), probes.rows());
        assert!(
            allocations <= ceiling,
            "{name}, {} rows: {allocations} allocations, ceiling {ceiling} ({tiles} tiles, {threads} threads)",
            probes.rows()
        );
    }
}
