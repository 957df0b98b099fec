//! Heap allocations per `load`, counted by a counting global allocator.
//!
//! `load` decodes a saved detector straight from its bytes, so restoring a
//! trusted random forest allocates per tree (its node vector growing, the
//! ensemble's flat records compiling), never per node or per object key.
//! This binary pins that ceiling: at most [`PER_TREE`] allocations per tree,
//! for small and for large trees alike (9.8 and 12.5 measured). A decoder
//! that built a `Json` tree first, or owned a `String` per key, would
//! allocate several times per node and fail, and so would one that compiled
//! every member forest's own flat form beside the ensemble's (17.7 and
//! 22.3).
//! The counter is process-wide, so this binary holds one test function: a
//! second one running beside it would count into it.

use hmd_codec::Json;
use hmd_core::detector::{load, save, DetectorBackend, DetectorConfig};
use hmd_data::{Dataset, Label, Matrix};
use hmd_ml::forest::RandomForestParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The committed ceiling: allocations per tree of a loaded forest.
const PER_TREE: usize = 13;

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

/// A saved trusted random forest fitted on `n` rows whose labels are coin
/// flips, so its trees grow until their leaves are pure: the more rows, the
/// more nodes per tree.
fn saved_forest(n: usize, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..4).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect();
    let labels = (0..n).map(|_| Label::from(rng.gen_bool(0.5))).collect();
    let train = Dataset::new(Matrix::from_rows(&rows).unwrap(), labels).unwrap();
    let forest = RandomForestParams::new().with_num_trees(4);
    let detector = DetectorConfig::trusted(DetectorBackend::RandomForest(forest))
        .with_num_estimators(5)
        .fit(&train, seed)
        .expect("training succeeds");
    save(detector.as_ref()).expect("persistable")
}

/// The node count of every tree in a saved trusted random forest.
fn tree_sizes(document: &str) -> Vec<usize> {
    let doc = Json::parse(document).expect("saved documents parse");
    let estimators = doc.get("model").and_then(|m| m.get("ensemble"));
    let forests = estimators.and_then(|e| e.get("estimators")?.as_array());
    let mut sizes = Vec::new();
    for forest in forests.expect("a trusted forest document") {
        for tree in forest.get("trees").and_then(Json::as_array).expect("trees") {
            let nodes = tree.get("nodes").and_then(Json::as_array).expect("nodes");
            sizes.push(nodes.len());
        }
    }
    sizes
}

#[test]
fn loading_a_forest_allocates_a_bounded_number_of_times_per_tree() {
    let mut per_tree = Vec::new();
    for (rows, seed) in [(200, 1), (1600, 2)] {
        let document = saved_forest(rows, seed);
        let sizes = tree_sizes(&document);
        let smallest = sizes.iter().copied().min().unwrap_or(0);
        assert!(
            smallest >= 30,
            "{rows} rows grew a tree of {smallest} nodes"
        );
        drop(load(&document).expect("loads"));
        let (detector, allocations) = counted(|| load(&document).expect("loads"));
        drop(detector);
        let nodes: usize = sizes.iter().sum();
        assert!(
            allocations <= PER_TREE * sizes.len(),
            "{allocations} allocations loading {} trees of {nodes} nodes",
            sizes.len()
        );
        per_tree.push((nodes / sizes.len(), allocations as f64 / sizes.len() as f64));
    }
    // The ceiling holds for small and large trees alike: the larger trees
    // are several times the size of the smaller ones.
    assert!(per_tree[1].0 >= 3 * per_tree[0].0, "{per_tree:?}");
}
