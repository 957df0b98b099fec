//! The presorted columnar training engine.
//!
//! This is the training-side analogue of the compiled [`crate::flat`]
//! inference engine. The reference CART grower
//! ([`crate::tree::DecisionTree::fit_reference`]) re-sorts the node's samples
//! for **every candidate feature at every node**, reading feature values
//! through cache-hostile row-major accesses and allocating a fresh index
//! vector per candidate; bagging and forests additionally materialise a full
//! copy of the dataset for every bootstrap replicate. This module replaces
//! all of that while growing **identical trees**:
//!
//! * **One sort per feature per dataset** — the parent matrix caches each
//!   feature's `f64::total_cmp`-sorted row order
//!   ([`hmd_data::Matrix::presorted_rows`]); every tree grown on the dataset
//!   — every bootstrap replicate of every estimator — derives its own
//!   per-feature row order from that shared sort with a **linear filter
//!   gather**. No per-tree sorting, no per-node sorting.
//! * **Weighted zero-copy bootstrap views** — a bootstrap replicate is a
//!   row **multiset**, and duplicate draws of a row are inseparable (equal
//!   values land on the same side of every split), so a replicate is stored
//!   as the unique parent rows it contains plus a weight per row. Replicates
//!   share the parent's caches, nothing is materialised, and every segment
//!   shrinks to the unique-row count (≈63% of the draw for a full
//!   bootstrap). The grown tree equals what fitting on
//!   `dataset.select(rows)` produces (`tests/fit_equivalence.rs`).
//! * **Partition, don't re-sort** — at each split, every feature's row
//!   array is stably partitioned in place, so both children are already
//!   sorted for every feature when the recursion descends. Partitions are
//!   skipped for windows no descendant will read: not at all when both
//!   children are certain leaves, one-sided when only one child can split.
//! * **Columnar reads** — split sweeps read feature values through the
//!   lazily built column-major cache ([`hmd_data::Matrix::columnar`]), one
//!   contiguous column per feature instead of striding across rows.
//!
//! # Why the trees are identical
//!
//! The reference grower stable-sorts each candidate feature per node, so a
//! node sweeps samples in `(value, sample position)` order; this engine
//! sweeps unique rows in `(value, row)` order with multiplicities folded
//! into the class counts. The two sweeps differ only **inside runs of equal
//! values** — duplicates of a row are equal by definition — and a sweep is
//! invariant to any regrouping within an equal-value run: candidates are
//! only emitted where the value strictly increases, and the left/right
//! class counts at those boundaries are sums over completed runs. Split
//! predicates (`value <= threshold`), midpoint thresholds, candidate
//! ordering (the per-node feature-subsampling RNG is consumed identically)
//! and leaf statistics are all preserved, so [`crate::tree::DecisionTree`]
//! equality holds node for node. (Feature values are assumed NaN-free, as
//! everywhere else in the workspace; both growers stay deterministic on NaN
//! but may then differ in degenerate splits.)

use crate::tree::{gini, DecisionTreeParams, Node};
use hmd_data::Dataset;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A zero-copy training-view specification: which sample multiset of the
/// parent dataset a tree trains on.
#[derive(Clone, Copy)]
pub(crate) enum View<'r> {
    /// The full dataset, weight 1 per row.
    Full,
    /// A row multiset drawn from the dataset (bootstrap shape).
    Rows(&'r [usize]),
    /// A row multiset drawn from another multiset: training sample `i` is
    /// parent row `outer[draw[i]]`. This is the bagged-forest shape — the
    /// per-tree bootstrap composed with the estimator replicate — kept
    /// symbolic so neither level is ever materialised.
    Composed {
        /// The estimator-level replicate (parent rows).
        outer: &'r [usize],
        /// The tree-level draw (indices into `outer`).
        draw: &'r [usize],
    },
}

impl View<'_> {
    /// Weighted sample count of the view over a dataset of `dataset_len`.
    pub(crate) fn len(&self, dataset_len: usize) -> usize {
        match self {
            View::Full => dataset_len,
            View::Rows(r) => r.len(),
            View::Composed { draw, .. } => draw.len(),
        }
    }
}

/// Grows the node vector of a decision tree over a training view.
///
/// The caller validates parameters and non-emptiness.
pub(crate) fn grow_tree(
    dataset: &Dataset,
    view: View<'_>,
    params: &DecisionTreeParams,
    seed: u64,
) -> Vec<Node> {
    BUFFERS.with(|cell| {
        let mut bufs = cell.borrow_mut();
        Presorted::new(dataset, view, params, seed, &mut bufs).run()
    })
}

thread_local! {
    /// Per-worker training buffers, reused across every tree a thread grows
    /// so ensemble fits pay no per-tree allocation or first-touch cost.
    static BUFFERS: std::cell::RefCell<FitBuffers> = std::cell::RefCell::new(FitBuffers::default());
}

/// The reusable buffers of one grower thread (see [`BUFFERS`]).
#[derive(Default)]
struct FitBuffers {
    /// Parent row → multiplicity in the current training view.
    weight: Vec<u32>,
    /// Parent row → packed class-weight word (see [`pack_wm`]).
    row_wm: Vec<u64>,
    /// `d` presorted row segments of length `unique`, partitioned in place.
    orders: Vec<u32>,
    /// Parent row → side of the current split (rewritten per split).
    goes_left: Vec<bool>,
    /// Partition buffer for the right-bound rows.
    scratch: Vec<u32>,
    /// Per-node feature-subsampling pool.
    feature_pool: Vec<usize>,
}

/// Winning split of one node, mirroring the reference `SplitCandidate`.
struct Split {
    feature: usize,
    threshold: f64,
    decrease: f64,
}

/// Per-tree state of the presorted grower.
///
/// `orders` holds one segment of `unique` parent-row indices per feature;
/// segment `f` stores the rows present in this training view sorted by
/// feature `f`. The recursion works on `[lo, hi)` windows that are valid for
/// every segment at once: a stable in-place partition at each split keeps
/// all segments aligned. Sample multiplicities live in `weight`, so all
/// class arithmetic matches the reference's per-sample sweep exactly.
struct Presorted<'a> {
    cols: hmd_data::ColumnarView<'a>,
    params: &'a DecisionTreeParams,
    rng: StdRng,
    nodes: Vec<Node>,
    /// Unique parent rows in the training view (segment length).
    unique: usize,
    /// Number of features.
    d: usize,
    /// The thread's reusable working buffers. `row_wm` packs each parent
    /// row's view multiplicity (low half) with the same multiplicity when
    /// the row is malware (high half), so one load yields both sweep
    /// accumulators.
    bufs: &'a mut FitBuffers,
    /// Weighted sample count of the whole view.
    total_samples: usize,
    /// Weighted malware count of the whole view.
    total_malware: usize,
}

/// Packs a row's view multiplicity and class into one word: weight in the
/// low 32 bits, weight-if-malware in the high 32 bits.
#[inline]
fn pack_wm(weight: u32, malware: bool) -> u64 {
    u64::from(weight) | ((u64::from(weight) << 32) * u64::from(malware))
}

impl<'a> Presorted<'a> {
    fn new(
        dataset: &'a Dataset,
        view: View<'_>,
        params: &'a DecisionTreeParams,
        seed: u64,
        bufs: &'a mut FitBuffers,
    ) -> Presorted<'a> {
        let parent_len = dataset.len();
        let d = dataset.num_features();
        let labels = dataset.labels();
        let cols = dataset.columnar();
        let presort = dataset.presorted_rows();

        bufs.weight.clear();
        let (unique, total_samples) = match view {
            View::Full => {
                bufs.weight.resize(parent_len, 1);
                (parent_len, parent_len)
            }
            View::Rows(r) => {
                bufs.weight.resize(parent_len, 0);
                for &row in r {
                    bufs.weight[row] += 1;
                }
                let unique = bufs.weight.iter().filter(|&&w| w > 0).count();
                (unique, r.len())
            }
            View::Composed { outer, draw } => {
                bufs.weight.resize(parent_len, 0);
                for &j in draw {
                    bufs.weight[outer[j]] += 1;
                }
                let unique = bufs.weight.iter().filter(|&&w| w > 0).count();
                (unique, draw.len())
            }
        };
        bufs.row_wm.clear();
        bufs.row_wm.extend(
            bufs.weight
                .iter()
                .zip(labels)
                .map(|(&w, l)| pack_wm(w, l.is_malware())),
        );
        let total_malware = bufs.row_wm.iter().map(|&wm| (wm >> 32) as usize).sum();

        // Derive this view's per-feature row orders from the dataset's
        // shared presort with a linear filter — O(parent rows) per feature
        // instead of a sort. The filter is branchless (write always, advance
        // the cursor by the presence flag): bootstrap presence is close to a
        // coin flip per row, which branchy filtering would mispredict. The
        // buffer only ever grows, so a thread's later trees overwrite it in
        // place with no fill pass; slots past `d * unique` are never read.
        // One pad slot takes each feature pass's final unconditional write:
        // it lands on the next segment's start (rewritten by that pass), and
        // the last pass's lands on the pad.
        let segments = d * unique;
        if bufs.orders.len() <= segments {
            bufs.orders.resize(segments + 1, 0);
        }
        let weight = &bufs.weight[..];
        for f in 0..d {
            let rows = presort.order(f);
            let seg = &mut bufs.orders[f * unique..=(f + 1) * unique];
            if unique == parent_len {
                seg[..unique].copy_from_slice(rows);
                continue;
            }
            let mut cursor = 0;
            for &row in rows {
                seg[cursor] = row;
                cursor += usize::from(weight[row as usize] > 0);
            }
            debug_assert_eq!(cursor, unique);
        }
        if bufs.goes_left.len() < parent_len {
            bufs.goes_left.resize(parent_len, false);
        }

        Presorted {
            cols,
            params,
            rng: StdRng::seed_from_u64(seed),
            nodes: Vec::new(),
            unique,
            d,
            bufs,
            total_samples,
            total_malware,
        }
    }

    fn run(mut self) -> Vec<Node> {
        let (samples, malware) = (self.total_samples, self.total_malware);
        self.grow(0, self.unique, 0, samples, malware);
        self.nodes
    }

    /// Grows the subtree over segment window `[lo, hi)` holding `samples`
    /// weighted samples of which `malware` are positive, returning its node
    /// index. Mirrors the reference grower decision for decision; the class
    /// counts flow down the recursion from the marking pass instead of being
    /// recounted per node.
    fn grow(
        &mut self,
        lo: usize,
        hi: usize,
        depth: usize,
        samples: usize,
        malware: usize,
    ) -> usize {
        let malware_fraction = malware as f64 / samples as f64;
        let node_impurity = gini(malware_fraction);

        let should_stop = depth >= self.params.max_depth
            || samples < self.params.min_samples_split
            || node_impurity == 0.0;

        if !should_stop {
            if let Some(split) = self.best_split(lo, hi, samples, malware, node_impurity) {
                let (unique_left, left_samples, left_malware) =
                    self.mark(lo, hi, split.feature, split.threshold);
                let mid = lo + unique_left;
                let right_samples = samples - left_samples;
                let right_malware = malware - left_malware;
                // The children's windows only need their row arrays when a
                // child will itself look for a split; when both children are
                // certain leaves (the common case at the tree fringe), the
                // class counts from the marking pass are all they need.
                let splittable = |child_samples: usize, child_malware: usize| {
                    depth + 1 < self.params.max_depth
                        && child_samples >= self.params.min_samples_split
                        && child_malware != 0
                        && child_malware != child_samples
                };
                let left_splits = splittable(left_samples, left_malware);
                let right_splits = splittable(right_samples, right_malware);
                if left_splits || right_splits {
                    self.partition(lo, hi, mid, left_splits, right_splits);
                }
                let placeholder = self.nodes.len();
                self.nodes.push(Node::Leaf {
                    malware_fraction,
                    samples,
                });
                let left = self.grow(lo, mid, depth + 1, left_samples, left_malware);
                let right = self.grow(mid, hi, depth + 1, right_samples, right_malware);
                self.nodes[placeholder] = Node::Split {
                    feature: split.feature,
                    threshold: split.threshold,
                    left,
                    right,
                };
                return placeholder;
            }
        }

        let index = self.nodes.len();
        self.nodes.push(Node::Leaf {
            malware_fraction,
            samples,
        });
        index
    }

    /// Sweeps the presorted segments of the subsampled candidate features.
    ///
    /// Consumes the feature-subsampling RNG exactly like the reference
    /// (`shuffle` + `truncate` per examined node) and applies the same
    /// candidate acceptance and tie-breaking rules, so the winning split is
    /// identical — without sorting anything.
    fn best_split(
        &mut self,
        lo: usize,
        hi: usize,
        total: usize,
        total_malware: usize,
        node_impurity: f64,
    ) -> Option<Split> {
        let k = self.params.max_features.resolve(self.d);
        self.bufs.feature_pool.clear();
        self.bufs.feature_pool.extend(0..self.d);
        let mut feature_pool = std::mem::take(&mut self.bufs.feature_pool);
        feature_pool.shuffle(&mut self.rng);
        feature_pool.truncate(k);

        let cols = self.cols;
        let unique = self.unique;
        let orders = &self.bufs.orders;
        let row_wm = &self.bufs.row_wm;
        let min_samples_leaf = self.params.min_samples_leaf;
        let min_impurity_decrease = self.params.min_impurity_decrease;
        let mut best: Option<Split> = None;
        // The current best's weighted-impurity numerator. A candidate whose
        // numerator is not below it cannot win (see the skip below), so its
        // division and comparison are never computed.
        let mut best_numerator = f64::INFINITY;
        for &feature in &feature_pool {
            let seg = &orders[feature * unique + lo..feature * unique + hi];
            let col = cols.col(feature);

            // A window whose last value does not exceed its first is all
            // ties (the segment ascends in total order): no boundary can
            // emit a candidate, so the sweep is skipped outright.
            let first = col[seg[0] as usize];
            if col[seg[seg.len() - 1] as usize] <= first {
                continue;
            }

            let mut left_count = 0usize;
            let mut left_malware = 0usize;
            // The segment is presorted, so the sweep reads each row id and
            // each value once, carrying both to the next step as the run
            // predecessor.
            let mut current = first;
            let mut prev_row = seg[0] as usize;
            for &next_ix in &seg[1..] {
                let wm = row_wm[prev_row];
                left_count += (wm & 0xffff_ffff) as usize;
                left_malware += (wm >> 32) as usize;
                let next_row = next_ix as usize;
                let value = current;
                let next = col[next_row];
                current = next;
                prev_row = next_row;
                if next <= value {
                    continue; // identical values cannot be separated here
                }
                let right_count = total - left_count;
                if left_count < min_samples_leaf || right_count < min_samples_leaf {
                    continue;
                }
                let right_malware = total_malware - left_malware;
                let left_impurity = gini(left_malware as f64 / left_count as f64);
                let right_impurity = gini(right_malware as f64 / right_count as f64);
                let numerator =
                    left_count as f64 * left_impurity + right_count as f64 * right_impurity;
                // Correctly rounded division by the positive `total` and
                // subtraction from `node_impurity` are both monotone, so a
                // numerator at or above the best's yields a decrease at or
                // below the best's: it can neither win the strict `>` below
                // nor matter to the `min_impurity_decrease` filter.
                if numerator >= best_numerator {
                    continue;
                }
                let decrease = node_impurity - numerator / total as f64;
                if decrease < min_impurity_decrease {
                    continue;
                }
                if best.as_ref().map(|b| decrease > b.decrease).unwrap_or(true) {
                    best_numerator = numerator;
                    best = Some(Split {
                        feature,
                        threshold: (value + next) / 2.0,
                        decrease,
                    });
                }
            }
        }
        self.bufs.feature_pool = feature_pool;
        best
    }

    /// Marks every row of `[lo, hi)` with its side of the split — the exact
    /// reference predicate `value <= threshold` — returning the left child's
    /// unique-row, weighted-sample and weighted-malware counts.
    fn mark(
        &mut self,
        lo: usize,
        hi: usize,
        feature: usize,
        threshold: f64,
    ) -> (usize, usize, usize) {
        let mut unique_left = 0usize;
        let mut left_samples = 0usize;
        let mut left_malware = 0usize;
        let seg = &self.bufs.orders[feature * self.unique + lo..feature * self.unique + hi];
        let col = self.cols.col(feature);
        for &row in seg {
            let r = row as usize;
            let left = col[r] <= threshold;
            self.bufs.goes_left[r] = left;
            if left {
                unique_left += 1;
                let wm = self.bufs.row_wm[r];
                left_samples += (wm & 0xffff_ffff) as usize;
                left_malware += (wm >> 32) as usize;
            }
        }
        (unique_left, left_samples, left_malware)
    }

    /// Stably partitions every feature segment of `[lo, hi)` around the
    /// sides marked by [`Presorted::mark`], writing the left block to
    /// `[lo, mid)` and the right block to `[mid, hi)`. Stability preserves
    /// each segment's sorted order, so the children are presorted without
    /// further work. A side whose child is a certain leaf is never read
    /// again, so it is skipped: only the splittable side's block is built.
    ///
    /// The loops run on slices split off the buffers up front, so the
    /// compiler keeps their bounds in registers instead of reloading every
    /// buffer through `self` after each store.
    fn partition(&mut self, lo: usize, hi: usize, mid: usize, keep_left: bool, keep_right: bool) {
        let FitBuffers {
            orders,
            goes_left,
            scratch,
            ..
        } = &mut *self.bufs;
        let goes_left = &goes_left[..];
        let left_len = mid - lo;
        scratch.resize(hi - lo, 0);
        let scratch = &mut scratch[..];
        for f in 0..self.d {
            let base = f * self.unique;
            let seg = &mut orders[base + lo..base + hi];
            match (keep_left, keep_right) {
                (true, true) => {
                    // Branchless in-place compaction: every row is written
                    // to both the left cursor (the cursor never passes the
                    // read position) and the right scratch buffer, exactly
                    // one cursor advances, and the scratch fills the tail.
                    let mut write = 0usize;
                    let mut right = 0usize;
                    for i in 0..seg.len() {
                        let row = seg[i];
                        let left = goes_left[row as usize];
                        seg[write] = row;
                        write += usize::from(left);
                        scratch[right] = row;
                        right += usize::from(!left);
                    }
                    seg[left_len..].copy_from_slice(&scratch[..right]);
                }
                (true, false) => {
                    // Only the left child keeps splitting: compact its rows
                    // to the front and leave the tail unordered.
                    let mut write = 0usize;
                    for i in 0..seg.len() {
                        let row = seg[i];
                        seg[write] = row;
                        write += usize::from(goes_left[row as usize]);
                    }
                }
                (false, true) => {
                    // Only the right child keeps splitting: collect its rows
                    // and write them as the tail block.
                    let mut right = 0usize;
                    for &row in seg.iter() {
                        scratch[right] = row;
                        right += usize::from(!goes_left[row as usize]);
                    }
                    seg[left_len..].copy_from_slice(&scratch[..right]);
                }
                // hmd-lint: allow(no-panic-in-lib) caller-enforced: partition_node is only invoked when at least one child keeps splitting, and returning Result here would thread dead error paths through the hot partition loop
                (false, false) => unreachable!("partition is skipped when no child splits"),
            }
        }
    }
}
