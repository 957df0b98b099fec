//! The compiled flat-node inference engine.
//!
//! Training grows [`crate::tree::DecisionTree`]s as vectors of tagged-enum
//! nodes — a layout that is convenient to build but hostile to serve: every
//! step of a traversal loads a 40-byte enum, branches on its discriminant and
//! chases children scattered across the allocation. This module compiles
//! fitted tree models into a packed form designed for the batch hot path:
//!
//! * Each split node is one 24-byte record — threshold, feature and both
//!   child indices — so a traversal step reads one contiguous record
//!   instead of four scattered arrays.
//! * Leaves are encoded as *tagged child indices* (high bit set), so the
//!   sequential walk has a single exit test and no enum discriminant
//!   branch. Leaf `i` also owns record `i`, ahead of the split records: its
//!   children both point back at itself, so a walk that steps past its leaf
//!   stays on it, and its threshold slot holds the leaf's malware fraction.
//!   A precompiled one-byte hard vote per leaf sits beside the records.
//!   Leaf and record numbers coincide, so no lookup adds an offset.
//! * Votes of forests too large for L1 are counted by a **block** kernel
//!   over a tile's `(row, group)` pairs, kept group-major so consecutive
//!   pairs walk the same tree. At each tree position, [`LANES`] pairs step
//!   in lockstep for the largest depth among their trees, with branch-free
//!   child selection and no leaf test. A walk down a deep tree is a chain
//!   of dependent loads that miss L1, and on overlapping classes its splits
//!   are ones the branch predictor cannot learn; several branch-free chains
//!   in flight let the core overlap those misses, and rows sharing a tree
//!   share its cache lines (the predicated, self-looping-leaf traversal of
//!   Asadi, Lin & de Vries, "Runtime Optimizations for Tree-based Machine
//!   Learning Models", TKDE 2014). Stepping a fixed depth is exact: a tree's
//!   depth, computed when it is compiled, bounds every root-to-leaf path,
//!   and the self-looping record holds a walk that arrived early. Forests
//!   whose nodes fit in L1 walk their trees one after another: a shallow
//!   walk there is cheaper than the pair bookkeeping, and the core's
//!   out-of-order window already overlaps consecutive walks.
//! * Batches are cut into [`BLOCK`]-row tiles that the worker pool spreads
//!   across cores; no step allocates per sample, and the block kernel's
//!   pair list is a per-thread buffer reused by every tile.
//!
//! [`FlatTree`] compiles a single decision tree; [`FlatForest`] compiles any
//! collection of trees partitioned into *voting groups* (one group per
//! ensemble member). A random forest is a flat forest whose groups are single
//! trees; a bagging ensemble of forests is a flat forest whose groups are
//! whole forests. Predictions are **bit-identical** to the nested walk: the
//! same `<=` split predicate, the same leaf fractions, the same integer vote
//! arithmetic (see `tests/flat_equivalence.rs`).

use crate::tree::{DecisionTree, Node};
use crate::Classifier;
use hmd_data::{Label, RowsView};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::hint::select_unpredictable;

/// High bit of a child index, tagging a leaf: `LEAF_BIT | i` names leaf
/// `i`, whose self-looping record is node `i`.
const LEAF_BIT: u32 = 1 << 31;

/// Tile width of the batch kernels: large batches are cut into blocks of this
/// many rows, the unit of work handed to the worker pool.
pub const BLOCK: usize = 64;

/// Tree walks the block kernel steps in lockstep: enough independent load
/// chains to cover an L2 hit, few enough that their cursors stay in
/// registers. Each lane walks one `(row, group)` pair's current tree for
/// the largest depth among the lanes' trees; no lane tests for its leaf,
/// because a leaf's record loops on itself, so the walks that arrive early
/// stay put until the deepest one lands.
pub const LANES: usize = 8;

/// Split-node count above which a forest's votes are counted by the
/// block kernel: the nodes no longer fit a 32 KiB L1 data cache.
const INTERLEAVE_MIN_NODES: usize = 32 * 1024 / std::mem::size_of::<SplitNode>();

/// Row count below which batch kernels stay on the calling thread; smaller
/// batches finish faster than a hand-off to the worker pool would take.
const PAR_MIN_ROWS: usize = 256;

/// One packed split node.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SplitNode {
    threshold: f64,
    feature: u32,
    /// Child reference (leaf-tagged or split) taken when
    /// `row[feature] <= threshold`.
    left: u32,
    /// Child reference taken otherwise, NaN included.
    right: u32,
}

impl SplitNode {
    /// Whether a sample goes left: the nested walk's predicate, so NaN and
    /// boundary inputs take identical paths.
    #[inline(always)]
    fn goes_left(&self, row: &[f64]) -> bool {
        row[self.feature as usize] <= self.threshold
    }

    /// The child one sample moves to, selected without a branch: splits of
    /// deep trees over overlapping classes defeat the predictor, and in the
    /// block kernel's lockstep one mispredicted split would flush every
    /// lane's walk.
    #[inline(always)]
    fn child(&self, row: &[f64]) -> u32 {
        select_unpredictable(self.goes_left(row), self.left, self.right)
    }
}

/// Incrementally builds a [`FlatForest`] from nested tree node storage.
///
/// Callers open a voting group with [`FlatForestBuilder::begin_group`], then
/// let each model append its trees via
/// [`crate::Classifier::append_flat_group`].
#[derive(Debug)]
pub struct FlatForestBuilder {
    nodes: Vec<SplitNode>,
    leaf_value: Vec<f64>,
    leaf_vote: Vec<u8>,
    roots: Vec<u32>,
    depths: Vec<u32>,
    group_starts: Vec<u32>,
    num_features: usize,
}

impl FlatForestBuilder {
    /// Starts an empty builder for models trained on `num_features` inputs.
    pub fn new(num_features: usize) -> FlatForestBuilder {
        FlatForestBuilder {
            nodes: Vec::new(),
            leaf_value: Vec::new(),
            leaf_vote: Vec::new(),
            roots: Vec::new(),
            depths: Vec::new(),
            group_starts: Vec::new(),
            num_features,
        }
    }

    /// Opens a new voting group; every tree appended until the next
    /// `begin_group` (or [`FlatForestBuilder::finish`]) votes as one member.
    pub fn begin_group(&mut self) {
        self.group_starts.push(self.roots.len() as u32);
    }

    /// Appends one nested tree to the current group.
    pub(crate) fn push_tree(&mut self, nodes: &[Node]) {
        assert!(
            !self.group_starts.is_empty(),
            "push_tree called before begin_group"
        );
        assert!(
            self.nodes.len() + self.leaf_value.len() + nodes.len() < LEAF_BIT as usize,
            "flat forest exceeds 2^31 nodes"
        );
        let split_base = self.nodes.len() as u32;
        let leaf_base = self.leaf_value.len() as u32;
        // First pass: assign flat indices in nested order (parent before
        // children, preorder), tagging leaves with the high bit. A split's
        // index counts split records only until `finish` puts the leaf
        // records ahead of them.
        let mut map = Vec::with_capacity(nodes.len());
        let mut splits = 0u32;
        let mut leaves = 0u32;
        for node in nodes {
            match node {
                Node::Split { .. } => {
                    map.push(split_base + splits);
                    splits += 1;
                }
                Node::Leaf { .. } => {
                    map.push((leaf_base + leaves) | LEAF_BIT);
                    leaves += 1;
                }
            }
        }
        // Second pass: emit the packed node records.
        for node in nodes {
            match node {
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => self.nodes.push(SplitNode {
                    threshold: *threshold,
                    feature: *feature as u32,
                    left: map[*left],
                    right: map[*right],
                }),
                Node::Leaf {
                    malware_fraction, ..
                } => {
                    self.leaf_value.push(*malware_fraction);
                    // The hard vote is precompiled so the vote kernel reads
                    // one byte instead of comparing an f64 per leaf.
                    self.leaf_vote.push(u8::from(*malware_fraction >= 0.5));
                }
            }
        }
        self.roots.push(map[0]);
        // Bounded by the node count, which the assert above keeps below 2^31.
        self.depths.push(crate::tree::depth_of(nodes) as u32);
    }

    /// Closes the builder into an immutable forest: puts one self-looping
    /// record per leaf ahead of the split records, so leaf `i` is record
    /// `i`, and moves every split reference past them.
    ///
    /// # Panics
    ///
    /// Panics when no group was opened or a group received no trees — both
    /// indicate a broken [`Classifier::append_flat_group`] implementation.
    pub fn finish(mut self) -> FlatForest {
        let mut group_offsets = self.group_starts;
        assert!(
            !group_offsets.is_empty(),
            "flat forest has no voting groups"
        );
        group_offsets.push(self.roots.len() as u32);
        for pair in group_offsets.windows(2) {
            assert!(pair[0] < pair[1], "flat forest voting group has no trees");
        }
        let leaves = self.leaf_value.len() as u32;
        let to_record = |child: u32| {
            if child & LEAF_BIT == 0 {
                child + leaves
            } else {
                child
            }
        };
        for node in &mut self.nodes {
            node.left = to_record(node.left);
            node.right = to_record(node.right);
        }
        // Both children of a leaf record are the record itself, so the split
        // predicate never matters and the threshold slot can carry the
        // fraction.
        let records = (0..)
            .zip(&self.leaf_value)
            .map(|(leaf, &fraction)| SplitNode {
                threshold: fraction,
                feature: 0,
                left: leaf | LEAF_BIT,
                right: leaf | LEAF_BIT,
            });
        self.nodes.reserve_exact(self.leaf_value.len());
        self.nodes.splice(0..0, records);
        FlatForest {
            nodes: self.nodes,
            leaf_vote: self.leaf_vote,
            roots: self.roots.into_iter().map(to_record).collect(),
            depths: self.depths,
            group_offsets,
            num_features: self.num_features,
        }
    }
}

/// A fitted ensemble of decision trees compiled into cache-dense packed
/// node storage, partitioned into voting groups.
///
/// Each group casts one hard vote per sample (the majority of its trees'
/// leaves); the malware probability of a sample is the fraction of groups
/// voting malware. Compiling a [`crate::forest::RandomForest`] produces one
/// single-tree group per tree — reproducing the forest's soft vote — while a
/// bagging ensemble compiles each base model into one group, reproducing the
/// ensemble's per-estimator hard votes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlatForest {
    /// One self-looping record per leaf, whose threshold is the leaf's
    /// malware fraction (leaf `i` owns record `i`), then every split record.
    nodes: Vec<SplitNode>,
    /// Precompiled hard vote (`fraction >= 0.5`) per leaf, so the vote
    /// kernels' footprint per leaf is one byte.
    leaf_vote: Vec<u8>,
    roots: Vec<u32>,
    /// Longest root-to-leaf path of each tree, parallel to `roots`: the
    /// number of steps the block kernel takes on it.
    depths: Vec<u32>,
    /// Prefix offsets into `roots`; group `g` owns `roots[offsets[g]..offsets[g+1]]`.
    group_offsets: Vec<u32>,
    num_features: usize,
}

/// The early-majority rule of one voting group of `size` trees after
/// `walked` of them left `malware` malware leaves: `Some(vote)` once the
/// exact integer form of `malware_trees / size >= 0.5` (a tie votes malware)
/// can no longer change, `None` while the unwalked trees could still swing
/// it. A 3-tree group is decided after two trees that agree.
#[inline(always)]
fn majority(malware: u32, walked: u32, size: u32) -> Option<bool> {
    if 2 * malware >= size {
        Some(true)
    } else if 2 * (malware + size - walked) < size {
        Some(false)
    } else {
        None
    }
}

/// One undecided `(row, group)` pair of a block-kernel tile.
#[derive(Debug, Clone, Copy)]
struct Pair {
    /// The row's index within the tile.
    row: u32,
    group: u32,
    /// Malware leaves among the group's walked trees.
    malware: u32,
}

thread_local! {
    /// The block kernel's pair list: one per thread, reused by every tile
    /// the thread scores, so a tile allocates nothing once the buffer has
    /// grown to a full tile.
    static PAIRS: RefCell<Vec<Pair>> = const { RefCell::new(Vec::new()) };
}

impl FlatForest {
    /// Number of voting groups (ensemble members).
    pub fn num_groups(&self) -> usize {
        self.group_offsets.len() - 1
    }

    /// Total number of compiled trees across all groups.
    pub fn num_trees(&self) -> usize {
        self.roots.len()
    }

    /// Total number of packed split nodes (leaf records not included).
    pub fn num_split_nodes(&self) -> usize {
        self.nodes.len() - self.leaf_vote.len()
    }

    /// Number of input features the compiled models expect.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Whether votes are counted by the block kernel: the split nodes
    /// outgrow L1. Smaller forests walk their trees one after another.
    pub fn interleaves(&self) -> bool {
        self.num_split_nodes() > INTERLEAVE_MIN_NODES
    }

    /// Walks one tree (identified by its possibly leaf-tagged root reference)
    /// down to its leaf index for one sample; the walk stops on the tag
    /// instead of stepping into the leaf's record. Unrolled by two levels,
    /// which halves the loop's back edges on the short walks this path
    /// serves.
    #[inline]
    fn leaf_index_of(&self, root: u32, row: &[f64]) -> usize {
        let mut index = root;
        while index & LEAF_BIT == 0 {
            index = self.nodes[index as usize].child(row);
            if index & LEAF_BIT != 0 {
                break;
            }
            index = self.nodes[index as usize].child(row);
        }
        (index & !LEAF_BIT) as usize
    }

    /// Walks one tree down to its leaf fraction for one sample.
    #[inline]
    fn leaf_of(&self, root: u32, row: &[f64]) -> f64 {
        self.nodes[self.leaf_index_of(root, row)].threshold
    }

    /// Malware group-vote count for a single sample.
    ///
    /// A group votes malware when at least half its trees reach a malware
    /// leaf. Every group walks its trees in order and stops as soon as its
    /// majority is decided, whichever kernel [`FlatForest::interleaves`]
    /// picks: both walk exactly the same trees and count the same integer,
    /// and differ only in how the walks overlap.
    #[inline]
    pub fn group_votes_one(&self, row: &[f64]) -> usize {
        if self.interleaves() {
            let mut votes = [0];
            self.block_votes(RowsView::single(row), &mut votes);
            votes[0] as usize
        } else {
            self.sequential_votes(row)
        }
    }

    /// One group after another, one tree after another.
    fn sequential_votes(&self, row: &[f64]) -> usize {
        let mut votes = 0;
        for group in self.group_offsets.windows(2) {
            let (first, end) = (group[0] as usize, group[1] as usize);
            let size = (end - first) as u32;
            let mut malware = 0;
            for (walked, &root) in (1..).zip(&self.roots[first..end]) {
                malware += u32::from(self.leaf_vote[self.leaf_index_of(root, row)]);
                if let Some(vote) = majority(malware, walked, size) {
                    votes += usize::from(vote);
                    break;
                }
            }
        }
        votes
    }

    /// The block kernel: adds the malware group votes of every row of
    /// `tile` (at most [`BLOCK`] rows) to `votes`.
    ///
    /// The tile's undecided `(row, group)` pairs are kept group-major. At
    /// tree position `p`, [`LANES`] pairs at a time walk the `p`-th tree of
    /// their group, stepping in lockstep for the largest depth among those
    /// trees; then each pair adds its leaf's vote and applies [`majority`],
    /// and the undecided pairs stay, in order, for position `p + 1`. So
    /// every pair walks exactly the trees the sequential walk does.
    fn block_votes(&self, tile: RowsView<'_>, votes: &mut [u32]) {
        PAIRS.with_borrow_mut(|pairs| {
            pairs.clear();
            pairs.reserve(tile.rows() * self.num_groups());
            for group in 0..self.num_groups() as u32 {
                pairs.extend((0..tile.rows() as u32).map(|row| Pair {
                    row,
                    group,
                    malware: 0,
                }));
            }
            let mut position = 0;
            while !pairs.is_empty() {
                let mut kept = 0;
                for start in (0..pairs.len()).step_by(LANES) {
                    let live = LANES.min(pairs.len() - start);
                    let mut cursor = [0u32; LANES];
                    let mut rows: [&[f64]; LANES] = [&[]; LANES];
                    let mut depth = 0;
                    for (lane, (cursor, row)) in cursor.iter_mut().zip(&mut rows).enumerate() {
                        // Idle lanes of a short chunk repeat its last pair.
                        let pair = pairs[start + lane.min(live - 1)];
                        let tree = (self.group_offsets[pair.group as usize] + position) as usize;
                        *cursor = self.roots[tree];
                        *row = tile.row(pair.row as usize);
                        depth = depth.max(self.depths[tree]);
                    }
                    for _ in 0..depth {
                        for (cursor, row) in cursor.iter_mut().zip(&rows) {
                            *cursor = self.nodes[(*cursor & !LEAF_BIT) as usize].child(row);
                        }
                    }
                    for (lane, &leaf) in cursor[..live].iter().enumerate() {
                        let mut pair = pairs[start + lane];
                        pair.malware += u32::from(self.leaf_vote[(leaf & !LEAF_BIT) as usize]);
                        let group = pair.group as usize;
                        let size = self.group_offsets[group + 1] - self.group_offsets[group];
                        match majority(pair.malware, position + 1, size) {
                            Some(vote) => votes[pair.row as usize] += u32::from(vote),
                            None => {
                                pairs[kept] = pair;
                                kept += 1;
                            }
                        }
                    }
                }
                pairs.truncate(kept);
                position += 1;
            }
        });
    }

    /// Malware group-vote counts for every row of a borrowed batch view.
    ///
    /// Small batches run on the calling thread; larger ones are tiled into
    /// [`BLOCK`]-row blocks and spread across the persistent worker pool.
    /// Because the kernel operates on views, callers can score any row range
    /// of an existing matrix without assembling a copy first.
    pub fn group_votes_batch(&self, batch: RowsView<'_>) -> Vec<u32> {
        let votes_of = |rows: RowsView<'_>| -> Vec<u32> {
            if !self.interleaves() {
                return rows
                    .iter_rows()
                    .map(|row| self.sequential_votes(row) as u32)
                    .collect();
            }
            let mut votes = vec![0; rows.rows()];
            for (block, tile) in votes.chunks_mut(BLOCK).enumerate() {
                let start = block * BLOCK;
                self.block_votes(rows.rows_view(start..start + tile.len()), tile);
            }
            votes
        };
        let rows = batch.rows();
        if rows < PAR_MIN_ROWS || rayon::current_num_threads() == 1 {
            return votes_of(batch);
        }
        let blocks: Vec<usize> = (0..rows).step_by(BLOCK).collect();
        let tiles: Vec<Vec<u32>> = blocks
            .par_iter()
            .map(|&start| votes_of(batch.rows_view(start..(start + BLOCK).min(rows))))
            .collect();
        tiles.concat()
    }
}

impl Classifier for FlatForest {
    fn predict_one(&self, features: &[f64]) -> Label {
        Label::from(self.predict_proba_one(features) >= 0.5)
    }

    fn predict_proba_one(&self, features: &[f64]) -> f64 {
        self.group_votes_one(features) as f64 / self.num_groups() as f64
    }

    fn predict_with_proba_one(&self, features: &[f64]) -> (Label, f64) {
        let p = self.predict_proba_one(features);
        (Label::from(p >= 0.5), p)
    }

    fn predict_proba_batch(&self, batch: RowsView<'_>, out: &mut Vec<f64>) {
        let groups = self.num_groups() as f64;
        out.clear();
        out.extend(
            self.group_votes_batch(batch)
                .into_iter()
                .map(|votes| votes as f64 / groups),
        );
    }

    fn predict_with_proba_batch(&self, batch: RowsView<'_>, out: &mut Vec<(Label, f64)>) {
        let groups = self.num_groups() as f64;
        out.clear();
        out.extend(self.group_votes_batch(batch).into_iter().map(|votes| {
            let p = votes as f64 / groups;
            (Label::from(p >= 0.5), p)
        }));
    }

    fn input_width(&self) -> Option<usize> {
        Some(self.num_features)
    }
}

/// A single fitted decision tree compiled into flat node storage.
///
/// Unlike [`FlatForest`] — whose probability is a vote fraction — a flat
/// tree's probability is the raw malware fraction of the reached leaf,
/// mirroring [`crate::tree::DecisionTree`] exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlatTree {
    forest: FlatForest,
}

impl FlatTree {
    pub(crate) fn from_nodes(nodes: &[Node], num_features: usize) -> FlatTree {
        let mut builder = FlatForestBuilder::new(num_features);
        builder.begin_group();
        builder.push_tree(nodes);
        FlatTree {
            forest: builder.finish(),
        }
    }

    /// Number of split nodes in the packed arrays.
    pub fn num_split_nodes(&self) -> usize {
        self.forest.num_split_nodes()
    }

    /// Number of input features the compiled tree expects.
    pub fn num_features(&self) -> usize {
        self.forest.num_features()
    }

    /// Malware fraction of the leaf reached by one sample.
    #[inline]
    pub fn leaf_value(&self, row: &[f64]) -> f64 {
        self.forest.leaf_of(self.forest.roots[0], row)
    }

    /// Leaf fractions for every row of a borrowed batch view, tiled over the
    /// packed arrays.
    pub fn leaf_values_batch(&self, batch: RowsView<'_>, out: &mut Vec<f64>) {
        let root = self.forest.roots[0];
        out.clear();
        out.extend(batch.iter_rows().map(|row| self.forest.leaf_of(root, row)));
    }
}

impl From<&DecisionTree> for FlatTree {
    fn from(tree: &DecisionTree) -> FlatTree {
        tree.compile()
    }
}

impl Classifier for FlatTree {
    fn predict_one(&self, features: &[f64]) -> Label {
        Label::from(self.leaf_value(features) >= 0.5)
    }

    fn predict_proba_one(&self, features: &[f64]) -> f64 {
        self.leaf_value(features)
    }

    fn predict_with_proba_one(&self, features: &[f64]) -> (Label, f64) {
        let p = self.leaf_value(features);
        (Label::from(p >= 0.5), p)
    }

    fn predict_proba_batch(&self, batch: RowsView<'_>, out: &mut Vec<f64>) {
        self.leaf_values_batch(batch, out);
    }

    fn predict_with_proba_batch(&self, batch: RowsView<'_>, out: &mut Vec<(Label, f64)>) {
        let mut probas = Vec::new();
        self.leaf_values_batch(batch, &mut probas);
        out.clear();
        out.extend(probas.into_iter().map(|p| (Label::from(p >= 0.5), p)));
    }

    fn input_width(&self) -> Option<usize> {
        Some(self.forest.num_features)
    }
}

/// Compiles a slice of tree-based ensemble members into one flat forest with
/// one voting group per member. Returns `None` when any member is not
/// tree-based (e.g. logistic regression) or does not report its input width.
pub fn compile_groups<M: Classifier>(members: &[M]) -> Option<FlatForest> {
    let width = members.first()?.input_width()?;
    let mut builder = FlatForestBuilder::new(width);
    for member in members {
        builder.begin_group();
        if !member.append_flat_group(&mut builder) {
            return None;
        }
    }
    Some(builder.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::DecisionTreeParams;
    use crate::Estimator;
    use hmd_data::{Dataset, Matrix};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_dataset(n: usize, d: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n {
            let malware = rng.gen_bool(0.5);
            let c = if malware { 0.7 } else { 0.3 };
            rows.push((0..d).map(|_| c + rng.gen_range(-0.5..0.5)).collect());
            labels.push(Label::from(malware));
        }
        Dataset::new(Matrix::from_rows(&rows).unwrap(), labels).unwrap()
    }

    /// The compile invariants: every leaf record loops on itself, every
    /// tree's stored depth is its nested depth, and the split count leaves
    /// the leaf records out (a fitted tree has one more leaf than splits).
    fn assert_compiled(flat: &FlatForest, trees: &[DecisionTree]) {
        let splits = flat.num_split_nodes();
        let nodes: usize = trees.iter().map(DecisionTree::num_nodes).sum();
        assert_eq!(splits, (nodes - trees.len()) / 2);
        assert_eq!(flat.nodes.len(), nodes);
        for (record, node) in flat.nodes.iter().enumerate().take(nodes - splits) {
            let tag = record as u32 | LEAF_BIT;
            assert_eq!((node.left, node.right), (tag, tag), "record {record}");
        }
        let depths: Vec<u32> = trees.iter().map(|t| t.depth() as u32).collect();
        assert_eq!(flat.depths, depths);
    }

    #[test]
    fn flat_tree_matches_nested_walk() {
        let ds = random_dataset(120, 5, 1);
        let tree = DecisionTreeParams::new().fit(&ds, 2).unwrap();
        let flat = tree.compile();
        assert_compiled(&flat.forest, std::slice::from_ref(&tree));
        for row in ds.features().iter_rows() {
            assert_eq!(flat.leaf_value(row).to_bits(), {
                // The nested reference: DecisionTree's own leaf walk.
                crate::Classifier::predict_proba_one(&tree, row).to_bits()
            });
        }
    }

    #[test]
    fn single_leaf_tree_compiles() {
        let ds = random_dataset(30, 2, 3);
        let stump = DecisionTreeParams::new()
            .with_max_depth(0)
            .fit(&ds, 0)
            .unwrap();
        let flat = stump.compile();
        assert_eq!(flat.num_split_nodes(), 0);
        assert_compiled(&flat.forest, std::slice::from_ref(&stump));
        let p = flat.leaf_value(&[0.0, 0.0]);
        assert_eq!(
            p.to_bits(),
            crate::Classifier::predict_proba_one(&stump, &[0.0, 0.0]).to_bits()
        );
    }

    #[test]
    fn batch_kernel_matches_single_row_kernel_across_block_boundaries() {
        let ds = random_dataset(BLOCK * 3 + 17, 4, 4);
        let trees: Vec<DecisionTree> = (0..5)
            .map(|i| DecisionTreeParams::new().fit(&ds, i).unwrap())
            .collect();
        let flat = compile_groups(&trees).expect("trees compile");
        assert_eq!(flat.num_groups(), 5);
        assert_compiled(&flat, &trees);
        let batch = flat.group_votes_batch(ds.features().view());
        for (row, &votes) in ds.features().iter_rows().zip(&batch) {
            assert_eq!(flat.group_votes_one(row), votes as usize);
        }
    }

    #[test]
    fn block_and_sequential_kernels_count_the_same_votes() {
        // Small forests, with both kernels called directly whichever one
        // `interleaves` picks: group counts around one and two full sets of
        // lanes, 1-4 trees per group, rows with NaN and infinities, and
        // tiles of 1, 3, 8, 9 and 40 rows, so lane chunks end full, short
        // and across groups.
        let ds = random_dataset(90, 3, 11);
        let mut rng = StdRng::seed_from_u64(12);
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| match i % 8 {
                0 => vec![f64::NAN, 0.5, f64::INFINITY],
                1 => vec![f64::NEG_INFINITY, f64::NAN, 0.2],
                _ => (0..3).map(|_| rng.gen_range(-0.5..1.5)).collect(),
            })
            .collect();
        let rows = Matrix::from_rows(&rows).unwrap();
        for groups in [1, 2, 7, 8, 9, 16, 17] {
            for trees in 1..=4u64 {
                let mut builder = FlatForestBuilder::new(3);
                let mut fitted = Vec::new();
                for g in 0..groups {
                    builder.begin_group();
                    for t in 0..trees {
                        // One random feature per split, so trees of a
                        // group disagree and groups decide at varied depths.
                        let tree = DecisionTreeParams::new()
                            .with_max_features(crate::tree::MaxFeatures::Exact(1))
                            .fit(&ds, g * 10 + t)
                            .unwrap();
                        tree.append_flat_group(&mut builder);
                        fitted.push(tree);
                    }
                }
                let flat = builder.finish();
                assert_compiled(&flat, &fitted);
                for tile in [1, 3, 8, 9, 40] {
                    let mut votes = vec![0; tile];
                    flat.block_votes(rows.rows_view(0..tile), &mut votes);
                    for (row, &votes) in rows.iter_rows().zip(&votes) {
                        assert_eq!(
                            votes as usize,
                            flat.sequential_votes(row),
                            "{groups} groups of {trees} trees, {tile} rows"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn group_votes_never_exceed_group_count() {
        let ds = random_dataset(40, 3, 7);
        let trees: Vec<DecisionTree> = (0..7)
            .map(|i| DecisionTreeParams::new().fit(&ds, i).unwrap())
            .collect();
        let flat = compile_groups(&trees).unwrap();
        for votes in flat.group_votes_batch(ds.features().view()) {
            assert!(votes as usize <= flat.num_groups());
        }
    }

    #[test]
    fn non_tree_members_do_not_compile() {
        use crate::logistic::LogisticRegressionParams;
        let ds = random_dataset(40, 2, 9);
        let models: Vec<_> = (0..3)
            .map(|i| {
                LogisticRegressionParams::new()
                    .with_epochs(10)
                    .fit(&ds, i)
                    .unwrap()
            })
            .collect();
        assert!(compile_groups(&models).is_none());
    }
}
