//! CART decision trees.
//!
//! Binary trees with axis-aligned splits on continuous features, grown by
//! greedily minimising Gini impurity. Feature subsampling at every node
//! (`max_features`) turns the tree into the randomised base learner used by
//! [`crate::forest::RandomForest`].

use crate::{Classifier, Estimator, MlError, ModelTag};
use hmd_codec::{required, CodecError, Json, JsonCodec, Parser};
use hmd_data::{Dataset, Label};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Strategy for choosing how many features to examine at each split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MaxFeatures {
    /// Examine every feature (classic CART).
    All,
    /// Examine `ceil(sqrt(d))` randomly chosen features (random-forest style).
    Sqrt,
    /// Examine exactly this many randomly chosen features.
    Exact(usize),
}

impl MaxFeatures {
    pub(crate) fn resolve(self, num_features: usize) -> usize {
        match self {
            MaxFeatures::All => num_features,
            MaxFeatures::Sqrt => (num_features as f64).sqrt().ceil() as usize,
            MaxFeatures::Exact(k) => k.clamp(1, num_features),
        }
        .max(1)
        .min(num_features)
    }
}

/// Hyper-parameters of a [`DecisionTree`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTreeParams {
    /// Maximum tree depth (root has depth 0).
    pub max_depth: usize,
    /// Minimum number of samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum number of samples allowed in a leaf.
    pub min_samples_leaf: usize,
    /// How many features to examine at each split.
    pub max_features: MaxFeatures,
    /// Minimum impurity decrease required to accept a split.
    pub min_impurity_decrease: f64,
}

impl DecisionTreeParams {
    /// Creates parameters with the defaults used throughout the workspace
    /// (depth 12, split ≥ 2 samples, leaves ≥ 1 sample, all features).
    pub fn new() -> DecisionTreeParams {
        DecisionTreeParams {
            max_depth: 12,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: MaxFeatures::All,
            min_impurity_decrease: 1e-7,
        }
    }

    /// Sets the maximum depth.
    pub fn with_max_depth(mut self, depth: usize) -> Self {
        self.max_depth = depth;
        self
    }

    /// Sets the minimum number of samples required to split a node.
    pub fn with_min_samples_split(mut self, n: usize) -> Self {
        self.min_samples_split = n;
        self
    }

    /// Sets the minimum number of samples required in a leaf.
    pub fn with_min_samples_leaf(mut self, n: usize) -> Self {
        self.min_samples_leaf = n;
        self
    }

    /// Sets the per-split feature subsampling strategy.
    pub fn with_max_features(mut self, mf: MaxFeatures) -> Self {
        self.max_features = mf;
        self
    }

    fn validate(&self) -> Result<(), MlError> {
        if self.min_samples_split < 2 {
            return Err(MlError::InvalidHyperparameter {
                name: "min_samples_split",
                message: format!("must be at least 2, got {}", self.min_samples_split),
            });
        }
        if self.min_samples_leaf == 0 {
            return Err(MlError::InvalidHyperparameter {
                name: "min_samples_leaf",
                message: "must be at least 1".into(),
            });
        }
        Ok(())
    }
}

impl Default for DecisionTreeParams {
    fn default() -> Self {
        DecisionTreeParams::new()
    }
}

impl JsonCodec for MaxFeatures {
    fn to_json(&self) -> Json {
        match self {
            MaxFeatures::All => Json::Str("all".to_string()),
            MaxFeatures::Sqrt => Json::Str("sqrt".to_string()),
            MaxFeatures::Exact(k) => k.to_json(),
        }
    }

    fn decode(parser: &mut Parser<'_>) -> Result<MaxFeatures, CodecError> {
        match parser.value()? {
            Json::Str(s) if s == "all" => Ok(MaxFeatures::All),
            Json::Str(s) if s == "sqrt" => Ok(MaxFeatures::Sqrt),
            json @ Json::Int(_) => json.as_usize().map(MaxFeatures::Exact),
            other => Err(CodecError::new(format!(
                "expected max_features, found {other}"
            ))),
        }
    }
}

impl JsonCodec for DecisionTreeParams {
    fn to_json(&self) -> Json {
        Json::object(vec![
            ("max_depth", self.max_depth.to_json()),
            ("min_samples_split", self.min_samples_split.to_json()),
            ("min_samples_leaf", self.min_samples_leaf.to_json()),
            ("max_features", self.max_features.to_json()),
            (
                "min_impurity_decrease",
                self.min_impurity_decrease.to_json(),
            ),
        ])
    }

    fn decode(parser: &mut Parser<'_>) -> Result<DecisionTreeParams, CodecError> {
        let (mut max_depth, mut min_samples_split, mut min_samples_leaf) = (None, None, None);
        let (mut max_features, mut min_impurity_decrease) = (None, None);
        parser.object(
            [
                "max_depth",
                "min_samples_split",
                "min_samples_leaf",
                "max_features",
                "min_impurity_decrease",
            ],
            |parser, key| {
                match key {
                    0 => max_depth = Some(parser.usize()?),
                    1 => min_samples_split = Some(parser.usize()?),
                    2 => min_samples_leaf = Some(parser.usize()?),
                    3 => max_features = Some(MaxFeatures::decode(parser)?),
                    _ => min_impurity_decrease = Some(parser.f64()?),
                }
                Ok(())
            },
        )?;
        Ok(DecisionTreeParams {
            max_depth: required(max_depth, "max_depth")?,
            min_samples_split: required(min_samples_split, "min_samples_split")?,
            min_samples_leaf: required(min_samples_leaf, "min_samples_leaf")?,
            max_features: required(max_features, "max_features")?,
            min_impurity_decrease: required(min_impurity_decrease, "min_impurity_decrease")?,
        })
    }
}

impl Estimator for DecisionTreeParams {
    type Model = DecisionTree;

    fn fit(&self, dataset: &Dataset, seed: u64) -> Result<DecisionTree, MlError> {
        DecisionTree::fit(dataset, self, seed)
    }

    fn fit_resampled(
        &self,
        dataset: &Dataset,
        rows: &[usize],
        seed: u64,
    ) -> Result<DecisionTree, MlError> {
        DecisionTree::fit_view(dataset, crate::fastfit::View::Rows(rows), self, seed)
    }

    fn fit_reference(&self, dataset: &Dataset, seed: u64) -> Result<DecisionTree, MlError> {
        DecisionTree::fit_reference(dataset, self, seed)
    }

    fn name(&self) -> &'static str {
        "decision-tree"
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum Node {
    Leaf {
        /// Fraction of malware samples that reached this leaf.
        malware_fraction: f64,
        samples: usize,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// Length of the longest root-to-leaf path of a node vector rooted at index
/// 0 (a single leaf has depth 0).
///
/// One reverse pass, linear in the node count: every child index is greater
/// than its parent's (the grower's layout, and a `decode` check), so each
/// node's children are final before the node itself is reached. A document
/// may share a child between both branches; a recursive walk would visit it
/// once per path, which doubles with every shared level.
pub(crate) fn depth_of(nodes: &[Node]) -> usize {
    let mut depths = vec![0usize; nodes.len()];
    for (i, node) in nodes.iter().enumerate().rev() {
        if let Node::Split { left, right, .. } = node {
            depths[i] = 1 + depths[*left].max(depths[*right]);
        }
    }
    depths[0]
}

/// A trained CART decision tree.
///
/// # Example
///
/// ```
/// use hmd_data::{Dataset, Label, Matrix};
/// use hmd_ml::tree::DecisionTreeParams;
/// use hmd_ml::{Classifier, Estimator};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let x = Matrix::from_rows(&[vec![0.0], vec![0.1], vec![0.9], vec![1.0]])?;
/// let y = vec![Label::Benign, Label::Benign, Label::Malware, Label::Malware];
/// let tree = DecisionTreeParams::new().fit(&Dataset::new(x, y)?, 0)?;
/// assert_eq!(tree.predict_one(&[0.95]), Label::Malware);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    num_features: usize,
}

struct TreeBuilder<'a> {
    dataset: &'a Dataset,
    params: &'a DecisionTreeParams,
    rng: StdRng,
    nodes: Vec<Node>,
}

impl DecisionTree {
    /// Fits a tree on the dataset with the given parameters.
    ///
    /// Training runs on the presorted columnar engine ([`crate::fastfit`]):
    /// each feature is sorted once per tree and the sorted index arrays are
    /// partitioned down the tree, with feature values read through the
    /// dataset's lazily built column-major cache. The grown tree is
    /// bit-identical — structure, thresholds, leaf fractions — to the
    /// retained per-node-sorting reference fitter
    /// ([`DecisionTree::fit_reference`]), which `tests/fit_equivalence.rs`
    /// enforces.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidHyperparameter`] for invalid parameters and
    /// [`MlError::TrainingFailed`] when the dataset is unusable.
    pub fn fit(
        dataset: &Dataset,
        params: &DecisionTreeParams,
        seed: u64,
    ) -> Result<DecisionTree, MlError> {
        DecisionTree::fit_view(dataset, crate::fastfit::View::Full, params, seed)
    }

    /// Fits a tree on a zero-copy view of `dataset` (see
    /// [`crate::fastfit::View`]): bootstrap replicates — even replicates of
    /// replicates, the bagged-forest shape — train without materialising a
    /// copy. Produces exactly the tree fitting on the selected rows would.
    pub(crate) fn fit_view(
        dataset: &Dataset,
        view: crate::fastfit::View<'_>,
        params: &DecisionTreeParams,
        seed: u64,
    ) -> Result<DecisionTree, MlError> {
        params.validate()?;
        if view.len(dataset.len()) == 0 {
            return Err(MlError::TrainingFailed {
                message: "cannot fit a tree on an empty dataset".into(),
            });
        }
        Ok(DecisionTree {
            nodes: crate::fastfit::grow_tree(dataset, view, params, seed),
            num_features: dataset.num_features(),
        })
    }

    /// The pre-optimisation recursive fitter: sorts the node's samples for
    /// every candidate feature at every node, reading features row-major.
    ///
    /// Retained as the reference path the presorted columnar engine is
    /// proven against (`tests/fit_equivalence.rs`); everything else should
    /// call [`DecisionTree::fit`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`DecisionTree::fit`].
    pub fn fit_reference(
        dataset: &Dataset,
        params: &DecisionTreeParams,
        seed: u64,
    ) -> Result<DecisionTree, MlError> {
        params.validate()?;
        if dataset.is_empty() {
            return Err(MlError::TrainingFailed {
                message: "cannot fit a tree on an empty dataset".into(),
            });
        }
        let mut builder = TreeBuilder {
            dataset,
            params,
            rng: StdRng::seed_from_u64(seed),
            nodes: Vec::new(),
        };
        let all: Vec<usize> = (0..dataset.len()).collect();
        builder.grow(&all, 0);
        Ok(DecisionTree {
            nodes: builder.nodes,
            num_features: dataset.num_features(),
        })
    }

    /// Number of nodes in the tree.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Depth of the tree (a single leaf has depth 0).
    pub fn depth(&self) -> usize {
        depth_of(&self.nodes)
    }

    /// Number of features the tree was trained on.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Compiles the fitted tree into the cache-packed flat-node form used by
    /// the batch inference engine (see [`crate::flat`]). The compiled tree
    /// predicts bit-identically to the nested walk.
    pub fn compile(&self) -> crate::flat::FlatTree {
        crate::flat::FlatTree::from_nodes(&self.nodes, self.num_features)
    }

    fn leaf_for(&self, features: &[f64]) -> (f64, usize) {
        let mut index = 0;
        loop {
            match &self.nodes[index] {
                Node::Leaf {
                    malware_fraction,
                    samples,
                } => return (*malware_fraction, *samples),
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    index = if features[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }
}

impl ModelTag for DecisionTree {
    const TAG: &'static str = "decision-tree";
}

impl JsonCodec for Node {
    fn to_json(&self) -> Json {
        match self {
            Node::Leaf {
                malware_fraction,
                samples,
            } => Json::object(vec![
                ("malware_fraction", malware_fraction.to_json()),
                ("samples", samples.to_json()),
            ]),
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => Json::object(vec![
                ("feature", feature.to_json()),
                ("threshold", threshold.to_json()),
                ("left", left.to_json()),
                ("right", right.to_json()),
            ]),
        }
    }

    /// A node carrying `malware_fraction` is a leaf. Each variant reads
    /// only its own fields: a field of the other variant is checked as JSON
    /// and otherwise ignored, so its failure is kept until the variant is
    /// known.
    fn decode(parser: &mut Parser<'_>) -> Result<Node, CodecError> {
        let (mut malware_fraction, mut samples) = (None, None);
        let (mut feature, mut threshold, mut left, mut right) = (None, None, None, None);
        parser.object(
            [
                "malware_fraction",
                "samples",
                "feature",
                "threshold",
                "left",
                "right",
            ],
            |parser, key| {
                match key {
                    0 => malware_fraction = Some(parser.f64()?),
                    1 => samples = Some(parser.attempt(Parser::usize)?),
                    2 => feature = Some(parser.attempt(Parser::usize)?),
                    3 => threshold = Some(parser.attempt(Parser::f64)?),
                    4 => left = Some(parser.attempt(Parser::usize)?),
                    _ => right = Some(parser.attempt(Parser::usize)?),
                }
                Ok(())
            },
        )?;
        Ok(match malware_fraction {
            Some(malware_fraction) => Node::Leaf {
                malware_fraction,
                samples: required(samples, "samples")??,
            },
            None => Node::Split {
                feature: required(feature, "feature")??,
                threshold: required(threshold, "threshold")??,
                left: required(left, "left")??,
                right: required(right, "right")??,
            },
        })
    }
}

impl JsonCodec for DecisionTree {
    fn to_json(&self) -> Json {
        Json::object(vec![
            ("nodes", self.nodes.to_json()),
            ("num_features", self.num_features.to_json()),
        ])
    }

    fn decode(parser: &mut Parser<'_>) -> Result<DecisionTree, CodecError> {
        let (mut nodes, mut num_features) = (None, None);
        parser.object(["nodes", "num_features"], |parser, key| {
            match key {
                0 => nodes = Some(Vec::<Node>::decode(parser)?),
                _ => num_features = Some(parser.usize()?),
            }
            Ok(())
        })?;
        let nodes = required(nodes, "nodes")?;
        let num_features = required(num_features, "num_features")?;
        if nodes.is_empty() {
            return Err(CodecError::new("decision tree has no nodes"));
        }
        // Prediction indexes features by `feature` and walks child links, so
        // a malformed document must be rejected here: out-of-bounds values
        // would panic at detect time, and a child index that does not
        // increase would let leaf_for loop forever. The grower always stores
        // children after their parent, so strictly increasing child indices
        // are an invariant of every legitimately saved tree.
        for (i, node) in nodes.iter().enumerate() {
            if let Node::Split {
                feature,
                left,
                right,
                ..
            } = node
            {
                if *feature >= num_features {
                    return Err(CodecError::new(format!(
                        "decision tree split on feature {feature} but only {num_features} features"
                    )));
                }
                if *left >= nodes.len() || *right >= nodes.len() {
                    return Err(CodecError::new("decision tree child index out of bounds"));
                }
                if *left <= i || *right <= i {
                    return Err(CodecError::new(
                        "decision tree child index does not increase (cycle)",
                    ));
                }
            }
        }
        Ok(DecisionTree {
            nodes,
            num_features,
        })
    }
}

impl Classifier for DecisionTree {
    fn predict_one(&self, features: &[f64]) -> Label {
        Label::from(self.leaf_for(features).0 >= 0.5)
    }

    fn predict_proba_one(&self, features: &[f64]) -> f64 {
        self.leaf_for(features).0
    }

    fn predict_with_proba_one(&self, features: &[f64]) -> (Label, f64) {
        let p = self.leaf_for(features).0;
        (Label::from(p >= 0.5), p)
    }

    fn predict_proba_batch(&self, features: hmd_data::RowsView<'_>, out: &mut Vec<f64>) {
        // Compiling costs one pass over the nodes, so it only pays once the
        // batch outnumbers them; smaller batches walk the nested nodes.
        if features.rows() >= self.nodes.len().max(64) {
            self.compile().leaf_values_batch(features, out);
        } else {
            out.clear();
            out.extend(features.iter_rows().map(|row| self.leaf_for(row).0));
        }
    }

    fn predict_with_proba_batch(
        &self,
        features: hmd_data::RowsView<'_>,
        out: &mut Vec<(Label, f64)>,
    ) {
        let mut probas = Vec::new();
        self.predict_proba_batch(features, &mut probas);
        out.clear();
        out.extend(probas.into_iter().map(|p| (Label::from(p >= 0.5), p)));
    }

    fn append_flat_group(&self, builder: &mut crate::flat::FlatForestBuilder) -> bool {
        builder.push_tree(&self.nodes);
        true
    }

    fn input_width(&self) -> Option<usize> {
        Some(self.num_features)
    }
}

impl<'a> TreeBuilder<'a> {
    /// Grows a subtree for the samples in `indices`, returning the node index.
    fn grow(&mut self, indices: &[usize], depth: usize) -> usize {
        let labels = self.dataset.labels();
        let malware = indices.iter().filter(|&&i| labels[i].is_malware()).count();
        let malware_fraction = malware as f64 / indices.len() as f64;
        let node_impurity = gini(malware_fraction);

        let should_stop = depth >= self.params.max_depth
            || indices.len() < self.params.min_samples_split
            || node_impurity == 0.0;

        if !should_stop {
            if let Some(split) = self.best_split(indices, node_impurity) {
                let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
                    indices.iter().partition(|&&i| {
                        self.dataset.features().row(i)[split.feature] <= split.threshold
                    });
                // best_split guarantees both children satisfy min_samples_leaf
                let placeholder = self.nodes.len();
                self.nodes.push(Node::Leaf {
                    malware_fraction,
                    samples: indices.len(),
                });
                let left = self.grow(&left_idx, depth + 1);
                let right = self.grow(&right_idx, depth + 1);
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
            samples: indices.len(),
        });
        index
    }

    fn best_split(&mut self, indices: &[usize], node_impurity: f64) -> Option<SplitCandidate> {
        let num_features = self.dataset.num_features();
        let k = self.params.max_features.resolve(num_features);
        let mut feature_pool: Vec<usize> = (0..num_features).collect();
        feature_pool.shuffle(&mut self.rng);
        feature_pool.truncate(k);

        let labels = self.dataset.labels();
        let total = indices.len();
        let total_malware = indices.iter().filter(|&&i| labels[i].is_malware()).count();

        let mut best: Option<SplitCandidate> = None;
        for &feature in &feature_pool {
            // Sort the node's samples by this feature and sweep all midpoints.
            // total_cmp gives a NaN-safe total order; the stable sort breaks
            // value ties by ascending sample position, which the presorted
            // engine's partition scheme preserves identically.
            let mut order: Vec<usize> = indices.to_vec();
            order.sort_by(|&a, &b| {
                let va = self.dataset.features().row(a)[feature];
                let vb = self.dataset.features().row(b)[feature];
                va.total_cmp(&vb)
            });

            let mut left_count = 0usize;
            let mut left_malware = 0usize;
            // Each value is read once and carried to the next step as the
            // run predecessor instead of being fetched twice per sweep step.
            let mut carried = self.dataset.features().row(order[0])[feature];
            for w in 0..total - 1 {
                let i = order[w];
                left_count += 1;
                if labels[i].is_malware() {
                    left_malware += 1;
                }
                let current = carried;
                let next = self.dataset.features().row(order[w + 1])[feature];
                carried = next;
                if next <= current {
                    continue; // identical values cannot be separated here
                }
                let right_count = total - left_count;
                if left_count < self.params.min_samples_leaf
                    || right_count < self.params.min_samples_leaf
                {
                    continue;
                }
                let right_malware = total_malware - left_malware;
                let left_impurity = gini(left_malware as f64 / left_count as f64);
                let right_impurity = gini(right_malware as f64 / right_count as f64);
                let weighted = (left_count as f64 * left_impurity
                    + right_count as f64 * right_impurity)
                    / total as f64;
                let decrease = node_impurity - weighted;
                if decrease < self.params.min_impurity_decrease {
                    continue;
                }
                let threshold = (current + next) / 2.0;
                let candidate = SplitCandidate {
                    feature,
                    threshold,
                    decrease,
                };
                if best
                    .as_ref()
                    .map(|b| candidate.decrease > b.decrease)
                    .unwrap_or(true)
                {
                    best = Some(candidate);
                }
            }
        }
        best
    }
}

struct SplitCandidate {
    feature: usize,
    threshold: f64,
    decrease: f64,
}

/// Gini impurity of a binary node with the given positive-class fraction.
pub fn gini(p: f64) -> f64 {
    2.0 * p * (1.0 - p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmd_data::Matrix;

    fn xor_dataset() -> Dataset {
        // XOR-like pattern: not linearly separable, trees handle it easily.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(1234);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..80 {
            let a = (i % 2) as f64;
            let b = ((i / 2) % 2) as f64;
            rows.push(vec![
                a + rng.gen_range(-0.3..0.3),
                b + rng.gen_range(-0.3..0.3),
            ]);
            labels.push(Label::from((a as i32 ^ b as i32) == 1));
        }
        Dataset::new(Matrix::from_rows(&rows).unwrap(), labels).unwrap()
    }

    #[test]
    fn gini_is_zero_for_pure_nodes() {
        assert_eq!(gini(0.0), 0.0);
        assert_eq!(gini(1.0), 0.0);
        assert!((gini(0.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn tree_learns_xor() {
        let ds = xor_dataset();
        let tree = DecisionTreeParams::new()
            .with_max_depth(20)
            .fit(&ds, 3)
            .unwrap();
        let preds = tree.predict(ds.features());
        let correct = preds
            .iter()
            .zip(ds.labels())
            .filter(|(p, l)| p == l)
            .count();
        assert!(
            correct as f64 / ds.len() as f64 > 0.95,
            "tree should fit XOR almost exactly, got {correct}/{}",
            ds.len()
        );
        assert!(tree.depth() >= 2);
    }

    #[test]
    fn max_depth_zero_gives_single_leaf() {
        let ds = xor_dataset();
        let tree = DecisionTreeParams::new()
            .with_max_depth(0)
            .fit(&ds, 0)
            .unwrap();
        assert_eq!(tree.num_nodes(), 1);
        assert_eq!(tree.depth(), 0);
    }

    #[test]
    fn min_samples_leaf_limits_growth() {
        let ds = xor_dataset();
        let big_leaves = DecisionTreeParams::new()
            .with_min_samples_leaf(15)
            .fit(&ds, 0)
            .unwrap();
        let small_leaves = DecisionTreeParams::new().fit(&ds, 0).unwrap();
        assert!(big_leaves.num_nodes() <= small_leaves.num_nodes());
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let ds = xor_dataset();
        let err = DecisionTreeParams::new()
            .with_min_samples_split(1)
            .fit(&ds, 0)
            .unwrap_err();
        assert!(matches!(err, MlError::InvalidHyperparameter { .. }));
        let err = DecisionTreeParams::new()
            .with_min_samples_leaf(0)
            .fit(&ds, 0)
            .unwrap_err();
        assert!(matches!(err, MlError::InvalidHyperparameter { .. }));
    }

    #[test]
    fn proba_reflects_leaf_purity() {
        let ds = xor_dataset();
        let stump = DecisionTreeParams::new()
            .with_max_depth(0)
            .fit(&ds, 0)
            .unwrap();
        let p = stump.predict_proba_one(&[0.0, 0.0]);
        assert!(
            (p - 0.5).abs() < 0.01,
            "root leaf should be ~50% malware, got {p}"
        );
    }

    #[test]
    fn feature_subsampling_still_learns_separable_data() {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..60 {
            let x = i as f64 / 60.0;
            rows.push(vec![x, 0.0, 1.0]);
            labels.push(Label::from(x > 0.5));
        }
        let ds = Dataset::new(Matrix::from_rows(&rows).unwrap(), labels).unwrap();
        let tree = DecisionTreeParams::new()
            .with_max_features(MaxFeatures::Exact(2))
            .fit(&ds, 9)
            .unwrap();
        let acc = tree
            .predict(ds.features())
            .iter()
            .zip(ds.labels())
            .filter(|(p, l)| p == l)
            .count() as f64
            / ds.len() as f64;
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn sqrt_max_features_resolves_sensibly() {
        assert_eq!(MaxFeatures::Sqrt.resolve(9), 3);
        assert_eq!(MaxFeatures::Sqrt.resolve(1), 1);
        assert_eq!(MaxFeatures::Exact(100).resolve(4), 4);
        assert_eq!(MaxFeatures::Exact(0).resolve(4), 1);
        assert_eq!(MaxFeatures::All.resolve(7), 7);
    }
}
