//! Random forests: bootstrap-aggregated CART trees with per-split feature
//! subsampling.
//!
//! The paper's best-performing ensembles use Random Forest base classifiers;
//! [`RandomForest`] is also usable stand-alone as the "Untrusted HMD"
//! black-box detector.

use crate::fastfit::View;
use crate::flat::{compile_groups, FlatForest, FlatForestBuilder};
use crate::tree::{DecisionTree, DecisionTreeParams, MaxFeatures};
use crate::{Classifier, Estimator, MlError, ModelTag};
use hmd_codec::{required, CodecError, Json, JsonCodec, Parser};
use hmd_data::split::{bootstrap_draw, bootstrap_indices};
use hmd_data::{Dataset, Label};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Hyper-parameters of a [`RandomForest`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RandomForestParams {
    /// Number of trees in the forest.
    pub num_trees: usize,
    /// Parameters of the individual trees.
    pub tree: DecisionTreeParams,
    /// Whether each tree is trained on a bootstrap replicate (true) or on the
    /// full training set (false).
    pub bootstrap: bool,
}

impl RandomForestParams {
    /// Default forest: 25 trees, depth-12 CART trees, `sqrt` feature
    /// subsampling, bootstrap resampling.
    pub fn new() -> RandomForestParams {
        RandomForestParams {
            num_trees: 25,
            tree: DecisionTreeParams::new().with_max_features(MaxFeatures::Sqrt),
            bootstrap: true,
        }
    }

    /// Sets the number of trees.
    pub fn with_num_trees(mut self, n: usize) -> Self {
        self.num_trees = n;
        self
    }

    /// Sets the per-tree parameters.
    pub fn with_tree_params(mut self, tree: DecisionTreeParams) -> Self {
        self.tree = tree;
        self
    }

    /// Enables or disables bootstrap resampling.
    pub fn with_bootstrap(mut self, bootstrap: bool) -> Self {
        self.bootstrap = bootstrap;
        self
    }
}

impl Default for RandomForestParams {
    fn default() -> Self {
        RandomForestParams::new()
    }
}

impl JsonCodec for RandomForestParams {
    fn to_json(&self) -> Json {
        Json::object(vec![
            ("num_trees", self.num_trees.to_json()),
            ("tree", self.tree.to_json()),
            ("bootstrap", self.bootstrap.to_json()),
        ])
    }

    fn decode(parser: &mut Parser<'_>) -> Result<RandomForestParams, CodecError> {
        let (mut num_trees, mut tree, mut bootstrap) = (None, None, None);
        parser.object(["num_trees", "tree", "bootstrap"], |parser, key| {
            match key {
                0 => num_trees = Some(parser.usize()?),
                1 => tree = Some(DecisionTreeParams::decode(parser)?),
                _ => bootstrap = Some(parser.bool()?),
            }
            Ok(())
        })?;
        Ok(RandomForestParams {
            num_trees: required(num_trees, "num_trees")?,
            tree: required(tree, "tree")?,
            bootstrap: required(bootstrap, "bootstrap")?,
        })
    }
}

impl Estimator for RandomForestParams {
    type Model = RandomForest;

    fn fit(&self, dataset: &Dataset, seed: u64) -> Result<RandomForest, MlError> {
        RandomForest::fit(dataset, self, seed)
    }

    fn fit_resampled(
        &self,
        dataset: &Dataset,
        rows: &[usize],
        seed: u64,
    ) -> Result<RandomForest, MlError> {
        RandomForest::fit_rows(dataset, Some(rows), self, seed)
    }

    fn fit_reference(&self, dataset: &Dataset, seed: u64) -> Result<RandomForest, MlError> {
        RandomForest::fit_reference(dataset, self, seed)
    }

    fn name(&self) -> &'static str {
        "random-forest"
    }
}

/// A trained random forest.
///
/// Prediction is by majority vote of the trees; [`Classifier::predict_proba_one`]
/// reports the fraction of trees voting malware (soft vote). On the forest's
/// first prediction the trees are compiled into a [`FlatForest`] — packed
/// 24-byte split-node records with one single-tree voting group per tree —
/// and every inference path serves from that flat form. A forest inside a
/// [`crate::bagging::BaggingEnsemble`] votes through the ensemble's own
/// compiled form, so it never compiles its own.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    /// Compiled inference engine, built on first use. Derived state: never
    /// persisted and ignored by equality.
    flat: OnceLock<FlatForest>,
}

impl PartialEq for RandomForest {
    /// Tree equality; the compiled form is derived state and deliberately
    /// ignored.
    fn eq(&self, other: &RandomForest) -> bool {
        self.trees == other.trees
    }
}

impl RandomForest {
    /// Fits a forest on the dataset.
    ///
    /// Every tree trains on the presorted columnar engine through a
    /// **zero-copy bootstrap view**: the bootstrap draw is kept as a row
    /// index array into `dataset` and all replicates share the dataset's
    /// lazily built column-major feature cache — nothing is materialised.
    /// The grown forest is bit-identical to the retained copy-based
    /// reference path ([`RandomForest::fit_reference`]).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidHyperparameter`] when `num_trees == 0` or the
    /// tree parameters are invalid, and propagates tree-training failures.
    pub fn fit(
        dataset: &Dataset,
        params: &RandomForestParams,
        seed: u64,
    ) -> Result<RandomForest, MlError> {
        RandomForest::fit_rows(dataset, None, params, seed)
    }

    /// Fits a forest on a zero-copy view of `dataset` (training row `i` is
    /// dataset row `rows[i]`, repeats allowed). Per-tree bootstrap draws are
    /// composed with `rows`, so even bagged forests never materialise a
    /// replicate. Produces exactly the forest
    /// `fit(&dataset.select(rows), ..)` would.
    pub(crate) fn fit_rows(
        dataset: &Dataset,
        rows: Option<&[usize]>,
        params: &RandomForestParams,
        seed: u64,
    ) -> Result<RandomForest, MlError> {
        if params.num_trees == 0 {
            return Err(MlError::InvalidHyperparameter {
                name: "num_trees",
                message: "a forest needs at least one tree".into(),
            });
        }
        let mut seeder = StdRng::seed_from_u64(seed);
        let tree_seeds: Vec<u64> = (0..params.num_trees).map(|_| seeder.gen()).collect();
        let len = rows.map_or(dataset.len(), <[usize]>::len);
        let trees: Result<Vec<DecisionTree>, MlError> = tree_seeds
            .par_iter()
            .map(|&tree_seed| {
                let mut rng = StdRng::seed_from_u64(tree_seed);
                if params.bootstrap {
                    // The draw composes symbolically with the outer view, so
                    // the tree's samples index the shared parent dataset
                    // without materialising either level.
                    let draw = bootstrap_draw(len, &mut rng);
                    let view = match rows {
                        Some(outer) => View::Composed { outer, draw: &draw },
                        None => View::Rows(&draw),
                    };
                    DecisionTree::fit_view(dataset, view, &params.tree, tree_seed)
                } else {
                    let view = match rows {
                        Some(outer) => View::Rows(outer),
                        None => View::Full,
                    };
                    DecisionTree::fit_view(dataset, view, &params.tree, tree_seed)
                }
            })
            .collect();
        Ok(RandomForest::from_trees(trees?))
    }

    /// The pre-optimisation training path: materialises every bootstrap
    /// replicate with [`Dataset::select`] and grows trees with the
    /// per-node-sorting reference fitter. Retained for the equivalence
    /// suite; everything else should call [`RandomForest::fit`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`RandomForest::fit`].
    pub fn fit_reference(
        dataset: &Dataset,
        params: &RandomForestParams,
        seed: u64,
    ) -> Result<RandomForest, MlError> {
        if params.num_trees == 0 {
            return Err(MlError::InvalidHyperparameter {
                name: "num_trees",
                message: "a forest needs at least one tree".into(),
            });
        }
        let mut seeder = StdRng::seed_from_u64(seed);
        let tree_seeds: Vec<u64> = (0..params.num_trees).map(|_| seeder.gen()).collect();
        let trees: Result<Vec<DecisionTree>, MlError> = tree_seeds
            .par_iter()
            .map(|&tree_seed| {
                let mut rng = StdRng::seed_from_u64(tree_seed);
                let training = if params.bootstrap {
                    let (indices, _) = bootstrap_indices(dataset.len(), &mut rng);
                    dataset.select(&indices)
                } else {
                    dataset.clone()
                };
                DecisionTree::fit_reference(&training, &params.tree, tree_seed)
            })
            .collect();
        Ok(RandomForest::from_trees(trees?))
    }

    fn from_trees(trees: Vec<DecisionTree>) -> RandomForest {
        RandomForest {
            trees,
            flat: OnceLock::new(),
        }
    }

    /// The individual trees of the forest (the nested training-time form; the
    /// reference implementation the flat engine is tested against).
    pub fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }

    /// The compiled flat-node inference engine serving this forest,
    /// compiled on the first call.
    pub fn flat(&self) -> &FlatForest {
        self.flat.get_or_init(|| {
            // hmd-lint: allow(no-panic-in-lib) construction-guaranteed: compile_groups only rejects malformed trees, and every tree of a forest was fitted or decoded through validation
            compile_groups(&self.trees).expect("decision trees always compile")
        })
    }

    /// Number of trees.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }
}

impl From<&RandomForest> for FlatForest {
    fn from(forest: &RandomForest) -> FlatForest {
        forest.flat().clone()
    }
}

impl ModelTag for RandomForest {
    const TAG: &'static str = "random-forest";
}

impl JsonCodec for RandomForest {
    fn to_json(&self) -> Json {
        Json::object(vec![("trees", self.trees.to_json())])
    }

    fn decode(parser: &mut Parser<'_>) -> Result<RandomForest, CodecError> {
        let mut trees = None;
        parser.object(["trees"], |parser, _| {
            trees = Some(Vec::<DecisionTree>::decode(parser)?);
            Ok(())
        })?;
        let trees = required(trees, "trees")?;
        if trees.is_empty() {
            return Err(CodecError::new("random forest has no trees"));
        }
        // Every tree must expect the same input width, or a document whose
        // later trees were tampered with would pass the pipeline-level width
        // check (which consults the first tree) and panic at detect time.
        let width = trees[0].num_features();
        for tree in &trees[1..] {
            if tree.num_features() != width {
                return Err(CodecError::new(format!(
                    "random forest trees disagree on feature count ({} vs {})",
                    width,
                    tree.num_features()
                )));
            }
        }
        Ok(RandomForest::from_trees(trees))
    }
}

impl Classifier for RandomForest {
    fn predict_one(&self, features: &[f64]) -> Label {
        Label::from(self.predict_proba_one(features) >= 0.5)
    }

    fn predict_proba_one(&self, features: &[f64]) -> f64 {
        // Flat single-tree groups vote exactly like the nested
        // `trees().iter().filter(is_malware).count()` walk.
        self.flat().predict_proba_one(features)
    }

    fn predict_with_proba_one(&self, features: &[f64]) -> (Label, f64) {
        let p = self.predict_proba_one(features);
        (Label::from(p >= 0.5), p)
    }

    fn predict_proba_batch(&self, batch: hmd_data::RowsView<'_>, out: &mut Vec<f64>) {
        self.flat().predict_proba_batch(batch, out);
    }

    fn predict_with_proba_batch(&self, batch: hmd_data::RowsView<'_>, out: &mut Vec<(Label, f64)>) {
        self.flat().predict_with_proba_batch(batch, out);
    }

    fn append_flat_group(&self, builder: &mut FlatForestBuilder) -> bool {
        // As an ensemble member the whole forest casts one vote: all of its
        // trees join a single voting group.
        for tree in &self.trees {
            tree.append_flat_group(builder);
        }
        true
    }

    fn input_width(&self) -> Option<usize> {
        self.trees.first().and_then(|t| t.input_width())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmd_data::Matrix;
    use rand::Rng;

    fn blob_dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n {
            let malware = rng.gen_bool(0.5);
            let centre = if malware { 1.0 } else { -1.0 };
            rows.push(vec![
                centre + rng.gen_range(-0.4..0.4),
                centre + rng.gen_range(-0.4..0.4),
            ]);
            labels.push(Label::from(malware));
        }
        Dataset::new(Matrix::from_rows(&rows).unwrap(), labels).unwrap()
    }

    #[test]
    fn forest_outperforms_chance_on_blobs() {
        let train = blob_dataset(200, 1);
        let test = blob_dataset(100, 2);
        let forest = RandomForestParams::new()
            .with_num_trees(15)
            .fit(&train, 7)
            .unwrap();
        let acc = forest
            .predict(test.features())
            .iter()
            .zip(test.labels())
            .filter(|(p, l)| p == l)
            .count() as f64
            / test.len() as f64;
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn only_a_forest_that_serves_compiles_its_flat_form() {
        let ds = blob_dataset(60, 8);
        let ensemble =
            crate::bagging::BaggingParams::new(RandomForestParams::new().with_num_trees(3))
                .with_num_estimators(4)
                .fit(&ds, 9)
                .unwrap();
        let votes = ensemble.vote_counts(&[1.0, 1.0]);
        assert_eq!(votes[0] + votes[1], 4);
        let compiled = |e: &crate::bagging::BaggingEnsemble<RandomForest>| -> Vec<bool> {
            e.estimators()
                .iter()
                .map(|f| f.flat.get().is_some())
                .collect()
        };
        assert_eq!(
            compiled(&ensemble),
            [false; 4],
            "the ensemble serves from its own form"
        );
        let member = &ensemble.estimators()[2];
        let p = member.predict_proba_one(&[1.0, 1.0]);
        assert_eq!(p, member.flat().predict_proba_one(&[1.0, 1.0]));
        assert_eq!(compiled(&ensemble), [false, false, true, false]);
        let uncompiled = RandomForest::from_trees(member.trees().to_vec());
        assert_eq!(&uncompiled, member, "equality ignores the compiled form");
    }

    #[test]
    fn zero_trees_is_rejected() {
        let ds = blob_dataset(20, 3);
        let err = RandomForestParams::new()
            .with_num_trees(0)
            .fit(&ds, 0)
            .unwrap_err();
        assert!(matches!(err, MlError::InvalidHyperparameter { .. }));
    }

    #[test]
    fn proba_is_vote_fraction() {
        let ds = blob_dataset(100, 4);
        let forest = RandomForestParams::new()
            .with_num_trees(10)
            .fit(&ds, 5)
            .unwrap();
        let p = forest.predict_proba_one(&[1.0, 1.0]);
        assert!((0.0..=1.0).contains(&p));
        // vote fraction is a multiple of 1/num_trees
        let scaled = p * 10.0;
        assert!((scaled - scaled.round()).abs() < 1e-9);
    }

    #[test]
    fn training_is_deterministic_in_seed() {
        let ds = blob_dataset(80, 6);
        let a = RandomForestParams::new()
            .with_num_trees(5)
            .fit(&ds, 11)
            .unwrap();
        let b = RandomForestParams::new()
            .with_num_trees(5)
            .fit(&ds, 11)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn without_bootstrap_trees_differ_only_by_feature_sampling() {
        let ds = blob_dataset(60, 8);
        let forest = RandomForestParams::new()
            .with_num_trees(5)
            .with_bootstrap(false)
            .fit(&ds, 3)
            .unwrap();
        assert_eq!(forest.num_trees(), 5);
    }
}
