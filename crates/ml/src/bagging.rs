//! Breiman bagging over any [`Estimator`].
//!
//! This is the workspace's equivalent of scikit-learn's `BaggingClassifier`:
//! each base classifier is trained on a bootstrap replicate of the training
//! set, predictions are combined by majority vote, and — crucially for the
//! paper — the trained base classifiers are accessible via
//! [`BaggingEnsemble::estimators`], mirroring sklearn's `estimators_`
//! attribute that the uncertainty estimator reads.

use crate::flat::{compile_groups, FlatForest};
use crate::{Classifier, Estimator, MlError};
use hmd_codec::{required, CodecError, Json, JsonCodec, Parser};
use hmd_data::split::{bootstrap_draw, bootstrap_indices};
use hmd_data::{Dataset, Label, RowsView};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Configuration of a bagging ensemble built on base estimator `E`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BaggingParams<E> {
    /// The base estimator cloned and fitted on every bootstrap replicate.
    pub base: E,
    /// Number of base classifiers.
    pub num_estimators: usize,
    /// Fraction of the training set drawn (with replacement) for each
    /// replicate. `1.0` reproduces classic bagging.
    pub sample_fraction: f64,
    /// When false, every base classifier sees the full training set and
    /// diversity comes only from the base learner's own randomness. Used by
    /// the diversity ablation.
    pub bootstrap: bool,
}

impl<E: Estimator> BaggingParams<E> {
    /// Creates a bagging configuration with the paper's default of 25 base
    /// classifiers and full-size bootstrap replicates.
    pub fn new(base: E) -> BaggingParams<E> {
        BaggingParams {
            base,
            num_estimators: 25,
            sample_fraction: 1.0,
            bootstrap: true,
        }
    }

    /// Sets the number of base classifiers.
    #[must_use]
    pub fn with_num_estimators(mut self, n: usize) -> Self {
        self.num_estimators = n;
        self
    }

    /// Sets the bootstrap sample fraction.
    #[must_use]
    pub fn with_sample_fraction(mut self, fraction: f64) -> Self {
        self.sample_fraction = fraction;
        self
    }

    /// Enables or disables bootstrap resampling.
    #[must_use]
    pub fn with_bootstrap(mut self, bootstrap: bool) -> Self {
        self.bootstrap = bootstrap;
        self
    }

    fn validate(&self) -> Result<(), MlError> {
        if self.num_estimators == 0 {
            return Err(MlError::InvalidHyperparameter {
                name: "num_estimators",
                message: "an ensemble needs at least one base classifier".into(),
            });
        }
        if !(self.sample_fraction > 0.0 && self.sample_fraction <= 1.0) {
            return Err(MlError::InvalidHyperparameter {
                name: "sample_fraction",
                message: format!("must lie in (0, 1], got {}", self.sample_fraction),
            });
        }
        Ok(())
    }

    /// Fits the ensemble on the training dataset.
    ///
    /// Base classifiers are trained in parallel with decorrelated seeds
    /// derived from `seed`. Bootstrap replicates are **zero-copy views**:
    /// each draw stays an index array handed to
    /// [`Estimator::fit_resampled`], so tree-based bases share the parent
    /// dataset's columnar feature cache instead of copying the data per
    /// replicate. The trained ensemble is bit-identical to the retained
    /// copy-based path ([`BaggingParams::fit_reference`]).
    ///
    /// # Errors
    ///
    /// Returns configuration errors from the parameter validation and
    /// propagates the first base-training failure.
    pub fn fit(&self, dataset: &Dataset, seed: u64) -> Result<BaggingEnsemble<E::Model>, MlError> {
        self.validate()?;
        let mut seeder = StdRng::seed_from_u64(seed);
        let seeds: Vec<u64> = (0..self.num_estimators).map(|_| seeder.gen()).collect();
        let replicate_len = ((dataset.len() as f64) * self.sample_fraction)
            .round()
            .max(1.0) as usize;
        let models: Result<Vec<E::Model>, MlError> = seeds
            .par_iter()
            .map(|&estimator_seed| {
                let mut rng = StdRng::seed_from_u64(estimator_seed);
                if self.bootstrap {
                    let mut indices = bootstrap_draw(dataset.len(), &mut rng);
                    indices.truncate(replicate_len);
                    self.base.fit_resampled(dataset, &indices, estimator_seed)
                } else {
                    self.base.fit(dataset, estimator_seed)
                }
            })
            .collect();
        Ok(BaggingEnsemble::from_estimators(models?, self.base.name()))
    }

    /// The pre-optimisation training path: materialises every bootstrap
    /// replicate with [`Dataset::select`] and trains the bases through
    /// [`Estimator::fit_reference`]. Retained for the equivalence suite;
    /// everything else should call [`BaggingParams::fit`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`BaggingParams::fit`].
    pub fn fit_reference(
        &self,
        dataset: &Dataset,
        seed: u64,
    ) -> Result<BaggingEnsemble<E::Model>, MlError> {
        self.validate()?;
        let mut seeder = StdRng::seed_from_u64(seed);
        let seeds: Vec<u64> = (0..self.num_estimators).map(|_| seeder.gen()).collect();
        let replicate_len = ((dataset.len() as f64) * self.sample_fraction)
            .round()
            .max(1.0) as usize;
        let models: Result<Vec<E::Model>, MlError> = seeds
            .par_iter()
            .map(|&estimator_seed| {
                let mut rng = StdRng::seed_from_u64(estimator_seed);
                let training = if self.bootstrap {
                    let (mut indices, _) = bootstrap_indices(dataset.len(), &mut rng);
                    indices.truncate(replicate_len);
                    dataset.select(&indices)
                } else {
                    dataset.clone()
                };
                self.base.fit_reference(&training, estimator_seed)
            })
            .collect();
        Ok(BaggingEnsemble::from_estimators(models?, self.base.name()))
    }

    /// Name of the base learner (e.g. `"random-forest"`).
    pub fn base_name(&self) -> &'static str {
        self.base.name()
    }
}

/// A trained bagging ensemble of base classifiers.
///
/// # Example
///
/// ```
/// use hmd_data::{Dataset, Label, Matrix};
/// use hmd_ml::bagging::BaggingParams;
/// use hmd_ml::logistic::LogisticRegressionParams;
/// use hmd_ml::Classifier;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let x = Matrix::from_rows(&[vec![-1.0], vec![-0.9], vec![0.9], vec![1.0]])?;
/// let y = vec![Label::Benign, Label::Benign, Label::Malware, Label::Malware];
/// let train = Dataset::new(x, y)?;
/// let ensemble = BaggingParams::new(LogisticRegressionParams::new())
///     .with_num_estimators(7)
///     .fit(&train, 42)?;
/// assert_eq!(ensemble.num_estimators(), 7);
/// assert_eq!(ensemble.predict_one(&[1.2]), Label::Malware);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BaggingEnsemble<M> {
    estimators: Vec<M>,
    base_name: &'static str,
    /// Compiled flat-engine form when every base classifier is tree-based:
    /// one voting group per estimator. Never persisted, rebuilt on load.
    flat: Option<FlatForest>,
}

impl<M: Classifier> BaggingEnsemble<M> {
    fn from_estimators(estimators: Vec<M>, base_name: &'static str) -> BaggingEnsemble<M> {
        let flat = compile_groups(&estimators);
        BaggingEnsemble {
            estimators,
            base_name,
            flat,
        }
    }

    /// The trained base classifiers (sklearn's `estimators_`).
    pub fn estimators(&self) -> &[M] {
        &self.estimators
    }

    /// The compiled flat-engine form, when every base classifier is
    /// tree-based (decision trees or random forests).
    pub fn flat(&self) -> Option<&FlatForest> {
        self.flat.as_ref()
    }

    /// Number of base classifiers.
    pub fn num_estimators(&self) -> usize {
        self.estimators.len()
    }

    /// Name of the base learner.
    pub fn base_name(&self) -> &'static str {
        self.base_name
    }

    /// Individual hard votes of every base classifier on one input.
    ///
    /// This is the raw material of the paper's uncertainty estimator: the
    /// frequency distribution of these votes approximates the predictive
    /// posterior of Eq. 3. Always walks the nested base classifiers — it is
    /// the reference path the flat engine is tested against.
    pub fn votes(&self, features: &[f64]) -> Vec<Label> {
        self.estimators
            .iter()
            .map(|m| m.predict_one(features))
            .collect()
    }

    /// Counts of votes per class, indexed by [`Label::index`].
    ///
    /// Serves from the compiled flat forest when the base classifiers are
    /// tree-based, with bit-identical counts to the nested walk.
    pub fn vote_counts(&self, features: &[f64]) -> [usize; Label::NUM_CLASSES] {
        if let Some(flat) = &self.flat {
            let malware = flat.group_votes_one(features);
            return [self.estimators.len() - malware, malware];
        }
        let mut counts = [0usize; Label::NUM_CLASSES];
        for vote in self.votes(features) {
            counts[vote.index()] += 1;
        }
        counts
    }

    /// Malware vote counts — one integer per row — for a borrowed batch view
    /// (a whole matrix, or any row range of one): the ensemble's leanest
    /// batch shape (every estimator votes, so the benign count is always
    /// `num_estimators - malware`).
    ///
    /// Tree-based ensembles serve from the flat engine (tiled traversal,
    /// parallel across row blocks); other base learners fall back to scoring
    /// rows in parallel through the nested path. Counts are bit-identical to
    /// calling [`BaggingEnsemble::vote_counts`] per row.
    pub fn malware_votes_batch<'a>(&self, batch: impl Into<RowsView<'a>>) -> Vec<u32> {
        let batch = batch.into();
        if let Some(flat) = &self.flat {
            return flat.group_votes_batch(batch);
        }
        let rows: Vec<&[f64]> = batch.iter_rows().collect();
        rows.par_iter()
            .map(|row| self.vote_counts(row)[1] as u32)
            .collect()
    }

    /// Per-class vote counts for every row of a borrowed batch view, indexed
    /// by [`Label::index`] — [`BaggingEnsemble::malware_votes_batch`] in the
    /// same shape [`BaggingEnsemble::vote_counts`] reports.
    pub fn vote_counts_batch<'a>(
        &self,
        batch: impl Into<RowsView<'a>>,
    ) -> Vec<[usize; Label::NUM_CLASSES]> {
        let total = self.estimators.len();
        self.malware_votes_batch(batch)
            .into_iter()
            .map(|malware| {
                let malware = malware as usize;
                [total - malware, malware]
            })
            .collect()
    }

    /// Restricts the ensemble to its first `n` base classifiers (used by the
    /// ensemble-size sweep of Fig. 9a). Returns `None` when `n` is zero or
    /// exceeds the number of estimators.
    pub fn truncated(&self, n: usize) -> Option<BaggingEnsemble<M>>
    where
        M: Clone,
    {
        if n == 0 || n > self.estimators.len() {
            return None;
        }
        Some(BaggingEnsemble::from_estimators(
            self.estimators[..n].to_vec(),
            self.base_name,
        ))
    }
}

/// Interns a persisted base-learner name back to the `&'static str` the
/// ensemble stores. Known learners map to their canonical tag; anything else
/// falls back to `"custom"` (the name is display-only).
fn intern_base_name(name: &str) -> &'static str {
    use crate::ModelTag;
    for known in [
        crate::tree::DecisionTree::TAG,
        crate::forest::RandomForest::TAG,
        crate::logistic::LogisticRegression::TAG,
        crate::svm::LinearSvm::TAG,
    ] {
        if name == known {
            return known;
        }
    }
    "custom"
}

impl<M: Classifier + JsonCodec> JsonCodec for BaggingEnsemble<M> {
    fn to_json(&self) -> Json {
        // The flat form is derived state: omitted here, recompiled on load so
        // saved documents stay minimal and restored ensembles serve from the
        // flat engine with bit-identical votes.
        Json::object(vec![
            ("base_name", self.base_name.to_string().to_json()),
            ("estimators", self.estimators.to_json()),
        ])
    }

    fn decode(parser: &mut Parser<'_>) -> Result<BaggingEnsemble<M>, CodecError> {
        let (mut base_name, mut estimators) = (None, None);
        parser.object(["base_name", "estimators"], |parser, key| {
            match key {
                0 => base_name = Some(intern_base_name(&parser.string()?)),
                _ => estimators = Some(Vec::<M>::decode(parser)?),
            }
            Ok(())
        })?;
        let estimators = required(estimators, "estimators")?;
        if estimators.is_empty() {
            return Err(CodecError::new("bagging ensemble has no estimators"));
        }
        Ok(BaggingEnsemble::from_estimators(
            estimators,
            required(base_name, "base_name")?,
        ))
    }
}

impl<M: Classifier> Classifier for BaggingEnsemble<M> {
    fn predict_one(&self, features: &[f64]) -> Label {
        let counts = self.vote_counts(features);
        Label::from(counts[1] >= counts[0])
    }

    fn predict_proba_one(&self, features: &[f64]) -> f64 {
        let counts = self.vote_counts(features);
        counts[1] as f64 / self.estimators.len() as f64
    }

    fn predict_with_proba_one(&self, features: &[f64]) -> (Label, f64) {
        let counts = self.vote_counts(features);
        (
            Label::from(counts[1] >= counts[0]),
            counts[1] as f64 / self.estimators.len() as f64,
        )
    }

    fn predict_proba_batch(&self, batch: RowsView<'_>, out: &mut Vec<f64>) {
        let total = self.estimators.len() as f64;
        out.clear();
        out.extend(
            self.vote_counts_batch(batch)
                .into_iter()
                .map(|counts| counts[1] as f64 / total),
        );
    }

    fn predict_with_proba_batch(&self, batch: RowsView<'_>, out: &mut Vec<(Label, f64)>) {
        let total = self.estimators.len() as f64;
        out.clear();
        out.extend(self.vote_counts_batch(batch).into_iter().map(|counts| {
            (
                Label::from(counts[1] >= counts[0]),
                counts[1] as f64 / total,
            )
        }));
    }

    fn input_width(&self) -> Option<usize> {
        self.estimators.first().and_then(|m| m.input_width())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logistic::LogisticRegressionParams;
    use crate::tree::DecisionTreeParams;
    use hmd_data::Matrix;

    fn blobs(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n {
            let malware = rng.gen_bool(0.5);
            let c = if malware { 1.0 } else { -1.0 };
            rows.push(vec![
                c + rng.gen_range(-0.5..0.5),
                c + rng.gen_range(-0.5..0.5),
            ]);
            labels.push(Label::from(malware));
        }
        Dataset::new(Matrix::from_rows(&rows).unwrap(), labels).unwrap()
    }

    #[test]
    fn bagged_trees_classify_blobs() {
        let train = blobs(150, 1);
        let test = blobs(60, 2);
        let ensemble = BaggingParams::new(DecisionTreeParams::new())
            .with_num_estimators(9)
            .fit(&train, 3)
            .unwrap();
        let acc = ensemble
            .predict(test.features())
            .iter()
            .zip(test.labels())
            .filter(|(p, l)| p == l)
            .count() as f64
            / test.len() as f64;
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn votes_sum_to_ensemble_size() {
        let train = blobs(80, 4);
        let ensemble = BaggingParams::new(LogisticRegressionParams::new().with_epochs(50))
            .with_num_estimators(11)
            .fit(&train, 5)
            .unwrap();
        let counts = ensemble.vote_counts(&[0.2, -0.1]);
        assert_eq!(counts[0] + counts[1], 11);
    }

    #[test]
    fn truncation_respects_bounds() {
        let train = blobs(60, 6);
        let ensemble = BaggingParams::new(DecisionTreeParams::new())
            .with_num_estimators(8)
            .fit(&train, 1)
            .unwrap();
        assert!(ensemble.truncated(0).is_none());
        assert!(ensemble.truncated(9).is_none());
        assert_eq!(ensemble.truncated(3).unwrap().num_estimators(), 3);
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let train = blobs(30, 7);
        assert!(BaggingParams::new(DecisionTreeParams::new())
            .with_num_estimators(0)
            .fit(&train, 0)
            .is_err());
        assert!(BaggingParams::new(DecisionTreeParams::new())
            .with_sample_fraction(0.0)
            .fit(&train, 0)
            .is_err());
        assert!(BaggingParams::new(DecisionTreeParams::new())
            .with_sample_fraction(1.5)
            .fit(&train, 0)
            .is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let train = blobs(60, 8);
        let a = BaggingParams::new(DecisionTreeParams::new())
            .with_num_estimators(5)
            .fit(&train, 77)
            .unwrap();
        let b = BaggingParams::new(DecisionTreeParams::new())
            .with_num_estimators(5)
            .fit(&train, 77)
            .unwrap();
        let x = [0.3, 0.4];
        assert_eq!(a.votes(&x), b.votes(&x));
    }

    #[test]
    fn sample_fraction_shrinks_replicates_without_breaking_fit() {
        let train = blobs(100, 9);
        let ensemble = BaggingParams::new(DecisionTreeParams::new())
            .with_num_estimators(5)
            .with_sample_fraction(0.5)
            .fit(&train, 2)
            .unwrap();
        assert_eq!(ensemble.num_estimators(), 5);
    }
}
