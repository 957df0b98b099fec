use crate::flat::FlatForestBuilder;
use crate::MlError;
use hmd_data::{Dataset, Label, Matrix, RowsView};
use rayon::prelude::*;

/// Row count from which the default batch implementations fan rows out
/// across the persistent worker pool instead of scoring serially.
const PAR_BATCH_MIN_ROWS: usize = 512;

/// A trained binary classifier.
///
/// Every learner in this crate predicts the benign/malware [`Label`] of a
/// feature vector and can also report a score interpretable as the
/// probability of the malware class (used by the Platt-scaling baseline and
/// by soft-voting ensembles).
pub trait Classifier: Send + Sync {
    /// Predicts the label of a single feature vector.
    fn predict_one(&self, features: &[f64]) -> Label;

    /// Score in `[0, 1]` interpretable as `P(malware | features)`.
    ///
    /// Learners without a native probabilistic output return a calibrated or
    /// squashed decision value; the default implementation returns `1.0` or
    /// `0.0` from the hard prediction.
    fn predict_proba_one(&self, features: &[f64]) -> f64 {
        if self.predict_one(features).is_malware() {
            1.0
        } else {
            0.0
        }
    }

    /// Predicts the labels of every row of a feature matrix.
    fn predict(&self, features: &Matrix) -> Vec<Label> {
        features
            .iter_rows()
            .map(|row| self.predict_one(row))
            .collect()
    }

    /// Malware probabilities for every row of a feature matrix.
    fn predict_proba(&self, features: &Matrix) -> Vec<f64> {
        features
            .iter_rows()
            .map(|row| self.predict_proba_one(row))
            .collect()
    }

    /// Label and probability of one feature vector in a single evaluation.
    ///
    /// The default calls both prediction methods; learners whose label and
    /// probability come from the same internal evaluation override this so
    /// batch hot paths do not walk the model twice per row.
    fn predict_with_proba_one(&self, features: &[f64]) -> (Label, f64) {
        (self.predict_one(features), self.predict_proba_one(features))
    }

    /// Malware probabilities for every row of a borrowed batch view, written
    /// into a caller-owned buffer — the batch-first hot path. Taking a
    /// [`RowsView`] keeps the trait object-safe while letting callers score
    /// any row range of an existing matrix with zero copies.
    ///
    /// The default scores rows through [`Classifier::predict_proba_one`] —
    /// serially for small batches, across the worker pool for large ones.
    /// Models backed by the [`crate::flat`] engine override this with a
    /// tiled traversal over cache-packed node arrays.
    fn predict_proba_batch(&self, batch: RowsView<'_>, out: &mut Vec<f64>) {
        out.clear();
        if batch.rows() >= PAR_BATCH_MIN_ROWS {
            let rows: Vec<&[f64]> = batch.iter_rows().collect();
            let scored: Vec<f64> = rows
                .par_iter()
                .map(|row| self.predict_proba_one(row))
                .collect();
            out.extend(scored);
            return;
        }
        out.extend(batch.iter_rows().map(|row| self.predict_proba_one(row)));
    }

    /// Labels and probabilities for every row of a borrowed batch view in one
    /// pass, written into a caller-owned buffer.
    ///
    /// The default calls [`Classifier::predict_with_proba_one`] per row
    /// (parallel for large batches); flat-engine models override it so the
    /// batch walks the model once.
    fn predict_with_proba_batch(&self, batch: RowsView<'_>, out: &mut Vec<(Label, f64)>) {
        out.clear();
        if batch.rows() >= PAR_BATCH_MIN_ROWS {
            let rows: Vec<&[f64]> = batch.iter_rows().collect();
            let scored: Vec<(Label, f64)> = rows
                .par_iter()
                .map(|row| self.predict_with_proba_one(row))
                .collect();
            out.extend(scored);
            return;
        }
        out.extend(
            batch
                .iter_rows()
                .map(|row| self.predict_with_proba_one(row)),
        );
    }

    /// Appends this model's decision trees to a flat-forest builder as one
    /// voting group, returning `true` on success.
    ///
    /// Tree-based models (decision trees, random forests) override this so
    /// ensembles containing them can compile into a single
    /// [`crate::flat::FlatForest`]. The default returns `false`: the model is
    /// not tree-based and the caller must keep the generic path.
    fn append_flat_group(&self, _builder: &mut FlatForestBuilder) -> bool {
        false
    }

    /// Number of input features the trained model expects, when the model
    /// knows it. Used by the persistence layer to reject saved documents
    /// whose front end and model disagree on dimensionality.
    fn input_width(&self) -> Option<usize> {
        None
    }
}

/// A learner configuration that can be fitted on a dataset to produce a
/// trained [`Classifier`].
///
/// Estimators are cheap, cloneable parameter bundles; the trained model is a
/// separate type. The `seed` argument makes training deterministic, which the
/// bagging ensemble exploits to fit base classifiers in parallel with
/// decorrelated randomness.
pub trait Estimator: Send + Sync + Clone {
    /// The trained model type this estimator produces.
    type Model: Classifier;

    /// Fits the estimator on the dataset.
    ///
    /// # Errors
    ///
    /// Returns an [`MlError`] when the hyper-parameters are invalid or the
    /// training data cannot be learned from (e.g. empty dataset).
    fn fit(&self, dataset: &Dataset, seed: u64) -> Result<Self::Model, MlError>;

    /// Fits on a resampled view of `dataset`: training row `i` is dataset
    /// row `rows[i]`, repeats allowed — the shape bootstrap resampling
    /// draws. Produces exactly the model `fit(&dataset.select(rows), seed)`
    /// would (the default does just that); tree-based learners override it
    /// with a zero-copy row view that shares the parent's columnar feature
    /// cache, so replicates cost index arrays instead of dataset copies.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Estimator::fit`].
    fn fit_resampled(
        &self,
        dataset: &Dataset,
        rows: &[usize],
        seed: u64,
    ) -> Result<Self::Model, MlError> {
        self.fit(&dataset.select(rows), seed)
    }

    /// The pre-optimisation training path, retained so the equivalence suite
    /// can compare against it. Tree-based
    /// learners override this with the per-node-sorting fitter and
    /// materialised bootstrap copies; learners with a single training path
    /// default to [`Estimator::fit`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Estimator::fit`].
    fn fit_reference(&self, dataset: &Dataset, seed: u64) -> Result<Self::Model, MlError> {
        self.fit(dataset, seed)
    }

    /// Short human-readable name of the learner (used in reports and figures).
    fn name(&self) -> &'static str;
}

/// Stable persistence tag of a trained model type.
///
/// The unified detector persistence format (`hmd_core::detector`) stores a
/// `backend` tag next to the serialised model so that a saved pipeline can be
/// restored to the right concrete type. The tag doubles as the model's
/// display name and must never change once released — saved models reference
/// it forever.
pub trait ModelTag {
    /// The persistence tag, e.g. `"random-forest"`.
    const TAG: &'static str;
}

/// Blanket implementation so boxed classifiers can be used wherever a
/// classifier is expected (the bagging ensemble stores base models directly,
/// but downstream code occasionally needs trait objects).
impl Classifier for Box<dyn Classifier> {
    fn predict_one(&self, features: &[f64]) -> Label {
        self.as_ref().predict_one(features)
    }

    fn predict_proba_one(&self, features: &[f64]) -> f64 {
        self.as_ref().predict_proba_one(features)
    }

    fn predict_with_proba_one(&self, features: &[f64]) -> (Label, f64) {
        self.as_ref().predict_with_proba_one(features)
    }

    fn predict_proba_batch(&self, batch: RowsView<'_>, out: &mut Vec<f64>) {
        self.as_ref().predict_proba_batch(batch, out);
    }

    fn predict_with_proba_batch(&self, batch: RowsView<'_>, out: &mut Vec<(Label, f64)>) {
        self.as_ref().predict_with_proba_batch(batch, out);
    }

    fn append_flat_group(&self, builder: &mut FlatForestBuilder) -> bool {
        self.as_ref().append_flat_group(builder)
    }

    fn input_width(&self) -> Option<usize> {
        self.as_ref().input_width()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmd_data::Matrix;

    struct Constant(Label);

    impl Classifier for Constant {
        fn predict_one(&self, _: &[f64]) -> Label {
            self.0
        }
    }

    #[test]
    fn default_proba_follows_hard_label() {
        assert_eq!(Constant(Label::Malware).predict_proba_one(&[0.0]), 1.0);
        assert_eq!(Constant(Label::Benign).predict_proba_one(&[0.0]), 0.0);
    }

    #[test]
    fn predict_maps_over_rows() {
        let m = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0]]).unwrap();
        let preds = Constant(Label::Benign).predict(&m);
        assert_eq!(preds, vec![Label::Benign; 3]);
    }

    #[test]
    fn boxed_classifier_delegates() {
        let boxed: Box<dyn Classifier> = Box::new(Constant(Label::Malware));
        assert_eq!(boxed.predict_one(&[1.0]), Label::Malware);
        assert_eq!(boxed.predict_proba_one(&[1.0]), 1.0);
    }
}
