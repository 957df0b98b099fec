//! End-to-end HMD pipelines.
//!
//! [`UntrustedHmd`] is the conventional black-box detector of Fig. 1 (top):
//! feature scaling, optional PCA, one classifier, always a binary verdict.
//! [`TrustedHmd`] is the paper's proposal (Fig. 1 bottom): the same front end
//! feeding a bagging ensemble whose vote dispersion yields a predictive
//! uncertainty, and a rejection policy that escalates uncertain inputs
//! instead of trusting them.

use crate::estimator::{EnsembleUncertaintyEstimator, UncertainPrediction};
use crate::platt_baseline::PlattHmd;
use crate::rejection::RejectionPolicy;
use hmd_codec::{required, CodecError, Json, JsonCodec, Parser};
use hmd_data::scaler::StandardScaler;
use hmd_data::{Dataset, Label, Matrix, RowsView};
use hmd_ml::bagging::BaggingParams;
use hmd_ml::pca::Pca;
use hmd_ml::{Classifier, Estimator, MlError};
use serde::{Deserialize, Serialize};

/// The decision a trusted HMD takes for one input.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Decision {
    /// The prediction was confident enough to act on.
    Accept(Label),
    /// The prediction was too uncertain; escalate the input (collect
    /// forensics, alert an analyst) instead of trusting the label.
    Escalate,
}

impl Decision {
    /// The accepted label, if any.
    pub fn label(&self) -> Option<Label> {
        match self {
            Decision::Accept(label) => Some(*label),
            Decision::Escalate => None,
        }
    }

    /// `true` when the decision is an escalation.
    pub fn is_escalation(&self) -> bool {
        matches!(self, Decision::Escalate)
    }
}

/// Outcome of running one signature through a [`TrustedHmd`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DetectionReport {
    /// The ensemble prediction with its uncertainty.
    pub prediction: UncertainPrediction,
    /// The decision after applying the rejection policy.
    pub decision: Decision,
}

/// Builder for [`TrustedHmd`] and [`UntrustedHmd`] pipelines.
#[derive(Debug, Clone, PartialEq)]
pub struct TrustedHmdBuilder<E> {
    base: E,
    num_estimators: usize,
    pca_components: Option<usize>,
    entropy_threshold: f64,
}

impl<E: Estimator> TrustedHmdBuilder<E> {
    /// Starts a builder around the given base estimator with the paper's
    /// defaults: 25 base classifiers, no PCA, entropy threshold 0.4.
    pub fn new(base: E) -> TrustedHmdBuilder<E> {
        TrustedHmdBuilder {
            base,
            num_estimators: 25,
            pca_components: None,
            entropy_threshold: 0.4,
        }
    }

    /// Sets the number of base classifiers in the bagging ensemble.
    #[must_use]
    pub fn with_num_estimators(mut self, n: usize) -> Self {
        self.num_estimators = n;
        self
    }

    /// Enables PCA dimensionality reduction to `components` dimensions.
    #[must_use]
    pub fn with_pca(mut self, components: usize) -> Self {
        self.pca_components = Some(components);
        self
    }

    /// Sets the entropy threshold of the rejection policy.
    #[must_use]
    pub fn with_entropy_threshold(mut self, threshold: f64) -> Self {
        self.entropy_threshold = threshold;
        self
    }

    /// Fits the shared preprocessing front end (scaler, optional PCA) and
    /// returns it with the transformed training set. Every pipeline family
    /// trains through this one code path.
    fn fit_front_end(
        &self,
        train: &Dataset,
    ) -> Result<(StandardScaler, Option<Pca>, Dataset), MlError> {
        let scaler = StandardScaler::fit(train.features());
        let scaled = scaler.transform_dataset(train)?;
        let (pca, reduced) = match self.pca_components {
            Some(components) => {
                let pca = Pca::fit(scaled.features(), components)?;
                let projected = pca.transform(scaled.features())?;
                let reduced = rebuild_dataset(&scaled, projected)?;
                (Some(pca), reduced)
            }
            None => (None, scaled),
        };
        Ok((scaler, pca, reduced))
    }

    /// Fits the trusted pipeline on a training dataset.
    ///
    /// # Errors
    ///
    /// Propagates scaling, PCA and ensemble-training errors.
    pub fn fit(&self, train: &Dataset, seed: u64) -> Result<TrustedHmd<E::Model>, MlError> {
        let (scaler, pca, reduced) = self.fit_front_end(train)?;
        let ensemble = BaggingParams::new(self.base.clone())
            .with_num_estimators(self.num_estimators)
            .fit(&reduced, seed)?;
        Ok(TrustedHmd {
            scaler,
            pca,
            estimator: EnsembleUncertaintyEstimator::new(ensemble),
            policy: RejectionPolicy::new(self.entropy_threshold),
        })
    }

    /// Fits the conventional (untrusted) baseline: the same front end with a
    /// single base classifier and no uncertainty output.
    ///
    /// # Errors
    ///
    /// Propagates scaling, PCA and training errors.
    pub fn fit_untrusted(
        &self,
        train: &Dataset,
        seed: u64,
    ) -> Result<UntrustedHmd<E::Model>, MlError> {
        let (scaler, pca, reduced) = self.fit_front_end(train)?;
        let model = self.base.fit(&reduced, seed)?;
        Ok(UntrustedHmd { scaler, pca, model })
    }

    /// Fits the confidence baseline: the same front end with a single
    /// probabilistic classifier whose output probability drives the
    /// accept/escalate decision (see [`crate::platt_baseline`]).
    ///
    /// Platt scaling happens inside the base learner where the backend
    /// supports it — the linear SVM calibrates by default; logistic
    /// regression is already a probabilistic model. Tree backends emit
    /// near-binary leaf probabilities and make a degenerate confidence
    /// baseline (entropy ≈ 0 everywhere), which is itself the paper's point
    /// about trusting point-estimate confidences.
    ///
    /// # Errors
    ///
    /// Propagates scaling, PCA and training errors.
    pub fn fit_platt(&self, train: &Dataset, seed: u64) -> Result<PlattHmd<E::Model>, MlError> {
        let (scaler, pca, reduced) = self.fit_front_end(train)?;
        let model = self.base.fit(&reduced, seed)?;
        Ok(PlattHmd::from_parts(
            scaler,
            pca,
            model,
            self.entropy_threshold,
        ))
    }
}

/// Applies a fitted front end (scaling, optional PCA) to a borrowed view of
/// raw signature rows at once — the entry point of every batch inference
/// path. The input stays zero-copy: only the scaled output is materialised.
pub(crate) fn preprocess_rows(
    scaler: &StandardScaler,
    pca: &Option<Pca>,
    batch: RowsView<'_>,
) -> Result<Matrix, MlError> {
    let scaled = scaler.transform(batch)?;
    match pca {
        Some(pca) => pca.transform(&scaled),
        None => Ok(scaled),
    }
}

/// Applies a fitted front end to one raw signature — the single-row
/// counterpart of [`preprocess_matrix`], shared by every per-window path.
pub(crate) fn preprocess_row(
    scaler: &StandardScaler,
    pca: &Option<Pca>,
    features: &[f64],
) -> Result<Vec<f64>, MlError> {
    let mut row = features.to_vec();
    scaler.transform_row(&mut row)?;
    match pca {
        Some(pca) => pca.transform_one(&row),
        None => Ok(row),
    }
}

/// The expected raw-signature width of a fitted front end, and the width the
/// model behind it must accept. Used by the persistence layer to reject
/// saved documents whose parts disagree on dimensionality (a mismatch would
/// panic or silently misclassify at detect time).
pub(crate) fn validate_widths(
    scaler: &StandardScaler,
    pca: &Option<Pca>,
    model_width: Option<usize>,
    context: &str,
) -> Result<(), CodecError> {
    let raw_width = scaler.means().len();
    let model_input = match pca {
        Some(pca) => {
            let (pca_in, pca_out) = (pca.input_width(), pca.num_components());
            if pca_in != raw_width {
                return Err(CodecError::new(format!(
                    "{context}: scaler expects {raw_width} features but PCA expects {pca_in}"
                )));
            }
            pca_out
        }
        None => raw_width,
    };
    match model_width {
        Some(width) if width != model_input => Err(CodecError::new(format!(
            "{context}: front end produces {model_input} features but model expects {width}"
        ))),
        _ => Ok(()),
    }
}

/// Shared batch path for the single-model pipelines (untrusted, Platt): one
/// front-end pass over the matrix, one batch walk of the classifier (served
/// by the flat engine for tree-based models), then a cheap per-row decision
/// mapping.
pub(crate) fn single_model_reports<M, F>(
    scaler: &StandardScaler,
    pca: &Option<Pca>,
    model: &M,
    batch: RowsView<'_>,
    report: F,
) -> Result<Vec<DetectionReport>, MlError>
where
    M: Classifier,
    F: Fn((Label, f64)) -> DetectionReport,
{
    let processed = preprocess_rows(scaler, pca, batch)?;
    let mut scored = Vec::new();
    model.predict_with_proba_batch(processed.view(), &mut scored);
    Ok(scored.into_iter().map(report).collect())
}

fn rebuild_dataset(original: &Dataset, features: hmd_data::Matrix) -> Result<Dataset, MlError> {
    let dataset = if original.meta().len() == original.len() {
        Dataset::with_meta(
            features,
            original.labels().to_vec(),
            original.meta().to_vec(),
        )
    } else {
        Dataset::new(features, original.labels().to_vec())
    };
    Ok(dataset?)
}

/// The paper's trusted HMD: scaling → optional PCA → bagging ensemble →
/// uncertainty estimate → accept/escalate decision.
#[derive(Debug, Clone, PartialEq)]
pub struct TrustedHmd<M> {
    scaler: StandardScaler,
    pca: Option<Pca>,
    estimator: EnsembleUncertaintyEstimator<M>,
    policy: RejectionPolicy,
}

impl<M: Classifier> TrustedHmd<M> {
    /// The uncertainty estimator (gives access to the underlying ensemble).
    pub fn estimator(&self) -> &EnsembleUncertaintyEstimator<M> {
        &self.estimator
    }

    /// The rejection policy currently in force.
    pub fn policy(&self) -> RejectionPolicy {
        self.policy
    }

    /// Replaces the rejection policy (e.g. after tuning the threshold on the
    /// known test set).
    pub fn set_policy(&mut self, policy: RejectionPolicy) {
        self.policy = policy;
    }

    fn preprocess(&self, features: &[f64]) -> Result<Vec<f64>, MlError> {
        preprocess_row(&self.scaler, &self.pca, features)
    }

    fn report_for_processed(&self, processed: &[f64]) -> DetectionReport {
        self.report_for_prediction(self.estimator.predict_with_uncertainty(processed))
    }

    fn report_for_prediction(&self, prediction: UncertainPrediction) -> DetectionReport {
        let decision = if self.policy.rejects(&prediction) {
            Decision::Escalate
        } else {
            Decision::Accept(prediction.label)
        };
        DetectionReport {
            prediction,
            decision,
        }
    }

    /// Runs one raw (unscaled) signature through the full pipeline.
    ///
    /// # Errors
    ///
    /// Returns an error when the feature vector has the wrong length.
    pub fn detect(&self, features: &[f64]) -> Result<DetectionReport, MlError> {
        let processed = self.preprocess(features)?;
        Ok(self.report_for_processed(&processed))
    }

    /// Runs a borrowed view of raw signature rows — a whole matrix, any row
    /// range of one, or a single-signature view — through the pipeline: the
    /// batch-first hot path.
    ///
    /// The front end (scaling, optional PCA) is applied to the view in one
    /// pass, then the ensemble's compiled flat engine scores all rows (tiled
    /// traversal, parallel across row blocks). Per-sample
    /// [`TrustedHmd::detect`] is the degenerate single-row case of this
    /// method and produces bit-identical reports.
    ///
    /// # Errors
    ///
    /// Returns an error when the batch's feature count does not match the
    /// training data.
    pub fn detect_batch<'a>(
        &self,
        batch: impl Into<RowsView<'a>>,
    ) -> Result<Vec<DetectionReport>, MlError> {
        let processed = preprocess_rows(&self.scaler, &self.pca, batch.into())?;
        let votes = self.estimator.ensemble().malware_votes_batch(&processed);
        Ok(self
            .estimator
            .map_vote_batch(votes, |prediction| self.report_for_prediction(prediction)))
    }

    /// Predictions with uncertainty for every sample of a raw dataset.
    ///
    /// # Errors
    ///
    /// Returns an error when the dataset's feature count does not match the
    /// training data.
    pub fn predict_dataset(&self, dataset: &Dataset) -> Result<Vec<UncertainPrediction>, MlError> {
        Ok(self
            .detect_batch(dataset.features())?
            .into_iter()
            .map(|report| report.prediction)
            .collect())
    }

    /// Entropy values for every sample of a raw dataset.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TrustedHmd::predict_dataset`].
    pub fn entropies(&self, dataset: &Dataset) -> Result<Vec<f64>, MlError> {
        Ok(self
            .predict_dataset(dataset)?
            .into_iter()
            .map(|p| p.entropy)
            .collect())
    }

    /// Applies the fitted preprocessing front end (scaling, optional PCA) to a
    /// raw dataset, returning features in the space the ensemble was trained
    /// on. Used by analyses that need direct access to the underlying
    /// [`EnsembleUncertaintyEstimator`], such as the ensemble-size sweep of
    /// Fig. 9a.
    ///
    /// # Errors
    ///
    /// Returns an error when the dataset's feature count does not match the
    /// training data.
    pub fn preprocess_dataset(&self, dataset: &Dataset) -> Result<Dataset, MlError> {
        let scaled = self.scaler.transform_dataset(dataset)?;
        match &self.pca {
            Some(pca) => {
                let projected = pca.transform(scaled.features())?;
                rebuild_dataset(&scaled, projected)
            }
            None => Ok(scaled),
        }
    }
}

/// The conventional black-box HMD: same front end, single classifier, no
/// uncertainty, never escalates.
#[derive(Debug, Clone, PartialEq)]
pub struct UntrustedHmd<M> {
    scaler: StandardScaler,
    pca: Option<Pca>,
    model: M,
}

impl<M: Classifier> UntrustedHmd<M> {
    /// The trained classifier.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Classifies one raw signature.
    ///
    /// # Errors
    ///
    /// Returns an error when the feature vector has the wrong length.
    pub fn detect(&self, features: &[f64]) -> Result<Label, MlError> {
        let processed = preprocess_row(&self.scaler, &self.pca, features)?;
        Ok(self.model.predict_one(&processed))
    }

    /// Classifies a borrowed view of raw signature rows in one pass (batch
    /// front end + parallel scoring). Named differently from the trait's
    /// report-producing `detect_batch` so concrete and `dyn Detector` callers
    /// never resolve the same spelling to different return types.
    ///
    /// # Errors
    ///
    /// Returns an error when the batch's feature count does not match the
    /// training data.
    pub fn predict_batch<'a>(&self, batch: impl Into<RowsView<'a>>) -> Result<Vec<Label>, MlError> {
        Ok(self
            .report_batch(batch)?
            .into_iter()
            .map(|report| report.prediction.label)
            .collect())
    }

    fn report_for_scored(&self, (label, malware_vote_fraction): (Label, f64)) -> DetectionReport {
        DetectionReport {
            prediction: UncertainPrediction {
                label,
                malware_vote_fraction,
                // A single black-box classifier reports no predictive
                // uncertainty — that is exactly the paper's criticism.
                entropy: 0.0,
                num_estimators: 1,
            },
            decision: Decision::Accept(label),
        }
    }

    fn report_for_processed(&self, processed: &[f64]) -> DetectionReport {
        self.report_for_scored(self.model.predict_with_proba_one(processed))
    }

    /// Runs one raw signature through the pipeline, shaped as a
    /// [`DetectionReport`] so the conventional detector can serve behind the
    /// unified [`crate::detector::Detector`] API. The report always accepts
    /// (this pipeline cannot escalate) and carries zero entropy.
    ///
    /// # Errors
    ///
    /// Returns an error when the feature vector has the wrong length.
    pub fn report(&self, features: &[f64]) -> Result<DetectionReport, MlError> {
        let processed = preprocess_row(&self.scaler, &self.pca, features)?;
        Ok(self.report_for_processed(&processed))
    }

    /// Batch variant of [`UntrustedHmd::report`]: one front-end pass, one
    /// batch walk of the classifier (flat engine for tree-based backends).
    ///
    /// # Errors
    ///
    /// Returns an error when the batch's feature count does not match the
    /// training data.
    pub fn report_batch<'a>(
        &self,
        batch: impl Into<RowsView<'a>>,
    ) -> Result<Vec<DetectionReport>, MlError> {
        single_model_reports(
            &self.scaler,
            &self.pca,
            &self.model,
            batch.into(),
            |scored| self.report_for_scored(scored),
        )
    }

    /// Classifies every sample of a raw dataset.
    ///
    /// # Errors
    ///
    /// Returns an error when the dataset's feature count does not match the
    /// training data.
    pub fn predict_dataset(&self, dataset: &Dataset) -> Result<Vec<Label>, MlError> {
        self.predict_batch(dataset.features())
    }
}

impl<M: Classifier + JsonCodec> JsonCodec for TrustedHmd<M> {
    fn to_json(&self) -> Json {
        Json::object(vec![
            ("scaler", self.scaler.to_json()),
            ("pca", self.pca.to_json()),
            ("ensemble", self.estimator.ensemble().to_json()),
            ("entropy_threshold", self.policy.entropy_threshold.to_json()),
        ])
    }

    fn decode(parser: &mut Parser<'_>) -> Result<TrustedHmd<M>, CodecError> {
        let (mut scaler, mut pca, mut ensemble, mut threshold) = (None, None, None, None);
        parser.object(
            ["scaler", "pca", "ensemble", "entropy_threshold"],
            |parser, key| {
                match key {
                    0 => scaler = Some(StandardScaler::decode(parser)?),
                    1 => pca = Some(Option::<Pca>::decode(parser)?),
                    2 => ensemble = Some(hmd_ml::bagging::BaggingEnsemble::<M>::decode(parser)?),
                    _ => threshold = Some(parser.f64()?),
                }
                Ok(())
            },
        )?;
        let (scaler, pca) = (required(scaler, "scaler")?, required(pca, "pca")?);
        let ensemble = required(ensemble, "ensemble")?;
        for estimator in ensemble.estimators() {
            validate_widths(&scaler, &pca, estimator.input_width(), "trusted pipeline")?;
        }
        Ok(TrustedHmd {
            scaler,
            pca,
            estimator: EnsembleUncertaintyEstimator::new(ensemble),
            policy: RejectionPolicy::new(required(threshold, "entropy_threshold")?),
        })
    }
}

impl<M: Classifier + JsonCodec> JsonCodec for UntrustedHmd<M> {
    fn to_json(&self) -> Json {
        Json::object(vec![
            ("scaler", self.scaler.to_json()),
            ("pca", self.pca.to_json()),
            ("model", self.model.to_json()),
        ])
    }

    fn decode(parser: &mut Parser<'_>) -> Result<UntrustedHmd<M>, CodecError> {
        let (mut scaler, mut pca, mut model) = (None, None, None);
        parser.object(["scaler", "pca", "model"], |parser, key| {
            match key {
                0 => scaler = Some(StandardScaler::decode(parser)?),
                1 => pca = Some(Option::<Pca>::decode(parser)?),
                _ => model = Some(M::decode(parser)?),
            }
            Ok(())
        })?;
        let (scaler, pca) = (required(scaler, "scaler")?, required(pca, "pca")?);
        let model = required(model, "model")?;
        validate_widths(&scaler, &pca, model.input_width(), "untrusted pipeline")?;
        Ok(UntrustedHmd { scaler, pca, model })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmd_data::Matrix;
    use hmd_ml::metrics::f1_score;
    use hmd_ml::tree::DecisionTreeParams;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn blobs(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n {
            let malware = rng.gen_bool(0.5);
            let c = if malware { 3.0 } else { -3.0 };
            rows.push(vec![
                c + rng.gen_range(-1.0..1.0),
                c + rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
            ]);
            labels.push(Label::from(malware));
        }
        Dataset::new(Matrix::from_rows(&rows).unwrap(), labels).unwrap()
    }

    #[test]
    fn trusted_pipeline_classifies_and_accepts_in_distribution_inputs() {
        let train = blobs(200, 1);
        let test = blobs(80, 2);
        let hmd = TrustedHmdBuilder::new(DecisionTreeParams::new().with_max_depth(6))
            .with_num_estimators(15)
            .fit(&train, 3)
            .unwrap();
        let predictions = hmd.predict_dataset(&test).unwrap();
        let labels: Vec<Label> = predictions.iter().map(|p| p.label).collect();
        assert!(f1_score(test.labels(), &labels) > 0.9);
        let accepted = predictions
            .iter()
            .filter(|p| !hmd.policy().rejects(p))
            .count();
        assert!(accepted as f64 / predictions.len() as f64 > 0.8);
    }

    #[test]
    fn far_out_of_distribution_input_is_escalated() {
        let train = blobs(200, 4);
        let hmd = TrustedHmdBuilder::new(DecisionTreeParams::new().with_max_depth(6))
            .with_num_estimators(25)
            .with_entropy_threshold(0.3)
            .fit(&train, 5)
            .unwrap();
        // A point exactly between the blobs where bootstrap replicates
        // disagree about which side of the boundary it falls on.
        let report = hmd.detect(&[0.0, 0.0, 0.0]).unwrap();
        assert!(report.prediction.entropy >= 0.0);
        // In-distribution point is accepted with the right label.
        let benign = hmd.detect(&[-3.0, -3.0, 0.0]).unwrap();
        assert_eq!(benign.decision, Decision::Accept(Label::Benign));
        assert!(benign.prediction.entropy < report.prediction.entropy + 1e-9);
    }

    #[test]
    fn pca_pipeline_round_trips_feature_count() {
        let train = blobs(150, 6);
        let hmd = TrustedHmdBuilder::new(DecisionTreeParams::new())
            .with_num_estimators(9)
            .with_pca(2)
            .fit(&train, 7)
            .unwrap();
        let report = hmd.detect(&[3.0, 3.0, 0.0]).unwrap();
        assert_eq!(report.prediction.num_estimators, 9);
        // wrong width is rejected
        assert!(hmd.detect(&[1.0]).is_err());
    }

    #[test]
    fn untrusted_baseline_never_escalates() {
        let train = blobs(150, 8);
        let test = blobs(50, 9);
        let untrusted = TrustedHmdBuilder::new(DecisionTreeParams::new())
            .fit_untrusted(&train, 1)
            .unwrap();
        let labels = untrusted.predict_dataset(&test).unwrap();
        assert_eq!(labels.len(), test.len());
        assert!(f1_score(test.labels(), &labels) > 0.85);
    }

    #[test]
    fn policy_can_be_retuned_after_training() {
        let train = blobs(100, 10);
        let mut hmd = TrustedHmdBuilder::new(DecisionTreeParams::new())
            .with_num_estimators(7)
            .fit(&train, 2)
            .unwrap();
        assert!((hmd.policy().entropy_threshold - 0.4).abs() < 1e-12);
        hmd.set_policy(RejectionPolicy::new(0.0));
        // with a zero threshold, anything with any disagreement escalates
        let report = hmd.detect(&[0.0, 0.0, 0.0]).unwrap();
        if report.prediction.entropy > 0.0 {
            assert!(report.decision.is_escalation());
            assert_eq!(report.decision.label(), None);
        }
    }

    #[test]
    fn decision_helpers_expose_label() {
        assert_eq!(
            Decision::Accept(Label::Malware).label(),
            Some(Label::Malware)
        );
        assert!(Decision::Escalate.is_escalation());
        assert!(!Decision::Accept(Label::Benign).is_escalation());
    }
}
