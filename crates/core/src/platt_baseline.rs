//! The Platt-scaling confidence baseline (Chawla et al.).
//!
//! Prior work estimated prediction confidence by passing a single
//! classifier's decision value through a Platt-scaled sigmoid and treating
//! the output probability as the model's confidence. The paper argues this is
//! misleading: a point estimate pushed through a logistic function can be
//! arbitrarily confident on inputs the model knows nothing about. This module
//! implements the baseline so the ablation benchmarks can compare it against
//! the ensemble-entropy estimator.

use crate::entropy::binary_entropy;
use crate::estimator::UncertainPrediction;
use crate::rejection::{RejectionCurve, RejectionPoint};
use crate::trusted::{
    preprocess_row, single_model_reports, validate_widths, Decision, DetectionReport,
};
use hmd_codec::{required, CodecError, Json, JsonCodec, Parser};
use hmd_data::scaler::StandardScaler;
use hmd_data::{Dataset, Label};
use hmd_ml::pca::Pca;
use hmd_ml::{Classifier, MlError};
use serde::{Deserialize, Serialize};

/// A single prediction of the confidence baseline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConfidencePrediction {
    /// Predicted label.
    pub label: Label,
    /// Calibrated malware probability.
    pub malware_probability: f64,
    /// Confidence: `max(p, 1 - p)`, the probability assigned to the predicted
    /// class.
    pub confidence: f64,
}

/// Confidence-based rejector built on any probabilistic classifier.
///
/// Predictions whose confidence falls below a threshold are rejected. The
/// classifier is typically a Platt-calibrated SVM or a logistic regression —
/// anything whose [`Classifier::predict_proba_one`] is meaningful.
#[derive(Debug, Clone, PartialEq)]
pub struct PlattConfidenceBaseline<M> {
    model: M,
}

impl<M: Classifier> PlattConfidenceBaseline<M> {
    /// Wraps a trained probabilistic classifier.
    pub fn new(model: M) -> PlattConfidenceBaseline<M> {
        PlattConfidenceBaseline { model }
    }

    /// The wrapped classifier.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Predicts one input with its confidence.
    pub fn predict_with_confidence(&self, features: &[f64]) -> ConfidencePrediction {
        let p = self.model.predict_proba_one(features).clamp(0.0, 1.0);
        ConfidencePrediction {
            label: Label::from(p >= 0.5),
            malware_probability: p,
            confidence: p.max(1.0 - p),
        }
    }

    /// Predictions for every sample of a dataset.
    pub fn predict_dataset(&self, dataset: &Dataset) -> Vec<ConfidencePrediction> {
        dataset
            .features()
            .iter_rows()
            .map(|row| self.predict_with_confidence(row))
            .collect()
    }

    /// Fraction of predictions whose confidence is below `threshold`.
    pub fn rejection_rate(predictions: &[ConfidencePrediction], threshold: f64) -> f64 {
        if predictions.is_empty() {
            return 0.0;
        }
        predictions
            .iter()
            .filter(|p| p.confidence < threshold)
            .count() as f64
            / predictions.len() as f64
    }

    /// Known/unknown rejection curve over confidence thresholds, shaped like
    /// the entropy-based [`RejectionCurve`] so the two can be compared
    /// directly in the ablation benchmarks.
    pub fn rejection_curve(
        model_name: impl Into<String>,
        known: &[ConfidencePrediction],
        unknown: &[ConfidencePrediction],
        confidence_thresholds: &[f64],
    ) -> RejectionCurve {
        let points = confidence_thresholds
            .iter()
            .map(|&threshold| RejectionPoint {
                threshold,
                known_rejected_pct: 100.0 * Self::rejection_rate(known, threshold),
                unknown_rejected_pct: 100.0 * Self::rejection_rate(unknown, threshold),
            })
            .collect();
        RejectionCurve {
            model_name: model_name.into(),
            points,
        }
    }
}

/// The confidence baseline as a full end-to-end pipeline: scaling → optional
/// PCA → one probabilistic classifier → confidence-driven accept/escalate
/// decision.
///
/// This is the deployable counterpart of [`PlattConfidenceBaseline`], shaped
/// like [`crate::trusted::TrustedHmd`] so all three detector families serve
/// behind the unified [`crate::detector::Detector`] API. The reported
/// "entropy" is the binary entropy `H(p)` of the model's malware
/// probability — monotone in the classical confidence `max(p, 1-p)`, so an
/// entropy threshold is exactly equivalent to a confidence threshold while
/// staying comparable with the ensemble estimator's numbers.
///
/// Calibration lives in the base learner: the linear SVM Platt-scales its
/// decision values by default, logistic regression is inherently
/// probabilistic, and tree learners emit near-binary leaf fractions (making
/// them a deliberately poor confidence baseline — the paper's criticism).
#[derive(Debug, Clone, PartialEq)]
pub struct PlattHmd<M> {
    scaler: StandardScaler,
    pca: Option<Pca>,
    model: M,
    entropy_threshold: f64,
}

impl<M: Classifier> PlattHmd<M> {
    pub(crate) fn from_parts(
        scaler: StandardScaler,
        pca: Option<Pca>,
        model: M,
        entropy_threshold: f64,
    ) -> PlattHmd<M> {
        PlattHmd {
            scaler,
            pca,
            model,
            entropy_threshold,
        }
    }

    /// The wrapped classifier.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// The entropy threshold above which predictions escalate.
    pub fn entropy_threshold(&self) -> f64 {
        self.entropy_threshold
    }

    /// Builds the report from the model's raw malware probability. The
    /// confidence baseline derives everything — label included — from that
    /// probability, so batch scoring only needs the probability channel.
    fn report_for_proba(&self, raw_proba: f64) -> DetectionReport {
        let p = raw_proba.clamp(0.0, 1.0);
        let prediction = UncertainPrediction {
            label: Label::from(p >= 0.5),
            malware_vote_fraction: p,
            entropy: binary_entropy(p),
            num_estimators: 1,
        };
        let decision = if prediction.entropy > self.entropy_threshold {
            Decision::Escalate
        } else {
            Decision::Accept(prediction.label)
        };
        DetectionReport {
            prediction,
            decision,
        }
    }

    /// Runs one raw (unscaled) signature through the pipeline.
    ///
    /// # Errors
    ///
    /// Returns an error when the feature vector has the wrong length.
    pub fn detect(&self, features: &[f64]) -> Result<DetectionReport, MlError> {
        let processed = preprocess_row(&self.scaler, &self.pca, features)?;
        Ok(self.report_for_proba(self.model.predict_proba_one(&processed)))
    }

    /// Runs a borrowed view of raw signature rows through the pipeline: one
    /// front end pass, one batch walk of the classifier (flat engine for tree
    /// backends), then the confidence decision per row.
    ///
    /// # Errors
    ///
    /// Returns an error when the batch's feature count does not match the
    /// training data.
    pub fn detect_batch<'a>(
        &self,
        batch: impl Into<hmd_data::RowsView<'a>>,
    ) -> Result<Vec<DetectionReport>, MlError> {
        single_model_reports(
            &self.scaler,
            &self.pca,
            &self.model,
            batch.into(),
            |(_, proba)| self.report_for_proba(proba),
        )
    }
}

impl<M: Classifier + JsonCodec> JsonCodec for PlattHmd<M> {
    fn to_json(&self) -> Json {
        Json::object(vec![
            ("scaler", self.scaler.to_json()),
            ("pca", self.pca.to_json()),
            ("model", self.model.to_json()),
            ("entropy_threshold", self.entropy_threshold.to_json()),
        ])
    }

    fn decode(parser: &mut Parser<'_>) -> Result<PlattHmd<M>, CodecError> {
        let (mut scaler, mut pca, mut model, mut threshold) = (None, None, None, None);
        parser.object(
            ["scaler", "pca", "model", "entropy_threshold"],
            |parser, key| {
                match key {
                    0 => scaler = Some(StandardScaler::decode(parser)?),
                    1 => pca = Some(Option::<Pca>::decode(parser)?),
                    2 => model = Some(M::decode(parser)?),
                    _ => threshold = Some(parser.f64()?),
                }
                Ok(())
            },
        )?;
        let (scaler, pca) = (required(scaler, "scaler")?, required(pca, "pca")?);
        let model = required(model, "model")?;
        validate_widths(&scaler, &pca, model.input_width(), "platt pipeline")?;
        Ok(PlattHmd {
            scaler,
            pca,
            model,
            entropy_threshold: required(threshold, "entropy_threshold")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmd_data::Matrix;
    use hmd_ml::logistic::LogisticRegressionParams;
    use hmd_ml::Estimator;

    fn trained_baseline() -> PlattConfidenceBaseline<hmd_ml::logistic::LogisticRegression> {
        let x = Matrix::from_rows(&[
            vec![-2.0],
            vec![-1.5],
            vec![-1.0],
            vec![1.0],
            vec![1.5],
            vec![2.0],
        ])
        .unwrap();
        let y = vec![
            Label::Benign,
            Label::Benign,
            Label::Benign,
            Label::Malware,
            Label::Malware,
            Label::Malware,
        ];
        let train = Dataset::new(x, y).unwrap();
        let model = LogisticRegressionParams::new()
            .with_epochs(800)
            .fit(&train, 0)
            .unwrap();
        PlattConfidenceBaseline::new(model)
    }

    #[test]
    fn confidence_is_probability_of_predicted_class() {
        let baseline = trained_baseline();
        let p = baseline.predict_with_confidence(&[2.5]);
        assert_eq!(p.label, Label::Malware);
        assert!((p.confidence - p.malware_probability).abs() < 1e-12);
        let n = baseline.predict_with_confidence(&[-2.5]);
        assert_eq!(n.label, Label::Benign);
        assert!((n.confidence - (1.0 - n.malware_probability)).abs() < 1e-12);
        assert!(p.confidence >= 0.5 && n.confidence >= 0.5);
    }

    #[test]
    fn irrationally_confident_far_from_training_data() {
        // The paper's criticism: a logistic point estimate is MORE confident
        // the further the input lies along the decision direction, even when
        // the input is nothing like the training data.
        let baseline = trained_baseline();
        let near = baseline.predict_with_confidence(&[2.0]).confidence;
        let far = baseline.predict_with_confidence(&[50.0]).confidence;
        assert!(
            far >= near,
            "far-away confidence {far} should not drop below {near}"
        );
        assert!(far > 0.95);
    }

    #[test]
    fn rejection_rate_counts_low_confidence_predictions() {
        let predictions = vec![
            ConfidencePrediction {
                label: Label::Benign,
                malware_probability: 0.45,
                confidence: 0.55,
            },
            ConfidencePrediction {
                label: Label::Malware,
                malware_probability: 0.95,
                confidence: 0.95,
            },
        ];
        type B = PlattConfidenceBaseline<hmd_ml::logistic::LogisticRegression>;
        assert_eq!(B::rejection_rate(&predictions, 0.6), 0.5);
        assert_eq!(B::rejection_rate(&predictions, 0.5), 0.0);
        assert_eq!(B::rejection_rate(&[], 0.9), 0.0);
    }

    #[test]
    fn rejection_curve_has_one_point_per_threshold() {
        let baseline = trained_baseline();
        let known_ds = Dataset::new(
            Matrix::from_rows(&[vec![-2.0], vec![2.0]]).unwrap(),
            vec![Label::Benign, Label::Malware],
        )
        .unwrap();
        let known = baseline.predict_dataset(&known_ds);
        let unknown = baseline.predict_dataset(&known_ds);
        let curve =
            PlattConfidenceBaseline::<hmd_ml::logistic::LogisticRegression>::rejection_curve(
                "platt",
                &known,
                &unknown,
                &[0.5, 0.7, 0.9, 0.99],
            );
        assert_eq!(curve.points.len(), 4);
        assert_eq!(curve.model_name, "platt");
    }
}
