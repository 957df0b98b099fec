//! Linear support vector machine trained with the Pegasos primal sub-gradient
//! solver, plus optional Platt-scaled probability outputs.
//!
//! The paper notes that bagging SVMs produces poor uncertainty estimates
//! because the convex objective gives nearly identical base classifiers on the
//! DVFS dataset, and that SVM training fails to converge on the bootstrapped
//! HPC dataset. Both behaviours are reproducible with this implementation.

use crate::logistic::sigmoid;
use crate::platt::PlattScaler;
use crate::{Classifier, Estimator, MlError, ModelTag};
use hmd_codec::{required, CodecError, Json, JsonCodec, Parser};
use hmd_data::{Dataset, Label};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Hyper-parameters of a [`LinearSvm`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearSvmParams {
    /// Regularisation strength λ of the Pegasos objective.
    pub lambda: f64,
    /// Number of passes over the training data.
    pub epochs: usize,
    /// When true, fit a Platt scaler on the training decision values so that
    /// [`Classifier::predict_proba_one`] returns calibrated probabilities.
    pub calibrate: bool,
    /// Abort training (reporting [`MlError::DidNotConverge`]) if the average
    /// hinge loss is still above this value after the final epoch. `None`
    /// disables the check. The paper's HPC experiment relies on this to mimic
    /// scikit-learn's convergence failure.
    pub convergence_loss_threshold: Option<f64>,
}

impl LinearSvmParams {
    /// Defaults: λ = 1e-3, 60 epochs, Platt calibration on, no convergence
    /// check.
    pub fn new() -> LinearSvmParams {
        LinearSvmParams {
            lambda: 1e-3,
            epochs: 60,
            calibrate: true,
            convergence_loss_threshold: None,
        }
    }

    /// Sets the regularisation strength.
    pub fn with_lambda(mut self, lambda: f64) -> Self {
        self.lambda = lambda;
        self
    }

    /// Sets the number of epochs.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Enables or disables Platt calibration of the probability output.
    pub fn with_calibration(mut self, calibrate: bool) -> Self {
        self.calibrate = calibrate;
        self
    }

    /// Requires the final average hinge loss to be below `threshold`.
    pub fn with_convergence_check(mut self, threshold: f64) -> Self {
        self.convergence_loss_threshold = Some(threshold);
        self
    }

    fn validate(&self) -> Result<(), MlError> {
        if self.lambda <= 0.0 || !self.lambda.is_finite() {
            return Err(MlError::InvalidHyperparameter {
                name: "lambda",
                message: format!("must be positive and finite, got {}", self.lambda),
            });
        }
        if self.epochs == 0 {
            return Err(MlError::InvalidHyperparameter {
                name: "epochs",
                message: "must be at least 1".into(),
            });
        }
        Ok(())
    }
}

impl Default for LinearSvmParams {
    fn default() -> Self {
        LinearSvmParams::new()
    }
}

impl JsonCodec for LinearSvmParams {
    fn to_json(&self) -> Json {
        Json::object(vec![
            ("lambda", self.lambda.to_json()),
            ("epochs", self.epochs.to_json()),
            ("calibrate", self.calibrate.to_json()),
            (
                "convergence_loss_threshold",
                self.convergence_loss_threshold.to_json(),
            ),
        ])
    }

    fn decode(parser: &mut Parser<'_>) -> Result<LinearSvmParams, CodecError> {
        let (mut lambda, mut epochs, mut calibrate, mut threshold) = (None, None, None, None);
        parser.object(
            [
                "lambda",
                "epochs",
                "calibrate",
                "convergence_loss_threshold",
            ],
            |parser, key| {
                match key {
                    0 => lambda = Some(parser.f64()?),
                    1 => epochs = Some(parser.usize()?),
                    2 => calibrate = Some(parser.bool()?),
                    _ => threshold = Some(Option::<f64>::decode(parser)?),
                }
                Ok(())
            },
        )?;
        Ok(LinearSvmParams {
            lambda: required(lambda, "lambda")?,
            epochs: required(epochs, "epochs")?,
            calibrate: required(calibrate, "calibrate")?,
            convergence_loss_threshold: required(threshold, "convergence_loss_threshold")?,
        })
    }
}

impl Estimator for LinearSvmParams {
    type Model = LinearSvm;

    fn fit(&self, dataset: &Dataset, seed: u64) -> Result<LinearSvm, MlError> {
        LinearSvm::fit(dataset, self, seed)
    }

    fn name(&self) -> &'static str {
        "linear-svm"
    }
}

/// A trained linear SVM.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearSvm {
    weights: Vec<f64>,
    bias: f64,
    platt: Option<PlattScaler>,
}

impl LinearSvm {
    /// Fits the SVM with the Pegasos solver.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidHyperparameter`] for invalid parameters,
    /// [`MlError::TrainingFailed`] when the training set contains a single
    /// class, and [`MlError::DidNotConverge`] when a convergence check is
    /// configured and fails.
    pub fn fit(
        dataset: &Dataset,
        params: &LinearSvmParams,
        seed: u64,
    ) -> Result<LinearSvm, MlError> {
        params.validate()?;
        let counts = dataset.class_counts();
        if counts[0] == 0 || counts[1] == 0 {
            return Err(MlError::TrainingFailed {
                message: "linear SVM requires both classes in the training set".into(),
            });
        }
        let n = dataset.len();
        let d = dataset.num_features();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut weights = vec![0.0; d];
        let mut bias = 0.0;
        let mut t: u64 = 0;

        for _ in 0..params.epochs {
            for _ in 0..n {
                t += 1;
                let i = rng.gen_range(0..n);
                let (row, label) = dataset.sample(i);
                let y = label.signed();
                let eta = 1.0 / (params.lambda * t as f64);
                let margin = y * (dot(&weights, row) + bias);
                // Pegasos sub-gradient step
                for w in weights.iter_mut() {
                    *w *= 1.0 - eta * params.lambda;
                }
                if margin < 1.0 {
                    for (w, &x) in weights.iter_mut().zip(row) {
                        *w += eta * y * x;
                    }
                    bias += eta * y;
                }
            }
        }

        if let Some(threshold) = params.convergence_loss_threshold {
            let avg_hinge: f64 = dataset
                .features()
                .iter_rows()
                .zip(dataset.labels())
                .map(|(row, l)| (1.0 - l.signed() * (dot(&weights, row) + bias)).max(0.0))
                .sum::<f64>()
                / n as f64;
            if avg_hinge > threshold {
                return Err(MlError::DidNotConverge {
                    learner: "linear-svm",
                    iterations: params.epochs * n,
                });
            }
        }

        let platt = if params.calibrate {
            let decisions: Vec<f64> = dataset
                .features()
                .iter_rows()
                .map(|row| dot(&weights, row) + bias)
                .collect();
            Some(PlattScaler::fit(&decisions, dataset.labels())?)
        } else {
            None
        };

        Ok(LinearSvm {
            weights,
            bias,
            platt,
        })
    }

    /// Fitted weight vector.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Fitted bias term.
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// Signed distance to the separating hyper-plane (unnormalised).
    pub fn decision_value(&self, features: &[f64]) -> f64 {
        dot(&self.weights, features) + self.bias
    }

    /// The fitted Platt scaler, when calibration was requested.
    pub fn platt(&self) -> Option<&PlattScaler> {
        self.platt.as_ref()
    }
}

impl ModelTag for LinearSvm {
    const TAG: &'static str = "linear-svm";
}

impl JsonCodec for LinearSvm {
    fn to_json(&self) -> Json {
        Json::object(vec![
            ("weights", self.weights.to_json()),
            ("bias", self.bias.to_json()),
            ("platt", self.platt.to_json()),
        ])
    }

    fn decode(parser: &mut Parser<'_>) -> Result<LinearSvm, CodecError> {
        let (mut weights, mut bias, mut platt) = (None, None, None);
        parser.object(["weights", "bias", "platt"], |parser, key| {
            match key {
                0 => weights = Some(Vec::decode(parser)?),
                1 => bias = Some(parser.f64()?),
                _ => platt = Some(Option::<PlattScaler>::decode(parser)?),
            }
            Ok(())
        })?;
        Ok(LinearSvm {
            weights: required(weights, "weights")?,
            bias: required(bias, "bias")?,
            platt: required(platt, "platt")?,
        })
    }
}

impl Classifier for LinearSvm {
    fn predict_one(&self, features: &[f64]) -> Label {
        Label::from(self.decision_value(features) >= 0.0)
    }

    fn predict_proba_one(&self, features: &[f64]) -> f64 {
        let d = self.decision_value(features);
        match &self.platt {
            Some(platt) => platt.probability(d),
            None => sigmoid(d),
        }
    }

    fn predict_with_proba_one(&self, features: &[f64]) -> (Label, f64) {
        // One dot product; the label keeps the margin rule (the calibrated
        // probability can cross 0.5 at a different point than the margin).
        let d = self.decision_value(features);
        let p = match &self.platt {
            Some(platt) => platt.probability(d),
            None => sigmoid(d),
        };
        (Label::from(d >= 0.0), p)
    }

    fn input_width(&self) -> Option<usize> {
        Some(self.weights.len())
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmd_data::Matrix;

    fn separable(n: usize, margin: f64, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n {
            let malware = rng.gen_bool(0.5);
            let offset = if malware { margin } else { -margin };
            rows.push(vec![
                offset + rng.gen_range(-0.3..0.3),
                offset + rng.gen_range(-0.3..0.3),
            ]);
            labels.push(Label::from(malware));
        }
        Dataset::new(Matrix::from_rows(&rows).unwrap(), labels).unwrap()
    }

    #[test]
    fn learns_separable_blobs() {
        let train = separable(300, 1.0, 1);
        let test = separable(100, 1.0, 2);
        let svm = LinearSvmParams::new().fit(&train, 0).unwrap();
        let acc = svm
            .predict(test.features())
            .iter()
            .zip(test.labels())
            .filter(|(p, l)| p == l)
            .count() as f64
            / test.len() as f64;
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn single_class_training_fails() {
        let rows = vec![vec![0.0], vec![1.0]];
        let ds = Dataset::new(
            Matrix::from_rows(&rows).unwrap(),
            vec![Label::Benign, Label::Benign],
        )
        .unwrap();
        let err = LinearSvmParams::new().fit(&ds, 0).unwrap_err();
        assert!(matches!(err, MlError::TrainingFailed { .. }));
    }

    #[test]
    fn convergence_check_triggers_on_inseparable_noise() {
        // Labels independent of features: hinge loss cannot go below ~1.
        let mut rng = StdRng::seed_from_u64(9);
        let rows: Vec<Vec<f64>> = (0..200)
            .map(|_| vec![rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)])
            .collect();
        let labels: Vec<Label> = (0..200).map(|_| Label::from(rng.gen_bool(0.5))).collect();
        let ds = Dataset::new(Matrix::from_rows(&rows).unwrap(), labels).unwrap();
        let err = LinearSvmParams::new()
            .with_epochs(5)
            .with_convergence_check(0.2)
            .fit(&ds, 0)
            .unwrap_err();
        assert!(matches!(err, MlError::DidNotConverge { .. }));
    }

    #[test]
    fn calibrated_probabilities_track_side_of_margin() {
        let train = separable(300, 1.5, 3);
        let svm = LinearSvmParams::new().fit(&train, 0).unwrap();
        assert!(svm.predict_proba_one(&[2.0, 2.0]) > 0.8);
        assert!(svm.predict_proba_one(&[-2.0, -2.0]) < 0.2);
    }

    #[test]
    fn uncalibrated_probability_falls_back_to_sigmoid() {
        let train = separable(100, 1.0, 4);
        let svm = LinearSvmParams::new()
            .with_calibration(false)
            .fit(&train, 0)
            .unwrap();
        assert!(svm.platt().is_none());
        let p = svm.predict_proba_one(&[0.0, 0.0]);
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn invalid_hyperparameters_rejected() {
        let ds = separable(20, 1.0, 5);
        assert!(LinearSvmParams::new().with_lambda(0.0).fit(&ds, 0).is_err());
        assert!(LinearSvmParams::new().with_epochs(0).fit(&ds, 0).is_err());
    }
}
