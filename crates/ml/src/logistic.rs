//! L2-regularised logistic regression trained by full-batch gradient descent.

use crate::{Classifier, Estimator, MlError, ModelTag};
use hmd_codec::{required, CodecError, Json, JsonCodec, Parser};
use hmd_data::{Dataset, Label};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Hyper-parameters of a [`LogisticRegression`] model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogisticRegressionParams {
    /// Gradient-descent step size.
    pub learning_rate: f64,
    /// Number of full-batch epochs.
    pub epochs: usize,
    /// L2 regularisation strength (0 disables regularisation).
    pub l2: f64,
    /// Stop early when the gradient norm falls below this value.
    pub tolerance: f64,
}

impl LogisticRegressionParams {
    /// Defaults: learning rate 0.1, 300 epochs, L2 = 1e-3.
    pub fn new() -> LogisticRegressionParams {
        LogisticRegressionParams {
            learning_rate: 0.1,
            epochs: 300,
            l2: 1e-3,
            tolerance: 1e-6,
        }
    }

    /// Sets the learning rate.
    pub fn with_learning_rate(mut self, lr: f64) -> Self {
        self.learning_rate = lr;
        self
    }

    /// Sets the number of epochs.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Sets the L2 regularisation strength.
    pub fn with_l2(mut self, l2: f64) -> Self {
        self.l2 = l2;
        self
    }

    fn validate(&self) -> Result<(), MlError> {
        if self.learning_rate <= 0.0 || !self.learning_rate.is_finite() {
            return Err(MlError::InvalidHyperparameter {
                name: "learning_rate",
                message: format!("must be positive and finite, got {}", self.learning_rate),
            });
        }
        if self.epochs == 0 {
            return Err(MlError::InvalidHyperparameter {
                name: "epochs",
                message: "must be at least 1".into(),
            });
        }
        if self.l2 < 0.0 {
            return Err(MlError::InvalidHyperparameter {
                name: "l2",
                message: format!("must be non-negative, got {}", self.l2),
            });
        }
        Ok(())
    }
}

impl Default for LogisticRegressionParams {
    fn default() -> Self {
        LogisticRegressionParams::new()
    }
}

impl JsonCodec for LogisticRegressionParams {
    fn to_json(&self) -> Json {
        Json::object(vec![
            ("learning_rate", self.learning_rate.to_json()),
            ("epochs", self.epochs.to_json()),
            ("l2", self.l2.to_json()),
            ("tolerance", self.tolerance.to_json()),
        ])
    }

    fn decode(parser: &mut Parser<'_>) -> Result<LogisticRegressionParams, CodecError> {
        let (mut learning_rate, mut epochs, mut l2, mut tolerance) = (None, None, None, None);
        parser.object(
            ["learning_rate", "epochs", "l2", "tolerance"],
            |parser, key| {
                match key {
                    0 => learning_rate = Some(parser.f64()?),
                    1 => epochs = Some(parser.usize()?),
                    2 => l2 = Some(parser.f64()?),
                    _ => tolerance = Some(parser.f64()?),
                }
                Ok(())
            },
        )?;
        Ok(LogisticRegressionParams {
            learning_rate: required(learning_rate, "learning_rate")?,
            epochs: required(epochs, "epochs")?,
            l2: required(l2, "l2")?,
            tolerance: required(tolerance, "tolerance")?,
        })
    }
}

impl Estimator for LogisticRegressionParams {
    type Model = LogisticRegression;

    fn fit(&self, dataset: &Dataset, seed: u64) -> Result<LogisticRegression, MlError> {
        LogisticRegression::fit(dataset, self, seed)
    }

    fn name(&self) -> &'static str {
        "logistic-regression"
    }
}

/// A trained logistic regression classifier.
///
/// # Example
///
/// ```
/// use hmd_data::{Dataset, Label, Matrix};
/// use hmd_ml::logistic::LogisticRegressionParams;
/// use hmd_ml::{Classifier, Estimator};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let x = Matrix::from_rows(&[vec![-1.0], vec![-0.8], vec![0.8], vec![1.0]])?;
/// let y = vec![Label::Benign, Label::Benign, Label::Malware, Label::Malware];
/// let model = LogisticRegressionParams::new().fit(&Dataset::new(x, y)?, 0)?;
/// assert!(model.predict_proba_one(&[1.5]) > 0.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogisticRegression {
    weights: Vec<f64>,
    bias: f64,
}

impl LogisticRegression {
    /// Fits the model by full-batch gradient descent.
    ///
    /// The `seed` controls the small random initialisation of the weights,
    /// which is what lets bagging produce diverse logistic base classifiers.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidHyperparameter`] for invalid parameters.
    pub fn fit(
        dataset: &Dataset,
        params: &LogisticRegressionParams,
        seed: u64,
    ) -> Result<LogisticRegression, MlError> {
        params.validate()?;
        let n = dataset.len();
        let d = dataset.num_features();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut weights: Vec<f64> = (0..d).map(|_| rng.gen_range(-0.01..0.01)).collect();
        let mut bias = 0.0;

        let targets: Vec<f64> = dataset
            .labels()
            .iter()
            .map(|l| if l.is_malware() { 1.0 } else { 0.0 })
            .collect();

        for _ in 0..params.epochs {
            let mut grad_w = vec![0.0; d];
            let mut grad_b = 0.0;
            for (row, &target) in dataset.features().iter_rows().zip(&targets) {
                let z = dot(&weights, row) + bias;
                let p = sigmoid(z);
                let err = p - target;
                for (g, &x) in grad_w.iter_mut().zip(row) {
                    *g += err * x;
                }
                grad_b += err;
            }
            let scale = 1.0 / n as f64;
            let mut grad_norm = 0.0;
            for (w, g) in weights.iter_mut().zip(&grad_w) {
                let g_total = g * scale + params.l2 * *w;
                *w -= params.learning_rate * g_total;
                grad_norm += g_total * g_total;
            }
            bias -= params.learning_rate * grad_b * scale;
            grad_norm += (grad_b * scale).powi(2);
            if grad_norm.sqrt() < params.tolerance {
                break;
            }
        }
        Ok(LogisticRegression { weights, bias })
    }

    /// Fitted weight vector.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Fitted bias term.
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// Raw decision value `w·x + b`.
    pub fn decision_value(&self, features: &[f64]) -> f64 {
        dot(&self.weights, features) + self.bias
    }
}

impl ModelTag for LogisticRegression {
    const TAG: &'static str = "logistic-regression";
}

impl JsonCodec for LogisticRegression {
    fn to_json(&self) -> Json {
        Json::object(vec![
            ("weights", self.weights.to_json()),
            ("bias", self.bias.to_json()),
        ])
    }

    fn decode(parser: &mut Parser<'_>) -> Result<LogisticRegression, CodecError> {
        let (mut weights, mut bias) = (None, None);
        parser.object(["weights", "bias"], |parser, key| {
            match key {
                0 => weights = Some(Vec::decode(parser)?),
                _ => bias = Some(parser.f64()?),
            }
            Ok(())
        })?;
        Ok(LogisticRegression {
            weights: required(weights, "weights")?,
            bias: required(bias, "bias")?,
        })
    }
}

impl Classifier for LogisticRegression {
    fn predict_one(&self, features: &[f64]) -> Label {
        Label::from(self.predict_proba_one(features) >= 0.5)
    }

    fn predict_proba_one(&self, features: &[f64]) -> f64 {
        sigmoid(self.decision_value(features))
    }

    fn predict_with_proba_one(&self, features: &[f64]) -> (Label, f64) {
        let p = self.predict_proba_one(features);
        (Label::from(p >= 0.5), p)
    }

    fn input_width(&self) -> Option<usize> {
        Some(self.weights.len())
    }
}

/// Numerically stable logistic sigmoid.
pub fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmd_data::Matrix;

    fn linear_dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n {
            let x: f64 = rng.gen_range(-2.0..2.0);
            let y: f64 = rng.gen_range(-2.0..2.0);
            rows.push(vec![x, y]);
            labels.push(Label::from(x + y > 0.0));
        }
        Dataset::new(Matrix::from_rows(&rows).unwrap(), labels).unwrap()
    }

    #[test]
    fn sigmoid_is_bounded_and_monotone() {
        assert!(sigmoid(-100.0) < 1e-6);
        assert!(sigmoid(100.0) > 1.0 - 1e-6);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(1.0) > sigmoid(-1.0));
    }

    #[test]
    fn learns_linearly_separable_data() {
        let train = linear_dataset(300, 1);
        let test = linear_dataset(100, 2);
        let model = LogisticRegressionParams::new()
            .with_epochs(500)
            .fit(&train, 0)
            .unwrap();
        let acc = model
            .predict(test.features())
            .iter()
            .zip(test.labels())
            .filter(|(p, l)| p == l)
            .count() as f64
            / test.len() as f64;
        assert!(acc > 0.93, "accuracy {acc}");
    }

    #[test]
    fn gradient_check_on_tiny_problem() {
        // Numerical gradient of the loss should roughly match the analytic
        // update direction: train one epoch and confirm loss decreases.
        let ds = linear_dataset(50, 3);
        let before = LogisticRegressionParams::new()
            .with_epochs(1)
            .fit(&ds, 0)
            .unwrap();
        let after = LogisticRegressionParams::new()
            .with_epochs(200)
            .fit(&ds, 0)
            .unwrap();
        let loss = |m: &LogisticRegression| -> f64 {
            ds.features()
                .iter_rows()
                .zip(ds.labels())
                .map(|(row, l)| {
                    let p = m.predict_proba_one(row).clamp(1e-12, 1.0 - 1e-12);
                    let t = if l.is_malware() { 1.0 } else { 0.0 };
                    -(t * p.ln() + (1.0 - t) * (1.0 - p).ln())
                })
                .sum::<f64>()
                / ds.len() as f64
        };
        assert!(loss(&after) < loss(&before));
    }

    #[test]
    fn invalid_hyperparameters_are_rejected() {
        let ds = linear_dataset(10, 4);
        assert!(LogisticRegressionParams::new()
            .with_learning_rate(0.0)
            .fit(&ds, 0)
            .is_err());
        assert!(LogisticRegressionParams::new()
            .with_epochs(0)
            .fit(&ds, 0)
            .is_err());
        assert!(LogisticRegressionParams::new()
            .with_l2(-1.0)
            .fit(&ds, 0)
            .is_err());
    }

    #[test]
    fn l2_shrinks_weights() {
        let ds = linear_dataset(200, 5);
        let free = LogisticRegressionParams::new()
            .with_l2(0.0)
            .fit(&ds, 0)
            .unwrap();
        let ridge = LogisticRegressionParams::new()
            .with_l2(1.0)
            .fit(&ds, 0)
            .unwrap();
        let norm = |w: &[f64]| w.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!(norm(ridge.weights()) < norm(free.weights()));
    }
}
