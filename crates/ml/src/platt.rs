//! Platt scaling: logistic calibration of classifier decision values.
//!
//! The paper contrasts its entropy-based uncertainty with the prior approach
//! of Chawla et al., who interpret a Platt-scaled output probability as the
//! model's confidence. [`PlattScaler`] provides that baseline.

use crate::logistic::sigmoid;
use crate::MlError;
use hmd_codec::{required, CodecError, Json, JsonCodec, Parser};
use hmd_data::Label;
use serde::{Deserialize, Serialize};

/// The sigmoid `P(y = malware | d) = 1 / (1 + exp(A·d + B))` fitted to a set
/// of decision values, following Platt (1999) with the Lin et al. target
/// smoothing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlattScaler {
    a: f64,
    b: f64,
}

impl PlattScaler {
    /// Fits the scaler on decision values with their true labels.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::TrainingFailed`] when the slices are empty or of
    /// different lengths.
    pub fn fit(decision_values: &[f64], labels: &[Label]) -> Result<PlattScaler, MlError> {
        if decision_values.is_empty() || decision_values.len() != labels.len() {
            return Err(MlError::TrainingFailed {
                message: format!(
                    "Platt scaling needs matching non-empty inputs, got {} decisions and {} labels",
                    decision_values.len(),
                    labels.len()
                ),
            });
        }
        let n_pos = labels.iter().filter(|l| l.is_malware()).count() as f64;
        let n_neg = labels.len() as f64 - n_pos;
        // Smoothed targets recommended by Platt to avoid overfitting.
        let t_pos = (n_pos + 1.0) / (n_pos + 2.0);
        let t_neg = 1.0 / (n_neg + 2.0);
        let targets: Vec<f64> = labels
            .iter()
            .map(|l| if l.is_malware() { t_pos } else { t_neg })
            .collect();

        // Gradient descent on the negative log-likelihood of the calibrated
        // sigmoid; the 2-parameter problem is convex, so plain GD converges.
        let mut a = -1.0;
        let mut b = 0.0;
        let lr = 0.01;
        for _ in 0..2000 {
            let mut grad_a = 0.0;
            let mut grad_b = 0.0;
            for (&d, &t) in decision_values.iter().zip(&targets) {
                let p = sigmoid(-(a * d + b));
                let err = p - t;
                grad_a += err * -d;
                grad_b += -err;
            }
            let scale = 1.0 / decision_values.len() as f64;
            a -= lr * grad_a * scale;
            b -= lr * grad_b * scale;
        }
        Ok(PlattScaler { a, b })
    }

    /// The fitted slope `A`.
    pub fn slope(&self) -> f64 {
        self.a
    }

    /// The fitted intercept `B`.
    pub fn intercept(&self) -> f64 {
        self.b
    }

    /// Calibrated probability of the malware class for a raw decision value.
    pub fn probability(&self, decision_value: f64) -> f64 {
        sigmoid(-(self.a * decision_value + self.b))
    }
}

impl JsonCodec for PlattScaler {
    fn to_json(&self) -> Json {
        Json::object(vec![("a", self.a.to_json()), ("b", self.b.to_json())])
    }

    fn decode(parser: &mut Parser<'_>) -> Result<PlattScaler, CodecError> {
        let (mut a, mut b) = (None, None);
        parser.object(["a", "b"], |parser, key| {
            match key {
                0 => a = Some(parser.f64()?),
                _ => b = Some(parser.f64()?),
            }
            Ok(())
        })?;
        Ok(PlattScaler {
            a: required(a, "a")?,
            b: required(b, "b")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_rejects_mismatched_inputs() {
        assert!(PlattScaler::fit(&[], &[]).is_err());
        assert!(PlattScaler::fit(&[1.0], &[]).is_err());
    }

    #[test]
    fn calibration_is_monotone_in_decision_value() {
        let decisions: Vec<f64> = (-20..=20).map(|i| i as f64 / 5.0).collect();
        let labels: Vec<Label> = decisions.iter().map(|&d| Label::from(d > 0.0)).collect();
        let platt = PlattScaler::fit(&decisions, &labels).unwrap();
        assert!(platt.probability(3.0) > platt.probability(0.0));
        assert!(platt.probability(0.0) > platt.probability(-3.0));
    }

    #[test]
    fn separable_decisions_give_confident_probabilities() {
        let mut decisions = vec![];
        let mut labels = vec![];
        for i in 0..50 {
            decisions.push(2.0 + (i % 5) as f64 * 0.1);
            labels.push(Label::Malware);
            decisions.push(-2.0 - (i % 5) as f64 * 0.1);
            labels.push(Label::Benign);
        }
        let platt = PlattScaler::fit(&decisions, &labels).unwrap();
        assert!(platt.probability(2.5) > 0.75);
        assert!(platt.probability(-2.5) < 0.25);
    }

    #[test]
    fn probabilities_stay_in_unit_interval() {
        let decisions = vec![-5.0, -1.0, 0.0, 1.0, 5.0];
        let labels = vec![
            Label::Benign,
            Label::Benign,
            Label::Malware,
            Label::Malware,
            Label::Malware,
        ];
        let platt = PlattScaler::fit(&decisions, &labels).unwrap();
        for d in [-100.0, -1.0, 0.0, 1.0, 100.0] {
            let p = platt.probability(d);
            assert!((0.0..=1.0).contains(&p));
        }
    }
}
