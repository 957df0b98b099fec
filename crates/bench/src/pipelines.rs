//! Shared model pipelines used by every experiment: the three ensembles the
//! paper evaluates (Random Forest, Logistic Regression, SVM base classifiers)
//! trained behind the standard scaling front end.
//!
//! Every experiment goes through the unified [`Detector`] API: a
//! [`DetectorConfig`] describes the pipeline, [`DetectorConfig::fit`] compiles
//! it into a `Box<dyn Detector>`, and the batch hot path
//! [`DetectorExt::detect_batch`] produces the predictions behind every
//! figure.

use hmd_core::detector::{Detector, DetectorBackend, DetectorConfig, DetectorExt};
use hmd_core::estimator::UncertainPrediction;
use hmd_data::split::KnownUnknownSplit;
use hmd_ml::forest::RandomForestParams;
use hmd_ml::logistic::LogisticRegressionParams;
use hmd_ml::svm::LinearSvmParams;
use hmd_ml::tree::{DecisionTreeParams, MaxFeatures};
use hmd_ml::MlError;
use serde::{Deserialize, Serialize};

/// The base-classifier families evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BaseModel {
    /// Random-forest base classifiers (the paper's best performer).
    RandomForest,
    /// Logistic-regression base classifiers.
    LogisticRegression,
    /// Linear-SVM base classifiers (poor uncertainty on DVFS, fails to
    /// converge on HPC).
    Svm,
}

impl BaseModel {
    /// Short display name used in figures ("RF", "LR", "SVM").
    pub fn short_name(self) -> &'static str {
        match self {
            BaseModel::RandomForest => "RF",
            BaseModel::LogisticRegression => "LR",
            BaseModel::Svm => "SVM",
        }
    }

    /// All base models, in the order the paper lists them.
    pub fn all() -> [BaseModel; 3] {
        [
            BaseModel::RandomForest,
            BaseModel::LogisticRegression,
            BaseModel::Svm,
        ]
    }
}

/// Known/unknown prediction sets of one trained ensemble, the raw material of
/// every figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvaluatedEnsemble {
    /// Which base classifier the ensemble uses.
    pub model: BaseModel,
    /// Predictions (with uncertainty) on the known test set.
    pub known: Vec<UncertainPrediction>,
    /// Predictions (with uncertainty) on the unknown set.
    pub unknown: Vec<UncertainPrediction>,
    /// Ground-truth labels of the known test set.
    pub known_truth: Vec<hmd_data::Label>,
    /// Ground-truth labels of the unknown set.
    pub unknown_truth: Vec<hmd_data::Label>,
}

/// The [`DetectorBackend`] (with the experiments' hyper-parameters) behind a
/// paper base model.
pub fn backend_for(model: BaseModel, convergence_check: bool) -> DetectorBackend {
    match model {
        BaseModel::RandomForest => DetectorBackend::RandomForest(forest_params()),
        BaseModel::LogisticRegression => DetectorBackend::LogisticRegression(logistic_params()),
        BaseModel::Svm => DetectorBackend::LinearSvm(svm_params(convergence_check)),
    }
}

/// The trusted-pipeline [`DetectorConfig`] every experiment trains for the
/// given base model.
pub fn detector_config(
    model: BaseModel,
    num_estimators: usize,
    convergence_check: bool,
) -> DetectorConfig {
    DetectorConfig::trusted(backend_for(model, convergence_check))
        .with_num_estimators(num_estimators)
}

/// Trains the requested ensemble on a split and evaluates it on the known
/// test and unknown sets, going through the unified [`Detector`] API.
///
/// # Errors
///
/// Propagates training failures — in particular the SVM convergence failure
/// on HPC-style data, which the caller is expected to report rather than
/// panic on (the paper drops SVM from the HPC figures for this reason).
pub fn evaluate_ensemble(
    model: BaseModel,
    split: &KnownUnknownSplit,
    num_estimators: usize,
    convergence_check: bool,
    seed: u64,
) -> Result<EvaluatedEnsemble, MlError> {
    let detector =
        detector_config(model, num_estimators, convergence_check).fit(&split.train, seed)?;
    let (known, unknown) = predictions(detector.as_ref(), split)?;
    Ok(EvaluatedEnsemble {
        model,
        known,
        unknown,
        known_truth: split.test_known.labels().to_vec(),
        unknown_truth: split.unknown.labels().to_vec(),
    })
}

fn predictions(
    detector: &dyn Detector,
    split: &KnownUnknownSplit,
) -> Result<(Vec<UncertainPrediction>, Vec<UncertainPrediction>), MlError> {
    Ok((
        hmd_core::detector::predictions(&detector.detect_batch(split.test_known.features())?),
        hmd_core::detector::predictions(&detector.detect_batch(split.unknown.features())?),
    ))
}

/// Random-forest base-classifier parameters used throughout the experiments.
///
/// The base forests are deliberately small (3 deep trees): a large forest is
/// itself an ensemble and averages away the disagreement between bagging
/// replicates, which weakens the uncertainty signal the paper relies on.
pub fn forest_params() -> RandomForestParams {
    RandomForestParams::new()
        .with_num_trees(3)
        .with_tree_params(
            DecisionTreeParams::new()
                .with_max_depth(14)
                .with_max_features(MaxFeatures::Sqrt),
        )
}

/// Logistic-regression base-classifier parameters used throughout the
/// experiments.
pub fn logistic_params() -> LogisticRegressionParams {
    LogisticRegressionParams::new().with_epochs(200)
}

/// Linear-SVM base-classifier parameters; the convergence check reproduces
/// scikit-learn's failure on the bootstrapped HPC dataset.
pub fn svm_params(convergence_check: bool) -> LinearSvmParams {
    let params = LinearSvmParams::new().with_epochs(40);
    if convergence_check {
        params.with_convergence_check(0.5)
    } else {
        params
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_names_match_paper_labels() {
        assert_eq!(BaseModel::RandomForest.short_name(), "RF");
        assert_eq!(BaseModel::LogisticRegression.short_name(), "LR");
        assert_eq!(BaseModel::Svm.short_name(), "SVM");
        assert_eq!(BaseModel::all().len(), 3);
    }
}
