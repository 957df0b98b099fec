//! Hand-rolled classical machine learning substrate for the HMD uncertainty
//! workspace.
//!
//! The paper's evaluation pipeline is built on scikit-learn; the Rust ML
//! ecosystem offers no equivalent, so this crate re-implements every learner
//! and tool the paper needs from scratch:
//!
//! * [`tree::DecisionTree`] / [`forest::RandomForest`] — CART trees and
//!   bootstrap-aggregated forests.
//! * [`logistic::LogisticRegression`] — L2-regularised logistic regression.
//! * [`svm::LinearSvm`] — linear SVM trained with the Pegasos sub-gradient
//!   solver, with optional [`platt::PlattScaler`] probability calibration.
//! * [`bagging::BaggingEnsemble`] — Breiman bagging over any [`Estimator`],
//!   exposing the individual base classifiers exactly like scikit-learn's
//!   `estimators_` attribute (which the paper's uncertainty estimator reads).
//! * [`flat`] — the compiled inference engine: fitted tree models flatten
//!   into packed 24-byte split-node records ([`flat::FlatTree`],
//!   [`flat::FlatForest`]) that every batch hot path serves from, with
//!   bit-identical predictions to the nested training-time structures.
//! * [`fastfit`] — the presorted columnar training engine behind
//!   [`tree::DecisionTree::fit`]: each feature is sorted once per tree, the
//!   sorted index arrays are partitioned down the tree, features are read
//!   through the dataset's lazy column-major cache, and bootstrap replicates
//!   train as zero-copy row views — with trees bit-identical to the retained
//!   per-node-sorting reference fitter.
//! * [`metrics`] — accuracy, precision, recall, F1, ROC-AUC, confusion matrix.
//! * [`pca::Pca`] — principal component analysis via a Jacobi eigensolver.
//! * [`tsne::Tsne`] — exact t-SNE for the latent-space visualisations (Fig. 8).
//! * [`model_selection`] — k-fold cross validation.
//!
//! # Example
//!
//! ```
//! use hmd_data::{Dataset, Label, Matrix};
//! use hmd_ml::forest::RandomForestParams;
//! use hmd_ml::{Classifier, Estimator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let features = Matrix::from_rows(&[
//!     vec![0.1, 0.2], vec![0.2, 0.1], vec![0.9, 0.8], vec![0.8, 0.9],
//! ])?;
//! let labels = vec![Label::Benign, Label::Benign, Label::Malware, Label::Malware];
//! let train = Dataset::new(features, labels)?;
//! let forest = RandomForestParams::new().with_num_trees(11).fit(&train, 7)?;
//! assert_eq!(forest.predict_one(&[0.85, 0.95]), Label::Malware);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bagging;
mod error;
pub mod fastfit;
pub mod flat;
pub mod forest;
pub mod linalg;
pub mod logistic;
pub mod metrics;
pub mod model_selection;
pub mod pca;
pub mod platt;
pub mod svm;
mod traits;
pub mod tree;
pub mod tsne;

pub use error::MlError;
pub use traits::{Classifier, Estimator, ModelTag};
