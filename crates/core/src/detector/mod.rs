//! The unified, batch-first detector API.
//!
//! The workspace trains three families of hardware-malware-detector
//! pipelines — the paper's [`TrustedHmd`] (ensemble + entropy + rejection),
//! the conventional [`UntrustedHmd`] black box, and the [`PlattHmd`]
//! confidence baseline — over four base learners. This module puts all of
//! them behind one polymorphic contract so that serving code, benchmarks and
//! examples are written once:
//!
//! * [`Detector`] — the object-safe inference trait. Its required hot path is
//!   [`Detector::detect_rows`], which scores a borrowed
//!   [`RowsView`] — a whole matrix, any row range of one,
//!   or a single borrowed signature — with zero input copies.
//!   [`Detector::detect`] is the provided single-window case, routed through
//!   a 1×d view of the caller's slice.
//! * [`DetectorExt::detect_batch`] — the ergonomic batch entry point: a
//!   blanket extension accepting `impl Into<RowsView>`, so existing
//!   `detector.detect_batch(&matrix)` call sites keep working unchanged.
//! * [`DetectorConfig`] — a serialisable description (kind × backend ×
//!   ensemble size × PCA × threshold) compiled by [`DetectorConfig::fit`]
//!   into a `Box<dyn Detector>`.
//! * [`save`] / [`load`] (and the `_file` variants) — persistence of fitted
//!   pipelines: train once, serve many times. Restored detectors reproduce
//!   **bit-identical** reports.
//! * [`MonitorSession`] — the online deployment loop: feed signatures one
//!   window (or one batch) at a time, keep running accept/escalate/entropy
//!   statistics. (The `hmd_serve` fleet wraps the same loop behind named,
//!   versioned, micro-batching endpoints.)
//!
//! # Example
//!
//! ```
//! use hmd_core::detector::{load, save, DetectorBackend, DetectorConfig, DetectorExt};
//! use hmd_data::{Dataset, Label, Matrix};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let x = Matrix::from_rows(&[
//!     vec![0.1, 0.2], vec![0.2, 0.1], vec![0.9, 0.8], vec![0.8, 0.9],
//! ])?;
//! let y = vec![Label::Benign, Label::Benign, Label::Malware, Label::Malware];
//! let train = Dataset::new(x, y)?;
//!
//! let config = DetectorConfig::trusted(DetectorBackend::decision_tree())
//!     .with_num_estimators(15)
//!     .with_entropy_threshold(0.4);
//! let detector = config.fit(&train, 7)?;
//!
//! // Persist the fitted pipeline and serve the restored copy.
//! let saved = save(detector.as_ref())?;
//! let restored = load(&saved)?;
//! let batch = Matrix::from_rows(&[vec![0.15, 0.15], vec![0.85, 0.85]])?;
//! let reports = restored.detect_batch(&batch)?;
//! assert_eq!(reports.len(), 2);
//! assert_eq!(reports, detector.detect_batch(&batch)?);
//! # Ok(())
//! # }
//! ```

mod session;

pub use session::{MonitorSession, MonitorStats};

use crate::platt_baseline::PlattHmd;
use crate::trusted::{DetectionReport, TrustedHmd, TrustedHmdBuilder, UntrustedHmd};
use hmd_codec::{required, CodecError, Json, JsonCodec, Parser};
use hmd_data::{Dataset, Label, RowsView};
use hmd_ml::forest::{RandomForest, RandomForestParams};
use hmd_ml::logistic::{LogisticRegression, LogisticRegressionParams};
use hmd_ml::svm::{LinearSvm, LinearSvmParams};
use hmd_ml::tree::{DecisionTree, DecisionTreeParams};
use hmd_ml::{Classifier, Estimator, MlError, ModelTag};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::fmt;
use std::path::Path;

/// Version tag written into every saved detector document.
const FORMAT: &str = "hmd-detector";
const VERSION: i64 = 1;

/// An online hardware malware detector: raw signature(s) in, decision(s) out.
///
/// The trait is object-safe; production code passes detectors around as
/// `Box<dyn Detector>` and never mentions the concrete pipeline or base
/// learner again. All built-in implementations are batch-first and
/// **view-first**: [`Detector::detect_rows`] scores a borrowed
/// [`RowsView`] — a whole matrix, any row range of one, or one borrowed
/// signature — applying the preprocessing front end once and scoring rows in
/// parallel. Prefer the batch path whenever more than one window is
/// available; `&Matrix` callers go through [`DetectorExt::detect_batch`].
pub trait Detector: Send + Sync {
    /// Human-readable description, e.g. `trusted[25x random-forest]`.
    fn name(&self) -> String;

    /// The entropy threshold above which this detector escalates (the
    /// conventional pipeline never escalates and reports `f64::INFINITY`).
    fn entropy_threshold(&self) -> f64;

    /// Scores a borrowed view of raw signature rows — the object-safe hot
    /// path. One report per view row, in row order.
    ///
    /// # Errors
    ///
    /// Returns an error when the view's feature count does not match the
    /// training data.
    fn detect_rows(&self, batch: RowsView<'_>) -> Result<Vec<DetectionReport>, MlError>;

    /// Scores one raw (unscaled) signature.
    ///
    /// The default wraps the slice in a zero-copy 1×d [`RowsView`] and routes
    /// it through [`Detector::detect_rows`], so single-row scoring shares the
    /// batch path bit for bit and copies nothing on the way in.
    ///
    /// # Errors
    ///
    /// Returns an error when the feature vector has the wrong length.
    fn detect(&self, features: &[f64]) -> Result<DetectionReport, MlError> {
        let mut reports = self.detect_rows(RowsView::single(features))?;
        reports.pop().ok_or_else(|| MlError::ContractViolation {
            message: "detect_rows returned no report for a 1-row view".into(),
        })
    }

    /// Serialises the fitted pipeline as a tagged document, when this
    /// implementation supports persistence. Built-in detectors all do;
    /// third-party implementations may return `None`.
    fn to_saved_json(&self) -> Option<Json> {
        None
    }
}

/// Ergonomic batch entry points for every [`Detector`], including trait
/// objects.
///
/// The core trait stays object-safe by taking the concrete [`RowsView`]
/// type; this blanket extension restores the convenient generic signature,
/// so `detector.detect_batch(&matrix)`, `detector.detect_batch(view)` and
/// `detector.detect_batch(matrix.rows_view(a..b))` all work on `dyn
/// Detector` without copies.
pub trait DetectorExt: Detector {
    /// Scores anything convertible to a borrowed row view — `&Matrix`, a
    /// [`RowsView`], or a row range of a matrix.
    ///
    /// # Errors
    ///
    /// Returns an error when the batch's feature count does not match the
    /// training data.
    fn detect_batch<'a>(
        &self,
        batch: impl Into<RowsView<'a>>,
    ) -> Result<Vec<DetectionReport>, MlError> {
        self.detect_rows(batch.into())
    }
}

impl<D: Detector + ?Sized> DetectorExt for D {}

/// Projects batch reports down to their uncertainty predictions — the shape
/// the rejection-curve, F1 and entropy analyses consume. Borrows the reports
/// (they are `Copy`), so callers keep ownership of the full envelope.
pub fn predictions(reports: &[DetectionReport]) -> Vec<crate::estimator::UncertainPrediction> {
    reports.iter().map(|report| report.prediction).collect()
}

fn saved_document(kind: &str, backend: &str, model: Json) -> Json {
    Json::object(vec![
        ("format", Json::Str(FORMAT.to_string())),
        ("version", Json::Int(VERSION)),
        ("kind", Json::Str(kind.to_string())),
        ("backend", Json::Str(backend.to_string())),
        ("model", model),
    ])
}

impl<M> Detector for TrustedHmd<M>
where
    M: Classifier + ModelTag + JsonCodec,
{
    fn name(&self) -> String {
        format!("trusted[{}x {}]", self.estimator().num_estimators(), M::TAG)
    }

    fn entropy_threshold(&self) -> f64 {
        self.policy().entropy_threshold
    }

    fn detect_rows(&self, batch: RowsView<'_>) -> Result<Vec<DetectionReport>, MlError> {
        TrustedHmd::detect_batch(self, batch)
    }

    fn to_saved_json(&self) -> Option<Json> {
        Some(saved_document("trusted", M::TAG, JsonCodec::to_json(self)))
    }
}

impl<M> Detector for UntrustedHmd<M>
where
    M: Classifier + ModelTag + JsonCodec,
{
    fn name(&self) -> String {
        format!("untrusted[{}]", M::TAG)
    }

    fn entropy_threshold(&self) -> f64 {
        // The conventional pipeline accepts everything.
        f64::INFINITY
    }

    fn detect_rows(&self, batch: RowsView<'_>) -> Result<Vec<DetectionReport>, MlError> {
        self.report_batch(batch)
    }

    fn to_saved_json(&self) -> Option<Json> {
        Some(saved_document(
            "untrusted",
            M::TAG,
            JsonCodec::to_json(self),
        ))
    }
}

impl<M> Detector for PlattHmd<M>
where
    M: Classifier + ModelTag + JsonCodec,
{
    fn name(&self) -> String {
        format!("platt[{}]", M::TAG)
    }

    fn entropy_threshold(&self) -> f64 {
        PlattHmd::entropy_threshold(self)
    }

    fn detect_rows(&self, batch: RowsView<'_>) -> Result<Vec<DetectionReport>, MlError> {
        PlattHmd::detect_batch(self, batch)
    }

    fn to_saved_json(&self) -> Option<Json> {
        Some(saved_document("platt", M::TAG, JsonCodec::to_json(self)))
    }
}

/// Which pipeline family a [`DetectorConfig`] builds.
///
/// Marked `#[non_exhaustive]`: the serving layer is expected to grow pipeline
/// families (sharded, cascaded, …) without breaking downstream matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum DetectorKind {
    /// The paper's pipeline: bagging ensemble + entropy + rejection policy.
    Trusted,
    /// The conventional black box: one classifier, never escalates.
    Untrusted,
    /// The Platt-scaling confidence baseline the paper argues against.
    PlattBaseline,
}

impl DetectorKind {
    fn tag(self) -> &'static str {
        match self {
            DetectorKind::Trusted => "trusted",
            DetectorKind::Untrusted => "untrusted",
            DetectorKind::PlattBaseline => "platt",
        }
    }

    fn from_tag(tag: &str) -> Result<DetectorKind, CodecError> {
        match tag {
            "trusted" => Ok(DetectorKind::Trusted),
            "untrusted" => Ok(DetectorKind::Untrusted),
            "platt" => Ok(DetectorKind::PlattBaseline),
            other => Err(CodecError::new(format!("unknown detector kind `{other}`"))),
        }
    }
}

/// The base learner (with its hyper-parameters) a [`DetectorConfig`] trains.
///
/// Marked `#[non_exhaustive]` so new base learners can be added without a
/// breaking change; downstream matches need a wildcard arm.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum DetectorBackend {
    /// CART decision trees.
    DecisionTree(DecisionTreeParams),
    /// Random forests (the paper's best performer).
    RandomForest(RandomForestParams),
    /// L2-regularised logistic regression.
    LogisticRegression(LogisticRegressionParams),
    /// Pegasos linear SVM with optional Platt calibration.
    LinearSvm(LinearSvmParams),
}

impl DetectorBackend {
    /// Decision-tree backend with default parameters.
    pub fn decision_tree() -> DetectorBackend {
        DetectorBackend::DecisionTree(DecisionTreeParams::new())
    }

    /// Random-forest backend with default parameters.
    pub fn random_forest() -> DetectorBackend {
        DetectorBackend::RandomForest(RandomForestParams::new())
    }

    /// Logistic-regression backend with default parameters.
    pub fn logistic_regression() -> DetectorBackend {
        DetectorBackend::LogisticRegression(LogisticRegressionParams::new())
    }

    /// Linear-SVM backend with default parameters.
    pub fn linear_svm() -> DetectorBackend {
        DetectorBackend::LinearSvm(LinearSvmParams::new())
    }

    /// The backend `tag` names, its parameters decoded from `parser`.
    fn with_params(tag: &str, parser: &mut Parser<'_>) -> Result<DetectorBackend, CodecError> {
        match tag {
            t if t == DecisionTree::TAG => Ok(DetectorBackend::DecisionTree(
                DecisionTreeParams::decode(parser)?,
            )),
            t if t == RandomForest::TAG => Ok(DetectorBackend::RandomForest(
                RandomForestParams::decode(parser)?,
            )),
            t if t == LogisticRegression::TAG => Ok(DetectorBackend::LogisticRegression(
                LogisticRegressionParams::decode(parser)?,
            )),
            t if t == LinearSvm::TAG => {
                Ok(DetectorBackend::LinearSvm(LinearSvmParams::decode(parser)?))
            }
            other => Err(CodecError::new(format!("unknown backend `{other}`"))),
        }
    }

    /// The backend's stable persistence tag.
    pub fn tag(&self) -> &'static str {
        match self {
            DetectorBackend::DecisionTree(_) => DecisionTree::TAG,
            DetectorBackend::RandomForest(_) => RandomForest::TAG,
            DetectorBackend::LogisticRegression(_) => LogisticRegression::TAG,
            DetectorBackend::LinearSvm(_) => LinearSvm::TAG,
        }
    }
}

impl JsonCodec for DetectorBackend {
    fn to_json(&self) -> Json {
        let params = match self {
            DetectorBackend::DecisionTree(p) => p.to_json(),
            DetectorBackend::RandomForest(p) => p.to_json(),
            DetectorBackend::LogisticRegression(p) => p.to_json(),
            DetectorBackend::LinearSvm(p) => p.to_json(),
        };
        Json::object(vec![
            ("backend", Json::Str(self.tag().to_string())),
            ("params", params),
        ])
    }

    /// `params` is read by the type its `backend` tag names, so when it
    /// comes first its bytes are kept until the tag is known.
    fn decode(parser: &mut Parser<'_>) -> Result<DetectorBackend, CodecError> {
        let (mut tag, mut backend, mut early_params) = (None, None, None);
        parser.object(["backend", "params"], |parser, key| {
            match (key, &tag) {
                (0, _) => tag = Some(parser.string()?),
                (_, Some(tag)) => backend = Some(DetectorBackend::with_params(tag, parser)?),
                (_, None) => early_params = Some(parser.raw_value()?),
            }
            Ok(())
        })?;
        if let Some(backend) = backend {
            return Ok(backend);
        }
        let mut params = Parser::new(required(early_params, "params")?);
        let backend = DetectorBackend::with_params(&required(tag, "backend")?, &mut params)?;
        params.finish()?;
        Ok(backend)
    }
}

/// A serialisable description of a detector: everything needed to train it,
/// in one value.
///
/// Configs compile heterogeneous pipeline × learner combinations into the
/// single [`Detector`] contract: `config.fit(&train, seed)` returns a
/// `Box<dyn Detector>` regardless of which of the twelve combinations was
/// requested.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectorConfig {
    /// Which pipeline family to build.
    pub kind: DetectorKind,
    /// Which base learner to train.
    pub backend: DetectorBackend,
    /// Ensemble size (used by [`DetectorKind::Trusted`] only).
    pub num_estimators: usize,
    /// Optional PCA dimensionality reduction in the front end.
    pub pca_components: Option<usize>,
    /// Entropy threshold of the rejection policy (ignored by
    /// [`DetectorKind::Untrusted`], which never escalates).
    pub entropy_threshold: f64,
}

impl DetectorConfig {
    /// A trusted-pipeline config with the paper's defaults (25 base
    /// classifiers, no PCA, threshold 0.4).
    pub fn trusted(backend: DetectorBackend) -> DetectorConfig {
        DetectorConfig {
            kind: DetectorKind::Trusted,
            backend,
            num_estimators: 25,
            pca_components: None,
            entropy_threshold: 0.4,
        }
    }

    /// A conventional black-box config.
    pub fn untrusted(backend: DetectorBackend) -> DetectorConfig {
        DetectorConfig {
            kind: DetectorKind::Untrusted,
            ..DetectorConfig::trusted(backend)
        }
    }

    /// A Platt confidence-baseline config.
    pub fn platt(backend: DetectorBackend) -> DetectorConfig {
        DetectorConfig {
            kind: DetectorKind::PlattBaseline,
            ..DetectorConfig::trusted(backend)
        }
    }

    /// Sets the ensemble size.
    #[must_use]
    pub fn with_num_estimators(mut self, n: usize) -> Self {
        self.num_estimators = n;
        self
    }

    /// Enables PCA reduction to `components` dimensions.
    #[must_use]
    pub fn with_pca(mut self, components: usize) -> Self {
        self.pca_components = Some(components);
        self
    }

    /// Sets the rejection policy's entropy threshold.
    #[must_use]
    pub fn with_entropy_threshold(mut self, threshold: f64) -> Self {
        self.entropy_threshold = threshold;
        self
    }

    /// Trains the configured detector.
    ///
    /// # Errors
    ///
    /// Propagates training failures — notably the SVM convergence failure the
    /// paper reports on bootstrapped HPC data.
    pub fn fit(&self, train: &Dataset, seed: u64) -> Result<Box<dyn Detector>, MlError> {
        match &self.backend {
            DetectorBackend::DecisionTree(p) => self.fit_backend(p.clone(), train, seed),
            DetectorBackend::RandomForest(p) => self.fit_backend(p.clone(), train, seed),
            DetectorBackend::LogisticRegression(p) => self.fit_backend(p.clone(), train, seed),
            DetectorBackend::LinearSvm(p) => self.fit_backend(p.clone(), train, seed),
        }
    }

    /// Refits the configured pipeline on a window of recent rows — the
    /// retrain entry point of the closed serving loop.
    ///
    /// The borrowed `window` (any stride-aware row view: a sliding buffer,
    /// a matrix slice) is materialised into one owned [`Dataset`], so the
    /// fast-fit trainer's per-dataset derived caches (`columnar()` column
    /// gathers and `presorted_rows()` sort orders) are built lazily **once**
    /// and shared across every estimator of the ensemble, exactly as in
    /// [`DetectorConfig::fit`]. The result is bit-identical to a from-scratch
    /// `fit` on the same rows, labels and seed.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::Data`] when `labels.len()` does not match the
    /// window's row count, and propagates training failures like
    /// [`DetectorConfig::fit`].
    pub fn refit_on_window(
        &self,
        window: &RowsView<'_>,
        labels: &[Label],
        seed: u64,
    ) -> Result<Box<dyn Detector>, MlError> {
        let train = Dataset::new(window.to_matrix(), labels.to_vec())?;
        self.fit(&train, seed)
    }

    fn fit_backend<E>(
        &self,
        base: E,
        train: &Dataset,
        seed: u64,
    ) -> Result<Box<dyn Detector>, MlError>
    where
        E: Estimator,
        E::Model: Classifier + ModelTag + JsonCodec + Clone + 'static,
    {
        let mut builder = TrustedHmdBuilder::new(base)
            .with_num_estimators(self.num_estimators)
            .with_entropy_threshold(self.entropy_threshold);
        if let Some(components) = self.pca_components {
            builder = builder.with_pca(components);
        }
        Ok(match self.kind {
            DetectorKind::Trusted => Box::new(builder.fit(train, seed)?),
            DetectorKind::Untrusted => Box::new(builder.fit_untrusted(train, seed)?),
            DetectorKind::PlattBaseline => Box::new(builder.fit_platt(train, seed)?),
        })
    }
}

impl JsonCodec for DetectorConfig {
    fn to_json(&self) -> Json {
        Json::object(vec![
            ("kind", Json::Str(self.kind.tag().to_string())),
            ("backend", self.backend.to_json()),
            ("num_estimators", self.num_estimators.to_json()),
            ("pca_components", self.pca_components.to_json()),
            ("entropy_threshold", self.entropy_threshold.to_json()),
        ])
    }

    fn decode(parser: &mut Parser<'_>) -> Result<DetectorConfig, CodecError> {
        let (mut kind, mut backend, mut num_estimators) = (None, None, None);
        let (mut pca_components, mut entropy_threshold) = (None, None);
        parser.object(
            [
                "kind",
                "backend",
                "num_estimators",
                "pca_components",
                "entropy_threshold",
            ],
            |parser, key| {
                match key {
                    0 => kind = Some(DetectorKind::from_tag(&parser.string()?)?),
                    1 => backend = Some(DetectorBackend::decode(parser)?),
                    2 => num_estimators = Some(parser.usize()?),
                    3 => pca_components = Some(Option::<usize>::decode(parser)?),
                    _ => entropy_threshold = Some(parser.f64()?),
                }
                Ok(())
            },
        )?;
        Ok(DetectorConfig {
            kind: required(kind, "kind")?,
            backend: required(backend, "backend")?,
            num_estimators: required(num_estimators, "num_estimators")?,
            pca_components: required(pca_components, "pca_components")?,
            entropy_threshold: required(entropy_threshold, "entropy_threshold")?,
        })
    }
}

/// Errors of the persistence layer.
///
/// Marked `#[non_exhaustive]`: the fleet layer can introduce new failure
/// modes (endpoint registry, version conflicts) without breaking downstream
/// matches.
#[derive(Debug)]
#[non_exhaustive]
pub enum DetectorError {
    /// The detector implementation does not support persistence.
    Unsupported {
        /// Name of the offending detector.
        name: String,
    },
    /// The document was syntactically or structurally invalid.
    Codec(CodecError),
    /// The document carries an unknown format or version tag.
    Format {
        /// Explanation.
        message: String,
    },
    /// Reading or writing the file failed.
    Io(std::io::Error),
}

impl fmt::Display for DetectorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DetectorError::Unsupported { name } => {
                write!(f, "detector `{name}` does not support persistence")
            }
            DetectorError::Codec(err) => write!(f, "{err}"),
            DetectorError::Format { message } => write!(f, "format error: {message}"),
            DetectorError::Io(err) => write!(f, "io error: {err}"),
        }
    }
}

impl std::error::Error for DetectorError {}

impl From<CodecError> for DetectorError {
    fn from(err: CodecError) -> DetectorError {
        DetectorError::Codec(err)
    }
}

impl From<std::io::Error> for DetectorError {
    fn from(err: std::io::Error) -> DetectorError {
        DetectorError::Io(err)
    }
}

/// Serialises a fitted detector to its JSON document.
///
/// # Errors
///
/// Returns [`DetectorError::Unsupported`] for detector implementations
/// without persistence support.
pub fn save(detector: &dyn Detector) -> Result<String, DetectorError> {
    match detector.to_saved_json() {
        Some(json) => Ok(json.to_string()),
        None => Err(DetectorError::Unsupported {
            name: detector.name(),
        }),
    }
}

/// Restores a detector saved by [`save`]. The restored pipeline produces
/// bit-identical reports.
///
/// # Errors
///
/// Returns a [`DetectorError`] when the document is malformed, carries an
/// unknown format/version/kind/backend tag, or describes an inconsistent
/// model.
pub fn load(text: &str) -> Result<Box<dyn Detector>, DetectorError> {
    // One pass over the bytes. The model is read by the type its tags name:
    // in place when the tags come first (as `save` writes them), otherwise
    // kept as bytes until the whole document has been read.
    let mut parser = Parser::from(text);
    let mut tags = Tags::default();
    let (mut detector, mut early_model) = (None, None);
    parser.object(
        ["format", "version", "kind", "backend", "model"],
        |parser, key| {
            match key {
                0 => tags.format = Some(parser.string()?),
                1 => tags.version = Some(parser.i64()?),
                2 => tags.kind = Some(parser.string()?),
                3 => tags.backend = Some(parser.string()?),
                _ => match tags.restorer() {
                    Ok(restore) => detector = Some(restore(parser)?),
                    Err(_) => early_model = Some(parser.raw_value()?),
                },
            }
            Ok(())
        },
    )?;
    parser.finish()?;
    if let Some(detector) = detector {
        return Ok(detector);
    }
    let restore = tags.restorer()?;
    let mut model = Parser::new(required(early_model, "model")?);
    let detector = restore(&mut model)?;
    model.finish()?;
    Ok(detector)
}

/// Decodes a model document into a boxed detector.
type Restore = fn(&mut Parser<'_>) -> Result<Box<dyn Detector>, CodecError>;

/// The tags of a saved document, as far as they have been read.
#[derive(Default)]
struct Tags<'a> {
    format: Option<Cow<'a, str>>,
    version: Option<i64>,
    kind: Option<Cow<'a, str>>,
    backend: Option<Cow<'a, str>>,
}

impl Tags<'_> {
    /// The decoder the tags name, after checking them in the order [`load`]
    /// reports their errors.
    fn restorer(&self) -> Result<Restore, DetectorError> {
        let format = required(self.format.as_deref(), "format")?;
        if format != FORMAT {
            return Err(DetectorError::Format {
                message: format!("expected format `{FORMAT}`, found `{format}`"),
            });
        }
        let version = required(self.version, "version")?;
        if version != VERSION {
            return Err(DetectorError::Format {
                message: format!("unsupported version {version} (supported: {VERSION})"),
            });
        }
        let kind = DetectorKind::from_tag(required(self.kind.as_deref(), "kind")?)?;

        fn restore<M>(kind: DetectorKind) -> Restore
        where
            M: Classifier + ModelTag + JsonCodec + Clone + 'static,
        {
            match kind {
                DetectorKind::Trusted => boxed::<TrustedHmd<M>>,
                DetectorKind::Untrusted => boxed::<UntrustedHmd<M>>,
                DetectorKind::PlattBaseline => boxed::<PlattHmd<M>>,
            }
        }

        fn boxed<D: Detector + JsonCodec + 'static>(
            parser: &mut Parser<'_>,
        ) -> Result<Box<dyn Detector>, CodecError> {
            Ok(Box::new(D::decode(parser)?))
        }

        match required(self.backend.as_deref(), "backend")? {
            t if t == DecisionTree::TAG => Ok(restore::<DecisionTree>(kind)),
            t if t == RandomForest::TAG => Ok(restore::<RandomForest>(kind)),
            t if t == LogisticRegression::TAG => Ok(restore::<LogisticRegression>(kind)),
            t if t == LinearSvm::TAG => Ok(restore::<LinearSvm>(kind)),
            other => Err(DetectorError::Format {
                message: format!("unknown backend `{other}`"),
            }),
        }
    }
}

/// Saves a fitted detector to a file.
///
/// # Errors
///
/// Propagates serialisation and I/O failures.
pub fn save_to_file(detector: &dyn Detector, path: impl AsRef<Path>) -> Result<(), DetectorError> {
    let text = save(detector)?;
    std::fs::write(path, text)?;
    Ok(())
}

/// Loads a detector from a file written by [`save_to_file`].
///
/// # Errors
///
/// Propagates I/O, parse and format failures.
pub fn load_from_file(path: impl AsRef<Path>) -> Result<Box<dyn Detector>, DetectorError> {
    let text = std::fs::read_to_string(path)?;
    load(&text)
}
