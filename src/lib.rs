//! Facade crate for the HMD uncertainty workspace.
//!
//! This reproduction of *"Towards Improving the Trustworthiness of Hardware
//! based Malware Detector using Online Uncertainty Estimation"* (DAC 2021) is
//! split into focused crates; `hmd` re-exports them so applications and the
//! runnable examples only need a single dependency:
//!
//! * [`data`] ([`hmd_data`]) — datasets, matrices, splits, scalers.
//! * [`ml`] ([`hmd_ml`]) — hand-rolled learners, bagging, metrics, PCA, t-SNE.
//! * [`dvfs`] ([`hmd_dvfs`]) — the DVFS power-management HMD substrate.
//! * [`hpc`] ([`hmd_hpc`]) — the hardware-performance-counter HMD substrate.
//! * [`core`] ([`hmd_core`]) — the paper's contribution: online ensemble
//!   uncertainty estimation, rejection policies, the trusted HMD pipeline and
//!   the unified [`core::detector`] serving API.
//! * [`serve`] ([`hmd_serve`]) — the fleet serving layer: named, versioned,
//!   micro-batching detector endpoints with hot swap, rollback, sharded
//!   replicas with load-aware routing, and supervision — a background
//!   deadline flusher, bounded admission, per-replica circuit breakers,
//!   and a deterministic fault-injection harness. [`serve::net`] puts a
//!   length-prefixed loopback wire protocol (`PROTOCOL.md`) in front of a
//!   sharded fleet — [`serve::FleetServer`] / [`serve::FleetClient`] with
//!   backpressure, per-request deadlines, stable error codes, and
//!   deterministic client retry/backoff under injected transport faults.
//! * [`closed_loop`] ([`hmd_loop`]) — closes the online loop: Page–Hinkley
//!   drift detection over the fleet's reset-on-read window statistics,
//!   shadow champion/challenger deployment (the challenger scores the same
//!   served tiles into isolated statistics, so served rows stay
//!   bit-identical to the champion), and the caller-driven
//!   [`closed_loop::LoopSupervisor`] state machine that retrains on a
//!   labelled sliding window, promotes through a gate, verifies, and rolls
//!   back automatically on regression — with an auditable
//!   [`closed_loop::LoopEvent`] log. See the "Closed-loop serving" section
//!   of `ARCHITECTURE.md` and `examples/closed_loop.rs`.
//! * [`threat`] ([`hmd_threat`]) — adversarial threat corpora layered over
//!   the streaming generators: mimicry blending, gradual drift schedules,
//!   sensor dropout/saturation/stuck-at faults, and perturbation-bounded
//!   black-box evasion search against fitted detectors. See the "Threat
//!   corpora & robustness evaluation" section of `ARCHITECTURE.md`.
//!
//! `ARCHITECTURE.md` at the repository root maps the whole workspace — the
//! layer diagram, each crate's derived-state invariants, and where to add a
//! new model family, detector backend, or routing policy.
//!
//! # The `Detector` API
//!
//! Every deployable pipeline — the paper's trusted ensemble detector, the
//! conventional black box and the Platt confidence baseline — serves behind
//! one object-safe trait, [`core::detector::Detector`]. A serialisable
//! [`core::detector::DetectorConfig`] describes *what* to train
//! (pipeline kind × base learner × ensemble size × PCA × threshold);
//! `config.fit(&train, seed)` compiles it into a `Box<dyn Detector>`; and
//! [`core::detector::save`] / [`core::detector::load`] persist a fitted
//! pipeline so it can be trained once and served many times with
//! bit-identical reports.
//!
//! The inference surface is **view-first**: the object-safe hot path
//! [`core::detector::Detector::detect_rows`] scores a borrowed
//! [`data::RowsView`] — a whole matrix, any row range of one
//! ([`data::Matrix::rows_view`]), or a single borrowed signature — with zero
//! input copies, and the blanket
//! [`core::detector::DetectorExt::detect_batch`] accepts anything
//! `Into<RowsView>` so `detector.detect_batch(&matrix)` keeps reading the
//! way it always has. Single-window [`core::detector::Detector::detect`] is
//! the provided 1×d-view case of the same path, so per-window and batch
//! scoring are bit-identical by construction.
//!
//! # The serving fleet
//!
//! [`serve::ShardedFleet`] turns individual detectors into a deployment
//! surface shaped like a DAQ central unit: producers submit signatures to
//! *named endpoints*; each endpoint owns a versioned stack of
//! `Arc<dyn Detector>` models, running [`core::detector::MonitorStats`],
//! and micro-batching request tiles. Single-row
//! [`serve::ShardedFleet::score`] calls enqueue into a tile and return an
//! ordered [`serve::ShardTicket`]; the tile drains through the detector's
//! flat-engine batch path when it reaches [`serve::FlushPolicy::max_batch`]
//! rows or the oldest waiter exceeds [`serve::FlushPolicy::max_wait`] —
//! recovering batch-sized throughput at request granularity while staying
//! **bit-identical** to direct `detect_batch` (enforced by a seeded
//! multi-threaded equivalence test). [`serve::ShardedFleet::deploy`]
//! hot-swaps a new model version while in-flight tickets finish on the
//! version that accepted them, [`serve::ShardedFleet::rollback`] restores
//! the previous one, and every result arrives as a [`serve::ShardedReport`]
//! stamped with the version that scored it. The repository benchmark's
//! `dvfs_fleet_bursts` workload (`benchmark/`) measures this path.
//!
//! Every endpoint runs on [`serve::ShardConfig::replicas`] replicas —
//! `ShardedFleet::new(1)` is the single-endpoint fleet. When concurrent
//! scorers outgrow one tile, more replicas each bring their own tile,
//! version stack and statistics, and a pluggable [`serve::RoutePolicy`]
//! picks one per request: round-robin, least-loaded by open-tile depth, or
//! key affinity ([`serve::ShardedFleet::score_keyed`]) so a session's
//! requests micro-batch together. Replicas share one detector instance
//! on lock-stepped versions, deploy/rollback fan out atomically per
//! replica, and [`serve::ShardedFleet::stats`] merges per-replica
//! [`core::detector::MonitorStats`] into one fleet-wide view.
//!
//! # The flat inference engine
//!
//! Training grows trees as nested tagged-enum nodes; serving runs on the
//! compiled [`ml::flat`] engine instead. Fitted trees, forests and bagging
//! ensembles flatten into packed 24-byte split-node records
//! ([`ml::flat::FlatTree`], [`ml::flat::FlatForest`]) with leaves encoded as
//! tagged indices and hard votes precompiled per leaf; batches are traversed
//! in 64-row tiles with ensemble votes accumulated into reusable buffers and
//! group majorities decided early. The compiled form is derived state —
//! rebuilt on training and on [`core::detector::load`], never persisted —
//! and predicts **bit-identically** to the nested walk (labels,
//! probabilities, entropies), which the seeded randomized equivalence suite
//! in `crates/ml/tests/flat_equivalence.rs` enforces. On the smoke
//! random-forest pipeline this lifted `detect_batch` from ~95k to ~2.7M
//! samples/s at batch 1 and from ~2.4M to ~4.2M samples/s at batch 4096
//! (single-core container). The repository benchmark's
//! `core.detect_ns_per_row.b1|b64|b4096` probes and its `hpc_offline_batch`
//! workload measure this path.
//!
//! # The fast-fit training engine
//!
//! Training is presorted and columnar ([`ml::fastfit`]): every feature of a
//! training matrix is sorted once per dataset into a cached per-column row
//! order ([`data::Matrix::presorted_rows`], built next to the lazy
//! column-major cache [`data::Matrix::columnar`] — derived state, never
//! persisted), each tree derives its per-feature index arrays from that
//! shared sort with a linear gather and partitions them down the tree, and
//! bootstrap replicates train as **weighted zero-copy views** (unique rows +
//! multiplicities) that share the parent's caches instead of materialising
//! copies. The engine sits behind the unchanged `fit` signatures and grows
//! trees **bit-identical** to the retained pre-optimisation fitters (the
//! `fit_reference` paths), which `crates/ml/tests/fit_equivalence.rs`
//! enforces. On the smoke 15-estimator bagged-forest pipeline this lifted
//! training from ~91 to ~409 fits/s (4.5×, single-core container; the
//! repository benchmark's `ml.fit_ms` and `ml.refit_ms` probes measure
//! training); cross-validation folds also run in parallel over the same
//! views.
//!
//! ```
//! use hmd::core::detector::{load, save, DetectorBackend, DetectorConfig, MonitorSession};
//! use hmd::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Simulate a small DVFS corpus.
//! let split = DvfsCorpusBuilder::new()
//!     .with_samples_per_app(8)
//!     .with_trace_len(128)
//!     .build_split(1)?;
//!
//! // Describe the detector, then compile the description into a pipeline.
//! let config = DetectorConfig::trusted(DetectorBackend::decision_tree())
//!     .with_num_estimators(15)
//!     .with_entropy_threshold(0.4);
//! let detector = config.fit(&split.train, 7)?;
//!
//! // Train once, serve many times: the restored detector is bit-identical.
//! let document = save(detector.as_ref())?;
//! let served = load(&document)?;
//!
//! // Batch-first inference over the whole unknown set at once.
//! let reports = served.detect_batch(split.unknown.features())?;
//! assert_eq!(reports, detector.detect_batch(split.unknown.features())?);
//!
//! // Or stream windows through an online monitoring session.
//! let mut session = MonitorSession::new(served.as_ref());
//! session.observe_batch(split.unknown.features())?;
//! println!(
//!     "{}: {} windows, {:.0}% escalated, mean entropy {:.3}",
//!     served.name(),
//!     session.stats().windows,
//!     100.0 * session.stats().escalation_rate(),
//!     session.stats().mean_entropy(),
//! );
//!
//! // Or deploy it behind the serving fleet: a named, versioned endpoint
//! // with micro-batched single-row scoring and per-endpoint statistics.
//! let fleet = ShardedFleet::new(1);
//! fleet.deploy("dvfs-hmd", served)?;
//! let scored = fleet.score_batch("dvfs-hmd", split.unknown.features())?;
//! assert!(scored.iter().all(|r| (r.version, r.replica) == (1, 0)));
//! assert_eq!(fleet.stats("dvfs-hmd")?.windows, split.unknown.len());
//!
//! // Scaling out: the same endpoint replicated across two replicas with
//! // session-sticky routing — replicas share one detector instance, so
//! // the reports match the direct path no matter which replica serves.
//! let sharded = ShardedFleet::with_config(
//!     ShardConfig::new(2).with_policy(RoutePolicy::KeyAffinity),
//! );
//! sharded.deploy("dvfs-hmd", load(&document)?)?;
//! let session_key = 7u64;
//! let window = split.unknown.features().row(0);
//! let ticket = sharded.score_keyed("dvfs-hmd", session_key, window)?;
//! sharded.flush("dvfs-hmd")?;
//! let sticky = ticket.wait()?;
//! assert_eq!((sticky.version, &sticky.report), (1, &reports[0]));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use hmd_core as core;
pub use hmd_data as data;
pub use hmd_dvfs as dvfs;
pub use hmd_hpc as hpc;
pub use hmd_ml as ml;
// `loop` is a Rust keyword, so the closed-loop crate re-exports under a
// descriptive alias instead of its package name.
pub use hmd_loop as closed_loop;
pub use hmd_serve as serve;
pub use hmd_threat as threat;

/// Commonly used items, re-exported for convenient glob imports in examples
/// and applications.
pub mod prelude {
    pub use hmd_core::analysis::{EntropySummary, KnownUnknownEntropy};
    pub use hmd_core::detector::{
        Detector, DetectorBackend, DetectorConfig, DetectorExt, DetectorKind, MonitorSession,
        MonitorStats,
    };
    pub use hmd_core::estimator::{EnsembleUncertaintyEstimator, UncertainPrediction};
    pub use hmd_core::platt_baseline::PlattHmd;
    pub use hmd_core::rejection::{
        threshold_grid, EscalationBreakdown, F1Curve, RejectionCurve, RejectionPolicy,
    };
    pub use hmd_core::trusted::{
        Decision, DetectionReport, TrustedHmd, TrustedHmdBuilder, UntrustedHmd,
    };
    pub use hmd_data::{Dataset, Label, Matrix, RowsView};
    pub use hmd_dvfs::dataset::DvfsCorpusBuilder;
    pub use hmd_hpc::dataset::HpcCorpusBuilder;
    pub use hmd_loop::{
        DriftBaseline, DriftDetector, DriftPolicy, DriftVerdict, LoopConfig, LoopError, LoopEvent,
        LoopState, LoopSupervisor, PromotionGate,
    };
    pub use hmd_ml::bagging::BaggingParams;
    pub use hmd_ml::forest::RandomForestParams;
    pub use hmd_ml::logistic::LogisticRegressionParams;
    pub use hmd_ml::metrics::{f1_score, ClassificationReport};
    pub use hmd_ml::svm::LinearSvmParams;
    pub use hmd_ml::tree::DecisionTreeParams;
    pub use hmd_ml::{Classifier, Estimator, ModelTag};
    pub use hmd_serve::{
        degraded_escalation, AdmissionPolicy, BreakerPolicy, BreakerState, ClientConfig,
        ClientStats, FallbackPolicy, FaultCounters, FaultInjector, FaultPlan, FleetClient,
        FleetError, FleetServer, FlushPolicy, HealthSnapshot, NetError, RetryPolicy, RoutePolicy,
        ServerConfig, ServerStats, ShadowSnapshot, ShardConfig, ShardTicket, ShardedFleet,
        ShardedReport,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exports_are_usable() {
        use crate::prelude::*;
        let policy = RejectionPolicy::new(0.4);
        assert!((policy.entropy_threshold - 0.4).abs() < 1e-12);
        assert_eq!(Label::Malware.index(), 1);
        let config = DetectorConfig::trusted(DetectorBackend::random_forest());
        assert_eq!(config.num_estimators, 25);
    }
}
