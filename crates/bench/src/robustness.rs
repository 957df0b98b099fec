//! Robustness evaluation: the `hmd_threat` attack suite against the paper's
//! pipelines, plus closed-loop recovery under gradual drift.
//!
//! Three experiments, one report:
//!
//! 1. **Attack corpora × pipelines.** Every attack stream (mimicry, gradual
//!    drift, sensor dropout/saturation/stuck-at) and a clean baseline are
//!    materialised at the same size and scored by the trusted, untrusted and
//!    Platt-baseline pipelines. Each cell is an [`EscalationBreakdown`]: raw
//!    accuracy, accuracy on the accepted subset, escalation rate, and the
//!    fraction of would-be misclassifications the escalation caught.
//! 2. **Bounded evasion.** Known-malware signatures are pushed through the
//!    [`hmd_threat::evade`] search against each pipeline; the summary
//!    separates predictions that merely *flipped* from evasions that were
//!    *accepted* end to end — the paper's trustworthiness claim is that the
//!    rejection option escalates a large fraction of the flips.
//! 3. **Closed-loop drift recovery.** A gradually drifting corpus is served
//!    through a [`ShardedFleet`] watched by a [`LoopSupervisor`]; the report
//!    records how many drifted rows were served before drift was flagged,
//!    whether the retrain→shadow→promote cycle completed, and the escalation
//!    rate before drift, under attack, and after recovery.

use crate::pipelines::{backend_for, BaseModel};
use crate::scale::ExperimentScale;
use hmd_core::detector::{Detector, DetectorConfig, DetectorExt};
use hmd_core::rejection::EscalationBreakdown;
use hmd_data::stream::CorpusStream;
use hmd_data::{Label, Matrix};
use hmd_dvfs::dataset::DvfsCorpusBuilder;
use hmd_dvfs::DvfsCorpusStream;
use hmd_loop::{DriftPolicy, LoopConfig, LoopEvent, LoopSupervisor, PromotionGate};
use hmd_serve::ShardedFleet;
use hmd_threat::{
    evade_batch, DriftSchedule, EvasionBudget, GradualDrift, Mimicry, SensorFault,
    SensorFaultStream,
};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Knobs of one robustness evaluation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RobustnessConfig {
    /// Corpus/ensemble scale preset shared with every other experiment.
    pub scale: ExperimentScale,
    /// Rows materialised per attack corpus (and for the clean baseline).
    pub rows_per_attack: usize,
    /// Known-malware signatures attacked by the evasion search.
    pub evasion_rows: usize,
    /// Mimicry blend budget in `[0, 1]` (1 = signatures become the nearest
    /// benign template).
    pub mimicry_budget: f64,
    /// Gradual-drift shift magnitude, in per-feature training standard
    /// deviations (signs alternate across features).
    pub drift_sigmas: f64,
    /// Per-row activation probability of the sensor faults.
    pub fault_probability: f64,
    /// Relative L∞ radius of the evasion search.
    pub evasion_linf: f64,
    /// Greedy coordinate passes of the evasion search.
    pub evasion_passes: usize,
    /// Rows per served batch in the closed-loop drift scenario.
    pub loop_batch: usize,
    /// Master seed; every corpus and fit derives from it.
    pub seed: u64,
}

impl RobustnessConfig {
    /// The configuration behind the committed `BENCH_robustness.json`,
    /// which `experiments robustness` regenerates (the record is defined
    /// for this configuration only, so that mode takes no flag).
    pub fn full() -> RobustnessConfig {
        RobustnessConfig {
            scale: ExperimentScale::Smoke,
            rows_per_attack: 384,
            evasion_rows: 24,
            mimicry_budget: 0.8,
            drift_sigmas: 4.0,
            fault_probability: 0.35,
            evasion_linf: 0.5,
            evasion_passes: 3,
            loop_batch: 32,
            seed: 2021,
        }
    }
}

/// The uncertainty pipelines the attacks are evaluated against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PipelineKind {
    /// Entropy-gated ensemble with the rejection option (the paper's design).
    Trusted,
    /// The same ensemble, forced to always accept its majority label.
    Untrusted,
    /// Single Platt-scaled classifier gated on calibrated confidence.
    Platt,
}

impl PipelineKind {
    /// All pipelines, in report order.
    pub fn all() -> [PipelineKind; 3] {
        [
            PipelineKind::Trusted,
            PipelineKind::Untrusted,
            PipelineKind::Platt,
        ]
    }

    /// Name used in report rows.
    pub fn name(self) -> &'static str {
        match self {
            PipelineKind::Trusted => "trusted",
            PipelineKind::Untrusted => "untrusted",
            PipelineKind::Platt => "platt",
        }
    }

    /// The [`DetectorConfig`] for this pipeline at the given scale (random
    /// forest base classifiers — the paper's best performer).
    pub fn config(self, scale: ExperimentScale) -> DetectorConfig {
        let backend = backend_for(BaseModel::RandomForest, false);
        let config = match self {
            PipelineKind::Trusted => DetectorConfig::trusted(backend),
            PipelineKind::Untrusted => DetectorConfig::untrusted(backend),
            PipelineKind::Platt => DetectorConfig::platt(backend),
        };
        config.with_num_estimators(scale.num_estimators())
    }
}

/// One attack × pipeline cell of the robustness table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttackReport {
    /// Attack corpus name (`baseline`, `mimicry`, `gradual_drift`, ...).
    pub attack: String,
    /// Pipeline the corpus was scored by.
    pub pipeline: String,
    /// Rows scored.
    pub rows: usize,
    /// Accuracy of the predicted labels, ignoring escalation.
    pub raw_accuracy: f64,
    /// Accuracy over the accepted subset only.
    pub accepted_accuracy: f64,
    /// Fraction of rows escalated to the trusted path.
    pub escalation_rate: f64,
    /// Fraction of would-be misclassifications the escalation caught.
    pub caught_fraction: f64,
}

/// Evasion-search results against one pipeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvasionReport {
    /// Pipeline under attack.
    pub pipeline: String,
    /// Malware rows the search attacked (originally predicted malware).
    pub attacked: usize,
    /// Rows whose *prediction* flipped to benign within the budget.
    pub flipped_predictions: usize,
    /// Flipped rows the rejection option escalated (caught).
    pub escalated_evasions: usize,
    /// Flipped rows accepted as benign — the end-to-end evasion wins.
    pub accepted_evasions: usize,
    /// `flipped_predictions / attacked`.
    pub flip_rate: f64,
    /// `escalated_evasions / flipped_predictions`.
    pub caught_fraction: f64,
    /// `accepted_evasions / attacked`.
    pub accepted_rate: f64,
}

/// Closed-loop behaviour under the gradual-drift attack.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftLoopReport {
    /// Rows per served batch.
    pub batch_rows: usize,
    /// Whether the supervisor flagged drift at all.
    pub drift_detected: bool,
    /// Drifted rows served before [`LoopEvent::DriftDetected`] (0 if never).
    pub rows_to_detection: usize,
    /// Whether a retrained challenger was promoted.
    pub promoted: bool,
    /// Whether the verify phase declared the loop recovered.
    pub recovered: bool,
    /// Served escalation rate on the healthy calibration stream.
    pub pre_drift_escalation: f64,
    /// Served escalation rate under drift, before promotion.
    pub drifted_escalation: f64,
    /// Served escalation rate after the challenger took over.
    pub recovered_escalation: f64,
}

/// The full robustness report (the `robustness` bench records it in
/// `BENCH_robustness.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RobustnessReport {
    /// Scale preset the run used.
    pub scale: String,
    /// Attack × pipeline accuracy/escalation table.
    pub attacks: Vec<AttackReport>,
    /// Evasion search per pipeline.
    pub evasion: Vec<EvasionReport>,
    /// Closed-loop drift detection and recovery.
    pub drift_loop: DriftLoopReport,
}

/// Per-feature standard deviation of a training matrix (population form;
/// floored at a small epsilon so degenerate features still drift).
fn per_feature_std(features: &Matrix) -> Vec<f64> {
    let (rows, cols) = (features.rows(), features.cols());
    let mut mean = vec![0.0; cols];
    for row in features.iter_rows() {
        for (m, x) in mean.iter_mut().zip(row) {
            *m += x;
        }
    }
    for m in &mut mean {
        *m /= rows as f64;
    }
    let mut var = vec![0.0; cols];
    for row in features.iter_rows() {
        for ((v, m), x) in var.iter_mut().zip(&mean).zip(row) {
            let d = x - m;
            *v += d * d;
        }
    }
    var.iter()
        .map(|v| (v / rows as f64).sqrt().max(1e-9))
        .collect()
}

/// Mean of every entry of a matrix — used as the saturation rail so the
/// fault clips the informative upper tail of the signature.
fn global_mean(features: &Matrix) -> f64 {
    let mut sum = 0.0;
    let mut count = 0usize;
    for row in features.iter_rows() {
        sum += row.iter().sum::<f64>();
        count += row.len();
    }
    sum / count.max(1) as f64
}

/// Materialises `rows` records from a stream as a feature matrix + labels.
fn materialise<S>(stream: &mut S, rows: usize) -> (Matrix, Vec<Label>)
where
    S: CorpusStream + ?Sized,
{
    let mut features = Vec::with_capacity(rows);
    let mut labels = Vec::with_capacity(rows);
    while features.len() < rows {
        let record = stream.next().expect("corpus streams are infinite");
        features.push(record.features);
        labels.push(record.label);
    }
    let matrix = Matrix::from_rows(&features).expect("corpus streams yield uniform rows");
    (matrix, labels)
}

/// The drift attack used both for the batch table and the closed loop: a
/// shift of `drift_sigmas` training standard deviations per feature with
/// alternating signs, so correlated features are pushed apart rather than
/// translated together (which bagged trees largely shrug off).
fn drift_attack(stds: &[f64], sigmas: f64, schedule: DriftSchedule) -> GradualDrift {
    let shift: Vec<f64> = stds
        .iter()
        .enumerate()
        .map(|(j, s)| {
            let sign = if j % 2 == 0 { 1.0 } else { -1.0 };
            sign * sigmas * s
        })
        .collect();
    GradualDrift::new(shift, schedule).expect("training stds are finite and non-empty")
}

/// Scores one materialised attack corpus with every pipeline.
fn score_attack(
    name: &str,
    corpus: &(Matrix, Vec<Label>),
    detectors: &[(PipelineKind, Box<dyn Detector>)],
) -> Vec<AttackReport> {
    let (features, labels) = corpus;
    detectors
        .iter()
        .map(|(kind, detector)| {
            let reports = detector
                .detect_batch(features)
                .expect("attack corpora are finite-valued");
            let breakdown = EscalationBreakdown::from_reports(&reports, labels);
            AttackReport {
                attack: name.to_string(),
                pipeline: kind.name().to_string(),
                rows: breakdown.rows,
                raw_accuracy: breakdown.raw_accuracy(),
                accepted_accuracy: breakdown.accepted_accuracy(),
                escalation_rate: breakdown.escalation_rate(),
                caught_fraction: breakdown.caught_fraction(),
            }
        })
        .collect()
}

const LOOP_ENDPOINT: &str = "robustness";

/// Drives the closed loop through the gradual-drift attack: calibrate on a
/// healthy stream, drift it, and record detection latency (in rows) and
/// whether the retrain→shadow→promote→verify cycle recovered.
fn run_drift_loop(
    config: &RobustnessConfig,
    builder: &DvfsCorpusBuilder,
    recipe: DetectorConfig,
    champion: Box<dyn Detector>,
    stds: &[f64],
) -> DriftLoopReport {
    let batch = config.loop_batch;
    let fleet = Arc::new(ShardedFleet::new(2));
    fleet
        .deploy(LOOP_ENDPOINT, champion)
        .expect("endpoint deploys");

    // Deliberately patient drift policy + small retrain window: a
    // hair-trigger lambda would fire while the sliding window still holds
    // mostly pre-drift rows, and a challenger fit on that mixture escalates
    // the post-drift stream almost as badly as the champion it replaces.
    // Waiting a few more windows costs detection latency (measured below)
    // but means the retrain window holds the stationary drifted
    // distribution, which is what recovery needs to learn.
    let mut loop_config = LoopConfig::new(recipe);
    loop_config.drift = DriftPolicy {
        calibration_windows: 3,
        min_window_rows: 8,
        lambda: 3.0,
        ..DriftPolicy::default()
    };
    loop_config.window_capacity = 6 * batch;
    loop_config.min_retrain_rows = 5 * batch;
    loop_config.shadow_rows = 2 * batch as u64;
    loop_config.verify_rows = 2 * batch;
    loop_config.regression_tolerance = 0.2;
    loop_config.gate = PromotionGate::ChallengerNoWorse { margin: 0.05 };
    loop_config.seed = config.seed ^ 0x100b;
    let mut supervisor = LoopSupervisor::new(Arc::clone(&fleet), LOOP_ENDPOINT, loop_config);

    // Serves one batch, feeds the supervisor's labelled window, and returns
    // the number of escalated rows.
    let serve = |stream: &mut dyn CorpusStream, supervisor: &mut LoopSupervisor| {
        let (features, labels) = materialise(stream, batch);
        let scored = fleet
            .score_batch(LOOP_ENDPOINT, &features)
            .expect("fleet serves");
        for (row, label) in features.iter_rows().zip(&labels) {
            supervisor.ingest(row, *label);
        }
        scored
            .iter()
            .filter(|s| s.report.decision.label().is_none())
            .count()
    };

    // ---- Healthy calibration ------------------------------------------
    let mut healthy = DvfsCorpusStream::known_apps(builder.clone(), config.seed ^ 0xca11b)
        .expect("known catalog is non-empty");
    let mut healthy_escalated = 0usize;
    let mut healthy_rows = 0usize;
    for _ in 0..5 {
        healthy_escalated += serve(&mut healthy, &mut supervisor);
        healthy_rows += batch;
        supervisor.tick().expect("healthy tick");
    }

    // ---- Drift the stream ---------------------------------------------
    // The ramp completes within one batch: the supervisor needs several
    // windows to detect the drift anyway, and the retrain window must be
    // dominated by the *stationary* post-ramp distribution for the
    // challenger to have something learnable to recover onto.
    let drifted_source = DvfsCorpusStream::known_apps(builder.clone(), config.seed ^ 0xd41f7)
        .expect("known catalog is non-empty");
    let mut drifted = drift_attack(stds, config.drift_sigmas, DriftSchedule::linear(batch))
        .apply(drifted_source)
        .expect("shift width matches the stream");

    let mut rows_to_detection = 0usize;
    let mut drift_detected = false;
    let mut promoted = false;
    let mut recovered = false;
    let mut drifted_escalated = 0usize;
    let mut drifted_rows = 0usize;
    let mut recovered_escalated = 0usize;
    let mut recovered_rows = 0usize;
    for _ in 0..48 {
        let escalated = serve(&mut drifted, &mut supervisor);
        if promoted {
            recovered_escalated += escalated;
            recovered_rows += batch;
        } else {
            drifted_escalated += escalated;
            drifted_rows += batch;
        }
        match supervisor.tick() {
            Ok(_) => {}
            Err(hmd_loop::LoopError::WindowStarved { .. }) => {}
            Err(other) => panic!("supervisor tick failed: {other}"),
        }
        if !drift_detected
            && supervisor
                .events()
                .iter()
                .any(|e| matches!(e, LoopEvent::DriftDetected { .. }))
        {
            drift_detected = true;
            rows_to_detection = drifted_rows;
        }
        if !promoted
            && supervisor
                .events()
                .iter()
                .any(|e| matches!(e, LoopEvent::Promoted { .. }))
        {
            promoted = true;
        }
        if supervisor
            .events()
            .iter()
            .any(|e| matches!(e, LoopEvent::Recovered { .. }))
        {
            recovered = true;
            if recovered_rows >= 2 * batch {
                break;
            }
        }
    }

    let rate = |escalated: usize, rows: usize| {
        if rows == 0 {
            0.0
        } else {
            escalated as f64 / rows as f64
        }
    };
    DriftLoopReport {
        batch_rows: batch,
        drift_detected,
        rows_to_detection,
        promoted,
        recovered,
        pre_drift_escalation: rate(healthy_escalated, healthy_rows),
        drifted_escalation: rate(drifted_escalated, drifted_rows),
        recovered_escalation: rate(recovered_escalated, recovered_rows),
    }
}

/// Runs the full robustness evaluation.
pub fn evaluate(config: &RobustnessConfig) -> RobustnessReport {
    let builder = config.scale.dvfs_builder();
    let split = builder
        .build_split(config.seed)
        .expect("DVFS corpus generation is infallible for valid builders");
    let stds = per_feature_std(split.train.features());
    let rail = global_mean(split.train.features());

    let detectors: Vec<(PipelineKind, Box<dyn Detector>)> = PipelineKind::all()
        .into_iter()
        .map(|kind| {
            let detector = kind
                .config(config.scale)
                .fit(&split.train, config.seed ^ 0x5eed)
                .expect("RF pipelines train on the DVFS corpus");
            (kind, detector)
        })
        .collect();

    // ---- Attack corpora ------------------------------------------------
    let stream = |salt: u64| {
        DvfsCorpusStream::known_apps(builder.clone(), config.seed ^ salt)
            .expect("known catalog is non-empty")
    };
    let rows = config.rows_per_attack;
    let mut attacks = Vec::new();
    let baseline = materialise(&mut stream(0xba5e), rows);
    attacks.extend(score_attack("baseline", &baseline, &detectors));

    let mut mimicry = Mimicry::from_benign_rows(&split.train, config.mimicry_budget)
        .expect("training set has benign rows")
        .apply(stream(0x3113))
        .expect("template width matches the stream");
    attacks.extend(score_attack(
        "mimicry",
        &materialise(&mut mimicry, rows),
        &detectors,
    ));

    let mut drifting = drift_attack(&stds, config.drift_sigmas, DriftSchedule::linear(rows / 2))
        .apply(stream(0xd41f))
        .expect("shift width matches the stream");
    attacks.extend(score_attack(
        "gradual_drift",
        &materialise(&mut drifting, rows),
        &detectors,
    ));

    for (name, fault) in [
        ("sensor_dropout", SensorFault::Dropout),
        ("sensor_saturation", SensorFault::Saturation { level: rail }),
        ("sensor_stuck_at", SensorFault::StuckAt),
    ] {
        let mut faulty = SensorFaultStream::all_channels(
            stream(0xfa017),
            fault,
            config.fault_probability,
            config.seed ^ 0x5e2501,
        )
        .expect("fault parameters are valid");
        attacks.extend(score_attack(
            name,
            &materialise(&mut faulty, rows),
            &detectors,
        ));
    }

    // ---- Bounded evasion ------------------------------------------------
    let budget = EvasionBudget::new(config.evasion_linf)
        .expect("configured radius is finite")
        .with_passes(config.evasion_passes);
    let malware_rows: Vec<Vec<f64>> = baseline
        .0
        .iter_rows()
        .zip(&baseline.1)
        .filter(|(_, label)| **label == Label::Malware)
        .map(|(row, _)| row.to_vec())
        .take(config.evasion_rows)
        .collect();
    let evasion = detectors
        .iter()
        .map(|(kind, detector)| {
            let (summary, _) = evade_batch(detector.as_ref(), &malware_rows, &budget)
                .expect("evasion probes are finite-valued");
            EvasionReport {
                pipeline: kind.name().to_string(),
                attacked: summary.attacked,
                flipped_predictions: summary.flipped_predictions,
                escalated_evasions: summary.escalated_evasions,
                accepted_evasions: summary.accepted_evasions,
                flip_rate: summary.flip_rate(),
                caught_fraction: summary.caught_fraction(),
                accepted_rate: summary.accepted_rate(),
            }
        })
        .collect();

    // ---- Closed-loop drift recovery -------------------------------------
    let recipe = PipelineKind::Trusted.config(config.scale);
    let champion = recipe
        .fit(&split.train, config.seed ^ 0x10071)
        .expect("loop champion trains");
    let drift_loop = run_drift_loop(config, &builder, recipe, champion, &stds);

    RobustnessReport {
        scale: config.scale.name().to_string(),
        attacks,
        evasion,
        drift_loop,
    }
}

/// Renders the report as the paper-style ASCII figure the bench prints.
pub fn render(report: &RobustnessReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "robustness evaluation (scale: {})\n\n",
        report.scale
    ));
    out.push_str(
        "attack              pipeline   raw-acc  acc-acc  escal   caught\n\
         ------------------  ---------  -------  -------  ------  ------\n",
    );
    for row in &report.attacks {
        out.push_str(&format!(
            "{:<18}  {:<9}  {:>6.3}   {:>6.3}   {:>5.3}   {:>5.3}\n",
            row.attack,
            row.pipeline,
            row.raw_accuracy,
            row.accepted_accuracy,
            row.escalation_rate,
            row.caught_fraction
        ));
    }
    out.push_str(
        "\nevasion             attacked  flipped  escalated  accepted  caught\n\
         ------------------  --------  -------  ---------  --------  ------\n",
    );
    for row in &report.evasion {
        out.push_str(&format!(
            "{:<18}  {:>8}  {:>7}  {:>9}  {:>8}  {:>5.3}\n",
            row.pipeline,
            row.attacked,
            row.flipped_predictions,
            row.escalated_evasions,
            row.accepted_evasions,
            row.caught_fraction
        ));
    }
    let dl = &report.drift_loop;
    out.push_str(&format!(
        "\nclosed loop under gradual drift ({}-row batches)\n\
         detected: {} after {} drifted rows   promoted: {}   recovered: {}\n\
         escalation: healthy {:.3} -> drifted {:.3} -> recovered {:.3}\n",
        dl.batch_rows,
        dl.drift_detected,
        dl.rows_to_detection,
        dl.promoted,
        dl.recovered,
        dl.pre_drift_escalation,
        dl.drifted_escalation,
        dl.recovered_escalation,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> RobustnessConfig {
        RobustnessConfig {
            rows_per_attack: 48,
            evasion_rows: 4,
            ..RobustnessConfig::full()
        }
    }

    #[test]
    fn evaluation_covers_every_attack_and_pipeline() {
        let report = evaluate(&tiny_config());
        assert_eq!(report.attacks.len(), 6 * 3);
        for name in [
            "baseline",
            "mimicry",
            "gradual_drift",
            "sensor_dropout",
            "sensor_saturation",
            "sensor_stuck_at",
        ] {
            assert_eq!(
                report.attacks.iter().filter(|r| r.attack == name).count(),
                3,
                "attack {name} missing pipelines"
            );
        }
        assert_eq!(report.evasion.len(), 3);
        for row in &report.attacks {
            assert_eq!(row.rows, 48);
            assert!((0.0..=1.0).contains(&row.raw_accuracy));
            assert!((0.0..=1.0).contains(&row.escalation_rate));
        }
        // The clean baseline must be easy for the trusted pipeline.
        let baseline_trusted = report
            .attacks
            .iter()
            .find(|r| r.attack == "baseline" && r.pipeline == "trusted")
            .expect("baseline row");
        assert!(
            baseline_trusted.raw_accuracy > 0.8,
            "baseline accuracy {:.3} too low",
            baseline_trusted.raw_accuracy
        );
        // The untrusted pipeline never escalates, by construction.
        for row in report.attacks.iter().filter(|r| r.pipeline == "untrusted") {
            assert_eq!(
                row.escalation_rate, 0.0,
                "untrusted escalated on {}",
                row.attack
            );
        }
        let render = render(&report);
        assert!(render.contains("gradual_drift"));
        assert!(render.contains("closed loop"));
    }

    #[test]
    fn evaluation_is_seed_deterministic() {
        let a = evaluate(&tiny_config());
        let b = evaluate(&tiny_config());
        assert_eq!(a, b);
    }

    #[test]
    fn drift_loop_detects_and_recovers() {
        let report = evaluate(&tiny_config());
        let dl = &report.drift_loop;
        assert!(dl.drift_detected, "gradual drift never flagged");
        assert!(dl.rows_to_detection > 0);
        assert!(dl.promoted, "challenger never promoted");
        assert!(dl.recovered, "loop never recovered");
        assert!(
            dl.drifted_escalation > dl.pre_drift_escalation,
            "drift did not raise the served escalation rate ({:.3} vs {:.3})",
            dl.drifted_escalation,
            dl.pre_drift_escalation
        );
        assert!(
            dl.recovered_escalation < dl.drifted_escalation,
            "promotion did not lower the escalation rate ({:.3} vs {:.3})",
            dl.recovered_escalation,
            dl.drifted_escalation
        );
    }
}
