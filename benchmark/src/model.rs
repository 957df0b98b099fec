//! Workload set-up shared by every workload: the seeded corpus, the trained
//! bench-scale pipeline, the reference reports every served report is
//! checked against, and the layer-by-layer replay used by traced runs.

use crate::trace::RequestSpans;
use hmd_bench::pipelines::{detector_config, BaseModel};
use hmd_bench::ExperimentScale;
use hmd_codec::{Json, JsonCodec};
use hmd_core::detector::{load, save, Detector, DetectorConfig, DetectorExt};
use hmd_core::entropy::vote_entropy;
use hmd_core::estimator::UncertainPrediction;
use hmd_core::rejection::RejectionPolicy;
use hmd_core::trusted::{Decision, DetectionReport};
use hmd_data::scaler::StandardScaler;
use hmd_data::{Dataset, Label, Matrix, RowsView};
use hmd_ml::bagging::BaggingEnsemble;
use hmd_ml::forest::RandomForest;
use std::time::Instant;

/// The corpus family a workload draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// DVFS frequency-residency signatures.
    Dvfs,
    /// Hardware-performance-counter signatures.
    Hpc,
}

/// splitmix64: the benchmark's own seeded generator, so inputs depend on
/// nothing but `--seed`.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Bit-for-bit report equality (floats compared by their bits, so a
/// rounding change anywhere on the path is a mismatch).
pub fn same_report(a: &DetectionReport, b: &DetectionReport) -> bool {
    let (p, q) = (&a.prediction, &b.prediction);
    p.label == q.label
        && p.malware_vote_fraction.to_bits() == q.malware_vote_fraction.to_bits()
        && p.entropy.to_bits() == q.entropy.to_bits()
        && p.num_estimators == q.num_estimators
        && a.decision == b.decision
}

/// Wall-clock cost of one set-up, split by stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupCost {
    /// Corpus generation, seconds.
    pub gen_s: f64,
    /// Rows the corpus generator produced.
    pub gen_rows: usize,
    /// Pipeline fit, seconds.
    pub fit_s: f64,
}

/// A trained pipeline plus the request pool it serves.
pub struct Model {
    /// The recipe the detector was fit with (and the loop refits with).
    pub recipe: DetectorConfig,
    /// The training split.
    pub train: Dataset,
    /// Request pool: known-test rows first, then unknown rows.
    pub pool: Matrix,
    /// Ground truth of every pool row.
    pub truth: Vec<Label>,
    /// How many leading pool rows are known-test rows.
    pub known_rows: usize,
    /// The fitted detector.
    pub detector: Box<dyn Detector>,
    /// Direct `detect_batch` output for every pool row: the reference every
    /// served report must equal bit for bit.
    pub reference: Vec<DetectionReport>,
    /// Set-up cost of this model (corpus + fit).
    pub cost: SetupCost,
}

impl Model {
    /// Generates the corpus for `seed`, fits the bench-scale trusted RF
    /// pipeline and computes the reference reports.
    pub fn build(family: Family, seed: u64) -> Model {
        let scale = ExperimentScale::Bench;
        let started = Instant::now();
        let split = match family {
            Family::Dvfs => scale.dvfs_builder().build_split(seed),
            Family::Hpc => scale.hpc_builder().build_split(seed),
        }
        .expect("corpus generation is infallible for the preset builders");
        let gen_s = started.elapsed().as_secs_f64();
        let gen_rows = split.total_samples();

        let fit_started = Instant::now();
        let recipe = detector_config(BaseModel::RandomForest, scale.num_estimators(), false);
        let detector = recipe
            .fit(&split.train, seed ^ 0x5eed)
            .expect("the RF pipeline trains on both corpora");
        let fit_s = fit_started.elapsed().as_secs_f64();

        let known_rows = split.test_known.len();
        let mut rows: Vec<Vec<f64>> = split
            .test_known
            .features()
            .iter_rows()
            .map(<[f64]>::to_vec)
            .collect();
        rows.extend(split.unknown.features().iter_rows().map(<[f64]>::to_vec));
        let pool = Matrix::from_rows(&rows).expect("corpus rows share one width");
        let mut truth = split.test_known.labels().to_vec();
        truth.extend_from_slice(split.unknown.labels());
        let reference = detector
            .detect_batch(&pool)
            .expect("pool rows have the training width");
        Model {
            recipe,
            train: split.train,
            pool,
            truth,
            known_rows,
            detector,
            reference,
            cost: SetupCost {
                gen_s,
                gen_rows,
                fit_s,
            },
        }
    }

    /// A copy of the detector made through the persistence codec, the way
    /// fleets replicate it.
    pub fn detector_copy(&self) -> Box<dyn Detector> {
        load(&save(self.detector.as_ref()).expect("built-in pipelines persist"))
            .expect("saved pipelines load")
    }

    /// Whether pool row `index` is a known-test row.
    pub fn is_known(&self, index: usize) -> bool {
        index < self.known_rows
    }

    /// `n` pool indices, a seeded 50/50 mix of known-test and unknown rows.
    pub fn request_mix(&self, seed: u64, n: usize) -> Vec<u32> {
        let mut state = seed ^ 0x00c0_ffee;
        let unknown = self.pool.rows() - self.known_rows;
        (0..n)
            .map(|_| {
                let draw = splitmix(&mut state);
                let index = if draw & 1 == 0 {
                    (draw >> 1) as usize % self.known_rows
                } else {
                    self.known_rows + (draw >> 1) as usize % unknown
                };
                index as u32
            })
            .collect()
    }

    /// Rebuilds the pipeline's layers from its saved document, for the
    /// layer-by-layer replay of traced runs.
    pub fn layers(&self) -> Layers {
        let document = save(self.detector.as_ref()).expect("built-in pipelines persist");
        let json = Json::parse(&document).expect("saved documents parse");
        let model = json.get("model").expect("saved documents carry a model");
        Layers {
            scaler: StandardScaler::from_json(model.get("scaler").expect("scaler"))
                .expect("scaler decodes"),
            ensemble: BaggingEnsemble::<RandomForest>::from_json(
                model.get("ensemble").expect("ensemble"),
            )
            .expect("ensemble decodes"),
            policy: RejectionPolicy::new(self.detector.entropy_threshold()),
        }
    }
}

/// The trusted pipeline taken apart layer by layer: scale → votes →
/// entropy and decision. Replaying a request through these, span by span,
/// shows where `detect_rows` spends its time; the replay must reproduce the
/// single-call reports exactly.
pub struct Layers {
    /// The `hmd_data` front end.
    pub scaler: StandardScaler,
    /// The `hmd_ml` bagging ensemble (flat engine inside).
    pub ensemble: BaggingEnsemble<RandomForest>,
    /// The `hmd_core` rejection policy.
    pub policy: RejectionPolicy,
}

impl Layers {
    /// The decision the trusted pipeline makes for `malware` of the
    /// ensemble's votes.
    pub fn decide(&self, malware: u32) -> DetectionReport {
        let total = self.ensemble.num_estimators();
        let malware = malware as usize;
        let counts = [total - malware, malware];
        let prediction = UncertainPrediction {
            label: Label::from(counts[1] >= counts[0]),
            malware_vote_fraction: if total == 0 {
                0.0
            } else {
                malware as f64 / total as f64
            },
            entropy: vote_entropy(&counts),
            num_estimators: total,
        };
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

    /// Replays `rows` layer by layer under one `core.detect` span.
    pub fn replay(
        &self,
        rows: RowsView<'_>,
        spans: &mut RequestSpans<'_>,
        parent: Option<u64>,
    ) -> Vec<DetectionReport> {
        let start = Instant::now();
        let scaled = self
            .scaler
            .transform(rows)
            .expect("rows have the training width");
        let scaled_at = Instant::now();
        let votes = self.ensemble.malware_votes_batch(&scaled);
        let voted_at = Instant::now();
        let reports: Vec<DetectionReport> = votes.into_iter().map(|v| self.decide(v)).collect();
        let end = Instant::now();
        let detect = spans.span("core.detect", parent, start, end);
        spans.span("data.scale", Some(detect), start, scaled_at);
        spans.span("ml.votes", Some(detect), scaled_at, voted_at);
        spans.span("core.decide", Some(detect), voted_at, end);
        reports
    }
}

/// Escalation and accuracy over served reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct Quality {
    known: u64,
    known_escalated: u64,
    unknown: u64,
    unknown_escalated: u64,
    accepted: u64,
    accepted_correct: u64,
}

impl Quality {
    /// Counts one served report of a row with ground truth `truth`.
    pub fn add(&mut self, known: bool, truth: Label, report: &DetectionReport) {
        let escalated = report.decision.is_escalation();
        if known {
            self.known += 1;
            self.known_escalated += u64::from(escalated);
            if let Some(label) = report.decision.label() {
                self.accepted += 1;
                self.accepted_correct += u64::from(label == truth);
            }
        } else {
            self.unknown += 1;
            self.unknown_escalated += u64::from(escalated);
        }
    }

    /// Adds another tally.
    pub fn merge(&mut self, other: &Quality) {
        self.known += other.known;
        self.known_escalated += other.known_escalated;
        self.unknown += other.unknown;
        self.unknown_escalated += other.unknown_escalated;
        self.accepted += other.accepted;
        self.accepted_correct += other.accepted_correct;
    }

    /// `(unknown_escalated_pct, known_escalated_pct, accepted_accuracy_pct)`.
    pub fn percentages(&self) -> [(&'static str, f64); 3] {
        let pct = |part: u64, whole: u64| 100.0 * part as f64 / whole.max(1) as f64;
        [
            (
                "unknown_escalated_pct",
                pct(self.unknown_escalated, self.unknown),
            ),
            ("known_escalated_pct", pct(self.known_escalated, self.known)),
            (
                "accepted_accuracy_pct",
                pct(self.accepted_correct, self.accepted),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_replay_reproduces_the_single_call_path() {
        let model = Model::build(Family::Dvfs, 3);
        let layers = model.layers();
        let mut tracer = crate::trace::Tracer::new(Instant::now());
        let replayed = layers.replay(model.pool.view(), &mut tracer.request(0), None);
        assert_eq!(replayed.len(), model.reference.len());
        assert!(replayed
            .iter()
            .zip(&model.reference)
            .all(|(a, b)| same_report(a, b)));
        assert_eq!(tracer.spans().len(), 4);
    }

    #[test]
    fn request_mix_is_seeded_and_balanced() {
        let model = Model::build(Family::Dvfs, 3);
        let a = model.request_mix(9, 4000);
        assert_eq!(a, model.request_mix(9, 4000));
        assert_ne!(a, model.request_mix(10, 4000));
        let known = a.iter().filter(|&&i| model.is_known(i as usize)).count();
        assert!((1800..2200).contains(&known), "{known} known of 4000");
    }
}
