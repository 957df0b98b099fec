//! Figure 9a: average prediction entropy as a function of the number of base
//! classifiers in the ensemble (the estimate stabilises beyond ~20).

use crate::pipelines::forest_params;
use crate::study::{Corpus, Study};
use hmd_core::trusted::TrustedHmdBuilder;
use serde::{Deserialize, Serialize};

/// The ensemble sizes Fig. 9a sweeps.
pub const SIZES: [usize; 10] = [1, 2, 5, 10, 20, 30, 40, 50, 75, 100];

/// One point of the Fig. 9a curves.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnsembleSizePoint {
    /// Number of base classifiers.
    pub num_estimators: usize,
    /// Average entropy over the known test set.
    pub known_avg_entropy: f64,
    /// Average entropy over the unknown set.
    pub unknown_avg_entropy: f64,
}

/// The Fig. 9a data series (RF ensemble on the DVFS dataset).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnsembleSizeFigure {
    /// Curve points in ascending ensemble size.
    pub points: Vec<EnsembleSizePoint>,
}

impl EnsembleSizeFigure {
    /// Smallest ensemble size after which the unknown-data average entropy
    /// changes by less than `tolerance` at every later step between
    /// consecutive sweep points, or `None` when even the last step does not
    /// (the paper reports stabilisation around 20 base classifiers). The
    /// unknown-data curve is the one that moves: the known-data average stays
    /// near zero at every size.
    pub fn stabilisation_size(&self, tolerance: f64) -> Option<usize> {
        let settled = self
            .points
            .windows(2)
            .rev()
            .take_while(|pair| {
                (pair[1].unknown_avg_entropy - pair[0].unknown_avg_entropy).abs() < tolerance
            })
            .count();
        (settled > 0).then(|| self.points[self.points.len() - 1 - settled].num_estimators)
    }
}

/// Regenerates Fig. 9a on the study's DVFS corpus: a single large RF
/// bagging ensemble is trained once and truncated to each requested size,
/// exactly like varying sklearn's `n_estimators`.
pub fn fig9a(study: &Study, sizes: &[usize]) -> EnsembleSizeFigure {
    let split = study.split(Corpus::Dvfs);
    let max_size = sizes.iter().copied().max().unwrap_or(25).max(1);
    let hmd = TrustedHmdBuilder::new(forest_params())
        .with_num_estimators(max_size)
        .fit(&split.train, study.seed() ^ 0xabcd)
        .expect("RF ensemble trains on DVFS data");

    // Preprocess once, then reuse the estimator's truncation sweep (the
    // truncated ensembles must see the same feature space they were trained
    // on).
    let estimator = hmd.estimator();
    let scaled_known = hmd
        .preprocess_dataset(&split.test_known)
        .expect("known test set matches the training feature space");
    let scaled_unknown = hmd
        .preprocess_dataset(&split.unknown)
        .expect("unknown set matches the training feature space");
    let known_curve = estimator.ensemble_size_sweep(&scaled_known, sizes);
    let unknown_curve = estimator.ensemble_size_sweep(&scaled_unknown, sizes);

    let points = known_curve
        .into_iter()
        .zip(unknown_curve)
        .map(|((size, known_avg), (_, unknown_avg))| EnsembleSizePoint {
            num_estimators: size,
            known_avg_entropy: known_avg,
            unknown_avg_entropy: unknown_avg,
        })
        .collect();
    EnsembleSizeFigure { points }
}

/// Renders the curve as a text table.
pub fn render(figure: &EnsembleSizeFigure) -> String {
    let mut out = String::new();
    out.push_str("Average entropy vs number of base classifiers (Fig. 9a)\n");
    out.push_str(&format!(
        "{:>12} {:>12} {:>14}\n",
        "n_estimators", "known avg H", "unknown avg H"
    ));
    for p in &figure.points {
        out.push_str(&format!(
            "{:>12} {:>12.3} {:>14.3}\n",
            p.num_estimators, p.known_avg_entropy, p.unknown_avg_entropy
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::ExperimentScale;

    #[test]
    fn fig9a_smoke_curve_is_complete_and_stabilises() {
        let sizes = [1, 5, 10, 20, 30];
        let figure = fig9a(&Study::new(ExperimentScale::Smoke, 3), &sizes);
        assert_eq!(figure.points.len(), sizes.len());
        // Unknown entropy should exceed known entropy once the ensemble is
        // large enough to express disagreement.
        let last = figure.points.last().unwrap();
        assert!(last.unknown_avg_entropy >= last.known_avg_entropy);
        // A single-model ensemble cannot express any vote disagreement.
        assert_eq!(figure.points[0].known_avg_entropy, 0.0);
        assert!(figure.stabilisation_size(0.5).is_some());
        let text = render(&figure);
        assert!(text.contains("n_estimators"));
    }

    /// The bench-scale seed-2021 unknown curve: a small step at 2 → 5 is
    /// followed by larger ones up to 20 → 30.
    #[test]
    fn stabilisation_waits_for_every_later_step_to_stay_small() {
        let unknown = [
            0.0, 0.396, 0.336, 0.470, 0.536, 0.646, 0.637, 0.630, 0.669, 0.669,
        ];
        let figure = EnsembleSizeFigure {
            points: SIZES
                .iter()
                .zip(unknown)
                .map(|(&num_estimators, unknown_avg_entropy)| EnsembleSizePoint {
                    num_estimators,
                    known_avg_entropy: 0.0,
                    unknown_avg_entropy,
                })
                .collect(),
        };
        assert_eq!(figure.stabilisation_size(0.1), Some(30));
        assert_eq!(figure.stabilisation_size(0.01), Some(75));
        assert_eq!(figure.stabilisation_size(0.5), Some(1));
        assert_eq!(figure.stabilisation_size(0.0), None);
    }
}
