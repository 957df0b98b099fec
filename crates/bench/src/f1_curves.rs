//! Figure 7b: F1 score of the accepted predictions as a function of the
//! entropy threshold, for the RF ensemble on both datasets.

use crate::pipelines::BaseModel;
use crate::study::{Corpus, Study};
use hmd_core::rejection::{threshold_grid, F1Curve};
use serde::{Deserialize, Serialize};

/// The two curves of Fig. 7b.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct F1Figure {
    /// RF-DVFS curve.
    pub dvfs: F1Curve,
    /// RF-HPC curve.
    pub hpc: F1Curve,
}

/// Regenerates Fig. 7b. The F1 is computed over the union of the known test
/// set and the unknown set, since the paper evaluates the effect of rejecting
/// uncertain predictions on the overall detection quality.
pub fn fig7b(study: &Study) -> F1Figure {
    let thresholds = threshold_grid(0.0, 0.85, 0.05);
    F1Figure {
        dvfs: curve_for(study, Corpus::Dvfs, &thresholds),
        hpc: curve_for(study, Corpus::Hpc, &thresholds),
    }
}

fn curve_for(study: &Study, corpus: Corpus, thresholds: &[f64]) -> F1Curve {
    let eval = study
        .ensemble(BaseModel::RandomForest, corpus)
        .expect("RF ensembles train on both datasets");
    let mut predictions = eval.known.clone();
    predictions.extend(eval.unknown.iter().copied());
    let mut truth = eval.known_truth.clone();
    truth.extend(eval.unknown_truth.iter().copied());
    F1Curve::sweep(
        format!("RF-{}", corpus.name()),
        &predictions,
        &truth,
        thresholds,
    )
}

/// Renders the two curves side by side.
pub fn render(figure: &F1Figure) -> String {
    let mut out = String::new();
    out.push_str("Accepted-prediction F1 vs entropy threshold (Fig. 7b)\n");
    out.push_str(&format!(
        "{:>9} {:>9} {:>9} {:>12} {:>12}\n",
        "threshold", "f1-DVFS", "f1-HPC", "acc.frac-DVFS", "acc.frac-HPC"
    ));
    for (d, h) in figure.dvfs.points.iter().zip(&figure.hpc.points) {
        out.push_str(&format!(
            "{:>9.2} {:>9.3} {:>9.3} {:>12.2} {:>12.2}\n",
            d.threshold, d.f1, h.f1, d.accepted_fraction, h.accepted_fraction
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::ExperimentScale;

    #[test]
    fn fig7b_smoke_produces_aligned_curves() {
        let figure = fig7b(&Study::new(ExperimentScale::Smoke, 23));
        assert_eq!(figure.dvfs.points.len(), figure.hpc.points.len());
        assert_eq!(figure.dvfs.name, "RF-DVFS");
        assert!(figure.dvfs.best_f1() > 0.5);
        // Accepted fraction must be monotone in the threshold.
        for pair in figure.hpc.points.windows(2) {
            assert!(pair[1].accepted_fraction + 1e-9 >= pair[0].accepted_fraction);
        }
        let text = render(&figure);
        assert!(text.contains("f1-DVFS"));
    }
}
