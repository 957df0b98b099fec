//! Figures 7a and 9b: percentage of known / unknown inputs rejected as a
//! function of the entropy threshold, plus the paper's §V.A headline
//! operating points.

use crate::pipelines::BaseModel;
use crate::study::{Corpus, Study};
use hmd_core::rejection::{threshold_grid, RejectionCurve};
use serde::{Deserialize, Serialize};

/// Rejection curves of one dataset, one per trainable ensemble.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RejectionFigure {
    /// "DVFS" (Fig. 7a) or "HPC" (Fig. 9b).
    pub dataset: String,
    /// One curve per ensemble that trained successfully.
    pub curves: Vec<RejectionCurve>,
    /// Ensembles that failed to train (model name, error message).
    pub failures: Vec<(String, String)>,
}

fn build_figure(
    study: &Study,
    corpus: Corpus,
    models: &[BaseModel],
    thresholds: &[f64],
) -> RejectionFigure {
    let mut curves = Vec::new();
    let mut failures = Vec::new();
    for &model in models {
        match study.ensemble(model, corpus) {
            Ok(eval) => curves.push(RejectionCurve::sweep(
                model.short_name(),
                &eval.known,
                &eval.unknown,
                thresholds,
            )),
            Err(err) => failures.push((model.short_name().to_string(), err.to_string())),
        }
    }
    RejectionFigure {
        dataset: corpus.name().to_string(),
        curves,
        failures,
    }
}

/// Regenerates Fig. 7a: DVFS rejection curves for RF, LR and SVM ensembles
/// over thresholds 0.00–0.75.
pub fn fig7a(study: &Study) -> RejectionFigure {
    build_figure(study, Corpus::Dvfs, &BaseModel::all(), &fig7a_thresholds())
}

fn fig7a_thresholds() -> Vec<f64> {
    threshold_grid(0.0, 0.75, 0.05)
}

/// Regenerates Fig. 9b: HPC rejection curves for RF and LR ensembles over
/// thresholds 0.00–0.80 (SVM is dropped because it fails to converge).
pub fn fig9b(study: &Study) -> RejectionFigure {
    build_figure(
        study,
        Corpus::Hpc,
        &[BaseModel::RandomForest, BaseModel::LogisticRegression],
        &threshold_grid(0.0, 0.80, 0.05),
    )
}

/// The paper's §V.A headline: for the DVFS RF ensemble, the operating point
/// that keeps known rejection under 5 % and the fraction of unknown
/// workloads it rejects.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OperatingPointSummary {
    /// Entropy threshold of the operating point.
    pub threshold: f64,
    /// Percentage of known inputs rejected there.
    pub known_rejected_pct: f64,
    /// Percentage of unknown inputs rejected there.
    pub unknown_rejected_pct: f64,
    /// The paper's reported values for comparison (threshold, unknown %).
    pub paper_reference: (f64, f64),
}

/// Computes the DVFS RF operating point on Fig. 7a's RF curve (paper:
/// threshold 0.40 rejects ≈95 % of unknown workloads at <5 % known
/// rejection). Only the RF ensemble is fitted.
pub fn dvfs_operating_points(study: &Study) -> Option<OperatingPointSummary> {
    let rf = study.ensemble(BaseModel::RandomForest, Corpus::Dvfs).ok()?;
    let curve = RejectionCurve::sweep("RF", &rf.known, &rf.unknown, &fig7a_thresholds());
    let op = curve.operating_point(5.0)?;
    Some(OperatingPointSummary {
        threshold: op.threshold,
        known_rejected_pct: op.known_rejected_pct,
        unknown_rejected_pct: op.unknown_rejected_pct,
        paper_reference: (0.40, 95.0),
    })
}

/// Renders the figure data as a text table.
pub fn render(figure: &RejectionFigure) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Rejected inputs vs entropy threshold, {} dataset\n",
        figure.dataset
    ));
    out.push_str(&format!(
        "{:>9} |{}\n",
        "threshold",
        figure
            .curves
            .iter()
            .map(|c| format!(
                " {:>9} {:>9}",
                format!("{}-unk%", c.model_name),
                format!("{}-kn%", c.model_name)
            ))
            .collect::<String>()
    ));
    if let Some(first) = figure.curves.first() {
        for (i, point) in first.points.iter().enumerate() {
            out.push_str(&format!("{:>9.2} |", point.threshold));
            for curve in &figure.curves {
                let p = &curve.points[i];
                out.push_str(&format!(
                    " {:>9.1} {:>9.1}",
                    p.unknown_rejected_pct, p.known_rejected_pct
                ));
            }
            out.push('\n');
        }
    }
    for (model, err) in &figure.failures {
        out.push_str(&format!("{model}: training failed ({err})\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::ExperimentScale;

    #[test]
    fn fig7a_smoke_produces_curves_for_every_trainable_model() {
        let figure = fig7a(&Study::new(ExperimentScale::Smoke, 5));
        assert!(!figure.curves.is_empty());
        let rf = figure.curves.iter().find(|c| c.model_name == "RF").unwrap();
        assert_eq!(rf.points.len(), threshold_grid(0.0, 0.75, 0.05).len());
        assert!(
            rf.separation() > 0.0,
            "RF should separate unknown from known"
        );
        let text = render(&figure);
        assert!(text.contains("threshold"));
    }

    #[test]
    fn fig9b_smoke_reports_low_separation() {
        let figure = fig9b(&Study::new(ExperimentScale::Smoke, 6));
        let rf = figure.curves.iter().find(|c| c.model_name == "RF").unwrap();
        // HPC: known and unknown rejection track each other (limited separation).
        assert!(
            rf.separation() < 45.0,
            "HPC separation should stay small, got {:.1}",
            rf.separation()
        );
    }

    #[test]
    fn operating_point_summary_exists_at_smoke_scale() {
        let op = dvfs_operating_points(&Study::new(ExperimentScale::Smoke, 7));
        let op = op.expect("RF operating point under 5% known rejection exists");
        assert!(op.known_rejected_pct <= 5.0);
        assert_eq!(op.paper_reference, (0.40, 95.0));
    }
}
