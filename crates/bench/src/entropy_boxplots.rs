//! Figures 4 and 5: boxplots of the prediction-entropy distributions on known
//! vs. unknown data, per ensemble.

use crate::pipelines::BaseModel;
use crate::study::{Corpus, Study};
use hmd_core::analysis::KnownUnknownEntropy;
use serde::{Deserialize, Serialize};

/// One boxplot pair of Fig. 4 / Fig. 5.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EntropyBoxplotRow {
    /// Ensemble base model ("RF", "LR", "SVM").
    pub model: String,
    /// Entropy summaries for known and unknown data; `None` when training
    /// failed (SVM on HPC).
    pub entropies: Option<KnownUnknownEntropy>,
    /// Training failure message, when applicable.
    pub failure: Option<String>,
}

/// The complete data series of one entropy-boxplot figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EntropyBoxplotFigure {
    /// "DVFS" (Fig. 4) or "HPC" (Fig. 5).
    pub dataset: String,
    /// One row per ensemble.
    pub rows: Vec<EntropyBoxplotRow>,
}

fn summarise(study: &Study, corpus: Corpus) -> EntropyBoxplotFigure {
    let rows = BaseModel::all()
        .into_iter()
        .map(|model| match study.ensemble(model, corpus) {
            Ok(eval) => {
                let known: Vec<f64> = eval.known.iter().map(|p| p.entropy).collect();
                let unknown: Vec<f64> = eval.unknown.iter().map(|p| p.entropy).collect();
                EntropyBoxplotRow {
                    model: model.short_name().to_string(),
                    entropies: Some(KnownUnknownEntropy::new(&known, &unknown)),
                    failure: None,
                }
            }
            Err(err) => EntropyBoxplotRow {
                model: model.short_name().to_string(),
                entropies: None,
                failure: Some(err.to_string()),
            },
        })
        .collect();
    EntropyBoxplotFigure {
        dataset: corpus.name().to_string(),
        rows,
    }
}

/// Regenerates Fig. 4 (DVFS entropy boxplots for RF, LR and SVM ensembles).
pub fn fig4(study: &Study) -> EntropyBoxplotFigure {
    summarise(study, Corpus::Dvfs)
}

/// Regenerates Fig. 5 (HPC entropy boxplots; the SVM ensemble fails to
/// converge and is reported as such, exactly like the paper drops it).
pub fn fig5(study: &Study) -> EntropyBoxplotFigure {
    summarise(study, Corpus::Hpc)
}

/// Renders the figure data as a text table.
pub fn render(figure: &EntropyBoxplotFigure) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Entropy distributions, {} dataset (known vs unknown)\n",
        figure.dataset
    ));
    out.push_str(&format!(
        "{:<6} {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9} | {:>10}\n",
        "model", "kn.q1", "kn.med", "kn.q3", "unk.q1", "unk.med", "unk.q3", "median gap"
    ));
    for row in &figure.rows {
        match &row.entropies {
            Some(pair) => out.push_str(&format!(
                "{:<6} {:>9.3} {:>9.3} {:>9.3} | {:>9.3} {:>9.3} {:>9.3} | {:>10.3}\n",
                row.model,
                pair.known.q1,
                pair.known.median,
                pair.known.q3,
                pair.unknown.q1,
                pair.unknown.median,
                pair.unknown.q3,
                pair.median_gap()
            )),
            None => out.push_str(&format!(
                "{:<6} training failed: {}\n",
                row.model,
                row.failure.as_deref().unwrap_or("unknown error")
            )),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::ExperimentScale;

    #[test]
    fn fig4_smoke_has_three_rows_and_rf_separates() {
        let figure = fig4(&Study::new(ExperimentScale::Smoke, 17));
        assert_eq!(figure.rows.len(), 3);
        let rf = &figure.rows[0];
        assert_eq!(rf.model, "RF");
        let pair = rf.entropies.expect("RF trains on DVFS");
        assert!(
            pair.median_gap() > 0.0,
            "unknown median should exceed known median even at smoke scale"
        );
        let text = render(&figure);
        assert!(text.contains("DVFS"));
    }

    #[test]
    fn fig5_smoke_reports_svm_failure() {
        let figure = fig5(&Study::new(ExperimentScale::Smoke, 18));
        assert_eq!(figure.rows.len(), 3);
        let svm = figure
            .rows
            .iter()
            .find(|r| r.model == "SVM")
            .expect("SVM row present");
        assert!(
            svm.failure.is_some() || svm.entropies.is_some(),
            "SVM row must either fail (as in the paper) or report entropies"
        );
        let rf = figure.rows.iter().find(|r| r.model == "RF").unwrap();
        assert!(rf.entropies.is_some());
    }
}
