//! Figure 8: t-SNE visualisation of the training data (benign vs. malware)
//! and the unknown data, for both datasets, summarised by a class-overlap
//! score.

use crate::study::{Corpus, Study};
use hmd_core::analysis::class_overlap_score;
use hmd_data::scaler::StandardScaler;
use hmd_data::{Label, Matrix};
use hmd_ml::tsne::{Tsne, TsneParams};
use serde::{Deserialize, Serialize};

/// The embedded points of one dataset's panel of Fig. 8.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TsnePanel {
    /// "DVFS" or "HPC".
    pub dataset: String,
    /// 2-D embedded coordinates, one row per embedded sample.
    pub embedding: Vec<[f64; 2]>,
    /// Class of each embedded sample (training benign / malware).
    pub labels: Vec<Label>,
    /// Whether each embedded sample came from the unknown bucket.
    pub unknown: Vec<bool>,
    /// Fraction of samples whose nearest neighbour belongs to the other
    /// class: ≈0 for cleanly separated classes, →0.5 for heavy overlap.
    pub benign_malware_overlap: f64,
    /// Fraction of *unknown* samples whose nearest neighbour is a training
    /// sample of a different class than their own majority region — a proxy
    /// for "the unknowns sit inside the class overlap" (high on HPC) versus
    /// "the unknowns sit away from the training data" (low on DVFS).
    pub unknown_inside_overlap: f64,
}

/// Both panels of Fig. 8.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TsneFigure {
    /// DVFS panel (Fig. 8a).
    pub dvfs: TsnePanel,
    /// HPC panel (Fig. 8b).
    pub hpc: TsnePanel,
}

/// Regenerates Fig. 8 from the study's corpora (the number of embedded
/// points is capped by [`ExperimentScale::tsne_points`] because exact t-SNE
/// is O(n²)).
///
/// [`ExperimentScale::tsne_points`]: crate::ExperimentScale::tsne_points
pub fn fig8(study: &Study) -> TsneFigure {
    let max_points = study.scale().tsne_points();
    TsneFigure {
        dvfs: embed_panel(study, Corpus::Dvfs, max_points, study.seed()),
        hpc: embed_panel(study, Corpus::Hpc, max_points, study.seed() + 2),
    }
}

fn embed_panel(study: &Study, corpus: Corpus, max_points: usize, seed: u64) -> TsnePanel {
    let split = study.split(corpus);
    // Assemble a balanced subsample: training data plus unknown data.
    let train_budget = (max_points * 3) / 4;
    let unknown_budget = max_points - train_budget;
    let train_indices = subsample(split.train.len(), train_budget);
    let unknown_indices = subsample(split.unknown.len(), unknown_budget);

    let mut rows: Vec<Vec<f64>> = Vec::new();
    let mut labels = Vec::new();
    let mut unknown_flags = Vec::new();
    for &i in &train_indices {
        rows.push(split.train.features().row(i).to_vec());
        labels.push(split.train.labels()[i]);
        unknown_flags.push(false);
    }
    for &i in &unknown_indices {
        rows.push(split.unknown.features().row(i).to_vec());
        labels.push(split.unknown.labels()[i]);
        unknown_flags.push(true);
    }
    let features = Matrix::from_rows(&rows).expect("uniform feature width");
    let scaler = StandardScaler::fit(&features);
    let scaled = scaler.transform(&features).expect("same width");

    let tsne = Tsne::new(
        TsneParams::new()
            .with_perplexity(20.0_f64.min((rows.len() as f64 / 4.0).max(5.0)))
            .with_iterations(300),
    );
    let embedding = tsne.embed(&scaled, seed).expect("enough points");

    // Overlap between benign and malware among *training* points only.
    let train_count = train_indices.len();
    let train_embedding = embedding.select_rows(&(0..train_count).collect::<Vec<_>>());
    let benign_malware_overlap = class_overlap_score(&train_embedding, &labels[..train_count]);

    // For every unknown point, check whether its nearest training neighbour
    // has the same label; a mismatch fraction near 0.5 means the unknowns sit
    // in the class-overlap region.
    let mut mismatches = 0usize;
    for u in train_count..embedding.rows() {
        let mut best = f64::INFINITY;
        let mut best_label = labels[u];
        for (t, label) in labels.iter().enumerate().take(train_count) {
            let d: f64 = embedding
                .row(u)
                .iter()
                .zip(embedding.row(t))
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            if d < best {
                best = d;
                best_label = *label;
            }
        }
        if best_label != labels[u] {
            mismatches += 1;
        }
    }
    let unknown_count = embedding.rows() - train_count;
    let unknown_inside_overlap = if unknown_count == 0 {
        0.0
    } else {
        mismatches as f64 / unknown_count as f64
    };

    TsnePanel {
        dataset: corpus.name().to_string(),
        embedding: embedding.iter_rows().map(|r| [r[0], r[1]]).collect(),
        labels,
        unknown: unknown_flags,
        benign_malware_overlap,
        unknown_inside_overlap,
    }
}

/// Evenly spaced subsample of `0..len` with at most `budget` indices.
fn subsample(len: usize, budget: usize) -> Vec<usize> {
    if len <= budget {
        return (0..len).collect();
    }
    (0..budget).map(|i| i * len / budget).collect()
}

/// Renders the overlap summary of both panels.
pub fn render(figure: &TsneFigure) -> String {
    let mut out = String::new();
    out.push_str("t-SNE latent-space summary (Fig. 8)\n");
    out.push_str(&format!(
        "{:<6} {:>12} {:>22} {:>24}\n",
        "panel", "points", "benign/malware overlap", "unknown-in-overlap frac"
    ));
    for panel in [&figure.dvfs, &figure.hpc] {
        out.push_str(&format!(
            "{:<6} {:>12} {:>22.3} {:>24.3}\n",
            panel.dataset,
            panel.embedding.len(),
            panel.benign_malware_overlap,
            panel.unknown_inside_overlap
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::ExperimentScale;

    #[test]
    fn fig8_smoke_embeds_both_panels() {
        let figure = fig8(&Study::new(ExperimentScale::Smoke, 9));
        for panel in [&figure.dvfs, &figure.hpc] {
            assert_eq!(panel.embedding.len(), panel.labels.len());
            assert_eq!(panel.embedding.len(), panel.unknown.len());
            assert!(panel
                .embedding
                .iter()
                .all(|p| p[0].is_finite() && p[1].is_finite()));
            assert!((0.0..=1.0).contains(&panel.benign_malware_overlap));
            assert!((0.0..=1.0).contains(&panel.unknown_inside_overlap));
        }
        // The paper's qualitative claim: HPC classes overlap more than DVFS classes.
        assert!(
            figure.hpc.benign_malware_overlap >= figure.dvfs.benign_malware_overlap,
            "HPC overlap {:.3} should be at least DVFS overlap {:.3}",
            figure.hpc.benign_malware_overlap,
            figure.dvfs.benign_malware_overlap
        );
        let text = render(&figure);
        assert!(text.contains("t-SNE"));
    }

    #[test]
    fn subsample_respects_budget_and_bounds() {
        assert_eq!(subsample(5, 10), vec![0, 1, 2, 3, 4]);
        let s = subsample(1000, 10);
        assert_eq!(s.len(), 10);
        assert!(s.iter().all(|&i| i < 1000));
        assert!(s.windows(2).all(|w| w[1] > w[0]));
    }
}
