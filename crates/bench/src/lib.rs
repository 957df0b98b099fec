//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each experiment module produces the data series behind one table or
//! figure; the `experiments` binary prints them as text tables (`--dump DIR`
//! also writes their raw data as `Debug` dumps), and the Criterion benches
//! under `benches/` time the regeneration of each one.
//! The `robustness` bench is a plain `main` instead: it writes the committed
//! `BENCH_robustness.json` record.
//!
//! | Paper artifact | Module | Bench target |
//! |---|---|---|
//! | Table I (dataset taxonomy) | [`table1`] | `table1` |
//! | Fig. 4 (DVFS entropy boxplots) | [`entropy_boxplots`] | `fig4_dvfs_entropy` |
//! | Fig. 5 (HPC entropy boxplots) | [`entropy_boxplots`] | `fig5_hpc_entropy` |
//! | Fig. 7a (DVFS rejection vs threshold) | [`rejection_curves`] | `fig7a_dvfs_rejection` |
//! | Fig. 7b (accepted F1 vs threshold) | [`f1_curves`] | `fig7b_f1_vs_threshold` |
//! | Fig. 8 (t-SNE latent space) | [`tsne_overlap`] | `fig8_tsne` |
//! | Fig. 9a (entropy vs ensemble size) | [`ensemble_size`] | `fig9a_ensemble_size` |
//! | Fig. 9b (HPC rejection vs threshold) | [`rejection_curves`] | `fig9b_hpc_rejection` |
//! | §V.A headline numbers | [`rejection_curves::dvfs_operating_points`] | `experiments -- headline` |
//! | Ablations (bootstrap diversity, Platt baseline) | [`ablations`] | `ablation_*` |
//! | Robustness under attack (threat suite) | [`robustness`] | `robustness` |

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod ablations;
pub mod ensemble_size;
pub mod entropy_boxplots;
pub mod f1_curves;
pub mod pipelines;
pub mod rejection_curves;
pub mod robustness;
pub mod scale;
pub mod table1;
pub mod tsne_overlap;

pub use scale::ExperimentScale;
