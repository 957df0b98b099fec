//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each experiment module produces the data series behind one table or
//! figure from one [`Study`] per seed, which builds the DVFS and HPC corpora
//! and fits each paper ensemble once; the `experiments` binary prints them as
//! text tables (`--dump DIR` also writes their raw data as `Debug` dumps).
//! Its `robustness` mode writes the committed `BENCH_robustness.json`
//! record instead.
//!
//! | Paper artifact | Module | `experiments` name |
//! |---|---|---|
//! | Table I (dataset taxonomy) | [`table1`] | `table1` |
//! | Fig. 4 (DVFS entropy boxplots) | [`entropy_boxplots`] | `fig4` |
//! | Fig. 5 (HPC entropy boxplots) | [`entropy_boxplots`] | `fig5` |
//! | Fig. 7a (DVFS rejection vs threshold) | [`rejection_curves`] | `fig7a` |
//! | Fig. 7b (accepted F1 vs threshold) | [`f1_curves`] | `fig7b` |
//! | Fig. 8 (t-SNE latent space) | [`tsne_overlap`] | `fig8` |
//! | Fig. 9a (entropy vs ensemble size) | [`ensemble_size`] | `fig9a` |
//! | Fig. 9b (HPC rejection vs threshold) | [`rejection_curves`] | `fig9b` |
//! | §V.A headline numbers | [`rejection_curves::dvfs_operating_points`] | `headline` |
//! | Ablations (bootstrap diversity, Platt baseline) | [`ablations`] | `ablations` |
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
pub mod study;
pub mod table1;
pub mod tsne_overlap;

pub use scale::ExperimentScale;
pub use study::{Corpus, Study};
