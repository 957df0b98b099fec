//! One study per seed: the corpora and the trusted-ensemble fits that every
//! table and figure reads.
//!
//! A [`Study`] builds the DVFS split and the HPC split of its seed, and fits
//! each paper ensemble ([`BaseModel`]) on each of them, the first time a
//! figure asks for it and never again. So `experiments all` builds two
//! splits, every figure of a seed describes the same two corpora and the
//! same fits, and one figure alone pays only for what it reads: Table I
//! fits nothing, and Fig. 9a builds no HPC corpus.

use crate::pipelines::{evaluate_ensemble, BaseModel, EvaluatedEnsemble};
use crate::scale::ExperimentScale;
use hmd_data::split::KnownUnknownSplit;
use hmd_ml::MlError;
use std::cell::OnceCell;

/// The paper's two corpus families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corpus {
    /// DVFS (dynamic voltage and frequency scaling) signatures.
    Dvfs,
    /// HPC (hardware performance counter) signatures.
    Hpc,
}

impl Corpus {
    /// Dataset name used in tables and figures ("DVFS", "HPC").
    pub fn name(self) -> &'static str {
        match self {
            Corpus::Dvfs => "DVFS",
            Corpus::Hpc => "HPC",
        }
    }
}

/// The corpora and trusted-ensemble fits of one scale and seed, each made
/// on first use.
pub struct Study {
    scale: ExperimentScale,
    seed: u64,
    dvfs: Family,
    hpc: Family,
}

/// One corpus family's split and its fits, one slot per [`BaseModel::all`]
/// entry.
#[derive(Default)]
struct Family {
    split: OnceCell<KnownUnknownSplit>,
    fits: [OnceCell<Result<EvaluatedEnsemble, MlError>>; 3],
}

impl Study {
    /// A study of `seed` at `scale`; nothing is built until a figure reads it.
    pub fn new(scale: ExperimentScale, seed: u64) -> Study {
        Study {
            scale,
            seed,
            dvfs: Family::default(),
            hpc: Family::default(),
        }
    }

    /// The scale every corpus and ensemble of the study is built at.
    pub fn scale(&self) -> ExperimentScale {
        self.scale
    }

    /// The seed every corpus and fit of the study derives from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn family(&self, corpus: Corpus) -> &Family {
        match corpus {
            Corpus::Dvfs => &self.dvfs,
            Corpus::Hpc => &self.hpc,
        }
    }

    /// The known/unknown split of `corpus` generated from the study's seed.
    pub fn split(&self, corpus: Corpus) -> &KnownUnknownSplit {
        self.family(corpus).split.get_or_init(|| {
            let split = match corpus {
                Corpus::Dvfs => self.scale.dvfs_builder().build_split(self.seed),
                Corpus::Hpc => self.scale.hpc_builder().build_split(self.seed),
            };
            split.expect("corpus generation is infallible for the scale presets")
        })
    }

    /// The trusted `model` ensemble fitted on `corpus`'s training set (at
    /// seed `seed ^ 0x5eed`) and evaluated on its known-test and unknown
    /// sets.
    ///
    /// # Errors
    ///
    /// The fit's failure, kept for every later reader. HPC fits run with the
    /// SVM convergence check, so the HPC SVM ensemble reports the paper's
    /// "SVM failed to converge" instead of a figure.
    pub fn ensemble(
        &self,
        model: BaseModel,
        corpus: Corpus,
    ) -> Result<&EvaluatedEnsemble, &MlError> {
        let slot = BaseModel::all()
            .iter()
            .position(|&m| m == model)
            .expect("every base model is listed");
        self.family(corpus).fits[slot]
            .get_or_init(|| {
                evaluate_ensemble(
                    model,
                    self.split(corpus),
                    self.scale.num_estimators(),
                    corpus == Corpus::Hpc,
                    self.seed ^ 0x5eed,
                )
            })
            .as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dvfs_smoke_evaluation_produces_predictions_for_rf() {
        let study = Study::new(ExperimentScale::Smoke, 1);
        let eval = study
            .ensemble(BaseModel::RandomForest, Corpus::Dvfs)
            .expect("RF training succeeds");
        assert_eq!(eval.model, BaseModel::RandomForest);
        assert!(!eval.known.is_empty());
        assert!(!eval.unknown.is_empty());
        assert_eq!(eval.known.len(), eval.known_truth.len());
    }

    #[test]
    fn hpc_smoke_evaluation_runs_logistic_regression() {
        let study = Study::new(ExperimentScale::Smoke, 2);
        let eval = study
            .ensemble(BaseModel::LogisticRegression, Corpus::Hpc)
            .expect("LR training succeeds");
        assert_eq!(eval.unknown.len(), eval.unknown_truth.len());
    }

    #[test]
    fn a_figure_builds_only_what_it_reads_and_each_of_it_once() {
        let study = Study::new(ExperimentScale::Smoke, 3);
        let fitted = |family: &Family| family.fits.iter().filter(|f| f.get().is_some()).count();
        crate::ensemble_size::fig9a(&study, &[1, 5]);
        assert!(study.dvfs.split.get().is_some());
        assert!(
            study.hpc.split.get().is_none(),
            "Fig. 9a reads no HPC corpus"
        );
        crate::table1::run(&study);
        assert_eq!(
            fitted(&study.dvfs) + fitted(&study.hpc),
            0,
            "Table I fits nothing"
        );

        let rf = study.ensemble(BaseModel::RandomForest, Corpus::Hpc);
        assert!(std::ptr::eq(
            rf.expect("RF trains"),
            study
                .ensemble(BaseModel::RandomForest, Corpus::Hpc)
                .expect("RF trains")
        ));
        assert_eq!((fitted(&study.dvfs), fitted(&study.hpc)), (0, 1));
    }
}
