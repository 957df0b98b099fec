//! Experiment scale presets.
//!
//! The paper's full corpus (Table I) takes minutes to regenerate; the
//! `bench` scale preserves every qualitative property at a fraction of the
//! cost, and the `smoke` scale keeps tests and CI runs fast.

use hmd_dvfs::dataset::DvfsCorpusBuilder;
use hmd_hpc::dataset::HpcCorpusBuilder;
use serde::{Deserialize, Serialize};

/// How large a corpus the experiments generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ExperimentScale {
    /// Tiny corpora for tests and CI smoke runs.
    Smoke,
    /// Mid-sized corpora with the paper's qualitative behaviour (default).
    #[default]
    Bench,
    /// The sample counts of the paper's Table I.
    Paper,
}

impl ExperimentScale {
    /// Parses a scale name (`smoke`, `bench`, `paper`).
    pub fn parse(name: &str) -> Option<ExperimentScale> {
        match name.to_ascii_lowercase().as_str() {
            "smoke" => Some(ExperimentScale::Smoke),
            "bench" => Some(ExperimentScale::Bench),
            "paper" => Some(ExperimentScale::Paper),
            _ => None,
        }
    }

    /// The DVFS corpus builder for this scale.
    pub fn dvfs_builder(self) -> DvfsCorpusBuilder {
        match self {
            ExperimentScale::Smoke => DvfsCorpusBuilder::new()
                .with_samples_per_app(25)
                .with_trace_len(512),
            ExperimentScale::Bench => DvfsCorpusBuilder::bench_scale(),
            ExperimentScale::Paper => DvfsCorpusBuilder::paper_scale(),
        }
    }

    /// The HPC corpus builder for this scale.
    pub fn hpc_builder(self) -> HpcCorpusBuilder {
        match self {
            ExperimentScale::Smoke => HpcCorpusBuilder::new().with_samples_per_app(12),
            ExperimentScale::Bench => HpcCorpusBuilder::bench_scale(),
            ExperimentScale::Paper => HpcCorpusBuilder::paper_scale(),
        }
    }

    /// Number of base classifiers in the bagging ensembles at this scale.
    pub fn num_estimators(self) -> usize {
        match self {
            ExperimentScale::Smoke => 15,
            ExperimentScale::Bench | ExperimentScale::Paper => 25,
        }
    }

    /// Maximum number of points embedded by the t-SNE experiment.
    pub fn tsne_points(self) -> usize {
        match self {
            ExperimentScale::Smoke => 90,
            ExperimentScale::Bench => 250,
            ExperimentScale::Paper => 600,
        }
    }

    /// Name used in report headers.
    pub fn name(self) -> &'static str {
        match self {
            ExperimentScale::Smoke => "smoke",
            ExperimentScale::Bench => "bench",
            ExperimentScale::Paper => "paper",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_known_names_only() {
        assert_eq!(
            ExperimentScale::parse("paper"),
            Some(ExperimentScale::Paper)
        );
        assert_eq!(
            ExperimentScale::parse("BENCH"),
            Some(ExperimentScale::Bench)
        );
        assert_eq!(
            ExperimentScale::parse("smoke"),
            Some(ExperimentScale::Smoke)
        );
        assert_eq!(ExperimentScale::parse("huge"), None);
    }

    #[test]
    fn scales_grow_monotonically() {
        let smoke = ExperimentScale::Smoke.dvfs_builder();
        let bench = ExperimentScale::Bench.dvfs_builder();
        let paper = ExperimentScale::Paper.dvfs_builder();
        assert!(smoke.samples_per_known_app < bench.samples_per_known_app);
        assert!(bench.samples_per_known_app < paper.samples_per_known_app);
        assert!(ExperimentScale::Smoke.tsne_points() < ExperimentScale::Paper.tsne_points());
    }

    #[test]
    fn default_scale_is_bench() {
        assert_eq!(ExperimentScale::default(), ExperimentScale::Bench);
        assert_eq!(ExperimentScale::Bench.name(), "bench");
    }
}
