//! DVFS corpus generation: simulating signatures for every application in the
//! catalog and assembling the paper's train / known-test / unknown split
//! (Table I, DVFS block: 2100 / 700 / 284 samples).

use crate::apps::{AppCatalog, AppProfile};
use crate::features::FeatureExtractor;
use crate::soc::SocConfig;
use crate::trace::DvfsTrace;
use hmd_data::split::{known_unknown_split, KnownUnknownSplit};
use hmd_data::{DataError, Dataset, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Rows [`DvfsCorpusBuilder::build_corpus`] and the corpus stream simulate
/// per hand-off to the worker pool: enough to keep both cores of a small
/// host busy past the hand-off, few enough that a stream reads little
/// ahead of its reader.
pub(crate) const CHUNK_ROWS: usize = 32;

/// Builder for DVFS signature corpora.
///
/// # Example
///
/// ```
/// use hmd_dvfs::dataset::DvfsCorpusBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let split = DvfsCorpusBuilder::new()
///     .with_samples_per_app(4)
///     .with_trace_len(128)
///     .build_split(7)?;
/// assert_eq!(split.train.num_features(), split.unknown.num_features());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DvfsCorpusBuilder {
    /// SoC whose governor and OPP table produce the traces.
    pub soc: SocConfig,
    /// Feature extractor applied to every trace.
    pub extractor: FeatureExtractor,
    /// Signatures generated per known application.
    pub samples_per_known_app: usize,
    /// Signatures generated per unknown application.
    pub samples_per_unknown_app: usize,
    /// Trace length in governor sampling periods.
    pub trace_len: usize,
    /// Fraction of known signatures held out as the known test set.
    pub test_fraction: f64,
}

impl DvfsCorpusBuilder {
    /// A small corpus suitable for unit and integration tests
    /// (12 samples per known app, 8 per unknown app, 256-sample traces).
    pub fn new() -> DvfsCorpusBuilder {
        DvfsCorpusBuilder {
            soc: SocConfig::snapdragon_like(),
            extractor: FeatureExtractor::new(),
            samples_per_known_app: 12,
            samples_per_unknown_app: 8,
            trace_len: 256,
            test_fraction: 0.25,
        }
    }

    /// The corpus scale of the paper's Table I: 18 known applications ×
    /// 156 samples ≈ 2800 known signatures (2100 train / 700 test at a 25 %
    /// split) and 6 unknown applications × 47 ≈ 284 unknown signatures, with
    /// 1024-sample traces.
    pub fn paper_scale() -> DvfsCorpusBuilder {
        DvfsCorpusBuilder {
            soc: SocConfig::snapdragon_like(),
            extractor: FeatureExtractor::new(),
            samples_per_known_app: 156,
            samples_per_unknown_app: 47,
            trace_len: 1024,
            test_fraction: 0.25,
        }
    }

    /// A mid-sized corpus for benchmarks that need paper-shaped results in
    /// seconds rather than minutes.
    pub fn bench_scale() -> DvfsCorpusBuilder {
        DvfsCorpusBuilder {
            soc: SocConfig::snapdragon_like(),
            extractor: FeatureExtractor::new(),
            samples_per_known_app: 40,
            samples_per_unknown_app: 16,
            trace_len: 512,
            test_fraction: 0.25,
        }
    }

    /// Sets both per-app sample counts to the same value.
    pub fn with_samples_per_app(mut self, n: usize) -> Self {
        self.samples_per_known_app = n;
        self.samples_per_unknown_app = n;
        self
    }

    /// Sets the trace length (governor sampling periods per signature).
    pub fn with_trace_len(mut self, len: usize) -> Self {
        self.trace_len = len;
        self
    }

    /// Sets the known-test fraction.
    pub fn with_test_fraction(mut self, fraction: f64) -> Self {
        self.test_fraction = fraction;
        self
    }

    /// Generates the feature vector of a single fresh signature for one
    /// application (used by the online-monitoring example).
    pub fn simulate_signature<R: Rng>(&self, app: &AppProfile, rng: &mut R) -> Vec<f64> {
        let mut governor = app.governor.build();
        let trace = DvfsTrace::simulate(
            &app.workload,
            governor.as_mut(),
            &self.soc,
            self.trace_len,
            rng,
        );
        self.extractor.extract(&trace)
    }

    /// Advances `rng` exactly as [`DvfsCorpusBuilder::simulate_signature`]
    /// would, without simulating anything: of a signature's stages only
    /// the workload draws from the generator.
    fn skip_signature<R: Rng>(&self, app: &AppProfile, rng: &mut R) {
        app.workload.skip_trace(self.trace_len, rng);
    }

    /// The signatures [`DvfsCorpusBuilder::simulate_signature`] returns for
    /// each of `apps` in turn, drawing from `rng`, which ends where those
    /// calls would leave it.
    ///
    /// Only a row's generator draws depend on the rows before it. So this
    /// thread walks the draws of every row, keeping the generator state at
    /// each row's start, and the worker pool (this thread taking a share)
    /// simulates the rows from their start states, in order.
    pub(crate) fn simulate_rows(&self, apps: &[&AppProfile], rng: &mut StdRng) -> Vec<Vec<f64>> {
        let starts: Vec<(&AppProfile, StdRng)> = apps
            .iter()
            .map(|&app| {
                let start = rng.clone();
                self.skip_signature(app, rng);
                (app, start)
            })
            .collect();
        let rows: Vec<(Vec<f64>, StdRng)> = starts
            .par_iter()
            .map(|(app, start)| {
                let mut row_rng = start.clone();
                (self.simulate_signature(app, &mut row_rng), row_rng)
            })
            .collect();
        debug_assert!(
            rows.iter().map(|(_, end)| end).eq(starts
                .iter()
                .skip(1)
                .map(|(_, start)| start)
                .chain([&*rng])),
            "a simulated row must end where the next row's draws start"
        );
        rows.into_iter().map(|(features, _)| features).collect()
    }

    /// Generates the full corpus (all applications, with per-sample
    /// application metadata). The rows are simulated on the worker pool,
    /// 32 at a time (see `simulate_rows`), bit for bit as one
    /// thread calling [`DvfsCorpusBuilder::simulate_signature`] per row
    /// would.
    ///
    /// # Errors
    ///
    /// Returns a [`DataError`] if the generated matrix is inconsistent, which
    /// indicates a bug rather than a user error.
    pub fn build_corpus(&self, seed: u64) -> Result<Dataset, DataError> {
        let catalog = AppCatalog::standard();
        let apps: Vec<&AppProfile> = catalog
            .apps()
            .iter()
            .flat_map(|app| {
                let count = if app.known {
                    self.samples_per_known_app
                } else {
                    self.samples_per_unknown_app
                };
                std::iter::repeat_n(app, count)
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::with_capacity(apps.len());
        for chunk in apps.chunks(CHUNK_ROWS) {
            rows.extend(self.simulate_rows(chunk, &mut rng));
        }
        let labels = apps.iter().map(|app| app.label).collect();
        let meta = apps.iter().map(|app| app.sample_meta()).collect();
        let features = Matrix::from_rows(&rows)?;
        let mut dataset = Dataset::with_meta(features, labels, meta)?;
        dataset.set_feature_names(self.extractor.feature_names(self.soc.num_states()))?;
        Ok(dataset)
    }

    /// Generates the corpus and splits it into train / known-test / unknown.
    ///
    /// # Errors
    ///
    /// Propagates corpus-generation and splitting errors.
    pub fn build_split(&self, seed: u64) -> Result<KnownUnknownSplit, DataError> {
        let corpus = self.build_corpus(seed)?;
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(1));
        known_unknown_split(&corpus, self.test_fraction, &mut rng)
    }
}

impl Default for DvfsCorpusBuilder {
    fn default() -> Self {
        DvfsCorpusBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Phase, WorkloadModel};
    use hmd_data::Label;

    #[test]
    fn a_skipped_row_leaves_the_generator_where_a_simulated_row_does() {
        // The catalog mixes spiky and steady phases. Two more apps switch
        // phase every sample, so every trace of two or more samples has a
        // boundary on its last one; two switch every third sample, so a
        // four-sample trace has one there and nowhere before.
        let catalog = AppCatalog::standard();
        let mut apps = catalog.apps().to_vec();
        for duration in [1.0, 3.0] {
            for spikes in [0.0, 0.5] {
                let workload = WorkloadModel::new(vec![
                    Phase::new(0.9, duration).with_spikes(spikes),
                    Phase::new(0.1, duration).with_spikes(spikes),
                ])
                .with_duration_jitter(0.0);
                apps.push(AppProfile {
                    workload,
                    ..catalog.apps()[0].clone()
                });
            }
        }
        for app in &apps {
            for len in [1, 2, 4, 512] {
                let builder = DvfsCorpusBuilder::new().with_trace_len(len);
                for seed in 0..3 {
                    let mut simulated = StdRng::seed_from_u64(seed);
                    let mut skipped = simulated.clone();
                    builder.simulate_signature(app, &mut simulated);
                    builder.skip_signature(app, &mut skipped);
                    assert_eq!(
                        skipped, simulated,
                        "{}, {len} samples, seed {seed}",
                        app.name
                    );
                }
            }
        }
    }

    #[test]
    fn a_pooled_corpus_equals_the_row_by_row_simulation() {
        // 72 rows: two full chunks, then a partial one.
        let builder = DvfsCorpusBuilder::new()
            .with_samples_per_app(3)
            .with_trace_len(64);
        let corpus = builder.build_corpus(11).unwrap();
        assert_eq!(corpus.len(), 72);
        let mut rng = StdRng::seed_from_u64(11);
        let mut row = 0;
        for app in AppCatalog::standard().apps() {
            for _ in 0..3 {
                let expected = builder.simulate_signature(app, &mut rng);
                let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(corpus.features().row(row)),
                    bits(&expected),
                    "row {row}"
                );
                assert_eq!(corpus.labels()[row], app.label);
                assert_eq!(corpus.meta()[row], app.sample_meta());
                row += 1;
            }
        }
    }

    #[test]
    fn corpus_has_expected_size_and_metadata() {
        let builder = DvfsCorpusBuilder::new()
            .with_samples_per_app(5)
            .with_trace_len(128);
        let corpus = builder.build_corpus(1).unwrap();
        let catalog = AppCatalog::standard();
        assert_eq!(corpus.len(), catalog.len() * 5);
        assert_eq!(corpus.meta().len(), corpus.len());
        assert_eq!(
            corpus.num_features(),
            builder.extractor.num_features(builder.soc.num_states())
        );
    }

    #[test]
    fn split_respects_unknown_apps() {
        let split = DvfsCorpusBuilder::new()
            .with_samples_per_app(6)
            .with_trace_len(128)
            .build_split(3)
            .unwrap();
        assert!(split.unknown.meta().iter().all(|m| m.unknown_app));
        assert!(split.train.meta().iter().all(|m| !m.unknown_app));
        assert!(split.test_known.meta().iter().all(|m| !m.unknown_app));
        // both classes present in training data
        let counts = split.train.class_counts();
        assert!(counts[0] > 0 && counts[1] > 0);
    }

    #[test]
    fn paper_scale_matches_table_one_proportions() {
        let builder = DvfsCorpusBuilder::paper_scale();
        let known_total = 18 * builder.samples_per_known_app;
        let unknown_total = 6 * builder.samples_per_unknown_app;
        // Table I: 2100 train + 700 test = 2800 known, 284 unknown.
        assert_eq!(known_total, 2808);
        assert_eq!(unknown_total, 282);
        assert!((builder.test_fraction - 0.25).abs() < 1e-12);
    }

    #[test]
    fn generation_is_deterministic_in_seed() {
        let builder = DvfsCorpusBuilder::new()
            .with_samples_per_app(3)
            .with_trace_len(64);
        let a = builder.build_corpus(9).unwrap();
        let b = builder.build_corpus(9).unwrap();
        assert_eq!(a, b);
        let c = builder.build_corpus(10).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn benign_and_malware_signatures_are_distinguishable_on_average() {
        // Centroid distance between classes should be clearly nonzero: the
        // DVFS dataset is the paper's "disjoint classes" example.
        let corpus = DvfsCorpusBuilder::new()
            .with_samples_per_app(8)
            .with_trace_len(256)
            .build_corpus(5)
            .unwrap();
        let features = corpus.features();
        let mut benign = vec![0.0; corpus.num_features()];
        let mut malware = vec![0.0; corpus.num_features()];
        let mut nb = 0.0;
        let mut nm = 0.0;
        for i in 0..corpus.len() {
            let row = features.row(i);
            if corpus.labels()[i] == Label::Malware {
                for (a, b) in malware.iter_mut().zip(row) {
                    *a += b;
                }
                nm += 1.0;
            } else {
                for (a, b) in benign.iter_mut().zip(row) {
                    *a += b;
                }
                nb += 1.0;
            }
        }
        let dist: f64 = benign
            .iter()
            .zip(&malware)
            .map(|(b, m)| (b / nb - m / nm).powi(2))
            .sum::<f64>()
            .sqrt();
        assert!(dist > 0.1, "class centroids too close: {dist}");
    }
}
