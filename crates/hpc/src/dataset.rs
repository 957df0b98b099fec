//! HPC corpus generation: sampling counter vectors for every program in the
//! catalog and assembling the paper's train / known-test / unknown split
//! (Table I, HPC block: 44 605 / 6 372 / 12 727 samples).
//!
//! [`HpcCorpusBuilder::build_corpus`] runs the two stages of interval
//! simulation on two threads. A scoped thread owns the seeded random stream
//! and draws every interval's trace, in catalog order, into buffers the
//! caller allocated; the caller replays each trace on the program's core and
//! extracts the row. A fixed set of buffers circulates between them through
//! two bounded channels, so the tracer allocates no trace memory and trace
//! memory does not grow with the corpus. The rows are bit for bit those of
//! one thread running [`Sampler::sample_program`] program by program.

use crate::apps::{ProgramCatalog, ProgramProfile};
use crate::cpu::Cpu;
use crate::features::HpcFeatureExtractor;
use crate::sampler::Sampler;
use crate::workload::ProgramState;
use hmd_data::split::{known_unknown_split, KnownUnknownSplit};
use hmd_data::{DataError, Dataset, Matrix, SampleMeta};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::mpsc;
use std::thread;

/// Trace buffers circulating between the two stages of `build_corpus`.
const TRACE_BUFFERS: usize = 4;

/// Builder for HPC signature corpora.
///
/// # Example
///
/// ```
/// use hmd_hpc::dataset::HpcCorpusBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let corpus = HpcCorpusBuilder::new().with_samples_per_app(4).build_corpus(1)?;
/// assert_eq!(corpus.num_features(), 14);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HpcCorpusBuilder {
    /// Counter sampler configuration.
    pub sampler: Sampler,
    /// Samples (sampling intervals) collected per known program.
    pub samples_per_known_app: usize,
    /// Samples collected per unknown program.
    pub samples_per_unknown_app: usize,
    /// Fraction of known samples held out as the known test set.
    pub test_fraction: f64,
}

impl HpcCorpusBuilder {
    /// A small corpus suitable for unit and integration tests
    /// (20 samples per known program, 12 per unknown program).
    pub fn new() -> HpcCorpusBuilder {
        HpcCorpusBuilder {
            sampler: Sampler::new(),
            samples_per_known_app: 20,
            samples_per_unknown_app: 12,
            test_fraction: 0.125,
        }
    }

    /// The corpus scale of the paper's Table I: 14 known programs × 3 641
    /// samples ≈ 50 977 known vectors (44 605 train / 6 372 test at a 12.5 %
    /// split) and 4 unknown programs × 3 182 ≈ 12 727 unknown vectors.
    ///
    /// Generating this corpus simulates ~280 M instructions; use
    /// [`HpcCorpusBuilder::bench_scale`] for interactive runs.
    pub fn paper_scale() -> HpcCorpusBuilder {
        HpcCorpusBuilder {
            sampler: Sampler::new(),
            samples_per_known_app: 3641,
            samples_per_unknown_app: 3182,
            test_fraction: 0.125,
        }
    }

    /// A mid-sized corpus for benchmarks (≈ 4 200 known + 1 200 unknown
    /// samples) that preserves the paper's known/unknown proportions.
    pub fn bench_scale() -> HpcCorpusBuilder {
        HpcCorpusBuilder {
            sampler: Sampler::new(),
            samples_per_known_app: 300,
            samples_per_unknown_app: 300,
            test_fraction: 0.125,
        }
    }

    /// Sets both per-program sample counts to the same value.
    pub fn with_samples_per_app(mut self, n: usize) -> Self {
        self.samples_per_known_app = n;
        self.samples_per_unknown_app = n;
        self
    }

    /// Sets the known-test fraction.
    pub fn with_test_fraction(mut self, fraction: f64) -> Self {
        self.test_fraction = fraction;
        self
    }

    /// Generates the feature vector of a single fresh sampling interval for
    /// one program (used by the online-monitoring example).
    pub fn simulate_signature<R: Rng>(&self, program: &ProgramProfile, rng: &mut R) -> Vec<f64> {
        let extractor = HpcFeatureExtractor::new();
        let counters = self.sampler.sample_program(program, 1, rng);
        extractor.extract(&counters[0])
    }

    /// Generates the full corpus (all programs, with per-sample program
    /// metadata).
    ///
    /// # Errors
    ///
    /// Returns a [`DataError`] if the generated matrix is inconsistent, which
    /// indicates a bug rather than a user error.
    pub fn build_corpus(&self, seed: u64) -> Result<Dataset, DataError> {
        let catalog = ProgramCatalog::standard();
        let extractor = HpcFeatureExtractor::new();
        let sampler = self.sampler;
        let schedule: Vec<(&ProgramProfile, usize)> = catalog
            .programs()
            .iter()
            .map(|program| {
                program.model.validate();
                let count = if program.known {
                    self.samples_per_known_app
                } else {
                    self.samples_per_unknown_app
                };
                (program, count)
            })
            .collect();
        let total = schedule.iter().map(|&(_, count)| count).sum();
        let mut rows = Vec::with_capacity(total);
        let mut labels = Vec::with_capacity(total);
        let mut meta = Vec::with_capacity(total);
        // Each program's schedule is its warm-up, then `count` sampled
        // intervals on the same core and stride cursor. The channel ends
        // live inside the scope: when either side panics its ends drop, the
        // other side's next send or receive fails, and the panic propagates
        // instead of hanging the build.
        thread::scope(|scope| {
            let (full_tx, full_rx) = mpsc::sync_channel(TRACE_BUFFERS);
            let (free_tx, free_rx) = mpsc::sync_channel(TRACE_BUFFERS);
            for _ in 0..TRACE_BUFFERS {
                // Cannot fail: the receiver is alive and the channel holds
                // every buffer.
                let _ = free_tx.send(sampler.trace_buffer());
            }
            let schedule = &schedule;
            let tracer = scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed);
                for &(program, count) in schedule {
                    let mut state = ProgramState::default();
                    for interval in 0..=count {
                        let Ok(mut trace) = free_rx.recv() else {
                            return;
                        };
                        if interval == 0 {
                            let warmup = sampler.warmup_instructions;
                            trace.draw(&program.model, &mut state, warmup, &mut rng);
                        } else {
                            sampler.draw_sample(program, &mut state, &mut trace, &mut rng);
                        }
                        if full_tx.send(trace).is_err() {
                            return;
                        }
                    }
                }
            });
            'replay: for &(program, count) in schedule {
                let mut cpu = Cpu::new(sampler.cpu);
                for interval in 0..=count {
                    let Ok(trace) = full_rx.recv() else {
                        break 'replay;
                    };
                    let counters = cpu.replay(&trace);
                    // Fails only once the tracer has drawn its last trace.
                    let _ = free_tx.send(trace);
                    if interval > 0 {
                        rows.push(extractor.extract(&counters));
                        labels.push(program.label);
                        meta.push(if program.known {
                            SampleMeta::known(program.id)
                        } else {
                            SampleMeta::unknown(program.id)
                        });
                    }
                }
            }
            // The tracer sends every trace the replay takes, so a receive
            // fails only after the tracer panicked: rethrow its panic.
            if let Err(panic) = tracer.join() {
                std::panic::resume_unwind(panic);
            }
        });
        let features = Matrix::from_rows(&rows)?;
        let mut dataset = Dataset::with_meta(features, labels, meta)?;
        dataset.set_feature_names(extractor.feature_names())?;
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

impl Default for HpcCorpusBuilder {
    fn default() -> Self {
        HpcCorpusBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmd_data::Label;

    #[test]
    fn corpus_has_expected_size_and_metadata() {
        let builder = HpcCorpusBuilder::new().with_samples_per_app(5);
        let corpus = builder.build_corpus(1).unwrap();
        let catalog = ProgramCatalog::standard();
        assert_eq!(corpus.len(), catalog.len() * 5);
        assert_eq!(corpus.meta().len(), corpus.len());
        assert_eq!(
            corpus.num_features(),
            HpcFeatureExtractor::new().num_features()
        );
        assert!(corpus.features().as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn split_respects_unknown_programs() {
        let split = HpcCorpusBuilder::new()
            .with_samples_per_app(8)
            .build_split(2)
            .unwrap();
        assert!(split.unknown.meta().iter().all(|m| m.unknown_app));
        assert!(split.train.meta().iter().all(|m| !m.unknown_app));
        let counts = split.train.class_counts();
        assert!(counts[0] > 0 && counts[1] > 0);
    }

    #[test]
    fn paper_scale_matches_table_one_proportions() {
        let builder = HpcCorpusBuilder::paper_scale();
        let known_total = 14 * builder.samples_per_known_app;
        let unknown_total = 4 * builder.samples_per_unknown_app;
        // Table I: 44 605 train + 6 372 test = 50 977 known, 12 727 unknown.
        assert_eq!(known_total, 50_974);
        assert_eq!(unknown_total, 12_728);
        assert!((builder.test_fraction - 0.125).abs() < 1e-12);
    }

    #[test]
    fn a_corpus_circulates_a_fixed_set_of_trace_buffers() {
        // Smoke scale: 18 programs x (1 warm-up + 12 samples) = 234
        // intervals, replayed on this thread from buffers allocated here.
        let before = crate::trace::buffers_allocated();
        let corpus = HpcCorpusBuilder::new()
            .with_samples_per_app(12)
            .build_corpus(1)
            .unwrap();
        assert_eq!(corpus.len(), 216);
        assert_eq!(
            crate::trace::buffers_allocated() - before,
            TRACE_BUFFERS,
            "trace buffers are allocated once per corpus, not per interval"
        );
    }

    #[test]
    fn build_corpus_matches_sample_program() {
        // The two-thread pipeline and one thread sampling program by
        // program draw and replay the same intervals.
        let builder = HpcCorpusBuilder::new().with_samples_per_app(3);
        let corpus = builder.build_corpus(5).unwrap();
        let extractor = HpcFeatureExtractor::new();
        let mut rng = StdRng::seed_from_u64(5);
        let mut row = 0;
        for program in ProgramCatalog::standard().programs() {
            for counters in builder.sampler.sample_program(program, 3, &mut rng) {
                assert_eq!(corpus.features().row(row), extractor.extract(&counters));
                assert_eq!(corpus.meta()[row].app, program.id);
                row += 1;
            }
        }
        assert_eq!(row, corpus.len());
    }

    #[test]
    fn generation_is_deterministic_in_seed() {
        let builder = HpcCorpusBuilder::new().with_samples_per_app(3);
        let a = builder.build_corpus(7).unwrap();
        let b = builder.build_corpus(7).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn benign_and_malware_counter_distributions_overlap() {
        // The defining property of the HPC corpus: class centroids are close
        // relative to the within-class spread (unlike the DVFS corpus).
        let corpus = HpcCorpusBuilder::new()
            .with_samples_per_app(15)
            .build_corpus(3)
            .unwrap();
        let features = corpus.features();
        let d = corpus.num_features();
        let mut centroid = [vec![0.0; d], vec![0.0; d]];
        let mut counts = [0.0, 0.0];
        for i in 0..corpus.len() {
            let class = corpus.labels()[i].index();
            for (c, v) in centroid[class].iter_mut().zip(features.row(i)) {
                *c += v;
            }
            counts[class] += 1.0;
        }
        for class in 0..2 {
            for c in centroid[class].iter_mut() {
                *c /= counts[class];
            }
        }
        // Average per-feature standard deviation (pooled)
        let stds = features.column_stds();
        let mut normalised_distance = 0.0;
        let mut used = 0usize;
        for j in 0..d {
            if stds[j] > 1e-9 {
                normalised_distance += ((centroid[0][j] - centroid[1][j]) / stds[j]).powi(2);
                used += 1;
            }
        }
        let distance = (normalised_distance / used as f64).sqrt();
        assert!(
            distance < 1.0,
            "benign/malware centroids should be within one pooled standard deviation, got {distance}"
        );
    }

    #[test]
    fn labels_match_catalog_assignments() {
        let corpus = HpcCorpusBuilder::new()
            .with_samples_per_app(2)
            .build_corpus(4)
            .unwrap();
        let catalog = ProgramCatalog::standard();
        for i in 0..corpus.len() {
            let app = corpus.meta()[i].app;
            let expected = catalog.get(app).unwrap().label;
            assert_eq!(corpus.labels()[i], expected);
        }
        assert!(corpus.labels().contains(&Label::Malware));
    }
}
