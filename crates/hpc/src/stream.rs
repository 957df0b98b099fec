//! Constant-memory streaming HPC corpus generation.
//!
//! [`HpcCorpusStream`] implements [`CorpusStream`]: each [`Iterator::next`]
//! call simulates one fresh sampling interval, cycling round-robin over a
//! fixed program mix with a single seeded RNG. Unlike the batch
//! [`HpcCorpusBuilder`](crate::dataset::HpcCorpusBuilder), which re-creates
//! and re-warms a [`Cpu`] per program, the stream keeps one persistent core
//! (caches + branch predictor + program state) per program and warms it
//! lazily on that program's first row — so per-row cost is one sampling
//! interval, not interval + warm-up.
//!
//! Each interval is simulated in two stages on the caller's thread: the
//! trace stage draws the interval's instructions into one recycled buffer
//! (sized for the sampler's longest interval, 16 bytes per instruction),
//! then the program's core replays it. The rows are bit for bit those of
//! the per-instruction simulation.
//!
//! # Example
//!
//! ```
//! use hmd_data::stream::CorpusStream;
//! use hmd_hpc::sampler::Sampler;
//! use hmd_hpc::stream::HpcCorpusStream;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let sampler = Sampler::new().with_interval(64);
//! let mut stream = HpcCorpusStream::full_catalog(sampler, 7)?;
//! let width = stream.num_features();
//! let first = stream.next().expect("stream is infinite");
//! assert_eq!(first.features.len(), width);
//! # Ok(())
//! # }
//! ```

use crate::apps::{ProgramCatalog, ProgramProfile};
use crate::cpu::Cpu;
use crate::features::HpcFeatureExtractor;
use crate::sampler::Sampler;
use crate::trace::IntervalTrace;
use crate::workload::ProgramState;
use hmd_data::stream::{CorpusStream, StreamRecord};
use hmd_data::{DataError, SampleMeta};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Persistent simulation context for one program in the mix: a core whose
/// caches and branch predictor stay trained across intervals, plus the
/// program's access-pattern state. `warmed` flips on the program's first row.
#[derive(Debug, Clone)]
struct ProgramContext {
    cpu: Cpu,
    state: ProgramState,
    warmed: bool,
}

/// An infinite, seeded stream of HPC signatures over a fixed program mix.
#[derive(Debug, Clone)]
pub struct HpcCorpusStream {
    sampler: Sampler,
    extractor: HpcFeatureExtractor,
    programs: Vec<ProgramProfile>,
    contexts: Vec<ProgramContext>,
    trace: IntervalTrace,
    rng: StdRng,
    cursor: usize,
}

impl HpcCorpusStream {
    /// Streams over an explicit program mix.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::Empty`] when `programs` is empty — an empty mix
    /// can never yield a row — and [`DataError::InvalidParameter`] when a
    /// program's model fails [`ProgramModel::check`](crate::workload::ProgramModel::check),
    /// the model [`Sampler::sample_program`] would refuse.
    pub fn new(
        sampler: Sampler,
        programs: Vec<ProgramProfile>,
        seed: u64,
    ) -> Result<HpcCorpusStream, DataError> {
        if programs.is_empty() {
            return Err(DataError::Empty {
                context: "HPC stream program mix",
            });
        }
        for program in &programs {
            program
                .model
                .check()
                .map_err(|reason| DataError::InvalidParameter {
                    name: "programs",
                    message: format!("program {} ({}): {reason}", program.id.0, program.name),
                })?;
        }
        let contexts = programs
            .iter()
            .map(|_| ProgramContext {
                cpu: Cpu::new(sampler.cpu),
                state: ProgramState::default(),
                warmed: false,
            })
            .collect();
        Ok(HpcCorpusStream {
            sampler,
            extractor: HpcFeatureExtractor::new(),
            programs,
            contexts,
            trace: sampler.trace_buffer(),
            rng: StdRng::seed_from_u64(seed),
            cursor: 0,
        })
    }

    /// Streams over the full standard catalog (known and unknown programs).
    ///
    /// # Errors
    ///
    /// Propagates [`HpcCorpusStream::new`] errors (the standard catalog is
    /// never empty, so this cannot fail in practice).
    pub fn full_catalog(sampler: Sampler, seed: u64) -> Result<HpcCorpusStream, DataError> {
        let programs = ProgramCatalog::standard().programs().to_vec();
        HpcCorpusStream::new(sampler, programs, seed)
    }

    /// Streams over the known (trainable) programs only.
    ///
    /// # Errors
    ///
    /// Propagates [`HpcCorpusStream::new`] errors.
    pub fn known_programs(sampler: Sampler, seed: u64) -> Result<HpcCorpusStream, DataError> {
        let programs = ProgramCatalog::standard()
            .known_programs()
            .into_iter()
            .cloned()
            .collect();
        HpcCorpusStream::new(sampler, programs, seed)
    }

    /// Streams over the unknown (zero-day proxy) programs only.
    ///
    /// # Errors
    ///
    /// Propagates [`HpcCorpusStream::new`] errors.
    pub fn unknown_programs(sampler: Sampler, seed: u64) -> Result<HpcCorpusStream, DataError> {
        let programs = ProgramCatalog::standard()
            .unknown_programs()
            .into_iter()
            .cloned()
            .collect();
        HpcCorpusStream::new(sampler, programs, seed)
    }

    /// The program mix this stream cycles through.
    pub fn programs(&self) -> &[ProgramProfile] {
        &self.programs
    }
}

impl Iterator for HpcCorpusStream {
    type Item = StreamRecord;

    fn next(&mut self) -> Option<StreamRecord> {
        let index = self.cursor % self.programs.len();
        self.cursor = self.cursor.wrapping_add(1);
        let program = &self.programs[index];
        let context = &mut self.contexts[index];
        if !context.warmed {
            self.trace.draw(
                &program.model,
                &mut context.state,
                self.sampler.warmup_instructions,
                &mut self.rng,
            );
            let _ = context.cpu.replay(&self.trace);
            context.warmed = true;
        }
        self.sampler
            .draw_sample(program, &mut context.state, &mut self.trace, &mut self.rng);
        let counters = context.cpu.replay(&self.trace);
        Some(StreamRecord {
            features: self.extractor.extract(&counters),
            label: program.label,
            meta: if program.known {
                SampleMeta::known(program.id)
            } else {
                SampleMeta::unknown(program.id)
            },
        })
    }
}

impl CorpusStream for HpcCorpusStream {
    fn num_features(&self) -> usize {
        self.extractor.num_features()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::ProgramModel;
    use hmd_data::stream::collect_dataset;

    fn tiny_sampler() -> Sampler {
        let mut sampler = Sampler::new().with_interval(64);
        sampler.warmup_instructions = 64;
        sampler
    }

    #[test]
    fn empty_mix_is_rejected() {
        assert!(matches!(
            HpcCorpusStream::new(tiny_sampler(), Vec::new(), 0),
            Err(DataError::Empty { .. })
        ));
    }

    /// `new` refuses a mix holding `model`, naming the program.
    fn assert_rejected(model: ProgramModel) {
        let mut programs = ProgramCatalog::standard().programs().to_vec();
        programs[5].model = model;
        match HpcCorpusStream::new(tiny_sampler(), programs, 0) {
            Err(DataError::InvalidParameter { message, .. }) => {
                assert!(message.contains("program 106"), "{message}");
            }
            other => panic!("expected InvalidParameter, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn overfull_mix_is_rejected() {
        assert_rejected(ProgramModel {
            load_fraction: 0.5,
            store_fraction: 0.4,
            branch_fraction: 0.2,
            ..ProgramModel::compute_bound()
        });
    }

    #[test]
    fn negative_mix_fraction_is_rejected() {
        assert_rejected(ProgramModel {
            store_fraction: -0.1,
            ..ProgramModel::compute_bound()
        });
    }

    #[test]
    fn nan_random_access_fraction_is_rejected() {
        assert_rejected(ProgramModel {
            random_access_fraction: f64::NAN,
            ..ProgramModel::compute_bound()
        });
    }

    #[test]
    fn nan_branch_bias_is_rejected() {
        assert_rejected(ProgramModel {
            branch_taken_bias: f64::NAN,
            ..ProgramModel::compute_bound()
        });
    }

    #[test]
    fn nan_branch_noise_is_rejected() {
        assert_rejected(ProgramModel {
            branch_noise: f64::NAN,
            ..ProgramModel::compute_bound()
        });
    }

    #[test]
    fn rows_have_the_advertised_width_and_finite_values() {
        let mut stream = HpcCorpusStream::full_catalog(tiny_sampler(), 3).unwrap();
        let width = stream.num_features();
        for record in stream.by_ref().take(20) {
            assert_eq!(record.features.len(), width);
            assert!(record.features.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn round_robin_covers_the_whole_mix() {
        let mut stream = HpcCorpusStream::full_catalog(tiny_sampler(), 3).unwrap();
        let n = stream.programs().len();
        let ids: Vec<_> = stream.by_ref().take(n).map(|r| r.meta.app).collect();
        let expected: Vec<_> = ProgramCatalog::standard()
            .programs()
            .iter()
            .map(|p| p.id)
            .collect();
        assert_eq!(ids, expected);
    }

    #[test]
    fn known_stream_matches_batch_metadata() {
        let mut stream = HpcCorpusStream::known_programs(tiny_sampler(), 9).unwrap();
        let dataset = collect_dataset(&mut stream, 28).unwrap();
        assert!(dataset.meta().iter().all(|m| !m.unknown_app));
        let counts = dataset.class_counts();
        assert!(counts[0] > 0 && counts[1] > 0);
    }

    #[test]
    fn unknown_stream_is_all_unknown() {
        let mut stream = HpcCorpusStream::unknown_programs(tiny_sampler(), 9).unwrap();
        assert!(stream.by_ref().take(8).all(|r| r.meta.unknown_app));
    }
}
