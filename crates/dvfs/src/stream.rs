//! Constant-memory streaming DVFS corpus generation.
//!
//! [`DvfsCorpusStream`] implements [`CorpusStream`]: it yields one fresh
//! signature per [`Iterator::next`] call, cycling round-robin over a fixed
//! application mix with a single seeded RNG. It simulates its rows on the
//! worker pool one chunk of 32 ahead of its reader, so a robustness sweep
//! can fold over millions of signatures at a constant memory cost: 32
//! feature vectors and 33 generator states of 32 B. The same builder + app
//! mix + seed yields a bit-identical row sequence, the one that simulating
//! row after row with [`DvfsCorpusBuilder::simulate_signature`] yields,
//! wherever a reader stops.
//!
//! # Example
//!
//! ```
//! use hmd_data::stream::CorpusStream;
//! use hmd_dvfs::dataset::DvfsCorpusBuilder;
//! use hmd_dvfs::stream::DvfsCorpusStream;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let builder = DvfsCorpusBuilder::new().with_trace_len(32);
//! let mut stream = DvfsCorpusStream::full_catalog(builder, 7)?;
//! let width = stream.num_features();
//! let first = stream.next().expect("stream is infinite");
//! assert_eq!(first.features.len(), width);
//! # Ok(())
//! # }
//! ```

use crate::apps::{AppCatalog, AppProfile};
use crate::dataset::{DvfsCorpusBuilder, CHUNK_ROWS};
use hmd_data::stream::{CorpusStream, StreamRecord};
use hmd_data::DataError;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;

/// An infinite, seeded stream of DVFS signatures over a fixed application mix.
///
/// The stream owns its application profiles and a [`StdRng`]; rows are
/// produced by cycling through the mix in order and simulating one fresh
/// trace per row, exactly as the batch [`DvfsCorpusBuilder::build_corpus`]
/// does per sample. When its reader has taken every row simulated so far,
/// the stream simulates the next 32 on the worker pool.
#[derive(Debug, Clone)]
pub struct DvfsCorpusStream {
    builder: DvfsCorpusBuilder,
    apps: Vec<AppProfile>,
    rng: StdRng,
    cursor: usize,
    /// Rows simulated but not yet read: at most one chunk.
    ahead: VecDeque<StreamRecord>,
}

impl DvfsCorpusStream {
    /// Streams over an explicit application mix.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::Empty`] when `apps` is empty — an empty mix can
    /// never yield a row.
    pub fn new(
        builder: DvfsCorpusBuilder,
        apps: Vec<AppProfile>,
        seed: u64,
    ) -> Result<DvfsCorpusStream, DataError> {
        if apps.is_empty() {
            return Err(DataError::Empty {
                context: "DVFS stream application mix",
            });
        }
        Ok(DvfsCorpusStream {
            builder,
            apps,
            rng: StdRng::seed_from_u64(seed),
            cursor: 0,
            ahead: VecDeque::with_capacity(CHUNK_ROWS),
        })
    }

    /// Streams over the full standard catalog (known and unknown apps).
    ///
    /// # Errors
    ///
    /// Propagates [`DvfsCorpusStream::new`] errors (the standard catalog is
    /// never empty, so this cannot fail in practice).
    pub fn full_catalog(
        builder: DvfsCorpusBuilder,
        seed: u64,
    ) -> Result<DvfsCorpusStream, DataError> {
        let apps = AppCatalog::standard().apps().to_vec();
        DvfsCorpusStream::new(builder, apps, seed)
    }

    /// Streams over the known (trainable) applications only.
    ///
    /// # Errors
    ///
    /// Propagates [`DvfsCorpusStream::new`] errors.
    pub fn known_apps(
        builder: DvfsCorpusBuilder,
        seed: u64,
    ) -> Result<DvfsCorpusStream, DataError> {
        let apps = AppCatalog::standard()
            .known_apps()
            .into_iter()
            .cloned()
            .collect();
        DvfsCorpusStream::new(builder, apps, seed)
    }

    /// Streams over the unknown (zero-day proxy) applications only.
    ///
    /// # Errors
    ///
    /// Propagates [`DvfsCorpusStream::new`] errors.
    pub fn unknown_apps(
        builder: DvfsCorpusBuilder,
        seed: u64,
    ) -> Result<DvfsCorpusStream, DataError> {
        let apps = AppCatalog::standard()
            .unknown_apps()
            .into_iter()
            .cloned()
            .collect();
        DvfsCorpusStream::new(builder, apps, seed)
    }

    /// The application mix this stream cycles through.
    pub fn apps(&self) -> &[AppProfile] {
        &self.apps
    }
}

impl Iterator for DvfsCorpusStream {
    type Item = StreamRecord;

    fn next(&mut self) -> Option<StreamRecord> {
        if self.ahead.is_empty() {
            let apps: Vec<&AppProfile> = (0..CHUNK_ROWS)
                .map(|_| {
                    let app = &self.apps[self.cursor % self.apps.len()];
                    self.cursor = self.cursor.wrapping_add(1);
                    app
                })
                .collect();
            let rows = self.builder.simulate_rows(&apps, &mut self.rng);
            self.ahead
                .extend(apps.iter().zip(rows).map(|(app, features)| StreamRecord {
                    features,
                    label: app.label,
                    meta: app.sample_meta(),
                }));
        }
        self.ahead.pop_front()
    }
}

impl CorpusStream for DvfsCorpusStream {
    fn num_features(&self) -> usize {
        self.builder
            .extractor
            .num_features(self.builder.soc.num_states())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmd_data::stream::collect_dataset;
    use rand::rngs::StdRng;

    fn tiny_builder() -> DvfsCorpusBuilder {
        DvfsCorpusBuilder::new().with_trace_len(16)
    }

    #[test]
    fn a_stream_stopped_mid_chunk_equals_the_row_by_row_simulation() {
        let builder = DvfsCorpusBuilder::new().with_trace_len(64);
        let apps = AppCatalog::standard().apps().to_vec();
        let mut rng = StdRng::seed_from_u64(5);
        let expected: Vec<StreamRecord> = (0..40)
            .map(|row| {
                let app = &apps[row % apps.len()];
                StreamRecord {
                    features: builder.simulate_signature(app, &mut rng),
                    label: app.label,
                    meta: app.sample_meta(),
                }
            })
            .collect();
        let bits = |records: &[StreamRecord]| -> Vec<u64> {
            records
                .iter()
                .flat_map(|r| r.features.iter().map(|v| v.to_bits()))
                .collect()
        };
        // Forty rows stop eight into the second chunk, and a clone taken
        // one row into it carries the rows read ahead.
        let mut stream = DvfsCorpusStream::full_catalog(builder, 5).unwrap();
        let read: Vec<StreamRecord> = stream.by_ref().take(33).collect();
        let cloned: Vec<StreamRecord> = stream.clone().take(7).collect();
        let rest: Vec<StreamRecord> = stream.take(7).collect();
        for tail in [cloned, rest] {
            let rows = [read.clone(), tail].concat();
            assert_eq!(rows, expected);
            assert_eq!(bits(&rows), bits(&expected));
        }
    }

    #[test]
    fn empty_mix_is_rejected() {
        assert!(matches!(
            DvfsCorpusStream::new(tiny_builder(), Vec::new(), 0),
            Err(DataError::Empty { .. })
        ));
    }

    #[test]
    fn rows_have_the_advertised_width() {
        let mut stream = DvfsCorpusStream::full_catalog(tiny_builder(), 3).unwrap();
        let width = stream.num_features();
        for record in stream.by_ref().take(10) {
            assert_eq!(record.features.len(), width);
        }
    }

    #[test]
    fn round_robin_covers_the_whole_mix() {
        let mut stream = DvfsCorpusStream::full_catalog(tiny_builder(), 3).unwrap();
        let n_apps = stream.apps().len();
        let ids: Vec<_> = stream.by_ref().take(n_apps).map(|r| r.meta.app).collect();
        let expected: Vec<_> = AppCatalog::standard().apps().iter().map(|a| a.id).collect();
        assert_eq!(ids, expected);
    }

    #[test]
    fn known_stream_matches_batch_metadata() {
        let mut stream = DvfsCorpusStream::known_apps(tiny_builder(), 9).unwrap();
        let dataset = collect_dataset(&mut stream, 24).unwrap();
        assert!(dataset.meta().iter().all(|m| !m.unknown_app));
        let counts = dataset.class_counts();
        assert!(counts[0] > 0 && counts[1] > 0);
    }

    #[test]
    fn unknown_stream_is_all_unknown() {
        let mut stream = DvfsCorpusStream::unknown_apps(tiny_builder(), 9).unwrap();
        assert!(stream.by_ref().take(12).all(|r| r.meta.unknown_app));
    }
}
