//! Seeded-determinism and constant-memory guarantees of
//! [`DvfsCorpusStream`]: the streaming generator must be a pure function of
//! (builder, mix, seed) — bit-identical across independent iterations — and
//! must sustain a million rows without materializing anything beyond the
//! one chunk of rows it simulates ahead of its reader.

use hmd_data::stream::CorpusStream;
use hmd_data::Label;
use hmd_dvfs::dataset::DvfsCorpusBuilder;
use hmd_dvfs::DvfsCorpusStream;

/// The cheapest valid builder: per-row cost is a 4-interval governor trace,
/// so the million-row sweep stays fast even in debug builds.
fn tiny_builder() -> DvfsCorpusBuilder {
    DvfsCorpusBuilder::new().with_trace_len(4)
}

#[test]
fn same_seed_streams_are_bit_identical() {
    let a = DvfsCorpusStream::full_catalog(tiny_builder(), 7).unwrap();
    let b = DvfsCorpusStream::full_catalog(tiny_builder(), 7).unwrap();
    // Lock-step comparison: no materialized corpus, just two cursors.
    for (i, (ra, rb)) in a.zip(b).take(4096).enumerate() {
        assert_eq!(ra, rb, "row {i} diverged between same-seed streams");
        // Bit-identical, not approximately equal.
        for (x, y) in ra.features.iter().zip(rb.features.iter()) {
            assert_eq!(x.to_bits(), y.to_bits(), "row {i} differs in bits");
        }
    }
}

#[test]
fn different_seeds_diverge() {
    let a = DvfsCorpusStream::full_catalog(tiny_builder(), 7).unwrap();
    let b = DvfsCorpusStream::full_catalog(tiny_builder(), 8).unwrap();
    assert!(
        a.zip(b).take(64).any(|(ra, rb)| ra.features != rb.features),
        "seeds 7 and 8 produced identical streams"
    );
}

#[test]
fn million_row_stream_folds_in_constant_memory() {
    const ROWS: usize = 1_000_000;
    const CHUNK: usize = 100_000;
    let mut stream = DvfsCorpusStream::known_apps(tiny_builder(), 42).unwrap();
    let width = stream.num_features();

    // Chunked folding: every row is consumed and reduced on the spot; the
    // only state that survives a chunk is a handful of scalars. Spot-check
    // each chunk's statistics so a generator that degenerates mid-stream
    // (NaNs, collapsed labels, wrong width) fails loudly.
    let mut total = 0usize;
    let mut malware = 0usize;
    let mut checksum = 0.0f64;
    for chunk in 0..(ROWS / CHUNK) {
        let mut chunk_sum = 0.0f64;
        let mut chunk_malware = 0usize;
        for record in stream.by_ref().take(CHUNK) {
            assert_eq!(record.features.len(), width);
            let row_sum: f64 = record.features.iter().sum();
            assert!(row_sum.is_finite(), "non-finite row in chunk {chunk}");
            chunk_sum += row_sum;
            if record.label == Label::Malware {
                chunk_malware += 1;
            }
            total += 1;
        }
        assert!(
            chunk_malware > 0 && chunk_malware < CHUNK,
            "chunk {chunk} lost a class: {chunk_malware} malware of {CHUNK}"
        );
        checksum += chunk_sum;
        malware += chunk_malware;
    }
    assert_eq!(total, ROWS, "stream ended early");
    assert!(checksum.is_finite());
    // Round-robin over a fixed mix keeps the label balance exactly stable.
    let malware_fraction = malware as f64 / total as f64;
    assert!(
        (0.2..=0.8).contains(&malware_fraction),
        "label balance degenerated: {malware_fraction:.3}"
    );
}

#[test]
fn prefix_is_stable_under_longer_iteration() {
    // Reading more rows must not change the rows before them: the stream
    // simulates rows a chunk ahead of its reader, but a row's bits never
    // depend on where the reader stops.
    let short: Vec<_> = DvfsCorpusStream::full_catalog(tiny_builder(), 3)
        .unwrap()
        .take(32)
        .collect();
    let long: Vec<_> = DvfsCorpusStream::full_catalog(tiny_builder(), 3)
        .unwrap()
        .take(256)
        .collect();
    assert_eq!(short[..], long[..32]);
}
