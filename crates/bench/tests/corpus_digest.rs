//! Bit-identity pins of the generated corpora.
//!
//! Every model, figure and committed benchmark number starts from a corpus,
//! so a change that moves one generated bit moves all of them. Each pin is a
//! 64-bit FNV-1a hash over a smoke-scale split (train, then known-test, then
//! unknown) or over the first rows of a corpus stream, and for every row its
//! feature bits, its label and its sample metadata. A speed change to the
//! simulators or the feature extractors must leave every pin as it is.
//!
//! The pins are a ratchet: update one only together with a CHANGES.md line
//! saying why the corpus had to move. The test prints every digest it
//! computed when any pin fails, so an intended change can copy them.

use hmd_bench::ExperimentScale;
use hmd_data::split::KnownUnknownSplit;
use hmd_data::stream::StreamRecord;
use hmd_data::{Dataset, Label, SampleMeta};
use hmd_dvfs::DvfsCorpusStream;
use hmd_hpc::sampler::Sampler;
use hmd_hpc::stream::HpcCorpusStream;

/// 64-bit FNV-1a.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write_u64(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn write_dataset(hash: &mut Fnv1a, dataset: &Dataset) {
    assert_eq!(
        dataset.meta().len(),
        dataset.len(),
        "corpora carry metadata"
    );
    hash.write_u64(dataset.len() as u64);
    for (i, meta) in dataset.meta().iter().enumerate() {
        let (row, label) = dataset.sample(i);
        write_row(hash, row, label, meta);
    }
}

fn write_row(hash: &mut Fnv1a, row: &[f64], label: Label, meta: &SampleMeta) {
    hash.write_u64(row.len() as u64);
    for value in row {
        hash.write_u64(value.to_bits());
    }
    hash.write_u64(label.index() as u64);
    hash.write_u64(u64::from(meta.app.0));
    hash.write_u64(u64::from(meta.unknown_app));
}

fn digest(split: &KnownUnknownSplit) -> u64 {
    let mut hash = Fnv1a::new();
    for dataset in [&split.train, &split.test_known, &split.unknown] {
        write_dataset(&mut hash, dataset);
    }
    hash.0
}

/// Compares every `(seed, pin)` and reports all digests on any mismatch.
fn check_pins(name: &str, pins: &[(u64, u64)], digest_of: impl Fn(u64) -> u64) {
    let computed: Vec<(u64, u64)> = pins
        .iter()
        .map(|&(seed, _)| (seed, digest_of(seed)))
        .collect();
    let report: Vec<String> = computed
        .iter()
        .map(|(seed, digest)| format!("(seed {seed}, {digest:#018x})"))
        .collect();
    assert_eq!(
        computed,
        pins,
        "{name} corpora moved; computed {}",
        report.join(", ")
    );
}

#[test]
fn smoke_dvfs_corpora_are_pinned() {
    check_pins(
        "DVFS",
        &[(1, 0x2369_1a0b_4534_7336), (2021, 0x723e_8d08_c24c_a40a)],
        |seed| {
            digest(
                &ExperimentScale::Smoke
                    .dvfs_builder()
                    .build_split(seed)
                    .expect("DVFS split"),
            )
        },
    );
}

#[test]
fn smoke_hpc_corpora_are_pinned() {
    check_pins(
        "HPC",
        &[(1, 0x3a0f_d193_73ce_e4ec), (2021, 0x471c_d227_0f1c_513f)],
        |seed| {
            digest(
                &ExperimentScale::Smoke
                    .hpc_builder()
                    .build_split(seed)
                    .expect("HPC split"),
            )
        },
    );
}

/// FNV-1a over the first 72 rows of a stream.
fn stream_digest(stream: impl Iterator<Item = StreamRecord>) -> u64 {
    let mut hash = Fnv1a::new();
    for record in stream.take(72) {
        write_row(&mut hash, &record.features, record.label, &record.meta);
    }
    hash.0
}

/// The stream keeps one warmed core per program, so it takes another path
/// through the simulator than the batch builder: 72 rows are four
/// round-robin passes over the 18-program catalog.
#[test]
fn smoke_hpc_stream_is_pinned() {
    check_pins(
        "HPC stream",
        &[(1, 0xba9e_1998_1736_cbb4), (2021, 0xde1c_427a_a965_e51a)],
        |seed| {
            stream_digest(HpcCorpusStream::full_catalog(Sampler::new(), seed).expect("HPC stream"))
        },
    );
}

/// The stream cycles the 24-app catalog with one generator, so it draws
/// its rows in another order than the batch builder: 72 rows are three
/// round-robin passes, and a stream that generates rows ahead of its reader
/// in fixed-size chunks stops here inside one.
#[test]
fn smoke_dvfs_stream_is_pinned() {
    check_pins(
        "DVFS stream",
        &[(1, 0x1909_993d_afa1_8974), (2021, 0x46f8_8f33_0b93_ce1c)],
        |seed| {
            stream_digest(
                DvfsCorpusStream::full_catalog(ExperimentScale::Smoke.dvfs_builder(), seed)
                    .expect("DVFS stream"),
            )
        },
    );
}
