//! Bit-identity pins of the generated corpora and of the paper's figures.
//!
//! Every model, figure and committed benchmark number starts from a corpus,
//! so a change that moves one generated bit moves all of them. Each corpus
//! pin is a 64-bit FNV-1a hash over a smoke-scale split (train, then
//! known-test, then unknown) or over the first rows of a corpus stream, and
//! for every row its feature bits, its label and its sample metadata. A speed
//! change to the simulators or the feature extractors must leave every pin as
//! it is. The figure pins hash the `Debug` dump of every table and figure the
//! `experiments` bin regenerates, so a change to how the experiments share
//! corpora and fits must leave every printed number where it was.
//!
//! The pins are a ratchet: update one only together with a CHANGES.md line
//! saying why the corpus or figure had to move. The test prints every digest
//! it computed when any pin fails, so an intended change can copy them.

use hmd_bench::{
    ablations, ensemble_size, entropy_boxplots, f1_curves, rejection_curves, table1, tsne_overlap,
    ExperimentScale, Study,
};
use hmd_data::split::KnownUnknownSplit;
use hmd_data::stream::StreamRecord;
use hmd_data::{Dataset, Label, SampleMeta};
use hmd_dvfs::DvfsCorpusStream;
use hmd_hpc::sampler::Sampler;
use hmd_hpc::stream::HpcCorpusStream;
use std::fmt::{Debug, Display};

/// 64-bit FNV-1a.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write_u64(&mut self, value: u64) {
        self.write_bytes(&value.to_le_bytes());
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
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

/// Compares every `(key, pin)` (a seed or a figure name) and reports all
/// digests on any mismatch.
fn check_pins<K: Copy + PartialEq + Debug + Display>(
    name: &str,
    pins: &[(K, u64)],
    digest_of: impl Fn(K) -> u64,
) {
    let computed: Vec<(K, u64)> = pins.iter().map(|&(key, _)| (key, digest_of(key))).collect();
    let report: Vec<String> = computed
        .iter()
        .map(|(key, digest)| format!("({key}, {digest:#018x})"))
        .collect();
    assert_eq!(
        computed,
        pins,
        "{name} moved; computed {}",
        report.join(", ")
    );
}

#[test]
fn smoke_dvfs_corpora_are_pinned() {
    check_pins(
        "DVFS corpora",
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
        "HPC corpora",
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

/// FNV-1a over what `experiments --dump` writes for a value.
fn dump_digest(value: &impl Debug) -> u64 {
    let mut hash = Fnv1a::new();
    hash.write_bytes(format!("{value:#?}\n").as_bytes());
    hash.0
}

/// Every table and figure of `experiments all` at smoke scale, seed 2021,
/// keyed by its dump name and read from one study, as the bin reads them.
/// The headline is not dumped by the bin; its pin hashes the same `Debug`
/// text of the summary it prints.
#[test]
fn smoke_figures_are_pinned() {
    let study = Study::new(ExperimentScale::Smoke, 2021);
    check_pins(
        "figures",
        &[
            ("table1", 0x9e04_0507_1400_9694),
            ("fig4", 0x5955_515a_65cb_5211),
            ("fig5", 0xe524_8ce4_4278_51f5),
            ("fig7a", 0xb44f_3791_0f77_2fc7),
            ("fig7b", 0xd810_34a6_a762_e5a9),
            ("fig8", 0x9e27_bb81_04cb_20ba),
            ("fig9a", 0xfce0_fea7_2c65_484b),
            ("fig9b", 0x4797_2e0e_dfec_d19d),
            ("headline", 0xbe0c_43b8_7963_222b),
            ("ablation_diversity", 0x43e5_4096_50db_9d1b),
            ("ablation_platt", 0x4fda_40a5_a6b9_f5a4),
        ],
        |name| match name {
            "table1" => dump_digest(&table1::run(&study)),
            "fig4" => dump_digest(&entropy_boxplots::fig4(&study)),
            "fig5" => dump_digest(&entropy_boxplots::fig5(&study)),
            "fig7a" => dump_digest(&rejection_curves::fig7a(&study)),
            "fig7b" => dump_digest(&f1_curves::fig7b(&study)),
            "fig8" => dump_digest(&tsne_overlap::fig8(&study)),
            "fig9a" => dump_digest(&ensemble_size::fig9a(&study, &ensemble_size::SIZES)),
            "fig9b" => dump_digest(&rejection_curves::fig9b(&study)),
            "headline" => dump_digest(&rejection_curves::dvfs_operating_points(&study)),
            "ablation_diversity" => dump_digest(&ablations::bootstrap_diversity(&study)),
            "ablation_platt" => dump_digest(&ablations::platt_vs_entropy(&study)),
            _ => unreachable!("a pinned figure"),
        },
    );
}
