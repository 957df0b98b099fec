//! Seeded mutations of saved detector documents, loaded one by one.
//!
//! Sixteen smoke-size documents (trusted, untrusted, Platt and trusted with
//! PCA, for each of the four backends) are damaged at the byte level
//! (replace a byte, delete or duplicate a span, truncate) and at the value
//! level (one value of the parsed tree replaced by an edge value). Every
//! mutant goes through `load`: it must never panic, an accepted detector must
//! score a probe batch without panicking, and one FNV-1a digest over each
//! mutant's index, verdict and re-saved bytes pins exactly which documents
//! load and what they restore. Any change to what `load` accepts, or to the
//! detector it restores, moves the digest.

use hmd_codec::Json;
use hmd_core::detector::{load, save, Detector, DetectorBackend, DetectorConfig, DetectorExt};
use hmd_data::{Dataset, Label, Matrix};
use hmd_ml::forest::RandomForestParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Byte-level mutants, then as many value-level ones.
const MUTANTS_PER_LEVEL: usize = 1000;

/// The digest of every mutant's index, verdict and re-saved bytes.
const PINNED_DIGEST: u64 = 0x31ca_8a7a_9362_7772;

/// Bytes a byte-level replacement draws from: JSON's structural characters,
/// digits, number signs and literal letters.
const ALPHABET: &[u8] = b"{}[]:,\"\\ 0123456789-+.eEtrufalsn";

/// Values a value-level mutation puts in place of one value of the tree.
fn edge_values() -> [Json; 12] {
    [
        Json::Int(0),
        Json::Int(-1),
        Json::Int(1 << 40),
        Json::Int(i64::MAX),
        Json::Float(1e300),
        Json::Float(-0.0),
        Json::Str("NaN".into()),
        Json::Str("inf".into()),
        Json::Null,
        Json::Array(Vec::new()),
        Json::Object(Vec::new()),
        Json::Bool(true),
    ]
}

/// Two separable blobs over three features.
fn blobs(n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for _ in 0..n {
        let malware = rng.gen_bool(0.5);
        let centre = if malware { 1.5 } else { -1.5 };
        rows.push((0..3).map(|_| centre + rng.gen_range(-1.0..1.0)).collect());
        labels.push(Label::from(malware));
    }
    Dataset::new(Matrix::from_rows(&rows).unwrap(), labels).unwrap()
}

/// The saved documents the mutants start from.
fn documents() -> Vec<String> {
    let train = blobs(48, 1);
    let backends = [
        DetectorBackend::decision_tree(),
        DetectorBackend::RandomForest(RandomForestParams::new().with_num_trees(3)),
        DetectorBackend::logistic_regression(),
        DetectorBackend::linear_svm(),
    ];
    let mut documents = Vec::new();
    for backend in backends {
        for config in [
            DetectorConfig::trusted(backend.clone()).with_num_estimators(3),
            DetectorConfig::untrusted(backend.clone()),
            DetectorConfig::platt(backend.clone()),
            DetectorConfig::trusted(backend)
                .with_num_estimators(3)
                .with_pca(2),
        ] {
            let detector = config.fit(&train, 5).expect("training succeeds");
            documents.push(save(detector.as_ref()).expect("persistable"));
        }
    }
    documents
}

/// Damages the bytes of `doc`: one replaced byte, a deleted or duplicated
/// span, or a truncation.
fn mutate_bytes(doc: &str, rng: &mut StdRng) -> String {
    let mut bytes = doc.as_bytes().to_vec();
    let at = rng.gen_range(0..bytes.len());
    match rng.gen_range(0..4usize) {
        0 => bytes[at] = ALPHABET[rng.gen_range(0..ALPHABET.len())],
        1 => {
            let end = (at + rng.gen_range(1..17usize)).min(bytes.len());
            bytes.drain(at..end);
        }
        2 => {
            let end = (at + rng.gen_range(1..33usize)).min(bytes.len());
            let span = bytes[at..end].to_vec();
            bytes.splice(end..end, span);
        }
        _ => bytes.truncate(at),
    }
    String::from_utf8(bytes).expect("the alphabet and saved documents are ASCII")
}

/// Number of values inside `json`, itself excluded.
fn inner_values(json: &Json) -> usize {
    match json {
        Json::Array(items) => items.iter().map(|item| 1 + inner_values(item)).sum(),
        Json::Object(fields) => fields
            .iter()
            .map(|(_, value)| 1 + inner_values(value))
            .sum(),
        _ => 0,
    }
}

/// Replaces the `index`-th value inside `json` (depth first, parents before
/// their contents) with `edge`; returns how many values it passed instead
/// when `index` lies beyond `json`.
fn replace_value(json: &mut Json, index: usize, edge: &Json) -> Result<(), usize> {
    let children: Vec<&mut Json> = match json {
        Json::Array(items) => items.iter_mut().collect(),
        Json::Object(fields) => fields.iter_mut().map(|(_, value)| value).collect(),
        _ => Vec::new(),
    };
    let mut index = index;
    for child in children {
        if index == 0 {
            *child = edge.clone();
            return Ok(());
        }
        match replace_value(child, index - 1, edge) {
            Ok(()) => return Ok(()),
            Err(passed) => index -= 1 + passed,
        }
    }
    Err(inner_values(json))
}

/// Replaces one value of the parsed `doc` with an edge value.
fn mutate_value(doc: &str, rng: &mut StdRng) -> String {
    let mut tree = Json::parse(doc).expect("saved documents parse");
    let index = rng.gen_range(0..inner_values(&tree));
    let edges = edge_values();
    let edge = &edges[rng.gen_range(0..edges.len())];
    replace_value(&mut tree, index, edge).expect("the index lies inside the tree");
    tree.to_string()
}

/// 64-bit FNV-1a, folded one slice at a time.
struct Fnv(u64);

impl Fnv {
    fn add(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

#[test]
fn mutated_documents_never_panic_and_load_exactly_the_pinned_set() {
    let documents = documents();
    let probe = Matrix::from_rows(&[
        vec![0.0, 0.0, 0.0],
        vec![1.5, -1.5, 1.5],
        vec![-1e300, 1e300, f64::MIN_POSITIVE],
    ])
    .unwrap();
    let mut rng = StdRng::seed_from_u64(2021);
    let mut digest = Fnv(0xcbf2_9ce4_8422_2325);
    let mut accepted = [0usize; 2];
    for index in 0..2 * MUTANTS_PER_LEVEL {
        let level = index / MUTANTS_PER_LEVEL;
        let original = &documents[rng.gen_range(0..documents.len())];
        let mutant = if level == 0 {
            mutate_bytes(original, &mut rng)
        } else {
            mutate_value(original, &mut rng)
        };
        let loaded = catch_unwind(AssertUnwindSafe(|| load(&mutant)))
            .unwrap_or_else(|_| panic!("mutant {index} panicked in load: {mutant}"));
        digest.add(&(index as u64).to_le_bytes());
        match loaded {
            Ok(detector) => {
                accepted[level] += 1;
                let detector: &dyn Detector = detector.as_ref();
                catch_unwind(AssertUnwindSafe(|| detector.detect_batch(&probe)))
                    .unwrap_or_else(|_| panic!("mutant {index} panicked scoring: {mutant}"))
                    .ok();
                digest.add(&[1]);
                digest.add(save(detector).expect("persistable").as_bytes());
            }
            Err(_) => digest.add(&[0]),
        }
    }
    assert!(
        accepted
            .iter()
            .all(|&count| count > 0 && count < MUTANTS_PER_LEVEL),
        "every level both accepts and rejects some mutants: {accepted:?}"
    );
    assert_eq!(
        digest.0, PINNED_DIGEST,
        "digest {:#018x} ({accepted:?} accepted)",
        digest.0
    );
}
