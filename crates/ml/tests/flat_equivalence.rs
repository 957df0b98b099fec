//! Seeded randomized equivalence suite for the flat inference engine.
//!
//! The compiled [`hmd_ml::flat`] forms must be **bit-identical** to the
//! nested training-time structures on every path: labels, probabilities and
//! vote counts, across random trees, forests and bagging ensembles (depths
//! 1–12, 1–64 features), and after a persistence round-trip (which drops the
//! flat form and recompiles it on load).
//!
//! The nested references used here deliberately avoid the flat engine:
//! `DecisionTree` predictions walk the enum nodes, forest votes are
//! recomputed from `trees()`, and ensemble votes come from
//! `BaggingEnsemble::votes`, which always walks the base classifiers.
//!
//! Forests whose nodes outgrow L1 count votes with the block kernel; the
//! block-kernel cases below grow such forests on label noise and cross every
//! lane boundary (1, 7, 8, 9, 17 and 25 groups), even group sizes, narrow,
//! partial and pooled batches, and the split predicate's edge inputs, and
//! decode forests of shared-child chains whose walks end at varied depths.

use hmd_codec::{Json, JsonCodec};
use hmd_data::{Dataset, Label, Matrix};
use hmd_ml::bagging::BaggingParams;
use hmd_ml::flat::FlatForest;
use hmd_ml::forest::{RandomForest, RandomForestParams};
use hmd_ml::tree::{DecisionTreeParams, MaxFeatures};
use hmd_ml::{Classifier, Estimator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random dataset with `n` samples over `d` features and a weak class signal
/// so grown trees have non-trivial structure.
fn random_dataset(n: usize, d: usize, rng: &mut StdRng) -> Dataset {
    let mut rows = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        let malware = rng.gen_bool(0.5);
        let shift = if malware { 0.25 } else { -0.25 };
        rows.push(
            (0..d)
                .map(|_| shift + rng.gen_range(-1.0..1.0))
                .collect::<Vec<f64>>(),
        );
        labels.push(Label::from(malware));
    }
    Dataset::new(Matrix::from_rows(&rows).unwrap(), labels).unwrap()
}

/// Probe rows spanning the training distribution and far outside it.
fn probes(d: usize, count: usize, rng: &mut StdRng) -> Matrix {
    let rows: Vec<Vec<f64>> = (0..count)
        .map(|_| (0..d).map(|_| rng.gen_range(-6.0..6.0)).collect())
        .collect();
    Matrix::from_rows(&rows).unwrap()
}

fn random_tree_params(rng: &mut StdRng) -> DecisionTreeParams {
    let mf = match rng.gen_range(0..3) {
        0 => MaxFeatures::All,
        1 => MaxFeatures::Sqrt,
        _ => MaxFeatures::Exact(rng.gen_range(1..8)),
    };
    DecisionTreeParams::new()
        .with_max_depth(rng.gen_range(1..=12))
        .with_min_samples_leaf(rng.gen_range(1..4))
        .with_max_features(mf)
}

#[test]
fn flat_tree_is_bit_identical_to_nested_walk() {
    let mut rng = StdRng::seed_from_u64(0xF1A7_0001);
    for _ in 0..20 {
        let d = rng.gen_range(1..=64);
        let ds = random_dataset(rng.gen_range(20..120), d, &mut rng);
        let seed = rng.gen();
        let tree = random_tree_params(&mut rng).fit(&ds, seed).unwrap();
        let flat = tree.compile();
        let batch = probes(d, 64, &mut rng);

        // Per-row equivalence against the nested enum walk.
        for row in batch.iter_rows().chain(ds.features().iter_rows()) {
            assert_eq!(
                flat.predict_proba_one(row).to_bits(),
                tree.predict_proba_one(row).to_bits()
            );
            assert_eq!(flat.predict_one(row), tree.predict_one(row));
            assert_eq!(
                flat.predict_with_proba_one(row),
                tree.predict_with_proba_one(row)
            );
        }

        // The tiled batch override matches the per-row walks exactly.
        let mut batched = Vec::new();
        flat.predict_proba_batch(batch.view(), &mut batched);
        let per_row: Vec<f64> = batch
            .iter_rows()
            .map(|r| tree.predict_proba_one(r))
            .collect();
        assert_eq!(batched.len(), per_row.len());
        for (a, b) in batched.iter().zip(&per_row) {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        // The tree's own batch override (which compiles on demand for large
        // batches) agrees too.
        let mut tree_batched = Vec::new();
        tree.predict_proba_batch(batch.view(), &mut tree_batched);
        for (a, b) in tree_batched.iter().zip(&per_row) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

#[test]
fn flat_forest_votes_match_nested_tree_majorities() {
    let mut rng = StdRng::seed_from_u64(0xF1A7_0002);
    for _ in 0..12 {
        let d = rng.gen_range(1..=32);
        let ds = random_dataset(rng.gen_range(30..100), d, &mut rng);
        let seed = rng.gen();
        let forest = RandomForestParams::new()
            .with_num_trees(rng.gen_range(1..12))
            .with_tree_params(random_tree_params(&mut rng))
            .fit(&ds, seed)
            .unwrap();
        let batch = probes(d, 130, &mut rng);

        for row in batch.iter_rows() {
            // Nested reference: majority over the individual enum-node trees.
            let nested_votes = forest
                .trees()
                .iter()
                .filter(|t| t.predict_one(row).is_malware())
                .count();
            let nested_proba = nested_votes as f64 / forest.num_trees() as f64;
            assert_eq!(
                forest.predict_proba_one(row).to_bits(),
                nested_proba.to_bits()
            );
            assert_eq!(forest.predict_one(row), Label::from(nested_proba >= 0.5));
        }

        // Batch override vs nested reference, spanning a block boundary.
        let mut batched = Vec::new();
        forest.predict_proba_batch(batch.view(), &mut batched);
        for (row, proba) in batch.iter_rows().zip(&batched) {
            let nested = forest
                .trees()
                .iter()
                .filter(|t| t.predict_one(row).is_malware())
                .count() as f64
                / forest.num_trees() as f64;
            assert_eq!(proba.to_bits(), nested.to_bits());
        }
    }
}

/// Per-row observations of one ensemble, gathered for the nested-vs-flat
/// comparison: batch counts, single-row counts, nested votes, ensemble size.
type EnsembleObservations = (Vec<[usize; 2]>, Vec<[usize; 2]>, Vec<Vec<Label>>, usize);

#[test]
fn flat_bagging_vote_counts_match_nested_votes() {
    let mut rng = StdRng::seed_from_u64(0xF1A7_0003);
    for round in 0..8 {
        let d = rng.gen_range(1..=16);
        let ds = random_dataset(rng.gen_range(40..100), d, &mut rng);
        let seed = rng.gen();
        let batch = probes(d, 70, &mut rng);

        // Alternate tree-based ensembles: bagged trees and bagged forests.
        let (counts_batch, singles, nested, total): EnsembleObservations = if round % 2 == 0 {
            let ensemble = BaggingParams::new(random_tree_params(&mut rng))
                .with_num_estimators(rng.gen_range(1..10))
                .fit(&ds, seed)
                .unwrap();
            assert!(ensemble.flat().is_some(), "tree ensembles must compile");
            (
                ensemble.vote_counts_batch(&batch),
                batch.iter_rows().map(|r| ensemble.vote_counts(r)).collect(),
                batch.iter_rows().map(|r| ensemble.votes(r)).collect(),
                ensemble.num_estimators(),
            )
        } else {
            let base = RandomForestParams::new()
                .with_num_trees(rng.gen_range(1..5))
                .with_tree_params(random_tree_params(&mut rng));
            let ensemble = BaggingParams::new(base)
                .with_num_estimators(rng.gen_range(1..8))
                .fit(&ds, seed)
                .unwrap();
            assert!(ensemble.flat().is_some(), "forest ensembles must compile");
            (
                ensemble.vote_counts_batch(&batch),
                batch.iter_rows().map(|r| ensemble.vote_counts(r)).collect(),
                batch.iter_rows().map(|r| ensemble.votes(r)).collect(),
                ensemble.num_estimators(),
            )
        };

        for ((batch_counts, single_counts), votes) in counts_batch.iter().zip(&singles).zip(&nested)
        {
            // Nested reference: histogram of per-estimator hard votes.
            let malware = votes.iter().filter(|v| v.is_malware()).count();
            let reference = [total - malware, malware];
            assert_eq!(*batch_counts, reference);
            assert_eq!(*single_counts, reference);
        }
    }
}

#[test]
fn non_tree_ensembles_fall_back_without_flat_form() {
    use hmd_ml::logistic::LogisticRegressionParams;
    let mut rng = StdRng::seed_from_u64(0xF1A7_0004);
    let ds = random_dataset(60, 3, &mut rng);
    let ensemble = BaggingParams::new(LogisticRegressionParams::new().with_epochs(40))
        .with_num_estimators(7)
        .fit(&ds, 1)
        .unwrap();
    assert!(ensemble.flat().is_none());
    let batch = probes(3, 33, &mut rng);
    let counts = ensemble.vote_counts_batch(&batch);
    for (row, batch_counts) in batch.iter_rows().zip(&counts) {
        let votes = ensemble.votes(row);
        let malware = votes.iter().filter(|v| v.is_malware()).count();
        assert_eq!(*batch_counts, [7 - malware, malware]);
    }
}

#[test]
fn persistence_round_trip_recompiles_the_flat_engine() {
    let mut rng = StdRng::seed_from_u64(0xF1A7_0005);
    for _ in 0..6 {
        let d = rng.gen_range(1..=24);
        let ds = random_dataset(rng.gen_range(40..90), d, &mut rng);
        let seed = rng.gen();
        let ensemble = BaggingParams::new(
            RandomForestParams::new()
                .with_num_trees(3)
                .with_tree_params(random_tree_params(&mut rng)),
        )
        .with_num_estimators(5)
        .fit(&ds, seed)
        .unwrap();

        let restored =
            hmd_ml::bagging::BaggingEnsemble::<RandomForest>::from_json(&ensemble.to_json())
                .expect("round trip");
        assert!(restored.flat().is_some(), "load must recompile the engine");
        assert_eq!(
            restored.flat(),
            ensemble.flat(),
            "recompiled form is identical"
        );

        let batch = probes(d, 80, &mut rng);
        let original = ensemble.vote_counts_batch(&batch);
        let roundtrip = restored.vote_counts_batch(&batch);
        assert_eq!(original, roundtrip);

        let mut a = Vec::new();
        let mut b = Vec::new();
        ensemble.predict_proba_batch(batch.view(), &mut a);
        restored.predict_proba_batch(batch.view(), &mut b);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}

#[test]
fn forest_codec_round_trip_preserves_flat_predictions() {
    let mut rng = StdRng::seed_from_u64(0xF1A7_0006);
    let d = 9;
    let ds = random_dataset(80, d, &mut rng);
    let forest = RandomForestParams::new()
        .with_num_trees(7)
        .fit(&ds, 21)
        .unwrap();
    let restored = RandomForest::from_json(&forest.to_json()).expect("round trip");
    assert_eq!(restored, forest, "flat cache is part of forest equality");
    let batch = probes(d, 96, &mut rng);
    let mut a = Vec::new();
    let mut b = Vec::new();
    forest.predict_proba_batch(batch.view(), &mut a);
    restored.predict_proba_batch(batch.view(), &mut b);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

#[test]
fn truncated_ensembles_recompile_consistently() {
    let mut rng = StdRng::seed_from_u64(0xF1A7_0007);
    let ds = random_dataset(70, 4, &mut rng);
    let ensemble = BaggingParams::new(DecisionTreeParams::new().with_max_depth(8))
        .with_num_estimators(9)
        .fit(&ds, 3)
        .unwrap();
    let truncated = ensemble.truncated(4).unwrap();
    assert!(truncated.flat().is_some());
    let batch = probes(4, 40, &mut rng);
    for (row, counts) in batch.iter_rows().zip(truncated.vote_counts_batch(&batch)) {
        let malware = truncated
            .votes(row)
            .iter()
            .filter(|v| v.is_malware())
            .count();
        assert_eq!(counts, [4 - malware, malware]);
    }
}

/// `From` conversions compile the same engine the caches hold.
#[test]
fn from_impls_match_cached_engines() {
    let mut rng = StdRng::seed_from_u64(0xF1A7_0008);
    let ds = random_dataset(50, 5, &mut rng);
    let forest = RandomForestParams::new()
        .with_num_trees(4)
        .fit(&ds, 8)
        .unwrap();
    let via_from: FlatForest = (&forest).into();
    assert_eq!(&via_from, forest.flat());

    let tree = DecisionTreeParams::new().fit(&ds, 9).unwrap();
    let flat_a = tree.compile();
    let flat_b: hmd_ml::flat::FlatTree = (&tree).into();
    assert_eq!(flat_a, flat_b);
}

/// Labels with no signal, so deep trees keep splitting: even a one-group
/// ensemble outgrows L1 and takes the block kernel.
fn noise_dataset(n: usize, d: usize, rng: &mut StdRng) -> Dataset {
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..d).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect();
    let labels = (0..n).map(|_| Label::from(rng.gen_bool(0.5))).collect();
    Dataset::new(Matrix::from_rows(&rows).unwrap(), labels).unwrap()
}

/// Every `(feature, threshold)` split of a model, read back from its JSON
/// form (thresholds round-trip bit for bit).
fn split_points(json: &Json, out: &mut Vec<(usize, f64)>) {
    match json {
        Json::Object(fields) => {
            if let (Ok(feature), Ok(threshold)) = (json.get("feature"), json.get("threshold")) {
                out.push((
                    usize::from_json(feature).unwrap(),
                    f64::from_json(threshold).unwrap(),
                ));
            }
            for (_, value) in fields {
                split_points(value, out);
            }
        }
        Json::Array(items) => items.iter().for_each(|item| split_points(item, out)),
        _ => {}
    }
}

/// Probe rows that stress the split predicate: each value is, at random, an
/// ordinary draw, NaN (never `<=`, so it goes right), ±∞, or a threshold of
/// one of the model's splits copied exactly (`<=` holds, so it goes left).
fn edge_probes(splits: &[(usize, f64)], d: usize, count: usize, rng: &mut StdRng) -> Matrix {
    let rows: Vec<Vec<f64>> = (0..count)
        .map(|_| {
            let mut row: Vec<f64> = (0..d)
                .map(|_| match rng.gen_range(0..10) {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => f64::NEG_INFINITY,
                    _ => rng.gen_range(-1.5..1.5),
                })
                .collect();
            for _ in 0..d {
                let (feature, threshold) = splits[rng.gen_range(0..splits.len())];
                row[feature] = threshold;
            }
            row
        })
        .collect();
    Matrix::from_rows(&rows).unwrap()
}

#[test]
fn block_kernel_matches_nested_votes_across_shapes_batches_and_edge_inputs() {
    let mut rng = StdRng::seed_from_u64(0xF1A7_0009);
    let d = 6;
    // (groups, trees per group): the bench pipeline's 25 x 3, lane counts
    // below, at and past one full set of lanes and past two, and even group
    // sizes, where a tie votes malware.
    let shapes = [
        (25, 3),
        (1, 3),
        (7, 3),
        (8, 3),
        (9, 3),
        (17, 3),
        (9, 2),
        (8, 4),
        (17, 1),
    ];
    for (groups, trees) in shapes {
        let ds = noise_dataset((15_000 / (groups * trees)).clamp(300, 6000), d, &mut rng);
        let forest = RandomForestParams::new()
            .with_num_trees(trees)
            .with_tree_params(DecisionTreeParams::new().with_max_depth(20));
        let ensemble = BaggingParams::new(forest)
            .with_num_estimators(groups)
            .fit(&ds, rng.gen())
            .unwrap();
        let flat = ensemble.flat().expect("forest ensembles compile");
        assert_eq!(
            (flat.num_groups(), flat.num_trees()),
            (groups, groups * trees)
        );
        assert!(
            flat.interleaves(),
            "{groups} x {trees}: {} split nodes stay on the sequential walk",
            flat.num_split_nodes()
        );

        let mut splits = Vec::new();
        split_points(&ensemble.to_json(), &mut splits);
        let probes = edge_probes(&splits, d, 300, &mut rng);
        // Nested reference per row: each forest's majority over its
        // enum-node trees, a tie voting malware.
        let reference: Vec<[usize; 2]> = probes
            .iter_rows()
            .map(|row| {
                let malware = ensemble
                    .estimators()
                    .iter()
                    .filter(|forest| {
                        let votes = forest
                            .trees()
                            .iter()
                            .filter(|t| t.predict_one(row).is_malware())
                            .count();
                        2 * votes >= trees
                    })
                    .count();
                [groups - malware, malware]
            })
            .collect();
        for (row, expected) in probes.iter_rows().zip(&reference) {
            let nested = ensemble.votes(row);
            let malware = nested.iter().filter(|v| v.is_malware()).count();
            assert_eq!([groups - malware, malware], *expected);
            assert_eq!(ensemble.vote_counts(row), *expected);
        }
        // Single rows, narrow batches around one set of lanes, tile edges,
        // and a batch large enough for the pool.
        for rows in [1, 2, 7, 8, 9, 63, 64, 65, 300] {
            let counts = ensemble.vote_counts_batch(probes.rows_view(0..rows));
            assert_eq!(counts, reference[..rows], "{groups} x {trees}, {rows} rows");
        }
    }
}

/// A document `from_json` accepts whose splits share one child between both
/// branches on most levels: 64 chained splits, every third of which sends
/// its right branch to a leaf, and a last split over two leaves. A walk ends
/// anywhere from level 3 to level 64, and a recursive depth count would
/// visit the shared tail once per path, about 2^42 times.
fn shared_child_chain(tree: usize, d: usize, rng: &mut StdRng) -> Json {
    const SPLITS: usize = 64;
    let mut leaves = Vec::new();
    let mut leaf = |rng: &mut StdRng| {
        leaves.push(Json::object(vec![
            (
                "malware_fraction",
                [0.0, 0.25, 0.75, 1.0][rng.gen_range(0..4usize)].to_json(),
            ),
            ("samples", 1usize.to_json()),
        ]));
        SPLITS + leaves.len() - 1
    };
    let mut nodes = Vec::new();
    for i in 0..SPLITS {
        let next = i + 1;
        let (left, right) = if i == SPLITS - 1 {
            (leaf(rng), leaf(rng))
        } else if i % 3 == 2 {
            (next, leaf(rng))
        } else {
            (next, next)
        };
        nodes.push(Json::object(vec![
            ("feature", ((i + tree) % d).to_json()),
            ("threshold", rng.gen_range(-1.0..1.0).to_json()),
            ("left", left.to_json()),
            ("right", right.to_json()),
        ]));
    }
    nodes.extend(leaves);
    Json::object(vec![
        ("nodes", Json::Array(nodes)),
        ("num_features", d.to_json()),
    ])
}

#[test]
fn shared_child_chains_report_their_depth_and_vote_like_the_nested_walk() {
    let mut rng = StdRng::seed_from_u64(0xF1A7_000A);
    let d = 5;
    // 25 chains of 64 splits outgrow L1, so the block kernel steps them.
    let trees: Vec<Json> = (0..25)
        .map(|tree| shared_child_chain(tree, d, &mut rng))
        .collect();
    let forest = RandomForest::from_json(&Json::object(vec![("trees", Json::Array(trees))]))
        .expect("increasing child indices decode");
    assert!(forest.trees().iter().all(|tree| tree.depth() == 64));
    let flat = forest.flat();
    assert!(flat.interleaves(), "{} split nodes", flat.num_split_nodes());

    let mut splits = Vec::new();
    split_points(&forest.to_json(), &mut splits);
    let probes = edge_probes(&splits, d, 200, &mut rng);
    let batch = flat.group_votes_batch(probes.view());
    for (row, &votes) in probes.iter_rows().zip(&batch) {
        let nested = forest
            .trees()
            .iter()
            .filter(|tree| tree.predict_one(row).is_malware())
            .count();
        assert_eq!(votes as usize, nested);
        assert_eq!(flat.group_votes_one(row), nested);
    }
}
