//! Seeded randomized equivalence suite for the presorted columnar training
//! engine (`hmd_ml::fastfit`).
//!
//! The fast-fit path must produce **bit-identical trees** to the retained
//! pre-optimisation fitters: the same node structure, split features,
//! thresholds and leaf statistics, across random datasets (depths 1–12,
//! 1–64 features), duplicate/constant feature columns, the
//! `min_samples_leaf` / `min_impurity_decrease` edge cases, and through
//! bagging/forest bootstrap **views** versus materialised replicate copies.
//!
//! Tree equality (`DecisionTree: PartialEq`) compares the node vectors
//! directly — split feature indices, `f64` thresholds, leaf
//! `malware_fraction` / `samples` — so a pass means the two growers made the
//! same decision at every node, not merely that predictions agree. Both
//! growers order values with `f64::total_cmp`, so ties break identically.

use hmd_data::split::bootstrap_indices;
use hmd_data::{Dataset, Label, Matrix};
use hmd_ml::bagging::BaggingParams;
use hmd_ml::forest::{RandomForest, RandomForestParams};
use hmd_ml::tree::{DecisionTree, DecisionTreeParams, MaxFeatures};
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

/// Dataset stressing tie handling: constant columns, duplicated columns and
/// heavily discretised values so equal-value runs dominate every sweep.
fn tied_dataset(n: usize, rng: &mut StdRng) -> Dataset {
    let mut rows = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        let malware = rng.gen_bool(0.5);
        let a = f64::from(rng.gen_range(0..3u8));
        let b = f64::from(rng.gen_range(0..2u8)) + if malware { 0.5 } else { 0.0 };
        // Columns: discretised, duplicate of it, constant, negated duplicate.
        rows.push(vec![a, a, 7.5, -b]);
        labels.push(Label::from(malware));
    }
    Dataset::new(Matrix::from_rows(&rows).unwrap(), labels).unwrap()
}

/// The closed loop's retrain-window shape: 192 rows × 27 features, two
/// healthy 32-row batches then four drifted ones (alternating ±4 shifts),
/// zero-heavy discretised columns, and every sixth row a duplicate of the
/// row before it.
fn drift_window_dataset(rng: &mut StdRng) -> Dataset {
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(192);
    let mut labels = Vec::with_capacity(192);
    for i in 0..192 {
        if i % 6 == 5 {
            rows.push(rows[i - 1].clone());
            labels.push(labels[i - 1]);
            continue;
        }
        let malware = rng.gen_bool(0.5);
        let drifted = i >= 64;
        let row = (0..27)
            .map(|j| {
                let shift = match (drifted, j % 2) {
                    (false, _) => 0.0,
                    (true, 0) => 4.0,
                    (true, _) => -4.0,
                };
                let signal = if malware { 0.5 } else { 0.0 };
                let value = match j % 3 {
                    // Zero-heavy: mostly exact zeros, else a few levels.
                    0 if rng.gen_bool(0.6) => 0.0,
                    0 => f64::from(rng.gen_range(1..5u8)) * 0.25 + signal,
                    1 => rng.gen_range(-1.0..1.0) + signal,
                    _ => f64::from(rng.gen_range(0..3u8)) * 0.5,
                };
                value + shift
            })
            .collect();
        rows.push(row);
        labels.push(Label::from(malware));
    }
    Dataset::new(Matrix::from_rows(&rows).unwrap(), labels).unwrap()
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
        .with_min_samples_split(rng.gen_range(2..6))
        .with_max_features(mf)
}

/// Asserts two trees are bit-identical and agree on a probe batch.
fn assert_trees_identical(fast: &DecisionTree, reference: &DecisionTree, ds: &Dataset) {
    assert_eq!(
        fast, reference,
        "presorted and reference fitters must grow identical trees"
    );
    assert_eq!(fast.num_nodes(), reference.num_nodes());
    assert_eq!(fast.depth(), reference.depth());
    for row in ds.features().iter_rows() {
        assert_eq!(
            fast.predict_proba_one(row).to_bits(),
            reference.predict_proba_one(row).to_bits()
        );
    }
}

#[test]
fn presorted_tree_matches_reference_across_random_grid() {
    let mut rng = StdRng::seed_from_u64(0xFA57_0001);
    for _ in 0..30 {
        let d = rng.gen_range(1..=64);
        let ds = random_dataset(rng.gen_range(20..140), d, &mut rng);
        let params = random_tree_params(&mut rng);
        let seed = rng.gen();
        let fast = DecisionTree::fit(&ds, &params, seed).unwrap();
        let reference = DecisionTree::fit_reference(&ds, &params, seed).unwrap();
        assert_trees_identical(&fast, &reference, &ds);
    }
}

#[test]
fn every_depth_from_one_to_twelve_matches() {
    let mut rng = StdRng::seed_from_u64(0xFA57_0002);
    let ds = random_dataset(120, 6, &mut rng);
    for depth in 1..=12 {
        let params = DecisionTreeParams::new().with_max_depth(depth);
        let fast = DecisionTree::fit(&ds, &params, depth as u64).unwrap();
        let reference = DecisionTree::fit_reference(&ds, &params, depth as u64).unwrap();
        assert_trees_identical(&fast, &reference, &ds);
    }
}

#[test]
fn duplicate_and_constant_columns_break_ties_identically() {
    let mut rng = StdRng::seed_from_u64(0xFA57_0003);
    for _ in 0..15 {
        let ds = tied_dataset(rng.gen_range(15..90), &mut rng);
        let params = random_tree_params(&mut rng);
        let seed = rng.gen();
        let fast = DecisionTree::fit(&ds, &params, seed).unwrap();
        let reference = DecisionTree::fit_reference(&ds, &params, seed).unwrap();
        assert_trees_identical(&fast, &reference, &ds);
    }
}

#[test]
fn leaf_and_impurity_constraints_match_at_the_edges() {
    let mut rng = StdRng::seed_from_u64(0xFA57_0004);
    let ds = random_dataset(60, 4, &mut rng);
    for &min_leaf in &[1usize, 2, 5, 10, 29, 30, 31] {
        for &min_decrease in &[0.0, 1e-7, 0.02, 0.3] {
            let params = DecisionTreeParams::new()
                .with_min_samples_leaf(min_leaf)
                .with_max_depth(8);
            let params = DecisionTreeParams {
                min_impurity_decrease: min_decrease,
                ..params
            };
            let seed = (min_leaf as u64) << 8 | (min_decrease * 100.0) as u64;
            let fast = DecisionTree::fit(&ds, &params, seed).unwrap();
            let reference = DecisionTree::fit_reference(&ds, &params, seed).unwrap();
            assert_trees_identical(&fast, &reference, &ds);
        }
    }
}

#[test]
fn resampled_view_equals_materialized_select() {
    let mut rng = StdRng::seed_from_u64(0xFA57_0005);
    for _ in 0..15 {
        let d = rng.gen_range(1..=24);
        let ds = random_dataset(rng.gen_range(20..100), d, &mut rng);
        // A messy multiset: repeats, gaps, unsorted order.
        let rows: Vec<usize> = (0..rng.gen_range(5..80))
            .map(|_| rng.gen_range(0..ds.len()))
            .collect();
        let params = random_tree_params(&mut rng);
        let seed = rng.gen();
        let via_view = params.fit_resampled(&ds, &rows, seed).unwrap();
        let via_copy = params.fit(&ds.select(&rows), seed).unwrap();
        assert_eq!(
            via_view, via_copy,
            "zero-copy view must equal the materialized replicate"
        );
    }
}

#[test]
fn forest_bootstrap_views_match_materialized_reference() {
    let mut rng = StdRng::seed_from_u64(0xFA57_0006);
    for _ in 0..8 {
        let d = rng.gen_range(1..=32);
        let ds = random_dataset(rng.gen_range(30..100), d, &mut rng);
        let params = RandomForestParams::new()
            .with_num_trees(rng.gen_range(1..8))
            .with_tree_params(random_tree_params(&mut rng))
            .with_bootstrap(rng.gen_bool(0.7));
        let seed = rng.gen();
        let fast = RandomForest::fit(&ds, &params, seed).unwrap();
        let reference = RandomForest::fit_reference(&ds, &params, seed).unwrap();
        // Forest equality covers every tree's nodes and the compiled flat
        // engine derived from them.
        assert_eq!(fast, reference);
    }
}

#[test]
fn forest_view_composition_equals_select_then_fit() {
    let mut rng = StdRng::seed_from_u64(0xFA57_0007);
    for _ in 0..6 {
        let ds = random_dataset(rng.gen_range(30..80), 5, &mut rng);
        let rows: Vec<usize> = (0..rng.gen_range(10..60))
            .map(|_| rng.gen_range(0..ds.len()))
            .collect();
        let params = RandomForestParams::new().with_num_trees(4);
        let seed = rng.gen();
        let via_view = params.fit_resampled(&ds, &rows, seed).unwrap();
        let via_copy = params.fit(&ds.select(&rows), seed).unwrap();
        assert_eq!(via_view, via_copy);
    }
}

#[test]
fn bagged_tree_views_match_materialized_copies() {
    let mut rng = StdRng::seed_from_u64(0xFA57_0008);
    for _ in 0..6 {
        let ds = random_dataset(rng.gen_range(40..100), rng.gen_range(1..=16), &mut rng);
        let params = BaggingParams::new(random_tree_params(&mut rng))
            .with_num_estimators(rng.gen_range(1..10))
            .with_sample_fraction([1.0, 0.5, 0.8][rng.gen_range(0..3usize)])
            .with_bootstrap(rng.gen_bool(0.8));
        let seed = rng.gen();
        let fast = params.fit(&ds, seed).unwrap();
        let reference = params.fit_reference(&ds, seed).unwrap();
        assert_eq!(fast.estimators(), reference.estimators());
        assert_eq!(fast.flat(), reference.flat());
    }
}

#[test]
fn bagged_forest_views_match_materialized_copies() {
    let assert_match = |ds: &Dataset, params: &BaggingParams<RandomForestParams>, seed: u64| {
        let fast = params.fit(ds, seed).unwrap();
        let reference = params.fit_reference(ds, seed).unwrap();
        assert_eq!(fast.estimators(), reference.estimators());
        assert_eq!(fast.flat(), reference.flat());
    };
    let mut rng = StdRng::seed_from_u64(0xFA57_0009);
    for _ in 0..4 {
        let ds = random_dataset(rng.gen_range(40..90), rng.gen_range(2..=12), &mut rng);
        let base = RandomForestParams::new()
            .with_num_trees(rng.gen_range(1..4))
            .with_tree_params(random_tree_params(&mut rng));
        let params = BaggingParams::new(base)
            .with_num_estimators(rng.gen_range(1..6))
            .with_sample_fraction(if rng.gen_bool(0.5) { 1.0 } else { 0.6 });
        assert_match(&ds, &params, rng.gen());
    }

    // The drift cycle's refit: 25 estimators × 3 trees on the retrain
    // window's shape. Above 0, `min_impurity_decrease` rejects candidates
    // while no best exists yet, so the grower's skip-the-division rule
    // also runs without a best numerator to compare against.
    let ds = drift_window_dataset(&mut rng);
    for min_impurity_decrease in [0.0, 1e-7, 0.01] {
        let tree = DecisionTreeParams {
            min_impurity_decrease,
            ..DecisionTreeParams::new()
                .with_max_depth(14)
                .with_max_features(MaxFeatures::Sqrt)
        };
        let base = RandomForestParams::new()
            .with_num_trees(3)
            .with_tree_params(tree);
        let params = BaggingParams::new(base).with_num_estimators(25);
        assert_match(&ds, &params, rng.gen());
    }
}

#[test]
fn bootstrap_seed_draws_are_unchanged_by_the_view_path() {
    // Pin the exact replicate protocol: the view path must consume the same
    // per-estimator RNG stream as materialised selection did, so models
    // trained by older revisions of the workspace are reproduced exactly.
    let mut rng = StdRng::seed_from_u64(0xFA57_000A);
    let ds = random_dataset(70, 3, &mut rng);
    let params =
        BaggingParams::new(DecisionTreeParams::new().with_max_depth(6)).with_num_estimators(5);
    let ensemble = params.fit(&ds, 42).unwrap();

    // Hand-rolled reference replicating BaggingParams::fit's seeding scheme.
    let mut seeder = StdRng::seed_from_u64(42);
    let seeds: Vec<u64> = (0..5).map(|_| seeder.gen()).collect();
    for (model, &estimator_seed) in ensemble.estimators().iter().zip(&seeds) {
        let mut draw_rng = StdRng::seed_from_u64(estimator_seed);
        let (indices, _) = bootstrap_indices(ds.len(), &mut draw_rng);
        let replicate = ds.select(&indices);
        let expected = DecisionTree::fit_reference(
            &replicate,
            &DecisionTreeParams::new().with_max_depth(6),
            estimator_seed,
        )
        .unwrap();
        assert_eq!(model, &expected);
    }
}

#[test]
fn empty_view_is_rejected_like_an_empty_dataset() {
    let mut rng = StdRng::seed_from_u64(0xFA57_000B);
    let ds = random_dataset(10, 2, &mut rng);
    let err = DecisionTreeParams::new()
        .fit_resampled(&ds, &[], 0)
        .unwrap_err();
    assert!(matches!(err, hmd_ml::MlError::TrainingFailed { .. }));
}
