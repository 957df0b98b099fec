//! Integration tests of the unified `Detector` API: trait-object usage,
//! batch/serial equivalence, and persistence round trips.

use hmd_codec::{Json, JsonCodec};
use hmd_core::detector::{
    load, save, save_to_file, Detector, DetectorBackend, DetectorConfig, DetectorExt, DetectorKind,
    MonitorSession,
};
use hmd_data::{Dataset, Label, Matrix};
use hmd_ml::forest::RandomForestParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Two well-separated Gaussian-ish blobs, the workhorse training set.
fn blobs(n: usize, features: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for _ in 0..n {
        let malware = rng.gen_bool(0.5);
        let c = if malware { 2.0 } else { -2.0 };
        rows.push(
            (0..features)
                .map(|f| {
                    if f < 2 {
                        c + rng.gen_range(-0.8..0.8)
                    } else {
                        rng.gen_range(-1.0..1.0)
                    }
                })
                .collect(),
        );
        labels.push(Label::from(malware));
    }
    Dataset::new(Matrix::from_rows(&rows).unwrap(), labels).unwrap()
}

fn all_kind_configs(backend: DetectorBackend) -> [DetectorConfig; 3] {
    [
        DetectorConfig::trusted(backend.clone()).with_num_estimators(9),
        DetectorConfig::untrusted(backend.clone()),
        DetectorConfig::platt(backend).with_entropy_threshold(0.8),
    ]
}

#[test]
fn all_three_pipeline_kinds_serve_through_a_trait_object() {
    let train = blobs(150, 3, 1);
    let test = blobs(40, 3, 2);

    let detectors: Vec<Box<dyn Detector>> = all_kind_configs(DetectorBackend::decision_tree())
        .into_iter()
        .map(|config| config.fit(&train, 7).expect("training succeeds"))
        .collect();
    assert_eq!(detectors.len(), 3);

    for detector in &detectors {
        // The trait surface works uniformly for every kind.
        assert!(!detector.name().is_empty());
        assert!(detector.entropy_threshold() > 0.0);
        let reports = detector.detect_batch(test.features()).expect("batch path");
        assert_eq!(reports.len(), test.len());
        let labels: Vec<Label> = reports.iter().map(|r| r.prediction.label).collect();
        let correct = labels
            .iter()
            .zip(test.labels())
            .filter(|(a, b)| a == b)
            .count();
        assert!(
            correct as f64 / test.len() as f64 > 0.85,
            "{}: accuracy {correct}/{}",
            detector.name(),
            test.len()
        );
        // Wrong feature width errors instead of panicking.
        assert!(detector.detect(&[1.0]).is_err());
    }

    // The three kinds are distinguishable through their names.
    let names: Vec<String> = detectors.iter().map(|d| d.name()).collect();
    assert!(names[0].starts_with("trusted["), "{names:?}");
    assert!(names[1].starts_with("untrusted["), "{names:?}");
    assert!(names[2].starts_with("platt["), "{names:?}");
}

#[test]
fn detect_batch_equals_mapping_detect_over_rows() {
    // Property test over random batches: for every backend × pipeline kind
    // and several random matrices, the flat-engine batch path must return
    // exactly what the serial per-row path returns — labels, probabilities
    // and entropies bit-identical.
    let train = blobs(120, 4, 3);
    for (b, backend) in [
        DetectorBackend::decision_tree(),
        DetectorBackend::random_forest(),
        DetectorBackend::logistic_regression(),
        DetectorBackend::linear_svm(),
    ]
    .into_iter()
    .enumerate()
    {
        for (i, config) in all_kind_configs(backend).into_iter().enumerate() {
            let detector = config.fit(&train, 11).expect("training succeeds");
            for case in 0..6u64 {
                let mut rng = StdRng::seed_from_u64(case * 31 + (b * 3 + i) as u64);
                // Cross the flat engine's 64-row tile boundary sometimes.
                let rows = rng.gen_range(1..100usize);
                let data: Vec<f64> = (0..rows * 4).map(|_| rng.gen_range(-4.0..4.0)).collect();
                let batch = Matrix::from_vec(rows, 4, data).unwrap();

                let batched = detector.detect_batch(&batch).expect("batch path");
                let mapped: Vec<_> = batch
                    .iter_rows()
                    .map(|row| detector.detect(row).expect("serial path"))
                    .collect();
                assert_eq!(batched.len(), mapped.len());
                for (a, m) in batched.iter().zip(&mapped) {
                    assert_eq!(
                        a.prediction.entropy.to_bits(),
                        m.prediction.entropy.to_bits(),
                        "{} case {case}",
                        detector.name()
                    );
                    assert_eq!(
                        a.prediction.malware_vote_fraction.to_bits(),
                        m.prediction.malware_vote_fraction.to_bits(),
                        "{} case {case}",
                        detector.name()
                    );
                    assert_eq!(a, m, "{} case {case}", detector.name());
                }
            }
        }
    }
}

#[test]
fn save_load_round_trip_reproduces_bit_identical_reports() {
    let train = blobs(150, 3, 5);
    let test = blobs(64, 3, 6);

    for backend in [
        DetectorBackend::decision_tree(),
        DetectorBackend::random_forest(),
        DetectorBackend::logistic_regression(),
        DetectorBackend::linear_svm(),
    ] {
        for config in all_kind_configs(backend) {
            let detector = config.fit(&train, 17).expect("training succeeds");
            let document = save(detector.as_ref()).expect("persistable");
            let restored = load(&document).expect("document loads");

            assert_eq!(restored.name(), detector.name());
            let original = detector.detect_batch(test.features()).expect("batch");
            let roundtrip = restored.detect_batch(test.features()).expect("batch");
            for (a, b) in original.iter().zip(&roundtrip) {
                // Bit-level equality, stricter than PartialEq (e.g. -0.0/0.0).
                assert_eq!(
                    a.prediction.entropy.to_bits(),
                    b.prediction.entropy.to_bits(),
                    "{}",
                    detector.name()
                );
                assert_eq!(
                    a.prediction.malware_vote_fraction.to_bits(),
                    b.prediction.malware_vote_fraction.to_bits(),
                    "{}",
                    detector.name()
                );
                assert_eq!(a, b, "{}", detector.name());
            }

            // Saving the restored detector reproduces the document exactly.
            assert_eq!(save(restored.as_ref()).expect("persistable"), document);
        }
    }
}

#[test]
fn trusted_forest_with_pca_survives_file_round_trip() {
    let train = blobs(150, 5, 7);
    let test = blobs(32, 5, 8);
    let detector = DetectorConfig::trusted(DetectorBackend::random_forest())
        .with_num_estimators(9)
        .with_pca(3)
        .with_entropy_threshold(0.35)
        .fit(&train, 23)
        .expect("training succeeds");

    let path = std::env::temp_dir().join(format!("hmd-detector-{}.json", std::process::id()));
    save_to_file(detector.as_ref(), &path).expect("file written");
    let restored = load_from_file_and_cleanup(&path);

    assert_eq!(restored.entropy_threshold(), 0.35);
    assert_eq!(
        restored.detect_batch(test.features()).expect("batch"),
        detector.detect_batch(test.features()).expect("batch"),
    );
}

fn load_from_file_and_cleanup(path: &std::path::Path) -> Box<dyn Detector> {
    let restored = hmd_core::detector::load_from_file(path).expect("file loads");
    let _ = std::fs::remove_file(path);
    restored
}

#[test]
fn malformed_documents_are_rejected_with_errors() {
    assert!(load("not json").is_err());
    assert!(load("{}").is_err());
    assert!(load(r#"{"format":"something-else","version":1}"#).is_err());
    assert!(
        load(r#"{"format":"hmd-detector","version":99,"kind":"trusted","backend":"decision-tree","model":{}}"#)
            .is_err()
    );
    assert!(load(
        r#"{"format":"hmd-detector","version":1,"kind":"trusted","backend":"quantum","model":{}}"#
    )
    .is_err());
    assert!(
        load(r#"{"format":"hmd-detector","version":1,"kind":"trusted","backend":"decision-tree","model":{}}"#)
            .is_err()
    );
}

/// The value at `path` inside `doc`: object keys by name (first
/// occurrence), array items by index.
fn at<'a>(doc: &'a mut Json, path: &[&str]) -> &'a mut Json {
    path.iter().fold(doc, |node, step| match node {
        Json::Object(fields) => {
            &mut fields
                .iter_mut()
                .find(|(key, _)| key == step)
                .unwrap_or_else(|| panic!("no key `{step}`"))
                .1
        }
        Json::Array(items) => &mut items[step.parse::<usize>().expect("an index")],
        other => panic!("no `{step}` inside a {}", other.kind()),
    })
}

/// The key/value pairs of the object at `path` inside `doc`.
fn fields<'a>(doc: &'a mut Json, path: &[&str]) -> &'a mut Vec<(String, Json)> {
    match at(doc, path) {
        Json::Object(fields) => fields,
        other => panic!("{path:?} is a {}", other.kind()),
    }
}

/// The items of the array at `path` inside `doc`.
fn items<'a>(doc: &'a mut Json, path: &[&str]) -> &'a mut Vec<Json> {
    match at(doc, path) {
        Json::Array(items) => items,
        other => panic!("{path:?} is a {}", other.kind()),
    }
}

#[test]
fn every_load_check_is_pinned_by_an_edited_document() {
    let train = blobs(60, 3, 11);
    let forest = DetectorBackend::RandomForest(RandomForestParams::new().with_num_trees(2));
    let fit = |config: DetectorConfig| {
        let detector = config.fit(&train, 3).expect("training succeeds");
        save(detector.as_ref()).expect("persistable")
    };
    let plain = fit(DetectorConfig::trusted(forest.clone()).with_num_estimators(3));
    let with_pca = fit(DetectorConfig::trusted(forest)
        .with_num_estimators(3)
        .with_pca(2));
    let edit = |doc: &str, change: &dyn Fn(&mut Json)| {
        let mut tree = Json::parse(doc).expect("saved documents parse");
        change(&mut tree);
        tree.to_string()
    };
    const FOREST: [&str; 4] = ["model", "ensemble", "estimators", "0"];
    const TREE: [&str; 6] = ["model", "ensemble", "estimators", "0", "trees", "0"];
    const ROOT: [&str; 8] = [
        "model",
        "ensemble",
        "estimators",
        "0",
        "trees",
        "0",
        "nodes",
        "0",
    ];
    let root = |key: &'static str| [&ROOT[..], &[key]].concat();
    fn first_leaf(nodes: &mut [Json]) -> &mut Vec<(String, Json)> {
        let leaf = nodes
            .iter()
            .position(|node| node.get("malware_fraction").is_ok())
            .expect("a tree has a leaf");
        match &mut nodes[leaf] {
            Json::Object(fields) => fields,
            _ => panic!("nodes are objects"),
        }
    }

    let rejected: Vec<(&str, String, &str)> = vec![
        (
            "a child index that does not increase",
            edit(&plain, &|d| *at(d, &root("left")) = Json::Int(0)),
            "does not increase (cycle)",
        ),
        (
            "a child index out of bounds",
            edit(&plain, &|d| *at(d, &root("right")) = Json::Int(999)),
            "child index out of bounds",
        ),
        (
            "a split on a feature the tree does not have",
            edit(&plain, &|d| *at(d, &root("feature")) = Json::Int(3)),
            "split on feature 3 but only 3 features",
        ),
        (
            "a tree with no nodes",
            edit(&plain, &|d| {
                items(d, &[&TREE[..], &["nodes"]].concat()).clear()
            }),
            "decision tree has no nodes",
        ),
        (
            "a forest with no trees",
            edit(&plain, &|d| {
                items(d, &[&FOREST[..], &["trees"]].concat()).clear()
            }),
            "random forest has no trees",
        ),
        (
            "a forest whose trees disagree on width",
            edit(&plain, &|d| {
                *at(d, &[&FOREST[..], &["trees", "1", "num_features"]].concat()) = Json::Int(4)
            }),
            "random forest trees disagree on feature count (3 vs 4)",
        ),
        (
            "an ensemble with no estimators",
            edit(&plain, &|d| {
                items(d, &["model", "ensemble", "estimators"]).clear()
            }),
            "bagging ensemble has no estimators",
        ),
        (
            "scaler means and stds of different lengths",
            edit(&plain, &|d| {
                items(d, &["model", "scaler", "stds"]).pop();
            }),
            "scaler: 3 means but 2 stds",
        ),
        (
            "a front end wider than the model",
            edit(&plain, &|d| {
                items(d, &["model", "scaler", "means"]).push(Json::Float(0.5));
                items(d, &["model", "scaler", "stds"]).push(Json::Float(1.5));
            }),
            "front end produces 4 features but model expects 3",
        ),
        (
            "PCA projection rows that differ from its means",
            edit(&with_pca, &|d| {
                items(d, &["model", "pca", "means"]).push(Json::Float(0.5))
            }),
            "pca: projection has 3 rows but 4 means",
        ),
        (
            "trailing bytes after the document",
            format!("{plain} x"),
            "trailing characters after document",
        ),
        (
            "a first duplicate key with the wrong type",
            edit(&plain, &|d| {
                fields(d, &["model"])
                    .insert(0, ("entropy_threshold".into(), Json::Str("junk".into())))
            }),
            "expected number, found string \"junk\"",
        ),
        (
            "an unknown key whose value has a syntax error",
            plain.replacen('{', r#"{"note":[1,,2],"#, 1),
            "unexpected character `,`",
        ),
    ];
    for (case, doc, message) in rejected {
        match load(&doc) {
            Ok(_) => panic!("{case}: the document loaded"),
            Err(err) => assert!(err.to_string().contains(message), "{case}: {err}"),
        }
    }

    let accepted: Vec<(&str, String)> = vec![
        (
            "the top-level keys reversed",
            edit(&plain, &|d| fields(d, &[]).reverse()),
        ),
        (
            "unknown keys",
            edit(&plain, &|d| {
                fields(d, &[]).insert(0, ("note".into(), Json::Array(vec![Json::Null])));
                fields(d, &["model"]).push(("note".into(), Json::Str("x".into())));
            }),
        ),
        (
            "a second duplicate key",
            edit(&plain, &|d| {
                fields(d, &["model"]).push(("entropy_threshold".into(), Json::Str("junk".into())))
            }),
        ),
        (
            "a leaf with a junk feature",
            edit(&plain, &|d| {
                first_leaf(items(d, &[&TREE[..], &["nodes"]].concat()))
                    .push(("feature".into(), Json::Str("junk".into())))
            }),
        ),
        (
            "a split with junk samples",
            edit(&plain, &|d| {
                fields(d, &ROOT).push(("samples".into(), Json::Str("junk".into())))
            }),
        ),
        (
            "integers with leading zeros",
            plain
                .replace(r#""version":1"#, r#""version":0001"#)
                .replace(r#""num_features":3"#, r#""num_features":03"#),
        ),
    ];
    for (case, doc) in accepted {
        assert_ne!(doc, plain, "{case}: the edit changed nothing");
        let restored = load(&doc).unwrap_or_else(|err| panic!("{case}: {err}"));
        assert_eq!(save(restored.as_ref()).unwrap(), plain, "{case}");
    }
}

#[test]
fn detector_config_round_trips_through_json() {
    let config = DetectorConfig::trusted(DetectorBackend::random_forest())
        .with_num_estimators(40)
        .with_pca(6)
        .with_entropy_threshold(0.25);
    let text = config.to_json().to_string();
    let back = DetectorConfig::from_json(&hmd_codec::Json::parse(&text).unwrap()).unwrap();
    assert_eq!(back, config);
    assert_eq!(back.kind, DetectorKind::Trusted);
    assert_eq!(back.pca_components, Some(6));
}

#[test]
fn monitor_session_statistics_match_batch_reports() {
    let train = blobs(120, 3, 9);
    let known = blobs(30, 3, 10);
    let detector = DetectorConfig::trusted(DetectorBackend::decision_tree())
        .with_num_estimators(15)
        .fit(&train, 3)
        .expect("training succeeds");

    let mut session = MonitorSession::new(detector.as_ref());
    let reports = session.observe_batch(known.features()).expect("batch");
    let stats = session.stats();
    assert_eq!(stats.windows, known.len());
    let escalated = reports
        .iter()
        .filter(|r| r.decision.is_escalation())
        .count();
    assert_eq!(stats.escalated, escalated);
    assert_eq!(stats.accepted, known.len() - escalated);
    let mean: f64 =
        reports.iter().map(|r| r.prediction.entropy).sum::<f64>() / reports.len() as f64;
    assert!((stats.mean_entropy() - mean).abs() < 1e-12);
}

#[test]
fn refit_on_window_is_bit_identical_to_from_scratch_fit() {
    // The closed loop retrains on a borrowed window of recent rows; the
    // result must be the same detector — bit for bit through the codec —
    // as fitting the config from scratch on an owned dataset of the same
    // rows, labels and seed.
    let train = blobs(160, 4, 21);
    for config in [
        DetectorConfig::trusted(DetectorBackend::random_forest()).with_num_estimators(11),
        DetectorConfig::trusted(DetectorBackend::decision_tree())
            .with_num_estimators(9)
            .with_pca(3),
        DetectorConfig::platt(DetectorBackend::logistic_regression()),
    ] {
        let scratch = config.fit(&train, 5).expect("from-scratch fit");
        let refit = config
            .refit_on_window(&train.features().view(), train.labels(), 5)
            .expect("window refit");
        assert_eq!(
            save(refit.as_ref()).expect("persistable"),
            save(scratch.as_ref()).expect("persistable"),
            "{}: window refit must be bit-identical",
            scratch.name()
        );
    }

    // A strided sub-window (no copy on the way in) trains the same model as
    // an owned dataset of exactly those rows.
    let sub = train.select(&(40..120).collect::<Vec<_>>());
    let config = DetectorConfig::trusted(DetectorBackend::random_forest()).with_num_estimators(7);
    let windowed = config
        .refit_on_window(
            &train.features().rows_view(40..120),
            &train.labels()[40..120],
            9,
        )
        .expect("sub-window refit");
    let scratch = config.fit(&sub, 9).expect("sub fit");
    assert_eq!(
        save(windowed.as_ref()).expect("persistable"),
        save(scratch.as_ref()).expect("persistable")
    );

    // Mismatched label length is a typed error, not a panic.
    assert!(config
        .refit_on_window(&train.features().view(), &train.labels()[..10], 9)
        .is_err());
}

#[test]
fn a_refit_does_not_depend_on_where_it_runs() {
    // The worker pool runs a nested parallel fit inline on a pool worker
    // and on the calling thread's own share of an outer map, and spreads it
    // over the pool from a top-level call. The refit must save the same
    // bytes in all three places.
    use rayon::prelude::*;
    use std::sync::{Condvar, Mutex};
    use std::thread::current;

    let train = blobs(160, 6, 33);
    let config = DetectorConfig::trusted(DetectorBackend::RandomForest(
        RandomForestParams::new().with_num_trees(3),
    ))
    .with_num_estimators(9);
    let window = train.features().view();
    let refit = || {
        let detector = config
            .refit_on_window(&window, train.labels(), 5)
            .expect("window refit");
        save(detector.as_ref()).expect("persistable")
    };
    let top_level = refit();

    // Every item first waits until the caller and a pool worker have each
    // started one, so both kinds of share run a refit (a 1-core pool runs
    // the whole map on the caller).
    let caller = current().id();
    let started = Mutex::new([false, rayon::current_num_threads() == 1]);
    let both = Condvar::new();
    let slots: Vec<usize> = (0..6).collect();
    let runs: Vec<(bool, String)> = slots
        .par_iter()
        .map(|_| {
            let on_caller = current().id() == caller;
            let mut side = started.lock().unwrap();
            side[usize::from(!on_caller)] = true;
            both.notify_all();
            while !(side[0] && side[1]) {
                side = both.wait(side).unwrap();
            }
            drop(side);
            (on_caller, refit())
        })
        .collect();
    assert!(runs.iter().any(|(on_caller, _)| *on_caller));
    assert!(rayon::current_num_threads() == 1 || runs.iter().any(|(on_caller, _)| !on_caller));
    for (on_caller, document) in runs {
        assert_eq!(
            document,
            top_level,
            "a refit in the {} share must save the same bytes",
            if on_caller { "caller's" } else { "worker's" }
        );
    }
}
