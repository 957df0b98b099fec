//! Fleet behaviour tests: the seeded multi-threaded equivalence proof
//! (fleet-routed scoring at 1 and 3 replicas is report-identical to direct
//! `detect_batch`, modulo replica attribution), hot swap mid-stream,
//! routing-policy behaviour, lock-stepped deploy/rollback fan-out, one
//! shared detector instance per endpoint (never serialised on the write
//! path), and the flush-policy edge cases.

use hmd_codec::Json;
use hmd_core::detector::{
    load, save, Detector, DetectorBackend, DetectorConfig, DetectorExt, MonitorSession,
    MonitorStats,
};
use hmd_core::trusted::DetectionReport;
use hmd_data::{Dataset, Label, Matrix, RowsView};
use hmd_ml::MlError;
use hmd_serve::{
    FaultInjector, FaultPlan, FleetError, FlushPolicy, RoutePolicy, ShardConfig, ShardedFleet,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// A matrix of scoring requests straddling both blobs and the space between,
/// so reports mix confident accepts with escalations.
fn request_matrix(rows: usize, features: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<f64> = (0..rows * features)
        .map(|_| rng.gen_range(-3.0..3.0))
        .collect();
    Matrix::from_vec(rows, features, data).unwrap()
}

fn trained(num_estimators: usize, seed: u64) -> Box<dyn Detector> {
    DetectorConfig::trusted(DetectorBackend::random_forest())
        .with_num_estimators(num_estimators)
        .with_entropy_threshold(0.4)
        .fit(&blobs(140, 4, 11), seed)
        .expect("training succeeds")
}

fn assert_reports_bit_identical(
    a: &hmd_core::trusted::DetectionReport,
    b: &hmd_core::trusted::DetectionReport,
    context: &str,
) {
    assert_eq!(
        a.prediction.entropy.to_bits(),
        b.prediction.entropy.to_bits(),
        "{context}: entropy"
    );
    assert_eq!(
        a.prediction.malware_vote_fraction.to_bits(),
        b.prediction.malware_vote_fraction.to_bits(),
        "{context}: vote fraction"
    );
    assert_eq!(a, b, "{context}");
}

/// Finds one key per replica: `keys[r]` routes to replica `r` under key
/// affinity. Probing is deterministic (the key hash is a pure function).
fn keys_per_replica(fleet: &ShardedFleet, name: &str, replicas: usize) -> Vec<u64> {
    let mut keys = vec![None; replicas];
    let mut found = 0;
    for key in 0..10_000u64 {
        let ticket = fleet.score_keyed(name, key, &[0.0, 0.0, 0.0, 0.0]).unwrap();
        let replica = ticket.replica();
        // Resolve the probe so it does not linger in a tile.
        fleet.flush(name).unwrap();
        ticket.wait().unwrap();
        if keys[replica].is_none() {
            keys[replica] = Some(key);
            found += 1;
            if found == replicas {
                break;
            }
        }
    }
    fleet.reset_stats(name).unwrap();
    keys.into_iter()
        .map(|k| k.expect("every replica is reachable by some key"))
        .collect()
}

/// A fleet of `replicas` round-robin replicas whose tiles flush at
/// `max_batch` rows or after `max_wait`.
fn fleet(replicas: usize, max_batch: usize, max_wait: Duration) -> ShardedFleet {
    ShardedFleet::with_config(
        ShardConfig::new(replicas).with_flush(FlushPolicy::new(max_batch, max_wait)),
    )
}

/// The acceptance-criteria test: interleaved single-row `score()` calls from
/// multiple threads produce reports bit-identical to one direct
/// `detect_batch` over the same rows — on one replica, where every thread
/// shares one tile, and on three, where round-robin spreads the rows — no
/// matter how the micro-batcher grouped them into tiles or which replica
/// served them. The deployed copy is a save/load round trip of the
/// directly-scored detector, exactly the registry deployment scenario.
/// Tile size 7 deliberately misaligns with the request count and the thread
/// interleaving, so tiles mix rows from every thread.
#[test]
fn multithreaded_scoring_is_bit_identical_to_direct_batch() {
    let detector = trained(15, 21);
    let requests = request_matrix(173, 4, 22);
    let direct = detector.detect_batch(&requests).expect("direct batch");
    let mut session = MonitorSession::new(detector.as_ref());
    session.observe_batch(&requests).expect("session batch");
    let session = *session.stats();

    for replicas in [1, 3] {
        let fleet = Arc::new(fleet(replicas, 7, Duration::from_millis(20)));
        fleet
            .deploy(
                "hmd",
                load(&save(detector.as_ref()).expect("persistable")).expect("loads"),
            )
            .expect("replicates");
        assert_eq!(fleet.replicas("hmd").unwrap(), replicas);

        let threads = 4;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let fleet = Arc::clone(&fleet);
                let requests = requests.clone();
                std::thread::spawn(move || {
                    let mut results = Vec::new();
                    for row in (t..requests.rows()).step_by(threads) {
                        let ticket = fleet.score("hmd", requests.row(row)).expect("enqueue");
                        results.push((row, ticket.wait().expect("scores")));
                    }
                    results
                })
            })
            .collect();

        let mut replicas_used = vec![0usize; replicas];
        let mut by_row = vec![None; requests.rows()];
        for handle in handles {
            for (row, report) in handle.join().expect("thread completes") {
                assert!(
                    by_row[row].replace(report).is_none(),
                    "row {row} scored once"
                );
            }
        }
        for (row, scored) in by_row.iter().enumerate() {
            let scored = scored.as_ref().expect("every row scored");
            assert_eq!(scored.version, 1, "replica versions are lock-stepped");
            assert!(scored.replica < replicas);
            replicas_used[scored.replica] += 1;
            assert_reports_bit_identical(
                &scored.report,
                &direct[row],
                &format!("{replicas} replica(s), row {row}"),
            );
        }
        assert!(
            replicas_used.iter().all(|&n| n > 0),
            "round-robin spreads across every replica: {replicas_used:?}"
        );

        // Merged per-replica stats equal one session fed every report:
        // counters and extremes exactly; the mean folds an f64 sum whose
        // value depends on which order the threads won the enqueue locks
        // and on merge order, so it gets a tolerance.
        let merged = fleet.stats("hmd").expect("stats");
        assert_eq!(merged.windows, session.windows);
        assert_eq!(merged.accepted, session.accepted);
        assert_eq!(merged.escalated, session.escalated);
        assert_eq!(merged.accepted_malware, session.accepted_malware);
        assert_eq!(merged.accepted_benign, session.accepted_benign);
        assert_eq!(merged.min_entropy.to_bits(), session.min_entropy.to_bits());
        assert_eq!(merged.max_entropy.to_bits(), session.max_entropy.to_bits());
        assert!((merged.mean_entropy() - session.mean_entropy()).abs() < 1e-12);

        // The per-replica view decomposes the merged one.
        let per_replica = fleet.replica_stats("hmd").expect("replica stats");
        assert_eq!(per_replica.len(), replicas);
        for (replica, stats) in per_replica.iter().enumerate() {
            assert_eq!(stats.windows, replicas_used[replica]);
        }
    }
}

/// Hot swap mid-stream: requests keep flowing while a new version is
/// published. Every report must be attributable — stamped v1 results match
/// the v1 detector's direct output for that row, stamped v2 results match
/// the v2 detector's.
#[test]
fn hot_swap_mid_stream_keeps_every_report_attributable() {
    let v1 = trained(9, 31);
    let v2 = trained(15, 32); // different ensemble size => different reports
    let requests = request_matrix(120, 4, 33);
    let direct_v1 = v1.detect_batch(&requests).expect("v1 direct");
    let direct_v2 = v2.detect_batch(&requests).expect("v2 direct");

    let fleet = Arc::new(fleet(1, 5, Duration::from_millis(10)));
    fleet.deploy("hmd", v1).expect("deploys");

    let scorer = {
        let fleet = Arc::clone(&fleet);
        let requests = requests.clone();
        std::thread::spawn(move || {
            let mut results = Vec::new();
            for row in 0..requests.rows() {
                let ticket = fleet.score("hmd", requests.row(row)).expect("enqueue");
                results.push((row, ticket.wait().expect("scores")));
            }
            results
        })
    };
    // Publish v2 while the scorer is mid-stream.
    std::thread::sleep(Duration::from_millis(2));
    assert_eq!(fleet.deploy("hmd", v2).expect("deploys"), 2);

    let results = scorer.join().expect("scorer completes");
    assert_eq!(results.len(), requests.rows());
    let mut v2_seen = false;
    for (row, scored) in results {
        match scored.version {
            1 => {
                assert!(!v2_seen, "versions must not interleave backwards mid-tile");
                assert_reports_bit_identical(&scored.report, &direct_v1[row], "v1 row");
            }
            2 => {
                v2_seen = true;
                assert_reports_bit_identical(&scored.report, &direct_v2[row], "v2 row");
            }
            other => panic!("unexpected version {other}"),
        }
    }

    // Roll back and prove new traffic reverts to bit-identical v1 behaviour.
    assert_eq!(fleet.rollback("hmd").expect("previous version exists"), 1);
    let after = fleet.score_batch("hmd", &requests).expect("post-rollback");
    for (row, scored) in after.iter().enumerate() {
        assert_eq!(scored.version, 1);
        assert_reports_bit_identical(&scored.report, &direct_v1[row], "rolled-back row");
    }
}

/// An oversized burst from one producer drains tile by tile: every
/// `max_batch`-th enqueue flushes inline, the remainder drains on demand,
/// and nothing is lost or reordered.
#[test]
fn oversized_burst_drains_in_max_batch_tiles() {
    let detector = trained(7, 51);
    let requests = request_matrix(43, 4, 52);
    let direct = detector.detect_batch(&requests).expect("direct");

    let fleet = fleet(1, 8, Duration::from_secs(10));
    fleet.deploy("hmd", detector).expect("deploys");

    let tickets: Vec<_> = (0..requests.rows())
        .map(|row| fleet.score("hmd", requests.row(row)).expect("enqueue"))
        .collect();
    // 43 = 5 full tiles of 8 drained inline + 3 rows still pending.
    assert_eq!(fleet.stats("hmd").expect("stats").windows, 40);
    assert_eq!(fleet.flush("hmd").expect("flush"), 3);
    assert_eq!(fleet.stats("hmd").expect("stats").windows, 43);
    // An empty flush afterwards is a no-op, not an error.
    assert_eq!(fleet.flush("hmd").expect("empty flush"), 0);

    for (row, ticket) in tickets.into_iter().enumerate() {
        let scored = ticket
            .try_wait()
            .expect("all tiles drained")
            .expect("scores");
        assert_reports_bit_identical(&scored.report, &direct[row], "burst row");
    }
}

/// Two endpoints serve independent detectors with independent statistics.
#[test]
fn endpoints_are_isolated() {
    let fleet = ShardedFleet::new(1);
    fleet.deploy("small", trained(5, 61)).expect("deploys");
    fleet.deploy("large", trained(15, 62)).expect("deploys");
    assert_eq!(
        fleet.endpoints(),
        vec!["large".to_string(), "small".to_string()]
    );

    let requests = request_matrix(12, 4, 63);
    fleet.score_batch("small", &requests).expect("small scores");
    assert_eq!(fleet.stats("small").expect("stats").windows, 12);
    assert_eq!(fleet.stats("large").expect("stats").windows, 0);
    assert!(matches!(
        fleet.score_batch("ghost", &requests),
        Err(FleetError::UnknownEndpoint { .. })
    ));
}

/// Every replica serves the one deployed instance, so a detector that
/// cannot persist (the fault injector, whose plan must never leak through
/// the codec) deploys through plain `deploy` and `deploy_shadow` on any
/// replica count. Its reports are bit-identical to direct scoring, and its
/// call counter sees every batch scored on every replica — one instance,
/// shared.
#[test]
fn detectors_that_cannot_persist_deploy_shared_on_any_replica_count() {
    let requests = request_matrix(6, 4, 72);
    let direct = trained(5, 71).detect_batch(&requests).expect("direct");
    let direct_challenger = trained(9, 73).detect_batch(&requests).expect("direct");

    for replicas in [1, 3] {
        let fleet = ShardedFleet::with_config(
            ShardConfig::new(replicas).with_flush(FlushPolicy::new(64, Duration::from_secs(5))),
        );
        let champion = FaultInjector::new(trained(5, 71), FaultPlan::new());
        let champion_calls = champion.counters();
        assert_eq!(fleet.deploy("hmd", Box::new(champion)).expect("deploys"), 1);

        // Round-robin batches: two per replica.
        let batches = 2 * replicas as u64;
        for _ in 0..batches {
            let scored = fleet.score_batch("hmd", &requests).expect("scores");
            for (row, s) in scored.iter().enumerate() {
                assert_reports_bit_identical(&s.report, &direct[row], "injector row");
            }
        }
        assert!(
            fleet
                .replica_stats("hmd")
                .unwrap()
                .iter()
                .all(|s| s.windows > 0),
            "every replica scored"
        );
        assert_eq!(champion_calls.calls(), batches, "{replicas} replica(s)");

        // Tile path: one row per replica, each replica's tile drains once.
        let tickets: Vec<_> = (0..replicas)
            .map(|row| fleet.score("hmd", requests.row(row)).expect("enqueue"))
            .collect();
        assert_eq!(fleet.flush("hmd").expect("flush"), replicas);
        for (row, ticket) in tickets.into_iter().enumerate() {
            let scored = ticket.wait().expect("scores");
            assert_reports_bit_identical(&scored.report, &direct[row], "tile row");
        }
        let served = batches + replicas as u64;
        assert_eq!(champion_calls.calls(), served, "{replicas} replica(s)");

        // The shadow slot shares one challenger the same way.
        let challenger = FaultInjector::new(trained(9, 73), FaultPlan::new());
        let challenger_calls = challenger.counters();
        assert_eq!(fleet.deploy_shadow("hmd", Box::new(challenger)), Ok(()));
        for _ in 0..batches {
            fleet.score_batch("hmd", &requests).expect("scores");
        }
        assert_eq!(challenger_calls.calls(), batches, "{replicas} replica(s)");
        assert_eq!(champion_calls.calls(), served + batches);

        // Promotion publishes that one instance on every replica.
        assert_eq!(fleet.promote_shadow("hmd").expect("promotes"), 2);
        for _ in 0..batches {
            let scored = fleet.score_batch("hmd", &requests).expect("scores");
            for (row, s) in scored.iter().enumerate() {
                assert_reports_bit_identical(&s.report, &direct_challenger[row], "promoted");
            }
        }
        assert_eq!(
            challenger_calls.calls(),
            2 * batches,
            "{replicas} replica(s)"
        );
    }
}

/// `deploy_replicas` needs exactly one detector per replica: 0, n − 1 and
/// n + 1 detectors are each refused with `Replication` and publish nothing,
/// whether the endpoint is new or already serving.
#[test]
fn deploy_replicas_refuses_a_wrong_detector_count() {
    let replicas = 3;
    let fleet = ShardedFleet::new(replicas);
    let detectors = |n: usize| (0..n).map(|_| trained(5, 74)).collect::<Vec<_>>();
    for count in [0, replicas - 1, replicas + 1] {
        assert!(
            matches!(
                fleet.deploy_replicas("hmd", detectors(count)),
                Err(FleetError::Replication { .. })
            ),
            "{count} detectors for {replicas} replicas"
        );
        assert!(
            fleet.endpoints().is_empty(),
            "a refused deploy publishes nothing"
        );
    }

    assert_eq!(fleet.deploy_replicas("hmd", detectors(replicas)), Ok(1));
    for count in [0, replicas - 1, replicas + 1] {
        assert!(matches!(
            fleet.deploy_replicas("hmd", detectors(count)),
            Err(FleetError::Replication { .. })
        ));
        assert_eq!(fleet.active_version("hmd").unwrap(), 1, "nothing published");
    }
    assert_eq!(
        fleet.rollback("hmd").unwrap_err(),
        FleetError::NoPreviousVersion { name: "hmd".into() },
        "a refused redeploy retires nothing"
    );
}

/// A persistable detector that counts how often it is serialised.
struct SaveCounting {
    inner: Box<dyn Detector>,
    saves: Arc<AtomicUsize>,
}

impl Detector for SaveCounting {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn entropy_threshold(&self) -> f64 {
        self.inner.entropy_threshold()
    }

    fn detect_rows(&self, batch: RowsView<'_>) -> Result<Vec<DetectionReport>, MlError> {
        self.inner.detect_rows(batch)
    }

    fn to_saved_json(&self) -> Option<Json> {
        self.saves.fetch_add(1, Ordering::SeqCst);
        self.inner.to_saved_json()
    }
}

/// The serve write path never serialises a model: deploy, deploy_shadow,
/// promote_shadow and rollback on a 3-replica fleet all share the instance
/// they were given instead of cloning it through the codec.
#[test]
fn the_write_path_never_serialises_a_detector() {
    let saves = Arc::new(AtomicUsize::new(0));
    let counting = |num_estimators, seed| {
        Box::new(SaveCounting {
            inner: trained(num_estimators, seed),
            saves: Arc::clone(&saves),
        })
    };
    let requests = request_matrix(9, 4, 75);
    let direct_champion = trained(7, 76).detect_batch(&requests).expect("direct");
    let direct_challenger = trained(11, 77).detect_batch(&requests).expect("direct");

    let fleet = ShardedFleet::new(3);
    assert_eq!(fleet.deploy("hmd", counting(7, 76)).expect("deploys"), 1);
    fleet
        .deploy_shadow("hmd", counting(11, 77))
        .expect("shadows");
    fleet.score_batch("hmd", &requests).expect("scores");
    assert_eq!(fleet.promote_shadow("hmd").expect("promotes"), 2);
    let promoted = fleet.score_batch("hmd", &requests).expect("scores");
    assert_eq!(fleet.rollback("hmd").expect("rolls back"), 1);
    let restored = fleet.score_batch("hmd", &requests).expect("scores");
    for row in 0..requests.rows() {
        assert_reports_bit_identical(&promoted[row].report, &direct_challenger[row], "promoted");
        assert_reports_bit_identical(&restored[row].report, &direct_champion[row], "restored");
    }
    assert_eq!(saves.load(Ordering::SeqCst), 0, "no codec clone anywhere");
}

/// Key affinity pins every request of a session to one replica, so a
/// session's burst micro-batches together; distinct keys spread out.
#[test]
fn key_affinity_pins_sessions_and_spreads_keys() {
    let fleet = ShardedFleet::with_config(
        ShardConfig::new(4)
            .with_policy(RoutePolicy::KeyAffinity)
            .with_flush(FlushPolicy::new(64, Duration::from_millis(50))),
    );
    let detector = trained(9, 41);
    let requests = request_matrix(12, 4, 42);
    let direct = detector.detect_batch(&requests).expect("direct");
    fleet.deploy("hmd", detector).expect("deploys");

    let mut replicas_seen = std::collections::HashSet::new();
    for session in 0..16u64 {
        let tickets: Vec<_> = (0..requests.rows())
            .map(|row| {
                fleet
                    .score_keyed("hmd", session, requests.row(row))
                    .expect("enqueue")
            })
            .collect();
        fleet.flush("hmd").expect("flush");
        let mut session_replicas = std::collections::HashSet::new();
        for (row, ticket) in tickets.into_iter().enumerate() {
            let scored = ticket.wait().expect("scores");
            session_replicas.insert(scored.replica);
            assert_reports_bit_identical(&scored.report, &direct[row], "keyed row");
        }
        assert_eq!(
            session_replicas.len(),
            1,
            "session {session} must stick to one replica"
        );
        replicas_seen.extend(session_replicas);
    }
    assert!(
        replicas_seen.len() >= 3,
        "16 sessions should spread over most of 4 replicas, got {replicas_seen:?}"
    );
}

/// The least-loaded router reads open-tile depths and picks the emptiest
/// replica (ties to the lowest index). Driven deterministically from one
/// thread via keyed preloads.
#[test]
fn least_loaded_routes_to_the_emptiest_replica() {
    let fleet = ShardedFleet::with_config(
        ShardConfig::new(3)
            .with_policy(RoutePolicy::LeastLoaded)
            .with_flush(FlushPolicy::new(64, Duration::from_secs(5))),
    );
    fleet.deploy("hmd", trained(5, 51)).expect("deploys");
    let keys = keys_per_replica(&fleet, "hmd", 3);
    let row = [0.1, -0.2, 0.3, -0.4];

    // Preload: 3 rows on replica 0, 1 row on replica 1, replica 2 empty.
    let mut pending = Vec::new();
    for _ in 0..3 {
        pending.push(fleet.score_keyed("hmd", keys[0], &row).expect("preload"));
    }
    pending.push(fleet.score_keyed("hmd", keys[1], &row).expect("preload"));
    assert_eq!(fleet.pending_depths("hmd").unwrap(), vec![3, 1, 0]);

    // Keyless scoring under LeastLoaded goes to the empty replica 2; after
    // that, depths are [3, 1, 1] and the tie between 1 and 2 goes to the
    // lower index.
    let a = fleet.score("hmd", &row).expect("routes");
    assert_eq!(a.replica(), 2);
    let b = fleet.score("hmd", &row).expect("routes");
    assert_eq!(b.replica(), 1, "tie at depth 1 goes to the lowest index");
    assert_eq!(fleet.pending_depths("hmd").unwrap(), vec![3, 2, 1]);
    let c = fleet.score("hmd", &row).expect("routes");
    assert_eq!(c.replica(), 2, "replica 2 is emptiest again");
    assert_eq!(fleet.pending_depths("hmd").unwrap(), vec![3, 2, 2]);

    pending.extend([a, b, c]);
    assert_eq!(fleet.flush("hmd").unwrap(), 7);
    for ticket in pending {
        ticket.wait().expect("scores");
    }
    assert_eq!(fleet.stats("hmd").unwrap().windows, 7);
}

/// Deploy and rollback fan out to every replica in lock-step: version
/// stamps stay globally consistent no matter which replica serves, and
/// rolled-back traffic reverts to bit-identical v1 behaviour on all shards.
#[test]
fn deploy_rollback_fan_out_with_consistent_versions() {
    let v1 = trained(9, 61);
    let v2 = trained(15, 62); // different ensemble size => different reports
    let requests = request_matrix(30, 4, 63);
    let direct_v1 = v1.detect_batch(&requests).expect("v1 direct");
    let direct_v2 = v2.detect_batch(&requests).expect("v2 direct");

    let fleet = ShardedFleet::new(3);
    assert_eq!(fleet.deploy("hmd", v1).expect("v1 deploys"), 1);
    assert_eq!(fleet.active_version("hmd").unwrap(), 1);

    // Score through every replica (round robin) on v1.
    for (row, direct) in direct_v1.iter().enumerate() {
        let scored = fleet
            .score("hmd", requests.row(row))
            .and_then(|t| {
                fleet.flush("hmd")?;
                t.wait()
            })
            .expect("scores");
        assert_eq!(scored.version, 1);
        assert_reports_bit_identical(&scored.report, direct, "v1 row");
    }

    assert_eq!(fleet.deploy("hmd", v2).expect("v2 deploys"), 2);
    assert_eq!(fleet.active_version("hmd").unwrap(), 2);
    assert!(fleet.detector_name("hmd").unwrap().contains("15x"));
    let scored = fleet.score_batch("hmd", &requests).expect("v2 batch");
    for (row, s) in scored.iter().enumerate() {
        assert_eq!(s.version, 2);
        assert_reports_bit_identical(&s.report, &direct_v2[row], "v2 row");
    }

    assert_eq!(fleet.rollback("hmd").expect("rolls back"), 1);
    assert_eq!(fleet.active_version("hmd").unwrap(), 1);
    let scored = fleet.score_batch("hmd", &requests).expect("rolled back");
    for (row, s) in scored.iter().enumerate() {
        assert_eq!(s.version, 1);
        assert_reports_bit_identical(&s.report, &direct_v1[row], "rolled-back row");
    }
    assert_eq!(
        fleet.rollback("hmd").unwrap_err(),
        FleetError::NoPreviousVersion { name: "hmd".into() }
    );
}

/// Flush-policy edge under sharding: one replica's tile drains inline at
/// `max_batch` while a lone request on a sibling replica must ride out the
/// full `max_wait` deadline — the replicas' deadlines are independent.
/// Single-threaded and fully deterministic.
#[test]
fn max_wait_fires_on_one_replica_while_another_drains_at_max_batch() {
    let max_wait = Duration::from_millis(40);
    let fleet = ShardedFleet::with_config(
        ShardConfig::new(2)
            .with_policy(RoutePolicy::KeyAffinity)
            .with_flush(FlushPolicy::new(4, max_wait)),
    );
    let detector = trained(7, 71);
    let requests = request_matrix(5, 4, 72);
    let direct = detector.detect_batch(&requests).expect("direct");
    fleet.deploy("hmd", detector).expect("deploys");
    let keys = keys_per_replica(&fleet, "hmd", 2);

    // Replica 0: exactly max_batch rows — the 4th enqueue drains inline.
    let busy: Vec<_> = (0..4)
        .map(|row| {
            fleet
                .score_keyed("hmd", keys[0], requests.row(row))
                .expect("enqueue")
        })
        .collect();
    assert_eq!(
        fleet.replica_stats("hmd").unwrap()[0].windows,
        4,
        "replica 0 drained at max_batch without any flush call"
    );
    for (row, ticket) in busy.into_iter().enumerate() {
        let scored = ticket.try_wait().expect("already drained").expect("scores");
        assert_eq!(scored.replica, 0);
        assert_reports_bit_identical(&scored.report, &direct[row], "max_batch row");
    }

    // Replica 1: one lone row. Nothing else arrives, so its own `wait()`
    // must flush it at the deadline — replica 0's inline drain did not
    // satisfy (or reset) replica 1's clock.
    let start = Instant::now();
    let lonely = fleet
        .score_keyed("hmd", keys[1], requests.row(4))
        .expect("enqueue");
    assert_eq!(lonely.replica(), 1);
    let scored = lonely.wait().expect("deadline flush scores");
    assert!(
        start.elapsed() >= max_wait,
        "the lone request cannot resolve before its replica's deadline"
    );
    assert_reports_bit_identical(&scored.report, &direct[4], "max_wait row");
    let per_replica = fleet.replica_stats("hmd").unwrap();
    assert_eq!(per_replica[0].windows, 4);
    assert_eq!(per_replica[1].windows, 1);
}

/// Rollback racing an in-flight tile: rows enqueued before the rollback
/// finish on the version that accepted them (the rollback's fan-out flush
/// drains the tile on its captured version), while traffic after the
/// rollback scores on the restored version. Seeded and deterministic: the
/// race is driven from one thread via explicit enqueue/rollback ordering,
/// plus a threaded variant streaming rows while the rollback lands.
#[test]
fn rollback_racing_an_in_flight_tile_keeps_attribution() {
    let v1 = trained(7, 81);
    let v2 = trained(11, 82);
    let requests = request_matrix(60, 4, 83);
    let direct_v1 = v1.detect_batch(&requests).expect("v1 direct");
    let direct_v2 = v2.detect_batch(&requests).expect("v2 direct");

    // Deterministic interleaving first: open a tile on v2, then roll back.
    let fleet = Arc::new(ShardedFleet::with_config(
        ShardConfig::new(2).with_flush(FlushPolicy::new(8, Duration::from_secs(5))),
    ));
    fleet.deploy("hmd", v1).expect("v1");
    fleet.deploy("hmd", v2).expect("v2");
    let in_flight: Vec<_> = (0..3)
        .map(|row| fleet.score("hmd", requests.row(row)).expect("enqueue"))
        .collect();
    assert_eq!(fleet.rollback("hmd").expect("rolls back"), 1);
    for (row, ticket) in in_flight.into_iter().enumerate() {
        let scored = ticket
            .try_wait()
            .expect("rollback flushed it")
            .expect("scores");
        assert_eq!(scored.version, 2, "in-flight tile finishes on v2");
        assert_reports_bit_identical(&scored.report, &direct_v2[row], "in-flight row");
    }
    let after = fleet.score_batch("hmd", &requests).expect("post-rollback");
    for (row, s) in after.iter().enumerate() {
        assert_eq!(s.version, 1);
        assert_reports_bit_identical(&s.report, &direct_v1[row], "post-rollback row");
    }

    // Threaded variant: a scorer streams every row while the main thread
    // rolls back mid-stream. Every report must be attributable to exactly
    // the version whose direct output it matches.
    let fleet = Arc::new(ShardedFleet::with_config(
        ShardConfig::new(2).with_flush(FlushPolicy::new(5, Duration::from_millis(10))),
    ));
    fleet.deploy("hmd", trained(7, 81)).expect("v1 again");
    fleet.deploy("hmd", trained(11, 82)).expect("v2 again");
    let scorer = {
        let fleet = Arc::clone(&fleet);
        let requests = requests.clone();
        std::thread::spawn(move || {
            let mut results = Vec::new();
            for row in 0..requests.rows() {
                let ticket = fleet.score("hmd", requests.row(row)).expect("enqueue");
                results.push((row, ticket.wait().expect("scores")));
            }
            results
        })
    };
    std::thread::sleep(Duration::from_millis(2));
    assert_eq!(fleet.rollback("hmd").expect("mid-stream rollback"), 1);
    for (row, scored) in scorer.join().expect("scorer completes") {
        match scored.version {
            2 => assert_reports_bit_identical(&scored.report, &direct_v2[row], "pre-rollback"),
            1 => assert_reports_bit_identical(&scored.report, &direct_v1[row], "post-rollback"),
            other => panic!("unexpected version {other}"),
        }
    }
}

/// Unknown endpoints error uniformly across the whole fleet surface, and a
/// 1-replica fleet attributes every report to replica 0.
#[test]
fn unknown_endpoints_and_single_replica_degeneration() {
    let fleet = ShardedFleet::new(2);
    let missing = FleetError::UnknownEndpoint {
        name: "ghost".into(),
    };
    assert_eq!(fleet.score("ghost", &[0.0]).unwrap_err(), missing);
    assert_eq!(fleet.score_keyed("ghost", 1, &[0.0]).unwrap_err(), missing);
    assert_eq!(fleet.flush("ghost").unwrap_err(), missing);
    assert_eq!(fleet.stats("ghost").unwrap_err(), missing);
    assert_eq!(fleet.replica_stats("ghost").unwrap_err(), missing);
    assert_eq!(fleet.pending_depths("ghost").unwrap_err(), missing);
    assert_eq!(fleet.rollback("ghost").unwrap_err(), missing);
    assert_eq!(fleet.active_version("ghost").unwrap_err(), missing);
    assert_eq!(fleet.replicas("ghost").unwrap_err(), missing);
    assert_eq!(fleet.replica_health("ghost").unwrap_err(), missing);
    assert_eq!(fleet.breaker_states("ghost").unwrap_err(), missing);
    assert!(fleet.endpoints().is_empty());

    // One replica: the direct path's reports, attributed to replica 0.
    let single = ShardedFleet::new(1);
    let detector = trained(5, 91);
    let requests = request_matrix(9, 4, 92);
    let direct = detector.detect_batch(&requests).expect("direct");
    single.deploy("hmd", detector).expect("deploys");
    let scored = single.score_batch("hmd", &requests).expect("scores");
    for (row, s) in scored.iter().enumerate() {
        assert_eq!((s.replica, s.version), (0, 1));
        assert_reports_bit_identical(&s.report, &direct[row], "single-replica row");
    }
}

/// Shadow challengers across shards: the challenger scores the same served
/// tiles on every replica without perturbing served reports or champion
/// stats, `shadow_stats` merges replica-local shadow monitors, and
/// `promote_shadow` publishes the challenger to every replica in lock-step
/// (with `rollback` restoring the old champion afterwards).
#[test]
fn sharded_shadow_merges_stats_and_promotes_in_lock_step() {
    let champion = trained(7, 101);
    let challenger = trained(11, 102);
    let challenger_copy = load(&save(challenger.as_ref()).expect("saves")).expect("loads");
    let requests = request_matrix(24, 4, 103);
    let direct_champion = champion.detect_batch(&requests).expect("direct champion");
    let direct_challenger = challenger_copy
        .detect_batch(&requests)
        .expect("direct challenger");

    let fleet = ShardedFleet::with_config(
        ShardConfig::new(3).with_flush(FlushPolicy::new(4, Duration::from_secs(5))),
    );
    fleet.deploy("hmd", champion).expect("deploys");
    assert_eq!(
        fleet.promote_shadow("hmd").unwrap_err(),
        FleetError::NoShadow { name: "hmd".into() }
    );
    assert!(fleet.shadow_stats("hmd").expect("queries").is_none());

    fleet.deploy_shadow("hmd", challenger).expect("shadows");
    let scored = fleet.score_batch("hmd", &requests).expect("scores");
    for (row, s) in scored.iter().enumerate() {
        assert_eq!(s.version, 1);
        assert_reports_bit_identical(&s.report, &direct_champion[row], "shadowed row");
    }

    // Shadow saw exactly the served rows, split across replicas; the merged
    // snapshot matches a session that scored the same rows directly.
    let shadow = fleet
        .shadow_stats("hmd")
        .expect("queries")
        .expect("present");
    assert_eq!((shadow.rows, shadow.errors), (24, 0));
    let mut expected = MonitorStats::default();
    for report in &direct_challenger {
        expected.record(report);
    }
    assert_eq!(shadow.stats, expected);
    // Champion stats are untouched by the shadow pass.
    assert_eq!(fleet.stats("hmd").expect("stats").windows, 24);

    // Promotion fans out in lock-step: every replica serves the challenger.
    assert_eq!(fleet.promote_shadow("hmd").expect("promotes"), 2);
    assert!(fleet.shadow_stats("hmd").expect("queries").is_none());
    assert_eq!(fleet.active_version("hmd").expect("version"), 2);
    let scored = fleet.score_batch("hmd", &requests).expect("scores");
    for (row, s) in scored.iter().enumerate() {
        assert_eq!(s.version, 2);
        assert_reports_bit_identical(&s.report, &direct_challenger[row], "promoted row");
    }

    // And the ordinary rollback path restores the old champion.
    assert_eq!(fleet.rollback("hmd").expect("rolls back"), 1);
    let scored = fleet.score_batch("hmd", &requests).expect("scores");
    for (row, s) in scored.iter().enumerate() {
        assert_reports_bit_identical(&s.report, &direct_champion[row], "rolled-back row");
    }
}
