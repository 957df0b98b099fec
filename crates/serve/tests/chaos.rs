//! Seeded chaos tests: the serving layer under scheduled faults.
//!
//! Every test drives a fleet (one replica unless the test is about routing
//! between replicas) with a deterministic [`FaultPlan`] (fail-nth,
//! fail-after, slow-call, width-corrupt) and asserts the supervision
//! contracts: overload sheds with `Overloaded` instead of growing memory,
//! breakers trip and recover through half-open probes, degradation serves
//! synthetic escalations without polluting monitor statistics, the
//! background flusher fires `max_wait` with no waiter, breaker-aware
//! routing steers around open replicas, and rows that survive the chaos
//! stay bit-identical to direct `detect_batch` scoring.

use hmd_core::detector::{Detector, DetectorBackend, DetectorConfig, DetectorExt, MonitorStats};
use hmd_data::{Dataset, Label, Matrix};
use hmd_serve::{
    degraded_escalation, AdmissionPolicy, BreakerPolicy, BreakerState, FallbackPolicy,
    FaultInjector, FaultPlan, FleetError, FlushPolicy, RoutePolicy, ShardConfig, ShardTicket,
    ShardedFleet, ShardedReport,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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

fn request_matrix(rows: usize, features: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<f64> = (0..rows * features)
        .map(|_| rng.gen_range(-3.0..3.0))
        .collect();
    Matrix::from_vec(rows, features, data).unwrap()
}

/// Seeded training is deterministic: calling this twice with the same
/// arguments produces bit-identical detectors, which is how the tests get
/// an unwrapped reference copy of the model a `FaultInjector` wraps.
fn trained(num_estimators: usize, seed: u64) -> Box<dyn Detector> {
    DetectorConfig::trusted(DetectorBackend::random_forest())
        .with_num_estimators(num_estimators)
        .with_entropy_threshold(0.4)
        .fit(&blobs(140, 4, 11), seed)
        .expect("training succeeds")
}

fn faulty(num_estimators: usize, seed: u64, plan: FaultPlan) -> Box<dyn Detector> {
    Box::new(FaultInjector::new(trained(num_estimators, seed), plan))
}

fn assert_bit_identical(
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

/// Polls a ticket without ever blocking in `wait`, so nothing caller-side
/// can drive the flush — only the background flusher can resolve it.
fn poll_until_resolved(
    mut ticket: ShardTicket,
    budget: Duration,
) -> Result<ShardedReport, FleetError> {
    let deadline = Instant::now() + budget;
    loop {
        ticket = match ticket.try_wait() {
            Ok(result) => return result,
            Err(ticket) => ticket,
        };
        assert!(
            Instant::now() < deadline,
            "background flusher never fired within {budget:?}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The deadline flusher fires `max_wait` with **no** blocked waiter: a lone
/// request on a huge tile, observed only through non-blocking `try_wait`
/// polls, resolves on its own — and still bit-identically to direct
/// scoring.
#[test]
fn background_flusher_fires_max_wait_without_a_waiter() {
    let detector = trained(9, 71);
    let requests = request_matrix(1, 4, 72);
    let direct = detector.detect_batch(&requests).expect("direct");

    let max_wait = Duration::from_millis(30);
    let fleet =
        ShardedFleet::with_config(ShardConfig::new(1).with_flush(FlushPolicy::new(4096, max_wait)));
    fleet.deploy("hmd", detector).expect("deploys");

    let start = Instant::now();
    let ticket = fleet.score("hmd", requests.row(0)).expect("enqueue");
    let scored = poll_until_resolved(ticket, Duration::from_secs(5)).expect("batch scores");
    assert!(
        start.elapsed() >= max_wait,
        "the flusher cannot fire before the tile deadline"
    );
    assert_bit_identical(&scored.report, &direct[0], "unwaited lone request");
    let health = fleet.replica_health("hmd").expect("health")[0];
    assert!(
        health.expired_flushes >= 1,
        "the flush must be attributed to the supervisor, got {health:?}"
    );
    assert_eq!(health.pending_rows, 0, "the admission slot was released");
}

/// The same guarantee across a sharded fleet: replicas' tiles are covered
/// by the one fleet-wide flusher thread.
#[test]
fn background_flusher_covers_every_shard_replica() {
    let fleet = ShardedFleet::with_config(
        ShardConfig::new(3).with_flush(FlushPolicy::new(4096, Duration::from_millis(25))),
    );
    fleet.deploy("hmd", trained(9, 73)).expect("deploys");

    // Round-robin spreads three requests across all three replicas, each
    // opening its own tile with its own deadline.
    let tickets: Vec<ShardTicket> = (0..3)
        .map(|i| {
            fleet
                .score("hmd", request_matrix(1, 4, 80 + i).row(0))
                .expect("enqueue")
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut pending: Vec<ShardTicket> = tickets;
    while !pending.is_empty() {
        assert!(Instant::now() < deadline, "a replica tile never flushed");
        pending = pending
            .into_iter()
            .filter_map(|ticket| match ticket.try_wait() {
                Ok(result) => {
                    result.expect("scores");
                    None
                }
                Err(ticket) => Some(ticket),
            })
            .collect();
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(fleet.stats("hmd").expect("stats").windows, 3);
}

/// A breaker cooldown too large to represent keeps a tripped breaker Open
/// for good, and computing it must not panic: the trip happens inside a
/// drain, which here runs on the background flusher. A second endpoint on
/// the same fleet proves the flusher survived by still draining its tile.
#[test]
fn unrepresentable_cooldown_trips_without_killing_the_flusher() {
    let fleet = ShardedFleet::with_config(
        ShardConfig::new(1)
            .with_flush(FlushPolicy::new(4096, Duration::from_millis(10)))
            .with_breaker(BreakerPolicy::new(1, Duration::MAX)),
    );
    fleet
        .deploy("broken", faulty(9, 96, FaultPlan::new().fail_call(1)))
        .expect("deploys");
    fleet.deploy("healthy", trained(9, 97)).expect("deploys");
    let requests = request_matrix(2, 4, 98);
    let direct = trained(9, 97).detect_batch(&requests).expect("direct");

    // Only the flusher drives this tile; its failed drain trips the breaker
    // before the tickets resolve.
    let broken = fleet.score("broken", requests.row(0)).expect("enqueue");
    let failed = poll_until_resolved(broken, Duration::from_secs(5));
    assert!(matches!(failed, Err(FleetError::Detector { .. })));
    assert_eq!(
        fleet.breaker_states("broken").expect("states"),
        vec![BreakerState::Open]
    );
    assert_eq!(
        fleet.score("broken", requests.row(0)).unwrap_err(),
        FleetError::CircuitOpen
    );

    let healthy = fleet.score("healthy", requests.row(1)).expect("enqueue");
    let scored = poll_until_resolved(healthy, Duration::from_secs(5)).expect("scores");
    assert_bit_identical(&scored.report, &direct[1], "row drained by the flusher");
    assert!(fleet.replica_health("healthy").expect("health")[0].expired_flushes >= 1);
}

/// Admission sheds explicitly at the row budget: enqueues beyond it return
/// `Overloaded` without copying anything, and draining re-admits.
#[test]
fn admission_budget_sheds_and_releases_under_burst() {
    let fleet = ShardedFleet::with_config(
        ShardConfig::new(1)
            .with_flush(FlushPolicy::new(4096, Duration::from_secs(10)))
            .with_admission(AdmissionPolicy::new(8)),
    );
    fleet.deploy("hmd", trained(9, 74)).expect("deploys");

    let requests = request_matrix(20, 4, 75);
    let mut admitted = Vec::new();
    let mut shed = 0;
    for row in 0..requests.rows() {
        match fleet.score("hmd", requests.row(row)) {
            Ok(ticket) => admitted.push(ticket),
            Err(FleetError::Overloaded { depth, limit }) => {
                assert_eq!(limit, 8);
                assert_eq!(depth, 8, "shedding starts exactly at the budget");
                shed += 1;
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert_eq!(admitted.len(), 8, "the budget bounds admitted rows");
    assert_eq!(shed, 12);
    let health = fleet.replica_health("hmd").expect("health")[0];
    assert_eq!(health.pending_rows, 8);
    assert_eq!(health.shed_overload, 12);

    // Draining releases every slot; the endpoint admits again.
    assert_eq!(fleet.flush("hmd").expect("flush"), 8);
    for ticket in admitted {
        assert!(ticket.wait().is_ok());
    }
    assert_eq!(
        fleet.replica_health("hmd").expect("health")[0].pending_rows,
        0
    );
    assert!(fleet.score("hmd", requests.row(0)).is_ok());
}

/// The full breaker arc, deterministically: three scheduled failures trip
/// the breaker, a zero cooldown lets the next request probe half-open, the
/// probe succeeds, and the endpoint serves bit-identically again.
#[test]
fn breaker_trips_on_consecutive_faults_and_recovers_via_probe() {
    let plan = FaultPlan::new().fail_call(1).fail_call(2).fail_call(3);
    let injector = FaultInjector::new(trained(9, 76), plan);
    let counters = injector.counters();
    let fleet = ShardedFleet::with_config(
        ShardConfig::new(1)
            // max_batch 1: every enqueue drains inline, so call numbers map
            // 1:1 onto scores and the schedule is exact.
            .with_flush(FlushPolicy::new(1, Duration::from_secs(10)))
            .with_breaker(BreakerPolicy::new(3, Duration::ZERO)),
    );
    fleet.deploy("hmd", Box::new(injector)).expect("deploys");

    let requests = request_matrix(6, 4, 77);
    for row in 0..3 {
        let ticket = fleet.score("hmd", requests.row(row)).expect("admitted");
        assert!(
            matches!(ticket.wait(), Err(FleetError::Detector { .. })),
            "scheduled fault surfaces as a detector error"
        );
    }
    let health = fleet.replica_health("hmd").expect("health")[0];
    assert_eq!(health.breaker, BreakerState::Open);
    assert_eq!(health.breaker_trips, 1);

    // Zero cooldown: the very next request becomes the half-open probe;
    // call 4 is clean, so it closes the breaker.
    let direct = trained(9, 76).detect_batch(&requests).expect("direct");
    let probe = fleet.score("hmd", requests.row(3)).expect("probe admitted");
    let scored = probe.wait().expect("probe succeeds");
    assert_bit_identical(&scored.report, &direct[3], "probe row");
    assert_eq!(
        fleet.breaker_states("hmd").expect("states")[0],
        BreakerState::Closed
    );
    for (row, expected) in direct.iter().enumerate().skip(4) {
        let scored = fleet
            .score("hmd", requests.row(row))
            .expect("recovered")
            .wait()
            .expect("scores");
        assert_bit_identical(&scored.report, expected, "post-recovery row");
    }
    assert_eq!(counters.calls(), 6);
    assert_eq!(counters.injected(), 3);
    // Only the three clean drains fed the monitor statistics.
    assert_eq!(fleet.stats("hmd").expect("stats").windows, 3);
}

/// While Open (cooldown not elapsed), requests shed instantly with
/// `CircuitOpen` — no tile, no drain, no detector call.
#[test]
fn open_breaker_fast_sheds_with_circuit_open() {
    let injector = FaultInjector::new(trained(9, 78), FaultPlan::new().fail_call(1));
    let counters = injector.counters();
    let fleet = ShardedFleet::with_config(
        ShardConfig::new(1)
            .with_flush(FlushPolicy::new(1, Duration::from_secs(10)))
            // A 1-failure threshold and a long cooldown keep the breaker
            // deterministically Open for the rest of the test.
            .with_breaker(BreakerPolicy::new(1, Duration::from_secs(600))),
    );
    fleet.deploy("hmd", Box::new(injector)).expect("deploys");

    let requests = request_matrix(4, 4, 79);
    let ticket = fleet.score("hmd", requests.row(0)).expect("admitted");
    assert!(matches!(ticket.wait(), Err(FleetError::Detector { .. })));
    assert_eq!(
        fleet.breaker_states("hmd").expect("states")[0],
        BreakerState::Open
    );

    for row in 1..4 {
        assert_eq!(
            fleet.score("hmd", requests.row(row)).unwrap_err(),
            FleetError::CircuitOpen
        );
    }
    // The detector saw exactly one call: shedding never reached it.
    assert_eq!(counters.calls(), 1);
    let health = fleet.replica_health("hmd").expect("health")[0];
    assert_eq!(health.shed_circuit, 3);
    assert_eq!(health.pending_rows, 0, "shed requests occupy no budget");
    // The batch path sheds identically.
    assert_eq!(
        fleet.score_batch("hmd", &requests).unwrap_err(),
        FleetError::CircuitOpen
    );
}

/// `EscalateUncertain` degrades instead of rejecting: shed requests resolve
/// immediately to the synthetic escalation report, which never touches the
/// endpoint's monitor statistics (infinite entropy would poison the
/// extremes forever).
#[test]
fn escalate_uncertain_serves_degraded_reports_without_polluting_stats() {
    let injector = FaultInjector::new(trained(9, 81), FaultPlan::new().fail_call(1));
    let fleet = ShardedFleet::with_config(
        ShardConfig::new(1)
            .with_flush(FlushPolicy::new(1, Duration::from_secs(10)))
            .with_breaker(
                BreakerPolicy::new(1, Duration::from_secs(600))
                    .with_fallback(FallbackPolicy::EscalateUncertain),
            ),
    );
    fleet.deploy("hmd", Box::new(injector)).expect("deploys");

    let requests = request_matrix(3, 4, 82);
    let ticket = fleet.score("hmd", requests.row(0)).expect("admitted");
    assert!(matches!(ticket.wait(), Err(FleetError::Detector { .. })));

    // Shed requests now succeed — degraded. The ticket resolves instantly
    // (try_wait, not wait: nothing is queued behind it).
    let degraded = fleet
        .score("hmd", requests.row(1))
        .expect("degraded ticket")
        .try_wait()
        .expect("pre-resolved")
        .expect("synthetic report");
    assert_eq!(degraded.report, degraded_escalation());
    assert!(degraded.report.prediction.entropy.is_infinite());
    let batch = fleet.score_batch("hmd", &requests).expect("degraded batch");
    assert_eq!(batch.len(), 3);
    for scored in &batch {
        assert_eq!(scored.report, degraded_escalation());
    }

    // Monitor statistics saw zero rows: the failed drain recorded nothing
    // and the degraded rows are deliberately excluded.
    assert_eq!(fleet.stats("hmd").expect("stats"), MonitorStats::default());
    let health = fleet.replica_health("hmd").expect("health")[0];
    assert_eq!(health.degraded_rows, 4, "1 enqueue + 3 batch rows degraded");
    assert_eq!(health.shed_circuit, 2, "one shed enqueue + one shed batch");
}

/// A detector returning fewer reports than rows (the width-corrupt fault)
/// fails the whole batch as a contract violation — every ticket errors, no
/// panic, no misaligned results — and the next tile scores cleanly.
#[test]
fn width_corrupt_fails_the_batch_instead_of_panicking() {
    let fleet = ShardedFleet::with_config(
        ShardConfig::new(1).with_flush(FlushPolicy::new(2, Duration::from_secs(10))),
    );
    fleet
        .deploy("hmd", faulty(9, 83, FaultPlan::new().corrupt_width(1)))
        .expect("deploys");

    let requests = request_matrix(4, 4, 84);
    let a = fleet.score("hmd", requests.row(0)).expect("enqueue");
    let b = fleet.score("hmd", requests.row(1)).expect("enqueue");
    for ticket in [a, b] {
        match ticket.wait() {
            Err(FleetError::Detector { message }) => {
                assert!(
                    message.contains("1 reports for a 2-row batch"),
                    "the contract violation is named: {message}"
                );
            }
            other => panic!("expected a failed batch, got {other:?}"),
        }
    }
    // Call 2 is clean: the endpoint keeps serving, bit-identically.
    let direct = trained(9, 83).detect_batch(&requests).expect("direct");
    let c = fleet.score("hmd", requests.row(2)).expect("enqueue");
    let d = fleet.score("hmd", requests.row(3)).expect("enqueue");
    assert_bit_identical(&c.wait().expect("clean").report, &direct[2], "row 2");
    assert_bit_identical(&d.wait().expect("clean").report, &direct[3], "row 3");
    assert_eq!(fleet.stats("hmd").expect("stats").windows, 2);
    assert_eq!(
        fleet.replica_health("hmd").expect("health")[0].pending_rows,
        0
    );
}

/// Mixed fault schedule over a tiled burst: tiles hit by faults fail their
/// tickets, every surviving tile's rows stay bit-identical to direct
/// scoring, and a slow-call only delays — it never corrupts.
#[test]
fn surviving_rows_stay_bit_identical_under_mixed_faults() {
    let plan = FaultPlan::new()
        .fail_call(2)
        .corrupt_width(4)
        .slow_call(3, Duration::from_millis(15));
    let fleet = ShardedFleet::with_config(
        ShardConfig::new(1).with_flush(FlushPolicy::new(4, Duration::from_secs(10))),
    );
    fleet.deploy("hmd", faulty(15, 85, plan)).expect("deploys");

    let requests = request_matrix(16, 4, 86);
    let direct = trained(15, 85).detect_batch(&requests).expect("direct");

    // 16 single-row enqueues drain inline as four 4-row tiles, so rows 0-3
    // are batch call 1, rows 4-7 call 2 (fails), rows 8-11 call 3 (slow),
    // rows 12-15 call 4 (width-corrupt).
    let tickets: Vec<ShardTicket> = (0..requests.rows())
        .map(|row| fleet.score("hmd", requests.row(row)).expect("enqueue"))
        .collect();
    let mut failed = 0;
    for (row, ticket) in tickets.into_iter().enumerate() {
        let tile = row / 4 + 1;
        match ticket.wait() {
            Ok(scored) => {
                assert!(tile == 1 || tile == 3, "row {row} survived tile {tile}");
                assert_bit_identical(&scored.report, &direct[row], &format!("row {row}"));
            }
            Err(FleetError::Detector { .. }) => {
                assert!(tile == 2 || tile == 4, "row {row} failed in tile {tile}");
                failed += 1;
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert_eq!(failed, 8, "exactly the two faulted tiles failed");
    assert_eq!(fleet.stats("hmd").expect("stats").windows, 8);
}

/// Breaker-aware `LeastLoaded`: a replica whose breaker is Open is skipped,
/// so traffic flows to healthy siblings and scores bit-identically.
#[test]
fn least_loaded_routing_skips_open_replicas() {
    let fleet = ShardedFleet::with_config(
        ShardConfig::new(2)
            .with_policy(RoutePolicy::LeastLoaded)
            .with_flush(FlushPolicy::new(1, Duration::from_secs(10)))
            .with_breaker(BreakerPolicy::new(1, Duration::from_secs(600))),
    );
    // Replica 0 breaks on its first call; replica 1 is the same model,
    // unwrapped. Plain `deploy` would share one injector between both
    // replicas, so `deploy_replicas` gives only replica 0 the faulty one.
    fleet
        .deploy_replicas(
            "hmd",
            vec![faulty(9, 87, FaultPlan::new().fail_call(1)), trained(9, 87)],
        )
        .expect("replica deploy");

    let requests = request_matrix(6, 4, 88);
    let direct = trained(9, 87).detect_batch(&requests).expect("direct");

    // All tiles empty: least-loaded ties to replica 0, which fails and
    // trips its breaker.
    let first = fleet.score("hmd", requests.row(0)).expect("routed");
    assert_eq!(first.replica(), 0);
    assert!(matches!(first.wait(), Err(FleetError::Detector { .. })));
    assert_eq!(
        fleet.breaker_states("hmd").expect("states"),
        vec![BreakerState::Open, BreakerState::Closed]
    );

    // Every subsequent request skips the open replica.
    for (row, expected) in direct.iter().enumerate().skip(1) {
        let ticket = fleet.score("hmd", requests.row(row)).expect("routed");
        assert_eq!(ticket.replica(), 1, "open replica 0 must be skipped");
        let scored = ticket.wait().expect("healthy replica scores");
        assert_bit_identical(&scored.report, expected, &format!("row {row}"));
    }
    let health = fleet.replica_health("hmd").expect("health");
    assert_eq!(health[0].breaker_trips, 1);
    assert_eq!(health[1].breaker_trips, 0);
}

/// When **every** replica is shedding, `LeastLoaded` falls back to
/// round-robin so degraded fallbacks (and, later, cooldown probes) spread
/// across replicas instead of hammering one.
#[test]
fn all_open_replicas_fall_back_to_round_robin_degradation() {
    let fleet = ShardedFleet::with_config(
        ShardConfig::new(2)
            .with_policy(RoutePolicy::LeastLoaded)
            .with_flush(FlushPolicy::new(1, Duration::from_secs(10)))
            .with_breaker(
                BreakerPolicy::new(1, Duration::from_secs(600))
                    .with_fallback(FallbackPolicy::EscalateUncertain),
            ),
    );
    fleet
        .deploy_replicas(
            "hmd",
            vec![
                faulty(9, 89, FaultPlan::new().fail_call(1)),
                faulty(9, 89, FaultPlan::new().fail_call(1)),
            ],
        )
        .expect("replica deploy");

    let requests = request_matrix(6, 4, 90);
    // Trip both breakers: replica 0 first, then (0 skipped) replica 1.
    for row in 0..2 {
        let ticket = fleet.score("hmd", requests.row(row)).expect("routed");
        assert_eq!(ticket.replica(), row);
        assert!(matches!(ticket.wait(), Err(FleetError::Detector { .. })));
    }
    assert_eq!(
        fleet.breaker_states("hmd").expect("states"),
        vec![BreakerState::Open, BreakerState::Open]
    );

    // Both Open under EscalateUncertain: requests still get answers —
    // degraded — and the round-robin fallback alternates replicas.
    let mut replicas_seen = Vec::new();
    for row in 2..6 {
        let ticket = fleet.score("hmd", requests.row(row)).expect("degraded");
        replicas_seen.push(ticket.replica());
        let scored = ticket
            .try_wait()
            .expect("pre-resolved")
            .expect("synthetic report");
        assert_eq!(scored.report, degraded_escalation());
    }
    replicas_seen.sort_unstable();
    assert_eq!(replicas_seen, vec![0, 0, 1, 1], "degradation spreads");
    let health = fleet.replica_health("hmd").expect("health");
    assert_eq!(health[0].degraded_rows + health[1].degraded_rows, 4);
    // The merged monitor statistics saw nothing: every row either failed
    // its drain or was answered synthetically.
    assert_eq!(fleet.stats("hmd").expect("stats"), MonitorStats::default());
}

/// Deploy and rollback under injected faults: a faulty v2 fails its rows
/// (without tripping the default breaker), rollback restores v1, and
/// post-rollback traffic is bit-identical to v1's direct scoring.
#[test]
fn deploy_rollback_under_faults_stays_bit_identical() {
    let fleet = ShardedFleet::with_config(
        ShardConfig::new(2).with_flush(FlushPolicy::new(1, Duration::from_secs(10))),
    );
    let requests = request_matrix(8, 4, 92);
    let direct_v1 = trained(9, 91).detect_batch(&requests).expect("v1 direct");

    assert_eq!(fleet.deploy("hmd", trained(9, 91)).expect("v1"), 1);
    // v2: every call fails, on both replicas. Two failing rows per replica
    // stay below the default 5-failure threshold — this is a model-quality
    // incident, not a breaker incident, and rollback is the remedy.
    assert_eq!(
        fleet
            .deploy_replicas(
                "hmd",
                vec![
                    faulty(15, 93, FaultPlan::new().fail_after(1)),
                    faulty(15, 93, FaultPlan::new().fail_after(1)),
                ],
            )
            .expect("v2"),
        2
    );
    for row in 0..4 {
        let ticket = fleet.score("hmd", requests.row(row)).expect("routed");
        assert!(matches!(ticket.wait(), Err(FleetError::Detector { .. })));
    }
    assert_eq!(
        fleet.breaker_states("hmd").expect("states"),
        vec![BreakerState::Closed, BreakerState::Closed],
        "sub-threshold failures must not trip the breakers"
    );

    // Rollback fans out to both replicas; traffic reverts to v1 bits.
    assert_eq!(fleet.rollback("hmd").expect("rollback"), 1);
    assert_eq!(fleet.active_version("hmd").expect("version"), 1);
    for (row, expected) in direct_v1.iter().enumerate() {
        let scored = fleet
            .score("hmd", requests.row(row))
            .expect("routed")
            .wait()
            .expect("v1 scores");
        assert_eq!(scored.version, 1);
        assert_bit_identical(&scored.report, expected, &format!("row {row}"));
    }
}

/// A slow detector delays its tile but `wait_deadline` bounds the caller:
/// the impatient waiter times out while the batch completes for everyone
/// else.
#[test]
fn slow_calls_delay_but_wait_deadline_bounds_the_caller() {
    let plan = FaultPlan::new().slow_call(1, Duration::from_millis(120));
    let fleet = ShardedFleet::with_config(
        ShardConfig::new(1).with_flush(FlushPolicy::new(2, Duration::from_secs(10))),
    );
    fleet.deploy("hmd", faulty(9, 94, plan)).expect("deploys");

    let requests = request_matrix(2, 4, 95);
    let direct = trained(9, 94).detect_batch(&requests).expect("direct");
    let impatient = fleet.score("hmd", requests.row(0)).expect("enqueue");
    // The second enqueue fills the 2-row tile and drains it inline — which
    // stalls in the injected 120 ms delay. Run it on a helper thread so the
    // impatient caller can time out meanwhile.
    let drainer = {
        let row: Vec<f64> = requests.row(1).to_vec();
        let fleet = std::sync::Arc::new(fleet);
        let handle = std::sync::Arc::clone(&fleet);
        (
            fleet,
            std::thread::spawn(move || {
                handle
                    .score("hmd", &row)
                    .expect("enqueue drains inline")
                    .wait()
            }),
        )
    };
    let err = impatient
        .wait_deadline(Duration::from_millis(20))
        .unwrap_err();
    assert_eq!(
        err,
        FleetError::DeadlineExceeded {
            timeout: Duration::from_millis(20)
        }
    );
    // The batch itself was never cancelled: the patient caller's row (and
    // the whole tile) scored bit-identically despite the delay.
    let scored = drainer.1.join().expect("drainer thread").expect("scores");
    assert_bit_identical(&scored.report, &direct[1], "patient row");
    assert_eq!(drainer.0.stats("hmd").expect("stats").windows, 2);
}
