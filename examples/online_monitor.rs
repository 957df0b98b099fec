//! Online monitoring through the sharded serving fleet: the deployment
//! scenario the paper motivates, served the way a production DAQ central
//! unit would — replicated back-end units behind one logical endpoint.
//!
//! A trusted HMD is described by a `DetectorConfig`, trained offline, saved,
//! and the *restored* copy — as it would be on the deployment host — is
//! published as a named endpoint of a `ShardedFleet`, which clones it across
//! two replicas through the same codec (bit-identical by the persistence
//! guarantee). The monitored stream submits one signature at a time with
//! `score_keyed`: every burst is one edge-device session, and key-affinity
//! routing pins a session to one replica so its rows micro-batch together
//! (the tile drains inline when the session's `max_batch`-th row lands).
//! Each ordered `ShardTicket` resolves to a version-stamped report that is
//! bit-identical to direct scoring and attributes the replica that served
//! it.
//!
//! Known applications are classified confidently; when a zero-day (an
//! application family the detector has never seen) starts running, its
//! signatures arrive with high entropy and the detector escalates them for
//! forensics instead of silently guessing. Mid-stream the example hot-swaps
//! a stricter model version — the deploy fans out to every replica in
//! lock-step, in-flight requests finish on the version that accepted them,
//! and every printed report carries the version that scored it — then rolls
//! back. The per-endpoint statistics a dashboard would display merge across
//! replicas (`fleet.stats`), with `fleet.replica_stats` as the per-replica
//! breakdown.
//!
//! The closing **supervision drill** exercises the same machinery under
//! misbehaviour: a burst beyond the admission budget sheds with
//! `Overloaded` instead of growing memory; a `FaultInjector`-wrapped
//! detector trips its circuit breaker, degraded requests are escalated to
//! the analyst (the serving-layer analogue of the paper's rejection
//! option) rather than guessed, and after the cooldown a half-open probe
//! restores service; and breaker-aware `LeastLoaded` routing steers a
//! sharded endpoint's traffic around its broken replica.
//!
//! ```text
//! cargo run --release --example online_monitor
//! ```

use hmd::core::detector::{load, save};
use hmd::dvfs::apps::AppCatalog;
use hmd::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::error::Error;
use std::time::Duration;

/// Windows per micro-batch burst: matches the per-replica `max_batch`, so
/// each session's burst drains as one tile through the batch hot path.
const BURST: usize = 3;

/// Replicas behind the endpoint: each has its own tile and statistics.
const REPLICAS: usize = 2;

fn main() -> Result<(), Box<dyn Error>> {
    let builder = DvfsCorpusBuilder::new()
        .with_samples_per_app(20)
        .with_trace_len(384);
    let split = builder.build_split(55)?;

    // Train offline, persist, and deploy the restored pipeline — the
    // save/load round trip is exactly what a model registry would do, and
    // every replica of the sharded fleet serves that one restored instance.
    let config = DetectorConfig::trusted(DetectorBackend::decision_tree())
        .with_num_estimators(25)
        .with_entropy_threshold(0.4);
    let trained = config.fit(&split.train, 13)?;
    let document = save(trained.as_ref())?;

    let fleet = ShardedFleet::with_config(
        ShardConfig::new(REPLICAS)
            .with_policy(RoutePolicy::KeyAffinity)
            .with_flush(FlushPolicy::new(BURST, Duration::from_millis(5))),
    );
    let v1 = fleet.deploy("edge-hmd", load(&document)?)?;
    println!(
        "deployed {} as edge-hmd v{v1} x{} replicas ({} byte model document)\n",
        fleet.detector_name("edge-hmd")?,
        fleet.replicas("edge-hmd")?,
        document.len()
    );

    // Simulate an online stream: alternate known applications with bursts of
    // a zero-day (held-out) application, generating each signature on the fly.
    let catalog = AppCatalog::standard();
    let known_apps: Vec<_> = catalog.known_apps().into_iter().cloned().collect();
    let unknown_apps: Vec<_> = catalog.unknown_apps().into_iter().cloned().collect();
    let mut rng = StdRng::seed_from_u64(99);

    println!(
        "{:<30} {:>3} {:>3} {:>9} {:>8} {:>9}   decision",
        "application", "ver", "rep", "class", "entropy", "P(malware)"
    );
    let mut escalations_on_unknown = 0usize;
    let mut unknown_seen = 0usize;
    for burst in 0..10 {
        // Halfway through the stream, hot-swap a stricter version: a larger
        // ensemble with a tighter escalation threshold. The deploy fans out
        // to both replicas under the generation lock; requests already
        // queued finish on v1, every later report is stamped v2.
        if burst == 5 {
            let stricter = DetectorConfig::trusted(DetectorBackend::decision_tree())
                .with_num_estimators(35)
                .with_entropy_threshold(0.3)
                .fit(&split.train, 14)?;
            let v2 = fleet.deploy("edge-hmd", stricter)?;
            println!(
                "--- hot swap: {} now serves as v{v2} on every replica ---",
                fleet.detector_name("edge-hmd")?
            );
        }

        // One burst = one edge-device session = BURST keyed score() calls.
        // Key affinity pins the session to one replica, so the session's
        // tile drains inline when its BURST-th request lands.
        let session_key = burst as u64;
        let mut in_flight = Vec::new();
        for slot in 0..BURST {
            let step = burst * BURST + slot;
            // every third signature comes from a zero-day application
            let (app, is_unknown) = if step % 3 == 2 {
                (&unknown_apps[step % unknown_apps.len()], true)
            } else {
                (&known_apps[step % known_apps.len()], false)
            };
            let signature = builder.simulate_signature(app, &mut rng);
            let ticket = fleet.score_keyed("edge-hmd", session_key, &signature)?;
            in_flight.push((app.name.clone(), app.label, is_unknown, ticket));
        }
        for (name, label, is_unknown, ticket) in in_flight {
            let scored = ticket.wait()?;
            let decision = match scored.report.decision {
                Decision::Accept(label) => format!("accept ({label})"),
                Decision::Escalate => "ESCALATE to analyst".to_string(),
            };
            if is_unknown {
                unknown_seen += 1;
                if scored.report.decision.is_escalation() {
                    escalations_on_unknown += 1;
                }
            }
            println!(
                "{:<30} {:>3} {:>3} {:>9} {:>8.3} {:>9.2}   {}",
                name,
                format!("v{}", scored.version),
                format!("r{}", scored.replica),
                label.to_string(),
                scored.report.prediction.entropy,
                scored.report.prediction.malware_vote_fraction,
                decision
            );
        }
    }

    // The dashboard view: per-replica statistics and the merged endpoint
    // view a fleet-wide alerting rule would read.
    let stats = fleet.stats("edge-hmd")?;
    println!(
        "\nendpoint edge-hmd: {} windows, {} accepted ({} malware / {} benign), {} escalated",
        stats.windows,
        stats.accepted,
        stats.accepted_malware,
        stats.accepted_benign,
        stats.escalated
    );
    println!(
        "entropy: mean {:.3}, min {:.3}, max {:.3}; escalation rate {:.1}%",
        stats.mean_entropy(),
        stats.min_entropy,
        stats.max_entropy,
        100.0 * stats.escalation_rate()
    );
    for (replica, rs) in fleet.replica_stats("edge-hmd")?.iter().enumerate() {
        println!(
            "  replica {replica}: {} windows, {:.1}% escalated",
            rs.windows,
            100.0 * rs.escalation_rate()
        );
    }
    println!("zero-day signatures escalated: {escalations_on_unknown}/{unknown_seen}");

    // Operations can always back out: restore the previous version on
    // every replica at once.
    let restored = fleet.rollback("edge-hmd")?;
    println!(
        "rolled back to v{restored}: {} serves again on all {} replicas",
        fleet.detector_name("edge-hmd")?,
        fleet.replicas("edge-hmd")?
    );

    let probe_row = builder.simulate_signature(&known_apps[0], &mut rng);
    supervision_drill(&document, &probe_row)?;
    Ok(())
}

/// The serving layer under misbehaviour: overload sheds, breakers trip and
/// recover, routing steers around broken replicas. Every fault here is
/// scheduled by a deterministic [`FaultPlan`], so the drill plays out the
/// same way on every run.
fn supervision_drill(document: &str, probe_row: &[f64]) -> Result<(), Box<dyn Error>> {
    use hmd::core::detector::load;

    println!("\n--- supervision drill ---");

    // Overload: a 4-row admission budget on a big tile. The burst's first
    // four requests are admitted; the rest shed with `Overloaded` *before*
    // their rows are copied anywhere — overload costs the caller an error,
    // never the fleet memory.
    let gate = ShardedFleet::with_config(
        ShardConfig::new(1)
            .with_flush(FlushPolicy::new(64, Duration::from_secs(1)))
            .with_admission(AdmissionPolicy::new(4)),
    );
    gate.deploy("edge-hmd", load(document)?)?;
    let mut admitted = Vec::new();
    for _ in 0..7 {
        match gate.score("edge-hmd", probe_row) {
            Ok(ticket) => admitted.push(ticket),
            Err(FleetError::Overloaded { depth, limit }) => {
                println!("overload: shed at depth {depth}/{limit}");
            }
            Err(other) => return Err(other.into()),
        }
    }
    gate.flush("edge-hmd")?;
    for ticket in admitted {
        ticket.wait()?;
    }
    let health = gate.replica_health("edge-hmd")?[0];
    println!(
        "overload: 4 admitted + {} shed; budget released, {} rows pending\n",
        health.shed_overload, health.pending_rows
    );

    // Breaker: a replica that fails its first two calls. Threshold 2 trips
    // it to Open; under `EscalateUncertain` the shed requests are answered
    // with a synthetic maximum-uncertainty escalation — the paper's
    // rejection option applied to infrastructure faults: when the detector
    // cannot be trusted, hand the window to the analyst, don't guess. Fault
    // plans are deliberately not persistable; a 1-replica fleet serves the
    // deployed detector itself, so plain `deploy` takes the injector.
    let flaky = FaultInjector::new(load(document)?, FaultPlan::new().fail_call(1).fail_call(2));
    let solo = ShardedFleet::with_config(
        ShardConfig::new(1)
            .with_flush(FlushPolicy::new(1, Duration::from_secs(1)))
            .with_breaker(
                BreakerPolicy::new(2, Duration::from_millis(50))
                    .with_fallback(FallbackPolicy::EscalateUncertain),
            ),
    );
    solo.deploy("edge-hmd", Box::new(flaky))?;
    for call in 1..=2 {
        let err = solo.score("edge-hmd", probe_row)?.wait().unwrap_err();
        println!("breaker: call {call} failed ({err})");
    }
    println!(
        "breaker: state {:?} after 2 consecutive failures ({} trip recorded)",
        solo.breaker_states("edge-hmd")?[0],
        solo.replica_health("edge-hmd")?[0].breaker_trips
    );
    let degraded = solo.score("edge-hmd", probe_row)?.wait()?;
    println!(
        "breaker: degraded answer — {:?}, entropy {} (excluded from monitor stats)",
        degraded.report.decision, degraded.report.prediction.entropy
    );
    std::thread::sleep(Duration::from_millis(60)); // let the cooldown elapse
    let recovered = solo.score("edge-hmd", probe_row)?.wait()?;
    println!(
        "breaker: half-open probe succeeded — state {:?}, real report {:?}\n",
        solo.breaker_states("edge-hmd")?[0],
        recovered.report.decision
    );

    // Routing: the same flaky-first-call model behind a 2-replica
    // endpoint. Plain `deploy` would share one injector (and its plan)
    // between both replicas, so `deploy_replicas` gives only replica 0 the
    // faulty one. After replica 0 trips, breaker-aware LeastLoaded steers
    // every request to the healthy replica.
    let drill = ShardedFleet::with_config(
        ShardConfig::new(REPLICAS)
            .with_policy(RoutePolicy::LeastLoaded)
            .with_flush(FlushPolicy::new(1, Duration::from_secs(1)))
            .with_breaker(BreakerPolicy::new(1, Duration::from_millis(250))),
    );
    drill.deploy_replicas(
        "edge-hmd",
        vec![
            Box::new(FaultInjector::new(
                load(document)?,
                FaultPlan::new().fail_call(1),
            )),
            load(document)?,
        ],
    )?;
    let first = drill.score("edge-hmd", probe_row)?;
    println!(
        "routing: replica {} failed its first call ({})",
        first.replica(),
        first.wait().unwrap_err()
    );
    for _ in 0..3 {
        let scored = drill.score("edge-hmd", probe_row)?.wait()?;
        println!(
            "routing: served by replica {} ({:?})",
            scored.replica, scored.report.decision
        );
    }
    println!(
        "routing: breaker states {:?}",
        drill.breaker_states("edge-hmd")?
    );
    Ok(())
}
