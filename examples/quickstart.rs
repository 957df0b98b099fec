//! Quickstart: train a trusted (uncertainty-aware) HMD on simulated DVFS
//! signatures and compare it with the conventional untrusted detector — both
//! served through the unified `Detector` API.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use hmd::core::detector::{load, save};
use hmd::prelude::*;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    // 1. Simulate a DVFS signature corpus and split it the way the paper does:
    //    train / known-test / unknown (zero-day proxy applications).
    let split = DvfsCorpusBuilder::new()
        .with_samples_per_app(20)
        .with_trace_len(384)
        .build_split(42)?;
    println!(
        "corpus: {} train, {} known-test, {} unknown signatures ({} features)",
        split.train.len(),
        split.test_known.len(),
        split.unknown.len(),
        split.train.num_features()
    );

    // 2. Describe both pipelines as detector configs sharing one backend —
    //    a bagging ensemble of decision trees behind a standard-scaling
    //    front end versus a single black-box classifier — and compile each
    //    description into a `Box<dyn Detector>`.
    let backend = DetectorBackend::decision_tree();
    let trusted = DetectorConfig::trusted(backend.clone())
        .with_num_estimators(25)
        .with_entropy_threshold(0.4)
        .fit(&split.train, 7)?;
    let untrusted = DetectorConfig::untrusted(backend).fit(&split.train, 7)?;

    // 3. On the known test set the two agree and the accuracy is high. The
    //    batch path scores the whole test matrix in one call.
    for detector in [&trusted, &untrusted] {
        let reports = detector.detect_batch(split.test_known.features())?;
        let labels: Vec<Label> = reports.iter().map(|r| r.prediction.label).collect();
        println!(
            "known test F1 ({}): {:.3}",
            detector.name(),
            f1_score(split.test_known.labels(), &labels)
        );
    }

    // 4. On *unknown* applications the untrusted HMD silently guesses, while
    //    the trusted HMD reports high uncertainty and escalates. Views make
    //    scoring a sub-range of an existing matrix zero-copy.
    let unknown = split.unknown.features();
    let reports = trusted.detect_batch(unknown)?;
    let escalated = reports
        .iter()
        .filter(|r| r.decision.is_escalation())
        .count();
    println!(
        "unknown (zero-day proxy) signatures escalated by the trusted HMD: {}/{} ({:.1}%)",
        escalated,
        split.unknown.len(),
        100.0 * escalated as f64 / split.unknown.len() as f64
    );
    println!("the untrusted baseline emitted a (blind) verdict for every one of them");
    let front_half = trusted.detect_batch(unknown.rows_view(0..unknown.rows() / 2))?;
    assert_eq!(front_half, reports[..unknown.rows() / 2]);

    // 5. Deployment surface: both pipelines serve behind a 1-replica
    //    ShardedFleet as named, versioned endpoints with per-endpoint
    //    statistics. Results come back in a version-stamped envelope and are
    //    bit-identical to the direct calls above.
    let fleet = ShardedFleet::new(1);
    let document = save(trusted.as_ref())?; // for the sharded step below
    fleet.deploy("trusted", trusted)?;
    fleet.deploy("untrusted", untrusted)?;
    let served = fleet.score_batch("trusted", unknown)?;
    assert!(served
        .iter()
        .zip(&reports)
        .all(|(s, d)| s.version == 1 && &s.report == d));
    println!(
        "fleet endpoints {:?}: trusted endpoint saw {} windows, {:.1}% escalated",
        fleet.endpoints(),
        fleet.stats("trusted")?.windows,
        100.0 * fleet.stats("trusted")?.escalation_rate()
    );

    // 6. Scale out: restore the same trusted model from its saved document
    //    and serve it on 3 shards with round-robin routing. The replicas
    //    share that one instance, so the reports still match the direct
    //    path — only the replica attribution varies — and the per-replica
    //    statistics merge back into one endpoint-wide view.
    let sharded = ShardedFleet::new(3);
    sharded.deploy("trusted", load(&document)?)?;
    let mut tickets = Vec::new();
    for row in 0..unknown.rows() {
        tickets.push(sharded.score("trusted", unknown.row(row))?);
    }
    sharded.flush("trusted")?;
    let mut replicas_used = [0usize; 3];
    for (ticket, direct) in tickets.into_iter().zip(&reports) {
        let scored = ticket.wait()?;
        assert_eq!(&scored.report, direct);
        replicas_used[scored.replica] += 1;
    }
    println!(
        "sharded endpoint: {} windows over 3 replicas {:?}, {:.1}% escalated fleet-wide",
        sharded.stats("trusted")?.windows,
        replicas_used,
        100.0 * sharded.stats("trusted")?.escalation_rate()
    );
    Ok(())
}
