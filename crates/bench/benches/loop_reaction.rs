//! Reaction characteristics of the closed loop (`hmd_loop`).
//!
//! Two questions decide whether the loop is deployable:
//!
//! * **How fast does drift detection react?** Measured in *rows*: after a
//!   step shift in the served stream's escalation rate, how many more rows
//!   must be served before the Page–Hinkley test fires? Reported per shift
//!   magnitude (mild/moderate/severe), plus the raw cost of one
//!   `DriftDetector::observe` call (it sits on the supervisor tick path).
//! * **What does shadowing cost the serving path?** A challenger scores
//!   every tile the champion serves, so the worst case is ~2× the
//!   champion-only drain. Measured as the p50 of a 64-row serving tile
//!   (64 `score` enqueues plus the inline drain the 64th triggers),
//!   champion-only vs with a shadow installed; the acceptance bar is
//!   `shadow_overhead_ratio <= 2.0`.
//!
//! Machine-readable results land in `BENCH_loop.json` at the repository
//! root. Set `HMD_BENCH_QUICK=1` for the CI smoke run.
//!
//! ```text
//! cargo bench -p hmd_bench --bench loop_reaction
//! ```

use criterion::{criterion_group, criterion_main, Criterion};
use hmd_bench::pipelines::{detector_config, BaseModel};
use hmd_bench::ExperimentScale;
use hmd_core::detector::{Detector, MonitorStats};
use hmd_core::trusted::Decision;
use hmd_core::{DetectionReport, UncertainPrediction};
use hmd_data::{Label, Matrix};
use hmd_loop::{DriftDetector, DriftPolicy, DriftVerdict};
use hmd_serve::{FlushPolicy, ShardConfig, ShardedFleet};
use std::time::{Duration, Instant};

const JSON_REPORT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_loop.json");

/// Rows per window snapshot fed to the drift detector: the cadence a
/// supervisor would tick at.
const SNAPSHOT_ROWS: usize = 32;

fn quick_mode() -> bool {
    std::env::var("HMD_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// A synthetic window snapshot with the given escalation rate.
fn snapshot(escalation_rate: f64) -> MonitorStats {
    let escalated = (escalation_rate * SNAPSHOT_ROWS as f64).round() as usize;
    let mut stats = MonitorStats::default();
    for i in 0..SNAPSHOT_ROWS {
        let escalate = i < escalated;
        stats.record(&DetectionReport {
            prediction: UncertainPrediction {
                label: Label::Benign,
                malware_vote_fraction: 0.0,
                entropy: if escalate { 0.9 } else { 0.1 },
                num_estimators: 1,
            },
            decision: if escalate {
                Decision::Escalate
            } else {
                Decision::Accept(Label::Benign)
            },
        });
    }
    stats.window_snapshot()
}

/// Rows served after the shift before the detector reports `Drifted`.
fn reaction_rows(baseline: f64, shifted: f64) -> usize {
    let mut detector = DriftDetector::new(DriftPolicy::default());
    let healthy = snapshot(baseline);
    while detector.baseline().is_none() {
        detector.observe(&healthy);
    }
    let hot = snapshot(shifted);
    let mut rows = 0;
    loop {
        rows += SNAPSHOT_ROWS;
        if detector.observe(&hot) == DriftVerdict::Drifted {
            return rows;
        }
        assert!(rows < 100_000, "drift never fired for shift {shifted}");
    }
}

/// Nearest-rank percentile over an unsorted latency sample (sorts a copy).
fn p50(samples: &[Duration]) -> Duration {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sorted[(sorted.len() - 1) / 2]
}

fn trained_pipeline(scale: ExperimentScale) -> Box<dyn Detector> {
    let split = scale
        .dvfs_builder()
        .build_split(2021)
        .expect("DVFS corpus generation");
    detector_config(BaseModel::RandomForest, scale.num_estimators(), false)
        .fit(&split.train, 7)
        .expect("RF pipeline trains")
}

/// A 64-row tile cycling the unknown set's rows.
fn tile(source: &Matrix) -> Matrix {
    let rows: Vec<Vec<f64>> = (0..64)
        .map(|i| source.row(i % source.rows()).to_vec())
        .collect();
    Matrix::from_rows(&rows).expect("uniform rows")
}

fn bench_loop_reaction(c: &mut Criterion) {
    let scale = ExperimentScale::Smoke;
    c.json_note("bench", "loop_reaction");
    c.json_note("scale", scale.name());
    c.json_note("snapshot_rows", format!("{SNAPSHOT_ROWS}"));

    // ---- Drift-detection latency, in rows -------------------------------
    println!("\ndrift reaction (baseline escalation 10 %, {SNAPSHOT_ROWS}-row snapshots)");
    for (tag, shifted) in [
        ("mild_30pct", 0.3),
        ("moderate_50pct", 0.5),
        ("severe_80pct", 0.8),
    ] {
        let rows = reaction_rows(0.1, shifted);
        println!(
            "  shift to {shifted:>4.0}% escalation: drift after {rows:>4} rows",
            shifted = shifted * 100.0
        );
        c.json_note(&format!("drift_rows_{tag}"), format!("{rows}"));
    }

    // The observe call itself sits on the supervisor tick path.
    {
        let mut detector = DriftDetector::new(DriftPolicy::default());
        let healthy = snapshot(0.1);
        let iters = if quick_mode() { 20_000 } else { 200_000 };
        let start = Instant::now();
        for _ in 0..iters {
            detector.observe(&healthy);
        }
        let per_call = start.elapsed().as_secs_f64() / iters as f64;
        println!("  observe() cost: {:.1} ns/call", per_call * 1e9);
        c.json_note("observe_ns", format!("{:.1}", per_call * 1e9));
    }

    // ---- Shadow-scoring overhead on the tile drain path ------------------
    let split = scale
        .dvfs_builder()
        .build_split(2021)
        .expect("DVFS corpus generation");
    let requests = tile(split.unknown.features());
    let n = if quick_mode() { 300 } else { 2_000 };
    println!("\nshadow overhead (64-row serving tile: 64 enqueues + inline drain, n={n})");

    // The serving tile as production traffic drives it: 64 single-row
    // `score` enqueues whose 64th triggers the inline drain, timed from the
    // first enqueue to the last ticket resolving. The shadow pass runs
    // inside the drain, after champion results publish.
    let measure = |fleet: &ShardedFleet| {
        let one_tile = |fleet: &ShardedFleet| {
            let tickets: Vec<_> = (0..64)
                .map(|i| fleet.score("hmd", requests.row(i)).expect("enqueues"))
                .collect();
            for ticket in tickets {
                ticket.wait().expect("resolves");
            }
        };
        // Warm the dispatch path before sampling.
        for _ in 0..(n / 10).max(5) {
            one_tile(fleet);
        }
        let mut samples = Vec::with_capacity(n);
        for _ in 0..n {
            let start = Instant::now();
            one_tile(fleet);
            samples.push(start.elapsed());
        }
        p50(&samples)
    };

    let fleet = ShardedFleet::with_config(
        ShardConfig::new(1).with_flush(FlushPolicy::new(64, Duration::from_secs(5))),
    );
    fleet
        .deploy("hmd", trained_pipeline(scale))
        .expect("deploys");
    let champion_only = measure(&fleet);

    fleet
        .deploy_shadow("hmd", trained_pipeline(scale))
        .expect("installs shadow");
    let with_shadow = measure(&fleet);
    let shadow = fleet
        .shadow_stats("hmd")
        .expect("endpoint exists")
        .expect("shadow installed");
    assert!(shadow.rows > 0 && shadow.errors == 0, "shadow never scored");

    let ratio = with_shadow.as_secs_f64() / champion_only.as_secs_f64();
    println!(
        "  champion-only tile p50 {:.1} µs   with shadow {:.1} µs   ratio {ratio:.2}x",
        champion_only.as_secs_f64() * 1e6,
        with_shadow.as_secs_f64() * 1e6,
    );
    c.json_note(
        "champion_only_tile_p50_us",
        format!("{:.1}", champion_only.as_secs_f64() * 1e6),
    );
    c.json_note(
        "shadow_tile_p50_us",
        format!("{:.1}", with_shadow.as_secs_f64() * 1e6),
    );
    c.json_note("shadow_overhead_ratio", format!("{ratio:.3}"));
    assert!(
        ratio <= 2.0,
        "shadow overhead {ratio:.2}x exceeds the 2x acceptance bar"
    );

    c.bench_function("drift_observe", |b| {
        let mut detector = DriftDetector::new(DriftPolicy::default());
        let healthy = snapshot(0.1);
        b.iter(|| detector.observe(&healthy))
    });
}

criterion_group! {
    name = benches;
    config = {
        let samples = if quick_mode() { 5 } else { 10 };
        Criterion::default()
            .sample_size(samples)
            .with_json_report(JSON_REPORT)
    };
    targets = bench_loop_reaction
}
criterion_main!(benches);
