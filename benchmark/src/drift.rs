//! `dvfs_drift_retrain`: the closed loop, cycle after cycle. Four seeded
//! streams are generated at set-up, each 5 healthy batches followed by
//! `hmd_threat::GradualDrift` ±4σ batches, 32 rows per batch. Every cycle
//! replays one stream on a fresh 2-replica fleet and a fresh
//! `LoopSupervisor` tuned like the robustness evaluation's, batch by batch:
//! `score_batch`, `ingest`, `tick`, through detect → refit → shadow →
//! promote → verify.
//!
//! This is the serve layer's write path (codec-cloned `deploy`,
//! `deploy_shadow`, `promote`) beside its reads, plus `fastfit` and
//! `hmd_loop`, which no other workload touches: a read-path gain that
//! costs the write path shows up here.

use crate::hist::Histogram;
use crate::measure::{served_cpu_s, Metric, Outcome, Phase, Windows, Workload, WARMUP};
use crate::model::{splitmix, Family, Model};
use crate::sys::process_cpu_s;
use crate::trace::Tracer;
use hmd_core::detector::{load, save};
use hmd_core::trusted::DetectionReport;
use hmd_data::stream::CorpusStream;
use hmd_data::{Label, Matrix};
use hmd_dvfs::DvfsCorpusStream;
use hmd_loop::{DriftPolicy, LoopConfig, LoopError, LoopEvent, LoopSupervisor, PromotionGate};
use hmd_serve::ShardedFleet;
use hmd_threat::{DriftSchedule, GradualDrift};
use std::sync::Arc;
use std::time::{Duration, Instant};

const ENDPOINT: &str = "dvfs";
/// Rows per served batch.
pub const BATCH: usize = 32;
/// Healthy batches before the drift starts.
const HEALTHY: usize = 5;
/// Drifted batches per cycle: enough for detection, shadowing, promotion
/// and verification to finish on every stream.
const DRIFTED: usize = 12;
/// Distinct streams replayed round-robin.
const STREAMS: usize = 4;
/// Drift magnitude in training standard deviations.
const SIGMAS: f64 = 4.0;

/// One replayable stream: labelled batches, healthy first.
struct Stream {
    batches: Vec<(Matrix, Vec<Label>)>,
}

/// What the first replay of a stream did; later replays must repeat it.
#[derive(Debug, Clone, PartialEq)]
struct Expected {
    events: Vec<&'static str>,
    digest: u64,
}

/// The workload's state between set-up and measurement.
pub struct DriftRetrain {
    model: Model,
    document: String,
    config: LoopConfig,
    streams: Vec<Stream>,
    expected: Vec<Option<Expected>>,
    next_cycle: u64,
    next_step: u64,
}

/// What the measured cycles did, accumulated cycle by cycle.
#[derive(Default)]
struct Tally {
    cycles: u64,
    correct: u64,
    rows: u64,
    recovered: u64,
    rolled_back: u64,
    events: u64,
    detections: u64,
    /// Drifted rows served up to the batch whose tick flagged drift, summed.
    rows_to_detect: u64,
    /// Wall time of ticks that retrained, and of ticks with no event.
    retrain_ticks: Histogram,
    monitoring_ticks: Histogram,
}

impl Tally {
    fn per_cycle(&self, value: u64) -> f64 {
        value as f64 / self.cycles.max(1) as f64
    }
}

impl Workload for DriftRetrain {
    fn setup(seed: u64) -> DriftRetrain {
        let model = Model::build(Family::Dvfs, seed);
        let document = save(model.detector.as_ref()).expect("pipelines persist");
        let stds: Vec<f64> = model
            .train
            .features()
            .column_stds()
            .into_iter()
            .map(|s| s.max(1e-9))
            .collect();
        // Alternating signs push correlated features apart rather than
        // translating them together, which bagged trees largely shrug off.
        let shift: Vec<f64> = stds
            .iter()
            .enumerate()
            .map(|(j, s)| if j % 2 == 0 { SIGMAS * s } else { -SIGMAS * s })
            .collect();
        let builder = hmd_bench::ExperimentScale::Bench.dvfs_builder();
        let mut state = seed ^ 0xd41f7;
        let streams = (0..STREAMS)
            .map(|_| {
                let mut healthy =
                    DvfsCorpusStream::known_apps(builder.clone(), splitmix(&mut state))
                        .expect("the known catalog is non-empty");
                let source = DvfsCorpusStream::known_apps(builder.clone(), splitmix(&mut state))
                    .expect("the known catalog is non-empty");
                let mut drifted = GradualDrift::new(shift.clone(), DriftSchedule::linear(BATCH))
                    .expect("training stds are finite")
                    .apply(source)
                    .expect("the shift has the stream's width");
                let mut batches: Vec<(Matrix, Vec<Label>)> =
                    (0..HEALTHY).map(|_| take(&mut healthy)).collect();
                batches.extend((0..DRIFTED).map(|_| take(&mut drifted)));
                Stream { batches }
            })
            .collect();

        // The robustness evaluation's loop tuning: a patient drift policy and
        // a retrain window holding the stationary drifted distribution.
        let mut config = LoopConfig::new(model.recipe.clone());
        config.drift = DriftPolicy {
            calibration_windows: 3,
            min_window_rows: 8,
            lambda: 3.0,
            ..DriftPolicy::default()
        };
        config.window_capacity = 6 * BATCH;
        config.min_retrain_rows = 5 * BATCH;
        config.shadow_rows = 2 * BATCH as u64;
        config.verify_rows = 2 * BATCH;
        config.regression_tolerance = 0.2;
        config.gate = PromotionGate::ChallengerNoWorse { margin: 0.05 };
        config.seed = seed ^ 0x100b;

        DriftRetrain {
            model,
            document,
            config,
            streams,
            expected: vec![None; STREAMS],
            next_cycle: 0,
            next_step: 0,
        }
    }

    fn model(&self) -> &Model {
        &self.model
    }

    fn measure(&mut self, seconds: f64, mut tracer: Option<&mut Tracer>) -> Outcome {
        // Warm up for at least a second and at least one replay per stream:
        // the first replays record the reference behaviour.
        let warm_start = Instant::now();
        let mut warmup = Tally::default();
        while warm_start.elapsed() < WARMUP || self.expected.iter().any(Option::is_none) {
            self.cycle(None, &mut warmup);
        }

        let duration = Duration::from_secs_f64(seconds);
        let start = Instant::now();
        let cpu_before = process_cpu_s();
        let mut windows = Windows::new(start, duration);
        let mut cycles = Histogram::new();
        let mut tally = Tally::default();
        while start.elapsed() < duration {
            let began = Instant::now();
            let rows = tally.rows;
            self.cycle(tracer.as_deref_mut(), &mut tally);
            let done = Instant::now();
            cycles.record(done - began);
            windows.add(done, tally.rows - rows);
        }
        let cpu_s = served_cpu_s(cpu_before, process_cpu_s(), 0.0);

        let phase = Phase {
            name: "cycles",
            seconds: start.elapsed().as_secs_f64(),
            sent: tally.cycles,
            ok: tally.correct,
            failed: tally.cycles - tally.correct,
            rows_per_request: ((HEALTHY + DRIFTED) * BATCH) as u64,
            latency: cycles,
            window_rates: windows.rates(),
            open_loop: None,
        };
        let mut reported: Vec<Metric> = phase
            .latency_metrics("cycle.")
            .into_iter()
            .map(|m| match m.unit {
                "us" => Metric::new(m.name.replace("_us", "_ms"), m.value / 1e3, "ms"),
                _ => m,
            })
            .collect();
        reported.extend([
            Metric::new(
                "recovered_cycles_pct",
                100.0 * tally.per_cycle(tally.recovered),
                "%",
            ),
            Metric::new(
                "rolled_back_cycles_pct",
                100.0 * tally.per_cycle(tally.rolled_back),
                "%",
            ),
            Metric::new(
                "loop.events_per_cycle",
                tally.per_cycle(tally.events),
                "count",
            ),
            Metric::new(
                "loop.rows_to_detect",
                tally.rows_to_detect as f64 / tally.detections.max(1) as f64,
                "count",
            ),
            Metric::new(
                "loop.tick_ms.retrain",
                tally.retrain_ticks.quantile_us(0.5) / 1e3,
                "ms",
            ),
            Metric::new(
                "loop.tick_us.monitoring",
                tally.monitoring_ticks.quantile_us(0.5),
                "us",
            ),
        ]);
        Outcome {
            rows_per_s: phase.rows_per_s(),
            p50_us: phase.latency.quantile_us(0.5),
            cpu_us_per_row: cpu_s * 1e6 / tally.rows.max(1) as f64,
            attempted: warmup.cycles + tally.cycles,
            failed: (warmup.cycles - warmup.correct) + (tally.cycles - tally.correct),
            phases: vec![phase],
            reported,
        }
    }
}

/// Materialises the next batch of a stream.
fn take<S: CorpusStream>(stream: &mut S) -> (Matrix, Vec<Label>) {
    let (rows, labels): (Vec<Vec<f64>>, Vec<Label>) = stream
        .by_ref()
        .take(BATCH)
        .map(|record| (record.features, record.label))
        .unzip();
    (
        Matrix::from_rows(&rows).expect("stream rows share one width"),
        labels,
    )
}

/// Folds the bits of served reports into a digest.
fn digest(mut acc: u64, reports: &[DetectionReport]) -> u64 {
    for report in reports {
        let p = &report.prediction;
        for word in [
            p.malware_vote_fraction.to_bits(),
            p.entropy.to_bits(),
            p.num_estimators as u64,
            u64::from(report.decision.is_escalation()),
            p.label.index() as u64,
        ] {
            acc ^= word;
            acc = splitmix(&mut acc);
        }
    }
    acc
}

fn event_name(event: &LoopEvent) -> &'static str {
    match event {
        LoopEvent::DriftWarning { .. } => "drift_warning",
        LoopEvent::DriftDetected { .. } => "drift_detected",
        LoopEvent::Retrained { .. } => "retrained",
        LoopEvent::ShadowStarted { .. } => "shadow_started",
        LoopEvent::Promoted { .. } => "promoted",
        LoopEvent::ShadowRejected { .. } => "shadow_rejected",
        LoopEvent::RolledBack { .. } => "rolled_back",
        LoopEvent::Recovered { .. } => "recovered",
        _ => "other",
    }
}

impl DriftRetrain {
    /// Replays the next stream on a fresh fleet and supervisor and adds it
    /// to `tally`. A cycle is correct when it repeats the stream's first
    /// replay (which it records when there was none yet).
    fn cycle(&mut self, mut tracer: Option<&mut Tracer>, tally: &mut Tally) {
        let index = (self.next_cycle % STREAMS as u64) as usize;
        self.next_cycle += 1;
        let stream = &self.streams[index];
        let mut actual = Expected {
            events: Vec::new(),
            digest: 0,
        };

        let deploy_start = Instant::now();
        let fleet = Arc::new(ShardedFleet::new(2));
        let champion = load(&self.document).expect("saved pipelines load");
        let loaded = Instant::now();
        fleet.deploy(ENDPOINT, champion).expect("deploys");
        let deployed = Instant::now();
        let mut supervisor = LoopSupervisor::new(Arc::clone(&fleet), ENDPOINT, self.config.clone());
        let mut failed = false;
        for (i, (batch, labels)) in stream.batches.iter().enumerate() {
            let step = self.next_step;
            self.next_step += 1;
            let began = Instant::now();
            let scored = fleet.score_batch(ENDPOINT, batch);
            let served = Instant::now();
            for (row, label) in batch.iter_rows().zip(labels) {
                supervisor.ingest(row, *label);
            }
            let ingested = Instant::now();
            let before = supervisor.events().len();
            let ticked = supervisor.tick();
            let done = Instant::now();
            match scored {
                Ok(scored) => {
                    let reports: Vec<DetectionReport> = scored.iter().map(|s| s.report).collect();
                    actual.digest = digest(actual.digest, &reports);
                    tally.rows += reports.len() as u64;
                }
                Err(_) => failed = true,
            }
            if !matches!(ticked, Ok(_) | Err(LoopError::WindowStarved { .. })) {
                failed = true;
            }
            let new_events = &supervisor.events()[before..];
            if new_events
                .iter()
                .any(|e| matches!(e, LoopEvent::DriftDetected { .. }))
            {
                tally.detections += 1;
                tally.rows_to_detect += ((i + 1).saturating_sub(HEALTHY) * BATCH) as u64;
            }
            if new_events
                .iter()
                .any(|e| matches!(e, LoopEvent::Retrained { .. }))
            {
                tally.retrain_ticks.record(done - ingested);
            } else if new_events.is_empty() {
                tally.monitoring_ticks.record(done - ingested);
            }
            if let Some(tracer) = tracer.as_deref_mut().filter(|t| t.wants(step)) {
                let mut spans = tracer.request(step);
                let root = spans.root_id();
                if i == 0 {
                    spans.span("core.load", Some(root), deploy_start, loaded);
                    spans.span("serve.deploy", Some(root), loaded, deployed);
                }
                spans.span("serve.score_batch", Some(root), began, served);
                spans.span("loop.ingest", Some(root), served, ingested);
                spans.span("loop.tick", Some(root), ingested, done);
                let from = if i == 0 { deploy_start } else { began };
                spans.root("client.request", from, done);
            }
        }
        actual.events = supervisor.events().iter().map(event_name).collect();
        tally.cycles += 1;
        tally.events += actual.events.len() as u64;
        tally.recovered += u64::from(actual.events.contains(&"recovered"));
        tally.rolled_back += u64::from(actual.events.contains(&"rolled_back"));
        let expected = self.expected[index].get_or_insert_with(|| actual.clone());
        tally.correct += u64::from(!failed && *expected == actual);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replays_repeat_and_a_wrong_expectation_fails() {
        let mut workload = DriftRetrain::setup(5);
        let clean = workload.measure(0.2, None);
        assert_eq!(
            clean.failed, 0,
            "replays of a stream must repeat its first replay"
        );
        workload.expected[0] = Some(Expected {
            events: vec!["recovered"],
            digest: 0,
        });
        let outcome = workload.measure(0.2, None);
        assert!(outcome.failed > 0);
    }
}
