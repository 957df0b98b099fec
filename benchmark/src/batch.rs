//! `hpc_offline_batch`: one caller runs `detect_batch` in a closed loop on
//! 4096-row batches of HPC rows (known-test and unknown mixed); the
//! library's own worker pool does the parallel work.
//!
//! Scaling, flat traversal, votes and entropy do all the work here, on deep
//! trees over overlapping classes (about 0.2M rows/s against 1.6–2.0M for
//! DVFS). Fleet, codec and socket do none, so a traversal gain shows here
//! and a fleet or codec gain must read "no change".

use crate::hist::Histogram;
use crate::measure::{served_cpu_s, Metric, Outcome, Phase, Windows, Workload, WARMUP};
use crate::model::{same_report, Family, Layers, Model, Quality};
use crate::sys::process_cpu_s;
use crate::trace::Tracer;
use hmd_core::detector::DetectorExt;
use hmd_core::trusted::DetectionReport;
use hmd_data::Matrix;
use std::time::{Duration, Instant};

/// Rows per `detect_batch` call.
pub const BATCH: usize = 4096;
/// Distinct pre-built batches the loop cycles through.
const BATCHES: usize = 4;

/// The workload's state between set-up and measurement.
pub struct OfflineBatch {
    model: Model,
    batches: Vec<(Matrix, Vec<u32>)>,
    next_request: u64,
}

/// Counts of one run of the loop.
#[derive(Default)]
struct Loop {
    sent: u64,
    ok: u64,
    latency: Histogram,
    quality: Quality,
}

impl Workload for OfflineBatch {
    fn setup(seed: u64) -> OfflineBatch {
        let model = Model::build(Family::Hpc, seed);
        let mix = model.request_mix(seed, BATCH * BATCHES);
        let batches = mix
            .chunks(BATCH)
            .map(|indices| {
                let rows: Vec<Vec<f64>> = indices
                    .iter()
                    .map(|&i| model.pool.row(i as usize).to_vec())
                    .collect();
                (
                    Matrix::from_rows(&rows).expect("uniform rows"),
                    indices.to_vec(),
                )
            })
            .collect();
        OfflineBatch {
            model,
            batches,
            next_request: 0,
        }
    }

    fn model(&self) -> &Model {
        &self.model
    }

    fn measure(&mut self, seconds: f64, tracer: Option<&mut Tracer>) -> Outcome {
        let layers = tracer.is_some().then(|| self.model.layers());
        let warmup = self.run(WARMUP, None, None);
        let duration = Duration::from_secs_f64(seconds);
        let start = Instant::now();
        let cpu_before = process_cpu_s();
        let mut windows = Windows::new(start, duration);
        let counts = self.run(duration, Some(&mut windows), layers.as_ref().zip(tracer));
        let cpu_s = served_cpu_s(cpu_before, process_cpu_s(), 0.0);

        let phase = Phase {
            name: "batches",
            seconds: duration.as_secs_f64(),
            sent: counts.sent,
            ok: counts.ok,
            failed: counts.sent - counts.ok,
            rows_per_request: BATCH as u64,
            latency: counts.latency,
            window_rates: windows.rates(),
            open_loop: None,
        };
        let mut reported = phase.latency_metrics("batch.");
        for (name, value) in counts.quality.percentages() {
            reported.push(Metric::new(name, value, "%"));
        }
        Outcome {
            rows_per_s: phase.rows_per_s(),
            p50_us: phase.latency.quantile_us(0.5),
            cpu_us_per_row: cpu_s * 1e6 / (counts.ok * BATCH as u64).max(1) as f64,
            attempted: warmup.sent + counts.sent,
            failed: (warmup.sent - warmup.ok) + (counts.sent - counts.ok),
            phases: vec![phase],
            reported,
        }
    }
}

impl OfflineBatch {
    fn run(
        &mut self,
        duration: Duration,
        mut windows: Option<&mut Windows>,
        mut trace: Option<(&Layers, &mut Tracer)>,
    ) -> Loop {
        let mut out = Loop::default();
        let start = Instant::now();
        while start.elapsed() < duration {
            let request = self.next_request;
            self.next_request += 1;
            let (batch, indices) = &self.batches[(request % BATCHES as u64) as usize];
            let began = Instant::now();
            // Traced requests take the layer-by-layer path instead of the
            // fused call; both must produce the reference reports.
            let reports: Vec<DetectionReport> = match trace.as_mut() {
                Some((layers, tracer)) if tracer.wants(request) => {
                    let mut spans = tracer.request(request);
                    let root = spans.root_id();
                    let reports = layers.replay(batch.view(), &mut spans, Some(root));
                    spans.root("client.request", began, Instant::now());
                    reports
                }
                _ => self
                    .model
                    .detector
                    .detect_batch(batch)
                    .expect("batch rows have the training width"),
            };
            let done = Instant::now();
            out.sent += 1;
            out.latency.record(done - began);
            let mut correct = reports.len() == indices.len();
            for (report, &i) in reports.iter().zip(indices) {
                let i = i as usize;
                out.quality
                    .add(self.model.is_known(i), self.model.truth[i], report);
                correct &= same_report(report, &self.model.reference[i]);
            }
            if correct {
                out.ok += 1;
                if let Some(windows) = windows.as_deref_mut() {
                    windows.add(done, BATCH as u64);
                }
            }
        }
        out
    }
}
