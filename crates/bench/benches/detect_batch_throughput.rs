//! Throughput of the batch-first inference hot path.
//!
//! Measures `Detector::detect_batch` in samples/second at batch sizes 1, 64
//! and 4096 on two trusted random-forest pipelines, so future PRs can track
//! regressions of the serving path:
//!
//! * the smoke-scale DVFS pipeline (15 forests of shallow trees), the
//!   series tracked since PR 1;
//! * the bench-scale HPC pipeline (25 forests of 3 deep trees over
//!   overlapping classes), the shape the repository benchmark's
//!   `hpc_offline_batch` workload serves, where the flat traversal does
//!   nearly all the work.
//!
//! Batch 1 is the degenerate per-window case; 4096 takes the worker pool.
//!
//! Besides the console output, the run writes machine-readable results to
//! `BENCH_detect_batch.json` at the repository root (see the criterion
//! shim's JSON report) so the perf trajectory is tracked across PRs; the
//! committed copy records the numbers for the current PR next to the PR-1
//! baseline. Set `HMD_BENCH_QUICK=1` for a fast CI smoke run.
//!
//! ```text
//! cargo bench -p hmd_bench --bench detect_batch_throughput
//! ```

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hmd_bench::pipelines::{detector_config, BaseModel};
use hmd_bench::ExperimentScale;
use hmd_core::detector::{Detector, DetectorExt};
use hmd_data::Matrix;
use std::time::Instant;

/// Where the machine-readable results land: the repository root, so the file
/// is committed alongside the code whose performance it documents.
const JSON_REPORT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_detect_batch.json");

/// Samples/second measured for PR 1 (nested enum walk, per-call scoped
/// threads) on the same smoke RF pipeline — the baseline this PR's flat
/// engine is gated against.
const PR1_BASELINE: [(usize, f64); 3] = [(1, 94_953.0), (64, 1_846_675.0), (4096, 2_358_643.0)];

fn quick_mode() -> bool {
    std::env::var("HMD_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// Builds a batch of the requested size by cycling the unknown set's rows.
fn batch_of(source: &Matrix, size: usize) -> Matrix {
    let rows: Vec<Vec<f64>> = (0..size)
        .map(|i| source.row(i % source.rows()).to_vec())
        .collect();
    Matrix::from_rows(&rows).expect("uniform rows")
}

/// Times `detect_batch` at batch 1, 64 and 4096 on rows cycled from
/// `source`. JSON keys and bench names carry `prefix`, so series of
/// different pipelines sit side by side in one report.
fn measure(c: &mut Criterion, prefix: &str, detector: &dyn Detector, source: &Matrix) {
    let budget_ms = if quick_mode() { 60 } else { 300 };
    println!("\ndetect_batch throughput — {}", detector.name());
    for &size in &[1usize, 64, 4096] {
        let batch = batch_of(source, size);

        // Headline number: explicit samples/sec over a fixed wall-clock
        // budget, independent of the harness.
        let mut iterations = 0usize;
        let start = Instant::now();
        while start.elapsed().as_millis() < budget_ms {
            let reports = detector.detect_batch(&batch).expect("batch inference");
            assert_eq!(reports.len(), size);
            iterations += 1;
        }
        let per_sec = (iterations * size) as f64 / start.elapsed().as_secs_f64();
        println!("  batch {size:>5}: {per_sec:>12.0} samples/sec");
        c.json_note(
            &format!("{prefix}headline_batch_{size}_samples_per_sec"),
            format!("{per_sec:.0}"),
        );

        c.throughput(Throughput::Elements(size as u64));
        c.bench_function(&format!("{prefix}detect_batch_{size}"), |b| {
            b.iter(|| detector.detect_batch(&batch).expect("batch inference"))
        });
    }
}

fn bench_detect_batch(c: &mut Criterion) {
    let scale = ExperimentScale::Smoke;
    let split = scale
        .dvfs_builder()
        .build_split(2021)
        .expect("DVFS corpus generation");
    let detector = detector_config(BaseModel::RandomForest, scale.num_estimators(), false)
        .fit(&split.train, 7)
        .expect("RF pipeline trains");

    c.json_note("bench", "detect_batch_throughput");
    c.json_note("pipeline", detector.name());
    c.json_note("scale", scale.name());
    for (size, baseline) in PR1_BASELINE {
        c.json_note(
            &format!("pr1_baseline_batch_{size}_samples_per_sec"),
            format!("{baseline:.0}"),
        );
    }
    measure(c, "", detector.as_ref(), split.unknown.features());

    // The deep-tree counterpart: the repository benchmark's HPC model.
    let scale = ExperimentScale::Bench;
    let split = scale
        .hpc_builder()
        .build_split(2021)
        .expect("HPC corpus generation");
    let detector = detector_config(BaseModel::RandomForest, scale.num_estimators(), false)
        .fit(&split.train, 7)
        .expect("RF pipeline trains");
    c.json_note("hpc_pipeline", detector.name());
    c.json_note("hpc_scale", scale.name());
    measure(c, "hpc_", detector.as_ref(), split.unknown.features());
}

criterion_group! {
    name = benches;
    config = {
        let samples = if quick_mode() { 5 } else { 10 };
        Criterion::default()
            .sample_size(samples)
            .with_json_report(JSON_REPORT)
    };
    targets = bench_detect_batch
}
criterion_main!(benches);
