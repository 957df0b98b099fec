//! Tail latency of the supervised serving layer, per configuration.
//!
//! Throughput (`serve_throughput`) answers "how many rows per second";
//! this bench answers the serving question the supervision PR changes:
//! **what does one request wait**, at the median and at the tail, under
//! each batching/shedding configuration?
//!
//! Per config it records p50/p99/p999 of single-request latency:
//! * `direct_batch1` — `detect_batch` on one row, the no-fleet floor;
//! * `fleet_tile1` — `score()` + `wait()` on a 1-replica fleet with a
//!   1-row tile (inline drain, pure fleet dispatch overhead over the
//!   floor);
//! * `fleet_tile64_burst` — 64-request bursts; each latency runs from that
//!   request's own enqueue to its ticket resolving, so early rows in a
//!   tile pay the fill time and the distribution shows the micro-batching
//!   spread;
//! * `fleet_tile64_deadline` — lone requests on a 64-row tile with a
//!   500 µs `max_wait`: nothing fills the tile, so latency is bounded by
//!   the deadline flusher (p50 ≈ max_wait + drain);
//! * `shed_circuit_open` — requests fast-shed by an Open breaker: the cost
//!   of a rejection, which is what keeps overload cheap;
//! * `socket_roundtrip` — the same single-row request through the loopback
//!   wire protocol (`FleetClient` → `FleetServer` → sharded fleet), i.e.
//!   `fleet_tile1` plus framing, two JSON codec passes and a TCP round
//!   trip: the price of the process boundary;
//! * `socket_batch64_per_row` — a 64-row batch frame over the socket,
//!   divided per row: how the framing cost amortises.
//!
//! Machine-readable results land in `BENCH_serve_latency.json` at the
//! repository root. Set `HMD_BENCH_QUICK=1` for the CI smoke run.
//!
//! ```text
//! cargo bench -p hmd_bench --bench serve_latency
//! ```

use criterion::{criterion_group, criterion_main, Criterion};
use hmd_bench::pipelines::{detector_config, BaseModel};
use hmd_bench::ExperimentScale;
use hmd_core::detector::{Detector, DetectorExt};
use hmd_data::Matrix;
use hmd_serve::{
    BreakerPolicy, ClientConfig, FleetClient, FleetError, FleetServer, FlushPolicy, ServerConfig,
    ShardConfig, ShardTicket, ShardedFleet,
};
use std::time::{Duration, Instant};

/// Where the machine-readable results land: the repository root, committed
/// alongside the code whose performance it documents.
const JSON_REPORT: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../BENCH_serve_latency.json"
);

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

/// Nearest-rank percentile over an unsorted latency sample (sorts a copy).
fn percentiles(samples: &[Duration]) -> (Duration, Duration, Duration) {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let at = |p: f64| {
        let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
        sorted[idx.min(sorted.len() - 1)]
    };
    (at(50.0), at(99.0), at(99.9))
}

fn report(c: &mut Criterion, config: &str, samples: &[Duration]) {
    let (p50, p99, p999) = percentiles(samples);
    println!(
        "  {config:<24} p50 {:>9.1} µs   p99 {:>9.1} µs   p99.9 {:>9.1} µs   (n={})",
        p50.as_secs_f64() * 1e6,
        p99.as_secs_f64() * 1e6,
        p999.as_secs_f64() * 1e6,
        samples.len()
    );
    for (tag, value) in [("p50", p50), ("p99", p99), ("p999", p999)] {
        c.json_note(
            &format!("{config}_{tag}_us"),
            format!("{:.1}", value.as_secs_f64() * 1e6),
        );
    }
}

/// A 1-replica fleet serving the smoke pipeline as endpoint `hmd`, its tile
/// flushing at `max_batch` rows or after `max_wait`.
fn fleet(scale: ExperimentScale, max_batch: usize, max_wait: Duration) -> ShardedFleet {
    let fleet = ShardedFleet::with_config(
        ShardConfig::new(1).with_flush(FlushPolicy::new(max_batch, max_wait)),
    );
    fleet
        .deploy("hmd", trained_pipeline(scale))
        .expect("deploys");
    fleet
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

fn bench_latency(c: &mut Criterion) {
    let scale = ExperimentScale::Smoke;
    let split = scale
        .dvfs_builder()
        .build_split(2021)
        .expect("DVFS corpus generation");
    let detector = trained_pipeline(scale);
    let requests = batch_of(split.unknown.features(), 256);
    let n = if quick_mode() { 1_000 } else { 5_000 };

    c.json_note("bench", "serve_latency");
    c.json_note("pipeline", detector.name());
    c.json_note("scale", scale.name());
    c.json_note("samples_per_config", format!("{n}"));

    println!("\nserve latency — {} ({n} samples/config)", detector.name());

    // Floor: the direct single-row batch path, no fleet in between.
    {
        let mut samples = Vec::with_capacity(n);
        let one = batch_of(split.unknown.features(), 1);
        for _ in 0..n {
            let start = Instant::now();
            detector.detect_batch(&one).expect("direct");
            samples.push(start.elapsed());
        }
        report(c, "direct_batch1", &samples);
    }

    // Fleet dispatch overhead: 1-row tiles drain inline on the caller.
    {
        let fleet = fleet(scale, 1, Duration::from_secs(5));
        let mut samples = Vec::with_capacity(n);
        for i in 0..n {
            let row = requests.row(i % requests.rows());
            let start = Instant::now();
            fleet
                .score("hmd", row)
                .expect("enqueue")
                .wait()
                .expect("scores");
            samples.push(start.elapsed());
        }
        report(c, "fleet_tile1", &samples);
    }

    // Micro-batching spread: 64-request bursts, per-request latency from
    // each request's own enqueue. The burst's last row fills the tile and
    // drains it inline, so the first row's latency includes the fill time.
    {
        let fleet = fleet(scale, 64, Duration::from_secs(5));
        let mut samples = Vec::with_capacity(n);
        while samples.len() < n {
            let mut tickets: Vec<(Instant, ShardTicket)> = Vec::with_capacity(64);
            for i in 0..64 {
                let row = requests.row((samples.len() + i) % requests.rows());
                tickets.push((Instant::now(), fleet.score("hmd", row).expect("enqueue")));
            }
            for (enqueued, ticket) in tickets {
                ticket.wait().expect("scores");
                samples.push(enqueued.elapsed());
            }
        }
        report(c, "fleet_tile64_burst", &samples);
    }

    // Deadline-bounded: lone requests on a 64-row tile never fill it, so
    // the 500 µs max_wait (deadline flusher or waiter self-flush) is the
    // latency bound.
    {
        let deadline_n = n.min(2_000); // each sample costs >= max_wait
        let fleet = fleet(scale, 64, Duration::from_micros(500));
        let mut samples = Vec::with_capacity(deadline_n);
        for i in 0..deadline_n {
            let row = requests.row(i % requests.rows());
            let start = Instant::now();
            fleet
                .score("hmd", row)
                .expect("enqueue")
                .wait()
                .expect("scores");
            samples.push(start.elapsed());
        }
        report(c, "fleet_tile64_deadline", &samples);
    }

    // Shedding cost: trip the breaker once, then measure the fast-shed
    // path — the latency an overloaded caller pays for its rejection.
    {
        struct AlwaysFails;
        impl Detector for AlwaysFails {
            fn name(&self) -> String {
                "always-fails".to_string()
            }
            fn entropy_threshold(&self) -> f64 {
                0.5
            }
            fn detect_rows(
                &self,
                _rows: hmd_data::RowsView<'_>,
            ) -> Result<Vec<hmd_core::trusted::DetectionReport>, hmd_ml::MlError> {
                Err(hmd_ml::MlError::ContractViolation {
                    message: "bench fault".to_string(),
                })
            }
        }
        let fleet = ShardedFleet::with_config(
            ShardConfig::new(1)
                .with_flush(FlushPolicy::new(1, Duration::from_secs(5)))
                .with_breaker(BreakerPolicy::new(1, Duration::from_secs(600))),
        );
        fleet.deploy("hmd", Box::new(AlwaysFails)).expect("deploys");
        let ticket = fleet.score("hmd", requests.row(0)).expect("trip enqueue");
        assert!(ticket.wait().is_err(), "the tripping call must fail");
        let mut samples = Vec::with_capacity(n);
        for i in 0..n {
            let row = requests.row(i % requests.rows());
            let start = Instant::now();
            match fleet.score("hmd", row) {
                Err(FleetError::CircuitOpen) => samples.push(start.elapsed()),
                other => panic!("expected a fast shed, got {other:?}"),
            }
        }
        report(c, "shed_circuit_open", &samples);
    }

    // The process boundary: the same single-row request through the
    // loopback wire protocol. The delta over `fleet_tile1` is what the
    // frame codec + TCP round trip cost.
    {
        let fleet = std::sync::Arc::new(ShardedFleet::with_config(
            ShardConfig::new(1).with_flush(FlushPolicy::new(1, Duration::from_secs(5))),
        ));
        fleet
            .deploy("hmd", trained_pipeline(scale))
            .expect("deploys");
        let server =
            FleetServer::bind(std::sync::Arc::clone(&fleet), ServerConfig::new()).expect("binds");
        let mut client =
            FleetClient::connect(server.local_addr(), ClientConfig::new()).expect("connects");

        let mut samples = Vec::with_capacity(n);
        for i in 0..n {
            let row = requests.row(i % requests.rows());
            let start = Instant::now();
            client.score("hmd", row).expect("scores over the wire");
            samples.push(start.elapsed());
        }
        report(c, "socket_roundtrip", &samples);

        // Batch framing amortisation: one 64-row frame, latency per row.
        let batch_iters = (n / 64).max(8);
        let batch = batch_of(split.unknown.features(), 64);
        let mut samples = Vec::with_capacity(batch_iters);
        for _ in 0..batch_iters {
            let start = Instant::now();
            let reports = client.score_batch("hmd", &batch).expect("batch scores");
            let elapsed = start.elapsed();
            assert_eq!(reports.len(), 64);
            samples.push(elapsed / 64);
        }
        report(c, "socket_batch64_per_row", &samples);
        server.shutdown();
    }

    // Criterion cross-check on the two closed-loop paths, so the latency
    // table above has a statistically-sampled counterpart.
    let fleet = fleet(scale, 1, Duration::from_secs(5));
    c.bench_function("fleet_tile1_roundtrip", |b| {
        b.iter(|| {
            fleet
                .score("hmd", requests.row(0))
                .expect("enqueue")
                .wait()
                .expect("scores")
        })
    });
    let one = batch_of(split.unknown.features(), 1);
    c.bench_function("direct_batch1_roundtrip", |b| {
        b.iter(|| detector.detect_batch(&one).expect("direct"))
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
    targets = bench_latency
}
criterion_main!(benches);
