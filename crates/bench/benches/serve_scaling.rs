//! Throughput scaling of the sharded serving layer under concurrent scorers.
//!
//! The serving question this answers: when **many threads** submit
//! single-row `score()` requests at once, how much does replicating an
//! endpoint across shards help? With one shard every scorer contends on one
//! tile lock and shares one flush clock; more replicas give each its own
//! tile, and key-affinity routing pins each scorer (session) to one replica
//! so its bursts micro-batch together without cross-thread coordination.
//!
//! Measures, on the trusted random-forest DVFS pipeline, aggregate
//! `score()` throughput over a matrix of
//! `1/2/4/8 scorer threads × 1/2/4 shards`; the 1-shard column is the
//! single-endpoint baseline. Machine-readable results land in
//! `BENCH_serve_scaling.json` at the repository root, including the
//! `4 threads / 4 shards vs 1 shard` ratio the acceptance gate reads and
//! the host's core count (lock contention —
//! what sharding removes — can only manifest when threads actually run in
//! parallel, so interpret the ratio together with `cores`). Set
//! `HMD_BENCH_QUICK=1` for the CI smoke run.
//!
//! ```text
//! cargo bench -p hmd_bench --bench serve_scaling
//! ```

use criterion::{criterion_group, criterion_main, Criterion};
use hmd_bench::pipelines::{detector_config, BaseModel};
use hmd_bench::ExperimentScale;
use hmd_core::detector::{load, save, Detector};
use hmd_data::Matrix;
use hmd_serve::{FlushPolicy, RoutePolicy, ShardConfig, ShardedFleet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where the machine-readable results land: the repository root, committed
/// alongside the code whose performance it documents.
const JSON_REPORT: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../BENCH_serve_scaling.json"
);

/// Rows each scorer thread enqueues before waiting its tickets: one
/// flat-engine tile, so a pinned scorer drains its own tile inline.
const BURST: usize = 64;

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

fn fresh_detector(document: &str) -> Box<dyn Detector> {
    load(document).expect("detector restores")
}

/// Finds one session key per replica, so scorer thread `t` can pin itself
/// to replica `t % shards`. Raw thread ids would hash into *some* replica
/// each, but hash collisions could leave replicas idle and the matrix
/// would not measure the shard count it claims.
fn keys_per_replica(fleet: &ShardedFleet, replicas: usize, probe: &[f64]) -> Vec<u64> {
    let mut keys = vec![None; replicas];
    let mut found = 0;
    for key in 0..u64::MAX {
        let ticket = fleet.score_keyed("hmd", key, probe).expect("probe enqueue");
        let replica = ticket.replica();
        fleet.flush("hmd").expect("probe flush");
        ticket.wait().expect("probe scores");
        if keys[replica].is_none() {
            keys[replica] = Some(key);
            found += 1;
            if found == replicas {
                break;
            }
        }
    }
    keys.into_iter()
        .map(|k| k.expect("every replica is reachable by some key"))
        .collect()
}

/// Runs `threads` scorer threads until `budget` elapses and returns
/// aggregate samples/sec. Each thread loops: `enqueue` a BURST of
/// single-row requests, then `resolve` every ticket. Only fully-resolved
/// rows count.
fn aggregate_score_rate<T>(
    threads: usize,
    requests: &Matrix,
    budget: Duration,
    enqueue: impl Fn(usize, &[f64]) -> T + Sync,
    resolve: impl Fn(T) + Sync,
) -> f64
where
    T: Send,
{
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let total: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let stop = &stop;
                let enqueue = &enqueue;
                let resolve = &resolve;
                scope.spawn(move || {
                    let mut scored = 0usize;
                    let mut cursor = t * BURST; // de-phase the threads
                    let mut tickets = Vec::with_capacity(BURST);
                    while !stop.load(Ordering::Relaxed) {
                        for _ in 0..BURST {
                            let row = requests.row(cursor % requests.rows());
                            cursor += 1;
                            tickets.push(enqueue(t, row));
                        }
                        for ticket in tickets.drain(..) {
                            resolve(ticket);
                        }
                        scored += BURST;
                        if start.elapsed() >= budget {
                            stop.store(true, Ordering::Relaxed);
                        }
                    }
                    scored
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("scorer")).sum()
    });
    total as f64 / start.elapsed().as_secs_f64()
}

fn bench_serve_scaling(c: &mut Criterion) {
    let scale = ExperimentScale::Smoke;
    let split = scale
        .dvfs_builder()
        .build_split(2021)
        .expect("DVFS corpus generation");
    let detector = detector_config(BaseModel::RandomForest, scale.num_estimators(), false)
        .fit(&split.train, 7)
        .expect("RF pipeline trains");
    let document = save(detector.as_ref()).expect("detector persists");
    let requests = batch_of(split.unknown.features(), 4096);
    let budget = Duration::from_millis(if quick_mode() { 60 } else { 300 });
    // Long enough that the deadline never fires mid-measurement (pinned
    // scorers drain their own tiles inline), short enough that the teardown
    // stall — a thread waiting on a tile its peers stopped feeding — stays
    // bounded.
    let max_wait = Duration::from_millis(50);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    c.json_note("bench", "serve_scaling");
    c.json_note("pipeline", detector.name());
    c.json_note("scale", scale.name());
    c.json_note("cores", cores.to_string());
    c.json_note("burst_rows", BURST.to_string());

    println!("\nserve scaling — {} ({cores} core(s))", detector.name());
    let thread_counts = [1usize, 2, 4, 8];
    let shard_counts = [1usize, 2, 4];
    let mut sharded_rate = std::collections::HashMap::new();

    for &threads in &thread_counts {
        for &shards in &shard_counts {
            let fleet = Arc::new(ShardedFleet::with_config(
                ShardConfig::new(shards)
                    .with_policy(RoutePolicy::KeyAffinity)
                    .with_flush(FlushPolicy::new(BURST, max_wait)),
            ));
            fleet
                .deploy("hmd", fresh_detector(&document))
                .expect("replicates");
            // Thread t pins itself to replica t % shards via a probed
            // per-replica key, so its bursts batch without cross-thread
            // coordination once shards >= threads and every replica
            // genuinely receives traffic.
            let keys = keys_per_replica(&fleet, shards, requests.row(0));
            let rate = aggregate_score_rate(
                threads,
                &requests,
                budget,
                |t, row| {
                    fleet
                        .score_keyed("hmd", keys[t % shards], row)
                        .expect("enqueue")
                },
                |ticket| {
                    ticket.wait().expect("sharded fleet scores");
                },
            );
            sharded_rate.insert((threads, shards), rate);
            println!("  {shards} shard(s), {threads} thread(s):       {rate:>12.0} samples/sec");
            c.json_note(
                &format!("sharded_s{shards}_t{threads}_samples_per_sec"),
                format!("{rate:.0}"),
            );
        }
    }

    // The acceptance gate: aggregate throughput at 4 scorer threads with 4
    // shards vs 1 shard. Sharding removes tile-lock contention and flush
    // coordination between scorers; on a single-core host the threads never
    // actually contend in parallel, so the ratio degenerates towards 1 and
    // the `cores` note is the context for reading it.
    let four_four = sharded_rate[&(4, 4)];
    let ratio = four_four / sharded_rate[&(4, 1)].max(1.0);
    println!("  4 threads: 4 shards / 1 shard = {ratio:.2}x (gate: >= 2x on multicore hosts)");
    c.json_note("t4_s4_over_s1", format!("{ratio:.3}"));
}

criterion_group! {
    name = benches;
    config = {
        let samples = if quick_mode() { 5 } else { 10 };
        Criterion::default()
            .sample_size(samples)
            .with_json_report(JSON_REPORT)
    };
    targets = bench_serve_scaling
}
criterion_main!(benches);
