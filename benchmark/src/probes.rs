//! Per-layer probes of a traced run: each layer's public entry point timed
//! on its own, on the workload's model and rows. They explain the
//! end-to-end numbers; README.md maps each to the end-to-end metric it
//! should move.

use crate::measure::{median, Metric};
use crate::model::Model;
use crate::socket::frame;
use hmd_codec::frame::encode_frame;
use hmd_codec::Json;
use hmd_core::detector::{load, save, DetectorExt};
use hmd_data::Matrix;
use hmd_loop::{DriftPolicy, LoopConfig, LoopSupervisor};
use hmd_serve::net::wire::{Request, Response, PROTOCOL_VERSION};
use hmd_serve::{
    ClientConfig, FleetClient, FleetServer, RoutePolicy, ServerConfig, ShardConfig, ShardedFleet,
    ShardedReport,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const ENDPOINT: &str = "probe";

/// Median wall time of `reps` calls of `f`.
fn time(reps: usize, mut f: impl FnMut()) -> Duration {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    Duration::from_secs_f64(median(&samples))
}

/// `n` rows cycled from the pool.
fn batch_of(pool: &Matrix, n: usize) -> Matrix {
    let rows: Vec<Vec<f64>> = (0..n).map(|i| pool.row(i % pool.rows()).to_vec()).collect();
    Matrix::from_rows(&rows).expect("pool rows share one width")
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ns_per_row(d: Duration, rows: usize) -> f64 {
    d.as_secs_f64() * 1e9 / rows as f64
}

fn fresh_fleet(model: &Model, config: ShardConfig) -> ShardedFleet {
    let fleet = ShardedFleet::with_config(config);
    fleet
        .deploy(ENDPOINT, model.detector_copy())
        .expect("deploys");
    fleet
}

/// Runs every probe; the metrics come out in the order `BENCHMARK.json`
/// lists them.
pub fn run(model: &Model) -> Vec<Metric> {
    let cost = model.cost;
    let mut out = Vec::new();
    let detector = model.detector.as_ref();
    let layers = model.layers();
    let big = batch_of(&model.pool, 4096);
    let tile = batch_of(&model.pool, 64);

    // corpus and ml
    out.push(Metric::new(
        "corpus.gen_ms_per_row",
        cost.gen_s * 1e3 / cost.gen_rows.max(1) as f64,
        "ms",
    ));
    out.push(Metric::new("ml.fit_ms", cost.fit_s * 1e3, "ms"));
    let window = model
        .train
        .features()
        .rows_view(0..model.train.len().min(192));
    let labels = &model.train.labels()[..window.rows()];
    out.push(Metric::new(
        "ml.refit_ms",
        ms(time(5, || {
            black_box(
                model
                    .recipe
                    .refit_on_window(&window, labels, 7)
                    .expect("refits"),
            );
        })),
        "ms",
    ));
    out.push(Metric::new(
        "data.scale_ns_per_row",
        ns_per_row(
            time(20, || {
                black_box(layers.scaler.transform(&big).expect("scales"));
            }),
            big.rows(),
        ),
        "ns",
    ));
    let scaled = layers.scaler.transform(&big).expect("scales");
    out.push(Metric::new(
        "ml.votes_ns_per_row",
        ns_per_row(
            time(20, || {
                black_box(layers.ensemble.malware_votes_batch(&scaled));
            }),
            scaled.rows(),
        ),
        "ns",
    ));

    // core
    for (name, rows, reps) in [
        ("core.detect_ns_per_row.b1", 1, 2000),
        ("core.detect_ns_per_row.b64", 64, 500),
        ("core.detect_ns_per_row.b4096", 4096, 20),
    ] {
        let view = big.rows_view(0..rows);
        let d = time(reps, || {
            black_box(detector.detect_batch(view).expect("scores"));
        });
        out.push(Metric::new(name, ns_per_row(d, rows), "ns"));
    }
    let document = save(detector).expect("persists");
    out.push(Metric::new(
        "core.save_ms",
        ms(time(10, || {
            black_box(save(detector).expect("persists"));
        })),
        "ms",
    ));
    out.push(Metric::new(
        "core.load_ms",
        ms(time(10, || {
            black_box(load(&document).expect("loads"));
        })),
        "ms",
    ));

    // codec
    let row = model.pool.row(0).to_vec();
    let request = Request::ScoreRow {
        endpoint: ENDPOINT.to_string(),
        key: None,
        row: row.clone(),
    };
    let request_bytes = frame(&request).len();
    out.push(Metric::new(
        "codec.encode_us",
        us(time(2000, || {
            black_box(frame(&request));
        })),
        "us",
    ));
    let reply = Response::ScoreRow(ShardedReport {
        replica: 0,
        version: 1,
        report: model.reference[0],
    });
    let reply_text = reply.to_json().to_string();
    let reply_bytes = encode_frame(PROTOCOL_VERSION, reply.kind().as_u8(), &reply_text)
        .expect("encodes")
        .len();
    out.push(Metric::new(
        "codec.decode_us",
        us(time(2000, || {
            let json = Json::parse(&reply_text).expect("parses");
            black_box(Response::from_wire(reply.kind(), &json).expect("decodes"));
        })),
        "us",
    ));
    out.push(Metric::new(
        "codec.request_bytes",
        request_bytes as f64,
        "count",
    ));
    out.push(Metric::new(
        "codec.reply_bytes",
        reply_bytes as f64,
        "count",
    ));

    // net
    {
        let fleet = Arc::new(fresh_fleet(model, ShardConfig::new(2)));
        let server = FleetServer::bind(Arc::clone(&fleet), ServerConfig::new()).expect("binds");
        let mut client =
            FleetClient::connect(server.local_addr(), ClientConfig::new()).expect("connects");
        for _ in 0..200 {
            client.score(ENDPOINT, &row).expect("scores");
        }
        out.push(Metric::new(
            "net.client_rtt_us",
            us(time(2000, || {
                black_box(client.score(ENDPOINT, &row).expect("scores"));
            })),
            "us",
        ));
        drop(client);
        server.shutdown();
    }

    // serve: one 64-row burst per rep, on a keyed 2-replica fleet
    {
        let fleet = fresh_fleet(
            model,
            ShardConfig::new(2).with_policy(RoutePolicy::KeyAffinity),
        );
        let (mut enqueue, mut fill, mut wait) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..300 {
            let mut tickets = Vec::with_capacity(64);
            for (i, r) in tile.iter_rows().enumerate() {
                let start = Instant::now();
                tickets.push(fleet.score_keyed(ENDPOINT, 1, r).expect("admits"));
                let took = start.elapsed().as_secs_f64();
                if i == 63 {
                    fill.push(took);
                } else {
                    enqueue.push(took);
                }
            }
            for ticket in tickets {
                let start = Instant::now();
                black_box(ticket.wait().expect("scores"));
                wait.push(start.elapsed().as_secs_f64());
            }
        }
        out.push(Metric::new(
            "serve.enqueue_us",
            median(&enqueue) * 1e6,
            "us",
        ));
        out.push(Metric::new(
            "serve.fill_drain_us",
            median(&fill) * 1e6,
            "us",
        ));
        out.push(Metric::new("serve.wait_us", median(&wait) * 1e6, "us"));
    }

    // serve write path, and the loop over it
    {
        out.push(Metric::new(
            "serve.deploy_ms",
            ms(time(10, || {
                black_box(fresh_fleet(model, ShardConfig::new(2)));
            })),
            "ms",
        ));
        let fleet = fresh_fleet(model, ShardConfig::new(2));
        let healthy = batch_of(&model.pool.rows_view(0..model.known_rows).to_matrix(), 32);
        let monitoring = time(200, || {
            black_box(fleet.score_batch(ENDPOINT, &healthy).expect("scores"));
        });
        // Challengers are loaded outside the timed calls.
        let (mut shadow, mut promote) = (Vec::new(), Vec::new());
        for _ in 0..10 {
            let challenger = load(&document).expect("loads");
            let start = Instant::now();
            fleet.deploy_shadow(ENDPOINT, challenger).expect("shadows");
            shadow.push(start.elapsed().as_secs_f64());
        }
        let shadowing = time(200, || {
            black_box(fleet.score_batch(ENDPOINT, &healthy).expect("scores"));
        });
        for _ in 0..10 {
            let challenger = load(&document).expect("loads");
            fleet.deploy_shadow(ENDPOINT, challenger).expect("shadows");
            let start = Instant::now();
            fleet.promote_shadow(ENDPOINT).expect("promotes");
            promote.push(start.elapsed().as_secs_f64());
        }
        out.push(Metric::new(
            "serve.deploy_shadow_ms",
            median(&shadow) * 1e3,
            "ms",
        ));
        out.push(Metric::new(
            "serve.promote_ms",
            median(&promote) * 1e3,
            "ms",
        ));
        out.push(Metric::new(
            "serve.score_batch_us.monitoring",
            us(monitoring),
            "us",
        ));
        out.push(Metric::new(
            "serve.score_batch_us.shadowing",
            us(shadowing),
            "us",
        ));

        let fleet = Arc::new(fresh_fleet(model, ShardConfig::new(2)));
        let mut config = LoopConfig::new(model.recipe.clone());
        config.drift = DriftPolicy {
            lambda: 3.0,
            ..DriftPolicy::default()
        };
        let mut supervisor = LoopSupervisor::new(Arc::clone(&fleet), ENDPOINT, config);
        let mut ticks = Vec::new();
        for _ in 0..50 {
            fleet.score_batch(ENDPOINT, &healthy).expect("scores");
            for r in healthy.iter_rows() {
                supervisor.ingest(r, hmd_data::Label::Benign);
            }
            let start = Instant::now();
            let _ = supervisor.tick();
            ticks.push(start.elapsed().as_secs_f64());
        }
        out.push(Metric::new(
            "loop.tick_us.monitoring",
            median(&ticks) * 1e6,
            "us",
        ));
    }
    out
}
