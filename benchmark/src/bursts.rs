//! `dvfs_fleet_bursts`: an in-process 2-replica `ShardedFleet` with
//! `KeyAffinity` routing. Each of two callers is pinned to its own replica
//! and sends closed-loop bursts of 64 `score_keyed` calls, then waits on
//! the tickets. Each burst fills one 64-row tile, which drains inline on
//! the call that fills it.
//!
//! Admission, tile fill, drain and ticket resolution make up most of the
//! per-row cost here, with no wire and no deadline waits.

use crate::hist::Histogram;
use crate::measure::{
    served_cpu_s, supervision_metrics, Metric, Outcome, Phase, Windows, Workload, WARMUP,
};
use crate::model::{same_report, Family, Layers, Model, Quality};
use crate::sys::process_cpu_s;
use crate::trace::Tracer;
use hmd_data::RowsView;
use hmd_serve::{RoutePolicy, ShardConfig, ShardTicket, ShardedFleet};
use std::time::{Duration, Instant};

const ENDPOINT: &str = "dvfs";
/// Requests per burst: one flat-engine tile.
pub const BURST: usize = 64;
/// Callers, one per replica.
const CALLERS: usize = 2;
/// Request ids of caller `c` start at `c << CALLER_SHIFT`.
const CALLER_SHIFT: u32 = 40;

/// The workload's state between set-up and measurement.
pub struct FleetBursts {
    model: Model,
    fleet: ShardedFleet,
    /// Routing key of each caller, chosen so caller `c` lands on replica `c`.
    keys: [u64; CALLERS],
    mix: Vec<u32>,
    next_burst: u64,
}

/// What one caller saw.
struct Caller {
    start: Instant,
    sent: u64,
    ok: u64,
    latency: Histogram,
    windows: Windows,
    quality: Quality,
    tracer: Option<Tracer>,
}

impl Workload for FleetBursts {
    fn setup(seed: u64) -> FleetBursts {
        let model = Model::build(Family::Dvfs, seed);
        let fleet = ShardedFleet::with_config(
            ShardConfig::new(CALLERS).with_policy(RoutePolicy::KeyAffinity),
        );
        fleet
            .deploy(ENDPOINT, model.detector_copy())
            .expect("deploys");
        let mut keys = [u64::MAX; CALLERS];
        for key in 0u64.. {
            let ticket = fleet
                .score_keyed(ENDPOINT, key, model.pool.row(0))
                .expect("admits");
            let replica = ticket.replica();
            fleet.flush(ENDPOINT).expect("flushes");
            ticket.wait().expect("scores");
            if keys[replica] == u64::MAX {
                keys[replica] = key;
            }
            if keys.iter().all(|&k| k != u64::MAX) {
                break;
            }
        }
        let mix = model.request_mix(seed, 1 << 16);
        FleetBursts {
            model,
            fleet,
            keys,
            mix,
            next_burst: 0,
        }
    }

    fn model(&self) -> &Model {
        &self.model
    }

    fn measure(&mut self, seconds: f64, mut tracer: Option<&mut Tracer>) -> Outcome {
        let layers = tracer.is_some().then(|| self.model.layers());
        let warmup = self.run(WARMUP, None);
        let duration = Duration::from_secs_f64(seconds);
        let cpu_before = process_cpu_s();
        let callers = self.run(duration, layers.as_ref());
        let cpu_s = served_cpu_s(cpu_before, process_cpu_s(), 0.0);

        let mut latency = Histogram::new();
        let mut windows = Windows::new(callers[0].start, duration);
        let mut quality = Quality::default();
        let (mut sent, mut ok) = (0, 0);
        for caller in callers {
            latency.merge(&caller.latency);
            windows.merge(&caller.windows);
            quality.merge(&caller.quality);
            sent += caller.sent;
            ok += caller.ok;
            if let (Some(into), Some(spans)) = (tracer.as_deref_mut(), caller.tracer) {
                into.absorb(spans);
            }
        }
        let phase = Phase {
            name: "bursts",
            seconds,
            sent,
            ok,
            failed: sent - ok,
            rows_per_request: 1,
            latency,
            window_rates: windows.rates(),
            open_loop: None,
        };
        let mut reported = phase.latency_metrics("");
        reported.retain(|m| m.name != "p50_us");
        reported.extend(supervision_metrics(&self.fleet, ENDPOINT));
        for (name, value) in quality.percentages() {
            reported.push(Metric::new(name, value, "%"));
        }
        let warmup_sent: u64 = warmup.iter().map(|c| c.sent).sum();
        let warmup_ok: u64 = warmup.iter().map(|c| c.ok).sum();
        Outcome {
            rows_per_s: phase.rows_per_s(),
            p50_us: phase.latency.quantile_us(0.5),
            cpu_us_per_row: cpu_s * 1e6 / ok.max(1) as f64,
            attempted: warmup_sent + sent,
            failed: (warmup_sent - warmup_ok) + (sent - ok),
            phases: vec![phase],
            reported,
        }
    }
}

impl FleetBursts {
    /// Runs both callers for `duration`; with layers, traces their sampled
    /// requests.
    fn run(&mut self, duration: Duration, layers: Option<&Layers>) -> Vec<Caller> {
        let start = Instant::now();
        let first_burst = self.next_burst;
        let callers: Vec<Caller> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CALLERS)
                .map(|c| {
                    let this = &*self;
                    s.spawn(move || this.caller(c, first_burst, start, duration, layers))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("caller thread"))
                .collect()
        });
        let bursts = callers.iter().map(|c| c.sent).max().unwrap_or(0) / BURST as u64;
        self.next_burst += bursts;
        callers
    }

    fn caller(
        &self,
        c: usize,
        first_burst: u64,
        start: Instant,
        duration: Duration,
        layers: Option<&Layers>,
    ) -> Caller {
        let mut out = Caller {
            start,
            sent: 0,
            ok: 0,
            latency: Histogram::new(),
            windows: Windows::new(start, duration),
            quality: Quality::default(),
            tracer: layers.map(|_| Tracer::new(start)),
        };
        let mut tickets: Vec<(u64, usize, Instant, Instant, ShardTicket)> =
            Vec::with_capacity(BURST);
        let mut burst = first_burst;
        while start.elapsed() < duration {
            for j in 0..BURST {
                let request = ((c as u64) << CALLER_SHIFT) + burst * BURST as u64 + j as u64;
                let row = self.mix[(request % self.mix.len() as u64) as usize] as usize;
                let enqueued = Instant::now();
                let ticket = self
                    .fleet
                    .score_keyed(ENDPOINT, self.keys[c], self.model.pool.row(row))
                    .expect("admission never sheds a 64-row burst");
                tickets.push((request, row, enqueued, Instant::now(), ticket));
            }
            for (request, row, enqueued, admitted, ticket) in tickets.drain(..) {
                let waited = Instant::now();
                let scored = ticket.wait();
                let resolved = Instant::now();
                out.sent += 1;
                out.latency.record(resolved - enqueued);
                out.windows.add(resolved, 1);
                let Ok(scored) = scored else {
                    continue;
                };
                let mut correct = same_report(&scored.report, &self.model.reference[row]);
                if let (Some(layers), Some(tracer)) = (layers, out.tracer.as_mut()) {
                    if tracer.wants(request) {
                        let mut spans = tracer.request(request);
                        let root = spans.root_id();
                        let admit = if request % BURST as u64 == BURST as u64 - 1 {
                            "serve.fill_drain"
                        } else {
                            "serve.enqueue"
                        };
                        spans.span(admit, Some(root), enqueued, admitted);
                        spans.span("serve.wait", Some(root), waited, resolved);
                        spans.root("client.request", enqueued, resolved);
                        let replayed = layers.replay(
                            RowsView::single(self.model.pool.row(row)),
                            &mut spans,
                            Some(root),
                        );
                        correct &= same_report(&replayed[0], &self.model.reference[row]);
                    }
                }
                out.ok += u64::from(correct);
                out.quality.add(
                    self.model.is_known(row),
                    self.model.truth[row],
                    &scored.report,
                );
            }
            burst += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_reference_fails_the_run() {
        let mut workload = FleetBursts::setup(5);
        let clean = workload.measure(0.2, None);
        assert_eq!(clean.failed, 0);
        workload.model.reference[workload.mix[3] as usize].decision =
            hmd_core::trusted::Decision::Escalate;
        workload.model.reference[workload.mix[3] as usize]
            .prediction
            .entropy = -1.0;
        let outcome = workload.measure(0.2, None);
        assert!(
            outcome.failed > 0,
            "the corrupted row was served and must mismatch"
        );
        assert!(outcome.failed < outcome.attempted);
    }
}
