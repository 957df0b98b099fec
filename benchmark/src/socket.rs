//! `dvfs_socket_stream`: single-row `ScoreRow` frames over one loopback
//! connection to a `FleetServer` in front of a 2-replica `ShardedFleet`.
//!
//! Three phases of equal length: an open loop at 4k rows/s, an open loop at
//! 16k rows/s (each request timed from its *due* time, so a stall also
//! charges the requests queued behind it), and a closed 16-deep pipelined
//! saturation phase. One sender and one receiver thread share the
//! connection; frames are built and parsed only through `net::wire` and
//! `hmd_codec::frame`, so a change to the wire format, the JSON codec or
//! the server loop shows up here first. Per request, the codec, framing and
//! socket take about 39 of roughly 40 µs; `detect_rows` takes about 1 µs.

use crate::hist::Histogram;
use crate::measure::{
    served_cpu_s, supervision_metrics, Metric, OpenLoop, Outcome, Phase, Windows, Workload, WARMUP,
};
use crate::model::{same_report, Family, Layers, Model, Quality};
use crate::sys::{process_cpu_s, thread_cpu_s};
use crate::trace::{sampled, Tracer};
use hmd_codec::frame::{encode_frame, FrameHeader, HEADER_LEN};
use hmd_codec::Json;
use hmd_data::RowsView;
use hmd_serve::net::wire::{FrameKind, Request, Response, PROTOCOL_VERSION};
use hmd_serve::{FleetServer, ServerConfig, ShardedFleet};
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::Thread;
use std::time::{Duration, Instant};

const ENDPOINT: &str = "dvfs";
/// Send-timestamp ring; the sender never runs further ahead than this.
const RING: u64 = 1 << 14;
/// Requests in flight during the saturation phase.
const DEPTH: u64 = 16;

/// How a phase offers load.
#[derive(Debug, Clone, Copy)]
enum Load {
    /// Open loop: one request every `1 / rate` seconds, regardless of
    /// replies.
    Open { rate: f64 },
    /// Closed loop: keep `depth` requests in flight.
    Closed { depth: u64 },
}

/// The workload's state between set-up and measurement.
pub struct SocketStream {
    model: Model,
    mix: Vec<u32>,
    next_request: u64,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    // Declared after the connection so it shuts down after it closes.
    server: FleetServer,
    fleet: Arc<ShardedFleet>,
}

impl Workload for SocketStream {
    fn setup(seed: u64) -> SocketStream {
        let model = Model::build(Family::Dvfs, seed);
        let fleet = Arc::new(ShardedFleet::new(2));
        fleet
            .deploy(ENDPOINT, model.detector_copy())
            .expect("deploys");
        let server = FleetServer::bind(Arc::clone(&fleet), ServerConfig::new()).expect("binds");
        let writer = TcpStream::connect(server.local_addr()).expect("connects over loopback");
        writer.set_nodelay(true).expect("sets TCP_NODELAY");
        let reader = BufReader::new(writer.try_clone().expect("clones the socket"));
        let mix = model.request_mix(seed, 1 << 16);
        SocketStream {
            model,
            mix,
            next_request: 0,
            writer,
            reader,
            server,
            fleet,
        }
    }

    fn model(&self) -> &Model {
        &self.model
    }

    fn measure(&mut self, seconds: f64, mut tracer: Option<&mut Tracer>) -> Outcome {
        let mut outcome = Outcome::default();
        let warmup = self.phase("warmup", Load::Open { rate: 4000.0 }, WARMUP, None);
        outcome.attempted += warmup.0.sent;
        outcome.failed += warmup.0.failed;

        let each = Duration::from_secs_f64(seconds / 3.0);
        let cpu_before = process_cpu_s();
        let mut generator_s = 0.0;
        let mut quality = Quality::default();
        for (name, load) in [
            ("rate4k", Load::Open { rate: 4000.0 }),
            ("rate16k", Load::Open { rate: 16000.0 }),
            ("saturation", Load::Closed { depth: DEPTH }),
        ] {
            let (phase, cpu, q) = self.phase(name, load, each, tracer.as_deref_mut());
            generator_s += cpu;
            quality.merge(&q);
            outcome.attempted += phase.sent;
            outcome.failed += phase.failed;
            outcome.phases.push(phase);
        }
        let served: u64 = outcome.phases.iter().map(|p| p.ok).sum();
        let cpu_s = served_cpu_s(cpu_before, process_cpu_s(), generator_s);
        outcome.cpu_us_per_row = cpu_s * 1e6 / served.max(1) as f64;

        let [rate4k, rate16k, saturation] = [0, 1, 2].map(|i| &outcome.phases[i]);
        outcome.p50_us = rate4k.latency.quantile_us(0.5);
        outcome.rows_per_s = saturation.rows_per_s();
        let mut reported = rate4k.latency_metrics("rate4k.");
        reported.extend(rate16k.latency_metrics("rate16k."));
        reported.extend(saturation.latency_metrics("saturation."));
        for phase in [rate4k, rate16k] {
            if let Some(open) = &phase.open_loop {
                reported.push(Metric::new(
                    format!("{}.generator_late_p99_us", phase.name),
                    open.late.quantile_us(0.99),
                    "us",
                ));
            }
        }
        let stats = self.server.stats();
        reported.push(Metric::new(
            "net.peak_inflight",
            stats.peak_inflight as f64,
            "count",
        ));
        reported.extend(supervision_metrics(&self.fleet, ENDPOINT));
        for (name, value) in quality.percentages() {
            reported.push(Metric::new(name, value, "%"));
        }
        outcome.reported = reported;
        outcome
    }
}

/// Timestamps the sender keeps for traced requests, stored before the
/// request is written so the receiver always finds them.
#[derive(Clone, Copy)]
struct SendMarks {
    request: u64,
    encode_start: Instant,
    encode_end: Instant,
}

/// What the sender and the receiver of one phase share.
struct PhaseState<'a> {
    model: &'a Model,
    mix: &'a [u32],
    /// Request id of the phase's first request.
    base: u64,
    origin: Instant,
    duration: Duration,
    /// Each in-flight request's latency start (its due time in an open
    /// loop, its send time in a closed one), in ns since `origin`.
    stamps: Vec<AtomicU64>,
    /// Replies read so far.
    received: AtomicU64,
    /// Sender timestamps of traced requests, `None` when not tracing.
    marks: Option<Mutex<Vec<SendMarks>>>,
}

impl PhaseState<'_> {
    /// Request id and pool row of the phase's `k`-th request.
    fn request(&self, k: u64) -> (u64, usize) {
        let request = self.base + k;
        (
            request,
            self.mix[(request % self.mix.len() as u64) as usize] as usize,
        )
    }

    fn stamp(&self, k: u64) -> &AtomicU64 {
        &self.stamps[(k % RING) as usize]
    }

    /// Removes and returns the sender's timestamps of a traced request.
    fn take_mark(&self, request: u64) -> Option<SendMarks> {
        let mut marks = self.marks.as_ref()?.lock().expect("marks lock");
        let at = marks.iter().position(|m| m.request == request)?;
        Some(marks.swap_remove(at))
    }
}

impl SocketStream {
    /// Runs one phase; returns it with the load generator's CPU seconds and
    /// the quality tally of its served reports.
    fn phase(
        &mut self,
        name: &'static str,
        load: Load,
        duration: Duration,
        tracer: Option<&mut Tracer>,
    ) -> (Phase, f64, Quality) {
        let layers = tracer.is_some().then(|| self.model.layers());
        let trace = layers.as_ref().zip(tracer);
        let state = PhaseState {
            model: &self.model,
            mix: &self.mix,
            base: self.next_request,
            stamps: (0..RING).map(|_| AtomicU64::new(0)).collect(),
            received: AtomicU64::new(0),
            marks: trace.is_some().then(|| Mutex::new(Vec::new())),
            origin: Instant::now(),
            duration,
        };
        let (writer, reader) = (&mut self.writer, &mut self.reader);
        let ((sent, late, sender_cpu), receiver) = std::thread::scope(|s| {
            let state = &state;
            let sender = s.spawn(move || {
                let cpu = thread_cpu_s();
                let (sent, late) = send(state, writer, load);
                (sent, late, thread_cpu_s() - cpu)
            });
            let sender_thread = sender.thread().clone();
            let receiver = s.spawn(move || {
                let cpu = thread_cpu_s();
                let mut tally = receive(state, reader, &sender_thread, trace);
                tally.cpu_s = thread_cpu_s() - cpu;
                tally
            });
            (
                sender.join().expect("sender thread"),
                receiver.join().expect("receiver thread"),
            )
        });
        self.next_request += sent;
        let phase = Phase {
            name,
            seconds: duration.as_secs_f64(),
            sent,
            ok: receiver.ok,
            failed: sent - receiver.ok,
            rows_per_request: 1,
            latency: receiver.latency,
            window_rates: receiver.windows.rates(),
            open_loop: match load {
                Load::Open { rate } => Some(OpenLoop {
                    interval_us: 1e6 / rate,
                    late,
                }),
                Load::Closed { .. } => None,
            },
        };
        (phase, sender_cpu + receiver.cpu_s, receiver.quality)
    }
}

/// Sleeps most of the way to `due`, then yields until it arrives: a plain
/// sleep overshoots by tens of microseconds, which at 16k rows/s is a whole
/// send interval, while spinning the whole way would take a core from the
/// server on a small machine.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(150) {
            std::thread::sleep(left - Duration::from_micros(100));
        } else {
            std::thread::yield_now();
        }
    }
}

/// One encoded request frame.
pub fn frame(request: &Request) -> Vec<u8> {
    encode_frame(
        PROTOCOL_VERSION,
        request.kind().as_u8(),
        &request.to_json().to_string(),
    )
    .expect("a request fits a frame")
}

/// Sends the phase's requests on schedule, then a `Flush` barrier, which
/// the server answers only after every earlier request: the receiver's
/// end-of-phase marker. Returns the requests sent and the generator's
/// lateness.
fn send(state: &PhaseState<'_>, writer: &mut TcpStream, load: Load) -> (u64, Histogram) {
    let end = state.origin + state.duration;
    let window = match load {
        Load::Open { .. } => RING,
        Load::Closed { depth } => depth,
    };
    let mut late = Histogram::new();
    let mut k = 0u64;
    loop {
        let due = match load {
            Load::Open { rate } => {
                let due = state.origin + Duration::from_secs_f64(k as f64 / rate);
                if due >= end {
                    break;
                }
                wait_until(due);
                Some(due)
            }
            Load::Closed { .. } => None,
        };
        while k - state.received.load(Ordering::Acquire) >= window {
            std::thread::park_timeout(Duration::from_micros(200));
        }
        let now = Instant::now();
        if now >= end {
            break;
        }
        // Open-loop requests are timed from when they were due, so a
        // stall also charges the requests queued behind it.
        let start = due.unwrap_or(now);
        if let Some(due) = due {
            late.record(now - due);
        }
        let nanos = start.saturating_duration_since(state.origin).as_nanos();
        state
            .stamp(k)
            .store(u64::try_from(nanos).unwrap_or(u64::MAX), Ordering::Release);
        let (request, row) = state.request(k);
        let encode_start = Instant::now();
        let bytes = frame(&Request::ScoreRow {
            endpoint: ENDPOINT.to_string(),
            key: None,
            row: state.model.pool.row(row).to_vec(),
        });
        let encode_end = Instant::now();
        if let Some(marks) = state.marks.as_ref().filter(|_| sampled(request)) {
            marks.lock().expect("marks lock").push(SendMarks {
                request,
                encode_start,
                encode_end,
            });
        }
        writer.write_all(&bytes).expect("loopback write");
        k += 1;
    }
    let flush = Request::Flush {
        endpoint: ENDPOINT.to_string(),
    };
    writer.write_all(&frame(&flush)).expect("loopback write");
    (k, late)
}

/// What the receiver thread saw.
struct Received {
    ok: u64,
    latency: Histogram,
    windows: Windows,
    quality: Quality,
    cpu_s: f64,
}

fn read_response(reader: &mut BufReader<TcpStream>) -> Response {
    let mut head = [0u8; HEADER_LEN];
    reader.read_exact(&mut head).expect("loopback read");
    let header = FrameHeader::parse(&head).expect("server frames are well formed");
    let mut payload = vec![0u8; header.len as usize];
    reader.read_exact(&mut payload).expect("loopback read");
    let text = std::str::from_utf8(&payload).expect("payloads are UTF-8");
    let json = Json::parse(text).expect("payloads are JSON");
    let kind = FrameKind::from_u8(header.kind).expect("known frame kind");
    Response::from_wire(kind, &json).expect("well-formed response")
}

/// Reads replies in request order until the end-of-phase `Flush` reply,
/// timing each and checking it against the reference.
fn receive(
    state: &PhaseState<'_>,
    reader: &mut BufReader<TcpStream>,
    sender: &Thread,
    mut trace: Option<(&Layers, &mut Tracer)>,
) -> Received {
    let mut out = Received {
        ok: 0,
        latency: Histogram::new(),
        windows: Windows::new(state.origin, state.duration),
        quality: Quality::default(),
        cpu_s: 0.0,
    };
    let model = state.model;
    let mut k = 0u64;
    loop {
        let response = read_response(reader);
        let now = Instant::now();
        let report = match response {
            Response::Flush { .. } => break,
            Response::ScoreRow(scored) => Some(scored.report),
            _ => None,
        };
        let (request, row) = state.request(k);
        let start = state.origin + Duration::from_nanos(state.stamp(k).load(Ordering::Acquire));
        out.latency.record(now - start);
        out.windows.add(now, 1);
        k += 1;
        state.received.store(k, Ordering::Release);
        sender.unpark();
        let Some(report) = report else {
            continue;
        };
        let mut correct = same_report(&report, &model.reference[row]);
        if let Some((layers, tracer)) = trace.as_mut().filter(|_| sampled(request)) {
            let mark = state.take_mark(request);
            if tracer.wants(request) {
                let mut spans = tracer.request(request);
                let root = spans.root("client.request", start, now);
                if let Some(mark) = mark {
                    spans.span(
                        "codec.encode",
                        Some(root),
                        mark.encode_start,
                        mark.encode_end,
                    );
                    spans.span("net.roundtrip", Some(root), mark.encode_end, now);
                }
                // The replay runs after the reply, outside the root's
                // interval: the server's own scoring is inside
                // `net.roundtrip`, and the replay splits it by layer.
                let single = RowsView::single(model.pool.row(row));
                let replayed = layers.replay(single, &mut spans, Some(root));
                correct &= same_report(&replayed[0], &model.reference[row]);
            }
        }
        out.ok += u64::from(correct);
        out.quality
            .add(model.is_known(row), model.truth[row], &report);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_reference_fails_the_run() {
        let mut workload = SocketStream::setup(5);
        for report in &mut workload.model.reference {
            report.prediction.entropy += 1.0;
        }
        let outcome = workload.measure(0.3, None);
        assert!(outcome.attempted > 0);
        assert_eq!(
            outcome.failed, outcome.attempted,
            "every served report must mismatch"
        );
    }
}
