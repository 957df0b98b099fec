//! Seeded transport chaos tests: the wire protocol under scheduled
//! misbehaviour.
//!
//! Every test runs a real loopback [`FleetServer`] over a supervised
//! [`ShardedFleet`] and drives it through [`FleetClient`] (or a raw
//! socket, for the protocol-violation cases) while the transport half of a
//! deterministic [`FaultPlan`] injects dropped connections, slow reads,
//! truncated frames and garbage frames. The contracts proved here:
//!
//! * rows that survive the chaos score **bit-identically** to calling
//!   `detect_batch` on the same model directly — the process boundary
//!   never perturbs a result;
//! * the client recovers from every connection fault through reconnect
//!   plus seeded exponential backoff, and only for idempotent requests;
//! * backpressure **sheds instead of buffering**: row budgets surface as
//!   `Overloaded` error frames, pipelining is bounded by the in-flight
//!   budget, and connections beyond the cap are refused with one frame;
//! * protocol violations (version skew, oversized frames) are answered
//!   with stable error codes and a closed connection.

use hmd_codec::frame::{encode_frame, FrameHeader, HEADER_LEN};
use hmd_codec::Json;
use hmd_core::detector::{Detector, DetectorBackend, DetectorConfig, DetectorExt};
use hmd_data::{Dataset, Label, Matrix};
use hmd_serve::net::wire::{
    FrameKind, Request, Response, CODE_FRAME_TOO_LARGE, CODE_PROTOCOL, CODE_VERSION_MISMATCH,
    PROTOCOL_VERSION,
};
use hmd_serve::{
    AdmissionPolicy, BreakerState, ClientConfig, FaultPlan, FleetClient, FleetError, FleetServer,
    FlushPolicy, NetError, RetryPolicy, ServerConfig, ShardConfig, ShardedFleet, ShardedReport,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn blobs(n: usize, features: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for _ in 0..n {
        let malware = rng.gen_bool(0.5);
        let c = if malware { 2.0 } else { -2.0 };
        rows.push(
            (0..features)
                .map(|f| {
                    if f < 2 {
                        c + rng.gen_range(-0.8..0.8)
                    } else {
                        rng.gen_range(-1.0..1.0)
                    }
                })
                .collect(),
        );
        labels.push(Label::from(malware));
    }
    Dataset::new(Matrix::from_rows(&rows).unwrap(), labels).unwrap()
}

fn request_matrix(rows: usize, features: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<f64> = (0..rows * features)
        .map(|_| rng.gen_range(-3.0..3.0))
        .collect();
    Matrix::from_vec(rows, features, data).unwrap()
}

/// Seeded training is deterministic: the same arguments produce
/// bit-identical detectors, which is how these tests hold a local
/// reference copy of the model the server serves.
fn trained(num_estimators: usize, seed: u64) -> Box<dyn Detector> {
    DetectorConfig::trusted(DetectorBackend::random_forest())
        .with_num_estimators(num_estimators)
        .with_entropy_threshold(0.4)
        .fit(&blobs(140, 4, 11), seed)
        .expect("training succeeds")
}

fn assert_bit_identical(
    a: &hmd_core::trusted::DetectionReport,
    b: &hmd_core::trusted::DetectionReport,
    context: &str,
) {
    assert_eq!(
        a.prediction.entropy.to_bits(),
        b.prediction.entropy.to_bits(),
        "{context}: entropy"
    );
    assert_eq!(
        a.prediction.malware_vote_fraction.to_bits(),
        b.prediction.malware_vote_fraction.to_bits(),
        "{context}: vote fraction"
    );
    assert_eq!(a, b, "{context}");
}

/// A served fleet with one deployed endpoint, plus the reference direct
/// scores for `rows` request rows.
fn serve(
    seed: u64,
    rows: usize,
    config: ServerConfig,
) -> (
    FleetServer,
    Arc<ShardedFleet>,
    Matrix,
    Vec<hmd_core::trusted::DetectionReport>,
) {
    serve_replicas(2, seed, rows, config)
}

fn serve_replicas(
    replicas: usize,
    seed: u64,
    rows: usize,
    config: ServerConfig,
) -> (
    FleetServer,
    Arc<ShardedFleet>,
    Matrix,
    Vec<hmd_core::trusted::DetectionReport>,
) {
    let fleet = Arc::new(ShardedFleet::with_config(
        ShardConfig::new(replicas).with_flush(FlushPolicy::new(4096, Duration::from_secs(10))),
    ));
    fleet.deploy("hmd", trained(9, seed)).expect("deploys");
    let requests = request_matrix(rows, 4, seed.wrapping_add(1));
    let direct = trained(9, seed).detect_batch(&requests).expect("direct");
    let server = FleetServer::bind(Arc::clone(&fleet), config).expect("binds");
    (server, fleet, requests, direct)
}

/// Fast, deterministic retry for tests: generous attempts, millisecond
/// backoff.
fn fast_retry() -> RetryPolicy {
    RetryPolicy::new()
        .with_max_attempts(6)
        .with_backoff(Duration::from_millis(1), Duration::from_millis(8))
        .with_jitter_seed(42)
}

fn client(server: &FleetServer) -> FleetClient {
    FleetClient::connect(
        server.local_addr(),
        ClientConfig::new().with_retry(fast_retry()),
    )
    .expect("connects")
}

/// With no faults at all, every request kind round-trips and single-row
/// scores are bit-identical to direct scoring — the wire codec never
/// perturbs an f64.
#[test]
fn clean_round_trip_is_bit_identical_to_direct_scoring() {
    let (server, _fleet, requests, direct) = serve(101, 8, ServerConfig::new());
    let mut client = client(&server);

    for (row, expected) in direct.iter().enumerate() {
        let report = client.score("hmd", requests.row(row)).expect("scores");
        assert_eq!(report.version, 1);
        assert_bit_identical(&report.report, expected, &format!("row {row}"));
    }
    let batch = client.score_batch("hmd", &requests).expect("batch scores");
    assert_eq!(batch.len(), direct.len());
    for (row, (scored, expected)) in batch.iter().zip(direct.iter()).enumerate() {
        assert_bit_identical(&scored.report, expected, &format!("batch row {row}"));
    }
    assert_eq!(client.flush("hmd").expect("flush"), 0, "tiles were drained");
    let health = client.health("hmd").expect("health");
    assert_eq!(health.len(), 2, "one snapshot per replica");
    assert!(health.iter().all(|h| h.breaker == BreakerState::Closed));
    assert_eq!(client.stats().retries, 0, "no faults, no retries");

    let stats = server.stats();
    assert_eq!(stats.accepted, 1);
    assert_eq!(stats.faults_injected, 0);
    assert!(stats.frames_read >= 11, "8 scores + batch + flush + health");
}

/// `ScoreRow` request frames for `rows`, concatenated for one write.
fn score_frames(requests: &Matrix, rows: std::ops::Range<usize>) -> Vec<u8> {
    let mut burst = Vec::new();
    for row in rows {
        let request = Request::ScoreRow {
            endpoint: "hmd".to_string(),
            key: None,
            row: requests.row(row).to_vec(),
        };
        let payload = request.to_json().to_string();
        burst.extend(
            encode_frame(PROTOCOL_VERSION, request.kind().as_u8(), &payload).expect("frame"),
        );
    }
    burst
}

/// The reference bytes of a `ScoreRow` reply: the tree encoding of the
/// report direct scoring produced, as served by replica 0 at version 1.
fn reference_reply(report: &hmd_core::trusted::DetectionReport) -> Vec<u8> {
    let response = Response::ScoreRow(ShardedReport {
        replica: 0,
        version: 1,
        report: *report,
    });
    encode_frame(
        PROTOCOL_VERSION,
        response.kind().as_u8(),
        &response.to_json().to_string(),
    )
    .expect("frame")
}

/// Splits the first whole frame off `bytes`; `None` when fewer bytes than
/// a whole frame remain.
fn split_frame(bytes: &[u8]) -> Option<(&[u8], &[u8])> {
    let header: [u8; HEADER_LEN] = bytes.get(..HEADER_LEN)?.try_into().ok()?;
    let len =
        HEADER_LEN + u32::from_be_bytes([header[4], header[5], header[6], header[7]]) as usize;
    (bytes.len() >= len).then(|| bytes.split_at(len))
}

/// A client that pipelines rows and then half-closes its socket still gets
/// every reply, in order and byte-identical to the tree encoding of direct
/// scoring, before the server closes. (The server used to treat the EOF as
/// a disconnect and drop every pending reply.)
#[test]
fn a_half_closed_pipeline_still_gets_every_reply() {
    let (server, _fleet, requests, direct) = serve_replicas(1, 120, 3, ServerConfig::new());
    let mut socket = TcpStream::connect(server.local_addr()).expect("connects");
    socket
        .write_all(&score_frames(&requests, 0..3))
        .expect("burst written");
    socket.shutdown(Shutdown::Write).expect("half-closes");
    let mut replies = Vec::new();
    socket.read_to_end(&mut replies).expect("reads to EOF");
    let mut rest = replies.as_slice();
    for (row, reference) in direct.iter().enumerate() {
        let (frame, tail) = split_frame(rest).unwrap_or_else(|| panic!("reply {row} missing"));
        assert_eq!(frame, reference_reply(reference).as_slice(), "reply {row}");
        rest = tail;
    }
    assert!(rest.is_empty(), "three replies, then EOF");
}

/// Malformed and truncated payloads inside a correctly framed stream are
/// answered in place with a code-102 error frame, in request order, and
/// the connection stays open for the next request.
#[test]
fn malformed_payloads_get_protocol_errors_and_the_connection_stays_open() {
    let (server, _fleet, requests, direct) = serve_replicas(1, 121, 2, ServerConfig::new());
    let mut socket = TcpStream::connect(server.local_addr()).expect("connects");
    let good = encode_frame(
        PROTOCOL_VERSION,
        FrameKind::ScoreRow.as_u8(),
        &Request::ScoreRow {
            endpoint: "hmd".to_string(),
            key: None,
            row: requests.row(0).to_vec(),
        }
        .to_json()
        .to_string(),
    )
    .expect("frame");
    let valid = String::from_utf8(good[HEADER_LEN..].to_vec()).expect("UTF-8");
    let truncated = &valid.as_bytes()[..valid.len() - 3];
    let bad: Vec<(u8, &[u8])> = vec![
        (0x01, b"not json"),
        (0x01, truncated),
        (0x01, b""),
        (0x01, br#"{"endpoint":"hmd","key":null}"#),
        (0x01, br#"{"endpoint":"hmd","key":null,"row":["x"]}"#),
        (0x01, br#"{"endpoint":"hmd","key":-4,"row":[1,2,3,4]}"#),
        (
            0x01,
            br#"{"endpoint":"hmd","key":null,"row":[1,2,3,4]} trailing"#,
        ),
        (0x01, b"{\"endpoint\":\"\xff\",\"key\":null,\"row\":[1]}"),
        (0x03, br#"{"endpoint":["hmd"]}"#),
        (0x02, br#"{"endpoint":"hmd","rows":[[1,2],[3,"four"]]}"#),
    ];
    for (kind, payload) in bad {
        // A valid row on each side of the bad frame, all in one write:
        // the error holds its slot in the pipeline.
        let mut burst = good.clone();
        burst.extend(
            FrameHeader {
                version: PROTOCOL_VERSION,
                kind,
                len: payload.len() as u32,
            }
            .encode(),
        );
        burst.extend_from_slice(payload);
        burst.extend(score_frames(&requests, 1..2));
        socket.write_all(&burst).expect("burst written");

        let context = String::from_utf8_lossy(payload);
        let (header, _) = read_frame(&mut socket).expect("first reply");
        assert_eq!(header.kind, 0x81, "{context}");
        let (header, payload) = read_frame(&mut socket).expect("error frame");
        assert_eq!(header.kind, 0xFF, "{context}");
        let json = Json::parse(&payload).expect("payload parses");
        let code = json.get("code").and_then(Json::as_i64).expect("code");
        assert_eq!(code, i64::from(CODE_PROTOCOL), "{context}");
        let (header, payload) = read_frame(&mut socket).expect("last reply");
        assert_eq!(header.kind, 0x81, "{context}");
        let entropy = Json::parse(&payload)
            .and_then(|json| json.get("entropy").and_then(Json::as_f64))
            .expect("entropy");
        assert_eq!(entropy.to_bits(), direct[1].prediction.entropy.to_bits());
    }
}

/// Transport faults that land inside a pipelined burst keep their
/// per-frame numbering and exact bytes: with frames 1–3 answered in one
/// write, `truncate_frame(3)` sends frames 1–2 whole plus the first half of
/// frame 3, then closes; `garbage_frame(3)` sends frame 3 whole with its
/// magic overwritten. Frames 1–2 are byte-identical to the tree encoding
/// of direct scoring either way.
#[test]
fn faults_inside_a_pipelined_burst_keep_earlier_frames_whole() {
    for truncate in [true, false] {
        let plan = if truncate {
            FaultPlan::new().truncate_frame(3)
        } else {
            FaultPlan::new().garbage_frame(3)
        };
        let (server, _fleet, requests, direct) =
            serve_replicas(1, 122, 3, ServerConfig::new().with_fault_plan(plan));
        let mut socket = TcpStream::connect(server.local_addr()).expect("connects");
        socket
            .write_all(&score_frames(&requests, 0..3))
            .expect("burst written");
        socket.shutdown(Shutdown::Write).expect("half-closes");
        let mut replies = Vec::new();
        socket.read_to_end(&mut replies).expect("reads to EOF");

        let mut rest = replies.as_slice();
        for (row, reference) in direct.iter().take(2).enumerate() {
            let (frame, tail) = split_frame(rest).expect("whole frame");
            assert_eq!(
                frame,
                reference_reply(reference).as_slice(),
                "frame {}",
                row + 1
            );
            rest = tail;
        }
        let mut third = reference_reply(&direct[2]);
        if truncate {
            third.truncate(third.len() / 2);
        } else {
            third[..2].copy_from_slice(b"XX");
        }
        assert_eq!(
            rest,
            third.as_slice(),
            "truncate {truncate}: frame 3, then EOF"
        );
        assert_eq!(server.stats().faults_injected, 1);
    }
}

/// Deadlines too large to represent mean "no deadline" on both sides of the
/// wire: the server resolves pipelined rows through `wait_deadline` with
/// the remainder of a `Duration::MAX` request deadline, and the client
/// waits for responses without a read timeout. `Instant + Duration::MAX`
/// panics, so neither side may compute these deadlines by plain addition.
#[test]
fn unrepresentable_deadlines_mean_no_deadline_across_the_wire() {
    let (server, _fleet, requests, direct) = serve(
        111,
        4,
        ServerConfig::new().with_request_deadline(Duration::MAX),
    );
    let mut client = FleetClient::connect(
        server.local_addr(),
        ClientConfig::new()
            .with_retry(fast_retry())
            .with_response_timeout(Duration::MAX),
    )
    .expect("connects");

    for (row, expected) in direct.iter().enumerate() {
        let report = client.score("hmd", requests.row(row)).expect("scores");
        assert_bit_identical(&report.report, expected, &format!("row {row}"));
    }
    assert_eq!(client.stats().retries, 0, "no request was lost to a panic");
}

/// A dropped connection mid-stream: the client reconnects, retries with
/// backoff, and every row still scores bit-identically.
#[test]
fn dropped_connection_recovers_via_reconnect_and_backoff() {
    let (server, _fleet, requests, direct) = serve(
        102,
        6,
        ServerConfig::new().with_fault_plan(FaultPlan::new().drop_connection(3)),
    );
    let mut client = client(&server);

    for (row, expected) in direct.iter().enumerate() {
        let report = client.score("hmd", requests.row(row)).expect("recovers");
        assert_bit_identical(&report.report, expected, &format!("row {row}"));
    }
    let stats = client.stats();
    assert!(
        stats.connects >= 2,
        "the drop forced a reconnect: {stats:?}"
    );
    assert!(stats.retries >= 1, "the drop forced a retry: {stats:?}");
    assert_eq!(server.stats().faults_injected, 1);
}

/// A slow reader delays one response past the fault's stall but corrupts
/// nothing; the client's response timeout is generous enough to wait it
/// out without a retry.
#[test]
fn slow_reader_delays_but_never_corrupts() {
    let delay = Duration::from_millis(40);
    let (server, _fleet, requests, direct) = serve(
        103,
        4,
        ServerConfig::new().with_fault_plan(FaultPlan::new().slow_reader(2, delay)),
    );
    let mut client = client(&server);

    let start = Instant::now();
    for (row, expected) in direct.iter().enumerate() {
        let report = client.score("hmd", requests.row(row)).expect("scores");
        assert_bit_identical(&report.report, expected, &format!("row {row}"));
    }
    assert!(start.elapsed() >= delay, "the stall really happened");
    assert_eq!(client.stats().retries, 0, "a slow frame is not a fault");
    assert_eq!(server.stats().faults_injected, 1);
}

/// A truncated response frame (header or payload cut mid-write, then the
/// connection closed): the client sees an unusable stream, reconnects,
/// and re-scores — bit-identically.
#[test]
fn truncated_response_frame_triggers_reconnect_and_retry() {
    let (server, _fleet, requests, direct) = serve(
        104,
        6,
        ServerConfig::new().with_fault_plan(FaultPlan::new().truncate_frame(2)),
    );
    let mut client = client(&server);

    for (row, expected) in direct.iter().enumerate() {
        let report = client.score("hmd", requests.row(row)).expect("recovers");
        assert_bit_identical(&report.report, expected, &format!("row {row}"));
    }
    let stats = client.stats();
    assert!(
        stats.connects >= 2,
        "truncation forced a reconnect: {stats:?}"
    );
    assert!(stats.retries >= 1, "truncation forced a retry: {stats:?}");
    assert_eq!(server.stats().faults_injected, 1);
}

/// A garbage frame (corrupted magic): with no self-synchronising
/// delimiter the client must treat the stream as lost, reconnect, and
/// retry — never attempt a resync that could mis-frame a later payload.
#[test]
fn garbage_frame_is_unrecoverable_on_that_connection_but_retried() {
    let (server, _fleet, requests, direct) = serve(
        105,
        6,
        ServerConfig::new().with_fault_plan(FaultPlan::new().garbage_frame(2)),
    );
    let mut client = client(&server);

    for (row, expected) in direct.iter().enumerate() {
        let report = client.score("hmd", requests.row(row)).expect("recovers");
        assert_bit_identical(&report.report, expected, &format!("row {row}"));
    }
    let stats = client.stats();
    assert!(stats.connects >= 2, "garbage forced a reconnect: {stats:?}");
    assert!(stats.retries >= 1, "garbage forced a retry: {stats:?}");
    assert_eq!(server.stats().faults_injected, 1);
}

/// The full fault mix in one schedule — drop, slow, truncate, garbage —
/// across a longer run: every fault fires exactly once, the client
/// recovers from each, and every surviving row is bit-identical.
#[test]
fn mixed_transport_faults_all_fire_and_all_recover() {
    let plan = FaultPlan::new()
        .drop_connection(2)
        .slow_reader(5, Duration::from_millis(10))
        .truncate_frame(4)
        .garbage_frame(8);
    let (server, _fleet, requests, direct) =
        serve(106, 12, ServerConfig::new().with_fault_plan(plan));
    let mut client = client(&server);

    for (row, expected) in direct.iter().enumerate() {
        let report = client.score("hmd", requests.row(row)).expect("recovers");
        assert_bit_identical(&report.report, expected, &format!("row {row}"));
    }
    assert_eq!(
        server.stats().faults_injected,
        4,
        "lifetime frame counting fires each fault exactly once"
    );
    assert!(client.stats().retries >= 3, "drop + truncate + garbage");
}

/// Satellite: replica redeploys racing transport faults. A writer thread
/// republishes the same model bits through `deploy_replicas` while the
/// client scores through the faulty transport; every response is
/// bit-identical regardless of which version served it, and no breaker
/// ever trips — transport chaos must not be mistaken for model failure.
#[test]
fn replica_redeploys_race_transport_faults_without_tripping_breakers() {
    let plan = FaultPlan::new()
        .drop_connection(3)
        .truncate_frame(7)
        .slow_reader(10, Duration::from_millis(5));
    let (server, fleet, requests, direct) =
        serve(107, 16, ServerConfig::new().with_fault_plan(plan));
    let mut client = client(&server);

    let deployer = {
        let fleet = Arc::clone(&fleet);
        std::thread::spawn(move || {
            for _ in 0..6 {
                fleet
                    .deploy_replicas("hmd", vec![trained(9, 107), trained(9, 107)])
                    .expect("redeploy");
                std::thread::sleep(Duration::from_millis(3));
            }
        })
    };
    for (row, expected) in direct.iter().enumerate() {
        let report = client.score("hmd", requests.row(row)).expect("recovers");
        assert_bit_identical(&report.report, expected, &format!("row {row}"));
    }
    deployer.join().expect("deployer thread");

    assert_eq!(
        fleet.breaker_states("hmd").expect("states"),
        vec![BreakerState::Closed, BreakerState::Closed],
        "transport faults never reach the breakers"
    );
    assert_eq!(fleet.active_version("hmd").expect("version"), 7);
    assert_eq!(server.stats().faults_injected, 3);
}

/// Backpressure at the row layer crosses the wire: with the endpoint's
/// admission budget exhausted, a remote score is refused with an
/// `Overloaded` error frame carrying the exact depth and limit — and a
/// client with retry budget treats it as backpressure, backs off on the
/// *same* connection, and succeeds once the budget frees.
#[test]
fn admission_overload_crosses_the_wire_and_backoff_rides_it_out() {
    let fleet = Arc::new(ShardedFleet::with_config(
        ShardConfig::new(1)
            .with_flush(FlushPolicy::new(4096, Duration::from_secs(10)))
            .with_admission(AdmissionPolicy::new(4)),
    ));
    fleet.deploy("hmd", trained(9, 108)).expect("deploys");
    let server = FleetServer::bind(Arc::clone(&fleet), ServerConfig::new()).expect("binds");
    let requests = request_matrix(6, 4, 109);

    // Fill the whole budget in-process and hold the tickets open.
    let held: Vec<_> = (0..4)
        .map(|row| fleet.score("hmd", requests.row(row)).expect("admitted"))
        .collect();

    // A no-retry client surfaces the typed error verbatim.
    let mut strict = FleetClient::connect(
        server.local_addr(),
        ClientConfig::new().with_retry(RetryPolicy::none()),
    )
    .expect("connects");
    let err = strict.score("hmd", requests.row(4)).unwrap_err();
    assert_eq!(
        err,
        NetError::Fleet(FleetError::Overloaded { depth: 4, limit: 4 }),
        "depth and limit cross the wire exactly"
    );
    assert_eq!(err.code(), Some(6));

    // A retrying client backs off while a helper frees the budget; the
    // connection is never dropped for a semantic error.
    let mut patient = FleetClient::connect(
        server.local_addr(),
        ClientConfig::new().with_retry(
            fast_retry().with_backoff(Duration::from_millis(5), Duration::from_millis(40)),
        ),
    )
    .expect("connects");
    let flusher = {
        let fleet = Arc::clone(&fleet);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            fleet.flush("hmd").expect("flush");
        })
    };
    let report = patient
        .score("hmd", requests.row(5))
        .expect("eventually admitted");
    flusher.join().expect("flusher thread");
    for ticket in held {
        ticket.wait().expect("held rows score");
    }
    let direct = trained(9, 108).detect_batch(&requests).expect("direct");
    assert_bit_identical(&report.report, &direct[5], "post-backoff row");
    let stats = patient.stats();
    assert!(
        stats.retries >= 1,
        "the overload forced a backoff: {stats:?}"
    );
    assert_eq!(
        stats.connects, 1,
        "backpressure retries reuse the connection"
    );
}

/// Backpressure at the frame layer: a raw socket pipelines far more score
/// requests than the in-flight budget. The server answers all of them, in
/// order, but `peak_inflight` proves it paused reads at the budget instead
/// of buffering the burst.
#[test]
fn pipelined_bursts_are_bounded_by_the_inflight_budget() {
    let budget = 4;
    let (server, _fleet, requests, direct) =
        serve(111, 16, ServerConfig::new().with_inflight_budget(budget));

    let mut socket = TcpStream::connect(server.local_addr()).expect("connects");
    socket.set_nodelay(true).expect("nodelay");
    let mut burst = Vec::new();
    for row in 0..requests.rows() {
        let request = Request::ScoreRow {
            endpoint: "hmd".to_string(),
            key: None,
            row: requests.row(row).to_vec(),
        };
        let payload = request.to_json().to_string();
        burst.extend_from_slice(
            &encode_frame(PROTOCOL_VERSION, request.kind().as_u8(), &payload).expect("frame"),
        );
    }
    socket.write_all(&burst).expect("burst written");

    for (row, reference) in direct.iter().enumerate() {
        let (header, payload) = read_frame(&mut socket).expect("response frame");
        assert_eq!(header.kind, 0x81, "responses arrive in request order");
        let json = Json::parse(&payload).expect("payload parses");
        let entropy = json
            .get("entropy")
            .and_then(Json::as_f64)
            .expect("entropy field");
        assert_eq!(
            entropy.to_bits(),
            reference.prediction.entropy.to_bits(),
            "row {row} entropy crosses the pipeline bit-identically"
        );
    }
    let stats = server.stats();
    assert!(
        stats.peak_inflight <= budget,
        "reads paused at the budget: peak {} > budget {budget}",
        stats.peak_inflight
    );
    assert_eq!(stats.frames_written, 16);
}

/// Connections beyond the cap are shed with a single `Overloaded` error
/// frame and closed — never queued behind the active connection.
#[test]
fn connections_beyond_the_cap_are_shed_with_one_frame() {
    let (server, _fleet, requests, _direct) =
        serve(112, 2, ServerConfig::new().with_max_connections(1));
    let mut first = client(&server);
    first
        .score("hmd", requests.row(0))
        .expect("first client scores");

    let mut second = TcpStream::connect(server.local_addr()).expect("connects");
    let (header, payload) = read_frame(&mut second).expect("shed frame");
    assert_eq!(header.kind, 0xFF);
    let json = Json::parse(&payload).expect("payload parses");
    let code = json.get("code").and_then(Json::as_i64).expect("code field");
    assert_eq!(
        u16::try_from(code).expect("code fits"),
        FleetError::Overloaded { depth: 1, limit: 1 }.code(),
        "connection shedding reuses the Overloaded code"
    );
    let mut rest = Vec::new();
    second.read_to_end(&mut rest).expect("reads to EOF");
    assert!(rest.is_empty(), "one frame, then close");
    assert_eq!(server.stats().shed_connections, 1);

    // The active client is unaffected.
    first.score("hmd", requests.row(1)).expect("still serving");
}

/// Version skew is rejected before any payload is interpreted: the error
/// frame carries the stable mismatch code and the server's own version,
/// then the connection closes.
#[test]
fn version_mismatch_is_rejected_with_the_stable_code() {
    let (server, _fleet, _requests, _direct) = serve(113, 1, ServerConfig::new());
    let mut socket = TcpStream::connect(server.local_addr()).expect("connects");
    let payload = Json::object(vec![("endpoint", Json::Str("hmd".to_string()))]).to_string();
    socket
        .write_all(&encode_frame(9, 0x06, &payload).expect("frame"))
        .expect("written");

    let (header, payload) = read_frame(&mut socket).expect("error frame");
    assert_eq!(header.kind, 0xFF);
    assert_eq!(header.version, PROTOCOL_VERSION);
    let json = Json::parse(&payload).expect("payload parses");
    let code = json.get("code").and_then(Json::as_i64).expect("code");
    assert_eq!(code, i64::from(CODE_VERSION_MISMATCH));
    assert_eq!(json.get("ours").and_then(Json::as_i64).expect("ours"), 1);
    assert_eq!(
        json.get("theirs").and_then(Json::as_i64).expect("theirs"),
        9
    );
    let mut rest = Vec::new();
    socket.read_to_end(&mut rest).expect("reads to EOF");
    assert!(rest.is_empty(), "the connection closes after the frame");
}

/// A frame announcing a payload beyond the server's limit is refused from
/// the header alone — before any payload allocation — with the stable
/// code, then the connection closes.
#[test]
fn oversized_frames_are_refused_before_allocation() {
    let (server, _fleet, _requests, _direct) =
        serve(114, 1, ServerConfig::new().with_max_frame_bytes(256));
    let mut socket = TcpStream::connect(server.local_addr()).expect("connects");
    // Header only: announce 1 MiB but never send it. The refusal must not
    // wait for (or buffer) the payload.
    let header = FrameHeader {
        version: PROTOCOL_VERSION,
        kind: 0x06,
        len: 1 << 20,
    };
    socket.write_all(&header.encode()).expect("header written");

    let (reply, payload) = read_frame(&mut socket).expect("error frame");
    assert_eq!(reply.kind, 0xFF);
    let json = Json::parse(&payload).expect("payload parses");
    let code = json.get("code").and_then(Json::as_i64).expect("code");
    assert_eq!(code, i64::from(CODE_FRAME_TOO_LARGE));
    assert_eq!(
        json.get("len").and_then(Json::as_i64).expect("len"),
        1 << 20
    );
    let mut rest = Vec::new();
    socket.read_to_end(&mut rest).expect("reads to EOF");
    assert!(rest.is_empty(), "the connection closes after the frame");
}

/// Deploy, rollback and health are first-class protocol citizens: a new
/// version published over the wire serves immediately, rollback restores
/// the old bits, and health reflects the traffic.
#[test]
fn deploy_rollback_and_health_round_trip_over_the_wire() {
    let (server, _fleet, requests, direct_v1) = serve(115, 4, ServerConfig::new());
    let mut client = client(&server);

    let v2_model = trained(15, 116);
    let direct_v2 = v2_model.detect_batch(&requests).expect("v2 direct");
    assert_eq!(client.deploy("hmd", v2_model.as_ref()).expect("deploy"), 2);
    for (row, expected) in direct_v2.iter().enumerate() {
        let report = client.score("hmd", requests.row(row)).expect("v2 scores");
        assert_eq!(report.version, 2);
        assert_bit_identical(&report.report, expected, &format!("v2 row {row}"));
    }

    assert_eq!(client.rollback("hmd").expect("rollback"), 1);
    for (row, expected) in direct_v1.iter().enumerate() {
        let report = client.score("hmd", requests.row(row)).expect("v1 scores");
        assert_eq!(report.version, 1);
        assert_bit_identical(&report.report, expected, &format!("v1 row {row}"));
    }

    let health = client.health("hmd").expect("health");
    assert_eq!(health.len(), 2);
    assert!(health.iter().all(|h| h.breaker == BreakerState::Closed));
    assert_eq!(health.iter().map(|h| h.pending_rows).sum::<usize>(), 0);
}

/// A transport fault after a non-idempotent request reached the wire must
/// surface as `InFlight`, not retry: replaying a rollback could walk the
/// version stack twice.
#[test]
fn non_idempotent_requests_surface_in_flight_instead_of_retrying() {
    let (server, fleet, _requests, _direct) = serve(
        117,
        1,
        // Frame 1 (the rollback request) is swallowed after the client's
        // write succeeded: the canonical "did it apply?" uncertainty.
        ServerConfig::new().with_fault_plan(FaultPlan::new().drop_connection(1)),
    );
    let mut client = client(&server);

    let err = client.rollback("hmd").unwrap_err();
    assert!(
        matches!(err, NetError::InFlight { .. }),
        "expected InFlight, got {err:?}"
    );
    assert_eq!(client.stats().retries, 0, "no blind retry");
    // The fault fired before execution, so the version is provably intact
    // — which is exactly what a careful caller would check next.
    assert_eq!(fleet.active_version("hmd").expect("version"), 1);
}

/// Semantic fleet errors reconstruct client-side with their stable codes:
/// an unknown endpoint is `UnknownEndpoint` (code 1) on both sides of the
/// wire, and the connection stays usable.
#[test]
fn fleet_errors_reconstruct_with_stable_codes() {
    let (server, _fleet, requests, _direct) = serve(118, 1, ServerConfig::new());
    let mut client = client(&server);

    let err = client.score("nope", requests.row(0)).unwrap_err();
    match &err {
        NetError::Fleet(FleetError::UnknownEndpoint { name }) => assert_eq!(name, "nope"),
        other => panic!("expected UnknownEndpoint, got {other:?}"),
    }
    assert_eq!(err.code(), Some(1));
    client.score("hmd", requests.row(0)).expect("still serving");
}

/// Reads one complete frame from a raw socket (test-side counterpart of
/// the incremental reader inside the client).
fn read_frame(socket: &mut TcpStream) -> std::io::Result<(FrameHeader, String)> {
    let mut head = [0u8; HEADER_LEN];
    socket.read_exact(&mut head)?;
    let header = FrameHeader::parse(&head)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.message))?;
    let mut payload = vec![0u8; header.len as usize];
    socket.read_exact(&mut payload)?;
    let text = String::from_utf8(payload)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    Ok((header, text))
}
