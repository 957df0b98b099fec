//! The blocking [`FleetClient`]: one connection, one in-flight request,
//! deterministic retry with exponential backoff and jitter.
//!
//! Retry semantics (normative in `PROTOCOL.md`):
//!
//! * **Connection faults** (connect refused, write failure, EOF or
//!   garbage mid-response, response timeout) drop the connection. If the
//!   request is **idempotent** — scoring, flush, health — the client
//!   backs off and retries up to [`RetryPolicy::with_max_attempts`];
//!   reconnection is part of the retry.
//! * **Non-idempotent requests** (`deploy`, `rollback`) are retried only
//!   while the client can prove the request never reached the wire (the
//!   connect itself failed). Once any request byte may have been sent, a
//!   fault surfaces as [`NetError::InFlight`] and the caller decides.
//! * **`Overloaded` error frames** are the server's backpressure signal:
//!   for idempotent requests the client treats them like a connection
//!   fault for retry purposes (backoff, then resend) — the connection
//!   itself stays usable.
//!
//! Backoff is `base × 2^(attempt-1)` capped at the configured maximum,
//! plus a deterministic jitter of up to 25 % derived from a seeded
//! splitmix64 stream — chaos tests replay identical schedules, while
//! concurrent clients with different seeds still decorrelate.

use crate::deadline_after;
use crate::fleet::{FleetError, HealthSnapshot};
use crate::net::wire::{
    frame_bytes, parse_payload, FrameKind, FrameReader, ReadStep, Request, Response,
    DEFAULT_MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
use crate::net::NetError;
use crate::shard::{splitmix64, ShardedReport};
use hmd_core::detector::Detector;
use hmd_data::RowsView;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Retry/backoff schedule for [`FleetClient`]; deterministic given its
/// seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    max_attempts: u32,
    base_backoff: Duration,
    max_backoff: Duration,
    jitter_seed: u64,
}

impl RetryPolicy {
    /// Defaults: 4 attempts, 5 ms base backoff doubling to a 200 ms cap,
    /// jitter seed 0.
    pub fn new() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(200),
            jitter_seed: 0,
        }
    }

    /// No retries: every fault surfaces on the first attempt.
    pub fn none() -> RetryPolicy {
        RetryPolicy::new().with_max_attempts(1)
    }

    /// Total attempts per request (clamped to at least 1).
    #[must_use]
    pub fn with_max_attempts(mut self, max_attempts: u32) -> RetryPolicy {
        self.max_attempts = max_attempts.max(1);
        self
    }

    /// Backoff bounds: the first retry waits `base` (± jitter), each
    /// further retry doubles it, capped at `max`.
    #[must_use]
    pub fn with_backoff(mut self, base: Duration, max: Duration) -> RetryPolicy {
        self.base_backoff = base;
        self.max_backoff = max;
        self
    }

    /// Seeds the deterministic jitter stream (decorrelate concurrent
    /// clients by giving each a different seed).
    #[must_use]
    pub fn with_jitter_seed(mut self, jitter_seed: u64) -> RetryPolicy {
        self.jitter_seed = jitter_seed;
        self
    }

    /// The wait before retry number `attempt` (1-based), with the jitter
    /// drawn from draw number `draw` of the seeded stream. Exposed for
    /// tests; [`FleetClient`] advances `draw` once per backoff.
    pub fn delay(&self, attempt: u32, draw: u64) -> Duration {
        let doublings = attempt.saturating_sub(1).min(16);
        let scaled = self
            .base_backoff
            .saturating_mul(1u32 << doublings)
            .min(self.max_backoff);
        // 53 uniform bits → [0, 1): the jitter fraction.
        let unit =
            (splitmix64(self.jitter_seed.wrapping_add(draw)) >> 11) as f64 / (1u64 << 53) as f64;
        scaled + scaled.mul_f64(unit * 0.25)
    }
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy::new()
    }
}

/// Configuration of a [`FleetClient`]; start from [`ClientConfig::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientConfig {
    retry: RetryPolicy,
    connect_timeout: Duration,
    response_timeout: Duration,
    max_frame_bytes: usize,
}

impl ClientConfig {
    /// Defaults: [`RetryPolicy::new`], 1 s connect timeout, 5 s response
    /// timeout, 4 MiB frames.
    pub fn new() -> ClientConfig {
        ClientConfig {
            retry: RetryPolicy::new(),
            connect_timeout: Duration::from_secs(1),
            response_timeout: Duration::from_secs(5),
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
        }
    }

    /// Installs a retry/backoff schedule.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> ClientConfig {
        self.retry = retry;
        self
    }

    /// Bounds each TCP connect attempt.
    #[must_use]
    pub fn with_connect_timeout(mut self, connect_timeout: Duration) -> ClientConfig {
        self.connect_timeout = connect_timeout;
        self
    }

    /// Bounds the wait for each response frame; a server that exceeds it
    /// is treated as a connection fault (and the request retried if
    /// idempotent).
    #[must_use]
    pub fn with_response_timeout(mut self, response_timeout: Duration) -> ClientConfig {
        self.response_timeout = response_timeout;
        self
    }

    /// Caps response frames this client will buffer.
    #[must_use]
    pub fn with_max_frame_bytes(mut self, max_frame_bytes: usize) -> ClientConfig {
        self.max_frame_bytes = max_frame_bytes.max(hmd_codec::frame::HEADER_LEN);
        self
    }
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig::new()
    }
}

/// Observable counters of a [`FleetClient`] — what recovery tests assert
/// against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct ClientStats {
    /// Successful TCP connects (the first plus every reconnection).
    pub connects: u64,
    /// Requests re-sent after a backoff (connection faults and
    /// `Overloaded` frames alike).
    pub retries: u64,
}

/// What one exchange attempt knows about a failure: the error, and
/// whether any request bytes may have reached the server (which gates
/// non-idempotent retry).
struct Fault {
    error: NetError,
    sent: bool,
}

/// An open connection and its frame reader. The reader reads ahead, so
/// bytes past the frame being waited for belong to this connection and
/// go when it goes.
struct Connection {
    stream: TcpStream,
    reader: FrameReader,
}

/// A small blocking client for a [`FleetServer`](crate::net::FleetServer):
/// one connection, one in-flight request, automatic reconnect-and-retry
/// per [`RetryPolicy`].
pub struct FleetClient {
    addr: SocketAddr,
    config: ClientConfig,
    connection: Option<Connection>,
    stats: ClientStats,
    /// Jitter draw counter; one draw per backoff keeps the schedule
    /// deterministic across the client's lifetime.
    draws: u64,
}

impl std::fmt::Debug for FleetClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetClient")
            .field("addr", &self.addr)
            .field("connected", &self.connection.is_some())
            .field("stats", &self.stats)
            .finish()
    }
}

impl FleetClient {
    /// Connects to a server (eagerly — a refused connect surfaces here,
    /// after the retry schedule is exhausted).
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] if every connect attempt fails.
    pub fn connect(addr: SocketAddr, config: ClientConfig) -> Result<FleetClient, NetError> {
        let mut client = FleetClient {
            addr,
            config,
            connection: None,
            stats: ClientStats::default(),
            draws: 0,
        };
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match client.ensure_connected() {
                Ok(()) => return Ok(client),
                Err(fault) => {
                    if attempt >= client.config.retry.max_attempts {
                        return Err(fault.error);
                    }
                    client.backoff(attempt);
                }
            }
        }
    }

    /// The server address this client talks to.
    pub fn peer_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the client's counters.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Scores one row. Idempotent: retried across connection faults.
    ///
    /// # Errors
    ///
    /// The remote fleet outcome as [`NetError::Fleet`], or the transport
    /// fault that exhausted the retry schedule.
    pub fn score(&mut self, endpoint: &str, row: &[f64]) -> Result<ShardedReport, NetError> {
        let request = Request::ScoreRow {
            endpoint: endpoint.to_string(),
            key: None,
            row: row.to_vec(),
        };
        match self.request(&request, true)? {
            Response::ScoreRow(report) => Ok(report),
            other => Err(unexpected(&other)),
        }
    }

    /// Scores one row with a routing key (session affinity). Idempotent.
    ///
    /// # Errors
    ///
    /// As [`FleetClient::score`].
    pub fn score_keyed(
        &mut self,
        endpoint: &str,
        key: u64,
        row: &[f64],
    ) -> Result<ShardedReport, NetError> {
        let request = Request::ScoreRow {
            endpoint: endpoint.to_string(),
            key: Some(key),
            row: row.to_vec(),
        };
        match self.request(&request, true)? {
            Response::ScoreRow(report) => Ok(report),
            other => Err(unexpected(&other)),
        }
    }

    /// Scores a batch in one frame; reports come back in row order.
    /// Idempotent.
    ///
    /// # Errors
    ///
    /// As [`FleetClient::score`].
    pub fn score_batch<'a>(
        &mut self,
        endpoint: &str,
        batch: impl Into<RowsView<'a>>,
    ) -> Result<Vec<ShardedReport>, NetError> {
        let view = batch.into();
        let rows = (0..view.rows()).map(|r| view.row(r).to_vec()).collect();
        let request = Request::ScoreBatch {
            endpoint: endpoint.to_string(),
            rows,
        };
        match self.request(&request, true)? {
            Response::ScoreBatch(reports) => Ok(reports),
            other => Err(unexpected(&other)),
        }
    }

    /// Drains the endpoint's pending tiles; returns rows drained.
    /// Idempotent.
    ///
    /// # Errors
    ///
    /// As [`FleetClient::score`].
    pub fn flush(&mut self, endpoint: &str) -> Result<usize, NetError> {
        let request = Request::Flush {
            endpoint: endpoint.to_string(),
        };
        match self.request(&request, true)? {
            Response::Flush { rows } => Ok(rows),
            other => Err(unexpected(&other)),
        }
    }

    /// Publishes a new version of `endpoint` from a detector, carried as
    /// its saved document. **Not idempotent** — see [`NetError::InFlight`].
    ///
    /// # Errors
    ///
    /// [`NetError::Fleet`] with [`FleetError::Detector`] if the detector
    /// does not persist, the remote outcome otherwise.
    pub fn deploy(&mut self, endpoint: &str, detector: &dyn Detector) -> Result<u64, NetError> {
        let document =
            hmd_core::detector::save(detector).map_err(|error| FleetError::Detector {
                message: error.to_string(),
            })?;
        self.deploy_document(endpoint, &document)
    }

    /// Publishes a new version from an already-saved detector document.
    /// **Not idempotent.**
    ///
    /// # Errors
    ///
    /// As [`FleetClient::deploy`].
    pub fn deploy_document(&mut self, endpoint: &str, document: &str) -> Result<u64, NetError> {
        let request = Request::Deploy {
            endpoint: endpoint.to_string(),
            document: document.to_string(),
        };
        match self.request(&request, false)? {
            Response::Deploy { version } => Ok(version),
            other => Err(unexpected(&other)),
        }
    }

    /// Restores the endpoint's previous version. **Not idempotent.**
    ///
    /// # Errors
    ///
    /// As [`FleetClient::deploy`].
    pub fn rollback(&mut self, endpoint: &str) -> Result<u64, NetError> {
        let request = Request::Rollback {
            endpoint: endpoint.to_string(),
        };
        match self.request(&request, false)? {
            Response::Rollback { version } => Ok(version),
            other => Err(unexpected(&other)),
        }
    }

    /// Queries per-replica supervision health. Idempotent.
    ///
    /// # Errors
    ///
    /// As [`FleetClient::score`].
    pub fn health(&mut self, endpoint: &str) -> Result<Vec<HealthSnapshot>, NetError> {
        let request = Request::Health {
            endpoint: endpoint.to_string(),
        };
        match self.request(&request, true)? {
            Response::Health(snapshots) => Ok(snapshots),
            other => Err(unexpected(&other)),
        }
    }

    /// The retry loop around one request.
    fn request(&mut self, request: &Request, idempotent: bool) -> Result<Response, NetError> {
        let max_attempts = self.config.retry.max_attempts;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match self.exchange(request) {
                Ok(Response::Error(error)) => {
                    let overloaded =
                        matches!(error, NetError::Fleet(FleetError::Overloaded { .. }));
                    if overloaded && idempotent && attempt < max_attempts {
                        self.backoff(attempt);
                        continue;
                    }
                    return Err(error);
                }
                Ok(response) => return Ok(response),
                Err(fault) => {
                    // The connection can no longer be trusted.
                    self.connection = None;
                    if fault.sent && !idempotent {
                        return Err(NetError::InFlight {
                            message: fault.error.to_string(),
                        });
                    }
                    if attempt >= max_attempts {
                        return Err(fault.error);
                    }
                    self.backoff(attempt);
                }
            }
        }
    }

    fn backoff(&mut self, attempt: u32) {
        self.stats.retries += 1;
        let delay = self.config.retry.delay(attempt, self.draws);
        self.draws += 1;
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
    }

    fn ensure_connected(&mut self) -> Result<(), Fault> {
        if self.connection.is_some() {
            return Ok(());
        }
        let stream = TcpStream::connect_timeout(&self.addr, self.config.connect_timeout).map_err(
            |error| Fault {
                error: NetError::Io {
                    context: "connect",
                    message: error.to_string(),
                },
                sent: false,
            },
        )?;
        let _ = stream.set_nodelay(true);
        self.stats.connects += 1;
        self.connection = Some(Connection {
            stream,
            reader: FrameReader::new(self.config.max_frame_bytes),
        });
        Ok(())
    }

    /// One attempt: connect if needed, write the request frame, read one
    /// response frame.
    fn exchange(&mut self, request: &Request) -> Result<Response, Fault> {
        self.ensure_connected()?;
        let bytes = frame_bytes(request.kind(), &request.to_json())
            .map_err(|error| Fault { error, sent: false })?;
        let Some(Connection { stream, reader }) = self.connection.as_mut() else {
            return Err(Fault {
                error: NetError::Io {
                    context: "connect",
                    message: "connection unavailable".to_string(),
                },
                sent: false,
            });
        };
        stream.write_all(&bytes).map_err(|error| Fault {
            error: NetError::Io {
                context: "write",
                message: error.to_string(),
            },
            sent: true,
        })?;
        let sent = |error: NetError| Fault { error, sent: true };
        // `None`: a response timeout too large to represent never expires.
        let deadline = deadline_after(Instant::now(), self.config.response_timeout);
        loop {
            let remaining =
                deadline.map(|deadline| deadline.saturating_duration_since(Instant::now()));
            if remaining.is_some_and(|remaining| remaining.is_zero()) {
                return Err(sent(NetError::Io {
                    context: "read",
                    message: format!("no response within {:?}", self.config.response_timeout),
                }));
            }
            let _ = stream.set_read_timeout(remaining);
            match reader.poll(stream) {
                Ok(ReadStep::Pending) => {}
                Ok(ReadStep::Eof) => {
                    return Err(sent(NetError::Io {
                        context: "read",
                        message: "server closed the connection".to_string(),
                    }))
                }
                Ok(ReadStep::Frame(header, payload)) => {
                    if header.version != PROTOCOL_VERSION {
                        return Err(sent(NetError::VersionMismatch {
                            ours: PROTOCOL_VERSION,
                            theirs: header.version,
                        }));
                    }
                    let Some(kind) = FrameKind::from_u8(header.kind) else {
                        return Err(sent(NetError::Protocol {
                            message: format!("unknown response kind {:#04x}", header.kind),
                        }));
                    };
                    let json = parse_payload(payload).map_err(&sent)?;
                    return Response::from_wire(kind, &json).map_err(&sent);
                }
                Err(error) => return Err(sent(error)),
            }
        }
    }
}

fn unexpected(response: &Response) -> NetError {
    NetError::Protocol {
        message: format!(
            "response kind {:#04x} does not answer the request",
            response.kind().as_u8()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_caps_and_jitters_deterministically() {
        let policy = RetryPolicy::new()
            .with_backoff(Duration::from_millis(10), Duration::from_millis(40))
            .with_jitter_seed(7);
        let first = policy.delay(1, 0);
        let second = policy.delay(2, 1);
        let deep = policy.delay(10, 2);
        // Exponential growth with a cap...
        assert!(first >= Duration::from_millis(10) && first < Duration::from_micros(12_500));
        assert!(second >= Duration::from_millis(20) && second < Duration::from_micros(25_000));
        assert!(deep >= Duration::from_millis(40) && deep <= Duration::from_millis(50));
        // ...and the same (attempt, draw) pair always waits the same time.
        assert_eq!(policy.delay(3, 9), policy.delay(3, 9));
        assert_ne!(
            policy.delay(3, 9),
            policy.delay(3, 10),
            "jitter draws differ"
        );
    }

    #[test]
    fn huge_attempt_numbers_do_not_overflow_the_doubling() {
        let policy =
            RetryPolicy::new().with_backoff(Duration::from_secs(1), Duration::from_secs(2));
        assert!(policy.delay(u32::MAX, 0) <= Duration::from_millis(2500));
    }

    /// Replies read ahead stay with the connection: when a server answers
    /// the first `score` with two reply frames in one write, the next
    /// `score` returns the second frame.
    #[test]
    fn read_ahead_replies_stay_with_the_connection() {
        use crate::net::wire::ReadStep;
        use hmd_core::estimator::UncertainPrediction;
        use hmd_core::trusted::{Decision, DetectionReport};
        use hmd_data::Label;
        use std::net::{Ipv4Addr, TcpListener};

        let report = |replica| ShardedReport {
            replica,
            version: 1,
            report: DetectionReport {
                prediction: UncertainPrediction {
                    label: Label::Benign,
                    malware_vote_fraction: 0.25,
                    entropy: 0.8112781244591328,
                    num_estimators: 4,
                },
                decision: Decision::Escalate,
            },
        };
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let fake = std::thread::spawn(move || {
            let (mut socket, _) = listener.accept().unwrap();
            let mut reader = FrameReader::new(DEFAULT_MAX_FRAME_BYTES);
            assert!(matches!(reader.poll(&mut socket), Ok(ReadStep::Frame(..))));
            let mut both = Vec::new();
            for replica in [3, 4] {
                let reply = Response::ScoreRow(report(replica));
                both.extend(frame_bytes(reply.kind(), &reply.to_json()).unwrap());
            }
            socket.write_all(&both).unwrap();
            // The second request needs no answer: it was sent ahead.
            let _ = reader.poll(&mut socket);
        });
        let mut client =
            FleetClient::connect(addr, ClientConfig::new().with_retry(RetryPolicy::none()))
                .unwrap();
        assert_eq!(client.score("ep", &[1.0]).unwrap(), report(3));
        assert_eq!(client.score("ep", &[1.0]).unwrap(), report(4));
        drop(client);
        fake.join().unwrap();
    }

    #[test]
    fn retry_policy_clamps_to_one_attempt() {
        assert_eq!(RetryPolicy::none().max_attempts, 1);
        assert_eq!(RetryPolicy::new().with_max_attempts(0).max_attempts, 1);
    }
}
