//! The loopback fleet server: bounded accept/worker loop, per-connection
//! in-flight budget, deadline-wired drains, and the fault-injecting stream
//! wrapper that turns a [`FaultPlan`]'s transport schedule into real wire
//! misbehaviour.
//!
//! Backpressure contract (normative in `PROTOCOL.md`):
//!
//! * **Connections** are bounded by [`ServerConfig::with_max_connections`];
//!   an accept beyond the cap is answered with one `Overloaded` error
//!   frame and closed — never queued.
//! * **Frames** are bounded per connection by the in-flight budget: score
//!   requests pipeline until the budget is reached, then the server stops
//!   reading and drains responses in request order. A client that keeps
//!   writing fills the kernel's TCP window and blocks — the server's
//!   memory use stays flat ([`ServerStats::peak_inflight`] proves it).
//! * **Rows** are bounded by each endpoint's
//!   [`AdmissionPolicy`](crate::AdmissionPolicy), exactly as in-process.
//!
//! Request deadlines: every pipelined score request is resolved through
//! [`crate::ShardTicket::wait_deadline`] with the remainder of
//! [`ServerConfig::with_request_deadline`] measured from *enqueue*, so a
//! stuck replica turns into a `DeadlineExceeded` error frame instead of a
//! wedged connection.

use crate::faults::FaultPlan;
use crate::fleet::FleetError;
use crate::net::wire::{
    error_json, frame_bytes, parse_payload, FrameKind, FrameReader, ReadStep, Request, Response,
    DEFAULT_MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
use crate::net::NetError;
use crate::shard::ShardedFleet;
use crate::sync::LockExt;
use hmd_codec::Json;
use hmd_data::Matrix;
use std::io::Write;
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Poll tick while a connection has no pending responses: bounds how long
/// shutdown and idle detection wait on a quiet socket.
///
/// While responses ARE pending the socket is polled non-blocking instead:
/// any frames the kernel already buffered join the pipeline, and the first
/// `WouldBlock` starts the drain immediately. A timed read here would add
/// kernel timer granularity (several ms) to every request's latency.
const IDLE_TICK: Duration = Duration::from_millis(25);

/// Configuration of a [`FleetServer`]; start from [`ServerConfig::new`]
/// and override per concern.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    max_connections: usize,
    inflight_budget: usize,
    request_deadline: Duration,
    max_frame_bytes: usize,
    fault_plan: FaultPlan,
}

impl ServerConfig {
    /// Defaults: 32 connections, an in-flight budget of 16 frames, a 2 s
    /// request deadline, 4 MiB frames, and no injected faults.
    pub fn new() -> ServerConfig {
        ServerConfig {
            max_connections: 32,
            inflight_budget: 16,
            request_deadline: Duration::from_secs(2),
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            fault_plan: FaultPlan::new(),
        }
    }

    /// Caps concurrent connections (clamped to at least 1); excess accepts
    /// are shed with an `Overloaded` error frame.
    #[must_use]
    pub fn with_max_connections(mut self, max_connections: usize) -> ServerConfig {
        self.max_connections = max_connections.max(1);
        self
    }

    /// Caps pipelined score requests per connection (clamped to at least
    /// 1) before the server pauses reads and drains responses.
    #[must_use]
    pub fn with_inflight_budget(mut self, inflight_budget: usize) -> ServerConfig {
        self.inflight_budget = inflight_budget.max(1);
        self
    }

    /// Per-request deadline, measured from enqueue to response, resolved
    /// through [`crate::ShardTicket::wait_deadline`].
    #[must_use]
    pub fn with_request_deadline(mut self, request_deadline: Duration) -> ServerConfig {
        self.request_deadline = request_deadline;
        self
    }

    /// Caps a single frame's payload; larger announcements are answered
    /// with a [`NetError::FrameTooLarge`] error frame and the connection
    /// is closed.
    #[must_use]
    pub fn with_max_frame_bytes(mut self, max_frame_bytes: usize) -> ServerConfig {
        self.max_frame_bytes = max_frame_bytes.max(hmd_codec::frame::HEADER_LEN);
        self
    }

    /// Installs a transport fault schedule (see
    /// [`FaultPlan::drop_connection`] and friends) applied to accepted
    /// connections. Frame numbers are counted across the server's
    /// lifetime, so each scheduled fault fires exactly once no matter how
    /// many reconnections the faults themselves cause.
    #[must_use]
    pub fn with_fault_plan(mut self, fault_plan: FaultPlan) -> ServerConfig {
        self.fault_plan = fault_plan;
        self
    }
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig::new()
    }
}

/// Observable counters of a running [`FleetServer`] — what the chaos and
/// backpressure tests assert against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct ServerStats {
    /// Connections accepted (including ones later shed).
    pub accepted: u64,
    /// Connections refused with an `Overloaded` error frame because the
    /// connection cap was reached.
    pub shed_connections: u64,
    /// Request frames fully read, across all connections.
    pub frames_read: u64,
    /// Response frames written (including error frames), across all
    /// connections.
    pub frames_written: u64,
    /// Transport faults injected by the fault plan.
    pub faults_injected: u64,
    /// Highest number of pipelined score requests any connection held —
    /// never exceeds the in-flight budget.
    pub peak_inflight: usize,
    /// Connections currently being served.
    pub active_connections: usize,
}

/// State shared between the server handle, the accept loop, and every
/// connection handler.
struct Shared {
    fleet: Arc<ShardedFleet>,
    config: ServerConfig,
    shutdown: AtomicBool,
    active: AtomicUsize,
    accepted: AtomicU64,
    shed_connections: AtomicU64,
    frames_read: AtomicU64,
    frames_written: AtomicU64,
    faults_injected: AtomicU64,
    peak_inflight: AtomicUsize,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

/// A loopback TCP server fronting one [`ShardedFleet`]. Binds on
/// `127.0.0.1` with an OS-assigned port; dropping the handle (or calling
/// [`FleetServer::shutdown`]) stops the accept loop and joins every
/// connection handler.
pub struct FleetServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for FleetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetServer")
            .field("addr", &self.addr)
            .field("stats", &self.stats())
            .finish()
    }
}

impl FleetServer {
    /// Binds a loopback listener and starts the accept loop.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] if the bind or the accept-thread spawn fails.
    pub fn bind(fleet: Arc<ShardedFleet>, config: ServerConfig) -> Result<FleetServer, NetError> {
        let listener =
            TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).map_err(|error| NetError::Io {
                context: "bind",
                message: error.to_string(),
            })?;
        let addr = listener.local_addr().map_err(|error| NetError::Io {
            context: "bind",
            message: error.to_string(),
        })?;
        let shared = Arc::new(Shared {
            fleet,
            config,
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            accepted: AtomicU64::new(0),
            shed_connections: AtomicU64::new(0),
            frames_read: AtomicU64::new(0),
            frames_written: AtomicU64::new(0),
            faults_injected: AtomicU64::new(0),
            peak_inflight: AtomicUsize::new(0),
            handles: Mutex::new(Vec::new()),
        });
        let for_loop = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("hmd-net-accept".to_string())
            .spawn(move || accept_loop(&listener, &for_loop))
            .map_err(|error| NetError::Io {
                context: "spawn",
                message: error.to_string(),
            })?;
        Ok(FleetServer {
            addr,
            shared,
            accept: Some(accept),
        })
    }

    /// The bound loopback address clients connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the server's counters.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            accepted: self.shared.accepted.load(Ordering::SeqCst),
            shed_connections: self.shared.shed_connections.load(Ordering::SeqCst),
            frames_read: self.shared.frames_read.load(Ordering::SeqCst),
            frames_written: self.shared.frames_written.load(Ordering::SeqCst),
            faults_injected: self.shared.faults_injected.load(Ordering::SeqCst),
            peak_inflight: self.shared.peak_inflight.load(Ordering::SeqCst),
            active_connections: self.shared.active.load(Ordering::SeqCst),
        }
    }

    /// Stops accepting, wakes the accept loop, and joins every connection
    /// handler (each notices the flag within one poll tick; handlers
    /// blocked in a drain finish within the request deadline).
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if !self.shared.shutdown.swap(true, Ordering::SeqCst) {
            // Self-connect to unblock the accept call; the loop re-checks
            // the flag before handling what it accepted.
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
        }
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let handles = std::mem::take(&mut *self.shared.handles.lock_unpoisoned());
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for FleetServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        shared.accepted.fetch_add(1, Ordering::SeqCst);
        let active = shared.active.load(Ordering::SeqCst);
        if active >= shared.config.max_connections {
            shared.shed_connections.fetch_add(1, Ordering::SeqCst);
            shed_connection(stream, active, shared.config.max_connections);
            continue;
        }
        shared.active.fetch_add(1, Ordering::SeqCst);
        let for_conn = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name("hmd-net-conn".to_string())
            .spawn(move || {
                serve_connection(stream, &for_conn);
                for_conn.active.fetch_sub(1, Ordering::SeqCst);
            });
        match spawned {
            Ok(handle) => {
                let mut handles = shared.handles.lock_unpoisoned();
                handles.retain(|h| !h.is_finished());
                handles.push(handle);
            }
            Err(_) => {
                shared.active.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }
}

/// Refuses a connection beyond the cap: one best-effort `Overloaded`
/// error frame, then close. The depth/limit carried are *connections*,
/// not rows — same shedding semantics one level up (PROTOCOL.md § errors).
fn shed_connection(mut stream: TcpStream, depth: usize, limit: usize) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let error = NetError::Fleet(FleetError::Overloaded { depth, limit });
    if let Ok(bytes) = frame_bytes(FrameKind::Error, &error_json(&error)) {
        let _ = stream.write_all(&bytes);
    }
}

/// A [`TcpStream`] whose frame-level reads and writes misbehave on the
/// schedule of the [`FaultPlan`]'s transport half. Frame numbers count
/// across the server's lifetime (shared atomics), so a scheduled fault
/// fires exactly once even though the faults themselves force clients to
/// reconnect.
struct FaultStream<'a> {
    stream: TcpStream,
    plan: &'a FaultPlan,
    reads: &'a AtomicU64,
    writes: &'a AtomicU64,
    injected: &'a AtomicU64,
}

/// Outcome of one read attempt against a [`FaultStream`].
enum ReadOutcome {
    /// A complete request frame (after any scheduled read delay).
    Frame(hmd_codec::frame::FrameHeader, Vec<u8>),
    /// Nothing available within the poll tick.
    Pending,
    /// The connection is over: peer EOF, socket error, or an injected
    /// drop. The handler closes without responding.
    Disconnect,
}

impl FaultStream<'_> {
    /// Advances the reader; applies drop/slow faults when a frame
    /// completes.
    fn read_request(&mut self, reader: &mut FrameReader) -> Result<ReadOutcome, NetError> {
        match reader.poll(&mut self.stream) {
            Ok(ReadStep::Frame(header, payload)) => {
                let frame = self.reads.fetch_add(1, Ordering::SeqCst) + 1;
                if self.plan.drops_read(frame) {
                    self.injected.fetch_add(1, Ordering::SeqCst);
                    return Ok(ReadOutcome::Disconnect);
                }
                if let Some(delay) = self.plan.read_delay(frame) {
                    self.injected.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(delay);
                }
                Ok(ReadOutcome::Frame(header, payload))
            }
            Ok(ReadStep::Pending) => Ok(ReadOutcome::Pending),
            Ok(ReadStep::Eof) => Ok(ReadOutcome::Disconnect),
            Err(NetError::Io { .. }) => Ok(ReadOutcome::Disconnect),
            Err(error) => Err(error),
        }
    }

    /// Writes one response frame; applies truncate/garble faults. `Err`
    /// means the connection is unusable and the handler must close.
    fn write_response(&mut self, kind: FrameKind, payload: &Json) -> Result<(), ()> {
        // The connection loop may have left the socket non-blocking for its
        // drain poll; response writes must block until the frame is out.
        let _ = self.stream.set_nonblocking(false);
        let Ok(mut bytes) = frame_bytes(kind, payload) else {
            return Err(());
        };
        let frame = self.writes.fetch_add(1, Ordering::SeqCst) + 1;
        if self.plan.truncates_write(frame) {
            self.injected.fetch_add(1, Ordering::SeqCst);
            // Half the frame always cuts inside the header or payload: the
            // peer sees a length it can never satisfy, then EOF.
            let half = bytes.len() / 2;
            let _ = self.stream.write_all(&bytes[..half]);
            let _ = self.stream.flush();
            return Err(());
        }
        if self.plan.garbles_write(frame) {
            self.injected.fetch_add(1, Ordering::SeqCst);
            bytes[0] = 0x58;
            bytes[1] = 0x58;
        }
        self.stream.write_all(&bytes).map_err(|_| ())
    }
}

/// One pipelined score request awaiting its response slot.
enum Pending {
    /// An admitted row: resolve through `wait_deadline` at drain time.
    Ticket {
        endpoint: String,
        ticket: crate::ShardTicket,
        enqueued: Instant,
    },
    /// A request refused at enqueue; the error frame holds its response
    /// slot so request/response order stays 1:1.
    Refused(FleetError),
}

fn serve_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let mut faults = FaultStream {
        stream,
        plan: &shared.config.fault_plan,
        reads: &shared.frames_read,
        writes: &shared.frames_written,
        injected: &shared.faults_injected,
    };
    let mut reader = FrameReader::new(shared.config.max_frame_bytes);
    let mut pending: Vec<Pending> = Vec::new();
    loop {
        if pending.is_empty() {
            let _ = faults.stream.set_nonblocking(false);
            let _ = faults.stream.set_read_timeout(Some(IDLE_TICK));
        } else {
            let _ = faults.stream.set_nonblocking(true);
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            let _ = drain(&mut pending, &mut faults, shared);
            return;
        }
        match faults.read_request(&mut reader) {
            Ok(ReadOutcome::Pending) => {
                if !pending.is_empty() && drain(&mut pending, &mut faults, shared).is_err() {
                    return;
                }
            }
            Ok(ReadOutcome::Disconnect) => return,
            Ok(ReadOutcome::Frame(header, payload)) => {
                if header.version != PROTOCOL_VERSION {
                    let _ = drain(&mut pending, &mut faults, shared);
                    let error = NetError::VersionMismatch {
                        ours: PROTOCOL_VERSION,
                        theirs: header.version,
                    };
                    let _ = faults.write_response(FrameKind::Error, &error_json(&error));
                    return;
                }
                let kind = match FrameKind::from_u8(header.kind) {
                    Some(kind) if kind.is_request() => kind,
                    _ => {
                        // The stream is still framed correctly — answer in
                        // place and keep serving.
                        let error = NetError::Protocol {
                            message: format!("unknown request kind {:#04x}", header.kind),
                        };
                        if drain(&mut pending, &mut faults, shared).is_err()
                            || faults
                                .write_response(FrameKind::Error, &error_json(&error))
                                .is_err()
                        {
                            return;
                        }
                        continue;
                    }
                };
                let request =
                    parse_payload(&payload).and_then(|json| Request::from_wire(kind, &json));
                let request = match request {
                    Ok(request) => request,
                    Err(error) => {
                        if drain(&mut pending, &mut faults, shared).is_err()
                            || faults
                                .write_response(FrameKind::Error, &error_json(&error))
                                .is_err()
                        {
                            return;
                        }
                        continue;
                    }
                };
                match request {
                    Request::ScoreRow { endpoint, key, row } => {
                        let admitted = match key {
                            Some(key) => shared.fleet.score_keyed(&endpoint, key, &row),
                            None => shared.fleet.score(&endpoint, &row),
                        };
                        pending.push(match admitted {
                            Ok(ticket) => Pending::Ticket {
                                endpoint,
                                ticket,
                                enqueued: Instant::now(),
                            },
                            Err(error) => Pending::Refused(error),
                        });
                        shared
                            .peak_inflight
                            .fetch_max(pending.len(), Ordering::SeqCst);
                        if pending.len() >= shared.config.inflight_budget
                            && drain(&mut pending, &mut faults, shared).is_err()
                        {
                            return;
                        }
                    }
                    barrier => {
                        // Non-pipelined requests are barriers: every
                        // earlier response is written first, then the
                        // request runs synchronously.
                        if drain(&mut pending, &mut faults, shared).is_err() {
                            return;
                        }
                        let (kind, json) = match execute(barrier, shared) {
                            Ok(response) => (response.kind(), response.to_json()),
                            Err(error) => (FrameKind::Error, error_json(&error)),
                        };
                        if faults.write_response(kind, &json).is_err() {
                            return;
                        }
                    }
                }
            }
            Err(error) => {
                // Protocol-fatal read (bad magic / oversized frame): the
                // stream cannot be re-synchronised. Best-effort error
                // frame, then close.
                let _ = drain(&mut pending, &mut faults, shared);
                let _ = faults.write_response(FrameKind::Error, &error_json(&error));
                return;
            }
        }
    }
}

/// Writes every pending response in request order. Flushes each touched
/// endpoint once first, so responses never wait for the background
/// flusher's `max_wait` deadline.
fn drain(
    pending: &mut Vec<Pending>,
    faults: &mut FaultStream<'_>,
    shared: &Arc<Shared>,
) -> Result<(), ()> {
    if pending.is_empty() {
        return Ok(());
    }
    let mut flushed: Vec<&str> = Vec::new();
    for entry in pending.iter() {
        if let Pending::Ticket { endpoint, .. } = entry {
            if !flushed.contains(&endpoint.as_str()) {
                let _ = shared.fleet.flush(endpoint);
                flushed.push(endpoint);
            }
        }
    }
    let deadline = shared.config.request_deadline;
    for entry in std::mem::take(pending) {
        let (kind, json) = match entry {
            Pending::Ticket {
                ticket, enqueued, ..
            } => {
                let remaining = deadline.saturating_sub(enqueued.elapsed());
                match ticket.wait_deadline(remaining) {
                    Ok(report) => {
                        let response = Response::ScoreRow(report);
                        (response.kind(), response.to_json())
                    }
                    Err(error) => (FrameKind::Error, error_json(&NetError::Fleet(error))),
                }
            }
            Pending::Refused(error) => (FrameKind::Error, error_json(&NetError::Fleet(error))),
        };
        faults.write_response(kind, &json)?;
    }
    Ok(())
}

/// Runs one barrier request synchronously against the fleet.
fn execute(request: Request, shared: &Arc<Shared>) -> Result<Response, NetError> {
    let fleet = &shared.fleet;
    match request {
        Request::ScoreRow { endpoint, key, row } => {
            // Only reachable if a caller routes a score through the
            // barrier path; serve it synchronously with the same deadline.
            let ticket = match key {
                Some(key) => fleet.score_keyed(&endpoint, key, &row)?,
                None => fleet.score(&endpoint, &row)?,
            };
            let _ = fleet.flush(&endpoint);
            let report = ticket.wait_deadline(shared.config.request_deadline)?;
            Ok(Response::ScoreRow(report))
        }
        Request::ScoreBatch { endpoint, rows } => {
            let matrix = Matrix::from_rows(&rows).map_err(|error| NetError::Protocol {
                message: format!("malformed batch: {error}"),
            })?;
            let reports = fleet.score_batch(&endpoint, matrix.view())?;
            Ok(Response::ScoreBatch(reports))
        }
        Request::Flush { endpoint } => {
            let rows = fleet.flush(&endpoint)?;
            Ok(Response::Flush { rows })
        }
        Request::Deploy { endpoint, document } => {
            let detector =
                hmd_core::detector::load(&document).map_err(|error| FleetError::Detector {
                    message: error.to_string(),
                })?;
            let version = fleet.deploy(&endpoint, detector)?;
            Ok(Response::Deploy { version })
        }
        Request::Rollback { endpoint } => {
            let version = fleet.rollback(&endpoint)?;
            Ok(Response::Rollback { version })
        }
        Request::Health { endpoint } => {
            let snapshots = fleet.replica_health(&endpoint)?;
            Ok(Response::Health(snapshots))
        }
    }
}
