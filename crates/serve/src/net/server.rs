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
//!   requests pipeline until the budget is reached, then the server drains
//!   responses in request order before it admits another frame. Frames
//!   past the budget wait in the connection's bounded read buffer; a
//!   client that keeps writing fills the kernel's TCP window and blocks —
//!   the server's memory use stays flat ([`ServerStats::peak_inflight`]
//!   proves it).
//! * **Rows** are bounded by each endpoint's
//!   [`AdmissionPolicy`](crate::AdmissionPolicy), exactly as in-process.
//!
//! Request deadlines: every pipelined score request is resolved through
//! [`crate::ShardTicket::wait_deadline`] with the remainder of
//! [`ServerConfig::with_request_deadline`] measured from *enqueue*, so a
//! stuck replica turns into a `DeadlineExceeded` error frame instead of a
//! wedged connection.
//!
//! Per-row cost: one socket read takes every frame the kernel holds
//! (read-ahead, see [`FrameReader`]), every complete frame is served
//! before the socket is read again, and the replies of a drain leave in
//! one write. `ScoreRow` requests decode straight into per-connection
//! buffers and their replies are written straight into the output buffer,
//! with no JSON tree either way; the socket's blocking mode changes only
//! when it must, and its read timeout is set once per connection.

use crate::faults::FaultPlan;
use crate::fleet::FleetError;
use crate::net::wire::{
    decode_score_row, error_json, frame_bytes, push_frame, write_report, Fill, FrameKind,
    FrameReader, Request, Response, DEFAULT_MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
use crate::net::NetError;
use crate::shard::ShardedFleet;
use crate::sync::LockExt;
use hmd_codec::frame::FrameHeader;
use hmd_codec::Json;
use hmd_data::Matrix;
use std::io::Write;
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Read timeout of every connection's socket, set once when the
/// connection opens: while a connection has no pending responses, it
/// bounds how long shutdown and idle detection wait on a quiet socket.
///
/// While responses ARE pending the server never waits on the socket: the
/// drain starts as soon as a read comes back short (the kernel held no
/// more bytes) or would block, and only a read that filled its whole chunk
/// is followed by a non-blocking one. A timed read here would add kernel
/// timer granularity (several ms) to every request's latency.
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
    /// Socket reads, socket writes and blocking-mode switches across all
    /// connections: the per-row cost the count tests pin. Idle ticks
    /// (blocking reads that timed out) are not counted as reads: they cost
    /// one read per [`IDLE_TICK`] of silence, not per row.
    socket_reads: AtomicU64,
    socket_writes: AtomicU64,
    mode_switches: AtomicU64,
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
            socket_reads: AtomicU64::new(0),
            socket_writes: AtomicU64::new(0),
            mode_switches: AtomicU64::new(0),
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

/// A [`TcpStream`] plus the connection's output buffer, whose frame-level
/// reads and writes misbehave on the schedule of the [`FaultPlan`]'s
/// transport half. Frame numbers count across the server's lifetime
/// (shared atomics), so a scheduled fault fires exactly once even though
/// the faults themselves force clients to reconnect.
struct FaultStream<'a> {
    stream: TcpStream,
    shared: &'a Shared,
    /// The socket's `O_NONBLOCK` state, tracked so it is switched only
    /// when it must change.
    nonblocking: bool,
    /// Reply frames not yet sent; they leave in one write before the next
    /// read.
    out: Vec<u8>,
    /// Set by a truncate fault: send `out[..cut]`, then close.
    cut: Option<usize>,
}

impl FaultStream<'_> {
    fn set_nonblocking(&mut self, nonblocking: bool) {
        if self.nonblocking != nonblocking {
            self.shared.mode_switches.fetch_add(1, Ordering::Relaxed);
            if self.stream.set_nonblocking(nonblocking).is_ok() {
                self.nonblocking = nonblocking;
            }
        }
    }

    /// One socket read into `reader`: non-blocking while responses are
    /// pending, otherwise blocking up to [`IDLE_TICK`].
    fn fill(&mut self, reader: &mut FrameReader, nonblocking: bool) -> Result<Fill, NetError> {
        self.set_nonblocking(nonblocking);
        let filled = reader.fill(&mut self.stream);
        if nonblocking || !matches!(filled, Ok(Fill::Pending)) {
            self.shared.socket_reads.fetch_add(1, Ordering::Relaxed);
        }
        filled
    }

    /// Numbers a request frame just read and applies drop/slow faults to
    /// it; `false` means an injected drop: close without responding.
    fn frame_read(&mut self) -> bool {
        let frame = self.shared.frames_read.fetch_add(1, Ordering::SeqCst) + 1;
        let plan = &self.shared.config.fault_plan;
        if plan.drops_read(frame) {
            self.shared.faults_injected.fetch_add(1, Ordering::SeqCst);
            return false;
        }
        if let Some(delay) = plan.read_delay(frame) {
            self.shared.faults_injected.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(delay);
        }
        true
    }

    /// Appends one response frame (`push` writes it whole) to the output
    /// and applies truncate/garble faults to it. `Err` means the
    /// connection ends: send what is buffered, then close.
    fn reply(&mut self, push: impl FnOnce(&mut Vec<u8>) -> Result<(), NetError>) -> Result<(), ()> {
        let start = self.out.len();
        push(&mut self.out).map_err(|_| ())?;
        let frame = self.shared.frames_written.fetch_add(1, Ordering::SeqCst) + 1;
        let plan = &self.shared.config.fault_plan;
        if plan.truncates_write(frame) {
            self.shared.faults_injected.fetch_add(1, Ordering::SeqCst);
            // Half the frame always cuts inside the header or payload: the
            // peer sees a length it can never satisfy, then EOF.
            self.cut = Some(start + (self.out.len() - start) / 2);
            return Err(());
        }
        if plan.garbles_write(frame) {
            self.shared.faults_injected.fetch_add(1, Ordering::SeqCst);
            self.out[start] = 0x58;
            self.out[start + 1] = 0x58;
        }
        Ok(())
    }

    fn reply_json(&mut self, kind: FrameKind, payload: &Json) -> Result<(), ()> {
        self.reply(|out| {
            out.extend_from_slice(&frame_bytes(kind, payload)?);
            Ok(())
        })
    }

    /// Sends every buffered response with one blocking write. `Err` means
    /// the connection is unusable (or a truncate fault cut it) and the
    /// handler must close.
    fn send(&mut self) -> Result<(), ()> {
        if self.out.is_empty() {
            return Ok(());
        }
        self.set_nonblocking(false);
        let end = self.cut.unwrap_or(self.out.len());
        self.shared.socket_writes.fetch_add(1, Ordering::Relaxed);
        let written = self.stream.write_all(&self.out[..end]);
        self.out.clear();
        if self.cut.is_some() {
            let _ = self.stream.flush();
            return Err(());
        }
        written.map_err(|_| ())
    }
}

/// One pipelined score request awaiting its response slot.
enum Pending {
    /// An admitted row: resolve through `wait_deadline` at drain time.
    Ticket {
        ticket: crate::ShardTicket,
        enqueued: Instant,
    },
    /// A request refused at enqueue; the error frame holds its response
    /// slot so request/response order stays 1:1.
    Refused(FleetError),
}

/// Whether a connection keeps serving after a frame.
enum Flow {
    Continue,
    Close,
}

/// One connection's serving state.
struct Handler<'a> {
    io: FaultStream<'a>,
    shared: &'a Shared,
    pending: Vec<Pending>,
    /// Endpoints of the admitted rows in `pending`, each flushed once per
    /// drain.
    touched: Vec<String>,
    /// `ScoreRow` decode buffers, reused for every row of the connection.
    endpoint: String,
    row: Vec<f64>,
}

fn serve_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(IDLE_TICK));
    let mut handler = Handler {
        io: FaultStream {
            stream,
            shared,
            nonblocking: false,
            out: Vec::new(),
            cut: None,
        },
        shared,
        pending: Vec::new(),
        touched: Vec::new(),
        endpoint: String::new(),
        row: Vec::new(),
    };
    let mut reader = FrameReader::new(shared.config.max_frame_bytes);
    // The last read filled its whole chunk, so the kernel may hold more.
    let mut more = false;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            handler.close();
            return;
        }
        // Serve every complete frame already read before reading again.
        loop {
            let flow = match reader.next_frame() {
                Ok(Some((header, payload))) => handler.frame(header, payload),
                Ok(None) => break,
                Err(error) => {
                    // Protocol-fatal read (bad magic / oversized frame):
                    // the stream cannot be re-synchronised. Best-effort
                    // error frame, then close.
                    let _ = handler.answer(&error);
                    Flow::Close
                }
            };
            if let Flow::Close = flow {
                let _ = handler.io.send();
                return;
            }
        }
        // A short read drained the kernel's buffer: nothing else can join
        // this pipeline without waiting for the peer.
        if !more && handler.drain().is_err() {
            let _ = handler.io.send();
            return;
        }
        if handler.io.send().is_err() {
            return;
        }
        match handler.io.fill(&mut reader, !handler.pending.is_empty()) {
            Ok(Fill::Data { drained }) => more = !drained,
            Ok(Fill::Pending) => more = false,
            Ok(Fill::Eof) => {
                // A clean EOF (the peer half-closed or closed between
                // frames): answer every admitted request, best effort.
                handler.close();
                return;
            }
            // A socket error: close without responding.
            Err(_) => return,
        }
    }
}

impl Handler<'_> {
    /// Serves one request frame.
    fn frame(&mut self, header: FrameHeader, payload: &[u8]) -> Flow {
        if !self.io.frame_read() {
            return Flow::Close;
        }
        if header.version != PROTOCOL_VERSION {
            let error = NetError::VersionMismatch {
                ours: PROTOCOL_VERSION,
                theirs: header.version,
            };
            let _ = self.answer(&error);
            return Flow::Close;
        }
        let kind = match FrameKind::from_u8(header.kind) {
            Some(FrameKind::ScoreRow) => return self.score_row(payload),
            Some(kind) if kind.is_request() => kind,
            // The stream is still framed correctly — answer in place and
            // keep serving.
            _ => {
                return self.answer(&NetError::Protocol {
                    message: format!("unknown request kind {:#04x}", header.kind),
                })
            }
        };
        let request = match Request::decode(kind, payload) {
            Ok(request) => request,
            Err(error) => return self.answer(&error),
        };
        // Non-pipelined requests are barriers: every earlier response is
        // written first, then the request runs synchronously.
        if self.drain().is_err() {
            return Flow::Close;
        }
        let replied = match execute(request, self.shared) {
            Ok(response) => self.io.reply_json(response.kind(), &response.to_json()),
            Err(error) => self.io.reply_json(FrameKind::Error, &error_json(&error)),
        };
        match replied {
            Ok(()) => Flow::Continue,
            Err(()) => Flow::Close,
        }
    }

    /// Admits one pipelined row; drains once the in-flight budget is full.
    fn score_row(&mut self, payload: &[u8]) -> Flow {
        let key = match decode_score_row(payload, &mut self.endpoint, &mut self.row) {
            Ok(key) => key,
            Err(error) => return self.answer(&error),
        };
        let fleet = &self.shared.fleet;
        let admitted = match key {
            Some(key) => fleet.score_keyed(&self.endpoint, key, &self.row),
            None => fleet.score(&self.endpoint, &self.row),
        };
        self.pending.push(match admitted {
            Ok(ticket) => {
                if !self.touched.contains(&self.endpoint) {
                    self.touched.push(self.endpoint.clone());
                }
                Pending::Ticket {
                    ticket,
                    enqueued: Instant::now(),
                }
            }
            Err(error) => Pending::Refused(error),
        });
        self.shared
            .peak_inflight
            .fetch_max(self.pending.len(), Ordering::SeqCst);
        if self.pending.len() >= self.shared.config.inflight_budget && self.drain().is_err() {
            return Flow::Close;
        }
        Flow::Continue
    }

    /// Answers every pending request and sends, best effort, before the
    /// connection closes.
    fn close(&mut self) {
        let _ = self.drain();
        let _ = self.io.send();
    }

    /// Answers a request with an error frame, in order: every earlier
    /// response first.
    fn answer(&mut self, error: &NetError) -> Flow {
        let answered = self
            .drain()
            .and_then(|()| self.io.reply_json(FrameKind::Error, &error_json(error)));
        match answered {
            Ok(()) => Flow::Continue,
            Err(()) => Flow::Close,
        }
    }

    /// Appends every pending response, in request order, to the output.
    /// Flushes each touched endpoint once first, so responses never wait
    /// for the background flusher's `max_wait` deadline.
    fn drain(&mut self) -> Result<(), ()> {
        for endpoint in self.touched.drain(..) {
            let _ = self.shared.fleet.flush(&endpoint);
        }
        let deadline = self.shared.config.request_deadline;
        for entry in self.pending.drain(..) {
            match entry {
                Pending::Ticket { ticket, enqueued } => {
                    let remaining = deadline.saturating_sub(enqueued.elapsed());
                    match ticket.wait_deadline(remaining) {
                        Ok(report) => self.io.reply(|out| {
                            push_frame(out, FrameKind::ScoreRowReply, |out| {
                                write_report(&report, out)
                            })
                        })?,
                        Err(error) => self
                            .io
                            .reply_json(FrameKind::Error, &error_json(&NetError::Fleet(error)))?,
                    }
                }
                Pending::Refused(error) => self
                    .io
                    .reply_json(FrameKind::Error, &error_json(&NetError::Fleet(error)))?,
            }
        }
        Ok(())
    }
}

/// Runs one barrier request synchronously against the fleet.
fn execute(request: Request, shared: &Shared) -> Result<Response, NetError> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::wire::ReadStep;
    use hmd_core::detector::{DetectorBackend, DetectorConfig};
    use hmd_data::{Dataset, Label};
    use std::io::Read;
    use std::net::Shutdown;

    fn detector() -> Box<dyn hmd_core::detector::Detector> {
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                let c = if i % 2 == 0 { 2.0 } else { -2.0 };
                vec![c + f64::from(i % 5) * 0.1, c - f64::from(i % 3) * 0.1]
            })
            .collect();
        let labels = (0..40).map(|i| Label::from(i % 2 == 0)).collect();
        let data = Dataset::new(Matrix::from_rows(&rows).unwrap(), labels).unwrap();
        DetectorConfig::trusted(DetectorBackend::decision_tree())
            .with_num_estimators(5)
            .fit(&data, 3)
            .unwrap()
    }

    /// Ceiling (a ratchet: lower it when the server gets cheaper, raise it
    /// only with a CHANGES.md line saying why). One in-flight budget of
    /// pipelined rows, sent in one client write and followed by a
    /// half-close, costs the server one socket write for all 16 replies,
    /// at most two reads (the burst, then EOF) and no blocking-mode
    /// switch. Reading exactly one header and then one payload, writing
    /// each reply on its own and switching modes per frame, it cost 16
    /// writes and 32 reads.
    #[test]
    fn a_pipelined_budget_costs_one_write_and_at_most_two_reads() {
        let fleet = Arc::new(ShardedFleet::new(1));
        fleet.deploy("ep", detector()).unwrap();
        let server = FleetServer::bind(fleet, ServerConfig::new()).unwrap();
        let budget = ServerConfig::new().inflight_budget;
        assert_eq!(budget, 16);

        let mut socket = TcpStream::connect(server.local_addr()).unwrap();
        let mut burst = Vec::new();
        for i in 0..budget {
            let request = Request::ScoreRow {
                endpoint: "ep".into(),
                key: None,
                row: vec![i as f64 - 8.0, 0.5],
            };
            burst.extend(frame_bytes(request.kind(), &request.to_json()).unwrap());
        }
        socket.write_all(&burst).unwrap();
        socket.shutdown(Shutdown::Write).unwrap();
        let mut replies = Vec::new();
        socket.read_to_end(&mut replies).unwrap();

        let mut reader = FrameReader::new(DEFAULT_MAX_FRAME_BYTES);
        let mut frames = 0;
        let mut bytes = replies.as_slice();
        while let ReadStep::Frame(header, _) = reader.poll(&mut bytes).unwrap() {
            assert_eq!(header.kind, FrameKind::ScoreRowReply.as_u8());
            frames += 1;
        }
        assert_eq!(frames, budget);
        let shared = &server.shared;
        assert_eq!(shared.socket_writes.load(Ordering::SeqCst), 1);
        assert!(shared.socket_reads.load(Ordering::SeqCst) <= 2);
        assert_eq!(shared.mode_switches.load(Ordering::SeqCst), 0);
    }
}
