//! The serving unit: one versioned, micro-batching detector replica under
//! its own supervision.
//!
//! This module is the substrate of the serving crate. An [`Endpoint`] owns a
//! versioned stack of `Arc<dyn Detector>` models, its own [`MonitorStats`],
//! one pending micro-batch tile, an admission budget
//! ([`crate::AdmissionPolicy`]) and a circuit breaker
//! ([`crate::BreakerPolicy`]). [`crate::ShardedFleet`] holds one endpoint per
//! replica of every named endpoint and routes between them; a fleet-wide
//! supervisor thread ([`crate::supervisor`]) fires `max_wait` deadlines even
//! when no caller is blocked in [`ShardTicket::wait`].

use crate::admission::AdmissionPolicy;
use crate::breaker::{degraded_escalation, Admission, Breaker, BreakerState, FallbackPolicy};
use crate::deadline_after;
use crate::shard::{ShardConfig, ShardedReport};
use crate::supervisor::TileNotifier;
use crate::sync::{unpoison, LockExt, RwLockExt};
use hmd_core::detector::{Detector, MonitorStats};
use hmd_core::trusted::DetectionReport;
use hmd_data::{Matrix, RowsView};
use hmd_ml::MlError;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

/// When a per-endpoint request tile drains through the batch hot path.
///
/// A tile flushes as soon as **either** bound is hit: it collected
/// `max_batch` rows, or the oldest enqueued request has waited `max_wait`
/// (enforced by the fleet's background flusher, or by whichever
/// [`ShardTicket::wait`] caller notices first — whichever comes sooner).
/// Large `max_batch` + small `max_wait` trades a bounded latency floor for
/// batch-sized throughput; `max_batch == 1` degenerates to direct scoring.
/// A `max_wait` too large to represent as a deadline (such as
/// `Duration::MAX`) never expires: such tiles drain only at `max_batch` or
/// on an explicit flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushPolicy {
    /// Maximum rows collected before the enqueueing caller drains the tile.
    pub max_batch: usize,
    /// Maximum time the oldest request waits before the tile is drained for
    /// it (never below [`FlushPolicy::MIN_WAIT`]).
    pub max_wait: Duration,
}

impl FlushPolicy {
    /// The smallest accepted `max_wait`. A zero (or near-zero) deadline
    /// would mark every tile expired the moment it opens: batching
    /// degenerates to per-row scoring while the background flusher spins on
    /// perpetually-expired tiles. [`FlushPolicy::new`] clamps up to this
    /// floor instead.
    pub const MIN_WAIT: Duration = Duration::from_micros(100);

    /// A policy flushing at `max_batch` rows or after `max_wait`.
    ///
    /// Both degenerate edges are clamped rather than rejected, because
    /// every clamped value still has a well-defined meaning: `max_batch`
    /// is raised to 1 (a 0-row tile could never drain), and `max_wait` is
    /// raised to [`FlushPolicy::MIN_WAIT`] (an already-expired tile defeats
    /// batching — see the constant's docs).
    pub fn new(max_batch: usize, max_wait: Duration) -> FlushPolicy {
        FlushPolicy {
            max_batch: max_batch.max(1),
            max_wait: max_wait.max(Self::MIN_WAIT),
        }
    }
}

impl Default for FlushPolicy {
    /// 64 rows (one flat-engine tile) or 2 ms, whichever comes first.
    fn default() -> FlushPolicy {
        FlushPolicy::new(64, Duration::from_millis(2))
    }
}

/// Errors of the fleet layer.
///
/// Cloneable (a failed micro-batch distributes the same error to every
/// ticket) and `#[non_exhaustive]` like the rest of the detector error
/// surface.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FleetError {
    /// No endpoint with the requested name is deployed.
    UnknownEndpoint {
        /// The requested endpoint name.
        name: String,
    },
    /// `rollback` was called on an endpoint with no retired version.
    NoPreviousVersion {
        /// The endpoint name.
        name: String,
    },
    /// A scored row's feature count disagrees with the rows already queued
    /// in the endpoint's pending tile.
    WidthMismatch {
        /// Feature count of the rows already enqueued.
        expected: usize,
        /// Feature count of the rejected row.
        found: usize,
    },
    /// The detector rejected the drained batch (e.g. wrong feature count
    /// for the model). Carries the detector error's message.
    Detector {
        /// Display form of the underlying `MlError`.
        message: String,
    },
    /// [`crate::ShardedFleet::deploy_replicas`] was given a number of
    /// detectors other than the fleet's replica count; nothing was
    /// published.
    Replication {
        /// What was expected and what was given.
        message: String,
    },
    /// The endpoint's admission budget is exhausted: `depth` rows were
    /// already admitted against a budget of `limit`. The request was shed
    /// **before** copying anything — retry after backoff, or route
    /// elsewhere.
    Overloaded {
        /// Rows admitted (queued or in a draining batch) when the request
        /// arrived.
        depth: usize,
        /// The endpoint's [`AdmissionPolicy::max_pending_rows`].
        limit: usize,
    },
    /// The endpoint's circuit breaker is Open (under
    /// [`FallbackPolicy::Reject`]): recent drains failed consecutively and
    /// the endpoint is shedding until a half-open probe succeeds.
    CircuitOpen,
    /// [`ShardTicket::wait_deadline`] gave up before the batch drained. The
    /// request itself is still in flight — only this waiter timed out.
    DeadlineExceeded {
        /// How long the caller was willing to wait.
        timeout: Duration,
    },
    /// A shadow operation (`promote_shadow`, and friends that require a
    /// challenger) was called on an endpoint with no challenger installed.
    NoShadow {
        /// The endpoint name.
        name: String,
    },
}

impl FleetError {
    /// The variant's **stable numeric code**, as carried in wire-protocol
    /// error frames (see `PROTOCOL.md`) and suitable for structured logs.
    ///
    /// The mapping is append-only: a code, once published, names its
    /// variant forever — new variants take fresh numbers, retired variants
    /// retire their number with them. Codes below 100 are fleet-semantic
    /// errors; the 100+ range is reserved for the transport layer
    /// (`hmd_serve::net`). The match is deliberately exhaustive (no `_`
    /// arm): adding a `FleetError` variant without assigning it a code is a
    /// compile error here and a test failure in `error_codes_are_stable`.
    pub fn code(&self) -> u16 {
        match self {
            FleetError::UnknownEndpoint { .. } => 1,
            FleetError::NoPreviousVersion { .. } => 2,
            FleetError::WidthMismatch { .. } => 3,
            FleetError::Detector { .. } => 4,
            FleetError::Replication { .. } => 5,
            FleetError::Overloaded { .. } => 6,
            FleetError::CircuitOpen => 7,
            FleetError::DeadlineExceeded { .. } => 8,
            FleetError::NoShadow { .. } => 9,
        }
    }
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::UnknownEndpoint { name } => write!(f, "unknown endpoint `{name}`"),
            FleetError::NoPreviousVersion { name } => {
                write!(
                    f,
                    "endpoint `{name}` has no previous version to roll back to"
                )
            }
            FleetError::WidthMismatch { expected, found } => write!(
                f,
                "row width {found} does not match the pending tile width {expected}"
            ),
            FleetError::Detector { message } => write!(f, "detector error: {message}"),
            FleetError::Replication { message } => {
                write!(
                    f,
                    "replicating the detector across shards failed: {message}"
                )
            }
            FleetError::Overloaded { depth, limit } => write!(
                f,
                "endpoint overloaded: {depth} rows pending against a budget of {limit}"
            ),
            FleetError::CircuitOpen => {
                write!(f, "circuit breaker open: the endpoint is shedding requests")
            }
            FleetError::DeadlineExceeded { timeout } => {
                write!(f, "request not scored within {timeout:?}")
            }
            FleetError::NoShadow { name } => {
                write!(f, "endpoint `{name}` has no shadow challenger installed")
            }
        }
    }
}

impl std::error::Error for FleetError {}

impl From<MlError> for FleetError {
    fn from(err: MlError) -> FleetError {
        FleetError::Detector {
            message: err.to_string(),
        }
    }
}

/// Per-endpoint supervision counters: what was shed, degraded, tripped and
/// flushed — the health view a dashboard or router polls.
///
/// Degraded rows deliberately do **not** feed the endpoint's
/// [`MonitorStats`]: a synthetic escalation with infinite entropy would
/// permanently pollute the entropy extremes that describe the *model's*
/// behaviour. Supervision outcomes live here instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct HealthSnapshot {
    /// The breaker's stored state (see [`BreakerState`] for the Open →
    /// HalfOpen reporting caveat).
    pub breaker: BreakerState,
    /// Rows admitted but not yet scored (open tile + batches in flight) —
    /// the value the admission budget bounds.
    pub pending_rows: usize,
    /// Requests shed with [`FleetError::Overloaded`].
    pub shed_overload: u64,
    /// Requests shed by the breaker (rejected **or** degraded).
    pub shed_circuit: u64,
    /// Rows answered with the synthetic [`degraded_escalation`] report
    /// under [`FallbackPolicy::EscalateUncertain`].
    pub degraded_rows: u64,
    /// Times the breaker tripped (Closed/HalfOpen → Open).
    pub breaker_trips: u64,
    /// Tiles drained by the background flusher because their `max_wait`
    /// deadline expired with no caller driving them.
    pub expired_flushes: u64,
}

#[derive(Default)]
struct Health {
    shed_overload: AtomicU64,
    shed_circuit: AtomicU64,
    degraded_rows: AtomicU64,
    breaker_trips: AtomicU64,
    expired_flushes: AtomicU64,
}

/// One published version of an endpoint's detector.
///
/// The detector is held behind an `Arc` (not a `Box`) so every replica of
/// an endpoint serves one shared instance, and a challenger promoted out of
/// the shadow slot becomes the active version as is — the same instance
/// that accumulated shadow statistics starts serving.
pub(crate) struct Version {
    pub(crate) number: u64,
    pub(crate) detector: Arc<dyn Detector>,
}

/// The challenger riding along with an endpoint: a detector that scores
/// every batch the champion serves, into its **own** statistics.
///
/// Isolation invariant (the whole point of shadow deployment): nothing a
/// shadow produces ever reaches a caller or the champion's [`MonitorStats`].
/// The shadow pass runs *after* the champion's results are published and
/// records exclusively into this struct, so served rows are bit-identical
/// to a shadowless endpoint by construction.
struct ShadowState {
    detector: Arc<dyn Detector>,
    stats: Mutex<MonitorStats>,
    /// Rows offered to the challenger (including rows of failed attempts).
    rows: AtomicU64,
    /// Shadow batches whose scoring failed or broke the report-count
    /// contract. Champion serving is unaffected; a challenger that cannot
    /// score production traffic simply disqualifies itself here.
    errors: AtomicU64,
}

/// Observable state of an endpoint's challenger: its own monitor
/// statistics plus shadow-specific counters — the evidence a promotion
/// decision is gated on.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct ShadowSnapshot {
    /// The challenger detector's human-readable description.
    pub detector: String,
    /// The challenger's own [`MonitorStats`] over every row it shadow-scored
    /// since it was installed. Never merged into the champion's statistics.
    pub stats: MonitorStats,
    /// Rows offered to the challenger (rows of failed batches included).
    pub rows: u64,
    /// Shadow batches that failed to score. A healthy challenger keeps this
    /// at 0; any other value should block promotion.
    pub errors: u64,
}

/// Result cell shared by every ticket of one micro-batch: one allocation per
/// tile, not per request.
struct BatchCell {
    /// `None` while the batch is pending or in flight; per-row results after
    /// the drain (each ticket reads its own index — tickets are moved into
    /// `wait`, so an index is claimed at most once).
    results: Mutex<Option<Vec<Result<ShardedReport, FleetError>>>>,
    ready: Condvar,
}

impl BatchCell {
    fn new() -> Arc<BatchCell> {
        Arc::new(BatchCell {
            results: Mutex::new(None),
            ready: Condvar::new(),
        })
    }

    fn fill(&self, results: Vec<Result<ShardedReport, FleetError>>) {
        let mut guard = self.results.lock_unpoisoned();
        *guard = Some(results);
        self.ready.notify_all();
    }
}

/// An open request tile: rows flattened into one buffer, the shared result
/// cell, and the version captured when the tile was opened.
///
/// The endpoint's pending slot is `Mutex<Option<OpenTile>>`: `None` means no
/// tile is open, and an `OpenTile` *by construction* holds at least the row
/// that opened it, a live cell and a pinned version. Taking the value out of
/// the slot hands the whole tile to the drainer; producers see `None` and
/// open a fresh one.
struct OpenTile {
    width: usize,
    rows: Vec<f64>,
    count: usize,
    cell: Arc<BatchCell>,
    version: Arc<Version>,
    /// When the tile expires; `None` when `max_wait` is too large to
    /// represent, and the tile never expires.
    deadline: Option<Instant>,
}

/// One serving replica: a versioned detector stack, a pending micro-batch
/// tile, running monitor statistics, and its own supervision state (breaker,
/// admission counter, health counters).
///
/// Crate-visible so [`crate::ShardedFleet`] can hold N of these per logical
/// endpoint; the public API goes through the fleet.
pub(crate) struct Endpoint {
    /// This replica's index within its logical endpoint, stamped on every
    /// report it serves.
    replica: usize,
    flush: FlushPolicy,
    admission: AdmissionPolicy,
    versions: Mutex<VersionStack>,
    pending: Mutex<Option<OpenTile>>,
    pub(crate) stats: Mutex<MonitorStats>,
    /// The challenger slot. `RwLock` so the per-drain existence check is a
    /// cheap shared read; the guard is only ever held to clone the `Arc`
    /// out (never across inference — see the crate's lock discipline).
    shadow: RwLock<Option<Arc<ShadowState>>>,
    breaker: Breaker,
    /// Rows admitted but not yet scored — incremented at enqueue, decremented
    /// when the drain publishes results, so the admission budget covers the
    /// open tile *and* batches in flight.
    pending_rows: AtomicUsize,
    health: Health,
    notifier: TileNotifier,
}

struct VersionStack {
    active: Arc<Version>,
    retired: Vec<Arc<Version>>,
    next: u64,
}

impl Endpoint {
    /// Replica `replica` of a logical endpoint, serving `detector` as
    /// version 1 under the flush, admission and breaker policies of
    /// `config`.
    pub(crate) fn new(
        detector: Arc<dyn Detector>,
        replica: usize,
        config: &ShardConfig,
        notifier: TileNotifier,
    ) -> Endpoint {
        Endpoint {
            replica,
            flush: config.flush,
            admission: config.admission,
            versions: Mutex::new(VersionStack {
                active: Arc::new(Version {
                    number: 1,
                    detector,
                }),
                retired: Vec::new(),
                next: 2,
            }),
            pending: Mutex::new(None),
            stats: Mutex::new(MonitorStats::default()),
            shadow: RwLock::new(None),
            breaker: Breaker::new(config.breaker),
            pending_rows: AtomicUsize::new(0),
            health: Health::default(),
            notifier,
        }
    }

    pub(crate) fn active(&self) -> Arc<Version> {
        Arc::clone(&self.versions.lock_unpoisoned().active)
    }

    /// Rows currently queued in the open tile — the load signal the sharded
    /// layer's least-loaded router reads.
    ///
    /// This is a **racy snapshot**, not a synchronisation primitive: the
    /// tile lock is released before the value is returned, so by the time a
    /// caller acts on it the tile may have drained, grown, or been replaced.
    /// That is exactly good enough for routing ("emptier than its siblings")
    /// and dashboards; never gate correctness on it. It also counts only the
    /// open tile — rows in a batch that is draining right now are tracked by
    /// the admission counter ([`HealthSnapshot::pending_rows`]), not here.
    pub(crate) fn pending_depth(&self) -> usize {
        self.pending
            .lock_unpoisoned()
            .as_ref()
            .map_or(0, |tile| tile.count)
    }

    /// Whether a request arriving at `now` would be shed by the breaker —
    /// the time-aware signal breaker-aware routing reads (an Open breaker
    /// past its cooldown wants a probe, so it is *not* shedding).
    pub(crate) fn would_shed(&self, now: Instant) -> bool {
        self.breaker.would_shed(now)
    }

    /// The breaker's stored state.
    pub(crate) fn breaker_state(&self) -> BreakerState {
        self.breaker.state()
    }

    /// Supervision counters plus the breaker state, as one atomic-ish
    /// snapshot (each counter is read independently; exact cross-counter
    /// consistency is not promised).
    pub(crate) fn health(&self) -> HealthSnapshot {
        HealthSnapshot {
            breaker: self.breaker.state(),
            pending_rows: self.pending_rows.load(Ordering::SeqCst),
            shed_overload: self.health.shed_overload.load(Ordering::Relaxed),
            shed_circuit: self.health.shed_circuit.load(Ordering::Relaxed),
            degraded_rows: self.health.degraded_rows.load(Ordering::Relaxed),
            breaker_trips: self.health.breaker_trips.load(Ordering::Relaxed),
            expired_flushes: self.health.expired_flushes.load(Ordering::Relaxed),
        }
    }

    /// How many retired versions an endpoint keeps for rollback. Bounded so
    /// a long-running fleet that redeploys periodically does not retain
    /// every fitted model it ever served.
    const MAX_RETIRED: usize = 4;

    /// Publishes a new version. The swap is atomic w.r.t. `active()` and
    /// happens **before** the flush: once `deploy` returns, every new tile
    /// opens on the new version (flushing first would leave a window where
    /// a freshly opened tile pins the retiring version past the return). A
    /// pending tile keeps the version it captured when it opened, so
    /// requests already enqueued finish on the old detector; the flush
    /// drains that tile to bound how long the retired version keeps
    /// serving.
    pub(crate) fn deploy(&self, detector: Arc<dyn Detector>) -> u64 {
        let number = {
            let mut versions = self.versions.lock_unpoisoned();
            let number = versions.next;
            versions.next += 1;
            let old =
                std::mem::replace(&mut versions.active, Arc::new(Version { number, detector }));
            versions.retired.push(old);
            if versions.retired.len() > Self::MAX_RETIRED {
                versions.retired.remove(0); // drop the oldest retained model
            }
            number
        };
        self.flush();
        number
    }

    /// Installs `detector` as this endpoint's challenger, replacing (and
    /// discarding the statistics of) any previous shadow. The challenger
    /// starts with fresh [`MonitorStats`] so its evidence covers exactly
    /// its own tenure.
    pub(crate) fn set_shadow(&self, detector: Arc<dyn Detector>) {
        *self.shadow.write_unpoisoned() = Some(Arc::new(ShadowState {
            detector,
            stats: Mutex::new(MonitorStats::default()),
            rows: AtomicU64::new(0),
            errors: AtomicU64::new(0),
        }));
    }

    /// The installed challenger, if any — an `Arc` clone taken under a
    /// short read guard, never held across inference.
    fn shadow(&self) -> Option<Arc<ShadowState>> {
        self.shadow.read_unpoisoned().clone()
    }

    fn snapshot_of(shadow: &ShadowState) -> ShadowSnapshot {
        let stats = *shadow.stats.lock_unpoisoned();
        ShadowSnapshot {
            detector: shadow.detector.name(),
            stats,
            rows: shadow.rows.load(Ordering::Relaxed),
            errors: shadow.errors.load(Ordering::Relaxed),
        }
    }

    /// Observable state of the challenger (`None` when no shadow is
    /// installed).
    pub(crate) fn shadow_snapshot(&self) -> Option<ShadowSnapshot> {
        self.shadow().map(|shadow| Self::snapshot_of(&shadow))
    }

    /// Removes the challenger without promoting it, returning its final
    /// evidence.
    pub(crate) fn clear_shadow(&self) -> Option<ShadowSnapshot> {
        let taken = self.shadow.write_unpoisoned().take();
        taken.map(|shadow| Self::snapshot_of(&shadow))
    }

    /// Promotes the challenger to champion: the shadow slot empties and the
    /// **same detector instance** that accumulated the shadow evidence is
    /// published as the next version (the outgoing champion is retired for
    /// [`Endpoint::rollback`]). Returns the published version number.
    pub(crate) fn promote_shadow(&self, name: &str) -> Result<u64, FleetError> {
        let taken = self.shadow.write_unpoisoned().take();
        match taken {
            Some(shadow) => Ok(self.deploy(Arc::clone(&shadow.detector))),
            None => Err(FleetError::NoShadow {
                name: name.to_string(),
            }),
        }
    }

    /// Reset-on-read window over the champion's statistics: everything
    /// recorded since the previous call (see
    /// [`MonitorStats::window_snapshot`]). Lifetime statistics are
    /// untouched.
    pub(crate) fn window_stats(&self) -> MonitorStats {
        self.stats.lock_unpoisoned().window_snapshot()
    }

    /// Scores `batch` through the challenger, if one is installed, into the
    /// challenger's own statistics. Called after the champion's results are
    /// published; infallible by design — shadow failures are evidence
    /// against the challenger, never an error on the serving path.
    fn shadow_observe(&self, batch: RowsView<'_>) {
        let Some(shadow) = self.shadow() else {
            return;
        };
        let expected = batch.rows();
        shadow.rows.fetch_add(expected as u64, Ordering::Relaxed);
        match shadow.detector.detect_rows(batch) {
            Ok(reports) if reports.len() == expected => {
                let mut stats = shadow.stats.lock_unpoisoned();
                for report in &reports {
                    stats.record(report);
                }
            }
            Ok(_) | Err(_) => {
                shadow.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    pub(crate) fn rollback(&self, name: &str) -> Result<u64, FleetError> {
        let restored = {
            let mut versions = self.versions.lock_unpoisoned();
            let restored = versions
                .retired
                .pop()
                .ok_or_else(|| FleetError::NoPreviousVersion {
                    name: name.to_string(),
                })?;
            versions.active = restored;
            versions.active.number
        };
        // Same order as deploy: the swap is already visible, the flush only
        // drains a tile that captured the pre-rollback version.
        self.flush();
        Ok(restored)
    }

    /// `report`, stamped with the version that scored it and this replica.
    fn stamp(&self, version: u64, report: DetectionReport) -> ShardedReport {
        ShardedReport {
            replica: self.replica,
            version,
            report,
        }
    }

    /// The breaker gate every request passes before anything is queued or
    /// scored. `Ok(None)` admits; a shedding breaker refuses with
    /// [`FleetError::CircuitOpen`] under [`FallbackPolicy::Reject`], or
    /// returns `Ok(Some(report))` under [`FallbackPolicy::EscalateUncertain`]:
    /// the degraded report each of the request's `rows` rows is answered
    /// with.
    fn shed(&self, rows: usize) -> Result<Option<ShardedReport>, FleetError> {
        if let Admission::Admit = self.breaker.admit(Instant::now()) {
            return Ok(None);
        }
        self.health.shed_circuit.fetch_add(1, Ordering::Relaxed);
        match self.breaker.policy().fallback {
            FallbackPolicy::Reject => Err(FleetError::CircuitOpen),
            FallbackPolicy::EscalateUncertain => {
                self.health
                    .degraded_rows
                    .fetch_add(rows as u64, Ordering::Relaxed);
                Ok(Some(
                    self.stamp(self.active().number, degraded_escalation()),
                ))
            }
        }
    }

    pub(crate) fn enqueue(
        self: &Arc<Endpoint>,
        features: &[f64],
    ) -> Result<ShardTicket, FleetError> {
        // Supervision gates run before anything is copied: first the
        // breaker (a broken endpoint sheds instantly, possibly degrading),
        // then the admission budget (a full endpoint sheds explicitly).
        if let Some(degraded) = self.shed(1)? {
            // A pre-resolved ticket: the degraded report is filled in before
            // the ticket is returned, so `wait` and `try_wait` resolve
            // immediately and the row never enters a tile (or the monitor
            // statistics).
            let cell = BatchCell::new();
            cell.fill(vec![Ok(degraded)]);
            return Ok(ShardTicket {
                endpoint: Arc::clone(self),
                cell,
                index: 0,
                deadline: None,
            });
        }
        let limit = self.admission.max_pending_rows;
        let depth = self.pending_rows.fetch_add(1, Ordering::SeqCst);
        if depth >= limit {
            self.pending_rows.fetch_sub(1, Ordering::SeqCst);
            self.health.shed_overload.fetch_add(1, Ordering::Relaxed);
            return Err(FleetError::Overloaded { depth, limit });
        }
        let (ticket, drained, opened) = {
            let mut pending = self.pending.lock_unpoisoned();
            let opened = pending.is_none();
            let tile = match pending.as_mut() {
                Some(tile) => {
                    if features.len() != tile.width {
                        // The row was never copied in: release its slot.
                        self.pending_rows.fetch_sub(1, Ordering::SeqCst);
                        return Err(FleetError::WidthMismatch {
                            expected: tile.width,
                            found: features.len(),
                        });
                    }
                    tile
                }
                None => {
                    // One up-front allocation per tile: draining moves the
                    // buffer out, so without this the vec would re-grow (and
                    // copy) its way up for every tile.
                    let rows =
                        Vec::with_capacity(features.len() * self.flush.max_batch.min(1 << 16));
                    pending.insert(OpenTile {
                        width: features.len(),
                        rows,
                        count: 0,
                        cell: BatchCell::new(),
                        version: self.active(),
                        deadline: deadline_after(Instant::now(), self.flush.max_wait),
                    })
                }
            };
            tile.rows.extend_from_slice(features);
            let index = tile.count;
            tile.count += 1;
            let full = tile.count >= self.flush.max_batch;
            let ticket = ShardTicket {
                endpoint: Arc::clone(self),
                cell: Arc::clone(&tile.cell),
                index,
                deadline: tile.deadline,
            };
            let drained = if full { pending.take() } else { None };
            (ticket, drained, opened)
        };
        if opened && drained.is_none() {
            // A fresh tile means a fresh deadline the background flusher
            // may have to learn about. Notified outside the tile lock — the
            // supervisor's condvar never nests inside a critical section.
            self.notifier.notify(ticket.deadline);
        }
        if let Some(tile) = drained {
            self.drain(tile);
        }
        Ok(ticket)
    }

    /// Drains whatever is pending; returns the number of rows scored.
    pub(crate) fn flush(&self) -> usize {
        let taken = self.pending.lock_unpoisoned().take();
        match taken {
            Some(tile) => {
                let rows = tile.count;
                self.drain(tile);
                rows
            }
            None => 0,
        }
    }

    /// Drains the pending tile only if its `max_wait` deadline has passed —
    /// the background flusher's entry point. Returns the rows scored (0 when
    /// the tile is absent, still young, or never expires). The tile is taken
    /// under the lock and drained outside it, like every other drain path.
    pub(crate) fn flush_expired(&self, now: Instant) -> usize {
        let taken = {
            let mut pending = self.pending.lock_unpoisoned();
            match pending.as_ref() {
                Some(tile) if tile.deadline.is_some_and(|deadline| deadline <= now) => {
                    pending.take()
                }
                _ => None,
            }
        };
        match taken {
            Some(tile) => {
                let rows = tile.count;
                self.health.expired_flushes.fetch_add(1, Ordering::Relaxed);
                self.drain(tile);
                rows
            }
            None => 0,
        }
    }

    /// The open tile's flush deadline, if a tile is open and expires — what
    /// the background flusher sleeps until.
    pub(crate) fn tile_deadline(&self) -> Option<Instant> {
        self.pending
            .lock_unpoisoned()
            .as_ref()
            .and_then(|tile| tile.deadline)
    }

    /// The serving rules every scored batch passes, in one place: the
    /// detector must return exactly one report per row of the `rows`-row
    /// batch (a short or long vector fails the whole batch — handing it out
    /// would leave some ticket's slot missing and misalign everyone
    /// else's), a detector error becomes [`FleetError::Detector`], every
    /// outcome feeds the breaker, and only a successful batch reaches the
    /// monitor statistics.
    fn settle(
        &self,
        rows: usize,
        scored: Result<Vec<DetectionReport>, MlError>,
    ) -> Result<Vec<DetectionReport>, FleetError> {
        let outcome = match scored {
            Ok(reports) if reports.len() == rows => Ok(reports),
            Ok(reports) => Err(FleetError::Detector {
                message: format!(
                    "detector returned {} reports for a {rows}-row batch",
                    reports.len()
                ),
            }),
            Err(err) => Err(FleetError::from(err)),
        };
        if self.breaker.record(outcome.is_ok(), Instant::now()) {
            self.health.breaker_trips.fetch_add(1, Ordering::Relaxed);
        }
        let reports = outcome?;
        let mut stats = self.stats.lock_unpoisoned();
        for report in &reports {
            stats.record(report);
        }
        drop(stats);
        Ok(reports)
    }

    /// Scores one taken tile through the captured version's batch hot path
    /// and fulfils its tickets in request order. Runs outside every lock, so
    /// producers keep enqueueing while the batch is in flight. The admission
    /// counter is released when the results are published, whatever they
    /// are.
    fn drain(&self, tile: OpenTile) {
        let OpenTile {
            width,
            rows,
            count,
            cell,
            version,
            ..
        } = tile;
        // `from_vec` cannot fail (every enqueue appends exactly `width`
        // values and bumps `count`), but a broken tile must fail its
        // tickets, not the serving thread.
        let batch = Matrix::from_vec(count, width, rows).map_err(MlError::from);
        let scored = match &batch {
            Ok(matrix) => version.detector.detect_rows(matrix.view()),
            Err(err) => Err(err.clone()),
        };
        // The matrix outlives the champion pass so an installed challenger
        // can score the identical rows — only when they were actually
        // served, so its statistics stay comparable to the champion's.
        let served = match self.settle(count, scored) {
            Ok(reports) => {
                cell.fill(
                    reports
                        .into_iter()
                        .map(|report| Ok(self.stamp(version.number, report)))
                        .collect(),
                );
                batch.ok()
            }
            Err(error) => {
                cell.fill(vec![Err(error); count]);
                None
            }
        };
        self.pending_rows.fetch_sub(count, Ordering::SeqCst);
        // Challenger pass, strictly after the champion's results were
        // published, the breaker fed and the admission budget released: a
        // shadow never delays a waiter, never changes what callers receive,
        // and never holds serving capacity.
        if let Some(matrix) = served {
            self.shadow_observe(matrix.view());
        }
    }

    /// The synchronous batch path. Consults the breaker (a broken endpoint
    /// sheds batches too, and probe outcomes must feed recovery) but not
    /// the admission budget — a synchronous batch occupies no queue, it
    /// runs on the caller's thread.
    pub(crate) fn score_rows(&self, batch: RowsView<'_>) -> Result<Vec<ShardedReport>, FleetError> {
        let rows = batch.rows();
        if let Some(degraded) = self.shed(rows)? {
            return Ok(vec![degraded; rows]);
        }
        let version = self.active();
        let reports = self.settle(rows, version.detector.detect_rows(batch))?;
        // Same isolation as the tile path: the challenger re-scores the
        // borrowed view (it is `Copy`) into its own statistics only.
        self.shadow_observe(batch);
        Ok(reports
            .into_iter()
            .map(|report| self.stamp(version.number, report))
            .collect())
    }
}

/// An ordered claim on one micro-batched scoring request, queued in the
/// tile of the replica the router chose.
///
/// Tickets resolve in request order within their tile.
/// [`ShardTicket::wait`] blocks until the tile drains — and *makes it
/// drain* once the flush policy's `max_wait` deadline passes, so a lone
/// request on an idle endpoint never hangs even if the background flusher
/// could not be spawned. [`ShardTicket::wait_deadline`] bounds how long the
/// caller itself is willing to block.
pub struct ShardTicket {
    endpoint: Arc<Endpoint>,
    cell: Arc<BatchCell>,
    index: usize,
    /// The tile's flush deadline; `None` when the tile never expires.
    deadline: Option<Instant>,
}

impl fmt::Debug for ShardTicket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardTicket")
            .field("replica", &self.endpoint.replica)
            .field("index", &self.index)
            .field("deadline", &self.deadline)
            .finish_non_exhaustive()
    }
}

impl ShardTicket {
    /// The replica index the request was routed to.
    pub fn replica(&self) -> usize {
        self.endpoint.replica
    }

    /// Blocks until the request's micro-batch has been scored on its
    /// replica and returns this request's version- and replica-stamped
    /// report.
    ///
    /// # Errors
    ///
    /// Returns the error the replica's detector reported for the batch
    /// (every ticket of a failed batch receives a clone).
    pub fn wait(self) -> Result<ShardedReport, FleetError> {
        self.wait_deadline(Duration::MAX)
    }

    /// Like [`ShardTicket::wait`], but gives up after `timeout` with
    /// [`FleetError::DeadlineExceeded`]. The batch itself is *not*
    /// cancelled — its other tickets (and the endpoint's statistics) are
    /// unaffected; only this waiter stops waiting, which is how a caller
    /// carries its own latency SLO through the queue. A `timeout` too large
    /// to represent as a deadline (such as `Duration::MAX`) never expires.
    ///
    /// # Errors
    ///
    /// [`FleetError::DeadlineExceeded`] if the batch did not drain within
    /// `timeout`; otherwise the batch's own outcome.
    pub fn wait_deadline(self, timeout: Duration) -> Result<ShardedReport, FleetError> {
        let mut guard = self.cell.results.lock_unpoisoned();
        if let Some(results) = guard.as_ref() {
            // Already drained (the common case for a filled tile): no clock
            // read on the fast path.
            return results[self.index].clone();
        }
        let caller_deadline = deadline_after(Instant::now(), timeout);
        let mut flushed = false;
        loop {
            if let Some(results) = guard.as_ref() {
                return results[self.index].clone();
            }
            let now = Instant::now();
            if caller_deadline.is_some_and(|deadline| now >= deadline) {
                return Err(FleetError::DeadlineExceeded { timeout });
            }
            if !flushed && self.deadline.is_some_and(|deadline| now >= deadline) {
                // The tile's deadline passed with the tile still queued:
                // this waiter becomes the flusher. If another thread is
                // already draining the tile, the flush is a no-op and the
                // wait below picks the results up when they land.
                drop(guard);
                self.endpoint.flush();
                flushed = true;
                guard = self.cell.results.lock_unpoisoned();
                continue;
            }
            let tile_deadline = if flushed { None } else { self.deadline };
            guard = match caller_deadline.into_iter().chain(tile_deadline).min() {
                Some(until) => unpoison(self.cell.ready.wait_timeout(guard, until - now)).0,
                None => unpoison(self.cell.ready.wait(guard)),
            };
        }
    }

    /// Non-blocking probe: returns the result if the replica's batch
    /// already drained.
    ///
    /// # Errors
    ///
    /// Returns `Err(self)` — the unconsumed ticket — while the batch is
    /// still pending, so callers can keep polling or fall back to
    /// [`ShardTicket::wait`].
    pub fn try_wait(self) -> Result<Result<ShardedReport, FleetError>, ShardTicket> {
        let guard = self.cell.results.lock_unpoisoned();
        match guard.as_ref() {
            Some(results) => Ok(results[self.index].clone()),
            None => {
                drop(guard);
                Err(self)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervisor::Supervisor;
    use crate::{FaultInjector, FaultPlan, ShardedFleet};
    use hmd_core::detector::{DetectorBackend, DetectorConfig, DetectorExt};
    use hmd_data::{Dataset, Label};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn blobs(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n {
            let malware = rng.gen_bool(0.5);
            let c = if malware { 2.0 } else { -2.0 };
            rows.push(vec![
                c + rng.gen_range(-0.8..0.8),
                c + rng.gen_range(-0.8..0.8),
            ]);
            labels.push(Label::from(malware));
        }
        Dataset::new(Matrix::from_rows(&rows).unwrap(), labels).unwrap()
    }

    fn trained(num_estimators: usize, seed: u64) -> Box<dyn Detector> {
        DetectorConfig::trusted(DetectorBackend::decision_tree())
            .with_num_estimators(num_estimators)
            .fit(&blobs(120, 7), seed)
            .expect("training succeeds")
    }

    /// A 1-replica fleet whose tiles flush at `max_batch` rows or after
    /// `max_wait`.
    fn fleet(max_batch: usize, max_wait: Duration) -> ShardedFleet {
        ShardedFleet::with_config(
            ShardConfig::new(1).with_flush(FlushPolicy::new(max_batch, max_wait)),
        )
    }

    /// The published wire-protocol mapping (PROTOCOL.md): every variant, its
    /// code, and the uniqueness of the codes. `FleetError::code`'s match has
    /// no wildcard arm, so a new variant fails compilation there; this test
    /// is the second gate — it fails if a code is changed or reused, which
    /// the exhaustive `match` alone cannot catch.
    #[test]
    fn error_codes_are_stable() {
        let published: &[(FleetError, u16)] = &[
            (
                FleetError::UnknownEndpoint {
                    name: "ep".to_string(),
                },
                1,
            ),
            (
                FleetError::NoPreviousVersion {
                    name: "ep".to_string(),
                },
                2,
            ),
            (
                FleetError::WidthMismatch {
                    expected: 2,
                    found: 3,
                },
                3,
            ),
            (
                FleetError::Detector {
                    message: String::new(),
                },
                4,
            ),
            (
                FleetError::Replication {
                    message: String::new(),
                },
                5,
            ),
            (FleetError::Overloaded { depth: 8, limit: 8 }, 6),
            (FleetError::CircuitOpen, 7),
            (
                FleetError::DeadlineExceeded {
                    timeout: Duration::from_millis(1),
                },
                8,
            ),
            (
                FleetError::NoShadow {
                    name: "ep".to_string(),
                },
                9,
            ),
        ];
        let mut seen = std::collections::BTreeSet::new();
        for (error, expected) in published {
            assert_eq!(
                error.code(),
                *expected,
                "published code for {error:?} must never change"
            );
            assert!(seen.insert(*expected), "code {expected} assigned twice");
            assert!(
                *expected < 100,
                "fleet-semantic codes stay below the transport range (100+)"
            );
        }
    }

    #[test]
    fn deploy_rollback_walk_the_version_stack() {
        let fleet = ShardedFleet::new(1);
        assert_eq!(fleet.deploy("ep", trained(5, 1)).unwrap(), 1);
        assert_eq!(fleet.active_version("ep").unwrap(), 1);
        assert_eq!(fleet.deploy("ep", trained(7, 2)).unwrap(), 2);
        assert_eq!(fleet.active_version("ep").unwrap(), 2);
        assert!(fleet.detector_name("ep").unwrap().starts_with("trusted[7x"));
        assert_eq!(fleet.rollback("ep").unwrap(), 1);
        assert!(fleet.detector_name("ep").unwrap().starts_with("trusted[5x"));
        // A fresh deploy after rollback keeps version numbers monotone.
        assert_eq!(fleet.deploy("ep", trained(9, 3)).unwrap(), 3);
        // v3 retired v1 again; rolling back twice bottoms the stack out.
        assert_eq!(fleet.rollback("ep").unwrap(), 1);
        assert_eq!(
            fleet.rollback("ep").unwrap_err(),
            FleetError::NoPreviousVersion { name: "ep".into() },
            "rolling back past the stack bottom errors"
        );
    }

    #[test]
    fn retired_versions_are_bounded_for_rollback() {
        let fleet = ShardedFleet::new(1);
        for i in 0..8u64 {
            fleet.deploy("ep", trained(5, 100 + i)).unwrap();
        }
        assert_eq!(fleet.active_version("ep").unwrap(), 8);
        // Only the bounded tail of the version stack can be restored.
        for expected in [7, 6, 5, 4] {
            assert_eq!(fleet.rollback("ep").unwrap(), expected);
        }
        assert!(matches!(
            fleet.rollback("ep"),
            Err(FleetError::NoPreviousVersion { .. })
        ));
    }

    #[test]
    fn flush_policy_clamps_both_degenerate_edges() {
        // max_batch == 0 could never drain; it clamps to direct scoring.
        let batchless = FlushPolicy::new(0, Duration::from_millis(2));
        assert_eq!(batchless.max_batch, 1);
        assert_eq!(batchless.max_wait, Duration::from_millis(2));
        // max_wait == 0 would open every tile already expired; it clamps to
        // the documented floor.
        let waitless = FlushPolicy::new(64, Duration::ZERO);
        assert_eq!(waitless.max_batch, 64);
        assert_eq!(waitless.max_wait, FlushPolicy::MIN_WAIT);
        // Non-degenerate values pass through untouched.
        let sane = FlushPolicy::new(32, Duration::from_millis(7));
        assert_eq!(sane.max_batch, 32);
        assert_eq!(sane.max_wait, Duration::from_millis(7));
    }

    #[test]
    fn width_mismatch_is_rejected_at_enqueue_time() {
        let fleet = fleet(8, Duration::from_secs(5));
        fleet.deploy("ep", trained(5, 4)).unwrap();
        let _first = fleet.score("ep", &[0.1, 0.2]).unwrap();
        let err = fleet.score("ep", &[0.1, 0.2, 0.3]).unwrap_err();
        assert_eq!(
            err,
            FleetError::WidthMismatch {
                expected: 2,
                found: 3
            }
        );
        // The mismatched row was not enqueued; the tile drains cleanly and
        // the admission slot the rejected row briefly held was released.
        assert_eq!(fleet.flush("ep").unwrap(), 1);
        assert_eq!(fleet.replica_health("ep").unwrap()[0].pending_rows, 0);
    }

    #[test]
    fn detector_errors_fan_out_to_every_ticket() {
        let fleet = fleet(2, Duration::from_secs(5));
        fleet.deploy("ep", trained(5, 5)).unwrap();
        // Wrong width for the model (trained on 2 features) but consistent
        // within the tile: the error surfaces per ticket, not as a panic.
        let a = fleet.score("ep", &[0.1, 0.2, 0.3]).unwrap();
        let b = fleet.score("ep", &[0.4, 0.5, 0.6]).unwrap();
        assert!(matches!(a.wait(), Err(FleetError::Detector { .. })));
        assert!(matches!(b.wait(), Err(FleetError::Detector { .. })));
        assert_eq!(fleet.stats("ep").unwrap().windows, 0);
    }

    #[test]
    fn score_batch_stamps_versions_and_feeds_stats() {
        let fleet = ShardedFleet::new(1);
        let detector = trained(9, 6);
        let test = blobs(20, 8);
        let direct = detector.detect_batch(test.features()).unwrap();
        fleet.deploy("ep", detector).unwrap();
        let scored = fleet.score_batch("ep", test.features()).unwrap();
        assert_eq!(scored.len(), direct.len());
        for (s, d) in scored.iter().zip(&direct) {
            assert_eq!((s.replica, s.version), (0, 1));
            assert_eq!(&s.report, d);
        }
        assert_eq!(fleet.stats("ep").unwrap().windows, 20);
        fleet.reset_stats("ep").unwrap();
        assert_eq!(fleet.stats("ep").unwrap(), MonitorStats::default());
    }

    #[test]
    fn try_wait_resolves_only_after_a_drain() {
        let fleet = fleet(16, Duration::from_secs(5));
        fleet.deploy("ep", trained(5, 9)).unwrap();
        let ticket = fleet.score("ep", &[0.5, -0.5]).unwrap();
        let ticket = match ticket.try_wait() {
            Err(ticket) => ticket,
            Ok(_) => panic!("tile has not drained yet"),
        };
        assert_eq!(fleet.flush("ep").unwrap(), 1);
        let report = ticket.try_wait().expect("drained").expect("scores");
        assert_eq!(report.version, 1);
    }

    #[test]
    fn wait_deadline_times_out_then_a_plain_wait_still_resolves() {
        let fleet = fleet(16, Duration::from_secs(30));
        fleet.deploy("ep", trained(5, 10)).unwrap();
        let impatient = fleet.score("ep", &[0.5, -0.5]).unwrap();
        let patient = fleet.score("ep", &[0.6, -0.6]).unwrap();
        // The caller's deadline fires long before the 30 s tile deadline.
        let err = impatient
            .wait_deadline(Duration::from_millis(20))
            .unwrap_err();
        assert_eq!(
            err,
            FleetError::DeadlineExceeded {
                timeout: Duration::from_millis(20)
            }
        );
        // The batch was not cancelled: a flush drains both rows and the
        // surviving ticket reads its result normally.
        assert_eq!(fleet.flush("ep").unwrap(), 2);
        assert!(patient.wait_deadline(Duration::from_secs(5)).is_ok());
        assert_eq!(fleet.stats("ep").unwrap().windows, 2);
    }

    /// A caller timeout too large to represent as a deadline means "wait
    /// for as long as it takes" — `Instant + Duration::MAX` would panic.
    #[test]
    fn unrepresentable_wait_deadline_never_expires() {
        let fleet = fleet(16, Duration::from_millis(5));
        fleet.deploy("ep", trained(5, 12)).unwrap();
        let ticket = fleet.score("ep", &[0.5, -0.5]).unwrap();
        // Nothing flushes the tile but its own 5 ms deadline, which the
        // waiter (or the background flusher) drives.
        let report = ticket.wait_deadline(Duration::MAX).expect("scores");
        assert_eq!((report.replica, report.version), (0, 1));
    }

    /// A `max_wait` too large to represent opens tiles that never expire:
    /// enqueueing does not panic, the flusher leaves the tile alone, and it
    /// drains at `max_batch` or on an explicit flush.
    #[test]
    fn unrepresentable_tile_deadline_never_expires() {
        let fleet = fleet(3, Duration::MAX);
        fleet.deploy("ep", trained(5, 13)).unwrap();
        let lone = fleet.score("ep", &[0.5, -0.5]).unwrap();
        let lone = lone
            .wait_deadline(Duration::from_millis(30))
            .expect_err("a never-expiring tile waits for max_batch or a flush");
        assert!(matches!(lone, FleetError::DeadlineExceeded { .. }));
        assert_eq!(fleet.replica_health("ep").unwrap()[0].expired_flushes, 0);
        // Two more rows fill the 3-row tile, which drains inline.
        let filler: Vec<ShardTicket> = (0..2)
            .map(|_| fleet.score("ep", &[0.6, -0.6]).unwrap())
            .collect();
        for ticket in filler {
            assert!(ticket.try_wait().expect("drained at max_batch").is_ok());
        }
        let flushed = fleet.score("ep", &[0.7, -0.7]).unwrap();
        assert_eq!(fleet.flush("ep").unwrap(), 1);
        assert!(flushed.wait().is_ok());
        assert_eq!(fleet.stats("ep").unwrap().windows, 4);
    }

    #[test]
    fn shadow_scores_same_tiles_without_touching_served_rows_or_champion_stats() {
        let fleet = fleet(4, Duration::from_secs(5));
        // Fault-free injectors: bit-transparent wrappers that count
        // `detect_rows` calls.
        let champion = FaultInjector::new(trained(5, 30), FaultPlan::new());
        let challenger = FaultInjector::new(trained(9, 31), FaultPlan::new());
        let (champion_calls, shadow_calls) = (champion.counters(), challenger.counters());
        let test = blobs(8, 32);

        // Reference run: the same champion, no shadow anywhere near it.
        let reference = ShardedFleet::with_config(fleet.config());
        reference.deploy("ep", trained(5, 30)).unwrap();
        let expected_reports = reference.score_batch("ep", test.features()).unwrap();
        let expected_direct = trained(9, 31).detect_batch(test.features()).unwrap();

        fleet.deploy("ep", Box::new(champion)).unwrap();
        assert_eq!(fleet.shadow_stats("ep").unwrap(), None);
        fleet.deploy_shadow("ep", Box::new(challenger)).unwrap();

        // Tile path: two 4-row tiles drain; shadow sees both.
        let tickets: Vec<ShardTicket> = test
            .features()
            .view()
            .iter_rows()
            .map(|row| fleet.score("ep", row).unwrap())
            .collect();
        let served: Vec<ShardedReport> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        // Served rows are bit-identical to the shadowless fleet.
        for (got, want) in served.iter().zip(&expected_reports) {
            assert_eq!(got, want);
        }
        // Champion stats unchanged by the shadow; challenger recorded the
        // same rows into its own block, matching a direct challenger run.
        assert_eq!(fleet.stats("ep").unwrap(), reference.stats("ep").unwrap());
        let snapshot = fleet.shadow_stats("ep").unwrap().expect("shadow present");
        assert_eq!(snapshot.rows, 8);
        assert_eq!(snapshot.errors, 0);
        assert_eq!(snapshot.stats.windows, 8);
        let expected_escalations = expected_direct
            .iter()
            .filter(|r| r.decision.is_escalation())
            .count();
        assert_eq!(snapshot.stats.escalated, expected_escalations);
        assert!(snapshot.detector.starts_with("faulty[trusted[9x"));
        // Shadow cost ceiling: the shadow scores each drained tile in one
        // batch call, exactly as the champion does — never row by row and
        // never twice.
        assert_eq!(champion_calls.calls(), 2, "one champion call per tile");
        assert_eq!(shadow_calls.calls(), 2, "one shadow call per tile");

        // Promotion publishes the challenger as v2 and empties the slot.
        assert_eq!(fleet.promote_shadow("ep").unwrap(), 2);
        assert_eq!(fleet.shadow_stats("ep").unwrap(), None);
        assert!(fleet
            .detector_name("ep")
            .unwrap()
            .starts_with("faulty[trusted[9x"));
        let promoted = fleet.score_batch("ep", test.features()).unwrap();
        for (got, want) in promoted.iter().zip(&expected_direct) {
            assert_eq!(got.version, 2);
            assert_eq!(&got.report, want);
        }
        // Rollback restores the pre-promotion champion.
        assert_eq!(fleet.rollback("ep").unwrap(), 1);
        assert!(fleet
            .detector_name("ep")
            .unwrap()
            .starts_with("faulty[trusted[5x"));

        // Promotion without a shadow is the typed code-9 error.
        assert_eq!(
            fleet.promote_shadow("ep").unwrap_err(),
            FleetError::NoShadow { name: "ep".into() }
        );
        assert_eq!(fleet.clear_shadow("ep").unwrap(), None);
    }

    #[test]
    fn window_stats_reset_on_read_without_touching_lifetime() {
        let fleet = fleet(4, Duration::from_secs(5));
        fleet.deploy("ep", trained(5, 33)).unwrap();
        let test = blobs(12, 34);
        fleet
            .score_batch("ep", test.features().rows_view(0..8))
            .unwrap();
        let first = fleet.window_stats("ep").unwrap();
        assert_eq!(first.windows, 8);
        // Lifetime untouched; a second read covers only newer rows.
        assert_eq!(fleet.stats("ep").unwrap().windows, 8);
        fleet
            .score_batch("ep", test.features().rows_view(8..12))
            .unwrap();
        assert_eq!(fleet.window_stats("ep").unwrap().windows, 4);
        assert_eq!(fleet.window_stats("ep").unwrap().windows, 0);
        assert_eq!(fleet.stats("ep").unwrap().windows, 12);
    }

    #[test]
    fn failing_shadow_counts_errors_and_never_harms_serving() {
        struct BrokenShadow;
        impl Detector for BrokenShadow {
            fn name(&self) -> String {
                "broken-shadow".to_string()
            }
            fn entropy_threshold(&self) -> f64 {
                0.5
            }
            fn detect_rows(&self, _rows: RowsView<'_>) -> Result<Vec<DetectionReport>, MlError> {
                Err(MlError::ContractViolation {
                    message: "shadow fault".to_string(),
                })
            }
        }
        // Two batches: both on the one replica, or one per replica under
        // round-robin — the merged evidence is the same either way.
        for replicas in [1, 2] {
            let fleet = ShardedFleet::with_config(
                ShardConfig::new(replicas).with_flush(FlushPolicy::new(2, Duration::from_secs(5))),
            );
            fleet.deploy("ep", trained(5, 35)).unwrap();
            fleet.deploy_shadow("ep", Box::new(BrokenShadow)).unwrap();
            let test = blobs(4, 36);
            for _ in 0..2 {
                let reports = fleet.score_batch("ep", test.features()).unwrap();
                assert_eq!(reports.len(), 4);
            }
            let snapshot = fleet.shadow_stats("ep").unwrap().expect("shadow present");
            assert_eq!(snapshot.rows, 8, "{replicas} replica(s)");
            assert_eq!(snapshot.errors, 2, "{replicas} replica(s)");
            assert_eq!(snapshot.stats.windows, 0);
            // The champion's breaker and stats never saw the shadow failure.
            assert_eq!(fleet.stats("ep").unwrap().windows, 8);
            assert_eq!(
                fleet.breaker_states("ep").unwrap(),
                vec![BreakerState::Closed; replicas]
            );
        }
    }

    /// Ceiling (a ratchet: lower it freely, raise it only with a
    /// CHANGES.md line saying why). With one tile open on an anchor
    /// endpoint, a thousand tiles opened and flushed on another endpoint
    /// all expire later than the anchor, so none of them wakes the
    /// flusher: at most 2 scans in all (its first, and the one the anchor
    /// tile may cause). A flusher woken by every tile scanned up to once
    /// per tile.
    #[test]
    fn later_deadlines_never_wake_the_flusher() {
        let fleet = fleet(64, Duration::from_secs(10));
        fleet.deploy("anchor", trained(3, 1)).unwrap();
        fleet.deploy("busy", trained(3, 2)).unwrap();
        let anchor = fleet.score("anchor", &[0.1, 0.2]).unwrap();
        while !fleet.supervisor.armed() {
            std::thread::yield_now();
        }
        for _ in 0..1000 {
            let ticket = fleet.score("busy", &[0.3, -0.4]).unwrap();
            fleet.flush("busy").unwrap();
            ticket.wait().unwrap();
        }
        let scans = fleet.supervisor.scans();
        assert!(scans <= 2, "{scans} flusher scans");
        fleet.flush("anchor").unwrap();
        anchor.wait().unwrap();
    }

    #[test]
    fn only_a_tile_starts_the_flusher() {
        // The write path and whole-batch scoring open no tile, so they need
        // no flusher thread.
        let fleet = ShardedFleet::with_config(
            ShardConfig::new(2).with_flush(FlushPolicy::new(8, Duration::from_millis(1))),
        );
        fleet.deploy("ep", trained(3, 1)).unwrap();
        let rows = Matrix::from_rows(&[vec![0.1, 0.2], vec![2.0, 1.9]]).unwrap();
        assert_eq!(fleet.score_batch("ep", &rows).unwrap().len(), 2);
        fleet.deploy_shadow("ep", trained(5, 2)).unwrap();
        fleet.score_batch("ep", &rows).unwrap();
        assert_eq!(fleet.promote_shadow("ep").unwrap(), 2);
        fleet.deploy("ep", trained(7, 3)).unwrap();
        assert_eq!(fleet.rollback("ep").unwrap(), 2);
        assert_eq!(fleet.flush("ep").unwrap(), 0);
        assert!(!fleet.supervisor.spawned(), "no tile, no flusher");
        // The first tile starts it, and the flusher drains the tile at its
        // deadline with no waiter blocked on it.
        let mut ticket = fleet.score("ep", &[0.1, 0.2]).unwrap();
        assert!(fleet.supervisor.spawned());
        let started = Instant::now();
        let report = loop {
            match ticket.try_wait() {
                Ok(report) => break report.unwrap(),
                Err(pending) => {
                    assert!(
                        started.elapsed() < Duration::from_secs(30),
                        "tile never drained"
                    );
                    ticket = pending;
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        };
        assert_eq!(report.version, 2);
    }

    #[test]
    fn poisoned_endpoint_locks_recover_end_to_end() {
        let supervisor = Supervisor::new(Box::new(|| None));
        let config = ShardConfig::new(1).with_flush(FlushPolicy::new(4, Duration::from_secs(5)));
        let endpoint = Arc::new(Endpoint::new(
            Arc::from(trained(5, 21)),
            0,
            &config,
            supervisor.notifier(),
        ));
        // Poison each internal lock from a panicking thread: the stats
        // mutex, the pending-tile mutex, and the versions mutex.
        let poison = Arc::clone(&endpoint);
        let _ = std::thread::spawn(move || {
            let _guard = poison.stats.lock().unwrap();
            panic!("poison the stats lock");
        })
        .join();
        let poison = Arc::clone(&endpoint);
        let _ = std::thread::spawn(move || {
            let _guard = poison.pending.lock().unwrap();
            panic!("poison the pending lock");
        })
        .join();
        let poison = Arc::clone(&endpoint);
        let _ = std::thread::spawn(move || {
            let _guard = poison.versions.lock().unwrap();
            panic!("poison the versions lock");
        })
        .join();
        assert!(endpoint.stats.lock().is_err(), "stats lock is poisoned");
        assert!(endpoint.pending.lock().is_err(), "pending lock is poisoned");
        // Every serving path still works through the unpoisoning helpers.
        let ticket = endpoint.enqueue(&[0.1, 0.2]).unwrap();
        assert_eq!(endpoint.flush(), 1);
        assert!(ticket.wait().is_ok());
        assert_eq!(endpoint.stats.lock_unpoisoned().windows, 1);
        assert_eq!(endpoint.active().number, 1);
        // The tile started a flusher; join it.
        supervisor.shutdown();
    }
}
