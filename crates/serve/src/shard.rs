//! The fleet: named endpoints, each served by N micro-batching replicas
//! with load-aware, breaker-aware routing.
//!
//! A 1-replica endpoint funnels every concurrent scorer through **one**
//! pending tile behind one mutex. That is the right shape for a single
//! producer, but a burst of independent scorers serialises on the tile lock
//! and shares one flush deadline. [`ShardedFleet`] replicates each endpoint
//! across `N` shards — every replica is a full [`crate::fleet::Endpoint`]:
//! its own versioned detector stack, its own tile, its own
//! [`MonitorStats`], its own admission budget and circuit breaker — and
//! routes each request to one replica with a pluggable [`RoutePolicy`].
//!
//! Replicas **share one detector instance**: `deploy` publishes the same
//! `Arc<dyn Detector>` on every replica, without copying the model.
//! Detectors are immutable (`detect_rows` takes `&self`) and `Send + Sync`,
//! so one instance serves every replica's tiles concurrently, and scoring a
//! row on any replica produces the same report bits by construction —
//! sharding changes *where* a request is queued, never *what* it scores
//! (the seeded equivalence test in `tests/shard.rs` enforces this).
//! Administrative operations (`deploy`, `rollback`) fan out to every
//! replica in lock-step under a per-endpoint generation counter: replicas
//! apply the same admin history in the same order, so a given version
//! number names the same model on every replica and all replicas agree on
//! the active version between fan-outs. *During* a fan-out, requests
//! routed to a not-yet-swapped replica are stamped with the outgoing
//! version — the same transitional semantics as rows already queued in a
//! tile when a hot swap lands.
//!
//! For replicas that must differ (notably chaos tests that give each
//! replica its own fault-injection wrapper [`crate::FaultInjector`] and
//! plan), [`ShardedFleet::deploy_replicas`] accepts one pre-built detector
//! per replica instead — the caller owns the "replicas are equivalent"
//! guarantee that sharing one instance otherwise provides.

use crate::fleet::Endpoint;
use crate::supervisor::Supervisor;
use crate::sync::{LockExt, RwLockExt};
use crate::{AdmissionPolicy, BreakerPolicy};
use crate::{BreakerState, FleetError, FlushPolicy, HealthSnapshot, ShadowSnapshot, ShardTicket};
use hmd_core::detector::{Detector, MonitorStats};
use hmd_core::trusted::DetectionReport;
use hmd_data::RowsView;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// How a sharded endpoint picks the replica that queues a request.
///
/// Routing never changes *what* a request scores — replicas serve one
/// shared detector on the same version — only which tile it waits in,
/// which controls contention and batching behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RoutePolicy {
    /// Rotate through the replicas with an atomic cursor. Spreads load
    /// evenly regardless of per-request cost; the default.
    RoundRobin,
    /// Route to the replica with the fewest rows in its open tile (ties go
    /// to the lowest index), skipping replicas whose circuit breaker is
    /// shedding — a tripped replica's tile is always empty, and routing by
    /// depth alone would aim the whole burst at the brokenest replica.
    /// When every replica is shedding, falls back to round-robin (so
    /// cooldown probes and fallback policies still see traffic). Reads a
    /// racy snapshot of each tile's depth — good enough to steer bursts
    /// away from backed-up replicas.
    LeastLoaded,
    /// Route [`ShardedFleet::score_keyed`] requests by the caller's hash
    /// key, so one session's requests always share a replica (and therefore
    /// micro-batch together). Keyless [`ShardedFleet::score`] calls fall
    /// back to round-robin under this policy.
    KeyAffinity,
}

/// Configuration of a [`ShardedFleet`]: replica count, routing policy and
/// the per-replica serving policies (flush, admission, breaker).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Replicas per endpoint (clamped to at least 1).
    pub replicas: usize,
    /// How requests pick a replica.
    pub policy: RoutePolicy,
    /// The [`FlushPolicy`] every replica's tile drains under.
    pub flush: FlushPolicy,
    /// The admission budget of **each replica** (the fleet-wide budget is
    /// `replicas * max_pending_rows`).
    pub admission: AdmissionPolicy,
    /// The circuit-breaker policy of each replica — replicas are supervised
    /// independently, so one broken replica sheds while its siblings serve.
    pub breaker: BreakerPolicy,
}

impl ShardConfig {
    /// `replicas` round-robin shards with default flush, admission and
    /// breaker policies.
    pub fn new(replicas: usize) -> ShardConfig {
        ShardConfig {
            replicas: replicas.max(1),
            policy: RoutePolicy::RoundRobin,
            flush: FlushPolicy::default(),
            admission: AdmissionPolicy::default(),
            breaker: BreakerPolicy::default(),
        }
    }

    /// Sets the routing policy.
    #[must_use]
    pub fn with_policy(mut self, policy: RoutePolicy) -> ShardConfig {
        self.policy = policy;
        self
    }

    /// Sets the per-replica flush policy.
    #[must_use]
    pub fn with_flush(mut self, flush: FlushPolicy) -> ShardConfig {
        self.flush = flush;
        self
    }

    /// Sets the per-replica admission budget.
    #[must_use]
    pub fn with_admission(mut self, admission: AdmissionPolicy) -> ShardConfig {
        self.admission = admission;
        self
    }

    /// Sets the per-replica circuit-breaker policy.
    #[must_use]
    pub fn with_breaker(mut self, breaker: BreakerPolicy) -> ShardConfig {
        self.breaker = breaker;
        self
    }
}

/// A detector report stamped with the endpoint version that produced it and
/// the replica that served it, so every decision stays attributable across
/// hot swaps, rollbacks and replicas.
///
/// The `replica` field is pure attribution: replicas serve one shared
/// detector, so `version` and `report` are independent of which replica
/// served the request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardedReport {
    /// Index (0-based) of the replica whose tile scored the request.
    pub replica: usize,
    /// The endpoint version (1-based, monotonically increasing per
    /// endpoint) that scored the request. The lock-stepped generation
    /// counter makes a given number name the same model bits on every
    /// replica; mid-fan-out requests may still land on a replica the deploy
    /// has not reached yet and carry the outgoing version.
    pub version: u64,
    /// The detector's full report.
    pub report: DetectionReport,
}

/// One logical endpoint of a [`ShardedFleet`]: `N` replica [`Endpoint`]s,
/// the routing state, and the generation counter that keeps the replicas'
/// version stamps in lock-step.
struct ShardedEndpoint {
    replicas: Vec<Arc<Endpoint>>,
    policy: RoutePolicy,
    /// Round-robin cursor; relaxed ordering is fine, routing needs no
    /// happens-before edges, only eventual spread.
    cursor: AtomicUsize,
    /// The endpoint generation: the version every replica currently serves.
    /// Administrative fan-out runs under this lock so concurrent `deploy`
    /// and `rollback` calls cannot interleave their per-replica walks (which
    /// would let replicas disagree on version numbers).
    generation: Mutex<u64>,
}

impl ShardedEndpoint {
    fn route(&self, key: Option<u64>) -> usize {
        let n = self.replicas.len();
        if n == 1 {
            return 0;
        }
        if let Some(key) = key {
            // Stickiness beats breaker-awareness: a keyed session stays on
            // its replica even while that replica sheds, so the caller sees
            // a consistent fallback instead of silently migrating sessions.
            return (splitmix64(key) % n as u64) as usize;
        }
        match self.policy {
            RoutePolicy::LeastLoaded => {
                let now = Instant::now();
                let mut best: Option<(usize, usize)> = None;
                for (index, replica) in self.replicas.iter().enumerate() {
                    if replica.would_shed(now) {
                        continue; // shedding replicas don't take new load
                    }
                    let depth = replica.pending_depth();
                    if best.is_none_or(|(_, best_depth)| depth < best_depth) {
                        best = Some((index, depth));
                        if depth == 0 {
                            break; // nothing is emptier than an empty tile
                        }
                    }
                }
                match best {
                    Some((index, _)) => index,
                    // Every replica is shedding: rotate so probes (and
                    // degraded fallbacks) spread instead of hammering
                    // replica 0.
                    None => self.cursor.fetch_add(1, Ordering::Relaxed) % n,
                }
            }
            // KeyAffinity without a key has nothing to stick to.
            RoutePolicy::RoundRobin | RoutePolicy::KeyAffinity => {
                self.cursor.fetch_add(1, Ordering::Relaxed) % n
            }
        }
    }

    /// Fans a deploy out to every replica in lock-step and returns the new
    /// generation. `detectors` holds one detector per replica.
    fn deploy(&self, detectors: Vec<Arc<dyn Detector>>) -> u64 {
        debug_assert_eq!(detectors.len(), self.replicas.len());
        let mut generation = self.generation.lock_unpoisoned();
        let mut number = 0;
        for (replica, detector) in self.replicas.iter().zip(detectors) {
            let published = replica.deploy(detector);
            debug_assert!(
                number == 0 || published == number,
                "replicas must publish the same version"
            );
            number = published;
        }
        *generation = number;
        number
    }

    fn rollback(&self, name: &str) -> Result<u64, FleetError> {
        let mut generation = self.generation.lock_unpoisoned();
        // Replicas share one administrative history, so either every replica
        // has a retired version or none does; probing the first cannot leave
        // the endpoint half rolled back.
        let mut number = 0;
        for replica in &self.replicas {
            let restored = replica.rollback(name)?;
            debug_assert!(
                number == 0 || restored == number,
                "replicas must restore the same version"
            );
            number = restored;
        }
        *generation = number;
        Ok(number)
    }

    /// Installs one challenger on every replica, in lock-step under the
    /// generation lock (shadow installation is administrative: it must not
    /// interleave with a concurrent deploy/rollback/promote walk).
    fn deploy_shadow(&self, detector: Arc<dyn Detector>) {
        let _generation = self.generation.lock_unpoisoned();
        for replica in &self.replicas {
            replica.set_shadow(Arc::clone(&detector));
        }
    }

    /// Promotes every replica's challenger in lock-step. All-or-nothing:
    /// shadow mutations all run under the generation lock, so either every
    /// replica has a challenger or none does — the pre-check cannot race a
    /// half-installed shadow.
    fn promote_shadow(&self, name: &str) -> Result<u64, FleetError> {
        let mut generation = self.generation.lock_unpoisoned();
        if !self
            .replicas
            .iter()
            .all(|replica| replica.shadow_snapshot().is_some())
        {
            return Err(FleetError::NoShadow {
                name: name.to_string(),
            });
        }
        let mut number = 0;
        for replica in &self.replicas {
            let published = replica.promote_shadow(name)?;
            debug_assert!(
                number == 0 || published == number,
                "replicas must publish the same version"
            );
            number = published;
        }
        *generation = number;
        Ok(number)
    }

    /// Clears every replica's challenger in lock-step, returning the merged
    /// final evidence (`None` when no shadow was installed).
    fn clear_shadow(&self) -> Option<ShadowSnapshot> {
        let _generation = self.generation.lock_unpoisoned();
        merge_shadow_snapshots(self.replicas.iter().map(|replica| replica.clear_shadow()))
    }
}

/// Merges per-replica shadow snapshots into one endpoint-wide view:
/// statistics merge through [`MonitorStats::merge`], row/error counters
/// add, and the (identical) challenger name is taken from the first
/// replica. `None` when no replica has a challenger.
fn merge_shadow_snapshots(
    snapshots: impl Iterator<Item = Option<ShadowSnapshot>>,
) -> Option<ShadowSnapshot> {
    let mut merged: Option<ShadowSnapshot> = None;
    for snapshot in snapshots.flatten() {
        match merged.as_mut() {
            None => merged = Some(snapshot),
            Some(merged) => {
                merged.stats.merge(&snapshot.stats);
                merged.rows += snapshot.rows;
                merged.errors += snapshot.errors;
            }
        }
    }
    merged
}

/// Deterministic 64-bit mixer (splitmix64 finaliser) turning caller keys
/// into well-spread replica choices even when keys are sequential.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A registry of named, versioned, micro-batching detector endpoints — the
/// fleet behind which every deployed pipeline serves — with each endpoint
/// replicated `N` ways behind load-aware routing.
///
/// Each deployed endpoint runs on [`ShardConfig::replicas`] replicas that
/// share one instance of the detector, each with its own micro-batch tile,
/// [`MonitorStats`], admission budget and circuit breaker;
/// [`ShardedFleet::score`] routes every request to one replica by
/// [`RoutePolicy`], and [`ShardedFleet::stats`] merges the per-replica
/// statistics back into one endpoint-wide view. `deploy` and `rollback` fan
/// out to all replicas in lock-step, so a version number names the same
/// model bits everywhere (requests that race the fan-out itself finish on
/// the version their replica was serving when they enqueued). The fleet
/// owns one background flusher thread (spawned when its first tile with a
/// deadline opens, joined when the fleet drops) covering every replica's
/// tile deadline.
/// Single-endpoint callers use `ShardedFleet::new(1)` and read the
/// per-replica views ([`ShardedFleet::replica_health`],
/// [`ShardedFleet::breaker_states`]) at index 0.
///
/// # Example
///
/// Build a config, deploy it across three replicas, score a burst with
/// session affinity, hot-swap a new version, and roll it back:
///
/// ```
/// use hmd_core::detector::{DetectorBackend, DetectorConfig};
/// use hmd_data::{Dataset, Label, Matrix};
/// use hmd_serve::{RoutePolicy, ShardConfig, ShardedFleet};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let x = Matrix::from_rows(&[
///     vec![0.1, 0.2], vec![0.2, 0.1], vec![0.9, 0.8], vec![0.8, 0.9],
/// ])?;
/// let y = vec![Label::Benign, Label::Benign, Label::Malware, Label::Malware];
/// let train = Dataset::new(x, y)?;
/// let config = DetectorConfig::trusted(DetectorBackend::decision_tree())
///     .with_num_estimators(9);
///
/// let fleet = ShardedFleet::with_config(
///     ShardConfig::new(3).with_policy(RoutePolicy::KeyAffinity),
/// );
/// assert_eq!(fleet.deploy("dvfs-hmd", config.fit(&train, 3)?)?, 1);
/// assert_eq!(fleet.replicas("dvfs-hmd")?, 3);
///
/// // One session key -> one replica, so a session's burst batches together.
/// let session = 0xFEED;
/// let tickets: Vec<_> = [[0.15, 0.15], [0.85, 0.85], [0.2, 0.2]]
///     .iter()
///     .map(|row| fleet.score_keyed("dvfs-hmd", session, row))
///     .collect::<Result<_, _>>()?;
/// fleet.flush("dvfs-hmd")?;
/// let mut replicas = std::collections::HashSet::new();
/// for ticket in tickets {
///     let scored = ticket.wait()?;
///     assert_eq!(scored.version, 1);
///     replicas.insert(scored.replica);
/// }
/// assert_eq!(replicas.len(), 1, "sticky sessions share a replica");
///
/// // Hot swap fans out to every replica; stats merge across replicas.
/// assert_eq!(fleet.deploy("dvfs-hmd", config.with_num_estimators(15).fit(&train, 4)?)?, 2);
/// assert_eq!(fleet.rollback("dvfs-hmd")?, 1);
/// assert_eq!(fleet.stats("dvfs-hmd")?.windows, 3);
/// # Ok(())
/// # }
/// ```
pub struct ShardedFleet {
    config: ShardConfig,
    /// `Arc`ed so the background flusher can hold a `Weak` snapshot closure
    /// without keeping the fleet alive.
    endpoints: Arc<RwLock<HashMap<String, Arc<ShardedEndpoint>>>>,
    pub(crate) supervisor: Supervisor,
}

impl Drop for ShardedFleet {
    /// Joins the background flusher, so no supervisor thread outlives the
    /// replicas it scans.
    fn drop(&mut self) {
        self.supervisor.shutdown();
    }
}

impl ShardedFleet {
    /// A fleet with `replicas` round-robin shards per endpoint and default
    /// per-replica policies.
    pub fn new(replicas: usize) -> ShardedFleet {
        ShardedFleet::with_config(ShardConfig::new(replicas))
    }

    /// A fleet with an explicit [`ShardConfig`].
    pub fn with_config(config: ShardConfig) -> ShardedFleet {
        let endpoints: Arc<RwLock<HashMap<String, Arc<ShardedEndpoint>>>> = Arc::default();
        let fleet = Arc::downgrade(&endpoints);
        let supervisor = Supervisor::new(Box::new(move || {
            fleet.upgrade().map(|map| {
                map.read_unpoisoned()
                    .values()
                    .flat_map(|endpoint| endpoint.replicas.iter().cloned())
                    .collect()
            })
        }));
        ShardedFleet {
            config: ShardConfig {
                replicas: config.replicas.max(1),
                ..config
            },
            endpoints,
            supervisor,
        }
    }

    /// The fleet's configuration.
    pub fn config(&self) -> ShardConfig {
        self.config
    }

    fn endpoint(&self, name: &str) -> Result<Arc<ShardedEndpoint>, FleetError> {
        self.endpoints
            .read_unpoisoned()
            .get(name)
            .cloned()
            .ok_or_else(|| FleetError::UnknownEndpoint {
                name: name.to_string(),
            })
    }

    /// Publishes one prepared detector per replica as endpoint `name`,
    /// creating the endpoint on first deploy.
    fn publish(&self, name: &str, detectors: Vec<Arc<dyn Detector>>) -> u64 {
        match self.endpoint(name).ok() {
            Some(endpoint) => endpoint.deploy(detectors),
            None => {
                let mut endpoints = self.endpoints.write_unpoisoned();
                // Double-checked under the write lock: a racing deploy of the
                // same name must version-bump, not overwrite.
                match endpoints.get(name) {
                    Some(endpoint) => endpoint.deploy(detectors),
                    None => {
                        let replicas = detectors
                            .into_iter()
                            .enumerate()
                            .map(|(replica, detector)| {
                                Arc::new(Endpoint::new(
                                    detector,
                                    replica,
                                    &self.config,
                                    self.supervisor.notifier(),
                                ))
                            })
                            .collect();
                        endpoints.insert(
                            name.to_string(),
                            Arc::new(ShardedEndpoint {
                                replicas,
                                policy: self.config.policy,
                                cursor: AtomicUsize::new(0),
                                generation: Mutex::new(1),
                            }),
                        );
                        1
                    }
                }
            }
        }
    }

    /// Deploys `detector` as endpoint `name` on **every replica** and
    /// returns the published version number (1 for a new endpoint,
    /// previous + 1 afterwards — identical on all replicas).
    ///
    /// Every replica serves the one deployed instance, so replicas are
    /// bit-identical by construction, and the model is never copied nor
    /// required to persist. The fan-out runs under the endpoint's
    /// generation lock, so concurrent deploys/rollbacks cannot interleave
    /// their per-replica walks; scoring does not take that lock, so
    /// requests racing the fan-out finish on whichever version their
    /// replica was serving when they enqueued (replicas the walk has not
    /// reached yet still stamp the outgoing version), exactly like rows
    /// already queued in a tile. The endpoint's monitor statistics persist
    /// across versions (they describe the endpoint, not the model), and the
    /// last few retired versions are kept for [`ShardedFleet::rollback`];
    /// older ones are dropped so periodic redeploys do not accumulate every
    /// model ever served.
    ///
    /// # Errors
    ///
    /// None: sharing one instance cannot fail. The `Result` matches
    /// [`ShardedFleet::deploy_replicas`], so callers handle both alike.
    pub fn deploy(&self, name: &str, detector: Box<dyn Detector>) -> Result<u64, FleetError> {
        let detector: Arc<dyn Detector> = Arc::from(detector);
        Ok(self.publish(name, vec![detector; self.config.replicas]))
    }

    /// Like [`ShardedFleet::deploy`], but takes one **pre-built detector
    /// per replica** instead of sharing one — for replicas that must
    /// differ, such as chaos tests giving each replica its own
    /// fault-injection wrapper [`crate::FaultInjector`] and plan. The
    /// caller owns the guarantee that the detectors are equivalent; the
    /// fleet only guarantees they version in lock-step.
    ///
    /// # Errors
    ///
    /// [`FleetError::Replication`] when `detectors.len()` differs from the
    /// configured replica count.
    pub fn deploy_replicas(
        &self,
        name: &str,
        detectors: Vec<Box<dyn Detector>>,
    ) -> Result<u64, FleetError> {
        if detectors.len() != self.config.replicas {
            return Err(FleetError::Replication {
                message: format!(
                    "deploy_replicas needs {} detectors (one per replica), got {}",
                    self.config.replicas,
                    detectors.len()
                ),
            });
        }
        Ok(self.publish(name, detectors.into_iter().map(Arc::from).collect()))
    }

    /// Rolls **every replica** of endpoint `name` back to the version
    /// retired by the latest deploy, returning the restored version number.
    /// Each replica swaps to the restored version first and then drains its
    /// open tile, which captured the outgoing version: rows queued before
    /// the rollback finish on the version that accepted them, and new
    /// tiles open on the restored one.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownEndpoint`] for unknown names,
    /// [`FleetError::NoPreviousVersion`] when nothing was ever retired.
    pub fn rollback(&self, name: &str) -> Result<u64, FleetError> {
        self.endpoint(name)?.rollback(name)
    }

    /// The version every replica of endpoint `name` currently serves.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownEndpoint`] for unknown names.
    pub fn active_version(&self, name: &str) -> Result<u64, FleetError> {
        Ok(*self.endpoint(name)?.generation.lock_unpoisoned())
    }

    /// The active detector's human-readable description (identical on every
    /// replica).
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownEndpoint`] for unknown names.
    pub fn detector_name(&self, name: &str) -> Result<String, FleetError> {
        Ok(self.endpoint(name)?.replicas[0].active().detector.name())
    }

    /// Names of every deployed endpoint, sorted.
    pub fn endpoints(&self) -> Vec<String> {
        let mut names: Vec<String> = self.endpoints.read_unpoisoned().keys().cloned().collect();
        names.sort();
        names
    }

    /// Replica count of endpoint `name`.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownEndpoint`] for unknown names.
    pub fn replicas(&self, name: &str) -> Result<usize, FleetError> {
        Ok(self.endpoint(name)?.replicas.len())
    }

    /// Enqueues one signature into the tile of the replica the routing
    /// policy picks, returning a [`ShardTicket`] that remembers the choice.
    /// The row is copied into the tile (the only copy on the request path);
    /// the tile drains through the detector's zero-copy batch view when the
    /// flush policy fires.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownEndpoint`] for unknown names,
    /// [`FleetError::WidthMismatch`] when `features` disagrees with rows
    /// already queued in the chosen replica's tile,
    /// [`FleetError::Overloaded`] / [`FleetError::CircuitOpen`] when the
    /// chosen replica sheds (under
    /// [`FallbackPolicy::EscalateUncertain`](crate::FallbackPolicy::EscalateUncertain)
    /// a shedding replica instead returns a ticket already resolved to a
    /// synthetic escalation).
    pub fn score(&self, name: &str, features: &[f64]) -> Result<ShardTicket, FleetError> {
        let endpoint = self.endpoint(name)?;
        endpoint.replicas[endpoint.route(None)].enqueue(features)
    }

    /// Like [`ShardedFleet::score`], but pins the request to the replica
    /// derived from `key`'s hash — session stickiness: every request with
    /// the same key queues (and therefore micro-batches) on the same
    /// replica, under **any** routing policy (including while that replica's
    /// breaker sheds — a sticky session sees its replica's fallback rather
    /// than silently migrating).
    ///
    /// # Errors
    ///
    /// Same as [`ShardedFleet::score`].
    pub fn score_keyed(
        &self,
        name: &str,
        key: u64,
        features: &[f64],
    ) -> Result<ShardTicket, FleetError> {
        let endpoint = self.endpoint(name)?;
        endpoint.replicas[endpoint.route(Some(key))].enqueue(features)
    }

    /// Scores a whole borrowed batch view on one routed replica, bypassing
    /// the micro-batch queue but still stamping versions, attributing the
    /// replica, and feeding that replica's statistics and circuit breaker
    /// (the admission budget does not apply: a synchronous batch occupies
    /// no queue).
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownEndpoint`] for unknown names,
    /// [`FleetError::CircuitOpen`] while the replica's breaker sheds, or the
    /// detector's error for mismatched feature counts.
    pub fn score_batch<'a>(
        &self,
        name: &str,
        batch: impl Into<RowsView<'a>>,
    ) -> Result<Vec<ShardedReport>, FleetError> {
        let endpoint = self.endpoint(name)?;
        endpoint.replicas[endpoint.route(None)].score_rows(batch.into())
    }

    /// Drains the pending tile of **every replica** of endpoint `name`,
    /// returning the total number of rows scored.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownEndpoint`] for unknown names.
    pub fn flush(&self, name: &str) -> Result<usize, FleetError> {
        Ok(self
            .endpoint(name)?
            .replicas
            .iter()
            .map(|replica| replica.flush())
            .sum())
    }

    /// Endpoint-wide monitor statistics: every replica's [`MonitorStats`]
    /// merged into one view with [`MonitorStats::merge`], across every
    /// version the endpoint has served. Degraded (breaker-fallback) rows
    /// are never recorded here — see [`HealthSnapshot`].
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownEndpoint`] for unknown names.
    pub fn stats(&self, name: &str) -> Result<MonitorStats, FleetError> {
        let endpoint = self.endpoint(name)?;
        let mut merged = MonitorStats::default();
        for replica in &endpoint.replicas {
            merged.merge(&replica.stats.lock_unpoisoned());
        }
        Ok(merged)
    }

    /// Per-replica monitor statistics, indexed like [`ShardedReport::replica`]
    /// — the unmerged view a dashboard uses to spot a hot or idle replica.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownEndpoint`] for unknown names.
    pub fn replica_stats(&self, name: &str) -> Result<Vec<MonitorStats>, FleetError> {
        Ok(self
            .endpoint(name)?
            .replicas
            .iter()
            .map(|replica| *replica.stats.lock_unpoisoned())
            .collect())
    }

    /// Rows currently queued in each replica's open tile — the same racy
    /// snapshot the [`RoutePolicy::LeastLoaded`] router reads.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownEndpoint`] for unknown names.
    pub fn pending_depths(&self, name: &str) -> Result<Vec<usize>, FleetError> {
        Ok(self
            .endpoint(name)?
            .replicas
            .iter()
            .map(|replica| replica.pending_depth())
            .collect())
    }

    /// Each replica's circuit-breaker state, indexed like
    /// [`ShardedReport::replica`].
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownEndpoint`] for unknown names.
    pub fn breaker_states(&self, name: &str) -> Result<Vec<BreakerState>, FleetError> {
        Ok(self
            .endpoint(name)?
            .replicas
            .iter()
            .map(|replica| replica.breaker_state())
            .collect())
    }

    /// Each replica's supervision health (breaker state, admitted rows,
    /// shed/degraded/trip counters), indexed like
    /// [`ShardedReport::replica`].
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownEndpoint`] for unknown names.
    pub fn replica_health(&self, name: &str) -> Result<Vec<HealthSnapshot>, FleetError> {
        Ok(self
            .endpoint(name)?
            .replicas
            .iter()
            .map(|replica| replica.health())
            .collect())
    }

    /// Resets every replica's monitor statistics for endpoint `name`.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownEndpoint`] for unknown names.
    pub fn reset_stats(&self, name: &str) -> Result<(), FleetError> {
        for replica in &self.endpoint(name)?.replicas {
            *replica.stats.lock_unpoisoned() = MonitorStats::default();
        }
        Ok(())
    }

    /// Reset-on-read window over endpoint `name`'s merged statistics:
    /// every replica's window since the previous call, merged with
    /// [`MonitorStats::merge`] (window snapshots merge exactly like their
    /// source blocks). Lifetime statistics ([`ShardedFleet::stats`]) are
    /// untouched — this is the feed a drift detector polls.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownEndpoint`] for unknown names.
    pub fn window_stats(&self, name: &str) -> Result<MonitorStats, FleetError> {
        let endpoint = self.endpoint(name)?;
        let mut merged = MonitorStats::default();
        for replica in &endpoint.replicas {
            merged.merge(&replica.window_stats());
        }
        Ok(merged)
    }

    /// Installs `detector` as endpoint `name`'s **challenger on every
    /// replica** (one instance shared by all of them, like
    /// [`ShardedFleet::deploy`]): it scores every batch each replica's
    /// champion serves, into that replica's shadow statistics, while
    /// callers keep receiving exactly the champion's reports. Replaces any
    /// previous challenger. The fan-out runs under the endpoint's
    /// generation lock, in lock-step with deploys and promotions.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownEndpoint`] for unknown names.
    pub fn deploy_shadow(&self, name: &str, detector: Box<dyn Detector>) -> Result<(), FleetError> {
        self.endpoint(name)?.deploy_shadow(Arc::from(detector));
        Ok(())
    }

    /// The challenger's merged evidence across every replica (`None` when
    /// no shadow is installed): statistics merge, row/error counters add.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownEndpoint`] for unknown names.
    pub fn shadow_stats(&self, name: &str) -> Result<Option<ShadowSnapshot>, FleetError> {
        let endpoint = self.endpoint(name)?;
        Ok(merge_shadow_snapshots(
            endpoint
                .replicas
                .iter()
                .map(|replica| replica.shadow_snapshot()),
        ))
    }

    /// Removes endpoint `name`'s challenger from every replica without
    /// promoting it, returning the merged final evidence (`None` when no
    /// shadow was installed).
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownEndpoint`] for unknown names.
    pub fn clear_shadow(&self, name: &str) -> Result<Option<ShadowSnapshot>, FleetError> {
        Ok(self.endpoint(name)?.clear_shadow())
    }

    /// Promotes endpoint `name`'s challenger to champion on **every
    /// replica** in lock-step: each replica publishes the challenger
    /// instance it shadow-scored with as the next version (the same version
    /// number everywhere, by the shared administrative history), the outgoing champions are
    /// retired for [`ShardedFleet::rollback`], and the shadow slots empty.
    /// Returns the published version number.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownEndpoint`] for unknown names,
    /// [`FleetError::NoShadow`] when no challenger is installed.
    pub fn promote_shadow(&self, name: &str) -> Result<u64, FleetError> {
        self.endpoint(name)?.promote_shadow(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_spreads_sequential_keys() {
        let n = 4u64;
        let mut hits = [0usize; 4];
        for key in 0..1000u64 {
            hits[(splitmix64(key) % n) as usize] += 1;
        }
        for (replica, &count) in hits.iter().enumerate() {
            assert!(
                count > 150,
                "replica {replica} starved: {count}/1000 sequential keys"
            );
        }
    }

    #[test]
    fn shard_config_clamps_replicas() {
        assert_eq!(ShardConfig::new(0).replicas, 1);
        let fleet = ShardedFleet::with_config(ShardConfig {
            replicas: 0,
            policy: RoutePolicy::RoundRobin,
            flush: FlushPolicy::default(),
            admission: AdmissionPolicy::default(),
            breaker: BreakerPolicy::default(),
        });
        assert_eq!(fleet.config().replicas, 1);
    }
}
