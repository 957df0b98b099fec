//! Fleet serving layer for the unified `Detector` API.
//!
//! [`hmd_core::detector`] gives one pipeline one polymorphic contract; this
//! crate gives *many* pipelines one deployment surface, modelled after the
//! central units of production DAQ systems: a registry that routes high-rate
//! telemetry streams to versioned processing backends without stalling
//! producers. See `ARCHITECTURE.md` at the repository root for where this
//! crate sits in the workspace's data flow.
//!
//! * [`ShardedFleet`] — a registry of named, versioned `Arc<dyn Detector>`
//!   endpoints, the one fleet type. Every endpoint runs on `N` replicas
//!   ([`ShardConfig::replicas`]; `ShardedFleet::new(1)` is the
//!   single-endpoint fleet), and every replica owns its own
//!   [`MonitorStats`](hmd_core::detector::MonitorStats) and a
//!   micro-batching request collector.
//! * **Micro-batching**: single-row [`ShardedFleet::score`] calls enqueue
//!   into a replica's tile and return an ordered [`ShardTicket`]. The tile
//!   drains through the detector's batch hot path (`detect_rows`, flat
//!   engine, persistent worker pool) when it reaches
//!   [`FlushPolicy::max_batch`] rows, when a waiter's
//!   [`FlushPolicy::max_wait`] deadline expires, or on an explicit
//!   [`ShardedFleet::flush`]. Because every detector scores rows
//!   independently, fleet-routed results are **bit-identical** to calling
//!   `detect_batch` directly — the seeded multi-threaded equivalence test in
//!   `tests/shard.rs` enforces this at 1 and 3 replicas.
//! * **Hot swap**: [`ShardedFleet::deploy`] atomically publishes a new
//!   version of an endpoint on every replica while requests already
//!   enqueued finish on the version that accepted them;
//!   [`ShardedFleet::rollback`] restores the previous version. Every result
//!   is a [`ShardedReport`] stamped with its version and replica, so
//!   consumers can attribute each decision to the exact model that made it.
//! * **Routing**: requests pick a replica with a pluggable [`RoutePolicy`]
//!   (round-robin, least-loaded by open-tile depth, or key affinity for
//!   session stickiness). Replicas share one detector instance on
//!   lock-stepped versions, so routing changes *where* a request queues,
//!   never *what* it scores.
//! * **Supervision**: every fleet owns one background flusher thread that
//!   fires [`FlushPolicy::max_wait`] deadlines even with no blocked waiter
//!   (spawned when the fleet's first tile opens, joined on drop). Every replica
//!   carries a bounded admission budget
//!   ([`AdmissionPolicy`] — beyond it, `score` sheds with
//!   [`FleetError::Overloaded`] instead of growing memory) and a circuit
//!   breaker ([`BreakerPolicy`] — consecutive failed drains trip it to
//!   Open, which fast-sheds with [`FleetError::CircuitOpen`] or degrades to
//!   a synthetic escalation per [`FallbackPolicy`], and half-open probes
//!   re-admit traffic). Supervision outcomes are observable per replica
//!   through [`HealthSnapshot`]; callers bound their own latency with
//!   [`ShardTicket::wait_deadline`].
//! * **Fault injection**: [`FaultInjector`] wraps any detector with a
//!   deterministic [`FaultPlan`] (fail-nth, fail-after, slow-call,
//!   width-corrupt) so chaos tests — `tests/chaos.rs` — can prove the
//!   shedding, breaker and bit-identity claims above under scheduled
//!   misbehaviour.
//! * **Process separation**: [`net`] puts a length-prefixed, versioned
//!   loopback TCP protocol (`PROTOCOL.md`) in front of a [`ShardedFleet`]:
//!   [`FleetServer`] is a bounded accept/worker loop with per-connection
//!   in-flight budgets and deadline-wired drains, [`FleetClient`] a small
//!   blocking client with deterministic retry/backoff/jitter and
//!   idempotent-only retry. The same [`FaultPlan`] vocabulary extends to
//!   transport faults (dropped connection, slow reader, truncated frame,
//!   garbage frame) so `tests/net_chaos.rs` proves recovery and
//!   bit-identity across the process boundary.
//!
//! # Example
//!
//! ```
//! use hmd_core::detector::{DetectorBackend, DetectorConfig};
//! use hmd_data::{Dataset, Label, Matrix};
//! use hmd_serve::ShardedFleet;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let x = Matrix::from_rows(&[
//!     vec![0.1, 0.2], vec![0.2, 0.1], vec![0.9, 0.8], vec![0.8, 0.9],
//! ])?;
//! let y = vec![Label::Benign, Label::Benign, Label::Malware, Label::Malware];
//! let train = Dataset::new(x, y)?;
//! let config = DetectorConfig::trusted(DetectorBackend::decision_tree())
//!     .with_num_estimators(9);
//!
//! // One replica: the single-endpoint fleet.
//! let fleet = ShardedFleet::new(1);
//! let version = fleet.deploy("dvfs-hmd", config.fit(&train, 3)?)?;
//! assert_eq!(version, 1);
//!
//! // Single-row requests micro-batch behind the endpoint.
//! let ticket = fleet.score("dvfs-hmd", &[0.15, 0.15])?;
//! fleet.flush("dvfs-hmd")?;
//! let scored = ticket.wait()?;
//! assert_eq!((scored.version, scored.replica), (1, 0));
//! assert_eq!(fleet.stats("dvfs-hmd")?.windows, 1);
//!
//! // Scale out: two shards serving one shared instance of the model.
//! let sharded = ShardedFleet::new(2);
//! sharded.deploy("dvfs-hmd", config.fit(&train, 3)?)?;
//! let ticket = sharded.score("dvfs-hmd", &[0.15, 0.15])?;
//! sharded.flush("dvfs-hmd")?;
//! assert!(ticket.wait()?.replica < 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::time::{Duration, Instant};

mod admission;
mod breaker;
mod faults;
mod fleet;
pub mod net;
mod shard;
mod supervisor;
mod sync;

pub use admission::AdmissionPolicy;
pub use breaker::{degraded_escalation, BreakerPolicy, BreakerState, FallbackPolicy};
pub use faults::{FaultCounters, FaultInjector, FaultPlan};
pub use fleet::{FleetError, FlushPolicy, HealthSnapshot, ShadowSnapshot, ShardTicket};
pub use net::{
    ClientConfig, ClientStats, FleetClient, FleetServer, NetError, RetryPolicy, ServerConfig,
    ServerStats,
};
pub use shard::{RoutePolicy, ShardConfig, ShardedFleet, ShardedReport};

/// The instant `wait` after `now`, or `None` — "never" — when the sum is
/// not representable. `Instant + Duration` panics on overflow, and a
/// deadline that far out is indistinguishable from no deadline at all, so
/// every deadline in the crate (tile flush, caller wait, breaker cooldown,
/// client response) is computed here.
pub(crate) fn deadline_after(now: Instant, wait: Duration) -> Option<Instant> {
    now.checked_add(wait)
}
