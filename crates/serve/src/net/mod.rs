//! Process-separated serving: a loopback wire protocol over the supervised
//! [`ShardedFleet`](crate::ShardedFleet).
//!
//! Everything below this module exists so a *separate process* can score
//! against a fleet with the same supervision guarantees in-process callers
//! get. The protocol (specified normatively in `PROTOCOL.md` at the
//! repository root) frames [`hmd_codec`] JSON documents with the
//! fixed-size header of [`hmd_codec::frame`]: requests for scoring a row,
//! scoring a batch, flushing, deploying, rolling back and querying health,
//! each answered by exactly one typed response or error frame.
//!
//! * [`wire`] — frame kinds, payload schemas, stable error codes, and the
//!   incremental [`FrameReader`](wire) used by both peers.
//! * [`FleetServer`] — a bounded accept/worker loop: one handler thread per
//!   connection (capped by [`ServerConfig::with_max_connections`]; excess
//!   connections are shed with an `Overloaded` error frame), a
//!   per-connection **in-flight frame budget** for backpressure (once the
//!   budget of pipelined score requests is reached the server stops
//!   reading and drains responses — the TCP window, not server memory,
//!   absorbs a pushy client), and per-request deadlines wired through
//!   [`ShardTicket::wait_deadline`](crate::ShardTicket::wait_deadline).
//! * [`FleetClient`] — a small blocking client with deterministic
//!   exponential backoff plus jitter ([`RetryPolicy`]) on connection
//!   faults, and **idempotent-only retry**: once a `deploy`/`rollback`
//!   frame may have reached the server, a transport fault surfaces as
//!   [`NetError::InFlight`] instead of being silently retried.
//! * Transport fault injection — the server wraps every accepted
//!   connection in a fault-injecting stream driven by the transport half
//!   of a [`FaultPlan`](crate::FaultPlan) (dropped connection, slow
//!   reader, truncated frame, garbage frame), so the chaos suite
//!   (`tests/net_chaos.rs`) can prove recovery deterministically.
//!
//! Supervision semantics cross the wire losslessly: every
//! [`FleetError`] is mapped to its stable numeric code
//! ([`FleetError::code`](crate::FleetError::code)) inside an error frame
//! and reconstructed client-side, so a remote caller distinguishes
//! `Overloaded` (back off and retry) from `CircuitOpen` (the endpoint is
//! shedding) from `DeadlineExceeded` exactly as an in-process caller
//! would.

pub mod wire;

mod client;
mod server;

pub use client::{ClientConfig, ClientStats, FleetClient, RetryPolicy};
pub use server::{FleetServer, ServerConfig, ServerStats};

use crate::fleet::FleetError;
use std::fmt;

/// Errors of the wire layer: everything that can go wrong between a
/// [`FleetClient`] and a [`FleetServer`] that is *not* an ordinary fleet
/// outcome, plus [`NetError::Fleet`] for the outcomes that are.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetError {
    /// A socket operation failed (connect, read, write, timeout). The
    /// connection is unusable; idempotent requests are retried per
    /// [`RetryPolicy`].
    Io {
        /// Which operation failed (`"connect"`, `"write"`, `"read"`...).
        context: &'static str,
        /// Display form of the underlying `std::io::Error`.
        message: String,
    },
    /// The peer violated the framing protocol (bad magic, malformed JSON
    /// payload, unknown or unexpected frame kind). The stream cannot be
    /// trusted past this point and is dropped.
    Protocol {
        /// What was violated.
        message: String,
    },
    /// A frame header announced a payload larger than the receiver's
    /// configured maximum; refused **before** allocating.
    FrameTooLarge {
        /// Announced payload size in bytes.
        len: usize,
        /// The receiver's limit.
        limit: usize,
    },
    /// The peer speaks a different protocol version.
    VersionMismatch {
        /// Our version ([`wire::PROTOCOL_VERSION`]).
        ours: u8,
        /// The version byte the peer sent.
        theirs: u8,
    },
    /// A fleet-semantic error, reconstructed from the error frame's stable
    /// code — the same value an in-process caller would have received.
    Fleet(FleetError),
    /// The server sent an error frame with a code this client does not
    /// know (a newer peer). Carried verbatim for logs.
    Remote {
        /// The unrecognised stable code.
        code: u16,
        /// The error frame's message.
        message: String,
    },
    /// The connection died after a **non-idempotent** request (deploy,
    /// rollback) may have reached the server. Retrying could apply the
    /// mutation twice, so the client surfaces the uncertainty instead;
    /// the caller decides (e.g. query `health`/version state first).
    InFlight {
        /// What happened to the connection.
        message: String,
    },
}

impl NetError {
    /// The stable wire code for errors that travel in error frames:
    /// [`FleetError::code`] for fleet errors, the transport range (100+)
    /// for framing errors, `None` for client-local conditions (I/O faults,
    /// in-flight uncertainty) that never cross the wire.
    pub fn code(&self) -> Option<u16> {
        match self {
            NetError::Fleet(error) => Some(error.code()),
            NetError::FrameTooLarge { .. } => Some(wire::CODE_FRAME_TOO_LARGE),
            NetError::VersionMismatch { .. } => Some(wire::CODE_VERSION_MISMATCH),
            NetError::Protocol { .. } => Some(wire::CODE_PROTOCOL),
            NetError::Remote { code, .. } => Some(*code),
            NetError::Io { .. } | NetError::InFlight { .. } => None,
        }
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io { context, message } => {
                write!(f, "transport error during {context}: {message}")
            }
            NetError::Protocol { message } => write!(f, "protocol violation: {message}"),
            NetError::FrameTooLarge { len, limit } => write!(
                f,
                "frame payload of {len} bytes exceeds the {limit}-byte limit"
            ),
            NetError::VersionMismatch { ours, theirs } => write!(
                f,
                "protocol version mismatch: we speak {ours}, peer sent {theirs}"
            ),
            NetError::Fleet(error) => write!(f, "{error}"),
            NetError::Remote { code, message } => {
                write!(f, "remote error with unknown code {code}: {message}")
            }
            NetError::InFlight { message } => {
                write!(f, "non-idempotent request may have been applied: {message}")
            }
        }
    }
}

impl std::error::Error for NetError {}

impl From<FleetError> for NetError {
    fn from(error: FleetError) -> NetError {
        NetError::Fleet(error)
    }
}
