//! Frame kinds, payload schemas and stable error codes of the loopback
//! protocol — the typed layer over [`hmd_codec::frame`]'s raw framing.
//!
//! `PROTOCOL.md` at the repository root is the normative spec; this module
//! is its implementation. Every message is one frame: the 8-byte header
//! (magic, version, kind, payload length) followed by a UTF-8
//! [`Json`] document. Request payloads decode into [`Request`] straight from
//! their bytes (no tree; the server's `ScoreRow` path decodes into reused
//! buffers and writes its replies straight into the connection's output),
//! response payloads into [`Response`]; error frames carry a stable numeric code
//! (fleet codes below 100 via [`FleetError::code`], transport codes at
//! [`CODE_FRAME_TOO_LARGE`]+) and enough structured detail to reconstruct
//! the original [`FleetError`] on the client.
//!
//! Exactness note: report floats (vote fraction, entropy) are encoded with
//! the codec's shortest-round-trip `f64` writer, so a report read off the
//! wire is **bit-identical** to the report the replica produced — the
//! chaos suite (`tests/net_chaos.rs`) asserts this against direct
//! `detect_batch` output.

use crate::breaker::BreakerState;
use crate::fleet::{FleetError, HealthSnapshot};
use crate::net::NetError;
use crate::shard::ShardedReport;
use hmd_codec::frame::{FrameHeader, HEADER_LEN};
use hmd_codec::{required, write_f64, write_int, write_string, CodecError, Json, Parser};
use hmd_core::estimator::UncertainPrediction;
use hmd_core::trusted::{Decision, DetectionReport};
use hmd_data::Label;
use std::io::{ErrorKind, Read};
use std::time::Duration;

/// The protocol version this build speaks, carried in every frame header.
/// Peers on a different version answer with a [`CODE_VERSION_MISMATCH`]
/// error frame and close — there is no cross-version negotiation on a
/// loopback link where both ends ship from one workspace.
pub const PROTOCOL_VERSION: u8 = 1;

/// Default cap on a single frame's payload (4 MiB): large enough for a
/// saved detector document or a multi-thousand-row batch, small enough
/// that a corrupt or hostile length field cannot balloon memory.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 4 << 20;

/// Stable code of [`NetError::FrameTooLarge`] error frames. The transport
/// range starts at 100; fleet-semantic codes ([`FleetError::code`]) stay
/// below it.
pub const CODE_FRAME_TOO_LARGE: u16 = 100;

/// Stable code of [`NetError::VersionMismatch`] error frames.
pub const CODE_VERSION_MISMATCH: u16 = 101;

/// Stable code of [`NetError::Protocol`] error frames (bad magic,
/// malformed payload, unknown frame kind).
pub const CODE_PROTOCOL: u16 = 102;

/// Message discriminator carried in the frame header's `kind` byte.
/// Requests occupy `0x01..=0x06`; each response kind is its request's
/// kind with the high bit set; `0xFF` is the error frame any request can
/// be answered with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Score one row (pipelined; counts against the in-flight budget).
    ScoreRow = 0x01,
    /// Score a whole batch synchronously.
    ScoreBatch = 0x02,
    /// Drain the endpoint's pending tiles.
    Flush = 0x03,
    /// Publish a new detector version from a saved document.
    Deploy = 0x04,
    /// Restore the endpoint's previous version.
    Rollback = 0x05,
    /// Query per-replica supervision health.
    Health = 0x06,
    /// Response to [`FrameKind::ScoreRow`].
    ScoreRowReply = 0x81,
    /// Response to [`FrameKind::ScoreBatch`].
    ScoreBatchReply = 0x82,
    /// Response to [`FrameKind::Flush`].
    FlushReply = 0x83,
    /// Response to [`FrameKind::Deploy`].
    DeployReply = 0x84,
    /// Response to [`FrameKind::Rollback`].
    RollbackReply = 0x85,
    /// Response to [`FrameKind::Health`].
    HealthReply = 0x86,
    /// Error response to any request.
    Error = 0xFF,
}

impl FrameKind {
    /// The header byte for this kind.
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Decodes a header byte; `None` for kinds this version does not know.
    pub fn from_u8(byte: u8) -> Option<FrameKind> {
        match byte {
            0x01 => Some(FrameKind::ScoreRow),
            0x02 => Some(FrameKind::ScoreBatch),
            0x03 => Some(FrameKind::Flush),
            0x04 => Some(FrameKind::Deploy),
            0x05 => Some(FrameKind::Rollback),
            0x06 => Some(FrameKind::Health),
            0x81 => Some(FrameKind::ScoreRowReply),
            0x82 => Some(FrameKind::ScoreBatchReply),
            0x83 => Some(FrameKind::FlushReply),
            0x84 => Some(FrameKind::DeployReply),
            0x85 => Some(FrameKind::RollbackReply),
            0x86 => Some(FrameKind::HealthReply),
            0xFF => Some(FrameKind::Error),
            _ => None,
        }
    }

    /// True for the request half of the vocabulary.
    pub fn is_request(self) -> bool {
        (self.as_u8() & 0x80) == 0
    }
}

/// One decoded request payload.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Score one row against `endpoint`, optionally with a routing key for
    /// session affinity (mirrors `ShardedFleet::score_keyed`).
    ScoreRow {
        /// Target endpoint name.
        endpoint: String,
        /// Routing key for key-affinity policies; `None` routes by the
        /// endpoint's default policy.
        key: Option<u64>,
        /// The feature row.
        row: Vec<f64>,
    },
    /// Score a batch of rows synchronously (one reply carrying every
    /// report, in row order).
    ScoreBatch {
        /// Target endpoint name.
        endpoint: String,
        /// The feature rows; all must share one width.
        rows: Vec<Vec<f64>>,
    },
    /// Drain `endpoint`'s pending tiles on every replica.
    Flush {
        /// Target endpoint name.
        endpoint: String,
    },
    /// Publish a new version of `endpoint` from a saved detector document
    /// (the `hmd_core::detector::save` format). **Not idempotent**: each
    /// application bumps the version.
    Deploy {
        /// Target endpoint name.
        endpoint: String,
        /// The saved detector document.
        document: String,
    },
    /// Restore `endpoint`'s previous version. **Not idempotent.**
    Rollback {
        /// Target endpoint name.
        endpoint: String,
    },
    /// Query `endpoint`'s per-replica supervision health.
    Health {
        /// Target endpoint name.
        endpoint: String,
    },
}

impl Request {
    /// The frame kind this request travels under.
    pub fn kind(&self) -> FrameKind {
        match self {
            Request::ScoreRow { .. } => FrameKind::ScoreRow,
            Request::ScoreBatch { .. } => FrameKind::ScoreBatch,
            Request::Flush { .. } => FrameKind::Flush,
            Request::Deploy { .. } => FrameKind::Deploy,
            Request::Rollback { .. } => FrameKind::Rollback,
            Request::Health { .. } => FrameKind::Health,
        }
    }

    /// Encodes the request's payload document.
    pub fn to_json(&self) -> Json {
        match self {
            Request::ScoreRow { endpoint, key, row } => Json::object(vec![
                ("endpoint", Json::Str(endpoint.clone())),
                (
                    "key",
                    match key {
                        Some(k) => u64_json(*k),
                        None => Json::Null,
                    },
                ),
                ("row", floats_json(row)),
            ]),
            Request::ScoreBatch { endpoint, rows } => Json::object(vec![
                ("endpoint", Json::Str(endpoint.clone())),
                (
                    "rows",
                    Json::Array(rows.iter().map(|row| floats_json(row)).collect()),
                ),
            ]),
            Request::Flush { endpoint } => {
                Json::object(vec![("endpoint", Json::Str(endpoint.clone()))])
            }
            Request::Deploy { endpoint, document } => Json::object(vec![
                ("endpoint", Json::Str(endpoint.clone())),
                ("document", Json::Str(document.clone())),
            ]),
            Request::Rollback { endpoint } => {
                Json::object(vec![("endpoint", Json::Str(endpoint.clone()))])
            }
            Request::Health { endpoint } => {
                Json::object(vec![("endpoint", Json::Str(endpoint.clone()))])
            }
        }
    }

    /// Decodes a request payload arriving under `kind`, straight from its
    /// bytes. Keys follow [`Parser::object`]'s rules: unknown keys are
    /// skipped, and when a key repeats, its first value counts (as
    /// [`Json::get`] resolves it).
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] if `kind` is not a request kind or the
    /// payload is not a JSON object matching its schema.
    pub fn decode(kind: FrameKind, payload: &[u8]) -> Result<Request, NetError> {
        match kind {
            FrameKind::ScoreRow => {
                let (mut endpoint, mut row) = (String::new(), Vec::new());
                let key = decode_score_row(payload, &mut endpoint, &mut row)?;
                Ok(Request::ScoreRow { endpoint, key, row })
            }
            kind if kind.is_request() => decode_barrier(kind, payload).map_err(protocol),
            other => Err(NetError::Protocol {
                message: format!("frame kind {:#04x} is not a request", other.as_u8()),
            }),
        }
    }
}

/// Decodes a `ScoreRow` payload into caller-owned buffers (cleared first),
/// returning its routing key — the server reuses one pair of buffers per
/// connection. Same rules as [`Request::decode`].
pub(crate) fn decode_score_row(
    payload: &[u8],
    endpoint: &mut String,
    row: &mut Vec<f64>,
) -> Result<Option<u64>, NetError> {
    endpoint.clear();
    row.clear();
    score_row_fields(payload, endpoint, row).map_err(protocol)
}

fn score_row_fields(
    payload: &[u8],
    endpoint: &mut String,
    row: &mut Vec<f64>,
) -> Result<Option<u64>, CodecError> {
    let (mut has_endpoint, mut has_row, mut key) = (false, false, None);
    let mut parser = Parser::new(payload);
    parser.object(["endpoint", "key", "row"], |parser, field| {
        match field {
            0 => {
                endpoint.push_str(&parser.string()?);
                has_endpoint = true;
            }
            1 => {
                key = Some(if parser.null() {
                    None
                } else {
                    Some(unsigned(parser.i64()?)?)
                });
            }
            _ => {
                pull_floats(parser, row)?;
                has_row = true;
            }
        }
        Ok(())
    })?;
    parser.finish()?;
    required(has_endpoint.then_some(()), "endpoint")?;
    required(has_row.then_some(()), "row")?;
    required(key, "key")
}

/// The fields of a barrier request (every kind but `ScoreRow`).
fn decode_barrier(kind: FrameKind, payload: &[u8]) -> Result<Request, CodecError> {
    let (mut endpoint, mut rows, mut document) = (None, None, None);
    let mut parser = Parser::new(payload);
    parser.object(["endpoint", "rows", "document"], |parser, field| {
        match (field, kind) {
            (0, _) => endpoint = Some(parser.string()?.into_owned()),
            (1, FrameKind::ScoreBatch) => {
                let mut all = Vec::new();
                parser.begin_array()?;
                while parser.next_item()? {
                    let mut row = Vec::new();
                    pull_floats(parser, &mut row)?;
                    all.push(row);
                }
                rows = Some(all);
            }
            (2, FrameKind::Deploy) => document = Some(parser.string()?.into_owned()),
            // A key of another request kind is not part of this schema.
            _ => parser.skip_value()?,
        }
        Ok(())
    })?;
    parser.finish()?;
    let endpoint = required(endpoint, "endpoint")?;
    Ok(match kind {
        FrameKind::ScoreBatch => Request::ScoreBatch {
            endpoint,
            rows: required(rows, "rows")?,
        },
        FrameKind::Deploy => Request::Deploy {
            endpoint,
            document: required(document, "document")?,
        },
        FrameKind::Rollback => Request::Rollback { endpoint },
        FrameKind::Health => Request::Health { endpoint },
        _ => Request::Flush { endpoint },
    })
}

/// Reads an array of numbers (as [`Json::as_f64`] accepts them) onto `row`.
fn pull_floats(parser: &mut Parser<'_>, row: &mut Vec<f64>) -> Result<(), CodecError> {
    parser.begin_array()?;
    while parser.next_item()? {
        row.push(parser.f64()?);
    }
    Ok(())
}

/// One decoded response payload.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to [`Request::ScoreRow`].
    ScoreRow(ShardedReport),
    /// Reply to [`Request::ScoreBatch`], reports in row order.
    ScoreBatch(Vec<ShardedReport>),
    /// Reply to [`Request::Flush`]: rows drained across replicas.
    Flush {
        /// Rows the flush drained.
        rows: usize,
    },
    /// Reply to [`Request::Deploy`]: the published version.
    Deploy {
        /// The new endpoint version.
        version: u64,
    },
    /// Reply to [`Request::Rollback`]: the restored version.
    Rollback {
        /// The version now serving.
        version: u64,
    },
    /// Reply to [`Request::Health`]: one snapshot per replica.
    Health(Vec<HealthSnapshot>),
    /// An error frame, reconstructed into the richest [`NetError`] the
    /// code allows.
    Error(NetError),
}

impl Response {
    /// The frame kind this response travels under.
    pub fn kind(&self) -> FrameKind {
        match self {
            Response::ScoreRow(_) => FrameKind::ScoreRowReply,
            Response::ScoreBatch(_) => FrameKind::ScoreBatchReply,
            Response::Flush { .. } => FrameKind::FlushReply,
            Response::Deploy { .. } => FrameKind::DeployReply,
            Response::Rollback { .. } => FrameKind::RollbackReply,
            Response::Health(_) => FrameKind::HealthReply,
            Response::Error(_) => FrameKind::Error,
        }
    }

    /// Encodes the response's payload document.
    pub fn to_json(&self) -> Json {
        match self {
            Response::ScoreRow(report) => report_json(report),
            Response::ScoreBatch(reports) => Json::object(vec![(
                "reports",
                Json::Array(reports.iter().map(report_json).collect()),
            )]),
            Response::Flush { rows } => Json::object(vec![("rows", usize_json(*rows))]),
            Response::Deploy { version } => Json::object(vec![("version", u64_json(*version))]),
            Response::Rollback { version } => Json::object(vec![("version", u64_json(*version))]),
            Response::Health(snapshots) => Json::object(vec![(
                "replicas",
                Json::Array(snapshots.iter().map(health_json).collect()),
            )]),
            Response::Error(error) => error_json(error),
        }
    }

    /// Decodes a response payload arriving under `kind`.
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] if `kind` is a request kind or the payload
    /// does not match its schema.
    pub fn from_wire(kind: FrameKind, payload: &Json) -> Result<Response, NetError> {
        match kind {
            FrameKind::ScoreRowReply => {
                Ok(Response::ScoreRow(json_report(payload).map_err(protocol)?))
            }
            FrameKind::ScoreBatchReply => {
                let reports = payload
                    .get("reports")
                    .and_then(Json::as_array)
                    .map_err(protocol)?
                    .iter()
                    .map(json_report)
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(protocol)?;
                Ok(Response::ScoreBatch(reports))
            }
            FrameKind::FlushReply => Ok(Response::Flush {
                rows: payload
                    .get("rows")
                    .and_then(Json::as_usize)
                    .map_err(protocol)?,
            }),
            FrameKind::DeployReply => Ok(Response::Deploy {
                version: payload
                    .get("version")
                    .and_then(json_u64)
                    .map_err(protocol)?,
            }),
            FrameKind::RollbackReply => Ok(Response::Rollback {
                version: payload
                    .get("version")
                    .and_then(json_u64)
                    .map_err(protocol)?,
            }),
            FrameKind::HealthReply => {
                let snapshots = payload
                    .get("replicas")
                    .and_then(Json::as_array)
                    .map_err(protocol)?
                    .iter()
                    .map(json_health)
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(protocol)?;
                Ok(Response::Health(snapshots))
            }
            FrameKind::Error => Ok(Response::Error(json_error(payload))),
            other => Err(NetError::Protocol {
                message: format!("frame kind {:#04x} is not a response", other.as_u8()),
            }),
        }
    }
}

fn protocol(error: CodecError) -> NetError {
    NetError::Protocol {
        message: error.to_string(),
    }
}

fn u64_json(value: u64) -> Json {
    // Wire integers are i64; u64 values beyond that range do not occur
    // (versions and keys are small), but encode saturating rather than
    // wrapping so a pathological value stays obviously pathological.
    Json::Int(saturating_u64(value))
}

fn saturating_u64(value: u64) -> i64 {
    i64::try_from(value).unwrap_or(i64::MAX)
}

fn json_u64(value: &Json) -> Result<u64, CodecError> {
    unsigned(value.as_i64()?)
}

fn unsigned(raw: i64) -> Result<u64, CodecError> {
    u64::try_from(raw)
        .map_err(|_| CodecError::new(format!("expected unsigned integer, found {raw}")))
}

fn saturating_i64(value: usize) -> i64 {
    i64::try_from(value).unwrap_or(i64::MAX)
}

fn usize_json(value: usize) -> Json {
    Json::Int(saturating_i64(value))
}

fn floats_json(row: &[f64]) -> Json {
    Json::Array(row.iter().map(|&v| Json::Float(v)).collect())
}

fn label_str(label: Label) -> &'static str {
    match label {
        Label::Benign => "benign",
        Label::Malware => "malware",
    }
}

fn str_label(text: &str) -> Result<Label, CodecError> {
    match text {
        "benign" => Ok(Label::Benign),
        "malware" => Ok(Label::Malware),
        other => Err(CodecError::new(format!("unknown label {other:?}"))),
    }
}

/// Encodes one [`ShardedReport`] — floats with the codec's bit-exact
/// round-trip formatting.
fn report_json(report: &ShardedReport) -> Json {
    let prediction = &report.report.prediction;
    Json::object(vec![
        ("replica", usize_json(report.replica)),
        ("version", u64_json(report.version)),
        ("label", Json::Str(label_str(prediction.label).to_string())),
        (
            "vote_fraction",
            Json::Float(prediction.malware_vote_fraction),
        ),
        ("entropy", Json::Float(prediction.entropy)),
        ("estimators", usize_json(prediction.num_estimators)),
        (
            "decision",
            Json::Str(decision_str(report.report.decision).to_string()),
        ),
    ])
}

fn decision_str(decision: Decision) -> &'static str {
    match decision {
        Decision::Accept(Label::Benign) => "accept_benign",
        Decision::Accept(Label::Malware) => "accept_malware",
        Decision::Escalate => "escalate",
    }
}

/// Appends the payload of a `ScoreRowReply` for `report` — byte for byte
/// what [`report_json`] writes, through the same codec writers, without
/// building the tree.
pub(crate) fn write_report(report: &ShardedReport, out: &mut Vec<u8>) {
    let prediction = &report.report.prediction;
    out.extend_from_slice(b"{\"replica\":");
    write_int(saturating_i64(report.replica), out);
    out.extend_from_slice(b",\"version\":");
    write_int(saturating_u64(report.version), out);
    out.extend_from_slice(b",\"label\":");
    write_string(label_str(prediction.label), out);
    out.extend_from_slice(b",\"vote_fraction\":");
    write_f64(prediction.malware_vote_fraction, out);
    out.extend_from_slice(b",\"entropy\":");
    write_f64(prediction.entropy, out);
    out.extend_from_slice(b",\"estimators\":");
    write_int(saturating_i64(prediction.num_estimators), out);
    out.extend_from_slice(b",\"decision\":");
    write_string(decision_str(report.report.decision), out);
    out.push(b'}');
}

fn json_report(payload: &Json) -> Result<ShardedReport, CodecError> {
    let label = str_label(payload.get("label").and_then(Json::as_str)?)?;
    let decision = match payload.get("decision").and_then(Json::as_str)? {
        "accept_benign" => Decision::Accept(Label::Benign),
        "accept_malware" => Decision::Accept(Label::Malware),
        "escalate" => Decision::Escalate,
        other => return Err(CodecError::new(format!("unknown decision {other:?}"))),
    };
    Ok(ShardedReport {
        replica: payload.get("replica").and_then(Json::as_usize)?,
        version: payload.get("version").and_then(json_u64)?,
        report: DetectionReport {
            prediction: UncertainPrediction {
                label,
                malware_vote_fraction: payload.get("vote_fraction").and_then(Json::as_f64)?,
                entropy: payload.get("entropy").and_then(Json::as_f64)?,
                num_estimators: payload.get("estimators").and_then(Json::as_usize)?,
            },
            decision,
        },
    })
}

fn breaker_str(state: BreakerState) -> &'static str {
    match state {
        BreakerState::Closed => "closed",
        BreakerState::Open => "open",
        BreakerState::HalfOpen => "half_open",
    }
}

fn health_json(snapshot: &HealthSnapshot) -> Json {
    Json::object(vec![
        (
            "breaker",
            Json::Str(breaker_str(snapshot.breaker).to_string()),
        ),
        ("pending_rows", usize_json(snapshot.pending_rows)),
        ("shed_overload", u64_json(snapshot.shed_overload)),
        ("shed_circuit", u64_json(snapshot.shed_circuit)),
        ("degraded_rows", u64_json(snapshot.degraded_rows)),
        ("breaker_trips", u64_json(snapshot.breaker_trips)),
        ("expired_flushes", u64_json(snapshot.expired_flushes)),
    ])
}

fn json_health(payload: &Json) -> Result<HealthSnapshot, CodecError> {
    let breaker = match payload.get("breaker").and_then(Json::as_str)? {
        "closed" => BreakerState::Closed,
        "open" => BreakerState::Open,
        "half_open" => BreakerState::HalfOpen,
        other => return Err(CodecError::new(format!("unknown breaker state {other:?}"))),
    };
    Ok(HealthSnapshot {
        breaker,
        pending_rows: payload.get("pending_rows").and_then(Json::as_usize)?,
        shed_overload: payload.get("shed_overload").and_then(json_u64)?,
        shed_circuit: payload.get("shed_circuit").and_then(json_u64)?,
        degraded_rows: payload.get("degraded_rows").and_then(json_u64)?,
        breaker_trips: payload.get("breaker_trips").and_then(json_u64)?,
        expired_flushes: payload.get("expired_flushes").and_then(json_u64)?,
    })
}

/// Encodes an error frame payload: the stable `code`, a display `message`,
/// and per-code structured detail fields (see `PROTOCOL.md`).
pub(crate) fn error_json(error: &NetError) -> Json {
    let mut fields: Vec<(&str, Json)> = vec![
        ("code", Json::Int(i64::from(error.code().unwrap_or(0)))),
        ("message", Json::Str(error.to_string())),
    ];
    match error {
        NetError::Fleet(fleet) => match fleet {
            FleetError::UnknownEndpoint { name }
            | FleetError::NoPreviousVersion { name }
            | FleetError::NoShadow { name } => {
                fields.push(("name", Json::Str(name.clone())));
            }
            FleetError::WidthMismatch { expected, found } => {
                fields.push(("expected", usize_json(*expected)));
                fields.push(("found", usize_json(*found)));
            }
            FleetError::Detector { message } | FleetError::Replication { message } => {
                fields.push(("detail", Json::Str(message.clone())));
            }
            FleetError::Overloaded { depth, limit } => {
                fields.push(("depth", usize_json(*depth)));
                fields.push(("limit", usize_json(*limit)));
            }
            FleetError::DeadlineExceeded { timeout } => {
                fields.push((
                    "timeout_us",
                    u64_json(timeout.as_micros().min(u128::from(u64::MAX)) as u64),
                ));
            }
            FleetError::CircuitOpen => {} // `FleetError` is non_exhaustive *outside* this crate; inside
                                          // it, new variants must be handled here (and given a code).
        },
        NetError::FrameTooLarge { len, limit } => {
            fields.push(("len", usize_json(*len)));
            fields.push(("limit", usize_json(*limit)));
        }
        NetError::VersionMismatch { ours, theirs } => {
            fields.push(("ours", Json::Int(i64::from(*ours))));
            fields.push(("theirs", Json::Int(i64::from(*theirs))));
        }
        _ => {}
    }
    Json::object(fields)
}

/// Decodes an error frame payload into the richest [`NetError`] its code
/// allows. Total: malformed detail fields degrade to [`NetError::Remote`]
/// rather than failing, so an error frame is never itself an error.
pub(crate) fn json_error(payload: &Json) -> NetError {
    let code = payload
        .get("code")
        .and_then(Json::as_i64)
        .ok()
        .and_then(|raw| u16::try_from(raw).ok());
    let message = payload
        .get("message")
        .and_then(Json::as_str)
        .map(str::to_string)
        .unwrap_or_default();
    let remote = |message: String| NetError::Remote {
        code: code.unwrap_or(0),
        message,
    };
    let Some(code) = code else {
        return remote(message);
    };
    let name = || {
        payload
            .get("name")
            .and_then(Json::as_str)
            .map(str::to_string)
    };
    let detail = || {
        payload
            .get("detail")
            .and_then(Json::as_str)
            .map(str::to_string)
    };
    match code {
        1 => match name() {
            Ok(name) => NetError::Fleet(FleetError::UnknownEndpoint { name }),
            Err(_) => remote(message),
        },
        2 => match name() {
            Ok(name) => NetError::Fleet(FleetError::NoPreviousVersion { name }),
            Err(_) => remote(message),
        },
        3 => match (
            payload.get("expected").and_then(Json::as_usize),
            payload.get("found").and_then(Json::as_usize),
        ) {
            (Ok(expected), Ok(found)) => {
                NetError::Fleet(FleetError::WidthMismatch { expected, found })
            }
            _ => remote(message),
        },
        4 => match detail() {
            Ok(message) => NetError::Fleet(FleetError::Detector { message }),
            Err(_) => remote(message),
        },
        5 => match detail() {
            Ok(message) => NetError::Fleet(FleetError::Replication { message }),
            Err(_) => remote(message),
        },
        6 => match (
            payload.get("depth").and_then(Json::as_usize),
            payload.get("limit").and_then(Json::as_usize),
        ) {
            (Ok(depth), Ok(limit)) => NetError::Fleet(FleetError::Overloaded { depth, limit }),
            _ => remote(message),
        },
        7 => NetError::Fleet(FleetError::CircuitOpen),
        8 => match payload.get("timeout_us").and_then(json_u64) {
            Ok(us) => NetError::Fleet(FleetError::DeadlineExceeded {
                timeout: Duration::from_micros(us),
            }),
            Err(_) => remote(message),
        },
        9 => match name() {
            Ok(name) => NetError::Fleet(FleetError::NoShadow { name }),
            Err(_) => remote(message),
        },
        CODE_FRAME_TOO_LARGE => match (
            payload.get("len").and_then(Json::as_usize),
            payload.get("limit").and_then(Json::as_usize),
        ) {
            (Ok(len), Ok(limit)) => NetError::FrameTooLarge { len, limit },
            _ => remote(message),
        },
        CODE_VERSION_MISMATCH => match (
            payload.get("ours").and_then(Json::as_i64),
            payload.get("theirs").and_then(Json::as_i64),
        ) {
            // The peer's "ours" is our "theirs": flip perspective so the
            // decoded error reads correctly on this side of the link.
            (Ok(theirs), Ok(ours)) => NetError::VersionMismatch {
                ours: u8::try_from(ours).unwrap_or(PROTOCOL_VERSION),
                theirs: u8::try_from(theirs).unwrap_or_default(),
            },
            _ => remote(message),
        },
        CODE_PROTOCOL => NetError::Protocol { message },
        _ => remote(message),
    }
}

/// Encodes one complete frame for `payload` under `kind`.
pub(crate) fn frame_bytes(kind: FrameKind, payload: &Json) -> Result<Vec<u8>, NetError> {
    hmd_codec::frame::encode_frame(PROTOCOL_VERSION, kind.as_u8(), &payload.to_string()).map_err(
        |error| NetError::Protocol {
            message: error.to_string(),
        },
    )
}

/// Appends one complete frame to `out`: the header, then the payload
/// `write` appends. On error `out` is left as it was.
pub(crate) fn push_frame(
    out: &mut Vec<u8>,
    kind: FrameKind,
    write: impl FnOnce(&mut Vec<u8>),
) -> Result<(), NetError> {
    let start = out.len();
    out.extend_from_slice(&[0; HEADER_LEN]);
    write(out);
    let Ok(len) = u32::try_from(out.len() - start - HEADER_LEN) else {
        let len = out.len() - start - HEADER_LEN;
        out.truncate(start);
        return Err(NetError::Protocol {
            message: format!("frame payload of {len} bytes exceeds the u32 length field"),
        });
    };
    let header = FrameHeader {
        version: PROTOCOL_VERSION,
        kind: kind.as_u8(),
        len,
    };
    out[start..start + HEADER_LEN].copy_from_slice(&header.encode());
    Ok(())
}

/// Bytes one socket read asks for (unless the frame in progress needs
/// more): room for dozens of single-row frames, so a pipelined burst
/// costs one `recv`.
const READ_CHUNK: usize = 16 << 10;

/// One step of incremental frame reading.
#[derive(Debug)]
pub(crate) enum ReadStep<'a> {
    /// A complete frame: its header and payload bytes.
    Frame(FrameHeader, &'a [u8]),
    /// The read would block (timeout); partial state is preserved and the
    /// next [`FrameReader::poll`] resumes exactly where this one stopped.
    Pending,
    /// The peer closed the stream cleanly between frames or mid-frame.
    Eof,
}

/// What one socket read brought.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fill {
    /// Bytes arrived. `drained` when the read returned less than it asked
    /// for: the kernel held no more bytes at that moment.
    Data {
        /// The read came back short.
        drained: bool,
    },
    /// Nothing arrived before the socket's timeout, or it would block.
    Pending,
    /// The peer closed its sending side.
    Eof,
}

/// Incremental, bounded, read-ahead frame reader.
///
/// Both peers read through this. One read takes whatever the kernel holds,
/// up to [`READ_CHUNK`] bytes (or the rest of a larger frame in progress),
/// and every complete frame in the buffer is handed out before the next
/// read. A reader is only refilled once no complete frame is left, so it
/// buffers at most one chunk plus one `max_frame_bytes` frame. It survives
/// read timeouts without losing partial bytes — which is what lets the
/// server poll for new frames and drain pending responses on one thread —
/// and rejects oversized or desynchronised streams from the header alone,
/// before reserving any payload space.
pub(crate) struct FrameReader {
    max_frame_bytes: usize,
    /// `buf[start..end]` holds bytes read but not yet handed out; the rest
    /// is initialised room for the next read.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// The validated header of the frame at `start`, once its bytes are in.
    header: Option<FrameHeader>,
}

impl FrameReader {
    pub(crate) fn new(max_frame_bytes: usize) -> FrameReader {
        FrameReader {
            max_frame_bytes,
            buf: Vec::new(),
            start: 0,
            end: 0,
            header: None,
        }
    }

    /// The header of the frame at the front of the buffer, checked (magic,
    /// size limit) as soon as its bytes are in.
    fn header(&mut self) -> Result<Option<FrameHeader>, NetError> {
        if self.header.is_none() && self.end - self.start >= HEADER_LEN {
            let mut head = [0u8; HEADER_LEN];
            head.copy_from_slice(&self.buf[self.start..self.start + HEADER_LEN]);
            let header = FrameHeader::parse(&head).map_err(protocol)?;
            let len = header.len as usize;
            if len > self.max_frame_bytes {
                return Err(NetError::FrameTooLarge {
                    len,
                    limit: self.max_frame_bytes,
                });
            }
            self.header = Some(header);
        }
        Ok(self.header)
    }

    fn has_frame(&mut self) -> Result<bool, NetError> {
        Ok(self
            .header()?
            .is_some_and(|header| self.end - self.start >= HEADER_LEN + header.len as usize))
    }

    /// Hands out the next complete frame in the buffer, or `None` when the
    /// buffer holds less than one. No socket I/O.
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] on bad magic, [`NetError::FrameTooLarge`] if
    /// the announced payload exceeds the limit. Both poison the stream:
    /// the caller must close it.
    pub(crate) fn next_frame(&mut self) -> Result<Option<(FrameHeader, &[u8])>, NetError> {
        if !self.has_frame()? {
            return Ok(None);
        }
        let Some(header) = self.header else {
            return Ok(None);
        };
        let payload = self.start + HEADER_LEN..self.start + HEADER_LEN + header.len as usize;
        self.start = payload.end;
        self.header = None;
        Ok(Some((header, &self.buf[payload])))
    }

    /// One read from `stream` into the buffer. Call only once
    /// [`FrameReader::next_frame`] has returned `None`.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] on any socket error other than a timeout; the
    /// caller must close the stream.
    pub(crate) fn fill(&mut self, stream: &mut impl Read) -> Result<Fill, NetError> {
        // What is left is less than one frame, so this moves little.
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        let rest = self.header.map_or(0, |header| {
            (HEADER_LEN + header.len as usize).saturating_sub(self.end)
        });
        let want = READ_CHUNK.max(rest);
        if self.buf.len() < self.end + want {
            self.buf.resize(self.end + want, 0);
        }
        loop {
            match stream.read(&mut self.buf[self.end..self.end + want]) {
                Ok(0) => return Ok(Fill::Eof),
                Ok(n) => {
                    self.end += n;
                    return Ok(Fill::Data { drained: n < want });
                }
                Err(error)
                    if matches!(error.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
                {
                    return Ok(Fill::Pending)
                }
                Err(error) if error.kind() == ErrorKind::Interrupted => {}
                Err(error) => {
                    return Err(NetError::Io {
                        context: "read",
                        message: error.to_string(),
                    })
                }
            }
        }
    }

    /// Reads until one complete frame is available, the stream would
    /// block, or it ends.
    ///
    /// # Errors
    ///
    /// As [`FrameReader::next_frame`] and [`FrameReader::fill`]; every
    /// error poisons the stream.
    pub(crate) fn poll(&mut self, stream: &mut impl Read) -> Result<ReadStep<'_>, NetError> {
        while !self.has_frame()? {
            match self.fill(stream)? {
                Fill::Data { .. } => {}
                Fill::Pending => return Ok(ReadStep::Pending),
                Fill::Eof => return Ok(ReadStep::Eof),
            }
        }
        Ok(match self.next_frame()? {
            Some((header, payload)) => ReadStep::Frame(header, payload),
            None => ReadStep::Pending,
        })
    }
}

/// Parses a frame's payload bytes into a JSON document.
pub(crate) fn parse_payload(payload: &[u8]) -> Result<Json, NetError> {
    let text = std::str::from_utf8(payload).map_err(|error| NetError::Protocol {
        message: format!("frame payload is not UTF-8: {error}"),
    })?;
    Json::parse(text).map_err(protocol)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(entropy: f64) -> ShardedReport {
        ShardedReport {
            replica: 1,
            version: 3,
            report: DetectionReport {
                prediction: UncertainPrediction {
                    label: Label::Malware,
                    malware_vote_fraction: 2.0 / 3.0,
                    entropy,
                    num_estimators: 9,
                },
                decision: Decision::Escalate,
            },
        }
    }

    #[test]
    fn requests_round_trip_through_their_payloads() {
        let requests = vec![
            Request::ScoreRow {
                endpoint: "ep".into(),
                key: Some(42),
                row: vec![0.1, -2.5, f64::INFINITY],
            },
            Request::ScoreBatch {
                endpoint: "ep".into(),
                rows: vec![vec![1.0, 2.0], vec![3.0, 4.0]],
            },
            Request::Flush {
                endpoint: "ep".into(),
            },
            Request::Deploy {
                endpoint: "ep".into(),
                document: "{\"model\":true}".into(),
            },
            Request::Rollback {
                endpoint: "ep".into(),
            },
            Request::Health {
                endpoint: "ep".into(),
            },
        ];
        for request in requests {
            let payload = request.to_json().to_string();
            let back = Request::decode(request.kind(), payload.as_bytes()).unwrap();
            assert_eq!(back, request);
            assert!(request.kind().is_request());
        }
    }

    /// The tree decode `Request::decode` replaced, kept as its reference:
    /// parse the payload into a [`Json`] tree, then look fields up with
    /// [`Json::get`].
    fn tree_decode(kind: FrameKind, payload: &[u8]) -> Result<Request, NetError> {
        fn floats(value: &Json) -> Result<Vec<f64>, CodecError> {
            value.as_array()?.iter().map(Json::as_f64).collect()
        }
        let payload = parse_payload(payload)?;
        let endpoint = payload
            .get("endpoint")
            .and_then(Json::as_str)
            .map(str::to_string)
            .map_err(protocol)?;
        match kind {
            FrameKind::ScoreRow => {
                let key = match payload.get("key").map_err(protocol)? {
                    Json::Null => None,
                    value => Some(json_u64(value).map_err(protocol)?),
                };
                let row = floats(payload.get("row").map_err(protocol)?).map_err(protocol)?;
                Ok(Request::ScoreRow { endpoint, key, row })
            }
            FrameKind::ScoreBatch => {
                let rows = payload
                    .get("rows")
                    .and_then(Json::as_array)
                    .map_err(protocol)?
                    .iter()
                    .map(floats)
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(protocol)?;
                Ok(Request::ScoreBatch { endpoint, rows })
            }
            FrameKind::Flush => Ok(Request::Flush { endpoint }),
            FrameKind::Deploy => Ok(Request::Deploy {
                endpoint,
                document: payload
                    .get("document")
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .map_err(protocol)?,
            }),
            FrameKind::Rollback => Ok(Request::Rollback { endpoint }),
            FrameKind::Health => Ok(Request::Health { endpoint }),
            other => Err(NetError::Protocol {
                message: format!("frame kind {:#04x} is not a request", other.as_u8()),
            }),
        }
    }

    #[test]
    fn byte_decode_matches_the_tree_decode() {
        use FrameKind::{Deploy, Flush, Health, ScoreBatch, ScoreRow, ScoreRowReply};
        let cases: &[(FrameKind, &str)] = &[
            (
                ScoreRow,
                r#"{"endpoint":"ep","key":null,"row":[0.5,-1.25]}"#,
            ),
            (
                ScoreRow,
                " {\n \"endpoint\" : \"ep\" ,\t\"key\":7 , \"row\" : [ 1 , 2 ] }\r\n",
            ),
            (ScoreRow, r#"{"row":[3.5],"key":null,"endpoint":"ep"}"#),
            (
                ScoreRow,
                r#"{"trace":{"id":[1,{"a":null}]},"endpoint":"ep","x":"y","key":3,"row":[1e-300],"z":false}"#,
            ),
            (
                ScoreRow,
                r#"{"endpoint":"a","endpoint":"b","key":1,"key":"bad","row":[1],"row":"bad"}"#,
            ),
            (
                ScoreRow,
                r#"{"endpoint":"a","key":"bad","key":1,"row":[1]}"#,
            ),
            (
                ScoreRow,
                r#"{"endpoint":"e\u0070\n\"\\☂","key":null,"row":[]}"#,
            ),
            (ScoreRow, r#"{"end\u0070oint":"ep","key":null,"row":[1]}"#),
            (
                ScoreRow,
                r#"{"endpoint":"ep","key":null,"row":[1,-2,0,9007199254740993,99999999999999999999]}"#,
            ),
            (
                ScoreRow,
                r#"{"endpoint":"ep","key":null,"row":["NaN","inf","-inf",-0.0]}"#,
            ),
            (
                ScoreRow,
                r#"{"endpoint":"ep","key":9223372036854775807,"row":[1]}"#,
            ),
            (ScoreRow, r#"{"endpoint":"ep","key":-1,"row":[1]}"#),
            (ScoreRow, r#"{"endpoint":"ep","key":1.5,"row":[1]}"#),
            (ScoreRow, r#"{"endpoint":"ep","row":[1]}"#),
            (ScoreRow, r#"{"key":null,"row":[1]}"#),
            (ScoreRow, r#"{"endpoint":"ep","key":null}"#),
            (ScoreRow, r#"{"endpoint":5,"key":null,"row":[1]}"#),
            (ScoreRow, r#"{"endpoint":"ep","key":null,"row":["nan"]}"#),
            (ScoreRow, r#"{"endpoint":"ep","key":null,"row":[[1]]}"#),
            (ScoreRow, r#"{"endpoint":"ep","key":null,"row":[1,]}"#),
            (ScoreRow, r#"{"endpoint":"ep","key":null,"row":[1]} x"#),
            (ScoreRow, r#"{"endpoint":"ep","key":nul,"row":[1]}"#),
            (ScoreRow, r#"{"endpoint":"ep","key":null,"row":[1]"#),
            (ScoreRow, r#"["endpoint","ep"]"#),
            (ScoreRow, ""),
            (
                ScoreBatch,
                r#"{"endpoint":"ep","rows":[[1,2],[3,"inf"]],"rows":7}"#,
            ),
            (ScoreBatch, r#"{"rows":[],"endpoint":"ep"}"#),
            (ScoreBatch, r#"{"endpoint":"ep","rows":[1]}"#),
            (ScoreBatch, r#"{"endpoint":"ep"}"#),
            (Flush, r#"{"endpoint":"ep","rows":"ignored","document":[]}"#),
            (Flush, r#"{"endpoint":"ep","extra":[[[[]]]]}"#),
            (Flush, r#"{"endpoint":"ep","extra":[[[[]]]}"#),
            (Deploy, r#"{"document":"{\"model\":true}","endpoint":"ep"}"#),
            (Deploy, r#"{"endpoint":"ep"}"#),
            (Health, r#"{"endpoint":"ep","endpoint":7}"#),
            (ScoreRowReply, r#"{"endpoint":"ep"}"#),
        ];
        let deep = format!(
            r#"{{"endpoint":"ep","key":null,"row":[1],"x":{}{}}}"#,
            "[".repeat(200),
            "]".repeat(200)
        );
        let not_utf8 = b"{\"endpoint\":\"\xff\",\"key\":null,\"row\":[1]}".as_slice();
        let inputs = cases
            .iter()
            .map(|&(kind, text)| (kind, text.as_bytes()))
            .chain([(ScoreRow, deep.as_bytes()), (ScoreRow, not_utf8)]);
        for (kind, payload) in inputs {
            let text = String::from_utf8_lossy(payload);
            match (Request::decode(kind, payload), tree_decode(kind, payload)) {
                // Debug formatting compares floats bit for bit, NaN included.
                (Ok(direct), Ok(tree)) => {
                    assert_eq!(format!("{direct:?}"), format!("{tree:?}"), "{text}")
                }
                (Err(NetError::Protocol { .. }), Err(NetError::Protocol { .. })) => {}
                (direct, tree) => panic!("{text}: byte decode {direct:?}, tree decode {tree:?}"),
            }
        }
    }

    #[test]
    fn direct_reply_frames_match_the_tree_encoding_byte_for_byte() {
        let floats = [
            0.0,
            -0.0,
            2.0,
            1e-300,
            5e-324,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            2.0 / 3.0,
            0.9182958340544896,
        ];
        let decisions = [
            Decision::Accept(Label::Benign),
            Decision::Accept(Label::Malware),
            Decision::Escalate,
        ];
        let mut out = Vec::new();
        for (i, &label) in [Label::Benign, Label::Malware].iter().enumerate() {
            for &decision in &decisions {
                for (j, &vote_fraction) in floats.iter().enumerate() {
                    let entropy = floats[(j + 3) % floats.len()];
                    let report = ShardedReport {
                        replica: [0, usize::MAX][i],
                        version: [1, u64::MAX][i],
                        report: DetectionReport {
                            prediction: UncertainPrediction {
                                label,
                                malware_vote_fraction: vote_fraction,
                                entropy,
                                num_estimators: 25 + j,
                            },
                            decision,
                        },
                    };
                    let tree = frame_bytes(
                        FrameKind::ScoreRowReply,
                        &Response::ScoreRow(report).to_json(),
                    )
                    .unwrap();
                    let start = out.len();
                    push_frame(&mut out, FrameKind::ScoreRowReply, |out| {
                        write_report(&report, out)
                    })
                    .unwrap();
                    assert_eq!(
                        String::from_utf8_lossy(&out[start..]),
                        String::from_utf8_lossy(&tree)
                    );
                    assert_eq!(&out[start..], &tree[..]);
                }
            }
        }
    }

    #[test]
    fn reports_cross_the_wire_bit_identical() {
        for entropy in [0.9182958340544896, f64::INFINITY, 0.0] {
            let original = report(entropy);
            let response = Response::ScoreRow(original);
            let json = Json::parse(&response.to_json().to_string()).unwrap();
            let Response::ScoreRow(back) = Response::from_wire(response.kind(), &json).unwrap()
            else {
                panic!("wrong response kind");
            };
            assert_eq!(
                back.report.prediction.entropy.to_bits(),
                original.report.prediction.entropy.to_bits()
            );
            assert_eq!(
                back.report.prediction.malware_vote_fraction.to_bits(),
                original.report.prediction.malware_vote_fraction.to_bits()
            );
            assert_eq!(back, original);
        }
    }

    #[test]
    fn every_fleet_error_survives_the_error_frame_round_trip() {
        let errors = vec![
            FleetError::UnknownEndpoint { name: "ep".into() },
            FleetError::NoPreviousVersion { name: "ep".into() },
            FleetError::WidthMismatch {
                expected: 2,
                found: 5,
            },
            FleetError::Detector {
                message: "bad batch".into(),
            },
            FleetError::Replication {
                message: "bad clone".into(),
            },
            FleetError::Overloaded {
                depth: 64,
                limit: 64,
            },
            FleetError::CircuitOpen,
            FleetError::DeadlineExceeded {
                timeout: Duration::from_millis(250),
            },
            FleetError::NoShadow { name: "ep".into() },
        ];
        for error in errors {
            let net = NetError::Fleet(error.clone());
            let json = Json::parse(&error_json(&net).to_string()).unwrap();
            assert_eq!(json_error(&json), net, "code {}", error.code());
        }
    }

    #[test]
    fn transport_errors_survive_the_error_frame_round_trip() {
        let too_large = NetError::FrameTooLarge {
            len: 5_000_000,
            limit: 4 << 20,
        };
        let json = Json::parse(&error_json(&too_large).to_string()).unwrap();
        assert_eq!(json_error(&json), too_large);

        let mismatch = NetError::VersionMismatch { ours: 1, theirs: 9 };
        let json = Json::parse(&error_json(&mismatch).to_string()).unwrap();
        // Perspective flips across the link: the receiver's `theirs` is the
        // sender's `ours`.
        assert_eq!(
            json_error(&json),
            NetError::VersionMismatch { ours: 9, theirs: 1 }
        );
    }

    #[test]
    fn unknown_codes_degrade_to_remote() {
        let payload = Json::object(vec![
            ("code", Json::Int(9999)),
            ("message", Json::Str("from the future".into())),
        ]);
        assert_eq!(
            json_error(&payload),
            NetError::Remote {
                code: 9999,
                message: "from the future".into()
            }
        );
    }

    #[test]
    fn frame_kinds_round_trip_and_unknowns_are_refused() {
        for byte in 0x01..=0x06u8 {
            let kind = FrameKind::from_u8(byte).unwrap();
            assert_eq!(kind.as_u8(), byte);
            assert!(kind.is_request());
            let reply = FrameKind::from_u8(byte | 0x80).unwrap();
            assert!(!reply.is_request());
        }
        assert_eq!(FrameKind::from_u8(0xFF), Some(FrameKind::Error));
        assert_eq!(FrameKind::from_u8(0x07), None);
        assert_eq!(FrameKind::from_u8(0x00), None);
    }

    #[test]
    fn frame_reader_resumes_across_split_deliveries() {
        let frame = frame_bytes(
            FrameKind::Flush,
            &Request::Flush {
                endpoint: "ep".into(),
            }
            .to_json(),
        )
        .unwrap();
        // Deliver the frame one byte at a time through a reader that sees
        // WouldBlock between bytes.
        struct Trickle {
            bytes: Vec<u8>,
            pos: usize,
            parched: bool,
        }
        impl Read for Trickle {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.parched {
                    self.parched = false;
                    return Err(std::io::Error::from(ErrorKind::WouldBlock));
                }
                self.parched = true;
                match self.bytes.get(self.pos) {
                    Some(&b) if !buf.is_empty() => {
                        buf[0] = b;
                        self.pos += 1;
                        Ok(1)
                    }
                    _ => Ok(0),
                }
            }
        }
        let mut stream = Trickle {
            bytes: frame.clone(),
            pos: 0,
            parched: false,
        };
        let mut reader = FrameReader::new(DEFAULT_MAX_FRAME_BYTES);
        let mut pendings = 0;
        loop {
            match reader.poll(&mut stream).unwrap() {
                ReadStep::Pending => pendings += 1,
                ReadStep::Frame(header, payload) => {
                    assert_eq!(header.kind, FrameKind::Flush.as_u8());
                    assert_eq!(payload.len() + HEADER_LEN, frame.len());
                    break;
                }
                ReadStep::Eof => panic!("frame should complete before EOF"),
            }
        }
        assert!(pendings >= frame.len() - 1, "state survives every timeout");
    }

    #[test]
    fn one_read_serves_every_buffered_frame() {
        struct Counting<'a> {
            bytes: &'a [u8],
            reads: usize,
        }
        impl Read for Counting<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                self.reads += 1;
                self.bytes.read(buf)
            }
        }
        let mut burst = Vec::new();
        for row in 0..40 {
            let request = Request::ScoreRow {
                endpoint: "ep".into(),
                key: Some(row),
                row: vec![row as f64; 8],
            };
            burst.extend(frame_bytes(request.kind(), &request.to_json()).unwrap());
        }
        // A frame larger than one chunk follows: it is read in one go too.
        let big = Request::Deploy {
            endpoint: "ep".into(),
            document: "d".repeat(3 * READ_CHUNK),
        };
        burst.extend(frame_bytes(big.kind(), &big.to_json()).unwrap());
        let mut stream = Counting {
            bytes: &burst,
            reads: 0,
        };
        let mut reader = FrameReader::new(DEFAULT_MAX_FRAME_BYTES);
        let mut rows = 0;
        while let ReadStep::Frame(header, payload) = reader.poll(&mut stream).unwrap() {
            if header.kind == FrameKind::ScoreRow.as_u8() {
                let request = Request::decode(FrameKind::ScoreRow, payload).unwrap();
                assert!(matches!(request, Request::ScoreRow { key: Some(k), .. } if k == rows));
                rows += 1;
                assert_eq!(stream.reads, 1, "frame {rows} came from the first read");
            } else {
                assert_eq!(header.kind, FrameKind::Deploy.as_u8());
                assert_eq!(payload, big.to_json().to_string().as_bytes());
                break;
            }
        }
        assert_eq!(rows, 40);
        assert_eq!(
            stream.reads, 2,
            "one read for the burst, one for the big frame's rest"
        );
        assert!(reader.buf.len() <= READ_CHUNK + HEADER_LEN + DEFAULT_MAX_FRAME_BYTES);
    }

    #[test]
    fn oversized_frames_are_refused_before_allocation() {
        let mut header = FrameHeader {
            version: PROTOCOL_VERSION,
            kind: FrameKind::ScoreRow.as_u8(),
            len: 1 << 30,
        }
        .encode()
        .to_vec();
        header.extend_from_slice(&[0u8; 16]);
        let mut reader = FrameReader::new(1024);
        let err = reader.poll(&mut header.as_slice()).unwrap_err();
        assert!(reader.buf.len() <= READ_CHUNK, "no payload space reserved");
        assert!(matches!(
            err,
            NetError::FrameTooLarge {
                len,
                limit: 1024
            } if len == 1 << 30
        ));
    }

    #[test]
    fn garbage_magic_is_a_protocol_error() {
        let garbage = [0x58u8, 0x58, 1, 1, 0, 0, 0, 0];
        let mut reader = FrameReader::new(1024);
        let err = reader.poll(&mut garbage.as_slice()).unwrap_err();
        assert!(matches!(err, NetError::Protocol { .. }), "{err}");
    }
}
