//! The `ddws.wire` protocol: versioned, length-prefixed JSON frames.
//!
//! Every message is one *frame*: a 4-byte big-endian payload length
//! followed by a canonical-JSON payload (the same order-preserving,
//! exact-integer conventions as the `ddws.run-report` schema — both sides
//! of the wire use [`ddws_telemetry::Json`], so a message has exactly one
//! byte representation). The payload is an *envelope*:
//!
//! ```json
//! {"schema": "ddws.wire", "version": 3, "id": 7, "type": "submit_job", ...}
//! ```
//!
//! * `schema` — always `"ddws.wire"`.
//! * `version` — the protocol version. Encoders write [`WIRE_VERSION`] and
//!   decoders accept it alone: any other version is rejected with
//!   [`ErrorCode::UnsupportedVersion`]. Both ends of the protocol live in
//!   this workspace, so a version bump changes them together. (Version 2
//!   added the `stream_telemetry`/`telemetry` messages and the `options`
//!   object of `submit_job`; version 3 the `submit_token` field of
//!   `submit_job`, the `retry_after_ns` field of `error` envelopes and the
//!   codes `job_poisoned` / `result_evicted`.)
//! * `id` — a client-chosen correlation id, echoed on the response.
//! * `type` — the message type; remaining keys are the message body.
//!
//! Decoding is total: truncated, oversized, or garbage input yields a
//! typed [`WireError`] from the [`ErrorCode`] registry — never a panic.
//! Embedded run reports and progress snapshots decode straight from the
//! parsed envelope through their `ddws-telemetry` codecs.

use crate::queue::JobState;
use ddws_telemetry::{Json, Progress, RunReport};
use ddws_testkit::compgen::{AuditorSpec, CaseSpec, ChanSpec};

/// The envelope's `schema` value.
pub const WIRE_SCHEMA: &str = "ddws.wire";
/// The protocol version every encoder writes and every decoder accepts.
pub const WIRE_VERSION: u64 = 3;
/// Hard cap on a frame's payload length; longer frames are rejected with
/// [`ErrorCode::FrameTooLarge`] *before* any allocation.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// The error-code registry. Codes are stable wire constants: 1xx are
/// frame/envelope errors, 2xx service errors, 3xx internal errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The buffer ends before the length header or the announced payload.
    TruncatedFrame,
    /// The announced payload length exceeds [`MAX_FRAME_LEN`].
    FrameTooLarge,
    /// The payload is not canonical JSON or not a `ddws.wire` envelope.
    MalformedFrame,
    /// The envelope's `version` is not [`WIRE_VERSION`].
    UnsupportedVersion,
    /// The envelope's `type` names no message of the protocol.
    UnknownRequest,
    /// The message body is missing or mistypes a field.
    InvalidRequest,
    /// An `error` envelope carried a code outside the registry. Produced
    /// by *decoders* only — a frame with an unregistered code still
    /// parses into this typed error rather than failing, so a newer
    /// peer's codes degrade gracefully instead of breaking the session.
    UnknownErrorCode,
    /// Admission control: the job queue is at capacity.
    QueueFull,
    /// No job with the given id.
    UnknownJob,
    /// `fetch_result` on a job that has not reached a terminal state.
    JobNotTerminal,
    /// `cancel_job` on a job already in a terminal state.
    JobTerminal,
    /// The submitted `CaseSpec` does not build a well-formed composition.
    SpecInvalid,
    /// `submit_job` named a scenario the server does not know.
    UnknownScenario,
    /// The job crashed its slice too many times and was quarantined by
    /// the supervisor (see `crate::supervisor`); terminal.
    JobPoisoned,
    /// `fetch_result` on a job whose result the retention store already
    /// evicted (TTL or LRU); terminal, the verdict is gone.
    ResultEvicted,
    /// The service failed internally (worker panic, unparseable property).
    Internal,
}

/// Every registered error code, for exhaustive tests and docs.
pub const ERROR_CODES: &[ErrorCode] = &[
    ErrorCode::TruncatedFrame,
    ErrorCode::FrameTooLarge,
    ErrorCode::MalformedFrame,
    ErrorCode::UnsupportedVersion,
    ErrorCode::UnknownRequest,
    ErrorCode::InvalidRequest,
    ErrorCode::UnknownErrorCode,
    ErrorCode::QueueFull,
    ErrorCode::UnknownJob,
    ErrorCode::JobNotTerminal,
    ErrorCode::JobTerminal,
    ErrorCode::SpecInvalid,
    ErrorCode::UnknownScenario,
    ErrorCode::JobPoisoned,
    ErrorCode::ResultEvicted,
    ErrorCode::Internal,
];

impl ErrorCode {
    /// The numeric wire constant.
    pub fn code(self) -> u64 {
        match self {
            ErrorCode::TruncatedFrame => 100,
            ErrorCode::FrameTooLarge => 101,
            ErrorCode::MalformedFrame => 102,
            ErrorCode::UnsupportedVersion => 103,
            ErrorCode::UnknownRequest => 104,
            ErrorCode::InvalidRequest => 105,
            ErrorCode::UnknownErrorCode => 106,
            ErrorCode::QueueFull => 200,
            ErrorCode::UnknownJob => 201,
            ErrorCode::JobNotTerminal => 202,
            ErrorCode::JobTerminal => 203,
            ErrorCode::SpecInvalid => 204,
            ErrorCode::UnknownScenario => 205,
            ErrorCode::JobPoisoned => 206,
            ErrorCode::ResultEvicted => 207,
            ErrorCode::Internal => 300,
        }
    }

    /// The stable snake_case name.
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::TruncatedFrame => "truncated_frame",
            ErrorCode::FrameTooLarge => "frame_too_large",
            ErrorCode::MalformedFrame => "malformed_frame",
            ErrorCode::UnsupportedVersion => "unsupported_version",
            ErrorCode::UnknownRequest => "unknown_request",
            ErrorCode::InvalidRequest => "invalid_request",
            ErrorCode::UnknownErrorCode => "unknown_error_code",
            ErrorCode::QueueFull => "queue_full",
            ErrorCode::UnknownJob => "unknown_job",
            ErrorCode::JobNotTerminal => "job_not_terminal",
            ErrorCode::JobTerminal => "job_terminal",
            ErrorCode::SpecInvalid => "spec_invalid",
            ErrorCode::UnknownScenario => "unknown_scenario",
            ErrorCode::JobPoisoned => "job_poisoned",
            ErrorCode::ResultEvicted => "result_evicted",
            ErrorCode::Internal => "internal",
        }
    }

    /// Looks a code up in the registry.
    pub fn from_code(code: u64) -> Option<ErrorCode> {
        ERROR_CODES.iter().copied().find(|c| c.code() == code)
    }
}

/// A typed wire/service error: a registry code plus a human message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// The registry code.
    pub code: ErrorCode,
    /// Diagnostic detail (not part of the protocol contract).
    pub message: String,
    /// Back-pressure hint: how long the client should wait before
    /// retrying, in nanoseconds. Set on `queue_full`
    /// rejections from the server's observed slice throughput; absent
    /// everywhere else.
    pub retry_after_ns: Option<u64>,
}

impl WireError {
    /// An error with the given code and message.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> WireError {
        WireError {
            code,
            message: message.into(),
            retry_after_ns: None,
        }
    }

    /// Attaches a `retry_after_ns` back-pressure hint.
    pub fn with_retry_after(mut self, ns: u64) -> WireError {
        self.retry_after_ns = Some(ns);
        self
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({}): {}",
            self.code.name(),
            self.code.code(),
            self.message
        )
    }
}

/// The `VerifyOptions` subset a client may set per job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobOptions {
    /// State budget with `VerifyOptions::max_states` semantics (a cap
    /// per universal-closure valuation): the sliced job ends
    /// `budget_exceeded` exactly when a direct one-shot check under
    /// this cap would.
    pub budget: u64,
    /// Fresh-value budget forwarded to `VerifyOptions::fresh_values`.
    pub fresh_values: Option<usize>,
    /// Valuation-shard count forwarded to
    /// `VerifyOptions::valuation_threads`.
    pub valuation_threads: Option<usize>,
}

impl Default for JobOptions {
    fn default() -> JobOptions {
        JobOptions {
            budget: 200_000,
            fresh_values: Some(1),
            valuation_threads: None,
        }
    }
}

/// What a job verifies: an inline compgen spec or a named scenario from
/// the server's registry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobSpec {
    /// A structured composition description, built server-side.
    Spec(CaseSpec),
    /// A scenario name resolved by [`crate::service::scenario`].
    Scenario(String),
}

/// A client request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Submit a job for verification.
    SubmitJob {
        /// What to verify.
        spec: JobSpec,
        /// Per-job limits.
        options: JobOptions,
        /// Client-chosen idempotency key. Two
        /// `submit_job` frames with the same token within the server's
        /// dedup window enqueue **one** job and answer the same id, so
        /// a client retrying a lost ack cannot double-submit.
        submit_token: Option<u64>,
    },
    /// Poll a job's scheduling state.
    JobStatus {
        /// The job id from `accepted`.
        job: u64,
    },
    /// Cancel a queued, parked, or running job.
    CancelJob {
        /// The job id from `accepted`.
        job: u64,
    },
    /// Fetch the final verdict and run report of a terminal job.
    FetchResult {
        /// The job id from `accepted`.
        job: u64,
    },
    /// Drain the job's telemetry stream (progress snapshots and per-slice
    /// run reports emitted since the last drain).
    StreamTelemetry {
        /// The job id from `accepted`.
        job: u64,
    },
}

/// One entry of a `status` or `result` body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSnapshot {
    /// The job id.
    pub job: u64,
    /// Scheduling state.
    pub state: JobState,
    /// Quanta executed so far.
    pub slices: u64,
    /// Cumulative visited states.
    pub states_visited: u64,
}

/// A violation digest: enough of the counterexample to compare against an
/// oracle without shipping whole relational instances.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CexDigest {
    /// The universal-closure valuation, as external constant names in
    /// variable order.
    pub values: Vec<String>,
    /// Length of the lasso prefix.
    pub prefix_len: u64,
    /// Length of the repeating cycle.
    pub cycle_len: u64,
}

/// A server response.
///
/// `Result` dominates the enum's size (an embedded `RunReport`); wire
/// responses are built once and serialized, never stored in bulk, so
/// the indirection a box would buy is not worth the API noise.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum Response {
    /// The job was admitted.
    Accepted {
        /// The assigned job id.
        job: u64,
    },
    /// A `job_status` answer.
    Status(JobSnapshot),
    /// The cancel was recorded; the job will not produce a verdict.
    Cancelled {
        /// The cancelled job id.
        job: u64,
    },
    /// A `fetch_result` answer for a terminal job.
    Result {
        /// Scheduling state at completion.
        snapshot: JobSnapshot,
        /// Verdict label: `"holds"`, `"violated"`, `"cancelled"`,
        /// `"budget_exceeded"`, or `"failed"`.
        verdict: String,
        /// The final slice's run report, when one exists.
        report: Option<RunReport>,
        /// Digest of the counterexample on `"violated"`.
        counterexample: Option<CexDigest>,
    },
    /// A `stream_telemetry` answer.
    Telemetry {
        /// The job id.
        job: u64,
        /// Progress snapshots since the last drain.
        snapshots: Vec<Progress>,
        /// Per-slice run reports since the last drain.
        reports: Vec<RunReport>,
    },
    /// Any failure, with a registry code.
    Error(WireError),
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Wraps a payload in a length-prefixed frame.
///
/// Panics if the payload exceeds [`MAX_FRAME_LEN`] — encoders control
/// their payloads; only *decoders* must be total.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    assert!(payload.len() <= MAX_FRAME_LEN, "frame payload too large");
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
    out
}

/// Splits one frame off the front of `buf`, returning the payload and the
/// total bytes consumed. Total: truncated and oversized input yield typed
/// errors.
pub fn deframe(buf: &[u8]) -> Result<(&[u8], usize), WireError> {
    if buf.len() < 4 {
        return Err(WireError::new(
            ErrorCode::TruncatedFrame,
            format!("{} bytes is shorter than the length header", buf.len()),
        ));
    }
    let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len > MAX_FRAME_LEN {
        return Err(WireError::new(
            ErrorCode::FrameTooLarge,
            format!("announced payload of {len} bytes exceeds the {MAX_FRAME_LEN}-byte cap"),
        ));
    }
    if buf.len() < 4 + len {
        return Err(WireError::new(
            ErrorCode::TruncatedFrame,
            format!(
                "announced payload of {len} bytes, {} available",
                buf.len() - 4
            ),
        ));
    }
    Ok((&buf[4..4 + len], 4 + len))
}

// ---------------------------------------------------------------------
// JSON helpers
// ---------------------------------------------------------------------

fn s(v: impl Into<String>) -> Json {
    Json::Str(v.into())
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Object(body(fields))
}

fn invalid(msg: impl Into<String>) -> WireError {
    WireError::new(ErrorCode::InvalidRequest, msg)
}

fn get_u64(v: &Json, key: &str) -> Result<u64, WireError> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| invalid(format!("missing or non-integer `{key}`")))
}

fn get_usize(v: &Json, key: &str) -> Result<usize, WireError> {
    let n = get_u64(v, key)?;
    usize::try_from(n).map_err(|_| invalid(format!("`{key}` out of range")))
}

fn get_str<'a>(v: &'a Json, key: &str) -> Result<&'a str, WireError> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| invalid(format!("missing or non-string `{key}`")))
}

fn get_bool(v: &Json, key: &str) -> Result<bool, WireError> {
    v.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| invalid(format!("missing or non-boolean `{key}`")))
}

fn get_array<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], WireError> {
    match v.get(key) {
        Some(Json::Array(items)) => Ok(items),
        _ => Err(invalid(format!("missing or non-array `{key}`"))),
    }
}

/// `None` when the key is absent or `null`; otherwise the integer.
fn opt_u64(v: &Json, key: &str) -> Result<Option<u64>, WireError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(j) => j
            .as_u64()
            .map(Some)
            .ok_or_else(|| invalid(format!("non-integer `{key}`"))),
    }
}

/// `None` when the key is absent or `null`; otherwise the integer.
fn opt_usize(v: &Json, key: &str) -> Result<Option<usize>, WireError> {
    opt_u64(v, key)?
        .map(|n| usize::try_from(n).map_err(|_| invalid(format!("`{key}` out of range"))))
        .transpose()
}

fn opt_u64_json(v: Option<usize>) -> Json {
    match v {
        Some(n) => Json::UInt(n as u64),
        None => Json::Null,
    }
}

// ---------------------------------------------------------------------
// CaseSpec (de)serialization
// ---------------------------------------------------------------------

fn case_spec_json(spec: &CaseSpec) -> Json {
    obj(vec![
        ("queue_bound", Json::UInt(spec.queue_bound as u64)),
        (
            "relays",
            Json::Array(spec.relays.iter().map(|&r| Json::UInt(r as u64)).collect()),
        ),
        (
            "chans",
            Json::Array(
                spec.chans
                    .iter()
                    .map(|c| {
                        obj(vec![
                            ("index", Json::UInt(c.index as u64)),
                            ("arity", Json::UInt(c.arity as u64)),
                            ("sender", Json::UInt(c.sender as u64)),
                            ("receiver", Json::UInt(c.receiver as u64)),
                            ("send_rule", Json::Bool(c.send_rule)),
                            ("receive_rule", Json::Bool(c.receive_rule)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "auditor",
            match &spec.auditor {
                None => Json::Null,
                Some(a) => obj(vec![
                    ("ring", Json::UInt(a.ring as u64)),
                    (
                        "arms",
                        Json::Array(a.arms.iter().map(|&x| Json::UInt(x as u64)).collect()),
                    ),
                    ("delete_rule", Json::Bool(a.delete_rule)),
                ]),
            },
        ),
        (
            "db_rows",
            Json::Array(
                spec.db_rows
                    .iter()
                    .map(|&(r, name)| Json::Array(vec![Json::UInt(r as u64), s(name)]))
                    .collect(),
            ),
        ),
        ("property", s(spec.property.clone())),
    ])
}

/// The database constants `CaseSpec` may carry. The generator only draws
/// these, and the wire decoder needs `&'static str` back — so the
/// vocabulary is closed by construction.
const DB_CONSTANTS: &[&str] = &["a", "b"];

fn case_spec_from_json(v: &Json) -> Result<CaseSpec, WireError> {
    let relays = get_array(v, "relays")?
        .iter()
        .map(|j| {
            j.as_u64()
                .and_then(|n| usize::try_from(n).ok())
                .ok_or_else(|| invalid("non-integer relay id"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let chans = get_array(v, "chans")?
        .iter()
        .map(|c| {
            Ok(ChanSpec {
                index: get_usize(c, "index")?,
                arity: get_usize(c, "arity")?,
                sender: get_usize(c, "sender")?,
                receiver: get_usize(c, "receiver")?,
                send_rule: get_bool(c, "send_rule")?,
                receive_rule: get_bool(c, "receive_rule")?,
            })
        })
        .collect::<Result<Vec<_>, WireError>>()?;
    let auditor = match v.get("auditor") {
        None | Some(Json::Null) => None,
        Some(a) => Some(AuditorSpec {
            ring: get_usize(a, "ring")?,
            arms: get_array(a, "arms")?
                .iter()
                .map(|j| {
                    j.as_u64()
                        .and_then(|n| usize::try_from(n).ok())
                        .ok_or_else(|| invalid("non-integer auditor arm"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            delete_rule: get_bool(a, "delete_rule")?,
        }),
    };
    let db_rows = get_array(v, "db_rows")?
        .iter()
        .map(|row| match row {
            Json::Array(pair) if pair.len() == 2 => {
                let relay = pair[0]
                    .as_u64()
                    .and_then(|n| usize::try_from(n).ok())
                    .ok_or_else(|| invalid("non-integer db-row relay"))?;
                let name = pair[1]
                    .as_str()
                    .ok_or_else(|| invalid("non-string db-row constant"))?;
                let name = DB_CONSTANTS
                    .iter()
                    .copied()
                    .find(|&c| c == name)
                    .ok_or_else(|| {
                        WireError::new(
                            ErrorCode::SpecInvalid,
                            format!("unknown db constant {name:?} (registry: {DB_CONSTANTS:?})"),
                        )
                    })?;
                Ok((relay, name))
            }
            _ => Err(invalid("db_rows entries are [relay, constant] pairs")),
        })
        .collect::<Result<Vec<_>, WireError>>()?;
    Ok(CaseSpec {
        queue_bound: get_usize(v, "queue_bound")?,
        relays,
        chans,
        auditor,
        db_rows,
        property: get_str(v, "property")?.to_string(),
    })
}

// ---------------------------------------------------------------------
// Telemetry, counterexample and snapshot (de)serialization
// ---------------------------------------------------------------------

fn progress_from_json(v: &Json) -> Result<Progress, WireError> {
    Progress::from_json_value(v).map_err(|e| invalid(format!("progress snapshot: {e}")))
}

fn report_from_json(v: &Json) -> Result<RunReport, WireError> {
    RunReport::from_json_value(v).map_err(|e| invalid(format!("embedded run report: {e}")))
}

fn cex_json(d: &CexDigest) -> Json {
    obj(vec![
        (
            "values",
            Json::Array(d.values.iter().map(|v| s(v.clone())).collect()),
        ),
        ("prefix_len", Json::UInt(d.prefix_len)),
        ("cycle_len", Json::UInt(d.cycle_len)),
    ])
}

fn cex_from_json(v: &Json) -> Result<CexDigest, WireError> {
    Ok(CexDigest {
        values: get_array(v, "values")?
            .iter()
            .map(|j| {
                j.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| invalid("non-string counterexample value"))
            })
            .collect::<Result<Vec<_>, _>>()?,
        prefix_len: get_u64(v, "prefix_len")?,
        cycle_len: get_u64(v, "cycle_len")?,
    })
}

fn snapshot_fields(sn: &JobSnapshot) -> Vec<(&'static str, Json)> {
    vec![
        ("job", Json::UInt(sn.job)),
        ("state", s(sn.state.as_str())),
        ("slices", Json::UInt(sn.slices)),
        ("states_visited", Json::UInt(sn.states_visited)),
    ]
}

fn snapshot_from_json(v: &Json) -> Result<JobSnapshot, WireError> {
    let state = get_str(v, "state")?;
    Ok(JobSnapshot {
        job: get_u64(v, "job")?,
        state: JobState::parse(state)
            .ok_or_else(|| invalid(format!("unknown job state {state:?}")))?,
        slices: get_u64(v, "slices")?,
        states_visited: get_u64(v, "states_visited")?,
    })
}

// ---------------------------------------------------------------------
// Envelopes
// ---------------------------------------------------------------------

fn envelope(id: u64, typ: &str, mut body: Vec<(String, Json)>) -> Json {
    let mut fields = vec![
        ("schema".to_string(), s(WIRE_SCHEMA)),
        ("version".to_string(), Json::UInt(WIRE_VERSION)),
        ("id".to_string(), Json::UInt(id)),
        ("type".to_string(), s(typ)),
    ];
    fields.append(&mut body);
    Json::Object(fields)
}

fn body(fields: Vec<(&str, Json)>) -> Vec<(String, Json)> {
    fields
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

/// Encodes a request at [`WIRE_VERSION`].
pub fn encode_request(id: u64, req: &Request) -> Vec<u8> {
    let json = match req {
        Request::SubmitJob {
            spec,
            options,
            submit_token,
        } => {
            let mut fields = match spec {
                JobSpec::Spec(cs) => body(vec![("spec", case_spec_json(cs))]),
                JobSpec::Scenario(name) => body(vec![("scenario", s(name.clone()))]),
            };
            fields.extend(body(vec![
                (
                    "options",
                    obj(vec![
                        ("budget", Json::UInt(options.budget)),
                        ("fresh_values", opt_u64_json(options.fresh_values)),
                        ("valuation_threads", opt_u64_json(options.valuation_threads)),
                    ]),
                ),
                ("submit_token", submit_token.map_or(Json::Null, Json::UInt)),
            ]));
            envelope(id, "submit_job", fields)
        }
        Request::JobStatus { job } => {
            envelope(id, "job_status", body(vec![("job", Json::UInt(*job))]))
        }
        Request::CancelJob { job } => {
            envelope(id, "cancel_job", body(vec![("job", Json::UInt(*job))]))
        }
        Request::FetchResult { job } => {
            envelope(id, "fetch_result", body(vec![("job", Json::UInt(*job))]))
        }
        Request::StreamTelemetry { job } => envelope(
            id,
            "stream_telemetry",
            body(vec![("job", Json::UInt(*job))]),
        ),
    };
    frame(json.to_string().as_bytes())
}

/// Encodes a response at [`WIRE_VERSION`].
pub fn encode_response(id: u64, resp: &Response) -> Vec<u8> {
    let json = match resp {
        Response::Accepted { job } => {
            envelope(id, "accepted", body(vec![("job", Json::UInt(*job))]))
        }
        Response::Status(sn) => envelope(id, "status", body(snapshot_fields(sn))),
        Response::Cancelled { job } => {
            envelope(id, "cancelled", body(vec![("job", Json::UInt(*job))]))
        }
        Response::Result {
            snapshot,
            verdict,
            report,
            counterexample,
        } => {
            let mut fields = snapshot_fields(snapshot);
            fields.push(("verdict", s(verdict.clone())));
            fields.push((
                "report",
                report.as_ref().map_or(Json::Null, RunReport::to_json_value),
            ));
            fields.push((
                "counterexample",
                counterexample.as_ref().map_or(Json::Null, cex_json),
            ));
            envelope(id, "result", body(fields))
        }
        Response::Telemetry {
            job,
            snapshots,
            reports,
        } => envelope(
            id,
            "telemetry",
            body(vec![
                ("job", Json::UInt(*job)),
                (
                    "snapshots",
                    Json::Array(snapshots.iter().map(Progress::to_json_value).collect()),
                ),
                (
                    "reports",
                    Json::Array(reports.iter().map(RunReport::to_json_value).collect()),
                ),
            ]),
        ),
        Response::Error(err) => {
            let mut fields = vec![
                ("code", Json::UInt(err.code.code())),
                ("error", s(err.code.name())),
                ("message", s(err.message.clone())),
            ];
            if let Some(ns) = err.retry_after_ns {
                fields.push(("retry_after_ns", Json::UInt(ns)));
            }
            envelope(id, "error", body(fields))
        }
    };
    frame(json.to_string().as_bytes())
}

/// Splits one envelope off the front of `buf`: validates framing, JSON,
/// schema and version, and returns `(id, type, body, consumed)`.
fn decode_envelope(buf: &[u8]) -> Result<(u64, String, Json, usize), WireError> {
    let (payload, consumed) = deframe(buf)?;
    let text = std::str::from_utf8(payload)
        .map_err(|_| WireError::new(ErrorCode::MalformedFrame, "payload is not UTF-8"))?;
    let json = Json::parse(text)
        .map_err(|e| WireError::new(ErrorCode::MalformedFrame, format!("bad JSON: {e}")))?;
    if json.get("schema").and_then(Json::as_str) != Some(WIRE_SCHEMA) {
        return Err(WireError::new(
            ErrorCode::MalformedFrame,
            format!("missing or unexpected `schema` (want {WIRE_SCHEMA:?})"),
        ));
    }
    let version = json
        .get("version")
        .and_then(Json::as_u64)
        .ok_or_else(|| WireError::new(ErrorCode::MalformedFrame, "missing `version`"))?;
    if version != WIRE_VERSION {
        return Err(WireError::new(
            ErrorCode::UnsupportedVersion,
            format!("version {version} (this build speaks {WIRE_VERSION})"),
        ));
    }
    let id = json
        .get("id")
        .and_then(Json::as_u64)
        .ok_or_else(|| WireError::new(ErrorCode::MalformedFrame, "missing `id`"))?;
    let typ = json
        .get("type")
        .and_then(Json::as_str)
        .ok_or_else(|| WireError::new(ErrorCode::MalformedFrame, "missing `type`"))?
        .to_string();
    Ok((id, typ, json, consumed))
}

/// Decodes one request frame: `(id, request, bytes consumed)`.
pub fn decode_request(buf: &[u8]) -> Result<(u64, Request, usize), WireError> {
    let (id, typ, json, consumed) = decode_envelope(buf)?;
    let req = match typ.as_str() {
        "submit_job" => {
            let spec = match (json.get("spec"), json.get("scenario")) {
                (Some(sp), None) => JobSpec::Spec(case_spec_from_json(sp)?),
                (None, Some(Json::Str(name))) => JobSpec::Scenario(name.clone()),
                _ => {
                    return Err(invalid(
                        "submit_job carries exactly one of `spec` or `scenario`",
                    ))
                }
            };
            let o = json
                .get("options")
                .ok_or_else(|| invalid("missing `options`"))?;
            Request::SubmitJob {
                spec,
                options: JobOptions {
                    budget: get_u64(o, "budget")?,
                    fresh_values: opt_usize(o, "fresh_values")?,
                    valuation_threads: opt_usize(o, "valuation_threads")?,
                },
                submit_token: opt_u64(&json, "submit_token")?,
            }
        }
        "job_status" => Request::JobStatus {
            job: get_u64(&json, "job")?,
        },
        "cancel_job" => Request::CancelJob {
            job: get_u64(&json, "job")?,
        },
        "fetch_result" => Request::FetchResult {
            job: get_u64(&json, "job")?,
        },
        "stream_telemetry" => Request::StreamTelemetry {
            job: get_u64(&json, "job")?,
        },
        other => {
            return Err(WireError::new(
                ErrorCode::UnknownRequest,
                format!("unknown request type {other:?}"),
            ))
        }
    };
    Ok((id, req, consumed))
}

/// Decodes one response frame: `(id, response, bytes consumed)`.
pub fn decode_response(buf: &[u8]) -> Result<(u64, Response, usize), WireError> {
    let (id, typ, json, consumed) = decode_envelope(buf)?;
    let resp = match typ.as_str() {
        "accepted" => Response::Accepted {
            job: get_u64(&json, "job")?,
        },
        "status" => Response::Status(snapshot_from_json(&json)?),
        "cancelled" => Response::Cancelled {
            job: get_u64(&json, "job")?,
        },
        "result" => Response::Result {
            snapshot: snapshot_from_json(&json)?,
            verdict: get_str(&json, "verdict")?.to_string(),
            report: match json.get("report") {
                None | Some(Json::Null) => None,
                Some(r) => Some(report_from_json(r)?),
            },
            counterexample: match json.get("counterexample") {
                None | Some(Json::Null) => None,
                Some(c) => Some(cex_from_json(c)?),
            },
        },
        "telemetry" => Response::Telemetry {
            job: get_u64(&json, "job")?,
            snapshots: get_array(&json, "snapshots")?
                .iter()
                .map(progress_from_json)
                .collect::<Result<Vec<_>, _>>()?,
            reports: get_array(&json, "reports")?
                .iter()
                .map(report_from_json)
                .collect::<Result<Vec<_>, _>>()?,
        },
        "error" => {
            let code = get_u64(&json, "code")?;
            // Unregistered codes decode to the typed `unknown_error_code`
            // rather than failing: a newer peer's vocabulary degrades
            // gracefully instead of killing the session.
            let (code, message) = match ErrorCode::from_code(code) {
                Some(c) => (c, get_str(&json, "message")?.to_string()),
                None => (
                    ErrorCode::UnknownErrorCode,
                    format!(
                        "unregistered error code {code}: {}",
                        get_str(&json, "message").unwrap_or("")
                    ),
                ),
            };
            Response::Error(WireError {
                code,
                message,
                retry_after_ns: opt_u64(&json, "retry_after_ns")?,
            })
        }
        other => {
            return Err(WireError::new(
                ErrorCode::UnknownRequest,
                format!("unknown response type {other:?}"),
            ))
        }
    };
    Ok((id, resp, consumed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_at_the_current_version() {
        let req = Request::SubmitJob {
            spec: JobSpec::Scenario("req_resp".into()),
            options: JobOptions::default(),
            submit_token: Some(41),
        };
        let bytes = encode_request(7, &req);
        let (id, back, consumed) = decode_request(&bytes).expect("decodes");
        assert_eq!((id, consumed), (7, bytes.len()));
        assert_eq!(back, req);
    }

    #[test]
    fn only_the_current_version_decodes() {
        let req = encode_request(3, &Request::JobStatus { job: 1 });
        let resp = encode_response(3, &Response::Accepted { job: 1 });
        for bytes in [req, resp] {
            let text = std::str::from_utf8(&bytes[4..]).unwrap();
            for version in (0..=10).chain([99, u64::MAX]) {
                let spliced = text.replace(
                    &format!("\"version\":{WIRE_VERSION}"),
                    &format!("\"version\":{version}"),
                );
                let frame = frame(spliced.as_bytes());
                let codes = [
                    decode_request(&frame).err().map(|e| e.code),
                    decode_response(&frame).err().map(|e| e.code),
                ];
                if version == WIRE_VERSION {
                    assert!(codes.contains(&None), "current version rejected");
                } else {
                    assert_eq!(
                        codes,
                        [Some(ErrorCode::UnsupportedVersion); 2],
                        "v{version}"
                    );
                }
            }
        }
    }

    #[test]
    fn submit_without_options_is_invalid() {
        let req = Request::SubmitJob {
            spec: JobSpec::Scenario("req_resp".into()),
            options: JobOptions::default(),
            submit_token: None,
        };
        let bytes = encode_request(3, &req);
        let text = std::str::from_utf8(&bytes[4..]).unwrap();
        let options = text.find(",\"options\"").unwrap();
        let token = text.find(",\"submit_token\"").unwrap();
        let stripped = format!("{}{}", &text[..options], &text[token..]);
        let err = decode_request(&frame(stripped.as_bytes())).unwrap_err();
        assert_eq!(err.code, ErrorCode::InvalidRequest);
    }

    #[test]
    fn unregistered_error_codes_decode_to_the_typed_fallback() {
        // Hand-build an error envelope with a code from the future.
        let payload = "{\"schema\":\"ddws.wire\",\"version\":3,\"id\":9,\"type\":\"error\",\
                       \"code\":999,\"error\":\"from_the_future\",\"message\":\"novel failure\"}";
        let bytes = frame(payload.as_bytes());
        let (id, resp, _) = decode_response(&bytes).expect("unknown code still decodes");
        assert_eq!(id, 9);
        match resp {
            Response::Error(err) => {
                assert_eq!(err.code, ErrorCode::UnknownErrorCode);
                assert!(err.message.contains("999"));
                assert!(err.message.contains("novel failure"));
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn retry_after_hint_round_trips_and_stays_optional() {
        let err = WireError::new(ErrorCode::QueueFull, "full").with_retry_after(12_345);
        let bytes = encode_response(4, &Response::Error(err.clone()));
        let (_, back, _) = decode_response(&bytes).expect("decodes");
        match back {
            Response::Error(e) => {
                assert_eq!(e, err);
                assert_eq!(e.retry_after_ns, Some(12_345));
            }
            other => panic!("unexpected response {other:?}"),
        }
        // Without the hint the field is absent and decodes to None.
        let plain = WireError::new(ErrorCode::UnknownJob, "no job 7");
        let bytes = encode_response(5, &Response::Error(plain.clone()));
        assert!(!String::from_utf8_lossy(&bytes).contains("retry_after_ns"));
        let (_, back, _) = decode_response(&bytes).expect("decodes");
        match back {
            Response::Error(e) => assert_eq!(e.retry_after_ns, None),
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn framing_errors_carry_registry_codes() {
        assert_eq!(
            deframe(&[0, 0]).unwrap_err().code,
            ErrorCode::TruncatedFrame
        );
        let mut huge = ((MAX_FRAME_LEN + 1) as u32).to_be_bytes().to_vec();
        huge.extend_from_slice(b"x");
        assert_eq!(deframe(&huge).unwrap_err().code, ErrorCode::FrameTooLarge);
        let garbage = frame(b"not json");
        assert_eq!(
            decode_request(&garbage).unwrap_err().code,
            ErrorCode::MalformedFrame
        );
    }

    #[test]
    fn the_error_code_registry_is_injective() {
        for &a in ERROR_CODES {
            assert_eq!(ErrorCode::from_code(a.code()), Some(a));
        }
        let mut codes: Vec<u64> = ERROR_CODES.iter().map(|c| c.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), ERROR_CODES.len());
    }
}
