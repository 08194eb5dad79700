//! # `ddws-server` — verification as a service
//!
//! A long-running, multi-tenant front end for the `ddws` verifier
//! (DESIGN.md §3.14):
//!
//! * [`wire`] — the versioned, length-prefixed canonical-JSON protocol:
//!   `submit_job` / `job_status` / `cancel_job` / `fetch_result` /
//!   `stream_telemetry` envelopes with a stable error-code registry.
//!   Decoding is total — malformed input yields typed errors, never
//!   panics.
//! * [`queue`] — the bounded, admission-controlled job table and the
//!   round-robin run queue (reject-with-`queue_full` when at capacity).
//! * [`service`] — the preemptive scheduler: each quantum runs one
//!   state-budget slice through `SearchLimits`, parks the resulting
//!   `Inconclusive` checkpoint, and requeues FIFO, so one pathological
//!   composition cannot starve the fleet. Runs on real threads under
//!   `WallClock` ([`Server::run_workers`]) or fully in-process under a
//!   [`ManualClock`](ddws_verifier::ManualClock) with externally driven
//!   quanta — the deterministic mode the PR 6 simulator replays
//!   byte-for-byte.
//! * [`supervisor`] — worker-slice supervision: a crashed quantum
//!   re-dispatches from the checkpoint cloned before the slice (a crash
//!   loses at most one quantum, never the job), repeat crashers are
//!   quarantined as `job_poisoned`, and a seeded [`CrashInjector`]
//!   makes chaos runs a pure function of their seed.
//! * [`client`] — the retry layer: per-request deadlines, seeded
//!   full-jitter exponential backoff, and idempotent resubmission keyed
//!   by `submit_token`, against any [`client::Transport`].

#![warn(missing_docs)]

pub mod client;
pub mod queue;
pub mod service;
pub mod supervisor;
pub mod wire;

pub use client::{ClientError, ClientSession, RetryPolicy, Transport};
pub use queue::{JobQueue, JobState, JobSummary, Verdict, DEDUP_WINDOW};
pub use service::{
    redacted_reports, roundtrip, scenario, Server, ServerConfig, ServiceEvent, WorkerPool,
    SCENARIOS,
};
pub use supervisor::{CrashInjector, SliceOutcome, DEFAULT_CRASH_QUARANTINE};
pub use wire::{
    decode_request, decode_response, deframe, encode_request, encode_response, frame, CexDigest,
    ErrorCode, JobOptions, JobSnapshot, JobSpec, Request, Response, WireError, ERROR_CODES,
    MAX_FRAME_LEN, WIRE_SCHEMA, WIRE_VERSION,
};
