//! The verification service: request dispatch, the preemptive scheduler,
//! and the two execution modes.
//!
//! ## Scheduling contract
//!
//! A job runs as a sequence of *slices*, each a state-budget quantum
//! through the PR 5 `SearchLimits` machinery: slice `n + 1` resumes the
//! [`Checkpoint`] slice `n` parked (`Verifier::resume_slice`), with the
//! cap raised by [`ServerConfig::quantum_states`] *additional* visited
//! states, clamped to the job's own budget. A slice therefore ends in
//! exactly one of:
//!
//! * a verdict (`holds` / `violated`) — terminal;
//! * a state-budget stop at the synthetic slice cap — **parked**, the
//!   checkpoint goes back to the tail of the round-robin queue;
//! * a state-budget stop at the job's budget — terminal
//!   `budget_exceeded`;
//! * a cancellation — terminal `cancelled`, checkpoint discarded;
//! * a failure (unparseable property, worker panic) — terminal `failed`.
//!
//! Strict FIFO requeueing is the fairness law: between two consecutive
//! slices of any job, every other runnable job runs at most once.
//!
//! ## Execution modes
//!
//! *Wall mode* (`clock: None`): [`Server::run_workers`] spawns real
//! threads that loop [`Server::step`] under `WallClock`. *Deterministic
//! mode* (`clock: Some(manual)`): the caller drives `step` from one
//! thread; every slice advances the [`ManualClock`] 64 virtual
//! nanoseconds per state expansion through the fault hook, so the whole
//! server — wire traffic included — is a pure function of the request
//! sequence, and the canonical event log plus redacted reports replay
//! byte-identically (the PR 6 simulator drives exactly this mode).
//!
//! The canonical log records every submit, slice, cancel and eviction in
//! both modes. Polls (`job_status`, `fetch_result`, `stream_telemetry`)
//! are recorded only in deterministic mode, where the log is the replay
//! unit; in wall mode they would grow the log by one line per poll for
//! the server's lifetime.
//!
//! ## Job lifecycle
//!
//! A job turns terminal in exactly one place, [`JobQueue::finish`]: it
//! sets the typed [`Verdict`], the [`JobState`] that verdict implies,
//! the final report and the completion step, and drops the job's work.
//!
//! ## Robustness
//!
//! Every slice runs under the [`crate::supervisor`]: a crashed quantum
//! re-dispatches from the checkpoint cloned before the slice — a crash
//! loses at most one quantum, never the job — and a job whose slices
//! crash [`ServerConfig::crash_quarantine`] times in total goes
//! terminal as the typed `job_poisoned`. Overload degrades gracefully
//! instead of failing strangely: `queue_full` rejections carry a
//! `retry_after_ns` hint derived from observed slice throughput,
//! duplicate submits inside the dedup window collapse onto the original
//! job id, and terminal results live in a bounded TTL + LRU retention
//! store whose evictions answer `fetch_result` with the typed
//! `result_evicted`.

use crate::queue::{JobEntry, JobQueue, JobState, JobSummary, JobWork, Verdict};
use crate::supervisor::{supervise_slice, CrashInjector, SliceOutcome, DEFAULT_CRASH_QUARANTINE};
use crate::wire::{
    decode_request, encode_response, CexDigest, ErrorCode, JobOptions, JobSpec, Request, Response,
    WireError,
};
use ddws_model::{CompositionBuilder, QueueKind};
use ddws_relational::Instance;
use ddws_telemetry::{Json, TelemetryEvent};
use ddws_testkit::compgen::{Case, CaseSpec, ChanSpec};
use ddws_testkit::faults::INJECTED_PANIC;
use ddws_verifier::{
    AbortReason, Checkpoint, Clock, ClockHandle, DatabaseMode, FaultHook, ManualClock, Outcome,
    Report, ReporterHandle, RunReport, Verifier, VerifyOptions,
};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Virtual nanoseconds per state expansion in deterministic mode.
const TICK_NS: u64 = 64;

/// Service configuration.
#[derive(Clone)]
pub struct ServerConfig {
    /// Admission cap on active jobs.
    pub capacity: usize,
    /// The per-slice quantum: additional visited states per quantum.
    pub quantum_states: u64,
    /// `Some` switches the service into deterministic mode: slices run
    /// under this virtual clock, advanced 64 virtual nanoseconds per
    /// state expansion.
    pub clock: Option<Arc<ManualClock>>,
    /// Progress-snapshot interval for wall mode (`None` disables).
    /// Deterministic mode never emits snapshots — the progress gate reads
    /// wall time, which would break replay.
    pub progress_interval: Option<Duration>,
    /// Total crashed slices before a job is quarantined as a poison job
    /// (terminal `job_poisoned`; `fetch_result` answers the typed
    /// error). Clamped to at least 1.
    pub crash_quarantine: u64,
    /// Retention-store capacity: how many terminal results (report +
    /// counterexample) are kept before LRU eviction.
    pub retain_results: usize,
    /// Retention TTL: a result untouched this long is evicted (virtual
    /// nanoseconds in deterministic mode, wall nanoseconds otherwise).
    pub result_ttl_ns: u64,
    /// Seeded worker-crash injection for chaos runs. `None` in
    /// production — the supervisor then only sees genuine crashes.
    pub crash_injector: Option<Arc<CrashInjector>>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            capacity: 64,
            quantum_states: 1024,
            clock: None,
            progress_interval: Some(Duration::from_millis(25)),
            crash_quarantine: DEFAULT_CRASH_QUARANTINE,
            retain_results: 1024,
            result_ttl_ns: 3_600_000_000_000,
            crash_injector: None,
        }
    }
}

impl ServerConfig {
    /// A deterministic-mode configuration over a fresh [`ManualClock`].
    pub fn deterministic(capacity: usize, quantum_states: u64) -> ServerConfig {
        ServerConfig {
            capacity,
            quantum_states,
            clock: Some(Arc::new(ManualClock::new(0))),
            progress_interval: None,
            ..ServerConfig::default()
        }
    }
}

/// One entry of the canonical service event log. The log records every
/// state transition the scheduler and the dispatcher make, and, in
/// deterministic mode only, every poll; its rendering
/// ([`Server::canonical_log`]) is the replay unit of the deterministic
/// service tests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceEvent {
    /// A `submit_job`, accepted or rejected.
    Submit {
        /// Assigned id on acceptance.
        job: Option<u64>,
        /// `"spec"` or the scenario name.
        kind: String,
        /// Rejection code, when rejected.
        code: Option<ErrorCode>,
        /// Whether the accept deduplicated onto an existing job via its
        /// `submit_token` (no new job was enqueued).
        dedup: bool,
    },
    /// One scheduler quantum.
    Slice {
        /// The job.
        job: u64,
        /// 1-based slice ordinal.
        n: u64,
        /// The effective state cap of the slice.
        cap: u64,
        /// `parked`, `holds`, `violated`, `cancelled`, `budget_exceeded`,
        /// or `failed`.
        outcome: String,
        /// Cumulative visited states after the slice.
        states: u64,
    },
    /// A `cancel_job`.
    Cancel {
        /// The job.
        job: u64,
        /// `"cancelled"`, `"cancelled (checkpoint discarded)"`,
        /// `"pending"` (job was mid-slice), or an error-code name.
        outcome: String,
    },
    /// A `job_status` poll (deterministic mode only).
    Status {
        /// The job.
        job: u64,
        /// The reported state, or an error-code name.
        state: String,
    },
    /// A `fetch_result` (deterministic mode only).
    Fetch {
        /// The job.
        job: u64,
        /// The verdict label, or an error-code name.
        outcome: String,
    },
    /// A `stream_telemetry` drain (deterministic mode only).
    Telemetry {
        /// The job.
        job: u64,
        /// Progress snapshots drained.
        snapshots: u64,
        /// Run reports drained.
        reports: u64,
    },
    /// A retention-store eviction (TTL expiry or LRU capacity); the
    /// job's report and counterexample were dropped.
    Evict {
        /// The job whose result was evicted.
        job: u64,
    },
}

impl fmt::Display for ServiceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceEvent::Submit {
                job,
                kind,
                code,
                dedup,
            } => match (job, code) {
                (Some(j), _) if *dedup => write!(f, "submit kind={kind} -> dedup job={j}"),
                (Some(j), _) => write!(f, "submit kind={kind} -> accepted job={j}"),
                (None, Some(c)) => write!(f, "submit kind={kind} -> rejected {}", c.name()),
                (None, None) => write!(f, "submit kind={kind} -> rejected"),
            },
            ServiceEvent::Slice {
                job,
                n,
                cap,
                outcome,
                states,
            } => write!(
                f,
                "slice job={job} n={n} cap={cap} -> {outcome} states={states}"
            ),
            ServiceEvent::Cancel { job, outcome } => write!(f, "cancel job={job} -> {outcome}"),
            ServiceEvent::Status { job, state } => write!(f, "status job={job} -> {state}"),
            ServiceEvent::Fetch { job, outcome } => write!(f, "fetch job={job} -> {outcome}"),
            ServiceEvent::Telemetry {
                job,
                snapshots,
                reports,
            } => write!(
                f,
                "telemetry job={job} snapshots={snapshots} reports={reports}"
            ),
            ServiceEvent::Evict { job } => write!(f, "evict job={job} -> result_evicted"),
        }
    }
}

struct ServerState {
    queue: JobQueue,
    steps: u64,
    log: Vec<ServiceEvent>,
    /// Whether polls go into the log (deterministic mode).
    log_polls: bool,
    /// Nanoseconds of completed (non-crashed) slices — virtual in
    /// deterministic mode, wall otherwise — for the back-pressure hint.
    slice_ns_total: u64,
    /// Completed slices behind `slice_ns_total`.
    slices_timed: u64,
}

impl ServerState {
    /// Appends `event` to the canonical log; polls only when `log_polls`.
    fn record(&mut self, event: ServiceEvent) {
        let poll = matches!(
            event,
            ServiceEvent::Status { .. }
                | ServiceEvent::Fetch { .. }
                | ServiceEvent::Telemetry { .. }
        );
        if self.log_polls || !poll {
            self.log.push(event);
        }
    }

    /// Looks a request's job up. An unknown id answers `unknown_job`,
    /// recorded as `rejected(job, "unknown_job")` for handlers that log
    /// their rejections.
    fn known_job(
        &mut self,
        job: u64,
        rejected: Option<fn(u64, String) -> ServiceEvent>,
    ) -> Result<&mut JobEntry, WireError> {
        if self.queue.job(job).is_none() {
            let code = ErrorCode::UnknownJob;
            if let Some(event) = rejected {
                self.record(event(job, code.name().to_string()));
            }
            return Err(WireError::new(code, format!("no job {job}")));
        }
        Ok(self.queue.job_mut(job).expect("job exists"))
    }
}

/// How a slice leaves its job: terminal with a verdict and final report,
/// or `None` when the job parks for another quantum.
type SliceEnd = Option<(Verdict, Option<RunReport>)>;

/// The verification service. Cheap to share: wrap in an [`Arc`] and hand
/// clones to worker threads ([`Server::run_workers`]) or drive it
/// single-threaded in deterministic mode.
pub struct Server {
    config: ServerConfig,
    state: Mutex<ServerState>,
    /// Wall anchor for the retention clock outside deterministic mode.
    started: Instant,
}

impl Server {
    /// A fresh service.
    pub fn new(config: ServerConfig) -> Server {
        let capacity = config.capacity;
        let log_polls = config.clock.is_some();
        Server {
            config,
            state: Mutex::new(ServerState {
                queue: JobQueue::new(capacity),
                steps: 0,
                log: Vec::new(),
                log_polls,
                slice_ns_total: 0,
                slices_timed: 0,
            }),
            started: Instant::now(),
        }
    }

    /// The retention clock: virtual nanoseconds in deterministic mode,
    /// wall nanoseconds since server start otherwise.
    fn now_ns(&self) -> u64 {
        match &self.config.clock {
            Some(clock) => clock.now_ns(),
            None => self.started.elapsed().as_nanos() as u64,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Handles one request frame and returns the response frame. Decode
    /// failures answer with an `error` envelope (correlation id 0 — a
    /// frame that does not parse has no trustworthy id).
    pub fn handle_frame(&self, buf: &[u8]) -> Vec<u8> {
        match decode_request(buf) {
            Ok((id, req, _)) => encode_response(id, &self.dispatch(&req)),
            Err(err) => encode_response(0, &Response::Error(err)),
        }
    }

    /// Handles one decoded request.
    pub fn dispatch(&self, req: &Request) -> Response {
        match req {
            Request::SubmitJob {
                spec,
                options,
                submit_token,
            } => self.submit(spec, options, *submit_token),
            Request::JobStatus { job } => self.status(*job),
            Request::CancelJob { job } => self.cancel(*job),
            Request::FetchResult { job } => self.fetch(*job),
            Request::StreamTelemetry { job } => self.telemetry(*job),
        }
    }

    fn submit(&self, spec: &JobSpec, options: &JobOptions, submit_token: Option<u64>) -> Response {
        let kind = match spec {
            JobSpec::Spec(_) => "spec".to_string(),
            JobSpec::Scenario(name) => name.clone(),
        };
        let built = match spec {
            JobSpec::Spec(cs) => cs
                .build()
                .map_err(|e| WireError::new(ErrorCode::SpecInvalid, e)),
            JobSpec::Scenario(name) => scenario(name).ok_or_else(|| {
                WireError::new(
                    ErrorCode::UnknownScenario,
                    format!("no scenario {name:?} (registry: {SCENARIOS:?})"),
                )
            }),
        };
        let mut st = self.state.lock().unwrap();
        // Idempotent resubmit: a token still in the dedup window answers
        // the original job id — a client retrying a lost ack cannot
        // double-submit, even when the queue is otherwise full.
        if let Some(token) = submit_token {
            if let Some(id) = st.queue.dedup_lookup(token) {
                st.record(ServiceEvent::Submit {
                    job: Some(id),
                    kind,
                    code: None,
                    dedup: true,
                });
                return Response::Accepted { job: id };
            }
        }
        let outcome = built.and_then(|case| {
            let work = JobWork {
                verifier: Verifier::new(case.composition),
                property: case.property,
                database: case.database,
                checkpoint: None,
            };
            let step = st.steps;
            st.queue.submit(work, options.clone(), step, submit_token)
        });
        match outcome {
            Ok(id) => {
                st.record(ServiceEvent::Submit {
                    job: Some(id),
                    kind,
                    code: None,
                    dedup: false,
                });
                Response::Accepted { job: id }
            }
            Err(err) => {
                let err = if err.code == ErrorCode::QueueFull {
                    err.with_retry_after(Self::retry_after_hint(&st, &self.config))
                } else {
                    err
                };
                st.record(ServiceEvent::Submit {
                    job: None,
                    kind,
                    code: Some(err.code),
                    dedup: false,
                });
                Response::Error(err)
            }
        }
    }

    /// The back-pressure hint attached to `queue_full`: the observed
    /// (or, before any slice completed, the configured) per-slice
    /// nanoseconds times one full round of quanta over the active jobs —
    /// roughly when the round-robin queue will next have drained one
    /// admission slot's worth of work.
    fn retry_after_hint(st: &ServerState, config: &ServerConfig) -> u64 {
        let per_slice = st
            .slice_ns_total
            .checked_div(st.slices_timed)
            .unwrap_or_else(|| config.quantum_states.saturating_mul(TICK_NS));
        per_slice
            .saturating_mul(st.queue.active() as u64 + 1)
            .max(1)
    }

    fn status(&self, job: u64) -> Response {
        let mut st = self.state.lock().unwrap();
        let event = |job, state| ServiceEvent::Status { job, state };
        let snapshot = match st.known_job(job, Some(event)) {
            Ok(entry) => entry.row.snapshot(),
            Err(err) => return Response::Error(err),
        };
        st.record(event(job, snapshot.state.as_str().to_string()));
        Response::Status(snapshot)
    }

    fn cancel(&self, job: u64) -> Response {
        let mut st = self.state.lock().unwrap();
        let step = st.steps;
        let event = |job, outcome| ServiceEvent::Cancel { job, outcome };
        let entry = match st.known_job(job, Some(event)) {
            Ok(entry) => entry,
            Err(err) => return Response::Error(err),
        };
        if entry.row.state.is_terminal() {
            let code = ErrorCode::JobTerminal;
            let msg = format!("job {job} is already {}", entry.row.state.as_str());
            st.record(event(job, code.name().to_string()));
            return Response::Error(WireError::new(code, msg));
        }
        entry.cancel.cancel("client cancel");
        entry.cancel_requested = true;
        let outcome = if entry.row.state == JobState::Running {
            // A worker owns the slice; it observes the token and
            // terminalizes the job when the slice stops.
            "pending"
        } else {
            let had_checkpoint = entry.work.as_ref().is_some_and(|w| w.checkpoint.is_some());
            entry.row.discarded_checkpoint = had_checkpoint;
            st.queue.finish(job, Verdict::Cancelled, None, step);
            if had_checkpoint {
                "cancelled (checkpoint discarded)"
            } else {
                "cancelled"
            }
        };
        st.record(event(job, outcome.to_string()));
        Response::Cancelled { job }
    }

    fn fetch(&self, job: u64) -> Response {
        let now = self.now_ns();
        let mut st = self.state.lock().unwrap();
        // The TTL sweep rides on every fetch, so expiry is observable
        // without waiting for the next job completion.
        self.sweep_retention(&mut st, now);
        let event = |job, outcome| ServiceEvent::Fetch { job, outcome };
        let entry = match st.known_job(job, Some(event)) {
            Ok(entry) => entry,
            Err(err) => return Response::Error(err),
        };
        let (code, msg) = match entry.row.verdict {
            None => (
                ErrorCode::JobNotTerminal,
                format!("job {job} is {}", entry.row.state.as_str()),
            ),
            Some(Verdict::JobPoisoned) => (
                ErrorCode::JobPoisoned,
                format!(
                    "job {job} crashed {} times and was quarantined",
                    entry.row.crash_recoveries
                ),
            ),
            Some(_) if entry.row.evicted => (
                ErrorCode::ResultEvicted,
                format!("job {job}'s result left the retention store"),
            ),
            Some(verdict) => {
                let resp = Response::Result {
                    snapshot: entry.row.snapshot(),
                    verdict: verdict.label().to_string(),
                    report: entry.report.clone(),
                    counterexample: entry.row.counterexample.clone(),
                };
                st.queue.touch_result(job, now);
                st.record(event(job, verdict.label().to_string()));
                return resp;
            }
        };
        st.record(event(job, code.name().to_string()));
        Response::Error(WireError::new(code, msg))
    }

    /// Applies the retention policy and logs the evictions.
    fn sweep_retention(&self, st: &mut ServerState, now_ns: u64) {
        for evicted in st.queue.evict_results(
            now_ns,
            self.config.retain_results,
            self.config.result_ttl_ns,
        ) {
            st.record(ServiceEvent::Evict { job: evicted });
        }
    }

    fn telemetry(&self, job: u64) -> Response {
        let mut st = self.state.lock().unwrap();
        let entry = match st.known_job(job, None) {
            Ok(entry) => entry,
            Err(err) => return Response::Error(err),
        };
        let mut snapshots = Vec::new();
        let mut reports = Vec::new();
        for ev in entry.stream.drain() {
            match ev {
                TelemetryEvent::Progress(p) => snapshots.push(p),
                TelemetryEvent::Report(r) => reports.push(*r),
            }
        }
        st.record(ServiceEvent::Telemetry {
            job,
            snapshots: snapshots.len() as u64,
            reports: reports.len() as u64,
        });
        Response::Telemetry {
            job,
            snapshots,
            reports,
        }
    }

    /// Runs one scheduler quantum: pops the round-robin head, executes one
    /// slice, and parks or terminalizes the job. Returns `false` when no
    /// job is runnable.
    pub fn step(&self) -> bool {
        // Claim a job and take its work out of the table, so the (long)
        // slice runs without the service lock.
        let (id, mut work, options, cancel, stream) = {
            let mut st = self.state.lock().unwrap();
            let Some(id) = st.queue.next_runnable() else {
                return false;
            };
            st.steps += 1;
            let entry = st.queue.job_mut(id).expect("runnable job exists");
            entry.row.state = JobState::Running;
            let work = entry.work.take().expect("runnable job has work");
            (
                id,
                work,
                entry.options.clone(),
                entry.cancel.clone(),
                entry.stream.clone(),
            )
        };

        // The cap is measured against the in-flight valuation's own
        // count, not the run-wide sum: `max_states` budgets are per
        // universal-closure valuation, and the sliced run must converge
        // to the verdict of a one-shot check under `budget` (the oracle
        // the tests compare against).
        let visited = work
            .checkpoint
            .as_ref()
            .map_or(0, Checkpoint::frontier_states);
        let budget = options.budget.max(1);
        let cap = Verifier::slice_cap(visited, self.config.quantum_states).min(budget);
        let quantum = cap.saturating_sub(visited);

        // The recovery point: on a crash the job re-dispatches from the
        // checkpoint as it was *before* the slice, so a crash costs at
        // most one quantum of work (`None` before the first slice — the
        // job then simply restarts from scratch).
        let recovery = work.checkpoint.clone();
        let crash_tick = self
            .config
            .crash_injector
            .as_ref()
            .and_then(|injector| injector.draw());
        let vopts = self.slice_options(&options, &work.database, &cancel, &stream, crash_tick);
        let slice_started = Instant::now();
        let result = if quantum == 0 {
            // The previous slice consumed the whole budget exactly at its
            // synthetic cap; nothing is left to run.
            None
        } else {
            Some(supervise_slice(|| match work.checkpoint.take() {
                None => work.verifier.check_slice(&work.property, &vopts, cap),
                Some(cp) => work.verifier.resume_slice(cp, &vopts, quantum),
            }))
        };

        let mut st = self.state.lock().unwrap();
        let step = st.steps;
        let quarantine = self.config.crash_quarantine.max(1);
        let entry = st.queue.job_mut(id).expect("job exists");
        let n = entry.row.slices + 1;
        let mut slice_ns = None;
        let (outcome_label, end) = match result {
            None => (
                Verdict::BudgetExceeded.label().to_string(),
                Some((Verdict::BudgetExceeded, None)),
            ),
            Some(SliceOutcome::Failed(e)) => {
                entry.row.slices = n;
                (format!("failed ({e})"), Some((Verdict::Failed, None)))
            }
            Some(SliceOutcome::Crashed { .. }) => {
                // The engine streamed exactly one abort report for the
                // crashed slice, so counting it keeps the telemetry
                // conservation law (`reports == slices`) intact. The
                // job's cumulative states stay at their pre-slice value:
                // the crashed quantum's work is lost, nothing else.
                entry.row.slices = n;
                entry.row.crash_recoveries += 1;
                let k = entry.row.crash_recoveries;
                if entry.cancel_requested {
                    entry.row.discarded_checkpoint = recovery.is_some();
                    (
                        "cancelled (crashed slice)".to_string(),
                        Some((Verdict::Cancelled, None)),
                    )
                } else if k >= quarantine {
                    (
                        format!("job_poisoned ({k} crashes)"),
                        Some((Verdict::JobPoisoned, None)),
                    )
                } else {
                    work.checkpoint = recovery;
                    (format!("crashed (recovery {k}/{quarantine})"), None)
                }
            }
            Some(SliceOutcome::Finished(report)) => {
                entry.row.slices = n;
                let gained = report
                    .stats
                    .states_visited
                    .saturating_sub(entry.row.states_visited);
                entry.row.states_visited = report.stats.states_visited;
                slice_ns = Some(match &self.config.clock {
                    Some(_) => gained.max(1).saturating_mul(TICK_NS),
                    None => slice_started.elapsed().as_nanos() as u64,
                });
                Self::integrate_slice(entry, &mut work, *report, cap, budget)
            }
        };
        let states = entry.row.states_visited;
        let retain = matches!(end, Some((_, Some(_))));
        match end {
            None => st.queue.park(id, work),
            Some((verdict, report)) => st.queue.finish(id, verdict, report, step),
        }

        // Log the slice and run the result through the retention policy.
        if let Some(ns) = slice_ns {
            st.slice_ns_total += ns;
            st.slices_timed += 1;
        }
        st.record(ServiceEvent::Slice {
            job: id,
            n,
            cap,
            outcome: outcome_label,
            states,
        });
        if retain {
            let now = self.now_ns();
            st.queue.retain_result(id, now);
            self.sweep_retention(&mut st, now);
        }
        true
    }

    /// Classifies one finished slice: the outcome label and how the job
    /// leaves it. A parked checkpoint goes back into `work`.
    fn integrate_slice(
        entry: &mut JobEntry,
        work: &mut JobWork,
        report: Report,
        cap: u64,
        budget: u64,
    ) -> (String, SliceEnd) {
        let verdict = match report.outcome {
            Outcome::Holds => Verdict::Holds,
            Outcome::Violated(cex) => {
                let comp = work.verifier.composition();
                entry.row.counterexample = Some(CexDigest {
                    values: cex
                        .valuation
                        .iter()
                        .map(|&(_, v)| comp.symbols.name(v).to_string())
                        .collect(),
                    prefix_len: cex.prefix.len() as u64,
                    cycle_len: cex.cycle.len() as u64,
                });
                Verdict::Violated
            }
            Outcome::Inconclusive(inc) => match inc.reason {
                AbortReason::StateBudget { max_states }
                    if max_states == cap && cap < budget && inc.checkpoint.is_some() =>
                {
                    if entry.cancel_requested {
                        // The cancel raced the end of the slice: the token
                        // was raised after the last cancellation check.
                        // Honor it now and drop the checkpoint.
                        entry.row.discarded_checkpoint = true;
                        return (
                            "cancelled (checkpoint discarded)".to_string(),
                            Some((Verdict::Cancelled, Some(report.telemetry))),
                        );
                    }
                    work.checkpoint = inc.checkpoint;
                    return ("parked".to_string(), None);
                }
                // The cap was the job's own budget (or the engine could
                // not checkpoint): the job is out of states.
                AbortReason::StateBudget { .. } => Verdict::BudgetExceeded,
                AbortReason::Cancelled { .. } => {
                    entry.row.discarded_checkpoint = inc.checkpoint.is_some();
                    Verdict::Cancelled
                }
                AbortReason::DeadlineExceeded { .. } if inc.checkpoint.is_some() => {
                    // The service arms no deadlines, but a client-supplied
                    // clock skew could still trip one: park and retry.
                    work.checkpoint = inc.checkpoint;
                    return ("parked".to_string(), None);
                }
                AbortReason::DeadlineExceeded { .. } | AbortReason::WorkerPanicked { .. } => {
                    Verdict::Failed
                }
            },
        };
        (
            verdict.label().to_string(),
            Some((verdict, Some(report.telemetry))),
        )
    }

    fn slice_options(
        &self,
        options: &JobOptions,
        database: &Instance,
        cancel: &ddws_verifier::CancelToken,
        stream: &ddws_telemetry::StreamReporter,
        crash_tick: Option<u64>,
    ) -> VerifyOptions {
        // One hook serves both duties: deterministic mode advances the
        // virtual clock every expansion, and an injected crash panics at
        // its drawn ordinal *inside* the engine's expansion path — the
        // same path a genuine worker bug would take.
        let clock_hook = self.config.clock.clone();
        let fault_hook: Option<FaultHook> = if clock_hook.is_some() || crash_tick.is_some() {
            Some(Arc::new(move |tick: u64| {
                if let Some(clock) = &clock_hook {
                    clock.advance(TICK_NS);
                }
                if crash_tick == Some(tick) {
                    panic!("{INJECTED_PANIC} (injected worker crash at expansion {tick})");
                }
            }) as FaultHook)
        } else {
            None
        };
        VerifyOptions {
            database: DatabaseMode::Fixed(database.clone()),
            fresh_values: options.fresh_values,
            clock: self.config.clock.as_ref().map(|c| c.clone() as ClockHandle),
            cancel_token: Some(cancel.clone()),
            fault_hook,
            valuation_threads: options.valuation_threads,
            reporter: ReporterHandle::new(Arc::new(stream.clone())),
            progress_interval: if self.config.clock.is_some() {
                None
            } else {
                self.config.progress_interval
            },
            ..VerifyOptions::default()
        }
    }

    /// Drives [`Server::step`] until no job is runnable. Deterministic
    /// mode's "run to quiescence" helper; returns the number of quanta.
    pub fn drain(&self) -> u64 {
        let mut quanta = 0;
        while self.step() {
            quanta += 1;
        }
        quanta
    }

    /// Whether any job is waiting for a quantum.
    pub fn has_runnable(&self) -> bool {
        self.state.lock().unwrap().queue.has_runnable()
    }

    /// Scheduler quanta executed so far.
    pub fn steps(&self) -> u64 {
        self.state.lock().unwrap().steps
    }

    /// A summary row per job, in admission order.
    pub fn jobs(&self) -> Vec<JobSummary> {
        let st = self.state.lock().unwrap();
        st.queue.jobs().iter().map(|j| j.row.clone()).collect()
    }

    /// The summary row of one job, if it exists.
    pub fn job(&self, id: u64) -> Option<JobSummary> {
        let st = self.state.lock().unwrap();
        st.queue.job(id).map(|j| j.row.clone())
    }

    /// Number of results the retention store currently holds.
    pub fn retained_results(&self) -> usize {
        self.state.lock().unwrap().queue.retained_results()
    }

    /// The redacted final report of a terminal job, if one exists.
    pub fn redacted_report(&self, job: u64) -> Option<RunReport> {
        let st = self.state.lock().unwrap();
        st.queue
            .job(job)
            .and_then(|j| j.report.as_ref().map(RunReport::redacted))
    }

    /// Renders the canonical event log: one line per [`ServiceEvent`],
    /// newline-terminated. In deterministic mode this replays
    /// byte-identically from the same request/step sequence.
    pub fn canonical_log(&self) -> String {
        let st = self.state.lock().unwrap();
        let mut out = String::new();
        for ev in &st.log {
            out.push_str(&ev.to_string());
            out.push('\n');
        }
        out
    }

    /// Spawns `n` worker threads looping [`Server::step`] (wall mode).
    pub fn run_workers(self: &Arc<Server>, n: usize) -> WorkerPool {
        let shutdown = Arc::new(AtomicBool::new(false));
        let handles = (0..n.max(1))
            .map(|_| {
                let server = Arc::clone(self);
                let shutdown = Arc::clone(&shutdown);
                std::thread::spawn(move || loop {
                    if server.step() {
                        continue;
                    }
                    if shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    std::thread::sleep(Duration::from_micros(200));
                })
            })
            .collect();
        WorkerPool { shutdown, handles }
    }
}

/// A running wall-mode worker pool; see [`Server::run_workers`].
pub struct WorkerPool {
    shutdown: Arc<AtomicBool>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Signals shutdown and joins every worker. Workers finish draining
    /// the run queue first: shutdown only lands when no job is runnable.
    pub fn shutdown(self) {
        self.shutdown.store(true, Ordering::Release);
        for h in self.handles {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------
// Scenario registry
// ---------------------------------------------------------------------

/// Names `submit_job` may reference instead of an inline spec.
pub const SCENARIOS: &[&str] = &["req_resp", "drop_audit", "starver"];

/// Resolves a named scenario to a verification case.
///
/// * `req_resp` — the two-peer request/response composition; its guard
///   property holds.
/// * `drop_audit` — the same composition with an unsatisfiable audit
///   property; violated within a few hundred states.
/// * `starver` — a three-relay ring with arity-2 channels and queue
///   bound 2: a budget-explosive product the fairness tests use as the
///   pathological tenant.
pub fn scenario(name: &str) -> Option<Case> {
    match name {
        "req_resp" => Some(req_resp("G (forall x: Bob.?ping(x) -> Alice.friend(x))")),
        "drop_audit" => Some(req_resp("G (forall x: Bob.?ping(x) -> false)")),
        "starver" => Some(starver()),
        _ => None,
    }
}

/// The doc-comment composition: Alice pings friends, Bob records them.
fn req_resp(property: &str) -> Case {
    let mut b = CompositionBuilder::new();
    b.channel("ping", 1, QueueKind::Flat, "Alice", "Bob");
    b.peer("Alice")
        .database("friend", 1)
        .input("greet", 1)
        .input_rule("greet", &["x"], "friend(x)")
        .send_rule("ping", &["x"], "greet(x)");
    b.peer("Bob")
        .state("seen", 1)
        .state_insert_rule("seen", &["x"], "?ping(x)");
    let mut composition = b.build().expect("req_resp composition");
    let mut database = Instance::empty(&composition.voc);
    let friend = composition.voc.lookup("Alice.friend").expect("friend");
    let a = composition.symbols.intern("a");
    database
        .relation_mut(friend)
        .insert(ddws_relational::Tuple::new(vec![a]));
    Case {
        composition,
        database,
        property: property.to_string(),
    }
}

/// The pathological tenant: a compgen-shaped three-relay ring whose
/// product comfortably exceeds any slice budget, with a property that
/// holds — so it never short-circuits on a violation and keeps consuming
/// quanta until its own budget runs out.
fn starver() -> Case {
    let spec = CaseSpec {
        queue_bound: 2,
        relays: vec![0, 1, 2],
        chans: vec![
            ChanSpec {
                index: 0,
                arity: 1,
                sender: 0,
                receiver: 1,
                send_rule: true,
                receive_rule: true,
            },
            ChanSpec {
                index: 1,
                arity: 2,
                sender: 1,
                receiver: 2,
                send_rule: true,
                receive_rule: true,
            },
            ChanSpec {
                index: 2,
                arity: 2,
                sender: 2,
                receiver: 0,
                send_rule: true,
                receive_rule: true,
            },
        ],
        auditor: None,
        db_rows: vec![(0, "a"), (0, "b"), (1, "a"), (1, "b"), (2, "a"), (2, "b")],
        property: "G (forall x: W1.?c0(x) -> W0.d(x))".to_string(),
    };
    spec.build().expect("starver composition")
}

/// A convenience used by benches and docs: submits over the wire and
/// returns the decoded response. (Production clients speak frames; tests
/// mostly go through [`Server::handle_frame`] directly.)
pub fn roundtrip(server: &Server, id: u64, req: &Request) -> Response {
    let frame = crate::wire::encode_request(id, req);
    let bytes = server.handle_frame(&frame);
    let (rid, resp, _) = crate::wire::decode_response(&bytes).expect("server frames decode");
    assert_eq!(rid, id, "correlation id echoes");
    resp
}

/// Serializes the redacted reports of every terminal job, in job order —
/// the report half of the deterministic replay unit.
pub fn redacted_reports(server: &Server) -> String {
    let mut out = String::new();
    for row in server.jobs() {
        if let Some(report) = server.redacted_report(row.job) {
            out.push_str(
                &Json::parse(&report.to_json())
                    .expect("report JSON")
                    .to_string(),
            );
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Request;

    fn submit_scenario(server: &Server, id: u64, name: &str, budget: u64) -> u64 {
        let resp = roundtrip(
            server,
            id,
            &Request::SubmitJob {
                spec: JobSpec::Scenario(name.to_string()),
                options: JobOptions {
                    budget,
                    ..JobOptions::default()
                },
                submit_token: None,
            },
        );
        match resp {
            Response::Accepted { job } => job,
            other => panic!("submit rejected: {other:?}"),
        }
    }

    #[test]
    fn req_resp_runs_to_holds_across_slices() {
        let server = Server::new(ServerConfig::deterministic(8, 64));
        let job = submit_scenario(&server, 1, "req_resp", 100_000);
        let quanta = server.drain();
        assert!(quanta >= 1);
        let row = &server.jobs()[job as usize];
        assert_eq!(row.state, JobState::Done);
        assert_eq!(row.verdict, Some(Verdict::Holds));
        match roundtrip(&server, 2, &Request::FetchResult { job }) {
            Response::Result {
                verdict, report, ..
            } => {
                assert_eq!(verdict, "holds");
                assert!(report.is_some());
            }
            other => panic!("unexpected fetch response: {other:?}"),
        }
        // Every slice streamed exactly one run report.
        match roundtrip(&server, 3, &Request::StreamTelemetry { job }) {
            Response::Telemetry { reports, .. } => {
                assert_eq!(reports.len() as u64, row.slices);
            }
            other => panic!("unexpected telemetry response: {other:?}"),
        }
    }

    #[test]
    fn a_property_past_the_parser_caps_fails_its_job_and_the_next_job_runs() {
        // Parsed on the worker inside a slice, where `catch_unwind` cannot
        // stop a stack overflow: the parser's nesting cap must refuse it.
        let server = Server::new(ServerConfig::deterministic(8, 64));
        let mut spec = ddws_testkit::compgen::spec(&mut ddws_testkit::rng::XorShift::new(7));
        spec.property = format!("{}true{}", "(".repeat(100_000), ")".repeat(100_000));
        let submit = Request::SubmitJob {
            spec: JobSpec::Spec(spec),
            options: JobOptions::default(),
            submit_token: None,
        };
        let hostile = match roundtrip(&server, 1, &submit) {
            Response::Accepted { job } => job,
            other => panic!("submit rejected: {other:?}"),
        };
        let next = submit_scenario(&server, 2, "req_resp", 100_000);
        server.drain();
        assert_eq!(server.jobs()[hostile as usize].state, JobState::Failed);
        match roundtrip(&server, 3, &Request::FetchResult { job: hostile }) {
            Response::Result { verdict, .. } => assert_eq!(verdict, "failed"),
            other => panic!("unexpected fetch response: {other:?}"),
        }
        assert!(server.canonical_log().contains("nests deeper than"));
        assert_eq!(server.jobs()[next as usize].verdict, Some(Verdict::Holds));
    }

    #[test]
    fn drop_audit_is_violated_with_a_digest() {
        let server = Server::new(ServerConfig::deterministic(8, 128));
        let job = submit_scenario(&server, 1, "drop_audit", 100_000);
        server.drain();
        let row = &server.jobs()[job as usize];
        assert_eq!(row.verdict, Some(Verdict::Violated));
        assert!(row.counterexample.is_some());
    }

    #[test]
    fn cancel_discards_a_parked_checkpoint() {
        let server = Server::new(ServerConfig::deterministic(8, 32));
        let job = submit_scenario(&server, 1, "starver", 1_000_000);
        assert!(server.step());
        let row = &server.jobs()[job as usize];
        assert_eq!(row.state, JobState::Parked);
        match roundtrip(&server, 2, &Request::CancelJob { job }) {
            Response::Cancelled { job: j } => assert_eq!(j, job),
            other => panic!("unexpected cancel response: {other:?}"),
        }
        let row = &server.jobs()[job as usize];
        assert_eq!(row.state, JobState::Cancelled);
        assert!(row.discarded_checkpoint);
        assert!(!server.step(), "cancelled job must not run again");
        // Cancelling a terminal job is a registry error.
        match roundtrip(&server, 3, &Request::CancelJob { job }) {
            Response::Error(err) => assert_eq!(err.code, ErrorCode::JobTerminal),
            other => panic!("unexpected second cancel response: {other:?}"),
        }
    }

    #[test]
    fn budget_exhaustion_is_terminal() {
        let server = Server::new(ServerConfig::deterministic(8, 64));
        let job = submit_scenario(&server, 1, "starver", 200);
        server.drain();
        let row = &server.jobs()[job as usize];
        assert_eq!(row.state, JobState::Done);
        assert_eq!(row.verdict, Some(Verdict::BudgetExceeded));
        // The engines check the budget after admitting a state, so a
        // stopped run overshoots its cap by at most one.
        assert!(row.states_visited <= 201);
    }

    #[test]
    fn admission_control_rejects_when_full() {
        let server = Server::new(ServerConfig::deterministic(1, 64));
        submit_scenario(&server, 1, "starver", 1_000_000);
        let resp = roundtrip(
            &server,
            2,
            &Request::SubmitJob {
                spec: JobSpec::Scenario("req_resp".to_string()),
                options: JobOptions::default(),
                submit_token: None,
            },
        );
        match resp {
            Response::Error(err) => assert_eq!(err.code, ErrorCode::QueueFull),
            other => panic!("expected queue_full, got {other:?}"),
        }
    }

    #[test]
    fn round_robin_interleaves_every_runnable_job() {
        let server = Server::new(ServerConfig::deterministic(8, 64));
        let starver = submit_scenario(&server, 1, "starver", 50_000);
        let small = submit_scenario(&server, 2, "req_resp", 50_000);
        server.drain();
        let rows = server.jobs();
        assert!(rows[small as usize].state.is_terminal());
        assert!(rows[starver as usize].state.is_terminal());
        // The starver was submitted first, but the small job's completion
        // step is bounded by one round per own slice.
        let total = rows.len() as u64;
        let small_row = &rows[small as usize];
        assert!(
            small_row.completed_step.unwrap() <= small_row.slices * total + total,
            "fairness bound violated: {small_row:?}"
        );
    }

    #[test]
    fn crashed_slices_redispatch_and_converge() {
        // A clean run pins the oracle verdict…
        let clean = Server::new(ServerConfig::deterministic(8, 4));
        let job = submit_scenario(&clean, 1, "drop_audit", 100_000);
        clean.drain();
        let oracle = clean.jobs()[job as usize].clone();
        assert_eq!(oracle.verdict, Some(Verdict::Violated));
        assert!(oracle.slices >= 2, "small quantum forces several slices");

        // …then a chaos run crashes roughly every other slice. The
        // supervisor re-dispatches each crash from the pre-slice
        // checkpoint, so the verdict and digest are untouched.
        let chaos_cfg = ServerConfig {
            crash_injector: Some(Arc::new(CrashInjector::new(3, 2, 4))),
            crash_quarantine: 10_000,
            ..ServerConfig::deterministic(8, 4)
        };
        let chaos = Server::new(chaos_cfg);
        let job = submit_scenario(&chaos, 1, "drop_audit", 100_000);
        chaos.drain();
        let row = chaos.jobs()[job as usize].clone();
        assert_eq!(row.verdict, oracle.verdict);
        assert_eq!(row.counterexample, oracle.counterexample);
        assert!(
            row.crash_recoveries >= 1,
            "seed 3 must crash at least once: {row:?}"
        );
        // The final report carries the supervision counter.
        let report = chaos.redacted_report(job).expect("terminal report");
        assert_eq!(report.counters.crash_recoveries, row.crash_recoveries);
        assert!(chaos.canonical_log().contains("crashed (recovery 1/"));
    }

    #[test]
    fn crash_looping_jobs_are_quarantined_as_poisoned() {
        // Crash every slice at the first expansion: the job can never
        // progress and hits the quarantine threshold.
        let config = ServerConfig {
            crash_injector: Some(Arc::new(CrashInjector::new(1, 1, 1))),
            crash_quarantine: 3,
            ..ServerConfig::deterministic(8, 64)
        };
        let server = Server::new(config);
        let job = submit_scenario(&server, 1, "req_resp", 100_000);
        server.drain();
        let row = &server.jobs()[job as usize];
        assert_eq!(row.state, JobState::Failed);
        assert_eq!(row.verdict, Some(Verdict::JobPoisoned));
        assert_eq!(row.crash_recoveries, 3);
        assert_eq!(row.slices, 3);
        match roundtrip(&server, 2, &Request::FetchResult { job }) {
            Response::Error(err) => assert_eq!(err.code, ErrorCode::JobPoisoned),
            other => panic!("expected job_poisoned, got {other:?}"),
        }
        assert!(server.canonical_log().contains("job_poisoned (3 crashes)"));
    }

    #[test]
    fn duplicate_submit_tokens_collapse_onto_one_job() {
        let server = Server::new(ServerConfig::deterministic(8, 64));
        let req = Request::SubmitJob {
            spec: JobSpec::Scenario("req_resp".to_string()),
            options: JobOptions::default(),
            submit_token: Some(0xfeed),
        };
        let first = match roundtrip(&server, 1, &req) {
            Response::Accepted { job } => job,
            other => panic!("submit rejected: {other:?}"),
        };
        let second = match roundtrip(&server, 2, &req) {
            Response::Accepted { job } => job,
            other => panic!("duplicate submit rejected: {other:?}"),
        };
        assert_eq!(first, second);
        assert_eq!(server.jobs().len(), 1, "one job despite two submits");
        assert!(server.canonical_log().contains("-> dedup job=0"));
    }

    #[test]
    fn lru_eviction_answers_fetch_with_result_evicted() {
        let config = ServerConfig {
            retain_results: 1,
            ..ServerConfig::deterministic(8, 64)
        };
        let server = Server::new(config);
        let first = submit_scenario(&server, 1, "req_resp", 100_000);
        let second = submit_scenario(&server, 2, "drop_audit", 100_000);
        server.drain();
        // Capacity 1: the second completion evicted the first result.
        assert_eq!(server.retained_results(), 1);
        assert!(server.jobs()[first as usize].evicted);
        match roundtrip(&server, 3, &Request::FetchResult { job: first }) {
            Response::Error(err) => assert_eq!(err.code, ErrorCode::ResultEvicted),
            other => panic!("expected result_evicted, got {other:?}"),
        }
        match roundtrip(&server, 4, &Request::FetchResult { job: second }) {
            Response::Result { verdict, .. } => assert_eq!(verdict, "violated"),
            other => panic!("survivor must fetch: {other:?}"),
        }
        assert!(server
            .canonical_log()
            .contains(&format!("evict job={first} -> result_evicted")));
    }

    #[test]
    fn ttl_expiry_evicts_on_the_next_fetch() {
        let config = ServerConfig {
            result_ttl_ns: 1_000,
            ..ServerConfig::deterministic(8, 64)
        };
        let clock = config.clock.clone().unwrap();
        let server = Server::new(config);
        let job = submit_scenario(&server, 1, "req_resp", 100_000);
        server.drain();
        match roundtrip(&server, 2, &Request::FetchResult { job }) {
            Response::Result { .. } => {}
            other => panic!("fresh result must fetch: {other:?}"),
        }
        clock.advance(10_000);
        match roundtrip(&server, 3, &Request::FetchResult { job }) {
            Response::Error(err) => assert_eq!(err.code, ErrorCode::ResultEvicted),
            other => panic!("expected result_evicted after TTL, got {other:?}"),
        }
    }

    #[test]
    fn queue_full_carries_a_retry_after_hint() {
        let server = Server::new(ServerConfig::deterministic(1, 64));
        submit_scenario(&server, 1, "starver", 1_000_000);
        let resp = roundtrip(
            &server,
            2,
            &Request::SubmitJob {
                spec: JobSpec::Scenario("req_resp".to_string()),
                options: JobOptions::default(),
                submit_token: None,
            },
        );
        match resp {
            Response::Error(err) => {
                assert_eq!(err.code, ErrorCode::QueueFull);
                let hint = err.retry_after_ns.expect("queue_full carries a hint");
                assert!(hint >= 1);
            }
            other => panic!("expected queue_full, got {other:?}"),
        }
        // After a slice ran, the hint tracks observed throughput.
        server.step();
        let resp = roundtrip(
            &server,
            3,
            &Request::SubmitJob {
                spec: JobSpec::Scenario("req_resp".to_string()),
                options: JobOptions::default(),
                submit_token: None,
            },
        );
        match resp {
            Response::Error(err) => assert!(err.retry_after_ns.unwrap() >= 1),
            other => panic!("expected queue_full, got {other:?}"),
        }
    }

    #[test]
    fn a_wedging_translation_cancels_over_the_wire_and_frees_its_worker() {
        // The negated right-nested `U` chain takes minutes to translate to
        // an automaton. Translation observes the job's cancel token, so a
        // wire cancel ends the job and the worker takes the next one.
        let server = Arc::new(Server::new(ServerConfig::default()));
        let mut spec = ddws_testkit::compgen::spec(&mut ddws_testkit::rng::XorShift::new(7));
        let link = format!("W{}.pick(x)", spec.relays[0]);
        let chain = (0..12).fold(link.clone(), |tail, _| format!("{link} U ({tail})"));
        spec.property = format!("forall x: {chain}");
        let submit = Request::SubmitJob {
            spec: JobSpec::Spec(spec),
            options: JobOptions::default(),
            submit_token: None,
        };
        let wedged = match roundtrip(&server, 1, &submit) {
            Response::Accepted { job } => job,
            other => panic!("submit rejected: {other:?}"),
        };
        let pool = server.run_workers(1);
        let wait_for = |what: &str, done: &dyn Fn(&[JobSummary]) -> bool| {
            let started = Instant::now();
            while !done(&server.jobs()) {
                assert!(
                    started.elapsed() < Duration::from_secs(30),
                    "timed out waiting for {what}: {:?}",
                    server.jobs()
                );
                std::thread::sleep(Duration::from_millis(2));
            }
        };
        wait_for("the slice to start", &|rows| {
            rows[wedged as usize].state == JobState::Running
        });
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(
            server.jobs()[wedged as usize].state,
            JobState::Running,
            "the chain must still be translating"
        );
        match roundtrip(&server, 2, &Request::CancelJob { job: wedged }) {
            Response::Cancelled { job } => assert_eq!(job, wedged),
            other => panic!("unexpected cancel response: {other:?}"),
        }
        let next = submit_scenario(&server, 3, "req_resp", 100_000);
        wait_for("both jobs to end", &|rows| {
            rows[wedged as usize].state.is_terminal() && rows[next as usize].state.is_terminal()
        });
        pool.shutdown();
        let rows = server.jobs();
        assert_eq!(rows[wedged as usize].state, JobState::Cancelled);
        assert_eq!(rows[wedged as usize].verdict, Some(Verdict::Cancelled));
        assert_eq!(rows[next as usize].verdict, Some(Verdict::Holds));
    }

    #[test]
    fn polls_are_logged_only_on_a_virtual_clock() {
        for (config, lines_per_poll) in [
            (ServerConfig::default(), 0),
            (ServerConfig::deterministic(8, 64), 1),
        ] {
            let server = Server::new(config);
            let job = submit_scenario(&server, 1, "req_resp", 100_000);
            server.drain();
            let before = server.canonical_log().lines().count();
            for i in 0..1_000 {
                roundtrip(&server, 2 * i + 2, &Request::JobStatus { job });
                match roundtrip(&server, 2 * i + 3, &Request::FetchResult { job }) {
                    Response::Result { verdict, .. } => assert_eq!(verdict, "holds"),
                    other => panic!("unexpected fetch response: {other:?}"),
                }
            }
            assert_eq!(
                server.canonical_log().lines().count(),
                before + 2_000 * lines_per_poll
            );
        }
    }

    #[test]
    fn wall_mode_workers_drain_the_queue() {
        let server = Arc::new(Server::new(ServerConfig::default()));
        let jobs: Vec<u64> = (0..4)
            .map(|i| {
                submit_scenario(
                    &server,
                    i,
                    if i % 2 == 0 { "req_resp" } else { "drop_audit" },
                    100_000,
                )
            })
            .collect();
        let pool = server.run_workers(2);
        pool.shutdown();
        for job in jobs {
            let row = &server.jobs()[job as usize];
            assert!(row.state.is_terminal(), "job {job} not terminal: {row:?}");
        }
    }
}
