//! Deterministic service-level simulation: seeded in-process clients
//! driving a [`ddws_server::Server`] event loop under `ManualClock`.
//!
//! This folds the PR 9 verification service into the whole-system DES
//! (DESIGN.md §3.11 pillars): the run is a **pure function of one `u64`
//! seed** — N simulated clients draw compgen jobs, submit them over real
//! wire frames, and the harness interleaves frame delivery, scheduler
//! quanta, status polls, telemetry drains, and planned cancellations
//! from the seed's RNG stream. Nothing reads wall time: slices advance
//! the server's `ManualClock` one tick per state expansion, so the
//! canonical service event log and every redacted run report replay
//! byte-identically from the seed.
//!
//! Invariants are *recorded*, not asserted (the violation list):
//!
//! * **termination** — every submitted job reaches a terminal state
//!   within the quantum bound;
//! * **oracle agreement** — every served verdict (and, on `violated`,
//!   the counterexample digest) equals a direct one-shot unsharded
//!   `Verifier` run with the same budget;
//! * **telemetry conservation** — each executed slice streams exactly
//!   one schema-valid run report, none lost, none duplicated;
//! * **fairness** — strict round-robin: between two consecutive slices
//!   of any job, every other job runs at most once, so a pathological
//!   tenant (the `starver` scenario) delays nobody by more than one
//!   full round of quanta;
//! * **lifecycle** — on every server row, terminal state, verdict and
//!   completion step appear together, and the verdict fixes the state
//!   (`holds`/`violated`/`budget_exceeded` ⇒ `done`, `cancelled` ⇒
//!   `cancelled`, `failed`/`job_poisoned` ⇒ `failed`).
//!
//! ## Wire-level chaos
//!
//! With a non-trivial [`FrameChaos`] profile (or `crash_in`/`skew_ns`)
//! the same run becomes hostile, still as a pure function of the seed:
//! client traffic goes through real [`ClientSession`] retry sessions
//! over a [`ChaosTransport`] that drops, duplicates, reorders, and
//! bit-flips frames; a seeded
//! [`CrashInjector`](ddws_server::CrashInjector) panics workers
//! mid-slice; retention bounds evict old results; and per-client clock
//! skew perturbs virtual time during backoff waits. The invariant set
//! tightens to the robustness contract: every submitted job still
//! drains to an oracle-exact verdict **or** a typed terminal answer
//! (`job_poisoned` for quarantined crash loops, `result_evicted` for
//! reclaimed results) — never a hang, never a panic. Telemetry drains
//! stay on the reliable direct path (drains are destructive reads, so a
//! dropped drain response would silently lose counted reports and
//! falsify the conservation law rather than test it).
//!
//! Violations are *attributed* to the draw-order index of the offending
//! job, so [`shrink_service_violation`] can fold a failing chaos run
//! into the PR 6 shrink pipeline: the spec is delta-debugged against
//! the identical RNG stream, yielding a 1-minimal spec plus the
//! minimized run's canonical trace.

use crate::sim::ShrunkFailure;
use ddws_server::{
    decode_response, encode_request, CexDigest, ClientError, ClientSession, CrashInjector,
    ErrorCode, JobOptions, JobSpec, JobState, JobSummary, Request, Response, RetryPolicy, Server,
    ServerConfig, Transport, Verdict, DEFAULT_CRASH_QUARANTINE,
};
use ddws_testkit::compgen::{self, CaseSpec};
use ddws_testkit::contract;
use ddws_testkit::faults::{corrupt_frame, FrameChaos, FrameFault};
use ddws_testkit::rng::XorShift;
use ddws_verifier::{
    AbortReason, DatabaseMode, ManualClock, Outcome, RunReport, Verifier, VerifyOptions,
};
use std::sync::Arc;

/// Parameters of one service simulation.
#[derive(Clone, Debug)]
pub struct ServiceSimOptions {
    /// Simulated clients.
    pub clients: usize,
    /// Compgen jobs drawn per client.
    pub jobs_per_client: usize,
    /// The scheduler quantum (additional states per slice).
    pub quantum_states: u64,
    /// Per-job total state budget.
    pub budget: u64,
    /// Queue admission capacity.
    pub capacity: usize,
    /// Queue the budget-explosive `starver` scenario first (client 0).
    pub starver: bool,
    /// Plan one seeded cancellation of a compgen job after ≥1 slice.
    pub cancel_one: bool,
    /// Safety bound on scheduler quanta before declaring deadlock.
    pub max_quanta: u64,
    /// Wire-frame chaos profile for client traffic ([`FrameChaos::OFF`]
    /// keeps the reliable direct wire and the pinned-seed byte
    /// identity).
    pub chaos: FrameChaos,
    /// Seeded worker-crash injection: roughly one slice in `crash_in`
    /// panics mid-expansion (0 disables).
    pub crash_in: u64,
    /// Total crashed slices before a job is quarantined as
    /// `job_poisoned`.
    pub crash_quarantine: u64,
    /// Retention-store capacity for terminal results (LRU beyond it).
    pub retain_results: usize,
    /// Retention TTL in virtual nanoseconds.
    pub result_ttl_ns: u64,
    /// Per-client clock skew: client `c`'s backoff waits advance the
    /// server's virtual clock by an extra `skew_ns * c` nanoseconds,
    /// desynchronizing retention timing across tenants (0 disables).
    pub skew_ns: u64,
    /// Deliberate harness bug, for testing that the invariants (and the
    /// shrinker behind them) actually catch divergence.
    pub bug: Option<ServiceBug>,
}

/// Deliberately-injected service-harness bugs (the shrink pipeline's
/// test fixtures — `None` in every real run).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServiceBug {
    /// Swap `holds` and `violated` on every served verdict before the
    /// oracle comparison, so conclusive jobs diverge.
    FlipVerdict,
}

impl Default for ServiceSimOptions {
    fn default() -> ServiceSimOptions {
        ServiceSimOptions {
            clients: 3,
            jobs_per_client: 2,
            quantum_states: 256,
            budget: 20_000,
            capacity: 16,
            starver: false,
            cancel_one: true,
            max_quanta: 50_000,
            chaos: FrameChaos::OFF,
            crash_in: 0,
            crash_quarantine: DEFAULT_CRASH_QUARANTINE,
            retain_results: 1024,
            result_ttl_ns: 3_600_000_000_000,
            skew_ns: 0,
            bug: None,
        }
    }
}

/// One submitted job's record: the server's row joined with the
/// client-side bookkeeping and the oracle's answer.
#[derive(Clone, Debug)]
pub struct ServiceJob {
    /// Submitting client.
    pub client: usize,
    /// Draw-order index (stable across lost submissions; the shrink
    /// override targets this).
    pub source: usize,
    /// The compgen spec (absent for scenario jobs).
    pub spec: Option<CaseSpec>,
    /// The scenario name (absent for spec jobs).
    pub scenario: Option<String>,
    /// The server's row, as of the job's fetch. When `row.evicted`, the
    /// fetch answered `result_evicted`: the verdict then comes from the
    /// row and the digest is gone.
    pub row: JobSummary,
    /// The served verdict.
    pub verdict: Option<Verdict>,
    /// The oracle's verdict label (not run for cancelled jobs).
    pub oracle: Option<String>,
    /// Served counterexample digest, on `violated`.
    pub counterexample: Option<CexDigest>,
    /// Oracle counterexample digest, on `violated`.
    pub oracle_counterexample: Option<CexDigest>,
    /// Run reports drained from the job's telemetry stream.
    pub reports: u64,
}

impl ServiceJob {
    /// Whether the served verdict is `cancelled`.
    pub fn cancelled(&self) -> bool {
        self.verdict == Some(Verdict::Cancelled)
    }
}

/// The result of one seeded service simulation.
#[derive(Clone, Debug)]
pub struct ServiceRun {
    /// The driving seed.
    pub seed: u64,
    /// The server's canonical event log (the replay unit).
    pub trace: String,
    /// Redacted final reports of every terminal job, in job order (the
    /// other half of the replay unit).
    pub redacted_reports: String,
    /// Per-job records, in admission order.
    pub jobs: Vec<ServiceJob>,
    /// Recorded invariant violations (empty on a healthy run).
    pub violations: Vec<String>,
    /// The job-attributable subset of `violations`, keyed by draw-order
    /// index — the shrinker's input.
    pub attributed: Vec<(usize, String)>,
    /// Scheduler quanta executed.
    pub quanta: u64,
    /// Total crashed slices re-dispatched across all jobs.
    pub crash_recoveries: u64,
    /// Frame faults the chaos transport injected (0 on a reliable wire).
    pub wire_faults: u64,
}

/// The oracle: a direct, one-shot, unsharded run of the same case under
/// the same total budget. Returns the verdict label and, on `violated`,
/// the counterexample digest.
fn oracle_verdict(
    case: &compgen::Case,
    options: &JobOptions,
) -> Result<(String, Option<CexDigest>), String> {
    let mut verifier = Verifier::new(case.composition.clone());
    let opts = VerifyOptions {
        database: DatabaseMode::Fixed(case.database.clone()),
        fresh_values: options.fresh_values,
        max_states: options.budget,
        valuation_threads: Some(1),
        ..VerifyOptions::default()
    };
    let report = verifier
        .check_str(&case.property, &opts)
        .map_err(|e| format!("oracle failed: {e}"))?;
    Ok(match report.outcome {
        Outcome::Holds => ("holds".to_string(), None),
        Outcome::Violated(cex) => {
            let digest = CexDigest {
                values: cex
                    .valuation
                    .iter()
                    .map(|&(_, v)| case.composition.symbols.name(v).to_string())
                    .collect(),
                prefix_len: cex.prefix.len() as u64,
                cycle_len: cex.cycle.len() as u64,
            };
            ("violated".to_string(), Some(digest))
        }
        Outcome::Inconclusive(inc) => match inc.reason {
            AbortReason::StateBudget { .. } => ("budget_exceeded".to_string(), None),
            other => (format!("aborted ({})", other.label()), None),
        },
    })
}

/// A client [`Transport`] over an in-process [`Server`] whose frames
/// run a seeded [`FrameChaos`] gauntlet: requests vanish, arrive twice,
/// arrive late behind their successor, or arrive bit-flipped; acks
/// vanish after the server already acted. Backoff waits let the server
/// run a quantum and, under per-client skew, advance the virtual clock
/// — so the wire's hostility is itself a pure function of the seed.
pub struct ChaosTransport<'a> {
    server: &'a Server,
    clock: Option<Arc<ManualClock>>,
    chaos: FrameChaos,
    rng: XorShift,
    delayed: Option<Vec<u8>>,
    /// Extra virtual nanoseconds each backoff wait adds (the caller
    /// sets this to the active client's skew before its requests).
    pub skew_ns: u64,
    /// Frame faults injected so far.
    pub faults: u64,
}

impl<'a> ChaosTransport<'a> {
    /// A chaos transport over `server` with its own fault RNG stream
    /// (decorrelated from the schedule and the client sessions).
    pub fn new(
        server: &'a Server,
        clock: Option<Arc<ManualClock>>,
        chaos: FrameChaos,
        seed: u64,
    ) -> ChaosTransport<'a> {
        ChaosTransport {
            server,
            clock,
            chaos,
            rng: XorShift::new(seed ^ 0xf4a7_5f4a_75f4_a75f),
            delayed: None,
            skew_ns: 0,
            faults: 0,
        }
    }

    /// Delivers a frame, letting any delayed predecessor land first
    /// (its displaced response is discarded — that client retried long
    /// ago).
    fn deliver(&mut self, frame: &[u8]) -> Vec<u8> {
        if let Some(stale) = self.delayed.take() {
            self.server.handle_frame(&stale);
        }
        self.server.handle_frame(frame)
    }
}

impl Transport for ChaosTransport<'_> {
    fn call(&mut self, frame: &[u8]) -> Option<Vec<u8>> {
        match self.chaos.draw(&mut self.rng) {
            FrameFault::Deliver => Some(self.deliver(frame)),
            FrameFault::DropRequest => {
                self.faults += 1;
                None
            }
            FrameFault::DropResponse => {
                self.faults += 1;
                self.deliver(frame);
                None
            }
            FrameFault::Duplicate => {
                self.faults += 1;
                self.deliver(frame);
                Some(self.deliver(frame))
            }
            FrameFault::Delay => {
                self.faults += 1;
                if let Some(stale) = self.delayed.replace(frame.to_vec()) {
                    self.server.handle_frame(&stale);
                }
                None
            }
            FrameFault::Corrupt { offset, bit } => {
                self.faults += 1;
                let mut mangled = frame.to_vec();
                corrupt_frame(&mut mangled, offset, bit);
                Some(self.deliver(&mangled))
            }
        }
    }

    fn wait(&mut self, _ns: u64) {
        if self.skew_ns > 0 {
            if let Some(clock) = &self.clock {
                clock.advance(self.skew_ns);
            }
        }
        self.server.step();
    }
}

/// Runs one seeded service simulation. Everything — job draws, request
/// interleaving, cancellation timing, injected chaos — derives from
/// `seed`.
pub fn run_service_seed(seed: u64, opts: &ServiceSimOptions) -> ServiceRun {
    run_service_impl(seed, opts, None)
}

/// Re-runs `seed` with the job at draw-order index `job` carrying
/// `spec` instead of its drawn spec. The override is applied *after*
/// the draw phase, so the RNG stream — the schedule, every other job,
/// the chaos — is unchanged. The shrinker's re-execution primitive.
pub fn run_service_seed_with_override(
    seed: u64,
    opts: &ServiceSimOptions,
    job: usize,
    spec: &CaseSpec,
) -> ServiceRun {
    run_service_impl(seed, opts, Some((job, spec)))
}

fn run_service_impl(
    seed: u64,
    opts: &ServiceSimOptions,
    case_override: Option<(usize, &CaseSpec)>,
) -> ServiceRun {
    let mut rng = XorShift::new(seed ^ 0x5e17_1ce0_5e17_1ce0);
    let clock = Arc::new(ManualClock::new(0));
    let server = Server::new(ServerConfig {
        capacity: opts.capacity,
        quantum_states: opts.quantum_states,
        clock: Some(clock.clone()),
        progress_interval: None,
        crash_quarantine: opts.crash_quarantine,
        retain_results: opts.retain_results,
        result_ttl_ns: opts.result_ttl_ns,
        crash_injector: (opts.crash_in > 0).then(|| {
            Arc::new(CrashInjector::new(
                seed,
                opts.crash_in,
                opts.quantum_states.max(1),
            ))
        }),
    });

    // -------------------------------------------------------------
    // Draw phase: the job corpus, in client-submission order.
    // -------------------------------------------------------------
    let mut pending: Vec<(usize, JobSpec, JobOptions)> = Vec::new();
    if opts.starver {
        pending.push((
            0,
            JobSpec::Scenario("starver".to_string()),
            JobOptions {
                budget: opts.budget,
                ..JobOptions::default()
            },
        ));
    }
    for client in 0..opts.clients {
        for _ in 0..opts.jobs_per_client {
            let spec = compgen::spec(&mut rng);
            pending.push((
                client,
                JobSpec::Spec(spec),
                JobOptions {
                    budget: opts.budget,
                    ..JobOptions::default()
                },
            ));
        }
    }
    // One planned cancellation: a compgen job (never the starver, whose
    // point is to stay pathological) after 1–3 slices.
    let cancel_plan: Option<(usize, u64)> = if opts.cancel_one && !pending.is_empty() {
        let first_compgen = usize::from(opts.starver);
        let idx = first_compgen + rng.below((pending.len() - first_compgen) as u64) as usize;
        Some((idx, 1 + rng.below(3)))
    } else {
        None
    };
    // The shrink override swaps one drawn spec *after* every draw above,
    // leaving the RNG stream — and so the whole schedule — untouched.
    if let Some((idx, spec)) = case_override {
        assert!(
            matches!(pending[idx].1, JobSpec::Spec(_)),
            "override targets a drawn spec job"
        );
        pending[idx].1 = JobSpec::Spec(spec.clone());
    }

    // Chaos plumbing: retry sessions plus a faulty transport. On the
    // reliable profile these stay unused and the direct wire below
    // keeps the pinned seeds byte-identical.
    let wire_chaos = opts.chaos != FrameChaos::OFF || opts.skew_ns > 0;
    let mut sessions: Vec<ClientSession> = (0..opts.clients.max(1))
        .map(|c| {
            ClientSession::new(
                seed ^ (c as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                RetryPolicy {
                    max_attempts: 32,
                    ..RetryPolicy::default()
                },
            )
        })
        .collect();
    let mut transport = ChaosTransport::new(&server, Some(clock), opts.chaos, seed);

    let mut violations: Vec<String> = Vec::new();
    let mut attributed: Vec<(usize, String)> = Vec::new();
    let mut jobs: Vec<ServiceJob> = Vec::new();
    let mut next_request_id: u64 = 1;
    let send = |server: &Server, req: &Request, id: &mut u64| -> Response {
        let frame = encode_request(*id, req);
        let bytes = server.handle_frame(&frame);
        let (rid, resp, _) = decode_response(&bytes).expect("server frames decode");
        assert_eq!(rid, *id, "correlation id echoes");
        *id += 1;
        resp
    };

    // -------------------------------------------------------------
    // Interleaving phase: submissions, quanta, polls, cancellations —
    // all drawn from the seed.
    // -------------------------------------------------------------
    let mut submitted = 0usize;
    let mut quanta = 0u64;
    let mut cancel_sent = false;
    loop {
        let runnable = server.has_runnable();
        let can_submit = submitted < pending.len();
        if !runnable && !can_submit {
            break;
        }
        let executed = if wire_chaos { server.steps() } else { quanta };
        if executed >= opts.max_quanta {
            violations.push(format!(
                "deadlock: {} quanta without quiescence",
                opts.max_quanta
            ));
            break;
        }

        // A planned cancel fires as soon as its target has run enough
        // slices (and before the next quantum, so it lands on a *parked*
        // checkpoint).
        if let Some((idx, after_slices)) = cancel_plan {
            if !cancel_sent {
                if let Some(job) = jobs.iter().find(|j| j.source == idx) {
                    let row = server.job(job.row.job).expect("accepted job has a row");
                    if !row.state.is_terminal() && row.slices >= after_slices {
                        let req = Request::CancelJob { job: row.job };
                        if wire_chaos {
                            // A duplicated or retried cancel can land on
                            // an already-terminal job; that typed answer
                            // is fine.
                            transport.skew_ns = opts.skew_ns * job.client as u64;
                            let _ = sessions[job.client].request(&mut transport, &req);
                        } else {
                            send(&server, &req, &mut next_request_id);
                        }
                        cancel_sent = true;
                        continue;
                    }
                }
            }
        }

        // Bias toward submitting early (front-loads contention), then
        // interleave quanta with occasional wire polls.
        if can_submit && (!runnable || rng.chance(2, 5)) {
            let (client, spec, options) = pending[submitted].clone();
            let source = submitted;
            let accepted: Option<u64> = if wire_chaos {
                transport.skew_ns = opts.skew_ns * client as u64;
                match sessions[client].submit(&mut transport, spec.clone(), options.clone()) {
                    Ok(job) => Some(job),
                    Err(e) => {
                        violations.push(format!("submission {source} lost to the wire: {e}"));
                        None
                    }
                }
            } else {
                match send(
                    &server,
                    &Request::SubmitJob {
                        spec: spec.clone(),
                        options: options.clone(),
                        submit_token: None,
                    },
                    &mut next_request_id,
                ) {
                    Response::Accepted { job } => Some(job),
                    Response::Error(err) => {
                        violations.push(format!(
                            "submission {submitted} rejected below capacity: {err}"
                        ));
                        None
                    }
                    other => {
                        violations.push(format!("unexpected submit response: {other:?}"));
                        None
                    }
                }
            };
            if let Some(job) = accepted {
                jobs.push(ServiceJob {
                    client,
                    source,
                    row: server.job(job).expect("accepted job has a row"),
                    spec: match &spec {
                        JobSpec::Spec(cs) => Some(cs.clone()),
                        JobSpec::Scenario(_) => None,
                    },
                    scenario: match &spec {
                        JobSpec::Scenario(name) => Some(name.clone()),
                        JobSpec::Spec(_) => None,
                    },
                    verdict: None,
                    oracle: None,
                    counterexample: None,
                    oracle_counterexample: None,
                    reports: 0,
                });
            }
            submitted += 1;
            continue;
        }

        if runnable {
            // Occasionally poke the wire mid-flight; the responses land
            // in the canonical log, widening the replay surface.
            if !jobs.is_empty() && rng.chance(1, 8) {
                let pick = rng.below(jobs.len() as u64) as usize;
                let req = Request::JobStatus {
                    job: jobs[pick].row.job,
                };
                if wire_chaos {
                    transport.skew_ns = opts.skew_ns * jobs[pick].client as u64;
                    let _ = sessions[jobs[pick].client].request(&mut transport, &req);
                } else {
                    send(&server, &req, &mut next_request_id);
                }
            }
            if !jobs.is_empty() && rng.chance(1, 8) {
                let pick = rng.below(jobs.len() as u64) as usize;
                let target = &mut jobs[pick];
                if let Response::Telemetry { reports, .. } = send(
                    &server,
                    &Request::StreamTelemetry {
                        job: target.row.job,
                    },
                    &mut next_request_id,
                ) {
                    target.reports += reports.len() as u64;
                    check_reports(&reports, target.row.job, &mut violations);
                }
            }
            server.step();
            quanta += 1;
        }
    }

    // -------------------------------------------------------------
    // Collection phase: fetch every result over the wire, drain the
    // remaining telemetry, and interrogate the oracle.
    // -------------------------------------------------------------
    for job in &mut jobs {
        let id = job.row.job;
        let row = server.job(id).expect("accepted job has a row");
        if !row.state.is_terminal() {
            let msg = format!("job {id} not terminal: {:?}", row.state);
            job.row = row;
            attributed.push((job.source, msg.clone()));
            violations.push(msg);
            continue;
        }
        if let Response::Telemetry { reports, .. } = send(
            &server,
            &Request::StreamTelemetry { job: id },
            &mut next_request_id,
        ) {
            job.reports += reports.len() as u64;
            check_reports(&reports, id, &mut violations);
        }
        let fetched: Option<Response> = if wire_chaos {
            transport.skew_ns = opts.skew_ns * job.client as u64;
            match sessions[job.client].request(&mut transport, &Request::FetchResult { job: id }) {
                Ok(resp) => Some(resp),
                Err(ClientError::Service(err)) => Some(Response::Error(err)),
                Err(e) => {
                    let msg = format!("fetch({id}) lost to the wire: {e}");
                    attributed.push((job.source, msg.clone()));
                    violations.push(msg);
                    None
                }
            }
        } else {
            Some(send(
                &server,
                &Request::FetchResult { job: id },
                &mut next_request_id,
            ))
        };
        // The fetch's retention sweep may have evicted this very result.
        job.row = server.job(id).expect("accepted job has a row");
        let Some(fetched) = fetched else {
            continue;
        };
        match fetched {
            Response::Result {
                verdict,
                counterexample,
                ..
            } => {
                job.verdict = Verdict::parse(&verdict);
                if job.verdict.is_none() {
                    let msg = format!("fetch({id}) served unknown verdict {verdict:?}");
                    attributed.push((job.source, msg.clone()));
                    violations.push(msg);
                }
                job.counterexample = counterexample;
            }
            // The two typed terminal answers of the robustness contract:
            // quarantined crash loops and reclaimed results. Both are
            // healthy outcomes, not violations.
            Response::Error(err) if err.code == ErrorCode::JobPoisoned => {
                job.verdict = Some(Verdict::JobPoisoned);
            }
            Response::Error(err) if err.code == ErrorCode::ResultEvicted => {
                job.verdict = job.row.verdict;
            }
            other => {
                let msg = format!("fetch({id}) answered {other:?}");
                attributed.push((job.source, msg.clone()));
                violations.push(msg);
            }
        }
        // Telemetry conservation: one report per executed slice —
        // crashed slices included, each streamed exactly one abort
        // report. A cancel that lands between slices terminalizes
        // without a final slice, so the bound is exact for uncancelled
        // jobs.
        if !job.cancelled() && job.reports != job.row.slices {
            let msg = format!(
                "job {id}: {} slices but {} streamed reports",
                job.row.slices, job.reports
            );
            attributed.push((job.source, msg.clone()));
            violations.push(msg);
        }

        if job.cancelled() {
            continue;
        }
        if opts.bug == Some(ServiceBug::FlipVerdict) {
            job.verdict = job.verdict.map(|v| match v {
                Verdict::Holds => Verdict::Violated,
                Verdict::Violated => Verdict::Holds,
                other => other,
            });
        }
        if job.verdict == Some(Verdict::JobPoisoned) {
            // Quarantine is the injector's doing, not the case's; there
            // is no oracle for a job the chaos never let finish.
            continue;
        }
        let case = match (&job.spec, &job.scenario) {
            (Some(spec), _) => spec.build().expect("submitted spec builds"),
            (None, Some(name)) => ddws_server::scenario(name).expect("known scenario"),
            (None, None) => unreachable!("job has a source"),
        };
        let options = JobOptions {
            budget: opts.budget,
            ..JobOptions::default()
        };
        match oracle_verdict(&case, &options) {
            Ok((verdict, digest)) => {
                let served = job.verdict.map(Verdict::label);
                if served != Some(verdict.as_str()) {
                    let msg = format!("job {id}: served {served:?}, oracle {verdict:?}");
                    attributed.push((job.source, msg.clone()));
                    violations.push(msg);
                }
                // Eviction reclaims the counterexample with the report,
                // so only the verdict remains comparable.
                if !job.row.evicted && digest != job.counterexample {
                    let msg = format!(
                        "job {id}: served counterexample {:?}, oracle {:?}",
                        job.counterexample, digest
                    );
                    attributed.push((job.source, msg.clone()));
                    violations.push(msg);
                }
                job.oracle = Some(verdict);
                job.oracle_counterexample = digest;
            }
            Err(e) => {
                let msg = format!("job {id}: {e}");
                attributed.push((job.source, msg.clone()));
                violations.push(msg);
            }
        }
    }

    // Fairness: the strict round-robin law, checked on the slice events
    // of the canonical log.
    let trace = server.canonical_log();
    violations.extend(fairness_violations(&trace));
    violations.extend(lifecycle_violations(&server.jobs()));

    ServiceRun {
        seed,
        redacted_reports: ddws_server::redacted_reports(&server),
        trace,
        crash_recoveries: jobs.iter().map(|j| j.row.crash_recoveries).sum(),
        wire_faults: transport.faults,
        jobs,
        violations,
        attributed,
        quanta: if wire_chaos { server.steps() } else { quanta },
    }
}

impl ServiceRun {
    /// The first attributed violation whose job is a drawn compgen spec
    /// (scenario jobs — e.g. the starver — have nothing to shrink).
    pub fn shrinkable_violation(&self) -> Option<usize> {
        self.attributed.iter().map(|(idx, _)| *idx).find(|idx| {
            self.jobs
                .iter()
                .any(|j| j.source == *idx && j.spec.is_some())
        })
    }
}

/// Folds a failing service run into the shrink pipeline: the violating
/// job's spec is delta-debugged with [`compgen::minimize_spec`] against
/// the *identical* RNG stream (same seed, same schedule and chaos, spec
/// swapped in after the draw phase), keeping a cut iff the re-run still
/// attributes a violation to the same job. Returns the 1-minimal spec
/// plus the minimized run's canonical trace, or `None` when no
/// violation is attributable to a spec job.
pub fn shrink_service_violation(
    run: &ServiceRun,
    opts: &ServiceSimOptions,
) -> Option<ShrunkFailure> {
    let job = run.shrinkable_violation()?;
    let spec = run
        .jobs
        .iter()
        .find(|j| j.source == job)
        .and_then(|j| j.spec.clone())?;
    let min = compgen::minimize_spec(&spec, |cand| {
        run_service_seed_with_override(run.seed, opts, job, cand)
            .attributed
            .iter()
            .any(|(j, _)| *j == job)
    });
    let rerun = run_service_seed_with_override(run.seed, opts, job, &min);
    Some(ShrunkFailure {
        seed: run.seed,
        job,
        spec,
        min,
        violations: run.attributed.clone(),
        trace: rerun.trace,
    })
}

/// Schema-validates a batch of streamed slice reports.
fn check_reports(reports: &[RunReport], job: u64, violations: &mut Vec<String>) {
    for r in reports {
        let slice = std::slice::from_ref(r);
        if let Err(e) = contract::report_contract(slice, &format!("job {job} slice report")) {
            violations.push(e);
        }
    }
}

/// The strict round-robin fairness law, on the canonical log: between
/// two consecutive `slice` events of any job, every other job appears at
/// most once — i.e. nobody waits more than one full round of quanta.
pub fn fairness_violations(trace: &str) -> Vec<String> {
    let mut violations = Vec::new();
    let slices: Vec<u64> = trace
        .lines()
        .filter_map(|line| {
            let rest = line.strip_prefix("slice job=")?;
            rest.split_whitespace().next()?.parse().ok()
        })
        .collect();
    let mut last_seen: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
    for (i, &job) in slices.iter().enumerate() {
        if let Some(&prev) = last_seen.get(&job) {
            let between = &slices[prev + 1..i];
            let mut seen = std::collections::HashSet::new();
            for &other in between {
                if !seen.insert(other) {
                    violations.push(format!(
                        "fairness: job {other} ran twice between consecutive slices of job {job} \
                         (positions {prev}..{i})"
                    ));
                }
            }
        }
        last_seen.insert(job, i);
    }
    violations
}

/// The job-lifecycle law, on the server's rows: terminal state, verdict
/// and completion step appear together, and the verdict fixes the
/// terminal state.
pub fn lifecycle_violations(rows: &[JobSummary]) -> Vec<String> {
    let mut violations = Vec::new();
    for row in rows {
        let terminal = row.state.is_terminal();
        if row.verdict.is_some() != terminal || row.completed_step.is_some() != terminal {
            violations.push(format!(
                "lifecycle: job {} is {} with verdict {:?} and completed_step {:?}",
                row.job,
                row.state.as_str(),
                row.verdict,
                row.completed_step
            ));
        }
        let Some(verdict) = row.verdict else {
            continue;
        };
        let expected = match verdict {
            Verdict::Holds | Verdict::Violated | Verdict::BudgetExceeded => JobState::Done,
            Verdict::Cancelled => JobState::Cancelled,
            Verdict::Failed | Verdict::JobPoisoned => JobState::Failed,
        };
        if row.state != expected {
            violations.push(format!(
                "lifecycle: job {} has verdict {} but state {}",
                row.job,
                verdict.label(),
                row.state.as_str()
            ));
        }
    }
    violations
}
