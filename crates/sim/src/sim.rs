//! The seeded discrete-event simulator (DESIGN.md §3.11).
//!
//! One [`run_seed`] call is a pure function of its `u64` seed: it draws a
//! set of concurrent verification jobs from the compgen corpus (callers
//! can append fixed scenario jobs), schedules them cooperatively in
//! random order, preempts each time slice through a [`SearchLimits`]
//! deadline on a shared **virtual clock** (advanced by the fault hook,
//! one tick per state expansion — so "time" is a deterministic function
//! of the schedule), injects planned crashes (worker panics) and
//! cancellations, resumes checkpoints across slices via
//! [`Verifier::resume`], and perturbs channel queues (loss, duplication,
//! reorder) through the model's successor interface.
//!
//! Invariants checked while the run unfolds, each recorded as a
//! stable-prefixed violation instead of a panic so the swarm can shrink:
//!
//! * `report:` — every slice emits exactly one schema-valid, coherent
//!   [`RunReport`] ([`contract::report_contract`]);
//! * `divergence:` — a job's terminal verdict must agree with an
//!   unfaulted oracle run of the same case and budget under the legacy
//!   state representation (jobs themselves draw compact or legacy states
//!   per seed, so half the corpus is a cross-representation differential
//!   with crash/resume in the loop);
//! * `panic:` — only planned crashes may panic, with the injected
//!   payload, and the attached report must match the emitted one;
//! * `deadlock:` — every job terminates within the slice bound;
//! * `walk:` / `closure:` — the channel-perturbation invariants of
//!   [`crate::channel`].
//!
//! [`SearchLimits`]: ddws_automata::SearchLimits

use crate::channel;
use crate::event::{canonical_trace, SimEvent};
use ddws_automata::{Clock, ClockHandle, ManualClock};
use ddws_model::Composition;
use ddws_relational::Instance;
use ddws_testkit::rng::XorShift;
use ddws_testkit::{compgen, contract, faults};
use ddws_verifier::{
    BufferReporter, CancelToken, Checkpoint, DatabaseMode, FaultHook, Outcome, Reduction,
    ReporterHandle, RuleEval, RunReport, StateRepr, Verifier, VerifyError, VerifyOptions,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

/// Test-only bug injection: deliberately break one sim-level invariant so
/// the swarm's catch-and-shrink path stays exercised (the acceptance
/// criterion of DESIGN.md §3.11).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimBug {
    /// Silently discard the run report of job 0's first slice — the
    /// lost-report invariant must fire.
    DropReport,
    /// Flip every conclusive job verdict before recording it — the
    /// oracle-divergence invariant must fire.
    FlipVerdict,
}

/// Simulation parameters. Everything that shapes the run is here (and in
/// the seed); nothing reads ambient state.
#[derive(Clone, Debug)]
pub struct SimOptions {
    /// Concurrent verification jobs drawn from the compgen corpus.
    pub drawn_jobs: usize,
    /// Virtual-time length of one preempted slice, nanoseconds.
    pub slice_ns: u64,
    /// Virtual nanoseconds the clock advances per state expansion.
    pub tick_ns: u64,
    /// Number of leading slices that carry a deadline; later slices run
    /// to completion (guarantees termination).
    pub preempt_slices: u32,
    /// Hard per-job slice bound; exceeding it is a `deadlock:` violation.
    pub max_slices: u32,
    /// Per-job state budget (escalated ×4 once if it trips).
    pub state_budget: u64,
    /// Steps of the perturbed channel walk per job.
    pub walk_steps: u32,
    /// Reachable-set cap for the loss-closure check (job 0 only); the
    /// check is skipped when the cap is hit.
    pub closure_cap: usize,
    /// Test-only bug injection (see [`SimBug`]).
    pub bug: Option<SimBug>,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            drawn_jobs: 3,
            slice_ns: 30_000,
            tick_ns: 64,
            preempt_slices: 5,
            max_slices: 24,
            state_budget: 30_000,
            walk_steps: 10,
            closure_cap: 4_000,
            bug: None,
        }
    }
}

/// A verification job fed to the simulator.
#[derive(Clone)]
pub enum JobSource {
    /// A job drawn from (or shrunk within) the compgen corpus.
    Compgen(compgen::CaseSpec),
    /// A fixed job — typically a scenario-library composition.
    Fixed {
        /// Display name for the trace.
        name: String,
        /// The composition under verification (boxed: a composition is
        /// hundreds of bytes and the enum is cloned per run).
        composition: Box<Composition>,
        /// Its database instance.
        database: Instance,
        /// The property to check.
        property: String,
    },
}

/// The per-job outcome of a finished simulation.
#[derive(Clone, Debug)]
pub struct JobRecord {
    /// `compgen` or the fixed job's name.
    pub kind: String,
    /// The property verified.
    pub property: String,
    /// The compgen spec the job was built from (None for fixed jobs) —
    /// the shrinker's substrate.
    pub spec: Option<compgen::CaseSpec>,
    /// The state representation the job's searches ran under (held
    /// across every slice, resume, and restart of the job).
    pub state_repr: StateRepr,
    /// The outer valuation-shard count the job's searches ran under
    /// (drawn from the walk seed; `None` is the unsharded loop).
    pub valuation_threads: Option<usize>,
    /// Terminal verdict label.
    pub verdict: String,
    /// The unfaulted oracle's verdict label.
    pub oracle: Option<String>,
    /// Slices consumed.
    pub slices: u32,
    /// Crash-induced fresh restarts.
    pub restarts: u32,
    /// Final run report of every slice, in slice order.
    pub reports: Vec<RunReport>,
}

/// A finished simulation run: the canonical event trace, per-job
/// records, and any invariant violations (empty on a healthy run).
#[derive(Clone, Debug)]
pub struct SimRun {
    /// The seed the run is a pure function of.
    pub seed: u64,
    /// The canonical event list.
    pub events: Vec<SimEvent>,
    /// Per-job outcomes, in job order.
    pub jobs: Vec<JobRecord>,
    /// Invariant violations, `(job, stable-prefixed detail)`.
    pub violations: Vec<(usize, String)>,
}

impl SimRun {
    /// The canonical newline-separated trace (the replay contract:
    /// byte-identical across runs of the same seed).
    pub fn canonical_trace(&self) -> String {
        canonical_trace(&self.events)
    }

    /// The first violation attributable to a *shrinkable* (compgen) job,
    /// excluding `error:` entries (those reject shrink cuts rather than
    /// witness sim bugs).
    pub fn shrinkable_violation(&self) -> Option<usize> {
        self.violations
            .iter()
            .find(|(j, d)| !d.starts_with("error:") && self.jobs[*j].spec.is_some())
            .map(|(j, _)| *j)
    }
}

/// Runs the simulation for `seed` with compgen-drawn jobs only.
pub fn run_seed(seed: u64, opts: &SimOptions) -> SimRun {
    run_impl(seed, opts, &[], None)
}

/// Runs the simulation for `seed` with extra fixed jobs appended after
/// the drawn ones (scenario-library corpus).
pub fn run_with_jobs(seed: u64, opts: &SimOptions, extra: &[JobSource]) -> SimRun {
    run_impl(seed, opts, extra, None)
}

/// Re-runs the simulation for `seed` with job `job`'s spec replaced by
/// `spec` *after* all random draws — the RNG stream, the schedule, and
/// every other job are unchanged, so the shrinker minimizes the spec
/// against the exact failing schedule.
pub fn run_with_case_override(
    seed: u64,
    opts: &SimOptions,
    job: usize,
    spec: &compgen::CaseSpec,
) -> SimRun {
    run_impl(seed, opts, &[], Some((job, spec)))
}

/// The outcome of shrinking a failing run, from either harness
/// ([`shrink_first_violation`] or
/// [`shrink_service_violation`](crate::shrink_service_violation)): the
/// seed, the violating job, its original and 1-minimal specs, the
/// failing run's violations, and the minimized schedule's trace.
#[derive(Clone, Debug)]
pub struct ShrunkFailure {
    /// The failing seed.
    pub seed: u64,
    /// The job the first shrinkable violation is attributed to.
    pub job: usize,
    /// The job's original spec.
    pub spec: compgen::CaseSpec,
    /// The 1-minimal spec that still violates under the same schedule.
    pub min: compgen::CaseSpec,
    /// The failing run's violations attributed to a job, `(job, detail)`.
    pub violations: Vec<(usize, String)>,
    /// The canonical trace of the re-run under `min` — the minimized
    /// schedule.
    pub trace: String,
}

/// Runs `seed`; if an invariant violation is attributable to a compgen
/// job, delta-debugs that job's spec with [`compgen::minimize_spec`] down
/// to a 1-minimal spec that still produces a violation under the
/// identical schedule. Returns `None` when the run is healthy (or only
/// fixed jobs violated).
pub fn shrink_first_violation(seed: u64, opts: &SimOptions) -> Option<ShrunkFailure> {
    let run = run_seed(seed, opts);
    let job = run.shrinkable_violation()?;
    let spec = run.jobs[job]
        .spec
        .clone()
        .expect("shrinkable job has a spec");
    let min = compgen::minimize_spec(&spec, |cand| {
        run_with_case_override(seed, opts, job, cand)
            .violations
            .iter()
            .any(|(j, d)| *j == job && !d.starts_with("error:"))
    });
    let trace = run_with_case_override(seed, opts, job, &min).canonical_trace();
    Some(ShrunkFailure {
        seed,
        job,
        spec,
        min,
        violations: run.violations,
        trace,
    })
}

// ---------------------------------------------------------------------
// Internals
// ---------------------------------------------------------------------

struct Job {
    id: usize,
    kind: String,
    spec: Option<compgen::CaseSpec>,
    composition: Composition,
    database: Instance,
    property: String,
    verifier: Verifier,
    reduction: Reduction,
    rule_eval: RuleEval,
    state_repr: StateRepr,
    /// Outer valuation shards the job's checks run under (held across
    /// every slice, resume, and restart — a checkpoint pins it).
    valuation_threads: Option<usize>,
    /// Planned crash / cancellation: (slice, expansion ordinal).
    crash: Option<(u32, u64)>,
    cancel: Option<(u32, u64)>,
    walk_seed: u64,
    budget: u64,
    budget_raised: bool,
    checkpoint: Option<Checkpoint>,
    slices: u32,
    restarts: u32,
    verdict: Option<String>,
    oracle: Option<String>,
    reports: Vec<RunReport>,
}

impl Job {
    fn base_opts(&self) -> VerifyOptions {
        VerifyOptions {
            database: DatabaseMode::Fixed(self.database.clone()),
            fresh_values: Some(1),
            max_states: self.budget,
            threads: None, // sequential: byte-identical traces and stats
            // Outer sharding stays deterministic under the sim's manual
            // clock (the scheduler's cooperative mode), so multi-shard
            // checkpoint/resume is swarm-covered without losing replay.
            valuation_threads: self.valuation_threads,
            reduction: self.reduction,
            rule_eval: self.rule_eval,
            state_repr: self.state_repr,
            progress_interval: None,
            ..VerifyOptions::default()
        }
    }
}

fn verdict_label(outcome: &Outcome) -> &'static str {
    match outcome {
        Outcome::Holds => "holds",
        Outcome::Violated(_) => "violated",
        Outcome::Inconclusive(_) => "inconclusive",
    }
}

fn run_impl(
    seed: u64,
    opts: &SimOptions,
    extra: &[JobSource],
    override_spec: Option<(usize, &compgen::CaseSpec)>,
) -> SimRun {
    let mut rng = XorShift::new(seed);
    let clock = Arc::new(ManualClock::new(0));
    let mut events: Vec<SimEvent> = Vec::new();
    let mut violations: Vec<(usize, String)> = Vec::new();

    // --- Draw phase. All randomness is consumed here and in the
    // scheduler picks below; the case override happens after the draws,
    // so it never shifts the stream.
    let mut sources: Vec<JobSource> = (0..opts.drawn_jobs)
        .map(|_| JobSource::Compgen(compgen::spec(&mut rng)))
        .collect();
    sources.extend(extra.iter().cloned());

    struct Plan {
        reduction: Reduction,
        rule_eval: RuleEval,
        crash: Option<(u32, u64)>,
        cancel: Option<(u32, u64)>,
        walk_seed: u64,
    }
    let plans: Vec<Plan> = (0..sources.len())
        .map(|_| Plan {
            reduction: if rng.bool() {
                Reduction::Ample
            } else {
                Reduction::Full
            },
            rule_eval: if rng.bool() {
                RuleEval::Compiled
            } else {
                RuleEval::Interpreted
            },
            crash: rng
                .chance(1, 3)
                .then(|| (rng.below(4) as u32, rng.below(40) + 1)),
            cancel: rng
                .chance(1, 3)
                .then(|| (rng.below(4) as u32, rng.below(40) + 1)),
            walk_seed: rng.next_u64(),
        })
        .collect();

    let mut jobs: Vec<Job> = Vec::new();
    for (id, (source, plan)) in sources.into_iter().zip(plans).enumerate() {
        let (kind, spec, composition, database, property) = match source {
            JobSource::Compgen(s) => {
                let s = match override_spec {
                    Some((j, o)) if j == id => o.clone(),
                    _ => s,
                };
                let case = s.build().expect("sim spec builds");
                (
                    "compgen".to_string(),
                    Some(s),
                    case.composition,
                    case.database,
                    case.property,
                )
            }
            JobSource::Fixed {
                name,
                composition,
                database,
                property,
            } => (name, None, *composition, database, property),
        };
        events.push(SimEvent::JobSubmitted {
            job: id,
            kind: kind.clone(),
            property: property.clone(),
        });
        jobs.push(Job {
            id,
            kind,
            spec,
            verifier: Verifier::new(composition.clone()),
            composition,
            database,
            property,
            reduction: plan.reduction,
            rule_eval: plan.rule_eval,
            // Drawn from the walk seed's parity bit rather than a fresh
            // `rng.bool()`: the RNG stream is untouched, so every pinned
            // schedule from before representations existed replays
            // unchanged. The bit is *reused*, not consumed — the walk
            // itself keeps its full seed.
            state_repr: if plan.walk_seed & 1 == 0 {
                StateRepr::Compact
            } else {
                StateRepr::Legacy
            },
            // Same reuse trick, bits 1-2: outer valuation shards. The
            // verdict is shard-independent (deterministic winner rule), so
            // the oracle cross-check below doubles as a determinism check
            // for the shard scheduler's cooperative mode.
            valuation_threads: match (plan.walk_seed >> 1) & 3 {
                0 => None,
                1 => Some(1),
                2 => Some(2),
                _ => Some(3),
            },
            crash: plan.crash,
            cancel: plan.cancel,
            walk_seed: plan.walk_seed,
            budget: opts.state_budget,
            budget_raised: false,
            checkpoint: None,
            slices: 0,
            restarts: 0,
            verdict: None,
            oracle: None,
            reports: Vec::new(),
        });
    }

    // --- Cooperative scheduler: random order, one slice per grant.
    let mut live: Vec<usize> = (0..jobs.len()).collect();
    while !live.is_empty() {
        let pick = live[rng.below(live.len() as u64) as usize];
        run_slice(&mut jobs[pick], opts, &clock, &mut events, &mut violations);
        if jobs[pick].verdict.is_some() {
            live.retain(|&j| j != pick);
            finish_job(&mut jobs[pick], opts, &mut events, &mut violations);
        }
    }

    SimRun {
        seed,
        events,
        jobs: jobs
            .into_iter()
            .map(|j| JobRecord {
                kind: j.kind,
                property: j.property,
                spec: j.spec,
                state_repr: j.state_repr,
                valuation_threads: j.valuation_threads,
                verdict: j.verdict.unwrap_or_else(|| "unknown".to_string()),
                oracle: j.oracle,
                slices: j.slices,
                restarts: j.restarts,
                reports: j.reports,
            })
            .collect(),
        violations,
    }
}

/// Grants one time slice to `job`: arms a fresh deadline on the shared
/// virtual clock (for the leading `preempt_slices` slices), wires the
/// planned crash/cancel fault for this slice into the hook, and runs
/// either a fresh `check` or a checkpoint `resume`.
fn run_slice(
    job: &mut Job,
    opts: &SimOptions,
    clock: &Arc<ManualClock>,
    events: &mut Vec<SimEvent>,
    violations: &mut Vec<(usize, String)>,
) {
    let slice = job.slices;
    job.slices += 1;
    if slice >= opts.max_slices {
        violations.push((
            job.id,
            format!("deadlock: job exceeded {} slices", opts.max_slices),
        ));
        events.push(SimEvent::Violation {
            job: job.id,
            detail: "deadlock: slice bound exceeded".to_string(),
        });
        job.verdict = Some("deadlock".to_string());
        return;
    }
    events.push(SimEvent::SliceStarted {
        job: job.id,
        slice,
        now_ns: clock.now_ns(),
    });

    let crash_at = job.crash.and_then(|(s, o)| (s == slice).then_some(o));
    let cancel_at = job.cancel.and_then(|(s, o)| (s == slice).then_some(o));
    let token = CancelToken::new();
    let hook: FaultHook = {
        let clock = clock.clone();
        let token = token.clone();
        let tick_ns = opts.tick_ns;
        Arc::new(move |tick: u64| {
            // Virtual time is a function of work done: one tick per
            // state expansion.
            clock.advance(tick_ns);
            if Some(tick) == cancel_at {
                token.cancel("sim: scheduled cancellation");
            }
            if Some(tick) == crash_at {
                panic!("{}: sim crash at expansion {tick}", faults::INJECTED_PANIC);
            }
        })
    };

    let buf = Arc::new(BufferReporter::new());
    let mut vopts = job.base_opts();
    vopts.max_states = job.budget;
    vopts.reporter = ReporterHandle::new(buf.clone());
    vopts.cancel_token = Some(token);
    vopts.fault_hook = Some(hook);
    vopts.clock = Some(clock.clone() as ClockHandle);
    if slice < opts.preempt_slices {
        vopts.deadline = Some(Duration::from_nanos(opts.slice_ns));
    }

    let result = match job.checkpoint.take() {
        Some(cp) => {
            events.push(SimEvent::Resumed { job: job.id, slice });
            job.verifier.resume(cp, &vopts)
        }
        None => job.verifier.check_str(&job.property, &vopts),
    };

    // The report-emission contract holds on every slice, whatever
    // happened inside — unless the injected sim bug eats the report.
    let mut reports = buf.take_reports();
    if opts.bug == Some(SimBug::DropReport) && job.id == 0 && slice == 0 {
        reports.clear();
    }
    let label = format!("sim seed job {} slice {slice}", job.id);
    let emitted = match contract::report_contract(&reports, &label) {
        Ok(r) => {
            let r = r.clone();
            job.reports.push(r.clone());
            Some(r)
        }
        Err(e) => {
            violations.push((job.id, format!("report: {e}")));
            events.push(SimEvent::Violation {
                job: job.id,
                detail: format!("report: {e}"),
            });
            None
        }
    };

    match result {
        Ok(report) => {
            let states = report.stats.states_visited;
            match report.outcome {
                Outcome::Holds | Outcome::Violated(_) => {
                    let verdict = verdict_label(&report.outcome).to_string();
                    events.push(SimEvent::SliceEnded {
                        job: job.id,
                        slice,
                        outcome: verdict.clone(),
                        states,
                    });
                    job.verdict = Some(verdict);
                }
                Outcome::Inconclusive(inc) => {
                    let lbl = inc.reason.label().to_string();
                    events.push(SimEvent::SliceEnded {
                        job: job.id,
                        slice,
                        outcome: lbl.clone(),
                        states,
                    });
                    match inc.checkpoint {
                        Some(cp) if lbl != "budget_exceeded" => job.checkpoint = Some(cp),
                        Some(cp) if !job.budget_raised => {
                            // One budget escalation: "an Inconclusive
                            // that resumes to agreement".
                            job.budget_raised = true;
                            job.budget *= 4;
                            job.checkpoint = Some(cp);
                        }
                        Some(_) => job.verdict = Some(lbl),
                        None => {
                            // Non-resumable graceful stop: restart fresh.
                            job.restarts += 1;
                            if job.restarts > 2 {
                                violations.push((
                                    job.id,
                                    "deadlock: repeated non-resumable stops".to_string(),
                                ));
                                job.verdict = Some(lbl);
                            }
                        }
                    }
                }
            }
        }
        Err(VerifyError::WorkerPanicked {
            payload, report, ..
        }) => {
            events.push(SimEvent::CrashInjected { job: job.id, slice });
            events.push(SimEvent::SliceEnded {
                job: job.id,
                slice,
                outcome: "worker_panicked".to_string(),
                states: report.counters.states_visited,
            });
            if crash_at.is_none() {
                violations.push((job.id, format!("panic: unplanned worker panic: {payload}")));
            } else if !payload.contains(faults::INJECTED_PANIC) {
                violations.push((job.id, format!("panic: foreign panic payload: {payload}")));
            }
            if let Some(e) = emitted {
                if e != *report {
                    violations.push((
                        job.id,
                        "panic: attached report differs from the emitted one".to_string(),
                    ));
                }
            }
            // Panics are not resumable: the job restarts from scratch on
            // its next slice (crash-during-resume exercises exactly the
            // checkpoint-loss path).
            job.checkpoint = None;
            job.restarts += 1;
        }
        Err(e) => {
            violations.push((job.id, format!("error: unexpected verify error: {e}")));
            job.verdict = Some("error".to_string());
        }
    }
}

/// Terminal bookkeeping for a finished job: record the verdict (flipped
/// under the injected bug), run the unfaulted oracle, compare, then run
/// the channel-perturbation phases.
fn finish_job(
    job: &mut Job,
    opts: &SimOptions,
    events: &mut Vec<SimEvent>,
    violations: &mut Vec<(usize, String)>,
) {
    if opts.bug == Some(SimBug::FlipVerdict) {
        job.verdict = job.verdict.take().map(|v| match v.as_str() {
            "holds" => "violated".to_string(),
            "violated" => "holds".to_string(),
            other => other.to_string(),
        });
    }
    let verdict = job.verdict.clone().unwrap_or_default();
    events.push(SimEvent::JobFinished {
        job: job.id,
        verdict: verdict.clone(),
        slices: job.slices,
        restarts: job.restarts,
    });

    // Unfaulted oracle: same case, same engine shape, same final budget,
    // no clock, no deadline, no faults — and always the *legacy* state
    // representation, the representation of record. A job that drew
    // `StateRepr::Compact` therefore has its sliced, faulted, interned
    // run cross-checked against the uninterned baseline.
    let mut v = Verifier::new(job.composition.clone());
    let mut oracle_opts = job.base_opts();
    oracle_opts.max_states = job.budget;
    oracle_opts.state_repr = StateRepr::Legacy;
    // The oracle is the unsharded baseline: a job that drew outer shards
    // has its faulted, sharded run cross-checked against the sequential
    // valuation loop.
    oracle_opts.valuation_threads = None;
    let oracle = match v.check_str(&job.property, &oracle_opts) {
        Ok(r) => match &r.outcome {
            Outcome::Inconclusive(inc) => inc.reason.label().to_string(),
            other => verdict_label(other).to_string(),
        },
        Err(e) => {
            violations.push((job.id, format!("error: oracle failed: {e}")));
            "error".to_string()
        }
    };
    events.push(SimEvent::OracleFinished {
        job: job.id,
        verdict: oracle.clone(),
    });
    job.oracle = Some(oracle.clone());

    let conclusive = |s: &str| s == "holds" || s == "violated";
    if conclusive(&verdict) && conclusive(&oracle) && verdict != oracle {
        let d = format!("divergence: sim verdict {verdict}, oracle {oracle}");
        violations.push((job.id, d.clone()));
        events.push(SimEvent::Violation {
            job: job.id,
            detail: d,
        });
    } else if verdict == "budget_exceeded" && conclusive(&oracle) {
        // The sequential resume is an exact continuation, so a sliced
        // run can never exhaust a budget the oracle fits.
        let d = "divergence: sim exhausted a budget the oracle completed within".to_string();
        violations.push((job.id, d.clone()));
        events.push(SimEvent::Violation {
            job: job.id,
            detail: d,
        });
    }

    walk_job(job, opts, events, violations);
    if job.id == 0 {
        closure_job(job, opts, events, violations);
    }
}

/// The seeded perturbed walk: steps the composition while randomly
/// losing, duplicating, and reordering queued messages, checking
/// structural invariants (queue bounds, panic-freedom).
fn walk_job(
    job: &mut Job,
    opts: &SimOptions,
    events: &mut Vec<SimEvent>,
    violations: &mut Vec<(usize, String)>,
) {
    let domain = match job_domain(job) {
        Ok(d) => d,
        Err(e) => {
            violations.push((job.id, format!("error: walk domain: {e}")));
            return;
        }
    };
    let comp = &job.composition;
    let db = &job.database;
    let bound = comp.semantics.queue_bound;
    let mut rng = XorShift::new(job.walk_seed);
    let movers = comp.movers();
    let Some(mut cfg) = comp.initial_configs(db, &domain).into_iter().next() else {
        return;
    };
    for step in 0..opts.walk_steps {
        let mut perturbation = "none";
        if rng.chance(2, 3) {
            if let Some((kind, p)) = channel::perturb(comp, &cfg, &mut rng) {
                perturbation = kind;
                cfg = p;
            }
        }
        // Stepping a (possibly perturbed) configuration must never
        // panic, and must respect the queue bound.
        let stepped = catch_unwind(AssertUnwindSafe(|| {
            let mut all = Vec::new();
            for &mover in &movers {
                all.extend(comp.successors(db, &domain, &cfg, mover));
            }
            all
        }));
        let succs = match stepped {
            Ok(s) => s,
            Err(_) => {
                violations.push((
                    job.id,
                    format!("walk: successor computation panicked at step {step}"),
                ));
                return;
            }
        };
        if succs.is_empty() {
            return;
        }
        cfg = succs[rng.below(succs.len() as u64) as usize].clone();
        let queued: usize = cfg.queues.iter().map(|q| q.len()).sum();
        if cfg.queues.iter().any(|q| q.len() > bound) {
            violations.push((
                job.id,
                format!("walk: queue bound {bound} exceeded at step {step}"),
            ));
        }
        events.push(SimEvent::WalkStep {
            job: job.id,
            step,
            perturbation,
            queued,
        });
    }
}

/// The loss-closure check (T3.4 downward closure) on the job's
/// composition, bounded by `closure_cap`.
fn closure_job(
    job: &mut Job,
    opts: &SimOptions,
    events: &mut Vec<SimEvent>,
    violations: &mut Vec<(usize, String)>,
) {
    let domain = match job_domain(job) {
        Ok(d) => d,
        Err(e) => {
            violations.push((job.id, format!("error: closure domain: {e}")));
            return;
        }
    };
    match channel::loss_closure(&job.composition, &job.database, &domain, opts.closure_cap) {
        Ok((configs, candidates)) => events.push(SimEvent::ClosureChecked {
            job: job.id,
            configs,
            candidates,
        }),
        Err(detail) => {
            violations.push((job.id, detail.clone()));
            events.push(SimEvent::Violation {
                job: job.id,
                detail,
            });
        }
    }
}

fn job_domain(job: &mut Job) -> Result<Vec<ddws_relational::Value>, String> {
    let opts = job.base_opts();
    let prop = job
        .verifier
        .parse_property(&job.property)
        .map_err(|e| e.to_string())?;
    Ok(job.verifier.domain_for(&prop, &opts))
}
