//! The `service` workload: the compgen corpus served over wire frames by
//! one `Server` with one worker, loaded by one generator thread.
//!
//! Phase A is an open loop: seeded Poisson arrivals at [`OPEN_RATE`], each
//! job timed from when it was *due* to the first `fetch_result` that
//! returns terminal. Phase B is a closed loop with at most
//! [`OUTSTANDING`] jobs in flight — below the admission capacity, so
//! nothing is shed — timed per segment of the whole corpus. The two
//! alternate in rounds (a share of phase A, then one segment), so both
//! sample the whole run rather than one stretch of it.

use crate::checks::oracle_verdict;
use crate::families::{self, Source, CASE_BUDGET};
use crate::stats::{self, median, percentile, poisson_schedule};
use crate::trace::{probe_layers, probe_metrics, ProbeTotals, Tracer};
use crate::{latency_note, peak_rss_mb, time_setup, traced_e2e};
use crate::{Metric, RunConfig, RunResult, Verdict};
use ddws_server::{
    decode_response, encode_request, ErrorCode, JobOptions, JobSpec, Request, Response, Server,
    ServerConfig, WorkerPool,
};
use ddws_testkit::compgen::CaseSpec;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Open-loop arrival rate, jobs per second: light load, well under the
/// one-worker capacity (about 500 jobs/s closed loop).
pub const OPEN_RATE: f64 = 100.0;
/// Closed-loop concurrency: below the default admission capacity of 64.
pub const OUTSTANDING: usize = 16;
/// How long the open-loop generator waits between polls of its
/// outstanding jobs; it bounds the latency resolution.
const POLL: Duration = Duration::from_micros(200);
/// The closed loop's poll interval. Its 16 outstanding jobs keep the
/// worker busy between polls, and every poll grows the server's event
/// log, so it polls less often than the open loop.
const CLOSED_POLL: Duration = Duration::from_millis(1);
/// The worker's back-off when no job is runnable, as in `run_workers`.
const IDLE_SLEEP: Duration = Duration::from_micros(200);
/// Served jobs re-checked against the oracle of record after the timed
/// phase.
const ORACLE_SAMPLE: usize = 500;
pub const ORACLE_SAMPLE_SMOKE: usize = 40;
/// Corpus size: phase A serves it once in a 20 s run, and each phase-B
/// segment serves all of it.
const SERVICE_CASES: usize = 1_000;
const SERVICE_CASES_SMOKE: usize = 60;
/// Rounds every run measures, however short its time.
const MIN_ROUNDS: usize = 3;
/// Seconds of run time per round. The count depends on `--seconds`
/// alone, so every run serves the same number of jobs.
const SECONDS_PER_ROUND: f64 = 5.0;

/// What the service tells the generator about one job.
pub struct JobRecord {
    /// Position of the job's spec in the corpus.
    pub spec: usize,
    pub job: Option<u64>,
    pub due: Instant,
    pub sent: Instant,
    pub done: Instant,
    pub verdict: Verdict,
}

impl JobRecord {
    pub fn latency_s(&self) -> f64 {
        self.done.saturating_duration_since(self.due).as_secs_f64()
    }
}

/// One busy or idle call of `Server::step` in the benchmark's own worker.
pub struct Step {
    pub start: Instant,
    pub end: Instant,
    pub busy: bool,
}

enum Worker {
    Pool(WorkerPool),
    /// A benchmark-owned single worker looping `Server::step` — the loop
    /// `run_workers` runs — that times every call.
    Traced {
        stop: Arc<AtomicBool>,
        handle: JoinHandle<Vec<Step>>,
    },
}

/// A server with its worker, ready for load.
pub struct Session {
    pub server: Arc<Server>,
    worker: Worker,
}

impl Session {
    pub fn start(traced: bool) -> Session {
        let server = Arc::new(Server::new(ServerConfig {
            quantum_states: 1_024,
            ..ServerConfig::default()
        }));
        let worker = if traced {
            let stop = Arc::new(AtomicBool::new(false));
            let handle = {
                let (server, stop) = (Arc::clone(&server), Arc::clone(&stop));
                std::thread::spawn(move || {
                    let mut steps = Vec::new();
                    loop {
                        let start = Instant::now();
                        let busy = server.step();
                        steps.push(Step {
                            start,
                            end: Instant::now(),
                            busy,
                        });
                        if !busy {
                            if stop.load(Ordering::Acquire) {
                                return steps;
                            }
                            std::thread::sleep(IDLE_SLEEP);
                        }
                    }
                })
            };
            Worker::Traced { stop, handle }
        } else {
            Worker::Pool(server.run_workers(1))
        };
        Session { server, worker }
    }

    /// Stops the worker once the queue has drained; returns the traced
    /// worker's steps.
    pub fn stop(self) -> Vec<Step> {
        match self.worker {
            Worker::Pool(pool) => {
                pool.shutdown();
                Vec::new()
            }
            Worker::Traced { stop, handle } => {
                stop.store(true, Ordering::Release);
                handle.join().expect("traced worker thread")
            }
        }
    }
}

/// The load generator's side of the wire, optionally spanned.
pub struct Client<'a> {
    server: &'a Server,
    next_id: u64,
    tracer: Option<&'a mut Tracer>,
    pub fetches: u64,
    pub terminal_fetches: u64,
}

impl<'a> Client<'a> {
    pub fn new(server: &'a Server, tracer: Option<&'a mut Tracer>) -> Client<'a> {
        Client {
            server,
            next_id: 1,
            tracer,
            fetches: 0,
            terminal_fetches: 0,
        }
    }

    /// One wire round trip: encode, `handle_frame`, decode.
    fn call(&mut self, req: &Request, handler: &'static str) -> Response {
        let id = self.next_id;
        self.next_id += 1;
        let server = self.server;
        let (resp, rid) = match self.tracer.as_deref_mut() {
            None => {
                let reply = server.handle_frame(&encode_request(id, req));
                let (rid, resp, _) = decode_response(&reply).expect("server frames decode");
                (resp, rid)
            }
            Some(t) => {
                let frame = t.time("wire.encode", id, None, || encode_request(id, req));
                let reply = t.time(handler, id, None, || server.handle_frame(&frame));
                let (rid, resp, _) = t.time("wire.decode", id, None, || {
                    decode_response(&reply).expect("server frames decode")
                });
                (resp, rid)
            }
        };
        assert_eq!(rid, id, "correlation id echoes");
        resp
    }

    /// Submits one job; `Err` carries the verdict of a refused job.
    fn submit(&mut self, spec: &CaseSpec) -> Result<u64, Verdict> {
        let req = Request::SubmitJob {
            spec: JobSpec::Spec(spec.clone()),
            options: JobOptions {
                budget: CASE_BUDGET,
                ..JobOptions::default()
            },
            submit_token: None,
        };
        match self.call(&req, "server.submit") {
            Response::Accepted { job } => Ok(job),
            _ => Err(Verdict::Error),
        }
    }

    /// Polls one job; `Some` once it is terminal.
    fn fetch(&mut self, job: u64) -> Option<Verdict> {
        self.fetches += 1;
        let verdict = match self.call(&Request::FetchResult { job }, "server.fetch") {
            Response::Result { verdict, .. } => Verdict::from_label(&verdict),
            Response::Error(e) if e.code == ErrorCode::JobNotTerminal => return None,
            _ => Verdict::Error,
        };
        self.terminal_fetches += 1;
        Some(verdict)
    }
}

/// An in-flight job of the generator.
struct Pending {
    spec: usize,
    job: u64,
    due: Instant,
    sent: Instant,
}

/// Polls every pending job once, moving the terminal ones to `done`.
fn poll(client: &mut Client<'_>, pending: &mut Vec<Pending>, done: &mut Vec<JobRecord>) {
    pending.retain(|p| match client.fetch(p.job) {
        None => true,
        Some(verdict) => {
            done.push(JobRecord {
                spec: p.spec,
                job: Some(p.job),
                due: p.due,
                sent: p.sent,
                done: Instant::now(),
                verdict,
            });
            false
        }
    });
}

fn send(
    client: &mut Client<'_>,
    specs: &[CaseSpec],
    spec: usize,
    due: Instant,
    pending: &mut Vec<Pending>,
    done: &mut Vec<JobRecord>,
) {
    let sent = Instant::now();
    match client.submit(&specs[spec]) {
        Ok(job) => pending.push(Pending {
            spec,
            job,
            due,
            sent,
        }),
        Err(verdict) => done.push(JobRecord {
            spec,
            job: None,
            due,
            sent,
            done: sent,
            verdict,
        }),
    }
}

/// Phase A: the jobs numbered `jobs`, cycling through the corpus, at
/// seeded Poisson arrival times.
pub fn open_loop(
    client: &mut Client<'_>,
    specs: &[CaseSpec],
    jobs: Range<usize>,
    seed: u64,
) -> Vec<JobRecord> {
    let first = jobs.start;
    let jobs = jobs.len();
    let schedule = poisson_schedule(seed, OPEN_RATE, jobs);
    let t0 = Instant::now();
    let (mut next, mut pending, mut done) = (0, Vec::new(), Vec::with_capacity(jobs));
    while next < jobs || !pending.is_empty() {
        while next < jobs && t0 + schedule[next] <= Instant::now() {
            let due = t0 + schedule[next];
            send(
                client,
                specs,
                (first + next) % specs.len(),
                due,
                &mut pending,
                &mut done,
            );
            next += 1;
        }
        poll(client, &mut pending, &mut done);
        let now = Instant::now();
        let mut wake = now + POLL;
        if next < jobs {
            wake = wake.min(t0 + schedule[next]);
        }
        std::thread::sleep(wake.saturating_duration_since(now));
    }
    done
}

/// Phase B: every corpus spec once, in `order`, at most [`OUTSTANDING`]
/// in flight. Returns the segment's steady-state time, until all but the
/// last [`OUTSTANDING`] jobs have completed (the drain after that is as
/// long as whichever heavy jobs the order left for last), and its jobs.
pub fn closed_loop(
    client: &mut Client<'_>,
    specs: &[CaseSpec],
    order: &[usize],
) -> (f64, Vec<JobRecord>) {
    let t0 = Instant::now();
    let steady_jobs = order.len().saturating_sub(OUTSTANDING).max(1);
    let mut steady = None;
    let (mut next, mut pending, mut done) = (0, Vec::new(), Vec::with_capacity(order.len()));
    while next < order.len() || !pending.is_empty() {
        while next < order.len() && pending.len() < OUTSTANDING {
            send(
                client,
                specs,
                order[next],
                Instant::now(),
                &mut pending,
                &mut done,
            );
            next += 1;
        }
        poll(client, &mut pending, &mut done);
        if steady.is_none() && done.len() >= steady_jobs {
            steady = Some(t0.elapsed().as_secs_f64());
        }
        std::thread::sleep(CLOSED_POLL);
    }
    (steady.unwrap_or_else(|| t0.elapsed().as_secs_f64()), done)
}

/// Checks every served job: terminal `holds`/`violated` or counted as
/// failed; one verdict per spec across the run; and a seeded sample of
/// `oracle_sample` specs against the one-shot oracle of record under the
/// same budget.
pub fn gate(
    specs: &[CaseSpec],
    records: &[JobRecord],
    seed: u64,
    oracle_sample: usize,
) -> (u64, Vec<String>) {
    let mut failed = 0;
    let mut wrong = Vec::new();
    let mut served: Vec<Option<Verdict>> = vec![None; specs.len()];
    for r in records {
        if !matches!(r.verdict, Verdict::Holds | Verdict::Violated) {
            failed += 1;
            continue;
        }
        match served[r.spec] {
            None => served[r.spec] = Some(r.verdict),
            Some(v) if v != r.verdict => wrong.push(format!(
                "spec {}: served both {v:?} and {:?}",
                r.spec, r.verdict
            )),
            Some(_) => {}
        }
    }
    let mut sample: Vec<usize> = (0..specs.len()).filter(|&i| served[i].is_some()).collect();
    families::shuffle(&mut sample, seed ^ 0x0ac1e);
    for &i in sample.iter().take(oracle_sample) {
        let want = oracle_verdict(&Source::Case(specs[i].clone()));
        if served[i] != Some(want) {
            wrong.push(format!(
                "spec {i}: served {:?}, the one-shot oracle of record says {want:?}",
                served[i]
            ));
        }
    }
    (failed, wrong)
}

fn oracle_sample(smoke: bool) -> usize {
    if smoke {
        ORACLE_SAMPLE_SMOKE
    } else {
        ORACLE_SAMPLE
    }
}

/// Open-loop jobs for a run of `seconds`: phase A takes half the time.
fn open_jobs(seconds: f64) -> usize {
    ((OPEN_RATE * seconds / 2.0).round() as usize).max(1)
}

/// The `service` workload.
pub fn run(cfg: &RunConfig) -> RunResult {
    let n = if cfg.smoke {
        SERVICE_CASES_SMOKE
    } else {
        SERVICE_CASES
    };
    if cfg.trace {
        return run_traced(cfg, n);
    }
    let mut start = || (families::corpus(n, cfg.seed), Session::start(false));
    let stop = |(_, session): (Vec<CaseSpec>, Session)| {
        session.stop();
    };
    let mut setup_times = Vec::new();
    let (specs, session) = time_setup(&mut setup_times, &mut start, stop);

    let mut client = Client::new(&session.server, None);
    let rounds = ((cfg.seconds / SECONDS_PER_ROUND).round() as usize).max(MIN_ROUNDS);
    let open_total = open_jobs(cfg.seconds);
    let mut open = Vec::new();
    let mut segments = Vec::new();
    let mut records = Vec::new();
    for k in 0..rounds {
        let jobs = open_total * k / rounds..open_total * (k + 1) / rounds;
        let round_seed = cfg.seed.wrapping_add(k as u64);
        open.extend(open_loop(&mut client, &specs, jobs, round_seed));
        let mut order: Vec<usize> = (0..specs.len()).collect();
        families::shuffle(&mut order, round_seed);
        let (wall, done) = closed_loop(&mut client, &specs, &order);
        segments.push(wall);
        records.extend(done);
        stop(time_setup(&mut setup_times, &mut start, stop));
    }
    session.stop();
    let peak_rss = peak_rss_mb();

    let latencies: Vec<f64> = open.iter().map(JobRecord::latency_s).collect();
    let attempted = (open.len() + records.len()) as u64;
    records.extend(open);
    let (failed, wrong) = gate(&specs, &records, cfg.seed, oracle_sample(cfg.smoke));
    let fastest = stats::fastest(&segments);
    let [q1, q2, q3] = stats::quartiles(&segments);
    RunResult {
        attempted,
        failed,
        wrong,
        passes: segments.len(),
        notes: vec![
            latency_note(
                &format!("open-loop latency at {OPEN_RATE} jobs/s, due to verdict"),
                &latencies,
            ),
            format!(
                "closed loop: {} segments of {} jobs, {OUTSTANDING} outstanding; steady-state \
                 segment fastest={fastest:.4}s q1={q1:.4}s median={q2:.4}s q3={q3:.4}s",
                segments.len(),
                specs.len()
            ),
        ],
        metrics: vec![
            Metric::new("setup_s", median(&setup_times), "s"),
            Metric::new("suite_s", fastest, "s"),
            Metric::new("op_p50_ms", median(&latencies) * 1e3, "ms"),
            Metric::new("peak_rss_mb", peak_rss, "MB"),
        ],
    }
}

fn run_traced(cfg: &RunConfig, n: usize) -> RunResult {
    let specs = families::corpus(n, cfg.seed);
    let mut tracer = Tracer::new();
    let served = traced_session(&specs, open_jobs(cfg.seconds), cfg.seed, &mut tracer);
    let mut totals = ProbeTotals::default();
    for (i, spec) in specs.iter().enumerate() {
        probe_layers(
            &Source::Case(spec.clone()),
            i as u64,
            &mut tracer,
            &mut totals,
        );
    }
    let mut metrics = probe_metrics(&tracer, &totals);
    metrics.extend(served.metrics);
    let latencies: Vec<f64> = served.open.iter().map(JobRecord::latency_s).collect();
    metrics.extend(traced_e2e(served.segment_s, &latencies));
    let mut records = served.open;
    records.extend(served.closed);
    let (failed, mut wrong) = gate(&specs, &records, cfg.seed, oracle_sample(cfg.smoke));
    wrong.extend(totals.wrong);
    crate::write_trace(cfg, &tracer);
    RunResult {
        attempted: records.len() as u64,
        failed,
        wrong,
        passes: 1,
        notes: Vec::new(),
        metrics,
    }
}

/// What a traced session measured.
pub struct TracedService {
    pub metrics: Vec<Metric>,
    pub open: Vec<JobRecord>,
    pub closed: Vec<JobRecord>,
    pub segment_s: f64,
}

/// Serves `specs` traced: phase A with `open_jobs` jobs, then one phase-B
/// segment, under the benchmark-owned worker. Each busy step is mapped to
/// its job through the `Slice` events of the canonical log, which with
/// one worker come in step order.
pub fn traced_session(
    specs: &[CaseSpec],
    open_jobs: usize,
    seed: u64,
    tracer: &mut Tracer,
) -> TracedService {
    let session = Session::start(true);
    let server = Arc::clone(&session.server);
    let (open, (segment_s, closed), fetches, terminal) = {
        let mut client = Client::new(&server, Some(&mut *tracer));
        let open = open_loop(&mut client, specs, 0..open_jobs, seed);
        let order: Vec<usize> = (0..specs.len()).collect();
        let closed = closed_loop(&mut client, specs, &order);
        (open, closed, client.fetches, client.terminal_fetches)
    };
    let steps = session.stop();

    let slice_jobs: Vec<u64> = server
        .canonical_log()
        .lines()
        .filter_map(|l| l.strip_prefix("slice job="))
        .map(|rest| {
            let id = rest.split(' ').next().expect("job id");
            id.parse().expect("numeric job id")
        })
        .collect();
    let busy: Vec<&Step> = steps.iter().filter(|s| s.busy).collect();
    assert_eq!(busy.len(), slice_jobs.len(), "one slice per busy step");
    let mut own_s: HashMap<u64, f64> = HashMap::new();
    let mut step_ms = Vec::with_capacity(busy.len());
    for (step, &job) in busy.iter().zip(&slice_jobs) {
        let d = step.end.duration_since(step.start).as_secs_f64();
        *own_s.entry(job).or_default() += d;
        step_ms.push(d * 1e3);
        tracer.record("server.step", job, None, step.start, step.end);
    }
    let worker_s = match (steps.first(), steps.last()) {
        (Some(a), Some(b)) => b.end.duration_since(a.start).as_secs_f64(),
        _ => 0.0,
    };
    let wait_ms: Vec<f64> = open
        .iter()
        .filter_map(|r| {
            let own = own_s.get(&r.job?)?;
            Some((r.latency_s() - own).max(0.0) * 1e3)
        })
        .collect();
    let lag_ms: Vec<f64> = open
        .iter()
        .map(|r| r.sent.saturating_duration_since(r.due).as_secs_f64() * 1e3)
        .collect();
    let jobs = server.jobs();
    let slices: u64 = jobs.iter().map(|j| j.slices).sum();
    let us = |name: &str| median(&tracer.durations_s(name)) * 1e6;
    let or_zero = |xs: &[f64], p: f64| {
        if xs.is_empty() {
            0.0
        } else {
            percentile(xs, p)
        }
    };
    let metrics = vec![
        Metric::new("wire.encode_us", us("wire.encode"), "us"),
        Metric::new("wire.decode_us", us("wire.decode"), "us"),
        Metric::new("server.submit_us_p50", us("server.submit"), "us"),
        Metric::new("server.fetch_us_p50", us("server.fetch"), "us"),
        Metric::new("server.step_ms_p50", or_zero(&step_ms, 50.0), "ms"),
        Metric::new("server.step_ms_p99", or_zero(&step_ms, 99.0), "ms"),
        Metric::new("server.steps", busy.len() as f64, "count"),
        Metric::new(
            "server.idle_steps",
            (steps.len() - busy.len()) as f64,
            "count",
        ),
        Metric::new(
            "server.worker_busy_frac",
            step_ms.iter().sum::<f64>() / 1e3 / worker_s.max(1e-9),
            "ratio",
        ),
        Metric::new(
            "server.slices_per_job",
            slices as f64 / jobs.len().max(1) as f64,
            "ratio",
        ),
        Metric::new("server.queue_wait_ms_p50", or_zero(&wait_ms, 50.0), "ms"),
        Metric::new("server.queue_wait_ms_p99", or_zero(&wait_ms, 99.0), "ms"),
        Metric::new(
            "client.fetch_useful_ratio",
            terminal as f64 / fetches.max(1) as f64,
            "ratio",
        ),
        Metric::new("loadgen.lag_ms_p99", or_zero(&lag_ms, 99.0), "ms"),
    ];
    TracedService {
        metrics,
        open,
        closed,
        segment_s,
    }
}
