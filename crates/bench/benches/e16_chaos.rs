//! E16: chaos overhead — the fault-tolerance tax, measured in virtual
//! time. Two deterministic cells run the *identical* seeded workload
//! (two `starver` tenants plus a compgen fleet) through real
//! [`ClientSession`] retry sessions over a [`ChaosTransport`]: the
//! `clean` cell on a reliable wire, the `chaos` cell under ~1% frame
//! loss plus seeded worker crashes on roughly one slice in 200. Per-job
//! latency is virtual nanoseconds on the server's `ManualClock`
//! (advanced per state expansion), so the p99 ratio between the cells
//! is exactly the retry + crash-re-dispatch overhead — no thread noise,
//! byte-reproducible from the seed.
//!
//! The acceptance pass asserts the robustness contract end to end:
//! every job in both cells drains to a terminal verdict, the chaos cell
//! really absorbed wire faults and worker crashes, and its p99 stays
//! within 50% of the clean cell's. A third `overload` cell submits 2×
//! the admission capacity without retries and asserts the service sheds
//! exactly the overflow, every rejection carrying a `retry_after_ns`
//! back-pressure hint. Everything lands in `BENCH_E16.json`; each latency
//! cell carries the redacted `RunReport` of one job it served that
//! searched, the chaos cell's served *through* the faults.

use ddws_bench::artifact::{self, fixed, percentile, Artifact, Object};
use ddws_server::{
    decode_response, encode_request, ClientError, ClientSession, CrashInjector, ErrorCode,
    JobOptions, JobSpec, Request, Response, RetryPolicy, Server, ServerConfig, Transport,
};
use ddws_sim::ChaosTransport;
use ddws_testkit::compgen;
use ddws_testkit::contract::silence_injected_panics;
use ddws_testkit::faults::FrameChaos;
use ddws_testkit::rng::XorShift;
use ddws_verifier::{Clock, ManualClock, RunReport};
use std::sync::Arc;

/// The scheduler quantum. Small, so the starvers fan out into many
/// slices and the 1-in-[`CRASH_IN`] injector has real slices to hit.
const QUANTUM: u64 = 64;

/// Per-job state budget: each starver runs `budget / QUANTUM` slices
/// before `budget_exceeded` — 64 in smoke, 256 in full, so the full
/// cells have enough slices and frames for the 1-in-N fault rates to
/// actually fire.
fn budget(smoke: bool) -> u64 {
    if smoke {
        4_096
    } else {
        16_384
    }
}

/// Chaos-cell frame loss: 1-in-100 frames ≈ 1% (a seeded coin then
/// picks whether the request or the response vanishes).
const DROP_IN: u64 = 100;

/// Chaos-cell crash rate: roughly one slice in 200 panics mid-expansion
/// and is re-dispatched from the last checkpoint.
const CRASH_IN: u64 = 200;

/// Crashed-slice quarantine. Generous: this bench measures the latency
/// tax of *recovered* crashes; poison-job quarantine behavior is proved
/// in `tests/server_sim.rs`.
const QUARANTINE: u64 = 10;

/// Deadlock guard on the step-driven drain loop.
const MAX_STEPS: u64 = 200_000;

/// Starver tenants queued ahead of the fleet in every cell.
const STARVERS: usize = 2;

fn fleet_jobs(smoke: bool) -> usize {
    if smoke {
        6
    } else {
        32
    }
}

/// One measured cell: the seeded workload driven to full drain.
struct CellRun {
    /// Sorted virtual-ns latencies of the fleet jobs (starvers excluded
    /// — their latency measures the budget, not the service).
    latencies_ns: Vec<u64>,
    /// Virtual clock at full drain.
    virtual_wall_ns: u64,
    /// Scheduler steps to full drain.
    steps: u64,
    wire_faults: u64,
    crash_recoveries: u64,
    sample_report: RunReport,
}

/// Drives the seeded workload through retry sessions over `chaos`
/// (plus, when `crash`, the seeded crash injector) until every job is
/// terminal. Job draws come first from a dedicated RNG stream, so the
/// workload is a function of `seed` alone — identical across cells.
fn run_cell(seed: u64, chaos: FrameChaos, crash: bool) -> CellRun {
    let jobs = fleet_jobs(artifact::smoke());
    let clock = Arc::new(ManualClock::new(0));
    let server = Server::new(ServerConfig {
        capacity: STARVERS + jobs + 4,
        quantum_states: QUANTUM,
        clock: Some(clock.clone()),
        progress_interval: None,
        crash_quarantine: QUARANTINE,
        crash_injector: crash.then(|| Arc::new(CrashInjector::new(seed, CRASH_IN, QUANTUM))),
        ..ServerConfig::default()
    });
    let mut transport = ChaosTransport::new(&server, Some(clock.clone()), chaos, seed);
    let mut session = ClientSession::new(
        seed,
        RetryPolicy {
            max_attempts: 32,
            ..RetryPolicy::default()
        },
    );
    let options = JobOptions {
        budget: budget(artifact::smoke()),
        ..JobOptions::default()
    };

    // Draw phase: the specs, before any wire traffic, off their own RNG.
    let mut rng = XorShift::new(seed ^ 0x0e16_0e16_0e16_0e16);
    let specs: Vec<JobSpec> = (0..jobs)
        .map(|_| JobSpec::Spec(compgen::spec(&mut rng)))
        .collect();

    // Submit phase: starvers first (they own the round-robin head), then
    // the fleet, each stamped with its submit-time virtual instant. The
    // idempotent sessions absorb lost/duplicated submit frames.
    let mut submitted: Vec<(u64, u64, bool)> = Vec::new(); // (job, start_ns, starver)
    for _ in 0..STARVERS {
        let start = clock.now_ns();
        let job = session
            .submit(
                &mut transport,
                JobSpec::Scenario("starver".to_string()),
                options.clone(),
            )
            .expect("starver admitted");
        submitted.push((job, start, true));
    }
    for spec in specs {
        let start = clock.now_ns();
        let job = session
            .submit(&mut transport, spec, options.clone())
            .expect("fleet job admitted");
        submitted.push((job, start, false));
    }

    // Drain phase: step the scheduler, status-poll one job per step
    // through the same hostile wire (the frame volume the chaos feeds
    // on), and stamp each job's terminal transition off the virtual
    // clock.
    let mut completed: Vec<Option<u64>> = vec![None; submitted.len()];
    let mut poll_id: u64 = 1 << 32;
    let mut steps: u64 = 0;
    while server.has_runnable() {
        assert!(steps < MAX_STEPS, "drain loop exceeded {MAX_STEPS} steps");
        server.step();
        steps += 1;
        let (job, _, _) = submitted[steps as usize % submitted.len()];
        let _ = transport.call(&encode_request(poll_id, &Request::JobStatus { job }));
        poll_id += 1;
        for row in server.jobs() {
            if row.verdict.is_none() {
                continue;
            }
            if let Some(slot) = submitted.iter().position(|&(j, _, _)| j == row.job) {
                completed[slot].get_or_insert(clock.now_ns());
            }
        }
    }

    // Every job is terminal, and every terminal answer is typed: a
    // verdict over the retry wire, or the poisoned/evicted errors (not
    // reachable under this profile's quarantine and retention bounds,
    // but the match is the contract).
    let mut latencies_ns = Vec::with_capacity(submitted.len() - STARVERS);
    for (slot, &(job, start, starver)) in submitted.iter().enumerate() {
        let done = completed[slot].unwrap_or_else(|| panic!("job {job} never terminalized"));
        match session.request(&mut transport, &Request::FetchResult { job }) {
            Ok(Response::Result { verdict, .. }) => {
                let expected: &[&str] = if starver {
                    &["budget_exceeded", "holds"]
                } else {
                    &["holds", "violated", "budget_exceeded"]
                };
                assert!(
                    expected.contains(&verdict.as_str()),
                    "job {job}: {verdict:?}"
                );
            }
            Ok(Response::Error(e))
                if matches!(e.code, ErrorCode::JobPoisoned | ErrorCode::ResultEvicted) => {}
            Ok(other) => panic!("fetch({job}) answered {other:?}"),
            Err(ClientError::Service(e))
                if matches!(e.code, ErrorCode::JobPoisoned | ErrorCode::ResultEvicted) => {}
            Err(e) => panic!("fetch({job}) failed: {e}"),
        }
        if !starver {
            latencies_ns.push(done - start);
        }
    }
    latencies_ns.sort_unstable();

    let rows = server.jobs();
    let crash_recoveries = rows.iter().map(|j| j.crash_recoveries).sum();
    CellRun {
        latencies_ns,
        virtual_wall_ns: clock.now_ns(),
        steps,
        wire_faults: transport.faults,
        crash_recoveries,
        sample_report: artifact::searched_report(&server),
    }
}

/// The overload cell: 2× capacity submitted straight at the wire, no
/// retries. Returns (accepted, shed, rejections carrying a
/// `retry_after_ns` hint).
fn run_overload(capacity: usize) -> (usize, usize, usize) {
    let server = Server::new(ServerConfig {
        capacity,
        quantum_states: QUANTUM,
        clock: Some(Arc::new(ManualClock::new(0))),
        progress_interval: None,
        ..ServerConfig::default()
    });
    let (mut accepted, mut shed, mut hinted) = (0, 0, 0);
    for id in 0..(2 * capacity) as u64 {
        let req = Request::SubmitJob {
            spec: JobSpec::Scenario("req_resp".to_string()),
            options: JobOptions {
                budget: budget(artifact::smoke()),
                ..JobOptions::default()
            },
            submit_token: None,
        };
        let bytes = server.handle_frame(&encode_request(id, &req));
        let (_, resp, _) = decode_response(&bytes).expect("server frames decode");
        match resp {
            Response::Accepted { .. } => accepted += 1,
            Response::Error(e) if e.code == ErrorCode::QueueFull => {
                shed += 1;
                if e.retry_after_ns.is_some() {
                    hinted += 1;
                }
            }
            other => panic!("submit answered {other:?}"),
        }
    }
    (accepted, shed, hinted)
}

/// The E16 acceptance bar: ≤50% p99 degradation at 1% frame loss +
/// 1-in-200 worker crashes; overload sheds exactly the overflow, every
/// rejection hinted.
fn main() {
    silence_injected_panics();
    let smoke = artifact::smoke();
    let samples = artifact::samples(if smoke { 1 } else { 3 });

    // Each sample is one seed; clean and chaos share it, so the cells
    // run the identical drawn workload and the p99 ratio is pure
    // fault-tolerance overhead. The reported pair is the worst across
    // samples.
    let mut worst: Option<(u64, CellRun, CellRun)> = None;
    let mut total_faults = 0u64;
    let mut total_recoveries = 0u64;
    for s in 0..samples {
        let seed = 0xe16_0000 + s as u64;
        let clean = run_cell(seed, FrameChaos::OFF, false);
        let chaos = run_cell(
            seed,
            FrameChaos {
                drop_in: DROP_IN,
                ..FrameChaos::OFF
            },
            true,
        );
        assert_eq!(clean.wire_faults, 0, "the reliable wire injected faults");
        assert_eq!(clean.crash_recoveries, 0, "the clean cell crashed");
        let (clean_p99, chaos_p99) = (
            percentile(&clean.latencies_ns, 99),
            percentile(&chaos.latencies_ns, 99),
        );
        // The ISSUE bound, in integer math: chaos_p99 ≤ 1.5 × clean_p99.
        assert!(
            chaos_p99 * 2 <= clean_p99 * 3,
            "seed {seed}: chaos p99 {chaos_p99}ns vs clean {clean_p99}ns — \
             more than 50% degradation"
        );
        total_faults += chaos.wire_faults;
        total_recoveries += chaos.crash_recoveries;
        let degrades = |cl: &CellRun, ch: &CellRun| {
            percentile(&ch.latencies_ns, 99) as f64 / percentile(&cl.latencies_ns, 99) as f64
        };
        if worst
            .as_ref()
            .is_none_or(|(_, cl, ch)| degrades(&clean, &chaos) > degrades(cl, ch))
        {
            worst = Some((seed, clean, chaos));
        }
    }
    // The chaos cells must have actually been hostile — a bound that
    // nothing ever violated is no bound at all. Full mode only: one
    // smoke sample's frame volume leaves a real chance both fault
    // classes stay quiet.
    if !smoke {
        assert!(total_faults > 0, "no frame faults fired across samples");
        assert!(total_recoveries > 0, "no worker crash fired across samples");
    }

    let capacity = 8;
    let (accepted, shed, hinted) = run_overload(capacity);
    assert_eq!(accepted, capacity, "admission under-filled");
    assert_eq!(shed, capacity, "2x overload must shed exactly the overflow");
    assert_eq!(hinted, shed, "a queue_full rejection lacked retry_after_ns");

    let (seed, clean, chaos) = worst.expect("at least one sample");
    let degradation_pct = 100.0
        * (percentile(&chaos.latencies_ns, 99) as f64 / percentile(&clean.latencies_ns, 99) as f64
            - 1.0);
    println!(
        "e16_chaos/acceptance: seed {seed}: clean p99={}ns chaos p99={}ns \
         ({degradation_pct:+.1}%) faults={} recoveries={} shed={shed}/{}",
        percentile(&clean.latencies_ns, 99),
        percentile(&chaos.latencies_ns, 99),
        chaos.wire_faults,
        chaos.crash_recoveries,
        2 * capacity,
    );

    let cell = |run: &CellRun| {
        artifact::cell(percentile(&run.latencies_ns, 50).into(), &run.sample_report)
            .field("p99_ns", percentile(&run.latencies_ns, 99))
            .field("jobs", run.latencies_ns.len())
            .field("virtual_wall_ns", run.virtual_wall_ns)
            .field("steps", run.steps)
            .field("wire_faults", run.wire_faults)
            .field("crash_recoveries", run.crash_recoveries)
    };
    let overload = Object::new()
        .field("capacity", capacity)
        .field("submitted", 2 * capacity)
        .field("accepted", accepted)
        .field("shed", shed)
        .field("shed_rate", fixed(shed as f64 / (2 * capacity) as f64, 2))
        .field("retry_after_hints", hinted);
    Artifact::new("e16_chaos", smoke, samples)
        .field("seed", seed)
        .field("quantum_states", QUANTUM)
        .field("job_budget", budget(smoke))
        .field(
            "chaos_profile",
            Object::new()
                .field("drop_in", DROP_IN)
                .field("crash_in", CRASH_IN),
        )
        .field(
            "cells",
            Object::new()
                .field("clean", cell(&clean))
                .field("chaos", cell(&chaos))
                .field("overload", overload),
        )
        .field("p99_degradation_pct", fixed(degradation_pct, 2))
        .write();
}
