//! E15: service load — the verification service end to end, on real
//! threads. N client threads submit compgen jobs over wire frames to one
//! [`ddws_server::Server`] with a worker pool, poll to completion, and
//! measure per-job turnaround. Two cells: the plain fleet, and the same
//! fleet with the budget-explosive `starver` scenario queued *first* —
//! the round-robin scheduler's quantum preemption is what keeps the
//! second cell's p99 finite, so the cell pair is the wall-clock face of
//! the fairness law `tests/server_sim.rs` proves deterministically.
//!
//! The acceptance pass asserts every cell drains every job to a terminal
//! state (the starver included — its budget is finite) and that adding
//! the starver does not sink fleet throughput below the floor; jobs/sec
//! and p50 (`median_ns`)/p99 latency per cell land in `BENCH_E15.json` at
//! the workspace root, each cell with the redacted `RunReport` of one
//! served job that searched.

use ddws_bench::artifact::{self, fixed, percentile, Artifact, Object};
use ddws_server::{
    decode_response, encode_request, ErrorCode, JobOptions, JobSpec, Request, Response, Server,
    ServerConfig,
};
use ddws_telemetry::Json;
use ddws_testkit::compgen;
use ddws_testkit::rng::XorShift;
use ddws_verifier::RunReport;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One load cell: `clients` threads × `jobs_per_client` compgen jobs,
/// optionally with the starver queued ahead of everyone.
#[derive(Clone, Copy)]
struct Cell {
    name: &'static str,
    clients: usize,
    jobs_per_client: usize,
    starver: bool,
}

fn cells(smoke: bool) -> Vec<Cell> {
    let (clients, jobs) = if smoke { (2, 2) } else { (4, 4) };
    vec![
        Cell {
            name: "fleet",
            clients,
            jobs_per_client: jobs,
            starver: false,
        },
        Cell {
            name: "fleet_with_starver",
            clients,
            jobs_per_client: jobs,
            starver: true,
        },
    ]
}

/// Per-job state budget. Finite so even the starver terminates; large
/// enough that multi-slice parking is the norm, not the exception.
const JOB_BUDGET: u64 = 20_000;

/// One wire round-trip against an in-process server.
fn call(server: &Server, id: u64, req: &Request) -> Response {
    let bytes = server.handle_frame(&encode_request(id, req));
    let (rid, resp, _) = decode_response(&bytes).expect("server frames decode");
    assert_eq!(rid, id, "correlation id echoes");
    resp
}

/// Submits a job and polls `fetch_result` until terminal; returns the
/// verdict and the submit→verdict latency.
fn run_job(server: &Server, spec: JobSpec) -> (u64, String, Duration) {
    let start = Instant::now();
    let job = match call(
        server,
        1,
        &Request::SubmitJob {
            spec,
            options: JobOptions {
                budget: JOB_BUDGET,
                ..JobOptions::default()
            },
            submit_token: None,
        },
    ) {
        Response::Accepted { job } => job,
        other => panic!("submission rejected: {other:?}"),
    };
    loop {
        match call(server, 2, &Request::FetchResult { job }) {
            Response::Result { verdict, .. } => return (job, verdict, start.elapsed()),
            Response::Error(e) if e.code == ErrorCode::JobNotTerminal => {
                std::thread::sleep(Duration::from_micros(300));
            }
            other => panic!("fetch({job}) answered {other:?}"),
        }
    }
}

/// Results of one measured cell.
struct CellRun {
    jobs: usize,
    wall: Duration,
    /// Sorted latencies of the *fleet* jobs (starver excluded — its
    /// latency measures the budget, not the service).
    latencies_ns: Vec<u128>,
    starver_verdict: Option<String>,
    /// Quanta the starver was preempted across.
    starver_slices: Option<u64>,
    /// Scheduler step at which the starver terminalized.
    starver_completed_step: Option<u64>,
    /// Scheduler steps at which the fleet jobs terminalized.
    fleet_completed_steps: Vec<u64>,
    sample_report: RunReport,
}

fn run_cell(cell: &Cell, workers: usize, seed: u64) -> CellRun {
    let server = Arc::new(Server::new(ServerConfig {
        quantum_states: 1_024,
        ..ServerConfig::default()
    }));
    let pool = server.run_workers(workers);

    // The starver goes in before any client thread exists, so it owns
    // the head of the round-robin queue.
    let starver = cell.starver.then(|| {
        let (job, _, _) = {
            let submit = call(
                &server,
                1,
                &Request::SubmitJob {
                    spec: JobSpec::Scenario("starver".to_string()),
                    options: JobOptions {
                        budget: JOB_BUDGET,
                        ..JobOptions::default()
                    },
                    submit_token: None,
                },
            );
            match submit {
                Response::Accepted { job } => (job, (), ()),
                other => panic!("starver rejected: {other:?}"),
            }
        };
        job
    });

    let start = Instant::now();
    let handles: Vec<_> = (0..cell.clients)
        .map(|c| {
            let server = Arc::clone(&server);
            let jobs = cell.jobs_per_client;
            std::thread::spawn(move || {
                let mut rng = XorShift::new(seed ^ (c as u64).wrapping_mul(0x9e37_79b9));
                let mut lat = Vec::with_capacity(jobs);
                for _ in 0..jobs {
                    let spec = JobSpec::Spec(compgen::spec(&mut rng));
                    let (_, verdict, took) = run_job(&server, spec);
                    assert!(
                        ["holds", "violated", "budget_exceeded"].contains(&verdict.as_str()),
                        "fleet job ended {verdict:?}"
                    );
                    lat.push(took.as_nanos());
                }
                lat
            })
        })
        .collect();
    let mut latencies_ns: Vec<u128> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    let wall = start.elapsed();
    latencies_ns.sort_unstable();

    // Drain the starver too — the cell is only done when *everything*
    // is terminal.
    let starver_verdict = starver.map(|job| loop {
        match call(&server, 3, &Request::FetchResult { job }) {
            Response::Result { verdict, .. } => break verdict,
            Response::Error(e) if e.code == ErrorCode::JobNotTerminal => {
                std::thread::sleep(Duration::from_micros(300));
            }
            other => panic!("fetch(starver) answered {other:?}"),
        }
    });
    pool.shutdown();

    let rows = server.jobs();
    let starver_slices = starver.map(|job| rows[job as usize].slices);
    let starver_completed_step = starver.and_then(|job| rows[job as usize].completed_step);
    let fleet_completed_steps = rows
        .iter()
        .filter(|j| Some(j.job) != starver)
        .filter_map(|j| j.completed_step)
        .collect();
    CellRun {
        jobs: cell.clients * cell.jobs_per_client,
        wall,
        latencies_ns,
        starver_verdict,
        starver_slices,
        starver_completed_step,
        fleet_completed_steps,
        sample_report: artifact::searched_report(&server),
    }
}

/// The E15 acceptance bar: every cell completes all jobs; the starver
/// ends `budget_exceeded` without sinking fleet throughput below the
/// floor; jobs/sec + p50/p99 land in `BENCH_E15.json`.
fn main() {
    let smoke = artifact::smoke();
    let samples = artifact::samples(3);
    let workers = artifact::cores().clamp(1, 4);

    let mut rows = Object::new();
    let mut fleet_jps = 0.0f64;
    let mut starved_jps = 0.0f64;
    for cell in cells(smoke) {
        // Keep the best of `samples` runs per cell: thread scheduling
        // noise only ever slows a run down.
        let mut best: Option<CellRun> = None;
        for s in 0..samples {
            let run = run_cell(&cell, workers, 0xe15_0000 + s as u64);
            assert_eq!(
                run.latencies_ns.len(),
                run.jobs,
                "{}: a fleet job never completed",
                cell.name
            );
            if cell.starver {
                // The finite budget guarantees termination either way;
                // what the cell must witness is *preemption* — the
                // starver parked across many quanta while the fleet ran.
                let verdict = run.starver_verdict.as_deref().expect("starver fetched");
                assert!(
                    ["holds", "budget_exceeded"].contains(&verdict),
                    "{}: the starver ended {verdict:?}",
                    cell.name
                );
                let slices = run.starver_slices.expect("starver summarized");
                assert!(
                    slices >= 4,
                    "{}: starver ran in {slices} slice(s) — not pathological enough \
                     to exercise the round-robin",
                    cell.name
                );
                // The fairness witness, in schedule ordinals (immune to
                // timing noise): round-robin preemption must complete
                // every fleet job *before* the head-of-queue starver —
                // a run-to-completion scheduler would finish the starver
                // first and give every fleet job its latency.
                let starver_done = run
                    .starver_completed_step
                    .expect("terminal starver has a completion step");
                for &done in &run.fleet_completed_steps {
                    assert!(
                        done < starver_done,
                        "{}: a fleet job completed at step {done}, after the starver \
                         at step {starver_done} — the round-robin failed to preempt",
                        cell.name
                    );
                }
            }
            if best.as_ref().is_none_or(|b| run.wall < b.wall) {
                best = Some(run);
            }
        }
        let run = best.expect("at least one sample");
        let jps = run.jobs as f64 / run.wall.as_secs_f64().max(1e-9);
        let p50 = percentile(&run.latencies_ns, 50);
        let p99 = percentile(&run.latencies_ns, 99);
        println!(
            "e15_service_load/acceptance/{}: {} jobs in {:?} ({jps:.1} jobs/s) \
             p50={p50}ns p99={p99}ns workers={workers}",
            cell.name, run.jobs, run.wall
        );
        rows.push(
            cell.name,
            artifact::cell(p50, &run.sample_report)
                .field("p99_ns", p99)
                .field("clients", cell.clients)
                .field("jobs_per_client", cell.jobs_per_client)
                .field("starver", Json::Bool(cell.starver))
                .field("completed_jobs", run.jobs)
                .field("wall_ns", run.wall.as_nanos())
                .field("jobs_per_sec", fixed(jps, 2)),
        );
        if cell.starver {
            starved_jps = jps;
        } else {
            fleet_jps = jps;
        }
    }

    // A catastrophic-starvation backstop on throughput. The real
    // fairness law is the schedule-ordinal assertion above (and the
    // deterministic proof in `tests/server_sim.rs`); wall-clock ratios
    // on a loaded host are only good for catching a total collapse.
    assert!(
        starved_jps >= fleet_jps / 1_000.0,
        "starver sank fleet throughput: {starved_jps:.2} vs {fleet_jps:.2} jobs/s"
    );

    Artifact::new("e15_service_load", smoke, samples)
        .field("workers", workers)
        .field("job_budget", JOB_BUDGET)
        .field("cells", rows)
        .write();
}
