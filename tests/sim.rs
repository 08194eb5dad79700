//! Deterministic whole-system simulation swarm (DESIGN.md §3.11).
//!
//! Each case is one seeded [`ddws_sim::run_seed`] run: several concurrent
//! compgen verification jobs scheduled cooperatively in random order,
//! preempted by virtual-clock deadlines, crashed, cancelled, resumed,
//! and channel-perturbed — with every invariant (report contract, oracle
//! agreement, planned-panic discipline, deadlock bound, loss closure)
//! checked inside the simulator and recorded as a violation.
//!
//! On a violation the failing job's spec is delta-debugged against the
//! *identical* schedule ([`ddws_sim::shrink_first_violation`]) and the
//! 1-minimal spec, the violation list, and the canonical trace are
//! printed (and written to `$SIM_ARTIFACT_DIR` when set) before the
//! panic — so a CI failure ships a replayable, minimized repro.

mod common;

use common::silence_injected_panics;
use ddws::scenarios::chains;
use ddws_model::Semantics;
use ddws_sim::{
    run_seed, run_with_case_override, run_with_jobs, shrink_first_violation, JobSource, SimBug,
    SimOptions, SimRun,
};
use ddws_testkit::{compgen, gen, seed_from};

/// Swarm size: the acceptance floor of DESIGN.md §3.11 is 300 cases.
const SWARM_CASES: usize = 300;

/// Fails the test for a violating run: shrink, report, optionally write
/// artifacts, panic.
fn fail_with_shrink(run: &SimRun, opts: &SimOptions) -> ! {
    eprintln!("sim seed {} violated:", run.seed);
    for (job, detail) in &run.violations {
        eprintln!("  job {job}: {detail}");
    }
    let mut artifact = String::new();
    artifact.push_str(&format!("seed: {}\n", run.seed));
    for (job, detail) in &run.violations {
        artifact.push_str(&format!("violation job {job}: {detail}\n"));
    }
    if let Some(shrunk) = shrink_first_violation(run.seed, opts) {
        eprintln!(
            "  shrunk job {} spec: {} atoms -> {} atoms",
            shrunk.job,
            shrunk.spec.size(),
            shrunk.min.size()
        );
        eprintln!("  minimal spec: {:?}", shrunk.min);
        artifact.push_str(&format!(
            "shrunk job {}: {} -> {} atoms\nminimal spec: {:?}\ntrace:\n{}",
            shrunk.job,
            shrunk.spec.size(),
            shrunk.min.size(),
            shrunk.min,
            shrunk.trace
        ));
    } else {
        artifact.push_str(&format!("trace:\n{}", run.canonical_trace()));
    }
    if let Ok(dir) = std::env::var("SIM_ARTIFACT_DIR") {
        let path = std::path::Path::new(&dir).join(format!("sim_seed_{}.txt", run.seed));
        if let Err(e) = std::fs::write(&path, &artifact) {
            eprintln!("  (failed to write artifact {}: {e})", path.display());
        } else {
            eprintln!("  artifact: {}", path.display());
        }
    }
    panic!(
        "sim seed {} violated {} invariant(s); replay with ddws_sim::run_seed({}, &SimOptions::default())",
        run.seed,
        run.violations.len(),
        run.seed
    );
}

/// Asserts byte-identical replay: trace and redacted run reports.
fn assert_replays(seed: u64, opts: &SimOptions, run: &SimRun) {
    let again = run_seed(seed, opts);
    assert_eq!(
        run.canonical_trace(),
        again.canonical_trace(),
        "sim seed {seed}: replay produced a different canonical trace"
    );
    assert_eq!(run.jobs.len(), again.jobs.len());
    for (a, b) in run.jobs.iter().zip(&again.jobs) {
        assert_eq!(a.verdict, b.verdict, "sim seed {seed}: verdict drift");
        assert_eq!(
            a.reports.len(),
            b.reports.len(),
            "sim seed {seed}: report count drift"
        );
        for (ra, rb) in a.reports.iter().zip(&b.reports) {
            assert_eq!(
                ra.redacted().to_json(),
                rb.redacted().to_json(),
                "sim seed {seed}: redacted run reports drifted across replays"
            );
        }
    }
}

/// The main swarm: `SWARM_CASES` seeded whole-system runs, no violations
/// allowed, every eighth case replayed for byte-identical determinism.
#[test]
fn sim_swarm_is_violation_free_and_deterministic() {
    silence_injected_panics();
    let opts = SimOptions::default();
    let mut case = 0usize;
    gen::cases(SWARM_CASES, seed_from("sim_swarm"), |rng| {
        let seed = rng.next_u64();
        let run = run_seed(seed, &opts);
        if !run.violations.is_empty() {
            fail_with_shrink(&run, &opts);
        }
        // Belt-and-braces on top of the simulator's own invariants: every
        // job ends in a verdict (or a budget exhaustion its oracle shares
        // — anything else is a violation the simulator already flagged),
        // and conclusive verdicts agree with conclusive oracles.
        for job in &run.jobs {
            assert!(
                matches!(
                    job.verdict.as_str(),
                    "holds" | "violated" | "budget_exceeded"
                ),
                "sim seed {seed}: job ended {:?} without a terminal verdict",
                job.verdict
            );
            let conclusive = |s: &str| s == "holds" || s == "violated";
            if conclusive(&job.verdict) && job.oracle.as_deref().is_some_and(conclusive) {
                assert_eq!(
                    Some(&job.verdict),
                    job.oracle.as_ref(),
                    "sim seed {seed}: verdict/oracle mismatch escaped the simulator"
                );
            }
        }
        if case.is_multiple_of(8) {
            assert_replays(seed, &opts, &run);
        }
        case += 1;
    });
}

/// Same seed, same options ⇒ identical trace and redacted reports —
/// sequentially and from two OS threads at once (the simulator shares no
/// mutable ambient state, so `--test-threads` cannot perturb it).
#[test]
fn replay_is_deterministic_across_threads() {
    silence_injected_panics();
    let opts = SimOptions::default();
    let seed = seed_from("sim_replay_determinism");

    let first = run_seed(seed, &opts);
    assert_replays(seed, &opts, &first);

    let opts2 = opts.clone();
    let handle = std::thread::spawn(move || run_seed(seed, &opts2).canonical_trace());
    let local = run_seed(seed, &opts).canonical_trace();
    let remote = handle.join().expect("replay thread");
    assert_eq!(
        local, remote,
        "concurrent replays of seed {seed} disagreed on the canonical trace"
    );
}

/// The deliberately-injected verdict flip must be caught by the oracle
/// divergence invariant and shrink to a 1-minimal spec (re-minimizing the
/// minimum is a fixpoint).
#[test]
fn injected_verdict_flip_is_caught_and_shrunk_minimal() {
    silence_injected_panics();
    let opts = SimOptions {
        bug: Some(SimBug::FlipVerdict),
        ..SimOptions::default()
    };
    let seed = seed_from("sim_flip_verdict");
    let run = run_seed(seed, &opts);
    assert!(
        run.violations
            .iter()
            .any(|(_, d)| d.starts_with("divergence:")),
        "flipped verdicts must diverge from the oracle; got {:?}",
        run.violations
    );

    let shrunk = shrink_first_violation(seed, &opts).expect("a compgen job violated");
    assert!(
        shrunk.min.size() <= shrunk.spec.size(),
        "shrinking must not grow the spec"
    );
    // The minimized case still violates under the identical schedule.
    let replay = run_with_case_override(seed, &opts, shrunk.job, &shrunk.min);
    assert!(
        replay
            .violations
            .iter()
            .any(|(j, d)| *j == shrunk.job && !d.starts_with("error:")),
        "minimized spec no longer reproduces the violation"
    );
    // 1-minimality: minimizing the minimum changes nothing.
    let again = compgen::minimize_spec(&shrunk.min, |cand| {
        run_with_case_override(seed, &opts, shrunk.job, cand)
            .violations
            .iter()
            .any(|(j, d)| *j == shrunk.job && !d.starts_with("error:"))
    });
    assert_eq!(
        again.size(),
        shrunk.min.size(),
        "shrunk spec is not a minimization fixpoint"
    );
}

/// The deliberately-dropped run report must trip the exactly-one-report
/// contract.
#[test]
fn injected_report_loss_is_caught() {
    silence_injected_panics();
    let opts = SimOptions {
        bug: Some(SimBug::DropReport),
        ..SimOptions::default()
    };
    let run = run_seed(seed_from("sim_drop_report"), &opts);
    assert!(
        run.violations
            .iter()
            .any(|(job, d)| *job == 0 && d.starts_with("report:")),
        "dropping job 0's first report must violate the report contract; got {:?}",
        run.violations
    );
}

/// Fixed scenario-library jobs ride alongside the drawn corpus: a lossy
/// relay chain is sliced, resumed, and oracle-checked like any compgen
/// job, and the whole mixed run stays violation-free and replayable.
#[test]
fn scenario_jobs_run_alongside_drawn_corpus() {
    silence_injected_panics();
    let mut comp = chains::composition(3, true, Semantics::default());
    let db = chains::database(&mut comp, 1);
    let fixed = JobSource::Fixed {
        name: "chains3".to_string(),
        composition: Box::new(comp),
        database: db,
        property: chains::prop_integrity(3),
    };
    let opts = SimOptions {
        drawn_jobs: 2,
        ..SimOptions::default()
    };
    let seed = seed_from("sim_scenario_jobs");
    let run = run_with_jobs(seed, &opts, std::slice::from_ref(&fixed));
    if !run.violations.is_empty() {
        fail_with_shrink(&run, &opts);
    }
    assert_eq!(run.jobs.len(), 3);
    assert_eq!(run.jobs[2].kind, "chains3");
    assert!(matches!(run.jobs[2].verdict.as_str(), "holds" | "violated"));

    let again = run_with_jobs(seed, &opts, &[fixed]);
    assert_eq!(
        run.canonical_trace(),
        again.canonical_trace(),
        "mixed fixed/drawn runs must replay byte-identically"
    );
}
