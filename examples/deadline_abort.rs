//! Deadline-abort smoke check (DESIGN.md §3.10): run the 3-peer chain
//! scenario under an immediately-expiring deadline, demonstrate that the
//! stop is a *graceful outcome* — `Ok` with `Outcome::Inconclusive`, a
//! resumable checkpoint, and exactly one abort-labelled `RunReport` — then
//! resume the checkpoint without the deadline and confirm the verdict.
//! The abort report is written to `ABORT_REPORT.json`, re-parsed, and
//! validated against the documented schema. Exits non-zero on any
//! mismatch — CI runs this and uploads the report as an artifact.
//!
//! Run with `cargo run --release --example deadline_abort`.

use ddws::scenarios::chains;
use ddws_model::Semantics;
use ddws_verifier::{
    BufferReporter, DatabaseMode, Outcome, ReporterHandle, RunReport, Verifier, VerifyOptions,
};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn run() -> Result<(), String> {
    let buf = Arc::new(BufferReporter::new());
    let mut verifier = Verifier::new(chains::composition(3, true, Semantics::default()));
    let db = chains::database(verifier.composition_mut(), 2);

    // A zero deadline expires before the first expansion: the search must
    // stop immediately, without a verdict and without an error.
    let opts = VerifyOptions {
        database: DatabaseMode::Fixed(db),
        fresh_values: Some(1),
        deadline: Some(Duration::ZERO),
        reporter: ReporterHandle::new(buf.clone()),
        ..VerifyOptions::default()
    };
    let property = chains::prop_integrity(3);
    let report = verifier
        .check_str(&property, &opts)
        .map_err(|e| format!("a deadline stop must not be an error: {e}"))?;
    let stop = match report.outcome {
        Outcome::Inconclusive(stop) => stop,
        other => return Err(format!("expected an inconclusive outcome, got {other:?}")),
    };

    // Exactly one final report, labelled for the deadline, with the abort
    // object attached; write it out and validate what landed on disk.
    let reports = buf.take_reports();
    if reports.len() != 1 {
        return Err(format!(
            "expected exactly one final report, got {}",
            reports.len()
        ));
    }
    let emitted = &reports[0];
    if emitted.outcome != "deadline_exceeded" {
        return Err(format!("wrong outcome label: {}", emitted.outcome));
    }
    let abort = emitted
        .abort
        .as_ref()
        .ok_or("abort object missing from the report")?;
    if abort.reason != "deadline_exceeded" || !abort.resumable {
        return Err(format!("incoherent abort object: {abort:?}"));
    }
    std::fs::write("ABORT_REPORT.json", format!("{}\n", emitted.to_json()))
        .map_err(|e| format!("write ABORT_REPORT.json: {e}"))?;
    let text = std::fs::read_to_string("ABORT_REPORT.json")
        .map_err(|e| format!("read ABORT_REPORT.json: {e}"))?;
    let parsed =
        RunReport::from_json(text.trim()).map_err(|e| format!("ABORT_REPORT.json: {e}"))?;
    if &parsed != emitted {
        return Err("ABORT_REPORT.json does not round-trip to the emitted report".into());
    }

    // Resume the checkpoint without the deadline: the search continues to
    // the ordinary verdict, reporting under `entry_point: "resume"`.
    let checkpoint = stop
        .checkpoint
        .ok_or("a deadline stop from `check` must carry a checkpoint")?;
    let resume_opts = VerifyOptions {
        reporter: ReporterHandle::new(buf.clone()),
        ..VerifyOptions::default()
    };
    let resumed = verifier
        .resume(checkpoint, &resume_opts)
        .map_err(|e| format!("resume failed: {e}"))?;
    if resumed.outcome.is_inconclusive() {
        return Err("the resumed run must reach a verdict".into());
    }
    let resumed_reports = buf.take_reports();
    if resumed_reports.len() != 1 || resumed_reports[0].entry_point != "resume" {
        return Err("the resumed run must emit one report labelled `resume`".into());
    }

    println!(
        "deadline_abort: ok — abort outcome={} (budget {} ns, resumable), \
         resumed to outcome={} visiting {} states (ABORT_REPORT.json)",
        parsed.outcome, abort.budget, resumed_reports[0].outcome, resumed.stats.states_visited,
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("deadline_abort: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}
