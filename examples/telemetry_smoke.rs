//! Telemetry smoke check: one bank-loan verification with the JSON-lines
//! reporter streaming to stderr, the final `RunReport` written to
//! `RUN_REPORT.json`, re-parsed, and validated against the documented
//! schema (DESIGN.md §3.9). Exits non-zero on any mismatch — CI runs this
//! and uploads the report as an artifact.
//!
//! Run with `cargo run --release --example telemetry_smoke`.

use ddws::scenarios::bank_loan;
use ddws_model::Semantics;
use ddws_verifier::{
    BufferReporter, DatabaseMode, JsonLinesReporter, ReporterHandle, RunReport, Verifier,
    VerifyOptions, SCHEMA_NAME, SCHEMA_VERSION,
};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn run() -> Result<(), String> {
    let mut verifier = Verifier::new(bank_loan::composition(
        true,
        Semantics {
            nested_send_skips_empty: true,
            ..Semantics::default()
        },
    ));
    let db = bank_loan::demo_database(verifier.composition_mut());

    // Stream progress + final report as JSON lines to stderr, and keep an
    // in-memory copy of the final report for the artifact.
    struct Tee {
        lines: JsonLinesReporter,
        buffer: BufferReporter,
    }
    impl ddws_verifier::Reporter for Tee {
        fn progress(&self, s: &ddws_telemetry::Progress) {
            self.lines.progress(s);
        }
        fn report(&self, r: &RunReport) {
            self.lines.report(r);
            self.buffer.report(r);
        }
    }
    let tee = Arc::new(Tee {
        lines: JsonLinesReporter::stderr(),
        buffer: BufferReporter::new(),
    });

    let opts = VerifyOptions {
        database: DatabaseMode::Fixed(db),
        fresh_values: Some(1),
        reporter: ReporterHandle::new(tee.clone()),
        progress_interval: Some(Duration::from_millis(100)),
        ..VerifyOptions::default()
    };
    let report = verifier
        .check_str(bank_loan::PROP_RATINGS_REFLECT_DB, &opts)
        .map_err(|e| format!("verification failed: {e}"))?;
    if !report.outcome.holds() {
        return Err("PROP_RATINGS_REFLECT_DB must hold on the demo database".into());
    }

    let reports = tee.buffer.take_reports();
    if reports.len() != 1 {
        return Err(format!(
            "expected exactly one final report, got {}",
            reports.len()
        ));
    }
    let json = reports[0].to_json();
    std::fs::write("RUN_REPORT.json", format!("{json}\n"))
        .map_err(|e| format!("write RUN_REPORT.json: {e}"))?;

    // Re-read the artifact and validate what actually landed on disk.
    let text = std::fs::read_to_string("RUN_REPORT.json")
        .map_err(|e| format!("read RUN_REPORT.json: {e}"))?;
    let parsed = RunReport::from_json(text.trim()).map_err(|e| format!("RUN_REPORT.json: {e}"))?;
    if parsed != reports[0] {
        return Err("RUN_REPORT.json does not round-trip to the emitted report".into());
    }
    if parsed != report.telemetry {
        return Err("reporter copy diverges from Report::telemetry".into());
    }

    println!(
        "telemetry_smoke: ok — {SCHEMA_NAME} v{SCHEMA_VERSION}, entry_point={}, \
         outcome={}, {} states in {:.3}s (RUN_REPORT.json)",
        parsed.entry_point,
        parsed.outcome,
        parsed.counters.states_visited,
        parsed.phases.total_ns as f64 / 1e9,
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("telemetry_smoke: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}
