//! The committed measurement artifacts stay readable by this build.
//!
//! Run-report decoders accept the current schema version only, so every
//! committed artifact that embeds a report — the `BENCH_*.json` files at
//! the workspace root and the `ABORT_REPORT.json` of
//! `examples/deadline_abort` — must be regenerated when the schema moves.
//! This suite parses each of them, requires every embedded `run_report`
//! (and `ABORT_REPORT.json`, which is one report) to pass
//! `RunReport::from_json_value`, and requires every bench artifact to
//! name the core count of the host it was measured on.

use ddws_telemetry::{Json, RunReport};
use std::path::{Path, PathBuf};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn parse(path: &Path) -> Json {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every value stored under a `run_report` key, at any depth.
fn run_reports<'a>(v: &'a Json, out: &mut Vec<&'a Json>) {
    match v {
        Json::Object(fields) => {
            for (key, value) in fields {
                if key == "run_report" {
                    out.push(value);
                } else {
                    run_reports(value, out);
                }
            }
        }
        Json::Array(items) => items.iter().for_each(|item| run_reports(item, out)),
        _ => {}
    }
}

fn bench_artifacts() -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(root())
        .expect("read the workspace root")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    paths.sort();
    paths
}

#[test]
fn every_bench_artifact_embeds_a_current_report_and_names_its_host() {
    let paths = bench_artifacts();
    assert!(!paths.is_empty(), "no BENCH_*.json at the workspace root");
    for path in paths {
        let doc = parse(&path);
        let mut reports = Vec::new();
        run_reports(&doc, &mut reports);
        assert!(!reports.is_empty(), "{}: no run_report", path.display());
        for report in reports {
            RunReport::from_json_value(report)
                .unwrap_or_else(|e| panic!("{}: run_report: {e}", path.display()));
        }
        assert!(
            doc.get("cores")
                .and_then(Json::as_u64)
                .is_some_and(|n| n > 0),
            "{}: missing the host's `cores`",
            path.display()
        );
    }
}

#[test]
fn the_abort_report_artifact_is_a_current_abort_report() {
    let report = RunReport::from_json_value(&parse(&root().join("ABORT_REPORT.json")))
        .unwrap_or_else(|e| panic!("ABORT_REPORT.json: {e}"));
    assert_eq!(report.outcome, "deadline_exceeded");
    assert!(report.abort.is_some_and(|a| a.resumable));
}
