//! The committed measurement artifacts stay readable by this build.
//!
//! Run-report decoders accept the current schema version only, so every
//! committed artifact that embeds a report — the `BENCH_*.json` files at
//! the workspace root and the `ABORT_REPORT.json` of
//! `examples/deadline_abort` — must be regenerated when the schema moves.
//! This suite parses each of them, requires every embedded `run_report`
//! (and `ABORT_REPORT.json`, which is one report) to pass
//! `RunReport::from_json_value`, and requires every bench artifact to
//! name the host, scale and sample count it was measured with. Every
//! measured cell of a bench artifact is a `median_ns` plus the run report
//! of the bench entry point, and each experiment carries the keys its
//! acceptance pass promises.

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

/// Every object holding a `key`, at any depth.
fn holders<'a>(v: &'a Json, key: &str, out: &mut Vec<&'a Json>) {
    match v {
        Json::Object(fields) => {
            if v.get(key).is_some() {
                out.push(v);
            }
            for (_, value) in fields {
                holders(value, key, out);
            }
        }
        Json::Array(items) => items.iter().for_each(|item| holders(item, key, out)),
        _ => {}
    }
}

/// Keys each experiment's artifact must carry, at any depth: the
/// differential verdicts, the symmetry before/after and the latency
/// tails the acceptance passes promise.
const REQUIRED_KEYS: &[(&str, &[&str])] = &[
    ("BENCH_E10.json", &["engines", "speedup", "hit_rate"]),
    ("BENCH_E11.json", &["engines", "overhead"]),
    (
        "BENCH_E13.json",
        &["differential", "symmetry", "symmetry_merges", "checkpoint"],
    ),
    ("BENCH_E14.json", &["differential", "nba_cache_hit_rate"]),
    ("BENCH_E15.json", &["p99_ns", "jobs_per_sec"]),
    ("BENCH_E16.json", &["p99_degradation_pct", "overload"]),
];

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
        let mut cells = Vec::new();
        holders(&doc, "run_report", &mut cells);
        assert!(!cells.is_empty(), "{}: no run_report", path.display());
        for cell in cells {
            let report = RunReport::from_json_value(cell.get("run_report").expect("a holder"))
                .unwrap_or_else(|e| panic!("{}: run_report: {e}", path.display()));
            assert_eq!(report.entry_point, "bench", "{}", path.display());
            assert!(
                cell.get("median_ns").and_then(Json::as_u64).is_some(),
                "{}: a cell without `median_ns`",
                path.display()
            );
        }
        for key in ["cores", "samples"] {
            assert!(
                doc.get(key).and_then(Json::as_u64).is_some_and(|n| n > 0),
                "{}: missing `{key}`",
                path.display()
            );
        }
        assert!(
            matches!(
                doc.get("mode").and_then(Json::as_str),
                Some("full" | "smoke")
            ),
            "{}: missing `mode`",
            path.display()
        );
    }
}

#[test]
fn every_experiment_carries_the_keys_its_acceptance_promises() {
    for (name, keys) in REQUIRED_KEYS {
        let doc = parse(&root().join(name));
        for key in *keys {
            let mut found = Vec::new();
            holders(&doc, key, &mut found);
            assert!(!found.is_empty(), "{name}: no `{key}`");
        }
    }
}

#[test]
fn the_abort_report_artifact_is_a_current_abort_report() {
    let report = RunReport::from_json_value(&parse(&root().join("ABORT_REPORT.json")))
        .unwrap_or_else(|e| panic!("ABORT_REPORT.json: {e}"));
    assert_eq!(report.outcome, "deadline_exceeded");
    assert!(report.abort.is_some_and(|a| a.resumable));
}
