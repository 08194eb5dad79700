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
//! of the bench entry point (E5's cells hold a configuration count
//! instead), and each experiment carries the keys its
//! acceptance pass promises. EXPERIMENTS.md cites only artifacts that are
//! committed.

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

/// Keys each experiment's artifact must carry, at any depth: the paper
/// shapes, the differential verdicts, the symmetry before/after and the
/// latency tails the acceptance passes promise.
const REQUIRED_KEYS: &[(&str, &[&str])] = &[
    ("BENCH_E1.json", &["customers"]),
    (
        "BENCH_E2.json",
        &["direct", "reduced", "reduced_over_direct"],
    ),
    ("BENCH_E3.json", &["data_agnostic", "data_aware"]),
    ("BENCH_E4.json", &["unconstrained", "modular"]),
    ("BENCH_E5.json", &["perfect", "lossy", "configs"]),
    ("BENCH_E6.json", &["fixed", "all_databases"]),
    ("BENCH_E7.json", &["peers"]),
    (
        "BENCH_E8.json",
        &["chains_holds", "bank_violated", "engines"],
    ),
    ("BENCH_E9.json", &["auditor_chain", "states_ratio"]),
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
        let mut timed = Vec::new();
        holders(&doc, "median_ns", &mut timed);
        assert!(!timed.is_empty(), "{}: no `median_ns` cell", path.display());
        let mut cells = Vec::new();
        holders(&doc, "run_report", &mut cells);
        // E5 counts configurations with `state_space_size`, which explores
        // the configuration graph without a verifier entry point, so its
        // cells have no run report to embed.
        if !path.ends_with("BENCH_E5.json") {
            assert!(!cells.is_empty(), "{}: no run_report", path.display());
        }
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
fn experiments_md_cites_only_committed_artifacts() {
    let text = std::fs::read_to_string(root().join("EXPERIMENTS.md")).expect("read EXPERIMENTS.md");
    for missing in ["bench_output.txt", "test_output.txt"] {
        assert!(
            !text.contains(missing),
            "EXPERIMENTS.md cites `{missing}`, which is not in the repository"
        );
    }
    let cited: std::collections::BTreeSet<&str> = text
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '.'))
        .map(|word| word.trim_end_matches('.'))
        .filter(|word| word.starts_with("BENCH_") && word.ends_with(".json"))
        .collect();
    assert!(!cited.is_empty(), "EXPERIMENTS.md cites no BENCH_*.json");
    for name in cited {
        assert!(
            root().join(name).is_file(),
            "EXPERIMENTS.md cites {name}, which is not committed"
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
