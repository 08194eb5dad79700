//! The final, versioned run report every verify entry point emits.
//!
//! # Schema and versioning policy
//!
//! A report is a single JSON object whose first two fields identify it:
//! `"schema": "ddws.run-report"` and `"version": 2`. Within a version the
//! field set and serialization order are frozen, so two reports from runs
//! with identical non-timing behaviour are byte-identical after
//! [`RunReport::redacted`]. Additive changes (new counters, new phases)
//! bump the version; consumers should accept any version they know and
//! reject unknown schema names. [`validate_run_report`] checks a parsed
//! document against every version this crate understands.
//!
//! **Version history.** v1 froze the field set through `phases` with the
//! outcome vocabulary `holds | violated | budget_exceeded`. v2 adds an
//! optional `abort` object (`reason`, `budget`, `spent`, `resumable`) —
//! present exactly when the run stopped without a verdict — and widens the
//! outcome vocabulary with `deadline_exceeded`, `cancelled` and
//! `worker_panicked`. v3 adds the grounded-NBA cache counters
//! (`nba_cache_hits`, `nba_cache_misses`) introduced by valuation-level
//! sharding, and widens [`RunReport::redacted`] to also zero the cache
//! meters (rule and NBA), which are schedule-dependent when superseded
//! shards contribute partial work. v4 adds the `crash_recoveries`
//! counter: how many crashed scheduler slices the serving layer absorbed
//! and re-dispatched from a parked checkpoint before this report's run
//! finished (0 for direct, unserved runs). v5 adds the
//! `valuations_vacuous` counter: universal-closure valuations the
//! column-domain analysis decided before any search (deterministic, so
//! redaction keeps it). v6 adds the `symmetry_merges` counter: successor
//! configurations the symmetry reduction replaced by a different orbit
//! representative (a pure function of the input on `holds` runs, so
//! redaction keeps it). [`RunReport::from_json`] still accepts v1–v5
//! documents (their `abort` / NBA counters / `crash_recoveries` /
//! `valuations_vacuous` / `symmetry_merges` default to `None` / 0 / 0 /
//! 0 / 0).

use crate::control::AbortReason;
use crate::json::Json;
use crate::stats::SearchStats;

/// The schema identifier every run report carries.
pub const SCHEMA_NAME: &str = "ddws.run-report";
/// The current schema version (frozen field set; bump on change).
pub const SCHEMA_VERSION: u64 = 6;
/// The oldest schema version [`RunReport::from_json`] still accepts.
pub const MIN_SCHEMA_VERSION: u64 = 1;

/// Verdict-relevant counters, copied out of [`SearchStats`] at the end of
/// a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Distinct states inserted into the visited set.
    pub states_visited: u64,
    /// Product transitions traversed.
    pub transitions_explored: u64,
    /// Successor-list computations.
    pub states_expanded: u64,
    /// Expansions answered from a proper ample subset.
    pub ample_hits: u64,
    /// Expansions using the full successor set under active reduction.
    pub full_expansions: u64,
    /// Metered rule evaluations.
    pub rule_evals: u64,
    /// Footprint-cache hits.
    pub rule_cache_hits: u64,
    /// Footprint-cache misses.
    pub rule_cache_misses: u64,
    /// Grounded-NBA cache hits (schema v3; 0 when parsed from older
    /// documents).
    pub nba_cache_hits: u64,
    /// Grounded-NBA cache misses — distinct grounded formula shapes
    /// translated (schema v3; 0 when parsed from older documents).
    pub nba_cache_misses: u64,
    /// Crashed scheduler slices absorbed by the serving layer's
    /// supervisor and re-dispatched from a parked checkpoint (schema v4;
    /// 0 for direct runs and when parsed from older documents). The
    /// count is deterministic under a seeded crash plan, so redaction
    /// keeps it.
    pub crash_recoveries: u64,
    /// Universal-closure valuations decided `holds` without a search
    /// because their negated property folds to `false` (schema v5; 0 when
    /// parsed from older documents).
    pub valuations_vacuous: u64,
    /// Successor configurations the symmetry reduction replaced by a
    /// different orbit representative (schema v6; 0 when parsed from
    /// older documents).
    pub symmetry_merges: u64,
    /// Whether any contributing search aborted on its state budget.
    pub truncated: bool,
}

impl Counters {
    /// Extracts the counter subset of a stats block.
    pub fn from_stats(stats: &SearchStats) -> Counters {
        Counters {
            states_visited: stats.states_visited,
            transitions_explored: stats.transitions_explored,
            states_expanded: stats.states_expanded,
            ample_hits: stats.ample_hits,
            full_expansions: stats.full_expansions,
            rule_evals: stats.rule_evals,
            rule_cache_hits: stats.rule_cache_hits,
            rule_cache_misses: stats.rule_cache_misses,
            nba_cache_hits: stats.nba_cache_hits,
            nba_cache_misses: stats.nba_cache_misses,
            crash_recoveries: 0,
            valuations_vacuous: stats.valuations_vacuous,
            symmetry_merges: stats.symmetry_merges,
            truncated: stats.truncated,
        }
    }
}

/// Span timers for the search phases, in nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// LTL-FO → NBA translation (or protocol complementation).
    pub nba_translation_ns: u64,
    /// Boot-configuration enumeration.
    pub boot_ns: u64,
    /// Successor generation (includes rule evaluation).
    pub successor_ns: u64,
    /// Rule evaluation inside boot + successor generation.
    pub rule_eval_ns: u64,
    /// Successor-generation time not spent evaluating rules: queue and
    /// oracle bookkeeping, `(boot_ns + successor_ns) - rule_eval_ns`,
    /// saturating.
    pub queue_bookkeeping_ns: u64,
    /// SCC/lasso extraction.
    pub lasso_ns: u64,
    /// Counterexample replay/materialization.
    pub counterexample_ns: u64,
    /// Wall-clock of the whole entry point.
    pub total_ns: u64,
}

/// How a run that stopped without a verdict stopped (schema v2).
///
/// Present on a report exactly when its outcome is one of the abort labels
/// (`budget_exceeded`, `deadline_exceeded`, `cancelled`,
/// `worker_panicked`); absent on `holds` and `violated`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Abort {
    /// The abort label, equal to the report's outcome (see
    /// [`AbortReason::label`]).
    pub reason: String,
    /// The exhausted budget in the reason's native unit: states for
    /// `budget_exceeded`, nanoseconds for `deadline_exceeded`, 0 for
    /// externally imposed stops (see [`AbortReason::budget`]).
    pub budget: u64,
    /// What the run had spent when it stopped: states visited for
    /// `budget_exceeded` / `cancelled` / `worker_panicked`, elapsed
    /// nanoseconds for `deadline_exceeded`.
    pub spent: u64,
    /// Whether the run captured a checkpoint a caller can resume from.
    pub resumable: bool,
}

impl Abort {
    /// Builds the abort object for a reason, with `spent` filled from the
    /// unit the reason's budget is denominated in.
    pub fn new(
        reason: &AbortReason,
        states_visited: u64,
        elapsed_ns: u64,
        resumable: bool,
    ) -> Abort {
        let spent = match reason {
            AbortReason::DeadlineExceeded { .. } => elapsed_ns,
            _ => states_visited,
        };
        Abort {
            reason: reason.label().to_string(),
            budget: reason.budget(),
            spent,
            resumable,
        }
    }
}

/// The final report of one verification run.
///
/// Emitted by every entry point — `Verifier::check`, `check_modular`, the
/// protocol checks, and the bench harness — through the run's
/// [`Reporter`](crate::Reporter), and carried on the verifier's `Report`.
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    /// Which entry point produced the report (`"check"`,
    /// `"check_modular"`, `"protocol_data_agnostic"`,
    /// `"protocol_data_aware"`, `"bench"`).
    pub entry_point: String,
    /// The engine: `"seq"` or `"par{n}"`.
    pub engine: String,
    /// The requested reduction: `"full"` or `"ample"`.
    pub reduction: String,
    /// The rule-evaluation mode: `"compiled"` or `"interpreted"`.
    pub rule_eval: String,
    /// `"holds"`, `"violated"`, or one of the abort labels
    /// (`"budget_exceeded"`, `"deadline_exceeded"`, `"cancelled"`,
    /// `"worker_panicked"`).
    pub outcome: String,
    /// The abort object; `Some` exactly when the outcome is an abort label.
    pub abort: Option<Abort>,
    /// Size of the universal closure the run covered, on every outcome.
    pub valuations_checked: u64,
    /// Size of the verification domain.
    pub domain_size: u64,
    /// The counter block.
    pub counters: Counters,
    /// The phase timers.
    pub phases: PhaseTimes,
}

impl RunReport {
    /// Serializes to the canonical compact JSON encoding (stable field
    /// order; see the module docs).
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string()
    }

    /// The report as a [`Json`] value, in canonical field order. The
    /// `abort` field is serialized exactly when present, right after
    /// `outcome`.
    pub fn to_json_value(&self) -> Json {
        let c = &self.counters;
        let p = &self.phases;
        let mut fields = vec![
            ("schema".into(), Json::Str(SCHEMA_NAME.into())),
            ("version".into(), Json::UInt(SCHEMA_VERSION)),
            ("entry_point".into(), Json::Str(self.entry_point.clone())),
            ("engine".into(), Json::Str(self.engine.clone())),
            ("reduction".into(), Json::Str(self.reduction.clone())),
            ("rule_eval".into(), Json::Str(self.rule_eval.clone())),
            ("outcome".into(), Json::Str(self.outcome.clone())),
        ];
        if let Some(a) = &self.abort {
            fields.push((
                "abort".into(),
                Json::Object(vec![
                    ("reason".into(), Json::Str(a.reason.clone())),
                    ("budget".into(), Json::UInt(a.budget)),
                    ("spent".into(), Json::UInt(a.spent)),
                    ("resumable".into(), Json::Bool(a.resumable)),
                ]),
            ));
        }
        fields.extend([
            (
                "valuations_checked".into(),
                Json::UInt(self.valuations_checked),
            ),
            ("domain_size".into(), Json::UInt(self.domain_size)),
            (
                "counters".into(),
                Json::Object(vec![
                    ("states_visited".into(), Json::UInt(c.states_visited)),
                    (
                        "transitions_explored".into(),
                        Json::UInt(c.transitions_explored),
                    ),
                    ("states_expanded".into(), Json::UInt(c.states_expanded)),
                    ("ample_hits".into(), Json::UInt(c.ample_hits)),
                    ("full_expansions".into(), Json::UInt(c.full_expansions)),
                    ("rule_evals".into(), Json::UInt(c.rule_evals)),
                    ("rule_cache_hits".into(), Json::UInt(c.rule_cache_hits)),
                    ("rule_cache_misses".into(), Json::UInt(c.rule_cache_misses)),
                    ("nba_cache_hits".into(), Json::UInt(c.nba_cache_hits)),
                    ("nba_cache_misses".into(), Json::UInt(c.nba_cache_misses)),
                    ("crash_recoveries".into(), Json::UInt(c.crash_recoveries)),
                    (
                        "valuations_vacuous".into(),
                        Json::UInt(c.valuations_vacuous),
                    ),
                    ("symmetry_merges".into(), Json::UInt(c.symmetry_merges)),
                    ("truncated".into(), Json::Bool(c.truncated)),
                ]),
            ),
            (
                "phases".into(),
                Json::Object(vec![
                    (
                        "nba_translation_ns".into(),
                        Json::UInt(p.nba_translation_ns),
                    ),
                    ("boot_ns".into(), Json::UInt(p.boot_ns)),
                    ("successor_ns".into(), Json::UInt(p.successor_ns)),
                    ("rule_eval_ns".into(), Json::UInt(p.rule_eval_ns)),
                    (
                        "queue_bookkeeping_ns".into(),
                        Json::UInt(p.queue_bookkeeping_ns),
                    ),
                    ("lasso_ns".into(), Json::UInt(p.lasso_ns)),
                    ("counterexample_ns".into(), Json::UInt(p.counterexample_ns)),
                    ("total_ns".into(), Json::UInt(p.total_ns)),
                ]),
            ),
        ]);
        Json::Object(fields)
    }

    /// Parses and validates a report from its JSON encoding.
    pub fn from_json(input: &str) -> Result<RunReport, String> {
        let v = Json::parse(input)?;
        validate_run_report(&v)?;
        let s = |key: &str| -> String { v.get(key).and_then(Json::as_str).unwrap().to_string() };
        let u = |key: &str| -> u64 { v.get(key).and_then(Json::as_u64).unwrap() };
        let c = v.get("counters").unwrap();
        let cu = |key: &str| -> u64 { c.get(key).and_then(Json::as_u64).unwrap() };
        let p = v.get("phases").unwrap();
        let pu = |key: &str| -> u64 { p.get(key).and_then(Json::as_u64).unwrap() };
        let abort = v.get("abort").map(|a| Abort {
            reason: a.get("reason").and_then(Json::as_str).unwrap().to_string(),
            budget: a.get("budget").and_then(Json::as_u64).unwrap(),
            spent: a.get("spent").and_then(Json::as_u64).unwrap(),
            resumable: a.get("resumable").and_then(Json::as_bool).unwrap(),
        });
        Ok(RunReport {
            entry_point: s("entry_point"),
            engine: s("engine"),
            reduction: s("reduction"),
            rule_eval: s("rule_eval"),
            outcome: s("outcome"),
            abort,
            valuations_checked: u("valuations_checked"),
            domain_size: u("domain_size"),
            counters: Counters {
                states_visited: cu("states_visited"),
                transitions_explored: cu("transitions_explored"),
                states_expanded: cu("states_expanded"),
                ample_hits: cu("ample_hits"),
                full_expansions: cu("full_expansions"),
                rule_evals: cu("rule_evals"),
                rule_cache_hits: cu("rule_cache_hits"),
                rule_cache_misses: cu("rule_cache_misses"),
                // v1/v2 documents predate the NBA cache counters.
                nba_cache_hits: c.get("nba_cache_hits").and_then(Json::as_u64).unwrap_or(0),
                nba_cache_misses: c
                    .get("nba_cache_misses")
                    .and_then(Json::as_u64)
                    .unwrap_or(0),
                // v1–v3 documents predate the supervisor counter.
                crash_recoveries: c
                    .get("crash_recoveries")
                    .and_then(Json::as_u64)
                    .unwrap_or(0),
                // v1–v4 documents predate the vacuous-valuation counter.
                valuations_vacuous: c
                    .get("valuations_vacuous")
                    .and_then(Json::as_u64)
                    .unwrap_or(0),
                // v1–v5 documents predate the symmetry counter.
                symmetry_merges: c.get("symmetry_merges").and_then(Json::as_u64).unwrap_or(0),
                truncated: c.get("truncated").and_then(Json::as_bool).unwrap(),
            },
            phases: PhaseTimes {
                nba_translation_ns: pu("nba_translation_ns"),
                boot_ns: pu("boot_ns"),
                successor_ns: pu("successor_ns"),
                rule_eval_ns: pu("rule_eval_ns"),
                queue_bookkeeping_ns: pu("queue_bookkeeping_ns"),
                lasso_ns: pu("lasso_ns"),
                counterexample_ns: pu("counterexample_ns"),
                total_ns: pu("total_ns"),
            },
        })
    }

    /// A copy with every timing and schedule-dependent field zeroed, for
    /// byte-comparison of the deterministic remainder across repeat runs.
    /// This zeroes the phase timers, the cache meters (`rule_evals`,
    /// `rule_cache_hits/misses`, `nba_cache_hits/misses` — the rule cache
    /// is shared across parallel workers and valuation shards, so the
    /// hit/miss split depends on the schedule, and a superseded shard's
    /// partial evaluations land in the run-wide totals), and, when an
    /// `abort` object is present, its `spent` field (wall-clock-dependent
    /// for deadline aborts, schedule-dependent for parallel runs).
    pub fn redacted(&self) -> RunReport {
        let mut r = self.clone();
        r.phases = PhaseTimes::default();
        r.counters.rule_evals = 0;
        r.counters.rule_cache_hits = 0;
        r.counters.rule_cache_misses = 0;
        r.counters.nba_cache_hits = 0;
        r.counters.nba_cache_misses = 0;
        if let Some(a) = &mut r.abort {
            a.spent = 0;
        }
        r
    }
}

/// Validates a parsed JSON document against every run-report schema
/// version this crate understands ([`MIN_SCHEMA_VERSION`] ..=
/// [`SCHEMA_VERSION`]): schema name, version, every required field with
/// the right type, a closed per-version outcome vocabulary, and — for v2
/// documents — the coherence rule that the `abort` object is present
/// exactly when the outcome is an abort label, with `abort.reason` equal
/// to the outcome.
pub fn validate_run_report(v: &Json) -> Result<(), String> {
    if !matches!(v, Json::Object(_)) {
        return Err("run report must be a JSON object".into());
    }
    match v.get("schema").and_then(Json::as_str) {
        Some(SCHEMA_NAME) => {}
        other => return Err(format!("bad schema field: {other:?}")),
    }
    let version = match v.get("version").and_then(Json::as_u64) {
        Some(n) if (MIN_SCHEMA_VERSION..=SCHEMA_VERSION).contains(&n) => n,
        other => return Err(format!("unsupported schema version: {other:?}")),
    };
    for key in ["entry_point", "engine", "reduction", "rule_eval", "outcome"] {
        if v.get(key).and_then(Json::as_str).is_none() {
            return Err(format!("missing or non-string field `{key}`"));
        }
    }
    let outcome = v.get("outcome").and_then(Json::as_str).unwrap();
    let abortish = matches!(
        outcome,
        "budget_exceeded" | "deadline_exceeded" | "cancelled" | "worker_panicked"
    );
    let known = match version {
        1 => matches!(outcome, "holds" | "violated" | "budget_exceeded"),
        _ => matches!(outcome, "holds" | "violated") || abortish,
    };
    if !known {
        return Err(format!("unknown outcome `{outcome}` for version {version}"));
    }
    match (version, v.get("abort"), abortish) {
        (1, None, _) => {}
        (1, Some(_), _) => return Err("v1 report carries an `abort` object".into()),
        (_, None, false) => {}
        (_, None, true) => {
            return Err(format!("outcome `{outcome}` requires an `abort` object"));
        }
        (_, Some(_), false) => {
            return Err(format!("outcome `{outcome}` forbids an `abort` object"));
        }
        (_, Some(a), true) => {
            match a.get("reason").and_then(Json::as_str) {
                Some(reason) if reason == outcome => {}
                other => {
                    return Err(format!(
                        "abort.reason {other:?} does not match outcome `{outcome}`"
                    ));
                }
            }
            for key in ["budget", "spent"] {
                if a.get(key).and_then(Json::as_u64).is_none() {
                    return Err(format!("missing or non-integer abort field `{key}`"));
                }
            }
            if a.get("resumable").and_then(Json::as_bool).is_none() {
                return Err("missing or non-bool abort field `resumable`".into());
            }
        }
    }
    for key in ["valuations_checked", "domain_size"] {
        if v.get(key).and_then(Json::as_u64).is_none() {
            return Err(format!("missing or non-integer field `{key}`"));
        }
    }
    let counters = v
        .get("counters")
        .ok_or("missing `counters` object".to_string())?;
    for key in [
        "states_visited",
        "transitions_explored",
        "states_expanded",
        "ample_hits",
        "full_expansions",
        "rule_evals",
        "rule_cache_hits",
        "rule_cache_misses",
    ] {
        if counters.get(key).and_then(Json::as_u64).is_none() {
            return Err(format!("missing or non-integer counter `{key}`"));
        }
    }
    if version >= 3 {
        for key in ["nba_cache_hits", "nba_cache_misses"] {
            if counters.get(key).and_then(Json::as_u64).is_none() {
                return Err(format!("missing or non-integer counter `{key}`"));
            }
        }
    }
    if version >= 4
        && counters
            .get("crash_recoveries")
            .and_then(Json::as_u64)
            .is_none()
    {
        return Err("missing or non-integer counter `crash_recoveries`".into());
    }
    if version >= 5
        && counters
            .get("valuations_vacuous")
            .and_then(Json::as_u64)
            .is_none()
    {
        return Err("missing or non-integer counter `valuations_vacuous`".into());
    }
    if version >= 6
        && counters
            .get("symmetry_merges")
            .and_then(Json::as_u64)
            .is_none()
    {
        return Err("missing or non-integer counter `symmetry_merges`".into());
    }
    if counters.get("truncated").and_then(Json::as_bool).is_none() {
        return Err("missing or non-bool counter `truncated`".into());
    }
    let phases = v
        .get("phases")
        .ok_or("missing `phases` object".to_string())?;
    for key in [
        "nba_translation_ns",
        "boot_ns",
        "successor_ns",
        "rule_eval_ns",
        "queue_bookkeeping_ns",
        "lasso_ns",
        "counterexample_ns",
        "total_ns",
    ] {
        if phases.get(key).and_then(Json::as_u64).is_none() {
            return Err(format!("missing or non-integer phase `{key}`"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        RunReport {
            entry_point: "check".into(),
            engine: "par2".into(),
            reduction: "ample".into(),
            rule_eval: "compiled".into(),
            outcome: "holds".into(),
            abort: None,
            valuations_checked: 3,
            domain_size: 4,
            counters: Counters {
                states_visited: 10,
                transitions_explored: 20,
                states_expanded: 11,
                ample_hits: 5,
                full_expansions: 6,
                rule_evals: 9,
                rule_cache_hits: 7,
                rule_cache_misses: 2,
                nba_cache_hits: 2,
                nba_cache_misses: 1,
                crash_recoveries: 3,
                valuations_vacuous: 4,
                symmetry_merges: 5,
                truncated: false,
            },
            phases: PhaseTimes {
                nba_translation_ns: 1,
                boot_ns: 2,
                successor_ns: 3,
                rule_eval_ns: 4,
                queue_bookkeeping_ns: 1,
                lasso_ns: 5,
                counterexample_ns: 6,
                total_ns: 100,
            },
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let r = sample();
        let encoded = r.to_json();
        let decoded = RunReport::from_json(&encoded).unwrap();
        assert_eq!(decoded, r);
        assert_eq!(decoded.to_json(), encoded);
    }

    fn aborted_sample() -> RunReport {
        let mut r = sample();
        r.outcome = "budget_exceeded".into();
        r.abort = Some(Abort {
            reason: "budget_exceeded".into(),
            budget: 100,
            spent: 108,
            resumable: true,
        });
        r.counters.truncated = true;
        r
    }

    #[test]
    fn validation_rejects_tampered_documents() {
        let r = sample();
        assert!(validate_run_report(&r.to_json_value()).is_ok());
        let bad_schema = r.to_json().replace("ddws.run-report", "other.schema");
        assert!(RunReport::from_json(&bad_schema).is_err());
        let bad_version = r.to_json().replace("\"version\":6", "\"version\":99");
        assert!(RunReport::from_json(&bad_version).is_err());
        let bad_outcome = r.to_json().replace("\"holds\"", "\"maybe\"");
        assert!(RunReport::from_json(&bad_outcome).is_err());
        let missing = r.to_json().replace("\"states_visited\":10,", "");
        assert!(RunReport::from_json(&missing).is_err());
    }

    #[test]
    fn abort_object_round_trips() {
        let r = aborted_sample();
        let encoded = r.to_json();
        assert!(encoded.contains("\"abort\":{\"reason\":\"budget_exceeded\""));
        let decoded = RunReport::from_json(&encoded).unwrap();
        assert_eq!(decoded, r);
        assert_eq!(decoded.to_json(), encoded);
    }

    #[test]
    fn abort_and_outcome_must_cohere() {
        // Abort-ish outcome without an abort object.
        let mut r = aborted_sample();
        r.abort = None;
        assert!(validate_run_report(&r.to_json_value()).is_err());
        // Abort object on a verdict outcome.
        let mut r = aborted_sample();
        r.outcome = "holds".into();
        assert!(validate_run_report(&r.to_json_value()).is_err());
        // Reason disagreeing with the outcome.
        let mut r = aborted_sample();
        r.abort.as_mut().unwrap().reason = "cancelled".into();
        assert!(validate_run_report(&r.to_json_value()).is_err());
        // Wrongly typed `resumable`.
        let bad = aborted_sample()
            .to_json()
            .replace("\"resumable\":true", "\"resumable\":1");
        assert!(RunReport::from_json(&bad).is_err());
    }

    #[test]
    fn v1_documents_are_still_accepted() {
        // A v1 report: version 1, no abort object, v1 outcome vocabulary.
        let v1 = sample()
            .to_json()
            .replace("\"version\":6", "\"version\":1")
            .replace("\"holds\"", "\"budget_exceeded\"");
        let decoded = RunReport::from_json(&v1).unwrap();
        assert_eq!(decoded.outcome, "budget_exceeded");
        assert_eq!(decoded.abort, None);
        // The v2-only outcome vocabulary is rejected under version 1...
        let v1_new_outcome = sample()
            .to_json()
            .replace("\"version\":6", "\"version\":1")
            .replace("\"holds\"", "\"cancelled\"");
        assert!(RunReport::from_json(&v1_new_outcome).is_err());
        // ...and so is a v1 document carrying an abort object.
        let v1_with_abort = aborted_sample()
            .to_json()
            .replace("\"version\":6", "\"version\":1");
        assert!(RunReport::from_json(&v1_with_abort).is_err());
    }

    #[test]
    fn v2_documents_are_still_accepted() {
        // A v2 report: version 2, abort object allowed, no NBA counters.
        let v2 = aborted_sample()
            .to_json()
            .replace("\"version\":6", "\"version\":2")
            .replace("\"nba_cache_hits\":2,\"nba_cache_misses\":1,", "")
            .replace("\"crash_recoveries\":3,", "")
            .replace("\"valuations_vacuous\":4,", "")
            .replace("\"symmetry_merges\":5,", "");
        let decoded = RunReport::from_json(&v2).unwrap();
        assert_eq!(decoded.outcome, "budget_exceeded");
        assert!(decoded.abort.is_some());
        assert_eq!(decoded.counters.nba_cache_hits, 0);
        assert_eq!(decoded.counters.nba_cache_misses, 0);
        // A v3+ document missing the NBA counters is rejected.
        let v3_missing = aborted_sample()
            .to_json()
            .replace("\"nba_cache_hits\":2,\"nba_cache_misses\":1,", "");
        assert!(RunReport::from_json(&v3_missing).is_err());
    }

    #[test]
    fn v3_documents_are_still_accepted() {
        // A v3 report: NBA counters present, no `crash_recoveries`.
        let v3 = aborted_sample()
            .to_json()
            .replace("\"version\":6", "\"version\":3")
            .replace("\"crash_recoveries\":3,", "")
            .replace("\"valuations_vacuous\":4,", "")
            .replace("\"symmetry_merges\":5,", "");
        let decoded = RunReport::from_json(&v3).unwrap();
        assert_eq!(decoded.counters.crash_recoveries, 0);
        assert_eq!(decoded.counters.nba_cache_hits, 2);
        // A v4 document missing the supervisor counter is rejected.
        let v4_missing = aborted_sample()
            .to_json()
            .replace("\"version\":6", "\"version\":4")
            .replace("\"crash_recoveries\":3,", "")
            .replace("\"valuations_vacuous\":4,", "")
            .replace("\"symmetry_merges\":5,", "");
        assert!(RunReport::from_json(&v4_missing).is_err());
    }

    #[test]
    fn v4_documents_are_still_accepted() {
        // A v4 report: supervisor counter present, no `valuations_vacuous`.
        let v4 = aborted_sample()
            .to_json()
            .replace("\"version\":6", "\"version\":4")
            .replace("\"valuations_vacuous\":4,", "")
            .replace("\"symmetry_merges\":5,", "");
        let decoded = RunReport::from_json(&v4).unwrap();
        assert_eq!(decoded.counters.valuations_vacuous, 0);
        assert_eq!(decoded.counters.crash_recoveries, 3);
        // A v5 document missing the vacuous-valuation counter is rejected.
        let v5_missing = aborted_sample()
            .to_json()
            .replace("\"version\":6", "\"version\":5")
            .replace("\"valuations_vacuous\":4,", "")
            .replace("\"symmetry_merges\":5,", "");
        assert!(RunReport::from_json(&v5_missing).is_err());
    }

    #[test]
    fn v5_documents_are_still_accepted() {
        // A v5 report: vacuous-valuation counter present, no
        // `symmetry_merges`.
        let v5 = aborted_sample()
            .to_json()
            .replace("\"version\":6", "\"version\":5")
            .replace("\"symmetry_merges\":5,", "");
        let decoded = RunReport::from_json(&v5).unwrap();
        assert_eq!(decoded.counters.symmetry_merges, 0);
        assert_eq!(decoded.counters.valuations_vacuous, 4);
        // A v6 document missing the symmetry counter is rejected.
        let v6_missing = aborted_sample()
            .to_json()
            .replace("\"symmetry_merges\":5,", "");
        assert!(RunReport::from_json(&v6_missing).is_err());
    }

    #[test]
    fn redaction_zeroes_exactly_the_timing_fields() {
        let mut r = sample();
        let red = r.redacted();
        assert_eq!(red.phases, PhaseTimes::default());
        r.phases = PhaseTimes::default();
        r.counters.rule_evals = 0;
        r.counters.rule_cache_hits = 0;
        r.counters.rule_cache_misses = 0;
        r.counters.nba_cache_hits = 0;
        r.counters.nba_cache_misses = 0;
        assert_eq!(red, r);
        // Traversal counters survive redaction — they are the
        // deterministic remainder the differential suite compares.
        assert_eq!(red.counters.states_visited, 10);
        assert_eq!(red.counters.transitions_explored, 20);
        // Crash recoveries are deterministic under a seeded crash plan,
        // and the vacuous-valuation count is a pure function of the input.
        assert_eq!(red.counters.crash_recoveries, 3);
        assert_eq!(red.counters.valuations_vacuous, 4);
        // So is the symmetry merge count on `holds` runs.
        assert_eq!(red.counters.symmetry_merges, 5);
        // For aborted runs, `spent` is timing/schedule-dependent too.
        let mut r = aborted_sample();
        let red = r.redacted();
        assert_eq!(red.abort.as_ref().unwrap().spent, 0);
        r.phases = PhaseTimes::default();
        r.counters.rule_evals = 0;
        r.counters.rule_cache_hits = 0;
        r.counters.rule_cache_misses = 0;
        r.counters.nba_cache_hits = 0;
        r.counters.nba_cache_misses = 0;
        r.abort.as_mut().unwrap().spent = 0;
        assert_eq!(red, r);
    }
}
