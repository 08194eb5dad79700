//! The final, versioned run report every verify entry point emits.
//!
//! # Schema and versioning policy
//!
//! A report is a single JSON object whose first two fields identify it:
//! `"schema": "ddws.run-report"` and `"version": 6`. Within a version the
//! field set and serialization order are frozen, so two reports from runs
//! with identical non-timing behaviour are byte-identical after
//! [`RunReport::redacted`]. Additive changes (new counters, new phases)
//! bump the version. [`RunReport::from_json_value`] reads the current
//! version only and rejects every other one with an `Err`: no report
//! consumer exists outside this workspace, so committed artifacts are
//! regenerated on a bump rather than parsed across versions.
//!
//! The `counters` and `phases` blocks are encoded and decoded from one
//! ordered key list each (`Counters::fields_mut`, `PhaseTimes::fields_mut`),
//! so a new counter is one entry there plus the version bump.
//!
//! **Version history.** v1 froze the field set through `phases` with the
//! outcome vocabulary `holds | violated | budget_exceeded`. v2 added the
//! optional `abort` object (`reason`, `budget`, `spent`, `resumable`) —
//! present exactly when the run stopped without a verdict — and widened the
//! outcome vocabulary with `deadline_exceeded`, `cancelled` and
//! `worker_panicked`. v3 added the grounded-NBA cache counters
//! (`nba_cache_hits`, `nba_cache_misses`) introduced by valuation-level
//! sharding, and widened [`RunReport::redacted`] to also zero the cache
//! meters (rule and NBA), which are schedule-dependent when superseded
//! shards contribute partial work. v4 added the `crash_recoveries`
//! counter: how many crashed scheduler slices the serving layer absorbed
//! and re-dispatched from a parked checkpoint before this report's run
//! finished (0 for direct, unserved runs). v5 added the
//! `valuations_vacuous` counter: universal-closure valuations the
//! column-domain analysis decided before any search (deterministic, so
//! redaction keeps it). v6 added the `symmetry_merges` counter: successor
//! configurations the symmetry reduction replaced by a different orbit
//! representative (a pure function of the input on `holds` runs, so
//! redaction keeps it).

use crate::control::AbortReason;
use crate::json::Json;
use crate::stats::SearchStats;

/// The schema identifier every run report carries.
pub const SCHEMA_NAME: &str = "ddws.run-report";
/// The schema version every encoder writes and the decoder accepts
/// (frozen field set; bump on change).
pub const SCHEMA_VERSION: u64 = 6;

/// The outcome labels of a run that stopped without a verdict; a report
/// carries an `abort` object exactly when its outcome is one of these.
const ABORT_LABELS: [&str; 4] = [
    "budget_exceeded",
    "deadline_exceeded",
    "cancelled",
    "worker_panicked",
];

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
    /// Grounded-NBA cache hits.
    pub nba_cache_hits: u64,
    /// Grounded-NBA cache misses — distinct grounded formula shapes
    /// translated.
    pub nba_cache_misses: u64,
    /// Crashed scheduler slices absorbed by the serving layer's
    /// supervisor and re-dispatched from a parked checkpoint (0 for
    /// direct runs). The count is deterministic under a seeded crash
    /// plan, so redaction keeps it.
    pub crash_recoveries: u64,
    /// Universal-closure valuations decided `holds` without a search
    /// because their negated property folds to `false`.
    pub valuations_vacuous: u64,
    /// Successor configurations the symmetry reduction replaced by a
    /// different orbit representative.
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

    /// The integer counters under their JSON keys, in serialization order
    /// (`truncated`, the one flag, follows them): the single list the
    /// encoder and the decoder both walk.
    fn fields_mut(&mut self) -> [(&'static str, &mut u64); 13] {
        [
            ("states_visited", &mut self.states_visited),
            ("transitions_explored", &mut self.transitions_explored),
            ("states_expanded", &mut self.states_expanded),
            ("ample_hits", &mut self.ample_hits),
            ("full_expansions", &mut self.full_expansions),
            ("rule_evals", &mut self.rule_evals),
            ("rule_cache_hits", &mut self.rule_cache_hits),
            ("rule_cache_misses", &mut self.rule_cache_misses),
            ("nba_cache_hits", &mut self.nba_cache_hits),
            ("nba_cache_misses", &mut self.nba_cache_misses),
            ("crash_recoveries", &mut self.crash_recoveries),
            ("valuations_vacuous", &mut self.valuations_vacuous),
            ("symmetry_merges", &mut self.symmetry_merges),
        ]
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

impl PhaseTimes {
    /// The phase timers under their JSON keys, in serialization order.
    fn fields_mut(&mut self) -> [(&'static str, &mut u64); 8] {
        [
            ("nba_translation_ns", &mut self.nba_translation_ns),
            ("boot_ns", &mut self.boot_ns),
            ("successor_ns", &mut self.successor_ns),
            ("rule_eval_ns", &mut self.rule_eval_ns),
            ("queue_bookkeeping_ns", &mut self.queue_bookkeeping_ns),
            ("lasso_ns", &mut self.lasso_ns),
            ("counterexample_ns", &mut self.counterexample_ns),
            ("total_ns", &mut self.total_ns),
        ]
    }
}

/// `(key, UInt)` object fields from a `fields_mut` list.
pub(crate) fn uint_fields<const N: usize>(list: [(&str, &mut u64); N]) -> Vec<(String, Json)> {
    list.into_iter()
        .map(|(key, n)| (key.to_string(), Json::UInt(*n)))
        .collect()
}

/// Fills a `fields_mut` list from the integer fields of a JSON object.
pub(crate) fn read_uints<const N: usize>(
    v: &Json,
    list: [(&str, &mut u64); N],
) -> Result<(), String> {
    for (key, slot) in list {
        *slot = field(v, key, Json::as_u64, "integer")?;
    }
    Ok(())
}

/// One typed field of a JSON object, or the error naming it.
fn field<'a, T>(
    v: &'a Json,
    key: &str,
    typed: fn(&'a Json) -> Option<T>,
    what: &str,
) -> Result<T, String> {
    v.get(key)
        .and_then(typed)
        .ok_or_else(|| format!("missing or non-{what} field `{key}`"))
}

/// How a run that stopped without a verdict stopped.
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
        let (mut counters, mut phases) = (self.counters, self.phases);
        let mut counter_fields = uint_fields(counters.fields_mut());
        counter_fields.push(("truncated".into(), Json::Bool(counters.truncated)));
        fields.extend([
            (
                "valuations_checked".into(),
                Json::UInt(self.valuations_checked),
            ),
            ("domain_size".into(), Json::UInt(self.domain_size)),
            ("counters".into(), Json::Object(counter_fields)),
            (
                "phases".into(),
                Json::Object(uint_fields(phases.fields_mut())),
            ),
        ]);
        Json::Object(fields)
    }

    /// Parses a report from its JSON encoding: [`Json::parse`], then
    /// [`RunReport::from_json_value`].
    pub fn from_json(input: &str) -> Result<RunReport, String> {
        RunReport::from_json_value(&Json::parse(input)?)
    }

    /// Decodes and validates a parsed report in one pass: the schema name,
    /// `version` equal to [`SCHEMA_VERSION`], every field with its type,
    /// the closed outcome vocabulary, and the rule that an `abort` object
    /// is present exactly when the outcome is an abort label, with
    /// `abort.reason` equal to the outcome. Unknown keys are ignored.
    pub fn from_json_value(v: &Json) -> Result<RunReport, String> {
        let text = |key| field(v, key, Json::as_str, "string").map(str::to_string);
        let schema = text("schema")?;
        if schema != SCHEMA_NAME {
            return Err(format!("bad schema `{schema}` (want `{SCHEMA_NAME}`)"));
        }
        let version = field(v, "version", Json::as_u64, "integer")?;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema version {version} (want {SCHEMA_VERSION})"
            ));
        }
        let outcome = text("outcome")?;
        let abortish = ABORT_LABELS.contains(&outcome.as_str());
        if !abortish && outcome != "holds" && outcome != "violated" {
            return Err(format!("unknown outcome `{outcome}`"));
        }
        let abort = match (v.get("abort"), abortish) {
            (None, false) => None,
            (None, true) => return Err(format!("outcome `{outcome}` requires an `abort` object")),
            (Some(_), false) => {
                return Err(format!("outcome `{outcome}` forbids an `abort` object"))
            }
            (Some(a), true) => {
                let reason = field(a, "reason", Json::as_str, "string abort")?;
                if reason != outcome {
                    return Err(format!(
                        "abort.reason `{reason}` does not match outcome `{outcome}`"
                    ));
                }
                Some(Abort {
                    reason: outcome.clone(),
                    budget: field(a, "budget", Json::as_u64, "integer abort")?,
                    spent: field(a, "spent", Json::as_u64, "integer abort")?,
                    resumable: field(a, "resumable", Json::as_bool, "bool abort")?,
                })
            }
        };
        let block = |key| v.get(key).ok_or_else(|| format!("missing `{key}` object"));
        let (mut counters, mut phases) = (Counters::default(), PhaseTimes::default());
        let counter_block = block("counters")?;
        read_uints(counter_block, counters.fields_mut())?;
        counters.truncated = field(counter_block, "truncated", Json::as_bool, "bool")?;
        read_uints(block("phases")?, phases.fields_mut())?;
        Ok(RunReport {
            entry_point: text("entry_point")?,
            engine: text("engine")?,
            reduction: text("reduction")?,
            rule_eval: text("rule_eval")?,
            outcome,
            abort,
            valuations_checked: field(v, "valuations_checked", Json::as_u64, "integer")?,
            domain_size: field(v, "domain_size", Json::as_u64, "integer")?,
            counters,
            phases,
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
        assert!(RunReport::from_json_value(&r.to_json_value()).is_ok());
        let bad_schema = r.to_json().replace("ddws.run-report", "other.schema");
        assert!(RunReport::from_json(&bad_schema).is_err());
        // Every version but the current one is an error, older ones included.
        for version in (0..=10).chain([99, u64::MAX]) {
            let doc = r
                .to_json()
                .replace("\"version\":6", &format!("\"version\":{version}"));
            assert_eq!(
                RunReport::from_json(&doc).is_ok(),
                version == SCHEMA_VERSION
            );
        }
        let bad_outcome = r.to_json().replace("\"holds\"", "\"maybe\"");
        assert!(RunReport::from_json(&bad_outcome).is_err());
        let missing = r.to_json().replace("\"states_visited\":10,", "");
        assert!(RunReport::from_json(&missing).is_err());
    }

    #[test]
    fn every_counter_and_phase_key_is_required() {
        let r = sample();
        let (mut c, mut p) = (r.counters, r.phases);
        let keys: Vec<(&str, &str)> = c
            .fields_mut()
            .into_iter()
            .map(|(k, _)| ("counters", k))
            .chain([("counters", "truncated")])
            .chain(p.fields_mut().into_iter().map(|(k, _)| ("phases", k)))
            .collect();
        assert_eq!(keys.len(), 22);
        for (block, key) in keys {
            let mut doc = r.to_json_value();
            let Json::Object(fields) = &mut doc else {
                unreachable!()
            };
            let (_, Json::Object(inner)) = fields.iter_mut().find(|(k, _)| k == block).unwrap()
            else {
                unreachable!()
            };
            inner.retain(|(k, _)| k != key);
            assert!(RunReport::from_json_value(&doc).is_err(), "{block}.{key}");
        }
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
        assert!(RunReport::from_json_value(&r.to_json_value()).is_err());
        // Abort object on a verdict outcome.
        let mut r = aborted_sample();
        r.outcome = "holds".into();
        assert!(RunReport::from_json_value(&r.to_json_value()).is_err());
        // Reason disagreeing with the outcome.
        let mut r = aborted_sample();
        r.abort.as_mut().unwrap().reason = "cancelled".into();
        assert!(RunReport::from_json_value(&r.to_json_value()).is_err());
        // Wrongly typed `resumable`.
        let bad = aborted_sample()
            .to_json()
            .replace("\"resumable\":true", "\"resumable\":1");
        assert!(RunReport::from_json(&bad).is_err());
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
