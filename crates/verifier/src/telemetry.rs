//! Run-report plumbing shared by every verification entry point.
//!
//! Each entry point (`check`, `check_modular`, the protocol checks,
//! `resume`) opens a [`RunMeta`] when it starts, threads the engine-facing
//! [`EngineTelemetry`] bundle into every product search it launches, and
//! calls [`RunMeta::finish`] (verdicts) or [`RunMeta::finish_abort`]
//! (budget, deadline, cancellation, worker panic) exactly once on every
//! exit path — so a [`RunReport`] reaches the configured reporter no
//! matter how the run ends. Configuration errors (parse failures,
//! input-boundedness violations) abort *before* any search starts and
//! intentionally emit nothing.
//!
//! The wall-clock deadline is armed once, when the `RunMeta` opens: every
//! valuation of a run shares the same deadline instant, so
//! [`VerifyOptions::deadline`] bounds the whole entry-point call rather
//! than each product search individually.

use crate::product::SharedSearch;
use crate::verify::{Reduction, RuleEval, VerifyOptions};
use ddws_automata::{Deadline, SearchLimits};
use ddws_telemetry::{
    Abort, AbortReason, Counters, EngineTelemetry, PhaseTimes, ProgressGate, RunReport, SearchStats,
};
use std::time::Instant;

/// The engine label a thread count maps to in [`RunReport::engine`].
pub(crate) fn engine_label(threads: Option<usize>) -> String {
    match threads {
        None => "seq".to_string(),
        Some(n) => format!("par{n}"),
    }
}

/// Per-run bookkeeping that lives outside [`SearchStats`]: the wall clock,
/// the armed deadline, the progress gate, and the phase timers the
/// verifier (not the engine) owns — NBA translation and counterexample
/// replay.
pub(crate) struct RunMeta {
    entry: &'static str,
    started: Instant,
    deadline: Option<Deadline>,
    gate: Option<ProgressGate>,
    /// Accumulated LTL → NBA translation time across valuations.
    pub(crate) nba_ns: u64,
    /// Counterexample construction time (zero unless the run is violated).
    pub(crate) cex_ns: u64,
}

impl RunMeta {
    /// Opens the run: starts the wall clock, arms the deadline if
    /// `opts.deadline` sets one, and arms the progress gate if
    /// `opts.progress_interval` asks for one.
    pub(crate) fn new(entry: &'static str, opts: &VerifyOptions) -> RunMeta {
        RunMeta {
            entry,
            started: Instant::now(),
            deadline: opts.deadline.map(|d| match &opts.clock {
                Some(clock) => Deadline::after_on(clock.clone(), d),
                None => Deadline::after(d),
            }),
            gate: opts.progress_interval.map(ProgressGate::new),
            nba_ns: 0,
            cex_ns: 0,
        }
    }

    /// The limits every product search of this run honours: the state
    /// budget and run-control hooks from `opts`, plus the run-wide
    /// deadline armed at [`RunMeta::new`].
    pub(crate) fn limits(&self, opts: &VerifyOptions) -> SearchLimits {
        SearchLimits {
            max_states: Some(opts.max_states),
            deadline: self.deadline.clone(),
            cancel: opts.cancel_token.clone(),
            fault: opts.fault_hook.clone(),
        }
    }

    /// The telemetry bundle handed to one product search: the run's
    /// reporter and gate plus `shared`'s rule-cache counters for snapshots.
    pub(crate) fn engine_telemetry<'a>(
        &'a self,
        opts: &'a VerifyOptions,
        shared: &'a SharedSearch,
    ) -> EngineTelemetry<'a> {
        EngineTelemetry {
            reporter: opts.reporter.get(),
            gate: self.gate.as_ref(),
            rule_meter: Some(shared),
        }
    }

    /// Builds the final [`RunReport`] for a *verdict* (`holds` /
    /// `violated`), emits it through the run's reporter, and returns it
    /// for the caller's `Report`.
    pub(crate) fn finish(
        &self,
        opts: &VerifyOptions,
        outcome: &str,
        stats: &SearchStats,
        domain_size: usize,
        valuations_checked: usize,
    ) -> RunReport {
        self.emit(opts, outcome, None, stats, domain_size, valuations_checked)
    }

    /// Builds and emits the final [`RunReport`] for a graceful abort: the
    /// outcome is the reason's label and the report carries the `abort`
    /// object (budget, spent, resumability).
    pub(crate) fn finish_abort(
        &self,
        opts: &VerifyOptions,
        reason: &AbortReason,
        resumable: bool,
        stats: &SearchStats,
        domain_size: usize,
        valuations_checked: usize,
    ) -> RunReport {
        let elapsed_ns = self.started.elapsed().as_nanos() as u64;
        let abort = Abort::new(reason, stats.states_visited, elapsed_ns, resumable);
        self.emit(
            opts,
            reason.label(),
            Some(abort),
            stats,
            domain_size,
            valuations_checked,
        )
    }

    fn emit(
        &self,
        opts: &VerifyOptions,
        outcome: &str,
        abort: Option<Abort>,
        stats: &SearchStats,
        domain_size: usize,
        valuations_checked: usize,
    ) -> RunReport {
        let total_ns = self.started.elapsed().as_nanos() as u64;
        // Engine time not attributable to rule evaluation is queue/cache
        // bookkeeping: hashing configurations, frontier maintenance, cache
        // probes. Saturating because the interpreted path meters rule time
        // inside spans the boot/successor timers also cover.
        let queue_bookkeeping_ns =
            (stats.boot_ns + stats.successor_ns).saturating_sub(stats.rule_eval_ns);
        let report = RunReport {
            entry_point: self.entry.to_string(),
            engine: engine_label(opts.threads),
            reduction: match opts.reduction {
                Reduction::Full => "full",
                Reduction::Ample => "ample",
            }
            .to_string(),
            rule_eval: match opts.rule_eval {
                RuleEval::Compiled => "compiled",
                RuleEval::Interpreted => "interpreted",
            }
            .to_string(),
            outcome: outcome.to_string(),
            abort,
            valuations_checked: valuations_checked as u64,
            domain_size: domain_size as u64,
            counters: Counters::from_stats(stats),
            phases: PhaseTimes {
                nba_translation_ns: self.nba_ns,
                boot_ns: stats.boot_ns,
                successor_ns: stats.successor_ns,
                rule_eval_ns: stats.rule_eval_ns,
                queue_bookkeeping_ns,
                lasso_ns: stats.lasso_ns,
                counterexample_ns: self.cex_ns,
                total_ns,
            },
        };
        opts.reporter.get().report(&report);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_labels_follow_the_schema() {
        assert_eq!(engine_label(None), "seq");
        assert_eq!(engine_label(Some(1)), "par1");
        assert_eq!(engine_label(Some(4)), "par4");
    }

    #[test]
    fn abort_reports_validate_against_the_schema() {
        let opts = VerifyOptions::default();
        let meta = RunMeta::new("check", &opts);
        let stats = SearchStats {
            states_visited: 17,
            truncated: true,
            ..SearchStats::default()
        };
        let report = meta.finish_abort(
            &opts,
            &AbortReason::StateBudget { max_states: 16 },
            true,
            &stats,
            3,
            1,
        );
        assert_eq!(report.outcome, "budget_exceeded");
        let abort = report.abort.as_ref().expect("abort object present");
        assert_eq!(abort.budget, 16);
        assert_eq!(abort.spent, 17);
        assert!(abort.resumable);
        ddws_telemetry::RunReport::from_json_value(&report.to_json_value())
            .expect("abort report round-trips the schema");
    }
}
