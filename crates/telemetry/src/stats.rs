//! The per-run counter block shared by every search engine.
//!
//! `SearchStats` used to live in `ddws-automata`; it moved here so the
//! merge semantics (`absorb`) are defined once for sequential searches,
//! parallel worker shards, and per-valuation accumulation in the verifier.
//! `ddws_automata::SearchStats` re-exports this type as a compatibility
//! shim.

/// Counters and phase timers describing one product-graph search.
///
/// Engines keep these as plain (non-atomic) per-worker values and merge
/// them at join with [`SearchStats::absorb`]. The counter families:
///
/// * **Traversal** — `states_visited`, `transitions_explored`,
///   `states_expanded`. A state is *expanded* each time an engine computes
///   its successor list (the sequential nested DFS expands in both the blue
///   and red passes; the parallel engine expands once per dequeued state).
/// * **Reduction accounting** — `ample_hits` counts expansions answered
///   from a proper ample subset, `full_expansions` counts expansions that
///   fell back to the full successor set. When ample-set reduction is
///   active, `ample_hits + full_expansions == states_expanded`; when it is
///   inactive both are zero.
/// * **Rule evaluation** — `rule_evals` counts metered rule evaluations;
///   `rule_cache_hits + rule_cache_misses == rule_evals` whenever the
///   footprint cache is metering (both engines meter by default).
/// * **State interning** — `intern_calls`, `intern_hits`, `intern_misses`
///   meter the compact representation's hash-cons tables (extension pool
///   plus the configuration interner); `intern_hits + intern_misses ==
///   intern_calls` always, and all three are zero under the legacy
///   representation.
/// * **Phase timers** — nanosecond spans for boot enumeration
///   (`boot_ns`), successor generation (`successor_ns`), rule evaluation
///   inside successor generation (`rule_eval_ns`), and SCC/lasso
///   extraction (`lasso_ns`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Distinct states inserted into the visited set.
    pub states_visited: u64,
    /// Product transitions traversed (successor edges considered).
    pub transitions_explored: u64,
    /// Successor-list computations (see the type-level docs for exactly
    /// when an engine counts an expansion).
    pub states_expanded: u64,
    /// Expansions answered from a proper ample subset.
    pub ample_hits: u64,
    /// Expansions that used the full successor set while reduction was
    /// active (C3 proviso hits, singleton ample sets, and red-search
    /// re-expansions).
    pub full_expansions: u64,
    /// Metered rule evaluations (compiled or interpreted).
    pub rule_evals: u64,
    /// Footprint-cache hits during rule evaluation.
    pub rule_cache_hits: u64,
    /// Footprint-cache misses (including unmemoizable evaluations).
    pub rule_cache_misses: u64,
    /// Hash-cons intern calls under the compact state representation
    /// (zero under the legacy representation).
    pub intern_calls: u64,
    /// Intern calls answered from the tables.
    pub intern_hits: u64,
    /// Intern calls that created fresh entries.
    pub intern_misses: u64,
    /// Grounded-NBA cache lookups answered from the cache (a valuation
    /// whose grounded LTL shape was already translated). Zero for entry
    /// points that translate no property automaton.
    pub nba_cache_hits: u64,
    /// Grounded-NBA cache lookups that ran `ltl_to_nba`; equals the number
    /// of distinct grounded formula shapes, independent of shard schedule.
    pub nba_cache_misses: u64,
    /// Universal-closure valuations decided `holds` before any search
    /// because the column-domain analysis folded their negated property to
    /// `false` (DESIGN.md §3.13.1). They are still counted in the run's
    /// `valuations_checked`; they contribute no states.
    pub valuations_vacuous: u64,
    /// Nanoseconds spent evaluating rules (inside boot + successor spans).
    pub rule_eval_ns: u64,
    /// Nanoseconds spent enumerating initial (boot) configurations.
    pub boot_ns: u64,
    /// Nanoseconds spent generating successor configurations (includes
    /// rule evaluation; `successor_ns - rule_eval_ns` approximates queue
    /// bookkeeping).
    pub successor_ns: u64,
    /// Nanoseconds spent in SCC/lasso extraction (the sequential red
    /// search, or the parallel post-pass over the edge relation).
    pub lasso_ns: u64,
    /// Whether any contributing search aborted on its state budget.
    pub truncated: bool,
}

impl SearchStats {
    /// Merges `other` into `self`: counters and timers add, `truncated`
    /// ORs. This is the single definition of shard/valuation merging used
    /// by the parallel engine's join and the verifier's per-valuation
    /// accumulation.
    pub fn absorb(&mut self, other: &SearchStats) {
        self.states_visited += other.states_visited;
        self.transitions_explored += other.transitions_explored;
        self.states_expanded += other.states_expanded;
        self.ample_hits += other.ample_hits;
        self.full_expansions += other.full_expansions;
        self.rule_evals += other.rule_evals;
        self.rule_cache_hits += other.rule_cache_hits;
        self.rule_cache_misses += other.rule_cache_misses;
        self.intern_calls += other.intern_calls;
        self.intern_hits += other.intern_hits;
        self.intern_misses += other.intern_misses;
        self.nba_cache_hits += other.nba_cache_hits;
        self.nba_cache_misses += other.nba_cache_misses;
        self.valuations_vacuous += other.valuations_vacuous;
        self.rule_eval_ns += other.rule_eval_ns;
        self.boot_ns += other.boot_ns;
        self.successor_ns += other.successor_ns;
        self.lasso_ns += other.lasso_ns;
        self.truncated |= other.truncated;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_sums_counters_and_ors_truncated() {
        let mut a = SearchStats {
            states_visited: 1,
            transitions_explored: 2,
            states_expanded: 3,
            ample_hits: 4,
            full_expansions: 5,
            rule_evals: 6,
            rule_cache_hits: 7,
            rule_cache_misses: 8,
            intern_calls: 13,
            intern_hits: 14,
            intern_misses: 15,
            nba_cache_hits: 16,
            nba_cache_misses: 17,
            valuations_vacuous: 18,
            rule_eval_ns: 9,
            boot_ns: 10,
            successor_ns: 11,
            lasso_ns: 12,
            truncated: false,
        };
        let b = SearchStats {
            states_visited: 100,
            transitions_explored: 200,
            states_expanded: 300,
            ample_hits: 400,
            full_expansions: 500,
            rule_evals: 600,
            rule_cache_hits: 700,
            rule_cache_misses: 800,
            intern_calls: 1300,
            intern_hits: 1400,
            intern_misses: 1500,
            nba_cache_hits: 1600,
            nba_cache_misses: 1700,
            valuations_vacuous: 1800,
            rule_eval_ns: 900,
            boot_ns: 1000,
            successor_ns: 1100,
            lasso_ns: 1200,
            truncated: true,
        };
        a.absorb(&b);
        assert_eq!(
            a,
            SearchStats {
                states_visited: 101,
                transitions_explored: 202,
                states_expanded: 303,
                ample_hits: 404,
                full_expansions: 505,
                rule_evals: 606,
                rule_cache_hits: 707,
                rule_cache_misses: 808,
                intern_calls: 1313,
                intern_hits: 1414,
                intern_misses: 1515,
                nba_cache_hits: 1616,
                nba_cache_misses: 1717,
                valuations_vacuous: 1818,
                rule_eval_ns: 909,
                boot_ns: 1010,
                successor_ns: 1111,
                lasso_ns: 1212,
                truncated: true,
            }
        );
        // Truncation is sticky in either direction.
        let mut c = SearchStats {
            truncated: true,
            ..SearchStats::default()
        };
        c.absorb(&SearchStats::default());
        assert!(c.truncated);
    }
}
