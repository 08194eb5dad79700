//! Conversation-protocol checking (Section 4).
//!
//! `C ⊨ (Σ, B)` demands that *every* run's observation trace is accepted by
//! `B`, i.e. `traces(C) ∩ L(B)ᶜ = ∅`. The checker therefore complements the
//! protocol automaton — the cheap two-copy construction when `B` is
//! deterministic, the rank-based construction otherwise — and searches the
//! product exactly as for LTL-FO properties:
//!
//! * **data-agnostic** protocols observe the `received_q` (or, for the
//!   undecidable observer-at-source placement, `sent_q`) propositions
//!   (Theorem 4.2 / 4.3);
//! * **data-aware** protocols evaluate their FO guards on snapshots, with
//!   free guard variables universally instantiated over the verification
//!   domain (Definition 4.4, Theorem 4.5).

use crate::ground::canonical_valuations;
use crate::verify::{Goal, Report, Verifier, VerifyError, VerifyOptions};
use ddws_automata::complement::{complement, complement_deterministic, complete};
use ddws_automata::Nba;
use ddws_logic::{Fo, VarId};
use ddws_protocol::{DataAgnosticProtocol, DataAwareProtocol};
use ddws_relational::{RelId, Value};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

/// Complements a protocol automaton, preferring the deterministic
/// construction.
fn complement_protocol(nba: &Nba) -> Nba {
    if complete(nba).is_deterministic_complete() {
        complement_deterministic(nba)
    } else {
        complement(nba)
    }
}

impl Verifier {
    /// Checks a data-agnostic conversation protocol (Theorem 4.2 for
    /// observer-at-recipient; observer-at-source is supported but
    /// undecidable in general — bound the search via `opts.max_states`).
    pub fn check_data_agnostic(
        &mut self,
        protocol: &DataAgnosticProtocol,
        opts: &VerifyOptions,
    ) -> Result<Report, VerifyError> {
        self.require_input_bounded(opts, &[], &[], Vec::new())?;
        let atoms = protocol.observation_atoms(self.composition());
        self.check_protocol("protocol_data_agnostic", &protocol.automaton, &atoms, opts)
    }

    /// Checks a data-aware conversation protocol with observer-at-recipient
    /// semantics (Theorem 4.5). Guards must be input-bounded when
    /// `opts.require_input_bounded` is set.
    pub fn check_data_aware(
        &mut self,
        protocol: &DataAwareProtocol,
        opts: &VerifyOptions,
    ) -> Result<Report, VerifyError> {
        self.require_input_bounded(opts, &[], &protocol.guards, Vec::new())?;
        self.check_protocol(
            "protocol_data_aware",
            &protocol.automaton,
            &protocol.guards,
            opts,
        )
    }

    /// The shared protocol front-end: complement the automaton, narrow the
    /// masks to the guards' relations, and dispatch one product search per
    /// canonical valuation of the guards' free variables. Data-agnostic
    /// observation atoms are ground, so their closure is the single empty
    /// valuation.
    fn check_protocol(
        &mut self,
        entry: &'static str,
        automaton: &Nba,
        guards: &[Fo],
        opts: &VerifyOptions,
    ) -> Result<Report, VerifyError> {
        let observed: BTreeSet<RelId> = guards.iter().flat_map(Fo::relations).collect();
        let vars: BTreeSet<VarId> = guards.iter().flat_map(Fo::free_vars).collect();
        let vars: Vec<VarId> = vars.into_iter().collect();
        self.with_observed(&observed, |v| {
            let mut meta = crate::telemetry::RunMeta::new(entry, opts);
            // Protocol checks have no LTL → NBA translation; complementation
            // plays the same role, so it lands in the same phase timer.
            let nba_start = Instant::now();
            let nba = Arc::new(complement_protocol(automaton));
            meta.nba_ns += nba_start.elapsed().as_nanos() as u64;
            let domain = v.protocol_domain(opts);
            let (constants, fresh) = v.split_domain(&domain);
            let valuations = canonical_valuations(&vars, &constants, &fresh);
            let goal = Goal::Protocol {
                nba,
                guards,
                vars: &vars,
            };
            v.run_closure(&mut meta, opts, goal, &observed, domain, valuations)
        })
    }

    /// Domain for protocol checks: rule constants plus fresh values.
    fn protocol_domain(&mut self, opts: &VerifyOptions) -> Vec<Value> {
        let trivially_closed = ddws_logic::LtlFoSentence {
            universal_vars: vec![],
            body: ddws_logic::LtlFo::tt(),
        };
        self.domain_for(&trivially_closed, opts)
    }
}
