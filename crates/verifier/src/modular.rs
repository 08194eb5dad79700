//! Modular verification (Section 5, Theorem 5.4).
//!
//! An *open* composition `C` interacts with an unspecified environment
//! through the queues in `C.Q_in Δ C.Q_out`. The environment's behaviour is
//! declared as an LTL-FO **environment spec** `ψ` over those queues, and
//! `C ⊨_ψ φ` holds iff every run of `C` (with nondeterministic environment
//! moves) that satisfies the *translated* spec also satisfies `φ`.
//!
//! The two translations of Definition 5.3, in this order:
//!
//! 1. **Relativization** `ψ ↦ ψ̄`: environment specs speak about
//!    consecutive *environment* steps, so every `X`/`U` is relativized to
//!    the proposition `moveE` (`Xα`/`Uα`, rewritten into plain LTL).
//! 2. **Observer-at-recipient translation** `ψ̄ ↦ ψ̄r`: on lossy bounded
//!    queues the recipient only sees enqueued messages, so each atom
//!    `Q(x̄)` over an environment out-queue becomes
//!    `X (received_Q → Q(x̄))` — "if the next snapshot shows a newly
//!    enqueued message on `Q`, it is `Q(x̄)`".
//!
//! Verification then searches for a run satisfying `ψ̄r ∧ ¬φ[ν]`; none
//! existing for any valuation `ν` proves `C ⊨_ψ φ`.
//!
//! The spec must be **strictly input-bounded** (no temporal operator in the
//! scope of a quantifier — Theorem 5.5 shows the non-strict case is
//! undecidable). Because the translation rewrites atoms *inside* quantified
//! FO subformulas into temporal formulas, quantifiers over environment
//! out-queue atoms are hoisted into the universal closure; this is sound
//! for universal-positive (and existential-negative) binders, and the
//! checker rejects the others.

use crate::ground::canonical_valuations;
use crate::verify::{observed_relations, Goal, Report, Verifier, VerifyError, VerifyOptions};
use ddws_logic::input_bounded::IbViolation;
use ddws_logic::{Fo, LtlFo, LtlFoSentence, VarId};
use ddws_model::Endpoint;
use ddws_relational::{RelId, Value};
use std::collections::{BTreeSet, HashMap};

/// The spec after translation: body plus the variables hoisted from
/// quantifiers that had to scope over introduced temporal operators.
struct TranslatedSpec {
    body: LtlFo,
    hoisted_vars: Vec<VarId>,
}

impl Verifier {
    /// Checks `C ⊨_ψ φ`: does every run of the open composition whose
    /// environment behaves as `env_spec` promises satisfy `property`?
    pub fn check_modular(
        &mut self,
        property: &LtlFoSentence,
        env_spec: &LtlFoSentence,
        opts: &VerifyOptions,
    ) -> Result<Report, VerifyError> {
        let mut meta = crate::telemetry::RunMeta::new("check_modular", opts);
        let comp = self.composition();
        if comp.is_closed() {
            return Err(VerifyError::Unsupported(
                "modular verification needs an open composition (§5)".into(),
            ));
        }
        let move_env = comp
            .move_env_rel
            .expect("open compositions declare move_ENV");

        let strictness = (!env_spec.is_strict()).then(|| IbViolation {
            message: "environment spec must be strictly input-bounded: no temporal operator in \
                      the scope of a quantifier, and no free variables (Theorem 5.5)"
                .into(),
        });
        self.require_input_bounded(
            opts,
            &[property, env_spec],
            &[],
            strictness.into_iter().collect(),
        )?;

        // ψ̄: relativize temporal operators to moveE.
        let relativized = env_spec.body.relativize(move_env);
        // ψ̄r: observer-at-recipient translation.
        let env_out_received: HashMap<RelId, RelId> = comp
            .channels
            .iter()
            .filter(|c| c.sender == Endpoint::Environment)
            .map(|c| (c.out_rel, c.received_rel))
            .collect();
        let rigid_rels: BTreeSet<RelId> = comp
            .voc
            .iter()
            .map(|(rel, _)| rel)
            .filter(|&rel| comp.class(rel) == ddws_logic::input_bounded::RelClass::Database)
            .collect();
        let translated =
            translate_observer_at_recipient(&relativized, &env_out_received, &rigid_rels)
                .map_err(VerifyError::Unsupported)?;

        // Track the flags and relations everything observes.
        let mut observed = observed_relations(&property.body);
        observed.extend(observed_relations(&translated.body));
        self.with_observed(&observed, |v| {
            let domain = {
                // Constants of both formulas matter.
                let mut all: BTreeSet<Value> = v.domain_for(property, opts).into_iter().collect();
                all.extend(v.domain_for(env_spec, opts));
                all.into_iter().collect::<Vec<Value>>()
            };
            let (constants, fresh) = v.split_domain(&domain);

            // A run refutes the modular judgment iff it satisfies ψ̄r under
            // *every* spec valuation and ¬φ under *some* property
            // valuation: the spec valuations become a conjunction.
            let spec_valuations = canonical_valuations(&translated.hoisted_vars, &domain, &[]);
            // Atom-capacity pre-check: grounding conjoins one copy of the
            // spec per valuation; more than 64 distinct snapshot atoms
            // cannot be encoded in a letter. Fail gracefully instead of
            // panicking deep in the registry.
            let leaves = |f: &LtlFo| -> usize {
                let mut n = 0;
                f.visit_fo(&mut |_| n += 1);
                n
            };
            // ¬φ has exactly φ's leaves.
            let estimate =
                spec_valuations.len() * leaves(&translated.body) + leaves(&property.body);
            if estimate > 64 {
                return Err(VerifyError::Unsupported(format!(
                    "modular check would ground ~{estimate} snapshot atoms (> 64): reduce the \
                     environment spec's free variables, the domain, or split the spec"
                )));
            }
            let valuations = canonical_valuations(&property.universal_vars, &constants, &fresh);
            let goal = Goal::Modular {
                property,
                spec: &translated.body,
                spec_valuations,
            };
            v.run_closure(&mut meta, opts, goal, &observed, domain, valuations)
        })
    }

    /// Parses an environment spec (same syntax as properties; atoms over
    /// `ENV.!q`, `ENV.?q` and the composition's boundary queues).
    pub fn parse_env_spec(&mut self, src: &str) -> Result<LtlFoSentence, VerifyError> {
        self.parse_property(src)
    }
}

/// Whether a formula mentions no environment out-queue atom and only
/// *rigid* relations (database atoms, equalities, constants) — its truth
/// cannot change between consecutive snapshots, which licenses commuting it
/// past the translation's `X`.
fn is_rigid_and_env_free(fo: &Fo, rigid_rels: &BTreeSet<RelId>) -> bool {
    match fo {
        Fo::True | Fo::False | Fo::Eq(..) => true,
        Fo::Atom(rel, _) => rigid_rels.contains(rel),
        Fo::Not(g) => is_rigid_and_env_free(g, rigid_rels),
        Fo::And(gs) | Fo::Or(gs) => gs.iter().all(|g| is_rigid_and_env_free(g, rigid_rels)),
        Fo::Implies(a, b) => {
            is_rigid_and_env_free(a, rigid_rels) && is_rigid_and_env_free(b, rigid_rels)
        }
        Fo::Exists(_, g) | Fo::Forall(_, g) => is_rigid_and_env_free(g, rigid_rels),
    }
}

/// Applies the observer-at-recipient translation to every FO leaf,
/// hoisting quantifiers that would otherwise scope over the introduced
/// `X` operators.
fn translate_observer_at_recipient(
    f: &LtlFo,
    env_out_received: &HashMap<RelId, RelId>,
    rigid_rels: &BTreeSet<RelId>,
) -> Result<TranslatedSpec, String> {
    let mut hoisted: Vec<VarId> = Vec::new();
    let body = map_leaves(f, &mut |fo| {
        translate_fo(fo, env_out_received, rigid_rels, true, &mut hoisted)
    })?;
    Ok(TranslatedSpec {
        body,
        hoisted_vars: hoisted,
    })
}

/// `LtlFo::map_fo_ltl` with error propagation.
fn map_leaves(f: &LtlFo, t: &mut dyn FnMut(&Fo) -> Result<LtlFo, String>) -> Result<LtlFo, String> {
    Ok(match f {
        LtlFo::Fo(fo) => t(fo)?,
        LtlFo::Not(g) => LtlFo::not(map_leaves(g, t)?),
        LtlFo::And(gs) => LtlFo::And(
            gs.iter()
                .map(|g| map_leaves(g, t))
                .collect::<Result<_, _>>()?,
        ),
        LtlFo::Or(gs) => LtlFo::Or(
            gs.iter()
                .map(|g| map_leaves(g, t))
                .collect::<Result<_, _>>()?,
        ),
        LtlFo::Implies(a, b) => {
            LtlFo::Implies(Box::new(map_leaves(a, t)?), Box::new(map_leaves(b, t)?))
        }
        LtlFo::X(g) => LtlFo::next(map_leaves(g, t)?),
        LtlFo::U(a, b) => LtlFo::until(map_leaves(a, t)?, map_leaves(b, t)?),
    })
}

/// Rewrites one FO leaf. `positive` tracks polarity for quantifier
/// hoisting. Leaves without environment out-queue atoms are kept intact.
fn translate_fo(
    fo: &Fo,
    env_out: &HashMap<RelId, RelId>,
    rigid_rels: &BTreeSet<RelId>,
    positive: bool,
    hoisted: &mut Vec<VarId>,
) -> Result<LtlFo, String> {
    let mentions_env_out = {
        let mut found = false;
        fo.visit_atoms(&mut |r, _| found |= env_out.contains_key(&r));
        found
    };
    if !mentions_env_out {
        return Ok(LtlFo::Fo(fo.clone()));
    }
    match fo {
        Fo::Atom(rel, args) => match env_out.get(rel) {
            Some(&received) => Ok(LtlFo::next(LtlFo::Implies(
                Box::new(LtlFo::Fo(Fo::Atom(received, vec![]))),
                Box::new(LtlFo::Fo(Fo::Atom(*rel, args.clone()))),
            ))),
            None => Ok(LtlFo::Fo(fo.clone())),
        },
        Fo::Not(g) => Ok(LtlFo::not(translate_fo(
            g, env_out, rigid_rels, !positive, hoisted,
        )?)),
        Fo::And(gs) => Ok(LtlFo::And(
            gs.iter()
                .map(|g| translate_fo(g, env_out, rigid_rels, positive, hoisted))
                .collect::<Result<_, _>>()?,
        )),
        Fo::Or(gs) => Ok(LtlFo::Or(
            gs.iter()
                .map(|g| translate_fo(g, env_out, rigid_rels, positive, hoisted))
                .collect::<Result<_, _>>()?,
        )),
        Fo::Implies(a, b) => Ok(LtlFo::Implies(
            Box::new(translate_fo(a, env_out, rigid_rels, !positive, hoisted)?),
            Box::new(translate_fo(b, env_out, rigid_rels, positive, hoisted)?),
        )),
        Fo::Forall(vars, g) if positive => {
            // Special case covering Example 5.1's shape (and most specs):
            // ∀x̄ (Q(x̄) → φ) with `Q` an environment out-queue atom and `φ`
            // *rigid* (only database atoms / equalities — unchanged between
            // consecutive snapshots). Then
            //   ∀x̄ (X(recv_Q → Q(x̄)) → φ)  ≡  X (recv_Q → ∀x̄ (Q(x̄) → φ)),
            // and the right-hand side keeps the quantifier inside one FO
            // leaf — no hoisting, no valuation blow-up.
            if let Fo::Implies(ante, cons) = g.as_ref() {
                if let Fo::Atom(rel, _) = ante.as_ref() {
                    if let Some(&received) = env_out.get(rel) {
                        if is_rigid_and_env_free(cons, rigid_rels) {
                            return Ok(LtlFo::next(LtlFo::Implies(
                                Box::new(LtlFo::Fo(Fo::Atom(received, vec![]))),
                                Box::new(LtlFo::Fo(Fo::Forall(
                                    vars.clone(),
                                    Box::new((**g).clone()),
                                ))),
                            )));
                        }
                    }
                }
            }
            hoisted.extend(vars.iter().copied());
            translate_fo(g, env_out, rigid_rels, positive, hoisted)
        }
        Fo::Exists(vars, g) if !positive => {
            hoisted.extend(vars.iter().copied());
            translate_fo(g, env_out, rigid_rels, positive, hoisted)
        }
        Fo::Forall(..) | Fo::Exists(..) => Err(
            "observer-at-recipient translation: an environment out-queue atom occurs under an \
             existential (in positive position) or universal (in negative position) quantifier, \
             which cannot be hoisted to the universal closure; restructure the environment spec"
                .into(),
        ),
        Fo::True | Fo::False | Fo::Eq(..) => Ok(LtlFo::Fo(fo.clone())),
    }
}
