//! Grounding: LTL-FO → propositional LTL over snapshot atoms.
//!
//! After the universal closure is instantiated, every maximal FO subformula
//! of the property is a *sentence* evaluated on single snapshots. Each
//! distinct ground sentence becomes one atomic proposition; the temporal
//! skeleton becomes a propositional [`Ltl`] formula over those
//! propositions, ready for the tableau translation.

use ddws_automata::{Letter, Ltl};
use ddws_logic::{Fo, LtlFo, Valuation, VarId};
use ddws_model::Config;
use ddws_model::{Composition, Database, Mover, SnapshotView};
use ddws_relational::hash::FxHashMap;
use ddws_relational::Value;
use std::collections::HashMap;

/// Registry of ground FO snapshot atoms, shared across the formulas of one
/// model-checking run (property + environment spec + protocol guards).
#[derive(Debug, Default)]
pub struct AtomRegistry {
    atoms: Vec<Fo>,
    index: FxHashMap<Fo, u32>,
}

impl AtomRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a ground FO sentence as an atomic proposition.
    pub fn intern(&mut self, fo: Fo) -> u32 {
        if let Some(&i) = self.index.get(&fo) {
            return i;
        }
        let i = u32::try_from(self.atoms.len()).expect("atom overflow");
        assert!(i < 64, "more than 64 distinct snapshot atoms in one check");
        self.index.insert(fo.clone(), i);
        self.atoms.push(fo);
        i
    }

    /// Appends an atom *without* deduplication, returning its id. Used by
    /// protocol checking, where proposition `i` of the automaton must map
    /// to symbol `i` even when two symbols happen to ground to the same
    /// formula.
    pub fn push(&mut self, fo: Fo) -> u32 {
        let i = u32::try_from(self.atoms.len()).expect("atom overflow");
        assert!(i < 64, "more than 64 distinct snapshot atoms in one check");
        self.atoms.push(fo);
        i
    }

    /// The interned atoms, in id order.
    pub fn atoms(&self) -> &[Fo] {
        &self.atoms
    }

    /// Number of atoms.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// Whether no atom is interned.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Evaluates every atom on a snapshot, producing the letter the
    /// property automaton reads.
    pub fn letter(
        &self,
        comp: &Composition,
        db: &dyn Database,
        config: &Config,
        mover: Option<Mover>,
        domain: &[Value],
    ) -> Letter {
        self.letter_view(&SnapshotView::new(comp, db, config, mover, domain))
    }

    /// Evaluates every atom over an arbitrary snapshot [`Structure`] — the
    /// legacy [`SnapshotView`] or the compact representation's
    /// [`CompactView`](ddws_model::CompactView), which answers atom
    /// lookups from packed codes without materializing a [`Config`].
    ///
    /// [`Structure`]: ddws_logic::Structure
    pub fn letter_view<S: ddws_logic::Structure + ?Sized>(&self, view: &S) -> Letter {
        let mut val = Valuation::with_capacity(0);
        let mut letter: Letter = 0;
        for (i, atom) in self.atoms.iter().enumerate() {
            if ddws_logic::eval_fo(atom, view, &mut val) {
                letter |= 1 << i;
            }
        }
        letter
    }
}

/// Grounds an LTL-FO formula under a valuation of its free variables,
/// interning its FO leaves into `reg`.
pub fn ground_ltlfo(f: &LtlFo, valuation: &HashMap<VarId, Value>, reg: &mut AtomRegistry) -> Ltl {
    match f {
        LtlFo::Fo(fo) => {
            // Constant leaves (the `true` of `F φ = true U φ`, …) stay
            // propositional constants instead of wasting atom slots.
            match fo {
                ddws_logic::Fo::True => return Ltl::True,
                ddws_logic::Fo::False => return Ltl::False,
                _ => {}
            }
            let ground = fo.substitute(&|v| valuation.get(&v).copied());
            debug_assert!(
                ground.free_vars().is_empty(),
                "property valuation must cover all free variables"
            );
            Ltl::ap(reg.intern(ground))
        }
        LtlFo::Not(g) => Ltl::not(ground_ltlfo(g, valuation, reg)),
        LtlFo::And(gs) => gs
            .iter()
            .map(|g| ground_ltlfo(g, valuation, reg))
            .reduce(Ltl::and)
            .unwrap_or(Ltl::True),
        LtlFo::Or(gs) => gs
            .iter()
            .map(|g| ground_ltlfo(g, valuation, reg))
            .reduce(Ltl::or)
            .unwrap_or(Ltl::False),
        LtlFo::Implies(a, b) => Ltl::implies(
            ground_ltlfo(a, valuation, reg),
            ground_ltlfo(b, valuation, reg),
        ),
        LtlFo::X(g) => Ltl::next(ground_ltlfo(g, valuation, reg)),
        LtlFo::U(a, b) => Ltl::until(
            ground_ltlfo(a, valuation, reg),
            ground_ltlfo(b, valuation, reg),
        ),
    }
}

/// Enumerates valuations of `vars` over constants plus fresh values, **up to
/// renaming of the fresh values**.
///
/// Fresh domain values occur in no rule or property, so any permutation of
/// them is an automorphism of the verification instance: a violation under a
/// valuation using fresh values in some order is a violation under the
/// canonical valuation that uses them in first-appearance order. Pruning the
/// non-canonical valuations is therefore sound and complete, and shrinks the
/// `|domain|^k` enumeration substantially when most of the domain is fresh.
pub fn canonical_valuations(
    vars: &[VarId],
    constants: &[Value],
    fresh: &[Value],
) -> Vec<HashMap<VarId, Value>> {
    let mut out: Vec<(HashMap<VarId, Value>, usize)> = vec![(HashMap::new(), 0)];
    for &v in vars {
        let mut next = Vec::new();
        for (m, used_fresh) in &out {
            for &c in constants {
                let mut m2 = m.clone();
                m2.insert(v, c);
                next.push((m2, *used_fresh));
            }
            // Fresh values: only the next unused one (canonical order), plus
            // all already-used ones.
            let available = (*used_fresh + 1).min(fresh.len());
            for (i, &f) in fresh.iter().take(available).enumerate() {
                let mut m2 = m.clone();
                m2.insert(v, f);
                next.push((m2, (*used_fresh).max(i + 1)));
            }
        }
        out = next;
    }
    out.into_iter().map(|(m, _)| m).collect()
}

/// Enumerates all valuations of `vars` over `domain`.
pub fn all_valuations(vars: &[VarId], domain: &[Value]) -> Vec<HashMap<VarId, Value>> {
    let mut out: Vec<HashMap<VarId, Value>> = vec![HashMap::new()];
    for &v in vars {
        let mut next = Vec::with_capacity(out.len() * domain.len());
        for m in &out {
            for &d in domain {
                let mut m2 = m.clone();
                m2.insert(v, d);
                next.push(m2);
            }
        }
        out = next;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddws_logic::parser::{parse_sentence, Resolver};
    use ddws_logic::Vars;
    use ddws_relational::{Symbols, Vocabulary};

    #[test]
    fn grounding_dedups_atoms_across_valuations() {
        let mut voc = Vocabulary::new();
        voc.declare("p", 1).unwrap();
        voc.declare("flag", 0).unwrap();
        let mut vars = Vars::new();
        let mut symbols = Symbols::new();
        let s = {
            let mut r = Resolver {
                voc: &voc,
                vars: &mut vars,
                symbols: &mut symbols,
            };
            parse_sentence("forall x: G (p(x) -> F flag)", &mut r).unwrap()
        };
        let mut reg = AtomRegistry::new();
        let dom = vec![Value(0), Value(1)];
        let vals = all_valuations(&s.universal_vars, &dom);
        assert_eq!(vals.len(), 2);
        for v in &vals {
            ground_ltlfo(&s.body, v, &mut reg);
        }
        // Atoms: p(0), p(1), flag (deduped across the two valuations).
        assert_eq!(reg.len(), 3);
    }

    #[test]
    fn all_valuations_counts() {
        let vars = vec![VarId(0), VarId(1)];
        let dom = vec![Value(0), Value(1), Value(2)];
        assert_eq!(all_valuations(&vars, &dom).len(), 9);
        assert_eq!(all_valuations(&[], &dom).len(), 1);
    }
}
