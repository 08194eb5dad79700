//! LTL → Büchi translation (Gerth–Peled–Vardi–Wolper tableau).
//!
//! The classic on-the-fly construction: the formula is brought to negation
//! normal form and expanded into tableau *nodes* carrying `old` (processed
//! obligations), `new` (pending obligations) and `next` (obligations for the
//! successor position). Nodes become the states of a state-labelled
//! generalized Büchi automaton with one acceptance set per `U`-subformula;
//! a counter-based degeneralization yields the final [`Nba`].

use crate::guard::Guard;
use crate::limits::SearchLimits;
use crate::ltl::Ltl;
use crate::nba::{Nba, StateId};
use ddws_relational::hash::FxHashMap;
use ddws_telemetry::AbortReason;
use std::collections::BTreeSet;

/// Interned subformulas for cheap set operations inside tableau nodes.
struct Arena {
    formulas: Vec<Ltl>,
    ids: FxHashMap<Ltl, usize>,
}

impl Arena {
    fn new() -> Self {
        Arena {
            formulas: Vec::new(),
            ids: FxHashMap::default(),
        }
    }

    fn intern(&mut self, f: &Ltl) -> usize {
        if let Some(&id) = self.ids.get(f) {
            return id;
        }
        let id = self.formulas.len();
        self.formulas.push(f.clone());
        self.ids.insert(f.clone(), id);
        id
    }

    fn get(&self, id: usize) -> &Ltl {
        &self.formulas[id]
    }
}

/// A tableau node under construction.
#[derive(Clone)]
struct Node {
    incoming: BTreeSet<usize>,
    new: BTreeSet<usize>,
    old: BTreeSet<usize>,
    next: BTreeSet<usize>,
}

/// A finished tableau state (its `next` set lives only in the merge map).
struct TableauState {
    incoming: BTreeSet<usize>,
    old: BTreeSet<usize>,
}

/// Sentinel id for the virtual initial node.
const INIT: usize = usize::MAX;

/// Translates an LTL formula into a Büchi automaton accepting exactly the
/// words satisfying it, with no limits.
pub fn ltl_to_nba(formula: &Ltl) -> Nba {
    ltl_to_nba_limits(formula, &SearchLimits::unbounded()).expect("no limit to stop at")
}

/// [`ltl_to_nba`] under the cancel token and deadline of `limits`, checked
/// as the engines check them (the tableau is exponential in `U`/`R`
/// nesting); the state budget and fault hook do not apply.
pub fn ltl_to_nba_limits(formula: &Ltl, limits: &SearchLimits) -> Result<Nba, AbortReason> {
    let nnf = formula.nnf();
    let num_aps = nnf.max_ap().map_or(0, |m| m + 1);

    let mut arena = Arena::new();
    let root = arena.intern(&nnf);

    let mut states: Vec<TableauState> = Vec::new();
    // Each state's (old, next) signature, for the saturated-node merge.
    let mut state_ids: FxHashMap<(BTreeSet<usize>, BTreeSet<usize>), usize> = FxHashMap::default();
    // The classical `expand` is recursive; a worklist of pending nodes keeps
    // it iterative (the order of expansion does not matter — duplicate
    // saturated nodes merge by their (old, next) signature).
    let mut worklist: Vec<Node> = vec![Node {
        incoming: BTreeSet::from([INIT]),
        new: BTreeSet::from([root]),
        old: BTreeSet::new(),
        next: BTreeSet::new(),
    }];

    let mut ticks: u64 = 0;
    while let Some(mut node) = worklist.pop() {
        if let Some(stop) = limits.interruption(ticks) {
            return Err(stop);
        }
        ticks += 1;
        match pick(&node.new) {
            None => {
                // Saturated: merge with an existing state or add a new one.
                let signature = (node.old, node.next);
                if let Some(&existing) = state_ids.get(&signature) {
                    states[existing].incoming.extend(node.incoming);
                    continue;
                }
                let id = states.len();
                states.push(TableauState {
                    incoming: node.incoming,
                    old: signature.0.clone(),
                });
                worklist.push(Node {
                    incoming: BTreeSet::from([id]),
                    new: signature.1.clone(),
                    old: BTreeSet::new(),
                    next: BTreeSet::new(),
                });
                state_ids.insert(signature, id);
            }
            Some(eta) => {
                node.new.remove(&eta);
                let formula = arena.get(eta).clone();
                match formula {
                    Ltl::False => { /* contradiction: drop the node */ }
                    Ltl::True => {
                        node.old.insert(eta);
                        worklist.push(node);
                    }
                    Ltl::Ap(_) | Ltl::Not(_) => {
                        // Literal (NNF guarantees Not is only over Ap).
                        let negation = match &formula {
                            Ltl::Ap(i) => Ltl::not(Ltl::ap(*i)),
                            Ltl::Not(inner) => (**inner).clone(),
                            _ => unreachable!("literal shape"),
                        };
                        let neg_id = arena.intern(&negation);
                        if node.old.contains(&neg_id) {
                            // Contradiction: drop the node.
                        } else {
                            node.old.insert(eta);
                            worklist.push(node);
                        }
                    }
                    Ltl::And(a, b) => {
                        let ia = arena.intern(&a);
                        let ib = arena.intern(&b);
                        node.old.insert(eta);
                        if !node.old.contains(&ia) {
                            node.new.insert(ia);
                        }
                        if !node.old.contains(&ib) {
                            node.new.insert(ib);
                        }
                        worklist.push(node);
                    }
                    Ltl::X(a) => {
                        let ia = arena.intern(&a);
                        node.old.insert(eta);
                        node.next.insert(ia);
                        worklist.push(node);
                    }
                    Ltl::Or(a, b) => {
                        let ia = arena.intern(&a);
                        let ib = arena.intern(&b);
                        let mut left = node.clone();
                        left.old.insert(eta);
                        if !left.old.contains(&ia) {
                            left.new.insert(ia);
                        }
                        let mut right = node;
                        right.old.insert(eta);
                        if !right.old.contains(&ib) {
                            right.new.insert(ib);
                        }
                        worklist.push(left);
                        worklist.push(right);
                    }
                    Ltl::U(ref a, ref b) => {
                        let ia = arena.intern(a);
                        let ib = arena.intern(b);
                        // Left split: commit to φ now and φUψ next.
                        let mut left = node.clone();
                        left.old.insert(eta);
                        if !left.old.contains(&ia) {
                            left.new.insert(ia);
                        }
                        left.next.insert(eta);
                        // Right split: ψ holds now.
                        let mut right = node;
                        right.old.insert(eta);
                        if !right.old.contains(&ib) {
                            right.new.insert(ib);
                        }
                        worklist.push(left);
                        worklist.push(right);
                    }
                    Ltl::R(ref a, ref b) => {
                        let ia = arena.intern(a);
                        let ib = arena.intern(b);
                        // Left split: ψ now, φRψ next.
                        let mut left = node.clone();
                        left.old.insert(eta);
                        if !left.old.contains(&ib) {
                            left.new.insert(ib);
                        }
                        left.next.insert(eta);
                        // Right split: φ ∧ ψ now (release fires).
                        let mut right = node;
                        right.old.insert(eta);
                        if !right.old.contains(&ia) {
                            right.new.insert(ia);
                        }
                        if !right.old.contains(&ib) {
                            right.new.insert(ib);
                        }
                        worklist.push(left);
                        worklist.push(right);
                    }
                }
            }
        }
    }

    Ok(build_nba(&arena, &states, num_aps))
}

/// Deterministic pick from the pending set (smallest id keeps the
/// construction reproducible).
fn pick(set: &BTreeSet<usize>) -> Option<usize> {
    set.iter().next().copied()
}

/// Assembles the NBA from the tableau: state labels become transition
/// guards, and one acceptance set per `U`-subformula is degeneralized with
/// a counter.
fn build_nba(arena: &Arena, states: &[TableauState], num_aps: u32) -> Nba {
    // Acceptance sets: for each φUψ in the closure, the states where the
    // until is not pending (¬(φUψ ∈ old) ∨ ψ ∈ old).
    let untils: Vec<(usize, usize)> = arena
        .formulas
        .iter()
        .enumerate()
        .filter_map(|(id, f)| match f {
            Ltl::U(_, b) => {
                let ib = arena.ids.get(b.as_ref()).copied();
                // ψ is interned when the right split executes; if it never
                // was, no state contains it in `old`.
                Some((id, ib.unwrap_or(usize::MAX)))
            }
            _ => None,
        })
        .collect();
    let k = untils.len().max(1);

    let in_fulfil_set = |state: &TableauState, set_idx: usize| -> bool {
        if untils.is_empty() {
            return true; // single trivial acceptance set
        }
        let (u_id, psi_id) = untils[set_idx];
        !state.old.contains(&u_id) || state.old.contains(&psi_id)
    };

    // Guard of a state: conjunction of its literals.
    let guard_of = |state: &TableauState| -> Guard {
        let mut g = Guard::TOP;
        for &f in &state.old {
            match arena.get(f) {
                Ltl::Ap(i) => g = g.and(Guard::require(*i)),
                Ltl::Not(inner) => {
                    if let Ltl::Ap(i) = inner.as_ref() {
                        g = g.and(Guard::forbid(*i));
                    }
                }
                _ => {}
            }
        }
        g
    };

    // NBA states: a fresh initial state plus (tableau state, counter) pairs
    // with counter in 0..=k; counter k is the accepting layer and resets.
    let mut nba = Nba::new(num_aps, 0);
    let init = nba.add_state(false);
    nba.add_initial(init);

    let mut ids: FxHashMap<(usize, usize), StateId> = FxHashMap::default();
    for (q, _) in states.iter().enumerate() {
        for c in 0..=k {
            let id = nba.add_state(c == k);
            ids.insert((q, c), id);
        }
    }

    let next_counter = |c: usize, target: &TableauState| -> usize {
        let mut j = if c == k { 0 } else { c };
        while j < k && in_fulfil_set(target, j) {
            j += 1;
        }
        j
    };

    for (q, st) in states.iter().enumerate() {
        let g = guard_of(st);
        if !g.is_satisfiable() {
            continue;
        }
        for &src in &st.incoming {
            if src == INIT {
                let c = next_counter(0, st);
                nba.add_transition(init, g, ids[&(q, c)]);
            } else {
                for c in 0..=k {
                    let c2 = next_counter(c, st);
                    nba.add_transition(ids[&(src, c)], g, ids[&(q, c2)]);
                }
            }
        }
    }

    nba
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::Letter;
    use crate::ltl::eval_on_lasso;

    const P0: Letter = 0b01;
    const P1: Letter = 0b10;
    const NONE: Letter = 0;

    fn check(f: &Ltl, prefix: &[Letter], cycle: &[Letter]) {
        let nba = ltl_to_nba(f);
        let expected = eval_on_lasso(f, prefix, cycle);
        let got = nba.accepts_lasso(prefix, cycle);
        assert_eq!(
            got, expected,
            "automaton for {f} disagrees on ({prefix:?}, {cycle:?})"
        );
    }

    #[test]
    fn atomic_formulas() {
        check(&Ltl::ap(0), &[P0], &[NONE]);
        check(&Ltl::ap(0), &[NONE], &[P0]);
        check(&Ltl::not(Ltl::ap(0)), &[P0], &[NONE]);
        check(&Ltl::True, &[], &[NONE]);
        check(&Ltl::False, &[], &[P0]);
    }

    #[test]
    fn next_and_until() {
        let words: [(&[Letter], &[Letter]); 6] = [
            (&[], &[NONE]),
            (&[], &[P0]),
            (&[P0], &[P1]),
            (&[P0, P0, P1], &[NONE]),
            (&[NONE], &[P0, P1]),
            (&[P0, NONE], &[P1]),
        ];
        let formulas = [
            Ltl::next(Ltl::ap(0)),
            Ltl::next(Ltl::next(Ltl::ap(1))),
            Ltl::until(Ltl::ap(0), Ltl::ap(1)),
            Ltl::finally(Ltl::ap(1)),
            Ltl::globally(Ltl::ap(0)),
        ];
        for f in &formulas {
            for (p, c) in words {
                check(f, p, c);
            }
        }
    }

    #[test]
    fn response_property() {
        // G(p0 -> F p1): the canonical request/response pattern.
        let f = Ltl::globally(Ltl::implies(Ltl::ap(0), Ltl::finally(Ltl::ap(1))));
        check(&f, &[], &[NONE]); // no requests: holds
        check(&f, &[P0], &[P1]); // answered forever
        check(&f, &[P0], &[NONE]); // unanswered: fails
        check(&f, &[], &[P0, P1]); // each request answered
        check(&f, &[P1], &[P0]); // requests forever, answers stop: fails
    }

    #[test]
    fn nested_untils() {
        // (p0 U p1) U (G p0)
        let f = Ltl::until(
            Ltl::until(Ltl::ap(0), Ltl::ap(1)),
            Ltl::globally(Ltl::ap(0)),
        );
        let words: [(&[Letter], &[Letter]); 5] = [
            (&[], &[P0]),
            (&[P1, P1], &[P0]),
            (&[P0, P1], &[NONE]),
            (&[NONE], &[P1]),
            (&[P1], &[P0, P0]),
        ];
        for (p, c) in words {
            check(&f, p, c);
        }
    }

    #[test]
    fn fairness_conjunction() {
        // GF p0 & GF p1
        let f = Ltl::and(
            Ltl::globally(Ltl::finally(Ltl::ap(0))),
            Ltl::globally(Ltl::finally(Ltl::ap(1))),
        );
        check(&f, &[], &[P0, P1]);
        check(&f, &[], &[P0 | P1]);
        check(&f, &[P1], &[P0]);
        check(&f, &[], &[P0, NONE]);
    }

    #[test]
    fn release_formulas() {
        // p0 R p1
        let f = Ltl::release(Ltl::ap(0), Ltl::ap(1));
        check(&f, &[], &[P1]);
        check(&f, &[P1, P0 | P1], &[NONE]);
        check(&f, &[P1, NONE], &[P0 | P1]);
        check(&f, &[P0 | P1], &[NONE]);
        check(&f, &[P0], &[NONE]);
    }

    #[test]
    fn empty_language_formula() {
        let f = Ltl::and(Ltl::ap(0), Ltl::not(Ltl::ap(0)));
        let nba = ltl_to_nba(&f);
        assert!(nba.is_empty());
        let g = Ltl::and(
            Ltl::globally(Ltl::ap(0)),
            Ltl::finally(Ltl::not(Ltl::ap(0))),
        );
        assert!(ltl_to_nba(&g).is_empty());
    }
}
