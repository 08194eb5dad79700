//! Büchi complementation.
//!
//! Conversation-protocol verification (Section 4 of the paper) asks whether
//! *every* run of a composition is accepted by the protocol automaton `B`,
//! i.e. whether `traces(C) ∩ L(B)^c = ∅`. That needs the complement of `B`:
//!
//! * [`complement_deterministic`] — the two-copy construction for
//!   deterministic automata (protocols are usually written
//!   deterministically): linear blow-up;
//! * [`complement`] — the rank-based Kupferman–Vardi construction for
//!   arbitrary automata: `2^{O(n log n)}` worst case, fine for the small
//!   automata protocols are in practice.
//!
//! Both constructions enumerate the alphabet explicitly, so they require a
//! modest number of atomic propositions (protocol alphabets are small).

use crate::guard::{all_letters, Guard, Letter};
use crate::nba::{Nba, StateId};
use ddws_relational::hash::FxHashMap;

/// An exact-letter guard: admits `letter` and nothing else.
fn letter_guard(letter: Letter, num_aps: u32) -> Guard {
    let mask = if num_aps == 64 {
        u64::MAX
    } else {
        (1u64 << num_aps) - 1
    };
    Guard {
        pos: letter & mask,
        neg: !letter & mask,
    }
}

/// Completes an automaton: adds a rejecting sink so every state has at least
/// one successor on every letter. Preserves the language.
pub fn complete(nba: &Nba) -> Nba {
    let mut out = nba.clone();
    let mut sink: Option<StateId> = None;
    for s in 0..nba.num_states() {
        for letter in all_letters(nba.num_aps) {
            if out.successors(s, letter).next().is_none() {
                let sink_id = *sink.get_or_insert_with(|| out.add_state(false));
                out.add_transition(s, letter_guard(letter, nba.num_aps), sink_id);
            }
        }
    }
    if let Some(sink_id) = sink {
        out.add_transition(sink_id, Guard::TOP, sink_id);
    }
    if out.initial.is_empty() {
        // No initial state accepts nothing; completion gives it a sink start.
        let sink_id = sink.unwrap_or_else(|| {
            let id = out.add_state(false);
            out.add_transition(id, Guard::TOP, id);
            id
        });
        out.add_initial(sink_id);
    }
    out
}

/// Complements a *deterministic* automaton (after [`complete`]-ing it).
///
/// A word is rejected by a deterministic Büchi automaton iff its unique run
/// eventually stops visiting accepting states. The complement guesses that
/// point: copy 1 simulates the automaton; at any moment it may jump to
/// copy 2, which only admits non-accepting states and is entirely accepting.
///
/// # Panics
/// Panics if the completed automaton is not deterministic.
pub fn complement_deterministic(nba: &Nba) -> Nba {
    let a = complete(nba);
    assert!(
        a.is_deterministic_complete(),
        "complement_deterministic requires a deterministic automaton; \
         use `complement` for nondeterministic ones"
    );
    let n = a.num_states();
    // States: 0..n = copy 1 (non-accepting), n..2n = copy 2 (accepting).
    let mut out = Nba::new(a.num_aps, 2 * n);
    for s in n..2 * n {
        out.accepting[s] = true;
    }
    out.add_initial(a.initial[0]);
    for s in 0..n {
        for t in &a.transitions[s] {
            // Copy 1 follows the automaton...
            out.add_transition(s, t.guard, t.target);
            // ...and may jump to copy 2 on a non-accepting target.
            if !a.accepting[t.target] {
                out.add_transition(s, t.guard, n + t.target);
                // Copy 2 stays among non-accepting states.
                if !a.accepting[s] {
                    out.add_transition(n + s, t.guard, n + t.target);
                }
            }
        }
    }
    out
}

/// Rank-based (Kupferman–Vardi) complementation of an arbitrary Büchi
/// automaton.
///
/// States of the complement are pairs `(g, O)` where `g` is a *level
/// ranking* — a partial map from states to ranks in `0..=2n`, even on
/// accepting states — and `O` is the subset of even-ranked states still
/// owing a visit to an odd rank. A run of the complement exists iff every
/// run of the original gets trapped at an odd rank, i.e. the word is
/// rejected.
pub fn complement(nba: &Nba) -> Nba {
    let n = nba.num_states();
    assert!(
        n <= 10,
        "rank-based complementation is exponential; automaton has {n} > 10 states"
    );
    let max_rank = 2 * n;

    // A ranking: rank per state, `None` = ⊥ (state not tracked).
    type Ranking = Vec<Option<usize>>;

    #[derive(Clone, PartialEq, Eq, Hash)]
    struct KvState {
        g: Ranking,
        o: Vec<bool>,
    }

    let mut out = Nba::new(nba.num_aps, 0);
    let mut ids: FxHashMap<KvState, StateId> = FxHashMap::default();
    let mut worklist: Vec<KvState> = Vec::new();

    fn intern(
        ids: &mut FxHashMap<KvState, StateId>,
        s: KvState,
        out: &mut Nba,
        wl: &mut Vec<KvState>,
    ) -> StateId {
        if let Some(&id) = ids.get(&s) {
            return id;
        }
        let accepting = s.o.iter().all(|&b| !b);
        let id = out.add_state(accepting);
        ids.insert(s.clone(), id);
        wl.push(s);
        id
    }

    // Initial: initial states ranked 2n, everything else ⊥, O = ∅.
    let mut g0: Ranking = vec![None; n];
    for &q in &nba.initial {
        g0[q] = Some(max_rank);
    }
    let init = intern(
        &mut ids,
        KvState {
            g: g0,
            o: vec![false; n],
        },
        &mut out,
        &mut worklist,
    );
    out.add_initial(init);

    while let Some(state) = worklist.pop() {
        let src = ids[&state];
        for letter in all_letters(nba.num_aps) {
            // Rank ceiling per successor state: min over predecessors.
            let mut ceiling: Vec<Option<usize>> = vec![None; n];
            let mut covered = true;
            for q in 0..n {
                let Some(rank) = state.g[q] else { continue };
                for q2 in nba.successors(q, letter) {
                    ceiling[q2] = Some(match ceiling[q2] {
                        Some(c) => c.min(rank),
                        None => rank,
                    });
                }
                // A tracked state must have at least one successor for the
                // ranking to cover it — with `covered == false` this letter
                // admits no run at all from q, which only *helps* the
                // complement; the empty-domain ranking handles it, but only
                // if *no* tracked state moves. Mixed cases are fine: ranks
                // track runs, and runs that die need no rank.
                let _ = &mut covered;
            }

            // Enumerate all rankings g' with g'(q2) ≤ ceiling(q2) (and even
            // on accepting states), for exactly the covered successors.
            let domain: Vec<usize> = (0..n).filter(|&q| ceiling[q].is_some()).collect();
            let mut choices: Vec<Vec<usize>> = Vec::with_capacity(domain.len());
            for &q in &domain {
                let c = ceiling[q].expect("domain member");
                let ranks: Vec<usize> = (0..=c)
                    .filter(|r| !nba.accepting[q] || r % 2 == 0)
                    .collect();
                choices.push(ranks);
            }

            // Cartesian product of rank choices.
            let mut assignment = vec![0usize; domain.len()];
            loop {
                // Build g'.
                let mut g2: Ranking = vec![None; n];
                let mut ok = true;
                for (i, &q) in domain.iter().enumerate() {
                    let rank = choices[i].get(assignment[i]).copied();
                    match rank {
                        Some(r) => g2[q] = Some(r),
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                if ok {
                    // O' update.
                    let o_nonempty = state.o.iter().any(|&b| b);
                    let mut o2 = vec![false; n];
                    if o_nonempty {
                        // Successors of O that remain even-ranked.
                        for q in 0..n {
                            if state.o[q] {
                                for q2 in nba.successors(q, letter) {
                                    if let Some(r) = g2[q2] {
                                        if r % 2 == 0 {
                                            o2[q2] = true;
                                        }
                                    }
                                }
                            }
                        }
                    } else {
                        // Reset: all even-ranked states.
                        for q in 0..n {
                            if let Some(r) = g2[q] {
                                if r % 2 == 0 {
                                    o2[q] = true;
                                }
                            }
                        }
                    }
                    let dst = intern(&mut ids, KvState { g: g2, o: o2 }, &mut out, &mut worklist);
                    out.add_transition(src, letter_guard(letter, nba.num_aps), dst);
                }
                // Advance the odometer.
                let mut i = 0;
                loop {
                    if i == assignment.len() {
                        break;
                    }
                    assignment[i] += 1;
                    if assignment[i] < choices[i].len() {
                        break;
                    }
                    assignment[i] = 0;
                    i += 1;
                }
                if i == assignment.len() {
                    break;
                }
                if assignment.iter().all(|&x| x == 0) {
                    break;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ltl::Ltl;
    use crate::translate::ltl_to_nba;

    /// Hand-built deterministic automaton for `G F p0`.
    fn det_gf_p0() -> Nba {
        let mut nba = Nba::new(1, 2);
        nba.add_initial(0);
        nba.add_transition(0, Guard::forbid(0), 0);
        nba.add_transition(0, Guard::require(0), 1);
        nba.add_transition(1, Guard::forbid(0), 0);
        nba.add_transition(1, Guard::require(0), 1);
        nba.accepting[1] = true;
        nba
    }

    const WORDS: [(&[Letter], &[Letter]); 6] = [
        (&[], &[0]),
        (&[], &[1]),
        (&[1, 1], &[0]),
        (&[0], &[1, 0]),
        (&[1], &[0, 0, 1]),
        (&[0, 0], &[1, 1, 0]),
    ];

    #[test]
    fn deterministic_complement_flips_membership() {
        let nba = det_gf_p0();
        let comp = complement_deterministic(&nba);
        for (p, c) in WORDS {
            assert_eq!(
                comp.accepts_lasso(p, c),
                !nba.accepts_lasso(p, c),
                "on ({p:?}, {c:?})"
            );
        }
    }

    #[test]
    fn complete_preserves_language() {
        // An incomplete automaton: only a p0 self-loop.
        let mut nba = Nba::new(1, 1);
        nba.add_initial(0);
        nba.add_transition(0, Guard::require(0), 0);
        nba.accepting[0] = true;
        let completed = complete(&nba);
        for (p, c) in WORDS {
            assert_eq!(
                completed.accepts_lasso(p, c),
                nba.accepts_lasso(p, c),
                "on ({p:?}, {c:?})"
            );
        }
        assert!(completed.is_deterministic_complete());
    }

    #[test]
    fn rank_based_complement_on_deterministic_input() {
        let nba = det_gf_p0();
        let comp = complement(&nba);
        for (p, c) in WORDS {
            assert_eq!(
                comp.accepts_lasso(p, c),
                !nba.accepts_lasso(p, c),
                "on ({p:?}, {c:?})"
            );
        }
    }

    #[test]
    fn rank_based_complement_on_nondeterministic_input() {
        // F G p0 has no deterministic Büchi automaton — the canonical
        // nondeterministic complementation test.
        let nba = ltl_to_nba(&Ltl::finally(Ltl::globally(Ltl::ap(0))));
        let comp = complement(&nba);
        for (p, c) in WORDS {
            assert_eq!(
                comp.accepts_lasso(p, c),
                !nba.accepts_lasso(p, c),
                "on ({p:?}, {c:?})"
            );
        }
    }

    #[test]
    fn complement_of_universal_is_empty() {
        let top = ltl_to_nba(&Ltl::True);
        let comp = complement(&top);
        assert!(comp.is_empty());
    }

    #[test]
    fn complement_of_empty_is_universal() {
        let bottom = ltl_to_nba(&Ltl::False);
        let comp = complement(&bottom);
        for (p, c) in WORDS {
            assert!(comp.accepts_lasso(p, c), "on ({p:?}, {c:?})");
        }
    }
}
