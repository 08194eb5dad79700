//! Randomized semantic checks: the GPVW translation and the
//! complementation construction are checked against the direct LTL
//! semantics on random ultimately periodic words. Agreement on all
//! ultimately periodic words implies ω-language equality, so these tests
//! are a genuine (sampled) semantic check.

use ddws_automata::complement::complement;
use ddws_automata::ltl::eval_on_lasso;
use ddws_automata::{ltl_to_nba, Letter, Ltl};
use ddws_testkit::{gen, rng::XorShift, seed_from};

/// Random LTL formula over `num_aps` propositions, bounded depth.
fn gen_ltl(rng: &mut XorShift, num_aps: u32, depth: u32) -> Ltl {
    if depth == 0 || rng.chance(1, 3) {
        return match rng.below(3) {
            0 => Ltl::ap(rng.below(u64::from(num_aps)) as u32),
            1 => Ltl::True,
            _ => Ltl::False,
        };
    }
    let d = depth - 1;
    match rng.below(6) {
        0 => Ltl::not(gen_ltl(rng, num_aps, d)),
        1 => Ltl::and(gen_ltl(rng, num_aps, d), gen_ltl(rng, num_aps, d)),
        2 => Ltl::or(gen_ltl(rng, num_aps, d), gen_ltl(rng, num_aps, d)),
        3 => Ltl::next(gen_ltl(rng, num_aps, d)),
        4 => Ltl::until(gen_ltl(rng, num_aps, d), gen_ltl(rng, num_aps, d)),
        _ => Ltl::release(gen_ltl(rng, num_aps, d), gen_ltl(rng, num_aps, d)),
    }
}

/// A random ultimately periodic word: prefix (possibly empty) + non-empty cycle.
fn gen_word(rng: &mut XorShift, num_aps: u32) -> (Vec<Letter>, Vec<Letter>) {
    let max = 1u64 << num_aps;
    let prefix = gen::vec_of(rng, 0, 3, |r| r.below(max));
    let cycle = gen::vec_of(rng, 1, 3, |r| r.below(max));
    (prefix, cycle)
}

/// The tableau automaton accepts exactly the words satisfying the formula.
#[test]
fn translation_matches_semantics() {
    gen::cases(128, seed_from("translation_matches_semantics"), |rng| {
        let f = gen_ltl(rng, 2, 3);
        let (prefix, cycle) = gen_word(rng, 2);
        let nba = ltl_to_nba(&f);
        assert_eq!(
            nba.accepts_lasso(&prefix, &cycle),
            eval_on_lasso(&f, &prefix, &cycle),
            "formula {f} on ({prefix:?}, {cycle:?})"
        );
    });
}

/// Rank-based complementation flips membership (small automata only).
#[test]
fn complement_flips_membership() {
    gen::cases(128, seed_from("complement_flips_membership"), |rng| {
        let f = gen_ltl(rng, 1, 2);
        let (prefix, cycle) = gen_word(rng, 1);
        let nba = ltl_to_nba(&f);
        if nba.num_states() <= 8 {
            let comp = complement(&nba);
            assert_eq!(
                comp.accepts_lasso(&prefix, &cycle),
                !nba.accepts_lasso(&prefix, &cycle),
                "formula {f} on ({prefix:?}, {cycle:?})"
            );
        }
    });
}

/// Constant folding is semantics-preserving: on random formulas with
/// `True`/`False` leaves and random lassos, the folded formula evaluates
/// exactly like the original, and folding again changes nothing.
#[test]
fn fold_constants_preserves_semantics() {
    gen::cases(512, seed_from("fold_constants"), |rng| {
        let f = gen_ltl(rng, 2, 4);
        let folded = f.fold_constants();
        assert_eq!(
            folded.fold_constants(),
            folded,
            "fold of {f} is not a fixpoint"
        );
        for _ in 0..4 {
            let (prefix, cycle) = gen_word(rng, 2);
            assert_eq!(
                eval_on_lasso(&f, &prefix, &cycle),
                eval_on_lasso(&folded, &prefix, &cycle),
                "folding {f} to {folded} changed its value on ({prefix:?}, {cycle:?})"
            );
        }
    });
}
