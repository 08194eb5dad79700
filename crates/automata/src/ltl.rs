//! Propositional linear temporal logic over atomic-proposition indices.
//!
//! This is the target of the verifier's grounding step: every maximal
//! first-order subformula of an LTL-FO property becomes one atomic
//! proposition, and the remaining temporal skeleton is an [`Ltl`] formula.

use crate::guard::{ApId, Letter};
use std::collections::HashMap;
use std::fmt;

/// A propositional LTL formula.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Ltl {
    /// Truth.
    True,
    /// Falsity.
    False,
    /// Atomic proposition.
    Ap(ApId),
    /// Negation.
    Not(Box<Ltl>),
    /// Binary conjunction.
    And(Box<Ltl>, Box<Ltl>),
    /// Binary disjunction.
    Or(Box<Ltl>, Box<Ltl>),
    /// Next.
    X(Box<Ltl>),
    /// Until.
    U(Box<Ltl>, Box<Ltl>),
    /// Release (dual of until; needed for negation normal form).
    R(Box<Ltl>, Box<Ltl>),
}

impl Ltl {
    /// Atomic proposition.
    pub fn ap(i: ApId) -> Ltl {
        Ltl::Ap(i)
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(f: Ltl) -> Ltl {
        Ltl::Not(Box::new(f))
    }

    /// Conjunction.
    pub fn and(a: Ltl, b: Ltl) -> Ltl {
        Ltl::And(Box::new(a), Box::new(b))
    }

    /// Disjunction.
    pub fn or(a: Ltl, b: Ltl) -> Ltl {
        Ltl::Or(Box::new(a), Box::new(b))
    }

    /// Next.
    pub fn next(f: Ltl) -> Ltl {
        Ltl::X(Box::new(f))
    }

    /// Until.
    pub fn until(a: Ltl, b: Ltl) -> Ltl {
        Ltl::U(Box::new(a), Box::new(b))
    }

    /// Release.
    pub fn release(a: Ltl, b: Ltl) -> Ltl {
        Ltl::R(Box::new(a), Box::new(b))
    }

    /// Finally: `true U f`.
    pub fn finally(f: Ltl) -> Ltl {
        Ltl::until(Ltl::True, f)
    }

    /// Globally: `false R f`.
    pub fn globally(f: Ltl) -> Ltl {
        Ltl::release(Ltl::False, f)
    }

    /// Implication.
    pub fn implies(a: Ltl, b: Ltl) -> Ltl {
        Ltl::or(Ltl::not(a), b)
    }

    /// Negation normal form: negations pushed to atomic propositions,
    /// using the dualities `¬Xφ ≡ X¬φ`, `¬(φUψ) ≡ ¬φR¬ψ`, `¬(φRψ) ≡ ¬φU¬ψ`.
    pub fn nnf(&self) -> Ltl {
        self.nnf_inner(false)
    }

    fn nnf_inner(&self, negated: bool) -> Ltl {
        match (self, negated) {
            (Ltl::True, false) | (Ltl::False, true) => Ltl::True,
            (Ltl::True, true) | (Ltl::False, false) => Ltl::False,
            (Ltl::Ap(i), false) => Ltl::Ap(*i),
            (Ltl::Ap(i), true) => Ltl::not(Ltl::Ap(*i)),
            (Ltl::Not(f), _) => f.nnf_inner(!negated),
            (Ltl::And(a, b), false) => Ltl::and(a.nnf_inner(false), b.nnf_inner(false)),
            (Ltl::And(a, b), true) => Ltl::or(a.nnf_inner(true), b.nnf_inner(true)),
            (Ltl::Or(a, b), false) => Ltl::or(a.nnf_inner(false), b.nnf_inner(false)),
            (Ltl::Or(a, b), true) => Ltl::and(a.nnf_inner(true), b.nnf_inner(true)),
            (Ltl::X(f), _) => Ltl::next(f.nnf_inner(negated)),
            (Ltl::U(a, b), false) => Ltl::until(a.nnf_inner(false), b.nnf_inner(false)),
            (Ltl::U(a, b), true) => Ltl::release(a.nnf_inner(true), b.nnf_inner(true)),
            (Ltl::R(a, b), false) => Ltl::release(a.nnf_inner(false), b.nnf_inner(false)),
            (Ltl::R(a, b), true) => Ltl::until(a.nnf_inner(true), b.nnf_inner(true)),
        }
    }

    /// Propagates the constants `True`/`False` upwards until none is left
    /// below an operator it decides: `¬`, `∧`, `∨` by their truth tables,
    /// `X c ≡ c`, `φ U true ≡ true`, `φ U false ≡ false`,
    /// `false U ψ ≡ ψ`, `φ R true ≡ true`, `φ R false ≡ false`,
    /// `true R ψ ≡ ψ`. Subformulas without constants keep their shape, and
    /// `true U ψ` (`F ψ`) and `false R ψ` (`G ψ`) stay as they are, so the
    /// result is semantically equal and a constant exactly when a
    /// constant leaf decides it.
    pub fn fold_constants(&self) -> Ltl {
        match self {
            Ltl::True | Ltl::False | Ltl::Ap(_) => self.clone(),
            Ltl::Not(f) => match f.fold_constants() {
                Ltl::True => Ltl::False,
                Ltl::False => Ltl::True,
                g => Ltl::not(g),
            },
            Ltl::And(a, b) => match (a.fold_constants(), b.fold_constants()) {
                (Ltl::False, _) | (_, Ltl::False) => Ltl::False,
                (Ltl::True, g) | (g, Ltl::True) => g,
                (x, y) => Ltl::and(x, y),
            },
            Ltl::Or(a, b) => match (a.fold_constants(), b.fold_constants()) {
                (Ltl::True, _) | (_, Ltl::True) => Ltl::True,
                (Ltl::False, g) | (g, Ltl::False) => g,
                (x, y) => Ltl::or(x, y),
            },
            Ltl::X(f) => match f.fold_constants() {
                c @ (Ltl::True | Ltl::False) => c,
                g => Ltl::next(g),
            },
            Ltl::U(a, b) => match (a.fold_constants(), b.fold_constants()) {
                (_, c @ (Ltl::True | Ltl::False)) => c,
                (Ltl::False, g) => g,
                (x, y) => Ltl::until(x, y),
            },
            Ltl::R(a, b) => match (a.fold_constants(), b.fold_constants()) {
                (_, c @ (Ltl::True | Ltl::False)) => c,
                (Ltl::True, g) => g,
                (x, y) => Ltl::release(x, y),
            },
        }
    }

    /// Highest proposition index used, if any.
    pub fn max_ap(&self) -> Option<ApId> {
        match self {
            Ltl::True | Ltl::False => None,
            Ltl::Ap(i) => Some(*i),
            Ltl::Not(f) | Ltl::X(f) => f.max_ap(),
            Ltl::And(a, b) | Ltl::Or(a, b) | Ltl::U(a, b) | Ltl::R(a, b) => {
                match (a.max_ap(), b.max_ap()) {
                    (Some(x), Some(y)) => Some(x.max(y)),
                    (x, y) => x.or(y),
                }
            }
        }
    }
}

impl fmt::Display for Ltl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ltl::True => write!(f, "true"),
            Ltl::False => write!(f, "false"),
            Ltl::Ap(i) => write!(f, "p{i}"),
            Ltl::Not(g) => write!(f, "!({g})"),
            Ltl::And(a, b) => write!(f, "({a} & {b})"),
            Ltl::Or(a, b) => write!(f, "({a} | {b})"),
            Ltl::X(g) => write!(f, "X({g})"),
            Ltl::U(a, b) => write!(f, "({a} U {b})"),
            Ltl::R(a, b) => write!(f, "({a} R {b})"),
        }
    }
}

/// Evaluates an LTL formula at position 0 of the ultimately periodic word
/// `prefix · cycle^ω`.
///
/// This is the independent semantic oracle used to test the tableau
/// translation: for random formulas and random lasso words, the translated
/// automaton's verdict must match this function. Complexity is
/// `O(|f| · (n+m)²)` — irrelevant for tests.
///
/// # Panics
/// Panics if `cycle` is empty.
pub fn eval_on_lasso(f: &Ltl, prefix: &[Letter], cycle: &[Letter]) -> bool {
    assert!(!cycle.is_empty(), "lasso cycle must be non-empty");
    let n = prefix.len();
    let m = cycle.len();
    let mut memo: HashMap<(*const Ltl, usize), bool> = HashMap::new();
    eval_at(f, 0, prefix, cycle, n, m, &mut memo)
}

fn letter_at(pos: usize, prefix: &[Letter], cycle: &[Letter], n: usize, m: usize) -> Letter {
    if pos < n {
        prefix[pos]
    } else {
        cycle[(pos - n) % m]
    }
}

/// Canonical position: positions ≥ n+m are folded back into the cycle so the
/// memo table stays finite.
fn canon(pos: usize, n: usize, m: usize) -> usize {
    if pos < n + m {
        pos
    } else {
        n + (pos - n) % m
    }
}

fn eval_at(
    f: &Ltl,
    pos: usize,
    prefix: &[Letter],
    cycle: &[Letter],
    n: usize,
    m: usize,
    memo: &mut HashMap<(*const Ltl, usize), bool>,
) -> bool {
    let pos = canon(pos, n, m);
    let key = (f as *const Ltl, pos);
    if let Some(&v) = memo.get(&key) {
        return v;
    }
    let result = match f {
        Ltl::True => true,
        Ltl::False => false,
        Ltl::Ap(i) => letter_at(pos, prefix, cycle, n, m) >> i & 1 == 1,
        Ltl::Not(g) => !eval_at(g, pos, prefix, cycle, n, m, memo),
        Ltl::And(a, b) => {
            eval_at(a, pos, prefix, cycle, n, m, memo) && eval_at(b, pos, prefix, cycle, n, m, memo)
        }
        Ltl::Or(a, b) => {
            eval_at(a, pos, prefix, cycle, n, m, memo) || eval_at(b, pos, prefix, cycle, n, m, memo)
        }
        Ltl::X(g) => eval_at(g, pos + 1, prefix, cycle, n, m, memo),
        Ltl::U(a, b) => {
            // Scan forward; after n+m steps from any position the suffix
            // repeats, so n+m+1 distinct positions suffice.
            let mut value = false;
            for p in pos..=pos + n + m {
                if eval_at(b, p, prefix, cycle, n, m, memo) {
                    value = true;
                    break;
                }
                if !eval_at(a, p, prefix, cycle, n, m, memo) {
                    value = false;
                    break;
                }
            }
            value
        }
        Ltl::R(a, b) => {
            // φ R ψ ≡ ¬(¬φ U ¬ψ)
            let mut holds = true;
            for p in pos..=pos + n + m {
                if !eval_at(b, p, prefix, cycle, n, m, memo) {
                    holds = false;
                    break;
                }
                if eval_at(a, p, prefix, cycle, n, m, memo) {
                    holds = true;
                    break;
                }
            }
            holds
        }
    };
    memo.insert(key, result);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    const P0: Letter = 0b01;
    const P1: Letter = 0b10;
    const NONE: Letter = 0;

    #[test]
    fn nnf_pushes_negations_to_leaves() {
        // ¬(p0 U X p1) = ¬p0 R X ¬p1
        let f = Ltl::not(Ltl::until(Ltl::ap(0), Ltl::next(Ltl::ap(1))));
        let nnf = f.nnf();
        assert_eq!(
            nnf,
            Ltl::release(Ltl::not(Ltl::ap(0)), Ltl::next(Ltl::not(Ltl::ap(1))))
        );
        // double negation vanishes
        assert_eq!(Ltl::not(Ltl::not(Ltl::ap(2))).nnf(), Ltl::ap(2));
    }

    #[test]
    fn eval_atomic_and_boolean() {
        assert!(eval_on_lasso(&Ltl::ap(0), &[P0], &[NONE]));
        assert!(!eval_on_lasso(&Ltl::ap(1), &[P0], &[NONE]));
        assert!(eval_on_lasso(
            &Ltl::or(Ltl::ap(1), Ltl::not(Ltl::ap(1))),
            &[],
            &[NONE]
        ));
    }

    #[test]
    fn eval_next_and_until() {
        // X p0 on word NONE, (P0)^ω
        assert!(eval_on_lasso(&Ltl::next(Ltl::ap(0)), &[NONE], &[P0]));
        // p0 U p1 on P0 P0 P1 ...
        assert!(eval_on_lasso(
            &Ltl::until(Ltl::ap(0), Ltl::ap(1)),
            &[P0, P0],
            &[P1]
        ));
        // p0 U p1 fails when p0 breaks before p1
        assert!(!eval_on_lasso(
            &Ltl::until(Ltl::ap(0), Ltl::ap(1)),
            &[P0, NONE],
            &[P1]
        ));
        // F p1 with p1 only inside the cycle
        assert!(eval_on_lasso(
            &Ltl::finally(Ltl::ap(1)),
            &[NONE, NONE],
            &[NONE, P1]
        ));
        // G p0 fails if cycle has a gap
        assert!(!eval_on_lasso(
            &Ltl::globally(Ltl::ap(0)),
            &[P0],
            &[P0, NONE]
        ));
        assert!(eval_on_lasso(&Ltl::globally(Ltl::ap(0)), &[P0], &[P0, P0]));
    }

    #[test]
    fn eval_release() {
        // p0 R p1: p1 must hold up to and including the first p0 position.
        assert!(eval_on_lasso(
            &Ltl::release(Ltl::ap(0), Ltl::ap(1)),
            &[P1, P1 | P0],
            &[NONE]
        ));
        // never released, p1 forever: holds.
        assert!(eval_on_lasso(
            &Ltl::release(Ltl::ap(0), Ltl::ap(1)),
            &[],
            &[P1]
        ));
        // p1 breaks before release: fails.
        assert!(!eval_on_lasso(
            &Ltl::release(Ltl::ap(0), Ltl::ap(1)),
            &[P1, NONE],
            &[P0 | P1]
        ));
    }

    #[test]
    fn nnf_preserves_semantics_on_samples() {
        let formulas = [
            Ltl::not(Ltl::until(Ltl::ap(0), Ltl::ap(1))),
            Ltl::not(Ltl::and(Ltl::next(Ltl::ap(0)), Ltl::globally(Ltl::ap(1)))),
            Ltl::not(Ltl::release(Ltl::not(Ltl::ap(0)), Ltl::ap(1))),
        ];
        let words: [(&[Letter], &[Letter]); 4] = [
            (&[], &[NONE]),
            (&[P0, P1], &[P0 | P1]),
            (&[NONE], &[P0, P1]),
            (&[P1, P1], &[NONE, P0]),
        ];
        for f in &formulas {
            let g = f.nnf();
            for (p, c) in words {
                assert_eq!(
                    eval_on_lasso(f, p, c),
                    eval_on_lasso(&g, p, c),
                    "nnf changed semantics of {f} on ({p:?}, {c:?})"
                );
            }
        }
    }

    fn p() -> Ltl {
        Ltl::ap(0)
    }

    #[test]
    fn fold_negates_constants() {
        assert_eq!(Ltl::not(Ltl::True).fold_constants(), Ltl::False);
        assert_eq!(Ltl::not(Ltl::False).fold_constants(), Ltl::True);
        assert_eq!(Ltl::not(p()).fold_constants(), Ltl::not(p()));
    }

    #[test]
    fn fold_conjunction() {
        assert_eq!(Ltl::and(p(), Ltl::False).fold_constants(), Ltl::False);
        assert_eq!(Ltl::and(Ltl::False, p()).fold_constants(), Ltl::False);
        assert_eq!(Ltl::and(Ltl::True, p()).fold_constants(), p());
        assert_eq!(Ltl::and(p(), Ltl::True).fold_constants(), p());
    }

    #[test]
    fn fold_disjunction() {
        assert_eq!(Ltl::or(p(), Ltl::True).fold_constants(), Ltl::True);
        assert_eq!(Ltl::or(Ltl::True, p()).fold_constants(), Ltl::True);
        assert_eq!(Ltl::or(Ltl::False, p()).fold_constants(), p());
        assert_eq!(Ltl::or(p(), Ltl::False).fold_constants(), p());
    }

    #[test]
    fn fold_next_of_a_constant() {
        assert_eq!(Ltl::next(Ltl::True).fold_constants(), Ltl::True);
        assert_eq!(Ltl::next(Ltl::False).fold_constants(), Ltl::False);
        assert_eq!(Ltl::next(p()).fold_constants(), Ltl::next(p()));
    }

    #[test]
    fn fold_until() {
        assert_eq!(Ltl::until(p(), Ltl::True).fold_constants(), Ltl::True);
        assert_eq!(Ltl::until(p(), Ltl::False).fold_constants(), Ltl::False);
        assert_eq!(Ltl::until(Ltl::False, p()).fold_constants(), p());
        // `F p` keeps its shape.
        assert_eq!(Ltl::finally(p()).fold_constants(), Ltl::finally(p()));
    }

    #[test]
    fn fold_release() {
        assert_eq!(Ltl::release(p(), Ltl::True).fold_constants(), Ltl::True);
        assert_eq!(Ltl::release(p(), Ltl::False).fold_constants(), Ltl::False);
        assert_eq!(Ltl::release(Ltl::True, p()).fold_constants(), p());
        // `G p` keeps its shape.
        assert_eq!(Ltl::globally(p()).fold_constants(), Ltl::globally(p()));
    }

    #[test]
    fn fold_propagates_through_nesting() {
        // ¬G(false → X p) grounds to ¬(false R (¬false ∨ X p)).
        let f = Ltl::not(Ltl::globally(Ltl::implies(Ltl::False, Ltl::next(p()))));
        assert_eq!(f.fold_constants(), Ltl::False);
        // Constant-free formulas are returned unchanged.
        let g = Ltl::until(p(), Ltl::next(Ltl::ap(1)));
        assert_eq!(g.fold_constants(), g);
    }

    #[test]
    fn max_ap_finds_highest() {
        let f = Ltl::until(Ltl::ap(2), Ltl::next(Ltl::ap(5)));
        assert_eq!(f.max_ap(), Some(5));
        assert_eq!(Ltl::True.max_ap(), None);
    }
}
