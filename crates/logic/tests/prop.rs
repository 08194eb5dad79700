//! Randomized tests for the logic layer: pretty-printer ↔ parser
//! round-trips over randomly generated formulas, and evaluator/enumerator
//! agreement on random structures.

use ddws_logic::enumerate::satisfying_valuations;
use ddws_logic::eval::{eval_fo, Structure};
use ddws_logic::parser::{parse_ltlfo, Resolver};
use ddws_logic::pretty::Names;
use ddws_logic::{Fo, LtlFo, Term, Valuation, VarId, Vars};
use ddws_relational::{Instance, RelId, Symbols, Tuple, Value, Vocabulary};
use ddws_testkit::{gen, rng::XorShift, seed_from};

/// A fixed environment: two relations, a flag, three variables, two symbols.
fn env() -> (Vocabulary, Vars, Symbols) {
    let mut voc = Vocabulary::new();
    voc.declare("p", 1).unwrap();
    voc.declare("q", 2).unwrap();
    voc.declare("flag", 0).unwrap();
    let mut vars = Vars::new();
    for n in ["x", "y", "z"] {
        vars.intern(n);
    }
    let mut symbols = Symbols::new();
    symbols.intern("a");
    symbols.intern("b");
    (voc, vars, symbols)
}

fn gen_term(rng: &mut XorShift) -> Term {
    if rng.bool() {
        Term::Var(VarId(rng.below(3) as u32))
    } else {
        Term::Const(Value(rng.below(2) as u32))
    }
}

/// Random FO formulas over the fixed environment, depth-bounded.
fn gen_fo(rng: &mut XorShift, depth: u32) -> Fo {
    if depth == 0 || rng.chance(1, 3) {
        return match rng.below(6) {
            0 => Fo::Atom(RelId(0), vec![gen_term(rng)]),
            1 => Fo::Atom(RelId(1), vec![gen_term(rng), gen_term(rng)]),
            2 => Fo::Atom(RelId(2), vec![]),
            3 => Fo::Eq(gen_term(rng), gen_term(rng)),
            4 => Fo::True,
            _ => Fo::False,
        };
    }
    match rng.below(6) {
        0 => Fo::not(gen_fo(rng, depth - 1)),
        1 => Fo::And(gen::vec_of(rng, 2, 3, |r| gen_fo(r, depth - 1))),
        2 => Fo::Or(gen::vec_of(rng, 2, 3, |r| gen_fo(r, depth - 1))),
        3 => Fo::Implies(
            Box::new(gen_fo(rng, depth - 1)),
            Box::new(gen_fo(rng, depth - 1)),
        ),
        4 => Fo::exists(vec![VarId(rng.below(3) as u32)], gen_fo(rng, depth - 1)),
        _ => Fo::forall(vec![VarId(rng.below(3) as u32)], gen_fo(rng, depth - 1)),
    }
}

#[derive(Debug)]
struct Snap {
    inst: Instance,
    dom: Vec<Value>,
}

impl Structure for Snap {
    fn contains(&self, rel: RelId, tuple: &[Value]) -> bool {
        self.inst.contains_slice(rel, tuple)
    }
    fn domain(&self) -> &[Value] {
        &self.dom
    }
    fn scan(&self, rel: RelId) -> Option<Vec<Vec<Value>>> {
        Some(
            self.inst
                .relation(rel)
                .iter()
                .map(|t| t.values().to_vec())
                .collect(),
        )
    }
}

/// A random structure over `env()`'s vocabulary and the domain `{0, 1}`:
/// up to two `p` facts, up to three `q` facts, and a random `flag`.
fn gen_snap(rng: &mut XorShift) -> Snap {
    let (voc, _, _) = env();
    let mut inst = Instance::empty(&voc);
    for v in gen::vec_of(rng, 0, 2, |r| r.below(2) as u32) {
        inst.relation_mut(RelId(0))
            .insert(Tuple::new(vec![Value(v)]));
    }
    for (a, b) in gen::vec_of(rng, 0, 3, |r| (r.below(2) as u32, r.below(2) as u32)) {
        inst.relation_mut(RelId(1))
            .insert(Tuple::new(vec![Value(a), Value(b)]));
    }
    inst.set_holds(RelId(2), rng.bool());
    Snap {
        inst,
        dom: vec![Value(0), Value(1)],
    }
}

/// print → parse is the identity on random formulas (the printed core
/// syntax re-parses to the same AST).
#[test]
fn printer_parser_roundtrip() {
    gen::cases(64, seed_from("printer_parser_roundtrip"), |rng| {
        let fo = gen_fo(rng, 3);
        let (voc, mut vars, mut symbols) = env();
        let printed = Names::new(&voc, &vars, &symbols).ltlfo(&LtlFo::Fo(fo.clone()));
        let reparsed = {
            let mut r = Resolver {
                voc: &voc,
                vars: &mut vars,
                symbols: &mut symbols,
            };
            parse_ltlfo(&printed, &mut r)
        };
        // The parser hoists boolean connectives to the LTL level
        // (`not p(x)` parses as LtlFo::Not of an FO leaf); fold back into
        // pure FO before comparing.
        let normalized = reparsed
            .unwrap_or_else(|e| panic!("reparse of `{printed}`: {e}"))
            .to_fo()
            .unwrap_or_else(|| panic!("reparse of `{printed}` introduced temporal ops"));
        assert_eq!(fo, normalized, "printed: {printed}");
    });
}

/// Every valuation of `head` over `dom` that satisfies `fo` in `snap`,
/// found by brute force.
fn bruteforce(head: &[VarId], fo: &Fo, snap: &Snap) -> Vec<Vec<Value>> {
    fn go(
        head: &[VarId],
        idx: usize,
        fo: &Fo,
        snap: &Snap,
        val: &mut Valuation,
        out: &mut Vec<Vec<Value>>,
    ) {
        if idx == head.len() {
            if eval_fo(fo, snap, val) {
                out.push(head.iter().map(|&v| val.expect(v)).collect());
            }
            return;
        }
        for &d in &snap.dom {
            val.set(head[idx], d);
            go(head, idx + 1, fo, snap, val, out);
        }
        val.unset(head[idx]);
    }
    let mut out = Vec::new();
    go(
        head,
        0,
        fo,
        snap,
        &mut Valuation::with_capacity(3),
        &mut out,
    );
    out
}

/// The seeded enumerator agrees with brute-force evaluation for every
/// random body over every random structure.
#[test]
fn enumerator_matches_bruteforce() {
    gen::cases(64, seed_from("enumerator_matches_bruteforce"), |rng| {
        let fo = gen_fo(rng, 2);
        let snap = gen_snap(rng);
        // Head variables: the formula's free variables.
        let head: Vec<VarId> = fo.free_vars().into_iter().collect();
        let mut fast = satisfying_valuations(&head, &fo, &snap);
        fast.sort();
        let mut slow = bruteforce(&head, &fo, &snap);
        slow.sort();
        assert_eq!(fast, slow, "body {fo:?} over {snap:?}");
    });
}
