//! Synthetic relay chains for scaling experiments (EXPERIMENTS.md, E7):
//! `n` peers `P0 → P1 → … → P{n-1}` forward a token; the state-space size
//! grows with the chain length, the queue bound and the domain size.
//! [`nested_relay`] is the state-heavy three-peer variant over nested
//! channels that E13, E14 and the symmetry suite share.

use ddws_model::{Composition, CompositionBuilder, QueueKind, Semantics};
use ddws_relational::{Instance, Tuple};

/// Builds a relay chain of `n ≥ 2` peers. `P0` picks a token from its
/// database and sends it down the chain; every peer records what it saw.
pub fn composition(n: usize, lossy: bool, semantics: Semantics) -> Composition {
    chain_builder(n, lossy, semantics)
        .build()
        .expect("chain composition is well-formed")
}

fn chain_builder(n: usize, lossy: bool, semantics: Semantics) -> CompositionBuilder {
    assert!(n >= 2, "a chain needs at least two peers");
    let mut b = CompositionBuilder::new();
    b.semantics(semantics);
    b.default_lossy(lossy);

    for i in 0..n - 1 {
        b.channel(
            &format!("hop{i}"),
            1,
            QueueKind::Flat,
            &format!("P{i}"),
            &format!("P{}", i + 1),
        );
    }

    b.peer("P0")
        .database("token", 1)
        .input("emit", 1)
        .input_rule("emit", &["x"], "token(x)")
        .send_rule("hop0", &["x"], "emit(x)");

    for i in 1..n {
        let mut p = b.peer(&format!("P{i}"));
        p.state("seen", 1)
            .state_insert_rule("seen", &["x"], &format!("?hop{}(x)", i - 1));
        if i < n - 1 {
            p.send_rule(&format!("hop{i}"), &["x"], &format!("?hop{}(x)", i - 1));
        }
    }

    b
}

/// A relay chain plus a channel-free *auditor* peer `Aud` whose single
/// state relation `phase` rotates deterministically through the `ring ≥ 2`
/// phase constants `"r0" … "r{ring-1}"` (entered at `"r0"` from the empty
/// initial state, quantifier-free so the peer stays input-bounded).
///
/// The auditor shares no channel, queue or relation with the chain, so it
/// is statically independent of every chain mover and invisible to any
/// chain-only property: under `Reduction::Ample` the search schedules it
/// alone until its orbit closes (where the C3 cycle proviso restores the
/// full expansion), collapsing the `chain × auditor` interleavings. This
/// is the partial-order-reduction showcase of experiment E9.
pub fn composition_with_auditor(
    n: usize,
    ring: usize,
    lossy: bool,
    semantics: Semantics,
) -> Composition {
    assert!(ring >= 2, "the auditor ring needs at least two phases");
    let mut b = chain_builder(n, lossy, semantics);
    let occupied = (0..ring)
        .map(|i| format!("phase(\"r{i}\")"))
        .collect::<Vec<_>>()
        .join(" or ");
    let mut arms = vec![format!("(x = \"r0\" and not ({occupied}))")];
    for i in 0..ring {
        arms.push(format!("(x = \"r{}\" and phase(\"r{i}\"))", (i + 1) % ring));
    }
    b.peer("Aud")
        .state("phase", 1)
        .state_insert_rule("phase", &["x"], &arms.join(" or "))
        .state_delete_rule("phase", &["x"], "phase(x)");
    b.build().expect("auditor chain composition is well-formed")
}

/// A rule-dense relay chain for the compiled-kernel experiment (E10):
/// every peer carries, besides its relay rules, a `ring`-phase rotor and
/// an audit pair over private state relations, so each of the `n ≥ 3`
/// peers ends up with at least four (the endpoints: five or six) reaction
/// rules whose bodies are large disjunctions over the phase constants.
/// The rotor's occupancy guard keeps it to at most two adjacent phases,
/// so its reachable state count is *linear* in `ring` even as the bodies
/// grow polynomially — evaluation cost scales without a state-space
/// explosion. This is exactly the shape where per-step FO
/// re-interpretation hurts: the interpreter re-verifies the full
/// disjunction per candidate tuple at every step, while the compiled plan
/// ground-checks each guarded branch once and the footprint cache
/// memoizes every rotor rule on the rotor's own (tiny, endlessly
/// repeating) extension.
pub fn rule_dense_composition(
    n: usize,
    ring: usize,
    lossy: bool,
    semantics: Semantics,
) -> Composition {
    assert!(n >= 3, "the rule-dense chain wants at least three peers");
    let mut b = chain_builder(n, lossy, semantics);
    for i in 0..n {
        add_phase_ring(&mut b, &format!("P{i}"), "phase", ring);
    }
    b.build()
        .expect("rule-dense chain composition is well-formed")
}

/// Adds a `ring`-phase rotor over a fresh state relation `rel` to `peer` —
/// a stepping insert rule (enter at `"r0"` from empty, advance from a lone
/// `"r{i}"` to `"r{i+1}"`) plus a plain delete rule — and a companion
/// `{rel}_audit` relation with two rules whose bodies conjoin a large
/// *ground* guard with a per-tuple contradiction, so they are evaluated
/// at every step but never fire: the audit relation stays empty forever
/// and the pair adds rule-evaluation work without a single reachable
/// state. The ground guard is an `O(ring³)`-literal disjunction over
/// phase triples — mostly-false under the two-phase occupancy cap, so
/// its scan rarely short-circuits. The interpreter re-checks it for
/// every candidate head tuple at every step; the compiled plan hoists it
/// as a ground guard checked once per evaluation, and the footprint
/// cache then memoizes the whole rule on the rotor's (tiny, endlessly
/// repeating) extension.
fn add_phase_ring(b: &mut CompositionBuilder, peer: &str, rel: &str, ring: usize) {
    assert!(ring >= 2, "a phase ring needs at least two phases");
    let step_body = |var: &str| {
        let all = (0..ring)
            .map(|i| format!("{rel}(\"r{i}\")"))
            .collect::<Vec<_>>()
            .join(" or ");
        let mut arms = vec![format!("({var} = \"r0\" and not ({all}))")];
        for i in 0..ring {
            let others = (0..ring)
                .filter(|&j| j != i)
                .map(|j| format!("{rel}(\"r{j}\")"))
                .collect::<Vec<_>>()
                .join(" or ");
            arms.push(format!(
                "({var} = \"r{}\" and {rel}(\"r{i}\") and not ({others}))",
                (i + 1) % ring
            ));
        }
        arms.join(" or ")
    };
    let mut triples = Vec::with_capacity(ring * ring * ring);
    for i in 0..ring {
        for j in 0..ring {
            for k in 0..ring {
                triples.push(format!(
                    "({rel}(\"r{i}\") and {rel}(\"r{j}\") and {rel}(\"r{k}\"))"
                ));
            }
        }
    }
    // Four rotated copies conjoined: rotation relocates whichever triple
    // happens to be true, so disjunction short-circuiting cannot collapse
    // the scan of every copy at once.
    let ground = (0..4)
        .map(|s| {
            let mut copy = triples.clone();
            copy.rotate_left(s * triples.len() / 4);
            format!("({})", copy.join(" or "))
        })
        .collect::<Vec<_>>()
        .join(" and ");
    let audit = format!("{rel}_audit");
    b.peer(peer)
        .state(rel, 1)
        .state_insert_rule(rel, &["x"], &step_body("x"))
        .state_delete_rule(rel, &["x"], &format!("{rel}(x)"))
        .state(&audit, 1)
        .state_insert_rule(
            &audit,
            &["x"],
            &format!("{ground} and {rel}(x) and ({})", step_body("x")),
        )
        .state_delete_rule(
            &audit,
            &["x"],
            &format!("{ground} and {audit}(x) and ({})", step_body("x")),
        );
}

/// The state-heavy *nested relay* (experiments E13 and E14): `P0` emits
/// its `m` database tokens `t0..` over a nested channel, `P1` joins them
/// against its `m` private `mine` rows `a0..` into the arity-2
/// accumulator `seen2` and ships the whole extension downstream (again
/// nested), and `P2` records what arrived in `got`. All channels are lossy.
///
/// * `ring ≥ 2` gives `P1` a `ring`-phase rotor and a `mark` audit rule
///   reading `seen2` — the rule-dense E10 shape on top of the heavy
///   extensions.
/// * `pool > 0` gives `P1` a `pool` relation of `pool` constants `p0..`
///   and an insert-only `stock` of every value it knows
///   (`mine(x) or pool(x) or ?hop(x)`). Each pool constant enlarges the
///   domain by one universal valuation that no analysis can fold — E14's
///   many-valuation regime.
/// * `twin` adds `P0`'s unread `order` relation, a successor chain over
///   the tokens and over the private rows, which breaks every value
///   symmetry (the *asymmetric twin* of DESIGN.md §3.16).
///
/// Returns the composition and its fixed database. The declaration and
/// interning order is part of the definition: the committed E13/E14
/// state counts are measured on exactly this construction.
pub fn nested_relay(m: usize, ring: usize, pool: usize, twin: bool) -> (Composition, Instance) {
    let mut b = CompositionBuilder::new();
    b.semantics(Semantics::default());
    b.default_lossy(true);
    b.channel("hop", 1, QueueKind::Nested, "P0", "P1");
    b.channel("rep", 2, QueueKind::Nested, "P1", "P2");
    b.peer("P0")
        .database("token", 1)
        .input("emit", 1)
        .input_rule("emit", &["x"], "token(x)")
        .send_rule("hop", &["x"], "emit(x)");
    let mut p1 = b.peer("P1");
    p1.database("mine", 1);
    if pool > 0 {
        p1.database("pool", 1);
    }
    p1.state("seen2", 2);
    if pool > 0 {
        p1.state("stock", 1);
    }
    p1.state_insert_rule("seen2", &["x", "y"], "mine(x) and ?hop(y)");
    if pool > 0 {
        p1.state_insert_rule("stock", &["x"], "mine(x) or pool(x) or ?hop(x)");
    }
    p1.send_rule("rep", &["x", "y"], "seen2(x, y)");
    b.peer("P2")
        .state("got", 2)
        .state_insert_rule("got", &["x", "y"], "?rep(x, y)");
    if twin {
        b.peer("P0").database("order", 2);
    }
    if ring >= 2 {
        let all = (0..ring)
            .map(|i| format!("phase(\"r{i}\")"))
            .collect::<Vec<_>>()
            .join(" or ");
        let mut arms = vec![format!("(x = \"r0\" and not ({all}))")];
        for i in 0..ring {
            let others = (0..ring)
                .filter(|&j| j != i)
                .map(|j| format!("phase(\"r{j}\")"))
                .collect::<Vec<_>>()
                .join(" or ");
            arms.push(format!(
                "(x = \"r{}\" and phase(\"r{i}\") and not ({others}))",
                (i + 1) % ring
            ));
        }
        b.peer("P1")
            .state("phase", 1)
            .state_insert_rule("phase", &["x"], &arms.join(" or "))
            .state_delete_rule("phase", &["x"], "phase(x)")
            .state("mark", 1)
            .state_insert_rule(
                "mark",
                &["x"],
                "mine(x) and seen2(x, \"t0\") and phase(\"r0\")",
            );
    }
    let mut comp = b.build().expect("nested relay composition is well-formed");
    let mut db = Instance::empty(&comp.voc);
    let token = comp.voc.lookup("P0.token").unwrap();
    let mine = comp.voc.lookup("P1.mine").unwrap();
    for i in 0..m {
        let t = comp.symbols.intern(&format!("t{i}"));
        db.relation_mut(token).insert(Tuple::new(vec![t]));
        let a = comp.symbols.intern(&format!("a{i}"));
        db.relation_mut(mine).insert(Tuple::new(vec![a]));
    }
    if pool > 0 {
        let pool_rel = comp.voc.lookup("P1.pool").unwrap();
        for i in 0..pool {
            let p = comp.symbols.intern(&format!("p{i}"));
            db.relation_mut(pool_rel).insert(Tuple::new(vec![p]));
        }
    }
    if twin {
        let order = comp.voc.lookup("P0.order").unwrap();
        for prefix in ["t", "a"] {
            for i in 1..m {
                let from = comp.symbols.lookup(&format!("{prefix}{}", i - 1)).unwrap();
                let to = comp.symbols.lookup(&format!("{prefix}{i}")).unwrap();
                db.relation_mut(order).insert(Tuple::new(vec![from, to]));
            }
        }
    }
    (comp, db)
}

/// A database with `m` candidate tokens.
pub fn database(comp: &mut Composition, m: usize) -> Instance {
    let mut db = Instance::empty(&comp.voc);
    let rel = comp.voc.lookup("P0.token").unwrap();
    for i in 0..m {
        let v = comp.symbols.intern(&format!("t{i}"));
        db.relation_mut(rel).insert(Tuple::new(vec![v]));
    }
    db
}

/// End-to-end integrity: the last peer only sees database tokens (strict).
pub fn prop_integrity(n: usize) -> String {
    format!("G (forall x: P{}.?hop{}(x) -> P0.token(x))", n - 1, n - 2)
}
