//! Canonical-form laws of the symmetry reduction (`ddws_model::canon`),
//! checked over reachable configurations of relay chains and compgen
//! cases under random class permutations π:
//!
//! * `canon(π·c) == canon(c)` — the representative is orbit-invariant;
//! * `canon(canon(c)) == canon(c)` — it is idempotent;
//! * the returned permutation maps `c` onto `canon(c)`;
//! * the compact and legacy canonicalizers pick the same representative
//!   with the same permutation.
//!
//! On the m = 3 relay the number of distinct representatives must equal
//! a brute-force orbit count, which pins canonicity, not only soundness.

use ddws_model::{
    Composition, CompositionBuilder, Config, QueueKind, Semantics, StatePool, ValueClasses,
    ValuePerm,
};
use ddws_relational::{Instance, Tuple, Value};
use ddws_testkit::compgen;
use ddws_testkit::rng::XorShift;
use ddws_testkit::{gen, seed_from};
use std::collections::{BTreeSet, HashSet, VecDeque};

/// E13's relay chain: P0 emits its `m` tokens over a nested channel, P1
/// joins them with its `m` private rows into `seen2` and ships the
/// extension to P2.
fn relay(m: usize) -> (Composition, Instance) {
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
    b.peer("P1")
        .database("mine", 1)
        .state("seen2", 2)
        .state_insert_rule("seen2", &["x", "y"], "mine(x) and ?hop(y)")
        .send_rule("rep", &["x", "y"], "seen2(x, y)");
    b.peer("P2")
        .state("got", 2)
        .state_insert_rule("got", &["x", "y"], "?rep(x, y)");
    let mut comp = b.build().expect("relay chain builds");
    let mut db = Instance::empty(&comp.voc);
    for (rel, prefix) in [("P0.token", "t"), ("P1.mine", "a")] {
        let id = comp.voc.lookup(rel).expect("declared relation");
        for i in 0..m {
            let v = comp.symbols.intern(&format!("{prefix}{i}"));
            db.relation_mut(id).insert(Tuple::new(vec![v]));
        }
    }
    (comp, db)
}

/// The domain (rule constants plus the database's active domain) and the
/// classes of its values no rule names.
fn domain_and_classes(comp: &Composition, db: &Instance) -> (Vec<Value>, ValueClasses) {
    let pinned: BTreeSet<Value> = comp.rule_constants.iter().copied().collect();
    let domain: Vec<Value> = pinned
        .iter()
        .copied()
        .chain(db.active_domain())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let classes =
        ValueClasses::from_database(db, domain.iter().copied().filter(|v| !pinned.contains(v)));
    (domain, classes)
}

/// Breadth-first reachable configurations, up to `cap` of them.
fn reachable(comp: &Composition, db: &Instance, domain: &[Value], cap: usize) -> Vec<Config> {
    let mut seen: HashSet<Config> = HashSet::new();
    let mut order = Vec::new();
    let mut queue: VecDeque<Config> = comp.initial_configs(db, domain).into();
    while let Some(c) = queue.pop_front() {
        if order.len() >= cap {
            break;
        }
        if !seen.insert(c.clone()) {
            continue;
        }
        for mover in comp.movers() {
            queue.extend(comp.successors(db, domain, &c, mover));
        }
        order.push(c);
    }
    order
}

/// A uniformly random permutation of every class.
fn random_perm(classes: &ValueClasses, rng: &mut XorShift) -> ValuePerm {
    let mut pairs = Vec::new();
    for class in classes.classes() {
        let mut image = class.clone();
        for i in (1..image.len()).rev() {
            image.swap(i, rng.range(0, i + 1));
        }
        pairs.extend(class.iter().copied().zip(image));
    }
    ValuePerm::from_pairs(pairs)
}

/// Every permutation of the classes (the group the reduction acts with).
fn all_perms(classes: &ValueClasses) -> Vec<ValuePerm> {
    fn perms(xs: &[Value]) -> Vec<Vec<Value>> {
        if xs.len() <= 1 {
            return vec![xs.to_vec()];
        }
        let mut out = Vec::new();
        for i in 0..xs.len() {
            let mut rest = xs.to_vec();
            let x = rest.remove(i);
            for mut p in perms(&rest) {
                p.insert(0, x);
                out.push(p);
            }
        }
        out
    }
    let mut group = vec![Vec::<(Value, Value)>::new()];
    for class in classes.classes() {
        group = group
            .into_iter()
            .flat_map(|pairs| {
                perms(class).into_iter().map(move |image| {
                    let mut p = pairs.clone();
                    p.extend(class.iter().copied().zip(image));
                    p
                })
            })
            .collect();
    }
    group.into_iter().map(ValuePerm::from_pairs).collect()
}

/// Checks every law on `configs`, `samples` random permutations each.
fn check_laws(
    comp: &Composition,
    domain: &[Value],
    classes: &ValueClasses,
    configs: &[Config],
    rng: &mut XorShift,
    samples: usize,
) {
    let capacity = domain.iter().map(|v| v.index()).max().unwrap_or(0) + 1;
    let pool = StatePool::new(comp, capacity);
    for c in configs {
        let (rep, perm) = c.canonical(classes);
        assert_eq!(
            c.permuted(&perm),
            rep,
            "the permutation maps c onto canon(c)"
        );
        assert_eq!(rep.canonical(classes).0, rep, "canon is idempotent");
        let (crep, cperm) = pool.canonical(&pool.compact(comp, c), classes);
        assert_eq!(
            cperm, perm,
            "compact and legacy choose the same permutation"
        );
        assert_eq!(pool.expand(comp, &crep), rep, "and the same representative");
        for _ in 0..samples {
            let pi = random_perm(classes, rng);
            let moved = c.permuted(&pi);
            assert_eq!(moved.canonical(classes).0, rep, "canon is orbit-invariant");
            let moved_cc = pool.compact(comp, &moved);
            assert_eq!(
                pool.canonical(&moved_cc, classes).0,
                crep,
                "in both encodings"
            );
        }
    }
}

#[test]
fn relay_chain_canonical_forms_obey_the_laws() {
    let mut rng = XorShift::new(seed_from("canon_relay"));
    for m in 2..=4 {
        let (comp, db) = relay(m);
        let (domain, classes) = domain_and_classes(&comp, &db);
        assert_eq!(classes.classes().len(), 2, "tokens and mines (m = {m})");
        let configs = reachable(&comp, &db, &domain, 3_000);
        check_laws(&comp, &domain, &classes, &configs, &mut rng, 3);
    }
}

#[test]
fn relay_m3_representatives_match_a_brute_force_orbit_count() {
    let (comp, db) = relay(3);
    let (domain, classes) = domain_and_classes(&comp, &db);
    let configs = reachable(&comp, &db, &domain, usize::MAX);
    let group = all_perms(&classes);
    assert_eq!(group.len(), 36, "3! token orders times 3! mine orders");
    let mut covered: HashSet<Config> = HashSet::new();
    let mut orbits = 0;
    for c in &configs {
        if covered.contains(c) {
            continue;
        }
        orbits += 1;
        covered.extend(group.iter().map(|p| c.permuted(p)));
    }
    assert_eq!(
        covered.len(),
        configs.len(),
        "reachability is closed under the group"
    );
    let reps: HashSet<Config> = configs.iter().map(|c| c.canonical(&classes).0).collect();
    assert_eq!(reps.len(), orbits, "one representative per orbit");
    assert!(
        orbits * 5 < configs.len(),
        "the relay reduces: {orbits} orbits of {} configurations",
        configs.len()
    );
}

#[test]
fn compgen_canonical_forms_obey_the_laws() {
    let mut symmetric = 0;
    gen::cases(200, seed_from("canon_compgen"), |rng| {
        let case = compgen::case(rng);
        let (domain, classes) = domain_and_classes(&case.composition, &case.database);
        if classes.is_trivial() {
            return;
        }
        symmetric += 1;
        let configs = reachable(&case.composition, &case.database, &domain, 400);
        check_laws(&case.composition, &domain, &classes, &configs, rng, 2);
    });
    assert!(
        symmetric >= 20,
        "only {symmetric} of 200 cases are symmetric"
    );
}
