//! Randomized tests of the run semantics (Definitions 2.3–2.6):
//! invariants that must hold for every reachable configuration and every
//! successor, under randomized databases, domains and exploration order.

use ddws_model::{Composition, CompositionBuilder, Config, Mover, QueueKind, Semantics};
use ddws_relational::{Instance, Tuple, Value};
use ddws_testkit::{gen, seed_from};
use std::collections::HashSet;

fn relay(k: usize, lossy: bool) -> Composition {
    let mut b = CompositionBuilder::new();
    b.semantics(Semantics {
        queue_bound: k,
        ..Semantics::default()
    });
    b.default_lossy(lossy);
    b.channel("belt", 1, QueueKind::Flat, "A", "B");
    b.channel("ack", 1, QueueKind::Flat, "B", "A");
    b.peer("A")
        .database("d", 1)
        .state("acked", 1)
        .input("push", 1)
        .input_rule("push", &["x"], "d(x)")
        .state_insert_rule("acked", &["x"], "?ack(x)")
        .send_rule("belt", &["x"], "push(x)");
    b.peer("B")
        .state("seen", 1)
        .state_insert_rule("seen", &["x"], "?belt(x)")
        .send_rule("ack", &["x"], "?belt(x)");
    b.build().unwrap()
}

fn db_of(comp: &mut Composition, n: usize) -> (Instance, Vec<Value>) {
    let mut db = Instance::empty(&comp.voc);
    let d = comp.voc.lookup("A.d").unwrap();
    let mut dom = Vec::new();
    for i in 0..n {
        let v = comp.symbols.intern(&format!("x{i}"));
        db.relation_mut(d).insert(Tuple::new(vec![v]));
        dom.push(v);
    }
    (db, dom)
}

/// Explores up to `budget` configurations, applying `check` to every
/// (config, successor) pair.
fn explore(
    comp: &Composition,
    db: &Instance,
    dom: &[Value],
    budget: usize,
    check: &mut dyn FnMut(&Composition, &Config, Mover, &Config),
) {
    let movers = comp.movers();
    let mut seen: HashSet<Config> = HashSet::new();
    let mut queue: Vec<Config> = comp.initial_configs(db, dom);
    for c in &queue {
        seen.insert(c.clone());
    }
    while let Some(c) = queue.pop() {
        if seen.len() > budget {
            return;
        }
        for &m in &movers {
            for s in comp.successors(db, dom, &c, m) {
                check(comp, &c, m, &s);
                if seen.insert(s.clone()) {
                    queue.push(s);
                }
            }
        }
    }
}

/// Queue bounds hold in every reachable configuration, for random relay
/// parameters.
#[test]
fn queue_bound_is_invariant() {
    gen::cases(12, seed_from("queue_bound_is_invariant"), |rng| {
        let k = rng.range(1, 4);
        let lossy = rng.bool();
        let n = rng.range(1, 3);
        let mut comp = relay(k, lossy);
        let (db, dom) = db_of(&mut comp, n);
        explore(&comp, &db, &dom, 3_000, &mut |comp, _, _, s| {
            for q in s.queues.iter() {
                assert!(
                    q.len() <= comp.semantics.queue_bound,
                    "queue bound {k} exceeded (lossy={lossy}, n={n})"
                );
            }
        });
    });
}

/// A non-mover's state, inputs and previous inputs are untouched by a
/// step (Definition 2.6); only its queues may change.
#[test]
fn non_movers_are_frozen() {
    gen::cases(12, seed_from("non_movers_are_frozen"), |rng| {
        let k = rng.range(1, 3);
        let lossy = rng.bool();
        let mut comp = relay(k, lossy);
        let (db, dom) = db_of(&mut comp, 2);
        explore(
            &comp,
            &db,
            &dom,
            2_000,
            &mut |comp, before, mover, after| {
                for peer in &comp.peers {
                    if Mover::Peer(peer.id) == mover {
                        continue;
                    }
                    for &rel in peer
                        .states
                        .iter()
                        .chain(&peer.inputs)
                        .chain(peer.prev.iter().flatten())
                        .chain(&peer.actions)
                    {
                        assert_eq!(
                            before.rel.relation(rel),
                            after.rel.relation(rel),
                            "non-mover relation {} changed (k={k}, lossy={lossy})",
                            comp.voc.name(rel)
                        );
                    }
                }
            },
        );
    });
}

/// Perfect channels deliver: when the mover sends and the queue has
/// room, at least one successor has the message enqueued.
#[test]
fn perfect_channels_always_offer_delivery() {
    gen::cases(
        12,
        seed_from("perfect_channels_always_offer_delivery"),
        |rng| {
            let k = rng.range(1, 3);
            let mut comp = relay(k, false);
            let (db, dom) = db_of(&mut comp, 1);
            let (belt, _) = comp.channel_by_name("belt").unwrap();
            let a = comp.peer_by_name("A").unwrap().id;
            let push = comp.voc.lookup("A.push").unwrap();
            for c in comp.initial_configs(&db, &dom) {
                if c.rel.relation(push).is_empty() {
                    continue;
                }
                let succs = comp.successors(&db, &dom, &c, Mover::Peer(a));
                assert!(
                    succs.iter().any(|s| !s.queues[belt.index()].is_empty()),
                    "perfect channel must offer the delivery branch (k={k})"
                );
            }
        },
    );
}

/// Successor sets are duplicate-free from random initial configurations.
#[test]
fn successors_are_deduplicated() {
    gen::cases(12, seed_from("successors_are_deduplicated"), |rng| {
        let k = rng.range(1, 3);
        let lossy = rng.bool();
        let mut comp = relay(k, lossy);
        let (db, dom) = db_of(&mut comp, 2);
        let movers = comp.movers();
        for c in comp.initial_configs(&db, &dom) {
            for &m in &movers {
                let succs = comp.successors(&db, &dom, &c, m);
                let unique: HashSet<_> = succs.iter().cloned().collect();
                assert_eq!(unique.len(), succs.len());
            }
        }
    });
}
