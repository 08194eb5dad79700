//! Randomized tests for the relational substrate: the relation laws and
//! the active domain, on seeded `ddws-testkit` case streams.

use ddws_relational::{Instance, Relation, Symbols, Tuple, Value, Vocabulary};
use ddws_testkit::{gen, rng::XorShift, seed_from};
use std::collections::BTreeSet;

fn gen_tuple(rng: &mut XorShift, arity: usize, dom: u64) -> Tuple {
    (0..arity).map(|_| Value(rng.below(dom) as u32)).collect()
}

fn gen_relation(rng: &mut XorShift, arity: usize, dom: u64, max_len: usize) -> Relation {
    Relation::from_tuples(gen::vec_of(rng, 0, max_len, |r| gen_tuple(r, arity, dom)))
}

#[test]
fn relation_is_canonical() {
    gen::cases(64, seed_from("relation_is_canonical"), |rng| {
        let tuples = gen::vec_of(rng, 0, 12, |r| gen_tuple(r, 2, 5));
        let forward = Relation::from_tuples(tuples.clone());
        let mut reversed = tuples;
        reversed.reverse();
        assert_eq!(forward, Relation::from_tuples(reversed));
    });
}

#[test]
fn insert_remove_roundtrip() {
    gen::cases(64, seed_from("insert_remove_roundtrip"), |rng| {
        let mut rel = gen_relation(rng, 2, 5, 10);
        let t = gen_tuple(rng, 2, 5);
        rel.insert(t.clone());
        assert!(rel.contains(&t));
        rel.remove(&t);
        assert!(!rel.contains(&t));
    });
}

#[test]
fn union_laws() {
    gen::cases(64, seed_from("union_laws"), |rng| {
        let a = gen_relation(rng, 1, 6, 10);
        let b = gen_relation(rng, 1, 6, 10);
        let u = a.union(&b);
        assert_eq!(u, b.union(&a));
        assert!(a.iter().all(|t| u.contains(t)));
        assert!(b.iter().all(|t| u.contains(t)));
        assert!(u.len() <= a.len() + b.len());
    });
}

#[test]
fn difference_intersection_partition() {
    gen::cases(64, seed_from("difference_intersection_partition"), |rng| {
        let a = gen_relation(rng, 1, 6, 10);
        let b = gen_relation(rng, 1, 6, 10);
        let d = a.difference(&b);
        let i = a.intersection(&b);
        assert_eq!(d.len() + i.len(), a.len());
        assert!(d.intersection(&i).is_empty());
        assert_eq!(d.union(&i), a);
    });
}

/// The active domain of an instance is exactly the set of values in its tuples.
#[test]
fn active_domain_is_exact() {
    gen::cases(64, seed_from("active_domain_is_exact"), |rng| {
        let tuples = gen::vec_of(rng, 0, 9, |r| gen_tuple(r, 3, 8));
        let mut voc = Vocabulary::new();
        let r = voc.declare("R", 3).unwrap();
        let mut inst = Instance::empty(&voc);
        let mut expected = BTreeSet::new();
        for t in &tuples {
            expected.extend(t.values().iter().copied());
            inst.relation_mut(r).insert(t.clone());
        }
        assert_eq!(inst.active_domain(), expected);
    });
}

#[test]
fn symbols_roundtrip_many() {
    let mut s = Symbols::new();
    let names: Vec<String> = (0..100).map(|i| format!("name-{i}")).collect();
    let vals: Vec<Value> = names.iter().map(|n| s.intern(n)).collect();
    for (n, v) in names.iter().zip(&vals) {
        assert_eq!(s.lookup(n), Some(*v));
        assert_eq!(s.name(*v), n);
    }
}
