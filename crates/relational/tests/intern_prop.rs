//! Randomized tests for the hash-cons interner and the bit-packed
//! tuple codes — the substrate of the compact state representation.

use ddws_relational::intern::{bits_for, codes_apply_update, codes_contain, codes_union};
use ddws_relational::{Interner, PackSpec, Relation, Tuple, Value};
use ddws_testkit::{gen, rng::XorShift, seed_from};
use std::collections::BTreeSet;
use std::sync::Arc;

fn gen_tuple(rng: &mut XorShift, arity: usize, dom: u64) -> Tuple {
    (0..arity).map(|_| Value(rng.below(dom) as u32)).collect()
}

/// Interning then resolving returns the original value, and equal
/// values intern to the *same* handle while distinct values never
/// collide: handle equality is exactly value equality.
#[test]
fn intern_resolve_roundtrip_and_id_equality() {
    gen::cases(
        64,
        seed_from("intern_resolve_roundtrip_and_id_equality"),
        |rng| {
            let tuples = gen::vec_of(rng, 1, 19, |r| gen_tuple(r, 3, 6));
            let interner: Interner<Tuple> = Interner::new();
            let ids: Vec<u32> = tuples.iter().map(|t| interner.intern(t.clone())).collect();
            for (t, &id) in tuples.iter().zip(&ids) {
                assert_eq!(&*interner.resolve(id), t);
            }
            for (i, a) in tuples.iter().enumerate() {
                for (j, b) in tuples.iter().enumerate() {
                    assert_eq!(ids[i] == ids[j], a == b);
                }
            }
            let distinct: BTreeSet<&Tuple> = tuples.iter().collect();
            assert_eq!(interner.len(), distinct.len());
            assert_eq!(interner.hits() + interner.misses(), tuples.len() as u64);
            assert_eq!(interner.misses(), distinct.len() as u64);
        },
    );
}

/// Resolving the same handle twice aliases one shared allocation (the
/// copy-on-write snapshot guarantee: configurations holding the same
/// interned extension share storage, never deep-copies).
#[test]
fn resolve_aliases_shared_storage() {
    gen::cases(64, seed_from("resolve_aliases_shared_storage"), |rng| {
        let t = gen_tuple(rng, 4, 9);
        let interner: Interner<Relation> = Interner::new();
        let rel = Relation::singleton(t);
        let id = interner.intern(rel.clone());
        let a = interner.resolve(id);
        let b = interner.resolve(id);
        assert!(Arc::ptr_eq(&a, &b));
        // Re-interning an equal value books a hit and allocates nothing new.
        let before = interner.len();
        assert_eq!(interner.intern(rel), id);
        assert_eq!(interner.len(), before);
        assert!(Arc::ptr_eq(&interner.resolve(id), &a));
    });
}

/// `pack` then `unpack` is the identity over the full packable domain.
#[test]
fn pack_unpack_identity() {
    gen::cases(64, seed_from("pack_unpack_identity"), |rng| {
        let t = gen_tuple(rng, 3, 21);
        let spec = PackSpec::new(21, 3).expect("3×5 bits packs");
        let code = spec.pack(t.values()).expect("in-domain tuple packs");
        assert_eq!(spec.unpack(code), t.values().to_vec());
    });
}

/// Packed codes order-embed tuples: `codes_union` and
/// `codes_apply_update` on sorted codes agree with the set-level
/// operations on the tuples they encode.
#[test]
fn code_merges_agree_with_set_semantics() {
    gen::cases(
        64,
        seed_from("code_merges_agree_with_set_semantics"),
        |rng| {
            let old = gen::vec_of(rng, 0, 11, |r| gen_tuple(r, 2, 5));
            let ins = gen::vec_of(rng, 0, 11, |r| gen_tuple(r, 2, 5));
            let del = gen::vec_of(rng, 0, 11, |r| gen_tuple(r, 2, 5));
            let spec = PackSpec::new(5, 2).expect("2×3 bits packs");
            let encode = |ts: &[Tuple]| -> Vec<u64> {
                let mut codes: Vec<u64> = ts
                    .iter()
                    .map(|t| spec.pack(t.values()).expect("in-domain"))
                    .collect();
                codes.sort_unstable();
                codes.dedup();
                codes
            };
            let (o, i, d) = (encode(&old), encode(&ins), encode(&del));
            let as_set = |codes: &[u64]| -> BTreeSet<u64> { codes.iter().copied().collect() };
            let union = codes_union(&o, &i);
            assert!(
                union.windows(2).all(|w| w[0] < w[1]),
                "union stays sorted+deduped"
            );
            assert_eq!(as_set(&union), &as_set(&o) | &as_set(&i));
            // Definition 2.4's no-op-on-conflict update, checked pointwise.
            let updated = codes_apply_update(&o, &i, &d);
            assert!(updated.windows(2).all(|w| w[0] < w[1]));
            for c in as_set(&union).union(&as_set(&d)) {
                let (in_o, in_i, in_d) = (
                    codes_contain(&o, *c),
                    codes_contain(&i, *c),
                    codes_contain(&d, *c),
                );
                // Definition 2.4's three disjuncts verbatim, one per case.
                #[allow(clippy::nonminimal_bool)]
                let expect = (in_i && !in_d) || (in_o && in_i && in_d) || (in_o && !in_i && !in_d);
                assert_eq!(codes_contain(&updated, *c), expect, "code {c}");
            }
        },
    );
}

/// Boundary widths: packing must fill exactly 64 bits at every arity ×
/// width split, `unpack` must invert `pack` at the extreme code points,
/// and anything one bit wider must be refused, never truncated.
#[test]
fn pack_boundary_widths() {
    // 2×32 bits, 4×16, 8×8, 16×4, 32×2, 64×1 — each saturates the 64-bit
    // code exactly.
    for (arity, bits) in [(2u32, 32u32), (4, 16), (8, 8), (16, 4), (32, 2), (64, 1)] {
        let dom = 1usize << bits;
        let spec = PackSpec::new(dom, arity as usize)
            .unwrap_or_else(|| panic!("arity {arity} × {bits} bits must pack"));
        assert_eq!(bits_for(dom), bits, "bits_for({dom})");
        assert_eq!((spec.bits(), spec.arity()), (bits, arity));
        let lo: Vec<Value> = vec![Value(0); arity as usize];
        let hi: Vec<Value> = vec![Value((dom - 1) as u32); arity as usize];
        for t in [lo, hi] {
            let code = spec.pack(&t).expect("boundary tuple packs");
            assert_eq!(spec.unpack(code), t, "arity {arity} boundary round-trip");
        }
    }
    // One value past a power of two bumps the width; one bit past 64 total
    // must refuse.
    assert_eq!(bits_for((1 << 16) + 1), 17);
    assert!(
        PackSpec::new((1 << 16) + 1, 4).is_none(),
        "4×17 bits must be rejected"
    );
    assert!(
        PackSpec::new(1 << 32, 3).is_none(),
        "3×32 bits must be rejected"
    );
    // Out-of-domain values and wrong arities refuse to pack, never wrap.
    let spec = PackSpec::new(4, 2).expect("2×2 bits");
    assert_eq!(spec.pack(&[Value(0), Value(4)]), None);
    assert_eq!(spec.pack(&[Value(u32::MAX), Value(0)]), None);
    assert_eq!(spec.pack(&[Value(0)]), None);
    // Degenerate one-value domain still addresses with one bit.
    let one = PackSpec::new(1, 64).expect("64×1 bit");
    assert_eq!(one.pack(&vec![Value(0); 64]), Some(0));
    assert_eq!(one.unpack(0), vec![Value(0); 64]);
}
