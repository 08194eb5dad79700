//! Bit-packed tuple codes and hash-cons interning.
//!
//! The input-bounded fragment (PODS 2006, §3.1) guarantees that every
//! value occurring in a reachable configuration is drawn from a *closed*
//! domain fixed before the search starts: rule constants, database values
//! and a finite pool of fresh values — all of them entries of the run's
//! [`Symbols`](crate::Symbols) table. Two consequences are exploited here:
//!
//! * **Packing.** A tuple over a domain of `n` values fits in
//!   `arity * ceil(log2(n))` bits. With the small domains input-bounded
//!   verification uses, whole tuples pack into single `u64` codes, and a
//!   relation becomes a sorted `Box<[u64]>` — set algebra collapses to
//!   linear merges over machine words ([`PackSpec`]).
//! * **Hash-consing.** The same few relation extensions recur across
//!   millions of configurations (queues mostly empty, states mostly
//!   stable). Interning each distinct extension once ([`Interner`]) turns
//!   configuration equality and hashing into `u32` comparisons.
//!
//! The interner sits on the search's one [`ShardedTable`], so parallel
//! search workers intern without contending on one lock, and it
//! meters hits/misses for the telemetry invariants (`hits + misses ==
//! calls` at any quiescent point).

use crate::hash::{FxHashMap, ShardedTable, SHARDS, SHARD_BITS};
use crate::tuple::Tuple;
use crate::value::Value;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Bit-packing layout for tuples of one arity over a closed value domain.
///
/// Values are packed most-significant-first, so the numeric order of codes
/// is exactly the lexicographic order of tuples — a sorted code slice
/// unpacks to a canonically ordered relation extension.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PackSpec {
    /// Bits per value: `ceil(log2(domain_size))`, minimum 1.
    bits: u32,
    /// Values per tuple.
    arity: u32,
}

impl PackSpec {
    /// Layout for tuples of `arity` over a domain of `domain_size` values
    /// (value indices `0..domain_size`). Returns `None` when the packed
    /// form would not fit in 64 bits — callers fall back to unpacked
    /// interning for such relations.
    pub fn new(domain_size: usize, arity: usize) -> Option<PackSpec> {
        let bits = bits_for(domain_size);
        let arity = u32::try_from(arity).ok()?;
        if u64::from(arity) * u64::from(bits) > 64 {
            return None;
        }
        Some(PackSpec { bits, arity })
    }

    /// Bits per value.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Values per tuple.
    pub fn arity(&self) -> u32 {
        self.arity
    }

    /// Packs a tuple into its code. `None` when the tuple has the wrong
    /// arity or a value outside the packed domain — under input-bounded
    /// semantics the latter cannot happen for domains sized to the symbol
    /// table, but the packer refuses rather than corrupting a code.
    pub fn pack(&self, tuple: &[Value]) -> Option<u64> {
        if tuple.len() != self.arity as usize {
            return None;
        }
        let mut code = 0u64;
        for v in tuple {
            if self.bits < 64 && u64::from(v.0) >= 1u64 << self.bits {
                return None;
            }
            code = (code << self.bits) | u64::from(v.0);
        }
        Some(code)
    }

    /// Unpacks a code back into its tuple (the inverse of [`PackSpec::pack`]).
    pub fn unpack(&self, code: u64) -> Vec<Value> {
        let mut out = Vec::with_capacity(self.arity as usize);
        self.unpack_into(code, &mut out);
        out
    }

    /// Appends the tuple of `code` to `out` ([`PackSpec::unpack`] without
    /// the allocation).
    pub fn unpack_into(&self, code: u64, out: &mut Vec<Value>) {
        let start = out.len();
        out.resize(start + self.arity as usize, Value(0));
        let mask = if self.bits >= 64 {
            u64::MAX
        } else {
            (1u64 << self.bits) - 1
        };
        let mut rest = code;
        for slot in out[start..].iter_mut().rev() {
            *slot = Value((rest & mask) as u32);
            rest = if self.bits >= 64 {
                0
            } else {
                rest >> self.bits
            };
        }
    }

    /// Packs a sorted, duplicate-free iterator of tuples into a sorted code
    /// slice. `None` if any tuple refuses to pack.
    pub fn pack_all<'a, I>(&self, tuples: I) -> Option<Vec<u64>>
    where
        I: IntoIterator<Item = &'a [Value]>,
    {
        let mut codes: Vec<u64> = tuples
            .into_iter()
            .map(|t| self.pack(t))
            .collect::<Option<_>>()?;
        // MSB-first packing is order-preserving, but callers may hand
        // unsorted extensions; canonicalize defensively.
        if !codes.windows(2).all(|w| w[0] < w[1]) {
            codes.sort_unstable();
            codes.dedup();
        }
        Some(codes)
    }

    /// Unpacks a sorted code slice into tuples, preserving canonical order.
    pub fn unpack_all(&self, codes: &[u64]) -> Vec<Tuple> {
        codes.iter().map(|&c| Tuple::new(self.unpack(c))).collect()
    }
}

/// Bits needed to address a domain of `n` values (minimum 1).
pub fn bits_for(n: usize) -> u32 {
    match n.saturating_sub(1) {
        0 => 1,
        m => usize::BITS - m.leading_zeros(),
    }
}

// --- Sorted-code set algebra -----------------------------------------

/// Binary-search membership in a sorted code slice.
pub fn codes_contain(codes: &[u64], code: u64) -> bool {
    codes.binary_search(&code).is_ok()
}

/// Union of two sorted code slices.
pub fn codes_union(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Applies Definition 2.4's no-op-on-conflict state update on sorted code
/// slices in one three-way merge:
/// `(ins \ del) ∪ (old ∩ ins ∩ del) ∪ (old \ (ins ∪ del))`.
pub fn codes_apply_update(old: &[u64], ins: &[u64], del: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(old.len() + ins.len());
    let (mut i, mut j, mut k) = (0, 0, 0);
    loop {
        let next = [old.get(i), ins.get(j), del.get(k)]
            .into_iter()
            .flatten()
            .min()
            .copied();
        let Some(c) = next else { break };
        let in_old = old.get(i) == Some(&c);
        let in_ins = ins.get(j) == Some(&c);
        let in_del = del.get(k) == Some(&c);
        // Written as Definition 2.4's three disjuncts verbatim, one per
        // case, rather than the minimal boolean form.
        #[allow(clippy::nonminimal_bool)]
        let keep = (in_ins && !in_del)            // inserted, undeleted
            || (in_old && in_ins && in_del)        // conflicting update: no-op
            || (in_old && !in_ins && !in_del); // untouched
        if keep {
            out.push(c);
        }
        i += usize::from(in_old);
        j += usize::from(in_ins);
        k += usize::from(in_del);
    }
    out
}

// --- Sharded hash-cons interner ---------------------------------------

struct Shard<T> {
    items: Vec<Arc<T>>,
    ids: FxHashMap<Arc<T>, u32>,
}

impl<T> Default for Shard<T> {
    fn default() -> Self {
        Shard {
            items: Vec::new(),
            ids: FxHashMap::default(),
        }
    }
}

/// A thread-safe hash-cons table: equal values intern to the same dense
/// `u32` handle, so handle equality is value equality and handle hashing
/// replaces deep hashing. Handles encode their shard in the low
/// [`SHARD_BITS`] bits; resolution never consults a directory.
pub struct Interner<T> {
    shards: ShardedTable<Shard<T>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<T> Default for Interner<T> {
    fn default() -> Self {
        Interner {
            shards: ShardedTable::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl<T: Hash + Eq> Interner<T> {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a value, returning its handle. Books exactly one hit (the
    /// value was already interned — including the benign race where
    /// another thread interned it between the read and write probes) or
    /// one miss (a fresh entry) per call.
    pub fn intern(&self, item: T) -> u32 {
        let sh = self.shards.shard_index(&item);
        if let Some(&id) = self.shards.read(sh).ids.get(&item) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return id;
        }
        let mut shard = self.shards.write(sh);
        if let Some(&id) = shard.ids.get(&item) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return id;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let local = u32::try_from(shard.items.len()).expect("interner overflow");
        let id = local
            .checked_shl(SHARD_BITS)
            .filter(|id| id >> SHARD_BITS == local)
            .expect("interner overflow")
            | sh as u32;
        let arc = Arc::new(item);
        shard.items.push(Arc::clone(&arc));
        shard.ids.insert(arc, id);
        id
    }

    /// Resolves a handle back to its value (COW: the `Arc` aliases the
    /// interned entry; the table never mutates an entry in place).
    pub fn resolve(&self, id: u32) -> Arc<T> {
        let shard = self.shards.read(id as usize & (SHARDS - 1));
        Arc::clone(&shard.items[(id >> SHARD_BITS) as usize])
    }

    /// Number of distinct interned values.
    pub fn len(&self) -> usize {
        self.shards.read_all().map(|s| s.items.len()).sum()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Intern calls answered from the table so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Intern calls that created a fresh entry so far. Every call books
    /// exactly one hit or one miss, so `hits() + misses()` is the total
    /// number of intern calls — the telemetry-suite invariant.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Approximate heap bytes of the interned values, via a per-entry cost
    /// callback (used for checkpoint-size accounting).
    pub fn approx_bytes(&self, cost: impl Fn(&T) -> usize) -> usize {
        self.shards
            .read_all()
            .map(|s| s.items.iter().map(|i| cost(i)).sum::<usize>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals(v: &[u32]) -> Vec<Value> {
        v.iter().map(|&x| Value(x)).collect()
    }

    #[test]
    fn bits_for_boundaries() {
        assert_eq!(bits_for(0), 1);
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 1);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(4), 2);
        assert_eq!(bits_for(5), 3);
        assert_eq!(bits_for(256), 8);
        assert_eq!(bits_for(257), 9);
    }

    #[test]
    fn pack_unpack_round_trip() {
        let spec = PackSpec::new(5, 3).unwrap();
        let t = vals(&[4, 0, 3]);
        let code = spec.pack(&t).unwrap();
        assert_eq!(spec.unpack(code), t);
    }

    #[test]
    fn packing_preserves_lexicographic_order() {
        let spec = PackSpec::new(4, 2).unwrap();
        let a = spec.pack(&vals(&[1, 3])).unwrap();
        let b = spec.pack(&vals(&[2, 0])).unwrap();
        assert!(a < b, "msb-first packing orders like tuples");
    }

    #[test]
    fn pack_refuses_out_of_domain_values() {
        let spec = PackSpec::new(4, 2).unwrap();
        assert!(spec.pack(&vals(&[4, 0])).is_none());
        assert!(spec.pack(&vals(&[0])).is_none(), "wrong arity");
    }

    #[test]
    fn wide_tuples_have_no_spec() {
        assert!(PackSpec::new(1 << 20, 4).is_none());
        assert!(PackSpec::new(2, 64).is_some());
        assert!(PackSpec::new(3, 64).is_none());
    }

    #[test]
    fn zero_arity_packs_to_unit_code() {
        let spec = PackSpec::new(7, 0).unwrap();
        assert_eq!(spec.pack(&[]), Some(0));
        assert!(spec.unpack(0).is_empty());
    }

    #[test]
    fn update_merge_matches_definition() {
        // old={1,2,3} ins={2,4} del={2,3,5}:
        //   4 inserted; 2 conflicting (kept); 3 deleted; 1 untouched.
        let out = codes_apply_update(&[1, 2, 3], &[2, 4], &[2, 3, 5]);
        assert_eq!(out, vec![1, 2, 4]);
    }

    #[test]
    fn union_and_contains() {
        assert_eq!(codes_union(&[1, 3], &[2, 3, 9]), vec![1, 2, 3, 9]);
        assert!(codes_contain(&[1, 4, 9], 4));
        assert!(!codes_contain(&[1, 4, 9], 5));
    }

    #[test]
    fn interner_hash_consing_and_metering() {
        let i: Interner<Vec<u64>> = Interner::new();
        let a = i.intern(vec![1, 2, 3]);
        let b = i.intern(vec![1, 2, 3]);
        let c = i.intern(vec![4]);
        assert_eq!(a, b, "equal values share a handle");
        assert_ne!(a, c, "distinct values get distinct handles");
        assert_eq!(*i.resolve(a), vec![1, 2, 3]);
        assert_eq!(*i.resolve(c), vec![4]);
        assert_eq!(i.len(), 2);
        assert_eq!(i.hits(), 1);
        assert_eq!(i.misses(), 2);
    }
}
