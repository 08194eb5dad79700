//! A keyless, deterministic multiplicative hasher for the search tables.
//!
//! The product search, the visited sets, the interners and the rule memo
//! hash small keys the program assigns itself — interned `u32` handles,
//! packed `u64` codes, `(config, mover, q, oracle)` product states —
//! millions of times per check. std's SipHash is built to resist
//! adversarial keys, which these tables never see, and runs rounds of
//! mixing per word where this hasher does one add and one multiply. The recipe is rustc's FxHash (version
//! 2): each word is added and the sum multiplied by an odd constant, and
//! `finish` rotates the high, well-mixed product bits down to where
//! hashbrown and [`ShardedTable`]'s shard choice read them.
//!
//! Tables keyed by client-chosen names (symbols, relation and variable
//! names) keep `RandomState`; see DESIGN.md §3.12.
//!
//! [`ShardedTable`] is the one lock-sharded table the search shares across
//! threads: the interners, the product's memos and the parallel engine's
//! visited set all sit on it, so the shard count, the shard choice, the
//! lock and the poisoning policy are decided here once.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

const K: u64 = 0xf135_7aea_2e62_a9c5;

/// The FxHash-style hasher: one add and one multiply per word, no key.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    /// Folds `bytes` 8 at a time, then the zero-padded tail word and the
    /// length, so `[1]`, `[1, 0]` and `[]` differ. Words are read in native
    /// byte order: std hashes a `[u64]` slice (the interner's packed codes)
    /// as its raw bytes, and this way it folds word for word on every
    /// platform.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_ne_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
        self.add(u64::from_ne_bytes(tail));
        self.add(bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    /// `usize` hashes as `u64`, so hashes agree across pointer widths.
    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// Builds [`FxHasher`]s; every table built with it hashes alike.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` on [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` on [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// The [`FxHasher`] hash of one value.
#[inline]
pub fn fx_hash<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

/// Bits of a shard index; interner handles carry their shard in these low
/// bits.
pub const SHARD_BITS: u32 = 4;

/// Shards per [`ShardedTable`]: few enough for sequential runs, enough for
/// the ≤ 32 workers the engines target.
pub const SHARDS: usize = 1 << SHARD_BITS;

/// The search's one sharded table: [`SHARDS`] values of `T` (a map, a set
/// or an interner's shard), each behind its own `RwLock`.
///
/// A poisoned lock is recovered. Every table on this type holds pure,
/// append-only data — memoized functions of their keys, interned values,
/// visited states — so a writer that panicked leaves at worst a missing
/// entry the next caller recomputes, and the surviving workers (or the
/// service re-dispatching a crashed slice onto the same state) go on.
#[derive(Default)]
pub struct ShardedTable<T> {
    shards: Box<[RwLock<T>; SHARDS]>,
}

impl<T> ShardedTable<T> {
    /// The shard `key` lives in, the same on every run (the hasher is
    /// keyless). It reads hash bits 20–23: each shard's own table indexes
    /// buckets by the low bits and tags them with the top 7, so a shard
    /// taken from either would give all of a shard's keys the same bucket
    /// bits or the same tag bits.
    pub fn shard_index<K: Hash + ?Sized>(&self, key: &K) -> usize {
        (fx_hash(key) >> 20) as usize & (SHARDS - 1)
    }

    /// Read access to shard `shard` (`< SHARDS`).
    pub fn read(&self, shard: usize) -> RwLockReadGuard<'_, T> {
        self.shards[shard]
            .read()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Write access to shard `shard` (`< SHARDS`).
    pub fn write(&self, shard: usize) -> RwLockWriteGuard<'_, T> {
        self.shards[shard]
            .write()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Read access to every shard in turn.
    pub fn read_all(&self) -> impl Iterator<Item = RwLockReadGuard<'_, T>> {
        (0..SHARDS).map(|i| self.read(i))
    }
}

impl<K: Hash + Eq, V: Clone> ShardedTable<FxHashMap<K, V>> {
    /// The value under `key`, cloned out under the read lock (callers store
    /// ids or `Arc`s).
    pub fn get(&self, key: &K) -> Option<V> {
        self.read(self.shard_index(key)).get(key).cloned()
    }

    /// Inserts unless the key is present; whether this call inserted.
    pub fn insert_new(&self, key: K, value: V) -> bool {
        match self.write(self.shard_index(&key)).entry(key) {
            Entry::Occupied(_) => false,
            Entry::Vacant(slot) => {
                slot.insert(value);
                true
            }
        }
    }
}

impl<S: Hash + Eq> ShardedTable<FxHashSet<S>> {
    /// Adds `value`; whether it was absent.
    pub fn insert(&self, value: S) -> bool {
        self.write(self.shard_index(&value)).insert(value)
    }

    /// Whether `value` is present.
    pub fn contains(&self, value: &S) -> bool {
        self.read(self.shard_index(value)).contains(value)
    }

    /// Moves every element into `out`, leaving the table empty.
    pub fn drain_into(&self, out: &mut Vec<S>) {
        for i in 0..SHARDS {
            out.extend(self.write(i).drain());
        }
    }
}
