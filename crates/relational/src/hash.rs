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
//! hashbrown and the interner's shard choice read them.
//!
//! Tables keyed by client-chosen names (symbols, relation and variable
//! names) keep `RandomState`; see DESIGN.md §3.12.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};

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

/// The shard of `value` in a table split into `shards` [`FxHashMap`]s
/// (`shards` a power of two, at most 64). It reads hash bits 20–25: the
/// shard's own table indexes buckets by the low bits and tags them with
/// the top 7, so a shard taken from either would leave every key of a
/// shard with the same bucket bits or the same tag bits.
#[inline]
pub fn shard_of<T: Hash + ?Sized>(value: &T, shards: usize) -> usize {
    debug_assert!(shards.is_power_of_two() && shards <= 64);
    (fx_hash(value) >> 20) as usize & (shards - 1)
}
