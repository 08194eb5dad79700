//! The search tables' hasher: fixed outputs, byte-slice separation and
//! spread over shards and buckets.

use ddws_relational::hash::{fx_hash, FxHasher, ShardedTable, SHARDS};
use std::hash::Hasher;

/// Interner handles carry their shard, and the shard is read off these
/// hashes: fixed values pin the handle layout across runs and platforms.
#[test]
fn golden_finish_values() {
    assert_eq!(fx_hash(&0u32), 0);
    assert_eq!(fx_hash(&1u32), 0xa8b9_8aa7_17c4_d5eb);
    assert_eq!(fx_hash(&0xdead_beefu32), 0xd060_f6d3_ac1a_89db);
    // Integers hash as one word whatever their width.
    assert_eq!(fx_hash(&1u64), fx_hash(&1u32));
    assert_eq!(fx_hash(&u64::MAX), 0x5746_7558_ec3b_2a14);
    assert_eq!(fx_hash(&(7u32, 3u8, 42u32)), 0xa219_d285_20ca_2f04);
    // A `[u64]` slice: its length, then its words, the empty tail word and
    // the byte length.
    assert_eq!(fx_hash(&[1u64, 2, 3][..]), 0x5a49_b4d8_84c9_64d1);
}

#[test]
fn byte_slices_of_different_lengths_hash_apart() {
    let write = |bytes: &[u8]| {
        let mut h = FxHasher::default();
        h.write(bytes);
        h.finish()
    };
    let (one, one_zero, empty) = (write(&[1]), write(&[1, 0]), write(&[]));
    assert_ne!(one, one_zero);
    assert_ne!(one, empty);
    assert_ne!(one_zero, empty);
}

/// Counts per bucket lie within 2× of uniform.
fn assert_spread(counts: &[usize], what: &str) {
    let total: usize = counts.iter().sum();
    let mean = total / counts.len();
    let (lo, hi) = (
        *counts.iter().min().expect("buckets"),
        *counts.iter().max().expect("buckets"),
    );
    assert!(
        2 * lo >= mean && hi <= 2 * mean,
        "{what}: bucket counts {lo}..={hi} for a mean of {mean}"
    );
}

#[test]
fn sequential_keys_spread_over_shards_and_buckets() {
    let keys = (0u32..65_536).map(|i| (i >> 8, i & 0xff));
    let table = ShardedTable::<()>::default();
    let mut shards = [0usize; SHARDS];
    let mut buckets = vec![0usize; 1 << 12];
    for key in keys {
        shards[table.shard_index(&key)] += 1;
        buckets[fx_hash(&key) as usize & 0xfff] += 1;
    }
    assert_spread(&shards, "16 shards");
    assert_spread(&buckets, "low 12 bits");
}
