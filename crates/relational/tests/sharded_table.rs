//! The search's one sharded table under concurrent use: one handle per
//! interned value, exact metering, one winner per `insert_new` key, and
//! shards that stay usable after a writer panics.

use ddws_relational::hash::{FxHashMap, FxHashSet, ShardedTable, SHARDS};
use ddws_relational::Interner;
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

const THREADS: u64 = 4;
const PER_THREAD: u64 = 2_000;
/// Thread `t` interns `t * STRIDE .. t * STRIDE + PER_THREAD`, so
/// neighbouring threads share three quarters of their values.
const STRIDE: u64 = 500;

#[test]
fn concurrent_interning_gives_one_handle_per_value() {
    let interner: Interner<u64> = Interner::new();
    let seen: Vec<Vec<(u64, u32)>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let interner = &interner;
                scope.spawn(move || {
                    (t * STRIDE..t * STRIDE + PER_THREAD)
                        .map(|v| (v, interner.intern(v)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("interning thread"))
            .collect()
    });

    let table = ShardedTable::<()>::default();
    let mut handles: HashMap<u64, u32> = HashMap::new();
    for &(value, id) in seen.iter().flatten() {
        assert_eq!(
            *handles.entry(value).or_insert(id),
            id,
            "value {value} got two handles"
        );
        assert_eq!(
            id as usize % SHARDS,
            table.shard_index(&value),
            "handle {id:#x} of {value} names the wrong shard"
        );
        assert_eq!(*interner.resolve(id), value);
    }
    let distinct = (THREADS - 1) * STRIDE + PER_THREAD;
    assert_eq!(handles.len() as u64, distinct);
    let mut ids: Vec<u32> = handles.values().copied().collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len() as u64, distinct, "distinct values share a handle");
    assert_eq!(interner.len() as u64, distinct);
    assert_eq!(interner.hits() + interner.misses(), THREADS * PER_THREAD);
    assert_eq!(interner.misses(), distinct);
}

#[test]
fn insert_new_admits_each_key_once_across_threads() {
    const KEYS: usize = 1_000;
    let table: ShardedTable<FxHashMap<usize, u64>> = ShardedTable::default();
    let wins: Vec<AtomicUsize> = (0..KEYS).map(|_| AtomicUsize::new(0)).collect();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (table, wins) = (&table, &wins);
            scope.spawn(move || {
                for (key, win) in wins.iter().enumerate() {
                    if table.insert_new(key, t) {
                        win.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    for (key, w) in wins.iter().enumerate() {
        assert_eq!(w.load(Ordering::Relaxed), 1, "key {key}");
        assert!(table.get(&key).is_some_and(|t| t < THREADS));
    }
}

#[test]
fn a_shard_stays_usable_after_a_writer_panics() {
    let table: ShardedTable<FxHashMap<u32, u32>> = ShardedTable::default();
    assert!(table.insert_new(7, 70));
    let shard = table.shard_index(&7u32);
    let neighbour = (0u32..)
        .find(|k| *k != 7 && table.shard_index(k) == shard)
        .expect("a second key in the shard");
    let crashed = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let _guard = table.write(shard);
                panic!("writer dies holding the shard");
            })
            .join()
    });
    assert!(crashed.is_err());
    assert_eq!(table.get(&7), Some(70));
    assert!(table.insert_new(neighbour, 1));
    assert!(!table.insert_new(neighbour, 2));
    assert_eq!(table.get(&neighbour), Some(1));

    // The same holds for a set and for an interner's shard.
    let set: ShardedTable<FxHashSet<u32>> = ShardedTable::default();
    let shard = set.shard_index(&7u32);
    let _ = panic::catch_unwind(AssertUnwindSafe(|| {
        let _guard = set.write(shard);
        panic!("writer dies holding the shard");
    }));
    assert!(set.insert(7));
    assert!(set.contains(&7));
    let mut drained = Vec::new();
    set.drain_into(&mut drained);
    assert_eq!(drained, vec![7]);
    assert!(!set.contains(&7));
}
