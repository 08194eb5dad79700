//! The lazy database oracle.
//!
//! Verification quantifies existentially over all databases with active
//! domain inside the verification domain. Instead of enumerating them, the
//! search keeps, per state, a *partial* database — a bitset over the finite
//! universe of candidate facts — and decides a fact the first time rule or
//! property evaluation touches it, forking the search on true/false. Facts
//! only accumulate along a path, so (i) the database stays consistent
//! within a run, and (ii) fork edges can never lie on a cycle, which keeps
//! Büchi acceptance sound.

use ddws_model::Database;
use ddws_relational::hash::FxHashMap;
use ddws_relational::{Instance, RelId, Tuple, Value, Vocabulary};
use std::cell::Cell;

/// The finite universe of database facts over the verification domain.
#[derive(Clone, Debug, Default)]
pub struct FactUniverse {
    facts: Vec<(RelId, Tuple)>,
    index: FxHashMap<(RelId, Tuple), usize>,
}

impl FactUniverse {
    /// Builds the universe: every tuple over `domain` for every relation in
    /// `db_rels`.
    pub fn new(voc: &Vocabulary, db_rels: &[RelId], domain: &[Value]) -> Self {
        let mut u = FactUniverse::default();
        for &rel in db_rels {
            let arity = voc.arity(rel);
            let mut tuple = vec![0usize; arity];
            loop {
                let t: Tuple = tuple.iter().map(|&i| domain[i]).collect();
                let idx = u.facts.len();
                u.index.insert((rel, t.clone()), idx);
                u.facts.push((rel, t));
                // Odometer over domain indices.
                let mut i = 0;
                loop {
                    if i == arity {
                        break;
                    }
                    tuple[i] += 1;
                    if tuple[i] < domain.len() {
                        break;
                    }
                    tuple[i] = 0;
                    i += 1;
                }
                if arity == 0 || i == arity {
                    break;
                }
            }
        }
        u
    }

    /// Number of candidate facts.
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// Whether the universe is empty (fixed-database verification).
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }

    /// Index of a fact, if it belongs to the universe.
    pub fn fact_index(&self, rel: RelId, tuple: &[Value]) -> Option<usize> {
        // Avoid the Tuple allocation on the hot path when the universe is
        // empty (fixed database).
        if self.facts.is_empty() {
            return None;
        }
        self.index.get(&(rel, Tuple::from(tuple))).copied()
    }

    /// The fact at `idx`.
    pub fn fact(&self, idx: usize) -> &(RelId, Tuple) {
        &self.facts[idx]
    }
}

/// A partial database: which facts are decided, and their values.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Oracle {
    decided: Box<[u64]>,
    values: Box<[u64]>,
}

impl Oracle {
    /// The fully undecided oracle for a universe of `n` facts.
    pub fn undecided(n: usize) -> Self {
        let words = n.div_ceil(64);
        Oracle {
            decided: vec![0; words].into_boxed_slice(),
            values: vec![0; words].into_boxed_slice(),
        }
    }

    /// Whether fact `i` is decided.
    pub fn is_decided(&self, i: usize) -> bool {
        self.decided[i / 64] >> (i % 64) & 1 == 1
    }

    /// The value of fact `i` (meaningful only when decided).
    pub fn value(&self, i: usize) -> bool {
        self.values[i / 64] >> (i % 64) & 1 == 1
    }

    /// A copy of this oracle with fact `i` decided to `v`.
    pub fn with_decided(&self, i: usize, v: bool) -> Oracle {
        let mut o = self.clone();
        o.decided[i / 64] |= 1 << (i % 64);
        if v {
            o.values[i / 64] |= 1 << (i % 64);
        }
        o
    }

    /// Number of decided facts.
    pub fn decided_count(&self) -> u32 {
        self.decided.iter().map(|w| w.count_ones()).sum()
    }

    /// Materializes the decided-true facts as a database [`Instance`]
    /// (undecided facts default to false — any run consistent with the
    /// oracle is a run over this database).
    pub fn materialize(&self, voc: &Vocabulary, universe: &FactUniverse) -> Instance {
        let mut inst = Instance::empty(voc);
        for i in 0..universe.len() {
            if self.is_decided(i) && self.value(i) {
                let (rel, tuple) = universe.fact(i);
                inst.relation_mut(*rel).insert(tuple.clone());
            }
        }
        inst
    }
}

/// A [`Database`] view that answers decided facts from the oracle, fixed
/// facts from the base instance, and *records* the first undecided fact it
/// is asked about (returning `false` for it — the caller discards the
/// result and forks on the recorded fact).
pub struct RecordingDb<'a> {
    /// Facts outside the universe (fixed part of the database).
    pub base: &'a Instance,
    /// The candidate-fact universe.
    pub universe: &'a FactUniverse,
    /// The current partial database.
    pub oracle: &'a Oracle,
    /// First undecided fact touched during evaluation, if any.
    pub hit: Cell<Option<usize>>,
}

impl<'a> RecordingDb<'a> {
    /// Builds the view with no recorded hit.
    pub fn new(base: &'a Instance, universe: &'a FactUniverse, oracle: &'a Oracle) -> Self {
        RecordingDb {
            base,
            universe,
            oracle,
            hit: Cell::new(None),
        }
    }

    /// The recorded undecided fact, if evaluation touched one.
    pub fn undecided_hit(&self) -> Option<usize> {
        self.hit.get()
    }
}

impl Database for RecordingDb<'_> {
    fn db_contains(&self, rel: RelId, tuple: &[Value]) -> bool {
        match self.universe.fact_index(rel, tuple) {
            Some(i) => {
                if self.oracle.is_decided(i) {
                    self.oracle.value(i)
                } else {
                    if self.hit.get().is_none() {
                        self.hit.set(Some(i));
                    }
                    false
                }
            }
            None => self.base.db_contains(rel, tuple),
        }
    }

    fn db_scan(&self, rel: RelId) -> Option<Vec<Vec<Value>>> {
        if self.universe.is_empty() {
            // Fixed-database verification: the base instance is complete.
            self.base.db_scan(rel)
        } else {
            // Lazily decided facts cannot be enumerated.
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Vocabulary, FactUniverse) {
        let mut voc = Vocabulary::new();
        let r = voc.declare("r", 2).unwrap();
        let p = voc.declare("p", 0).unwrap();
        let universe = FactUniverse::new(&voc, &[r, p], &[Value(0), Value(1)]);
        (voc, universe)
    }

    #[test]
    fn universe_enumerates_all_tuples() {
        let (_, u) = setup();
        // r: 2^2 = 4 facts, p: 1 fact.
        assert_eq!(u.len(), 5);
        assert!(u.fact_index(RelId(0), &[Value(1), Value(0)]).is_some());
        assert!(u.fact_index(RelId(1), &[]).is_some());
        assert!(u.fact_index(RelId(0), &[Value(2), Value(0)]).is_none());
    }

    #[test]
    fn oracle_decide_and_materialize() {
        let (voc, u) = setup();
        let o = Oracle::undecided(u.len());
        assert_eq!(o.decided_count(), 0);
        let i = u.fact_index(RelId(0), &[Value(0), Value(1)]).unwrap();
        let o2 = o.with_decided(i, true);
        assert!(o2.is_decided(i));
        assert!(o2.value(i));
        assert_eq!(o2.decided_count(), 1);
        let o3 = o2.with_decided(u.fact_index(RelId(1), &[]).unwrap(), false);
        let inst = o3.materialize(&voc, &u);
        assert_eq!(inst.relation(RelId(0)).len(), 1);
        assert!(!inst.holds(RelId(1)));
    }

    #[test]
    fn recording_db_reports_first_undecided() {
        let (voc, u) = setup();
        let base = Instance::empty(&voc);
        let i = u.fact_index(RelId(0), &[Value(0), Value(0)]).unwrap();
        let oracle = Oracle::undecided(u.len()).with_decided(i, true);
        let db = RecordingDb::new(&base, &u, &oracle);
        // Decided fact: answered, no hit.
        assert!(db.db_contains(RelId(0), &[Value(0), Value(0)]));
        assert!(db.undecided_hit().is_none());
        // Undecided fact: recorded, answered false.
        assert!(!db.db_contains(RelId(0), &[Value(1), Value(1)]));
        let hit = db.undecided_hit().unwrap();
        assert_eq!(u.fact(hit).0, RelId(0));
        // Only the first hit is kept.
        assert!(!db.db_contains(RelId(1), &[]));
        assert_eq!(db.undecided_hit(), Some(hit));
    }

    #[test]
    fn oracle_equality_is_structural() {
        let (_, u) = setup();
        let a = Oracle::undecided(u.len())
            .with_decided(0, true)
            .with_decided(1, false);
        let b = Oracle::undecided(u.len())
            .with_decided(1, false)
            .with_decided(0, true);
        assert_eq!(a, b);
    }
}
