//! Canonical finite relations.

use crate::tuple::Tuple;
use crate::value::{Symbols, Value};
use std::collections::BTreeSet;
use std::fmt;

/// A finite relation: a canonical set of same-arity tuples.
///
/// The `BTreeSet` representation guarantees that two relations with the same
/// extension are structurally identical, which makes configurations (which
/// embed many relations) hashable and comparable — the visited-set of the
/// model checker depends on this.
///
/// Arity is not stored here; it is a property of the declaring
/// [`Vocabulary`](crate::Vocabulary) entry, and [`Instance`](crate::Instance)
/// enforces it on insertion.
#[derive(Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Relation(BTreeSet<Tuple>);

impl Relation {
    /// The empty relation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a relation from tuples (duplicates collapse).
    pub fn from_tuples(tuples: impl IntoIterator<Item = Tuple>) -> Self {
        Relation(tuples.into_iter().collect())
    }

    /// A singleton relation.
    pub fn singleton(t: Tuple) -> Self {
        let mut s = BTreeSet::new();
        s.insert(t);
        Relation(s)
    }

    /// Inserts a tuple; returns `true` if it was new.
    pub fn insert(&mut self, t: Tuple) -> bool {
        self.0.insert(t)
    }

    /// Removes a tuple; returns `true` if it was present.
    pub fn remove(&mut self, t: &Tuple) -> bool {
        self.0.remove(t)
    }

    /// Membership test.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.0.contains(t)
    }

    /// Membership test on a borrowed slice — the evaluator's hot path,
    /// avoiding a `Tuple` allocation per atom lookup. Sound because
    /// `Tuple`'s derived `Ord` is the lexicographic slice order.
    pub fn contains_slice(&self, t: &[Value]) -> bool {
        self.0.contains(t)
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterates tuples in canonical (lexicographic) order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.0.iter()
    }

    /// The single tuple of a singleton relation, if it is one.
    pub fn the_tuple(&self) -> Option<&Tuple> {
        if self.0.len() == 1 {
            self.0.iter().next()
        } else {
            None
        }
    }

    /// Set union.
    pub fn union(&self, other: &Relation) -> Relation {
        Relation(self.0.union(&other.0).cloned().collect())
    }

    /// Set difference `self \ other`.
    pub fn difference(&self, other: &Relation) -> Relation {
        Relation(self.0.difference(&other.0).cloned().collect())
    }

    /// Set intersection.
    pub fn intersection(&self, other: &Relation) -> Relation {
        Relation(self.0.intersection(&other.0).cloned().collect())
    }

    /// Adds every value occurring in the relation to `dom`.
    pub fn collect_domain(&self, dom: &mut BTreeSet<Value>) {
        for t in &self.0 {
            dom.extend(t.values().iter().copied());
        }
    }

    /// Renders the relation with external names, e.g. `{(a, b), (c, d)}`.
    pub fn display<'a>(&'a self, symbols: &'a Symbols) -> impl fmt::Display + 'a {
        DisplayRelation { rel: self, symbols }
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.0.iter()).finish()
    }
}

impl FromIterator<Tuple> for Relation {
    fn from_iter<T: IntoIterator<Item = Tuple>>(iter: T) -> Self {
        Relation(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a Relation {
    type Item = &'a Tuple;
    type IntoIter = std::collections::btree_set::Iter<'a, Tuple>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

struct DisplayRelation<'a> {
    rel: &'a Relation,
    symbols: &'a Symbols,
}

impl fmt::Display for DisplayRelation<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, t) in self.rel.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", t.display(self.symbols))?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(vals: &[u32]) -> Tuple {
        vals.iter().map(|&v| Value(v)).collect()
    }

    #[test]
    fn duplicates_collapse() {
        let r = Relation::from_tuples(vec![t(&[1, 2]), t(&[1, 2]), t(&[3, 4])]);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn canonical_equality_ignores_insertion_order() {
        let a = Relation::from_tuples(vec![t(&[1]), t(&[2]), t(&[3])]);
        let b = Relation::from_tuples(vec![t(&[3]), t(&[1]), t(&[2])]);
        assert_eq!(a, b);
        assert_eq!(crate::hash::fx_hash(&a), crate::hash::fx_hash(&b));
    }

    #[test]
    fn set_operations() {
        let a = Relation::from_tuples(vec![t(&[1]), t(&[2])]);
        let b = Relation::from_tuples(vec![t(&[2]), t(&[3])]);
        assert_eq!(a.union(&b).len(), 3);
        assert_eq!(a.intersection(&b).len(), 1);
        assert_eq!(a.difference(&b), Relation::singleton(t(&[1])));
    }

    #[test]
    fn the_tuple_only_for_singletons() {
        assert!(Relation::new().the_tuple().is_none());
        assert_eq!(Relation::singleton(t(&[7])).the_tuple(), Some(&t(&[7])));
        let two = Relation::from_tuples(vec![t(&[1]), t(&[2])]);
        assert!(two.the_tuple().is_none());
    }

    #[test]
    fn collect_domain_gathers_all_values() {
        let r = Relation::from_tuples(vec![t(&[1, 5]), t(&[2, 5])]);
        let mut dom = BTreeSet::new();
        r.collect_domain(&mut dom);
        assert_eq!(
            dom.into_iter().collect::<Vec<_>>(),
            vec![Value(1), Value(2), Value(5)]
        );
    }
}
