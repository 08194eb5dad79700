//! Canonical forms of configurations under value symmetries.
//!
//! A *class* is a set of domain values that nothing in a verification run
//! can tell apart: no rule, channel or property names them, and every
//! transposition of two of them maps the fixed database onto itself. The
//! symmetric group of each class then leaves the transition relation and
//! every snapshot letter invariant (Emerson–Sistla), so the search may
//! replace each configuration by one representative of its orbit.
//!
//! The representative is chosen from the configuration's *content* alone —
//! its values, tuples and queue order — never from intern-handle
//! numbering, so both state representations ([`Config`] and
//! [`CompactConfig`](crate::CompactConfig)) pick the same one: each
//! extracts the same [`Part`] list, [`choose`] turns it into a
//! [`ValuePerm`], and each applies that permutation in its own encoding.
//!
//! [`choose`] computes an exact canonical form (the lexicographically
//! least image over the permutations consistent with a refinement
//! signature) whenever the undecided ties are small, and falls back to
//! the signature order beyond [`BRUTE_FORCE_CAP`]. Both are deterministic
//! functions of the content that stay inside the orbit, which is all the
//! search's soundness needs; exactness only buys a smaller quotient.

use crate::config::{Config, Message};
use ddws_relational::{Instance, Relation, Tuple, Value};

/// Marks "no class member" in the per-value member index.
const NONE: u32 = u32::MAX;

/// The most orderings of undecided tie cells the exact canonical form
/// enumerates; beyond it the signature order stands.
pub const BRUTE_FORCE_CAP: usize = 720;

/// The interchangeable-value classes of one run; only classes of two or
/// more values are kept.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ValueClasses {
    /// Each class sorted ascending.
    classes: Vec<Vec<Value>>,
    /// Per value index: its position in the concatenation of `classes`,
    /// or [`NONE`].
    member: Vec<u32>,
}

impl ValueClasses {
    /// Builds the classes from explicit value sets. Singletons and empty
    /// sets are dropped; each class is sorted. The sets must be disjoint.
    pub fn new(classes: Vec<Vec<Value>>) -> ValueClasses {
        let mut classes: Vec<Vec<Value>> = classes
            .into_iter()
            .map(|mut c| {
                c.sort_unstable();
                c.dedup();
                c
            })
            .filter(|c| c.len() >= 2)
            .collect();
        classes.sort();
        let cap = classes
            .iter()
            .flatten()
            .map(|v| v.index() + 1)
            .max()
            .unwrap_or(0);
        let mut member = vec![NONE; cap];
        for (i, v) in classes.iter().flatten().enumerate() {
            assert_eq!(member[v.index()], NONE, "value classes must be disjoint");
            member[v.index()] = i as u32;
        }
        ValueClasses { classes, member }
    }

    /// Partitions `candidates` into the classes of values whose pairwise
    /// transpositions map every relation of `db` onto itself.
    ///
    /// Transposition-interchangeability is transitive (`(a c) = (a b)(b c)
    /// (a b)`), so comparing each candidate against one member of every
    /// class found so far is enough.
    pub fn from_database(
        db: &Instance,
        candidates: impl IntoIterator<Item = Value>,
    ) -> ValueClasses {
        let mut classes: Vec<Vec<Value>> = Vec::new();
        for v in candidates {
            match classes
                .iter_mut()
                .find(|c| swap_fixes_instance(db, c[0], v))
            {
                Some(class) => class.push(v),
                None => classes.push(vec![v]),
            }
        }
        ValueClasses::new(classes)
    }

    /// Whether no class has two or more values (the search then runs
    /// unreduced).
    pub fn is_trivial(&self) -> bool {
        self.classes.is_empty()
    }

    /// The classes, each sorted ascending.
    pub fn classes(&self) -> &[Vec<Value>] {
        &self.classes
    }

    /// Whether `v` belongs to some class.
    pub fn contains(&self, v: Value) -> bool {
        self.member_of(v).is_some()
    }

    fn member_of(&self, v: Value) -> Option<usize> {
        match self.member.get(v.index()) {
            Some(&m) if m != NONE => Some(m as usize),
            _ => None,
        }
    }

    fn member_count(&self) -> usize {
        self.classes.iter().map(Vec::len).sum()
    }
}

/// Whether swapping `a` and `b` maps every relation of `db` onto itself.
fn swap_fixes_instance(db: &Instance, a: Value, b: Value) -> bool {
    let swap = |x: Value| match x {
        x if x == a => b,
        x if x == b => a,
        x => x,
    };
    let mut image = Vec::new();
    db.relations().all(|rel| {
        rel.iter().all(|t| {
            if !t.values().iter().any(|&x| x == a || x == b) {
                return true;
            }
            image.clear();
            image.extend(t.values().iter().map(|&x| swap(x)));
            rel.contains_slice(&image)
        })
    })
}

/// A permutation of domain values; values beyond its table are fixed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ValuePerm {
    image: Vec<Value>,
}

impl ValuePerm {
    /// The identity permutation.
    pub fn identity() -> ValuePerm {
        ValuePerm::default()
    }

    /// The permutation sending each pair's first value to its second;
    /// values no pair names are fixed. The first and the second values
    /// must form the same set.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (Value, Value)>) -> ValuePerm {
        let mut p = ValuePerm::identity();
        for (from, to) in pairs {
            p.set(from, to);
        }
        p
    }

    fn set(&mut self, from: Value, to: Value) {
        let need = from.index().max(to.index()) + 1;
        if self.image.len() < need {
            let start = self.image.len() as u32;
            self.image.extend((start..need as u32).map(Value));
        }
        self.image[from.index()] = to;
    }

    /// The image of `v`.
    pub fn apply(&self, v: Value) -> Value {
        self.image.get(v.index()).copied().unwrap_or(v)
    }

    /// Whether every value is fixed.
    pub fn is_identity(&self) -> bool {
        self.image.iter().enumerate().all(|(i, v)| v.index() == i)
    }

    /// The inverse permutation.
    pub fn inverse(&self) -> ValuePerm {
        let mut inv = ValuePerm::identity();
        for (i, &v) in self.image.iter().enumerate() {
            inv.set(v, Value(i as u32));
        }
        inv
    }

    /// `self` after `first`: `x ↦ self(first(x))`.
    pub fn after(&self, first: &ValuePerm) -> ValuePerm {
        let n = self.image.len().max(first.image.len());
        ValuePerm {
            image: (0..n as u32)
                .map(|i| self.apply(first.apply(Value(i))))
                .collect(),
        }
    }

    fn moves_any(&self, values: &[Value]) -> bool {
        values.iter().any(|&v| self.apply(v) != v)
    }

    fn tuple(&self, t: &Tuple) -> Tuple {
        t.values().iter().map(|&v| self.apply(v)).collect()
    }

    fn relation(&self, r: &Relation) -> Relation {
        r.iter().map(|t| self.tuple(t)).collect()
    }

    /// Renames every value of a flat row buffer, keeping the row order.
    fn values(&self, values: &[Value]) -> Vec<Value> {
        values.iter().map(|&v| self.apply(v)).collect()
    }
}

/// One keyed piece of configuration content: a vocabulary slot's
/// extension or one queued message, as sorted rows flattened into one
/// buffer. Only pieces holding a class value are extracted — the others
/// are fixed by every class permutation.
pub(crate) struct Part {
    /// Vocabulary slot index, or [`queue_key`] for a queued message.
    key: u32,
    arity: usize,
    rows: Vec<Value>,
}

/// The part key of queue position `pos` of `channel`.
pub(crate) fn queue_key(channel: usize, pos: usize) -> u32 {
    (1 << 31) | ((channel as u32) << 8) | pos as u32
}

impl Part {
    /// A part from sorted rows flattened into `rows`, or `None` when no
    /// value in them is a class member.
    pub(crate) fn new(
        classes: &ValueClasses,
        key: u32,
        arity: usize,
        rows: Vec<Value>,
    ) -> Option<Part> {
        rows.iter()
            .any(|&v| classes.contains(v))
            .then_some(Part { key, arity, rows })
    }

    pub(crate) fn arity(&self) -> usize {
        self.arity
    }

    /// The rows renamed by `perm`, flattened in their old order (no
    /// longer sorted).
    pub(crate) fn renamed(&self, perm: &ValuePerm) -> Vec<Value> {
        perm.values(&self.rows)
    }

    fn row_count(&self) -> usize {
        self.rows.len() / self.arity
    }

    fn row(&self, i: usize) -> &[Value] {
        &self.rows[i * self.arity..(i + 1) * self.arity]
    }

    /// The part's rows under `image` (a per-member target table), sorted.
    fn image(&self, classes: &ValueClasses, image: &[Value]) -> Vec<Value> {
        let map = |v: Value| classes.member_of(v).map_or(v, |m| image[m]);
        let mapped: Vec<Value> = self.rows.iter().map(|&v| map(v)).collect();
        let a = self.arity;
        let mut order: Vec<usize> = (0..self.row_count()).collect();
        order
            .sort_unstable_by(|&i, &j| mapped[i * a..(i + 1) * a].cmp(&mapped[j * a..(j + 1) * a]));
        order
            .into_iter()
            .flat_map(|i| mapped[i * a..(i + 1) * a].iter().copied())
            .collect()
    }

    /// Whether the (sorted) rows include `row`.
    fn contains_row(&self, row: &[Value]) -> bool {
        let (mut lo, mut hi) = (0, self.row_count());
        while lo < hi {
            let mid = (lo + hi) / 2;
            match self.row(mid).cmp(row) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }

    /// Whether swapping `x` and `y` maps the part onto itself.
    fn swap_fixed(&self, x: Value, y: Value) -> bool {
        let mut swapped = Vec::with_capacity(self.arity);
        self.rows.chunks(self.arity).all(|row| {
            if !row.iter().any(|&v| v == x || v == y) {
                return true;
            }
            swapped.clear();
            swapped.extend(row.iter().map(|&v| match v {
                v if v == x => y,
                v if v == y => x,
                v => v,
            }));
            self.contains_row(&swapped)
        })
    }
}

/// A tie cell: positions `start..end` of one class's signature order.
struct Cell {
    start: usize,
    end: usize,
}

/// Chooses the canonicalizing permutation for a configuration whose
/// class-bearing content is `parts` (in key order).
///
/// 1. Every class value gets a refinement signature: the multiset of
///    `(part key, column)` positions it occurs at. Signatures are
///    invariant under class permutations, so sorting each class by
///    signature and mapping the i-th value onto the class's i-th smallest
///    value is canonical up to the order inside tie cells (runs of equal
///    signature).
/// 2. A tie cell whose adjacent transpositions all fix the content needs
///    no decision: every order of it yields the same image.
/// 3. The remaining cells are brute-forced, keeping the lexicographically
///    least image, while the number of orderings stays within
///    [`BRUTE_FORCE_CAP`]; beyond it the value order breaks the ties.
pub(crate) fn choose(classes: &ValueClasses, parts: &[Part]) -> ValuePerm {
    if parts.is_empty() {
        return ValuePerm::identity();
    }
    // Every (member, position) occurrence, sorted: each member's
    // signature is then one contiguous run.
    let mut occurrences: Vec<(usize, u64)> = Vec::new();
    for part in parts {
        for (i, &v) in part.rows.iter().enumerate() {
            if let Some(m) = classes.member_of(v) {
                occurrences.push((m, u64::from(part.key) << 16 | (i % part.arity) as u64));
            }
        }
    }
    occurrences.sort_unstable();
    let positions: Vec<u64> = occurrences.iter().map(|&(_, p)| p).collect();
    let mut runs = vec![0..0; classes.member_count()];
    let mut start = 0;
    for (i, &(m, _)) in occurrences.iter().enumerate() {
        if i + 1 == occurrences.len() || occurrences[i + 1].0 != m {
            runs[m] = start..i + 1;
            start = i + 1;
        }
    }
    let sigs: Vec<&[u64]> = runs.into_iter().map(|r| &positions[r]).collect();

    // Per class: members in signature order, and the tie cells of it.
    let mut order: Vec<Value> = Vec::with_capacity(sigs.len());
    let mut open: Vec<Cell> = Vec::new();
    for class in classes.classes() {
        let base = order.len();
        let sig = |v: &Value| sigs[classes.member_of(*v).expect("class member")];
        let mut sorted = class.clone();
        sorted.sort_by(|a, b| sig(a).cmp(sig(b)).then(a.cmp(b)));
        let mut start = 0;
        while start < sorted.len() {
            let mut end = start + 1;
            while end < sorted.len() && sig(&sorted[end]) == sig(&sorted[start]) {
                end += 1;
            }
            let fixed = sorted[start..end]
                .windows(2)
                .all(|w| parts.iter().all(|p| p.swap_fixed(w[0], w[1])));
            if !fixed {
                open.push(Cell {
                    start: base + start,
                    end: base + end,
                });
            }
            start = end;
        }
        order.extend(sorted);
    }

    // `targets[i]` is where `order[i]` goes: the classes' sorted values.
    let targets: Vec<Value> = classes.classes().iter().flatten().copied().collect();
    let mut best_order = order.clone();
    let orderings = open.iter().try_fold(1usize, |acc, c| {
        (1..=c.end - c.start).try_fold(acc, |n, k| n.checked_mul(k))
    });
    if !open.is_empty() && orderings.is_some_and(|n| n <= BRUTE_FORCE_CAP) {
        let image_of = |order: &[Value]| -> Vec<Vec<Value>> {
            let mut image = vec![Value(0); order.len()];
            for (v, t) in order.iter().zip(&targets) {
                image[classes.member_of(*v).expect("class member")] = *t;
            }
            parts.iter().map(|p| p.image(classes, &image)).collect()
        };
        let mut best = image_of(&order);
        let mut current = order.clone();
        // Odometer over the open cells' permutations (lexicographic
        // next-permutation per cell, starting from each cell's sorted
        // order).
        for c in &open {
            current[c.start..c.end].sort_unstable();
        }
        loop {
            let candidate = image_of(&current);
            if candidate < best {
                best = candidate;
                best_order.clone_from(&current);
            }
            let mut advanced = false;
            for c in &open {
                if next_permutation(&mut current[c.start..c.end]) {
                    advanced = true;
                    break;
                }
                // Wrapped around: the cell is sorted again; carry.
            }
            if !advanced {
                break;
            }
        }
    }
    ValuePerm::from_pairs(best_order.into_iter().zip(targets))
}

/// Advances `xs` to its next lexicographic permutation; on the last one,
/// resets it to sorted order and returns `false`.
fn next_permutation(xs: &mut [Value]) -> bool {
    let Some(i) = (1..xs.len()).rev().find(|&i| xs[i - 1] < xs[i]) else {
        xs.reverse();
        return false;
    };
    let j = (i..xs.len())
        .rev()
        .find(|&j| xs[j] > xs[i - 1])
        .expect("a successor exists right of the pivot");
    xs.swap(i - 1, j);
    xs[i..].reverse();
    true
}

/// A relation's rows, in order, flattened into one buffer.
fn flat(r: &Relation) -> Vec<Value> {
    r.iter().flat_map(|t| t.values().iter().copied()).collect()
}

impl Config {
    /// The class-bearing content of this configuration, in key order.
    fn parts(&self, classes: &ValueClasses) -> Vec<Part> {
        let mut parts: Vec<Part> = self
            .rel
            .relations()
            .enumerate()
            .filter_map(|(slot, r)| {
                let arity = r.iter().next()?.arity();
                Part::new(classes, slot as u32, arity, flat(r))
            })
            .collect();
        for (c, q) in self.queues.iter().enumerate() {
            for (pos, msg) in q.iter().enumerate() {
                let key = queue_key(c, pos);
                let part = match msg {
                    Message::Flat(t) => Part::new(classes, key, t.arity(), t.values().to_vec()),
                    Message::Nested(r) => r
                        .iter()
                        .next()
                        .and_then(|t| Part::new(classes, key, t.arity(), flat(r))),
                };
                parts.extend(part);
            }
        }
        parts
    }

    /// The orbit representative of this configuration under `classes`,
    /// with the permutation that maps `self` onto it.
    pub fn canonical(&self, classes: &ValueClasses) -> (Config, ValuePerm) {
        let perm = choose(classes, &self.parts(classes));
        (self.permuted(&perm), perm)
    }

    /// This configuration with every value renamed by `perm`.
    pub fn permuted(&self, perm: &ValuePerm) -> Config {
        if perm.is_identity() {
            return self.clone();
        }
        let mut out = self.clone();
        let slots: Vec<Relation> = self.rel.relations().cloned().collect();
        for (slot, r) in slots.iter().enumerate() {
            if r.iter().any(|t| perm.moves_any(t.values())) {
                out.rel
                    .set_relation(ddws_relational::RelId(slot as u32), perm.relation(r));
            }
        }
        for q in out.queues.iter_mut() {
            for msg in q.iter_mut() {
                *msg = match msg {
                    Message::Flat(t) => Message::Flat(perm.tuple(t)),
                    Message::Nested(r) => Message::Nested(perm.relation(r)),
                };
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals(ids: &[u32]) -> Vec<Value> {
        ids.iter().map(|&i| Value(i)).collect()
    }

    #[test]
    fn perm_algebra() {
        let p = ValuePerm::from_pairs([
            (Value(1), Value(2)),
            (Value(2), Value(3)),
            (Value(3), Value(1)),
        ]);
        assert_eq!(p.apply(Value(1)), Value(2));
        assert_eq!(p.apply(Value(7)), Value(7));
        let inv = p.inverse();
        assert!(inv.after(&p).is_identity());
        assert!(p.after(&inv).is_identity());
        assert!(!p.is_identity());
        assert!(ValuePerm::identity().is_identity());
    }

    #[test]
    fn next_permutation_cycles_through_all_orders() {
        let mut xs = vals(&[1, 2, 3]);
        let mut seen = vec![xs.clone()];
        while next_permutation(&mut xs) {
            seen.push(xs.clone());
        }
        assert_eq!(seen.len(), 6);
        assert_eq!(xs, vals(&[1, 2, 3]), "wraps back to sorted order");
    }

    #[test]
    fn classes_drop_singletons_and_split_on_the_database() {
        use ddws_relational::Vocabulary;
        let mut voc = Vocabulary::new();
        let d = voc.declare("d", 1).unwrap();
        let e = voc.declare("e", 2).unwrap();
        let mut db = Instance::empty(&voc);
        for v in [1, 2, 3] {
            db.relation_mut(d).insert(Tuple::new(vals(&[v])));
        }
        // e breaks the symmetry between 3 and {1, 2}.
        db.relation_mut(e).insert(Tuple::new(vals(&[3, 9])));
        let classes = ValueClasses::from_database(&db, vals(&[1, 2, 3, 4, 5]));
        assert_eq!(classes.classes(), &[vals(&[1, 2]), vals(&[4, 5])]);
        assert!(classes.contains(Value(4)) && !classes.contains(Value(3)));
    }

    #[test]
    fn open_ties_are_brute_forced_to_the_least_image() {
        // {(1, 3), (2, 4)} and its image under (1 2): the signatures tie
        // {1, 2} and {3, 4}, no transposition fixes the set, and both
        // orderings must land on the same representative.
        let classes = ValueClasses::new(vec![vals(&[1, 2, 3, 4])]);
        let part = |rows: &[[u32; 2]]| {
            let rows: Vec<u32> = rows.iter().flatten().copied().collect();
            Part::new(&classes, 0, 2, vals(&rows)).unwrap()
        };
        let a = part(&[[1, 3], [2, 4]]);
        let b = part(&[[1, 4], [2, 3]]);
        let (pa, pb) = (choose(&classes, &[a]), choose(&classes, &[b]));
        let image = |p: &ValuePerm, rows: &[[u32; 2]]| {
            let mut rows: Vec<Vec<Value>> = rows.iter().map(|r| p.values(&vals(r))).collect();
            rows.sort();
            rows
        };
        assert_eq!(image(&pa, &[[1, 3], [2, 4]]), image(&pb, &[[1, 4], [2, 3]]));
    }
}
