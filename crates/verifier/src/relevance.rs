//! Static column-domain analysis and the vacuous-valuation fold
//! (DESIGN.md §3.13.1).
//!
//! Theorem 3.4's procedure searches one product per valuation of the
//! property's universal closure, and most valuations of a wide closure
//! bind a property atom to values no run can ever put in that relation.
//! [`ColumnDomains`] over-approximates, per column of every relation, the
//! values any reachable snapshot can hold there:
//!
//! * fixed-database relations take their exact column projections (⊤ when
//!   the run ranges over all databases);
//! * channel relations (`?q`/`!q`) take the union of their send-rule
//!   heads — ⊤ when the environment feeds the channel;
//! * state, action, input and previous-input relations take their insert,
//!   action or input rule heads (a `prev` chain inherits its input's);
//! * every other relation is ⊤.
//!
//! Rule bodies are evaluated abstractly into per-variable value bounds: a
//! positive atom bounds each of its variables by that column's set,
//! `x = c` bounds `x` by `{c}`, `∧` intersects, `∨` unions, `¬` and `∀`
//! (and `→`) bound nothing, and `∃` projects its variables away. The
//! analysis iterates the rules to a fixpoint. Every step over-approximates
//! the concrete semantics, so a tuple in any reachable snapshot lies in
//! the product of its relation's column sets.
//!
//! [`ColumnDomains::is_vacuous`] uses the sets to decide a valuation
//! before any search: it substitutes the valuation into the negated
//! property body, folds its FO leaves ([`ColumnDomains::fold_fo`]), grounds
//! the result and folds the propositional constants
//! ([`Ltl::fold_constants`]). A valuation whose negated property folds to
//! `false` has no violating run, so it holds without a search.

use crate::ground::{ground_ltlfo, AtomRegistry};
use ddws_automata::Ltl;
use ddws_logic::{Fo, LtlFo, Term, VarId};
use ddws_model::{Composition, Endpoint};
use ddws_relational::{Instance, RelId, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// An over-approximation of the values one column of a relation can hold.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ColumnSet {
    /// Any value of the verification domain (⊤).
    Any,
    /// Only these values.
    Values(BTreeSet<Value>),
}

impl ColumnSet {
    /// Whether `v` may appear in the column.
    pub fn contains(&self, v: Value) -> bool {
        match self {
            ColumnSet::Any => true,
            ColumnSet::Values(s) => s.contains(&v),
        }
    }

    /// Widens `self` to include `other`; returns whether it grew.
    fn join(&mut self, other: Option<&BTreeSet<Value>>) -> bool {
        match (&mut *self, other) {
            (ColumnSet::Any, _) => false,
            (_, None) => {
                *self = ColumnSet::Any;
                true
            }
            (ColumnSet::Values(s), Some(o)) => {
                let before = s.len();
                s.extend(o.iter().copied());
                s.len() != before
            }
        }
    }
}

/// Per-variable value bounds of a formula's satisfying assignments; a
/// variable without an entry is unbounded. `None` in place of a `Bounds`
/// means no assignment satisfies the formula in any reachable snapshot.
type Bounds = BTreeMap<VarId, BTreeSet<Value>>;

/// Bounds `x` by `set`; returns `false` when the bound becomes empty.
fn restrict(bounds: &mut Bounds, x: VarId, set: &BTreeSet<Value>) -> bool {
    let entry = bounds.entry(x).or_insert_with(|| set.clone());
    entry.retain(|v| set.contains(v));
    !entry.is_empty()
}

/// One rule feeding the analysis: head variables, body, and the relations
/// its results flow into.
struct Feed<'c> {
    head: &'c [VarId],
    body: &'c Fo,
    targets: Vec<RelId>,
}

/// The column-domain analysis of one composition under one database mode.
#[derive(Clone, Debug)]
pub struct ColumnDomains<'a> {
    /// Column sets, indexed by relation id, one per column.
    cols: Vec<Vec<ColumnSet>>,
    /// Which relations are database relations.
    is_db: Vec<bool>,
    /// The fixed database, when the run is over one.
    database: Option<&'a Instance>,
}

impl<'a> ColumnDomains<'a> {
    /// Runs the analysis. `database` is the fixed database the runs range
    /// over, or `None` when they range over all databases (database
    /// relations are then ⊤).
    pub fn analyze(comp: &Composition, database: Option<&'a Instance>) -> ColumnDomains<'a> {
        let n = comp.voc.len();
        let empty = |rel: RelId| vec![ColumnSet::Values(BTreeSet::new()); comp.voc.arity(rel)];
        let mut cols: Vec<Vec<ColumnSet>> = comp
            .voc
            .iter()
            .map(|(rel, _)| vec![ColumnSet::Any; comp.voc.arity(rel)])
            .collect();
        let mut is_db = vec![false; n];
        let mut feeds: Vec<Feed<'_>> = Vec::new();

        for peer in &comp.peers {
            for &rel in &peer.database {
                is_db[rel.index()] = true;
                if let Some(db) = database {
                    let mut projected = empty(rel);
                    for t in db.relation(rel).iter() {
                        for (col, v) in projected.iter_mut().zip(t.values()) {
                            if let ColumnSet::Values(s) = col {
                                s.insert(*v);
                            }
                        }
                    }
                    cols[rel.index()] = projected;
                }
            }
            let fed = peer
                .states
                .iter()
                .chain(&peer.inputs)
                .chain(&peer.actions)
                .chain(peer.prev.iter().flatten());
            for &rel in fed {
                cols[rel.index()] = empty(rel);
            }
            for sr in &peer.state_rules {
                if let Some(body) = &sr.insert {
                    feeds.push(Feed {
                        head: &sr.head,
                        body,
                        targets: vec![sr.rel],
                    });
                }
            }
            for ar in &peer.action_rules {
                feeds.push(Feed {
                    head: &ar.head,
                    body: &ar.body,
                    targets: vec![ar.rel],
                });
            }
            for ir in &peer.input_rules {
                // An input's previous-input chain only ever holds earlier
                // values of the input itself.
                let mut targets = vec![ir.rel];
                if let Some(i) = peer.inputs.iter().position(|&r| r == ir.rel) {
                    targets.extend(peer.prev.get(i).into_iter().flatten().copied());
                }
                feeds.push(Feed {
                    head: &ir.head,
                    body: &ir.body,
                    targets,
                });
            }
            for (cid, rule) in &peer.send_rules {
                let ch = &comp.channels[cid.index()];
                feeds.push(Feed {
                    head: &rule.head,
                    body: &rule.body,
                    targets: std::iter::once(ch.out_rel).chain(ch.in_rel).collect(),
                });
            }
        }
        // Peer-fed channel contents start empty; environment-fed ones
        // keep ⊤.
        for ch in &comp.channels {
            if matches!(ch.sender, Endpoint::Peer(_)) {
                for rel in std::iter::once(ch.out_rel).chain(ch.in_rel) {
                    cols[rel.index()] = empty(rel);
                }
            }
        }

        let mut domains = ColumnDomains {
            cols,
            is_db,
            database,
        };
        loop {
            let mut changed = false;
            for feed in &feeds {
                let Some(bounds) = domains.bounds(feed.body) else {
                    continue;
                };
                for &rel in &feed.targets {
                    for (col, var) in domains.cols[rel.index()].iter_mut().zip(feed.head) {
                        changed |= col.join(bounds.get(var));
                    }
                }
            }
            if !changed {
                return domains;
            }
        }
    }

    /// The over-approximated values of column `col` of `rel`.
    pub fn column(&self, rel: RelId, col: usize) -> &ColumnSet {
        &self.cols[rel.index()][col]
    }

    /// Whether `tuple` lies in the product of `rel`'s column sets.
    pub fn admits(&self, rel: RelId, tuple: &[Value]) -> bool {
        self.cols[rel.index()]
            .iter()
            .zip(tuple)
            .all(|(col, v)| col.contains(*v))
    }

    /// Abstract evaluation: per-variable bounds on the assignments that
    /// satisfy `fo` in some reachable snapshot, or `None` if none can.
    fn bounds(&self, fo: &Fo) -> Option<Bounds> {
        match fo {
            Fo::True => Some(Bounds::new()),
            Fo::False => None,
            Fo::Atom(rel, args) => {
                let mut b = Bounds::new();
                for (t, col) in args.iter().zip(&self.cols[rel.index()]) {
                    let ColumnSet::Values(set) = col else {
                        continue;
                    };
                    let fits = match t {
                        Term::Const(c) => set.contains(c),
                        Term::Var(x) => restrict(&mut b, *x, set),
                    };
                    if !fits {
                        return None;
                    }
                }
                Some(b)
            }
            Fo::Eq(Term::Const(a), Term::Const(b)) => (a == b).then(Bounds::new),
            Fo::Eq(Term::Var(x), Term::Const(c)) | Fo::Eq(Term::Const(c), Term::Var(x)) => {
                Some(Bounds::from([(*x, BTreeSet::from([*c]))]))
            }
            Fo::Eq(Term::Var(_), Term::Var(_)) | Fo::Not(_) | Fo::Forall(..) | Fo::Implies(..) => {
                Some(Bounds::new())
            }
            Fo::And(fs) => {
                let mut acc = Bounds::new();
                for f in fs {
                    for (x, set) in self.bounds(f)? {
                        if !restrict(&mut acc, x, &set) {
                            return None;
                        }
                    }
                }
                Some(acc)
            }
            Fo::Or(fs) => {
                let mut acc: Option<Bounds> = None;
                for b in fs.iter().filter_map(|f| self.bounds(f)) {
                    acc = Some(match acc {
                        None => b,
                        Some(mut a) => {
                            a.retain(|x, set| match b.get(x) {
                                Some(other) => {
                                    set.extend(other.iter().copied());
                                    true
                                }
                                None => false,
                            });
                            a
                        }
                    });
                }
                acc
            }
            Fo::Exists(vs, f) => {
                let mut b = self.bounds(f)?;
                for v in vs {
                    b.remove(v);
                }
                Some(b)
            }
        }
    }

    /// Folds an FO formula against the column sets: an atom with a
    /// constant outside its column's set becomes `false`, a ground atom
    /// over the fixed database becomes its truth value, an equality of two
    /// constants becomes its truth value, and constants then propagate
    /// through `¬ ∧ ∨ →` and through quantifiers whose body is constant.
    /// The result agrees with `fo` on every reachable snapshot whose
    /// domain is non-empty.
    pub fn fold_fo(&self, fo: &Fo) -> Fo {
        let constant = |b: bool| if b { Fo::True } else { Fo::False };
        match fo {
            Fo::Atom(rel, args) => {
                let cols = &self.cols[rel.index()];
                let outside = args
                    .iter()
                    .zip(cols)
                    .any(|(t, col)| matches!(t, Term::Const(c) if !col.contains(*c)));
                if outside {
                    return Fo::False;
                }
                if let Some(db) = self.database.filter(|_| self.is_db[rel.index()]) {
                    let ground: Option<Vec<Value>> = args
                        .iter()
                        .map(|t| match t {
                            Term::Const(c) => Some(*c),
                            Term::Var(_) => None,
                        })
                        .collect();
                    if let Some(tuple) = ground {
                        return constant(db.contains_slice(*rel, &tuple));
                    }
                }
                fo.clone()
            }
            Fo::Eq(Term::Const(a), Term::Const(b)) => constant(a == b),
            Fo::True | Fo::False | Fo::Eq(..) => fo.clone(),
            Fo::Not(g) => match self.fold_fo(g) {
                Fo::True => Fo::False,
                Fo::False => Fo::True,
                h => Fo::not(h),
            },
            Fo::And(gs) => {
                let mut kept = Vec::with_capacity(gs.len());
                for g in gs {
                    match self.fold_fo(g) {
                        Fo::False => return Fo::False,
                        Fo::True => {}
                        h => kept.push(h),
                    }
                }
                Fo::and(kept)
            }
            Fo::Or(gs) => {
                let mut kept = Vec::with_capacity(gs.len());
                for g in gs {
                    match self.fold_fo(g) {
                        Fo::True => return Fo::True,
                        Fo::False => {}
                        h => kept.push(h),
                    }
                }
                Fo::or(kept)
            }
            Fo::Implies(a, b) => match (self.fold_fo(a), self.fold_fo(b)) {
                (Fo::False, _) | (_, Fo::True) => Fo::True,
                (Fo::True, h) => h,
                (h, Fo::False) => Fo::not(h),
                (x, y) => Fo::Implies(Box::new(x), Box::new(y)),
            },
            // Over a non-empty domain, a quantifier over a constant body is
            // that constant.
            Fo::Exists(vs, g) => match self.fold_fo(g) {
                c @ (Fo::True | Fo::False) => c,
                h => Fo::Exists(vs.clone(), Box::new(h)),
            },
            Fo::Forall(vs, g) => match self.fold_fo(g) {
                c @ (Fo::True | Fo::False) => c,
                h => Fo::Forall(vs.clone(), Box::new(h)),
            },
        }
    }

    /// Whether `valuation` makes the negated property body unsatisfiable
    /// on every run: substituted, FO-folded, grounded and
    /// constant-folded, it is `false`. Such a valuation holds without a
    /// search. Requires a non-empty verification domain.
    pub fn is_vacuous(&self, negated_body: &LtlFo, valuation: &HashMap<VarId, Value>) -> bool {
        let folded = negated_body
            .map_fo(&|fo| self.fold_fo(&fo.substitute(&|v| valuation.get(&v).copied())));
        ground_ltlfo(&folded, valuation, &mut AtomRegistry::new()).fold_constants() == Ltl::False
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddws_logic::parser::{parse_fo, Resolver};
    use ddws_model::builder::ENV;
    use ddws_model::{CompositionBuilder, QueueKind, Semantics};
    use ddws_relational::Tuple;

    fn values(comp: &mut Composition, names: &[&str]) -> ColumnSet {
        ColumnSet::Values(names.iter().map(|n| comp.symbols.intern(n)).collect())
    }

    fn rel(comp: &Composition, name: &str) -> RelId {
        comp.voc.lookup(name).unwrap_or_else(|| panic!("{name}"))
    }

    /// `P` picks a token from its database and sends it to `R`, which
    /// records it; `R` also keeps a tagged copy.
    fn relay() -> (Composition, Instance) {
        let mut b = CompositionBuilder::new();
        b.channel("hop", 1, QueueKind::Flat, "P", "R");
        b.peer("P")
            .database("token", 1)
            .input("emit", 1)
            .input_rule("emit", &["x"], "token(x)")
            .send_rule("hop", &["x"], "emit(x)");
        b.peer("R")
            .state("seen", 1)
            .state("tagged", 2)
            .state_insert_rule("seen", &["x"], "?hop(x)")
            .state_insert_rule("tagged", &["x", "t"], "?hop(x) and t = \"tag\"");
        let mut comp = b.build().unwrap();
        let mut db = Instance::empty(&comp.voc);
        let token = rel(&comp, "P.token");
        for name in ["t0", "t1"] {
            let v = comp.symbols.intern(name);
            db.relation_mut(token).insert(Tuple::new(vec![v]));
        }
        (comp, db)
    }

    #[test]
    fn positive_atoms_and_equalities_flow_into_heads() {
        let (mut comp, db) = relay();
        let d = ColumnDomains::analyze(&comp, Some(&db));
        let tokens = values(&mut comp, &["t0", "t1"]);
        for name in [
            "P.token", "P.emit", "P.!hop", "R.?hop", "R.seen", "R.tagged",
        ] {
            assert_eq!(d.column(rel(&comp, name), 0), &tokens, "{name}");
        }
        assert_eq!(
            d.column(rel(&comp, "R.tagged"), 1),
            &values(&mut comp, &["tag"])
        );
    }

    #[test]
    fn all_databases_leaves_database_relations_unbounded() {
        let (comp, _) = relay();
        let d = ColumnDomains::analyze(&comp, None);
        for name in ["P.token", "P.emit", "R.seen"] {
            assert_eq!(d.column(rel(&comp, name), 0), &ColumnSet::Any, "{name}");
        }
    }

    #[test]
    fn negation_and_universal_bodies_bound_nothing() {
        let mut b = CompositionBuilder::new();
        b.peer("P")
            .database("d", 1)
            .state("neg", 1)
            .state("all", 1)
            .state("both", 1)
            .state_insert_rule("neg", &["x"], "not d(x)")
            .state_insert_rule("all", &["x"], "forall y: d(y) -> y = x")
            .state_insert_rule("both", &["x"], "d(x) and not d(x)");
        let mut comp = b.build().unwrap();
        let mut db = Instance::empty(&comp.voc);
        let a = comp.symbols.intern("a");
        db.relation_mut(rel(&comp, "P.d"))
            .insert(Tuple::new(vec![a]));
        let d = ColumnDomains::analyze(&comp, Some(&db));
        assert_eq!(d.column(rel(&comp, "P.neg"), 0), &ColumnSet::Any);
        assert_eq!(d.column(rel(&comp, "P.all"), 0), &ColumnSet::Any);
        // The positive conjunct still bounds `x`; `¬` only adds nothing.
        assert_eq!(
            d.column(rel(&comp, "P.both"), 0),
            &values(&mut comp, &["a"])
        );
    }

    #[test]
    fn disjunction_unions_and_exists_projects() {
        let mut b = CompositionBuilder::new();
        b.peer("P")
            .database("d", 2)
            .state("either", 1)
            .state("half", 1)
            .state("proj", 1)
            .state_insert_rule("either", &["x"], "x = \"a\" or x = \"b\"")
            .state_insert_rule("half", &["x"], "x = \"a\" or not d(x, x)")
            .state_insert_rule("proj", &["x"], "exists y: d(x, y)");
        let mut comp = b.build().unwrap();
        let mut db = Instance::empty(&comp.voc);
        let (c, e) = (comp.symbols.intern("c"), comp.symbols.intern("e"));
        db.relation_mut(rel(&comp, "P.d"))
            .insert(Tuple::new(vec![c, e]));
        let d = ColumnDomains::analyze(&comp, Some(&db));
        assert_eq!(
            d.column(rel(&comp, "P.either"), 0),
            &values(&mut comp, &["a", "b"])
        );
        assert_eq!(d.column(rel(&comp, "P.half"), 0), &ColumnSet::Any);
        assert_eq!(
            d.column(rel(&comp, "P.proj"), 0),
            &values(&mut comp, &["c"])
        );
    }

    #[test]
    fn environment_channels_are_unbounded() {
        let mut b = CompositionBuilder::new();
        b.channel("req", 1, QueueKind::Flat, "P", ENV);
        b.channel("resp", 1, QueueKind::Flat, ENV, "P");
        b.peer("P")
            .state("got", 1)
            .state_insert_rule("got", &["x"], "?resp(x)")
            .send_rule("req", &["x"], "x = \"ping\"");
        let mut comp = b.build().unwrap();
        let db = Instance::empty(&comp.voc);
        let d = ColumnDomains::analyze(&comp, Some(&db));
        assert_eq!(d.column(rel(&comp, "P.?resp"), 0), &ColumnSet::Any);
        assert_eq!(d.column(rel(&comp, "P.got"), 0), &ColumnSet::Any);
        assert_eq!(
            d.column(rel(&comp, "P.!req"), 0),
            &values(&mut comp, &["ping"])
        );
    }

    #[test]
    fn lookback_chains_inherit_their_input() {
        let mut b = CompositionBuilder::new();
        b.semantics(Semantics {
            lookback: 2,
            ..Semantics::default()
        });
        b.peer("P")
            .input("pick", 1)
            .input_rule("pick", &["x"], "x = \"a\" or x = \"b\"")
            .state("last", 1)
            .state_insert_rule("last", &["x"], "prev2_pick(x)");
        let mut comp = b.build().unwrap();
        let db = Instance::empty(&comp.voc);
        let d = ColumnDomains::analyze(&comp, Some(&db));
        let ab = values(&mut comp, &["a", "b"]);
        for name in ["P.pick", "P.prev_pick", "P.prev2_pick", "P.last"] {
            assert_eq!(d.column(rel(&comp, name), 0), &ab, "{name}");
        }
    }

    #[test]
    fn fold_decides_atoms_outside_their_columns_and_fixed_facts() {
        let (mut comp, db) = relay();
        let d = ColumnDomains::analyze(&comp, Some(&db));
        let mut parse = |src: &str| {
            let mut r = Resolver {
                voc: &comp.voc,
                vars: &mut comp.vars,
                symbols: &mut comp.symbols,
            };
            parse_fo(src, &mut r).unwrap()
        };
        let outside = parse("R.seen(\"zz\")");
        let inside = parse("R.seen(\"t0\")");
        let fact = parse("P.token(\"t1\")");
        let non_fact = parse("P.token(\"t2\")");
        let nested = parse("exists y: R.tagged(y, \"zz\") or \"a\" = \"b\"");
        let open = parse("R.seen(\"t0\") -> P.token(\"t0\")");
        assert_eq!(d.fold_fo(&outside), Fo::False);
        assert_eq!(d.fold_fo(&inside), inside);
        assert_eq!(d.fold_fo(&fact), Fo::True);
        assert_eq!(d.fold_fo(&non_fact), Fo::False);
        assert_eq!(d.fold_fo(&nested), Fo::False);
        assert_eq!(d.fold_fo(&open), Fo::True);
        assert_eq!(d.fold_fo(&Fo::not(outside)), Fo::True);
    }
}
