//! Symmetry reduction under fixed-database automorphisms (DESIGN.md
//! §3.16).
//!
//! Two domain values are *interchangeable* when no rule and no snapshot
//! atom names either of them (the atoms carry the property constants and
//! the valuation) and swapping them maps the fixed database onto itself.
//! The classes of interchangeable values are computed once per
//! [`ProductSystem`]; the product then replaces every successor
//! configuration by its orbit representative
//! ([`ddws_model::canon`]), so the search visits one configuration per
//! orbit. [`lift`] turns a lasso of that quotient back into a run of the
//! real configuration graph.
//!
//! The reduction is skipped when the run decides database facts lazily
//! (the all-databases oracle): the oracle would have to be permuted along
//! with the configuration.

use crate::counterexample::RunStep;
use crate::ground::AtomRegistry;
use crate::oracle::FactUniverse;
use crate::product::{PState, ProductSystem};
use ddws_model::builder::collect_constants;
use ddws_model::{Composition, Config, Mover, ValueClasses, ValuePerm};
use ddws_relational::{Instance, Value};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The interchangeable-value classes of a search over the fixed database
/// `base_db`: the values of `domain` that neither a rule constant of
/// `comp` nor `pinned` (the snapshot atoms' constants) names, partitioned
/// by whether their transpositions map `base_db` onto itself.
pub fn value_classes(
    comp: &Composition,
    base_db: &Instance,
    domain: &[Value],
    pinned: impl IntoIterator<Item = Value>,
) -> ValueClasses {
    let mut pinned: BTreeSet<Value> = pinned.into_iter().collect();
    pinned.extend(comp.rule_constants.iter().copied());
    ValueClasses::from_database(
        base_db,
        domain.iter().copied().filter(|v| !pinned.contains(v)),
    )
}

/// The classes a product search reduces under, or `None` when it must run
/// unreduced: a lazy fact universe, or no class of two or more values.
pub(crate) fn product_classes(
    comp: &Composition,
    base_db: &Instance,
    universe: &FactUniverse,
    domain: &[Value],
    atoms: &AtomRegistry,
) -> Option<ValueClasses> {
    if !universe.is_empty() {
        return None;
    }
    let mut pinned = BTreeSet::new();
    for fo in atoms.atoms() {
        collect_constants(fo, &mut pinned);
    }
    let classes = value_classes(comp, base_db, domain, pinned);
    (!classes.is_trivial()).then_some(classes)
}

/// One snapshot of a quotient lasso: representative config id and mover.
#[derive(Clone, Copy)]
struct Snap {
    config: u32,
    mover: Mover,
    oracle: u32,
}

fn snaps(states: &[PState]) -> Vec<Snap> {
    states
        .iter()
        .filter_map(|s| match *s {
            PState::Run {
                config,
                mover,
                oracle,
                ..
            } => Some(Snap {
                config,
                mover,
                oracle,
            }),
            PState::Boot { .. } => None,
        })
        .collect()
}

/// One quotient snapshot prepared for lifting: its configuration, its
/// mover, and the inverse permutation of the quotient step leaving it.
type Leg = (Arc<Config>, Mover, ValuePerm);

/// Lifts a lasso of the symmetry-reduced product to a run of the real
/// configuration graph, returning its (prefix, cycle) snapshots.
///
/// Each quotient step `r → r'` stands for a real successor `c` of `r`
/// with `π·c = r'`. The lift tracks a permutation `σ` with real snapshot
/// `σ·r`: from `σ·r` the real step goes to `σ·c = (σ∘π⁻¹)·r'`. The first
/// snapshot is a representative of an initial configuration, and the
/// initial configurations are closed under class permutations, so it is
/// real as it stands (`σ = id`). Around the cycle `σ` picks up one fixed
/// permutation per lap; the walk continues until the real snapshot at
/// the cycle entry repeats, which it does within the order of that
/// permutation. The laps before the repeated one join the prefix.
///
/// Requires an active symmetry reduction, hence a fixed database: there
/// are no fork steps to elide.
pub(crate) fn lift(
    system: &ProductSystem<'_>,
    prefix: &[PState],
    cycle: &[PState],
) -> (Vec<RunStep>, Vec<RunStep>) {
    let pre = snaps(prefix);
    let cyc = snaps(cycle);
    assert!(!cyc.is_empty(), "a lasso cycle holds a running snapshot");
    // Per quotient snapshot, once: its configuration and the `π⁻¹` of the
    // step leaving it. Every lap reuses the cycle's.
    let legs = |path: &[Snap], next: &dyn Fn(usize) -> Snap| -> Vec<Leg> {
        path.iter()
            .enumerate()
            .map(|(i, s)| {
                let to = next(i);
                let pi = system
                    .quotient_step(s.config, s.mover, s.oracle, to.config)
                    .expect("every quotient edge has a real successor behind it");
                (system.config(s.config), s.mover, pi.inverse())
            })
            .collect()
    };
    let pre_legs = legs(&pre, &|i| *pre.get(i + 1).unwrap_or(&cyc[0]));
    let cyc_legs = legs(&cyc, &|k| cyc[(k + 1) % cyc.len()]);

    let mut sigma = ValuePerm::identity();
    let mut steps: Vec<RunStep> = Vec::new();
    let mut walk = |legs: &[Leg], sigma: &mut ValuePerm| {
        for (config, mover, pi_inv) in legs {
            steps.push(RunStep {
                config: config.permuted(sigma),
                mover: *mover,
            });
            *sigma = sigma.after(pi_inv);
        }
    };
    walk(&pre_legs, &mut sigma);
    let mut lap_entries: Vec<Config> = Vec::new();
    loop {
        let entry = cyc_legs[0].0.permuted(&sigma);
        if let Some(lap) = lap_entries.iter().position(|c| *c == entry) {
            let cycle_steps = steps.split_off(pre.len() + lap * cyc.len());
            return (steps, cycle_steps);
        }
        lap_entries.push(entry);
        walk(&cyc_legs, &mut sigma);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground::ground_ltlfo;
    use crate::product::SharedSearch;
    use crate::verify::{DatabaseMode, RuleEval, StateRepr, Verifier, VerifyOptions};
    use ddws_automata::{find_accepting_lasso, ltl_to_nba};
    use ddws_logic::LtlFo;
    use ddws_model::CompositionBuilder;
    use ddws_relational::Tuple;
    use std::collections::HashMap;

    /// One peer that picks, every step, a token other than its previous
    /// pick: every step of a violating run renames the tokens, so the
    /// quotient's one-state cycle lifts to several real laps.
    fn rotor(m: usize) -> (Composition, Instance) {
        let mut b = CompositionBuilder::new();
        b.peer("P")
            .database("token", 1)
            .input("pick", 1)
            .input_rule("pick", &["x"], "token(x) and not prev_pick(x)");
        let mut comp = b.build().expect("rotor builds");
        let mut db = Instance::empty(&comp.voc);
        let token = comp.voc.lookup("P.token").expect("declared");
        for i in 0..m {
            let v = comp.symbols.intern(&format!("t{i}"));
            db.relation_mut(token).insert(Tuple::new(vec![v]));
        }
        (comp, db)
    }

    #[test]
    fn lifting_walks_several_laps_of_a_quotient_cycle() {
        let (comp, db) = rotor(3);
        let mut v = Verifier::new(comp);
        let prop = v
            .parse_property("F (forall x: P.pick(x) -> false)")
            .expect("parses");
        let opts = VerifyOptions {
            database: DatabaseMode::Fixed(db.clone()),
            fresh_values: Some(1),
            ..VerifyOptions::default()
        };
        let domain = v.domain_for(&prop, &opts);
        let comp = v.composition();
        let shared = SharedSearch::new(comp, RuleEval::Compiled, StateRepr::Compact, &domain);
        let mut atoms = AtomRegistry::new();
        let ltl = ground_ltlfo(&LtlFo::not(prop.body.clone()), &HashMap::new(), &mut atoms);
        let nba = ltl_to_nba(&ltl);
        let universe = FactUniverse::default();
        let system = ProductSystem::new(comp, &db, &universe, &domain, &nba, &atoms, &shared);
        let classes = system
            .value_classes()
            .expect("the tokens are interchangeable");
        assert_eq!(classes.classes().len(), 1);
        let lasso = find_accepting_lasso(&system).expect("picks can go on forever");
        let quotient_cycle = snaps(&lasso.cycle).len();
        let (prefix, cycle) = lift(&system, &lasso.prefix, &lasso.cycle);
        assert_eq!(cycle.len() % quotient_cycle, 0, "whole laps");
        assert!(
            cycle.len() > quotient_cycle,
            "the lifted cycle must take more than one lap ({} snapshots, quotient {})",
            cycle.len(),
            quotient_cycle
        );
        let cex = crate::Counterexample {
            database: db,
            valuation: Vec::new(),
            frozen_rels: Vec::new(),
            prefix,
            cycle,
        };
        v.replay_counterexample(&prop, &cex, &opts)
            .expect("the lifted run replays");
    }
}
