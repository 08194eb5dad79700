//! State-space divergence gadgets.
//!
//! A sound-and-complete bounded checker meets an undecidable regime as
//! *unbounded growth*: whatever queue bound `k` you verify at, the gadget
//! has behaviours needing `k+1`. [`counting_relay`] is such a family — a
//! producer pushes distinguishable tokens through a **perfect** channel and
//! the consumer counts them; the reachable state space grows monotonically
//! with `k` (Corollary 3.6's trend, the engine of Theorem 3.7's proof).
//! The *lossy* variant of the same composition does not saturate: E5
//! measures the same 12 / 28 / 60 / 124 / 252 reachable configurations for
//! `k = 1..5` on both, because the consumer may drain either way. Loss
//! shows up as extra transitions and as counting that can no longer be
//! relied on, not as a smaller state space.

use ddws_model::{Composition, CompositionBuilder, Mover, QueueKind, Semantics};
use ddws_relational::{Instance, Tuple, Value};
use std::collections::{HashSet, VecDeque};

/// A producer→consumer relay over one flat channel with queue bound `k`.
/// The producer emits tokens chosen from a database of `tokens` values; the
/// consumer records each received token.
pub fn counting_relay(k: usize, lossy: bool, tokens: usize) -> (Composition, Instance, Vec<Value>) {
    let mut b = CompositionBuilder::new();
    b.semantics(Semantics {
        queue_bound: k,
        ..Semantics::default()
    });
    b.default_lossy(lossy);
    b.channel("belt", 1, QueueKind::Flat, "Producer", "Consumer");
    // The producer sends *unconditionally* (no input gating): under perfect
    // channels every producer move extends the queue; under lossy channels
    // delivery is optional — exactly the distinction Theorem 3.7 exploits.
    b.peer("Producer")
        .database("stock", 1)
        .send_rule("belt", &["x"], "stock(x)");
    b.peer("Consumer")
        .state("got", 1)
        .state_insert_rule("got", &["x"], "?belt(x)");
    let mut comp = b.build().expect("relay is well-formed");
    // The experiment charts *configuration* growth; transition-scoped
    // bookkeeping flags would add lossy-only distinctions that are not the
    // point. Keep the consumer's memory live, mask the flags.
    let mut observed = std::collections::BTreeSet::new();
    observed.insert(comp.voc.lookup("Consumer.got").unwrap());
    comp.observe_flags(&observed);
    comp.freeze_unobserved(&observed);

    let mut db = Instance::empty(&comp.voc);
    let stock = comp.voc.lookup("Producer.stock").unwrap();
    let mut domain = Vec::new();
    for i in 0..tokens {
        let v = comp.symbols.intern(&format!("tok{i}"));
        db.relation_mut(stock).insert(Tuple::new(vec![v]));
        domain.push(v);
    }
    (comp, db, domain)
}

/// Exhaustively counts the reachable configurations of a composition over a
/// fixed database (the raw measure the divergence experiments chart).
pub fn state_space_size(comp: &Composition, db: &Instance, domain: &[Value], cap: usize) -> usize {
    let movers: Vec<Mover> = comp.movers();
    let mut seen = HashSet::new();
    let mut queue = VecDeque::new();
    for c in comp.initial_configs(db, domain) {
        if seen.insert(c.clone()) {
            queue.push_back(c);
        }
    }
    while let Some(c) = queue.pop_front() {
        if seen.len() >= cap {
            return seen.len();
        }
        for &m in &movers {
            for s in comp.successors(db, domain, &c, m) {
                if seen.insert(s.clone()) {
                    queue.push_back(s);
                }
            }
        }
    }
    seen.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Perfect channels: every increase of the queue bound strictly grows
    /// the reachable space (queue contents are observable state) — the
    /// Corollary 3.6 trend.
    #[test]
    fn perfect_channel_state_space_diverges_with_bound() {
        let mut previous = 0;
        for k in 1..=4 {
            let (comp, db, domain) = counting_relay(k, false, 2);
            let size = state_space_size(&comp, &db, &domain, 1_000_000);
            assert!(
                size > previous,
                "bound {k}: {size} states, expected more than {previous}"
            );
            previous = size;
        }
    }

    /// Lossy channels subsume the perfect behaviours (delivery is one
    /// resolution of the nondeterminism) and add the short-queue ones —
    /// the extra runs are exactly what breaks the counting gadget's
    /// reliability and restores decidability.
    #[test]
    fn lossy_reaches_at_least_the_perfect_configurations() {
        for k in 2..=4 {
            let (pc, pdb, pdom) = counting_relay(k, false, 2);
            let (lc, ldb, ldom) = counting_relay(k, true, 2);
            let perfect = state_space_size(&pc, &pdb, &pdom, 1_000_000);
            let lossy = state_space_size(&lc, &ldb, &ldom, 1_000_000);
            assert!(
                lossy >= perfect,
                "bound {k}: lossy {lossy} vs perfect {perfect}"
            );
        }
    }

    /// The deterministic-send error flag (Theorem 3.8) is raised exactly
    /// when the send rule yields several candidates.
    #[test]
    fn deterministic_send_flag_is_observable() {
        let mut b = CompositionBuilder::new();
        b.semantics(Semantics {
            deterministic_send: true,
            ..Semantics::default()
        });
        b.default_lossy(true);
        b.channel("out", 1, QueueKind::Flat, "P", "R");
        b.peer("P")
            .database("d", 1)
            .send_rule("out", &["x"], "d(x)");
        b.peer("R");
        let mut comp = b.build().unwrap();
        let d = comp.voc.lookup("P.d").unwrap();
        let mut db = Instance::empty(&comp.voc);
        let a = comp.symbols.intern("a");
        let bb = comp.symbols.intern("b");
        db.relation_mut(d).insert(Tuple::new(vec![a]));
        db.relation_mut(d).insert(Tuple::new(vec![bb]));
        let domain = vec![a, bb];
        let p = comp.peer_by_name("P").unwrap().id;
        let init = comp.initial_configs(&db, &domain).remove(0);
        let succs = comp.successors(&db, &domain, &init, Mover::Peer(p));
        let (out, _) = comp.channel_by_name("out").unwrap();
        assert!(succs.iter().all(|c| c.error[out.index()]));
    }

    /// The nested-message emptiness test of Theorem 3.9 is modelled (and
    /// rejected by the input-boundedness checker elsewhere).
    #[test]
    fn msg_emptiness_proposition_exists_for_nested_channels() {
        let mut b = CompositionBuilder::new();
        b.channel("set", 1, QueueKind::Nested, "P", "R");
        b.peer("P")
            .database("d", 1)
            .send_rule("set", &["x"], "d(x)");
        b.peer("R");
        let comp = b.build().unwrap();
        assert!(comp.voc.lookup("R.msgempty_set").is_some());
    }
}
