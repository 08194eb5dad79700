//! Static mover independence for ample-set partial-order reduction.
//!
//! The product search serializes peer moves (Definition 2.6), so from every
//! configuration it branches on *which* mover steps next. Under the snapshot
//! semantics of Definition 2.4 most of those branches commute: a peer's move
//! reads its own relations and its in-queue heads, and writes its own
//! relations and the queues it touches — two movers whose read/write
//! footprints are disjoint reach the same configurations in either order.
//!
//! This module derives a conservative **may-conflict relation** between
//! movers from the rule schemas (validated per Definition 2.1) and selects,
//! per configuration, an *ample* mover whose scheduling alone preserves the
//! verdict. The selection enforces the classic ample-set conditions:
//!
//! * **C0** (non-emptiness): a peer move is always enabled — every peer has
//!   at least the empty-input successor — so a singleton ample set is never
//!   empty;
//! * **C1** (dependence): the ample mover is chosen only if it is
//!   independent of *every* other mover, so no dependent transition can
//!   fire before it along any path of the full graph;
//! * **C2** (invisibility): the ample mover must not write any resource an
//!   observed proposition reads (the FO-atom registry's ground atoms plus
//!   the `emptyQ`/`receivedQ`/`enqueuedQ` observer propositions); if any
//!   observed atom reads a `moveW`/`moveE` bookkeeping proposition, every
//!   mover is visible and the reduction disables itself;
//! * **C3** (cycle proviso) is the engines' job: the sequential nested DFS
//!   falls back to a full expansion when an ample successor is on the DFS
//!   stack, the parallel engine when an ample successor is already visited.
//!
//! The footprints are *static* (schema-level), so the relation is
//! conservative: a sender and its receiver always conflict through the
//! queue, and when a `received_q`/`sent_q` flag is tracked in
//! configurations, every mover writes it (each move resets the flags of
//! all channels), making all movers mutually dependent — the reduction
//! then degrades soundly to full expansion everywhere.

use crate::composition::{ChannelRole, Composition, Mover};
use ddws_logic::RelClass;
use ddws_relational::RelId;
use std::collections::BTreeSet;

/// A mutable resource a mover's step may read or write. Database relations
/// are immutable during a run (the lazy oracle only *decides* them, which
/// the product layer handles via fork edges) and are therefore not
/// resources.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Resource {
    /// A configuration relation (state / input / previous-input / action).
    Rel(u32),
    /// A channel's queue contents (read through `?q`, `!q`, `empty_q` and
    /// the nested-message emptiness test; written by sends and dequeues).
    Queue(u32),
    /// A channel's deterministic-send error flag.
    ErrFlag(u32),
    /// A channel's tracked `received_q` flag.
    RecvFlag(u32),
    /// A channel's tracked `sent_q` flag.
    SentFlag(u32),
}

/// Read/write footprint of one mover's step, over [`Resource`]s.
#[derive(Clone, Debug, Default)]
struct Footprint {
    reads: BTreeSet<Resource>,
    writes: BTreeSet<Resource>,
}

impl Footprint {
    fn conflicts(&self, other: &Footprint) -> bool {
        self.writes.iter().any(|r| other.reads.contains(r))
            || other.writes.iter().any(|r| self.reads.contains(r))
            || self.writes.iter().any(|r| other.writes.contains(r))
    }
}

/// Maps a relation to the resource it denotes; `Ok(None)` for static
/// (database) relations, `Err(())` for bookkeeping propositions
/// (`moveW`/`moveE`), which poison whatever mentions them.
fn resource_of(comp: &Composition, rel: RelId) -> Result<Option<Resource>, ()> {
    if let Some((cid, role)) = comp.rel_channel[rel.index()] {
        let c = cid.index() as u32;
        return Ok(Some(match role {
            ChannelRole::In | ChannelRole::Out | ChannelRole::Empty | ChannelRole::MsgEmpty => {
                Resource::Queue(c)
            }
            ChannelRole::Received => Resource::RecvFlag(c),
            ChannelRole::Sent => Resource::SentFlag(c),
            ChannelRole::Error => Resource::ErrFlag(c),
        }));
    }
    match comp.class(rel) {
        RelClass::Database => Ok(None),
        RelClass::Bookkeeping => Err(()),
        _ => Ok(Some(Resource::Rel(rel.index() as u32))),
    }
}

/// Precomputed ample-mover selection for one composition + property-atom
/// vocabulary. Built once per product system; queried per configuration.
#[derive(Clone, Debug)]
pub struct IndependenceOracle {
    /// Movers in [`Composition::movers`] order that satisfy C1 + C2
    /// statically; the first one is the ample choice everywhere.
    eligible: Vec<Mover>,
    /// Whether the reduction is usable at all (false when an observed atom
    /// reads a move proposition, under `strict_input_validity`, or with
    /// fewer than two movers — a singleton schedule has nothing to reduce).
    enabled: bool,
}

impl IndependenceOracle {
    /// Builds the oracle for `comp` with `visible_rels` the relations read
    /// by the observed propositions (every ground FO atom registered for
    /// the property automaton, after flag observation has been applied via
    /// [`Composition::observe_flags`]).
    pub fn new(comp: &Composition, visible_rels: &BTreeSet<RelId>) -> Self {
        let movers = comp.movers();
        let disabled = Self {
            eligible: Vec::new(),
            enabled: false,
        };
        if movers.len() < 2 {
            return disabled;
        }
        // `strict_input_validity` re-filters input choices against the
        // *current* snapshot, so a peer's enabled moves can depend on
        // relations outside its footprint; don't reduce under it.
        if comp.semantics.strict_input_validity {
            return disabled;
        }

        // Visible resources (C2). An atom over a move proposition makes the
        // scheduled mover itself observable, so no mover is invisible.
        let mut visible: BTreeSet<Resource> = BTreeSet::new();
        for &rel in visible_rels {
            match resource_of(comp, rel) {
                Ok(Some(r)) => {
                    visible.insert(r);
                }
                Ok(None) => {}
                Err(()) => return disabled,
            }
        }

        let mut footprints = Vec::with_capacity(movers.len());
        for &m in &movers {
            match mover_footprint(comp, m) {
                Some(fp) => footprints.push(fp),
                None => return disabled,
            }
        }

        let eligible = movers
            .iter()
            .enumerate()
            .filter(|&(i, _)| {
                let fp = &footprints[i];
                let invisible = fp.writes.iter().all(|r| !visible.contains(r));
                invisible
                    && footprints
                        .iter()
                        .enumerate()
                        .all(|(j, other)| j == i || !fp.conflicts(other))
            })
            .map(|(_, &m)| m)
            .collect();
        Self {
            eligible,
            enabled: true,
        }
    }

    /// Whether any configuration can be reduced at all.
    pub fn can_reduce(&self) -> bool {
        self.enabled && !self.eligible.is_empty()
    }

    /// The ample mover to schedule, or `None` when every configuration
    /// must be fully expanded. The static footprints make eligibility
    /// configuration-independent, so the choice never inspects a
    /// configuration and both state representations apply it without
    /// materializing one.
    pub fn ample_mover_static(&self) -> Option<Mover> {
        if !self.enabled {
            return None;
        }
        self.eligible.first().copied()
    }
}

/// The static read/write footprint of one mover; `None` when a rule body
/// mentions a bookkeeping proposition (never valid per Definition 2.1, but
/// poison rather than trust it).
fn mover_footprint(comp: &Composition, mover: Mover) -> Option<Footprint> {
    let mut fp = Footprint::default();
    // Every move resets the received/sent flags of *all* channels
    // (Definition 2.4's per-snapshot observers), so each tracked flag is
    // written by every mover.
    for (i, _) in comp.channels.iter().enumerate() {
        if comp.observed_received[i] {
            fp.writes.insert(Resource::RecvFlag(i as u32));
        }
        if comp.observed_sent[i] {
            fp.writes.insert(Resource::SentFlag(i as u32));
        }
    }
    match mover {
        Mover::Environment => {
            for cid in comp.env_in_channels() {
                // Keeps or drops the head: reads and rewrites the queue.
                fp.reads.insert(Resource::Queue(cid.index() as u32));
                fp.writes.insert(Resource::Queue(cid.index() as u32));
            }
            for cid in comp.env_out_channels() {
                // Appends (capacity-checked): reads length, writes contents.
                fp.reads.insert(Resource::Queue(cid.index() as u32));
                fp.writes.insert(Resource::Queue(cid.index() as u32));
            }
        }
        Mover::Peer(pid) => {
            let peer = &comp.peers[pid.index()];
            let read_rel = |rel: RelId, fp: &mut Footprint| -> Option<()> {
                match resource_of(comp, rel) {
                    Ok(Some(r)) => {
                        fp.reads.insert(r);
                        Some(())
                    }
                    Ok(None) => Some(()),
                    Err(()) => None,
                }
            };
            for hr in peer
                .input_rules
                .iter()
                .chain(peer.action_rules.iter())
                .chain(peer.send_rules.iter().map(|(_, hr)| hr))
            {
                for rel in hr.body.relations() {
                    read_rel(rel, &mut fp)?;
                }
            }
            for sr in &peer.state_rules {
                for body in sr.insert.iter().chain(sr.delete.iter()) {
                    for rel in body.relations() {
                        read_rel(rel, &mut fp)?;
                    }
                }
            }
            // Own dynamic relations are rewritten every move (state rules,
            // input choice, prev shift, action recomputation).
            for &rel in peer
                .states
                .iter()
                .chain(peer.inputs.iter())
                .chain(peer.prev.iter().flatten())
                .chain(peer.actions.iter())
            {
                fp.writes.insert(Resource::Rel(rel.index() as u32));
            }
            for &cid in &peer.dequeues {
                fp.reads.insert(Resource::Queue(cid.index() as u32));
                fp.writes.insert(Resource::Queue(cid.index() as u32));
            }
            for &cid in &peer.out_channels {
                // Sends append (capacity-checked) and recompute the
                // channel's deterministic-send error flag.
                fp.reads.insert(Resource::Queue(cid.index() as u32));
                fp.writes.insert(Resource::Queue(cid.index() as u32));
                fp.writes.insert(Resource::ErrFlag(cid.index() as u32));
            }
        }
    }
    Some(fp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CompositionBuilder;
    use crate::composition::QueueKind;

    /// Two peers joined by a channel plus a channel-free auditor: the
    /// chained peers conflict through the queue, the auditor is
    /// independent of everyone.
    fn chained_with_auditor() -> Composition {
        let mut b = CompositionBuilder::new();
        b.default_lossy(true);
        b.channel("hop", 1, QueueKind::Flat, "A", "B");
        b.peer("A")
            .database("token", 1)
            .input("emit", 1)
            .input_rule("emit", &["x"], "token(x)")
            .send_rule("hop", &["x"], "emit(x)");
        b.peer("B")
            .state("seen", 1)
            .state_insert_rule("seen", &["x"], "?hop(x)");
        b.peer("Aud")
            .database("ring", 2)
            .state("phase", 1)
            .state_insert_rule("phase", &["x"], "exists p: phase(p) and ring(p, x)")
            .state_delete_rule("phase", &["x"], "phase(x)");
        let mut comp = b.build().unwrap();
        // Mirror the verifier: flags are tracked only when observed.
        comp.observe_flags(&BTreeSet::new());
        comp
    }

    #[test]
    fn auditor_is_the_only_eligible_mover() {
        let comp = chained_with_auditor();
        let oracle = IndependenceOracle::new(&comp, &BTreeSet::new());
        assert!(oracle.can_reduce());
        let aud = comp.peer_by_name("Aud").unwrap().id;
        assert_eq!(oracle.eligible, vec![Mover::Peer(aud)]);
    }

    #[test]
    fn observing_the_auditor_state_makes_it_visible() {
        let comp = chained_with_auditor();
        let phase = comp.voc.lookup("Aud.phase").unwrap();
        let visible: BTreeSet<RelId> = [phase].into_iter().collect();
        let oracle = IndependenceOracle::new(&comp, &visible);
        assert!(!oracle.can_reduce());
    }

    #[test]
    fn tracked_received_flag_disables_every_mover() {
        let mut comp = chained_with_auditor();
        // Track `received_hop` as a property observing it would.
        comp.observed_received[0] = true;
        let oracle = IndependenceOracle::new(&comp, &BTreeSet::new());
        assert!(!oracle.can_reduce());
    }

    #[test]
    fn strict_input_validity_disables_reduction() {
        let mut comp = chained_with_auditor();
        comp.semantics.strict_input_validity = true;
        let oracle = IndependenceOracle::new(&comp, &BTreeSet::new());
        assert!(!oracle.can_reduce());
    }
}
