//! Successor generation: the legal-successor relation of Definition 2.4,
//! lifted to composition snapshots (Definition 2.6), plus environment moves
//! for open compositions (§5).
//!
//! One peer moves per step ("serialized runs"). A move:
//!
//! 1. evaluates all state, action and send rules simultaneously on the
//!    *current* snapshot (snapshot semantics),
//! 2. updates state relations with the no-op-on-conflict combination of
//!    insertions and deletions,
//! 3. replaces action relations with the rule results,
//! 4. dequeues the first message of every in-queue mentioned in the rules,
//! 5. sends: nested rules enqueue their full result as one message (empty
//!    or not); flat rules enqueue one nondeterministically chosen tuple —
//!    or, under the deterministic-send semantics of Theorem 3.8, raise the
//!    channel's error flag when several candidates exist,
//! 6. loses messages nondeterministically on lossy channels and drops them
//!    silently when the receiver's queue holds `queue_bound` messages,
//! 7. shifts the mover's previous-input chain, and
//! 8. chooses the mover's next input among the options its input rules
//!    generate in the *new* configuration (Definition 2.3's validity).
//!
//! An environment move nondeterministically consumes first messages from
//! the environment's in-queues and emits messages over the verification
//! domain on its out-queues (§5), subject to the same channel semantics.

use crate::composition::{Composition, Mover, Peer, PeerId, QueueKind};
use crate::config::{Config, Message};
use crate::plan::{EvalCtx, RuleRef};
use crate::view::{Database, RuleView};
use ddws_relational::hash::{fx_hash, FxHashMap};
use ddws_relational::{Relation, Tuple, Value};
use std::hash::Hash;

/// A pending send resolved during branching.
#[derive(Clone, Debug)]
enum SendOutcome {
    /// Nothing to send.
    Nothing,
    /// Raise the deterministic-send error flag (Theorem 3.8).
    Error,
    /// Send this message (channel semantics still applies).
    Send(Message),
}

impl Composition {
    /// Initial configurations over `db`: empty states, actions, previous
    /// inputs and queues (Definition 2.6), with every peer's input chosen
    /// among its options in the empty configuration.
    pub fn initial_configs(&self, db: &dyn Database, domain: &[Value]) -> Vec<Config> {
        self.initial_configs_with(db, domain, EvalCtx::default())
    }

    /// [`Composition::initial_configs`] with an explicit rule-evaluation
    /// context (compiled plans and/or memoization).
    pub fn initial_configs_with(
        &self,
        db: &dyn Database,
        domain: &[Value],
        ctx: EvalCtx<'_>,
    ) -> Vec<Config> {
        let base = Config::empty(self);
        let mut configs = vec![base];
        for peer in &self.peers {
            configs = configs
                .into_iter()
                .flat_map(|c| self.with_input_choices(db, domain, c, peer, ctx))
                .collect();
        }
        if self.semantics.strict_input_validity {
            // Choices were generated peer-by-peer against intermediate
            // configs; inputs do not influence options (input rules cannot
            // read inputs), so the enumeration is already consistent.
        }
        configs
    }

    /// All legal successor configurations when `mover` takes the next step.
    pub fn successors(
        &self,
        db: &dyn Database,
        domain: &[Value],
        config: &Config,
        mover: Mover,
    ) -> Vec<Config> {
        self.successors_with(db, domain, config, mover, EvalCtx::default())
    }

    /// [`Composition::successors`] with an explicit rule-evaluation context:
    /// compiled plans replace FO re-interpretation and a [`RuleCache`]
    /// (when provided) memoizes rule extensions by read footprint. The
    /// default context is the interpreted oracle of record.
    ///
    /// [`RuleCache`]: crate::plan::RuleCache
    pub fn successors_with(
        &self,
        db: &dyn Database,
        domain: &[Value],
        config: &Config,
        mover: Mover,
        ctx: EvalCtx<'_>,
    ) -> Vec<Config> {
        let raw = match mover {
            Mover::Peer(p) => self.peer_successors(db, domain, config, p, ctx),
            Mover::Environment => self.env_successors(db, domain, config),
        };
        // Distinct nondeterministic resolutions can coincide (e.g. a lossy
        // drop vs. a capacity drop); deduplicate to keep the search lean.
        dedup_preserving_order(raw)
    }

    fn peer_successors(
        &self,
        db: &dyn Database,
        domain: &[Value],
        config: &Config,
        pid: PeerId,
        ctx: EvalCtx<'_>,
    ) -> Vec<Config> {
        let peer = &self.peers[pid.index()];
        let view = RuleView::new(self, db, config, pid, domain);

        // 1. Evaluate every rule on the current snapshot.
        let mut state_updates: Vec<(ddws_relational::RelId, Relation)> = Vec::new();
        for (i, sr) in peer.state_rules.iter().enumerate() {
            if self.frozen[sr.rel.index()] {
                continue;
            }
            let inserts: Relation = sr
                .insert
                .as_ref()
                .map(|b| {
                    to_relation(&ctx.eval_rule(RuleRef::StateInsert(pid, i), &sr.head, b, &view))
                })
                .unwrap_or_default();
            let deletes: Relation = sr
                .delete
                .as_ref()
                .map(|b| {
                    to_relation(&ctx.eval_rule(RuleRef::StateDelete(pid, i), &sr.head, b, &view))
                })
                .unwrap_or_default();
            let old = config.rel.relation(sr.rel);
            // Definition 2.4: (ϕ+ ∧ ¬ϕ−) ∨ (S ∧ ϕ+ ∧ ϕ−) ∨ (S ∧ ¬ϕ+ ∧ ¬ϕ−).
            let keep_conflict = old.intersection(&inserts).intersection(&deletes);
            let keep_untouched = old.difference(&inserts.union(&deletes));
            let new = inserts
                .difference(&deletes)
                .union(&keep_conflict)
                .union(&keep_untouched);
            state_updates.push((sr.rel, new));
        }

        let mut action_updates: Vec<(ddws_relational::RelId, Relation)> = peer
            .actions
            .iter()
            .filter(|a| !self.frozen[a.index()])
            .map(|&a| (a, Relation::new()))
            .collect();
        for (i, ar) in peer.action_rules.iter().enumerate() {
            if self.frozen[ar.rel.index()] {
                continue;
            }
            let ext = ctx.eval_rule(RuleRef::Action(pid, i), &ar.head, &ar.body, &view);
            if let Some(slot) = action_updates.iter_mut().find(|(r, _)| *r == ar.rel) {
                slot.1 = to_relation(&ext);
            }
        }

        let mut send_results: Vec<(crate::ChannelId, std::sync::Arc<Vec<Vec<Value>>>)> = Vec::new();
        for (i, (cid, rule)) in peer.send_rules.iter().enumerate() {
            send_results.push((
                *cid,
                ctx.eval_rule(RuleRef::Send(pid, i), &rule.head, &rule.body, &view),
            ));
        }

        // 2. Build the deterministic part of the successor.
        let mut base = config.clone();
        for (rel, new) in state_updates {
            base.rel.set_relation(rel, new);
        }
        for (rel, new) in action_updates {
            base.rel.set_relation(rel, new);
        }
        // Previous-input shift: only on non-empty current input; frozen
        // chain links (read by nothing) are skipped.
        for (i, &input_rel) in peer.inputs.iter().enumerate() {
            let current = config.rel.relation(input_rel).clone();
            if !current.is_empty() {
                let chain = &peer.prev[i];
                for j in (1..chain.len()).rev() {
                    if self.frozen[chain[j].index()] {
                        continue;
                    }
                    let prev = base.rel.relation(chain[j - 1]).clone();
                    base.rel.set_relation(chain[j], prev);
                }
                if let Some(&first) = chain.first() {
                    if !self.frozen[first.index()] {
                        base.rel.set_relation(first, current);
                    }
                }
            }
        }
        // Dequeues.
        for &cid in &peer.dequeues {
            base.queues[cid.index()].pop_front();
        }
        // Transition-scoped flags reset.
        for i in 0..self.channels.len() {
            base.received[i] = false;
            base.sent[i] = false;
        }
        // The mover's error flags are recomputed by this move.
        for &cid in &peer.out_channels {
            base.error[cid.index()] = false;
        }

        // 3. Resolve send nondeterminism per channel.
        let mut per_channel: Vec<(crate::ChannelId, Vec<SendOutcome>)> = Vec::new();
        for (cid, tuples) in send_results {
            let ch = &self.channels[cid.index()];
            let outcomes = match ch.kind {
                QueueKind::Nested => {
                    let rel = to_relation(&tuples);
                    if rel.is_empty() && self.semantics.nested_send_skips_empty {
                        vec![SendOutcome::Nothing]
                    } else {
                        // Definition 2.4 enqueues the (possibly empty)
                        // message on every firing.
                        vec![SendOutcome::Send(Message::Nested(rel))]
                    }
                }
                QueueKind::Flat => match tuples.len() {
                    0 => vec![SendOutcome::Nothing],
                    1 => vec![SendOutcome::Send(Message::Flat(Tuple::from(
                        tuples[0].as_slice(),
                    )))],
                    _ if self.semantics.deterministic_send => vec![SendOutcome::Error],
                    _ => tuples
                        .iter()
                        .map(|t| SendOutcome::Send(Message::Flat(Tuple::from(t.as_slice()))))
                        .collect(),
                },
            };
            per_channel.push((cid, outcomes));
        }

        let mut variants = vec![base];
        for (cid, outcomes) in per_channel {
            let ch = &self.channels[cid.index()];
            let mut next: Vec<Config> = Vec::new();
            for v in &variants {
                for outcome in &outcomes {
                    match outcome {
                        SendOutcome::Nothing => next.push(v.clone()),
                        SendOutcome::Error => {
                            let mut c = v.clone();
                            c.error[cid.index()] = true;
                            next.push(c);
                        }
                        SendOutcome::Send(msg) => {
                            // The message is *sent* in every resolution.
                            let mut sent = v.clone();
                            sent.sent[cid.index()] = self.observed_sent[cid.index()];
                            if ch.lossy {
                                // In-transit loss: sent but never enqueued.
                                next.push(sent.clone());
                            }
                            // Delivery attempt: enqueue unless the queue is
                            // full (k-bounded semantics drop silently).
                            let mut delivered = sent;
                            if delivered.queues[cid.index()].len() < self.semantics.queue_bound {
                                delivered.queues[cid.index()].push_back(msg.clone());
                                delivered.received[cid.index()] =
                                    self.observed_received[cid.index()];
                            }
                            next.push(delivered);
                        }
                    }
                }
            }
            variants = next;
        }

        // 4. Choose the mover's next input in each resulting configuration.
        let mut out = Vec::new();
        for v in variants {
            out.extend(self.with_input_choices(db, domain, v, peer, ctx));
        }
        if self.semantics.strict_input_validity {
            out.retain(|c| self.all_inputs_valid(db, domain, c, ctx));
        }
        out
    }

    /// Branches a configuration over all valid input choices for `peer`
    /// (Definition 2.3: each input holds at most one tuple from its
    /// options; propositional inputs imply their options).
    fn with_input_choices(
        &self,
        db: &dyn Database,
        domain: &[Value],
        config: Config,
        peer: &Peer,
        ctx: EvalCtx<'_>,
    ) -> Vec<Config> {
        // Input rules never read inputs, so evaluating options against
        // `config` (whose inputs are about to be replaced) is sound.
        let mut choice_sets: Vec<(ddws_relational::RelId, Vec<Relation>)> = Vec::new();
        {
            let view = RuleView::new(self, db, &config, peer.id, domain);
            for (i, rule) in peer.input_rules.iter().enumerate() {
                let options =
                    ctx.eval_rule(RuleRef::Input(peer.id, i), &rule.head, &rule.body, &view);
                let mut choices: Vec<Relation> = vec![Relation::new()];
                if self.voc.arity(rule.rel) == 0 {
                    if !options.is_empty() {
                        choices.push(Relation::singleton(Tuple::unit()));
                    }
                } else {
                    for t in options.iter() {
                        choices.push(Relation::singleton(Tuple::from(t.as_slice())));
                    }
                }
                choice_sets.push((rule.rel, choices));
            }
        }
        let mut variants = vec![config];
        for (rel, choices) in choice_sets {
            let mut next = Vec::with_capacity(variants.len() * choices.len());
            for v in &variants {
                for choice in &choices {
                    let mut c = v.clone();
                    c.rel.set_relation(rel, choice.clone());
                    next.push(c);
                }
            }
            variants = next;
        }
        variants
    }

    /// Definition 2.3 validity for every peer (used by
    /// [`Semantics::strict_input_validity`](crate::Semantics)).
    fn all_inputs_valid(
        &self,
        db: &dyn Database,
        domain: &[Value],
        config: &Config,
        ctx: EvalCtx<'_>,
    ) -> bool {
        for peer in &self.peers {
            let view = RuleView::new(self, db, config, peer.id, domain);
            for (i, rule) in peer.input_rules.iter().enumerate() {
                let current = config.rel.relation(rule.rel);
                if current.is_empty() {
                    continue;
                }
                let options = to_relation(&ctx.eval_rule(
                    RuleRef::Input(peer.id, i),
                    &rule.head,
                    &rule.body,
                    &view,
                ));
                let ok = match current.the_tuple() {
                    Some(t) => options.contains(t),
                    None => false, // more than one tuple can never be valid
                };
                if !ok {
                    return false;
                }
            }
        }
        true
    }

    /// Environment transitions (§5): nondeterministically consume from
    /// `E.Q_in` and send over `E.Q_out` with values from the verification
    /// domain.
    fn env_successors(&self, _db: &dyn Database, domain: &[Value], config: &Config) -> Vec<Config> {
        let mut base = config.clone();
        for i in 0..self.channels.len() {
            base.received[i] = false;
            base.sent[i] = false;
        }

        // Consume: each env in-queue independently keeps or drops its head.
        let mut variants = vec![base];
        for cid in self.env_in_channels() {
            let mut next = Vec::new();
            for v in &variants {
                next.push(v.clone());
                if !v.queues[cid.index()].is_empty() {
                    let mut c = v.clone();
                    c.queues[cid.index()].pop_front();
                    next.push(c);
                }
            }
            variants = next;
        }

        // Emit: each env out-queue independently stays silent or sends one
        // message over the domain.
        for cid in self.env_out_channels() {
            let ch = &self.channels[cid.index()];
            let messages = env_messages(
                ch.kind,
                ch.arity,
                domain,
                self.semantics.env_nested_message_max,
            );
            let mut next = Vec::new();
            for v in &variants {
                next.push(v.clone());
                for msg in &messages {
                    let mut sent = v.clone();
                    sent.sent[cid.index()] = self.observed_sent[cid.index()];
                    if ch.lossy {
                        next.push(sent.clone());
                    }
                    let mut delivered = sent;
                    if delivered.queues[cid.index()].len() < self.semantics.queue_bound {
                        delivered.queues[cid.index()].push_back(msg.clone());
                        delivered.received[cid.index()] = self.observed_received[cid.index()];
                    }
                    next.push(delivered);
                }
            }
            variants = next;
        }
        variants
    }
}

/// All messages the environment can emit on a channel (shared with the
/// compact stepper, which interns them once per channel).
pub(crate) fn env_messages(
    kind: QueueKind,
    arity: usize,
    domain: &[Value],
    nested_max: usize,
) -> Vec<Message> {
    let tuples = all_tuples(domain, arity);
    match kind {
        QueueKind::Flat => tuples.into_iter().map(Message::Flat).collect(),
        QueueKind::Nested => {
            // All subsets of size ≤ nested_max, including the empty message.
            let mut out = vec![Message::Nested(Relation::new())];
            let mut current: Vec<Relation> = vec![Relation::new()];
            for _ in 0..nested_max {
                let mut grown = Vec::new();
                for r in &current {
                    for t in &tuples {
                        if !r.contains(t) {
                            let mut r2 = r.clone();
                            r2.insert(t.clone());
                            grown.push(r2);
                        }
                    }
                }
                // Dedup via canonical form.
                grown = dedup_preserving_order(grown);
                out.extend(grown.iter().cloned().map(Message::Nested));
                current = grown;
            }
            out
        }
    }
}

/// Every tuple over `domain` of the given arity.
fn all_tuples(domain: &[Value], arity: usize) -> Vec<Tuple> {
    let mut out = vec![Vec::new()];
    for _ in 0..arity {
        let mut next = Vec::with_capacity(out.len() * domain.len());
        for t in &out {
            for &d in domain {
                let mut t2 = t.clone();
                t2.push(d);
                next.push(t2);
            }
        }
        out = next;
    }
    out.into_iter().map(Tuple::from).collect()
}

pub(crate) fn to_relation(tuples: &[Vec<Value>]) -> Relation {
    Relation::from_tuples(tuples.iter().map(|t| Tuple::from(t.as_slice())))
}

/// Order-preserving dedup without cloning the items: candidates are moved
/// into the output once, a 64-bit fingerprint pre-screens for duplicates,
/// and only fingerprint collisions pay an exact comparison (against the
/// already-kept item — never a deep copy).
pub(crate) fn dedup_preserving_order<T: Hash + Eq>(items: Vec<T>) -> Vec<T> {
    if items.len() <= 1 {
        return items;
    }
    let mut by_fp: FxHashMap<u64, Vec<usize>> =
        FxHashMap::with_capacity_and_hasher(items.len(), Default::default());
    let mut out: Vec<T> = Vec::with_capacity(items.len());
    for item in items {
        let kept = by_fp.entry(fx_hash(&item)).or_default();
        if kept.iter().any(|&i| out[i] == item) {
            continue;
        }
        kept.push(out.len());
        out.push(item);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CompositionBuilder;
    use crate::composition::Semantics;
    use ddws_relational::{Instance, Value};

    /// A two-peer ping-pong: Alice's user picks a friend to greet, Alice
    /// pings Bob, Bob records it and pongs back.
    fn ping_pong(lossy: bool) -> (Composition, Instance, Vec<Value>) {
        let mut b = CompositionBuilder::new();
        b.default_lossy(lossy);
        b.channel("ping", 1, QueueKind::Flat, "Alice", "Bob");
        b.channel("pong", 1, QueueKind::Flat, "Bob", "Alice");
        b.peer("Alice")
            .database("friend", 1)
            .state("ponged", 1)
            .input("greet", 1)
            .input_rule("greet", &["x"], "friend(x)")
            .state_insert_rule("ponged", &["x"], "?pong(x)")
            .send_rule("ping", &["x"], "greet(x)");
        b.peer("Bob")
            .state("seen", 1)
            .state_insert_rule("seen", &["x"], "?ping(x)")
            .send_rule("pong", &["x"], "?ping(x)");
        let comp = b.build().unwrap();
        let mut db = Instance::empty(&comp.voc);
        let friend = comp.voc.lookup("Alice.friend").unwrap();
        db.relation_mut(friend).insert(Tuple::new(vec![Value(0)]));
        (comp, db, vec![Value(0), Value(1)])
    }

    #[test]
    fn initial_configs_enumerate_input_choices() {
        let (comp, db, dom) = ping_pong(false);
        let configs = comp.initial_configs(&db, &dom);
        // Alice.greet: no input or greet(0) — friend(1) is not in the DB.
        assert_eq!(configs.len(), 2);
        let greet = comp.voc.lookup("Alice.greet").unwrap();
        let extensions: Vec<usize> = configs
            .iter()
            .map(|c| c.rel.relation(greet).len())
            .collect();
        assert!(extensions.contains(&0));
        assert!(extensions.contains(&1));
    }

    #[test]
    fn greeting_flows_through_perfect_channels() {
        let (comp, db, dom) = ping_pong(false);
        let alice = comp.peer_by_name("Alice").unwrap().id;
        let bob = comp.peer_by_name("Bob").unwrap().id;
        let greet = comp.voc.lookup("Alice.greet").unwrap();
        let seen = comp.voc.lookup("Bob.seen").unwrap();
        let ponged = comp.voc.lookup("Alice.ponged").unwrap();
        let (ping_id, _) = comp.channel_by_name("ping").unwrap();

        // Initial config where Alice greets 0.
        let init = comp
            .initial_configs(&db, &dom)
            .into_iter()
            .find(|c| c.rel.relation(greet).len() == 1)
            .unwrap();

        // Alice moves: the greeting is sent on `ping`.
        let after_alice: Vec<Config> = comp.successors(&db, &dom, &init, Mover::Peer(alice));
        assert!(!after_alice.is_empty());
        let with_ping = after_alice
            .iter()
            .find(|c| !c.queues[ping_id.index()].is_empty())
            .expect("perfect channel must deliver");
        assert!(with_ping.received[ping_id.index()]);
        assert!(with_ping.sent[ping_id.index()]);
        // prev_greet now holds the greeting.
        let prev_greet = comp.voc.lookup("Alice.prev_greet").unwrap();
        assert_eq!(with_ping.rel.relation(prev_greet).len(), 1);

        // Bob moves: consumes ping, records seen, sends pong.
        let after_bob = comp.successors(&db, &dom, with_ping, Mover::Peer(bob));
        let done = after_bob
            .iter()
            .find(|c| c.rel.relation(seen).len() == 1)
            .expect("Bob records the ping");
        assert!(done.queues[ping_id.index()].is_empty(), "ping dequeued");
        let (pong_id, _) = comp.channel_by_name("pong").unwrap();
        assert!(!done.queues[pong_id.index()].is_empty(), "pong sent");

        // Alice moves again: ponged recorded. (pong is mentioned in her
        // state rule, so it is dequeued.)
        let after_alice2 = comp.successors(&db, &dom, done, Mover::Peer(alice));
        assert!(after_alice2
            .iter()
            .any(|c| c.rel.relation(ponged).len() == 1));
    }

    #[test]
    fn lossy_channels_branch_on_delivery() {
        let (comp, db, dom) = ping_pong(true);
        let alice = comp.peer_by_name("Alice").unwrap().id;
        let greet = comp.voc.lookup("Alice.greet").unwrap();
        let (ping_id, _) = comp.channel_by_name("ping").unwrap();
        let init = comp
            .initial_configs(&db, &dom)
            .into_iter()
            .find(|c| c.rel.relation(greet).len() == 1)
            .unwrap();
        let succs = comp.successors(&db, &dom, &init, Mover::Peer(alice));
        let delivered = succs
            .iter()
            .filter(|c| !c.queues[ping_id.index()].is_empty())
            .count();
        let lost = succs
            .iter()
            .filter(|c| c.queues[ping_id.index()].is_empty() && c.sent[ping_id.index()])
            .count();
        assert!(delivered > 0, "delivery branch exists");
        assert!(lost > 0, "loss branch exists");
    }

    #[test]
    fn full_queue_drops_messages() {
        let (comp, db, dom) = ping_pong(false);
        assert_eq!(comp.semantics.queue_bound, 1);
        let alice = comp.peer_by_name("Alice").unwrap().id;
        let greet = comp.voc.lookup("Alice.greet").unwrap();
        let (ping_id, _) = comp.channel_by_name("ping").unwrap();
        let init = comp
            .initial_configs(&db, &dom)
            .into_iter()
            .find(|c| c.rel.relation(greet).len() == 1)
            .unwrap();
        // Alice moves twice without Bob consuming: second send is dropped.
        let first = comp
            .successors(&db, &dom, &init, Mover::Peer(alice))
            .into_iter()
            .find(|c| !c.queues[ping_id.index()].is_empty() && c.rel.relation(greet).len() == 1)
            .unwrap();
        let second = comp.successors(&db, &dom, &first, Mover::Peer(alice));
        for c in &second {
            assert!(
                c.queues[ping_id.index()].len() <= 1,
                "queue bound must hold"
            );
        }
        // The send still happened (observer-at-source sees it).
        assert!(second.iter().any(|c| c.sent[ping_id.index()]
            && c.queues[ping_id.index()].len() == 1
            && !c.received[ping_id.index()]));
    }

    #[test]
    fn deterministic_send_raises_error_flag() {
        let mut b = CompositionBuilder::new();
        b.semantics(Semantics {
            deterministic_send: true,
            ..Semantics::default()
        });
        b.default_lossy(false);
        b.channel("out", 1, QueueKind::Flat, "P", "R");
        b.peer("P")
            .database("d", 1)
            .send_rule("out", &["x"], "d(x)");
        b.peer("R");
        let comp = b.build().unwrap();
        let d = comp.voc.lookup("P.d").unwrap();
        let mut db = Instance::empty(&comp.voc);
        db.relation_mut(d).insert(Tuple::new(vec![Value(0)]));
        db.relation_mut(d).insert(Tuple::new(vec![Value(1)]));
        let dom = vec![Value(0), Value(1)];
        let p = comp.peer_by_name("P").unwrap().id;
        let init = comp.initial_configs(&db, &dom).remove(0);
        let succs = comp.successors(&db, &dom, &init, Mover::Peer(p));
        let (out_id, _) = comp.channel_by_name("out").unwrap();
        assert_eq!(succs.len(), 1);
        assert!(succs[0].error[out_id.index()], "error flag raised");
        assert!(succs[0].queues[out_id.index()].is_empty(), "nothing sent");
    }

    #[test]
    fn nested_sends_enqueue_empty_messages() {
        let mut b = CompositionBuilder::new();
        b.default_lossy(false);
        b.channel("set", 1, QueueKind::Nested, "P", "R");
        b.peer("P")
            .database("d", 1)
            .send_rule("set", &["x"], "d(x) and false");
        b.peer("R");
        let comp = b.build().unwrap();
        let db = Instance::empty(&comp.voc);
        let dom = vec![Value(0)];
        let p = comp.peer_by_name("P").unwrap().id;
        let init = comp.initial_configs(&db, &dom).remove(0);
        let succs = comp.successors(&db, &dom, &init, Mover::Peer(p));
        let (set_id, _) = comp.channel_by_name("set").unwrap();
        assert_eq!(succs.len(), 1);
        let msg = succs[0].queues[set_id.index()].front().unwrap();
        assert!(msg.is_empty(), "paper semantics: empty nested message sent");
    }

    #[test]
    fn env_moves_consume_and_emit() {
        let mut b = CompositionBuilder::new();
        b.default_lossy(false);
        b.channel("req", 1, QueueKind::Flat, "P", crate::builder::ENV);
        b.channel("resp", 1, QueueKind::Flat, crate::builder::ENV, "P");
        b.peer("P")
            .state("got", 1)
            .state_insert_rule("got", &["x"], "?resp(x)")
            .send_rule("req", &["x"], "?resp(x)");
        let comp = b.build().unwrap();
        let db = Instance::empty(&comp.voc);
        let dom = vec![Value(0), Value(1)];
        let init = comp.initial_configs(&db, &dom).remove(0);
        let succs = comp.successors(&db, &dom, &init, Mover::Environment);
        let (resp_id, _) = comp.channel_by_name("resp").unwrap();
        // Silent + one message per domain value (perfect channel).
        assert_eq!(succs.len(), 3);
        assert!(succs.iter().any(|c| c.queues[resp_id.index()].is_empty()));
        for v in &dom {
            assert!(succs.iter().any(|c| c.queues[resp_id.index()]
                .front()
                .is_some_and(|m| m.contains(&[*v]))));
        }
    }
}
