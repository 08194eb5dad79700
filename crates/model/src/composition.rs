//! Compiled compositions.

use ddws_logic::input_bounded::{RelClass, SchemaClassifier};
use ddws_logic::parser::RelLookup;
use ddws_logic::{Fo, Vars};
use ddws_relational::{RelId, Symbols, Vocabulary};
use std::collections::HashMap;
use std::fmt;

/// Identifier of a peer within a composition.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PeerId(pub u32);

impl PeerId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Identifier of a channel (a message queue) within a composition.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChannelId(pub u32);

impl ChannelId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q{}", self.0)
    }
}

/// Queue flavour: flat queues carry single tuples, nested queues carry sets
/// of tuples (Section 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum QueueKind {
    /// Single-tuple messages; a send rule yielding several candidates picks
    /// one nondeterministically (or raises the error flag under the
    /// deterministic-send semantics of Theorem 3.8).
    Flat,
    /// Set-of-tuples messages; one message per rule firing.
    Nested,
}

/// One end of a channel: a peer of the composition or the environment of an
/// open composition (§5).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// A composition member.
    Peer(PeerId),
    /// The (unspecified) environment.
    Environment,
}

/// How a relation symbol hooks into a channel (the reverse index used by
/// snapshot evaluation, avoiding a per-atom scan over the channel list).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChannelRole {
    /// Receiver-side `?q` atom (reads `f(q)`).
    In,
    /// Sender-side `!q` atom (reads `l(q)`).
    Out,
    /// Queue-state proposition `empty_q`.
    Empty,
    /// Bookkeeping `received_q`.
    Received,
    /// Bookkeeping `sent_q`.
    Sent,
    /// Deterministic-send error flag.
    Error,
    /// Nested-message emptiness test (Theorem 3.9).
    MsgEmpty,
}

/// The entity taking a step: used as part of the verifier's search state,
/// since the snapshot proposition `moveW` labels the *outgoing* transition.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Mover {
    /// A peer moves (Definition 2.4/2.6).
    Peer(PeerId),
    /// The environment moves (only in open compositions).
    Environment,
}

/// A compiled channel with all its schema hooks.
#[derive(Clone, Debug)]
pub struct Channel {
    /// Unqualified queue name (e.g. `apply`).
    pub name: String,
    /// Message tuple arity.
    pub arity: usize,
    /// Flat or nested.
    pub kind: QueueKind,
    /// Sender end.
    pub sender: Endpoint,
    /// Receiver end.
    pub receiver: Endpoint,
    /// Whether messages may be lost in transit (§2, "lossy channels").
    pub lossy: bool,
    /// Receiver-side atom `?q` (reads the first message `f(q)`); absent for
    /// environment receivers.
    pub in_rel: Option<RelId>,
    /// Sender-side atom `!q` (reads the last message `l(q)`); present for
    /// environment senders too (environment specs mention them).
    pub out_rel: RelId,
    /// Receiver-side queue-state proposition `empty_q` (Definition 2.1).
    pub empty_rel: Option<RelId>,
    /// Bookkeeping proposition `received_q`: a message was enqueued in the
    /// transition leading to this snapshot (§4 observer-at-recipient, §5).
    pub received_rel: RelId,
    /// Bookkeeping proposition `sent_q`: the sender emitted a message in
    /// that transition, whether or not it was enqueued (§4
    /// observer-at-source).
    pub sent_rel: RelId,
    /// Sender-side error flag for the deterministic-send semantics of
    /// Theorem 3.8 (only for flat channels with a peer sender).
    pub error_rel: Option<RelId>,
    /// The nested-message emptiness test of Theorem 3.9: true iff the first
    /// message of the queue is the empty set (only for nested channels with
    /// a peer receiver). Outside the input-bounded language.
    pub msg_empty_rel: Option<RelId>,
}

/// A state relation's update rules (either may be absent; both firing on the
/// same tuple is a no-op, Definition 2.4).
#[derive(Clone, Debug)]
pub struct StateRule {
    /// The state relation.
    pub rel: RelId,
    /// Head variables (shared by both bodies).
    pub head: Vec<ddws_logic::VarId>,
    /// Insertion body `ϕ+`.
    pub insert: Option<Fo>,
    /// Deletion body `ϕ−`.
    pub delete: Option<Fo>,
}

/// A rule with a head relation and body.
#[derive(Clone, Debug)]
pub struct HeadRule {
    /// The head relation (input options / action / out-queue).
    pub rel: RelId,
    /// Head variables.
    pub head: Vec<ddws_logic::VarId>,
    /// Body formula.
    pub body: Fo,
}

/// A compiled peer.
#[derive(Clone, Debug)]
pub struct Peer {
    /// Peer name (qualifies its relations in the global vocabulary).
    pub name: String,
    /// This peer's id.
    pub id: PeerId,
    /// Database relations (fixed during runs).
    pub database: Vec<RelId>,
    /// State relations (excluding queue states and error flags, which are
    /// tracked per channel).
    pub states: Vec<RelId>,
    /// Input relations.
    pub inputs: Vec<RelId>,
    /// `prev` chains per input: `prev[i][j]` is the (j+1)-th most recent
    /// non-empty input to `inputs[i]` (k-lookback; the paper's `prevI` is
    /// lookback 1).
    pub prev: Vec<Vec<RelId>>,
    /// Action relations.
    pub actions: Vec<RelId>,
    /// Channels this peer receives from.
    pub in_channels: Vec<ChannelId>,
    /// Channels this peer sends to.
    pub out_channels: Vec<ChannelId>,
    /// In-channels mentioned in some rule body — these are dequeued on every
    /// move (Definition 2.4).
    pub dequeues: Vec<ChannelId>,
    /// Input rules (`Options_I`), one per input relation, aligned with
    /// `inputs`.
    pub input_rules: Vec<HeadRule>,
    /// State rules.
    pub state_rules: Vec<StateRule>,
    /// Action rules.
    pub action_rules: Vec<HeadRule>,
    /// Send rules, keyed by out-channel.
    pub send_rules: Vec<(ChannelId, HeadRule)>,
}

/// Channel and run semantics knobs (the axes of the paper's decidability
/// map).
#[derive(Clone, Copy, Debug)]
pub struct Semantics {
    /// Queue capacity `k` (Theorem 3.4 requires bounded queues; arriving
    /// messages are dropped when the receiver's queue is full).
    pub queue_bound: usize,
    /// Deterministic-send semantics for flat queues (Theorem 3.8): a send
    /// rule yielding multiple candidates sends nothing and raises the
    /// channel's error flag instead of picking nondeterministically.
    pub deterministic_send: bool,
    /// Whether a nested send rule with an empty result still enqueues the
    /// empty message. The paper's Definition 2.4 enqueues unconditionally;
    /// `true` skips empty messages (a pragmatic deviation, off by default).
    pub nested_send_skips_empty: bool,
    /// Maximum number of tuples in a message the *environment* may send on a
    /// nested channel (the environment of §5 uses values from a finite
    /// domain; this bounds its nested-message branching).
    pub env_nested_message_max: usize,
    /// Input lookback `k`: peers may consult the `k` most recent non-empty
    /// inputs via `prev_I, prev2_I, …` (the k-lookback extension used by the
    /// proof of Theorem 3.4; the paper's base model is `1`).
    pub lookback: usize,
    /// Enforce Definition 2.3's input-validity constraint on *every* peer in
    /// every configuration (not just the mover at its move). Literal but
    /// expensive; off by default — see DESIGN.md.
    pub strict_input_validity: bool,
}

impl Default for Semantics {
    fn default() -> Self {
        Semantics {
            queue_bound: 1,
            deterministic_send: false,
            nested_send_skips_empty: false,
            env_nested_message_max: 1,
            lookback: 1,
            strict_input_validity: false,
        }
    }
}

/// A compiled, validated composition.
#[derive(Clone, Debug)]
pub struct Composition {
    /// Constant/value symbol table (shared with databases and properties).
    pub symbols: Symbols,
    /// Variable table (shared by all rules; extended by property parsing).
    pub vars: Vars,
    /// The global composition schema: every peer relation qualified by peer
    /// name, queue relations on both ends, and bookkeeping propositions.
    pub voc: Vocabulary,
    /// The peers.
    pub peers: Vec<Peer>,
    /// The channels.
    pub channels: Vec<Channel>,
    /// Schema class per relation (aligned with `voc`).
    pub classes: Vec<RelClass>,
    /// Semantics knobs.
    pub semantics: Semantics,
    /// `move_{peer}` propositions, aligned with `peers`.
    pub move_rels: Vec<RelId>,
    /// `move_ENV` proposition (present iff the composition is open).
    pub move_env_rel: Option<RelId>,
    /// Constants mentioned in rules (used for the verification domain).
    pub rule_constants: Vec<ddws_relational::Value>,
    /// Which channels' `received_q` flag is tracked in configurations.
    ///
    /// The flags are semantically always defined, but tracking one the
    /// property never reads doubles the state space per channel for
    /// nothing. Defaults to all-tracked; the verifier masks the set down to
    /// the channels its atoms actually observe
    /// ([`Composition::observe_flags`]).
    pub observed_received: Vec<bool>,
    /// Which channels' `sent_q` flag is tracked (see `observed_received`).
    pub observed_sent: Vec<bool>,
    /// Reverse index: relation → (channel, role), for the queue-backed
    /// relations; `None` for ordinary relations.
    pub rel_channel: Vec<Option<(ChannelId, ChannelRole)>>,
    /// Relations mentioned in any rule body (used to decide what can be
    /// frozen without affecting behaviour).
    pub rule_mentioned: std::collections::BTreeSet<RelId>,
    /// Relations whose updates are *frozen* (left empty) because neither a
    /// rule nor an observed property atom reads them: unread previous-input
    /// chains and unobserved action relations. Freezing is behaviour-
    /// preserving for everything that can still be evaluated, and collapses
    /// otherwise-distinct configurations.
    pub frozen: Vec<bool>,
}

impl Composition {
    /// Restricts flag tracking to the given relations: any `received_q` /
    /// `sent_q` relation in `observed` keeps its flag; all others are
    /// frozen to false (sound for any property that does not mention them).
    pub fn observe_flags(&mut self, observed: &std::collections::BTreeSet<RelId>) {
        for (i, ch) in self.channels.iter().enumerate() {
            self.observed_received[i] = observed.contains(&ch.received_rel);
            self.observed_sent[i] = observed.contains(&ch.sent_rel);
        }
    }

    /// Freezes every relation that neither a rule nor `observed` reads:
    /// previous-input chains and action relations become inert (their
    /// updates are skipped, so configurations that differ only in them
    /// collapse). Call with the set of relations the property/protocol
    /// mentions. A freshly built composition freezes nothing.
    pub fn freeze_unobserved(&mut self, observed: &std::collections::BTreeSet<RelId>) {
        self.frozen = vec![false; self.voc.len()];
        for peer in &self.peers {
            for chain in &peer.prev {
                for &prev_rel in chain {
                    if !self.rule_mentioned.contains(&prev_rel) && !observed.contains(&prev_rel) {
                        self.frozen[prev_rel.index()] = true;
                    }
                }
            }
            for &action in &peer.actions {
                // Rules can never read actions (Definition 2.1), so only
                // the property matters.
                if !observed.contains(&action) {
                    self.frozen[action.index()] = true;
                }
            }
            for &state in &peer.states {
                // A state relation read by no rule and no property atom
                // influences nothing: its updates can be skipped.
                if !self.rule_mentioned.contains(&state) && !observed.contains(&state) {
                    self.frozen[state.index()] = true;
                }
            }
        }
    }

    /// Whether the composition is closed: every channel connects two peers
    /// (Definition 2.5).
    pub fn is_closed(&self) -> bool {
        self.channels
            .iter()
            .all(|c| c.sender != Endpoint::Environment && c.receiver != Endpoint::Environment)
    }

    /// The peer with the given name.
    pub fn peer_by_name(&self, name: &str) -> Option<&Peer> {
        self.peers.iter().find(|p| p.name == name)
    }

    /// The channel with the given name.
    pub fn channel_by_name(&self, name: &str) -> Option<(ChannelId, &Channel)> {
        self.channels
            .iter()
            .enumerate()
            .find(|(_, c)| c.name == name)
            .map(|(i, c)| (ChannelId(i as u32), c))
    }

    /// All movers: every peer, plus the environment if the composition is
    /// open.
    pub fn movers(&self) -> Vec<Mover> {
        let mut m: Vec<Mover> = self.peers.iter().map(|p| Mover::Peer(p.id)).collect();
        if !self.is_closed() {
            m.push(Mover::Environment);
        }
        m
    }

    /// Channels the environment sends on (`E.Q_out`).
    pub fn env_out_channels(&self) -> Vec<ChannelId> {
        self.channels
            .iter()
            .enumerate()
            .filter(|(_, c)| c.sender == Endpoint::Environment)
            .map(|(i, _)| ChannelId(i as u32))
            .collect()
    }

    /// Channels the environment consumes from (`E.Q_in`).
    pub fn env_in_channels(&self) -> Vec<ChannelId> {
        self.channels
            .iter()
            .enumerate()
            .filter(|(_, c)| c.receiver == Endpoint::Environment)
            .map(|(i, _)| ChannelId(i as u32))
            .collect()
    }

    /// The schema class of a relation.
    pub fn class(&self, rel: RelId) -> RelClass {
        self.classes[rel.index()]
    }
}

impl Composition {
    /// Checks the peer-side input-boundedness conditions of §3.1:
    ///
    /// * state, action and *nested*-queue send rules are input-bounded
    ///   formulas;
    /// * input rules and *flat*-queue send rules are `∃*FO` with ground
    ///   state and nested-queue atoms.
    ///
    /// This is the precondition of the decidability theorems (3.4, 4.2,
    /// 4.5, 5.4); the verifier enforces it by default.
    pub fn check_input_bounded(
        &self,
        opts: ddws_logic::input_bounded::IbOptions,
    ) -> Result<(), Vec<ddws_logic::input_bounded::IbViolation>> {
        use ddws_logic::input_bounded::{check_exists_star_ground, check_input_bounded_fo};
        let mut violations = Vec::new();
        let mut note =
            |peer: &str, what: &str, r: Result<(), Vec<ddws_logic::input_bounded::IbViolation>>| {
                if let Err(vs) = r {
                    for v in vs {
                        violations.push(ddws_logic::input_bounded::IbViolation {
                            message: format!("peer `{peer}`, {what}: {}", v.message),
                        });
                    }
                }
            };
        for peer in &self.peers {
            for sr in &peer.state_rules {
                let name = self.voc.name(sr.rel);
                for body in [&sr.insert, &sr.delete].into_iter().flatten() {
                    note(
                        &peer.name,
                        &format!("state rule for `{name}`"),
                        check_input_bounded_fo(body, self, opts),
                    );
                }
            }
            for ar in &peer.action_rules {
                note(
                    &peer.name,
                    &format!("action rule for `{}`", self.voc.name(ar.rel)),
                    check_input_bounded_fo(&ar.body, self, opts),
                );
            }
            for (cid, rule) in &peer.send_rules {
                let ch = &self.channels[cid.index()];
                match ch.kind {
                    QueueKind::Nested => note(
                        &peer.name,
                        &format!("nested send rule for `{}`", ch.name),
                        check_input_bounded_fo(&rule.body, self, opts),
                    ),
                    QueueKind::Flat => note(
                        &peer.name,
                        &format!("flat send rule for `{}`", ch.name),
                        check_exists_star_ground(&rule.body, self),
                    ),
                }
            }
            for ir in &peer.input_rules {
                note(
                    &peer.name,
                    &format!("input rule for `{}`", self.voc.name(ir.rel)),
                    check_exists_star_ground(&ir.body, self),
                );
            }
        }
        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations)
        }
    }
}

impl SchemaClassifier for Composition {
    fn class(&self, rel: RelId) -> RelClass {
        self.classes[rel.index()]
    }

    fn rel_name(&self, rel: RelId) -> String {
        self.voc.name(rel).to_owned()
    }
}

/// A peer-local name scope for parsing rule bodies: resolves `customer`,
/// `?apply`, `!getRating`, `prev_reccom`, `empty_apply`, `error_req`,
/// `msgempty_history` to the qualified relations of the composition schema.
pub struct PeerScope<'a> {
    /// The global vocabulary.
    pub voc: &'a Vocabulary,
    /// Local-name map for the peer under construction.
    pub local: &'a HashMap<String, RelId>,
}

impl RelLookup for PeerScope<'_> {
    fn lookup_rel(&self, name: &str) -> Option<RelId> {
        self.local.get(name).copied()
    }

    fn rel_arity(&self, rel: RelId) -> usize {
        self.voc.arity(rel)
    }
}
