//! Succinct interned configurations and allocation-light successor
//! generation.
//!
//! The input-bounded fragment (PODS 2006, §3.1) closes the value domain
//! before the search starts, so every relation extension and every queued
//! message a reachable configuration can hold is drawn from a small, fixed
//! universe. [`StatePool`] exploits this with two layers:
//!
//! * **Bit-packing.** Each vocabulary slot and each channel gets a
//!   [`PackSpec`] sized to the run's value capacity; a relation extension
//!   becomes a sorted `Box<[u64]>` of tuple codes, and Definition 2.4's
//!   state update collapses to one three-way linear merge over machine
//!   words ([`codes_apply_update`]). Slots whose packed form would exceed
//!   64 bits fall back to interning the legacy [`Relation`] ("wide").
//! * **Hash-consing.** Every distinct extension (packed or wide) is
//!   interned once in the pool's sharded tables; a [`CompactConfig`] is
//!   then three flat arrays of handles and flag words, so cloning a
//!   configuration is three `memcpy`s and equality/hashing never walk
//!   tuples. Interned `Arc` entries are copy-on-write: the tables never
//!   mutate an entry, and resolution hands out aliases.
//!
//! The compact stepper ([`StatePool::successors`]) mirrors
//! [`Composition::successors`] branch for branch — same rule-evaluation
//! order, same nondeterministic resolution order, same dedup — so the two
//! representations produce identical successor *sequences*, which the
//! representation-equivalence differential suite pins tuple for tuple. The
//! legacy path stays compiled-in as the oracle of record
//! (`VerifyOptions::state_repr` in the verifier).
//!
//! One pool serves one search: it is sized to a `(composition, domain)`
//! pair and caches the environment's message alphabet per channel, so it
//! must not be reused across domains.

use crate::canon::{self, queue_key, Part, ValueClasses, ValuePerm};
use crate::composition::{ChannelRole, Composition, Mover, Peer, PeerId, QueueKind};
use crate::config::{Config, Message};
use crate::plan::{EvalCtx, RuleRef};
use crate::step::{dedup_preserving_order, env_messages, to_relation};
use crate::view::{Database, EvalView, ReadSlot};
use ddws_logic::input_bounded::RelClass;
use ddws_logic::Structure;
use ddws_relational::intern::{codes_apply_update, codes_contain};
use ddws_relational::{Interner, PackSpec, RelId, Relation, Tuple, Value};
use std::sync::{Arc, OnceLock};

/// The handle marking an absent queue position in [`CompactConfig::queues`].
const NONE: u32 = u32::MAX;

/// How one vocabulary slot (or channel alphabet) is encoded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Enc {
    /// Tuples pack into `u64` codes; extensions are sorted code slices.
    Packed(PackSpec),
    /// Packed form would exceed 64 bits; extensions intern as [`Relation`]s.
    Wide,
}

impl Enc {
    fn of(value_capacity: usize, arity: usize) -> Enc {
        match PackSpec::new(value_capacity, arity) {
            Some(spec) => Enc::Packed(spec),
            None => Enc::Wide,
        }
    }
}

/// A transition-scoped boolean of a channel.
#[derive(Clone, Copy)]
enum Flag {
    Received,
    Sent,
    Error,
}

/// A configuration in interned form: one extension handle per vocabulary
/// slot, one message handle per queue position (`u32::MAX` = absent, front
/// at offset 0), and the `received`/`sent`/`error` flags bit-packed into
/// words. Equality and hashing are flat word comparisons; cloning is three
/// buffer copies.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CompactConfig {
    rels: Box<[u32]>,
    queues: Box<[u32]>,
    flags: Box<[u64]>,
}

impl CompactConfig {
    /// Approximate heap footprint in bytes (checkpoint-size accounting).
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<CompactConfig>()
            + self.rels.len() * 4
            + self.queues.len() * 4
            + self.flags.len() * 8
    }
}

/// Where a canonical-form part's handle lives in a [`CompactConfig`].
#[derive(Clone, Copy)]
enum HandleAt {
    /// `rels[slot]`.
    Rel(usize),
    /// `queues[i]`.
    Queue(usize),
}

/// The per-search intern pool: encodings, hash-cons tables and the
/// compact stepper. See the module docs for the layout.
pub struct StatePool {
    /// Per-vocabulary-slot encoding.
    slots: Box<[Enc]>,
    /// Per-channel message-content encoding.
    chans: Box<[Enc]>,
    packed: Interner<Box<[u64]>>,
    wide: Interner<Relation>,
    empty_packed: u32,
    empty_wide: u32,
    queue_bound: usize,
    n_channels: usize,
    /// The environment's message alphabet per channel, interned once.
    env_msgs: Box<[OnceLock<Vec<u32>>]>,
    /// Per-vocabulary-slot footprint handle for the *fixed* database's
    /// extension, interned lazily on first use. A pool serves exactly one
    /// verification run over one database (the same invariant that scopes
    /// the rule memo table), so a database read contributes a constant
    /// O(1) handle to every footprint key instead of a fresh scan + clone
    /// per rule evaluation.
    db_slots: Box<[OnceLock<u32>]>,
    empty_config: CompactConfig,
}

impl StatePool {
    /// Builds a pool for `comp` where every packable value index is below
    /// `value_capacity` (the verifier derives this from the closed
    /// input-bounded domain; see `verifier::domain`).
    pub fn new(comp: &Composition, value_capacity: usize) -> StatePool {
        let cap = value_capacity.max(1);
        let packed: Interner<Box<[u64]>> = Interner::new();
        let wide: Interner<Relation> = Interner::new();
        let empty_packed = packed.intern(Box::from([]));
        let empty_wide = wide.intern(Relation::new());
        let slots: Box<[Enc]> = comp
            .voc
            .iter()
            .map(|(rel, _)| Enc::of(cap, comp.voc.arity(rel)))
            .collect();
        let chans: Box<[Enc]> = comp
            .channels
            .iter()
            .map(|c| Enc::of(cap, c.arity))
            .collect();
        let n_channels = comp.channels.len();
        let queue_bound = comp.semantics.queue_bound;
        let db_slots: Box<[OnceLock<u32>]> = (0..slots.len()).map(|_| OnceLock::new()).collect();
        let empty_config = CompactConfig {
            rels: slots
                .iter()
                .map(|e| match e {
                    Enc::Packed(_) => empty_packed,
                    Enc::Wide => empty_wide,
                })
                .collect(),
            queues: vec![NONE; n_channels * queue_bound].into_boxed_slice(),
            flags: vec![0u64; (3 * n_channels).div_ceil(64)].into_boxed_slice(),
        };
        StatePool {
            slots,
            chans,
            packed,
            wide,
            empty_packed,
            empty_wide,
            queue_bound,
            n_channels,
            env_msgs: (0..n_channels).map(|_| OnceLock::new()).collect(),
            db_slots,
            empty_config,
        }
    }

    // --- Interning and resolution -------------------------------------

    fn empty_handle(&self, enc: Enc) -> u32 {
        match enc {
            Enc::Packed(_) => self.empty_packed,
            Enc::Wide => self.empty_wide,
        }
    }

    fn handle_is_empty(&self, enc: Enc, h: u32) -> bool {
        h == self.empty_handle(enc)
    }

    /// Interns a rule-evaluation extension (sorted tuple rows).
    fn intern_ext(&self, enc: Enc, tuples: &[Vec<Value>]) -> u32 {
        match enc {
            Enc::Packed(spec) => {
                let codes = spec
                    .pack_all(tuples.iter().map(Vec::as_slice))
                    .expect("input-bounded extension packs over the closed domain");
                self.packed.intern(codes.into_boxed_slice())
            }
            Enc::Wide => self.wide.intern(to_relation(tuples)),
        }
    }

    /// Interns a canonical [`Relation`].
    fn intern_relation(&self, enc: Enc, rel: &Relation) -> u32 {
        match enc {
            Enc::Packed(spec) => {
                let codes = spec
                    .pack_all(rel.iter().map(|t| t.values()))
                    .expect("input-bounded relation packs over the closed domain");
                self.packed.intern(codes.into_boxed_slice())
            }
            Enc::Wide => self.wide.intern(rel.clone()),
        }
    }

    /// Interns a single tuple as a singleton extension.
    fn intern_tuple(&self, enc: Enc, tuple: &[Value]) -> u32 {
        match enc {
            Enc::Packed(spec) => {
                let code = spec
                    .pack(tuple)
                    .expect("input-bounded tuple packs over the closed domain");
                self.packed.intern(Box::from([code]))
            }
            Enc::Wide => self.wide.intern(Relation::singleton(Tuple::from(tuple))),
        }
    }

    /// Footprint handle for a database relation: the fixed database's
    /// extension, interned once per pool lifetime and answered from the
    /// per-slot cache afterwards. Returns `None` when the database cannot
    /// be enumerated (the oracle-backed all-databases search), which makes
    /// the footprint unkeyable — exactly the legacy fallback.
    ///
    /// Concurrent first calls may both scan and intern, but `to_relation`
    /// canonicalizes the rows and the interner dedups by value, so every
    /// caller caches the same handle.
    fn db_handle(&self, rel: RelId, db: &dyn Database) -> Option<u32> {
        if let Some(&h) = self.db_slots[rel.index()].get() {
            return Some(h);
        }
        let ext = db.db_scan(rel)?;
        let h = self.wide.intern(to_relation(&ext));
        Some(*self.db_slots[rel.index()].get_or_init(|| h))
    }

    fn intern_message(&self, enc: Enc, msg: &Message) -> u32 {
        match msg {
            Message::Flat(t) => self.intern_tuple(enc, t.values()),
            Message::Nested(r) => self.intern_relation(enc, r),
        }
    }

    /// Materializes a handle back into a canonical relation.
    fn expand_handle(&self, enc: Enc, h: u32) -> Relation {
        match enc {
            Enc::Packed(spec) => Relation::from_tuples(spec.unpack_all(&self.packed.resolve(h))),
            Enc::Wide => (*self.wide.resolve(h)).clone(),
        }
    }

    fn handle_contains(&self, enc: Enc, h: u32, tuple: &[Value]) -> bool {
        match enc {
            Enc::Packed(spec) => match spec.pack(tuple) {
                // Out-of-capacity values cannot be stored, so they are
                // never members.
                Some(code) => codes_contain(&self.packed.resolve(h), code),
                None => false,
            },
            Enc::Wide => self.wide.resolve(h).contains_slice(tuple),
        }
    }

    fn handle_rows(&self, enc: Enc, h: u32) -> Vec<Vec<Value>> {
        match enc {
            Enc::Packed(spec) => self
                .packed
                .resolve(h)
                .iter()
                .map(|&c| spec.unpack(c))
                .collect(),
            Enc::Wide => self
                .wide
                .resolve(h)
                .iter()
                .map(|t| t.values().to_vec())
                .collect(),
        }
    }

    /// The single tuple of a singleton extension, if it is one.
    fn the_tuple(&self, enc: Enc, h: u32) -> Option<Vec<Value>> {
        match enc {
            Enc::Packed(spec) => {
                let codes = self.packed.resolve(h);
                match *codes.as_ref().as_ref() {
                    [code] => Some(spec.unpack(code)),
                    _ => None,
                }
            }
            Enc::Wide => self
                .wide
                .resolve(h)
                .the_tuple()
                .map(|t| t.values().to_vec()),
        }
    }

    /// Definition 2.4's no-op-on-conflict state update, handle to handle.
    fn apply_state_update(
        &self,
        enc: Enc,
        old: u32,
        ins: &[Vec<Value>],
        del: &[Vec<Value>],
    ) -> u32 {
        match enc {
            Enc::Packed(spec) => {
                let pack = |rows: &[Vec<Value>]| -> Vec<u64> {
                    spec.pack_all(rows.iter().map(Vec::as_slice))
                        .expect("input-bounded extension packs over the closed domain")
                };
                let old_codes = self.packed.resolve(old);
                let merged = codes_apply_update(&old_codes, &pack(ins), &pack(del));
                self.packed.intern(merged.into_boxed_slice())
            }
            Enc::Wide => {
                let inserts = to_relation(ins);
                let deletes = to_relation(del);
                let old = self.wide.resolve(old);
                let keep_conflict = old.intersection(&inserts).intersection(&deletes);
                let keep_untouched = old.difference(&inserts.union(&deletes));
                let new = inserts
                    .difference(&deletes)
                    .union(&keep_conflict)
                    .union(&keep_untouched);
                self.wide.intern(new)
            }
        }
    }

    // --- Queue and flag accessors -------------------------------------

    fn queue_len(&self, cc: &CompactConfig, channel: usize) -> usize {
        let q = &cc.queues[channel * self.queue_bound..(channel + 1) * self.queue_bound];
        q.iter().take_while(|&&h| h != NONE).count()
    }

    fn queue_front(&self, cc: &CompactConfig, channel: usize) -> Option<u32> {
        self.queue_bound
            .checked_sub(1)
            .map(|_| cc.queues[channel * self.queue_bound])
            .filter(|&h| h != NONE)
    }

    fn queue_back(&self, cc: &CompactConfig, channel: usize) -> Option<u32> {
        let len = self.queue_len(cc, channel);
        len.checked_sub(1)
            .map(|i| cc.queues[channel * self.queue_bound + i])
    }

    fn queue_pop_front(&self, cc: &mut CompactConfig, channel: usize) {
        let q = &mut cc.queues[channel * self.queue_bound..(channel + 1) * self.queue_bound];
        if q.first().is_some_and(|&h| h != NONE) {
            q.copy_within(1.., 0);
            q[self.queue_bound - 1] = NONE;
        }
    }

    /// Appends a message; the caller has already checked capacity.
    fn queue_push_back(&self, cc: &mut CompactConfig, channel: usize, h: u32) {
        let len = self.queue_len(cc, channel);
        debug_assert!(len < self.queue_bound, "queue bound violated");
        cc.queues[channel * self.queue_bound + len] = h;
    }

    fn flag_bit(&self, kind: Flag, channel: usize) -> usize {
        match kind {
            Flag::Received => channel,
            Flag::Sent => self.n_channels + channel,
            Flag::Error => 2 * self.n_channels + channel,
        }
    }

    fn flag(&self, cc: &CompactConfig, kind: Flag, channel: usize) -> bool {
        let bit = self.flag_bit(kind, channel);
        cc.flags[bit / 64] >> (bit % 64) & 1 == 1
    }

    fn set_flag(&self, cc: &mut CompactConfig, kind: Flag, channel: usize, v: bool) {
        let bit = self.flag_bit(kind, channel);
        if v {
            cc.flags[bit / 64] |= 1u64 << (bit % 64);
        } else {
            cc.flags[bit / 64] &= !(1u64 << (bit % 64));
        }
    }

    // --- Symmetry: canonical forms (see `canon`) ------------------------

    /// The rows of handle `h`, in order, flattened into one buffer, with
    /// their arity.
    fn handle_flat(&self, enc: Enc, h: u32) -> (usize, Vec<Value>) {
        match enc {
            Enc::Packed(spec) => {
                let codes = self.packed.resolve(h);
                let arity = spec.arity() as usize;
                let mut rows = Vec::with_capacity(codes.len() * arity);
                for &code in codes.iter() {
                    spec.unpack_into(code, &mut rows);
                }
                (arity, rows)
            }
            Enc::Wide => {
                let rel = self.wide.resolve(h);
                let arity = rel.iter().next().map_or(0, Tuple::arity);
                let rows = rel.iter().flat_map(|t| t.values().iter().copied());
                (arity, rows.collect())
            }
        }
    }

    /// Interns rows flattened into one buffer (any order; `arity > 0`).
    fn intern_flat(&self, enc: Enc, arity: usize, rows: &[Value]) -> u32 {
        match enc {
            Enc::Packed(spec) => {
                let codes = spec
                    .pack_all(rows.chunks(arity))
                    .expect("renamed rows pack over the closed domain");
                self.packed.intern(codes.into_boxed_slice())
            }
            Enc::Wide => self
                .wide
                .intern(Relation::from_tuples(rows.chunks(arity).map(Tuple::from))),
        }
    }

    /// The class-bearing content of `cc`, in the same key order and row
    /// order [`Config`]'s extraction uses, each part with the handle it
    /// came from.
    fn parts(&self, cc: &CompactConfig, classes: &ValueClasses) -> (Vec<Part>, Vec<HandleAt>) {
        let mut parts = Vec::new();
        let mut at = Vec::new();
        let mut visit = |enc: Enc, h: u32, key: u32, loc: HandleAt| {
            if self.handle_is_empty(enc, h) {
                return;
            }
            let (arity, rows) = self.handle_flat(enc, h);
            if let Some(part) = Part::new(classes, key, arity, rows) {
                parts.push(part);
                at.push(loc);
            }
        };
        for (slot, &enc) in self.slots.iter().enumerate() {
            visit(enc, cc.rels[slot], slot as u32, HandleAt::Rel(slot));
        }
        for c in 0..self.n_channels {
            for pos in 0..self.queue_bound {
                let i = c * self.queue_bound + pos;
                if cc.queues[i] == NONE {
                    break;
                }
                visit(
                    self.chans[c],
                    cc.queues[i],
                    queue_key(c, pos),
                    HandleAt::Queue(i),
                );
            }
        }
        (parts, at)
    }

    /// The orbit representative of `cc` under `classes`, with the
    /// permutation mapping `cc` onto it — the same representative
    /// [`Config::canonical`] picks for the expanded configuration. Only
    /// the handles holding class values are renamed and re-interned.
    pub fn canonical(
        &self,
        cc: &CompactConfig,
        classes: &ValueClasses,
    ) -> (CompactConfig, ValuePerm) {
        let (parts, at) = self.parts(cc, classes);
        let perm = canon::choose(classes, &parts);
        let mut out = cc.clone();
        if !perm.is_identity() {
            for (part, at) in parts.iter().zip(at) {
                let (enc, handle) = match at {
                    HandleAt::Rel(slot) => (self.slots[slot], &mut out.rels[slot]),
                    HandleAt::Queue(i) => (self.chans[i / self.queue_bound], &mut out.queues[i]),
                };
                *handle = self.intern_flat(enc, part.arity(), &part.renamed(&perm));
            }
        }
        (out, perm)
    }

    // --- Conversion to and from the legacy representation -------------

    /// Interns a legacy configuration.
    pub fn compact(&self, comp: &Composition, config: &Config) -> CompactConfig {
        let rels: Box<[u32]> = comp
            .voc
            .iter()
            .map(|(rel, _)| self.intern_relation(self.slots[rel.index()], config.rel.relation(rel)))
            .collect();
        let mut queues = vec![NONE; self.n_channels * self.queue_bound].into_boxed_slice();
        for (i, q) in config.queues.iter().enumerate() {
            assert!(q.len() <= self.queue_bound, "queue bound violated");
            for (j, msg) in q.iter().enumerate() {
                queues[i * self.queue_bound + j] = self.intern_message(self.chans[i], msg);
            }
        }
        let mut cc = CompactConfig {
            rels,
            queues,
            flags: vec![0u64; (3 * self.n_channels).div_ceil(64)].into_boxed_slice(),
        };
        for i in 0..self.n_channels {
            self.set_flag(&mut cc, Flag::Received, i, config.received[i]);
            self.set_flag(&mut cc, Flag::Sent, i, config.sent[i]);
            self.set_flag(&mut cc, Flag::Error, i, config.error[i]);
        }
        cc
    }

    /// Materializes a compact configuration back into the legacy form.
    pub fn expand(&self, comp: &Composition, cc: &CompactConfig) -> Config {
        let mut config = Config::empty(comp);
        for (rel, _) in comp.voc.iter() {
            let h = cc.rels[rel.index()];
            let enc = self.slots[rel.index()];
            if !self.handle_is_empty(enc, h) {
                config.rel.set_relation(rel, self.expand_handle(enc, h));
            }
        }
        for i in 0..self.n_channels {
            let kind = comp.channels[i].kind;
            for j in 0..self.queue_bound {
                let h = cc.queues[i * self.queue_bound + j];
                if h == NONE {
                    break;
                }
                let content = self.expand_handle(self.chans[i], h);
                let msg = match kind {
                    QueueKind::Nested => Message::Nested(content),
                    QueueKind::Flat => Message::Flat(
                        content
                            .the_tuple()
                            .expect("flat messages are singletons")
                            .clone(),
                    ),
                };
                config.queues[i].push_back(msg);
            }
            config.received[i] = self.flag(cc, Flag::Received, i);
            config.sent[i] = self.flag(cc, Flag::Sent, i);
            config.error[i] = self.flag(cc, Flag::Error, i);
        }
        config
    }

    // --- Telemetry and size accounting --------------------------------

    /// Intern calls answered from the tables so far.
    pub fn intern_hits(&self) -> u64 {
        self.packed.hits() + self.wide.hits()
    }

    /// Intern calls that created fresh entries so far.
    pub fn intern_misses(&self) -> u64 {
        self.packed.misses() + self.wide.misses()
    }

    /// Number of distinct interned extensions.
    pub fn len(&self) -> usize {
        self.packed.len() + self.wide.len()
    }

    /// Whether nothing beyond the pre-interned empties exists.
    pub fn is_empty(&self) -> bool {
        self.len() <= 2
    }

    /// Approximate heap bytes of the interned extensions.
    pub fn approx_bytes(&self) -> usize {
        self.packed.approx_bytes(|codes| codes.len() * 8 + 24)
            + self
                .wide
                .approx_bytes(|rel| rel.iter().map(|t| t.arity() * 4 + 24).sum::<usize>() + 24)
    }

    // --- The compact stepper ------------------------------------------

    /// Initial configurations, mirroring [`Composition::initial_configs`].
    pub fn initial_configs(
        &self,
        comp: &Composition,
        db: &dyn Database,
        domain: &[Value],
        ctx: EvalCtx<'_>,
    ) -> Vec<CompactConfig> {
        let mut configs = vec![self.empty_config.clone()];
        for peer in &comp.peers {
            configs = configs
                .into_iter()
                .flat_map(|c| self.with_input_choices(comp, db, domain, c, peer, ctx))
                .collect();
        }
        configs
    }

    /// Successor configurations, mirroring [`Composition::successors_with`]
    /// branch for branch so the successor sequences coincide.
    pub fn successors(
        &self,
        comp: &Composition,
        db: &dyn Database,
        domain: &[Value],
        cc: &CompactConfig,
        mover: Mover,
        ctx: EvalCtx<'_>,
    ) -> Vec<CompactConfig> {
        let raw = match mover {
            Mover::Peer(p) => self.peer_successors(comp, db, domain, cc, p, ctx),
            Mover::Environment => self.env_successors(comp, domain, cc),
        };
        dedup_preserving_order(raw)
    }

    #[allow(clippy::too_many_lines)]
    fn peer_successors(
        &self,
        comp: &Composition,
        db: &dyn Database,
        domain: &[Value],
        cc: &CompactConfig,
        pid: PeerId,
        ctx: EvalCtx<'_>,
    ) -> Vec<CompactConfig> {
        let peer = &comp.peers[pid.index()];
        let view = CompactView::for_rules(self, comp, db, cc, pid, domain);

        // 1. Evaluate every rule on the current snapshot (same order as the
        //    legacy stepper, so cache hit/miss sequences coincide).
        let mut state_updates: Vec<(usize, u32)> = Vec::new();
        for (i, sr) in peer.state_rules.iter().enumerate() {
            if comp.frozen[sr.rel.index()] {
                continue;
            }
            let inserts = sr
                .insert
                .as_ref()
                .map(|b| ctx.eval_rule(RuleRef::StateInsert(pid, i), &sr.head, b, &view));
            let deletes = sr
                .delete
                .as_ref()
                .map(|b| ctx.eval_rule(RuleRef::StateDelete(pid, i), &sr.head, b, &view));
            let slot = sr.rel.index();
            let new = self.apply_state_update(
                self.slots[slot],
                cc.rels[slot],
                inserts.as_deref().map_or(&[], Vec::as_slice),
                deletes.as_deref().map_or(&[], Vec::as_slice),
            );
            state_updates.push((slot, new));
        }

        let mut action_updates: Vec<(usize, u32)> = peer
            .actions
            .iter()
            .filter(|a| !comp.frozen[a.index()])
            .map(|&a| (a.index(), self.empty_handle(self.slots[a.index()])))
            .collect();
        for (i, ar) in peer.action_rules.iter().enumerate() {
            if comp.frozen[ar.rel.index()] {
                continue;
            }
            let ext = ctx.eval_rule(RuleRef::Action(pid, i), &ar.head, &ar.body, &view);
            if let Some(slot) = action_updates
                .iter_mut()
                .find(|(s, _)| *s == ar.rel.index())
            {
                slot.1 = self.intern_ext(self.slots[slot.0], &ext);
            }
        }

        let mut send_results: Vec<(crate::ChannelId, Arc<Vec<Vec<Value>>>)> = Vec::new();
        for (i, (cid, rule)) in peer.send_rules.iter().enumerate() {
            send_results.push((
                *cid,
                ctx.eval_rule(RuleRef::Send(pid, i), &rule.head, &rule.body, &view),
            ));
        }

        // 2. Build the deterministic part of the successor.
        let mut base = cc.clone();
        for (slot, h) in state_updates {
            base.rels[slot] = h;
        }
        for (slot, h) in action_updates {
            base.rels[slot] = h;
        }
        // Previous-input shift: a handle copy per chain link (prev slots
        // share the input's arity, hence its encoding).
        for (i, &input_rel) in peer.inputs.iter().enumerate() {
            let current = cc.rels[input_rel.index()];
            if !self.handle_is_empty(self.slots[input_rel.index()], current) {
                let chain = &peer.prev[i];
                for j in (1..chain.len()).rev() {
                    if comp.frozen[chain[j].index()] {
                        continue;
                    }
                    debug_assert_eq!(
                        self.slots[chain[j].index()],
                        self.slots[chain[j - 1].index()]
                    );
                    base.rels[chain[j].index()] = base.rels[chain[j - 1].index()];
                }
                if let Some(&first) = chain.first() {
                    if !comp.frozen[first.index()] {
                        debug_assert_eq!(self.slots[first.index()], self.slots[input_rel.index()]);
                        base.rels[first.index()] = current;
                    }
                }
            }
        }
        // Dequeues.
        for &cid in &peer.dequeues {
            self.queue_pop_front(&mut base, cid.index());
        }
        // Transition-scoped flags reset.
        for i in 0..self.n_channels {
            self.set_flag(&mut base, Flag::Received, i, false);
            self.set_flag(&mut base, Flag::Sent, i, false);
        }
        // The mover's error flags are recomputed by this move.
        for &cid in &peer.out_channels {
            self.set_flag(&mut base, Flag::Error, cid.index(), false);
        }

        // 3. Resolve send nondeterminism per channel.
        enum SendOutcome {
            Nothing,
            Error,
            Send(u32),
        }
        let mut per_channel: Vec<(crate::ChannelId, Vec<SendOutcome>)> = Vec::new();
        for (cid, tuples) in send_results {
            let ch = &comp.channels[cid.index()];
            let enc = self.chans[cid.index()];
            let outcomes = match ch.kind {
                QueueKind::Nested => {
                    if tuples.is_empty() && comp.semantics.nested_send_skips_empty {
                        vec![SendOutcome::Nothing]
                    } else {
                        vec![SendOutcome::Send(self.intern_ext(enc, &tuples))]
                    }
                }
                QueueKind::Flat => match tuples.len() {
                    0 => vec![SendOutcome::Nothing],
                    1 => vec![SendOutcome::Send(self.intern_tuple(enc, &tuples[0]))],
                    _ if comp.semantics.deterministic_send => vec![SendOutcome::Error],
                    _ => tuples
                        .iter()
                        .map(|t| SendOutcome::Send(self.intern_tuple(enc, t)))
                        .collect(),
                },
            };
            per_channel.push((cid, outcomes));
        }

        let mut variants = vec![base];
        for (cid, outcomes) in per_channel {
            let ch = &comp.channels[cid.index()];
            let i = cid.index();
            let mut next: Vec<CompactConfig> = Vec::new();
            for v in &variants {
                for outcome in &outcomes {
                    match outcome {
                        SendOutcome::Nothing => next.push(v.clone()),
                        SendOutcome::Error => {
                            let mut c = v.clone();
                            self.set_flag(&mut c, Flag::Error, i, true);
                            next.push(c);
                        }
                        SendOutcome::Send(h) => {
                            // The message is *sent* in every resolution.
                            let mut sent = v.clone();
                            self.set_flag(&mut sent, Flag::Sent, i, comp.observed_sent[i]);
                            if ch.lossy {
                                // In-transit loss: sent but never enqueued.
                                next.push(sent.clone());
                            }
                            // Delivery attempt: enqueue unless the queue is
                            // full (k-bounded semantics drop silently).
                            let mut delivered = sent;
                            if self.queue_len(&delivered, i) < self.queue_bound {
                                self.queue_push_back(&mut delivered, i, *h);
                                self.set_flag(
                                    &mut delivered,
                                    Flag::Received,
                                    i,
                                    comp.observed_received[i],
                                );
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
            out.extend(self.with_input_choices(comp, db, domain, v, peer, ctx));
        }
        if comp.semantics.strict_input_validity {
            out.retain(|c| self.all_inputs_valid(comp, db, domain, c, ctx));
        }
        out
    }

    fn with_input_choices(
        &self,
        comp: &Composition,
        db: &dyn Database,
        domain: &[Value],
        config: CompactConfig,
        peer: &Peer,
        ctx: EvalCtx<'_>,
    ) -> Vec<CompactConfig> {
        // Input rules never read inputs, so evaluating options against
        // `config` (whose inputs are about to be replaced) is sound.
        let mut choice_sets: Vec<(usize, Vec<u32>)> = Vec::new();
        {
            let view = CompactView::for_rules(self, comp, db, &config, peer.id, domain);
            for (i, rule) in peer.input_rules.iter().enumerate() {
                let options =
                    ctx.eval_rule(RuleRef::Input(peer.id, i), &rule.head, &rule.body, &view);
                let enc = self.slots[rule.rel.index()];
                let mut choices: Vec<u32> = vec![self.empty_handle(enc)];
                if comp.voc.arity(rule.rel) == 0 {
                    if !options.is_empty() {
                        choices.push(self.intern_tuple(enc, &[]));
                    }
                } else {
                    for t in options.iter() {
                        choices.push(self.intern_tuple(enc, t));
                    }
                }
                choice_sets.push((rule.rel.index(), choices));
            }
        }
        let mut variants = vec![config];
        for (slot, choices) in choice_sets {
            let mut next = Vec::with_capacity(variants.len() * choices.len());
            for v in &variants {
                for &choice in &choices {
                    let mut c = v.clone();
                    c.rels[slot] = choice;
                    next.push(c);
                }
            }
            variants = next;
        }
        variants
    }

    fn all_inputs_valid(
        &self,
        comp: &Composition,
        db: &dyn Database,
        domain: &[Value],
        config: &CompactConfig,
        ctx: EvalCtx<'_>,
    ) -> bool {
        for peer in &comp.peers {
            let view = CompactView::for_rules(self, comp, db, config, peer.id, domain);
            for (i, rule) in peer.input_rules.iter().enumerate() {
                let slot = rule.rel.index();
                let enc = self.slots[slot];
                let current = config.rels[slot];
                if self.handle_is_empty(enc, current) {
                    continue;
                }
                let options =
                    ctx.eval_rule(RuleRef::Input(peer.id, i), &rule.head, &rule.body, &view);
                let ok = match self.the_tuple(enc, current) {
                    Some(t) => options.iter().any(|o| o[..] == t[..]),
                    None => false, // more than one tuple can never be valid
                };
                if !ok {
                    return false;
                }
            }
        }
        true
    }

    fn env_successors(
        &self,
        comp: &Composition,
        domain: &[Value],
        cc: &CompactConfig,
    ) -> Vec<CompactConfig> {
        let mut base = cc.clone();
        for i in 0..self.n_channels {
            self.set_flag(&mut base, Flag::Received, i, false);
            self.set_flag(&mut base, Flag::Sent, i, false);
        }

        // Consume: each env in-queue independently keeps or drops its head.
        let mut variants = vec![base];
        for cid in comp.env_in_channels() {
            let i = cid.index();
            let mut next = Vec::new();
            for v in &variants {
                next.push(v.clone());
                if self.queue_len(v, i) > 0 {
                    let mut c = v.clone();
                    self.queue_pop_front(&mut c, i);
                    next.push(c);
                }
            }
            variants = next;
        }

        // Emit: each env out-queue independently stays silent or sends one
        // message over the domain.
        for cid in comp.env_out_channels() {
            let i = cid.index();
            let ch = &comp.channels[i];
            let messages = self.env_message_handles(comp, i, domain);
            let mut next = Vec::new();
            for v in &variants {
                next.push(v.clone());
                for &h in messages {
                    let mut sent = v.clone();
                    self.set_flag(&mut sent, Flag::Sent, i, comp.observed_sent[i]);
                    if ch.lossy {
                        next.push(sent.clone());
                    }
                    let mut delivered = sent;
                    if self.queue_len(&delivered, i) < self.queue_bound {
                        self.queue_push_back(&mut delivered, i, h);
                        self.set_flag(&mut delivered, Flag::Received, i, comp.observed_received[i]);
                    }
                    next.push(delivered);
                }
            }
            variants = next;
        }
        variants
    }

    /// The environment's message alphabet on a channel, interned once per
    /// pool (the domain is fixed for a pool's lifetime).
    fn env_message_handles(&self, comp: &Composition, channel: usize, domain: &[Value]) -> &[u32] {
        self.env_msgs[channel].get_or_init(|| {
            let ch = &comp.channels[channel];
            env_messages(
                ch.kind,
                ch.arity,
                domain,
                comp.semantics.env_nested_message_max,
            )
            .iter()
            .map(|m| self.intern_message(self.chans[channel], m))
            .collect()
        })
    }
}

/// The compact counterpart of [`SnapshotView`](crate::view::SnapshotView):
/// a [`Structure`] over a [`CompactConfig`] that answers atom lookups from
/// packed codes and materializes footprints as interned handles
/// ([`ReadSlot::Interned`]) — so footprint keys cost four bytes per
/// relation and compare in O(1), while remaining exactly as discriminating
/// as the legacy materialized keys.
pub struct CompactView<'a> {
    pool: &'a StatePool,
    comp: &'a Composition,
    db: &'a dyn Database,
    cfg: &'a CompactConfig,
    mover: Option<Mover>,
    domain: &'a [Value],
}

impl<'a> CompactView<'a> {
    /// Builds the view; `mover` labels the `moveW` propositions exactly as
    /// in the legacy snapshot view.
    pub fn new(
        pool: &'a StatePool,
        comp: &'a Composition,
        db: &'a dyn Database,
        cfg: &'a CompactConfig,
        mover: Option<Mover>,
        domain: &'a [Value],
    ) -> Self {
        CompactView {
            pool,
            comp,
            db,
            cfg,
            mover,
            domain,
        }
    }

    /// View for evaluating the rules of `peer` on a snapshot.
    pub fn for_rules(
        pool: &'a StatePool,
        comp: &'a Composition,
        db: &'a dyn Database,
        cfg: &'a CompactConfig,
        peer: PeerId,
        domain: &'a [Value],
    ) -> Self {
        Self::new(pool, comp, db, cfg, Some(Mover::Peer(peer)), domain)
    }

    fn msg_contains(&self, channel: usize, h: Option<u32>, tuple: &[Value]) -> bool {
        h.is_some_and(|h| {
            self.pool
                .handle_contains(self.pool.chans[channel], h, tuple)
        })
    }
}

impl Structure for CompactView<'_> {
    fn contains(&self, rel: RelId, tuple: &[Value]) -> bool {
        if let Some((cid, role)) = self.comp.rel_channel[rel.index()] {
            let i = cid.index();
            return match role {
                ChannelRole::In => self.msg_contains(i, self.pool.queue_front(self.cfg, i), tuple),
                ChannelRole::Out => self.msg_contains(i, self.pool.queue_back(self.cfg, i), tuple),
                ChannelRole::Empty => self.pool.queue_len(self.cfg, i) == 0,
                ChannelRole::Received => self.pool.flag(self.cfg, Flag::Received, i),
                ChannelRole::Sent => self.pool.flag(self.cfg, Flag::Sent, i),
                ChannelRole::Error => self.pool.flag(self.cfg, Flag::Error, i),
                ChannelRole::MsgEmpty => self
                    .pool
                    .queue_front(self.cfg, i)
                    .is_some_and(|h| self.pool.handle_is_empty(self.pool.chans[i], h)),
            };
        }
        match self.comp.class(rel) {
            RelClass::Database => self.db.db_contains(rel, tuple),
            RelClass::State | RelClass::Input | RelClass::PrevInput | RelClass::Action => {
                self.pool.handle_contains(
                    self.pool.slots[rel.index()],
                    self.cfg.rels[rel.index()],
                    tuple,
                )
            }
            RelClass::Bookkeeping => match self.mover {
                Some(Mover::Peer(p)) => self.comp.move_rels[p.index()] == rel,
                Some(Mover::Environment) => self.comp.move_env_rel == Some(rel),
                None => false,
            },
            // Queue-backed classes are fully covered by the reverse index.
            _ => false,
        }
    }

    fn scan(&self, rel: RelId) -> Option<Vec<Vec<Value>>> {
        if let Some((cid, role)) = self.comp.rel_channel[rel.index()] {
            let i = cid.index();
            return match role {
                ChannelRole::In => Some(
                    self.pool
                        .queue_front(self.cfg, i)
                        .map(|h| self.pool.handle_rows(self.pool.chans[i], h))
                        .unwrap_or_default(),
                ),
                ChannelRole::Out => Some(
                    self.pool
                        .queue_back(self.cfg, i)
                        .map(|h| self.pool.handle_rows(self.pool.chans[i], h))
                        .unwrap_or_default(),
                ),
                ChannelRole::Error => Some(if self.pool.flag(self.cfg, Flag::Error, i) {
                    vec![vec![]]
                } else {
                    vec![]
                }),
                // Propositional roles: membership is cheap, no scan needed.
                _ => None,
            };
        }
        match self.comp.class(rel) {
            RelClass::Database => self.db.db_scan(rel),
            RelClass::State | RelClass::Input | RelClass::PrevInput | RelClass::Action => Some(
                self.pool
                    .handle_rows(self.pool.slots[rel.index()], self.cfg.rels[rel.index()]),
            ),
            _ => None,
        }
    }

    fn domain(&self) -> &[Value] {
        self.domain
    }
}

impl EvalView for CompactView<'_> {
    fn eval_footprint(&self, reads: &[RelId]) -> Option<Vec<ReadSlot>> {
        let mut slots = Vec::with_capacity(reads.len());
        for &rel in reads {
            if let Some((cid, role)) = self.comp.rel_channel[rel.index()] {
                let i = cid.index();
                let enc = self.pool.chans[i];
                slots.push(match role {
                    // An absent message reads as the empty extension, so it
                    // keys like one — exactly the legacy collapse.
                    ChannelRole::In => ReadSlot::Interned(
                        self.pool
                            .queue_front(self.cfg, i)
                            .unwrap_or_else(|| self.pool.empty_handle(enc)),
                    ),
                    ChannelRole::Out => ReadSlot::Interned(
                        self.pool
                            .queue_back(self.cfg, i)
                            .unwrap_or_else(|| self.pool.empty_handle(enc)),
                    ),
                    ChannelRole::Empty => ReadSlot::Flag(self.pool.queue_len(self.cfg, i) == 0),
                    ChannelRole::Received => {
                        ReadSlot::Flag(self.pool.flag(self.cfg, Flag::Received, i))
                    }
                    ChannelRole::Sent => ReadSlot::Flag(self.pool.flag(self.cfg, Flag::Sent, i)),
                    ChannelRole::Error => ReadSlot::Flag(self.pool.flag(self.cfg, Flag::Error, i)),
                    ChannelRole::MsgEmpty => ReadSlot::Flag(
                        self.pool
                            .queue_front(self.cfg, i)
                            .is_some_and(|h| self.pool.handle_is_empty(enc, h)),
                    ),
                });
                continue;
            }
            match self.comp.class(rel) {
                // The run's database is fixed for the pool's lifetime, so
                // its extension keys as one interned handle — the scan and
                // clone the legacy footprint pays on every evaluation
                // happen once per relation here.
                RelClass::Database => match self.pool.db_handle(rel, self.db) {
                    Some(h) => slots.push(ReadSlot::Interned(h)),
                    None => return None,
                },
                RelClass::State | RelClass::Input | RelClass::PrevInput | RelClass::Action => {
                    slots.push(ReadSlot::Interned(self.cfg.rels[rel.index()]));
                }
                RelClass::Bookkeeping => slots.push(ReadSlot::Flag(match self.mover {
                    Some(Mover::Peer(p)) => self.comp.move_rels[p.index()] == rel,
                    Some(Mover::Environment) => self.comp.move_env_rel == Some(rel),
                    None => false,
                })),
                _ => slots.push(ReadSlot::Flag(false)),
            }
        }
        Some(slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CompositionBuilder;
    use crate::composition::Semantics;
    use ddws_relational::Instance;

    fn capacity(domain: &[Value]) -> usize {
        domain.iter().map(|v| v.index()).max().unwrap_or(0) + 1
    }

    /// A two-peer relay exercising flat and nested channels, every rule
    /// kind, lossy branching and a database read on each side.
    fn relay() -> (Composition, Instance, Vec<Value>) {
        let mut b = CompositionBuilder::new();
        b.default_lossy(true);
        b.channel("fwd", 1, QueueKind::Flat, "A", "B");
        b.channel("ack", 2, QueueKind::Nested, "B", "A");
        b.peer("A")
            .database("d", 1)
            .state("done", 2)
            .input("pick", 1)
            .input_rule("pick", &["x"], "d(x)")
            .state_insert_rule("done", &["x", "y"], "?ack(x, y)")
            .send_rule("fwd", &["x"], "pick(x)");
        b.peer("B")
            .database("m", 1)
            .state("seen", 1)
            .action("log", 1)
            .state_insert_rule("seen", &["x"], "?fwd(x)")
            .state_delete_rule("seen", &["x"], "seen(x) and not ?fwd(x)")
            .action_rule("log", &["x"], "seen(x) or ?fwd(x)")
            .send_rule("ack", &["x", "y"], "?fwd(x) and m(y)");
        let comp = b.build().unwrap();
        let mut db = Instance::empty(&comp.voc);
        let d = comp.voc.lookup("A.d").unwrap();
        let m = comp.voc.lookup("B.m").unwrap();
        db.relation_mut(d).insert(Tuple::new(vec![Value(0)]));
        db.relation_mut(d).insert(Tuple::new(vec![Value(1)]));
        db.relation_mut(m).insert(Tuple::new(vec![Value(2)]));
        (comp, db, vec![Value(0), Value(1), Value(2)])
    }

    #[test]
    fn compact_expand_round_trips() {
        let (comp, db, dom) = relay();
        let pool = StatePool::new(&comp, capacity(&dom));
        for cfg in comp.initial_configs(&db, &dom) {
            let cc = pool.compact(&comp, &cfg);
            assert_eq!(pool.expand(&comp, &cc), cfg);
            // Re-compacting yields the identical handles.
            assert_eq!(pool.compact(&comp, &cfg), cc);
        }
    }

    #[test]
    fn compact_successors_mirror_legacy_in_order() {
        let (comp, db, dom) = relay();
        let pool = StatePool::new(&comp, capacity(&dom));

        let legacy_init = comp.initial_configs(&db, &dom);
        let compact_init = pool.initial_configs(&comp, &db, &dom, EvalCtx::default());
        assert_eq!(
            legacy_init,
            compact_init
                .iter()
                .map(|c| pool.expand(&comp, c))
                .collect::<Vec<_>>(),
            "initial configurations diverge"
        );

        let mut frontier = legacy_init;
        for _level in 0..3 {
            let mut next = Vec::new();
            for cfg in &frontier {
                let cc = pool.compact(&comp, cfg);
                for mover in comp.movers() {
                    let legacy = comp.successors(&db, &dom, cfg, mover);
                    let compact: Vec<Config> = pool
                        .successors(&comp, &db, &dom, &cc, mover, EvalCtx::default())
                        .iter()
                        .map(|c| pool.expand(&comp, c))
                        .collect();
                    assert_eq!(legacy, compact, "successors diverge for {mover:?}");
                    next.extend(legacy);
                }
            }
            next.truncate(24);
            frontier = next;
        }
        assert!(pool.intern_hits() > 0, "hash-consing never engaged");
    }

    #[test]
    fn compact_mirrors_deterministic_send_and_strict_validity() {
        let mut b = CompositionBuilder::new();
        b.semantics(Semantics {
            deterministic_send: true,
            strict_input_validity: true,
            ..Semantics::default()
        });
        b.default_lossy(false);
        b.channel("out", 1, QueueKind::Flat, "P", "R");
        b.peer("P")
            .database("d", 1)
            .input("pick", 1)
            .input_rule("pick", &["x"], "d(x)")
            .send_rule("out", &["x"], "d(x)");
        b.peer("R");
        let comp = b.build().unwrap();
        let d = comp.voc.lookup("P.d").unwrap();
        let mut db = Instance::empty(&comp.voc);
        db.relation_mut(d).insert(Tuple::new(vec![Value(0)]));
        db.relation_mut(d).insert(Tuple::new(vec![Value(1)]));
        let dom = vec![Value(0), Value(1)];
        let pool = StatePool::new(&comp, capacity(&dom));
        let p = comp.peer_by_name("P").unwrap().id;
        for init in comp.initial_configs(&db, &dom) {
            let cc = pool.compact(&comp, &init);
            let legacy = comp.successors(&db, &dom, &init, Mover::Peer(p));
            let compact: Vec<Config> = pool
                .successors(&comp, &db, &dom, &cc, Mover::Peer(p), EvalCtx::default())
                .iter()
                .map(|c| pool.expand(&comp, c))
                .collect();
            assert_eq!(legacy, compact);
        }
    }

    #[test]
    fn compact_mirrors_environment_moves() {
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
        let pool = StatePool::new(&comp, capacity(&dom));
        let init = comp.initial_configs(&db, &dom).remove(0);
        let cc = pool.compact(&comp, &init);
        let legacy = comp.successors(&db, &dom, &init, Mover::Environment);
        let compact: Vec<Config> = pool
            .successors(
                &comp,
                &db,
                &dom,
                &cc,
                Mover::Environment,
                EvalCtx::default(),
            )
            .iter()
            .map(|c| pool.expand(&comp, c))
            .collect();
        assert_eq!(legacy, compact);
        // One level deeper: queue contents and dequeues round-trip.
        for (l, c) in legacy.iter().zip(compact.iter()) {
            let lc = pool.compact(&comp, l);
            let l2 = comp.successors(&db, &dom, c, Mover::Environment);
            let c2: Vec<Config> = pool
                .successors(
                    &comp,
                    &db,
                    &dom,
                    &lc,
                    Mover::Environment,
                    EvalCtx::default(),
                )
                .iter()
                .map(|c| pool.expand(&comp, c))
                .collect();
            assert_eq!(l2, c2);
        }
    }

    #[test]
    fn wide_slots_fall_back_to_relation_interning() {
        let mut b = CompositionBuilder::new();
        b.default_lossy(false);
        b.channel("c", 1, QueueKind::Flat, "P", "R");
        b.peer("P")
            .state("s", 3)
            .send_rule("c", &["x"], "s(x, x, x)");
        b.peer("R");
        let comp = b.build().unwrap();
        // A capacity so large that 3 values cannot pack into 64 bits.
        let pool = StatePool::new(&comp, 1 << 30);
        let s = comp.voc.lookup("P.s").unwrap();
        assert!(matches!(pool.slots[s.index()], Enc::Wide));
        let mut cfg = Config::empty(&comp);
        cfg.rel
            .relation_mut(s)
            .insert(Tuple::new(vec![Value(7), Value(8), Value(9)]));
        let cc = pool.compact(&comp, &cfg);
        assert_eq!(pool.expand(&comp, &cc), cfg);
    }

    #[test]
    fn intern_counters_meter_every_call() {
        let (comp, db, dom) = relay();
        let pool = StatePool::new(&comp, capacity(&dom));
        let before = pool.intern_hits() + pool.intern_misses();
        let init = pool.initial_configs(&comp, &db, &dom, EvalCtx::default());
        assert!(!init.is_empty());
        let after = pool.intern_hits() + pool.intern_misses();
        assert!(after > before, "stepping interns extensions");
    }
}
