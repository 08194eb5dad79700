//! The composition → single-peer reduction behind Theorem 3.4.
//!
//! The paper proves decidability of composition verification by a PTIME
//! reduction to the verification of a *single* peer with no queues (plus
//! k-lookback): queues become state relations, the scheduler becomes a user
//! input, and channel nondeterminism becomes input nondeterminism. This
//! module implements that construction:
//!
//! * each peer relation `P.R` becomes a relation `P_R` of the single peer
//!   `SYS`;
//! * each channel `q` with bound `k` becomes slot relations
//!   `q_slot0 … q_slot{k-1}` plus occupancy flags `q_has0 …`; enqueue
//!   inserts at the first free slot, a receiver move shifts every slot
//!   down by one (all with ordinary state rules — the conflict-is-no-op
//!   semantics of Definition 2.4 makes the shift work);
//! * a scheduler input `sched` (options = the peer names) picks which
//!   peer's move the step simulates; every simulated rule is guarded by
//!   `sched("P")`;
//! * a **lossy flat** send becomes a `pick_q` input whose options are the
//!   send rule's results: the user's pick is the channel's
//!   nondeterministic tuple choice, and *declining to pick is exactly
//!   message loss* — which is why the reduction (and decidability) works
//!   for lossy channels;
//! * a **lossy nested** send gets a propositional `deliver_q` input
//!   (loss = the user declines); a **perfect nested** send inserts its
//!   result directly — matching the remark after Theorem 3.4 that perfect
//!   *nested* channels stay decidable;
//! * a **perfect flat** channel has no faithful encoding here (the pick
//!   input can always abstain) — and indeed Theorem 3.7 shows that case is
//!   undecidable; the reduction rejects it.
//!
//! Properties over the composition schema are translated alongside
//! ([`translate_property_source`]): `P.R ↦ P_R`, in-queue atoms
//! `P.?q ↦ q_slot0`, out-queue atoms likewise (exact for 1-bounded queues),
//! `empty_q ↦ ¬q_has0` and `move_P ↦ sched("#P")`.
//!
//! **Timing caveat.** In the composition semantics implemented by
//! `ddws-model`, a peer's input is chosen when the peer moves and then
//! frozen; in the reduced peer, all simulated inputs are re-chosen every
//! step (there is only one peer). The two agree on which values are
//! *available* at each simulated move exactly when the input options are
//! stable between a peer's moves; the equivalence tests in
//! `tests/reduction.rs` exercise compositions in and out of that regime.

use ddws_logic::{Fo, Term, VarId};
use ddws_model::{
    builder::BuildError, Channel, Composition, CompositionBuilder, Endpoint, QueueKind, Semantics,
};
use ddws_relational::RelId;
use std::collections::HashMap;
use std::fmt::Write as _;

/// The reduced system: the single-peer composition plus the name maps
/// needed to translate databases and properties.
#[derive(Debug)]
pub struct ReducedSystem {
    /// A closed composition with exactly one peer (`SYS`) and no channels.
    pub composition: Composition,
    /// Maps original qualified relation names to reduced ones
    /// (`O.customer` → `O_customer`).
    pub rel_names: HashMap<String, String>,
    /// The scheduler constants, one per original peer (`#P` values of the
    /// `sched` input).
    pub peer_constants: Vec<String>,
}

/// Errors specific to the reduction.
#[derive(Debug)]
pub enum ReductionError {
    /// Perfect flat channels cannot be reduced (Theorem 3.7: that regime is
    /// undecidable, so no such reduction can exist).
    PerfectFlatChannel(String),
    /// Channels from a peer to itself are not supported by the slot
    /// encoding (enqueue and dequeue would collide in one step).
    SelfLoop(String),
    /// Open compositions have no single-peer equivalent without an
    /// environment model.
    OpenComposition,
    /// The reduced specification failed to build (internal error).
    Build(BuildError),
}

impl std::fmt::Display for ReductionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReductionError::PerfectFlatChannel(q) => write!(
                f,
                "channel `{q}` is flat and perfect: no single-peer reduction exists \
                 (cf. Theorem 3.7)"
            ),
            ReductionError::SelfLoop(q) => {
                write!(f, "channel `{q}` connects a peer to itself (unsupported)")
            }
            ReductionError::OpenComposition => {
                write!(
                    f,
                    "open compositions cannot be reduced (no environment model)"
                )
            }
            ReductionError::Build(e) => write!(f, "reduced specification invalid: {e}"),
        }
    }
}

impl std::error::Error for ReductionError {}

/// Performs the reduction.
pub fn reduce_to_single_peer(comp: &Composition) -> Result<ReducedSystem, ReductionError> {
    if !comp.is_closed() {
        return Err(ReductionError::OpenComposition);
    }
    for ch in &comp.channels {
        if ch.sender == ch.receiver {
            return Err(ReductionError::SelfLoop(ch.name.clone()));
        }
        if ch.kind == QueueKind::Flat && !ch.lossy {
            return Err(ReductionError::PerfectFlatChannel(ch.name.clone()));
        }
    }
    let k = comp.semantics.queue_bound;

    let mut b = CompositionBuilder::new();
    b.semantics(Semantics {
        // No channels remain; keep the rest of the run semantics.
        ..comp.semantics
    });

    let mut rel_names: HashMap<String, String> = HashMap::new();
    let mut peer_constants = Vec::new();

    {
        let mut sys = b.peer("SYS");

        // Scheduler: one constant per peer; the user picks who moves.
        let sched_options = comp
            .peers
            .iter()
            .map(|p| format!("x = \"#{}\"", p.name))
            .collect::<Vec<_>>()
            .join(" or ");
        sys.input("sched", 1);
        sys.input_rule("sched", &["x"], &sched_options);
        for p in &comp.peers {
            peer_constants.push(format!("#{}", p.name));
        }

        // Schemas.
        for peer in &comp.peers {
            for &r in &peer.database {
                let local = reduced_name(comp, r);
                rel_names.insert(comp.voc.name(r).to_owned(), local.clone());
                sys.database(&local, comp.voc.arity(r));
            }
            for &r in &peer.states {
                let local = reduced_name(comp, r);
                rel_names.insert(comp.voc.name(r).to_owned(), local.clone());
                sys.state(&local, comp.voc.arity(r));
            }
            for &r in &peer.actions {
                let local = reduced_name(comp, r);
                rel_names.insert(comp.voc.name(r).to_owned(), local.clone());
                sys.action(&local, comp.voc.arity(r));
            }
            for (idx, &r) in peer.inputs.iter().enumerate() {
                let local = reduced_name(comp, r);
                rel_names.insert(comp.voc.name(r).to_owned(), local.clone());
                sys.input(&local, comp.voc.arity(r));
                // The peer's `prevI` chain becomes explicit state.
                for (j, &prev_rel) in peer.prev[idx].iter().enumerate() {
                    let prev_local = format!("{}_prev{}", local, j + 1);
                    rel_names.insert(comp.voc.name(prev_rel).to_owned(), prev_local.clone());
                    sys.state(&prev_local, comp.voc.arity(prev_rel));
                }
            }
        }
        // Queue slots.
        for ch in &comp.channels {
            for j in 0..k {
                sys.state(&slot_name(ch, j), ch.arity);
                sys.state(&has_name(ch, j), 0);
            }
            if ch.kind == QueueKind::Flat {
                // The pick input simulating the nondeterministic choice +
                // lossiness.
                sys.input(&format!("pick_{}", ch.name), ch.arity);
            } else if ch.lossy {
                sys.input(&format!("deliver_{}", ch.name), 0);
            }
        }
    }

    // Rules. Build the body translator first: it needs the full name map.
    let translate = |peer_name: &str, fo: &Fo| -> String {
        let guarded = render_fo(comp, fo, &HashMap::new());
        format!("sched(\"#{peer_name}\") and ({guarded})")
    };

    for peer in &comp.peers {
        let pname = &peer.name;
        let mut sys = b.peer("SYS");

        // Input rules: options must be computable without reading inputs,
        // so they cannot be sched-guarded; the *use* of the input is.
        for rule in &peer.input_rules {
            let local = reduced_name(comp, rule.rel);
            if comp.voc.arity(rule.rel) == 0 && rule.body == Fo::True {
                continue; // default rule regenerated by the builder
            }
            let head: Vec<String> = head_names(comp, &rule.head);
            let head_refs: Vec<&str> = head.iter().map(String::as_str).collect();
            let body = render_fo(comp, &rule.body, &HashMap::new());
            sys.input_rule(&local, &head_refs, &body);
        }

        // State rules.
        for sr in &peer.state_rules {
            let local = reduced_name(comp, sr.rel);
            let head: Vec<String> = head_names(comp, &sr.head);
            let head_refs: Vec<&str> = head.iter().map(String::as_str).collect();
            if let Some(ins) = &sr.insert {
                sys.state_insert_rule(&local, &head_refs, &translate(pname, ins));
            }
            if let Some(del) = &sr.delete {
                sys.state_delete_rule(&local, &head_refs, &translate(pname, del));
            }
        }

        // prev chains: replace-on-nonempty-input semantics.
        for (idx, &input_rel) in peer.inputs.iter().enumerate() {
            let input_local = reduced_name(comp, input_rel);
            let arity = comp.voc.arity(input_rel);
            let vars: Vec<String> = (0..arity).map(|i| format!("v{i}")).collect();
            let var_refs: Vec<&str> = vars.iter().map(String::as_str).collect();
            let tuple = vars.join(", ");
            let nonempty = if arity == 0 {
                input_local.clone()
            } else {
                let evars = vars.join(", ");
                format!("exists {evars}: {input_local}({evars})")
            };
            let mut source_now = if arity == 0 {
                input_local.clone()
            } else {
                format!("{input_local}({tuple})")
            };
            for (j, &prev_rel) in peer.prev[idx].iter().enumerate() {
                let prev_local = format!("{}_prev{}", reduced_name(comp, input_rel), j + 1);
                let _ = prev_rel;
                let insert = format!("sched(\"#{pname}\") and ({nonempty}) and ({source_now})");
                let delete = format!(
                    "sched(\"#{pname}\") and ({nonempty}) and {prev}",
                    prev = if arity == 0 {
                        prev_local.clone()
                    } else {
                        format!("{prev_local}({tuple})")
                    }
                );
                if arity == 0 {
                    sys.state_insert_rule(&prev_local, &[], &insert);
                    sys.state_delete_rule(&prev_local, &[], &delete);
                } else {
                    sys.state_insert_rule(&prev_local, &var_refs, &insert);
                    sys.state_delete_rule(&prev_local, &var_refs, &delete);
                }
                // The next link shifts from this one.
                source_now = if arity == 0 {
                    prev_local.clone()
                } else {
                    format!("{prev_local}({tuple})")
                };
            }
        }

        // Action rules.
        for ar in &peer.action_rules {
            let local = reduced_name(comp, ar.rel);
            let head: Vec<String> = head_names(comp, &ar.head);
            let head_refs: Vec<&str> = head.iter().map(String::as_str).collect();
            sys.action_rule(&local, &head_refs, &translate(pname, &ar.body));
        }

        // Sends: enqueue into the first free slot of the receiver's queue.
        // All slot rules use the canonical head variables `rv__i`, shared
        // with the dequeue-shift rules (the builder requires one head per
        // state relation).
        for (cid, rule) in &peer.send_rules {
            let ch = &comp.channels[cid.index()];
            let canon: Vec<String> = (0..ch.arity).map(|i| format!("rv__{i}")).collect();
            let canon_refs: Vec<&str> = canon.iter().map(String::as_str).collect();
            let tuple = canon.join(", ");
            let rename: HashMap<VarId, String> = rule
                .head
                .iter()
                .copied()
                .zip(canon.iter().cloned())
                .collect();
            let body = render_fo(comp, &rule.body, &rename);

            // What lands in the queue this step, as a formula over the
            // canonical variables.
            let (payload, fired): (String, String) = match ch.kind {
                QueueKind::Flat => {
                    // The pick input simulates the channel's nondeterministic
                    // tuple choice. Its options cannot be the send rule's
                    // results (input rules may not read inputs, Definition
                    // 2.1), so the pick ranges over the whole domain and the
                    // *enqueue rule* checks it against the send body at use
                    // time - a mismatched or absent pick is exactly message
                    // loss, which the lossy semantics permits.
                    let pick = format!("pick_{}", ch.name);
                    if ch.arity == 0 {
                        sys.input_rule(&pick, &[], "true");
                        (
                            format!("{pick} and ({body})"),
                            format!("{pick} and ({body})"),
                        )
                    } else {
                        sys.input_rule(&pick, &canon_refs, "true");
                        let payload = format!("{pick}({tuple}) and ({body})");
                        let fired = format!("exists {tuple}: {pick}({tuple}) and ({body})");
                        (payload, fired)
                    }
                }
                QueueKind::Nested => {
                    let guarded = format!("sched(\"#{pname}\") and ({body})");
                    if ch.lossy {
                        let deliver = format!("deliver_{}", ch.name);
                        (
                            format!("{deliver} and {guarded}"),
                            format!("{deliver} and sched(\"#{pname}\")"),
                        )
                    } else {
                        // Perfect nested channel: a message (possibly empty)
                        // is enqueued on every firing; under
                        // `nested_send_skips_empty` only non-empty results
                        // enqueue, which the `fired` guard mirrors.
                        let fired = if comp.semantics.nested_send_skips_empty {
                            if ch.arity == 0 {
                                format!("sched(\"#{pname}\") and ({body})")
                            } else {
                                format!("sched(\"#{pname}\") and (exists {tuple}: {body})")
                            }
                        } else {
                            format!("sched(\"#{pname}\")")
                        };
                        (guarded, fired)
                    }
                }
            };
            // The flat payload must also be sched-guarded.
            let payload = match ch.kind {
                QueueKind::Flat => format!("sched(\"#{pname}\") and {payload}"),
                QueueKind::Nested => payload,
            };
            let fired = match ch.kind {
                QueueKind::Flat => format!("sched(\"#{pname}\") and ({fired})"),
                QueueKind::Nested => fired,
            };

            for j in 0..k {
                // Insert into slot j iff slots 0..j are occupied and j free.
                let mut occ = String::new();
                for l in 0..j {
                    let _ = write!(occ, "{} and ", has_name(ch, l));
                }
                let _ = write!(occ, "not {}", has_name(ch, j));
                sys.state_insert_rule(
                    &slot_name(ch, j),
                    &canon_refs,
                    &format!("({payload}) and {occ}"),
                );
                sys.state_insert_rule(&has_name(ch, j), &[], &format!("({fired}) and {occ}"));
            }
        }
    }

    // Receiver-side dequeues: when the receiving peer is scheduled and the
    // channel is dequeued by its rules, shift every slot down.
    for peer in &comp.peers {
        let pname = &peer.name;
        let mut sys = b.peer("SYS");
        for &cid in &peer.dequeues {
            let ch = &comp.channels[cid.index()];
            let vars: Vec<String> = (0..ch.arity).map(|i| format!("rv__{i}")).collect();
            let var_refs: Vec<&str> = vars.iter().map(String::as_str).collect();
            let tuple = vars.join(", ");
            for j in 0..k {
                let this_slot = slot_name(ch, j);
                let this_has = has_name(ch, j);
                // Delete current content / flag...
                sys.state_delete_rule(
                    &this_slot,
                    &var_refs,
                    &format!("sched(\"#{pname}\") and {this_slot}({tuple})"),
                );
                sys.state_delete_rule(&this_has, &[], &format!("sched(\"#{pname}\")"));
                // ...and pull the next slot's content in (conflicts keep
                // shared tuples, Definition 2.4).
                if j + 1 < k {
                    let next_slot = slot_name(ch, j + 1);
                    let next_has = has_name(ch, j + 1);
                    sys.state_insert_rule(
                        &this_slot,
                        &var_refs,
                        &format!("sched(\"#{pname}\") and {next_slot}({tuple})"),
                    );
                    sys.state_insert_rule(
                        &this_has,
                        &[],
                        &format!("sched(\"#{pname}\") and {next_has}"),
                    );
                }
            }
        }
    }

    let composition = b.build().map_err(ReductionError::Build)?;
    Ok(ReducedSystem {
        composition,
        rel_names,
        peer_constants,
    })
}

/// Translates a database instance over the original schema into one over
/// the reduced peer's schema. Values are re-interned into the reduced
/// composition's symbol table by name.
pub fn translate_database(
    reduced: &mut ReducedSystem,
    comp: &Composition,
    db: &ddws_relational::Instance,
) -> ddws_relational::Instance {
    let mut out = ddws_relational::Instance::empty(&reduced.composition.voc);
    for peer in &comp.peers {
        for &rel in &peer.database {
            let name = comp.voc.name(rel);
            let local = &reduced.rel_names[name];
            let target = reduced
                .composition
                .voc
                .lookup(&format!("SYS.{local}"))
                .expect("reduced database relation exists");
            for tuple in db.relation(rel).iter() {
                let mapped: ddws_relational::Tuple = tuple
                    .values()
                    .iter()
                    .map(|&v| {
                        let name = comp.symbols.name(v).to_owned();
                        reduced.composition.symbols.intern(&name)
                    })
                    .collect();
                out.relation_mut(target).insert(mapped);
            }
        }
    }
    out
}

/// Translates a property's *source text* into the reduced schema, to be
/// re-parsed against the reduced composition (ASTs cannot be carried over:
/// the two compositions have distinct variable and symbol tables).
///
/// Handles peer relations (`O.customer` -> `SYS.O_customer`), flat/nested
/// queue atoms (`O.?apply`, `A.!apply` -> `SYS.q_apply_slot0` -- exact for
/// `queue_bound == 1`, where the first and last message coincide), queue
/// states (`O.empty_apply` -> `(not SYS.q_apply_has0)`) and move
/// propositions (`move_O` -> `SYS.sched("#O")`). `received_q`/`sent_q`
/// flags have no reduced image and are left untouched (they will fail to
/// resolve, surfacing the limitation).
pub fn translate_property_source(reduced: &ReducedSystem, comp: &Composition, src: &str) -> String {
    assert_eq!(
        comp.semantics.queue_bound, 1,
        "source-level queue-atom translation is exact only for 1-bounded queues"
    );
    // Longest-first replacement avoids prefix collisions.
    let mut subs: Vec<(String, String)> = reduced
        .rel_names
        .iter()
        .map(|(orig, local)| (orig.clone(), format!("SYS.{local}")))
        .collect();
    for ch in &comp.channels {
        let slot0 = format!("SYS.{}", slot_name(ch, 0));
        if let Endpoint::Peer(pid) = ch.receiver {
            let pname = &comp.peers[pid.index()].name;
            subs.push((format!("{pname}.?{}", ch.name), slot0.clone()));
            subs.push((
                format!("{pname}.empty_{}", ch.name),
                format!("(not SYS.{})", has_name(ch, 0)),
            ));
        }
        if let Endpoint::Peer(pid) = ch.sender {
            let pname = &comp.peers[pid.index()].name;
            subs.push((format!("{pname}.!{}", ch.name), slot0.clone()));
        }
    }
    for p in &comp.peers {
        subs.push((
            format!("move_{}", p.name),
            format!("SYS.sched(\"#{}\")", p.name),
        ));
    }
    subs.sort_by_key(|(orig, _)| std::cmp::Reverse(orig.len()));
    let mut out = src.to_owned();
    for (orig, new) in subs {
        out = out.replace(&orig, &new);
    }
    out
}

/// `O.customer` → `O_customer` (the reduced local name).
fn reduced_name(comp: &Composition, rel: RelId) -> String {
    comp.voc.name(rel).replace(['.', '?', '!'], "_")
}

fn slot_name(ch: &Channel, j: usize) -> String {
    format!("q_{}_slot{j}", ch.name)
}

fn has_name(ch: &Channel, j: usize) -> String {
    format!("q_{}_has{j}", ch.name)
}

fn head_names(comp: &Composition, head: &[VarId]) -> Vec<String> {
    head.iter().map(|&v| comp.vars.name(v).to_owned()).collect()
}

fn channel_of(comp: &Composition, rel: RelId, incoming: bool) -> Option<&Channel> {
    comp.channels.iter().find(|c| {
        if incoming {
            c.in_rel == Some(rel)
        } else {
            c.out_rel == rel
        }
    })
}

/// Renders a rule body over the original schema as source text in the
/// reduced namespace, renaming the given free variables (used to
/// canonicalize slot rule heads). Rewriting to `RelId`s directly is
/// impossible before the reduced composition exists, so bodies round-trip
/// through the parser. Bound variables shadow renames; original
/// specifications never use the reserved `rv__` prefix, so capture is
/// impossible.
fn render_fo(comp: &Composition, fo: &Fo, rename: &HashMap<VarId, String>) -> String {
    let nary = |gs: &[Fo], op: &str, empty: &str| {
        if gs.is_empty() {
            return empty.to_owned();
        }
        gs.iter()
            .map(|g| format!("({})", render_fo(comp, g, rename)))
            .collect::<Vec<_>>()
            .join(op)
    };
    match fo {
        Fo::True => "true".into(),
        Fo::False => "false".into(),
        Fo::Eq(a, b) => format!(
            "{} = {}",
            render_term(comp, a, rename),
            render_term(comp, b, rename)
        ),
        Fo::Atom(rel, args) => {
            use ddws_logic::input_bounded::RelClass::*;
            let name = match comp.class(*rel) {
                InFlat | InNested => {
                    let ch = channel_of(comp, *rel, true).expect("in-queue atom has a channel");
                    slot_name(ch, 0)
                }
                QueueState => {
                    let ch = comp
                        .channels
                        .iter()
                        .find(|c| c.empty_rel == Some(*rel))
                        .expect("queue state has a channel");
                    // empty_q ≡ ¬q_has0.
                    return format!("not {}", has_name(ch, 0));
                }
                _ => reduced_name(comp, *rel),
            };
            if args.is_empty() {
                name
            } else {
                let rendered: Vec<String> =
                    args.iter().map(|t| render_term(comp, t, rename)).collect();
                format!("{name}({})", rendered.join(", "))
            }
        }
        Fo::Not(g) => format!("not ({})", render_fo(comp, g, rename)),
        Fo::And(gs) => nary(gs, " and ", "true"),
        Fo::Or(gs) => nary(gs, " or ", "false"),
        Fo::Implies(a, b) => format!(
            "({}) -> ({})",
            render_fo(comp, a, rename),
            render_fo(comp, b, rename)
        ),
        Fo::Exists(vs, g) | Fo::Forall(vs, g) => {
            let kw = if matches!(fo, Fo::Exists(..)) {
                "exists"
            } else {
                "forall"
            };
            let mut inner = rename.clone();
            for v in vs {
                inner.remove(v);
            }
            let names: Vec<&str> = vs.iter().map(|&v| comp.vars.name(v)).collect();
            format!(
                "({kw} {}: {})",
                names.join(", "),
                render_fo(comp, g, &inner)
            )
        }
    }
}

fn render_term(comp: &Composition, t: &Term, rename: &HashMap<VarId, String>) -> String {
    match t {
        Term::Var(v) => rename
            .get(v)
            .cloned()
            .unwrap_or_else(|| comp.vars.name(*v).to_owned()),
        Term::Const(c) => format!("\"{}\"", comp.symbols.name(*c)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddws_logic::Term::{Const, Var};

    /// Alice sends `ping` to Bob over a flat queue.
    fn ping() -> Composition {
        let mut b = CompositionBuilder::new();
        b.channel("ping", 1, QueueKind::Flat, "Alice", "Bob");
        b.peer("Alice")
            .database("friend", 1)
            .input("greet", 1)
            .input_rule("greet", &["x"], "friend(x)")
            .send_rule("ping", &["x"], "greet(x)");
        b.peer("Bob")
            .state("seen", 1)
            .state_insert_rule("seen", &["x"], "?ping(x)");
        b.build().expect("ping composition")
    }

    #[test]
    fn rule_bodies_render_golden_over_every_connective() {
        let mut comp = ping();
        let rel = |name: &str| comp.voc.lookup(name).expect(name);
        let (friend, seen, inq, empty) = (
            rel("Alice.friend"),
            rel("Bob.seen"),
            rel("Bob.?ping"),
            rel("Bob.empty_ping"),
        );
        let (x, y) = (comp.vars.intern("x"), comp.vars.intern("y"));
        let a = comp.symbols.intern("a");
        let fo = Fo::Forall(
            vec![x],
            Box::new(Fo::Implies(
                Box::new(Fo::And(vec![
                    Fo::Atom(inq, vec![Var(x)]),
                    Fo::Not(Box::new(Fo::Atom(empty, vec![]))),
                ])),
                Box::new(Fo::Or(vec![
                    Fo::Exists(
                        vec![y],
                        Box::new(Fo::And(vec![
                            Fo::Atom(friend, vec![Var(y)]),
                            Fo::Eq(Var(y), Var(x)),
                        ])),
                    ),
                    Fo::Atom(seen, vec![Const(a)]),
                    Fo::And(vec![]),
                    Fo::Or(vec![]),
                    Fo::True,
                    Fo::False,
                ])),
            )),
        );
        assert_eq!(
            render_fo(&comp, &fo, &HashMap::new()),
            "(forall x: ((q_ping_slot0(x)) and (not (not q_ping_has0))) -> \
             (((exists y: (Alice_friend(y)) and (y = x))) or (Bob_seen(\"a\")) \
             or (true) or (false) or (true) or (false)))"
        );
        // A rename applies to free occurrences only: the quantifier binds
        // `x` again, and `y` stays free.
        let open = Fo::And(vec![
            Fo::Atom(friend, vec![Var(x)]),
            Fo::Exists(vec![x], Box::new(Fo::Eq(Var(x), Var(y)))),
        ]);
        let rename = HashMap::from([(x, "rv__0".to_string())]);
        assert_eq!(
            render_fo(&comp, &open, &rename),
            "(Alice_friend(rv__0)) and ((exists x: x = y))"
        );
    }
}
