//! Configurations of a composition.

use crate::composition::{ChannelId, Composition, QueueKind};
use ddws_relational::{Instance, Relation, Symbols, Tuple};
use std::collections::VecDeque;
use std::fmt;

/// A message in transit: a single tuple on a flat channel, a set of tuples
/// on a nested channel (possibly empty — the paper's Definition 2.4 enqueues
/// a nested message on every firing).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Message {
    /// Flat-channel message.
    Flat(Tuple),
    /// Nested-channel message.
    Nested(Relation),
}

impl Message {
    /// The message contents as a relation (singleton for flat messages).
    pub fn as_relation(&self) -> Relation {
        match self {
            Message::Flat(t) => Relation::singleton(t.clone()),
            Message::Nested(r) => r.clone(),
        }
    }

    /// Whether the message carries no tuples.
    pub fn is_empty(&self) -> bool {
        match self {
            Message::Flat(_) => false,
            Message::Nested(r) => r.is_empty(),
        }
    }

    /// Membership of a tuple in the message contents.
    pub fn contains(&self, tuple: &[ddws_relational::Value]) -> bool {
        match self {
            Message::Flat(t) => t.values() == tuple,
            Message::Nested(r) => r.contains(&Tuple::from(tuple)),
        }
    }
}

/// A configuration of the whole composition: the union of the peers'
/// configurations of Definition 2.3 (minus the shared fixed database, which
/// the verifier holds separately, and minus derived propositions such as
/// queue states, which are computed from the queues on demand).
///
/// Configurations are hashed into the model checker's visited set, so every
/// component is canonical.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Config {
    /// Dynamic relations: states, inputs, previous inputs, actions. Database
    /// and queue relation slots exist but stay empty.
    pub rel: Instance,
    /// Queue contents per channel, FIFO (front = next to dequeue).
    pub queues: Box<[VecDeque<Message>]>,
    /// `received_q`: channel got a message enqueued in the transition
    /// leading here.
    pub received: Box<[bool]>,
    /// `sent_q`: the sender emitted a message in that transition (even if
    /// dropped).
    pub sent: Box<[bool]>,
    /// Deterministic-send error flags (Theorem 3.8), per channel.
    pub error: Box<[bool]>,
}

impl Config {
    /// The all-empty initial configuration skeleton (inputs still to be
    /// chosen — see [`Composition::initial_configs`](crate::Composition::initial_configs)).
    pub fn empty(comp: &Composition) -> Config {
        Config {
            rel: Instance::empty(&comp.voc),
            queues: vec![VecDeque::new(); comp.channels.len()].into_boxed_slice(),
            received: vec![false; comp.channels.len()].into_boxed_slice(),
            sent: vec![false; comp.channels.len()].into_boxed_slice(),
            error: vec![false; comp.channels.len()].into_boxed_slice(),
        }
    }

    /// The queue of a channel.
    pub fn queue(&self, c: ChannelId) -> &VecDeque<Message> {
        &self.queues[c.index()]
    }

    /// Approximate heap footprint in bytes — the checkpoint-size
    /// accounting counterpart of
    /// [`CompactConfig::approx_bytes`](crate::compact::CompactConfig::approx_bytes).
    pub fn approx_bytes(&self) -> usize {
        let tuple_bytes = |t: &Tuple| t.values().len() * 4 + 24;
        let msg_bytes = |m: &Message| match m {
            Message::Flat(t) => tuple_bytes(t),
            Message::Nested(r) => r.iter().map(tuple_bytes).sum::<usize>() + 24,
        };
        std::mem::size_of::<Config>()
            + self
                .rel
                .relations()
                .map(|r| r.iter().map(tuple_bytes).sum::<usize>() + 24)
                .sum::<usize>()
            + self
                .queues
                .iter()
                .map(|q| q.iter().map(msg_bytes).sum::<usize>() + 24)
                .sum::<usize>()
            + 3 * self.received.len()
    }

    /// Renders the configuration for counterexample output.
    pub fn display<'a>(
        &'a self,
        comp: &'a Composition,
        symbols: &'a Symbols,
    ) -> impl fmt::Display + 'a {
        DisplayConfig {
            config: self,
            comp,
            symbols,
        }
    }
}

impl fmt::Debug for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Config")
            .field("rel", &self.rel)
            .field("queues", &self.queues)
            .finish_non_exhaustive()
    }
}

struct DisplayConfig<'a> {
    config: &'a Config,
    comp: &'a Composition,
    symbols: &'a Symbols,
}

impl fmt::Display for DisplayConfig<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rels = self.config.rel.display(&self.comp.voc, self.symbols);
        write!(f, "{rels}")?;
        for (i, ch) in self.comp.channels.iter().enumerate() {
            let q = &self.config.queues[i];
            if q.is_empty() && !self.config.received[i] && !self.config.sent[i] {
                continue;
            }
            write!(f, "\nqueue {}", ch.name)?;
            if self.config.received[i] {
                write!(f, " [received]")?;
            }
            if self.config.sent[i] {
                write!(f, " [sent]")?;
            }
            if self.config.error[i] {
                write!(f, " [error]")?;
            }
            write!(f, ": ")?;
            for (j, m) in q.iter().enumerate() {
                if j > 0 {
                    write!(f, " | ")?;
                }
                match (m, ch.kind) {
                    (Message::Flat(t), _) => write!(f, "{}", t.display(self.symbols))?,
                    (Message::Nested(r), QueueKind::Nested | QueueKind::Flat) => {
                        write!(f, "{}", r.display(self.symbols))?
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_helpers() {
        let flat = Message::Flat(Tuple::new(vec![ddws_relational::Value(1)]));
        assert!(!flat.is_empty());
        assert!(flat.contains(&[ddws_relational::Value(1)]));
        assert!(!flat.contains(&[ddws_relational::Value(2)]));
        assert_eq!(flat.as_relation().len(), 1);

        let nested = Message::Nested(Relation::new());
        assert!(nested.is_empty());
        assert!(!nested.contains(&[ddws_relational::Value(1)]));
    }
}
