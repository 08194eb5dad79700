//! Run-control primitives shared by the engines and the verifier: the
//! cooperative [`CancelToken`], the [`AbortReason`] taxonomy every
//! inconclusive stop is classified under, the [`panic_message`] every
//! caught panic is recorded with, and the test-only [`FaultHook`] the
//! deterministic fault injector uses.
//!
//! These live here (rather than in `ddws-automata`) for the same reason
//! [`SearchStats`](crate::SearchStats) does: this crate is the dependency-
//! free leaf every other crate can use without cycles, and the abort
//! reason also appears verbatim in the run report's `abort` object.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// A shared, clonable cancellation flag with an attached reason.
///
/// Cancellation is *cooperative*: [`CancelToken::cancel`] only raises a
/// flag; the search engines poll it (one relaxed atomic load per expanded
/// state — the same cost as the parallel engine's budget flag) and wind
/// down at the next check point, reporting
/// [`AbortReason::Cancelled`] with the first reason recorded.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

#[derive(Debug, Default)]
struct CancelInner {
    flag: AtomicBool,
    reason: Mutex<Option<String>>,
    /// Parent link for scoped child tokens (see [`CancelToken::child`]).
    parent: Option<CancelToken>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A scoped child token: cancelling the child does *not* cancel the
    /// parent, but a cancelled parent is observed through the child. The
    /// valuation scheduler hands each shard task a child of the caller's
    /// token so a first-violation cancel can stop the losing shards
    /// without raising the caller-visible flag.
    pub fn child(&self) -> CancelToken {
        CancelToken {
            inner: Arc::new(CancelInner {
                flag: AtomicBool::new(false),
                reason: Mutex::new(None),
                parent: Some(self.clone()),
            }),
        }
    }

    /// Raises the flag. The first caller's `reason` wins; later calls keep
    /// the flag raised but do not overwrite the reason.
    pub fn cancel(&self, reason: impl Into<String>) {
        // Poisoning is survivable here: the slot only ever holds a String.
        let mut slot = self
            .inner
            .reason
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        if slot.is_none() {
            *slot = Some(reason.into());
        }
        self.inner.flag.store(true, Ordering::Release);
    }

    /// Whether the token (or any ancestor, for child tokens) has been
    /// cancelled. One relaxed load per link — safe to call on a search
    /// hot path; the chain is one deep in practice.
    pub fn is_cancelled(&self) -> bool {
        if self.inner.flag.load(Ordering::Relaxed) {
            return true;
        }
        match &self.inner.parent {
            Some(parent) => parent.is_cancelled(),
            None => false,
        }
    }

    /// The recorded cancellation reason, if any: this token's own reason
    /// if set, otherwise the nearest cancelled ancestor's.
    pub fn reason(&self) -> Option<String> {
        let own = self
            .inner
            .reason
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
            .clone();
        match (own, &self.inner.parent) {
            (Some(reason), _) => Some(reason),
            (None, Some(parent)) => parent.reason(),
            (None, None) => None,
        }
    }
}

/// Why a search stopped without reaching a verdict.
///
/// Every variant maps to one outcome label in the run report (see
/// [`AbortReason::label`]) and to one `abort` object; the engines guarantee
/// that any of these stops is *graceful* — partial statistics are merged,
/// exactly one report is emitted, and no worker is left running.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AbortReason {
    /// The visited-state budget was exhausted.
    StateBudget {
        /// The configured cap that tripped.
        max_states: u64,
    },
    /// The wall-clock deadline passed (checked on the engines' ~1024-state
    /// progress stride, so the overshoot is bounded by one stride of work).
    DeadlineExceeded {
        /// The configured wall-clock budget, in nanoseconds.
        limit_ns: u64,
    },
    /// A [`CancelToken`] was cancelled externally.
    Cancelled {
        /// The reason recorded by the first `cancel` call.
        reason: String,
    },
    /// A worker panicked; surviving workers drained and merged their stats.
    WorkerPanicked {
        /// Index of the panicking worker (0 for the sequential engine).
        worker: usize,
        /// The panic payload, stringified.
        payload: String,
    },
}

impl AbortReason {
    /// The run-report outcome label for this reason — one of
    /// `"budget_exceeded"`, `"deadline_exceeded"`, `"cancelled"`,
    /// `"worker_panicked"`.
    pub fn label(&self) -> &'static str {
        match self {
            AbortReason::StateBudget { .. } => "budget_exceeded",
            AbortReason::DeadlineExceeded { .. } => "deadline_exceeded",
            AbortReason::Cancelled { .. } => "cancelled",
            AbortReason::WorkerPanicked { .. } => "worker_panicked",
        }
    }

    /// The exhausted budget, in the unit native to the reason: states for
    /// [`AbortReason::StateBudget`], nanoseconds for
    /// [`AbortReason::DeadlineExceeded`], 0 otherwise (nothing was
    /// budgeted — the stop was externally imposed).
    pub fn budget(&self) -> u64 {
        match self {
            AbortReason::StateBudget { max_states } => *max_states,
            AbortReason::DeadlineExceeded { limit_ns } => *limit_ns,
            AbortReason::Cancelled { .. } | AbortReason::WorkerPanicked { .. } => 0,
        }
    }
}

/// A caught panic's message, as [`AbortReason::WorkerPanicked`] and the
/// server's crash records carry it: the `&str` or `String` a `panic!`
/// raised, else `"non-string panic payload"`. Pass the payload itself
/// (`&*boxed`), not a reference to its `Box`, which would downcast as the
/// box.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl std::fmt::Display for AbortReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AbortReason::StateBudget { max_states } => {
                write!(f, "state budget exhausted (max_states = {max_states})")
            }
            AbortReason::DeadlineExceeded { limit_ns } => {
                write!(f, "deadline exceeded (limit = {limit_ns} ns)")
            }
            AbortReason::Cancelled { reason } => write!(f, "cancelled: {reason}"),
            AbortReason::WorkerPanicked { worker, payload } => {
                write!(f, "worker {worker} panicked: {payload}")
            }
        }
    }
}

/// A test-only fault-injection hook: called once per state expansion with
/// the 1-based expansion ordinal (globally ordered across parallel
/// workers). The hook may panic (exercising the engines' panic isolation)
/// or cancel a captured [`CancelToken`]; production options leave it
/// `None`, which costs one branch per expansion.
pub type FaultHook = Arc<dyn Fn(u64) + Send + Sync>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_cancel_reason_wins() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert_eq!(t.reason(), None);
        t.cancel("first");
        t.cancel("second");
        assert!(t.is_cancelled());
        assert_eq!(t.reason().as_deref(), Some("first"));
    }

    #[test]
    fn clones_share_the_flag() {
        let t = CancelToken::new();
        let c = t.clone();
        c.cancel("via clone");
        assert!(t.is_cancelled());
        assert_eq!(t.reason().as_deref(), Some("via clone"));
    }

    #[test]
    fn child_observes_parent_but_not_vice_versa() {
        let parent = CancelToken::new();
        let child = parent.child();
        assert!(!child.is_cancelled());
        child.cancel("shard superseded");
        assert!(child.is_cancelled());
        assert!(!parent.is_cancelled(), "child cancel must stay scoped");
        assert_eq!(child.reason().as_deref(), Some("shard superseded"));
        assert_eq!(parent.reason(), None);

        let parent = CancelToken::new();
        let child = parent.child();
        parent.cancel("caller abort");
        assert!(child.is_cancelled(), "parent cancel flows to children");
        assert_eq!(child.reason().as_deref(), Some("caller abort"));
    }

    #[test]
    fn child_own_reason_shadows_parent() {
        let parent = CancelToken::new();
        let child = parent.child();
        child.cancel("mine");
        parent.cancel("theirs");
        assert_eq!(child.reason().as_deref(), Some("mine"));
    }

    #[test]
    fn labels_and_budgets_follow_the_schema() {
        let r = AbortReason::StateBudget { max_states: 7 };
        assert_eq!(r.label(), "budget_exceeded");
        assert_eq!(r.budget(), 7);
        let r = AbortReason::DeadlineExceeded { limit_ns: 9 };
        assert_eq!(r.label(), "deadline_exceeded");
        assert_eq!(r.budget(), 9);
        let r = AbortReason::Cancelled {
            reason: "user".into(),
        };
        assert_eq!(r.label(), "cancelled");
        assert_eq!(r.budget(), 0);
        let r = AbortReason::WorkerPanicked {
            worker: 3,
            payload: "boom".into(),
        };
        assert_eq!(r.label(), "worker_panicked");
        assert_eq!(r.budget(), 0);
    }

    #[test]
    fn panic_messages_read_string_payloads_only() {
        let payloads: [(Box<dyn std::any::Any + Send>, &str); 3] = [
            (Box::new("static text"), "static text"),
            (Box::new(format!("formatted {}", 7)), "formatted 7"),
            (Box::new(42u32), "non-string panic payload"),
        ];
        for (payload, message) in payloads {
            assert_eq!(panic_message(&*payload), message);
        }
    }
}
