//! # `ddws-testkit` — deterministic, dependency-free test support
//!
//! The workspace builds and tests with **no network access**, so the usual
//! randomized-testing stack (`proptest`, `rand`) is off the table. This
//! crate replaces it with std-only modules:
//!
//! * [`rng`] + [`gen`] — a seeded xorshift64\* PRNG and a tiny, shrink-free
//!   case-generator API ([`gen::cases`]): the one randomized-testing API
//!   every property suite (each crate's `tests/prop.rs`) is written on;
//! * [`compgen`] (feature `compgen`, pulls in `ddws-model`) — random small
//!   compositions and input-bounded properties for differential swarm
//!   tests (e.g. `Reduction::Ample` vs `Reduction::Full`);
//! * [`faults`] — seeded deterministic fault plans (panic-at-Nth-expansion,
//!   cancel-at-Nth, deadline-now) for driving the engines' abort paths;
//! * [`mutate`] — seeded byte-level mutation (flip, delete, insert,
//!   truncate, splice) of valid inputs, for decoder-totality tests;
//! * [`contract`] (feature `contract`, pulls in `ddws-verifier`) — the
//!   shared robustness/report contract assertions used by the fault
//!   swarm, the telemetry invariant suite, and the deterministic
//!   simulator.
//!
//! Everything is deterministic: a test's case stream is derived from the
//! test's name (via [`seed_from`]), so failures reproduce without recording
//! seeds, at the price of shrink-free (the failing case prints whole).

#![warn(missing_docs)]

#[cfg(feature = "compgen")]
pub mod compgen;
#[cfg(feature = "contract")]
pub mod contract;
pub mod faults;
pub mod gen;
pub mod mutate;
pub mod rng;

/// Derives a stable 64-bit seed from a test name (FNV-1a).
///
/// Used by [`gen::cases`] callers that want a per-test stream without
/// inventing seed constants.
pub fn seed_from(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // Avoid the all-zero xorshift fixed point for any input.
    h | 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_stable_and_distinct() {
        assert_eq!(seed_from("a"), seed_from("a"));
        assert_ne!(seed_from("a"), seed_from("b"));
        assert_ne!(seed_from(""), 0);
    }
}
