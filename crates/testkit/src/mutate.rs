//! Seeded byte-level mutation of valid inputs, for decoder-totality tests.
//!
//! A decoder that is total must return a typed error — never panic — on
//! every input, and the inputs most likely to reach deep into a decoder
//! are *near-valid* ones: a real frame or report with a few bytes
//! changed. [`mutate`] derives such inputs from a valid seed input with
//! the five classic operators of byte-level fuzzers:
//!
//! * **flip** — flip one bit of one byte;
//! * **delete** — remove a run of up to 8 bytes;
//! * **insert** — insert up to 4 bytes, each random or drawn from the
//!   JSON structural alphabet (so insertions often stay tokenizable);
//! * **truncate** — cut the input at a random offset;
//! * **splice** — overwrite a run with a slice of a donor input (another
//!   valid input, or the seed itself), which moves whole fields around.
//!
//! Everything is drawn from the caller's [`XorShift`], so a failing case
//! replays from its seed.

use crate::rng::XorShift;

/// Bytes that keep an insertion close to well-formed JSON.
const STRUCTURAL: &[u8] = b"{}[]\",:0123456789-.eEtfn \\u";

/// A copy of `input` with one to three random mutations applied. `donors`
/// supply splice material; with none, the input splices into itself.
pub fn mutate(rng: &mut XorShift, input: &[u8], donors: &[&[u8]]) -> Vec<u8> {
    let mut out = input.to_vec();
    for _ in 0..rng.range(1, 4) {
        mutate_once(rng, &mut out, input, donors);
    }
    out
}

fn mutate_once(rng: &mut XorShift, out: &mut Vec<u8>, input: &[u8], donors: &[&[u8]]) {
    let len = out.len();
    match rng.below(5) {
        0 if len > 0 => {
            let at = rng.range(0, len);
            out[at] ^= 1 << rng.below(8);
        }
        1 if len > 0 => {
            let at = rng.range(0, len);
            let end = (at + rng.range(1, 9)).min(len);
            out.drain(at..end);
        }
        3 if len > 0 => out.truncate(rng.range(0, len)),
        4 => {
            let donor = if donors.is_empty() {
                input
            } else {
                *rng.choose(donors)
            };
            if donor.is_empty() {
                return;
            }
            let from = rng.range(0, donor.len());
            let take = rng.range(1, (donor.len() - from).min(64) + 1);
            let at = rng.range(0, len + 1);
            let end = (at + rng.range(0, 65)).min(len);
            out.splice(at..end, donor[from..from + take].iter().copied());
        }
        _ => {
            let at = rng.range(0, len + 1);
            let bytes: Vec<u8> = (0..rng.range(1, 5))
                .map(|_| {
                    if rng.bool() {
                        *rng.choose(STRUCTURAL)
                    } else {
                        rng.next_u64() as u8
                    }
                })
                .collect();
            out.splice(at..at, bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutations_are_deterministic_and_change_the_input() {
        let input = br#"{"a":1,"b":[true,null]}"#;
        let donor: &[u8] = b"\"x\":2";
        let run = |seed| {
            let mut rng = XorShift::new(seed);
            (0..200)
                .map(|_| mutate(&mut rng, input, &[donor]))
                .collect::<Vec<_>>()
        };
        let first = run(7);
        assert_eq!(first, run(7));
        let changed = first.iter().filter(|m| m.as_slice() != input).count();
        assert!(changed > 150, "only {changed} of 200 mutants differ");
    }

    #[test]
    fn empty_inputs_only_grow() {
        let mut rng = XorShift::new(3);
        for _ in 0..100 {
            let _ = mutate(&mut rng, b"", &[]);
        }
    }
}
