//! Wire-protocol property suite.
//!
//! Three laws, each over randomized content:
//!
//! 1. **Round-trip** — every request and response type survives
//!    `encode → decode` exactly, and re-encoding is byte-identical
//!    (the canonical-JSON serialization admits one encoding per value).
//! 2. **Totality** — decoding never panics: truncated, oversized, and
//!    garbage frames all come back as typed [`WireError`]s with the
//!    registry code the failure class owns.
//! 3. **One version** — decoders accept [`WIRE_VERSION`] only: a frame
//!    announcing any other version is rejected as `unsupported_version`,
//!    never misparsed.

use ddws_server::{
    decode_request, decode_response, deframe, encode_request, encode_response, frame, CexDigest,
    ErrorCode, JobOptions, JobSnapshot, JobSpec, Request, Response, WireError, ERROR_CODES,
    MAX_FRAME_LEN, WIRE_VERSION,
};
use ddws_server::{scenario, JobState, SCENARIOS};
use ddws_telemetry::Progress;
use ddws_testkit::rng::XorShift;
use ddws_testkit::{compgen, gen, seed_from};
use ddws_verifier::{DatabaseMode, RunReport, Verifier, VerifyOptions};
use std::sync::OnceLock;

/// Cases per property.
const CASES: usize = 96;

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

/// A uniform value in `[lo, hi)`.
fn between(rng: &mut XorShift, lo: u64, hi: u64) -> u64 {
    lo + rng.below(hi - lo)
}

/// A real `RunReport`, produced once by actually verifying the smallest
/// registry scenario — fabricated reports would drift from the schema.
fn sample_report() -> &'static RunReport {
    static REPORT: OnceLock<RunReport> = OnceLock::new();
    REPORT.get_or_init(|| {
        let case = scenario("req_resp").expect("registry scenario");
        let mut verifier = Verifier::new(case.composition);
        let report = verifier
            .check_str(
                &case.property,
                &VerifyOptions {
                    database: DatabaseMode::Fixed(case.database),
                    fresh_values: Some(1),
                    ..VerifyOptions::default()
                },
            )
            .expect("scenario verifies");
        report.telemetry
    })
}

fn gen_options(rng: &mut XorShift) -> JobOptions {
    let budget = between(rng, 1, 1_000_000);
    let fresh = rng.below(4);
    let shards = rng.below(6);
    JobOptions {
        budget,
        fresh_values: (fresh > 0).then_some(fresh as usize),
        valuation_threads: (shards > 1).then_some(shards as usize),
    }
}

fn gen_spec(rng: &mut XorShift) -> JobSpec {
    if rng.bool() {
        let seed = rng.below(u64::MAX);
        JobSpec::Spec(compgen::spec(&mut XorShift::new(seed)))
    } else {
        JobSpec::Scenario(rng.choose(SCENARIOS).to_string())
    }
}

fn gen_token(rng: &mut XorShift) -> Option<u64> {
    let some = rng.bool();
    let v = rng.below(u64::MAX);
    some.then_some(v)
}

fn gen_request(rng: &mut XorShift) -> Request {
    match rng.below(5) {
        0 => Request::SubmitJob {
            spec: gen_spec(rng),
            options: gen_options(rng),
            submit_token: gen_token(rng),
        },
        1 => Request::JobStatus {
            job: rng.below(1_000),
        },
        2 => Request::CancelJob {
            job: rng.below(1_000),
        },
        3 => Request::FetchResult {
            job: rng.below(1_000),
        },
        _ => Request::StreamTelemetry {
            job: rng.below(1_000),
        },
    }
}

fn gen_snapshot(rng: &mut XorShift) -> JobSnapshot {
    JobSnapshot {
        job: rng.below(100),
        state: *rng.choose(&[
            JobState::Queued,
            JobState::Running,
            JobState::Parked,
            JobState::Done,
            JobState::Cancelled,
            JobState::Failed,
        ]),
        slices: rng.below(50),
        states_visited: rng.below(100_000),
    }
}

fn gen_progress(rng: &mut XorShift) -> Progress {
    let elapsed_ns = rng.below(u64::from(u32::MAX));
    let states_visited = rng.below(100_000);
    let frontier = rng.below(512);
    let depth = rng.below(64);
    Progress {
        elapsed_ns,
        states_visited,
        states_per_sec: states_visited,
        frontier,
        depth,
        ample_hits: states_visited / 2,
        full_expansions: states_visited / 3,
        rule_cache_hits: frontier,
        rule_cache_misses: depth,
    }
}

fn gen_cex(rng: &mut XorShift) -> CexDigest {
    let vals = rng.range(0, 3);
    CexDigest {
        values: ["a", "b", "c"][..vals]
            .iter()
            .map(|v| v.to_string())
            .collect(),
        prefix_len: rng.below(200),
        cycle_len: between(rng, 1, 50),
    }
}

fn gen_response(rng: &mut XorShift) -> Response {
    match rng.below(6) {
        0 => Response::Accepted {
            job: rng.below(1_000),
        },
        1 => Response::Status(gen_snapshot(rng)),
        2 => Response::Cancelled {
            job: rng.below(1_000),
        },
        3 => {
            let snapshot = gen_snapshot(rng);
            let verdict = rng.choose(&[
                "holds",
                "violated",
                "cancelled",
                "budget_exceeded",
                "failed",
            ]);
            let cex = gen_cex(rng);
            let flags = rng.below(4);
            Response::Result {
                snapshot,
                verdict: verdict.to_string(),
                report: (flags & 1 != 0).then(|| sample_report().clone()),
                counterexample: (flags & 2 != 0).then_some(cex),
            }
        }
        4 => Response::Telemetry {
            job: rng.below(1_000),
            snapshots: gen::vec_of(rng, 0, 2, gen_progress),
            reports: (0..rng.below(3)).map(|_| sample_report().clone()).collect(),
        },
        _ => Response::Error(WireError::new(
            *rng.choose(ERROR_CODES),
            format!("detail {}", rng.below(1_000)),
        )),
    }
}

/// Random bytes, sized to stress every deframe branch.
fn gen_bytes(rng: &mut XorShift) -> Vec<u8> {
    gen::vec_of(rng, 0, 63, |r| r.below(256) as u8)
}

// ---------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------

/// Requests round-trip exactly, and the canonical encoding is unique.
#[test]
fn request_round_trips() {
    gen::cases(CASES, seed_from("request_round_trips"), |rng| {
        let id = rng.below(u64::MAX);
        let req = gen_request(rng);
        let bytes = encode_request(id, &req);
        let (rid, decoded, consumed) =
            decode_request(&bytes).unwrap_or_else(|e| panic!("decode failed: {e}"));
        assert_eq!(rid, id);
        assert_eq!(decoded, req);
        assert_eq!(consumed, bytes.len());
        assert_eq!(encode_request(id, &decoded), bytes);
    });
}

/// Responses round-trip; equality is byte-level re-encoding (reports
/// and progress snapshots carry floats, so the canonical JSON *is*
/// the equality).
#[test]
fn response_round_trips() {
    gen::cases(CASES, seed_from("response_round_trips"), |rng| {
        let id = rng.below(u64::MAX);
        let resp = gen_response(rng);
        let bytes = encode_response(id, &resp);
        let (rid, decoded, consumed) =
            decode_response(&bytes).unwrap_or_else(|e| panic!("decode failed: {e}"));
        assert_eq!(rid, id);
        assert_eq!(consumed, bytes.len());
        assert_eq!(encode_response(id, &decoded), bytes);
    });
}

/// Truncating a valid frame anywhere yields `truncated_frame` — and
/// never a panic, never a bogus parse.
#[test]
fn truncation_is_typed() {
    gen::cases(CASES, seed_from("truncation_is_typed"), |rng| {
        let req = gen_request(rng);
        let bytes = encode_request(7, &req);
        let cut = rng.below(1_000) as usize % bytes.len();
        match deframe(&bytes[..cut]) {
            Err(e) => assert_eq!(e.code, ErrorCode::TruncatedFrame),
            Ok(_) => panic!("truncated frame deframed"),
        }
        assert!(decode_request(&bytes[..cut]).is_err());
    });
}

/// An announced length beyond the cap is `frame_too_large` without
/// the decoder ever touching (or allocating) the payload.
#[test]
fn oversized_announcement_is_typed() {
    gen::cases(CASES, seed_from("oversized_announcement_is_typed"), |rng| {
        let extra = between(rng, 1, u64::from(u32::MAX) - MAX_FRAME_LEN as u64);
        let len = (MAX_FRAME_LEN as u64 + extra) as u32;
        match deframe(&len.to_be_bytes()) {
            Err(e) => assert_eq!(e.code, ErrorCode::FrameTooLarge),
            Ok(_) => panic!("oversized frame deframed"),
        }
    });
}

/// Arbitrary bytes never panic the decoders; whatever comes back is
/// a registered error code.
#[test]
fn garbage_never_panics() {
    gen::cases(CASES, seed_from("garbage_never_panics"), |rng| {
        let bytes = gen_bytes(rng);
        if let Err(e) = decode_request(&bytes) {
            assert!(ErrorCode::from_code(e.code.code()).is_some());
        }
        if let Err(e) = decode_response(&bytes) {
            assert!(ErrorCode::from_code(e.code.code()).is_some());
        }
    });
}

/// Well-framed garbage payloads are `malformed_frame`: not UTF-8, not
/// JSON, or JSON without the envelope.
#[test]
fn framed_garbage_is_malformed() {
    gen::cases(CASES, seed_from("framed_garbage_is_malformed"), |rng| {
        let bytes = frame(&gen_bytes(rng));
        match decode_request(&bytes) {
            Err(e) => assert!(
                matches!(
                    e.code,
                    ErrorCode::MalformedFrame | ErrorCode::UnsupportedVersion
                ),
                "unexpected code {:?}",
                e.code
            ),
            // Vanishingly unlikely: the payload would have to be a full
            // canonical envelope.
            Ok(_) => panic!("garbage parsed as a request"),
        }
    });
}

/// The `retry_after_ns` back-pressure hint survives the error
/// envelope exactly — present round-trips the value, absent stays
/// absent.
#[test]
fn retry_after_hints_round_trip() {
    gen::cases(CASES, seed_from("retry_after_hints_round_trip"), |rng| {
        let hint = gen_token(rng);
        let n = rng.below(1_000);
        let mut err = WireError::new(ErrorCode::QueueFull, format!("full {n}"));
        if let Some(ns) = hint {
            err = err.with_retry_after(ns);
        }
        let bytes = encode_response(n, &Response::Error(err));
        let (_, decoded, _) =
            decode_response(&bytes).unwrap_or_else(|e| panic!("decode failed: {e}"));
        match decoded {
            Response::Error(back) => {
                assert_eq!(back.code, ErrorCode::QueueFull);
                assert_eq!(back.retry_after_ns, hint);
            }
            other => panic!("unexpected response: {other:?}"),
        }
    });
}

/// Splicing an *unregistered* numeric code into an error envelope
/// decodes to the typed `unknown_error_code` fallback — a peer
/// speaking a newer protocol revision cannot panic this side or get
/// its error silently dropped.
#[test]
fn unregistered_error_codes_decode_typed() {
    gen::cases(
        CASES,
        seed_from("unregistered_error_codes_decode_typed"),
        |rng| {
            let bogus = between(rng, 1_000, 1_000_000);
            let n = rng.below(1_000);
            let good = encode_response(
                n,
                &Response::Error(WireError::new(
                    ErrorCode::Internal,
                    "future error".to_string(),
                )),
            );
            let (payload, _) = deframe(&good).expect("self-encoded frame");
            let text = std::str::from_utf8(payload).expect("canonical JSON is UTF-8");
            let spliced = text.replace(
                &format!("\"code\":{}", ErrorCode::Internal.code()),
                &format!("\"code\":{bogus}"),
            );
            assert!(spliced != text, "splice must hit the code field");
            let (_, decoded, _) = decode_response(&frame(spliced.as_bytes()))
                .unwrap_or_else(|e| panic!("fallback failed: {e}"));
            match decoded {
                Response::Error(err) => {
                    assert_eq!(err.code, ErrorCode::UnknownErrorCode);
                    assert!(err.message.contains(&bogus.to_string()));
                }
                other => panic!("unexpected response: {other:?}"),
            }
        },
    );
}

/// Every version but [`WIRE_VERSION`] — older ones included — is
/// `unsupported_version`, for requests and responses alike.
#[test]
fn unsupported_versions_are_rejected() {
    gen::cases(
        CASES,
        seed_from("unsupported_versions_are_rejected"),
        |rng| {
            let version = rng.below(100);
            let version = if version == WIRE_VERSION {
                u64::MAX
            } else {
                version
            };
            let job = rng.below(1_000);
            // Splice the bad version into an otherwise-valid envelope.
            let good = encode_request(11, &Request::JobStatus { job });
            let (payload, _) = deframe(&good).expect("self-encoded frame");
            let text = std::str::from_utf8(payload).expect("canonical JSON is UTF-8");
            let spliced = text.replace(
                &format!("\"version\":{WIRE_VERSION}"),
                &format!("\"version\":{version}"),
            );
            assert!(spliced != text, "splice must hit the version field");
            let bytes = frame(spliced.as_bytes());
            match decode_request(&bytes) {
                Err(e) => assert_eq!(e.code, ErrorCode::UnsupportedVersion),
                Ok(_) => panic!("version {version} accepted"),
            }
            match decode_response(&bytes) {
                Err(e) => assert_eq!(e.code, ErrorCode::UnsupportedVersion),
                Ok(_) => panic!("version {version} accepted"),
            }
        },
    );
}

/// Unknown message types are `unknown_request`.
#[test]
fn unknown_types_are_rejected() {
    gen::cases(CASES, seed_from("unknown_types_are_rejected"), |rng| {
        let job = rng.below(1_000);
        let good = encode_request(13, &Request::StreamTelemetry { job });
        let (payload, _) = deframe(&good).expect("self-encoded frame");
        let text = std::str::from_utf8(payload).expect("canonical JSON is UTF-8");
        let bogus = rng.choose(&["no_such_call", "submitjob", ""]);
        let renamed = text.replace(
            "\"type\":\"stream_telemetry\"",
            &format!("\"type\":{bogus:?}"),
        );
        match decode_request(&frame(renamed.as_bytes())) {
            Err(e) => assert_eq!(e.code, ErrorCode::UnknownRequest),
            Ok(_) => panic!("bogus type decoded"),
        }
    });
}

/// The error-code registry is closed under its own maps: codes are
/// unique, names are unique, and `from_code` inverts `code`.
#[test]
fn error_code_registry_is_consistent() {
    let mut codes = std::collections::HashSet::new();
    let mut names = std::collections::HashSet::new();
    for &ec in ERROR_CODES {
        assert!(codes.insert(ec.code()), "duplicate code {}", ec.code());
        assert!(names.insert(ec.name()), "duplicate name {}", ec.name());
        assert_eq!(ErrorCode::from_code(ec.code()), Some(ec));
    }
    assert_eq!(ErrorCode::from_code(0), None);
}

/// Every registered error code survives the wire exactly: code, name,
/// message, and (where attached) the retry hint all round-trip through
/// an error envelope. Exhaustive over the registry, not sampled — a new
/// code that forgets its decode arm fails here, not in production.
#[test]
fn every_error_code_round_trips_through_the_envelope() {
    for &ec in ERROR_CODES {
        let err = WireError::new(ec, format!("probe {}", ec.name())).with_retry_after(42);
        let bytes = encode_response(9, &Response::Error(err));
        let (rid, decoded, consumed) = decode_response(&bytes)
            .unwrap_or_else(|e| panic!("{} failed to decode: {e}", ec.name()));
        assert_eq!(rid, 9);
        assert_eq!(consumed, bytes.len());
        match decoded {
            Response::Error(back) => {
                assert_eq!(back.code, ec, "{} code drifted", ec.name());
                assert_eq!(back.message, format!("probe {}", ec.name()));
                assert_eq!(back.retry_after_ns, Some(42));
                // Re-encoding is byte-identical (canonical JSON).
                assert_eq!(encode_response(9, &Response::Error(back)), bytes);
            }
            other => panic!("{} decoded as {other:?}", ec.name()),
        }
    }
}
