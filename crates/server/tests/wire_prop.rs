//! Wire-protocol property suite (run with `--features proptest`).
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
use ddws_testkit::compgen;
use ddws_testkit::proptest::{self, prelude::*};
use ddws_testkit::rng::XorShift;
use ddws_verifier::{DatabaseMode, RunReport, Verifier, VerifyOptions};
use std::sync::OnceLock;

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

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

fn arb_options() -> impl Strategy<Value = JobOptions> {
    (1u64..1_000_000, 0u64..4, 0u64..6).prop_map(|(budget, fresh, shards)| JobOptions {
        budget,
        fresh_values: (fresh > 0).then_some(fresh as usize),
        valuation_threads: (shards > 1).then_some(shards as usize),
    })
}

fn arb_spec() -> impl Strategy<Value = JobSpec> {
    prop_oneof![
        (0u64..u64::MAX).prop_map(|seed| JobSpec::Spec(compgen::spec(&mut XorShift::new(seed)))),
        (0u64..SCENARIOS.len() as u64)
            .prop_map(|i| JobSpec::Scenario(SCENARIOS[i as usize].to_string())),
    ]
}

fn arb_token() -> impl Strategy<Value = Option<u64>> {
    (0u64..2, 0u64..u64::MAX).prop_map(|(some, v)| (some == 1).then_some(v))
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (arb_spec(), arb_options(), arb_token()).prop_map(|(spec, options, submit_token)| {
            Request::SubmitJob {
                spec,
                options,
                submit_token,
            }
        }),
        (0u64..1_000).prop_map(|job| Request::JobStatus { job }),
        (0u64..1_000).prop_map(|job| Request::CancelJob { job }),
        (0u64..1_000).prop_map(|job| Request::FetchResult { job }),
        (0u64..1_000).prop_map(|job| Request::StreamTelemetry { job }),
    ]
}

fn arb_snapshot() -> impl Strategy<Value = JobSnapshot> {
    (0u64..100, 0u64..6, 0u64..50, 0u64..100_000).prop_map(|(job, state, slices, states)| {
        JobSnapshot {
            job,
            state: match state {
                0 => JobState::Queued,
                1 => JobState::Running,
                2 => JobState::Parked,
                3 => JobState::Done,
                4 => JobState::Cancelled,
                _ => JobState::Failed,
            },
            slices,
            states_visited: states,
        }
    })
}

fn arb_progress() -> impl Strategy<Value = Progress> {
    (0u64..u32::MAX as u64, 0u64..100_000, 0u64..512, 0u64..64).prop_map(
        |(elapsed_ns, states_visited, frontier, depth)| Progress {
            elapsed_ns,
            states_visited,
            states_per_sec: states_visited,
            frontier,
            depth,
            ample_hits: states_visited / 2,
            full_expansions: states_visited / 3,
            rule_cache_hits: frontier,
            rule_cache_misses: depth,
        },
    )
}

fn arb_cex() -> impl Strategy<Value = CexDigest> {
    (0u64..3, 0u64..200, 1u64..50).prop_map(|(vals, prefix_len, cycle_len)| CexDigest {
        values: (0..vals)
            .map(|i| ["a", "b", "c"][i as usize].to_string())
            .collect(),
        prefix_len,
        cycle_len,
    })
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        (0u64..1_000).prop_map(|job| Response::Accepted { job }),
        arb_snapshot().prop_map(Response::Status),
        (0u64..1_000).prop_map(|job| Response::Cancelled { job }),
        (arb_snapshot(), 0u64..5, arb_cex(), 0u64..4).prop_map(|(snapshot, v, cex, flags)| {
            let verdict = [
                "holds",
                "violated",
                "cancelled",
                "budget_exceeded",
                "failed",
            ][v as usize];
            Response::Result {
                snapshot,
                verdict: verdict.to_string(),
                report: (flags & 1 != 0).then(|| sample_report().clone()),
                counterexample: (flags & 2 != 0).then_some(cex),
            }
        }),
        (
            0u64..1_000,
            proptest::collection::vec(arb_progress(), 0..3),
            0u64..3
        )
            .prop_map(|(job, snapshots, nreports)| Response::Telemetry {
                job,
                snapshots,
                reports: (0..nreports).map(|_| sample_report().clone()).collect(),
            }),
        (0u64..ERROR_CODES.len() as u64, (0u64..1_000)).prop_map(|(c, n)| Response::Error(
            WireError::new(ERROR_CODES[c as usize], format!("detail {n}"))
        )),
    ]
}

/// Random bytes, sized to stress every deframe branch.
fn arb_bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u64..256, 0..64)
        .prop_map(|v| v.into_iter().map(|b| b as u8).collect())
}

// ---------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Requests round-trip exactly, and the canonical encoding is unique.
    #[test]
    fn request_round_trips(id in 0u64..u64::MAX, req in arb_request()) {
        let bytes = encode_request(id, &req);
        let (rid, decoded, consumed) = decode_request(&bytes)
            .map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?;
        prop_assert_eq!(rid, id);
        prop_assert_eq!(&decoded, &req);
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(encode_request(id, &decoded), bytes);
    }

    /// Responses round-trip; equality is byte-level re-encoding (reports
    /// and progress snapshots carry floats, so the canonical JSON *is*
    /// the equality).
    #[test]
    fn response_round_trips(id in 0u64..u64::MAX, resp in arb_response()) {
        let bytes = encode_response(id, &resp);
        let (rid, decoded, consumed) = decode_response(&bytes)
            .map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?;
        prop_assert_eq!(rid, id);
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(encode_response(id, &decoded), bytes);
    }

    /// Truncating a valid frame anywhere yields `truncated_frame` — and
    /// never a panic, never a bogus parse.
    #[test]
    fn truncation_is_typed(req in arb_request(), cut in 0u64..1_000) {
        let bytes = encode_request(7, &req);
        let cut = (cut as usize) % bytes.len();
        match deframe(&bytes[..cut]) {
            Err(e) => prop_assert_eq!(e.code, ErrorCode::TruncatedFrame),
            Ok(_) => prop_assert!(false, "truncated frame deframed"),
        }
        prop_assert!(decode_request(&bytes[..cut]).is_err());
    }

    /// An announced length beyond the cap is `frame_too_large` without
    /// the decoder ever touching (or allocating) the payload.
    #[test]
    fn oversized_announcement_is_typed(extra in 1u64..u32::MAX as u64 - MAX_FRAME_LEN as u64) {
        let len = (MAX_FRAME_LEN as u64 + extra) as u32;
        let header = len.to_be_bytes().to_vec();
        match deframe(&header) {
            Err(e) => prop_assert_eq!(e.code, ErrorCode::FrameTooLarge),
            Ok(_) => prop_assert!(false, "oversized frame deframed"),
        }
    }

    /// Arbitrary bytes never panic the decoders; whatever comes back is
    /// a registered error code.
    #[test]
    fn garbage_never_panics(bytes in arb_bytes()) {
        if let Err(e) = decode_request(&bytes) {
            prop_assert!(ErrorCode::from_code(e.code.code()).is_some());
        }
        if let Err(e) = decode_response(&bytes) {
            prop_assert!(ErrorCode::from_code(e.code.code()).is_some());
        }
    }

    /// Well-framed garbage payloads are `malformed_frame`: not UTF-8, not
    /// JSON, or JSON without the envelope.
    #[test]
    fn framed_garbage_is_malformed(payload in arb_bytes()) {
        let bytes = frame(&payload);
        match decode_request(&bytes) {
            Err(e) => prop_assert!(
                matches!(e.code, ErrorCode::MalformedFrame | ErrorCode::UnsupportedVersion),
                "unexpected code {:?}", e.code
            ),
            // Vanishingly unlikely: the payload would have to be a full
            // canonical envelope.
            Ok(_) => prop_assert!(false, "garbage parsed as a request"),
        }
    }

    /// The `retry_after_ns` back-pressure hint survives the error
    /// envelope exactly — present round-trips the value, absent stays
    /// absent.
    #[test]
    fn retry_after_hints_round_trip(hint in arb_token(), n in 0u64..1_000) {
        let mut err = WireError::new(ErrorCode::QueueFull, format!("full {n}"));
        if let Some(ns) = hint {
            err = err.with_retry_after(ns);
        }
        let bytes = encode_response(n, &Response::Error(err.clone()));
        let (_, decoded, _) = decode_response(&bytes)
            .map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?;
        match decoded {
            Response::Error(back) => {
                prop_assert_eq!(back.code, ErrorCode::QueueFull);
                prop_assert_eq!(back.retry_after_ns, hint);
            }
            other => prop_assert!(false, "unexpected response: {other:?}"),
        }
    }

    /// Splicing an *unregistered* numeric code into an error envelope
    /// decodes to the typed `unknown_error_code` fallback — a peer
    /// speaking a newer protocol revision cannot panic this side or get
    /// its error silently dropped.
    #[test]
    fn unregistered_error_codes_decode_typed(bogus in 1_000u64..1_000_000, n in 0u64..1_000) {
        let good = encode_response(n, &Response::Error(WireError::new(
            ErrorCode::Internal,
            "future error".to_string(),
        )));
        let (payload, _) = deframe(&good).expect("self-encoded frame");
        let text = std::str::from_utf8(payload).expect("canonical JSON is UTF-8");
        let spliced = text.replace(
            &format!("\"code\":{}", ErrorCode::Internal.code()),
            &format!("\"code\":{bogus}"),
        );
        prop_assert!(spliced != text, "splice must hit the code field");
        let (_, decoded, _) = decode_response(&frame(spliced.as_bytes()))
            .map_err(|e| TestCaseError::fail(format!("fallback failed: {e}")))?;
        match decoded {
            Response::Error(err) => {
                prop_assert_eq!(err.code, ErrorCode::UnknownErrorCode);
                prop_assert!(err.message.contains(&bogus.to_string()));
            }
            other => prop_assert!(false, "unexpected response: {other:?}"),
        }
    }

    /// Every version but [`WIRE_VERSION`] — older ones included — is
    /// `unsupported_version`, for requests and responses alike.
    #[test]
    fn unsupported_versions_are_rejected(version in 0u64..100, job in 0u64..1_000) {
        let version = if version == WIRE_VERSION { u64::MAX } else { version };
        // Splice the bad version into an otherwise-valid envelope.
        let good = encode_request(11, &Request::JobStatus { job });
        let (payload, _) = deframe(&good).expect("self-encoded frame");
        let text = std::str::from_utf8(payload).expect("canonical JSON is UTF-8");
        let spliced = text.replace(
            &format!("\"version\":{WIRE_VERSION}"),
            &format!("\"version\":{version}"),
        );
        prop_assert!(spliced != text, "splice must hit the version field");
        let bytes = frame(spliced.as_bytes());
        match decode_request(&bytes) {
            Err(e) => prop_assert_eq!(e.code, ErrorCode::UnsupportedVersion),
            Ok(_) => prop_assert!(false, "version {} accepted", version),
        }
        match decode_response(&bytes) {
            Err(e) => prop_assert_eq!(e.code, ErrorCode::UnsupportedVersion),
            Ok(_) => prop_assert!(false, "version {} accepted", version),
        }
    }

    /// Unknown message types are `unknown_request`.
    #[test]
    fn unknown_types_are_rejected(job in 0u64..1_000, tag in 0u64..3) {
        let good = encode_request(13, &Request::StreamTelemetry { job });
        let (payload, _) = deframe(&good).expect("self-encoded frame");
        let text = std::str::from_utf8(payload).expect("canonical JSON is UTF-8");
        let bogus = ["no_such_call", "submitjob", ""][tag as usize];
        let renamed =
            text.replace("\"type\":\"stream_telemetry\"", &format!("\"type\":{bogus:?}"));
        match decode_request(&frame(renamed.as_bytes())) {
            Err(e) => prop_assert_eq!(e.code, ErrorCode::UnknownRequest),
            Ok(_) => prop_assert!(false, "bogus type decoded"),
        }
    }
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
