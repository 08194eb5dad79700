//! Decoder totality over near-valid input.
//!
//! Every decoder that reads bytes from outside the process — the wire's
//! `decode_request` and `decode_response`, `RunReport::from_json`, and the
//! property parser behind `Verifier::parse_property` — must answer every
//! input with a value or a typed error, never a panic. This suite feeds
//! each one [`MUTANTS`] seeded byte-level mutants (flip, delete, insert,
//! truncate, splice; `ddws_testkit::mutate`) of valid inputs: every
//! request type, every response type with a real run report embedded in
//! its `result` and `telemetry` frames, real `holds` / `violated` /
//! `budget_exceeded` reports, and the scenario and compgen properties.
//!
//! Pass condition: nothing panics, and whatever decodes `Ok` re-encodes
//! and decodes back to the same value (for frames, to the same bytes).

use ddws::scenarios::{bank_loan, chains, ecommerce, travel};
use ddws_model::{Composition, Semantics};
use ddws_server::{
    decode_request, decode_response, deframe, encode_request, encode_response, frame, CexDigest,
    ErrorCode, JobOptions, JobSnapshot, JobSpec, JobState, Request, Response, WireError,
};
use ddws_testkit::mutate::mutate;
use ddws_testkit::rng::XorShift;
use ddws_testkit::{compgen, seed_from};
use ddws_verifier::{DatabaseMode, Progress, RunReport, Verifier, VerifyError, VerifyOptions};
use std::time::{Duration, Instant};

/// Mutants per decoder.
const MUTANTS: usize = 50_000;

/// Real reports from the 3-peer relay chain: `holds`, `violated`, and a
/// `budget_exceeded` abort (which carries the `abort` object).
fn real_reports() -> Vec<RunReport> {
    let run = |property: &str, max_states: u64| {
        let mut verifier = Verifier::new(chains::composition(3, true, Semantics::default()));
        let db = chains::database(verifier.composition_mut(), 2);
        let opts = VerifyOptions {
            database: DatabaseMode::Fixed(db),
            fresh_values: Some(1),
            max_states,
            ..VerifyOptions::default()
        };
        verifier
            .check_str(property, &opts)
            .expect("relay chain verifies")
            .telemetry
    };
    let reports = vec![
        run(&chains::prop_integrity(3), 1_000_000),
        run("G (forall x: P0.emit(x) -> false)", 1_000_000),
        run(&chains::prop_integrity(3), 5),
    ];
    let outcomes: Vec<&str> = reports.iter().map(|r| r.outcome.as_str()).collect();
    assert_eq!(outcomes, ["holds", "violated", "budget_exceeded"]);
    reports
}

fn requests() -> Vec<Request> {
    let mut rng = XorShift::new(seed_from("decoders::requests"));
    vec![
        Request::SubmitJob {
            spec: JobSpec::Spec(compgen::spec(&mut rng)),
            options: JobOptions::default(),
            submit_token: Some(17),
        },
        Request::SubmitJob {
            spec: JobSpec::Scenario("req_resp".into()),
            options: JobOptions {
                budget: 5_000,
                fresh_values: None,
                valuation_threads: Some(2),
            },
            submit_token: None,
        },
        Request::JobStatus { job: 3 },
        Request::CancelJob { job: 4 },
        Request::FetchResult { job: 5 },
        Request::StreamTelemetry { job: 6 },
    ]
}

fn responses(reports: &[RunReport]) -> Vec<Response> {
    let snapshot = JobSnapshot {
        job: 9,
        state: JobState::Done,
        slices: 4,
        states_visited: 1_234,
    };
    let progress = Progress {
        elapsed_ns: 1_000_000,
        states_visited: 50,
        states_per_sec: 50_000,
        frontier: 7,
        depth: 3,
        ample_hits: 2,
        full_expansions: 9,
        rule_cache_hits: 40,
        rule_cache_misses: 10,
    };
    vec![
        Response::Accepted { job: 1 },
        Response::Status(snapshot.clone()),
        Response::Cancelled { job: 2 },
        Response::Result {
            snapshot: snapshot.clone(),
            verdict: "holds".into(),
            report: Some(reports[0].clone()),
            counterexample: None,
        },
        Response::Result {
            snapshot,
            verdict: "violated".into(),
            report: Some(reports[1].clone()),
            counterexample: Some(CexDigest {
                values: vec!["t0".into(), "t1".into()],
                prefix_len: 4,
                cycle_len: 2,
            }),
        },
        Response::Telemetry {
            job: 9,
            snapshots: vec![progress, Progress::default()],
            reports: reports.to_vec(),
        },
        Response::Error(WireError::new(ErrorCode::QueueFull, "full").with_retry_after(5_000)),
        Response::Error(WireError::new(ErrorCode::UnknownJob, "no job 7")),
    ]
}

/// Mutates a valid frame: usually its payload, re-framed so the length
/// header stays consistent and the JSON decoder sees the damage; now and
/// then the raw bytes, header included.
fn mutate_frame(rng: &mut XorShift, frame_bytes: &[u8], donors: &[&[u8]]) -> Vec<u8> {
    if rng.chance(1, 4) {
        return mutate(rng, frame_bytes, donors);
    }
    let (payload, _) = deframe(frame_bytes).expect("valid frame");
    frame(&mutate(rng, payload, donors))
}

fn payloads(frames: &[Vec<u8>]) -> Vec<&[u8]> {
    frames
        .iter()
        .map(|f| deframe(f).expect("valid frame").0)
        .collect()
}

#[test]
fn request_decoding_is_total_and_round_trips() {
    let frames: Vec<Vec<u8>> = requests()
        .iter()
        .enumerate()
        .map(|(i, r)| encode_request(i as u64, r))
        .collect();
    let donors = payloads(&frames);
    let mut rng = XorShift::new(seed_from("decoders::request"));
    let mut decoded = 0;
    for i in 0..MUTANTS {
        let bytes = mutate_frame(&mut rng, &frames[i % frames.len()], &donors);
        let Ok((id, req, _)) = decode_request(&bytes) else {
            continue;
        };
        decoded += 1;
        let again = encode_request(id, &req);
        let (id2, req2, consumed) = decode_request(&again).expect("re-encoded request decodes");
        assert_eq!((id2, &req2, consumed), (id, &req, again.len()));
    }
    assert!(
        decoded > 0,
        "no mutant decoded: the suite exercises no Ok path"
    );
}

#[test]
fn response_decoding_is_total_and_round_trips() {
    let reports = real_reports();
    let frames: Vec<Vec<u8>> = responses(&reports)
        .iter()
        .enumerate()
        .map(|(i, r)| encode_response(i as u64, r))
        .collect();
    let donors = payloads(&frames);
    let mut rng = XorShift::new(seed_from("decoders::response"));
    let mut decoded = 0;
    for i in 0..MUTANTS {
        let bytes = mutate_frame(&mut rng, &frames[i % frames.len()], &donors);
        let Ok((id, resp, _)) = decode_response(&bytes) else {
            continue;
        };
        decoded += 1;
        let again = encode_response(id, &resp);
        let (id2, resp2, consumed) = decode_response(&again).expect("re-encoded response decodes");
        assert_eq!((id2, consumed), (id, again.len()));
        assert_eq!(format!("{resp2:?}"), format!("{resp:?}"));
        assert_eq!(encode_response(id2, &resp2), again);
    }
    assert!(
        decoded > 0,
        "no mutant decoded: the suite exercises no Ok path"
    );
}

#[test]
fn report_decoding_is_total_and_round_trips() {
    let texts: Vec<String> = real_reports().iter().map(RunReport::to_json).collect();
    let donors: Vec<&[u8]> = texts.iter().map(|t| t.as_bytes()).collect();
    let mut rng = XorShift::new(seed_from("decoders::report"));
    let mut decoded = 0;
    for i in 0..MUTANTS {
        let bytes = mutate(&mut rng, donors[i % donors.len()], &donors);
        let Ok(report) = RunReport::from_json(&String::from_utf8_lossy(&bytes)) else {
            continue;
        };
        decoded += 1;
        let again = RunReport::from_json(&report.to_json()).expect("re-encoded report decodes");
        assert_eq!(again, report);
    }
    assert!(
        decoded > 0,
        "no mutant decoded: the suite exercises no Ok path"
    );
}

#[test]
fn property_parsing_is_total() {
    let nested = Semantics {
        nested_send_skips_empty: true,
        ..Semantics::default()
    };
    let mut cells: Vec<(Composition, Vec<String>)> = vec![
        (
            bank_loan::composition(true, nested),
            vec![
                bank_loan::PROP_RATINGS_REFLECT_DB.into(),
                bank_loan::PROP_APPROVALS_JUSTIFIED.into(),
                bank_loan::PROP_LETTER_IMPLIES_APPLICATION.into(),
            ],
        ),
        (
            ecommerce::composition(true, Semantics::default()),
            vec![
                ecommerce::PROP_CHARGES_ARE_VALID.into(),
                ecommerce::PROP_SHIP_FROM_CATALOG.into(),
            ],
        ),
        (
            travel::composition(true, nested),
            vec![travel::PROP_RESULTS_ARE_REAL.into()],
        ),
    ];
    let mut rng = XorShift::new(seed_from("decoders::compgen"));
    for _ in 0..4 {
        let case = compgen::case(&mut rng);
        cells.push((case.composition, vec![case.property]));
    }
    let mut verifiers: Vec<(Verifier, Vec<String>)> = cells
        .into_iter()
        .map(|(comp, props)| (Verifier::new(comp), props))
        .collect();
    for (verifier, props) in &mut verifiers {
        for p in props.iter() {
            verifier
                .parse_property(p)
                .unwrap_or_else(|e| panic!("seed property `{p}` parses: {e}"));
        }
    }
    let mut rng = XorShift::new(seed_from("decoders::property"));
    let mut parsed = 0;
    let cells = verifiers.len();
    for i in 0..MUTANTS {
        let (verifier, props) = &mut verifiers[i % cells];
        let seed = props[i % props.len()].clone();
        let donors: Vec<&[u8]> = props.iter().map(|p| p.as_bytes()).collect();
        let bytes = mutate(&mut rng, seed.as_bytes(), &donors);
        if verifier
            .parse_property(&String::from_utf8_lossy(&bytes))
            .is_ok()
        {
            parsed += 1;
        }
    }
    assert!(
        parsed > 0,
        "no mutant parsed: the suite exercises no Ok path"
    );
}

/// Deep nesting is refused, not recursed into: a frame near the 1 MiB
/// cap holding nothing but open brackets once overflowed the JSON
/// parser's stack and aborted the process.
/// Properties arrive over the wire inside `submit_job`, so the parser
/// must refuse what would overflow its stack or exhaust memory: deep
/// nesting, long right-associative chains, and `<->` chains (each link
/// copies both sides).
#[test]
fn deep_and_long_properties_are_typed_errors() {
    let mut verifier = Verifier::new(chains::composition(3, true, Semantics::default()));
    let atom = "P0.emit(x)";
    let n = 100_000;
    let shapes = [
        format!("{}{atom}{}", "(".repeat(n), ")".repeat(n)),
        format!("{}{atom}", "not ".repeat(n)),
        format!("{}{atom}", "G ".repeat(n)),
        vec![atom; n].join(" -> "),
        vec![atom; n].join(" U "),
        vec![atom; 41].join(" <-> "),
    ];
    for property in &shapes {
        let start = Instant::now();
        let err = verifier
            .parse_property(property)
            .expect_err("the parser refuses it");
        assert!(
            matches!(err, VerifyError::Parse(_)),
            "`{}…`: {err}",
            &property[..32]
        );
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "`{}…` took {:?}",
            &property[..32],
            start.elapsed()
        );
    }
}

#[test]
fn deeply_nested_input_is_a_typed_error() {
    let brackets = "[".repeat(ddws_server::MAX_FRAME_LEN - 16);
    let bytes = frame(brackets.as_bytes());
    assert_eq!(
        decode_request(&bytes).unwrap_err().code,
        ErrorCode::MalformedFrame
    );
    assert_eq!(
        decode_response(&bytes).unwrap_err().code,
        ErrorCode::MalformedFrame
    );
    assert!(RunReport::from_json(&"{\"a\":[".repeat(1 << 18)).is_err());
}
