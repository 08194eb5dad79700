//! Reporter sinks, progress snapshots, and the telemetry bundle engines
//! thread through their search loops.

use crate::json::Json;
use crate::report::{read_uints, uint_fields, RunReport};
use std::fmt;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One periodic progress snapshot of a running search.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Progress {
    /// Nanoseconds since the run started.
    pub elapsed_ns: u64,
    /// Distinct states visited so far.
    pub states_visited: u64,
    /// Visit throughput, states per second (0 while elapsed is 0).
    pub states_per_sec: u64,
    /// Frontier size: DFS stack depth (sequential) or pending queue size
    /// (parallel).
    pub frontier: u64,
    /// Current search depth (sequential DFS only; 0 for parallel BFS).
    pub depth: u64,
    /// Ample-subset expansions so far (this worker's view).
    pub ample_hits: u64,
    /// Full expansions under active reduction so far.
    pub full_expansions: u64,
    /// Rule-cache hits so far (shared across workers).
    pub rule_cache_hits: u64,
    /// Rule-cache misses so far (shared across workers).
    pub rule_cache_misses: u64,
}

impl Progress {
    /// The counters under their JSON keys, in serialization order: the
    /// single list the encoder and the decoder both walk.
    fn fields_mut(&mut self) -> [(&'static str, &mut u64); 9] {
        [
            ("elapsed_ns", &mut self.elapsed_ns),
            ("states_visited", &mut self.states_visited),
            ("states_per_sec", &mut self.states_per_sec),
            ("frontier", &mut self.frontier),
            ("depth", &mut self.depth),
            ("ample_hits", &mut self.ample_hits),
            ("full_expansions", &mut self.full_expansions),
            ("rule_cache_hits", &mut self.rule_cache_hits),
            ("rule_cache_misses", &mut self.rule_cache_misses),
        ]
    }

    /// The snapshot as a JSON object, one integer field per counter in
    /// declaration order: the encoding of the wire's `telemetry` frames
    /// and, behind an `"event":"progress"` key, of [`JsonLinesReporter`].
    pub fn to_json_value(&self) -> Json {
        Json::Object(self.json_fields())
    }

    fn json_fields(mut self) -> Vec<(String, Json)> {
        uint_fields(self.fields_mut())
    }

    /// Decodes a snapshot from the object [`Progress::to_json_value`]
    /// writes; every counter is required.
    pub fn from_json_value(v: &Json) -> Result<Progress, String> {
        let mut p = Progress::default();
        read_uints(v, p.fields_mut())?;
        Ok(p)
    }
}

/// A telemetry sink. Both methods default to no-ops so implementations can
/// subscribe to progress, final reports, or both.
pub trait Reporter: Send + Sync {
    /// Called at most once per gate interval with a progress snapshot.
    fn progress(&self, _snapshot: &Progress) {}
    /// Called once with the final run report of an entry point.
    fn report(&self, _report: &RunReport) {}
}

/// The no-op reporter.
pub struct Silent;

impl Reporter for Silent {}

/// A `'static` [`Silent`] instance for borrowing without allocation.
pub static SILENT: Silent = Silent;

/// A cloneable, shareable handle to a reporter; the form `VerifyOptions`
/// carries. Defaults to [`Silent`].
#[derive(Clone)]
pub struct ReporterHandle(Arc<dyn Reporter>);

impl ReporterHandle {
    /// Wraps a reporter.
    pub fn new(reporter: Arc<dyn Reporter>) -> ReporterHandle {
        ReporterHandle(reporter)
    }

    /// The silent handle.
    pub fn silent() -> ReporterHandle {
        ReporterHandle(Arc::new(Silent))
    }

    /// Borrows the underlying reporter.
    pub fn get(&self) -> &dyn Reporter {
        &*self.0
    }
}

impl Default for ReporterHandle {
    fn default() -> ReporterHandle {
        ReporterHandle::silent()
    }
}

impl fmt::Debug for ReporterHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ReporterHandle(..)")
    }
}

/// JSON-lines reporter: progress snapshots as `{"event":"progress",...}`
/// lines, the final report as its canonical run-report object (which
/// self-identifies via its `schema` field).
pub struct JsonLinesReporter {
    sink: Mutex<Box<dyn Write + Send>>,
}

impl JsonLinesReporter {
    /// Reports to standard error.
    pub fn stderr() -> JsonLinesReporter {
        JsonLinesReporter::to_writer(Box::new(std::io::stderr()))
    }

    /// Reports to an arbitrary writer.
    pub fn to_writer(sink: Box<dyn Write + Send>) -> JsonLinesReporter {
        JsonLinesReporter {
            sink: Mutex::new(sink),
        }
    }
}

impl Reporter for JsonLinesReporter {
    fn progress(&self, s: &Progress) {
        let mut line = vec![("event".to_string(), Json::Str("progress".into()))];
        line.extend(s.json_fields());
        let mut sink = self.sink.lock().unwrap();
        let _ = writeln!(sink, "{}", Json::Object(line));
    }

    fn report(&self, r: &RunReport) {
        let mut sink = self.sink.lock().unwrap();
        let _ = writeln!(sink, "{}", r.to_json());
    }
}

/// In-memory reporter for tests: records every snapshot and report.
#[derive(Default)]
pub struct BufferReporter {
    snapshots: Mutex<Vec<Progress>>,
    reports: Mutex<Vec<RunReport>>,
}

impl BufferReporter {
    /// An empty buffer.
    pub fn new() -> BufferReporter {
        BufferReporter::default()
    }

    /// All progress snapshots recorded so far.
    pub fn snapshots(&self) -> Vec<Progress> {
        self.snapshots.lock().unwrap().clone()
    }

    /// All run reports recorded so far.
    pub fn reports(&self) -> Vec<RunReport> {
        self.reports.lock().unwrap().clone()
    }

    /// Drains and returns the recorded run reports.
    pub fn take_reports(&self) -> Vec<RunReport> {
        std::mem::take(&mut *self.reports.lock().unwrap())
    }
}

impl Reporter for BufferReporter {
    fn progress(&self, snapshot: &Progress) {
        self.snapshots.lock().unwrap().push(*snapshot);
    }

    fn report(&self, report: &RunReport) {
        self.reports.lock().unwrap().push(report.clone());
    }
}

/// One event captured by a [`StreamReporter`], in emission order: a
/// periodic progress snapshot or the final run report of an entry point.
#[derive(Clone, Debug)]
pub enum TelemetryEvent {
    /// A periodic [`Progress`] snapshot.
    Progress(Progress),
    /// A final [`RunReport`] (boxed: a report is an order of magnitude
    /// larger than a progress snapshot).
    Report(Box<RunReport>),
}

/// A reporter that appends every event to a shared, drainable queue — the
/// streaming backend for serving per-job telemetry over a wire protocol.
///
/// Unlike [`BufferReporter`] (which snapshots for test assertions), this
/// sink is built for *consumption*: the producer side is handed to the
/// engines via [`ReporterHandle`], a clone stays with the server, and
/// [`StreamReporter::drain`] moves everything emitted since the last
/// drain to the caller. Events never interleave across clones — both
/// sides share one queue.
#[derive(Clone, Default)]
pub struct StreamReporter {
    events: Arc<Mutex<Vec<TelemetryEvent>>>,
}

impl StreamReporter {
    /// An empty stream.
    pub fn new() -> StreamReporter {
        StreamReporter::default()
    }

    /// Moves every event emitted since the last drain to the caller.
    pub fn drain(&self) -> Vec<TelemetryEvent> {
        std::mem::take(&mut *self.events.lock().unwrap())
    }

    /// Number of undrained events.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap().len()
    }

    /// Whether the stream has no undrained events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Reporter for StreamReporter {
    fn progress(&self, snapshot: &Progress) {
        self.events
            .lock()
            .unwrap()
            .push(TelemetryEvent::Progress(*snapshot));
    }

    fn report(&self, report: &RunReport) {
        self.events
            .lock()
            .unwrap()
            .push(TelemetryEvent::Report(Box::new(report.clone())));
    }
}

/// A lock-free time gate throttling progress emission.
///
/// Workers call [`ProgressGate::due`] from their search loops (typically
/// every ~1024 expansions); it returns `true` for exactly one caller per
/// elapsed interval, claimed by a compare-exchange on the next-due
/// deadline. An interval of zero makes every call due — useful in tests.
pub struct ProgressGate {
    start: Instant,
    interval_ns: u64,
    next_due: AtomicU64,
}

impl ProgressGate {
    /// A gate that first fires once `interval` has elapsed.
    pub fn new(interval: Duration) -> ProgressGate {
        let interval_ns = interval.as_nanos().min(u64::MAX as u128) as u64;
        ProgressGate {
            start: Instant::now(),
            interval_ns,
            next_due: AtomicU64::new(interval_ns),
        }
    }

    /// Nanoseconds since the gate (and the run) started.
    pub fn elapsed_ns(&self) -> u64 {
        self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// Whether a snapshot is due now; at most one caller per interval
    /// wins.
    pub fn due(&self) -> bool {
        let now = self.elapsed_ns();
        let due_at = self.next_due.load(Ordering::Relaxed);
        if now < due_at {
            return false;
        }
        self.next_due
            .compare_exchange(
                due_at,
                now.saturating_add(self.interval_ns.max(1)),
                Ordering::Relaxed,
                Ordering::Relaxed,
            )
            .is_ok()
    }
}

/// A source of shared rule-cache counters, read when composing a progress
/// snapshot (the per-worker counters do not see the shared cache).
pub trait RuleMeterSource: Sync {
    /// Current `(hits, misses)` of the shared footprint cache.
    fn rule_cache_counts(&self) -> (u64, u64);
}

/// The bundle of telemetry references an engine threads through its
/// search loop. Copyable; [`EngineTelemetry::silent`] is the inert
/// default used by telemetry-unaware callers.
#[derive(Clone, Copy)]
pub struct EngineTelemetry<'a> {
    /// Where snapshots go.
    pub reporter: &'a dyn Reporter,
    /// Progress throttle; `None` disables progress emission entirely.
    pub gate: Option<&'a ProgressGate>,
    /// Shared rule-cache counters for snapshots, if any.
    pub rule_meter: Option<&'a dyn RuleMeterSource>,
}

impl EngineTelemetry<'static> {
    /// The inert bundle: silent reporter, no gate.
    pub fn silent() -> EngineTelemetry<'static> {
        EngineTelemetry {
            reporter: &SILENT,
            gate: None,
            rule_meter: None,
        }
    }
}

impl Default for EngineTelemetry<'static> {
    fn default() -> EngineTelemetry<'static> {
        EngineTelemetry::silent()
    }
}

impl<'a> EngineTelemetry<'a> {
    /// Emits a progress snapshot if the gate says one is due. Engines call
    /// this on a coarse counter mask; the `None`-gate path is a single
    /// branch.
    pub fn maybe_emit(
        &self,
        states_visited: u64,
        frontier: u64,
        depth: u64,
        ample_hits: u64,
        full_expansions: u64,
    ) {
        let Some(gate) = self.gate else { return };
        if !gate.due() {
            return;
        }
        let elapsed_ns = gate.elapsed_ns();
        let (rule_cache_hits, rule_cache_misses) = self
            .rule_meter
            .map_or((0, 0), RuleMeterSource::rule_cache_counts);
        let states_per_sec = if elapsed_ns == 0 {
            0
        } else {
            ((states_visited as u128 * 1_000_000_000) / elapsed_ns as u128).min(u64::MAX as u128)
                as u64
        };
        self.reporter.progress(&Progress {
            elapsed_ns,
            states_visited,
            states_per_sec,
            frontier,
            depth,
            ample_hits,
            full_expansions,
            rule_cache_hits,
            rule_cache_misses,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{Counters, PhaseTimes};

    #[test]
    fn zero_interval_gate_is_always_due_and_buffer_records() {
        let gate = ProgressGate::new(Duration::from_secs(0));
        let buf = BufferReporter::new();
        let tel = EngineTelemetry {
            reporter: &buf,
            gate: Some(&gate),
            rule_meter: None,
        };
        tel.maybe_emit(10, 2, 3, 1, 4);
        tel.maybe_emit(20, 1, 1, 2, 8);
        let snaps = buf.snapshots();
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].states_visited, 10);
        assert_eq!(snaps[1].full_expansions, 8);
    }

    #[test]
    fn long_interval_gate_suppresses_everything() {
        let gate = ProgressGate::new(Duration::from_secs(3600));
        let buf = BufferReporter::new();
        let tel = EngineTelemetry {
            reporter: &buf,
            gate: Some(&gate),
            rule_meter: None,
        };
        for i in 0..100 {
            tel.maybe_emit(i, 0, 0, 0, 0);
        }
        assert!(buf.snapshots().is_empty());
    }

    #[test]
    fn silent_bundle_never_calls_the_meter() {
        struct Panicky;
        impl RuleMeterSource for Panicky {
            fn rule_cache_counts(&self) -> (u64, u64) {
                panic!("must not be read without a due gate")
            }
        }
        let tel = EngineTelemetry {
            reporter: &SILENT,
            gate: None,
            rule_meter: Some(&Panicky),
        };
        tel.maybe_emit(1, 1, 1, 1, 1);
    }

    #[test]
    fn json_lines_reporter_emits_valid_lines() {
        use std::sync::{Arc as StdArc, Mutex as StdMutex};
        #[derive(Clone, Default)]
        struct Shared(StdArc<StdMutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let shared = Shared::default();
        let rep = JsonLinesReporter::to_writer(Box::new(shared.clone()));
        rep.progress(&Progress {
            states_visited: 5,
            ..Progress::default()
        });
        rep.report(&RunReport {
            entry_point: "check".into(),
            engine: "seq".into(),
            reduction: "full".into(),
            rule_eval: "compiled".into(),
            outcome: "holds".into(),
            abort: None,
            valuations_checked: 1,
            domain_size: 2,
            counters: Counters::default(),
            phases: PhaseTimes::default(),
        });
        let text = String::from_utf8(shared.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"event\":\"progress\",\"elapsed_ns\":0,\"states_visited\":5,\
             \"states_per_sec\":0,\"frontier\":0,\"depth\":0,\"ample_hits\":0,\
             \"full_expansions\":0,\"rule_cache_hits\":0,\"rule_cache_misses\":0}"
        );
        let report = crate::Json::parse(lines[1]).unwrap();
        RunReport::from_json_value(&report).unwrap();
    }

    #[test]
    fn progress_round_trips_and_requires_every_counter() {
        let p = Progress {
            elapsed_ns: 1,
            states_visited: 2,
            states_per_sec: 3,
            frontier: 4,
            depth: 5,
            ample_hits: 6,
            full_expansions: 7,
            rule_cache_hits: 8,
            rule_cache_misses: 9,
        };
        let v = p.to_json_value();
        assert_eq!(Progress::from_json_value(&v), Ok(p));
        let Json::Object(fields) = v else {
            unreachable!()
        };
        for i in 0..fields.len() {
            let mut fewer = fields.clone();
            fewer.remove(i);
            assert!(Progress::from_json_value(&Json::Object(fewer)).is_err());
        }
    }
}
