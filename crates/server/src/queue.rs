//! The bounded, admission-controlled job queue and the per-job records.
//!
//! Admission control is a hard capacity on *active* (non-terminal) jobs:
//! a `submit_job` beyond it is rejected with
//! [`ErrorCode::QueueFull`](crate::wire::ErrorCode::QueueFull) rather
//! than buffered — back-pressure is the client's problem, by design.
//!
//! Scheduling is strict round-robin over a FIFO run queue of job ids.
//! A worker pops the head, runs **one quantum** (a state-budget slice,
//! see [`crate::service`]), and pushes the job back to the tail if it
//! parked. The FIFO invariant is the fairness law the service tests
//! enforce: between two consecutive slices of any job, every other
//! runnable job runs at most once — so no job can delay another's
//! completion by more than one full round of quanta, no matter how
//! pathological its composition is.
//!
//! Two bounded side tables keep hostile or unlucky clients from growing
//! the service without limit:
//!
//! * the **dedup window** — the last [`DEDUP_WINDOW`] `submit_token`s
//!   with their job ids. A `submit_job` whose token is in the window
//!   answers the *original* job id instead of enqueueing again, so a
//!   client retrying a lost ack cannot double-submit. Entries age out
//!   FIFO; a token resubmitted after falling out of the window enqueues
//!   a fresh job (at-most-once per window, by design).
//! * the **retention store** — terminal results (report +
//!   counterexample) are kept under a capacity + TTL policy with LRU
//!   eviction ([`JobQueue::evict_results`]); a `fetch_result` after
//!   eviction answers the typed `result_evicted`, never a hang.

use crate::wire::{CexDigest, ErrorCode, JobOptions, JobSnapshot, WireError};
use ddws_relational::Instance;
use ddws_telemetry::{CancelToken, RunReport, StreamReporter};
use ddws_verifier::{Checkpoint, Verifier};
use std::collections::VecDeque;

/// How many recent `submit_token`s the dedup window remembers.
pub const DEDUP_WINDOW: usize = 64;

/// The scheduling state of a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, no slice run yet.
    Queued,
    /// A worker is executing a slice right now.
    Running,
    /// Preempted between slices; the checkpoint is parked in the queue.
    Parked,
    /// Terminal: the job ran to a verdict (`holds`, `violated`, or
    /// `budget_exceeded`).
    Done,
    /// Terminal: cancelled before reaching a verdict; any parked
    /// checkpoint was discarded.
    Cancelled,
    /// Terminal: the service failed the job (bad property, worker panic,
    /// crash quarantine).
    Failed,
}

impl JobState {
    /// The stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Parked => "parked",
            JobState::Done => "done",
            JobState::Cancelled => "cancelled",
            JobState::Failed => "failed",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> Option<JobState> {
        Some(match s {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "parked" => JobState::Parked,
            "done" => JobState::Done,
            "cancelled" => JobState::Cancelled,
            "failed" => JobState::Failed,
            _ => return None,
        })
    }

    /// Whether the state is terminal (no further slices will run).
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Cancelled | JobState::Failed
        )
    }
}

/// How a job ended. Every terminal job has exactly one verdict, and its
/// [`JobState`] is a function of it ([`Verdict::state`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The property holds.
    Holds,
    /// The property is violated; the job carries a counterexample digest.
    Violated,
    /// The job's state budget ran out before a verdict.
    BudgetExceeded,
    /// A `cancel_job` ended the job.
    Cancelled,
    /// The service failed the job (bad property, engine abort).
    Failed,
    /// The job's slices crashed [`ServerConfig::crash_quarantine`]
    /// times and it was quarantined.
    ///
    /// [`ServerConfig::crash_quarantine`]: crate::ServerConfig::crash_quarantine
    JobPoisoned,
}

impl Verdict {
    /// Every verdict.
    pub const ALL: [Verdict; 6] = [
        Verdict::Holds,
        Verdict::Violated,
        Verdict::BudgetExceeded,
        Verdict::Cancelled,
        Verdict::Failed,
        Verdict::JobPoisoned,
    ];

    /// The stable label the wire and the event log carry.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Holds => "holds",
            Verdict::Violated => "violated",
            Verdict::BudgetExceeded => "budget_exceeded",
            Verdict::Cancelled => "cancelled",
            Verdict::Failed => "failed",
            Verdict::JobPoisoned => "job_poisoned",
        }
    }

    /// Parses a label.
    pub fn parse(s: &str) -> Option<Verdict> {
        Verdict::ALL.into_iter().find(|v| v.label() == s)
    }

    /// The terminal state a job with this verdict is in.
    pub fn state(self) -> JobState {
        match self {
            Verdict::Holds | Verdict::Violated | Verdict::BudgetExceeded => JobState::Done,
            Verdict::Cancelled => JobState::Cancelled,
            Verdict::Failed | Verdict::JobPoisoned => JobState::Failed,
        }
    }
}

/// The executable part of a job: what a worker takes off the queue for
/// one slice. Between slices the parked [`Checkpoint`] (the PR 8
/// multi-leg `EngineCheckpoint` set) lives here.
pub(crate) struct JobWork {
    /// The job's own verifier (owns the composition).
    pub verifier: Verifier,
    /// The property source text.
    pub property: String,
    /// The fixed database the job verifies against.
    pub database: Instance,
    /// The parked search, absent before the first slice.
    pub checkpoint: Option<Checkpoint>,
}

/// A job's observable record: one row of [`Server::jobs`](crate::Server::jobs).
#[derive(Clone, Debug)]
pub struct JobSummary {
    /// The wire-visible job id.
    pub job: u64,
    /// Scheduling state.
    pub state: JobState,
    /// Quanta executed so far.
    pub slices: u64,
    /// Cumulative visited states across slices.
    pub states_visited: u64,
    /// The verdict, present exactly when the job is terminal.
    pub verdict: Option<Verdict>,
    /// Counterexample digest on a `violated` verdict.
    pub counterexample: Option<CexDigest>,
    /// Scheduler step count at admission (fairness accounting).
    pub submitted_step: u64,
    /// Scheduler step count at the terminal transition.
    pub completed_step: Option<u64>,
    /// Whether a cancel discarded a parked checkpoint.
    pub discarded_checkpoint: bool,
    /// Crashed slices the supervisor absorbed and re-dispatched.
    pub crash_recoveries: u64,
    /// Whether the retention store evicted this job's result (report and
    /// counterexample dropped; `fetch_result` answers `result_evicted`).
    pub evicted: bool,
}

impl JobSummary {
    /// The `job_status` answer for this job.
    pub fn snapshot(&self) -> JobSnapshot {
        JobSnapshot {
            job: self.job,
            state: self.state,
            slices: self.slices,
            states_visited: self.states_visited,
        }
    }
}

/// One job's full record: the observable row plus what the service needs
/// to run the job.
pub struct JobEntry {
    /// The observable record.
    pub row: JobSummary,
    /// The final slice's run report, once terminal (absent for jobs that
    /// ended without a completed slice, and after eviction).
    pub report: Option<RunReport>,
    /// The per-job limits from `submit_job`.
    pub options: JobOptions,
    /// The job's cancel token, threaded into every slice.
    pub cancel: CancelToken,
    /// Whether a `cancel_job` arrived (observed between or during slices).
    pub cancel_requested: bool,
    /// The idempotency token the submit carried, if any.
    pub submit_token: Option<u64>,
    /// The per-job telemetry stream (`stream_telemetry` drains it).
    pub stream: StreamReporter,
    pub(crate) work: Option<JobWork>,
}

/// The bounded job table plus the round-robin run queue, the dedup
/// window, and the retention store's LRU order.
pub struct JobQueue {
    capacity: usize,
    jobs: Vec<JobEntry>,
    /// Non-terminal jobs: admission adds one, [`JobQueue::finish`] takes
    /// one away.
    active: usize,
    run_queue: VecDeque<u64>,
    /// `(submit_token, job)` pairs, oldest first, at most [`DEDUP_WINDOW`].
    dedup: VecDeque<(u64, u64)>,
    /// Retained terminal results as `(job, last_touch_ns)`, LRU first.
    retained: VecDeque<(u64, u64)>,
}

impl JobQueue {
    /// An empty queue admitting at most `capacity` active jobs.
    pub fn new(capacity: usize) -> JobQueue {
        JobQueue {
            capacity: capacity.max(1),
            jobs: Vec::new(),
            active: 0,
            run_queue: VecDeque::new(),
            dedup: VecDeque::new(),
            retained: VecDeque::new(),
        }
    }

    /// The admission capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of active (non-terminal) jobs.
    pub fn active(&self) -> usize {
        self.active
    }

    /// All job records, in admission order.
    pub fn jobs(&self) -> &[JobEntry] {
        &self.jobs
    }

    /// Looks a `submit_token` up in the dedup window.
    pub fn dedup_lookup(&self, token: u64) -> Option<u64> {
        self.dedup
            .iter()
            .rev()
            .find(|&&(t, _)| t == token)
            .map(|&(_, job)| job)
    }

    /// Admits a job, or rejects it with `queue_full`. A token already in
    /// the dedup window is the *caller's* business ([`Self::dedup_lookup`]
    /// first); this records the token unconditionally.
    pub(crate) fn submit(
        &mut self,
        work: JobWork,
        options: JobOptions,
        step: u64,
        submit_token: Option<u64>,
    ) -> Result<u64, WireError> {
        if self.active >= self.capacity {
            return Err(WireError::new(
                ErrorCode::QueueFull,
                format!("{} active jobs at capacity {}", self.active, self.capacity),
            ));
        }
        let id = self.jobs.len() as u64;
        self.jobs.push(JobEntry {
            row: JobSummary {
                job: id,
                state: JobState::Queued,
                slices: 0,
                states_visited: 0,
                verdict: None,
                counterexample: None,
                submitted_step: step,
                completed_step: None,
                discarded_checkpoint: false,
                crash_recoveries: 0,
                evicted: false,
            },
            report: None,
            options,
            cancel: CancelToken::new(),
            cancel_requested: false,
            submit_token,
            stream: StreamReporter::new(),
            work: Some(work),
        });
        self.active += 1;
        self.run_queue.push_back(id);
        if let Some(token) = submit_token {
            if self.dedup.len() == DEDUP_WINDOW {
                self.dedup.pop_front();
            }
            self.dedup.push_back((token, id));
        }
        Ok(id)
    }

    /// Borrows a job by id.
    pub fn job(&self, id: u64) -> Option<&JobEntry> {
        self.jobs.get(id as usize)
    }

    /// Mutably borrows a job by id.
    pub(crate) fn job_mut(&mut self, id: u64) -> Option<&mut JobEntry> {
        self.jobs.get_mut(id as usize)
    }

    /// Pops the next runnable job id off the round-robin queue, skipping
    /// ids that went terminal (cancelled) while queued.
    pub(crate) fn next_runnable(&mut self) -> Option<u64> {
        while let Some(id) = self.run_queue.pop_front() {
            if !self.jobs[id as usize].row.state.is_terminal() {
                return Some(id);
            }
        }
        None
    }

    /// Parks a job between slices: its work goes back into the table and
    /// its id to the tail of the round-robin queue.
    pub(crate) fn park(&mut self, id: u64, work: JobWork) {
        let entry = &mut self.jobs[id as usize];
        entry.row.state = JobState::Parked;
        entry.work = Some(work);
        self.run_queue.push_back(id);
    }

    /// The one terminal transition: sets the job's state from `verdict`,
    /// its final report (stamped with the job's crash recoveries) and its
    /// completion step, and drops its work.
    pub(crate) fn finish(
        &mut self,
        id: u64,
        verdict: Verdict,
        report: Option<RunReport>,
        step: u64,
    ) {
        let entry = &mut self.jobs[id as usize];
        debug_assert!(!entry.row.state.is_terminal(), "job {id} finished twice");
        entry.row.state = verdict.state();
        entry.row.verdict = Some(verdict);
        entry.row.completed_step = Some(step);
        entry.report = report.map(|mut report| {
            report.counters.crash_recoveries = entry.row.crash_recoveries;
            report
        });
        entry.work = None;
        self.active -= 1;
    }

    /// Whether any job is waiting for a quantum.
    pub fn has_runnable(&self) -> bool {
        self.run_queue
            .iter()
            .any(|&id| !self.jobs[id as usize].row.state.is_terminal())
    }

    /// Enters a freshly terminal job's result into the retention store
    /// (most-recently-used position).
    pub(crate) fn retain_result(&mut self, id: u64, now_ns: u64) {
        self.retained.push_back((id, now_ns));
    }

    /// Refreshes a retained result's LRU position and TTL clock (a
    /// successful `fetch_result` counts as a use). No-op for ids the
    /// store no longer holds.
    pub(crate) fn touch_result(&mut self, id: u64, now_ns: u64) {
        if let Some(pos) = self.retained.iter().position(|&(j, _)| j == id) {
            self.retained.remove(pos);
            self.retained.push_back((id, now_ns));
        }
    }

    /// Applies the retention policy: drops results whose TTL expired,
    /// then evicts from the LRU end until at most `capacity` results
    /// remain. Evicted jobs lose their report and counterexample and are
    /// marked [`JobSummary::evicted`]; returns the evicted ids in eviction
    /// order.
    pub(crate) fn evict_results(&mut self, now_ns: u64, capacity: usize, ttl_ns: u64) -> Vec<u64> {
        let mut evicted = Vec::new();
        self.retained.retain(|&(id, touched)| {
            if now_ns.saturating_sub(touched) >= ttl_ns {
                evicted.push(id);
                false
            } else {
                true
            }
        });
        while self.retained.len() > capacity {
            let (id, _) = self.retained.pop_front().expect("non-empty store");
            evicted.push(id);
        }
        for &id in &evicted {
            let entry = &mut self.jobs[id as usize];
            entry.report = None;
            entry.row.counterexample = None;
            entry.row.evicted = true;
        }
        evicted
    }

    /// Number of results the retention store currently holds.
    pub fn retained_results(&self) -> usize {
        self.retained.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddws_testkit::rng::XorShift;

    fn work() -> JobWork {
        let case = crate::scenario("req_resp").expect("registered scenario");
        JobWork {
            verifier: Verifier::new(case.composition),
            property: case.property,
            database: case.database,
            checkpoint: None,
        }
    }

    #[test]
    fn the_active_count_matches_a_recount_across_submits_parks_finishes_and_cancels() {
        let recount = |q: &JobQueue| {
            q.jobs()
                .iter()
                .filter(|j| !j.row.state.is_terminal())
                .count()
        };
        let mut queue = JobQueue::new(5);
        let mut rng = XorShift::new(11);
        let (mut rejected, mut finished) = (0, 0);
        for step in 0..300 {
            let live: Vec<u64> = queue
                .jobs()
                .iter()
                .filter(|j| !j.row.state.is_terminal())
                .map(|j| j.row.job)
                .collect();
            match rng.below(4) {
                0 | 1 => match queue.submit(work(), JobOptions::default(), step, None) {
                    Ok(_) => {}
                    Err(err) => {
                        assert_eq!(err.code, ErrorCode::QueueFull);
                        assert_eq!(live.len(), queue.capacity());
                        rejected += 1;
                    }
                },
                // A slice: the round-robin head runs and parks or ends.
                2 => {
                    if let Some(id) = queue.next_runnable() {
                        let work = queue.job_mut(id).unwrap().work.take().unwrap();
                        if rng.bool() {
                            queue.park(id, work);
                        } else {
                            queue.finish(id, *rng.choose(&Verdict::ALL), None, step);
                            finished += 1;
                        }
                    }
                }
                // A cancel of any live job, queued or parked.
                _ => {
                    if !live.is_empty() {
                        let id = *rng.choose(&live);
                        queue.finish(id, Verdict::Cancelled, None, step);
                        finished += 1;
                    }
                }
            }
            assert_eq!(queue.active(), recount(&queue), "step {step}");
        }
        assert!(rejected > 0 && finished > 0, "the walk hit both edges");
        for entry in queue.jobs() {
            let row = &entry.row;
            assert_eq!(row.state.is_terminal(), row.verdict.is_some());
            assert_eq!(row.state.is_terminal(), row.completed_step.is_some());
            assert_eq!(row.state.is_terminal(), entry.work.is_none());
            if let Some(verdict) = row.verdict {
                assert_eq!(row.state, verdict.state());
            }
        }
    }

    #[test]
    fn verdict_labels_round_trip() {
        for verdict in Verdict::ALL {
            assert_eq!(Verdict::parse(verdict.label()), Some(verdict));
            assert!(verdict.state().is_terminal());
        }
        assert_eq!(Verdict::parse("done"), None);
    }
}
