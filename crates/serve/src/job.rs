//! Jobs: what tenants submit, what workers carry, what callers await.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dc_skills::{NodeId, SkillCall, SkillOutput};
use parking_lot::{Condvar, Mutex};

use crate::error::{Result, ServeError};

/// A chat program: an ordered list of skill steps executed against one
/// tenant's session, each step consuming the previous step's dataset
/// exactly as an interactive DataChat session would.
#[derive(Debug, Clone)]
pub struct Request {
    /// The steps, in submission order.
    pub steps: Vec<SkillCall>,
    /// Bind the final dataset to this name in the tenant's session, so a
    /// later request can pick it up with `UseDataset`.
    pub name_result: Option<String>,
}

impl Request {
    /// A request from already-built skill calls.
    pub fn new(steps: Vec<SkillCall>) -> Request {
        Request {
            steps,
            name_result: None,
        }
    }

    /// Parse a GEL program, one utterance per non-empty line.
    pub fn gel(program: &str) -> Result<Request> {
        let mut steps = Vec::new();
        for line in program.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let call = dc_gel::parse_gel(line).map_err(|e| ServeError::BadRequest {
                message: format!("{line:?}: {e}"),
            })?;
            steps.push(call);
        }
        Ok(Request::new(steps))
    }

    /// Name the final dataset.
    pub fn named(mut self, name: impl Into<String>) -> Request {
        self.name_result = Some(name.into());
        self
    }
}

/// The answered form of a job: outcome plus the serving telemetry the
/// benchmarks and tests key on.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Job id (unique per service, assigned at admission).
    pub id: u64,
    /// The submitting tenant.
    pub tenant: String,
    /// The final step's output, or the typed reason there isn't one.
    pub outcome: Result<SkillOutput>,
    /// Admission → first time a worker picked the job up.
    pub queued: Duration,
    /// Admission → answer.
    pub wall: Duration,
    /// Time actually spent executing (sum over time slices).
    pub exec: Duration,
    /// How many times the job was preempted and resumed.
    pub preemptions: u32,
    /// Scan bytes reserved against the tenant's budget at admission.
    pub bytes_reserved: u64,
    /// Scan bytes the job's receipts actually charged.
    pub bytes_charged: u64,
    /// Statically estimated scan-byte upper bound across the job's steps
    /// (0 when admission did not estimate). Against `bytes_charged` this
    /// is the serving layer's estimate-vs-actual q-error.
    pub bytes_estimated: u64,
    /// Shared-cache hits the job's waves scored.
    pub cache_hits: u64,
    /// Scan bytes those hits avoided re-charging.
    pub bytes_saved: u64,
    /// Bytes the job spilled to disk while executing out of core under
    /// the service's per-slice memory budget (0 when unbudgeted or the
    /// job fit in memory).
    pub bytes_spilled: u64,
}

/// One-shot answer cell. `fill` panics if the slot is already occupied —
/// the structural guarantee that no job is ever answered twice.
#[derive(Debug, Default)]
pub(crate) struct JobCell {
    slot: Mutex<Option<JobResult>>,
    ready: Condvar,
}

impl JobCell {
    pub(crate) fn fill(&self, result: JobResult) {
        let mut slot = self.slot.lock();
        assert!(
            slot.is_none(),
            "job {} answered twice (duplicate execution)",
            result.id
        );
        *slot = Some(result);
        self.ready.notify_all();
    }

    fn take_blocking(&self) -> JobResult {
        let mut slot = self.slot.lock();
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            self.ready.wait(&mut slot);
        }
    }

    fn is_ready(&self) -> bool {
        self.slot.lock().is_some()
    }
}

/// Caller-side handle to a submitted job. Consuming [`JobHandle::wait`]
/// makes result delivery exactly-once at the type level.
#[derive(Debug)]
pub struct JobHandle {
    pub(crate) cell: Arc<JobCell>,
    pub(crate) id: u64,
    pub(crate) tenant: String,
}

impl JobHandle {
    /// The job id assigned at admission.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The tenant the job was submitted for.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Whether the answer has landed (non-blocking).
    pub fn is_ready(&self) -> bool {
        self.cell.is_ready()
    }

    /// Block until the job is answered. Every admitted job is answered
    /// eventually — completion, typed failure, eviction, or shutdown —
    /// so this cannot hang on a healthy service.
    pub fn wait(self) -> JobResult {
        self.cell.take_blocking()
    }
}

/// A job as the scheduler and workers carry it: the request plus every
/// piece of resume state needed to continue after a preemption.
#[derive(Debug)]
pub(crate) struct Job {
    pub id: u64,
    pub tenant: String,
    /// The steps not yet staged, in order; staging moves a step into the
    /// session's DAG.
    pub steps: std::vec::IntoIter<SkillCall>,
    /// The session's current dataset when the job was first dispatched:
    /// where the session goes back to if the job does not complete.
    pub resume_from: Option<NodeId>,
    pub name_result: Option<String>,
    /// The staged-but-unfinished step's node, if any — re-running it
    /// resumes from the executor's checkpointed frontier.
    pub staged: Option<NodeId>,
    /// Current time-slice length; doubles after each preemption so long
    /// jobs make progress instead of thrashing.
    pub quantum: Duration,
    pub preemptions: u32,
    /// Scan bytes reserved against the tenant budget at admission.
    pub reserved: u64,
    /// The admission estimator's scan-byte upper bound summed over the
    /// steps (0 when admission did not estimate).
    pub estimated: u64,
    /// Scan bytes charged so far across slices.
    pub charged: u64,
    pub cache_hits: u64,
    pub bytes_saved: u64,
    /// Spill bytes written so far across slices.
    pub spilled: u64,
    pub exec: Duration,
    pub submitted: Instant,
    pub first_dispatch: Option<Instant>,
    /// Output of the last committed step.
    pub last_output: Option<SkillOutput>,
    pub cell: Arc<JobCell>,
}

impl Job {
    /// Answer the job and consume it.
    pub(crate) fn finish(self, outcome: Result<SkillOutput>) {
        let now = Instant::now();
        let result = JobResult {
            id: self.id,
            tenant: self.tenant,
            outcome,
            queued: self
                .first_dispatch
                .unwrap_or(now)
                .duration_since(self.submitted),
            wall: now.duration_since(self.submitted),
            exec: self.exec,
            preemptions: self.preemptions,
            bytes_reserved: self.reserved,
            bytes_charged: self.charged,
            bytes_estimated: self.estimated,
            cache_hits: self.cache_hits,
            bytes_saved: self.bytes_saved,
            bytes_spilled: self.spilled,
        };
        self.cell.fill(result);
    }
}
