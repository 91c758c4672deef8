//! The resilient serving daemon: admission control, per-tenant quotas,
//! deadline scheduling, cooperative cancellation, and graceful drain on
//! top of [`ServeExecutor`].
//!
//! The batch executor answers "run these N jobs fast and bit-identically";
//! this module answers the service-boundary questions a long-lived process
//! faces under real traffic:
//!
//! * **Admission control** — the queue is bounded
//!   ([`DaemonConfig::with_queue_capacity`]); an overloaded daemon sheds
//!   load with a structured [`RejectReason`] instead of growing without
//!   bound. Oversized requests are measured (cells × steps) *before* any
//!   allocation and rejected at the door.
//! * **Per-tenant quotas** — each tenant id carries an in-flight cap and
//!   an optional fixed cell budget ([`TenantQuota`]); a
//!   quota-busting tenant is rejected per job while everyone else keeps
//!   flowing.
//! * **Deadlines replace pure FIFO** — every admitted job gets an
//!   effective soft deadline (its own, or the configured default), and
//!   dispatch is earliest-deadline-first with the admission sequence as
//!   the tiebreak. That *is* priority aging: a job's priority rises as its
//!   deadline nears, and no job starves because its deadline eventually
//!   becomes the earliest. A hard timeout cancels the job — before it
//!   starts if it lapsed in the queue, or mid-run through its
//!   [`CancelToken`](super::CancelToken), which carries the deadline and
//!   which the fused schedule checks before every window, so pooled
//!   buffers recycle on cancellation.
//! * **Panic isolation** — inherited from the batch layer: a poison job
//!   comes back as [`JobStatus::Panicked`] while the pool, scratch, and
//!   the rest of the traffic keep running.
//! * **Graceful drain** — [`Daemon::drain`] stops admission, finishes the
//!   queue (or cancels what remains once the configured drain timeout
//!   lapses, with [`CancelReason::Drain`]), and reports whether the drain
//!   was clean. State machine: *Accepting* → *Draining* (admission
//!   rejects with [`RejectReason::Draining`]) → *Stopped* (queue empty,
//!   stats final).
//!
//! A job's rung is a pure function of its program and its pin (see
//! [`crate::tier`]), so a restarted daemon has no tier state to reload.
//! The daemon performs no file I/O — determinism and testability stay
//! in-process.
//!
//! All admitted jobs that complete are bit-identical to the tree-walking
//! interpreter: the daemon only schedules; execution is the batch layer's.

use super::{JobError, JobSpec, ServeConfig, ServeExecutor, Tier};
use crate::executor::ExecutionResult;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use stencilflow_program::ProgramError;

/// Per-tenant admission limits. The unit of budget is *cell·steps* — the
/// same work measure the executor's parallelism threshold uses — so a
/// quota means the same amount of compute regardless of program shape.
#[derive(Debug, Clone)]
pub struct TenantQuota {
    /// Jobs a tenant may have queued or running at once.
    pub max_in_flight: usize,
    /// Allowance in cell·steps, fixed for the daemon's lifetime; `None` =
    /// unlimited.
    pub cell_budget: Option<u64>,
}

impl Default for TenantQuota {
    fn default() -> Self {
        TenantQuota {
            max_in_flight: 64,
            cell_budget: None,
        }
    }
}

impl TenantQuota {
    /// The permissive default: 64 in-flight jobs, no cell budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cap on queued-plus-running jobs for the tenant.
    pub fn with_max_in_flight(mut self, limit: usize) -> Self {
        self.max_in_flight = limit.max(1);
        self
    }

    /// Allowance in cell·steps.
    pub fn with_cell_budget(mut self, budget: u64) -> Self {
        self.cell_budget = Some(budget);
        self
    }
}

/// Configuration for a [`Daemon`].
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    serve: ServeConfig,
    queue_capacity: usize,
    max_job_cells: Option<u64>,
    default_quota: TenantQuota,
    tenant_quotas: BTreeMap<String, TenantQuota>,
    default_soft_deadline: Duration,
    default_hard_timeout: Option<Duration>,
    drain_timeout: Option<Duration>,
    batch_size: usize,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            serve: ServeConfig::default(),
            queue_capacity: 256,
            max_job_cells: None,
            default_quota: TenantQuota::default(),
            tenant_quotas: BTreeMap::new(),
            default_soft_deadline: Duration::from_secs(1),
            default_hard_timeout: None,
            drain_timeout: None,
            batch_size: 0,
        }
    }
}

impl DaemonConfig {
    /// Defaults: a 256-deep queue, permissive quotas, a one-second soft
    /// deadline, no hard timeout, drain until empty.
    pub fn new() -> Self {
        Self::default()
    }

    /// The batch-executor configuration underneath the daemon.
    pub fn with_serve(mut self, serve: ServeConfig) -> Self {
        self.serve = serve;
        self
    }

    /// Bound on queued jobs; submissions beyond it are shed with
    /// [`RejectReason::QueueFull`].
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Reject any single job above this many cell·steps *before* any
    /// allocation happens ([`RejectReason::Oversized`]).
    pub fn with_max_job_cells(mut self, limit: u64) -> Self {
        self.max_job_cells = Some(limit);
        self
    }

    /// Quota applied to tenants without an explicit entry.
    pub fn with_default_quota(mut self, quota: TenantQuota) -> Self {
        self.default_quota = quota;
        self
    }

    /// Quota for one named tenant.
    pub fn with_tenant_quota(mut self, tenant: impl Into<String>, quota: TenantQuota) -> Self {
        self.tenant_quotas.insert(tenant.into(), quota);
        self
    }

    /// Soft deadline given to jobs that submit without one (drives the
    /// earliest-deadline-first ordering; default one second).
    pub fn with_default_soft_deadline(mut self, deadline: Duration) -> Self {
        self.default_soft_deadline = deadline;
        self
    }

    /// Hard timeout given to jobs that submit without one (`None` =
    /// admitted jobs may run to completion).
    pub fn with_default_hard_timeout(mut self, timeout: Duration) -> Self {
        self.default_hard_timeout = Some(timeout);
        self
    }

    /// How long [`Daemon::drain`] keeps working the queue before
    /// cancelling what remains ([`CancelReason::Drain`]); `None` drains
    /// until empty.
    pub fn with_drain_timeout(mut self, timeout: Duration) -> Self {
        self.drain_timeout = Some(timeout);
        self
    }

    /// Jobs per dispatch micro-batch (0 = four per worker). A micro-batch
    /// of 1 makes the earliest-deadline-first order directly observable.
    pub fn with_batch_size(mut self, batch: usize) -> Self {
        self.batch_size = batch;
        self
    }
}

/// One submission: an identity, a tenant, the job itself, and optional
/// per-job deadline overrides.
#[derive(Debug, Clone)]
pub struct DaemonRequest {
    /// Caller-chosen id, unique among live (queued or running) jobs.
    pub id: String,
    /// Tenant the job bills against.
    pub tenant: String,
    /// The job to run.
    pub job: JobSpec,
    /// Soft deadline from submission (EDF priority); defaults to the
    /// daemon's configured default.
    pub soft_deadline: Option<Duration>,
    /// Hard timeout from submission; past it the job is cancelled (before
    /// it starts, or mid-run through its token).
    pub hard_timeout: Option<Duration>,
}

impl DaemonRequest {
    /// A request with default deadlines.
    pub fn new(id: impl Into<String>, tenant: impl Into<String>, job: JobSpec) -> Self {
        DaemonRequest {
            id: id.into(),
            tenant: tenant.into(),
            job,
            soft_deadline: None,
            hard_timeout: None,
        }
    }

    /// Override the soft deadline.
    pub fn with_soft_deadline(mut self, deadline: Duration) -> Self {
        self.soft_deadline = Some(deadline);
        self
    }

    /// Override the hard timeout.
    pub fn with_hard_timeout(mut self, timeout: Duration) -> Self {
        self.hard_timeout = Some(timeout);
        self
    }
}

/// Why admission refused a request (load shedding, quotas, validity).
/// Every variant carries a stable `SF04xx` code registered in
/// `docs/analysis.md`.
#[derive(Debug, Clone, PartialEq)]
pub enum RejectReason {
    /// The bounded queue is full (back off and retry).
    QueueFull {
        /// The configured capacity that was hit.
        capacity: usize,
    },
    /// The tenant is at its in-flight cap.
    TenantInFlight {
        /// The tenant that hit the cap.
        tenant: String,
        /// The cap.
        limit: usize,
    },
    /// The tenant's cell budget cannot cover the job.
    TenantBudget {
        /// The tenant that ran out.
        tenant: String,
        /// Cell·steps the job needs.
        needed: u64,
        /// Cell·steps currently available.
        available: u64,
    },
    /// The job exceeds the per-job size bound.
    Oversized {
        /// Cell·steps the job would cost.
        cells: u64,
        /// The configured bound.
        limit: u64,
    },
    /// A live job already uses this id.
    DuplicateId {
        /// The contested id.
        id: String,
    },
    /// The daemon is draining and admits nothing new.
    Draining,
}

impl RejectReason {
    /// The stable diagnostic code (see `docs/analysis.md`).
    pub fn code(&self) -> &'static str {
        match self {
            RejectReason::QueueFull { .. } => "SF0401",
            RejectReason::TenantInFlight { .. } => "SF0402",
            RejectReason::TenantBudget { .. } => "SF0403",
            RejectReason::Oversized { .. } => "SF0404",
            RejectReason::DuplicateId { .. } => "SF0405",
            RejectReason::Draining => "SF0406",
        }
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::QueueFull { capacity } => {
                write!(f, "queue full (capacity {capacity})")
            }
            RejectReason::TenantInFlight { tenant, limit } => {
                write!(f, "tenant `{tenant}` at its in-flight cap ({limit})")
            }
            RejectReason::TenantBudget {
                tenant,
                needed,
                available,
            } => write!(
                f,
                "tenant `{tenant}` over budget (needs {needed} cell-steps, has {available})"
            ),
            RejectReason::Oversized { cells, limit } => {
                write!(f, "job too large ({cells} cell-steps, limit {limit})")
            }
            RejectReason::DuplicateId { id } => write!(f, "job id `{id}` is already live"),
            RejectReason::Draining => write!(f, "daemon is draining"),
        }
    }
}

/// Why an admitted job was cancelled instead of run to completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// Its hard timeout lapsed (in the queue, or mid-run via the token).
    HardTimeout,
    /// The drain timeout lapsed with the job still queued.
    Drain,
}

impl CancelReason {
    /// The stable diagnostic code (see `docs/analysis.md`).
    pub fn code(self) -> &'static str {
        match self {
            CancelReason::HardTimeout => "SF0407",
            CancelReason::Drain => "SF0408",
        }
    }
}

impl std::fmt::Display for CancelReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CancelReason::HardTimeout => f.write_str("hard timeout"),
            CancelReason::Drain => f.write_str("cancelled by drain"),
        }
    }
}

/// Terminal state of an admitted job.
#[derive(Debug)]
pub enum JobStatus {
    /// Ran to completion; the outputs are bit-identical to the
    /// interpreter. Recycle the result via [`ServeExecutor::recycle`].
    Done {
        /// The tier the job ran on.
        tier: Tier,
        /// The program outputs.
        result: ExecutionResult,
    },
    /// The program itself failed (validation or runtime error).
    Failed(ProgramError),
    /// The job panicked; the panic was isolated to the job (code
    /// `SF0409`).
    Panicked(String),
    /// The job was cancelled (deadline or drain).
    Cancelled(CancelReason),
}

impl JobStatus {
    /// Stable lowercase label (wire protocol / reports).
    pub fn label(&self) -> &'static str {
        match self {
            JobStatus::Done { .. } => "done",
            JobStatus::Failed(_) => "failed",
            JobStatus::Panicked(_) => "panicked",
            JobStatus::Cancelled(_) => "cancelled",
        }
    }
}

/// The completion record the daemon hands its sink, one per admitted job.
#[derive(Debug)]
pub struct DaemonOutcome {
    /// The submission id.
    pub id: String,
    /// The tenant billed.
    pub tenant: String,
    /// Submission → dispatch wait.
    pub wait: Duration,
    /// Submission → completion latency.
    pub latency: Duration,
    /// How the job ended.
    pub status: JobStatus,
}

/// Aggregate daemon counters (monotonic; admission and completion).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DaemonStats {
    /// Requests seen by `submit`.
    pub submitted: usize,
    /// Requests admitted to the queue.
    pub admitted: usize,
    /// Requests shed, by [`RejectReason::code`].
    pub rejected: usize,
    /// Reject counts per diagnostic code.
    pub rejects_by_code: BTreeMap<&'static str, usize>,
    /// Jobs that completed with outputs.
    pub completed: usize,
    /// Jobs that failed in the program.
    pub failed: usize,
    /// Jobs whose panic was isolated.
    pub panicked: usize,
    /// Jobs cancelled by deadline or drain.
    pub cancelled: usize,
    /// Peak queue depth observed.
    pub max_queue_depth: usize,
}

/// Report of one [`Daemon::drain`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// True when every queued job ran to a natural outcome (nothing was
    /// cancelled by the drain timeout).
    pub clean: bool,
    /// Jobs cancelled with [`CancelReason::Drain`].
    pub cancelled: usize,
}

/// One admitted, not-yet-dispatched job.
#[derive(Debug)]
struct Queued {
    seq: u64,
    id: String,
    tenant: String,
    job: JobSpec,
    submitted: Instant,
    soft_deadline: Instant,
    hard_deadline: Option<Instant>,
}

#[derive(Debug, Default)]
struct TenantState {
    in_flight: usize,
    /// Remaining cell·steps; `None` = unlimited.
    budget: Option<u64>,
}

#[derive(Debug, Default)]
struct State {
    queue: Vec<Queued>,
    live_ids: BTreeSet<String>,
    tenants: BTreeMap<String, TenantState>,
    draining: bool,
    seq: u64,
    stats: DaemonStats,
}

/// The resilient serving daemon. See the module docs for the contracts.
#[derive(Debug)]
pub struct Daemon {
    serve: ServeExecutor,
    config: DaemonConfig,
    state: Mutex<State>,
}

impl Daemon {
    /// Build a daemon (and its batch executor) from a configuration.
    pub fn new(config: DaemonConfig) -> Daemon {
        Daemon {
            serve: ServeExecutor::new(config.serve.clone()),
            config,
            state: Mutex::new(State::default()),
        }
    }

    /// The batch executor underneath: recycle results, read
    /// [`ServeExecutor::stats`] and [`ServeExecutor::tier_choices`].
    pub fn serve(&self) -> &ServeExecutor {
        &self.serve
    }

    /// Aggregate admission/completion counters.
    pub fn stats(&self) -> DaemonStats {
        self.state
            .lock()
            .expect("daemon state poisoned")
            .stats
            .clone()
    }

    /// Jobs currently queued (dispatch is synchronous, so nothing is
    /// "running" while no `dispatch` call is live).
    pub fn queue_depth(&self) -> usize {
        self.state
            .lock()
            .expect("daemon state poisoned")
            .queue
            .len()
    }

    /// Close admission: every later `submit` is rejected with
    /// [`RejectReason::Draining`]. Idempotent.
    fn begin_drain(&self) {
        self.state.lock().expect("daemon state poisoned").draining = true;
    }

    /// The admission gate. Rejections are synchronous and structured;
    /// admitted jobs are billed to their tenant and queued with their
    /// deadlines resolved against the configured defaults.
    pub fn submit(&self, request: DaemonRequest) -> Result<(), RejectReason> {
        let mut state = self.state.lock().expect("daemon state poisoned");
        state.stats.submitted += 1;
        let cost = job_cost(&request.job);
        let decision = self.admit(&mut state, &request, cost);
        match decision {
            Ok(()) => {
                state.stats.admitted += 1;
                let depth = state.queue.len();
                state.stats.max_queue_depth = state.stats.max_queue_depth.max(depth);
                Ok(())
            }
            Err(reason) => {
                state.stats.rejected += 1;
                *state
                    .stats
                    .rejects_by_code
                    .entry(reason.code())
                    .or_insert(0) += 1;
                Err(reason)
            }
        }
    }

    fn admit(
        &self,
        state: &mut State,
        request: &DaemonRequest,
        cost: u64,
    ) -> Result<(), RejectReason> {
        if state.draining {
            return Err(RejectReason::Draining);
        }
        if state.queue.len() >= self.config.queue_capacity {
            return Err(RejectReason::QueueFull {
                capacity: self.config.queue_capacity,
            });
        }
        if state.live_ids.contains(&request.id) {
            return Err(RejectReason::DuplicateId {
                id: request.id.clone(),
            });
        }
        if let Some(limit) = self.config.max_job_cells {
            if cost > limit {
                return Err(RejectReason::Oversized { cells: cost, limit });
            }
        }
        let quota = self
            .config
            .tenant_quotas
            .get(&request.tenant)
            .unwrap_or(&self.config.default_quota)
            .clone();
        let now = Instant::now();
        let tenant = state.tenants.entry(request.tenant.clone()).or_default();
        if tenant.budget.is_none() {
            tenant.budget = quota.cell_budget;
        }
        if tenant.in_flight >= quota.max_in_flight {
            return Err(RejectReason::TenantInFlight {
                tenant: request.tenant.clone(),
                limit: quota.max_in_flight,
            });
        }
        if let Some(budget) = tenant.budget {
            if cost > budget {
                return Err(RejectReason::TenantBudget {
                    tenant: request.tenant.clone(),
                    needed: cost,
                    available: budget,
                });
            }
            tenant.budget = Some(budget - cost);
        }
        tenant.in_flight += 1;
        state.live_ids.insert(request.id.clone());
        state.seq += 1;
        let hard_deadline = request
            .hard_timeout
            .or(self.config.default_hard_timeout)
            .map(|t| now + t);
        // The job's token carries the hard deadline, so every cancellation
        // check the job passes mid-run also reads the clock.
        let mut job = request.job.clone();
        if let Some(deadline) = hard_deadline {
            let token = job.cancel.take().unwrap_or_default();
            job.cancel = Some(token.with_deadline(deadline));
        }
        state.queue.push(Queued {
            seq: state.seq,
            id: request.id.clone(),
            tenant: request.tenant.clone(),
            job,
            submitted: now,
            soft_deadline: now
                + request
                    .soft_deadline
                    .unwrap_or(self.config.default_soft_deadline),
            hard_deadline,
        });
        Ok(())
    }

    /// Run one dispatch round: cancel queued jobs whose hard deadline has
    /// lapsed, then execute the earliest-deadline micro-batch, whose jobs
    /// stop mid-run once their token's hard deadline passes. Returns the
    /// number of jobs that reached an outcome this round (0 = queue empty).
    ///
    /// The sink runs on worker threads and may be called concurrently.
    pub fn dispatch<F: Fn(DaemonOutcome) + Sync>(&self, sink: F) -> usize {
        let (batch, overdue) = {
            let mut state = self.state.lock().expect("daemon state poisoned");
            let now = Instant::now();
            let mut overdue = Vec::new();
            let mut keep = Vec::with_capacity(state.queue.len());
            for entry in state.queue.drain(..) {
                match entry.hard_deadline {
                    Some(deadline) if deadline <= now => overdue.push(entry),
                    _ => keep.push(entry),
                }
            }
            state.queue = keep;
            // EDF with the admission sequence as the tiebreak: priority
            // aging without starvation.
            state.queue.sort_by_key(|a| (a.soft_deadline, a.seq));
            let batch_size = if self.config.batch_size == 0 {
                self.serve.workers().saturating_mul(4).max(1)
            } else {
                self.config.batch_size
            };
            let take = batch_size.min(state.queue.len());
            let batch: Vec<Queued> = state.queue.drain(..take).collect();
            (batch, overdue)
        };
        let mut settled = 0usize;
        for entry in overdue {
            self.finalize(
                entry,
                JobStatus::Cancelled(CancelReason::HardTimeout),
                Duration::ZERO,
                &sink,
            );
            settled += 1;
        }
        if batch.is_empty() {
            return settled;
        }
        settled += batch.len();
        let dispatch_start = Instant::now();
        let mut meta: Vec<Option<Queued>> = Vec::with_capacity(batch.len());
        let mut jobs: Vec<JobSpec> = Vec::with_capacity(batch.len());
        for entry in batch {
            jobs.push(entry.job.clone());
            meta.push(Some(entry));
        }
        let meta = Mutex::new(meta);
        self.serve.run_batch_with(jobs, |outcome| {
            let entry = meta.lock().expect("dispatch metadata poisoned")[outcome.job]
                .take()
                .expect("each job completes exactly once");
            let status = match outcome.result {
                Ok(result) => JobStatus::Done {
                    tier: outcome.tier,
                    result,
                },
                Err(JobError::Program(e)) => JobStatus::Failed(e),
                Err(JobError::Panicked(msg)) => JobStatus::Panicked(msg),
                // Mid-run cancellation only ever comes from the hard
                // deadline on the job's token (drain cancels jobs in the
                // queue, never in flight).
                Err(JobError::Cancelled) => JobStatus::Cancelled(CancelReason::HardTimeout),
            };
            let wait = dispatch_start.saturating_duration_since(entry.submitted);
            self.finalize(entry, status, wait, &sink);
        });
        settled
    }

    /// Settle one job: release its tenant accounting, bump the stats for
    /// its terminal state, and hand the outcome to the sink.
    fn finalize<F: Fn(DaemonOutcome) + Sync>(
        &self,
        entry: Queued,
        status: JobStatus,
        wait: Duration,
        sink: &F,
    ) {
        {
            let mut state = self.state.lock().expect("daemon state poisoned");
            state.live_ids.remove(&entry.id);
            if let Some(tenant) = state.tenants.get_mut(&entry.tenant) {
                tenant.in_flight = tenant.in_flight.saturating_sub(1);
            }
            match &status {
                JobStatus::Done { .. } => state.stats.completed += 1,
                JobStatus::Failed(_) => state.stats.failed += 1,
                JobStatus::Panicked(_) => state.stats.panicked += 1,
                JobStatus::Cancelled(_) => state.stats.cancelled += 1,
            }
        }
        sink(DaemonOutcome {
            id: entry.id,
            tenant: entry.tenant,
            wait,
            latency: entry.submitted.elapsed(),
            status,
        });
    }

    /// Graceful drain: close admission, work the queue down, and — once
    /// the configured drain timeout lapses — cancel whatever is still
    /// queued with [`CancelReason::Drain`]. In-flight micro-batches always
    /// run to their outcome (their own hard timeouts still apply).
    pub fn drain<F: Fn(DaemonOutcome) + Sync>(&self, sink: F) -> DrainReport {
        self.begin_drain();
        let started = Instant::now();
        let mut cancelled = 0usize;
        loop {
            if let Some(limit) = self.config.drain_timeout {
                if started.elapsed() >= limit {
                    let remaining: Vec<Queued> = {
                        let mut state = self.state.lock().expect("daemon state poisoned");
                        state.queue.drain(..).collect()
                    };
                    for entry in remaining {
                        cancelled += 1;
                        self.finalize(
                            entry,
                            JobStatus::Cancelled(CancelReason::Drain),
                            Duration::ZERO,
                            &sink,
                        );
                    }
                }
            }
            if self.dispatch(&sink) == 0 {
                break;
            }
        }
        DrainReport {
            clean: cancelled == 0,
            cancelled,
        }
    }
}

/// The admission-time work measure of a job: iteration-space cells ×
/// steps. Computed from the program description alone — no compilation,
/// no allocation — so oversized requests are shed before they cost
/// anything.
fn job_cost(job: &JobSpec) -> u64 {
    (job.program.space().num_cells() as u64).saturating_mul(job.steps.max(1) as u64)
}
