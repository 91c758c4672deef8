//! Multi-tenant throughput service layer: batched jobs, a shared compile
//! cache, pooled buffers, work-stealing, and automatic tier selection.
//!
//! One [`ReferenceExecutor`] runs one program at a time; the "millions of
//! users" shape of the ROADMAP is a [`ServeExecutor`] that accepts a queue
//! of [`JobSpec`]s (program + grids + optional step count) and drains it
//! across a fixed worker pool:
//!
//! * **Shared compilation** — all jobs flow through one
//!   [`CompiledProgram`] cache keyed by the hashed structural fingerprint,
//!   so a thousand submissions of the same program compile once.
//! * **Fairness + work-stealing** — the job queue is FIFO and workers
//!   always prefer a queued job over helping an in-flight one, so
//!   thousands of small jobs are never starved by a large one. Only *idle*
//!   workers (empty queue) steal row bands from large SIMD-tier sweeps
//!   that publish themselves to the batch's active-sweep list; the owner
//!   of a large job always works its own bands too, so stealing can only
//!   help.
//! * **Zero steady-state allocation** — every O(cells) buffer (outputs,
//!   validity masks, band scratch, time-stepping state copies, fused-tier
//!   scratch) is drawn from the executor's cell and mask pools and
//!   returned either internally or by the caller via
//!   [`ServeExecutor::recycle`]. Once the pools are warm, sustained mixed
//!   traffic performs no pool-miss allocations — asserted by the
//!   `bench_serve` gate via [`ServeStats::pool_misses`] /
//!   [`ServeStats::mask_misses`]. (Control-plane allocations — a handful
//!   of `Vec`/`BTreeMap` nodes per job, O(stencils), not O(cells) — are
//!   outside this discipline and bounded per job.)
//! * **Automatic tier selection** — on first sight of a `(fingerprint,
//!   stepped?)` key under [`TierPolicy::Auto`], the service measures every
//!   eligible tier (SIMD always; fused and native JIT when the program
//!   supports them) on the job itself and caches the winner — through the
//!   executor's one [`crate::tier`] router, with this module's banded
//!   sweep as the SIMD runner — so known regressions like fused-vs-SIMD
//!   on upwind3d can never recur: repeated traffic always runs each
//!   program's fastest tier. All tiers are bit-identical, so the
//!   measurement runs *are* the job — no work is wasted.
//!   [`TierPolicy::Fixed`] and the per-job [`JobSpec::tier`] override
//!   knob pin a tier explicitly.
//!
//! Results contain the program outputs only (the fused tier's contract),
//! bit-identical to [`ReferenceExecutor::run_interpreted`] on every tier.
//!

use crate::executor::{
    CompiledProgram, ExecutionResult, ReferenceExecutor, RunSpec, PARALLEL_THRESHOLD_CELL_ACCESSES,
};
use crate::grid::Grid;
pub use crate::tier::{Tier, TierCacheLoad, TierChoice, TierPolicy};
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use stencilflow_program::{ProgramError, StencilProgram};

pub mod daemon;

/// Configuration for a [`ServeExecutor`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    workers: usize,
    policy: TierPolicy,
    pool_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            policy: TierPolicy::Auto,
            pool_capacity: 1024,
        }
    }
}

impl ServeConfig {
    /// Default configuration: one worker per hardware thread, automatic
    /// tier selection, a pool deep enough for sustained mixed traffic.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of worker threads the batch scheduler runs (default: the
    /// available hardware parallelism).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Tier-selection policy (default [`TierPolicy::Auto`]); the explicit
    /// override knob.
    pub fn with_tier_policy(mut self, policy: TierPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Buffers the shared pools retain between jobs (default 1024). Too
    /// small a cap drops released buffers and reintroduces steady-state
    /// allocation under mixed traffic.
    pub fn with_pool_capacity(mut self, capacity: usize) -> Self {
        self.pool_capacity = capacity.max(1);
        self
    }
}

/// A cooperative cancellation handle shared between a job and whoever may
/// need to stop it (the daemon's deadline watchdog, a draining caller).
/// Cancellation is checked at band boundaries, so a cancelled job stops at
/// the next band and its pooled buffers flow back through the normal error
/// path — cancel + pool recycle, never a leak.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-fired token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Fire the token. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether the token has fired.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Deterministic fault injection for one job, extending the seed-driven
/// fault-plan idiom of [`crate::shard`] to the service layer. Faults fire
/// inside the per-job `catch_unwind` isolation boundary, so tests can
/// prove a poison job is contained without any unsafety.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobFault {
    /// Panic inside kernel execution (a poison job). The job must come
    /// back as [`JobError::Panicked`] while the pool, scratch buffers, and
    /// the rest of the batch keep running.
    Poison,
    /// Sleep this long inside the first band of each sweep before doing
    /// the work — long enough for a hard-timeout watchdog to fire, so
    /// mid-run cancellation is testable without wall-clock races.
    Stall(Duration),
}

/// Why a job completed without a result. `Program` is the ordinary
/// failure (validation or runtime error from the program itself); the
/// other variants are the service-boundary outcomes the daemon's
/// resilience contract is about.
#[derive(Debug)]
pub enum JobError {
    /// The program failed to compile, validate, or run.
    Program(ProgramError),
    /// The job panicked inside execution. The panic was contained to this
    /// job: pooled buffers were recycled and the rest of the batch ran.
    Panicked(String),
    /// The job's [`CancelToken`] fired before or during execution.
    Cancelled,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Program(e) => write!(f, "{e}"),
            JobError::Panicked(msg) => write!(f, "job panicked: {msg}"),
            JobError::Cancelled => write!(f, "job cancelled"),
        }
    }
}

impl std::error::Error for JobError {}

impl From<ProgramError> for JobError {
    fn from(e: ProgramError) -> Self {
        JobError::Program(e)
    }
}

/// A job's terminal state: its outputs or a structured [`JobError`].
pub type JobResult = std::result::Result<ExecutionResult, JobError>;

/// Render a `catch_unwind` payload as the human-readable panic message.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `body` inside a panic-isolation boundary: a panic becomes the
/// job's [`JobError::Panicked`] outcome instead of unwinding the worker.
fn isolated<T>(
    body: impl FnOnce() -> std::result::Result<T, JobError>,
) -> std::result::Result<T, JobError> {
    catch_unwind(AssertUnwindSafe(body))
        .unwrap_or_else(|payload| Err(JobError::Panicked(panic_message(payload))))
}

/// One queued job: a program, its input grids, and an optional time-step
/// count. Programs and inputs are `Arc`-shared so thousands of jobs over
/// the same tenant data stay cheap to clone and enqueue.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The stencil program to run.
    pub program: Arc<StencilProgram>,
    /// Input grids (validated against the program on execution).
    pub inputs: Arc<BTreeMap<String, Grid>>,
    /// Time steps (1 = a single application; 0 is rejected).
    pub steps: usize,
    /// Per-job tier override; `None` defers to the service policy.
    pub tier: Option<Tier>,
    /// Tenant identity for the daemon's quota accounting. The batch
    /// executor itself ignores it.
    pub tenant: Option<String>,
    /// Cooperative cancellation handle (checked at band boundaries).
    pub cancel: Option<CancelToken>,
    /// Deterministic fault injection for resilience tests.
    pub fault: Option<JobFault>,
}

impl JobSpec {
    /// A single-application job with policy-selected tier.
    pub fn new(program: Arc<StencilProgram>, inputs: Arc<BTreeMap<String, Grid>>) -> JobSpec {
        JobSpec {
            program,
            inputs,
            steps: 1,
            tier: None,
            tenant: None,
            cancel: None,
            fault: None,
        }
    }

    /// Time-step the program `steps` times (feedback semantics of
    /// [`ReferenceExecutor::run_steps`]).
    pub fn with_steps(mut self, steps: usize) -> JobSpec {
        self.steps = steps;
        self
    }

    /// Pin this job to one tier, overriding the service policy.
    pub fn with_tier(mut self, tier: Tier) -> JobSpec {
        self.tier = Some(tier);
        self
    }

    /// Tag the job with a tenant id (daemon quota accounting).
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> JobSpec {
        self.tenant = Some(tenant.into());
        self
    }

    /// Attach a cancellation token.
    pub fn with_cancel_token(mut self, token: CancelToken) -> JobSpec {
        self.cancel = Some(token);
        self
    }

    /// Inject a deterministic fault (resilience tests only).
    pub fn with_fault(mut self, fault: JobFault) -> JobSpec {
        self.fault = Some(fault);
        self
    }

    /// Whether the job's token (if any) has fired.
    fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }
}

/// The completion record of one job.
#[derive(Debug)]
pub struct JobOutcome {
    /// Index of the job in the submitted batch.
    pub job: usize,
    /// The tier the job actually ran on.
    pub tier: Tier,
    /// Batch-start → completion latency (queue wait included).
    pub latency: Duration,
    /// The program outputs (only), or the job's structured failure.
    /// Return successful results to the pool via
    /// [`ServeExecutor::recycle`] when done.
    pub result: JobResult,
}

/// Aggregate service counters (monotonic across batches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Jobs completed (successes and failures).
    pub jobs: usize,
    /// Program compilations (shared-cache misses).
    pub compiles: usize,
    /// Cell-buffer pool acquisitions (hits + misses).
    pub pool_acquires: usize,
    /// Cell-buffer pool misses (actual allocations). Flat in steady state.
    pub pool_misses: usize,
    /// Mask pool acquisitions.
    pub mask_acquires: usize,
    /// Mask pool misses. Flat in steady state.
    pub mask_misses: usize,
    /// First-sight tier measurements performed under [`TierPolicy::Auto`].
    pub tier_measurements: usize,
    /// Row bands executed by a worker other than the job's owner.
    pub steals: usize,
}

/// Stealable bands per worker on a large sweep: small enough to bound
/// per-band bind overhead, large enough that a late-arriving idle worker
/// still finds work.
const BANDS_PER_WORKER: usize = 2;

/// The multi-tenant batch executor. See the module docs for the
/// scheduling, pooling, and tier-selection contracts.
#[derive(Debug)]
pub struct ServeExecutor {
    executor: ReferenceExecutor,
    workers: usize,
    policy: TierPolicy,
    jobs: AtomicUsize,
    steals: AtomicUsize,
}

/// Per-batch scheduler state shared by the worker pool.
struct BatchShared<'a> {
    /// FIFO job queue (fairness: arrival order, small jobs never wait on
    /// band help given to large ones).
    queue: Mutex<VecDeque<(usize, JobSpec)>>,
    /// Large sweeps currently offering bands to idle workers.
    sweeps: Mutex<Vec<Arc<SweepShared>>>,
    /// Dedicated condvar mutex (std condvars must pair with one mutex).
    idle: Mutex<()>,
    wake: Condvar,
    /// Completion sink, called by the finishing worker as each job lands.
    sink: &'a (dyn Fn(JobOutcome) + Sync),
    remaining: AtomicUsize,
}

/// One stencil sweep split into claimable row bands. The job owner moves
/// its grid maps in, bands run anywhere (each re-binds — binding is the
/// cheap per-run step by design), and the owner recovers the maps through
/// `Arc::try_unwrap` once every band has landed.
struct SweepShared {
    compiled: Arc<CompiledProgram>,
    stencil_ix: usize,
    /// Step-1 jobs resolve fields against the client's shared input map…
    client_inputs: Option<Arc<BTreeMap<String, Grid>>>,
    /// …stepped jobs against the job-owned pooled working copies.
    work: BTreeMap<String, Grid>,
    /// Grids computed by earlier stencils of the current step.
    computed: BTreeMap<String, Grid>,
    row_len: usize,
    bands: Vec<(usize, usize)>,
    next: AtomicUsize,
    done: AtomicUsize,
    results: Mutex<Vec<BandOut>>,
    error: Mutex<Option<JobError>>,
    /// The owning job's cancellation token, visible to thieves too.
    cancel: Option<CancelToken>,
    /// The owning job's injected fault (fires in band 0 of the sweep).
    fault: Option<JobFault>,
}

impl SweepShared {
    /// The (inputs, computed) pair `CompiledStencil::bind` resolves
    /// against, in the same precedence order the executor uses.
    fn maps(&self) -> (&BTreeMap<String, Grid>, &BTreeMap<String, Grid>) {
        match &self.client_inputs {
            Some(arc) => (arc.as_ref(), &self.computed),
            None => (&self.work, &self.computed),
        }
    }
}

/// A completed band: pooled output cells and mask covering
/// `[row_start, row_end)`.
struct BandOut {
    row_start: usize,
    row_end: usize,
    data: Vec<f64>,
    mask: Vec<bool>,
}

/// The grid maps a job threads through its sweeps.
struct SweepIo {
    client_inputs: Option<Arc<BTreeMap<String, Grid>>>,
    work: BTreeMap<String, Grid>,
    computed: BTreeMap<String, Grid>,
}

impl ServeExecutor {
    /// Create a service executor. The internal [`ReferenceExecutor`] is
    /// pinned to one thread per sweep (parallelism comes from the worker
    /// pool and band stealing, never from nested thread scopes) with
    /// pooled results at the configured retention capacity.
    pub fn new(config: ServeConfig) -> ServeExecutor {
        ServeExecutor {
            executor: ReferenceExecutor::new()
                .with_max_threads(1)
                .with_pool_capacity(config.pool_capacity)
                .with_pooled_results(true),
            workers: config.workers.max(1),
            policy: config.policy,
            jobs: AtomicUsize::new(0),
            steals: AtomicUsize::new(0),
        }
    }

    /// Number of worker threads a batch runs with.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Aggregate service counters.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            jobs: self.jobs.load(Ordering::Relaxed),
            compiles: self.executor.compile_count(),
            pool_acquires: self.executor.pool_acquire_count(),
            pool_misses: self.executor.pool_miss_count(),
            mask_acquires: self.executor.mask_pool_acquire_count(),
            mask_misses: self.executor.mask_pool_miss_count(),
            tier_measurements: self.executor.tier_measure_count(),
            steals: self.steals.load(Ordering::Relaxed),
        }
    }

    /// Snapshot of the cached tier decisions.
    pub fn tier_choices(&self) -> Vec<TierChoice> {
        self.executor.router.choices()
    }

    /// Serialize the measured tier decisions (plus the build salt) as a
    /// text-JSON document suitable for a cache file. Round-trips through
    /// [`import_tier_decisions`](ServeExecutor::import_tier_decisions).
    pub fn export_tier_decisions(&self) -> String {
        self.executor.router.export()
    }

    /// Load previously exported tier decisions into the live cache.
    ///
    /// A salt that does not match this build discards every decision
    /// (`stale: true`, nothing loaded) — a restart on a different
    /// compiler, lane width, or crate version must re-measure rather than
    /// trust stale rankings. Malformed documents are errors; individual
    /// decisions never override a decision already measured live.
    pub fn import_tier_decisions(&self, text: &str) -> std::result::Result<TierCacheLoad, String> {
        self.executor.router.import(text)
    }

    /// Return a finished result's grids and masks to the shared pools.
    /// Sustained traffic must recycle results (or keep them — recycling is
    /// what makes the steady state allocation-free).
    pub fn recycle(&self, result: ExecutionResult) {
        let (fields, masks, _) = result.into_parts();
        for (_, grid) in fields {
            self.executor.pool_release(grid.into_data());
        }
        for (_, mask) in masks {
            self.executor.release_mask(mask);
        }
    }

    /// Warm the service for the kinds of job in `jobs`, deterministically.
    ///
    /// The jobs run once each, one at a time, and are recycled, so every
    /// fingerprint is compiled and has its tier measured with nothing else
    /// running, and what the pools hold afterwards is a function of the
    /// jobs, not of how worker threads happened to interleave. The pools
    /// then reserve room for `workers` such jobs at once (see
    /// `Pool::reserve`), so traffic of these kinds that recycles from the
    /// [`run_batch_with`](ServeExecutor::run_batch_with) sink misses no
    /// pool from its first batch on. (A warm-up made of ordinary batches
    /// only provisions for the overlaps that happened to occur in it: two
    /// large jobs that first meet in the measured window each need the
    /// scratch one of them warmed.) The first job that fails ends the
    /// warm-up with its error.
    pub fn warm(&self, jobs: Vec<JobSpec>) -> std::result::Result<(), JobError> {
        for job in jobs {
            self.recycle(self.run_one(job).result?);
        }
        self.executor.reserve_pools(self.workers);
        Ok(())
    }

    /// Run one job to completion (a single-job batch).
    pub fn run_one(&self, job: JobSpec) -> JobOutcome {
        self.run_batch(vec![job])
            .pop()
            .expect("a one-job batch yields one outcome")
    }

    /// Drain a batch of jobs across the worker pool and return one
    /// [`JobOutcome`] per job, in submission order. Jobs are dequeued
    /// FIFO; idle workers steal row bands from large in-flight sweeps.
    ///
    /// Every returned result holds pooled buffers until
    /// [`recycle`](ServeExecutor::recycle)d, so a huge batch collected
    /// this way keeps the whole batch's outputs live at once. Sustained
    /// traffic should use [`run_batch_with`](ServeExecutor::run_batch_with)
    /// and recycle from the sink instead — that is what keeps the steady
    /// state allocation-free under thousands of in-flight jobs.
    pub fn run_batch(&self, jobs: Vec<JobSpec>) -> Vec<JobOutcome> {
        let outcomes = Mutex::new(Vec::with_capacity(jobs.len()));
        self.run_batch_with(jobs, |outcome| {
            outcomes
                .lock()
                .expect("outcome list poisoned")
                .push(outcome);
        });
        let mut outcomes = outcomes.into_inner().expect("outcome list poisoned");
        outcomes.sort_by_key(|o| o.job);
        outcomes
    }

    /// [`run_batch`](ServeExecutor::run_batch) with a streaming completion
    /// sink: the worker that finishes a job calls `sink` with its outcome
    /// immediately, so the caller can respond and recycle while the rest
    /// of the batch is still running. The sink runs on worker threads and
    /// may be called concurrently.
    pub fn run_batch_with<F: Fn(JobOutcome) + Sync>(&self, jobs: Vec<JobSpec>, sink: F) {
        if jobs.is_empty() {
            return;
        }
        let started = Instant::now();
        let count = jobs.len();
        let shared = BatchShared {
            queue: Mutex::new(jobs.into_iter().enumerate().collect()),
            sweeps: Mutex::new(Vec::new()),
            idle: Mutex::new(()),
            wake: Condvar::new(),
            sink: &sink,
            remaining: AtomicUsize::new(count),
        };
        let workers = self.workers.min(count).max(1);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| scope.spawn(|| self.worker_loop(&shared, started)))
                .collect();
            // Job panics are isolated per job inside the workers, so the
            // only panic that can reach a join is one thrown by the
            // caller's own sink — that is the caller's bug, and it
            // propagates after every worker has parked.
            let mut sink_panic = None;
            for handle in handles {
                if let Err(payload) = handle.join() {
                    sink_panic = Some(payload);
                }
            }
            if let Some(payload) = sink_panic {
                std::panic::resume_unwind(payload);
            }
        });
        self.jobs.fetch_add(count, Ordering::Relaxed);
    }

    fn worker_loop(&self, shared: &BatchShared<'_>, started: Instant) {
        loop {
            // 1. Fairness: a queued job always beats helping a big one.
            let job = shared.queue.lock().expect("job queue poisoned").pop_front();
            if let Some((ix, job)) = job {
                // Outer isolation net: the fine-grained boundaries inside
                // `execute_job` recycle buffers precisely; this catch
                // guarantees that even a panic in the scheduler glue
                // between them downgrades to a per-job outcome instead of
                // aborting the batch.
                let (result, tier) = isolated(|| self.execute_job(shared, &job))
                    .unwrap_or_else(|err| (Err(err), Tier::Simd));
                // Decrement before the sink so a panicking sink cannot
                // leave the other workers waiting on `remaining` forever.
                shared.remaining.fetch_sub(1, Ordering::AcqRel);
                (shared.sink)(JobOutcome {
                    job: ix,
                    tier,
                    latency: started.elapsed(),
                    result,
                });
                shared.wake.notify_all();
                continue;
            }
            // 2. Idle: help an in-flight large sweep.
            if self.try_steal(shared) {
                continue;
            }
            // 3. Drained: exit once every job has completed.
            if shared.remaining.load(Ordering::Acquire) == 0 {
                shared.wake.notify_all();
                return;
            }
            // 4. Nothing to do right now; naps are bounded so a wakeup
            //    race can only cost a millisecond.
            let guard = shared.idle.lock().expect("idle mutex poisoned");
            drop(
                shared
                    .wake
                    .wait_timeout(guard, Duration::from_millis(1))
                    .expect("idle mutex poisoned"),
            );
        }
    }

    fn try_steal(&self, shared: &BatchShared) -> bool {
        let sweeps: Vec<Arc<SweepShared>> =
            shared.sweeps.lock().expect("sweep list poisoned").clone();
        for sweep in sweeps {
            if self.run_band(shared, &sweep, true) {
                return true;
            }
        }
        false
    }

    /// Claim and execute one band of `sweep`. Returns false when no bands
    /// are left to claim.
    ///
    /// This is the per-job isolation boundary for the banded SIMD path:
    /// the kernel runs inside `catch_unwind`, and the band's pooled
    /// buffers are owned *outside* the closure, so a panicking (or
    /// injected-poison) band releases them back to the pools exactly like
    /// an ordinary kernel error — the steady-state 0-miss invariant
    /// survives a poison job.
    fn run_band(&self, shared: &BatchShared<'_>, sweep: &SweepShared, stolen: bool) -> bool {
        let ix = sweep.next.fetch_add(1, Ordering::Relaxed);
        if ix >= sweep.bands.len() {
            return false;
        }
        if stolen {
            self.steals.fetch_add(1, Ordering::Relaxed);
        }
        let (row_start, row_end) = sweep.bands[ix];
        let len = (row_end - row_start) * sweep.row_len;
        let mut data = self.executor.alloc_result_cells(len);
        let mut mask = self.executor.alloc_result_mask(len);
        let stencil = &sweep.compiled.stencil_plans()[sweep.stencil_ix];
        let (inputs, computed) = sweep.maps();
        let outcome = isolated(|| {
            if ix == 0 {
                match sweep.fault {
                    Some(JobFault::Poison) => panic!("injected poison-job fault"),
                    Some(JobFault::Stall(delay)) => std::thread::sleep(delay),
                    None => {}
                }
            }
            if sweep.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                return Err(JobError::Cancelled);
            }
            stencil
                .bind(inputs, computed)
                .and_then(|bound| bound.run_rows(row_start, row_end, &mut data, &mut mask))
                .map_err(|source| {
                    JobError::Program(ProgramError::Code {
                        stencil: stencil.name().to_string(),
                        source,
                    })
                })
        });
        match outcome {
            Ok(()) => sweep
                .results
                .lock()
                .expect("band results poisoned")
                .push(BandOut {
                    row_start,
                    row_end,
                    data,
                    mask,
                }),
            Err(error) => {
                self.executor.pool_release(data);
                self.executor.release_mask(mask);
                let mut slot = sweep.error.lock().expect("band error slot poisoned");
                if slot.is_none() {
                    *slot = Some(error);
                }
            }
        }
        sweep.done.fetch_add(1, Ordering::Release);
        shared.wake.notify_all();
        true
    }

    /// One job, start to finish. `Err` is a job rejected before it reached
    /// a tier (reported as [`Tier::Simd`], like a panic in the glue).
    fn execute_job(
        &self,
        shared: &BatchShared<'_>,
        job: &JobSpec,
    ) -> std::result::Result<(JobResult, Tier), JobError> {
        if job.is_cancelled() {
            return Err(JobError::Cancelled);
        }
        let compiled = self.executor.prepare(&job.program)?;
        ReferenceExecutor::check_inputs(&compiled, &job.inputs)?;
        if job.steps == 0 {
            return Err(JobError::Program(ProgramError::Invalid {
                message: "serve jobs require at least one time step".into(),
            }));
        }
        // One step is a single application (no feedback pairing is
        // validated), more is a stepped run. Under `Auto`, first sight of
        // a fingerprint measures every eligible tier on the job itself and
        // caches the fastest; the SIMD runner handed to the router is the
        // banded, stealable sweep.
        let steps = (job.steps > 1).then_some(job.steps);
        Ok(self.executor.router.dispatch(
            &compiled,
            steps,
            job.tier.map_or(self.policy, TierPolicy::Fixed),
            |tier| self.run_tier(shared, &compiled, job, steps, tier),
            |result| self.recycle(result),
        ))
    }

    fn run_tier(
        &self,
        shared: &BatchShared<'_>,
        compiled: &Arc<CompiledProgram>,
        job: &JobSpec,
        steps: Option<usize>,
        tier: Tier,
    ) -> JobResult {
        if job.is_cancelled() {
            return Err(JobError::Cancelled);
        }
        match tier {
            Tier::Simd => self.run_simd(shared, compiled, job),
            // The fused and JIT tiers run whole-program inside one
            // `catch_unwind` boundary. A panic there can strand the
            // executor's *internal* scratch (unlike the banded path, whose
            // buffers are owned outside the closure), so the isolation
            // guarantee for these tiers is "the batch survives", not
            // "zero pool misses after a panic" — the injected poison
            // fault fires before entry precisely so tests can pin the
            // stronger banded guarantee separately.
            Tier::Fused | Tier::Jit => isolated(|| {
                match job.fault {
                    Some(JobFault::Poison) => panic!("injected poison-job fault"),
                    Some(JobFault::Stall(delay)) => std::thread::sleep(delay),
                    None => {}
                }
                if job.is_cancelled() {
                    return Err(JobError::Cancelled);
                }
                let spec = RunSpec {
                    steps,
                    tier: TierPolicy::Fixed(tier),
                };
                self.executor
                    .execute(compiled, &job.inputs, &spec)
                    .map(|(result, _)| result)
                    .map_err(JobError::Program)
            }),
        }
    }

    /// The service's SIMD-tier path: per-stencil sweeps over pooled
    /// buffers, banded and published for stealing when large. Outputs
    /// only; bit-identical to [`ReferenceExecutor::run`] /
    /// [`ReferenceExecutor::run_steps`] because every band runs the same
    /// [`run_rows`](crate::plan) sweep the executor uses.
    fn run_simd(
        &self,
        shared: &BatchShared<'_>,
        compiled: &Arc<CompiledProgram>,
        job: &JobSpec,
    ) -> JobResult {
        let steps = job.steps.max(1);
        let num_cells = compiled.cell_count();
        let stencil_count = compiled.stencil_count();

        // `pairs`: the output-to-input pairing of time stepping, derived (and
        // its errors surfaced) once per job, before anything is pooled.
        let (pairs, mut io) = if steps == 1 {
            let io = SweepIo {
                client_inputs: Some(Arc::clone(&job.inputs)),
                work: BTreeMap::new(),
                computed: BTreeMap::new(),
            };
            (Vec::new(), io)
        } else {
            let pairs = compiled.feedback_pairs()?;
            // Time stepping mutates the state fields, so the job works on
            // pooled copies of the client's inputs (steady-state pool
            // hits, never a clone allocation).
            let mut work = BTreeMap::new();
            for (name, grid) in job.inputs.iter() {
                work.insert(name.clone(), self.pooled_copy(grid));
            }
            let io = SweepIo {
                client_inputs: None,
                work,
                computed: BTreeMap::new(),
            };
            (pairs, io)
        };

        let mut cells_evaluated = 0usize;
        let mut final_masks: BTreeMap<String, Vec<bool>> = BTreeMap::new();
        let outcome = (|| -> std::result::Result<(), JobError> {
            for step in 0..steps {
                if job.is_cancelled() {
                    return Err(JobError::Cancelled);
                }
                let mut masks: BTreeMap<String, Vec<bool>> = BTreeMap::new();
                for stencil_ix in 0..stencil_count {
                    let name = compiled.stencil_plans()[stencil_ix].name().to_string();
                    let (grid, mask) =
                        self.sweep_stencil(shared, compiled, stencil_ix, job, &mut io)?;
                    io.computed.insert(name.clone(), grid);
                    masks.insert(name, mask);
                }
                cells_evaluated += num_cells * stencil_count;
                if step + 1 == steps {
                    final_masks = masks;
                    break;
                }
                // Feedback: outputs become next step's state; everything
                // else returns to the pools.
                for (output, input) in &pairs {
                    let grid = io
                        .computed
                        .remove(output)
                        .expect("program outputs are always computed");
                    if let Some(old) = io.work.insert(input.clone(), grid) {
                        self.executor.pool_release(old.into_data());
                    }
                }
                for (_, grid) in std::mem::take(&mut io.computed) {
                    self.executor.pool_release(grid.into_data());
                }
                for (_, mask) in masks {
                    self.executor.release_mask(mask);
                }
            }
            Ok(())
        })();
        // Working state goes back to the pools on success and failure
        // alike (a lost buffer would show up as a later pool miss).
        for (_, grid) in std::mem::take(&mut io.work) {
            self.executor.pool_release(grid.into_data());
        }
        // Outputs-only contract: intermediates — and everything a failed
        // job computed — return to the pools too.
        let outputs = compiled.output_names();
        let keep = |name: &String| outcome.is_ok() && outputs.contains(name);
        let mut fields = BTreeMap::new();
        let mut out_masks = BTreeMap::new();
        for (name, grid) in std::mem::take(&mut io.computed) {
            if keep(&name) {
                fields.insert(name, grid);
            } else {
                self.executor.pool_release(grid.into_data());
            }
        }
        for (name, mask) in final_masks {
            if keep(&name) {
                out_masks.insert(name, mask);
            } else {
                self.executor.release_mask(mask);
            }
        }
        outcome.map(|()| ExecutionResult::from_parts(fields, out_masks, cells_evaluated))
    }

    /// Sweep one stencil, banded across the worker pool when large. The
    /// owner claims bands alongside any thieves and stitches the pooled
    /// band buffers into the result grid.
    fn sweep_stencil(
        &self,
        shared: &BatchShared<'_>,
        compiled: &Arc<CompiledProgram>,
        stencil_ix: usize,
        job: &JobSpec,
        io: &mut SweepIo,
    ) -> std::result::Result<(Grid, Vec<bool>), JobError> {
        let stencil = &compiled.stencil_plans()[stencil_ix];
        let rows = stencil.row_count();
        let row_len = stencil.row_len();
        let num_cells = compiled.cell_count();
        let weight = num_cells.saturating_mul(stencil.accesses_per_cell().max(1));
        let band_target =
            if self.workers <= 1 || rows <= 1 || weight < PARALLEL_THRESHOLD_CELL_ACCESSES {
                1
            } else {
                rows.min(self.workers * BANDS_PER_WORKER)
            };
        let per_band = rows.div_ceil(band_target);
        let mut bands = Vec::with_capacity(band_target);
        let mut row = 0usize;
        while row < rows {
            let hi = (row + per_band).min(rows);
            bands.push((row, hi));
            row = hi;
        }

        let sweep = Arc::new(SweepShared {
            compiled: Arc::clone(compiled),
            stencil_ix,
            client_inputs: io.client_inputs.clone(),
            work: std::mem::take(&mut io.work),
            computed: std::mem::take(&mut io.computed),
            row_len,
            bands,
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            results: Mutex::new(Vec::new()),
            error: Mutex::new(None),
            cancel: job.cancel.clone(),
            fault: job.fault,
        });
        let stealable = sweep.bands.len() > 1;
        if stealable {
            shared
                .sweeps
                .lock()
                .expect("sweep list poisoned")
                .push(Arc::clone(&sweep));
            shared.wake.notify_all();
        }
        // The owner always works its own sweep.
        while self.run_band(shared, &sweep, false) {}
        // Wait for any stolen bands to land.
        while sweep.done.load(Ordering::Acquire) < sweep.bands.len() {
            let guard = shared.idle.lock().expect("idle mutex poisoned");
            drop(
                shared
                    .wake
                    .wait_timeout(guard, Duration::from_micros(200))
                    .expect("idle mutex poisoned"),
            );
        }
        if stealable {
            shared
                .sweeps
                .lock()
                .expect("sweep list poisoned")
                .retain(|s| !Arc::ptr_eq(s, &sweep));
        }
        // Thieves hold their Arc clone only for the instant between the
        // `done` increment and the drop; spin it out.
        let mut sweep = {
            let mut sweep = sweep;
            loop {
                match Arc::try_unwrap(sweep) {
                    Ok(owned) => break owned,
                    Err(still_shared) => {
                        sweep = still_shared;
                        std::thread::yield_now();
                    }
                }
            }
        };
        io.work = std::mem::take(&mut sweep.work);
        io.computed = std::mem::take(&mut sweep.computed);
        let band_outs = sweep.results.into_inner().expect("band results poisoned");
        if let Some(err) = sweep.error.into_inner().expect("band error slot poisoned") {
            for band in band_outs {
                self.executor.pool_release(band.data);
                self.executor.release_mask(band.mask);
            }
            return Err(err);
        }

        let dim_refs: Vec<&str> = compiled.dim_names().iter().map(String::as_str).collect();
        if sweep.bands.len() == 1 {
            // Single band: its buffers are the result, no stitching.
            let band = band_outs
                .into_iter()
                .next()
                .expect("a completed sweep has its band result");
            let grid = Grid::from_data(
                &dim_refs,
                compiled.space_shape(),
                stencil.out_dtype(),
                band.data,
            );
            return Ok((grid, band.mask));
        }
        // Stitch bands into pooled full-size buffers (every row is
        // covered by exactly one band, so no fill is needed for the data
        // buffer; pooled masks come back all-true and are then fully
        // overwritten too).
        let mut data = self.executor.pool_acquire(num_cells);
        let mut mask = self.executor.alloc_result_mask(num_cells);
        for band in band_outs {
            let lo = band.row_start * row_len;
            let hi = band.row_end * row_len;
            data[lo..hi].copy_from_slice(&band.data);
            mask[lo..hi].copy_from_slice(&band.mask);
            self.executor.pool_release(band.data);
            self.executor.release_mask(band.mask);
        }
        let grid = Grid::from_data(&dim_refs, compiled.space_shape(), stencil.out_dtype(), data);
        Ok((grid, mask))
    }

    /// A pooled copy of a client grid (the stepped path's mutable state).
    fn pooled_copy(&self, grid: &Grid) -> Grid {
        let mut data = self.executor.pool_acquire(grid.len());
        data.copy_from_slice(grid.as_slice());
        let dim_refs: Vec<&str> = grid.dims().iter().map(String::as_str).collect();
        Grid::from_data(&dim_refs, grid.shape(), grid.data_type(), data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input_data::generate_inputs;
    use stencilflow_expr::DataType;
    use stencilflow_program::StencilProgramBuilder;

    fn jacobi_like(shape: &[usize]) -> Arc<StencilProgram> {
        Arc::new(
            StencilProgramBuilder::new("serve_jacobi", shape)
                .input("u", DataType::Float32, &["i", "j"])
                .stencil(
                    "u_next",
                    "0.25 * (u[i-1,j] + u[i+1,j] + u[i,j-1] + u[i,j+1])",
                )
                .output("u_next")
                .build()
                .unwrap(),
        )
    }

    fn job_for(program: &Arc<StencilProgram>, seed: u64) -> JobSpec {
        let inputs = Arc::new(generate_inputs(program, seed));
        JobSpec::new(Arc::clone(program), inputs)
    }

    #[test]
    fn batch_results_match_reference_runs_bitwise() {
        let program = jacobi_like(&[16, 16]);
        let serve = ServeExecutor::new(ServeConfig::new().with_workers(4));
        let reference = ReferenceExecutor::new();
        let jobs: Vec<JobSpec> = (0..12).map(|seed| job_for(&program, seed)).collect();
        let expected: Vec<_> = jobs
            .iter()
            .map(|job| reference.run(&job.program, &job.inputs).unwrap())
            .collect();
        let outcomes = serve.run_batch(jobs);
        assert_eq!(outcomes.len(), 12);
        for (outcome, expected) in outcomes.into_iter().zip(expected) {
            let result = outcome.result.unwrap();
            let got = result.field("u_next").unwrap().as_slice();
            let want = expected.field("u_next").unwrap().as_slice();
            for (a, b) in got.iter().zip(want) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            assert_eq!(
                result.valid_mask("u_next").unwrap(),
                expected.valid_mask("u_next").unwrap()
            );
            // Outputs-only contract: no intermediate fields.
            assert_eq!(result.fields().count(), 1);
            serve.recycle(result);
        }
        // One program fingerprint -> one compilation across the batch.
        assert_eq!(serve.stats().compiles, 1);
    }

    #[test]
    fn stepped_simd_jobs_match_run_steps_bitwise() {
        let program = jacobi_like(&[12, 12]);
        let serve = ServeExecutor::new(
            ServeConfig::new()
                .with_workers(2)
                .with_tier_policy(TierPolicy::Fixed(Tier::Simd)),
        );
        let reference = ReferenceExecutor::new();
        let job = job_for(&program, 7).with_steps(4);
        let expected = reference.run_steps(&program, &job.inputs, 4).unwrap();
        let outcome = serve.run_one(job);
        assert_eq!(outcome.tier, Tier::Simd);
        let result = outcome.result.unwrap();
        for (a, b) in result
            .field("u_next")
            .unwrap()
            .as_slice()
            .iter()
            .zip(expected.field("u_next").unwrap().as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(result.cells_evaluated(), expected.cells_evaluated());
        serve.recycle(result);
    }

    #[test]
    fn steady_state_batches_hit_the_pools() {
        let program = jacobi_like(&[16, 16]);
        let serve = ServeExecutor::new(ServeConfig::new().with_workers(2));
        let jobs = || -> Vec<JobSpec> { (0..8).map(|seed| job_for(&program, seed)).collect() };
        // Warmup: tier measurement, and pools provisioned for two jobs in
        // flight, whatever the workers' interleaving in the steady window
        // turns out to be. This window collects each batch before it
        // recycles, so eight results are held on top of those two.
        serve.warm(jobs()).unwrap();
        serve.executor.reserve_pools(8);
        let warm = serve.stats();
        for _ in 0..3 {
            for outcome in serve.run_batch(jobs()) {
                serve.recycle(outcome.result.unwrap());
            }
        }
        let steady = serve.stats();
        assert_eq!(
            steady.pool_misses, warm.pool_misses,
            "steady-state batches must not allocate cell buffers"
        );
        assert_eq!(
            steady.mask_misses, warm.mask_misses,
            "steady-state batches must not allocate masks"
        );
        assert_eq!(steady.compiles, warm.compiles);
        assert!(steady.pool_acquires > warm.pool_acquires);
    }

    #[test]
    fn tier_override_knobs_are_honoured() {
        let program = jacobi_like(&[8, 8]);
        let serve = ServeExecutor::new(
            ServeConfig::new()
                .with_workers(1)
                .with_tier_policy(TierPolicy::Fixed(Tier::Fused)),
        );
        let outcome = serve.run_one(job_for(&program, 1));
        assert_eq!(outcome.tier, Tier::Fused);
        serve.recycle(outcome.result.unwrap());
        // Per-job override beats the policy.
        let outcome = serve.run_one(job_for(&program, 2).with_tier(Tier::Simd));
        assert_eq!(outcome.tier, Tier::Simd);
        serve.recycle(outcome.result.unwrap());
    }

    #[test]
    fn auto_policy_measures_once_per_fingerprint() {
        let program = jacobi_like(&[16, 16]);
        let serve = ServeExecutor::new(ServeConfig::new().with_workers(1));
        for seed in 0..6 {
            let outcome = serve.run_one(job_for(&program, seed));
            serve.recycle(outcome.result.unwrap());
        }
        let stats = serve.stats();
        assert_eq!(stats.tier_measurements, 1);
        assert_eq!(stats.compiles, 1);
        let choices = serve.tier_choices();
        assert_eq!(choices.len(), 1);
        assert_eq!(choices[0].program, "serve_jacobi");
        assert!(!choices[0].stepped);
    }

    #[test]
    fn large_sweeps_offer_bands_and_stay_bitwise_identical() {
        // The large job is heavy enough to band (> 2^18 cell·accesses) and
        // its owner sleeps in band 0, so the other worker — done with its
        // small job, the queue empty — has to steal the remaining bands.
        let large = jacobi_like(&[512, 256]);
        let small = jacobi_like(&[8, 8]);
        let serve = ServeExecutor::new(
            ServeConfig::new()
                .with_workers(2)
                .with_tier_policy(TierPolicy::Fixed(Tier::Simd)),
        );
        let batch = || {
            let stall = JobFault::Stall(Duration::from_millis(50));
            vec![job_for(&large, 3).with_fault(stall), job_for(&small, 4)]
        };
        let expected: Vec<_> = batch()
            .iter()
            .map(|job| ReferenceExecutor::new().run(&job.program, &job.inputs))
            .collect();
        let run = || {
            for (outcome, expected) in serve.run_batch(batch()).into_iter().zip(&expected) {
                let result = outcome.result.unwrap();
                let got = result.field("u_next").unwrap().as_slice();
                let want = expected
                    .as_ref()
                    .unwrap()
                    .field("u_next")
                    .unwrap()
                    .as_slice();
                assert!(got
                    .iter()
                    .zip(want)
                    .all(|(a, b)| a.to_bits() == b.to_bits()));
                serve.recycle(result);
            }
            serve.stats()
        };
        let first = run();
        assert!(first.steals >= 1, "no band was stolen: {first:?}");
        // Stitching returned every band buffer, the thief's included: the
        // same batch again allocates nothing.
        let second = run();
        assert!(second.steals > first.steals);
        assert_eq!(
            (second.pool_misses, second.mask_misses),
            (first.pool_misses, first.mask_misses)
        );
    }

    #[test]
    fn zero_steps_and_bad_inputs_are_rejected_per_job() {
        let program = jacobi_like(&[8, 8]);
        let serve = ServeExecutor::new(ServeConfig::new().with_workers(1));
        let bad_steps = job_for(&program, 1).with_steps(0);
        assert!(serve.run_one(bad_steps).result.is_err());
        let empty = JobSpec::new(Arc::clone(&program), Arc::new(BTreeMap::new()));
        assert!(serve.run_one(empty).result.is_err());
        // A failing job does not poison the batch: the next one succeeds.
        let ok = serve.run_one(job_for(&program, 1));
        serve.recycle(ok.result.unwrap());
    }
}
