//! Multi-tenant throughput service layer: batched jobs, a shared compile
//! cache, pooled buffers, and one rule for the tier.
//!
//! One [`ReferenceExecutor`] runs one program at a time; the "millions of
//! users" shape of the ROADMAP is a [`ServeExecutor`] that accepts a queue
//! of [`JobSpec`]s (program + grids + optional step count) and drains it
//! across a fixed worker pool:
//!
//! * **Shared compilation** — all jobs flow through one
//!   [`CompiledProgram`] cache keyed by the hashed structural fingerprint,
//!   so a thousand submissions of the same program compile once.
//! * **Fairness** — the job queue is FIFO and a worker pops jobs off it
//!   until it is empty, so thousands of small jobs wait only for the jobs
//!   submitted before them. One job runs on one worker, on every tier: a
//!   batch's parallelism is across jobs. (Large sweeps of the since
//!   deleted materializing rung used to be cut into row bands that idle
//!   workers could steal; no measured workload ever stole one —
//!   `docs/evaluation.md` has the history.)
//! * **Zero steady-state allocation** — every O(cells) buffer (outputs,
//!   validity masks, time-stepping state, fused-tier scratch) is drawn
//!   from the executor's cell and mask pools and returned either
//!   internally or by the caller via [`ServeExecutor::recycle`]. Once the
//!   pools are warm, sustained mixed traffic performs no pool-miss
//!   allocations — asserted by the `bench_serve` gate via
//!   [`ServeStats::pool_misses`] / [`ServeStats::mask_misses`] — and a job
//!   that fails, is cancelled or hits the injected fault returns every
//!   buffer it drew. (Control-plane allocations — a handful of
//!   `Vec`/`BTreeMap` nodes per job, O(stencils), not O(cells) — are
//!   outside this discipline and bounded per job.)
//! * **One rule picks the rung** — through the executor's one per-tier
//!   runner (see [`crate::tier`]): a job asks for the service's ceiling
//!   ([`ServeConfig::with_tier`], default [`Tier::Jit`]) or its own pin
//!   ([`JobSpec::with_tier`]) and lands on the highest rung at or below it
//!   that its program allows; nothing is timed. An outcome reports the
//!   rung the job ran on, and [`ServeExecutor::tier_choices`] records the
//!   rung each unpinned program resolved to.
//! * **No job waits for `cc`** — a job on the JIT rung whose module is not
//!   loaded queues its unit for the engine's one background compile thread
//!   and runs on the fused rung; the jobs after the module lands run
//!   native. A unit whose build fails (or runs past its deadline) stays
//!   fused, the typed failure kept on the program's trace.
//!
//! Results contain the program outputs only (the fused tier's contract),
//! bit-identical to [`ReferenceExecutor::run_interpreted`] on every tier.
//!

use crate::executor::{CompiledProgram, ExecutionResult, ReferenceExecutor};
use crate::grid::Grid;
use crate::jit::TierUp;
pub use crate::tier::Tier;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use stencilflow_program::{ProgramError, StencilProgram};

pub mod daemon;

/// Configuration for a [`ServeExecutor`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    workers: usize,
    tier: Tier,
}

/// Buffers the shared pools retain between jobs: deep enough that sustained
/// mixed traffic never drops a released buffer and reallocates it.
const POOL_CAPACITY: usize = 1024;

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: crate::executor::host_threads(),
            tier: Tier::Jit,
        }
    }
}

impl ServeConfig {
    /// Default configuration: one worker per hardware thread, every rung
    /// allowed, a pool deep enough for sustained mixed traffic.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of worker threads the batch scheduler runs (default: the
    /// available hardware parallelism).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// The highest rung a job without a pin of its own may take (default
    /// [`Tier::Jit`]: any).
    pub fn with_tier(mut self, tier: Tier) -> Self {
        self.tier = tier;
        self
    }
}

/// A cooperative cancellation handle shared between a job and whoever may
/// need to stop it (a draining caller), optionally with a deadline past
/// which it reads as fired (the daemon's hard timeout). Cancellation is
/// checked before a job starts and before every window of its fused
/// schedule (on every rung: a window is up to
/// [`ReferenceExecutor::with_fusion_window`] steps), so a cancelled job
/// stops there and its pooled buffers flow back through the normal error
/// path — cancel + pool recycle, never a leak.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    fired: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A fresh, un-fired token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Fire the token. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.fired.store(true, Ordering::Release);
    }

    /// This token, also fired from `deadline` on (this copy only; clones
    /// made earlier keep their own deadline).
    pub(crate) fn with_deadline(mut self, deadline: Instant) -> CancelToken {
        self.deadline = Some(deadline);
        self
    }

    /// Whether the token has fired or its deadline has passed.
    pub(crate) fn is_cancelled(&self) -> bool {
        self.fired.load(Ordering::Acquire) || self.deadline.is_some_and(|d| Instant::now() >= d)
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
    /// Sleep this long before doing the work — long enough for a hard
    /// timeout to lapse, so mid-run cancellation is testable
    /// without wall-clock races.
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
    /// Per-job tier ceiling; `None` defers to the service's.
    pub tier: Option<Tier>,
    /// Cooperative cancellation handle (see [`CancelToken`]).
    pub cancel: Option<CancelToken>,
    /// Deterministic fault injection for resilience tests.
    pub fault: Option<JobFault>,
}

impl JobSpec {
    /// A single-application job under the service's tier ceiling.
    pub fn new(program: Arc<StencilProgram>, inputs: Arc<BTreeMap<String, Grid>>) -> JobSpec {
        JobSpec {
            program,
            inputs,
            steps: 1,
            tier: None,
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

    /// Pin this job's tier ceiling, overriding the service's.
    pub fn with_tier(mut self, tier: Tier) -> JobSpec {
        self.tier = Some(tier);
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
    /// Always 0: nothing is timed to pick a rung. Kept only because the
    /// frozen `benchmark/src/sut.rs` reads the field; goes with the next
    /// benchmark re-anchor.
    pub tier_measurements: usize,
    /// Always 0: jobs are not split across workers. Kept only because the
    /// frozen `benchmark/src/sut.rs` reads the field; goes with the next
    /// benchmark re-anchor.
    pub steals: usize,
}

/// The multi-tenant batch executor. See the module docs for the
/// scheduling, pooling, and tier-selection contracts.
#[derive(Debug)]
pub struct ServeExecutor {
    executor: ReferenceExecutor,
    workers: usize,
    tier: Tier,
    jobs: AtomicUsize,
    /// The rung unpinned jobs resolved to, per `(program fingerprint,
    /// stepped?)`, with the program name.
    choices: Mutex<BTreeMap<(u64, bool), (Tier, String)>>,
}

/// Tier choices kept before the record is reset (a safety valve, like the
/// compiled-program cache's).
const TIER_CHOICES_CAPACITY: usize = 1024;

/// The rung unpinned jobs of one program resolved to (reporting snapshot).
#[derive(Debug, Clone)]
pub struct TierChoice {
    /// Hex program fingerprint.
    pub fingerprint: String,
    /// Program name recorded with the choice.
    pub program: String,
    /// Whether the choice covers stepped jobs.
    pub stepped: bool,
    /// The rung.
    pub tier: Tier,
}

impl ServeExecutor {
    /// Create a service executor. The internal [`ReferenceExecutor`] is
    /// pinned to one thread per sweep (parallelism comes from the worker
    /// pool, never from nested thread scopes) with pooled results.
    pub fn new(config: ServeConfig) -> ServeExecutor {
        ServeExecutor {
            executor: ReferenceExecutor::new()
                .with_max_threads(1)
                .with_pool_capacity(POOL_CAPACITY)
                .with_pooled_results(true),
            workers: config.workers.max(1),
            tier: config.tier,
            jobs: AtomicUsize::new(0),
            choices: Mutex::new(BTreeMap::new()),
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
            tier_measurements: 0,
            steals: 0,
        }
    }

    /// The rung unpinned jobs resolved to, one entry per program and
    /// stepped-ness seen.
    pub fn tier_choices(&self) -> Vec<TierChoice> {
        let choices = self.choices.lock().expect("tier choices poisoned");
        choices
            .iter()
            .map(|(&(fp, stepped), (tier, program))| TierChoice {
                fingerprint: format!("{fp:016x}"),
                program: program.clone(),
                stepped,
                tier: *tier,
            })
            .collect()
    }

    /// Return a finished result's grids and masks to the shared pools.
    /// Sustained traffic must recycle results (or keep them — recycling is
    /// what makes the steady state allocation-free).
    pub fn recycle(&self, result: ExecutionResult) {
        self.executor.recycle(result);
    }

    /// Warm the service for the kinds of job in `jobs`, deterministically.
    ///
    /// The jobs run once each, one at a time, and are recycled, so every
    /// fingerprint is compiled and has its tier decided with nothing else
    /// running — a job on the JIT rung waits for its module here, so it
    /// runs native — and what the pools hold afterwards is a function of the
    /// jobs, not of how worker threads happened to interleave or when `cc`
    /// finished. The pools
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
            let (result, _) = isolated(|| self.execute_job(&job, TierUp::Wait))?;
            self.jobs.fetch_add(1, Ordering::Relaxed);
            self.recycle(result?);
        }
        self.executor.reserve_pools(self.workers);
        Ok(())
    }

    /// Run one job to completion (a single-job batch, which runs on the
    /// calling thread).
    pub fn run_one(&self, job: JobSpec) -> JobOutcome {
        self.run_batch(vec![job])
            .pop()
            .expect("a one-job batch yields one outcome")
    }

    /// Drain a batch of jobs across the worker pool and return one
    /// [`JobOutcome`] per job, in submission order. Jobs are dequeued
    /// FIFO, each by the worker that then runs it to its outcome.
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
    /// of the batch is still running. The sink runs on the workers — the
    /// calling thread and `min(workers, jobs) - 1` spawned ones — and may
    /// be called concurrently.
    pub fn run_batch_with<F: Fn(JobOutcome) + Sync>(&self, jobs: Vec<JobSpec>, sink: F) {
        if jobs.is_empty() {
            return;
        }
        let started = Instant::now();
        let count = jobs.len();
        // The queue is seeded once, so a worker that finds it empty has
        // nothing left it could ever do: it returns, and the scope is the
        // barrier.
        let queue = Mutex::new(jobs.into_iter().enumerate());
        let next = || queue.lock().expect("job queue poisoned").next();
        let worker = || {
            while let Some((ix, job)) = next() {
                // Outer isolation net: the boundary inside `run_tier`
                // covers execution; this catch guarantees that even a
                // panic in the scheduler glue around it downgrades to a
                // per-job outcome instead of aborting the batch.
                let (result, tier) = isolated(|| self.execute_job(&job, TierUp::Background))
                    .unwrap_or_else(|err| (Err(err), Tier::Fused));
                sink(JobOutcome {
                    job: ix,
                    tier,
                    latency: started.elapsed(),
                    result,
                });
            }
        };
        // The calling thread is worker 0, so a one-job batch (`run_one`)
        // spawns no thread at all.
        std::thread::scope(|scope| {
            let handles: Vec<_> = (1..self.workers.min(count))
                .map(|_| scope.spawn(worker))
                .collect();
            worker();
            // Job panics are isolated per job inside the workers, so the
            // only panic that can reach a join (or leave `worker()` above,
            // after which the scope still joins every spawned worker) is
            // one thrown by the caller's own sink — that is the caller's
            // bug, and it propagates after the other workers have drained
            // the queue.
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

    /// One job, start to finish. `Err` is a job rejected before it reached
    /// a tier (reported as [`Tier::Fused`], like a panic in the glue).
    fn execute_job(
        &self,
        job: &JobSpec,
        tier_up: TierUp,
    ) -> std::result::Result<(JobResult, Tier), JobError> {
        if job.is_cancelled() {
            return Err(JobError::Cancelled);
        }
        let compiled = self.executor.prepare(&job.program)?;
        ReferenceExecutor::check_inputs(compiled.program(), &job.inputs)?;
        if job.steps == 0 {
            return Err(JobError::Program(ProgramError::Invalid {
                message: "serve jobs require at least one time step".into(),
            }));
        }
        // One step is a single application (no feedback pairing is
        // validated), more is a stepped run.
        let steps = (job.steps > 1).then_some(job.steps);
        let tier = job.tier.unwrap_or(self.tier);
        let rung = compiled.tier_trace().rung(tier);
        if job.tier.is_none() {
            let mut choices = self.choices.lock().expect("tier choices poisoned");
            if choices.len() >= TIER_CHOICES_CAPACITY {
                choices.clear();
            }
            let key = (compiled.fingerprint(), steps.is_some());
            choices
                .entry(key)
                .or_insert_with(|| (rung, compiled.program().name().to_string()));
        }
        // A failed run reports the rung it was to run on.
        Ok(match self.run_tier(&compiled, job, steps, tier, tier_up) {
            Ok((result, ran)) => (Ok(result), ran),
            Err(error) => (Err(error), rung),
        })
    }

    /// One job on one tier, through the executor's own runner for it,
    /// inside one `catch_unwind` boundary. The injected fault fires before
    /// the runner draws any buffer, so a poison job provably leaves the
    /// pools as it found them; a real panic inside a runner can strand the
    /// buffers that run held, so for those the guarantee is "the batch
    /// survives, the job reports `Panicked`", on every tier alike.
    fn run_tier(
        &self,
        compiled: &CompiledProgram,
        job: &JobSpec,
        steps: Option<usize>,
        tier: Tier,
        tier_up: TierUp,
    ) -> std::result::Result<(ExecutionResult, Tier), JobError> {
        isolated(|| {
            match job.fault {
                Some(JobFault::Poison) => panic!("injected poison-job fault"),
                Some(JobFault::Stall(delay)) => std::thread::sleep(delay),
                None => {}
            }
            // Asked again before every fused window.
            let probe = || {
                if job.is_cancelled() {
                    return Err(JobError::Cancelled);
                }
                Ok(())
            };
            probe()?;
            self.executor
                .run_tier(compiled, &job.inputs, steps, tier, tier_up, &probe)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input_data::generate_inputs;
    use stencilflow_expr::DataType;
    use stencilflow_program::StencilProgramBuilder;
    use stencilflow_workloads::{horizontal_diffusion, HorizontalDiffusionSpec};

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

    /// Wait until `program`'s native module is loaded, if the JIT rung
    /// takes the program on this machine: the jobs after it run native.
    fn land(serve: &ServeExecutor, program: &StencilProgram) {
        let compiled = serve.executor.prepare(program).unwrap();
        if let (Ok(unit), Ok(_)) = (compiled.tier_trace().jit(), crate::jit_available()) {
            crate::jit::stage_fns(compiled.program().name(), unit, TierUp::Wait).unwrap();
        }
    }

    /// `outcome` ran on `tier` and matches the interpreter bit for bit.
    fn assert_ran(serve: &ServeExecutor, outcome: JobOutcome, tier: Tier, job: &JobSpec) {
        assert_eq!(outcome.tier, tier);
        let want = ReferenceExecutor::new()
            .run_interpreted(&job.program, &job.inputs)
            .unwrap();
        let result = outcome.result.unwrap();
        for output in job.program.outputs() {
            let got = result.field(output).unwrap().as_slice();
            let want = want.field(output).unwrap().as_slice();
            assert!(got
                .iter()
                .zip(want)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
        serve.recycle(result);
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
    fn stepped_fused_jobs_match_run_steps_bitwise() {
        let program = jacobi_like(&[12, 12]);
        let serve = ServeExecutor::new(ServeConfig::new().with_workers(2).with_tier(Tier::Fused));
        let reference = ReferenceExecutor::new();
        let job = job_for(&program, 7).with_steps(4);
        let expected = reference.run_steps(&program, &job.inputs, 4).unwrap();
        let outcome = serve.run_one(job);
        assert_eq!(outcome.tier, Tier::Fused);
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
    fn pooled_run_steps_matches_unpooled_bitwise_and_returns_every_buffer() {
        // Two coupled fields, an intermediate, and a lower-dimensional
        // input that stays fixed while the fields are fed back.
        let program = StencilProgramBuilder::new("coupled", &[6, 9])
            .input("a", DataType::Float32, &["i", "j"])
            .input("b", DataType::Float64, &["i", "j"])
            .input("force", DataType::Float32, &["j"])
            .stencil("mix", "0.5 * (a[i,j-1] + b[i+1,j])")
            .stencil("a_next", "mix[i,j] + force[j]")
            .shrink("a_next")
            .stencil("b_next", "b[i,j] - 0.25 * mix[i-1,j]")
            .output_type("b_next", DataType::Float64)
            .output("a_next")
            .output("b_next")
            .build()
            .unwrap();
        let inputs = generate_inputs(&program, 13);
        let plain = ReferenceExecutor::new();
        let pooled = ReferenceExecutor::new().with_pooled_results(true);
        let bits =
            |grid: &Grid| -> Vec<u64> { grid.as_slice().iter().map(|v| v.to_bits()).collect() };
        for steps in [1, 2, 5] {
            let want = plain.run_steps(&program, &inputs, steps).unwrap();
            let got = pooled.run_steps(&program, &inputs, steps).unwrap();
            assert_eq!(got.cells_evaluated(), want.cells_evaluated());
            for (name, grid) in want.fields() {
                assert_eq!(bits(got.field(name).unwrap()), bits(grid), "{name}");
                assert_eq!(got.valid_mask(name), want.valid_mask(name), "{name}");
            }
            assert_eq!(got.fields().count(), want.fields().count());
            pooled.recycle(got);
        }
        // Every buffer those runs drew came back: the largest of them
        // again allocates nothing.
        let misses = (pooled.pool_miss_count(), pooled.mask_pool_miss_count());
        let acquires = [plain.pool_acquire_count(), pooled.pool_acquire_count()];
        pooled.run_steps(&program, &inputs, 5).unwrap();
        plain.run_steps(&program, &inputs, 5).unwrap();
        assert_eq!(
            (pooled.pool_miss_count(), pooled.mask_pool_miss_count()),
            misses
        );
        // Both draw their scratch from the pool; only the pooled one its
        // two output grids too.
        let drawn = [plain.pool_acquire_count(), pooled.pool_acquire_count()];
        assert_eq!(
            drawn[1] - acquires[1],
            drawn[0] - acquires[0] + 2,
            "unpooled results stay out of the pools"
        );
        assert_eq!(plain.mask_pool_acquire_count(), 0);
    }

    #[test]
    fn steady_state_batches_hit_the_pools() {
        let program = jacobi_like(&[16, 16]);
        let serve = ServeExecutor::new(ServeConfig::new().with_workers(2));
        let jobs = || -> Vec<JobSpec> { (0..8).map(|seed| job_for(&program, seed)).collect() };
        // Warmup: compile, native module, and pools provisioned for two
        // jobs in flight, whatever the workers' interleaving in the steady
        // window turns out to be. This window collects each batch before it
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
        let serve = ServeExecutor::new(ServeConfig::new().with_workers(1).with_tier(Tier::Fused));
        // The service ceiling is fused, a per-job pin beats it, and an
        // outcome reports the rung that ran: hdiff streams natively, and so
        // does a transposed input, copied into space order.
        let hdiff = Arc::new(horizontal_diffusion(&HorizontalDiffusionSpec::bench()));
        let transposed = StencilProgramBuilder::new("transposed", &[6, 8])
            .input("a", DataType::Float32, &["j", "i"])
            .stencil("s", "a[j,i-1] + a[j,i+1]")
            .output("s")
            .build()
            .unwrap();
        let transposed = Arc::new(transposed);
        land(&serve, &program);
        land(&serve, &hdiff);
        land(&serve, &transposed);
        let jit = crate::jit_available().map_or(Tier::Fused, |_| Tier::Jit);
        for (job, want) in [
            (job_for(&program, 1), Tier::Fused),
            (job_for(&program, 2).with_tier(Tier::Fused), Tier::Fused),
            (job_for(&program, 3).with_tier(Tier::Jit), jit),
            (job_for(&hdiff, 4).with_tier(Tier::Jit), jit),
            (job_for(&hdiff, 4).with_tier(Tier::Fused), Tier::Fused),
            (job_for(&transposed, 5).with_tier(Tier::Jit), jit),
        ] {
            let outcome = serve.run_one(job);
            assert_eq!(outcome.tier, want);
            serve.recycle(outcome.result.unwrap());
        }
    }

    #[test]
    fn tier_choices_record_the_rung_unpinned_jobs_resolve_to() {
        // The JIT rung takes the float program; the int output keeps the
        // other one on the fused rung. Stepped traffic is its own entry,
        // and a pinned job records nothing.
        let float = jacobi_like(&[16, 16]);
        let int = StencilProgramBuilder::new("serve_int", &[16, 16])
            .input("u", DataType::Float32, &["i", "j"])
            .stencil("v", "u[i-1,j] + u[i+1,j]")
            .output_type("v", DataType::Int32)
            .output("v")
            .build()
            .unwrap();
        let int = Arc::new(int);
        let serve = ServeExecutor::new(ServeConfig::new().with_workers(1));
        let jobs = [
            job_for(&float, 0),
            job_for(&float, 1),
            job_for(&float, 2).with_steps(3),
            job_for(&int, 3),
            job_for(&int, 4).with_tier(Tier::Fused),
        ];
        for job in jobs {
            let outcome = serve.run_one(job);
            serve.recycle(outcome.result.unwrap());
        }
        let jit = crate::jit_available().map_or(Tier::Fused, |_| Tier::Jit);
        let mut choices: Vec<_> = serve
            .tier_choices()
            .into_iter()
            .map(|c| (c.program, c.stepped, c.tier))
            .collect();
        choices.sort();
        let want = [
            ("serve_int".to_string(), false, Tier::Fused),
            ("serve_jacobi".to_string(), false, jit),
            ("serve_jacobi".to_string(), true, jit),
        ];
        assert_eq!(choices, want);
        assert_eq!(serve.stats().tier_measurements, 0);
    }

    #[test]
    fn a_service_job_runs_fused_until_its_module_lands() {
        if crate::jit_available().is_err() {
            return;
        }
        // Literals no other program here emits: no other test loads this
        // unit, so its first job finds it queued.
        let program = StencilProgramBuilder::new("flip", &[12, 10])
            .input("u", DataType::Float32, &["i", "j"])
            .stencil("v", "0.3125 * u[i-1,j] + u[i,j+1] * 0.6875 - 0.0078125")
            .output("v")
            .build()
            .unwrap();
        let program = Arc::new(program);
        let serve = ServeExecutor::new(ServeConfig::new().with_workers(1));
        let job = job_for(&program, 3);
        assert_ran(&serve, serve.run_one(job.clone()), Tier::Fused, &job);
        assert_eq!(serve.tier_choices()[0].tier, Tier::Jit);
        land(&serve, &program);
        assert_ran(&serve, serve.run_one(job.clone()), Tier::Jit, &job);
        // A pin is a ceiling.
        for tier in [Tier::Fused, Tier::Jit] {
            let outcome = serve.run_one(job.clone().with_tier(tier));
            assert_ran(&serve, outcome, tier, &job);
        }
    }

    #[test]
    fn dropping_the_service_does_not_wait_for_a_compile() {
        // A literal from the clock: no cache entry holds this unit, so
        // the compiler is still running when the service goes.
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .subsec_nanos();
        let program = StencilProgramBuilder::new("dropped", &[8, 8])
            .input("u", DataType::Float32, &["i", "j"])
            .stencil("v", &format!("u[i-1,j] * {nanos}.5"))
            .output("v")
            .build()
            .unwrap();
        let serve = ServeExecutor::new(ServeConfig::new().with_workers(1));
        let outcome = serve.run_one(job_for(&Arc::new(program), 1));
        assert_ne!(outcome.tier, Tier::Jit);
        serve.recycle(outcome.result.unwrap());
        let started = Instant::now();
        drop(serve);
        assert!(started.elapsed() < Duration::from_millis(100));
    }

    #[test]
    fn large_jobs_stay_bitwise_identical_and_draw_no_band_buffers() {
        // Two stencils, one output. 512x256 is far above the executor's
        // parallel threshold; the service still runs the job on the worker
        // that popped it, through the executor's own sweep, whatever the
        // pool size and the entry point.
        let two_stage = |shape: &[usize]| {
            let builder = StencilProgramBuilder::new("serve_two_stage", shape)
                .input("u", DataType::Float32, &["i", "j"])
                .stencil(
                    "lap",
                    "u[i-1,j] + u[i+1,j] + u[i,j-1] + u[i,j+1] - 4.0 * u[i,j]",
                )
                .stencil("u_next", "u[i,j] + 0.1 * lap[i,j]")
                .output("u_next");
            Arc::new(builder.build().unwrap())
        };
        let (large, small) = (two_stage(&[512, 256]), two_stage(&[8, 8]));
        let batch = || -> Vec<JobSpec> {
            let programs = [&small, &large, &small, &small];
            (0u64..).zip(programs).map(|(s, p)| job_for(p, s)).collect()
        };
        let expected: Vec<_> = batch()
            .iter()
            .map(|job| ReferenceExecutor::new().run(&job.program, &job.inputs))
            .collect();
        for (workers, one_by_one) in [(2, false), (4, false), (2, true)] {
            let config = ServeConfig::new().with_workers(workers);
            let serve = ServeExecutor::new(config.with_tier(Tier::Fused));
            // Provisioned for `workers` jobs in flight plus the batch's
            // results, which `run_batch` holds until it returns.
            serve.warm(batch()).unwrap();
            serve.executor.reserve_pools(batch().len());
            let warm = serve.stats();
            let outcomes = if one_by_one {
                batch().into_iter().map(|j| serve.run_one(j)).collect()
            } else {
                serve.run_batch(batch())
            };
            for (outcome, expected) in outcomes.into_iter().zip(&expected) {
                let (result, expected) = (outcome.result.unwrap(), expected.as_ref().unwrap());
                let got = result.field("u_next").unwrap().as_slice();
                let want = expected.field("u_next").unwrap().as_slice();
                assert!(got
                    .iter()
                    .zip(want)
                    .all(|(a, b)| a.to_bits() == b.to_bits()));
                assert_eq!(result.valid_mask("u_next"), expected.valid_mask("u_next"));
                // Outputs only, masks included.
                assert!(result.field("lap").is_none() && result.valid_mask("lap").is_none());
                serve.recycle(result);
            }
            let steady = serve.stats();
            assert_eq!(
                (steady.pool_misses, steady.mask_misses),
                (warm.pool_misses, warm.mask_misses)
            );
            // Per job one result, one ring arena and one mask: no band,
            // stitch or state-copy buffers.
            assert_eq!(steady.pool_acquires - warm.pool_acquires, 2 * batch().len());
            assert_eq!(steady.mask_acquires - warm.mask_acquires, batch().len());
        }
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

    #[test]
    fn a_job_with_invalid_inputs_fails_before_its_rung_is_chosen() {
        // The inputs are checked once, before the job records a tier
        // choice: the job reports the fused rung and leaves no choice.
        let program = jacobi_like(&[8, 8]);
        let serve = ServeExecutor::new(ServeConfig::new().with_workers(1));
        let mut inputs = generate_inputs(&program, 1);
        inputs.insert(
            "u".into(),
            Grid::zeros(&["i", "j"], &[8, 4], DataType::Float32),
        );
        let outcome = serve.run_one(JobSpec::new(Arc::clone(&program), Arc::new(inputs)));
        let error = outcome.result.unwrap_err().to_string();
        assert_eq!(
            error,
            "invalid program: input `u` has shape [8, 4], expected [8, 8]"
        );
        assert_eq!(outcome.tier, Tier::Fused);
        assert!(serve.tier_choices().is_empty());
    }

    #[test]
    fn recycled_result_buffers_never_leak_a_stale_cell() {
        // Pooled result cells are handed out as their last user left them,
        // and in unit tests every released cell buffer is filled with a
        // NaN sentinel (`POISON_BITS`): a cell some tier failed to store
        // would read as that NaN in the round that runs in recycled
        // buffers. The golden workloads (at `jit_gate`'s shapes), and
        // several windows of pooled state on the steppable ones.
        use stencilflow_workloads::{
            chain_program, diffusion2d, diffusion3d, jacobi2d, jacobi3d, jacobi3d_typed,
            listing1::listing1_with_shape, membench_program, upwind3d, ChainSpec, MembenchSpec,
        };
        let programs = [
            (listing1_with_shape(&[8, 8, 8]), 1),
            (jacobi2d(1, &[32, 31], 1), 6),
            (jacobi3d(1, &[16, 16, 8], 1), 6),
            (jacobi3d_typed(1, &[16, 16, 9], 1, DataType::Float64), 6),
            (diffusion2d(1, &[32, 29], 1), 6),
            (diffusion3d(1, &[16, 16, 8], 1), 1),
            (
                chain_program(&ChainSpec::new(8, 8).with_shape(&[32, 16, 16])),
                1,
            ),
            (
                membench_program(&MembenchSpec::new(8, 1).with_shape(&[16, 8, 8])),
                1,
            ),
            (horizontal_diffusion(&HorizontalDiffusionSpec::small()), 1),
            (upwind3d(2, &[8, 8, 8], 1), 1),
        ];
        let serve = ServeExecutor::new(ServeConfig::new().with_workers(1));
        let reference = ReferenceExecutor::new();
        for (program, steps) in programs {
            let program = Arc::new(program);
            land(&serve, &program);
            let inputs = Arc::new(generate_inputs(&program, 5));
            let expected = match steps {
                1 => reference.run_interpreted(&program, &inputs),
                steps => reference.run_steps(&program, &inputs, steps),
            }
            .unwrap();
            for tier in [Tier::Fused, Tier::Jit] {
                for round in 0..2 {
                    let job = JobSpec::new(Arc::clone(&program), Arc::clone(&inputs))
                        .with_steps(steps)
                        .with_tier(tier);
                    let result = serve.run_one(job).result.unwrap();
                    for output in program.outputs() {
                        let label = format!("{} {tier} round {round}", program.name());
                        let got = result.field(output).unwrap().as_slice();
                        let want = expected.field(output).unwrap().as_slice();
                        let same = got
                            .iter()
                            .zip(want)
                            .all(|(a, b)| a.to_bits() == b.to_bits());
                        assert!(same, "{label}: `{output}` differs");
                        let mask = result.valid_mask(output);
                        assert_eq!(mask, expected.valid_mask(output), "{label}");
                    }
                    serve.recycle(result);
                }
            }
        }
        // The rounds did run in recycled buffers.
        let stats = serve.stats();
        assert!(stats.pool_acquires > 2 * stats.pool_misses);
    }
}
