//! The adapter: the only module that calls the system under test.
//!
//! Everything the benchmark drives goes through the thin wrappers below, so
//! a change to the repository's public surface (ROADMAP item 4 intends to
//! delete most `run_*` entry points) is absorbed in this one file. The
//! wrappers add no policy: workloads decide what runs, this module only
//! knows how to call it. The service surface (`ServeExecutor`, `Daemon`,
//! `stencilflow::daemon::run_loop`, `Pipeline`, `ReferenceExecutor::
//! {prepare, run_interpreted}`) is preferred; the two `run_*` entry points
//! used (`run` for validation, `run_sharded`/`run_steps_sharded`) have no
//! service-surface equivalent.

use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use stencilflow::core::{AnalysisConfig, HardwareMapping, MultiDevicePlan, PartitionConfig};
use stencilflow::expr::{
    CompiledKernel, DataType, EvalScratch, LaneScratch, TypedScratch, Value, KERNEL_LANES,
};
use stencilflow::program::StencilProgram;
use stencilflow::reference::{
    Daemon, DaemonConfig, DaemonRequest, ExecutionResult, Grid, JobOutcome, JobSpec, JobStatus,
    ReferenceExecutor, ServeConfig, ServeExecutor, ShardConfig, Tier,
};
use stencilflow::sim::{SimConfig, SimReport, Simulator};
use stencilflow::workloads as wl;
use stencilflow_json::Json;

use crate::stats::Fnv;

pub type Program = Arc<StencilProgram>;
pub type Inputs = Arc<BTreeMap<String, Grid>>;
pub type Outputs = ExecutionResult;

pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

// ---------------------------------------------------------------- programs

pub fn jacobi_steps_program(shape: [usize; 3]) -> Program {
    Arc::new(wl::jacobi3d_typed(1, &shape, 1, DataType::Float64))
}

pub fn hdiff_bench_program() -> Program {
    Arc::new(wl::horizontal_diffusion(
        &wl::HorizontalDiffusionSpec::bench(),
    ))
}

/// One job of a `JobMixSpec` stream. `kind` numbers the distinct
/// (program, tenant seed) pairs, which is what decides a job's output.
pub struct MixJob {
    pub program: Program,
    pub template: usize,
    pub input_seed: u64,
    pub steps: usize,
    pub small: bool,
}

pub fn job_mix(jobs: usize, large_jobs: usize, tenants: u64, seed: u64) -> Vec<MixJob> {
    let spec = wl::JobMixSpec {
        jobs,
        large_jobs,
        tenants,
        seed,
    };
    let mut templates: Vec<*const StencilProgram> = Vec::new();
    spec.generate()
        .into_iter()
        .map(|job| {
            // Templates are `Arc`-shared across the mix; the pointer is
            // their identity (names repeat across shapes).
            let ptr = Arc::as_ptr(&job.program);
            let template = templates.iter().position(|&p| p == ptr).unwrap_or_else(|| {
                templates.push(ptr);
                templates.len() - 1
            });
            MixJob {
                program: job.program,
                template,
                input_seed: job.input_seed,
                steps: job.steps,
                small: job.class == wl::JobClass::Small,
            }
        })
        .collect()
}

/// Number of program strata one `cold-compile` pass walks.
pub const COLD_STRATA: usize = 7;

/// Program description text of one `cold-compile` stratum. The stratum
/// fixes family, depth and operation count; `jitter` moves the outermost
/// extent by 0..3 and `name` makes the fingerprint unique, so every call
/// with a fresh name is a program the executor has never seen while a
/// whole pass costs the same for every seed.
pub fn cold_program_json(stratum: usize, jitter: u64, name: &str) -> String {
    let j = (jitter % 4) as usize;
    let chain = |depth, ops| {
        wl::chain_program(&wl::ChainSpec::new(depth, ops).with_shape(&[16 + j, 8, 16]))
    };
    let program = match stratum % COLD_STRATA {
        0 => chain(4, 6),
        1 => chain(12, 16),
        2 => chain(24, 6),
        3 => wl::jacobi3d_typed(3, &[12 + j, 12, 16], 1, DataType::Float64),
        4 => wl::diffusion3d(2, &[12 + j, 12, 16], 1),
        5 => wl::upwind3d_typed(2, &[12 + j, 12, 16], 1, DataType::Float32),
        _ => wl::horizontal_diffusion(&wl::HorizontalDiffusionSpec {
            shape: [10 + j, 10, 16],
            vectorization: 1,
        }),
    };
    rename(&stencilflow::program::to_json(&program), name)
}

fn rename(program_json: &str, name: &str) -> String {
    let Ok(Json::Object(mut members)) = stencilflow_json::parse(program_json) else {
        panic!("to_json emits a JSON object");
    };
    members.retain(|(key, _)| key != "name");
    members.push(("name".to_string(), Json::String(name.to_string())));
    Json::Object(members).to_string_compact()
}

/// The three large DAGs of `map-large`, as description text.
pub fn map_large_set() -> Vec<(&'static str, String)> {
    let to_json = stencilflow::program::to_json;
    vec![
        (
            "chain1024",
            to_json(&wl::chain_program(&wl::ChainSpec::new(1024, 8))),
        ),
        (
            "chain256",
            to_json(&wl::chain_program(&wl::ChainSpec::new(256, 8))),
        ),
        (
            "hdiff-production",
            to_json(&wl::horizontal_diffusion(
                &wl::HorizontalDiffusionSpec::production(1),
            )),
        ),
    ]
}

/// The small programs of `sim-pipeline`, as description text. Seven, not
/// six: an odd count keeps the median job inside one program's cluster of
/// samples instead of on the gap between two.
pub fn sim_set() -> Vec<(&'static str, String)> {
    let to_json = stencilflow::program::to_json;
    vec![
        (
            "hdiff16",
            to_json(&wl::horizontal_diffusion(&wl::HorizontalDiffusionSpec {
                shape: [16, 16, 16],
                vectorization: 1,
            })),
        ),
        (
            "chain32",
            to_json(&wl::chain_program(
                &wl::ChainSpec::new(32, 8).with_shape(&[64, 16, 16]),
            )),
        ),
        ("listing1", to_json(&wl::listing1())),
        (
            "diffusion3d",
            to_json(&wl::diffusion3d(1, &[16, 16, 16], 1)),
        ),
        ("jacobi3d-x2", to_json(&wl::jacobi3d(2, &[16, 16, 16], 1))),
        ("upwind3d", to_json(&wl::upwind3d(1, &[16, 16, 16], 1))),
        ("diffusion2d-x2", to_json(&wl::diffusion2d(2, &[32, 32], 1))),
    ]
}

pub fn program_from_json(text: &str) -> Result<Program, String> {
    stencilflow::from_json(text)
        .map(Arc::new)
        .map_err(|e| e.to_string())
}

pub fn program_to_json(program: &Program) -> String {
    stencilflow::program::to_json(program)
}

pub fn gen_inputs(program: &Program, seed: u64) -> Inputs {
    Arc::new(stencilflow::reference::generate_inputs(program, seed))
}

/// Cell updates of one application of the program: space cells × stencils.
pub fn cell_updates(program: &Program) -> u64 {
    (program.space().num_cells() * program.stencil_count()) as u64
}

pub fn stencil_count(program: &Program) -> usize {
    program.stencil_count()
}

// ------------------------------------------------------------------ oracle

/// The tree-walking interpreter, time-stepped by hand with the feedback
/// rule of the service's stepped jobs (the single output feeds the single
/// full-rank input). The semantic reference of every executor oracle.
pub fn interpret(program: &Program, inputs: &Inputs, steps: usize) -> Result<Outputs, String> {
    let executor = ReferenceExecutor::new();
    let mut work: BTreeMap<String, Grid> = (**inputs).clone();
    for step in 1..=steps {
        let result = executor
            .run_interpreted(program, &work)
            .map_err(|e| e.to_string())?;
        if step == steps {
            return Ok(result);
        }
        let space = program.space();
        let mut full_rank = program
            .inputs()
            .filter(|(_, decl)| decl.dims == space.dims)
            .map(|(name, _)| name.to_string());
        let (Some(input), None, [output]) = (full_rank.next(), full_rank.next(), program.outputs())
        else {
            return Err("stepped oracle needs one output and one full-rank input".into());
        };
        let grid = result
            .field(output)
            .ok_or("interpreter dropped an output")?;
        work.insert(input, grid.clone());
    }
    Err("zero steps".into())
}

/// Checksum of the program's outputs: name, shape, every value's bit
/// pattern and (with `masks`) every validity flag. Equal checksums stand
/// for bit-identical outputs.
pub fn checksum(program: &Program, outputs: &Outputs, masks: bool) -> u64 {
    let mut fnv = Fnv::new();
    for name in program.outputs() {
        let Some(grid) = outputs.field(name) else {
            fnv.word(u64::MAX);
            continue;
        };
        hash_grid(&mut fnv, name, grid);
        if masks {
            fnv.bools(outputs.valid_mask(name).unwrap_or(&[]));
        }
    }
    fnv.0
}

/// [`checksum`] (values only) of a decoded grid set, as the daemon writes
/// job outputs to disk.
pub fn checksum_grid_set(program: &Program, grids: &BTreeMap<String, Grid>) -> u64 {
    let mut fnv = Fnv::new();
    for name in program.outputs() {
        match grids.get(name) {
            Some(grid) => hash_grid(&mut fnv, name, grid),
            None => fnv.word(u64::MAX),
        }
    }
    fnv.0
}

fn hash_grid(fnv: &mut Fnv, name: &str, grid: &Grid) {
    fnv.bytes(name.as_bytes());
    for &extent in grid.shape() {
        fnv.word(extent as u64);
    }
    fnv.f64s(grid.as_slice());
}

// ------------------------------------------------------------------- serve

#[derive(Clone)]
pub struct Job(JobSpec);

pub fn job(program: &Program, inputs: &Inputs, steps: usize) -> Job {
    Job(JobSpec::new(Arc::clone(program), Arc::clone(inputs)).with_steps(steps))
}

/// A settled job: its outputs or its failure text.
pub struct Done {
    pub outputs: Result<Outputs, String>,
}

impl From<JobOutcome> for Done {
    fn from(outcome: JobOutcome) -> Done {
        Done {
            outputs: outcome.result.map_err(|e| e.to_string()),
        }
    }
}

/// The counters `ServeStats` exposes that a steady window must keep flat.
#[derive(Clone, Copy, Default)]
pub struct ServeCounters {
    pub compiles: usize,
    pub pool_misses: usize,
    pub mask_misses: usize,
    pub tier_measurements: usize,
    pub steals: usize,
}

pub struct Serve(ServeExecutor);

/// The tiers a job can be pinned to, slowest first.
pub const TIERS: [&str; 3] = ["simd", "fused", "jit"];

impl Serve {
    /// A service executor under `TierPolicy::Auto` (the default policy).
    pub fn new(workers: usize) -> Serve {
        Serve(ServeExecutor::new(ServeConfig::new().with_workers(workers)))
    }

    /// `tier` pins the job (`simd`, `fused`, `jit`); `None` lets auto pick.
    pub fn run_one(&self, job: &Job, tier: Option<&str>) -> Done {
        let mut spec = job.0.clone();
        if let Some(name) = tier {
            spec = spec.with_tier(name.parse::<Tier>().expect("a tier name of the service"));
        }
        self.0.run_one(spec).into()
    }

    /// One batch; `sink(job index, outcome)` runs on the worker threads.
    pub fn run_batch(&self, jobs: Vec<Job>, sink: impl Fn(usize, Done) + Sync) {
        let specs = jobs.into_iter().map(|job| job.0).collect();
        self.0
            .run_batch_with(specs, |outcome| sink(outcome.job, outcome.into()));
    }

    pub fn recycle(&self, outputs: Outputs) {
        self.0.recycle(outputs);
    }

    /// The cached auto decisions, as `program=tier` (`program*` when the
    /// decision covers stepped jobs).
    pub fn tier_choices(&self) -> Vec<String> {
        self.0
            .tier_choices()
            .into_iter()
            .map(|c| {
                format!(
                    "{}{}={}",
                    c.program,
                    if c.stepped { "*" } else { "" },
                    c.tier
                )
            })
            .collect()
    }

    pub fn counters(&self) -> ServeCounters {
        let stats = self.0.stats();
        ServeCounters {
            compiles: stats.compiles,
            pool_misses: stats.pool_misses,
            mask_misses: stats.mask_misses,
            tier_measurements: stats.tier_measurements,
            steals: stats.steals,
        }
    }
}

// ---------------------------------------------------------------- executor

/// What `ReferenceExecutor::prepare` reports about a compiled program.
pub struct Prepared {
    pub stencils: usize,
    pub typed_stencils: usize,
    pub jit_source: Option<String>,
}

pub struct Executor(ReferenceExecutor);

impl Executor {
    pub fn new() -> Executor {
        Executor(ReferenceExecutor::new())
    }

    pub fn prepare(&self, program: &Program) -> Result<Prepared, String> {
        let compiled = self.0.prepare(program).map_err(|e| e.to_string())?;
        Ok(Prepared {
            stencils: compiled.stencil_count(),
            typed_stencils: compiled.typed_stencil_count(),
            jit_source: compiled.jit_source().map(str::to_string),
        })
    }

    /// The plain materialising run `Pipeline` validates against.
    pub fn run(&self, program: &Program, inputs: &Inputs) -> Result<Outputs, String> {
        self.0.run(program, inputs).map_err(|e| e.to_string())
    }
}

/// What one sharded run did.
pub struct Sharded {
    pub outputs: Outputs,
    pub halo_bytes: usize,
    pub retransmits: usize,
    pub degraded: bool,
}

pub fn run_sharded(
    program: &Program,
    inputs: &Inputs,
    steps: usize,
    shards: usize,
) -> Result<Sharded, String> {
    let executor = ReferenceExecutor::new();
    let config = ShardConfig::shards(shards);
    let outcome = if steps > 1 {
        executor.run_steps_sharded(program, inputs, steps, &config)
    } else {
        executor.run_sharded(program, inputs, &config)
    }
    .map_err(|e| e.to_string())?;
    Ok(Sharded {
        halo_bytes: outcome.report.halo_bytes_sent(),
        retransmits: outcome
            .report
            .per_shard
            .iter()
            .map(|s| s.frames_resent)
            .sum(),
        degraded: outcome.report.degraded,
        outputs: outcome.result,
    })
}

// ---------------------------------------------------------------- roofline

/// `expr::count_ops` flops of one cell update, summed over the stencils.
pub fn flops_per_cell(program: &Program) -> f64 {
    program.ops_per_cell().flops() as f64
}

/// Computed (not measured) bytes one cell update moves if every distinct
/// field a stencil reads is loaded once and its output stored once, summed
/// over the stencils: dtype widths, no cache model.
pub fn bytes_per_cell(program: &Program) -> f64 {
    program
        .stencils()
        .map(|stencil| {
            let reads: usize = stencil
                .read_fields()
                .iter()
                .filter_map(|field| program.field_type(field))
                .map(DataType::size_bytes)
                .sum();
            (reads + stencil.output_type.size_bytes()) as f64
        })
        .sum()
}

// -------------------------------------------------------------------- expr

/// Source text of every stencil, in declaration order.
pub fn stencil_sources(program: &Program) -> Vec<String> {
    program.stencils().map(|s| s.code.clone()).collect()
}

pub struct Ast(stencilflow::expr::Program);
pub struct Kernel(CompiledKernel);

pub fn expr_parse(code: &str) -> Result<Ast, String> {
    stencilflow::expr::parse_program(code)
        .map(Ast)
        .map_err(|e| e.to_string())
}

pub fn expr_compile(ast: &Ast) -> Result<Kernel, String> {
    CompiledKernel::compile(&ast.0)
        .map(Kernel)
        .map_err(|e| e.to_string())
}

/// Bytecode lengths before and after the optimiser passes.
pub fn expr_op_counts(ast: &Ast) -> Result<(usize, usize), String> {
    let raw = CompiledKernel::compile_unoptimized(&ast.0).map_err(|e| e.to_string())?;
    let optimized = CompiledKernel::compile(&ast.0).map_err(|e| e.to_string())?;
    Ok((raw.ops().len(), optimized.ops().len()))
}

fn slot_types(program: &Program, kernel: &CompiledKernel) -> Vec<DataType> {
    kernel
        .slots()
        .iter()
        .map(|slot| program.field_type(&slot.field).unwrap_or(DataType::Float32))
        .collect()
}

/// Whether the kernel type-specialises against the program's field types.
pub fn expr_specialize(program: &Program, kernel: &Kernel) -> bool {
    kernel
        .0
        .specialize(&slot_types(program, &kernel.0))
        .is_some()
}

/// Single-cell evaluators over the first stencil of each kind the program
/// has: `value` a kernel that cannot specialise (boxed `Value` path),
/// `typed` and `lanes` one that can. Each call evaluates one cell
/// (`lanes`: one batch of [`LANES`] cells) on fixed slot values.
pub struct CellEvaluators {
    pub value: Option<Box<dyn FnMut() -> f64>>,
    pub typed: Option<Box<dyn FnMut() -> f64>>,
    pub lanes: Option<Box<dyn FnMut() -> f64>>,
}

pub const LANES: usize = KERNEL_LANES;

pub fn cell_evaluators(program: &Program) -> CellEvaluators {
    let mut evaluators = CellEvaluators {
        value: None,
        typed: None,
        lanes: None,
    };
    for stencil in program.stencils() {
        let Ok(kernel) = CompiledKernel::compile(&stencil.program) else {
            continue;
        };
        let types = slot_types(program, &kernel);
        // Distinct, finite, non-trivial slot values.
        let raw: Vec<f64> = (0..types.len())
            .map(|ix| 0.25 + ix as f64 * 0.375)
            .collect();
        match kernel.specialize(&types) {
            None if evaluators.value.is_none() => {
                let slots: Vec<Value> = raw
                    .iter()
                    .zip(&types)
                    .map(|(&v, &dtype)| Value::from_f64(v, dtype))
                    .collect();
                let mut scratch = EvalScratch::default();
                evaluators.value = Some(Box::new(move || {
                    kernel
                        .eval_slots(std::hint::black_box(&slots), &mut scratch)
                        .map_or(f64::NAN, Value::as_f64)
                }));
            }
            Some(typed) if evaluators.typed.is_none() && typed.supports_lanes() => {
                let lane_kernel = typed.clone();
                let lane_slots: Vec<[f64; LANES]> = raw.iter().map(|&v| [v; LANES]).collect();
                let mut lane_scratch = LaneScratch::<LANES>::default();
                evaluators.lanes = Some(Box::new(move || {
                    lane_kernel.eval_lanes(std::hint::black_box(&lane_slots), &mut lane_scratch)[0]
                }));
                let mut scratch = TypedScratch::default();
                evaluators.typed = Some(Box::new(move || {
                    typed.eval_slots(std::hint::black_box(&raw), &mut scratch)
                }));
            }
            _ => {}
        }
    }
    evaluators
}

// --------------------------------------------------------------------- jit

/// `(cc invocations, cache hits, bytes on disk)` of the process-wide JIT
/// engine every executor tier shares; `None` when `cc` is unavailable.
pub fn jit_counters() -> Option<(u64, u64, u64)> {
    stencilflow::reference::jit_cache_stats()
        .map(|stats| (stats.cc_invocations, stats.hits, stats.cache_bytes))
}

/// A private JIT engine over its own cache directory, for timing
/// `JitEngine::load` cold (`cc` runs) and from a populated disk cache.
pub struct JitProbe(stencilflow_jit::JitEngine);

impl JitProbe {
    pub fn new(cache_dir: &Path) -> Result<JitProbe, String> {
        let config = stencilflow_jit::JitConfig {
            cache_dir: cache_dir.to_path_buf(),
            ..stencilflow_jit::JitConfig::from_env()
        };
        stencilflow_jit::JitEngine::new(config).map(JitProbe)
    }

    pub fn load(&self, fingerprint: &str, source: &str) -> Result<(), String> {
        self.0.load(fingerprint, source).map(drop)
    }

    pub fn cc_invocations(&self) -> u64 {
        self.0.stats().cc_invocations
    }
}

// ------------------------------------------------------------ json, ingest

pub fn json_parse(text: &str) -> Result<(), String> {
    stencilflow_json::parse(text)
        .map(drop)
        .map_err(|e| e.to_string())
}

pub fn sfgs_encode(grids: &Inputs) -> Result<Vec<u8>, String> {
    let mut entries = Vec::with_capacity(grids.len());
    for (name, grid) in grids.iter() {
        let frame = stencilflow::ingest::grid_to_frame(name, grid).map_err(|e| e.to_string())?;
        entries.push((name.clone(), frame));
    }
    stencilflow_json::encode_grid_set(&entries).map_err(|e| e.to_string())
}

pub fn sfgs_decode(bytes: &[u8]) -> Result<usize, String> {
    stencilflow_json::decode_grid_set(bytes)
        .map(|entries| entries.len())
        .map_err(|e| e.to_string())
}

pub fn load_program(path: &Path) -> Result<Program, String> {
    stencilflow::ingest::load_program(path).map_err(|e| e.to_string())
}

pub fn load_grid_set(path: &Path) -> Result<BTreeMap<String, Grid>, String> {
    stencilflow::ingest::load_grid_set(path).map_err(|e| e.to_string())
}

pub fn write_grid_set(path: &Path, grids: &Inputs) -> Result<(), String> {
    let named = grids
        .iter()
        .map(|(name, grid)| (name.clone(), grid.clone()));
    stencilflow::ingest::write_grid_set(path, named).map_err(|e| e.to_string())
}

pub fn parse_request(line: &str) -> Result<(), String> {
    stencilflow::daemon::parse_request(line).map(drop)
}

// ------------------------------------------------------------------ daemon

fn daemon_config(workers: usize, batch_size: usize) -> DaemonConfig {
    DaemonConfig::new()
        .with_serve(ServeConfig::new().with_workers(workers))
        .with_batch_size(batch_size)
}

/// What one `run_loop` session reported at exit.
pub struct WireSummary {
    pub unsettled: usize,
    pub rejected: usize,
    pub max_queue_depth: usize,
}

/// One in-process `stencilflow::daemon::run_loop` session over the given
/// reader and writer. Tier decisions persist at `tier_cache`, as they
/// would across restarts of a deployed daemon.
pub fn wire_session<R: BufRead, W: Write>(
    input: R,
    output: &mut W,
    workers: usize,
    batch_size: usize,
    tier_cache: PathBuf,
) -> std::io::Result<WireSummary> {
    let options = stencilflow::daemon::DaemonLoopOptions::new()
        .with_config(daemon_config(workers, batch_size))
        .with_tier_cache(tier_cache);
    let summary = stencilflow::daemon::run_loop(input, output, options)?;
    let stats = summary.stats;
    Ok(WireSummary {
        unsettled: stats.failed + stats.panicked + stats.cancelled,
        rejected: stats.rejected,
        max_queue_depth: stats.max_queue_depth,
    })
}

/// The daemon's scheduling core without the wire: programs and grids are
/// already in memory.
pub struct DaemonCore(Daemon);

impl DaemonCore {
    pub fn new(workers: usize, batch_size: usize) -> DaemonCore {
        DaemonCore(Daemon::new(daemon_config(workers, batch_size)))
    }

    /// `true` when admitted.
    pub fn submit(&self, id: &str, tenant: &str, job: &Job) -> bool {
        self.0
            .submit(DaemonRequest::new(id, tenant, job.0.clone()))
            .is_ok()
    }

    /// One dispatch round; `sink(wait in ms, done)` per settled job.
    /// Results are recycled here, as the wire layer does.
    pub fn dispatch(&self, sink: impl Fn(f64, bool) + Sync) -> usize {
        self.0.dispatch(|outcome| {
            let wait_ms = outcome.wait.as_secs_f64() * 1e3;
            match outcome.status {
                JobStatus::Done { result, .. } => {
                    self.0.serve().recycle(result);
                    sink(wait_ms, true);
                }
                _ => sink(wait_ms, false),
            }
        })
    }
}

// ----------------------------------------------------- analysis → mapping

pub struct Mapping(HardwareMapping);
pub struct Plan(MultiDevicePlan);

/// `true` when the analyzer reports no error-severity diagnostic.
pub fn analyze_program(program: &Program) -> bool {
    stencilflow::analysis::analyze_program(program).is_clean()
}

pub fn fuse_all(program: &Program) -> Result<Program, String> {
    stencilflow::dataflow::fuse_all(program)
        .map(Arc::new)
        .map_err(|e| e.to_string())
}

/// `core::analyze`; returns the total on-chip buffer elements.
pub fn core_analyze(program: &Program) -> Result<u64, String> {
    stencilflow::analyze(program, &AnalysisConfig::paper_defaults())
        .map(|analysis| analysis.total_buffer_elements())
        .map_err(|e| e.to_string())
}

pub fn build_mapping(program: &Program) -> Result<Mapping, String> {
    HardwareMapping::build(program, &AnalysisConfig::paper_defaults())
        .map(Mapping)
        .map_err(|e| e.to_string())
}

/// `codegen::generate_kernels`; returns the bytes of kernel code.
pub fn generate_kernels(program: &Program, mapping: &Mapping) -> usize {
    stencilflow::codegen::generate_kernels(program, &mapping.0).len()
}

/// Partition onto `devices` devices (or one per stencil if fewer).
pub fn partition(program: &Program, devices: usize) -> Result<Plan, String> {
    let devices = devices.min(program.stencil_count()).max(1);
    MultiDevicePlan::partition(program, &PartitionConfig::devices(devices))
        .map(Plan)
        .map_err(|e| e.to_string())
}

impl Plan {
    pub fn network_feasible(&self) -> bool {
        self.0.network_feasible()
    }

    /// Every stencil of `program` sits on exactly one device.
    pub fn covers_exactly_once(&self, program: &Program) -> bool {
        let mut placed: Vec<&str> = self
            .0
            .devices
            .iter()
            .flat_map(|device| device.stencils.iter().map(String::as_str))
            .collect();
        placed.sort_unstable();
        let mut expected: Vec<&str> = program.stencils().map(|s| s.name.as_str()).collect();
        expected.sort_unstable();
        placed == expected
    }
}

pub fn expected_cycles(program: &Program) -> Result<u64, String> {
    stencilflow::core::perf::expected_cycles(program, &AnalysisConfig::paper_defaults())
        .map_err(|e| e.to_string())
}

// --------------------------------------------------------------- simulator

/// What `Pipeline::execute_with_inputs` reported.
pub struct PipelineRun {
    pub fused: Program,
    pub completed: bool,
    pub max_error: f64,
    pub sim: SimRun,
}

pub fn pipeline_execute(text: &str, inputs: &Inputs) -> Result<PipelineRun, String> {
    let result = stencilflow::Pipeline::from_json(text)
        .and_then(|pipeline| pipeline.execute_with_inputs(inputs))
        .map_err(|e| e.to_string())?;
    Ok(PipelineRun {
        fused: Arc::new(result.program),
        completed: result.simulation.completed(),
        max_error: result.max_error_vs_reference,
        sim: SimRun(result.simulation),
    })
}

pub struct Sim(Simulator);
pub struct SimRun(SimReport);

pub fn sim_build(program: &Program) -> Result<Sim, String> {
    Simulator::build(
        program,
        &AnalysisConfig::paper_defaults(),
        &SimConfig::default(),
    )
    .map(Sim)
    .map_err(|e| e.to_string())
}

pub fn sim_build_multi(program: &Program, plan: &Plan) -> Result<Sim, String> {
    Simulator::build_multi_device(
        program,
        &AnalysisConfig::paper_defaults(),
        &plan.0,
        &SimConfig::default(),
    )
    .map(Sim)
    .map_err(|e| e.to_string())
}

impl Sim {
    pub fn run(&self, inputs: &Inputs) -> Result<SimRun, String> {
        self.0.run(inputs).map(SimRun).map_err(|e| e.to_string())
    }
}

impl SimRun {
    pub fn completed(&self) -> bool {
        self.0.completed()
    }

    pub fn cycles(&self) -> u64 {
        self.0.cycles
    }

    /// Whether both runs produced bit-equal grids for every output.
    pub fn same_outputs(&self, other: &SimRun) -> bool {
        self.0.outputs.len() == other.0.outputs.len()
            && self.0.outputs.iter().all(|(name, grid)| {
                other.0.output(name).is_some_and(|theirs| {
                    grid.shape() == theirs.shape()
                        && grid
                            .as_slice()
                            .iter()
                            .zip(theirs.as_slice())
                            .all(|(a, b)| a.to_bits() == b.to_bits())
                })
            })
    }

    /// Largest relative error of the simulated outputs against a reference
    /// run of `program`, over valid cells (what `Pipeline` computes).
    pub fn max_error_against(&self, program: &Program, reference: &Outputs) -> f64 {
        program
            .outputs()
            .iter()
            .filter_map(|name| reference.compare_field(name, self.0.output(name)?))
            .fold(0.0, f64::max)
    }
}

// ---------------------------------------------------------------- manifest

/// One metric of `BENCHMARK.json`. `bound` is absent on per-layer metrics.
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub better: String,
    pub bound: Option<f64>,
}

/// The workload and metric lists of `BENCHMARK.json`, in file order.
pub struct Manifest {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

pub fn parse_manifest(text: &str) -> Result<Manifest, String> {
    let json = stencilflow_json::parse(text).map_err(|e| e.to_string())?;
    let entries = |list: &str| {
        json.get(list)
            .and_then(Json::as_array)
            .ok_or(format!("BENCHMARK.json: `{list}` must be an array"))
    };
    let string = |entry: &Json, key: &str| {
        entry
            .get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or(format!("BENCHMARK.json: an entry lacks `{key}`"))
    };
    let metrics = |list: &str| -> Result<Vec<MetricSpec>, String> {
        entries(list)?
            .iter()
            .map(|entry| {
                Ok(MetricSpec {
                    name: string(entry, "name")?,
                    unit: string(entry, "unit")?,
                    better: string(entry, "better")?,
                    bound: entry.get("bound").and_then(Json::as_f64),
                })
            })
            .collect()
    };
    Ok(Manifest {
        workloads: entries("workloads")?
            .iter()
            .map(|entry| string(entry, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}
