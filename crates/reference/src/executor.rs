//! Execution of stencil programs.
//!
//! Two execution paths produce bit-identical results on every program
//! output (checked by the golden-equivalence suites):
//!
//! * [`ReferenceExecutor::execute`] — the one compiled path: the program
//!   is prepared once into a [`CompiledProgram`] (the fuse plan over the
//!   kernels the program keeps — slot-resolved and, where possible,
//!   type-specialized — cached across runs) and streamed through the
//!   fused wavefront (`fuse.rs`), up to the ceiling of its [`RunSpec`]
//!   (fused, or native JIT).
//!   [`ReferenceExecutor::run`] / [`ReferenceExecutor::run_steps`] are
//!   `execute` at the fused ceiling.
//! * [`ReferenceExecutor::run_interpreted`] — the tree-walking evaluator,
//!   kept as the semantic reference ("reference C++" of the paper's
//!   Fig. 13), one stencil at a time in topological order over the full
//!   iteration space, every stencil's grid in its result; the baseline of
//!   the evaluation-throughput benchmark.
//!
//! For iterative workloads, [`ReferenceExecutor::run_steps`] time-steps a
//! program by feeding its output grids back into its inputs, reusing one
//! compiled program across all steps.
//!
//! A warm job pays only for its sweep. The compiled-program cache is keyed
//! by [`StencilProgram::fingerprint`], which the program object computes
//! once and keeps, so a [`ReferenceExecutor::prepare`] hit is one lock and
//! one map lookup whatever the program's size; the host's thread count is
//! read once per process (`host_threads`); and a native stage call builds
//! its argument arrays in buffers its worker keeps, allocating nothing.

use crate::grid::Grid;
use crate::jit::TierUp;
use crate::tier::{Tier, TierTrace};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use stencilflow_expr::{AccessResolver, Evaluator, Value};
use stencilflow_program::{
    BoundaryCondition, IterationSpace, ProgramError, Result, StencilNode, StencilProgram,
};

/// Result of running a stencil program on the reference executor.
#[derive(Debug, Clone)]
pub struct ExecutionResult {
    fields: BTreeMap<String, Grid>,
    valid_masks: BTreeMap<String, Vec<bool>>,
    cells_evaluated: usize,
}

impl ExecutionResult {
    /// The computed grid of a stencil (any stencil, not just program
    /// outputs).
    pub fn field(&self, name: &str) -> Option<&Grid> {
        self.fields.get(name)
    }

    /// Iterate over all computed stencil fields.
    pub fn fields(&self) -> impl Iterator<Item = (&str, &Grid)> {
        self.fields.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Validity mask of a stencil output (row-major). Cells are invalid when
    /// the stencil has the `shrink` boundary condition and their computation
    /// read out-of-bounds values.
    pub fn valid_mask(&self, name: &str) -> Option<&[bool]> {
        self.valid_masks.get(name).map(Vec::as_slice)
    }

    /// Number of valid output cells of a stencil.
    pub fn valid_count(&self, name: &str) -> usize {
        self.valid_masks
            .get(name)
            .map(|m| m.iter().filter(|&&v| v).count())
            .unwrap_or(0)
    }

    /// Total number of stencil-cell evaluations performed (summed over all
    /// time steps for [`ReferenceExecutor::run_steps`]).
    pub fn cells_evaluated(&self) -> usize {
        self.cells_evaluated
    }

    /// Assemble a result from its parts (used by the fused tier, which
    /// builds output grids directly).
    pub(crate) fn from_parts(
        fields: BTreeMap<String, Grid>,
        valid_masks: BTreeMap<String, Vec<bool>>,
        cells_evaluated: usize,
    ) -> ExecutionResult {
        ExecutionResult {
            fields,
            valid_masks,
            cells_evaluated,
        }
    }

    /// Remove and return a computed field (used by the sharded runtime to
    /// feed a window's output back as the next window's input without a
    /// copy).
    pub(crate) fn take_field(&mut self, name: &str) -> Option<Grid> {
        self.fields.remove(name)
    }

    /// Compare a field against another grid at its valid cells. Returns the
    /// maximum relative error seen (absolute below magnitude 1), or `None`
    /// when the field is unknown or the shapes differ. Two NaNs agree; a
    /// NaN or an infinity the other side does not share is an infinite
    /// error.
    pub fn compare_field(&self, name: &str, other: &Grid) -> Option<f64> {
        let grid = self.fields.get(name)?;
        let mask = self.valid_masks.get(name)?;
        if grid.shape() != other.shape() {
            return None;
        }
        // A zero-extent grid still stores one slot; it holds no cell.
        let cells: usize = grid.shape().iter().product();
        let pairs = grid.as_slice()[..cells].iter().zip(other.as_slice());
        let mut max_err: f64 = 0.0;
        for ((&a, &b), _) in pairs.zip(&mask[..cells]).filter(|(_, &valid)| valid) {
            if a == b || (a.is_nan() && b.is_nan()) {
                continue;
            }
            let scale = a.abs().max(b.abs()).max(1.0);
            let err = (a - b).abs() / scale;
            // `f64::max` drops a NaN operand: an error that is not a
            // number must fail the comparison, not vanish from it.
            max_err = max_err.max(if err.is_nan() { f64::INFINITY } else { err });
        }
        Some(max_err)
    }
}

/// A stencil program prepared for repeated execution: a view over the
/// program it was prepared from — whose kernels, slot types and typed
/// kernels, kept per stencil id, are what every rung evaluates — and the
/// tier ladder over it. Built once by [`ReferenceExecutor::prepare`]; a run
/// only reads its grids.
pub struct CompiledProgram {
    /// The tier ladder: the program, the fused rung's plan and the JIT
    /// rung's unit, or why the program cannot take it.
    trace: TierTrace,
    /// [`StencilProgram::fingerprint`] of the source program (the executor
    /// cache key). A 64-bit collision between structurally different
    /// programs would alias two cache entries; with the cache capped at
    /// [`COMPILED_CACHE_CAPACITY`] entries the odds are astronomically
    /// against it.
    fingerprint: u64,
}

impl std::fmt::Debug for CompiledProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let program = self.program();
        f.debug_struct("CompiledProgram")
            .field("name", &program.name())
            .field("shape", &program.space().shape)
            .field("stencils", &self.stencil_count())
            .field("typed_stencils", &self.typed_stencil_count())
            .finish()
    }
}

impl CompiledProgram {
    /// The program this was prepared from (for a cache hit, the first
    /// structurally identical program prepared).
    pub fn program(&self) -> &StencilProgram {
        &self.trace.program
    }

    /// Number of compiled stencils.
    pub fn stencil_count(&self) -> usize {
        self.program().stencil_count()
    }

    /// Number of stencils carrying a type-specialized (`Value`-free) kernel:
    /// the ones whose sweep runs lane-batched (or native). The rest run cell
    /// by cell on boxed `Value`s.
    pub fn typed_stencil_count(&self) -> usize {
        let program = self.program();
        (program.dag().nodes())
            .filter(|node| matches!(program.typed_kernel(node.id), Some((_, Some(_)))))
            .count()
    }

    /// The tier ladder: which rung each request lands on, and why a rung
    /// cannot take it (see `docs/evaluation.md`).
    pub fn tier_trace(&self) -> &TierTrace {
        &self.trace
    }

    /// The emitted C translation unit for this program's live stages
    /// (`None` when Tier-4 is ineligible). Exposed so CI can archive the
    /// exact sources it compiled next to the bitwise-diff results.
    pub fn jit_source(&self) -> Option<&str> {
        let unit = self.trace.jit().ok()?;
        Some(unit.source.as_str())
    }

    /// `(live stages, distinct sweep bodies)` of [`Self::jit_source`]: every
    /// live stage exports a symbol, stages whose emitted sweeps are the same
    /// text share one body (a chain of identical stencils has one).
    pub fn jit_stage_census(&self) -> Option<(usize, usize)> {
        let unit = self.trace.jit().ok()?;
        Some((unit.symbols.iter().flatten().count(), unit.bodies))
    }

    /// The hashed structural program fingerprint (the executor cache key;
    /// the service keys its record of tier choices off it too).
    pub(crate) fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

/// Reference executor.
///
/// [`ReferenceExecutor::run_interpreted`] evaluates stencils one at a time
/// in topological order over the full iteration space, walking the
/// expression tree per cell — exactly the "reference C++" path of the
/// paper's workflow (Fig. 13), the semantic baseline every other path is
/// checked against. [`ReferenceExecutor::execute`] (and `run` /
/// `run_steps` over it) streams every stencil through the fused wavefront,
/// caching compiled programs across calls so repeated runs never
/// recompile.
#[derive(Debug)]
pub struct ReferenceExecutor {
    /// Worker-thread cap for the fused sweep; `None` picks the available
    /// hardware parallelism.
    max_threads: Option<usize>,
    /// Upper bound on the number of time steps the fused tier chains into
    /// one window.
    pub(crate) fusion_window: usize,
    /// Explicit block height of the fused wavefront (outermost-dimension
    /// planes per tick); `None` derives it from the scratch budget.
    pub(crate) fusion_tile_rows: Option<usize>,
    /// Compiled programs keyed by the hashed structural fingerprint; hits
    /// skip compilation entirely.
    cache: Mutex<BTreeMap<u64, Arc<CompiledProgram>>>,
    /// Number of program compilations performed (cache misses).
    compiles: AtomicUsize,
    /// Reusable scratch/state buffers for the fused tier: steady-state
    /// fused stepping allocates nothing once the pool is warm. `f64` cells,
    /// and the `f32` cells of `float32` fields' rings and copies.
    pool: Mutex<Pool<f64>>,
    pool32: Mutex<Pool<f32>>,
    /// Reusable validity-mask buffers (only used when `pool_results` is
    /// set; see [`ReferenceExecutor::with_pooled_results`]).
    mask_pool: Mutex<Pool<bool>>,
    /// Whether result grids and masks are drawn from the pools instead of
    /// freshly allocated. Off by default: callers of the plain `run_*` API
    /// never return their results, so pooling them would only drain the
    /// pool. The service tier turns this on and recycles results.
    pool_results: bool,
}

impl Default for ReferenceExecutor {
    fn default() -> Self {
        ReferenceExecutor {
            max_threads: None,
            fusion_window: crate::fuse::DEFAULT_FUSION_WINDOW,
            fusion_tile_rows: None,
            cache: Mutex::new(BTreeMap::new()),
            compiles: AtomicUsize::new(0),
            pool: Mutex::new(Pool::with_capacity(BUFFER_POOL_CAPACITY)),
            pool32: Mutex::new(Pool::with_capacity(BUFFER_POOL_CAPACITY)),
            mask_pool: Mutex::new(Pool::with_capacity(BUFFER_POOL_CAPACITY)),
            pool_results: false,
        }
    }
}

impl Clone for ReferenceExecutor {
    fn clone(&self) -> Self {
        ReferenceExecutor {
            max_threads: self.max_threads,
            fusion_window: self.fusion_window,
            fusion_tile_rows: self.fusion_tile_rows,
            cache: Mutex::new(self.cache.lock().expect("executor cache poisoned").clone()),
            compiles: AtomicUsize::new(self.compiles.load(Ordering::Relaxed)),
            // Buffer pools hold no semantic state; clones warm up their own
            // (but keep the configured retention capacity).
            pool: Mutex::new(Pool::with_capacity(
                self.pool.lock().expect("buffer pool poisoned").capacity,
            )),
            pool32: Mutex::new(Pool::with_capacity(
                self.pool32.lock().expect("buffer pool poisoned").capacity,
            )),
            mask_pool: Mutex::new(Pool::with_capacity(
                self.mask_pool.lock().expect("mask pool poisoned").capacity,
            )),
            pool_results: self.pool_results,
        }
    }
}

/// Sweeps smaller than this many cell·accesses stay single-threaded: thread
/// spawn overhead dominates below roughly a quarter-million cell·accesses.
/// Scaling by the per-cell access count lets small-but-heavy stencils
/// parallelize while light sweeps stay sequential.
pub(crate) const PARALLEL_THRESHOLD_CELL_ACCESSES: usize = 1 << 18;

/// Compiled-program cache entries kept per executor before the cache is
/// reset (a safety valve for program-generating loops, not a tuned policy).
/// An entry keeps its program alive — the parsed code and accesses too,
/// about as much again as the compiled form — so the valve holds half the
/// 64 entries it held when an entry kept only compiled kernels: the same
/// memory. No workload cycles through more than a few dozen programs.
const COMPILED_CACHE_CAPACITY: usize = 32;

/// Buffers kept in a pool before further releases are dropped (a safety
/// valve, not a tuned policy: one fused `run_steps` needs a handful of
/// buffers per worker). The service tier raises the retention cap via
/// [`ReferenceExecutor::with_pool_capacity`] because it keeps many jobs'
/// grids in flight at once.
const BUFFER_POOL_CAPACITY: usize = 64;

/// The NaN unit tests fill every released cell buffer with: a payload no
/// arithmetic on the generated inputs produces.
#[cfg(test)]
pub(crate) const POISON_BITS: u64 = 0x7ff8_dead_beef_0001;

/// A cell type the executor pools: `f64`, and `f32` for the rings and
/// copies of `float32` fields.
pub(crate) trait Pooled: Copy + Default {
    /// The executor's pool of this type.
    fn pool(executor: &ReferenceExecutor) -> &Mutex<Pool<Self>>;
    /// What unit tests fill a released buffer with (see [`POISON_BITS`]).
    #[cfg(test)]
    const POISON: Self;
}

impl Pooled for f64 {
    fn pool(executor: &ReferenceExecutor) -> &Mutex<Pool<f64>> {
        &executor.pool
    }
    #[cfg(test)]
    const POISON: f64 = f64::from_bits(POISON_BITS);
}

impl Pooled for f32 {
    fn pool(executor: &ReferenceExecutor) -> &Mutex<Pool<f32>> {
        &executor.pool32
    }
    #[cfg(test)]
    const POISON: f32 = f32::from_bits(0x7fde_adbe);
}

/// A best-fit pool of reusable buffers. The executor keeps two: `f64`
/// cells backing the fused tier's ring buffers, window-boundary state
/// grids and pooled results, and `bool` validity masks — every result
/// carries one mask per output, so the service tier's
/// zero-steady-state-allocation claim must cover masks too. Acquire picks
/// the smallest pooled buffer whose capacity suffices, so a steady state of
/// identical requests is allocation-free; the miss counter (exposed as
/// [`ReferenceExecutor::pool_miss_count`] /
/// [`ReferenceExecutor::mask_pool_miss_count`]) increments only when an
/// allocation was unavoidable.
#[derive(Debug)]
pub(crate) struct Pool<T> {
    buffers: Vec<Vec<T>>,
    capacity: usize,
    pub(crate) acquires: usize,
    pub(crate) misses: usize,
}

impl<T: Copy + Default> Pool<T> {
    pub(crate) fn with_capacity(capacity: usize) -> Pool<T> {
        Pool {
            buffers: Vec::new(),
            capacity: capacity.max(1),
            acquires: 0,
            misses: 0,
        }
    }

    /// A buffer of `len` elements holding whatever its previous user left
    /// in it: callers overwrite every element (or reset it themselves).
    pub(crate) fn acquire(&mut self, len: usize) -> Vec<T> {
        self.acquires += 1;
        let best = self
            .buffers
            .iter()
            .enumerate()
            .filter(|(_, b)| b.capacity() >= len)
            .min_by_key(|(_, b)| b.capacity())
            .map(|(ix, _)| ix);
        match best {
            Some(ix) => {
                let mut buf = self.buffers.swap_remove(ix);
                buf.resize(len, T::default());
                buf
            }
            None => {
                self.misses += 1;
                vec![T::default(); len]
            }
        }
    }

    pub(crate) fn release(&mut self, buf: Vec<T>) {
        if self.buffers.len() < self.capacity && buf.capacity() > 0 {
            self.buffers.push(buf);
        }
    }

    /// Add `copies` free buffers for every one held now, each with the
    /// capacity of the largest (retention cap permitting; the memory is
    /// reserved, not touched). Called with nothing checked out, after jobs
    /// that ran one at a time: no job then had more buffers out at once
    /// than the list holds, and none asked for more than the largest, so
    /// `copies` such jobs running together always find one of the added
    /// buffers free, whatever best fit lent to whom in the meantime.
    /// (Copying the held capacities instead is not enough. Small requests
    /// borrow a large buffer when theirs run out, and a large request can
    /// then find all of its own on loan.)
    pub(crate) fn reserve(&mut self, copies: usize) {
        let largest = self.buffers.iter().map(Vec::capacity).max().unwrap_or(0);
        for _ in 0..copies * self.buffers.len() {
            self.release(Vec::with_capacity(largest));
        }
    }
}

/// What to run and on which rungs, for [`ReferenceExecutor::execute`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSpec {
    /// `None` applies the program once; `Some(n)` time-steps it `n` times
    /// with the feedback semantics of [`ReferenceExecutor::run_steps`]
    /// (the pairing is validated even for `Some(1)`; `Some(0)` is an
    /// error).
    pub steps: Option<usize>,
    /// The highest rung the run may take ([`Tier::Jit`]: any); it lands
    /// on the highest the program allows at or below it.
    pub tier: Tier,
}

impl ReferenceExecutor {
    /// Create a reference executor.
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide executor, created on first use, as the JIT engine
    /// is: the simulator and `Pipeline`'s validation prepare on it, so a
    /// program they have seen before is a cache hit and its sweeps draw
    /// from warm pools. Sharing is safe because the cache is bounded and
    /// keyed by [`StencilProgram::fingerprint`], and every pooled buffer is
    /// written before it is read (unit tests poison what comes back to
    /// prove it), so one program's leftovers never reach another's run.
    pub fn shared() -> &'static ReferenceExecutor {
        static SHARED: OnceLock<ReferenceExecutor> = OnceLock::new();
        SHARED.get_or_init(ReferenceExecutor::new)
    }

    /// Cap the number of worker threads a run sweeps on (`1` forces a
    /// sequential sweep).
    pub fn with_max_threads(mut self, threads: usize) -> Self {
        self.max_threads = Some(threads.max(1));
        self
    }

    /// Bound the number of time steps the fused tier chains into one
    /// window (default `4`; `1` round-trips the state through full grids
    /// after every step). Larger windows save those round-trips but keep
    /// one more ring buffer per stage and step in the working set.
    pub fn with_fusion_window(mut self, window: usize) -> Self {
        self.fusion_window = window.max(1);
        self
    }

    /// Pin the block height of the fused wavefront (outermost-dimension
    /// planes produced per tick; `0` restores the default) instead of
    /// deriving it from the scratch budget. Mostly useful for tests that
    /// must exercise multi-tick execution and ring wrap-around on small
    /// domains.
    pub fn with_fusion_tile_rows(mut self, rows: usize) -> Self {
        self.fusion_tile_rows = if rows == 0 { None } else { Some(rows) };
        self
    }

    /// Raise (or lower) the number of buffers the executor's pools retain
    /// between runs (default: a handful, enough for one fused `run_steps`).
    /// The service tier keeps many jobs' grids, masks and stepping state in
    /// flight concurrently and sets this high enough that sustained mixed
    /// traffic never drops a released buffer.
    pub(crate) fn with_pool_capacity(mut self, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        self.pool.get_mut().expect("buffer pool poisoned").capacity = capacity;
        self.pool32
            .get_mut()
            .expect("buffer pool poisoned")
            .capacity = capacity;
        self.mask_pool
            .get_mut()
            .expect("mask pool poisoned")
            .capacity = capacity;
        self
    }

    /// Draw result grids and validity masks from the executor pools
    /// instead of allocating them fresh (service-tier internal: only
    /// meaningful for callers that *return* results to the pool, which the
    /// plain `run_*` API has no way to do).
    pub(crate) fn with_pooled_results(mut self, enabled: bool) -> Self {
        self.pool_results = enabled;
        self
    }

    /// Number of program compilations this executor has performed. Cache
    /// hits in [`ReferenceExecutor::prepare`] (and therefore in repeated
    /// [`ReferenceExecutor::run`] / [`ReferenceExecutor::run_steps`] calls)
    /// do not increase this counter.
    pub fn compile_count(&self) -> usize {
        self.compiles.load(Ordering::Relaxed)
    }

    /// Number of buffer allocations the fused tier's pool has performed
    /// (pool misses). Steady-state fused runs over the same program and
    /// shapes reuse pooled buffers and do not increase this counter.
    pub fn pool_miss_count(&self) -> usize {
        self.pool.lock().expect("buffer pool poisoned").misses
            + self.pool32.lock().expect("buffer pool poisoned").misses
    }

    /// Number of buffer acquisitions the fused tier has made (hits and
    /// misses).
    pub fn pool_acquire_count(&self) -> usize {
        self.pool.lock().expect("buffer pool poisoned").acquires
            + self.pool32.lock().expect("buffer pool poisoned").acquires
    }

    pub(crate) fn pool_acquire<T: Pooled>(&self, len: usize) -> Vec<T> {
        T::pool(self)
            .lock()
            .expect("buffer pool poisoned")
            .acquire(len)
    }

    pub(crate) fn pool_release<T: Pooled>(&self, buf: Vec<T>) {
        // Unit tests poison what comes back, so a cell read before anything
        // wrote it (a result cell no sweep stored, a ring plane read before
        // it was produced) shows up as this NaN, not a plausible stale value.
        #[cfg(test)]
        let buf = {
            let mut buf = buf;
            buf.fill(T::POISON);
            buf
        };
        T::pool(self)
            .lock()
            .expect("buffer pool poisoned")
            .release(buf);
    }

    /// Number of validity-mask buffer allocations (mask-pool misses). Only
    /// moves when result pooling is on; the service tier folds it into its
    /// zero-steady-state-allocation assertion.
    pub(crate) fn mask_pool_miss_count(&self) -> usize {
        self.mask_pool.lock().expect("mask pool poisoned").misses
    }

    /// Number of validity-mask buffer acquisitions (hits and misses).
    pub(crate) fn mask_pool_acquire_count(&self) -> usize {
        self.mask_pool.lock().expect("mask pool poisoned").acquires
    }

    /// A cell buffer for a result grid: pooled when result pooling is on,
    /// as its last user left it, freshly allocated otherwise. The fused
    /// sinks store every owned plane of a result, so a reset would only be
    /// overwritten.
    pub(crate) fn alloc_result_cells(&self, len: usize) -> Vec<f64> {
        if self.pool_results {
            self.pool_acquire(len)
        } else {
            vec![0.0; len]
        }
    }

    /// An all-`true` validity mask for a result: pooled when result
    /// pooling is on, freshly allocated otherwise. Unlike cells, a pooled
    /// mask is reset: the sweep writes only the cells the shrink box
    /// invalidates.
    pub(crate) fn alloc_result_mask(&self, len: usize) -> Vec<bool> {
        if !self.pool_results {
            return vec![true; len];
        }
        let mut mask = self
            .mask_pool
            .lock()
            .expect("mask pool poisoned")
            .acquire(len);
        mask.fill(true);
        mask
    }

    /// Return a mask buffer to the mask pool.
    pub(crate) fn release_mask(&self, buf: Vec<bool>) {
        self.mask_pool
            .lock()
            .expect("mask pool poisoned")
            .release(buf);
    }

    /// Hand back buffers no result will carry: to the pools when results
    /// are pooled, a plain drop otherwise (an executor nobody recycles into
    /// would only hoard them).
    pub(crate) fn release_all(
        &self,
        grids: impl IntoIterator<Item = Grid>,
        masks: impl IntoIterator<Item = Vec<bool>>,
    ) {
        if self.pool_results {
            grids
                .into_iter()
                .for_each(|grid| self.pool_release(grid.into_data()));
            masks.into_iter().for_each(|mask| self.release_mask(mask));
        }
    }

    /// [`release_all`](Self::release_all) on everything a result holds.
    pub(crate) fn recycle(&self, result: ExecutionResult) {
        self.release_all(
            result.fields.into_values(),
            result.valid_masks.into_values(),
        );
    }

    /// [`Pool::reserve`] on the cell and the mask pools.
    pub(crate) fn reserve_pools(&self, copies: usize) {
        self.pool
            .lock()
            .expect("buffer pool poisoned")
            .reserve(copies);
        self.pool32
            .lock()
            .expect("buffer pool poisoned")
            .reserve(copies);
        self.mask_pool
            .lock()
            .expect("mask pool poisoned")
            .reserve(copies);
    }

    /// Input validation for every path: each input `program` declares is
    /// present, with its declared shape and element type.
    ///
    /// # Errors
    ///
    /// [`ProgramError::Invalid`], naming the first input that fails.
    pub fn check_inputs(program: &StencilProgram, inputs: &BTreeMap<String, Grid>) -> Result<()> {
        let space = program.space();
        program.inputs().try_for_each(|(name, decl)| {
            let grid = inputs.get(name).ok_or_else(|| ProgramError::Invalid {
                message: format!("missing input grid `{name}`"),
            })?;
            let declared = || declared_shape(space, &decl.dims);
            if !grid.shape().iter().copied().eq(declared()) {
                let shape: Vec<usize> = declared().collect();
                return Err(ProgramError::Invalid {
                    message: format!(
                        "input `{name}` has shape {:?}, expected {shape:?}",
                        grid.shape()
                    ),
                });
            }
            let dtype = decl.data_type();
            if grid.data_type() != dtype {
                return Err(ProgramError::Invalid {
                    message: format!(
                        "input `{name}` has element type {}, expected {dtype}",
                        grid.data_type()
                    ),
                });
            }
            Ok(())
        })
    }

    /// Compile `program` into a reusable [`CompiledProgram`], consulting the
    /// executor's cross-run cache first. Repeated calls with a structurally
    /// identical program return the cached compilation.
    ///
    /// The cache key is the program's [`StencilProgram::fingerprint`],
    /// which the program object computes once and keeps: a hit on a program
    /// already seen costs one lock and one map lookup, whatever the
    /// program's size (a fresh but identical program object walks its
    /// rendering once, on its first `prepare`). For the very tightest loops
    /// hold the returned [`CompiledProgram`] and call
    /// [`ReferenceExecutor::execute`] directly
    /// ([`ReferenceExecutor::run_steps`] does the same internally).
    ///
    /// # Errors
    ///
    /// Propagates kernel compilation and validation failures.
    pub fn prepare(&self, program: &StencilProgram) -> Result<Arc<CompiledProgram>> {
        let fingerprint = program.fingerprint();
        // Compilation happens under the cache lock: concurrent prepares of
        // the same program must not compile twice (the zero-recompilation
        // guarantee), and serializing the rare compile is cheap next to the
        // sweeps it enables.
        let mut cache = self.cache.lock().expect("executor cache poisoned");
        if let Some(hit) = cache.get(&fingerprint) {
            return Ok(Arc::clone(hit));
        }
        let compiled = Arc::new(self.compile_program(program, fingerprint)?);
        if cache.len() >= COMPILED_CACHE_CAPACITY {
            cache.clear();
        }
        cache.insert(fingerprint, Arc::clone(&compiled));
        Ok(compiled)
    }

    /// Check that every stencil of `program` has its kept kernel and slot
    /// types, in topological order, and plan the program's sweep over
    /// them. The result keeps a clone of `program`, which shares its DAG
    /// and kernels.
    fn compile_program(
        &self,
        program: &StencilProgram,
        fingerprint: u64,
    ) -> Result<CompiledProgram> {
        self.compiles.fetch_add(1, Ordering::Relaxed);
        for &id in program.topological_nodes()? {
            let Some(stencil) = program.stencil_at(id) else {
                continue;
            };
            let code = |source| ProgramError::Code {
                stencil: stencil.name.clone(),
                source,
            };
            let kernel = stencil.kernel().map_err(code)?;
            // A slot reading a field the program does not declare has no
            // type (validation rejects such a program).
            let Some((slot_types, _)) = program.typed_kernel(id) else {
                let slot = (kernel.slots().iter()).find(|s| program.field_type(&s.field).is_none());
                let name = slot.map_or_else(String::new, |s| s.field.clone());
                return Err(code(stencilflow_expr::ExprError::UnresolvedSymbol { name }));
            };
            // Debug builds consume the independent verifier's verdict
            // instead of trusting compiler/optimizer bookkeeping: the kernel
            // must verify with the bind-time slot types.
            if cfg!(debug_assertions) {
                if let Err(e) = stencilflow_expr::verify_kernel(kernel, Some(slot_types)) {
                    panic!(
                        "stencil `{}` failed bytecode verification at bind time: {e}",
                        stencil.name
                    );
                }
            }
        }
        // The ladder: the JIT rung runs the fused schedule.
        let fused = crate::fuse::FusePlan::build(program, program.feedback_pairs().ok().as_deref());
        Ok(CompiledProgram {
            trace: TierTrace::new(program.clone(), fused),
            fingerprint,
        })
    }

    /// Run `program` on the given input grids: [`ReferenceExecutor::execute`]
    /// at the [`Tier::Fused`] ceiling, after a cached
    /// [`ReferenceExecutor::prepare`], so repeated calls with the same
    /// program only pay the sweep (and never wait for `cc`).
    ///
    /// Every input field of the program must be present in `inputs` with
    /// matching dimensions and element type. The result holds the program
    /// outputs and their validity masks, bit-identical to
    /// [`ReferenceExecutor::run_interpreted`] (which also holds every
    /// intermediate).
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError::Invalid`] if an input grid is missing or has
    /// the wrong shape or element type, and propagates evaluation errors
    /// (integer division by zero) as [`ProgramError::Code`] naming the
    /// stencil the interpreter names.
    pub fn run(
        &self,
        program: &StencilProgram,
        inputs: &BTreeMap<String, Grid>,
    ) -> Result<ExecutionResult> {
        self.run_fused(program, inputs, None)
    }

    /// Time-step `program` for `steps` iterations, feeding its output
    /// grids back into its inputs between steps: a single output feeds the
    /// single full-rank input; in multi-field systems each output feeds
    /// the full-rank input whose name is the longest prefix of the
    /// output's name (`h -> h_next`), and anything ambiguous is rejected.
    /// Lower-dimensional and scalar inputs stay fixed. The program is
    /// compiled (or fetched from the cache) exactly once for all steps:
    /// [`ReferenceExecutor::execute`] at the [`Tier::Fused`] ceiling.
    ///
    /// Returns the outputs of the final step, with
    /// [`ExecutionResult::cells_evaluated`] accumulated over all steps.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError::Invalid`] when `steps` is zero, when the
    /// program's outputs cannot be paired one-to-one with its full-rank
    /// inputs (or the element types of a pair differ), and propagates all
    /// [`ReferenceExecutor::run`] failure modes.
    pub fn run_steps(
        &self,
        program: &StencilProgram,
        inputs: &BTreeMap<String, Grid>,
        steps: usize,
    ) -> Result<ExecutionResult> {
        self.run_fused(program, inputs, Some(steps))
    }

    fn run_fused(
        &self,
        program: &StencilProgram,
        inputs: &BTreeMap<String, Grid>,
        steps: Option<usize>,
    ) -> Result<ExecutionResult> {
        let compiled = self.prepare(program)?;
        let tier = Tier::Fused;
        Ok(self.execute(&compiled, inputs, &RunSpec { steps, tier })?.0)
    }

    /// Run an already-compiled program and return **only the program
    /// outputs** (plus their validity masks) together with the tier the
    /// run ran on — intermediates are never part of the result, and every
    /// output cell is bit-identical to
    /// [`ReferenceExecutor::run_interpreted`] on every tier.
    ///
    /// `spec.tier` is a ceiling: a run it cannot take lands on the highest
    /// rung below it that can ([`CompiledProgram::tier_trace`] says why),
    /// and that rung is reported (see [`crate::tier`]). A run on the JIT
    /// rung waits for its module, so the result does not depend on when
    /// `cc` finishes.
    ///
    /// # Errors
    ///
    /// The failure modes of [`ReferenceExecutor::run`] (or of
    /// [`ReferenceExecutor::run_steps`] when `spec.steps` is set), plus
    /// [`ProgramError::Invalid`] when a JIT-*eligible* program's emitted
    /// unit fails to compile or load — that indicates an emitter bug and is
    /// surfaced, never silently absorbed by the fallback.
    pub fn execute(
        &self,
        compiled: &CompiledProgram,
        inputs: &BTreeMap<String, Grid>,
        spec: &RunSpec,
    ) -> Result<(ExecutionResult, Tier)> {
        check_steps(spec.steps)?;
        Self::check_inputs(compiled.program(), inputs)?;
        self.run_tier(
            compiled,
            inputs,
            spec.steps,
            spec.tier,
            TierUp::Wait,
            &|| Ok(()),
        )
    }

    /// A run of the FPGA path — a simulated design's outputs, `Pipeline`'s
    /// validation — outputs only, and the rung it ran on. The path's one
    /// tier-up rule ([`crate::tier`]) picks the ceiling: [`Tier::Fused`]
    /// until `compiled`'s fused runs through here have cost as much as one
    /// native build (200 ms, a constant), [`Tier::Jit`] from then on. At
    /// that ceiling a run never waits for `cc`: it takes the fused rung
    /// until the module has landed, the native rung after. Every rung is
    /// bit-identical, so the outputs are [`ReferenceExecutor::execute`]'s.
    ///
    /// # Errors
    ///
    /// The failure modes of [`ReferenceExecutor::run`].
    pub fn run_tiered(
        &self,
        compiled: &CompiledProgram,
        inputs: &BTreeMap<String, Grid>,
    ) -> Result<(ExecutionResult, Tier)> {
        Self::check_inputs(compiled.program(), inputs)?;
        let ceiling = compiled.trace.fpga_ceiling();
        let start = Instant::now();
        let ran = self.run_tier(compiled, inputs, None, ceiling, TierUp::Background, &|| {
            Ok(())
        });
        if ceiling == Tier::Fused {
            compiled.trace.charge_fused(start.elapsed());
        }
        ran
    }

    /// One run on the rung `tier` resolves to, outputs only, and the rung
    /// it ran on: the fused schedule, with native stage sweeps on the JIT
    /// rung once `tier_up` has the module. `probe` is asked before every
    /// fused window whether to go on. The caller has checked `inputs`
    /// ([`ReferenceExecutor::check_inputs`]).
    pub(crate) fn run_tier<E: From<ProgramError>>(
        &self,
        compiled: &CompiledProgram,
        inputs: &BTreeMap<String, Grid>,
        steps: Option<usize>,
        tier: Tier,
        tier_up: TierUp,
        probe: &dyn Fn() -> std::result::Result<(), E>,
    ) -> std::result::Result<(ExecutionResult, Tier), E> {
        let program = compiled.program();
        if steps.is_some() && !compiled.trace.fused.stepping() {
            // Validate the pairing even for a single step (dtype
            // mismatches and ambiguity are rejected, never silently run):
            // the plan steps exactly when the pairs derive.
            program.feedback_pairs()?;
        }
        let native = match compiled.trace.rung(tier) {
            Tier::Jit => match compiled.trace.jit() {
                Ok(unit) => crate::jit::stage_fns(program.name(), unit, tier_up)?,
                Err(_) => None,
            },
            Tier::Fused => None,
        };
        let count = steps.unwrap_or(1);
        let result = crate::fuse::execute(self, compiled, inputs, count, native, probe)?;
        let ran = if native.is_some() {
            Tier::Jit
        } else {
            Tier::Fused
        };
        Ok((result, ran))
    }

    /// Apply `program` once through the fault-tolerant sharded runtime:
    /// the iteration space is partitioned along the outermost dimension
    /// across `config.shards` worker threads, each running the fused tier
    /// on its slab (see [`crate::shard`]). The assembled outputs are
    /// bitwise identical to [`ReferenceExecutor::run`] under every
    /// recoverable fault schedule, and the run degrades to the
    /// single-shard fused tier (still bit-identical) when a fault exceeds
    /// the retry budget.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`ReferenceExecutor::run`], plus invalid
    /// shard configurations (zero shards).
    pub fn run_sharded(
        &self,
        program: &StencilProgram,
        inputs: &BTreeMap<String, Grid>,
        config: &crate::shard::ShardConfig,
    ) -> Result<crate::shard::ShardedOutcome> {
        crate::shard::run_sharded(self, program, inputs, None, config)
    }

    /// Time-step `program` through the fault-tolerant sharded runtime,
    /// exchanging halo slabs between shards every exchange window.
    /// Results are bitwise identical to [`ReferenceExecutor::run_steps`]
    /// under every recoverable fault schedule; unrecoverable faults
    /// degrade to the single-shard fused tier.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`ReferenceExecutor::run_steps`], plus
    /// invalid shard configurations (zero shards).
    pub fn run_steps_sharded(
        &self,
        program: &StencilProgram,
        inputs: &BTreeMap<String, Grid>,
        steps: usize,
        config: &crate::shard::ShardConfig,
    ) -> Result<crate::shard::ShardedOutcome> {
        crate::shard::run_sharded(self, program, inputs, Some(steps), config)
    }

    /// Run `program` through the tree-walking evaluator (the semantic
    /// reference path; one cell at a time, no compilation, no parallelism).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`ReferenceExecutor::run`].
    pub fn run_interpreted(
        &self,
        program: &StencilProgram,
        inputs: &BTreeMap<String, Grid>,
    ) -> Result<ExecutionResult> {
        Self::check_inputs(program, inputs)?;

        let space = program.space();
        let mut computed: BTreeMap<String, Grid> = BTreeMap::new();
        let mut masks: BTreeMap<String, Vec<bool>> = BTreeMap::new();
        let mut cells_evaluated = 0usize;
        let order = program.topological_stencils()?;
        let dim_refs: Vec<&str> = space.dims.iter().map(String::as_str).collect();

        for name in order {
            let stencil = program
                .stencil(name)
                .expect("topological order only lists stencils");
            let mut output = Grid::zeros(&dim_refs, &space.shape, stencil.output_type);
            let mut mask = vec![true; space.num_cells()];
            for (flat, index) in space.indices().enumerate() {
                let resolver = CellResolver {
                    program,
                    stencil,
                    inputs,
                    computed: &computed,
                    index: &index,
                };
                let value = Evaluator::new(&resolver)
                    .eval_program(&stencil.program)
                    .map_err(|source| ProgramError::Code {
                        stencil: name.clone(),
                        source,
                    })?;
                output.set(&index, value.as_f64());
                if stencil.boundary.shrink && resolver.read_out_of_bounds() {
                    mask[flat] = false;
                }
                cells_evaluated += 1;
            }
            computed.insert(name.clone(), output);
            masks.insert(name.clone(), mask);
        }

        Ok(ExecutionResult {
            fields: computed,
            valid_masks: masks,
            cells_evaluated,
        })
    }

    /// Worker-thread count for a sweep of `cells` cells with
    /// `accesses_per_cell` reads each, at most `rows` independent work
    /// units (the fused sweep's planes).
    pub(crate) fn worker_threads(
        &self,
        rows: usize,
        cells: usize,
        accesses_per_cell: usize,
    ) -> usize {
        if cells.saturating_mul(accesses_per_cell.max(1)) < PARALLEL_THRESHOLD_CELL_ACCESSES {
            return 1;
        }
        let hardware = host_threads();
        self.max_threads
            .unwrap_or(hardware)
            .min(hardware)
            .min(rows)
            .max(1)
    }
}

/// The dense row-major shape of a field declared over `dims` in `space`
/// (a dimension the space does not know has extent 1): the one rule for a
/// declared geometry, shared by input validation and input generation.
pub(crate) fn declared_shape<'a>(
    space: &'a IterationSpace,
    dims: &'a [String],
) -> impl Iterator<Item = usize> + 'a {
    (dims.iter()).map(|d| space.dim_index(d).map_or(1, |ix| space.shape[ix]))
}

/// The one zero-steps rule of every entry point that takes `Option<usize>`
/// steps: `Some(0)` is an error (`None` is a single application).
pub(crate) fn check_steps(steps: Option<usize>) -> Result<()> {
    if steps == Some(0) {
        return Err(ProgramError::Invalid {
            message: "run_steps requires at least one time step".into(),
        });
    }
    Ok(())
}

/// The host's hardware thread count (`available_parallelism`, 1 if it
/// cannot be read), read once per process: on Linux each read parses the
/// cgroup files, which costs tens of microseconds.
pub(crate) fn host_threads() -> usize {
    static HOST_THREADS: OnceLock<usize> = OnceLock::new();
    *HOST_THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Resolves field accesses for one cell of one stencil.
struct CellResolver<'a> {
    program: &'a StencilProgram,
    stencil: &'a StencilNode,
    inputs: &'a BTreeMap<String, Grid>,
    computed: &'a BTreeMap<String, Grid>,
    index: &'a [usize],
}

impl CellResolver<'_> {
    fn grid_for(&self, field: &str) -> Option<&Grid> {
        self.inputs.get(field).or_else(|| self.computed.get(field))
    }

    /// Whether any access of this cell fell out of bounds. Tracked by
    /// re-walking the accesses rather than interior mutability, keeping the
    /// resolver `Fn`-shaped for the evaluator.
    fn read_out_of_bounds(&self) -> bool {
        let space = self.program.space();
        for (field, info) in self.stencil.accesses.iter() {
            let Some(dims) = self.program.field_dims(field) else {
                continue;
            };
            for offsets in &info.offsets {
                for ((var, &off), _) in info.index_vars.iter().zip(offsets.iter()).zip(dims.iter())
                {
                    if let Some(dim_ix) = space.dim_index(var) {
                        let pos = self.index[dim_ix] as i64 + off;
                        if pos < 0 || pos >= space.shape[dim_ix] as i64 {
                            return true;
                        }
                    }
                }
            }
        }
        false
    }
}

impl AccessResolver for CellResolver<'_> {
    fn resolve(&self, field: &str, offsets: &[i64]) -> Option<Value> {
        let grid = self.grid_for(field)?;
        let space = self.program.space();
        let info = self.stencil.accesses.get(field)?;
        // Build the signed index into the field's own (possibly
        // lower-dimensional) space.
        let mut signed: Vec<i64> = Vec::with_capacity(info.index_vars.len());
        let mut center: Vec<i64> = Vec::with_capacity(info.index_vars.len());
        for (var, &off) in info.index_vars.iter().zip(offsets.iter()) {
            let dim_ix = space.dim_index(var)?;
            let pos = self.index[dim_ix] as i64 + off;
            signed.push(pos);
            center.push(self.index[dim_ix] as i64);
        }
        if offsets.is_empty() {
            // Scalar access.
            return Some(grid.get_value(&[]));
        }
        match grid.get_checked(&signed) {
            Some(v) => Some(Value::from_f64(v, grid.data_type())),
            None => {
                // Out of bounds: apply the boundary condition.
                match self.stencil.boundary.condition_for(field) {
                    BoundaryCondition::Constant(c) => Some(Value::from_f64(c, grid.data_type())),
                    BoundaryCondition::Copy => grid
                        .get_checked(&center)
                        .map(|v| Value::from_f64(v, grid.data_type())),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input_data::generate_inputs;
    use stencilflow_expr::DataType;
    use stencilflow_program::StencilProgramBuilder;

    /// The executor's cache key for `program`.
    fn program_fingerprint(program: &StencilProgram) -> u64 {
        program.fingerprint()
    }

    fn laplace_program(shape: &[usize]) -> StencilProgram {
        StencilProgramBuilder::new("laplace", shape)
            .input("a", DataType::Float32, &["i", "j"])
            .stencil(
                "lap",
                "-4.0*a[i,j] + a[i-1,j] + a[i+1,j] + a[i,j-1] + a[i,j+1]",
            )
            .shrink("lap")
            .output("lap")
            .build()
            .unwrap()
    }

    #[test]
    fn laplace_matches_hand_computation() {
        let program = laplace_program(&[4, 4]);
        let a = Grid::from_fn(&["i", "j"], &[4, 4], DataType::Float32, |ix| {
            (ix[0] * 4 + ix[1]) as f64
        });
        let mut inputs = BTreeMap::new();
        inputs.insert("a".to_string(), a.clone());
        let result = ReferenceExecutor::new().run(&program, &inputs).unwrap();
        let lap = result.field("lap").unwrap();
        // Interior point (1,1): -4*5 + 1 + 9 + 4 + 6 = 0.
        assert_eq!(lap.get(&[1, 1]), 0.0);
        // Interior point (2,1): -4*9 + 5 + 13 + 8 + 10 = 0.
        assert_eq!(lap.get(&[2, 1]), 0.0);
    }

    #[test]
    fn shrink_mask_marks_boundary_cells_invalid() {
        let program = laplace_program(&[4, 4]);
        let inputs = generate_inputs(&program, 1);
        let result = ReferenceExecutor::new().run(&program, &inputs).unwrap();
        let mask = result.valid_mask("lap").unwrap();
        // Only the 2x2 interior is valid.
        assert_eq!(result.valid_count("lap"), 4);
        assert!(!mask[0]); // corner
        let space = program.space();
        assert!(mask[space.flat_index(&[1, 1])]);
        assert!(mask[space.flat_index(&[2, 2])]);
        assert!(!mask[space.flat_index(&[0, 2])]);
    }

    #[test]
    fn compare_field_fails_closed_on_values_that_are_not_numbers() {
        // `lap` is valid on the 2x2 interior of a 4x4 domain only.
        let program = laplace_program(&[4, 4]);
        let inputs = generate_inputs(&program, 1);
        let mut result = ReferenceExecutor::new().run(&program, &inputs).unwrap();
        let reference = result.field("lap").unwrap().clone();
        assert_eq!(result.compare_field("lap", &reference), Some(0.0));

        // A number against a NaN, on either side, is an infinite error.
        let mut other = reference.clone();
        other.set(&[1, 2], f64::NAN);
        assert_eq!(result.compare_field("lap", &other), Some(f64::INFINITY));
        result.fields.get_mut("lap").unwrap().set(&[1, 2], f64::NAN);
        assert_eq!(result.compare_field("lap", &reference), Some(f64::INFINITY));
        // NaN against NaN agrees.
        assert_eq!(result.compare_field("lap", &other), Some(0.0));
        // So do equal infinities; unequal ones do not.
        other.set(&[2, 2], f64::INFINITY);
        assert_eq!(result.compare_field("lap", &other), Some(f64::INFINITY));
        result
            .fields
            .get_mut("lap")
            .unwrap()
            .set(&[2, 2], f64::INFINITY);
        assert_eq!(result.compare_field("lap", &other), Some(0.0));
        // A masked-out NaN is ignored.
        other.set(&[0, 0], f64::NAN);
        assert_eq!(result.compare_field("lap", &other), Some(0.0));
        // Shape mismatches and unknown fields compare as `None`.
        let small = Grid::zeros(&["i", "j"], &[3, 3], DataType::Float32);
        assert_eq!(result.compare_field("lap", &small), None);
        assert_eq!(result.compare_field("nope", &reference), None);
    }

    /// The comparison written per index: decode each valid flat offset
    /// into an index and read both grids through `get`.
    fn compare_per_index(grid: &Grid, mask: &[bool], other: &Grid) -> f64 {
        let mut max_err: f64 = 0.0;
        for flat in (0..grid.shape().iter().product()).filter(|&flat| mask[flat]) {
            let mut index = vec![0; grid.rank()];
            let mut rest = flat;
            for (ix, &extent) in index.iter_mut().zip(grid.shape()).rev() {
                (*ix, rest) = (rest % extent, rest / extent);
            }
            let (a, b) = (grid.get(&index), other.get(&index));
            if a != b && !(a.is_nan() && b.is_nan()) {
                let err = (a - b).abs() / a.abs().max(b.abs()).max(1.0);
                max_err = max_err.max(if err.is_nan() { f64::INFINITY } else { err });
            }
        }
        max_err
    }

    #[test]
    fn compare_field_matches_a_per_index_walk() {
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n) as usize
        };
        let values = [
            f64::NAN,
            f64::INFINITY,
            -f64::INFINITY,
            0.0,
            0.5,
            -2.75,
            1e-3,
            7.0,
        ];
        let shapes: [&[usize]; 6] = [&[], &[7], &[5, 6], &[4, 3, 5], &[0, 4], &[3, 0, 2]];
        for (round, shape) in shapes.into_iter().cycle().take(120).enumerate() {
            // Every other round draws no NaN or infinity, so that finite
            // errors decide the maximum.
            let pool = &values[3 * (round % 2)..];
            let dims = &["i", "j", "k"][..shape.len()];
            // `other` keeps about half of `grid`'s cells and draws the rest.
            let mut draw = |shared: Option<f64>| match shared.filter(|_| next(2) == 0) {
                Some(value) => value,
                None => pool[next(pool.len() as u64)],
            };
            let grid = Grid::from_fn(dims, shape, DataType::Float64, |_| draw(None));
            let other = Grid::from_fn(dims, shape, DataType::Float64, |ix| {
                draw(Some(grid.get(ix)))
            });
            let mask: Vec<bool> = (0..shape.iter().product()).map(|_| next(3) > 0).collect();
            let expected = compare_per_index(&grid, &mask, &other);
            let fields = BTreeMap::from([("f".to_string(), grid)]);
            let result =
                ExecutionResult::from_parts(fields, BTreeMap::from([("f".into(), mask)]), 0);
            let got = result.compare_field("f", &other);
            assert_eq!(got.map(f64::to_bits), Some(expected.to_bits()), "{shape:?}");
        }
    }

    #[test]
    fn missing_or_misshapen_inputs_are_rejected() {
        let program = laplace_program(&[4, 4]);
        let empty = BTreeMap::new();
        assert!(ReferenceExecutor::new().run(&program, &empty).is_err());
        let mut wrong = BTreeMap::new();
        wrong.insert(
            "a".to_string(),
            Grid::zeros(&["i", "j"], &[3, 3], DataType::Float32),
        );
        assert!(ReferenceExecutor::new().run(&program, &wrong).is_err());
    }

    #[test]
    fn mistyped_inputs_are_rejected_by_both_paths() {
        let program = laplace_program(&[4, 4]);
        let mut wrong = BTreeMap::new();
        wrong.insert(
            "a".to_string(),
            Grid::zeros(&["i", "j"], &[4, 4], DataType::Float64),
        );
        let executor = ReferenceExecutor::new();
        assert!(executor.run(&program, &wrong).is_err());
        assert!(executor.run_interpreted(&program, &wrong).is_err());
    }

    #[test]
    fn lower_dimensional_and_scalar_inputs() {
        let program = StencilProgramBuilder::new("p", &[2, 3, 4])
            .input("a", DataType::Float32, &["i", "j", "k"])
            .input("surf", DataType::Float32, &["i", "k"])
            .scalar("dt", DataType::Float32)
            .stencil("out", "a[i,j,k] + surf[i,k] * dt")
            .output("out")
            .build()
            .unwrap();
        let mut inputs = BTreeMap::new();
        inputs.insert(
            "a".to_string(),
            Grid::from_fn(&["i", "j", "k"], &[2, 3, 4], DataType::Float32, |_| 1.0),
        );
        inputs.insert(
            "surf".to_string(),
            Grid::from_fn(&["i", "k"], &[2, 4], DataType::Float32, |ix| {
                (ix[0] * 4 + ix[1]) as f64
            }),
        );
        inputs.insert("dt".to_string(), Grid::scalar(0.5, DataType::Float32));
        let result = ReferenceExecutor::new().run(&program, &inputs).unwrap();
        let out = result.field("out").unwrap();
        // out[1, 2, 3] = 1 + surf[1,3] * 0.5 = 1 + 7*0.5 = 4.5.
        assert_eq!(out.get(&[1, 2, 3]), 4.5);
        // Independent of j.
        assert_eq!(out.get(&[1, 0, 3]), 4.5);
    }

    #[test]
    fn cells_evaluated_counts_live_stencils() {
        // `dead` reaches no output: it is never swept, so neither its cells
        // nor its division by zero show up in `run`; the interpreter, which
        // sweeps every stencil, reports the error.
        let program = StencilProgramBuilder::new("p", &[2, 2])
            .input("a", DataType::Float32, &["i", "j"])
            .input("n", DataType::Int32, &["i", "j"])
            .stencil("b", "a[i,j] + 1.0")
            .stencil("c", "b[i,j] * 2.0")
            .stencil("dead", "1 / (n[i,j] - n[i,j])")
            .output_type("dead", DataType::Int32)
            .output("c")
            .build()
            .unwrap();
        let inputs = generate_inputs(&program, 3);
        let executor = ReferenceExecutor::new();
        let result = executor.run(&program, &inputs).unwrap();
        assert_eq!(result.cells_evaluated(), 2 * 4);
        // Outputs only.
        assert!(result.field("b").is_none());
        assert!(result.field("c").is_some());
        assert!(executor.run_interpreted(&program, &inputs).is_err());
    }

    #[test]
    fn data_dependent_branches() {
        let program = StencilProgramBuilder::new("p", &[4])
            .input("a", DataType::Float32, &["i"])
            .stencil("relu", "a[i] > 0.0 ? a[i] : 0.0")
            .output("relu")
            .build()
            .unwrap();
        let mut inputs = BTreeMap::new();
        inputs.insert(
            "a".to_string(),
            Grid::from_values(&["i"], &[4], &[-1.0, 2.0, -3.0, 4.0]),
        );
        let result = ReferenceExecutor::new().run(&program, &inputs).unwrap();
        let relu = result.field("relu").unwrap();
        assert_eq!(relu.as_slice(), &[0.0, 2.0, 0.0, 4.0]);
    }

    #[test]
    fn repeated_runs_compile_exactly_once() {
        let program = laplace_program(&[6, 6]);
        let inputs = generate_inputs(&program, 5);
        let executor = ReferenceExecutor::new();
        assert_eq!(executor.compile_count(), 0);
        let first = executor.run(&program, &inputs).unwrap();
        assert_eq!(executor.compile_count(), 1);
        for _ in 0..3 {
            let again = executor.run(&program, &inputs).unwrap();
            assert_eq!(
                again.field("lap").unwrap().as_slice(),
                first.field("lap").unwrap().as_slice()
            );
        }
        assert_eq!(executor.compile_count(), 1);
        // A structurally different program misses the cache.
        let other = laplace_program(&[8, 8]);
        let other_inputs = generate_inputs(&other, 5);
        executor.run(&other, &other_inputs).unwrap();
        assert_eq!(executor.compile_count(), 2);
    }

    #[test]
    fn prepare_then_execute_skips_recompilation() {
        let program = laplace_program(&[6, 6]);
        let inputs = generate_inputs(&program, 6);
        let executor = ReferenceExecutor::new();
        let compiled = executor.prepare(&program).unwrap();
        assert_eq!(executor.compile_count(), 1);
        assert_eq!(compiled.stencil_count(), 1);
        // The all-f32 Laplace kernel specializes.
        assert_eq!(compiled.typed_stencil_count(), 1);
        let via_cache = executor.prepare(&program).unwrap();
        assert_eq!(executor.compile_count(), 1);
        let spec = RunSpec {
            steps: None,
            tier: Tier::Fused,
        };
        let run = |compiled| -> Result<ExecutionResult> {
            Ok(executor.execute(compiled, &inputs, &spec)?.0)
        };
        let a = run(&compiled).unwrap();
        let b = run(&via_cache).unwrap();
        assert_eq!(
            a.field("lap").unwrap().as_slice(),
            b.field("lap").unwrap().as_slice()
        );
        assert_eq!(executor.compile_count(), 1);
    }

    /// A program edited in place must never reach the compilation of what
    /// it was before the edit, while a clone or an identical rebuild of a
    /// prepared program is a cache hit.
    #[test]
    fn stored_fingerprint_is_never_stale() {
        let build = || {
            StencilProgramBuilder::new("edited", &[6, 7])
                .input("a", DataType::Float64, &["i", "j"])
                .stencil(
                    "lap",
                    "-4.0*a[i,j] + a[i-1,j] + a[i+1,j] + a[i,j-1] + a[i,j+1]",
                )
                .shrink("lap")
                .stencil("spare", "0.5 * a[i,j]")
                .output("lap")
                .build()
                .unwrap()
        };
        let executor = ReferenceExecutor::new();
        let agrees_with_interpreter = |program: &StencilProgram| {
            let inputs = generate_inputs(program, 9);
            let run = executor.run(program, &inputs).unwrap();
            let reference = executor.run_interpreted(program, &inputs).unwrap();
            for name in program.outputs() {
                let bits = |r: &ExecutionResult| -> Vec<u64> {
                    r.field(name)
                        .unwrap()
                        .as_slice()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect()
                };
                assert_eq!(bits(&run), bits(&reference), "{name}");
                assert_eq!(run.valid_mask(name), reference.valid_mask(name), "{name}");
            }
            run
        };

        let mut program = build();
        let before = agrees_with_interpreter(&program);
        assert_eq!(executor.compile_count(), 1);
        executor.prepare(&program.clone()).unwrap();
        executor.prepare(&build()).unwrap();
        assert_eq!(executor.compile_count(), 1);

        let body = StencilNode::parse("lap", "a[i,j] - a[i-1,j]").unwrap();
        program.insert_stencil(body);
        let edited = agrees_with_interpreter(&program);
        assert_eq!(executor.compile_count(), 2);
        assert_ne!(
            edited.field("lap").unwrap().as_slice(),
            before.field("lap").unwrap().as_slice()
        );

        program.remove_stencil("spare").unwrap();
        agrees_with_interpreter(&program);
        assert_eq!(executor.compile_count(), 3);
        assert_eq!(executor.prepare(&program).unwrap().stencil_count(), 1);
        assert_eq!(executor.compile_count(), 3);
    }

    #[test]
    fn run_steps_matches_manual_ping_pong() {
        let program = StencilProgramBuilder::new("diffuse", &[8, 8])
            .input("u", DataType::Float32, &["i", "j"])
            .stencil(
                "u_next",
                "0.25 * (u[i-1,j] + u[i+1,j] + u[i,j-1] + u[i,j+1])",
            )
            .output("u_next")
            .build()
            .unwrap();
        let inputs = generate_inputs(&program, 11);
        let executor = ReferenceExecutor::new();

        let stepped = executor.run_steps(&program, &inputs, 3).unwrap();

        // Manual ping-pong through individual runs.
        let mut work = inputs.clone();
        let mut last = None;
        for _ in 0..3 {
            let result = executor.run(&program, &work).unwrap();
            work.insert("u".to_string(), result.field("u_next").unwrap().clone());
            last = Some(result);
        }
        let manual = last.unwrap();
        for (a, b) in stepped
            .field("u_next")
            .unwrap()
            .as_slice()
            .iter()
            .zip(manual.field("u_next").unwrap().as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // All steps (and the manual runs) share one compilation.
        assert_eq!(executor.compile_count(), 1);
        // cells_evaluated accumulates over steps.
        assert_eq!(stepped.cells_evaluated(), 3 * 64);
    }

    #[test]
    fn run_steps_pairs_feedback_by_name_prefix() {
        // Outputs declared out of name order still feed their namesake
        // state fields: a_next -> a and b_next -> b, never transposed.
        let program = StencilProgramBuilder::new("coupled", &[4])
            .input("a", DataType::Float32, &["i"])
            .input("b", DataType::Float32, &["i"])
            .stencil("a_next", "a[i] + 1.0")
            .stencil("b_next", "b[i] * 2.0")
            .output("b_next")
            .output("a_next")
            .build()
            .unwrap();
        let mut inputs = BTreeMap::new();
        inputs.insert(
            "a".to_string(),
            Grid::from_values(&["i"], &[4], &[0.0, 0.0, 0.0, 0.0]),
        );
        inputs.insert(
            "b".to_string(),
            Grid::from_values(&["i"], &[4], &[1.0, 1.0, 1.0, 1.0]),
        );
        let result = ReferenceExecutor::new()
            .run_steps(&program, &inputs, 3)
            .unwrap();
        // a increments per step (0 -> 3), b doubles per step (1 -> 8).
        assert_eq!(result.field("a_next").unwrap().get(&[0]), 3.0);
        assert_eq!(result.field("b_next").unwrap().get(&[0]), 8.0);
    }

    #[test]
    fn run_steps_prefix_pairing_resists_sort_order_traps() {
        // `h`/`h2` sort differently from `h_next`/`h2_next` ('2' < '_' in
        // byte order), so positional pairing of sorted names would swap the
        // state grids; longest-prefix matching pairs them correctly.
        let program = StencilProgramBuilder::new("trap", &[4])
            .input("h", DataType::Float32, &["i"])
            .input("h2", DataType::Float32, &["i"])
            .stencil("h_next", "h[i] + 1.0")
            .stencil("h2_next", "h2[i] * 2.0")
            .output("h_next")
            .output("h2_next")
            .build()
            .unwrap();
        let mut inputs = BTreeMap::new();
        inputs.insert(
            "h".to_string(),
            Grid::from_values(&["i"], &[4], &[0.0, 0.0, 0.0, 0.0]),
        );
        inputs.insert(
            "h2".to_string(),
            Grid::from_values(&["i"], &[4], &[1.0, 1.0, 1.0, 1.0]),
        );
        let result = ReferenceExecutor::new()
            .run_steps(&program, &inputs, 3)
            .unwrap();
        assert_eq!(result.field("h_next").unwrap().get(&[0]), 3.0);
        assert_eq!(result.field("h2_next").unwrap().get(&[0]), 8.0);

        // Outputs that name no state input are rejected, not mis-paired.
        let unnamed = StencilProgramBuilder::new("unnamed", &[4])
            .input("a", DataType::Float32, &["i"])
            .input("b", DataType::Float32, &["i"])
            .stencil("x", "a[i] + 1.0")
            .stencil("y", "b[i] * 2.0")
            .output("x")
            .output("y")
            .build()
            .unwrap();
        let mut unnamed_inputs = BTreeMap::new();
        unnamed_inputs.insert(
            "a".to_string(),
            Grid::from_values(&["i"], &[4], &[0.0, 0.0, 0.0, 0.0]),
        );
        unnamed_inputs.insert(
            "b".to_string(),
            Grid::from_values(&["i"], &[4], &[1.0, 1.0, 1.0, 1.0]),
        );
        assert!(ReferenceExecutor::new()
            .run_steps(&unnamed, &unnamed_inputs, 2)
            .is_err());
    }

    #[test]
    fn run_steps_rejects_unpairable_programs() {
        // Two outputs, one full-rank input: no valid feedback pairing.
        let program = StencilProgramBuilder::new("p", &[4])
            .input("a", DataType::Float32, &["i"])
            .stencil("x", "a[i] + 1.0")
            .stencil("y", "a[i] * 2.0")
            .output("x")
            .output("y")
            .build()
            .unwrap();
        let inputs = generate_inputs(&program, 1);
        let executor = ReferenceExecutor::new();
        assert!(executor.run_steps(&program, &inputs, 2).is_err());
        // Zero steps are rejected.
        let ok = laplace_program(&[4, 4]);
        let ok_inputs = generate_inputs(&ok, 1);
        assert!(executor.run_steps(&ok, &ok_inputs, 0).is_err());
    }

    #[test]
    fn run_steps_keeps_lower_dimensional_inputs_fixed() {
        let program = StencilProgramBuilder::new("forced", &[4, 4])
            .input("u", DataType::Float32, &["i", "j"])
            .input("force", DataType::Float32, &["j"])
            .stencil("u_next", "0.5 * u[i,j] + force[j]")
            .output("u_next")
            .build()
            .unwrap();
        let mut inputs = BTreeMap::new();
        inputs.insert(
            "u".to_string(),
            Grid::from_fn(&["i", "j"], &[4, 4], DataType::Float32, |_| 1.0),
        );
        inputs.insert(
            "force".to_string(),
            Grid::from_values(&["j"], &[4], &[1.0, 2.0, 3.0, 4.0]),
        );
        let executor = ReferenceExecutor::new();
        let result = executor.run_steps(&program, &inputs, 2).unwrap();
        // After two steps: u2 = 0.5*(0.5*1 + f) + f = 0.25 + 1.5*f.
        let out = result.field("u_next").unwrap();
        for j in 0..4 {
            let f = (j + 1) as f64;
            assert_eq!(out.get(&[2, j]), 0.25 + 1.5 * f);
        }
    }

    #[test]
    fn parallel_threshold_accounts_for_access_weight() {
        let executor = ReferenceExecutor::new().with_max_threads(8);
        // Light sweep below the cell·access threshold: sequential.
        assert_eq!(executor.worker_threads(256, 1 << 12, 2), 1);
        // The same cell count with a heavy per-cell access pattern crosses
        // the threshold (modulo the hardware cap of this machine).
        let hardware = host_threads();
        assert_eq!(
            executor.worker_threads(256, 1 << 12, min_heavy_accesses()),
            hardware.min(8).min(256)
        );
    }

    /// Smallest per-cell access count that pushes 2^12 cells over the
    /// threshold.
    fn min_heavy_accesses() -> usize {
        PARALLEL_THRESHOLD_CELL_ACCESSES / (1 << 12)
    }

    #[test]
    fn fingerprint_hash_distinguishes_programs_and_is_stable() {
        let a = laplace_program(&[4, 4]);
        let b = laplace_program(&[8, 8]);
        // Deterministic across calls, sensitive to the iteration space.
        assert_eq!(program_fingerprint(&a), program_fingerprint(&a));
        assert_ne!(program_fingerprint(&a), program_fingerprint(&b));
        // A structural hash: an identical program built again hashes the
        // same, whatever object it is.
        assert_eq!(
            program_fingerprint(&laplace_program(&[4, 4])),
            program_fingerprint(&a)
        );
    }

    #[test]
    fn pool_capacity_bounds_retention() {
        let mut pool = Pool::with_capacity(2);
        pool.release(vec![0.0; 8]);
        pool.release(vec![0.0; 8]);
        pool.release(vec![0.0; 8]); // dropped: over capacity
        assert_eq!(pool.buffers.len(), 2);
        // Both retained buffers serve hits; the third acquire misses.
        let a = pool.acquire(8);
        let b = pool.acquire(8);
        assert_eq!(pool.misses, 0);
        let c = pool.acquire(8);
        assert_eq!(pool.misses, 1);
        drop((a, b, c));
    }

    #[test]
    fn pool_reserve_serves_copies_of_what_it_holds_at_any_length() {
        let mut pool = Pool::with_capacity(16);
        pool.release(vec![0.0; 5]);
        pool.release(vec![0.0; 10]);
        pool.reserve(2);
        assert_eq!(pool.buffers.len(), 6);
        assert_eq!(
            pool.buffers.iter().filter(|b| b.capacity() == 10).count(),
            5
        );
        // Two jobs with two buffers out each, all at the largest length:
        // the copies of the 5-cell buffer would have been no use.
        let out: Vec<_> = (0..4).map(|_| pool.acquire(10)).collect();
        assert_eq!(pool.misses, 0);
        drop(out);
        // The retention cap still bounds it.
        pool.reserve(100);
        assert_eq!(pool.buffers.len(), 16);
    }

    #[test]
    fn mask_pool_returns_all_true_masks() {
        let executor = ReferenceExecutor::new().with_pooled_results(true);
        let mut mask = executor.alloc_result_mask(6);
        assert_eq!(executor.mask_pool_miss_count(), 1);
        mask[3] = false;
        executor.release_mask(mask);
        let again = executor.alloc_result_mask(6);
        assert_eq!(
            executor.mask_pool_miss_count(),
            1,
            "steady state hits the pool"
        );
        assert!(again.iter().all(|&v| v), "pooled masks are reset to true");
    }
}
