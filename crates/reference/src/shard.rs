//! Tier-3½: the fault-tolerant sharded halo-exchange runtime.
//!
//! The paper maps one stencil DAG across a chain of devices; this module is
//! the reproduction's data-parallel analogue on one host: the iteration
//! space is split along the outermost dimension into contiguous slabs
//! ([`stencilflow_core::SlabPartition`]), each slab is driven by a worker
//! thread through the existing fused/lane tier, and neighbors exchange halo
//! slabs between temporal windows over the shared `Fifo` channel layer
//! ([`stencilflow_core::channel`], the same type the cycle simulator wires
//! between stencil units).
//!
//! # Bit-identity under sharding
//!
//! Each shard runs a **slab program**: the original program replayed through
//! [`StencilProgramBuilder`] with the outermost extent replaced by the
//! slab's row count. A slab is the shard's owned interior dilated by
//! `R × W` extra rows per artificial edge, where `R` is the cumulative
//! outermost-dimension halo radius of the DAG per time step and `W` the
//! number of steps per window. Values computed at an artificial edge see
//! the wrong boundary condition, but that contamination moves inward at
//! most `R` rows per step — after `W` steps the owned interior is untouched
//! and therefore **bitwise identical** to the single-domain run (the real
//! global edges are kept by the first and last shard, so boundary handling
//! and shrink masks coincide there too). Between windows each shard keeps
//! only its interior, receives the `R × W` rows adjoining it from its
//! neighbors' interiors, and feeds the reassembled slab into the next
//! window. Faults can therefore delay or degrade a run, but never change
//! its bits: every recovery path re-derives the same interior rows.
//!
//! # Fault model
//!
//! A seed-driven [`FaultPlan`] is threaded through the channel layer: halo
//! frames can be dropped, delayed, duplicated, or corrupted (payload bit
//! flip), and a worker can be stalled or panicked at a chosen window. Every
//! data frame carries a per-link sequence number and an FNV checksum over
//! the payload bits; receivers discard stale duplicates, detect corruption,
//! and re-request frames over a reverse control channel with exponential
//! backoff under a bounded retry budget. Injected faults hit only the first
//! transmission of a frame, so one resend always recovers — recovery within
//! the budget is deterministic. A progress watchdog on the supervisor
//! detects global stalls, names the starved edge, and cross-checks the
//! fig04-style minimum-depth rule (a link must hold at least one whole
//! frame) against the live configuration. Anything unrecoverable — retry
//! budget exhausted, a dead worker, a watchdog trip — poisons the runtime
//! and the supervisor **degrades** to the single-shard fused tier, which is
//! bitwise identical by construction.

use crate::executor::{CompiledProgram, ExecutionResult, ReferenceExecutor, RunSpec};
use crate::grid::Grid;
use crate::tier::{Tier, TierPolicy};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use stencilflow_core::channel::Fifo;
use stencilflow_core::shardlink::{
    halo_radius, minimum_link_depth_words, FRAME_HEADER_WORDS as HEADER_WORDS,
};
use stencilflow_core::SlabPartition;
use stencilflow_program::{ProgramError, Result, StencilProgram, StencilProgramBuilder};

/// Injected fault schedule for one sharded run, decided deterministically
/// from the seed: the same plan over the same program and shard count
/// replays the same faults.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for all per-frame fault decisions.
    pub seed: u64,
    /// Per-mille probability that a data frame's first transmission is
    /// dropped.
    pub drop_per_mille: u16,
    /// Per-mille probability that a data frame's first transmission is
    /// delayed by [`FaultPlan::delay`].
    pub delay_per_mille: u16,
    /// Per-mille probability that a data frame is enqueued twice.
    pub duplicate_per_mille: u16,
    /// Per-mille probability that a data frame's first transmission has one
    /// payload bit flipped.
    pub corrupt_per_mille: u16,
    /// Sender-side delay applied by the delay fault.
    pub delay: Duration,
    /// Panic worker `.0` at the start of window `.1`.
    pub panic_worker: Option<(usize, usize)>,
    /// Stall worker `.0` at the start of window `.1` for duration `.2`.
    pub stall_worker: Option<(usize, usize, Duration)>,
}

impl FaultPlan {
    /// No injected faults.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            drop_per_mille: 0,
            delay_per_mille: 0,
            duplicate_per_mille: 0,
            corrupt_per_mille: 0,
            delay: Duration::from_millis(1),
            panic_worker: None,
            stall_worker: None,
        }
    }

    /// Drop roughly a third of first transmissions.
    pub fn dropped_halo(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_per_mille: 350,
            ..FaultPlan::none()
        }
    }

    /// Delay roughly half of the transmissions by a millisecond.
    pub fn delayed_halo(seed: u64) -> Self {
        FaultPlan {
            seed,
            delay_per_mille: 500,
            ..FaultPlan::none()
        }
    }

    /// Duplicate roughly half of the frames.
    pub fn duplicated_halo(seed: u64) -> Self {
        FaultPlan {
            seed,
            duplicate_per_mille: 500,
            ..FaultPlan::none()
        }
    }

    /// Flip a payload bit in roughly a third of first transmissions.
    pub fn corrupted_halo(seed: u64) -> Self {
        FaultPlan {
            seed,
            corrupt_per_mille: 350,
            ..FaultPlan::none()
        }
    }

    /// Panic the given worker at the start of the given window (always
    /// unrecoverable: the run degrades to the single-shard tier).
    pub fn worker_panic(shard: usize, window: usize) -> Self {
        FaultPlan {
            panic_worker: Some((shard, window)),
            ..FaultPlan::none()
        }
    }

    /// Stall the given worker at the start of the given window. Stalls
    /// shorter than the watchdog bound recover; longer ones trip it.
    pub fn worker_stall(shard: usize, window: usize, stall: Duration) -> Self {
        FaultPlan {
            stall_worker: Some((shard, window, stall)),
            ..FaultPlan::none()
        }
    }

    /// Whether the plan injects nothing.
    pub fn is_none(&self) -> bool {
        self.drop_per_mille == 0
            && self.delay_per_mille == 0
            && self.duplicate_per_mille == 0
            && self.corrupt_per_mille == 0
            && self.panic_worker.is_none()
            && self.stall_worker.is_none()
    }

    /// Deterministic fault decision for transmission `seq` on link
    /// `link_salt`.
    fn roll(&self, link_salt: u64, seq: u64) -> InjectedFault {
        let x = splitmix(
            self.seed
                ^ link_salt.wrapping_mul(0x9e3779b97f4a7c15)
                ^ seq.wrapping_mul(0xff51afd7ed558ccd),
        );
        let r = (x % 1000) as u16;
        let mut edge = self.drop_per_mille;
        if r < edge {
            return InjectedFault::Drop;
        }
        edge += self.corrupt_per_mille;
        if r < edge {
            return InjectedFault::Corrupt;
        }
        edge += self.duplicate_per_mille;
        if r < edge {
            return InjectedFault::Duplicate;
        }
        edge += self.delay_per_mille;
        if r < edge {
            return InjectedFault::Delay;
        }
        InjectedFault::None
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InjectedFault {
    None,
    Drop,
    Delay,
    Duplicate,
    Corrupt,
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Configuration of a sharded run.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Requested number of worker shards (reduced automatically when the
    /// domain cannot give every shard its halo-dilation floor).
    pub shards: usize,
    /// Fault schedule to inject.
    pub fault_plan: FaultPlan,
    /// Maximum resend requests per missing frame before the shard gives up
    /// and the run degrades.
    pub retry_budget: u32,
    /// First retry deadline; doubles per attempt (exponential backoff).
    pub backoff: Duration,
    /// Progress watchdog bound: if nothing moves globally for this long,
    /// the supervisor reports the starved edge and degrades.
    pub watchdog: Duration,
    /// Halo link capacity override in words. `None` sizes links from the
    /// fig04-style minimum (one whole frame) with headroom; tests pass a
    /// small value to induce the deadlock the watchdog must catch.
    pub link_capacity_words: Option<usize>,
    /// Steps per exchange window override. `None` picks
    /// `min(fusion window, steps)`, reduced to 1 when shards exceed the
    /// host's parallelism (smaller windows mean less redundant dilation
    /// compute, which dominates when shards time-slice cores).
    pub window: Option<usize>,
}

impl ShardConfig {
    /// Default configuration for `shards` workers with no faults.
    pub fn shards(shards: usize) -> Self {
        ShardConfig {
            shards,
            fault_plan: FaultPlan::none(),
            retry_budget: 8,
            backoff: Duration::from_millis(4),
            watchdog: Duration::from_millis(1000),
            link_capacity_words: None,
            window: None,
        }
    }

    /// Attach a fault plan.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Override the progress watchdog bound.
    pub fn with_watchdog(mut self, bound: Duration) -> Self {
        self.watchdog = bound;
        self
    }

    /// Override the halo link capacity in words.
    pub fn with_link_capacity_words(mut self, words: usize) -> Self {
        self.link_capacity_words = Some(words);
        self
    }

    /// Override the exchange window (steps between halo exchanges).
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = Some(window.max(1));
        self
    }
}

/// Per-shard execution statistics.
#[derive(Debug, Clone, Default)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Owned interior rows.
    pub rows: usize,
    /// Cells evaluated by this shard (dilation recompute included).
    pub cells_evaluated: usize,
    /// Data frames sent (first transmissions).
    pub frames_sent: usize,
    /// Halo payload words sent, resends included.
    pub words_sent: usize,
    /// Data frames accepted.
    pub frames_received: usize,
    /// Resend requests this shard issued (timeouts and corruption).
    pub nacks_sent: usize,
    /// Frames this shard resent on request.
    pub frames_resent: usize,
    /// Stale or duplicate frames discarded.
    pub stale_discarded: usize,
    /// Frames rejected by the checksum.
    pub corrupt_detected: usize,
    /// Faults the plan injected on this shard's sends.
    pub faults_injected: usize,
    /// Wall-clock spent computing windows.
    pub compute: Duration,
    /// Wall-clock spent in halo exchange (waiting included).
    pub exchange: Duration,
}

/// What the progress watchdog saw when it tripped (or when a sender
/// detected an undersized link outright).
#[derive(Debug, Clone)]
pub struct WatchdogReport {
    /// The channel whose starvation blocks progress.
    pub starved_edge: String,
    /// Exchange window in which the stall happened.
    pub window: usize,
    /// Configured link capacity in words.
    pub configured_capacity_words: usize,
    /// Minimum capacity the fig04-style rule requires: one whole frame.
    pub required_frame_words: usize,
    /// Whether the static analysis agrees with the live observation (a
    /// configured capacity below the required minimum can never drain).
    pub analysis_agrees: bool,
    /// Status of every worker at detection time.
    pub worker_status: Vec<String>,
}

/// Outcome report of a sharded run.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Effective number of shards (after domain-driven reduction).
    pub shards: usize,
    /// Steps per exchange window.
    pub window: usize,
    /// Halo dilation rows per artificial edge (`R × W`).
    pub halo_rows: usize,
    /// Cumulative per-step halo radius `R` of the DAG.
    pub radius: usize,
    /// Host hardware parallelism observed at run time.
    pub host_threads: usize,
    /// Whether the run fell back to the single-shard fused tier.
    pub degraded: bool,
    /// Why the run degraded, when it did.
    pub degrade_reason: Option<String>,
    /// Watchdog findings, when a stall was detected.
    pub watchdog: Option<WatchdogReport>,
    /// Per-shard statistics (empty when planning degenerated to one shard
    /// before workers launched).
    pub per_shard: Vec<ShardStats>,
    /// Chronological fault/recovery log.
    pub fault_log: Vec<String>,
    /// Total wall-clock of the sharded phase.
    pub elapsed: Duration,
}

impl ShardReport {
    /// Total halo payload bytes sent across all shards (8-byte words).
    pub fn halo_bytes_sent(&self) -> usize {
        self.per_shard.iter().map(|s| s.words_sent * 8).sum()
    }
}

/// A sharded execution result: the assembled grids plus the robustness
/// report.
#[derive(Debug)]
pub struct ShardedOutcome {
    /// Program outputs (and their validity masks), bitwise identical to the
    /// single-domain interpreter.
    pub result: ExecutionResult,
    /// What happened along the way.
    pub report: ShardReport,
}

// ---------------------------------------------------------------------------
// Halo frames over the shared Fifo channel layer.
// ---------------------------------------------------------------------------

/// Sentinel first word of every frame (compared bit-exactly).
const MAGIC: u64 = 0x5374656e63696c46; // "StencilF"

fn fnv_checksum(words: &[f64]) -> u64 {
    let mut hash = 0xcbf29ce484222325u64;
    for w in words {
        for b in w.to_bits().to_le_bytes() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x100000001b3);
        }
    }
    hash
}

fn encode_frame(seq: u64, window: usize, field: usize, payload: &[f64]) -> Vec<f64> {
    let mut words = Vec::with_capacity(HEADER_WORDS + payload.len());
    words.push(f64::from_bits(MAGIC));
    words.push(seq as f64);
    words.push(window as f64);
    words.push(field as f64);
    words.push(payload.len() as f64);
    words.push(f64::from_bits(fnv_checksum(payload)));
    words.extend_from_slice(payload);
    words
}

#[derive(Debug)]
struct Frame {
    seq: u64,
    window: usize,
    field: usize,
    payload: Vec<f64>,
    checksum_ok: bool,
}

/// One direction of a halo channel: a `Fifo` behind a mutex, with frames
/// pushed and popped atomically so the queue always holds whole frames.
struct HaloLink {
    name: String,
    capacity: usize,
    fifo: Mutex<Fifo>,
}

impl HaloLink {
    fn new(name: String, capacity: usize) -> Self {
        HaloLink {
            capacity,
            fifo: Mutex::new(Fifo::new(&name, capacity)),
            name,
        }
    }

    /// Push a whole frame if it fits; `false` means back-pressure.
    fn try_push_frame(&self, words: &[f64]) -> bool {
        let mut fifo = self.fifo.lock().expect("halo link poisoned");
        if !fifo.can_push_n(words.len()) {
            return false;
        }
        for &w in words {
            fifo.push(0, w)
                .expect("frame space reserved by the can_push_n check above");
        }
        true
    }

    /// Pop one whole frame if any is queued.
    fn try_pop_frame(&self) -> Option<Frame> {
        let mut fifo = self.fifo.lock().expect("halo link poisoned");
        if fifo.is_empty() {
            return None;
        }
        // Frames are pushed atomically under the same lock, so a non-empty
        // queue starts with a complete frame.
        let mut header = [0f64; HEADER_WORDS];
        for slot in header.iter_mut() {
            *slot = fifo.pop(0).expect("whole frames are always queued");
        }
        debug_assert_eq!(header[0].to_bits(), MAGIC, "halo frame lost sync");
        let len = header[4] as usize;
        let mut payload = Vec::with_capacity(len);
        for _ in 0..len {
            payload.push(fifo.pop(0).expect("whole frames are always queued"));
        }
        let checksum_ok = fnv_checksum(&payload) == header[5].to_bits();
        Some(Frame {
            seq: header[1] as u64,
            window: header[2] as usize,
            field: header[3] as usize,
            payload,
            checksum_ok,
        })
    }
}

/// The four channels across one shard boundary `b | b+1`: halo data in both
/// directions plus a reverse control (resend request) channel per data
/// direction. Control channels are assumed reliable; the fault plan only
/// touches data frames.
struct BoundaryLinks {
    /// Halo data, shard `b` → `b+1`.
    data_up: HaloLink,
    /// Halo data, shard `b+1` → `b`.
    data_down: HaloLink,
    /// Resend requests for `data_up`, shard `b+1` → `b`.
    nack_up: HaloLink,
    /// Resend requests for `data_down`, shard `b` → `b+1`.
    nack_down: HaloLink,
}

// ---------------------------------------------------------------------------
// Shared supervisor state.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum WorkerStatus {
    Idle,
    Computing {
        window: usize,
    },
    SendBlocked {
        edge: String,
        window: usize,
        needed: usize,
        capacity: usize,
    },
    Waiting {
        edge: String,
        window: usize,
        field: usize,
    },
    Draining,
    Done,
    Failed {
        reason: String,
    },
}

impl WorkerStatus {
    fn describe(&self, shard: usize) -> String {
        match self {
            WorkerStatus::Idle => format!("shard {shard}: idle"),
            WorkerStatus::Computing { window } => {
                format!("shard {shard}: computing window {window}")
            }
            WorkerStatus::SendBlocked {
                edge,
                window,
                needed,
                capacity,
            } => format!(
                "shard {shard}: blocked sending {needed} words on `{edge}` \
                 (capacity {capacity}) in window {window}"
            ),
            WorkerStatus::Waiting {
                edge,
                window,
                field,
            } => format!("shard {shard}: waiting on `{edge}` for field {field} in window {window}"),
            WorkerStatus::Draining => format!("shard {shard}: draining resend requests"),
            WorkerStatus::Done => format!("shard {shard}: done"),
            WorkerStatus::Failed { reason } => format!("shard {shard}: failed ({reason})"),
        }
    }
}

struct Shared {
    poison: AtomicBool,
    poison_reason: Mutex<Option<String>>,
    progress: AtomicU64,
    /// Workers whose final-window compute has finished (once all have, no
    /// one can still need a resend and drains may exit).
    computed: AtomicUsize,
    /// Workers whose thread has returned.
    done: AtomicUsize,
    status: Vec<Mutex<WorkerStatus>>,
    fault_log: Mutex<Vec<String>>,
    watchdog: Mutex<Option<WatchdogReport>>,
    /// Workers signal here after bumping `done`, so the supervisor wakes
    /// immediately on completion instead of burning poll slices (which
    /// contend with the workers on small hosts).
    done_signal: (Mutex<()>, std::sync::Condvar),
}

impl Shared {
    fn new(shards: usize) -> Self {
        Shared {
            poison: AtomicBool::new(false),
            poison_reason: Mutex::new(None),
            progress: AtomicU64::new(0),
            computed: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            status: (0..shards)
                .map(|_| Mutex::new(WorkerStatus::Idle))
                .collect(),
            fault_log: Mutex::new(Vec::new()),
            watchdog: Mutex::new(None),
            done_signal: (Mutex::new(()), std::sync::Condvar::new()),
        }
    }

    /// Mark this worker's thread as finished and wake the supervisor.
    fn finish(&self) {
        self.done.fetch_add(1, Ordering::AcqRel);
        let (lock, cv) = &self.done_signal;
        drop(lock.lock().expect("done signal"));
        cv.notify_all();
    }

    fn poisoned(&self) -> bool {
        self.poison.load(Ordering::Acquire)
    }

    fn poison(&self, reason: String) {
        let mut slot = self.poison_reason.lock().expect("poison reason");
        if slot.is_none() {
            *slot = Some(reason);
        }
        drop(slot);
        self.poison.store(true, Ordering::Release);
    }

    fn bump(&self) {
        self.progress.fetch_add(1, Ordering::Relaxed);
    }

    fn log(&self, entry: String) {
        self.fault_log.lock().expect("fault log").push(entry);
    }

    fn set_status(&self, shard: usize, status: WorkerStatus) {
        *self.status[shard].lock().expect("status slot") = status;
    }
}

// ---------------------------------------------------------------------------
// Slab geometry and slab programs.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct SlabGeom {
    /// Owned interior rows (global coordinates).
    start: usize,
    end: usize,
    /// Slab rows including dilation (global coordinates).
    lo: usize,
    hi: usize,
}

impl SlabGeom {
    fn rows(&self) -> usize {
        self.end - self.start
    }
    fn slab_rows(&self) -> usize {
        self.hi - self.lo
    }
    /// Local row index of the first interior row.
    fn interior_offset(&self) -> usize {
        self.start - self.lo
    }
}

/// Replay the program through the builder with the outermost extent
/// replaced by `rows` — the same replay technique the JSON round-trip uses,
/// so every stencil, boundary condition, output type, and the vectorization
/// width carry over exactly.
fn build_slab_program(program: &StencilProgram, rows: usize) -> Result<StencilProgram> {
    let space = program.space();
    let mut shape = space.shape.clone();
    shape[0] = rows;
    let dims: Vec<&str> = space.dims.iter().map(String::as_str).collect();
    let mut builder = StencilProgramBuilder::new(program.name(), &shape).dims(&dims);
    for (name, decl) in program.inputs() {
        let field_dims: Vec<&str> = decl.dims.iter().map(String::as_str).collect();
        builder = builder.input(name, decl.data_type(), &field_dims);
    }
    for stencil in program.stencils() {
        builder = builder.stencil(&stencil.name, &stencil.code);
        for (field, condition) in &stencil.boundary.per_field {
            builder = builder.boundary(&stencil.name, field, *condition);
        }
        if stencil.boundary.shrink {
            builder = builder.shrink(&stencil.name);
        }
        builder = builder.output_type(&stencil.name, stencil.output_type);
    }
    for output in program.outputs() {
        builder = builder.output(output);
    }
    builder.vectorization(program.vectorization()).build()
}

/// Slice `grid` to rows `[lo, hi)` of the outermost iteration-space
/// dimension. Grids that do not span that dimension pass through whole.
fn slice_grid_rows(grid: &Grid, dim0: &str, lo: usize, hi: usize) -> Result<Grid> {
    let Some(pos) = grid.dims().iter().position(|d| d == dim0) else {
        return Ok(grid.clone());
    };
    if pos != 0 {
        return Err(ProgramError::Invalid {
            message: format!(
                "field dimension `{dim0}` is not outermost in {:?}; the \
                 sharded runtime partitions only the outermost dimension",
                grid.dims()
            ),
        });
    }
    let row_words: usize = grid.shape()[1..].iter().product::<usize>().max(1);
    let mut shape = grid.shape().to_vec();
    shape[0] = hi - lo;
    let dims: Vec<&str> = grid.dims().iter().map(String::as_str).collect();
    Ok(Grid::from_values_typed(
        &dims,
        &shape,
        grid.data_type(),
        &grid.as_slice()[lo * row_words..hi * row_words],
    ))
}

// ---------------------------------------------------------------------------
// The runtime.
// ---------------------------------------------------------------------------

struct Plan {
    shards: usize,
    window: usize,
    windows: usize,
    /// Total time steps of the run (1 in single-application mode).
    total_steps: usize,
    radius: usize,
    halo_rows: usize,
    row_words: usize,
    geoms: Vec<SlabGeom>,
    /// Feedback pairs `(output field, input field)`; empty in single-window
    /// single-application mode.
    pairs: Vec<(String, String)>,
    /// Data frame payload words (one halo slab).
    payload_words: usize,
    link_capacity: usize,
}

fn plan_run(
    exec: &ReferenceExecutor,
    program: &StencilProgram,
    steps: usize,
    steps_mode: bool,
    config: &ShardConfig,
) -> Result<Plan> {
    if config.shards == 0 {
        return Err(ProgramError::Invalid {
            message: "sharded execution requires at least one shard".into(),
        });
    }
    let space = program.space();
    let extent = space.shape[0];
    let row_words: usize = space.shape[1..].iter().product::<usize>().max(1);
    let radius = halo_radius(program)?;
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let mut shards = config.shards.min(extent).max(1);
    let mut window = config
        .window
        .unwrap_or(if shards > host { 1 } else { exec.fusion_window })
        .clamp(1, steps.max(1));
    // Shrink the window (then the shard count) until every shard can own at
    // least its dilation depth, so halos always come from interior rows.
    let slabs = loop {
        let min_rows = (radius * window).max(1);
        match SlabPartition::split(extent, shards, min_rows) {
            Ok(slabs) => break slabs,
            Err(_) if window > 1 => window -= 1,
            Err(_) if shards > 1 => shards -= 1,
            Err(e) => {
                return Err(ProgramError::Invalid {
                    message: format!("cannot shard `{}`: {e}", program.name()),
                })
            }
        }
    };
    // A single shard exchanges no halos, so there is no reason to cut the
    // run into windows: one fused call over all steps keeps the zero-fault
    // overhead down to slicing, one thread spawn, and reassembly. Explicit
    // window overrides are honored (tests pin them).
    if shards == 1 && config.window.is_none() {
        window = steps.max(1);
    }

    let halo_rows = radius * window;
    let geoms: Vec<SlabGeom> = slabs
        .ranges
        .iter()
        .map(|r| SlabGeom {
            start: r.start,
            end: r.end,
            lo: r.start.saturating_sub(halo_rows),
            hi: (r.end + halo_rows).min(extent),
        })
        .collect();

    let pairs = if steps_mode {
        exec.prepare(program)?.feedback_pairs()?
    } else {
        Vec::new()
    };

    let payload_words = halo_rows * row_words;
    // Default capacity: room for every feedback field's frame in both the
    // original and a duplicated transmission, so two neighbors pushing at
    // each other before either drains can never mutually block.
    let link_capacity = config
        .link_capacity_words
        .unwrap_or_else(|| 4 * pairs.len().max(1) * minimum_link_depth_words(payload_words));
    Ok(Plan {
        shards,
        window,
        windows: steps.max(1).div_ceil(window),
        total_steps: steps.max(1),
        radius,
        halo_rows,
        row_words,
        geoms,
        pairs,
        payload_words,
        link_capacity,
    })
}

/// Shard slabs (and the degraded single-shard rerun) always take the
/// fused tier: a single application, or `steps` time steps.
fn fused_spec(steps_mode: bool, steps: usize) -> RunSpec {
    RunSpec {
        steps: steps_mode.then_some(steps),
        tier: TierPolicy::Fixed(Tier::Fused),
    }
}

/// Entry point shared by [`ReferenceExecutor::run_sharded`] and
/// [`ReferenceExecutor::run_steps_sharded`].
pub(crate) fn run_sharded(
    exec: &ReferenceExecutor,
    program: &StencilProgram,
    inputs: &BTreeMap<String, Grid>,
    steps: usize,
    steps_mode: bool,
    config: &ShardConfig,
) -> Result<ShardedOutcome> {
    if steps_mode && steps == 0 {
        return Err(ProgramError::Invalid {
            message: "run_steps requires at least one time step".into(),
        });
    }
    let started = Instant::now();
    let plan = plan_run(exec, program, steps, steps_mode, config)?;
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let global = exec.prepare(program)?;

    let space = program.space();
    // Compile every distinct slab height once up front (the worker
    // executors receive the compiled programs and never touch the cache).
    // A slab covering the whole outer extent — the single-shard case — is
    // the original program, so reuse its compilation instead of replaying
    // the builder.
    let mut slab_programs: BTreeMap<usize, std::sync::Arc<CompiledProgram>> = BTreeMap::new();
    for geom in &plan.geoms {
        if let std::collections::btree_map::Entry::Vacant(entry) =
            slab_programs.entry(geom.slab_rows())
        {
            if geom.slab_rows() == space.shape[0] {
                entry.insert(std::sync::Arc::clone(&global));
            } else {
                let slab = build_slab_program(program, geom.slab_rows())?;
                entry.insert(exec.prepare(&slab)?);
            }
        }
    }

    let dim0 = space.dims[0].clone();
    // Per-shard initial inputs: every grid sliced to the shard's slab.
    let mut shard_inputs: Vec<BTreeMap<String, Grid>> = Vec::with_capacity(plan.shards);
    for geom in &plan.geoms {
        let mut sliced = BTreeMap::new();
        for (name, grid) in inputs {
            sliced.insert(
                name.clone(),
                slice_grid_rows(grid, &dim0, geom.lo, geom.hi)?,
            );
        }
        shard_inputs.push(sliced);
    }

    let shared = Shared::new(plan.shards);
    let links: Vec<BoundaryLinks> = (0..plan.shards.saturating_sub(1))
        .map(|b| BoundaryLinks {
            data_up: HaloLink::new(format!("halo[{b}->{}]", b + 1), plan.link_capacity),
            data_down: HaloLink::new(format!("halo[{}->{b}]", b + 1), plan.link_capacity),
            nack_up: HaloLink::new(format!("nack[{}->{b}]", b + 1), 64 * HEADER_WORDS),
            nack_down: HaloLink::new(format!("nack[{b}->{}]", b + 1), 64 * HEADER_WORDS),
        })
        .collect();

    let outcomes: Vec<std::result::Result<WorkerOutput, String>> = {
        let shared = &shared;
        let links = &links;
        let plan_ref = &plan;
        let slab_programs = &slab_programs;
        let config_ref = config;
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(plan_ref.shards);
            for (shard, initial) in shard_inputs.drain(..).enumerate() {
                let geom = plan_ref.geoms[shard];
                let compiled = std::sync::Arc::clone(&slab_programs[&geom.slab_rows()]);
                let worker_exec = exec.clone().with_max_threads(1);
                handles.push(scope.spawn(move || {
                    let run = catch_unwind(AssertUnwindSafe(|| {
                        worker_run(
                            WorkerSpec {
                                shard,
                                geom,
                                plan: plan_ref,
                                links,
                                shared,
                                config: config_ref,
                                steps_mode,
                            },
                            compiled,
                            worker_exec,
                            initial,
                        )
                    }));
                    let outcome = match run {
                        Ok(result) => result,
                        Err(panic) => Err(format!(
                            "shard {shard} panicked: {}",
                            crate::serve::panic_message(panic)
                        )),
                    };
                    if let Err(reason) = &outcome {
                        shared.set_status(
                            shard,
                            WorkerStatus::Failed {
                                reason: reason.clone(),
                            },
                        );
                        shared.poison(reason.clone());
                        shared.log(format!("shard {shard}: failed: {reason}"));
                    }
                    shared.finish();
                    outcome
                }));
            }

            // Supervisor: progress watchdog. Trips when nothing moves
            // globally for the configured bound and names the starved
            // edge. Sleeps on the completion condvar between checks, so
            // finishing workers wake it immediately and the zero-fault
            // overhead of short runs stays free of poll latency.
            let mut last_progress = shared.progress.load(Ordering::Relaxed);
            let mut last_change = Instant::now();
            {
                let (lock, cv) = &shared.done_signal;
                let mut guard = lock.lock().expect("done signal");
                while shared.done.load(Ordering::Acquire) < plan_ref.shards {
                    let (g, _) = cv
                        .wait_timeout(guard, Duration::from_millis(2))
                        .expect("done signal");
                    guard = g;
                    let progress = shared.progress.load(Ordering::Relaxed);
                    if progress != last_progress {
                        last_progress = progress;
                        last_change = Instant::now();
                        continue;
                    }
                    if shared.poisoned() {
                        continue; // workers are already unwinding
                    }
                    if last_change.elapsed() > config_ref.watchdog {
                        let report = watchdog_report(shared, plan_ref);
                        shared.log(format!(
                            "watchdog: no progress for {:?}; starved edge `{}`",
                            config_ref.watchdog, report.starved_edge
                        ));
                        *shared.watchdog.lock().expect("watchdog slot") = Some(report);
                        shared.poison("progress watchdog tripped".to_string());
                    }
                }
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("worker outcome"))
                .collect()
        })
    };

    let mut per_shard = Vec::new();
    let mut worker_fields: Vec<Option<WorkerOutput>> = Vec::new();
    let mut failure: Option<String> = None;
    for outcome in outcomes {
        match outcome {
            Ok(output) => {
                per_shard.push(output.stats.clone());
                worker_fields.push(Some(output));
            }
            Err(reason) => {
                if failure.is_none() {
                    failure = Some(reason);
                }
                worker_fields.push(None);
            }
        }
    }
    let watchdog = shared.watchdog.lock().expect("watchdog slot").clone();
    if watchdog.is_some() && failure.is_none() {
        failure = Some("progress watchdog tripped".to_string());
    }

    let mut report = ShardReport {
        shards: plan.shards,
        window: plan.window,
        halo_rows: plan.halo_rows,
        radius: plan.radius,
        host_threads: host,
        degraded: false,
        degrade_reason: None,
        watchdog,
        per_shard,
        fault_log: shared.fault_log.lock().expect("fault log").clone(),
        elapsed: started.elapsed(),
    };

    if let Some(reason) = failure {
        // Graceful degradation: one bit-identical single-shard fused run.
        report.degraded = true;
        report.degrade_reason = Some(reason.clone());
        report
            .fault_log
            .push(format!("degraded to the single-shard fused tier: {reason}"));
        let (result, _) = exec.execute(&global, inputs, &fused_spec(steps_mode, steps))?;
        report.elapsed = started.elapsed();
        return Ok(ShardedOutcome { result, report });
    }

    // Assemble the global outputs from each shard's interior rows.
    let dim_refs: Vec<&str> = space.dims.iter().map(String::as_str).collect();
    let mut fields: BTreeMap<String, Grid> = BTreeMap::new();
    let mut masks: BTreeMap<String, Vec<bool>> = BTreeMap::new();
    let mut cells = 0usize;
    for output in program.outputs() {
        let dtype = worker_fields
            .first()
            .and_then(|w| w.as_ref())
            .and_then(|w| w.fields.get(output))
            .map(|g| g.data_type())
            .ok_or_else(|| ProgramError::Invalid {
                message: format!("shard 0 produced no output `{output}`"),
            })?;
        let mut grid = Grid::zeros(&dim_refs, &space.shape, dtype);
        let mut mask = vec![true; space.num_cells()];
        for (shard, slot) in worker_fields.iter().enumerate() {
            let worker = slot.as_ref().expect("non-degraded runs keep every worker");
            let geom = plan.geoms[shard];
            let slab_grid = worker.fields.get(output).expect("outputs are uniform");
            let slab_mask = worker.masks.get(output).expect("outputs carry masks");
            let src_lo = geom.interior_offset() * plan.row_words;
            let src_hi = src_lo + geom.rows() * plan.row_words;
            let dst_lo = geom.start * plan.row_words;
            grid.as_mut_slice()[dst_lo..dst_lo + (src_hi - src_lo)]
                .copy_from_slice(&slab_grid.as_slice()[src_lo..src_hi]);
            mask[dst_lo..dst_lo + (src_hi - src_lo)].copy_from_slice(&slab_mask[src_lo..src_hi]);
        }
        fields.insert(output.clone(), grid);
        masks.insert(output.clone(), mask);
    }
    for slot in &worker_fields {
        cells += slot.as_ref().map(|w| w.stats.cells_evaluated).unwrap_or(0);
    }

    Ok(ShardedOutcome {
        result: ExecutionResult::from_parts(fields, masks, cells),
        report,
    })
}

struct WorkerOutput {
    fields: BTreeMap<String, Grid>,
    masks: BTreeMap<String, Vec<bool>>,
    stats: ShardStats,
}

/// Receiver-side state of one inbound data link.
#[derive(Default)]
struct RecvState {
    last_seq: u64,
    /// Frames accepted ahead of time, keyed by `(window, field)`. A sender
    /// can run at most one window ahead, so this stays tiny.
    pending: BTreeMap<(usize, usize), Vec<f64>>,
}

/// Everything a worker thread needs that outlives one window: identity,
/// geometry, and the shared runtime environment. One bundle instead of the
/// seven loose parameters `worker_run` used to take.
struct WorkerSpec<'a> {
    shard: usize,
    geom: SlabGeom,
    plan: &'a Plan,
    links: &'a [BoundaryLinks],
    shared: &'a Shared,
    config: &'a ShardConfig,
    steps_mode: bool,
}

/// Halo-protocol state of one worker: identity and links plus the mutable
/// sequence counters, retained payloads, and receive buffers the exchange
/// used to thread through every call as loose `&mut` parameters (each of
/// the former free functions needed `#[allow(clippy::too_many_arguments)]`;
/// as methods they take at most three).
struct Comms<'a> {
    shard: usize,
    plan: &'a Plan,
    links: &'a [BoundaryLinks],
    shared: &'a Shared,
    stats: ShardStats,
    /// Sequence counters start at 1 so `last_seq == 0` means "nothing
    /// received yet".
    seq_up: u64,
    seq_down: u64,
    /// Retained clean payloads per outbound direction, keyed by
    /// `(window, field)`. A sender runs at most one window ahead of either
    /// neighbor, so retaining the last two windows always covers every
    /// resend request that can still arrive.
    retained_up: BTreeMap<(usize, usize), Vec<f64>>,
    retained_down: BTreeMap<(usize, usize), Vec<f64>>,
    /// Inbound state: `recv_low` from shard-1 via `data_up[shard-1]`,
    /// `recv_high` from shard+1 via `data_down[shard]`.
    recv_low: RecvState,
    recv_high: RecvState,
}

impl<'a> Comms<'a> {
    fn new(
        shard: usize,
        geom: SlabGeom,
        plan: &'a Plan,
        links: &'a [BoundaryLinks],
        shared: &'a Shared,
    ) -> Self {
        Comms {
            shard,
            plan,
            links,
            shared,
            stats: ShardStats {
                shard,
                rows: geom.rows(),
                ..ShardStats::default()
            },
            seq_up: 1,
            seq_down: 1,
            retained_up: BTreeMap::new(),
            retained_down: BTreeMap::new(),
            recv_low: RecvState::default(),
            recv_high: RecvState::default(),
        }
    }

    /// Send one halo frame (`up` = toward shard+1), applying the fault
    /// plan to the first transmission.
    fn send_halo(
        &mut self,
        window: usize,
        field: usize,
        payload: Vec<f64>,
        up: bool,
        faults: &FaultPlan,
    ) -> std::result::Result<(), String> {
        let shard = self.shard;
        let links = self.links;
        let shared = self.shared;
        let (link, salt, seq, retained) = if up {
            (
                &links[shard].data_up,
                link_salt(shard, true),
                &mut self.seq_up,
                &mut self.retained_up,
            )
        } else {
            (
                &links[shard - 1].data_down,
                link_salt(shard, false),
                &mut self.seq_down,
                &mut self.retained_down,
            )
        };
        let this_seq = *seq;
        *seq += 1;
        let fault = faults.roll(salt, this_seq);
        // Retain the clean payload for resends; drop windows no neighbor
        // can still request (senders run at most one window ahead).
        retained.insert((window, field), payload.clone());
        retained.retain(|&(w, _), _| w + 2 > window);
        self.stats.frames_sent += 1;
        match fault {
            InjectedFault::Drop => {
                self.stats.faults_injected += 1;
                shared.log(format!(
                    "shard {shard}: dropped frame seq {this_seq} (window {window}, field \
                     {field}) on `{}`",
                    link.name
                ));
                Ok(()) // the receiver's timeout + resend request recovers it
            }
            InjectedFault::Corrupt => {
                self.stats.faults_injected += 1;
                // Flip a payload bit *after* encoding, so the checksum in
                // the header still describes the clean payload and the
                // receiver can tell the frame was damaged in flight.
                let mut words = encode_frame(this_seq, window, field, &payload);
                let victim = HEADER_WORDS
                    + (splitmix(this_seq ^ faults.seed) as usize) % payload.len().max(1);
                words[victim] = f64::from_bits(words[victim].to_bits() ^ (1 << 17));
                shared.log(format!(
                    "shard {shard}: corrupted frame seq {this_seq} (window {window}, field \
                     {field}) on `{}`",
                    link.name
                ));
                push_frame(shard, window, link, &words, shared, &mut self.stats)
            }
            InjectedFault::Duplicate => {
                self.stats.faults_injected += 1;
                shared.log(format!(
                    "shard {shard}: duplicated frame seq {this_seq} (window {window}, field \
                     {field}) on `{}`",
                    link.name
                ));
                let frame = encode_frame(this_seq, window, field, &payload);
                push_frame(shard, window, link, &frame, shared, &mut self.stats)?;
                push_frame(shard, window, link, &frame, shared, &mut self.stats)
            }
            InjectedFault::Delay => {
                self.stats.faults_injected += 1;
                shared.log(format!(
                    "shard {shard}: delayed frame seq {this_seq} (window {window}, field \
                     {field}) on `{}` by {:?}",
                    link.name, faults.delay
                ));
                std::thread::sleep(faults.delay);
                push_frame(
                    shard,
                    window,
                    link,
                    &encode_frame(this_seq, window, field, &payload),
                    shared,
                    &mut self.stats,
                )
            }
            InjectedFault::None => push_frame(
                shard,
                window,
                link,
                &encode_frame(this_seq, window, field, &payload),
                shared,
                &mut self.stats,
            ),
        }
    }

    /// Serve resend requests arriving on this shard's inbound control
    /// links.
    fn service_nacks(&mut self) {
        let shard = self.shard;
        let links = self.links;
        let shared = self.shared;
        // Requests about our upward data frames come from shard+1.
        if shard + 1 < self.plan.shards {
            while let Some(request) = links[shard].nack_up.try_pop_frame() {
                if let Some(payload) = self.retained_up.get(&(request.window, request.field)) {
                    let seq = self.seq_up;
                    self.seq_up += 1;
                    let frame = encode_frame(seq, request.window, request.field, payload);
                    // Resends are never faulted: injected faults only hit
                    // first transmissions, which bounds recovery.
                    if links[shard].data_up.try_push_frame(&frame) {
                        self.stats.frames_resent += 1;
                        self.stats.words_sent += payload.len();
                        shared.bump();
                        shared.log(format!(
                            "shard {shard}: resent window {} field {} on `{}`",
                            request.window, request.field, links[shard].data_up.name
                        ));
                    }
                }
            }
        }
        // Requests about our downward data frames come from shard-1.
        if shard > 0 {
            while let Some(request) = links[shard - 1].nack_down.try_pop_frame() {
                if let Some(payload) = self.retained_down.get(&(request.window, request.field)) {
                    let seq = self.seq_down;
                    self.seq_down += 1;
                    let frame = encode_frame(seq, request.window, request.field, payload);
                    if links[shard - 1].data_down.try_push_frame(&frame) {
                        self.stats.frames_resent += 1;
                        self.stats.words_sent += payload.len();
                        shared.bump();
                        shared.log(format!(
                            "shard {shard}: resent window {} field {} on `{}`",
                            request.window,
                            request.field,
                            links[shard - 1].data_down.name
                        ));
                    }
                }
            }
        }
    }

    /// Drain one inbound data link into the receive state, validating
    /// frames and requesting resends of corrupt ones. `from_high` drains
    /// the link from shard+1, otherwise the one from shard-1.
    fn drain_data_link(&mut self, from_high: bool) {
        let shard = self.shard;
        let links = self.links;
        let shared = self.shared;
        let (link, nack_link, state) = if from_high {
            (
                &links[shard].data_down,
                &links[shard].nack_down,
                &mut self.recv_high,
            )
        } else {
            (
                &links[shard - 1].data_up,
                &links[shard - 1].nack_up,
                &mut self.recv_low,
            )
        };
        let stats = &mut self.stats;
        while let Some(frame) = link.try_pop_frame() {
            if !frame.checksum_ok {
                stats.corrupt_detected += 1;
                stats.nacks_sent += 1;
                shared.log(format!(
                    "shard {shard}: checksum mismatch on `{}` (window {}, field {}); \
                     requesting resend",
                    link.name, frame.window, frame.field
                ));
                let _ = nack_link.try_push_frame(&encode_frame(0, frame.window, frame.field, &[]));
                continue;
            }
            if frame.seq <= state.last_seq
                || state.pending.contains_key(&(frame.window, frame.field))
            {
                stats.stale_discarded += 1;
                shared.log(format!(
                    "shard {shard}: discarded stale/duplicate seq {} on `{}`",
                    frame.seq, link.name
                ));
                continue;
            }
            state.last_seq = frame.seq;
            stats.frames_received += 1;
            state
                .pending
                .insert((frame.window, frame.field), frame.payload);
            shared.bump();
        }
    }

    /// Wait (bounded, with exponential backoff and resend requests) for
    /// every halo this shard needs before the next window.
    fn collect_halos(
        &mut self,
        window: usize,
        config: &ShardConfig,
        halos: &mut BTreeMap<(bool, usize), Vec<f64>>,
    ) -> std::result::Result<(), String> {
        let shard = self.shard;
        let links = self.links;
        let shared = self.shared;
        // (from_high_neighbor, field) -> retry state.
        let mut spins = 0u32;
        let mut missing: BTreeMap<(bool, usize), (u32, Instant)> = BTreeMap::new();
        for field in 0..self.plan.pairs.len() {
            if shard > 0 {
                missing.insert((false, field), (0, Instant::now() + config.backoff));
            }
            if shard + 1 < self.plan.shards {
                missing.insert((true, field), (0, Instant::now() + config.backoff));
            }
        }

        while !missing.is_empty() {
            if shared.poisoned() {
                return Err(poison_reason(shared));
            }
            if shard > 0 {
                self.drain_data_link(false);
            }
            if shard + 1 < self.plan.shards {
                self.drain_data_link(true);
            }
            let (recv_low, recv_high) = (&mut self.recv_low, &mut self.recv_high);
            missing.retain(|&(from_high, field), _| {
                let state = if from_high {
                    &mut *recv_high
                } else {
                    &mut *recv_low
                };
                match state.pending.remove(&(window, field)) {
                    Some(payload) => {
                        halos.insert((from_high, field), payload);
                        false
                    }
                    None => true,
                }
            });
            if missing.is_empty() {
                break;
            }
            // While waiting, serve the neighbors' resend requests —
            // otherwise two shards waiting on each other's resends would
            // deadlock.
            self.service_nacks();
            let now = Instant::now();
            for (&(from_high, field), (attempts, deadline)) in missing.iter_mut() {
                if now < *deadline {
                    continue;
                }
                if *attempts >= config.retry_budget {
                    let edge = if from_high {
                        &links[shard].data_down.name
                    } else {
                        &links[shard - 1].data_up.name
                    };
                    return Err(format!(
                        "shard {shard}: retry budget ({}) exhausted waiting for window \
                         {window} field {field} on `{edge}`",
                        config.retry_budget
                    ));
                }
                let (nack_link, edge) = if from_high {
                    (&links[shard].nack_down, &links[shard].data_down.name)
                } else {
                    (&links[shard - 1].nack_up, &links[shard - 1].data_up.name)
                };
                self.stats.nacks_sent += 1;
                shared.log(format!(
                    "shard {shard}: window {window} field {field} overdue on `{edge}` \
                     (attempt {}); requesting resend",
                    *attempts + 1
                ));
                let _ = nack_link.try_push_frame(&encode_frame(0, window, field, &[]));
                *attempts += 1;
                *deadline = now + config.backoff * 2u32.saturating_pow(*attempts);
                shared.set_status(
                    shard,
                    WorkerStatus::Waiting {
                        edge: edge.clone(),
                        window,
                        field,
                    },
                );
            }
            relax(&mut spins);
        }
        Ok(())
    }

    /// After the final window: keep answering resend requests until every
    /// worker has finished computing (then nobody can still need us).
    fn drain_until_all_done(&mut self) {
        let mut spins = 0u32;
        while self.shared.computed.load(Ordering::Acquire) < self.plan.shards
            && !self.shared.poisoned()
        {
            self.service_nacks();
            relax(&mut spins);
        }
    }
}

fn worker_run(
    spec: WorkerSpec<'_>,
    compiled: std::sync::Arc<CompiledProgram>,
    worker_exec: ReferenceExecutor,
    mut work_inputs: BTreeMap<String, Grid>,
) -> std::result::Result<WorkerOutput, String> {
    let WorkerSpec {
        shard,
        geom,
        plan,
        links,
        shared,
        config,
        steps_mode,
    } = spec;
    let faults = &config.fault_plan;
    let mut comms = Comms::new(shard, geom, plan, links, shared);
    let mut steps_done = 0usize;

    for window in 0..plan.windows {
        if shared.poisoned() {
            return Err(poison_reason(shared));
        }
        if let Some((victim, at)) = faults.panic_worker {
            if victim == shard && at == window {
                shared.log(format!("shard {shard}: injected panic at window {window}"));
                panic!("injected fault: worker {shard} dies at window {window}");
            }
        }
        if let Some((victim, at, stall)) = faults.stall_worker {
            if victim == shard && at == window {
                shared.log(format!(
                    "shard {shard}: injected stall of {stall:?} at window {window}"
                ));
                // Sleep in short slices so poisoning (e.g. by the watchdog)
                // wakes the worker promptly.
                let until = Instant::now() + stall;
                while Instant::now() < until && !shared.poisoned() {
                    std::thread::sleep(Duration::from_millis(1));
                }
                if shared.poisoned() {
                    return Err(poison_reason(shared));
                }
            }
        }

        let window_steps = if steps_mode {
            plan.window.min(plan.total_steps - steps_done)
        } else {
            1
        };
        shared.set_status(shard, WorkerStatus::Computing { window });
        let compute_started = Instant::now();
        let (result, _) = worker_exec
            .execute(
                &compiled,
                &work_inputs,
                &fused_spec(steps_mode, window_steps),
            )
            .map_err(|e| format!("shard {shard} window {window}: {e}"))?;
        comms.stats.compute += compute_started.elapsed();
        comms.stats.cells_evaluated += result.cells_evaluated();
        steps_done += window_steps;
        shared.bump();

        if window + 1 == plan.windows {
            // Last window: surface the slab outputs, then keep serving
            // resend requests until every worker has finished computing —
            // a neighbor may still need our previous frames.
            shared.computed.fetch_add(1, Ordering::AcqRel);
            let (fields, masks, _) = result.into_parts();
            shared.set_status(shard, WorkerStatus::Draining);
            let exchange_started = Instant::now();
            comms.drain_until_all_done();
            comms.stats.exchange += exchange_started.elapsed();
            shared.set_status(shard, WorkerStatus::Done);
            return Ok(WorkerOutput {
                fields,
                masks,
                stats: comms.stats,
            });
        }

        // Halo exchange: ship the rows adjoining each artificial edge (they
        // are interior, hence exact), then reassemble the next window's
        // inputs as neighbor frames arrive — compute of other shards
        // overlaps this transfer.
        let exchange_started = Instant::now();
        let mut result = result;
        for (field_id, (out_field, _)) in plan.pairs.iter().enumerate() {
            let grid = result
                .field(out_field)
                .ok_or_else(|| format!("shard {shard}: output `{out_field}` missing"))?;
            let interior = geom.interior_offset();
            if shard + 1 < plan.shards {
                // Top rows [end - halo, end) feed shard+1's low dilation.
                let lo = (interior + geom.rows() - plan.halo_rows) * plan.row_words;
                let payload = grid.as_slice()[lo..lo + plan.payload_words].to_vec();
                comms.send_halo(window, field_id, payload, true, faults)?;
            }
            if shard > 0 {
                // Bottom rows [start, start + halo) feed shard-1's high
                // dilation.
                let lo = interior * plan.row_words;
                let payload = grid.as_slice()[lo..lo + plan.payload_words].to_vec();
                comms.send_halo(window, field_id, payload, false, faults)?;
            }
        }

        // Collect the halos this shard needs for the next window.
        let mut halos: BTreeMap<(bool, usize), Vec<f64>> = BTreeMap::new();
        comms.collect_halos(window, config, &mut halos)?;
        comms.stats.exchange += exchange_started.elapsed();

        // Reassemble the next window's inputs: own interior stays, the
        // dilation rows are replaced by the neighbors' interiors.
        for (field_id, (out_field, in_field)) in plan.pairs.iter().enumerate() {
            let mut grid = result
                .take_field(out_field)
                .ok_or_else(|| format!("shard {shard}: output `{out_field}` missing"))?;
            let slice = grid.as_mut_slice();
            if shard > 0 {
                let payload = halos.get(&(false, field_id)).expect("low halo collected");
                slice[..plan.payload_words].copy_from_slice(payload);
            }
            if shard + 1 < plan.shards {
                let payload = halos.get(&(true, field_id)).expect("high halo collected");
                let lo = (geom.slab_rows() - plan.halo_rows) * plan.row_words;
                slice[lo..lo + plan.payload_words].copy_from_slice(payload);
            }
            work_inputs.insert(in_field.clone(), grid);
        }
    }
    unreachable!("the last window always returns")
}

fn poison_reason(shared: &Shared) -> String {
    shared
        .poison_reason
        .lock()
        .expect("poison reason")
        .clone()
        .unwrap_or_else(|| "runtime poisoned".to_string())
}

fn link_salt(shard: usize, up: bool) -> u64 {
    (shard as u64) << 1 | u64::from(up)
}

/// Adaptive wait for the worker polling loops: yield the core for the
/// first spins — on time-sliced hosts the neighbor being waited on needs
/// exactly this core — then back off to short sleeps.
fn relax(spins: &mut u32) {
    if *spins < 64 {
        *spins += 1;
        std::thread::yield_now();
    } else {
        std::thread::sleep(Duration::from_micros(100));
    }
}

/// Push a whole frame, treating persistent back-pressure as a live
/// cross-check of the fig04-style minimum-depth rule: a link that cannot
/// even hold one frame can never drain, so the sender reports the starved
/// edge immediately instead of hanging until the watchdog fires.
fn push_frame(
    shard: usize,
    window: usize,
    link: &HaloLink,
    words: &[f64],
    shared: &Shared,
    stats: &mut ShardStats,
) -> std::result::Result<(), String> {
    if link.capacity < words.len() {
        let report = WatchdogReport {
            starved_edge: link.name.clone(),
            window,
            configured_capacity_words: link.capacity,
            required_frame_words: words.len(),
            analysis_agrees: true,
            worker_status: describe_all(shared),
        };
        shared.log(format!(
            "shard {shard}: `{}` is undersized ({} words < one {}-word frame): \
             the buffer analysis minimum is violated, the link can never drain",
            link.name,
            link.capacity,
            words.len()
        ));
        *shared.watchdog.lock().expect("watchdog slot") = Some(report);
        return Err(format!(
            "deadlock on `{}`: capacity {} words below the one-frame minimum of {}",
            link.name,
            link.capacity,
            words.len()
        ));
    }
    let mut spins = 0u32;
    loop {
        if link.try_push_frame(words) {
            stats.words_sent += words.len().saturating_sub(HEADER_WORDS);
            shared.bump();
            return Ok(());
        }
        if shared.poisoned() {
            return Err(poison_reason(shared));
        }
        shared.set_status(
            shard,
            WorkerStatus::SendBlocked {
                edge: link.name.clone(),
                window,
                needed: words.len(),
                capacity: link.capacity,
            },
        );
        relax(&mut spins);
    }
}

fn describe_all(shared: &Shared) -> Vec<String> {
    shared
        .status
        .iter()
        .enumerate()
        .map(|(shard, slot)| slot.lock().expect("status slot").describe(shard))
        .collect()
}

/// Build the watchdog's report: pick the starved edge from the worker
/// statuses and cross-check the live configuration against the fig04-style
/// one-frame minimum depth.
fn watchdog_report(shared: &Shared, plan: &Plan) -> WatchdogReport {
    let statuses: Vec<WorkerStatus> = shared
        .status
        .iter()
        .map(|slot| slot.lock().expect("status slot").clone())
        .collect();
    let required = minimum_link_depth_words(plan.payload_words);
    let mut starved_edge = "<unknown>".to_string();
    let mut window = 0usize;
    let mut configured = plan.link_capacity;
    // A blocked sender is the sharpest signal (its edge can provably not
    // accept a frame); a waiting receiver the second best.
    for status in &statuses {
        if let WorkerStatus::SendBlocked {
            edge,
            window: w,
            capacity,
            ..
        } = status
        {
            starved_edge = edge.clone();
            window = *w;
            configured = *capacity;
            break;
        }
    }
    if starved_edge == "<unknown>" {
        for status in &statuses {
            if let WorkerStatus::Waiting {
                edge, window: w, ..
            } = status
            {
                starved_edge = edge.clone();
                window = *w;
                break;
            }
        }
    }
    WatchdogReport {
        starved_edge,
        window,
        configured_capacity_words: configured,
        required_frame_words: required,
        analysis_agrees: configured < required,
        worker_status: statuses
            .iter()
            .enumerate()
            .map(|(shard, s)| s.describe(shard))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencilflow_expr::DataType;

    fn diffusion_program(shape: &[usize; 3]) -> StencilProgram {
        StencilProgramBuilder::new("diffuse", shape)
            .input("h", DataType::Float64, &["i", "j", "k"])
            .stencil(
                "h_next",
                "(h[i-1,j,k] + h[i+1,j,k] + h[i,j-1,k] + h[i,j+1,k] + h[i,j,k-1] \
                 + h[i,j,k+1]) / 6.0",
            )
            .boundary(
                "h_next",
                "h",
                stencilflow_program::BoundaryCondition::Constant(0.5),
            )
            .output_type("h_next", DataType::Float64)
            .output("h_next")
            .build()
            .unwrap()
    }

    fn ramp_inputs(program: &StencilProgram) -> BTreeMap<String, Grid> {
        let space = program.space();
        let mut inputs = BTreeMap::new();
        for (name, decl) in program.inputs() {
            let dims: Vec<&str> = decl.dims.iter().map(String::as_str).collect();
            let shape = crate::plan::declared_shape(space, &decl.dims);
            let mut counter = 0.0f64;
            let grid = Grid::from_fn(&dims, &shape, decl.data_type(), |_| {
                counter += 1.0;
                (counter * 0.37).sin()
            });
            inputs.insert(name.to_string(), grid);
        }
        inputs
    }

    #[test]
    fn halo_radius_accumulates_along_the_dag() {
        let program = diffusion_program(&[12, 6, 6]);
        assert_eq!(halo_radius(&program).unwrap(), 1);
        let chained = StencilProgramBuilder::new("chain", &[16, 6, 6])
            .input("a", DataType::Float32, &["i", "j", "k"])
            .stencil("b", "a[i-1,j,k] + a[i+1,j,k]")
            .stencil("c", "b[i-2,j,k] + b[i+2,j,k]")
            .shrink("b")
            .shrink("c")
            .output("c")
            .build()
            .unwrap();
        assert_eq!(halo_radius(&chained).unwrap(), 3);
    }

    #[test]
    fn slab_program_replay_matches_original_inner_shape() {
        let program = diffusion_program(&[12, 6, 4]);
        let slab = build_slab_program(&program, 5).unwrap();
        assert_eq!(slab.space().shape, vec![5, 6, 4]);
        assert_eq!(slab.stencil_count(), program.stencil_count());
        assert_eq!(slab.outputs(), program.outputs());
    }

    #[test]
    fn frames_round_trip_and_detect_corruption() {
        let payload = vec![1.5, -2.25, f64::NAN.abs(), 0.0];
        let words = encode_frame(7, 3, 1, &payload);
        let link = HaloLink::new("t".into(), 64);
        assert!(link.try_push_frame(&words));
        let frame = link.try_pop_frame().unwrap();
        assert!(frame.checksum_ok);
        assert_eq!(frame.seq, 7);
        assert_eq!(frame.window, 3);
        assert_eq!(frame.field, 1);
        assert_eq!(frame.payload.len(), 4);
        assert_eq!(frame.payload[0], 1.5);

        let mut corrupted = words.clone();
        let victim = HEADER_WORDS + 2;
        corrupted[victim] = f64::from_bits(corrupted[victim].to_bits() ^ 1);
        assert!(link.try_push_frame(&corrupted));
        assert!(!link.try_pop_frame().unwrap().checksum_ok);
    }

    #[test]
    fn sharded_steps_match_the_unsharded_stepper_bitwise() {
        let program = diffusion_program(&[16, 8, 6]);
        let inputs = ramp_inputs(&program);
        let exec = ReferenceExecutor::new();
        let reference = exec.run_steps(&program, &inputs, 5).unwrap();
        for shards in [1usize, 2, 3, 4] {
            let config = ShardConfig::shards(shards).with_window(2);
            let outcome = exec
                .run_steps_sharded(&program, &inputs, 5, &config)
                .unwrap();
            assert!(!outcome.report.degraded, "shards={shards} degraded");
            assert_eq!(outcome.report.shards, shards);
            let got = outcome.result.field("h_next").unwrap();
            let want = reference.field("h_next").unwrap();
            for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "shards={shards}");
            }
            assert_eq!(
                outcome.result.valid_mask("h_next").unwrap(),
                reference.valid_mask("h_next").unwrap()
            );
        }
    }

    #[test]
    fn single_application_sharding_matches_run() {
        let program = diffusion_program(&[20, 6, 4]);
        let inputs = ramp_inputs(&program);
        let exec = ReferenceExecutor::new();
        let reference = exec.run(&program, &inputs).unwrap();
        let outcome = exec
            .run_sharded(&program, &inputs, &ShardConfig::shards(3))
            .unwrap();
        assert!(!outcome.report.degraded);
        let got = outcome.result.field("h_next").unwrap();
        let want = reference.field("h_next").unwrap();
        for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn every_fault_schedule_stays_bit_identical() {
        let program = diffusion_program(&[12, 6, 4]);
        let inputs = ramp_inputs(&program);
        let exec = ReferenceExecutor::new();
        let reference = exec.run_steps(&program, &inputs, 4).unwrap();
        let plans = [
            FaultPlan::none(),
            FaultPlan::dropped_halo(11),
            FaultPlan::delayed_halo(12),
            FaultPlan::duplicated_halo(13),
            FaultPlan::corrupted_halo(14),
        ];
        for plan in plans {
            let config = ShardConfig::shards(3)
                .with_window(1)
                .with_fault_plan(plan.clone());
            let outcome = exec
                .run_steps_sharded(&program, &inputs, 4, &config)
                .unwrap();
            assert!(
                !outcome.report.degraded,
                "recoverable plan degraded: {plan:?}: {:?}",
                outcome.report.degrade_reason
            );
            let got = outcome.result.field("h_next").unwrap();
            let want = reference.field("h_next").unwrap();
            for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "plan {plan:?}");
            }
        }
    }

    #[test]
    fn worker_panic_degrades_and_stays_bit_identical() {
        let program = diffusion_program(&[12, 6, 4]);
        let inputs = ramp_inputs(&program);
        let exec = ReferenceExecutor::new();
        let reference = exec.run_steps(&program, &inputs, 4).unwrap();
        let config = ShardConfig::shards(3)
            .with_window(1)
            .with_fault_plan(FaultPlan::worker_panic(1, 2));
        let outcome = exec
            .run_steps_sharded(&program, &inputs, 4, &config)
            .unwrap();
        assert!(outcome.report.degraded);
        assert!(outcome
            .report
            .degrade_reason
            .as_deref()
            .unwrap()
            .contains("panicked"));
        let got = outcome.result.field("h_next").unwrap();
        let want = reference.field("h_next").unwrap();
        for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn undersized_link_is_detected_with_the_starved_edge() {
        let program = diffusion_program(&[12, 6, 4]);
        let inputs = ramp_inputs(&program);
        let exec = ReferenceExecutor::new();
        let config = ShardConfig::shards(2)
            .with_window(1)
            .with_watchdog(Duration::from_millis(200))
            .with_link_capacity_words(8); // below one frame
        let started = Instant::now();
        let outcome = exec
            .run_steps_sharded(&program, &inputs, 4, &config)
            .unwrap();
        assert!(outcome.report.degraded, "undersized link must degrade");
        let watchdog = outcome.report.watchdog.expect("watchdog report");
        assert!(watchdog.starved_edge.contains("halo["));
        assert!(watchdog.configured_capacity_words < watchdog.required_frame_words);
        assert!(watchdog.analysis_agrees);
        // Detection must be fast, not a hang until some giant timeout.
        assert!(started.elapsed() < Duration::from_secs(5));
        // And the degraded result still matches the stepper bitwise.
        let reference = exec.run_steps(&program, &inputs, 4).unwrap();
        let got = outcome.result.field("h_next").unwrap();
        let want = reference.field("h_next").unwrap();
        for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn watchdog_trips_on_a_stalled_worker() {
        let program = diffusion_program(&[12, 6, 4]);
        let inputs = ramp_inputs(&program);
        let exec = ReferenceExecutor::new();
        let config = ShardConfig::shards(2)
            .with_window(1)
            .with_watchdog(Duration::from_millis(150))
            .with_fault_plan(FaultPlan::worker_stall(0, 1, Duration::from_millis(450)));
        let outcome = exec
            .run_steps_sharded(&program, &inputs, 4, &config)
            .unwrap();
        assert!(outcome.report.degraded);
        let reference = exec.run_steps(&program, &inputs, 4).unwrap();
        let got = outcome.result.field("h_next").unwrap();
        let want = reference.field("h_next").unwrap();
        for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn short_stall_recovers_without_degrading() {
        let program = diffusion_program(&[12, 6, 4]);
        let inputs = ramp_inputs(&program);
        let exec = ReferenceExecutor::new();
        let config = ShardConfig::shards(2)
            .with_window(1)
            .with_watchdog(Duration::from_millis(500))
            .with_fault_plan(FaultPlan::worker_stall(0, 1, Duration::from_millis(30)));
        let outcome = exec
            .run_steps_sharded(&program, &inputs, 4, &config)
            .unwrap();
        assert!(!outcome.report.degraded);
    }
}
