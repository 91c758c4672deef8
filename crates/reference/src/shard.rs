//! Tier-3½: the fault-tolerant sharded halo-exchange runtime.
//!
//! This tier is the robustness harness, not a performance tier:
//! no unpinned run lands on it, and its two bench floors bound its
//! zero-fault overhead against the fused tier, not its speed.
//!
//! The paper maps one stencil DAG across a chain of devices; this module is
//! the reproduction's data-parallel analogue on one host: the iteration
//! space is split along the outermost dimension into contiguous slabs
//! (`stencilflow_core::SlabPartition`), each slab is driven by a worker
//! thread through the fused tier, and neighbors exchange halo slabs
//! between temporal windows over bounded links. Shards, window, slab
//! ranges and link capacity are the ones
//! [`stencilflow_core::shardlink::analyze_shard_links`] resolves — the call
//! that predicts the undersized-link deadlock — so what it sizes is what
//! runs.
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
//! its bits: every recovery path re-derives the same interior rows. A DAG
//! with `R = 0` has nothing to exchange and sends no frames at all.
//!
//! # Frames, links and the fault model
//!
//! A halo slab travels as one frame: a per-link sequence number, the
//! window and feedback field it belongs to, the payload, and an FNV
//! checksum taken over the payload when the frame is built. A link is a
//! mutex-guarded queue of whole frames bounded in *words* — each frame is
//! charged [`stencilflow_core::shardlink::FRAME_HEADER_WORDS`] plus its
//! payload length, the unit the static analysis sizes capacities in — so a
//! link too shallow for one frame can never accept it.
//!
//! A seed-driven [`FaultPlan`] acts where a worker sends: a frame's first
//! transmission can be dropped, delayed, duplicated, or corrupted (one
//! payload bit flipped after the checksum is taken), and a worker can be
//! stalled or panicked at a chosen window. Receivers discard stale
//! duplicates, detect corruption by the checksum, and re-request frames
//! over a reverse request link with exponential backoff under a bounded
//! retry budget (private constants of this module). Injected faults hit
//! only the first transmission of a frame, so one resend always recovers —
//! recovery within the budget is deterministic. A progress watchdog on the
//! supervisor detects global stalls, names the starved edge, and
//! cross-checks the fig04-style minimum-depth rule (a link must hold at
//! least one whole frame) against the live configuration. Anything
//! unrecoverable — retry budget exhausted, a dead worker, a watchdog trip —
//! poisons the runtime and the supervisor **degrades** to the single-shard
//! fused tier, which is bitwise identical by construction.

use crate::executor::{CompiledProgram, ExecutionResult, ReferenceExecutor, RunSpec};
use crate::grid::Grid;
use crate::tier::Tier;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use stencilflow_core::shardlink::{
    analyze_shard_links, ShardLinkRequirement, ShardLinkSpec, FRAME_HEADER_WORDS as HEADER_WORDS,
};
use stencilflow_core::CoreError;
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
    /// delayed by a millisecond on the sender.
    pub delay_per_mille: u16,
    /// Per-mille probability that a data frame is enqueued twice.
    pub duplicate_per_mille: u16,
    /// Per-mille probability that a data frame's first transmission has one
    /// payload bit flipped.
    pub corrupt_per_mille: u16,
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
// Halo frames and the bounded links that carry them.
// ---------------------------------------------------------------------------

/// Resend requests per missing frame before the shard gives up and the run
/// degrades.
const RETRY_BUDGET: u32 = 8;
/// First retry deadline; doubles per attempt (exponential backoff).
const BACKOFF: Duration = Duration::from_millis(4);
/// Sender-side sleep applied by the delay fault.
const FAULT_DELAY: Duration = Duration::from_millis(1);
/// Capacity of a resend-request link: 64 payload-free frames.
const REQUEST_LINK_WORDS: usize = 64 * HEADER_WORDS;

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

/// One halo slab on the wire. A resend request is a frame too: sequence
/// number 0, no payload, naming the `(window, field)` it asks for.
#[derive(Debug, Clone)]
struct Frame {
    seq: u64,
    window: usize,
    field: usize,
    payload: Vec<f64>,
    /// FNV hash of the payload as the sender built it; a frame damaged in
    /// flight no longer matches.
    checksum: u64,
}

impl Frame {
    fn new(seq: u64, window: usize, field: usize, payload: Vec<f64>) -> Self {
        Frame {
            seq,
            window,
            field,
            checksum: fnv_checksum(&payload),
            payload,
        }
    }

    /// Words this frame occupies on a link: the unit link capacities are
    /// sized in.
    fn words(&self) -> usize {
        HEADER_WORDS + self.payload.len()
    }

    fn checksum_ok(&self) -> bool {
        fnv_checksum(&self.payload) == self.checksum
    }
}

/// One direction of a halo channel: a queue of whole frames bounded in
/// words.
struct HaloLink {
    name: String,
    /// Words the queued frames may occupy together.
    capacity: usize,
    queue: Mutex<VecDeque<Frame>>,
}

impl HaloLink {
    fn new(name: String, capacity: usize) -> Self {
        HaloLink {
            name,
            capacity,
            queue: Mutex::new(VecDeque::new()),
        }
    }

    /// Enqueue a copy of `frame` if it fits; `false` means back-pressure.
    fn try_push(&self, frame: &Frame) -> bool {
        let mut queue = self.queue.lock().expect("halo link poisoned");
        let queued: usize = queue.iter().map(Frame::words).sum();
        if queued + frame.words() > self.capacity {
            return false;
        }
        queue.push_back(frame.clone());
        true
    }

    /// Dequeue the oldest frame, if any.
    fn try_pop(&self) -> Option<Frame> {
        self.queue.lock().expect("halo link poisoned").pop_front()
    }
}

/// One direction across a shard boundary: the halo data link plus the
/// reverse link its receiver requests resends on. Request links are assumed
/// reliable; the fault plan only touches data frames.
struct Lane {
    data: HaloLink,
    requests: HaloLink,
}

impl Lane {
    fn new(from: usize, to: usize, capacity: usize) -> Self {
        Lane {
            data: HaloLink::new(format!("halo[{from}->{to}]"), capacity),
            requests: HaloLink::new(format!("nack[{to}->{from}]"), REQUEST_LINK_WORDS),
        }
    }

    /// Ask `data`'s sender to resend `(window, field)`. Best effort: a full
    /// request link drops the request and the receiver's next deadline
    /// asks again.
    fn request_resend(&self, window: usize, field: usize) {
        let request = Frame::new(0, window, field, Vec::new());
        let _ = self.requests.try_push(&request);
    }
}

/// The two lanes across the shard boundary `b | b+1`.
struct Boundary {
    /// Shard `b` → `b+1`.
    up: Lane,
    /// Shard `b+1` → `b`.
    down: Lane,
}

// ---------------------------------------------------------------------------
// Shared supervisor state.
// ---------------------------------------------------------------------------

/// What the watchdog reads of one worker: a line for its report and, when
/// the worker is stuck on a link, which one.
#[derive(Debug, Clone)]
struct WorkerStatus {
    what: String,
    blocked: Option<BlockedEdge>,
}

#[derive(Debug, Clone)]
struct BlockedEdge {
    edge: String,
    window: usize,
    /// The link's capacity when the worker is a sender the link pushes back
    /// on; `None` for a receiver waiting on a frame.
    sender_capacity: Option<usize>,
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
                .map(|_| {
                    Mutex::new(WorkerStatus {
                        what: "idle".to_string(),
                        blocked: None,
                    })
                })
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

    fn set_status(&self, shard: usize, what: String, blocked: Option<BlockedEdge>) {
        *self.status[shard].lock().expect("status slot") = WorkerStatus { what, blocked };
    }

    /// One line per worker, as the watchdog report prints them.
    fn describe_workers(&self) -> Vec<String> {
        self.status
            .iter()
            .enumerate()
            .map(|(shard, slot)| {
                format!("shard {shard}: {}", slot.lock().expect("status slot").what)
            })
            .collect()
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
    /// Shards, window, radius, halo rows and link sizes as the static
    /// link-sizing pass resolved them.
    link: ShardLinkRequirement,
    windows: usize,
    /// Time steps of the run; `None` is one plain application.
    steps: Option<usize>,
    /// One slab per shard.
    geoms: Vec<SlabGeom>,
    /// Feedback pairs `(output field, input field)`; empty for a plain
    /// application.
    pairs: Vec<(String, String)>,
}

/// Choose the requested window, let the static link-sizing pass resolve
/// the geometry (it shrinks an infeasible request and sizes the links), and
/// add what only the runtime needs: slab dilation and the feedback pairs.
fn plan_run(
    exec: &ReferenceExecutor,
    program: &StencilProgram,
    steps: Option<usize>,
    host: usize,
    config: &ShardConfig,
) -> Result<Plan> {
    if config.shards == 0 {
        return Err(ProgramError::Invalid {
            message: "sharded execution requires at least one shard".into(),
        });
    }
    let extent = program.space().shape[0];
    let total_steps = steps.unwrap_or(1);
    let pairs = match steps {
        Some(_) => program.feedback_pairs()?,
        None => Vec::new(),
    };
    let requested = config
        .window
        .unwrap_or(if config.shards.min(extent) > host {
            1
        } else {
            exec.fusion_window
        });
    let spec = ShardLinkSpec {
        link_capacity_words: config.link_capacity_words,
        feedback_pairs: pairs.len(),
        ..ShardLinkSpec::new(config.shards, requested, total_steps)
    };
    let mut link = analyze_shard_links(program, &spec).map_err(|e| match e {
        CoreError::Program(e) => e,
        other => ProgramError::Invalid {
            message: other.to_string(),
        },
    })?;

    // With nothing to exchange — a single shard, or a DAG that reaches no
    // neighboring row — there is no reason to cut the run into windows: one
    // fused call over all steps keeps the zero-fault overhead down to
    // slicing, one thread spawn, and reassembly. Explicit window overrides
    // are honored (tests pin them). The link sizes stay those of the window
    // the pass resolved; such a run has no link to hold them to.
    if (link.shards == 1 || link.radius == 0) && config.window.is_none() {
        link.window = total_steps;
        link.halo_rows = link.radius * total_steps;
    }
    let geoms = link
        .slabs
        .iter()
        .map(|r| SlabGeom {
            start: r.start,
            end: r.end,
            lo: r.start.saturating_sub(link.halo_rows),
            hi: (r.end + link.halo_rows).min(extent),
        })
        .collect();
    Ok(Plan {
        windows: total_steps.div_ceil(link.window),
        link,
        steps,
        geoms,
        pairs,
    })
}

/// Shard slabs (and the degraded single-shard rerun) always take the
/// fused tier: a single application, or `steps` time steps.
fn fused_spec(steps: Option<usize>) -> RunSpec {
    RunSpec {
        steps,
        tier: Tier::Fused,
    }
}

/// Entry point shared by [`ReferenceExecutor::run_sharded`] (`steps` is
/// `None`) and [`ReferenceExecutor::run_steps_sharded`].
pub(crate) fn run_sharded(
    exec: &ReferenceExecutor,
    program: &StencilProgram,
    inputs: &BTreeMap<String, Grid>,
    steps: Option<usize>,
    config: &ShardConfig,
) -> Result<ShardedOutcome> {
    crate::executor::check_steps(steps)?;
    let started = Instant::now();
    let host = crate::executor::host_threads();
    let global = exec.prepare(program)?;
    let plan = plan_run(exec, program, steps, host, config)?;
    let (shards, row_words) = (plan.link.shards, plan.link.row_words);

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
    let mut shard_inputs: Vec<BTreeMap<String, Grid>> = Vec::with_capacity(shards);
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

    let capacity = plan.link.configured_capacity_words;
    let links: Vec<Boundary> = (0..shards - 1)
        .map(|b| Boundary {
            up: Lane::new(b, b + 1, capacity),
            down: Lane::new(b + 1, b, capacity),
        })
        .collect();
    let shared = Shared::new(shards);

    let outcomes: Vec<std::result::Result<WorkerOutput, ShardFailure>> = {
        let (shared, links, plan, slab_programs) = (&shared, &links, &plan, &slab_programs);
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(shards);
            for (shard, initial) in shard_inputs.drain(..).enumerate() {
                let compiled =
                    std::sync::Arc::clone(&slab_programs[&plan.geoms[shard].slab_rows()]);
                let worker_exec = exec.clone().with_max_threads(1);
                handles.push(scope.spawn(move || {
                    let run = catch_unwind(AssertUnwindSafe(|| {
                        worker_run(
                            Comms::new(shard, plan, links, shared),
                            &config.fault_plan,
                            compiled,
                            worker_exec,
                            initial,
                        )
                    }));
                    let outcome = run.unwrap_or_else(|panic| {
                        Err(ShardFailure::Panic {
                            shard,
                            message: crate::serve::panic_message(panic),
                        })
                    });
                    if let Err(reason) = &outcome {
                        shared.set_status(shard, format!("failed ({reason})"), None);
                        shared.poison(reason.to_string());
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
                while shared.done.load(Ordering::Acquire) < shards {
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
                    if last_change.elapsed() > config.watchdog {
                        let report = watchdog_report(shared, plan);
                        shared.log(format!(
                            "watchdog: no progress for {:?}; starved edge `{}`",
                            config.watchdog, report.starved_edge
                        ));
                        *shared.watchdog.lock().expect("watchdog slot") = Some(report);
                        shared.poison(WATCHDOG_TRIPPED.to_string());
                    }
                }
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("worker outcome"))
                .collect()
        })
    };

    let watchdog = shared.watchdog.lock().expect("watchdog slot").clone();
    let mut failure = None;
    let mut workers = Vec::with_capacity(shards);
    for outcome in outcomes {
        match outcome {
            Ok(worker) => workers.push(worker),
            Err(reason) => {
                failure.get_or_insert(reason);
            }
        }
    }
    let failure = failure.or_else(|| {
        watchdog.as_ref().map(|_| ShardFailure::Poisoned {
            reason: WATCHDOG_TRIPPED.to_string(),
        })
    });
    let mut report = ShardReport {
        shards,
        window: plan.link.window,
        halo_rows: plan.link.halo_rows,
        radius: plan.link.radius,
        host_threads: host,
        degraded: false,
        degrade_reason: None,
        watchdog,
        per_shard: workers.iter().map(|w| w.stats.clone()).collect(),
        fault_log: shared.fault_log.lock().expect("fault log").clone(),
        elapsed: started.elapsed(),
    };

    if let Some(reason) = failure {
        // Graceful degradation: one bit-identical single-shard fused run.
        report.degraded = true;
        report.degrade_reason = Some(reason.to_string());
        report
            .fault_log
            .push(format!("degraded to the single-shard fused tier: {reason}"));
        let (result, _) = exec.execute(&global, inputs, &fused_spec(steps))?;
        report.elapsed = started.elapsed();
        return Ok(ShardedOutcome { result, report });
    }

    // Assemble the global outputs from each shard's interior rows (no
    // failure: every worker returned its slab).
    let dim_refs: Vec<&str> = space.dims.iter().map(String::as_str).collect();
    let mut fields: BTreeMap<String, Grid> = BTreeMap::new();
    let mut masks: BTreeMap<String, Vec<bool>> = BTreeMap::new();
    for output in program.outputs() {
        let mut grid = Grid::zeros(
            &dim_refs,
            &space.shape,
            workers[0].slab(output)?.0.data_type(),
        );
        let mut mask = vec![true; space.num_cells()];
        for (worker, geom) in workers.iter().zip(&plan.geoms) {
            let (slab_grid, slab_mask) = worker.slab(output)?;
            let src = geom.interior_offset() * row_words
                ..(geom.interior_offset() + geom.rows()) * row_words;
            let dst = geom.start * row_words..geom.end * row_words;
            grid.as_mut_slice()[dst.clone()].copy_from_slice(&slab_grid.as_slice()[src.clone()]);
            mask[dst].copy_from_slice(&slab_mask[src]);
        }
        fields.insert(output.clone(), grid);
        masks.insert(output.clone(), mask);
    }
    let cells = workers.iter().map(|w| w.stats.cells_evaluated).sum();

    Ok(ShardedOutcome {
        result: ExecutionResult::from_parts(fields, masks, cells),
        report,
    })
}

/// What the watchdog poisons the runtime with.
const WATCHDOG_TRIPPED: &str = "progress watchdog tripped";

/// Why a shard worker failed, one variant per failure; any of them degrades
/// the run to the single-shard fused tier. `Display` is the text
/// `ShardReport::degrade_reason` and the fault log carry. The codes are
/// registered in `docs/analysis.md`.
#[derive(Debug)]
enum ShardFailure {
    /// SF0304: the worker panicked.
    Panic { shard: usize, message: String },
    /// SF0305: a halo frame was still missing after every resend request.
    RetryBudget {
        shard: usize,
        window: usize,
        field: usize,
        edge: String,
    },
    /// SF0301: a link cannot hold one frame, so it can never drain.
    UndersizedLink {
        edge: String,
        capacity: usize,
        needed: usize,
    },
    /// SF0306: another worker's failure, or the watchdog, poisoned the
    /// runtime first; `reason` is what it was poisoned with.
    Poisoned { reason: String },
    /// SF0307: the executor failed on one window of the worker's slab.
    Window {
        shard: usize,
        window: usize,
        error: ProgramError,
    },
    /// SF0308: a window's result lacks an output the exchange ships.
    MissingOutput { shard: usize, field: String },
}

impl std::fmt::Display for ShardFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardFailure::Panic { shard, message } => {
                write!(f, "shard {shard} panicked: {message}")
            }
            ShardFailure::RetryBudget {
                shard,
                window,
                field,
                edge,
            } => write!(
                f,
                "shard {shard}: retry budget ({RETRY_BUDGET}) exhausted waiting for \
                 window {window} field {field} on `{edge}`"
            ),
            ShardFailure::UndersizedLink {
                edge,
                capacity,
                needed,
            } => write!(
                f,
                "deadlock on `{edge}`: capacity {capacity} words below the one-frame \
                 minimum of {needed} (the buffer analysis minimum is violated, the link \
                 can never drain)"
            ),
            ShardFailure::Poisoned { reason } => f.write_str(reason),
            ShardFailure::Window {
                shard,
                window,
                error,
            } => write!(f, "shard {shard} window {window}: {error}"),
            ShardFailure::MissingOutput { shard, field } => {
                write!(f, "shard {shard}: output `{field}` missing")
            }
        }
    }
}

/// What a worker hands back: its slab's outputs and its statistics.
struct WorkerOutput {
    result: ExecutionResult,
    stats: ShardStats,
}

impl WorkerOutput {
    /// This slab's grid and validity mask of `output`.
    fn slab(&self, output: &str) -> Result<(&Grid, &[bool])> {
        self.result
            .field(output)
            .zip(self.result.valid_mask(output))
            .ok_or_else(|| ProgramError::Invalid {
                message: format!("shard {} produced no output `{output}`", self.stats.shard),
            })
    }
}

/// One end of the halo protocol: everything a worker keeps per neighbor.
/// The two row offsets are all that depends on which side the neighbor is.
struct Peer<'a> {
    /// The lane this shard sends halo data on and is asked for resends on.
    outbound: &'a Lane,
    /// The lane this shard receives halo data on and requests resends on.
    inbound: &'a Lane,
    /// Distinguishes `outbound`'s fault rolls from every other link's.
    salt: u64,
    /// First local row of the interior rows adjoining this neighbor: what
    /// its dilation needs from us (interior, hence exact).
    send_row: usize,
    /// First local row of our dilation toward this neighbor.
    recv_row: usize,
    /// Next sequence number on `outbound`; starts at 1 so `last_seq == 0`
    /// means "nothing received yet".
    seq: u64,
    /// Clean payloads sent, keyed by `(window, field)`. A sender runs at
    /// most one window ahead of its neighbor, so retaining the last two
    /// windows covers every resend request that can still arrive.
    retained: BTreeMap<(usize, usize), Vec<f64>>,
    /// Highest sequence number accepted from `inbound`.
    last_seq: u64,
    /// Payloads accepted ahead of time, keyed by `(window, field)`. A
    /// sender can run at most one window ahead, so this stays tiny.
    pending: BTreeMap<(usize, usize), Vec<f64>>,
}

/// A worker's identity and halo-protocol state: zero, one or two [`Peer`]s,
/// shard-1 first. A run with nothing to exchange has none.
struct Comms<'a> {
    shard: usize,
    plan: &'a Plan,
    shared: &'a Shared,
    stats: ShardStats,
    peers: Vec<Peer<'a>>,
}

impl<'a> Comms<'a> {
    fn new(shard: usize, plan: &'a Plan, links: &'a [Boundary], shared: &'a Shared) -> Self {
        let geom = plan.geoms[shard];
        let halo_rows = plan.link.halo_rows;
        // `up` is the neighbor above, shard+1: it needs our last interior
        // rows and fills our high dilation; shard-1 the first and the low.
        let peer = |outbound, inbound, up: bool| Peer {
            outbound,
            inbound,
            salt: (shard as u64) << 1 | u64::from(up),
            send_row: geom.interior_offset() + if up { geom.rows() - halo_rows } else { 0 },
            recv_row: if up { geom.slab_rows() - halo_rows } else { 0 },
            seq: 1,
            retained: BTreeMap::new(),
            last_seq: 0,
            pending: BTreeMap::new(),
        };
        let mut peers = Vec::new();
        if halo_rows > 0 && shard > 0 {
            peers.push(peer(&links[shard - 1].down, &links[shard - 1].up, false));
        }
        if halo_rows > 0 && shard + 1 < plan.link.shards {
            peers.push(peer(&links[shard].up, &links[shard].down, true));
        }
        Comms {
            shard,
            plan,
            shared,
            stats: ShardStats {
                shard,
                rows: geom.rows(),
                ..ShardStats::default()
            },
            peers,
        }
    }

    /// Send one halo frame to `peer`, applying the fault plan to this, its
    /// first transmission.
    fn send_halo(
        &mut self,
        peer: usize,
        window: usize,
        field: usize,
        payload: Vec<f64>,
        faults: &FaultPlan,
    ) -> std::result::Result<(), ShardFailure> {
        let (shard, shared) = (self.shard, self.shared);
        let peer = &mut self.peers[peer];
        let link = &peer.outbound.data;
        let seq = peer.seq;
        peer.seq += 1;
        // Retain the clean payload for resends; drop windows no neighbor
        // can still request (senders run at most one window ahead).
        peer.retained.insert((window, field), payload.clone());
        peer.retained.retain(|&(w, _), _| w + 2 > window);
        self.stats.frames_sent += 1;
        let mut frame = Frame::new(seq, window, field, payload);
        // What the rolled fault does to the transmission: how the log names
        // it, whether the sender sleeps first, and how many copies of the
        // frame reach the link. A dropped frame is recovered by the
        // receiver's timeout and resend request.
        let (injected, delay, copies) = match faults.roll(peer.salt, seq) {
            InjectedFault::None => (None, false, 1),
            InjectedFault::Drop => (Some("dropped"), false, 0),
            InjectedFault::Delay => (Some("delayed"), true, 1),
            InjectedFault::Duplicate => (Some("duplicated"), false, 2),
            InjectedFault::Corrupt => {
                // Flip a payload bit *after* the checksum was taken, so it
                // still describes the clean payload and the receiver can
                // tell the frame was damaged in flight.
                let victim = splitmix(seq ^ faults.seed) as usize % frame.payload.len().max(1);
                if let Some(word) = frame.payload.get_mut(victim) {
                    *word = f64::from_bits(word.to_bits() ^ (1 << 17));
                }
                (Some("corrupted"), false, 1)
            }
        };
        if let Some(injected) = injected {
            self.stats.faults_injected += 1;
            shared.log(format!(
                "shard {shard}: {injected} frame seq {seq} (window {window}, field {field}) \
                 on `{}`",
                link.name
            ));
        }
        if delay {
            std::thread::sleep(FAULT_DELAY);
        }
        for _ in 0..copies {
            push_frame(shard, window, link, &frame, shared, &mut self.stats)?;
        }
        Ok(())
    }

    /// Serve the resend requests the neighbors queued for this shard's
    /// outbound frames.
    fn service_nacks(&mut self) {
        let (shard, shared) = (self.shard, self.shared);
        for peer in &mut self.peers {
            while let Some(request) = peer.outbound.requests.try_pop() {
                let key = (request.window, request.field);
                let Some(payload) = peer.retained.get(&key) else {
                    continue;
                };
                // Resends are never faulted: injected faults only hit
                // first transmissions, which bounds recovery.
                let frame = Frame::new(peer.seq, request.window, request.field, payload.clone());
                peer.seq += 1;
                if peer.outbound.data.try_push(&frame) {
                    self.stats.frames_resent += 1;
                    self.stats.words_sent += frame.payload.len();
                    shared.bump();
                    shared.log(format!(
                        "shard {shard}: resent window {} field {} on `{}`",
                        request.window, request.field, peer.outbound.data.name
                    ));
                }
            }
        }
    }

    /// Drain every inbound data link into its peer's receive state,
    /// validating frames and requesting resends of corrupt ones.
    fn drain_data_links(&mut self) {
        let (shard, shared) = (self.shard, self.shared);
        let stats = &mut self.stats;
        for peer in &mut self.peers {
            let link = &peer.inbound.data;
            while let Some(frame) = link.try_pop() {
                let key = (frame.window, frame.field);
                if !frame.checksum_ok() {
                    stats.corrupt_detected += 1;
                    stats.nacks_sent += 1;
                    shared.log(format!(
                        "shard {shard}: checksum mismatch on `{}` (window {}, field {}); \
                         requesting resend",
                        link.name, frame.window, frame.field
                    ));
                    peer.inbound.request_resend(frame.window, frame.field);
                    continue;
                }
                if frame.seq <= peer.last_seq || peer.pending.contains_key(&key) {
                    stats.stale_discarded += 1;
                    shared.log(format!(
                        "shard {shard}: discarded stale/duplicate seq {} on `{}`",
                        frame.seq, link.name
                    ));
                    continue;
                }
                peer.last_seq = frame.seq;
                stats.frames_received += 1;
                peer.pending.insert(key, frame.payload);
                shared.bump();
            }
        }
    }

    /// Wait (bounded, with exponential backoff and resend requests) for
    /// every halo this shard needs before the next window; returns the
    /// payloads keyed by `(peer, field)`.
    fn collect_halos(
        &mut self,
        window: usize,
    ) -> std::result::Result<BTreeMap<(usize, usize), Vec<f64>>, ShardFailure> {
        let (shard, shared) = (self.shard, self.shared);
        let mut halos = BTreeMap::new();
        // (peer, field) -> (resend requests issued, next deadline).
        let mut missing: BTreeMap<(usize, usize), (u32, Instant)> = BTreeMap::new();
        for peer in 0..self.peers.len() {
            for field in 0..self.plan.pairs.len() {
                missing.insert((peer, field), (0, Instant::now() + BACKOFF));
            }
        }

        let mut spins = 0u32;
        loop {
            if shared.poisoned() {
                return Err(poison_reason(shared));
            }
            self.drain_data_links();
            missing.retain(|&(peer, field), _| {
                match self.peers[peer].pending.remove(&(window, field)) {
                    Some(payload) => {
                        halos.insert((peer, field), payload);
                        false
                    }
                    None => true,
                }
            });
            if missing.is_empty() {
                return Ok(halos);
            }
            // While waiting, serve the neighbors' resend requests —
            // otherwise two shards waiting on each other's resends would
            // deadlock.
            self.service_nacks();
            let now = Instant::now();
            for (&(peer, field), (attempts, deadline)) in missing.iter_mut() {
                if now < *deadline {
                    continue;
                }
                let inbound = self.peers[peer].inbound;
                let edge = &inbound.data.name;
                if *attempts >= RETRY_BUDGET {
                    return Err(ShardFailure::RetryBudget {
                        shard,
                        window,
                        field,
                        edge: edge.clone(),
                    });
                }
                self.stats.nacks_sent += 1;
                shared.log(format!(
                    "shard {shard}: window {window} field {field} overdue on `{edge}` \
                     (attempt {}); requesting resend",
                    *attempts + 1
                ));
                inbound.request_resend(window, field);
                *attempts += 1;
                *deadline = now + BACKOFF * 2u32.saturating_pow(*attempts);
                shared.set_status(
                    shard,
                    format!("waiting on `{edge}` for field {field} in window {window}"),
                    Some(BlockedEdge {
                        edge: edge.clone(),
                        window,
                        sender_capacity: None,
                    }),
                );
            }
            relax(&mut spins);
        }
    }

    /// After the final window: keep answering resend requests until every
    /// worker has finished computing (then nobody can still need us).
    fn drain_until_all_done(&mut self) {
        let mut spins = 0u32;
        while self.shared.computed.load(Ordering::Acquire) < self.plan.link.shards
            && !self.shared.poisoned()
        {
            self.service_nacks();
            relax(&mut spins);
        }
    }
}

fn worker_run(
    mut comms: Comms<'_>,
    faults: &FaultPlan,
    compiled: std::sync::Arc<CompiledProgram>,
    worker_exec: ReferenceExecutor,
    mut work_inputs: BTreeMap<String, Grid>,
) -> std::result::Result<WorkerOutput, ShardFailure> {
    let (shard, plan, shared) = (comms.shard, comms.plan, comms.shared);
    let missing = |field: &str| ShardFailure::MissingOutput {
        shard,
        field: field.to_string(),
    };
    let (row_words, payload_words) = (plan.link.row_words, plan.link.payload_words);
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

        let window_steps = plan
            .steps
            .map(|total| plan.link.window.min(total - steps_done));
        shared.set_status(shard, format!("computing window {window}"), None);
        let compute_started = Instant::now();
        let (mut result, _) = worker_exec
            .execute(&compiled, &work_inputs, &fused_spec(window_steps))
            .map_err(|error| ShardFailure::Window {
                shard,
                window,
                error,
            })?;
        comms.stats.compute += compute_started.elapsed();
        comms.stats.cells_evaluated += result.cells_evaluated();
        steps_done += window_steps.unwrap_or(1);
        shared.bump();

        if window + 1 == plan.windows {
            // Last window: surface the slab outputs, then keep serving
            // resend requests until every worker has finished computing —
            // a neighbor may still need our previous frames.
            shared.computed.fetch_add(1, Ordering::AcqRel);
            shared.set_status(shard, "draining resend requests".to_string(), None);
            let exchange_started = Instant::now();
            comms.drain_until_all_done();
            comms.stats.exchange += exchange_started.elapsed();
            shared.set_status(shard, "done".to_string(), None);
            return Ok(WorkerOutput {
                result,
                stats: comms.stats,
            });
        }

        // Halo exchange: ship each neighbor the rows adjoining its edge
        // (they are interior, hence exact), then wait for the neighbors'
        // frames — compute of other shards overlaps this transfer.
        let exchange_started = Instant::now();
        for (field, (out_field, _)) in plan.pairs.iter().enumerate() {
            let grid = result.field(out_field).ok_or_else(|| missing(out_field))?;
            for peer in 0..comms.peers.len() {
                let lo = comms.peers[peer].send_row * row_words;
                let payload = grid.as_slice()[lo..lo + payload_words].to_vec();
                comms.send_halo(peer, window, field, payload, faults)?;
            }
        }
        let halos = comms.collect_halos(window)?;
        comms.stats.exchange += exchange_started.elapsed();

        // Reassemble the next window's inputs: own interior stays, the
        // dilation rows are replaced by the neighbors' interiors.
        for (field, (out_field, in_field)) in plan.pairs.iter().enumerate() {
            let mut grid = result
                .take_field(out_field)
                .ok_or_else(|| missing(out_field))?;
            for (peer, neighbor) in comms.peers.iter().enumerate() {
                let lo = neighbor.recv_row * row_words;
                grid.as_mut_slice()[lo..lo + payload_words].copy_from_slice(&halos[&(peer, field)]);
            }
            work_inputs.insert(in_field.clone(), grid);
        }
    }
    unreachable!("the last window always returns")
}

fn poison_reason(shared: &Shared) -> ShardFailure {
    let reason = shared.poison_reason.lock().expect("poison reason").clone();
    ShardFailure::Poisoned {
        reason: reason.unwrap_or_else(|| "runtime poisoned".to_string()),
    }
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
    frame: &Frame,
    shared: &Shared,
    stats: &mut ShardStats,
) -> std::result::Result<(), ShardFailure> {
    let needed = frame.words();
    if link.capacity < needed {
        let report = WatchdogReport {
            starved_edge: link.name.clone(),
            window,
            configured_capacity_words: link.capacity,
            required_frame_words: needed,
            analysis_agrees: true,
            worker_status: shared.describe_workers(),
        };
        *shared.watchdog.lock().expect("watchdog slot") = Some(report);
        // The worker's failure path logs this reason.
        return Err(ShardFailure::UndersizedLink {
            edge: link.name.clone(),
            capacity: link.capacity,
            needed,
        });
    }
    let mut spins = 0u32;
    loop {
        if link.try_push(frame) {
            stats.words_sent += frame.payload.len();
            shared.bump();
            return Ok(());
        }
        if shared.poisoned() {
            return Err(poison_reason(shared));
        }
        shared.set_status(
            shard,
            format!(
                "blocked sending {needed} words on `{}` (capacity {}) in window {window}",
                link.name, link.capacity
            ),
            Some(BlockedEdge {
                edge: link.name.clone(),
                window,
                sender_capacity: Some(link.capacity),
            }),
        );
        relax(&mut spins);
    }
}

/// Build the watchdog's report: pick the starved edge from the worker
/// statuses and cross-check the live configuration against the fig04-style
/// one-frame minimum depth.
fn watchdog_report(shared: &Shared, plan: &Plan) -> WatchdogReport {
    let blocked: Vec<BlockedEdge> = shared
        .status
        .iter()
        .filter_map(|slot| slot.lock().expect("status slot").blocked.clone())
        .collect();
    // A blocked sender is the sharpest signal (its edge can provably not
    // accept a frame); a waiting receiver the second best.
    let starved = blocked
        .iter()
        .find(|b| b.sender_capacity.is_some())
        .or(blocked.first());
    let configured = starved
        .and_then(|b| b.sender_capacity)
        .unwrap_or(plan.link.configured_capacity_words);
    WatchdogReport {
        starved_edge: starved.map_or_else(|| "<unknown>".to_string(), |b| b.edge.clone()),
        window: starved.map_or(0, |b| b.window),
        configured_capacity_words: configured,
        required_frame_words: plan.link.required_frame_words,
        analysis_agrees: configured < plan.link.required_frame_words,
        worker_status: shared.describe_workers(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencilflow_core::shardlink::halo_radius;
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
            let shape: Vec<usize> = crate::executor::declared_shape(space, &decl.dims).collect();
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
        let clean = Frame::new(7, 3, 1, vec![1.5, -2.25, f64::NAN.abs(), 0.0]);
        let link = HaloLink::new("t".into(), 2 * clean.words());
        assert!(link.try_push(&clean));
        let frame = link.try_pop().unwrap();
        assert!(frame.checksum_ok());
        assert_eq!(frame.seq, 7);
        assert_eq!(frame.window, 3);
        assert_eq!(frame.field, 1);
        assert_eq!(frame.payload.len(), 4);
        assert_eq!(frame.payload[0], 1.5);

        let mut corrupted = clean.clone();
        corrupted.payload[2] = f64::from_bits(corrupted.payload[2].to_bits() ^ 1);
        assert!(link.try_push(&corrupted));
        // A link is bounded in words, header included: two frames fill it.
        assert!(link.try_push(&clean));
        assert!(!link.try_push(&clean));
        assert!(!link.try_pop().unwrap().checksum_ok());
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

    /// Each failure prints the text the fault log, `degrade_reason` and the
    /// `fault_sweep` JSON have always carried.
    #[test]
    fn shard_failures_print_their_fault_log_text() {
        let error = ProgramError::Invalid {
            message: "bad".to_string(),
        };
        let window_text = format!("shard 2 window 4: {error}");
        let cases = [
            (
                ShardFailure::Panic {
                    shard: 1,
                    message: "boom".to_string(),
                },
                "shard 1 panicked: boom".to_string(),
            ),
            (
                ShardFailure::RetryBudget {
                    shard: 0,
                    window: 3,
                    field: 1,
                    edge: "s0->s1".to_string(),
                },
                "shard 0: retry budget (8) exhausted waiting for window 3 field 1 on `s0->s1`"
                    .to_string(),
            ),
            (
                ShardFailure::UndersizedLink {
                    edge: "s1->s0".to_string(),
                    capacity: 4,
                    needed: 9,
                },
                "deadlock on `s1->s0`: capacity 4 words below the one-frame minimum of 9 \
                 (the buffer analysis minimum is violated, the link can never drain)"
                    .to_string(),
            ),
            (
                ShardFailure::Poisoned {
                    reason: WATCHDOG_TRIPPED.to_string(),
                },
                "progress watchdog tripped".to_string(),
            ),
            (
                ShardFailure::Window {
                    shard: 2,
                    window: 4,
                    error,
                },
                window_text,
            ),
            (
                ShardFailure::MissingOutput {
                    shard: 3,
                    field: "out".to_string(),
                },
                "shard 3: output `out` missing".to_string(),
            ),
        ];
        for (failure, text) in cases {
            assert_eq!(failure.to_string(), text);
        }
    }
}
