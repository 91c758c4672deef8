//! Wavefront-fused multi-stencil execution: the one sweep every run of
//! the [`crate::ReferenceExecutor`] takes.
//!
//! The paper's central claim (§I, §VIII-C) is that chained stencils should
//! *stream* through each other, each stage holding only its *internal
//! buffer* (the reach of its accesses) plus the *delay buffer* that
//! equalises reconvergent paths (§IV); intermediates are never
//! materialized. This module is the CPU analogue, in planes of the
//! outermost dimension instead of words: every field lives in a small
//! **ring buffer** of planes, and one loop advances all stencils of the
//! program — and, for time stepping, all steps of a bounded **window** as
//! one unrolled chain — together, each trailing its producers by just the
//! planes it reads ahead.
//!
//! # The wavefront
//!
//! A scratch plane is one outermost-dimension slice (rows × cells; a 2-D
//! space has one row per plane, a 1-D space is a single plane of a single
//! row). [`FusePlan::schedule`] chains **forward** along the DAG and
//! through the `w` steps of a window: inputs have **lag** 0, a
//! stage the maximum over its taps of `lag(producer) + max(offset₀, 0)`;
//! a state input at step `t > 1` *is* the ring its paired output wrote at
//! step `t - 1`. Every ring gets a **depth** — the maximum over its
//! consumers of `lag(consumer) - lag(ring) + max(-offset₀, 0)`, plus the
//! block height `B` — which is the internal-buffer + delay-buffer
//! recurrence `stencilflow_core` solves for the FPGA mapping. At run time
//! a tick advances the front by `B` planes: the input copy-in, then every
//! `(step, stage)` in topological order, produces the planes
//! `[.., front - lag)` it has not produced yet into its ring (planes are
//! addressed modulo the depth; a run stops where any ring it touches
//! wraps). Out-of-domain planes are "produced" by a constant fill when
//! their turn comes, and the last step's planes go to the output grid (or
//! the next window's state grid). Every cell is swept exactly once (the
//! edge pass below evaluates a few of them a second time).
//!
//! `B` comes from the scratch budget — as many planes per tick as keep the
//! rings inside it — so a domain whose rings fit whole runs **one tick**,
//! which is plain stage-major order over padded copies of the fields.
//! Multi-worker runs give each worker one contiguous chunk of planes and
//! its own rings; only there does a stage compute more than its share:
//! each chunk is *dilated* by the cumulative downstream access footprint
//! (chained backward along the DAG at [`FusePlan`] build time, times the
//! steps left in the window), so workers never exchange anything and the
//! overlap at the `workers - 1` seams is recomputed from identical inputs.
//!
//! Every ring plane is **halo-padded**: border cells hold the (per-field)
//! constant boundary value — the row and cell pads are filled once per
//! run, since only in-domain cells are ever overwritten — so the sweep
//! itself is a pure contiguous lane sweep with no interior/halo split, no
//! bounds checks and no per-lane boundary gathers. Rows are evaluated in
//! full lane batches (`TypedKernel::eval_lanes_with` at a width chosen
//! from the innermost extent); the batch that straddles the row end
//! *over-computes* into write-slack cells whose values are never read
//! (typed kernels are total, so evaluating garbage lanes is safe), and the
//! clobbered tail pad is re-filled after each row.
//!
//! An input every live tap reads at offset 0 on every axis never reads a
//! pad, so it is **read in place**: no ring, no copy-in, no pads. Its taps
//! read the caller's grid — or, at the first step of a later window, the
//! previous window's pooled state grid — at that grid's own plane and row
//! strides (0 along an axis a lower-rank input misses), through the
//! per-tap base and strides every tap carries, so the native ABI and the
//! emitted C are unchanged; like a broadcast copy (below) it has no lag.
//! A grid has no write slack after its last row, so the one lane batch that
//! would load past its end is loaded short (its surplus lanes are
//! over-computed like any other and never read).
//!
//! Storage follows the field's type: the rings and the padded copy of a
//! `float32` field hold `f32` cells (the scratch budget counts every ring
//! in its own element size), narrowed into at copy-in — exactly, since a
//! `float32` grid holds binary32 values — and widened on every load by
//! the lanes sweep, the edge pass and boxed stages, which compute in
//! `f64`. The native sweep reads and stores them as `float` (see
//! [`FusePlan::jit_unit`]). A grid read in place stays `f64`, and so do
//! the rings of its stepping partner: one stage function reads a slot at
//! every step, and at a later step of a window a state input is its
//! output's ring. Result grids and window state are `f64` grids.
//!
//! # What every program gets
//!
//! Every program takes this path (the plan is built once at `prepare`);
//! what differs per field or stage is how it is read or swept:
//!
//! * a stage with a type-specialized kernel (branch-free by type:
//!   specialization speculates even division-carrying ternaries into
//!   selects) is lane-swept as above, or natively on the JIT rung;
//! * a stage without one — a kernel over integer or boolean fields — is
//!   **boxed**: evaluated one cell at a time (`L = 1`) through its
//!   `CompiledKernel` on tagged `Value`s, loading each tap exactly as the
//!   edge pass below does, so its pads are never read where the
//!   interpreter would read something else. Only a boxed kernel can fail
//!   (integer division by zero); the run then stops, every pooled buffer
//!   goes back, and the error names the stage the interpreter names: the
//!   first failing one in step-major topological order, which is ring
//!   order (a ring past the first failure is not swept any more, one
//!   before it is, so an earlier stage failing at a later plane wins);
//! * a lower-rank input is a **broadcast tap**: unless it is read in
//!   place, it is copied once per run into one padded buffer of its own
//!   shape, which every worker and window reads, with stride 0 along each
//!   plane or row axis it misses — the same per-tap plane and row strides
//!   a ring tap carries, so neither sweep has a second loop and the native
//!   ABI is unchanged. An input that misses the innermost, contiguous axis
//!   (horizontal diffusion's `crlato[j]`) is **replicated** along it by
//!   that copy: each of its values fills a whole row, so its buffer reads
//!   like any other (and it is never read in place). An input whose
//!   dimensions are **transposed** against the space's is copied the same
//!   way, into space order, and then read like any other. A copied input
//!   has no ring and no lag: all of it exists before the first tick. (The
//!   state of a time-stepped run is always space-ordered and full-rank, so
//!   no ring ever needs a permuted copy.)
//!
//! Boundary conditions do not limit the path. A field's pads hold one
//! constant (the first one its live readers read out of domain); a tap
//! whose out-of-domain value differs from it — a `Copy` boundary, which
//! reads the *accessing cell's* centre, or a reader's own constant — is an
//! **edge slot**, and its stage gets an **edge pass** (below).
//!
//! Only live fields and stages exist for the sweep: an input or a stencil
//! no program output depends on is never read or swept. The result holds
//! the program outputs only — intermediates are deliberately *not*
//! materialized (this is where the speed comes from, and it matches the
//! simulator's unused-intermediate elision: values that cannot be observed
//! need not exist).
//!
//! # Bit-identity
//!
//! Fused results are bit-identical to the interpreted tier on every output
//! cell (golden suite: `fused_equivalence.rs`):
//!
//! * every cell is evaluated once, through the stencil's typed kernel
//!   (lanes or native) or its boxed `Value` kernel, on loads that are raw
//!   grid payloads (inputs are read in place or copied in verbatim — an
//!   `f32` cell holds exactly the binary32 value its grid held — and stage
//!   results are rounded through the stencil's output type before the
//!   store, as the interpreter rounds on store), so each cell performs the
//!   interpreter's operation sequence on identical bits; the lag
//!   recurrence guarantees every plane a tap reads was produced, and the
//!   depth recurrence that it has not been overwritten yet;
//! * out-of-domain loads read pad cells holding the boundary constant
//!   pre-rounded through the field's element type — exactly the value the
//!   interpreter's boundary condition yields — except at an edge slot. There the **edge pass** takes over: right after a span of a
//!   stage with edge slots is swept (by lanes or natively), every
//!   in-domain cell outside the stage's *clean box* (where no edge slot
//!   leaves the domain) is evaluated again, one cell at a time, through
//!   the same typed kernel, each edge slot that leaves the domain loading
//!   the field at the cell's centre (`Copy`: the ring recurrence keeps the
//!   centre plane resident, since every consumer's reach spans its own
//!   plane) or its own constant rounded through the field's type, every
//!   other slot what the sweep loaded; the result is rounded through the
//!   output type and stored over the sweep's before any consumer reads the
//!   plane. So each cell's final value comes from the interpreter's loads
//!   and the interpreter's operations. `cells_evaluated` counts the sweep
//!   only: a re-evaluated cell was already counted once. Stages without
//!   edge slots never enter the pass;
//! * at a worker seam both neighbours compute the overlap from identical
//!   inputs, and only the chunk's owner stores it;
//! * shrink masks depend on access geometry only (never on data): the
//!   per-cell "did any access leave the domain" predicate of the
//!   interpreter is equivalent to membership in a per-stencil valid *box*,
//!   which is filled directly into the result mask.

use crate::executor::{CompiledProgram, ExecutionResult};
use crate::grid::Grid;
use crate::jit::{NativeStage, StageSymbols};
use crate::tier::Ineligible;
use crate::ReferenceExecutor;
use std::collections::{BTreeMap, BTreeSet};
use stencilflow_codegen::{jit_translation_unit, JitSlotKind, JitStageSpec};
use stencilflow_expr::{
    CompiledKernel, DataType, EvalScratch, ExprError, LaneScratch, TypedKernel, TypedScratch, Value,
};
use stencilflow_jit::{Cells, CellsMut, SlotArg, StageFn, SweepArgs, SweepBuffers, Width};
use stencilflow_program::{
    AccessFootprints, BoundaryCondition, IterationSpace, NodeId, NodeKind, ProgramError,
    StencilNode, StencilProgram,
};

/// Default number of time steps chained into one window. Nothing is
/// recomputed at any window length, so throughput is flat from 2 to 16
/// steps (`docs/evaluation.md`, Tier 3); every step adds one ring per
/// stage to the working set, so the window stays small; see
/// [`ReferenceExecutor::with_fusion_window`].
pub(crate) const DEFAULT_FUSION_WINDOW: usize = 4;

/// Scratch budget in bytes per worker: the block height is as many planes
/// per tick as keep all rings of a window inside it. The native sweep is
/// memory bound, and what streams through the rings (source and target
/// planes of the full grids) competes with them for the private cache, so
/// the smallest budget of the measured sweep won or tied on every row
/// (0.5–4 MiB × windows 2/4/8 on 128³ × 16 and 512 × 128, both fused
/// tiers: `docs/evaluation.md`, Tier 3); the bytecode sweep is dispatch
/// bound and nearly indifferent.
const SCRATCH_BUDGET_BYTES: usize = 1 << 19;

/// Axis of the planes × rows × cells scratch layout a space dimension maps
/// to: the innermost dimension is the contiguous cell axis, and of the
/// others (spaces have at most three dimensions) the outermost is the
/// plane axis the wavefront advances along.
fn axis(dim: usize, rank: usize) -> usize {
    if dim + 1 == rank {
        2
    } else {
        dim
    }
}

/// How input `dims` lays out against the space's dimensions `space`: the
/// scratch axes it spans (an axis the space lacks counts as spanned),
/// whether it misses the innermost, contiguous one — then its copy is
/// replicated along it, and its buffer spans it too — whether its
/// dimensions run out of space order, and its grid's stride along each
/// scratch axis (0 along one it misses).
fn input_layout(space: &IterationSpace, dims: &[String]) -> InputLayout {
    let rank = space.rank();
    let mut span = [true; 3];
    for d in 0..rank {
        span[axis(d, rank)] = false;
    }
    let mut src = [0usize; 3];
    let mut stride = 1;
    let mut last = None;
    let mut transposed = false;
    for dim in dims.iter().rev() {
        // A dimension the space does not know has extent 1.
        let Some(d) = space.dim_index(dim) else {
            continue;
        };
        span[axis(d, rank)] = true;
        src[axis(d, rank)] = stride;
        stride *= space.shape[d];
        transposed |= last.is_some_and(|after| d > after);
        last = Some(d);
    }
    let replicate = !span[2];
    span[2] = true;
    InputLayout {
        span,
        replicate,
        transposed,
        src,
    }
}

/// See [`input_layout`].
#[derive(Debug, Clone, Copy)]
struct InputLayout {
    span: [bool; 3],
    replicate: bool,
    transposed: bool,
    src: [usize; 3],
}

/// One field (program input or stencil output) of a fuse plan, with the
/// layout of one scratch plane of it.
#[derive(Debug)]
struct FusedField {
    /// The field's DAG node (its index in the plan's field table).
    id: NodeId,
    /// Scalar program input: broadcast into the lanes, no buffer.
    scalar: bool,
    /// Program input (read in place, or copied into its ring or padded
    /// buffer) vs. stage output (computed into its ring).
    input: bool,
    /// Whether the field is read by any live stage (or is an output).
    live: bool,
    /// Scratch axes the field spans. A lower-rank input misses the plane
    /// and/or the row axis; it is read through one buffer of its own shape
    /// with stride 0 along the axes it misses.
    span: [bool; 3],
    /// An input that misses the innermost axis: its copy holds each of its
    /// values across a whole row.
    replicate: bool,
    /// An input whose dimensions run out of space order: its copy holds
    /// it in space order.
    transposed: bool,
    /// The input grid's stride along each scratch axis (0 along one it
    /// misses): where its copy reads.
    src: [usize; 3],
    /// An input every live tap reads at offset 0 on every axis: it never
    /// reads a pad, so its taps read the source grid in place (no ring, no
    /// copy, no pads).
    in_place: bool,
    /// Pad fill value: the consumers' shared boundary constant, rounded
    /// through the field's element type.
    pad_constant: f64,
    /// The width of the cells its taps read: `f32` for the rings and copy
    /// of a `float32` field, `f64` otherwise (see [`FusePlan::build`]).
    width: Width,
    /// Per-axis pad extents (≥ the consumers' largest offsets).
    pad_lo: [usize; 3],
    pad_hi: [usize; 3],
    /// Row and plane strides of a padded scratch plane, and the flat
    /// offset of its first in-domain cell.
    row: usize,
    plane: usize,
    origin: usize,
    /// Within-step dilation of the region of this field a worker must
    /// cover, in planes relative to its chunk (seams only).
    grow_lo: usize,
    grow_hi: usize,
}

impl FusedField {
    /// A lower-rank or transposed input not read in place: copied once per
    /// run into a padded, space-ordered buffer every worker and window
    /// reads.
    fn copied(&self) -> bool {
        !self.in_place && (self.replicate || self.transposed || self.span != [true; 3])
    }

    /// Positions along scratch axis `a` the field holds in the domain.
    fn extent(&self, a: usize, ext: &[usize; 3]) -> usize {
        if self.span[a] {
            ext[a]
        } else {
            1
        }
    }

    /// Plane and row strides of a tap into the field's buffer (its padded
    /// copy, or the grid read in place): 0 along an axis the field does not
    /// span.
    fn strides(&self) -> (usize, usize) {
        let stride = |a: usize, s| if self.span[a] { s } else { 0 };
        (stride(0, self.plane), stride(1, self.row))
    }

    /// Positions along scratch axis `a` the field's buffer holds, pads
    /// included (one in-domain position along an axis it does not span).
    fn padded(&self, a: usize, ext: &[usize; 3]) -> usize {
        self.pad_lo[a] + self.extent(a, ext) + self.pad_hi[a]
    }
}

/// How one kernel slot of a fused stage reads its field.
#[derive(Debug)]
enum FusedSlot {
    /// Scalar symbol.
    Scalar(usize),
    /// Field tap at a constant per-axis offset, and what it reads where it
    /// leaves the domain.
    Tap {
        field: usize,
        off: [i64; 3],
        outside: Outside,
    },
}

/// What a tap reads at a cell where it leaves the domain.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Outside {
    /// The field's pad (also: a tap that never leaves the domain).
    Pad,
    /// The field at the accessing cell's centre (a `Copy` boundary).
    Centre,
    /// This constant, rounded through the field's type, which is not the
    /// pad's.
    Constant(f64),
}

/// One stencil of a fuse plan.
#[derive(Debug)]
struct FusedStage {
    /// The stencil's DAG node, which is also its output field's.
    id: NodeId,
    /// Whether the stage contributes to any program output. Dead stages
    /// are elided entirely (their values are unobservable in the fused
    /// result), consistent with the simulator's unused-intermediate
    /// elision.
    live: bool,
    slots: Vec<FusedSlot>,
    /// The shrink-validity box per axis (`[lo, hi)`): a cell is valid iff
    /// every coordinate lies inside — exactly the interpreter's "no access
    /// left the domain" predicate, which is a box because every check
    /// constrains one coordinate independently.
    mask_lo: [usize; 3],
    mask_hi: [usize; 3],
    /// The clean box (`[lo, hi)` per axis) of a stage with edge slots:
    /// the cells where none of them leaves the domain. `None`: the stage
    /// has no edge slot, and the edge pass never sees it.
    clean: Option<([usize; 3], [usize; 3])>,
}

impl FusedStage {
    /// Index of the stage's output field.
    fn field(&self) -> usize {
        self.id.index()
    }

    /// The stencil node `program` keeps for the stage.
    fn node<'p>(&self, program: &'p StencilProgram) -> &'p StencilNode {
        program.stencil_at(self.id).expect("stages are stencils")
    }

    /// The slot types and typed kernel `program` keeps for the stage.
    fn typed<'p>(&self, program: &'p StencilProgram) -> (&'p [DataType], Option<&'p TypedKernel>) {
        program
            .typed_kernel(self.id)
            .expect("prepared stages resolve their slots")
    }
}

/// The time-stepping extension of a fuse plan.
#[derive(Debug)]
struct StepPlan {
    /// Feedback pairs as `(output field, state input field)`, in program
    /// output order (stepping pairs every output).
    pairs: Vec<(usize, usize)>,
    /// Per-step dilation of a worker's chunk (seams only).
    step_lo: usize,
    step_hi: usize,
}

/// A program analyzed for fused execution. Built once per
/// [`CompiledProgram`]; owns only geometry (the kernels stay in the
/// program, read by stencil id).
#[derive(Debug)]
pub(crate) struct FusePlan {
    /// The iteration space as planes × rows × cells (see [`axis`]).
    ext: [usize; 3],
    /// Lane width of the fused sweep, chosen from the innermost extent.
    lanes: usize,
    fields: Vec<FusedField>,
    stages: Vec<FusedStage>,
    /// `(stage index, field index)` of every program output, in program
    /// output order.
    outputs: Vec<(usize, usize)>,
    steps: Option<StepPlan>,
}

/// Pick the fused lane width from the innermost extent: the widest of
/// 32/16/8 whose end-of-row over-compute stays below 25 % of the row.
/// Wider batches pay off inside the fused sweep because every batch is a
/// full contiguous batch (pads replace the mixed halo path entirely).
fn fused_lane_width(row_len: usize) -> usize {
    for lanes in [32usize, 16, 8] {
        let padded = row_len.div_ceil(lanes) * lanes;
        if (padded - row_len) * 4 <= row_len {
            return lanes;
        }
    }
    8
}

impl FusePlan {
    /// Analyze `program` for fused execution, over the kernels it keeps
    /// (every stencil's must compile and resolve its slots); `pairs` are
    /// its time-stepping feedback pairs, if they derive. The fields are
    /// indexed by [`NodeId`]: the DAG's fields come first, in id order.
    pub(crate) fn build(program: &StencilProgram, pairs: Option<&[(String, String)]>) -> FusePlan {
        let space = program.space();
        let rank = space.rank();
        let mut ext = [1usize; 3];
        for (d, &n) in space.shape.iter().enumerate() {
            ext[axis(d, rank)] = n;
        }
        let dag = program.dag();
        // Program validation resolves every read to a declared field.
        let field_of = |name: &str| dag.id(name).expect("reads resolve to fields").index();
        let order: Vec<(NodeId, &StencilNode)> = (program.topological_nodes())
            .expect("a prepared program is acyclic")
            .iter()
            .filter_map(|&id| Some((id, program.stencil_at(id)?)))
            .collect();
        fn kernel(node: &StencilNode) -> &CompiledKernel {
            node.kernel().expect("prepared kernels compile")
        }

        // Field table, by id: the DAG's fields (inputs and stencils) come
        // before its output memories.
        let dense = input_layout(space, &space.dims);
        let mut fields: Vec<FusedField> = Vec::new();
        let mut dtypes: Vec<DataType> = Vec::new();
        for node in dag.nodes().take_while(|node| node.kind != NodeKind::Output) {
            let decl = program.input(node.name);
            let scalar = decl.is_some_and(|decl| decl.is_scalar());
            // A stage's output, and a scalar: full rank, in space order.
            let layout = match decl {
                Some(decl) if !scalar => input_layout(space, &decl.dims),
                _ => dense,
            };
            dtypes.push(program.field_type(node.name).expect("fields have types"));
            fields.push(FusedField {
                id: node.id,
                scalar,
                input: decl.is_some(),
                live: false,
                span: layout.span,
                replicate: layout.replicate,
                transposed: layout.transposed,
                src: layout.src,
                in_place: false,
                pad_constant: 0.0,
                width: Width::F64,
                pad_lo: [0; 3],
                pad_hi: [0; 3],
                row: 0,
                plane: 0,
                origin: 0,
                grow_lo: 0,
                grow_hi: 0,
            });
        }

        // Liveness over kernel slots: the program outputs, then backward
        // through the reads of every live stencil (reverse topological
        // order visits each consumer before its producers). Nothing else is
        // ever read or swept. (Folding can drop a syntactic read, so this
        // is not the DAG's liveness.)
        for output in program.outputs() {
            fields[field_of(output)].live = true;
        }
        for &(id, node) in order.iter().rev() {
            if fields[id.index()].live {
                for slot in kernel(node).slots() {
                    fields[field_of(&slot.field)].live = true;
                }
            }
        }

        // Stages: kernels with taps at constant per-axis offsets.
        let mut stages: Vec<FusedStage> = Vec::with_capacity(order.len());
        for &(id, node) in &order {
            let kernel = kernel(node);
            let mut slots = Vec::with_capacity(kernel.slots().len());
            for slot in kernel.slots() {
                let field = field_of(&slot.field);
                if slot.is_scalar() {
                    slots.push(FusedSlot::Scalar(field));
                    continue;
                }
                let mut off = [0i64; 3];
                for (var, &o) in slot.index_vars.iter().zip(&slot.offsets) {
                    let d = space
                        .dim_index(var)
                        .expect("program validation resolves index variables");
                    off[axis(d, rank)] = o;
                }
                let outside = match node.boundary.condition_for(&slot.field) {
                    // A centre tap never leaves the domain.
                    _ if off == [0; 3] => Outside::Pad,
                    BoundaryCondition::Copy => Outside::Centre,
                    BoundaryCondition::Constant(c) => {
                        Outside::Constant(Value::from_f64(c, dtypes[field]).as_f64())
                    }
                };
                slots.push(FusedSlot::Tap {
                    field,
                    off,
                    outside,
                });
            }
            // The shrink-validity box from the stencil's full syntactic
            // access pattern (the interpreter's per-cell out-of-bounds
            // re-walk), including reads the kernel folded away.
            let mut mask_lo = [0usize; 3];
            let mut mask_hi = ext;
            for (_, info) in node.accesses.iter() {
                for offsets in &info.offsets {
                    for (var, &off) in info.index_vars.iter().zip(offsets) {
                        let Some(dim) = space.dim_index(var) else {
                            continue;
                        };
                        let a = axis(dim, rank);
                        if off < 0 {
                            mask_lo[a] = mask_lo[a].max((-off) as usize);
                        } else {
                            mask_hi[a] = mask_hi[a].min(ext[a].saturating_sub(off as usize));
                        }
                    }
                }
            }
            stages.push(FusedStage {
                id,
                live: fields[id.index()].live,
                slots,
                mask_lo,
                mask_hi,
                clean: None,
            });
        }
        // An input no live tap reads off-center never reads a pad (but a
        // replicated one has no rows to read in place, and a transposed
        // one no rows in space order).
        let off_center: BTreeSet<usize> = stages
            .iter()
            .filter(|s| s.live)
            .flat_map(|s| &s.slots)
            .filter_map(|slot| match slot {
                FusedSlot::Tap { field, off, .. } if *off != [0; 3] => Some(*field),
                _ => None,
            })
            .collect();
        for (f, field) in fields.iter_mut().enumerate() {
            field.in_place = field.input
                && !field.scalar
                && !field.replicate
                && !field.transposed
                && !off_center.contains(&f);
        }
        let outputs: Vec<(usize, usize)> = program
            .outputs()
            .iter()
            .map(|output| {
                let field = field_of(output);
                let stage = stages
                    .iter()
                    .position(|s| s.field() == field)
                    .expect("program outputs are stencils");
                (stage, field)
            })
            .collect();

        // Footprints drive the pads and the backward dilation chain. A
        // field's pads hold one constant: the first one its live readers
        // read out of domain.
        let footprints = AccessFootprints::of_program(program);
        let mut constants: Vec<Option<f64>> = vec![None; fields.len()];
        for stage in stages.iter().filter(|s| s.live) {
            for slot in &stage.slots {
                let FusedSlot::Tap { field, outside, .. } = *slot else {
                    continue;
                };
                if let Outside::Constant(c) = outside {
                    constants[field].get_or_insert(c);
                }
                let Some(extent) = footprints.extent(stage.id, fields[field].id) else {
                    continue;
                };
                for (d, &(lo, hi)) in extent.iter().enumerate() {
                    let a = axis(d, rank);
                    fields[field].pad_lo[a] = fields[field].pad_lo[a].max((-lo).max(0) as usize);
                    fields[field].pad_hi[a] = fields[field].pad_hi[a].max(hi.max(0) as usize);
                }
            }
        }
        for (field, constant) in constants.iter().enumerate() {
            if let Some(c) = constant {
                fields[field].pad_constant = *c;
            }
        }

        // Backward dilation chain along the plane axis (a 1-D space has a
        // single plane and nothing to chain): a field must cover its
        // consumers' regions dilated by their footprints. Reverse
        // topological order visits every consumer before its producers.
        for s in (0..stages.len()).rev() {
            if !stages[s].live || rank == 1 {
                continue;
            }
            let (own_lo, own_hi) = {
                let f = &fields[stages[s].field()];
                (f.grow_lo, f.grow_hi)
            };
            for slot in &stages[s].slots {
                let FusedSlot::Tap { field, .. } = slot else {
                    continue;
                };
                if let Some(extent) = footprints.extent(stages[s].id, fields[*field].id) {
                    let (lo, hi) = extent[0];
                    let f = &mut fields[*field];
                    f.grow_lo = f.grow_lo.max(own_lo + (-lo).max(0) as usize);
                    f.grow_hi = f.grow_hi.max(own_hi + hi.max(0) as usize);
                }
            }
        }

        // Time stepping: a derivable feedback pairing lets step `t + 1`
        // read its state straight from the ring step `t` wrote.
        let steps = pairs.map(|pairs| {
            let mut step_lo = 0usize;
            let mut step_hi = 0usize;
            let mut mapped = Vec::with_capacity(pairs.len());
            for (output, input) in pairs {
                let (o, i) = (field_of(output), field_of(input));
                step_lo = step_lo.max(fields[i].grow_lo.saturating_sub(fields[o].grow_lo));
                step_hi = step_hi.max(fields[i].grow_hi.saturating_sub(fields[o].grow_hi));
                mapped.push((o, i));
            }
            // Unify the pair's pads and fill constant: the output's ring
            // serves the readers of both (a reader of the other constant
            // has an edge slot). The *dilation* (`grow_*`) stays per field
            // — regions must follow the exact backward chain, or consumer
            // regions would outgrow their producers.
            for &(o, i) in &mapped {
                let constant = if constants[i].is_some() {
                    fields[i].pad_constant
                } else {
                    fields[o].pad_constant
                };
                for a in 0..3 {
                    let lo = fields[o].pad_lo[a].max(fields[i].pad_lo[a]);
                    let hi = fields[o].pad_hi[a].max(fields[i].pad_hi[a]);
                    fields[o].pad_lo[a] = lo;
                    fields[i].pad_lo[a] = lo;
                    fields[o].pad_hi[a] = hi;
                    fields[i].pad_hi[a] = hi;
                }
                for f in [o, i] {
                    fields[f].pad_constant = constant;
                    fields[f].live = true;
                }
            }
            StepPlan {
                pairs: mapped,
                step_lo,
                step_hi,
            }
        });

        // Storage follows the field's type: a `float32` field's rings and
        // copy hold `f32` — every value it holds is a binary32 value — and
        // widen on load. A tap of a grid read in place reads `f64` cells,
        // and so must every tap of its slot: one stage function reads a
        // slot at every step, and at a later step of a window a state
        // input is its output's ring, so a state pair shares one width.
        for (f, field) in fields.iter_mut().enumerate() {
            let narrow = dtypes[f] == DataType::Float32 && !field.scalar && !field.in_place;
            field.width = if narrow { Width::F32 } else { Width::F64 };
        }
        for &(o, i) in steps.iter().flat_map(|s| &s.pairs) {
            if fields[o].width != fields[i].width {
                fields[o].width = Width::F64;
                fields[i].width = Width::F64;
            }
        }

        // Edge slots: a tap whose out-of-domain value is not its field's
        // pad. The clean box of a stage is where none of them leaves the
        // domain; the edge pass re-evaluates the stage's cells outside it.
        for stage in stages.iter_mut().filter(|s| s.live) {
            let (mut lo, mut hi) = ([0usize; 3], ext);
            let mut edges = false;
            for slot in stage.slots.iter_mut() {
                let FusedSlot::Tap {
                    field,
                    off,
                    outside,
                } = slot
                else {
                    continue;
                };
                let pad = fields[*field].pad_constant.to_bits();
                if matches!(*outside, Outside::Constant(c) if c.to_bits() == pad) {
                    *outside = Outside::Pad;
                }
                if *outside == Outside::Pad {
                    continue;
                }
                edges = true;
                for a in 0..3 {
                    lo[a] = lo[a].max((-off[a]).max(0) as usize);
                    hi[a] = hi[a].min(ext[a].saturating_sub(off[a].max(0) as usize));
                }
            }
            stage.clean = edges.then_some((lo, hi));
        }

        // Plane layout. Rows hold whole lane batches: the last batch's
        // over-compute writes (and reads) up to `batches * lanes`, which
        // also covers the in-domain extent and the tail pad. A lower-rank
        // field's plane holds one row if it misses the row axis. A field
        // read in place has its grid's layout, and no pads even where its
        // feedback pair unified them: its readers never reach one.
        let lanes = fused_lane_width(ext[2]);
        for f in fields.iter_mut().filter(|f| f.live && !f.scalar) {
            if f.in_place {
                (f.pad_lo, f.pad_hi) = ([0; 3], [0; 3]);
                f.row = ext[2];
            } else {
                f.row = f.pad_lo[2] + ext[2].div_ceil(lanes) * lanes + f.pad_hi[2];
            }
            f.plane = f.padded(1, &ext) * f.row;
            f.origin = f.pad_lo[1] * f.row + f.pad_lo[2];
        }

        FusePlan {
            ext,
            lanes,
            fields,
            stages,
            outputs,
            steps,
        }
    }

    /// Build the Tier-4 native translation unit for this plan: for every
    /// live stage a symbol `sf_stage_{i}` over one sweep body per distinct
    /// stage, emitted from the typed bytecode (see
    /// `stencilflow_codegen::jit_unit`). Each body reads its taps at their
    /// fields' widths and stores at its ring's; an output stage no stage of
    /// its step reads also stores to `f64` output slabs, through the same
    /// symbol when its ring is `f64` (or it has none), else through a
    /// second one, `sf_stage_{i}_d`. Eligibility:
    ///
    /// * every live stage has a typed kernel (a boxed one has no C form);
    /// * stage output types are `f32`/`f64` (the native store rounding
    ///   mirrors `round_lanes`, which has no third arm in C);
    /// * every live stage's kernel re-verifies against its bind-time slot
    ///   types;
    /// * emission itself succeeds (no NaN constants).
    ///
    /// The error is why the JIT rung cannot take the program.
    pub(crate) fn jit_unit(
        &self,
        program: &StencilProgram,
    ) -> Result<crate::jit::JitUnit, Ineligible> {
        let dtype = |width| match width {
            Width::F32 => DataType::Float32,
            Width::F64 => DataType::Float64,
        };
        // Fields a live stage taps: read in the step that produces them.
        let tapped: BTreeSet<usize> = (self.stages.iter().filter(|s| s.live))
            .flat_map(|s| &s.slots)
            .filter_map(|slot| match slot {
                FusedSlot::Tap { field, .. } => Some(*field),
                FusedSlot::Scalar(_) => None,
            })
            .collect();
        let mut specs = Vec::new();
        let mut names = Vec::new();
        let mut symbols: Vec<Option<StageSymbols>> = Vec::with_capacity(self.stages.len());
        for (ix, stage) in self.stages.iter().enumerate() {
            if !stage.live {
                symbols.push(None);
                continue;
            }
            let node = stage.node(program);
            let (slot_types, typed) = stage.typed(program);
            let Some(typed) = typed else {
                let stencil = node.name.clone();
                return Err(Ineligible::Untyped { stencil });
            };
            let out_dtype = node.output_type;
            if !matches!(out_dtype, DataType::Float32 | DataType::Float64) {
                let (stage, dtype) = (node.name.clone(), out_dtype);
                return Err(Ineligible::NonFloatOutput { stage, dtype });
            }
            let kernel = node.kernel().expect("prepared kernels compile");
            stencilflow_expr::verify_kernel(kernel, Some(slot_types)).map_err(|error| {
                let stage = node.name.clone();
                Ineligible::Unverified { stage, error }
            })?;
            let slots: Vec<Option<Width>> = (stage.slots.iter())
                .map(|s| match s {
                    FusedSlot::Scalar(_) => None,
                    FusedSlot::Tap { field, .. } => Some(self.fields[*field].width),
                })
                .collect();
            let slot_kinds: Vec<JitSlotKind> = (slots.iter())
                .map(|w| w.map_or(JitSlotKind::Scalar, |w| JitSlotKind::Tap(dtype(w))))
                .collect();
            // A stage stores into its ring unless it is an output no stage
            // of its step reads, which stores to its slab in the last step
            // of a window — the only step of a run that does not step.
            let width = self.fields[stage.field()].width;
            let output = self.outputs.iter().any(|&(s, _)| s == ix);
            let direct = output && !tapped.contains(&stage.field());
            let ring = !direct || self.steps.is_some();
            let base = format!("sf_stage_{ix}");
            let mut exports = Vec::new();
            if ring {
                exports.push((base.clone(), width));
            }
            if direct && !(ring && width == Width::F64) {
                let name = if ring { format!("{base}_d") } else { base };
                exports.push((name, Width::F64));
            }
            for (symbol, store) in &exports {
                specs.push(JitStageSpec {
                    symbol: symbol.clone(),
                    kernel: typed,
                    slot_kinds: slot_kinds.clone(),
                    slot_types,
                    round_output: out_dtype == DataType::Float32,
                    store: dtype(*store),
                });
                names.push(node.name.as_str());
            }
            symbols.push(Some(StageSymbols {
                slots,
                ring: ring.then(|| exports[0].clone()),
                direct: direct.then(|| exports[exports.len() - 1].0.clone()),
            }));
        }
        let (source, bodies) = jit_translation_unit(&specs).map_err(|(ix, error)| {
            let stage = names[ix].to_string();
            Ineligible::Emission { stage, error }
        })?;
        Ok(crate::jit::JitUnit {
            source,
            symbols,
            bodies,
            resolved: std::sync::OnceLock::new(),
        })
    }

    /// Whether the program time-steps: its feedback pairs derived.
    pub(crate) fn stepping(&self) -> bool {
        self.steps.is_some()
    }

    /// Planes of `field` a worker owning `chunk` must cover at step `t` of
    /// a `w`-step window: the chunk dilated by everything downstream.
    fn region(&self, field: usize, chunk: (usize, usize), t: usize, w: usize) -> (usize, usize) {
        let (step_lo, step_hi) = self
            .steps
            .as_ref()
            .map_or((0, 0), |s| (s.step_lo, s.step_hi));
        let f = &self.fields[field];
        let lo = chunk.0.saturating_sub(f.grow_lo + (w - t) * step_lo);
        let hi = (chunk.1 + f.grow_hi + (w - t) * step_hi).min(self.ext[0]);
        (lo, hi.max(lo))
    }

    /// Chain the wavefront forward through a window of `w_max` steps:
    /// the rings in tick order, with their producers, lags and depths.
    /// `pinned` overrides the budget-derived block height; `native(stage)`
    /// says whether a stage sweeps through its compiled function (whose
    /// last-step planes are stored straight to their slab and need no
    /// ring).
    fn schedule(
        &self,
        w_max: usize,
        pinned: Option<usize>,
        native: impl Fn(usize) -> bool,
    ) -> Schedule {
        let new_ring = |field: usize, stage: Option<usize>, step: usize, lag, taps| {
            let f = &self.fields[field];
            Ring {
                field,
                stage,
                step,
                taps,
                lag,
                reach: 0,
                read_in_step: false,
                depth: 0,
                width: f.width,
                lead: f.pad_lo[0],
                plane: f.plane,
                row: f.row,
                origin: f.origin,
            }
        };
        let mut rings: Vec<Ring> = Vec::new();
        // The ring each field is read from at the current step; an input
        // has none when it is read whole (in place, or a lower-rank copy).
        let mut holder = vec![None; self.fields.len()];
        for (f, field) in self.fields.iter().enumerate() {
            let whole = field.in_place || field.copied();
            if field.live && !field.scalar && field.input && !whole {
                holder[f] = Some(rings.len());
                rings.push(new_ring(f, None, 0, 0, Vec::new()));
            }
        }
        let pairs = self.steps.as_ref().map_or(&[][..], |s| &s.pairs);
        for t in 1..=w_max {
            if t > 1 {
                for &(o, i) in pairs {
                    holder[i] = holder[o];
                }
            }
            for (s, stage) in self.stages.iter().enumerate().filter(|(_, s)| s.live) {
                let mut lag = 0usize;
                let taps: Vec<Tap> = stage
                    .slots
                    .iter()
                    .map(|slot| match *slot {
                        FusedSlot::Scalar(field) => Tap::Scalar(field),
                        FusedSlot::Tap { field, ref off, .. } => match holder[field] {
                            // Whole before the first tick: no lag.
                            None => {
                                let f = &self.fields[field];
                                let (s0, s1) = f.strides();
                                let first = (f.pad_lo[0] * s0 + f.origin) as i64;
                                let inner =
                                    first + off[0] * s0 as i64 + off[1] * s1 as i64 + off[2];
                                Tap::Source {
                                    field,
                                    inner: inner as usize,
                                    s0,
                                    s1,
                                }
                            }
                            Some(ring) => {
                                let r = &rings[ring];
                                lag = lag.max(r.lag + off[0].max(0) as usize);
                                let inner = r.origin as i64 + off[1] * r.row as i64 + off[2];
                                Tap::Ring {
                                    ring,
                                    off0: off[0],
                                    inner: inner as usize,
                                }
                            }
                        },
                    })
                    .collect();
                for tap in &taps {
                    if let Tap::Ring { ring, off0, .. } = tap {
                        let r = &mut rings[*ring];
                        r.reach = r.reach.max(lag - r.lag + (-off0).max(0) as usize);
                        r.read_in_step |= r.step == t;
                    }
                }
                holder[stage.field()] = Some(rings.len());
                rings.push(new_ring(stage.field(), Some(s), t, lag, taps));
            }
        }

        // A ring nobody reads belongs to an output of the window's last
        // step (liveness starts at the outputs); a native stage stores
        // those planes directly, so the ring holds nothing.
        let needed =
            |r: &Ring| r.read_in_step || !(r.step == w_max && r.stage.is_some_and(&native));
        let whole = |r: &Ring| self.ext[0] + r.lead + self.fields[r.field].pad_hi[0];
        let max_lag = rings.iter().map(|r| r.lag).max().unwrap_or(0);
        let max_pad_hi = self.fields.iter().map(|f| f.pad_hi[0]).max().unwrap_or(0);
        let one_tick = self.ext[0] + max_lag + max_pad_hi;
        // The budget counts each ring's plane in its own element size.
        let block = pinned.unwrap_or_else(|| {
            let (mut all, mut fixed, mut per_block) = (0usize, 0usize, 0usize);
            for r in rings.iter().filter(|r| needed(r)) {
                let plane = r.plane * r.bytes();
                all += whole(r) * plane;
                fixed += r.reach * plane;
                per_block += plane;
            }
            if all <= SCRATCH_BUDGET_BYTES {
                one_tick
            } else {
                (SCRATCH_BUDGET_BYTES.saturating_sub(fixed) / per_block.max(1)).max(1)
            }
        });
        let mut arena_len = (0, 0);
        for r in rings.iter_mut() {
            if needed(r) {
                r.depth = (r.reach + block).min(whole(r));
                match r.width {
                    Width::F32 => arena_len.0 += r.depth * r.plane,
                    Width::F64 => arena_len.1 += r.depth * r.plane,
                }
            }
        }
        Schedule {
            rings,
            block,
            arena_len,
        }
    }
}

/// One ring buffer of the wavefront — the planes of one field at one step
/// of the window, addressed modulo `depth` — and what produces it.
#[derive(Debug)]
struct Ring {
    field: usize,
    /// The producing stage (`None`: copied in from the input's grid).
    stage: Option<usize>,
    /// Step that produces it (0: a copied-in input).
    step: usize,
    /// How each kernel slot of the producing stage reads its operand.
    taps: Vec<Tap>,
    /// Planes the producer trails the front by.
    lag: usize,
    /// Planes the slowest consumer trails the producer by, its backward
    /// reach included (the delay buffer plus the internal buffer).
    reach: usize,
    /// Whether a stage of the producing step reads it.
    read_in_step: bool,
    /// Planes held: `reach` plus the block height, capped at the whole
    /// padded field (0: never written, see [`FusePlan::schedule`]).
    depth: usize,
    /// Its field's width.
    width: Width,
    /// Pad planes below the domain (`pos + lead` is never negative).
    lead: usize,
    plane: usize,
    row: usize,
    origin: usize,
}

impl Ring {
    /// Bytes per cell.
    fn bytes(&self) -> usize {
        match self.width {
            Width::F32 => std::mem::size_of::<f32>(),
            Width::F64 => std::mem::size_of::<f64>(),
        }
    }

    /// Ring slot holding plane `pos`.
    #[inline]
    fn slot(&self, pos: i64) -> usize {
        (pos + self.lead as i64) as usize % self.depth
    }

    /// Flat offset of plane `pos`.
    #[inline]
    fn at(&self, pos: i64) -> usize {
        self.slot(pos) * self.plane
    }

    /// Planes from `pos` up that are contiguous in the buffer.
    #[inline]
    fn run(&self, pos: i64) -> usize {
        self.depth - self.slot(pos)
    }
}

/// How one kernel slot of a scheduled stage reads its operand.
#[derive(Debug)]
enum Tap {
    /// Scalar input (index into the scalar table).
    Scalar(usize),
    /// Plane `pos + off0` of `ring`, `inner` cells into it.
    Ring {
        ring: usize,
        off0: i64,
        inner: usize,
    },
    /// The buffer input `field` is read from whole (its grid in place, or
    /// its padded lower-rank copy): in plane `pos` (never negative, a stage
    /// only sweeps in-domain planes) the tap reads the row at
    /// `inner + pos * s0`, and the rows after it `s1` apart. A stride is 0
    /// along an axis the input does not span.
    Source {
        field: usize,
        inner: usize,
        s0: usize,
        s1: usize,
    },
}

/// The wavefront of one `execute` call; a window shorter than the one it
/// was chained for runs the prefix of `rings` up to its last step.
#[derive(Debug)]
struct Schedule {
    /// Copied-in inputs first, then step-major in topological order.
    rings: Vec<Ring>,
    /// Planes the front advances per tick.
    block: usize,
    /// Cells of one worker's `f32` and `f64` rings, each back to back in
    /// one arena.
    arena_len: (usize, usize),
}

impl Schedule {
    /// Split a worker's arenas into its rings.
    fn carve<'a>(&self, mut f32s: &'a mut [f32], mut f64s: &'a mut [f64]) -> Vec<CellsMut<'a>> {
        self.rings
            .iter()
            .map(|r| {
                let len = r.depth * r.plane;
                match r.width {
                    Width::F32 => {
                        let (ring, rest) = std::mem::take(&mut f32s).split_at_mut(len);
                        f32s = rest;
                        CellsMut::F32(ring)
                    }
                    Width::F64 => {
                        let (ring, rest) = std::mem::take(&mut f64s).split_at_mut(len);
                        f64s = rest;
                        CellsMut::F64(ring)
                    }
                }
            })
            .collect()
    }
}

/// Everything a worker needs for one window, shared read-only.
struct WindowCtx<'a> {
    plan: &'a FusePlan,
    /// The program whose kernels the stages evaluate.
    program: &'a StencilProgram,
    sched: &'a Schedule,
    /// What each live input field is read from (empty for the rest): the
    /// caller's grid or the previous window's pooled state grid (read in
    /// place or copied into a ring), or a lower-rank input's padded copy.
    sources: Vec<Cells<'a>>,
    /// Scalar values per field (scalar inputs only).
    scalars: &'a [f64],
    /// Steps in this window.
    w: usize,
    /// Whether this is the final window (masks are written).
    last: bool,
    /// Tier-4 native stage functions, indexed like `plan.stages` (`None`
    /// entries and `None` overall both mean "sweep through the bytecode").
    jit: Option<&'a [Option<NativeStage>]>,
}

impl WindowCtx<'_> {
    /// The native functions of `stage`, if it sweeps through them.
    fn native(&self, stage: Option<usize>) -> Option<&NativeStage> {
        self.jit.and_then(|fns| fns[stage?].as_ref())
    }
}

/// A pooled cell buffer of either width.
enum Buffer {
    F32(Vec<f32>),
    F64(Vec<f64>),
}

impl Buffer {
    fn acquire(executor: &ReferenceExecutor, width: Width, len: usize) -> Buffer {
        match width {
            Width::F32 => Buffer::F32(executor.pool_acquire(len)),
            Width::F64 => Buffer::F64(executor.pool_acquire(len)),
        }
    }

    fn cells(&self) -> Cells<'_> {
        match self {
            Buffer::F32(cells) => Cells::F32(cells),
            Buffer::F64(cells) => Cells::F64(cells),
        }
    }

    fn cells_mut(&mut self) -> CellsMut<'_> {
        match self {
            Buffer::F32(cells) => CellsMut::F32(cells),
            Buffer::F64(cells) => CellsMut::F64(cells),
        }
    }

    fn release(self, executor: &ReferenceExecutor) {
        match self {
            Buffer::F32(cells) => executor.pool_release(cells),
            Buffer::F64(cells) => executor.pool_release(cells),
        }
    }
}

/// Execute `compiled` through the fused tier for `steps` time steps
/// (`steps == 1` is a plain fused run; callers have already validated the
/// inputs and, for `steps > 1`, that the plan supports stepping). `probe`
/// is asked before every window whether to go on.
///
/// When `jit` provides a Tier-4 native function for a stage, its sweeps
/// run through the compiled `.so` instead of the bytecode lane interpreter
/// — same wavefront, same rings, same pads, so everything in the
/// bit-identity argument above carries over except the innermost kernel
/// evaluation, which the native unit replicates operation-for-operation
/// (see [`FusePlan::jit_unit`]). A native function writes exactly the
/// in-domain cells of a row, so its last-step planes go straight to the
/// output (or next-state) slab; the lane interpreter over-computes past
/// the row end and keeps ring + copy-out.
///
/// # Errors
///
/// The probe's error, or a boxed kernel's (as [`ProgramError::Code`]
/// naming the stage the interpreter names). Either way every buffer the
/// run drew is released first.
pub(crate) fn execute<E: From<ProgramError>>(
    executor: &ReferenceExecutor,
    compiled: &CompiledProgram,
    inputs: &BTreeMap<String, Grid>,
    steps: usize,
    jit: Option<&[Option<NativeStage>]>,
    probe: &dyn Fn() -> Result<(), E>,
) -> Result<ExecutionResult, E> {
    let (program, plan) = (compiled.program(), &compiled.tier_trace().fused);
    let names = program.dag().names();
    let w_max = executor.fusion_window.clamp(1, steps);
    let [n0, n1, nk] = plan.ext;
    let num_cells = n0 * n1 * nk;
    let live_stages = plan.stages.iter().filter(|s| s.live).count();
    let threads = executor.worker_threads(n0, num_cells * live_stages.max(1) * w_max, 2);
    // One contiguous chunk of planes per worker.
    let chunk_h = n0.div_ceil(threads);
    let chunks: Vec<(usize, usize)> = (0..n0.div_ceil(chunk_h))
        .map(|ix| (ix * chunk_h, ((ix + 1) * chunk_h).min(n0)))
        .collect();

    let sched = plan.schedule(w_max, executor.fusion_tile_rows, |stage| {
        jit.is_some_and(|fns| fns[stage].is_some())
    });

    // Every pooled buffer acquired from here on is released at the end.
    // Lower-rank and transposed inputs are never state, so one padded copy
    // of each serves every window and every worker.
    let copies: Vec<Option<Buffer>> = plan
        .fields
        .iter()
        .map(|field| {
            if !(field.input && field.live && field.copied()) {
                return None;
            }
            let len = field.padded(0, &plan.ext) * field.plane;
            let mut buf = Buffer::acquire(executor, field.width, len);
            let grid = inputs[names.name(field.id)].as_slice();
            fill_copy(plan, field, grid, buf.cells_mut());
            Some(buf)
        })
        .collect();

    // Scalar values and what each input is read from.
    let mut scalars = vec![0.0f64; plan.fields.len()];
    let mut user_sources: Vec<Cells<'_>> = vec![Cells::F64(&[]); plan.fields.len()];
    for (ix, field) in plan.fields.iter().enumerate() {
        if !field.input || !field.live {
            continue;
        }
        let grid = inputs[names.name(field.id)].as_slice();
        user_sources[ix] = match &copies[ix] {
            _ if field.scalar => {
                scalars[ix] = grid[0];
                continue;
            }
            Some(copy) => copy.cells(),
            None => Cells::F64(grid),
        };
    }

    // Result grids and masks for the program outputs. Under the service
    // tier (pooled results) these buffers come from the executor pools:
    // the cells as their last user left them (the sinks store every owned
    // plane), the masks all-true like fresh allocations.
    let space = program.space();
    let dim_refs: Vec<&str> = space.dims.iter().map(String::as_str).collect();
    let mut out_grids: Vec<Grid> = plan
        .outputs
        .iter()
        .map(|&(stage, _)| {
            Grid::from_data(
                &dim_refs,
                &space.shape,
                plan.stages[stage].node(program).output_type,
                executor.alloc_result_cells(num_cells),
            )
        })
        .collect();
    let mut out_masks: Vec<Vec<bool>> = plan
        .outputs
        .iter()
        .map(|_| executor.alloc_result_mask(num_cells))
        .collect();

    // Window partition of the step count: `windows` of `w_max` steps, the
    // last one shorter when `w_max` does not divide `steps`.
    let windows = steps.div_ceil(w_max);

    // Pooled full-size state grids for window boundaries, one per output
    // (stepping pairs every output), in two alternating sets; none needed
    // when one window covers every step.
    let mut state_a: Vec<Vec<f64>> = Vec::new();
    let mut state_b: Vec<Vec<f64>> = Vec::new();
    if windows > 1 {
        for set in [&mut state_a, &mut state_b] {
            *set = plan
                .outputs
                .iter()
                .map(|_| executor.pool_acquire(num_cells))
                .collect();
        }
    }

    // Two arenas per worker holding all of its `f32` and `f64` rings,
    // acquired once for the whole call; the row and cell pads of every
    // ring plane are filled here and never written again.
    let (len32, len64) = sched.arena_len;
    let mut arenas: Vec<(Vec<f32>, Vec<f64>)> = chunks
        .iter()
        .map(|_| {
            let f32s = if len32 == 0 {
                Vec::new()
            } else {
                executor.pool_acquire(len32)
            };
            let f64s = if len64 == 0 {
                Vec::new()
            } else {
                executor.pool_acquire(len64)
            };
            (f32s, f64s)
        })
        .collect();
    for (f32s, f64s) in arenas.iter_mut() {
        for (ring, buf) in sched.rings.iter().zip(sched.carve(f32s, f64s)) {
            fill_pads(plan, ring, buf);
        }
    }

    let mut cells_evaluated = 0usize;
    let mut failure: Result<(), E> = Ok(());
    for wix in 0..windows {
        if let Err(error) = probe() {
            failure = Err(error);
            break;
        }
        let w = w_max.min(steps - wix * w_max);
        let last = wix + 1 == windows;
        // Windows alternate between the two pooled state sets: window 0
        // writes A, window 1 reads A and writes B, and so on (the final
        // window writes the result grids instead).
        let (read_set, write_set): (&Vec<Vec<f64>>, &mut Vec<Vec<f64>>) = if wix % 2 == 0 {
            (&state_b, &mut state_a)
        } else {
            (&state_a, &mut state_b)
        };
        // This window's state sources: user inputs first, the previous
        // window's pooled outputs afterwards.
        let mut sources = user_sources.clone();
        if wix > 0 {
            let pairs = &plan.steps.as_ref().expect("several windows step").pairs;
            for (state, &(_, input)) in read_set.iter().zip(pairs) {
                sources[input] = Cells::F64(state);
            }
        }

        // Split the write targets into disjoint per-worker slabs.
        let mut workers: Vec<Worker<'_>> = chunks
            .iter()
            .zip(arenas.iter_mut())
            .map(|(&chunk, (f32s, f64s))| Worker {
                chunk,
                slabs: Vec::new(),
                masks: Vec::new(),
                f32s,
                f64s,
            })
            .collect();
        let targets: Vec<&mut [f64]> = if last {
            out_grids.iter_mut().map(Grid::as_mut_slice).collect()
        } else {
            write_set.iter_mut().map(Vec::as_mut_slice).collect()
        };
        for target in targets {
            for (worker, slab) in workers
                .iter_mut()
                .zip(split_slabs(target, &chunks, n1 * nk))
            {
                worker.slabs.push(slab);
            }
        }
        if last {
            for mask in out_masks.iter_mut() {
                for (worker, slab) in workers.iter_mut().zip(split_slabs(mask, &chunks, n1 * nk)) {
                    worker.masks.push(slab);
                }
            }
        }

        let ctx = WindowCtx {
            plan,
            program,
            sched: &sched,
            sources,
            scalars: &scalars,
            w,
            last,
            jit,
        };
        let swept: Vec<Swept> = if workers.len() == 1 {
            workers
                .into_iter()
                .map(|worker| run_worker(&ctx, worker))
                .collect()
        } else {
            std::thread::scope(|scope| {
                let ctx = &ctx;
                let handles: Vec<_> = workers
                    .into_iter()
                    .map(|worker| scope.spawn(move || run_worker(ctx, worker)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("fused workers do not panic"))
                    .collect()
            })
        };
        cells_evaluated += swept.iter().map(|s| s.cells).sum::<usize>();
        // The first failing ring of any worker is the interpreter's first
        // failing stage (see the module docs).
        let first = swept
            .into_iter()
            .filter_map(|s| s.failed)
            .min_by_key(|f| f.0);
        if let Some((ring, source)) = first {
            let stage = sched.rings[ring].stage.expect("only stages fail");
            let stencil = plan.stages[stage].node(program).name.clone();
            failure = Err(E::from(ProgramError::Code { stencil, source }));
            break;
        }
    }

    // (The pools drop the empty placeholders.)
    for (f32s, f64s) in arenas {
        executor.pool_release(f32s);
        executor.pool_release(f64s);
    }
    for buf in state_a.into_iter().chain(state_b) {
        executor.pool_release(buf);
    }
    for copy in copies.into_iter().flatten() {
        copy.release(executor);
    }
    if let Err(error) = failure {
        executor.release_all(out_grids, out_masks);
        return Err(error);
    }

    let mut result_fields = BTreeMap::new();
    let mut result_masks = BTreeMap::new();
    for ((&(stage, _), grid), mask) in plan.outputs.iter().zip(out_grids).zip(out_masks) {
        let name = plan.stages[stage].node(program).name.clone();
        result_fields.insert(name.clone(), grid);
        result_masks.insert(name, mask);
    }
    Ok(ExecutionResult::from_parts(
        result_fields,
        result_masks,
        cells_evaluated,
    ))
}

/// Split a full-grid buffer into per-worker slabs along the chunk bounds.
fn split_slabs<'a, T>(
    mut buf: &'a mut [T],
    chunks: &[(usize, usize)],
    plane_cells: usize,
) -> Vec<&'a mut [T]> {
    chunks
        .iter()
        .map(|&(lo, hi)| {
            let (slab, rest) = std::mem::take(&mut buf).split_at_mut((hi - lo) * plane_cells);
            buf = rest;
            slab
        })
        .collect()
}

/// Fill the row and cell pads of every plane of a ring with its boundary
/// constant (already rounded through the field's type, so a binary32
/// value in an `f32` ring). In-domain cells are left as they are: every
/// one a tap reads was produced first (the lag recurrence).
fn fill_pads(plan: &FusePlan, ring: &Ring, buf: CellsMut<'_>) {
    let c = plan.fields[ring.field].pad_constant;
    match buf {
        CellsMut::F32(buf) => fill_pads_of(plan, ring, buf, narrow(c)),
        CellsMut::F64(buf) => fill_pads_of(plan, ring, buf, c),
    }
}

/// [`fill_pads`] on cells of one width.
fn fill_pads_of<T: Copy>(plan: &FusePlan, ring: &Ring, buf: &mut [T], c: T) {
    let field = &plan.fields[ring.field];
    let (rows_lo, rows_hi) = (field.pad_lo[1], field.pad_lo[1] + plan.ext[1]);
    let (cells_lo, cells_hi) = (field.pad_lo[2], field.pad_lo[2] + plan.ext[2]);
    for plane in buf.chunks_exact_mut(ring.plane) {
        plane[..rows_lo * ring.row].fill(c);
        plane[rows_hi * ring.row..].fill(c);
        for row in plane[rows_lo * ring.row..rows_hi * ring.row].chunks_exact_mut(ring.row) {
            row[..cells_lo].fill(c);
            row[cells_hi..].fill(c);
        }
    }
}

/// Copy a lower-rank or transposed input into its padded, space-ordered
/// buffer: its grid in the in-domain cells (each value across its whole
/// row if the input is replicated), the boundary constant everywhere else.
fn fill_copy(plan: &FusePlan, field: &FusedField, src: &[f64], buf: CellsMut<'_>) {
    match buf {
        CellsMut::F32(buf) => fill_copy_of(plan, field, src, buf, narrow),
        CellsMut::F64(buf) => fill_copy_of(plan, field, src, buf, |v| v),
    }
}

/// [`fill_copy`] into cells of one width, each value converted by `cell`.
fn fill_copy_of<T: Copy>(
    plan: &FusePlan,
    field: &FusedField,
    src: &[f64],
    buf: &mut [T],
    cell: impl Fn(f64) -> T,
) {
    let nk = plan.ext[2];
    let [s0, s1, sk] = field.src;
    buf.fill(cell(field.pad_constant));
    for p in 0..field.extent(0, &plan.ext) {
        for j in 0..field.extent(1, &plan.ext) {
            let at = (field.pad_lo[0] + p) * field.plane + field.origin + j * field.row;
            let from = p * s0 + j * s1;
            let row = &mut buf[at..at + nk];
            match sk {
                0 => row.fill(cell(src[from])),
                1 => {
                    for (to, &v) in row.iter_mut().zip(&src[from..from + nk]) {
                        *to = cell(v);
                    }
                }
                _ => {
                    for (k, to) in row.iter_mut().enumerate() {
                        *to = cell(src[from + k * sk]);
                    }
                }
            }
        }
    }
}

/// `v` as an `f32`: exact, because the grid of a `float32` field holds
/// binary32 values (its stores round through `f32`), which the debug
/// build checks — NaN excepted, whose payload need not survive.
#[inline]
fn narrow(v: f64) -> f32 {
    debug_assert!(
        v.is_nan() || f64::from(v as f32) == v,
        "{v:e} is not a binary32 value"
    );
    v as f32
}

/// Where the planes a stage produces in this window end up.
#[derive(Clone, Copy)]
enum Sink {
    /// In its ring only.
    Ring,
    /// In its ring (a stage of the same step reads it, or the lane
    /// interpreter produced it), then copied to the slab of this output.
    Copy(usize),
    /// Stored by the native function straight to the slab of this output.
    Direct(usize),
}

/// One ring's progress through a window on one worker.
struct RingRun {
    /// In-domain planes to compute (the chunk, dilated at the seams).
    lo: i64,
    hi: i64,
    /// Next plane to produce, and one past the last; both reach into the
    /// pad planes where the region touches the domain edge.
    next: i64,
    end: i64,
    sink: Sink,
}

/// What one worker owns for one window: its chunk of planes, the slab of
/// every output (and, in the final window, of every mask) over that chunk,
/// and the arenas its rings are carved from.
struct Worker<'a> {
    chunk: (usize, usize),
    slabs: Vec<&'a mut [f64]>,
    masks: Vec<&'a mut [bool]>,
    f32s: &'a mut [f32],
    f64s: &'a mut [f64],
}

/// What one worker's window came to: the logical cells evaluated (seam
/// recompute included, end-of-row over-compute excluded), and the first
/// ring a boxed kernel failed in, with its error.
struct Swept {
    cells: usize,
    failed: Option<(usize, ExprError)>,
}

/// Execute one worker's chunk for one window.
fn run_worker(ctx: &WindowCtx<'_>, worker: Worker<'_>) -> Swept {
    match ctx.plan.lanes {
        32 => run_worker_lanes::<32>(ctx, worker),
        16 => run_worker_lanes::<16>(ctx, worker),
        _ => run_worker_lanes::<8>(ctx, worker),
    }
}

fn run_worker_lanes<const L: usize>(ctx: &WindowCtx<'_>, worker: Worker<'_>) -> Swept {
    let Worker {
        chunk,
        mut slabs,
        mut masks,
        f32s,
        f64s,
    } = worker;
    let plan = ctx.plan;
    let sched = ctx.sched;
    let [n0, n1, nk] = plan.ext;
    let mut rings = sched.carve(f32s, f64s);
    let max_taps = sched.rings.iter().map(|r| r.taps.len()).max().unwrap_or(0);
    let mut lanes = LaneState::<L> {
        bases: vec![0; max_taps],
        strides: vec![0; max_taps],
        scratch: LaneScratch::default(),
    };
    let mut cell = CellState::default();
    let mut buffers = SweepBuffers::default();

    if ctx.last {
        for (&(stage, _), mask) in plan.outputs.iter().zip(masks.iter_mut()) {
            if plan.stages[stage].node(ctx.program).boundary.shrink {
                fill_mask(plan, &plan.stages[stage], mask, chunk);
            }
        }
    }

    // This window's rings and where each starts and ends on this chunk.
    let live = sched.rings.iter().take_while(|r| r.step <= ctx.w).count();
    let mut runs: Vec<RingRun> = sched.rings[..live]
        .iter()
        .map(|ring| {
            let output = plan
                .outputs
                .iter()
                .position(|&(_, field)| field == ring.field);
            let sink = match output {
                Some(o) if ring.step == ctx.w => {
                    if ctx.native(ring.stage).is_some() && !ring.read_in_step {
                        Sink::Direct(o)
                    } else {
                        Sink::Copy(o)
                    }
                }
                _ => Sink::Ring,
            };
            let (lo, hi) = plan.region(ring.field, chunk, ring.step.max(1), ctx.w);
            let (mut next, mut end) = (lo as i64, hi as i64);
            // A region that touches the domain edge also produces the pad
            // planes beyond it (a slab has none).
            if !matches!(sink, Sink::Direct(_)) {
                if lo == 0 {
                    next = -(ring.lead as i64);
                }
                if hi == n0 {
                    end = (n0 + plan.fields[ring.field].pad_hi[0]) as i64;
                }
            }
            RingRun {
                lo: lo as i64,
                hi: hi as i64,
                next,
                end,
                sink,
            }
        })
        .collect();

    let mut cells = 0usize;
    // A ring from the first failing one on is not swept any more: nothing
    // before it reads it (see the module docs).
    let mut failed: Option<(usize, ExprError)> = None;
    let mut front = runs.iter().map(|run| run.lo).min().unwrap_or(0);
    let mut pending = true;
    while pending {
        pending = false;
        front += sched.block as i64;
        let swept = failed.as_ref().map_or(runs.len(), |f| f.0);
        'rings: for (ix, run) in runs.iter_mut().enumerate().take(swept) {
            let ring = &sched.rings[ix];
            let upto = (front - ring.lag as i64).min(run.end);
            let from = run.next;
            run.next = upto.max(from);
            pending |= run.next < run.end;
            // Pad planes below and above the domain.
            for pos in (from..upto.min(run.lo)).chain(run.hi.max(from)..upto) {
                let at = ring.at(pos);
                rings[ix].fill(at..at + ring.plane, plan.fields[ring.field].pad_constant);
            }
            // In-domain planes, in runs no ring wraps within.
            let mut x = from.max(run.lo);
            while x < upto.min(run.hi) {
                let mut n = (upto.min(run.hi) - x) as usize;
                if !matches!(run.sink, Sink::Direct(_)) {
                    n = n.min(ring.run(x));
                }
                for tap in &ring.taps {
                    if let Tap::Ring { ring: r, off0, .. } = tap {
                        n = n.min(sched.rings[*r].run(x + off0));
                    }
                }
                let span_x = x;
                x += n as i64;
                if ring.stage.is_none() {
                    copy_in(
                        plan,
                        ring,
                        ctx.sources[ring.field],
                        &mut rings[ix],
                        span_x,
                        n,
                    );
                    continue;
                }
                // Detach the write target so the taps can borrow the
                // rings (a stage never reads the ring it writes).
                let (mut out, layout) = match run.sink {
                    Sink::Direct(o) => (
                        CellsMut::F64(std::mem::take(&mut slabs[o])),
                        ((span_x as usize - chunk.0) * n1 * nk, n1 * nk, nk),
                    ),
                    _ => (
                        std::mem::take(&mut rings[ix]),
                        (ring.at(span_x) + ring.origin, ring.plane, ring.row),
                    ),
                };
                let span = Span {
                    x: span_x,
                    n,
                    layout,
                };
                let stage = &plan.stages[ring.stage.expect("copy-ins are not swept")];
                let evaluated = match stage.typed(ctx.program).1 {
                    Some(typed) => {
                        match ctx.native(ring.stage) {
                            Some(native) => {
                                let func = match run.sink {
                                    Sink::Direct(_) => native.direct.as_ref(),
                                    Sink::Ring | Sink::Copy(_) => native.ring.as_ref(),
                                };
                                let func = func.expect("the unit exports every store a run makes");
                                sweep_native(ctx, func, ring, &rings, &mut out, span, &mut buffers)
                            }
                            None => {
                                sweep_lanes(ctx, ring, &rings, &mut out, span, typed, &mut lanes)
                            }
                        }
                        // The edge pass re-evaluates cells counted below.
                        match stage.clean {
                            Some(clean) => {
                                cell_pass(ctx, ring, &rings, &mut out, span, clean, &mut cell)
                            }
                            None => Ok(()),
                        }
                    }
                    // A boxed stage: every cell once, one at a time, as the
                    // edge pass evaluates its cells.
                    None => cell_pass(ctx, ring, &rings, &mut out, span, NOWHERE, &mut cell),
                };
                cells += n * n1 * nk;
                match (run.sink, out) {
                    (Sink::Direct(o), CellsMut::F64(slab)) => slabs[o] = slab,
                    (Sink::Direct(_), CellsMut::F32(_)) => unreachable!("slabs hold f64"),
                    (Sink::Ring | Sink::Copy(_), out) => rings[ix] = out,
                }
                if let Err(error) = evaluated {
                    failed = Some((ix, error));
                    break 'rings;
                }
                if let Sink::Copy(o) = run.sink {
                    let own = (span_x.max(chunk.0 as i64), x.min(chunk.1 as i64));
                    copy_out(plan, ring, rings[ix].as_cells(), slabs[o], own, chunk.0);
                }
            }
        }
    }
    Swept { cells, failed }
}

/// A run of `n` planes from `x` that no ring wraps within, and where it is
/// stored: the flat offset of its first in-domain cell, the plane stride
/// and the row stride.
#[derive(Clone, Copy)]
struct Span {
    x: i64,
    n: usize,
    layout: (usize, usize, usize),
}

/// Per-worker scratch of the bytecode sweep.
struct LaneState<const L: usize> {
    /// Flat offset of each tap's current row, and its row stride.
    bases: Vec<usize>,
    strides: Vec<usize>,
    scratch: LaneScratch<L>,
}

/// `L` cells of `cells` from `at` on, widened to `f64` (exact). Only a
/// grid read in place can end inside a batch: the last one of its last
/// row, whose lanes past the row end are over-computed and never read.
#[inline]
fn load<const L: usize>(cells: Cells<'_>, at: usize) -> [f64; L] {
    let mut batch = [0.0; L];
    match cells {
        Cells::F64(buf) => match buf.get(at..at + L) {
            Some(cells) => batch.copy_from_slice(cells),
            None => batch[..buf.len() - at].copy_from_slice(&buf[at..]),
        },
        Cells::F32(buf) => {
            let cells = buf.get(at..at + L).unwrap_or(&buf[at..]);
            for (lane, &v) in batch.iter_mut().zip(cells) {
                *lane = f64::from(v);
            }
        }
    }
    batch
}

/// Round a lane batch of raw results through the stencil's output element
/// type into `out` — per lane exactly `Value::from_f64(v, dtype).as_f64()`,
/// the rounding the interpreter applies on store.
#[inline]
fn round_lanes<const LANES: usize>(values: &[f64; LANES], dtype: DataType, out: &mut [f64]) {
    match dtype {
        DataType::Float32 => {
            for (cell, &v) in out.iter_mut().zip(values.iter()) {
                *cell = v as f32 as f64;
            }
        }
        DataType::Float64 => out.copy_from_slice(values),
        _ => {
            for (cell, &v) in out.iter_mut().zip(values.iter()) {
                *cell = Value::from_f64(v, dtype).as_f64();
            }
        }
    }
}

/// Store `values` from cell `at` of `out` on, rounded through `dtype` (as
/// the interpreter stores): into `f32` cells — only a `float32` field's —
/// that rounding is the narrowing.
#[inline]
fn store<const L: usize>(values: &[f64; L], dtype: DataType, out: &mut CellsMut<'_>, at: usize) {
    match out {
        CellsMut::F64(out) => round_lanes(values, dtype, &mut out[at..at + L]),
        CellsMut::F32(out) => {
            for (cell, &v) in out[at..at + L].iter_mut().zip(values) {
                *cell = v as f32;
            }
        }
    }
}

/// Sweep one typed stage over `span` through the lane interpreter, into
/// its (detached) ring `out`.
fn sweep_lanes<const L: usize>(
    ctx: &WindowCtx<'_>,
    target: &Ring,
    rings: &[CellsMut<'_>],
    out: &mut CellsMut<'_>,
    span: Span,
    typed: &TypedKernel,
    state: &mut LaneState<L>,
) {
    let plan = ctx.plan;
    let [_, n1, nk] = plan.ext;
    let stage = &plan.stages[target.stage.expect("copy-ins are not swept")];
    let out_dtype = stage.node(ctx.program).output_type;
    let batches = nk.div_ceil(L);
    let field = &plan.fields[target.field];
    let pad_hi_k = field.pad_hi[2];
    let refill_tail = pad_hi_k > 0 && batches * L > nk;
    let (out_base, out_s0, out_s1) = span.layout;
    let LaneState {
        bases,
        strides,
        scratch,
    } = state;
    for (stride, tap) in strides.iter_mut().zip(&target.taps) {
        *stride = match tap {
            Tap::Ring { ring, .. } => ctx.sched.rings[*ring].row,
            Tap::Source { s1, .. } => *s1,
            Tap::Scalar(_) => 0,
        };
    }
    for p in 0..span.n {
        let pos = span.x + p as i64;
        for (base, tap) in bases.iter_mut().zip(&target.taps) {
            match tap {
                Tap::Ring { ring, off0, inner } => {
                    *base = ctx.sched.rings[*ring].at(pos + off0) + inner;
                }
                Tap::Source { inner, s0, .. } => *base = inner + pos as usize * s0,
                Tap::Scalar(_) => {}
            }
        }
        let mut out_row = out_base + p * out_s0;
        for _ in 0..n1 {
            for b in 0..batches {
                let k0 = b * L;
                // Each slot batch is built directly on the operand stack
                // from its contiguous row (scalars broadcast).
                let result = typed.eval_lanes_with(
                    |s| match &target.taps[s] {
                        Tap::Ring { ring, .. } => load(rings[*ring].as_cells(), bases[s] + k0),
                        Tap::Source { field, .. } => load(ctx.sources[*field], bases[s] + k0),
                        Tap::Scalar(field) => [ctx.scalars[*field]; L],
                    },
                    scratch,
                );
                store(&result, out_dtype, out, out_row + k0);
            }
            // Restore the tail pad the over-computed last batch clobbered.
            if refill_tail {
                out.fill(out_row + nk..out_row + nk + pad_hi_k, field.pad_constant);
            }
            out_row += out_s1;
            for (base, stride) in bases.iter_mut().zip(strides.iter()) {
                *base += stride;
            }
        }
    }
}

/// The clean box of a boxed stage: empty, so [`cell_pass`] evaluates every
/// cell of its span.
const NOWHERE: ([usize; 3], [usize; 3]) = ([0; 3], [0; 3]);

/// Per-worker scratch of [`cell_pass`]: the raw slot values of one cell,
/// and what each kernel form evaluates them with.
#[derive(Default)]
struct CellState {
    raw: Vec<f64>,
    values: Vec<Value>,
    typed: TypedScratch,
    boxed: EvalScratch,
}

/// One stage over `span`, one cell at a time, for every in-domain cell
/// outside `clean`: the edge pass of a typed stage (right after its sweep,
/// and before any consumer reads the planes), or the whole sweep of a
/// boxed one (`clean` is [`NOWHERE`]). Each edge tap that leaves the
/// domain reads what the interpreter reads there — the field at the
/// cell's centre (`Copy`) or the tap's own constant — instead of the
/// field's pad; every other tap loads what the lane sweep loads. A typed
/// stage evaluates through its typed kernel, a boxed one through its
/// `Value` kernel, each slot tagged with its field's type; the result is
/// rounded through the output type and stored (over the sweep's).
///
/// # Errors
///
/// A boxed kernel's evaluation error (typed kernels are total).
fn cell_pass(
    ctx: &WindowCtx<'_>,
    target: &Ring,
    rings: &[CellsMut<'_>],
    out: &mut CellsMut<'_>,
    span: Span,
    (lo, hi): ([usize; 3], [usize; 3]),
    state: &mut CellState,
) -> Result<(), ExprError> {
    let plan = ctx.plan;
    let [_, n1, nk] = plan.ext;
    let stage = &plan.stages[target.stage.expect("copy-ins are not swept")];
    let node = stage.node(ctx.program);
    let (slot_types, typed_kernel) = stage.typed(ctx.program);
    let kernel = node.kernel()?;
    let ext = plan.ext.map(|e| e as i64);
    // The cell at `d` from `cell` of the buffer `tap` reads.
    let load = |tap: &Tap, cell: [i64; 3], d: [i64; 3]| -> f64 {
        let (buf, at): (Cells<'_>, i64) = match *tap {
            Tap::Ring { ring, .. } => {
                let r = &ctx.sched.rings[ring];
                let inner = r.origin as i64 + (cell[1] + d[1]) * r.row as i64 + cell[2] + d[2];
                (rings[ring].as_cells(), r.at(cell[0] + d[0]) as i64 + inner)
            }
            Tap::Source { field, s0, s1, .. } => {
                let f = &plan.fields[field];
                let (s0, s1) = (s0 as i64, s1 as i64);
                let first = (f.pad_lo[0] as i64) * s0 + f.origin as i64;
                let inner = (cell[1] + d[1]) * s1 + cell[2] + d[2];
                (ctx.sources[field], first + (cell[0] + d[0]) * s0 + inner)
            }
            Tap::Scalar(_) => unreachable!("a field slot reads a field"),
        };
        buf.get(at as usize)
    };
    let CellState {
        raw,
        values,
        typed,
        boxed,
    } = state;
    let (out_base, out_s0, out_s1) = span.layout;
    raw.resize(stage.slots.len(), 0.0);
    values.resize(stage.slots.len(), Value::F64(0.0));
    for p in 0..span.n {
        let pos = span.x + p as i64;
        let plane_clean = (lo[0] as i64..hi[0] as i64).contains(&pos);
        for j in 0..n1 {
            // Outside the clean box along the plane or row axis, the whole
            // row; inside, the cells before and after it.
            let (k_lo, k_hi) = if plane_clean && (lo[1]..hi[1]).contains(&j) {
                let k_lo = lo[2].min(nk);
                (k_lo, hi[2].clamp(k_lo, nk))
            } else {
                (0, 0)
            };
            for k in (0..k_lo).chain(k_hi..nk) {
                let cell = [pos, j as i64, k as i64];
                for ((value, slot), tap) in raw.iter_mut().zip(&stage.slots).zip(&target.taps) {
                    *value = match *slot {
                        FusedSlot::Scalar(field) => ctx.scalars[field],
                        FusedSlot::Tap { off, outside, .. } => {
                            let inside = (0..3).all(|a| (0..ext[a]).contains(&(cell[a] + off[a])));
                            match outside {
                                _ if inside => load(tap, cell, off),
                                Outside::Pad => load(tap, cell, off),
                                Outside::Centre => load(tap, cell, [0; 3]),
                                Outside::Constant(c) => c,
                            }
                        }
                    };
                }
                let result = match typed_kernel {
                    Some(kernel) => kernel.eval_slots(raw, typed),
                    None => {
                        // Grids round every store through their element
                        // type, so tagging a raw value recovers exactly the
                        // one the interpreter reads.
                        for ((value, &raw), &dtype) in values.iter_mut().zip(&*raw).zip(slot_types)
                        {
                            *value = Value::from_f64(raw, dtype);
                        }
                        kernel.eval_slots(values, boxed)?.as_f64()
                    }
                };
                let at = out_base + p * out_s0 + j * out_s1 + k;
                store(&[result], node.output_type, out, at);
            }
        }
    }
    Ok(())
}

/// Sweep one stage over `span` through its compiled Tier-4 native
/// function: ring planes are linear in the plane and row coordinates
/// within a run, so the whole `n × rows × cells` walk is three strides
/// handed to the native code (its argument arrays built in the worker's
/// `buffers`). Unlike the bytecode sweep it writes exactly the in-domain
/// cells of a row — the tail pad is never clobbered, and `out` may as well
/// be an unpadded output slab.
fn sweep_native(
    ctx: &WindowCtx<'_>,
    func: &StageFn,
    target: &Ring,
    rings: &[CellsMut<'_>],
    out: &mut CellsMut<'_>,
    span: Span,
    buffers: &mut SweepBuffers,
) {
    let [_, n1, nk] = ctx.plan.ext;
    let slots = target.taps.iter().map(|tap| match tap {
        Tap::Scalar(field) => SlotArg::Scalar(ctx.scalars[*field]),
        Tap::Ring { ring, off0, inner } => {
            let r = &ctx.sched.rings[*ring];
            SlotArg::Tap {
                buf: rings[*ring].as_cells(),
                base: r.at(span.x + off0) + inner,
                s0: r.plane,
                s1: r.row,
            }
        }
        Tap::Source {
            field,
            inner,
            s0,
            s1,
        } => SlotArg::Tap {
            buf: ctx.sources[*field],
            base: inner + span.x as usize * s0,
            s0: *s0,
            s1: *s1,
        },
    });
    let (out_base, out_s0, out_s1) = span.layout;
    let mut args = SweepArgs {
        out: out.reborrow(),
        out_base,
        out_s0,
        out_s1,
        n0: span.n,
        n1,
        nk,
    };
    // The width and bounds validation inside `sweep` re-checks the widths
    // and geometry this function just derived; a failure is a planner bug,
    // not a runtime condition to fall back from.
    if let Err(e) = func.sweep(slots, &mut args, buffers) {
        panic!("jit sweep geometry rejected: {e}");
    }
}

/// Copy `n` planes from `x` of a full grid into the in-domain cells of
/// their ring planes (narrowing into an `f32` ring, see [`narrow`]).
fn copy_in(plan: &FusePlan, ring: &Ring, src: Cells<'_>, dst: &mut CellsMut<'_>, x: i64, n: usize) {
    let Cells::F64(src) = src else {
        unreachable!("a ringed input is read from a grid");
    };
    match dst {
        CellsMut::F32(dst) => copy_in_of(plan, ring, src, dst, x, n, narrow),
        CellsMut::F64(dst) => copy_in_of(plan, ring, src, dst, x, n, |v| v),
    }
}

/// [`copy_in`] into a ring of one width, each value converted by `cell`.
fn copy_in_of<T>(
    plan: &FusePlan,
    ring: &Ring,
    src: &[f64],
    dst: &mut [T],
    x: i64,
    n: usize,
    cell: impl Fn(f64) -> T,
) {
    let [_, n1, nk] = plan.ext;
    for pos in x..x + n as i64 {
        let mut to = ring.at(pos) + ring.origin;
        let mut from = pos as usize * n1 * nk;
        for _ in 0..n1 {
            for (d, &v) in dst[to..to + nk].iter_mut().zip(&src[from..from + nk]) {
                *d = cell(v);
            }
            to += ring.row;
            from += nk;
        }
    }
}

/// Copy the planes `own` of a ring into the worker's output slab (whose
/// first plane is `row0`), widening an `f32` ring.
fn copy_out(
    plan: &FusePlan,
    ring: &Ring,
    src: Cells<'_>,
    slab: &mut [f64],
    own: (i64, i64),
    row0: usize,
) {
    match src {
        Cells::F32(src) => copy_out_of(plan, ring, src, slab, own, row0, f64::from),
        Cells::F64(src) => copy_out_of(plan, ring, src, slab, own, row0, |v| v),
    }
}

/// [`copy_out`] from a ring of one width, each value converted by `cell`.
fn copy_out_of<T: Copy>(
    plan: &FusePlan,
    ring: &Ring,
    src: &[T],
    slab: &mut [f64],
    own: (i64, i64),
    row0: usize,
    cell: impl Fn(T) -> f64,
) {
    let [_, n1, nk] = plan.ext;
    for pos in own.0..own.1 {
        let mut from = ring.at(pos) + ring.origin;
        let mut to = (pos as usize - row0) * n1 * nk;
        for _ in 0..n1 {
            for (d, &v) in slab[to..to + nk].iter_mut().zip(&src[from..from + nk]) {
                *d = cell(v);
            }
            from += ring.row;
            to += nk;
        }
    }
}

/// Clear the invalid cells of a shrink mask over a worker's chunk (masks
/// start all-true; only the cells outside the validity box are written).
fn fill_mask(plan: &FusePlan, stage: &FusedStage, slab: &mut [bool], chunk: (usize, usize)) {
    let [_, n1, nk] = plan.ext;
    let k_lo = stage.mask_lo[2].min(nk);
    let k_hi = stage.mask_hi[2].clamp(k_lo, nk);
    for (plane, x0) in slab.chunks_exact_mut(n1 * nk).zip(chunk.0..) {
        let plane_valid = x0 >= stage.mask_lo[0] && x0 < stage.mask_hi[0];
        for (j, row) in plane.chunks_exact_mut(nk).enumerate() {
            if plane_valid && j >= stage.mask_lo[1] && j < stage.mask_hi[1] {
                row[..k_lo].fill(false);
                row[k_hi..].fill(false);
            } else {
                row.fill(false);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencilflow_core::{analyze, AnalysisConfig};
    use stencilflow_expr::{KERNEL_LANES, KERNEL_LANES_WIDE};

    /// The quick `bench_eval` document's kernel-floor rows — innermost
    /// extent 32 (jacobi3d, upwind3d, the chain, Listing 1, the time loop)
    /// and 64 (horizontal diffusion 24x24x64) — sweep at least
    /// `KERNEL_LANES_WIDE` lanes per batch, so the floor covers the wide
    /// batches; the small horizontal-diffusion row (8 cells, no floor)
    /// takes the narrowest.
    #[test]
    fn quick_kernel_floor_shapes_select_the_wide_lanes() {
        for row_len in [32, 64] {
            assert!(fused_lane_width(row_len) >= KERNEL_LANES_WIDE, "{row_len}");
        }
        assert_eq!(fused_lane_width(8), KERNEL_LANES);
    }

    /// The ring recurrence against the FPGA mapping's buffers, on every
    /// fusible program of the `analyze` suite at one plane per tick, in
    /// unpadded cells: a ring always holds the internal buffer of each of
    /// its consumers, and never more than the largest internal + delay
    /// buffer `core` gives one of its edges plus one plane and one block.
    /// It can hold *less* than that edge buffer where paths reconverge
    /// (`upwind3d`'s `u`: 3 planes against 4 and a bit): `core` delays a
    /// stage by its whole shift register (`hi - lo`) and its compute
    /// latency, a ring's consumer trails by its look-ahead (`hi`) only.
    /// And on horizontal diffusion's `sqr_s` it holds *more*: the two
    /// recurrences disagree in both directions, so that ring is pinned to
    /// its exact numbers, and a change on either side fails here.
    #[test]
    fn ring_depths_track_the_internal_and_delay_buffers() {
        let executor = ReferenceExecutor::new();
        let mut fusible = 0;
        for program in stencilflow_workloads::analyze_suite() {
            let compiled = executor.prepare(&program).unwrap();
            let plan = &compiled.tier_trace().fused;
            fusible += 1;
            let analysis = analyze(&program, &AnalysisConfig::default()).unwrap();
            let sched = plan.schedule(1, Some(1), |_| false);
            let plane = (plan.ext[1] * plan.ext[2]) as u64;
            for ring in &sched.rings {
                let field = plan.fields[ring.field].id;
                let name = program.dag().name(field);
                let cells = ring.depth as u64 * plane;
                let (mut internal, mut edge) = (0u64, 0u64);
                for ch in analysis.delay.channels().iter().filter(|c| c.from == field) {
                    let buffers = analysis.internal.stencil(program.dag().name(ch.to));
                    let size = buffers
                        .and_then(|b| b.field(field))
                        .map_or(0, |b| b.size_elements);
                    internal = internal.max(size);
                    edge = edge.max(size + ch.delay_words * analysis.delay.vector_width());
                }
                let label = format!("`{}` in `{}`", name, program.name());
                assert!(cells >= internal, "{label}: {cells} < internal {internal}");
                if (program.name(), name) == ("horizontal_diffusion", "sqr_s") {
                    let numbers = (cells, edge, plane, sched.block);
                    assert_eq!(
                        numbers,
                        (240, 72, 80, 1),
                        "{label}: ring, edge, plane, block"
                    );
                    continue;
                }
                let most = edge + plane + sched.block as u64 * plane;
                assert!(cells <= most, "{label}: {cells} > {edge} + plane + block");
            }
        }
        assert_eq!(fusible, 10);
    }

    /// The fused stages of a prepared program evaluate the slot types and
    /// typed kernels its program keeps — the same objects, never a second
    /// specialization — after a fresh `prepare`, and after a `prepare` of
    /// an identical program object (a clone, which shares what the program
    /// derived) that hits the cache.
    #[test]
    fn stages_evaluate_the_kernels_the_program_keeps() {
        let executor = ReferenceExecutor::new();
        let mut typed = 0;
        for program in stencilflow_workloads::analyze_suite() {
            let fresh = executor.prepare(&program).unwrap();
            let compiles = executor.compile_count();
            let identical = program.clone();
            let hit = executor.prepare(&identical).unwrap();
            assert_eq!(executor.compile_count(), compiles, "{}", program.name());
            for (compiled, kept) in [(&fresh, &program), (&hit, &identical)] {
                for stage in &compiled.tier_trace().fused.stages {
                    let (types, kernel) = stage.typed(compiled.program());
                    let (kept_types, kept_kernel) = kept.typed_kernel(stage.id).unwrap();
                    assert!(std::ptr::eq(types, kept_types));
                    match (kernel, kept_kernel) {
                        (Some(kernel), Some(kept)) => {
                            assert!(std::ptr::eq(kernel, kept));
                            typed += 1;
                        }
                        (None, None) => {}
                        _ => panic!("`{}`: a typed kernel on one side only", program.name()),
                    }
                }
            }
        }
        assert!(typed > 0);
    }

    #[test]
    #[should_panic(expected = "is not a binary32 value")]
    fn narrowing_a_value_binary32_cannot_hold_is_caught() {
        assert!(narrow(f64::NAN).is_nan());
        narrow(0.1);
    }

    /// The inputs of the `analyze` suite read in place — exactly those no
    /// live tap reads off-center, and that span the innermost axis — get
    /// no ring (they left the enumeration above); every other full-rank
    /// input keeps one. An input read in place is read as `f64` cells, and
    /// so is its stepping partner's ring, which its slot reads at the
    /// later steps of a window: such a `float32` output would keep `f64`
    /// rings (none here; `jit_equivalence.rs` steps one), every other
    /// `float32` field has `f32` ones.
    #[test]
    fn center_only_inputs_are_read_in_place() {
        let executor = ReferenceExecutor::new();
        let mut in_place = Vec::new();
        let mut wide_f32_outputs = Vec::new();
        for program in stencilflow_workloads::analyze_suite() {
            let compiled = executor.prepare(&program).unwrap();
            let plan = &compiled.tier_trace().fused;
            let sched = plan.schedule(1, Some(1), |_| false);
            let live_inputs = plan.fields.iter().enumerate();
            for (f, field) in live_inputs.filter(|(_, f)| f.live && f.input && !f.scalar) {
                let name = program.dag().name(field.id);
                let ringed = sched.rings.iter().any(|r| r.field == f);
                assert_eq!(ringed, !field.in_place && !field.copied(), "{name}");
                let dtype = program.field_type(name).unwrap();
                let narrow = dtype == DataType::Float32 && !field.in_place;
                assert_eq!(field.width == Width::F32, narrow, "{name}");
                if field.in_place {
                    in_place.push(format!("{}.{name}", program.name()));
                }
            }
            for ring in &sched.rings {
                assert_eq!(ring.width, plan.fields[ring.field].width);
            }
            for stage in plan.stages.iter().filter(|s| s.live) {
                let node = stage.node(&program);
                let field = &plan.fields[stage.field()];
                if node.output_type == DataType::Float32 && field.width == Width::F64 {
                    wide_f32_outputs.push(format!("{}.{}", program.name(), node.name));
                }
            }
        }
        assert_eq!(wide_f32_outputs, Vec::<String>::new());
        // Listing 1's three inputs, membench's eight copy sources,
        // horizontal diffusion's mask (its coefficients miss `k`: they are
        // replicated), and upwind's velocity (its tracer is read upwind,
        // off-center).
        let mut want: Vec<String> = ["a0", "a1", "a2"].map(|f| format!("listing1.{f}")).into();
        want.extend((0..8).map(|i| format!("membench8x1.in{i}")));
        want.push("horizontal_diffusion.hdmask".to_string());
        want.push("upwind3d.u".to_string());
        assert_eq!(in_place, want);
    }
}
