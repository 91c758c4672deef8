//! Wavefront-fused multi-stencil execution.
//!
//! The default compiled path of the [`crate::ReferenceExecutor`]
//! *materializes*: every stencil of a program sweeps the full iteration
//! space and writes a full grid before the next stencil starts, and every
//! [`crate::ReferenceExecutor::run_steps`] iteration round-trips the whole
//! state through full grids. The paper's central claim (§I, §VIII-C) is
//! that chained stencils should *stream* through each other, each stage
//! holding only its *internal buffer* (the reach of its accesses) plus the
//! *delay buffer* that equalises reconvergent paths (§IV). This module is
//! the CPU analogue, in planes of the outermost dimension instead of
//! words: every field lives in a small **ring buffer** of planes, and one
//! loop advances all stencils of the program — and, for time stepping, all
//! steps of a bounded **window** as one unrolled chain — together, each
//! trailing its producers by just the planes it reads ahead.
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
//! the next window's state grid). Every cell is computed exactly once.
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
//! # Eligibility and the fallback
//!
//! The padded-scratch fast path requires (checked once at
//! [`FusePlan::build`]):
//!
//! * every stencil carries a type-specialized kernel (branch-free by type:
//!   specialization speculates even division-carrying ternaries into
//!   selects);
//! * every non-scalar field is indexed in iteration-space dimension order
//!   (scratch planes are laid out in space order, so transposed accesses
//!   cannot be expressed as constant flat offsets). A lower-rank input is
//!   a **broadcast tap**: unless it is read in place, it is copied once
//!   per run into one padded buffer of its own shape, which every worker
//!   and window reads, with stride 0 along each plane or row axis it
//!   misses — the same per-tap plane and row strides a ring tap carries,
//!   so neither sweep has a second loop and the native ABI is unchanged.
//!   An input that misses the innermost, contiguous axis (horizontal
//!   diffusion's `crlato[j]`) is **replicated** along it by that copy:
//!   each of its values fills a whole row, so its buffer reads like any
//!   other (and it is never read in place). A broadcast tap has no ring
//!   and no lag: all of it exists before the first tick;
//! * every out-of-domain access resolves to a `Constant` boundary
//!   condition, and all consumers of a field agree on the constant (a
//!   `Copy` boundary reads the *accessing cell's* center, which a
//!   position-indexed pad cell cannot represent).
//!
//! Only live fields and stages are judged: an input or a stencil no
//! program output depends on is never read or swept, so it cannot keep a
//! program off this path.
//!
//! Ineligible programs transparently fall back to the materializing path
//! (the ladder of [`crate::tier::TierTrace`]); the result is restricted to
//! the program outputs either way, which is the fused tier's contract —
//! intermediates are deliberately *not* materialized (this is where the
//! speed comes from, and it matches the simulator's unused-intermediate
//! elision: values that cannot be observed need not exist).
//!
//! # Bit-identity
//!
//! Fused results are bit-identical to the interpreted tier on every output
//! cell (golden suite: `fused_equivalence.rs`):
//!
//! * every cell is evaluated once, through the same `TypedKernel` lane
//!   interpreter as the materializing tier, on loads that are raw grid
//!   payloads (inputs are read in place or copied in verbatim, stage
//!   results are rounded through the stencil's output type before the
//!   store — exactly the store rounding of the full-grid sweep), so each
//!   cell performs the identical operation sequence on identical bits; the
//!   lag recurrence guarantees every plane a tap reads was produced, and
//!   the depth recurrence that it has not been overwritten yet;
//! * out-of-domain loads read pad cells holding the boundary constant
//!   pre-rounded through the field's element type — exactly the value the
//!   materializing halo pass computes per access;
//! * at a worker seam both neighbours compute the overlap from identical
//!   inputs, and only the chunk's owner stores it;
//! * shrink masks depend on access geometry only (never on data): the
//!   per-cell "did any access leave the domain" predicate of the
//!   interpreter is equivalent to membership in a per-stencil valid *box*,
//!   which is filled directly into the result mask.

use crate::executor::{CompiledProgram, ExecutionResult};
use crate::grid::Grid;
use crate::plan::{round_lanes, CompiledStencil};
use crate::tier::Ineligible;
use crate::ReferenceExecutor;
use std::collections::{BTreeMap, BTreeSet};
use stencilflow_codegen::{jit_translation_unit, JitSlotKind, JitStageSpec};
use stencilflow_expr::{DataType, LaneScratch, Value};
use stencilflow_jit::{SlotArg, StageFn, SweepArgs};
use stencilflow_program::{AccessFootprints, BoundaryCondition, StencilProgram};

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

/// The scratch axes input `name`, indexed by `dims`, spans (an axis the
/// space lacks counts as spanned) and whether it misses the innermost,
/// contiguous one — then its copy is replicated along it, and its buffer
/// spans it too — or why its taps cannot be constant-stride reads of one
/// buffer: `dims` must be an ordered subsequence of the space dimensions.
fn input_span(
    space: &[String],
    name: &str,
    dims: &[String],
) -> Result<([bool; 3], bool), Ineligible> {
    let rank = space.len();
    let mut span = [true; 3];
    for d in 0..rank {
        span[axis(d, rank)] = false;
    }
    let mut next = 0;
    for dim in dims {
        let Some(at) = space[next..].iter().position(|d| d == dim) else {
            let input = name.to_string();
            return Err(Ineligible::InputOutOfOrder { input });
        };
        span[axis(next + at, rank)] = true;
        next += at + 1;
    }
    let replicate = next < rank;
    span[2] = true;
    Ok((span, replicate))
}

/// One field (program input or stencil output) of a fuse plan, with the
/// layout of one scratch plane of it.
#[derive(Debug)]
struct FusedField {
    name: String,
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
    /// An input every live tap reads at offset 0 on every axis: it never
    /// reads a pad, so its taps read the source grid in place (no ring, no
    /// copy, no pads).
    in_place: bool,
    /// Pad fill value: the consumers' shared boundary constant, rounded
    /// through the field's element type.
    pad_constant: f64,
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
    /// A lower-rank input not read in place: copied once per run into a
    /// padded buffer every worker and window reads.
    fn broadcast(&self) -> bool {
        !self.in_place && (self.replicate || self.span != [true; 3])
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
        let n = if self.span[a] { ext[a] } else { 1 };
        self.pad_lo[a] + n + self.pad_hi[a]
    }
}

/// How one kernel slot of a fused stage reads its field.
#[derive(Debug)]
enum FusedSlot {
    /// Scalar symbol.
    Scalar(usize),
    /// Field tap at a constant per-axis offset.
    Tap { field: usize, off: [i64; 3] },
}

/// One stencil of a fuse plan.
#[derive(Debug)]
struct FusedStage {
    /// Index into the compiled program's stencil list (same order).
    stencil: usize,
    /// Output field of this stage.
    field: usize,
    /// Whether the stage contributes to any program output. Dead stages
    /// are elided entirely (their values are unobservable in the fused
    /// result), consistent with the simulator's unused-intermediate
    /// elision.
    live: bool,
    slots: Vec<FusedSlot>,
    out_dtype: DataType,
    shrink: bool,
    /// The shrink-validity box per axis (`[lo, hi)`): a cell is valid iff
    /// every coordinate lies inside — exactly the interpreter's "no access
    /// left the domain" predicate, which is a box because every check
    /// constrains one coordinate independently.
    mask_lo: [usize; 3],
    mask_hi: [usize; 3],
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
/// [`CompiledProgram`]; owns only geometry (kernels stay in the compiled
/// stencils).
#[derive(Debug)]
pub(crate) struct FusePlan {
    dims: Vec<String>,
    shape: Vec<usize>,
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
    /// Analyze `program`, compiled to `plans` (topological order), for
    /// fused execution; `pairs` are its time-stepping feedback pairs, if
    /// they derive. The error is why the fused rung cannot take it.
    pub(crate) fn build(
        program: &StencilProgram,
        plans: &[CompiledStencil],
        pairs: Option<&[(String, String)]>,
    ) -> Result<FusePlan, Ineligible> {
        let space = program.space();
        let rank = space.rank();
        let mut ext = [1usize; 3];
        for (d, &n) in space.shape.iter().enumerate() {
            ext[axis(d, rank)] = n;
        }

        // Liveness: the program outputs, then backward through the reads of
        // every live stencil (reverse topological order visits each consumer
        // before its producers). Eligibility is judged on live fields and
        // stages only: nothing else is ever read or swept.
        let mut live: BTreeSet<&str> = program.outputs().iter().map(String::as_str).collect();
        for plan in plans.iter().rev() {
            if live.contains(plan.name()) {
                live.extend(
                    plan.compiled_kernel()
                        .slots()
                        .iter()
                        .map(|s| s.field.as_str()),
                );
            }
        }

        // Field table: program inputs first, then stage outputs in
        // topological (compiled) order.
        let mut fields: Vec<FusedField> = Vec::new();
        let mut field_ids: BTreeMap<String, usize> = BTreeMap::new();
        let mut dtypes: Vec<DataType> = Vec::new();
        let mut new_field = |name: &str, dtype: DataType, scalar, input, (span, replicate)| {
            field_ids.insert(name.to_string(), fields.len());
            dtypes.push(dtype);
            fields.push(FusedField {
                name: name.to_string(),
                scalar,
                input,
                live: live.contains(name),
                span,
                replicate,
                in_place: false,
                pad_constant: 0.0,
                pad_lo: [0; 3],
                pad_hi: [0; 3],
                row: 0,
                plane: 0,
                origin: 0,
                grow_lo: 0,
                grow_hi: 0,
            });
        };
        for (name, decl) in program.inputs() {
            let scalar = decl.is_scalar();
            let span = match input_span(&space.dims, name, &decl.dims) {
                Ok(span) if !scalar => span,
                Err(why) if !scalar && live.contains(name) => return Err(why),
                _ => ([true; 3], false),
            };
            new_field(name, decl.data_type(), scalar, true, span);
        }
        for plan in plans {
            new_field(
                plan.name(),
                plan.out_dtype(),
                false,
                false,
                ([true; 3], false),
            );
        }

        // Stages: typed kernels with taps at constant per-axis offsets.
        let mut stages: Vec<FusedStage> = Vec::with_capacity(plans.len());
        for (ix, plan) in plans.iter().enumerate() {
            let field = field_ids[plan.name()];
            let live = fields[field].live;
            if live && plan.typed_kernel().is_none() {
                let stencil = plan.name().to_string();
                return Err(Ineligible::Untyped { stencil });
            }
            let mut slots = Vec::with_capacity(plan.compiled_kernel().slots().len());
            for slot in plan.compiled_kernel().slots() {
                // Program validation resolves every read to a declared field.
                let field = field_ids[&slot.field];
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
                slots.push(FusedSlot::Tap { field, off });
            }
            // The shrink-validity box from the same deduplicated check set
            // the materializing halo pass evaluates per cell.
            let mut mask_lo = [0usize; 3];
            let mut mask_hi = ext;
            for &(dim, off) in plan.shrink_mask_checks() {
                let a = axis(dim, rank);
                if off < 0 {
                    mask_lo[a] = mask_lo[a].max((-off) as usize);
                } else {
                    mask_hi[a] = mask_hi[a].min(ext[a].saturating_sub(off as usize));
                }
            }
            stages.push(FusedStage {
                stencil: ix,
                field,
                live,
                slots,
                out_dtype: plan.out_dtype(),
                shrink: plan.is_shrink(),
                mask_lo,
                mask_hi,
            });
        }
        // An input no live tap reads off-center never reads a pad (but a
        // replicated one has no rows to read in place).
        let off_center: BTreeSet<usize> = stages
            .iter()
            .filter(|s| s.live)
            .flat_map(|s| &s.slots)
            .filter_map(|slot| match slot {
                FusedSlot::Tap { field, off } if *off != [0; 3] => Some(*field),
                _ => None,
            })
            .collect();
        for (f, field) in fields.iter_mut().enumerate() {
            field.in_place =
                field.input && !field.scalar && !field.replicate && !off_center.contains(&f);
        }
        let outputs: Vec<(usize, usize)> = program
            .outputs()
            .iter()
            .map(|output| {
                let field = field_ids[output];
                let stage = stages
                    .iter()
                    .position(|s| s.field == field)
                    .expect("program outputs are stencils");
                (stage, field)
            })
            .collect();

        // Footprints drive boundary-constant collection, pads, and the
        // backward dilation chain.
        let footprints = AccessFootprints::of_program(program);
        let mut constants: Vec<Option<f64>> = vec![None; fields.len()];
        for stage in stages.iter().filter(|s| s.live) {
            let stencil = program
                .stencil(plans[stage.stencil].name())
                .expect("compiled stencils exist in the program");
            for slot in &stage.slots {
                let FusedSlot::Tap { field, .. } = slot else {
                    continue;
                };
                let Some(extent) = footprints.extent(&stencil.name, &fields[*field].name) else {
                    continue;
                };
                for (d, &(lo, hi)) in extent.iter().enumerate() {
                    let a = axis(d, rank);
                    fields[*field].pad_lo[a] = fields[*field].pad_lo[a].max((-lo).max(0) as usize);
                    fields[*field].pad_hi[a] = fields[*field].pad_hi[a].max(hi.max(0) as usize);
                }
                if extent.iter().all(|&(lo, hi)| lo == 0 && hi == 0) {
                    // Center-only accesses never leave the domain; the
                    // boundary condition is irrelevant.
                    continue;
                }
                match stencil.boundary.condition_for(&fields[*field].name) {
                    BoundaryCondition::Constant(c) => {
                        let rounded = Value::from_f64(c, dtypes[*field]).as_f64();
                        match constants[*field] {
                            Some(previous) if previous.to_bits() != rounded.to_bits() => {
                                let field = fields[*field].name.clone();
                                return Err(Ineligible::ConstantConflict { field });
                            }
                            _ => constants[*field] = Some(rounded),
                        }
                    }
                    BoundaryCondition::Copy => {
                        return Err(Ineligible::CopyBoundary {
                            stencil: stencil.name.clone(),
                            field: fields[*field].name.clone(),
                        });
                    }
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
            let name = plans[stages[s].stencil].name();
            let (own_lo, own_hi) = {
                let f = &fields[stages[s].field];
                (f.grow_lo, f.grow_hi)
            };
            for slot in &stages[s].slots {
                let FusedSlot::Tap { field, .. } = slot else {
                    continue;
                };
                if let Some(extent) = footprints.extent(name, &fields[*field].name) {
                    let (lo, hi) = extent[0];
                    let f = &mut fields[*field];
                    f.grow_lo = f.grow_lo.max(own_lo + (-lo).max(0) as usize);
                    f.grow_hi = f.grow_hi.max(own_hi + hi.max(0) as usize);
                }
            }
        }

        // Time stepping: a derivable feedback pairing with compatible pad
        // constants lets step `t + 1` read its state straight from the
        // ring step `t` wrote. Failure here only disables the *fused* time
        // stepper — single runs stay fused, and stepped runs fall back.
        let steps = pairs.and_then(|pairs| {
            let mut step_lo = 0usize;
            let mut step_hi = 0usize;
            let mut mapped = Vec::with_capacity(pairs.len());
            for (output, input) in pairs {
                let o = field_ids[output];
                let i = field_ids[input];
                // A ring holds one pad constant: both sides must agree
                // whenever both are read out of domain.
                if constants[o].is_some()
                    && constants[i].is_some()
                    && fields[o].pad_constant.to_bits() != fields[i].pad_constant.to_bits()
                {
                    return None;
                }
                step_lo = step_lo.max(fields[i].grow_lo.saturating_sub(fields[o].grow_lo));
                step_hi = step_hi.max(fields[i].grow_hi.saturating_sub(fields[o].grow_hi));
                mapped.push((o, i));
            }
            // Unify the pair's pads and fill constant: the output's ring
            // serves the readers of both. The *dilation* (`grow_*`) stays
            // per field — regions must follow the exact backward chain, or
            // consumer regions would outgrow their producers.
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
            Some(StepPlan {
                pairs: mapped,
                step_lo,
                step_hi,
            })
        });

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

        Ok(FusePlan {
            dims: space.dims.clone(),
            shape: space.shape.clone(),
            ext,
            lanes,
            fields,
            stages,
            outputs,
            steps,
        })
    }

    /// Whether the fused time stepper can run (a derivable feedback
    /// pairing with compatible pad constants).
    pub(crate) fn supports_steps(&self) -> bool {
        self.steps.is_some()
    }

    /// Build the Tier-4 native translation unit for this plan: one
    /// exported `sf_stage_{i}` per live stage over one sweep body per
    /// distinct stage, emitted from the typed bytecode (see
    /// `stencilflow_codegen::jit_unit`). Eligibility
    /// on top of fuse eligibility:
    ///
    /// * every live stage's kernel re-verifies against its bind-time slot
    ///   types;
    /// * stage output types are `f32`/`f64` (the native store rounding
    ///   mirrors `round_lanes`, which has no third arm in C);
    /// * emission itself succeeds (no NaN constants).
    ///
    /// The error is why the JIT rung cannot take the program.
    pub(crate) fn jit_unit(
        &self,
        plans: &[CompiledStencil],
    ) -> Result<crate::jit::JitUnit, Ineligible> {
        let mut specs = Vec::new();
        let mut symbols: Vec<Option<String>> = vec![None; self.stages.len()];
        for (ix, stage) in self.stages.iter().enumerate() {
            if !stage.live {
                continue;
            }
            let plan = &plans[stage.stencil];
            if !matches!(stage.out_dtype, DataType::Float32 | DataType::Float64) {
                let (stage, dtype) = (plan.name().to_string(), stage.out_dtype);
                return Err(Ineligible::NonFloatOutput { stage, dtype });
            }
            stencilflow_expr::verify_kernel(plan.compiled_kernel(), Some(&plan.slot_dtypes()))
                .map_err(|error| {
                    let stage = plan.name().to_string();
                    Ineligible::Unverified { stage, error }
                })?;
            let typed = plan
                .typed_kernel()
                .expect("the fuse plan requires typed kernels");
            let slot_kinds = stage
                .slots
                .iter()
                .map(|s| match s {
                    FusedSlot::Scalar(_) => JitSlotKind::Scalar,
                    FusedSlot::Tap { .. } => JitSlotKind::Tap,
                })
                .collect();
            let symbol = format!("sf_stage_{ix}");
            specs.push(JitStageSpec {
                symbol: symbol.clone(),
                kernel: typed,
                slot_kinds,
                round_output: stage.out_dtype == DataType::Float32,
            });
            symbols[ix] = Some(symbol);
        }
        let (source, bodies) = jit_translation_unit(&specs).map_err(Ineligible::Emission)?;
        Ok(crate::jit::JitUnit {
            source,
            symbols,
            bodies,
            resolved: std::sync::OnceLock::new(),
        })
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
            let whole = field.in_place || field.broadcast();
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
                        FusedSlot::Tap { field, ref off } => match holder[field] {
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
                holder[stage.field] = Some(rings.len());
                rings.push(new_ring(stage.field, Some(s), t, lag, taps));
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
        let block = pinned.unwrap_or_else(|| {
            let budget = SCRATCH_BUDGET_BYTES / std::mem::size_of::<f64>();
            let (mut all, mut fixed, mut per_block) = (0usize, 0usize, 0usize);
            for r in rings.iter().filter(|r| needed(r)) {
                all += whole(r) * r.plane;
                fixed += r.reach * r.plane;
                per_block += r.plane;
            }
            if all <= budget {
                one_tick
            } else {
                (budget.saturating_sub(fixed) / per_block.max(1)).max(1)
            }
        });
        let mut arena_len = 0usize;
        for r in rings.iter_mut() {
            if needed(r) {
                r.depth = (r.reach + block).min(whole(r));
                arena_len += r.depth * r.plane;
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
    /// Pad planes below the domain (`pos + lead` is never negative).
    lead: usize,
    plane: usize,
    row: usize,
    origin: usize,
}

impl Ring {
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
    /// Cells of one worker's rings, back to back.
    arena_len: usize,
}

impl Schedule {
    /// Split a worker's arena into its rings.
    fn carve<'a>(&self, mut arena: &'a mut [f64]) -> Vec<&'a mut [f64]> {
        self.rings
            .iter()
            .map(|r| {
                let (ring, rest) = std::mem::take(&mut arena).split_at_mut(r.depth * r.plane);
                arena = rest;
                ring
            })
            .collect()
    }
}

/// Everything a worker needs for one window, shared read-only.
struct WindowCtx<'a> {
    plan: &'a FusePlan,
    compiled: &'a CompiledProgram,
    sched: &'a Schedule,
    /// What each live input field is read from (empty for the rest): the
    /// caller's grid or the previous window's pooled state grid (read in
    /// place or copied into a ring), or a lower-rank input's padded copy.
    sources: Vec<&'a [f64]>,
    /// Scalar values per field (scalar inputs only).
    scalars: &'a [f64],
    /// Steps in this window.
    w: usize,
    /// Whether this is the final window (masks are written).
    last: bool,
    /// Tier-4 native stage functions, indexed like `plan.stages` (`None`
    /// entries and `None` overall both mean "sweep through the bytecode").
    jit: Option<&'a [Option<StageFn>]>,
}

impl WindowCtx<'_> {
    /// The native function of `stage`, if it sweeps through one.
    fn native(&self, stage: Option<usize>) -> Option<&StageFn> {
        self.jit.and_then(|fns| fns[stage?].as_ref())
    }
}

/// Execute `compiled` through the fused tier for `steps` time steps
/// (`steps == 1` is a plain fused run; callers have already validated the
/// inputs and, for `steps > 1`, that the plan supports stepping), so
/// nothing here can fail.
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
pub(crate) fn execute(
    executor: &ReferenceExecutor,
    compiled: &CompiledProgram,
    plan: &FusePlan,
    inputs: &BTreeMap<String, Grid>,
    steps: usize,
    jit: Option<&[Option<StageFn>]>,
) -> ExecutionResult {
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
    // Lower-rank inputs are never state, so one padded copy of one read
    // off-center serves every window and every worker.
    let broadcasts: Vec<Vec<f64>> = plan
        .fields
        .iter()
        .map(|field| {
            if !(field.input && field.live && field.broadcast()) {
                return Vec::new();
            }
            let mut buf = executor.pool_acquire(field.padded(0, &plan.ext) * field.plane);
            fill_broadcast(plan, field, inputs[&field.name].as_slice(), &mut buf);
            buf
        })
        .collect();

    // Scalar values and what each input is read from.
    let mut scalars = vec![0.0f64; plan.fields.len()];
    let mut user_sources: Vec<&[f64]> = vec![&[]; plan.fields.len()];
    for (ix, field) in plan.fields.iter().enumerate() {
        if !field.input || !field.live {
            continue;
        }
        let grid = inputs[&field.name].as_slice();
        if field.scalar {
            scalars[ix] = grid[0];
        } else if field.broadcast() {
            user_sources[ix] = &broadcasts[ix];
        } else {
            user_sources[ix] = grid;
        }
    }

    // Result grids and masks for the program outputs. Under the service
    // tier (pooled results) these buffers come from the executor pools:
    // the cells as their last user left them (the sinks store every owned
    // plane), the masks all-true like fresh allocations.
    let dim_refs: Vec<&str> = plan.dims.iter().map(String::as_str).collect();
    let mut out_grids: Vec<Grid> = plan
        .outputs
        .iter()
        .map(|&(stage, _)| {
            Grid::from_data(
                &dim_refs,
                &plan.shape,
                plan.stages[stage].out_dtype,
                executor.alloc_result_cells(num_cells),
            )
        })
        .collect();
    let mut out_masks: Vec<Vec<bool>> = plan
        .outputs
        .iter()
        .map(|_| executor.alloc_result_mask(num_cells))
        .collect();

    // Window partition of the step count.
    let windows: Vec<usize> = (0..steps.div_ceil(w_max))
        .map(|wix| w_max.min(steps - wix * w_max))
        .collect();

    // Pooled full-size state grids for window boundaries, one per output
    // (stepping pairs every output), in two alternating sets; none needed
    // when one window covers every step.
    let mut state_a: Vec<Vec<f64>> = Vec::new();
    let mut state_b: Vec<Vec<f64>> = Vec::new();
    if windows.len() > 1 {
        for set in [&mut state_a, &mut state_b] {
            *set = plan
                .outputs
                .iter()
                .map(|_| executor.pool_acquire(num_cells))
                .collect();
        }
    }

    // One arena per worker holding all of its rings, acquired once for
    // the whole call; the row and cell pads of every ring plane are filled
    // here and never written again.
    let mut arenas: Vec<Vec<f64>> = chunks
        .iter()
        .map(|_| match sched.arena_len {
            0 => Vec::new(),
            len => executor.pool_acquire(len),
        })
        .collect();
    for arena in arenas.iter_mut() {
        for (ring, buf) in sched.rings.iter().zip(sched.carve(arena)) {
            fill_pads(plan, ring, buf);
        }
    }

    let mut cells_evaluated = 0usize;
    for (wix, &w) in windows.iter().enumerate() {
        let last = wix + 1 == windows.len();
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
                sources[input] = state;
            }
        }

        // Split the write targets into disjoint per-worker slabs.
        let mut workers: Vec<Worker<'_>> = chunks
            .iter()
            .zip(arenas.iter_mut())
            .map(|(&chunk, arena)| Worker {
                chunk,
                slabs: Vec::new(),
                masks: Vec::new(),
                arena,
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
            compiled,
            sched: &sched,
            sources,
            scalars: &scalars,
            w,
            last,
            jit,
        };
        cells_evaluated += if workers.len() == 1 {
            workers
                .into_iter()
                .map(|worker| run_worker(&ctx, worker))
                .sum::<usize>()
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
                    .sum::<usize>()
            })
        };
    }

    // (The pool drops the empty placeholders.)
    for buf in arenas
        .into_iter()
        .chain(state_a)
        .chain(state_b)
        .chain(broadcasts)
    {
        executor.pool_release(buf);
    }

    let mut result_fields = BTreeMap::new();
    let mut result_masks = BTreeMap::new();
    for ((&(stage, _), grid), mask) in plan.outputs.iter().zip(out_grids).zip(out_masks) {
        let name = compiled.stencil_plans()[plan.stages[stage].stencil]
            .name()
            .to_string();
        result_fields.insert(name.clone(), grid);
        result_masks.insert(name, mask);
    }
    ExecutionResult::from_parts(result_fields, result_masks, cells_evaluated)
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
/// constant. In-domain cells are left as they are: every one a tap reads
/// was produced first (the lag recurrence).
fn fill_pads(plan: &FusePlan, ring: &Ring, buf: &mut [f64]) {
    let field = &plan.fields[ring.field];
    let c = field.pad_constant;
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

/// Copy a lower-rank input into its broadcast buffer: its grid in the
/// in-domain cells (each value across its whole row if the input is
/// replicated), the boundary constant everywhere else.
fn fill_broadcast(plan: &FusePlan, field: &FusedField, src: &[f64], buf: &mut [f64]) {
    let nk = plan.ext[2];
    let rows = if field.span[1] { plan.ext[1] } else { 1 };
    let per_row = if field.replicate { 1 } else { nk };
    buf.fill(field.pad_constant);
    for (ix, cells) in src.chunks_exact(per_row).enumerate() {
        let at = (field.pad_lo[0] + ix / rows) * field.plane + field.origin + ix % rows * field.row;
        let row = &mut buf[at..at + nk];
        if field.replicate {
            row.fill(cells[0]);
        } else {
            row.copy_from_slice(cells);
        }
    }
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
/// and the arena its rings are carved from.
struct Worker<'a> {
    chunk: (usize, usize),
    slabs: Vec<&'a mut [f64]>,
    masks: Vec<&'a mut [bool]>,
    arena: &'a mut [f64],
}

/// Execute one worker's chunk for one window; returns the number of
/// logical cells evaluated (seam recompute included, end-of-row
/// over-compute excluded).
fn run_worker(ctx: &WindowCtx<'_>, worker: Worker<'_>) -> usize {
    match ctx.plan.lanes {
        32 => run_worker_lanes::<32>(ctx, worker),
        16 => run_worker_lanes::<16>(ctx, worker),
        _ => run_worker_lanes::<8>(ctx, worker),
    }
}

fn run_worker_lanes<const L: usize>(ctx: &WindowCtx<'_>, worker: Worker<'_>) -> usize {
    let Worker {
        chunk,
        mut slabs,
        mut masks,
        arena,
    } = worker;
    let plan = ctx.plan;
    let sched = ctx.sched;
    let [n0, n1, nk] = plan.ext;
    let mut rings = sched.carve(arena);
    let max_taps = sched.rings.iter().map(|r| r.taps.len()).max().unwrap_or(0);
    let mut lanes = LaneState::<L> {
        bases: vec![0; max_taps],
        strides: vec![0; max_taps],
        scratch: LaneScratch::default(),
    };

    if ctx.last {
        for (&(stage, _), mask) in plan.outputs.iter().zip(masks.iter_mut()) {
            if plan.stages[stage].shrink {
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
    let mut front = runs.iter().map(|run| run.lo).min().unwrap_or(0);
    let mut pending = true;
    while pending {
        pending = false;
        front += sched.block as i64;
        for (ix, run) in runs.iter_mut().enumerate() {
            let ring = &sched.rings[ix];
            let upto = (front - ring.lag as i64).min(run.end);
            let from = run.next;
            run.next = upto.max(from);
            pending |= run.next < run.end;
            // Pad planes below and above the domain.
            for pos in (from..upto.min(run.lo)).chain(run.hi.max(from)..upto) {
                let at = ring.at(pos);
                rings[ix][at..at + ring.plane].fill(plan.fields[ring.field].pad_constant);
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
                    copy_in(plan, ring, ctx.sources[ring.field], rings[ix], span_x, n);
                    continue;
                }
                // Detach the write target so the taps can borrow the
                // rings (a stage never reads the ring it writes).
                let (out, layout) = match run.sink {
                    Sink::Direct(o) => (
                        std::mem::take(&mut slabs[o]),
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
                match ctx.native(ring.stage) {
                    Some(func) => sweep_native(ctx, func, ring, &rings, out, span),
                    None => sweep_lanes(ctx, ring, &rings, out, span, &mut lanes),
                }
                cells += n * n1 * nk;
                match run.sink {
                    Sink::Direct(o) => slabs[o] = out,
                    Sink::Ring => rings[ix] = out,
                    Sink::Copy(o) => {
                        rings[ix] = out;
                        let own = (span_x.max(chunk.0 as i64), x.min(chunk.1 as i64));
                        copy_out(plan, ring, rings[ix], slabs[o], own, chunk.0);
                    }
                }
            }
        }
    }
    cells
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

/// Sweep one stage over `span` through the typed lane interpreter, into
/// its (detached) ring `out`.
fn sweep_lanes<const L: usize>(
    ctx: &WindowCtx<'_>,
    target: &Ring,
    rings: &[&mut [f64]],
    out: &mut [f64],
    span: Span,
    state: &mut LaneState<L>,
) {
    let plan = ctx.plan;
    let [_, n1, nk] = plan.ext;
    let stage = &plan.stages[target.stage.expect("copy-ins are not swept")];
    let typed = ctx.compiled.stencil_plans()[stage.stencil]
        .typed_kernel()
        .expect("fuse eligibility requires typed kernels");
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
    let load = |buf: &[f64], at: usize| -> [f64; L] {
        let mut batch = [0.0; L];
        match buf.get(at..at + L) {
            Some(cells) => batch.copy_from_slice(cells),
            // Only a grid read in place can end inside a batch: the last
            // one of its last row, whose lanes past the row end are
            // over-computed and never read.
            None => batch[..buf.len() - at].copy_from_slice(&buf[at..]),
        }
        batch
    };
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
                        Tap::Ring { ring, .. } => load(rings[*ring], bases[s] + k0),
                        Tap::Source { field, .. } => load(ctx.sources[*field], bases[s] + k0),
                        Tap::Scalar(field) => [ctx.scalars[*field]; L],
                    },
                    scratch,
                );
                round_lanes(
                    &result,
                    stage.out_dtype,
                    &mut out[out_row + k0..out_row + k0 + L],
                );
            }
            // Restore the tail pad the over-computed last batch clobbered.
            if refill_tail {
                out[out_row + nk..out_row + nk + pad_hi_k].fill(field.pad_constant);
            }
            out_row += out_s1;
            for (base, stride) in bases.iter_mut().zip(strides.iter()) {
                *base += stride;
            }
        }
    }
}

/// Sweep one stage over `span` through its compiled Tier-4 native
/// function: ring planes are linear in the plane and row coordinates
/// within a run, so the whole `n × rows × cells` walk is three strides
/// handed to the native code. Unlike the bytecode sweep it writes exactly
/// the in-domain cells of a row — the tail pad is never clobbered, and
/// `out` may as well be an unpadded output slab.
fn sweep_native(
    ctx: &WindowCtx<'_>,
    func: &StageFn,
    target: &Ring,
    rings: &[&mut [f64]],
    out: &mut [f64],
    span: Span,
) {
    let [_, n1, nk] = ctx.plan.ext;
    let slots: Vec<SlotArg<'_>> = target
        .taps
        .iter()
        .map(|tap| match tap {
            Tap::Scalar(field) => SlotArg::Scalar(ctx.scalars[*field]),
            Tap::Ring { ring, off0, inner } => {
                let r = &ctx.sched.rings[*ring];
                SlotArg::Tap {
                    buf: &rings[*ring][..],
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
        })
        .collect();
    let (out_base, out_s0, out_s1) = span.layout;
    let mut args = SweepArgs {
        slots: &slots,
        out,
        out_base,
        out_s0,
        out_s1,
        n0: span.n,
        n1,
        nk,
    };
    // The bounds validation inside `sweep` re-checks the geometry this
    // function just derived; a failure is a planner bug, not a runtime
    // condition to fall back from.
    if let Err(e) = func.sweep(&mut args) {
        panic!("jit sweep geometry rejected: {e}");
    }
}

/// Copy `n` planes from `x` of a full grid into the in-domain cells of
/// their ring planes.
fn copy_in(plan: &FusePlan, ring: &Ring, src: &[f64], dst: &mut [f64], x: i64, n: usize) {
    let [_, n1, nk] = plan.ext;
    for pos in x..x + n as i64 {
        let mut to = ring.at(pos) + ring.origin;
        let mut from = pos as usize * n1 * nk;
        for _ in 0..n1 {
            dst[to..to + nk].copy_from_slice(&src[from..from + nk]);
            to += ring.row;
            from += nk;
        }
    }
}

/// Copy the planes `own` of a ring into the worker's output slab (whose
/// first plane is `row0`).
fn copy_out(
    plan: &FusePlan,
    ring: &Ring,
    src: &[f64],
    slab: &mut [f64],
    own: (i64, i64),
    row0: usize,
) {
    let [_, n1, nk] = plan.ext;
    for pos in own.0..own.1 {
        let mut from = ring.at(pos) + ring.origin;
        let mut to = (pos as usize - row0) * n1 * nk;
        for _ in 0..n1 {
            slab[to..to + nk].copy_from_slice(&src[from..from + nk]);
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
            let Ok(plan) = &compiled.tier_trace().fused else {
                continue;
            };
            fusible += 1;
            let analysis = analyze(&program, &AnalysisConfig::default()).unwrap();
            let sched = plan.schedule(1, Some(1), |_| false);
            let plane = (plan.ext[1] * plan.ext[2]) as u64;
            for ring in &sched.rings {
                let name = &plan.fields[ring.field].name;
                let cells = ring.depth as u64 * plane;
                let (mut internal, mut edge) = (0u64, 0u64);
                for ch in analysis
                    .delay
                    .channels()
                    .iter()
                    .filter(|c| &c.field == name)
                {
                    let buffers = analysis.internal.stencil(&ch.to);
                    let size = buffers
                        .and_then(|b| b.field(name))
                        .map_or(0, |b| b.size_elements);
                    internal = internal.max(size);
                    edge = edge.max(size + ch.delay_words * analysis.delay.vector_width());
                }
                let label = format!("`{}` in `{}`", name, program.name());
                assert!(cells >= internal, "{label}: {cells} < internal {internal}");
                if (program.name(), name.as_str()) == ("horizontal_diffusion", "sqr_s") {
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

    /// The inputs of the `analyze` suite read in place — exactly those no
    /// live tap reads off-center, and that span the innermost axis — get
    /// no ring (they left the enumeration above); every other full-rank
    /// input keeps one.
    #[test]
    fn center_only_inputs_are_read_in_place() {
        let executor = ReferenceExecutor::new();
        let mut in_place = Vec::new();
        for program in stencilflow_workloads::analyze_suite() {
            let compiled = executor.prepare(&program).unwrap();
            let Ok(plan) = &compiled.tier_trace().fused else {
                continue;
            };
            let sched = plan.schedule(1, Some(1), |_| false);
            let live_inputs = plan.fields.iter().enumerate();
            for (f, field) in live_inputs.filter(|(_, f)| f.live && f.input && !f.scalar) {
                let ringed = sched.rings.iter().any(|r| r.field == f);
                assert_eq!(
                    ringed,
                    !field.in_place && !field.broadcast(),
                    "{}",
                    field.name
                );
                if field.in_place {
                    in_place.push(format!("{}.{}", program.name(), field.name));
                }
            }
        }
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
