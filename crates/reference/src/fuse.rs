//! Tile-fused multi-stencil execution.
//!
//! The default compiled path of the [`crate::ReferenceExecutor`]
//! *materializes*: every stencil of a program sweeps the full iteration
//! space and writes a full grid before the next stencil starts, and every
//! [`crate::ReferenceExecutor::run_steps`] iteration round-trips the whole
//! state through full grids. The paper's central claim (§I, §VIII-C) is
//! that chained stencils should *stream* through each other instead; this
//! module is the CPU analogue of that FIFO pipelining: the iteration space
//! is partitioned into **tiles** (innermost-contiguous slabs of the
//! outermost dimension) and each tile is swept through *all* stencils of
//! the program — and, for time stepping, through a bounded **window** of
//! time steps (temporal blocking) — before the next tile is touched, with
//! every intermediate held in a small per-worker scratch buffer instead of
//! a full grid.
//!
//! # How a tile executes
//!
//! For a tile `T = [t_lo, t_hi)` of the outermost dimension, each stage is
//! computed over `T` *dilated* by the cumulative downstream access
//! footprint ([`AccessFootprints`], chained backward along the DAG at
//! [`FusePlan`] build time): the last consumer needs exactly `T`, its
//! producers need `T` plus their consumers' halo, and so on — the classic
//! overlapped (redundant-compute) tiling. For `run_steps`, a window of `w`
//! steps additionally dilates step `t` by `(w - t)` times the per-step
//! footprint, and the state fields of the feedback pairing ping-pong
//! between two scratch buffers; only the final step of the final window is
//! written back to full grids.
//!
//! Every scratch buffer is **halo-padded**: out-of-domain border cells are
//! pre-filled with the (per-field) constant boundary value, so the sweep
//! itself is a pure contiguous lane sweep — no interior/halo split, no
//! bounds checks, no per-lane boundary gathers. Rows are evaluated in full
//! lane batches ([`TypedKernel::eval_lanes`] at a width chosen from the
//! innermost extent, wider than the materializing tier's default since
//! fused rows have no mixed halo batches); the batch that straddles the
//! row end simply *over-computes* into write-slack cells whose values are
//! never read (typed kernels are total — IEEE float arithmetic cannot
//! fail — so evaluating garbage lanes is safe), and the clobbered tail pad
//! is re-filled after each row.
//!
//! # Eligibility and the fallback
//!
//! The padded-scratch fast path requires (checked once at
//! [`FusePlan::build`]):
//!
//! * every stencil carries a type-specialized kernel (branch-free by type:
//!   specialization speculates even division-carrying ternaries into
//!   selects);
//! * every non-scalar field spans the full iteration space, indexed in
//!   iteration-space dimension order (scratch tiles are laid out in space
//!   order, so transposed accesses cannot be expressed as constant flat
//!   offsets);
//! * every out-of-domain access resolves to a `Constant` boundary
//!   condition, and all consumers of a field agree on the constant (a
//!   `Copy` boundary reads the *accessing cell's* center, which a
//!   position-indexed pad cell cannot represent).
//!
//! Ineligible programs transparently fall back to the materializing path
//! (the ladder in `ReferenceExecutor::execute`); the result is restricted to
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
//! * every computed cell evaluates through the same [`TypedKernel`] lane
//!   interpreter as the materializing tier, on loads that are raw grid
//!   payloads (inputs are copied in verbatim, stage results are rounded
//!   through the stencil's output type before the store — exactly the
//!   store rounding of the full-grid sweep), so each cell performs the
//!   identical operation sequence on identical bits;
//! * out-of-domain loads read pad cells holding the boundary constant
//!   pre-rounded through the field's element type — exactly the value the
//!   materializing halo pass computes per access;
//! * tile overlap recomputes boundary-region cells from identical inputs,
//!   producing identical bits, so it does not matter which tile's copy of
//!   an overlapped cell a consumer reads;
//! * shrink masks depend on access geometry only (never on data): the
//!   per-cell "did any access leave the domain" predicate of the
//!   interpreter is equivalent to membership in a per-stencil valid *box*,
//!   which is filled directly into the result mask.

use crate::executor::{CompiledProgram, ExecutionResult};
use crate::grid::Grid;
use crate::plan::round_lanes;
use crate::ReferenceExecutor;
use std::collections::BTreeMap;
use stencilflow_codegen::{jit_translation_unit, JitSlotKind, JitStageSpec};
use stencilflow_expr::{DataType, LaneScratch, TypedKernel, Value};
use stencilflow_jit::{SlotArg, StageFn, SweepArgs};
use stencilflow_program::{
    AccessFootprints, BoundaryCondition, ProgramError, Result, StencilProgram,
};

/// Default number of time steps fused into one temporal-blocking window.
/// Each extra step dilates every tile by one more per-step footprint on
/// each side (redundant recompute grows linearly per step, quadratically
/// per window), so the window is kept small; see
/// [`ReferenceExecutor::with_fusion_window`].
pub(crate) const DEFAULT_FUSION_WINDOW: usize = 4;

/// Scratch-budget target in bytes per worker for the automatic tile
/// height. Larger tiles amortize the per-tile copies and the temporal-
/// blocking overlap better than small cache-resident tiles help locality
/// (the lane sweep is dispatch-bound, not DRAM-bound), so the budget sits
/// at the last-level-cache scale rather than L2.
const TILE_SCRATCH_BUDGET_BYTES: usize = 1 << 21;

/// One field (program input or stencil output) of a fuse plan, with the
/// geometry of its per-tile scratch buffer.
#[derive(Debug)]
struct FusedField {
    name: String,
    /// Scalar program input: prefilled into the lane template, no buffer.
    scalar: bool,
    /// Program input (copied into scratch per tile) vs. stage output
    /// (computed into scratch).
    input: bool,
    /// Whether the field is read by any live stage (or is an output).
    live: bool,
    /// Pad fill value: the consumers' shared boundary constant, rounded
    /// through the field's element type.
    pad_constant: f64,
    /// Per-dimension pad extents (≥ the consumers' largest offsets).
    pad_lo: Vec<usize>,
    pad_hi: Vec<usize>,
    /// Within-step dilation of the region this field must cover, in
    /// outermost-dimension slices relative to the tile.
    grow_lo: usize,
    grow_hi: usize,
    /// Feedback partner (state pairing) for temporal blocking; paired
    /// fields share unified geometry and ping-pong their two buffers.
    pair: Option<usize>,
}

/// How one kernel slot of a fused stage reads its field.
#[derive(Debug)]
enum FusedSlot {
    /// Scalar symbol, prefilled once per run.
    Scalar(usize),
    /// Field tap at a constant per-space-dimension offset.
    Tap { field: usize, off: Vec<i64> },
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
    /// The shrink-validity box per dimension (`[lo, hi)`): a cell is
    /// valid iff every coordinate lies inside — exactly the interpreter's
    /// "no access left the domain" predicate, which is a box because
    /// every check constrains one coordinate independently.
    mask_lo: Vec<usize>,
    mask_hi: Vec<usize>,
}

/// The temporal-blocking extension of a fuse plan.
#[derive(Debug)]
struct StepPlan {
    /// Feedback pairs as `(output field, state input field)`.
    pairs: Vec<(usize, usize)>,
    /// Per-step dilation of the tile footprint (outermost dimension).
    step_lo: usize,
    step_hi: usize,
}

/// A program analyzed for tile-fused execution. Built once per
/// [`CompiledProgram`]; owns only geometry (kernels stay in the compiled
/// stencils).
#[derive(Debug)]
pub(crate) struct FusePlan {
    dims: Vec<String>,
    shape: Vec<usize>,
    rank: usize,
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
    /// Analyze `program` for fused execution. Returns a human-readable
    /// reason when the program must stay on the materializing path.
    pub(crate) fn build(
        program: &StencilProgram,
        compiled: &CompiledProgram,
    ) -> std::result::Result<FusePlan, String> {
        let space = program.space();
        let rank = space.rank();
        let shape = space.shape.clone();

        // Field table: program inputs first, then stage outputs in
        // topological (compiled) order.
        let mut fields: Vec<FusedField> = Vec::new();
        let mut field_ids: BTreeMap<String, usize> = BTreeMap::new();
        let mut dtypes: Vec<DataType> = Vec::new();
        let new_field = |fields: &mut Vec<FusedField>,
                         dtypes: &mut Vec<DataType>,
                         field_ids: &mut BTreeMap<String, usize>,
                         name: &str,
                         dtype: DataType,
                         scalar: bool,
                         input: bool| {
            field_ids.insert(name.to_string(), fields.len());
            dtypes.push(dtype);
            fields.push(FusedField {
                name: name.to_string(),
                scalar,
                input,
                live: false,
                pad_constant: 0.0,
                pad_lo: vec![0; rank],
                pad_hi: vec![0; rank],
                grow_lo: 0,
                grow_hi: 0,
                pair: None,
            });
        };
        for (name, decl) in program.inputs() {
            let scalar = decl.is_scalar();
            if !scalar && decl.dims != space.dims {
                return Err(format!(
                    "input `{name}` does not span the full iteration space"
                ));
            }
            new_field(
                &mut fields,
                &mut dtypes,
                &mut field_ids,
                name,
                decl.data_type(),
                scalar,
                true,
            );
        }
        let plans = compiled.stencil_plans();
        for plan in plans {
            new_field(
                &mut fields,
                &mut dtypes,
                &mut field_ids,
                plan.name(),
                plan.out_dtype(),
                false,
                false,
            );
        }

        // Stages: typed kernels with space-ordered taps.
        let mut stages: Vec<FusedStage> = Vec::with_capacity(plans.len());
        for (ix, plan) in plans.iter().enumerate() {
            if plan.typed_kernel().is_none() {
                return Err(format!("stencil `{}` has no typed kernel", plan.name()));
            }
            let mut slots = Vec::with_capacity(plan.compiled_kernel().slots().len());
            for slot in plan.compiled_kernel().slots() {
                let field = *field_ids
                    .get(&slot.field)
                    .ok_or_else(|| format!("unknown field `{}`", slot.field))?;
                if slot.is_scalar() {
                    slots.push(FusedSlot::Scalar(field));
                    continue;
                }
                if slot.index_vars != space.dims {
                    return Err(format!(
                        "stencil `{}` accesses `{}` with transposed indices",
                        plan.name(),
                        slot.field
                    ));
                }
                slots.push(FusedSlot::Tap {
                    field,
                    off: slot.offsets.clone(),
                });
            }
            // The shrink-validity box from the same deduplicated check set
            // the materializing halo pass evaluates per cell.
            let mut mask_lo = vec![0usize; rank];
            let mut mask_hi = shape.clone();
            for &(dim, off) in plan.shrink_mask_checks() {
                if off < 0 {
                    mask_lo[dim] = mask_lo[dim].max((-off) as usize);
                } else {
                    mask_hi[dim] = mask_hi[dim].min(shape[dim].saturating_sub(off as usize));
                }
            }
            stages.push(FusedStage {
                stencil: ix,
                field: field_ids[plan.name()],
                live: false,
                slots,
                out_dtype: plan.out_dtype(),
                shrink: plan.is_shrink(),
                mask_lo,
                mask_hi,
            });
        }

        // Liveness: outputs backward through the taps.
        let mut outputs = Vec::with_capacity(program.outputs().len());
        for output in program.outputs() {
            let field = field_ids[output];
            let stage = stages
                .iter()
                .position(|s| s.field == field)
                .expect("program outputs are stencils");
            stages[stage].live = true;
            fields[field].live = true;
            outputs.push((stage, field));
        }
        for s in (0..stages.len()).rev() {
            if !stages[s].live {
                continue;
            }
            let slot_fields: Vec<usize> = stages[s]
                .slots
                .iter()
                .map(|slot| match slot {
                    FusedSlot::Scalar(f) | FusedSlot::Tap { field: f, .. } => *f,
                })
                .collect();
            for field in slot_fields {
                fields[field].live = true;
                if !fields[field].input {
                    let producer = stages
                        .iter()
                        .position(|p| p.field == field)
                        .expect("non-input fields are stage outputs");
                    stages[producer].live = true;
                }
            }
        }

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
                    fields[*field].pad_lo[d] = fields[*field].pad_lo[d].max((-lo).max(0) as usize);
                    fields[*field].pad_hi[d] = fields[*field].pad_hi[d].max(hi.max(0) as usize);
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
                                return Err(format!(
                                    "consumers of `{}` disagree on the boundary constant",
                                    fields[*field].name
                                ));
                            }
                            _ => constants[*field] = Some(rounded),
                        }
                    }
                    BoundaryCondition::Copy => {
                        return Err(format!(
                            "stencil `{}` reads `{}` with a copy boundary",
                            stencil.name, fields[*field].name
                        ));
                    }
                }
            }
        }
        for (field, constant) in constants.iter().enumerate() {
            if let Some(c) = constant {
                fields[field].pad_constant = *c;
            }
        }

        // Backward dilation chain (outermost dimension): a field must
        // cover its consumers' regions dilated by their footprints.
        // Reverse topological order visits every consumer before its
        // producers.
        for s in (0..stages.len()).rev() {
            if !stages[s].live {
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

        // Temporal blocking: a derivable feedback pairing with compatible
        // pad constants lets state fields ping-pong through shared-geometry
        // buffers. Failure here only disables the *fused* time stepper —
        // single runs stay fused, and stepped runs fall back.
        let steps = compiled.feedback_pairs().ok().and_then(|pairs| {
            let mut step_lo = 0usize;
            let mut step_hi = 0usize;
            let mut mapped = Vec::with_capacity(pairs.len());
            for (output, input) in &pairs {
                let o = field_ids[output];
                let i = field_ids[input];
                // A shared buffer holds one pad constant: both sides must
                // agree whenever both are read out of domain.
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
            // Unify the pair's pads and fill constant so the two buffers
            // are interchangeable across the ping-pong. The *dilation*
            // (`grow_*`) stays per field — regions must follow the exact
            // backward chain, or consumer regions would outgrow their
            // producers — and only the buffer sizing takes the pair
            // maximum (see `FusePlan::geometries`).
            for &(o, i) in &mapped {
                let constant = if constants[i].is_some() {
                    fields[i].pad_constant
                } else {
                    fields[o].pad_constant
                };
                for d in 0..rank {
                    let lo = fields[o].pad_lo[d].max(fields[i].pad_lo[d]);
                    let hi = fields[o].pad_hi[d].max(fields[i].pad_hi[d]);
                    fields[o].pad_lo[d] = lo;
                    fields[i].pad_lo[d] = lo;
                    fields[o].pad_hi[d] = hi;
                    fields[i].pad_hi[d] = hi;
                }
                for f in [o, i] {
                    fields[f].pad_constant = constant;
                    fields[f].live = true;
                }
                fields[o].pair = Some(i);
                fields[i].pair = Some(o);
            }
            Some(StepPlan {
                pairs: mapped,
                step_lo,
                step_hi,
            })
        });

        Ok(FusePlan {
            dims: space.dims.clone(),
            shape: shape.clone(),
            rank,
            lanes: fused_lane_width(shape[rank - 1]),
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
    /// `sf_stage_{i}` sweep function per live stage, emitted from the
    /// typed bytecode (see `stencilflow_codegen::jit_unit`). Eligibility
    /// on top of fuse eligibility:
    ///
    /// * every live stage's kernel re-verifies against its bind-time slot
    ///   types;
    /// * stage output types are `f32`/`f64` (the native store rounding
    ///   mirrors `round_lanes`, which has no third arm in C);
    /// * emission itself succeeds (no NaN constants).
    ///
    /// The returned error doubles as the program's JIT fallback reason.
    pub(crate) fn jit_unit(
        &self,
        compiled: &CompiledProgram,
    ) -> std::result::Result<crate::jit::JitUnit, String> {
        let plans = compiled.stencil_plans();
        let mut specs = Vec::new();
        let mut symbols: Vec<Option<String>> = vec![None; self.stages.len()];
        for (ix, stage) in self.stages.iter().enumerate() {
            if !stage.live {
                continue;
            }
            let plan = &plans[stage.stencil];
            if !matches!(stage.out_dtype, DataType::Float32 | DataType::Float64) {
                return Err(format!(
                    "stage `{}` output type {} is not a float type",
                    plan.name(),
                    stage.out_dtype
                ));
            }
            stencilflow_expr::verify_kernel(plan.compiled_kernel(), Some(&plan.slot_dtypes()))
                .map_err(|e| {
                    format!("stage `{}` failed bytecode verification: {e}", plan.name())
                })?;
            let typed = plan
                .typed_kernel()
                .ok_or_else(|| format!("stage `{}` has no type-specialized kernel", plan.name()))?;
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
        let source = jit_translation_unit(&specs)?;
        Ok(crate::jit::JitUnit { source, symbols })
    }

    fn slice_cells(&self) -> usize {
        self.shape[1..].iter().product::<usize>().max(1)
    }

    fn step_dilation(&self) -> (usize, usize) {
        self.steps
            .as_ref()
            .map(|s| (s.step_lo, s.step_hi))
            .unwrap_or((0, 0))
    }

    /// Tile bounds along the outermost dimension. One-dimensional spaces
    /// use a single tile (the outermost dimension *is* the contiguous row
    /// the sweep batches over).
    fn tile_bounds(
        &self,
        w_max: usize,
        override_rows: Option<usize>,
        threads: usize,
    ) -> Vec<(usize, usize)> {
        let extent = self.shape[0];
        if self.rank == 1 {
            return vec![(0, extent)];
        }
        let tile_h = match override_rows {
            Some(rows) => rows.max(1),
            None => {
                let live_buffers = self
                    .fields
                    .iter()
                    .filter(|f| f.live && !f.scalar)
                    .count()
                    .max(1);
                let budget =
                    TILE_SCRATCH_BUDGET_BYTES / 8 / (live_buffers * self.slice_cells()).max(1);
                // Keep the redundant recompute of temporal blocking small
                // relative to the tile.
                let (step_lo, step_hi) = self.step_dilation();
                let step_overhead = (step_lo + step_hi) * w_max.saturating_sub(1) * 2;
                budget.max(step_overhead).max(4)
            }
        };
        let tile_h = tile_h.clamp(1, extent);
        // Give parallel workers at least one tile each where possible.
        let tile_h = tile_h.min(extent.div_ceil(threads.max(1))).max(1);
        let mut tiles = Vec::with_capacity(extent.div_ceil(tile_h));
        let mut lo = 0usize;
        while lo < extent {
            let hi = (lo + tile_h).min(extent);
            tiles.push((lo, hi));
            lo = hi;
        }
        tiles
    }

    /// Scratch geometry of every live non-scalar field for tiles of height
    /// `max_tile_h` in windows of up to `w_max` steps at lane width
    /// `lanes`.
    fn geometries(&self, max_tile_h: usize, w_max: usize, lanes: usize) -> Vec<FieldGeom> {
        let (step_lo, step_hi) = self.step_dilation();
        let window_slack = w_max.saturating_sub(1);
        self.fields
            .iter()
            .map(|f| {
                if !f.live || f.scalar {
                    return FieldGeom::default();
                }
                // Paired buffers swap owners across the ping-pong, so the
                // shared geometry is sized for both fields' dilation.
                let (grow_lo, grow_hi) = match f.pair {
                    Some(p) => (
                        f.grow_lo.max(self.fields[p].grow_lo),
                        f.grow_hi.max(self.fields[p].grow_hi),
                    ),
                    None => (f.grow_lo, f.grow_hi),
                };
                let back0 = grow_lo + window_slack * step_lo + f.pad_lo[0];
                // Rows hold whole lane batches: the last batch's
                // over-compute writes (and reads) up to `batches * lanes`,
                // which also covers the in-domain extent and the tail pad.
                let row_span = self.shape[self.rank - 1].div_ceil(lanes) * lanes;
                let mut ext = Vec::with_capacity(self.rank);
                for d in 0..self.rank {
                    let mut e = self.shape[d] + f.pad_lo[d] + f.pad_hi[d];
                    if d == 0 {
                        let full = max_tile_h
                            + grow_lo
                            + grow_hi
                            + window_slack * (step_lo + step_hi)
                            + f.pad_lo[0]
                            + f.pad_hi[0];
                        // Positions above `shape + pad_hi` are never
                        // touched, so deep dilation chains need not
                        // allocate past them.
                        e = full.min(back0 + self.shape[0] + f.pad_hi[0]);
                    }
                    if d == self.rank - 1 {
                        let lead = if self.rank == 1 {
                            // The row origin of a 1-D space sits `back0`
                            // cells into the buffer (d == 0 above computed
                            // the padded extent; replace it).
                            back0
                        } else {
                            f.pad_lo[d]
                        };
                        e = lead + row_span + f.pad_hi[d];
                    }
                    ext.push(e);
                }
                let mut stride = vec![1usize; self.rank];
                for d in (0..self.rank - 1).rev() {
                    stride[d] = stride[d + 1] * ext[d + 1];
                }
                FieldGeom {
                    len: stride[0] * ext[0],
                    stride,
                    back0,
                }
            })
            .collect()
    }
}

/// Per-field scratch geometry of one `execute` call (extents fixed across
/// tiles; the outermost origin slides with the tile: the buffer's first
/// slice holds outermost coordinate `tile_lo - back0`).
#[derive(Debug, Clone, Default)]
struct FieldGeom {
    /// Row-major strides over the padded extents.
    stride: Vec<usize>,
    /// Slices the outermost origin sits *before* the tile start.
    back0: usize,
    len: usize,
}

/// Region of the outermost dimension `field` must cover for tile
/// `(t_lo, t_hi)` at step `t` of a `w`-step window.
#[inline]
fn stage_region(
    plan: &FusePlan,
    field: usize,
    tile: (usize, usize),
    t: usize,
    w: usize,
) -> (usize, usize) {
    let (step_lo, step_hi) = plan.step_dilation();
    let slack = w - t;
    let f = &plan.fields[field];
    let lo = tile.0.saturating_sub(f.grow_lo + slack * step_lo);
    let hi = (tile.1 + f.grow_hi + slack * step_hi).min(plan.shape[0]);
    (lo, hi.max(lo))
}

/// The buffer a field resolves to at step `t`. State pairs share two
/// buffers and alternate roles: the stage writing the pair's *output*
/// field targets buffer `t % 2` (counting the input field's buffer as
/// index 0) and same-step readers of the output follow it there, while
/// readers of the *state input* field resolve to buffer `(t - 1) % 2` —
/// the window's initial state copy at `t = 1`, the previous step's output
/// afterwards.
#[inline]
fn resolve_buffer(plan: &FusePlan, field: usize, t: usize) -> usize {
    let f = &plan.fields[field];
    let Some(pair) = f.pair else {
        return field;
    };
    let (input_buf, output_buf) = if f.input {
        (field, pair)
    } else {
        (pair, field)
    };
    let parity = if f.input { (t + 1) % 2 } else { t % 2 };
    if parity == 1 {
        output_buf
    } else {
        input_buf
    }
}

/// Iterate the leading-dimension rows of `region` (outermost range × full
/// extents of the middle dimensions). Rank-1 spaces have a single row —
/// the tile already spans the whole dimension.
#[inline]
fn for_each_region_row(plan: &FusePlan, region: (usize, usize), mut body: impl FnMut(&[usize])) {
    let rank = plan.rank;
    if rank == 1 {
        body(&[]);
        return;
    }
    let inner: usize = plan.shape[1..rank - 1].iter().product();
    let mut lead = vec![0usize; rank - 1];
    for x0 in region.0..region.1 {
        lead[0] = x0;
        for row in 0..inner.max(1) {
            let mut rem = row;
            for d in (1..rank - 1).rev() {
                lead[d] = rem % plan.shape[d];
                rem /= plan.shape[d];
            }
            body(&lead);
        }
    }
}

/// Flat offset of the `k = 0` cell (shifted by `off`) of a row in a
/// field's scratch buffer.
#[inline]
fn field_row_base(
    plan: &FusePlan,
    geom: &FieldGeom,
    field: &FusedField,
    tile: (usize, usize),
    lead: &[usize],
    off: &[i64],
) -> usize {
    let rank = plan.rank;
    if rank == 1 {
        return (off[0] - (tile.0 as i64 - geom.back0 as i64)) as usize;
    }
    let mut base = 0i64;
    for (d, &l) in lead.iter().enumerate() {
        let origin = if d == 0 {
            tile.0 as i64 - geom.back0 as i64
        } else {
            -(field.pad_lo[d] as i64)
        };
        base += (l as i64 + off[d] - origin) * geom.stride[d] as i64;
    }
    base += off[rank - 1] + field.pad_lo[rank - 1] as i64;
    base as usize
}

/// Everything a worker needs for one window, shared read-only.
struct TileCtx<'a> {
    plan: &'a FusePlan,
    compiled: &'a CompiledProgram,
    geoms: &'a [FieldGeom],
    /// Raw source data per input field (user grids, or the pooled state
    /// grids of the previous window).
    sources: Vec<Option<&'a [f64]>>,
    /// Scalar values per field (scalar inputs only).
    scalars: &'a [f64],
    /// Steps in this window.
    w: usize,
    /// Whether this is the final window (outputs + masks are written).
    last: bool,
    tiles: &'a [(usize, usize)],
    /// Tier-4 native stage functions, indexed like `plan.stages` (`None`
    /// entries and `None` overall both mean "sweep through the bytecode").
    jit: Option<&'a [Option<StageFn>]>,
}

/// Mutable write targets of one worker for one window.
struct WorkerTargets<'a> {
    /// Final window: per-output grid slabs covering the worker's tiles.
    grids: Vec<&'a mut [f64]>,
    /// Final window: per-output mask slabs.
    masks: Vec<&'a mut [bool]>,
    /// Non-final windows: per-state-pair next-state slabs.
    state: Vec<&'a mut [f64]>,
}

/// Execute `compiled` through the fused tier for `steps` time steps
/// (`steps == 1` is a plain fused run; callers have already validated the
/// inputs and, for `steps > 1`, that the plan supports stepping).
///
/// When `jit` provides a Tier-4 native function for a stage, its sweeps
/// run through the compiled `.so` instead of the bytecode lane interpreter
/// — same tiles, same windows, same pads, same copies, so everything in
/// the bit-identity argument above carries over except the innermost
/// kernel evaluation, which the native unit replicates
/// operation-for-operation (see [`FusePlan::jit_unit`]).
pub(crate) fn execute(
    executor: &ReferenceExecutor,
    compiled: &CompiledProgram,
    plan: &FusePlan,
    inputs: &BTreeMap<String, Grid>,
    steps: usize,
    jit: Option<&[Option<StageFn>]>,
) -> Result<ExecutionResult> {
    let w_max = executor.fusion_window.clamp(1, steps);
    let num_cells: usize = plan.shape.iter().product();
    let live_stages = plan.stages.iter().filter(|s| s.live).count();
    let threads = executor.worker_threads(
        plan.shape[0],
        num_cells * live_stages.max(1) * steps.min(w_max),
        2,
    );
    let tiles = plan.tile_bounds(w_max, executor.fusion_tile_rows, threads);
    let max_tile_h = tiles.iter().map(|&(lo, hi)| hi - lo).max().unwrap_or(1);
    let geoms = plan.geometries(max_tile_h, w_max, plan.lanes);

    // Scalar prefills and input sources.
    let mut scalars = vec![0.0f64; plan.fields.len()];
    let mut user_sources: Vec<Option<&[f64]>> = vec![None; plan.fields.len()];
    for (ix, field) in plan.fields.iter().enumerate() {
        if !field.input || !field.live {
            continue;
        }
        let grid = inputs
            .get(&field.name)
            .ok_or_else(|| ProgramError::Invalid {
                message: format!("missing input grid `{}`", field.name),
            })?;
        if field.scalar {
            scalars[ix] = grid.as_slice()[0];
        } else {
            user_sources[ix] = Some(grid.as_slice());
        }
    }

    // Result grids and masks for the program outputs.
    let dim_refs: Vec<&str> = plan.dims.iter().map(String::as_str).collect();
    // Under the service tier (pooled results) these buffers come from the
    // executor pools — zero-filled / all-true exactly like the fresh
    // allocations the sweeps below were written against.
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
    let windows: Vec<usize> = {
        let mut remaining = steps;
        let mut w = Vec::new();
        while remaining > 0 {
            let take = remaining.min(w_max);
            w.push(take);
            remaining -= take;
        }
        w
    };

    // Pooled full-size state grids for window boundaries (two alternating
    // sets; none needed when one window covers every step).
    let pairs: &[(usize, usize)] = plan
        .steps
        .as_ref()
        .map(|s| s.pairs.as_slice())
        .unwrap_or(&[]);
    let mut state_a: Vec<Vec<f64>> = Vec::new();
    let mut state_b: Vec<Vec<f64>> = Vec::new();
    if windows.len() > 1 {
        state_a = pairs
            .iter()
            .map(|_| executor.pool_acquire(num_cells))
            .collect();
        state_b = pairs
            .iter()
            .map(|_| executor.pool_acquire(num_cells))
            .collect();
    }

    // Per-worker scratch buffers, acquired once for the whole call.
    let worker_count = threads.min(tiles.len()).max(1);
    let mut worker_scratch: Vec<Vec<Vec<f64>>> = (0..worker_count)
        .map(|_| {
            geoms
                .iter()
                .map(|g| {
                    if g.len == 0 {
                        // Dead or scalar field: no buffer.
                        Vec::new()
                    } else {
                        executor.pool_acquire(g.len)
                    }
                })
                .collect()
        })
        .collect();

    // Contiguous tile ranges per worker.
    let per_worker = tiles.len().div_ceil(worker_count);
    let worker_tiles: Vec<(usize, usize)> = (0..worker_count)
        .map(|ix| {
            let lo = (ix * per_worker).min(tiles.len());
            (lo, ((ix + 1) * per_worker).min(tiles.len()))
        })
        .collect();

    let slice_cells = plan.slice_cells();
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
            for (p, &(_, input)) in pairs.iter().enumerate() {
                sources[input] = Some(read_set[p].as_slice());
            }
        }

        // Split the write targets into disjoint per-worker slabs.
        let mut grid_slabs: Vec<Vec<&mut [f64]>> = Vec::new();
        let mut mask_slabs: Vec<Vec<&mut [bool]>> = Vec::new();
        let mut state_slabs: Vec<Vec<&mut [f64]>> = Vec::new();
        if last {
            for grid in out_grids.iter_mut() {
                grid_slabs.push(split_slabs(
                    grid.as_mut_slice(),
                    &worker_tiles,
                    &tiles,
                    slice_cells,
                ));
            }
            for mask in out_masks.iter_mut() {
                mask_slabs.push(split_slabs(mask, &worker_tiles, &tiles, slice_cells));
            }
        } else {
            for buf in write_set.iter_mut() {
                state_slabs.push(split_slabs(
                    buf.as_mut_slice(),
                    &worker_tiles,
                    &tiles,
                    slice_cells,
                ));
            }
        }
        // Transpose target-major slabs into worker-major bundles.
        let mut bundles: Vec<WorkerTargets<'_>> = (0..worker_count)
            .map(|_| WorkerTargets {
                grids: Vec::new(),
                masks: Vec::new(),
                state: Vec::new(),
            })
            .collect();
        for slabs in grid_slabs {
            for (worker, slab) in slabs.into_iter().enumerate() {
                bundles[worker].grids.push(slab);
            }
        }
        for slabs in mask_slabs {
            for (worker, slab) in slabs.into_iter().enumerate() {
                bundles[worker].masks.push(slab);
            }
        }
        for slabs in state_slabs {
            for (worker, slab) in slabs.into_iter().enumerate() {
                bundles[worker].state.push(slab);
            }
        }

        let ctx = TileCtx {
            plan,
            compiled,
            geoms: &geoms,
            sources,
            scalars: &scalars,
            w,
            last,
            tiles: &tiles,
            jit,
        };
        let evaluated: Vec<usize> = if worker_count == 1 {
            let bundle = bundles.pop().expect("one bundle per worker");
            vec![run_worker(
                &ctx,
                worker_tiles[0],
                bundle,
                &mut worker_scratch[0],
            )]
        } else {
            std::thread::scope(|scope| {
                let ctx = &ctx;
                let mut handles = Vec::with_capacity(worker_count);
                for ((range, bundle), scratch) in worker_tiles
                    .iter()
                    .zip(bundles)
                    .zip(worker_scratch.iter_mut())
                {
                    let range = *range;
                    handles.push(scope.spawn(move || run_worker(ctx, range, bundle, scratch)));
                }
                handles
                    .into_iter()
                    .map(|h| h.join().expect("fused workers do not panic"))
                    .collect()
            })
        };
        cells_evaluated += evaluated.iter().sum::<usize>();
    }

    for set in worker_scratch {
        for buf in set {
            if buf.capacity() > 0 {
                executor.pool_release(buf);
            }
        }
    }
    for buf in state_a.into_iter().chain(state_b) {
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
    Ok(ExecutionResult::from_parts(
        result_fields,
        result_masks,
        cells_evaluated,
    ))
}

/// Split a full-grid buffer into per-worker slabs along the tile bounds.
fn split_slabs<'a, T>(
    mut buf: &'a mut [T],
    worker_tiles: &[(usize, usize)],
    tiles: &[(usize, usize)],
    slice_cells: usize,
) -> Vec<&'a mut [T]> {
    let mut slabs = Vec::with_capacity(worker_tiles.len());
    for &(tile_lo, tile_hi) in worker_tiles {
        if tile_lo >= tile_hi {
            slabs.push(&mut [] as &mut [T]);
            continue;
        }
        let rows = tiles[tile_hi - 1].1 - tiles[tile_lo].0;
        let (slab, rest) = buf.split_at_mut(rows * slice_cells);
        slabs.push(slab);
        buf = rest;
    }
    slabs
}

/// Execute one worker's tile range for one window; returns the number of
/// logical cells evaluated (tile-overlap recompute included, end-of-row
/// over-compute excluded).
fn run_worker(
    ctx: &TileCtx<'_>,
    range: (usize, usize),
    targets: WorkerTargets<'_>,
    scratch: &mut [Vec<f64>],
) -> usize {
    if range.0 >= range.1 {
        return 0;
    }
    match ctx.plan.lanes {
        32 => run_worker_lanes::<32>(ctx, range, targets, scratch),
        16 => run_worker_lanes::<16>(ctx, range, targets, scratch),
        _ => run_worker_lanes::<8>(ctx, range, targets, scratch),
    }
}

fn run_worker_lanes<const L: usize>(
    ctx: &TileCtx<'_>,
    range: (usize, usize),
    mut targets: WorkerTargets<'_>,
    scratch: &mut [Vec<f64>],
) -> usize {
    let plan = ctx.plan;
    let plans = ctx.compiled.stencil_plans();
    let mut lane_scratch = LaneScratch::<L>::default();
    let max_slots = plan.stages.iter().map(|s| s.slots.len()).max().unwrap_or(0);
    let mut lane_values: Vec<[f64; L]> = vec![[0.0; L]; max_slots];
    let mut cells = 0usize;
    let worker_row0 = ctx.tiles[range.0].0;

    for tile_ix in range.0..range.1 {
        let tile = ctx.tiles[tile_ix];
        // Seed the pad cells of every live buffer with its boundary
        // constant. Only actual pads are filled — in-domain cells are
        // either computed/copied this tile or provably never read.
        for (f, field) in plan.fields.iter().enumerate() {
            if field.live && !field.scalar {
                fill_pads(plan, &ctx.geoms[f], field, &mut scratch[f], tile);
            }
        }
        // Copy input fields (and the window's initial state) into scratch
        // over their step-1 region.
        for (f, field) in plan.fields.iter().enumerate() {
            if !field.live || field.scalar || !field.input {
                continue;
            }
            let Some(src) = ctx.sources[f] else { continue };
            let region = stage_region(plan, f, tile, 1, ctx.w);
            copy_region_in(
                plan,
                &ctx.geoms[f],
                field,
                src,
                &mut scratch[f],
                tile,
                region,
            );
        }

        for t in 1..=ctx.w {
            for (stage_ix, stage) in plan.stages.iter().enumerate() {
                if !stage.live {
                    continue;
                }
                let region = stage_region(plan, stage.field, tile, t, ctx.w);
                if region.0 >= region.1 {
                    continue;
                }
                if let Some(func) = ctx.jit.and_then(|fns| fns[stage_ix].as_ref()) {
                    cells += sweep_stage_native(
                        ctx,
                        stage,
                        func,
                        SweepSpan { tile, t, region },
                        scratch,
                    );
                    continue;
                }
                let typed = plans[stage.stencil]
                    .typed_kernel()
                    .expect("fuse eligibility requires typed kernels");
                cells += sweep_stage::<L>(
                    ctx,
                    stage,
                    typed,
                    SweepSpan { tile, t, region },
                    scratch,
                    &mut lane_values,
                    &mut lane_scratch,
                );
            }
        }

        // Write back the final step's outputs over the tile proper.
        let w = ctx.w;
        if ctx.last {
            for (o, &(stage_ix, field)) in plan.outputs.iter().enumerate() {
                let stage = &plan.stages[stage_ix];
                let buf = resolve_buffer(plan, field, w);
                copy_region_out(
                    plan,
                    &ctx.geoms[buf],
                    &plan.fields[buf],
                    &scratch[buf],
                    targets.grids[o],
                    tile,
                    worker_row0,
                );
                if stage.shrink {
                    fill_mask(plan, stage, targets.masks[o], tile, worker_row0);
                }
            }
        } else {
            let pairs = &plan
                .steps
                .as_ref()
                .expect("non-final windows only exist when stepping")
                .pairs;
            for (p, &(out_field, _)) in pairs.iter().enumerate() {
                let buf = resolve_buffer(plan, out_field, w);
                copy_region_out(
                    plan,
                    &ctx.geoms[buf],
                    &plan.fields[buf],
                    &scratch[buf],
                    targets.state[p],
                    tile,
                    worker_row0,
                );
            }
        }
    }
    cells
}

/// Where one stage sweep lands: the tile, the temporal step within the
/// window, and the dim0 region dilation assigns to that step.
#[derive(Clone, Copy)]
struct SweepSpan {
    tile: (usize, usize),
    t: usize,
    region: (usize, usize),
}

/// Sweep one stage over `span.region` of `span.tile` at step `span.t`.
/// Returns the number of logical cells computed.
fn sweep_stage<const L: usize>(
    ctx: &TileCtx<'_>,
    stage: &FusedStage,
    typed: &TypedKernel,
    span: SweepSpan,
    scratch: &mut [Vec<f64>],
    lane_values: &mut [[f64; L]],
    lane_scratch: &mut LaneScratch<L>,
) -> usize {
    let plan = ctx.plan;
    let SweepSpan { tile, t, region } = span;
    let rank = plan.rank;
    let shape_k = plan.shape[rank - 1];
    let batches = shape_k.div_ceil(L);
    let zero_off = vec![0i64; rank];

    // Prefill scalar lanes (the lane loader falls back to these).
    for (s, slot) in stage.slots.iter().enumerate() {
        if let FusedSlot::Scalar(field) = slot {
            lane_values[s] = [ctx.scalars[*field]; L];
        }
    }
    // Resolve the ping-pong-aware read buffers, then momentarily take the
    // write buffer out of the scratch set so reads can borrow the rest.
    let reads: Vec<Option<(usize, &[i64])>> = stage
        .slots
        .iter()
        .map(|slot| match slot {
            FusedSlot::Scalar(_) => None,
            FusedSlot::Tap { field, off } => {
                Some((resolve_buffer(plan, *field, t), off.as_slice()))
            }
        })
        .collect();
    let write_buf = resolve_buffer(plan, stage.field, t);
    let mut out = std::mem::take(&mut scratch[write_buf]);
    let out_geom = &ctx.geoms[write_buf];
    let out_field = &plan.fields[write_buf];
    let pad_hi_k = out_field.pad_hi[rank - 1];
    let refill_tail = pad_hi_k > 0 && batches * L > shape_k;

    // Iteration spaces have at most three dimensions, so rows of one
    // outermost slice advance by exactly one (middle-dimension) stride:
    // bases are computed once per slice and incremented per row.
    let inner = if rank >= 3 { plan.shape[1] } else { 1 };
    let x0_range = if rank == 1 { 0..1 } else { region.0..region.1 };
    let mut computed = 0usize;
    let mut slot_bases = vec![0usize; reads.len()];
    let mut lead = vec![0usize; rank.saturating_sub(1)];
    for x0 in x0_range {
        if rank >= 2 {
            lead[0] = x0;
        }
        if rank >= 3 {
            lead[1] = 0;
        }
        let mut out_base = field_row_base(plan, out_geom, out_field, tile, &lead, &zero_off);
        for (s, read) in reads.iter().enumerate() {
            if let Some((buf, off)) = read {
                slot_bases[s] =
                    field_row_base(plan, &ctx.geoms[*buf], &plan.fields[*buf], tile, &lead, off);
            }
        }
        for _j in 0..inner {
            for b in 0..batches {
                let k0 = b * L;
                // Each slot batch is built directly on the operand stack
                // from its contiguous scratch row (scalars broadcast from
                // the prefilled template).
                let result = typed.eval_lanes_with(
                    |s| match &reads[s] {
                        Some((buf, _)) => {
                            let mut batch = [0.0; L];
                            let base = slot_bases[s] + k0;
                            batch.copy_from_slice(&scratch[*buf][base..base + L]);
                            batch
                        }
                        None => lane_values[s],
                    },
                    lane_scratch,
                );
                round_lanes(
                    &result,
                    stage.out_dtype,
                    &mut out[out_base + k0..out_base + k0 + L],
                );
            }
            computed += shape_k;
            // Restore the tail pad the over-computed last batch clobbered.
            if refill_tail {
                out[out_base + shape_k..out_base + shape_k + pad_hi_k].fill(out_field.pad_constant);
            }
            if rank >= 3 {
                out_base += out_geom.stride[1];
                for (s, read) in reads.iter().enumerate() {
                    if let Some((buf, _)) = read {
                        slot_bases[s] += ctx.geoms[*buf].stride[1];
                    }
                }
            }
        }
    }
    scratch[write_buf] = out;
    computed
}

/// Sweep one stage through its compiled Tier-4 native function. The sweep
/// geometry is exactly [`sweep_stage`]'s: the same region rows, the same
/// ping-pong buffer resolution, the same `field_row_base` anchors — row
/// bases are linear in the leading coordinates, so the whole
/// `region × shape[1] × shape[k]` walk is three strides handed to the
/// native code. Differences from the bytecode sweep, both asymptotically
/// invisible to consumers:
///
/// * no end-of-row over-compute — the native loop writes exactly
///   `[0, nk)`, so the tail pad is never clobbered and never refilled
///   (the pads keep their `fill_pads` constants, which is what the
///   refill restores anyway);
/// * write-slack cells past the tail pad are left untouched instead of
///   holding garbage lane results (never read either way).
fn sweep_stage_native(
    ctx: &TileCtx<'_>,
    stage: &FusedStage,
    func: &StageFn,
    span: SweepSpan,
    scratch: &mut [Vec<f64>],
) -> usize {
    let plan = ctx.plan;
    let SweepSpan { tile, t, region } = span;
    let rank = plan.rank;
    let shape_k = plan.shape[rank - 1];
    let zero_off = vec![0i64; rank];

    let (n0, n1) = match rank {
        1 => (1usize, 1usize),
        2 => (region.1 - region.0, 1),
        _ => (region.1 - region.0, plan.shape[1]),
    };
    let lead: Vec<usize> = match rank {
        1 => Vec::new(),
        2 => vec![region.0],
        _ => vec![region.0, 0],
    };

    let write_buf = resolve_buffer(plan, stage.field, t);
    let mut out = std::mem::take(&mut scratch[write_buf]);
    let out_geom = &ctx.geoms[write_buf];
    let out_field = &plan.fields[write_buf];
    let out_base = field_row_base(plan, out_geom, out_field, tile, &lead, &zero_off);

    let stride01 = |geom: &FieldGeom| -> (usize, usize) {
        (
            if rank >= 2 { geom.stride[0] } else { 0 },
            if rank >= 3 { geom.stride[1] } else { 0 },
        )
    };
    let slots: Vec<SlotArg<'_>> = stage
        .slots
        .iter()
        .map(|slot| match slot {
            FusedSlot::Scalar(field) => SlotArg::Scalar(ctx.scalars[*field]),
            FusedSlot::Tap { field, off } => {
                let buf = resolve_buffer(plan, *field, t);
                let base =
                    field_row_base(plan, &ctx.geoms[buf], &plan.fields[buf], tile, &lead, off);
                let (s0, s1) = stride01(&ctx.geoms[buf]);
                SlotArg::Tap {
                    buf: &scratch[buf],
                    base,
                    s0,
                    s1,
                }
            }
        })
        .collect();
    let (out_s0, out_s1) = stride01(out_geom);
    let mut args = SweepArgs {
        slots: &slots,
        out: &mut out,
        out_base,
        out_s0,
        out_s1,
        n0,
        n1,
        nk: shape_k,
    };
    // The bounds validation inside `sweep` re-checks the geometry this
    // function just derived; a failure is a planner bug, not a runtime
    // condition to fall back from.
    if let Err(e) = func.sweep(&mut args) {
        panic!("jit sweep geometry rejected: {e}");
    }
    scratch[write_buf] = out;
    n0 * n1 * shape_k
}

/// Seed the pad cells of one scratch buffer for one tile:
///
/// * innermost head/tail pads on every row;
/// * full pad rows of the middle dimensions on every covered slice;
/// * the out-of-domain outermost mini-slabs the buffer covers (positions
///   `[-pad_lo, 0)` and `[shape, shape + pad_hi)` — positions further out
///   are never read).
///
/// In-domain cells are deliberately left as-is: every in-domain read is
/// contained in a computed (or copied) region by the dilation-chain
/// invariant, so stale values from previous tiles are unobservable.
fn fill_pads(
    plan: &FusePlan,
    geom: &FieldGeom,
    field: &FusedField,
    buf: &mut [f64],
    tile: (usize, usize),
) {
    let rank = plan.rank;
    let c = field.pad_constant;
    let ext0 = if geom.stride.is_empty() {
        return;
    } else {
        geom.len / geom.stride[0]
    };
    if rank == 1 {
        // Head [0, back0 + min offset .. ) — everything below the row
        // origin plus the row pads; the row occupies
        // [back0, back0 + row_span), reads reach `pad_lo` below and
        // `pad_hi` above it.
        let row_start = geom.back0;
        buf[row_start - field.pad_lo[0]..row_start].fill(c);
        let shape = plan.shape[0];
        let tail = row_start + shape;
        let tail_end = (tail + field.pad_hi[0]).min(buf.len());
        buf[tail..tail_end].fill(c);
        return;
    }
    let origin0 = tile.0 as i64 - geom.back0 as i64;
    // Out-of-domain outermost mini-slabs.
    for pos in -(field.pad_lo[0] as i64)..0 {
        let row = pos - origin0;
        if (0..ext0 as i64).contains(&row) {
            let start = row as usize * geom.stride[0];
            buf[start..start + geom.stride[0]].fill(c);
        }
    }
    for pos in plan.shape[0] as i64..(plan.shape[0] + field.pad_hi[0]) as i64 {
        let row = pos - origin0;
        if (0..ext0 as i64).contains(&row) {
            let start = row as usize * geom.stride[0];
            buf[start..start + geom.stride[0]].fill(c);
        }
    }
    // Middle-dimension pad rows, per covered slice.
    for slice in 0..ext0 {
        let slice_start = slice * geom.stride[0];
        for d in 1..rank - 1 {
            let ext_d = geom.stride[d - 1] / geom.stride[d];
            let lo = field.pad_lo[d];
            let hi_start = lo + plan.shape[d];
            // Fill rows [0, lo) and [hi_start, ext_d) of dimension d over
            // the remaining (inner) extent.
            for r in (0..lo).chain(hi_start..ext_d) {
                let start = slice_start + r * geom.stride[d];
                buf[start..start + geom.stride[d]].fill(c);
            }
        }
    }
    // Innermost head/tail pads on every (in-domain-or-not) row.
    let rows = geom.len / geom.stride[rank - 2];
    let row_len = geom.stride[rank - 2];
    let k_lo = field.pad_lo[rank - 1];
    let k_tail = k_lo + plan.shape[rank - 1];
    let k_tail_end = (k_tail + field.pad_hi[rank - 1]).min(row_len);
    for r in 0..rows {
        let start = r * row_len;
        buf[start..start + k_lo].fill(c);
        buf[start + k_tail..start + k_tail_end].fill(c);
    }
}

/// Copy the in-domain rows of `region` from a full grid into scratch.
fn copy_region_in(
    plan: &FusePlan,
    geom: &FieldGeom,
    field: &FusedField,
    src: &[f64],
    dst: &mut [f64],
    tile: (usize, usize),
    region: (usize, usize),
) {
    let rank = plan.rank;
    let shape_k = plan.shape[rank - 1];
    let mut gstride = vec![1usize; rank];
    for d in (0..rank - 1).rev() {
        gstride[d] = gstride[d + 1] * plan.shape[d + 1];
    }
    let zero_off = vec![0i64; rank];
    for_each_region_row(plan, region, |lead| {
        let mut gflat = 0usize;
        for (d, &l) in lead.iter().enumerate() {
            gflat += l * gstride[d];
        }
        let sbase = field_row_base(plan, geom, field, tile, lead, &zero_off);
        dst[sbase..sbase + shape_k].copy_from_slice(&src[gflat..gflat + shape_k]);
    });
}

/// Copy the tile-proper rows from scratch into the worker's output slab
/// (whose first row is outermost coordinate `worker_row0`).
fn copy_region_out(
    plan: &FusePlan,
    geom: &FieldGeom,
    field: &FusedField,
    src: &[f64],
    slab: &mut [f64],
    tile: (usize, usize),
    worker_row0: usize,
) {
    let rank = plan.rank;
    let shape_k = plan.shape[rank - 1];
    let mut gstride = vec![1usize; rank];
    for d in (0..rank - 1).rev() {
        gstride[d] = gstride[d + 1] * plan.shape[d + 1];
    }
    let zero_off = vec![0i64; rank];
    for_each_region_row(plan, (tile.0, tile.1), |lead| {
        let mut sflat = 0usize;
        if rank >= 2 {
            sflat += (lead[0] - worker_row0) * gstride[0];
            for d in 1..rank - 1 {
                sflat += lead[d] * gstride[d];
            }
        }
        let sbase = field_row_base(plan, geom, field, tile, lead, &zero_off);
        slab[sflat..sflat + shape_k].copy_from_slice(&src[sbase..sbase + shape_k]);
    });
}

/// Clear the invalid cells of a shrink mask over the tile's rows (masks
/// start all-true; only the cells outside the validity box are written).
fn fill_mask(
    plan: &FusePlan,
    stage: &FusedStage,
    slab: &mut [bool],
    tile: (usize, usize),
    worker_row0: usize,
) {
    let rank = plan.rank;
    let shape_k = plan.shape[rank - 1];
    let mut gstride = vec![1usize; rank];
    for d in (0..rank - 1).rev() {
        gstride[d] = gstride[d + 1] * plan.shape[d + 1];
    }
    let k_lo = stage.mask_lo[rank - 1].min(shape_k);
    let k_hi = stage.mask_hi[rank - 1].clamp(k_lo, shape_k);
    for_each_region_row(plan, (tile.0, tile.1), |lead| {
        let mut sflat = 0usize;
        let mut lead_valid = true;
        if rank >= 2 {
            sflat += (lead[0] - worker_row0) * gstride[0];
            for d in 1..rank - 1 {
                sflat += lead[d] * gstride[d];
            }
            for (d, &l) in lead.iter().enumerate() {
                lead_valid &= l >= stage.mask_lo[d] && l < stage.mask_hi[d];
            }
        }
        let row = &mut slab[sflat..sflat + shape_k];
        if !lead_valid {
            row.fill(false);
        } else {
            row[..k_lo].fill(false);
            row[k_hi..].fill(false);
        }
    });
}
