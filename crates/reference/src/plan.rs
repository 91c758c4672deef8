//! Compiled stencil templates and their per-run grid bindings.
//!
//! The reference executor used to walk the expression tree once per cell,
//! resolving every access through a string-keyed lookup that allocated an
//! offset vector per access. A [`CompiledStencil`] does all of that
//! resolution **once per program** — and, unlike the earlier per-run plan,
//! it borrows no grids, so one compiled template is reusable across any
//! number of runs (see `ReferenceExecutor::prepare`):
//!
//! * the code segment is lowered to a [`CompiledKernel`] (slot-resolved
//!   bytecode, see `stencilflow_expr::compile`), and additionally
//!   specialized to a [`TypedKernel`] when every instruction's result type
//!   is statically determined by the slot types — the typed sweep then runs
//!   on raw `f64`s with no `Value` tagging and no per-op promotion;
//! * every access slot is bound to its field's *declared* geometry: a
//!   per-dimension stride coefficient vector, a precomputed flat-offset
//!   delta, and its boundary-condition action. (Input grids are validated
//!   against the declared shape and element type before every run, so the
//!   declared geometry is the actual geometry.)
//! * the iteration space is split into an **interior** — where every access
//!   of the stencil is statically in bounds, so the inner loop is a pure
//!   strided array walk with no bounds checks and no branches — and a
//!   **halo**, where accesses are bounds-checked and boundary conditions
//!   applied. Out-of-bounds tracking for `shrink` masks falls out of the
//!   halo pass for free (interior cells are in bounds by construction).
//!
//! Per run, [`CompiledStencil::bind`] resolves each field name to its grid
//! slice (a handful of map lookups) and produces a [`BoundStencil`] whose
//! rows (runs of the innermost dimension) are independent, so the sweep is
//! parallelized across threads with disjoint output row chunks.

use crate::grid::Grid;
use std::collections::{BTreeMap, BTreeSet};
use stencilflow_expr::{
    CompiledKernel, DataType, EvalScratch, ExprError, LaneScratch, TypedKernel, Value,
    KERNEL_LANES, KERNEL_LANES_WIDE,
};
use stencilflow_program::{BoundaryCondition, IterationSpace, StencilNode, StencilProgram};

/// Rows must be at least this many multiples of the wide lane width before
/// a stencil dispatches to the wide sweep: wide batches only fire where a
/// full batch fits, so short rows would spend most cells in the mixed-batch
/// and scalar-remainder paths and lose the amortization the width buys.
const WIDE_ROW_MULTIPLE: usize = 4;

/// Expand a field's declared dimension names into its dense row-major shape
/// over the iteration space (dimensions the space does not know contribute
/// extent 1). This single definition of the declared geometry is shared by
/// compilation, slot binding, and input validation.
pub(crate) fn declared_shape(space: &IterationSpace, dims: &[String]) -> Vec<usize> {
    dims.iter()
        .map(|d| space.dim_index(d).map(|ix| space.shape[ix]).unwrap_or(1))
        .collect()
}

/// How one access slot of the kernel reads its field.
#[derive(Debug)]
struct SlotTemplate {
    /// Index into the template's field table.
    grid: usize,
    /// Per-iteration-space-dimension stride coefficient into the field's own
    /// dense storage (zero for dimensions the field does not span). The
    /// center of a cell `index` lives at flat position `dot(index, coeffs)`.
    coeffs: Vec<i64>,
    /// Constant flat-offset delta of this access relative to the center.
    delta: i64,
    /// `(space dimension, offset)` pairs to bounds-check in the halo.
    checks: Vec<(usize, i64)>,
    /// Boundary condition applied when a check fails.
    boundary: BoundaryCondition,
    /// Element type of the source field (values are typed as the field is).
    dtype: DataType,
    /// The `Constant` boundary value pre-rounded through the slot's element
    /// type (`0.0` for `Copy`), so the typed halo pass needs no `Value`.
    halo_constant: f64,
    /// Scalar (0-D) access: resolved once per run, never re-read per cell.
    scalar: bool,
}

/// One entry of a compiled stencil's field table.
#[derive(Debug)]
struct FieldRef {
    name: String,
    dtype: DataType,
    len: usize,
}

/// A stencil compiled against the declared geometry of its fields. Owns no
/// grid data; reusable across runs.
pub(crate) struct CompiledStencil {
    name: String,
    kernel: CompiledKernel,
    /// Type-specialized kernel, present when every op's type is static;
    /// the sweep then runs lane-batched.
    typed: Option<TypedKernel>,
    /// Lane width of the batched sweep, chosen per stencil at compile time
    /// (dtype-driven const dispatch): all-`f32` kernels on long rows take
    /// [`KERNEL_LANES_WIDE`] — their per-op `f32` rounding makes narrow
    /// batches latency-bound — everything else stays at [`KERNEL_LANES`].
    lane_width: usize,
    fields: Vec<FieldRef>,
    slots: Vec<SlotTemplate>,
    /// All syntactic `(dimension, offset)` access checks of the stencil
    /// (deduplicated) — drives the shrink mask, matching the tree-walking
    /// executor which considers every access, including ones the kernel may
    /// have folded away.
    mask_checks: Vec<(usize, i64)>,
    /// Interior bounds per dimension (`lo` inclusive, `hi` exclusive).
    interior_lo: Vec<usize>,
    interior_hi: Vec<usize>,
    has_interior: bool,
    shape: Vec<usize>,
    out_dtype: DataType,
    shrink: bool,
}

impl CompiledStencil {
    /// Compile `stencil` and bind its accesses against the **declared**
    /// geometry of the program's fields (input declarations for inputs, the
    /// full iteration space for intermediate results).
    ///
    /// # Errors
    ///
    /// Returns [`ExprError::UnresolvedSymbol`] if an access refers to a
    /// field the program does not declare (indicates a validation bug
    /// upstream), and propagates kernel compilation failures.
    pub(crate) fn build(
        program: &StencilProgram,
        stencil: &StencilNode,
    ) -> Result<CompiledStencil, ExprError> {
        let kernel = CompiledKernel::compile(&stencil.program)?;
        let space = program.space();
        let rank = space.rank();

        let mut fields: Vec<FieldRef> = Vec::new();
        let mut field_shapes: Vec<Vec<usize>> = Vec::new();
        let mut field_table: BTreeMap<String, usize> = BTreeMap::new();
        let mut slots = Vec::with_capacity(kernel.slots().len());
        let mut slot_types = Vec::with_capacity(kernel.slots().len());

        for slot in kernel.slots() {
            let grid_ix = match field_table.get(slot.field.as_str()) {
                Some(&ix) => ix,
                None => {
                    let dims = program.field_dims(&slot.field).ok_or_else(|| {
                        ExprError::UnresolvedSymbol {
                            name: slot.field.clone(),
                        }
                    })?;
                    let dtype = program
                        .field_type(&slot.field)
                        .expect("declared fields have a type");
                    let shape = declared_shape(space, &dims);
                    let len = shape.iter().product::<usize>().max(1);
                    let ix = fields.len();
                    fields.push(FieldRef {
                        name: slot.field.clone(),
                        dtype,
                        len,
                    });
                    field_shapes.push(shape);
                    field_table.insert(slot.field.clone(), ix);
                    ix
                }
            };
            let field_shape = &field_shapes[grid_ix];
            let mut strides = vec![1usize; field_shape.len()];
            for d in (0..field_shape.len().saturating_sub(1)).rev() {
                strides[d] = strides[d + 1] * field_shape[d + 1];
            }
            let dtype = fields[grid_ix].dtype;
            let mut coeffs = vec![0i64; rank];
            let mut delta = 0i64;
            let mut checks = Vec::with_capacity(slot.index_vars.len());
            for (axis, (var, &off)) in slot.index_vars.iter().zip(slot.offsets.iter()).enumerate() {
                let dim = space
                    .dim_index(var)
                    .ok_or_else(|| ExprError::UnresolvedSymbol {
                        name: format!("{}{:?}", slot.field, slot.offsets),
                    })?;
                let stride = strides[axis] as i64;
                coeffs[dim] = stride;
                delta += off * stride;
                checks.push((dim, off));
            }
            let boundary = stencil.boundary.condition_for(&slot.field);
            let halo_constant = match boundary {
                BoundaryCondition::Constant(c) => Value::from_f64(c, dtype).as_f64(),
                BoundaryCondition::Copy => 0.0,
            };
            slot_types.push(dtype);
            slots.push(SlotTemplate {
                grid: grid_ix,
                coeffs,
                delta,
                checks,
                boundary,
                dtype,
                halo_constant,
                scalar: slot.is_scalar(),
            });
        }

        // Interior bounds and the shrink-mask check set come from the full
        // syntactic access pattern, exactly like the tree-walking executor's
        // per-cell out-of-bounds re-walk.
        let mut min_off = vec![0i64; rank];
        let mut max_off = vec![0i64; rank];
        let mut mask_checks: BTreeSet<(usize, i64)> = BTreeSet::new();
        for (_, info) in stencil.accesses.iter() {
            for offsets in &info.offsets {
                for (var, &off) in info.index_vars.iter().zip(offsets.iter()) {
                    if let Some(dim) = space.dim_index(var) {
                        min_off[dim] = min_off[dim].min(off);
                        max_off[dim] = max_off[dim].max(off);
                        if off != 0 {
                            mask_checks.insert((dim, off));
                        }
                    }
                }
            }
        }
        let mut interior_lo = Vec::with_capacity(rank);
        let mut interior_hi = Vec::with_capacity(rank);
        let mut has_interior = true;
        for d in 0..rank {
            let lo = (-min_off[d]).max(0) as usize;
            let hi = space.shape[d] as i64 - max_off[d].max(0);
            if hi <= lo as i64 {
                has_interior = false;
            }
            interior_lo.push(lo);
            interior_hi.push(hi.max(0) as usize);
        }

        // Debug builds consume the independent verifier verdict instead of
        // trusting compiler/optimizer bookkeeping: the kernel must verify
        // with the actual bind-time slot types (which also refines its
        // infallibility judgment past the typeless compile-time run).
        #[cfg(debug_assertions)]
        if let Err(e) = stencilflow_expr::verify_kernel(&kernel, Some(&slot_types)) {
            panic!(
                "stencil `{}` failed bytecode verification at bind time: {e}",
                stencil.name
            );
        }
        let typed = kernel.specialize(&slot_types);
        // Width-aware lane counts: all-f32 kernels on long rows batch wide
        // (their per-op f32 rounding chains are latency-bound at narrow
        // widths); f64-involving kernels keep the default width — the
        // once-proposed narrowing to 4 lanes for f64 measured strictly
        // slower (lanes are f64-typed regardless of element type, so
        // narrowing only sheds dispatch amortization; see KERNEL_LANES_WIDE).
        let row_len = *space
            .shape
            .last()
            .expect("iteration spaces are never empty");
        let all_f32 = slot_types.iter().all(|&t| t == DataType::Float32)
            && stencil.output_type == DataType::Float32;
        let lane_width =
            if typed.is_some() && all_f32 && row_len >= WIDE_ROW_MULTIPLE * KERNEL_LANES_WIDE {
                KERNEL_LANES_WIDE
            } else {
                KERNEL_LANES
            };
        Ok(CompiledStencil {
            name: stencil.name.clone(),
            kernel,
            typed,
            lane_width,
            fields,
            slots,
            mask_checks: mask_checks.into_iter().collect(),
            interior_lo,
            interior_hi,
            has_interior,
            shape: space.shape.clone(),
            out_dtype: stencil.output_type,
            shrink: stencil.boundary.shrink,
        })
    }

    /// Stencil name.
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// Output element type of the stencil.
    pub(crate) fn out_dtype(&self) -> DataType {
        self.out_dtype
    }

    /// Whether this stencil carries a type-specialized kernel.
    pub(crate) fn is_typed(&self) -> bool {
        self.typed.is_some()
    }

    /// Number of per-cell field reads of the sweep (scalar slots excluded);
    /// at least 1. Drives the parallelization threshold.
    pub(crate) fn accesses_per_cell(&self) -> usize {
        self.slots.iter().filter(|s| !s.scalar).count().max(1)
    }

    /// Number of rows (runs of the innermost dimension) in the sweep.
    pub(crate) fn row_count(&self) -> usize {
        self.shape[..self.shape.len() - 1]
            .iter()
            .product::<usize>()
            .max(1)
    }

    /// Length of one row (innermost extent).
    pub(crate) fn row_len(&self) -> usize {
        *self.shape.last().expect("iteration spaces are never empty")
    }

    /// Resolve every field of this stencil to its grid for one run, through
    /// the caller's name lookup (`grid_of`).
    ///
    /// This is the cheap per-run step: a few name lookups plus the scalar
    /// slot prefill — no compilation, no geometry analysis.
    ///
    /// # Errors
    ///
    /// Returns [`ExprError::UnresolvedSymbol`] if a field has no grid.
    pub(crate) fn bind<'g, 'p>(
        &'p self,
        grid_of: impl Fn(&str) -> Option<&'g Grid>,
    ) -> Result<BoundStencil<'g, 'p>, ExprError> {
        let mut grid_data: Vec<&'g [f64]> = Vec::with_capacity(self.fields.len());
        for field in &self.fields {
            let grid = grid_of(&field.name).ok_or_else(|| ExprError::UnresolvedSymbol {
                name: field.name.clone(),
            })?;
            debug_assert_eq!(
                grid.data_type(),
                field.dtype,
                "input validation guarantees declared element types"
            );
            debug_assert_eq!(grid.len(), field.len, "input validation guarantees shapes");
            grid_data.push(grid.as_slice());
        }
        let tap_template = self
            .slots
            .iter()
            .map(|slot| {
                if slot.scalar {
                    grid_data[slot.grid][0]
                } else {
                    0.0
                }
            })
            .collect();
        Ok(BoundStencil {
            plan: self,
            grid_data,
            tap_template,
        })
    }

    /// Lane width the batched sweep dispatches to for this stencil (one of
    /// [`KERNEL_LANES`] / [`KERNEL_LANES_WIDE`]; meaningful only when the
    /// stencil is typed).
    pub(crate) fn lane_width(&self) -> usize {
        self.lane_width
    }

    /// The type-specialized kernel, when the slot types allowed one.
    pub(crate) fn typed_kernel(&self) -> Option<&TypedKernel> {
        self.typed.as_ref()
    }

    /// Bind-time element type of every kernel slot, in slot order (the
    /// types the typed kernel was specialized with); feeds the
    /// JIT-eligibility verification pass.
    pub(crate) fn slot_dtypes(&self) -> Vec<DataType> {
        self.slots.iter().map(|s| s.dtype).collect()
    }

    /// The slot-resolved `Value` bytecode kernel.
    pub(crate) fn compiled_kernel(&self) -> &CompiledKernel {
        &self.kernel
    }

    /// The deduplicated `(dimension, offset)` checks driving the shrink
    /// mask (see the field documentation).
    pub(crate) fn shrink_mask_checks(&self) -> &[(usize, i64)] {
        &self.mask_checks
    }

    /// Whether the stencil has the `shrink` boundary flag.
    pub(crate) fn is_shrink(&self) -> bool {
        self.shrink
    }
}

/// A [`CompiledStencil`] bound to this run's grids.
pub(crate) struct BoundStencil<'g, 'p> {
    plan: &'p CompiledStencil,
    grid_data: Vec<&'g [f64]>,
    /// One raw tap per slot, scalar slots prefilled (they are resolved once
    /// per run, never re-read per cell).
    tap_template: Vec<f64>,
}

/// Raw value of one non-scalar slot at a halo cell: bounds-check the access
/// and apply the boundary condition on a miss. `index` must hold the cell's
/// full index (leading dimensions and `k`). The returned raw value is what
/// grid storage holds (already rounded through the slot's element type), so
/// every kernel loads it identically, whatever the batch width.
#[inline]
fn halo_slot_raw(
    plan: &CompiledStencil,
    grid_data: &[&[f64]],
    slot_ix: usize,
    slot: &SlotTemplate,
    index: &[usize],
    rowbase: &[i64],
    k: usize,
) -> f64 {
    let rank = plan.shape.len();
    let in_bounds = slot.checks.iter().all(|&(dim, off)| {
        let pos = index[dim] as i64 + off;
        pos >= 0 && pos < plan.shape[dim] as i64
    });
    let center = rowbase[slot_ix] - slot.delta + k as i64 * slot.coeffs[rank - 1];
    if in_bounds {
        grid_data[slot.grid][(center + slot.delta) as usize]
    } else {
        match slot.boundary {
            // Pre-rounded through the slot type, so tagging it with
            // `Value::from_f64(c, dtype)` is idempotent.
            BoundaryCondition::Constant(_) => slot.halo_constant,
            BoundaryCondition::Copy => grid_data[slot.grid][center as usize],
        }
    }
}

/// Shrink-mask validity of a halo cell (interior cells are always valid).
#[inline]
fn halo_mask_valid(plan: &CompiledStencil, index: &[usize]) -> bool {
    plan.mask_checks.iter().all(|&(dim, off)| {
        let pos = index[dim] as i64 + off;
        pos >= 0 && pos < plan.shape[dim] as i64
    })
}

/// Round a lane batch of raw results through the stencil's output element
/// type into `out` — per lane exactly `Value::from_f64(v, dtype).as_f64()`,
/// the rounding the interpreter applies on store.
#[inline]
pub(crate) fn round_lanes<const LANES: usize>(
    values: &[f64; LANES],
    dtype: DataType,
    out: &mut [f64],
) {
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

/// Gather one slot's interior lanes: `lanes[l] = grid[l · stride]`, `grid`
/// starting at the first lane's tap. (`inline(always)`: a full batch passes
/// its `[f64; L]`, and the copy must see that constant length — left to the
/// inliner's judgment, `jobs_per_s`@`hdiff` read 0.96x, 0/10 pairs.)
#[inline(always)]
fn gather(grid: &[f64], stride: i64, lanes: &mut [f64]) {
    match stride {
        1 => lanes.copy_from_slice(&grid[..lanes.len()]),
        0 => lanes.fill(grid[0]),
        _ => {
            for (l, lane) in lanes.iter_mut().enumerate() {
                *lane = grid[l * stride as usize];
            }
        }
    }
}

/// The lane-batched evaluation of a typed kernel, `L` cells per bytecode
/// pass.
fn lane_eval<const L: usize>(
    typed: &TypedKernel,
) -> impl FnMut(&[[f64; L]], &mut [f64; L]) -> Result<(), ExprError> + '_ {
    let mut scratch = LaneScratch::<L>::default();
    move |taps, out| {
        *out = typed.eval_lanes(taps, &mut scratch);
        Ok(())
    }
}

impl BoundStencil<'_, '_> {
    /// Sweep rows `[row_start, row_end)`, writing results into `out` and the
    /// validity mask into `mask` (both spanning exactly those rows).
    ///
    /// The stencil's own kernels pick the instantiation of the one
    /// [`BoundStencil::sweep`], nothing else does: a typed kernel runs
    /// `lane_width` cells per pass on raw `f64`s; a kernel that does not
    /// specialize runs cell by cell (`L = 1`) on tagged [`Value`]s. Both
    /// produce the interpreter's bits.
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures (e.g. integer division by zero; only
    /// reachable on the `Value` kernel — typed kernels are infallible).
    pub(crate) fn run_rows(
        &self,
        row_start: usize,
        row_end: usize,
        out: &mut [f64],
        mask: &mut [bool],
    ) -> Result<(), ExprError> {
        let plan = self.plan;
        let rows = (row_start, row_end);
        match &plan.typed {
            Some(typed) if plan.lane_width == KERNEL_LANES_WIDE => {
                self.sweep(rows, out, mask, lane_eval::<KERNEL_LANES_WIDE>(typed))
            }
            Some(typed) => self.sweep(rows, out, mask, lane_eval::<KERNEL_LANES>(typed)),
            None => {
                // Grids round every store through their element type, so
                // tagging a raw tap recovers exactly the value the
                // interpreter reads.
                let mut values = vec![Value::F64(0.0); plan.slots.len()];
                let mut scratch = EvalScratch::default();
                self.sweep::<1>(rows, out, mask, |taps, out| {
                    for ((value, &[tap]), slot) in values.iter_mut().zip(taps).zip(&plan.slots) {
                        *value = Value::from_f64(tap, slot.dtype);
                    }
                    *out = [plan.kernel.eval_slots(&values, &mut scratch)?.as_f64()];
                    Ok(())
                })
            }
        }
    }

    /// The sweep: every row is cut into batches of `L` cells, each batch's
    /// taps are gathered slot-major into `[f64; L]` lanes, `eval` maps them
    /// to `L` raw results, and the results are rounded through the output
    /// type on store.
    ///
    /// * **Interior batches** (every lane statically in bounds) gather each
    ///   slot with one contiguous innermost-dimension load (unit stride), a
    ///   broadcast (zero stride: the field does not span the innermost
    ///   dimension) or a strided read per lane (a transposed field).
    /// * **Halo (or mixed) batches** split into the contiguous interval of
    ///   interior lanes, loaded the same way, plus edge lanes gathered one
    ///   by one through the bounds-checked [`halo_slot_raw`], which also
    ///   drive the shrink mask.
    /// * The **row remainder** is a partial batch: its surplus lanes keep
    ///   the taps of an earlier batch and their results are dropped, never
    ///   stored. Only `L = 1` kernels can fail, and they have no surplus.
    ///
    /// The width only changes how cells are grouped into batches, never
    /// what any one lane loads or computes. (`eval` stores its results
    /// through `&mut`, and the batch loop is a plain `while`: returning the
    /// lanes inside a `Result` and stepping with `step_by` each measured
    /// ~1.5 % slower on `listing1`'s three-op kernels.)
    fn sweep<const L: usize>(
        &self,
        (row_start, row_end): (usize, usize),
        out: &mut [f64],
        mask: &mut [bool],
        mut eval: impl FnMut(&[[f64; L]], &mut [f64; L]) -> Result<(), ExprError>,
    ) -> Result<(), ExprError> {
        let plan = self.plan;
        let rank = plan.shape.len();
        let row_len = plan.row_len();
        debug_assert_eq!(out.len(), (row_end - row_start) * row_len);

        // Slot-major lane buffer; scalar slots stay broadcast for the whole
        // sweep.
        let mut lane_values: Vec<[f64; L]> = self.tap_template.iter().map(|&v| [v; L]).collect();
        let mut lead = vec![0usize; rank - 1];
        let mut rowbase = vec![0i64; plan.slots.len()];
        let mut index = vec![0usize; rank];
        let mut result = [0.0; L];

        let lo_k = plan.interior_lo[rank - 1];
        let hi_k = plan.interior_hi[rank - 1];

        for row in row_start..row_end {
            let row_interior = self.row_setup(row, &mut lead, &mut rowbase);
            index[..rank - 1].copy_from_slice(&lead);

            let out_row = &mut out[(row - row_start) * row_len..][..row_len];
            let mask_row = &mut mask[(row - row_start) * row_len..][..row_len];

            let mut k = 0;
            while k < row_len {
                let end = row_len.min(k + L);
                if row_interior && k >= lo_k && k + L <= hi_k {
                    for (s, slot) in plan.slots.iter().enumerate() {
                        if slot.scalar {
                            continue;
                        }
                        let stride = slot.coeffs[rank - 1];
                        let base = (rowbase[s] + k as i64 * stride) as usize;
                        gather(
                            &self.grid_data[slot.grid][base..],
                            stride,
                            &mut lane_values[s],
                        );
                    }
                } else {
                    // The interior cells of a batch form one contiguous
                    // lane interval.
                    let (int_start, int_end) = if row_interior {
                        let start = lo_k.clamp(k, end);
                        (start, hi_k.clamp(start, end))
                    } else {
                        (k, k)
                    };
                    for (s, slot) in plan.slots.iter().enumerate() {
                        if slot.scalar {
                            continue;
                        }
                        let lanes = &mut lane_values[s];
                        if int_start < int_end {
                            let stride = slot.coeffs[rank - 1];
                            let base = (rowbase[s] + int_start as i64 * stride) as usize;
                            let span = &mut lanes[int_start - k..int_end - k];
                            gather(&self.grid_data[slot.grid][base..], stride, span);
                        }
                        for cell in (k..int_start).chain(int_end..end) {
                            index[rank - 1] = cell;
                            lanes[cell - k] = halo_slot_raw(
                                plan,
                                &self.grid_data,
                                s,
                                slot,
                                &index,
                                &rowbase,
                                cell,
                            );
                        }
                    }
                    if plan.shrink {
                        for cell in (k..int_start).chain(int_end..end) {
                            index[rank - 1] = cell;
                            mask_row[cell] = halo_mask_valid(plan, &index);
                        }
                    }
                }
                eval(&lane_values, &mut result)?;
                if end - k == L {
                    round_lanes(&result, plan.out_dtype, &mut out_row[k..k + L]);
                } else {
                    // Row remainder: the surplus lanes are dropped here.
                    let mut rounded = [0.0; L];
                    round_lanes(&result, plan.out_dtype, &mut rounded);
                    out_row[k..end].copy_from_slice(&rounded[..end - k]);
                }
                k = end;
            }
        }
        Ok(())
    }

    /// Decompose `row` into the leading index and per-slot row bases.
    fn row_setup(&self, row: usize, lead: &mut [usize], rowbase: &mut [i64]) -> bool {
        let plan = self.plan;
        let rank = plan.shape.len();
        let mut rem = row;
        for d in (0..rank - 1).rev() {
            lead[d] = rem % plan.shape[d];
            rem /= plan.shape[d];
        }
        // Per-slot row base: leading-dimension contribution plus the
        // constant access delta.
        for (s, slot) in plan.slots.iter().enumerate() {
            let mut base = slot.delta;
            for (d, &ix) in lead.iter().enumerate() {
                base += ix as i64 * slot.coeffs[d];
            }
            rowbase[s] = base;
        }
        plan.has_interior
            && lead
                .iter()
                .enumerate()
                .all(|(d, &ix)| ix >= plan.interior_lo[d] && ix < plan.interior_hi[d])
    }
}
