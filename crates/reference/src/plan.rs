//! Compiled stencil templates.
//!
//! The reference executor used to walk the expression tree once per cell,
//! resolving every access through a string-keyed lookup that allocated an
//! offset vector per access. A [`CompiledStencil`] does that resolution
//! **once per program**, and borrows no grids, so one compiled template is
//! reusable across any number of runs (see `ReferenceExecutor::prepare`):
//!
//! * the code segment is lowered to a [`CompiledKernel`] (slot-resolved
//!   bytecode, see `stencilflow_expr::compile`), and additionally
//!   specialized to a [`TypedKernel`] when every instruction's result type
//!   is statically determined by the slot types — the sweep then runs on
//!   raw `f64`s with no `Value` tagging and no per-op promotion, lane
//!   batched; a kernel that does not specialize is evaluated one cell at a
//!   time on tagged `Value`s;
//! * every slot's element type is its field's *declared* one (input grids
//!   are validated against the declared shape and element type before
//!   every run);
//! * the shrink mask's access checks are collected from the stencil's full
//!   syntactic access pattern.
//!
//! How the slots read their fields — ring buffers, pads, strides — is the
//! fuse plan's business (`fuse.rs`), which sweeps every stencil.

use std::collections::BTreeSet;
use std::sync::Arc;
use stencilflow_expr::{CompiledKernel, DataType, ExprError, TypedKernel, Value};
use stencilflow_program::{IterationSpace, StencilNode, StencilProgram};

/// Expand a field's declared dimension names into its dense row-major shape
/// over the iteration space (dimensions the space does not know contribute
/// extent 1). This single definition of the declared geometry is shared by
/// compilation and input validation.
pub(crate) fn declared_shape(space: &IterationSpace, dims: &[String]) -> Vec<usize> {
    dims.iter()
        .map(|d| space.dim_index(d).map(|ix| space.shape[ix]).unwrap_or(1))
        .collect()
}

/// A stencil compiled against the declared element types of its fields.
/// Owns no grid data; reusable across runs.
pub(crate) struct CompiledStencil {
    name: String,
    /// The stencil node's own kernel, shared with the program.
    kernel: Arc<CompiledKernel>,
    /// Type-specialized kernel, present when every op's type is static.
    typed: Option<TypedKernel>,
    /// Element type of every kernel slot, in slot order (the types the
    /// typed kernel was specialized with).
    slot_types: Vec<DataType>,
    /// All syntactic `(dimension, offset)` access checks of the stencil
    /// (deduplicated) — drives the shrink mask, matching the tree-walking
    /// executor which considers every access, including ones the kernel may
    /// have folded away.
    mask_checks: Vec<(usize, i64)>,
    out_dtype: DataType,
    shrink: bool,
}

impl CompiledStencil {
    /// Compile `stencil` against the **declared** element types of the
    /// program's fields.
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
        let kernel = Arc::clone(stencil.kernel()?);
        let space = program.space();
        let slot_types = kernel
            .slots()
            .iter()
            .map(|slot| {
                program
                    .field_type(&slot.field)
                    .ok_or_else(|| ExprError::UnresolvedSymbol {
                        name: slot.field.clone(),
                    })
            })
            .collect::<Result<Vec<_>, _>>()?;

        // The shrink-mask check set comes from the full syntactic access
        // pattern, exactly like the tree-walking executor's per-cell
        // out-of-bounds re-walk.
        let mut mask_checks: BTreeSet<(usize, i64)> = BTreeSet::new();
        for (_, info) in stencil.accesses.iter() {
            for offsets in &info.offsets {
                for (var, &off) in info.index_vars.iter().zip(offsets.iter()) {
                    if let Some(dim) = space.dim_index(var) {
                        if off != 0 {
                            mask_checks.insert((dim, off));
                        }
                    }
                }
            }
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
        Ok(CompiledStencil {
            name: stencil.name.clone(),
            kernel,
            typed,
            slot_types,
            mask_checks: mask_checks.into_iter().collect(),
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

    /// The type-specialized kernel, when the slot types allowed one.
    pub(crate) fn typed_kernel(&self) -> Option<&TypedKernel> {
        self.typed.as_ref()
    }

    /// Declared element type of every kernel slot, in slot order.
    pub(crate) fn slot_dtypes(&self) -> &[DataType] {
        &self.slot_types
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
