//! Simulated stencil processing units.
//!
//! Each unit mirrors the expanded `Stencil` library node of Fig. 12, and —
//! like the hardware — falls into a control half and a datapath half:
//!
//! * [`StencilUnit`] is the control. Per input field it counts the elements
//!   consumed from the field's channel against the shift-register fill
//!   distance; every cycle it pulls at most one element per field, fires
//!   when every field has reached that distance and every output channel
//!   has space, and otherwise records an input or output stall. It passes
//!   through the phases of the generated code (*initialization*,
//!   *streaming*, *draining*) without ever looking at a value. A memory
//!   reader is the unit without input ports ([`StencilUnit::reader`]).
//! * [`FieldKernel`] is the datapath: the stencil expression with its tap
//!   points and boundary predication, a pure function from the unit's whole
//!   input streams to its whole output stream.

use crate::channel::TokenChannel;
use crate::memory::MemoryModel;
use stencilflow_core::{CoreError, Result as CoreResult};
use stencilflow_expr::{
    CompiledKernel, DataType, EvalScratch, LaneScratch, TypedKernel, Value, KERNEL_LANES,
};
use stencilflow_program::{BoundaryCondition, IterationSpace, ProgramError, StencilNode};

/// An access at `offsets` along `index_vars`, as one offset per dimension of
/// the iteration space (zero along the dimensions the field lacks).
fn full_offset(space: &IterationSpace, index_vars: &[String], offsets: &[i64]) -> Vec<i64> {
    let mut full = vec![0i64; space.rank()];
    for (var, &off) in index_vars.iter().zip(offsets) {
        if let Some(dim) = space.dim_index(var) {
            full[dim] = off;
        }
    }
    full
}

/// The per-field input port of a stencil unit.
#[derive(Debug, Clone)]
struct Port {
    channel: usize,
    /// How many elements ahead of the current output cell this port consumes
    /// (the internal-buffer fill distance, mirroring the shift-register
    /// implementation and the per-edge delay used by the analysis).
    consume_ahead: usize,
    /// Elements consumed from the channel so far.
    consumed: usize,
}

/// The control half of a simulated stencil unit.
#[derive(Debug, Clone)]
pub(crate) struct StencilUnit {
    ports: Vec<Port>,
    out_channels: Vec<usize>,
    total_cells: usize,
    /// Whether every produced cell costs a word of off-chip bandwidth.
    draws_memory: bool,
    /// Cells produced so far.
    pub(crate) produced: usize,
    /// Cycles stalled waiting for input data.
    pub(crate) input_stalls: u64,
    /// Cycles stalled waiting for output space.
    pub(crate) output_stalls: u64,
}

impl StencilUnit {
    /// Create the control unit of `stencil`; `in_channels` holds one channel
    /// index per accessed field, in `stencil.accesses` order.
    pub(crate) fn new(
        space: &IterationSpace,
        stencil: &StencilNode,
        in_channels: &[usize],
        out_channels: Vec<usize>,
    ) -> Self {
        let ports = stencil
            .accesses
            .iter()
            .zip(in_channels)
            .map(|((_, info), &channel)| {
                let lins: Vec<i64> = (info.offsets.iter())
                    .map(|offsets| {
                        space.linearize_offset(&full_offset(space, &info.index_vars, offsets))
                    })
                    .collect();
                let max_lin = lins.iter().copied().max().unwrap_or(0);
                let min_lin = lins.iter().copied().min().unwrap_or(0);
                // Buffer-fill distance: the full shift-register span when the
                // field is accessed more than once, otherwise just far enough
                // to have the (possibly forward-offset) single access
                // available.
                let span = if lins.len() >= 2 {
                    max_lin - min_lin + 1
                } else {
                    0
                };
                Port {
                    channel,
                    consume_ahead: span.max(max_lin + 1).max(1) as usize,
                    consumed: 0,
                }
            })
            .collect();
        StencilUnit {
            ports,
            ..Self::reader(out_channels, false, space.num_cells())
        }
    }

    /// A dedicated prefetcher streaming one input field from off-chip
    /// memory, one element per cell, to all its consumers. Only full-domain
    /// fields draw from the bandwidth budget (`draws_memory`).
    pub(crate) fn reader(out_channels: Vec<usize>, draws_memory: bool, total_cells: usize) -> Self {
        StencilUnit {
            ports: Vec::new(),
            out_channels,
            total_cells,
            draws_memory,
            produced: 0,
            input_stalls: 0,
            output_stalls: 0,
        }
    }

    /// Attempt one cycle of work; returns `true` if any progress was made.
    pub(crate) fn step(
        &mut self,
        now: u64,
        channels: &mut [TokenChannel],
        memory: &mut MemoryModel,
    ) -> bool {
        let mut progress = false;
        let cell = self.produced;
        let total = self.total_cells;

        // Consume phase: pull at most one element per field per cycle, as
        // long as this cell (or the drain of the stream) still needs it.
        // A failed pop is back-pressure (word not produced yet or still in
        // network flight): the port retries next cycle.
        let mut missing_input = false;
        let mut ready = true;
        for port in &mut self.ports {
            // Past the last cell the unit drains whatever is left.
            let required = (cell + port.consume_ahead).min(total);
            if port.consumed < required {
                if channels[port.channel].try_pop(now) {
                    port.consumed += 1;
                    progress = true;
                } else {
                    missing_input = true;
                }
            }
            ready &= port.consumed >= required;
        }
        if cell >= total {
            return progress;
        }
        if !ready {
            if missing_input {
                self.input_stalls += 1;
            }
            return progress;
        }

        // Output channels must all have space (the conditional write of the
        // compute phase); only then is the memory word requested.
        if !self.out_channels.iter().all(|&c| channels[c].can_push())
            || (self.draws_memory && !memory.request_word())
        {
            self.output_stalls += 1;
            return progress;
        }
        for &c in &self.out_channels {
            channels[c].push(now);
        }
        self.produced += 1;
        true
    }
}

/// One pre-bound access of the unit's compiled kernel: which input stream it
/// taps, at which linearized offset, and the per-dimension bounds checks for
/// boundary predication.
#[derive(Debug)]
struct SlotTap {
    /// Index into the unit's input streams (`accesses` order).
    port: usize,
    /// Linearized (memory-order) offset of the access.
    linear: i64,
    /// `(dimension, offset)` pairs to bounds-check, innermost dimension
    /// excluded: they hold or fail for a whole row.
    outer_checks: Vec<(usize, i64)>,
    /// Offset along the innermost dimension (zero when the access does not
    /// index it, which never fails the check).
    inner: i64,
    /// Boundary condition applied when a check fails.
    boundary: BoundaryCondition,
}

impl SlotTap {
    /// The raw tap value for the cell at position `k` of a row starting at
    /// flat index `row`: the stream element at the tap's offset, or the
    /// boundary value (`Copy` reads the centre cell) when the access leaves
    /// the domain.
    #[inline]
    fn value(&self, stream: &[f64], row: usize, k: usize, width: usize, outer_oob: bool) -> f64 {
        let cell = row + k;
        let pos = k as i64 + self.inner;
        if outer_oob || pos < 0 || pos >= width as i64 {
            match self.boundary {
                BoundaryCondition::Constant(c) => c,
                BoundaryCondition::Copy => stream[cell],
            }
        } else {
            stream[(cell as i64 + self.linear) as usize]
        }
    }
}

/// Round every value through `dtype`, as a stream element of that type is
/// (`Value::from_f64(v, dtype).as_f64()`, with the two float cases spelled
/// out so that they vectorize).
#[inline]
fn round_all(values: &mut [f64], dtype: DataType) {
    match dtype {
        DataType::Float64 => {}
        DataType::Float32 => values.iter_mut().for_each(|v| *v = *v as f32 as f64),
        _ => values
            .iter_mut()
            .for_each(|v| *v = Value::from_f64(*v, dtype).as_f64()),
    }
}

/// The datapath half of a simulated stencil unit: evaluates the stencil's
/// code segment over whole input streams.
///
/// Every stream value entering the unit and every result leaving it is
/// rounded through the unit's output type — the element type of all of the
/// unit's channels.
#[derive(Debug)]
pub(crate) struct FieldKernel {
    name: String,
    /// Extents of the outer dimensions and of the innermost one.
    outer: Vec<usize>,
    width: usize,
    /// Compiled code segment, evaluated through pre-bound taps.
    kernel: CompiledKernel,
    /// Type-specialized kernel: evaluates on raw `f64`s with no `Value`
    /// tagging, lane-batched.
    typed: Option<TypedKernel>,
    taps: Vec<SlotTap>,
    output_type: DataType,
}

impl FieldKernel {
    /// Compile `stencil`'s code segment and bind every access slot to its
    /// input stream (the position of its field in `stencil.accesses`).
    pub(crate) fn new(space: &IterationSpace, stencil: &StencilNode) -> CoreResult<Self> {
        let code_error = |source| {
            CoreError::Program(ProgramError::Code {
                stencil: stencil.name.clone(),
                source,
            })
        };
        let kernel = CompiledKernel::compile(&stencil.program).map_err(code_error)?;
        let inner_dim = space.rank() - 1;
        let mut taps = Vec::with_capacity(kernel.slots().len());
        for slot in kernel.slots() {
            let port = stencil
                .accesses
                .iter()
                .position(|(field, _)| field == slot.field)
                .ok_or_else(|| CoreError::Internal {
                    message: format!(
                        "`{}` evaluates `{}` but does not list it as an access",
                        stencil.name, slot.field
                    ),
                })?;
            let offset = full_offset(space, &slot.index_vars, &slot.offsets);
            // A zero offset never leaves the domain: only the others need a
            // bounds check.
            let checked = (0..inner_dim).filter(|&dim| offset[dim] != 0);
            taps.push(SlotTap {
                port,
                linear: space.linearize_offset(&offset),
                outer_checks: checked.map(|dim| (dim, offset[dim])).collect(),
                inner: offset[inner_dim],
                boundary: stencil.boundary.condition_for(&slot.field),
            });
        }
        // Every stream value of the unit carries the unit's data type, so
        // the specialization is uniform over the slots.
        let typed = kernel.specialize(&vec![stencil.output_type; taps.len()]);
        Ok(FieldKernel {
            name: stencil.name.clone(),
            outer: space.shape[..inner_dim].to_vec(),
            width: space.inner_extent(),
            kernel,
            typed,
            taps,
            output_type: stencil.output_type,
        })
    }

    /// The unit's whole output stream from its whole input streams (one per
    /// accessed field, each spanning the iteration space): `KERNEL_LANES`
    /// cells per call of the typed kernel, or one cell per call of the
    /// `Value` kernel when the stencil does not specialize.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError::Code`] if a kernel without a typed form fails
    /// on the data (integer division by zero).
    pub(crate) fn eval_field(&self, streams: &[&[f64]]) -> CoreResult<Vec<f64>> {
        if let Some(typed) = &self.typed {
            let mut scratch = LaneScratch::default();
            return self
                .sweep::<KERNEL_LANES>(streams, |taps| Ok(typed.eval_lanes(taps, &mut scratch)));
        }
        let mut values = vec![Value::F64(0.0); self.taps.len()];
        let mut scratch = EvalScratch::default();
        self.sweep::<1>(streams, |taps| {
            for (value, &[tap]) in values.iter_mut().zip(taps) {
                *value = Value::from_f64(tap, self.output_type);
            }
            let result = self.kernel.eval_slots(&values, &mut scratch);
            let result = result.map_err(|source| ProgramError::Code {
                stencil: self.name.clone(),
                source,
            })?;
            Ok([result.as_f64()])
        })
    }

    /// Walk the field row by row (runs of the innermost dimension), `L`
    /// cells at a time: gather every tap's batch, round it through the
    /// unit's type, call `eval`, round and store the results. Every lane is
    /// predicated on its own boundary checks, so halo cells, rows narrower
    /// than a batch and row remainders all take the same path; the surplus
    /// lanes of a partial batch compute on stale taps and are dropped.
    fn sweep<const L: usize>(
        &self,
        streams: &[&[f64]],
        mut eval: impl FnMut(&[[f64; L]]) -> CoreResult<[f64; L]>,
    ) -> CoreResult<Vec<f64>> {
        let (outer, width, dtype) = (&self.outer, self.width, self.output_type);
        let rows: usize = outer.iter().product();
        let mut out = vec![0.0; rows * width];
        let mut batches = vec![[0.0; L]; self.taps.len()];
        let mut index = vec![0usize; outer.len()];
        let mut oob = vec![false; self.taps.len()];
        for row in (0..rows).map(|r| r * width) {
            // Outer-dimension checks hold or fail for the whole row.
            for (tap, oob) in self.taps.iter().zip(oob.iter_mut()) {
                *oob = tap.outer_checks.iter().any(|&(dim, off)| {
                    let pos = index[dim] as i64 + off;
                    pos < 0 || pos >= outer[dim] as i64
                });
            }
            for k0 in (0..width).step_by(L) {
                let n = L.min(width - k0);
                for ((tap, &oob), batch) in self.taps.iter().zip(&oob).zip(batches.iter_mut()) {
                    let stream = streams[tap.port];
                    let first = k0 as i64 + tap.inner;
                    if !oob && n == L && first >= 0 && first + L as i64 <= width as i64 {
                        let start = ((row + k0) as i64 + tap.linear) as usize;
                        batch.copy_from_slice(&stream[start..start + L]);
                    } else {
                        for (lane, value) in batch[..n].iter_mut().enumerate() {
                            *value = tap.value(stream, row, k0 + lane, width, oob);
                        }
                    }
                    round_all(batch, dtype);
                }
                let mut result = eval(&batches)?;
                round_all(&mut result, dtype);
                out[row + k0..row + k0 + n].copy_from_slice(&result[..n]);
            }
            for d in (0..outer.len()).rev() {
                index[d] += 1;
                if index[d] < outer[d] {
                    break;
                }
                index[d] = 0;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencilflow_expr::TypedScratch;
    use stencilflow_program::{StencilProgram, StencilProgramBuilder};

    fn simple_program() -> StencilProgram {
        StencilProgramBuilder::new("p", &[8])
            .input("a", DataType::Float32, &["i"])
            .stencil("s", "a[i-1] + a[i+1]")
            .boundary("s", "a", BoundaryCondition::Constant(0.0))
            .output("s")
            .build()
            .unwrap()
    }

    /// Control and datapath of stencil `s`, wired `channel 0 -> s -> channel 1`.
    fn unit_of(program: &StencilProgram) -> (StencilUnit, FieldKernel) {
        let stencil = program.stencil("s").unwrap();
        (
            StencilUnit::new(program.space(), stencil, &[0], vec![1]),
            FieldKernel::new(program.space(), stencil).unwrap(),
        )
    }

    fn channels(input: usize, output: usize) -> (Vec<TokenChannel>, MemoryModel) {
        let channels = vec![
            TokenChannel::new(input, 0, f64::INFINITY),
            TokenChannel::new(output, 0, f64::INFINITY),
        ];
        (channels, MemoryModel::new(None))
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn unit_streams_a_three_point_stencil() {
        let program = simple_program();
        let (mut unit, kernel) = unit_of(&program);
        let (mut channels, mut memory) = channels(64, 64);

        // Control: feed one word per cycle and run until the unit has
        // produced its eight cells and drained its input.
        let mut cycles = 0;
        for cycle in 0..200u64 {
            if cycle < 8 {
                channels[0].push(cycle);
            }
            unit.step(cycle, &mut channels, &mut memory);
            cycles = cycle + 1;
            if unit.produced == 8 && channels[0].len == 0 {
                break;
            }
        }
        // The fill distance of `a[i-1] + a[i+1]` is three words: the first
        // cell fires in cycle 2, the last two are drained from the buffer.
        assert_eq!((unit.produced, cycles), (8, 10));
        assert_eq!(channels[1].len, 8);
        assert_eq!((unit.input_stalls, unit.output_stalls), (0, 0));

        // Datapath: s[i] = a[i-1] + a[i+1] with constant-0 boundaries.
        let data: Vec<f64> = (0..8).map(f64::from).collect();
        let outputs = kernel.eval_field(&[&data]).unwrap();
        assert_eq!(outputs, vec![1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 6.0]);
    }

    #[test]
    fn typed_and_value_kernel_paths_agree_bitwise() {
        // Two programs computing the same function: the first specializes
        // (all-float), the second keeps the dynamic `Value` path because the
        // integer literal blocks specialization (`1 * x` is not folded by
        // the exact fold mode and is value-preserving on f32).
        let build = |code: &str| {
            StencilProgramBuilder::new("p", &[8])
                .input("a", DataType::Float32, &["i"])
                .stencil("s", code)
                .boundary("s", "a", BoundaryCondition::Constant(0.5))
                .output("s")
                .build()
                .unwrap()
        };
        let typed_program = build("0.5 * (a[i-1] + a[i+1])");
        let value_program = build("1 * (0.5 * (a[i-1] + a[i+1]))");
        let data: Vec<f64> = (0..8).map(|v| v as f64 * 0.37).collect();
        let mut outputs: Vec<Vec<f64>> = Vec::new();
        for (program, expect_typed) in [(typed_program, true), (value_program, false)] {
            let (_, kernel) = unit_of(&program);
            assert_eq!(kernel.typed.is_some(), expect_typed);
            outputs.push(kernel.eval_field(&[&data]).unwrap());
        }
        assert_eq!(bits(&outputs[0]), bits(&outputs[1]));
        // The taps are rounded through the unit's f32 before the kernel
        // sees them, on both paths.
        let expected = 0.5f32 * (0.5f32 + 0.37f64 as f32);
        assert_eq!(outputs[0][0].to_bits(), f64::from(expected).to_bits());
    }

    #[test]
    fn every_horizontal_diffusion_unit_has_a_typed_kernel() {
        // The 16^3 program of the `sim-pipeline` benchmark workload: the
        // twelve limiter units join an f64 literal with an f32 arm and
        // used to evaluate on the `Value` path.
        use stencilflow_workloads::{horizontal_diffusion, HorizontalDiffusionSpec};
        let program = horizontal_diffusion(&HorizontalDiffusionSpec {
            shape: [16, 16, 16],
            vectorization: 1,
        });
        let mut units = 0;
        for stencil in program.stencils() {
            let kernel = FieldKernel::new(program.space(), stencil).unwrap();
            assert!(
                kernel.typed.is_some(),
                "`{}` has no typed kernel",
                stencil.name
            );
            units += 1;
        }
        assert_eq!(units, 24);
    }

    /// Lane-batched and per-cell evaluation of `s` agree bit for bit, on
    /// `shape` and on every innermost extent around the lane width.
    fn assert_lanes_match_scalar(shape: &[usize], code: &str, boundary: BoundaryCondition) {
        let (dims, inner) = shape.split_at(shape.len() - 1);
        let widths = (1..=20).chain(inner.iter().copied());
        for width in widths {
            let shape = [dims, &[width]].concat();
            let names = &["i", "j"][2 - shape.len()..];
            let program = StencilProgramBuilder::new("p", &shape)
                .dims(names)
                .input("a", DataType::Float32, names)
                .stencil("s", code)
                .boundary("s", "a", boundary)
                .output("s")
                .build()
                .unwrap();
            let (_, kernel) = unit_of(&program);
            let typed = kernel.typed.as_ref().expect("an all-float kernel is typed");
            let data: Vec<f64> = (0..program.space().num_cells())
                .map(|v| ((v as f64 * 0.61 - 11.0) as f32) as f64)
                .collect();
            let lanes = kernel.eval_field(&[&data]).unwrap();
            let mut scratch = TypedScratch::default();
            let scalar = kernel
                .sweep::<1>(&[&data], |taps| {
                    Ok([typed.eval_slots(taps.as_flattened(), &mut scratch)])
                })
                .unwrap();
            assert_eq!(bits(&lanes), bits(&scalar), "width {width}");
        }
    }

    #[test]
    fn lane_batched_unit_matches_scalar_unit_bitwise() {
        // A 2-D stencil with boundary predication on both ends of the
        // innermost dimension and on the outer one: interior batches are
        // gathered as slices, halo batches, narrow rows (width <
        // `KERNEL_LANES`) and row remainders lane by lane — and the stream
        // must match per-cell evaluation bit for bit.
        let code = "0.5 * (a[i,j-1] + a[i,j+1]) - 0.25 * a[i-1,j]";
        assert_lanes_match_scalar(&[4, 19], code, BoundaryCondition::Constant(0.75));
        assert_lanes_match_scalar(&[4, 19], code, BoundaryCondition::Copy);
        // One dimension, taps further out than a narrow row is wide.
        let code = "a[j-3] - 2.0 * a[j] + a[j+2]";
        assert_lanes_match_scalar(&[5], code, BoundaryCondition::Copy);
    }

    #[test]
    fn branchy_kernels_lane_batch_after_if_conversion() {
        // If-conversion lowers a data-dependent ternary to a select, so the
        // unit evaluates it in lanes — and the produced stream must match
        // per-cell evaluation.
        assert_lanes_match_scalar(
            &[4, 19],
            "d = a[i,j] - a[i,j-1]; d > 0.0 ? d * a[i,j+1] : -d * a[i,j]",
            BoundaryCondition::Constant(0.25),
        );
    }

    #[test]
    fn unit_stalls_without_input_and_counts_it() {
        let program = simple_program();
        let (mut unit, _) = unit_of(&program);
        let (mut channels, mut memory) = channels(4, 4);
        // No input available: no progress, and the stall is recorded.
        assert!(!unit.step(0, &mut channels, &mut memory));
        assert_eq!(unit.input_stalls, 1);
        // A word that is consumed but does not yet fill the buffer is
        // progress, not a stall.
        channels[0].push(1);
        assert!(unit.step(1, &mut channels, &mut memory));
        assert_eq!((unit.input_stalls, unit.produced), (1, 0));
    }

    #[test]
    fn unit_blocks_on_full_output_channel() {
        let program = simple_program();
        let (mut unit, _) = unit_of(&program);
        // Output channel of capacity 1.
        let (mut channels, mut memory) = channels(64, 1);
        for cycle in 0..20u64 {
            if channels[0].can_push() {
                channels[0].push(cycle);
            }
            unit.step(cycle, &mut channels, &mut memory);
        }
        // Only one output fits; the unit must have stalled on output.
        assert_eq!(channels[1].len, 1);
        assert!(unit.output_stalls > 0);
        assert_eq!(unit.produced, 1);
    }
}
