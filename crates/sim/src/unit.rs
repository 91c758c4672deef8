//! Simulated stencil processing units.
//!
//! Each unit mirrors the expanded `Stencil` library node of Fig. 12: per
//! input field it keeps a sliding window (the shift-register internal buffer)
//! fed from the field's FIFO channel; every streaming iteration it shifts the
//! windows, reads all tap points, evaluates the stencil expression with
//! boundary predication, and conditionally writes the result to its output
//! channels. The unit passes through three phases: *initialization* (filling
//! the windows before any output can be produced), *streaming* (one consume
//! and one produce per cycle), and *draining* (producing the trailing cells
//! from buffered data while inputs are exhausted).

use crate::channel::Fifo;
use std::collections::{BTreeMap, VecDeque};
use stencilflow_expr::{
    CompiledKernel, EvalScratch, LaneScratch, TypedKernel, TypedScratch, Value, KERNEL_LANES,
};
use stencilflow_program::{BoundaryCondition, IterationSpace, StencilNode, StencilProgram};

/// The per-field input port of a stencil unit: a channel plus the sliding
/// window that implements the internal buffer.
#[derive(Debug)]
struct FieldPort {
    field: String,
    channel: usize,
    /// Smallest linearized access offset.
    min_lin: i64,
    /// How many elements ahead of the current output cell this port consumes
    /// (the internal-buffer fill distance, mirroring the shift-register
    /// implementation and the per-edge delay used by the analysis).
    consume_ahead: usize,
    /// Sliding window of recently consumed elements.
    window: VecDeque<f64>,
    /// Linear cell index corresponding to the front of the window.
    window_base: i64,
    /// Elements consumed from the channel so far.
    consumed: usize,
}

impl FieldPort {
    fn required_consumed(&self, cell: usize, total: usize) -> usize {
        let needed = cell as i64 + self.consume_ahead as i64;
        needed.clamp(0, total as i64) as usize
    }

    fn value_at(&self, linear: i64) -> Option<f64> {
        let offset = linear - self.window_base;
        if offset < 0 {
            return None;
        }
        self.window.get(offset as usize).copied()
    }

    fn prune(&mut self, cell: usize) {
        // Keep everything that can still be accessed by this or later cells.
        let keep_from = cell as i64 + self.min_lin;
        while self.window_base < keep_from && self.window.len() > 1 {
            self.window.pop_front();
            self.window_base += 1;
        }
    }
}

/// One pre-bound access of the unit's compiled kernel: which port it taps,
/// at which linearized offset, and the per-dimension bounds checks for
/// boundary predication.
#[derive(Debug)]
struct SlotTap {
    /// Index into `StencilUnitSim::ports`.
    port: usize,
    /// Linearized (memory-order) offset of the access.
    linear: i64,
    /// `(dimension, offset)` pairs to bounds-check.
    checks: Vec<(usize, i64)>,
    /// Boundary condition applied when a check fails.
    boundary: BoundaryCondition,
}

/// A simulated stencil unit.
#[derive(Debug)]
pub struct StencilUnitSim {
    /// Stencil name.
    pub name: String,
    space: IterationSpace,
    ports: Vec<FieldPort>,
    /// Compiled code segment; evaluated once per produced cell through
    /// pre-bound window taps (`slots`) instead of the tree-walking
    /// evaluator.
    kernel: CompiledKernel,
    /// Type-specialized kernel (all stream values carry the unit's data
    /// type): evaluates window taps on raw `f64`s with no `Value` tagging.
    typed: Option<TypedKernel>,
    slots: Vec<SlotTap>,
    slot_values: Vec<Value>,
    typed_values: Vec<f64>,
    scratch: EvalScratch,
    typed_scratch: TypedScratch,
    /// Functional fast mode: consume/evaluate/produce a full lane batch per
    /// step when the windows and output channels allow it (see
    /// [`StencilUnitSim::with_lane_batching`]).
    lane_batching: bool,
    /// Whether the typed kernel is branch-free (lane-batchable at all).
    lane_capable: bool,
    lane_values: Vec<[f64; KERNEL_LANES]>,
    lane_scratch: LaneScratch<KERNEL_LANES>,
    output_type: stencilflow_expr::DataType,
    /// Outgoing channel indices.
    pub out_channels: Vec<usize>,
    /// Cells produced so far.
    pub produced: usize,
    total_cells: usize,
    /// Cycles stalled waiting for input data.
    pub input_stalls: u64,
    /// Cycles stalled waiting for output space.
    pub output_stalls: u64,
}

impl StencilUnitSim {
    /// Create a unit for `stencil`, wiring each consumed field to the given
    /// channel index and the output to `out_channels`.
    pub fn new(
        program: &StencilProgram,
        stencil: &StencilNode,
        input_channels: &BTreeMap<String, usize>,
        out_channels: Vec<usize>,
    ) -> Self {
        let space = program.space().clone();
        let mut ports = Vec::new();
        for (field, info) in stencil.accesses.iter() {
            let mut lins: Vec<i64> = info
                .offsets
                .iter()
                .map(|offsets| {
                    let mut full = vec![0i64; space.rank()];
                    for (var, &off) in info.index_vars.iter().zip(offsets.iter()) {
                        if let Some(dim) = space.dim_index(var) {
                            full[dim] = off;
                        }
                    }
                    space.linearize_offset(&full)
                })
                .collect();
            if lins.is_empty() {
                lins.push(0);
            }
            let channel = *input_channels
                .get(field)
                .unwrap_or_else(|| panic!("no channel wired for field `{field}`"));
            let max_lin = *lins.iter().max().expect("non-empty");
            let min_lin = *lins.iter().min().expect("non-empty");
            // Buffer-fill distance: the full shift-register span when the
            // field is accessed more than once, otherwise just far enough to
            // have the (possibly forward-offset) single access available.
            let span = if lins.len() >= 2 {
                max_lin - min_lin + 1
            } else {
                0
            };
            let consume_ahead = span.max(max_lin + 1).max(1) as usize;
            ports.push(FieldPort {
                field: field.to_string(),
                channel,
                min_lin,
                consume_ahead,
                window: VecDeque::new(),
                window_base: 0,
                consumed: 0,
            });
        }

        // Compile the code segment and bind every access slot to its port
        // tap: linearized offset plus the bounds checks used for boundary
        // predication. This replaces the per-cell string-keyed resolver.
        let kernel =
            CompiledKernel::compile(&stencil.program).expect("validated stencil programs compile");
        let mut slots = Vec::with_capacity(kernel.slots().len());
        for slot in kernel.slots() {
            let port = ports
                .iter()
                .position(|p| p.field == slot.field)
                .unwrap_or_else(|| panic!("no port wired for field `{}`", slot.field));
            let mut full_offset = vec![0i64; space.rank()];
            let mut checks = Vec::with_capacity(slot.index_vars.len());
            for (var, &off) in slot.index_vars.iter().zip(slot.offsets.iter()) {
                if let Some(dim) = space.dim_index(var) {
                    full_offset[dim] = off;
                    checks.push((dim, off));
                }
            }
            slots.push(SlotTap {
                port,
                linear: space.linearize_offset(&full_offset),
                checks,
                boundary: stencil.boundary.condition_for(&slot.field),
            });
        }
        let slot_values = vec![Value::F64(0.0); slots.len()];
        let typed_values = vec![0.0; slots.len()];
        let lane_values = vec![[0.0; KERNEL_LANES]; slots.len()];
        // Every stream value of the unit is tagged with the unit's data
        // type, so the specialization is uniform over the slots.
        let slot_types = vec![stencil.output_type; slots.len()];
        let typed = kernel.specialize(&slot_types);
        let lane_capable = typed.as_ref().is_some_and(TypedKernel::supports_lanes);

        StencilUnitSim {
            name: stencil.name.clone(),
            space: space.clone(),
            ports,
            kernel,
            typed,
            slots,
            slot_values,
            typed_values,
            scratch: EvalScratch::default(),
            typed_scratch: TypedScratch::default(),
            lane_batching: false,
            lane_capable,
            lane_values,
            lane_scratch: LaneScratch::default(),
            output_type: stencil.output_type,
            out_channels,
            produced: 0,
            total_cells: space.num_cells(),
            input_stalls: 0,
            output_stalls: 0,
        }
    }

    /// Enable lane-batched production (builder style): when the unit's
    /// typed kernel is branch-free, its sliding windows already buffer the
    /// taps of the next `KERNEL_LANES` cells (all interior — boundary
    /// predication keeps the scalar path), and every output channel has
    /// space for the whole batch, one [`StencilUnitSim::step`] call
    /// consumes, evaluates, and produces all of them through
    /// [`TypedKernel::eval_lanes`] over the contiguous window storage.
    ///
    /// The produced streams are bit-identical to the scalar unit's; cycle
    /// counts and stall statistics stop modelling the hardware, which is
    /// why this functional fast mode is off by default.
    pub fn with_lane_batching(mut self, enabled: bool) -> Self {
        self.lane_batching = enabled;
        self
    }

    /// Whether the unit has produced its full output domain and drained all
    /// of its inputs.
    pub fn done(&self) -> bool {
        self.produced >= self.total_cells
            && self.ports.iter().all(|p| p.consumed >= self.total_cells)
    }

    /// Attempt one cycle of work; returns `true` if any progress was made.
    ///
    /// With [`StencilUnitSim::with_lane_batching`] enabled, a step may
    /// instead process a whole lane batch when the data allows it.
    pub fn step(&mut self, now: u64, channels: &mut [Fifo]) -> bool {
        if self.lane_batching && self.try_lane_batch(now, channels) {
            return true;
        }
        let mut progress = false;
        let cell = self.produced;

        // Consume phase: pull at most one element per field per cycle, as
        // long as this cell (or the drain of the stream) still needs it.
        let mut missing_input = false;
        for port in &mut self.ports {
            if port.consumed >= self.total_cells {
                continue;
            }
            let required = if cell < self.total_cells {
                port.required_consumed(cell, self.total_cells)
            } else {
                // Drain phase: pull whatever is left of the input stream.
                self.total_cells
            };
            if port.consumed < required {
                // A failed pop is back-pressure (word not produced yet or
                // still in network flight), not a bug: record the stall and
                // retry next cycle.
                match channels[port.channel].pop(now) {
                    Ok(value) => {
                        if port.window.is_empty() {
                            port.window_base = port.consumed as i64;
                        }
                        port.window.push_back(value);
                        port.consumed += 1;
                        progress = true;
                    }
                    Err(_) => {
                        missing_input = true;
                    }
                }
            }
        }

        if cell >= self.total_cells {
            return progress;
        }

        // Are all inputs for this cell available?
        let ready = self
            .ports
            .iter()
            .all(|p| p.consumed >= p.required_consumed(cell, self.total_cells));
        if !ready {
            if missing_input {
                self.input_stalls += 1;
            }
            return progress;
        }

        // Output channels must all have space (the conditional write of the
        // compute phase).
        if !self.out_channels.iter().all(|&c| channels[c].can_push()) {
            self.output_stalls += 1;
            return progress;
        }

        // Compute the cell: resolve every pre-bound slot against the port
        // windows (with boundary predication), then run the compiled kernel
        // — through the type-specialized variant when one exists.
        let index = self.decompose(cell);
        let dtype = self.output_type;
        let mut raw_values = std::mem::take(&mut self.typed_values);
        for (tap, value) in self.slots.iter().zip(raw_values.iter_mut()) {
            let port = &self.ports[tap.port];
            let out_of_bounds = tap.checks.iter().any(|&(dim, off)| {
                let pos = index[dim] as i64 + off;
                pos < 0 || pos >= self.space.shape[dim] as i64
            });
            let raw = if out_of_bounds {
                match tap.boundary {
                    BoundaryCondition::Constant(c) => Some(c),
                    BoundaryCondition::Copy => port.value_at(cell as i64),
                }
            } else {
                port.value_at(cell as i64 + tap.linear)
            };
            *value = raw
                .expect("validated programs evaluate; missing window data indicates a wiring bug");
        }
        let value = if let Some(typed) = &self.typed {
            // Raw taps round through the unit's data type exactly as the
            // `Value` path tags them; the typed kernel then runs `Value`-free.
            for v in raw_values.iter_mut() {
                *v = Value::from_f64(*v, dtype).as_f64();
            }
            let mut scratch = std::mem::take(&mut self.typed_scratch);
            let result = typed.eval_slots(&raw_values, &mut scratch);
            self.typed_scratch = scratch;
            Value::from_f64(result, dtype).as_f64()
        } else {
            let mut values = std::mem::take(&mut self.slot_values);
            for (value, &raw) in values.iter_mut().zip(raw_values.iter()) {
                *value = Value::from_f64(raw, dtype);
            }
            let mut scratch = std::mem::take(&mut self.scratch);
            let result = self
                .kernel
                .eval_slots(&values, &mut scratch)
                .expect("validated programs evaluate; unresolved symbols indicate a wiring bug");
            self.slot_values = values;
            self.scratch = scratch;
            Value::from_f64(result.as_f64(), dtype).as_f64()
        };
        self.typed_values = raw_values;
        for &c in &self.out_channels {
            channels[c]
                .push(now, value)
                .expect("output space reserved by the can_push check above");
        }
        self.produced += 1;
        // Prune windows to their steady-state size.
        let next = self.produced;
        for port in &mut self.ports {
            port.prune(next);
        }
        true
    }

    /// Try to consume, evaluate, and produce one full lane batch
    /// (`KERNEL_LANES` consecutive cells of the innermost dimension) in this
    /// step. Returns `false` — leaving the scalar cycle path to run — when
    /// the kernel has control flow, the batch would cross a row end or
    /// touch a boundary-predicated tap, input data or output space is
    /// missing, or fewer than `KERNEL_LANES` cells remain.
    fn try_lane_batch(&mut self, now: u64, channels: &mut [Fifo]) -> bool {
        const L: usize = KERNEL_LANES;
        if !self.lane_capable {
            return false;
        }
        let cell = self.produced;
        if cell + L > self.total_cells {
            return false;
        }
        let index = self.decompose(cell);
        let rank = self.space.shape.len();
        let k = index[rank - 1];
        // The batch must stay within one innermost-dimension run so that
        // only the last index varies across lanes.
        if k + L > self.space.shape[rank - 1] {
            return false;
        }
        // Every tap of every lane must be interior: boundary predication
        // (and its Copy re-reads) keeps the scalar path.
        for tap in &self.slots {
            for &(dim, off) in &tap.checks {
                let (lo, hi) = if dim == rank - 1 {
                    (k as i64 + off, (k + L - 1) as i64 + off)
                } else {
                    let pos = index[dim] as i64 + off;
                    (pos, pos)
                };
                if lo < 0 || hi >= self.space.shape[dim] as i64 {
                    return false;
                }
            }
        }
        // Top up every window to cover the batch's trailing cell; bail if a
        // channel cannot supply it yet.
        for port in &mut self.ports {
            let required = port.required_consumed(cell + L - 1, self.total_cells);
            while port.consumed < required {
                let Ok(value) = channels[port.channel].pop(now) else {
                    return false;
                };
                if port.window.is_empty() {
                    port.window_base = port.consumed as i64;
                }
                port.window.push_back(value);
                port.consumed += 1;
            }
            // Make the window contiguous so taps gather from one slice.
            port.window.make_contiguous();
        }
        // Reserve output space for the whole batch. Bandwidth-limited
        // channels cap their per-cycle credits below a batch, so units
        // writing to them permanently fall back to the scalar path — a
        // silent fallback, not a stall: the scalar cycle does its own stall
        // accounting when it genuinely cannot push.
        if !self.out_channels.iter().all(|&c| channels[c].can_push_n(L)) {
            return false;
        }

        // Gather each tap's lanes from the contiguous window run and round
        // them through the unit's data type, exactly as the scalar path
        // tags per-cell values.
        let dtype = self.output_type;
        let mut lanes = std::mem::take(&mut self.lane_values);
        for (tap, lane_row) in self.slots.iter().zip(lanes.iter_mut()) {
            let port = &self.ports[tap.port];
            let start = (cell as i64 + tap.linear - port.window_base) as usize;
            let (window, _) = port.window.as_slices();
            for (value, &raw) in lane_row.iter_mut().zip(window[start..start + L].iter()) {
                *value = Value::from_f64(raw, dtype).as_f64();
            }
        }
        let typed = self.typed.as_ref().expect("lane_capable implies typed");
        let mut scratch = std::mem::take(&mut self.lane_scratch);
        let result = typed.eval_lanes(&lanes, &mut scratch);
        self.lane_scratch = scratch;
        self.lane_values = lanes;
        for &c in &self.out_channels {
            for &value in &result {
                channels[c]
                    .push(now, Value::from_f64(value, dtype).as_f64())
                    .expect("batch space reserved by the can_push_n check above");
            }
        }
        self.produced += L;
        let next = self.produced;
        for port in &mut self.ports {
            port.prune(next);
        }
        true
    }

    fn decompose(&self, mut flat: usize) -> Vec<usize> {
        let shape = &self.space.shape;
        let mut index = vec![0usize; shape.len()];
        for d in (0..shape.len()).rev() {
            index[d] = flat % shape[d];
            flat /= shape[d];
        }
        index
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencilflow_expr::DataType;
    use stencilflow_program::StencilProgramBuilder;

    fn simple_program() -> StencilProgram {
        StencilProgramBuilder::new("p", &[8])
            .input("a", DataType::Float32, &["i"])
            .stencil("s", "a[i-1] + a[i+1]")
            .boundary("s", "a", BoundaryCondition::Constant(0.0))
            .output("s")
            .build()
            .unwrap()
    }

    #[test]
    fn unit_streams_a_three_point_stencil() {
        let program = simple_program();
        let stencil = program.stencil("s").unwrap();
        let mut channels = vec![Fifo::new("a->s", 64), Fifo::new("s->out", 64)];
        let inputs: BTreeMap<String, usize> = [("a".to_string(), 0)].into_iter().collect();
        let mut unit = StencilUnitSim::new(&program, stencil, &inputs, vec![1]);

        // Feed the input stream 0..8 and run until done.
        let data: Vec<f64> = (0..8).map(|v| v as f64).collect();
        let mut fed = 0usize;
        for cycle in 0..200u64 {
            for c in channels.iter_mut() {
                c.begin_cycle();
            }
            if fed < data.len() && channels[0].can_push() {
                channels[0].push(cycle, data[fed]).unwrap();
                fed += 1;
            }
            unit.step(cycle, &mut channels);
            if unit.done() {
                break;
            }
        }
        assert!(unit.done());
        let outputs: Vec<f64> = (0..8).map(|_| channels[1].pop(1000).unwrap()).collect();
        // s[i] = a[i-1] + a[i+1] with constant-0 boundaries.
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
            let stencil = program.stencil("s").unwrap();
            let mut channels = vec![Fifo::new("a->s", 64), Fifo::new("s->out", 64)];
            let wiring: BTreeMap<String, usize> = [("a".to_string(), 0)].into_iter().collect();
            let mut unit = StencilUnitSim::new(&program, stencil, &wiring, vec![1]);
            assert_eq!(unit.typed.is_some(), expect_typed);
            let mut fed = 0usize;
            for cycle in 0..200u64 {
                for c in channels.iter_mut() {
                    c.begin_cycle();
                }
                if fed < data.len() && channels[0].can_push() {
                    channels[0].push(cycle, data[fed]).unwrap();
                    fed += 1;
                }
                unit.step(cycle, &mut channels);
                if unit.done() {
                    break;
                }
            }
            assert!(unit.done());
            outputs.push((0..8).map(|_| channels[1].pop(1000).unwrap()).collect());
        }
        for (a, b) in outputs[0].iter().zip(outputs[1].iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
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
            let wiring: BTreeMap<String, usize> = stencil
                .accesses
                .iter()
                .enumerate()
                .map(|(channel, (field, _))| (field.to_string(), channel))
                .collect();
            let unit = StencilUnitSim::new(&program, stencil, &wiring, vec![wiring.len()]);
            assert!(
                unit.typed.is_some(),
                "`{}` has no typed kernel",
                stencil.name
            );
            assert!(unit.lane_capable, "`{}` is not branch-free", stencil.name);
            units += 1;
        }
        assert_eq!(units, 24);
    }

    #[test]
    fn lane_batched_unit_matches_scalar_unit_bitwise() {
        // A 2-D stencil with boundary predication on both ends of the
        // innermost dimension: interior cells lane-batch (when enough data
        // is buffered), halo cells take the scalar path, and the produced
        // stream must match the scalar unit's bit for bit.
        let program = StencilProgramBuilder::new("p", &[4, 19])
            .input("a", DataType::Float32, &["i", "j"])
            .stencil("s", "0.5 * (a[i,j-1] + a[i,j+1]) - 0.25 * a[i-1,j]")
            .boundary("s", "a", BoundaryCondition::Constant(0.75))
            .output("s")
            .build()
            .unwrap();
        let stencil = program.stencil("s").unwrap();
        let total = program.space().num_cells();
        let data: Vec<f64> = (0..total)
            .map(|v| (v as f64 * 0.37) as f32 as f64)
            .collect();
        let mut outputs: Vec<Vec<f64>> = Vec::new();
        for lane_batching in [false, true] {
            let mut channels = vec![Fifo::new("a->s", 1024), Fifo::new("s->out", 1024)];
            let wiring: BTreeMap<String, usize> = [("a".to_string(), 0)].into_iter().collect();
            let mut unit = StencilUnitSim::new(&program, stencil, &wiring, vec![1])
                .with_lane_batching(lane_batching);
            assert!(unit.lane_capable);
            let mut fed = 0usize;
            for cycle in 0..10_000u64 {
                for c in channels.iter_mut() {
                    c.begin_cycle();
                }
                // Feed eagerly so the lane path has whole batches buffered.
                while fed < data.len() && channels[0].can_push() {
                    channels[0].push(cycle, data[fed]).unwrap();
                    fed += 1;
                }
                unit.step(cycle, &mut channels);
                if unit.done() {
                    break;
                }
            }
            assert!(unit.done());
            assert_eq!(unit.produced, total);
            outputs.push(
                (0..total)
                    .map(|_| channels[1].pop(1_000_000).unwrap())
                    .collect(),
            );
        }
        for (cell, (a, b)) in outputs[0].iter().zip(outputs[1].iter()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "cell {cell}: {a:?} vs {b:?}");
        }
    }

    #[test]
    fn branchy_kernels_lane_batch_after_if_conversion() {
        // A data-dependent ternary used to force the scalar path
        // (`supports_lanes` rejected the jump diamond); the if-conversion
        // pass lowers it to a select, so the unit's lane mode engages — and
        // the produced stream must still match the scalar unit bit for bit.
        let program = StencilProgramBuilder::new("p", &[4, 19])
            .input("a", DataType::Float32, &["i", "j"])
            .stencil(
                "s",
                "d = a[i,j] - a[i,j-1]; d > 0.0 ? d * a[i,j+1] : -d * a[i,j]",
            )
            .boundary("s", "a", BoundaryCondition::Constant(0.25))
            .output("s")
            .build()
            .unwrap();
        let stencil = program.stencil("s").unwrap();
        let total = program.space().num_cells();
        let data: Vec<f64> = (0..total)
            .map(|v| ((v as f64 * 0.61 - 11.0) as f32) as f64)
            .collect();
        let mut outputs: Vec<Vec<f64>> = Vec::new();
        for lane_batching in [false, true] {
            let mut channels = vec![Fifo::new("a->s", 1024), Fifo::new("s->out", 1024)];
            let wiring: BTreeMap<String, usize> = [("a".to_string(), 0)].into_iter().collect();
            let mut unit = StencilUnitSim::new(&program, stencil, &wiring, vec![1])
                .with_lane_batching(lane_batching);
            assert!(
                unit.lane_capable,
                "if-converted ternary kernels must support lanes"
            );
            let mut fed = 0usize;
            for cycle in 0..10_000u64 {
                for c in channels.iter_mut() {
                    c.begin_cycle();
                }
                while fed < data.len() && channels[0].can_push() {
                    channels[0].push(cycle, data[fed]).unwrap();
                    fed += 1;
                }
                unit.step(cycle, &mut channels);
                if unit.done() {
                    break;
                }
            }
            assert!(unit.done());
            outputs.push(
                (0..total)
                    .map(|_| channels[1].pop(1_000_000).unwrap())
                    .collect(),
            );
        }
        for (cell, (a, b)) in outputs[0].iter().zip(outputs[1].iter()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "cell {cell}: {a:?} vs {b:?}");
        }
    }

    #[test]
    fn unit_stalls_without_input_and_counts_it() {
        let program = simple_program();
        let stencil = program.stencil("s").unwrap();
        let mut channels = vec![Fifo::new("a->s", 4), Fifo::new("s->out", 4)];
        let inputs: BTreeMap<String, usize> = [("a".to_string(), 0)].into_iter().collect();
        let mut unit = StencilUnitSim::new(&program, stencil, &inputs, vec![1]);
        for c in channels.iter_mut() {
            c.begin_cycle();
        }
        // No input available: no progress, and the stall is recorded.
        assert!(!unit.step(0, &mut channels));
        assert!(unit.input_stalls > 0);
    }

    #[test]
    fn unit_blocks_on_full_output_channel() {
        let program = simple_program();
        let stencil = program.stencil("s").unwrap();
        // Output channel of capacity 1.
        let mut channels = vec![Fifo::new("a->s", 64), Fifo::new("s->out", 1)];
        let inputs: BTreeMap<String, usize> = [("a".to_string(), 0)].into_iter().collect();
        let mut unit = StencilUnitSim::new(&program, stencil, &inputs, vec![1]);
        for cycle in 0..20u64 {
            for c in channels.iter_mut() {
                c.begin_cycle();
            }
            if channels[0].can_push() {
                channels[0].push(cycle, cycle as f64).unwrap();
            }
            unit.step(cycle, &mut channels);
        }
        // Only one output fits; the unit must have stalled on output.
        assert_eq!(channels[1].len(), 1);
        assert!(unit.output_stalls > 0);
        assert!(unit.produced <= 2);
    }
}
