//! The value-carrying cycle loop the simulator ran before timing and values
//! were split, kept as the test oracle of the split engine.
//!
//! Every word is a real `f64` travelling through a [`Fifo`]; every unit
//! keeps a sliding window per input field and evaluates one cell per
//! [`StencilUnitSim::step`] through the scalar kernel, each tap carrying its
//! own field's type as in the interpreter. [`simulate`] is the old
//! `Simulator::build` + `Simulator::run` in one function: the engine in
//! [`crate::simulator`] — a token loop whose outputs are the reference
//! executor's — must return the same [`SimReport`] (outcome, cycle count,
//! every statistic and every output bit) on any program, plan and
//! configuration. Its wiring is the old name-keyed one ([`named_wiring`]);
//! the simulator wires from the `HardwareMapping`, and its tests compare
//! the two.

use crate::config::SimConfig;
use crate::memory::MemoryModel;
use crate::report::{ChannelStats, SimOutcome, SimReport, UnitStats};
use std::collections::{BTreeMap, VecDeque};
use stencilflow_core::channel::Fifo;
use stencilflow_core::{AnalysisConfig, DelayBufferAnalysis};
use stencilflow_core::{MultiDevicePlan, Result as CoreResult};
use stencilflow_expr::{CompiledKernel, EvalScratch, TypedKernel, TypedScratch, Value};
use stencilflow_program::{
    BoundaryCondition, IterationSpace, StencilDag, StencilNode, StencilProgram,
};
use stencilflow_reference::{Grid, ReferenceExecutor};

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
        // Keep everything that can still be accessed by this or later
        // cells — the centre cell included, which a `Copy` boundary reads
        // even when every tap of the field points forward. (The loop as it
        // shipped pruned the centre then and panicked on such a program;
        // this is its only change here besides losing the lane mode.)
        let keep_from = cell as i64 + self.min_lin.min(0);
        while self.window_base < keep_from && self.window.len() > 1 {
            self.window.pop_front();
            self.window_base += 1;
        }
    }
}

/// One pre-bound access of the unit's compiled kernel: which port it taps,
/// at which linearized offset, the per-dimension bounds checks for boundary
/// predication, and the element type of the field it reads.
#[derive(Debug)]
struct WindowTap {
    /// Index into `StencilUnitSim::ports`.
    port: usize,
    /// Element type of the tapped field: the type its value carries into
    /// the kernel, as in the interpreter.
    dtype: stencilflow_expr::DataType,
    /// Linearized (memory-order) offset of the access.
    linear: i64,
    /// `(dimension, offset)` pairs to bounds-check.
    checks: Vec<(usize, i64)>,
    /// Boundary condition applied when a check fails.
    boundary: BoundaryCondition,
}

/// A simulated stencil unit.
#[derive(Debug)]
pub(crate) struct StencilUnitSim {
    /// Stencil name.
    pub name: String,
    space: IterationSpace,
    ports: Vec<FieldPort>,
    /// Compiled code segment; evaluated once per produced cell through
    /// pre-bound window taps (`slots`) instead of the tree-walking
    /// evaluator.
    kernel: CompiledKernel,
    /// Type-specialized kernel (each tap carries its field's type):
    /// evaluates window taps on raw `f64`s with no `Value` tagging.
    typed: Option<TypedKernel>,
    slots: Vec<WindowTap>,
    slot_values: Vec<Value>,
    typed_values: Vec<f64>,
    scratch: EvalScratch,
    typed_scratch: TypedScratch,
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
    /// channel index (in access order) and the output to `out_channels`.
    pub(crate) fn new(
        program: &StencilProgram,
        stencil: &StencilNode,
        input_channels: &[usize],
        out_channels: Vec<usize>,
    ) -> Self {
        let space = program.space().clone();
        let mut ports = Vec::new();
        for ((field, info), &channel) in stencil.accesses.iter().zip(input_channels) {
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
            let dtype = program
                .field_type(&slot.field)
                .unwrap_or_else(|| panic!("field `{}` has no type", slot.field));
            slots.push(WindowTap {
                port,
                dtype,
                linear: space.linearize_offset(&full_offset),
                checks,
                boundary: stencil.boundary.condition_for(&slot.field),
            });
        }
        let slot_values = vec![Value::F64(0.0); slots.len()];
        let typed_values = vec![0.0; slots.len()];
        // Every tap carries its own field's type.
        let slot_types: Vec<_> = slots.iter().map(|tap| tap.dtype).collect();
        let typed = kernel.specialize(&slot_types);

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
            output_type: stencil.output_type,
            out_channels,
            produced: 0,
            total_cells: space.num_cells(),
            input_stalls: 0,
            output_stalls: 0,
        }
    }

    /// Attempt one cycle of work; returns `true` if any progress was made.
    pub(crate) fn step(&mut self, now: u64, channels: &mut [Fifo]) -> bool {
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
            // Raw taps round through their field's type exactly as the
            // `Value` path tags them; the typed kernel then runs `Value`-free.
            for (v, tap) in raw_values.iter_mut().zip(&self.slots) {
                *v = Value::from_f64(*v, tap.dtype).as_f64();
            }
            let mut scratch = std::mem::take(&mut self.typed_scratch);
            let result = typed.eval_slots(&raw_values, &mut scratch);
            self.typed_scratch = scratch;
            Value::from_f64(result, dtype).as_f64()
        } else {
            let mut values = std::mem::take(&mut self.slot_values);
            for ((value, &raw), tap) in values.iter_mut().zip(&raw_values).zip(&self.slots) {
                *value = Value::from_f64(raw, tap.dtype);
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

/// A dedicated prefetcher reading one input field from off-chip memory and
/// broadcasting it, one element per output cell, to all consumers.
#[derive(Debug)]
pub(crate) struct ReaderUnit {
    /// Field name.
    pub field: String,
    /// Values streamed per cell (pre-projected from the input grid).
    values: Vec<f64>,
    /// Indices of the outgoing channels in the simulator's channel table.
    pub out_channels: Vec<usize>,
    /// Whether this reader draws from the off-chip bandwidth budget
    /// (full-domain fields only).
    pub uses_bandwidth: bool,
    /// Elements pushed so far.
    pub produced: usize,
    /// Cycles spent unable to push.
    pub stall_cycles: u64,
}

impl ReaderUnit {
    /// Build a reader by projecting `grid` onto the full iteration space:
    /// element `c` of the stream is the grid value the stencils expect at
    /// cell `c` (lower-dimensional fields repeat values).
    pub(crate) fn new(
        field: &str,
        grid: &Grid,
        space: &IterationSpace,
        out_channels: Vec<usize>,
        uses_bandwidth: bool,
    ) -> Self {
        let mut values = Vec::with_capacity(space.num_cells());
        for index in space.indices() {
            let projected: Vec<usize> = grid
                .dims()
                .iter()
                .map(|d| space.dim_index(d).map(|ix| index[ix]).unwrap_or(0))
                .collect();
            values.push(grid.get(&projected));
        }
        ReaderUnit {
            field: field.to_string(),
            values,
            out_channels,
            uses_bandwidth,
            produced: 0,
            stall_cycles: 0,
        }
    }

    /// Whether the reader has streamed its whole field.
    pub(crate) fn done(&self) -> bool {
        self.produced >= self.values.len()
    }

    /// Attempt one cycle of work; returns `true` if progress was made.
    pub(crate) fn step(
        &mut self,
        now: u64,
        channels: &mut [Fifo],
        memory: &mut MemoryModel,
    ) -> bool {
        if self.done() {
            return false;
        }
        if !self.out_channels.iter().all(|&c| channels[c].can_push()) {
            self.stall_cycles += 1;
            return false;
        }
        if self.uses_bandwidth && !memory.request_word() {
            self.stall_cycles += 1;
            return false;
        }
        let value = self.values[self.produced];
        for &c in &self.out_channels {
            channels[c]
                .push(now, value)
                .expect("output space reserved by the can_push check above");
        }
        self.produced += 1;
        true
    }
}

/// A dedicated writer draining one program output to off-chip memory.
#[derive(Debug)]
pub(crate) struct WriterUnit {
    /// Output field name.
    pub field: String,
    /// Index of the incoming channel.
    pub in_channel: usize,
    /// Collected output values (row-major over the iteration space).
    pub values: Vec<f64>,
    /// Total number of cells expected.
    pub expected: usize,
    /// Cycles spent waiting for data or bandwidth.
    pub stall_cycles: u64,
}

impl WriterUnit {
    /// Create a writer expecting `expected` elements.
    pub(crate) fn new(field: &str, in_channel: usize, expected: usize) -> Self {
        WriterUnit {
            field: field.to_string(),
            in_channel,
            values: Vec::with_capacity(expected),
            expected,
            stall_cycles: 0,
        }
    }

    /// Whether all output cells have been received.
    pub(crate) fn done(&self) -> bool {
        self.values.len() >= self.expected
    }

    /// Attempt one cycle of work; returns `true` if progress was made.
    pub(crate) fn step(
        &mut self,
        now: u64,
        channels: &mut [Fifo],
        memory: &mut MemoryModel,
    ) -> bool {
        if self.done() {
            return false;
        }
        if !channels[self.in_channel].can_pop(now) {
            self.stall_cycles += 1;
            return false;
        }
        if !memory.request_word() {
            self.stall_cycles += 1;
            return false;
        }
        let value = channels[self.in_channel]
            .pop(now)
            .expect("word availability established by the can_pop check above");
        self.values.push(value);
        true
    }
}

/// The design's wiring, by name: per channel, in delay-buffer order,
/// `from->to` and its shape (capacity, link latency, link words per
/// cycle); per read input, in name order, its name and the channels it
/// feeds; per stencil, in topological order, its name, its channel per
/// accessed field and the channels it feeds; per program output, in
/// declaration order, its name and the channel into its memory.
pub(crate) struct NamedWiring {
    pub(crate) channels: Vec<(String, (usize, u64, f64))>,
    pub(crate) readers: Vec<(String, Vec<usize>)>,
    pub(crate) units: Vec<(String, Vec<usize>, Vec<usize>)>,
    pub(crate) writers: Vec<(String, usize)>,
}

/// Wire the design of `program` (partitioned by `plan`, if any) by name,
/// sizing each channel from the delay buffers as the simulator did.
pub(crate) fn named_wiring(
    program: &StencilProgram,
    analysis: &AnalysisConfig,
    plan: Option<&MultiDevicePlan>,
    config: &SimConfig,
) -> CoreResult<NamedWiring> {
    let kept = stencilflow_core::analyze(program, analysis)?;
    let planned = (plan
        .map(|plan| DelayBufferAnalysis::compute(program, &kept.internal, analysis, Some(plan))))
    .transpose()?;
    let delay = planned.as_ref().unwrap_or(&kept.delay);
    let dag = program.dag();

    let mut channels = Vec::new();
    let mut channel_index: BTreeMap<(String, String), usize> = BTreeMap::new();
    for channel in delay.channels() {
        let (from, to) = (dag.name(channel.from), dag.name(channel.to));
        let remote = plan.filter(|plan| plan.is_remote(channel.from, channel.to));
        let link = remote.map(|plan| &plan.config);
        let latency = link.map_or(0, |link| link.link_latency_cycles);
        let words_per_cycle = link.map_or(f64::INFINITY, |link| link.link_words_per_cycle);
        let held = (program.stencil(from)).map_or(0, |s| s.compute_latency(&analysis.latencies));
        let on_chip = (config.channel_depth_override).unwrap_or(channel.depth_words + held);
        let shape = (
            (on_chip.max(1) + latency) as usize,
            latency,
            words_per_cycle,
        );
        channel_index.insert((from.to_string(), to.to_string()), channels.len());
        channels.push((format!("{from}->{to}"), shape));
    }
    let outs_of = |name: &str| -> Vec<usize> {
        channel_index
            .iter()
            .filter(|((from, _), _)| from == name)
            .map(|(_, &idx)| idx)
            .collect()
    };
    let channel_between = |from: &str, to: &str| channel_index[&(from.into(), to.into())];

    let readers = (program.inputs())
        .map(|(name, _)| (name.to_string(), outs_of(name)))
        .filter(|(_, outs)| !outs.is_empty())
        .collect();
    let mut units = Vec::new();
    for name in program.topological_stencils()? {
        let stencil = program.stencil(name).expect("topological order is valid");
        let ins = (stencil.accesses.iter())
            .map(|(field, _)| channel_between(field, name))
            .collect();
        units.push((name.clone(), ins, outs_of(name)));
    }
    let writers = (program.outputs().iter())
        .map(|output| {
            let sink = StencilDag::output_node_name(output);
            (output.clone(), channel_between(output, &sink))
        })
        .collect();
    Ok(NamedWiring {
        channels,
        readers,
        units,
        writers,
    })
}

/// Build the design of `program` (partitioned by `plan`, if any) and run it
/// on `inputs`, cycle by cycle, carrying every value.
pub(crate) fn simulate(
    program: &StencilProgram,
    analysis: &AnalysisConfig,
    plan: Option<&MultiDevicePlan>,
    config: &SimConfig,
    inputs: &BTreeMap<String, Grid>,
) -> CoreResult<SimReport> {
    let wiring = named_wiring(program, analysis, plan, config)?;
    let mut channels: Vec<Fifo> = Vec::new();
    for (name, (capacity, latency, words_per_cycle)) in wiring.channels {
        let mut fifo = Fifo::new(&name, capacity).with_latency(latency);
        if words_per_cycle.is_finite() {
            fifo = fifo.with_bandwidth(words_per_cycle);
        }
        channels.push(fifo);
    }

    let space = program.space();
    let total_cells = space.num_cells();
    ReferenceExecutor::check_inputs(program, inputs)?;

    // Readers: one per program input that anything reads.
    let full_rank = space.rank();
    let mut readers: Vec<ReaderUnit> = Vec::new();
    for (name, outs) in wiring.readers {
        let full_domain = program.input(&name).expect("an input").rank() == full_rank;
        readers.push(ReaderUnit::new(
            &name,
            &inputs[&name],
            space,
            outs,
            full_domain,
        ));
    }

    // Stencil units, in topological order.
    let mut units: Vec<StencilUnitSim> = Vec::new();
    for (name, ins, outs) in wiring.units {
        let stencil = program.stencil(&name).expect("a stencil");
        units.push(StencilUnitSim::new(program, stencil, &ins, outs));
    }

    // Writers: one per program output.
    let mut writers: Vec<WriterUnit> = (wiring.writers.iter())
        .map(|(output, channel)| WriterUnit::new(output, *channel, total_cells))
        .collect();

    // Main loop.
    let mut memory = MemoryModel::new(config.memory_words_per_cycle);
    let mut cycles: u64 = 0;
    let mut idle_cycles: u64 = 0;
    let outcome = loop {
        if writers.iter().all(WriterUnit::done) {
            break SimOutcome::Completed;
        }
        if cycles >= config.max_cycles {
            break SimOutcome::MaxCyclesExceeded;
        }
        memory.begin_cycle();
        for channel in channels.iter_mut() {
            channel.begin_cycle();
        }
        let mut progress = false;
        for reader in readers.iter_mut() {
            progress |= reader.step(cycles, &mut channels, &mut memory);
        }
        for unit in units.iter_mut() {
            progress |= unit.step(cycles, &mut channels);
        }
        for writer in writers.iter_mut() {
            progress |= writer.step(cycles, &mut channels, &mut memory);
        }
        if progress {
            idle_cycles = 0;
        } else {
            idle_cycles += 1;
            if idle_cycles >= config.deadlock_window {
                break SimOutcome::Deadlocked;
            }
        }
        cycles += 1;
    };

    // Collect outputs.
    let dim_refs: Vec<&str> = space.dims.iter().map(String::as_str).collect();
    let mut outputs = BTreeMap::new();
    if outcome == SimOutcome::Completed {
        for writer in &writers {
            let dtype = program
                .field_type(&writer.field)
                .unwrap_or(stencilflow_expr::DataType::Float32);
            let mut grid = Grid::zeros(&dim_refs, &space.shape, dtype);
            for (flat, index) in space.indices().enumerate() {
                grid.set(&index, writer.values[flat]);
            }
            outputs.insert(writer.field.clone(), grid);
        }
    }

    // Statistics.
    let mut unit_stats = Vec::new();
    for reader in &readers {
        unit_stats.push(UnitStats {
            name: format!("read:{}", reader.field),
            produced: reader.produced,
            input_stalls: 0,
            output_stalls: reader.stall_cycles,
        });
    }
    for unit in &units {
        unit_stats.push(UnitStats {
            name: unit.name.clone(),
            produced: unit.produced,
            input_stalls: unit.input_stalls,
            output_stalls: unit.output_stalls,
        });
    }
    for writer in &writers {
        unit_stats.push(UnitStats {
            name: format!("write:{}", writer.field),
            produced: writer.values.len(),
            input_stalls: writer.stall_cycles,
            output_stalls: 0,
        });
    }
    let channel_stats = channels
        .iter()
        .map(|c| ChannelStats {
            name: c.name().to_string(),
            capacity: c.capacity(),
            high_watermark: c.high_watermark(),
            words: c.pushed_total(),
        })
        .collect();

    Ok(SimReport {
        outcome,
        cycles,
        outputs,
        unit_stats,
        channel_stats,
        memory_words: memory.total_words(),
        memory_stalls: memory.stalled_requests(),
    })
}

/// Panic unless the two reports agree in every field: outcome, cycles,
/// every unit's and channel's statistics, the memory counters, and the
/// output grids bit for bit.
pub(crate) fn assert_same_report(ours: &SimReport, theirs: &SimReport) {
    assert_eq!(ours.outcome, theirs.outcome);
    assert_eq!(ours.cycles, theirs.cycles);
    assert_eq!(ours.unit_stats, theirs.unit_stats);
    assert_eq!(ours.channel_stats, theirs.channel_stats);
    assert_eq!(ours.memory_words, theirs.memory_words);
    assert_eq!(ours.memory_stalls, theirs.memory_stalls);
    let names = |report: &SimReport| report.outputs.keys().cloned().collect::<Vec<_>>();
    assert_eq!(names(ours), names(theirs));
    for (name, grid) in &ours.outputs {
        assert_same_grid(name, grid, &theirs.outputs[name]);
    }
}

/// Panic unless the two grids of field `name` agree in dimensions, shape,
/// element type and every bit.
pub(crate) fn assert_same_grid(name: &str, ours: &Grid, theirs: &Grid) {
    assert_eq!(ours.dims(), theirs.dims(), "`{name}`");
    assert_eq!(ours.shape(), theirs.shape(), "`{name}`");
    assert_eq!(ours.data_type(), theirs.data_type(), "`{name}`");
    for (cell, (a, b)) in ours.as_slice().iter().zip(theirs.as_slice()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "`{name}`, cell {cell}: {a:?} vs {b:?}"
        );
    }
}

mod tests {
    use super::*;
    use crate::simulator::Simulator;
    use stencilflow_core::PartitionConfig;
    use stencilflow_reference::generate_inputs;
    use stencilflow_workloads::random_dag;

    /// Run the split engine and the oracle loop on the same design and
    /// require the same report; also return how many of the report's cycles
    /// the engine stepped rather than jumped over.
    fn both_stepped(
        program: &StencilProgram,
        plan: Option<&MultiDevicePlan>,
        config: &SimConfig,
        inputs: &BTreeMap<String, Grid>,
    ) -> (SimReport, u64) {
        let analysis = AnalysisConfig::paper_defaults();
        let simulator = match plan {
            Some(plan) => Simulator::build_multi_device(program, &analysis, plan, config),
            None => Simulator::build(program, &analysis, config),
        }
        .unwrap();
        let ours = simulator.run(inputs).unwrap();
        let theirs = simulate(program, &analysis, plan, config, inputs).unwrap();
        assert_same_report(&ours, &theirs);
        let (outcome, cycles, stepped) = simulator.timing();
        assert_eq!((outcome, cycles), (ours.outcome, ours.cycles));
        assert!(stepped <= cycles);
        (ours, stepped)
    }

    fn both(
        program: &StencilProgram,
        plan: Option<&MultiDevicePlan>,
        config: &SimConfig,
        inputs: &BTreeMap<String, Grid>,
    ) -> SimReport {
        both_stepped(program, plan, config, inputs).0
    }

    #[test]
    fn split_engine_matches_the_value_carrying_loop_on_random_programs() {
        let mut outcomes = BTreeMap::new();
        for seed in 0..64u64 {
            let program = random_dag(seed);
            let inputs = generate_inputs(&program, seed);
            let devices = PartitionConfig::devices(program.stencil_count().min(2));
            let plan = MultiDevicePlan::partition(&program, &devices).unwrap();
            let slow_links = PartitionConfig {
                link_latency_cycles: 7,
                link_words_per_cycle: 0.75,
                ..devices
            };
            let slow_plan = MultiDevicePlan::partition(&program, &slow_links).unwrap();
            let default = both(&program, None, &SimConfig::default(), &inputs);
            assert!(default.completed(), "seed {seed}");
            let memory = |words_per_cycle| SimConfig {
                memory_words_per_cycle: Some(words_per_cycle),
                ..SimConfig::default()
            };
            let configs = [
                (Some(&plan), SimConfig::default()),
                (Some(&slow_plan), SimConfig::default()),
                (None, memory(0.5)),
                (None, memory(1.5)),
                (
                    None,
                    SimConfig {
                        deadlock_window: 40,
                        ..SimConfig::with_minimal_channels()
                    },
                ),
                (
                    None,
                    SimConfig {
                        max_cycles: default.cycles * 2 / 3,
                        ..SimConfig::default()
                    },
                ),
            ];
            for (plan, config) in &configs {
                let report = both(&program, *plan, config, &inputs);
                assert_eq!(report.completed(), !report.outputs.is_empty());
                *outcomes.entry(format!("{:?}", report.outcome)).or_insert(0) += 1;
            }
        }
        // The sweep is not vacuous: every way a run can end occurs.
        assert!(outcomes["Completed"] >= 5 * 64 / 2, "{outcomes:?}");
        assert!(outcomes["Deadlocked"] >= 1, "{outcomes:?}");
        assert_eq!(outcomes["MaxCyclesExceeded"], 64, "{outcomes:?}");
    }

    #[test]
    fn split_engine_matches_the_value_carrying_loop_on_the_paper_programs() {
        // Listing 1 (a lower-rank input, a fork and a join) and horizontal
        // diffusion (mixed-width kernels, 1-D coefficient fields), on one
        // device and on four.
        use stencilflow_workloads::{
            horizontal_diffusion, listing1::listing1_with_shape, HorizontalDiffusionSpec,
        };
        let programs = [
            listing1_with_shape(&[6, 6, 6]),
            horizontal_diffusion(&HorizontalDiffusionSpec::small()),
        ];
        for program in &programs {
            let inputs = generate_inputs(program, 5);
            let plan = MultiDevicePlan::partition(program, &PartitionConfig::devices(4)).unwrap();
            let (single, single_stepped) =
                both_stepped(program, None, &SimConfig::default(), &inputs);
            let (multi, multi_stepped) =
                both_stepped(program, Some(&plan), &SimConfig::default(), &inputs);
            assert!(single.completed() && multi.completed());
            // Linear stretches are jumped: fewer than one cycle in ten is
            // stepped (listing 1: 9 of 288 and 22 of 688; horizontal
            // diffusion: 62 of 1280 and 100 of 1880).
            assert!(single_stepped * 10 < single.cycles, "{single_stepped}");
            assert!(multi_stepped * 10 < multi.cycles, "{multi_stepped}");
            let starved = both(program, None, &SimConfig::with_minimal_channels(), &inputs);
            assert_eq!(starved.outcome, SimOutcome::Deadlocked);
        }
    }

    #[test]
    fn jumps_stop_where_the_loop_decides() {
        use stencilflow_expr::DataType;
        use stencilflow_program::{BoundaryCondition, StencilProgramBuilder};
        use stencilflow_workloads::{chain_program, listing1::listing1_with_shape, ChainSpec};
        // A latency-200 link between two devices: its words fill the link
        // while the first is in flight, stream one in one out, and drain.
        // On 64 cells the producer is done before the first word lands, so
        // the link only fills and drains.
        for shape in [[4, 4, 4], [16, 8, 8]] {
            let program = chain_program(&ChainSpec::new(2, 8).with_shape(&shape));
            let inputs = generate_inputs(&program, 7);
            let plan = MultiDevicePlan::partition(&program, &PartitionConfig::devices(2)).unwrap();
            let (report, stepped) =
                both_stepped(&program, Some(&plan), &SimConfig::default(), &inputs);
            assert!(report.completed());
            assert!(report.cycles > 200 + program.space().num_cells() as u64);
            assert!(stepped * 10 < report.cycles, "{shape:?}: {stepped}");
        }

        // A channel fills to its capacity while its consumer waits for
        // another port's window (`b[i+4,j]` is 65 words ahead of the cell).
        let program = StencilProgramBuilder::new("lopsided", &[16, 16])
            .input("a", DataType::Float32, &["i", "j"])
            .input("b", DataType::Float32, &["i", "j"])
            .stencil("s", "a[i,j] + b[i+4,j]")
            .boundary("s", "b", BoundaryCondition::Constant(0.0))
            .output("s")
            .build()
            .unwrap();
        let inputs = generate_inputs(&program, 2);
        let config = SimConfig {
            channel_depth_override: Some(16),
            ..SimConfig::default()
        };
        let (report, stepped) = both_stepped(&program, None, &config, &inputs);
        assert!(report.completed());
        let a = report.channel_stats.iter().find(|c| c.name == "a->s");
        assert_eq!(a.unwrap().high_watermark, 16);
        assert!(stepped * 10 < report.cycles, "{stepped}");

        // Unit-depth channels deadlock (Fig. 4): the idle stretch is jumped
        // up to the deadlock window.
        let program = listing1_with_shape(&[6, 6, 6]);
        let inputs = generate_inputs(&program, 3);
        let config = SimConfig::with_minimal_channels();
        let (report, stepped) = both_stepped(&program, None, &config, &inputs);
        assert_eq!(report.outcome, SimOutcome::Deadlocked);
        assert!(report.cycles > config.deadlock_window);
        assert!(stepped < 100, "{stepped}");

        // The cycle limit falls inside a linear stretch of streaming.
        let program = chain_program(&ChainSpec::new(3, 8).with_shape(&[16, 8, 8]));
        let inputs = generate_inputs(&program, 4);
        let config = SimConfig {
            max_cycles: 700,
            ..SimConfig::default()
        };
        let (report, stepped) = both_stepped(&program, None, &config, &inputs);
        assert_eq!(report.outcome, SimOutcome::MaxCyclesExceeded);
        assert_eq!(report.cycles, 700);
        assert!(stepped < 70, "{stepped}");
    }
}
