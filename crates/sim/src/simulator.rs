//! The top-level simulator: builds the spatial design from a program and its
//! buffering analysis once, then runs it on concrete inputs in two passes
//! (see the crate documentation for why the split is exact): a cycle loop
//! over count machines that yields the timing, and — only if the design ran
//! to completion — one bulk evaluation of every unit's output stream, in
//! topological order, that yields the values.

use crate::channel::TokenChannel;
use crate::config::SimConfig;
use crate::memory::{input_stream, MemoryModel, WriterUnit};
use crate::report::{ChannelStats, SimOutcome, SimReport, UnitStats};
use crate::unit::{FieldKernel, StencilUnit};
use std::borrow::Cow;
use std::collections::BTreeMap;
use stencilflow_core::{AnalysisConfig, CoreError, DelayBufferAnalysis, InternalBufferAnalysis};
use stencilflow_core::{MultiDevicePlan, Result as CoreResult};
use stencilflow_expr::DataType;
use stencilflow_program::{IterationSpace, ProgramError, StencilDag, StencilProgram};
use stencilflow_reference::Grid;

/// The count machines of a design. The simulator holds them in their
/// initial state; every run steps a copy.
#[derive(Debug, Clone)]
struct Machines {
    channels: Vec<TokenChannel>,
    /// One reader per program input that is read at all, then the stencil
    /// units in topological order. Unit `u` produces stream `u`.
    units: Vec<StencilUnit>,
    /// One writer per program output.
    writers: Vec<WriterUnit>,
}

/// One step of the functional pass: the datapath of a stencil unit.
#[derive(Debug)]
struct Stage {
    kernel: FieldKernel,
    /// The stream read through each port.
    sources: Vec<usize>,
    /// Element type of the output grid, if the field is a program output.
    output: Option<DataType>,
}

/// A declared program input.
#[derive(Debug)]
struct InputField {
    name: String,
    rank: usize,
    /// Whether any stencil reads it, i.e. whether it has a reader unit.
    read: bool,
}

/// A spatial design ready to be simulated on concrete input data.
#[derive(Debug)]
pub struct Simulator {
    config: SimConfig,
    space: IterationSpace,
    inputs: Vec<InputField>,
    machines: Machines,
    /// `from->to`, in `DelayBufferAnalysis` order.
    channel_names: Vec<String>,
    /// `read:<field>`, stencils, `write:<field>`: the order of
    /// `SimReport::unit_stats`.
    unit_names: Vec<String>,
    /// One stage per stencil unit (the units after the readers).
    stages: Vec<Stage>,
    /// Per stream, the last unit reading it: the stream is dropped after
    /// that unit's stage, so live memory follows the DAG's width, not its
    /// size.
    last_reader: Vec<Option<usize>>,
}

fn internal(message: String) -> CoreError {
    CoreError::Internal { message }
}

fn invalid(message: String) -> CoreError {
    CoreError::Program(ProgramError::Invalid { message })
}

impl Simulator {
    /// Build the single-device design for `program`, using the delay-buffer
    /// analysis to size every channel.
    ///
    /// # Errors
    ///
    /// Returns an error if the program DAG is invalid.
    pub fn build(
        program: &StencilProgram,
        analysis: &AnalysisConfig,
        config: &SimConfig,
    ) -> CoreResult<Self> {
        Self::build_inner(program, analysis, config, None)
    }

    /// Build a design partitioned across multiple devices: channels crossing
    /// device boundaries become network channels with the configured latency
    /// and bandwidth (the SMI substitute).
    ///
    /// # Errors
    ///
    /// Returns an error if the program DAG is invalid or the plan does not
    /// cover all stencils.
    pub fn build_multi_device(
        program: &StencilProgram,
        analysis: &AnalysisConfig,
        plan: &MultiDevicePlan,
        config: &SimConfig,
    ) -> CoreResult<Self> {
        Self::build_inner(program, analysis, config, Some(plan))
    }

    fn build_inner(
        program: &StencilProgram,
        analysis: &AnalysisConfig,
        config: &SimConfig,
        plan: Option<&MultiDevicePlan>,
    ) -> CoreResult<Self> {
        let internal_buffers = InternalBufferAnalysis::compute(program, analysis)?;
        let delay = DelayBufferAnalysis::compute(program, &internal_buffers, analysis)?;
        let space = program.space();
        let total_cells = space.num_cells();

        // Device assignment for network-channel classification.
        let mut device_of: BTreeMap<&str, usize> = BTreeMap::new();
        for partition in plan.iter().flat_map(|plan| &plan.devices) {
            for stencil in &partition.stencils {
                device_of.insert(stencil, partition.index);
            }
        }

        let mut channels = Vec::new();
        let mut channel_names = Vec::new();
        let mut channel_index: BTreeMap<(&str, &str), usize> = BTreeMap::new();
        for channel in delay.channels() {
            let (from, to) = (channel.from.as_str(), channel.to.as_str());
            let depth = config
                .channel_depth_override
                .unwrap_or(channel.depth_words.max(1) + config.extra_channel_slack);
            let crosses_devices = match (device_of.get(from), device_of.get(to)) {
                (Some(a), Some(b)) => a != b,
                _ => false,
            };
            let (latency, words_per_cycle) = if crosses_devices {
                (
                    config.network.latency_cycles,
                    config.network.words_per_cycle,
                )
            } else {
                (0, f64::INFINITY)
            };
            // A network channel also holds the words in flight.
            let capacity = (depth.max(1) + latency) as usize;
            channel_index.insert((from, to), channels.len());
            channels.push(TokenChannel::new(capacity, latency, words_per_cycle));
            channel_names.push(format!("{from}->{to}"));
        }
        let channel_between = |from: &str, to: &str| {
            let channel = channel_index.get(&(from, to)).copied();
            channel.ok_or_else(|| internal(format!("no channel from `{from}` to `{to}`")))
        };
        let mut fan_out: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (&(from, _), &channel) in &channel_index {
            fan_out.entry(from).or_default().push(channel);
        }

        // Readers: one per program input that anything reads. Only
        // full-domain fields draw from the off-chip budget.
        let mut inputs = Vec::new();
        let mut units = Vec::new();
        let mut unit_names = Vec::new();
        let mut stream_of: BTreeMap<&str, usize> = BTreeMap::new();
        for (name, decl) in program.inputs() {
            let outs = fan_out.remove(name);
            inputs.push(InputField {
                name: name.to_string(),
                rank: decl.rank(),
                read: outs.is_some(),
            });
            if let Some(outs) = outs {
                let full_domain = decl.rank() == space.rank();
                stream_of.insert(name, units.len());
                units.push(StencilUnit::reader(outs, full_domain, total_cells));
                unit_names.push(format!("read:{name}"));
            }
        }

        // Stencil units, control and datapath, in topological order.
        let mut stages = Vec::new();
        let mut last_reader = vec![None; units.len()];
        let order = program.topological_stencils()?;
        for name in &order {
            let stencil = program
                .stencil(name)
                .ok_or_else(|| internal(format!("`{name}` is ordered but not a stencil")))?;
            let mut in_channels = Vec::new();
            let mut sources = Vec::new();
            for (field, _) in stencil.accesses.iter() {
                let source = *stream_of.get(field).ok_or_else(|| {
                    internal(format!("`{name}` reads `{field}` before it exists"))
                })?;
                in_channels.push(channel_between(field, name)?);
                sources.push(source);
                last_reader[source] = Some(units.len());
            }
            let outs = fan_out.remove(name.as_str()).unwrap_or_default();
            stream_of.insert(name, units.len());
            units.push(StencilUnit::new(space, stencil, &in_channels, outs));
            unit_names.push(name.clone());
            last_reader.push(None);
            stages.push(Stage {
                kernel: FieldKernel::new(space, stencil)?,
                sources,
                output: None,
            });
        }

        // Writers: one per program output.
        let first_stage = units.len() - stages.len();
        let mut writers = Vec::new();
        for output in program.outputs() {
            let sink = StencilDag::output_node_name(output);
            writers.push(WriterUnit::new(
                channel_between(output, &sink)?,
                total_cells,
            ));
            unit_names.push(format!("write:{output}"));
            let stage = stream_of
                .get(output.as_str())
                .and_then(|unit| unit.checked_sub(first_stage))
                .ok_or_else(|| internal(format!("output `{output}` is not a stencil")))?;
            stages[stage].output = Some(program.field_type(output).unwrap_or(DataType::Float32));
        }

        Ok(Simulator {
            config: config.clone(),
            space: space.clone(),
            inputs,
            machines: Machines {
                channels,
                units,
                writers,
            },
            channel_names,
            unit_names,
            stages,
            last_reader,
        })
    }

    /// Run the design on concrete input grids.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Program`] if an input grid is missing or has the
    /// wrong rank or extents, or if a stencil's code fails on the data.
    pub fn run(&self, inputs: &BTreeMap<String, Grid>) -> CoreResult<SimReport> {
        self.check_inputs(inputs)?;
        let mut machines = self.machines.clone();
        let mut memory = MemoryModel::new(self.config.memory_words_per_cycle);
        let (outcome, cycles) = machines.run(&self.config, &mut memory);
        let outputs = if outcome == SimOutcome::Completed {
            self.evaluate(inputs)?
        } else {
            BTreeMap::new()
        };

        let units = machines.units.iter();
        let writers = machines.writers.iter();
        let stats = units
            .map(|u| (u.produced, u.input_stalls, u.output_stalls))
            .chain(writers.map(|w| (w.received, w.stall_cycles, 0)));
        let unit_stats = (self.unit_names.iter().zip(stats))
            .map(
                |(name, (produced, input_stalls, output_stalls))| UnitStats {
                    name: name.clone(),
                    produced,
                    input_stalls,
                    output_stalls,
                },
            )
            .collect();
        let channel_stats = (self.channel_names.iter().zip(&machines.channels))
            .map(|(name, channel)| ChannelStats {
                name: name.clone(),
                capacity: channel.capacity,
                high_watermark: channel.high_watermark,
                words: channel.pushed_total,
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

    /// Every declared input is present, has its declared rank, and matches
    /// the iteration space along each dimension it shares with it (the
    /// streams index the grid by the space's coordinates).
    fn check_inputs(&self, inputs: &BTreeMap<String, Grid>) -> CoreResult<()> {
        for InputField { name, rank, .. } in &self.inputs {
            let grid = inputs
                .get(name)
                .ok_or_else(|| invalid(format!("missing input grid `{name}`")))?;
            if grid.rank() != *rank {
                let found = grid.rank();
                return Err(invalid(format!(
                    "input `{name}` has rank {found}, expected {rank}"
                )));
            }
            for (dim, &extent) in grid.dims().iter().zip(grid.shape()) {
                let expected = self.space.dim_index(dim).map(|ix| self.space.shape[ix]);
                if let Some(expected) = expected.filter(|&expected| expected != extent) {
                    return Err(invalid(format!(
                        "input `{name}` has extent {extent} along `{dim}`, expected {expected}"
                    )));
                }
            }
        }
        Ok(())
    }

    /// The functional pass: every stage's whole output stream, in
    /// topological order, and from them the program outputs.
    fn evaluate(&self, inputs: &BTreeMap<String, Grid>) -> CoreResult<BTreeMap<String, Grid>> {
        let dims: Vec<&str> = self.space.dims.iter().map(String::as_str).collect();
        let read = self.inputs.iter().filter(|input| input.read);
        let mut streams: Vec<Option<Cow<[f64]>>> = read
            .map(|input| Some(input_stream(&inputs[&input.name], &self.space)))
            .collect();
        let mut outputs = BTreeMap::new();
        for (unit, stage) in (streams.len()..).zip(&self.stages) {
            let field = {
                let stream =
                    |&s: &usize| streams[s].as_deref().expect("read before its last reader");
                let sources: Vec<&[f64]> = stage.sources.iter().map(stream).collect();
                stage.kernel.eval_field(&sources)?
            };
            if let Some(dtype) = stage.output {
                let grid = Grid::from_values_typed(&dims, &self.space.shape, dtype, &field);
                outputs.insert(self.unit_names[unit].clone(), grid);
            }
            for &source in &stage.sources {
                if self.last_reader[source] == Some(unit) {
                    streams[source] = None;
                }
            }
            streams.push(self.last_reader[unit].map(|_| Cow::Owned(field)));
        }
        Ok(outputs)
    }
}

impl Machines {
    /// The cycle loop: step readers and units (in topological order, so a
    /// word pushed into an on-chip channel is visible downstream in the same
    /// cycle), then writers, until every writer is done, nothing has moved
    /// for `deadlock_window` cycles, or `max_cycles` is reached.
    fn run(&mut self, config: &SimConfig, memory: &mut MemoryModel) -> (SimOutcome, u64) {
        // Only channels with a bandwidth budget need a per-cycle grant.
        let throttled: Vec<usize> = (0..self.channels.len())
            .filter(|&c| self.channels[c].throttled())
            .collect();
        let mut cycles: u64 = 0;
        let mut idle_cycles: u64 = 0;
        let outcome = loop {
            if self.writers.iter().all(WriterUnit::done) {
                break SimOutcome::Completed;
            }
            if cycles >= config.max_cycles {
                break SimOutcome::MaxCyclesExceeded;
            }
            memory.begin_cycle();
            for &channel in &throttled {
                self.channels[channel].begin_cycle();
            }
            let mut progress = false;
            for unit in self.units.iter_mut() {
                progress |= unit.step(cycles, &mut self.channels, memory);
            }
            for writer in self.writers.iter_mut() {
                progress |= writer.step(cycles, &mut self.channels, memory);
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
        (outcome, cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencilflow_core::PartitionConfig;
    use stencilflow_program::{BoundaryCondition, StencilProgramBuilder};
    use stencilflow_reference::{generate_inputs, ReferenceExecutor};
    use stencilflow_workloads::{chain_program, ChainSpec};

    #[test]
    fn chain_streams_at_full_rate() {
        let program = chain_program(&ChainSpec::new(4, 8).with_shape(&[32, 8, 8]));
        let inputs = generate_inputs(&program, 1);
        let sim = Simulator::build(
            &program,
            &AnalysisConfig::paper_defaults(),
            &SimConfig::default(),
        )
        .unwrap();
        let report = sim.run(&inputs).unwrap();
        assert!(report.completed());
        // A linear chain is fully pipelined: close to one cell per cycle.
        let rate = program.space().num_cells() as f64 / report.cycles as f64;
        assert!(rate > 0.8, "rate = {rate}");
        // Functional check against the reference executor.
        let reference = ReferenceExecutor::new().run(&program, &inputs).unwrap();
        let max_err = reference
            .compare_field("f4", report.output("f4").unwrap())
            .unwrap();
        assert!(max_err < 1e-4);
    }

    #[test]
    fn multi_device_chain_matches_single_device_functionally() {
        let program = chain_program(&ChainSpec::new(6, 8).with_shape(&[16, 8, 8]));
        let inputs = generate_inputs(&program, 2);
        let single = Simulator::build(
            &program,
            &AnalysisConfig::paper_defaults(),
            &SimConfig::default(),
        )
        .unwrap()
        .run(&inputs)
        .unwrap();
        let plan = MultiDevicePlan::partition(&program, &PartitionConfig::devices(2)).unwrap();
        let multi = Simulator::build_multi_device(
            &program,
            &AnalysisConfig::paper_defaults(),
            &plan,
            &SimConfig::default(),
        )
        .unwrap()
        .run(&inputs)
        .unwrap();
        assert!(single.completed());
        assert!(multi.completed());
        let a = single.output("f6").unwrap();
        let b = multi.output("f6").unwrap();
        assert!(a.approx_eq(b, 1e-9));
        // The network latency shows up as extra cycles, but the design still
        // streams (it is not orders of magnitude slower).
        assert!(multi.cycles >= single.cycles);
        assert!(multi.cycles < single.cycles * 3);
    }

    #[test]
    fn repeated_runs_of_one_simulator_return_equal_reports() {
        // `build` resolves the whole design; `run` only takes data and
        // leaves the built state untouched, so a second run — on the same
        // or on other inputs — starts from the same initial design.
        let program = chain_program(&ChainSpec::new(4, 8).with_shape(&[16, 8, 8]));
        let sim = Simulator::build(
            &program,
            &AnalysisConfig::paper_defaults(),
            &SimConfig::default(),
        )
        .unwrap();
        let inputs = generate_inputs(&program, 3);
        let first = sim.run(&inputs).unwrap();
        let other = sim.run(&generate_inputs(&program, 4)).unwrap();
        let again = sim.run(&inputs).unwrap();
        assert!(first.completed());
        crate::oracle::assert_same_report(&first, &again);
        // Timing does not depend on the data; the values do.
        assert_eq!(first.cycles, other.cycles);
        assert_eq!(first.unit_stats, other.unit_stats);
        assert_eq!(first.channel_stats, other.channel_stats);
        assert_ne!(first.output("f4"), other.output("f4"));
    }

    #[test]
    fn wrong_input_extents_are_an_error_not_a_panic() {
        let program = chain_program(&ChainSpec::new(2, 8).with_shape(&[16, 8, 8]));
        let sim = Simulator::build(
            &program,
            &AnalysisConfig::paper_defaults(),
            &SimConfig::default(),
        )
        .unwrap();
        let mut inputs = generate_inputs(&program, 1);
        let name = inputs.keys().next().unwrap().clone();
        let short = Grid::zeros(&["i", "j", "k"], &[16, 8, 4], DataType::Float32);
        inputs.insert(name.clone(), short);
        let error = sim.run(&inputs).unwrap_err();
        assert!(matches!(error, CoreError::Program(_)), "{error}");
        inputs.insert(name, Grid::zeros(&["i", "j"], &[16, 8], DataType::Float32));
        assert!(matches!(sim.run(&inputs), Err(CoreError::Program(_))));
    }

    #[test]
    fn copy_boundary_with_only_forward_taps_reads_the_centre_cell() {
        // The value-carrying loop pruned the centre cell out of a window
        // whose taps all point forward and panicked when the `Copy`
        // boundary asked for it; whole streams always hold it.
        let program = StencilProgramBuilder::new("forward", &[6, 9])
            .input("a", DataType::Float32, &["i", "j"])
            .stencil("s", "2.0 * a[i,j+2]")
            .boundary("s", "a", BoundaryCondition::Copy)
            .output("s")
            .build()
            .unwrap();
        let inputs = generate_inputs(&program, 1);
        let report = Simulator::build(
            &program,
            &AnalysisConfig::paper_defaults(),
            &SimConfig::default(),
        )
        .unwrap()
        .run(&inputs)
        .unwrap();
        assert!(report.completed());
        let reference = ReferenceExecutor::new().run(&program, &inputs).unwrap();
        let expected = reference.field("s").unwrap();
        assert_eq!(report.output("s").unwrap(), expected);
        let a = &inputs["a"];
        assert_eq!(expected.get(&[3, 8]), 2.0 * a.get(&[3, 8]));
    }

    #[test]
    fn channel_count_matches_dag_edges() {
        let program = chain_program(&ChainSpec::new(3, 8).with_shape(&[16, 8, 8]));
        let sim = Simulator::build(
            &program,
            &AnalysisConfig::paper_defaults(),
            &SimConfig::default(),
        )
        .unwrap();
        // f0->f1, f1->f2, f2->f3, f3->out.
        assert_eq!(sim.machines.channels.len(), 4);
    }
}
