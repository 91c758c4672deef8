//! The top-level simulator: runs the design `HardwareMapping` lays out for
//! a program (`HardwareMapping::partitioned` on several devices) on
//! concrete inputs. Its units take their channel positions from the
//! mapping, by id, and its links their latency and bandwidth from the plan
//! (`token_channel`); the configuration only overrides the depth. Names
//! are looked up only for the report.
//!
//! A run steps the count machines for the timing, jumping over the cycles
//! that repeat the last one exactly (see the crate documentation for why
//! tokens suffice and the jumps are exact), and — only if the design ran to
//! completion — takes the outputs from the reference executor's run of the
//! same program, prepared at build time, through the FPGA path's entry
//! point (`ReferenceExecutor::run_tiered`): on the fused rung until the
//! program's runs there have cost one native build (200 ms), then on the
//! native rung once `cc`'s module has landed, never waiting for it.
//!
//! Every design prepares on the process-wide executor
//! ([`ReferenceExecutor::shared`]), which `Pipeline`'s validation uses
//! too: the single- and multi-device designs of one program, and every
//! later design of it, share one compiled program, and their sweeps draw
//! from warm buffer pools. Nothing leaks between programs: the cache is
//! bounded and keyed by the program's fingerprint, and a pooled buffer is
//! overwritten before it is read.

use crate::channel::TokenChannel;
use crate::config::SimConfig;
use crate::memory::{MemoryModel, WriterUnit};
use crate::report::{ChannelStats, SimOutcome, SimReport, UnitStats};
use crate::unit::StencilUnit;
use std::collections::BTreeMap;
use std::sync::Arc;
use stencilflow_core::{AnalysisConfig, Channel, HardwareMapping, MemoryAccessKind};
use stencilflow_core::{MultiDevicePlan, Result as CoreResult};
use stencilflow_program::StencilProgram;
use stencilflow_reference::{CompiledProgram, Grid, ReferenceExecutor};

/// The count machines of a design. The simulator holds them in their
/// initial state; every run steps a copy.
#[derive(Debug, Clone)]
struct Machines {
    channels: Vec<TokenChannel>,
    /// One reader per program input that is read at all, then the stencil
    /// units in topological order.
    units: Vec<StencilUnit>,
    /// One writer per program output.
    writers: Vec<WriterUnit>,
}

/// A spatial design ready to be simulated on concrete input data.
#[derive(Debug)]
pub struct Simulator {
    config: SimConfig,
    machines: Machines,
    /// `from->to`, in channel order.
    channel_names: Vec<String>,
    /// `read:<field>`, stencils, `write:<field>`: the order of
    /// `SimReport::unit_stats`.
    unit_names: Vec<String>,
    /// The program prepared on the process-wide executor, which computes
    /// a completed run's outputs.
    compiled: Arc<CompiledProgram>,
}

/// How a design realises `channel` of `mapping`: its capacity in words, and
/// the latency (cycles) and bandwidth (words per cycle) of the link it
/// crosses — none on chip. The capacity is the analysed depth plus the
/// producer's compute latency (the words a hardware unit holds in its
/// pipeline, which a simulated unit emits in the cycle it fires; a reader
/// holds none), or the configured override instead of both; a remote
/// stream also holds its link latency in flight.
fn token_channel(
    config: &SimConfig,
    plan: Option<&MultiDevicePlan>,
    mapping: &HardwareMapping,
    channel: &Channel,
) -> TokenChannel {
    let (from, to) = (channel.from.id(), channel.to.id());
    let held = (mapping.unit_position(from)).map_or(0, |unit| mapping.units[unit].compute_latency);
    let link = plan
        .filter(|plan| plan.is_remote(from, to))
        .map(|plan| &plan.config);
    let latency = link.map_or(0, |link| link.link_latency_cycles);
    let words_per_cycle = link.map_or(f64::INFINITY, |link| link.link_words_per_cycle);
    let on_chip = (config.channel_depth_override).unwrap_or(channel.depth_words + held);
    TokenChannel::new(
        (on_chip.max(1) + latency) as usize,
        latency,
        words_per_cycle,
    )
}

impl Simulator {
    /// Build the single-device design for `program`: the mapping of its
    /// kept analysis, whose delay buffers size every channel.
    ///
    /// # Errors
    ///
    /// Returns an error if the program DAG is invalid.
    pub fn build(
        program: &StencilProgram,
        analysis: &AnalysisConfig,
        config: &SimConfig,
    ) -> CoreResult<Self> {
        let mapping = HardwareMapping::build(program, analysis)?;
        Self::build_inner(program, &mapping, config, None)
    }

    /// Build a design partitioned across multiple devices: channels crossing
    /// device boundaries become network channels (the SMI substitute) with
    /// the latency and bandwidth of the plan's `PartitionConfig`, which the
    /// delay-buffer analysis also charges on their paths.
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
        let mapping = HardwareMapping::partitioned(program, analysis, plan)?;
        Self::build_inner(program, &mapping, config, Some(plan))
    }

    /// The design `mapping` lays out, its channels' and units' report names,
    /// and the program prepared on the process-wide executor.
    fn build_inner(
        program: &StencilProgram,
        mapping: &HardwareMapping,
        config: &SimConfig,
        plan: Option<&MultiDevicePlan>,
    ) -> CoreResult<Self> {
        let (dag, space) = (program.dag(), program.space());
        let total_cells = space.num_cells();
        let name = |id| dag.name(id);

        let channels = (mapping.channels.iter())
            .map(|channel| token_channel(config, plan, mapping, channel))
            .collect();
        let channel_names = (mapping.channels.iter())
            .map(|c| format!("{}->{}", name(c.from.id()), name(c.to.id())))
            .collect();

        // Readers: one per program input that anything reads. Only
        // full-domain fields, which move operands every cycle, draw from
        // the off-chip budget.
        let mut units = Vec::with_capacity(mapping.memory_units.len() + mapping.units.len());
        let mut unit_names = Vec::with_capacity(units.capacity() + program.outputs().len());
        for (index, memory) in mapping.memory_units.iter().enumerate() {
            let outs = mapping.memory_channels(index);
            if memory.kind == MemoryAccessKind::Read && !outs.is_empty() {
                let full_domain = memory.operands_per_cycle > 0;
                units.push(StencilUnit::reader(outs, full_domain, total_cells));
                unit_names.push(format!("read:{}", name(memory.field_id)));
            }
        }

        // Stencil units in topological order.
        for &id in program.topological_nodes()? {
            if let Some(position) = mapping.unit_position(id) {
                let stencil = program.stencil_at(id).expect("units are stencils");
                let (ins, outs) = mapping.unit_channels(position);
                units.push(StencilUnit::new(space, stencil, ins, outs));
                unit_names.push(name(id).to_string());
            }
        }

        // Writers: one per program output, in declaration order, each
        // draining its own channel into its field's writer.
        let mut drained = vec![0; mapping.memory_units.len()];
        let mut writers = Vec::with_capacity(program.outputs().len());
        for output in program.outputs() {
            let field = dag.id(output);
            let index = (mapping.memory_units.iter())
                .position(|m| m.kind == MemoryAccessKind::Write && Some(m.field_id) == field)
                .expect("every output has a writer");
            let channel = mapping.memory_channels(index)[drained[index]];
            drained[index] += 1;
            writers.push(WriterUnit::new(channel as usize, total_cells));
            unit_names.push(format!("write:{output}"));
        }

        Ok(Simulator {
            config: config.clone(),
            machines: Machines {
                channels,
                units,
                writers,
            },
            channel_names,
            unit_names,
            compiled: ReferenceExecutor::shared().prepare(program)?,
        })
    }

    /// Run the design on concrete input grids.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Program`](stencilflow_core::CoreError::Program)
    /// if an input grid is missing or has the wrong shape or element type
    /// (the executor's rule, [`ReferenceExecutor::check_inputs`], checked
    /// before the first cycle, so a bad input never costs a timing run),
    /// or if a stencil's code fails on the data.
    pub fn run(&self, inputs: &BTreeMap<String, Grid>) -> CoreResult<SimReport> {
        ReferenceExecutor::check_inputs(self.compiled.program(), inputs)?;
        let mut machines = self.machines.clone();
        let mut memory = MemoryModel::new(self.config.memory_words_per_cycle);
        let (outcome, cycles, _) = machines.run(&self.config, &mut memory);
        let outputs = if outcome == SimOutcome::Completed {
            let (result, _) = ReferenceExecutor::shared().run_tiered(&self.compiled, inputs)?;
            (result.fields())
                .map(|(name, grid)| (name.to_string(), grid.clone()))
                .collect()
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

    /// The single-device design of `program` under the paper's defaults.
    #[cfg(test)]
    pub(crate) fn paper_defaults(program: &StencilProgram) -> Self {
        Self::build(
            program,
            &AnalysisConfig::paper_defaults(),
            &SimConfig::default(),
        )
        .unwrap()
    }

    /// The timing run alone: its outcome, the cycles it simulated, and how
    /// many of them the loop stepped rather than jumped over.
    #[cfg(test)]
    pub(crate) fn timing(&self) -> (SimOutcome, u64, u64) {
        let mut machines = self.machines.clone();
        let mut memory = MemoryModel::new(self.config.memory_words_per_cycle);
        machines.run(&self.config, &mut memory)
    }
}

impl Machines {
    /// The cycle loop: step readers and units (in topological order, so a
    /// word pushed into an on-chip channel is visible downstream in the same
    /// cycle, and every channel's producer steps before its consumer), then
    /// writers, until every writer is done, nothing has moved for
    /// `deadlock_window` cycles, or `max_cycles` is reached. After each
    /// stepped cycle the loop jumps over as many cycles as repeat it
    /// exactly ([`crate::forward`]); it returns the outcome, the cycles
    /// simulated, and how many of them were stepped.
    fn run(&mut self, config: &SimConfig, memory: &mut MemoryModel) -> (SimOutcome, u64, u64) {
        // Only channels with a bandwidth budget need a per-cycle grant.
        let throttled: Vec<usize> = (0..self.channels.len())
            .filter(|&c| self.channels[c].throttled())
            .collect();
        let mut cycles: u64 = 0;
        let mut idle_cycles: u64 = 0;
        let mut stepped: u64 = 0;
        let mut saved = Vec::new();
        let outcome = loop {
            if self.writers.iter().all(WriterUnit::done) {
                break SimOutcome::Completed;
            }
            if cycles >= config.max_cycles {
                break SimOutcome::MaxCyclesExceeded;
            }
            saved.clear();
            self.save(memory, &mut saved);
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
            stepped += 1;
            if progress {
                idle_cycles = 0;
            } else {
                idle_cycles += 1;
                if idle_cycles >= config.deadlock_window {
                    break SimOutcome::Deadlocked;
                }
            }
            cycles += 1;
            // The jump ends before the cycle limit, and before an idle
            // stretch reaches the deadlock window.
            let mut jump = self.horizon(memory, &saved, cycles);
            jump = jump.min(config.max_cycles - cycles);
            if !progress {
                jump = jump.min(config.deadlock_window - idle_cycles - 1);
                idle_cycles += jump;
            }
            if jump > 0 {
                self.advance(memory, &saved, cycles, jump);
                cycles += jump;
            }
        };
        (outcome, cycles, stepped)
    }

    /// Save the memory's and every machine's state, in one fixed order.
    fn save(&self, memory: &MemoryModel, into: &mut Vec<u64>) {
        memory.save(into);
        self.channels.iter().for_each(|channel| channel.save(into));
        self.units.iter().for_each(|unit| unit.save(into));
        self.writers.iter().for_each(|writer| writer.save(into));
    }

    /// How many cycles from `now` on repeat the last one, which started
    /// from `saved`, exactly.
    fn horizon(&self, memory: &MemoryModel, mut saved: &[u64], now: u64) -> u64 {
        let saved = &mut saved;
        let mut k = memory.horizon(saved);
        for channel in &self.channels {
            k = k.min(channel.horizon(saved, now));
        }
        for unit in &self.units {
            k = k.min(unit.horizon(saved));
        }
        for writer in &self.writers {
            k = k.min(writer.horizon(saved));
        }
        k
    }

    /// Take the `k` cycles from `now` on in one step.
    fn advance(&mut self, memory: &mut MemoryModel, mut saved: &[u64], now: u64, k: u64) {
        let saved = &mut saved;
        memory.advance(saved, k);
        for channel in &mut self.channels {
            channel.advance(saved, now, k);
        }
        for unit in &mut self.units {
            unit.advance(saved, k);
        }
        for writer in &mut self.writers {
            writer.advance(saved, k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencilflow_core::{CoreError, PartitionConfig};
    use stencilflow_expr::DataType;
    use stencilflow_program::{BoundaryCondition, StencilProgramBuilder};
    use stencilflow_reference::generate_inputs;
    use stencilflow_workloads::{chain_program, ChainSpec};

    #[test]
    fn chain_streams_at_full_rate() {
        let program = chain_program(&ChainSpec::new(4, 8).with_shape(&[32, 8, 8]));
        let inputs = generate_inputs(&program, 1);
        let sim = Simulator::paper_defaults(&program);
        let report = sim.run(&inputs).unwrap();
        assert!(report.completed());
        // A linear chain is fully pipelined: close to one cell per cycle.
        let rate = program.space().num_cells() as f64 / report.cycles as f64;
        assert!(rate > 0.8, "rate = {rate}");
        // The values are the reference executor's, bit for bit.
        let reference = ReferenceExecutor::new().run(&program, &inputs).unwrap();
        let expected = reference.field("f4").unwrap();
        crate::oracle::assert_same_grid("f4", report.output("f4").unwrap(), expected);
    }

    #[test]
    fn multi_device_chain_matches_single_device_functionally() {
        let program = chain_program(&ChainSpec::new(6, 8).with_shape(&[16, 8, 8]));
        let inputs = generate_inputs(&program, 2);
        let single = Simulator::paper_defaults(&program).run(&inputs).unwrap();
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
        let sim = Simulator::paper_defaults(&program);
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
        let sim = Simulator::paper_defaults(&program);
        let mut inputs = generate_inputs(&program, 1);
        let name = inputs.keys().next().unwrap().clone();
        let short = Grid::zeros(&["i", "j", "k"], &[16, 8, 4], DataType::Float32);
        inputs.insert(name.clone(), short);
        let error = sim.run(&inputs).unwrap_err();
        assert!(matches!(error, CoreError::Program(_)), "{error}");
        inputs.insert(
            name.clone(),
            Grid::zeros(&["i", "j"], &[16, 8], DataType::Float32),
        );
        assert!(matches!(sim.run(&inputs), Err(CoreError::Program(_))));

        // So is the element type: a design that runs no cycle, and so never
        // computes an output, rejects it.
        let idle = SimConfig {
            max_cycles: 0,
            ..SimConfig::default()
        };
        let idle = Simulator::build(&program, &AnalysisConfig::paper_defaults(), &idle).unwrap();
        let wide = Grid::zeros(&["i", "j", "k"], &[16, 8, 8], DataType::Float64);
        inputs.insert(name.clone(), wide);
        let error = idle.run(&inputs).unwrap_err().to_string();
        let expected = format!("input `{name}` has element type float64, expected float32");
        assert!(error.contains(&expected), "{error}");
    }

    #[test]
    fn copy_boundary_with_only_forward_taps_reads_the_centre_cell() {
        // A `Copy` boundary reads the centre cell even when every tap
        // points forward: the value-carrying loop once pruned it out of
        // its window and panicked.
        let program = StencilProgramBuilder::new("forward", &[6, 9])
            .input("a", DataType::Float32, &["i", "j"])
            .stencil("s", "2.0 * a[i,j+2]")
            .boundary("s", "a", BoundaryCondition::Copy)
            .output("s")
            .build()
            .unwrap();
        let inputs = generate_inputs(&program, 1);
        let report = Simulator::paper_defaults(&program).run(&inputs).unwrap();
        assert!(report.completed());
        let reference = ReferenceExecutor::new().run(&program, &inputs).unwrap();
        let expected = reference.field("s").unwrap();
        assert_eq!(report.output("s").unwrap(), expected);
        let a = &inputs["a"];
        assert_eq!(expected.get(&[3, 8]), 2.0 * a.get(&[3, 8]));
    }

    #[test]
    fn mixed_width_taps_keep_their_own_field_type() {
        // An f32 stencil reading an f64 input sees the input's f64 values,
        // as the interpreter does: rounding the taps through the unit's f32
        // first changes 24 of these 128 cells.
        let program = StencilProgramBuilder::new("mixed", &[8, 16])
            .input("a", DataType::Float64, &["i", "j"])
            .stencil("s", "a[i,j] * 3.0 + a[i,j+1] / 7.0")
            .output_type("s", DataType::Float32)
            .boundary("s", "a", BoundaryCondition::Constant(0.0))
            .output("s")
            .build()
            .unwrap();
        let inputs = generate_inputs(&program, 1);
        let report = Simulator::paper_defaults(&program).run(&inputs).unwrap();
        assert!(report.completed());
        let interpreted = ReferenceExecutor::new()
            .run_interpreted(&program, &inputs)
            .unwrap();
        let expected = interpreted.field("s").unwrap();
        crate::oracle::assert_same_grid("s", report.output("s").unwrap(), expected);
    }

    /// The simulator reads the design off the mapping, and must build the
    /// name-keyed wiring it replaced (`oracle::named_wiring`): each
    /// channel's name and shape, each reader's, unit's and writer's
    /// channels. A unit pushes to all its outputs in one cycle, so their
    /// order is not observable: they are compared as sets.
    #[test]
    fn the_mapping_wires_the_design_as_by_name() {
        use stencilflow_workloads::{execution_suite, random_dag};
        use stencilflow_workloads::{horizontal_diffusion, HorizontalDiffusionSpec};
        let hdiff = horizontal_diffusion(&HorizontalDiffusionSpec::production(1));
        let mut programs = execution_suite();
        programs.push(stencilflow_dataflow::fuse_all(&hdiff).unwrap());
        programs.push(hdiff);
        programs.extend((0..64).map(random_dag));
        let (analysis, config) = (AnalysisConfig::paper_defaults(), SimConfig::default());
        type Wiring = (String, Vec<usize>, Vec<usize>);
        let sorted = |(name, ins, mut outs): Wiring| {
            outs.sort_unstable();
            (name, ins, outs)
        };
        for program in &programs {
            let four = PartitionConfig::devices(program.stencil_count().min(4));
            let plan = MultiDevicePlan::partition(program, &four).unwrap();
            for plan in [None, Some(&plan)] {
                let simulator = match plan {
                    Some(plan) => Simulator::build_multi_device(program, &analysis, plan, &config),
                    None => Simulator::build(program, &analysis, &config),
                };
                let Simulator {
                    machines,
                    channel_names: channels,
                    unit_names: names,
                    ..
                } = simulator.unwrap();
                let named = crate::oracle::named_wiring(program, &analysis, plan, &config);
                let named = named.unwrap();
                let devices = plan.map_or(1, MultiDevicePlan::device_count);
                let label = format!("{} on {devices} devices", program.name());

                let shapes = machines.channels.iter();
                let shapes = shapes.map(|c| (c.capacity, c.latency, c.words_per_cycle));
                let channels: Vec<_> = channels.into_iter().zip(shapes).collect();
                assert_eq!(channels, named.channels, "{label}: channels");

                let writers = (machines.writers.iter()).map(|w| (vec![w.in_channel], vec![]));
                let ports = (machines.units.iter()).map(StencilUnit::wiring);
                let ports = ports.chain(writers);
                let units: Vec<Wiring> = (names.into_iter().zip(ports))
                    .map(|(name, (ins, outs))| sorted((name, ins, outs)))
                    .collect();
                let readers = (named.readers.into_iter())
                    .map(|(name, outs)| (format!("read:{name}"), vec![], outs));
                let writers = (named.writers.into_iter())
                    .map(|(name, channel)| (format!("write:{name}"), vec![channel], vec![]));
                let named_units = readers.chain(named.units).chain(writers);
                let named_units: Vec<Wiring> = named_units.map(sorted).collect();
                assert_eq!(units, named_units, "{label}: readers, units and writers");
            }
        }
    }

    #[test]
    fn an_output_listed_twice_is_written_twice() {
        // Each listing has its own channel into the memory, and a writer.
        let program = StencilProgramBuilder::new("twice", &[8, 8])
            .input("a", DataType::Float32, &["i", "j"])
            .stencil("b", "a[i,j-1] + a[i,j+1]")
            .output("b")
            .output("b")
            .build()
            .unwrap();
        let inputs = generate_inputs(&program, 1);
        let report = Simulator::paper_defaults(&program).run(&inputs).unwrap();
        assert_eq!(report.outcome, SimOutcome::Completed);
        let writers = report.unit_stats.iter().filter(|u| u.name == "write:b");
        assert_eq!(writers.map(|u| u.produced).collect::<Vec<_>>(), [64, 64]);
    }

    #[test]
    fn channel_count_matches_dag_edges() {
        let program = chain_program(&ChainSpec::new(3, 8).with_shape(&[16, 8, 8]));
        let sim = Simulator::paper_defaults(&program);
        // f0->f1, f1->f2, f2->f3, f3->out.
        assert_eq!(sim.machines.channels.len(), 4);
    }
}
