//! The top-level simulator: builds the spatial design from a program, its
//! buffering analysis and (for several devices) its partition plan once,
//! then runs it on concrete inputs. Every channel's capacity, and every
//! link's latency and bandwidth, is read off the analysis and the plan
//! (`channel_shape`); the configuration only overrides the depth.
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
use stencilflow_core::DelayBufferAnalysis;
use stencilflow_core::{AnalysisConfig, ChannelDepth, CoreError};
use stencilflow_core::{MultiDevicePlan, Result as CoreResult};
use stencilflow_program::{IterationSpace, ProgramError, StencilDag, StencilProgram};
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

/// A declared program input.
#[derive(Debug)]
struct InputField {
    name: String,
    rank: usize,
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
    /// The program prepared on the process-wide executor, which computes
    /// a completed run's outputs.
    compiled: Arc<CompiledProgram>,
}

fn internal(message: String) -> CoreError {
    CoreError::Internal { message }
}

fn invalid(message: String) -> CoreError {
    CoreError::Program(ProgramError::Invalid { message })
}

/// How a design realises `channel`: its capacity in words, and the latency
/// (cycles) and bandwidth (words per cycle) of the link it crosses — none
/// on chip. The capacity is the analysed depth plus the producer's compute
/// latency (the words a hardware unit holds in its pipeline, which a
/// simulated unit emits in the cycle it fires), or the configured override
/// instead of both; a remote stream also holds its link latency in flight.
pub(crate) fn channel_shape(
    config: &SimConfig,
    delay: &DelayBufferAnalysis,
    plan: Option<&MultiDevicePlan>,
    channel: &ChannelDepth,
) -> (usize, u64, f64) {
    let (from, to) = (channel.from.as_str(), channel.to.as_str());
    let link = plan
        .filter(|plan| plan.is_remote(from, to))
        .map(|plan| &plan.config);
    let latency = link.map_or(0, |link| link.link_latency_cycles);
    let words_per_cycle = link.map_or(f64::INFINITY, |link| link.link_words_per_cycle);
    let on_chip = (config.channel_depth_override)
        .unwrap_or(channel.depth_words + delay.compute_latency(from));
    let capacity = (on_chip.max(1) + latency) as usize;
    (capacity, latency, words_per_cycle)
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
        Self::build_inner(program, analysis, config, Some(plan))
    }

    fn build_inner(
        program: &StencilProgram,
        analysis: &AnalysisConfig,
        config: &SimConfig,
        plan: Option<&MultiDevicePlan>,
    ) -> CoreResult<Self> {
        // The program's kept analysis sizes a single-device design; a plan
        // needs delay buffers of its own, over the same internal buffers.
        let kept = stencilflow_core::analyze(program, analysis)?;
        let planned = (plan.map(|plan| {
            DelayBufferAnalysis::compute(program, &kept.internal, analysis, Some(plan))
        }))
        .transpose()?;
        let delay = planned.as_ref().unwrap_or(&kept.delay);
        let space = program.space();
        let total_cells = space.num_cells();

        let mut channels = Vec::new();
        let mut channel_names = Vec::new();
        let mut channel_index: BTreeMap<(&str, &str), usize> = BTreeMap::new();
        for channel in delay.channels() {
            let (from, to) = (channel.from.as_str(), channel.to.as_str());
            let (capacity, latency, words_per_cycle) = channel_shape(config, delay, plan, channel);
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
        for (name, decl) in program.inputs() {
            inputs.push(InputField {
                name: name.to_string(),
                rank: decl.rank(),
            });
            if let Some(outs) = fan_out.remove(name) {
                let full_domain = decl.rank() == space.rank();
                units.push(StencilUnit::reader(outs, full_domain, total_cells));
                unit_names.push(format!("read:{name}"));
            }
        }

        // Stencil units in topological order.
        for name in program.topological_stencils()? {
            let stencil = program
                .stencil(name)
                .ok_or_else(|| internal(format!("`{name}` is ordered but not a stencil")))?;
            let in_channels = (stencil.accesses.iter())
                .map(|(field, _)| channel_between(field, name))
                .collect::<CoreResult<Vec<_>>>()?;
            let outs = fan_out.remove(name.as_str()).unwrap_or_default();
            units.push(StencilUnit::new(space, stencil, &in_channels, outs));
            unit_names.push(name.clone());
        }

        // Writers: one per program output.
        let mut writers = Vec::new();
        for output in program.outputs() {
            let sink = StencilDag::output_node_name(output);
            writers.push(WriterUnit::new(
                channel_between(output, &sink)?,
                total_cells,
            ));
            unit_names.push(format!("write:{output}"));
        }

        let compiled = ReferenceExecutor::shared().prepare(program)?;
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
            compiled,
        })
    }

    /// Run the design on concrete input grids.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Program`] if an input grid is missing or has the
    /// wrong rank or extents, or — when the run completes and its outputs
    /// are computed — the wrong element type, or if a stencil's code fails
    /// on the data.
    pub fn run(&self, inputs: &BTreeMap<String, Grid>) -> CoreResult<SimReport> {
        self.check_inputs(inputs)?;
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

    /// The timing run alone: its outcome, the cycles it simulated, and how
    /// many of them the loop stepped rather than jumped over.
    #[cfg(test)]
    pub(crate) fn timing(&self) -> (SimOutcome, u64, u64) {
        let mut machines = self.machines.clone();
        let mut memory = MemoryModel::new(self.config.memory_words_per_cycle);
        machines.run(&self.config, &mut memory)
    }

    /// Every declared input is present, has its declared rank, and matches
    /// the iteration space along each dimension it shares with it: checked
    /// before the first cycle, so a bad input never costs a timing run.
    fn check_inputs(&self, inputs: &BTreeMap<String, Grid>) -> CoreResult<()> {
        for InputField { name, rank } in &self.inputs {
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
    use stencilflow_core::PartitionConfig;
    use stencilflow_expr::DataType;
    use stencilflow_program::{BoundaryCondition, StencilProgramBuilder};
    use stencilflow_reference::generate_inputs;
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
        // The values are the reference executor's, bit for bit.
        let reference = ReferenceExecutor::new().run(&program, &inputs).unwrap();
        let expected = reference.field("f4").unwrap();
        crate::oracle::assert_same_grid("f4", report.output("f4").unwrap(), expected);
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
        let report = Simulator::build(
            &program,
            &AnalysisConfig::paper_defaults(),
            &SimConfig::default(),
        )
        .unwrap()
        .run(&inputs)
        .unwrap();
        assert!(report.completed());
        let interpreted = ReferenceExecutor::new()
            .run_interpreted(&program, &inputs)
            .unwrap();
        let expected = interpreted.field("s").unwrap();
        crate::oracle::assert_same_grid("s", report.output("s").unwrap(), expected);
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
