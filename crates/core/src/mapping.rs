//! Single-device hardware mapping (§III-A).
//!
//! Every stencil operation of the DAG is mapped to simultaneous dedicated
//! logic (a *stencil unit*), all scheduled at once and operating in a fully
//! pipeline-parallel manner. Inputs are provided through on-chip channels
//! with compile-time fixed depths (the delay buffers of §IV-B); off-chip
//! memory is accessed by dedicated reader units (prefetchers) at source nodes
//! and writer units at sink nodes.

use crate::config::AnalysisConfig;
use crate::error::Result;
use crate::perf::PerformanceEstimate;
use crate::ProgramAnalysis;
use std::collections::{BTreeMap, HashMap};
use stencilflow_expr::OpCount;
use stencilflow_program::{NodeKind, StencilProgram};

/// One stencil unit of the mapped design.
#[derive(Debug, Clone, PartialEq)]
pub struct StencilUnit {
    /// Stencil (and produced field) name.
    pub name: String,
    /// Operations evaluated per cycle per vector lane.
    pub ops: OpCount,
    /// Initialization phase in iterations (internal-buffer fill).
    pub init_iterations: u64,
    /// Compute critical-path latency in cycles.
    pub compute_latency: u64,
    /// Total internal-buffer elements held by this unit.
    pub internal_buffer_elements: u64,
    /// Number of input channels feeding this unit.
    pub fan_in: usize,
    /// Number of output channels this unit feeds.
    pub fan_out: usize,
}

/// What a channel endpoint is attached to.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum ChannelEndpoint {
    /// A DRAM reader unit for the named input field.
    MemoryRead(String),
    /// A DRAM writer unit for the named output field.
    MemoryWrite(String),
    /// A stencil unit.
    Stencil(String),
}

impl ChannelEndpoint {
    /// The underlying node name.
    pub fn name(&self) -> &str {
        match self {
            ChannelEndpoint::MemoryRead(n)
            | ChannelEndpoint::MemoryWrite(n)
            | ChannelEndpoint::Stencil(n) => n,
        }
    }
}

/// Kind of off-chip memory access performed by a memory unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryAccessKind {
    /// Reading an input field.
    Read,
    /// Writing a program output.
    Write,
}

/// A FIFO channel of the mapped design.
#[derive(Debug, Clone, PartialEq)]
pub struct Channel {
    /// Producer endpoint.
    pub from: ChannelEndpoint,
    /// Consumer endpoint.
    pub to: ChannelEndpoint,
    /// Field carried by the channel.
    pub field: String,
    /// FIFO depth in vector words (delay buffer + minimum slack).
    pub depth_words: u64,
    /// FIFO capacity in elements (`depth_words × W`).
    pub depth_elements: u64,
}

/// A dedicated off-chip memory access unit (prefetcher or writer).
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryUnit {
    /// Field read or written.
    pub field: String,
    /// Access direction.
    pub kind: MemoryAccessKind,
    /// Number of stencil units fed by (or feeding) this unit.
    pub connections: usize,
    /// Operands transferred per cycle (vector width for full-domain fields,
    /// 0 for lower-dimensional fields that are amortized).
    pub operands_per_cycle: u64,
}

/// The complete single-device hardware mapping of a stencil program.
#[derive(Debug, Clone)]
pub struct HardwareMapping {
    /// Program name.
    pub program_name: String,
    /// All stencil units.
    pub units: Vec<StencilUnit>,
    /// All channels (memory→stencil, stencil→stencil, stencil→memory).
    pub channels: Vec<Channel>,
    /// All off-chip memory access units.
    pub memory_units: Vec<MemoryUnit>,
    /// Vectorization width of the design.
    pub vector_width: usize,
    /// Expected performance (Eq. 1).
    pub performance: PerformanceEstimate,
    /// Stencil name → position in `units`.
    unit_index: HashMap<String, usize>,
    /// Per unit, the positions in `channels` of the channels it consumes and
    /// of those it produces, in channel order.
    unit_channels: Vec<(Vec<usize>, Vec<usize>)>,
    /// Per memory unit, the positions in `channels` of the channels it feeds
    /// (a reader) or drains (a writer), in channel order.
    memory_channels: Vec<Vec<usize>>,
}

impl HardwareMapping {
    /// Analyze a program and build its mapping.
    ///
    /// # Errors
    ///
    /// Returns an error if the program DAG is invalid.
    pub fn build(program: &StencilProgram, config: &AnalysisConfig) -> Result<Self> {
        let analysis = crate::analyze(program, config)?;
        Self::from_analysis(program, &analysis, config)
    }

    /// Build the mapping of a program from the buffering analysis
    /// [`analyze`](crate::analyze) computed for it under the same `config`.
    ///
    /// # Errors
    ///
    /// Returns an error if the program DAG is invalid.
    pub fn from_analysis(
        program: &StencilProgram,
        analysis: &ProgramAnalysis,
        config: &AnalysisConfig,
    ) -> Result<Self> {
        let (internal, delay) = (&analysis.internal, &analysis.delay);
        let dag = program.dag();
        let width = config.effective_vectorization(program.vectorization());
        let full_rank = program.space().rank();

        let mut units = Vec::new();
        for stencil in program.stencils() {
            let buffers = internal.stencil(&stencil.name).cloned().unwrap_or_default();
            units.push(StencilUnit {
                name: stencil.name.clone(),
                ops: stencil.op_count(),
                init_iterations: buffers.init_iterations(),
                compute_latency: stencil.compute_latency(&config.latencies),
                internal_buffer_elements: buffers.total_elements(),
                fan_in: dag.in_degree(&stencil.name),
                fan_out: dag.out_degree(&stencil.name),
            });
        }

        // An edge into an output memory carries the field that memory holds.
        let endpoint = |name: &str, field: &str| -> ChannelEndpoint {
            match dag.node_kind(name) {
                Some(NodeKind::Input) => ChannelEndpoint::MemoryRead(name.to_string()),
                Some(NodeKind::Output) => ChannelEndpoint::MemoryWrite(field.to_string()),
                _ => ChannelEndpoint::Stencil(name.to_string()),
            }
        };

        let mut channels = Vec::new();
        for depth in delay.channels() {
            channels.push(Channel {
                from: endpoint(&depth.from, &depth.field),
                to: endpoint(&depth.to, &depth.field),
                field: depth.field.clone(),
                depth_words: depth.depth_words,
                depth_elements: depth.depth_words * width as u64,
            });
        }

        let mut memory_units = Vec::new();
        for (name, decl) in program.inputs() {
            let connections = dag.out_degree(name);
            memory_units.push(MemoryUnit {
                field: name.to_string(),
                kind: MemoryAccessKind::Read,
                connections,
                operands_per_cycle: if decl.rank() == full_rank {
                    width as u64
                } else {
                    0
                },
            });
        }
        let mut write_counts: BTreeMap<&str, usize> = BTreeMap::new();
        for output in program.outputs() {
            *write_counts.entry(output.as_str()).or_default() += 1;
        }
        for (output, count) in write_counts {
            memory_units.push(MemoryUnit {
                field: output.to_string(),
                kind: MemoryAccessKind::Write,
                connections: count,
                operands_per_cycle: width as u64,
            });
        }

        // Index the adjacency once, so no lookup scans the channel list.
        let unit_index: HashMap<String, usize> = units
            .iter()
            .enumerate()
            .map(|(ix, unit)| (unit.name.clone(), ix))
            .collect();
        let memory_index: HashMap<(&str, MemoryAccessKind), usize> = memory_units
            .iter()
            .enumerate()
            .map(|(ix, unit)| ((unit.field.as_str(), unit.kind), ix))
            .collect();
        let mut unit_channels = vec![(Vec::new(), Vec::new()); units.len()];
        let mut memory_channels = vec![Vec::new(); memory_units.len()];
        for (ix, channel) in channels.iter().enumerate() {
            match &channel.from {
                ChannelEndpoint::Stencil(name) => unit_channels[unit_index[name]].1.push(ix),
                from => {
                    memory_channels[memory_index[&(from.name(), MemoryAccessKind::Read)]].push(ix)
                }
            }
            match &channel.to {
                ChannelEndpoint::Stencil(name) => unit_channels[unit_index[name]].0.push(ix),
                to => memory_channels[memory_index[&(to.name(), MemoryAccessKind::Write)]].push(ix),
            }
        }

        Ok(HardwareMapping {
            program_name: program.name().to_string(),
            units,
            channels,
            memory_units,
            vector_width: width,
            performance: analysis.performance,
            unit_index,
            unit_channels,
            memory_channels,
        })
    }

    /// Look up a stencil unit by name.
    pub fn unit(&self, name: &str) -> Option<&StencilUnit> {
        self.unit_index.get(name).map(|&ix| &self.units[ix])
    }

    /// Number of stencil units.
    pub fn unit_count(&self) -> usize {
        self.units.len()
    }

    /// Channels whose consumer is the given stencil.
    pub fn input_channels(&self, stencil: &str) -> impl Iterator<Item = &Channel> {
        let unit = self.unit_index.get(stencil);
        self.channels_at(unit.map_or(&[], |&ix| &self.unit_channels[ix].0))
    }

    /// Channels whose producer is the given stencil.
    pub fn output_channels(&self, stencil: &str) -> impl Iterator<Item = &Channel> {
        let unit = self.unit_index.get(stencil);
        self.channels_at(unit.map_or(&[], |&ix| &self.unit_channels[ix].1))
    }

    /// Channels attached to `memory_units[index]`: those a reader feeds, or
    /// the one a writer drains.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not a position in `memory_units`.
    pub fn memory_channels(&self, index: usize) -> impl Iterator<Item = &Channel> {
        self.channels_at(&self.memory_channels[index])
    }

    fn channels_at<'a>(&'a self, positions: &'a [usize]) -> impl Iterator<Item = &'a Channel> {
        positions.iter().map(|&ix| &self.channels[ix])
    }

    /// Total on-chip buffer capacity of the design in elements (internal
    /// buffers plus channel capacities).
    pub fn total_buffer_elements(&self) -> u64 {
        let internal: u64 = self.units.iter().map(|u| u.internal_buffer_elements).sum();
        let channels: u64 = self.channels.iter().map(|c| c.depth_elements).sum();
        internal + channels
    }

    /// Floating-point operations instantiated per cycle across the whole
    /// design (the x-axis of the paper's Fig. 14/15).
    pub fn ops_per_cycle(&self) -> u64 {
        self.units.iter().map(|u| u.ops.flops()).sum::<u64>() * self.vector_width as u64
    }

    /// Number of parallel off-chip access points (the x-axis of Fig. 16):
    /// memory units that move data every cycle.
    pub fn memory_access_points(&self) -> usize {
        self.memory_units
            .iter()
            .filter(|m| m.operands_per_cycle > 0)
            .count()
    }

    /// Operands requested from off-chip memory per cycle.
    pub fn memory_operands_per_cycle(&self) -> u64 {
        self.memory_units.iter().map(|m| m.operands_per_cycle).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_support::listing1;

    fn is_memory(end: &ChannelEndpoint) -> bool {
        !matches!(end, ChannelEndpoint::Stencil(_))
    }

    #[test]
    fn listing1_mapping_structure() {
        let program = listing1();
        let mapping = HardwareMapping::build(&program, &AnalysisConfig::paper_defaults()).unwrap();
        assert_eq!(mapping.unit_count(), 5);
        // Channels: a0->b0, a1->b0, b0->b1, a2->b1, b0->b2, a2->b2, b1->b3,
        // b2->b4, b3->b4, b4->out = 10.
        assert_eq!(mapping.channels.len(), 10);
        // Memory units: 3 readers + 1 writer.
        assert_eq!(mapping.memory_units.len(), 4);
        assert_eq!(mapping.input_channels("b4").count(), 2);
        assert_eq!(mapping.output_channels("b0").count(), 2);
        // Only stencil units have unit channels; memory units have their own.
        assert_eq!(mapping.input_channels("a0").count(), 0);
        assert_eq!(mapping.output_channels("a0").count(), 0);
        assert!(mapping.unit("a0").is_none());
        for (ix, unit) in mapping.memory_units.iter().enumerate() {
            let attached: Vec<&Channel> = mapping.memory_channels(ix).collect();
            assert_eq!(attached.len(), unit.connections, "{}", unit.field);
            for channel in attached {
                let end = match unit.kind {
                    MemoryAccessKind::Read => &channel.from,
                    MemoryAccessKind::Write => &channel.to,
                };
                assert!(is_memory(end) && end.name() == unit.field);
            }
        }
        let b0 = mapping.unit("b0").unwrap();
        assert_eq!(b0.fan_in, 2);
        assert_eq!(b0.fan_out, 2);
    }

    #[test]
    fn memory_access_points_exclude_lower_dimensional_inputs() {
        let program = listing1();
        let mapping = HardwareMapping::build(&program, &AnalysisConfig::paper_defaults()).unwrap();
        // a0, a1 are 3D reads; a2 is 2D (amortized); b4 is written.
        assert_eq!(mapping.memory_access_points(), 3);
        assert_eq!(mapping.memory_operands_per_cycle(), 3);
    }

    #[test]
    fn buffer_totals_are_consistent_with_analysis() {
        let program = listing1();
        let config = AnalysisConfig::paper_defaults();
        let mapping = HardwareMapping::build(&program, &config).unwrap();
        let analysis = crate::analyze(&program, &config).unwrap();
        assert_eq!(
            mapping.total_buffer_elements(),
            analysis.total_buffer_elements()
        );
    }

    #[test]
    fn ops_per_cycle_scales_with_vectorization() {
        let program = listing1();
        let w1 = HardwareMapping::build(&program, &AnalysisConfig::paper_defaults()).unwrap();
        let w4 = HardwareMapping::build(
            &program,
            &AnalysisConfig::paper_defaults().with_vectorization(4),
        )
        .unwrap();
        assert_eq!(w1.ops_per_cycle() * 4, w4.ops_per_cycle());
        assert_eq!(w4.vector_width, 4);
    }

    #[test]
    fn channel_endpoints_classify_memory_and_stencils() {
        let program = listing1();
        let mapping = HardwareMapping::build(&program, &AnalysisConfig::paper_defaults()).unwrap();
        let from_memory = mapping
            .channels
            .iter()
            .filter(|c| is_memory(&c.from))
            .count();
        // a0->b0, a1->b0, a2->b1, a2->b2 come from memory readers.
        assert_eq!(from_memory, 4);
        let to_memory = mapping.channels.iter().filter(|c| is_memory(&c.to)).count();
        assert_eq!(to_memory, 1);
        assert_eq!(
            mapping
                .channels
                .iter()
                .find(|c| is_memory(&c.to))
                .unwrap()
                .to
                .name(),
            "b4"
        );
    }
}
