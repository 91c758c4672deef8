//! Single-device hardware mapping (§III-A).
//!
//! Every stencil operation of the DAG is mapped to simultaneous dedicated
//! logic (a *stencil unit*), all scheduled at once and operating in a fully
//! pipeline-parallel manner. Inputs are provided through on-chip channels
//! with compile-time fixed depths (the delay buffers of §IV-B); off-chip
//! memory is accessed by dedicated reader units (prefetchers) at source nodes
//! and writer units at sink nodes.

use crate::buffers::InternalBufferAnalysis;
use crate::config::AnalysisConfig;
use crate::delay::DelayBufferAnalysis;
use crate::error::Result;
use crate::partition::MultiDevicePlan;
use crate::perf::PerformanceEstimate;
use crate::ProgramAnalysis;
use stencilflow_expr::OpCount;
use stencilflow_program::{NodeId, NodeKind, StencilProgram};

/// One stencil unit of the mapped design.
#[derive(Debug, Clone, PartialEq)]
pub struct StencilUnit {
    /// The stencil's node id in the program's DAG, which is also the id of
    /// the field it produces.
    pub id: NodeId,
    /// Operations evaluated per cycle per vector lane.
    pub ops: OpCount,
    /// Initialization phase in iterations (internal-buffer fill).
    pub init_iterations: u64,
    /// Compute critical-path latency in cycles.
    pub compute_latency: u64,
    /// Total internal-buffer elements held by this unit.
    pub internal_buffer_elements: u64,
}

/// What a channel endpoint is attached to: the DAG node at that end of
/// the channel's edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ChannelEndpoint {
    /// The DRAM reader unit of this input field.
    MemoryRead(NodeId),
    /// The DRAM writer unit behind this output memory; it writes the field
    /// the channel carries, its producer's.
    MemoryWrite(NodeId),
    /// This stencil's unit.
    Stencil(NodeId),
}

impl ChannelEndpoint {
    /// The DAG node at this end.
    pub fn id(self) -> NodeId {
        match self {
            ChannelEndpoint::MemoryRead(id)
            | ChannelEndpoint::MemoryWrite(id)
            | ChannelEndpoint::Stencil(id) => id,
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

/// A FIFO channel of the mapped design; it carries its producer's field.
#[derive(Debug, Clone, PartialEq)]
pub struct Channel {
    /// Producer endpoint.
    pub from: ChannelEndpoint,
    /// Consumer endpoint.
    pub to: ChannelEndpoint,
    /// FIFO depth in vector words (delay buffer + minimum slack).
    pub depth_words: u64,
    /// FIFO capacity in elements (`depth_words × W`).
    pub depth_elements: u64,
}

/// A dedicated off-chip memory access unit (prefetcher or writer).
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryUnit {
    /// The id of the field read or written.
    pub field_id: NodeId,
    /// Access direction.
    pub kind: MemoryAccessKind,
    /// Operands transferred per cycle (vector width for full-domain fields,
    /// 0 for lower-dimensional fields that are amortized).
    pub operands_per_cycle: u64,
}

/// The complete single-device hardware mapping of a stencil program.
#[derive(Debug, Clone)]
pub struct HardwareMapping {
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
    /// Per node id, its position in `units` (`u32::MAX` for a memory).
    unit_index: Vec<u32>,
    /// Per unit, the positions in `channels` of the channels it consumes,
    /// in the order it reads its fields (`StencilDag::predecessors`).
    unit_inputs: Groups,
    /// Per unit, the positions in `channels` of the channels it produces.
    unit_outputs: Groups,
    /// Per memory unit, the positions in `channels` of the channels it feeds
    /// (a reader) or drains (a writer).
    memory_channels: Groups,
}

/// Lists of channel positions in one flat buffer: group `g` is
/// `items[start[g]..start[g + 1]]`, each in channel order.
#[derive(Debug, Clone, Default)]
struct Groups {
    start: Vec<u32>,
    items: Vec<u32>,
}

impl Groups {
    /// `groups` lists holding each `(group, channel)` pair's channel, in
    /// pair order; a pair whose group is `None` is left out.
    fn of(groups: usize, pairs: impl Iterator<Item = (Option<usize>, usize)> + Clone) -> Groups {
        let mut start = vec![0u32; groups + 1];
        for (group, _) in pairs.clone() {
            if let Some(g) = group {
                start[g + 1] += 1;
            }
        }
        for g in 0..groups {
            start[g + 1] += start[g];
        }
        let mut fill = start.clone();
        let mut items = vec![0u32; start[groups] as usize];
        for (group, channel) in pairs {
            if let Some(g) = group {
                items[fill[g] as usize] = channel as u32;
                fill[g] += 1;
            }
        }
        Groups { start, items }
    }

    fn get(&self, group: usize) -> &[u32] {
        &self.items[self.start[group] as usize..self.start[group + 1] as usize]
    }
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
        Self::map(program, internal, delay, analysis.performance, config)
    }

    /// Build the mapping of a program partitioned by `plan`: the internal
    /// buffers of its kept analysis, and delay buffers (and so the Eq. 1
    /// estimate) that charge the plan's link latency on every edge
    /// crossing devices.
    ///
    /// # Errors
    ///
    /// Returns an error if the program DAG is invalid.
    pub fn partitioned(
        program: &StencilProgram,
        config: &AnalysisConfig,
        plan: &MultiDevicePlan,
    ) -> Result<Self> {
        let internal = &crate::analyze(program, config)?.internal;
        let delay = DelayBufferAnalysis::compute(program, internal, config, Some(plan))?;
        let flops = program.ops_per_cell().flops();
        let performance = PerformanceEstimate::compute(program, &delay, config, flops);
        Self::map(program, internal, &delay, performance, config)
    }

    /// The mapping whose buffers `internal` and `delay` size, with
    /// `performance` as its Eq. 1 estimate.
    fn map(
        program: &StencilProgram,
        internal: &InternalBufferAnalysis,
        delay: &DelayBufferAnalysis,
        performance: PerformanceEstimate,
        config: &AnalysisConfig,
    ) -> Result<Self> {
        let dag = program.dag();
        let width = config.effective_vectorization(program.vectorization());
        let full_rank = program.space().rank();

        // Stencil units in name order, which is id order.
        let mut units = Vec::with_capacity(program.stencil_count());
        let mut unit_index = vec![u32::MAX; dag.node_count()];
        for node in dag.nodes().filter(|n| n.kind == NodeKind::Stencil) {
            let stencil = program
                .stencil_at(node.id)
                .expect("stencil nodes are stencils");
            let buffers = internal.stencil_at(node.id);
            unit_index[node.id.index()] = units.len() as u32;
            units.push(StencilUnit {
                id: node.id,
                ops: stencil.op_count(),
                init_iterations: buffers.map_or(0, |b| b.init_iterations()),
                compute_latency: delay.compute_latency_at(node.id),
                internal_buffer_elements: buffers.map_or(0, |b| b.total_elements()),
            });
        }

        let endpoint = |node: NodeId| match dag.kind(node) {
            NodeKind::Input => ChannelEndpoint::MemoryRead(node),
            NodeKind::Output => ChannelEndpoint::MemoryWrite(node),
            NodeKind::Stencil => ChannelEndpoint::Stencil(node),
        };
        let channels: Vec<Channel> = (delay.channels().iter())
            .map(|depth| Channel {
                from: endpoint(depth.from),
                to: endpoint(depth.to),
                depth_words: depth.depth_words,
                depth_elements: depth.depth_words * width as u64,
            })
            .collect();

        // A reader per input, in name order, then a writer per distinct
        // output, in name order; indexed by the field they move.
        let mut memory_units = Vec::new();
        let mut reader = vec![u32::MAX; dag.node_count()];
        let mut writer = vec![u32::MAX; dag.node_count()];
        for node in dag.nodes().filter(|n| n.kind == NodeKind::Input) {
            let decl = program.input(node.name).expect("input nodes are inputs");
            reader[node.id.index()] = memory_units.len() as u32;
            memory_units.push(MemoryUnit {
                field_id: node.id,
                kind: MemoryAccessKind::Read,
                operands_per_cycle: if decl.rank() == full_rank {
                    width as u64
                } else {
                    0
                },
            });
        }
        let mut written = vec![false; dag.node_count()];
        for id in program.outputs().iter().filter_map(|output| dag.id(output)) {
            written[id.index()] = true;
        }
        for node in dag.nodes().filter(|n| written[n.id.index()]) {
            writer[node.id.index()] = memory_units.len() as u32;
            memory_units.push(MemoryUnit {
                field_id: node.id,
                kind: MemoryAccessKind::Write,
                operands_per_cycle: width as u64,
            });
        }

        // Index the adjacency once, so no lookup scans the channel list. A
        // channel into an output memory is drained by its field's writer.
        let group = |table: &[u32], node: NodeId| {
            let at = table[node.index()];
            (at != u32::MAX).then_some(at as usize)
        };
        let ends = delay.channels().iter().enumerate();
        let unit_inputs = Groups::of(
            units.len(),
            ends.clone().map(|(ix, c)| (group(&unit_index, c.to), ix)),
        );
        let unit_outputs = Groups::of(
            units.len(),
            ends.clone().map(|(ix, c)| (group(&unit_index, c.from), ix)),
        );
        let memory_channels = Groups::of(
            memory_units.len(),
            ends.map(|(ix, c)| match dag.kind(c.to) {
                NodeKind::Output => (group(&writer, c.from), ix),
                _ => (group(&reader, c.from), ix),
            }),
        );

        Ok(HardwareMapping {
            units,
            channels,
            memory_units,
            vector_width: width,
            performance,
            unit_index,
            unit_inputs,
            unit_outputs,
            memory_channels,
        })
    }

    /// The position in `units` of stencil `id`'s unit.
    pub fn unit_position(&self, id: NodeId) -> Option<usize> {
        // A memory's `u32::MAX` is no position in `units`.
        let at = *self.unit_index.get(id.index())?;
        (at != u32::MAX).then_some(at as usize)
    }

    /// Number of stencil units.
    pub fn unit_count(&self) -> usize {
        self.units.len()
    }

    /// The positions in `channels` of the channels `units[unit]` consumes,
    /// in the order it reads its fields, and of those it produces, in
    /// channel order.
    ///
    /// # Panics
    ///
    /// Panics if `unit` is not a position in `units`.
    pub fn unit_channels(&self, unit: usize) -> (&[u32], &[u32]) {
        (self.unit_inputs.get(unit), self.unit_outputs.get(unit))
    }

    /// The positions in `channels` of the channels attached to
    /// `memory_units[index]`, in channel order: those a reader feeds, or
    /// those a writer drains (one per time the program lists its field as
    /// an output).
    ///
    /// # Panics
    ///
    /// Panics if `index` is not a position in `memory_units`.
    pub fn memory_channels(&self, index: usize) -> &[u32] {
        assert!(index < self.memory_units.len(), "no memory unit {index}");
        self.memory_channels.get(index)
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

    fn is_memory(end: ChannelEndpoint) -> bool {
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
        let id = |name: &str| program.dag().id(name).unwrap();
        let position = |name: &str| mapping.unit_position(id(name));
        assert_eq!(mapping.unit_channels(position("b4").unwrap()).0.len(), 2);
        // b0 reads a0 and a1 on channels 0 and 1 and feeds b1 and b2 on 3
        // and 5 (a2 feeds them on 2 and 4): consumers in topological order.
        let b0 = mapping.unit_channels(position("b0").unwrap());
        assert_eq!(b0, (&[0, 1][..], &[3, 5][..]));
        // Only stencil units have unit channels; memory units have their own.
        assert!(position("a0").is_none());
        for (ix, unit) in mapping.memory_units.iter().enumerate() {
            let attached = mapping.memory_channels(ix);
            let consumers = program.dag().successors(unit.field_id);
            assert_eq!(attached.len(), consumers.len(), "{:?}", unit.field_id);
            for &at in attached {
                let channel = &mapping.channels[at as usize];
                let end = match unit.kind {
                    MemoryAccessKind::Read => channel.from,
                    MemoryAccessKind::Write => channel.to,
                };
                assert!(is_memory(end) && channel.from.id() == unit.field_id);
            }
        }
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
            .filter(|c| is_memory(c.from))
            .count();
        // a0->b0, a1->b0, a2->b1, a2->b2 come from memory readers.
        assert_eq!(from_memory, 4);
        let to_memory = mapping.channels.iter().filter(|c| is_memory(c.to)).count();
        assert_eq!(to_memory, 1);
        let written = mapping.channels.iter().find(|c| is_memory(c.to)).unwrap();
        let dag = program.dag();
        assert_eq!(dag.name(written.from.id()), "b4");
        assert_eq!(dag.name(written.to.id()), "b4__out");
    }
}
