//! Delay buffers for inter-stencil reuse and deadlock freedom (§IV-B).
//!
//! Every edge of the stencil DAG becomes an on-chip FIFO channel. When the
//! DAG is not a multi-tree, paths of different latency reconverge at some
//! node, and the data arriving along the "fast" path must be buffered until
//! the "slow" path produces its first values — otherwise the producer blocks
//! on a full channel while the consumer waits on an empty one: a deadlock
//! (Fig. 4).
//!
//! Two effects delay data along a path:
//!
//! * the *initialization phase* of each stencil (filling its internal
//!   buffers, §IV-A) — the dominant term, proportional to (D−1)-dimensional
//!   slices of the iteration space;
//! * the *compute critical path* of each stencil's expression DAG — small
//!   (<100 cycles), but a path of several stencils adds them up, and a
//!   design that omits them deadlocks (horizontal diffusion does);
//! * on a design partitioned across devices (§III-B), the latency of each
//!   inter-device link a path crosses.
//!
//! The analysis traverses the DAG in topological order, computes for every
//! node the largest delay accumulated along any path from any source
//! (including the node's own contribution), and sizes the FIFO on each edge
//! `(u, v)` as `max_{(u',v)} delay(u') − delay(u)`: the edge on the slowest
//! path gets depth zero (plus a minimum pipelining slack), every other edge
//! gets exactly the credits needed to keep streaming until the slowest path
//! catches up. This reproduces Fig. 8, where the edge bypassing two kernels
//! of latency 64 and 16 receives a `64 + 16` deep buffer.

use crate::buffers::InternalBufferAnalysis;
use crate::config::AnalysisConfig;
use crate::error::{CoreError, Result};
use crate::partition::MultiDevicePlan;
use stencilflow_program::{NodeId, StencilProgram};

/// Computed FIFO depth of one DAG edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelDepth {
    /// Producer node, which is also the field the edge carries.
    pub from: NodeId,
    /// Consumer node.
    pub to: NodeId,
    /// Accumulated delay (cycles) of data arriving over this edge: the
    /// longest-path delay up to and including the producer, the consumer's
    /// initialization for this field, and the link latency if the edge
    /// crosses devices.
    pub edge_delay: u64,
    /// Required FIFO depth in vector words (transactions), excluding the
    /// configured minimum depth.
    pub delay_words: u64,
    /// Total FIFO depth in vector words, including the minimum depth.
    pub depth_words: u64,
}

/// Result of the delay-buffer analysis for a whole program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DelayBufferAnalysis {
    channels: Vec<ChannelDepth>,
    /// Per node id, the longest accumulated delay up to and including it.
    arrival: Vec<u64>,
    /// Per node id, its compute critical path (zero for a memory node).
    compute_latency: Vec<u64>,
    vector_width: u64,
}

impl DelayBufferAnalysis {
    /// Compute delay buffers for every edge of the program's DAG, on one
    /// device (`plan` is `None`) or partitioned by `plan`, whose
    /// `link_latency_cycles` is charged on every edge that crosses devices.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Program`] if the DAG is cyclic.
    pub fn compute(
        program: &StencilProgram,
        internal: &InternalBufferAnalysis,
        config: &AnalysisConfig,
        plan: Option<&MultiDevicePlan>,
    ) -> Result<Self> {
        let dag = program.dag();
        let width = config.effective_vectorization(program.vectorization()) as u64;

        // The latency of the link an edge crosses, if it crosses one.
        let link_latency = |from: NodeId, to: NodeId| match plan {
            Some(plan) if plan.is_remote(from, to) => plan.config.link_latency_cycles,
            _ => 0,
        };

        // Longest accumulated delay along any path, per node, in topological
        // order: arrival(v) = max over in-edges (arrival(u) + edge_init +
        // link latency) plus the node's compute critical path. The
        // per-edge initialization term is the delay the *consumer* imposes on
        // data arriving over this particular edge (the fill of the internal
        // buffer for that field, §IV-B: "including the contribution of the
        // initialization phase of the node itself").
        let order = program.topological_nodes().map_err(CoreError::from)?;
        let mut arrival = vec![0u64; dag.node_count()];
        let mut compute_latency = vec![0u64; dag.node_count()];
        let mut channels: Vec<ChannelDepth> = Vec::with_capacity(dag.node_count());
        for &node in order {
            // Both `None` for a memory node.
            let stencil = program.stencil_at(node);
            let buffers = internal.stencil_at(node);
            let first = channels.len();
            let mut need = 0u64;
            for &from in dag.predecessors(node) {
                let delay = arrival[from.index()]
                    + buffers.map_or(0, |b| b.field_delay_words(from))
                    + link_latency(from, node);
                need = need.max(delay);
                channels.push(ChannelDepth {
                    from,
                    to: node,
                    edge_delay: delay,
                    delay_words: 0,
                    depth_words: 0,
                });
            }
            for channel in &mut channels[first..] {
                channel.delay_words = need - channel.edge_delay;
                channel.depth_words = channel.delay_words + config.min_channel_depth;
            }
            let compute = stencil.map_or(0, |s| s.compute_latency(&config.latencies));
            compute_latency[node.index()] = compute;
            arrival[node.index()] = need + compute;
        }

        Ok(DelayBufferAnalysis {
            channels,
            arrival,
            compute_latency,
            vector_width: width,
        })
    }

    /// All channels with their computed depths.
    pub fn channels(&self) -> &[ChannelDepth] {
        &self.channels
    }

    /// Total channel capacity in elements (words × vector width), the
    /// delay-buffer contribution to on-chip memory usage.
    pub(crate) fn total_elements(&self) -> u64 {
        self.channels
            .iter()
            .map(|c| c.depth_words * self.vector_width)
            .sum()
    }

    /// The compute critical path of node `id` in cycles, as the analysis
    /// charged it on every path through the node (zero for a memory node).
    pub(crate) fn compute_latency_at(&self, id: NodeId) -> u64 {
        self.compute_latency[id.index()]
    }

    /// The total pipeline latency `L` of Eq. 1: the largest accumulated delay
    /// over all nodes (reached at some program output).
    pub fn pipeline_latency(&self) -> u64 {
        self.arrival.iter().copied().max().unwrap_or(0)
    }

    /// The vectorization width the analysis was performed with.
    pub fn vector_width(&self) -> u64 {
        self.vector_width
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffers::InternalBufferAnalysis;
    use stencilflow_expr::DataType;
    use stencilflow_program::{StencilProgram, StencilProgramBuilder};

    fn analyze(program: &StencilProgram, config: &AnalysisConfig) -> DelayBufferAnalysis {
        let internal = InternalBufferAnalysis::compute(program, config).unwrap();
        DelayBufferAnalysis::compute(program, &internal, config, None).unwrap()
    }

    /// The channel from node `from` to node `to` of `program`.
    fn channel<'a>(
        program: &StencilProgram,
        analysis: &'a DelayBufferAnalysis,
        from: &str,
        to: &str,
    ) -> &'a ChannelDepth {
        let ends = (program.dag().id(from), program.dag().id(to));
        let mut channels = analysis.channels().iter();
        let found = channels.find(|c| ends == (Some(c.from), Some(c.to)));
        found.unwrap()
    }

    /// The compute latency the analysis charged on node `name` of `program`.
    fn latency(program: &StencilProgram, analysis: &DelayBufferAnalysis, name: &str) -> u64 {
        analysis.compute_latency_at(program.dag().id(name).unwrap())
    }

    /// Fig. 4: A feeds B and C, B feeds C. The direct A->C edge must buffer
    /// B's delay.
    #[test]
    fn fork_join_buffer_covers_slow_path() {
        let program = StencilProgramBuilder::new("p", &[16, 16])
            .input("in", DataType::Float32, &["i", "j"])
            .stencil("a", "in[i,j] * 2.0")
            // b has a j-offset access pattern so it has a real init phase.
            .stencil("b", "a[i,j-1] + a[i,j+1]")
            .stencil("c", "a[i,j] + b[i,j]")
            .output("c")
            .build()
            .unwrap();
        let config = AnalysisConfig::unit_latencies();
        let analysis = analyze(&program, &config);
        // j is the fastest dimension, so b's accesses at j-1/j+1 buffer 3
        // elements: init = 3; compute = 1 add.
        assert_eq!(latency(&program, &analysis, "b"), 1);
        // The a->c channel must absorb exactly b's delay.
        let direct = channel(&program, &analysis, "a", "c");
        let through = channel(&program, &analysis, "b", "c");
        assert_eq!(through.delay_words, 0);
        assert_eq!(direct.delay_words, 3 + 1);
    }

    /// Fig. 8: an input edge bypassing two kernels of latency 64 and 16 gets
    /// a 64+16 deep buffer.
    #[test]
    fn bypass_edge_gets_sum_of_latencies() {
        // Construct kernels whose delays we control through their access
        // patterns: radius-r accesses along the fastest dimension give an
        // init phase of 2r+1 with unit latency adding the compute ops.
        let program = StencilProgramBuilder::new("p", &[128])
            .input("src", DataType::Float32, &["i"])
            .stencil("ka", "src[i-4] + src[i+4]")
            .stencil("kb", "ka[i-2] + ka[i+2]")
            .stencil("kc", "src[i] + kb[i]")
            .output("kc")
            .build()
            .unwrap();
        let config = AnalysisConfig::unit_latencies();
        let analysis = analyze(&program, &config);
        assert_eq!(latency(&program, &analysis, "ka"), 1);
        assert_eq!(latency(&program, &analysis, "kb"), 1);
        assert_eq!(latency(&program, &analysis, "src"), 0);
        // The src->kc edge bypasses both kernels: ka's init 9 + 1 add, kb's
        // init 5 + 1 add.
        let bypass = channel(&program, &analysis, "src", "kc");
        assert_eq!(bypass.delay_words, 10 + 6);
        let through = channel(&program, &analysis, "kb", "kc");
        assert_eq!(through.delay_words, 0);
    }

    #[test]
    fn linear_chain_needs_only_minimum_depth() {
        let program = StencilProgramBuilder::new("p", &[64])
            .input("a", DataType::Float32, &["i"])
            .stencil("b", "a[i-1] + a[i+1]")
            .stencil("c", "b[i-1] + b[i+1]")
            .output("c")
            .build()
            .unwrap();
        let config = AnalysisConfig::paper_defaults();
        let analysis = analyze(&program, &config);
        for channel in analysis.channels() {
            assert_eq!(channel.delay_words, 0, "chain edges need no delay buffer");
            assert_eq!(channel.depth_words, config.min_channel_depth);
        }
    }

    #[test]
    fn every_node_has_a_zero_delay_edge() {
        let program = crate::tests_support::listing1();
        let analysis = analyze(&program, &AnalysisConfig::paper_defaults());
        for stencil in program.stencils() {
            let id = program.dag().id(&stencil.name);
            let mut incoming = analysis.channels().iter().filter(|c| Some(c.to) == id);
            assert!(incoming.any(|c| c.delay_words == 0), "{}", stencil.name);
        }
    }

    /// A link on a path adds its latency to everything downstream of it,
    /// and a bypass of the link buffers it.
    #[test]
    fn cross_device_edges_carry_the_link_latency() {
        use crate::partition::PartitionConfig;
        let program = StencilProgramBuilder::new("p", &[64])
            .input("src", DataType::Float32, &["i"])
            .stencil("ka", "src[i-1] + src[i+1]")
            .stencil("kb", "ka[i-1] + ka[i+1]")
            .stencil("kc", "src[i] + kb[i]")
            .output("kc")
            .build()
            .unwrap();
        let config = AnalysisConfig::unit_latencies();
        let internal = InternalBufferAnalysis::compute(&program, &config).unwrap();
        let local = analyze(&program, &config);
        let devices = PartitionConfig {
            link_latency_cycles: 7,
            ..PartitionConfig::devices(3)
        };
        let plan = MultiDevicePlan::partition(&program, &devices).unwrap();
        let split = DelayBufferAnalysis::compute(&program, &internal, &config, Some(&plan));
        let split = split.unwrap();
        // ka, kb and kc sit on devices 0, 1 and 2: two links on the long
        // path, none on the bypass (`src` is read from each device's DRAM).
        let remote = |from, to| {
            let id = |name| program.dag().id(name).unwrap();
            plan.is_remote(id(from), id(to))
        };
        assert!(remote("ka", "kb") && remote("kb", "kc"));
        assert!(!remote("src", "kc"));
        assert_eq!(split.pipeline_latency(), local.pipeline_latency() + 14);
        let bypass = |analysis| channel(&program, analysis, "src", "kc").delay_words;
        assert_eq!(bypass(&split), bypass(&local) + 14);
        assert_eq!(channel(&program, &split, "kb", "kc").delay_words, 0);
    }

    #[test]
    fn pipeline_latency_accumulates_along_longest_path() {
        let program = StencilProgramBuilder::new("p", &[64])
            .input("a", DataType::Float32, &["i"])
            .stencil("b", "a[i-1] + a[i+1]")
            .stencil("c", "b[i-1] + b[i+1]")
            .output("c")
            .build()
            .unwrap();
        let config = AnalysisConfig::unit_latencies();
        let analysis = analyze(&program, &config);
        // Each stencil: init 3 + one add = 4; two stencils chained = 8.
        assert_eq!(analysis.pipeline_latency(), 8);
    }

    #[test]
    fn vectorization_shrinks_delays() {
        let build = |w: usize| {
            StencilProgramBuilder::new("p", &[64, 64])
                .input("a", DataType::Float32, &["i", "j"])
                .stencil("b", "a[i-1,j] + a[i+1,j]")
                .stencil("c", "a[i,j] + b[i,j]")
                .output("c")
                .vectorization(w)
                .build()
                .unwrap()
        };
        let config = AnalysisConfig::unit_latencies();
        let (narrow, wide) = (build(1), build(4));
        let depth = |program| channel(program, &analyze(program, &config), "a", "c").delay_words;
        let (narrow_depth, wide_depth) = (depth(&narrow), depth(&wide));
        assert!(wide_depth < narrow_depth);
    }

    #[test]
    fn total_elements_scale_with_width_and_min_depth() {
        let program = crate::tests_support::listing1();
        let base = analyze(&program, &AnalysisConfig::unit_latencies());
        let with_slack = AnalysisConfig {
            min_channel_depth: 8,
            ..AnalysisConfig::unit_latencies()
        };
        let slack = analyze(&program, &with_slack);
        assert!(slack.total_elements() > base.total_elements());
        assert_eq!(base.vector_width(), 1);
    }
}
