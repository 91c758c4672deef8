//! The stencil dependency DAG.
//!
//! Nodes are input memories, stencil operations, and output memories; edges
//! are data dependencies (a stencil consuming a field produced by an input
//! memory or another stencil). This is the graph of Fig. 2 in the paper, and
//! the structure all buffering and mapping analyses operate on.

use crate::error::{ProgramError, Result};
use crate::program::StencilProgram;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// The role of a DAG node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// Off-chip input memory (one per input field).
    Input,
    /// A stencil operation.
    Stencil,
    /// Off-chip output memory (one per program output).
    Output,
}

impl fmt::Display for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeKind::Input => f.write_str("input"),
            NodeKind::Stencil => f.write_str("stencil"),
            NodeKind::Output => f.write_str("output"),
        }
    }
}

/// A node of the stencil DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DagNode {
    /// Node name. Inputs and stencils use their program names; output
    /// memories are named `<stencil>__out`.
    pub name: String,
    /// Node role.
    pub kind: NodeKind,
}

/// A directed edge of the stencil DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DagEdge {
    /// Producer node name.
    pub from: String,
    /// Consumer node name.
    pub to: String,
    /// The field carried by this edge (the producer's output field).
    pub field: String,
}

/// The stencil dependency graph.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StencilDag {
    nodes: BTreeMap<String, NodeKind>,
    edges: Vec<DagEdge>,
    successors: BTreeMap<String, Vec<usize>>,
    predecessors: BTreeMap<String, Vec<usize>>,
}

impl StencilDag {
    /// Name used for the output-memory node of a program output.
    pub fn output_node_name(stencil: &str) -> String {
        format!("{stencil}__out")
    }

    /// Build the DAG of a stencil program. A read of a symbol that is
    /// neither an input nor a stencil adds no edge: validation reports it.
    pub(crate) fn from_program(program: &StencilProgram) -> Self {
        let mut dag = StencilDag::default();
        for (name, _) in program.inputs() {
            dag.add_node(name, NodeKind::Input);
        }
        for stencil in program.stencils() {
            dag.add_node(&stencil.name, NodeKind::Stencil);
        }
        for stencil in program.stencils() {
            for (field, _) in stencil.accesses.iter() {
                if program.is_input(field) || program.is_stencil(field) {
                    dag.add_edge(field, &stencil.name, field);
                }
            }
        }
        for output in program.outputs() {
            let sink = Self::output_node_name(output);
            dag.add_node(&sink, NodeKind::Output);
            dag.add_edge(output, &sink, output);
        }
        dag
    }

    /// Create an empty DAG (used by tests and synthetic-graph tooling).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node; re-adding an existing node keeps its original kind.
    pub fn add_node(&mut self, name: &str, kind: NodeKind) {
        if !self.nodes.contains_key(name) {
            self.nodes.insert(name.to_string(), kind);
            self.successors.insert(name.to_string(), Vec::new());
            self.predecessors.insert(name.to_string(), Vec::new());
        }
    }

    /// Add a directed edge carrying `field` from `from` to `to`. Both nodes
    /// must already exist (or are created as stencil nodes).
    pub fn add_edge(&mut self, from: &str, to: &str, field: &str) {
        self.add_node(from, NodeKind::Stencil);
        self.add_node(to, NodeKind::Stencil);
        let index = self.edges.len();
        self.edges.push(DagEdge {
            from: from.to_string(),
            to: to.to_string(),
            field: field.to_string(),
        });
        self.successors
            .get_mut(from)
            .expect("node added above")
            .push(index);
        self.predecessors
            .get_mut(to)
            .expect("node added above")
            .push(index);
    }

    /// Iterate over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = DagNode> + '_ {
        self.nodes.iter().map(|(name, kind)| DagNode {
            name: name.clone(),
            kind: *kind,
        })
    }

    /// The kind of a node, if it exists.
    pub fn node_kind(&self, name: &str) -> Option<NodeKind> {
        self.nodes.get(name).copied()
    }

    /// Whether an edge from `from` to `to` exists.
    pub fn has_edge(&self, from: &str, to: &str) -> bool {
        self.successors
            .get(from)
            .map(|edges| edges.iter().any(|&e| self.edges[e].to == to))
            .unwrap_or(false)
    }

    /// Edges leaving `node`.
    fn out_edges(&self, node: &str) -> Vec<&DagEdge> {
        self.successors
            .get(node)
            .map(|edges| edges.iter().map(|&e| &self.edges[e]).collect())
            .unwrap_or_default()
    }

    /// Edges entering `node`.
    pub fn in_edges(&self, node: &str) -> Vec<&DagEdge> {
        self.predecessors
            .get(node)
            .map(|edges| edges.iter().map(|&e| &self.edges[e]).collect())
            .unwrap_or_default()
    }

    /// Names of the direct successors of `node`.
    fn successors(&self, node: &str) -> Vec<String> {
        self.out_edges(node).iter().map(|e| e.to.clone()).collect()
    }

    /// In-degree of a node.
    pub fn in_degree(&self, node: &str) -> usize {
        self.predecessors.get(node).map(Vec::len).unwrap_or(0)
    }

    /// Out-degree of a node.
    pub fn out_degree(&self, node: &str) -> usize {
        self.successors.get(node).map(Vec::len).unwrap_or(0)
    }

    /// Kahn's algorithm: the nodes in the order their last predecessor was
    /// sorted, and the in-degree each node has left. A cyclic graph leaves the
    /// nodes on and behind its cycles unsorted, with a non-zero rest.
    fn kahn(&self) -> (Vec<&str>, BTreeMap<&str, usize>) {
        let mut in_degree: BTreeMap<&str, usize> = self
            .nodes
            .keys()
            .map(|n| (n.as_str(), self.in_degree(n)))
            .collect();
        let mut queue: VecDeque<&str> = in_degree
            .iter()
            .filter(|(_, &d)| d == 0)
            .map(|(&n, _)| n)
            .collect();
        let mut order = Vec::with_capacity(self.nodes.len());
        while let Some(node) = queue.pop_front() {
            order.push(node);
            for &edge in &self.successors[node] {
                let to = self.edges[edge].to.as_str();
                let entry = in_degree.get_mut(to).expect("node exists");
                *entry -= 1;
                if *entry == 0 {
                    queue.push_back(to);
                }
            }
        }
        (order, in_degree)
    }

    /// Topological order of all nodes (Kahn's algorithm).
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError::Cycle`] if the graph contains a cycle.
    pub(crate) fn topological_order(&self) -> Result<Vec<String>> {
        let (order, in_degree) = self.kahn();
        if let Some((stuck, _)) = in_degree.iter().find(|(_, &rest)| rest > 0) {
            return Err(ProgramError::Cycle {
                node: stuck.to_string(),
            });
        }
        Ok(order.into_iter().map(str::to_string).collect())
    }

    /// Whether any pair of nodes in the graph has reconvergent paths, i.e.
    /// the DAG is *not* a multi-tree and therefore requires delay buffers for
    /// deadlock freedom (§III-A).
    pub fn requires_delay_buffers(&self) -> bool {
        let nodes: Vec<String> = self.nodes.keys().cloned().collect();
        for from in &nodes {
            for to in &nodes {
                // The memo caches path counts towards a fixed `to`, so it
                // cannot be shared between different targets.
                let mut memo = BTreeMap::new();
                if from != to && self.count_paths(from, to, &mut memo) > 1 {
                    return true;
                }
            }
        }
        false
    }

    fn count_paths(&self, from: &str, to: &str, memo: &mut BTreeMap<String, u64>) -> u64 {
        if from == to {
            return 1;
        }
        if let Some(&cached) = memo.get(from) {
            return cached;
        }
        let total: u64 = self
            .successors(from)
            .iter()
            .map(|next| self.count_paths(next, to, memo).min(1_000_000))
            .sum();
        memo.insert(from.to_string(), total);
        total
    }

    /// Length (in edges) of the longest path ending at each sorted node, in
    /// one pass over the topological order.
    fn depths(&self) -> BTreeMap<&str, usize> {
        let mut depths: BTreeMap<&str, usize> = BTreeMap::new();
        for node in self.kahn().0 {
            let depth = self.predecessors[node]
                .iter()
                .map(|&edge| 1 + depths[self.edges[edge].from.as_str()])
                .max()
                .unwrap_or(0);
            depths.insert(node, depth);
        }
        depths
    }

    /// Length (in edges) of the longest path ending at `node` (0 for a node
    /// that is unknown or not topologically sortable).
    pub fn depth_of(&self, node: &str) -> usize {
        self.depths().get(node).copied().unwrap_or(0)
    }

    /// The maximum depth over all nodes (the depth of the DAG, which
    /// adversely affects the performance upper bound per §VIII-A).
    pub fn max_depth(&self) -> usize {
        self.depths().into_values().max().unwrap_or(0)
    }
}

/// Per-edge access footprints of a stencil program over the
/// **iteration-space dimensions**.
///
/// For every `(consumer stencil, consumed field)` pair this records the
/// per-space-dimension `(min, max)` offset extent of the consumer's
/// accesses to that field — the halo the consumer needs around any region
/// of the producer. This is the geometric core of the paper's buffering
/// analysis (§IV) expressed in iteration-space coordinates, and it drives
/// the reference executor's fused tier: a plane of a consumer's output
/// requires each producer over the plane *dilated* by this footprint, and
/// chaining the footprints along the DAG yields each stage's lag behind the
/// wavefront and the depth of each field's ring buffer.
///
/// Dimensions a field access does not index contribute `(0, 0)` (reading a
/// lower-dimensional field broadcasts along the missing dimensions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessFootprints {
    /// `(consumer stencil, field)` → per-space-dimension offset extents.
    extents: BTreeMap<(String, String), Vec<(i64, i64)>>,
    rank: usize,
}

impl AccessFootprints {
    /// Compute the footprints of every access edge of `program`.
    pub fn of_program(program: &StencilProgram) -> Self {
        let space = program.space();
        let rank = space.rank();
        let mut extents: BTreeMap<(String, String), Vec<(i64, i64)>> = BTreeMap::new();
        for stencil in program.stencils() {
            for (field, info) in stencil.accesses.iter() {
                if info.index_vars.is_empty() {
                    // Scalar symbol: no geometry, no footprint edge.
                    continue;
                }
                let entry = extents
                    .entry((stencil.name.clone(), field.to_string()))
                    .or_insert_with(|| vec![(0, 0); rank]);
                for offsets in &info.offsets {
                    for (var, &off) in info.index_vars.iter().zip(offsets.iter()) {
                        if let Some(dim) = space.dim_index(var) {
                            entry[dim].0 = entry[dim].0.min(off);
                            entry[dim].1 = entry[dim].1.max(off);
                        }
                    }
                }
            }
        }
        AccessFootprints { extents, rank }
    }

    /// The `(min, max)` offset extent per space dimension of `consumer`'s
    /// accesses to `field`, or `None` if the consumer does not read it.
    pub fn extent(&self, consumer: &str, field: &str) -> Option<&[(i64, i64)]> {
        self.extents
            .get(&(consumer.to_string(), field.to_string()))
            .map(Vec::as_slice)
    }

    /// Iterate over every `(consumer, field)` edge with its extents.
    pub fn edges(&self) -> impl Iterator<Item = (&str, &str, &[(i64, i64)])> {
        self.extents
            .iter()
            .map(|((consumer, field), ext)| (consumer.as_str(), field.as_str(), ext.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fig. 4 of the paper: A feeds both B and C, B feeds C.
    fn fork_join() -> StencilDag {
        let mut dag = StencilDag::new();
        dag.add_node("in", NodeKind::Input);
        dag.add_node("A", NodeKind::Stencil);
        dag.add_node("B", NodeKind::Stencil);
        dag.add_node("C", NodeKind::Stencil);
        dag.add_edge("in", "A", "in");
        dag.add_edge("A", "B", "A");
        dag.add_edge("A", "C", "A");
        dag.add_edge("B", "C", "B");
        dag
    }

    #[test]
    fn degrees_and_queries() {
        let dag = fork_join();
        assert_eq!(dag.nodes().count(), 4);
        assert_eq!(dag.edges.len(), 4);
        assert_eq!(dag.in_degree("C"), 2);
        assert_eq!(dag.out_degree("A"), 2);
        assert!(dag.has_edge("A", "B"));
        assert!(!dag.has_edge("B", "A"));
    }

    #[test]
    fn topological_order_is_valid() {
        let dag = fork_join();
        let order = dag.topological_order().unwrap();
        let pos = |n: &str| order.iter().position(|x| x == n).unwrap();
        assert!(pos("in") < pos("A"));
        assert!(pos("A") < pos("B"));
        assert!(pos("B") < pos("C"));
        assert!(pos("A") < pos("C"));
    }

    #[test]
    fn cycle_detection() {
        let mut dag = StencilDag::new();
        dag.add_edge("a", "b", "a");
        dag.add_edge("b", "c", "b");
        dag.add_edge("c", "a", "c");
        assert!(matches!(
            dag.topological_order(),
            Err(ProgramError::Cycle { .. })
        ));
    }

    #[test]
    fn cycle_error_names_a_node_on_the_cycle() {
        // `in` and `a0` sort; the cycle b -> c -> d -> b does not.
        let mut dag = StencilDag::new();
        dag.add_edge("in", "a0", "in");
        dag.add_edge("a0", "b", "a0");
        dag.add_edge("b", "c", "b");
        dag.add_edge("c", "d", "c");
        dag.add_edge("d", "b", "d");
        match dag.topological_order() {
            Err(ProgramError::Cycle { node }) => {
                assert!(["b", "c", "d"].contains(&node.as_str()), "{node}")
            }
            other => panic!("expected a cycle error, got {other:?}"),
        }
        // The depth queries terminate on it, too.
        assert_eq!(dag.depth_of("a0"), 1);
        assert_eq!(dag.depth_of("c"), 0);
        assert_eq!(dag.max_depth(), 1);
    }

    #[test]
    fn reconvergent_paths_detected() {
        let dag = fork_join();
        // A -> C directly and A -> B -> C: two paths.
        assert!(dag.requires_delay_buffers());
    }

    #[test]
    fn linear_chain_needs_no_delay_buffers() {
        let mut dag = StencilDag::new();
        dag.add_edge("a", "b", "a");
        dag.add_edge("b", "c", "b");
        dag.add_edge("c", "d", "c");
        assert!(!dag.requires_delay_buffers());
    }

    #[test]
    fn depth_and_reachability() {
        let dag = fork_join();
        assert_eq!(dag.depth_of("in"), 0);
        assert_eq!(dag.depth_of("A"), 1);
        assert_eq!(dag.depth_of("C"), 3);
        assert_eq!(dag.max_depth(), 3);
    }

    /// The recursive definition the one-pass `depths` replaced.
    fn recursive_depth(dag: &StencilDag, node: &str) -> usize {
        dag.in_edges(node)
            .iter()
            .map(|e| 1 + recursive_depth(dag, &e.from))
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn depths_equal_the_recursive_definition() {
        // A diamond whose two arms are diamonds themselves, one arm a stage
        // longer than the other.
        let mut nested = StencilDag::new();
        for (from, to) in [
            ("s", "l0"),
            ("l0", "l1"),
            ("l0", "l2"),
            ("l1", "l3"),
            ("l2", "l3"),
            ("s", "r0"),
            ("r0", "r1"),
            ("r0", "r2"),
            ("r1", "r3"),
            ("r2", "r3"),
            ("r3", "r4"),
            ("l3", "t"),
            ("r4", "t"),
            ("s", "t"),
        ] {
            nested.add_edge(from, to, from);
        }
        assert_eq!(nested.depth_of("l3"), 3);
        assert_eq!(nested.depth_of("t"), 5);
        assert_eq!(nested.max_depth(), 5);
        for dag in [fork_join(), nested] {
            let mut deepest = 0;
            for node in dag.nodes() {
                let expected = recursive_depth(&dag, &node.name);
                assert_eq!(dag.depth_of(&node.name), expected, "{}", node.name);
                deepest = deepest.max(expected);
            }
            assert_eq!(dag.max_depth(), deepest);
        }
        assert_eq!(StencilDag::new().max_depth(), 0);
        assert_eq!(fork_join().depth_of("missing"), 0);
    }

    #[test]
    fn output_node_naming() {
        assert_eq!(StencilDag::output_node_name("b4"), "b4__out");
    }

    #[test]
    fn access_footprints_report_space_dim_extents() {
        use crate::program::StencilProgramBuilder;
        use stencilflow_expr::DataType;
        let program = StencilProgramBuilder::new("fp", &[8, 9, 10])
            .input("u", DataType::Float32, &["i", "j", "k"])
            .input("surf", DataType::Float32, &["i", "k"])
            .scalar("dt", DataType::Float32)
            .stencil(
                "s",
                "u[i-2,j,k] + u[i+1,j,k] + u[i,j,k-3] + surf[i,k+1] * dt",
            )
            .stencil("t", "s[i,j-1,k] + s[i,j+2,k]")
            .output("t")
            .build()
            .unwrap();
        let footprints = AccessFootprints::of_program(&program);
        // `s` reads `u` at i in [-2, 1], j exactly 0, k in [-3, 0].
        assert_eq!(
            footprints.extent("s", "u").unwrap(),
            &[(-2, 1), (0, 0), (-3, 0)]
        );
        // The lower-dimensional `surf` access contributes (0,0) for the
        // missing j dimension and its own k offset.
        assert_eq!(
            footprints.extent("s", "surf").unwrap(),
            &[(0, 0), (0, 0), (0, 1)]
        );
        // Scalars never appear as footprint edges.
        assert!(footprints.extent("s", "dt").is_none());
        // `t` reads `s` only along j.
        assert_eq!(
            footprints.extent("t", "s").unwrap(),
            &[(0, 0), (-1, 2), (0, 0)]
        );
        assert!(footprints.extent("t", "u").is_none());
        assert_eq!(footprints.edges().count(), 3);
    }
}
