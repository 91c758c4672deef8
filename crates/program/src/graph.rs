//! The stencil dependency DAG.
//!
//! Nodes are input memories, stencil operations, and output memories; edges
//! are data dependencies (a stencil consuming a field produced by an input
//! memory or another stencil). This is the graph of Fig. 2 in the paper, and
//! the structure all buffering and mapping analyses operate on.
//!
//! Every node has a [`NodeId`], its position in the program's
//! [`NameTable`]: the fields (inputs and stencils) first, in name order,
//! then the output memories, in name order. A field's id is the id of the
//! node that produces it. Edges keep the order they were
//! added in (each stencil in name order, its reads in name order, then the
//! outputs in declaration order), and every successor and predecessor list
//! follows it, so Kahn's algorithm over ids sorts the nodes in exactly the
//! order the same algorithm over names does.

use crate::error::{ProgramError, Result};
use crate::program::StencilProgram;
use std::fmt;
use std::sync::Arc;

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

/// A DAG node's position in its program's [`NameTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// The position, for indexing per-node tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    fn at(index: usize) -> NodeId {
        NodeId(u32::try_from(index).expect("fewer than 2^32 DAG nodes"))
    }
}

/// The names of a program's DAG nodes, indexed by [`NodeId`]: the fields
/// (inputs and stencils) in name order, then the output memories in name
/// order. Names are resolved here, at the edges of the system (JSON,
/// diagnostics, reports and emitted text); the analyses run on ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NameTable {
    names: Vec<String>,
    fields: usize,
}

impl NameTable {
    /// The id of the node called `name`.
    pub fn id(&self, name: &str) -> Option<NodeId> {
        let (fields, outputs) = self.names.split_at(self.fields);
        let find = |names: &[String]| names.binary_search_by(|n| n.as_str().cmp(name)).ok();
        match find(fields) {
            Some(ix) => Some(NodeId::at(ix)),
            None => find(outputs).map(|ix| NodeId::at(self.fields + ix)),
        }
    }

    /// The id of the field called `name` (never an output memory).
    pub(crate) fn field_id(&self, name: &str) -> Option<NodeId> {
        let fields = &self.names[..self.fields];
        let ix = fields.binary_search_by(|n| n.as_str().cmp(name)).ok()?;
        Some(NodeId::at(ix))
    }

    /// The name of node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an id of this table.
    pub fn name(&self, id: NodeId) -> &str {
        &self.names[id.index()]
    }

    /// Number of fields; they take the ids `0..field_count()`.
    pub(crate) fn field_count(&self) -> usize {
        self.fields
    }
}

/// A node of the stencil DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DagNode<'a> {
    /// Node id.
    pub id: NodeId,
    /// Node name. Inputs and stencils use their program names; output
    /// memories are named `<stencil>__out`.
    pub name: &'a str,
    /// Node role.
    pub kind: NodeKind,
}

/// Per-node lists in one flat buffer (compressed sparse rows): node `v`'s
/// list is `items[start[v]..start[v + 1]]`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct Csr {
    start: Vec<u32>,
    items: Vec<NodeId>,
}

impl Csr {
    /// The lists of `nodes` nodes holding, for each `(key, item)` pair in
    /// order, `item` in `key`'s list.
    fn build(nodes: usize, pairs: impl Iterator<Item = (NodeId, NodeId)> + Clone) -> Csr {
        let mut start = vec![0u32; nodes + 1];
        for (key, _) in pairs.clone() {
            start[key.index() + 1] += 1;
        }
        for v in 0..nodes {
            start[v + 1] += start[v];
        }
        let mut fill = start.clone();
        let mut items = vec![NodeId(0); start[nodes] as usize];
        for (key, item) in pairs {
            items[fill[key.index()] as usize] = item;
            fill[key.index()] += 1;
        }
        Csr { start, items }
    }

    fn of(&self, node: NodeId) -> &[NodeId] {
        let v = node.index();
        &self.items[self.start[v] as usize..self.start[v + 1] as usize]
    }
}

/// The stencil dependency graph: one kind per node, and the successor and
/// predecessor lists of every node in edge order. The field an edge carries
/// is its producer's output field, so an edge is its two ends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StencilDag {
    names: Arc<NameTable>,
    kinds: Vec<NodeKind>,
    successors: Csr,
    predecessors: Csr,
}

impl StencilDag {
    /// Name used for the output-memory node of a program output.
    pub fn output_node_name(stencil: &str) -> String {
        format!("{stencil}__out")
    }

    /// Build the DAG of a stencil program. A read of a symbol that is
    /// neither an input nor a stencil adds no edge: validation reports it.
    pub(crate) fn from_program(program: &StencilProgram) -> Self {
        // The fields: inputs and stencils merged in name order. A name that
        // is both (validation rejects it) is one input node.
        let mut inputs = program.inputs().map(|(name, _)| name).peekable();
        let mut stencils = program.stencils().map(|s| s.name.as_str()).peekable();
        let mut names: Vec<String> = Vec::with_capacity(program.stencil_count() + 8);
        let mut kinds = Vec::with_capacity(names.capacity());
        loop {
            let (name, kind) = match (inputs.peek(), stencils.peek()) {
                (Some(&i), Some(&s)) if s < i => (stencils.next(), NodeKind::Stencil),
                (Some(&i), Some(&s)) if s == i => {
                    stencils.next();
                    (inputs.next(), NodeKind::Input)
                }
                (Some(_), _) => (inputs.next(), NodeKind::Input),
                (None, Some(_)) => (stencils.next(), NodeKind::Stencil),
                (None, None) => break,
            };
            names.push(name.expect("peeked").to_string());
            kinds.push(kind);
        }
        let fields = names.len();
        let mut table = NameTable { names, fields };

        let mut edges: Vec<(NodeId, NodeId)> = Vec::with_capacity(fields + 8);
        for stencil in program.stencils() {
            let to = table.field_id(&stencil.name).expect("stencils are fields");
            for (field, _) in stencil.accesses.iter() {
                if let Some(from) = table.field_id(field) {
                    edges.push((from, to));
                }
            }
        }
        // One memory per distinct output; a field that takes a memory's
        // name (validation rejects it) is that memory's node instead.
        let mut sinks: Vec<(String, NodeId)> = Vec::with_capacity(program.outputs().len());
        for output in program.outputs() {
            if let Some(from) = table.field_id(output) {
                sinks.push((Self::output_node_name(output), from));
            }
        }
        let mut memories: Vec<&str> = (sinks.iter())
            .map(|(sink, _)| sink.as_str())
            .filter(|sink| table.field_id(sink).is_none())
            .collect();
        memories.sort_unstable();
        memories.dedup();
        table.names.extend(memories.iter().map(|m| m.to_string()));
        kinds.resize(table.names.len(), NodeKind::Output);
        for (sink, from) in &sinks {
            edges.push((*from, table.id(sink).expect("added above")));
        }

        let nodes = table.names.len();
        let successors = Csr::build(nodes, edges.iter().copied());
        let predecessors = Csr::build(nodes, edges.iter().map(|&(from, to)| (to, from)));
        StencilDag {
            names: Arc::new(table),
            kinds,
            successors,
            predecessors,
        }
    }

    /// The program's name table, shared with the analyses that resolve
    /// names at their edges.
    pub fn names(&self) -> &Arc<NameTable> {
        &self.names
    }

    /// The id of the node called `name`.
    pub fn id(&self, name: &str) -> Option<NodeId> {
        self.names.id(name)
    }

    /// The name of node `id`.
    pub fn name(&self, id: NodeId) -> &str {
        self.names.name(id)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.kinds.len()
    }

    /// The kind of node `id`.
    pub fn kind(&self, id: NodeId) -> NodeKind {
        self.kinds[id.index()]
    }

    /// Iterate over all nodes, in id order.
    pub fn nodes(&self) -> impl Iterator<Item = DagNode<'_>> {
        (self.kinds.iter().enumerate()).map(|(ix, &kind)| {
            let id = NodeId::at(ix);
            DagNode {
                id,
                name: self.names.name(id),
                kind,
            }
        })
    }

    /// The consumers of node `id`'s field, one per edge, in edge order.
    pub fn successors(&self, id: NodeId) -> &[NodeId] {
        self.successors.of(id)
    }

    /// The producers of the fields node `id` reads, one per edge, in edge
    /// order: each in-edge of `id` carries its producer's field.
    pub fn predecessors(&self, id: NodeId) -> &[NodeId] {
        self.predecessors.of(id)
    }

    /// Kahn's algorithm: the nodes in the order their last predecessor was
    /// sorted, and the in-degree each node has left. A cyclic graph leaves the
    /// nodes on and behind its cycles unsorted, with a non-zero rest.
    fn kahn(&self) -> (Vec<NodeId>, Vec<u32>) {
        let nodes = self.kinds.len();
        let mut rest: Vec<u32> = (0..nodes)
            .map(|v| self.predecessors.of(NodeId::at(v)).len() as u32)
            .collect();
        // `order` is the queue: a node is pushed once, when its rest
        // reaches zero, and the nodes before `head` are popped.
        let mut order: Vec<NodeId> = Vec::with_capacity(nodes);
        order.extend((0..nodes).filter(|&v| rest[v] == 0).map(NodeId::at));
        let mut head = 0;
        while let Some(&node) = order.get(head) {
            head += 1;
            for &to in self.successors.of(node) {
                rest[to.index()] -= 1;
                if rest[to.index()] == 0 {
                    order.push(to);
                }
            }
        }
        (order, rest)
    }

    /// Topological order of all nodes (Kahn's algorithm).
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError::Cycle`] if the graph contains a cycle, naming
    /// a node on it.
    pub(crate) fn topological_order(&self) -> Result<Vec<NodeId>> {
        let (order, rest) = self.kahn();
        if order.len() == self.kinds.len() {
            return Ok(order);
        }
        Err(ProgramError::Cycle {
            node: self.cycle_node(&rest).to_string(),
        })
    }

    /// The lowest-named node on a cycle among the nodes Kahn's algorithm
    /// left with a non-zero `rest`. Every such node has an unsorted
    /// predecessor, so walking first unsorted predecessors from the first
    /// unsorted node repeats a node; the nodes from its first visit on are
    /// a cycle.
    fn cycle_node(&self, rest: &[u32]) -> &str {
        let stuck = |v: NodeId| rest[v.index()] > 0;
        let mut visited_at: Vec<Option<usize>> = vec![None; rest.len()];
        let mut path: Vec<NodeId> = Vec::new();
        let mut node = (0..rest.len())
            .map(NodeId::at)
            .find(|&v| stuck(v))
            .expect("a cyclic graph leaves a node unsorted");
        while visited_at[node.index()].is_none() {
            visited_at[node.index()] = Some(path.len());
            path.push(node);
            node = *(self.predecessors.of(node).iter())
                .find(|&&p| stuck(p))
                .expect("an unsorted node has an unsorted predecessor");
        }
        let first = visited_at[node.index()].expect("the loop ends on a visited node");
        (path[first..].iter())
            .map(|&v| self.names.name(v))
            .min()
            .expect("a cycle has a node")
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
/// lower-dimensional field broadcasts along the missing dimensions). The
/// pairs are ids, in name order; the extents sit in one flat buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessFootprints {
    names: Arc<NameTable>,
    rank: usize,
    /// `(consumer stencil, field)` pairs, sorted.
    pairs: Vec<(NodeId, NodeId)>,
    /// `rank` extents per pair, in pair order.
    extents: Vec<(i64, i64)>,
}

impl AccessFootprints {
    /// Compute the footprints of every access edge of `program`. A read of
    /// a field the program does not declare has none (validation rejects
    /// such a program).
    pub fn of_program(program: &StencilProgram) -> Self {
        let space = program.space();
        let rank = space.rank();
        let names = program.dag().names();
        let mut pairs = Vec::with_capacity(program.stencil_count());
        let mut extents = Vec::with_capacity(program.stencil_count() * rank);
        // Stencils and their reads iterate in name order, which is id order.
        for stencil in program.stencils() {
            let consumer = names.field_id(&stencil.name).expect("stencils are fields");
            for (field, info) in stencil.accesses.iter() {
                if info.index_vars.is_empty() {
                    // Scalar symbol: no geometry, no footprint edge.
                    continue;
                }
                let Some(field) = names.field_id(field) else {
                    continue;
                };
                pairs.push((consumer, field));
                let at = extents.len();
                extents.resize(at + rank, (0, 0));
                let entry = &mut extents[at..];
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
        AccessFootprints {
            names: Arc::clone(names),
            rank,
            pairs,
            extents,
        }
    }

    fn extents_at(&self, pair: usize) -> &[(i64, i64)] {
        &self.extents[pair * self.rank..(pair + 1) * self.rank]
    }

    /// The `(min, max)` offset extent per space dimension of `consumer`'s
    /// accesses to `field` (both field ids), or `None` if the consumer does
    /// not read it.
    pub fn extent(&self, consumer: NodeId, field: NodeId) -> Option<&[(i64, i64)]> {
        let at = self.pairs.binary_search(&(consumer, field)).ok()?;
        Some(self.extents_at(at))
    }

    /// Iterate over every `(consumer, field)` edge with its extents, in
    /// name order.
    pub fn edges(&self) -> impl Iterator<Item = (&str, &str, &[(i64, i64)])> {
        (self.pairs.iter().enumerate()).map(|(at, &(consumer, field))| {
            let names = &self.names;
            (names.name(consumer), names.name(field), self.extents_at(at))
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A DAG over the named nodes with the given edges, in that order;
    /// every node is a field. The graph queries the library had for
    /// hand-built DAGs live here now, with the tests that use them.
    pub(crate) fn dag_of(nodes: &[(&str, NodeKind)], edges: &[(&str, &str)]) -> StencilDag {
        let mut named: Vec<(&str, NodeKind)> = nodes.to_vec();
        for &(from, to) in edges {
            for end in [from, to] {
                if !named.iter().any(|(n, _)| *n == end) {
                    named.push((end, NodeKind::Stencil));
                }
            }
        }
        named.sort_by_key(|&(name, _)| name);
        let table = NameTable {
            names: named.iter().map(|(n, _)| n.to_string()).collect(),
            fields: named.len(),
        };
        let id = |name: &str| table.id(name).unwrap();
        let pairs: Vec<(NodeId, NodeId)> = edges.iter().map(|&(f, t)| (id(f), id(t))).collect();
        StencilDag {
            kinds: named.iter().map(|&(_, kind)| kind).collect(),
            successors: Csr::build(named.len(), pairs.iter().copied()),
            predecessors: Csr::build(named.len(), pairs.iter().map(|&(f, t)| (t, f))),
            names: Arc::new(table),
        }
    }

    pub(crate) fn has_edge(dag: &StencilDag, from: &str, to: &str) -> bool {
        let (Some(from), Some(to)) = (dag.id(from), dag.id(to)) else {
            return false;
        };
        dag.successors(from).contains(&to)
    }

    /// Length (in edges) of the longest path ending at each sorted node, in
    /// one pass over the topological order (`None` for an unsorted node).
    fn depths(dag: &StencilDag) -> Vec<Option<usize>> {
        let mut depths = vec![None; dag.node_count()];
        for node in dag.kahn().0 {
            let depth = (dag.predecessors(node).iter())
                .map(|p| 1 + depths[p.index()].expect("sorted before"))
                .max()
                .unwrap_or(0);
            depths[node.index()] = Some(depth);
        }
        depths
    }

    fn depth_of(dag: &StencilDag, node: &str) -> usize {
        dag.id(node)
            .and_then(|id| depths(dag)[id.index()])
            .unwrap_or(0)
    }

    fn max_depth(dag: &StencilDag) -> usize {
        depths(dag).into_iter().flatten().max().unwrap_or(0)
    }

    /// Whether some pair of nodes is joined by two paths (the DAG is not a
    /// multi-tree, so it needs delay buffers, §III-A), by brute-force path
    /// counting from every node.
    fn requires_delay_buffers(dag: &StencilDag) -> bool {
        let order = dag.kahn().0;
        (0..dag.node_count()).any(|from| {
            let mut paths = vec![0u64; dag.node_count()];
            paths[from] = 1;
            for &node in &order {
                for &next in dag.successors(node) {
                    paths[next.index()] = (paths[next.index()] + paths[node.index()]).min(2);
                }
            }
            paths.iter().any(|&p| p > 1)
        })
    }

    /// Fig. 4 of the paper: A feeds both B and C, B feeds C.
    fn fork_join() -> StencilDag {
        dag_of(
            &[
                ("in", NodeKind::Input),
                ("A", NodeKind::Stencil),
                ("B", NodeKind::Stencil),
                ("C", NodeKind::Stencil),
            ],
            &[("in", "A"), ("A", "B"), ("A", "C"), ("B", "C")],
        )
    }

    fn chain(edges: &[(&str, &str)]) -> StencilDag {
        dag_of(&[], edges)
    }

    #[test]
    fn degrees_and_queries() {
        let dag = fork_join();
        assert_eq!(dag.nodes().count(), 4);
        assert_eq!(dag.successors.items.len(), 4);
        assert_eq!(dag.predecessors(dag.id("C").unwrap()).len(), 2);
        assert_eq!(dag.successors(dag.id("A").unwrap()).len(), 2);
        assert_eq!(dag.kind(dag.id("in").unwrap()), NodeKind::Input);
        assert!(has_edge(&dag, "A", "B"));
        assert!(!has_edge(&dag, "B", "A"));
    }

    #[test]
    fn topological_order_is_valid() {
        let dag = fork_join();
        let order = dag.topological_order().unwrap();
        let pos = |n: &str| order.iter().position(|&x| dag.name(x) == n).unwrap();
        assert!(pos("in") < pos("A"));
        assert!(pos("A") < pos("B"));
        assert!(pos("B") < pos("C"));
        assert!(pos("A") < pos("C"));
    }

    #[test]
    fn cycle_detection() {
        let dag = chain(&[("a", "b"), ("b", "c"), ("c", "a")]);
        assert!(matches!(
            dag.topological_order(),
            Err(ProgramError::Cycle { .. })
        ));
    }

    #[test]
    fn cycle_error_names_a_node_on_the_cycle() {
        // `in` and `a0` sort; the cycle b -> c -> d -> b does not.
        let dag = chain(&[
            ("in", "a0"),
            ("a0", "b"),
            ("b", "c"),
            ("c", "d"),
            ("d", "b"),
        ]);
        match dag.topological_order() {
            Err(ProgramError::Cycle { node }) => assert_eq!(node, "b"),
            other => panic!("expected a cycle error, got {other:?}"),
        }
        // The depth queries terminate on it, too.
        assert_eq!(depth_of(&dag, "a0"), 1);
        assert_eq!(depth_of(&dag, "c"), 0);
        assert_eq!(max_depth(&dag), 1);
    }

    #[test]
    fn a_node_downstream_of_a_cycle_is_not_named() {
        // `a1` sorts first among the unsorted nodes but only reads the
        // cycle b -> c -> d -> b.
        let dag = chain(&[("x", "b"), ("d", "b"), ("b", "c"), ("c", "d"), ("d", "a1")]);
        match dag.topological_order() {
            Err(ProgramError::Cycle { node }) => assert_eq!(node, "b"),
            other => panic!("expected a cycle error, got {other:?}"),
        }
    }

    #[test]
    fn reconvergent_paths_detected() {
        let dag = fork_join();
        // A -> C directly and A -> B -> C: two paths.
        assert!(requires_delay_buffers(&dag));
    }

    #[test]
    fn linear_chain_needs_no_delay_buffers() {
        let dag = chain(&[("a", "b"), ("b", "c"), ("c", "d")]);
        assert!(!requires_delay_buffers(&dag));
    }

    #[test]
    fn depth_and_reachability() {
        let dag = fork_join();
        assert_eq!(depth_of(&dag, "in"), 0);
        assert_eq!(depth_of(&dag, "A"), 1);
        assert_eq!(depth_of(&dag, "C"), 3);
        assert_eq!(max_depth(&dag), 3);
    }

    /// The recursive definition the one-pass `depths` replaced.
    fn recursive_depth(dag: &StencilDag, node: NodeId) -> usize {
        (dag.predecessors(node).iter())
            .map(|&p| 1 + recursive_depth(dag, p))
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn depths_equal_the_recursive_definition() {
        // A diamond whose two arms are diamonds themselves, one arm a stage
        // longer than the other.
        let nested = chain(&[
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
        ]);
        assert_eq!(depth_of(&nested, "l3"), 3);
        assert_eq!(depth_of(&nested, "t"), 5);
        assert_eq!(max_depth(&nested), 5);
        for dag in [fork_join(), nested] {
            let mut deepest = 0;
            for node in dag.nodes() {
                let expected = recursive_depth(&dag, node.id);
                assert_eq!(depth_of(&dag, node.name), expected, "{}", node.name);
                deepest = deepest.max(expected);
            }
            assert_eq!(max_depth(&dag), deepest);
        }
        assert_eq!(max_depth(&chain(&[])), 0);
        assert_eq!(depth_of(&fork_join(), "missing"), 0);
    }

    #[test]
    fn depth_of_a_20000_node_chain_needs_no_recursion() {
        let nodes = 20_000;
        let names: Vec<String> = (0..nodes).map(|n| format!("n{n}")).collect();
        let edges: Vec<(&str, &str)> = (1..nodes)
            .map(|n| (names[n - 1].as_str(), names[n].as_str()))
            .collect();
        let dag = dag_of(&[("n0", NodeKind::Input)], &edges);
        assert_eq!(max_depth(&dag), nodes - 1);
        assert_eq!(depth_of(&dag, "n12345"), 12_345);
    }

    #[test]
    fn output_node_naming() {
        assert_eq!(StencilDag::output_node_name("b4"), "b4__out");
    }

    #[test]
    fn ids_put_the_fields_first_and_follow_name_order() {
        use crate::program::StencilProgramBuilder;
        use stencilflow_expr::DataType;
        let program = StencilProgramBuilder::new("ids", &[8])
            .input("z", DataType::Float32, &["i"])
            .input("a", DataType::Float32, &["i"])
            .stencil("b", "z[i] + a[i]")
            .stencil("y", "b[i]")
            .output("y")
            .output("b")
            .build()
            .unwrap();
        let dag = program.dag();
        let names: Vec<&str> = dag.nodes().map(|n| n.name).collect();
        assert_eq!(names, ["a", "b", "y", "z", "b__out", "y__out"]);
        assert_eq!(dag.names().field_count(), 4);
        let kinds: Vec<NodeKind> = dag.nodes().map(|n| n.kind).collect();
        use NodeKind::*;
        assert_eq!(kinds, [Input, Stencil, Stencil, Input, Output, Output]);
        let b = dag.id("b").unwrap();
        // `b` reads `a` and `z` in name order; its consumers are `y`, then
        // its memory (the outputs come last, in declaration order).
        let reads: Vec<&str> = dag.predecessors(b).iter().map(|&p| dag.name(p)).collect();
        assert_eq!(reads, ["a", "z"]);
        let feeds: Vec<&str> = dag.successors(b).iter().map(|&s| dag.name(s)).collect();
        assert_eq!(feeds, ["y", "b__out"]);
        assert_eq!(dag.names().field_id("b__out"), None);
        assert_eq!(dag.id("b__out").map(NodeId::index), Some(4));
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
        let dag = program.dag();
        let extent = |consumer, field| footprints.extent(dag.id(consumer)?, dag.id(field)?);
        // `s` reads `u` at i in [-2, 1], j exactly 0, k in [-3, 0].
        assert_eq!(extent("s", "u").unwrap(), &[(-2, 1), (0, 0), (-3, 0)]);
        // The lower-dimensional `surf` access contributes (0,0) for the
        // missing j dimension and its own k offset.
        assert_eq!(extent("s", "surf").unwrap(), &[(0, 0), (0, 0), (0, 1)]);
        // Scalars never appear as footprint edges.
        assert!(extent("s", "dt").is_none());
        // `t` reads `s` only along j.
        assert_eq!(extent("t", "s").unwrap(), &[(0, 0), (-1, 2), (0, 0)]);
        assert!(extent("t", "u").is_none());
        assert!(extent("missing", "u").is_none());
        let edges: Vec<(&str, &str)> = footprints.edges().map(|(c, f, _)| (c, f)).collect();
        assert_eq!(edges, [("s", "surf"), ("s", "u"), ("t", "s")]);
    }
}
