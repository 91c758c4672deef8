//! Order equivalence: the DAG, its orders and the mapping analyses run on
//! node ids, and must give what the name-keyed algorithms they replaced
//! gave. Those algorithms live on here as test code (a DAG of
//! `BTreeMap`s keyed by owned names, Kahn's algorithm over it, the
//! footprint map, the buffer sizes, the delay recurrence and the
//! partition), and every check compares names, in order:
//!
//! * `topological_nodes()` and `topological_stencils()`;
//! * every node's kind, in-edges and out-edges;
//! * the access footprints;
//! * each field's internal buffer and each edge's delay buffer;
//! * the mapping's channel list;
//! * the 8-device partition.
//!
//! The programs: the execution suite, production horizontal diffusion
//! (unfused and fused), `chain(1..=64)` and `random_dag(0..256)`.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use stencilflow::core::{
    analyze, AnalysisConfig, ChannelEndpoint, HardwareMapping, MultiDevicePlan, PartitionConfig,
};
use stencilflow::dataflow::fuse_all;
use stencilflow::program::{AccessFootprints, NodeKind, StencilDag, StencilProgram};
use stencilflow::workloads as wl;

/// The name-keyed DAG: nodes by name, edges `(from, to, field)` in the
/// order they were added, and per node the positions of its edges.
#[derive(Default)]
struct NamedDag {
    nodes: BTreeMap<String, NodeKind>,
    edges: Vec<(String, String, String)>,
    successors: BTreeMap<String, Vec<usize>>,
    predecessors: BTreeMap<String, Vec<usize>>,
}

impl NamedDag {
    fn add_node(&mut self, name: &str, kind: NodeKind) {
        if !self.nodes.contains_key(name) {
            self.nodes.insert(name.to_string(), kind);
            self.successors.insert(name.to_string(), Vec::new());
            self.predecessors.insert(name.to_string(), Vec::new());
        }
    }

    fn add_edge(&mut self, from: &str, to: &str, field: &str) {
        self.add_node(from, NodeKind::Stencil);
        self.add_node(to, NodeKind::Stencil);
        let index = self.edges.len();
        self.edges
            .push((from.to_string(), to.to_string(), field.to_string()));
        self.successors.get_mut(from).unwrap().push(index);
        self.predecessors.get_mut(to).unwrap().push(index);
    }

    fn of(program: &StencilProgram) -> NamedDag {
        let mut dag = NamedDag::default();
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
            let sink = StencilDag::output_node_name(output);
            dag.add_node(&sink, NodeKind::Output);
            dag.add_edge(output, &sink, output);
        }
        dag
    }

    fn in_edges(&self, node: &str) -> Vec<&(String, String, String)> {
        self.predecessors[node]
            .iter()
            .map(|&e| &self.edges[e])
            .collect()
    }

    fn out_edges(&self, node: &str) -> Vec<&(String, String, String)> {
        self.successors[node]
            .iter()
            .map(|&e| &self.edges[e])
            .collect()
    }

    /// Kahn's algorithm over names.
    fn topological_order(&self) -> Vec<String> {
        let mut in_degree: BTreeMap<&str, usize> = (self.nodes.keys())
            .map(|n| (n.as_str(), self.predecessors[n].len()))
            .collect();
        let mut queue: VecDeque<&str> = (in_degree.iter())
            .filter(|(_, &d)| d == 0)
            .map(|(&n, _)| n)
            .collect();
        let mut order = Vec::new();
        while let Some(node) = queue.pop_front() {
            order.push(node.to_string());
            for &edge in &self.successors[node] {
                let to = self.edges[edge].1.as_str();
                let entry = in_degree.get_mut(to).unwrap();
                *entry -= 1;
                if *entry == 0 {
                    queue.push_back(to);
                }
            }
        }
        assert_eq!(order.len(), self.nodes.len(), "the programs are acyclic");
        order
    }
}

/// The footprint map keyed by `(consumer, field)` names.
fn named_footprints(program: &StencilProgram) -> BTreeMap<(String, String), Vec<(i64, i64)>> {
    let space = program.space();
    let mut extents = BTreeMap::new();
    for stencil in program.stencils() {
        for (field, info) in stencil.accesses.iter() {
            if info.index_vars.is_empty() {
                continue;
            }
            let entry = extents
                .entry((stencil.name.clone(), field.to_string()))
                .or_insert_with(|| vec![(0i64, 0i64); space.rank()]);
            for offsets in &info.offsets {
                for (var, &off) in info.index_vars.iter().zip(offsets) {
                    if let Some(dim) = space.dim_index(var) {
                        entry[dim].0 = entry[dim].0.min(off);
                        entry[dim].1 = entry[dim].1.max(off);
                    }
                }
            }
        }
    }
    extents
}

/// One footprint edge: `(consumer, field, extents)`.
type Footprint<'a> = (&'a str, &'a str, &'a [(i64, i64)]);

/// One field's internal buffer: `(accesses, size, lookahead, fill start,
/// taps)`.
type Buffer = (usize, u64, u64, u64, Vec<u64>);

/// Every stencil's internal buffers, by stencil and field name.
fn named_buffers(
    program: &StencilProgram,
    width: u64,
) -> BTreeMap<String, BTreeMap<String, Buffer>> {
    let space = program.space();
    let mut all = BTreeMap::new();
    for stencil in program.stencils() {
        let mut fields = BTreeMap::new();
        for (field, info) in stencil.accesses.iter() {
            let mut linearized: Vec<i64> = (info.offsets.iter())
                .map(|offsets| {
                    let mut full = vec![0i64; space.rank()];
                    for (var, &off) in info.index_vars.iter().zip(offsets) {
                        if let Some(dim) = space.dim_index(var) {
                            full[dim] = off;
                        }
                    }
                    space.linearize_offset(&full)
                })
                .collect();
            linearized.sort_unstable();
            let highest = linearized.last().copied().unwrap_or(0);
            let (size, taps) = if linearized.len() >= 2 {
                let lowest = linearized[0];
                let taps = linearized.iter().map(|&l| (l - lowest) as u64).collect();
                ((highest - lowest) as u64 + width, taps)
            } else {
                (0, vec![0])
            };
            let lookahead = highest.max(0) as u64;
            fields.insert(
                field.to_string(),
                (linearized.len(), size, lookahead, 0, taps),
            );
        }
        let max = fields.values().map(|b| b.1).max().unwrap_or(0);
        for buffer in fields.values_mut() {
            buffer.3 = max - buffer.1;
        }
        all.insert(stencil.name.clone(), fields);
    }
    all
}

/// The delay (in vector words) a buffer imposes on its field's edge.
fn delay_words(buffer: &Buffer, width: u64) -> u64 {
    let lookahead = if buffer.2 > 0 {
        buffer.2 + width.max(1)
    } else {
        0
    };
    buffer.1.max(lookahead).div_ceil(width.max(1))
}

/// One channel: `(from, to, field, edge delay, delay words, depth words)`.
type Depth = (String, String, String, u64, u64, u64);

/// The delay-buffer recurrence over names, in topological order.
fn named_delays(
    program: &StencilProgram,
    dag: &NamedDag,
    buffers: &BTreeMap<String, BTreeMap<String, Buffer>>,
    config: &AnalysisConfig,
    width: u64,
) -> Vec<Depth> {
    let mut arrival: BTreeMap<String, u64> = BTreeMap::new();
    let mut channels: Vec<Depth> = Vec::new();
    for node in dag.topological_order() {
        let kind = dag.nodes[&node];
        let first = channels.len();
        let mut need = 0;
        for (from, _, field) in dag.in_edges(&node) {
            let init = match kind {
                NodeKind::Stencil => (buffers.get(&node))
                    .and_then(|fields| fields.get(field))
                    .map_or(0, |b| delay_words(b, width)),
                _ => 0,
            };
            let delay = arrival.get(from).copied().unwrap_or(0) + init;
            need = need.max(delay);
            channels.push((from.clone(), node.clone(), field.clone(), delay, 0, 0));
        }
        for channel in &mut channels[first..] {
            channel.4 = need - channel.3;
            channel.5 = channel.4 + config.min_channel_depth;
        }
        let compute = match kind {
            NodeKind::Stencil => {
                (program.stencil(&node)).map_or(0, |s| s.compute_latency(&config.latencies))
            }
            _ => 0,
        };
        arrival.insert(node, need + compute);
    }
    channels
}

/// One device: `(stencils, local inputs, outputs, remote inputs, remote
/// outputs)`, each remote stream `(from, from device, to, to device,
/// field)`.
type Device = (
    Vec<String>,
    BTreeSet<String>,
    Vec<String>,
    Vec<Remote>,
    Vec<Remote>,
);
type Remote = (String, usize, String, usize, String);

/// The contiguous, flop-balanced partition over names.
fn named_partition(program: &StencilProgram, devices: usize) -> (Vec<Device>, BTreeSet<String>) {
    let order = program.topological_stencils().unwrap();
    let weights: Vec<u64> = (order.iter())
        .map(|name| program.stencil(name).unwrap().op_count().flops().max(1))
        .collect();
    let target = weights.iter().sum::<u64>() as f64 / devices as f64;
    let (mut assignment, mut device, mut ops) = (Vec::new(), 0usize, 0u64);
    for (position, &weight) in weights.iter().enumerate() {
        let left = order.len() - position;
        let after = devices - device - 1;
        let must = device + 1 < devices && ops > 0 && left <= after;
        let want = device + 1 < devices && ops as f64 >= target && left > after;
        if must || want {
            device += 1;
            ops = 0;
        }
        assignment.push(device);
        ops += weight;
    }
    let device_of: BTreeMap<&str, usize> = (order.iter())
        .zip(&assignment)
        .map(|(name, &d)| (name.as_str(), d))
        .collect();
    let mut parts: Vec<Device> = vec![Default::default(); devices];
    for (name, &d) in order.iter().zip(&assignment) {
        parts[d].0.push(name.clone());
    }
    let mut readers: BTreeMap<String, BTreeSet<usize>> = BTreeMap::new();
    for name in order {
        let consumer = device_of[name.as_str()];
        for (field, _) in program.stencil(name).unwrap().accesses.iter() {
            if program.is_input(field) {
                parts[consumer].1.insert(field.to_string());
                readers
                    .entry(field.to_string())
                    .or_default()
                    .insert(consumer);
            } else if let Some(&producer) = device_of.get(field) {
                if producer != consumer {
                    let remote = (
                        field.to_string(),
                        producer,
                        name.clone(),
                        consumer,
                        field.to_string(),
                    );
                    parts[producer].4.push(remote.clone());
                    parts[consumer].3.push(remote);
                }
            }
        }
    }
    for output in program.outputs() {
        if let Some(&d) = device_of.get(output.as_str()) {
            parts[d].2.push(output.clone());
        }
    }
    let replicated = (readers.into_iter())
        .filter(|(_, devices)| devices.len() > 1)
        .map(|(field, _)| field)
        .collect();
    (parts, replicated)
}

fn check(label: &str, program: &StencilProgram) {
    let config = AnalysisConfig::paper_defaults();
    let named = NamedDag::of(program);
    let dag = program.dag();

    // The orders.
    let order = named.topological_order();
    let ids: Vec<&str> = (program.topological_nodes().unwrap().iter())
        .map(|&id| dag.name(id))
        .collect();
    assert_eq!(ids, order, "{label}: topological_nodes");
    let stencils: Vec<&String> = order.iter().filter(|n| program.is_stencil(n)).collect();
    let by_id: Vec<&String> = program.topological_stencils().unwrap().iter().collect();
    assert_eq!(by_id, stencils, "{label}: topological_stencils");

    // Every node's kind and edges.
    let nodes: BTreeMap<&str, NodeKind> = dag.nodes().map(|n| (n.name, n.kind)).collect();
    let named_nodes: BTreeMap<&str, NodeKind> = (named.nodes.iter())
        .map(|(n, &k)| (n.as_str(), k))
        .collect();
    assert_eq!(nodes, named_nodes, "{label}: nodes");
    for node in dag.nodes() {
        let ins: Vec<&str> = (dag.predecessors(node.id).iter())
            .map(|&p| dag.name(p))
            .collect();
        let named_ins: Vec<&str> = (named.in_edges(node.name).iter())
            .map(|(from, _, field)| {
                assert_eq!(from, field, "an edge carries its producer's field");
                from.as_str()
            })
            .collect();
        assert_eq!(ins, named_ins, "{label}: in-edges of {}", node.name);
        let outs: Vec<&str> = (dag.successors(node.id).iter())
            .map(|&s| dag.name(s))
            .collect();
        let named_outs: Vec<&str> = (named.out_edges(node.name).iter())
            .map(|(_, to, _)| to.as_str())
            .collect();
        assert_eq!(outs, named_outs, "{label}: out-edges of {}", node.name);
    }

    // The footprints.
    let footprints = AccessFootprints::of_program(program);
    let by_id: Vec<Footprint> = footprints.edges().collect();
    let named_fp = named_footprints(program);
    let named_fp: Vec<Footprint> = (named_fp.iter())
        .map(|((c, f), e)| (c.as_str(), f.as_str(), e.as_slice()))
        .collect();
    assert_eq!(by_id, named_fp, "{label}: footprints");

    // Each field's internal buffer.
    let analysis = analyze(program, &config).unwrap();
    let width = analysis.delay.vector_width();
    let buffers = named_buffers(program, width);
    for (stencil, fields) in &buffers {
        let kept = analysis.internal.stencil(stencil).unwrap();
        assert_eq!(kept.vector_width, width, "{label}: width of {stencil}");
        for (field, expected) in fields {
            let id = dag.id(field).unwrap();
            let b = kept.field(id).unwrap();
            assert_eq!(b.field, id);
            let got = (
                b.accesses,
                b.size_elements,
                b.lookahead_elements,
                b.fill_start,
                b.tap_offsets.clone(),
            );
            assert_eq!(&got, expected, "{label}: buffer of {field} in {stencil}");
        }
    }

    // Each edge's delay buffer, in channel order.
    let depths: Vec<Depth> = (analysis.delay.channels().iter())
        .map(|c| {
            // A channel carries the field its producer names.
            let (from, to) = (dag.name(c.from).to_string(), dag.name(c.to).to_string());
            (
                from.clone(),
                to,
                from,
                c.edge_delay,
                c.delay_words,
                c.depth_words,
            )
        })
        .collect();
    let named_depths = named_delays(program, &named, &buffers, &config, width);
    assert_eq!(depths, named_depths, "{label}: delay buffers");

    // The mapping's channels, in order.
    let mapping = HardwareMapping::build(program, &config).unwrap();
    let endpoint = |name: &str| {
        let id = dag.id(name).unwrap();
        match named.nodes[name] {
            NodeKind::Input => ChannelEndpoint::MemoryRead(id),
            NodeKind::Output => ChannelEndpoint::MemoryWrite(id),
            NodeKind::Stencil => ChannelEndpoint::Stencil(id),
        }
    };
    assert_eq!(
        mapping.channels.len(),
        named_depths.len(),
        "{label}: channels"
    );
    for (channel, (from, to, field, _, _, depth)) in mapping.channels.iter().zip(&named_depths) {
        assert_eq!(channel.from, endpoint(from), "{label}: {from} -> {to}");
        assert_eq!(channel.to, endpoint(to), "{label}: {from} -> {to}");
        assert_eq!(
            dag.name(channel.from.id()),
            field,
            "{label}: {from} -> {to}"
        );
        assert_eq!(channel.depth_words, *depth, "{label}: {from} -> {to}");
    }
    for (ix, unit) in mapping.units.iter().enumerate() {
        let name = dag.name(unit.id);
        let (ins, outs) = mapping.unit_channels(ix);
        let ins: Vec<&str> = (ins.iter())
            .map(|&at| dag.name(mapping.channels[at as usize].from.id()))
            .collect();
        let named_ins: Vec<&str> = (named.in_edges(name).iter())
            .map(|(from, _, _)| from.as_str())
            .collect();
        assert_eq!(ins, named_ins, "{label}: channels into {name}");
        assert_eq!(outs.len(), named.out_edges(name).len());
    }

    // The 8-device partition (one device per stencil if there are fewer).
    let devices = program.stencil_count().min(8);
    let plan = MultiDevicePlan::partition(program, &PartitionConfig::devices(devices)).unwrap();
    let (parts, replicated) = named_partition(program, devices);
    let remote = |r: &stencilflow::core::partition::RemoteChannel| {
        let (from, to) = (r.from_stencil.clone(), r.to_stencil.clone());
        (from, r.from_device, to, r.to_device, r.from_stencil.clone())
    };
    let got: Vec<Device> = (plan.devices.iter())
        .map(|d| {
            (
                d.stencils.clone(),
                d.local_inputs.clone(),
                d.outputs.clone(),
                d.remote_inputs.iter().map(remote).collect(),
                d.remote_outputs.iter().map(remote).collect(),
            )
        })
        .collect();
    assert_eq!(got, parts, "{label}: partition");
    assert_eq!(
        plan.replicated_inputs, replicated,
        "{label}: replicated inputs"
    );
}

#[test]
fn the_execution_suite_and_production_hdiff_map_as_by_name() {
    for program in wl::execution_suite() {
        check(program.name(), &program);
    }
    let hdiff = wl::horizontal_diffusion(&wl::HorizontalDiffusionSpec::production(1));
    check("hdiff", &hdiff);
    check("hdiff fused", &fuse_all(&hdiff).unwrap());
}

#[test]
fn chains_map_as_by_name() {
    for stages in 1..=64 {
        let program = wl::chain_program(&wl::ChainSpec::new(stages, 8).with_shape(&[16, 8, 8]));
        check(&format!("chain{stages}"), &program);
    }
}

#[test]
fn random_dags_map_as_by_name() {
    for seed in 0..256 {
        check(&format!("random_dag({seed})"), &wl::random_dag(seed));
    }
}
