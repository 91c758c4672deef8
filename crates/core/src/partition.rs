//! Multi-device partitioning (§III-B, Fig. 5).
//!
//! To scale beyond the off-chip bandwidth, on-chip memory, and logic of a
//! single chip, the stencil DAG is split across multiple devices. Stencil
//! units keep their single-device semantics; edges that cross the cut become
//! network channels (SMI remote streams), and any input field read by
//! stencils on several devices must be present in each of those devices'
//! DRAM (replication).

use crate::error::{CoreError, Result};
use std::collections::BTreeSet;
use stencilflow_program::{NodeId, NodeKind, StencilProgram};

/// Parameters of the partitioning step.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionConfig {
    /// Number of devices to partition onto.
    pub num_devices: usize,
    /// Maximum floating-point operations per cycle a single device can host
    /// (a proxy for its logic/DSP capacity). `None` disables the check.
    pub max_ops_per_device: Option<u64>,
    /// Bandwidth of one inter-device link in words per cycle (a 40 Gbit/s
    /// QSFP link at 300 MHz moves ~4 32-bit words per cycle; the testbed has
    /// two links between consecutive devices). A simulated remote stream
    /// moves at most this many words per cycle.
    pub link_words_per_cycle: f64,
    /// Number of parallel links between consecutive devices.
    pub links_between_devices: usize,
    /// Cycles a word spends on an inter-device link. The delay-buffer
    /// analysis charges it on every edge that crosses devices, and a
    /// simulated remote stream holds that many words in flight.
    pub link_latency_cycles: u64,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        PartitionConfig {
            num_devices: 2,
            max_ops_per_device: None,
            link_words_per_cycle: 4.0,
            links_between_devices: 2,
            link_latency_cycles: 200,
        }
    }
}

impl PartitionConfig {
    /// Partitioning onto `n` devices with default link parameters.
    pub fn devices(n: usize) -> Self {
        PartitionConfig {
            num_devices: n,
            ..Default::default()
        }
    }
}

/// A stream crossing a device boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteChannel {
    /// Producing stencil.
    pub from_stencil: String,
    /// Device hosting the producer.
    pub from_device: usize,
    /// Consuming stencil.
    pub to_stencil: String,
    /// Device hosting the consumer.
    pub to_device: usize,
}

/// The part of a program mapped to one device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DevicePartition {
    /// Device index in the chain (0-based).
    pub index: usize,
    /// Stencils hosted on this device, in topological order.
    pub stencils: Vec<String>,
    /// Input fields this device must read from its own DRAM.
    pub local_inputs: BTreeSet<String>,
    /// Program outputs written from this device.
    pub outputs: Vec<String>,
    /// Remote streams arriving at this device.
    pub remote_inputs: Vec<RemoteChannel>,
    /// Remote streams leaving this device.
    pub remote_outputs: Vec<RemoteChannel>,
}

/// A program partitioned across multiple devices.
#[derive(Debug, Clone)]
pub struct MultiDevicePlan {
    /// Per-device partitions, in chain order.
    pub devices: Vec<DevicePartition>,
    /// Input fields present in more than one device's DRAM (replicated, as
    /// `a2` in Fig. 5).
    pub replicated_inputs: BTreeSet<String>,
    /// All inter-device streams.
    pub remote_channels: Vec<RemoteChannel>,
    /// Words per cycle required on the busiest device-to-device boundary.
    pub peak_link_words_per_cycle: f64,
    /// The partitioning configuration used.
    pub config: PartitionConfig,
    /// Per node id, the device of a stencil (`None` for a memory).
    device_of: Vec<Option<usize>>,
}

impl MultiDevicePlan {
    /// Partition a program onto `config.num_devices` devices.
    ///
    /// The partition is contiguous in topological order and balanced by
    /// per-stencil operation counts, which keeps all inter-device streams
    /// flowing "forward" along the chain — the physical topology of the
    /// paper's testbed (FPGAs chained through an optical switch).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Partition`] if there are fewer stencils than
    /// devices, or if a device's share exceeds `max_ops_per_device`.
    pub fn partition(program: &StencilProgram, config: &PartitionConfig) -> Result<Self> {
        if config.num_devices == 0 {
            return Err(CoreError::Partition {
                message: "cannot partition onto zero devices".into(),
            });
        }
        let dag = program.dag();
        let order: Vec<NodeId> = (program.topological_nodes()?.iter())
            .copied()
            .filter(|&id| dag.kind(id) == NodeKind::Stencil)
            .collect();
        if order.len() < config.num_devices {
            return Err(CoreError::Partition {
                message: format!(
                    "{} stencils cannot be spread over {} devices",
                    order.len(),
                    config.num_devices
                ),
            });
        }
        let stencil = |id: NodeId| program.stencil_at(id).expect("stencil nodes are stencils");

        // Balanced contiguous split by per-stencil flops.
        let weights: Vec<u64> = (order.iter())
            .map(|&id| stencil(id).op_count().flops().max(1))
            .collect();
        let total: u64 = weights.iter().sum();
        let target = total as f64 / config.num_devices as f64;

        let mut assignment: Vec<usize> = Vec::with_capacity(order.len());
        let mut device = 0usize;
        let mut ops_on_device = 0u64;
        for (position, &weight) in weights.iter().enumerate() {
            let stencils_left = order.len() - position; // including this one
            let devices_after_current = config.num_devices - device - 1;
            // Every later device still needs at least one stencil: if only
            // exactly that many stencils remain, the current one must open
            // the next device.
            let must_advance = device + 1 < config.num_devices
                && ops_on_device > 0
                && stencils_left <= devices_after_current;
            // Otherwise advance once the current device holds its balanced
            // share, as long as later devices can still be filled.
            let want_advance = device + 1 < config.num_devices
                && ops_on_device as f64 >= target
                && stencils_left > devices_after_current;
            if must_advance || want_advance {
                device += 1;
                ops_on_device = 0;
            }
            assignment.push(device);
            ops_on_device += weight;
        }

        // Per node id, the device of a stencil.
        let mut device_of: Vec<Option<usize>> = vec![None; dag.node_count()];
        for (&id, &d) in order.iter().zip(&assignment) {
            device_of[id.index()] = Some(d);
        }

        // Per-device ops check.
        if let Some(max_ops) = config.max_ops_per_device {
            let mut per_device = vec![0u64; config.num_devices];
            for (&id, &d) in order.iter().zip(&assignment) {
                per_device[d] += stencil(id).op_count().flops();
            }
            if let Some((d, &ops)) = per_device.iter().enumerate().find(|(_, &o)| o > max_ops) {
                return Err(CoreError::Partition {
                    message: format!(
                        "device {d} would host {ops} Op/cycle, exceeding the limit of {max_ops}"
                    ),
                });
            }
        }

        // Build partitions.
        let mut devices: Vec<DevicePartition> = (0..config.num_devices)
            .map(|index| DevicePartition {
                index,
                stencils: Vec::new(),
                local_inputs: BTreeSet::new(),
                outputs: Vec::new(),
                remote_inputs: Vec::new(),
                remote_outputs: Vec::new(),
            })
            .collect();
        for (&id, &d) in order.iter().zip(assignment.iter()) {
            devices[d].stencils.push(dag.name(id).to_string());
        }

        // Per input id, the first device that reads it, and whether another
        // device reads it too.
        let mut first_reader: Vec<Option<usize>> = vec![None; dag.node_count()];
        let mut replicated = vec![false; dag.node_count()];
        let mut remote_channels = Vec::new();
        for &consumer in &order {
            let consumer_device = device_of[consumer.index()].expect("placed above");
            // The fields a stencil reads, in name order.
            for &field in dag.predecessors(consumer) {
                let name = dag.name(field);
                if dag.kind(field) == NodeKind::Input {
                    let local = &mut devices[consumer_device].local_inputs;
                    if !local.contains(name) {
                        local.insert(name.to_string());
                    }
                    match first_reader[field.index()] {
                        None => first_reader[field.index()] = Some(consumer_device),
                        Some(d) if d != consumer_device => replicated[field.index()] = true,
                        Some(_) => {}
                    }
                } else if let Some(producer_device) = device_of[field.index()] {
                    if producer_device != consumer_device {
                        let channel = RemoteChannel {
                            from_stencil: name.to_string(),
                            from_device: producer_device,
                            to_stencil: dag.name(consumer).to_string(),
                            to_device: consumer_device,
                        };
                        devices[producer_device]
                            .remote_outputs
                            .push(channel.clone());
                        devices[consumer_device].remote_inputs.push(channel.clone());
                        remote_channels.push(channel);
                    }
                }
            }
        }
        for output in program.outputs() {
            let device = dag.id(output).and_then(|id| device_of[id.index()]);
            if let Some(d) = device {
                devices[d].outputs.push(output.clone());
            }
        }

        let replicated_inputs: BTreeSet<String> = (dag.nodes())
            .filter(|node| replicated[node.id.index()])
            .map(|node| node.name.to_string())
            .collect();

        // Peak boundary traffic: streams crossing each consecutive boundary.
        let width = program.vectorization().max(1) as f64;
        let mut peak = 0.0f64;
        for boundary in 0..config.num_devices.saturating_sub(1) {
            let crossing = remote_channels
                .iter()
                .filter(|c| c.from_device <= boundary && c.to_device > boundary)
                .count();
            peak = peak.max(crossing as f64 * width);
        }

        Ok(MultiDevicePlan {
            devices,
            replicated_inputs,
            remote_channels,
            peak_link_words_per_cycle: peak,
            config: config.clone(),
            device_of,
        })
    }

    /// Whether the edge from node `from` to node `to` of the partitioned
    /// program crosses devices (a remote stream over a link): both are
    /// stencils, on different devices.
    pub fn is_remote(&self, from: NodeId, to: NodeId) -> bool {
        let (from, to) = (self.device_of[from.index()], self.device_of[to.index()]);
        from.is_some() && to.is_some() && from != to
    }

    /// Number of devices in the plan.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Whether the network links can sustain the required boundary traffic
    /// without throttling the pipeline.
    pub fn network_feasible(&self) -> bool {
        let capacity = self.config.link_words_per_cycle * self.config.links_between_devices as f64;
        self.peak_link_words_per_cycle <= capacity
    }
}

/// One shard's contiguous slab of the outermost iteration-space dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlabRange {
    /// Shard index (0-based, in chain order).
    pub shard: usize,
    /// First owned row (inclusive).
    pub start: usize,
    /// One past the last owned row (exclusive).
    pub end: usize,
}

/// A contiguous, balanced split of the outermost iteration-space dimension
/// across worker shards.
///
/// This is the data-parallel counterpart of [`MultiDevicePlan`]: where the
/// device chain splits the stencil *DAG* (§III-B) and streams whole fields
/// across the cut, a slab partition splits the *iteration space* and only
/// exchanges halo rows between neighboring shards. Both are contiguous in
/// their respective order, so all communication stays between neighbors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SlabPartition {
    /// Extent of the partitioned (outermost) dimension.
    pub extent: usize,
    /// Per-shard row ranges, in order; they tile `0..extent` exactly.
    pub ranges: Vec<SlabRange>,
}

impl SlabPartition {
    /// Split `extent` rows into `shards` contiguous ranges, each at least
    /// `min_rows` rows, balanced to within one row.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Partition`] when `shards` is zero or the extent
    /// cannot give every shard its `min_rows` floor (callers reduce the
    /// shard count and retry).
    pub(crate) fn split(extent: usize, shards: usize, min_rows: usize) -> Result<Self> {
        if shards == 0 {
            return Err(CoreError::Partition {
                message: "cannot shard onto zero workers".into(),
            });
        }
        let floor = min_rows.max(1);
        if extent < shards.saturating_mul(floor) {
            return Err(CoreError::Partition {
                message: format!(
                    "{extent} rows cannot give {shards} shards at least \
                     {floor} rows each"
                ),
            });
        }
        let base = extent / shards;
        let remainder = extent % shards;
        let mut ranges = Vec::with_capacity(shards);
        let mut start = 0usize;
        for shard in 0..shards {
            let rows = base + usize::from(shard < remainder);
            ranges.push(SlabRange {
                shard,
                start,
                end: start + rows,
            });
            start += rows;
        }
        Ok(SlabPartition { extent, ranges })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_support::listing1;
    use stencilflow_expr::DataType;
    use stencilflow_program::StencilProgramBuilder;

    #[test]
    fn partitions_are_contiguous_and_cover_all_stencils() {
        let program = listing1();
        let plan = MultiDevicePlan::partition(&program, &PartitionConfig::devices(2)).unwrap();
        assert_eq!(plan.device_count(), 2);
        let all: Vec<String> = plan
            .devices
            .iter()
            .flat_map(|d| d.stencils.clone())
            .collect();
        assert_eq!(all.len(), 5);
        // Contiguity in topological order: the concatenation equals a
        // topological order of the program.
        let order = program.topological_stencils().unwrap();
        assert_eq!(all, order);
        assert!(!plan.devices[0].stencils.is_empty());
        assert!(!plan.devices[1].stencils.is_empty());
    }

    #[test]
    fn replicated_inputs_are_detected() {
        // Fig. 5: a field read by stencils on both devices must exist in both
        // DRAMs. Build a program where `shared` is read by the first and the
        // last stencil of a chain, then split in the middle.
        let program = StencilProgramBuilder::new("p", &[32, 32])
            .input("src", DataType::Float32, &["i", "j"])
            .input("shared", DataType::Float32, &["i", "j"])
            .stencil("s0", "src[i,j] + shared[i,j]")
            .stencil("s1", "s0[i,j-1] + s0[i,j+1]")
            .stencil("s2", "s1[i,j-1] + s1[i,j+1]")
            .stencil("s3", "s2[i,j] + shared[i,j]")
            .output("s3")
            .build()
            .unwrap();
        let plan = MultiDevicePlan::partition(&program, &PartitionConfig::devices(2)).unwrap();
        assert!(plan.replicated_inputs.contains("shared"));
        assert!(!plan.replicated_inputs.contains("src"));
        // Both devices list `shared` among their local inputs.
        let readers: Vec<bool> = plan
            .devices
            .iter()
            .map(|d| d.local_inputs.contains("shared"))
            .collect();
        assert_eq!(readers.iter().filter(|&&r| r).count(), 2);
    }

    #[test]
    fn remote_channels_cross_the_cut_forward() {
        let program = listing1();
        let plan = MultiDevicePlan::partition(&program, &PartitionConfig::devices(2)).unwrap();
        assert!(!plan.remote_channels.is_empty());
        let id = |name: &str| program.dag().id(name).unwrap();
        for channel in &plan.remote_channels {
            assert!(channel.from_device < channel.to_device);
            assert!(plan.is_remote(id(&channel.from_stencil), id(&channel.to_stencil)));
        }
        let local = &plan.devices[0].stencils;
        assert!(!plan.is_remote(id(&local[0]), id(&local[1])));
        // Remote inputs/outputs listed on the right devices.
        for channel in &plan.remote_channels {
            assert!(plan.devices[channel.from_device]
                .remote_outputs
                .contains(channel));
            assert!(plan.devices[channel.to_device]
                .remote_inputs
                .contains(channel));
        }
    }

    #[test]
    fn too_many_devices_is_an_error() {
        let program = listing1();
        assert!(matches!(
            MultiDevicePlan::partition(&program, &PartitionConfig::devices(9)),
            Err(CoreError::Partition { .. })
        ));
        assert!(matches!(
            MultiDevicePlan::partition(&program, &PartitionConfig::devices(0)),
            Err(CoreError::Partition { .. })
        ));
    }

    #[test]
    fn ops_limit_is_enforced() {
        let program = listing1();
        let config = PartitionConfig {
            num_devices: 2,
            max_ops_per_device: Some(1),
            ..Default::default()
        };
        assert!(matches!(
            MultiDevicePlan::partition(&program, &config),
            Err(CoreError::Partition { .. })
        ));
    }

    #[test]
    fn network_feasibility_reflects_link_capacity() {
        let program = listing1();
        let generous = PartitionConfig {
            num_devices: 2,
            link_words_per_cycle: 100.0,
            ..Default::default()
        };
        let plan = MultiDevicePlan::partition(&program, &generous).unwrap();
        assert!(plan.network_feasible());

        let tight = PartitionConfig {
            num_devices: 2,
            link_words_per_cycle: 0.25,
            links_between_devices: 1,
            ..Default::default()
        };
        let plan = MultiDevicePlan::partition(&program, &tight).unwrap();
        if plan.peak_link_words_per_cycle > 0.25 {
            assert!(!plan.network_feasible());
        }
    }

    #[test]
    fn single_device_partition_has_no_remote_channels() {
        let program = listing1();
        let plan = MultiDevicePlan::partition(&program, &PartitionConfig::devices(1)).unwrap();
        assert_eq!(plan.device_count(), 1);
        assert!(plan.remote_channels.is_empty());
        assert!(plan.replicated_inputs.is_empty());
    }

    #[test]
    fn slab_partition_tiles_the_extent_balanced() {
        let slabs = SlabPartition::split(67, 4, 1).unwrap();
        assert_eq!(slabs.ranges.len(), 4);
        assert_eq!(slabs.ranges[0].start, 0);
        assert_eq!(slabs.ranges[3].end, 67);
        for pair in slabs.ranges.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
        let rows: Vec<usize> = slabs.ranges.iter().map(|r| r.end - r.start).collect();
        assert_eq!(rows.iter().sum::<usize>(), 67);
        assert!(rows.iter().max().unwrap() - rows.iter().min().unwrap() <= 1);
    }

    #[test]
    fn slab_partition_enforces_min_rows() {
        assert!(SlabPartition::split(64, 0, 1).is_err());
        assert!(SlabPartition::split(7, 8, 1).is_err());
        assert!(matches!(
            SlabPartition::split(64, 8, 9),
            Err(CoreError::Partition { .. })
        ));
        assert!(SlabPartition::split(64, 8, 8).is_ok());
    }
}
